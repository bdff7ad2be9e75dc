//! The count gates: the paper's cost laws and the zero-copy and heap laws,
//! checked as exact allocation, byte and operation counts. Each `gate_*`
//! function below states its law: `zero_copy`, `small_path`,
//! `sharded_gossip`, `group_commit`, `ack_path`, `accept_path`, `cold_start`,
//! `conn_reuse`, `heap`.
//!
//! A plain `main` (`harness = false`) runs the gates one after another in
//! one process, so no other test thread allocates inside a counting window.
//! Every measured operation runs a fixed number of times: a count per
//! operation is the same on every run. Wall-clock is `epibench/`'s job.
//!
//! Run: `cargo test -p epidb-bench --test count_gates`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bytes::Bytes;
use epidb_common::{Costs, ItemId, NodeId, ShardId};
use epidb_core::codec::{decode_response_shared, encode_response, encode_response_to, Writer};
use epidb_core::{
    oob_copy, pull, pull_delta, ConflictPolicy, Engine, LocalShardedTransport, PropagationResponse,
    ProtocolResponse, PullOutcome, Replica, ShardMap, ShardTransport, ShardedNode,
};
use epidb_durable::testdir::TempDir;
use epidb_durable::{DurabilityConfig, GroupWal, StreamSpec};
use epidb_net::{
    pool, AsyncTcpCluster, AsyncTcpConfig, ShardedConfig, ShardedTcpCluster, TcpConfig,
};
use epidb_store::{ItemStore, UpdateOp};

// --- counting allocator -----------------------------------------------------

/// Counts allocation calls and bytes, and tracks the live and peak live
/// heap (a `realloc` counts as its old size freed, then its new size
/// allocated).
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(by: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(by as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(by as u64, Ordering::Relaxed) + by as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's own layout and
// pointer; the counters are statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (ALLOC_CALLS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
}

/// Live heap bytes now.
fn heap_live() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Open a peak window: reset the peak to the live heap, and return it.
fn heap_window() -> u64 {
    let live = heap_live();
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// How far the peak rose above `live` since [`heap_window`] returned it.
fn heap_raised(live: u64) -> u64 {
    PEAK.load(Ordering::Relaxed).saturating_sub(live)
}

// --- measurement ------------------------------------------------------------

/// Untimed runs before counting starts: lazily built state settles.
const WARMUP: u64 = 2;
/// Counted runs per operation.
const MEASURED: u64 = 16;

/// Allocation traffic of one operation, averaged over the counted runs.
#[derive(Clone, Copy, Debug)]
struct PerOp {
    allocs: f64,
    bytes: f64,
}

/// Run `op` over state from `setup`, `WARMUP` times and then `MEASURED`
/// times counted. Only `op` is inside the counting window: building its
/// state and dropping its result are not.
fn per_op<S, R>(mut setup: impl FnMut() -> S, mut op: impl FnMut(S) -> R) -> PerOp {
    for _ in 0..WARMUP {
        black_box(op(setup()));
    }
    let (mut calls, mut bytes) = (0, 0);
    for _ in 0..MEASURED {
        let state = setup();
        let (c0, b0) = alloc_snapshot();
        let out = op(state);
        let (c1, b1) = alloc_snapshot();
        black_box(out);
        calls += c1 - c0;
        bytes += b1 - b0;
    }
    PerOp { allocs: calls as f64 / MEASURED as f64, bytes: bytes as f64 / MEASURED as f64 }
}

/// Source/destination pair where the source has `m` updated items of
/// `val_len` bytes each (deterministic contents).
fn build_pair(n_nodes: usize, n_items: usize, m: usize, val_len: usize) -> (Replica, Replica) {
    assert!(m <= n_items);
    let mut src = Replica::new(NodeId(0), n_nodes, n_items);
    let dst = Replica::new(NodeId(1), n_nodes, n_items);
    for i in 0..m {
        src.update(ItemId::from_index(i), UpdateOp::set(vec![(i % 251) as u8; val_len]))
            .expect("update");
    }
    (src, dst)
}

// --- zero-copy --------------------------------------------------------------

/// Shipping a 1 MiB value must not allocate anywhere near the payload it
/// ships: framing a pull response for the socket (with the transport's one
/// reusable writer), a whole pull, an out-of-bound copy, and a restore
/// from a snapshot frame (the value a sub-view of the frame). The bound (a
/// quarter of the payload) leaves room for control structures; any
/// per-byte copy of the value blows straight through it.
fn gate_zero_copy() -> String {
    const LARGE_VAL: usize = 1 << 20;
    let (mut src, dst) = build_pair(4, 1, 1, LARGE_VAL);
    let resp = ProtocolResponse::Pull(src.prepare_propagation(dst.dbvv()));
    let mut w = Writer::new();
    let frame = per_op(
        || (),
        |()| {
            use std::io::Write as _;
            let mut sink = std::io::sink();
            encode_response_to(&resp, &mut w);
            sink.write_all(&(w.len() as u32).to_le_bytes()).unwrap();
            for chunk in w.chunks() {
                sink.write_all(chunk).unwrap();
            }
        },
    );
    let (mut src, dst0) = build_pair(3, 1, 1, LARGE_VAL);
    let pulled = per_op(
        || dst0.clone(),
        |mut dst| {
            assert!(matches!(pull(&mut dst, &mut src).unwrap(), PullOutcome::Propagated(_)));
            dst
        },
    );
    let (mut src, _) = build_pair(2, 4, 1, LARGE_VAL);
    let oob = per_op(
        || Replica::new(NodeId(1), 2, 4),
        |mut dst| {
            oob_copy(&mut dst, &mut src, ItemId(0)).unwrap();
            dst
        },
    );
    let snapshot = Bytes::from(src.to_snapshot());
    let restored = per_op(|| (), |()| Replica::from_snapshot_shared(&snapshot).unwrap());

    let mut summary = Vec::new();
    for (name, m) in [
        ("codec_frame_large_value", frame),
        ("oob_large_value", oob),
        ("pull_large_value", pulled),
        ("snapshot_restore_large_value", restored),
    ] {
        let bound = LARGE_VAL as f64 / 4.0;
        assert!(
            m.bytes < bound,
            "zero-copy regression in `{name}`: {:.0} alloc bytes/op >= {bound:.0} \
             (payload {LARGE_VAL} bytes/op)",
            m.bytes,
        );
        summary.push(format!("{name} {:.0} B/op", m.bytes));
    }
    summary.join(", ")
}

// --- small-path -------------------------------------------------------------

/// Decoding a frame of many small items must be O(1) allocations (any
/// per-item allocation multiplies by the item count and blows the bound),
/// and one steady-state delta gossip round must stay under a fixed
/// allocation budget. Each round patches every item with small
/// `write_range` updates at the source and ships the op chains to a
/// persistent, converged destination; the op caches are warmed to their
/// byte budget first and the patches are shared `Bytes`, so a counted
/// round charges only the propagation machinery itself.
fn gate_small_path() -> String {
    const M: usize = 8;
    const VAL: usize = 128;
    let (mut src, dst) = build_pair(4, 32, 32, 64);
    let resp = ProtocolResponse::Pull(src.prepare_propagation(dst.dbvv()));
    let encoded = Bytes::from(encode_response(&resp));
    let decode = per_op(|| (), |()| decode_response_shared(&encoded).unwrap());
    assert!(
        decode.allocs <= 10.0,
        "small-path regression in `codec_decode_many_small`: {:.1} allocs/op > 10 \
         (per-item allocation crept back into the decoders)",
        decode.allocs,
    );

    let mut src = Replica::new(NodeId(0), 3, M);
    src.enable_delta(256 << 10);
    let mut dst = Replica::new(NodeId(1), 3, M);
    dst.enable_delta(256 << 10);
    for x in ItemId::all(M) {
        src.update(x, UpdateOp::set(vec![7u8; VAL])).unwrap();
    }
    pull(&mut dst, &mut src).unwrap();
    let patches: Vec<Bytes> = (0..3).map(|k| Bytes::from(vec![k as u8; 64])).collect();
    let mut one_round = || {
        for (k, p) in patches.iter().enumerate() {
            for x in ItemId::all(M) {
                src.update(x, UpdateOp::write_range((k * 64) % VAL, p.clone())).unwrap();
            }
        }
        let out = pull_delta(&mut dst, &mut src).unwrap();
        assert!(matches!(out, PullOutcome::Propagated(_)));
    };
    for _ in 0..64 {
        one_round();
    }
    let gossip = per_op(|| (), |()| one_round());
    assert!(
        gossip.bytes <= 65_536.0,
        "small-path regression in `delta_gossip`: {:.0} alloc bytes/round > 65536",
        gossip.bytes,
    );
    format!("decode {:.1} allocs/op, delta round {:.0} B", decode.allocs, gossip.bytes)
}

// --- sharded-gossip ---------------------------------------------------------

/// A steady-state sharded gossip pair: the two owners of shard 0 in a
/// deployment of `n_shards` shards, exchanging delta rounds through the
/// sharded dispatch path (shard-map routing + shard envelopes). The pair
/// owns ONE shard whatever `n_shards` is; partial replication promises
/// their gossip work is a function of what they own, not of the universe.
struct ShardedGossipPair {
    src: ShardedNode,
    dst: ShardedNode,
    patch: Bytes,
}

const SHARD_ITEMS: usize = 8;
const SHARD_OPS: usize = 3;
const SHARD_VAL: usize = 128;

fn build_sharded_gossip(n_shards: usize) -> ShardedGossipPair {
    assert!(n_shards >= 2);
    // Shard 0 belongs to the measured pair; every other shard to a group
    // this pair is *not* in, so widening the universe adds only unowned
    // shards.
    let mut groups = vec![vec![NodeId(0), NodeId(1)]];
    groups.extend((1..n_shards).map(|_| vec![NodeId(2), NodeId(3)]));
    let map = ShardMap::new(SHARD_ITEMS, groups);
    let mut src = ShardedNode::new(NodeId(0), 4, map.clone(), ConflictPolicy::Report);
    let mut dst = ShardedNode::new(NodeId(1), 4, map, ConflictPolicy::Report);
    src.enable_delta(256 << 10);
    dst.enable_delta(256 << 10);
    for i in 0..SHARD_ITEMS {
        src.update(ItemId::from_index(i), UpdateOp::set(vec![7u8; SHARD_VAL])).unwrap();
    }
    let patch = Bytes::from(vec![3u8; 64]);
    let mut pair = ShardedGossipPair { src, dst, patch };
    // Whole-pull once to converge, then warm the op caches to capacity.
    {
        let replica = pair.dst.shard_state_mut(ShardId(0)).unwrap();
        let mut local = LocalShardedTransport::new(&mut pair.src);
        let mut transport = ShardTransport::new(&mut local, ShardId(0));
        Engine::pull(replica, &mut transport).unwrap();
    }
    for _ in 0..64 {
        sharded_gossip_round(&mut pair);
    }
    pair
}

/// One steady-state round: patch every owned item at the source, then one
/// delta pull of shard 0 at the destination.
fn sharded_gossip_round(pair: &mut ShardedGossipPair) {
    let patch_len = pair.patch.len();
    for k in 0..SHARD_OPS {
        for i in 0..SHARD_ITEMS {
            pair.src
                .update(
                    ItemId::from_index(i),
                    UpdateOp::write_range((k * patch_len) % SHARD_VAL, pair.patch.clone()),
                )
                .unwrap();
        }
    }
    let replica = pair.dst.shard_state_mut(ShardId(0)).unwrap();
    let mut local = LocalShardedTransport::new(&mut pair.src);
    let mut transport = ShardTransport::new(&mut local, ShardId(0));
    let out = Engine::pull_delta(replica, &mut transport).unwrap();
    assert!(matches!(out, PullOutcome::Propagated(_)));
}

/// The exact per-node [`Costs`] of the same per-owned-shard schedule must
/// be identical whether the universe holds 2 shards or 8 (gossip traffic
/// is charged per *owned* shard, never per total item), and the wide
/// deployment must not allocate meaningfully more per round.
fn gate_sharded_gossip() -> String {
    let mut narrow = build_sharded_gossip(2);
    let mut wide = build_sharded_gossip(8);
    for _ in 0..8 {
        sharded_gossip_round(&mut narrow);
        sharded_gossip_round(&mut wide);
    }
    for (who, a, b) in [
        ("source", narrow.src.costs(), wide.src.costs()),
        ("destination", narrow.dst.costs(), wide.dst.costs()),
    ] {
        assert!(a != Costs::ZERO && b != Costs::ZERO, "{who} gossip must have been charged");
        assert_eq!(
            a, b,
            "sharded-gossip scaling regression: the {who}'s costs changed with the number \
             of *unowned* shards (2-shard universe vs 8-shard universe)"
        );
    }
    // Unowned shards cost the measured pair nothing: neither node even
    // instantiates them.
    assert_eq!(
        wide.src.owned_shards(),
        vec![ShardId(0)],
        "sharded-gossip scaling regression: a node instantiates shards it does not own"
    );
    let narrow = per_op(|| (), |()| sharded_gossip_round(&mut narrow));
    let wide = per_op(|| (), |()| sharded_gossip_round(&mut wide));
    assert!(
        wide.allocs <= narrow.allocs * 1.5 + 16.0,
        "sharded-gossip scaling regression: {:.1} allocs/round with 8 shards vs {:.1} \
         with 2 — per-round allocation must track owned shards, not the universe",
        wide.allocs,
        narrow.allocs,
    );
    format!(
        "costs identical; {:.1} allocs/round at 2 shards, {:.1} at 8",
        narrow.allocs, wide.allocs
    )
}

// --- group-commit -----------------------------------------------------------

/// A lone writer's 256 sequential acks, per-batch fsync on, each lead
/// their own batch — `records == batches == fsyncs` — so no ack waits on
/// another thread. (The many-writer coalescing law is exact at the WAL,
/// `crates/durable/tests/group_commit.rs`.)
fn gate_group_commit() -> String {
    const ACKS: u64 = 256;
    let tmp = TempDir::new("count-gate-group-commit");
    let mut durability = DurabilityConfig::new(tmp.path());
    durability.fsync = true;
    durability.checkpoint_every = u64::MAX;
    let config = AsyncTcpConfig {
        base: TcpConfig {
            gossip_interval: Duration::from_secs(3600),
            durability: Some(durability),
            ..TcpConfig::default()
        },
        worker_threads: 2,
    };
    let cluster = AsyncTcpCluster::spawn(2, 1, config).expect("spawn durable async cluster");
    for k in 0..ACKS {
        cluster.update(NodeId(0), ItemId(0), UpdateOp::set(vec![k as u8; 24])).expect("update");
    }
    let stats = cluster.group_commit_stats(NodeId(0)).expect("node 0 has a group WAL");
    cluster.shutdown();
    assert_eq!(stats.records, ACKS, "group commit must journal every acked mutation once");
    assert!(
        stats.batches == stats.records && stats.fsyncs == stats.records,
        "group-commit regression: a lone writer's {} acks took {} batches and {} fsyncs — \
         each ack must lead its own batch, not wait on another thread",
        stats.records,
        stats.batches,
        stats.fsyncs,
    );
    format!("{} records, {} batches, {} fsyncs", stats.records, stats.batches, stats.fsyncs)
}

// --- ack path ---------------------------------------------------------------

/// A lone durable writer's acked 64 B update allocates only what the
/// protocol does: the record is encoded in place into the commit queue's
/// reused buffer, and the batch is written from slices gathered on the
/// stack, so that is nothing at all. A per-record encode buffer adds two
/// allocations (it grows 0 → 64 → 128 B), a per-batch slice vector one
/// more.
fn gate_ack_path() -> String {
    const MAX_ALLOCS: f64 = 0.0;
    let tmp = TempDir::new("count-gate-ack-path");
    let mut durability = DurabilityConfig::new(tmp.path());
    durability.checkpoint_every = u64::MAX;
    let config = AsyncTcpConfig {
        base: TcpConfig {
            gossip_interval: Duration::from_secs(3600),
            durability: Some(durability),
            ..TcpConfig::default()
        },
        worker_threads: 2,
    };
    let cluster = AsyncTcpCluster::spawn(2, 16, config).expect("spawn durable async cluster");
    // Every item written once first: the log vector's slots and the
    // commit queue's buffer are then at their steady size.
    for x in ItemId::all(16) {
        cluster.update(NodeId(0), x, UpdateOp::set(vec![0; 64])).expect("update");
    }
    let mut k = 0u32;
    let ack = per_op(
        || {
            k += 1;
            (ItemId(k % 16), UpdateOp::set(vec![k as u8; 64]))
        },
        |(item, op)| cluster.update(NodeId(0), item, op).expect("update"),
    );
    let stats = cluster.group_commit_stats(NodeId(0)).expect("node 0 has a group WAL");
    cluster.shutdown();
    assert_eq!(stats.records, 16 + WARMUP + MEASURED, "every acked update is journaled once");
    assert!(
        ack.allocs <= MAX_ALLOCS,
        "ack-path regression: a lone durable writer's acked 64 B update made {:.2} allocator \
         calls (> {MAX_ALLOCS}) — the journal record is encoded into a buffer of its own, or \
         the batch write gathers its slices on the heap",
        ack.allocs,
    );
    format!("{:.2} allocs, {:.1} B per acked 64 B update", ack.allocs, ack.bytes)
}

// --- accept path ------------------------------------------------------------

/// Accepting a 16-item propagation of 64 B values at a 65,536-item
/// replica allocates only its outcome's list of copied items (which grows
/// 4 → 8 → 16): the shipped values are adopted as they arrived, the tail
/// records reuse freed log slots, and validating and warming the payload
/// reads only. A scratch buffer allocated per call adds one call; a value
/// copied per item adds sixteen.
fn gate_accept_path() -> String {
    const ITEMS: usize = 65_536;
    const BATCH: usize = 16;
    const MAX_ALLOCS: f64 = 3.0;
    // 64 items spread over the universe, each written and accepted once
    // first, so every counted record replaces a retained one.
    let hot: Vec<ItemId> = (0..64).map(|i| ItemId::from_index(i * (ITEMS / 64) + i % 7)).collect();
    let mut src = Replica::new(NodeId(0), 3, ITEMS);
    let dst = std::cell::RefCell::new(Replica::new(NodeId(1), 3, ITEMS));
    let mut k = 0usize;
    let mut payload = || {
        for &x in hot.iter().cycle().skip(k * BATCH).take(BATCH) {
            src.update(x, UpdateOp::set(vec![k as u8; 64])).expect("update");
        }
        k += 1;
        match src.prepare_propagation(dst.borrow().dbvv()) {
            PropagationResponse::Payload(p) => p,
            other => panic!("expected a payload, got {other:?}"),
        }
    };
    for _ in 0..hot.len() / BATCH {
        let p = payload();
        dst.borrow_mut().accept_propagation(NodeId(0), p).expect("accept");
    }
    let accept = per_op(payload, |p| {
        let out = dst.borrow_mut().accept_propagation(NodeId(0), p).expect("accept");
        assert_eq!(out.copied.len(), BATCH);
        out
    });
    assert!(
        accept.allocs <= MAX_ALLOCS,
        "accept-path regression: accepting a {BATCH}-item payload at a {ITEMS}-item replica \
         made {:.2} allocator calls (> {MAX_ALLOCS}) — accept allocates per call or per item",
        accept.allocs,
    );
    format!("{:.2} allocs, {:.1} B per accepted {BATCH}-item payload", accept.allocs, accept.bytes)
}

// --- cold-start -------------------------------------------------------------

/// A source whose log was compacted past the recipient's coverage, with
/// the recipient `diff` items behind: the cold-start shape that forces the
/// degradation ladder below tail-covered pulls (delta → recon →
/// whole-pull).
fn build_cold_pair(n_items: usize, diff: usize, val: usize) -> (Replica, Replica) {
    let mut src = Replica::new(NodeId(0), 2, n_items);
    let mut dst = Replica::new(NodeId(1), 2, n_items);
    for i in 0..n_items {
        src.update(ItemId::from_index(i), UpdateOp::set(vec![(i % 251) as u8; val])).unwrap();
    }
    pull(&mut dst, &mut src).expect("shared history pull");
    src.set_log_retention(1);
    for k in 0..diff {
        src.update(ItemId::from_index((k * 97) % n_items), UpdateOp::set(vec![0xC3; val]))
            .expect("post-compaction update");
    }
    (src, dst)
}

/// A 1000-item replica 5 items behind a compacted source must reconcile
/// with ≥ 10× less payload than the whole-database pull, and its total
/// two-way traffic (digests, floors, items and all) must stay within an
/// O(diff · log N) envelope. A warm second sync of DIFF more items must
/// then hash at most 16 · DIFF · log2 N leaves on each side: the recon
/// rung is O(d · log N) in bytes and in time, not O(N).
fn gate_cold_start() -> String {
    const N: usize = 1_000;
    const DIFF: usize = 5;
    const VAL: usize = 256;
    let (mut src, mut dst) = build_cold_pair(N, DIFF, VAL);
    // The bottom rung's price: the payload a whole-database pull ships.
    let whole_payload = {
        let mut twin = src.clone();
        ProtocolResponse::Full(twin.serve_full_pull().expect("serve full pull")).payload_bytes()
    };
    let src0 = src.costs();
    let dst0 = dst.costs();
    let out = pull(&mut dst, &mut src).expect("cold-start pull");
    assert!(matches!(out, PullOutcome::Propagated(_)), "the cold-start pull must reconcile");
    let responses = src.costs().bytes_sent - src0.bytes_sent;
    let requests = dst.costs().bytes_sent - dst0.bytes_sent;
    let control = (src.costs().control_bytes - src0.control_bytes)
        + (dst.costs().control_bytes - dst0.control_bytes);
    let total = responses + requests;
    let payload = total - control;
    assert!(
        payload * 10 <= whole_payload,
        "cold-start regression: reconciling a {DIFF}-item diff shipped {payload} payload \
         bytes, more than a tenth of the {whole_payload}-byte whole-database pull"
    );
    let log2n = (usize::BITS - (N - 1).leading_zeros()) as u64;
    let bound = 256 * DIFF as u64 * log2n + 2048;
    assert!(
        total <= bound,
        "cold-start regression: {total} total bytes for a {DIFF}-item diff over {N} items \
         exceeds the O(diff * log N) envelope of {bound} bytes — the descent stopped pruning"
    );
    for k in 0..DIFF {
        let x = ItemId::from_index((k * 97) % N);
        assert_eq!(dst.read(x).unwrap(), src.read(x).unwrap(), "diff item {x:?} reconciled");
    }

    // Warm leg, the time law: both digest trees now exist, so a second
    // DIFF-item sync must hash O(diff · log N) leaves on each side — the
    // dirty paths and one bucket per probed child — not O(N) per probe.
    for k in 0..DIFF {
        src.update(ItemId::from_index((k * 131 + 7) % N), UpdateOp::set(vec![0x5A; VAL]))
            .expect("warm-leg update");
    }
    let (src1, dst1) = (src.costs(), dst.costs());
    let out = pull(&mut dst, &mut src).expect("warm cold-start pull");
    assert!(matches!(out, PullOutcome::Propagated(_)), "the warm pull must reconcile");
    let hashed_src = src.costs().items_scanned - src1.items_scanned;
    let hashed_dst = dst.costs().items_scanned - dst1.items_scanned;
    let hash_bound = 16 * DIFF as u64 * log2n;
    assert!(
        hashed_src <= hash_bound && hashed_dst <= hash_bound,
        "cold-start regression: a warm {DIFF}-item sync over {N} items hashed {hashed_src} \
         (source) / {hashed_dst} (recipient) leaves, over the O(diff * log N) bound of \
         {hash_bound} — the digest tree is being refolded, not maintained"
    );
    for x in ItemId::all(N) {
        assert_eq!(dst.read(x).unwrap(), src.read(x).unwrap(), "item {x:?} reconciled");
    }
    format!(
        "{total} recon bytes, {payload} payload vs {whole_payload} whole-pull, envelope \
         {bound}; warm sync hashed {hashed_src} / {hashed_dst} leaves, bound {hash_bound}"
    )
}

// --- conn-reuse -------------------------------------------------------------

/// The connection-count law on one cluster, from a cold pool: `ROUNDS`
/// idle rounds (`round(k)` is the k-th) over `peers` peer addresses open at
/// most `peers` connections, and after `restart_a_peer` the next hundred
/// rounds reconnect exactly once, inside an exchange.
fn conn_reuse_law(what: &str, peers: u64, round: &dyn Fn(usize), restart_a_peer: &dyn Fn()) {
    const ROUNDS: usize = 1_000;
    let moved = |before: pool::PoolStats| {
        let now = pool::stats();
        (now.connects - before.connects, now.stale_reconnects - before.stale_reconnects)
    };
    let before = pool::stats();
    (0..ROUNDS).for_each(round);
    let (connects, stale) = moved(before);
    assert!(
        connects <= peers && stale == 0,
        "connection-reuse regression ({what}): {ROUNDS} idle rounds over {peers} peer addresses \
         opened {connects} connections ({stale} stale reconnects) — a round is paying a connect \
         again"
    );
    // The stream parked for the restarted peer died with its old
    // incarnation; the next round to it — no later one — replaces it.
    restart_a_peer();
    let before = pool::stats();
    (0..100).for_each(round);
    assert_eq!(
        moved(before),
        (1, 1),
        "connection-reuse regression ({what}): a crash / revive of one peer must cost exactly \
         one reconnect, inside the next exchange with it (connects, stale reconnects)"
    );
}

/// The connection-count law on the unsharded and the sharded reactor
/// runtime. Rounds are driven here (gossip timers off), so every count is
/// exact. Connections are parked per peer address, process-wide.
fn gate_conn_reuse() -> String {
    let hour = Duration::from_secs(3600);
    let idle = |k: usize, out: PullOutcome| {
        assert!(matches!(out, PullOutcome::UpToDate), "round {k} of an idle cluster copied items");
    };

    let config = AsyncTcpConfig {
        base: TcpConfig { gossip_interval: hour, ..TcpConfig::default() },
        worker_threads: 2,
    };
    let cluster = AsyncTcpCluster::spawn(3, 16, config).expect("spawn async cluster");
    conn_reuse_law(
        "reactor",
        3,
        // Recipient k+1 pulls from k, round the ring.
        &|k| {
            let (recipient, source) = (NodeId::from_index((k + 1) % 3), NodeId::from_index(k % 3));
            idle(k, cluster.pull_now(recipient, source).expect("idle round"));
        },
        &|| {
            cluster.crash(NodeId(2));
            cluster.revive(NodeId(2));
        },
    );
    cluster.shutdown();
    assert_eq!(pool::stats().parked, 0, "a shut-down reactor cluster left streams parked");

    // Sharded nodes, per-shard rounds: one group of two nodes owning both
    // shards, each node pulling both from the other.
    let map = ShardMap::new(8, vec![vec![NodeId(0), NodeId(1)], vec![NodeId(0), NodeId(1)]]);
    let config = ShardedConfig { gossip_interval: hour, ..ShardedConfig::default() };
    let cluster = ShardedTcpCluster::spawn(map, 2, config).expect("spawn sharded cluster");
    conn_reuse_law(
        "sharded",
        2,
        &|k| {
            let (recipient, source) = (NodeId::from_index(k % 2), NodeId::from_index((k + 1) % 2));
            let shard = ShardId((k / 2 % 2) as u16);
            idle(k, cluster.pull_shard_now(recipient, source, shard).expect("idle shard round"));
        },
        &|| {
            cluster.crash(NodeId(1));
            cluster.revive(NodeId(1));
        },
    );
    cluster.shutdown();
    let stats = pool::stats();
    assert_eq!(stats.parked, 0, "a shut-down sharded cluster left streams parked");
    format!(
        "{} connects, {} reuses, {} stale reconnects",
        stats.connects, stats.reuses, stats.stale_reconnects
    )
}

// --- heap -------------------------------------------------------------------

/// Five legs at `tcp_small`'s shape (n = 3, 65,536 items; the journal leg
/// a quarter of that), each on live / peak heap bytes:
/// * an empty `ItemStore` holds at most 56 B per item plus 64 KiB: its
///   value column and one IVV arena exactly n wide, no per-item vector;
/// * a `GroupWal` checkpoint of a replica of 64 B values raises the peak at
///   most 256 KiB above live: the snapshot streams to disk in pieces and
///   is never held whole, nor copied into a frame;
/// * decoding and accepting a 16,384-item propagation into a replica that
///   journals to a `GroupWal` raises the peak at most by the decoded
///   payload plus one record and a quarter: the journal encodes from the
///   payload it borrows, into one exactly sized buffer
///   ([`heap_journal_leg`]);
/// * a replica restored by `from_snapshot_shared` holds at most 168 B per
///   item once the frame is dropped: small values are packed into the
///   replica's own buffer and no longer pin the snapshot
///   ([`heap_restore_leg`]);
/// * `AsyncTcpCluster::shutdown` raises the peak at most 64 KiB: the final
///   replicas move out of their nodes, they are not cloned.
fn gate_heap() -> String {
    const NODES: usize = 3;
    const ITEMS: usize = 65_536;

    let live = heap_live();
    let store = ItemStore::new(NODES, ITEMS);
    let held = heap_live().saturating_sub(live);
    drop(store);
    let bound = 56 * ITEMS as u64 + (64 << 10);
    assert!(
        held <= bound,
        "heap regression: ItemStore::new({NODES}, {ITEMS}) holds {held} B > {bound} B \
         ({:.1} B per item) — per-item control state is no longer an n-wide IVV row",
        held as f64 / ITEMS as f64,
    );

    let tmp = TempDir::new("count-gate-heap-checkpoint");
    let mut cfg = DurabilityConfig::new(tmp.path());
    cfg.checkpoint_every = 0;
    let spec = [StreamSpec { id: NodeId(0), n_nodes: NODES, n_items: ITEMS }];
    let (wal, mut replicas, _) =
        GroupWal::open(&cfg, tmp.path().join("node"), &spec, ConflictPolicy::Report, 0)
            .expect("open group WAL");
    for x in ItemId::all(ITEMS) {
        replicas[0].update(x, UpdateOp::set(vec![x.0 as u8; 64])).expect("populate");
    }
    let live = heap_window();
    wal.checkpoint(&[&replicas[0]]).expect("checkpoint");
    let checkpoint = heap_raised(live);
    drop((wal, replicas));
    assert!(
        checkpoint <= 256 << 10,
        "heap regression: a checkpoint of {ITEMS} x 64 B raised the peak {checkpoint} B above \
         live (> 256 KiB) — the snapshot is being materialised instead of streamed",
    );

    let (journal, journal_bound) = heap_journal_leg();
    let (restored, restored_bound) = heap_restore_leg(NODES, ITEMS);

    let config = AsyncTcpConfig {
        base: TcpConfig { gossip_interval: Duration::from_secs(3600), ..TcpConfig::default() },
        worker_threads: 2,
    };
    let cluster = AsyncTcpCluster::spawn(NODES, ITEMS, config).expect("spawn async cluster");
    for x in ItemId::all(64) {
        cluster
            .update(NodeId::from_index(x.index() % NODES), x, UpdateOp::set(vec![1; 64]))
            .expect("update");
    }
    let live = heap_window();
    let finals = cluster.shutdown();
    let shutdown = heap_raised(live);
    assert!(finals.iter().all(|r| r.n_items() == ITEMS), "shutdown returns the full replicas");
    drop(finals);
    assert!(
        shutdown <= 64 << 10,
        "heap regression: AsyncTcpCluster::shutdown raised the peak {shutdown} B (> 64 KiB) — \
         the final replicas are being copied instead of moved out",
    );
    format!(
        "empty store {:.1} B/item, checkpoint +{} KiB over live, journal +{journal} B (bound \
         {journal_bound}), restored {restored:.1} B/item (bound {restored_bound}), shutdown +{} \
         KiB",
        held as f64 / ITEMS as f64,
        checkpoint >> 10,
        shutdown >> 10,
    )
}

/// The journal leg of [`gate_heap`]: a propagation of `ITEMS` 64 B values,
/// decoded from its frame and accepted by a replica journaling to a
/// `GroupWal`. Returns the peak rise over live and its bound: the decoded
/// payload's item and tail vectors (its values alias the frame) plus one
/// record of the frame's size, with a quarter of a record to spare. A
/// copy of the payload made to journal it, or a record buffer grown by
/// doubling, each add more than that.
fn heap_journal_leg() -> (u64, u64) {
    const NODES: usize = 3;
    const ITEMS: usize = 16_384;
    let tmp = TempDir::new("count-gate-heap-journal");
    let mut cfg = DurabilityConfig::new(tmp.path());
    cfg.checkpoint_every = 0;
    let spec = [StreamSpec { id: NodeId(1), n_nodes: NODES, n_items: ITEMS }];
    let (wal, mut replicas, _) =
        GroupWal::open(&cfg, tmp.path().join("node"), &spec, ConflictPolicy::Report, 0)
            .expect("open group WAL");
    wal.attach(0, &mut replicas[0]);
    let (mut src, _) = build_pair(NODES, ITEMS, ITEMS, 64);
    let resp = ProtocolResponse::Pull(src.prepare_propagation(replicas[0].dbvv()));
    let frame = Bytes::from(encode_response(&resp));
    let ProtocolResponse::Pull(PropagationResponse::Payload(sent)) = &resp else {
        panic!("a fresh recipient is sent a payload");
    };
    let decoded = size_of_val(sent.items.as_slice())
        + sent.tails.iter().map(|t| size_of_val(t.as_slice())).sum::<usize>();
    let record = frame.len();
    let bound = (decoded + record + record / 4) as u64;
    drop(resp);

    let live = heap_window();
    let Ok(ProtocolResponse::Pull(PropagationResponse::Payload(payload))) =
        decode_response_shared(&frame)
    else {
        panic!("the payload frame decodes");
    };
    replicas[0].accept_propagation(NodeId(0), payload).expect("accept propagation");
    let raised = heap_raised(live);
    wal.wait_durable();
    assert!(
        raised <= bound,
        "heap regression: decoding and journaling a {ITEMS}-item propagation raised the peak \
         {raised} B above live (> {bound} B: the decoded payload, {decoded} B, plus one \
         {record} B record and a quarter) — the payload is copied to be journaled, or its \
         record is not encoded at its exact size",
    );
    (raised, bound)
}

/// The restore leg of [`gate_heap`]: a replica restored by
/// `from_snapshot_shared` from a snapshot of `items` 64 B values, with the
/// frame's last handle dropped. Returns the bytes it holds per item and
/// the bound: an empty store's 56, the value's 64 and 48 for its log
/// record and `P` entries. A restore that keeps the frame pinned holds
/// the frame's 106 B per item besides.
fn heap_restore_leg(nodes: usize, items: usize) -> (f64, f64) {
    const BOUND: f64 = 56.0 + 64.0 + 48.0;
    let (src, _) = build_pair(nodes, items, items, 64);
    let live = heap_live();
    let restored = {
        let frame = Bytes::from(src.to_snapshot());
        Replica::from_snapshot_shared(&frame).expect("restore")
    };
    let per_item = heap_live().saturating_sub(live) as f64 / items as f64;
    drop(restored);
    assert!(
        per_item <= BOUND,
        "heap regression: a replica restored from a snapshot of {items} x 64 B holds \
         {per_item:.1} B per item once the frame is dropped (> {BOUND}) — restored values \
         still pin the snapshot buffer",
    );
    (per_item, BOUND)
}

/// A gate's name, and the gate: it panics on a broken law, else returns
/// the counts it checked.
type Gate = (&'static str, fn() -> String);

/// Runs every gate in order and reports in libtest's format, each gate's
/// counts on the line above its result. The first broken law panics and
/// ends the run, so the target fails.
fn main() {
    let gates: [Gate; 9] = [
        ("zero_copy", gate_zero_copy),
        ("small_path", gate_small_path),
        ("sharded_gossip", gate_sharded_gossip),
        ("group_commit", gate_group_commit),
        ("ack_path", gate_ack_path),
        ("accept_path", gate_accept_path),
        ("cold_start", gate_cold_start),
        ("conn_reuse", gate_conn_reuse),
        ("heap", gate_heap),
    ];
    let start = std::time::Instant::now();
    println!("\nrunning {} tests", gates.len());
    for (name, gate) in gates {
        println!("{name}: {}", gate());
        println!("test {name} ... ok");
    }
    println!(
        "\ntest result: ok. {} passed; 0 failed; 0 ignored; 0 measured; 0 filtered out; \
         finished in {:.2}s\n",
        gates.len(),
        start.elapsed().as_secs_f64()
    );
}
