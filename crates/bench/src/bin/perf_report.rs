//! `perf_report` — the allocation and cost-law gates.
//!
//! Runs the core scenarios (codec framing, anti-entropy vs `m`, delta
//! gossip, large-value out-of-bound copy) in-process with deterministic
//! inputs and emits a machine-readable JSON report of iterations, payload
//! bytes and allocation traffic per operation.
//!
//! Wall-clock timing is not measured here: the statistical wall-clock
//! instrument is `epibench/`. A counting global allocator reports
//! allocation traffic per operation, so zero-copy claims are checkable,
//! not aspirational, and the `--assert-*` gates below check deterministic
//! op-count and byte-count laws.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p epidb-bench --bin perf_report -- \
//!     [--smoke] [--assert-zero-copy] [--assert-small-path] \
//!     [--assert-sharded-gossip] [--assert-group-commit] \
//!     [--assert-cold-start] [--assert-conn-reuse] [--assert-heap] \
//!     [--out PATH]
//! ```
//!
//! * `--smoke` — tiny sizes and budgets (CI: validates the harness and the
//!   JSON schema without burning minutes).
//! * `--assert-zero-copy` — assert that the large-value ship scenarios
//!   allocate far less than they ship (the steady-state zero-copy
//!   guarantee); fails loudly if a copy sneaks back into the payload path.
//! * `--assert-small-path` — assert the small-message allocation gates:
//!   decoding a many-small-items frame is O(1) allocations regardless of
//!   item count, and a steady-state delta gossip round stays under a fixed
//!   allocation budget.
//! * `--assert-sharded-gossip` — assert the partial-replication scaling
//!   gate: a node's per-round gossip costs and allocations are a function
//!   of the shards it *owns*, byte-identical across 2-shard and 8-shard
//!   universes.
//! * `--assert-group-commit` — assert the group-commit durability gate: a
//!   lone writer's 256 acked updates must each write their own batch
//!   (`records == batches == fsyncs`), and a 64-writer batch workload on
//!   the async runtime must spend far less than one fsync per committed
//!   mutation (ratio ≤ 0.1).
//! * `--assert-cold-start` — assert the set-reconciliation gate: syncing a
//!   1000-item replica that is 5 items behind a log-compacted source must
//!   ship ≥ 10× less payload than the whole-database pull, with total
//!   traffic bounded by O(diff · log N) — the cold-start degradation rung
//!   must beat the O(database) bottom rung it shields — and a warm second
//!   5-item sync must hash at most 16 · diff · log2 N leaves per side.
//! * `--assert-conn-reuse` — assert the connection-count law of the socket
//!   runtimes: 1,000 idle rounds from a cold pool open one connection per
//!   peer address and no more, a crash / revive of a peer costs the next
//!   round to it exactly one transparent reconnect, and a shut-down
//!   cluster leaves no stream parked.
//! * `--assert-heap` — assert the resident-size gate, on live and peak
//!   heap bytes: an empty `ItemStore` of 65,536 items at n = 3 holds at
//!   most 56 B per item (its value column and an IVV arena exactly n wide)
//!   plus 64 KiB; a `GroupWal` checkpoint of a 65,536 × 64 B replica
//!   raises the peak at most 256 KiB above live (the snapshot streams, it
//!   is never held whole); and `AsyncTcpCluster::shutdown` raises the peak
//!   at most 64 KiB (replicas move out, they are not cloned).
//! * `--out PATH` — where to write the report (default
//!   `target/perf_report.json`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use epidb_common::{Costs, ItemId, NodeId, ShardId};
use epidb_core::codec::{decode_response_shared, encode_response, encode_response_to, Writer};
use epidb_core::{
    oob_copy, pull, pull_delta, ConflictPolicy, Engine, LocalShardedTransport, ProtocolRequest,
    ProtocolResponse, PullOutcome, Replica, RetryPolicy, ShardMap, ShardTransport, ShardedNode,
    Transport,
};
use epidb_durable::testdir::TempDir;
use epidb_durable::{DurabilityConfig, GroupWal, StreamSpec};
use epidb_net::{
    pool, AsyncTcpCluster, AsyncTcpConfig, ShardedConfig, ShardedTcpCluster, TcpConfig,
    TcpTransport,
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

// --- measurement loop -------------------------------------------------------

#[derive(Clone, Debug)]
struct Measure {
    name: &'static str,
    iters: u64,
    /// Item-value payload bytes one operation ships (0 when not applicable).
    payload_bytes_per_op: u64,
    alloc_bytes_per_op: f64,
    allocs_per_op: f64,
}

/// Run `routine` over per-iteration state from `setup` until `target` time
/// is spent inside `routine` (setup time and drop time excluded from the
/// clock but not from the iteration count).
fn bench<S, R>(
    name: &'static str,
    target: Duration,
    payload_bytes_per_op: u64,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> R,
) -> Measure {
    // Warmup.
    for _ in 0..2 {
        black_box(routine(setup()));
    }
    let mut spent = Duration::ZERO;
    let mut iters = 0u64;
    let mut alloc_calls = 0u64;
    let mut alloc_bytes = 0u64;
    while spent < target && iters < 100_000 {
        let state = setup();
        let (c0, b0) = alloc_snapshot();
        let t0 = Instant::now();
        let out = routine(state);
        spent += t0.elapsed();
        let (c1, b1) = alloc_snapshot();
        black_box(out);
        alloc_calls += c1 - c0;
        alloc_bytes += b1 - b0;
        iters += 1;
    }
    Measure {
        name,
        iters,
        payload_bytes_per_op,
        alloc_bytes_per_op: alloc_bytes as f64 / iters as f64,
        allocs_per_op: alloc_calls as f64 / iters as f64,
    }
}

// --- scenario setup ---------------------------------------------------------

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

struct Sizes {
    target: Duration,
    codec_m: usize,
    codec_val: usize,
    large_val: usize,
    pull_m: usize,
    pull_val: usize,
    delta_m: usize,
    delta_ops: usize,
    delta_val: usize,
    c10k_conns: usize,
    c10k_threads: usize,
    c10k_workers: usize,
    c10k_val: usize,
    gc_writers: usize,
    gc_ops: usize,
    cold_items: usize,
    cold_diff: usize,
    cold_val: usize,
}

impl Sizes {
    fn full() -> Sizes {
        Sizes {
            target: Duration::from_millis(300),
            codec_m: 1_000,
            codec_val: 64,
            large_val: 1 << 20,
            pull_m: 256,
            pull_val: 4 << 10,
            delta_m: 64,
            delta_ops: 4,
            delta_val: 512,
            c10k_conns: 1_024,
            c10k_threads: 16,
            c10k_workers: 8,
            c10k_val: 256,
            gc_writers: 64,
            gc_ops: 16,
            cold_items: 1_000,
            cold_diff: 5,
            cold_val: 256,
        }
    }

    fn smoke() -> Sizes {
        Sizes {
            target: Duration::from_millis(10),
            codec_m: 32,
            codec_val: 64,
            large_val: 1 << 20, // keep 1 MiB so --assert-zero-copy is meaningful
            pull_m: 16,
            pull_val: 1 << 10,
            delta_m: 8,
            delta_ops: 3,
            delta_val: 128,
            c10k_conns: 128,
            c10k_threads: 8,
            c10k_workers: 2,
            c10k_val: 64,
            gc_writers: 8,
            gc_ops: 4,
            cold_items: 64,
            cold_diff: 3,
            cold_val: 64,
        }
    }
}

// --- scenarios --------------------------------------------------------------

/// Produce the full wire frame for a pull response carrying `m` items and
/// deliver it to a sink — the ship path from engine response to socket
/// boundary.
fn scenario_codec_frame(
    name: &'static str,
    s: &Sizes,
    m: usize,
    val: usize,
    extra: usize,
) -> Measure {
    let (mut src, dst) = build_pair(4, m.max(1), m, val);
    let dbvv = dst.dbvv().clone();
    let resp = ProtocolResponse::Pull(src.prepare_propagation(&dbvv));
    let payload = resp.payload_bytes();
    let mut sink = std::io::sink();
    // The transport's steady state: one reusable writer per connection;
    // value segments go to the socket straight from the store's buffers.
    let mut w = Writer::new();
    bench(
        name,
        s.target,
        payload,
        || (),
        |()| {
            use std::io::Write as _;
            encode_response_to(&resp, &mut w);
            sink.write_all(&(w.len() as u32).to_le_bytes()).unwrap();
            for chunk in w.chunks() {
                sink.write_all(chunk).unwrap();
            }
            w.len() + extra
        },
    )
}

/// Decode the same frame back into a typed response (the receive path).
fn scenario_codec_decode(name: &'static str, s: &Sizes, m: usize, val: usize) -> Measure {
    let (mut src, dst) = build_pair(4, m.max(1), m, val);
    let dbvv = dst.dbvv().clone();
    let resp = ProtocolResponse::Pull(src.prepare_propagation(&dbvv));
    let payload = resp.payload_bytes();
    let encoded = Bytes::from(encode_response(&resp));
    bench(name, s.target, payload, || (), |()| decode_response_shared(&encoded).unwrap())
}

/// One full anti-entropy pull shipping `m` items of `val` bytes.
fn scenario_pull(name: &'static str, s: &Sizes, m: usize, val: usize) -> Measure {
    let (src, dst0) = build_pair(3, m, m, val);
    let payload = (m * val) as u64;
    let mut src = src;
    bench(
        name,
        s.target,
        payload,
        || dst0.clone(),
        |mut dst| {
            let out = pull(&mut dst, &mut src).unwrap();
            assert!(matches!(out, PullOutcome::Propagated(_)));
            dst
        },
    )
}

/// One steady-state delta gossip round over many small items: each round
/// patches every item with `ops` small `write_range` updates at the
/// source, then ships the op chains to a persistent, already-converged
/// destination — the sustained many-small-updates regime the small-message
/// fast path targets (no per-round replica clones, no whole-item ships).
fn scenario_delta(name: &'static str, s: &Sizes, m: usize, ops: usize, val: usize) -> Measure {
    // Steady-state gossip: a persistent pair of replicas exchanging rounds
    // of small write-range patches — the workload whose per-round
    // allocation the small-path gate bounds. The op cache runs with a
    // bounded budget so its rings reach capacity during warmup instead of
    // doubling forever, and the patch payloads are shared `Bytes`
    // (refcount clones), so a measured round charges only the propagation
    // machinery itself.
    let patch = 64.min(val.max(1));
    let mut src = Replica::new(NodeId(0), 3, m);
    src.enable_delta(256 << 10);
    let mut dst = Replica::new(NodeId(1), 3, m);
    dst.enable_delta(256 << 10);
    for i in 0..m {
        src.update(ItemId::from_index(i), UpdateOp::set(vec![7u8; val])).unwrap();
    }
    pull(&mut dst, &mut src).unwrap();
    let patches: Vec<Bytes> = (0..ops).map(|k| Bytes::from(vec![k as u8; patch])).collect();
    let mut one_round = || {
        for (k, p) in patches.iter().enumerate() {
            for i in 0..m {
                src.update(
                    ItemId::from_index(i),
                    UpdateOp::write_range((k * patch) % val.max(1), p.clone()),
                )
                .unwrap();
            }
        }
        let out = pull_delta(&mut dst, &mut src).unwrap();
        assert!(matches!(out, PullOutcome::Propagated(_)));
        out
    };
    // Warm until the op cache hits its byte budget (steady state).
    for _ in 0..64 {
        one_round();
    }
    let payload = (m * ops * patch) as u64;
    bench(name, s.target, payload, || (), |()| one_round())
}

/// A steady-state sharded gossip pair: the two owners of shard 0 in a
/// deployment of `n_shards` total shards, exchanging delta rounds through
/// the sharded dispatch path (shard-map routing + shard envelopes). The
/// measured pair owns ONE shard regardless of `n_shards`; partial
/// replication promises their gossip work is a function of what they own,
/// not of the universe size.
struct ShardedGossipPair {
    src: ShardedNode,
    dst: ShardedNode,
    m: usize,
    ops: usize,
    patch: Bytes,
    val: usize,
}

fn build_sharded_gossip(s: &Sizes, n_shards: usize) -> ShardedGossipPair {
    assert!(n_shards >= 2);
    let m = s.delta_m;
    // Shard 0 belongs to the measured pair; every other shard to a group
    // this pair is *not* in, so widening the universe adds only unowned
    // shards.
    let mut groups = vec![vec![NodeId(0), NodeId(1)]];
    groups.extend((1..n_shards).map(|_| vec![NodeId(2), NodeId(3)]));
    let map = ShardMap::new(m, groups);
    let mut src = ShardedNode::new(NodeId(0), 4, map.clone(), ConflictPolicy::Report);
    let mut dst = ShardedNode::new(NodeId(1), 4, map, ConflictPolicy::Report);
    src.enable_delta(256 << 10);
    dst.enable_delta(256 << 10);
    let val = s.delta_val.max(1);
    for i in 0..m {
        src.update(ItemId::from_index(i), UpdateOp::set(vec![7u8; val])).unwrap();
    }
    let patch = Bytes::from(vec![3u8; 64.min(val)]);
    let mut pair = ShardedGossipPair { src, dst, m, ops: s.delta_ops, patch, val };
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
    for k in 0..pair.ops {
        for i in 0..pair.m {
            pair.src
                .update(
                    ItemId::from_index(i),
                    UpdateOp::write_range((k * patch_len) % pair.val, pair.patch.clone()),
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

fn scenario_sharded_gossip(name: &'static str, s: &Sizes, n_shards: usize) -> Measure {
    let mut pair = build_sharded_gossip(s, n_shards);
    let payload = (pair.m * pair.ops * pair.patch.len()) as u64;
    bench(name, s.target, payload, || (), |()| sharded_gossip_round(&mut pair))
}

/// The ownership-scaling gate behind `--assert-sharded-gossip`: the exact
/// per-node [`Costs`] of the same per-owned-shard schedule must be
/// byte-identical whether the universe holds 2 shards or 8 — per-node
/// gossip traffic is charged per *owned* shard, never per total item.
fn assert_sharded_ownership_scaling(s: &Sizes) {
    let mut narrow = build_sharded_gossip(s, 2);
    let mut wide = build_sharded_gossip(s, 8);
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
    // And unowned shards cost the other group's members nothing here:
    // neither measured node even instantiates them.
    assert_eq!(wide.src.owned_shards(), vec![ShardId(0)]);
    eprintln!("perf_report: sharded-gossip ownership-scaling assertions hold.");
}

/// One out-of-bound copy of a single large value to a fresh recipient.
fn scenario_oob_large(name: &'static str, s: &Sizes) -> Measure {
    let mut src = Replica::new(NodeId(0), 2, 4);
    src.update(ItemId(0), UpdateOp::set(vec![0x5A; s.large_val])).unwrap();
    bench(
        name,
        s.target,
        s.large_val as u64,
        || Replica::new(NodeId(1), 2, 4),
        |mut dst| {
            oob_copy(&mut dst, &mut src, ItemId(0)).unwrap();
            dst
        },
    )
}

/// Restore a replica from an in-memory snapshot frame holding one large
/// value — the crash-recovery load path. With `Reader::shared` aliasing,
/// the restored value is a sub-view of the frame, not a copy.
fn scenario_snapshot_restore(name: &'static str, s: &Sizes) -> Measure {
    let mut src = Replica::new(NodeId(0), 2, 4);
    src.update(ItemId(0), UpdateOp::set(vec![0xA5; s.large_val])).unwrap();
    let frame = Bytes::from(src.to_snapshot());
    bench(
        name,
        s.target,
        s.large_val as u64,
        || (),
        |()| Replica::from_snapshot_shared(&frame).unwrap(),
    )
}

/// A source whose log was compacted past the recipient's coverage, with
/// the recipient `diff` items behind — the cold-start shape that forces
/// the degradation ladder below tail-covered pulls (delta → recon →
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

/// Cold-start sync of a slightly-behind replica: the source's compacted
/// log cannot cover the gap, so a plain pull degrades to the digest-tree
/// reconciliation and ships only the differing items.
fn scenario_cold_start_behind(name: &'static str, s: &Sizes) -> Measure {
    let (mut src, dst0) = build_cold_pair(s.cold_items, s.cold_diff, s.cold_val);
    let payload = (s.cold_diff * s.cold_val) as u64;
    bench(
        name,
        s.target,
        payload,
        || dst0.clone(),
        |mut dst| {
            let out = pull(&mut dst, &mut src).unwrap();
            assert!(matches!(out, PullOutcome::Propagated(_)));
            dst
        },
    )
}

/// Cold-start sync of an empty replica against the same compacted source:
/// the reconciliation driver skips the descent (everything differs) and
/// takes the O(database) whole-pull bottom rung outright.
fn scenario_cold_start_fresh(name: &'static str, s: &Sizes) -> Measure {
    let (mut src, _) = build_cold_pair(s.cold_items, s.cold_diff, s.cold_val);
    let payload = (s.cold_items * s.cold_val) as u64;
    bench(
        name,
        s.target,
        payload,
        || Replica::new(NodeId(1), 2, s.cold_items),
        |mut dst| {
            let out = pull(&mut dst, &mut src).unwrap();
            assert!(matches!(out, PullOutcome::Propagated(_)));
            dst
        },
    )
}

/// The cold-start gate behind `--assert-cold-start`, on fixed sizes
/// (independent of `--smoke`, so CI exercises the real tree depth): a
/// 1000-item replica 5 items behind a compacted source must reconcile
/// with ≥ 10× less payload than the whole-database pull, and its total
/// two-way traffic — digests, floors, items, and all — must stay within
/// an O(diff · log N) envelope. A warm second sync of DIFF more items must
/// then hash at most 16 · DIFF · log2 N leaves on each side. This is the
/// scaling claim of the recon rung, in bytes and in time: O(d · log N),
/// not O(N).
fn assert_cold_start_reconciliation() {
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
    eprintln!(
        "perf_report: cold-start assertions hold ({total} recon bytes, {payload} payload, \
         vs {whole_payload} whole-pull payload; envelope {bound}; warm sync hashed \
         {hashed_src} / {hashed_dst} leaves, bound {hash_bound})."
    );
}

/// One sweep of the C10K rig: every pre-opened connection completes one
/// pull exchange, driven by one client thread per chunk.
fn c10k_sweep(chunks: &mut [Vec<TcpTransport>], probe: &ProtocolRequest) {
    std::thread::scope(|scope| {
        for chunk in chunks.iter_mut() {
            scope.spawn(move || {
                for t in chunk.iter_mut() {
                    let resp = t.exchange(probe.clone()).expect("c10k exchange failed");
                    assert!(matches!(resp, ProtocolResponse::Pull(_)), "c10k: unexpected response");
                }
            });
        }
    });
}

/// The C10K scenario: `c10k_conns` concurrently-open pull clients against
/// an async 2-node cluster served by a fixed reactor pool (never more
/// than 8 threads). The measured op is one full sweep — every connection
/// completes a whole-payload pull exchange (the probe DBVV never
/// advances, so each response ships the full item) while all sockets stay
/// parked in the reactor between sweeps.
fn scenario_c10k(name: &'static str, s: &Sizes) -> Measure {
    let cluster = AsyncTcpCluster::spawn(
        2,
        4,
        AsyncTcpConfig {
            base: TcpConfig { gossip_interval: Duration::from_secs(3600), ..TcpConfig::default() },
            worker_threads: s.c10k_workers,
        },
    )
    .expect("spawn async cluster");
    assert!(cluster.worker_threads() <= 8, "serving threads must stay bounded");
    cluster.update(NodeId(0), ItemId(0), UpdateOp::set(vec![0x6B; s.c10k_val])).unwrap();
    let client = Replica::new(NodeId(1), 2, 4);
    let probe = ProtocolRequest::Pull { from: NodeId(1), dbvv: client.dbvv().clone() };
    let threads = s.c10k_threads.max(1);
    let mut chunks: Vec<Vec<TcpTransport>> = (0..threads).map(|_| Vec::new()).collect();
    for i in 0..s.c10k_conns {
        chunks[i % threads].push(cluster.transport_to(NodeId(0)));
    }
    // A settling sweep, then require every socket parked in the reactor:
    // the workload below runs against held-open connections, not a
    // connect/close churn.
    c10k_sweep(&mut chunks, &probe);
    RetryPolicy::default()
        .poll_until("parked c10k connections", Duration::from_secs(10), || {
            cluster.open_connections() >= s.c10k_conns
        })
        .expect("the reactor must keep every client connection open");
    let payload = (s.c10k_conns * s.c10k_val) as u64;
    let measure = bench(name, s.target, payload, || (), |()| c10k_sweep(&mut chunks, &probe));
    // As above: a connection served a moment ago is out of the reactor's
    // set until its worker has re-armed it.
    RetryPolicy::default()
        .poll_until("parked c10k connections", Duration::from_secs(10), || {
            cluster.open_connections() >= s.c10k_conns
        })
        .unwrap_or_else(|_| {
            panic!(
                "c10k: connections were dropped during the sweeps ({} open)",
                cluster.open_connections()
            )
        });
    drop(chunks);
    cluster.shutdown();
    measure
}

/// A two-node durable async cluster, `n_items` items: node 0 journals to
/// a group WAL with per-batch fsync on and no checkpoints; gossip idles.
fn fsync_cluster(dir: &std::path::Path, n_items: usize) -> AsyncTcpCluster {
    let mut durability = DurabilityConfig::new(dir);
    durability.fsync = true;
    durability.checkpoint_every = u64::MAX;
    AsyncTcpCluster::spawn(
        2,
        n_items,
        AsyncTcpConfig {
            base: TcpConfig {
                gossip_interval: Duration::from_secs(3600),
                durability: Some(durability),
                ..TcpConfig::default()
            },
            worker_threads: 2,
        },
    )
    .expect("spawn durable async cluster")
}

/// `writers` threads each commit `ops` acked `len`-byte updates to their
/// own item on node 0.
fn acked_writes(cluster: &AsyncTcpCluster, writers: usize, ops: usize, len: usize) {
    std::thread::scope(|scope| {
        for w in 0..writers {
            scope.spawn(move || {
                for k in 0..ops {
                    cluster
                        .update(NodeId(0), ItemId::from_index(w), UpdateOp::set(vec![k as u8; len]))
                        .expect("durable update failed");
                }
            });
        }
    });
}

/// Group-commit durability under concurrent writers: `gc_writers` threads
/// each commit `gc_ops` updates to their own item on a durable async
/// node with per-batch fsync on; every update is acknowledged only after
/// the fsync of the batch holding its record (led by it or by another
/// writer) lands. The measured op is one whole batch workload.
fn scenario_group_commit(name: &'static str, s: &Sizes) -> Measure {
    let tmp = TempDir::new("perf-group-commit");
    let cluster = fsync_cluster(tmp.path(), s.gc_writers.max(1));
    const VAL: usize = 32;
    let payload = (s.gc_writers * s.gc_ops * VAL) as u64;
    let measure = bench(
        name,
        s.target,
        payload,
        || (),
        |()| acked_writes(&cluster, s.gc_writers, s.gc_ops, VAL),
    );
    let stats = cluster.group_commit_stats(NodeId(0)).expect("node 0 has a group WAL");
    assert!(stats.records > 0 && stats.fsyncs > 0, "the workload must have journaled");
    cluster.shutdown();
    measure
}

/// The durability gate behind `--assert-group-commit`, two legs with
/// per-batch fsync on, each journaling every acknowledged mutation
/// exactly once:
/// * a lone writer's 256 sequential acks each lead their own batch —
///   `records == batches == fsyncs` — so no ack waits on another thread;
/// * under 64 concurrent writers, followers coalesce into the batches of
///   whichever writer leads, at most one fsync per ten mutations — the
///   group-commit win is `fsyncs / records` ≪ 1, never one per mutation.
fn assert_group_commit_batching() {
    let leg = |writers: usize, ops: usize| {
        let tmp = TempDir::new("perf-group-commit-gate");
        let cluster = fsync_cluster(tmp.path(), writers);
        acked_writes(&cluster, writers, ops, 24);
        let stats = cluster.group_commit_stats(NodeId(0)).expect("node 0 has a group WAL");
        cluster.shutdown();
        assert_eq!(
            stats.records,
            (writers * ops) as u64,
            "group commit must journal every acknowledged mutation exactly once"
        );
        (stats, stats.fsyncs as f64 / stats.records as f64)
    };

    let (lone, lone_ratio) = leg(1, 256);
    assert!(
        lone.batches == lone.records && lone.fsyncs == lone.records,
        "group-commit regression: a lone writer's {} acks took {} batches and {} fsyncs — \
         each ack must lead its own batch, not wait on another thread",
        lone.records,
        lone.batches,
        lone.fsyncs,
    );
    let (crowd, ratio) = leg(64, 16);
    assert!(
        ratio <= 0.1,
        "group-commit regression: {} fsyncs for {} mutations (ratio {ratio:.3} > 0.1) — \
         concurrent writers stopped coalescing into shared fsync batches",
        crowd.fsyncs,
        crowd.records,
    );
    eprintln!(
        "perf_report: group-commit assertions hold (lone writer: {} records, {} batches, {} \
         fsyncs, {lone_ratio:.3} fsyncs/mutation; 64 writers: {} records, {} batches, {} fsyncs, \
         {ratio:.3} fsyncs/mutation).",
        lone.records, lone.batches, lone.fsyncs, crowd.records, crowd.batches, crowd.fsyncs,
    );
}

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

/// The connection-count gate behind `--assert-conn-reuse`, on the unsharded
/// and the sharded reactor runtime: rounds are driven
/// here (gossip timers off), so every count is exact. Connections are
/// parked per peer address, process-wide.
fn assert_conn_reuse() {
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

    // Sharded nodes, per-shard rounds: one group of two
    // nodes owning both shards, each node pulling both from the other.
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
    eprintln!(
        "perf_report: connection-reuse assertions hold ({} connects, {} reuses, {} stale \
         reconnects in this process).",
        stats.connects, stats.reuses, stats.stale_reconnects,
    );
}

/// The resident-size gate behind `--assert-heap`, three legs at
/// `tcp_small`'s shape (n = 3, 65,536 items), each on live / peak heap
/// bytes:
/// * an empty `ItemStore` holds at most 56 B per item plus 64 KiB: its
///   value column and one IVV arena exactly n wide, no per-item vector;
/// * a `GroupWal` checkpoint of a replica of 64 B values raises the peak at
///   most 256 KiB above live: the snapshot streams to disk in pieces and
///   is never held whole, nor copied into a frame;
/// * `AsyncTcpCluster::shutdown` raises the peak at most 64 KiB: the final
///   replicas move out of their nodes, they are not cloned.
fn assert_heap() {
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

    let tmp = TempDir::new("perf-heap-checkpoint");
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
    eprintln!(
        "perf_report: heap assertions hold (empty store {:.1} B/item; checkpoint +{} KiB over \
         live; shutdown +{} KiB).",
        held as f64 / ITEMS as f64,
        checkpoint >> 10,
        shutdown >> 10,
    );
}

fn run_all(s: &Sizes) -> Vec<Measure> {
    vec![
        scenario_codec_frame("codec_frame_many_small", s, s.codec_m, s.codec_val, 0),
        scenario_codec_frame("codec_frame_large_value", s, 1, s.large_val, 0),
        scenario_codec_decode("codec_decode_many_small", s, s.codec_m, s.codec_val),
        scenario_codec_decode("codec_decode_large_value", s, 1, s.large_val),
        scenario_pull("pull_vs_m", s, s.pull_m, s.pull_val),
        scenario_pull("pull_large_value", s, 1, s.large_val),
        scenario_delta("delta_gossip", s, s.delta_m, s.delta_ops, s.delta_val),
        scenario_sharded_gossip("sharded_gossip_2shards", s, 2),
        scenario_sharded_gossip("sharded_gossip_8shards", s, 8),
        scenario_oob_large("oob_large_value", s),
        scenario_snapshot_restore("snapshot_restore_large_value", s),
        scenario_cold_start_behind("cold_start_behind", s),
        scenario_cold_start_fresh("cold_start_fresh", s),
        scenario_c10k("c10k_connections", s),
        scenario_group_commit("group_commit_fsync", s),
    ]
}

// --- report emission --------------------------------------------------------

fn scenarios_json(measures: &[Measure]) -> String {
    let mut out = String::from("{\n");
    for (i, m) in measures.iter().enumerate() {
        let comma = if i + 1 == measures.len() { "" } else { "," };
        writeln!(
            out,
            "    \"{}\": {{\"iters\": {}, \"payload_bytes_per_op\": {}, \
             \"alloc_bytes_per_op\": {:.1}, \"allocs_per_op\": {:.1}}}{comma}",
            m.name, m.iters, m.payload_bytes_per_op, m.alloc_bytes_per_op, m.allocs_per_op,
        )
        .unwrap();
    }
    out.push_str("  }");
    out
}

fn usage() -> ! {
    eprintln!(
        "usage: perf_report [--smoke] [--out PATH] [--assert-zero-copy] [--assert-small-path]\n\
         \x20      [--assert-sharded-gossip] [--assert-group-commit] [--assert-cold-start]\n\
         \x20      [--assert-conn-reuse] [--assert-heap]"
    );
    std::process::exit(2);
}

fn main() {
    // A gate that is misspelt must not pass by asserting nothing: unknown
    // arguments and missing values end the run.
    let mut flags: Vec<String> = Vec::new();
    let mut out_path = String::from("target/perf_report.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().unwrap_or_else(|| usage()),
            "--smoke"
            | "--assert-zero-copy"
            | "--assert-small-path"
            | "--assert-sharded-gossip"
            | "--assert-group-commit"
            | "--assert-cold-start"
            | "--assert-conn-reuse"
            | "--assert-heap" => flags.push(arg),
            _ => usage(),
        }
    }
    let has = |flag: &str| flags.iter().any(|a| a == flag);
    let smoke = has("--smoke");

    let sizes = if smoke { Sizes::smoke() } else { Sizes::full() };
    eprintln!("perf_report: running {} scenarios...", if smoke { "smoke" } else { "full" });
    let measures = run_all(&sizes);
    for m in &measures {
        eprintln!(
            "  {:<28} {:>12.0} alloc B/op {:>8.1} allocs/op ({} iters)",
            m.name, m.alloc_bytes_per_op, m.allocs_per_op, m.iters
        );
    }

    if has("--assert-zero-copy") {
        // The steady-state zero-copy guarantee: shipping a large value from
        // store to the socket boundary must not allocate (and so cannot
        // memcpy into fresh buffers) anywhere near the payload it ships.
        // The bound is generous (25% of one payload) to leave room for
        // control structures, yet any real per-byte copy of the value blows
        // straight through it.
        for name in [
            "codec_frame_large_value",
            "oob_large_value",
            "pull_large_value",
            "snapshot_restore_large_value",
        ] {
            let m = measures.iter().find(|m| m.name == name).expect("scenario exists");
            let bound = m.payload_bytes_per_op as f64 / 4.0;
            assert!(
                m.alloc_bytes_per_op < bound,
                "zero-copy regression in `{name}`: {:.0} alloc bytes/op >= {bound:.0} \
                 (payload {} bytes/op)",
                m.alloc_bytes_per_op,
                m.payload_bytes_per_op,
            );
        }
        eprintln!("perf_report: zero-copy allocation assertions hold.");
    }

    if has("--assert-small-path") {
        // The small-message fast-path gates: decoding a frame of many
        // small items must be O(1) allocations (scratch/inline decoding —
        // any per-item allocation multiplies by the item count and blows
        // the bound), and one steady-state delta gossip round over many
        // small updates must stay under a fixed allocation budget.
        let decode =
            measures.iter().find(|m| m.name == "codec_decode_many_small").expect("scenario");
        assert!(
            decode.allocs_per_op <= 10.0,
            "small-path regression in `codec_decode_many_small`: {:.1} allocs/op > 10 \
             (per-item allocation crept back into the decoders)",
            decode.allocs_per_op,
        );
        let gossip = measures.iter().find(|m| m.name == "delta_gossip").expect("scenario");
        assert!(
            gossip.alloc_bytes_per_op <= 65_536.0,
            "small-path regression in `delta_gossip`: {:.0} alloc bytes/round > 65536",
            gossip.alloc_bytes_per_op,
        );
        eprintln!("perf_report: small-path allocation assertions hold.");
    }

    if has("--assert-sharded-gossip") {
        // Partial replication: a pair owning one shard must do identical
        // gossip work whether the universe holds 2 shards or 8, and the
        // wide deployment must not allocate meaningfully more per round.
        assert_sharded_ownership_scaling(&sizes);
        let narrow =
            measures.iter().find(|m| m.name == "sharded_gossip_2shards").expect("scenario");
        let wide = measures.iter().find(|m| m.name == "sharded_gossip_8shards").expect("scenario");
        assert!(
            wide.allocs_per_op <= narrow.allocs_per_op * 1.5 + 16.0,
            "sharded-gossip scaling regression: {:.1} allocs/round with 8 shards vs {:.1} \
             with 2 — per-round allocation must track owned shards, not the universe",
            wide.allocs_per_op,
            narrow.allocs_per_op,
        );
    }

    if has("--assert-group-commit") {
        // Group-commit durability: the lone-writer leg and the
        // fsyncs-per-mutation ratio gate on a fixed 64-writer workload
        // (independent of --smoke scaling, so CI exercises real batching
        // pressure).
        assert_group_commit_batching();
    }

    if has("--assert-cold-start") {
        // Set reconciliation: the O(diff · log N) cold-start gate on the
        // fixed 1000-item, 5-behind workload.
        assert_cold_start_reconciliation();
    }

    if has("--assert-conn-reuse") {
        // Parked connections: the count law of the socket runtimes, on
        // driven rounds (exact, independent of --smoke).
        assert_conn_reuse();
    }

    if has("--assert-heap") {
        // Resident size: the IVV arena, the streamed checkpoint and the
        // moving shutdown, on fixed sizes (independent of --smoke).
        assert_heap();
    }

    let mut report = String::new();
    report.push_str("{\n");
    report.push_str("  \"schema\": \"epidb-perf-report/v1\",\n");
    writeln!(report, "  \"mode\": \"{}\",", if smoke { "smoke" } else { "full" }).unwrap();
    writeln!(report, "  \"scenarios\": {}", scenarios_json(&measures)).unwrap();
    report.push_str("}\n");

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create report directory");
    }
    std::fs::write(&out_path, &report).expect("write report");

    // Self-validate the emitted schema (the CI smoke run relies on this).
    let written = std::fs::read_to_string(&out_path).expect("re-read report");
    assert!(written.contains("\"schema\": \"epidb-perf-report/v1\""));
    for m in &measures {
        assert!(
            written.contains(&format!("\"{}\": {{\"iters\": ", m.name)),
            "scenario `{}` missing from emitted report",
            m.name
        );
    }
    eprintln!("perf_report: wrote {out_path} ({} scenarios, schema validated).", measures.len());
}
