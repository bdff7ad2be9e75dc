//! The part of the traced run that is not a cycle: what a span cannot be
//! put around from outside is driven in isolation after the window —
//! each small layer's public functions on structures of the workload's
//! shape (`vv`, `store`, `logvec` and the journal codec run inside
//! `Replica::update`), an idle exchange over the product's transport cold
//! and warm (connect, framing and the initiator's codec run inside
//! `TcpTransport::exchange`), the codec on the run's own messages, and the
//! sharded rounds by direct call (`Engine::handle_sharded` runs inside the
//! product's serving threads) — and every span-derived number is named as
//! a per-layer metric.

use std::hint::black_box;

use bytes::Bytes;
use epidb_common::{ItemId, NodeId, Result, ShardId};
use epidb_core::codec::{
    decode_request_checked, decode_response_checked_shared, encode_request_to, encode_response_to,
    Reader, Writer, CHECKED_HEADER,
};
use epidb_core::journal::{get_mutation, put_mutation};
use epidb_core::{
    ConflictPolicy, Engine, Mutation, ProtocolRequest, ProtocolResponse, Replica, ShardTransport,
    ShardedNode, Transport,
};
use epidb_log::{LogRecord, LogVector};
use epidb_store::{ItemStore, UpdateOp};
use epidb_vv::DbVersionVector;

use crate::fabric::{self, Fabric as Driven, RoundEnd};
use crate::input::Inputs;
use crate::layers::{self, SpanTransport};
use crate::pass::PassResult;
use crate::spec::{Fabric, Shape, Workload, SHARDS};
use crate::stats::median;
use crate::trace::{self, span, Folded, Kind};

/// Updates each probe runs: enough for a stable per-operation time, few
/// enough to stay in the millisecond range.
const PROBE_OPS: usize = 4_096;

/// Run every layer probe once, on bench-owned structures shaped like
/// workload `w` (per shard on the sharded workload), fed from its input
/// stream.
pub fn run(w: &Workload, seed: u64) {
    let sharded = w.shape == Shape::Sharded;
    let items = if sharded { w.items / SHARDS } else { w.items };
    let mut inputs = Inputs::new(seed, w);
    let mut updates = Vec::with_capacity(PROBE_OPS);
    while updates.len() < PROBE_OPS {
        updates.extend(inputs.next_batch(0));
    }
    let local = |x: ItemId| ItemId::from_index(x.index() % items);
    let origin = NodeId(0);

    // vv: the comparison behind "nothing to do".
    let mut a = DbVersionVector::zero(w.nodes);
    for i in 0..w.nodes {
        for _ in 0..=i {
            a.record_local_update(NodeId::from_index(i));
        }
    }
    let b = a.clone();
    {
        let _s = span(Kind::ProbeDbvvCompare, PROBE_OPS);
        for _ in 0..PROBE_OPS {
            black_box(black_box(&a).compare(black_box(&b)));
        }
    }

    // store: the value write under `Replica::update`.
    let mut store = ItemStore::new(w.nodes, items);
    let ops: Vec<(ItemId, UpdateOp)> =
        updates.iter().map(|(x, v)| (local(*x), UpdateOp::set(v.clone()))).collect();
    {
        let _s = span(Kind::ProbeStoreApply, ops.len());
        for (x, op) in &ops {
            black_box(store.apply_local_update(origin, *x, op).expect("item exists"));
        }
    }

    // logvec: the append under `Replica::update`, and the tail walk under
    // `prepare_propagation`.
    let mut log = LogVector::new(w.nodes, items);
    {
        let _s = span(Kind::ProbeLogAdd, ops.len());
        for (m, (x, _)) in ops.iter().enumerate() {
            log.add_record(origin, LogRecord { item: *x, m: m as u64 + 1 });
        }
    }
    {
        let walks = 64;
        let _s = span(Kind::ProbeLogTail, walks * w.batch);
        let threshold = (ops.len() - w.batch) as u64;
        for _ in 0..walks {
            let mut examined = 0;
            black_box(log.tail_after(origin, threshold, &mut examined));
        }
    }

    // journal: one update's WAL record, encoded and replayed.
    let mutations: Vec<Mutation> =
        ops.iter().map(|(x, op)| Mutation::Update { item: *x, op: op.clone() }).collect();
    let mut encoded = Vec::with_capacity(mutations.len());
    {
        let _s = span(Kind::ProbeJournalEncode, mutations.len());
        for m in &mutations {
            let mut wr = Writer::new();
            put_mutation(&mut wr, m);
            encoded.push(wr.into_bytes());
        }
    }
    let mut scratch = Replica::new(origin, w.nodes, items);
    {
        let _s = span(Kind::ProbeJournalReplay, encoded.len());
        for bytes in &encoded {
            let m = get_mutation(&mut Reader::new(bytes)).expect("decode own record");
            scratch.replay_mutation(m).expect("replay own record");
        }
    }

    // shard: item → shard → local id.
    if w.fabric == Fabric::Sharded {
        let map = fabric::shard_map(w);
        let _s = span(Kind::ProbeShardRoute, updates.len());
        for (x, _) in &updates {
            black_box((map.shard_of(*x).expect("item in the universe"), map.local_item(*x)));
        }
    }
    trace::fold();
}

/// Rounds of the exchange probe, and folds a probe's operations are cut
/// into so that a median can be taken over them.
const PROBE_ROUNDS: usize = 256;
const PROBE_FOLDS: usize = 16;

/// The exchange probe: an idle pull request sent twice over one fresh
/// product transport — once connecting, once over the warm connection —
/// against the fabric's real serving side, `PROBE_ROUNDS` times. The
/// difference of the two is what a connection costs (`net.tcp.connect_us`),
/// the warm one is `net.tcp.exchange_warm_us`, and its self time (the
/// serving side's spans taken out) is the serve residual.
pub fn exchanges(f: &dyn Driven) {
    for _ in 0..PROBE_ROUNDS {
        let Some((req, transport)) = f.idle_exchange() else { return };
        let mut t = SpanTransport::new(transport, Kind::ProbeExchangeCold, Kind::ProbeExchangeWarm);
        for _ in 0..2 {
            let resp = t.exchange(req.clone()).expect("probe: idle exchange");
            assert!(layers::is_idle(&resp), "probe: the replicas are not identical");
        }
        t.close();
        trace::fold();
    }
}

/// The codec probe: the last exchange of the run that carried data (the
/// idle one where none did, as on the sharded fabric, whose rounds the
/// product runs whole), encoded and decoded through the four public codec
/// entry points.
pub fn codec() {
    let samples = layers::SAMPLES.lock().clone();
    let [idle, busy] = samples;
    let Some((req, resp)) = busy.or(idle) else { return };
    // A frame body as the reader of a socket sees it: CRC32, then the
    // encoding.
    let body = |w: &Writer| {
        let mut body = w.crc32().to_le_bytes().to_vec();
        w.chunks().for_each(|c| body.extend_from_slice(c));
        trace::frame(4 + body.len());
        Bytes::from(body)
    };
    let mut w = Writer::new();
    let per_fold = PROBE_OPS / PROBE_FOLDS;
    for _ in 0..PROBE_FOLDS {
        {
            let _s = span(Kind::EncodeReq, per_fold);
            (0..per_fold).for_each(|_| encode_request_to(black_box(&req), &mut w));
        }
        let frame = body(&w);
        {
            let _s = span(Kind::DecodeReq, per_fold);
            for _ in 0..per_fold {
                black_box(decode_request_checked(black_box(&frame)).expect("decode own request"));
            }
        }
        {
            let _s = span(Kind::EncodeResp, per_fold);
            (0..per_fold).for_each(|_| encode_response_to(black_box(&resp), &mut w));
        }
        let frame = body(&w);
        debug_assert_eq!(frame.len(), CHECKED_HEADER + w.len());
        {
            let _s = span(Kind::DecodeResp, per_fold);
            for _ in 0..per_fold {
                black_box(
                    decode_response_checked_shared(black_box(&frame)).expect("decode own response"),
                );
            }
        }
        trace::fold();
    }
}

/// `Engine::handle_sharded` by direct call (`epidb_core::LocalTransport`
/// for a sharded node, with a span on the handler).
struct DirectShardCall<'a>(&'a mut ShardedNode);

impl Transport for DirectShardCall<'_> {
    fn peer(&self) -> NodeId {
        self.0.id()
    }

    fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
        let mut s = span(Kind::HandleShardedIdle, 1);
        let resp = Engine::handle_sharded(self.0, req)?;
        if !layers::is_idle(&resp) {
            s.retag(Kind::HandleSharded);
        }
        Ok(resp)
    }
}

/// The sharded probe: two bench-owned `ShardedNode`s, the owners of group
/// 0, running the workload's rounds by direct call, so that a span fits
/// around `Engine::handle_sharded` and the steps of a round. A warm
/// exchange through the product cluster minus the idle handler here is
/// what the socket and the serving thread add
/// (`net.sharded.serve_residual_us`).
pub fn sharded(w: &Workload, seed: u64) {
    let map = fabric::shard_map(w);
    let mut nodes: Vec<ShardedNode> = (0..2)
        .map(|i| ShardedNode::new(fabric::node(i), w.nodes, map.clone(), ConflictPolicy::Report))
        .collect();
    let mut inputs = Inputs::new(seed, w);
    let group: Vec<ShardId> = map.owned_by(fabric::node(0));
    for _ in 0..PROBE_ROUNDS {
        let (a, b) = nodes.split_at_mut(1);
        let (origin, peer) = (&mut a[0], &mut b[0]);
        let batch = inputs.next_batch(0);
        fabric::refused(&batch, |x, op| origin.update(x, op));
        for &s in &group {
            let recipient = peer.shard_state_mut(s).expect("owned shard");
            let mut direct = DirectShardCall(&mut *origin);
            let end = layers::pull(recipient, &mut ShardTransport::new(&mut direct, s));
            assert_eq!(end, RoundEnd::Copied(batch.len() / group.len()), "probe: sharded round");
        }
        for &s in &group {
            let recipient = origin.shard_state_mut(s).expect("owned shard");
            let mut direct = DirectShardCall(&mut *peer);
            let end = layers::pull(recipient, &mut ShardTransport::new(&mut direct, s));
            assert_eq!(end, RoundEnd::UpToDate, "probe: sharded idle round");
        }
        trace::fold();
    }
}

/// Name what the spans measured as per-layer metrics on `out`.
pub fn name_metrics(out: &mut PassResult, w: &Workload, f: &Folded) {
    let per_op = |k: Kind| median(&f.per_op_ns[k as usize]);
    let or_zero = |v: f64| if v.is_finite() { v } else { 0.0 };
    let mut put = |name: &str, v: f64| out.set(name, or_zero(v));
    let (ns, us, ms) = (1.0, 1e3, 1e6);

    put("vv.dbvv_compare_ns", per_op(Kind::ProbeDbvvCompare) / ns);
    put("store.read_ns", per_op(Kind::StoreRead) / ns);
    put("store.apply_update_ns", per_op(Kind::ProbeStoreApply) / ns);
    put("logvec.add_record_ns", per_op(Kind::ProbeLogAdd) / ns);
    put("logvec.tail_after_ns_per_record", per_op(Kind::ProbeLogTail) / ns);
    put("core.replica.update_ns", per_op(Kind::ReplicaUpdate) / ns);
    put("core.replica.prepare_us", per_op(Kind::HandlePull) / us);
    put("core.replica.accept_us", per_op(Kind::Accept) / us);
    put("core.replica.oob_serve_us", per_op(Kind::HandleOob) / us);
    put("core.engine.handle_idle_ns", per_op(Kind::HandleIdle) / ns);
    put("core.codec.encode_req_us", per_op(Kind::EncodeReq) / us);
    put("core.codec.decode_req_us", per_op(Kind::DecodeReq) / us);
    put("core.codec.encode_resp_us", per_op(Kind::EncodeResp) / us);
    put("core.codec.decode_resp_us", per_op(Kind::DecodeResp) / us);
    put("core.journal.encode_us", per_op(Kind::ProbeJournalEncode) / us);
    put("core.journal.replay_us_per_record", per_op(Kind::ProbeJournalReplay) / us);
    put("core.recon.serve_us", per_op(Kind::HandleRecon) / us);
    put("core.shard.route_ns", per_op(Kind::ProbeShardRoute) / ns);
    put("core.shard.handle_sharded_idle_ns", per_op(Kind::HandleShardedIdle) / ns);
    put("core.snapshot.encode_ms", per_op(Kind::SnapshotEncode) / ms);
    put("core.snapshot.restore_ms", per_op(Kind::SnapshotRestore) / ms);
    put("durable.group.commit_wait_us", per_op(Kind::CommitWait) / us);
    put("durable.group.checkpoint_ms", per_op(Kind::Checkpoint) / ms);
    put("durable.group.recover_ms", per_op(Kind::Recover) / ms);
    let (cold, warm) = (per_op(Kind::ProbeExchangeCold), per_op(Kind::ProbeExchangeWarm));
    put("net.tcp.connect_us", (cold - warm) / us);
    put("net.tcp.exchange_warm_us", warm / us);

    // Every responder call, whatever it turned out to be.
    let handlers = [
        Kind::HandleIdle,
        Kind::HandlePull,
        Kind::HandleOob,
        Kind::HandleRecon,
        Kind::HandleShardedIdle,
        Kind::HandleSharded,
    ];
    let total = |of: &dyn Fn(Kind) -> f64| handlers.iter().map(|&k| of(k)).sum::<f64>();
    let handled = total(&|k| f.spans[k as usize] as f64);
    // A handler's duration is its self time plus nothing: it has no child
    // spans, so self time is the whole call.
    put("core.engine.handle_us", total(&|k| f.self_ns[k as usize]) / handled / us);

    let count = |k: Kind| f.spans[k as usize] as f64;
    let cycles = f.cycles.max(1) as f64;
    let rounds = count(Kind::RoundStart);
    let steps = rounds
        + [Kind::RoundIdle, Kind::Accept, Kind::AcceptOob, Kind::ReconStep]
            .iter()
            .map(|&k| count(k))
            .sum::<f64>();
    put("core.rounds.steps_per_round", steps / rounds);
    let decodes = (f.ops[Kind::DecodeReq as usize] + f.ops[Kind::DecodeResp as usize]) as f64;
    let decode_allocs =
        (f.allocs[Kind::DecodeReq as usize] + f.allocs[Kind::DecodeResp as usize]) as f64;
    put("core.codec.allocs_per_decode", decode_allocs / decodes);
    put("core.codec.frame_bytes_p50", median(&f.frames));
    put("core.recon.round_trips_per_cycle", count(Kind::HandleRecon) / cycles);
    put("durable.group.checkpoints", count(Kind::Checkpoint));

    // What a warm exchange takes beyond the serving side's own work: on
    // the reactor its self time (the bench-owned service's spans are its
    // children), on the sharded cluster — whose server is the product's,
    // spanless — its time less the idle handler's by direct call.
    let reactor = median(&f.warm_exchange_self_ns) / us;
    let threads = (warm - per_op(Kind::HandleShardedIdle)) / us;
    put("net.async_tcp.serve_residual_us", if w.fabric == Fabric::Tcp { reactor } else { 0.0 });
    put("net.sharded.serve_residual_us", if w.fabric == Fabric::Sharded { threads } else { 0.0 });

    put("trace.cycle_sum_ratio", f.cycle_self_ns / f.cycle_ns);
    // For the layer-dominance check: each layer's share of the cycle.
    let mut layers: Vec<&str> = Kind::ALL.iter().map(|k| k.layer()).collect();
    layers.sort_unstable();
    layers.dedup();
    for layer in layers {
        let own: f64 = Kind::ALL
            .iter()
            .filter(|k| k.layer() == layer)
            .map(|&k| f.cycle_self_by_kind[k as usize])
            .sum();
        put(&format!("share.{layer}"), own / f.cycle_ns);
    }
}
