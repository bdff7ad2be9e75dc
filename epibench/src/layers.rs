//! The traced fabrics: the same cycle as the product clusters run, with a
//! span around each call into a layer. No product file holds a span.
//!
//! * `core_sim`: replicas in this thread, `Round::start_*` / `on_response`
//!   against `Engine::handle` by direct call.
//! * The reactor workloads: what `AsyncTcpCluster` is made of, put
//!   together from public pieces so that a span fits between them — a
//!   bench-owned `FrameService` on the product's `AsyncServer::bind` whose
//!   `serve` is `decode_request_checked` → `Engine::handle` →
//!   `encode_response_to`; `Replica::update` then `GroupWal::wait_durable`
//!   / `maybe_checkpoint`; `GroupWal::open` for recovery; rounds driven
//!   over the product's own `TcpTransport`, one span per exchange (its
//!   framing, connect and codec are inside that span, uncopied).
//! * `sharded_small`: the product's `ShardedTcpCluster` itself, one span
//!   per call — its thread-per-connection server is not public and is not
//!   re-implemented here.
//!
//! `trace.overhead_pct` — the traced cycle against the product's — shows
//! when the assembled fabric and the product drift apart, and the
//! layer-dominance check fails the run when it is out of bounds.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use epidb_common::{Costs, ItemId, NodeId, Result, ShardId};
use epidb_core::codec::{decode_request_checked, encode_response_to, Writer, CHECKED_HEADER};
use epidb_core::{
    ConflictPolicy, Engine, OobOutcome, PropagationResponse, ProtocolRequest, ProtocolResponse,
    Replica, ReplicaHost, Round, RoundOutcome, RoundStep, Transport,
};
use epidb_durable::{DurabilityConfig, GroupWal, StreamSpec};
use epidb_net::transport::MutexHost;
use epidb_net::{AsyncServer, FrameService, TcpTransport};
use epidb_store::UpdateOp;
use parking_lot::Mutex;

use crate::fabric::{
    self, node, refused, wrong, CrashLedger, DurableCounts, Fabric, OwnerCheck, RoundEnd,
};
use crate::input::{Inputs, Update};
use crate::spec::{Fabric as Kind_, Shape, Workload};
use crate::trace::{self, span, Kind};

// ---------------------------------------------------------------------------
// Protocol steps shared by every traced fabric
// ---------------------------------------------------------------------------

/// What a responder's `Engine::handle` turned out to be.
fn handle_kind(resp: &ProtocolResponse) -> Kind {
    match resp {
        ProtocolResponse::Pull(PropagationResponse::YouAreCurrent) => Kind::HandleIdle,
        ProtocolResponse::Oob(_) => Kind::HandleOob,
        ProtocolResponse::Recon(_) | ProtocolResponse::Full(_) => Kind::HandleRecon,
        _ => Kind::HandlePull,
    }
}

/// What the initiator's `Round::on_response` is about to be.
fn response_kind(resp: &ProtocolResponse) -> Kind {
    match resp {
        ProtocolResponse::Pull(PropagationResponse::Payload(_)) => Kind::Accept,
        ProtocolResponse::Oob(_) => Kind::AcceptOob,
        ProtocolResponse::Recon(_) | ProtocolResponse::Full(_) => Kind::ReconStep,
        ProtocolResponse::Shard { resp, .. } => response_kind(resp),
        _ => Kind::RoundIdle,
    }
}

/// One round, initiator side, as `Engine::pull` / `Engine::oob` drive it:
/// start → exchange → `on_response` until done.
fn drive<H: ReplicaHost, T: Transport>(
    host: &mut H,
    transport: &mut T,
    start: impl FnOnce(&mut Replica, NodeId) -> (Round, ProtocolRequest),
) -> Result<RoundOutcome> {
    let peer = transport.peer();
    let (mut round, mut req) = {
        let _s = span(Kind::RoundStart, 1);
        host.with(|r| start(r, peer))
    };
    loop {
        let resp = transport.exchange(req)?;
        let _s = span(response_kind(&resp), 1);
        match host.with(|r| round.on_response(r, resp))? {
            RoundStep::Send(next) => req = next,
            RoundStep::Done(outcome) => return Ok(outcome),
        }
    }
}

pub fn pull<H: ReplicaHost, T: Transport>(host: &mut H, transport: &mut T) -> RoundEnd {
    match drive(host, transport, Round::start_pull) {
        Ok(RoundOutcome::Pull(out)) => Ok(out).into(),
        _ => RoundEnd::Failed,
    }
}

fn oob<H: ReplicaHost, T: Transport>(host: &mut H, transport: &mut T, item: ItemId) -> bool {
    matches!(
        drive(host, transport, |r, peer| Round::start_oob(r, peer, item)),
        Ok(RoundOutcome::Oob(OobOutcome::Adopted { .. } | OobOutcome::AlreadyCurrent))
    )
}

// ---------------------------------------------------------------------------
// core_sim: replicas in this thread, exchanges are direct calls
// ---------------------------------------------------------------------------

/// `epidb_core::LocalTransport` with a span on the handler.
struct DirectCall<'a>(&'a mut Replica);

impl Transport for DirectCall<'_> {
    fn peer(&self) -> NodeId {
        self.0.id()
    }

    fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
        let mut s = span(Kind::HandleIdle, 1);
        let resp = Engine::handle(self.0, req)?;
        s.retag(handle_kind(&resp));
        Ok(resp)
    }
}

pub struct SimLayers(Vec<Replica>);

impl SimLayers {
    /// Recipient and source, both mutable (`EpidbCluster::pair_mut`).
    fn pair(&mut self, a: usize, b: usize) -> (&mut Replica, &mut Replica) {
        assert_ne!(a, b);
        if a < b {
            let (lo, hi) = self.0.split_at_mut(b);
            (&mut lo[a], &mut hi[0])
        } else {
            let (lo, hi) = self.0.split_at_mut(a);
            (&mut hi[0], &mut lo[b])
        }
    }
}

impl Fabric for SimLayers {
    fn write(&mut self, origin: usize, batch: &[Update]) -> u64 {
        let _s = span(Kind::ReplicaUpdate, batch.len());
        refused(batch, |x, op| self.0[origin].update(x, op))
    }

    fn verify(&mut self, at: usize, batch: &[Update]) -> u64 {
        let _s = span(Kind::StoreRead, batch.len());
        wrong(batch, |x| self.0[at].read(x))
    }

    fn oob(&mut self, recipient: usize, source: usize, item: ItemId) -> bool {
        let (r, s) = self.pair(recipient, source);
        oob(r, &mut DirectCall(s), item)
    }

    fn round(&mut self, recipient: usize, source: usize, _shard: Option<ShardId>) -> RoundEnd {
        let (r, s) = self.pair(recipient, source);
        pull(r, &mut DirectCall(s))
    }

    fn crash(&mut self, _node: usize) {}
    fn revive(&mut self, _node: usize) {}

    fn costs(&self) -> Costs {
        self.0.iter().map(Replica::costs).fold(Costs::ZERO, |a, b| a + b)
    }

    fn final_check(&mut self) -> std::result::Result<(), String> {
        let mut check = OwnerCheck::default();
        self.0.iter().try_for_each(|r| check.see(r))
    }
}

// ---------------------------------------------------------------------------
// Sockets: the product's transport under a span, the responder's stages
// ---------------------------------------------------------------------------

/// Whether `resp` says "you are current", bare or in a shard envelope.
pub fn is_idle(resp: &ProtocolResponse) -> bool {
    match resp {
        ProtocolResponse::Pull(PropagationResponse::YouAreCurrent) => true,
        ProtocolResponse::Shard { resp, .. } => is_idle(resp),
        _ => false,
    }
}

/// The last exchange that carried data and the last that did not, as the
/// initiator saw them: what the codec probe encodes and decodes.
pub static SAMPLES: Mutex<[Option<(ProtocolRequest, ProtocolResponse)>; 2]> =
    Mutex::new([None, None]);

/// The product's `TcpTransport`, one span per exchange: the first on a
/// fresh transport also connects (`cold`), the rest reuse the connection
/// (`warm`). The serving side's spans become children of the open one. A
/// fresh transport per round, as `pull_now` and `gossip_loop` make them,
/// so connect-per-round counts.
pub struct SpanTransport {
    inner: TcpTransport,
    kinds: (Kind, Kind),
    fresh: bool,
}

impl SpanTransport {
    pub fn new(inner: TcpTransport, cold: Kind, warm: Kind) -> SpanTransport {
        SpanTransport { inner, kinds: (cold, warm), fresh: true }
    }

    fn to(peer: usize, addr: SocketAddr) -> SpanTransport {
        SpanTransport::new(TcpTransport::new(node(peer), addr), Kind::ExchangeCold, Kind::Exchange)
    }

    pub fn close(self) {
        let _s = span(Kind::Close, 1);
        drop(self.inner);
    }
}

impl Transport for SpanTransport {
    fn peer(&self) -> NodeId {
        self.inner.peer()
    }

    fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
        let sent = req.clone();
        let kind = if std::mem::take(&mut self.fresh) { self.kinds.0 } else { self.kinds.1 };
        let resp = {
            let _s = span(kind, 1).adopt_remote();
            self.inner.exchange(req)?
        };
        SAMPLES.lock()[usize::from(!is_idle(&resp))] = Some((sent, resp.clone()));
        Ok(resp)
    }
}

/// The responder's three stages, each spanned: decode → `handle` → encode.
/// `gate` runs between handler and encode (the durable ack gate).
fn serve_frame(
    body: &[u8],
    out: &mut Writer,
    handle: impl FnOnce(ProtocolRequest) -> (ProtocolResponse, Kind),
    gate: impl FnOnce(),
) {
    let _serve = span(Kind::Serve, 1);
    trace::frame(4 + body.len());
    let req = {
        let _s = span(Kind::DecodeReq, 1);
        decode_request_checked(body)
    };
    let resp = match req {
        Ok(req) => {
            let mut s = span(Kind::HandleIdle, 1);
            let (resp, kind) = handle(req);
            s.retag(kind);
            resp
        }
        Err(e) => ProtocolResponse::Error(format!("bad request: {e}")),
    };
    gate();
    {
        let _s = span(Kind::EncodeResp, 1);
        encode_response_to(&resp, out);
    }
    trace::frame(4 + CHECKED_HEADER + out.len());
}

// ---------------------------------------------------------------------------
// tcp_small, tcp_bulk, catchup, cold_recon: reactor + GroupWal
// ---------------------------------------------------------------------------

/// `epidb_net::async_tcp::AsyncNode`.
struct TcpNode {
    replica: Mutex<Replica>,
    wal: Mutex<Option<Arc<GroupWal>>>,
    alive: AtomicBool,
}

impl TcpNode {
    /// `AsyncNode::after_mutation`: the ack gate, then the checkpoint
    /// triggers.
    fn after_mutation(&self, journaled: bool) {
        let Some(wal) = self.wal.lock().clone() else { return };
        {
            let _s = span(if journaled { Kind::CommitWait } else { Kind::AckGate }, 1);
            wal.wait_durable();
        }
        let mut s = span(Kind::CheckpointSkip, 1);
        let replica = self.replica.lock();
        if wal.maybe_checkpoint(&[&replica]).expect("durable: checkpoint failed") {
            s.retag(Kind::Checkpoint);
        }
    }
}

impl FrameService for TcpNode {
    fn alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// `AsyncNode::serve`.
    fn serve(&self, body: &[u8], out: &mut Writer) -> bool {
        if !self.alive() {
            return false;
        }
        serve_frame(
            body,
            out,
            |req| {
                // No request of a run is refused; one that is comes back to
                // the initiator as an error and fails the round.
                let resp = Engine::handle(&mut self.replica.lock(), req)
                    .unwrap_or_else(|e| ProtocolResponse::Error(e.to_string()));
                let kind = handle_kind(&resp);
                (resp, kind)
            },
            || {
                if let Some(wal) = self.wal.lock().clone() {
                    let _s = span(Kind::AckGate, 1);
                    wal.wait_durable();
                }
            },
        );
        true
    }
}

pub struct TcpLayers {
    w: Workload,
    /// The run's durability settings, worked out once (telling a tmpfs
    /// reads the mount table).
    cfg: DurabilityConfig,
    nodes: Vec<Arc<TcpNode>>,
    server: Option<AsyncServer>,
    addrs: Vec<SocketAddr>,
    ledger: CrashLedger,
}

impl TcpLayers {
    /// `epidb_net::async_tcp::open_group_node`, with the recovery spanned.
    fn open_node(w: &Workload, cfg: &DurabilityConfig, i: usize) -> (Arc<GroupWal>, Replica) {
        let streams = [StreamSpec { id: node(i), n_nodes: w.nodes, n_items: w.items }];
        let (wal, mut replicas, _report) = {
            let _s = span(Kind::Recover, 1);
            GroupWal::open(cfg, cfg.node_dir(node(i)), &streams, ConflictPolicy::Report, 0)
                .expect("durable: group recovery failed")
        };
        let mut replica = replicas.pop().expect("exactly one stream");
        wal.attach(0, &mut replica);
        if w.shape == Shape::ColdRecon && i == 0 {
            replica.set_log_retention(1);
        }
        (wal, replica)
    }

    /// `AsyncTcpCluster::spawn` (without the gossip threads, whose timers
    /// the product run sets to an hour).
    fn spawn(w: &Workload, dir: &Path) -> TcpLayers {
        let cfg = fabric::durability(w, dir);
        let nodes: Vec<Arc<TcpNode>> = (0..w.nodes)
            .map(|i| {
                let (wal, replica) = TcpLayers::open_node(w, &cfg, i);
                Arc::new(TcpNode {
                    replica: Mutex::new(replica),
                    wal: Mutex::new(Some(wal)),
                    alive: AtomicBool::new(true),
                })
            })
            .collect();
        let services = nodes.iter().map(|n| n.clone() as Arc<dyn FrameService>).collect();
        let server = AsyncServer::bind(services, 0).expect("bind reactor");
        let addrs = server.addrs().to_vec();
        TcpLayers { w: *w, cfg, nodes, server: Some(server), addrs, ledger: CrashLedger::default() }
    }

    fn shutdown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        for n in &self.nodes {
            *n.wal.lock() = None;
        }
    }
}

impl Fabric for TcpLayers {
    /// `AsyncTcpCluster::update`, per update.
    fn write(&mut self, origin: usize, batch: &[Update]) -> u64 {
        let n = &self.nodes[origin];
        let mut refused = 0;
        for (x, v) in batch {
            {
                let _s = span(Kind::ReplicaUpdate, 1);
                refused +=
                    u64::from(n.replica.lock().update(*x, UpdateOp::set(v.clone())).is_err());
            }
            n.after_mutation(true);
        }
        refused
    }

    fn verify(&mut self, at: usize, batch: &[Update]) -> u64 {
        let _s = span(Kind::StoreRead, batch.len());
        let r = self.nodes[at].replica.lock();
        wrong(batch, |x| r.read(x))
    }

    /// `AsyncTcpCluster::oob_fetch`.
    fn oob(&mut self, recipient: usize, source: usize, item: ItemId) -> bool {
        let n = &self.nodes[recipient];
        let mut t = SpanTransport::to(source, self.addrs[source]);
        let ok = oob(&mut MutexHost(&n.replica), &mut t, item);
        t.close();
        n.after_mutation(ok);
        ok
    }

    /// `AsyncTcpCluster::pull_now`.
    fn round(&mut self, recipient: usize, source: usize, _shard: Option<ShardId>) -> RoundEnd {
        let n = &self.nodes[recipient];
        let mut t = SpanTransport::to(source, self.addrs[source]);
        let end = pull(&mut MutexHost(&n.replica), &mut t);
        t.close();
        n.after_mutation(matches!(end, RoundEnd::Copied(_)));
        end
    }

    /// `AsyncTcpCluster::crash`.
    fn crash(&mut self, at: usize) {
        let n = &self.nodes[at];
        n.alive.store(false, Ordering::SeqCst);
        let wal = n.wal.lock().take();
        self.ledger.crashed(n.replica.lock().costs(), wal.map(|w| w.stats()));
        *n.replica.lock() = Replica::new(node(at), self.w.nodes, self.w.items);
    }

    /// `AsyncTcpCluster::revive`.
    fn revive(&mut self, at: usize) {
        let (wal, replica) = TcpLayers::open_node(&self.w, &self.cfg, at);
        self.ledger.revived(replica.costs());
        let n = &self.nodes[at];
        *n.replica.lock() = replica;
        *n.wal.lock() = Some(wal);
        n.alive.store(true, Ordering::SeqCst);
    }

    fn costs(&self) -> Costs {
        let live =
            self.nodes.iter().map(|n| n.replica.lock().costs()).fold(Costs::ZERO, |a, b| a + b);
        self.ledger.costs(live)
    }

    fn idle_exchange(&self) -> Option<(ProtocolRequest, TcpTransport)> {
        let dbvv = self.nodes[1].replica.lock().dbvv().clone();
        let pull = ProtocolRequest::Pull { from: node(1), dbvv };
        Some((pull, TcpTransport::new(node(0), self.addrs[0])))
    }

    fn journal_bytes(&self) -> Option<(u64, u64)> {
        let (mut bytes, mut generations) = (0, 0);
        for i in 0..self.nodes.len() {
            let dir = self.cfg.node_dir(node(i));
            let newest = std::fs::read_dir(dir).into_iter().flatten().flatten().filter_map(|e| {
                let name = e.file_name();
                let gen: u64 =
                    name.to_str()?.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()?;
                Some((gen, e.metadata().ok()?.len()))
            });
            if let Some((gen, len)) = newest.max() {
                bytes += len;
                generations += gen;
            }
        }
        Some((bytes, generations))
    }

    fn durable_counts(&self) -> DurableCounts {
        let live = self.nodes.iter().filter_map(|n| n.wal.lock().as_ref().map(|w| w.stats()));
        let server = self.server.as_ref();
        DurableCounts {
            commit: self.ledger.commit(live),
            open_connections: server.map_or(0, AsyncServer::open_connections),
            worker_threads: server.map_or(0, AsyncServer::worker_threads),
        }
    }

    fn final_check(&mut self) -> std::result::Result<(), String> {
        let mut check = OwnerCheck::default();
        self.nodes.iter().try_for_each(|n| check.see(&n.replica.lock()))
    }
}

// ---------------------------------------------------------------------------
// sharded_small: the product cluster, one span per call
// ---------------------------------------------------------------------------

/// A product fabric with a span around each of its calls. What happens
/// inside a call — the thread-per-connection server, the `Shard` envelope,
/// `Engine::handle_sharded` — is read off the probes (`probes::sharded`,
/// `probes::exchanges`) and not off a copy of the server loop.
pub struct Spanned(Box<dyn Fabric>);

impl Fabric for Spanned {
    fn write(&mut self, origin: usize, batch: &[Update]) -> u64 {
        let _s = span(Kind::ReplicaUpdate, batch.len());
        self.0.write(origin, batch)
    }

    fn verify(&mut self, at: usize, batch: &[Update]) -> u64 {
        let _s = span(Kind::StoreRead, batch.len());
        self.0.verify(at, batch)
    }

    fn oob(&mut self, recipient: usize, source: usize, item: ItemId) -> bool {
        let _s = span(Kind::ShardOob, 1);
        self.0.oob(recipient, source, item)
    }

    fn round(&mut self, recipient: usize, source: usize, shard: Option<ShardId>) -> RoundEnd {
        let mut s = span(Kind::ShardRoundIdle, 1);
        let end = self.0.round(recipient, source, shard);
        if end != RoundEnd::UpToDate {
            s.retag(Kind::ShardRound);
        }
        end
    }

    fn crash(&mut self, at: usize) {
        self.0.crash(at);
    }

    fn revive(&mut self, at: usize) {
        self.0.revive(at);
    }

    fn costs(&self) -> Costs {
        self.0.costs()
    }

    fn idle_exchange(&self) -> Option<(ProtocolRequest, TcpTransport)> {
        self.0.idle_exchange()
    }

    fn final_check(&mut self) -> std::result::Result<(), String> {
        self.0.final_check()
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// The traced twin of `fabric::set_up`: the same steps through the traced
/// fabric. Spans are recorded only around recovery and the snapshot
/// probe, not around the hundred thousand populating updates.
pub fn set_up(w: &Workload, seed: u64, dir: &Path) -> Box<dyn Fabric> {
    let initial = |x: ItemId| (x, Inputs::initial_value(seed, x, w.value_len));
    let all: Vec<Update> = ItemId::all(w.items).map(initial).collect();
    trace::record(false);
    let built: Box<dyn Fabric> = match w.fabric {
        Kind_::Sim => {
            let mut f =
                SimLayers((0..w.nodes).map(|i| Replica::new(node(i), w.nodes, w.items)).collect());
            for u in &all {
                f.write(u.0.index() % w.nodes, std::slice::from_ref(u));
            }
            for _sweep in 0..2 {
                for i in 0..w.nodes {
                    f.round((i + 1) % w.nodes, i, None);
                }
            }
            snapshot_probe(&f.0[0]);
            Box::new(f)
        }
        Kind_::Tcp => {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).expect("create data directory");
            let mut f = TcpLayers::spawn(w, dir);
            for u in &all {
                f.write(u.0.index() % w.nodes, std::slice::from_ref(u));
            }
            for _sweep in 0..2 {
                for i in 0..w.nodes {
                    f.round((i + 1) % w.nodes, i, None);
                }
            }
            snapshot_probe(&f.nodes[0].replica.lock());
            f.shutdown();
            trace::record(true);
            let f = TcpLayers::spawn(w, dir);
            trace::record(false);
            Box::new(f)
        }
        Kind_::Sharded => Box::new(Spanned(fabric::set_up(w, seed, dir))),
    };
    trace::record(true);
    trace::fold();
    built
}

/// `core.snapshot`: encode one replica and restore it, spanned.
fn snapshot_probe(r: &Replica) {
    trace::record(true);
    let snapshot = {
        let _s = span(Kind::SnapshotEncode, 1);
        r.to_snapshot()
    };
    {
        let _s = span(Kind::SnapshotRestore, 1);
        Replica::from_snapshot(&snapshot).expect("restore own snapshot");
    }
    trace::record(false);
}
