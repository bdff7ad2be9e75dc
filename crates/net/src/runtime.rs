//! The threaded cluster runtime: OS threads per replica, crossbeam
//! channels for the network, parking_lot mutexes guarding replica state.
//!
//! Each node runs two threads: a *server* thread that executes incoming
//! [`ProtocolRequest`]s through [`Engine::handle`] (the same dispatch
//! surface every runtime uses), and a *gossip* thread that periodically
//! drives [`Engine::pull`] against a random peer over a channel
//! transport. Cost accounting, tracing, and paranoid audits all
//! happen inside the engine — this runtime only moves the enums.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use epidb_common::{Error, ItemId, NodeId, Result};
use epidb_core::{
    ChaosLink, ChaosTransport, ConflictPolicy, Engine, FaultPlan, OobOutcome, ProtocolRequest,
    ProtocolResponse, PullOutcome, Replica, RetryPolicy, Transport,
};
use epidb_durable::{DurabilityConfig, NodeDurability};
use epidb_store::UpdateOp;
use epidb_vv::VvOrd;
use parking_lot::Mutex;

use crate::gossip::{gossip_loop, GossipConfig, Gossiped, CHANNEL_RNG_SALT};
use crate::message::NetMessage;
use crate::transport::MutexHost;

/// Tuning and fault-injection knobs for the threaded cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// How often each node initiates an anti-entropy pull from a random
    /// peer.
    pub gossip_interval: Duration,
    /// Probability that either leg of an exchange is silently dropped
    /// (shorthand for a [`FaultPlan::lossy`] plan; ignored when
    /// `fault_plan` is set).
    pub loss_probability: f64,
    /// Fixed delay added to every exchange (folded into the fault plan;
    /// ignored when `fault_plan` is set).
    pub latency: Duration,
    /// Seed for the per-node RNGs (peer choice) and per-link chaos.
    pub seed: u64,
    /// How long an initiator waits for a response before declaring the
    /// exchange lost (a crashed peer drops requests silently).
    pub exchange_timeout: Duration,
    /// Op-cache budget per replica; when non-zero, replicas cache update
    /// operations and gossip pulls run in delta mode.
    pub delta_budget: usize,
    /// Run every replica in paranoid mode (per-step invariant audits).
    pub paranoid: bool,
    /// Full fault mix for gossip links; overrides `loss_probability` and
    /// `latency` when set.
    pub fault_plan: Option<FaultPlan>,
    /// Retry policy the gossip loop applies within each anti-entropy
    /// round (between rounds, the next tick is the retry).
    pub retry: RetryPolicy,
    /// On-disk durability. When set, every node keeps a write-ahead log
    /// and checkpointed snapshots under `durability.dir`;
    /// [`ThreadedCluster::crash`] then actually drops the in-memory
    /// replica and [`ThreadedCluster::revive`] reconstructs it from disk.
    /// When `None` (the default), crash/revive only toggle liveness and
    /// the replica survives in memory.
    pub durability: Option<DurabilityConfig>,
    /// Maximum wanted items per `DeltaFetch` frame in delta gossip
    /// rounds (`usize::MAX` = no coalescing: the exchange shape — and
    /// therefore the per-node [`Costs`](epidb_common::Costs) — matches
    /// the unchunked protocol).
    pub max_frame_items: usize,
    /// Responder-side byte budget per delta payload frame (`u64::MAX` =
    /// unbounded). A budgeted responder serves a prefix of the want-list
    /// and the initiator re-requests the rest.
    pub delta_frame_bytes: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            gossip_interval: Duration::from_millis(5),
            loss_probability: 0.0,
            latency: Duration::ZERO,
            seed: 0xE51D,
            exchange_timeout: Duration::from_millis(500),
            delta_budget: 0,
            paranoid: false,
            fault_plan: None,
            retry: RetryPolicy::none(),
            durability: None,
            max_frame_items: usize::MAX,
            delta_frame_bytes: u64::MAX,
        }
    }
}

impl ClusterConfig {
    /// The fault plan gossip links run: `fault_plan` if set, else the
    /// `loss_probability` / `latency` shorthand.
    pub fn effective_plan(&self) -> FaultPlan {
        self.fault_plan.clone().unwrap_or(FaultPlan {
            latency: self.latency,
            ..FaultPlan::lossy(self.loss_probability)
        })
    }

    fn gossip(&self) -> GossipConfig {
        GossipConfig {
            interval: self.gossip_interval,
            seed: self.seed,
            rng_salt: CHANNEL_RNG_SALT,
            plan: self.effective_plan(),
            retry: self.retry.clone(),
            delta: self.delta_budget > 0,
            max_frame_items: self.max_frame_items,
        }
    }
}

struct NodeShared {
    replica: Mutex<Replica>,
    alive: AtomicBool,
    /// The node's durability layer; `None` when durability is off, and
    /// also while a durable node is crashed (the WAL handle is dropped
    /// with the replica and reopened on revival).
    durability: Mutex<Option<Arc<NodeDurability>>>,
}

impl NodeShared {
    /// Run the checkpoint policy after a durable mutation. Takes the
    /// replica lock; call only from contexts that do not already hold it.
    fn after_mutation(&self) {
        let durability = self.durability.lock().clone();
        if let Some(d) = durability {
            let replica = self.replica.lock();
            d.maybe_checkpoint(&replica).expect("durable: checkpoint failed");
        }
    }
}

/// Recover (or freshly create) one durable node and configure it like the
/// runtime's in-memory replicas. Shared by the threaded and TCP runtimes.
pub(crate) fn open_durable_node(
    cfg: &DurabilityConfig,
    id: NodeId,
    n_nodes: usize,
    n_items: usize,
    delta_budget: usize,
    paranoid: bool,
) -> (Arc<NodeDurability>, Replica) {
    // `open_with` journals policy + delta budget into the WAL header and
    // re-enables the delta cache itself on recovery — the arguments here
    // are only the fresh-start defaults.
    let (durability, mut replica, _report) =
        NodeDurability::open_with(cfg, id, n_nodes, n_items, ConflictPolicy::Report, delta_budget)
            .expect("durable: recovery failed");
    replica.set_paranoid(paranoid);
    durability.attach(&mut replica);
    (durability, replica)
}

/// The probe-pacing policy shared by every runtime's `quiesce`: probes
/// start near the gossip interval and decay exponentially (with the
/// standard deterministic jitter) toward a 50 ms cap — converging
/// clusters are checked often early, idle ones rarely.
pub(crate) fn quiesce_policy(gossip_interval: Duration) -> RetryPolicy {
    RetryPolicy {
        max_attempts: u32::MAX,
        base_backoff: gossip_interval.min(Duration::from_millis(1)).max(Duration::from_micros(100)),
        max_backoff: Duration::from_millis(50),
        round_deadline: None,
        jitter_seed: 0,
    }
}

/// The channel transport: an exchange sends a [`NetMessage::Request`] to
/// the peer's server thread and blocks on a fresh reply channel, like an
/// RPC over a connected socket.
pub(crate) struct ChannelTransport<'a> {
    pub(crate) peer: NodeId,
    pub(crate) sender: &'a Sender<NetMessage>,
    pub(crate) timeout: Duration,
}

impl Transport for ChannelTransport<'_> {
    fn peer(&self) -> NodeId {
        self.peer
    }

    fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
        let (tx, rx) = unbounded();
        self.sender
            .send(NetMessage::Request { req, reply: tx })
            .map_err(|_| Error::Network(format!("node {} is gone", self.peer)))?;
        match rx.recv_timeout(self.timeout) {
            Ok(result) => result,
            Err(_) => Err(Error::Network(format!("no response from {}", self.peer))),
        }
    }
}

/// A running cluster of replica threads.
pub struct ThreadedCluster {
    nodes: Vec<Arc<NodeShared>>,
    senders: Vec<Sender<NetMessage>>,
    running: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    config: ClusterConfig,
}

impl ThreadedCluster {
    /// Spawn `n_nodes` replica threads over an `n_items` database.
    pub fn spawn(n_nodes: usize, n_items: usize, config: ClusterConfig) -> ThreadedCluster {
        assert!(n_nodes >= 2, "a cluster needs at least two nodes");
        let nodes: Vec<Arc<NodeShared>> = (0..n_nodes)
            .map(|i| {
                let id = NodeId::from_index(i);
                let (durability, mut replica) = match &config.durability {
                    Some(cfg) => {
                        let (d, r) = open_durable_node(
                            cfg,
                            id,
                            n_nodes,
                            n_items,
                            config.delta_budget,
                            config.paranoid,
                        );
                        (Some(d), r)
                    }
                    None => {
                        let mut replica = Replica::new(id, n_nodes, n_items);
                        if config.delta_budget > 0 {
                            replica.enable_delta(config.delta_budget);
                        }
                        replica.set_paranoid(config.paranoid);
                        (None, replica)
                    }
                };
                replica.set_delta_frame_budget(config.delta_frame_bytes);
                Arc::new(NodeShared {
                    replica: Mutex::new(replica),
                    alive: AtomicBool::new(true),
                    durability: Mutex::new(durability),
                })
            })
            .collect();
        let channels: Vec<(Sender<NetMessage>, Receiver<NetMessage>)> =
            (0..n_nodes).map(|_| unbounded()).collect();
        let senders: Vec<Sender<NetMessage>> = channels.iter().map(|(s, _)| s.clone()).collect();
        let running = Arc::new(AtomicBool::new(true));

        let mut handles = Vec::with_capacity(2 * n_nodes);
        for (i, (_, rx)) in channels.into_iter().enumerate() {
            let shared = nodes[i].clone();
            handles.push(std::thread::spawn(move || serve_loop(shared, rx)));

            let me = NodeId::from_index(i);
            let shared = nodes[i].clone();
            let peers = senders.clone();
            let run = running.clone();
            let cfg = config.clone();
            // The initiator side: periodically pull from a random peer.
            handles.push(std::thread::spawn(move || {
                let connect = |peer: NodeId| ChannelTransport {
                    peer,
                    sender: &peers[peer.index()],
                    timeout: cfg.exchange_timeout,
                };
                let gossiped = Gossiped::Replica {
                    replica: &shared.replica,
                    after_pull: &|| shared.after_mutation(),
                };
                gossip_loop(me, peers.len(), cfg.gossip(), &run, &shared.alive, gossiped, connect)
            }));
        }
        ThreadedCluster { nodes, senders, running, handles, config }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Apply a user update at `node` (serviced by that single server, §2).
    pub fn update(&self, node: NodeId, item: ItemId, op: UpdateOp) -> Result<()> {
        let shared = self.nodes.get(node.index()).ok_or(Error::UnknownNode(node))?;
        if !shared.alive.load(Ordering::SeqCst) {
            return Err(Error::NodeDown(node));
        }
        shared.replica.lock().update(item, op)?;
        shared.after_mutation();
        Ok(())
    }

    /// Read the user-visible value of `item` at `node`. With durability
    /// on, a crashed node's in-memory replica has been dropped, so reading
    /// it is an error rather than a stale answer.
    pub fn read(&self, node: NodeId, item: ItemId) -> Result<Vec<u8>> {
        let shared = self.nodes.get(node.index()).ok_or(Error::UnknownNode(node))?;
        if self.config.durability.is_some() && !shared.alive.load(Ordering::SeqCst) {
            return Err(Error::NodeDown(node));
        }
        Ok(shared.replica.lock().read(item)?.as_bytes().to_vec())
    }

    fn checked(&self, node: NodeId) -> Result<&Arc<NodeShared>> {
        let shared = self.nodes.get(node.index()).ok_or(Error::UnknownNode(node))?;
        if !shared.alive.load(Ordering::SeqCst) {
            return Err(Error::NodeDown(node));
        }
        Ok(shared)
    }

    /// A fault-free transport to `source`'s server thread.
    fn transport(&self, source: NodeId) -> ChannelTransport<'_> {
        ChannelTransport {
            peer: source,
            sender: &self.senders[source.index()],
            timeout: self.config.exchange_timeout.max(Duration::from_secs(1)),
        }
    }

    /// Synchronous out-of-bound fetch: `recipient` obtains `source`'s
    /// newest copy of `item` right now (the on-demand RPC of §5.2),
    /// through the engine like every other exchange.
    pub fn oob_fetch(&self, recipient: NodeId, source: NodeId, item: ItemId) -> Result<OobOutcome> {
        if recipient == source {
            return Ok(OobOutcome::AlreadyCurrent);
        }
        self.checked(source)?;
        let shared = self.checked(recipient)?;
        let out = Engine::oob(&mut MutexHost(&shared.replica), &mut self.transport(source), item)?;
        shared.after_mutation();
        Ok(out)
    }

    /// Run one whole-item pull right now (`recipient` from `source`),
    /// bypassing the gossip schedule — deterministic schedules for tests.
    pub fn pull_now(&self, recipient: NodeId, source: NodeId) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let shared = self.checked(recipient)?;
        let out = Engine::pull(&mut MutexHost(&shared.replica), &mut self.transport(source))?;
        shared.after_mutation();
        Ok(out)
    }

    /// As [`pull_now`](Self::pull_now), in delta mode.
    pub fn pull_delta_now(&self, recipient: NodeId, source: NodeId) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let shared = self.checked(recipient)?;
        let out = Engine::pull_delta(&mut MutexHost(&shared.replica), &mut self.transport(source))?;
        shared.after_mutation();
        Ok(out)
    }

    /// As [`pull_now`](Self::pull_now), via digest-tree set
    /// reconciliation — the cold-start rung below whole-pull.
    pub fn pull_recon_now(&self, recipient: NodeId, source: NodeId) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let shared = self.checked(recipient)?;
        let out = Engine::pull_recon(&mut MutexHost(&shared.replica), &mut self.transport(source))?;
        shared.after_mutation();
        Ok(out)
    }

    /// Bound log-vector retention at `node` to `keep` records per
    /// (origin, item) component.
    pub fn set_log_retention(&self, node: NodeId, keep: usize) -> Result<()> {
        let shared = self.checked(node)?;
        shared.replica.lock().set_log_retention(keep);
        shared.after_mutation();
        Ok(())
    }

    /// One whole-item pull through a caller-owned [`ChaosLink`] with a
    /// retry policy — the chaos-soak entry point: the harness owns one
    /// persistent link per (recipient, source) pair, so the fault process
    /// is continuous and seed-deterministic across rounds.
    pub fn pull_now_chaos(
        &self,
        recipient: NodeId,
        source: NodeId,
        link: &mut ChaosLink,
        policy: &RetryPolicy,
    ) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let shared = self.checked(recipient)?;
        let mut transport = ChaosTransport::new(self.transport(source), link);
        let out = Engine::pull_with(&mut MutexHost(&shared.replica), &mut transport, policy)?;
        shared.after_mutation();
        Ok(out)
    }

    /// As [`pull_now_chaos`](Self::pull_now_chaos), in delta mode (with
    /// the engine's delta-to-whole degradation ladder on retryable
    /// failures).
    pub fn pull_delta_now_chaos(
        &self,
        recipient: NodeId,
        source: NodeId,
        link: &mut ChaosLink,
        policy: &RetryPolicy,
    ) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let shared = self.checked(recipient)?;
        let mut transport = ChaosTransport::new(self.transport(source), link);
        let out = Engine::pull_delta_with(&mut MutexHost(&shared.replica), &mut transport, policy)?;
        shared.after_mutation();
        Ok(out)
    }

    /// Crash a node: it drops all traffic and initiates nothing until
    /// revived.
    ///
    /// With durability configured this is a real crash: the in-memory
    /// [`Replica`] is dropped (replaced by an empty placeholder with no
    /// journal attached) and the WAL handle closed — only the on-disk
    /// state survives, exactly as a dead server's disk would. Without
    /// durability, the replica stays in memory (the legacy simulation).
    pub fn crash(&self, node: NodeId) {
        let shared = &self.nodes[node.index()];
        shared.alive.store(false, Ordering::SeqCst);
        if self.config.durability.is_some() {
            let placeholder =
                Replica::new(node, self.n_nodes(), self.with_replica(node, Replica::n_items));
            *shared.replica.lock() = placeholder;
            *shared.durability.lock() = None;
        }
    }

    /// Revive a crashed node; with durability configured, the replica is
    /// first reconstructed from its on-disk snapshot + WAL, then
    /// anti-entropy brings it the rest of the way up to date.
    pub fn revive(&self, node: NodeId) {
        let shared = &self.nodes[node.index()];
        if let Some(cfg) = &self.config.durability {
            let (durability, mut replica) = open_durable_node(
                cfg,
                node,
                self.n_nodes(),
                self.with_replica(node, Replica::n_items),
                self.config.delta_budget,
                self.config.paranoid,
            );
            replica.set_delta_frame_budget(self.config.delta_frame_bytes);
            *shared.replica.lock() = replica;
            *shared.durability.lock() = Some(durability);
        }
        shared.alive.store(true, Ordering::SeqCst);
    }

    /// Run a closure over a locked replica (inspection).
    pub fn with_replica<T>(&self, node: NodeId, f: impl FnOnce(&Replica) -> T) -> T {
        f(&self.nodes[node.index()].replica.lock())
    }

    /// Wait until all *alive* replicas have identical DBVVs and no
    /// auxiliary state (identical databases, by the paper's Theorem 3
    /// corollary), or the deadline passes. Returns whether quiescence was
    /// reached; see [`ThreadedCluster::try_quiesce`] for the typed form.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.try_quiesce(timeout).is_ok()
    }

    /// As [`ThreadedCluster::quiesce`], surfacing a timeout as the typed
    /// [`Error::DeadlineExceeded`]. Probe pacing follows the shared
    /// [`RetryPolicy`] backoff (exponential from the gossip interval,
    /// deterministically jittered, capped).
    pub fn try_quiesce(&self, timeout: Duration) -> Result<()> {
        quiesce_policy(self.config.gossip_interval)
            .poll_until("quiescence", timeout, || self.is_quiescent())
    }

    fn is_quiescent(&self) -> bool {
        let alive: Vec<&Arc<NodeShared>> =
            self.nodes.iter().filter(|n| n.alive.load(Ordering::SeqCst)).collect();
        if alive.len() < 2 {
            return true;
        }
        let first = alive[0].replica.lock();
        let reference = first.dbvv().clone();
        if first.aux_item_count() > 0 {
            return false;
        }
        drop(first);
        alive[1..].iter().all(|n| {
            let r = n.replica.lock();
            r.aux_item_count() == 0 && r.dbvv().compare(&reference) == VvOrd::Equal
        })
    }

    /// Stop all threads and return the final replicas (journal sinks
    /// detached — the clones are for inspection, not for appending to the
    /// cluster's WALs).
    pub fn shutdown(mut self) -> Vec<Replica> {
        self.stop();
        self.nodes
            .iter()
            .map(|n| {
                let mut r = n.replica.lock().clone();
                r.set_mutation_sink(None);
                r
            })
            .collect()
    }

    fn stop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        for s in &self.senders {
            let _ = s.send(NetMessage::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ThreadedCluster {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The server side of a node: execute every incoming request through the
/// engine. A crashed node silently drops requests (the initiator times
/// out), like a dead host on a real network.
fn serve_loop(shared: Arc<NodeShared>, rx: Receiver<NetMessage>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            NetMessage::Shutdown => return,
            NetMessage::Request { req, reply } => {
                if !shared.alive.load(Ordering::SeqCst) {
                    continue;
                }
                let result = Engine::handle(&mut shared.replica.lock(), req);
                let _ = reply.send(result);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> ClusterConfig {
        ClusterConfig { gossip_interval: Duration::from_millis(1), ..ClusterConfig::default() }
    }

    #[test]
    fn updates_spread_to_all_nodes() {
        let cluster = ThreadedCluster::spawn(4, 50, fast_config());
        for i in 0..10u32 {
            cluster
                .update(NodeId((i % 4) as u16), ItemId(i), UpdateOp::set(vec![i as u8]))
                .unwrap();
        }
        assert!(cluster.quiesce(Duration::from_secs(20)), "did not quiesce");
        for i in 0..10u32 {
            for node in 0..4u16 {
                assert_eq!(cluster.read(NodeId(node), ItemId(i)).unwrap(), vec![i as u8]);
            }
        }
        let replicas = cluster.shutdown();
        for r in &replicas {
            r.check_invariants().unwrap();
            assert_eq!(r.costs().conflicts_detected, 0);
        }
    }

    #[test]
    fn survives_message_loss() {
        let cluster = ThreadedCluster::spawn(
            3,
            20,
            ClusterConfig {
                gossip_interval: Duration::from_millis(1),
                loss_probability: 0.3,
                ..ClusterConfig::default()
            },
        );
        cluster.update(NodeId(0), ItemId(3), UpdateOp::set(&b"lossy"[..])).unwrap();
        assert!(cluster.quiesce(Duration::from_secs(30)), "did not converge under loss");
        assert_eq!(cluster.read(NodeId(2), ItemId(3)).unwrap(), b"lossy");
        cluster.shutdown();
    }

    #[test]
    fn crashed_node_catches_up_after_revival() {
        // Durable mode: crash() really drops the in-memory replica and
        // revive() reconstructs it from disk before anti-entropy resumes.
        let tmp = epidb_durable::testdir::TempDir::new("threaded-crash");
        let cluster = ThreadedCluster::spawn(
            3,
            20,
            ClusterConfig {
                gossip_interval: Duration::from_millis(1),
                durability: Some(DurabilityConfig::new(tmp.path().clone())),
                ..ClusterConfig::default()
            },
        );
        cluster.update(NodeId(2), ItemId(5), UpdateOp::set(&b"pre-crash"[..])).unwrap();
        assert!(cluster.quiesce(Duration::from_secs(20)));
        cluster.crash(NodeId(2));
        assert!(matches!(
            cluster.update(NodeId(2), ItemId(0), UpdateOp::set(&b"x"[..])),
            Err(Error::NodeDown(NodeId(2)))
        ));
        // The in-memory replica is gone: reads fail rather than serving a
        // placeholder.
        assert!(matches!(cluster.read(NodeId(2), ItemId(5)), Err(Error::NodeDown(NodeId(2)))));
        cluster.update(NodeId(0), ItemId(0), UpdateOp::set(&b"while-down"[..])).unwrap();
        assert!(cluster.quiesce(Duration::from_secs(20)));
        cluster.revive(NodeId(2));
        assert!(cluster.quiesce(Duration::from_secs(20)));
        // Recovered from its own WAL...
        assert_eq!(cluster.read(NodeId(2), ItemId(5)).unwrap(), b"pre-crash");
        // ...and caught up on what it missed via anti-entropy.
        assert_eq!(cluster.read(NodeId(2), ItemId(0)).unwrap(), b"while-down");
        let replicas = cluster.shutdown();
        for r in &replicas {
            r.check_invariants().unwrap();
        }
    }

    #[test]
    fn crashed_node_stays_stale_without_durability() {
        // Legacy simulation: the replica survives the crash in memory.
        let cluster = ThreadedCluster::spawn(3, 20, fast_config());
        cluster.crash(NodeId(2));
        cluster.update(NodeId(0), ItemId(0), UpdateOp::set(&b"while-down"[..])).unwrap();
        assert!(cluster.quiesce(Duration::from_secs(20)));
        // The crashed node is excluded from quiescence and still stale.
        assert_eq!(cluster.read(NodeId(2), ItemId(0)).unwrap(), b"");
        cluster.revive(NodeId(2));
        assert!(cluster.quiesce(Duration::from_secs(20)));
        assert_eq!(cluster.read(NodeId(2), ItemId(0)).unwrap(), b"while-down");
        cluster.shutdown();
    }

    #[test]
    fn durable_revive_restores_state_from_disk_alone() {
        // Gossip effectively disabled: after the crash nothing can refill
        // node 0 except its own disk.
        let tmp = epidb_durable::testdir::TempDir::new("threaded-disk-only");
        let cluster = ThreadedCluster::spawn(
            2,
            10,
            ClusterConfig {
                gossip_interval: Duration::from_secs(3600),
                durability: Some(DurabilityConfig::new(tmp.path().clone())),
                ..ClusterConfig::default()
            },
        );
        for i in 0..4u32 {
            cluster.update(NodeId(0), ItemId(i), UpdateOp::set(vec![i as u8; 32])).unwrap();
        }
        cluster.crash(NodeId(0));
        cluster.revive(NodeId(0));
        for i in 0..4u32 {
            assert_eq!(cluster.read(NodeId(0), ItemId(i)).unwrap(), vec![i as u8; 32]);
        }
        cluster.with_replica(NodeId(0), |r| r.check_invariants().unwrap());
        cluster.shutdown();
    }

    #[test]
    fn oob_fetch_works_live() {
        let cluster = ThreadedCluster::spawn(
            2,
            10,
            ClusterConfig {
                // Slow gossip so the OOB fetch happens before anti-entropy.
                gossip_interval: Duration::from_secs(60),
                ..ClusterConfig::default()
            },
        );
        cluster.update(NodeId(0), ItemId(1), UpdateOp::set(&b"urgent"[..])).unwrap();
        let out = cluster.oob_fetch(NodeId(1), NodeId(0), ItemId(1)).unwrap();
        assert_eq!(out, OobOutcome::Adopted { from_aux: false });
        assert_eq!(cluster.read(NodeId(1), ItemId(1)).unwrap(), b"urgent");
        // Regular copy still old — it's an auxiliary copy.
        cluster.with_replica(NodeId(1), |r| {
            assert_eq!(r.aux_item_count(), 1);
            assert_eq!(r.read_regular(ItemId(1)).unwrap().as_bytes(), b"");
        });
        cluster.shutdown();
    }

    #[test]
    fn delta_gossip_converges() {
        let cluster = ThreadedCluster::spawn(
            3,
            20,
            ClusterConfig {
                gossip_interval: Duration::from_millis(1),
                delta_budget: 1 << 20,
                paranoid: true,
                ..ClusterConfig::default()
            },
        );
        for i in 0..6u32 {
            cluster
                .update(NodeId((i % 3) as u16), ItemId(i), UpdateOp::set(vec![i as u8; 64]))
                .unwrap();
        }
        assert!(cluster.quiesce(Duration::from_secs(20)), "no quiescence in delta mode");
        let replicas = cluster.shutdown();
        for r in &replicas {
            r.check_invariants().unwrap();
            assert!(r.audits_run() > 0, "paranoid audits should have run");
        }
    }

    #[test]
    fn coalesced_delta_gossip_converges() {
        // Tight budgets on both ends of every gossip link: 2 wants per
        // fetch frame, 64-byte responder payload budget — same converged
        // state, just more (smaller) frames per round.
        let cluster = ThreadedCluster::spawn(
            3,
            20,
            ClusterConfig {
                gossip_interval: Duration::from_millis(1),
                delta_budget: 1 << 20,
                paranoid: true,
                max_frame_items: 2,
                delta_frame_bytes: 64,
                ..ClusterConfig::default()
            },
        );
        for i in 0..10u32 {
            cluster
                .update(NodeId((i % 3) as u16), ItemId(i), UpdateOp::set(vec![i as u8; 48]))
                .unwrap();
        }
        assert!(cluster.quiesce(Duration::from_secs(20)), "no quiescence with tight budgets");
        for i in 0..10u32 {
            for node in 0..3u16 {
                assert_eq!(cluster.read(NodeId(node), ItemId(i)).unwrap(), vec![i as u8; 48]);
            }
        }
        let replicas = cluster.shutdown();
        for r in &replicas {
            r.check_invariants().unwrap();
        }
    }

    #[test]
    fn explicit_pulls_without_gossip() {
        let cluster = ThreadedCluster::spawn(
            2,
            10,
            ClusterConfig { gossip_interval: Duration::from_secs(60), ..Default::default() },
        );
        cluster.update(NodeId(0), ItemId(2), UpdateOp::set(&b"v"[..])).unwrap();
        let out = cluster.pull_now(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(out.copied(), &[ItemId(2)]);
        assert!(matches!(cluster.pull_now(NodeId(1), NodeId(0)).unwrap(), PullOutcome::UpToDate));
        cluster.shutdown();
    }
}
