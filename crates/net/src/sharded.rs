//! Live runtimes for *sharded* deployments: the per-shard protocol of
//! [`epidb_core::shard`] over the same two fabrics the unsharded runtimes
//! use — crossbeam channels ([`ShardedThreadedCluster`]) and framed
//! localhost sockets ([`ShardedTcpCluster`]).
//!
//! Each node runs one server loop executing
//! [`Engine::handle_sharded`] (so every incoming exchange routes through
//! the shard map: unowned shards refuse with the typed, non-retryable
//! [`Error::NotServedHere`], mid-handoff shards with the retryable
//! [`Error::ShardMoving`]) and one gossip loop that iterates its *owned*
//! shards each tick, pulling every shard from a random co-owner in that
//! shard's replica group. A node therefore pays gossip costs only for the
//! shards it owns — the partial-replication property the shard map
//! exists to provide — and each shard converges within its group by the
//! ordinary §2.1 anti-entropy argument, independently of every other
//! shard.
//!
//! Over channels the typed refusals travel natively (the reply channel
//! carries `Result<ProtocolResponse>`); over TCP they ride in-band as
//! [`ProtocolResponse::Refused`](epidb_core::ProtocolResponse::Refused)
//! frames and are re-raised by the transport — either way the initiator
//! observes the same [`Error`] with the same retryability.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use epidb_common::{Costs, Error, ItemId, NodeId, Result, ShardId};
use epidb_core::codec::{decode_request_checked, encode_response_to, Writer};
use epidb_core::{
    ChaosLink, ChaosTransport, ConflictPolicy, Engine, FaultPlan, PullOutcome, Replica,
    ReplicaHost, RetryPolicy, ShardMap, ShardTransport, ShardedNode, ShardedOob,
};
use epidb_store::UpdateOp;
use epidb_vv::VvOrd;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::Rng;

use crate::gossip::{gossip_loop, GossipConfig, Gossiped, CHANNEL_RNG_SALT, TCP_RNG_SALT};
use crate::message::NetMessage;
use crate::runtime::ChannelTransport;
use crate::tcp::{
    connector, read_frame_into, refusal_or_error, send_response, tune, TcpSocketOptions,
    TcpTransport,
};

/// Tuning and fault-injection knobs shared by both sharded runtimes.
/// (The channel runtime ignores `socket`; the TCP runtime ignores
/// `exchange_timeout`.)
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// How often each node walks its owned shards and pulls each from a
    /// random co-owner.
    pub gossip_interval: Duration,
    /// Seed for peer selection and per-link chaos.
    pub seed: u64,
    /// Op-cache budget per shard replica; when non-zero, gossip runs in
    /// delta mode.
    pub delta_budget: usize,
    /// Run every shard replica in paranoid mode (per-step §2.1 audits).
    pub paranoid: bool,
    /// Full fault mix for gossip links (`None` = clean links).
    pub fault_plan: Option<FaultPlan>,
    /// Retry policy the gossip loop applies within each anti-entropy
    /// round (between rounds, the next tick is the retry).
    pub retry: RetryPolicy,
    /// How long a channel exchange waits for the peer's reply.
    pub exchange_timeout: Duration,
    /// Socket timeouts and connect retry schedule (TCP runtime).
    pub socket: TcpSocketOptions,
    /// Maximum wanted items per `DeltaFetch` frame in delta gossip rounds.
    pub max_frame_items: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            gossip_interval: Duration::from_millis(5),
            seed: 0x5AAD,
            delta_budget: 0,
            paranoid: false,
            fault_plan: None,
            retry: RetryPolicy::none(),
            exchange_timeout: Duration::from_millis(500),
            socket: TcpSocketOptions::default(),
            max_frame_items: usize::MAX,
        }
    }
}

impl ShardedConfig {
    fn gossip(&self, rng_salt: u64) -> GossipConfig {
        GossipConfig {
            interval: self.gossip_interval,
            seed: self.seed,
            rng_salt,
            plan: self.fault_plan.clone().unwrap_or(FaultPlan::lossy(0.0)),
            retry: self.retry.clone(),
            delta: self.delta_budget > 0,
            max_frame_items: self.max_frame_items,
        }
    }
}

/// Build one node of a sharded deployment, configured per the cluster
/// knobs.
fn build_node(id: NodeId, n_nodes: usize, map: &ShardMap, cfg: &ShardedConfig) -> ShardedNode {
    let mut node = ShardedNode::new(id, n_nodes, map.clone(), ConflictPolicy::Report);
    if cfg.delta_budget > 0 {
        node.enable_delta(cfg.delta_budget);
    }
    node.set_paranoid(cfg.paranoid);
    node
}

/// A [`ReplicaHost`] projecting one owned shard out of a locked
/// [`ShardedNode`]: the lock is taken per engine callback, never across a
/// network exchange (the same discipline as
/// [`MutexHost`](crate::transport::MutexHost)).
pub(crate) struct ShardHost<'a> {
    pub(crate) node: &'a Mutex<ShardedNode>,
    pub(crate) shard: ShardId,
}

impl ReplicaHost for ShardHost<'_> {
    fn with<R>(&mut self, f: impl FnOnce(&mut Replica) -> R) -> R {
        let mut node = self.node.lock();
        f(node.shard_state_mut(self.shard).expect("gossip runs on owned shards"))
    }
}

/// Wait until, for every shard, all alive owners hold equal shard DBVVs
/// and no auxiliary state — the sharded quiescence criterion. Shared by
/// both runtimes via a probe closure.
fn quiesce_with(
    map: &ShardMap,
    gossip_interval: Duration,
    timeout: Duration,
    probe: impl Fn(NodeId, ShardId) -> Option<(epidb_vv::DbVersionVector, usize)>,
) -> bool {
    // Probe pacing via the shared RetryPolicy backoff; the bool form keeps
    // both sharded runtimes' public `quiesce` signatures.
    crate::runtime::quiesce_policy(gossip_interval)
        .poll_until("sharded quiescence", timeout, || {
            ShardId::all(map.n_shards()).all(|shard| {
                let states: Vec<_> =
                    map.owners(shard).iter().filter_map(|&n| probe(n, shard)).collect();
                match states.split_first() {
                    None => true, // every owner crashed: nothing to compare
                    Some(((reference, aux0), rest)) => {
                        *aux0 == 0
                            && rest
                                .iter()
                                .all(|(vv, aux)| *aux == 0 && vv.compare(reference) == VvOrd::Equal)
                    }
                }
            })
        })
        .is_ok()
}

// ---------------------------------------------------------------------------
// Channel runtime
// ---------------------------------------------------------------------------

struct ShardedShared {
    node: Mutex<ShardedNode>,
    alive: AtomicBool,
    /// Counts crashes. A TCP serve thread serves the incarnation that
    /// accepted its connection and no later one.
    incarnation: AtomicU64,
}

impl ShardedShared {
    fn new(node: ShardedNode) -> ShardedShared {
        ShardedShared {
            node: Mutex::new(node),
            alive: AtomicBool::new(true),
            incarnation: AtomicU64::new(0),
        }
    }
}

/// A sharded cluster over crossbeam channels: one server thread and one
/// gossip thread per node, as in [`ThreadedCluster`](crate::ThreadedCluster),
/// but each node serves and gossips only the shards its map entry assigns
/// to it.
pub struct ShardedThreadedCluster {
    nodes: Vec<Arc<ShardedShared>>,
    senders: Vec<Sender<NetMessage>>,
    running: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    map: ShardMap,
    config: ShardedConfig,
}

impl ShardedThreadedCluster {
    /// Spawn `n_nodes` sharded node threads placed by `map`.
    pub fn spawn(map: ShardMap, n_nodes: usize, config: ShardedConfig) -> ShardedThreadedCluster {
        assert!(n_nodes >= 2, "a cluster needs at least two nodes");
        let running = Arc::new(AtomicBool::new(true));
        let nodes: Vec<Arc<ShardedShared>> = (0..n_nodes)
            .map(|i| {
                Arc::new(ShardedShared::new(build_node(
                    NodeId::from_index(i),
                    n_nodes,
                    &map,
                    &config,
                )))
            })
            .collect();
        let channels: Vec<(Sender<NetMessage>, Receiver<NetMessage>)> =
            (0..n_nodes).map(|_| unbounded()).collect();
        let senders: Vec<Sender<NetMessage>> = channels.iter().map(|(s, _)| s.clone()).collect();
        let mut handles = Vec::new();
        for (i, (_, rx)) in channels.into_iter().enumerate() {
            let shared = nodes[i].clone();
            handles.push(std::thread::spawn(move || serve_loop_sharded(shared, rx)));
            let shared = nodes[i].clone();
            let run = running.clone();
            let peer_senders = senders.clone();
            let me = NodeId::from_index(i);
            let cfg = config.clone();
            handles.push(std::thread::spawn(move || {
                let connect = |peer: NodeId| ChannelTransport {
                    peer,
                    sender: &peer_senders[peer.index()],
                    timeout: cfg.exchange_timeout,
                };
                let gossip = cfg.gossip(CHANNEL_RNG_SALT);
                let gossiped = Gossiped::Shards(&shared.node);
                gossip_loop(me, n_nodes, gossip, &run, &shared.alive, gossiped, connect)
            }));
        }
        ShardedThreadedCluster { nodes, senders, running, handles, map, config }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The placement map the cluster was spawned with.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    fn checked(&self, node: NodeId) -> Result<&Arc<ShardedShared>> {
        let n = self.nodes.get(node.index()).ok_or(Error::UnknownNode(node))?;
        if !n.alive.load(Ordering::SeqCst) {
            return Err(Error::NodeDown(node));
        }
        Ok(n)
    }

    /// Apply a user update at `node` (globally addressed item, routed
    /// through the node's shard map).
    pub fn update(&self, node: NodeId, item: ItemId, op: UpdateOp) -> Result<()> {
        self.checked(node)?.node.lock().update(item, op)
    }

    /// Read the user-visible value at `node`.
    pub fn read(&self, node: NodeId, item: ItemId) -> Result<Vec<u8>> {
        Ok(self.checked(node)?.node.lock().read(item)?.as_bytes().to_vec())
    }

    /// Run a closure over a locked node — inspection for tests and
    /// harnesses (costs, invariants, owned shards).
    pub fn with_node<T>(&self, node: NodeId, f: impl FnOnce(&ShardedNode) -> T) -> T {
        f(&self.nodes[node.index()].node.lock())
    }

    /// A node's cumulative costs: the sum over its owned shards plus its
    /// cross-group meta-costs.
    pub fn node_costs(&self, node: NodeId) -> Costs {
        self.with_node(node, ShardedNode::costs)
    }

    /// One whole pull of `shard` right now (`recipient` from `source`),
    /// bypassing the gossip schedule — deterministic schedules for tests.
    pub fn pull_shard_now(
        &self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
    ) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let node = self.checked(recipient)?;
        let mut channel = ChannelTransport {
            peer: source,
            sender: &self.senders[source.index()],
            timeout: self.config.exchange_timeout,
        };
        let mut transport = ShardTransport::new(&mut channel, shard);
        let mut host = ShardHost { node: &node.node, shard };
        Engine::pull(&mut host, &mut transport)
    }

    /// As [`pull_shard_now`](Self::pull_shard_now), in delta mode.
    pub fn pull_delta_shard_now(
        &self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
    ) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let node = self.checked(recipient)?;
        let mut channel = ChannelTransport {
            peer: source,
            sender: &self.senders[source.index()],
            timeout: self.config.exchange_timeout,
        };
        let mut transport = ShardTransport::new(&mut channel, shard);
        let mut host = ShardHost { node: &node.node, shard };
        Engine::pull_delta(&mut host, &mut transport)
    }

    /// As [`pull_shard_now`](Self::pull_shard_now), via digest-tree set
    /// reconciliation — the cold-start rung below whole-pull.
    pub fn pull_recon_shard_now(
        &self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
    ) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let node = self.checked(recipient)?;
        let mut channel = ChannelTransport {
            peer: source,
            sender: &self.senders[source.index()],
            timeout: self.config.exchange_timeout,
        };
        let mut transport = ShardTransport::new(&mut channel, shard);
        let mut host = ShardHost { node: &node.node, shard };
        Engine::pull_recon(&mut host, &mut transport)
    }

    /// Bound log retention to `keep` records per component on every shard
    /// `node` owns.
    pub fn set_log_retention(&self, node: NodeId, keep: usize) -> Result<()> {
        let node = self.checked(node)?;
        node.node.lock().set_log_retention(keep);
        Ok(())
    }

    /// One whole pull of `shard` through a caller-owned [`ChaosLink`] —
    /// the chaos-soak entry point.
    pub fn pull_shard_now_chaos(
        &self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
        link: &mut ChaosLink,
        policy: &RetryPolicy,
    ) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let node = self.checked(recipient)?;
        let channel = ChannelTransport {
            peer: source,
            sender: &self.senders[source.index()],
            timeout: self.config.exchange_timeout,
        };
        let mut chaos = ChaosTransport::new(channel, link);
        let mut transport = ShardTransport::new(&mut chaos, shard);
        let mut host = ShardHost { node: &node.node, shard };
        Engine::pull_with(&mut host, &mut transport, policy)
    }

    /// Resolve an out-of-bound copy of a globally addressed item at
    /// `recipient`, served by `source` — within-group it adopts into the
    /// owned shard (§5.2); cross-group it fetches via the shard map.
    /// Drive from harness threads one exchange at a time: the recipient's
    /// node lock is held across the exchange.
    pub fn oob_fetch(&self, recipient: NodeId, source: NodeId, item: ItemId) -> Result<ShardedOob> {
        assert_ne!(recipient, source, "a node cannot fetch from itself");
        self.checked(source)?;
        let node = self.checked(recipient)?;
        let mut transport = ChannelTransport {
            peer: source,
            sender: &self.senders[source.index()],
            timeout: self.config.exchange_timeout,
        };
        Engine::oob_sharded(&mut node.node.lock(), &mut transport, item)
    }

    /// Crash a node: it silently drops requests and stops gossiping (the
    /// in-memory state survives, as in the undurable runtimes).
    pub fn crash(&self, node: NodeId) {
        self.nodes[node.index()].alive.store(false, Ordering::SeqCst);
    }

    /// Revive a crashed node; anti-entropy brings its shards back up to
    /// date.
    pub fn revive(&self, node: NodeId) {
        self.nodes[node.index()].alive.store(true, Ordering::SeqCst);
    }

    /// Wait until every shard's alive owners hold equal shard DBVVs and
    /// no auxiliary state, or the deadline passes.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        quiesce_with(&self.map, self.config.gossip_interval, timeout, |n, shard| {
            let shared = &self.nodes[n.index()];
            if !shared.alive.load(Ordering::SeqCst) {
                return None;
            }
            let node = shared.node.lock();
            node.shard_state(shard).map(|r| (r.dbvv().clone(), r.aux_item_count()))
        })
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

    /// Stop all threads. Inspect final state with
    /// [`with_node`](Self::with_node) *before* shutting down.
    pub fn shutdown(mut self) {
        self.stop();
    }
}

impl Drop for ShardedThreadedCluster {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The server side of a sharded node: every incoming request routes
/// through [`Engine::handle_sharded`]. A crashed node silently drops
/// requests (the initiator times out).
fn serve_loop_sharded(shared: Arc<ShardedShared>, rx: Receiver<NetMessage>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            NetMessage::Shutdown => return,
            NetMessage::Request { req, reply } => {
                if !shared.alive.load(Ordering::SeqCst) {
                    continue;
                }
                let result = Engine::handle_sharded(&mut shared.node.lock(), req);
                let _ = reply.send(result);
            }
        }
    }
}

/// One tick's gossip plan for `me`: for each owned, non-moving shard,
/// a random co-owner from that shard's replica group (per the node's
/// *current* map copy, so a reassignment redirects gossip immediately).
pub(crate) fn gossip_rounds(
    node: &Mutex<ShardedNode>,
    me: NodeId,
    rng: &mut StdRng,
) -> Vec<(ShardId, NodeId)> {
    let node = node.lock();
    let mut rounds = Vec::new();
    for shard in node.owned_shards() {
        if node.is_moving(shard) {
            continue;
        }
        let peers: Vec<NodeId> =
            node.map().owners(shard).iter().copied().filter(|&p| p != me).collect();
        if peers.is_empty() {
            continue;
        }
        rounds.push((shard, peers[rng.gen_range(0..peers.len())]));
    }
    rounds
}

// ---------------------------------------------------------------------------
// TCP runtime
// ---------------------------------------------------------------------------

/// A sharded cluster over localhost TCP: the same per-owned-shard gossip
/// as [`ShardedThreadedCluster`], with every exchange a CRC-framed
/// request/response pair on a real socket. Typed routing refusals cross
/// the wire as [`ProtocolResponse::Refused`](epidb_core::ProtocolResponse::Refused)
/// frames.
pub struct ShardedTcpCluster {
    nodes: Vec<Arc<ShardedShared>>,
    addrs: Vec<SocketAddr>,
    running: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    map: ShardMap,
    config: ShardedConfig,
}

impl ShardedTcpCluster {
    /// Bind `n_nodes` listeners on localhost and start per-shard gossip.
    pub fn spawn(
        map: ShardMap,
        n_nodes: usize,
        config: ShardedConfig,
    ) -> Result<ShardedTcpCluster> {
        assert!(n_nodes >= 2, "a cluster needs at least two nodes");
        let running = Arc::new(AtomicBool::new(true));
        let nodes: Vec<Arc<ShardedShared>> = (0..n_nodes)
            .map(|i| {
                Arc::new(ShardedShared::new(build_node(
                    NodeId::from_index(i),
                    n_nodes,
                    &map,
                    &config,
                )))
            })
            .collect();
        let listeners: Vec<TcpListener> = (0..n_nodes)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()
            .map_err(|e| Error::Network(format!("bind: {e}")))?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<std::io::Result<_>>()
            .map_err(|e| Error::Network(format!("local_addr: {e}")))?;
        let mut handles = Vec::new();
        for (i, listener) in listeners.into_iter().enumerate() {
            let shared = nodes[i].clone();
            let run = running.clone();
            let socket = config.socket;
            handles.push(std::thread::spawn(move || {
                server_loop_sharded(listener, shared, run, socket)
            }));
            let shared = nodes[i].clone();
            let run = running.clone();
            let peer_addrs = addrs.clone();
            let me = NodeId::from_index(i);
            let cfg = config.clone();
            handles.push(std::thread::spawn(move || {
                let connect = connector(peer_addrs, cfg.socket);
                let gossip = cfg.gossip(TCP_RNG_SALT);
                let gossiped = Gossiped::Shards(&shared.node);
                gossip_loop(me, n_nodes, gossip, &run, &shared.alive, gossiped, connect)
            }));
        }
        Ok(ShardedTcpCluster { nodes, addrs, running, handles, map, config })
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The placement map the cluster was spawned with.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The socket address a node's server listens on.
    pub fn addr(&self, node: NodeId) -> SocketAddr {
        self.addrs[node.index()]
    }

    /// A new [`TcpTransport`] to `peer`'s server, with the cluster's
    /// socket options.
    pub fn transport_to(&self, peer: NodeId) -> TcpTransport {
        TcpTransport::with_options(peer, self.addr(peer), self.config.socket)
    }

    fn checked(&self, node: NodeId) -> Result<&Arc<ShardedShared>> {
        let n = self.nodes.get(node.index()).ok_or(Error::UnknownNode(node))?;
        if !n.alive.load(Ordering::SeqCst) {
            return Err(Error::NodeDown(node));
        }
        Ok(n)
    }

    /// Apply a user update at `node`.
    pub fn update(&self, node: NodeId, item: ItemId, op: UpdateOp) -> Result<()> {
        self.checked(node)?.node.lock().update(item, op)
    }

    /// Read the user-visible value at `node`.
    pub fn read(&self, node: NodeId, item: ItemId) -> Result<Vec<u8>> {
        Ok(self.checked(node)?.node.lock().read(item)?.as_bytes().to_vec())
    }

    /// Run a closure over a locked node.
    pub fn with_node<T>(&self, node: NodeId, f: impl FnOnce(&ShardedNode) -> T) -> T {
        f(&self.nodes[node.index()].node.lock())
    }

    /// A node's cumulative costs (owned shards + cross-group meta).
    pub fn node_costs(&self, node: NodeId) -> Costs {
        self.with_node(node, ShardedNode::costs)
    }

    /// One whole pull of `shard` right now, bypassing the gossip schedule.
    pub fn pull_shard_now(
        &self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
    ) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let node = self.checked(recipient)?;
        let mut tcp = self.transport_to(source);
        let mut transport = ShardTransport::new(&mut tcp, shard);
        let mut host = ShardHost { node: &node.node, shard };
        Engine::pull(&mut host, &mut transport)
    }

    /// As [`pull_shard_now`](Self::pull_shard_now), in delta mode.
    pub fn pull_delta_shard_now(
        &self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
    ) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let node = self.checked(recipient)?;
        let mut tcp = self.transport_to(source);
        let mut transport = ShardTransport::new(&mut tcp, shard);
        let mut host = ShardHost { node: &node.node, shard };
        Engine::pull_delta(&mut host, &mut transport)
    }

    /// As [`pull_shard_now`](Self::pull_shard_now), via digest-tree set
    /// reconciliation — the cold-start rung below whole-pull.
    pub fn pull_recon_shard_now(
        &self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
    ) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let node = self.checked(recipient)?;
        let mut tcp = self.transport_to(source);
        let mut transport = ShardTransport::new(&mut tcp, shard);
        let mut host = ShardHost { node: &node.node, shard };
        Engine::pull_recon(&mut host, &mut transport)
    }

    /// Bound log retention to `keep` records per component on every shard
    /// `node` owns.
    pub fn set_log_retention(&self, node: NodeId, keep: usize) -> Result<()> {
        let node = self.checked(node)?;
        node.node.lock().set_log_retention(keep);
        Ok(())
    }

    /// One whole pull of `shard` through a caller-owned [`ChaosLink`].
    pub fn pull_shard_now_chaos(
        &self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
        link: &mut ChaosLink,
        policy: &RetryPolicy,
    ) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let node = self.checked(recipient)?;
        let mut chaos = ChaosTransport::new(self.transport_to(source), link);
        let mut transport = ShardTransport::new(&mut chaos, shard);
        let mut host = ShardHost { node: &node.node, shard };
        Engine::pull_with(&mut host, &mut transport, policy)
    }

    /// Out-of-bound resolution of a globally addressed item over TCP;
    /// cross-group fetches route via the shard map. Drive from harness
    /// threads one exchange at a time (the recipient's node lock is held
    /// across the exchange).
    pub fn oob_fetch(&self, recipient: NodeId, source: NodeId, item: ItemId) -> Result<ShardedOob> {
        assert_ne!(recipient, source, "a node cannot fetch from itself");
        self.checked(source)?;
        let node = self.checked(recipient)?;
        let mut transport = self.transport_to(source);
        Engine::oob_sharded(&mut node.node.lock(), &mut transport, item)
    }

    /// Crash a node: it refuses connections and stops gossiping, and the
    /// connections it had accepted die with it — each is closed unanswered
    /// at its next frame, also after a revival. The in-memory state
    /// survives for revival.
    pub fn crash(&self, node: NodeId) {
        let n = &self.nodes[node.index()];
        n.alive.store(false, Ordering::SeqCst);
        n.incarnation.fetch_add(1, Ordering::SeqCst);
    }

    /// Revive a crashed node.
    pub fn revive(&self, node: NodeId) {
        self.nodes[node.index()].alive.store(true, Ordering::SeqCst);
    }

    /// Wait until every shard's alive owners hold equal shard DBVVs and
    /// no auxiliary state, or the deadline passes.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        quiesce_with(&self.map, self.config.gossip_interval, timeout, |n, shard| {
            let shared = &self.nodes[n.index()];
            if !shared.alive.load(Ordering::SeqCst) {
                return None;
            }
            let node = shared.node.lock();
            node.shard_state(shard).map(|r| (r.dbvv().clone(), r.aux_item_count()))
        })
    }

    fn stop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        for addr in &self.addrs {
            let _ = TcpStream::connect_timeout(addr, Duration::from_millis(200));
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // As in `TcpCluster::stop`: no gossip thread is left to park a
        // connection, and closing the parked ones ends the serve threads.
        crate::pool::evict(&self.addrs);
    }

    /// Stop all threads. Inspect final state with
    /// [`with_node`](Self::with_node) *before* shutting down.
    pub fn shutdown(mut self) {
        self.stop();
    }
}

impl Drop for ShardedTcpCluster {
    fn drop(&mut self) {
        if self.running.load(Ordering::SeqCst) {
            self.stop();
        }
    }
}

fn server_loop_sharded(
    listener: TcpListener,
    node: Arc<ShardedShared>,
    running: Arc<AtomicBool>,
    socket: TcpSocketOptions,
) {
    while running.load(Ordering::SeqCst) {
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        if !running.load(Ordering::SeqCst) {
            return;
        }
        let node = node.clone();
        let run = running.clone();
        std::thread::spawn(move || serve_conn_sharded(stream, node, run, socket));
    }
}

/// Serve one connection at a sharded node: request frame →
/// [`Engine::handle_sharded`] → response frame, with typed routing
/// refusals emitted in-band as `Refused` frames.
fn serve_conn_sharded(
    mut stream: TcpStream,
    node: Arc<ShardedShared>,
    running: Arc<AtomicBool>,
    socket: TcpSocketOptions,
) {
    let _ = tune(&stream, &socket);
    let born = node.incarnation.load(Ordering::SeqCst);
    let mut body = Vec::new();
    let mut writer = Writer::new();
    loop {
        if !running.load(Ordering::SeqCst) || !node.alive.load(Ordering::SeqCst) {
            return;
        }
        if read_frame_into(&mut stream, &mut body).is_err() {
            return;
        }
        if !node.alive.load(Ordering::SeqCst) || node.incarnation.load(Ordering::SeqCst) != born {
            return; // crashed between frames: silently drop
        }
        let resp = match decode_request_checked(&body) {
            Ok(req) => {
                Engine::handle_sharded(&mut node.node.lock(), req).unwrap_or_else(refusal_or_error)
            }
            Err(e) => epidb_core::ProtocolResponse::Error(format!("bad request: {e}")),
        };
        encode_response_to(&resp, &mut writer);
        if send_response(&mut stream, &mut writer, &mut body).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidb_common::RouteTarget;
    use epidb_core::{ProtocolRequest, Transport};

    /// 4 nodes, 2 groups × 2 nodes, 2 shards × 8 items.
    fn two_group_map() -> ShardMap {
        ShardMap::new(8, vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]])
    }

    fn fast_config() -> ShardedConfig {
        ShardedConfig { gossip_interval: Duration::from_millis(1), ..ShardedConfig::default() }
    }

    fn quiet_config() -> ShardedConfig {
        ShardedConfig { gossip_interval: Duration::from_secs(60), ..ShardedConfig::default() }
    }

    #[test]
    fn sharded_cluster_converges_per_group_over_channels() {
        let cluster = ShardedThreadedCluster::spawn(
            two_group_map(),
            4,
            ShardedConfig { paranoid: true, ..fast_config() },
        );
        // Writes land at an owner of each item's shard.
        cluster.update(NodeId(0), ItemId(1), UpdateOp::set(&b"left"[..])).unwrap();
        cluster.update(NodeId(2), ItemId(9), UpdateOp::set(&b"right"[..])).unwrap();
        assert!(cluster.quiesce(Duration::from_secs(20)), "no sharded quiescence");
        assert_eq!(cluster.read(NodeId(1), ItemId(1)).unwrap(), b"left");
        assert_eq!(cluster.read(NodeId(3), ItemId(9)).unwrap(), b"right");
        // Partial replication: each node holds only its own group's shard
        // and pays costs only there.
        for n in 0..4u16 {
            cluster.with_node(NodeId(n), |node| {
                assert_eq!(node.owned_shards().len(), 1);
                node.check_invariants_clean().unwrap();
                assert!(node.audits_run() > 0, "paranoid audits must run");
            });
        }
        // Cross-group reads redirect with the owning group.
        match cluster.read(NodeId(0), ItemId(9)) {
            Err(Error::NotServedHere { owners, .. }) => {
                assert_eq!(owners, vec![NodeId(2), NodeId(3)]);
            }
            other => panic!("expected redirect, got {other:?}"),
        }
        cluster.shutdown();
    }

    #[test]
    fn sharded_cluster_converges_per_group_over_tcp() {
        let cluster = ShardedTcpCluster::spawn(
            two_group_map(),
            4,
            ShardedConfig { paranoid: true, ..fast_config() },
        )
        .unwrap();
        cluster.update(NodeId(1), ItemId(3), UpdateOp::set(&b"alpha"[..])).unwrap();
        cluster.update(NodeId(3), ItemId(12), UpdateOp::set(&b"beta"[..])).unwrap();
        assert!(cluster.quiesce(Duration::from_secs(30)), "no sharded quiescence over TCP");
        assert_eq!(cluster.read(NodeId(0), ItemId(3)).unwrap(), b"alpha");
        assert_eq!(cluster.read(NodeId(2), ItemId(12)).unwrap(), b"beta");
        for n in 0..4u16 {
            cluster.with_node(NodeId(n), |node| node.check_invariants_clean().unwrap());
        }
        cluster.shutdown();
    }

    #[test]
    fn typed_refusals_survive_the_tcp_wire() {
        let cluster = ShardedTcpCluster::spawn(two_group_map(), 4, quiet_config()).unwrap();
        // Ask node 0 (group {n0, n1}, shard s0) for shard s1.
        let mut transport = cluster.transport_to(NodeId(0));
        let req = ProtocolRequest::Shard {
            shard: ShardId(1),
            req: Box::new(ProtocolRequest::Oob { from: NodeId(2), item: ItemId(0) }),
        };
        match transport.exchange(req) {
            Err(Error::NotServedHere { target, owners }) => {
                assert_eq!(target, RouteTarget::Shard(ShardId(1)));
                assert_eq!(owners, vec![NodeId(2), NodeId(3)]);
            }
            other => panic!("expected a typed redirect over TCP, got {other:?}"),
        }
        // The refusal was never charged at the refusing server.
        assert_eq!(cluster.node_costs(NodeId(0)), Costs::default());
        cluster.shutdown();
    }

    #[test]
    fn the_accepted_end_of_a_sharded_connection_sets_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let accepted = stream.try_clone().unwrap();
            let node = build_node(NodeId(0), 4, &two_group_map(), &quiet_config());
            let running = Arc::new(AtomicBool::new(true));
            // Returns when the initiator closes its end.
            let socket = TcpSocketOptions::default();
            serve_conn_sharded(stream, Arc::new(ShardedShared::new(node)), running, socket);
            accepted
        });
        let mut transport = TcpTransport::new(NodeId(0), addr);
        let req = ProtocolRequest::Oob { from: NodeId(1), item: ItemId(0) };
        transport
            .exchange(ProtocolRequest::Shard { shard: ShardId(0), req: Box::new(req) })
            .unwrap();
        transport.reset();
        let accepted = server.join().unwrap();
        assert!(accepted.nodelay().unwrap(), "the accepted end left Nagle's algorithm on");
    }

    #[test]
    fn cross_group_oob_over_both_fabrics() {
        let threaded = ShardedThreadedCluster::spawn(two_group_map(), 4, quiet_config());
        threaded.update(NodeId(2), ItemId(9), UpdateOp::set(&b"chan"[..])).unwrap();
        match threaded.oob_fetch(NodeId(0), NodeId(2), ItemId(9)).unwrap() {
            ShardedOob::Fetched { value, .. } => assert_eq!(&value[..], b"chan"),
            other => panic!("expected a cross-group fetch, got {other:?}"),
        }
        threaded.shutdown();

        let tcp = ShardedTcpCluster::spawn(two_group_map(), 4, quiet_config()).unwrap();
        tcp.update(NodeId(3), ItemId(10), UpdateOp::set(&b"wire"[..])).unwrap();
        match tcp.oob_fetch(NodeId(1), NodeId(3), ItemId(10)).unwrap() {
            ShardedOob::Fetched { value, .. } => assert_eq!(&value[..], b"wire"),
            other => panic!("expected a cross-group fetch, got {other:?}"),
        }
        tcp.shutdown();
    }

    #[test]
    fn scheduled_shard_pulls_are_deterministic_across_fabrics() {
        // The same fixed schedule on both fabrics charges identical costs
        // — the transport-parity property, at the sharded layer.
        let run = |costs_of: &dyn Fn() -> (Costs, Costs)| costs_of();
        let threaded = {
            let cluster = ShardedThreadedCluster::spawn(two_group_map(), 4, quiet_config());
            cluster.update(NodeId(0), ItemId(1), UpdateOp::set(&b"x"[..])).unwrap();
            cluster.pull_shard_now(NodeId(1), NodeId(0), ShardId(0)).unwrap();
            let out = run(&|| (cluster.node_costs(NodeId(0)), cluster.node_costs(NodeId(1))));
            cluster.shutdown();
            out
        };
        let tcp = {
            let cluster = ShardedTcpCluster::spawn(two_group_map(), 4, quiet_config()).unwrap();
            cluster.update(NodeId(0), ItemId(1), UpdateOp::set(&b"x"[..])).unwrap();
            cluster.pull_shard_now(NodeId(1), NodeId(0), ShardId(0)).unwrap();
            let out = run(&|| (cluster.node_costs(NodeId(0)), cluster.node_costs(NodeId(1))));
            cluster.shutdown();
            out
        };
        assert_eq!(threaded, tcp, "per-node costs must match across fabrics");
    }

    #[test]
    fn delta_gossip_converges_per_shard_over_channels() {
        let cluster = ShardedThreadedCluster::spawn(
            two_group_map(),
            4,
            ShardedConfig { delta_budget: 1 << 20, ..fast_config() },
        );
        for i in 0..4u32 {
            cluster.update(NodeId(0), ItemId(i), UpdateOp::set(vec![i as u8; 16])).unwrap();
            cluster.update(NodeId(2), ItemId(8 + i), UpdateOp::set(vec![i as u8; 16])).unwrap();
        }
        assert!(cluster.quiesce(Duration::from_secs(20)), "no delta quiescence");
        for i in 0..4u32 {
            assert_eq!(cluster.read(NodeId(1), ItemId(i)).unwrap(), vec![i as u8; 16]);
            assert_eq!(cluster.read(NodeId(3), ItemId(8 + i)).unwrap(), vec![i as u8; 16]);
        }
        cluster.shutdown();
    }
}
