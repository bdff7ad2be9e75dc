//! The live runtime for *sharded* deployments: the per-shard protocol of
//! [`epidb_core::shard`] over the framed localhost sockets the unsharded
//! runtime uses ([`ShardedTcpCluster`]).
//!
//! Each node is one [`ShardedFrameService`]: every incoming exchange
//! executes [`Engine::handle_sharded`] (so it routes through the shard
//! map: unowned shards refuse with the typed, non-retryable
//! [`Error::NotServedHere`], mid-handoff shards with the retryable
//! [`Error::ShardMoving`]), served by the reactor ([`AsyncServer`]). Each
//! node also runs one gossip loop that iterates its *owned* shards each
//! tick, pulling every shard from a random co-owner in that shard's
//! replica group. A node
//! therefore pays gossip costs only for the shards it owns — the
//! partial-replication property the shard map exists to provide — and
//! each shard converges within its group by the ordinary §2.1
//! anti-entropy argument, independently of every other shard.
//!
//! The typed refusals ride in-band as [`ProtocolResponse::Refused`]
//! frames and are re-raised by the transport, so the initiator observes
//! the same [`Error`], with the same retryability, as an in-process
//! caller of the engine.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use epidb_common::{Costs, Error, ItemId, NodeId, Result, ShardId};
use epidb_core::codec::{decode_request_checked, encode_response_to, Writer};
use epidb_core::{
    ChaosLink, ChaosTransport, ConflictPolicy, Engine, FaultPlan, ProtocolResponse, PullOutcome,
    Replica, ReplicaHost, RetryPolicy, ShardMap, ShardTransport, ShardedNode, ShardedOob,
};
use epidb_store::UpdateOp;
use epidb_vv::VvOrd;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::Rng;

use crate::async_tcp::{quiesce_policy, refusal_or_error, AsyncServer, FrameService};
use crate::gossip::{gossip_loop, GossipConfig, Gossiped};
use crate::tcp::{connector, TcpSocketOptions, TcpTransport};

/// Tuning and fault-injection knobs of [`ShardedTcpCluster`].
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
    /// Socket timeouts and connect retry schedule.
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
            socket: TcpSocketOptions::default(),
            max_frame_items: usize::MAX,
        }
    }
}

impl ShardedConfig {
    fn gossip(&self) -> GossipConfig {
        GossipConfig {
            interval: self.gossip_interval,
            seed: self.seed,
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

/// One sharded node as its peers reach it: the node behind its lock,
/// whether it is up, and — as a [`FrameService`] — the responder every
/// request to it runs.
pub struct ShardedFrameService {
    node: Mutex<ShardedNode>,
    alive: AtomicBool,
}

impl ShardedFrameService {
    /// Wrap a sharded node for serving; it starts up.
    pub fn new(node: ShardedNode) -> ShardedFrameService {
        ShardedFrameService { node: Mutex::new(node), alive: AtomicBool::new(true) }
    }

    /// Run a closure over the locked node (for harness-side inspection
    /// and updates).
    pub fn with_node<T>(&self, f: impl FnOnce(&mut ShardedNode) -> T) -> T {
        f(&mut self.node.lock())
    }
}

impl FrameService for ShardedFrameService {
    fn alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Only `Shard`-enveloped requests are served. A request that fails
    /// its CRC is refused in-band and charged to the node: its shard is
    /// unknown until the frame decodes.
    fn serve(&self, body: &[u8], out: &mut Writer) -> bool {
        if !self.alive() {
            return false;
        }
        let resp = match decode_request_checked(body) {
            Ok(req) => {
                Engine::handle_sharded(&mut self.node.lock(), req).unwrap_or_else(refusal_or_error)
            }
            Err(e) => {
                if matches!(e, Error::CorruptFrame(_)) {
                    self.node.lock().note_corrupt_frame();
                }
                ProtocolResponse::Error(format!("bad request: {e}"))
            }
        };
        encode_response_to(&resp, out);
        true
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

/// A sharded cluster over localhost TCP: each node serves and gossips only
/// the shards its map entry assigns to it, every exchange a CRC-framed
/// request/response pair on a real socket, served by one reactor for all
/// nodes. Typed routing refusals cross the wire as
/// [`ProtocolResponse::Refused`] frames.
pub struct ShardedTcpCluster {
    nodes: Vec<Arc<ShardedFrameService>>,
    server: Option<AsyncServer>,
    addrs: Vec<SocketAddr>,
    running: Arc<AtomicBool>,
    gossips: Vec<JoinHandle<()>>,
    map: ShardMap,
    config: ShardedConfig,
}

impl ShardedTcpCluster {
    /// Bind `n_nodes` reactor-served listeners on localhost and start
    /// per-shard gossip.
    pub fn spawn(
        map: ShardMap,
        n_nodes: usize,
        config: ShardedConfig,
    ) -> Result<ShardedTcpCluster> {
        assert!(n_nodes >= 2, "a cluster needs at least two nodes");
        let nodes: Vec<Arc<ShardedFrameService>> = (0..n_nodes)
            .map(|i| {
                Arc::new(ShardedFrameService::new(build_node(
                    NodeId::from_index(i),
                    n_nodes,
                    &map,
                    &config,
                )))
            })
            .collect();
        let services: Vec<Arc<dyn FrameService>> =
            nodes.iter().map(|n| n.clone() as Arc<dyn FrameService>).collect();
        let server = AsyncServer::bind(services, 0)?;
        let addrs = server.addrs().to_vec();

        let running = Arc::new(AtomicBool::new(true));
        let gossips = nodes
            .iter()
            .enumerate()
            .map(|(i, shared)| {
                let shared = shared.clone();
                let run = running.clone();
                let peer_addrs = addrs.clone();
                let me = NodeId::from_index(i);
                let cfg = config.clone();
                std::thread::spawn(move || {
                    let connect = connector(peer_addrs, cfg.socket);
                    let gossip = cfg.gossip();
                    let gossiped = Gossiped::Shards(&shared.node);
                    gossip_loop(me, n_nodes, gossip, &run, &shared.alive, gossiped, connect)
                })
            })
            .collect();
        Ok(ShardedTcpCluster { nodes, server: Some(server), addrs, running, gossips, map, config })
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

    fn checked(&self, node: NodeId) -> Result<&Arc<ShardedFrameService>> {
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

    /// Crash a node: the connections it had accepted are closed, new ones
    /// drop without replying, and it stops gossiping. The in-memory state
    /// survives for revival.
    pub fn crash(&self, node: NodeId) {
        self.nodes[node.index()].alive.store(false, Ordering::SeqCst);
        if let Some(server) = &self.server {
            server.close_connections(node.index());
        }
    }

    /// Revive a crashed node.
    pub fn revive(&self, node: NodeId) {
        self.nodes[node.index()].alive.store(true, Ordering::SeqCst);
    }

    /// Wait until every shard's alive owners hold equal shard DBVVs and
    /// no auxiliary state, or the deadline passes.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        // The shard's state at `n`, if `n` is up.
        let probe = |n: NodeId, shard| {
            let shared = &self.nodes[n.index()];
            if !shared.alive.load(Ordering::SeqCst) {
                return None;
            }
            let node = shared.node.lock();
            node.shard_state(shard).map(|r| (r.dbvv().clone(), r.aux_item_count()))
        };
        let map = &self.map;
        quiesce_policy(self.config.gossip_interval)
            .poll_until("sharded quiescence", timeout, || {
                ShardId::all(map.n_shards()).all(|shard| {
                    let states: Vec<_> =
                        map.owners(shard).iter().filter_map(|&n| probe(n, shard)).collect();
                    match states.split_first() {
                        None => true, // every owner crashed: nothing to compare
                        Some(((reference, aux0), rest)) => {
                            *aux0 == 0
                                && rest.iter().all(|(vv, aux)| {
                                    *aux == 0 && vv.compare(reference) == VvOrd::Equal
                                })
                        }
                    }
                })
            })
            .is_ok()
    }

    fn stop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        for h in self.gossips.drain(..) {
            let _ = h.join();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpStream;

    use epidb_core::codec::{decode_response_checked, encode_request_checked};
    use epidb_core::{ProtocolRequest, Transport};

    use crate::tcp::read_frame_into;

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
    fn sharded_cluster_converges_per_group_over_tcp() {
        let cluster = ShardedTcpCluster::spawn(
            two_group_map(),
            4,
            ShardedConfig { paranoid: true, ..fast_config() },
        )
        .unwrap();
        // Writes land at an owner of each item's shard.
        cluster.update(NodeId(1), ItemId(3), UpdateOp::set(&b"alpha"[..])).unwrap();
        cluster.update(NodeId(3), ItemId(12), UpdateOp::set(&b"beta"[..])).unwrap();
        assert!(cluster.quiesce(Duration::from_secs(30)), "no sharded quiescence over TCP");
        assert_eq!(cluster.read(NodeId(0), ItemId(3)).unwrap(), b"alpha");
        assert_eq!(cluster.read(NodeId(2), ItemId(12)).unwrap(), b"beta");
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
        match cluster.read(NodeId(0), ItemId(12)) {
            Err(Error::NotServedHere { owners, .. }) => {
                assert_eq!(owners, vec![NodeId(2), NodeId(3)]);
            }
            other => panic!("expected redirect, got {other:?}"),
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
            Err(Error::NotServedHere { shard, owners }) => {
                assert_eq!(shard, ShardId(1));
                assert_eq!(owners, vec![NodeId(2), NodeId(3)]);
            }
            other => panic!("expected a typed redirect over TCP, got {other:?}"),
        }
        // The refusal was never charged at the refusing server.
        assert_eq!(cluster.node_costs(NodeId(0)), Costs::default());
        cluster.shutdown();
    }

    #[test]
    fn a_corrupt_request_is_refused_and_charged_to_the_node() {
        let cluster = ShardedTcpCluster::spawn(two_group_map(), 4, quiet_config()).unwrap();
        let req = ProtocolRequest::Shard {
            shard: ShardId(0),
            req: Box::new(ProtocolRequest::Oob { from: NodeId(1), item: ItemId(0) }),
        };
        let mut body = encode_request_checked(&req);
        *body.last_mut().unwrap() ^= 0x40; // fails the CRC
        let mut stream = TcpStream::connect(cluster.addr(NodeId(0))).unwrap();
        stream.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
        stream.write_all(&body).unwrap();
        let mut frame = Vec::new();
        read_frame_into(&mut stream, &mut frame).unwrap();
        match decode_response_checked(&frame).unwrap() {
            ProtocolResponse::Error(msg) => assert!(msg.starts_with("bad request"), "{msg}"),
            other => panic!("expected an in-band refusal, got {other:?}"),
        }
        let costs = cluster.node_costs(NodeId(0));
        assert_eq!(costs, Costs { corrupt_frames_dropped: 1, ..Costs::default() });
        drop(stream);
        cluster.shutdown();
    }

    #[test]
    fn cross_group_oob_over_tcp() {
        let tcp = ShardedTcpCluster::spawn(two_group_map(), 4, quiet_config()).unwrap();
        tcp.update(NodeId(3), ItemId(10), UpdateOp::set(&b"wire"[..])).unwrap();
        match tcp.oob_fetch(NodeId(1), NodeId(3), ItemId(10)).unwrap() {
            ShardedOob::Fetched { value, .. } => assert_eq!(&value[..], b"wire"),
            other => panic!("expected a cross-group fetch, got {other:?}"),
        }
        tcp.shutdown();
    }

    #[test]
    fn delta_gossip_converges_per_shard_over_tcp() {
        let cluster = ShardedTcpCluster::spawn(
            two_group_map(),
            4,
            ShardedConfig { delta_budget: 1 << 20, ..fast_config() },
        )
        .unwrap();
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
