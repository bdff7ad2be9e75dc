//! One socket node and one socket cluster.
//!
//! A `Node` is a [`ShardedNode`] behind its lock, an `alive` flag and, with
//! durability, one node-owned [`GroupWal`] with a stream per owned shard,
//! in shard order. Every mutation — a served request, an initiated round,
//! a user update — is followed by the one `after_mutation`: the ack gate,
//! then the checkpoint policy over the owned shards. An unsharded node is
//! a one-shard node — the map `ShardMap::new(n_items, vec![every node])` —
//! that serves and sends *bare* frames as shard 0, so its wire bytes, WAL
//! stream and [`Costs`] are those of a lone replica.
//!
//! [`SocketCluster`] spawns such nodes on one reactor, runs one gossip
//! thread per node, and crashes and revives them. Its two views,
//! [`AsyncTcpCluster`](crate::AsyncTcpCluster) and
//! [`ShardedTcpCluster`](crate::ShardedTcpCluster), differ in how they are
//! spawned and addressed, not in how a node behaves.

use std::marker::PhantomData;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use epidb_common::{Costs, Error, ItemId, NodeId, Result, ShardId};
use epidb_core::codec::{decode_request_checked, encode_response_to, Writer};
use epidb_core::{
    shards_agree, ConflictPolicy, Engine, ProtocolRequest, ProtocolResponse, Replica, ReplicaHost,
    RetryPolicy, ShardMap, ShardTransport, ShardedNode, Transport,
};
pub use epidb_core::{Sharded, Unsharded};
use epidb_durable::{GroupCommitStats, GroupWal, StreamSpec};
use epidb_store::UpdateOp;
use parking_lot::Mutex;

use crate::async_tcp::{AsyncServer, FrameService};
use crate::gossip::gossip_loop;
use crate::tcp::{TcpConfig, TcpTransport};

/// A [`ReplicaHost`] projecting one owned shard out of a locked
/// [`ShardedNode`]: each protocol step locks, runs, and unlocks, so no
/// lock is ever held across a blocking network exchange (which would
/// deadlock mutually-pulling nodes).
pub(crate) struct ShardHost<'a> {
    node: &'a Mutex<ShardedNode>,
    shard: ShardId,
}

impl ReplicaHost for ShardHost<'_> {
    fn with<R>(&mut self, f: impl FnOnce(&mut Replica) -> R) -> R {
        f(self.node.lock().shard_state_mut(self.shard).expect("rounds run on owned shards"))
    }
}

/// One node as its peers and its cluster reach it.
pub(crate) struct Node {
    node: Mutex<ShardedNode>,
    alive: AtomicBool,
    /// Serves and sends bare frames as shard 0: an unsharded node.
    bare: bool,
    /// The node's group-commit WAL, one stream per owned shard; `None`
    /// without durability, and while a durable node is crashed.
    wal: Mutex<Option<Arc<GroupWal>>>,
}

impl Node {
    pub(crate) fn new(node: ShardedNode, bare: bool) -> Node {
        Node { node: Mutex::new(node), alive: AtomicBool::new(true), bare, wal: Mutex::new(None) }
    }

    /// Run `f` over the locked node.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut ShardedNode) -> R) -> R {
        f(&mut self.node.lock())
    }

    /// Group-commit ack gate plus checkpoint policy, after any call that
    /// may have journaled, failed ones included. Blocks until everything
    /// this node has journaled is written (and fsynced) — by this thread
    /// as batch leader, or by the leader of the batch in flight — and
    /// reads the byte/record checkpoint triggers in the same pass over the
    /// WAL's state. Only when one fires does it take the node lock and
    /// checkpoint the owned shards in stream order; call only from
    /// contexts not holding the node lock.
    fn after_mutation(&self) {
        let Some(wal) = self.wal.lock().clone() else { return };
        if wal.wait_durable_checkpoint_due() {
            let node = self.node.lock();
            let streams: Vec<&Replica> = node.replicas().map(|(_, r)| r).collect();
            wal.maybe_checkpoint(&streams).expect("durable: checkpoint failed");
        }
    }

    /// [`with`](Self::with), then [`after_mutation`](Self::after_mutation).
    pub(crate) fn mutate<R>(&self, f: impl FnOnce(&mut ShardedNode) -> R) -> R {
        let out = self.with(f);
        self.after_mutation();
        out
    }

    /// Initiate a round on `shard` over `transport` — bare at an unsharded
    /// node, in the shard envelope otherwise — then
    /// [`after_mutation`](Self::after_mutation): a failed round may still
    /// have journaled.
    pub(crate) fn round<T: Transport, R>(
        &self,
        shard: ShardId,
        transport: &mut T,
        f: impl FnOnce(&mut ShardHost<'_>, &mut dyn Transport) -> R,
    ) -> R {
        let mut host = ShardHost { node: &self.node, shard };
        let out = if self.bare {
            f(&mut host, transport)
        } else {
            f(&mut host, &mut ShardTransport::new(transport, shard))
        };
        self.after_mutation();
        out
    }

    /// Rebuild the owned shards from the node's group WAL — one stream
    /// per owned shard, in shard order — and attach the WAL. Each replica
    /// goes before its recovered one is built, so the two are never
    /// resident at once.
    fn recover(&self, config: &TcpConfig) {
        let cfg = config.durability.as_ref().expect("a durable cluster");
        let mut node = self.node.lock();
        let shards = node.owned_shards();
        for &shard in &shards {
            drop(node.shard_state_mut(shard).expect("owned").take());
        }
        let (id, n_nodes, n_items) = (node.id(), node.n_nodes(), node.map().items_per_shard());
        // Policy and delta budget are journaled into the WAL header — the
        // arguments are fresh-start defaults and recovery is config-free.
        let (wal, replicas, _report) = GroupWal::open(
            cfg,
            cfg.node_dir(id),
            &vec![StreamSpec { id, n_nodes, n_items }; shards.len()],
            ConflictPolicy::Report,
            config.delta_budget,
        )
        .expect("durable: group recovery failed");
        for (stream, (shard, mut replica)) in shards.into_iter().zip(replicas).enumerate() {
            configure(config, &mut replica);
            wal.attach(stream, &mut replica);
            node.adopt_shard(shard, replica);
        }
        *self.wal.lock() = Some(wal);
    }

    fn handle(&self, req: ProtocolRequest) -> Result<ProtocolResponse> {
        let mut node = self.node.lock();
        if self.bare && !matches!(req, ProtocolRequest::Shard { .. }) {
            return Engine::handle(node.shard_mut(ShardId(0))?, req);
        }
        Engine::handle_sharded(&mut node, req)
    }
}

impl FrameService for Node {
    fn alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// A shard envelope routes through the map; a bare request is served
    /// as shard 0 at an unsharded node and refused at a sharded one. A
    /// request that fails its CRC is refused in-band and charged — to the
    /// replica at an unsharded node, to the node's meta-costs at a sharded
    /// one, where its shard is unknown until the frame decodes.
    fn serve(&self, body: &[u8], out: &mut Writer) -> bool {
        if !self.alive() {
            return false;
        }
        let resp = match decode_request_checked(body) {
            Ok(req) => match self.handle(req) {
                Ok(resp) => resp,
                // Typed routing refusals ride in-band, so the initiator
                // gets the original error back, retryability intact.
                Err(e @ (Error::NotServedHere { .. } | Error::ShardMoving(_))) => {
                    ProtocolResponse::Refused(e)
                }
                Err(e) => ProtocolResponse::Error(e.to_string()),
            },
            Err(e) => {
                if matches!(e, Error::CorruptFrame(_)) {
                    let mut node = self.node.lock();
                    match node.shard_state_mut(ShardId(0)).filter(|_| self.bare) {
                        Some(replica) => replica.note_corrupt_frame(),
                        None => node.note_corrupt_frame(),
                    }
                }
                ProtocolResponse::Error(format!("bad request: {e}"))
            }
        };
        // Ack gate: if serving journaled anything, the response may not
        // leave before the covering fsync. (Pure serves are read-only at
        // the responder, so this is normally a no-wait.)
        let durable = self.wal.lock().clone();
        if let Some(wal) = durable {
            wal.wait_durable();
        }
        encode_response_to(&resp, out);
        true
    }
}

/// Nodes served by one reactor and gossiping over localhost TCP, each
/// exchange a CRC-framed request/response pair on a real socket carrying
/// the same protocol requests and responses as the in-process simulator.
/// `K` says how the cluster is spawned and addressed ([`Unsharded`] or
/// [`Sharded`]); what a node does is the same either way.
pub struct SocketCluster<K> {
    pub(crate) nodes: Vec<Arc<Node>>,
    pub(crate) server: Option<AsyncServer>,
    addrs: Vec<SocketAddr>,
    running: Arc<AtomicBool>,
    gossips: Vec<JoinHandle<()>>,
    map: ShardMap,
    config: TcpConfig,
    kind: PhantomData<K>,
}

impl<K> SocketCluster<K> {
    /// Build `n_nodes` nodes placed by `map` (each recovered from disk as
    /// it is built, with durability), bind one reactor-served listener per
    /// node on localhost, and start gossiping.
    pub(crate) fn launch(
        map: ShardMap,
        n_nodes: usize,
        config: TcpConfig,
        worker_threads: usize,
        bare: bool,
    ) -> Result<SocketCluster<K>> {
        assert!(n_nodes >= 2, "a cluster needs at least two nodes");
        let nodes = NodeId::all(n_nodes)
            .map(|id| {
                let mut node = ShardedNode::new(id, n_nodes, map.clone(), ConflictPolicy::Report);
                for shard in node.owned_shards() {
                    let replica = node.shard_state_mut(shard).expect("owned");
                    if config.delta_budget > 0 {
                        replica.enable_delta(config.delta_budget);
                    }
                    configure(&config, replica);
                }
                let node = Arc::new(Node::new(node, bare));
                if config.durability.is_some() {
                    node.recover(&config);
                }
                node
            })
            .collect();
        let mut cluster = SocketCluster {
            nodes,
            server: None,
            addrs: Vec::new(),
            running: Arc::new(AtomicBool::new(true)),
            gossips: Vec::new(),
            map,
            config,
            kind: PhantomData,
        };
        let services = cluster.nodes.iter().map(|n| n.clone() as Arc<dyn FrameService>).collect();
        let server = AsyncServer::bind(services, worker_threads)?;
        cluster.addrs = server.addrs().to_vec();
        cluster.server = Some(server);
        cluster.gossips = (cluster.nodes.iter().zip(NodeId::all(n_nodes)))
            .map(|(node, me)| {
                let (node, running) = (node.clone(), cluster.running.clone());
                let (config, addrs) = (cluster.config.clone(), cluster.addrs.clone());
                // The C10K work is all on the serving side: initiators
                // stay blocking clients, a transport per round over the
                // connection parked for the peer.
                let socket = config.socket;
                let connect = move |peer: NodeId| {
                    TcpTransport::with_options(peer, addrs[peer.index()], socket)
                };
                std::thread::spawn(move || {
                    gossip_loop(me, n_nodes, config, &running, &node, connect)
                })
            })
            .collect();
        Ok(cluster)
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The placement map the cluster was spawned with.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Reactor worker threads serving *all* connections of *all* nodes.
    pub fn worker_threads(&self) -> usize {
        self.server.as_ref().map_or(0, AsyncServer::worker_threads)
    }

    /// Connections currently held open by the reactor.
    pub fn open_connections(&self) -> usize {
        self.server.as_ref().map_or(0, AsyncServer::open_connections)
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

    /// `node`, if it exists and is up.
    pub(crate) fn checked(&self, node: NodeId) -> Result<&Node> {
        let n = self.nodes.get(node.index()).ok_or(Error::UnknownNode(node))?;
        if !n.alive() {
            return Err(Error::NodeDown(node));
        }
        Ok(n)
    }

    /// One round at `recipient` on `shard`, pulled from `source` right
    /// now, bypassing the gossip schedule.
    pub(crate) fn round_now<R>(
        &self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
        f: impl FnOnce(&mut ShardHost<'_>, &mut dyn Transport) -> Result<R>,
    ) -> Result<R> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        self.checked(recipient)?.round(shard, &mut self.transport_to(source), f)
    }

    /// Apply a user update at `node`, routed to the item's shard. With
    /// durability, returns only after the update's group-commit batch is
    /// fsynced (acked ⇒ durable).
    pub fn update(&self, node: NodeId, item: ItemId, op: UpdateOp) -> Result<()> {
        self.checked(node)?.mutate(|n| n.update(item, op))
    }

    /// Read the user-visible value at `node`. A crashed node answers
    /// nothing: [`Error::NodeDown`].
    pub fn read(&self, node: NodeId, item: ItemId) -> Result<Vec<u8>> {
        self.checked(node)?.with(|n| Ok(n.read(item)?.as_bytes().to_vec()))
    }

    /// Run a closure over a locked node.
    pub fn with_node<T>(&self, node: NodeId, f: impl FnOnce(&ShardedNode) -> T) -> T {
        self.nodes[node.index()].with(|n| f(n))
    }

    /// A node's cumulative costs (owned shards + cross-group meta).
    pub fn node_costs(&self, node: NodeId) -> Costs {
        self.with_node(node, ShardedNode::costs)
    }

    /// Bound log retention to `keep` records per (origin, item) component
    /// on every shard `node` owns.
    pub fn set_log_retention(&self, node: NodeId, keep: usize) -> Result<()> {
        self.checked(node)?.mutate(|n| n.set_log_retention(keep));
        Ok(())
    }

    /// The group-commit counters of a node's WAL (`None` without
    /// durability or while crashed): records journaled, batches taken,
    /// fsyncs issued. The runtime's claim is `fsyncs ≪ records` under
    /// concurrent writers.
    pub fn group_commit_stats(&self, node: NodeId) -> Option<GroupCommitStats> {
        self.nodes[node.index()].wal.lock().as_ref().map(|w| w.stats())
    }

    /// Crash a node: the connections it had accepted are closed, new ones
    /// drop without replying, and it stops gossiping. With durability, its
    /// replicas and its WAL handle are really dropped (closing the group
    /// WAL writes whatever is still queued); only the on-disk state
    /// survives.
    pub fn crash(&self, node: NodeId) {
        let n = &self.nodes[node.index()];
        n.alive.store(false, Ordering::SeqCst);
        if let Some(server) = &self.server {
            server.close_connections(node.index());
        }
        if self.config.durability.is_some() {
            n.with(|state| {
                for shard in state.owned_shards() {
                    drop(state.shard_state_mut(shard).expect("owned").take());
                }
            });
            *n.wal.lock() = None;
        }
    }

    /// Revive a crashed node; with durability, group recovery rebuilds its
    /// replicas from their snapshots + shared WAL, then anti-entropy
    /// brings it the rest of the way.
    pub fn revive(&self, node: NodeId) {
        if self.config.durability.is_some() {
            self.nodes[node.index()].recover(&self.config);
        }
        self.nodes[node.index()].alive.store(true, Ordering::SeqCst);
    }

    /// Wait until every shard's alive owners hold equal DBVVs and no
    /// auxiliary state, or the deadline passes.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.try_quiesce(timeout).is_ok()
    }

    /// As [`quiesce`](Self::quiesce), surfacing a timeout as the typed
    /// [`Error::DeadlineExceeded`].
    pub fn try_quiesce(&self, timeout: Duration) -> Result<()> {
        // Probes start near the gossip interval and decay exponentially
        // (with the standard deterministic jitter) toward a 50 ms cap —
        // converging clusters are checked often early, idle ones rarely.
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: (self.config.gossip_interval)
                .clamp(Duration::from_micros(100), Duration::from_millis(1)),
            max_backoff: Duration::from_millis(50),
            round_deadline: None,
            jitter_seed: 0,
        };
        policy.poll_until("quiescence", timeout, || self.is_quiescent())
    }

    /// True when every shard's alive owners agree ([`shards_agree`]):
    /// equal shard DBVVs and no auxiliary state.
    pub fn is_quiescent(&self) -> bool {
        shards_agree(&self.map, |shard, owner| {
            let n = &self.nodes[owner.index()];
            if !n.alive() {
                return None;
            }
            n.with(|n| n.shard_state(shard).map(|r| (r.dbvv().clone(), r.aux_item_count())))
        })
    }

    /// Stop gossip and the reactor; drop the WAL handles, which writes
    /// what is queued and closes the files.
    pub(crate) fn stop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        for h in self.gossips.drain(..) {
            let _ = h.join();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        for n in &self.nodes {
            *n.wal.lock() = None;
        }
    }
}

impl<K> Drop for SocketCluster<K> {
    fn drop(&mut self) {
        if self.running.load(Ordering::SeqCst) {
            self.stop();
        }
    }
}

/// The per-replica knobs of `config` that are node configuration, not
/// journaled state: applied at spawn and again after every recovery.
fn configure(config: &TcpConfig, replica: &mut Replica) {
    replica.set_paranoid(config.paranoid);
    replica.set_delta_frame_budget(config.delta_frame_bytes);
}
