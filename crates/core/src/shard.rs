//! Sharded partial replication: shard-map routing, per-shard replicas,
//! and the shard-handoff primitive.
//!
//! The paper's per-database structures — the DBVV, the log vector, the
//! auxiliary vectors — all scale with the *whole* item space, so a node
//! replicating one database pays for every item in it. This module
//! partitions the item space into contiguous, equal-width *shards*, each
//! replicated by its own *replica group*: a node instantiates, journals,
//! and gossips only the shards it owns, running one full instance of the
//! paper's protocol (with all its §2.1 correctness criteria) per owned
//! shard. The design follows Sutra & Shapiro's observation that genuine
//! partial replication needs per-partition metadata rather than one
//! global vector: every shard carries its own DBVV and log vector, sized
//! to the shard's items, and a node's storage/gossip cost is the sum
//! over its *owned* shards only.
//!
//! This is also the paper's rule for many databases (§2: "a separate
//! instance of the protocol runs for each database"): a database is a
//! shard with its own replica group.
//!
//! Routing rides one envelope: a [`ProtocolRequest::Shard`] envelope
//! names the shard, and [`Engine::handle_sharded`] dispatches to the
//! owning replica. A
//! request for a shard this node does not serve is refused with the
//! typed, non-retryable [`Error::NotServedHere`], carrying the node's
//! shard-map entry so the caller can redirect; a request for a shard
//! that is mid-handoff is refused with the retryable
//! [`Error::ShardMoving`].
//!
//! # Shard handoff
//!
//! A shard moves between groups by *snapshot-ship + tail catch-up*:
//!
//! 1. every source-group node freezes the shard ([`ShardedNode::freeze_shard`]);
//!    reads and writes now refuse with [`Error::ShardMoving`] — the
//!    cutover window is closed to new work, so the shipped state is final;
//! 2. one source node serializes the frozen replica
//!    ([`ShardedNode::shard_snapshot`]) — typically its last durable
//!    checkpoint — plus the tail of journal records written since;
//! 3. each target node installs snapshot + tail
//!    ([`ShardedNode::install_shard`]), which re-homes the replica,
//!    replays the tail through the ordinary recovery path, and verifies
//!    the §2.1 invariants before the shard goes live;
//! 4. the shard map is reassigned ([`ShardMap::reassign`]) everywhere,
//!    source nodes drop their copies ([`ShardedNode::remove_shard`]),
//!    and targets reopen the window ([`ShardedNode::complete_handoff`]).

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use epidb_common::{Costs, Error, ItemId, NodeId, Result, ShardId};
use epidb_store::{ItemValue, UpdateOp};
use epidb_vv::{DbVersionVector, VvOrd};

use crate::engine::{
    unexpected, Engine, ProtocolRequest, ProtocolResponse, ShardTransport, Transport,
};
use crate::journal::Mutation;
use crate::oob::OobOutcome;
use crate::policy::ConflictPolicy;
use crate::replica::Replica;

/// The placement map: item-key → shard id → replica-group membership.
///
/// Shards are contiguous, equal-width slices of the global item space
/// (`items_per_shard` items each); shard `s` covers global items
/// `[s * items_per_shard, (s + 1) * items_per_shard)`. Every node holds a
/// copy of the map (it is small — one owner list per shard) and uses it
/// both to route its own requests and to populate the `owners` field of
/// [`Error::NotServedHere`] refusals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    items_per_shard: usize,
    /// Owner lists, indexed by shard id.
    groups: Vec<Vec<NodeId>>,
}

impl ShardMap {
    /// Build a map of `groups.len()` shards, each `items_per_shard` items
    /// wide, with `groups[s]` the replica group of shard `s`.
    ///
    /// # Panics
    /// Panics if `items_per_shard` is zero, there are no shards, or any
    /// owner list is empty (an orphaned shard is a placement bug, not a
    /// runtime condition).
    pub fn new(items_per_shard: usize, groups: Vec<Vec<NodeId>>) -> ShardMap {
        assert!(items_per_shard > 0, "a shard must hold at least one item");
        assert!(!groups.is_empty(), "a shard map needs at least one shard");
        for (s, owners) in groups.iter().enumerate() {
            assert!(!owners.is_empty(), "shard s{s} has no owners");
        }
        ShardMap { items_per_shard, groups }
    }

    /// Number of shards in the map.
    pub fn n_shards(&self) -> usize {
        self.groups.len()
    }

    /// Items carried by each shard.
    pub fn items_per_shard(&self) -> usize {
        self.items_per_shard
    }

    /// Total items across all shards (the global item universe).
    pub fn n_items(&self) -> usize {
        self.items_per_shard * self.groups.len()
    }

    /// The shard a global item lives on, or [`Error::UnknownItem`] for an
    /// item outside the universe.
    pub fn shard_of(&self, item: ItemId) -> Result<ShardId> {
        let s = item.index() / self.items_per_shard;
        if s >= self.groups.len() {
            return Err(Error::UnknownItem(item));
        }
        Ok(ShardId::from_index(s))
    }

    /// Translate a global item id to its shard-local id.
    pub fn local_item(&self, item: ItemId) -> ItemId {
        ItemId::from_index(item.index() % self.items_per_shard)
    }

    /// Translate a shard-local item id back to the global id.
    pub fn global_item(&self, shard: ShardId, local: ItemId) -> ItemId {
        ItemId::from_index(shard.index() * self.items_per_shard + local.index())
    }

    /// The replica group serving `shard` (empty slice for an out-of-range
    /// shard id, which no node serves).
    pub fn owners(&self, shard: ShardId) -> &[NodeId] {
        self.groups.get(shard.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `node` is a member of `shard`'s replica group.
    pub fn owns(&self, node: NodeId, shard: ShardId) -> bool {
        self.owners(shard).contains(&node)
    }

    /// Shards whose replica group contains `node`.
    pub fn owned_by(&self, node: NodeId) -> Vec<ShardId> {
        ShardId::all(self.n_shards()).filter(|&s| self.owns(node, s)).collect()
    }

    /// Repoint `shard` at a new replica group — the map-update step of a
    /// handoff. Panics on an empty owner list, as in [`ShardMap::new`].
    pub fn reassign(&mut self, shard: ShardId, owners: Vec<NodeId>) {
        assert!(!owners.is_empty(), "shard {shard} would have no owners");
        self.groups[shard.index()] = owners;
    }
}

/// A cluster kind: one database replicated at every node. Each node is a
/// one-shard [`ShardedNode`] on `ShardMap::new(n_items, vec![every node])`
/// that serves and sends *bare* frames as shard 0, so its wire bytes and
/// [`Costs`] are those of a lone [`Replica`].
pub enum Unsharded {}

/// A cluster kind: shards placed by a [`ShardMap`], every exchange in the
/// shard envelope.
pub enum Sharded {}

/// The per-shard agreement rule: every reachable owner of every shard
/// holds an equal DBVV and no auxiliary state. A shard with fewer than
/// two reachable owners has nothing to compare and counts as agreed.
///
/// `state(shard, owner)` is that owner's shard DBVV and auxiliary item
/// count, or `None` when the owner cannot be reached (crashed, or holding
/// no state for the shard).
pub fn shards_agree<V: Borrow<DbVersionVector>>(
    map: &ShardMap,
    mut state: impl FnMut(ShardId, NodeId) -> Option<(V, usize)>,
) -> bool {
    ShardId::all(map.n_shards()).all(|shard| {
        let states: Vec<_> = map.owners(shard).iter().filter_map(|&o| state(shard, o)).collect();
        match states.split_first() {
            Some(((reference, _), rest)) if !rest.is_empty() => states.iter().all(|(vv, aux)| {
                *aux == 0 && vv.borrow().compare(reference.borrow()) == VvOrd::Equal
            }),
            _ => true,
        }
    })
}

/// A node in a sharded deployment: one [`Replica`] per *owned* shard,
/// plus the shard map that routes everything else away.
///
/// Each owned shard is a complete, independent instance of the paper's
/// protocol: its own DBVV and log vector (sized to the shard's items),
/// its own auxiliary structures, its own cost and trace accounting, and —
/// when attached via `epidb-durable` — its own WAL/snapshot directory.
/// The node-level [`ShardedNode::costs`] is the sum over owned shards
/// plus the meta-costs of cross-group exchanges, so what a node pays is
/// exactly what it owns.
///
/// `Clone` is derived for the model checker (`epidb-mc`), which forks
/// whole-system states during exploration; journal sinks are per-shard
/// [`Replica`] state and clone as shared handles, so a durable node should
/// not be cloned (the checker only clones sink-free nodes).
#[derive(Clone)]
pub struct ShardedNode {
    pub(crate) id: NodeId,
    pub(crate) n_nodes: usize,
    pub(crate) map: ShardMap,
    /// Boxed: a map node holds eleven slots whatever it uses, so a
    /// one-shard node pays eleven pointers, not eleven replica headers.
    pub(crate) shards: BTreeMap<ShardId, Box<Replica>>,
    /// Shards currently frozen for handoff: present here ⇒ reads, writes,
    /// and routed requests refuse with the retryable [`Error::ShardMoving`].
    pub(crate) moving: BTreeSet<ShardId>,
    /// Costs of node-level exchanges that precede shard dispatch
    /// (cross-group OOB requests), kept apart so per-shard accounting
    /// stays exact.
    pub(crate) meta_costs: Costs,
    pub(crate) policy: ConflictPolicy,
}

impl ShardedNode {
    /// Build the node `id` of an `n_nodes`-server deployment placed by
    /// `map`, instantiating a replica for every shard the map assigns to
    /// this node. Version vectors are dimensioned for the *global* server
    /// set, so ids stay consistent when a shard migrates between groups.
    pub fn new(id: NodeId, n_nodes: usize, map: ShardMap, policy: ConflictPolicy) -> ShardedNode {
        assert!(id.index() < n_nodes, "node id out of range");
        let shards = map
            .owned_by(id)
            .into_iter()
            .map(|s| {
                (s, Box::new(Replica::with_policy(id, n_nodes, map.items_per_shard(), policy)))
            })
            .collect();
        ShardedNode {
            id,
            n_nodes,
            map,
            shards,
            moving: BTreeSet::new(),
            meta_costs: Costs::default(),
            policy,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of servers in the deployment.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The node's view of the placement map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Repoint one shard's replica group in this node's map copy.
    pub fn reassign(&mut self, shard: ShardId, owners: Vec<NodeId>) {
        self.map.reassign(shard, owners);
    }

    /// Shards this node currently holds state for, in id order.
    pub fn owned_shards(&self) -> Vec<ShardId> {
        self.shards.keys().copied().collect()
    }

    /// Every owned shard with its replica state, in shard order.
    pub fn replicas(&self) -> impl Iterator<Item = (ShardId, &Replica)> {
        self.shards.iter().map(|(&s, r)| (s, &**r))
    }

    /// Mutable [`replicas`](Self::replicas).
    pub fn replicas_mut(&mut self) -> impl Iterator<Item = (ShardId, &mut Replica)> {
        self.shards.iter_mut().map(|(&s, r)| (s, &mut **r))
    }

    /// Whether `shard` is currently frozen for handoff here.
    pub fn is_moving(&self, shard: ShardId) -> bool {
        self.moving.contains(&shard)
    }

    /// Routing decision for `shard`, shared by reads, writes, and
    /// [`Engine::handle_sharded`]: mid-handoff shards refuse retryably,
    /// unowned shards refuse with a redirect.
    fn route_check(&self, shard: ShardId) -> Result<()> {
        self.shard(shard).map(|_| ())
    }

    /// The serving replica for `shard`, after routing checks.
    pub fn shard(&self, shard: ShardId) -> Result<&Replica> {
        let moving = self.moving.contains(&shard);
        match self.shards.get(&shard) {
            Some(r) if !moving => Ok(r),
            _ => Err(refusal(&self.map, self.id, shard, moving)),
        }
    }

    /// Mutable access to the serving replica for `shard`, after routing
    /// checks: one map lookup.
    pub fn shard_mut(&mut self, shard: ShardId) -> Result<&mut Replica> {
        let moving = self.moving.contains(&shard);
        match self.shards.get_mut(&shard) {
            Some(r) if !moving => Ok(r),
            _ => Err(refusal(&self.map, self.id, shard, moving)),
        }
    }

    /// Raw access to a shard's replica state, bypassing routing refusals.
    /// For operators and harnesses (audits, durability attachment, gossip
    /// loops that have already routed) — not for request paths.
    pub fn shard_state(&self, shard: ShardId) -> Option<&Replica> {
        self.shards.get(&shard).map(|r| &**r)
    }

    /// Raw mutable access; see [`ShardedNode::shard_state`].
    pub fn shard_state_mut(&mut self, shard: ShardId) -> Option<&mut Replica> {
        self.shards.get_mut(&shard).map(|r| &mut **r)
    }

    /// Apply a user update to a (globally addressed) item, routing to the
    /// owning shard.
    pub fn update(&mut self, item: ItemId, op: UpdateOp) -> Result<()> {
        let shard = self.map.shard_of(item)?;
        let local = self.map.local_item(item);
        self.shard_mut(shard)?.update(local, op)
    }

    /// Read the user-visible value of a (globally addressed) item.
    pub fn read(&self, item: ItemId) -> Result<&ItemValue> {
        let shard = self.map.shard_of(item)?;
        let local = self.map.local_item(item);
        self.shard(shard)?.read(local)
    }

    /// Cumulative costs at this node: the sum over owned shards plus the
    /// node-level meta-costs — and nothing for the shards it doesn't own.
    pub fn costs(&self) -> Costs {
        self.shards.values().map(|r| r.costs()).fold(self.meta_costs, |a, b| a + b)
    }

    /// Charge one request frame dropped by the integrity check to the
    /// node's meta-costs: its shard is unknown until the frame decodes.
    pub fn note_corrupt_frame(&mut self) {
        self.meta_costs.corrupt_frames_dropped += 1;
    }

    /// One shard's cost counters (routing-checked).
    pub fn shard_costs(&self, shard: ShardId) -> Result<Costs> {
        Ok(self.shard(shard)?.costs())
    }

    /// Enable paranoid post-step auditing on every owned shard.
    pub fn set_paranoid(&mut self, on: bool) {
        for r in self.shards.values_mut() {
            r.set_paranoid(on);
        }
    }

    /// Enable delta propagation (an op cache of `budget_bytes`) on every
    /// owned shard.
    pub fn enable_delta(&mut self, budget_bytes: usize) {
        for r in self.shards.values_mut() {
            r.enable_delta(budget_bytes);
        }
    }

    /// Bound log-vector retention to `keep` records per (origin, item)
    /// component on every owned shard, raising coverage floors as pruning
    /// proceeds. Pulls against compacted shards may degrade to recon.
    pub fn set_log_retention(&mut self, keep: usize) {
        for r in self.shards.values_mut() {
            r.set_log_retention(keep);
        }
    }

    /// Total paranoid audits run across owned shards.
    pub fn audits_run(&self) -> u64 {
        self.shards.values().map(|r| r.audits_run()).sum()
    }

    /// Conflicts declared across owned shards.
    pub fn conflicts_declared(&self) -> usize {
        self.shards.values().map(|r| r.conflicts().len()).sum()
    }

    /// Check the §2.1 structural invariants on every owned shard.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        for (s, r) in &self.shards {
            r.check_invariants().map_err(|e| format!("shard {s}: {e}"))?;
        }
        Ok(())
    }

    /// As [`ShardedNode::check_invariants`], plus the conflict-free
    /// strengthening, per shard.
    pub fn check_invariants_clean(&self) -> std::result::Result<(), String> {
        for (s, r) in &self.shards {
            r.check_invariants_clean().map_err(|e| format!("shard {s}: {e}"))?;
        }
        Ok(())
    }

    // --- handoff primitives -------------------------------------------------

    /// Close the cutover window for `shard`: all subsequent reads, writes,
    /// and routed requests refuse with [`Error::ShardMoving`] until the
    /// handoff completes. Errors with [`Error::NotServedHere`] if this
    /// node holds no state for the shard.
    pub fn freeze_shard(&mut self, shard: ShardId) -> Result<()> {
        if !self.shards.contains_key(&shard) {
            return Err(Error::NotServedHere { shard, owners: self.map.owners(shard).to_vec() });
        }
        self.moving.insert(shard);
        Ok(())
    }

    /// Serialize one shard's replica for shipping. Deliberately *not*
    /// routing-checked: the handoff machinery snapshots a frozen shard.
    pub fn shard_snapshot(&self, shard: ShardId) -> Result<Vec<u8>> {
        self.shards
            .get(&shard)
            .map(|r| r.to_snapshot())
            .ok_or_else(|| Error::NotServedHere { shard, owners: self.map.owners(shard).to_vec() })
    }

    /// Install a shipped shard: decode the snapshot, re-home it to this
    /// node, replay the journal tail through the ordinary recovery path,
    /// and verify the §2.1 invariants before the shard goes live. The
    /// shard stays closed ([`Error::ShardMoving`]) until
    /// [`ShardedNode::complete_handoff`].
    pub fn install_shard(
        &mut self,
        shard: ShardId,
        snapshot: &[u8],
        tail: &[Mutation],
    ) -> Result<()> {
        let mut replica = Replica::from_snapshot(snapshot)?;
        replica.rehome(self.id);
        for m in tail {
            replica.replay_mutation(m.clone())?;
        }
        replica.check_invariants().map_err(Error::CorruptSnapshot)?;
        self.shards.insert(shard, Box::new(replica));
        self.moving.insert(shard);
        Ok(())
    }

    /// Join `shard`'s replica group with *empty* state — how a brand-new
    /// member bootstraps when no snapshot is shipped to it: the empty
    /// replica is installed behind the cutover window
    /// ([`Error::ShardMoving`] until [`ShardedNode::complete_handoff`])
    /// and catches up by ordinary anti-entropy once the window opens.
    pub fn bootstrap_shard(&mut self, shard: ShardId) {
        let replica =
            Replica::with_policy(self.id, self.n_nodes, self.map.items_per_shard(), self.policy);
        self.shards.insert(shard, Box::new(replica));
        self.moving.insert(shard);
    }

    /// Replace (or create) this node's replica for `shard` with an
    /// already-built one — the recovery path: a durability layer that
    /// recovered per-shard state from disk installs it here. Bypasses the
    /// cutover machinery; the replica must already be homed to this node.
    pub fn adopt_shard(&mut self, shard: ShardId, replica: Replica) {
        assert_eq!(replica.id(), self.id, "adopted shard replica must be homed here");
        self.shards.insert(shard, Box::new(replica));
    }

    /// Drop this node's copy of `shard` (the source side of a completed
    /// handoff) and reopen the window.
    pub fn remove_shard(&mut self, shard: ShardId) {
        self.shards.remove(&shard);
        self.moving.remove(&shard);
    }

    /// Reopen the cutover window for `shard` (the target side, once the
    /// map has been reassigned).
    pub fn complete_handoff(&mut self, shard: ShardId) {
        self.moving.remove(&shard);
    }

    /// Abort an in-flight handoff: reopen the cutover window closed by
    /// [`ShardedNode::freeze_shard`] so this node serves the shard again.
    ///
    /// Without this, a failed [`ShardedNode::install_shard`] on the target
    /// wedged the handoff forever — the source had already frozen the
    /// shard and had no path back to serving it short of completing a
    /// handoff that could no longer complete. Errors with
    /// [`Error::NotServedHere`] if this node holds no state for the shard
    /// (an abort cannot conjure a replica; a target whose install failed
    /// has nothing to serve and simply stays out of the group).
    pub fn abort_handoff(&mut self, shard: ShardId) -> Result<()> {
        if !self.shards.contains_key(&shard) {
            return Err(Error::NotServedHere { shard, owners: self.map.owners(shard).to_vec() });
        }
        self.moving.remove(&shard);
        Ok(())
    }
}

/// Why `node` does not serve `shard`, given whether it is frozen for
/// handoff: a moving shard refuses retryably; so does one the map assigns
/// here whose state is not installed yet (the receiving half of a cutover
/// window); any other shard redirects to its owners.
fn refusal(map: &ShardMap, node: NodeId, shard: ShardId, moving: bool) -> Error {
    if moving || map.owns(node, shard) {
        Error::ShardMoving(shard)
    } else {
        Error::NotServedHere { shard, owners: map.owners(shard).to_vec() }
    }
}

/// The outcome of a sharded OOB resolution ([`Engine::oob_sharded`]).
#[derive(Debug)]
pub enum ShardedOob {
    /// The item's shard is owned here: the copy was exchanged and the
    /// local auxiliary structures updated, exactly as in §5.2.
    Applied(OobOutcome),
    /// The item lives on an unowned shard: the copy was fetched
    /// cross-group via the shard map and returned to the caller, but no
    /// local replica state exists to adopt it into.
    Fetched {
        /// The remote copy's value.
        value: Bytes,
        /// Whether the serving node answered from its auxiliary copy.
        from_aux: bool,
    },
}

impl Engine {
    /// Serve one already-decoded request at a sharded node. This is the
    /// single point where received shard envelopes meet replica state:
    /// `Shard` envelopes route through the map (mid-handoff shards refuse
    /// retryably, unowned shards refuse with a redirect), and anything
    /// unrouted is rejected — a sharded node serves nothing outside a
    /// shard. Refusals return *before* any response is charged, matching
    /// [`Engine::handle`]'s accounting discipline.
    pub fn handle_sharded(
        node: &mut ShardedNode,
        req: ProtocolRequest,
    ) -> Result<ProtocolResponse> {
        match req {
            ProtocolRequest::Shard { shard, req } => {
                let replica = node.shard_mut(shard)?;
                let resp = Engine::handle(replica, *req)?;
                Ok(ProtocolResponse::Shard { shard, resp: Box::new(resp) })
            }
            other => Err(Error::Network(format!(
                "sharded dispatch needs shard routing, got {} request",
                other.kind()
            ))),
        }
    }

    /// Resolve an out-of-bound copy of a (globally addressed) item at a
    /// sharded node, against a transport to `transport.peer()`.
    ///
    /// When the item's shard is owned here this is the §5.2 exchange on
    /// that shard's replica (the peer must serve the shard too). When it
    /// is not — the cross-group case the shard map exists for — the copy
    /// is fetched from the remote group and returned without touching
    /// local state; the caller picks a peer from
    /// [`ShardMap::owners`]. Cross-group requests are charged to the
    /// node's meta-costs.
    pub fn oob_sharded<T: Transport>(
        node: &mut ShardedNode,
        transport: &mut T,
        item: ItemId,
    ) -> Result<ShardedOob> {
        let shard = node.map.shard_of(item)?;
        let local = node.map.local_item(item);
        if node.route_check(shard).is_ok() {
            let mut shard_transport = ShardTransport::new(transport, shard);
            let replica = &mut **node.shards.get_mut(&shard).expect("routed");
            return Ok(ShardedOob::Applied(Engine::oob(replica, &mut shard_transport, local)?));
        }
        if node.map.owns(node.id, shard) {
            // Owned but mid-handoff: surface the window, don't fetch around it.
            return Err(Error::ShardMoving(shard));
        }
        // The envelope costs what the request inside it costs
        // (`shard_envelope_is_cost_transparent`), so the bare request is
        // charged.
        let req = ProtocolRequest::Oob { from: node.id, item: local };
        node.meta_costs.charge_message(req.control_bytes(), req.payload_bytes());
        match ShardTransport::new(transport, shard).exchange(req)? {
            ProtocolResponse::Oob(reply) => {
                Ok(ShardedOob::Fetched { value: reply.value, from_aux: reply.from_aux })
            }
            other => Err(unexpected("cross-group oob", &other)),
        }
    }
}

/// The in-process transport to a sharded node: an exchange is a direct
/// call to [`Engine::handle_sharded`] on the serving node. Used by the
/// simulator and by tests; the live runtime puts a socket here.
pub struct LocalShardedTransport<'a> {
    serving: &'a mut ShardedNode,
}

impl<'a> LocalShardedTransport<'a> {
    /// Wrap the serving node of an in-process exchange.
    pub fn new(serving: &'a mut ShardedNode) -> LocalShardedTransport<'a> {
        LocalShardedTransport { serving }
    }
}

impl Transport for LocalShardedTransport<'_> {
    fn peer(&self) -> NodeId {
        self.serving.id
    }

    fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
        Engine::handle_sharded(self.serving, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LocalTransport;
    use crate::propagation::PullOutcome;
    use crate::retry::RetryPolicy;

    /// 4 nodes, 2 groups × 2 nodes, 2 shards × 4 items.
    fn two_group_map() -> ShardMap {
        ShardMap::new(4, vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]])
    }

    fn node(id: u16) -> ShardedNode {
        ShardedNode::new(NodeId(id), 4, two_group_map(), ConflictPolicy::Report)
    }

    fn pull_shard(recipient: &mut ShardedNode, source: &mut ShardedNode, shard: ShardId) {
        let replica = recipient.shard_state_mut(shard).expect("owned");
        let mut local = LocalShardedTransport::new(source);
        let mut transport = ShardTransport::new(&mut local, shard);
        Engine::pull(replica, &mut transport).unwrap();
    }

    #[test]
    fn map_routes_items_to_shards() {
        let map = two_group_map();
        assert_eq!(map.n_shards(), 2);
        assert_eq!(map.n_items(), 8);
        assert_eq!(map.shard_of(ItemId(0)).unwrap(), ShardId(0));
        assert_eq!(map.shard_of(ItemId(3)).unwrap(), ShardId(0));
        assert_eq!(map.shard_of(ItemId(4)).unwrap(), ShardId(1));
        assert!(matches!(map.shard_of(ItemId(8)), Err(Error::UnknownItem(_))));
        assert_eq!(map.local_item(ItemId(6)), ItemId(2));
        assert_eq!(map.global_item(ShardId(1), ItemId(2)), ItemId(6));
        assert_eq!(map.owned_by(NodeId(2)), vec![ShardId(1)]);
        assert!(map.owns(NodeId(0), ShardId(0)));
        assert!(!map.owns(NodeId(0), ShardId(1)));
    }

    #[test]
    fn node_instantiates_only_owned_shards() {
        let n0 = node(0);
        assert_eq!(n0.owned_shards(), vec![ShardId(0)]);
        assert!(n0.shard_state(ShardId(1)).is_none());
        // Owned shards are sized to the shard, not the universe.
        assert_eq!(n0.shard_state(ShardId(0)).unwrap().n_items(), 4);
    }

    #[test]
    fn requests_for_unowned_shards_redirect() {
        let mut n0 = node(0);
        match n0.update(ItemId(5), UpdateOp::set(&b"x"[..])) {
            Err(Error::NotServedHere { shard, owners }) => {
                assert_eq!(shard, ShardId(1));
                assert_eq!(owners, vec![NodeId(2), NodeId(3)]);
            }
            other => panic!("expected redirect, got {other:?}"),
        }
        // Same refusal through the engine's envelope path — and uncharged.
        let before = n0.costs();
        let req = ProtocolRequest::Shard {
            shard: ShardId(1),
            req: Box::new(ProtocolRequest::Oob { from: NodeId(2), item: ItemId(0) }),
        };
        assert!(matches!(Engine::handle_sharded(&mut n0, req), Err(Error::NotServedHere { .. })));
        assert_eq!(n0.costs(), before, "refusals must not be charged");
    }

    #[test]
    fn bare_requests_are_rejected_at_sharded_nodes() {
        let mut n0 = node(0);
        let req = ProtocolRequest::Oob { from: NodeId(1), item: ItemId(0) };
        assert!(matches!(Engine::handle_sharded(&mut n0, req), Err(Error::Network(_))));
    }

    #[test]
    fn owned_shards_gossip_and_converge_per_shard() {
        let mut n0 = node(0);
        let mut n1 = node(1);
        n0.set_paranoid(true);
        n1.set_paranoid(true);
        n0.update(ItemId(1), UpdateOp::set(&b"alpha"[..])).unwrap();
        n0.update(ItemId(3), UpdateOp::set(&b"beta"[..])).unwrap();
        pull_shard(&mut n1, &mut n0, ShardId(0));
        assert_eq!(n1.read(ItemId(1)).unwrap().as_bytes(), b"alpha");
        assert_eq!(n1.read(ItemId(3)).unwrap().as_bytes(), b"beta");
        n0.check_invariants_clean().unwrap();
        n1.check_invariants_clean().unwrap();
        assert!(n1.audits_run() > 0, "paranoid audits must run per shard");
    }

    #[test]
    fn cross_group_oob_fetches_via_shard_map() {
        let mut n0 = node(0);
        let mut n2 = node(2);
        // Item 5 lives on shard 1, owned by group {n2, n3}.
        n2.update(ItemId(5), UpdateOp::set(&b"remote"[..])).unwrap();
        let before = n2.costs();
        let fetched = {
            let mut transport = LocalShardedTransport::new(&mut n2);
            Engine::oob_sharded(&mut n0, &mut transport, ItemId(5)).unwrap()
        };
        match fetched {
            ShardedOob::Fetched { value, .. } => assert_eq!(&value[..], b"remote"),
            other => panic!("expected a cross-group fetch, got {other:?}"),
        }
        // The requester pays meta-costs; the serving group's shard pays
        // for its reply — both sides account the exchange.
        assert!(n0.costs().messages_sent > 0);
        assert!(n2.costs().messages_sent > before.messages_sent);
    }

    /// Serves honestly, then relabels every `Shard` reply as shard 5: a
    /// peer answering for a different shard than it was asked about.
    struct WrongShard<'a>(LocalShardedTransport<'a>);

    impl Transport for WrongShard<'_> {
        fn peer(&self) -> NodeId {
            self.0.peer()
        }

        fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
            match self.0.exchange(req)? {
                ProtocolResponse::Shard { resp, .. } => {
                    Ok(ProtocolResponse::Shard { shard: ShardId(5), resp })
                }
                other => Ok(other),
            }
        }
    }

    #[test]
    fn replies_naming_another_shard_are_rejected() {
        let mut n0 = node(0);
        let mut n1 = node(1);
        let mut n2 = node(2);
        n1.update(ItemId(1), UpdateOp::set(&b"mine"[..])).unwrap();
        n2.update(ItemId(5), UpdateOp::set(&b"theirs"[..])).unwrap();
        let before = n0.fingerprint();

        // A within-group round over the shard envelope.
        let replica = n0.shard_state_mut(ShardId(0)).unwrap();
        let mut wrong = WrongShard(LocalShardedTransport::new(&mut n1));
        let err = Engine::pull(replica, &mut ShardTransport::new(&mut wrong, ShardId(0)));
        assert!(matches!(err, Err(Error::Network(ref m)) if m.contains("s5")), "{err:?}");

        // A within-group OOB and a cross-group fetch through `oob_sharded`.
        let mut wrong = WrongShard(LocalShardedTransport::new(&mut n1));
        assert!(Engine::oob_sharded(&mut n0, &mut wrong, ItemId(1)).is_err());
        let mut wrong = WrongShard(LocalShardedTransport::new(&mut n2));
        assert!(Engine::oob_sharded(&mut n0, &mut wrong, ItemId(5)).is_err());

        assert_eq!(n0.fingerprint(), before, "a mislabelled reply must adopt nothing");
    }

    #[test]
    fn oob_on_owned_shard_applies_locally() {
        let mut n0 = node(0);
        let mut n1 = node(1);
        n1.update(ItemId(2), UpdateOp::set(&b"hot"[..])).unwrap();
        let out = {
            let mut transport = LocalShardedTransport::new(&mut n1);
            Engine::oob_sharded(&mut n0, &mut transport, ItemId(2)).unwrap()
        };
        assert!(matches!(out, ShardedOob::Applied(OobOutcome::Adopted { .. })));
        assert_eq!(n0.read(ItemId(2)).unwrap().as_bytes(), b"hot");
    }

    #[test]
    fn handoff_ships_snapshot_plus_tail_and_preserves_invariants() {
        let mut n0 = node(0);
        let mut n1 = node(1);
        let mut n2 = node(2);
        n0.set_paranoid(true);
        n2.set_paranoid(true);
        n0.update(ItemId(0), UpdateOp::set(&b"pre"[..])).unwrap();
        pull_shard(&mut n1, &mut n0, ShardId(0));

        // Simulate the durable flow: a snapshot taken *before* the last
        // updates, with the rest arriving as a journal tail.
        let snapshot = n0.shard_snapshot(ShardId(0)).unwrap();
        n0.update(ItemId(1), UpdateOp::set(&b"tail"[..])).unwrap();
        let tail = vec![Mutation::Update { item: ItemId(1), op: UpdateOp::set(&b"tail"[..]) }];

        // Freeze the source group: the cutover window refuses retryably.
        n0.freeze_shard(ShardId(0)).unwrap();
        n1.freeze_shard(ShardId(0)).unwrap();
        match n0.update(ItemId(0), UpdateOp::set(&b"late"[..])) {
            Err(e @ Error::ShardMoving(_)) => assert!(e.is_retryable()),
            other => panic!("expected a retryable cutover refusal, got {other:?}"),
        }
        assert!(matches!(n0.read(ItemId(0)), Err(Error::ShardMoving(_))));

        // Install at the target, re-homed and tail-replayed.
        n2.install_shard(ShardId(0), &snapshot, &tail).unwrap();
        assert!(matches!(n2.read(ItemId(0)), Err(Error::ShardMoving(_))), "window still closed");

        // Reassign the map everywhere and complete.
        for n in [&mut n0, &mut n1, &mut n2] {
            n.reassign(ShardId(0), vec![NodeId(2), NodeId(3)]);
        }
        n0.remove_shard(ShardId(0));
        n1.remove_shard(ShardId(0));
        n2.complete_handoff(ShardId(0));

        // The moved shard serves reads with the full history, §2.1 intact.
        assert_eq!(n2.read(ItemId(0)).unwrap().as_bytes(), b"pre");
        assert_eq!(n2.read(ItemId(1)).unwrap().as_bytes(), b"tail");
        n2.check_invariants_clean().unwrap();
        assert_eq!(n2.shard_state(ShardId(0)).unwrap().id(), NodeId(2), "re-homed");

        // The old owners now redirect to the new group.
        match n0.read(ItemId(0)) {
            Err(Error::NotServedHere { owners, .. }) => {
                assert_eq!(owners, vec![NodeId(2), NodeId(3)]);
            }
            other => panic!("expected redirect after handoff, got {other:?}"),
        }

        // And the moved replica keeps gossiping in its new group: n3 can
        // pull the full shard from n2.
        let mut n3 = node(3);
        n3.reassign(ShardId(0), vec![NodeId(2), NodeId(3)]);
        // n3 was built before the reassignment, so it has no shard-0
        // state; bootstrap it empty, behind the cutover window.
        n3.bootstrap_shard(ShardId(0));
        assert!(matches!(n3.read(ItemId(0)), Err(Error::ShardMoving(_))), "window closed");
        n3.complete_handoff(ShardId(0));
        pull_shard(&mut n3, &mut n2, ShardId(0));
        assert_eq!(n3.read(ItemId(0)).unwrap().as_bytes(), b"pre");
        assert_eq!(n3.read(ItemId(1)).unwrap().as_bytes(), b"tail");
        n3.check_invariants_clean().unwrap();
    }

    #[test]
    fn failed_install_aborts_and_source_serves_again() {
        // Regression: a failed `install_shard` on the target used to wedge
        // the handoff forever — the source had frozen the shard and had no
        // abort path back to serving it.
        let mut n0 = node(0);
        let mut n2 = node(2);
        n0.update(ItemId(0), UpdateOp::set(&b"survives"[..])).unwrap();

        let snapshot = n0.shard_snapshot(ShardId(0)).unwrap();
        n0.freeze_shard(ShardId(0)).unwrap();
        assert!(matches!(n0.read(ItemId(0)), Err(Error::ShardMoving(_))), "window closed");

        // The shipped snapshot is truncated in flight; the install fails
        // and must leave the target without shard-0 state.
        let corrupt = &snapshot[..snapshot.len() - 8];
        assert!(n2.install_shard(ShardId(0), corrupt, &[]).is_err());
        assert!(n2.shard_state(ShardId(0)).is_none());

        // The source aborts the handoff and serves again, state intact.
        n0.abort_handoff(ShardId(0)).unwrap();
        assert!(!n0.is_moving(ShardId(0)));
        assert_eq!(n0.read(ItemId(0)).unwrap().as_bytes(), b"survives");
        n0.update(ItemId(1), UpdateOp::set(&b"post-abort"[..])).unwrap();
        n0.check_invariants_clean().unwrap();

        // A node without state for the shard cannot "abort" into serving
        // it: the failed target redirects instead.
        match n2.abort_handoff(ShardId(0)) {
            Err(Error::NotServedHere { .. }) => {}
            other => panic!("expected NotServedHere, got {other:?}"),
        }
    }

    #[test]
    fn sharded_pull_costs_match_unsharded_equivalent() {
        // The shard envelope is cost-transparent, so a per-shard pull
        // charges exactly what the same pull on a standalone replica of
        // the shard's size charges.
        let mut n0 = node(0);
        let mut n1 = node(1);
        n0.update(ItemId(1), UpdateOp::set(&b"v"[..])).unwrap();
        pull_shard(&mut n1, &mut n0, ShardId(0));

        let mut a = Replica::with_policy(NodeId(0), 4, 4, ConflictPolicy::Report);
        let mut b = Replica::with_policy(NodeId(1), 4, 4, ConflictPolicy::Report);
        a.update(ItemId(1), UpdateOp::set(&b"v"[..])).unwrap();
        Engine::pull(&mut b, &mut LocalTransport::new(&mut a)).unwrap();

        assert_eq!(n1.costs(), b.costs(), "recipient side");
        assert_eq!(n0.costs(), a.costs(), "source side");
    }

    #[test]
    fn delta_gossip_works_per_shard() {
        let mut n0 = node(0);
        let mut n1 = node(1);
        n0.enable_delta(1 << 20);
        n1.enable_delta(1 << 20);
        n0.update(ItemId(0), UpdateOp::set(&b"seed"[..])).unwrap();
        pull_shard(&mut n1, &mut n0, ShardId(0));
        n0.update(ItemId(0), UpdateOp::append(&b"+d"[..])).unwrap();
        let out = {
            let replica = n1.shard_state_mut(ShardId(0)).unwrap();
            let mut local = LocalShardedTransport::new(&mut n0);
            let mut transport = ShardTransport::new(&mut local, ShardId(0));
            Engine::pull_delta_with(replica, &mut transport, &RetryPolicy::none()).unwrap()
        };
        assert!(matches!(out, PullOutcome::Propagated(_)));
        assert_eq!(n1.read(ItemId(0)).unwrap().as_bytes(), b"seed+d");
    }
}
