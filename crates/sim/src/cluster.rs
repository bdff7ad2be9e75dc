//! The one in-process cluster, [`SimCluster`], and its unsharded view
//! [`EpidbCluster`], which drives the paper's protocol through the common
//! [`SyncProtocol`] interface so every experiment runs the paper's
//! protocol and the baselines over identical workloads and schedules.
//!
//! An unsharded node is a one-shard [`ShardedNode`] on
//! `ShardMap::new(n_items, vec![every node])` running *bare* rounds on
//! shard 0 over [`LocalTransport`], so its [`Costs`] are a lone
//! replica's, as on sockets.

use std::marker::PhantomData;

use epidb_baselines::{SyncProtocol, SyncReport};
use epidb_common::{Costs, Error, ItemId, NodeId, Result, ShardId};
use epidb_core::{
    shards_agree, ChaosLink, ChaosTransport, ConflictPolicy, Engine, LocalShardedTransport,
    LocalTransport, OobOutcome, PullOutcome, Replica, RetryPolicy, ShardMap, ShardTransport,
    ShardedNode, Transport, Unsharded,
};
use epidb_store::UpdateOp;

/// Nodes exchanging by direct in-process calls through the engine, the
/// dispatch surface the socket runtime serves. `K` ([`Unsharded`] or
/// [`Sharded`](epidb_core::Sharded)) says how it is built and addressed.
pub struct SimCluster<K> {
    pub(crate) nodes: Vec<ShardedNode>,
    map: ShardMap,
    /// Rounds travel bare to shard 0: an unsharded cluster.
    bare: bool,
    kind: PhantomData<K>,
}

/// The unsharded view: one database replicated at every node.
pub type EpidbCluster = SimCluster<Unsharded>;

impl<K> SimCluster<K> {
    /// `n_nodes` nodes placed by `map`.
    pub(crate) fn build(
        map: ShardMap,
        n_nodes: usize,
        policy: ConflictPolicy,
        bare: bool,
    ) -> SimCluster<K> {
        let nodes = NodeId::all(n_nodes)
            .map(|id| ShardedNode::new(id, n_nodes, map.clone(), policy))
            .collect();
        SimCluster { nodes, map, bare, kind: PhantomData }
    }

    /// The placement map the cluster was built with.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Borrow two distinct nodes mutably.
    pub(crate) fn pair_mut(
        &mut self,
        a: NodeId,
        b: NodeId,
    ) -> (&mut ShardedNode, &mut ShardedNode) {
        assert_ne!(a, b, "need two distinct nodes");
        let (ai, bi) = (a.index(), b.index());
        if ai < bi {
            let (lo, hi) = self.nodes.split_at_mut(bi);
            (&mut lo[ai], &mut hi[0])
        } else {
            let (lo, hi) = self.nodes.split_at_mut(ai);
            let (x, y) = (&mut hi[0], &mut lo[bi]);
            (x, y)
        }
    }

    /// One pull round at `recipient` on `shard`, served by `source`, bare
    /// or enveloped by kind, through `link` when one is given.
    pub(crate) fn round(
        &mut self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
        link: Option<&mut ChaosLink>,
        rung: Rung<'_>,
    ) -> Result<PullOutcome> {
        let bare = self.bare;
        let (r, s) = self.pair_mut(recipient, source);
        let replica = r.shard_state_mut(shard).ok_or(Error::ShardMoving(shard))?;
        match (bare, link) {
            (true, None) => rung.run(replica, &mut LocalTransport::new(shard0(s))),
            (true, Some(link)) => {
                rung.run(replica, &mut ChaosTransport::new(LocalTransport::new(shard0(s)), link))
            }
            (false, None) => {
                let mut node = LocalShardedTransport::new(s);
                rung.run(replica, &mut ShardTransport::new(&mut node, shard))
            }
            (false, Some(link)) => {
                let mut node = ChaosTransport::new(LocalShardedTransport::new(s), link);
                rung.run(replica, &mut ShardTransport::new(&mut node, shard))
            }
        }
    }

    /// Apply a user update at `node`: to the one shard of an unsharded
    /// node, which never moves; else routed by the node's shard map.
    pub fn update(&mut self, node: NodeId, item: ItemId, op: UpdateOp) -> Result<()> {
        let n = self.nodes.get_mut(node.index()).ok_or(Error::UnknownNode(node))?;
        if self.bare {
            shard0(n).update(item, op)
        } else {
            n.update(item, op)
        }
    }

    /// Read the user-visible value at `node`.
    pub fn read(&self, node: NodeId, item: ItemId) -> Result<Vec<u8>> {
        let n = self.nodes.get(node.index()).ok_or(Error::UnknownNode(node))?;
        Ok(n.read(item)?.as_bytes().to_vec())
    }

    /// Bound log-vector retention at `node` to `keep` records per
    /// (origin, item) on every owned shard; pulls may then degrade to recon.
    pub fn set_log_retention(&mut self, node: NodeId, keep: usize) {
        self.nodes[node.index()].set_log_retention(keep);
    }

    /// Enable the delta op cache on every shard of every node.
    pub fn enable_delta(&mut self, budget_bytes: usize) {
        for n in &mut self.nodes {
            n.enable_delta(budget_bytes);
        }
    }

    /// Turn paranoid mode (per-step invariant audits + protocol tracing)
    /// on or off everywhere; a violation panics with the replica's trace.
    pub fn set_paranoid(&mut self, on: bool) {
        for n in &mut self.nodes {
            n.set_paranoid(on);
        }
    }

    /// Total paranoid post-step audits run across all nodes and shards.
    pub fn paranoid_audits_total(&self) -> u64 {
        self.nodes.iter().map(ShardedNode::audits_run).sum()
    }

    /// A node's cumulative costs: the sum over its owned shards plus its
    /// cross-group meta-costs.
    pub fn node_costs(&self, node: NodeId) -> Costs {
        self.nodes[node.index()].costs()
    }

    /// Total conflict events declared across the cluster so far.
    pub fn conflicts_declared(&self) -> u64 {
        self.nodes.iter().map(|n| n.costs().conflicts_detected).sum()
    }

    /// Check every node's per-shard invariants, panicking on a violation;
    /// while no conflict was declared, the conflict-free ones too.
    pub fn assert_invariants(&self) {
        let clean = self.conflicts_declared() == 0;
        for n in &self.nodes {
            let result = if clean { n.check_invariants_clean() } else { n.check_invariants() };
            if let Err(e) = result {
                panic!("invariant violated at {}: {e}", n.id());
            }
        }
    }

    /// Total auxiliary copies currently held across the cluster.
    pub fn aux_items_total(&self) -> usize {
        self.replicas().map(Replica::aux_item_count).sum()
    }

    /// Total bytes currently held in auxiliary logs (the storage price of
    /// out-of-bound copying, §6).
    pub fn aux_log_bytes(&self) -> usize {
        self.replicas().map(|r| r.aux_log().payload_bytes()).sum()
    }

    /// Every replica of every node.
    fn replicas(&self) -> impl Iterator<Item = &Replica> {
        self.nodes.iter().flat_map(|n| n.replicas().map(|(_, r)| r))
    }

    /// True when every shard's owners agree ([`shards_agree`]): equal
    /// shard DBVVs and no auxiliary state.
    pub fn converged(&self) -> bool {
        shards_agree(&self.map, |shard, owner| {
            let r = self.nodes[owner.index()].shard_state(shard)?;
            Some((r.dbvv(), r.aux_item_count()))
        })
    }
}

/// The pull a round runs: whole, delta or recon, or under a chaos link
/// the whole or delta pull retried per a policy.
#[derive(Clone, Copy)]
pub(crate) enum Rung<'p> {
    Pull,
    Delta,
    Recon,
    PullWith(&'p RetryPolicy),
    DeltaWith(&'p RetryPolicy),
}

impl Rung<'_> {
    fn run<T: Transport>(self, r: &mut Replica, t: &mut T) -> Result<PullOutcome> {
        match self {
            Rung::Pull => Engine::pull(r, t),
            Rung::Delta => Engine::pull_delta(r, t),
            Rung::Recon => Engine::pull_recon(r, t),
            Rung::PullWith(policy) => Engine::pull_with(r, t, policy),
            Rung::DeltaWith(policy) => Engine::pull_delta_with(r, t, policy),
        }
    }
}

/// The replica of an unsharded node: its one shard, which never moves.
fn shard0(node: &mut ShardedNode) -> &mut Replica {
    node.shard_state_mut(ShardId(0)).expect("an unsharded node holds shard 0")
}

impl SimCluster<Unsharded> {
    /// Create `n_nodes` replicas of an `n_items` database (conflicts
    /// reported, as in the paper).
    pub fn new(n_nodes: usize, n_items: usize) -> EpidbCluster {
        EpidbCluster::with_policy(n_nodes, n_items, ConflictPolicy::Report)
    }

    /// As [`new`](Self::new) with an explicit conflict policy.
    pub fn with_policy(n_nodes: usize, n_items: usize, policy: ConflictPolicy) -> EpidbCluster {
        let map = ShardMap::new(n_items, vec![NodeId::all(n_nodes).collect()]);
        SimCluster::build(map, n_nodes, policy, true)
    }

    /// Shared access to one replica.
    pub fn replica(&self, node: NodeId) -> &Replica {
        self.nodes[node.index()].shard_state(ShardId(0)).expect("one shard")
    }

    /// Mutable access to one replica.
    pub fn replica_mut(&mut self, node: NodeId) -> &mut Replica {
        shard0(&mut self.nodes[node.index()])
    }

    /// One anti-entropy pull: `recipient` from `source` (§5.1), driven
    /// through the engine over the in-process [`LocalTransport`] — the
    /// same dispatch surface the TCP runtime uses.
    pub fn pull_pair(&mut self, recipient: NodeId, source: NodeId) -> Result<PullOutcome> {
        self.round(recipient, source, ShardId(0), None, Rung::Pull)
    }

    /// One out-of-bound copy of `item`: `recipient` from `source` (§5.2).
    pub fn oob(&mut self, recipient: NodeId, source: NodeId, item: ItemId) -> Result<OobOutcome> {
        let (r, s) = self.pair_mut(recipient, source);
        Engine::oob(shard0(r), &mut LocalTransport::new(shard0(s)), item)
    }

    /// One delta-mode pull (§2's update-record shipping, see
    /// `epidb_core::delta`): `recipient` from `source`.
    pub fn pull_delta_pair(&mut self, recipient: NodeId, source: NodeId) -> Result<PullOutcome> {
        self.round(recipient, source, ShardId(0), None, Rung::Delta)
    }

    /// One set-reconciliation pull (§15 of the protocol doc): `recipient`
    /// from `source`, descending the digest tree and shipping only the
    /// differing items — the cold-start rung below whole-pull.
    pub fn pull_recon_pair(&mut self, recipient: NodeId, source: NodeId) -> Result<PullOutcome> {
        self.round(recipient, source, ShardId(0), None, Rung::Recon)
    }

    /// As [`pull_delta_pair`](Self::pull_delta_pair), with the exchange
    /// subjected to a caller-owned [`ChaosLink`] and the round retried per
    /// `policy` (and the engine's delta-to-whole degradation ladder) — the
    /// chaos-soak entry point for the in-process runtime.
    pub fn pull_delta_pair_chaos(
        &mut self,
        recipient: NodeId,
        source: NodeId,
        link: &mut ChaosLink,
        policy: &RetryPolicy,
    ) -> Result<PullOutcome> {
        self.round(recipient, source, ShardId(0), Some(link), Rung::DeltaWith(policy))
    }

    /// True when every replica reads the same values
    /// ([`SyncProtocol::converged`]) and no auxiliary state remains
    /// anywhere (every out-of-bound copy was reabsorbed).
    pub fn fully_converged(&self) -> bool {
        SyncProtocol::converged(self) && self.aux_items_total() == 0
    }
}

impl SyncProtocol for SimCluster<Unsharded> {
    fn name(&self) -> &'static str {
        "epidb"
    }

    fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn n_items(&self) -> usize {
        self.map.n_items()
    }

    fn update(&mut self, node: NodeId, item: ItemId, op: UpdateOp) -> Result<()> {
        SimCluster::update(self, node, item, op)
    }

    fn sync(&mut self, recipient: NodeId, source: NodeId) -> Result<SyncReport> {
        if recipient == source {
            return Ok(SyncReport { up_to_date: true, ..SyncReport::default() });
        }
        let outcome = self.pull_pair(recipient, source)?;
        Ok(match outcome {
            PullOutcome::UpToDate => SyncReport { up_to_date: true, ..SyncReport::default() },
            PullOutcome::Propagated(o) => SyncReport {
                items_copied: o.copied.len(),
                conflicts: o.conflicts,
                up_to_date: false,
            },
        })
    }

    fn value(&self, node: NodeId, item: ItemId) -> Vec<u8> {
        self.replica(node).read_regular(item).expect("item exists").as_bytes().to_vec()
    }

    fn costs(&self) -> Costs {
        self.nodes.iter().map(ShardedNode::costs).fold(Costs::ZERO, |a, b| a + b)
    }

    fn node_costs(&self, node: NodeId) -> Costs {
        SimCluster::node_costs(self, node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_drives_protocol_through_trait() {
        let mut c = EpidbCluster::new(3, 10);
        c.update(NodeId(0), ItemId(1), UpdateOp::set(&b"v"[..])).unwrap();
        let rep = c.sync(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(rep.items_copied, 1);
        let rep = c.sync(NodeId(2), NodeId(1)).unwrap();
        assert_eq!(rep.items_copied, 1);
        assert!(SyncProtocol::converged(&c) && c.converged());
        let rep = c.sync(NodeId(2), NodeId(1)).unwrap();
        assert!(rep.up_to_date);
        c.assert_invariants();
    }

    #[test]
    fn oob_tracked_in_aux_accounting() {
        let mut c = EpidbCluster::new(2, 10);
        c.update(NodeId(0), ItemId(0), UpdateOp::set(&b"hot"[..])).unwrap();
        c.oob(NodeId(1), NodeId(0), ItemId(0)).unwrap();
        assert_eq!(c.aux_items_total(), 1);
        assert!(!c.fully_converged());
        c.sync(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(c.aux_items_total(), 0);
        assert!(c.fully_converged());
    }

    #[test]
    fn recon_pull_converges_compacted_pair() {
        let mut c = EpidbCluster::new(2, 32);
        for i in 0..32 {
            c.update(NodeId(0), ItemId(i), UpdateOp::set(vec![i as u8])).unwrap();
        }
        c.pull_pair(NodeId(1), NodeId(0)).unwrap();
        // Advance a few items, then compact the source's log so a plain
        // pull could no longer cover the recipient's gap.
        for i in 0..3 {
            c.update(NodeId(0), ItemId(i), UpdateOp::set(&b"new"[..])).unwrap();
        }
        c.set_log_retention(NodeId(0), 1);
        let out = c.pull_recon_pair(NodeId(1), NodeId(0)).unwrap();
        assert!(matches!(out, PullOutcome::Propagated(_)));
        assert!(SyncProtocol::converged(&c) && c.converged());
        c.assert_invariants();
    }

    #[test]
    fn pair_mut_both_orders() {
        let mut c = EpidbCluster::new(3, 2);
        c.update(NodeId(2), ItemId(0), UpdateOp::set(&b"z"[..])).unwrap();
        c.pull_pair(NodeId(0), NodeId(2)).unwrap();
        c.pull_pair(NodeId(2), NodeId(0)).unwrap();
        assert_eq!(c.value(NodeId(0), ItemId(0)), b"z");
    }
}
