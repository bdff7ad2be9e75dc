//! The sharded view of [`SimCluster`]: the per-shard protocol of
//! [`epidb_core::shard`], driven by explicit schedules — the in-process
//! analogue of `epidb_net::ShardedTcpCluster`, with the same dispatch
//! surface ([`Engine::handle_sharded`] at the serving node, shard
//! envelopes on the wire) so per-node costs match the live runtimes byte
//! for byte.

use epidb_common::{ItemId, NodeId, Result, ShardId};
use epidb_core::{
    ChaosLink, ConflictPolicy, Engine, LocalShardedTransport, PullOutcome, RetryPolicy, ShardMap,
    Sharded, ShardedNode, ShardedOob,
};

use crate::cluster::{Rung, SimCluster};

/// A simulated sharded cluster: one [`ShardedNode`] per server, placed by
/// a shared [`ShardMap`]. Every pull and out-of-bound copy routes through
/// the engine's shard envelope, exactly as over sockets.
pub type ShardedSimCluster = SimCluster<Sharded>;

impl SimCluster<Sharded> {
    /// Create `n_nodes` sharded nodes placed by `map` (conflicts
    /// reported, as in the paper).
    pub fn new(map: ShardMap, n_nodes: usize) -> ShardedSimCluster {
        ShardedSimCluster::with_policy(map, n_nodes, ConflictPolicy::Report)
    }

    /// As [`new`](Self::new) with an explicit conflict policy.
    pub fn with_policy(map: ShardMap, n_nodes: usize, policy: ConflictPolicy) -> ShardedSimCluster {
        SimCluster::build(map, n_nodes, policy, false)
    }

    /// Shared access to one node.
    pub fn node(&self, node: NodeId) -> &ShardedNode {
        &self.nodes[node.index()]
    }

    /// Mutable access to one node.
    pub fn node_mut(&mut self, node: NodeId) -> &mut ShardedNode {
        &mut self.nodes[node.index()]
    }

    /// One anti-entropy pull of `shard`: `recipient` from `source`,
    /// driven through the engine over the shard envelope.
    pub fn pull_shard(
        &mut self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
    ) -> Result<PullOutcome> {
        self.round(recipient, source, shard, None, Rung::Pull)
    }

    /// As [`pull_shard`](Self::pull_shard), in delta mode.
    pub fn pull_delta_shard(
        &mut self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
    ) -> Result<PullOutcome> {
        self.round(recipient, source, shard, None, Rung::Delta)
    }

    /// As [`pull_shard`](Self::pull_shard), via digest-tree set
    /// reconciliation — the cold-start rung for a shard whose source log
    /// no longer covers the recipient.
    pub fn pull_recon_shard(
        &mut self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
    ) -> Result<PullOutcome> {
        self.round(recipient, source, shard, None, Rung::Recon)
    }

    /// As [`pull_shard`](Self::pull_shard), with the exchange subjected
    /// to a caller-owned [`ChaosLink`] and the round retried per
    /// `policy` — the chaos-soak entry point for the in-process runtime.
    pub fn pull_shard_chaos(
        &mut self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
        link: &mut ChaosLink,
        policy: &RetryPolicy,
    ) -> Result<PullOutcome> {
        self.round(recipient, source, shard, Some(link), Rung::PullWith(policy))
    }

    /// Resolve an out-of-bound copy of a globally addressed item at
    /// `recipient`, served by `source` — within-group it adopts into the
    /// owned shard (§5.2), cross-group it fetches via the shard map.
    pub fn oob(&mut self, recipient: NodeId, source: NodeId, item: ItemId) -> Result<ShardedOob> {
        let (r, s) = self.pair_mut(recipient, source);
        Engine::oob_sharded(r, &mut LocalShardedTransport::new(s), item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidb_common::Error;
    use epidb_store::UpdateOp;

    /// 4 nodes, 2 groups × 2 nodes, 2 shards × 4 items.
    fn two_group_map() -> ShardMap {
        ShardMap::new(4, vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]])
    }

    #[test]
    fn per_shard_schedules_converge() {
        let mut c = ShardedSimCluster::new(two_group_map(), 4);
        c.set_paranoid(true);
        c.update(NodeId(0), ItemId(1), UpdateOp::set(&b"left"[..])).unwrap();
        c.update(NodeId(2), ItemId(5), UpdateOp::set(&b"right"[..])).unwrap();
        assert!(!c.converged());
        c.pull_shard(NodeId(1), NodeId(0), ShardId(0)).unwrap();
        c.pull_shard(NodeId(3), NodeId(2), ShardId(1)).unwrap();
        assert!(c.converged());
        assert_eq!(c.read(NodeId(1), ItemId(1)).unwrap(), b"left");
        assert_eq!(c.read(NodeId(3), ItemId(5)).unwrap(), b"right");
        c.assert_invariants();
        assert!(c.paranoid_audits_total() > 0);
    }

    #[test]
    fn recon_pull_heals_compacted_shard() {
        let mut c = ShardedSimCluster::new(two_group_map(), 4);
        for i in 0..4 {
            c.update(NodeId(0), ItemId(i), UpdateOp::set(vec![i as u8])).unwrap();
        }
        c.pull_shard(NodeId(1), NodeId(0), ShardId(0)).unwrap();
        c.update(NodeId(0), ItemId(2), UpdateOp::set(&b"new"[..])).unwrap();
        c.set_log_retention(NodeId(0), 1);
        let out = c.pull_recon_shard(NodeId(1), NodeId(0), ShardId(0)).unwrap();
        assert!(matches!(out, PullOutcome::Propagated(_)));
        assert_eq!(c.read(NodeId(1), ItemId(2)).unwrap(), b"new");
        c.assert_invariants();
    }

    #[test]
    fn cross_group_oob_and_redirects() {
        let mut c = ShardedSimCluster::new(two_group_map(), 4);
        c.update(NodeId(2), ItemId(5), UpdateOp::set(&b"hot"[..])).unwrap();
        match c.oob(NodeId(0), NodeId(2), ItemId(5)).unwrap() {
            ShardedOob::Fetched { value, .. } => assert_eq!(&value[..], b"hot"),
            other => panic!("expected cross-group fetch, got {other:?}"),
        }
        assert!(matches!(c.read(NodeId(0), ItemId(5)), Err(Error::NotServedHere { .. })));
    }

    #[test]
    fn chaos_pulls_retry_to_convergence() {
        use epidb_core::FaultPlan;
        let mut c = ShardedSimCluster::new(two_group_map(), 4);
        c.update(NodeId(0), ItemId(0), UpdateOp::set(&b"v"[..])).unwrap();
        let mut link = ChaosLink::new(7, FaultPlan::lossy(0.3));
        let policy = RetryPolicy::attempts(16);
        c.pull_shard_chaos(NodeId(1), NodeId(0), ShardId(0), &mut link, &policy).unwrap();
        assert_eq!(c.read(NodeId(1), ItemId(0)).unwrap(), b"v");
    }
}
