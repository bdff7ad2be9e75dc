//! Deterministic in-process simulation of a *sharded* deployment: the
//! per-shard protocol of [`epidb_core::shard`], driven by explicit
//! schedules — the in-process analogue of `epidb_net::ShardedTcpCluster`,
//! with the same dispatch surface ([`Engine::handle_sharded`] at the serving node,
//! [`ShardTransport`] envelopes on the wire) so per-node costs match the
//! live runtimes byte for byte.

use epidb_common::{Costs, Error, ItemId, NodeId, Result, ShardId};
use epidb_core::{
    ChaosLink, ChaosTransport, ConflictPolicy, Engine, LocalShardedTransport, PullOutcome,
    RetryPolicy, ShardMap, ShardTransport, ShardedNode, ShardedOob,
};
use epidb_store::UpdateOp;

/// A simulated sharded cluster: one [`ShardedNode`] per server, placed by
/// a shared [`ShardMap`]. Exchanges are direct in-process calls; every
/// pull and out-of-bound copy still routes through the engine's shard
/// envelope, exactly as over sockets.
pub struct ShardedSimCluster {
    nodes: Vec<ShardedNode>,
    map: ShardMap,
}

impl ShardedSimCluster {
    /// Create `n_nodes` sharded nodes placed by `map` (conflicts
    /// reported, as in the paper).
    pub fn new(map: ShardMap, n_nodes: usize) -> ShardedSimCluster {
        ShardedSimCluster::with_policy(map, n_nodes, ConflictPolicy::Report)
    }

    /// As [`new`](Self::new) with an explicit conflict policy.
    pub fn with_policy(map: ShardMap, n_nodes: usize, policy: ConflictPolicy) -> ShardedSimCluster {
        ShardedSimCluster {
            nodes: (0..n_nodes)
                .map(|i| ShardedNode::new(NodeId::from_index(i), n_nodes, map.clone(), policy))
                .collect(),
            map,
        }
    }

    /// The placement map the cluster was built with.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Shared access to one node.
    pub fn node(&self, node: NodeId) -> &ShardedNode {
        &self.nodes[node.index()]
    }

    /// Mutable access to one node.
    pub fn node_mut(&mut self, node: NodeId) -> &mut ShardedNode {
        &mut self.nodes[node.index()]
    }

    /// Borrow two distinct nodes mutably.
    fn pair_mut(&mut self, a: NodeId, b: NodeId) -> (&mut ShardedNode, &mut ShardedNode) {
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

    /// Apply a user update at `node` (globally addressed item, routed
    /// through the node's shard map).
    pub fn update(&mut self, node: NodeId, item: ItemId, op: UpdateOp) -> Result<()> {
        self.nodes.get_mut(node.index()).ok_or(Error::UnknownNode(node))?.update(item, op)
    }

    /// Read the user-visible value at `node`.
    pub fn read(&self, node: NodeId, item: ItemId) -> Result<Vec<u8>> {
        Ok(self
            .nodes
            .get(node.index())
            .ok_or(Error::UnknownNode(node))?
            .read(item)?
            .as_bytes()
            .to_vec())
    }

    /// One anti-entropy pull of `shard`: `recipient` from `source`,
    /// driven through the engine over the shard envelope.
    pub fn pull_shard(
        &mut self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
    ) -> Result<PullOutcome> {
        let (r, s) = self.pair_mut(recipient, source);
        let replica = r.shard_state_mut(shard).ok_or(Error::ShardMoving(shard))?;
        let mut local = LocalShardedTransport::new(s);
        let mut transport = ShardTransport::new(&mut local, shard);
        Engine::pull(replica, &mut transport)
    }

    /// As [`pull_shard`](Self::pull_shard), in delta mode.
    pub fn pull_delta_shard(
        &mut self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
    ) -> Result<PullOutcome> {
        let (r, s) = self.pair_mut(recipient, source);
        let replica = r.shard_state_mut(shard).ok_or(Error::ShardMoving(shard))?;
        let mut local = LocalShardedTransport::new(s);
        let mut transport = ShardTransport::new(&mut local, shard);
        Engine::pull_delta(replica, &mut transport)
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
        let (r, s) = self.pair_mut(recipient, source);
        let replica = r.shard_state_mut(shard).ok_or(Error::ShardMoving(shard))?;
        let mut local = LocalShardedTransport::new(s);
        let mut transport = ShardTransport::new(&mut local, shard);
        Engine::pull_recon(replica, &mut transport)
    }

    /// Bound log retention to `keep` records per component on every shard
    /// `node` owns, raising coverage floors as pruning proceeds.
    pub fn set_log_retention(&mut self, node: NodeId, keep: usize) {
        self.nodes[node.index()].set_log_retention(keep);
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
        let (r, s) = self.pair_mut(recipient, source);
        let replica = r.shard_state_mut(shard).ok_or(Error::ShardMoving(shard))?;
        let local = LocalShardedTransport::new(s);
        let mut chaos = ChaosTransport::new(local, link);
        let mut transport = ShardTransport::new(&mut chaos, shard);
        Engine::pull_with(replica, &mut transport, policy)
    }

    /// Resolve an out-of-bound copy of a globally addressed item at
    /// `recipient`, served by `source` — within-group it adopts into the
    /// owned shard (§5.2), cross-group it fetches via the shard map.
    pub fn oob(&mut self, recipient: NodeId, source: NodeId, item: ItemId) -> Result<ShardedOob> {
        let (r, s) = self.pair_mut(recipient, source);
        let mut transport = LocalShardedTransport::new(s);
        Engine::oob_sharded(r, &mut transport, item)
    }

    /// Enable the delta op cache on every shard of every node.
    pub fn enable_delta(&mut self, budget_bytes: usize) {
        for n in &mut self.nodes {
            n.enable_delta(budget_bytes);
        }
    }

    /// Turn paranoid mode (per-step §2.1 audits) on or off for every
    /// shard of every node.
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

    /// Check every node's per-shard invariants; panics with the offending
    /// node and shard on violation (test/driver helper).
    pub fn assert_invariants(&self) {
        let clean = self.nodes.iter().all(|n| n.conflicts_declared() == 0);
        for n in &self.nodes {
            let result = if clean { n.check_invariants_clean() } else { n.check_invariants() };
            if let Err(e) = result {
                panic!("invariant violated at {}: {e}", n.id());
            }
        }
    }

    /// True when, for every shard, all owners hold equal shard DBVVs and
    /// no auxiliary state remains — per-shard convergence across the
    /// whole deployment.
    pub fn converged(&self) -> bool {
        ShardId::all(self.map.n_shards()).all(|shard| {
            let states: Vec<_> = self
                .map
                .owners(shard)
                .iter()
                .filter_map(|&n| self.nodes[n.index()].shard_state(shard))
                .collect();
            match states.split_first() {
                None => true,
                Some((first, rest)) => {
                    first.aux_item_count() == 0
                        && rest.iter().all(|r| {
                            r.aux_item_count() == 0
                                && r.dbvv().compare(first.dbvv()) == epidb_vv::VvOrd::Equal
                        })
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
