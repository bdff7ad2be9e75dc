//! Adapter driving the paper's protocol through the common
//! [`SyncProtocol`] interface, so every experiment runs the paper's
//! protocol and the baselines over identical workloads and schedules.

use epidb_baselines::{SyncProtocol, SyncReport};
use epidb_common::{Costs, Error, ItemId, NodeId, Result};
use epidb_core::{
    ChaosLink, ChaosTransport, ConflictPolicy, Engine, LocalTransport, OobOutcome, PullOutcome,
    Replica, RetryPolicy,
};
use epidb_store::UpdateOp;

/// A cluster of [`Replica`]s running the paper's protocol.
pub struct EpidbCluster {
    replicas: Vec<Replica>,
}

impl EpidbCluster {
    /// Create `n_nodes` replicas of an `n_items` database (conflicts
    /// reported, as in the paper).
    pub fn new(n_nodes: usize, n_items: usize) -> EpidbCluster {
        EpidbCluster::with_policy(n_nodes, n_items, ConflictPolicy::Report)
    }

    /// As [`new`](Self::new) with an explicit conflict policy.
    pub fn with_policy(n_nodes: usize, n_items: usize, policy: ConflictPolicy) -> EpidbCluster {
        EpidbCluster {
            replicas: (0..n_nodes)
                .map(|i| Replica::with_policy(NodeId::from_index(i), n_nodes, n_items, policy))
                .collect(),
        }
    }

    /// Shared access to one replica.
    pub fn replica(&self, node: NodeId) -> &Replica {
        &self.replicas[node.index()]
    }

    /// Mutable access to one replica.
    pub fn replica_mut(&mut self, node: NodeId) -> &mut Replica {
        &mut self.replicas[node.index()]
    }

    /// Borrow two distinct replicas mutably.
    fn pair_mut(&mut self, a: NodeId, b: NodeId) -> (&mut Replica, &mut Replica) {
        assert_ne!(a, b, "need two distinct replicas");
        let (ai, bi) = (a.index(), b.index());
        if ai < bi {
            let (lo, hi) = self.replicas.split_at_mut(bi);
            (&mut lo[ai], &mut hi[0])
        } else {
            let (lo, hi) = self.replicas.split_at_mut(ai);
            let (x, y) = (&mut hi[0], &mut lo[bi]);
            (x, y)
        }
    }

    /// One anti-entropy pull: `recipient` from `source` (§5.1), driven
    /// through the engine over the in-process [`LocalTransport`] — the
    /// same dispatch surface the TCP runtime uses.
    pub fn pull_pair(&mut self, recipient: NodeId, source: NodeId) -> Result<PullOutcome> {
        let (r, s) = self.pair_mut(recipient, source);
        Engine::pull(r, &mut LocalTransport::new(s))
    }

    /// One out-of-bound copy of `item`: `recipient` from `source` (§5.2).
    pub fn oob(&mut self, recipient: NodeId, source: NodeId, item: ItemId) -> Result<OobOutcome> {
        let (r, s) = self.pair_mut(recipient, source);
        Engine::oob(r, &mut LocalTransport::new(s), item)
    }

    /// One delta-mode pull (§2's update-record shipping, see
    /// `epidb_core::delta`): `recipient` from `source`.
    pub fn pull_delta_pair(&mut self, recipient: NodeId, source: NodeId) -> Result<PullOutcome> {
        let (r, s) = self.pair_mut(recipient, source);
        Engine::pull_delta(r, &mut LocalTransport::new(s))
    }

    /// One set-reconciliation pull (§15 of the protocol doc): `recipient`
    /// from `source`, descending the digest tree and shipping only the
    /// differing items — the cold-start rung below whole-pull.
    pub fn pull_recon_pair(&mut self, recipient: NodeId, source: NodeId) -> Result<PullOutcome> {
        let (r, s) = self.pair_mut(recipient, source);
        Engine::pull_recon(r, &mut LocalTransport::new(s))
    }

    /// Bound log-vector retention at `node` to `keep` records per
    /// (origin, item) component, raising its coverage floor as pruning
    /// proceeds. Pulls against this node may then degrade to recon.
    pub fn set_log_retention(&mut self, node: NodeId, keep: usize) {
        self.replicas[node.index()].set_log_retention(keep);
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
        let (r, s) = self.pair_mut(recipient, source);
        let mut transport = ChaosTransport::new(LocalTransport::new(s), link);
        Engine::pull_delta_with(r, &mut transport, policy)
    }

    /// Enable the delta op cache on every replica.
    pub fn enable_delta(&mut self, budget_bytes: usize) {
        for r in &mut self.replicas {
            r.enable_delta(budget_bytes);
        }
    }

    /// Turn paranoid mode (per-step invariant audits + protocol tracing)
    /// on or off at every replica. A violation anywhere panics with that
    /// replica's trace, whose last event names the offending step.
    pub fn set_paranoid(&mut self, on: bool) {
        for r in &mut self.replicas {
            r.set_paranoid(on);
        }
    }

    /// Total paranoid post-step audits run across the cluster.
    pub fn paranoid_audits_total(&self) -> u64 {
        self.replicas.iter().map(Replica::audits_run).sum()
    }

    /// Check every replica's invariants (panics with the report on
    /// failure — test/driver helper). While no conflict has been declared
    /// anywhere, the stricter conflict-free invariants apply as well.
    pub fn assert_invariants(&self) {
        let clean = self.conflicts_declared() == 0;
        for r in &self.replicas {
            let result = if clean { r.check_invariants_clean() } else { r.check_invariants() };
            if let Err(e) = result {
                panic!("invariant violated at {}: {e}", r.id());
            }
        }
    }

    /// Total conflict events declared across the cluster so far.
    pub fn conflicts_declared(&self) -> u64 {
        self.replicas.iter().map(|r| r.costs().conflicts_detected).sum()
    }

    /// Total auxiliary copies currently held across the cluster.
    pub fn aux_items_total(&self) -> usize {
        self.replicas.iter().map(Replica::aux_item_count).sum()
    }

    /// Total bytes currently held in auxiliary logs (the storage price of
    /// out-of-bound copying, §6).
    pub fn aux_log_bytes(&self) -> usize {
        self.replicas.iter().map(|r| r.aux_log().payload_bytes()).sum()
    }

    /// True when, additionally to value convergence, no auxiliary state
    /// remains anywhere (every out-of-bound copy was reabsorbed).
    pub fn fully_converged(&self) -> bool {
        self.converged() && self.aux_items_total() == 0
    }
}

impl SyncProtocol for EpidbCluster {
    fn name(&self) -> &'static str {
        "epidb"
    }

    fn n_nodes(&self) -> usize {
        self.replicas.len()
    }

    fn n_items(&self) -> usize {
        self.replicas[0].n_items()
    }

    fn update(&mut self, node: NodeId, item: ItemId, op: UpdateOp) -> Result<()> {
        self.replicas.get_mut(node.index()).ok_or(Error::UnknownNode(node))?.update(item, op)
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
        self.replicas[node.index()].read_regular(item).expect("item exists").as_bytes().to_vec()
    }

    fn costs(&self) -> Costs {
        self.replicas.iter().map(|r| r.costs()).fold(Costs::ZERO, |a, b| a + b)
    }

    fn node_costs(&self, node: NodeId) -> Costs {
        self.replicas[node.index()].costs()
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
        assert!(c.converged());
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
        assert!(c.converged());
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
