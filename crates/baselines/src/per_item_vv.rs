//! Baseline: per-item version-vector anti-entropy (§8.3).
//!
//! This is the classic epidemic scheme the paper improves on — the
//! reconciliation style of Ficus/Locus: each anti-entropy round compares
//! the version vectors of **every** data item between the two replicas and
//! copies the items whose remote vector dominates. Correct (it detects all
//! conflicts, never adopts an older copy), but each round costs O(N·n)
//! comparisons and ships O(N·n) bytes of control state no matter how few
//! items changed.

use epidb_common::costs::wire;
use epidb_common::{Costs, Error, ItemId, NodeId, Result};
use epidb_store::{ItemStore, UpdateOp};
use epidb_vv::{row, VersionVector, VvOrd};

use crate::protocol::{SyncProtocol, SyncReport};

/// A cluster of replicas running per-item version-vector anti-entropy.
pub struct PerItemVvCluster {
    nodes: Vec<ItemStore>,
    costs: Vec<Costs>,
}

impl PerItemVvCluster {
    /// Create `n_nodes` empty replicas of an `n_items` database.
    pub fn new(n_nodes: usize, n_items: usize) -> PerItemVvCluster {
        PerItemVvCluster {
            nodes: (0..n_nodes).map(|_| ItemStore::new(n_nodes, n_items)).collect(),
            costs: vec![Costs::ZERO; n_nodes],
        }
    }
}

impl SyncProtocol for PerItemVvCluster {
    fn name(&self) -> &'static str {
        "per-item-vv"
    }

    fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn n_items(&self) -> usize {
        self.nodes[0].n_items()
    }

    fn update(&mut self, node: NodeId, item: ItemId, op: UpdateOp) -> Result<()> {
        let store = self.nodes.get_mut(node.index()).ok_or(Error::UnknownNode(node))?;
        store.apply_local_update(node, item, &op)?;
        Ok(())
    }

    fn sync(&mut self, recipient: NodeId, source: NodeId) -> Result<SyncReport> {
        if recipient == source {
            return Ok(SyncReport { up_to_date: true, ..SyncReport::default() });
        }
        let n = self.n_nodes();
        let n_items = self.n_items();
        let mut report = SyncReport::default();

        // The source ships the IVVs of *all* items for comparison — the
        // per-item granularity of anti-entropy is exactly what makes this
        // scheme O(N).
        let src_control = n_items as u64 * (wire::ITEM_ID + wire::vv(n));
        self.costs[source.index()].charge_message(wire::MSG_HEADER + src_control, 0);

        let mut copied_payload = 0u64;
        let mut copied_control = 0u64;
        for x in ItemId::all(n_items) {
            let ord = {
                let local = self.nodes[recipient.index()].get(x)?;
                let remote = self.nodes[source.index()].get(x)?;
                let mut cmps = 0;
                let ord = row::compare_counted(remote.ivv, local.ivv, &mut cmps);
                self.costs[recipient.index()].vv_entry_cmps += cmps;
                ord
            };
            self.costs[recipient.index()].items_scanned += 1;
            match ord {
                VvOrd::Dominates => {
                    let (value, ivv) = {
                        let remote = self.nodes[source.index()].get(x)?;
                        (remote.value.clone(), VersionVector::from_slice(remote.ivv))
                    };
                    copied_payload += value.len() as u64;
                    copied_control += wire::ITEM_ID;
                    self.nodes[recipient.index()].adopt(x, value, &ivv)?;
                    self.costs[recipient.index()].items_copied += 1;
                    report.items_copied += 1;
                }
                VvOrd::Concurrent => {
                    self.costs[recipient.index()].conflicts_detected += 1;
                    report.conflicts += 1;
                }
                VvOrd::Equal | VvOrd::DominatedBy => {}
            }
        }
        // One transfer message for the adopted copies (if any).
        if report.items_copied > 0 {
            self.costs[source.index()]
                .charge_message(wire::MSG_HEADER + copied_control, copied_payload);
        }
        report.up_to_date = report.items_copied == 0 && report.conflicts == 0;
        Ok(report)
    }

    fn value(&self, node: NodeId, item: ItemId) -> Vec<u8> {
        self.nodes[node.index()].get(item).expect("item").value.as_bytes().to_vec()
    }

    fn costs(&self) -> Costs {
        self.costs.iter().copied().fold(Costs::ZERO, |a, b| a + b)
    }

    fn node_costs(&self, node: NodeId) -> Costs {
        self.costs[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagates_and_converges() {
        let mut c = PerItemVvCluster::new(2, 10);
        c.update(NodeId(0), ItemId(3), UpdateOp::set(&b"v"[..])).unwrap();
        let rep = c.sync(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(rep.items_copied, 1);
        assert!(c.converged());
    }

    #[test]
    fn cost_scales_with_database_size_even_when_nothing_changed() {
        let mut c = PerItemVvCluster::new(2, 1000);
        c.update(NodeId(0), ItemId(0), UpdateOp::set(&b"v"[..])).unwrap();
        c.sync(NodeId(1), NodeId(0)).unwrap();
        let before = c.costs();
        // Replicas identical now — but the protocol still touches all 1000
        // items.
        let rep = c.sync(NodeId(1), NodeId(0)).unwrap();
        assert!(rep.up_to_date);
        let delta = c.costs() - before;
        assert_eq!(delta.items_scanned, 1000);
        assert_eq!(delta.vv_entry_cmps, 2000);
    }

    #[test]
    fn detects_conflicts_without_adopting() {
        let mut c = PerItemVvCluster::new(2, 4);
        c.update(NodeId(0), ItemId(1), UpdateOp::set(&b"a"[..])).unwrap();
        c.update(NodeId(1), ItemId(1), UpdateOp::set(&b"b"[..])).unwrap();
        let rep = c.sync(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(rep.conflicts, 1);
        assert_eq!(rep.items_copied, 0);
        assert_eq!(c.value(NodeId(1), ItemId(1)), b"b");
    }

    #[test]
    fn never_adopts_an_older_copy() {
        let mut c = PerItemVvCluster::new(2, 2);
        c.update(NodeId(0), ItemId(0), UpdateOp::set(&b"v1"[..])).unwrap();
        c.sync(NodeId(1), NodeId(0)).unwrap();
        c.update(NodeId(1), ItemId(0), UpdateOp::append(&b"+"[..])).unwrap();
        // Recipient newer: nothing copied back.
        let rep = c.sync(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(rep.items_copied, 0);
        assert_eq!(c.value(NodeId(1), ItemId(0)), b"v1+");
    }
}
