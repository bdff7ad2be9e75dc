//! The experiment suite: one module per table/figure in EXPERIMENTS.md.
//!
//! The paper is a protocol paper — its figures are pseudocode and a data
//! structure diagram, and it reports no measured tables. Its evaluation is
//! the analytical complexity claims of §6 plus the protocol comparisons of
//! §8. Each module below regenerates one of those claims as a measured
//! table (see DESIGN.md §4 for the index):
//!
//! * [`t1`] — anti-entropy overhead vs. database size N (O(m) vs O(N))
//! * [`t2`] — propagation overhead vs. number of changed items m
//! * [`t3`] — originator failure: Oracle push vs. epidemic forwarding
//! * [`t4`] — out-of-bound copying overhead vs. OOB fraction
//! * [`t5`] — log size bound: n·N compaction vs. per-update logs
//! * [`t6`] — bytes on the wire per propagation
//! * [`f2`] — identical-replica detection cost (the Lotus comparison)
//! * [`f3`] — epidemic convergence: rounds and total overhead
//! * [`f4`] — conflict handling: detection vs. silent loss
//! * [`f5`] — scaling with the number of servers n
//!
//! Every experiment takes a `quick` flag: `true` shrinks sizes so the whole
//! suite runs in seconds (used by tests), `false` uses the full sweeps
//! recorded in EXPERIMENTS.md.

pub mod f2;
pub mod f3;
pub mod f4;
pub mod f5;
pub mod f6;
pub mod t1;
pub mod t2;
pub mod t3;
pub mod t4;
pub mod t5;
pub mod t6;
pub mod t8;

use epidb_baselines::{LotusCluster, PerItemVvCluster, SyncProtocol, WuuBernsteinCluster};
use epidb_common::{ItemId, NodeId};
use epidb_store::UpdateOp;

use crate::cluster::EpidbCluster;

/// Build the pull-based protocol set for one configuration, paper's
/// protocol first.
pub(crate) fn pull_protocols(n_nodes: usize, n_items: usize) -> Vec<Box<dyn SyncProtocol>> {
    vec![
        Box::new(EpidbCluster::new(n_nodes, n_items)),
        Box::new(PerItemVvCluster::new(n_nodes, n_items)),
        Box::new(LotusCluster::new(n_nodes, n_items)),
        Box::new(WuuBernsteinCluster::new(n_nodes, n_items)),
    ]
}

/// Apply `m` updates at `node`, each to a distinct item (items `0..m`),
/// `updates_per_item` times each, with `value_size`-byte payloads.
pub(crate) fn apply_distinct_updates(
    proto: &mut dyn SyncProtocol,
    node: NodeId,
    m: usize,
    updates_per_item: usize,
    value_size: usize,
) {
    assert!(m <= proto.n_items());
    for round in 0..updates_per_item {
        for i in 0..m {
            let mut payload = vec![0u8; value_size.max(8)];
            payload[..4].copy_from_slice(&(i as u32).to_le_bytes());
            payload[4..8].copy_from_slice(&(round as u32).to_le_bytes());
            proto.update(node, ItemId::from_index(i), UpdateOp::set(payload)).expect("update");
        }
    }
}
