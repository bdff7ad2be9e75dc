//! Cost parity across runtimes: the same protocol schedule, driven through
//! the in-process engine and the TCP socket runtime (the reactor), must
//! charge byte-for-byte identical [`Costs`] at every node — the engine is
//! the single place costs are accounted, so no runtime can drift.

use epidb::common::Costs;
use epidb::net::{AsyncTcpCluster, AsyncTcpConfig, ShardedConfig, ShardedTcpCluster, TcpConfig};
use epidb::prelude::*;
use epidb::sim::{EpidbCluster, ShardedSimCluster};
use std::time::Duration;

const N_NODES: usize = 3;
const N_ITEMS: usize = 20;
const DELTA_BUDGET: usize = 1 << 20;

/// The deterministic schedule: local updates, whole-item pulls, delta
/// pulls, and an out-of-bound fetch — every exchange kind the engine
/// serves.
trait Runtime {
    fn update(&mut self, node: u16, item: u32, op: UpdateOp);
    fn pull(&mut self, recipient: u16, source: u16);
    fn pull_delta(&mut self, recipient: u16, source: u16);
    fn pull_recon(&mut self, recipient: u16, source: u16);
    fn set_log_retention(&mut self, node: u16, keep: usize);
    fn oob(&mut self, recipient: u16, source: u16, item: u32);
    fn node_costs(&self, node: u16) -> Costs;
    fn value(&self, node: u16, item: u32) -> Vec<u8>;
}

fn run_schedule<R: Runtime>(rt: &mut R) -> Vec<Costs> {
    rt.update(0, 0, UpdateOp::set(&b"alpha-value-at-node-zero"[..]));
    rt.update(1, 1, UpdateOp::set(vec![0x11; 300]));
    rt.pull(1, 0);
    rt.pull(2, 1);
    rt.update(0, 0, UpdateOp::append(&b"-amended"[..]));
    rt.update(0, 2, UpdateOp::set(vec![0x22; 64]));
    rt.pull_delta(1, 0);
    rt.pull_delta(2, 1);
    rt.update(1, 5, UpdateOp::set(&b"hot item"[..]));
    rt.oob(2, 1, 5);
    rt.pull(0, 1);
    // Everyone agrees on the values the schedule propagated.
    for node in 0..N_NODES as u16 {
        assert_eq!(rt.value(node, 0), b"alpha-value-at-node-zero-amended");
    }
    assert_eq!(rt.value(2, 5), b"hot item");
    (0..N_NODES as u16).map(|n| rt.node_costs(n)).collect()
}

/// The recon schedule: seed a divergent pair, compact the source's log so
/// a plain pull can no longer cover the recipient, then reconcile — first
/// explicitly, then via a plain pull that must degrade to recon on its
/// own (the ladder's bottom rung).
fn run_recon_schedule<R: Runtime>(rt: &mut R) -> Vec<Costs> {
    for item in 0..N_ITEMS as u32 {
        rt.update(0, item, UpdateOp::set(vec![item as u8 ^ 0x5a; 24]));
    }
    rt.pull(1, 0);
    rt.update(0, 3, UpdateOp::set(&b"recon-three"[..]));
    rt.update(0, 11, UpdateOp::append(&b"-tail"[..]));
    rt.set_log_retention(0, 1);
    rt.pull_recon(1, 0);
    assert_eq!(rt.value(1, 3), b"recon-three");
    // A second recipient that never synced: plain pull degrades to recon.
    rt.update(0, 7, UpdateOp::set(&b"recon-seven"[..]));
    rt.pull(2, 0);
    assert_eq!(rt.value(2, 7), b"recon-seven");
    (0..N_NODES as u16).map(|n| rt.node_costs(n)).collect()
}

struct InProcess(EpidbCluster);

impl Runtime for InProcess {
    fn update(&mut self, node: u16, item: u32, op: UpdateOp) {
        SyncProtocol::update(&mut self.0, NodeId(node), ItemId(item), op).unwrap();
    }
    fn pull(&mut self, recipient: u16, source: u16) {
        self.0.pull_pair(NodeId(recipient), NodeId(source)).unwrap();
    }
    fn pull_delta(&mut self, recipient: u16, source: u16) {
        self.0.pull_delta_pair(NodeId(recipient), NodeId(source)).unwrap();
    }
    fn pull_recon(&mut self, recipient: u16, source: u16) {
        self.0.pull_recon_pair(NodeId(recipient), NodeId(source)).unwrap();
    }
    fn set_log_retention(&mut self, node: u16, keep: usize) {
        self.0.set_log_retention(NodeId(node), keep);
    }
    fn oob(&mut self, recipient: u16, source: u16, item: u32) {
        self.0.oob(NodeId(recipient), NodeId(source), ItemId(item)).unwrap();
    }
    fn node_costs(&self, node: u16) -> Costs {
        SyncProtocol::node_costs(&self.0, NodeId(node))
    }
    fn value(&self, node: u16, item: u32) -> Vec<u8> {
        self.0.replica(NodeId(node)).read(ItemId(item)).unwrap().as_bytes().to_vec()
    }
}

struct AsyncTcp(AsyncTcpCluster);

impl Runtime for AsyncTcp {
    fn update(&mut self, node: u16, item: u32, op: UpdateOp) {
        self.0.update(NodeId(node), ItemId(item), op).unwrap();
    }
    fn pull(&mut self, recipient: u16, source: u16) {
        self.0.pull_now(NodeId(recipient), NodeId(source)).unwrap();
    }
    fn pull_delta(&mut self, recipient: u16, source: u16) {
        self.0.pull_delta_now(NodeId(recipient), NodeId(source)).unwrap();
    }
    fn pull_recon(&mut self, recipient: u16, source: u16) {
        self.0.pull_recon_now(NodeId(recipient), NodeId(source)).unwrap();
    }
    fn set_log_retention(&mut self, node: u16, keep: usize) {
        self.0.set_log_retention(NodeId(node), keep).unwrap();
    }
    fn oob(&mut self, recipient: u16, source: u16, item: u32) {
        self.0.oob_fetch(NodeId(recipient), NodeId(source), ItemId(item)).unwrap();
    }
    fn node_costs(&self, node: u16) -> Costs {
        self.0.with_replica(NodeId(node), |r| r.costs())
    }
    fn value(&self, node: u16, item: u32) -> Vec<u8> {
        self.0.read(NodeId(node), ItemId(item)).unwrap()
    }
}

/// Gossip disabled (one-minute interval) so the explicit schedule is the
/// only protocol traffic.
fn quiet_async() -> AsyncTcpCluster {
    AsyncTcpCluster::spawn(
        N_NODES,
        N_ITEMS,
        AsyncTcpConfig {
            base: TcpConfig {
                gossip_interval: Duration::from_secs(60),
                delta_budget: DELTA_BUDGET,
                ..TcpConfig::default()
            },
            worker_threads: 2,
        },
    )
    .unwrap()
}

#[test]
fn identical_schedule_charges_identical_costs_everywhere() {
    let mut in_process = EpidbCluster::new(N_NODES, N_ITEMS);
    in_process.enable_delta(DELTA_BUDGET);
    let local = run_schedule(&mut InProcess(in_process));

    let async_tcp = run_schedule(&mut AsyncTcp(quiet_async()));

    for node in 0..N_NODES {
        assert_eq!(
            local[node], async_tcp[node],
            "node {node}: in-process vs async-TCP costs diverge"
        );
    }
    // The schedule actually moved bytes — parity over zeros proves nothing.
    assert!(local.iter().any(|c| c.bytes_sent > 0 && c.messages_sent > 0));
}

#[test]
fn recon_schedule_charges_identical_costs_everywhere() {
    let mut in_process = EpidbCluster::new(N_NODES, N_ITEMS);
    in_process.enable_delta(DELTA_BUDGET);
    let local = run_recon_schedule(&mut InProcess(in_process));

    let async_tcp = run_recon_schedule(&mut AsyncTcp(quiet_async()));

    for node in 0..N_NODES {
        assert_eq!(
            local[node], async_tcp[node],
            "node {node}: recon in-process vs async-TCP costs diverge"
        );
    }
    // The schedule really exercised recon: the source walked its digest
    // tree (items_scanned) rather than just shipping records.
    assert!(local.iter().any(|c| c.items_scanned > 0));
    assert!(local.iter().any(|c| c.bytes_sent > 0 && c.messages_sent > 0));
}

// ---------------------------------------------------------------------------
// Sharded parity: the same per-shard schedule on a 2-groups × 2-nodes
// cluster, across the in-process sharded simulator and the sharded socket
// runtime.
// ---------------------------------------------------------------------------

const SHARDED_NODES: usize = 4;
const ITEMS_PER_SHARD: usize = 8;

fn sharded_map() -> ShardMap {
    ShardMap::new(ITEMS_PER_SHARD, vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]])
}

/// The sharded schedule surface: per-shard pulls (whole and delta) and a
/// cross-group out-of-bound fetch.
trait ShardedRuntime {
    fn update(&mut self, node: u16, item: u32, op: UpdateOp);
    fn pull_shard(&mut self, recipient: u16, source: u16, shard: u16);
    fn pull_delta_shard(&mut self, recipient: u16, source: u16, shard: u16);
    fn pull_recon_shard(&mut self, recipient: u16, source: u16, shard: u16);
    fn set_log_retention(&mut self, node: u16, keep: usize);
    fn oob(&mut self, recipient: u16, source: u16, item: u32);
    fn node_costs(&self, node: u16) -> Costs;
    fn value(&self, node: u16, item: u32) -> Vec<u8>;
}

fn run_sharded_schedule<R: ShardedRuntime>(rt: &mut R) -> Vec<Costs> {
    // Group {0,1} owns shard 0 (items 0..8); group {2,3} owns shard 1
    // (items 8..16). Updates land at owners, propagate within groups, and
    // one hot item crosses groups out-of-bound.
    rt.update(0, 1, UpdateOp::set(&b"shard-zero-value"[..]));
    rt.update(2, 9, UpdateOp::set(vec![0x33; 200]));
    rt.pull_shard(1, 0, 0);
    rt.pull_shard(3, 2, 1);
    rt.update(1, 1, UpdateOp::append(&b"-amended"[..]));
    rt.update(3, 12, UpdateOp::set(vec![0x44; 48]));
    rt.pull_delta_shard(0, 1, 0);
    rt.pull_delta_shard(2, 3, 1);
    rt.oob(0, 2, 9); // cross-group: node 0 fetches a shard-1 item
    assert_eq!(rt.value(0, 1), b"shard-zero-value-amended");
    assert_eq!(rt.value(2, 12), vec![0x44; 48]);
    // Recon rung: compact node 0's shard logs, advance an item, and let
    // node 1 reconcile shard 0 via the digest tree.
    rt.update(0, 2, UpdateOp::set(&b"recon-two"[..]));
    rt.set_log_retention(0, 1);
    rt.pull_recon_shard(1, 0, 0);
    assert_eq!(rt.value(1, 2), b"recon-two");
    (0..SHARDED_NODES as u16).map(|n| rt.node_costs(n)).collect()
}

struct ShardedInProcess(ShardedSimCluster);

impl ShardedRuntime for ShardedInProcess {
    fn update(&mut self, node: u16, item: u32, op: UpdateOp) {
        self.0.update(NodeId(node), ItemId(item), op).unwrap();
    }
    fn pull_shard(&mut self, recipient: u16, source: u16, shard: u16) {
        self.0.pull_shard(NodeId(recipient), NodeId(source), ShardId(shard)).unwrap();
    }
    fn pull_delta_shard(&mut self, recipient: u16, source: u16, shard: u16) {
        self.0.pull_delta_shard(NodeId(recipient), NodeId(source), ShardId(shard)).unwrap();
    }
    fn pull_recon_shard(&mut self, recipient: u16, source: u16, shard: u16) {
        self.0.pull_recon_shard(NodeId(recipient), NodeId(source), ShardId(shard)).unwrap();
    }
    fn set_log_retention(&mut self, node: u16, keep: usize) {
        self.0.set_log_retention(NodeId(node), keep);
    }
    fn oob(&mut self, recipient: u16, source: u16, item: u32) {
        self.0.oob(NodeId(recipient), NodeId(source), ItemId(item)).unwrap();
    }
    fn node_costs(&self, node: u16) -> Costs {
        self.0.node_costs(NodeId(node))
    }
    fn value(&self, node: u16, item: u32) -> Vec<u8> {
        self.0.read(NodeId(node), ItemId(item)).unwrap()
    }
}

struct ShardedTcp(ShardedTcpCluster);

impl ShardedRuntime for ShardedTcp {
    fn update(&mut self, node: u16, item: u32, op: UpdateOp) {
        self.0.update(NodeId(node), ItemId(item), op).unwrap();
    }
    fn pull_shard(&mut self, recipient: u16, source: u16, shard: u16) {
        self.0.pull_shard_now(NodeId(recipient), NodeId(source), ShardId(shard)).unwrap();
    }
    fn pull_delta_shard(&mut self, recipient: u16, source: u16, shard: u16) {
        self.0.pull_delta_shard_now(NodeId(recipient), NodeId(source), ShardId(shard)).unwrap();
    }
    fn pull_recon_shard(&mut self, recipient: u16, source: u16, shard: u16) {
        self.0.pull_recon_shard_now(NodeId(recipient), NodeId(source), ShardId(shard)).unwrap();
    }
    fn set_log_retention(&mut self, node: u16, keep: usize) {
        self.0.set_log_retention(NodeId(node), keep).unwrap();
    }
    fn oob(&mut self, recipient: u16, source: u16, item: u32) {
        self.0.oob_fetch(NodeId(recipient), NodeId(source), ItemId(item)).unwrap();
    }
    fn node_costs(&self, node: u16) -> Costs {
        self.0.node_costs(NodeId(node))
    }
    fn value(&self, node: u16, item: u32) -> Vec<u8> {
        self.0.read(NodeId(node), ItemId(item)).unwrap()
    }
}

fn quiet_sharded() -> ShardedConfig {
    ShardedConfig {
        gossip_interval: Duration::from_secs(60),
        delta_budget: DELTA_BUDGET,
        ..ShardedConfig::default()
    }
}

#[test]
fn sharded_schedule_charges_identical_costs_everywhere() {
    let mut in_process = ShardedSimCluster::new(sharded_map(), SHARDED_NODES);
    in_process.enable_delta(DELTA_BUDGET);
    let local = run_sharded_schedule(&mut ShardedInProcess(in_process));

    let tcp = run_sharded_schedule(&mut ShardedTcp(
        ShardedTcpCluster::spawn(sharded_map(), SHARDED_NODES, quiet_sharded()).unwrap(),
    ));

    for node in 0..SHARDED_NODES {
        assert_eq!(local[node], tcp[node], "node {node}: sharded in-process vs TCP costs diverge");
    }
    assert!(local.iter().any(|c| c.bytes_sent > 0 && c.messages_sent > 0));
}
