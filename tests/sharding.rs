//! Integration tests for sharded partial replication: per-shard
//! convergence under chaos, ownership-scoped costs, typed routing errors,
//! and the durable shard-handoff flow (snapshot-ship + WAL-tail catch-up)
//! with §2.1 invariants verified at every step.

use std::sync::Arc;

use epidb::core::{ChaosLink, FaultPlan, RetryPolicy};
use epidb::durable::{DurabilityConfig, GroupWal, RecoveryReport, StreamSpec};
use epidb::prelude::*;
use epidb::sim::ShardedSimCluster;

/// 4 nodes, 2 groups × 2 nodes, disjoint shard sets (2 shards × 4 items).
fn two_group_map() -> ShardMap {
    ShardMap::new(4, vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]])
}

#[test]
fn sharded_cluster_converges_per_shard_under_chaos_with_audits_on() {
    let mut cluster = ShardedSimCluster::new(two_group_map(), 4);
    cluster.set_paranoid(true);

    // Single-writer-per-item workload across both groups.
    for i in 0..4u32 {
        cluster.update(NodeId(0), ItemId(i), UpdateOp::set(vec![i as u8; 32])).unwrap();
        cluster.update(NodeId(2), ItemId(4 + i), UpdateOp::set(vec![0x40 + i as u8; 32])).unwrap();
    }

    // Lossy, duplicating, corrupting links; retries absorb the chaos.
    let policy = RetryPolicy::attempts(48);
    let mut links: Vec<ChaosLink> =
        (0..4).map(|i| ChaosLink::new(0xC0FFEE + i as u64, FaultPlan::lossy(0.25))).collect();
    let pairs = [
        (NodeId(1), NodeId(0), ShardId(0)),
        (NodeId(0), NodeId(1), ShardId(0)),
        (NodeId(3), NodeId(2), ShardId(1)),
        (NodeId(2), NodeId(3), ShardId(1)),
    ];
    for sweep in 0..12 {
        for (k, &(r, s, shard)) in pairs.iter().enumerate() {
            let _ = cluster.pull_shard_chaos(r, s, shard, &mut links[k], &policy);
        }
        if cluster.converged() {
            assert!(sweep < 12);
            break;
        }
    }
    assert!(cluster.converged(), "sharded cluster did not converge under chaos");
    cluster.assert_invariants();
    assert!(cluster.paranoid_audits_total() > 0, "paranoid audits must have run");
    for i in 0..4u32 {
        assert_eq!(cluster.read(NodeId(1), ItemId(i)).unwrap(), vec![i as u8; 32]);
        assert_eq!(cluster.read(NodeId(3), ItemId(4 + i)).unwrap(), vec![0x40 + i as u8; 32]);
    }
}

#[test]
fn node_costs_cover_only_owned_shards() {
    let mut cluster = ShardedSimCluster::new(two_group_map(), 4);

    // Group 0 does one small sync; record its nodes' costs.
    cluster.update(NodeId(0), ItemId(0), UpdateOp::set(&b"g0"[..])).unwrap();
    cluster.pull_shard(NodeId(1), NodeId(0), ShardId(0)).unwrap();
    let n0_before = cluster.node_costs(NodeId(0));
    let n1_before = cluster.node_costs(NodeId(1));

    // Group 1 then runs a much heavier workload on its own shard.
    for round in 0..20u32 {
        for i in 4..8u32 {
            cluster.update(NodeId(2), ItemId(i), UpdateOp::set(vec![round as u8; 128])).unwrap();
        }
        cluster.pull_shard(NodeId(3), NodeId(2), ShardId(1)).unwrap();
    }

    // Partial replication: the other group's traffic costs group 0 nothing.
    assert_eq!(cluster.node_costs(NodeId(0)), n0_before);
    assert_eq!(cluster.node_costs(NodeId(1)), n1_before);
    assert!(cluster.node_costs(NodeId(3)).bytes_sent > n1_before.bytes_sent);

    // And each node's total is exactly the sum of its owned shards (no
    // cross-group meta-traffic ran here).
    let n3 = cluster.node(NodeId(3));
    let owned_sum = n3
        .owned_shards()
        .into_iter()
        .map(|s| n3.shard_costs(s).unwrap())
        .fold(Costs::default(), |a, b| a + b);
    assert_eq!(n3.costs(), owned_sum);
}

#[test]
fn routing_errors_are_typed() {
    let mut cluster = ShardedSimCluster::new(two_group_map(), 4);
    // Unknown-shard routing: non-retryable, carries the owning group.
    match cluster.update(NodeId(0), ItemId(5), UpdateOp::set(&b"x"[..])) {
        Err(e @ Error::NotServedHere { .. }) => {
            assert!(!e.is_retryable());
            if let Error::NotServedHere { shard, owners } = e {
                assert_eq!(shard, ShardId(1));
                assert_eq!(owners, vec![NodeId(2), NodeId(3)]);
            }
        }
        other => panic!("expected NotServedHere, got {other:?}"),
    }
    // Mid-handoff: retryable.
    cluster.node_mut(NodeId(0)).freeze_shard(ShardId(0)).unwrap();
    match cluster.read(NodeId(0), ItemId(0)) {
        Err(e @ Error::ShardMoving(_)) => assert!(e.is_retryable()),
        other => panic!("expected ShardMoving, got {other:?}"),
    }
    // Items outside the universe are unknown, not misrouted.
    assert!(matches!(cluster.read(NodeId(0), ItemId(99)), Err(Error::UnknownItem(ItemId(99)))));
}

/// Open node `node`'s group WAL with one stream per shard it owns (in
/// `owned_shards` order), returning the WAL, the recovered shard
/// replicas and the recovery report.
fn open_shard_wal(
    cfg: &DurabilityConfig,
    node: &ShardedNode,
) -> (Arc<GroupWal>, Vec<Replica>, RecoveryReport) {
    let streams: Vec<StreamSpec> = node
        .owned_shards()
        .into_iter()
        .map(|_| StreamSpec {
            id: node.id(),
            n_nodes: node.n_nodes(),
            n_items: node.map().items_per_shard(),
        })
        .collect();
    GroupWal::open(cfg, cfg.node_dir(node.id()), &streams, ConflictPolicy::Report, 0).unwrap()
}

/// The dedicated durable-handoff test: shard 0 moves from group {0,1} to
/// node 2 by shipping a *real* durable snapshot plus the WAL records
/// written after it, with reads refused during the cutover window and the
/// §2.1 invariants checked on the moved replica — then the target's own
/// group WAL recovers the moved shard from disk.
#[test]
fn durable_handoff_ships_snapshot_plus_wal_tail() {
    let tmp = epidb::durable::testdir::TempDir::new("sharded-handoff");
    // Large checkpoint interval: the WAL tail must stay in the current
    // generation between the snapshot and the cutover.
    let source_cfg = DurabilityConfig {
        checkpoint_every: 10_000,
        ..DurabilityConfig::new(tmp.path().join("source"))
    };

    // The source journals each owned shard as one stream of its group WAL.
    let mut n0 = ShardedNode::new(NodeId(0), 4, two_group_map(), ConflictPolicy::Report);
    let owned = n0.owned_shards();
    assert_eq!(owned, vec![ShardId(0)]);
    let (source_wal, recovered, _) = open_shard_wal(&source_cfg, &n0);
    for (stream, (shard, mut replica)) in owned.into_iter().zip(recovered).enumerate() {
        source_wal.attach(stream, &mut replica);
        n0.adopt_shard(shard, replica);
    }
    n0.set_paranoid(true);

    // Pre-snapshot history, journaled per shard.
    n0.update(ItemId(0), UpdateOp::set(&b"pre-snapshot"[..])).unwrap();
    n0.update(ItemId(1), UpdateOp::set(&b"also-pre"[..])).unwrap();

    // Snapshot point: remember how many WAL records it covers (shard 0 is
    // the WAL's only stream, so its records are all of them).
    let skip = source_wal.wal_records();
    assert_eq!(skip, 2);
    let snapshot = n0.shard_snapshot(ShardId(0)).unwrap();

    // Post-snapshot history — the tail the handoff must not lose.
    n0.update(ItemId(1), UpdateOp::append(&b"+tail"[..])).unwrap();
    n0.update(ItemId(2), UpdateOp::set(&b"tail-only"[..])).unwrap();

    // Cutover: freeze, read the durable tail, ship.
    n0.freeze_shard(ShardId(0)).unwrap();
    source_wal.wait_durable();
    let tail = source_wal.read_wal_tail(0, skip).unwrap();
    assert_eq!(tail.len(), 2, "exactly the post-snapshot records ship");
    match n0.update(ItemId(0), UpdateOp::set(&b"late"[..])) {
        Err(e @ Error::ShardMoving(_)) => assert!(e.is_retryable()),
        other => panic!("the cutover window must refuse retryably, got {other:?}"),
    }

    // Install at the target; the window stays closed until completion.
    let mut n2 = ShardedNode::new(NodeId(2), 4, two_group_map(), ConflictPolicy::Report);
    n2.install_shard(ShardId(0), &snapshot, &tail).unwrap();
    assert!(matches!(n2.read(ItemId(0)), Err(Error::ShardMoving(ShardId(0)))));

    // Map reassignment + completion on both sides.
    for n in [&mut n0, &mut n2] {
        n.reassign(ShardId(0), vec![NodeId(2)]);
    }
    n0.remove_shard(ShardId(0));
    n2.complete_handoff(ShardId(0));

    // Full history serves at the new home, §2.1 intact.
    assert_eq!(n2.read(ItemId(0)).unwrap().as_bytes(), b"pre-snapshot");
    assert_eq!(n2.read(ItemId(1)).unwrap().as_bytes(), b"also-pre+tail");
    assert_eq!(n2.read(ItemId(2)).unwrap().as_bytes(), b"tail-only");
    n2.check_invariants_clean().unwrap();
    match n0.read(ItemId(0)) {
        Err(Error::NotServedHere { owners, .. }) => assert_eq!(owners, vec![NodeId(2)]),
        other => panic!("the old owner must redirect, got {other:?}"),
    }

    // The target now owns the shard durably: checkpoint its owned shards
    // (the moved one and its own) into the streams of its group WAL, then
    // prove a cold restart recovers the full (snapshot + tail) history
    // from the target's disk.
    let target_cfg = DurabilityConfig {
        checkpoint_every: 10_000,
        ..DurabilityConfig::new(tmp.path().join("target"))
    };
    assert_eq!(n2.owned_shards(), vec![ShardId(0), ShardId(1)]);
    {
        let (target_wal, _, _) = open_shard_wal(&target_cfg, &n2);
        let states: Vec<&Replica> =
            n2.owned_shards().into_iter().map(|s| n2.shard_state(s).unwrap()).collect();
        target_wal.checkpoint(&states).unwrap();
        let moved = n2.shard_state_mut(ShardId(0)).unwrap();
        target_wal.attach(0, moved);
        moved.update(ItemId(3), UpdateOp::set(&b"post-handoff"[..])).unwrap();
    }
    let (_, recovered, report) = open_shard_wal(&target_cfg, &n2);
    assert_eq!(report.snapshots_loaded, 2);
    let recovered = &recovered[0];
    assert_eq!(recovered.read(ItemId(0)).unwrap().as_bytes(), b"pre-snapshot");
    assert_eq!(recovered.read(ItemId(1)).unwrap().as_bytes(), b"also-pre+tail");
    assert_eq!(recovered.read(ItemId(3)).unwrap().as_bytes(), b"post-handoff");
    recovered.check_invariants().unwrap();
}
