//! Integration: snapshot persistence composed with live runtimes — a node
//! crashes, its state is restored from a snapshot, and it rejoins a
//! running cluster via ordinary anti-entropy.

use epidb::prelude::*;
use epidb::sim::EpidbCluster;

#[test]
fn restored_replica_rejoins_simulated_cluster() {
    let mut cluster = EpidbCluster::new(3, 100);
    for i in 0..30u32 {
        cluster
            .update(NodeId((i % 3) as u16), ItemId(i), UpdateOp::set(vec![i as u8; 16]))
            .unwrap();
    }
    for _ in 0..3 {
        for r in 0..3 {
            for s in 0..3 {
                if r != s {
                    cluster.pull_pair(NodeId(r), NodeId(s)).unwrap();
                }
            }
        }
    }
    assert!(cluster.fully_converged());

    // "Crash" node 2: persist, replace its state with a blank replica (as
    // if the disk were the snapshot and memory was lost)...
    let snapshot = cluster.replica(NodeId(2)).to_snapshot();
    *cluster.replica_mut(NodeId(2)) = Replica::from_snapshot(&snapshot).unwrap();

    // ...updates continue elsewhere while it was down...
    cluster.update(NodeId(0), ItemId(99), UpdateOp::set(&b"while-down"[..])).unwrap();

    // ...and ordinary anti-entropy completes the recovery.
    let out = cluster.pull_pair(NodeId(2), NodeId(0)).unwrap();
    assert_eq!(out.copied(), &[ItemId(99)]);
    assert_eq!(cluster.replica(NodeId(2)).read(ItemId(99)).unwrap().as_bytes(), b"while-down");
    cluster.assert_invariants();
}

#[test]
fn snapshot_sizes_scale_with_content_not_history() {
    // Thousands of updates to few items: the snapshot holds current state
    // + bounded logs, not the update history.
    let mut a = Replica::new(NodeId(0), 2, 50);
    for k in 0..5_000u64 {
        a.update(ItemId((k % 5) as u32), UpdateOp::set(k.to_le_bytes().to_vec())).unwrap();
    }
    let buf = a.to_snapshot();
    // 50 items x (8B value + vv) + 5 log records + headers: well under
    // 8 KiB despite 5_000 updates.
    assert!(buf.len() < 8_192, "snapshot unexpectedly large: {} bytes", buf.len());
    let restored = Replica::from_snapshot(&buf).unwrap();
    assert_eq!(restored.dbvv().total(), 5_000);
    assert_eq!(restored.log().total_len(), 5);
}
