//! Many databases per node (§2): "a separate instance of the protocol runs
//! for each database." Each shard is one such instance, with its own DBVV,
//! replicated only by its own group of nodes.
//!
//! Run with: `cargo run --example sharding`

use epidb::prelude::*;
use epidb::sim::ShardedSimCluster;

fn main() -> Result<()> {
    // Shard s0 ("mail", items 0..1000) lives on n0 and n1; shard s1
    // ("docs", items 1000..2000) lives on n2 and n3.
    let map = ShardMap::new(1_000, vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]]);
    let mut cluster = ShardedSimCluster::new(map, 4);
    cluster.update(NodeId(0), ItemId(42), UpdateOp::set(&b"welcome aboard"[..]))?;
    cluster.update(NodeId(2), ItemId(1_007), UpdateOp::set(&b"handbook v3"[..]))?;
    cluster.update(NodeId(1), ItemId(99), UpdateOp::set(&b"branch news"[..]))?;

    // Per-shard pulls: each group runs the protocol on its own shard only.
    let out = cluster.pull_shard(NodeId(1), NodeId(0), ShardId(0))?;
    assert_eq!(out.copied(), &[ItemId(42)]);
    let out = cluster.pull_shard(NodeId(0), NodeId(1), ShardId(0))?;
    assert_eq!(out.copied(), &[ItemId(99)]);
    cluster.pull_shard(NodeId(3), NodeId(2), ShardId(1))?;
    assert!(cluster.converged());
    assert_eq!(cluster.read(NodeId(3), ItemId(1_007))?, b"handbook v3");

    // Per-shard DBVVs: mail has 2 updates, docs 1, and n0 holds no docs.
    assert_eq!(cluster.node(NodeId(0)).shard(ShardId(0))?.dbvv().total(), 2);
    assert_eq!(cluster.node(NodeId(2)).shard(ShardId(1))?.dbvv().total(), 1);
    assert_eq!(cluster.node(NodeId(0)).owned_shards(), vec![ShardId(0)]);

    // A read at a non-owner is refused with a redirect to the owners.
    match cluster.read(NodeId(0), ItemId(1_007)) {
        Err(Error::NotServedHere { shard, owners }) => {
            println!("n0 refuses {shard}: owners {owners:?}");
            assert_eq!((shard, owners), (ShardId(1), vec![NodeId(2), NodeId(3)]));
        }
        other => panic!("expected a redirect, got {other:?}"),
    }

    // A cross-group out-of-bound fetch reads the item without owning it.
    match cluster.oob(NodeId(0), NodeId(3), ItemId(1_007))? {
        ShardedOob::Fetched { value, .. } => assert_eq!(&value[..], b"handbook v3"),
        other => panic!("expected a cross-group fetch, got {other:?}"),
    }
    cluster.assert_invariants();
    println!("both groups consistent, each on its own shard");
    Ok(())
}
