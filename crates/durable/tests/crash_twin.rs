//! Grounds the model checker's crash semantics against real disk
//! recovery: `ShardedNode::crash_recovered` (a pure in-memory snapshot
//! round-trip of every owned shard) must produce the same node state — by
//! canonical fingerprint — that `GroupWal::open` reconstructs from the
//! WAL/snapshot files after an actual crash, for an unsharded (one-shard)
//! node and for a node owning two shards.

use std::sync::Arc;

use epidb_common::{ItemId, NodeId, ShardId};
use epidb_core::{oob_copy, pull, pull_delta, ConflictPolicy, Replica, ShardMap, ShardedNode};
use epidb_durable::testdir::TempDir;
use epidb_durable::{DurabilityConfig, GroupWal, StreamSpec};
use epidb_store::UpdateOp;

const N_NODES: usize = 3;
const N_ITEMS: usize = 12;
const DELTA_BUDGET: usize = 1 << 16;
const ME: NodeId = NodeId(1);

/// Node `ME` of a deployment whose `n_shards` shards are all replicated
/// everywhere — one shard is the unsharded node — recovered from (or
/// started on) its group WAL, one stream per owned shard.
fn open(cfg: &DurabilityConfig, n_shards: usize) -> (Arc<GroupWal>, ShardedNode) {
    let map = ShardMap::new(N_ITEMS, vec![NodeId::all(N_NODES).collect(); n_shards]);
    let mut node = ShardedNode::new(ME, N_NODES, map, ConflictPolicy::Report);
    let spec = vec![StreamSpec { id: ME, n_nodes: N_NODES, n_items: N_ITEMS }; n_shards];
    let (wal, replicas, _) =
        GroupWal::open(cfg, cfg.node_dir(ME), &spec, ConflictPolicy::Report, DELTA_BUDGET).unwrap();
    for (k, mut r) in replicas.into_iter().enumerate() {
        wal.attach(k, &mut r);
        node.adopt_shard(ShardId::from_index(k), r);
    }
    (wal, node)
}

fn shard0(node: &mut ShardedNode) -> &mut Replica {
    node.shard_state_mut(ShardId(0)).unwrap()
}

/// Every mutation kind the WAL journals: whole-item pulls, delta pulls,
/// local updates, OOB adoption, and auxiliary updates.
fn mixed_workload(node: &mut Replica) {
    let mut peer = Replica::new(NodeId(0), N_NODES, N_ITEMS);
    peer.enable_delta(DELTA_BUDGET);
    peer.update(ItemId(0), UpdateOp::set(vec![1u8; 400])).unwrap();
    peer.update(ItemId(1), UpdateOp::set(&b"one"[..])).unwrap();
    pull(node, &mut peer).unwrap();
    node.update(ItemId(2), UpdateOp::set(&b"mine"[..])).unwrap();
    peer.update(ItemId(0), UpdateOp::append(&b"+edit"[..])).unwrap();
    pull_delta(node, &mut peer).unwrap();
    peer.update(ItemId(3), UpdateOp::set(&b"oob-val"[..])).unwrap();
    oob_copy(node, &mut peer, ItemId(3)).unwrap();
    node.update(ItemId(3), UpdateOp::append(&b"+aux"[..])).unwrap();
}

#[test]
fn crash_twin_matches_disk_recovery() {
    let tmp = TempDir::new("crash-twin");
    let cfg = DurabilityConfig::new(tmp.path());
    let (d, mut node) = open(&cfg, 1);
    mixed_workload(shard0(&mut node));
    // Checkpoint so the recovered op cache is cold, matching the crash
    // image's deliberate approximation (see `crash_recovered`'s docs).
    d.checkpoint(&[node.shard_state(ShardId(0)).unwrap()]).unwrap();

    let twin = node.crash_recovered(DELTA_BUDGET).unwrap();
    drop(d);
    drop(node); // the crash

    let (_d2, mut recovered) = open(&cfg, 1);
    assert_eq!(
        twin.fingerprint(),
        recovered.fingerprint(),
        "crash image diverged from real disk recovery"
    );
    let recovered = shard0(&mut recovered);
    assert!(twin.shard_state(ShardId(0)).unwrap().is_restored() && recovered.is_restored());
    recovered.check_invariants().unwrap();
}

#[test]
fn crash_twin_loses_exactly_the_ephemeral_state() {
    let tmp = TempDir::new("crash-twin-ephemeral");
    let cfg = DurabilityConfig::new(tmp.path());
    let (_d, mut node) = open(&cfg, 1);
    mixed_workload(shard0(&mut node));

    let twin = node.crash_recovered(DELTA_BUDGET).unwrap();
    let (node, twin) =
        (node.shard_state(ShardId(0)).unwrap(), twin.shard_state(ShardId(0)).unwrap());
    // Durable content is intact...
    for x in ItemId::all(N_ITEMS) {
        assert_eq!(node.read(x).unwrap(), twin.read(x).unwrap());
        assert_eq!(node.item_ivv(x).unwrap(), twin.item_ivv(x).unwrap());
    }
    assert_eq!(node.aux_item_count(), twin.aux_item_count());
    // ...while ephemeral accounting reset.
    assert_eq!(twin.costs().messages_sent, 0);
    assert!(twin.op_cache().is_empty());
    assert!(twin.op_cache().is_enabled(), "config is reapplied on restart");
}

#[test]
fn crash_twin_matches_wal_replay_recovery() {
    // No checkpoint: real recovery is pure WAL replay. It is still
    // cache-cold (`GroupWal::open` enables the delta cache only after
    // replay), so the crash image must match it exactly too.
    let tmp = TempDir::new("crash-twin-replay");
    let cfg = DurabilityConfig::new(tmp.path());
    let (d, mut node) = open(&cfg, 1);
    mixed_workload(shard0(&mut node));

    let twin = node.crash_recovered(DELTA_BUDGET).unwrap();
    drop(d);
    drop(node);

    let (_d2, recovered) = open(&cfg, 1);
    let (r, t) =
        (recovered.shard_state(ShardId(0)).unwrap(), twin.shard_state(ShardId(0)).unwrap());
    assert!(r.op_cache().is_empty(), "replayed updates cache nothing");
    // Pure WAL replay rebuilds state through the normal update path rather
    // than a snapshot load, so `restored` is false there and true on the
    // crash image — the one (deliberate) fingerprint divergence. Everything
    // else must agree: identical durable bytes, and identical fingerprints
    // once the recovered node passes through the same snapshot round-trip.
    assert!(t.is_restored() && !r.is_restored());
    assert_eq!(t.to_snapshot(), r.to_snapshot());
    let renormalized = recovered.crash_recovered(DELTA_BUDGET).unwrap();
    assert_eq!(twin.fingerprint(), renormalized.fingerprint());
}

#[test]
fn a_two_shard_crash_image_matches_disk_recovery() {
    let tmp = TempDir::new("crash-twin-two-shards");
    let cfg = DurabilityConfig::new(tmp.path());
    let (d, mut node) = open(&cfg, 2);
    mixed_workload(shard0(&mut node));
    let shard1 = node.shard_state_mut(ShardId(1)).unwrap();
    shard1.update(ItemId(5), UpdateOp::set(&b"second-stream"[..])).unwrap();
    mixed_workload(shard1);
    let streams: Vec<&Replica> =
        node.owned_shards().into_iter().map(|s| node.shard_state(s).unwrap()).collect();
    d.checkpoint(&streams).unwrap();

    let twin = node.crash_recovered(DELTA_BUDGET).unwrap();
    drop(d);
    drop(node);

    let (_d2, recovered) = open(&cfg, 2);
    assert_eq!(recovered.owned_shards(), vec![ShardId(0), ShardId(1)]);
    assert_eq!(twin.fingerprint(), recovered.fingerprint(), "two-shard crash image diverged");
    recovered.check_invariants().unwrap();
}
