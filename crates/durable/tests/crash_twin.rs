//! Grounds the model checker's crash semantics against real disk
//! recovery: `crash_recovered_twin` (pure in-memory snapshot round-trip)
//! must produce the same replica state — by canonical fingerprint — that
//! `GroupWal::open` reconstructs from the WAL/snapshot files after an
//! actual crash.

use std::sync::Arc;

use epidb_common::{ItemId, NodeId};
use epidb_core::{oob_copy, pull, pull_delta, ConflictPolicy, Replica};
use epidb_durable::testdir::TempDir;
use epidb_durable::{crash_recovered_twin, DurabilityConfig, GroupWal, StreamSpec};
use epidb_store::UpdateOp;

const N_NODES: usize = 3;
const N_ITEMS: usize = 12;
const DELTA_BUDGET: usize = 1 << 16;

fn open(cfg: &DurabilityConfig, id: NodeId) -> (Arc<GroupWal>, Replica) {
    let spec = [StreamSpec { id, n_nodes: N_NODES, n_items: N_ITEMS }];
    let (d, mut replicas, _) =
        GroupWal::open(cfg, cfg.node_dir(id), &spec, ConflictPolicy::Report, DELTA_BUDGET).unwrap();
    let mut r = replicas.pop().unwrap();
    d.attach(0, &mut r);
    (d, r)
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
    let (d, mut node) = open(&cfg, NodeId(1));
    mixed_workload(&mut node);
    // Checkpoint so the recovered op cache is cold, matching the twin's
    // deliberate approximation (see `crash_recovered_twin`'s docs).
    d.checkpoint(&[&node]).unwrap();

    let twin = crash_recovered_twin(&node, DELTA_BUDGET).unwrap();
    drop(d);
    drop(node); // the crash

    let (_d2, recovered) = open(&cfg, NodeId(1));
    assert_eq!(
        twin.fingerprint(),
        recovered.fingerprint(),
        "crash twin diverged from real disk recovery"
    );
    assert!(twin.is_restored() && recovered.is_restored());
    recovered.check_invariants().unwrap();
}

#[test]
fn crash_twin_loses_exactly_the_ephemeral_state() {
    let tmp = TempDir::new("crash-twin-ephemeral");
    let cfg = DurabilityConfig::new(tmp.path());
    let (_d, mut node) = open(&cfg, NodeId(1));
    mixed_workload(&mut node);

    let twin = crash_recovered_twin(&node, DELTA_BUDGET).unwrap();
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
    // replay),
    // so the twin must match it exactly too.
    let tmp = TempDir::new("crash-twin-replay");
    let cfg = DurabilityConfig::new(tmp.path());
    let (d, mut node) = open(&cfg, NodeId(1));
    mixed_workload(&mut node);

    let twin = crash_recovered_twin(&node, DELTA_BUDGET).unwrap();
    drop(d);
    drop(node);

    let (_d2, recovered) = open(&cfg, NodeId(1));
    assert!(recovered.op_cache().is_empty(), "replayed updates cache nothing");
    // Pure WAL replay rebuilds state through the normal update path rather
    // than a snapshot load, so `restored` is false there and true on the
    // twin — the one (deliberate) fingerprint divergence. Everything else
    // must agree: identical durable bytes, and identical fingerprints once
    // the recovered node passes through the same snapshot round-trip.
    assert!(twin.is_restored() && !recovered.is_restored());
    assert_eq!(twin.to_snapshot(), recovered.to_snapshot());
    let renormalized = crash_recovered_twin(&recovered, DELTA_BUDGET).unwrap();
    assert_eq!(twin.fingerprint(), renormalized.fingerprint());
}
