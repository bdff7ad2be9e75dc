//! Model-checker state surface: cheap snapshot/restore and canonical
//! fingerprinting for [`Replica`] and [`ShardedNode`].
//!
//! The explicit-state model checker (`epidb-mc`) explores the protocol by
//! forking system states, firing one enabled event on each fork, and
//! deduplicating states it has seen before. That needs two operations the
//! durable snapshot codec almost — but not quite — provides:
//!
//! * **[`Replica::mc_snapshot`] / [`Replica::mc_restore`]** — a full
//!   in-memory capture. The durable snapshot deliberately drops ephemeral
//!   state (cost counters, pending conflict reports, the op cache) because
//!   a *crash* is supposed to lose it; a checker fork must lose nothing,
//!   so [`McSnapshot`] wraps the durable bytes together with the ephemeral
//!   remainder. Restoring a fork is `from_snapshot` plus reinstating that
//!   remainder. (A checker models a crash by restoring only the durable
//!   bytes — exactly what `epidb-durable` recovery would reconstruct.)
//!
//! * **[`Replica::fingerprint`]** — a canonical 64-bit digest of
//!   *behaviorally relevant* state, used to prune already-explored states.
//!   Two states with equal fingerprints must be indistinguishable to every
//!   future schedule: the digest covers the durable image (items, IVVs,
//!   DBVV, log vector, aux structures, policy), the `restored` flag and
//!   conflict count (both gate the aux-dominance invariant), the op-cache
//!   contents (they decide delta vs whole-item shipping), and the delta
//!   frame budget. Pure diagnostics — cost counters, protocol counters,
//!   conflict event details, traces — are deliberately excluded, so
//!   schedules that differ only in bookkeeping collapse into one state.
//!   The digest is FNV-1a over the deterministic codec encoding; it does
//!   **not** use `std`'s `DefaultHasher`, whose algorithm is unspecified
//!   across releases.
//!
//! Determinism of the underlying walks is load-bearing: `aux_items` and
//! the op cache iterate in `BTreeMap` key order, and the snapshot codec
//! writes every section in a fixed order, so identical logical states
//! produce identical bytes and identical fingerprints.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use epidb_common::{ConflictEvent, Costs, NodeId, Result, ShardId};

use crate::codec::{put_op, put_vv, Writer};
use crate::opcache::OpCache;
use crate::policy::ConflictPolicy;
use crate::replica::{ProtocolCounters, Replica};
use crate::shard::{ShardMap, ShardedNode};

/// The fingerprint hash, re-exported from its home in `epidb-common`.
pub use epidb_common::FnvHasher;

/// A full in-memory capture of one [`Replica`], including the ephemeral
/// state the durable snapshot deliberately drops. See the module docs for
/// the durable/ephemeral split.
#[derive(Clone, Debug)]
pub struct McSnapshot {
    /// The durable image ([`Replica::to_snapshot`]) — what a crash keeps.
    durable: Bytes,
    /// Ephemeral remainder — what a crash loses.
    restored: bool,
    costs: Costs,
    counters: ProtocolCounters,
    conflicts: Vec<ConflictEvent>,
    op_cache: OpCache,
    delta_frame_budget: u64,
    paranoid: bool,
    debug_adopt_conflicts: bool,
}

impl McSnapshot {
    /// The durable image alone — the bytes `epidb-durable` recovery would
    /// reconstruct after a crash (plus WAL replay, which the deterministic
    /// engine has already folded in by journaling *before* each state
    /// change). The checker uses this as the crash image.
    pub fn durable_bytes(&self) -> &Bytes {
        &self.durable
    }
}

impl Replica {
    /// Capture this replica completely (durable + ephemeral state) for a
    /// model-checker fork. `mc_restore` of the result is observationally
    /// equal to `self`.
    pub fn mc_snapshot(&self) -> McSnapshot {
        McSnapshot {
            durable: Bytes::from(self.to_snapshot()),
            restored: self.restored,
            costs: self.costs,
            counters: self.counters,
            conflicts: self.conflicts.clone(),
            op_cache: self.op_cache.clone(),
            delta_frame_budget: self.delta_frame_budget,
            paranoid: self.paranoid,
            debug_adopt_conflicts: self.debug_adopt_conflicts,
        }
    }

    /// Rebuild a replica from a checker capture. The inverse of
    /// [`mc_snapshot`](Self::mc_snapshot): durable state decodes through
    /// the snapshot codec, then the ephemeral remainder is reinstated
    /// (including the `restored` flag, which `from_snapshot` would have
    /// forced to `true`). The trace ring and journal sink deliberately
    /// start fresh — forks must not share a sink or append to the
    /// original's trace.
    pub fn mc_restore(snap: &McSnapshot) -> Result<Replica> {
        let mut r = Replica::from_snapshot_shared(&snap.durable)?;
        r.restored = snap.restored;
        r.costs = snap.costs;
        r.counters = snap.counters;
        r.conflicts = snap.conflicts.clone();
        r.op_cache = snap.op_cache.clone();
        r.delta_frame_budget = snap.delta_frame_budget;
        r.paranoid = snap.paranoid;
        r.debug_adopt_conflicts = snap.debug_adopt_conflicts;
        Ok(r)
    }

    /// Canonical 64-bit digest of behaviorally relevant state (see the
    /// module docs for exactly what is covered and what is excluded).
    pub fn fingerprint(&self) -> u64 {
        let mut h = FnvHasher::new();
        h.write(&self.to_snapshot());
        h.write_u8(u8::from(self.restored));
        h.write_u64(self.costs.conflicts_detected);
        h.write_u64(self.delta_frame_budget);
        h.write_u8(u8::from(self.debug_adopt_conflicts));
        // Op-cache contents, in item order; chains decide whether a future
        // delta round ships ops or degrades to whole items.
        h.write_u64(self.op_cache.budget_bytes() as u64);
        let mut w = Writer::new();
        for (item, chain) in self.op_cache.iter() {
            let ops: Vec<_> = chain.collect();
            w.u32(item.0);
            w.u32(ops.len() as u32);
            for c in ops {
                put_vv(&mut w, &c.pre_vv);
                put_op(&mut w, &c.op);
            }
        }
        h.write(&w.into_bytes());
        h.finish()
    }
}

/// A full in-memory capture of one [`ShardedNode`]: an [`McSnapshot`] per
/// owned shard plus the node-level routing and accounting state.
#[derive(Clone, Debug)]
pub struct McShardedSnapshot {
    id: NodeId,
    n_nodes: usize,
    map: ShardMap,
    shards: BTreeMap<ShardId, McSnapshot>,
    moving: BTreeSet<ShardId>,
    meta_costs: Costs,
    policy: ConflictPolicy,
}

impl McShardedSnapshot {
    /// Per-shard durable images — the crash image of a sharded node (each
    /// owned shard recovers independently from its own WAL/snapshot).
    pub fn durable_images(&self) -> impl Iterator<Item = (ShardId, &Bytes)> {
        self.shards.iter().map(|(&s, snap)| (s, snap.durable_bytes()))
    }
}

fn policy_tag(policy: ConflictPolicy) -> u8 {
    match policy {
        ConflictPolicy::Report => 0,
        ConflictPolicy::ResolveLww => 1,
    }
}

/// Digest a shard map: dimensions plus every owner list, in shard order.
fn hash_shard_map(h: &mut FnvHasher, map: &ShardMap) {
    h.write_u64(map.items_per_shard() as u64);
    h.write_u64(map.n_shards() as u64);
    for s in ShardId::all(map.n_shards()) {
        let owners = map.owners(s);
        h.write_u64(owners.len() as u64);
        for &o in owners {
            h.write_u64(o.index() as u64);
        }
    }
}

impl ShardedNode {
    /// Capture this node completely for a model-checker fork.
    pub fn mc_snapshot(&self) -> McShardedSnapshot {
        McShardedSnapshot {
            id: self.id,
            n_nodes: self.n_nodes,
            map: self.map.clone(),
            shards: self.shards.iter().map(|(&s, r)| (s, r.mc_snapshot())).collect(),
            moving: self.moving.clone(),
            meta_costs: self.meta_costs,
            policy: self.policy,
        }
    }

    /// Rebuild a node from a checker capture (inverse of
    /// [`mc_snapshot`](Self::mc_snapshot)).
    pub fn mc_restore(snap: &McShardedSnapshot) -> Result<ShardedNode> {
        let mut shards = BTreeMap::new();
        for (&s, shard_snap) in &snap.shards {
            shards.insert(s, Replica::mc_restore(shard_snap)?);
        }
        Ok(ShardedNode {
            id: snap.id,
            n_nodes: snap.n_nodes,
            map: snap.map.clone(),
            shards,
            moving: snap.moving.clone(),
            meta_costs: snap.meta_costs,
            policy: snap.policy,
        })
    }

    /// Build the node a crash-and-recover of `self` would produce: every
    /// owned shard restarts from its durable image alone (each shard has
    /// its own WAL/snapshot directory under `epidb-durable`), with the
    /// delta cache re-enabled at `delta_budget`. Node meta-costs reset;
    /// the map and moving set are node configuration and survive (durable
    /// handoff journals them). The full-replication analogue, grounded
    /// against real disk recovery, is `epidb_durable::crash_recovered_twin`.
    pub fn crash_recovered(&self, delta_budget: usize) -> Result<ShardedNode> {
        let mut shards = BTreeMap::new();
        for (&s, r) in &self.shards {
            let mut twin = Replica::from_snapshot(&r.to_snapshot())?;
            if delta_budget > 0 {
                twin.enable_delta(delta_budget);
            }
            shards.insert(s, twin);
        }
        Ok(ShardedNode {
            id: self.id,
            n_nodes: self.n_nodes,
            map: self.map.clone(),
            shards,
            moving: self.moving.clone(),
            meta_costs: Costs::default(),
            policy: self.policy,
        })
    }

    /// Canonical 64-bit digest: the map configuration, the moving set, and
    /// every owned shard's [`Replica::fingerprint`], in shard order. Node
    /// meta-costs are diagnostics and excluded, mirroring the replica rule.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FnvHasher::new();
        h.write_u64(self.id.index() as u64);
        h.write_u64(self.n_nodes as u64);
        h.write_u8(policy_tag(self.policy));
        hash_shard_map(&mut h, &self.map);
        h.write_u64(self.moving.len() as u64);
        for &s in &self.moving {
            h.write_u64(s.index() as u64);
        }
        h.write_u64(self.shards.len() as u64);
        for (&s, r) in &self.shards {
            h.write_u64(s.index() as u64);
            h.write_u64(r.fingerprint());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{oob_copy, pull};
    use epidb_common::ItemId;
    use epidb_store::UpdateOp;

    fn busy_replica() -> Replica {
        let mut a = Replica::new(NodeId(0), 3, 12);
        let mut b = Replica::new(NodeId(1), 3, 12);
        a.enable_delta(4096);
        b.enable_delta(4096);
        for i in 0..5u32 {
            a.update(ItemId(i), UpdateOp::set(vec![i as u8; 16])).unwrap();
        }
        b.update(ItemId(7), UpdateOp::set(&b"b-side"[..])).unwrap();
        pull(&mut b, &mut a).unwrap();
        a.update(ItemId(0), UpdateOp::append(&b"+new"[..])).unwrap();
        oob_copy(&mut b, &mut a, ItemId(0)).unwrap();
        b.update(ItemId(0), UpdateOp::append(&b"+aux"[..])).unwrap();
        b
    }

    #[test]
    fn mc_roundtrip_is_observationally_equal() {
        let r = busy_replica();
        let snap = r.mc_snapshot();
        let restored = Replica::mc_restore(&snap).unwrap();
        assert_eq!(r.fingerprint(), restored.fingerprint());
        assert_eq!(r.costs(), restored.costs());
        assert_eq!(r.counters(), restored.counters());
        assert_eq!(r.conflicts(), restored.conflicts());
        for x in ItemId::all(r.n_items()) {
            assert_eq!(r.read(x).unwrap(), restored.read(x).unwrap());
        }
        // restored flag is preserved, not forced like a durable recovery.
        assert!(!restored.is_restored());
    }

    #[test]
    fn fingerprint_separates_behavioral_state_only() {
        let r = busy_replica();
        let base = r.fingerprint();

        // Pure diagnostics do not change the fingerprint.
        let mut noisy = r.clone();
        noisy.costs.messages_sent += 100;
        noisy.counters.equal_receipts += 1;
        assert_eq!(noisy.fingerprint(), base);

        // Behavioral state does.
        let mut updated = r.clone();
        updated.update(ItemId(3), UpdateOp::set(&b"x"[..])).unwrap();
        assert_ne!(updated.fingerprint(), base);

        let mut flagged = r.clone();
        flagged.restored = true;
        assert_ne!(flagged.fingerprint(), base);

        let mut cached = r.clone();
        cached.op_cache.record(
            ItemId(1),
            r.item_ivv(ItemId(1)).unwrap().clone(),
            UpdateOp::set(&b"op"[..]),
        );
        assert_ne!(cached.fingerprint(), base);
    }

    #[test]
    fn crash_image_loses_exactly_the_ephemeral_state() {
        let r = busy_replica();
        let snap = r.mc_snapshot();
        // Crash = durable bytes only.
        let crashed = Replica::from_snapshot_shared(snap.durable_bytes()).unwrap();
        assert!(crashed.is_restored());
        assert!(crashed.op_cache().is_empty());
        assert_eq!(crashed.costs().messages_sent, 0);
        // Durable content is intact.
        for x in ItemId::all(r.n_items()) {
            assert_eq!(r.read(x).unwrap(), crashed.read(x).unwrap());
        }
    }

    #[test]
    fn sharded_roundtrip_and_fingerprint() {
        let map = ShardMap::new(4, vec![vec![NodeId(0), NodeId(1)], vec![NodeId(1), NodeId(2)]]);
        let mut n = ShardedNode::new(NodeId(1), 3, map, ConflictPolicy::Report);
        n.update(ItemId(1), UpdateOp::set(&b"s0"[..])).unwrap();
        n.update(ItemId(6), UpdateOp::set(&b"s1"[..])).unwrap();
        let base = n.fingerprint();

        let snap = n.mc_snapshot();
        let restored = ShardedNode::mc_restore(&snap).unwrap();
        assert_eq!(restored.fingerprint(), base);
        assert_eq!(restored.read(ItemId(1)).unwrap(), n.read(ItemId(1)).unwrap());

        n.update(ItemId(6), UpdateOp::append(&b"+"[..])).unwrap();
        assert_ne!(n.fingerprint(), base);
    }
}
