//! Property: the store's cached digest tree always agrees with the
//! uncached fold it stands in for.
//!
//! Recon digests come from a tree cached in `ItemStore` and kept current
//! by marking every mutated item's path dirty. A mutation path that
//! escaped the marking would leave a clean node with a stale digest, and
//! the descent would then prune a subtree that differs. So random
//! histories interleave every store-mutating protocol path — local
//! update, whole-item pull adopt, delta op-chain apply, LWW resolution
//! (adopt and IVV-only merge), intra-node replay of auxiliary updates,
//! recon apply — with probes of random tree nodes, and after every step
//! check that each probe equals the uncached reference fold and that
//! every clean cached node does too (the `digest-cache` audit). Clones
//! and snapshot restores taken mid-history must agree with the original
//! on every node, then carry on in its place.

use bytes::Bytes;
use epidb_common::{ItemId, NodeId};
use epidb_core::{
    oob_copy, pull, pull_delta, pull_recon, AuditCheck, ConflictPolicy, PullOutcome, Replica,
};
use epidb_store::UpdateOp;
use proptest::prelude::*;

const N_NODES: usize = 3;
/// Around the bucket of 16 (no cached node up to 16), a few levels, and
/// large odd trees.
const SIZES: [usize; 8] = [1, 2, 15, 16, 17, 37, 1000, 4097];
const DELTA_BUDGET: usize = 1 << 16;

fn cluster(n_items: usize) -> Vec<Replica> {
    (0..N_NODES)
        .map(|i| {
            let mut r = Replica::with_policy(
                NodeId::from_index(i),
                N_NODES,
                n_items,
                ConflictPolicy::ResolveLww,
            );
            r.enable_delta(DELTA_BUDGET);
            r
        })
        .collect()
}

/// Distinct mutable borrows of replicas `a` and `b`.
fn two(r: &mut [Replica], a: usize, b: usize) -> (&mut Replica, &mut Replica) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = r.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = r.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// The tree node reached from the root by up to `bits & 31` midpoint
/// steps, turning right on each set bit of `bits >> 5`.
fn node(n: u32, bits: u64) -> (u32, u32) {
    let (mut s, mut e) = (0, n);
    for k in 0..(bits & 31) {
        if e - s == 1 {
            break;
        }
        let mid = s + (e - s) / 2;
        if (bits >> (5 + k)) & 1 == 0 {
            e = mid;
        } else {
            s = mid;
        }
    }
    (s, e)
}

/// Every node of the tree over `[s, e)`, parents before children.
fn all_nodes(s: u32, e: u32, out: &mut Vec<(u32, u32)>) {
    out.push((s, e));
    if e - s > 1 {
        let mid = s + (e - s) / 2;
        all_nodes(s, mid, out);
        all_nodes(mid, e, out);
    }
}

/// No clean cached node is stale, and a probe of `(s, e)` matches the
/// uncached fold.
fn assert_cache_exact(r: &mut Replica, (s, e): (u32, u32)) {
    if let Err(v) = AuditCheck::DigestCache.run(r) {
        panic!("{v}");
    }
    assert_eq!(
        r.range_digest(s, e),
        r.range_digest_uncached(s, e),
        "{}: cached digest of [{s}, {e}) differs from the fold of its leaves",
        r.id()
    );
}

/// `twin` agrees with `original` on every node of the tree, and both
/// caches are exact.
fn assert_twin_agrees(original: &mut Replica, twin: &mut Replica) {
    let mut nodes = Vec::new();
    all_nodes(0, original.n_items() as u32, &mut nodes);
    for (s, e) in nodes {
        assert_eq!(original.range_digest(s, e), twin.range_digest(s, e), "node [{s}, {e})");
    }
    assert_cache_exact(original, (0, original.n_items() as u32));
    assert_cache_exact(twin, (0, twin.n_items() as u32));
}

#[derive(Clone, Debug)]
enum Step {
    /// A user write: to the regular copy, or to the auxiliary copy while
    /// the item is out of bound at `at`.
    Write { at: usize, slot: usize, byte: u8, append: bool },
    /// Whole-item pull (adopt, LWW resolution, intra-node replay).
    Pull { to: usize, from: usize },
    /// Delta pull (op-chain apply, or whole-item fallback).
    Delta { to: usize, from: usize },
    /// Digest-tree reconciliation (recon apply).
    Recon { to: usize, from: usize },
    /// Out-of-bound fetch: creates the auxiliary copy a later pull replays.
    Oob { to: usize, from: usize, slot: usize },
    /// Replace a replica by its clone.
    Clone { at: usize },
    /// Replace a replica by its snapshot restore.
    Restore { at: usize },
}

/// Half the slots are one of four hot items, so conflicts (LWW) and
/// out-of-bound replays meet; the rest spread over the tree.
fn arb_slot() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..4, any::<usize>()]
}

fn arb_steps() -> impl Strategy<Value = Vec<(Step, u64)>> {
    let at = 0..N_NODES;
    let write = (at.clone(), arb_slot(), any::<u8>(), any::<bool>())
        .prop_map(|(at, slot, byte, append)| Step::Write { at, slot, byte, append });
    let link = (at.clone(), 1..N_NODES).prop_map(|(to, off)| (to, (to + off) % N_NODES));
    let pull = link.clone().prop_map(|(to, from)| Step::Pull { to, from });
    let delta = link.clone().prop_map(|(to, from)| Step::Delta { to, from });
    let recon = link.clone().prop_map(|(to, from)| Step::Recon { to, from });
    let oob = (link, arb_slot()).prop_map(|((to, from), slot)| Step::Oob { to, from, slot });
    let clone = at.clone().prop_map(|at| Step::Clone { at });
    let restore = at.prop_map(|at| Step::Restore { at });
    let step = prop_oneof![
        8 => write,
        3 => pull,
        3 => delta,
        3 => recon,
        2 => oob,
        1 => clone,
        1 => restore,
    ];
    prop::collection::vec((step, any::<u64>()), 1..40)
}

fn run(n_items: usize, steps: &[(Step, u64)]) {
    let n = n_items as u32;
    let item = |slot: usize| ItemId((slot % n_items) as u32);
    let mut r = cluster(n_items);
    for (step, probe) in steps {
        match *step {
            Step::Write { at, slot, byte, append } => {
                let op = if append {
                    UpdateOp::append(vec![byte])
                } else {
                    UpdateOp::set(vec![byte; 3])
                };
                r[at].update(item(slot), op).unwrap();
            }
            Step::Pull { to, from } => {
                let (to, from) = two(&mut r, to, from);
                pull(to, from).unwrap();
            }
            Step::Delta { to, from } => {
                let (to, from) = two(&mut r, to, from);
                pull_delta(to, from).unwrap();
            }
            Step::Recon { to, from } => {
                let (to, from) = two(&mut r, to, from);
                pull_recon(to, from).unwrap();
            }
            Step::Oob { to, from, slot } => {
                let (to, from) = two(&mut r, to, from);
                oob_copy(to, from, item(slot)).unwrap();
            }
            Step::Clone { at } => {
                let mut twin = r[at].clone();
                assert_twin_agrees(&mut r[at], &mut twin);
                r[at] = twin;
            }
            Step::Restore { at } => {
                let image = Bytes::from(r[at].to_snapshot());
                let mut restored = Replica::from_snapshot_shared(&image).unwrap();
                restored.enable_delta(DELTA_BUDGET);
                assert_twin_agrees(&mut r[at], &mut restored);
                r[at] = restored;
            }
        }
        for (k, replica) in r.iter_mut().enumerate() {
            assert_cache_exact(replica, node(n, probe.rotate_left(21 * k as u32)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn cached_digests_equal_the_uncached_fold_after_every_step(
        size in 0..SIZES.len(),
        steps in arb_steps(),
    ) {
        run(SIZES[size], &steps);
    }
}

/// Every mutation path, once each and by name, on a tree with cached
/// nodes: each step must really take its path, and must leave no clean
/// node stale.
#[test]
fn every_store_mutation_path_keeps_the_cache_exact() {
    let n = 37;
    let mut r = cluster(n);
    let root = (0, n as u32);
    let check = |r: &mut [Replica]| r.iter_mut().for_each(|x| assert_cache_exact(x, root));
    check(&mut r);

    // Local update.
    r[0].update(ItemId(5), UpdateOp::set(vec![1; 64])).unwrap();
    check(&mut r);

    // Whole-item pull adopt.
    let (r1, r0) = two(&mut r, 1, 0);
    assert_eq!(pull(r1, r0).unwrap().copied(), &[ItemId(5)]);
    check(&mut r);

    // Delta op-chain apply: a one-byte append ships as ops, not 65 bytes.
    r[0].update(ItemId(5), UpdateOp::append(&b"+"[..])).unwrap();
    let payload = |r: &Replica| r.costs().bytes_sent - r.costs().control_bytes;
    let before = payload(&r[0]);
    let (r1, r0) = two(&mut r, 1, 0);
    assert_eq!(pull_delta(r1, r0).unwrap().copied(), &[ItemId(5)]);
    assert!(payload(&r[0]) - before < 65, "the append must ship as an op chain");
    check(&mut r);

    // LWW, remote wins: the resolution adopts the shipped value.
    r[0].update(ItemId(7), UpdateOp::set(&b"zz"[..])).unwrap();
    r[1].update(ItemId(7), UpdateOp::set(&b"aa"[..])).unwrap();
    check(&mut r);
    let (r1, r0) = two(&mut r, 1, 0);
    pull(r1, r0).unwrap();
    assert_eq!(r[1].counters().lww_resolutions, 1);
    assert_eq!(r[1].read(ItemId(7)).unwrap().as_bytes(), b"zz");
    check(&mut r);

    // LWW, local wins: only the IVVs merge, in place.
    r[0].update(ItemId(30), UpdateOp::set(&b"aa"[..])).unwrap();
    r[1].update(ItemId(30), UpdateOp::set(&b"zz"[..])).unwrap();
    check(&mut r);
    let (r1, r0) = two(&mut r, 1, 0);
    pull(r1, r0).unwrap();
    assert_eq!(r[1].counters().lww_resolutions, 2);
    assert_eq!(r[1].read(ItemId(30)).unwrap().as_bytes(), b"zz");
    check(&mut r);

    // Intra-node replay of an auxiliary update onto the regular copy.
    r[0].update(ItemId(20), UpdateOp::set(&b"v1"[..])).unwrap();
    let (r2, r0) = two(&mut r, 2, 0);
    oob_copy(r2, r0, ItemId(20)).unwrap();
    r[2].update(ItemId(20), UpdateOp::append(&b".x"[..])).unwrap();
    check(&mut r);
    let (r2, r0) = two(&mut r, 2, 0);
    let PullOutcome::Propagated(out) = pull(r2, r0).unwrap() else { panic!("nothing pulled") };
    assert_eq!(out.replayed, 1);
    assert_eq!(r[2].read_regular(ItemId(20)).unwrap().as_bytes(), b"v1.x");
    check(&mut r);

    // Recon apply.
    r[0].update(ItemId(33), UpdateOp::set(&b"late"[..])).unwrap();
    let (r1, r0) = two(&mut r, 1, 0);
    assert!(pull_recon(r1, r0).unwrap().copied().contains(&ItemId(33)));
    check(&mut r);
}
