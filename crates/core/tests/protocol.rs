//! End-to-end tests of the protocol across multiple replicas, covering the
//! scenarios the paper describes: scheduled propagation, transitive
//! (indirect) propagation, constant-time identical-replica detection,
//! conflict detection and suspension, out-of-bound copying with intra-node
//! catch-up, and the DBVV/log invariants throughout.

use epidb_common::{ConflictSite, ItemId, NodeId};
use epidb_core::{oob_copy, pull, ConflictPolicy, OobOutcome, PullOutcome, Replica};
use epidb_store::UpdateOp;
use epidb_vv::{row, VvOrd};

fn cluster(n_nodes: usize, n_items: usize) -> Vec<Replica> {
    (0..n_nodes).map(|i| Replica::new(NodeId::from_index(i), n_nodes, n_items)).collect()
}

fn pull_pair(replicas: &mut [Replica], recipient: usize, source: usize) -> PullOutcome {
    assert_ne!(recipient, source);
    let (r, s) = if recipient < source {
        let (lo, hi) = replicas.split_at_mut(source);
        (&mut lo[recipient], &mut hi[0])
    } else {
        let (lo, hi) = replicas.split_at_mut(recipient);
        (&mut hi[0], &mut lo[source])
    };
    pull(r, s).unwrap()
}

fn oob_pair(replicas: &mut [Replica], recipient: usize, source: usize, x: ItemId) -> OobOutcome {
    assert_ne!(recipient, source);
    let (r, s) = if recipient < source {
        let (lo, hi) = replicas.split_at_mut(source);
        (&mut lo[recipient], &mut hi[0])
    } else {
        let (lo, hi) = replicas.split_at_mut(recipient);
        (&mut hi[0], &mut lo[source])
    };
    oob_copy(r, s, x).unwrap()
}

fn assert_all_invariants(replicas: &[Replica]) {
    for r in replicas {
        r.check_invariants().unwrap_or_else(|e| panic!("invariant violated at {}: {e}", r.id()));
    }
}

fn assert_identical(replicas: &[Replica]) {
    let first = &replicas[0];
    for r in &replicas[1..] {
        assert_eq!(
            first.dbvv().compare(r.dbvv()),
            VvOrd::Equal,
            "DBVVs differ: {} vs {}",
            first.dbvv(),
            r.dbvv()
        );
        for x in (0..first.n_items()).map(ItemId::from_index) {
            assert_eq!(
                first.read_regular(x).unwrap(),
                r.read_regular(x).unwrap(),
                "value of {x} differs between {} and {}",
                first.id(),
                r.id()
            );
            assert_eq!(first.item_ivv(x).unwrap(), r.item_ivv(x).unwrap());
        }
    }
}

#[test]
fn basic_two_node_propagation() {
    let mut c = cluster(2, 100);
    c[0].update(ItemId(3), UpdateOp::set(&b"v3"[..])).unwrap();
    c[0].update(ItemId(42), UpdateOp::set(&b"v42"[..])).unwrap();
    c[0].update(ItemId(3), UpdateOp::append(&b"!"[..])).unwrap();

    let out = pull_pair(&mut c, 1, 0);
    let PullOutcome::Propagated(out) = out else { panic!("expected propagation") };
    // Three updates but only two items copied (log compaction).
    let mut copied = out.copied.clone();
    copied.sort();
    assert_eq!(copied, vec![ItemId(3), ItemId(42)]);
    assert_eq!(c[1].read(ItemId(3)).unwrap().as_bytes(), b"v3!");
    assert_eq!(c[1].read(ItemId(42)).unwrap().as_bytes(), b"v42");
    assert_identical(&c);
    assert_all_invariants(&c);
}

#[test]
fn pull_between_identical_replicas_is_up_to_date() {
    let mut c = cluster(2, 1000);
    c[0].update(ItemId(0), UpdateOp::set(&b"x"[..])).unwrap();
    assert!(matches!(pull_pair(&mut c, 1, 0), PullOutcome::Propagated(_)));

    // Now identical. Detection must cost exactly n entry comparisons at the
    // source and ship nothing, regardless of the 1000 items.
    let before = c[0].costs();
    let out = pull_pair(&mut c, 1, 0);
    assert!(matches!(out, PullOutcome::UpToDate));
    let delta = c[0].costs() - before;
    assert_eq!(delta.vv_entry_cmps, 2); // n = 2
    assert_eq!(delta.log_records_examined, 0);
    assert_eq!(delta.items_scanned, 0);
}

#[test]
fn pull_from_older_source_is_up_to_date() {
    // Recipient strictly newer than source: source answers you-are-current.
    let mut c = cluster(2, 10);
    c[1].update(ItemId(0), UpdateOp::set(&b"y"[..])).unwrap();
    assert!(matches!(pull_pair(&mut c, 1, 0), PullOutcome::UpToDate));
    assert_all_invariants(&c);
}

#[test]
fn indirect_propagation_detected_as_current() {
    // The Lotus comparison scenario (§8.1): updates flow A -> B and A -> C;
    // a B <-> C sync must detect identical replicas in constant time.
    let mut c = cluster(3, 500);
    for i in 0..20u32 {
        c[0].update(ItemId(i), UpdateOp::set(vec![i as u8])).unwrap();
    }
    pull_pair(&mut c, 1, 0);
    pull_pair(&mut c, 2, 0);

    let before = c[2].costs();
    assert!(matches!(pull_pair(&mut c, 1, 2), PullOutcome::UpToDate));
    let delta = c[2].costs() - before;
    assert_eq!(delta.vv_entry_cmps, 3);
    assert_eq!(delta.items_scanned, 0);
    assert_identical(&c);
    assert_all_invariants(&c);
}

#[test]
fn transitive_propagation_converges_a_chain() {
    // A -> B -> C: C receives A's updates without ever talking to A
    // (forwarding — the property Oracle's scheme lacks, §8.2).
    let mut c = cluster(3, 50);
    c[0].update(ItemId(1), UpdateOp::set(&b"origin-a"[..])).unwrap();
    pull_pair(&mut c, 1, 0);
    let out = pull_pair(&mut c, 2, 1);
    assert!(matches!(out, PullOutcome::Propagated(_)));
    assert_eq!(c[2].read(ItemId(1)).unwrap().as_bytes(), b"origin-a");
    // The forwarded log record is attributed to origin A, not B.
    assert_eq!(c[2].log().component_len(NodeId(0)), 1);
    assert_eq!(c[2].log().component_len(NodeId(1)), 0);
    assert_all_invariants(&c);
}

#[test]
fn bidirectional_merge_of_disjoint_updates() {
    let mut c = cluster(2, 10);
    c[0].update(ItemId(0), UpdateOp::set(&b"a"[..])).unwrap();
    c[1].update(ItemId(1), UpdateOp::set(&b"b"[..])).unwrap();

    pull_pair(&mut c, 0, 1);
    pull_pair(&mut c, 1, 0);
    assert_identical(&c);
    assert_eq!(c[0].read(ItemId(1)).unwrap().as_bytes(), b"b");
    assert_eq!(c[1].read(ItemId(0)).unwrap().as_bytes(), b"a");
    assert_all_invariants(&c);
}

#[test]
fn overhead_proportional_to_changed_items_not_database_size() {
    // m = 5 changed items in an N = 10_000 item database: the source's
    // work must be O(m), nowhere near N.
    let mut c = cluster(2, 10_000);
    for i in 0..5u32 {
        c[0].update(ItemId(i * 1000), UpdateOp::set(vec![i as u8; 8])).unwrap();
    }
    let before = c[0].costs();
    let PullOutcome::Propagated(out) = pull_pair(&mut c, 1, 0) else { panic!() };
    assert_eq!(out.copied.len(), 5);
    let delta = c[0].costs() - before;
    // n cmps + (m selected + ≤1 stop) records + m item materializations.
    assert!(delta.comparison_work() <= 2 + 6 + 5, "work = {}", delta.comparison_work());
    assert_all_invariants(&c);
}

#[test]
fn conflict_is_detected_and_suspends_item() {
    let mut c = cluster(2, 10);
    // Concurrent updates to the same item at both nodes, no tokens.
    c[0].update(ItemId(5), UpdateOp::set(&b"from-a"[..])).unwrap();
    c[1].update(ItemId(5), UpdateOp::set(&b"from-b"[..])).unwrap();

    let PullOutcome::Propagated(out) = pull_pair(&mut c, 1, 0) else { panic!() };
    assert_eq!(out.conflicts, 1);
    assert!(out.copied.is_empty());
    // Local copy untouched; conflict recorded with the offending pair.
    assert_eq!(c[1].read(ItemId(5)).unwrap().as_bytes(), b"from-b");
    let evs = c[1].conflicts();
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].site, ConflictSite::Propagation);
    assert_eq!(evs[0].item, ItemId(5));
    assert_eq!(evs[0].offending, Some((NodeId(1), NodeId(0))));
    // The conflicting record was stripped: B's log has no record from A.
    assert_eq!(c[1].log().component_len(NodeId(0)), 0);
    // Re-detection on the next round (conflicts stay visible until
    // resolved).
    let PullOutcome::Propagated(out) = pull_pair(&mut c, 1, 0) else { panic!() };
    assert_eq!(out.conflicts, 1);
    assert_all_invariants(&c);
}

#[test]
fn conflict_does_not_block_other_items() {
    let mut c = cluster(2, 10);
    c[0].update(ItemId(0), UpdateOp::set(&b"conflict-a"[..])).unwrap();
    c[1].update(ItemId(0), UpdateOp::set(&b"conflict-b"[..])).unwrap();
    c[0].update(ItemId(1), UpdateOp::set(&b"clean"[..])).unwrap();

    let PullOutcome::Propagated(out) = pull_pair(&mut c, 1, 0) else { panic!() };
    assert_eq!(out.conflicts, 1);
    assert_eq!(out.copied, vec![ItemId(1)]);
    assert_eq!(c[1].read(ItemId(1)).unwrap().as_bytes(), b"clean");
    assert_all_invariants(&c);
}

#[test]
fn lww_policy_resolves_and_converges() {
    let n_items = 10;
    let mut a = Replica::with_policy(NodeId(0), 2, n_items, ConflictPolicy::ResolveLww);
    let mut b = Replica::with_policy(NodeId(1), 2, n_items, ConflictPolicy::ResolveLww);
    a.update(ItemId(2), UpdateOp::set(&b"aa"[..])).unwrap();
    b.update(ItemId(2), UpdateOp::set(&b"zz"[..])).unwrap();

    let PullOutcome::Propagated(out) = pull(&mut b, &mut a).unwrap() else { panic!() };
    assert_eq!(out.conflicts, 1);
    assert_eq!(out.copied, vec![ItemId(2)]);
    assert_eq!(b.counters().lww_resolutions, 1);
    // Resolution picked the deterministic winner ("zz" ties on totals,
    // larger bytes win) and dominates both parents.
    assert_eq!(b.read(ItemId(2)).unwrap().as_bytes(), b"zz");
    assert_eq!(
        row::compare(b.item_ivv(ItemId(2)).unwrap(), a.item_ivv(ItemId(2)).unwrap()),
        VvOrd::Dominates
    );
    // A pulls the resolution; the cluster converges.
    let PullOutcome::Propagated(out) = pull(&mut a, &mut b).unwrap() else { panic!() };
    assert_eq!(out.conflicts, 0);
    assert_eq!(a.read(ItemId(2)).unwrap().as_bytes(), b"zz");
    assert_eq!(a.dbvv().compare(b.dbvv()), VvOrd::Equal);
    a.check_invariants().unwrap();
    b.check_invariants().unwrap();
}

#[test]
fn oob_copy_creates_aux_and_serves_reads() {
    let mut c = cluster(3, 20);
    c[0].update(ItemId(4), UpdateOp::set(&b"hot-v1"[..])).unwrap();

    // B fetches the hot item out-of-bound; regular copy stays old.
    let out = oob_pair(&mut c, 1, 0, ItemId(4));
    assert_eq!(out, OobOutcome::Adopted { from_aux: false });
    assert_eq!(c[1].read(ItemId(4)).unwrap().as_bytes(), b"hot-v1");
    assert_eq!(c[1].read_regular(ItemId(4)).unwrap().as_bytes(), b"");
    assert_eq!(c[1].aux_item_count(), 1);
    // DBVV untouched by out-of-bound copying.
    assert_eq!(c[1].dbvv().total(), 0);
    assert_all_invariants(&c);
}

#[test]
fn oob_fetch_of_stale_copy_is_no_action() {
    let mut c = cluster(2, 10);
    c[0].update(ItemId(0), UpdateOp::set(&b"v"[..])).unwrap();
    pull_pair(&mut c, 1, 0);
    // Fetching from an equally-current source: no aux copy created.
    assert_eq!(oob_pair(&mut c, 1, 0, ItemId(0)), OobOutcome::AlreadyCurrent);
    assert_eq!(c[1].aux_item_count(), 0);
    // And from a strictly older source.
    c[1].update(ItemId(0), UpdateOp::append(&b"+"[..])).unwrap();
    assert_eq!(oob_pair(&mut c, 1, 0, ItemId(0)), OobOutcome::AlreadyCurrent);
    assert_all_invariants(&c);
}

#[test]
fn oob_source_prefers_its_aux_copy() {
    let mut c = cluster(3, 10);
    c[0].update(ItemId(1), UpdateOp::set(&b"v1"[..])).unwrap();
    // B gets it out-of-bound and updates it there (aux structures).
    oob_pair(&mut c, 1, 0, ItemId(1));
    c[1].update(ItemId(1), UpdateOp::append(&b"+b"[..])).unwrap();
    // C fetches from B: must receive B's *aux* copy (newest).
    let out = oob_pair(&mut c, 2, 1, ItemId(1));
    assert_eq!(out, OobOutcome::Adopted { from_aux: true });
    assert_eq!(c[2].read(ItemId(1)).unwrap().as_bytes(), b"v1+b");
    assert_all_invariants(&c);
}

#[test]
fn intra_node_propagation_replays_aux_updates_and_discards_aux() {
    let mut c = cluster(2, 10);
    let x = ItemId(3);
    // A writes v1. B fetches it out-of-bound and applies two local updates
    // on the aux copy.
    c[0].update(x, UpdateOp::set(&b"v1"[..])).unwrap();
    oob_pair(&mut c, 1, 0, x);
    c[1].update(x, UpdateOp::append(&b".b1"[..])).unwrap();
    c[1].update(x, UpdateOp::append(&b".b2"[..])).unwrap();
    assert_eq!(c[1].aux_log().len(), 2);
    assert_eq!(c[1].dbvv().total(), 0); // aux updates don't touch DBVV yet

    // Scheduled propagation copies the regular v1 to B; intra-node
    // propagation then replays both aux updates onto the regular copy and
    // discards the aux copy.
    let PullOutcome::Propagated(out) = pull_pair(&mut c, 1, 0) else { panic!() };
    assert_eq!(out.copied, vec![x]);
    assert_eq!(out.replayed, 2);
    assert_eq!(out.aux_discarded, vec![x]);
    assert_eq!(c[1].aux_item_count(), 0);
    assert_eq!(c[1].aux_log().len(), 0);
    assert_eq!(c[1].read(x).unwrap().as_bytes(), b"v1.b1.b2");
    assert_eq!(c[1].read_regular(x).unwrap().as_bytes(), b"v1.b1.b2");
    // The replayed updates are now regular updates by B: DBVV advanced and
    // log records exist, so they propagate onward normally.
    assert_eq!(c[1].dbvv().get(NodeId(1)), 2);
    let PullOutcome::Propagated(out) = pull_pair(&mut c, 0, 1) else { panic!() };
    assert_eq!(out.copied, vec![x]);
    assert_eq!(c[0].read(x).unwrap().as_bytes(), b"v1.b1.b2");
    assert_identical(&c);
    assert_all_invariants(&c);
}

#[test]
fn oob_then_no_local_updates_discards_aux_on_catch_up() {
    let mut c = cluster(2, 10);
    let x = ItemId(0);
    c[0].update(x, UpdateOp::set(&b"v1"[..])).unwrap();
    oob_pair(&mut c, 1, 0, x);
    assert_eq!(c[1].aux_item_count(), 1);
    // Scheduled propagation catches the regular copy up; aux is discarded
    // with nothing to replay.
    let PullOutcome::Propagated(out) = pull_pair(&mut c, 1, 0) else { panic!() };
    assert_eq!(out.replayed, 0);
    assert_eq!(out.aux_discarded, vec![x]);
    assert_eq!(c[1].aux_item_count(), 0);
    assert_all_invariants(&c);
}

#[test]
fn aux_kept_while_regular_still_behind() {
    let mut c = cluster(3, 10);
    let x = ItemId(0);
    // A writes v1, then v2. B pulls v1 indirectly... simulate: A writes v1,
    // C pulls (gets v1), A writes v2, B oob-fetches v2 from A, then B
    // scheduled-pulls from C (which only has v1).
    c[0].update(x, UpdateOp::set(&b"v1"[..])).unwrap();
    pull_pair(&mut c, 2, 0);
    c[0].update(x, UpdateOp::set(&b"v2"[..])).unwrap();
    oob_pair(&mut c, 1, 0, x);
    assert_eq!(c[1].read(x).unwrap().as_bytes(), b"v2");

    let PullOutcome::Propagated(out) = pull_pair(&mut c, 1, 2) else { panic!() };
    assert_eq!(out.copied, vec![x]);
    // Regular copy now v1, aux still v2 — aux must be kept.
    assert!(out.aux_discarded.is_empty());
    assert_eq!(c[1].read_regular(x).unwrap().as_bytes(), b"v1");
    assert_eq!(c[1].read(x).unwrap().as_bytes(), b"v2");
    assert_eq!(c[1].aux_item_count(), 1);

    // Catching up from A discards the aux copy.
    let PullOutcome::Propagated(out) = pull_pair(&mut c, 1, 0) else { panic!() };
    assert_eq!(out.aux_discarded, vec![x]);
    assert_eq!(c[1].read(x).unwrap().as_bytes(), b"v2");
    assert_all_invariants(&c);
}

#[test]
fn oob_conflict_is_detected() {
    let mut c = cluster(2, 10);
    let x = ItemId(2);
    c[0].update(x, UpdateOp::set(&b"a"[..])).unwrap();
    c[1].update(x, UpdateOp::set(&b"b"[..])).unwrap();
    let out = oob_pair(&mut c, 1, 0, x);
    assert_eq!(out, OobOutcome::Conflict);
    let evs = c[1].conflicts();
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].site, ConflictSite::OutOfBound);
    assert_all_invariants(&c);
}

#[test]
fn intra_node_conflict_detected_when_aux_updates_race_regular() {
    // B oob-fetches x from A, updates the aux copy; meanwhile C updates x
    // concurrently (relative to the fetched version) and B's regular copy
    // receives C's version. Replay must detect the conflict between the
    // regular copy and the earliest aux record.
    let mut c = cluster(3, 10);
    let x = ItemId(0);
    c[0].update(x, UpdateOp::set(&b"base"[..])).unwrap();
    oob_pair(&mut c, 1, 0, x); // aux at B: A's base
    c[1].update(x, UpdateOp::append(&b"+b"[..])).unwrap(); // aux record with vv=<1,0,0>
    c[2].update(x, UpdateOp::set(&b"c-version"[..])).unwrap(); // concurrent with A's base
    let PullOutcome::Propagated(out) = pull_pair(&mut c, 1, 2) else { panic!() };
    // Regular copy adopted C's version (B's regular was empty/zero vv).
    assert_eq!(out.copied, vec![x]);
    // Replay: regular vv <0,0,1> vs aux record vv <1,0,0> -> conflict.
    assert_eq!(out.conflicts, 1);
    let evs = c[1].conflicts();
    assert_eq!(evs[0].site, ConflictSite::IntraNode);
    // Aux state preserved pending resolution.
    assert_eq!(c[1].aux_item_count(), 1);
    assert_eq!(c[1].aux_log().len(), 1);
    assert_all_invariants(&c);
}

#[test]
fn oob_overwrite_of_aux_keeps_pending_replays() {
    // B oob-fetches x, updates aux, then oob-fetches an even newer version
    // that *includes* its own aux updates (round-tripped through C). The
    // aux log is not modified by the overwrite, and pending records still
    // replay later.
    let mut c = cluster(3, 10);
    let x = ItemId(0);
    c[0].update(x, UpdateOp::set(&b"v1."[..])).unwrap();
    oob_pair(&mut c, 1, 0, x);
    c[1].update(x, UpdateOp::append(&b"b1."[..])).unwrap();
    // C oob-fetches from B (gets B's aux copy), appends, and B oob-fetches
    // back: the incoming vv dominates B's aux vv.
    oob_pair(&mut c, 2, 1, x);
    c[2].update(x, UpdateOp::append(&b"c1."[..])).unwrap();
    let out = oob_pair(&mut c, 1, 2, x);
    assert_eq!(out, OobOutcome::Adopted { from_aux: true });
    assert_eq!(c[1].read(x).unwrap().as_bytes(), b"v1.b1.c1.");
    // The pending aux record (b1) survived the overwrite.
    assert_eq!(c[1].aux_log().len(), 1);

    // Scheduled propagation brings B's regular copy to v1; replay applies
    // b1 (vv matches), then stops (aux vv is ahead by C's update).
    let PullOutcome::Propagated(out) = pull_pair(&mut c, 1, 0) else { panic!() };
    assert_eq!(out.replayed, 1);
    assert!(out.aux_discarded.is_empty());
    assert_eq!(c[1].read_regular(x).unwrap().as_bytes(), b"v1.b1.");
    assert_eq!(c[1].read(x).unwrap().as_bytes(), b"v1.b1.c1.");
    assert_all_invariants(&c);
}

#[test]
fn counters_stay_zero_in_clean_runs() {
    let mut c = cluster(4, 100);
    for round in 0..5 {
        for (i, replica) in c.iter_mut().enumerate() {
            let x = ItemId((round * 4 + i) as u32);
            replica.update(x, UpdateOp::set(vec![i as u8])).unwrap();
        }
        for i in 0..4usize {
            for j in 0..4usize {
                if i != j {
                    pull_pair(&mut c, i, j);
                }
            }
        }
    }
    for r in &c {
        assert_eq!(r.counters().equal_receipts, 0);
        assert_eq!(r.counters().stale_receipts, 0);
        assert_eq!(r.costs().conflicts_detected, 0);
    }
    assert_identical(&c);
    assert_all_invariants(&c);
}

#[test]
fn log_vector_stays_bounded_under_heavy_updates() {
    let mut c = cluster(2, 8);
    for i in 0..1000u32 {
        c[0].update(ItemId(i % 8), UpdateOp::set(vec![(i % 251) as u8])).unwrap();
    }
    assert!(c[0].log().total_len() <= 8);
    pull_pair(&mut c, 1, 0);
    assert!(c[1].log().total_len() <= 2 * 8);
    assert_identical(&c);
    assert_all_invariants(&c);
}

#[test]
fn lww_resolution_re_syncs_cleanly_with_third_node() {
    // Regression for the resolve_lww / DBVV bookkeeping interaction: a
    // last-writer-wins resolution is logged as a fresh local update whose
    // IVV dominates both parents, so re-syncing with a third node (and
    // back with the losing writer) must converge with DBVV == Σ IVV at
    // every step.
    let mut c: Vec<Replica> = (0..3)
        .map(|i| Replica::with_policy(NodeId::from_index(i), 3, 4, ConflictPolicy::ResolveLww))
        .collect();
    for r in &mut c {
        r.set_paranoid(true); // per-step invariant audits throughout
    }
    let x = ItemId(0);
    c[0].update(x, UpdateOp::set(&b"from-a"[..])).unwrap();
    c[1].update(x, UpdateOp::set(&b"from-b"[..])).unwrap();

    // B pulls from A: the copies are concurrent, and B's policy resolves.
    pull_pair(&mut c, 1, 0);
    assert_eq!(c[1].counters().lww_resolutions, 1);
    // The resolution strictly dominates both parents.
    assert_eq!(
        row::compare(c[1].item_ivv(x).unwrap(), c[0].item_ivv(x).unwrap()),
        VvOrd::Dominates
    );
    let resolved = c[1].read_regular(x).unwrap().as_bytes().to_vec();

    // A third node syncs from the resolver and adopts the resolved copy.
    let PullOutcome::Propagated(out) = pull_pair(&mut c, 2, 1) else { panic!("expected copy") };
    assert_eq!(out.copied, vec![x]);
    assert_eq!(out.conflicts, 0);
    assert_eq!(c[2].read_regular(x).unwrap().as_bytes(), resolved);

    // Against the losing writer the third node is already current.
    assert!(matches!(pull_pair(&mut c, 2, 0), PullOutcome::UpToDate));

    // The losing writer re-syncs: its copy is strictly dominated, so this
    // is a plain adoption — no new conflict, no second resolution.
    let PullOutcome::Propagated(out) = pull_pair(&mut c, 0, 2) else { panic!("expected copy") };
    assert_eq!(out.copied, vec![x]);
    assert_eq!(out.conflicts, 0);
    assert_eq!(c[0].counters().lww_resolutions, 0);

    assert_identical(&c);
    assert_all_invariants(&c);
    for r in &c {
        let report = r.audit();
        assert!(report.is_clean(), "{}", report.summary());
    }
}

#[test]
fn refused_conflicts_reship_until_resolved() {
    // Regression for refused-update handling in accept_propagation: a
    // report-policy recipient strips the refused item's records from the
    // shipped tails, so its DBVV never advances past the refused update and
    // the source keeps re-shipping it on every pull until the conflict is
    // resolved out of band (here: via a third, LWW-resolving node).
    let mut c = vec![
        Replica::with_policy(NodeId(0), 3, 4, ConflictPolicy::Report),
        Replica::with_policy(NodeId(1), 3, 4, ConflictPolicy::Report),
        Replica::with_policy(NodeId(2), 3, 4, ConflictPolicy::ResolveLww),
    ];
    for r in &mut c {
        r.set_paranoid(true);
    }
    let x = ItemId(0);
    c[0].update(x, UpdateOp::set(&b"a."[..])).unwrap();
    c[1].update(x, UpdateOp::set(&b"b."[..])).unwrap();

    // Every pull re-ships the refused item and re-declares the conflict.
    for round in 1..=3u64 {
        let PullOutcome::Propagated(out) = pull_pair(&mut c, 1, 0) else {
            panic!("round {round}: refused update must keep the replicas unequal")
        };
        assert_eq!(out.conflicts, 1, "round {round}");
        assert!(out.copied.is_empty(), "round {round}");
        assert_eq!(c[1].costs().conflicts_detected, round);
    }
    // B's DBVV never advanced past A's refused update, no record for it
    // entered B's log, and B's own copy is untouched.
    assert_eq!(c[1].dbvv().get(NodeId(0)), 0);
    assert_eq!(c[1].log().component_len(NodeId(0)), 0);
    assert_eq!(c[1].read_regular(x).unwrap().as_bytes(), b"b.");

    // Resolution via the third node: it adopts A's copy, then pulls B's
    // concurrent copy and resolves last-writer-wins.
    let PullOutcome::Propagated(out) = pull_pair(&mut c, 2, 0) else { panic!("expected copy") };
    assert_eq!(out.copied, vec![x]);
    pull_pair(&mut c, 2, 1);
    assert_eq!(c[2].counters().lww_resolutions, 1);

    // The resolved copy dominates both sides, so it flows back to the
    // conflicted replicas as plain adoptions and the stall clears.
    let PullOutcome::Propagated(out) = pull_pair(&mut c, 1, 2) else { panic!("expected copy") };
    assert_eq!(out.copied, vec![x]);
    assert_eq!(out.conflicts, 0);
    assert_eq!(c[1].dbvv().get(NodeId(0)), 1, "resolution finally covered A's refused update");
    pull_pair(&mut c, 0, 2);

    // Quiet afterwards: the formerly stalled pair is in sync.
    assert!(matches!(pull_pair(&mut c, 1, 0), PullOutcome::UpToDate));
    assert_identical(&c);
    assert_all_invariants(&c);
    for r in &c {
        let report = r.audit();
        assert!(report.is_clean(), "{}", report.summary());
    }
}
