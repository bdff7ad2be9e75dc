//! Message-level tests of the propagation procedures themselves —
//! `SendPropagation` / `AcceptPropagation` exercised directly on the
//! request/response values rather than through the `pull` orchestrator.

use epidb_common::{Costs, Error, ItemId, NodeId};
use epidb_core::{
    ConflictPolicy, PropagationPayload, PropagationResponse, ProtocolCounters, Replica,
};
use epidb_store::UpdateOp;
use epidb_vv::DbVersionVector;

fn replica(id: u16, n: usize) -> Replica {
    Replica::new(NodeId(id), n, 16)
}

#[test]
fn send_propagation_is_current_for_dominating_recipient() {
    let mut source = replica(0, 2);
    source.update(ItemId(0), UpdateOp::set(&b"x"[..])).unwrap();
    // A recipient claiming strictly more knowledge than the source.
    let mut recipient_dbvv = DbVersionVector::zero(2);
    recipient_dbvv.record_local_update(NodeId(0));
    recipient_dbvv.record_local_update(NodeId(1));
    let resp = source.prepare_propagation(&recipient_dbvv);
    assert!(matches!(resp, PropagationResponse::YouAreCurrent));
}

#[test]
fn send_propagation_builds_exact_tails_and_item_set() {
    let mut source = replica(0, 3);
    source.update(ItemId(3), UpdateOp::set(&b"a"[..])).unwrap(); // m=1
    source.update(ItemId(5), UpdateOp::set(&b"b"[..])).unwrap(); // m=2
    source.update(ItemId(3), UpdateOp::set(&b"c"[..])).unwrap(); // m=3 (replaces m=1)

    // Recipient has seen the source's first update only.
    let mut recipient_dbvv = DbVersionVector::zero(3);
    recipient_dbvv.record_local_update(NodeId(0));
    let resp = source.prepare_propagation(&recipient_dbvv);
    let PropagationResponse::Payload(p) = resp else { panic!("expected payload") };

    // Tail for origin 0 holds the records the recipient misses (m > 1):
    // (5,2) and (3,3), ascending.
    assert_eq!(p.tails[0].len(), 2);
    assert_eq!((p.tails[0][0].item, p.tails[0][0].m), (ItemId(5), 2));
    assert_eq!((p.tails[0][1].item, p.tails[0][1].m), (ItemId(3), 3));
    assert!(p.tails[1].is_empty() && p.tails[2].is_empty());

    // S = {5, 3}, each with the current IVV and value. The recipient's
    // stale view of item 3 is irrelevant — it gets the latest whole copy.
    let mut items: Vec<ItemId> = p.items.iter().map(|s| s.item).collect();
    items.sort();
    assert_eq!(items, vec![ItemId(3), ItemId(5)]);
    let x3 = p.items.iter().find(|s| s.item == ItemId(3)).unwrap();
    assert_eq!(&x3.value[..], b"c");
    assert_eq!(x3.ivv.get(NodeId(0)), 2); // two updates to item 3
}

#[test]
fn send_propagation_can_be_repeated_flags_reset() {
    // The IsSelected flags must be reset after every call, so repeated
    // sends produce identical item sets.
    let mut source = replica(0, 2);
    for i in 0..4u32 {
        source.update(ItemId(i), UpdateOp::set(vec![i as u8])).unwrap();
    }
    let recipient_dbvv = DbVersionVector::zero(2);
    let first = source.prepare_propagation(&recipient_dbvv);
    let second = source.prepare_propagation(&recipient_dbvv);
    let (PropagationResponse::Payload(a), PropagationResponse::Payload(b)) = (first, second) else {
        panic!()
    };
    assert_eq!(a.items.len(), 4);
    assert_eq!(a.items.len(), b.items.len());
    source.check_invariants().unwrap(); // includes the flags-clear check
}

#[test]
fn accept_propagation_applies_exactly_the_payload() {
    let mut source = replica(0, 2);
    let mut recipient = replica(1, 2);
    source.update(ItemId(1), UpdateOp::set(&b"payload"[..])).unwrap();
    let resp = source.prepare_propagation(&recipient.dbvv().clone());
    let PropagationResponse::Payload(p) = resp else { panic!() };
    let out = recipient.accept_propagation(NodeId(0), p).unwrap();
    assert_eq!(out.copied, vec![ItemId(1)]);
    assert_eq!(out.conflicts, 0);
    assert_eq!(recipient.read(ItemId(1)).unwrap().as_bytes(), b"payload");
    assert_eq!(recipient.dbvv().get(NodeId(0)), 1);
    // The forwarded record is retained under the true origin.
    assert_eq!(recipient.log().retained(NodeId(0), ItemId(1)).unwrap().m, 1);
    recipient.check_invariants().unwrap();
}

#[test]
fn replaying_the_same_payload_is_harmless() {
    // Duplicate delivery (a retransmitted message): the second application
    // must be a no-op with only equal-receipt counters moving.
    let mut source = replica(0, 2);
    let mut recipient = replica(1, 2);
    source.update(ItemId(2), UpdateOp::set(&b"dup"[..])).unwrap();
    let PropagationResponse::Payload(p) = source.prepare_propagation(&recipient.dbvv().clone())
    else {
        panic!()
    };
    recipient.accept_propagation(NodeId(0), p.clone()).unwrap();
    let before = recipient.dbvv().clone();
    let out = recipient.accept_propagation(NodeId(0), p).unwrap();
    assert!(out.copied.is_empty());
    assert_eq!(out.conflicts, 0);
    assert_eq!(recipient.counters().equal_receipts, 1);
    assert_eq!(recipient.dbvv(), &before);
    assert_eq!(recipient.read(ItemId(2)).unwrap().as_bytes(), b"dup");
    recipient.check_invariants().unwrap();
}

#[test]
fn accept_rejects_out_of_universe_items() {
    let mut source = Replica::new(NodeId(0), 2, 64);
    let mut recipient = replica(1, 2); // only 16 items
    source.update(ItemId(40), UpdateOp::set(&b"x"[..])).unwrap();
    let PropagationResponse::Payload(p) = source.prepare_propagation(&recipient.dbvv().clone())
    else {
        panic!()
    };
    assert!(recipient.accept_propagation(NodeId(0), p).is_err());
}

#[test]
fn a_narrow_shipped_ivv_is_refused_not_a_panic() {
    // A 2-node source's payload at a 3-node recipient: its IVVs are 2
    // wide. The recipient refuses it whole and is left as it was.
    let mut source = replica(0, 2);
    let mut recipient = replica(1, 3);
    source.update(ItemId(1), UpdateOp::set(&b"narrow"[..])).unwrap();
    let dbvv = DbVersionVector::zero(2);
    let PropagationResponse::Payload(p) = source.prepare_propagation(&dbvv) else { panic!() };
    let before = recipient.fingerprint();
    let refused = recipient.accept_propagation(NodeId(0), p).unwrap_err();
    assert_eq!(refused, Error::DimensionMismatch { left: 3, right: 2 });
    assert_eq!(recipient.fingerprint(), before);
    recipient.check_invariants().unwrap();
}

#[test]
fn cross_origin_tails_are_separated() {
    // Source knows updates from two origins; both tails travel and land in
    // the right components.
    let mut a = replica(0, 3);
    let mut b = replica(1, 3);
    let mut c = replica(2, 3);
    a.update(ItemId(0), UpdateOp::set(&b"from-a"[..])).unwrap();
    b.update(ItemId(1), UpdateOp::set(&b"from-b"[..])).unwrap();
    epidb_core::pull(&mut c, &mut a).unwrap();
    epidb_core::pull(&mut c, &mut b).unwrap();

    let mut fresh = replica(0, 3);
    let PropagationResponse::Payload(p) = c.prepare_propagation(&fresh.dbvv().clone()) else {
        panic!()
    };
    assert_eq!(p.tails[0].len(), 1);
    assert_eq!(p.tails[1].len(), 1);
    assert!(p.tails[2].is_empty());
    fresh.accept_propagation(NodeId(2), p).unwrap();
    assert_eq!(fresh.log().component_len(NodeId(0)), 1);
    assert_eq!(fresh.log().component_len(NodeId(1)), 1);
    assert_eq!(fresh.read(ItemId(0)).unwrap().as_bytes(), b"from-a");
    assert_eq!(fresh.read(ItemId(1)).unwrap().as_bytes(), b"from-b");
    fresh.check_invariants().unwrap();
}

// --- AcceptPropagation's outcomes, pinned --------------------------------
//
// Each case below pins what one accept returns and charges, and the
// recipient's model-checker fingerprint after it, to the values the
// one-pass loop produced before accept was split into a read-only pass
// and an apply pass.

/// What one `accept_propagation` call did: its outcome, the `Costs` and
/// counters it charged, and the recipient's fingerprint afterwards.
#[derive(Debug, PartialEq)]
struct Accepted {
    copied: Vec<ItemId>,
    conflicts: usize,
    replayed: u64,
    aux_discarded: Vec<ItemId>,
    costs: Costs,
    counters: ProtocolCounters,
    fingerprint: u64,
}

fn accept(recipient: &mut Replica, from: NodeId, p: PropagationPayload) -> Accepted {
    let (costs, counters) = (recipient.costs(), recipient.counters());
    let out = recipient.accept_propagation(from, p).unwrap();
    recipient.check_invariants().unwrap();
    let now = recipient.counters();
    Accepted {
        copied: out.copied,
        conflicts: out.conflicts,
        replayed: out.replayed,
        aux_discarded: out.aux_discarded,
        costs: recipient.costs() - costs,
        counters: ProtocolCounters {
            equal_receipts: now.equal_receipts - counters.equal_receipts,
            stale_receipts: now.stale_receipts - counters.stale_receipts,
            lww_resolutions: now.lww_resolutions - counters.lww_resolutions,
        },
        fingerprint: recipient.fingerprint(),
    }
}

/// The expected [`Accepted`]: nothing replayed or discarded (no case
/// holds auxiliary state), and `costs` / `counters` as the deltas charged.
fn pinned(
    copied: &[u32],
    conflicts: usize,
    costs: Costs,
    counters: ProtocolCounters,
    fingerprint: u64,
) -> Accepted {
    Accepted {
        copied: copied.iter().map(|&x| ItemId(x)).collect(),
        conflicts,
        replayed: 0,
        aux_discarded: Vec::new(),
        costs,
        counters,
        fingerprint,
    }
}

fn payload(source: &mut Replica, recipient_dbvv: &DbVersionVector) -> PropagationPayload {
    match source.prepare_propagation(recipient_dbvv) {
        PropagationResponse::Payload(p) => p,
        other => panic!("expected a payload, got {other:?}"),
    }
}

/// Node 0 and node 1 both update item 2; node 0 also updates item 5. The
/// payload node 1 receives from node 0 ships a concurrent item 2 and a
/// dominating item 5.
fn concurrent_pair(policy: ConflictPolicy) -> (Replica, PropagationPayload) {
    let mut source = replica(0, 3);
    let mut recipient = Replica::with_policy(NodeId(1), 3, 16, policy);
    source.update(ItemId(2), UpdateOp::set(&b"src"[..])).unwrap();
    source.update(ItemId(5), UpdateOp::set(&b"five"[..])).unwrap();
    recipient.update(ItemId(2), UpdateOp::set(&b"dst"[..])).unwrap();
    let p = payload(&mut source, &recipient.dbvv().clone());
    (recipient, p)
}

#[test]
fn accept_pins_an_item_shipped_twice() {
    // Copies A (one update) and B (two) of item 3, shipped as A, B, A:
    // the second copy is compared against the first one's result, and the
    // third against the second's.
    let mut source = replica(0, 3);
    let mut recipient = replica(1, 3);
    source.update(ItemId(3), UpdateOp::set(&b"a"[..])).unwrap();
    let first = payload(&mut source, &recipient.dbvv().clone()).items.remove(0);
    source.update(ItemId(3), UpdateOp::set(&b"bb"[..])).unwrap();
    let mut p = payload(&mut source, &recipient.dbvv().clone());
    p.items = vec![first.clone(), p.items.remove(0), first];
    let got = accept(&mut recipient, NodeId(0), p);
    assert_eq!(recipient.read(ItemId(3)).unwrap().as_bytes(), b"bb");
    let costs = Costs {
        vv_entry_cmps: 9,
        log_records_examined: 1,
        items_copied: 2,
        redundant_deliveries: 1,
        ..Costs::ZERO
    };
    let counters = ProtocolCounters { stale_receipts: 1, ..ProtocolCounters::default() };
    assert_eq!(got, pinned(&[3, 3], 0, costs, counters, 7_105_089_585_274_010_212));
}

#[test]
fn accept_pins_a_concurrent_copy_under_report() {
    let (mut recipient, p) = concurrent_pair(ConflictPolicy::Report);
    let got = accept(&mut recipient, NodeId(0), p);
    assert_eq!(recipient.read(ItemId(2)).unwrap().as_bytes(), b"dst");
    assert!(recipient.log().retained(NodeId(0), ItemId(2)).is_none(), "its record is stripped");
    let costs = Costs {
        vv_entry_cmps: 6,
        log_records_examined: 1,
        items_copied: 1,
        conflicts_detected: 1,
        ..Costs::ZERO
    };
    let counters = ProtocolCounters::default();
    assert_eq!(got, pinned(&[5], 1, costs, counters, 4_778_061_609_006_818_943));
}

#[test]
fn accept_pins_a_concurrent_copy_under_lww() {
    let (mut recipient, p) = concurrent_pair(ConflictPolicy::ResolveLww);
    let got = accept(&mut recipient, NodeId(0), p);
    let costs = Costs {
        vv_entry_cmps: 6,
        log_records_examined: 2,
        items_copied: 1,
        conflicts_detected: 1,
        ..Costs::ZERO
    };
    let counters = ProtocolCounters { lww_resolutions: 1, ..ProtocolCounters::default() };
    assert_eq!(got, pinned(&[2, 5], 1, costs, counters, 4_138_991_495_909_455_582));
}

#[test]
fn accept_pins_a_dominated_copy() {
    // The recipient already holds item 4 and has updated it since: the
    // re-delivered payload's copy is dominated, and its record is older
    // than the one retained.
    let mut source = replica(0, 3);
    let mut recipient = replica(1, 3);
    source.update(ItemId(4), UpdateOp::set(&b"old"[..])).unwrap();
    let p = payload(&mut source, &recipient.dbvv().clone());
    recipient.accept_propagation(NodeId(0), p.clone()).unwrap();
    recipient.update(ItemId(4), UpdateOp::set(&b"new"[..])).unwrap();
    let got = accept(&mut recipient, NodeId(0), p);
    assert_eq!(recipient.read(ItemId(4)).unwrap().as_bytes(), b"new");
    let costs =
        Costs { vv_entry_cmps: 3, log_records_examined: 1, redundant_deliveries: 1, ..Costs::ZERO };
    let counters = ProtocolCounters { stale_receipts: 1, ..ProtocolCounters::default() };
    assert_eq!(got, pinned(&[], 0, costs, counters, 14_440_724_531_009_376_697));
}
