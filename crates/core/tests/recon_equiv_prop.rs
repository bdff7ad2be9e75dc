//! Property: set reconciliation is observationally equivalent to the
//! whole-database pull it replaces.
//!
//! For an arbitrary divergence schedule — source writes, recipient
//! writes, source log compaction, an optional recipient crash/recovery —
//! a recipient synced by the digest-tree descent must end in exactly the
//! state its twin reaches through the O(database) whole pull: equal
//! model-checker fingerprints (store, log, DBVV, coverage floor), not
//! merely equal reads. This is the safety half of the cold-start ladder;
//! the cost half (the descent ships O(diff · log N), the whole pull
//! ships O(N)) is pinned by the cold-start gate in
//! `crates/bench/tests/count_gates.rs`.
//!
//! Each schedule runs at N = 16 (one bucket: the digest tree caches no
//! node), 37 and 200 (cached nodes above buckets of 16), so the descent
//! is checked both against leaf-hashed digests and against the cache.

use epidb_common::{ItemId, NodeId};
use epidb_core::{Engine, LocalTransport, PullOutcome, Replica};
use epidb_store::UpdateOp;
use proptest::prelude::*;

const N_NODES: usize = 2;
const SIZES: [usize; 3] = [16, 37, 200];

/// One step of the divergence phase, applied after the shared-history
/// pull: drift on either side, or a compaction tightening the source's
/// log retention (what makes the recipient's coverage gap unservable).
/// Slots are reduced modulo the item count.
#[derive(Clone, Debug)]
enum Op {
    SourceWrite { slot: usize, byte: u8, append: bool },
    RecipientWrite { slot: usize, byte: u8 },
    Compact { keep: usize },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let slot = 0..SIZES[2];
    let source = (slot.clone(), any::<u8>(), any::<bool>())
        .prop_map(|(slot, byte, append)| Op::SourceWrite { slot, byte, append });
    let recipient = (slot, any::<u8>()).prop_map(|(slot, byte)| Op::RecipientWrite { slot, byte });
    let compact = (1usize..3).prop_map(|keep| Op::Compact { keep });
    prop::collection::vec(prop_oneof![4 => source, 2 => recipient, 1 => compact], 0..24)
}

fn recon_matches_whole_pull(n_items: usize, shared: usize, ops: &[Op], crash: bool) {
    let item = |slot: usize| ItemId((slot % n_items) as u32);
    let mut source = Replica::new(NodeId(1), N_NODES, n_items);
    let mut recipient = Replica::new(NodeId(0), N_NODES, n_items);

    // Shared history: the source seeds some items and the recipient
    // absorbs them through an ordinary tail-covered pull.
    for i in 0..shared {
        source.update(item(i * 5), UpdateOp::set(vec![i as u8; 8])).unwrap();
    }
    if shared > 0 {
        Engine::pull(&mut recipient, &mut LocalTransport::new(&mut source)).unwrap();
    }

    // Divergence: both sides drift; the source may compact its log out
    // from under the recipient's coverage.
    for op in ops {
        match *op {
            Op::SourceWrite { slot, byte, append } => {
                let op = if append {
                    UpdateOp::append(vec![byte])
                } else {
                    UpdateOp::set(vec![byte; 4])
                };
                source.update(item(slot), op).unwrap();
            }
            Op::RecipientWrite { slot, byte } => {
                recipient.update(item(slot), UpdateOp::set(vec![byte, 0xAA])).unwrap();
            }
            Op::Compact { keep } => source.set_log_retention(keep),
        }
    }

    // Optional recipient crash: recover from its own durable image before
    // syncing (the cold-start shape).
    if crash {
        recipient = Replica::mc_restore(&recipient.mc_snapshot()).unwrap();
    }

    // Twins: same starting state, two sync paths.
    let mut by_recon = recipient.clone();
    let mut by_whole = recipient;
    let mut source_twin = source.clone();

    let out = Engine::pull_recon(&mut by_recon, &mut LocalTransport::new(&mut source)).unwrap();
    if !ops.is_empty() {
        prop_assert!(matches!(out, PullOutcome::Propagated(_) | PullOutcome::UpToDate));
    }

    let reply = source_twin.serve_full_pull().unwrap();
    by_whole.apply_recon_items(NodeId(1), reply.items, &reply.floor).unwrap();

    prop_assert_eq!(
        by_recon.fingerprint(),
        by_whole.fingerprint(),
        "reconciliation reached a different durable state than the whole pull at N = {}",
        n_items
    );
    by_recon.check_invariants().unwrap();
    by_whole.check_invariants().unwrap();
    for r in [&by_recon, &source] {
        let audit = r.audit();
        prop_assert!(audit.is_clean(), "{}", audit.summary());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn recon_sync_is_fingerprint_equal_to_whole_pull_sync(
        shared in 0usize..10,
        ops in arb_ops(),
        crash in any::<bool>(),
    ) {
        for n_items in SIZES {
            recon_matches_whole_pull(n_items, shared, &ops, crash);
        }
    }
}
