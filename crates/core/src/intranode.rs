//! `IntraNodePropagation` (§5.1 step 3, Fig. 4): replay auxiliary-log
//! records onto regular copies once the regular copy has caught up to the
//! state each update was originally applied on.

use epidb_common::trace::{OrdTag, TraceStep};
use epidb_common::{ConflictEvent, ConflictSite, ItemId};
use epidb_log::LogRecord;
use epidb_vv::{row, VersionVector, VvOrd};

use crate::replica::Replica;

/// What one intra-node propagation pass did.
#[derive(Clone, Debug, Default)]
pub(crate) struct IntraOutcome {
    /// Auxiliary records applied to regular copies.
    pub replayed: u64,
    /// Auxiliary copies discarded (regular copy caught up).
    pub discarded: Vec<ItemId>,
    /// Conflicts declared between a regular copy and an auxiliary record.
    pub conflicts: usize,
}

impl Replica {
    /// Run Fig. 4 for every item in `copied` (the items just brought up to
    /// date by `AcceptPropagation`).
    ///
    /// For each such item with an auxiliary copy: while the earliest
    /// auxiliary record's stored IVV equals the regular copy's IVV, apply
    /// its operation to the regular copy exactly as a fresh local update
    /// (bump `v_ii(x)`, bump `V_ii`, append `(x, V_ii)` to `L_ii`) and
    /// remove the record. If the vectors conflict, declare inconsistency.
    /// When the auxiliary log holds no more records for the item and the
    /// regular IVV dominates or equals the auxiliary IVV, discard the
    /// auxiliary copy.
    pub(crate) fn intra_node_propagation(&mut self, copied: &[ItemId]) -> IntraOutcome {
        let mut out = IntraOutcome::default();
        for &x in copied {
            if !self.aux_items.contains_key(&x) {
                continue;
            }
            loop {
                let Some(earliest) = self.aux_log.earliest(x) else {
                    // No more records for x: final catch-up check.
                    let aux_ivv = &self.aux_items[&x].ivv;
                    let reg_ivv = self.store.get(x).expect("item exists").ivv;
                    let mut cmps = 0;
                    let ord = row::compare_counted(reg_ivv, aux_ivv, &mut cmps);
                    self.costs.vv_entry_cmps += cmps;
                    // Conflict detection is deferred to AcceptPropagation
                    // here (§5.1): only the dominates-or-equal case acts.
                    if ord.dominates_or_equal() {
                        self.aux_items.remove(&x);
                        out.discarded.push(x);
                        self.trace_record(
                            TraceStep::IntraDiscard,
                            Some(x),
                            None,
                            OrdTag::NoCompare,
                            0,
                        );
                    }
                    break;
                };

                let mut cmps = 0;
                let ord = {
                    let reg_ivv = self.store.get(x).expect("item exists").ivv;
                    row::compare_counted(reg_ivv, &earliest.vv, &mut cmps)
                };
                self.costs.vv_entry_cmps += cmps;
                match ord {
                    VvOrd::Equal => {
                        // The regular copy is exactly the state this update
                        // was applied on: replay it as a local update.
                        let rec = self.aux_log.pop_earliest(x).expect("checked");
                        let pre_vv = if self.op_cache.is_enabled() {
                            Some(VersionVector::from_slice(
                                self.store.get(x).expect("item exists").ivv,
                            ))
                        } else {
                            None
                        };
                        let item = self.store.get_mut(x).expect("item exists");
                        rec.op.apply(item.value);
                        row::bump(item.ivv, self.id);
                        let m = self.dbvv.record_local_update(self.id);
                        self.log.add_record(self.id, LogRecord { item: x, m });
                        if let Some(pre_vv) = pre_vv {
                            self.op_cache.record(x, pre_vv, rec.op);
                        }
                        self.costs.aux_replays += 1;
                        out.replayed += 1;
                        self.trace_record(TraceStep::IntraReplay, Some(x), None, OrdTag::Equal, m);
                    }
                    VvOrd::Concurrent => {
                        // There exist inconsistent replicas of x (Fig. 4).
                        let offending = {
                            let reg_ivv = self.store.get(x).expect("item exists").ivv;
                            row::offending_pair(reg_ivv, &earliest.vv)
                        };
                        self.report_conflict(ConflictEvent {
                            item: x,
                            detected_at: self.id,
                            peer: None,
                            site: ConflictSite::IntraNode,
                            offending,
                        });
                        out.conflicts += 1;
                        self.trace_record(
                            TraceStep::IntraConflict,
                            Some(x),
                            None,
                            OrdTag::Concurrent,
                            0,
                        );
                        break;
                    }
                    VvOrd::DominatedBy => {
                        // The record was applied on a state the regular
                        // copy has not reached yet: stop until more
                        // propagation arrives.
                        break;
                    }
                    VvOrd::Dominates => {
                        // "vi(x) can never dominate a version vector of an
                        // auxiliary record" (§5.1) — true under conflict-free
                        // operation (e.g. tokens). Under optimistic updates
                        // it is reachable: the regular copy advanced past
                        // the record's base state through updates that
                        // cannot include this auxiliary update (it lives
                        // only here), so the update is concurrent with them
                        // — a genuine inconsistency.
                        self.report_conflict(ConflictEvent {
                            item: x,
                            detected_at: self.id,
                            peer: None,
                            site: ConflictSite::IntraNode,
                            offending: None,
                        });
                        out.conflicts += 1;
                        self.trace_record(
                            TraceStep::IntraConflict,
                            Some(x),
                            None,
                            OrdTag::Dominates,
                            0,
                        );
                        break;
                    }
                }
            }
        }
        out
    }
}
