//! Scheduled update propagation — `SendPropagation` and
//! `AcceptPropagation` (§5.1, Figs. 2–3) plus the two-message pull
//! orchestration.

use std::collections::HashSet;

use epidb_common::trace::{OrdTag, TraceStep};
use epidb_common::{ConflictEvent, ConflictSite, Error, ItemId, NodeId, Result};
use epidb_log::LogRecord;
use epidb_vv::{row, DbVersionVector, VersionVector};

use crate::engine::{Engine, LocalTransport};
use crate::messages::{PropagationPayload, PropagationResponse, ShippedItem};
use crate::policy::{lww_remote_wins, ConflictPolicy};
use crate::replica::Replica;

/// What `AcceptPropagation` (plus the follow-up intra-node propagation)
/// did with a received payload.
#[derive(Clone, Debug, Default)]
pub struct AcceptOutcome {
    /// Items whose regular copy was brought up to date (adopted or, under
    /// the LWW policy, merged).
    pub copied: Vec<ItemId>,
    /// Conflicts declared while processing the payload.
    pub conflicts: usize,
    /// Auxiliary-log records replayed onto regular copies by the
    /// intra-node propagation step.
    pub replayed: u64,
    /// Auxiliary copies discarded because the regular copy caught up.
    pub aux_discarded: Vec<ItemId>,
}

/// Result of one anti-entropy pull.
#[derive(Clone, Debug)]
pub enum PullOutcome {
    /// The source replied "you are current": the recipient's DBVV dominates
    /// or equals the source's. Detected in O(n) — constant in the number of
    /// data items.
    UpToDate,
    /// Updates were propagated.
    Propagated(AcceptOutcome),
}

impl PullOutcome {
    /// Items copied by this pull (empty when up to date).
    pub fn copied(&self) -> &[ItemId] {
        match self {
            PullOutcome::UpToDate => &[],
            PullOutcome::Propagated(o) => &o.copied,
        }
    }
}

/// Outcome of the shared `SendPropagation` first half: the recipient is
/// current, tails can be served, or the retention-pruned log no longer
/// covers the recipient's gap and the source must punt to reconciliation.
pub(crate) enum TailSelection {
    /// The recipient's DBVV dominates or equals: nothing to send.
    Current,
    /// Per-origin tails plus the selected item set `S`.
    Tails(Vec<Vec<LogRecord>>, Vec<ItemId>),
    /// Some gapped origin `k` has `floor[k] > recipient_dbvv[k]`: records
    /// the recipient needs were evicted by log retention, so the tail
    /// vector cannot cover the gap.
    Uncovered,
}

impl Replica {
    /// The paper's `SendPropagation(i, V_i)` (Fig. 2), executed at the
    /// *source* `j = self` when recipient `i` asks to propagate.
    ///
    /// Compares the recipient's DBVV with the local one; if the recipient
    /// dominates or equals, answers [`PropagationResponse::YouAreCurrent`]
    /// — the constant-time identical-replica detection. Otherwise builds
    /// the tail vector `D` (per-origin records the recipient missed) and
    /// the item set `S` (via the `IsSelected` flags, O(m)) and ships both.
    ///
    /// Only regular copies are ever included in `S`; auxiliary state never
    /// participates in scheduled propagation (§5.1).
    pub fn prepare_propagation(&mut self, recipient_dbvv: &DbVersionVector) -> PropagationResponse {
        let (tails, s_items) = match self.select_tails(recipient_dbvv) {
            TailSelection::Current => return PropagationResponse::YouAreCurrent,
            TailSelection::Uncovered => return PropagationResponse::NeedRecon,
            TailSelection::Tails(tails, s_items) => (tails, s_items),
        };
        // Materialize the shipped items. Values are *shared*, not copied:
        // `ItemValue::share` hands out a refcounted view, so building `S`
        // costs O(|S|) regardless of value sizes.
        let mut items = Vec::with_capacity(s_items.len());
        for &x in &s_items {
            let (ivv, value) = self.store.share(x).expect("logged item exists");
            items.push(ShippedItem { item: x, ivv, value });
        }

        let shipped = items.len() as u64;
        self.trace_record(TraceStep::SendPropagation, None, None, OrdTag::NoCompare, shipped);
        self.post_step_audit("send-propagation");
        PropagationResponse::Payload(PropagationPayload { tails, items })
    }

    /// Shared first half of `SendPropagation`: the DBVV comparison, the
    /// tail vector `D`, and the selected item set `S` — everything up to
    /// (but excluding) materializing per-item payloads, so the whole-item
    /// and delta-offer paths can each ship only what they need.
    ///
    /// Returns [`TailSelection::Current`] when the recipient is current
    /// (the constant-time identical-replica detection, with its
    /// trace/audit already recorded), and [`TailSelection::Uncovered`]
    /// when log retention has evicted records inside the recipient's gap
    /// — the caller must degrade to set reconciliation.
    pub(crate) fn select_tails(&mut self, recipient_dbvv: &DbVersionVector) -> TailSelection {
        let mut cmps = 0;
        let ord = recipient_dbvv.compare_counted(&self.dbvv, &mut cmps);
        self.costs.vv_entry_cmps += cmps;
        if ord.dominates_or_equal() {
            self.trace_record(TraceStep::SendUpToDate, None, None, OrdTag::NoCompare, 0);
            self.post_step_audit("send-up-to-date");
            return TailSelection::Current;
        }

        let n = self.n_nodes();
        // Coverage check: for every gapped origin `k` the tail
        // `(recipient_dbvv[k], dbvv[k]]` must still be fully retained,
        // i.e. no eviction reached past the recipient's watermark.
        for k in NodeId::all(n) {
            if self.dbvv.get(k) > recipient_dbvv.get(k)
                && self.floor[k.index()] > recipient_dbvv.get(k)
            {
                self.trace_record(TraceStep::SendNeedRecon, None, None, OrdTag::NoCompare, 0);
                self.post_step_audit("send-need-recon");
                return TailSelection::Uncovered;
            }
        }

        let mut tails: Vec<Vec<LogRecord>> = vec![Vec::new(); n];
        let mut examined = 0;
        for k in NodeId::all(n) {
            if self.dbvv.get(k) > recipient_dbvv.get(k) {
                tails[k.index()] = self.log.tail_after(k, recipient_dbvv.get(k), &mut examined);
            }
        }
        self.costs.log_records_examined += examined;

        // Compute S = union of items referenced by D, in O(total records),
        // using the IsSelected flags (§6).
        let mut s_items: Vec<ItemId> = Vec::new();
        for tail in &tails {
            for rec in tail {
                let flag = &mut self.is_selected[rec.item.index()];
                if !*flag {
                    *flag = true;
                    s_items.push(rec.item);
                }
            }
        }
        for &x in &s_items {
            self.is_selected[x.index()] = false;
        }
        self.costs.items_scanned += s_items.len() as u64;
        TailSelection::Tails(tails, s_items)
    }

    /// The paper's `AcceptPropagation(D, S)` (Fig. 3), executed at the
    /// *recipient* `i = self`, followed by `IntraNodePropagation` (Fig. 4)
    /// for the items copied.
    ///
    /// Validate, journal, apply. `check_payload`
    /// refuses a malformed payload whole, before anything is journaled or
    /// applied. Then, for each shipped item in order: adopt it if its IVV
    /// dominates the local regular copy's; declare a conflict (and strip
    /// its records from the tail vector) if the IVVs are concurrent. Then
    /// append the surviving tails to the local log vector via
    /// `AddLogRecord`.
    pub fn accept_propagation(
        &mut self,
        source: NodeId,
        payload: PropagationPayload,
    ) -> Result<AcceptOutcome> {
        self.check_payload(&payload)?;
        self.journal_mutation(crate::journal::MutationRef::Propagation {
            from: source,
            payload: &payload,
        });
        let mut outcome = AcceptOutcome::default();
        let mut refused: HashSet<ItemId> = HashSet::new();

        for shipped in payload.items {
            let x = shipped.item;
            let mut cmps = 0;
            let ord = {
                let local = self.store.get(x).expect("checked");
                shipped.ivv.compare_counted(local.ivv, &mut cmps)
            };
            self.costs.vv_entry_cmps += cmps;
            match ord {
                epidb_vv::VvOrd::Dominates => {
                    // Received copy is strictly newer: adopt it and apply
                    // DBVV maintenance rule 3. Whole-item adoption breaks
                    // the local operation chain for delta propagation.
                    let local = self.store.get(x).expect("checked");
                    self.dbvv.absorb_item_copy(local.ivv, &shipped.ivv)?;
                    self.store.adopt(x, shipped.value.into(), &shipped.ivv)?;
                    self.op_cache.clear_item(x);
                    self.costs.items_copied += 1;
                    outcome.copied.push(x);
                    self.trace_record(
                        TraceStep::AcceptItem,
                        Some(x),
                        Some(source),
                        OrdTag::Dominates,
                        0,
                    );
                }
                epidb_vv::VvOrd::Equal => {
                    // Unreachable in conflict-free operation; harmless no-op
                    // when a previously refused item is re-shipped.
                    self.counters.equal_receipts += 1;
                    self.costs.redundant_deliveries += 1;
                    self.trace_record(
                        TraceStep::AcceptItem,
                        Some(x),
                        Some(source),
                        OrdTag::Equal,
                        0,
                    );
                }
                epidb_vv::VvOrd::DominatedBy => {
                    // "vi(x) dominates vj(x) cannot happen" (§5.1) in
                    // conflict-free operation; reachable only after an
                    // external conflict resolution. Ignore the stale copy.
                    self.counters.stale_receipts += 1;
                    self.costs.redundant_deliveries += 1;
                    self.trace_record(
                        TraceStep::AcceptItem,
                        Some(x),
                        Some(source),
                        OrdTag::DominatedBy,
                        0,
                    );
                }
                epidb_vv::VvOrd::Concurrent => {
                    outcome.conflicts += 1;
                    let offending = {
                        let local = self.store.get(x).expect("checked");
                        shipped.ivv.offending_pair(local.ivv)
                    };
                    self.report_conflict(ConflictEvent {
                        item: x,
                        detected_at: self.id,
                        peer: Some(source),
                        site: ConflictSite::Propagation,
                        offending,
                    });
                    match self.policy {
                        ConflictPolicy::Report if self.debug_adopt_conflicts => {
                            // Seeded mutant (model-checker self-test, see
                            // `Replica::debug_break_conflict_adopt`): adopt
                            // the concurrent copy with no DBVV absorb,
                            // breaking maintenance rule 3.
                            self.store.adopt(x, shipped.value.into(), &shipped.ivv)?;
                            self.op_cache.clear_item(x);
                            self.costs.items_copied += 1;
                            outcome.copied.push(x);
                            self.trace_record(
                                TraceStep::AcceptItem,
                                Some(x),
                                Some(source),
                                OrdTag::Concurrent,
                                0,
                            );
                        }
                        ConflictPolicy::Report => {
                            // Strip this item's records from the tail
                            // vector (Fig. 3) and refuse the copy.
                            refused.insert(x);
                            self.trace_record(
                                TraceStep::RefuseItem,
                                Some(x),
                                Some(source),
                                OrdTag::Concurrent,
                                0,
                            );
                        }
                        ConflictPolicy::ResolveLww => {
                            let m = self.resolve_lww(x, &shipped)?;
                            outcome.copied.push(x);
                            self.trace_record(
                                TraceStep::LwwResolve,
                                Some(x),
                                Some(source),
                                OrdTag::Concurrent,
                                m,
                            );
                        }
                    }
                }
            }
        }

        // Append the (surviving) tails to the local log vector, head to
        // tail, via AddLogRecord.
        let mut appended: u64 = 0;
        for (k, tail) in payload.tails.iter().enumerate() {
            let k = NodeId::from_index(k);
            for rec in tail {
                if refused.contains(&rec.item) {
                    continue;
                }
                self.log.add_record(k, *rec);
                self.costs.log_records_examined += 1;
                appended += 1;
            }
            self.enforce_log_retention(k);
        }
        self.trace_record(TraceStep::AppendTails, None, Some(source), OrdTag::NoCompare, appended);

        // Step 3: intra-node propagation for the copied items (Fig. 4).
        let intra = self.intra_node_propagation(&outcome.copied);
        outcome.replayed = intra.replayed;
        outcome.aux_discarded = intra.discarded;
        outcome.conflicts += intra.conflicts;

        self.post_step_audit("accept-propagation");
        Ok(outcome)
    }

    /// The read-only first pass of `AcceptPropagation`: refuse a payload
    /// that does not fit this replica's `n` servers and `N` items — one
    /// tail per server, every shipped item below `N` with an `n`-wide IVV,
    /// every tail record naming an item below `N` — with `UnknownItem` or
    /// `DimensionMismatch`, before anything is written.
    ///
    /// It also reads every line the apply will write: each shipped item's
    /// IVV row and its old value's shared header (dropped on adoption),
    /// and each tail record's retained slot. At a large `N` these are
    /// cache misses; taken here, with no write in between, they overlap,
    /// where the apply would take them one item after another.
    fn check_payload(&self, payload: &PropagationPayload) -> Result<()> {
        let n = self.n_nodes();
        let mut touched = 0u64;
        for shipped in &payload.items {
            let local = self.store.get(shipped.item)?;
            self.check_width(&shipped.ivv)?;
            touched ^= local.ivv.iter().fold(local.value.len() as u64, |acc, &e| acc ^ e);
        }
        if payload.tails.len() != n {
            return Err(Error::DimensionMismatch { left: n, right: payload.tails.len() });
        }
        for (k, tail) in payload.tails.iter().enumerate() {
            for rec in tail {
                self.check_item(rec.item)?;
                touched ^= self.log.retained(NodeId::from_index(k), rec.item).map_or(0, |r| r.m);
            }
        }
        // Keeps the reads: nothing else uses what they read.
        std::hint::black_box(touched);
        Ok(())
    }

    /// Resolve a propagation conflict under [`ConflictPolicy::ResolveLww`]:
    /// merge the IVVs (component-wise max), absorb the merge into the DBVV
    /// (the generalized rule 3), install the deterministic winner value,
    /// and record the resolution as a fresh local update so it dominates
    /// both parents. Returns the `m` of the resolution's log record.
    pub(crate) fn resolve_lww(&mut self, x: ItemId, shipped: &ShippedItem) -> Result<u64> {
        let local = self.store.get(x)?;
        let mut merged = VersionVector::from_slice(local.ivv);
        merged.merge_max(&shipped.ivv)?;
        self.dbvv.absorb_item_copy(local.ivv, &merged)?;
        if lww_remote_wins(local.value.as_bytes(), local.ivv, &shipped.value, &shipped.ivv) {
            // Refcount bump: the shipped value is already a shared buffer.
            self.store.adopt(x, shipped.value.clone().into(), &merged)?;
        } else {
            // Local value survives in place; only the IVV merges.
            self.store.get_mut(x)?.ivv.copy_from_slice(&merged);
        }
        self.op_cache.clear_item(x);
        // The resolution is a new update performed here.
        row::bump(self.store.get_mut(x)?.ivv, self.id);
        let m = self.dbvv.record_local_update(self.id);
        self.log.add_record(self.id, LogRecord { item: x, m });
        self.counters.lww_resolutions += 1;
        Ok(m)
    }
}

/// Perform one anti-entropy pull: `recipient` propagates updates from
/// `source` (§5.1), with full message/byte accounting.
///
/// Message 1 (recipient → source): the recipient's DBVV.
/// Message 2 (source → recipient): "you are current" or `(D, S)`.
///
/// A thin wrapper over [`Engine::pull`] with the in-process
/// [`LocalTransport`] — the same dispatch path every other runtime uses.
pub fn pull(recipient: &mut Replica, source: &mut Replica) -> Result<PullOutcome> {
    debug_assert_eq!(recipient.n_nodes(), source.n_nodes());
    Engine::pull(recipient, &mut LocalTransport::new(source))
}
