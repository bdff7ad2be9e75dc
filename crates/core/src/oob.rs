//! Out-of-bound data copying (§5.2): obtaining a newer version of an
//! individual data item at any time, outside scheduled update propagation.

use epidb_common::trace::{OrdTag, TraceStep};
use epidb_common::{ConflictEvent, ConflictSite, ItemId, NodeId, Result};
use epidb_vv::VvOrd;

use crate::engine::{Engine, LocalTransport};
use crate::messages::OobReply;
use crate::replica::{AuxItem, Replica};

/// What an out-of-bound copy attempt did at the recipient.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OobOutcome {
    /// The received copy was newer and became the (new) auxiliary copy.
    Adopted {
        /// Whether the source answered from its own auxiliary copy.
        from_aux: bool,
    },
    /// The received copy was the same as, or older than, the local one;
    /// nothing changed.
    AlreadyCurrent,
    /// The received IVV conflicted with the local one; inconsistency was
    /// declared and nothing changed.
    Conflict,
}

impl Replica {
    /// Serve an out-of-bound request for item `x` (§5.2): reply with the
    /// auxiliary copy if one exists (it is never older than the regular
    /// copy — an optimization, not a correctness requirement), else the
    /// regular copy. No log records travel.
    /// Takes `&mut self` only to *share* the served value
    /// ([`epidb_store::ItemValue::share`] promotes owned storage to a
    /// refcounted buffer in place); no protocol state changes.
    pub fn serve_oob(&mut self, x: ItemId) -> Result<OobReply> {
        if let Some(aux) = self.aux_items.get_mut(&x) {
            return Ok(OobReply {
                item: x,
                ivv: aux.ivv.clone(),
                value: aux.value.share(),
                from_aux: true,
            });
        }
        let (ivv, value) = self.store.share(x)?;
        Ok(OobReply { item: x, ivv, value, from_aux: false })
    }

    /// Accept an out-of-bound reply (§5.2). The received IVV is compared
    /// against the local *auxiliary* IVV if an auxiliary copy exists, else
    /// the regular IVV:
    ///
    /// * received dominates → the received value and IVV become the new
    ///   auxiliary copy and auxiliary IVV. The auxiliary log is **not**
    ///   modified — any pending records still replay onto the regular copy
    ///   later.
    /// * equal or dominated → no action (the local copy is already as new).
    /// * concurrent → inconsistency is declared; no action.
    pub fn accept_oob(&mut self, from: NodeId, reply: OobReply) -> Result<OobOutcome> {
        self.journal_mutation(|| crate::journal::Mutation::Oob { from, reply: reply.clone() });
        self.check_item(reply.item)?;
        let x = reply.item;
        let mut cmps = 0;
        let ord = {
            let local_ivv = match self.aux_items.get(&x) {
                Some(aux) => &aux.ivv,
                None => &self.store.get(x)?.ivv,
            };
            reply.ivv.compare_counted(local_ivv, &mut cmps)
        };
        self.costs.vv_entry_cmps += cmps;
        let outcome = match ord {
            VvOrd::Dominates => {
                let from_aux = reply.from_aux;
                self.aux_items.insert(x, AuxItem { value: reply.value.into(), ivv: reply.ivv });
                self.trace_record(TraceStep::OobAccept, Some(x), Some(from), OrdTag::Dominates, 0);
                OobOutcome::Adopted { from_aux }
            }
            VvOrd::Equal | VvOrd::DominatedBy => {
                let tag = if ord == VvOrd::Equal { OrdTag::Equal } else { OrdTag::DominatedBy };
                self.costs.redundant_deliveries += 1;
                self.trace_record(TraceStep::OobAccept, Some(x), Some(from), tag, 0);
                OobOutcome::AlreadyCurrent
            }
            VvOrd::Concurrent => {
                let offending = {
                    let local_ivv = match self.aux_items.get(&x) {
                        Some(aux) => &aux.ivv,
                        None => &self.store.get(x)?.ivv,
                    };
                    reply.ivv.offending_pair(local_ivv)
                };
                self.report_conflict(ConflictEvent {
                    item: x,
                    detected_at: self.id,
                    peer: Some(from),
                    site: ConflictSite::OutOfBound,
                    offending,
                });
                self.trace_record(TraceStep::OobAccept, Some(x), Some(from), OrdTag::Concurrent, 0);
                OobOutcome::Conflict
            }
        };
        self.post_step_audit("accept-oob");
        Ok(outcome)
    }
}

/// Perform one out-of-bound copy of item `x`: `recipient` obtains the
/// source's newest copy of `x`, with message/byte accounting.
///
/// A thin wrapper over [`Engine::oob`] with the in-process
/// [`LocalTransport`] — the same dispatch path every other runtime uses.
pub fn oob_copy(recipient: &mut Replica, source: &mut Replica, x: ItemId) -> Result<OobOutcome> {
    Engine::oob(recipient, &mut LocalTransport::new(source), x)
}
