//! The initiator side of every protocol exchange — pull, delta-pull,
//! reconciliation, out-of-bound copy — as one explicit state machine.
//!
//! The paper gives each side of an exchange exactly one procedure (§5,
//! Figs. 2–4). The responder's is [`Engine::handle`](crate::Engine::handle);
//! the initiator's is [`Round`]. It is the only code that builds `Pull` /
//! `DeltaPull` / `DeltaFetch` / `Oob` / `Recon` requests and interprets
//! their replies (the descent itself lives in [`ReconDriver`], which a
//! `Round` owns):
//!
//! ```text
//! let (mut round, req) = Round::start_delta(&mut a, peer, &budget);
//! // ... req travels, the responder runs Engine::handle, resp returns ...
//! match round.on_response(&mut a, resp)? {
//!     RoundStep::Send(next) => { /* another message in flight */ }
//!     RoundStep::Done(outcome) => { /* round complete */ }
//! }
//! ```
//!
//! Everything that initiates runs this machine. The blocking drivers
//! ([`Engine::pull`](crate::Engine::pull) and friends) are one loop of
//! start → exchange → `on_response` until done, wrapped in the retry
//! policy; the model checker steps the same `Round` one message at a time
//! so it can stop between messages, fork the system, deliver a different
//! message first, or crash a node mid-round. Its conclusions transfer to
//! every production runtime because they run the same code, not because
//! two copies are tested to agree.
//!
//! Charging is part of the machine: the initiator charges each request as
//! it is built; the responder charges responses inside `Engine::handle`.
//!
//! Retries are deliberately *not* part of the machine: a transport failure
//! aborts the round, having applied nothing (delta data and recon items
//! are staged until the last reply), and the caller may start a fresh one
//! — rounds are idempotent. The blocking drivers do that under a
//! [`RetryPolicy`](crate::RetryPolicy); the model checker injects losses
//! as first-class events instead.

use epidb_common::{Error, ItemId, NodeId, Result};
use epidb_vv::VersionVector;

use crate::codec::{put_log_record, put_op, put_vv, Writer};
use crate::delta::{DeltaItem, DeltaOfferResponse, DeltaPayload, DeltaRequest, OfferEvaluation};
use crate::engine::{unexpected, GossipBudget, ProtocolRequest, ProtocolResponse};
use crate::mc_state::FnvHasher;
use crate::messages::PropagationResponse;
use crate::oob::OobOutcome;
use crate::propagation::PullOutcome;
use crate::recon::{ReconDriver, ReconStep};
use crate::replica::Replica;

/// What the initiator must do next after feeding a response into
/// [`Round::on_response`].
#[derive(Debug)]
pub enum RoundStep {
    /// Another request is in flight — deliver it to the responder and feed
    /// the response back in.
    Send(ProtocolRequest),
    /// The round completed.
    Done(RoundOutcome),
}

/// The completed round's result.
#[derive(Debug)]
pub enum RoundOutcome {
    /// A pull or delta-pull round finished.
    Pull(PullOutcome),
    /// An out-of-bound copy finished.
    Oob(OobOutcome),
}

/// A delta round between its offer and its last data frame.
#[derive(Clone, Debug)]
struct DeltaFetching {
    /// Item ids of the in-flight fetch chunk (for under-served
    /// re-requests).
    ids: Vec<ItemId>,
    /// Wants not yet put on the wire.
    remaining: Vec<(ItemId, VersionVector)>,
    /// Data collected so far, applied in one `apply_delta` at the end.
    got: Vec<DeltaItem>,
    /// The offer evaluation, carried into the apply step.
    eval: OfferEvaluation,
}

/// The two fat payloads are boxed: a `Round` is moved on every start and
/// every step, and the common rounds (an idle pull, an out-of-bound copy)
/// carry no payload at all.
#[derive(Clone, Debug)]
enum State {
    /// Waiting for message 2 of the whole-item pull.
    AwaitPull,
    /// Waiting for message 2 of the delta pull (the offer).
    AwaitOffer,
    /// Waiting for a delta data frame (message 4, possibly chunked).
    AwaitDelta(Box<DeltaFetching>),
    /// Waiting for the out-of-bound reply.
    AwaitOob {
        /// The requested item.
        item: ItemId,
    },
    /// Running a set-reconciliation descent (entered directly via
    /// [`Round::start_recon`] or by degradation when a pull or offer
    /// answers `NeedRecon`).
    Recon(Box<ReconDriver>),
    /// Finished (or aborted by an error).
    Done,
}

const UP_TO_DATE: RoundStep = RoundStep::Done(RoundOutcome::Pull(PullOutcome::UpToDate));

/// One in-flight initiator-side protocol round. `Clone` so the model
/// checker can fork a system with rounds mid-flight.
#[derive(Clone, Debug)]
pub struct Round {
    peer: NodeId,
    /// Fetch-chunk cap ([`GossipBudget::max_frame_items`], min 1).
    cap: usize,
    state: State,
}

impl Round {
    /// Start a whole-item pull (§5.1) from `initiator` toward `peer`.
    /// Charges the initiator for message 1 and returns it for delivery.
    pub fn start_pull(initiator: &mut Replica, peer: NodeId) -> (Round, ProtocolRequest) {
        let req = ProtocolRequest::Pull { from: initiator.id(), dbvv: initiator.dbvv().clone() };
        initiator.charge_message(req.control_bytes(), req.payload_bytes());
        (Round { peer, cap: usize::MAX, state: State::AwaitPull }, req)
    }

    /// Start a delta-mode pull (messages 1–4) from `initiator` toward
    /// `peer`, chunking fetches under `budget`.
    pub fn start_delta(
        initiator: &mut Replica,
        peer: NodeId,
        budget: &GossipBudget,
    ) -> (Round, ProtocolRequest) {
        let req =
            ProtocolRequest::DeltaPull { from: initiator.id(), dbvv: initiator.dbvv().clone() };
        initiator.charge_message(req.control_bytes(), req.payload_bytes());
        (Round { peer, cap: budget.max_frame_items.max(1), state: State::AwaitOffer }, req)
    }

    /// Start a set-reconciliation round from `initiator` toward `peer`,
    /// capping request frames under `budget`.
    pub fn start_recon(
        initiator: &mut Replica,
        peer: NodeId,
        budget: &GossipBudget,
    ) -> (Round, ProtocolRequest) {
        let cap = budget.max_frame_items.max(1);
        let (driver, req) = ReconDriver::start(initiator, cap);
        (Round { peer, cap, state: State::Recon(Box::new(driver)) }, req)
    }

    /// Start an out-of-bound copy of `item` (§5.2) from `initiator` toward
    /// `peer`.
    pub fn start_oob(
        initiator: &mut Replica,
        peer: NodeId,
        item: ItemId,
    ) -> (Round, ProtocolRequest) {
        let req = ProtocolRequest::Oob { from: initiator.id(), item };
        initiator.charge_message(req.control_bytes(), req.payload_bytes());
        (Round { peer, cap: usize::MAX, state: State::AwaitOob { item } }, req)
    }

    /// The responder this round is exchanging with.
    pub fn peer(&self) -> NodeId {
        self.peer
    }

    /// True once the round has completed or aborted.
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Done)
    }

    /// Feed the responder's reply to the last sent request into the
    /// machine. Returns the next request to deliver or the round's
    /// outcome. On `Err` the round is aborted (state becomes done).
    ///
    /// The two-message rounds — a pull, an out-of-bound copy — are decided
    /// here. A whole idle round is ~90 ns, so this frame is kept small: the
    /// later messages of the longer rounds are handled out of line
    /// (`#[inline(never)]`, or the optimizer folds them back in).
    pub fn on_response(
        &mut self,
        initiator: &mut Replica,
        resp: ProtocolResponse,
    ) -> Result<RoundStep> {
        match std::mem::replace(&mut self.state, State::Done) {
            State::AwaitPull => match resp {
                ProtocolResponse::Pull(PropagationResponse::YouAreCurrent) => Ok(UP_TO_DATE),
                ProtocolResponse::Pull(PropagationResponse::Payload(payload)) => {
                    let outcome = initiator.accept_propagation(self.peer, payload)?;
                    Ok(RoundStep::Done(RoundOutcome::Pull(PullOutcome::Propagated(outcome))))
                }
                // The responder's retention-pruned log cannot cover our
                // gap: the round continues as a reconciliation descent
                // under its own frame cap (unbounded for a plain pull).
                ProtocolResponse::Pull(PropagationResponse::NeedRecon) => {
                    Ok(RoundStep::Send(self.start_descent(initiator)))
                }
                other => Err(unexpected("pull", &other)),
            },
            State::AwaitOob { .. } => match resp {
                ProtocolResponse::Oob(reply) => {
                    let outcome = initiator.accept_oob(self.peer, reply)?;
                    Ok(RoundStep::Done(RoundOutcome::Oob(outcome)))
                }
                other => Err(unexpected("oob", &other)),
            },
            State::AwaitOffer => self.on_offer(initiator, resp),
            State::AwaitDelta(f) => self.on_delta_frame(initiator, f, resp),
            State::Recon(driver) => self.on_recon_reply(initiator, driver, resp),
            State::Done => Err(Error::Network("response delivered to a completed round".into())),
        }
    }

    /// Message 2 of the delta pull.
    #[inline(never)]
    fn on_offer(&mut self, initiator: &mut Replica, resp: ProtocolResponse) -> Result<RoundStep> {
        match resp {
            ProtocolResponse::DeltaOffer(DeltaOfferResponse::YouAreCurrent) => Ok(UP_TO_DATE),
            ProtocolResponse::DeltaOffer(DeltaOfferResponse::Offer(offer)) => {
                let (wants, eval) = initiator.evaluate_delta_offer(self.peer, offer)?;
                // Always at least one fetch, even for an empty want-list:
                // with an unbounded budget the exchange shape is that of
                // the unchunked protocol.
                let fetching = Box::new(DeltaFetching {
                    ids: Vec::new(),
                    remaining: wants.wants,
                    got: Vec::new(),
                    eval,
                });
                Ok(RoundStep::Send(self.next_fetch(initiator, fetching)))
            }
            ProtocolResponse::DeltaOffer(DeltaOfferResponse::NeedRecon) => {
                Ok(RoundStep::Send(self.start_descent(initiator)))
            }
            other => Err(unexpected("delta-pull", &other)),
        }
    }

    /// One delta data frame. The responder may answer any fetch with a
    /// shorter prefix (its frame-byte budget); the unserved suffix rides
    /// the next frame.
    #[inline(never)]
    fn on_delta_frame(
        &mut self,
        initiator: &mut Replica,
        mut f: Box<DeltaFetching>,
        resp: ProtocolResponse,
    ) -> Result<RoundStep> {
        let ProtocolResponse::DeltaPayload(payload) = resp else {
            return Err(unexpected("delta-fetch", &resp));
        };
        let take = f.ids.len();
        let served = payload.items.len().min(take);
        if served == 0 && take > 0 {
            return Err(Error::Network("delta fetch made no progress".into()));
        }
        if served < take {
            // Re-derive the suffix's IVVs from the store (nothing is
            // applied before the round's single `apply_delta`, so they
            // are stable) and put them back at the head of the queue.
            let mut unserved = f.ids[served..]
                .iter()
                .map(|&x| Ok((x, initiator.store.get(x)?.ivv.clone())))
                .collect::<Result<Vec<_>>>()?;
            unserved.append(&mut f.remaining);
            f.remaining = unserved;
        }
        f.got.extend(payload.items);
        if f.remaining.is_empty() {
            let DeltaFetching { got, eval, .. } = *f;
            let outcome = initiator.apply_delta(self.peer, DeltaPayload { items: got }, eval)?;
            Ok(RoundStep::Done(RoundOutcome::Pull(PullOutcome::Propagated(outcome))))
        } else {
            Ok(RoundStep::Send(self.next_fetch(initiator, f)))
        }
    }

    /// One reply of the reconciliation descent.
    #[inline(never)]
    fn on_recon_reply(
        &mut self,
        initiator: &mut Replica,
        mut driver: Box<ReconDriver>,
        resp: ProtocolResponse,
    ) -> Result<RoundStep> {
        match driver.on_response(initiator, self.peer, resp)? {
            ReconStep::Send(req) => {
                self.state = State::Recon(driver);
                Ok(RoundStep::Send(req))
            }
            ReconStep::Done(outcome) => Ok(RoundStep::Done(RoundOutcome::Pull(outcome))),
        }
    }

    /// Continue this round as a reconciliation descent under its frame cap.
    fn start_descent(&mut self, initiator: &mut Replica) -> ProtocolRequest {
        let (driver, req) = ReconDriver::start(initiator, self.cap);
        self.state = State::Recon(Box::new(driver));
        req
    }

    /// Carve the next `cap`-sized chunk off the want-list, charge and
    /// build its `DeltaFetch`, and park the rest in the state. The chunk
    /// is *moved* into the frame, not cloned — in the common fully-served
    /// case the round allocates nothing per want; only the ids are kept,
    /// for the rare under-served suffix.
    fn next_fetch(
        &mut self,
        initiator: &mut Replica,
        mut f: Box<DeltaFetching>,
    ) -> ProtocolRequest {
        let take = f.remaining.len().min(self.cap);
        let rest = f.remaining.split_off(take);
        let chunk = std::mem::replace(&mut f.remaining, rest);
        f.ids.clear();
        f.ids.extend(chunk.iter().map(|(x, _)| *x));
        let fetch = ProtocolRequest::DeltaFetch {
            from: initiator.id(),
            wants: DeltaRequest { wants: chunk },
        };
        initiator.charge_message(fetch.control_bytes(), fetch.payload_bytes());
        self.state = State::AwaitDelta(f);
        fetch
    }

    /// Absorb this round's full state into a fingerprint hasher, via the
    /// deterministic codec encoding — two rounds hash identically iff a
    /// future schedule cannot distinguish them.
    pub fn mc_fingerprint(&self, h: &mut FnvHasher) {
        h.write_u64(self.peer.index() as u64);
        h.write_u64(self.cap as u64);
        let mut w = Writer::new();
        match &self.state {
            State::AwaitPull => w.u8(0),
            State::AwaitOffer => w.u8(1),
            State::AwaitDelta(f) => {
                let DeltaFetching { ids, remaining, got, eval } = &**f;
                w.u8(2);
                w.u32(ids.len() as u32);
                for x in ids {
                    w.u32(x.0);
                }
                w.u32(remaining.len() as u32);
                for (x, ivv) in remaining {
                    w.u32(x.0);
                    put_vv(&mut w, ivv);
                }
                w.u32(got.len() as u32);
                for item in got {
                    match item {
                        DeltaItem::Ops { item, ops, final_ivv } => {
                            w.u8(0);
                            w.u32(item.0);
                            w.u32(ops.len() as u32);
                            for c in ops {
                                put_vv(&mut w, &c.pre_vv);
                                put_op(&mut w, &c.op);
                            }
                            put_vv(&mut w, final_ivv);
                        }
                        DeltaItem::Whole(s) => {
                            w.u8(1);
                            w.u32(s.item.0);
                            w.value(&s.value);
                            put_vv(&mut w, &s.ivv);
                        }
                    }
                }
                w.u32(eval.tails.len() as u32);
                for tail in &eval.tails {
                    w.u32(tail.len() as u32);
                    for rec in tail {
                        put_log_record(&mut w, rec);
                    }
                }
                w.u32(eval.refused.len() as u32);
                for x in &eval.refused {
                    w.u32(x.0);
                }
                w.u32(eval.conflicts as u32);
            }
            State::AwaitOob { item } => {
                w.u8(3);
                w.u32(item.0);
            }
            State::Done => w.u8(4),
            State::Recon(driver) => {
                w.u8(5);
                h.write(&w.into_bytes());
                driver.mc_fingerprint(h);
                return;
            }
        }
        h.write(&w.into_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidb_store::UpdateOp;

    #[test]
    fn round_fingerprint_distinguishes_states() {
        let mut a = Replica::new(NodeId(0), 2, 10);
        a.enable_delta(4096);
        a.update(ItemId(1), UpdateOp::set(&b"x"[..])).unwrap();
        let (pull_round, _) = Round::start_pull(&mut a.clone(), NodeId(1));
        let (delta_round, _) = Round::start_delta(&mut a, NodeId(1), &GossipBudget::UNBOUNDED);
        let mut h1 = FnvHasher::new();
        pull_round.mc_fingerprint(&mut h1);
        let mut h2 = FnvHasher::new();
        delta_round.mc_fingerprint(&mut h2);
        assert_ne!(h1.finish(), h2.finish());
    }
}
