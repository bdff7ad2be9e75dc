//! The transport-agnostic protocol engine: one dispatch surface for every
//! runtime.
//!
//! The paper's protocol is a handful of request/response exchanges — the
//! two-message pull (§5.1, Figs. 2–3), the four-message delta variant
//! (§2's update-record shipping), and the one-item out-of-bound copy
//! (§5.2). This module gives those exchanges a single vocabulary
//! ([`ProtocolRequest`] / [`ProtocolResponse`]) and a single responder
//! entry point ([`Engine::handle`]). The initiator's side is the
//! [`Round`] machine in [`crate::rounds`]; the blocking drivers here
//! ([`Engine::pull`], [`Engine::pull_delta`], [`Engine::pull_recon`],
//! [`Engine::oob`]) are one loop that runs a `Round` to completion against
//! any [`Transport`], wrapped in the [`RetryPolicy`] and the delta →
//! whole-item degradation.
//!
//! Every runtime is a thin adapter over these two procedures:
//!
//! * the in-process helpers (`pull`, `pull_delta`, `oob_copy`) and
//!   `epidb-sim` use [`LocalTransport`] — two replicas in one address
//!   space;
//! * `epidb-net`'s `AsyncTcpCluster` and `ShardedTcpCluster`, both served
//!   by one epoll reactor, frame the same enums with [`crate::codec`] —
//!   the wire codec serializes exactly the values the engine executes; the
//!   sharded runtimes add the [`ProtocolRequest::Shard`] envelope via
//!   [`ShardTransport`];
//! * `epidb-mc` steps the same `Round`s one message at a time.
//!
//! Cost accounting ([`Costs::charge_message`](epidb_common::Costs)),
//! protocol tracing, and paranoid post-step audits all live at this
//! dispatch boundary, so every transport gets them uniformly and for free.

use std::time::Instant;

use epidb_common::costs::wire;
use epidb_common::trace::{OrdTag, TraceStep};
use epidb_common::{Error, ItemId, NodeId, Result, ShardId};
use epidb_vv::DbVersionVector;

use crate::delta::{DeltaOfferResponse, DeltaPayload, DeltaRequest};
use crate::messages::{FullPullReply, OobReply, PropagationResponse, ReconReply};
use crate::oob::OobOutcome;
use crate::propagation::PullOutcome;
use crate::replica::Replica;
use crate::retry::RetryPolicy;
use crate::rounds::{Round, RoundOutcome, RoundStep};

/// A request message of the protocol, as executed by [`Engine::handle`]
/// and serialized by [`crate::codec`].
#[derive(Clone, Debug)]
pub enum ProtocolRequest {
    /// Message 1 of the two-message pull (§5.1): the recipient's DBVV.
    Pull {
        /// The requesting (recipient) node.
        from: NodeId,
        /// The recipient's database version vector.
        dbvv: DbVersionVector,
    },
    /// Message 1 of the delta-mode pull: same DBVV, but the source answers
    /// with an offer instead of values.
    DeltaPull {
        /// The requesting (recipient) node.
        from: NodeId,
        /// The recipient's database version vector.
        dbvv: DbVersionVector,
    },
    /// Message 3 of the delta-mode pull: the want-list.
    DeltaFetch {
        /// The requesting (recipient) node.
        from: NodeId,
        /// The items wanted, each with the recipient's current IVV.
        wants: DeltaRequest,
    },
    /// An out-of-bound request for one item (§5.2).
    Oob {
        /// The requesting node.
        from: NodeId,
        /// The wanted item.
        item: ItemId,
    },
    /// One step of the cold-start reconciliation descent (see
    /// [`crate::recon`]): probe digest-tree ranges and fetch differing
    /// leaves.
    Recon {
        /// The requesting (recipient) node.
        from: NodeId,
        /// Half-open item ranges whose child digests are wanted.
        ranges: Vec<(u32, u32)>,
        /// Differing leaves whose full items are wanted.
        fetch: Vec<ItemId>,
    },
    /// A whole-database pull — the O(N) bottom rung of the degradation
    /// ladder (delta → recon → whole-pull).
    FullPull {
        /// The requesting (recipient) node.
        from: NodeId,
    },
    /// Route a request to one shard of a sharded (partially replicating)
    /// node — see [`crate::shard`]. This is §2's "a separate instance of
    /// the protocol runs for each database": one instance per shard. A
    /// node that does not own the shard refuses with
    /// [`Error::NotServedHere`] carrying its shard-map entry.
    Shard {
        /// The shard the inner request addresses.
        shard: ShardId,
        /// The request to run against that shard's replica.
        req: Box<ProtocolRequest>,
    },
}

/// A response message of the protocol, paired with [`ProtocolRequest`].
#[derive(Clone, Debug)]
pub enum ProtocolResponse {
    /// Message 2 of the pull: "you are current" or the tails + items.
    Pull(PropagationResponse),
    /// Message 2 of the delta pull: "you are current" or the offer.
    DeltaOffer(DeltaOfferResponse),
    /// Message 4 of the delta pull: the requested data.
    DeltaPayload(DeltaPayload),
    /// Reply to an out-of-bound request.
    Oob(OobReply),
    /// Reply to one reconciliation descent step.
    Recon(ReconReply),
    /// Reply to a whole-database pull.
    Full(FullPullReply),
    /// A routed response from one shard of a sharded node.
    Shard {
        /// The shard the inner response came from.
        shard: ShardId,
        /// The response from that shard's replica.
        resp: Box<ProtocolResponse>,
    },
    /// A typed routing refusal ([`Error::NotServedHere`] or
    /// [`Error::ShardMoving`]) carried in-band so it survives byte-level
    /// transports with its structure — owners list, retryability — intact.
    /// [`Transport::exchange`] implementations convert it back into the
    /// `Err` it wraps, so drivers never observe it directly.
    Refused(Error),
    /// The responder failed to execute the request. Real transports carry
    /// the error back in-band; [`Transport::exchange`] implementations
    /// convert it into an [`Error`] so drivers never observe it directly.
    Error(String),
}

impl ProtocolRequest {
    /// The node that initiated this request (the [`Shard`](Self::Shard)
    /// envelope is transparent: it answers for the request inside).
    pub fn from(&self) -> NodeId {
        match self {
            ProtocolRequest::Pull { from, .. }
            | ProtocolRequest::DeltaPull { from, .. }
            | ProtocolRequest::DeltaFetch { from, .. }
            | ProtocolRequest::Oob { from, .. }
            | ProtocolRequest::Recon { from, .. }
            | ProtocolRequest::FullPull { from } => *from,
            ProtocolRequest::Shard { req, .. } => req.from(),
        }
    }

    /// Short kind name, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolRequest::Pull { .. } => "pull",
            ProtocolRequest::DeltaPull { .. } => "delta-pull",
            ProtocolRequest::DeltaFetch { .. } => "delta-fetch",
            ProtocolRequest::Oob { .. } => "oob",
            ProtocolRequest::Recon { .. } => "recon",
            ProtocolRequest::FullPull { .. } => "full-pull",
            ProtocolRequest::Shard { .. } => "shard",
        }
    }

    /// Control bytes of the whole request message, envelope included. The
    /// [`Shard`](ProtocolRequest::Shard) routing envelope is modeled by the
    /// message header (its shard id travels in the header's budget), so
    /// routed and unrouted requests charge identically — a requirement for
    /// the cost-parity guarantee across transports.
    pub fn control_bytes(&self) -> u64 {
        wire::MSG_HEADER + self.body_control_bytes()
    }

    fn body_control_bytes(&self) -> u64 {
        match self {
            ProtocolRequest::Pull { dbvv, .. } | ProtocolRequest::DeltaPull { dbvv, .. } => {
                wire::vv(dbvv.len())
            }
            ProtocolRequest::DeltaFetch { wants, .. } => wants.control_bytes(),
            ProtocolRequest::Oob { .. } => wire::ITEM_ID,
            ProtocolRequest::Recon { ranges, fetch, .. } => {
                ranges.len() as u64 * wire::RECON_RANGE + fetch.len() as u64 * wire::ITEM_ID
            }
            ProtocolRequest::FullPull { .. } => 0,
            ProtocolRequest::Shard { req, .. } => req.body_control_bytes(),
        }
    }

    /// Payload bytes of the request message (always zero: requests carry
    /// version information only, never item values).
    pub fn payload_bytes(&self) -> u64 {
        0
    }
}

impl ProtocolResponse {
    /// Short kind name, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolResponse::Pull(_) => "pull",
            ProtocolResponse::DeltaOffer(_) => "delta-offer",
            ProtocolResponse::DeltaPayload(_) => "delta-payload",
            ProtocolResponse::Oob(_) => "oob",
            ProtocolResponse::Recon(_) => "recon",
            ProtocolResponse::Full(_) => "full",
            ProtocolResponse::Shard { .. } => "shard",
            ProtocolResponse::Refused(_) => "refused",
            ProtocolResponse::Error(_) => "error",
        }
    }

    /// Control bytes of the whole response message, envelope included (the
    /// [`Shard`](ProtocolResponse::Shard) envelope is header-budget, as on
    /// the request side).
    pub fn control_bytes(&self) -> u64 {
        wire::MSG_HEADER + self.body_control_bytes()
    }

    fn body_control_bytes(&self) -> u64 {
        match self {
            ProtocolResponse::Pull(r) => r.control_bytes(),
            ProtocolResponse::DeltaOffer(r) => r.control_bytes(),
            ProtocolResponse::DeltaPayload(p) => p.control_bytes(),
            ProtocolResponse::Oob(r) => r.control_bytes(),
            ProtocolResponse::Recon(r) => r.control_bytes(),
            ProtocolResponse::Full(r) => r.control_bytes(),
            ProtocolResponse::Shard { resp, .. } => resp.body_control_bytes(),
            ProtocolResponse::Refused(e) => e.to_string().len() as u64,
            ProtocolResponse::Error(msg) => msg.len() as u64,
        }
    }

    /// Payload bytes of the response message (item values being copied).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            ProtocolResponse::Pull(r) => r.payload_bytes(),
            ProtocolResponse::DeltaPayload(p) => p.payload_bytes(),
            ProtocolResponse::Oob(r) => r.value.len() as u64,
            ProtocolResponse::Recon(r) => r.payload_bytes(),
            ProtocolResponse::Full(r) => r.payload_bytes(),
            ProtocolResponse::Shard { resp, .. } => resp.payload_bytes(),
            ProtocolResponse::DeltaOffer(_)
            | ProtocolResponse::Refused(_)
            | ProtocolResponse::Error(_) => 0,
        }
    }
}

/// How bytes move: one request out, one response back.
///
/// Implementations decide the medium — a direct function call
/// ([`LocalTransport`]), a channel pair, a framed socket — and surface
/// delivery failure (loss, timeout, a crashed peer) as [`Error`]. A remote
/// [`ProtocolResponse::Error`] must also be converted to `Err`, so drivers
/// only ever see successful, well-typed responses.
pub trait Transport {
    /// The node id of the peer this transport reaches.
    fn peer(&self) -> NodeId;

    /// Send one request and await the peer's response.
    fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse>;
}

impl<T: Transport + ?Sized> Transport for &mut T {
    fn peer(&self) -> NodeId {
        (**self).peer()
    }

    fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
        (**self).exchange(req)
    }
}

/// Access to the initiating replica between exchanges.
///
/// Drivers never hold the replica across a blocking
/// [`Transport::exchange`] — under a live runtime that would hold the
/// replica's lock while waiting on a peer that may be waiting on us
/// (mutual pulls would deadlock). Implementations scope each borrow to one
/// local protocol step.
pub trait ReplicaHost {
    /// Run `f` over the replica, holding it only for the duration of `f`.
    fn with<R>(&mut self, f: impl FnOnce(&mut Replica) -> R) -> R;
}

impl ReplicaHost for Replica {
    fn with<R>(&mut self, f: impl FnOnce(&mut Replica) -> R) -> R {
        f(self)
    }
}

/// The in-process transport: the "peer" is another replica in the same
/// address space, and an exchange is a direct call to [`Engine::handle`].
pub struct LocalTransport<'a> {
    source: &'a mut Replica,
}

impl<'a> LocalTransport<'a> {
    /// Wrap the source replica of an in-process exchange.
    pub fn new(source: &'a mut Replica) -> LocalTransport<'a> {
        LocalTransport { source }
    }
}

impl Transport for LocalTransport<'_> {
    fn peer(&self) -> NodeId {
        self.source.id()
    }

    fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
        Engine::handle(self.source, req)
    }
}

/// A transport that reaches one shard of a sharded node by wrapping every
/// exchange in the [`ProtocolRequest::Shard`] routing envelope and
/// unwrapping the reply. A reply that names a different shard than the
/// one asked about is an error: another shard's state must never be
/// adopted as this one's.
pub struct ShardTransport<'a, T: Transport> {
    inner: &'a mut T,
    shard: ShardId,
}

impl<'a, T: Transport> ShardTransport<'a, T> {
    /// Route exchanges on `inner` to the peer node's shard `shard`.
    pub fn new(inner: &'a mut T, shard: ShardId) -> ShardTransport<'a, T> {
        ShardTransport { inner, shard }
    }
}

impl<T: Transport> Transport for ShardTransport<'_, T> {
    fn peer(&self) -> NodeId {
        self.inner.peer()
    }

    fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
        let envelope = ProtocolRequest::Shard { shard: self.shard, req: Box::new(req) };
        match self.inner.exchange(envelope)? {
            ProtocolResponse::Shard { shard, resp } if shard == self.shard => Ok(*resp),
            ProtocolResponse::Shard { shard, .. } => Err(Error::Network(format!(
                "shard-routed exchange: asked for shard {}, reply names shard {shard}",
                self.shard
            ))),
            other => Err(unexpected("shard-routed exchange", &other)),
        }
    }
}

/// Build the error for a response of the wrong shape (or a remote error a
/// transport let through).
pub(crate) fn unexpected(context: &str, resp: &ProtocolResponse) -> Error {
    match resp {
        ProtocolResponse::Error(msg) => Error::Network(format!("{context}: peer error: {msg}")),
        // A typed refusal a transport let through keeps its type: its
        // retryability story must not be flattened into a generic network
        // error.
        ProtocolResponse::Refused(e) => e.clone(),
        other => Error::Network(format!("{context}: unexpected {} response", other.kind())),
    }
}

/// How an initiator coalesces a delta round's want-list into fetch frames.
///
/// A gossip round over many small items wants a handful of large frames,
/// not one frame per item (per-frame costs — header, CRC, syscall —
/// dominate tiny payloads) and not one unbounded frame (which can trip
/// the transport's [`crate::codec::MAX_FRAME`] limit). The budget bounds
/// the *item count* per `DeltaFetch`; the responder's byte budget
/// ([`Replica::set_delta_frame_budget`]) bounds the reply, and anything
/// it leaves unserved is re-requested in the next frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GossipBudget {
    /// Maximum wanted items carried by one `DeltaFetch` frame. Values
    /// below 1 behave as 1 (a frame that can carry nothing makes no
    /// progress).
    pub max_frame_items: usize,
}

impl GossipBudget {
    /// No coalescing: the whole want-list rides one fetch frame — the
    /// exchange shape (and therefore the per-node [`epidb_common::Costs`])
    /// of the unchunked protocol.
    pub const UNBOUNDED: GossipBudget = GossipBudget { max_frame_items: usize::MAX };

    /// At most `items` wants per fetch frame.
    pub const fn per_frame(items: usize) -> GossipBudget {
        GossipBudget { max_frame_items: items }
    }
}

impl Default for GossipBudget {
    fn default() -> GossipBudget {
        GossipBudget::UNBOUNDED
    }
}

/// The protocol engine. A unit type: all state lives in the replicas; the
/// engine is the single dispatch surface over them.
pub struct Engine;

impl Engine {
    /// Execute one request against the responder's replica — the single
    /// entry point every runtime serves requests through.
    ///
    /// Charges the responder for the response message and runs the
    /// paranoid post-step audit at this boundary, so accounting and
    /// auditing are uniform across transports. Shard-routed requests
    /// ([`ProtocolRequest::Shard`]) are a [`ShardedNode`](crate::ShardedNode)
    /// concern — see [`Engine::handle_sharded`] — and fail here.
    ///
    /// A request from a node at or above `n`, or a pull whose DBVV is not
    /// `n` wide, is refused (`UnknownNode`, `DimensionMismatch`) before any
    /// state or cost is touched.
    pub fn handle(replica: &mut Replica, req: ProtocolRequest) -> Result<ProtocolResponse> {
        let from = req.from();
        if from.index() >= replica.n_nodes() {
            return Err(Error::UnknownNode(from));
        }
        if let ProtocolRequest::Pull { dbvv, .. } | ProtocolRequest::DeltaPull { dbvv, .. } = &req {
            replica.check_width(dbvv.as_vector())?;
        }
        let resp = match req {
            ProtocolRequest::Pull { dbvv, .. } => {
                ProtocolResponse::Pull(replica.prepare_propagation(&dbvv))
            }
            ProtocolRequest::DeltaPull { dbvv, .. } => {
                ProtocolResponse::DeltaOffer(replica.prepare_delta_offer(&dbvv))
            }
            ProtocolRequest::DeltaFetch { wants, .. } => {
                ProtocolResponse::DeltaPayload(replica.serve_delta_request(&wants)?)
            }
            ProtocolRequest::Oob { item, .. } => {
                let reply = replica.serve_oob(item)?;
                replica.trace_record(
                    TraceStep::OobServe,
                    Some(item),
                    Some(from),
                    OrdTag::NoCompare,
                    reply.from_aux as u64,
                );
                replica.post_step_audit("serve-oob");
                ProtocolResponse::Oob(reply)
            }
            ProtocolRequest::Recon { ranges, fetch, .. } => {
                ProtocolResponse::Recon(replica.serve_recon(&ranges, &fetch)?)
            }
            ProtocolRequest::FullPull { .. } => ProtocolResponse::Full(replica.serve_full_pull()?),
            ProtocolRequest::Shard { .. } => {
                return Err(Error::Network(format!(
                    "request {:?} requires sharded dispatch",
                    req.kind()
                )));
            }
        };
        replica.charge_message(resp.control_bytes(), resp.payload_bytes());
        Ok(resp)
    }

    /// The shared retry loop: run `round` until it succeeds, the error is
    /// not transient, attempts run out, or the deadline passes. Rounds are
    /// idempotent (each attempt restarts from the recipient's *current*
    /// DBVV, and re-shipped dominated items are no-ops by IVV comparison),
    /// so retrying a whole round is always safe.
    ///
    /// Accounting happens here, at the same boundary as message charging:
    /// every extra attempt charges `retries`, and every corrupt frame
    /// observed — whichever layer detected it — charges
    /// `corrupt_frames_dropped` on the recipient.
    /// `start` is the round's clock for the deadline check
    /// ([`RetryPolicy::round_start`]: not read at all under a policy with no
    /// deadline); callers that chain loops (the delta→whole degradation)
    /// pass one shared start so the whole ladder answers to one deadline.
    fn retry_loop<H, T, R>(
        recipient: &mut H,
        transport: &mut T,
        policy: &RetryPolicy,
        start: Option<Instant>,
        mut round: impl FnMut(&mut H, &mut T) -> Result<R>,
    ) -> Result<R>
    where
        H: ReplicaHost,
        T: Transport,
    {
        let mut failed = 0u32;
        loop {
            match round(recipient, transport) {
                Ok(out) => return Ok(out),
                Err(e) => {
                    if matches!(e, Error::CorruptFrame(_)) {
                        recipient.with(|r| r.note_corrupt_frame());
                    }
                    failed += 1;
                    let Some(pause) = policy.pause_before_retry(failed, start, &e) else {
                        return Err(e);
                    };
                    recipient.with(|r| r.note_retry());
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
            }
        }
    }

    /// Run one [`Round`] to completion: the single blocking initiator.
    /// `start` builds (and charges) message 1; every reply is fed back
    /// into the machine until it is done. The replica is borrowed only
    /// inside each `with`, never across an exchange. An `Err` — from the
    /// transport or from the machine — aborts the round; a fresh one may
    /// be started (that is what [`Engine::retry_loop`] does).
    fn drive<H, T>(
        recipient: &mut H,
        transport: &mut T,
        start: impl FnOnce(&mut Replica, NodeId) -> (Round, ProtocolRequest),
    ) -> Result<RoundOutcome>
    where
        H: ReplicaHost,
        T: Transport,
    {
        let peer = transport.peer();
        let (mut round, mut req) = recipient.with(|r| start(r, peer));
        loop {
            let resp = transport.exchange(req)?;
            match recipient.with(|r| round.on_response(r, resp))? {
                RoundStep::Send(next) => req = next,
                RoundStep::Done(outcome) => return Ok(outcome),
            }
        }
    }

    /// [`Engine::drive`] for the rounds that end in a [`PullOutcome`].
    fn drive_pull<H, T>(
        recipient: &mut H,
        transport: &mut T,
        start: impl FnOnce(&mut Replica, NodeId) -> (Round, ProtocolRequest),
    ) -> Result<PullOutcome>
    where
        H: ReplicaHost,
        T: Transport,
    {
        match Self::drive(recipient, transport, start)? {
            RoundOutcome::Pull(outcome) => Ok(outcome),
            RoundOutcome::Oob(_) => unreachable!("a pull round ends in a pull outcome"),
        }
    }

    /// Drive one whole-item anti-entropy pull (§5.1) as the recipient,
    /// against any transport. No retries; see [`Engine::pull_with`].
    pub fn pull<H, T>(recipient: &mut H, transport: &mut T) -> Result<PullOutcome>
    where
        H: ReplicaHost,
        T: Transport,
    {
        Self::pull_with(recipient, transport, &RetryPolicy::none())
    }

    /// As [`Engine::pull`], retrying the whole round under `policy` when
    /// an exchange fails transiently.
    pub fn pull_with<H, T>(
        recipient: &mut H,
        transport: &mut T,
        policy: &RetryPolicy,
    ) -> Result<PullOutcome>
    where
        H: ReplicaHost,
        T: Transport,
    {
        Self::retry_loop(recipient, transport, policy, policy.round_start(), |h, t| {
            Self::drive_pull(h, t, Round::start_pull)
        })
    }

    /// Drive one cold-start reconciliation (digest-tree descent, possibly
    /// degrading to the whole-database pull) as the recipient, against any
    /// transport. No retries; see [`Engine::pull_recon_with`].
    pub fn pull_recon<H, T>(recipient: &mut H, transport: &mut T) -> Result<PullOutcome>
    where
        H: ReplicaHost,
        T: Transport,
    {
        Self::pull_recon_with(recipient, transport, &RetryPolicy::none(), &GossipBudget::UNBOUNDED)
    }

    /// As [`Engine::pull_recon`], retrying the whole descent under
    /// `policy` (descents are idempotent: a fresh attempt restarts from
    /// the recipient's *current* state, so already-adopted items prune
    /// out) and capping request frames under `budget` — at most
    /// [`GossipBudget::max_frame_items`] range probes plus leaf fetches
    /// per `Recon` frame.
    pub fn pull_recon_with<H, T>(
        recipient: &mut H,
        transport: &mut T,
        policy: &RetryPolicy,
        budget: &GossipBudget,
    ) -> Result<PullOutcome>
    where
        H: ReplicaHost,
        T: Transport,
    {
        Self::retry_loop(recipient, transport, policy, policy.round_start(), |h, t| {
            Self::drive_pull(h, t, |r, peer| Round::start_recon(r, peer, budget))
        })
    }

    /// Drive one delta-mode pull (§2's update-record shipping; messages
    /// 1–4) as the recipient, against any transport. No retries; see
    /// [`Engine::pull_delta_with`].
    pub fn pull_delta<H, T>(recipient: &mut H, transport: &mut T) -> Result<PullOutcome>
    where
        H: ReplicaHost,
        T: Transport,
    {
        Self::pull_delta_with(recipient, transport, &RetryPolicy::none())
    }

    /// As [`Engine::pull_delta`], with two layers of resilience: each
    /// delta round retries under `policy`, and if the four-message delta
    /// exchange *still* fails transiently, the driver degrades to the
    /// two-message whole-item pull — fewer exchanges to survive, and the
    /// recipient catches up with values instead of op chains. (The
    /// responder-side budget check degrades per *item* inside the delta
    /// payload; this ladder covers the whole-round failure case.)
    pub fn pull_delta_with<H, T>(
        recipient: &mut H,
        transport: &mut T,
        policy: &RetryPolicy,
    ) -> Result<PullOutcome>
    where
        H: ReplicaHost,
        T: Transport,
    {
        Self::pull_delta_budgeted(recipient, transport, policy, &GossipBudget::UNBOUNDED)
    }

    /// As [`Engine::pull_delta_with`], coalescing the round's fetches
    /// under `budget`: at most [`GossipBudget::max_frame_items`] wants per
    /// `DeltaFetch` frame, with anything the responder leaves unserved
    /// (its own frame-byte budget) re-requested until the round is whole.
    pub fn pull_delta_budgeted<H, T>(
        recipient: &mut H,
        transport: &mut T,
        policy: &RetryPolicy,
        budget: &GossipBudget,
    ) -> Result<PullOutcome>
    where
        H: ReplicaHost,
        T: Transport,
    {
        let start = policy.round_start();
        let delta = Self::retry_loop(recipient, transport, policy, start, |h, t| {
            Self::drive_pull(h, t, |r, peer| Round::start_delta(r, peer, budget))
        });
        match delta {
            Err(e) if policy.retryable(&e) && !policy.past_deadline(start) => {
                // The degradation is exactly one more attempt at the
                // round, in a cheaper mode, charged against the *same*
                // round budget: no fresh retry loop, and no attempt at
                // all once the round's deadline has passed — a degraded
                // round must never outlive the policy that bounds it.
                recipient.with(|r| r.note_retry());
                Self::drive_pull(recipient, transport, Round::start_pull)
            }
            other => other,
        }
    }

    /// Drive one out-of-bound copy of `item` (§5.2) as the recipient,
    /// against any transport. No retries; see [`Engine::oob_with`].
    pub fn oob<H, T>(recipient: &mut H, transport: &mut T, item: ItemId) -> Result<OobOutcome>
    where
        H: ReplicaHost,
        T: Transport,
    {
        Self::oob_with(recipient, transport, item, &RetryPolicy::none())
    }

    /// As [`Engine::oob`], retrying the one-item exchange under `policy`.
    pub fn oob_with<H, T>(
        recipient: &mut H,
        transport: &mut T,
        item: ItemId,
        policy: &RetryPolicy,
    ) -> Result<OobOutcome>
    where
        H: ReplicaHost,
        T: Transport,
    {
        Self::retry_loop(recipient, transport, policy, policy.round_start(), |h, t| {
            match Self::drive(h, t, |r, peer| Round::start_oob(r, peer, item))? {
                RoundOutcome::Oob(outcome) => Ok(outcome),
                RoundOutcome::Pull(_) => unreachable!("an oob round ends in an oob outcome"),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidb_store::UpdateOp;

    fn pair() -> (Replica, Replica) {
        (Replica::new(NodeId(0), 2, 10), Replica::new(NodeId(1), 2, 10))
    }

    #[test]
    fn handle_rejects_shard_routed_requests() {
        let (mut a, _) = pair();
        let routed = ProtocolRequest::Shard {
            shard: ShardId(0),
            req: Box::new(ProtocolRequest::Oob { from: NodeId(1), item: ItemId(0) }),
        };
        assert!(Engine::handle(&mut a, routed).is_err());
    }

    #[test]
    fn a_request_that_does_not_fit_is_refused_untouched() {
        // Each request decodes fine but does not fit a 2-node replica: a
        // pull whose DBVV is 3 or 1 wide, or any request from node 2 or
        // above. Each is refused before any state or cost moves.
        let (mut a, _) = pair();
        a.update(ItemId(3), UpdateOp::set(&b"x"[..])).unwrap();
        let (costs, fingerprint) = (a.costs(), a.fingerprint());
        let narrow =
            |from, width| ProtocolRequest::Pull { from, dbvv: DbVersionVector::zero(width) };
        let cases = [
            (narrow(NodeId(1), 3), Error::DimensionMismatch { left: 2, right: 3 }),
            (
                ProtocolRequest::DeltaPull { from: NodeId(1), dbvv: DbVersionVector::zero(1) },
                Error::DimensionMismatch { left: 2, right: 1 },
            ),
            (narrow(NodeId(2), 2), Error::UnknownNode(NodeId(2))),
            (
                ProtocolRequest::Oob { from: NodeId(9), item: ItemId(3) },
                Error::UnknownNode(NodeId(9)),
            ),
            (ProtocolRequest::FullPull { from: NodeId(2) }, Error::UnknownNode(NodeId(2))),
        ];
        for (req, want) in cases {
            let kind = req.kind();
            assert_eq!(Engine::handle(&mut a, req).unwrap_err(), want, "{kind}");
            assert_eq!(a.costs(), costs, "{kind}: nothing charged");
            assert_eq!(a.fingerprint(), fingerprint, "{kind}: nothing changed");
        }
    }

    #[test]
    fn engine_pull_equals_wrapper_semantics() {
        let (mut a, mut b) = pair();
        a.update(ItemId(3), UpdateOp::set(&b"x"[..])).unwrap();
        let out = Engine::pull(&mut b, &mut LocalTransport::new(&mut a)).unwrap();
        assert_eq!(out.copied(), &[ItemId(3)]);
        assert!(matches!(
            Engine::pull(&mut b, &mut LocalTransport::new(&mut a)).unwrap(),
            PullOutcome::UpToDate
        ));
        assert_eq!(b.read(ItemId(3)).unwrap().as_bytes(), b"x");
    }

    #[test]
    fn shard_envelope_is_cost_transparent() {
        let dbvv = DbVersionVector::zero(3);
        let plain = ProtocolRequest::Pull { from: NodeId(0), dbvv: dbvv.clone() };
        let routed = ProtocolRequest::Shard { shard: ShardId(7), req: Box::new(plain.clone()) };
        assert_eq!(plain.control_bytes(), routed.control_bytes());

        let plain = ProtocolResponse::Pull(PropagationResponse::YouAreCurrent);
        let routed = ProtocolResponse::Shard { shard: ShardId(7), resp: Box::new(plain.clone()) };
        assert_eq!(plain.control_bytes(), routed.control_bytes());
        assert_eq!(plain.payload_bytes(), routed.payload_bytes());
    }

    #[test]
    fn refused_responses_keep_their_typed_error() {
        let refusal = Error::ShardMoving(ShardId(2));
        let err = unexpected("pull", &ProtocolResponse::Refused(refusal.clone()));
        assert_eq!(err, refusal);
        assert!(err.is_retryable());
        let refusal = Error::NotServedHere { shard: ShardId(1), owners: vec![NodeId(3)] };
        let err = unexpected("pull", &ProtocolResponse::Refused(refusal.clone()));
        assert_eq!(err, refusal);
        assert!(!err.is_retryable());
    }

    #[test]
    fn unexpected_response_reports_kind() {
        let err = unexpected("pull", &ProtocolResponse::Recon(ReconReply::default()));
        assert!(matches!(err, Error::Network(ref m) if m.contains("recon")));
        let err = unexpected("pull", &ProtocolResponse::Error("boom".into()));
        assert!(matches!(err, Error::Network(ref m) if m.contains("boom")));
    }

    /// Fails the first `failures` exchanges, then behaves; optionally only
    /// for delta-mode requests (to exercise the degradation ladder).
    struct Flaky<'a> {
        inner: LocalTransport<'a>,
        failures: u32,
        delta_only: bool,
    }

    impl Transport for Flaky<'_> {
        fn peer(&self) -> NodeId {
            self.inner.peer()
        }

        fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
            let is_delta = matches!(
                req,
                ProtocolRequest::DeltaPull { .. } | ProtocolRequest::DeltaFetch { .. }
            );
            if self.failures > 0 && (!self.delta_only || is_delta) {
                self.failures -= 1;
                return Err(Error::Network("flaky".into()));
            }
            self.inner.exchange(req)
        }
    }

    #[test]
    fn pull_with_retries_through_transient_failures() {
        let (mut a, mut b) = pair();
        a.update(ItemId(1), UpdateOp::set(&b"v"[..])).unwrap();
        let mut t = Flaky { inner: LocalTransport::new(&mut a), failures: 2, delta_only: false };
        let policy = crate::RetryPolicy::attempts(4);
        let out = Engine::pull_with(&mut b, &mut t, &policy).unwrap();
        assert_eq!(out.copied(), &[ItemId(1)]);
        assert_eq!(b.costs().retries, 2);
    }

    #[test]
    fn no_retry_policy_fails_on_first_error() {
        let (mut a, mut b) = pair();
        let mut t = Flaky { inner: LocalTransport::new(&mut a), failures: 1, delta_only: false };
        assert!(Engine::pull(&mut b, &mut t).is_err());
        assert_eq!(b.costs().retries, 0);
    }

    #[test]
    fn exhausted_attempts_surface_the_error() {
        let (mut a, mut b) = pair();
        let mut t = Flaky { inner: LocalTransport::new(&mut a), failures: 10, delta_only: false };
        let policy = crate::RetryPolicy::attempts(3);
        assert!(Engine::pull_with(&mut b, &mut t, &policy).is_err());
        assert_eq!(b.costs().retries, 2, "three attempts = two retries");
    }

    #[test]
    fn delta_degrades_to_whole_item_pull() {
        let (mut a, mut b) = pair();
        a.update(ItemId(2), UpdateOp::set(&b"w"[..])).unwrap();
        // Delta exchanges always fail; the whole-item path is healthy.
        let mut t =
            Flaky { inner: LocalTransport::new(&mut a), failures: u32::MAX, delta_only: true };
        let policy = crate::RetryPolicy::attempts(2);
        let out = Engine::pull_delta_with(&mut b, &mut t, &policy).unwrap();
        assert_eq!(out.copied(), &[ItemId(2)]);
        assert_eq!(b.read(ItemId(2)).unwrap().as_bytes(), b"w");
        assert!(b.costs().retries >= 2, "delta retry + degradation both charge");
    }

    #[test]
    fn corrupt_frames_are_counted_and_retried() {
        let (mut a, mut b) = pair();
        a.update(ItemId(1), UpdateOp::set(&b"v"[..])).unwrap();
        struct CorruptOnce<'a>(LocalTransport<'a>, bool);
        impl Transport for CorruptOnce<'_> {
            fn peer(&self) -> NodeId {
                self.0.peer()
            }
            fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
                if !self.1 {
                    self.1 = true;
                    return Err(Error::CorruptFrame("crc mismatch".into()));
                }
                self.0.exchange(req)
            }
        }
        let mut t = CorruptOnce(LocalTransport::new(&mut a), false);
        let policy = crate::RetryPolicy::attempts(3);
        let out = Engine::pull_with(&mut b, &mut t, &policy).unwrap();
        assert_eq!(out.copied(), &[ItemId(1)]);
        assert_eq!(b.costs().corrupt_frames_dropped, 1);
        assert_eq!(b.costs().retries, 1);
    }

    #[test]
    fn non_transient_errors_never_retry() {
        let (mut a, mut b) = pair();
        struct Wrong<'a>(LocalTransport<'a>, u32);
        impl Transport for Wrong<'_> {
            fn peer(&self) -> NodeId {
                self.0.peer()
            }
            fn exchange(&mut self, _req: ProtocolRequest) -> Result<ProtocolResponse> {
                self.1 += 1;
                Err(Error::UnknownItem(ItemId(99)))
            }
        }
        let _ = &mut a;
        let mut t = Wrong(LocalTransport::new(&mut a), 0);
        let policy = crate::RetryPolicy::attempts(5);
        assert!(Engine::pull_with(&mut b, &mut t, &policy).is_err());
        assert_eq!(t.1, 1, "a non-retryable error must not be retried");
        assert_eq!(b.costs().retries, 0);
    }

    /// Always fails, counting every exchange — for pinning the total
    /// attempt budget of a round including its degradation.
    struct FailCount(u32);
    impl Transport for FailCount {
        fn peer(&self) -> NodeId {
            NodeId(0)
        }
        fn exchange(&mut self, _req: ProtocolRequest) -> Result<ProtocolResponse> {
            self.0 += 1;
            Err(Error::Network("down".into()))
        }
    }

    #[test]
    fn degradation_shares_the_round_attempt_budget() {
        // Regression: the degraded whole-item attempt used to run a
        // *fresh* retry loop with a fresh deadline, so a failing round
        // could spend ~2x max_attempts. It is now exactly one extra
        // exchange: max_attempts delta attempts + 1 degraded pull.
        let (_, mut b) = pair();
        let mut t = FailCount(0);
        let policy = crate::RetryPolicy::attempts(3);
        assert!(Engine::pull_delta_with(&mut b, &mut t, &policy).is_err());
        assert_eq!(t.0, 4, "3 delta attempts + 1 degraded whole-item attempt");
        assert_eq!(b.costs().retries, 3, "2 in-loop retries + the degradation switch");
    }

    #[test]
    fn expired_deadline_skips_the_degradation() {
        // A round whose deadline has passed must not start the degraded
        // whole-item attempt: one delta attempt, then the error surfaces.
        let (_, mut b) = pair();
        let mut t = FailCount(0);
        let policy = crate::RetryPolicy {
            round_deadline: Some(std::time::Duration::ZERO),
            ..crate::RetryPolicy::attempts(5)
        };
        assert!(Engine::pull_delta_with(&mut b, &mut t, &policy).is_err());
        assert_eq!(t.0, 1, "deadline already expired: no retries, no degradation");
        assert_eq!(b.costs().retries, 0);
    }

    /// Fails exactly the `fail_at`-th exchange (1-based) and keeps every
    /// request it was handed — no chaos rng, the schedule is the test's.
    struct FailKth<'a> {
        inner: LocalTransport<'a>,
        fail_at: usize,
        seen: Vec<ProtocolRequest>,
    }
    impl Transport for FailKth<'_> {
        fn peer(&self) -> NodeId {
            self.inner.peer()
        }
        fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
            self.seen.push(req.clone());
            if self.seen.len() == self.fail_at {
                return Err(Error::Network("dropped".into()));
            }
            self.inner.exchange(req)
        }
    }

    /// A multi-message round whose `fail_at`-th exchange is lost: alone it
    /// applies nothing; under `attempts(2)` it retries once, from message
    /// 1 with the recipient's current DBVV, and ends where a clean run
    /// ends. Returns the request kinds the retried run put on the wire.
    fn abort_then_retry(
        (a0, b0): (Replica, Replica),
        fail_at: usize,
        run: impl Fn(&mut Replica, &mut FailKth, &RetryPolicy) -> Result<PullOutcome>,
    ) -> Vec<&'static str> {
        let flaky = |a, fail_at| FailKth { inner: LocalTransport::new(a), fail_at, seen: vec![] };

        let (mut a, mut b) = (a0.clone(), b0.clone());
        assert!(run(&mut b, &mut flaky(&mut a, fail_at), &RetryPolicy::none()).is_err());
        assert_eq!(b.fingerprint(), b0.fingerprint(), "the aborted attempt applied something");
        assert_eq!(b.costs().retries, 0);

        let (mut a, mut clean) = (a0.clone(), b0.clone());
        run(&mut clean, &mut flaky(&mut a, usize::MAX), &RetryPolicy::none()).unwrap();
        assert_ne!(clean.fingerprint(), b0.fingerprint(), "the round has work to do");

        let (mut a, mut b) = (a0, b0.clone());
        let mut t = flaky(&mut a, fail_at);
        run(&mut b, &mut t, &RetryPolicy::attempts(2)).unwrap();
        assert_eq!(b.costs().retries, 1);
        assert_eq!(b.fingerprint(), clean.fingerprint());
        // The retry is a fresh round: the request after the lost one is
        // message 1 again, built from the recipient's current (and, the
        // abort having applied nothing, unchanged) state.
        assert_eq!(format!("{:?}", t.seen[fail_at]), format!("{:?}", t.seen[0]));
        if let ProtocolRequest::DeltaPull { dbvv, .. } = &t.seen[fail_at] {
            assert_eq!(dbvv, b0.dbvv());
        }
        t.seen.iter().map(ProtocolRequest::kind).collect()
    }

    #[test]
    fn lost_second_delta_fetch_aborts_cleanly_and_retries_from_message_one() {
        let mut a = Replica::new(NodeId(0), 2, 16);
        let mut b = Replica::new(NodeId(1), 2, 16);
        a.enable_delta(4096);
        b.enable_delta(4096);
        for i in 0..10 {
            a.update(ItemId(i), UpdateOp::set(vec![i as u8; 8])).unwrap();
        }
        b.update(ItemId(12), UpdateOp::set(&b"mine"[..])).unwrap();
        let kinds = abort_then_retry((a, b), 3, |b, t, policy| {
            Engine::pull_delta_budgeted(b, t, policy, &GossipBudget::per_frame(4))
        });
        let attempt = ["delta-pull", "delta-fetch", "delta-fetch", "delta-fetch"];
        assert_eq!(kinds, [&attempt[..3], &attempt[..]].concat());
    }

    #[test]
    fn lost_second_recon_probe_aborts_cleanly_and_retries_from_the_root() {
        let mut a = Replica::new(NodeId(0), 2, 32);
        let mut b = Replica::new(NodeId(1), 2, 32);
        for i in 0..32 {
            a.update(ItemId(i), UpdateOp::set(vec![i as u8; 8])).unwrap();
        }
        Engine::pull(&mut b, &mut LocalTransport::new(&mut a)).unwrap();
        for i in [2, 17, 30] {
            a.update(ItemId(i), UpdateOp::append(&b"+late"[..])).unwrap();
        }
        let kinds = abort_then_retry((a, b), 2, |b, t, policy| {
            Engine::pull_recon_with(b, t, policy, &GossipBudget::per_frame(2))
        });
        assert!(kinds.len() > 4 && kinds.iter().all(|&k| k == "recon"), "{kinds:?}");
    }

    /// Counts delta exchanges by kind, for pinning frame coalescing.
    struct Counting<'a> {
        inner: LocalTransport<'a>,
        pulls: u32,
        fetches: u32,
    }
    impl Transport for Counting<'_> {
        fn peer(&self) -> NodeId {
            self.inner.peer()
        }
        fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
            match &req {
                ProtocolRequest::DeltaPull { .. } => self.pulls += 1,
                ProtocolRequest::DeltaFetch { .. } => self.fetches += 1,
                _ => {}
            }
            self.inner.exchange(req)
        }
    }

    #[test]
    fn budgeted_rounds_chunk_the_want_list() {
        let (mut a, mut b) = pair();
        for i in 0..10 {
            a.update(ItemId(i), UpdateOp::set(&b"v"[..])).unwrap();
        }
        let mut t = Counting { inner: LocalTransport::new(&mut a), pulls: 0, fetches: 0 };
        let policy = crate::RetryPolicy::none();
        let out = Engine::pull_delta_budgeted(&mut b, &mut t, &policy, &GossipBudget::per_frame(4))
            .unwrap();
        assert_eq!(out.copied().len(), 10);
        assert_eq!(t.pulls, 1);
        assert_eq!(t.fetches, 3, "10 wants at 4 per frame = 3 fetch frames");
        for i in 0..10 {
            assert_eq!(b.read(ItemId(i)).unwrap().as_bytes(), b"v");
        }
    }

    #[test]
    fn responder_byte_budget_serves_a_prefix_that_is_rerequested() {
        let (mut a, mut b) = pair();
        for i in 0..3 {
            a.update(ItemId(i), UpdateOp::set(&b"value"[..])).unwrap();
        }
        // A 1-byte responder budget forces one item per payload frame;
        // the initiator re-requests the unserved suffix until whole.
        a.set_delta_frame_budget(1);
        let mut t = Counting { inner: LocalTransport::new(&mut a), pulls: 0, fetches: 0 };
        let policy = crate::RetryPolicy::none();
        let out =
            Engine::pull_delta_budgeted(&mut b, &mut t, &policy, &GossipBudget::UNBOUNDED).unwrap();
        assert_eq!(out.copied().len(), 3);
        assert_eq!(t.fetches, 3, "one served item per fetch under a 1-byte budget");
        for i in 0..3 {
            assert_eq!(b.read(ItemId(i)).unwrap().as_bytes(), b"value");
        }
    }

    #[test]
    fn unbounded_budget_matches_the_unchunked_exchange_shape() {
        // Transport parity depends on the default budget charging exactly
        // the same messages as the pre-coalescing protocol: one DeltaPull,
        // one DeltaFetch, regardless of want-list size.
        let (mut a, mut b) = pair();
        for i in 0..10 {
            a.update(ItemId(i), UpdateOp::set(&b"v"[..])).unwrap();
        }
        let mut t = Counting { inner: LocalTransport::new(&mut a), pulls: 0, fetches: 0 };
        let out = Engine::pull_delta(&mut b, &mut t).unwrap();
        assert_eq!(out.copied().len(), 10);
        assert_eq!((t.pulls, t.fetches), (1, 1));
    }
}
