//! Seed-deterministic fault injection over any [`Transport`].
//!
//! [`ChaosTransport`] wraps an inner transport and subjects every exchange
//! to a [`FaultPlan`]: loss on either leg, duplication, reordering,
//! latency, byte corruption, per-link partitions, and mid-exchange
//! connection resets. All randomness comes from one per-link
//! [`StdRng`] seeded explicitly, so a run is a pure function of
//! `(seed, plan, schedule)` — a failing chaos run replays exactly from its
//! printed seed.
//!
//! The faults are modeled at the request/response boundary the engine
//! drivers see:
//!
//! * **loss** (request or response leg) — the exchange fails with a
//!   [`Error::Network`] before or after the responder executed it;
//! * **duplication** — the responder executes the request twice; the
//!   first response is dropped in flight (the paper's idempotence makes
//!   the duplicate a read-only no-op);
//! * **reordering** — the request is *deferred*: the round fails now, and
//!   the stale request is delivered (and its response discarded) at the
//!   front of a later exchange on the same link — an old in-flight frame
//!   arriving out of order;
//! * **corruption** — the message is actually encoded with the checked
//!   codec, one byte is flipped, and the checked decoder produces the
//!   real [`Error::CorruptFrame`] the wire path would produce;
//! * **partition** — exchanges fail while the link's tick counter is
//!   inside a [`PartitionWindow`]; windows end, so partitions heal;
//! * **reset** — the responder executed the request but the connection
//!   died before the response arrived (the half-applied-round shape the
//!   retry ladder must survive).

use std::time::Duration;

use epidb_common::{Error, NodeId, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::codec::{
    decode_request_checked, decode_response_checked, encode_request_checked,
    encode_response_checked,
};
use crate::engine::{ProtocolRequest, ProtocolResponse, Transport};

/// A half-open window `[from, until)` of link ticks (exchange attempts on
/// that link) during which the link is partitioned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First tick of the outage.
    pub from: u64,
    /// First tick after the outage (the window heals here).
    pub until: u64,
}

impl PartitionWindow {
    /// Whether `tick` falls inside the outage.
    pub fn contains(&self, tick: u64) -> bool {
        (self.from..self.until).contains(&tick)
    }
}

/// The fault mix applied to one link. All probabilities are per-exchange
/// and independent; `Default` is the fault-free plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability the request leg is lost.
    pub request_loss: f64,
    /// Probability the response leg is lost (after responder execution).
    pub response_loss: f64,
    /// Probability the request is delivered twice.
    pub duplication: f64,
    /// Probability the request is deferred and redelivered out of order.
    pub reorder: f64,
    /// Probability one byte of the frame (request or response, chosen at
    /// random) is corrupted.
    pub corruption: f64,
    /// Probability the connection resets mid-exchange, after the responder
    /// executed the request but before the response arrives.
    pub reset: f64,
    /// Fixed extra latency per exchange.
    pub latency: Duration,
    /// Scheduled outages, in link ticks.
    pub partitions: Vec<PartitionWindow>,
}

impl FaultPlan {
    /// The fault-free plan.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Uniform loss on both legs — the shape the old `FaultInjector`
    /// provided.
    pub fn lossy(p: f64) -> FaultPlan {
        FaultPlan { request_loss: p, response_loss: p, ..FaultPlan::default() }
    }
}

/// Ground-truth injection counts, kept by the injector itself so harnesses
/// can check the protocol's accounting (e.g. every corrupted frame was
/// dropped) against what was actually done to the link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Exchange attempts made through this link.
    pub exchanges: u64,
    /// Requests lost before reaching the responder.
    pub lost_requests: u64,
    /// Responses lost after responder execution.
    pub lost_responses: u64,
    /// Requests delivered twice.
    pub duplicated: u64,
    /// Requests deferred for out-of-order redelivery.
    pub reordered: u64,
    /// Deferred requests actually redelivered late.
    pub redelivered: u64,
    /// Frames corrupted (request or response leg).
    pub corrupted: u64,
    /// Connections reset after responder execution.
    pub resets: u64,
    /// Exchanges refused because the link was partitioned.
    pub partitioned: u64,
    /// Exchanges that completed cleanly.
    pub delivered: u64,
}

impl ChaosStats {
    /// Total faults injected.
    pub fn faults(&self) -> u64 {
        self.lost_requests
            + self.lost_responses
            + self.duplicated
            + self.reordered
            + self.corrupted
            + self.resets
            + self.partitioned
    }
}

/// Persistent chaos state for one directed link: the seeded RNG, the plan,
/// the tick counter partitions are scheduled against, deferred (reordered)
/// requests awaiting redelivery, and the injection stats.
///
/// Links outlive the per-round [`ChaosTransport`] wrapper — runtimes build
/// a fresh transport per exchange, but the fault process must be
/// continuous across rounds.
#[derive(Debug)]
pub struct ChaosLink {
    rng: StdRng,
    plan: FaultPlan,
    tick: u64,
    deferred: Vec<ProtocolRequest>,
    /// Injection counts so far.
    pub stats: ChaosStats,
}

impl ChaosLink {
    /// A link driven by `plan`, with all randomness derived from `seed`.
    pub fn new(seed: u64, plan: FaultPlan) -> ChaosLink {
        ChaosLink {
            rng: StdRng::seed_from_u64(seed),
            plan,
            tick: 0,
            deferred: Vec::new(),
            stats: ChaosStats::default(),
        }
    }

    /// The plan this link runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Replace the plan (e.g. heal the link for a convergence phase).
    /// The RNG, tick counter, and stats carry over.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Exchange attempts made so far (the clock partitions run on).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    fn partitioned(&self) -> bool {
        self.plan.partitions.iter().any(|w| w.contains(self.tick))
    }

    /// Flip one random byte in `frame`.
    fn corrupt_byte(&mut self, frame: &mut [u8]) {
        let idx = self.rng.gen_range(0..frame.len());
        let bit = self.rng.gen_range(0..8u32);
        frame[idx] ^= 1 << bit;
    }
}

fn chaos_err(what: &str) -> Error {
    Error::Network(format!("chaos: {what}"))
}

/// A [`Transport`] that owns an inner transport and injects the faults of
/// a [`ChaosLink`] into every exchange. Composable: the inner transport
/// can be [`LocalTransport`](crate::LocalTransport), a channel, a socket —
/// anything that implements [`Transport`] (including `&mut T`).
pub struct ChaosTransport<'a, T: Transport> {
    inner: T,
    link: &'a mut ChaosLink,
}

impl<'a, T: Transport> ChaosTransport<'a, T> {
    /// Wrap `inner`, injecting faults from `link`.
    pub fn new(inner: T, link: &'a mut ChaosLink) -> ChaosTransport<'a, T> {
        ChaosTransport { inner, link }
    }

    /// Unwrap the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for ChaosTransport<'_, T> {
    fn peer(&self) -> NodeId {
        self.inner.peer()
    }

    fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
        let link = &mut *self.link;
        link.tick += 1;
        link.stats.exchanges += 1;

        // Deferred (reordered) requests arrive first: stale frames landing
        // out of order. The responder executes them; their responses have
        // nobody waiting and are discarded.
        for old in std::mem::take(&mut link.deferred) {
            link.stats.redelivered += 1;
            let _ = self.inner.exchange(old);
        }

        if link.partitioned() {
            link.stats.partitioned += 1;
            return Err(chaos_err("link partitioned"));
        }

        if !link.plan.latency.is_zero() {
            std::thread::sleep(link.plan.latency);
        }

        let p = link.plan.clone();
        if p.reorder > 0.0 && link.rng.gen_bool(p.reorder) {
            link.stats.reordered += 1;
            link.deferred.push(req);
            return Err(chaos_err("request reordered"));
        }
        if p.request_loss > 0.0 && link.rng.gen_bool(p.request_loss) {
            link.stats.lost_requests += 1;
            return Err(chaos_err("request lost"));
        }
        if p.corruption > 0.0 && link.rng.gen_bool(p.corruption / 2.0) {
            // Request-leg corruption: run the real frame through the real
            // checked codec with one byte flipped, and surface exactly the
            // error the wire path produces.
            let mut frame = encode_request_checked(&req);
            link.corrupt_byte(&mut frame);
            link.stats.corrupted += 1;
            return Err(match decode_request_checked(&frame) {
                Err(e) => e,
                Ok(_) => chaos_err("corruption went undetected"),
            });
        }
        if p.duplication > 0.0 && link.rng.gen_bool(p.duplication) {
            link.stats.duplicated += 1;
            let _ = self.inner.exchange(req.clone());
        }

        let resp = self.inner.exchange(req)?;

        if p.reset > 0.0 && link.rng.gen_bool(p.reset) {
            link.stats.resets += 1;
            return Err(chaos_err("connection reset mid-exchange"));
        }
        if p.response_loss > 0.0 && link.rng.gen_bool(p.response_loss) {
            link.stats.lost_responses += 1;
            return Err(chaos_err("response lost"));
        }
        if p.corruption > 0.0 && link.rng.gen_bool(p.corruption / 2.0) {
            let mut frame = encode_response_checked(&resp);
            link.corrupt_byte(&mut frame);
            link.stats.corrupted += 1;
            return Err(match decode_response_checked(&frame) {
                Err(e) => e,
                Ok(_) => chaos_err("corruption went undetected"),
            });
        }

        link.stats.delivered += 1;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, LocalTransport};
    use crate::replica::Replica;
    use crate::retry::RetryPolicy;
    use epidb_common::ItemId;
    use epidb_store::UpdateOp;

    fn pair() -> (Replica, Replica) {
        (Replica::new(NodeId(0), 2, 8), Replica::new(NodeId(1), 2, 8))
    }

    #[test]
    fn fault_free_link_is_transparent() {
        let (mut a, mut b) = pair();
        a.update(ItemId(1), UpdateOp::set(&b"v"[..])).unwrap();
        let mut link = ChaosLink::new(1, FaultPlan::none());
        let mut t = ChaosTransport::new(LocalTransport::new(&mut a), &mut link);
        let out = Engine::pull(&mut b, &mut t).unwrap();
        assert_eq!(out.copied(), &[ItemId(1)]);
        assert_eq!(link.stats.delivered, 1);
        assert_eq!(link.stats.faults(), 0);
    }

    #[test]
    fn total_loss_always_fails() {
        let (mut a, mut b) = pair();
        let mut link = ChaosLink::new(1, FaultPlan::lossy(1.0));
        for _ in 0..5 {
            let mut t = ChaosTransport::new(LocalTransport::new(&mut a), &mut link);
            assert!(Engine::pull(&mut b, &mut t).is_err());
        }
        assert_eq!(link.stats.lost_requests, 5);
        assert_eq!(link.stats.delivered, 0);
    }

    #[test]
    fn corruption_surfaces_as_corrupt_frame() {
        let (mut a, mut b) = pair();
        a.update(ItemId(1), UpdateOp::set(&b"v"[..])).unwrap();
        let plan = FaultPlan { corruption: 1.0, ..FaultPlan::default() };
        let mut link = ChaosLink::new(3, plan);
        let mut t = ChaosTransport::new(LocalTransport::new(&mut a), &mut link);
        match Engine::pull(&mut b, &mut t) {
            Err(Error::CorruptFrame(_)) => {}
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
        assert!(link.stats.corrupted >= 1);
    }

    #[test]
    fn partition_heals_at_window_end() {
        let (mut a, mut b) = pair();
        a.update(ItemId(1), UpdateOp::set(&b"v"[..])).unwrap();
        let plan = FaultPlan {
            partitions: vec![PartitionWindow { from: 1, until: 4 }],
            ..FaultPlan::default()
        };
        let mut link = ChaosLink::new(9, plan);
        for _ in 0..3 {
            let mut t = ChaosTransport::new(LocalTransport::new(&mut a), &mut link);
            assert!(Engine::pull(&mut b, &mut t).is_err());
        }
        let mut t = ChaosTransport::new(LocalTransport::new(&mut a), &mut link);
        let out = Engine::pull(&mut b, &mut t).unwrap();
        assert_eq!(out.copied(), &[ItemId(1)]);
        assert_eq!(link.stats.partitioned, 3);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let plan = FaultPlan {
            request_loss: 0.3,
            response_loss: 0.2,
            duplication: 0.2,
            reorder: 0.2,
            corruption: 0.2,
            reset: 0.1,
            ..FaultPlan::default()
        };
        let run = |seed: u64| {
            let (mut a, mut b) = pair();
            a.update(ItemId(1), UpdateOp::set(&b"v"[..])).unwrap();
            let mut link = ChaosLink::new(seed, plan.clone());
            for _ in 0..40 {
                let mut t = ChaosTransport::new(LocalTransport::new(&mut a), &mut link);
                let _ = Engine::pull(&mut b, &mut t);
            }
            (link.stats, b.costs())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds must differ somewhere");
    }

    #[test]
    fn retry_rides_through_a_lossy_link() {
        // Every seed must converge under retries; across a seed sweep the
        // 50% lossy link must actually have forced some.
        let mut total_retries = 0;
        for seed in 0..16 {
            let (mut a, mut b) = pair();
            a.update(ItemId(1), UpdateOp::set(&b"v"[..])).unwrap();
            let mut link = ChaosLink::new(seed, FaultPlan::lossy(0.5));
            let policy = RetryPolicy::attempts(64);
            let mut t = ChaosTransport::new(LocalTransport::new(&mut a), &mut link);
            let out = Engine::pull_with(&mut b, &mut t, &policy).unwrap();
            assert_eq!(out.copied(), &[ItemId(1)]);
            total_retries += b.costs().retries;
        }
        assert!(total_retries > 0, "a 50% lossy link all but guarantees retries");
    }

    #[test]
    fn reset_after_execution_is_idempotent_under_retry() {
        let (mut a, mut b) = pair();
        a.update(ItemId(1), UpdateOp::set(&b"v"[..])).unwrap();
        // Reset the first exchange, then heal: the responder executed the
        // round, the recipient retries, and the second delivery must apply
        // cleanly (no half-applied state).
        let mut link = ChaosLink::new(5, FaultPlan { reset: 1.0, ..FaultPlan::default() });
        {
            let mut t = ChaosTransport::new(LocalTransport::new(&mut a), &mut link);
            assert!(Engine::pull(&mut b, &mut t).is_err());
        }
        link.set_plan(FaultPlan::none());
        let mut t = ChaosTransport::new(LocalTransport::new(&mut a), &mut link);
        let out = Engine::pull(&mut b, &mut t).unwrap();
        assert_eq!(out.copied(), &[ItemId(1)]);
        a.check_invariants().unwrap();
        b.check_invariants().unwrap();
    }
}
