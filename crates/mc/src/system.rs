//! The explored state: every node's full protocol state plus the set of
//! in-flight protocol rounds, with deterministic event enumeration,
//! transition application, and canonical fingerprinting.
//!
//! A [`System`] is one vertex of the state graph. Its transitions are
//! [`Event`]s:
//!
//! * **Fire** — perform one scenario [`Action`](crate::Action): a local
//!   write applies immediately; a protocol action starts a step-wise
//!   [`Round`] and puts message 1 in flight.
//! * **Deliver** — hand a round's pending message to its target. A pending
//!   request is served at the responder — a bare one by [`Engine::handle`]
//!   on shard 0, an enveloped one by [`Engine::handle_sharded`] — and puts
//!   the response in flight; a pending response feeds
//!   [`Round::on_response`] at the initiator, which either emits the next
//!   request or completes the round. Delivery to a crashed node loses the
//!   message and aborts the round. A protocol error aborts the round —
//!   never the exploration: refusals and no-progress errors are legal
//!   outcomes the checker must reach.
//! * **Drop** — lose the pending message outright (bounded by the
//!   scenario's loss budget); the round aborts, exactly as a transport
//!   failure aborts a blocking `Engine` driver's round.
//! * **Crash** — replace a node by its crash image: the state
//!   `epidb-durable` recovery would rebuild, via
//!   [`ShardedNode::crash_recovered`] (grounded against real disk recovery
//!   by the durable crate's tests). Rounds the
//!   node *initiated* die with it — their state machine lived in its
//!   memory. Rounds it was only serving survive: a request in flight can
//!   be delivered after a revival, and an already-emitted response is
//!   independent of the responder's fate.
//! * **Revive** — bring a crashed node back up from its crash image.
//!
//! Every node is a [`ShardedNode`]. A full topology is the one-shard map
//! replicated at every node, whose rounds travel bare and are served on
//! shard 0 — the shape the socket runtime gives an unsharded node.
//!
//! Fingerprints cover exactly the state a future schedule can observe:
//! every node's [`ShardedNode::fingerprint`] (crash images included), every
//! round's machine state and pending message bytes (via the deterministic
//! wire codec), the fired-action set, and the remaining fault budgets.
//! Cross-group out-of-bound fetches charge node meta-costs in production;
//! meta-costs are pure diagnostics (excluded from fingerprints), so the
//! checker does not model them.

use std::collections::BTreeMap;

use epidb_common::{InvariantViolation, ItemId, NodeId, Result, ShardId};
use epidb_core::codec::{encode_request, encode_response};
use epidb_core::{
    AuditCheck, Engine, FnvHasher, GossipBudget, ProtocolRequest, ProtocolResponse, Replica, Round,
    RoundStep, ShardedNode,
};
use epidb_store::UpdateOp;

use crate::scenario::{Action, Scenario, Topology};

/// One schedulable transition. The `u32` payloads are scenario action
/// indices (`Fire`, and round ids — a round is named by the action that
/// started it) or node indices (`Crash`/`Revive`), so an [`Event`]
/// sequence is replayable against a fresh [`System`] of the same scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Fire scenario action `i`.
    Fire(u32),
    /// Deliver the pending message of round `i`.
    Deliver(u32),
    /// Lose the pending message of round `i` (consumes loss budget).
    Drop(u32),
    /// Crash node `i` (consumes crash budget).
    Crash(u32),
    /// Revive crashed node `i` from its crash image.
    Revive(u32),
}

/// One node's slot: its state, or, while it is down, the crash image a
/// revive installs.
#[derive(Clone)]
pub(crate) struct Slot {
    pub(crate) node: ShardedNode,
    pub(crate) up: bool,
}

/// Run all seven state-invariant predicates on every replica `node`
/// holds; first violation wins.
fn first_violation(node: &ShardedNode) -> Option<InvariantViolation> {
    node.replicas().find_map(|(_, r)| AuditCheck::ALL.iter().find_map(|c| c.run(r).err()))
}

/// Serve `req` at `node`: a bare request (`route` is `None`) on shard 0,
/// an enveloped one through the node's shard map, unwrapped.
pub(crate) fn serve(
    node: &mut ShardedNode,
    route: Option<ShardId>,
    req: ProtocolRequest,
) -> Result<ProtocolResponse> {
    match route {
        None => Engine::handle(node.shard_mut(ShardId(0))?, req),
        Some(shard) => {
            Engine::handle_sharded(node, ProtocolRequest::Shard { shard, req: Box::new(req) }).map(
                |resp| match resp {
                    ProtocolResponse::Shard { resp, .. } => *resp,
                    other => other,
                },
            )
        }
    }
}

/// The shard a round on `route` runs on.
pub(crate) fn home(route: Option<ShardId>) -> ShardId {
    route.unwrap_or(ShardId(0))
}

/// Seed the checker's self-test mutation into `node`'s shard 0.
fn seed_mutant(node: &mut ShardedNode) {
    if let Some(r) = node.shard_state_mut(ShardId(0)) {
        r.debug_break_conflict_adopt(true);
    }
}

/// What a round's in-flight message is.
#[derive(Clone)]
pub(crate) enum Pending {
    Request(ProtocolRequest),
    Response(ProtocolResponse),
}

#[derive(Clone)]
pub(crate) enum RoundKind {
    /// A replica-level round (pull / delta / OOB), possibly shard-routed.
    /// Boxed: the recon driver's staging buffers make `Round` large, and
    /// most contexts are `CrossFetch`-sized.
    Replica(Box<Round>),
    /// A cross-group OOB fetch: the response completes the read without
    /// touching the initiator's replica state.
    CrossFetch,
}

/// One in-flight protocol round: who talks to whom, over which shard
/// envelope, where the state machine stands, and the message in flight.
#[derive(Clone)]
pub(crate) struct RoundCtx {
    pub initiator: usize,
    pub responder: usize,
    /// `Some` ⇒ messages travel in a `Shard` routing envelope; `None` ⇒
    /// bare, on shard 0.
    pub shard: Option<ShardId>,
    pub kind: RoundKind,
    pub pending: Pending,
}

/// Bookkeeping returned by [`System::apply`].
#[derive(Default)]
pub struct Applied {
    /// Rounds aborted by this event (loss, crash, delivery to a crashed
    /// node, or a protocol error).
    pub aborted_rounds: u32,
}

/// One vertex of the explored state graph. See the module docs.
#[derive(Clone)]
pub struct System {
    nodes: Vec<Slot>,
    /// A full topology: rounds travel bare.
    full: bool,
    /// In-flight rounds, keyed by the index of the action that started
    /// them (each action fires once, so the key is stable and replayable).
    rounds: BTreeMap<u32, RoundCtx>,
    fired: Vec<bool>,
    crash_budget: u32,
    loss_budget: u32,
}

fn gossip_budget(sc: &Scenario) -> GossipBudget {
    if sc.frame_items == 0 {
        GossipBudget::UNBOUNDED
    } else {
        GossipBudget::per_frame(sc.frame_items)
    }
}

impl System {
    /// The scenario's initial state: all nodes up, nothing fired, nothing
    /// in flight.
    pub fn new(sc: &Scenario) -> Result<System> {
        let map = sc.topology.map();
        let nodes = NodeId::all(sc.topology.n_nodes())
            .map(|id| {
                let mut n = ShardedNode::new(id, sc.topology.n_nodes(), map.clone(), sc.policy);
                if sc.delta_budget > 0 {
                    n.enable_delta(sc.delta_budget);
                }
                if sc.log_retention > 0 {
                    n.set_log_retention(sc.log_retention);
                }
                if sc.mutant == Some(id.index()) {
                    seed_mutant(&mut n);
                }
                Slot { node: n, up: true }
            })
            .collect();
        Ok(System {
            nodes,
            full: matches!(sc.topology, Topology::Full { .. }),
            rounds: BTreeMap::new(),
            fired: vec![false; sc.actions.len()],
            crash_budget: sc.crash_budget,
            loss_budget: sc.loss_budget,
        })
    }

    /// All actions fired and nothing in flight: the quiescent states where
    /// the §2.1 consistency statement is checked.
    pub fn is_goal(&self) -> bool {
        self.fired.iter().all(|&f| f) && self.rounds.is_empty()
    }

    /// Run the seven invariant predicates on every replica of every node —
    /// crash images included, since a revive installs them verbatim.
    pub fn first_violation(&self) -> Option<InvariantViolation> {
        self.nodes.iter().find_map(|slot| first_violation(&slot.node))
    }

    /// The enabled transitions of this state, in a fixed deterministic
    /// order (action firings, deliveries, losses, crashes, revivals).
    pub fn enabled_events(&self, sc: &Scenario) -> Vec<Event> {
        let mut evs = Vec::new();
        for (i, action) in sc.actions.iter().enumerate() {
            if !self.fired[i] && self.nodes[action.actor()].up {
                evs.push(Event::Fire(i as u32));
            }
        }
        for &rid in self.rounds.keys() {
            evs.push(Event::Deliver(rid));
        }
        if self.loss_budget > 0 {
            for &rid in self.rounds.keys() {
                evs.push(Event::Drop(rid));
            }
        }
        if self.crash_budget > 0 {
            for (i, slot) in self.nodes.iter().enumerate() {
                if slot.up {
                    evs.push(Event::Crash(i as u32));
                }
            }
        }
        for (i, slot) in self.nodes.iter().enumerate() {
            if !slot.up {
                evs.push(Event::Revive(i as u32));
            }
        }
        evs
    }

    fn up_node_mut(&mut self, i: usize) -> &mut ShardedNode {
        let slot = &mut self.nodes[i];
        assert!(slot.up, "event enabled against a crashed node");
        &mut slot.node
    }

    /// Apply one enabled event. Protocol errors abort the affected round
    /// and are *not* propagated — they are outcomes the checker explores;
    /// an `Err` here means the scenario itself is malformed (e.g. an
    /// update addressed to an unowned shard).
    pub fn apply(&mut self, sc: &Scenario, ev: Event) -> Result<Applied> {
        let mut applied = Applied::default();
        match ev {
            Event::Fire(i) => self.fire(sc, i as usize)?,
            Event::Deliver(rid) => self.deliver(rid, &mut applied),
            Event::Drop(rid) => {
                self.rounds.remove(&rid);
                self.loss_budget -= 1;
                applied.aborted_rounds += 1;
            }
            Event::Crash(i) => {
                let i = i as usize;
                let mut image = self.nodes[i].node.crash_recovered(sc.delta_budget)?;
                if sc.mutant == Some(i) {
                    // The mutant models buggy node *software*; a restart
                    // does not fix it.
                    seed_mutant(&mut image);
                }
                self.nodes[i] = Slot { node: image, up: false };
                self.crash_budget -= 1;
                // Rounds this node initiated lived in its memory.
                let before = self.rounds.len();
                self.rounds.retain(|_, ctx| ctx.initiator != i);
                applied.aborted_rounds += (before - self.rounds.len()) as u32;
            }
            Event::Revive(i) => {
                let slot = &mut self.nodes[i as usize];
                assert!(!slot.up, "revive enabled against an up node");
                slot.up = true;
            }
        }
        Ok(applied)
    }

    fn fire(&mut self, sc: &Scenario, i: usize) -> Result<()> {
        self.fired[i] = true;
        let budget = gossip_budget(sc);
        match sc.actions[i] {
            Action::Update { node, item, ref value } => {
                self.up_node_mut(node).update(ItemId(item), UpdateOp::set(value.clone()))?;
            }
            Action::Pull { node, peer } => {
                self.start_round(sc, i, node, peer, ShardId(0), Round::start_pull)?;
            }
            Action::Delta { node, peer } => {
                self.start_round(sc, i, node, peer, ShardId(0), |r, p| {
                    Round::start_delta(r, p, &budget)
                })?;
            }
            Action::ReconPull { node, peer } => {
                self.start_round(sc, i, node, peer, ShardId(0), |r, p| {
                    Round::start_recon(r, p, &budget)
                })?;
            }
            Action::Oob { node, peer, item } => {
                let (shard, local) = self.locate(node, item)?;
                self.start_round(sc, i, node, peer, shard, |r, p| Round::start_oob(r, p, local))?;
            }
            Action::ShardPull { node, peer, shard } => {
                self.start_round(sc, i, node, peer, ShardId(shard as u16), Round::start_pull)?;
            }
            Action::CrossOob { node, peer, item } => {
                let (shard, local) = self.locate(node, item)?;
                let req = ProtocolRequest::Oob { from: NodeId::from_index(node), item: local };
                let ctx = RoundCtx {
                    initiator: node,
                    responder: peer,
                    shard: sc.topology.route(shard),
                    kind: RoundKind::CrossFetch,
                    pending: Pending::Request(req),
                };
                self.rounds.insert(i as u32, ctx);
            }
        }
        Ok(())
    }

    /// The shard of global `item` and its shard-local id, by `node`'s map.
    fn locate(&self, node: usize, item: u32) -> Result<(ShardId, ItemId)> {
        let map = self.nodes[node].node.map();
        Ok((map.shard_of(ItemId(item))?, map.local_item(ItemId(item))))
    }

    /// Start action `action`'s round at `initiator` on `shard` against
    /// `responder`, and put its first request in flight.
    fn start_round(
        &mut self,
        sc: &Scenario,
        action: usize,
        initiator: usize,
        responder: usize,
        shard: ShardId,
        start: impl FnOnce(&mut Replica, NodeId) -> (Round, ProtocolRequest),
    ) -> Result<()> {
        let r = self.up_node_mut(initiator).shard_mut(shard)?;
        let (round, req) = start(r, NodeId::from_index(responder));
        let ctx = RoundCtx {
            initiator,
            responder,
            shard: sc.topology.route(shard),
            kind: RoundKind::Replica(Box::new(round)),
            pending: Pending::Request(req),
        };
        self.rounds.insert(action as u32, ctx);
        Ok(())
    }

    fn deliver(&mut self, rid: u32, applied: &mut Applied) {
        let mut ctx = self.rounds.remove(&rid).expect("deliver of a live round");
        match ctx.pending {
            Pending::Request(req) => {
                if !self.nodes[ctx.responder].up {
                    applied.aborted_rounds += 1;
                    return; // lost at a dead host; the round is gone
                }
                let resp = serve(self.up_node_mut(ctx.responder), ctx.shard, req);
                match resp {
                    Ok(resp) => {
                        ctx.pending = Pending::Response(resp);
                        self.rounds.insert(rid, ctx);
                    }
                    // Refusals and handler errors abort the round; the
                    // responder charged nothing (refusals return before
                    // accounting).
                    Err(_) => applied.aborted_rounds += 1,
                }
            }
            Pending::Response(resp) => {
                // Initiator liveness is structural: its crash killed the
                // round already.
                let step = match &mut ctx.kind {
                    RoundKind::CrossFetch => return, // fetch completed; nothing to apply
                    RoundKind::Replica(round) => {
                        let r = (self.up_node_mut(ctx.initiator))
                            .shard_state_mut(home(ctx.shard))
                            .expect("round runs on an owned shard");
                        round.on_response(r, resp)
                    }
                };
                match step {
                    Ok(RoundStep::Send(req)) => {
                        ctx.pending = Pending::Request(req);
                        self.rounds.insert(rid, ctx);
                    }
                    Ok(RoundStep::Done(_)) => {}
                    // Same contract as `Engine::drive` surfacing the error
                    // to its retry loop: the round is over.
                    Err(_) => applied.aborted_rounds += 1,
                }
            }
        }
    }

    /// Canonical digest of everything a future schedule can observe.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FnvHasher::new();
        for slot in &self.nodes {
            h.write_u8(u8::from(slot.up));
            h.write_u64(slot.node.fingerprint());
        }
        h.write_u64(self.rounds.len() as u64);
        for (&rid, ctx) in &self.rounds {
            h.write_u64(u64::from(rid));
            h.write_u64(ctx.initiator as u64);
            h.write_u64(ctx.responder as u64);
            match ctx.shard {
                None => h.write_u8(0),
                Some(s) => {
                    h.write_u8(1);
                    h.write_u64(s.index() as u64);
                }
            }
            match &ctx.kind {
                RoundKind::CrossFetch => h.write_u8(0),
                RoundKind::Replica(round) => {
                    h.write_u8(1);
                    round.mc_fingerprint(&mut h);
                }
            }
            match &ctx.pending {
                Pending::Request(req) => {
                    h.write_u8(0);
                    h.write(&encode_request(req));
                }
                Pending::Response(resp) => {
                    h.write_u8(1);
                    h.write(&encode_response(resp));
                }
            }
        }
        for &f in &self.fired {
            h.write_u8(u8::from(f));
        }
        h.write_u64(u64::from(self.crash_budget));
        h.write_u64(u64::from(self.loss_budget));
        h.finish()
    }

    /// Read-only view of node `i`'s replica in a full-replication
    /// topology (`None` for sharded nodes or out-of-range indices): the
    /// diagnostics surface for regression tests that pin cost accounting
    /// along a fixed schedule.
    pub fn replica(&self, node: usize) -> Option<&Replica> {
        self.nodes.get(node)?.node.shard_state(ShardId(0)).filter(|_| self.full)
    }

    /// Enable tracing on every replica (used when rendering a
    /// counterexample replay).
    pub fn enable_tracing(&mut self, capacity: usize) {
        for slot in &mut self.nodes {
            for (_, r) in slot.node.replicas_mut() {
                r.enable_tracing(capacity);
            }
        }
    }

    /// Per-replica trace dumps, labeled `n{i}` in a full topology and
    /// `n{i}/{shard}` otherwise, for counterexample rendering.
    pub fn trace_dumps(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (i, slot) in self.nodes.iter().enumerate() {
            for (s, r) in slot.node.replicas() {
                let label = if self.full { format!("n{i}") } else { format!("n{i}/{s}") };
                out.push((label, r.trace().dump()));
            }
        }
        out
    }

    /// Human description of `ev` against this (pre-application) state.
    pub fn describe(&self, sc: &Scenario, ev: Event) -> String {
        match ev {
            Event::Fire(i) => {
                let desc = match &sc.actions[i as usize] {
                    Action::Update { node, item, value } => {
                        format!("n{node} writes x{item} ({} bytes)", value.len())
                    }
                    Action::Pull { node, peer } => format!("n{node} starts pull from n{peer}"),
                    Action::Delta { node, peer } => {
                        format!("n{node} starts delta pull from n{peer}")
                    }
                    Action::ReconPull { node, peer } => {
                        format!("n{node} starts recon pull from n{peer}")
                    }
                    Action::Oob { node, peer, item } => {
                        format!("n{node} requests OOB copy of x{item} from n{peer}")
                    }
                    Action::ShardPull { node, peer, shard } => {
                        format!("n{node} starts pull of s{shard} from n{peer}")
                    }
                    Action::CrossOob { node, peer, item } => {
                        format!("n{node} requests cross-group OOB read of x{item} from n{peer}")
                    }
                };
                format!("fire action #{i}: {desc}")
            }
            Event::Deliver(rid) | Event::Drop(rid) => {
                let verb = if matches!(ev, Event::Deliver(_)) { "deliver" } else { "lose" };
                match self.rounds.get(&rid) {
                    Some(ctx) => {
                        let (what, to) = match &ctx.pending {
                            Pending::Request(req) => {
                                (format!("{} request", req.kind()), ctx.responder)
                            }
                            Pending::Response(resp) => {
                                (format!("{} response", resp.kind()), ctx.initiator)
                            }
                        };
                        format!("{verb} {what} of round #{rid} to n{to}")
                    }
                    None => format!("{verb} message of round #{rid}"),
                }
            }
            Event::Crash(i) => format!("crash n{i} (recover to durable state)"),
            Event::Revive(i) => format!("revive n{i}"),
        }
    }

    pub(crate) fn nodes(&self) -> &[Slot] {
        &self.nodes
    }

    /// Disjoint mutable access to two *up* nodes (for healing pulls).
    pub(crate) fn two_up_nodes_mut(
        &mut self,
        a: usize,
        b: usize,
    ) -> (&mut ShardedNode, &mut ShardedNode) {
        assert_ne!(a, b);
        let (lo, hi, swap) = if a < b { (a, b, false) } else { (b, a, true) };
        let (left, right) = self.nodes.split_at_mut(hi);
        let (x, y) = (&mut left[lo], &mut right[0]);
        assert!(x.up && y.up, "healing runs with every node revived");
        let (x, y) = (&mut x.node, &mut y.node);
        if swap {
            (y, x)
        } else {
            (x, y)
        }
    }

    pub(crate) fn revive_all(&mut self) {
        for slot in &mut self.nodes {
            slot.up = true;
        }
    }
}
