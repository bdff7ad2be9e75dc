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
//!   request runs [`Engine::handle`] (or the shard-routed variant) at the
//!   responder and puts the response in flight; a pending response feeds
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
//!   [`crash_recovered_twin`] / [`ShardedNode::crash_recovered`] (grounded
//!   against real disk recovery by the durable crate's tests). Rounds the
//!   node *initiated* die with it — their state machine lived in its
//!   memory. Rounds it was only serving survive: a request in flight can
//!   be delivered after a revival, and an already-emitted response is
//!   independent of the responder's fate.
//! * **Revive** — bring a crashed node back up from its crash image.
//!
//! Fingerprints cover exactly the state a future schedule can observe:
//! every node's [`Replica::fingerprint`] (crash images included), every
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
    RoundStep, ShardMap, ShardedNode,
};
use epidb_durable::crash_recovered_twin;
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

/// A node's protocol state: one full replica, or one replica per owned
/// shard.
// Not boxed: a fork clones the replicas' heap state anyway, so the inline
// variant size is noise next to the per-clone cost the explorer pays.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub(crate) enum Node {
    Full(Replica),
    Sharded(ShardedNode),
}

impl Node {
    fn fingerprint(&self) -> u64 {
        match self {
            Node::Full(r) => r.fingerprint(),
            Node::Sharded(n) => n.fingerprint(),
        }
    }

    fn update(&mut self, item: ItemId, op: UpdateOp) -> Result<()> {
        match self {
            Node::Full(r) => r.update(item, op),
            Node::Sharded(n) => n.update(item, op),
        }
    }

    /// Run all six state-invariant predicates on every replica this node
    /// holds; first violation wins.
    fn first_violation(&self) -> Option<InvariantViolation> {
        let audit = |r: &Replica| AuditCheck::ALL.iter().find_map(|c| c.run(r).err());
        match self {
            Node::Full(r) => audit(r),
            Node::Sharded(n) => n.owned_shards().into_iter().find_map(|s| audit(n.shard_state(s)?)),
        }
    }
}

#[derive(Clone)]
pub(crate) enum Slot {
    Up(Node),
    /// Holds the crash image: the durable-only recovery twin, built at
    /// crash time (with scenario runtime config reapplied), that a revive
    /// installs.
    Crashed(Node),
}

impl Slot {
    pub(crate) fn node(&self) -> &Node {
        match self {
            Slot::Up(n) | Slot::Crashed(n) => n,
        }
    }

    pub(crate) fn is_up(&self) -> bool {
        matches!(self, Slot::Up(_))
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
    /// `Some` ⇒ messages travel in a `Shard` routing envelope.
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
        let nodes = match &sc.topology {
            Topology::Full { n_nodes, n_items } => (0..*n_nodes)
                .map(|i| {
                    let mut r =
                        Replica::with_policy(NodeId::from_index(i), *n_nodes, *n_items, sc.policy);
                    if sc.delta_budget > 0 {
                        r.enable_delta(sc.delta_budget);
                    }
                    if sc.log_retention > 0 {
                        r.set_log_retention(sc.log_retention);
                    }
                    if sc.mutant == Some(i) {
                        r.debug_break_conflict_adopt(true);
                    }
                    Slot::Up(Node::Full(r))
                })
                .collect(),
            Topology::Sharded { n_nodes, items_per_shard, groups } => {
                let owner_ids = groups
                    .iter()
                    .map(|g| g.iter().map(|&i| NodeId::from_index(i)).collect())
                    .collect();
                let map = ShardMap::new(*items_per_shard, owner_ids);
                (0..*n_nodes)
                    .map(|i| {
                        let mut n = ShardedNode::new(
                            NodeId::from_index(i),
                            *n_nodes,
                            map.clone(),
                            sc.policy,
                        );
                        if sc.delta_budget > 0 {
                            n.enable_delta(sc.delta_budget);
                        }
                        if sc.log_retention > 0 {
                            n.set_log_retention(sc.log_retention);
                        }
                        Slot::Up(Node::Sharded(n))
                    })
                    .collect()
            }
        };
        Ok(System {
            nodes,
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

    /// Run the six invariant predicates on every replica of every node —
    /// crash images included, since a revive installs them verbatim.
    pub fn first_violation(&self) -> Option<InvariantViolation> {
        self.nodes.iter().find_map(|slot| slot.node().first_violation())
    }

    /// The enabled transitions of this state, in a fixed deterministic
    /// order (action firings, deliveries, losses, crashes, revivals).
    pub fn enabled_events(&self, sc: &Scenario) -> Vec<Event> {
        let mut evs = Vec::new();
        for (i, action) in sc.actions.iter().enumerate() {
            if !self.fired[i] && self.nodes[action.actor()].is_up() {
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
                if slot.is_up() {
                    evs.push(Event::Crash(i as u32));
                }
            }
        }
        for (i, slot) in self.nodes.iter().enumerate() {
            if !slot.is_up() {
                evs.push(Event::Revive(i as u32));
            }
        }
        evs
    }

    fn up_node_mut(&mut self, i: usize) -> &mut Node {
        match &mut self.nodes[i] {
            Slot::Up(n) => n,
            Slot::Crashed(_) => unreachable!("event enabled against a crashed node"),
        }
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
                let image = match self.nodes[i].node() {
                    Node::Full(r) => {
                        let mut twin = crash_recovered_twin(r, sc.delta_budget)?;
                        if sc.mutant == Some(i) {
                            // The mutant models buggy node *software*; a
                            // restart does not fix it.
                            twin.debug_break_conflict_adopt(true);
                        }
                        Node::Full(twin)
                    }
                    Node::Sharded(n) => Node::Sharded(n.crash_recovered(sc.delta_budget)?),
                };
                self.nodes[i] = Slot::Crashed(image);
                self.crash_budget -= 1;
                // Rounds this node initiated lived in its memory.
                let before = self.rounds.len();
                self.rounds.retain(|_, ctx| ctx.initiator != i);
                applied.aborted_rounds += (before - self.rounds.len()) as u32;
            }
            Event::Revive(i) => {
                let i = i as usize;
                let slot = std::mem::replace(&mut self.nodes[i], Slot::Crashed(placeholder()));
                let Slot::Crashed(image) = slot else {
                    unreachable!("revive enabled against an up node")
                };
                self.nodes[i] = Slot::Up(image);
            }
        }
        Ok(applied)
    }

    fn fire(&mut self, sc: &Scenario, i: usize) -> Result<()> {
        self.fired[i] = true;
        match &sc.actions[i] {
            Action::Update { node, item, value } => {
                self.up_node_mut(*node).update(ItemId(*item), UpdateOp::set(value.clone()))?;
            }
            Action::Pull { node, peer } => {
                let peer_id = NodeId::from_index(*peer);
                let Node::Full(r) = self.up_node_mut(*node) else {
                    unreachable!("Pull action in a sharded scenario")
                };
                let (round, req) = Round::start_pull(r, peer_id);
                self.insert_round(i, *node, *peer, None, round, req);
            }
            Action::Delta { node, peer } => {
                let peer_id = NodeId::from_index(*peer);
                let budget = gossip_budget(sc);
                let Node::Full(r) = self.up_node_mut(*node) else {
                    unreachable!("Delta action in a sharded scenario")
                };
                let (round, req) = Round::start_delta(r, peer_id, &budget);
                self.insert_round(i, *node, *peer, None, round, req);
            }
            Action::ReconPull { node, peer } => {
                let peer_id = NodeId::from_index(*peer);
                let budget = gossip_budget(sc);
                let Node::Full(r) = self.up_node_mut(*node) else {
                    unreachable!("ReconPull action in a sharded scenario")
                };
                let (round, req) = Round::start_recon(r, peer_id, &budget);
                self.insert_round(i, *node, *peer, None, round, req);
            }
            Action::Oob { node, peer, item } => {
                let peer_id = NodeId::from_index(*peer);
                match self.up_node_mut(*node) {
                    Node::Full(r) => {
                        let (round, req) = Round::start_oob(r, peer_id, ItemId(*item));
                        self.insert_round(i, *node, *peer, None, round, req);
                    }
                    Node::Sharded(n) => {
                        let shard = n.map().shard_of(ItemId(*item))?;
                        let local = n.map().local_item(ItemId(*item));
                        let r = n.shard_mut(shard)?;
                        let (round, req) = Round::start_oob(r, peer_id, local);
                        self.insert_round(i, *node, *peer, Some(shard), round, req);
                    }
                }
            }
            Action::ShardPull { node, peer, shard } => {
                let peer_id = NodeId::from_index(*peer);
                let shard = ShardId(*shard as u16);
                let Node::Sharded(n) = self.up_node_mut(*node) else {
                    unreachable!("ShardPull action in a full-replication scenario")
                };
                let r = n.shard_mut(shard)?;
                let (round, req) = Round::start_pull(r, peer_id);
                self.insert_round(i, *node, *peer, Some(shard), round, req);
            }
            Action::CrossOob { node, peer, item } => {
                let Node::Sharded(n) = self.up_node_mut(*node) else {
                    unreachable!("CrossOob action in a full-replication scenario")
                };
                let shard = n.map().shard_of(ItemId(*item))?;
                let local = n.map().local_item(ItemId(*item));
                let req = ProtocolRequest::Oob { from: n.id(), item: local };
                self.rounds.insert(
                    i as u32,
                    RoundCtx {
                        initiator: *node,
                        responder: *peer,
                        shard: Some(shard),
                        kind: RoundKind::CrossFetch,
                        pending: Pending::Request(req),
                    },
                );
            }
        }
        Ok(())
    }

    fn insert_round(
        &mut self,
        action: usize,
        initiator: usize,
        responder: usize,
        shard: Option<ShardId>,
        round: Round,
        req: ProtocolRequest,
    ) {
        self.rounds.insert(
            action as u32,
            RoundCtx {
                initiator,
                responder,
                shard,
                kind: RoundKind::Replica(Box::new(round)),
                pending: Pending::Request(req),
            },
        );
    }

    fn deliver(&mut self, rid: u32, applied: &mut Applied) {
        let mut ctx = self.rounds.remove(&rid).expect("deliver of a live round");
        match ctx.pending {
            Pending::Request(req) => {
                if !self.nodes[ctx.responder].is_up() {
                    applied.aborted_rounds += 1;
                    return; // lost at a dead host; the round is gone
                }
                let resp = match (self.up_node_mut(ctx.responder), ctx.shard) {
                    (Node::Full(r), _) => Engine::handle(r, req),
                    (Node::Sharded(n), Some(shard)) => Engine::handle_sharded(
                        n,
                        ProtocolRequest::Shard { shard, req: Box::new(req) },
                    )
                    .map(|resp| match resp {
                        ProtocolResponse::Shard { resp, .. } => *resp,
                        other => other,
                    }),
                    (Node::Sharded(_), None) => {
                        unreachable!("unrouted request at a sharded node")
                    }
                };
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
                        let shard = ctx.shard;
                        let r: &mut Replica = match (self.up_node_mut(ctx.initiator), shard) {
                            (Node::Full(r), _) => r,
                            (Node::Sharded(n), Some(s)) => {
                                n.shard_state_mut(s).expect("round runs on an owned shard")
                            }
                            (Node::Sharded(_), None) => {
                                unreachable!("unrouted round at a sharded node")
                            }
                        };
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
            h.write_u8(u8::from(slot.is_up()));
            h.write_u64(slot.node().fingerprint());
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
        match self.nodes.get(node)?.node() {
            Node::Full(r) => Some(r),
            Node::Sharded(_) => None,
        }
    }

    /// Enable tracing on every replica (used when rendering a
    /// counterexample replay).
    pub fn enable_tracing(&mut self, capacity: usize) {
        for slot in &mut self.nodes {
            let node = match slot {
                Slot::Up(n) | Slot::Crashed(n) => n,
            };
            match node {
                Node::Full(r) => r.enable_tracing(capacity),
                Node::Sharded(n) => {
                    for s in n.owned_shards() {
                        if let Some(r) = n.shard_state_mut(s) {
                            r.enable_tracing(capacity);
                        }
                    }
                }
            }
        }
    }

    /// Per-replica trace dumps, labeled, for counterexample rendering.
    pub fn trace_dumps(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (i, slot) in self.nodes.iter().enumerate() {
            match slot.node() {
                Node::Full(r) => out.push((format!("n{i}"), r.trace().dump())),
                Node::Sharded(n) => {
                    for s in n.owned_shards() {
                        if let Some(r) = n.shard_state(s) {
                            out.push((format!("n{i}/{s}"), r.trace().dump()));
                        }
                    }
                }
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
    pub(crate) fn two_up_nodes_mut(&mut self, a: usize, b: usize) -> (&mut Node, &mut Node) {
        assert_ne!(a, b);
        let (lo, hi, swap) = if a < b { (a, b, false) } else { (b, a, true) };
        let (left, right) = self.nodes.split_at_mut(hi);
        let (x, y) = (&mut left[lo], &mut right[0]);
        let (x, y) = match (x, y) {
            (Slot::Up(x), Slot::Up(y)) => (x, y),
            _ => unreachable!("healing runs with every node revived"),
        };
        if swap {
            (y, x)
        } else {
            (x, y)
        }
    }

    pub(crate) fn revive_all(&mut self) {
        for slot in &mut self.nodes {
            if !slot.is_up() {
                let old = std::mem::replace(slot, Slot::Crashed(placeholder()));
                let Slot::Crashed(image) = old else { unreachable!() };
                *slot = Slot::Up(image);
            }
        }
    }
}

/// A throwaway slot value for `std::mem::replace`; never observed.
fn placeholder() -> Node {
    Node::Full(Replica::new(NodeId(0), 1, 1))
}
