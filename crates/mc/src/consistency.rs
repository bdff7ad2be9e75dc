//! The §2.1 correctness statement, checked at quiescent (goal) states.
//!
//! The paper's criterion is *eventual mutual consistency*: if updates
//! cease, replicas converge to identical contents with no lost and no
//! duplicated updates. A goal state has fired every action and has no
//! round in flight — but nodes may be crashed and replicas may legally
//! differ (a lost message is allowed to delay propagation forever; only
//! *future* anti-entropy must heal it). So the check runs on a **copy** of
//! the goal state:
//!
//! 1. revive every crashed node from its crash image;
//! 2. run healing anti-entropy sweeps — every ordered node pair (every
//!    ordered co-owner pair per shard, for sharded topologies) performs a
//!    whole-item pull — until a sweep reports "up to date" everywhere,
//!    reaches a fixpoint (no copies, no replays, no aux discards), or the
//!    sweep cap trips;
//! 3. re-check every state invariant on the healed copy;
//! 4. apply the scenario's [`Expectation`]: conflict-free runs must have
//!    converged byte-for-byte with zero conflicts, no residual auxiliary
//!    copies, and per-origin DBVV components equal to the number of
//!    updates each origin fired (no lost, no duplicated updates); LWW runs
//!    must have converged byte-for-byte; `Report` runs may hold stable
//!    divergence on conflicted items but must have reached the fixpoint.
//!
//! Failures are reported as [`InvariantViolation`]s with synthetic check
//! names (`eventual-consistency`, `no-lost-updates`, `quiescence`,
//! `healing`) so the minimizer treats them exactly like state-invariant
//! violations.

use epidb_common::{InvariantViolation, ItemId, NodeId, Result, ShardId};
use epidb_core::{PullOutcome, Replica, Round, RoundOutcome, RoundStep, ShardedNode};

use crate::scenario::{Action, Scenario};
use crate::system::{home, serve, System};

/// Healing-sweep cap. Each sweep pulls across every ordered pair, so
/// information needs at most `n_nodes - 1` sweeps to reach everyone;
/// 8 leaves generous slack for aux replay/discard cascades.
const MAX_SWEEPS: usize = 8;

fn violation(node: usize, check: &'static str, detail: String) -> InvariantViolation {
    InvariantViolation { node: NodeId::from_index(node), check, detail }
}

/// The replica groups to compare for convergence, each with the envelope
/// its rounds travel in: every shard's owners over that shard (for a full
/// topology, every node over the one bare shard).
fn compare_groups(sc: &Scenario) -> Vec<(Vec<usize>, Option<ShardId>)> {
    let map = sc.topology.map();
    ShardId::all(map.n_shards())
        .map(|s| (map.owners(s).iter().map(|o| o.index()).collect(), sc.topology.route(s)))
        .collect()
}

/// The (initiator, responder, route) pull pairs of one healing sweep:
/// every ordered co-owner pair per shard.
fn sweep_pairs(sc: &Scenario) -> Vec<(usize, usize, Option<ShardId>)> {
    let mut pairs = Vec::new();
    for (owners, route) in compare_groups(sc) {
        for &i in &owners {
            for &j in &owners {
                if i != j {
                    pairs.push((i, j, route));
                }
            }
        }
    }
    pairs
}

/// Drive one whole-item pull to completion, initiator ← responder, on
/// `route`. Whole-item pulls (not delta) so healing never depends on
/// op-cache warmth.
fn heal_pull(
    initiator: &mut ShardedNode,
    responder: &mut ShardedNode,
    route: Option<ShardId>,
) -> Result<PullOutcome> {
    let peer = responder.id();
    let ir = initiator.shard_state_mut(home(route)).expect("sweep pairs are owners");
    let (mut round, mut req) = Round::start_pull(ir, peer);
    loop {
        let resp = serve(responder, route, req)?;
        match round.on_response(ir, resp)? {
            RoundStep::Send(next) => req = next,
            RoundStep::Done(RoundOutcome::Pull(out)) => return Ok(out),
            RoundStep::Done(RoundOutcome::Oob(_)) => unreachable!("pull round"),
        }
    }
}

fn replica_of(node: &ShardedNode, route: Option<ShardId>) -> &Replica {
    node.shard_state(home(route)).expect("owner")
}

/// Updates fired per origin node, restricted to the shard of `route`
/// when it names one.
fn updates_per_origin(sc: &Scenario, route: Option<ShardId>) -> Vec<u64> {
    let map = sc.topology.map();
    let mut counts = vec![0u64; sc.topology.n_nodes()];
    for action in &sc.actions {
        if let Action::Update { node, item, .. } = action {
            if route.is_none_or(|s| map.shard_of(ItemId(*item)).ok() == Some(s)) {
                counts[*node] += 1;
            }
        }
    }
    counts
}

/// Check the scenario's §2.1 statement against a goal state. `None` means
/// consistent; `Some` carries the violation for minimization/reporting.
pub(crate) fn check_goal(sys: &System, sc: &Scenario) -> Option<InvariantViolation> {
    let mut healed = sys.clone();
    healed.revive_all();
    let pairs = sweep_pairs(sc);

    // Healing sweeps until convergence or fixpoint.
    let mut converged = false;
    let mut quiesced = false;
    for _ in 0..MAX_SWEEPS {
        let mut all_current = true;
        let mut progress = false;
        for &(i, j, shard) in &pairs {
            let (init, resp) = healed.two_up_nodes_mut(i, j);
            match heal_pull(init, resp, shard) {
                Err(e) => {
                    return Some(violation(i, "healing", format!("pull n{i} ← n{j} failed: {e}")))
                }
                Ok(PullOutcome::UpToDate) => {}
                Ok(PullOutcome::Propagated(out)) => {
                    all_current = false;
                    if !out.copied.is_empty() || out.replayed > 0 || !out.aux_discarded.is_empty() {
                        progress = true;
                    }
                }
            }
        }
        if all_current {
            converged = true;
            quiesced = true;
            break;
        }
        if !progress {
            // Fixpoint short of convergence: stable divergence (legal only
            // under `Report` with real conflicts).
            quiesced = true;
            break;
        }
    }
    if !quiesced {
        return Some(violation(
            0,
            "quiescence",
            format!("healing made progress for {MAX_SWEEPS} sweeps without converging"),
        ));
    }

    // Invariants must hold on the healed copy too.
    if let Some(v) = healed.first_violation() {
        return Some(v);
    }

    match sc.expectation {
        crate::Expectation::ConflictFree => {
            check_converged(&healed, sc, converged, true).or_else(|| check_accounting(&healed, sc))
        }
        crate::Expectation::Lww => check_converged(&healed, sc, converged, false),
        crate::Expectation::ReportTolerated => None, // fixpoint + invariants suffice
    }
}

/// Byte-for-byte convergence across every compare group; with
/// `strict_clean`, additionally no conflicts anywhere and no residual
/// auxiliary copies.
fn check_converged(
    healed: &System,
    sc: &Scenario,
    converged: bool,
    strict_clean: bool,
) -> Option<InvariantViolation> {
    if !converged {
        return Some(violation(
            0,
            "eventual-consistency",
            "healing reached a fixpoint without converging (residual divergence)".into(),
        ));
    }
    for (owners, shard) in compare_groups(sc) {
        let reference = replica_of(&healed.nodes()[owners[0]].node, shard);
        for &o in &owners[1..] {
            let r = replica_of(&healed.nodes()[o].node, shard);
            if reference.dbvv() != r.dbvv() {
                return Some(violation(
                    o,
                    "eventual-consistency",
                    format!(
                        "DBVV of n{o} differs from n{}{}",
                        owners[0],
                        shard.map(|s| format!(" on {s}")).unwrap_or_default()
                    ),
                ));
            }
            for x in ItemId::all(reference.n_items()) {
                let a = reference.read(x).expect("dense in-range item");
                let b = r.read(x).expect("dense in-range item");
                let (ia, ib) = (
                    reference.item_ivv(x).expect("dense in-range item"),
                    r.item_ivv(x).expect("dense in-range item"),
                );
                if a != b || ia != ib {
                    return Some(violation(
                        o,
                        "eventual-consistency",
                        format!("{x} differs between n{} and n{o}", owners[0]),
                    ));
                }
            }
        }
        if strict_clean {
            for &o in &owners {
                let r = replica_of(&healed.nodes()[o].node, shard);
                if r.costs().conflicts_detected != 0 {
                    return Some(violation(
                        o,
                        "eventual-consistency",
                        format!(
                            "conflict-free scenario declared {} conflicts at n{o}",
                            r.costs().conflicts_detected
                        ),
                    ));
                }
                if r.aux_item_count() != 0 {
                    return Some(violation(
                        o,
                        "eventual-consistency",
                        format!(
                            "{} auxiliary copies not shed at n{o} after convergence",
                            r.aux_item_count()
                        ),
                    ));
                }
            }
        }
    }
    None
}

/// No lost, no duplicated updates: each DBVV component `j` equals the
/// number of updates origin `j` fired.
fn check_accounting(healed: &System, sc: &Scenario) -> Option<InvariantViolation> {
    for (owners, shard) in compare_groups(sc) {
        let expected = updates_per_origin(sc, shard);
        for &o in &owners {
            let r = replica_of(&healed.nodes()[o].node, shard);
            for (j, &want) in expected.iter().enumerate() {
                let got = r.dbvv().get(NodeId::from_index(j));
                if got != want {
                    return Some(violation(
                        o,
                        "no-lost-updates",
                        format!(
                            "DBVV[n{j}] = {got} at n{o}{}, but n{j} fired {want} updates",
                            shard.map(|s| format!(" on {s}")).unwrap_or_default()
                        ),
                    ));
                }
            }
        }
    }
    None
}
