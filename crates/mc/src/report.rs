//! Counterexample minimization and rendering.
//!
//! A raw violating schedule found by the explorer usually carries
//! bystander events (unrelated updates, pulls that completed harmlessly,
//! a crash that never mattered). The minimizer shrinks it by **greedy
//! event-drop to a fixpoint**: repeatedly try removing one event and
//! replay the remainder against a fresh system — skipping events the
//! shortened prefix makes inapplicable — keeping the shorter schedule
//! whenever the *same* check still trips. Replay is deterministic (same
//! events ⇒ same states: a `Round` and `Engine::handle` read no clock and
//! no rng), so an accepted candidate is a genuine counterexample, not a
//! flake.
//!
//! The final render replays the minimized schedule once more with replica
//! tracing enabled, producing a human-readable report: the numbered event
//! schedule, the violation, and each replica's protocol trace.

use epidb_common::{InvariantViolation, Result};

use crate::consistency::check_goal;
use crate::scenario::Scenario;
use crate::system::{Event, System};

/// A minimized, replayable violating schedule.
#[derive(Debug)]
pub struct CounterExample {
    /// The check that trips: one of the six invariant names, or a
    /// consistency check name (`eventual-consistency`, `no-lost-updates`,
    /// `quiescence`, `healing`).
    pub check: &'static str,
    /// Violation detail at the end of the minimized replay.
    pub detail: String,
    /// The minimized schedule.
    pub events: Vec<Event>,
    /// Human-readable report: schedule, violation, replica traces.
    pub rendered: String,
}

/// Replay `events` from the scenario's initial state, skipping events the
/// current state does not enable. Invariants are checked after every
/// applied event; the goal consistency check runs after the last. Returns
/// the final system, the first violation (if any), and — when `narrate` —
/// one description line per applied event.
fn replay(
    sc: &Scenario,
    events: &[Event],
    narrate: bool,
    tracing: bool,
) -> Result<(System, Option<InvariantViolation>, Vec<String>)> {
    let mut sys = System::new(sc)?;
    if tracing {
        sys.enable_tracing(64);
    }
    let mut lines = Vec::new();
    for &ev in events {
        if !sys.enabled_events(sc).contains(&ev) {
            continue;
        }
        if narrate {
            lines.push(sys.describe(sc, ev));
        }
        sys.apply(sc, ev)?;
        if let Some(v) = sys.first_violation() {
            return Ok((sys, Some(v), lines));
        }
    }
    let v = if sys.is_goal() { check_goal(&sys, sc) } else { None };
    Ok((sys, v, lines))
}

/// Does replaying `events` trip the named check?
fn trips(sc: &Scenario, events: &[Event], check: &str) -> bool {
    matches!(replay(sc, events, false, false), Ok((_, Some(v), _)) if v.check == check)
}

/// Greedy event-drop minimization to a fixpoint: the result is 1-minimal
/// (no single event can be removed and still trip the same check).
pub(crate) fn minimize(sc: &Scenario, mut path: Vec<Event>, v: &InvariantViolation) -> Vec<Event> {
    loop {
        let mut improved = false;
        for i in 0..path.len() {
            let mut candidate = path.clone();
            candidate.remove(i);
            if trips(sc, &candidate, v.check) {
                path = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return path;
        }
    }
}

/// Replay the minimized schedule with tracing and build the report.
pub(crate) fn render(
    sc: &Scenario,
    events: Vec<Event>,
    fallback: &InvariantViolation,
) -> Result<CounterExample> {
    let (sys, found, lines) = replay(sc, &events, true, true)?;
    // The minimizer verified the schedule trips; `fallback` covers the
    // (theoretically unreachable) case of a replay discrepancy so the
    // report never loses the original finding.
    let v = found.unwrap_or_else(|| fallback.clone());

    let mut out = String::new();
    out.push_str(&format!(
        "counterexample for scenario '{}': check '{}' violated\n",
        sc.name, v.check
    ));
    out.push_str(&format!("schedule ({} events, minimized):\n", lines.len()));
    for (i, line) in lines.iter().enumerate() {
        out.push_str(&format!("  {:>2}. {line}\n", i + 1));
    }
    out.push_str(&format!("violation: {v}\n"));
    out.push_str("replica traces:\n");
    for (label, dump) in sys.trace_dumps() {
        if dump.trim().is_empty() {
            continue;
        }
        out.push_str(&format!("--- {label} ---\n{dump}"));
        if !dump.ends_with('\n') {
            out.push('\n');
        }
    }

    Ok(CounterExample { check: v.check, detail: v.detail.clone(), events, rendered: out })
}
