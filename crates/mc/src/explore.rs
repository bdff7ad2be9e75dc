//! Bounded exhaustive exploration of a scenario's state graph.
//!
//! Classic explicit-state model checking: starting from the scenario's
//! initial [`System`], expand every enabled [`Event`] of every reachable
//! state, deduplicate states by canonical fingerprint, and bound the walk
//! by depth and state count. Every state is checked against the seven
//! protocol invariants; every *goal* (quiescent) state is additionally
//! checked against the scenario's §2.1 consistency expectation. The first
//! violation stops the search and is handed to the minimizer
//! ([`crate::report`]), which shrinks the offending schedule and renders a
//! replayable counterexample.

use std::collections::{HashSet, VecDeque};
use std::fmt;

use epidb_common::{InvariantViolation, Result};

use crate::consistency::check_goal;
use crate::report::{minimize, render, CounterExample};
use crate::scenario::Scenario;
use crate::system::{Event, System};

/// Search order. Both are exhaustive within the limits; BFS finds a
/// *shortest* counterexample first (minimizer input quality), DFS reaches
/// deep schedules with a smaller frontier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Breadth-first: shortest counterexamples, larger frontier.
    Bfs,
    /// Depth-first: deep schedules early, smaller frontier.
    Dfs,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Strategy::Bfs => "bfs",
            Strategy::Dfs => "dfs",
        })
    }
}

/// Exploration bounds. Exploration is exhaustive *within* these: every
/// schedule of at most `max_depth` events is covered unless the state cap
/// trips first (reported via [`McStats::state_cap_hit`]).
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum schedule length explored.
    pub max_depth: usize,
    /// Maximum distinct states retained (dedup set size).
    pub max_states: usize,
}

impl Limits {
    /// CI-smoke bounds: deep enough to cover every scenario's full action
    /// set plus faults, small enough for seconds-scale runs.
    pub fn smoke() -> Limits {
        Limits { max_depth: 12, max_states: 200_000 }
    }

    /// Deeper bounds for offline soaks.
    pub fn thorough() -> Limits {
        Limits { max_depth: 16, max_states: 2_000_000 }
    }
}

/// Exploration counters, reported alongside any counterexample.
#[derive(Clone, Copy, Debug, Default)]
pub struct McStats {
    /// Distinct states visited (after dedup).
    pub states_explored: u64,
    /// Transitions applied (including ones leading to known states).
    pub transitions: u64,
    /// Transitions that landed on an already-visited state.
    pub deduped: u64,
    /// States not expanded because they sat at the depth bound.
    pub depth_pruned: u64,
    /// Quiescent states on which the §2.1 check ran.
    pub goals_checked: u64,
    /// Rounds aborted by losses, crashes, or protocol errors.
    pub rounds_aborted: u64,
    /// Longest schedule reached.
    pub max_depth_seen: usize,
    /// True if the state cap stopped the walk before exhaustion.
    pub state_cap_hit: bool,
}

impl fmt::Display for McStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} transitions ({} deduped), {} goals checked, \
             {} rounds aborted, depth ≤ {}{}{}",
            self.states_explored,
            self.transitions,
            self.deduped,
            self.goals_checked,
            self.rounds_aborted,
            self.max_depth_seen,
            if self.depth_pruned > 0 { ", depth-pruned" } else { "" },
            if self.state_cap_hit { ", state cap hit" } else { "" },
        )
    }
}

/// The result of exploring one scenario.
#[derive(Debug)]
pub struct McReport {
    /// Scenario name.
    pub scenario: String,
    /// Search order used.
    pub strategy: Strategy,
    /// Exploration counters.
    pub stats: McStats,
    /// The first violation found, minimized and rendered — `None` means
    /// every explored schedule satisfied every invariant and expectation.
    pub counterexample: Option<CounterExample>,
}

impl McReport {
    /// True when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// Invariant check plus (at goals) the §2.1 consistency check.
fn check_state(sys: &System, sc: &Scenario, stats: &mut McStats) -> Option<InvariantViolation> {
    if let Some(v) = sys.first_violation() {
        return Some(v);
    }
    if sys.is_goal() {
        stats.goals_checked += 1;
        return check_goal(sys, sc);
    }
    None
}

/// Exhaustively explore `sc` within `limits`. Returns the report; `Err`
/// only for malformed scenarios (events that cannot apply at all).
pub fn explore(sc: &Scenario, strategy: Strategy, limits: &Limits) -> Result<McReport> {
    let mut stats = McStats::default();
    let init = System::new(sc)?;
    let mut visited: HashSet<u64> = HashSet::new();
    visited.insert(init.fingerprint());
    stats.states_explored = 1;

    if let Some(v) = check_state(&init, sc, &mut stats) {
        let events = minimize(sc, Vec::new(), &v);
        let counterexample = render(sc, events, &v)?;
        return Ok(McReport {
            scenario: sc.name.into(),
            strategy,
            stats,
            counterexample: Some(counterexample),
        });
    }

    let mut frontier: VecDeque<(System, Vec<Event>)> = VecDeque::new();
    frontier.push_back((init, Vec::new()));

    'walk: while let Some((sys, path)) = match strategy {
        Strategy::Bfs => frontier.pop_front(),
        Strategy::Dfs => frontier.pop_back(),
    } {
        if path.len() >= limits.max_depth {
            stats.depth_pruned += 1;
            continue;
        }
        for ev in sys.enabled_events(sc) {
            let mut next = sys.clone();
            let applied = next.apply(sc, ev)?;
            stats.transitions += 1;
            stats.rounds_aborted += u64::from(applied.aborted_rounds);
            if !visited.insert(next.fingerprint()) {
                stats.deduped += 1;
                continue;
            }
            let mut next_path = path.clone();
            next_path.push(ev);
            stats.states_explored += 1;
            stats.max_depth_seen = stats.max_depth_seen.max(next_path.len());
            if let Some(v) = check_state(&next, sc, &mut stats) {
                let events = minimize(sc, next_path, &v);
                let counterexample = render(sc, events, &v)?;
                return Ok(McReport {
                    scenario: sc.name.into(),
                    strategy,
                    stats,
                    counterexample: Some(counterexample),
                });
            }
            if visited.len() >= limits.max_states {
                stats.state_cap_hit = true;
                break 'walk;
            }
            frontier.push_back((next, next_path));
        }
    }

    Ok(McReport { scenario: sc.name.into(), strategy, stats, counterexample: None })
}
