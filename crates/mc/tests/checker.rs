//! End-to-end checker tests: every built-in clean scenario explores
//! violation-free within the smoke limits, and the seeded mutant is
//! caught with a minimized, replayable counterexample.

use epidb_mc::{explore, Limits, Scenario, Strategy, System};

/// Each clean scenario's smoke exploration, pinned: states, transitions,
/// deduped transitions, goals checked, rounds aborted and the deepest
/// schedule. The walk is deterministic, so any change to how nodes are
/// built, fingerprinted or served shows here as a changed count.
const SMOKE_COUNTS: [(&str, [u64; 6]); 6] = [
    ("two-node-full", [5927, 23579, 17653, 102, 8669, 14]),
    ("three-node-relay", [6384, 26431, 20048, 113, 8436, 15]),
    ("two-node-lww-conflict", [1051, 2323, 1273, 79, 279, 12]),
    ("two-node-report-conflict", [971, 2212, 1242, 57, 262, 12]),
    ("sharded-two-group", [3996, 13719, 9724, 44, 950, 13]),
    ("cold-start-recon", [3718, 11121, 7404, 150, 3865, 14]),
];

#[test]
fn all_clean_scenarios_hold_every_invariant() {
    let scenarios = Scenario::all_clean();
    assert_eq!(scenarios.len(), SMOKE_COUNTS.len(), "every clean scenario has pinned counts");
    for (sc, (name, want)) in scenarios.into_iter().zip(SMOKE_COUNTS) {
        assert_eq!(sc.name, name);
        let limits = sc.smoke_limits();
        let report = explore(&sc, Strategy::Bfs, &limits).unwrap();
        assert!(
            report.is_clean(),
            "scenario '{}' produced a counterexample:\n{}",
            sc.name,
            report.counterexample.unwrap().rendered
        );
        assert!(report.stats.states_explored > 100, "'{}' barely explored", sc.name);
        assert!(report.stats.goals_checked > 0, "'{}' never reached quiescence", sc.name);
        assert!(report.stats.deduped > 0, "'{}' fingerprint dedup never fired", sc.name);
        // The smoke depth bound sits *above* the deepest reachable schedule
        // and the state cap was never hit, so this is a complete
        // exploration of the scenario's reachable space, not a truncation.
        assert!(
            report.stats.max_depth_seen < limits.max_depth,
            "'{}' hit the depth bound (saw {} of {}) — space not exhausted",
            sc.name,
            report.stats.max_depth_seen,
            limits.max_depth
        );
        assert!(!report.stats.state_cap_hit, "'{}' hit the state cap", sc.name);
        let s = &report.stats;
        let got = [
            s.states_explored,
            s.transitions,
            s.deduped,
            s.goals_checked,
            s.rounds_aborted,
            s.max_depth_seen as u64,
        ];
        assert_eq!(got, want, "'{}' explored a different space: {s}", sc.name);
    }
}

#[test]
fn seeded_mutant_is_caught_and_minimized() {
    let sc = Scenario::seeded_mutant();
    let report = explore(&sc, Strategy::Bfs, &Limits::smoke()).unwrap();
    assert_eq!(report.stats.states_explored, 21, "{}", report.stats);
    let cx = report.counterexample.expect("the dbvv-sum mutant must be caught");
    assert_eq!(cx.check, "dbvv-sum");
    // The shortest trigger is exactly five events: both concurrent writes,
    // firing the pull, delivering its request, and delivering the response
    // (the buggy adopt happens when the response lands). Minimization must
    // shrink the found schedule to that.
    assert_eq!(
        cx.events.len(),
        5,
        "counterexample not minimal: {} events\n{}",
        cx.events.len(),
        cx.rendered
    );
    assert!(cx.rendered.contains("dbvv-sum"), "rendered report names the check");
    assert!(cx.rendered.contains("schedule"), "rendered report shows the schedule");

    // The minimized schedule is replayable: applying its events to a fresh
    // system reproduces the violation.
    let mut sys = System::new(&sc).unwrap();
    let mut tripped = false;
    for &ev in &cx.events {
        if !sys.enabled_events(&sc).contains(&ev) {
            continue;
        }
        sys.apply(&sc, ev).unwrap();
        if let Some(v) = sys.first_violation() {
            assert_eq!(v.check, "dbvv-sum");
            tripped = true;
            break;
        }
    }
    assert!(tripped, "replaying the minimized schedule must reproduce the violation");
}

#[test]
fn dfs_also_catches_the_mutant() {
    let report = explore(&Scenario::seeded_mutant(), Strategy::Dfs, &Limits::smoke()).unwrap();
    let cx = report.counterexample.expect("DFS must catch the mutant too");
    assert_eq!(cx.check, "dbvv-sum");
}

#[test]
fn stats_are_reported_and_displayable() {
    let sc = Scenario::two_node_lww_conflict();
    let report = explore(&sc, Strategy::Bfs, &sc.smoke_limits()).unwrap();
    assert!(report.is_clean());
    let line = report.stats.to_string();
    assert!(line.contains("states"), "display summarizes counters: {line}");
}
