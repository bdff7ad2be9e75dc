//! `mc` — the exhaustive protocol model checker CLI.
//!
//! Runs [`epidb_mc::explore`] over the built-in scenarios: every
//! interleaving of action firings, message deliveries/losses, node
//! crashes, and revivals up to the per-scenario depth bound, checking the
//! seven protocol invariants at every state and the paper's §2.1
//! eventual-consistency statement at every quiescent state. Finishes with
//! the seeded-mutant self-test: a deliberately broken replica must be
//! caught with a minimized, replayable counterexample.
//!
//! Exit status is non-zero if any clean scenario yields a counterexample
//! or the self-test fails to catch the mutant, so the binary doubles as a
//! CI gate (`ci.sh` runs `mc --smoke`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p epidb-bench --bin mc -- \
//!     [--smoke] [--dfs] [--scenario NAME] [--depth N] [--states N]
//! ```
//!
//! `--smoke` uses the CI-sized per-scenario limits; the default is the
//! thorough tier (a few extra plies everywhere). `--depth`/`--states`
//! override both. `--scenario` restricts the run to one scenario by name
//! (including `seeded-mutant`).

use std::time::Instant;

use epidb_mc::{explore, Scenario, Strategy};

fn usage() -> ! {
    eprintln!(
        "usage: mc [--smoke] [--dfs] [--scenario NAME] [--depth N] [--states N]\n\
         scenarios: two-node-full three-node-relay two-node-lww-conflict \
         two-node-report-conflict sharded-two-group seeded-mutant"
    );
    std::process::exit(2);
}

fn main() {
    let mut smoke = false;
    let mut strategy = Strategy::Bfs;
    let mut only: Option<String> = None;
    let mut depth_override: Option<usize> = None;
    let mut states_override: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--dfs" => strategy = Strategy::Dfs,
            "--scenario" => only = Some(args.next().unwrap_or_else(|| usage())),
            "--depth" => {
                depth_override =
                    Some(args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--states" => {
                states_override =
                    Some(args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
    }

    let tier = if smoke { "smoke" } else { "thorough" };
    println!("== epidb model checker ({tier}, {strategy}) ==");

    let mut scenarios = Scenario::all_clean();
    scenarios.push(Scenario::seeded_mutant());
    if let Some(name) = &only {
        scenarios.retain(|s| s.name == name.as_str());
        if scenarios.is_empty() {
            eprintln!("unknown scenario '{name}'");
            usage();
        }
    }

    let mut failed = false;
    for sc in scenarios {
        let mut limits = if smoke { sc.smoke_limits() } else { sc.thorough_limits() };
        if let Some(d) = depth_override {
            limits.max_depth = d;
        }
        if let Some(s) = states_override {
            limits.max_states = s;
        }

        let start = Instant::now();
        let report = match explore(&sc, strategy, &limits) {
            Ok(r) => r,
            Err(e) => {
                println!("  {:<26} ERROR: {e}", sc.name);
                failed = true;
                continue;
            }
        };
        let elapsed = start.elapsed();
        let expect_mutant = sc.mutant.is_some();

        match (&report.counterexample, expect_mutant) {
            (None, false) => {
                println!(
                    "  {:<26} clean   depth<={:<2} {}  ({:.2?})",
                    sc.name, limits.max_depth, report.stats, elapsed
                );
            }
            (Some(cx), true) => {
                println!(
                    "  {:<26} caught  check '{}' in {} events  {}  ({:.2?})",
                    sc.name,
                    cx.check,
                    cx.events.len(),
                    report.stats,
                    elapsed
                );
                println!("{}", indent(&cx.rendered));
            }
            (Some(cx), false) => {
                println!("  {:<26} FAILED: counterexample found  ({elapsed:.2?})", sc.name);
                println!("{}", indent(&cx.rendered));
                failed = true;
            }
            (None, true) => {
                println!(
                    "  {:<26} FAILED: seeded mutant NOT caught  {}  ({:.2?})",
                    sc.name, report.stats, elapsed
                );
                failed = true;
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!("model checker: all scenarios as expected");
}

fn indent(text: &str) -> String {
    text.lines().map(|l| format!("      {l}")).collect::<Vec<_>>().join("\n")
}
