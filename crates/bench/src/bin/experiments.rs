//! The experiment harness: regenerates every table and figure recorded in
//! EXPERIMENTS.md.
//!
//! Usage:
//!   cargo run --release -p epidb-bench --bin experiments              # full sweeps
//!   cargo run --release -p epidb-bench --bin experiments -- --quick   # small sweeps
//!   cargo run --release -p epidb-bench --bin experiments -- t1 f2     # a subset
//!   cargo run --release -p epidb-bench --bin experiments -- --paranoid # audited T7
//!
//! `--paranoid` runs the T7 correctness audits with per-step replica
//! invariant auditing on (every protocol step verified; a violation
//! panics with the protocol trace).

use epidb_sim::experiments;
use epidb_sim::Table;

const IDS: [&str; 14] =
    ["t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "f2", "f3", "f4", "f5", "f6", "audit"];

fn usage() -> ! {
    eprintln!("usage: experiments [--quick | -q] [--paranoid] [ID ...]\nids: {}", IDS.join(" "));
    std::process::exit(2);
}

fn main() {
    let (mut quick, mut paranoid) = (false, false);
    let mut selected: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--paranoid" => paranoid = true,
            id if IDS.iter().any(|known| known.eq_ignore_ascii_case(id)) => selected.push(arg),
            _ => usage(),
        }
    }

    let run = |id: &str| selected.is_empty() || selected.iter().any(|s| s.eq_ignore_ascii_case(id));

    println!("epidb experiment harness — reproduction of Rabinovich, Gehani & Kononov,");
    println!("\"Scalable Update Propagation in Epidemic Replicated Databases\" (EDBT 1996)");
    println!("mode: {}\n", if quick { "quick" } else { "full" });

    let mut tables: Vec<Table> = Vec::new();
    if run("t1") {
        tables.push(experiments::t1::run(quick));
    }
    if run("t2") {
        tables.push(experiments::t2::run(quick));
    }
    if run("t3") {
        tables.push(experiments::t3::run(quick));
    }
    if run("t4") {
        tables.push(experiments::t4::run(quick));
    }
    if run("t5") {
        tables.push(experiments::t5::run(quick));
    }
    if run("t6") {
        tables.push(experiments::t6::run(quick));
    }
    if run("t8") {
        tables.push(experiments::t8::run(quick));
    }
    if run("f2") {
        tables.push(experiments::f2::run(quick));
    }
    if run("f3") {
        tables.push(experiments::f3::run_rounds(quick));
        tables.push(experiments::f3::run_staleness(quick));
    }
    if run("f4") {
        tables.push(experiments::f4::run(quick));
    }
    if run("f5") {
        tables.push(experiments::f5::run(quick));
    }
    if run("f6") {
        tables.push(experiments::f6::run(quick));
    }
    if run("t7") || run("audit") {
        let report = epidb_sim::run_audit(epidb_sim::AuditConfig {
            rounds: if quick { 20 } else { 60 },
            paranoid,
            ..epidb_sim::AuditConfig::default()
        });
        println!("## T7: correctness audit (conflict-free run)");
        println!(
            "   updates={} pulls={} adoption_violations={} undetected_divergences={} converged_clean={} paranoid_audits={}",
            report.updates_applied,
            report.pulls,
            report.adoption_violations,
            report.undetected_divergences.len(),
            report.converged_clean,
            report.paranoid_audits
        );
        let report = epidb_sim::run_audit(epidb_sim::AuditConfig {
            conflict_prone: true,
            oob_per_round: 0,
            rounds: if quick { 15 } else { 40 },
            seed: 99,
            paranoid,
            ..epidb_sim::AuditConfig::default()
        });
        println!("## T7b: correctness audit (conflict-prone run)");
        println!(
            "   updates={} pulls={} conflicted_items={} adoption_violations={} undetected_divergences={} paranoid_audits={}\n",
            report.updates_applied,
            report.pulls,
            report.conflicted_items.len(),
            report.adoption_violations,
            report.undetected_divergences.len(),
            report.paranoid_audits
        );
    }

    for t in &tables {
        println!("{t}");
    }
}
