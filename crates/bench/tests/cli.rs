//! A misspelt flag must stop a gate binary, not run it with the gate off.

use std::process::Command;

fn rejects(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?} must exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{bin} prints its usage");
}

#[test]
fn perf_report_rejects_unknown_flags_and_missing_values() {
    let bin = env!("CARGO_BIN_EXE_perf_report");
    rejects(bin, &["--smoke", "--assert-cold-strat"]);
    rejects(bin, &["--smoke", "--out"]);
}

#[test]
fn experiments_rejects_unknown_flags_and_ids() {
    let bin = env!("CARGO_BIN_EXE_experiments");
    rejects(bin, &["--quikc"]);
    rejects(bin, &["t9"]);
}
