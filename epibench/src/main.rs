//! `epibench` — the pinned, driven-round benchmark of this repository.
//! See `README.md` beside this crate for what every number means.
//!
//! ```text
//! cargo run --release --manifest-path epibench/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
//!     [--agree] [--smoke] [--trace-out PATH] [--print-benchmark-json]
//! ```

mod cycle;
mod fabric;
mod input;
mod layers;
mod pass;
mod probes;
mod report;
mod spec;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use pass::{Limit, Mode, PassResult};
use report::Report;
use spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Untraced passes per workload in one run.
const PASSES: usize = 3;

const USAGE: &str = "usage: epibench [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                     [--agree] [--smoke] [--trace-out PATH] [--print-benchmark-json]";

#[derive(Clone, Debug)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    agree: bool,
    smoke: bool,
    trace_out: Option<PathBuf>,
    print_json: bool,
    /// Internal: run one pass in this process (`product` or `traced`).
    child: Option<String>,
    data_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        agree: false,
        smoke: false,
        trace_out: None,
        print_json: false,
        child: None,
        data_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = val()?;
                a.workload =
                    Some(spec::workload(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--agree" => a.agree = true,
            "--smoke" => a.smoke = true,
            "--trace-out" => a.trace_out = Some(val()?.into()),
            "--print-benchmark-json" => a.print_json = true,
            "--child" => a.child = Some(val()?),
            "--data-dir" => a.data_dir = Some(val()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("epibench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_json {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    // One CPU, before any other thread exists; children inherit the mask.
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = sys::pin_to_one_cpu();
    if args.child.is_some() {
        return child(&args);
    }
    header(&args, cpu, cpus);
    let ok = if args.agree { agree(&args) } else { run_once(&args) };
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("SOME WORKLOADS FAILED");
        ExitCode::FAILURE
    }
}

fn header(args: &Args, cpu: Option<usize>, cpus: usize) {
    let cpu =
        cpu.map_or("NOT PINNED (sched_setaffinity failed)".to_string(), |c| format!("cpu {c}"));
    let dir = data_root();
    let disk = if sys::on_tmpfs(&dir) {
        "tmpfs, fsync on"
    } else {
        "not a tmpfs: fsync off, sync_data is not exercised and the fsync counts read 0"
    };
    println!(
        "epibench: pinned to {cpu} of {} · closed loop, 1 client, rounds driven by the bench (gossip timers off) \
         · loopback, no injected delay: latency is processor time only · data under {} ({disk}) \
         · seed {} · {} s per workload{}",
        cpus,
        dir.display(),
        args.seed,
        if args.smoke { 1.0 } else { args.seconds },
        if args.trace { " · traced" } else { "" },
    );
}

/// Where pass data directories go: the build's target directory, which is
/// inside the checkout and ignored by git.
fn data_root() -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    let _ = std::fs::create_dir_all(&root);
    root
}

/// The data directory of a pass, under the build's target directory so it
/// stays inside the checkout and out of git. Removed when dropped.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The workloads of this invocation.
fn selected(args: &Args) -> Vec<&'static Workload> {
    args.workload.map_or(WORKLOADS.iter().collect(), |w| vec![w])
}

/// Run one pass of `w` in a fresh child process and parse what it
/// reports. The data directory is removed whatever happens to the child.
fn spawn_pass(args: &Args, w: &Workload, kind: &str, window: f64) -> PassResult {
    let dir = DataDir(data_root().join(format!("epibench-data-{}", std::process::id())));
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--child", kind, "--workload", w.name])
        .args(["--seed", &args.seed.to_string(), "--seconds", &window.to_string()])
        .arg("--data-dir")
        .arg(&dir.0)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let (Some(path), "traced") = (&args.trace_out, kind) {
        cmd.arg("--trace-out").arg(path);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let failed = |why: String| PassResult {
        failures: vec![format!("{}: {why}", w.name)],
        ..PassResult::default()
    };
    match cmd.output() {
        Err(e) => failed(format!("could not start the pass: {e}")),
        Ok(out) if !out.status.success() => failed(format!("pass exited with {}", out.status)),
        Ok(out) => PassResult::from_text(&String::from_utf8_lossy(&out.stdout))
            .unwrap_or_else(|e| failed(format!("unreadable pass output: {e}"))),
    }
}

/// Child mode: run the one pass asked for and print it as text.
fn child(args: &Args) -> ExitCode {
    let (Some(kind), Some(w), Some(dir)) = (&args.child, args.workload, &args.data_dir) else {
        eprintln!("epibench: --child needs --workload and --data-dir");
        return ExitCode::from(2);
    };
    let _cleanup = DataDir(dir.clone());
    let limit = Limit::Seconds(args.seconds);
    // A smoke pass only has to show every name: one set-up, a few cycles
    // of warm-up, counts read after five cycles.
    let smoke = Workload { setups: 1, warmup: w.warmup.min(5), count_cycles: 5, ..*w };
    let w = if args.smoke { &smoke } else { w };
    let result = match kind.as_str() {
        "product" => pass::run(w, args.seed, limit, dir, Mode::Product),
        "traced" => pass::run(w, args.seed, limit, dir, Mode::Traced(args.trace_out.as_deref())),
        other => {
            eprintln!("epibench: unknown pass kind {other:?}");
            return ExitCode::from(2);
        }
    };
    print!("{}", result.to_text());
    ExitCode::SUCCESS
}

/// Run the selected workloads once and print them. Untraced: three passes
/// per workload, interleaved (A B C, A B C, A B C). Traced: one product
/// pass and one traced pass per workload.
fn measure(args: &Args) -> Vec<Report> {
    let workloads = selected(args);
    let (passes, window, min_cycles) = if args.smoke {
        (1, 1.0, 0)
    } else {
        (PASSES, args.seconds / PASSES as f64, report::MIN_CYCLES)
    };
    if args.trace {
        // Two passes instead of three, each half as long as an untraced
        // pass: a traced run gates nothing, so it may be the cheaper one.
        let window = window / 2.0;
        return workloads
            .iter()
            .map(|w| {
                let product = spawn_pass(args, w, "product", window);
                let traced = spawn_pass(args, w, "traced", window);
                report::per_layer(w, &product, &traced, !args.smoke)
            })
            .collect();
    }
    let mut results: Vec<Vec<PassResult>> = vec![Vec::new(); workloads.len()];
    for _ in 0..passes {
        for (w, r) in workloads.iter().zip(&mut results) {
            r.push(spawn_pass(args, w, "product", window));
        }
    }
    workloads.iter().zip(&results).map(|(w, r)| report::end_to_end(w, r, min_cycles)).collect()
}

fn run_once(args: &Args) -> bool {
    let reports = measure(args);
    for r in &reports {
        report::print_table(r);
    }
    println!("{}", report::json_line(&reports));
    reports.iter().all(Report::correct)
}

/// `--agree`: the full untraced set twice in one invocation, both columns,
/// the relative difference and the bound per (workload, metric); fails if
/// any pair differs by more than its bound — the check the pipeline makes,
/// runnable locally.
fn agree(args: &Args) -> bool {
    let args = Args { trace: false, ..args.clone() };
    let (first, second) = (measure(&args), measure(&args));
    let mut ok = first.iter().chain(&second).all(Report::correct);
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (x, y) = (a.get(m.name), b.get(m.name));
            let diff = (y - x) / x;
            let within = diff.abs() <= m.bound;
            ok &= within;
            println!(
                "{:<14} {:<24} {:>14.4} {:>14.4} {:>+7.2}% {:>5.0}% {}",
                a.workload,
                m.name,
                x,
                y,
                diff * 100.0,
                m.bound * 100.0,
                if within { "" } else { "DISAGREE" }
            );
        }
        for f in a.failures.iter().chain(&b.failures) {
            println!("FAILED {f}");
        }
    }
    println!("{}", report::json_line(&second));
    ok
}

/// `BENCHMARK.json`, from the tables in `spec`.
fn benchmark_json() -> String {
    let list = |rows: Vec<String>| rows.join(",\n    ");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(n, u, b)| format!("{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}"))
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"epibench/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"epibench\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n    {}\n  ],\n  \
         \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        spec::RUN_SECONDS,
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_printed_from_the_tables() {
        assert_eq!(benchmark_json(), include_str!("../../BENCHMARK.json"));
    }

    #[test]
    fn names_fit_the_contract() {
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        let mut seen = std::collections::BTreeSet::new();
        for n in names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(seen.insert(n), "{n} is used twice");
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }
}
