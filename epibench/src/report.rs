//! Turning the passes of a workload into its named metrics, and printing
//! them: a table for people, one JSON object as the last line for the
//! pipeline.

use std::fmt::Write as _;

use crate::pass::PassResult;
use crate::spec::{Fabric, Shape, Workload, END_TO_END, PER_LAYER};
use crate::stats::{keep, median, quiet_cycles, quiet_limit, tail};

/// Cycles a workload needs, pooled over its passes, for its medians to be
/// reported.
pub const MIN_CYCLES: usize = 300;

/// Cycles a median is taken from at the least: where fewer ran
/// undisturbed, the quietest this many stand in.
const MIN_QUIET_CYCLES: usize = 50;

/// One reported value.
#[derive(Clone, Debug)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (cycles for a timing, passes for a count).
    pub samples: usize,
    /// Free-form remark printed beside it (e.g. which percentile a tail
    /// is).
    pub note: String,
}

/// Everything reported for one workload.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    pub values: Vec<Value>,
    pub attempted: u64,
    pub failed: u64,
    /// Cycles measured, and how many of them ran undisturbed.
    pub cycles: usize,
    pub kept: usize,
    pub failures: Vec<String>,
}

impl Report {
    pub fn get(&self, name: &str) -> f64 {
        self.values.iter().find(|v| v.name == name).map_or(f64::NAN, |v| v.value)
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }
}

/// How many cycles the passes ran, how many were kept, and what the
/// reference loop read on the kept ones.
struct Pooled {
    cycles: usize,
    kept: usize,
    reference_ns: f64,
}

/// The reference limit of a set of passes: one limit for all of them, so
/// a pass that ran wholly disturbed contributes nothing instead of its own
/// slower "normal".
fn limit_of(passes: &[PassResult], min_kept: usize) -> f64 {
    let all: Vec<f64> =
        passes.iter().flat_map(|p| p.series["reference_ns"].iter().copied()).collect();
    quiet_limit(&all, min_kept)
}

/// Series `name` over the cycles of every pass that ran undisturbed.
fn pooled(passes: &[PassResult], name: &str, limit: f64) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| keep(&p.series[name], &quiet_cycles(&p.series["reference_ns"], limit)))
        .collect()
}

fn pool_summary(passes: &[PassResult], limit: f64) -> Pooled {
    let cycles = passes.iter().map(|p| p.series["reference_ns"].len()).sum();
    let reference = pooled(passes, "reference_ns", limit);
    Pooled { cycles, kept: reference.len(), reference_ns: median(&reference) }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn value(name: &'static str, v: f64, samples: usize) -> Value {
    Value { name, unit: unit_of(name), value: v, samples, note: String::new() }
}

/// Checks common to both kinds of run: per-pass failures, the operation
/// counts, and enough cycles to report a median from. Returns the report
/// so far, the passes' reference limit and their cycle counts.
fn common(w: &Workload, passes: &[PassResult], min_cycles: usize) -> (Report, f64, Pooled) {
    let mut r = Report { workload: w.name, ..Report::default() };
    let limit = limit_of(passes, MIN_QUIET_CYCLES.min(min_cycles));
    let pool = pool_summary(passes, limit);
    (r.cycles, r.kept) = (pool.cycles, pool.kept);
    for p in passes {
        r.failures.extend(p.failures.iter().cloned());
        r.attempted += p.scalar("ops_attempted") as u64;
        r.failed += p.scalar("ops_failed") as u64;
    }
    if pool.cycles < min_cycles {
        r.failures.push(format!(
            "{}: the windows held {} cycles, fewer than the {min_cycles} a median is reported from",
            w.name, pool.cycles
        ));
    }
    (r, limit, pool)
}

/// `setup_s`: the median over every set-up of the passes that ran
/// undisturbed (the reference loop on either side of it within the run's
/// limit), or over all of them where none did; and how many that is.
fn setup_seconds(passes: &[PassResult], limit: f64) -> (f64, usize) {
    let all: Vec<(f64, f64)> = passes
        .iter()
        .flat_map(|p| p.series["setup_s"].iter().zip(&p.series["setup_reference_ns"]))
        .map(|(&s, &r)| (s, r))
        .collect();
    let mut kept: Vec<f64> = all.iter().filter(|(_, r)| *r <= limit).map(|(s, _)| *s).collect();
    if kept.is_empty() {
        kept = all.iter().map(|(s, _)| *s).collect();
    }
    (median(&kept), kept.len())
}

/// The eight end-to-end metrics of `w` from its untraced passes: timings
/// are medians over the pooled kept cycles, `updates_per_s` is their
/// updates over their wall time, `setup_s` is the median over the kept
/// set-ups and the two counts are medians over the passes.
pub fn end_to_end(w: &Workload, passes: &[PassResult], min_cycles: usize) -> Report {
    let (mut r, limit, pool) = common(w, passes, min_cycles);
    let over_passes =
        |name: &str| median(&passes.iter().map(|p| p.scalar(name)).collect::<Vec<_>>());
    for m in &END_TO_END {
        let v = match m.name {
            "setup_s" => {
                let (s, n) = setup_seconds(passes, limit);
                value(m.name, s, n)
            }
            "wire_bytes_per_update" | "heap_peak_mib" => {
                value(m.name, over_passes(m.name), passes.len())
            }
            // Every kept cycle counts, the ones a checkpoint fired in
            // too: a cost paid once in many cycles moves this and no
            // median.
            "updates_per_s" => {
                let wall: f64 = pooled(passes, "wall_ns", limit).iter().sum();
                value(m.name, (pool.kept * w.batch) as f64 / wall * 1e9, pool.kept)
            }
            timing => value(m.name, median(&pooled(passes, timing, limit)), pool.kept),
        };
        if !v.value.is_finite() || v.value <= 0.0 {
            let why = match m.name {
                "wire_bytes_per_update" | "heap_peak_mib" => {
                    format!(
                        ": a window ended before cycle {}, where the counts are read",
                        w.count_cycles
                    )
                }
                _ => String::new(),
            };
            r.failures.push(format!("{}: {} was not measured{why}", w.name, m.name));
        }
        r.values.push(v);
    }
    r
}

/// The per-layer metrics of `w` from a traced run: counts, process
/// numbers and tails from the untraced `product` pass, layer timings from
/// the `traced` pass (whose scalars are already named as in `PER_LAYER`).
/// With `gate`, the layer-dominance self-check runs on top.
pub fn per_layer(w: &Workload, product: &PassResult, traced: &PassResult, gate: bool) -> Report {
    // One limit for both passes, so the traced cycle is compared with the
    // product's under the same machine state.
    let both = [product.clone(), traced.clone()];
    let (mut r, limit, _) = common(w, &both, 0);
    let product_only = std::slice::from_ref(product);
    let pool = pool_summary(product_only, limit);
    let wall = |p: &PassResult| median(&pooled(std::slice::from_ref(p), "wall_ns", limit));
    for &(name, _, _) in &PER_LAYER {
        let mut v = value(name, f64::NAN, 1);
        match name {
            "bench.quiet_share" => v.value = pool.kept as f64 / pool.cycles.max(1) as f64,
            "bench.ref_loop_ns" => v.value = pool.reference_ns,
            // The traced cycle against the product's own, same process
            // settings, tracing the only difference.
            "trace.overhead_pct" => v.value = (wall(traced) / wall(product) - 1.0) * 100.0,
            _ if name.starts_with("tail.") => {
                let series = match name {
                    "tail.write_ack_p99_us" => "write_ack_us",
                    "tail.converge_p99_ms" => "converge_ms",
                    "tail.idle_round_p99_us" => "idle_round_us",
                    _ => "oob_fetch_us",
                };
                let s = pooled(product_only, series, limit);
                v.samples = s.len();
                // With too few samples for any tail, the median stands in.
                let (p, t) = tail(&s, 99).unwrap_or((50, median(&s)));
                v.value = t;
                v.note = format!("p{p}");
            }
            // Timings are the traced pass's; what it does not name is a
            // count of the product pass.
            _ => {
                v.value = traced
                    .scalars
                    .get(name)
                    .or_else(|| product.scalars.get(name))
                    .copied()
                    .unwrap_or(f64::NAN)
            }
        }
        if !v.value.is_finite() {
            r.failures.push(format!("{}: {} was not measured", w.name, name));
            v.value = 0.0;
        }
        r.values.push(v);
    }
    if gate {
        let idle = median(&pooled(std::slice::from_ref(traced), "idle_round_us", limit));
        r.failures.extend(dominance(w, traced, idle, r.get("trace.overhead_pct")));
    }
    r
}

/// How far the traced cycle may be from the product's, in percent of the
/// latter, before the traced fabric no longer stands for the product.
const OVERHEAD_LIMIT_PCT: f64 = 25.0;

/// The layer-dominance self-check: each workload must spend its time in
/// the layers it exists to stress, or a number read off it means something
/// else than its name says; and the traced cycle must cost about what the
/// product's does, or the fabric assembled in `layers` has drifted from
/// the product it mirrors. `idle_round_us` is the traced pass's.
fn dominance(
    w: &Workload,
    traced: &PassResult,
    idle_round_us: f64,
    overhead_pct: f64,
) -> Vec<String> {
    let share =
        |layers: &[&str]| layers.iter().map(|l| traced.scalar(&format!("share.{l}"))).sum::<f64>();
    let mut bad = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            bad.push(format!("{}: layer dominance: {what}", w.name));
        }
    };
    require(
        overhead_pct.abs() <= OVERHEAD_LIMIT_PCT,
        format!(
            "the traced cycle is {overhead_pct:+.1} % off the product's, over {OVERHEAD_LIMIT_PCT} %"
        ),
    );
    let ratio = traced.scalar("trace.cycle_sum_ratio");
    require(
        (0.9..=1.1).contains(&ratio),
        format!("layer self times sum to {ratio:.3} of the cycle, not 0.9–1.1"),
    );
    let recon = share(&["core.recon"]);
    if w.shape == Shape::ColdRecon {
        require(
            recon >= 0.5,
            format!("core.recon is {:.0} % of the cycle, under 50 %", recon * 100.0),
        );
        let trips = traced.scalar("core.recon.round_trips_per_cycle");
        require(
            trips > 1.0,
            format!("{trips} recon round trips per cycle: the pull did not descend"),
        );
    } else {
        require(recon == 0.0, format!("core.recon ran ({:.1} % of the cycle)", recon * 100.0));
    }
    if w.fabric == Fabric::Sim {
        let wire =
            share(&["core.codec", "net.tcp", "net.async_tcp", "net.sharded", "durable.group"]);
        require(
            wire == 0.0,
            format!("codec + net + durable ran ({:.1} % of the cycle)", wire * 100.0),
        );
    }
    if w.name == "tcp_small" {
        let net = (traced.scalar("net.tcp.connect_us")
            + traced.scalar("net.async_tcp.serve_residual_us"))
            / idle_round_us;
        require(
            net >= 0.5,
            format!(
                "connect + serve residual is {:.0} % of an idle round, under 50 %",
                net * 100.0
            ),
        );
    }
    bad
}

/// Print a report as table rows: workload, metric, value, unit, bound,
/// samples.
pub fn print_table(r: &Report) {
    for v in &r.values {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == v.name)
            .map_or("-".to_string(), |m| format!("{:.0}%", m.bound * 100.0));
        println!(
            "{:<14} {:<42} {:>16.4} {:<6} bound {:<4} n={} {}",
            r.workload, v.name, v.value, v.unit, bound, v.samples, v.note
        );
    }
    println!(
        "{:<14} ops_attempted {}  ops_failed {}  cycles {}  undisturbed {}",
        r.workload, r.attempted, r.failed, r.cycles, r.kept
    );
    for f in &r.failures {
        println!("FAILED {f}");
    }
}

/// The pipeline's result object. With one report the metric names are
/// bare; with several they are prefixed `workload/`.
pub fn json_line(reports: &[Report]) -> String {
    let mut metrics = String::new();
    for r in reports {
        for v in &r.values {
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let prefix = if reports.len() > 1 { format!("{}/", r.workload) } else { String::new() };
            write!(
                metrics,
                "\"{prefix}{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                v.name, v.value, v.unit
            )
            .unwrap();
        }
    }
    let correct = reports.iter().all(Report::correct);
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        attempted.max(1)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(idle: Vec<f64>) -> PassResult {
        let mut p = PassResult::default();
        p.series.insert("reference_ns".into(), vec![14_000.0; idle.len()]);
        p.series.insert("idle_round_us".into(), idle);
        p
    }

    #[test]
    fn a_slow_regime_is_dropped_not_averaged_in() {
        // Two regimes, as measured on the build host: the reference loop
        // and an idle round both run 1.5 times slower for the last 1200 of
        // 1600 cycles, and a second pass is slow throughout.
        let regime = |i: usize| if i < 400 { 1.0 } else { 1.5 };
        let mut first = pass((0..1600).map(|i| 45.0 * regime(i) + (i % 7) as f64 * 0.1).collect());
        first.series.insert(
            "reference_ns".into(),
            (0..1600).map(|i| 14_000.0 * regime(i) + (i % 5) as f64).collect(),
        );
        let mut second = pass(vec![67.5; 800]);
        second.series.insert("reference_ns".into(), vec![21_000.0; 800]);
        let passes = [first, second];
        let kept = pooled(&passes, "idle_round_us", limit_of(&passes, 300));
        assert_eq!(kept.len(), 400);
        assert!((median(&kept) - 45.3).abs() < 1e-9);
    }
}
