//! One pass of one workload: timed set-up, warm-up, a measurement window
//! of whole cycles, and the end-of-pass checks. A pass runs in a child
//! process of its own and hands its samples to the parent as text.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use bytes::Bytes;
use epidb_common::{Costs, ItemId};

use crate::cycle::{self, Ops, Reference, StepTimes};
use crate::fabric::{self, DurableCounts, Fabric};
use crate::input::{Inputs, Update};
use crate::spec::{Shape, Workload};
use crate::sys;
use crate::{layers, probes, trace};

/// When the window closes.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// After this many seconds of cycles.
    Seconds(f64),
    /// After exactly this many cycles (tests: exactly replayable).
    #[cfg_attr(not(test), allow(dead_code))]
    Cycles(usize),
}

/// Cycles a window may hold; the sample buffers are allocated for this
/// many before the window opens and never grow inside it.
const MAX_CYCLES: usize = 200_000;

/// What a pass measured. Scalars are per-pass numbers, series hold one
/// value per measured cycle.
#[derive(Clone, Default, Debug, PartialEq)]
pub struct PassResult {
    pub scalars: BTreeMap<String, f64>,
    pub series: BTreeMap<String, Vec<f64>>,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
}

impl PassResult {
    pub fn scalar(&self, name: &str) -> f64 {
        self.scalars.get(name).copied().unwrap_or(f64::NAN)
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.scalars.insert(name.to_string(), value);
    }

    /// Line-oriented text form (`scalar name v`, `series name v v …`,
    /// `failure text`). Floats print with Rust's shortest round-trip
    /// representation, so parsing gives the same bits back.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.scalars {
            writeln!(out, "scalar {name} {v:?}").unwrap();
        }
        for (name, vs) in &self.series {
            write!(out, "series {name}").unwrap();
            for v in vs {
                write!(out, " {v:?}").unwrap();
            }
            out.push('\n');
        }
        for f in &self.failures {
            writeln!(out, "failure {}", f.replace('\n', " ")).unwrap();
        }
        out
    }

    pub fn from_text(text: &str) -> Result<PassResult, String> {
        let mut r = PassResult::default();
        let num = |s: &str| s.parse::<f64>().map_err(|e| format!("bad number {s:?}: {e}"));
        for line in text.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            match kind {
                "scalar" => {
                    let (name, v) = rest.split_once(' ').ok_or("scalar without a value")?;
                    r.scalars.insert(name.to_string(), num(v)?);
                }
                "series" => {
                    let mut parts = rest.split(' ');
                    let name = parts.next().ok_or("series without a name")?;
                    let vs = parts.filter(|p| !p.is_empty()).map(num).collect::<Result<_, _>>()?;
                    r.series.insert(name.to_string(), vs);
                }
                "failure" => r.failures.push(rest.to_string()),
                _ => {}
            }
        }
        Ok(r)
    }
}

/// The per-cycle series every pass records.
pub const SERIES: [&str; 6] =
    ["write_ack_us", "oob_fetch_us", "converge_ms", "idle_round_us", "wall_ns", "reference_ns"];

/// Per-cycle sample buffers, allocated once.
struct Samples {
    cols: [Vec<f64>; 6],
}

impl Samples {
    fn new() -> Samples {
        Samples { cols: std::array::from_fn(|_| Vec::with_capacity(MAX_CYCLES)) }
    }

    fn push(&mut self, w: &Workload, t: &StepTimes, reference: f64) {
        let row = [
            t.write / w.batch as f64 / 1e3,
            t.oob / 1e3,
            t.converge / 1e6,
            t.idle / t.idle_rounds as f64 / 1e3,
            t.wall,
            reference,
        ];
        for (col, v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
    }
}

/// Counters read at the edges of the window.
struct Edge {
    at: Instant,
    costs: Costs,
    durable: DurableCounts,
    proc_: sys::ProcStats,
    alloc: sys::AllocStats,
    /// Steal and total ticks of the CPU the process is pinned to.
    steal: (u64, u64),
    /// Connections this machine has opened.
    opens: u64,
}

impl Edge {
    fn read(f: &dyn Fabric) -> Edge {
        Edge {
            at: Instant::now(),
            costs: f.costs(),
            durable: f.durable_counts(),
            proc_: sys::proc_stats(),
            alloc: sys::alloc_stats(),
            steal: sys::pinned_cpu().map_or((0, 0), sys::steal_ticks),
            opens: sys::tcp_active_opens(),
        }
    }
}

/// The latest value written to each item, for the end-of-pass read-back.
struct Expected(Vec<Option<Bytes>>);

impl Expected {
    fn note(&mut self, batch: &[Update]) {
        for (x, v) in batch {
            self.0[x.index()] = Some(v.clone());
        }
    }

    /// Every item written during the pass must read back, at every owner,
    /// as the last bytes written to it (on `catchup` this is "the revived
    /// node holds every acked update").
    fn read_back(&self, f: &mut dyn Fabric, w: &Workload, ops: &mut Ops) {
        let written: Vec<Update> = self
            .0
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.clone().map(|v| (ItemId::from_index(i), v)))
            .collect();
        for update in &written {
            for at in fabric::owners(w, update.0) {
                let wrong = f.verify(at, std::slice::from_ref(update));
                ops.attempted += 1;
                ops.failed += wrong;
            }
        }
    }
}

/// Which fabric a pass runs on.
#[derive(Clone, Copy, Debug)]
pub enum Mode<'a> {
    /// The product's own cluster, no spans: end-to-end numbers.
    Product,
    /// The traced fabric assembled from the layers, spans recorded (and
    /// written raw to the path, when given).
    Traced(Option<&'a Path>),
}

/// Run one pass of `w`.
pub fn run(w: &Workload, seed: u64, limit: Limit, dir: &Path, mode: Mode<'_>) -> PassResult {
    let mut out = PassResult::default();

    // The bench's own buffers are allocated before anything of the
    // product's, so they are live whenever the heap peaks and can be taken
    // out of the peak whole.
    let heap_before = sys::alloc_stats().live;
    let mut inputs = Inputs::new(seed, w);
    let mut expected = Expected(vec![None; w.items]);
    let mut samples = Samples::new();
    let mut reference = Reference::new();
    let own_heap = sys::alloc_stats().live.saturating_sub(heap_before);

    let mut f = match mode {
        Mode::Product => {
            // R complete set-ups back to back, each timed with the
            // reference loop on either side of it; the last one is kept.
            let (mut seconds, mut around) = (Vec::new(), Vec::new());
            let mut f: Option<Box<dyn Fabric>> = None;
            let mut before = reference.run();
            for _ in 0..w.setups {
                drop(f.take());
                let t = Instant::now();
                f = Some(fabric::set_up(w, seed, dir));
                seconds.push(t.elapsed().as_secs_f64());
                let after = reference.run();
                around.push(before.max(after));
                before = after;
            }
            out.series.insert("setup_s".into(), seconds);
            out.series.insert("setup_reference_ns".into(), around);
            f.expect("at least one set-up")
        }
        Mode::Traced(raw_out) => {
            if let Err(e) = trace::install(raw_out) {
                out.failures.push(format!("{}: cannot write the trace: {e}", w.name));
            }
            let f = layers::set_up(w, seed, dir);
            trace::record(false);
            f
        }
    };
    let f = f.as_mut();

    let mut ops = Ops::default();
    let start = Edge::read(f);
    let mut cycle_no = 0;
    let mut one_cycle = |f: &mut dyn Fabric, ops: &mut Ops, expected: &mut Expected| {
        let batch = inputs.next_batch(cycle::origin(w, cycle_no));
        let times = cycle::run(f, w, cycle_no, &batch, ops);
        expected.note(&batch);
        cycle_no += 1;
        times
    };
    for _ in 0..w.warmup {
        one_cycle(f, &mut ops, &mut expected);
    }

    trace::record(matches!(mode, Mode::Traced(_)));
    let open = Edge::read(f);
    let mut before = reference.run();
    let mut measured = 0;
    // Journal bytes and user bytes of the cycles during which no WAL
    // rolled (traced pass only).
    let (mut journal_bytes, mut user_bytes) = (0u64, 0u64);
    let mut journal = f.journal_bytes();
    loop {
        let done = match limit {
            Limit::Seconds(s) => open.at.elapsed().as_secs_f64() >= s,
            Limit::Cycles(n) => measured >= n,
        };
        if done || measured >= MAX_CYCLES {
            break;
        }
        let times = one_cycle(f, &mut ops, &mut expected);
        let after = reference.run();
        samples.push(w, &times, before.max(after));
        before = after;
        measured += 1;
        trace::fold();
        let journal_was = std::mem::replace(&mut journal, f.journal_bytes());
        if let (Some((b0, g0)), Some((b1, g1))) = (journal_was, journal) {
            if g0 == g1 {
                journal_bytes += b1 - b0;
                user_bytes += (w.batch * w.value_len) as u64;
            }
        }
        if measured == w.count_cycles {
            // Counts at a fixed cycle index: warm-up plus the first K
            // measured cycles, whatever the window goes on to fit.
            let updates = ((w.warmup + w.count_cycles) * w.batch) as f64;
            let sent = (f.costs() - start.costs).bytes_sent;
            out.set("wire_bytes_per_update", sent as f64 / updates);
            let peak = sys::alloc_stats().peak.saturating_sub(own_heap);
            out.set("heap_peak_mib", peak as f64 / (1 << 20) as f64);
        }
    }
    let close = Edge::read(f);

    if let Mode::Traced(_) = mode {
        // One more idle step between cost readings: what "nothing to do"
        // compares, counted where it happens.
        let before = f.costs();
        let (_, idle) = cycle::idle_step(f, w, 0, &mut ops);
        let cmps = (f.costs() - before).vv_entry_cmps;
        out.set("vv.entry_cmps_per_idle_round", cmps as f64 / idle as f64);
        let walk = if w.shape == Shape::Sharded { idle as f64 } else { 0.0 };
        out.set("core.shard.rounds_per_idle_walk", walk);
        out.set(
            "durable.group.wal_bytes_per_user_byte",
            journal_bytes as f64 / user_bytes.max(1) as f64,
        );
        trace::fold();
        probes::run(w, seed);
        probes::exchanges(f);
        probes::codec();
        if w.shape == Shape::Sharded {
            probes::sharded(w, seed);
        }
        probes::name_metrics(&mut out, w, &trace::finish());
    }

    expected.read_back(f, w, &mut ops);
    if let Err(e) = f.final_check() {
        out.failures.push(format!("{}: {e}", w.name));
    }
    if ops.failed > 0 {
        out.failures
            .push(format!("{}: {} of {} operations failed", w.name, ops.failed, ops.attempted));
    }
    out.set("ops_attempted", ops.attempted as f64);
    out.set("ops_failed", ops.failed as f64);
    out.set("durable.on_tmpfs", f64::from(u8::from(sys::on_tmpfs(dir))));
    window_counts(&mut out, w, measured, &open, &close);
    for (name, col) in SERIES.iter().zip(samples.cols) {
        out.series.insert(name.to_string(), col);
    }
    out
}

/// Per-layer counts over the window, from the product's own counters.
fn window_counts(out: &mut PassResult, w: &Workload, cycles: usize, open: &Edge, close: &Edge) {
    let updates = (cycles * w.batch).max(1) as f64;
    let costs = close.costs - open.costs;
    let per_update = |v: u64| v as f64 / updates;
    let copied = costs.items_copied.max(1) as f64;
    out.set("logvec.records_examined_per_update", per_update(costs.log_records_examined));
    out.set("core.replica.items_copied_per_update", per_update(costs.items_copied));
    out.set(
        "core.replica.intranode_replays_per_cycle",
        costs.aux_replays as f64 / cycles.max(1) as f64,
    );
    // `items_scanned` and control bytes are the digest descent's only
    // where the pull lands on the recon rung.
    let recon = if w.shape == Shape::ColdRecon { 1.0 } else { 0.0 };
    out.set("core.recon.leaves_hashed_per_diff_item", recon * costs.items_scanned as f64 / copied);
    out.set("core.recon.ctl_bytes_per_diff_item", recon * costs.control_bytes as f64 / copied);
    out.set("net.tcp.msgs_per_update", per_update(costs.messages_sent));
    out.set("net.tcp.ctl_bytes_per_update", per_update(costs.control_bytes));

    let commit = |f: fn(&DurableCounts) -> u64| (f(&close.durable) - f(&open.durable)) as f64;
    let records = commit(|d| d.commit.records);
    out.set("durable.group.fsyncs_per_update", commit(|d| d.commit.fsyncs) / updates);
    out.set("durable.group.records_per_batch", records / commit(|d| d.commit.batches).max(1.0));
    out.set("net.async_tcp.open_connections", close.durable.open_connections as f64);
    out.set("net.async_tcp.worker_threads", close.durable.worker_threads as f64);

    // Counted by the kernel, not by the bench: a product that keeps its
    // connections shows here without this crate being touched.
    let connects = if w.shape == Shape::Sharded { close.opens - open.opens } else { 0 };
    out.set("net.sharded.connects_per_cycle", connects as f64 / cycles.max(1) as f64);

    out.set("proc.cpu_us_per_update", (close.proc_.cpu_us - open.proc_.cpu_us) as f64 / updates);
    let switches = close.proc_.ctx_switches - open.proc_.ctx_switches;
    out.set("proc.ctx_switches_per_update", switches as f64 / updates);
    out.set("proc.allocs_per_update", (close.alloc.calls - open.alloc.calls) as f64 / updates);
    out.set("proc.alloc_bytes_per_update", (close.alloc.bytes - open.alloc.bytes) as f64 / updates);
    out.set("proc.peak_rss_mib", close.proc_.peak_rss_mib);
    out.set("proc.threads", sys::thread_count() as f64);
    out.set("bench.cycles", cycles as f64);
    let ticks = (close.steal.1 - open.steal.1).max(1) as f64;
    out.set("bench.steal_pct", (close.steal.0 - open.steal.0) as f64 / ticks * 100.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    /// `core_sim` for a fixed number of cycles, past the index the counts
    /// are read at.
    fn core_sim(seed: u64) -> PassResult {
        let w = workload("core_sim").unwrap();
        let short = Workload { setups: 1, ..*w };
        run(&short, seed, Limit::Cycles(w.count_cycles + 50), Path::new("unused"), Mode::Product)
    }

    /// The scalars that count operations, not time or process state.
    fn counts(r: &PassResult) -> Vec<(&String, u64)> {
        let exact = |name: &str| {
            name == "wire_bytes_per_update"
                || name.starts_with("ops_")
                || ["logvec.", "core.replica.", "core.recon.", "net.tcp."]
                    .iter()
                    .any(|l| name.starts_with(l))
        };
        r.scalars.iter().filter(|(n, _)| exact(n)).map(|(n, v)| (n, v.to_bits())).collect()
    }

    #[test]
    fn same_seed_gives_bit_identical_counts_on_core_sim() {
        let (a, b) = (core_sim(11), core_sim(11));
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(a.scalar("ops_failed"), 0.0);
        assert!(counts(&a).len() >= 9, "the count metrics went missing: {:?}", counts(&a));
        assert_eq!(counts(&a), counts(&b));
        assert!(a.scalar("wire_bytes_per_update") > 0.0);
    }

    #[test]
    fn pass_text_round_trips_bit_for_bit() {
        let a = core_sim(3);
        assert_eq!(PassResult::from_text(&a.to_text()).unwrap(), a);
    }
}
