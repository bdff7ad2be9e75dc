//! In-memory spans for the traced run. A span is recorded from the
//! benchmark's own files, around each call into a layer: name, start, end,
//! the span that caused it, and the cycle it belongs to. Spans of one
//! cycle are folded into per-kind and per-layer sums when the cycle ends
//! (self time = duration minus the part its children cover), so memory
//! does not grow with the window; `--trace-out` also keeps them raw.

use std::cell::RefCell;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::sys;

macro_rules! kinds {
    ($($variant:ident => $name:literal),* $(,)?) => {
        /// What a span measures. The name's prefix is its layer.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(u8)]
        pub enum Kind { $($variant),* }

        impl Kind {
            pub const ALL: &'static [Kind] = &[$(Kind::$variant),*];

            pub fn name(self) -> &'static str {
                match self { $(Kind::$variant => $name),* }
            }
        }
    };
}

kinds! {
    Cycle => "bench.cycle",
    StepWrite => "bench.step.write",
    StepOob => "bench.step.oob",
    StepConverge => "bench.step.converge",
    StepIdle => "bench.step.idle",
    StepCrash => "bench.step.crash",
    ReplicaUpdate => "core.replica.update",
    StoreRead => "store.read",
    RoundStart => "core.rounds.start",
    RoundIdle => "core.rounds.on_response",
    Accept => "core.replica.accept",
    AcceptOob => "core.replica.accept_oob",
    ReconStep => "core.recon.on_response",
    HandleIdle => "core.engine.handle.idle",
    HandlePull => "core.replica.prepare",
    HandleOob => "core.replica.oob_serve",
    HandleRecon => "core.recon.serve",
    HandleShardedIdle => "core.shard.handle_sharded.idle",
    HandleSharded => "core.shard.handle_sharded",
    EncodeReq => "core.codec.encode_req",
    DecodeReq => "core.codec.decode_req",
    EncodeResp => "core.codec.encode_resp",
    DecodeResp => "core.codec.decode_resp",
    CommitWait => "durable.group.commit_wait",
    AckGate => "durable.group.ack_gate",
    Checkpoint => "durable.group.checkpoint",
    CheckpointSkip => "durable.group.checkpoint_check",
    Recover => "durable.group.recover",
    ExchangeCold => "net.tcp.exchange_cold",
    Exchange => "net.tcp.exchange",
    Close => "net.tcp.close",
    Serve => "net.async_tcp.serve",
    ShardRound => "net.sharded.round",
    ShardRoundIdle => "net.sharded.round_idle",
    ShardOob => "net.sharded.oob",
    SnapshotEncode => "core.snapshot.encode",
    SnapshotRestore => "core.snapshot.restore",
    ProbeDbvvCompare => "vv.dbvv_compare",
    ProbeStoreApply => "store.apply_update",
    ProbeLogAdd => "logvec.add_record",
    ProbeLogTail => "logvec.tail_after",
    ProbeJournalEncode => "core.journal.encode",
    ProbeJournalReplay => "core.journal.replay",
    ProbeShardRoute => "core.shard.route",
    ProbeExchangeCold => "net.tcp.probe.exchange_cold",
    ProbeExchangeWarm => "net.tcp.probe.exchange_warm",
}

impl Kind {
    /// The layer a span's self time is charged to: the module part of its
    /// name (`core.codec.encode_req` → `core.codec`, `store.read` →
    /// `store`).
    pub fn layer(self) -> &'static str {
        let name = self.name();
        let nested = ["core.", "durable.", "net."].iter().any(|p| name.starts_with(p));
        let depth = if nested { 2 } else { 1 };
        let end = name.match_indices('.').nth(depth - 1).map_or(name.len(), |(i, _)| i);
        &name[..end]
    }
}

const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    /// Operations the span covers (its time is reported per operation).
    count: u32,
    /// Allocator calls between start and end.
    allocs: u32,
}

/// Sums folded from finished cycles.
#[derive(Default)]
pub struct Folded {
    /// Per kind: one sample per cycle (or per fold outside cycles), the
    /// kind's total duration in that cycle divided by its operations, ns.
    pub per_op_ns: Vec<Vec<f64>>,
    /// Per kind: self time summed over every folded span, ns.
    pub self_ns: Vec<f64>,
    /// Per kind: self time of the spans that ran inside a cycle, ns.
    pub cycle_self_by_kind: Vec<f64>,
    /// Per kind: spans folded, the operations they covered, and allocator
    /// calls inside them.
    pub spans: Vec<u64>,
    pub ops: Vec<u64>,
    pub allocs: Vec<u64>,
    /// Warm probe exchanges: self time per fold divided by exchanges — what
    /// an exchange takes beyond the serving side's spans under it.
    pub warm_exchange_self_ns: Vec<f64>,
    /// Σ duration of cycle spans, and Σ self time of the layer spans under
    /// them.
    pub cycle_ns: f64,
    pub cycle_self_ns: f64,
    pub cycles: u64,
    /// Every frame put on a socket, bytes.
    pub frames: Vec<f64>,
}

struct Recorder {
    epoch: Instant,
    on: bool,
    cycle: u32,
    spans: Vec<Span>,
    folded: Folded,
    raw: Option<std::io::BufWriter<std::fs::File>>,
}

static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

/// Whether spans are being recorded: the one branch an untraced run pays
/// per `span` call. A statistic-like flag — the recorder itself is only
/// touched under its lock.
static RECORDING: AtomicBool = AtomicBool::new(false);

/// The client's open exchange span: the parent of spans recorded on a
/// serving thread while it handles that exchange's request (one request is
/// in flight at a time).
static REMOTE_PARENT: AtomicU32 = AtomicU32::new(NONE);

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    if !RECORDING.load(Ordering::Relaxed) {
        return None;
    }
    let mut guard = RECORDER.lock().expect("trace recorder lock (a span holder panicked)");
    guard.as_mut().filter(|r| r.on).map(f)
}

/// Start recording. Raw spans go to `raw_out` as JSON lines when given.
pub fn install(raw_out: Option<&std::path::Path>) -> std::io::Result<()> {
    let raw = match raw_out {
        Some(p) => Some(std::io::BufWriter::new(std::fs::File::create(p)?)),
        None => None,
    };
    let n = Kind::ALL.len();
    *RECORDER.lock().expect("trace recorder lock") = Some(Recorder {
        epoch: Instant::now(),
        on: false,
        cycle: 0,
        spans: Vec::with_capacity(1 << 16),
        folded: Folded {
            per_op_ns: vec![Vec::new(); n],
            self_ns: vec![0.0; n],
            cycle_self_by_kind: vec![0.0; n],
            spans: vec![0; n],
            ops: vec![0; n],
            allocs: vec![0; n],
            ..Folded::default()
        },
        raw,
    });
    Ok(())
}

/// Switch span recording on or off (off while a set-up populates the
/// database, so a hundred thousand updates are not each recorded).
pub fn record(on: bool) {
    if let Some(r) = RECORDER.lock().expect("trace recorder lock").as_mut() {
        r.on = on;
        RECORDING.store(on, Ordering::Relaxed);
    }
}

/// An open span; closes when dropped.
pub struct Open {
    id: u32,
    remote: bool,
}

/// Open a span of `kind` covering `count` operations. Its parent is the
/// innermost open span of this thread, or — on a thread with none — the
/// client's open exchange.
pub fn span(kind: Kind, count: usize) -> Open {
    if !RECORDING.load(Ordering::Relaxed) {
        return Open { id: NONE, remote: false };
    }
    // The clock is read first on the way in and last on the way out, so a
    // span's own bookkeeping is inside it (charged to the layer it wraps
    // and reported as `trace.overhead_pct`) and not glue between spans.
    let start = Instant::now();
    let allocs = sys::alloc_stats().calls as u32;
    let id = with(|r| {
        let parent = STACK
            .with(|s| s.borrow().last().copied())
            .unwrap_or_else(|| REMOTE_PARENT.load(Ordering::SeqCst));
        let id = r.spans.len() as u32;
        let start_ns = start.saturating_duration_since(r.epoch).as_nanos() as u64;
        r.spans.push(Span {
            kind,
            start_ns,
            end_ns: start_ns,
            parent,
            count: count as u32,
            allocs,
        });
        id
    });
    match id {
        Some(id) => {
            STACK.with(|s| s.borrow_mut().push(id));
            Open { id, remote: false }
        }
        None => Open { id: NONE, remote: false },
    }
}

impl Open {
    /// Make this span the parent of what serving threads record until it
    /// closes.
    pub fn adopt_remote(mut self) -> Open {
        if self.id != NONE {
            REMOTE_PARENT.store(self.id, Ordering::SeqCst);
            self.remote = true;
        }
        self
    }

    /// Reclassify the span once the call has shown what it was.
    pub fn retag(&mut self, kind: Kind) {
        if self.id != NONE {
            with(|r| r.spans[self.id as usize].kind = kind);
        }
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        if self.id == NONE {
            return;
        }
        if self.remote {
            REMOTE_PARENT.store(NONE, Ordering::SeqCst);
        }
        STACK.with(|s| s.borrow_mut().pop());
        let allocs = sys::alloc_stats().calls as u32;
        with(|r| {
            let end = r.epoch.elapsed().as_nanos() as u64;
            // A fold may have cleared the arena under a span still open on
            // a serving thread; such a span is dropped.
            if let Some(s) = r.spans.get_mut(self.id as usize) {
                s.end_ns = end;
                s.allocs = allocs.wrapping_sub(s.allocs);
            }
        });
    }
}

/// Note one frame put on a socket.
pub fn frame(bytes: usize) {
    with(|r| r.folded.frames.push(bytes as f64));
}

/// Fold the spans recorded since the last fold and clear them. Call with
/// no span open on the calling thread.
pub fn fold() {
    with(|r| {
        let n = r.spans.len();
        let mut child_ns = vec![0u64; n];
        for s in &r.spans {
            if s.parent != NONE && (s.parent as usize) < n {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut in_cycle = vec![false; n];
        for (i, s) in r.spans.iter().enumerate() {
            let p = s.parent as usize;
            in_cycle[i] = p < i && (in_cycle[p] || r.spans[p].kind == Kind::Cycle);
        }
        let kinds = Kind::ALL.len();
        let (mut dur, mut ops, mut warm_self) = (vec![0u64; kinds], vec![0u64; kinds], 0u64);
        for (i, s) in r.spans.iter().enumerate() {
            let k = s.kind as usize;
            let d = s.end_ns - s.start_ns;
            let own = d.saturating_sub(child_ns[i]);
            dur[k] += d;
            ops[k] += u64::from(s.count);
            let f = &mut r.folded;
            f.self_ns[k] += own as f64;
            f.spans[k] += 1;
            f.ops[k] += u64::from(s.count);
            f.allocs[k] += u64::from(s.allocs);
            match s.kind {
                Kind::Cycle => {
                    f.cycle_ns += d as f64;
                    f.cycles += 1;
                }
                Kind::ProbeExchangeWarm => warm_self += own,
                _ => {}
            }
            // The bench's own step spans are glue, not a layer: their self
            // time is what `cycle_sum_ratio` finds missing.
            if in_cycle[i] && s.kind.layer() != "bench" {
                f.cycle_self_ns += own as f64;
                f.cycle_self_by_kind[k] += own as f64;
            }
        }
        for k in 0..kinds {
            if ops[k] > 0 {
                r.folded.per_op_ns[k].push(dur[k] as f64 / ops[k] as f64);
            }
        }
        let warm = ops[Kind::ProbeExchangeWarm as usize];
        if warm > 0 {
            r.folded.warm_exchange_self_ns.push(warm_self as f64 / warm as f64);
        }
        if let Some(out) = r.raw.as_mut() {
            for (i, s) in r.spans.iter().enumerate() {
                let parent = if s.parent == NONE { -1 } else { i64::from(s.parent) };
                let _ = writeln!(
                    out,
                    "{{\"cycle\": {}, \"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}",
                    r.cycle,
                    s.kind.name(),
                    s.start_ns,
                    s.end_ns,
                    s.count
                );
            }
        }
        r.cycle += 1;
        r.spans.clear();
    });
}

/// Stop recording and hand back the folded sums (flushing `--trace-out`).
pub fn finish() -> Folded {
    RECORDING.store(false, Ordering::Relaxed);
    let mut guard = RECORDER.lock().expect("trace recorder lock");
    let Some(mut r) = guard.take() else { return Folded::default() };
    if let Some(out) = r.raw.as_mut() {
        let _ = out.flush();
    }
    r.folded
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_are_module_prefixes() {
        assert_eq!(Kind::EncodeReq.layer(), "core.codec");
        assert_eq!(Kind::StoreRead.layer(), "store");
        assert_eq!(Kind::CommitWait.layer(), "durable.group");
        assert_eq!(Kind::ExchangeCold.layer(), "net.tcp");
        assert_eq!(Kind::Serve.layer(), "net.async_tcp");
        assert_eq!(Kind::ShardRoundIdle.layer(), "net.sharded");
        assert_eq!(Kind::ProbeLogAdd.layer(), "logvec");
        assert_eq!(Kind::Cycle.layer(), "bench");
        assert_eq!(Kind::HandleRecon.layer(), "core.recon");
    }
}
