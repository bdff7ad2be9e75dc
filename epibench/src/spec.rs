//! The benchmark's fixed tables: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root is printed
//! from these (`--print-benchmark-json`) and a unit test keeps the two
//! identical.

/// Which runtime carries a workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fabric {
    /// `epidb_sim::EpidbCluster`: direct calls, one thread.
    Sim,
    /// `AsyncTcpCluster`: loopback sockets, reactor, `GroupWal`.
    Tcp,
    /// `ShardedTcpCluster`: loopback sockets, thread per connection.
    Sharded,
}

/// The shape of one cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// write · oob · chain of rounds · verify · idle rounds; the origin
    /// rotates.
    Chain,
    /// crash node 2 · write at node 0 · 1 ← 0 · revive 2 · 2 ← 1 · verify
    /// · oob · idle.
    Catchup,
    /// As `Chain` on two nodes with the origin fixed at node 0, whose log
    /// keeps one record per origin, so the pull lands on the recon rung.
    ColdRecon,
    /// As `Chain` inside one owner group of a sharded cluster, one round
    /// per shard.
    Sharded,
}

/// One workload: sizes are fixed here and nowhere else.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub fabric: Fabric,
    pub shape: Shape,
    pub nodes: usize,
    /// Items in the database (all shards together for `Sharded`).
    pub items: usize,
    /// Bytes per value; every update is a whole-value `Set`.
    pub value_len: usize,
    /// Updates per cycle.
    pub batch: usize,
    /// Cycles run before the window opens: past the first update of every
    /// item by every origin that updates it, where the walk over the items
    /// is short enough for that.
    pub warmup: usize,
    /// `K`: `wire_bytes_per_update` and `heap_peak_mib` are read after
    /// this many measured cycles, so they do not depend on how many
    /// cycles the window fitted.
    pub count_cycles: usize,
    /// `R`: complete set-ups a pass makes back to back, each timed (the
    /// last one is measured on), so that together they take at least half
    /// a second.
    pub setups: usize,
    /// `DurabilityConfig::checkpoint_bytes`, sized to fire at least five
    /// times per window (0 on fabrics without durable state).
    pub checkpoint_bytes: u64,
}

pub const SHARDS: usize = 8;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "core_sim",
        why: "EpidbCluster direct calls, 4 nodes x 4096 items: vv/logvec/store/replica do all the work, codec/net/durable none; the O(1)/O(m) law in wall-clock",
        fabric: Fabric::Sim,
        shape: Shape::Chain,
        nodes: 4,
        items: 4_096,
        value_len: 64,
        batch: 64,
        warmup: 200,
        count_cycles: 2_000,
        setups: 200,
        checkpoint_bytes: 0,
    },
    Workload {
        name: "tcp_small",
        why: "AsyncTcpCluster, 3 nodes, 65536 x 64 B, batch 16: per-message overhead dominates (connect, framing, reactor dispatch, committer hand-off)",
        fabric: Fabric::Tcp,
        shape: Shape::Chain,
        nodes: 3,
        items: 65_536,
        value_len: 64,
        batch: 16,
        warmup: 100,
        count_cycles: 1_000,
        setups: 1,
        checkpoint_bytes: 4 << 20,
    },
    Workload {
        name: "tcp_bulk",
        why: "same fabric, 1024 x 8 KiB values, batch 8: codec/net/durable used by bytes instead of by messages; a copy or allocation per value shows here as a loss",
        fabric: Fabric::Tcp,
        shape: Shape::Chain,
        nodes: 3,
        items: 1_024,
        value_len: 8 << 10,
        batch: 8,
        warmup: 400,
        count_cycles: 500,
        setups: 2,
        checkpoint_bytes: 48 << 20,
    },
    Workload {
        name: "catchup",
        why: "crash a node, 500 acked updates, revive, pull: durable recovery, journal replay and the O(m) log-tail accept; connect cost amortised, so it moves opposite to tcp_small",
        fabric: Fabric::Tcp,
        shape: Shape::Catchup,
        nodes: 3,
        items: 8_192,
        value_len: 64,
        batch: 500,
        warmup: 20,
        count_cycles: 150,
        setups: 6,
        checkpoint_bytes: 1 << 20,
    },
    Workload {
        name: "cold_recon",
        why: "2 nodes, source log retention 1, batch 16: the pull answers NeedRecon and the digest descent does the work; core.recon is busy here and nowhere else",
        fabric: Fabric::Tcp,
        shape: Shape::ColdRecon,
        nodes: 2,
        items: 8_192,
        value_len: 64,
        batch: 16,
        warmup: 20,
        count_cycles: 150,
        setups: 5,
        checkpoint_bytes: 128 << 10,
    },
    Workload {
        name: "sharded_small",
        why: "ShardedTcpCluster, 4 nodes, 8 shards x 2048 items in two owner groups, per-shard rounds: shard routing, per-shard DBVVs, Shard envelope, thread-per-connection serve path",
        fabric: Fabric::Sharded,
        shape: Shape::Sharded,
        nodes: 4,
        items: SHARDS * 2_048,
        value_len: 64,
        batch: 16,
        warmup: 1_500,
        count_cycles: 300,
        setups: 12,
        checkpoint_bytes: 0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A bound is about three times the widest interquartile spread any
/// workload showed for the metric over ten differently seeded runs on the
/// build host (README, "Measured on the build host"), and at most the
/// pipeline's 25 %: a bound inside the run-to-run spread would reject
/// identical code.
pub const END_TO_END: [Metric; 8] = [
    Metric { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    Metric { name: "write_ack_us", unit: "us", better: "lower", bound: 0.25 },
    Metric { name: "oob_fetch_us", unit: "us", better: "lower", bound: 0.25 },
    Metric { name: "converge_ms", unit: "ms", better: "lower", bound: 0.2 },
    Metric { name: "idle_round_us", unit: "us", better: "lower", bound: 0.2 },
    Metric { name: "updates_per_s", unit: "1/s", better: "higher", bound: 0.2 },
    Metric { name: "wire_bytes_per_update", unit: "B", better: "lower", bound: 0.02 },
    Metric { name: "heap_peak_mib", unit: "MiB", better: "lower", bound: 0.03 },
];

/// Per-layer metrics `(name, unit, better)`, printed by a traced run.
/// Layers are this repository's modules.
pub const PER_LAYER: [(&str, &str, &str); 66] = [
    ("vv.dbvv_compare_ns", "ns", "lower"),
    ("vv.entry_cmps_per_idle_round", "count", "lower"),
    ("store.read_ns", "ns", "lower"),
    ("store.apply_update_ns", "ns", "lower"),
    ("logvec.add_record_ns", "ns", "lower"),
    ("logvec.tail_after_ns_per_record", "ns", "lower"),
    ("logvec.records_examined_per_update", "count", "lower"),
    ("core.replica.update_ns", "ns", "lower"),
    ("core.replica.prepare_us", "us", "lower"),
    ("core.replica.accept_us", "us", "lower"),
    ("core.replica.items_copied_per_update", "count", "lower"),
    ("core.replica.oob_serve_us", "us", "lower"),
    ("core.replica.intranode_replays_per_cycle", "count", "lower"),
    ("core.engine.handle_idle_ns", "ns", "lower"),
    ("core.engine.handle_us", "us", "lower"),
    ("core.rounds.steps_per_round", "count", "lower"),
    ("core.codec.encode_req_us", "us", "lower"),
    ("core.codec.decode_req_us", "us", "lower"),
    ("core.codec.encode_resp_us", "us", "lower"),
    ("core.codec.decode_resp_us", "us", "lower"),
    ("core.codec.allocs_per_decode", "count", "lower"),
    ("core.codec.frame_bytes_p50", "B", "lower"),
    ("core.journal.encode_us", "us", "lower"),
    ("core.journal.replay_us_per_record", "us", "lower"),
    ("core.recon.serve_us", "us", "lower"),
    ("core.recon.leaves_hashed_per_diff_item", "count", "lower"),
    ("core.recon.round_trips_per_cycle", "count", "lower"),
    ("core.recon.ctl_bytes_per_diff_item", "B", "lower"),
    ("core.shard.route_ns", "ns", "lower"),
    ("core.shard.handle_sharded_idle_ns", "ns", "lower"),
    ("core.shard.rounds_per_idle_walk", "count", "lower"),
    ("core.snapshot.encode_ms", "ms", "lower"),
    ("core.snapshot.restore_ms", "ms", "lower"),
    ("durable.group.commit_wait_us", "us", "lower"),
    ("durable.group.fsyncs_per_update", "count", "lower"),
    ("durable.group.records_per_batch", "count", "higher"),
    ("durable.group.wal_bytes_per_user_byte", "B/B", "lower"),
    ("durable.group.checkpoint_ms", "ms", "lower"),
    ("durable.group.checkpoints", "count", "lower"),
    ("durable.group.recover_ms", "ms", "lower"),
    ("durable.on_tmpfs", "count", "higher"),
    ("net.tcp.connect_us", "us", "lower"),
    ("net.tcp.exchange_warm_us", "us", "lower"),
    ("net.tcp.msgs_per_update", "count", "lower"),
    ("net.tcp.ctl_bytes_per_update", "B", "lower"),
    ("net.async_tcp.serve_residual_us", "us", "lower"),
    ("net.async_tcp.open_connections", "count", "lower"),
    ("net.async_tcp.worker_threads", "count", "lower"),
    ("net.sharded.connects_per_cycle", "count", "lower"),
    ("net.sharded.serve_residual_us", "us", "lower"),
    ("proc.cpu_us_per_update", "us", "lower"),
    ("proc.ctx_switches_per_update", "count", "lower"),
    ("proc.allocs_per_update", "count", "lower"),
    ("proc.alloc_bytes_per_update", "B", "lower"),
    ("proc.peak_rss_mib", "MiB", "lower"),
    ("proc.threads", "count", "lower"),
    ("tail.write_ack_p99_us", "us", "lower"),
    ("tail.converge_p99_ms", "ms", "lower"),
    ("tail.idle_round_p99_us", "us", "lower"),
    ("tail.oob_fetch_p99_us", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.cycle_sum_ratio", "ratio", "higher"),
    ("bench.quiet_share", "ratio", "higher"),
    ("bench.ref_loop_ns", "ns", "lower"),
    ("bench.cycles", "count", "higher"),
    ("bench.steal_pct", "%", "lower"),
];

/// `run_seconds` of `BENCHMARK.json`: what the pipeline passes as
/// `--seconds`.
pub const RUN_SECONDS: u32 = 15;
