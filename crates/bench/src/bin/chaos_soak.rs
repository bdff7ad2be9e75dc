//! `chaos_soak` — the seeded chaos soak harness.
//!
//! Runs a randomized fault schedule — loss, duplication, reordering,
//! corruption, mid-exchange resets, healing partitions — over both
//! runtimes (in-process and TCP sockets) with paranoid auditing on, then
//! heals every link and asserts:
//!
//! * **convergence** — every replica reads the expected final value of
//!   every item, DBVVs are equal, and no auxiliary state remains;
//! * **invariants** — `check_invariants` passes on every replica (which
//!   includes DBVV == ΣIVV), on top of the per-step paranoid audits that
//!   ran throughout;
//! * **accounting** — every corrupted frame the injector produced was
//!   dropped and counted (`corrupt_frames_dropped` equals the injector's
//!   ground truth), faults forced retries, and deliberate duplicate
//!   out-of-bound fetches surfaced as `redundant_deliveries`;
//! * **determinism** — the whole soak is a pure function of the seed: each
//!   runtime is run twice and must produce byte-for-byte identical
//!   [`Costs`] and injection stats;
//! * **parity** — the socket runtime charges the same [`Costs`] as the
//!   in-process one.
//!
//! The TCP leg is [`AsyncTcpCluster`], every node served by one epoll
//! reactor: mid-exchange resets tear sockets out from under parked
//! connections there.
//!
//! The seed is printed on every run; a failing soak replays exactly with
//! `--seed <printed seed>`.
//!
//! With `--restart-from-disk`, the soak instead runs the durable socket
//! runtime (each node's group-commit WAL with snapshot checkpoints) under
//! a seeded kill/restart schedule, once with 2 reactor workers and once
//! with 8: nodes are crashed mid-soak — really dropping their in-memory
//! replicas — and later revived from disk, with paranoid audits on
//! throughout. After the schedule, every node is revived and the soak
//! asserts convergence to the per-item ground truth, replica invariants,
//! byte-identical [`Costs`] across two same-seed runs, and the same
//! [`Costs`] on both worker pools.
//!
//! With `--sharded`, the soak instead runs a partially replicated
//! deployment — two replica groups of two nodes each, each group owning
//! one disjoint shard — over both sharded runtimes. Per-shard chaos
//! pulls among co-owners plus occasional cross-group out-of-bound fetches
//! run with paranoid audits on; the soak then asserts per-shard
//! convergence to ground truth, replica invariants, fault accounting, and
//! that the same seed produces byte-identical *per-node* [`Costs`] both
//! across passes and across both runtimes.
//!
//! With both flags, `--sharded --restart-from-disk`, the seeded
//! kill/restart schedule runs on that sharded deployment over the durable
//! socket runtime: every node journals its owned shard into its
//! group-commit WAL, a crash drops the node's shard replicas and a revival
//! recovers them from disk, and a node is crashed only while the rest of
//! its group is up. The soak then asserts per-shard convergence to ground
//! truth, replica invariants, and byte-identical per-node [`Costs`] across
//! two same-seed passes.
//! Usage:
//!
//! ```text
//! cargo run --release -p epidb-bench --bin chaos_soak -- \
//!     [--smoke] [--seed N] [--rounds N] [--restart-from-disk] [--sharded]
//! ```

use std::path::PathBuf;
use std::time::Duration;

use epidb_common::{Costs, ItemId, NodeId, ShardId};
use epidb_core::{
    ChaosLink, ChaosStats, FaultPlan, PartitionWindow, PullOutcome, RetryPolicy, ShardMap,
    ShardedNode,
};
use epidb_durable::DurabilityConfig;
use epidb_net::{AsyncTcpCluster, AsyncTcpConfig, ShardedConfig, ShardedTcpCluster, TcpConfig};
use epidb_sim::{EpidbCluster, ShardedSimCluster};
use epidb_store::UpdateOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// --- soak parameters --------------------------------------------------------

#[derive(Clone, Copy)]
struct SoakParams {
    n_nodes: usize,
    n_items: usize,
    rounds: usize,
    updates_per_round: usize,
}

const SMOKE: SoakParams = SoakParams { n_nodes: 3, n_items: 24, rounds: 8, updates_per_round: 6 };
const FULL: SoakParams = SoakParams { n_nodes: 4, n_items: 96, rounds: 40, updates_per_round: 10 };

const DELTA_BUDGET: usize = 1 << 20;
const MAX_HEAL_SWEEPS: usize = 12;

fn retry_policy() -> RetryPolicy {
    // Plenty of attempts, no backoff sleeping: the soak is synchronous, so
    // spinning the round again immediately is both fast and deterministic.
    RetryPolicy::attempts(48)
}

/// Derive a non-trivial fault plan from the seed. Probabilities are kept
/// below the levels where 48 attempts could plausibly fail to land a
/// round, and partitions are finite windows, so every schedule converges.
fn derive_plan(rng: &mut StdRng) -> FaultPlan {
    let pct = |rng: &mut StdRng, lo: u64, hi: u64| rng.gen_range(lo..hi) as f64 / 100.0;
    let mut partitions = Vec::new();
    for _ in 0..rng.gen_range(1..3u32) {
        let from = rng.gen_range(3..40u64);
        partitions.push(PartitionWindow { from, until: from + rng.gen_range(2..8u64) });
    }
    FaultPlan {
        request_loss: pct(rng, 5, 18),
        response_loss: pct(rng, 5, 18),
        duplication: pct(rng, 2, 12),
        reorder: pct(rng, 2, 12),
        corruption: pct(rng, 3, 12),
        reset: pct(rng, 1, 8),
        latency: Duration::ZERO,
        partitions,
    }
}

// --- runtime abstraction ----------------------------------------------------

/// The slice of each runtime the soak drives: updates, chaos-wrapped delta
/// pulls, out-of-bound fetches, and inspection.
trait SoakRuntime {
    fn update(&mut self, node: NodeId, item: ItemId, value: Vec<u8>);
    fn pull_chaos(
        &mut self,
        recipient: NodeId,
        source: NodeId,
        link: &mut ChaosLink,
        policy: &RetryPolicy,
    ) -> epidb_common::Result<PullOutcome>;
    fn oob(&mut self, recipient: NodeId, source: NodeId, item: ItemId);
    fn value(&self, node: NodeId, item: ItemId) -> Vec<u8>;
    fn converged(&self) -> bool;
    fn costs(&self, n_nodes: usize) -> Costs;
    fn check_invariants(&self, n_nodes: usize);
}

struct InProc(EpidbCluster);

impl SoakRuntime for InProc {
    fn update(&mut self, node: NodeId, item: ItemId, value: Vec<u8>) {
        self.0.update(node, item, UpdateOp::set(value)).expect("update");
    }

    fn pull_chaos(
        &mut self,
        recipient: NodeId,
        source: NodeId,
        link: &mut ChaosLink,
        policy: &RetryPolicy,
    ) -> epidb_common::Result<PullOutcome> {
        self.0.pull_delta_pair_chaos(recipient, source, link, policy)
    }

    fn oob(&mut self, recipient: NodeId, source: NodeId, item: ItemId) {
        self.0.oob(recipient, source, item).expect("oob");
    }

    fn value(&self, node: NodeId, item: ItemId) -> Vec<u8> {
        self.0.replica(node).read_regular(item).expect("item").as_bytes().to_vec()
    }

    fn converged(&self) -> bool {
        self.0.converged()
    }

    fn costs(&self, _n_nodes: usize) -> Costs {
        use epidb_baselines::SyncProtocol;
        self.0.costs()
    }

    fn check_invariants(&self, _n_nodes: usize) {
        self.0.assert_invariants();
    }
}

struct AsyncTcp(AsyncTcpCluster);

impl SoakRuntime for AsyncTcp {
    fn update(&mut self, node: NodeId, item: ItemId, value: Vec<u8>) {
        self.0.update(node, item, UpdateOp::set(value)).expect("update");
    }

    fn pull_chaos(
        &mut self,
        recipient: NodeId,
        source: NodeId,
        link: &mut ChaosLink,
        policy: &RetryPolicy,
    ) -> epidb_common::Result<PullOutcome> {
        self.0.pull_delta_now_chaos(recipient, source, link, policy)
    }

    fn oob(&mut self, recipient: NodeId, source: NodeId, item: ItemId) {
        self.0.oob_fetch(recipient, source, item).expect("oob");
    }

    fn value(&self, node: NodeId, item: ItemId) -> Vec<u8> {
        self.0.read(node, item).expect("read")
    }

    fn converged(&self) -> bool {
        self.0.is_quiescent()
    }

    fn costs(&self, n_nodes: usize) -> Costs {
        (0..n_nodes)
            .map(|i| self.0.with_replica(NodeId::from_index(i), |r| r.costs()))
            .fold(Costs::ZERO, |a, b| a + b)
    }

    fn check_invariants(&self, n_nodes: usize) {
        for i in 0..n_nodes {
            self.0
                .with_replica(NodeId::from_index(i), |r| r.check_invariants())
                .unwrap_or_else(|e| panic!("invariant violated at node {i}: {e}"));
        }
    }
}

// --- the soak ---------------------------------------------------------------

struct SoakResult {
    costs: Costs,
    stats: ChaosStats,
    heal_sweeps: usize,
    double_oobs: u64,
}

fn sum_stats(links: &[Vec<Option<ChaosLink>>]) -> ChaosStats {
    let mut total = ChaosStats::default();
    for row in links {
        for link in row.iter().flatten() {
            let s = link.stats;
            total.exchanges += s.exchanges;
            total.lost_requests += s.lost_requests;
            total.lost_responses += s.lost_responses;
            total.duplicated += s.duplicated;
            total.reordered += s.reordered;
            total.redelivered += s.redelivered;
            total.corrupted += s.corrupted;
            total.resets += s.resets;
            total.partitioned += s.partitioned;
            total.delivered += s.delivered;
        }
    }
    total
}

/// Run one soak: randomized updates under chaos, then heal and converge.
/// Deterministic in `(seed, plan, params)`.
fn run_soak(
    runtime: &mut dyn SoakRuntime,
    seed: u64,
    plan: &FaultPlan,
    params: SoakParams,
) -> SoakResult {
    let SoakParams { n_nodes, n_items, rounds, updates_per_round } = params;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x50A4_0A5E);
    let policy = retry_policy();

    // One persistent chaos link per directed pair, deterministic per pair.
    let mut links: Vec<Vec<Option<ChaosLink>>> = (0..n_nodes)
        .map(|r| {
            (0..n_nodes)
                .map(|s| {
                    (r != s).then(|| {
                        let link_seed = seed.wrapping_add(
                            ((r * n_nodes + s) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        );
                        ChaosLink::new(link_seed, plan.clone())
                    })
                })
                .collect()
        })
        .collect();

    // Per-item single-writer: node i owns items with item % n == i, so
    // schedules are conflict-free and the expected final value is the last
    // write. Track it to assert convergence against ground truth.
    let mut expected: Vec<Vec<u8>> = vec![Vec::new(); n_items];
    let mut double_oobs = 0u64;

    for _round in 0..rounds {
        for _ in 0..updates_per_round {
            let node = rng.gen_range(0..n_nodes);
            let slot = rng.gen_range(0..n_items.div_ceil(n_nodes));
            let item = node + slot * n_nodes;
            if item >= n_items {
                continue;
            }
            // Mix inline values with ones large enough to travel as shared
            // payload segments.
            let len = if rng.gen_bool(0.25) { 200 } else { rng.gen_range(1..48usize) };
            let byte = rng.gen_range(0..=255u64) as u8;
            let value = vec![byte; len];
            expected[item] = value.clone();
            runtime.update(NodeId::from_index(node), ItemId(item as u32), value);
        }

        // Every node pulls from one random peer, through its chaos link.
        for (r, row) in links.iter_mut().enumerate() {
            let mut s = rng.gen_range(0..n_nodes);
            if s == r {
                s = (s + 1) % n_nodes;
            }
            let link = row[s].as_mut().expect("distinct pair");
            let _ = runtime.pull_chaos(NodeId::from_index(r), NodeId::from_index(s), link, &policy);
        }

        // Occasionally fetch a hot item out-of-bound — twice: the second
        // fetch is already current at the recipient and must be counted as
        // a redundant delivery.
        if rng.gen_bool(0.5) {
            let item = rng.gen_range(0..n_items);
            let source = item % n_nodes;
            let mut recipient = rng.gen_range(0..n_nodes);
            if recipient == source {
                recipient = (recipient + 1) % n_nodes;
            }
            let (recipient, source) = (NodeId::from_index(recipient), NodeId::from_index(source));
            runtime.oob(recipient, source, ItemId(item as u32));
            runtime.oob(recipient, source, ItemId(item as u32));
            double_oobs += 1;
        }
    }

    // Heal every link, then sweep full-mesh pulls until quiescent.
    for row in &mut links {
        for link in row.iter_mut().flatten() {
            link.set_plan(FaultPlan::none());
        }
    }
    let mut heal_sweeps = 0;
    while heal_sweeps < MAX_HEAL_SWEEPS {
        heal_sweeps += 1;
        for (r, row) in links.iter_mut().enumerate() {
            for (s, link) in row.iter_mut().enumerate() {
                let Some(link) = link.as_mut() else { continue };
                runtime
                    .pull_chaos(NodeId::from_index(r), NodeId::from_index(s), link, &policy)
                    .expect("healed pull must succeed");
            }
        }
        if runtime.converged() {
            break;
        }
    }

    assert!(runtime.converged(), "soak did not converge after {MAX_HEAL_SWEEPS} sweeps");
    for (item, want) in expected.iter().enumerate() {
        for node in 0..n_nodes {
            let got = runtime.value(NodeId::from_index(node), ItemId(item as u32));
            assert_eq!(&got, want, "node {node} disagrees on item {item} after convergence");
        }
    }
    runtime.check_invariants(n_nodes);

    SoakResult { costs: runtime.costs(n_nodes), stats: sum_stats(&links), heal_sweeps, double_oobs }
}

// --- the restart-from-disk soak ---------------------------------------------

struct RestartResult<C = Costs> {
    costs: C,
    crashes: u64,
    revivals: u64,
    heal_sweeps: usize,
}

/// Run one restart soak: randomized single-writer updates, pulls and OOB
/// fetches among alive nodes, with a seeded kill/restart schedule on top.
/// Crashing really drops a node's in-memory replica; reviving recovers it
/// from its WAL + snapshot. Deterministic in `(seed, params)`.
fn run_restart_soak(runtime: &mut AsyncTcp, seed: u64, params: SoakParams) -> RestartResult {
    let SoakParams { n_nodes, n_items, rounds, updates_per_round } = params;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C_0D1E);
    let mut alive = vec![true; n_nodes];
    let mut expected: Vec<Vec<u8>> = vec![Vec::new(); n_items];
    let mut crashes = 0u64;
    let mut revivals = 0u64;

    let pick = |rng: &mut StdRng, pool: &[usize]| -> usize { pool[rng.gen_range(0..pool.len())] };
    let alive_nodes =
        |alive: &[bool]| -> Vec<usize> { (0..n_nodes).filter(|&i| alive[i]).collect() };

    for _round in 0..rounds {
        // Maybe revive one crashed node (recovering it from disk mid-soak).
        let crashed: Vec<usize> = (0..n_nodes).filter(|&i| !alive[i]).collect();
        if !crashed.is_empty() && rng.gen_bool(0.4) {
            let node = pick(&mut rng, &crashed);
            runtime.0.revive(NodeId::from_index(node));
            alive[node] = true;
            revivals += 1;
        }
        // Maybe crash one alive node, keeping at least two up so
        // anti-entropy always has a pair to run on. The first crash is
        // unconditional: every seed exercises real kill/restart recovery.
        let up = alive_nodes(&alive);
        if up.len() > 2 && (crashes == 0 || rng.gen_bool(0.35)) {
            let node = pick(&mut rng, &up);
            runtime.0.crash(NodeId::from_index(node));
            alive[node] = false;
            crashes += 1;
        }

        // Single-writer updates at alive owners (item % n_nodes == owner),
        // so the expected final value of each item is its last write.
        let up = alive_nodes(&alive);
        for _ in 0..updates_per_round {
            let node = pick(&mut rng, &up);
            let slot = rng.gen_range(0..n_items.div_ceil(n_nodes));
            let item = node + slot * n_nodes;
            if item >= n_items {
                continue;
            }
            let len = if rng.gen_bool(0.25) { 200 } else { rng.gen_range(1..48usize) };
            let byte = rng.gen_range(0..=255u64) as u8;
            let value = vec![byte; len];
            expected[item] = value.clone();
            runtime.update(NodeId::from_index(node), ItemId(item as u32), value);
        }

        // Every alive node pulls from one random alive peer.
        for &r in &up {
            let others: Vec<usize> = up.iter().copied().filter(|&s| s != r).collect();
            let s = pick(&mut rng, &others);
            runtime
                .0
                .pull_delta_now(NodeId::from_index(r), NodeId::from_index(s))
                .expect("pull between alive nodes must succeed");
        }

        // Occasionally fetch an item out-of-bound from its (alive) owner.
        if rng.gen_bool(0.4) {
            let node = pick(&mut rng, &up);
            let slot = rng.gen_range(0..n_items.div_ceil(n_nodes));
            let item = node + slot * n_nodes;
            let others: Vec<usize> = up.iter().copied().filter(|&s| s != node).collect();
            let recipient = pick(&mut rng, &others);
            if item < n_items {
                runtime.oob(
                    NodeId::from_index(recipient),
                    NodeId::from_index(node),
                    ItemId(item as u32),
                );
            }
        }
    }

    // Revive everyone (each recovering from its own disk), then sweep
    // full-mesh pulls until quiescent.
    for (node, up) in alive.iter_mut().enumerate() {
        if !*up {
            runtime.0.revive(NodeId::from_index(node));
            *up = true;
            revivals += 1;
        }
    }
    let mut heal_sweeps = 0;
    while heal_sweeps < MAX_HEAL_SWEEPS {
        heal_sweeps += 1;
        for r in 0..n_nodes {
            for s in 0..n_nodes {
                if s != r {
                    runtime
                        .0
                        .pull_delta_now(NodeId::from_index(r), NodeId::from_index(s))
                        .expect("post-recovery pull must succeed");
                }
            }
        }
        if runtime.converged() {
            break;
        }
    }

    assert!(runtime.converged(), "restart soak did not converge after {MAX_HEAL_SWEEPS} sweeps");
    for (item, want) in expected.iter().enumerate() {
        for node in 0..n_nodes {
            let got = runtime.value(NodeId::from_index(node), ItemId(item as u32));
            assert_eq!(
                &got, want,
                "node {node} disagrees on item {item} after crash-restart recovery"
            );
        }
    }
    runtime.check_invariants(n_nodes);

    RestartResult { costs: runtime.costs(n_nodes), crashes, revivals, heal_sweeps }
}

/// Reactor worker pools the restart soak runs on: the default size and a
/// pool wider than the cluster, so the same schedule is served by
/// different thread interleavings and must still charge the same costs.
const RESTART_WORKERS: [usize; 2] = [2, 8];

/// Build one durable socket cluster journaling under `dir` (fresh per
/// pass), served by `workers` reactor threads.
fn build_durable_runtime(workers: usize, params: SoakParams, dir: PathBuf) -> AsyncTcp {
    let config = AsyncTcpConfig {
        base: TcpConfig { durability: Some(DurabilityConfig::new(dir)), ..tcp_config() },
        worker_threads: workers,
    };
    AsyncTcp(AsyncTcpCluster::spawn(params.n_nodes, params.n_items, config).expect("spawn"))
}

/// The `--restart-from-disk` mode: the durable socket runtime on each
/// worker pool, two same-seed passes each (fresh directories per pass),
/// asserting identical costs across passes and across pools.
fn run_restart_mode(seed: u64, params: SoakParams) {
    let mut reference: Option<Costs> = None;
    for workers in RESTART_WORKERS {
        let leg = format!("tcp/{workers}w+disk");
        let mut first: Option<Costs> = None;
        for pass in 0..2 {
            let tmp = epidb_durable::testdir::TempDir::new(&format!("soak-{workers}w-{pass}"));
            let mut runtime = build_durable_runtime(workers, params, tmp.path().clone());
            assert_eq!(runtime.0.worker_threads(), workers);
            let result = run_restart_soak(&mut runtime, seed, params);
            drop(runtime);

            if pass == 0 {
                println!(
                    "[{leg}] crashes={} revivals={} heal_sweeps={}",
                    result.crashes, result.revivals, result.heal_sweeps
                );
                println!("[{leg}] costs: {}", result.costs);
            }
            match &first {
                None => first = Some(result.costs),
                Some(c0) => {
                    assert_eq!(c0, &result.costs, "[{leg}] same seed produced different costs");
                    println!("[{leg}] replay: identical costs");
                }
            }
        }
        assert_parity(&mut reference, first.expect("two passes ran"), &leg);
    }
    println!("OK: durable runtime converged to ground truth across crash-restart schedules");
}

// --- the sharded soak -------------------------------------------------------

/// Fixed sharded topology for the soak: two replica groups of two nodes
/// each, each group owning one disjoint shard. Nodes serve and gossip
/// only their own shard; the occasional cross-group fetch routes through
/// the shard map.
const SHARDED_NODES: usize = 4;

fn sharded_map(items_per_shard: usize) -> ShardMap {
    ShardMap::new(items_per_shard, vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]])
}

/// The slice of each sharded runtime the soak drives: globally addressed
/// updates, per-shard chaos pulls among co-owners, out-of-bound fetches
/// (within-group adoptions and cross-group copies), and inspection.
trait ShardedSoakRuntime {
    fn update(&mut self, node: NodeId, item: ItemId, value: Vec<u8>);
    fn pull_shard_chaos(
        &mut self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
        link: &mut ChaosLink,
        policy: &RetryPolicy,
    ) -> epidb_common::Result<PullOutcome>;
    fn oob(&mut self, recipient: NodeId, source: NodeId, item: ItemId);
    fn value(&self, node: NodeId, item: ItemId) -> Vec<u8>;
    fn node_costs(&self, node: NodeId) -> Costs;
    fn converged(&self) -> bool;
    fn audits(&self) -> u64;
    fn check_invariants(&self);
}

struct ShardedInProc(ShardedSimCluster);

impl ShardedSoakRuntime for ShardedInProc {
    fn update(&mut self, node: NodeId, item: ItemId, value: Vec<u8>) {
        self.0.update(node, item, UpdateOp::set(value)).expect("update at shard owner");
    }
    fn pull_shard_chaos(
        &mut self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
        link: &mut ChaosLink,
        policy: &RetryPolicy,
    ) -> epidb_common::Result<PullOutcome> {
        self.0.pull_shard_chaos(recipient, source, shard, link, policy)
    }
    fn oob(&mut self, recipient: NodeId, source: NodeId, item: ItemId) {
        self.0.oob(recipient, source, item).expect("oob");
    }
    fn value(&self, node: NodeId, item: ItemId) -> Vec<u8> {
        self.0.read(node, item).expect("read at shard owner")
    }
    fn node_costs(&self, node: NodeId) -> Costs {
        self.0.node_costs(node)
    }
    fn converged(&self) -> bool {
        self.0.converged()
    }
    fn audits(&self) -> u64 {
        self.0.paranoid_audits_total()
    }
    fn check_invariants(&self) {
        self.0.assert_invariants();
    }
}

struct ShardedTcp(ShardedTcpCluster);

impl ShardedSoakRuntime for ShardedTcp {
    fn update(&mut self, node: NodeId, item: ItemId, value: Vec<u8>) {
        self.0.update(node, item, UpdateOp::set(value)).expect("update at shard owner");
    }
    fn pull_shard_chaos(
        &mut self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
        link: &mut ChaosLink,
        policy: &RetryPolicy,
    ) -> epidb_common::Result<PullOutcome> {
        self.0.pull_shard_now_chaos(recipient, source, shard, link, policy)
    }
    fn oob(&mut self, recipient: NodeId, source: NodeId, item: ItemId) {
        self.0.oob_fetch(recipient, source, item).expect("oob");
    }
    fn value(&self, node: NodeId, item: ItemId) -> Vec<u8> {
        self.0.read(node, item).expect("read at shard owner")
    }
    fn node_costs(&self, node: NodeId) -> Costs {
        self.0.node_costs(node)
    }
    fn converged(&self) -> bool {
        self.0.is_quiescent()
    }
    fn audits(&self) -> u64 {
        (0..SHARDED_NODES)
            .map(|i| self.0.with_node(NodeId::from_index(i), ShardedNode::audits_run))
            .sum()
    }
    fn check_invariants(&self) {
        for i in 0..SHARDED_NODES {
            self.0
                .with_node(NodeId::from_index(i), check_sharded_node)
                .unwrap_or_else(|e| panic!("invariant violated at node {i}: {e}"));
        }
    }
}

fn check_sharded_node(node: &ShardedNode) -> Result<(), String> {
    if node.conflicts_declared() == 0 {
        node.check_invariants_clean()
    } else {
        node.check_invariants()
    }
}

struct ShardedSoakResult {
    node_costs: Vec<Costs>,
    stats: ChaosStats,
    heal_sweeps: usize,
    double_oobs: u64,
}

/// Run one sharded soak: single-writer updates across both groups,
/// per-shard chaos pulls among co-owners, within-group duplicate OOB
/// fetches and cross-group copies, then heal and converge per shard.
/// Deterministic in `(seed, plan, params)`.
fn run_sharded_soak(
    runtime: &mut dyn ShardedSoakRuntime,
    map: &ShardMap,
    seed: u64,
    plan: &FaultPlan,
    params: SoakParams,
) -> ShardedSoakResult {
    let SoakParams { n_items, rounds, updates_per_round, .. } = params;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AA2_D50A);
    let policy = retry_policy();

    // One persistent chaos link per directed co-owner pair per shard —
    // gossip only ever flows within a replica group.
    let mut links: Vec<(NodeId, NodeId, ShardId, ChaosLink)> = Vec::new();
    for shard in ShardId::all(map.n_shards()) {
        let owners = map.owners(shard).to_vec();
        for &r in &owners {
            for &s in &owners {
                if r != s {
                    let link_seed = seed.wrapping_add(
                        ((r.index() * SHARDED_NODES + s.index()) as u64)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    links.push((r, s, shard, ChaosLink::new(link_seed, plan.clone())));
                }
            }
        }
    }

    // Single writer per item: the owners of its shard take turns by local
    // index, so schedules are conflict-free and the expected final value
    // is the last write.
    let writer_of = |item: usize| -> NodeId {
        let id = ItemId(item as u32);
        let owners = map.owners(map.shard_of(id).expect("item in universe"));
        owners[map.local_item(id).index() % owners.len()]
    };
    let mut expected: Vec<Vec<u8>> = vec![Vec::new(); n_items];
    let mut double_oobs = 0u64;

    for _round in 0..rounds {
        for _ in 0..updates_per_round {
            let item = rng.gen_range(0..n_items);
            let len = if rng.gen_bool(0.25) { 200 } else { rng.gen_range(1..48usize) };
            let byte = rng.gen_range(0..=255u64) as u8;
            let value = vec![byte; len];
            expected[item] = value.clone();
            runtime.update(writer_of(item), ItemId(item as u32), value);
        }

        // Each co-owner pair pulls its shard through its chaos link.
        for (r, s, shard, link) in &mut links {
            let _ = runtime.pull_shard_chaos(*r, *s, *shard, link, &policy);
        }

        // Occasionally fetch a hot item out-of-bound within its group —
        // twice, so the second fetch must register as a redundant
        // delivery — and occasionally copy one across groups.
        if rng.gen_bool(0.5) {
            let item = rng.gen_range(0..n_items);
            let source = writer_of(item);
            let owners = map.owners(map.shard_of(ItemId(item as u32)).unwrap());
            let recipient = *owners.iter().find(|&&n| n != source).expect("two owners per shard");
            runtime.oob(recipient, source, ItemId(item as u32));
            runtime.oob(recipient, source, ItemId(item as u32));
            double_oobs += 1;
        }
        if rng.gen_bool(0.25) {
            let item = rng.gen_range(0..n_items);
            let source = writer_of(item);
            // A node from the *other* group: cross-group, via the map.
            let stranger = NodeId::from_index((source.index() + 2) % SHARDED_NODES);
            runtime.oob(stranger, source, ItemId(item as u32));
        }
    }

    // Heal every link, then sweep per-shard co-owner pulls until every
    // shard has converged across its group.
    for (_, _, _, link) in &mut links {
        link.set_plan(FaultPlan::none());
    }
    let mut heal_sweeps = 0;
    while heal_sweeps < MAX_HEAL_SWEEPS {
        heal_sweeps += 1;
        for (r, s, shard, link) in &mut links {
            runtime
                .pull_shard_chaos(*r, *s, *shard, link, &policy)
                .expect("healed pull must succeed");
        }
        if runtime.converged() {
            break;
        }
    }

    assert!(runtime.converged(), "sharded soak did not converge after {MAX_HEAL_SWEEPS} sweeps");
    for (item, want) in expected.iter().enumerate() {
        let shard = map.shard_of(ItemId(item as u32)).unwrap();
        for &owner in map.owners(shard) {
            let got = runtime.value(owner, ItemId(item as u32));
            assert_eq!(
                &got, want,
                "owner {owner} disagrees on item {item} after per-shard convergence"
            );
        }
    }
    runtime.check_invariants();
    assert!(runtime.audits() > 0, "paranoid audits must have run");

    let mut stats = ChaosStats::default();
    for (_, _, _, link) in &links {
        let s = link.stats;
        stats.exchanges += s.exchanges;
        stats.lost_requests += s.lost_requests;
        stats.lost_responses += s.lost_responses;
        stats.duplicated += s.duplicated;
        stats.reordered += s.reordered;
        stats.redelivered += s.redelivered;
        stats.corrupted += s.corrupted;
        stats.resets += s.resets;
        stats.partitioned += s.partitioned;
        stats.delivered += s.delivered;
    }
    let node_costs =
        (0..SHARDED_NODES).map(|i| runtime.node_costs(NodeId::from_index(i))).collect();
    ShardedSoakResult { node_costs, stats, heal_sweeps, double_oobs }
}

fn build_sharded_runtime(kind: &str, map: &ShardMap) -> Box<dyn ShardedSoakRuntime> {
    match kind {
        "inproc" => {
            let mut c = ShardedSimCluster::new(map.clone(), SHARDED_NODES);
            c.set_paranoid(true);
            Box::new(ShardedInProc(c))
        }
        "tcp" => {
            let config = ShardedConfig {
                gossip_interval: Duration::from_secs(3600),
                paranoid: true,
                ..ShardedConfig::default()
            };
            Box::new(ShardedTcp(
                ShardedTcpCluster::spawn(map.clone(), SHARDED_NODES, config).expect("spawn"),
            ))
        }
        other => panic!("unknown sharded runtime {other}"),
    }
}

/// The `--sharded` mode: both sharded runtimes, two same-seed passes
/// each, asserting per-node cost/fault determinism per runtime and
/// byte-identical per-node costs *across* runtimes.
fn run_sharded_mode(seed: u64, plan: &FaultPlan, params: SoakParams) {
    let map = sharded_map(params.n_items.div_ceil(2));
    let params = SoakParams { n_nodes: SHARDED_NODES, n_items: map.n_items(), ..params };
    let mut reference: Option<Vec<Costs>> = None;

    for kind in RUNTIMES {
        let mut first: Option<(Vec<Costs>, ChaosStats)> = None;
        for pass in 0..2 {
            let mut runtime = build_sharded_runtime(kind, &map);
            let result = run_sharded_soak(runtime.as_mut(), &map, seed, plan, params);
            drop(runtime);

            let s = result.stats;
            if pass == 0 {
                println!(
                    "[{kind}+sharded] exchanges={} delivered={} faults={} heal_sweeps={}",
                    s.exchanges,
                    s.delivered,
                    s.faults(),
                    result.heal_sweeps
                );
                for (i, c) in result.node_costs.iter().enumerate() {
                    println!("[{kind}+sharded] node {i} costs: {c}");
                }
            }

            let total = result.node_costs.iter().fold(Costs::ZERO, |a, b| a + *b);
            assert_eq!(
                total.corrupt_frames_dropped, s.corrupted,
                "[{kind}+sharded] corrupt frame accounting mismatch"
            );
            if s.faults() > s.duplicated {
                assert!(
                    total.retries > 0,
                    "[{kind}+sharded] faults occurred but no retries were counted"
                );
            }
            assert!(
                total.redundant_deliveries >= result.double_oobs,
                "[{kind}+sharded] duplicate OOB fetches must count as redundant deliveries"
            );

            match &first {
                None => first = Some((result.node_costs, s)),
                Some((c0, s0)) => {
                    assert_eq!(
                        c0, &result.node_costs,
                        "[{kind}+sharded] same seed produced different per-node costs"
                    );
                    assert_eq!(
                        s0, &s,
                        "[{kind}+sharded] same seed produced different fault sequence"
                    );
                    println!("[{kind}+sharded] replay: identical per-node costs and faults");
                }
            }
        }

        // Partial replication parity: every runtime charges every node
        // byte-identically for the same sharded schedule.
        let (costs, _) = first.expect("two passes ran");
        assert_parity(&mut reference, costs, &format!("{kind}+sharded"));
    }
    println!("OK: sharded runtimes converged per shard under chaos; per-node parity held");
}

/// Cross-runtime parity: the first runtime's costs become the reference,
/// and every later runtime must charge exactly the same.
fn assert_parity<C: PartialEq + std::fmt::Debug>(reference: &mut Option<C>, costs: C, leg: &str) {
    match reference {
        None => *reference = Some(costs),
        Some(r) => {
            assert_eq!(*r, costs, "[{leg}] costs diverge from the first runtime's");
            println!("[{leg}] parity: costs identical across runtimes");
        }
    }
}

// --- the sharded restart soak -----------------------------------------------

/// The `--sharded --restart-from-disk` soak: the restart schedule of
/// [`run_restart_soak`] on the durable sharded socket cluster. Per round:
/// maybe revive a crashed node, maybe crash a node whose group is
/// otherwise up, single-writer updates at each item's (alive) writer,
/// per-shard delta pulls between alive co-owners, and now and then an
/// out-of-bound fetch within a group and one across groups. Then every
/// node is revived from its own disk and the shards heal. Deterministic
/// in `(seed, params)`; returns each node's costs.
fn run_sharded_restart_soak(
    cluster: &ShardedTcpCluster,
    map: &ShardMap,
    seed: u64,
    params: SoakParams,
) -> RestartResult<Vec<Costs>> {
    let SoakParams { n_items, rounds, updates_per_round, .. } = params;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C_5AAD);
    let mut alive = [true; SHARDED_NODES];
    let mut expected: Vec<Vec<u8>> = vec![Vec::new(); n_items];
    let (mut crashes, mut revivals) = (0u64, 0u64);
    let node = NodeId::from_index;
    // Groups are {0, 1} and {2, 3}: a node's co-owner is `n ^ 1`.
    let writer_of = |item: usize| -> NodeId {
        let id = ItemId(item as u32);
        let owners = map.owners(map.shard_of(id).expect("item in universe"));
        owners[map.local_item(id).index() % owners.len()]
    };

    for _round in 0..rounds {
        let crashed: Vec<usize> = (0..SHARDED_NODES).filter(|&i| !alive[i]).collect();
        if !crashed.is_empty() && rng.gen_bool(0.4) {
            let n = crashed[rng.gen_range(0..crashed.len())];
            cluster.revive(node(n));
            alive[n] = true;
            revivals += 1;
        }
        // Crash a node only while its co-owner is up, so every shard keeps
        // an owner. The first crash is unconditional.
        let crashable: Vec<usize> =
            (0..SHARDED_NODES).filter(|&i| alive[i] && alive[i ^ 1]).collect();
        if !crashable.is_empty() && (crashes == 0 || rng.gen_bool(0.35)) {
            let n = crashable[rng.gen_range(0..crashable.len())];
            cluster.crash(node(n));
            alive[n] = false;
            crashes += 1;
        }

        for _ in 0..updates_per_round {
            let item = rng.gen_range(0..n_items);
            let len = if rng.gen_bool(0.25) { 200 } else { rng.gen_range(1..48usize) };
            let value = vec![rng.gen_range(0..=255u64) as u8; len];
            if alive[writer_of(item).index()] {
                cluster
                    .update(writer_of(item), ItemId(item as u32), UpdateOp::set(value.clone()))
                    .expect("update at an alive writer");
                expected[item] = value;
            }
        }

        for shard in ShardId::all(map.n_shards()) {
            for &r in map.owners(shard) {
                let s = node(r.index() ^ 1);
                if alive[r.index()] && alive[s.index()] {
                    cluster
                        .pull_delta_shard_now(r, s, shard)
                        .expect("pull between alive co-owners must succeed");
                }
            }
        }

        if rng.gen_bool(0.4) {
            let item = rng.gen_range(0..n_items);
            let (source, stranger) = (writer_of(item), rng.gen_range(0..SHARDED_NODES));
            let recipient =
                if rng.gen_bool(0.5) { node(source.index() ^ 1) } else { node(stranger) };
            if recipient != source && alive[recipient.index()] && alive[source.index()] {
                cluster.oob_fetch(recipient, source, ItemId(item as u32)).expect("oob");
            }
        }
    }

    for (n, up) in alive.iter_mut().enumerate() {
        if !*up {
            cluster.revive(node(n));
            *up = true;
            revivals += 1;
        }
    }
    let converged = || cluster.is_quiescent();
    let mut heal_sweeps = 0;
    while heal_sweeps < MAX_HEAL_SWEEPS {
        heal_sweeps += 1;
        for shard in ShardId::all(map.n_shards()) {
            for &r in map.owners(shard) {
                cluster
                    .pull_delta_shard_now(r, node(r.index() ^ 1), shard)
                    .expect("post-recovery pull must succeed");
            }
        }
        if converged() {
            break;
        }
    }

    assert!(converged(), "sharded restart soak did not converge after {MAX_HEAL_SWEEPS} sweeps");
    for (item, want) in expected.iter().enumerate() {
        let id = ItemId(item as u32);
        for &owner in map.owners(map.shard_of(id).expect("item in universe")) {
            let got = cluster.read(owner, id).expect("read at a shard owner");
            assert_eq!(&got, want, "owner {owner} disagrees on item {item} after recovery");
        }
    }
    for i in 0..SHARDED_NODES {
        cluster
            .with_node(node(i), check_sharded_node)
            .unwrap_or_else(|e| panic!("invariant violated at node {i}: {e}"));
    }
    let costs = (0..SHARDED_NODES).map(|i| cluster.node_costs(node(i))).collect();
    RestartResult { costs, crashes, revivals, heal_sweeps }
}

/// The `--sharded --restart-from-disk` mode: two same-seed passes of the
/// sharded restart soak, each on fresh directories, asserting identical
/// per-node costs.
fn run_sharded_restart_mode(seed: u64, params: SoakParams) {
    let map = sharded_map(params.n_items.div_ceil(2));
    let params = SoakParams { n_nodes: SHARDED_NODES, n_items: map.n_items(), ..params };
    let leg = "tcp+sharded+disk";
    let mut first: Option<Vec<Costs>> = None;
    for pass in 0..2 {
        let tmp = epidb_durable::testdir::TempDir::new(&format!("soak-sharded-{pass}"));
        let mut durability = DurabilityConfig::new(tmp.path().clone());
        // Checkpoints on the way: recovery is snapshots plus a WAL tail.
        durability.checkpoint_every = 32;
        let config = TcpConfig { durability: Some(durability), ..tcp_config() };
        let cluster = ShardedTcpCluster::spawn(map.clone(), SHARDED_NODES, config).expect("spawn");
        let result = run_sharded_restart_soak(&cluster, &map, seed, params);
        cluster.shutdown();
        if pass == 0 {
            println!(
                "[{leg}] crashes={} revivals={} heal_sweeps={}",
                result.crashes, result.revivals, result.heal_sweeps
            );
            for (i, c) in result.costs.iter().enumerate() {
                println!("[{leg}] node {i} costs: {c}");
            }
        }
        match &first {
            None => first = Some(result.costs),
            Some(c0) => {
                assert_eq!(c0, &result.costs, "[{leg}] same seed produced different costs");
                println!("[{leg}] replay: identical per-node costs");
            }
        }
    }
    println!(
        "OK: durable sharded runtime converged to ground truth across crash-restart schedules"
    );
}

// --- runtime construction ---------------------------------------------------

const RUNTIMES: [&str; 2] = ["inproc", "tcp"];

/// The socket runtime's knobs: gossip out of the way (the soak drives
/// every exchange itself), delta mode, paranoid audits.
fn tcp_config() -> TcpConfig {
    TcpConfig {
        gossip_interval: Duration::from_secs(3600),
        delta_budget: DELTA_BUDGET,
        paranoid: true,
        ..TcpConfig::default()
    }
}

fn build_runtime(kind: &str, params: SoakParams) -> Box<dyn SoakRuntime> {
    match kind {
        "inproc" => {
            let mut c = EpidbCluster::new(params.n_nodes, params.n_items);
            c.enable_delta(DELTA_BUDGET);
            c.set_paranoid(true);
            Box::new(InProc(c))
        }
        "tcp" => {
            let config = AsyncTcpConfig { base: tcp_config(), worker_threads: 2 };
            Box::new(AsyncTcp(
                AsyncTcpCluster::spawn(params.n_nodes, params.n_items, config).expect("spawn"),
            ))
        }
        other => panic!("unknown runtime {other}"),
    }
}

// --- main -------------------------------------------------------------------

fn main() {
    let mut smoke = false;
    let mut restart_from_disk = false;
    let mut sharded = false;
    let mut seed: Option<u64> = None;
    let mut rounds: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--restart-from-disk" => restart_from_disk = true,
            "--sharded" => sharded = true,
            "--seed" => {
                let v = args.next().expect("--seed needs a value");
                seed = Some(v.parse().expect("--seed takes a u64"));
            }
            "--rounds" => {
                let v = args.next().expect("--rounds needs a value");
                rounds = Some(v.parse().expect("--rounds takes a usize"));
            }
            other => {
                eprintln!("unknown argument {other}");
                eprintln!(
                    "usage: chaos_soak [--smoke] [--seed N] [--rounds N] [--restart-from-disk] \
                     [--sharded]"
                );
                std::process::exit(2);
            }
        }
    }

    let seed = seed.unwrap_or_else(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0xC0FFEE)
    });
    let mut params = if smoke { SMOKE } else { FULL };
    if let Some(r) = rounds {
        params.rounds = r;
    }

    if restart_from_disk && sharded {
        println!(
            "chaos_soak --sharded --restart-from-disk: seed={seed} (replay with --seed {seed})"
        );
        println!(
            "params: 2 groups x 2 nodes, shards=2 items/shard={} rounds={} updates/round={}{}",
            params.n_items.div_ceil(2),
            params.rounds,
            params.updates_per_round,
            if smoke { " (smoke)" } else { "" }
        );
        run_sharded_restart_mode(seed, params);
        return;
    }
    if restart_from_disk {
        println!("chaos_soak --restart-from-disk: seed={seed} (replay with --seed {seed})");
        println!(
            "params: nodes={} items={} rounds={} updates/round={}{}",
            params.n_nodes,
            params.n_items,
            params.rounds,
            params.updates_per_round,
            if smoke { " (smoke)" } else { "" }
        );
        run_restart_mode(seed, params);
        return;
    }

    let plan = derive_plan(&mut StdRng::seed_from_u64(seed));
    if sharded {
        println!("chaos_soak --sharded: seed={seed} (replay with --seed {seed})");
        println!(
            "params: 2 groups x 2 nodes, shards=2 items/shard={} rounds={} updates/round={}{}",
            params.n_items.div_ceil(2),
            params.rounds,
            params.updates_per_round,
            if smoke { " (smoke)" } else { "" }
        );
        run_sharded_mode(seed, &plan, params);
        return;
    }
    println!("chaos_soak: seed={seed} (replay with --seed {seed})");
    println!(
        "plan: loss={:.2}/{:.2} dup={:.2} reorder={:.2} corrupt={:.2} reset={:.2} partitions={}",
        plan.request_loss,
        plan.response_loss,
        plan.duplication,
        plan.reorder,
        plan.corruption,
        plan.reset,
        plan.partitions.len()
    );
    println!(
        "params: nodes={} items={} rounds={} updates/round={}{}",
        params.n_nodes,
        params.n_items,
        params.rounds,
        params.updates_per_round,
        if smoke { " (smoke)" } else { "" }
    );

    let mut reference: Option<Costs> = None;
    for kind in RUNTIMES {
        // Two identical runs: the soak must be a pure function of the seed.
        let mut first: Option<(Costs, ChaosStats)> = None;
        for pass in 0..2 {
            let mut runtime = build_runtime(kind, params);
            let result = run_soak(runtime.as_mut(), seed, &plan, params);
            drop(runtime);

            let s = result.stats;
            let c = result.costs;
            if pass == 0 {
                println!(
                    "[{kind}] exchanges={} delivered={} faults={} (lost={}/{} dup={} reorder={} \
                     corrupt={} reset={} partitioned={}) heal_sweeps={}",
                    s.exchanges,
                    s.delivered,
                    s.faults(),
                    s.lost_requests,
                    s.lost_responses,
                    s.duplicated,
                    s.reordered,
                    s.corrupted,
                    s.resets,
                    s.partitioned,
                    result.heal_sweeps
                );
                println!("[{kind}] costs: {c}");
            }

            // Accounting: every injected corruption was dropped and
            // counted at a replica; errors forced retries; duplicate OOB
            // fetches registered as redundant deliveries.
            assert_eq!(
                c.corrupt_frames_dropped, s.corrupted,
                "[{kind}] corrupt frame accounting mismatch"
            );
            if s.faults() > s.duplicated {
                assert!(c.retries > 0, "[{kind}] faults occurred but no retries were counted");
            }
            assert!(
                c.redundant_deliveries >= result.double_oobs,
                "[{kind}] duplicate OOB fetches must count as redundant deliveries"
            );

            match &first {
                None => first = Some((c, s)),
                Some((c0, s0)) => {
                    assert_eq!(c0, &c, "[{kind}] same seed produced different costs");
                    assert_eq!(s0, &s, "[{kind}] same seed produced different fault sequence");
                    println!("[{kind}] replay: identical costs and fault sequence");
                }
            }
        }
        assert_parity(&mut reference, first.expect("two passes ran").0, kind);
    }

    println!(
        "OK: both runtimes converged under chaos; accounting, replay and parity checks passed"
    );
}
