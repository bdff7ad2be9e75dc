//! The runtimes under test, behind the few operations a cycle needs. Each
//! fabric is the product's own cluster type, driven only through its
//! public API: the benchmark issues every round itself (`pull_now`,
//! `pull_shard_now`, `oob_fetch`) and the clusters' gossip timers are set
//! to an hour, so nothing runs that the driver did not ask for.

use std::path::Path;
use std::time::Duration;

use epidb_baselines::SyncProtocol;
use epidb_common::{Costs, ItemId, NodeId, ShardId};
use epidb_core::{OobOutcome, ProtocolRequest, PullOutcome, Replica, ShardMap, ShardedOob};
use epidb_durable::{DurabilityConfig, GroupCommitStats};
use epidb_net::{
    AsyncTcpCluster, AsyncTcpConfig, ShardedConfig, ShardedTcpCluster, TcpConfig, TcpTransport,
};
use epidb_sim::EpidbCluster;
use epidb_store::{ItemValue, UpdateOp};
use epidb_vv::{DbVersionVector, VvOrd};

use crate::input::{Inputs, Update};
use crate::spec::{Fabric as Kind, Shape, Workload, SHARDS};

/// Gossip timers never fire inside a run.
const NO_GOSSIP: Duration = Duration::from_secs(3600);

/// How one anti-entropy round ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoundEnd {
    /// The source answered "you are current".
    UpToDate,
    /// This many items were copied.
    Copied(usize),
    /// The round returned an error.
    Failed,
}

impl From<epidb_common::Result<PullOutcome>> for RoundEnd {
    fn from(out: epidb_common::Result<PullOutcome>) -> RoundEnd {
        match out {
            Ok(PullOutcome::UpToDate) => RoundEnd::UpToDate,
            Ok(PullOutcome::Propagated(o)) => RoundEnd::Copied(o.copied.len()),
            Err(_) => RoundEnd::Failed,
        }
    }
}

/// Counters a fabric with a `GroupWal` reports beside `Costs`.
#[derive(Clone, Copy, Default, Debug)]
pub struct DurableCounts {
    pub commit: GroupCommitStats,
    pub open_connections: usize,
    pub worker_threads: usize,
}

/// The operations of one cycle. Batch-level where a step is timed whole.
pub trait Fabric {
    /// Step 1: apply every update at `origin` through the runtime's
    /// `update` (which returns only once the update is durable). Returns
    /// how many were refused.
    fn write(&mut self, origin: usize, batch: &[Update]) -> u64;

    /// Read every item of `batch` at `node` and compare byte for byte.
    /// Returns how many differed or could not be read.
    fn verify(&mut self, node: usize, batch: &[Update]) -> u64;

    /// Out-of-bound fetch of `item` at `recipient` from `source`. `true`
    /// when the exchange completed (adopted or already current).
    fn oob(&mut self, recipient: usize, source: usize, item: ItemId) -> bool;

    /// One anti-entropy round, `recipient` pulling from `source` (one
    /// shard of it on the sharded fabric).
    fn round(&mut self, recipient: usize, source: usize, shard: Option<ShardId>) -> RoundEnd;

    /// Crash / revive a node (catch-up workload).
    fn crash(&mut self, node: usize);
    fn revive(&mut self, node: usize);

    /// `Costs` summed over every node, monotonic across crash and revive.
    fn costs(&self) -> Costs;

    /// `GroupWal` and reactor counters, zero where the fabric has none.
    fn durable_counts(&self) -> DurableCounts {
        DurableCounts::default()
    }

    /// Bytes in every node's current WAL generation, and the sum of those
    /// generations: the journal's growth between two calls is what the
    /// cycles between them wrote, as long as no WAL rolled. `None` where
    /// the fabric keeps no journal the bench can see.
    fn journal_bytes(&self) -> Option<(u64, u64)> {
        None
    }

    /// On a fabric over sockets: the pull request node 1 would send node 0
    /// now that both hold the same state, and a fresh product transport to
    /// node 0 — what the exchange probe of a traced run sends twice, once
    /// over a new connection and once over the warm one.
    fn idle_exchange(&self) -> Option<(ProtocolRequest, TcpTransport)> {
        None
    }

    /// End-of-pass checks: `check_invariants_clean` on every replica or
    /// shard and equal DBVVs across the owners of each.
    fn final_check(&mut self) -> Result<(), String>;
}

/// Nodes that hold `item` under workload `w`.
pub fn owners(w: &Workload, item: ItemId) -> Vec<usize> {
    match w.shape {
        Shape::Sharded => {
            let group = (item.index() / (w.items / SHARDS)) % 2;
            vec![group * 2, group * 2 + 1]
        }
        _ => (0..w.nodes).collect(),
    }
}

/// The shard map of the sharded workload: shard `s` is owned by group
/// `s % 2`, group `g` is nodes `2g` and `2g + 1`.
pub fn shard_map(w: &Workload) -> ShardMap {
    let groups = (0..SHARDS)
        .map(|s| {
            let g = (s % 2) as u16;
            vec![NodeId(2 * g), NodeId(2 * g + 1)]
        })
        .collect();
    ShardMap::new(w.items / SHARDS, groups)
}

/// The durability settings of a run: byte-triggered checkpoints only, and
/// `fsync` exactly when the directory is a tmpfs, so that no device is
/// waited on for an ack. On a tmpfs the whole journal → commit queue →
/// `write` → `sync_data` path runs and `fsyncs` are counted; elsewhere —
/// the pipeline's checkout is on a disk — the path stops short of
/// `sync_data`, `durable.on_tmpfs` reads 0 and so does
/// `durable.group.fsyncs_per_update`. (A checkpoint syncs its snapshot
/// whatever this says: the few cycles one fires in do wait on the disk.)
pub fn durability(w: &Workload, dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        checkpoint_every: 0,
        checkpoint_bytes: w.checkpoint_bytes,
        retain_generations: 1,
        fsync: crate::sys::on_tmpfs(dir),
    }
}

pub fn node(i: usize) -> NodeId {
    NodeId::from_index(i)
}

/// Apply every update of `batch` through `update`; how many were refused.
pub fn refused(
    batch: &[Update],
    mut update: impl FnMut(ItemId, UpdateOp) -> epidb_common::Result<()>,
) -> u64 {
    batch.iter().filter(|(x, v)| update(*x, UpdateOp::set(v.clone())).is_err()).count() as u64
}

/// Read every item of `batch` through `read`; how many differ from the
/// bytes written or cannot be read.
pub fn wrong<'a>(
    batch: &[Update],
    read: impl Fn(ItemId) -> epidb_common::Result<&'a ItemValue>,
) -> u64 {
    batch.iter().filter(|(x, v)| read(*x).map_or(true, |got| got.as_bytes() != &v[..])).count()
        as u64
}

/// Whether an out-of-bound exchange completed.
fn fetched(out: epidb_common::Result<OobOutcome>) -> bool {
    matches!(out, Ok(OobOutcome::Adopted { .. } | OobOutcome::AlreadyCurrent))
}

/// The end-of-pass check over the owners of one database or shard: each
/// passes `check_invariants_clean` and holds the first one's DBVV.
#[derive(Default)]
pub struct OwnerCheck(Option<DbVersionVector>);

impl OwnerCheck {
    pub fn see(&mut self, r: &Replica) -> Result<(), String> {
        r.check_invariants_clean().map_err(|e| format!("{}: {e}", r.id()))?;
        let first = self.0.get_or_insert_with(|| r.dbvv().clone());
        if r.dbvv().compare(first) != VvOrd::Equal {
            return Err(format!("{}: DBVV differs from the first owner's", r.id()));
        }
        Ok(())
    }
}

/// What a crash takes away and a revival brings back, so that `Costs` and
/// the commit counters stay monotonic over the catch-up workload: a crash
/// drops the replica (and closes its `GroupWal`), and recovery replays the
/// journal through the same entry points, which charge again.
#[derive(Default)]
pub struct CrashLedger {
    retired: Costs,
    replayed: Costs,
    commit: GroupCommitStats,
}

impl CrashLedger {
    /// Note the counters of a replica about to be dropped.
    pub fn crashed(&mut self, costs: Costs, commit: Option<GroupCommitStats>) {
        self.retired += costs;
        self.commit = self.commit(commit);
    }

    /// Note the costs a recovered replica came back with.
    pub fn revived(&mut self, costs: Costs) {
        self.replayed += costs;
    }

    /// Cumulative costs, given the sum over the live replicas.
    pub fn costs(&self, live: Costs) -> Costs {
        live + self.retired - self.replayed
    }

    /// Cumulative commit counters, given those of the live `GroupWal`s.
    pub fn commit(&self, live: impl IntoIterator<Item = GroupCommitStats>) -> GroupCommitStats {
        live.into_iter().fold(self.commit, |a, b| GroupCommitStats {
            records: a.records + b.records,
            batches: a.batches + b.batches,
            fsyncs: a.fsyncs + b.fsyncs,
        })
    }
}

// ---------------------------------------------------------------------------
// core_sim
// ---------------------------------------------------------------------------

pub struct SimFabric(EpidbCluster);

impl Fabric for SimFabric {
    fn write(&mut self, origin: usize, batch: &[Update]) -> u64 {
        refused(batch, |x, op| self.0.update(node(origin), x, op))
    }

    fn verify(&mut self, at: usize, batch: &[Update]) -> u64 {
        let r = self.0.replica(node(at));
        wrong(batch, |x| r.read(x))
    }

    fn oob(&mut self, recipient: usize, source: usize, item: ItemId) -> bool {
        fetched(self.0.oob(node(recipient), node(source), item))
    }

    fn round(&mut self, recipient: usize, source: usize, _shard: Option<ShardId>) -> RoundEnd {
        self.0.pull_pair(node(recipient), node(source)).into()
    }

    fn crash(&mut self, _node: usize) {}
    fn revive(&mut self, _node: usize) {}

    fn costs(&self) -> Costs {
        self.0.costs()
    }

    fn final_check(&mut self) -> Result<(), String> {
        let mut check = OwnerCheck::default();
        (0..self.0.n_nodes()).try_for_each(|i| check.see(self.0.replica(node(i))))
    }
}

// ---------------------------------------------------------------------------
// tcp_small, tcp_bulk, catchup, cold_recon
// ---------------------------------------------------------------------------

pub struct TcpFabric {
    cluster: AsyncTcpCluster,
    ledger: CrashLedger,
}

impl TcpFabric {
    fn spawn(w: &Workload, dir: &Path) -> TcpFabric {
        let config = AsyncTcpConfig {
            base: TcpConfig {
                gossip_interval: NO_GOSSIP,
                durability: Some(durability(w, dir)),
                ..TcpConfig::default()
            },
            worker_threads: 0,
        };
        let cluster = AsyncTcpCluster::spawn(w.nodes, w.items, config).expect("spawn tcp cluster");
        if w.shape == Shape::ColdRecon {
            // Node configuration, not journaled state: re-applied on every
            // open, as a recovering runtime would.
            cluster.set_log_retention(node(0), 1).expect("set log retention");
        }
        TcpFabric { cluster, ledger: CrashLedger::default() }
    }
}

impl Fabric for TcpFabric {
    fn write(&mut self, origin: usize, batch: &[Update]) -> u64 {
        refused(batch, |x, op| self.cluster.update(node(origin), x, op))
    }

    fn verify(&mut self, at: usize, batch: &[Update]) -> u64 {
        self.cluster.with_replica(node(at), |r| wrong(batch, |x| r.read(x)))
    }

    fn oob(&mut self, recipient: usize, source: usize, item: ItemId) -> bool {
        fetched(self.cluster.oob_fetch(node(recipient), node(source), item))
    }

    fn round(&mut self, recipient: usize, source: usize, _shard: Option<ShardId>) -> RoundEnd {
        self.cluster.pull_now(node(recipient), node(source)).into()
    }

    fn crash(&mut self, at: usize) {
        let costs = self.cluster.with_replica(node(at), |r| r.costs());
        self.ledger.crashed(costs, self.cluster.group_commit_stats(node(at)));
        self.cluster.crash(node(at));
    }

    fn revive(&mut self, at: usize) {
        self.cluster.revive(node(at));
        self.ledger.revived(self.cluster.with_replica(node(at), |r| r.costs()));
    }

    fn costs(&self) -> Costs {
        let live = (0..self.cluster.n_nodes())
            .map(|i| self.cluster.with_replica(node(i), |r| r.costs()))
            .fold(Costs::ZERO, |a, b| a + b);
        self.ledger.costs(live)
    }

    fn durable_counts(&self) -> DurableCounts {
        let live =
            (0..self.cluster.n_nodes()).filter_map(|i| self.cluster.group_commit_stats(node(i)));
        DurableCounts {
            commit: self.ledger.commit(live),
            open_connections: self.cluster.open_connections(),
            worker_threads: self.cluster.worker_threads(),
        }
    }

    fn final_check(&mut self) -> Result<(), String> {
        let mut check = OwnerCheck::default();
        (0..self.cluster.n_nodes())
            .try_for_each(|i| self.cluster.with_replica(node(i), |r| check.see(r)))
    }
}

// ---------------------------------------------------------------------------
// sharded_small
// ---------------------------------------------------------------------------

pub struct ShardedFabric(ShardedTcpCluster);

impl Fabric for ShardedFabric {
    fn write(&mut self, origin: usize, batch: &[Update]) -> u64 {
        refused(batch, |x, op| self.0.update(node(origin), x, op))
    }

    fn verify(&mut self, at: usize, batch: &[Update]) -> u64 {
        self.0.with_node(node(at), |n| wrong(batch, |x| n.read(x)))
    }

    fn oob(&mut self, recipient: usize, source: usize, item: ItemId) -> bool {
        matches!(
            self.0.oob_fetch(node(recipient), node(source), item),
            Ok(ShardedOob::Applied(OobOutcome::Adopted { .. } | OobOutcome::AlreadyCurrent))
        )
    }

    fn round(&mut self, recipient: usize, source: usize, shard: Option<ShardId>) -> RoundEnd {
        let shard = shard.expect("sharded rounds name a shard");
        self.0.pull_shard_now(node(recipient), node(source), shard).into()
    }

    fn crash(&mut self, _node: usize) {}
    fn revive(&mut self, _node: usize) {}

    fn costs(&self) -> Costs {
        (0..self.0.n_nodes()).map(|i| self.0.node_costs(node(i))).fold(Costs::ZERO, |a, b| a + b)
    }

    fn idle_exchange(&self) -> Option<(ProtocolRequest, TcpTransport)> {
        // Nodes 0 and 1 are the owners of shard 0.
        let shard = ShardId(0);
        let dbvv = self.0.with_node(node(1), |n| n.shard_state(shard).map(|r| r.dbvv().clone()))?;
        let pull = ProtocolRequest::Pull { from: node(1), dbvv };
        Some((ProtocolRequest::Shard { shard, req: Box::new(pull) }, self.0.transport_to(node(0))))
    }

    fn final_check(&mut self) -> Result<(), String> {
        for s in ShardId::all(SHARDS) {
            let mut check = OwnerCheck::default();
            for &owner in self.0.map().owners(s) {
                self.0
                    .with_node(owner, |n| match n.shard_state(s) {
                        Some(r) => check.see(r),
                        None => Err(format!("{owner} holds no state")),
                    })
                    .map_err(|e| format!("shard {s}: {e}"))?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// One complete set-up of the product fabric for `w`: fresh directory →
/// populate every item once at its home node → converge → (durable
/// fabrics: byte-triggered checkpoints fire on the way, then shut down and
/// re-open from disk) → first idle round answered. Steps a runtime lacks
/// are skipped: `EpidbCluster` and `ShardedTcpCluster` keep no durable
/// state.
pub fn set_up(w: &Workload, seed: u64, dir: &Path) -> Box<dyn Fabric> {
    let initial = |x: ItemId| UpdateOp::set(Inputs::initial_value(seed, x, w.value_len));
    match w.fabric {
        Kind::Sim => {
            let mut c = EpidbCluster::new(w.nodes, w.items);
            for x in ItemId::all(w.items) {
                c.update(node(x.index() % w.nodes), x, initial(x)).expect("populate");
            }
            for _sweep in 0..2 {
                for i in 0..w.nodes {
                    c.pull_pair(node((i + 1) % w.nodes), node(i)).expect("converge");
                }
            }
            let mut f = SimFabric(c);
            assert_eq!(f.round(1, 0, None), RoundEnd::UpToDate, "set-up: first idle round");
            Box::new(f)
        }
        Kind::Tcp => {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).expect("create data directory");
            let f = TcpFabric::spawn(w, dir);
            for x in ItemId::all(w.items) {
                f.cluster.update(node(x.index() % w.nodes), x, initial(x)).expect("populate");
            }
            for _sweep in 0..2 {
                for i in 0..w.nodes {
                    f.cluster.pull_now(node((i + 1) % w.nodes), node(i)).expect("converge");
                }
            }
            f.cluster.shutdown();
            let mut f = TcpFabric::spawn(w, dir);
            assert_eq!(f.round(1, 0, None), RoundEnd::UpToDate, "set-up: first idle round");
            Box::new(f)
        }
        Kind::Sharded => {
            let config = ShardedConfig { gossip_interval: NO_GOSSIP, ..ShardedConfig::default() };
            let c = ShardedTcpCluster::spawn(shard_map(w), w.nodes, config).expect("spawn sharded");
            for x in ItemId::all(w.items) {
                let home = owners(w, x)[x.index() % 2];
                c.update(node(home), x, initial(x)).expect("populate");
            }
            for s in ShardId::all(SHARDS) {
                let (a, b) = (c.map().owners(s)[0], c.map().owners(s)[1]);
                c.pull_shard_now(a, b, s).expect("converge");
                c.pull_shard_now(b, a, s).expect("converge");
            }
            let mut f = ShardedFabric(c);
            assert_eq!(
                f.round(1, 0, Some(ShardId(0))),
                RoundEnd::UpToDate,
                "set-up: first idle round"
            );
            Box::new(f)
        }
    }
}
