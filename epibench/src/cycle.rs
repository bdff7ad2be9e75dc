//! One cycle of a workload: write a batch, fetch one hot item out of
//! bound, run the rounds that converge the owners, verify every read, then
//! run idle rounds between the now-identical replicas. Each step is timed
//! whole and divided by its operation count; no single operation is timed.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Instant;

use epidb_common::ShardId;

use crate::fabric::{Fabric, RoundEnd};
use crate::input::Update;
use crate::spec::{Shape, Workload, SHARDS};
use crate::trace::{span, Kind};

/// Operations attempted and failed (refused, errored, or mismatching
/// update / round / read / fetch).
#[derive(Clone, Copy, Default, Debug)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn check(&mut self, ok: bool) {
        self.count(1, u64::from(!ok));
    }
}

/// The timed steps of one cycle, in nanoseconds of wall clock.
#[derive(Clone, Copy, Default, Debug)]
pub struct StepTimes {
    /// Step 1, the whole batch.
    pub write: f64,
    /// Step 2: out-of-bound fetch plus the read of the fetched item.
    pub oob: f64,
    /// Start of step 1 → last read of step 3 verified at every owner
    /// (`catchup`: revive → verified).
    pub converge: f64,
    /// Step 4, all idle rounds.
    pub idle: f64,
    /// The whole cycle.
    pub wall: f64,
    /// Rounds in step 4.
    pub idle_rounds: usize,
}

/// Run `body` as one step: under its span (a single branch when nothing
/// records) and timed whole.
fn step(kind: Kind, body: impl FnOnce()) -> f64 {
    let _s = span(kind, 1);
    let t = Instant::now();
    body();
    t.elapsed().as_nanos() as f64
}

/// Run cycle number `cycle` of workload `w` on `f`.
pub fn run(
    f: &mut dyn Fabric,
    w: &Workload,
    cycle: usize,
    batch: &[Update],
    ops: &mut Ops,
) -> StepTimes {
    let _s = span(Kind::Cycle, 1);
    let start = Instant::now();
    let mut t = match w.shape {
        Shape::Chain | Shape::ColdRecon => chain(f, w, cycle, batch, ops),
        Shape::Catchup => catchup(f, w, batch, ops),
        Shape::Sharded => sharded(f, w, cycle, batch, ops),
    };
    t.wall = start.elapsed().as_nanos() as f64;
    t
}

/// Origin of cycle `cycle`: rotates, except where the workload pins it.
pub fn origin(w: &Workload, cycle: usize) -> usize {
    match w.shape {
        Shape::Chain | Shape::Sharded => cycle % w.nodes,
        Shape::Catchup | Shape::ColdRecon => 0,
    }
}

fn write(f: &mut dyn Fabric, at: usize, batch: &[Update], ops: &mut Ops) {
    let refused = f.write(at, batch);
    ops.count(batch.len() as u64, refused);
}

fn verify(f: &mut dyn Fabric, at: usize, batch: &[Update], ops: &mut Ops) {
    let wrong = f.verify(at, batch);
    ops.count(batch.len() as u64, wrong);
}

/// Step 2: `recipient` fetches the batch's first item from `source` and
/// reads it — it must be the new bytes.
fn oob(f: &mut dyn Fabric, recipient: usize, source: usize, batch: &[Update], ops: &mut Ops) {
    let fetched = f.oob(recipient, source, batch[0].0);
    ops.check(fetched);
    verify(f, recipient, &batch[..1], ops);
}

fn chain(
    f: &mut dyn Fabric,
    w: &Workload,
    cycle: usize,
    batch: &[Update],
    ops: &mut Ops,
) -> StepTimes {
    let n = w.nodes;
    let origin = origin(w, cycle);
    let write_ns = step(Kind::StepWrite, || write(f, origin, batch, ops));
    let oob_ns = step(Kind::StepOob, || oob(f, (origin + n - 1) % n, origin, batch, ops));
    let rounds_ns = step(Kind::StepConverge, || {
        // Forwarding chain, as in the paper's transitive schedules.
        for k in 1..n {
            let end = f.round((origin + k) % n, (origin + k - 1) % n, None);
            ops.check(end == RoundEnd::Copied(batch.len()));
        }
        for at in 0..n {
            verify(f, at, batch, ops);
        }
    });
    let (idle, idle_rounds) = idle_step(f, w, origin, ops);
    StepTimes {
        write: write_ns,
        oob: oob_ns,
        converge: write_ns + oob_ns + rounds_ns,
        idle,
        wall: 0.0,
        idle_rounds,
    }
}

/// Step 4: rounds between replicas that are already identical, each of
/// which must answer "you are current" — 2(n−1) rounds around the ring,
/// or on the sharded workload one walk of every owned shard at every
/// node. Returns the step's time and how many rounds it ran.
pub fn idle_step(f: &mut dyn Fabric, w: &Workload, origin: usize, ops: &mut Ops) -> (f64, usize) {
    let n = w.nodes;
    let mut rounds = 0;
    let ns = step(Kind::StepIdle, || {
        if w.shape == Shape::Sharded {
            for at in 0..n {
                for s in owned_shards(at) {
                    ops.check(f.round(at, at ^ 1, Some(s)) == RoundEnd::UpToDate);
                    rounds += 1;
                }
            }
        } else {
            for k in 0..2 * (n - 1) {
                ops.check(
                    f.round((origin + k + 1) % n, (origin + k) % n, None) == RoundEnd::UpToDate,
                );
                rounds += 1;
            }
        }
    });
    (ns, rounds)
}

/// The shards node `at` owns (shard `s` belongs to group `s % 2`, node
/// `n` to group `n / 2`).
fn owned_shards(at: usize) -> impl Iterator<Item = ShardId> {
    ShardId::all(SHARDS).filter(move |s| s.index() % 2 == at / 2)
}

fn catchup(f: &mut dyn Fabric, w: &Workload, batch: &[Update], ops: &mut Ops) -> StepTimes {
    let n = w.nodes;
    step(Kind::StepCrash, || f.crash(2));
    let write_ns = step(Kind::StepWrite, || write(f, 0, batch, ops));
    step(Kind::StepConverge, || ops.check(f.round(1, 0, None) == RoundEnd::Copied(batch.len())));
    let converge = step(Kind::StepConverge, || {
        f.revive(2);
        ops.check(f.round(2, 1, None) == RoundEnd::Copied(batch.len()));
        for at in 0..n {
            verify(f, at, batch, ops);
        }
    });
    let oob_ns = step(Kind::StepOob, || oob(f, 2, 0, batch, ops));
    let (idle, idle_rounds) = idle_step(f, w, 0, ops);
    StepTimes { write: write_ns, oob: oob_ns, converge, idle, wall: 0.0, idle_rounds }
}

fn sharded(
    f: &mut dyn Fabric,
    w: &Workload,
    cycle: usize,
    batch: &[Update],
    ops: &mut Ops,
) -> StepTimes {
    let origin = origin(w, cycle);
    let peer = origin ^ 1;
    let write_ns = step(Kind::StepWrite, || write(f, origin, batch, ops));
    let oob_ns = step(Kind::StepOob, || oob(f, peer, origin, batch, ops));
    let per_shard = batch.len() / (SHARDS / 2);
    let rounds_ns = step(Kind::StepConverge, || {
        for s in owned_shards(origin) {
            ops.check(f.round(peer, origin, Some(s)) == RoundEnd::Copied(per_shard));
        }
        verify(f, origin, batch, ops);
        verify(f, peer, batch, ops);
    });
    let (idle, idle_rounds) = idle_step(f, w, origin, ops);
    StepTimes {
        write: write_ns,
        oob: oob_ns,
        converge: write_ns + oob_ns + rounds_ns,
        idle,
        wall: 0.0,
        idle_rounds,
    }
}

/// The fixed reference loop (~12 µs): sixteen one-byte round trips through
/// a socket pair this thread owns — system calls, buffer allocation and
/// copies, no other thread — after four untimed ones that bring its code
/// back into the cache a cycle has just emptied. Timed before and after
/// every cycle; a cycle next to a slow reference run is dropped as
/// disturbed.
///
/// It is kernel work and not an ALU loop because that is what this host
/// disturbs: for seconds to minutes at a time every kernel path (a bare
/// `getppid`, a pipe, a loopback connect alike) runs 1.2–1.5 times slower
/// on both vCPUs at once, while a dependent ALU chain reads the same to
/// 1 %. The reference has to see what the product's rounds feel.
pub struct Reference {
    near: UnixStream,
    far: UnixStream,
}

impl Reference {
    pub fn new() -> Reference {
        let (near, far) = UnixStream::pair().expect("socket pair for the reference loop");
        Reference { near, far }
    }

    /// One timing of the loop, in nanoseconds.
    pub fn run(&mut self) -> f64 {
        self.round_trips(4);
        let t = Instant::now();
        self.round_trips(16);
        t.elapsed().as_nanos() as f64
    }

    fn round_trips(&mut self, n: usize) {
        let mut byte = [0x5a_u8];
        for _ in 0..n {
            self.near.write_all(&byte).expect("reference loop: write");
            self.far.read_exact(&mut byte).expect("reference loop: read");
        }
    }
}
