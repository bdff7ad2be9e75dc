//! Batching and torn-batch recovery for the group-commit WAL.
//!
//! Group commit batches many streams' records into single write+fsync
//! rounds, so a crash can tear the shared WAL *inside* a batch — between
//! any two frames, or mid-frame. Write-ahead must survive the batching:
//! truncating the WAL at **every byte offset** has to recover exactly the
//! clean prefix of the interleaved record stream, demultiplexed to the
//! right replicas, matching a twin world that applied just those
//! mutations and never crashed. And the leader–follower commit must keep
//! acked-implies-durable when one thread's batch carries another's ack.

use std::sync::{Arc, Barrier, Mutex};

use bytes::Bytes;
use epidb_common::{ItemId, NodeId};
use epidb_core::{ConflictPolicy, Replica};
use epidb_durable::testdir::TempDir;
use epidb_durable::{read_frames, DurabilityConfig, GroupCommitStats, GroupWal, StreamSpec};
use epidb_store::UpdateOp;
use epidb_vv::VvOrd;

const N_NODES: usize = 2;
const N_ITEMS: usize = 8;

fn specs() -> Vec<StreamSpec> {
    (0..N_NODES)
        .map(|i| StreamSpec { id: NodeId::from_index(i), n_nodes: N_NODES, n_items: N_ITEMS })
        .collect()
}

fn quiet_cfg(dir: std::path::PathBuf) -> DurabilityConfig {
    let mut cfg = DurabilityConfig::new(dir);
    // No checkpoints: every record stays in wal-0, so the torn tail is
    // the whole history.
    cfg.checkpoint_every = u64::MAX;
    cfg
}

/// The interleaved schedule: streams alternate, values alternate between
/// inline-small and shared-payload-large, every record a distinct state.
fn schedule() -> Vec<(usize, ItemId, Vec<u8>)> {
    (0..10u32)
        .map(|i| {
            let len = if i % 3 == 0 { 100 } else { 6 };
            (i as usize % 2, ItemId(i / 2), vec![0x40 + i as u8; len])
        })
        .collect()
}

/// Twin world: fresh replicas that apply the first `prefix` schedule
/// entries directly, no durability, no crash.
fn twin_world(prefix: usize) -> Vec<Replica> {
    let mut twins: Vec<Replica> = (0..N_NODES)
        .map(|i| {
            Replica::with_policy(NodeId::from_index(i), N_NODES, N_ITEMS, ConflictPolicy::Report)
        })
        .collect();
    for (stream, item, value) in schedule().into_iter().take(prefix) {
        twins[stream].update(item, UpdateOp::set(value)).unwrap();
    }
    twins
}

fn assert_matches_twin(recovered: &[Replica], twins: &[Replica], context: &str) {
    for (k, (got, want)) in recovered.iter().zip(twins).enumerate() {
        got.check_invariants().unwrap();
        assert_eq!(
            got.dbvv().compare(want.dbvv()),
            VvOrd::Equal,
            "{context}: stream {k} DBVV diverges from twin"
        );
        for item in 0..N_ITEMS as u32 {
            assert_eq!(
                got.read(ItemId(item)).unwrap().as_bytes(),
                want.read(ItemId(item)).unwrap().as_bytes(),
                "{context}: stream {k} item {item} diverges from twin"
            );
        }
    }
}

fn open_attached(dir: &std::path::Path) -> (Arc<GroupWal>, Vec<Replica>) {
    let (wal, mut replicas, _report) =
        GroupWal::open(&quiet_cfg(dir.to_path_buf()), dir, &specs(), ConflictPolicy::Report, 0)
            .unwrap();
    for (k, replica) in replicas.iter_mut().enumerate() {
        wal.attach(k, replica);
    }
    (wal, replicas)
}

/// Run the whole schedule through a group WAL and return the resulting
/// WAL bytes (flushed by `close`).
fn journaled_wal_bytes(dir: &std::path::Path) -> Vec<u8> {
    let (wal, mut replicas) = open_attached(dir);
    for (stream, item, value) in schedule() {
        replicas[stream].update(item, UpdateOp::set(value)).unwrap();
    }
    wal.close();
    std::fs::read(dir.join("wal-0.log")).unwrap()
}

#[test]
fn torn_batch_recovers_the_clean_prefix_at_every_byte_offset() {
    let tmp = TempDir::new("group-torn");
    let full = journaled_wal_bytes(&tmp.path().join("origin"));

    // Frame boundaries of the intact WAL: the header frame, then one
    // record frame per schedule entry, no torn tail.
    let scan = read_frames(&Bytes::from(full.clone()));
    assert_eq!(scan.bodies.len(), 1 + schedule().len(), "header + one frame per mutation");
    assert_eq!(scan.torn_bytes, 0);

    for cut in 0..=full.len() {
        let dir = tmp.path().join(format!("cut-{cut}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal-0.log"), &full[..cut]).unwrap();

        // The clean prefix this cut leaves behind: complete record frames
        // only (the header, when complete, carries no mutation).
        let prefix_scan = read_frames(&Bytes::from(full[..cut].to_vec()));
        let records = prefix_scan.bodies.len().saturating_sub(1);

        let cfg = quiet_cfg(dir.clone());
        let (wal, recovered, report) =
            GroupWal::open(&cfg, &dir, &specs(), ConflictPolicy::Report, 0).unwrap();
        assert_eq!(
            report.wal_records_replayed, records as u64,
            "cut {cut}: replay count != clean prefix"
        );
        assert_eq!(report.replay_errors, 0, "cut {cut}: replay errors");
        assert_matches_twin(&recovered, &twin_world(records), &format!("cut {cut}"));
        wal.close();
    }
}

#[test]
fn acked_batches_survive_a_crash_before_close() {
    // `wait_durable` is the acknowledgement gate: once it returns, the
    // covering batch has been written (and fsynced when enabled). Copy
    // the WAL bytes at that instant — a crash with the process still
    // alive, nothing flushed by shutdown — and recovery must hold every
    // acknowledged mutation.
    let tmp = TempDir::new("group-acked");
    let dir = tmp.path().join("live");
    let (wal, mut replicas) = open_attached(&dir);
    for (stream, item, value) in schedule() {
        replicas[stream].update(item, UpdateOp::set(value)).unwrap();
    }
    wal.wait_durable();
    // The "crash": the WAL handle is still open, close() never runs.
    let crash_copy = std::fs::read(dir.join("wal-0.log")).unwrap();

    let crash_dir = tmp.path().join("crash");
    std::fs::create_dir_all(&crash_dir).unwrap();
    std::fs::write(crash_dir.join("wal-0.log"), &crash_copy).unwrap();
    let crash_cfg = quiet_cfg(crash_dir.clone());
    let (recovered_wal, recovered, report) =
        GroupWal::open(&crash_cfg, &crash_dir, &specs(), ConflictPolicy::Report, 0).unwrap();
    assert_eq!(report.wal_records_replayed, schedule().len() as u64);
    assert_matches_twin(&recovered, &twin_world(schedule().len()), "post-ack crash");
    recovered_wal.close();
    wal.close();
}

#[test]
fn one_wait_writes_everything_queued_in_one_batch() {
    // Enqueueing writes nothing; the one caller that waits leads a batch
    // holding every record queued on either stream.
    let tmp = TempDir::new("group-batching");
    let (wal, mut replicas) = open_attached(tmp.path());
    replicas[0].update(ItemId(0), UpdateOp::set(&b"a"[..])).unwrap();
    replicas[1].update(ItemId(0), UpdateOp::set(&b"b"[..])).unwrap();
    replicas[0].update(ItemId(1), UpdateOp::set(&b"c"[..])).unwrap();
    assert_eq!(wal.stats(), GroupCommitStats::default(), "enqueueing writes nothing");
    wal.wait_durable();
    assert_eq!(wal.stats(), GroupCommitStats { records: 3, batches: 1, fsyncs: 0 });
    wal.wait_durable();
    assert_eq!(wal.stats().batches, 1, "nothing pending: no write");
}

#[test]
fn a_crowd_of_waiters_shares_one_batch_and_one_fsync_per_round() {
    // Each round, K threads each enqueue one update to their own item on
    // one stream, then all wait. The first waiter leads a batch that
    // takes the whole queue; the others follow it and find nothing left
    // to write. So every round is exactly one batch and one fsync,
    // whatever order the threads run in.
    const K: usize = 8;
    const ROUNDS: u64 = 16;
    let tmp = TempDir::new("group-crowd");
    let mut cfg = quiet_cfg(tmp.path().to_path_buf());
    cfg.fsync = true;
    let (wal, mut replicas, _) =
        GroupWal::open(&cfg, tmp.path(), &specs(), ConflictPolicy::Report, 0).unwrap();
    wal.attach(0, &mut replicas[0]);
    let replica = Mutex::new(replicas.swap_remove(0));
    let barrier = Barrier::new(K);
    std::thread::scope(|scope| {
        for t in 0..K {
            let (wal, replica, barrier) = (&wal, &replica, &barrier);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    replica
                        .lock()
                        .unwrap()
                        .update(ItemId(t as u32), UpdateOp::set(vec![round as u8; 16]))
                        .unwrap();
                    barrier.wait();
                    wal.wait_durable();
                    barrier.wait();
                }
            });
        }
    });
    assert_eq!(
        wal.stats(),
        GroupCommitStats { records: K as u64 * ROUNDS, batches: ROUNDS, fsyncs: ROUNDS },
        "a round's waiters must share the batch of whichever of them leads"
    );
    wal.close();
}

#[test]
fn every_ack_is_durable_even_when_another_thread_wrote_it() {
    // 8 threads × 32 updates, each to its own item. Right after its own
    // `wait_durable` returns, a thread copies the WAL: that copy must
    // recover the thread's latest acked value, whichever thread's batch
    // wrote it.
    const THREADS: usize = 8;
    const UPDATES: usize = 32;
    let tmp = TempDir::new("group-threaded-ack");
    let dir = tmp.path().join("live");
    let (wal, replicas) = open_attached(&dir);
    let replicas: Vec<Mutex<Replica>> = replicas.into_iter().map(Mutex::new).collect();
    let value = |t: usize, k: usize| vec![t as u8, k as u8];
    let copies: Vec<Vec<Vec<u8>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (wal, replicas, dir) = (&wal, &replicas, &dir);
                scope.spawn(move || {
                    (0..UPDATES)
                        .map(|k| {
                            let item = ItemId((t / N_NODES) as u32);
                            replicas[t % N_NODES]
                                .lock()
                                .unwrap()
                                .update(item, UpdateOp::set(value(t, k)))
                                .unwrap();
                            wal.wait_durable();
                            std::fs::read(dir.join("wal-0.log")).unwrap()
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let stats = wal.stats();
    assert_eq!(stats.records, (THREADS * UPDATES) as u64);
    for (t, thread_copies) in copies.iter().enumerate() {
        for (k, copy) in thread_copies.iter().enumerate() {
            let crash_dir = tmp.path().join(format!("crash-{t}-{k}"));
            std::fs::create_dir_all(&crash_dir).unwrap();
            std::fs::write(crash_dir.join("wal-0.log"), copy).unwrap();
            let (recovered_wal, recovered) = open_attached(&crash_dir);
            let item = ItemId((t / N_NODES) as u32);
            assert_eq!(
                recovered[t % N_NODES].read(item).unwrap().as_bytes(),
                &value(t, k)[..],
                "thread {t}'s ack {k} is missing from the WAL copied right after it"
            );
            recovered_wal.close();
        }
    }
    wal.close();
}

#[test]
fn no_thread_commits_in_the_background() {
    // Records are written by whoever waits for them: an open group WAL
    // runs no thread of its own.
    let tmp = TempDir::new("group-no-thread");
    let (wal, mut replicas) = open_attached(tmp.path());
    replicas[0].update(ItemId(0), UpdateOp::set(&b"x"[..])).unwrap();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let comm = std::fs::read_to_string(task.unwrap().path().join("comm")).unwrap_or_default();
        assert_ne!(comm.trim(), "epidb-group-commit", "a committer thread is running");
    }
    wal.wait_durable();
    assert_eq!(wal.stats().batches, 1);
}
