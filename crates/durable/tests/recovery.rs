//! Crash-recovery tests for the durability layer: WAL replay, checkpoint
//! rotation, torn-tail truncation at every byte offset, and corruption
//! fallback — each on a node's group WAL holding its one replica.

use std::fs;
use std::sync::Arc;

use epidb_common::{Error, ItemId, NodeId};
use epidb_core::{oob_copy, pull, pull_delta, ConflictPolicy, Replica};
use epidb_durable::testdir::TempDir;
use epidb_durable::{DurabilityConfig, GroupWal, RecoveryReport, StreamSpec};
use epidb_store::UpdateOp;
use epidb_vv::VvOrd;

const N_NODES: usize = 3;
const N_ITEMS: usize = 12;

/// Recover node `id`'s one-stream group WAL (no sink attached).
fn recover(
    cfg: &DurabilityConfig,
    id: NodeId,
    n_nodes: usize,
    policy: ConflictPolicy,
    delta_budget: usize,
) -> epidb_common::Result<(Arc<GroupWal>, Replica, RecoveryReport)> {
    let spec = [StreamSpec { id, n_nodes, n_items: N_ITEMS }];
    let (wal, mut replicas, report) =
        GroupWal::open(cfg, cfg.node_dir(id), &spec, policy, delta_budget)?;
    Ok((wal, replicas.pop().expect("one stream"), report))
}

fn open(cfg: &DurabilityConfig, id: NodeId) -> (Arc<GroupWal>, Replica, RecoveryReport) {
    let (d, mut r, report) = recover(cfg, id, N_NODES, ConflictPolicy::Report, 0).unwrap();
    r.enable_delta(1 << 16);
    r.set_paranoid(true);
    d.attach(0, &mut r);
    (d, r, report)
}

fn assert_same_state(a: &Replica, b: &Replica) {
    assert_eq!(a.dbvv().compare(b.dbvv()), VvOrd::Equal);
    for x in ItemId::all(a.n_items()) {
        assert_eq!(a.read(x).unwrap(), b.read(x).unwrap());
        assert_eq!(a.item_ivv(x).unwrap(), b.item_ivv(x).unwrap());
    }
    assert_eq!(a.aux_item_count(), b.aux_item_count());
    assert_eq!(a.aux_log().len(), b.aux_log().len());
}

/// Drive a peer and the durable node through every mutation kind; return
/// the peer for later comparison.
fn mixed_workload(node: &mut Replica) -> Replica {
    let mut peer = Replica::new(NodeId(0), N_NODES, N_ITEMS);
    peer.enable_delta(1 << 16);
    peer.update(ItemId(0), UpdateOp::set(vec![1u8; 400])).unwrap();
    peer.update(ItemId(1), UpdateOp::set(&b"one"[..])).unwrap();
    pull(node, &mut peer).unwrap();
    node.update(ItemId(2), UpdateOp::set(&b"mine"[..])).unwrap();
    peer.update(ItemId(0), UpdateOp::append(&b"+edit"[..])).unwrap();
    pull_delta(node, &mut peer).unwrap();
    peer.update(ItemId(3), UpdateOp::set(&b"oob-val"[..])).unwrap();
    oob_copy(node, &mut peer, ItemId(3)).unwrap();
    node.update(ItemId(3), UpdateOp::append(&b"+aux"[..])).unwrap();
    peer
}

#[test]
fn wal_replay_recovers_every_mutation_kind() {
    let tmp = TempDir::new("wal-replay");
    let cfg = DurabilityConfig::new(tmp.path());
    let (d, mut node, report) = open(&cfg, NodeId(1));
    assert_eq!(report, RecoveryReport::default());
    let _peer = mixed_workload(&mut node);
    assert_eq!(d.wal_records(), 5, "one record per entry-point call");
    drop(d); // crash: in-memory replica is simply gone

    let (_d2, recovered, report) = open(&cfg, NodeId(1));
    assert_eq!(report.snapshots_loaded, 0, "no checkpoint ran; pure WAL replay");
    assert_eq!(report.wal_records_replayed, 5);
    assert_eq!(report.replay_errors, 0);
    assert_eq!(report.wal_bytes_truncated, 0);
    assert_same_state(&node, &recovered);
    recovered.check_invariants().unwrap();
}

#[test]
fn recon_pull_and_coverage_floor_survive_crash_recovery() {
    // A compacted peer forces the durable node down the degradation
    // ladder (NeedRecon → digest descent); the committed reconciliation
    // journals as one `Mutation::Recon` frame carrying the adopted items,
    // their retained records, and the inherited coverage floor — all of
    // which must replay to the identical state after a crash.
    let tmp = TempDir::new("recon-replay");
    let cfg = DurabilityConfig::new(tmp.path());
    let (d, mut node, _) = open(&cfg, NodeId(1));

    let mut peer = Replica::new(NodeId(0), N_NODES, N_ITEMS);
    for x in 0..6u32 {
        peer.update(ItemId(x), UpdateOp::set(vec![x as u8; 32])).unwrap();
    }
    pull(&mut node, &mut peer).unwrap();
    node.update(ItemId(2), UpdateOp::set(&b"mine"[..])).unwrap();

    // The peer compacts its log and moves on — its floor climbs past the
    // node's coverage, so a plain pull must reconcile instead.
    peer.set_log_retention(1);
    for x in [0u32, 4] {
        peer.update(ItemId(x), UpdateOp::append(&b"+late"[..])).unwrap();
        peer.update(ItemId(x), UpdateOp::append(&b"+later"[..])).unwrap();
    }
    assert!(peer.coverage_floor()[0] > 0, "compaction raised the peer's floor");
    let wal_before = d.wal_records();
    let out = pull(&mut node, &mut peer).unwrap();
    assert!(matches!(out, epidb_core::PullOutcome::Propagated(_)));
    assert!(node.coverage_floor()[0] >= peer.coverage_floor()[0] - 1);
    assert!(d.wal_records() > wal_before, "the reconciliation was journaled");
    drop(d); // crash

    let (_d2, recovered, report) = open(&cfg, NodeId(1));
    assert_eq!(report.replay_errors, 0);
    assert_same_state(&node, &recovered);
    assert_eq!(node.coverage_floor(), recovered.coverage_floor(), "floor replayed");
    for k in NodeId::all(N_NODES) {
        for x in ItemId::all(N_ITEMS) {
            assert_eq!(
                node.log().retained(k, x),
                recovered.log().retained(k, x),
                "retained record for origin {k:?} item {x:?} replayed"
            );
        }
    }
    recovered.check_invariants().unwrap();
}

#[test]
fn checkpoint_rotates_generations_and_recovery_uses_snapshot() {
    let tmp = TempDir::new("checkpoint");
    let cfg = DurabilityConfig { checkpoint_every: 4, ..DurabilityConfig::new(tmp.path()) };
    let (d, mut node, _) = open(&cfg, NodeId(1));
    let mut peer = mixed_workload(&mut node);
    assert!(d.maybe_checkpoint(&[&node]).unwrap(), "past the record threshold");
    assert_eq!(d.generation(), 1);
    assert_eq!(d.wal_records(), 0);

    // Post-checkpoint mutations land in the new WAL generation.
    peer.update(ItemId(5), UpdateOp::set(&b"after-ckpt"[..])).unwrap();
    pull(&mut node, &mut peer).unwrap();

    // Old generation files are gone; new ones exist.
    let node_dir = cfg.node_dir(NodeId(1));
    let names: Vec<String> = fs::read_dir(&node_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(names.contains(&"snap-1-0.epdb".to_string()), "{names:?}");
    assert!(names.contains(&"wal-1.log".to_string()), "{names:?}");
    assert!(!names.contains(&"wal-0.log".to_string()), "{names:?}");

    drop(d);
    let (_d2, recovered, report) = open(&cfg, NodeId(1));
    assert_eq!(report.snapshots_loaded, 1);
    assert_eq!(report.generation, 1);
    assert_eq!(report.wal_records_replayed, 1);
    assert_same_state(&node, &recovered);
}

/// The acceptance criterion: truncate the WAL at every byte offset; each
/// cut must recover a clean valid prefix — no panic, no error, no silently
/// wrong state — and the recovered replica must pass full invariants.
#[test]
fn torn_wal_tail_recovers_a_valid_prefix_at_every_byte_offset() {
    let tmp = TempDir::new("torn-tail");
    let cfg = DurabilityConfig::new(tmp.path());
    let (d, mut node, _) = open(&cfg, NodeId(1));
    let _peer = mixed_workload(&mut node);
    d.wait_durable();

    let wal_file = cfg.node_dir(NodeId(1)).join("wal-0.log");
    let full = fs::read(&wal_file).unwrap();
    assert!(full.len() > 100, "workload should produce a non-trivial WAL");

    // Ground truth: the byte offset at which each frame ends.
    let scan = epidb_durable::read_frames(&bytes::Bytes::from(full.clone()));
    assert_eq!(scan.torn_bytes, 0);
    let mut frame_ends = vec![0u64];
    let mut pos = 0u64;
    for body in &scan.bodies {
        pos += epidb_durable::WAL_FRAME_HEADER as u64 + body.len() as u64;
        frame_ends.push(pos);
    }

    for cut in 0..=full.len() {
        let case = TempDir::new("torn-cut");
        let case_cfg = DurabilityConfig::new(case.path());
        let node_dir = case_cfg.node_dir(NodeId(1));
        fs::create_dir_all(&node_dir).unwrap();
        fs::write(node_dir.join("wal-0.log"), &full[..cut]).unwrap();

        let (_d, recovered, report) = open(&case_cfg, NodeId(1));
        recovered.check_invariants().unwrap();
        // Exactly the frames wholly inside the cut are replayed; the rest
        // is truncated as a torn tail. The first frame is the header
        // record (configuration, not state), so replayed mutations lag
        // the complete-frame count by one.
        let complete = frame_ends.iter().filter(|&&e| e <= cut as u64).count() as u64 - 1;
        assert_eq!(report.wal_records_replayed, complete.saturating_sub(1), "cut at {cut}");
        assert_eq!(report.replay_errors, 0, "cut at {cut}");
        assert_eq!(
            report.wal_bytes_truncated,
            cut as u64 - frame_ends[complete as usize],
            "cut at {cut}"
        );
    }
    assert_eq!(scan.bodies.len(), 6, "the header plus one frame per entry-point call");
}

#[test]
fn torn_tail_is_truncated_once_and_appends_continue() {
    let tmp = TempDir::new("torn-append");
    let cfg = DurabilityConfig::new(tmp.path());
    let (_d, mut node, _) = open(&cfg, NodeId(1));
    node.update(ItemId(0), UpdateOp::set(&b"a"[..])).unwrap();
    node.update(ItemId(1), UpdateOp::set(&b"b"[..])).unwrap();
    drop(_d);

    // Tear the tail: chop 3 bytes off the last frame.
    let wal_file = cfg.node_dir(NodeId(1)).join("wal-0.log");
    let full = fs::read(&wal_file).unwrap();
    fs::write(&wal_file, &full[..full.len() - 3]).unwrap();

    let (_d2, mut recovered, report) = open(&cfg, NodeId(1));
    assert_eq!(report.wal_records_replayed, 1);
    assert!(report.wal_bytes_truncated > 0);
    assert_eq!(recovered.read(ItemId(0)).unwrap().as_bytes(), b"a");
    assert_eq!(recovered.read(ItemId(1)).unwrap().as_bytes(), b"");

    // New mutations append cleanly after the truncation point.
    recovered.update(ItemId(2), UpdateOp::set(&b"c"[..])).unwrap();
    drop(_d2);
    let (_d3, again, report) = open(&cfg, NodeId(1));
    assert_eq!(report.wal_records_replayed, 2);
    assert_eq!(report.wal_bytes_truncated, 0);
    assert_eq!(again.read(ItemId(2)).unwrap().as_bytes(), b"c");
}

#[test]
fn corrupt_wal_interior_with_valid_crc_is_a_typed_error() {
    let tmp = TempDir::new("wal-decode");
    let cfg = DurabilityConfig::new(tmp.path());
    let (_d, mut node, _) = open(&cfg, NodeId(1));
    node.update(ItemId(0), UpdateOp::set(&b"x"[..])).unwrap();
    drop(_d);

    // Craft a frame whose CRC verifies but whose body is not a mutation:
    // that cannot be a torn write, so it must be typed corruption.
    let wal_file = cfg.node_dir(NodeId(1)).join("wal-0.log");
    let mut full = fs::read(&wal_file).unwrap();
    full.extend_from_slice(&epidb_durable::write_frame(&[0xEE; 10]));
    fs::write(&wal_file, &full).unwrap();

    let err = recover(&cfg, NodeId(1), N_NODES, ConflictPolicy::Report, 0).unwrap_err();
    assert!(matches!(err, Error::CorruptSnapshot(_)), "got {err:?}");
    assert!(!err.is_retryable());
}

#[test]
fn corrupt_newest_snapshot_falls_back_to_previous_generation() {
    let tmp = TempDir::new("snap-fallback");
    let cfg = DurabilityConfig { checkpoint_every: 1, ..DurabilityConfig::new(tmp.path()) };
    let (d, mut node, _) = open(&cfg, NodeId(1));
    node.update(ItemId(0), UpdateOp::set(&b"gen1"[..])).unwrap();
    d.checkpoint(&[&node]).unwrap();
    node.update(ItemId(1), UpdateOp::set(&b"gen2"[..])).unwrap();
    d.checkpoint(&[&node]).unwrap();
    assert_eq!(d.generation(), 2);
    drop(d);

    // Keep a stale copy of generation 1 around (as a crash mid-rotation
    // would), then corrupt generation 2.
    let node_dir = cfg.node_dir(NodeId(1));
    let snap2 = node_dir.join("snap-2-0.epdb");
    let gen2 = fs::read(&snap2).unwrap();
    fs::write(node_dir.join("snap-1-0.epdb"), {
        // Re-create gen 1 content by recovering to gen 2 state minus the
        // second update is impossible; instead snapshot the current state
        // into gen 1's slot — the point is fallback order, not content.
        gen2.clone()
    })
    .unwrap();
    let mut broken = gen2;
    let mid = broken.len() / 2;
    broken[mid] ^= 0xFF;
    fs::write(&snap2, &broken).unwrap();

    let (_d2, recovered, report) = open(&cfg, NodeId(1));
    assert_eq!(report.snapshots_loaded, 1);
    assert_eq!(report.snapshot_generation, 1, "fell back past the corrupt newest snapshot");
    assert_eq!(report.generation, 2, "but resumed appending to the newest WAL generation");
    assert_eq!(recovered.read(ItemId(0)).unwrap().as_bytes(), b"gen1");
}

#[test]
fn all_snapshots_corrupt_is_a_typed_error_not_a_silent_fresh_start() {
    let tmp = TempDir::new("snap-all-bad");
    let cfg = DurabilityConfig::new(tmp.path());
    let (d, mut node, _) = open(&cfg, NodeId(1));
    node.update(ItemId(0), UpdateOp::set(&b"v"[..])).unwrap();
    d.checkpoint(&[&node]).unwrap();
    drop(d);

    let snap = cfg.node_dir(NodeId(1)).join("snap-1-0.epdb");
    let mut bytes = fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&snap, &bytes).unwrap();

    let err = recover(&cfg, NodeId(1), N_NODES, ConflictPolicy::Report, 0).unwrap_err();
    assert!(matches!(err, Error::CorruptSnapshot(_)), "got {err:?}");
}

#[test]
fn recovered_state_for_wrong_topology_is_rejected() {
    let tmp = TempDir::new("topology");
    let cfg = DurabilityConfig::new(tmp.path());
    let (d, mut node, _) = open(&cfg, NodeId(1));
    node.update(ItemId(0), UpdateOp::set(&b"v"[..])).unwrap();
    d.checkpoint(&[&node]).unwrap();
    drop(d);

    let err = recover(&cfg, NodeId(1), N_NODES + 1, ConflictPolicy::Report, 0).unwrap_err();
    assert!(matches!(err, Error::CorruptSnapshot(_)), "got {err:?}");
}

#[test]
fn retained_generations_survive_loss_of_the_newest_snapshot() {
    let tmp = TempDir::new("retain");
    let cfg = DurabilityConfig { retain_generations: 2, ..DurabilityConfig::new(tmp.path()) };
    let (d, mut node, _) = open(&cfg, NodeId(1));
    node.update(ItemId(0), UpdateOp::set(&b"one"[..])).unwrap();
    d.checkpoint(&[&node]).unwrap();
    node.update(ItemId(1), UpdateOp::set(&b"two"[..])).unwrap();
    d.checkpoint(&[&node]).unwrap();
    node.update(ItemId(2), UpdateOp::set(&b"three"[..])).unwrap();
    d.checkpoint(&[&node]).unwrap();
    node.update(ItemId(3), UpdateOp::set(&b"tail"[..])).unwrap();
    drop(d);

    // Retention keeps generations 2 and 3 (and their WALs); 1 is pruned.
    let node_dir = cfg.node_dir(NodeId(1));
    assert!(!node_dir.join("snap-1-0.epdb").exists());
    assert!(node_dir.join("snap-2-0.epdb").exists() && node_dir.join("wal-2.log").exists());
    assert!(node_dir.join("snap-3-0.epdb").exists() && node_dir.join("wal-3.log").exists());

    // Lose the newest snapshot entirely: recovery falls back to gen 2 and
    // replays WALs 2 and 3 forward to the identical state.
    fs::remove_file(node_dir.join("snap-3-0.epdb")).unwrap();
    let (_d2, recovered, report) = open(&cfg, NodeId(1));
    assert_eq!(report.snapshot_generation, 2);
    assert_eq!(report.generation, 3);
    assert_eq!(report.wal_records_replayed, 2, "wal-2's record plus wal-3's");
    assert_same_state(&node, &recovered);
}

#[test]
fn byte_trigger_checkpoints_before_record_trigger() {
    let tmp = TempDir::new("bytes-trigger");
    let cfg = DurabilityConfig {
        checkpoint_every: 1_000_000,
        checkpoint_bytes: 256,
        ..DurabilityConfig::new(tmp.path())
    };
    let (d, mut node, _) = open(&cfg, NodeId(1));
    node.update(ItemId(0), UpdateOp::set(vec![9u8; 512])).unwrap();
    assert!(d.maybe_checkpoint(&[&node]).unwrap(), "512-byte record crosses the 256-byte bound");
    assert_eq!(d.generation(), 1);
    node.update(ItemId(1), UpdateOp::set(&b"small"[..])).unwrap();
    assert!(!d.maybe_checkpoint(&[&node]).unwrap(), "small record stays under both triggers");
}

#[test]
fn journaled_header_makes_recovery_config_free() {
    let tmp = TempDir::new("header");
    let cfg = DurabilityConfig::new(tmp.path());
    {
        let (d, mut node, _) =
            recover(&cfg, NodeId(1), N_NODES, ConflictPolicy::ResolveLww, 1 << 16).unwrap();
        assert!(node.op_cache().is_enabled());
        d.attach(0, &mut node);
        node.update(ItemId(0), UpdateOp::set(&b"v"[..])).unwrap();
    }
    // Reopen with *different* arguments: the journaled header wins, so the
    // node comes back LWW with its delta cache enabled — no snapshot was
    // ever taken, yet no out-of-band configuration is needed.
    let (_d2, recovered, report) =
        recover(&cfg, NodeId(1), N_NODES, ConflictPolicy::Report, 0).unwrap();
    assert_eq!(report.snapshots_loaded, 0);
    assert_eq!(report.wal_records_replayed, 1);
    assert_eq!(recovered.policy(), ConflictPolicy::ResolveLww);
    assert!(recovered.op_cache().is_enabled());
}

#[test]
fn fsync_mode_roundtrips() {
    let tmp = TempDir::new("fsync");
    let cfg = DurabilityConfig { fsync: true, ..DurabilityConfig::new(tmp.path()) };
    let (_d, mut node, _) = open(&cfg, NodeId(2));
    node.update(ItemId(4), UpdateOp::set(&b"synced"[..])).unwrap();
    drop(_d);
    let (_d2, recovered, _) = open(&cfg, NodeId(2));
    assert_eq!(recovered.read(ItemId(4)).unwrap().as_bytes(), b"synced");
}
