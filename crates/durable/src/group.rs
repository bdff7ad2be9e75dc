//! Group commit: one shared write-ahead log per node, batched fsyncs.
//!
//! A WAL per replica that fsyncs inline is correct, but a node hosting
//! many shards would pay one fsync *per mutation per journal*. `GroupWal`
//! is the one WAL every durable replica journals through: it interleaves
//! every stream (one per replica, e.g. per owned shard) of a node into a
//! single WAL file behind a commit queue, committed leader–follower. Appenders
//! enqueue encoded records and return without waking anyone. A caller of
//! [`GroupWal::wait_durable`] that finds its record not yet durable and
//! no batch in flight is the **leader**: it takes the whole queue, writes
//! it with one vectored `write` and **one fsync** outside the lock, then
//! wakes the followers that are waiting. A caller arriving while a batch
//! is in flight follows: it waits for that batch, and the first follower
//! still not covered leads the next one, holding everything queued
//! meanwhile. A lone writer thus writes its own record with no thread
//! hand-off, and concurrent writers still share fsyncs. A response is
//! released only after `wait_durable` returns, so an acknowledged
//! mutation is durable — only the fsyncs are amortized.
//!
//! Records use the checked frame format (`len | crc32 | body`, torn-tail
//! rule) and are encoded straight into the commit queue, under its lock:
//! a header slot, then the body, then the length and checksum (computed
//! over the body where it lies) patched into the slot. Values above
//! `INLINE_VALUE_MAX` ride along as shared segments until the leader's
//! vectored write, whose slices are gathered on the stack. The leader
//! hands the written buffer back for the next batch when it is at most
//! 16 KiB and frees a larger one. So a record costs no allocation and no
//! copy, and a large propagation's buffer leaves with its batch. Bodies are
//! demultiplexed by a leading [`GROUP_RECORD_TAG`] byte and a `stream`
//! index, so one generation scan recovers every stream. Checkpoints
//! snapshot *all* streams (`snap-<g>-<k>.epdb`) and roll the shared WAL
//! together, under the retention rule and the journaled [`WalHeader`]
//! described in the crate docs. [`GroupWal::read_wal_tail`] reads one
//! stream's records back out of the current generation, for a shard
//! handoff's snapshot-plus-tail.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use bytes::Bytes;
use epidb_common::{Error, NodeId, Result};
use epidb_core::codec::{Reader, Writer};
use epidb_core::journal::{get_mutation, put_mutation};
use epidb_core::{ConflictPolicy, Mutation, MutationRef, MutationSink, Replica, SinkHandle};

use crate::files::{
    fsync_dir, io_err, list_generations, load_snapshot, open_wal, scan_wals, wal_path,
    write_snapshot_file, DurabilityConfig,
};
use crate::frames::{put_frame, read_frames, write_chunks, write_frame};
use crate::header::{encode_header, is_header, WalHeader};

/// First byte of a group WAL record body (tag + stream index + mutation):
/// distinguishes it from the header record (`0xEE`), and from a bare
/// mutation encoding (tags 0–3), which is never a record of its own.
pub(crate) const GROUP_RECORD_TAG: u8 = 0xD7;

/// One stream of a group WAL: the shape of the replica journaled under
/// that stream index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamSpec {
    /// The node this replica acts as.
    pub id: NodeId,
    /// Size of the server set the replica's version vectors are dimensioned for.
    pub n_nodes: usize,
    /// Item universe size.
    pub n_items: usize,
}

/// Commit-path counters, for observing the fsync amortization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Mutation records made durable (written out by a leader).
    pub records: u64,
    /// Leader batches (one `write` each).
    pub batches: u64,
    /// `fsync` calls issued (one per batch when fsync is on; the
    /// group-commit win is `fsyncs / records` ≪ 1).
    pub fsyncs: u64,
}

/// What recovery found on disk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The generation recovered into (and now being appended to).
    pub generation: u64,
    /// Stream snapshots loaded (0 = fresh start; otherwise one per
    /// stream — checkpoints write all streams or none).
    pub snapshots_loaded: usize,
    /// The generation of the snapshots that were loaded (0 when none).
    /// Can trail `generation` when recovery fell back past a corrupt newer
    /// generation and replayed the surviving WALs forward.
    pub snapshot_generation: u64,
    /// WAL records replayed across all streams.
    pub wal_records_replayed: u64,
    /// Bytes discarded from the WAL tail (torn-write truncation).
    pub wal_bytes_truncated: u64,
    /// Replayed mutations that returned an error (noted, not fatal).
    pub replay_errors: u64,
}

fn group_snap_path(dir: &Path, generation: u64, stream: usize) -> PathBuf {
    dir.join(format!("snap-{generation}-{stream}.epdb"))
}

/// Parse `snap-<gen>-<stream>.epdb`.
fn parse_group_snap(name: &str) -> Option<(u64, usize)> {
    let rest = name.strip_prefix("snap-")?.strip_suffix(".epdb")?;
    let (gen, stream) = rest.split_once('-')?;
    Some((gen.parse().ok()?, stream.parse().ok()?))
}

/// Map of generation -> (stream -> snapshot path) found in `dir`.
fn list_group_snaps(dir: &Path) -> Result<BTreeMap<u64, BTreeMap<usize, PathBuf>>> {
    let mut map: BTreeMap<u64, BTreeMap<usize, PathBuf>> = BTreeMap::new();
    for entry in fs::read_dir(dir).map_err(|e| io_err("read dir", dir, e))? {
        let entry = entry.map_err(|e| io_err("read dir", dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some((gen, stream)) = parse_group_snap(name) {
            map.entry(gen).or_default().insert(stream, entry.path());
        }
    }
    Ok(map)
}

struct GroupState {
    /// The current generation's WAL. `Arc` so a leader can write outside
    /// the state lock; `None` only after [`GroupWal::close`].
    wal: Option<Arc<File>>,
    /// Encoded frames enqueued but not yet taken by a leader: frame
    /// headers and control bytes inline, values above `INLINE_VALUE_MAX`
    /// as shared segments.
    pending: Writer,
    /// Records inside `pending`.
    pending_records: u64,
    /// Sequence number of the last enqueued record.
    appended_seq: u64,
    /// Sequence number through which records are durable.
    durable_seq: u64,
    /// A leader is out writing/fsyncing a batch.
    committing: bool,
    /// Followers blocked on `durable`; a landed batch wakes them only if
    /// there are any.
    waiters: usize,
    /// Why a batch failed to land. Once set nothing more is written:
    /// every waiter and every later append panics with it, so no record
    /// is waited on forever.
    failed: Option<String>,
    generation: u64,
    /// Mutation records in the current generation (durable + in flight).
    wal_records: u64,
    /// Bytes in the current generation (frames, incl. header + pending).
    wal_bytes: u64,
    header_frame: Vec<u8>,
}

struct Shared {
    dir: PathBuf,
    fsync: bool,
    checkpoint_every: u64,
    checkpoint_bytes: u64,
    retain_generations: usize,
    n_streams: usize,
    state: Mutex<GroupState>,
    /// Wakes waiting followers when a batch lands (or fails).
    durable: Condvar,
    records: AtomicU64,
    batches: AtomicU64,
    fsyncs: AtomicU64,
}

/// The shared per-node group-commit WAL. One instance serves every
/// stream (database/shard replica) of a node; see the module docs.
///
/// No thread of its own: records are written by whoever waits for them.
/// A record nobody waits for is written by the next
/// [`wait_durable`](Self::wait_durable), [`checkpoint`](Self::checkpoint)
/// or [`close`](Self::close).
pub struct GroupWal {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for GroupWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.shared.state.lock().unwrap();
        f.debug_struct("GroupWal")
            .field("dir", &self.shared.dir)
            .field("generation", &st.generation)
            .field("wal_records", &st.wal_records)
            .finish()
    }
}

/// The per-stream [`MutationSink`]: encodes a multiplexed record and
/// enqueues it on the shared commit queue. `record` returns before the
/// record is durable — callers gate acknowledgements on
/// [`GroupWal::wait_durable`].
struct GroupSink {
    shared: Arc<Shared>,
    stream: u32,
}

/// Encode the body of one group WAL record into `w`: tag, stream index,
/// mutation. Values above `INLINE_VALUE_MAX` stay shared segments.
fn put_record(w: &mut Writer, stream: u32, m: MutationRef<'_>) {
    w.u8(GROUP_RECORD_TAG);
    w.u32(stream);
    put_mutation(w, m);
}

impl MutationSink for GroupSink {
    fn record(&self, m: MutationRef<'_>) {
        let mut st = self.shared.state.lock().unwrap();
        // The sink API cannot report errors; losing a record would break
        // the write-ahead contract silently, so fail loudly, as a real
        // server losing its disk would.
        if let Some(e) = st.failed.clone() {
            drop(st); // unpoisoned, so `close` still runs
            panic!("{e}");
        }
        assert!(st.wal.is_some(), "durable: group WAL is closed");
        // The frame is encoded straight into the commit queue and its
        // header patched in after the body: no buffer of its own, no copy,
        // large values by reference until a leader writes them. No thread
        // is woken: whoever waits for the record writes it.
        let frame_len = put_frame(&mut st.pending, |w| put_record(w, self.stream, m));
        st.pending_records += 1;
        st.appended_seq += 1;
        st.wal_records += 1;
        st.wal_bytes += frame_len as u64;
    }
}

/// A written batch's control buffer up to this size goes back to the
/// commit queue for the next batch to fill; a larger one (a many-item
/// propagation, or a burst of small-valued records) is freed rather than
/// pinned for the life of the WAL.
const PENDING_KEEP: usize = 16 << 10;

type State<'a> = MutexGuard<'a, GroupState>;

impl Shared {
    /// Return once every record enqueued before the call is durable. With
    /// no batch in flight the caller leads: it takes the whole queue,
    /// writes (and fsyncs) it outside the lock, advances `durable_seq` and
    /// wakes the followers waiting, if any. Otherwise it follows: it waits
    /// for the batch in flight and re-checks when it lands. Everything
    /// enqueued while one batch is written lands in the next in ONE
    /// vectored write and (at most) ONE fsync: that coalescing is the
    /// whole point of group commit. Fails, lock released, once a batch has
    /// failed to land: nothing may land behind the gap it leaves.
    fn flush<'a>(&'a self, mut st: State<'a>) -> std::result::Result<State<'a>, String> {
        let target = st.appended_seq;
        loop {
            if let Some(e) = &st.failed {
                return Err(e.clone());
            }
            if st.durable_seq >= target {
                return Ok(st);
            }
            if st.committing {
                st.waiters += 1;
                st = self.durable.wait(st).unwrap();
                st.waiters -= 1;
                continue;
            }
            let mut batch = std::mem::take(&mut st.pending);
            let n_records = std::mem::replace(&mut st.pending_records, 0);
            let through_seq = st.appended_seq;
            let file = st.wal.clone().expect("durable: group WAL is closed");
            st.committing = true;
            drop(st);
            let written = self.write_batch(&file, &batch);
            // Values released and an outgrown buffer freed outside the lock.
            batch.park(PENDING_KEEP);
            st = self.state.lock().unwrap();
            st.committing = false;
            if let Err(e) = written {
                st.failed = Some(format!("durable: group WAL append failed: {e}"));
                self.durable.notify_all();
                continue;
            }
            self.records.fetch_add(n_records, Ordering::Relaxed);
            self.batches.fetch_add(1, Ordering::Relaxed);
            st.durable_seq = through_seq;
            if st.pending.is_empty() {
                st.pending = batch; // the next batch reuses the control buffer
            }
            if st.waiters > 0 {
                self.durable.notify_all();
            }
        }
    }

    /// Write a batch with vectored writes, resuming after short ones, then
    /// `sync_data` when fsync is on.
    fn write_batch(&self, mut file: &File, batch: &Writer) -> std::io::Result<()> {
        write_chunks(&mut file, batch)?;
        if self.fsync {
            file.sync_data()?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

impl GroupWal {
    /// Open (or recover) the shared WAL under `dir` for the given streams.
    /// Knobs (`fsync`, checkpoint triggers, retention) come from `cfg`;
    /// `cfg.dir` is ignored in favor of the explicit group directory.
    ///
    /// Recovery takes the newest generation whose snapshots *all* load
    /// and match their specs, replays every retained WAL from there
    /// forward (one scan demultiplexes records into all streams),
    /// truncates the resumed WAL's torn tail, and lets a journaled header
    /// override `policy`/`delta_budget`: those two are fresh-start
    /// defaults, so recovery is config-free. An empty directory yields
    /// fresh replicas. The delta cache is enabled after replay, so the
    /// recovered op caches start cold.
    ///
    /// The returned replicas have **no sinks attached** (so the recovery
    /// itself is not re-journaled); call [`GroupWal::attach`] per stream
    /// once runtime reconfiguration is done.
    pub fn open(
        cfg: &DurabilityConfig,
        dir: impl Into<PathBuf>,
        streams: &[StreamSpec],
        policy: ConflictPolicy,
        delta_budget: usize,
    ) -> Result<(Arc<GroupWal>, Vec<Replica>, RecoveryReport)> {
        assert!(!streams.is_empty(), "durable: group WAL needs at least one stream");
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, e))?;

        // Newest generation whose snapshots ALL load and match their
        // specs wins; partial generations (a crash mid-checkpoint) and
        // corrupt ones fall back to older retained generations.
        let snap_map = list_group_snaps(&dir)?;
        let mut report = RecoveryReport::default();
        let mut recovered: Option<Vec<Replica>> = None;
        let mut last_snap_err = None;
        for (&gen, by_stream) in snap_map.iter().rev() {
            match load_generation(by_stream, streams) {
                Ok(replicas) => {
                    report.generation = gen;
                    report.snapshots_loaded = replicas.len();
                    report.snapshot_generation = gen;
                    recovered = Some(replicas);
                    break;
                }
                Err(e) => last_snap_err = Some(e),
            }
        }
        if recovered.is_none() {
            if let Some(e) = last_snap_err {
                // Snapshots existed but no generation is whole: refuse
                // loudly rather than restart empty.
                return Err(e);
            }
        }

        let wals = scan_wals(&dir, recovered.as_ref().map(|_| report.generation))?;
        report.wal_bytes_truncated = wals.torn_bytes;
        let (header, resume_gen) = (wals.header, wals.resume_gen);

        let effective_policy = match (&recovered, header) {
            (None, Some(h)) => h.policy,
            _ => policy,
        };
        let mut replicas = match recovered {
            Some(r) => r,
            None => {
                report.generation = resume_gen;
                streams
                    .iter()
                    .map(|s| Replica::with_policy(s.id, s.n_nodes, s.n_items, effective_policy))
                    .collect()
            }
        };

        for body in &wals.records {
            let (stream, m) = decode_group_record(body, streams.len())?;
            if replicas[stream].replay_mutation(m).is_err() {
                report.replay_errors += 1;
            }
            report.wal_records_replayed += 1;
        }
        report.generation = resume_gen;

        let (wal_bytes, wal_records) = wals.truncate_resumed()?;

        let effective = header
            .unwrap_or(WalHeader { policy: effective_policy, delta_budget: delta_budget as u64 });
        if effective.delta_budget > 0 {
            for r in &mut replicas {
                r.enable_delta(effective.delta_budget as usize);
            }
        }
        let header_frame = write_frame(&encode_header(&effective));

        let (wal, wal_bytes) = open_wal(&dir, resume_gen, &header_frame, wal_bytes)?;

        for r in &replicas {
            r.check_invariants().map_err(Error::CorruptSnapshot)?;
        }

        let shared = Arc::new(Shared {
            dir,
            fsync: cfg.fsync,
            checkpoint_every: cfg.checkpoint_every,
            checkpoint_bytes: cfg.checkpoint_bytes,
            retain_generations: cfg.retain_generations.max(1),
            n_streams: streams.len(),
            state: Mutex::new(GroupState {
                wal: Some(Arc::new(wal)),
                pending: Writer::new(),
                pending_records: 0,
                appended_seq: 0,
                durable_seq: 0,
                committing: false,
                waiters: 0,
                failed: None,
                generation: resume_gen,
                wal_records,
                wal_bytes,
                header_frame,
            }),
            durable: Condvar::new(),
            records: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
        });
        Ok((Arc::new(GroupWal { shared }), replicas, report))
    }

    /// Attach stream `stream`'s sink to its replica. Call after recovery
    /// and any runtime reconfiguration, with the same index the replica
    /// had in the `streams` slice passed to [`GroupWal::open`].
    pub fn attach(self: &Arc<Self>, stream: usize, replica: &mut Replica) {
        assert!(stream < self.shared.n_streams, "durable: stream {stream} out of range");
        replica.set_mutation_sink(Some(SinkHandle::new(Arc::new(GroupSink {
            shared: self.shared.clone(),
            stream: stream as u32,
        }))));
    }

    /// Block until every record enqueued before this call is durable
    /// (written, and fsynced when fsync is on), leading the batch that
    /// writes them if none is in flight (see the module docs). This is the
    /// acknowledgement gate: a mutation's response may be released only
    /// after `wait_durable` returns, which preserves acked-implies-durable
    /// while concurrent writers share batches and fsyncs.
    ///
    /// # Panics
    ///
    /// If a batch failed to land (its `write` or `sync_data` errored).
    pub fn wait_durable(&self) {
        self.wait_durable_checkpoint_due();
    }

    /// [`wait_durable`](Self::wait_durable), then
    /// [`checkpoint_due`](Self::checkpoint_due), in one hold of the WAL's
    /// lock: the ack gate of a caller that gathers its replicas only when
    /// a checkpoint will run.
    ///
    /// # Panics
    ///
    /// As [`wait_durable`](Self::wait_durable).
    pub fn wait_durable_checkpoint_due(&self) -> bool {
        match self.shared.flush(self.shared.state.lock().unwrap()) {
            Ok(st) => self.due(&st),
            Err(e) => panic!("{e}"),
        }
    }

    /// Commit-path counters (monotonic since open).
    pub fn stats(&self) -> GroupCommitStats {
        GroupCommitStats {
            records: self.shared.records.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            fsyncs: self.shared.fsyncs.load(Ordering::Relaxed),
        }
    }

    /// The current snapshot/WAL generation.
    pub fn generation(&self) -> u64 {
        self.shared.state.lock().unwrap().generation
    }

    /// Mutation records in the current WAL generation (incl. enqueued).
    pub fn wal_records(&self) -> u64 {
        self.shared.state.lock().unwrap().wal_records
    }

    /// Checkpoint if the shared WAL has reached the configured record
    /// count or byte size. Same caller contract as
    /// [`GroupWal::checkpoint`].
    pub fn maybe_checkpoint(&self, replicas: &[&Replica]) -> Result<bool> {
        let st = self.shared.state.lock().unwrap();
        if !self.due(&st) {
            return Ok(false);
        }
        self.checkpoint_locked(st, replicas)?;
        Ok(true)
    }

    /// Whether [`maybe_checkpoint`](Self::maybe_checkpoint) would
    /// checkpoint now: a caller that must gather its replicas first asks
    /// this, under the same locks, before it does.
    pub fn checkpoint_due(&self) -> bool {
        self.due(&self.shared.state.lock().unwrap())
    }

    fn due(&self, st: &GroupState) -> bool {
        let by_records =
            self.shared.checkpoint_every > 0 && st.wal_records >= self.shared.checkpoint_every;
        let by_bytes =
            self.shared.checkpoint_bytes > 0 && st.wal_bytes >= self.shared.checkpoint_bytes;
        by_records || by_bytes
    }

    /// Checkpoint unconditionally: drain the commit queue, snapshot every
    /// stream, roll the shared WAL, prune per retention.
    ///
    /// `replicas` must be the group's streams **in stream order**, and the
    /// caller must hold whatever locks guard them (so no new records can
    /// be enqueued mid-checkpoint). Callers invoke this *after* a batch of
    /// operations, never from inside a sink (the replica is mid-mutation
    /// there).
    pub fn checkpoint(&self, replicas: &[&Replica]) -> Result<()> {
        let st = self.shared.state.lock().unwrap();
        self.checkpoint_locked(st, replicas)
    }

    fn checkpoint_locked(&self, st: State<'_>, replicas: &[&Replica]) -> Result<()> {
        assert_eq!(
            replicas.len(),
            self.shared.n_streams,
            "durable: checkpoint needs every stream's replica"
        );
        // Flush the queue through the leader step so the old generation's
        // WAL is complete before the snapshots that supersede it are taken.
        let mut st = self.shared.flush(st).map_err(Error::Network)?;

        let next = st.generation + 1;
        for (stream, replica) in replicas.iter().enumerate() {
            let snap = group_snap_path(&self.shared.dir, next, stream);
            write_snapshot_file(&self.shared.dir, &snap, replica)?;
        }

        let (wal, wal_bytes) = open_wal(&self.shared.dir, next, &st.header_frame, 0)?;
        fsync_dir(&self.shared.dir)?;

        st.generation = next;
        st.wal = Some(Arc::new(wal));
        st.wal_records = 0;
        st.wal_bytes = wal_bytes;

        // Prune generations beyond the retention window — only now, with
        // the newer snapshots and their WAL fully fsynced (a crash before
        // these deletes just leaves extra files; recovery prefers the
        // newest valid generation). Retaining N > 1 generations keeps the
        // snapshots *and* the WAL of each: recovering from generation `g`
        // needs every WAL from `g` forward.
        let keep_from = next.saturating_sub(self.shared.retain_generations.max(1) as u64 - 1);
        let snap_map = list_group_snaps(&self.shared.dir)?;
        for (&gen, by_stream) in &snap_map {
            if gen < keep_from {
                for path in by_stream.values() {
                    let _ = fs::remove_file(path);
                }
            }
        }
        for gen in list_generations(&self.shared.dir, "wal", ".log")? {
            if gen < keep_from {
                let _ = fs::remove_file(wal_path(&self.shared.dir, gen));
            }
        }
        Ok(())
    }

    /// Stream `stream`'s records in the current generation's WAL after its
    /// first `skip`: the *tail* a shard handoff ships on top of a snapshot
    /// taken when the stream had journaled `skip` records this generation
    /// (with one stream, [`wal_records`](Self::wal_records) at that
    /// moment). Reads the file only, so records still queued are not in
    /// it: call [`wait_durable`](Self::wait_durable) first. Torn trailing
    /// bytes are ignored, exactly as in recovery; a `skip` past the
    /// stream's records is an error.
    pub fn read_wal_tail(&self, stream: usize, skip: u64) -> Result<Vec<Mutation>> {
        let path = wal_path(&self.shared.dir, self.generation());
        let raw = fs::read(&path).map_err(|e| io_err("read", &path, e))?;
        let mut records = Vec::new();
        // `skip` counts mutation records; the header record is
        // configuration, not state.
        for body in read_frames(&Bytes::from(raw)).bodies.iter().filter(|b| !is_header(b)) {
            let (s, m) = decode_group_record(body, self.shared.n_streams)?;
            if s == stream {
                records.push(m);
            }
        }
        if skip > records.len() as u64 {
            return Err(Error::Network(format!(
                "durable: WAL tail skip {skip} exceeds stream {stream}'s {} records",
                records.len()
            )));
        }
        Ok(records.split_off(skip as usize))
    }

    /// Flush the queue through the leader step and release the file.
    /// Idempotent; called by `Drop`, so it never panics on a failed batch:
    /// records enqueued before `close` are written (and fsynced, if
    /// configured) unless a batch fails to land. Enqueueing after `close`
    /// is a contract violation and panics.
    pub fn close(&self) {
        let st = self.shared.state.lock().unwrap();
        let mut st = self.shared.flush(st).unwrap_or_else(|_| self.shared.state.lock().unwrap());
        st.wal = None;
    }
}

impl Drop for GroupWal {
    fn drop(&mut self) {
        self.close();
    }
}

/// Load one full generation: every stream's snapshot must be present,
/// load cleanly, and match its spec.
fn load_generation(
    by_stream: &BTreeMap<usize, PathBuf>,
    streams: &[StreamSpec],
) -> Result<Vec<Replica>> {
    let mut replicas = Vec::with_capacity(streams.len());
    for (stream, spec) in streams.iter().enumerate() {
        let Some(path) = by_stream.get(&stream) else {
            return Err(Error::CorruptSnapshot(format!(
                "group snapshot generation is missing stream {stream}"
            )));
        };
        let replica = load_snapshot(path)?;
        if replica.id() != spec.id
            || replica.n_nodes() != spec.n_nodes
            || replica.n_items() != spec.n_items
        {
            return Err(Error::CorruptSnapshot(format!(
                "stream {stream} snapshot is for node {} ({} nodes, {} items), expected node {} \
                 ({} nodes, {} items)",
                replica.id(),
                replica.n_nodes(),
                replica.n_items(),
                spec.id,
                spec.n_nodes,
                spec.n_items,
            )));
        }
        replicas.push(replica);
    }
    Ok(replicas)
}

/// Decode one CRC-verified group record body: tag, stream index, mutation.
fn decode_group_record(body: &Bytes, n_streams: usize) -> Result<(usize, Mutation)> {
    let corrupt = |what: String| {
        Error::CorruptSnapshot(format!("group WAL record ({} bytes): {what}", body.len()))
    };
    let mut r = Reader::shared(body);
    let tag = r.u8().map_err(|e| corrupt(e.to_string()))?;
    if tag != GROUP_RECORD_TAG {
        return Err(corrupt(format!("bad tag {tag:#x}")));
    }
    let stream = r.u32().map_err(|e| corrupt(e.to_string()))? as usize;
    if stream >= n_streams {
        return Err(corrupt(format!("stream {stream} out of range ({n_streams} streams)")));
    }
    let m = get_mutation(&mut r).map_err(|e| corrupt(e.to_string()))?;
    if r.remaining() != 0 {
        return Err(corrupt(format!("{} trailing bytes after mutation", r.remaining())));
    }
    Ok((stream, m))
}

#[cfg(test)]
mod tests {
    use std::io::{self, Write};

    use super::*;
    use crate::files::atomic_write_with;
    use crate::frames::stream_snapshot;
    use crate::testdir::TempDir;
    use epidb_common::ItemId;
    use epidb_core::{
        oob_copy, pull, CachedOp, DeltaItem, DeltaOffer, DeltaPayload, OobReply,
        PropagationPayload, ReconItem, ShippedItem,
    };
    use epidb_log::LogRecord;
    use epidb_store::UpdateOp;
    use epidb_vv::{VersionVector, VvOrd};

    const N_NODES: usize = 3;

    fn specs() -> Vec<StreamSpec> {
        vec![
            StreamSpec { id: NodeId(0), n_nodes: N_NODES, n_items: 8 },
            StreamSpec { id: NodeId(0), n_nodes: N_NODES, n_items: 4 },
        ]
    }

    fn open(cfg: &DurabilityConfig) -> (Arc<GroupWal>, Vec<Replica>, RecoveryReport) {
        let (wal, mut replicas, report) =
            GroupWal::open(cfg, cfg.dir.join("group"), &specs(), ConflictPolicy::Report, 1 << 16)
                .unwrap();
        for (k, r) in replicas.iter_mut().enumerate() {
            wal.attach(k, r);
        }
        (wal, replicas, report)
    }

    fn assert_same_state(a: &Replica, b: &Replica) {
        assert_eq!(a.dbvv().compare(b.dbvv()), VvOrd::Equal);
        for x in ItemId::all(a.n_items()) {
            assert_eq!(a.read(x).unwrap(), b.read(x).unwrap());
        }
    }

    #[test]
    fn interleaved_streams_recover_independently() {
        let tmp = TempDir::new("group-wal");
        let mut cfg = DurabilityConfig::new(tmp.path());
        cfg.checkpoint_every = 0; // no checkpoint: pure WAL replay
        cfg.fsync = true;
        let (wal, mut replicas, report) = open(&cfg);
        assert_eq!(report.snapshots_loaded, 0);
        for i in 0..6u64 {
            let stream = (i % 2) as usize;
            let item = ItemId((i / 2) as u32);
            replicas[stream].update(item, UpdateOp::set(format!("v{i}").into_bytes())).unwrap();
            wal.wait_durable();
        }
        // A lone writer leads a batch, and an fsync, per acknowledgement.
        assert_eq!(wal.stats(), GroupCommitStats { records: 6, batches: 6, fsyncs: 6 });
        drop(wal);

        let (_wal2, recovered, report) = open(&cfg);
        assert_eq!(report.wal_records_replayed, 6);
        assert_eq!(report.replay_errors, 0);
        assert_same_state(&recovered[0], &replicas[0]);
        assert_same_state(&recovered[1], &replicas[1]);
    }

    #[test]
    fn checkpoint_rolls_all_streams_and_replays_tail() {
        let tmp = TempDir::new("group-ckpt");
        let mut cfg = DurabilityConfig::new(tmp.path());
        cfg.checkpoint_every = 0;
        cfg.retain_generations = 2;
        let (wal, mut replicas, _) = open(&cfg);
        replicas[0].update(ItemId(0), UpdateOp::set(&b"a"[..])).unwrap();
        replicas[1].update(ItemId(1), UpdateOp::set(&b"b"[..])).unwrap();
        wal.wait_durable();
        {
            let refs: Vec<&Replica> = replicas.iter().collect();
            wal.checkpoint(&refs).unwrap();
        }
        assert_eq!(wal.generation(), 1);
        // Post-checkpoint mutations land in the new generation's WAL.
        replicas[0].update(ItemId(2), UpdateOp::set(&b"c"[..])).unwrap();
        wal.wait_durable();
        drop(wal);

        let (_wal2, recovered, report) = open(&cfg);
        assert_eq!(report.generation, 1);
        assert_eq!(report.snapshots_loaded, 2);
        assert_eq!(report.wal_records_replayed, 1);
        assert_same_state(&recovered[0], &replicas[0]);
        assert_same_state(&recovered[1], &replicas[1]);
    }

    #[test]
    fn torn_tail_recovers_clean_prefix() {
        let tmp = TempDir::new("group-torn");
        let mut cfg = DurabilityConfig::new(tmp.path());
        cfg.checkpoint_every = 0;
        let (wal, mut replicas, _) = open(&cfg);
        replicas[0].update(ItemId(0), UpdateOp::set(&b"keep"[..])).unwrap();
        replicas[1].update(ItemId(0), UpdateOp::set(&b"torn"[..])).unwrap();
        wal.wait_durable();
        drop(wal);

        // Tear mid-record: shave bytes off the WAL tail.
        let path = wal_path(&cfg.dir.join("group"), 0);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let (_wal2, recovered, report) = open(&cfg);
        assert_eq!(report.wal_records_replayed, 1);
        assert!(report.wal_bytes_truncated > 0);
        assert_same_state(&recovered[0], &replicas[0]);
        // Stream 1's torn record is gone: back to the initial value.
        let fresh = Replica::with_policy(NodeId(0), N_NODES, 4, ConflictPolicy::Report);
        assert_eq!(recovered[1].read(ItemId(0)).unwrap(), fresh.read(ItemId(0)).unwrap());
    }

    #[test]
    fn wal_tail_reads_one_stream_after_its_first_records() {
        let tmp = TempDir::new("group-tail");
        let mut cfg = DurabilityConfig::new(tmp.path());
        cfg.checkpoint_every = 0;
        let (wal, mut replicas, _) = open(&cfg);
        let value = |stream: usize, i: u32| format!("s{stream}-{i}").into_bytes();
        for i in 0..4u32 {
            for (stream, r) in replicas.iter_mut().enumerate() {
                r.update(ItemId(i), UpdateOp::set(value(stream, i))).unwrap();
            }
        }
        wal.wait_durable();
        let updates = |tail: Vec<Mutation>| -> Vec<(ItemId, UpdateOp)> {
            tail.into_iter()
                .map(|m| match m {
                    Mutation::Update { item, op } => (item, op),
                    other => panic!("expected an update, got {other:?}"),
                })
                .collect()
        };
        for k in 0..=4u32 {
            let want: Vec<_> = (k..4).map(|i| (ItemId(i), UpdateOp::set(value(1, i)))).collect();
            assert_eq!(updates(wal.read_wal_tail(1, k as u64).unwrap()), want, "skip {k}");
        }
        match wal.read_wal_tail(1, 5) {
            Err(e @ Error::Network(_)) => assert!(e.to_string().contains("exceeds"), "{e}"),
            other => panic!("a skip past the stream's records must fail, got {other:?}"),
        }

        // A torn trailing record (stream 1's fifth) is not part of the tail.
        replicas[1].update(ItemId(0), UpdateOp::set(&b"torn"[..])).unwrap();
        wal.wait_durable();
        let path = wal_path(&cfg.dir.join("group"), 0);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let want: Vec<_> = (2..4).map(|i| (ItemId(i), UpdateOp::set(value(1, i)))).collect();
        assert_eq!(updates(wal.read_wal_tail(1, 2).unwrap()), want);
        assert_eq!(wal.read_wal_tail(0, 4).unwrap().len(), 0, "stream 0 has exactly four");
    }

    /// Give the journaled replica `node` something in every snapshot
    /// section: values on both sides of the 128 B inline threshold, log
    /// records, a compaction floor, an auxiliary copy and an auxiliary log.
    fn fill_every_section(node: &mut Replica) {
        let n_items = node.n_items();
        let mut peer = Replica::new(NodeId(0), N_NODES, n_items);
        for x in ItemId::all(n_items) {
            peer.update(x, UpdateOp::set(vec![x.0 as u8; (x.index() * 37) % 300])).unwrap();
        }
        pull(node, &mut peer).unwrap();
        node.set_log_retention(n_items / 2);
        assert!(node.coverage_floor()[0] > 0, "retention evicted records");
        peer.update(ItemId(1), UpdateOp::append(&b"+new"[..])).unwrap();
        oob_copy(node, &mut peer, ItemId(1)).unwrap();
        node.update(ItemId(1), UpdateOp::append(vec![7; 200])).unwrap();
        node.update(ItemId(1), UpdateOp::append(&b"+aux"[..])).unwrap();
        assert_eq!((node.aux_item_count(), node.aux_log().len()), (1, 2));
    }

    fn open_one(cfg: &DurabilityConfig, n_items: usize) -> (Arc<GroupWal>, Replica) {
        let spec = [StreamSpec { id: NodeId(1), n_nodes: N_NODES, n_items }];
        let (wal, mut replicas, _) =
            GroupWal::open(cfg, cfg.dir.join("group"), &spec, ConflictPolicy::Report, 0).unwrap();
        let mut replica = replicas.pop().unwrap();
        wal.attach(0, &mut replica);
        (wal, replica)
    }

    #[test]
    fn checkpoint_files_are_write_frame_byte_for_byte() {
        // Totals just under, at and over one 64 KiB snapshot piece, and
        // many pieces; a one-stream group and a later stream of a
        // two-stream group stream the same frame.
        let mut sizes = Vec::new();
        for n_items in [4, 330, 345, 360, 375, 390, 3000] {
            let tmp = TempDir::new("group-snapfile");
            let mut cfg = DurabilityConfig::new(tmp.path());
            cfg.checkpoint_every = 0;
            let (wal, mut replica) = open_one(&cfg, n_items);
            fill_every_section(&mut replica);
            wal.checkpoint(&[&replica]).unwrap();
            let want = write_frame(&replica.to_snapshot());
            let got = fs::read(group_snap_path(&cfg.dir.join("group"), 1, 0)).unwrap();
            assert!(got == want, "group checkpoint of {n_items} items differs");

            // The same replica as the second stream of a node's group.
            let spec = |n_items| StreamSpec { id: NodeId(1), n_nodes: N_NODES, n_items };
            let dir = cfg.node_dir(NodeId(1));
            let (node_wal, mut streams, _) =
                GroupWal::open(&cfg, &dir, &[spec(4), spec(n_items)], ConflictPolicy::Report, 0)
                    .unwrap();
            let mut single = streams.pop().unwrap();
            node_wal.attach(1, &mut single);
            fill_every_section(&mut single);
            node_wal.checkpoint(&[&streams[0], &single]).unwrap();
            let got = fs::read(dir.join("snap-1-1.epdb")).unwrap();
            assert!(got == write_frame(&single.to_snapshot()), "node checkpoint differs");
            sizes.push(want.len());
        }
        let piece = epidb_core::snapshot::SNAPSHOT_PIECE;
        assert!(sizes.iter().any(|&s| s < piece) && sizes.iter().any(|&s| s > piece));
        assert!(sizes.iter().any(|&s| s > 4 * piece));
    }

    /// A writer that accepts `left` more bytes, then fails.
    struct FailAfter<W> {
        out: W,
        left: usize,
    }

    impl<W: Write> Write for FailAfter<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::other("injected write failure"));
            }
            let n = self.out.write(&buf[..buf.len().min(self.left)])?;
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.out.flush()
        }
    }

    #[test]
    fn snapshot_write_error_mid_stream_leaves_only_the_tmp_file() {
        let tmp = TempDir::new("group-snapfail");
        let mut cfg = DurabilityConfig::new(tmp.path());
        cfg.checkpoint_every = 0;
        let dir = cfg.dir.join("group");
        let (wal, mut replica) = open_one(&cfg, 3000);
        fill_every_section(&mut replica);
        wal.checkpoint(&[&replica]).unwrap();
        replica.update(ItemId(7), UpdateOp::set(&b"after gen 1"[..])).unwrap();
        wal.wait_durable();

        // The next checkpoint's snapshot write, through a disk that fails
        // after 100 KiB: the error surfaces, and the snapshot it would have
        // replaced is all that names generation 2.
        let snap = group_snap_path(&dir, 2, 0);
        let failing = |file: &File| {
            let mut out = FailAfter { out: file, left: 100 << 10 };
            stream_snapshot(&mut out, &replica).map(drop)
        };
        assert!(atomic_write_with(&dir, &snap, failing).is_err());
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["snap-1-0.epdb", "snap-2-0.tmp", "wal-1.log"]);
        assert_eq!(fs::metadata(dir.join("snap-2-0.tmp")).unwrap().len(), 100 << 10);
        drop(wal);

        let (_wal, recovered, report) = GroupWal::open(
            &cfg,
            &dir,
            &[StreamSpec { id: NodeId(1), n_nodes: N_NODES, n_items: 3000 }],
            ConflictPolicy::Report,
            0,
        )
        .unwrap();
        assert_eq!((report.generation, report.snapshots_loaded), (1, 1));
        assert_eq!(report.wal_records_replayed, 1);
        assert_same_state(&recovered[0], &replica);
    }

    impl GroupWal {
        /// Whether the commit queue holds a control buffer above `keep` B.
        fn pending_outgrew(&self, keep: usize) -> bool {
            self.shared.state.lock().unwrap().pending.outgrew(keep)
        }
    }

    /// A group record's body encoded on its own, as a reference.
    fn record_body(stream: u32, m: &Mutation) -> Vec<u8> {
        let mut w = Writer::new();
        put_record(&mut w, stream, m.into());
        w.into_bytes()
    }

    #[test]
    fn queued_frames_are_write_frame_byte_for_byte() {
        // Empty and inline values, the inline edge (128 B) and shared
        // segments (129 B, 8 KiB), a propagation whose frame is over
        // `PENDING_KEEP`, then a small record behind it, all encoded in
        // place back to back in one queue: the WAL must hold exactly what
        // framing each record on its own produces.
        let tmp = TempDir::new("group-format");
        let mut cfg = DurabilityConfig::new(tmp.path());
        cfg.checkpoint_every = 0;
        let (wal, _replicas, _) = open(&cfg);
        let sink = GroupSink { shared: wal.shared.clone(), stream: 1 };
        let mut want = wal.shared.state.lock().unwrap().header_frame.clone();
        let lens = [0usize, 64, 128, 129, 8192];
        let values: Vec<Bytes> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| Bytes::from(vec![0x30 + i as u8; len]))
            .collect();
        let mut records: Vec<Mutation> = values
            .iter()
            .enumerate()
            .map(|(i, value)| Mutation::Update {
                item: ItemId(i as u32 % 4),
                op: UpdateOp::Set(value.clone()),
            })
            .collect();
        let items = (0..400)
            .map(|i| ShippedItem {
                item: ItemId(i % 4),
                ivv: VersionVector::from_entries(vec![0, 0, i as u64 + 1]),
                value: Bytes::from(vec![i as u8; 40 + (i as usize % 3) * 60]),
            })
            .collect();
        let tails = vec![Vec::new(); N_NODES];
        let payload = PropagationPayload { tails, items };
        records.push(Mutation::Propagation { from: NodeId(2), payload });
        records.push(Mutation::Update { item: ItemId(2), op: UpdateOp::set(&b"after"[..]) });
        for m in &records {
            sink.record(m.into());
            want.extend_from_slice(&write_frame(&record_body(1, m)));
        }
        assert!(record_body(1, &records[5]).len() > PENDING_KEEP, "the propagation is large");
        assert!(wal.pending_outgrew(PENDING_KEEP), "it is encoded into the queue, not beside it");
        wal.wait_durable();
        assert!(!wal.pending_outgrew(PENDING_KEEP), "the written batch is not retained");
        drop(records);
        for value in values {
            assert!(value.try_into_vec().is_ok(), "the written batch holds no value");
        }
        wal.close();
        let got = fs::read(wal_path(&cfg.dir.join("group"), 0)).unwrap();
        assert_eq!(got, want);

        let (_wal2, recovered, report) = open(&cfg);
        assert_eq!(report.wal_records_replayed, 7);
        assert_eq!(report.replay_errors, 0);
        assert_eq!(recovered[1].read(ItemId(3)).unwrap().as_bytes(), &[0x33; 129][..]);
        assert_eq!(recovered[1].read(ItemId(0)).unwrap().as_bytes(), &[0x34; 8192][..]);
        assert_eq!(recovered[1].read(ItemId(2)).unwrap().as_bytes(), b"after");
    }

    #[test]
    fn a_refused_update_journals_nothing() {
        // An item out of range is refused before the sink sees it, with
        // the op cache off (the bounds check) and on (the IVV lookup): the
        // WAL gains no record, so recovery replays no error.
        for delta_budget in [0, 1 << 16] {
            let tmp = TempDir::new("group-refused");
            let mut cfg = DurabilityConfig::new(tmp.path());
            cfg.checkpoint_every = 0;
            let spec = [StreamSpec { id: NodeId(1), n_nodes: N_NODES, n_items: 4 }];
            let reopen = || {
                let dir = cfg.dir.join("group");
                GroupWal::open(&cfg, dir, &spec, ConflictPolicy::Report, delta_budget).unwrap()
            };
            let (wal, mut replicas, _) = reopen();
            wal.attach(0, &mut replicas[0]);
            replicas[0].update(ItemId(1), UpdateOp::set(&b"kept"[..])).unwrap();
            wal.wait_durable();
            let before = wal.wal_records();
            let refused = replicas[0].update(ItemId(4), UpdateOp::set(vec![1]));
            assert!(matches!(refused, Err(Error::UnknownItem(ItemId(4)))), "{refused:?}");
            assert_eq!(wal.wal_records(), before, "delta budget {delta_budget}");
            drop(wal);

            let (_wal, recovered, report) = reopen();
            assert_eq!((report.wal_records_replayed, report.replay_errors), (1, 0));
            assert_same_state(&recovered[0], &replicas[0]);
        }
    }

    #[test]
    fn a_refused_propagation_journals_nothing() {
        // Each payload breaks its structure after a well-formed part: an
        // unknown item after a good one, a 2-wide IVV, a tail too few, a
        // tail record naming an unknown item. Each is refused whole before
        // the sink sees it and before the good item is adopted.
        let tmp = TempDir::new("group-refused-propagation");
        let mut cfg = DurabilityConfig::new(tmp.path());
        cfg.checkpoint_every = 0;
        let spec = [StreamSpec { id: NodeId(1), n_nodes: N_NODES, n_items: 4 }];
        let reopen = || {
            let dir = cfg.dir.join("group");
            GroupWal::open(&cfg, dir, &spec, ConflictPolicy::Report, 0).unwrap()
        };
        let (wal, mut replicas, _) = reopen();
        wal.attach(0, &mut replicas[0]);
        replicas[0].update(ItemId(1), UpdateOp::set(&b"kept"[..])).unwrap();
        wal.wait_durable();
        let (records, fingerprint) = (wal.wal_records(), replicas[0].fingerprint());

        let shipped = |item: u32, ivv: Vec<u64>| ShippedItem {
            item: ItemId(item),
            ivv: VersionVector::from_entries(ivv),
            value: Bytes::from_static(b"shipped"),
        };
        let good = || shipped(2, vec![1, 0, 0]);
        let tails = |records: Vec<LogRecord>| {
            let mut tails = vec![Vec::new(); N_NODES];
            tails[0] = records;
            tails
        };
        let record = |item: u32, m: u64| LogRecord { item: ItemId(item), m };
        let unknown_item = PropagationPayload {
            tails: tails(vec![record(2, 1), record(4, 2)]),
            items: vec![good(), shipped(4, vec![2, 0, 0])],
        };
        let narrow_ivv = PropagationPayload {
            tails: tails(vec![record(2, 1), record(3, 2)]),
            items: vec![good(), shipped(3, vec![2, 0])],
        };
        let short_tails =
            PropagationPayload { tails: vec![vec![record(2, 1)]], items: vec![good()] };
        let unknown_record = PropagationPayload {
            tails: tails(vec![record(2, 1), record(9, 2)]),
            items: vec![good()],
        };
        for (payload, want) in [
            (unknown_item, Error::UnknownItem(ItemId(4))),
            (narrow_ivv, Error::DimensionMismatch { left: N_NODES, right: 2 }),
            (short_tails, Error::DimensionMismatch { left: N_NODES, right: 1 }),
            (unknown_record, Error::UnknownItem(ItemId(9))),
        ] {
            let got = replicas[0].accept_propagation(NodeId(0), payload).unwrap_err();
            assert_eq!(got, want);
            assert_eq!(wal.wal_records(), records, "{want}: nothing journaled");
            assert_eq!(replicas[0].fingerprint(), fingerprint, "{want}: nothing applied");
        }
        drop(wal);

        let (_wal, recovered, report) = reopen();
        assert_eq!((report.wal_records_replayed, report.replay_errors), (1, 0));
        assert_same_state(&recovered[0], &replicas[0]);
    }

    #[test]
    fn a_refused_oob_recon_or_delta_journals_nothing() {
        // The other three journaled entry points, each fed an unknown item,
        // an IVV that is not `n` wide or a record origin at or above `n`,
        // where one applies — after a well-formed part where there is one.
        // Each is refused whole before the sink sees it.
        let tmp = TempDir::new("group-refused-accepts");
        let mut cfg = DurabilityConfig::new(tmp.path());
        cfg.checkpoint_every = 0;
        let spec = [StreamSpec { id: NodeId(1), n_nodes: N_NODES, n_items: 4 }];
        let reopen = || {
            let dir = cfg.dir.join("group");
            GroupWal::open(&cfg, dir, &spec, ConflictPolicy::Report, 0).unwrap()
        };
        let (wal, mut replicas, _) = reopen();
        wal.attach(0, &mut replicas[0]);
        replicas[0].update(ItemId(1), UpdateOp::set(&b"kept"[..])).unwrap();
        wal.wait_durable();

        let vv = |e: Vec<u64>| VersionVector::from_entries(e);
        let value = || Bytes::from_static(b"shipped");
        let oob = |item: u32, ivv: Vec<u64>| OobReply {
            item: ItemId(item),
            ivv: vv(ivv),
            value: value(),
            from_aux: false,
        };
        let recon = |item: u32, ivv: Vec<u64>, origin: u16| ReconItem {
            item: ItemId(item),
            ivv: vv(ivv),
            value: value(),
            records: vec![(NodeId(origin), 1)],
        };
        let good_recon = || recon(2, vec![1, 0, 0], 0);
        let whole = |item: u32, ivv: Vec<u64>| {
            DeltaItem::Whole(ShippedItem { item: ItemId(item), ivv: vv(ivv), value: value() })
        };
        let ops = |pre: Vec<Vec<u64>>, final_ivv: Vec<u64>| DeltaItem::Ops {
            item: ItemId(2),
            ops: pre
                .into_iter()
                .map(|p| CachedOp { pre_vv: vv(p), op: UpdateOp::set(value()) })
                .collect(),
            final_ivv: vv(final_ivv),
        };
        let mut tails = vec![Vec::new(); N_NODES];
        tails[0] = vec![LogRecord { item: ItemId(2), m: 1 }];
        let mut unknown_tail = tails.clone();
        unknown_tail[0].push(LogRecord { item: ItemId(9), m: 2 });
        // Evaluating an offer journals nothing: only its apply does.
        let offer = |tails: Vec<Vec<LogRecord>>| DeltaOffer { tails, offers: Vec::new() };
        let mut evaluate =
            |tails| replicas[0].evaluate_delta_offer(NodeId(0), offer(tails)).unwrap().1;
        let (eval, bad_eval) = (evaluate(tails), evaluate(unknown_tail));
        let delta = |items: Vec<DeltaItem>| (DeltaPayload { items }, eval.clone());
        let floor = [0; N_NODES];
        type Accept<'a> = Box<dyn FnOnce(&mut Replica) -> epidb_common::Result<()> + 'a>;
        let cases: Vec<(&str, Accept<'_>, Error)> = vec![
            (
                "oob: unknown item",
                Box::new(move |r| r.accept_oob(NodeId(0), oob(4, vec![1, 0, 0])).map(drop)),
                Error::UnknownItem(ItemId(4)),
            ),
            (
                "oob: narrow IVV",
                Box::new(move |r| r.accept_oob(NodeId(0), oob(2, vec![1, 0])).map(drop)),
                Error::DimensionMismatch { left: N_NODES, right: 2 },
            ),
            (
                "recon: unknown item",
                Box::new(move |r| {
                    let items = vec![good_recon(), recon(4, vec![2, 0, 0], 0)];
                    r.apply_recon_items(NodeId(0), items, &floor).map(drop)
                }),
                Error::UnknownItem(ItemId(4)),
            ),
            (
                "recon: narrow IVV",
                Box::new(move |r| {
                    let items = vec![good_recon(), recon(3, vec![2, 0], 0)];
                    r.apply_recon_items(NodeId(0), items, &floor).map(drop)
                }),
                Error::DimensionMismatch { left: N_NODES, right: 2 },
            ),
            (
                "recon: unknown origin",
                Box::new(move |r| {
                    let items = vec![good_recon(), recon(3, vec![2, 0, 0], 5)];
                    r.apply_recon_items(NodeId(0), items, &floor).map(drop)
                }),
                Error::UnknownNode(NodeId(5)),
            ),
            (
                "delta: unknown item",
                Box::new({
                    let (payload, eval) =
                        delta(vec![whole(2, vec![1, 0, 0]), whole(4, vec![1, 0, 0])]);
                    move |r| r.apply_delta(NodeId(0), payload, eval).map(drop)
                }),
                Error::UnknownItem(ItemId(4)),
            ),
            (
                "delta: narrow final IVV",
                Box::new({
                    let (payload, eval) = delta(vec![ops(vec![vec![0, 0, 0]], vec![1, 0])]);
                    move |r| r.apply_delta(NodeId(0), payload, eval).map(drop)
                }),
                Error::DimensionMismatch { left: N_NODES, right: 2 },
            ),
            (
                "delta: narrow op pre-IVV",
                Box::new({
                    let chain = vec![vec![0, 0, 0], vec![1, 0]];
                    let (payload, eval) = delta(vec![ops(chain, vec![2, 0, 0])]);
                    move |r| r.apply_delta(NodeId(0), payload, eval).map(drop)
                }),
                Error::DimensionMismatch { left: N_NODES, right: 2 },
            ),
            (
                "delta: unknown tail item",
                Box::new(move |r| {
                    r.apply_delta(NodeId(0), DeltaPayload::default(), bad_eval).map(drop)
                }),
                Error::UnknownItem(ItemId(9)),
            ),
        ];
        let (records, fingerprint) = (wal.wal_records(), replicas[0].fingerprint());
        for (case, accept, want) in cases {
            assert_eq!(accept(&mut replicas[0]).unwrap_err(), want, "{case}");
            assert_eq!(wal.wal_records(), records, "{case}: nothing journaled");
            assert_eq!(replicas[0].fingerprint(), fingerprint, "{case}: nothing applied");
        }
        drop(wal);

        let (_wal, recovered, report) = reopen();
        assert_eq!((report.wal_records_replayed, report.replay_errors), (1, 0));
        assert_same_state(&recovered[0], &replicas[0]);
    }

    #[test]
    fn queue_shares_large_values_and_frees_large_buffers() {
        let tmp = TempDir::new("group-reuse");
        let mut cfg = DurabilityConfig::new(tmp.path());
        cfg.checkpoint_every = 0;
        let (wal, _replicas, _) = open(&cfg);
        let sink = GroupSink { shared: wal.shared.clone(), stream: 0 };

        // A 200 KiB value rides through the queue as a shared segment: the
        // written batch hands back a small control buffer, and the value's
        // only reference is the caller's again.
        let value = Bytes::from(vec![2u8; 200 << 10]);
        sink.record(
            (&Mutation::Update { item: ItemId(1), op: UpdateOp::Set(value.clone()) }).into(),
        );
        wal.wait_durable();
        assert!(wal.pending_outgrew(0), "the control buffer is handed back");
        assert!(!wal.pending_outgrew(PENDING_KEEP));
        assert!(value.try_into_vec().is_ok(), "the leader released the value");

        // ~270 KiB of inline values: the record's control buffer moves
        // into the queue instead of being copied into it, and goes with
        // the written batch; the queue's own buffer stays small.
        let items = (0..2048)
            .map(|i| ShippedItem {
                item: ItemId(i % 8),
                ivv: VersionVector::from_entries(vec![0; N_NODES]),
                value: Bytes::from(vec![3u8; 100]),
            })
            .collect();
        let tails = vec![Vec::new(); N_NODES];
        let m =
            Mutation::Propagation { from: NodeId(1), payload: PropagationPayload { tails, items } };
        sink.record((&m).into());
        wal.wait_durable();
        assert!(!wal.pending_outgrew(PENDING_KEEP), "a 270 KiB record is not retained");
    }

    #[test]
    fn byte_trigger_checkpoints_via_maybe() {
        let tmp = TempDir::new("group-bytes");
        let mut cfg = DurabilityConfig::new(tmp.path());
        cfg.checkpoint_every = 0;
        cfg.checkpoint_bytes = 64;
        let (wal, mut replicas, _) = open(&cfg);
        replicas[0].update(ItemId(0), UpdateOp::set(vec![7u8; 200])).unwrap();
        wal.wait_durable();
        let refs: Vec<&Replica> = replicas.iter().collect();
        assert!(wal.maybe_checkpoint(&refs).unwrap());
        assert_eq!(wal.generation(), 1);
        assert!(!wal.maybe_checkpoint(&refs).unwrap());
    }

    #[test]
    fn failed_append_panics_every_waiter_instead_of_hanging() {
        let tmp = TempDir::new("group-fail");
        let cfg = DurabilityConfig::new(tmp.path());
        let (wal, mut replicas, _) = open(&cfg);
        // The failure hook: a read-only handle, so every batch write fails.
        let read_only = File::open(wal_path(&cfg.dir.join("group"), 0)).unwrap();
        wal.shared.state.lock().unwrap().wal = Some(Arc::new(read_only));
        replicas[0].update(ItemId(0), UpdateOp::set(&b"lost"[..])).unwrap();
        let start = Arc::new(std::sync::Barrier::new(2));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let (wal, start) = (wal.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    wal.wait_durable();
                })
            })
            .collect();
        for waiter in waiters {
            let panic = waiter.join().expect_err("a waiter returned from a failed batch");
            let msg = panic.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.starts_with("durable: group WAL append failed"), "{msg}");
        }
        let append =
            std::panic::AssertUnwindSafe(|| replicas[1].update(ItemId(0), UpdateOp::set(vec![1])));
        assert!(std::panic::catch_unwind(append).is_err(), "a later append panics too");
    }
}
