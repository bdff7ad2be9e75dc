//! Per-node durability: WAL appending, checkpointing, and recovery.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use epidb_common::{Error, NodeId, Result, ShardId};
use epidb_core::codec::{Reader, Writer};
use epidb_core::journal::{get_mutation, put_mutation};
use epidb_core::{ConflictPolicy, Mutation, MutationSink, Replica, ShardedNode, SinkHandle};

use crate::frames::{read_frames, stream_snapshot, write_frame};
use crate::header::{decode_header, encode_header, is_header, WalHeader};

/// Durability settings for a cluster runtime.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Root directory; each node gets a `node-<id>` subdirectory.
    pub dir: PathBuf,
    /// Checkpoint (roll the WAL into a snapshot) after this many WAL
    /// records. `0` disables the record-count trigger.
    pub checkpoint_every: u64,
    /// Checkpoint once the current WAL holds this many bytes. `0`
    /// disables the byte trigger. Record-count and byte triggers compose:
    /// whichever fires first rolls the WAL — bytes bound recovery-replay
    /// *time* where record counts cannot (one record can be huge).
    pub checkpoint_bytes: u64,
    /// Snapshot generations retained after a checkpoint (minimum 1, the
    /// newest). Older generations are pruned only after the newer
    /// snapshot and its fresh WAL are fully fsynced, so `N > 1` keeps a
    /// bit-rot fallback: recovery walks back to the newest generation
    /// that still passes its checks and replays every retained WAL from
    /// there forward.
    pub retain_generations: usize,
    /// Fsync the WAL after every appended record. Off, records are
    /// buffered by the OS (still crash-consistent thanks to the torn-tail
    /// rule, but the tail may be lost on power failure).
    pub fsync: bool,
}

impl DurabilityConfig {
    /// Config rooted at `dir` with moderate defaults (checkpoint every 64
    /// records, no byte trigger, one retained generation, no per-record
    /// fsync).
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_every: 64,
            checkpoint_bytes: 0,
            retain_generations: 1,
            fsync: false,
        }
    }

    /// The per-node state directory.
    pub fn node_dir(&self, id: NodeId) -> PathBuf {
        self.dir.join(format!("node-{}", id.0))
    }

    /// The derived config for one shard of a sharded deployment: same
    /// knobs, rooted at `<dir>/shard-<id>`. Each shard a node owns gets
    /// its own WAL/snapshot directory (`<dir>/shard-<s>/node-<n>/`), so
    /// per-shard journals checkpoint, recover, and hand off independently.
    pub fn shard_config(&self, shard: ShardId) -> DurabilityConfig {
        DurabilityConfig { dir: self.dir.join(format!("shard-{}", shard.0)), ..self.clone() }
    }
}

/// What recovery found on disk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The generation recovered into (and now being appended to).
    pub generation: u64,
    /// Whether a snapshot file was loaded (false = started from scratch).
    pub snapshot_loaded: bool,
    /// The generation of the snapshot that was loaded (0 when none). Can
    /// trail `generation` when recovery fell back past a corrupt newer
    /// snapshot and replayed the surviving WALs forward.
    pub snapshot_generation: u64,
    /// WAL records replayed on top of the snapshot.
    pub wal_records_replayed: u64,
    /// Bytes discarded from the WAL tail (torn-write truncation).
    pub wal_bytes_truncated: u64,
    /// Replayed mutations that returned an error (deterministic replays of
    /// calls that failed identically when live; noted, not fatal).
    pub replay_errors: u64,
}

pub(crate) fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Network(format!("durable {what} {}: {e}", path.display()))
}

fn snap_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snap-{generation}.epdb"))
}

pub(crate) fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation}.log"))
}

/// Open `wal-<generation>` in `dir` for appending. A WAL with no valid
/// bytes (fresh, or fully torn) gets the header record first, made durable
/// before any mutation can land behind it. Returns the file and its length.
pub(crate) fn open_wal(
    dir: &Path,
    generation: u64,
    header_frame: &[u8],
    valid_len: u64,
) -> Result<(File, u64)> {
    let path = wal_path(dir, generation);
    let wal = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| io_err("open", &path, e))?;
    if valid_len > 0 {
        return Ok((wal, valid_len));
    }
    (&wal).write_all(header_frame).map_err(|e| io_err("write", &path, e))?;
    wal.sync_all().map_err(|e| io_err("fsync", &path, e))?;
    Ok((wal, header_frame.len() as u64))
}

/// A forward scan of a node's retained WALs, in log order.
pub(crate) struct WalScan {
    /// The generation appends resume in.
    pub(crate) resume_gen: u64,
    /// The newest journaled header (what the resumed WAL was journaled
    /// under).
    pub(crate) header: Option<WalHeader>,
    /// Mutation record bodies, headers excluded.
    pub(crate) records: Vec<Bytes>,
    /// Torn bytes across every scanned WAL.
    pub(crate) torn_bytes: u64,
    /// The resumed WAL's path, valid length, torn bytes and records.
    resumed: Option<(PathBuf, usize, usize, u64)>,
}

/// Scan every WAL in `dir` from the loaded snapshot's generation forward
/// (snapshot `g` includes everything up to the end of WAL `g-1`, so WALs
/// `g..` hold exactly the mutations past the snapshot — possibly several
/// generations of them when a newer snapshot was lost and recovery fell
/// back). On a fresh start the scan begins at the oldest retained WAL.
pub(crate) fn scan_wals(dir: &Path, snapshot_gen: Option<u64>) -> Result<WalScan> {
    let gens = list_generations(dir, "wal", ".log")?;
    let from = snapshot_gen.unwrap_or_else(|| gens.first().copied().unwrap_or(0));
    let base = snapshot_gen.unwrap_or(0);
    let resume_gen = base.max(gens.last().copied().unwrap_or(base));
    let mut out =
        WalScan { resume_gen, header: None, records: Vec::new(), torn_bytes: 0, resumed: None };
    for &gen in gens.iter().filter(|&&g| g >= from) {
        let path = wal_path(dir, gen);
        let raw = fs::read(&path).map_err(|e| io_err("read", &path, e))?;
        let scan = read_frames(&Bytes::from(raw));
        out.torn_bytes += scan.torn_bytes as u64;
        let before = out.records.len();
        for body in scan.bodies {
            if is_header(&body) {
                out.header = Some(decode_header(&body)?);
            } else {
                out.records.push(body);
            }
        }
        if gen == resume_gen {
            let records = (out.records.len() - before) as u64;
            out.resumed = Some((path, scan.valid_len, scan.torn_bytes, records));
        }
    }
    Ok(out)
}

impl WalScan {
    /// Truncate the resumed WAL's torn tail so appends extend the valid
    /// prefix; return its valid bytes and mutation records. Older
    /// generations are left as-is: their torn bytes (if any) are already
    /// counted and the files are pruned at the next checkpoint.
    pub(crate) fn truncate_resumed(&self) -> Result<(u64, u64)> {
        let Some((path, valid_len, torn, records)) = &self.resumed else { return Ok((0, 0)) };
        if *torn > 0 {
            let f =
                OpenOptions::new().write(true).open(path).map_err(|e| io_err("open", path, e))?;
            f.set_len(*valid_len as u64).map_err(|e| io_err("truncate", path, e))?;
            f.sync_all().map_err(|e| io_err("fsync", path, e))?;
        }
        Ok((*valid_len as u64, *records))
    }
}

/// List the generations of files in `dir` matching `prefix-<gen>.<ext>`.
pub(crate) fn list_generations(dir: &Path, prefix: &str, ext: &str) -> Result<Vec<u64>> {
    let mut gens = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| io_err("read dir", dir, e))? {
        let entry = entry.map_err(|e| io_err("read dir", dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(rest) = name.strip_prefix(prefix).and_then(|r| r.strip_prefix('-')) {
            if let Some(gen) = rest.strip_suffix(ext).and_then(|g| g.parse::<u64>().ok()) {
                gens.push(gen);
            }
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

pub(crate) fn fsync_dir(dir: &Path) -> Result<()> {
    // Durability of creates/renames/deletes requires syncing the directory
    // itself on POSIX systems.
    File::open(dir).and_then(|d| d.sync_all()).map_err(|e| io_err("fsync dir", dir, e))
}

/// Write a file atomically: `fill` writes a temp file in the same
/// directory, which is fsynced and renamed over `path`, then the directory
/// is fsynced. If `fill` fails, `path` is untouched and the temp file is
/// left behind (recovery never reads it; the next attempt truncates it).
pub(crate) fn atomic_write_with(
    dir: &Path,
    path: &Path,
    fill: impl FnOnce(&File) -> std::io::Result<()>,
) -> Result<()> {
    let tmp = path.with_extension("tmp");
    let f = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
    fill(&f).map_err(|e| io_err("write", &tmp, e))?;
    f.sync_all().map_err(|e| io_err("fsync", &tmp, e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| io_err("rename", path, e))?;
    fsync_dir(dir)
}

/// Checkpoint `replica` to the snapshot file `path`, atomically and
/// streamed: the file is one frame ([`stream_snapshot`]) whose header is
/// written last, in place, so no step holds the encoded replica whole.
pub(crate) fn write_snapshot_file(dir: &Path, path: &Path, replica: &Replica) -> Result<()> {
    atomic_write_with(dir, path, |mut file| {
        let header = stream_snapshot(&mut file, replica)?;
        file.write_all_at(&header, 0)
    })
}

struct Inner {
    dir: PathBuf,
    fsync: bool,
    checkpoint_every: u64,
    checkpoint_bytes: u64,
    retain_generations: usize,
    generation: u64,
    wal: File,
    /// Records appended to the current WAL since the last checkpoint.
    wal_records: u64,
    /// Bytes in the current WAL (frames, including the header record).
    wal_bytes: u64,
    /// The encoded header frame written at the head of every fresh WAL.
    header_frame: Vec<u8>,
}

/// The durable backing of one replica: an open WAL plus the checkpoint
/// machinery. Implements [`MutationSink`], so an `Arc<NodeDurability>`
/// plugs straight into [`Replica::set_mutation_sink`] (via
/// [`NodeDurability::attach`]).
pub struct NodeDurability {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for NodeDurability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("NodeDurability")
            .field("dir", &inner.dir)
            .field("generation", &inner.generation)
            .field("wal_records", &inner.wal_records)
            .finish()
    }
}

impl NodeDurability {
    /// Open the durable state for node `id` under `cfg.dir`, recovering a
    /// replica from disk: newest valid snapshot generation, plus a
    /// torn-tail-tolerant replay of that generation's WAL. First start
    /// (empty directory) yields a fresh replica.
    ///
    /// The returned replica has **no sink attached** (so the recovery
    /// itself is not re-journaled); call [`NodeDurability::attach`] once
    /// any runtime reconfiguration (delta cache, paranoid mode) is done.
    pub fn open(
        cfg: &DurabilityConfig,
        id: NodeId,
        n_nodes: usize,
        n_items: usize,
        policy: ConflictPolicy,
    ) -> Result<(Arc<NodeDurability>, Replica, RecoveryReport)> {
        NodeDurability::open_with(cfg, id, n_nodes, n_items, policy, 0)
    }

    /// As [`NodeDurability::open`], with a delta op-cache budget. `policy`
    /// and `delta_budget` are *fresh-start defaults*: every WAL generation
    /// starts with a header record journaling the pair, and when a header
    /// is recovered it overrides the arguments — recovery is config-free
    /// (the disk says what configuration the journaled mutations assume).
    /// The returned replica already has its delta cache enabled per the
    /// effective budget.
    pub fn open_with(
        cfg: &DurabilityConfig,
        id: NodeId,
        n_nodes: usize,
        n_items: usize,
        policy: ConflictPolicy,
        delta_budget: usize,
    ) -> Result<(Arc<NodeDurability>, Replica, RecoveryReport)> {
        let dir = cfg.node_dir(id);
        fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, e))?;

        let snap_gens = list_generations(&dir, "snap", ".epdb")?;

        // Newest snapshot that passes every check wins; a corrupt newest
        // generation (e.g. bit rot, or a rename that never became durable)
        // falls back to an older one, which checkpointing retains per
        // `retain_generations` and deletes only after its successors are
        // safely in place.
        let mut report = RecoveryReport::default();
        let mut replica = None;
        let mut last_snap_err = None;
        for &gen in snap_gens.iter().rev() {
            match load_snapshot(&snap_path(&dir, gen)) {
                Ok(r) => {
                    report.generation = gen;
                    report.snapshot_loaded = true;
                    report.snapshot_generation = gen;
                    replica = Some(r);
                    break;
                }
                Err(e) => last_snap_err = Some(e),
            }
        }
        if replica.is_none() {
            if let Some(e) = last_snap_err {
                // Snapshots existed but none loads: refusing loudly beats
                // silently restarting empty and re-serving stale
                // anti-entropy as if the node were new.
                return Err(e);
            }
        }

        let wals = scan_wals(&dir, replica.as_ref().map(|_| report.generation))?;
        report.wal_bytes_truncated = wals.torn_bytes;
        let (header, resume_gen) = (wals.header, wals.resume_gen);

        // Construct (or validate) the replica now that any journaled
        // header is known: a fresh start adopts the journaled policy.
        let effective_policy = match (&replica, header) {
            (None, Some(h)) => h.policy,
            _ => policy,
        };
        let mut replica = match replica {
            Some(r) => r,
            None => {
                report.generation = resume_gen;
                Replica::with_policy(id, n_nodes, n_items, effective_policy)
            }
        };
        if replica.id() != id || replica.n_nodes() != n_nodes || replica.n_items() != n_items {
            return Err(Error::CorruptSnapshot(format!(
                "recovered state is for node {} ({} nodes, {} items), expected node {id} \
                 ({n_nodes} nodes, {n_items} items)",
                replica.id(),
                replica.n_nodes(),
                replica.n_items(),
            )));
        }

        for body in &wals.records {
            let mut r = Reader::shared(body);
            let m = decode_wal_record(&mut r, body)?;
            if replica.replay_mutation(m).is_err() {
                report.replay_errors += 1;
            }
            report.wal_records_replayed += 1;
        }
        report.generation = resume_gen;

        let (wal_bytes, wal_records) = wals.truncate_resumed()?;

        // The effective configuration: journaled header wins, arguments
        // are the fresh-start default. It seeds the header of this and
        // every future generation of this WAL.
        let effective = header
            .unwrap_or(WalHeader { policy: effective_policy, delta_budget: delta_budget as u64 });
        if effective.delta_budget > 0 {
            replica.enable_delta(effective.delta_budget as usize);
        }
        let header_frame = write_frame(&encode_header(&effective));

        let (wal, wal_bytes) = open_wal(&dir, resume_gen, &header_frame, wal_bytes)?;

        let durability = Arc::new(NodeDurability {
            inner: Mutex::new(Inner {
                dir,
                fsync: cfg.fsync,
                checkpoint_every: cfg.checkpoint_every,
                checkpoint_bytes: cfg.checkpoint_bytes,
                retain_generations: cfg.retain_generations.max(1),
                generation: resume_gen,
                wal,
                wal_records,
                wal_bytes,
                header_frame,
            }),
        });
        replica.check_invariants().map_err(Error::CorruptSnapshot)?;
        Ok((durability, replica, report))
    }

    /// Attach this durability layer as the replica's mutation sink.
    pub fn attach(self: &Arc<Self>, replica: &mut Replica) {
        replica.set_mutation_sink(Some(SinkHandle::new(self.clone())));
    }

    /// The current snapshot/WAL generation.
    pub fn generation(&self) -> u64 {
        self.inner.lock().unwrap().generation
    }

    /// Records in the current WAL (since the last checkpoint).
    pub fn wal_records(&self) -> u64 {
        self.inner.lock().unwrap().wal_records
    }

    /// Checkpoint if the WAL has reached the configured record count or
    /// byte size (whichever trigger fires first; see
    /// [`DurabilityConfig::checkpoint_bytes`]). Callers invoke this
    /// *after* a batch of operations, while still holding whatever lock
    /// guards `replica` — never from inside the sink (the replica is
    /// mid-mutation there).
    pub fn maybe_checkpoint(&self, replica: &Replica) -> Result<bool> {
        let mut inner = self.inner.lock().unwrap();
        let by_records = inner.checkpoint_every > 0 && inner.wal_records >= inner.checkpoint_every;
        let by_bytes = inner.checkpoint_bytes > 0 && inner.wal_bytes >= inner.checkpoint_bytes;
        if !by_records && !by_bytes {
            return Ok(false);
        }
        inner.checkpoint(replica)?;
        Ok(true)
    }

    /// Checkpoint unconditionally: roll the WAL into a new snapshot
    /// generation.
    pub fn checkpoint(&self, replica: &Replica) -> Result<()> {
        self.inner.lock().unwrap().checkpoint(replica)
    }

    /// Read the current generation's WAL records after the first `skip` —
    /// the *tail* a shard handoff ships on top of a snapshot taken when
    /// the WAL held `skip` records (see [`NodeDurability::wal_records`]).
    /// Torn trailing bytes are ignored, exactly as in recovery.
    pub fn read_wal_tail(&self, skip: u64) -> Result<Vec<Mutation>> {
        let (path, records) = {
            let inner = self.inner.lock().unwrap();
            (wal_path(&inner.dir, inner.generation), inner.wal_records)
        };
        if skip > records {
            return Err(Error::Network(format!(
                "durable: WAL tail skip {skip} exceeds {records} records"
            )));
        }
        let raw = fs::read(&path).map_err(|e| io_err("read", &path, e))?;
        let buf = Bytes::from(raw);
        let scan = read_frames(&buf);
        let mut tail = Vec::new();
        // `skip` counts *mutation* records (the unit `wal_records`
        // reports); the header record is configuration, not state.
        for body in scan.bodies.iter().filter(|b| !is_header(b)).skip(skip as usize) {
            let mut r = Reader::shared(body);
            tail.push(decode_wal_record(&mut r, body)?);
        }
        Ok(tail)
    }
}

/// Per-shard durability for one sharded node: one [`NodeDurability`] (its
/// own WAL/snapshot directory) per owned shard.
pub struct ShardedDurability {
    shards: std::collections::BTreeMap<ShardId, Arc<NodeDurability>>,
}

impl ShardedDurability {
    /// Open (or recover) durable state for every shard `node` owns,
    /// attach each shard's sink, and return the per-shard recovery
    /// reports. Shards whose directories don't exist yet start fresh;
    /// recovered shard replicas replace the node's empty ones.
    ///
    /// Attachment happens after each shard's replay, so recovery is never
    /// re-journaled — the same discipline as [`NodeDurability::open`].
    pub fn open(
        cfg: &DurabilityConfig,
        node: &mut ShardedNode,
        policy: ConflictPolicy,
    ) -> Result<(ShardedDurability, std::collections::BTreeMap<ShardId, RecoveryReport>)> {
        let mut shards = std::collections::BTreeMap::new();
        let mut reports = std::collections::BTreeMap::new();
        let items_per_shard = node.map().items_per_shard();
        let n_nodes = node.n_nodes();
        for shard in node.owned_shards() {
            let shard_cfg = cfg.shard_config(shard);
            let (durability, mut replica, report) =
                NodeDurability::open(&shard_cfg, node.id(), n_nodes, items_per_shard, policy)?;
            durability.attach(&mut replica);
            node.adopt_shard(shard, replica);
            shards.insert(shard, durability);
            reports.insert(shard, report);
        }
        Ok((ShardedDurability { shards }, reports))
    }

    /// The durability layer of one owned shard.
    pub fn shard(&self, shard: ShardId) -> Option<&Arc<NodeDurability>> {
        self.shards.get(&shard)
    }

    /// Checkpoint any owned shard whose WAL has reached the configured
    /// record count. Returns the shards checkpointed.
    pub fn maybe_checkpoint(&self, node: &ShardedNode) -> Result<Vec<ShardId>> {
        let mut rolled = Vec::new();
        for (shard, durability) in &self.shards {
            if let Some(replica) = node.shard_state(*shard) {
                if durability.maybe_checkpoint(replica)? {
                    rolled.push(*shard);
                }
            }
        }
        Ok(rolled)
    }

    /// Drop a shard's durability handle (after a handoff away from this
    /// node). The on-disk directory is left for the operator to reap.
    pub fn detach_shard(&mut self, shard: ShardId) {
        self.shards.remove(&shard);
    }

    /// Attach durability for a shard that just arrived via handoff.
    pub fn attach_shard(&mut self, shard: ShardId, durability: Arc<NodeDurability>) {
        self.shards.insert(shard, durability);
    }
}

impl Inner {
    fn checkpoint(&mut self, replica: &Replica) -> Result<()> {
        let next = self.generation + 1;
        let snap = snap_path(&self.dir, next);
        write_snapshot_file(&self.dir, &snap, replica)?;

        // Fresh WAL for the new generation — header first, durable before
        // the old generations go away.
        let (wal, wal_bytes) = open_wal(&self.dir, next, &self.header_frame, 0)?;
        fsync_dir(&self.dir)?;

        self.generation = next;
        self.wal = wal;
        self.wal_records = 0;
        self.wal_bytes = wal_bytes;

        // Prune generations beyond the retention window — only now, with
        // the newer snapshot and its WAL fully fsynced (a crash before
        // these deletes just leaves extra files; recovery prefers the
        // newest valid snapshot). Retaining N > 1 generations keeps
        // `snap-<g>` *and* `wal-<g>` for each retained `g`: recovering
        // from snapshot `g` needs every WAL from `g` forward.
        let keep_from = next.saturating_sub(self.retain_generations.max(1) as u64 - 1);
        for gen in list_generations(&self.dir, "snap", ".epdb")? {
            if gen < keep_from {
                let _ = fs::remove_file(snap_path(&self.dir, gen));
            }
        }
        for gen in list_generations(&self.dir, "wal", ".log")? {
            if gen < keep_from {
                let _ = fs::remove_file(wal_path(&self.dir, gen));
            }
        }
        Ok(())
    }

    fn append(&mut self, m: &Mutation) {
        let mut w = Writer::new();
        put_mutation(&mut w, m);
        let frame = write_frame(&w.into_bytes());
        // The sink API cannot report errors, and dropping a record would
        // silently break the write-ahead contract: fail loudly instead, as
        // a real server losing its disk would.
        self.wal.write_all(&frame).expect("durable: WAL append failed");
        if self.fsync {
            self.wal.sync_data().expect("durable: WAL fsync failed");
        }
        self.wal_records += 1;
        self.wal_bytes += frame.len() as u64;
    }
}

impl MutationSink for NodeDurability {
    fn record(&self, m: &Mutation) {
        self.inner.lock().unwrap().append(m);
    }
}

/// Build the replica a crash-and-recover of `live` would produce — the
/// model checker's crash semantics, grounded against this crate's real
/// disk recovery.
///
/// Because every state change is journaled *before* it applies (see
/// [`epidb_core::journal`]), the WAL always covers the full in-memory
/// durable state: recovery (snapshot + WAL replay) reconstructs exactly
/// what [`Replica::to_snapshot`] captures right now. A crash therefore
/// loses only the ephemeral remainder — cost counters, pending conflict
/// reports, the op cache, traces — plus any runtime-only configuration
/// the operator reapplies on restart.
///
/// The twin restarts with a cold op cache, re-enabled at `delta_budget`
/// (matching the journaled WAL-header config). Real recovery is cold too:
/// [`NodeDurability::open_with`] replays the WAL *before* enabling the
/// delta cache, so replayed updates cache nothing. A cold cache only
/// degrades delta rounds to whole-item shipping — it cannot change
/// protocol correctness, which is what the checker verifies. The
/// `crash_twin_matches_disk_recovery` tests pin exact state equality (by
/// [`Replica::fingerprint`]) against a real crash-and-reopen, both from a
/// checkpoint and from pure WAL replay (where only the `restored` marker
/// legitimately differs — replay rebuilds state without a snapshot load).
pub fn crash_recovered_twin(live: &Replica, delta_budget: usize) -> Result<Replica> {
    let mut twin = Replica::from_snapshot(&live.to_snapshot())?;
    if delta_budget > 0 {
        twin.enable_delta(delta_budget);
    }
    Ok(twin)
}

/// Load and fully validate a snapshot file (CRC frame + snapshot decode).
pub(crate) fn load_snapshot(path: &Path) -> Result<Replica> {
    let raw = fs::read(path).map_err(|e| io_err("read", path, e))?;
    let buf = Bytes::from(raw);
    let scan = read_frames(&buf);
    if scan.bodies.len() != 1 || scan.torn_bytes != 0 {
        return Err(Error::CorruptSnapshot(format!(
            "{}: expected one intact frame, found {} frame(s) and {} torn byte(s)",
            path.display(),
            scan.bodies.len(),
            scan.torn_bytes
        )));
    }
    Replica::from_snapshot_shared(&scan.bodies[0])
}

/// Decode one CRC-verified WAL frame body. The CRC already passed, so a
/// decode failure here is corruption, not a torn write.
fn decode_wal_record(r: &mut Reader<'_>, body: &Bytes) -> Result<Mutation> {
    let m = get_mutation(r)
        .map_err(|e| Error::CorruptSnapshot(format!("WAL record ({} bytes): {e}", body.len())))?;
    if r.remaining() != 0 {
        return Err(Error::CorruptSnapshot(format!(
            "WAL record: {} trailing bytes after mutation",
            r.remaining()
        )));
    }
    Ok(m)
}
