//! The durable layer's files: [`DurabilityConfig`], WAL open and scan,
//! generation listing, atomic snapshot writes and snapshot loads.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use epidb_common::{Error, NodeId, Result};
use epidb_core::Replica;

use crate::frames::{read_frames, stream_snapshot};
use crate::header::{decode_header, is_header, WalHeader};

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
}

pub(crate) fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Network(format!("durable {what} {}: {e}", path.display()))
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
