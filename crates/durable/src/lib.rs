//! On-disk durability for epidb replicas.
//!
//! The paper's operational model assumes a server can disappear for a long
//! time and "simply resume anti-entropy from its last durable state". This
//! crate makes that literal: a per-node directory holding
//!
//! * a **write-ahead log** (`wal-<gen>.log`) — an append-only file of
//!   CRC-framed [`Mutation`](epidb_core::Mutation) records, one per
//!   durable state change, written *before* the in-memory application
//!   (see [`epidb_core::journal`]);
//! * a **snapshot** per replica (`snap-<gen>-<stream>.epdb`) — its full
//!   durable state ([`Replica::to_snapshot`](epidb_core::Replica::to_snapshot))
//!   wrapped in the same CRC frame, written temp-file → fsync → atomic rename. It
//!   is streamed there in ~64 KiB pieces
//!   ([`Replica::write_snapshot`](epidb_core::Replica::write_snapshot))
//!   under a running CRC, the header written last in place, so a
//!   checkpoint never holds the encoded replica whole.
//!
//! A **checkpoint** rolls the WAL into a new snapshot generation: write
//! every `snap-<g+1>-*`, start an empty `wal-<g+1>`, then delete the old
//! generation. Every step is crash-safe — a crash at any point leaves
//! either the old generation intact or both generations on disk, and
//! recovery picks the newest one that passes its checks.
//!
//! **Recovery** ([`GroupWal::open`]) = newest valid snapshot generation +
//! replay of that generation's WAL. The WAL tail is read tolerantly: a
//! frame with a short header, short body, or CRC mismatch is a *torn
//! tail* — the file is truncated to the last valid frame and recovery
//! proceeds with the clean prefix (truncating the WAL at **any** byte
//! offset yields a valid prefix, never a panic). A frame whose CRC verifies but whose body does
//! not decode cannot be a torn write; that is real corruption and surfaces
//! as the non-retryable
//! [`Error::CorruptSnapshot`](epidb_common::Error::CorruptSnapshot).
//!
//! Every WAL generation opens with a **header record** ([`WalHeader`]):
//! the conflict policy and delta budget are journaled, so recovery is
//! config-free.
//!
//! There is one WAL, [`GroupWal`]. It multiplexes every stream (one
//! replica each: the node's replica, or one per owned shard) of a node
//! into **one shared WAL** behind a commit queue — one fsync per *batch*
//! instead of per record (group commit). No thread of its own:
//! [`GroupWal::wait_durable`], the acknowledgement gate, writes the queue
//! itself (leader) unless a batch is in flight, and then waits for it
//! (follower). Snapshots are per stream (`snap-<gen>-<stream>.epdb`),
//! written together at each checkpoint.

#![warn(missing_docs)]

mod files;
mod frames;
mod group;
mod header;
pub mod testdir;

pub use files::DurabilityConfig;
pub use frames::{read_frames, write_frame, FrameScan, WAL_FRAME_HEADER};
pub use group::{GroupCommitStats, GroupWal, RecoveryReport, StreamSpec};
pub use header::WalHeader;
