#![warn(missing_docs)]

//! Shared foundation types for the `epidb` workspace.
//!
//! This crate deliberately has no dependencies. It provides:
//!
//! * [`NodeId`] / [`ItemId`] — strongly typed identifiers for servers and
//!   data items (the paper assumes a fixed set of servers replicating a
//!   database of data items, §2).
//! * [`Costs`] — the cost-accounting counters used to reproduce the paper's
//!   analytical overhead claims (§6). The paper argues about *counts* —
//!   version-vector entry comparisons, log records examined, items scanned —
//!   so every protocol in this workspace meters those counts explicitly
//!   rather than relying only on wall-clock time.
//! * [`ConflictEvent`] — the "declare inconsistent replicas" events of the
//!   protocol (§5, correctness criterion 1 of §2.1).
//! * [`Error`] — the shared error type.
//! * [`FnvHasher`] — the stable hash behind model-checker fingerprints and
//!   reconciliation digests.

pub mod conflict;
pub mod costs;
pub mod error;
pub mod fnv;
pub mod ids;
pub mod trace;

pub use conflict::{ConflictEvent, ConflictSite};
pub use costs::Costs;
pub use error::{Error, InvariantViolation, Result};
pub use fnv::FnvHasher;
pub use ids::{ItemId, NodeId, ShardId};
pub use trace::{OrdTag, TraceEvent, TraceRing, TraceStep};
