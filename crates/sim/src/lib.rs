#![warn(missing_docs)]

//! `epidb-sim` — deterministic cluster simulation, workload generation,
//! correctness auditing, and the experiment suite reproducing every claim
//! of the paper's evaluation (see DESIGN.md for the experiment index).
//!
//! The simulator is single-process and deterministic: protocol overhead is
//! measured in the *operation counts* the paper's complexity analysis is
//! stated in (version-vector entry comparisons, log records examined, item
//! scans, bytes shipped), so results are exactly reproducible and
//! independent of machine speed. Wall-clock benchmarks live in
//! `epidb-bench` on top of the same machinery.
//! Its one cluster, [`SimCluster`], holds [`epidb_core::ShardedNode`]s:
//! [`EpidbCluster`] is the unsharded view, [`ShardedSimCluster`] the
//! sharded one.

pub mod audit;
pub mod cluster;
pub mod driver;
pub mod experiments;
pub mod schedule;
pub mod sharded;
pub mod table;
pub mod workload;

pub use audit::{histories_conflict, run_audit, AuditConfig, AuditReport};
pub use cluster::{EpidbCluster, SimCluster};
pub use driver::{Driver, DriverConfig};
pub use schedule::Schedule;
pub use sharded::ShardedSimCluster;
pub use table::{fmt_count, Table};
pub use workload::{GeneratedUpdate, Workload, WorkloadKind};
