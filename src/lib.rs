#![warn(missing_docs)]

//! # epidb
//!
//! A production-quality Rust implementation of
//! *Rabinovich, Gehani & Kononov, "Scalable Update Propagation in Epidemic
//! Replicated Databases"* (EDBT 1996) — database version vectors, the
//! compacted log vector, out-of-bound copying with intra-node propagation —
//! together with the baselines the paper compares against (per-item version
//! vectors, Lotus Notes, Oracle Symmetric Replication, Wuu–Bernstein
//! gossip), a deterministic simulator with a correctness auditor, a live
//! socket runtime, and a benchmark/experiment harness.
//!
//! This crate is a facade: it re-exports the workspace's public API. See
//! the individual crates for details:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`vv`] | item & database version vectors (§3, §4.1) |
//! | [`store`] | items, values, re-doable update operations (§2, §4.4) |
//! | [`log`] | the log vector and auxiliary log (§4.2, §4.4, Fig. 1) |
//! | [`core`] | the protocol: replicas, propagation, OOB, tokens (§5), the transport-agnostic engine + wire codec, sharded partial replication (shard maps, routing, handoff) |
//! | [`durable`] | on-disk durability: one group-commit write-ahead log per node (one stream per replica or owned shard), atomic snapshot checkpoints, crash recovery, WAL tails for shard handoff |
//! | [`mc`] | exhaustive protocol model checker: bounded exploration of message/crash interleavings with invariant predicates and minimized counterexamples |
//! | [`net`] | the TCP cluster runtime (an engine adapter) with fault injection, every node served by one epoll reactor; a sharded variant gossiping per owned shard |
//! | [`baselines`] | the §8 comparison protocols |
//! | [`sim`] | simulator, workloads, auditor, experiment suite |
//!
//! # Quick start
//!
//! ```
//! use epidb::prelude::*;
//!
//! // Three servers replicating a 10_000-item database.
//! let mut a = Replica::new(NodeId(0), 3, 10_000);
//! let mut b = Replica::new(NodeId(1), 3, 10_000);
//! let mut c = Replica::new(NodeId(2), 3, 10_000);
//!
//! // Users update single replicas...
//! a.update(ItemId(17), UpdateOp::set(&b"design.doc v1"[..])).unwrap();
//! b.update(ItemId(99), UpdateOp::set(&b"notes"[..])).unwrap();
//!
//! // ...anti-entropy propagates, paying O(items-copied), not O(10_000).
//! pull(&mut b, &mut a).unwrap();
//! pull(&mut c, &mut b).unwrap(); // transitive: c gets a's update via b
//! assert_eq!(c.read(ItemId(17)).unwrap().as_bytes(), b"design.doc v1");
//!
//! // Identical replicas are recognized from the DBVVs alone, in O(n).
//! assert!(matches!(pull(&mut c, &mut b).unwrap(), PullOutcome::UpToDate));
//! ```

pub use epidb_baselines as baselines;
pub use epidb_common as common;
pub use epidb_core as core;
pub use epidb_durable as durable;
pub use epidb_log as log;
pub use epidb_mc as mc;
pub use epidb_net as net;
pub use epidb_sim as sim;
pub use epidb_store as store;
pub use epidb_vv as vv;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use epidb_baselines::{SyncProtocol, SyncReport};
    pub use epidb_common::{
        ConflictEvent, ConflictSite, Costs, Error, ItemId, NodeId, Result, ShardId,
    };
    pub use epidb_core::{
        oob_copy, pull, pull_delta, AcceptOutcome, ConflictPolicy, Engine, LocalTransport,
        OobOutcome, ProtocolRequest, ProtocolResponse, PullOutcome, Replica, ReplicaHost, ShardMap,
        ShardedNode, ShardedOob, TokenManager, Transport,
    };
    pub use epidb_store::{ItemValue, UpdateOp};
    pub use epidb_vv::{DbVersionVector, VersionVector, VvOrd};
}
