#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

//! `epidb-core` — the scalable update-propagation protocol of
//! *Rabinovich, Gehani & Kononov, "Scalable Update Propagation in Epidemic
//! Replicated Databases"* (EDBT 1996).
//!
//! # The idea
//!
//! Classic epidemic (anti-entropy) replication compares the version
//! information of **every** data item between two replicas, so each
//! anti-entropy round costs O(N) in the total number of items N. This
//! protocol instead associates a *database version vector* (DBVV) with each
//! database replica: comparing two DBVVs detects in constant time (O(n) in
//! the fixed server count) whether any propagation is needed at all, and a
//! per-origin *log vector* that retains only the latest record per
//! (origin, item) lets the source compute exactly what to ship in O(m),
//! where m is the number of items actually copied.
//!
//! Individual hot items can still be fetched at any time via
//! *out-of-bound copying*, which is kept in parallel auxiliary structures
//! (auxiliary copy, auxiliary IVV, auxiliary log) so it never perturbs the
//! ordering invariants scheduled propagation relies on; a background
//! *intra-node propagation* replays auxiliary updates onto the regular copy
//! once it catches up.
//!
//! # Quick start
//!
//! ```
//! use epidb_common::{ItemId, NodeId};
//! use epidb_core::{pull, PullOutcome, Replica};
//! use epidb_store::UpdateOp;
//!
//! // Two servers replicating a 1000-item database.
//! let mut a = Replica::new(NodeId(0), 2, 1000);
//! let mut b = Replica::new(NodeId(1), 2, 1000);
//!
//! // A few updates land at server A...
//! a.update(ItemId(7), UpdateOp::set(&b"hello"[..])).unwrap();
//! a.update(ItemId(9), UpdateOp::set(&b"world"[..])).unwrap();
//!
//! // ...and anti-entropy brings B up to date, touching only the 2 items
//! // that changed — not all 1000.
//! let outcome = pull(&mut b, &mut a).unwrap();
//! assert_eq!(outcome.copied().len(), 2);
//! assert_eq!(b.read(ItemId(7)).unwrap().as_bytes(), b"hello");
//!
//! // A second pull detects "nothing to do" from the DBVVs alone.
//! assert!(matches!(pull(&mut b, &mut a).unwrap(), PullOutcome::UpToDate));
//! ```

pub mod chaos;
pub mod codec;
pub mod delta;
pub mod engine;
pub mod journal;
pub mod mc_state;
pub mod messages;
pub mod oob;
pub mod opcache;
pub mod paranoid;
pub mod policy;
pub mod propagation;
pub mod recon;
pub mod replica;
pub mod retry;
pub mod rounds;
pub mod shard;
pub mod snapshot;
pub mod tokens;

mod intranode;

pub use chaos::{ChaosLink, ChaosStats, ChaosTransport, FaultPlan, PartitionWindow};
pub use delta::{
    pull_delta, DeltaItem, DeltaOffer, DeltaOfferResponse, DeltaPayload, DeltaRequest,
};
pub use engine::{
    Engine, GossipBudget, LocalTransport, ProtocolRequest, ProtocolResponse, ReplicaHost,
    ShardTransport, Transport,
};
pub use journal::{Mutation, MutationRef, MutationSink, SinkHandle};
pub use mc_state::{FnvHasher, McShardedSnapshot, McSnapshot};
pub use messages::{
    FullPullReply, OobReply, PropagationPayload, PropagationResponse, ReconItem, ReconReply,
    ShippedItem,
};
pub use oob::{oob_copy, OobOutcome};
pub use opcache::{CachedOp, OpCache};
pub use paranoid::{AuditCheck, AuditViolation, ParanoidReport, ReplicaAuditor};
pub use policy::ConflictPolicy;
pub use propagation::{pull, AcceptOutcome, PullOutcome};
pub use recon::{pull_recon, ReconDriver, ReconStep};
pub use replica::{AuxItem, ProtocolCounters, Replica};
pub use retry::RetryPolicy;
pub use rounds::{Round, RoundOutcome, RoundStep};
pub use shard::{
    shards_agree, LocalShardedTransport, ShardMap, Sharded, ShardedNode, ShardedOob, Unsharded,
};
pub use tokens::TokenManager;
