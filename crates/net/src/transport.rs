//! Transport plumbing of the socket runtime: the mutex-guarded
//! [`ReplicaHost`].
//!
//! Fault injection lives in `epidb-core` now — [`ChaosTransport`]
//! (composable over any [`Transport`](epidb_core::Transport), driven by a
//! seed-deterministic [`FaultPlan`]) replaced the loss-and-latency-only
//! `FaultInjector` that used to live here.
//!
//! [`ChaosTransport`]: epidb_core::ChaosTransport
//! [`FaultPlan`]: epidb_core::FaultPlan

use epidb_core::{Replica, ReplicaHost};
use parking_lot::Mutex;

/// A [`ReplicaHost`] over a mutex-guarded replica: each protocol step
/// locks, runs, and unlocks, so no lock is ever held across a blocking
/// network exchange (which would deadlock mutually-pulling nodes).
pub struct MutexHost<'a>(pub &'a Mutex<Replica>);

impl ReplicaHost for MutexHost<'_> {
    fn with<R>(&mut self, f: impl FnOnce(&mut Replica) -> R) -> R {
        f(&mut self.0.lock())
    }
}
