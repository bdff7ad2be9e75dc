//! The mutex-guarded [`ReplicaHost`], for drivers of a lone replica
//! behind a lock. (The socket node projects its shards with a host of its
//! own.)

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
