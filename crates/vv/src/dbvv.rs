//! The database version vector (DBVV) — §4.1, the paper's key device.
//!
//! A DBVV is associated with an entire database *replica*. Its component
//! `V_ij` records the total number of updates performed by server `j`, to
//! any item, that are reflected at replica `i`. Comparing two DBVVs answers
//! in O(n) — constant in the number of data items — whether any update
//! propagation between the replicas is needed at all.
//!
//! Maintenance rules (§4.1):
//! 1. Initially all components are 0.
//! 2. When node `i` performs an update to any (regular) data item,
//!    `V_ii := V_ii + 1`.
//! 3. When node `i` copies item `x` from node `j` (having verified `x_j` is
//!    newer), `V_il := V_il + (v_jl(x) − v_il(x))` for every `l`.
//!
//! These rules preserve the workspace's central testable invariant:
//! **a replica's DBVV equals the component-wise sum of the IVVs of all its
//! regular item copies** (auxiliary/out-of-bound state never touches the
//! DBVV, §5.2–§5.3).

use std::fmt;

use epidb_common::{NodeId, Result};

use crate::row;
use crate::vector::{VersionVector, VvOrd};

/// Version vector over an entire database replica.
///
/// Wraps [`VersionVector`] but exposes only the DBVV maintenance rules, so
/// protocol code cannot accidentally apply IVV rules (like `merge_max`) to a
/// DBVV — the two are maintained differently (rule 3 is *additive*, not a
/// max-merge).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DbVersionVector {
    inner: VersionVector,
}

impl DbVersionVector {
    /// All-zero DBVV for `n` servers (rule 1).
    pub fn zero(n: usize) -> DbVersionVector {
        DbVersionVector { inner: VersionVector::zero(n) }
    }

    /// Number of servers.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if the DBVV covers zero servers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// `V_ij`: updates by `j` reflected in this replica.
    #[inline]
    pub fn get(&self, j: NodeId) -> u64 {
        self.inner.get(j)
    }

    /// Rule 2: node `i` performed a local update; returns the new `V_ii` —
    /// the update's database-wide sequence number at `i`, which is exactly
    /// the `m` stored in the log record `(x, m)` (§4.2).
    #[inline]
    pub fn record_local_update(&mut self, i: NodeId) -> u64 {
        self.inner.bump(i)
    }

    /// Rule 3: node `i` adopted a copy of some item whose local IVV was
    /// `local_ivv` and whose incoming IVV is `remote_ivv`
    /// (`V_il += v_jl(x) − v_il(x)`).
    ///
    /// The protocol only copies when the remote IVV dominates, so every
    /// per-component difference is non-negative; this is debug-asserted.
    pub fn absorb_item_copy(&mut self, local_ivv: &[u64], remote_ivv: &[u64]) -> Result<()> {
        if local_ivv.len() != remote_ivv.len() || local_ivv.len() != self.inner.len() {
            return Err(epidb_common::Error::DimensionMismatch {
                left: self.inner.len(),
                right: remote_ivv.len(),
            });
        }
        debug_assert!(
            row::compare(remote_ivv, local_ivv).dominates_or_equal(),
            "rule 3 applied to a non-dominating copy"
        );
        for (l, (&remote, &local)) in remote_ivv.iter().zip(local_ivv).enumerate() {
            let extra = remote - local;
            if extra > 0 {
                let l = NodeId::from_index(l);
                self.inner.set(l, self.inner.get(l) + extra);
            }
        }
        Ok(())
    }

    /// Compare two DBVVs (the constant-time "is propagation needed?" check,
    /// charged as `n` entry comparisons).
    pub fn compare_counted(&self, other: &DbVersionVector, cmps: &mut u64) -> VvOrd {
        self.inner.compare_counted(&other.inner, cmps)
    }

    /// Compare two DBVVs without cost accounting.
    pub fn compare(&self, other: &DbVersionVector) -> VvOrd {
        self.inner.compare(&other.inner)
    }

    /// Total updates (all origins) reflected at this replica.
    pub fn total(&self) -> u64 {
        self.inner.total()
    }

    /// Read access to the underlying vector (wire encoding, invariants).
    pub fn as_vector(&self) -> &VersionVector {
        &self.inner
    }

    /// Build from an explicit vector (tests, wire decoding).
    pub fn from_vector(v: VersionVector) -> DbVersionVector {
        DbVersionVector { inner: v }
    }
}

impl fmt::Display for DbVersionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DBVV{}", self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let v = DbVersionVector::zero(3);
        assert_eq!(v.total(), 0);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn rule2_returns_sequence_numbers() {
        let mut v = DbVersionVector::zero(2);
        assert_eq!(v.record_local_update(NodeId(0)), 1);
        assert_eq!(v.record_local_update(NodeId(0)), 2);
        assert_eq!(v.record_local_update(NodeId(1)), 1);
        assert_eq!(v.get(NodeId(0)), 2);
        assert_eq!(v.get(NodeId(1)), 1);
    }

    #[test]
    fn rule3_adds_componentwise_difference() {
        let mut dbvv = DbVersionVector::zero(3);
        dbvv.record_local_update(NodeId(0)); // V = <1,0,0>

        // Local copy of x has seen 1 update from n1; remote has seen 3 from
        // n1 and 2 from n2.
        let local = VersionVector::from_entries(vec![0, 1, 0]);
        let remote = VersionVector::from_entries(vec![0, 3, 2]);
        dbvv.absorb_item_copy(&local, &remote).unwrap();
        assert_eq!(dbvv.get(NodeId(0)), 1);
        assert_eq!(dbvv.get(NodeId(1)), 2); // 0 + (3-1)
        assert_eq!(dbvv.get(NodeId(2)), 2); // 0 + (2-0)
        assert_eq!(dbvv.total(), 5);
    }

    #[test]
    fn rule3_rejects_dimension_mismatch() {
        let mut dbvv = DbVersionVector::zero(2);
        let local = VersionVector::zero(2);
        let remote = VersionVector::zero(3);
        assert!(dbvv.absorb_item_copy(&local, &remote).is_err());
    }

    #[test]
    fn compare_detects_identical_replicas_in_n_entry_cmps() {
        let mut a = DbVersionVector::zero(4);
        let mut b = DbVersionVector::zero(4);
        a.record_local_update(NodeId(0));
        b.record_local_update(NodeId(0));
        let mut cmps = 0;
        assert_eq!(a.compare_counted(&b, &mut cmps), VvOrd::Equal);
        assert_eq!(cmps, 4); // n, independent of item count
    }

    #[test]
    fn compare_detects_concurrent_databases() {
        let mut a = DbVersionVector::zero(2);
        let mut b = DbVersionVector::zero(2);
        a.record_local_update(NodeId(0));
        b.record_local_update(NodeId(1));
        assert_eq!(a.compare(&b), VvOrd::Concurrent);
    }

    #[test]
    fn display_formats() {
        let mut v = DbVersionVector::zero(2);
        v.record_local_update(NodeId(1));
        assert_eq!(v.to_string(), "DBVV<0,1>");
    }
}
