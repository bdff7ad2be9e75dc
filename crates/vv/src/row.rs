//! The version-vector algebra over borrowed rows (`&[u64]`, one entry per
//! server).
//!
//! A replica's item store keeps every IVV as an `n`-wide row of one dense
//! arena, with no per-item [`VersionVector`](crate::VersionVector). The
//! comparison and maintenance rules therefore live here, once, over plain
//! slices; `VersionVector`'s own methods delegate to them, so a stored row
//! and a shipped vector compare by the same code.

use epidb_common::{Error, NodeId, Result};

use crate::vector::VvOrd;

/// Compare row `a` against row `b` (§3, Theorem 3's four cases).
///
/// # Panics
/// Panics if the rows have different lengths; vectors of one database
/// instance always share the fixed server count.
#[inline]
pub fn compare(a: &[u64], b: &[u64]) -> VvOrd {
    assert_eq!(a.len(), b.len(), "comparing version vectors of different dimensions");
    let mut less = false;
    let mut greater = false;
    for (x, y) in a.iter().zip(b) {
        if x < y {
            less = true;
        } else if x > y {
            greater = true;
        }
        if less && greater {
            return VvOrd::Concurrent;
        }
    }
    match (less, greater) {
        (false, false) => VvOrd::Equal,
        (false, true) => VvOrd::Dominates,
        (true, false) => VvOrd::DominatedBy,
        (true, true) => unreachable!("early-returned above"),
    }
}

/// [`compare`], charging `a.len()` entry comparisons to `cmps` — the work
/// the paper's complexity analysis charges per vector comparison.
#[inline]
pub fn compare_counted(a: &[u64], b: &[u64], cmps: &mut u64) -> VvOrd {
    *cmps += a.len() as u64;
    compare(a, b)
}

/// Record one more local update by server `i` (`v_ii(x) := v_ii(x) + 1`),
/// returning the new entry: the update's per-item sequence number at `i`.
#[inline]
pub fn bump(row: &mut [u64], i: NodeId) -> u64 {
    let e = &mut row[i.index()];
    *e += 1;
    *e
}

/// Component-wise maximum with `other` (`v_ik := max(v_ik, v_jk)` for all
/// `k`): the rule applied when a replica obtains missing updates (§3).
pub fn merge_max(row: &mut [u64], other: &[u64]) -> Result<()> {
    if row.len() != other.len() {
        return Err(Error::DimensionMismatch { left: row.len(), right: other.len() });
    }
    for (a, &b) in row.iter_mut().zip(other) {
        if b > *a {
            *a = b;
        }
    }
    Ok(())
}

/// For two *concurrent* rows, a pair of origin servers whose updates are
/// mutually missing: `k` where `a < b` and `l` where `a > b` (the paper's
/// footnote 3). `None` when the rows do not conflict.
pub fn offending_pair(a: &[u64], b: &[u64]) -> Option<(NodeId, NodeId)> {
    let below = a.iter().zip(b).position(|(x, y)| x < y)?;
    let above = a.iter().zip(b).position(|(x, y)| x > y)?;
    Some((NodeId::from_index(below), NodeId::from_index(above)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_follow_the_vector_rules() {
        assert_eq!(compare(&[1, 2], &[1, 2]), VvOrd::Equal);
        assert_eq!(compare(&[2, 2], &[1, 2]), VvOrd::Dominates);
        assert_eq!(compare(&[1, 2], &[2, 2]), VvOrd::DominatedBy);
        assert_eq!(compare(&[2, 1], &[1, 2]), VvOrd::Concurrent);
        let mut cmps = 0;
        compare_counted(&[0; 9], &[0; 9], &mut cmps);
        assert_eq!(cmps, 9);

        let mut row = [3, 1, 0];
        assert_eq!(bump(&mut row, NodeId(2)), 1);
        merge_max(&mut row, &[1, 4, 0]).unwrap();
        assert_eq!(row, [3, 4, 1]);
        assert!(merge_max(&mut row, &[1]).is_err());

        assert_eq!(offending_pair(&[5, 3, 1], &[2, 3, 4]), Some((NodeId(2), NodeId(0))));
        assert_eq!(offending_pair(&[2, 1], &[1, 1]), None);
    }
}
