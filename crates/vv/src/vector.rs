//! The per-item version vector (IVV) and its comparison algebra (§3).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

use epidb_common::{NodeId, Result};

use crate::row;

/// Outcome of comparing two version vectors.
///
/// These are exactly the four mutually exclusive cases of the paper's
/// Theorem 3 corollaries: identical copies, one copy strictly newer
/// (its vector *dominates*), or inconsistent copies (*concurrent* vectors —
/// each reflects an update the other misses).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VvOrd {
    /// Component-wise identical vectors: the copies are identical.
    Equal,
    /// `self` dominates `other`: `self`'s copy is strictly newer.
    Dominates,
    /// `other` dominates `self`: `self`'s copy is strictly older.
    DominatedBy,
    /// Mutually inconsistent vectors: the copies conflict.
    Concurrent,
}

impl VvOrd {
    /// The comparison seen from the other side.
    pub fn flip(self) -> VvOrd {
        match self {
            VvOrd::Dominates => VvOrd::DominatedBy,
            VvOrd::DominatedBy => VvOrd::Dominates,
            other => other,
        }
    }

    /// True for `Equal` or `Dominates`.
    pub fn dominates_or_equal(self) -> bool {
        matches!(self, VvOrd::Equal | VvOrd::Dominates)
    }
}

impl fmt::Display for VvOrd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VvOrd::Equal => "equal",
            VvOrd::Dominates => "dominates",
            VvOrd::DominatedBy => "dominated-by",
            VvOrd::Concurrent => "concurrent",
        };
        f.write_str(s)
    }
}

/// Vectors up to this many servers are stored inline (no heap allocation).
///
/// Gossip protocols ship a version vector per item; with typical cluster
/// sizes well under this bound, decoding, cloning, and merging vectors
/// must not allocate — the small-message fast path depends on it.
pub const VV_INLINE_CAP: usize = 8;

/// Storage for a vector's entries: inline for small server counts, heap
/// beyond. Both representations expose the same dense `[u64]` slice; no
/// observable behavior depends on which one is in use.
#[derive(Clone, Debug)]
enum Entries {
    Inline { len: u8, buf: [u64; VV_INLINE_CAP] },
    Heap(Vec<u64>),
}

/// A version vector over a fixed set of `n` servers.
///
/// Entry `j` counts the updates originally performed by server `j` that are
/// reflected in the associated replica (Theorem 3). The server set is fixed
/// (§2), so the vector is a dense array — stored inline (allocation-free)
/// for up to [`VV_INLINE_CAP`] servers, on the heap beyond.
#[derive(Clone)]
pub struct VersionVector {
    entries: Entries,
}

impl Default for VersionVector {
    fn default() -> VersionVector {
        VersionVector { entries: Entries::Inline { len: 0, buf: [0; VV_INLINE_CAP] } }
    }
}

impl VersionVector {
    /// An all-zero vector for a system of `n` servers (maintenance rule:
    /// "upon initialization, every component is 0").
    pub fn zero(n: usize) -> VersionVector {
        if n <= VV_INLINE_CAP {
            VersionVector { entries: Entries::Inline { len: n as u8, buf: [0; VV_INLINE_CAP] } }
        } else {
            VersionVector { entries: Entries::Heap(vec![0; n]) }
        }
    }

    /// Build from explicit entries (mainly for tests and tools).
    pub fn from_entries(entries: Vec<u64>) -> VersionVector {
        if entries.len() <= VV_INLINE_CAP {
            VersionVector::from_slice(&entries)
        } else {
            VersionVector { entries: Entries::Heap(entries) }
        }
    }

    /// Build from a slice of entries. Allocation-free for up to
    /// [`VV_INLINE_CAP`] servers — the constructor decoders use.
    pub fn from_slice(entries: &[u64]) -> VersionVector {
        if entries.len() <= VV_INLINE_CAP {
            let mut buf = [0; VV_INLINE_CAP];
            buf[..entries.len()].copy_from_slice(entries);
            VersionVector { entries: Entries::Inline { len: entries.len() as u8, buf } }
        } else {
            VersionVector { entries: Entries::Heap(entries.to_vec()) }
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u64] {
        match &self.entries {
            Entries::Inline { len, buf } => &buf[..*len as usize],
            Entries::Heap(v) => v,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [u64] {
        match &mut self.entries {
            Entries::Inline { len, buf } => &mut buf[..*len as usize],
            Entries::Heap(v) => v,
        }
    }

    /// Number of servers this vector covers.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.entries {
            Entries::Inline { len, .. } => *len as usize,
            Entries::Heap(v) => v.len(),
        }
    }

    /// True if the vector covers zero servers (degenerate).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry for server `j`: how many of `j`'s updates this replica reflects.
    #[inline]
    pub fn get(&self, j: NodeId) -> u64 {
        self.as_slice()[j.index()]
    }

    /// Set entry for server `j` (used by log/replay machinery; ordinary
    /// protocol code uses [`bump`](Self::bump) and
    /// [`merge_max`](Self::merge_max)).
    #[inline]
    pub fn set(&mut self, j: NodeId, v: u64) {
        self.as_mut_slice()[j.index()] = v;
    }

    /// Record one more local update by server `i`
    /// (`v_ii(x) := v_ii(x) + 1`), returning the new entry value — the
    /// update's sequence number at `i`.
    #[inline]
    pub fn bump(&mut self, i: NodeId) -> u64 {
        row::bump(self.as_mut_slice(), i)
    }

    /// Component-wise maximum with `other`
    /// (`v_ik := max(v_ik, v_jk)` for all `k`) — the rule applied when a
    /// replica obtains missing updates (§3).
    pub fn merge_max(&mut self, other: &[u64]) -> Result<()> {
        row::merge_max(self.as_mut_slice(), other)
    }

    /// Compare against `other`, charging `n` entry comparisons to `cmps`.
    ///
    /// Every caller in the workspace that models protocol overhead passes
    /// its comparison counter here, so the experiments count exactly the
    /// work the paper's complexity analysis charges.
    #[inline]
    pub fn compare_counted(&self, other: &[u64], cmps: &mut u64) -> VvOrd {
        row::compare_counted(self.as_slice(), other, cmps)
    }

    /// Compare against `other` (a vector, or a stored IVV row).
    ///
    /// # Panics
    /// Panics if the vectors have different dimensions; vectors of one
    /// database instance always share the fixed server count.
    #[inline]
    pub fn compare(&self, other: &[u64]) -> VvOrd {
        row::compare(self.as_slice(), other)
    }

    /// True iff `self` dominates or equals `other`.
    pub fn dominates_or_equal(&self, other: &[u64]) -> bool {
        self.compare(other).dominates_or_equal()
    }

    /// For two *concurrent* vectors, pinpoint a pair of origin servers whose
    /// updates are mutually missing — the paper's footnote 3: if the vectors
    /// conflict in components `k` and `l`, nodes `k` and `l` hold the
    /// offending updates. Returns `None` when the vectors do not conflict.
    pub fn offending_pair(&self, other: &[u64]) -> Option<(NodeId, NodeId)> {
        row::offending_pair(self.as_slice(), other)
    }

    /// Sum of all entries: the total number of updates (across all origins)
    /// reflected in the replica.
    pub fn total(&self) -> u64 {
        self.as_slice().iter().sum()
    }

    /// Iterate `(origin, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.as_slice().iter().enumerate().map(|(i, &v)| (NodeId::from_index(i), v))
    }

    /// Raw entries, in server order.
    #[inline]
    pub fn entries(&self) -> &[u64] {
        self.as_slice()
    }
}

/// Equality is over the entry slice: the storage representation (inline vs
/// heap) is never observable.
impl PartialEq for VersionVector {
    fn eq(&self, other: &VersionVector) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for VersionVector {}

/// Hashes the entry slice, so equal vectors hash equal across
/// representations.
impl Hash for VersionVector {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// A vector reads as its entry slice, so it can be passed wherever a
/// stored IVV row (`&[u64]`) is expected.
impl Deref for VersionVector {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl fmt::Debug for VersionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VersionVector").field("entries", &self.as_slice()).finish()
    }
}

impl fmt::Display for VersionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;

    use epidb_common::Error;

    use super::*;

    fn vv(entries: &[u64]) -> VersionVector {
        VersionVector::from_entries(entries.to_vec())
    }

    #[test]
    fn zero_is_all_zeroes() {
        let v = VersionVector::zero(4);
        assert_eq!(v.entries(), &[0, 0, 0, 0]);
        assert_eq!(v.total(), 0);
    }

    #[test]
    fn bump_returns_sequence_number() {
        let mut v = VersionVector::zero(3);
        assert_eq!(v.bump(NodeId(1)), 1);
        assert_eq!(v.bump(NodeId(1)), 2);
        assert_eq!(v.get(NodeId(1)), 2);
        assert_eq!(v.get(NodeId(0)), 0);
    }

    #[test]
    fn compare_equal() {
        assert_eq!(vv(&[1, 2]).compare(&vv(&[1, 2])), VvOrd::Equal);
    }

    #[test]
    fn compare_dominates() {
        assert_eq!(vv(&[2, 2]).compare(&vv(&[1, 2])), VvOrd::Dominates);
        assert_eq!(vv(&[1, 2]).compare(&vv(&[2, 2])), VvOrd::DominatedBy);
    }

    #[test]
    fn compare_concurrent() {
        assert_eq!(vv(&[2, 1]).compare(&vv(&[1, 2])), VvOrd::Concurrent);
    }

    #[test]
    fn compare_counted_charges_n() {
        let mut c = 0;
        let _ = vv(&[1, 2, 3]).compare_counted(&vv(&[1, 2, 3]), &mut c);
        assert_eq!(c, 3);
    }

    #[test]
    fn merge_max_takes_componentwise_max() {
        let mut a = vv(&[3, 1, 0]);
        a.merge_max(&vv(&[1, 4, 0])).unwrap();
        assert_eq!(a.entries(), &[3, 4, 0]);
    }

    #[test]
    fn merge_max_rejects_dimension_mismatch() {
        let mut a = vv(&[1]);
        assert!(matches!(
            a.merge_max(&vv(&[1, 2])),
            Err(Error::DimensionMismatch { left: 1, right: 2 })
        ));
    }

    #[test]
    fn flip_swaps_direction() {
        assert_eq!(VvOrd::Dominates.flip(), VvOrd::DominatedBy);
        assert_eq!(VvOrd::DominatedBy.flip(), VvOrd::Dominates);
        assert_eq!(VvOrd::Equal.flip(), VvOrd::Equal);
        assert_eq!(VvOrd::Concurrent.flip(), VvOrd::Concurrent);
    }

    #[test]
    fn offending_pair_pinpoints_origins() {
        // self ahead at n0, behind at n2.
        let a = vv(&[5, 3, 1]);
        let b = vv(&[2, 3, 4]);
        let (k, l) = a.offending_pair(&b).unwrap();
        // k is where self < other (n2), l where self > other (n0).
        assert_eq!((k, l), (NodeId(2), NodeId(0)));
        assert!(a.compare(&b) == VvOrd::Concurrent);
        assert!(vv(&[1, 1]).offending_pair(&vv(&[1, 1])).is_none());
        assert!(vv(&[2, 1]).offending_pair(&vv(&[1, 1])).is_none());
    }

    #[test]
    fn display_formats() {
        assert_eq!(vv(&[1, 0, 7]).to_string(), "<1,0,7>");
        assert_eq!(VvOrd::Concurrent.to_string(), "concurrent");
    }

    #[test]
    #[should_panic(expected = "different dimensions")]
    fn compare_panics_on_dim_mismatch() {
        let _ = vv(&[1]).compare(&vv(&[1, 2]));
    }

    // --- inline vs heap representation (small-message fast path) ---

    fn hash_of(v: &VersionVector) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn representations_agree_at_the_inline_boundary() {
        // n = VV_INLINE_CAP is inline, n = VV_INLINE_CAP + 1 is heap; both
        // behave identically through the whole API.
        for n in [VV_INLINE_CAP, VV_INLINE_CAP + 1] {
            let mut v = VersionVector::zero(n);
            assert_eq!(v.len(), n);
            assert!(!v.is_empty());
            v.bump(NodeId(0));
            v.set(NodeId::from_index(n - 1), 9);
            assert_eq!(v.get(NodeId(0)), 1);
            assert_eq!(v.total(), 10);
            let entries: Vec<u64> = v.entries().to_vec();
            let rebuilt = VersionVector::from_entries(entries.clone());
            assert_eq!(rebuilt, v);
            assert_eq!(VersionVector::from_slice(&entries), v);
            assert_eq!(hash_of(&rebuilt), hash_of(&v));
            assert_eq!(v.compare(&rebuilt), VvOrd::Equal);
            let mut m = VersionVector::zero(n);
            m.merge_max(&v).unwrap();
            assert_eq!(m, v);
        }
    }

    #[test]
    fn equality_and_hash_ignore_representation() {
        // Same entries via from_slice (inline) and from_entries of a Vec
        // with spare capacity (heap path is length-based, so both are
        // inline here) — and a genuinely heap pair above the cap.
        let small_a = VersionVector::from_slice(&[1, 2, 3]);
        let small_b = VersionVector::from_entries(vec![1, 2, 3]);
        assert_eq!(small_a, small_b);
        assert_eq!(hash_of(&small_a), hash_of(&small_b));

        let big = vec![7u64; VV_INLINE_CAP + 4];
        let heap_a = VersionVector::from_slice(&big);
        let heap_b = VersionVector::from_entries(big);
        assert_eq!(heap_a, heap_b);
        assert_eq!(hash_of(&heap_a), hash_of(&heap_b));
    }

    #[test]
    fn default_is_empty() {
        let v = VersionVector::default();
        assert!(v.is_empty());
        assert_eq!(v.entries(), &[] as &[u64]);
    }
}
