//! The digest tree that set reconciliation descends (`epidb-core`'s
//! `recon` module), cached so a probe costs what changed, not its width.
//!
//! The tree is the midpoint split of the item space `[0, N)`: the root is
//! `[0, N)`, and a node `[s, e)` wider than one item has the children
//! `[s, m)` and `[m, e)` at `m = s + (e - s) / 2` ([`midpoint`]). A leaf's
//! digest is FNV-1a over the item's IVV and value (`leaf_digest`); an
//! interior node folds `(s, e, left, right)`, so a digest commits to both
//! structure and content. Two replicas agree on a node's digest iff (up to
//! hash collisions) they agree on every item under it.
//!
//! The cached tree keeps one `u64` digest and one dirty flag for every node
//! wider than [`BUCKET`] leaves, heap-indexed (root 0, children `2i + 1`
//! and `2i + 2`): about N/8 slots, ≈ 1 byte per item. Every item mutation
//! marks the root-to-bucket path of the item dirty (O(log(N/16))); a probe
//! returns a clean node's digest as cached, refolds a dirty node from its
//! children and clears the flag, and hashes a node of at most [`BUCKET`]
//! leaves directly. The tree starts all-dirty, so the first probe of the
//! root pays one O(N) build; after that a probe costs O(dirty paths ·
//! log N + BUCKET) leaf hashes.

use epidb_common::FnvHasher;

use crate::store::{ItemRef, ItemStore};

/// Nodes at most this many leaves wide are never cached: a probe hashes
/// their leaves directly.
pub const BUCKET: u32 = 16;

/// Leaf digest of one item: FNV-1a over the IVV (length + entries) and the
/// value (length + bytes).
fn leaf_digest(item: ItemRef<'_>) -> u64 {
    let mut h = FnvHasher::new();
    h.write_u64(item.ivv.len() as u64);
    for &e in item.ivv {
        h.write_u64(e);
    }
    h.write_u64(item.value.len() as u64);
    h.write(item.value.as_bytes());
    h.finish()
}

/// Where the node `[start, end)` splits into its two children.
#[inline]
pub fn midpoint(start: u32, end: u32) -> u32 {
    start + (end - start) / 2
}

/// An interior node's digest from its children's.
fn combine(start: u32, end: u32, left: u64, right: u64) -> u64 {
    let mut h = FnvHasher::new();
    h.write_u64(start as u64);
    h.write_u64(end as u64);
    h.write_u64(left);
    h.write_u64(right);
    h.finish()
}

/// The uncached fold of `[start, end)`: every leaf under the range is
/// hashed and counted into `hashed`.
pub(crate) fn fold(store: &ItemStore, start: u32, end: u32, hashed: &mut u64) -> u64 {
    debug_assert!(start < end);
    if end - start == 1 {
        *hashed += 1;
        return leaf_digest(store.item(start as usize));
    }
    let mid = midpoint(start, end);
    combine(start, end, fold(store, start, mid, hashed), fold(store, mid, end, hashed))
}

/// Heap index of the node `[start, end)` in the tree over `n` items, or
/// `None` if the range is not a node of that tree.
pub(crate) fn locate(n: u32, start: u32, end: u32) -> Option<usize> {
    if start >= end || end > n {
        return None;
    }
    let (mut s, mut e, mut i) = (0, n, 0);
    while (s, e) != (start, end) {
        let mid = midpoint(s, e);
        if end <= mid {
            (e, i) = (mid, 2 * i + 1);
        } else if start >= mid {
            (s, i) = (mid, 2 * i + 2);
        } else {
            return None;
        }
    }
    Some(i)
}

/// The cached interior of the digest tree: see the module docs.
#[derive(Clone, Debug)]
pub(crate) struct DigestTree {
    n: u32,
    /// Cached digest per heap slot; meaningful only where `dirty` is clear.
    digests: Vec<u64>,
    /// Set when an item under the node changed since its digest was
    /// cached. Slots of nodes no wider than a bucket stay set forever.
    dirty: Vec<bool>,
}

impl DigestTree {
    /// An all-dirty tree over `n` items: nothing cached yet.
    pub(crate) fn new(n: u32) -> DigestTree {
        // Node widths at depth d are ⌊n/2^d⌋ or ⌈n/2^d⌉, so the levels
        // that hold a node wider than a bucket are those with ⌈n/2^d⌉ >
        // BUCKET, and every level above the last of them is full.
        let (mut levels, mut widest) = (0, n);
        while widest > BUCKET {
            levels += 1;
            widest = widest.div_ceil(2);
        }
        let slots = (1usize << levels) - 1;
        DigestTree { n, digests: vec![0; slots], dirty: vec![true; slots] }
    }

    /// Mark the root-to-bucket path of item `x` dirty. Out of line and
    /// cold, so `ItemStore::get_mut` without a tree stays one predictable
    /// branch.
    #[cold]
    #[inline(never)]
    pub(crate) fn mark(&mut self, x: u32) {
        let (mut s, mut e, mut i) = (0, self.n, 0);
        while e - s > BUCKET {
            self.dirty[i] = true;
            let mid = midpoint(s, e);
            if x < mid {
                (e, i) = (mid, 2 * i + 1);
            } else {
                (s, i) = (mid, 2 * i + 2);
            }
        }
    }

    /// Digest of the node `[start, end)`, or `None` if it is not a node.
    pub(crate) fn digest(
        &mut self,
        store: &ItemStore,
        start: u32,
        end: u32,
        hashed: &mut u64,
    ) -> Option<u64> {
        let i = locate(self.n, start, end)?;
        Some(self.node(store, start, end, i, hashed))
    }

    fn node(&mut self, store: &ItemStore, s: u32, e: u32, i: usize, hashed: &mut u64) -> u64 {
        if e - s <= BUCKET {
            return fold(store, s, e, hashed);
        }
        if self.dirty[i] {
            let mid = midpoint(s, e);
            let left = self.node(store, s, mid, 2 * i + 1, hashed);
            let right = self.node(store, mid, e, 2 * i + 2, hashed);
            self.digests[i] = combine(s, e, left, right);
            self.dirty[i] = false;
        }
        self.digests[i]
    }

    /// Check every clean cached digest against the uncached fold of its
    /// range, in one O(N) pass.
    pub(crate) fn check(&self, store: &ItemStore) -> Result<(), String> {
        if self.digests.is_empty() {
            return Ok(());
        }
        self.verify(store, 0, self.n, 0).map(drop)
    }

    fn verify(&self, store: &ItemStore, s: u32, e: u32, i: usize) -> Result<u64, String> {
        if e - s <= BUCKET {
            return Ok(fold(store, s, e, &mut 0));
        }
        let mid = midpoint(s, e);
        let left = self.verify(store, s, mid, 2 * i + 1)?;
        let right = self.verify(store, mid, e, 2 * i + 2)?;
        let d = combine(s, e, left, right);
        if !self.dirty[i] && self.digests[i] != d {
            return Err(format!(
                "cached digest {:#018x} of [{s}, {e}) differs from its leaves' fold {d:#018x}",
                self.digests[i]
            ));
        }
        Ok(d)
    }

    /// Flip one bit of the first clean cached digest; `false` if nothing
    /// is cached.
    pub(crate) fn corrupt(&mut self) -> bool {
        match self.dirty.iter().position(|&d| !d) {
            Some(i) => {
                self.digests[i] ^= 1;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_accepts_exactly_the_midpoint_nodes() {
        assert_eq!(locate(8, 0, 8), Some(0));
        assert_eq!(locate(8, 0, 4), Some(1));
        assert_eq!(locate(8, 4, 8), Some(2));
        assert_eq!(locate(8, 3, 4), Some(10));
        assert_eq!(locate(8, 1, 3), None, "both halves are nodes, the range is not");
        assert_eq!(locate(8, 0, 9), None);
        assert_eq!(locate(8, 4, 4), None);
        assert_eq!(locate(0, 0, 1), None);
    }

    #[test]
    fn slots_cover_every_node_wider_than_a_bucket() {
        for (n, slots) in [(0, 0), (1, 0), (16, 0), (17, 1), (33, 3), (1000, 63), (8192, 511)] {
            assert_eq!(DigestTree::new(n).digests.len(), slots, "n = {n}");
        }
    }
}
