//! The dense store of a replica's regular item copies.

use bytes::Bytes;
use epidb_common::{Error, ItemId, NodeId, Result};
use epidb_vv::VersionVector;

use crate::digest::{self, DigestTree};
use crate::op::UpdateOp;
use crate::value::ItemValue;

/// One regular item copy: its value and its item version vector (IVV).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StoredItem {
    /// The item's current value at this replica.
    pub value: ItemValue,
    /// The item version vector: entry `j` counts `j`-originated updates
    /// reflected in this copy (§3).
    pub ivv: VersionVector,
}

impl StoredItem {
    /// A fresh, empty item for a system of `n` servers.
    pub fn new(n_nodes: usize) -> StoredItem {
        StoredItem { value: ItemValue::new(), ivv: VersionVector::zero(n_nodes) }
    }
}

/// All regular item copies of one database replica, indexed densely by
/// [`ItemId`].
///
/// The item universe is fixed at construction, mirroring the paper's fixed
/// server set assumption (§2); the protocol's complexity arguments never
/// depend on item creation/deletion.
///
/// Every mutation of an item passes through [`get_mut`](Self::get_mut),
/// which keeps the recon digest tree ([`crate::digest`]) current by
/// marking the item's path dirty — so no caller can forget to.
#[derive(Clone, Debug)]
pub struct ItemStore {
    n_nodes: usize,
    items: Vec<StoredItem>,
    /// The cached digest tree: `None` (costing one branch per mutation)
    /// until the first [`range_digest`](Self::range_digest) builds it.
    tree: Option<Box<DigestTree>>,
}

impl ItemStore {
    /// Create a store of `n_items` empty items for `n_nodes` servers.
    pub fn new(n_nodes: usize, n_items: usize) -> ItemStore {
        ItemStore {
            n_nodes,
            items: (0..n_items).map(|_| StoredItem::new(n_nodes)).collect(),
            tree: None,
        }
    }

    /// Number of items in the database.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// Number of servers replicas are sized for.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Shared access to an item.
    pub fn get(&self, x: ItemId) -> Result<&StoredItem> {
        self.items.get(x.index()).ok_or(Error::UnknownItem(x))
    }

    /// Mutable access to an item. Marks the item's digest-tree path dirty
    /// (once a tree exists), whether or not the caller then changes it.
    #[inline]
    pub fn get_mut(&mut self, x: ItemId) -> Result<&mut StoredItem> {
        let item = self.items.get_mut(x.index()).ok_or(Error::UnknownItem(x))?;
        if let Some(tree) = &mut self.tree {
            tree.mark(x.0);
        }
        Ok(item)
    }

    /// The ship operation: the item's IVV and a refcounted handle to its
    /// value ([`ItemValue::share`]). Sharing changes no digest, so unlike
    /// [`get_mut`](Self::get_mut) it leaves the digest tree clean.
    #[inline]
    pub fn share(&mut self, x: ItemId) -> Result<(VersionVector, Bytes)> {
        let item = self.items.get_mut(x.index()).ok_or(Error::UnknownItem(x))?;
        Ok((item.ivv.clone(), item.value.share()))
    }

    /// Apply a local update to item `x` on behalf of server `i`:
    /// apply the operation and bump `v_ii(x)`. Returns the update's
    /// per-item sequence number at `i` (the new `v_ii(x)`).
    pub fn apply_local_update(&mut self, i: NodeId, x: ItemId, op: &UpdateOp) -> Result<u64> {
        let item = self.get_mut(x)?;
        op.apply(&mut item.value);
        Ok(item.ivv.bump(i))
    }

    /// Adopt a received copy wholesale (value and IVV), as
    /// `AcceptPropagation` does once domination is verified (Fig. 3).
    pub fn adopt(&mut self, x: ItemId, value: ItemValue, ivv: VersionVector) -> Result<()> {
        let item = self.get_mut(x)?;
        item.value = value;
        item.ivv = ivv;
        Ok(())
    }

    /// Iterate all items with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, &StoredItem)> {
        self.items.iter().enumerate().map(|(i, it)| (ItemId::from_index(i), it))
    }

    /// Component-wise sum of all IVVs — the quantity the DBVV must equal at
    /// all times (the workspace's central invariant; see `epidb-vv`).
    pub fn ivv_sum(&self) -> VersionVector {
        let mut sum = vec![0u64; self.n_nodes];
        for item in &self.items {
            for (l, s) in sum.iter_mut().enumerate() {
                *s += item.ivv.get(NodeId::from_index(l));
            }
        }
        VersionVector::from_entries(sum)
    }

    /// Total bytes stored across all item values.
    pub fn total_value_bytes(&self) -> usize {
        self.items.iter().map(|it| it.value.len()).sum()
    }

    /// Digest of the digest-tree node `[start, end)`, or `None` if the
    /// range is not a node of the tree over this store's items. Builds the
    /// tree on first use and serves clean nodes from it; the leaves
    /// actually hashed are added to `hashed`.
    pub fn range_digest(&mut self, start: u32, end: u32, hashed: &mut u64) -> Option<u64> {
        let n = self.items.len() as u32;
        self.tree.get_or_insert_with(|| Box::new(DigestTree::new(n))).digest(
            &self.items,
            start,
            end,
            hashed,
        )
    }

    /// Whether `[start, end)` is a node of the digest tree (a pure function
    /// of the item count; builds nothing).
    pub fn is_digest_node(&self, start: u32, end: u32) -> bool {
        digest::locate(self.items.len() as u32, start, end).is_some()
    }

    /// The uncached fold of the node `[start, end)`, hashing every leaf
    /// under it — the oracle the cached tree is tested against.
    #[doc(hidden)]
    pub fn range_digest_uncached(&self, start: u32, end: u32) -> Option<u64> {
        self.is_digest_node(start, end).then(|| digest::fold(&self.items, start, end, &mut 0))
    }

    /// Check every clean cached node of the digest tree against the
    /// uncached fold of its range. `Ok` when no tree was built.
    pub fn check_digest_cache(&self) -> std::result::Result<(), String> {
        self.tree.as_ref().map_or(Ok(()), |tree| tree.check(&self.items))
    }

    /// Test hook: corrupt one cached digest-tree node, so a test can prove
    /// [`check_digest_cache`](Self::check_digest_cache) notices. Returns
    /// `false` if nothing is cached. Never call it otherwise.
    #[doc(hidden)]
    pub fn debug_corrupt_digest_cache(&mut self) -> bool {
        self.tree.as_mut().is_some_and(|tree| tree.corrupt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_store_is_all_empty() {
        let s = ItemStore::new(3, 5);
        assert_eq!(s.n_items(), 5);
        assert_eq!(s.n_nodes(), 3);
        for (_, item) in s.iter() {
            assert!(item.value.is_empty());
            assert_eq!(item.ivv.total(), 0);
        }
    }

    #[test]
    fn unknown_item_is_an_error() {
        let mut s = ItemStore::new(2, 1);
        assert!(matches!(s.get(ItemId(1)), Err(Error::UnknownItem(ItemId(1)))));
        assert!(s.get_mut(ItemId(9)).is_err());
    }

    #[test]
    fn local_update_applies_and_bumps() {
        let mut s = ItemStore::new(2, 2);
        let seq = s.apply_local_update(NodeId(1), ItemId(0), &UpdateOp::set(&b"v1"[..])).unwrap();
        assert_eq!(seq, 1);
        let item = s.get(ItemId(0)).unwrap();
        assert_eq!(item.value.as_bytes(), b"v1");
        assert_eq!(item.ivv.get(NodeId(1)), 1);
        assert_eq!(item.ivv.get(NodeId(0)), 0);
        // Untouched item unchanged.
        assert_eq!(s.get(ItemId(1)).unwrap().ivv.total(), 0);
    }

    #[test]
    fn adopt_replaces_value_and_ivv() {
        let mut s = ItemStore::new(2, 1);
        let ivv = VersionVector::from_entries(vec![0, 3]);
        s.adopt(ItemId(0), ItemValue::from_slice(b"remote"), ivv.clone()).unwrap();
        let item = s.get(ItemId(0)).unwrap();
        assert_eq!(item.value.as_bytes(), b"remote");
        assert_eq!(&item.ivv, &ivv);
    }

    #[test]
    fn ivv_sum_adds_componentwise() {
        let mut s = ItemStore::new(2, 3);
        s.apply_local_update(NodeId(0), ItemId(0), &UpdateOp::set(&b"a"[..])).unwrap();
        s.apply_local_update(NodeId(0), ItemId(1), &UpdateOp::set(&b"b"[..])).unwrap();
        s.apply_local_update(NodeId(1), ItemId(1), &UpdateOp::set(&b"c"[..])).unwrap();
        let sum = s.ivv_sum();
        assert_eq!(sum.entries(), &[2, 1]);
    }

    #[test]
    fn digest_tree_is_lazy_and_tracks_every_mutator() {
        let n = 100;
        let mut s = ItemStore::new(2, n);
        assert!(s.tree.is_none());
        s.apply_local_update(NodeId(0), ItemId(1), &UpdateOp::set(&b"a"[..])).unwrap();
        assert!(s.tree.is_none(), "mutations build nothing");
        let mut hashed = 0;
        let root = s.range_digest(0, n as u32, &mut hashed);
        assert_eq!(hashed, n as u64, "the first probe folds every leaf once");
        assert_eq!(root, s.range_digest_uncached(0, n as u32));

        s.apply_local_update(NodeId(1), ItemId(40), &UpdateOp::append(&b"b"[..])).unwrap();
        s.adopt(ItemId(77), ItemValue::from_slice(b"c"), VersionVector::from_entries(vec![0, 2]))
            .unwrap();
        s.get_mut(ItemId(99)).unwrap().ivv.bump(NodeId(0));
        s.check_digest_cache().unwrap();
        hashed = 0;
        let root = s.range_digest(0, n as u32, &mut hashed);
        assert_eq!(root, s.range_digest_uncached(0, n as u32));
        assert!(hashed < 100, "three dirty paths refold, not the whole tree: {hashed}");

        // A clone carries the cache; sharing a value dirties nothing.
        let mut twin = s.clone();
        s.share(ItemId(40)).unwrap();
        for (a, b) in [(0, 50), (50, 100), (75, 100), (93, 100), (99, 100)] {
            let (mut h1, mut h2) = (0, 0);
            assert_eq!(s.range_digest(a, b, &mut h1), twin.range_digest(a, b, &mut h2));
            assert_eq!(h1, h2);
        }
        assert_eq!(s.range_digest(1, 4, &mut hashed), None, "not a node");
        assert!(!s.is_digest_node(0, 101));
    }

    #[test]
    fn total_value_bytes_sums_lengths() {
        let mut s = ItemStore::new(1, 2);
        s.apply_local_update(NodeId(0), ItemId(0), &UpdateOp::set(&b"1234"[..])).unwrap();
        s.apply_local_update(NodeId(0), ItemId(1), &UpdateOp::set(&b"56"[..])).unwrap();
        assert_eq!(s.total_value_bytes(), 6);
    }
}
