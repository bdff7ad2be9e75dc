//! The dense store of a replica's regular item copies.

use bytes::Bytes;
use epidb_common::{Error, ItemId, NodeId, Result};
use epidb_vv::{row, VersionVector};

use crate::digest::{self, DigestTree};
use crate::op::UpdateOp;
use crate::value::ItemValue;

/// One regular item copy, borrowed from its [`ItemStore`]: the value and
/// the item version vector (IVV) row.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ItemRef<'a> {
    /// The item's current value at this replica.
    pub value: &'a ItemValue,
    /// The IVV, exactly `n` entries: entry `j` counts `j`-originated
    /// updates reflected in this copy (§3). Compare it with
    /// [`epidb_vv::row`], or with a [`VersionVector`]'s methods.
    pub ivv: &'a [u64],
}

/// One regular item copy, mutably borrowed (see
/// [`ItemStore::get_mut`]). Change the IVV with [`epidb_vv::row`]'s rules.
#[derive(Debug)]
pub struct ItemMut<'a> {
    /// The item's current value at this replica.
    pub value: &'a mut ItemValue,
    /// The item's IVV row.
    pub ivv: &'a mut [u64],
}

/// All regular item copies of one database replica, indexed densely by
/// [`ItemId`].
///
/// The item universe is fixed at construction, mirroring the paper's fixed
/// server set assumption (§2); the protocol's complexity arguments never
/// depend on item creation/deletion.
///
/// The table is stored column-wise: one `Vec` of values and one dense IVV
/// arena of `N × n` `u64`s, where item `x`'s IVV is the row
/// `ivvs[x·n .. x·n + n]`. Per-item control state is thus exactly the `8n`
/// bytes the paper's IVV needs (§4.2 asks for control state "very short"
/// next to the data), with no per-item vector header or inline slack.
///
/// Every mutation of an item passes through [`get_mut`](Self::get_mut),
/// which keeps the recon digest tree ([`crate::digest`]) current by
/// marking the item's path dirty — so no caller can forget to.
#[derive(Clone, Debug)]
pub struct ItemStore {
    n_nodes: usize,
    values: Vec<ItemValue>,
    /// The IVV arena, `n_nodes` entries per item.
    ivvs: Vec<u64>,
    /// The cached digest tree: `None` (costing one branch per mutation)
    /// until the first [`range_digest`](Self::range_digest) builds it.
    tree: Option<Box<DigestTree>>,
}

impl ItemStore {
    /// Create a store of `n_items` empty items for `n_nodes` servers.
    pub fn new(n_nodes: usize, n_items: usize) -> ItemStore {
        let mut ivvs = vec![0; n_items * n_nodes];
        // A zeroed allocation maps its pages in on first write: write them
        // here, so the first update of each row does not pay the fault.
        ivvs.fill(0);
        ItemStore {
            n_nodes,
            values: std::iter::repeat_with(ItemValue::new).take(n_items).collect(),
            ivvs,
            tree: None,
        }
    }

    /// The value of item `x`: [`get`](Self::get) for the read path, which
    /// needs no IVV.
    #[inline]
    pub fn value(&self, x: ItemId) -> Result<&ItemValue> {
        self.values.get(x.index()).ok_or(Error::UnknownItem(x))
    }

    /// Number of items in the database.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.values.len()
    }

    /// Number of servers replicas are sized for.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Item `i`'s IVV row; `i` must be in range.
    #[inline]
    fn row(&self, i: usize) -> &[u64] {
        &self.ivvs[i * self.n_nodes..(i + 1) * self.n_nodes]
    }

    /// Item `i`, which must be in range.
    #[inline]
    pub(crate) fn item(&self, i: usize) -> ItemRef<'_> {
        ItemRef { value: &self.values[i], ivv: self.row(i) }
    }

    /// Shared access to an item.
    #[inline]
    pub fn get(&self, x: ItemId) -> Result<ItemRef<'_>> {
        self.check(x)?;
        Ok(self.item(x.index()))
    }

    /// Mutable access to an item. Marks the item's digest-tree path dirty
    /// (once a tree exists), whether or not the caller then changes it.
    #[inline]
    pub fn get_mut(&mut self, x: ItemId) -> Result<ItemMut<'_>> {
        self.check(x)?;
        if let Some(tree) = &mut self.tree {
            tree.mark(x.0);
        }
        let (i, n) = (x.index(), self.n_nodes);
        Ok(ItemMut { value: &mut self.values[i], ivv: &mut self.ivvs[i * n..(i + 1) * n] })
    }

    #[inline]
    fn check(&self, x: ItemId) -> Result<()> {
        if x.index() < self.values.len() {
            Ok(())
        } else {
            Err(Error::UnknownItem(x))
        }
    }

    /// The ship operation: the item's IVV (an inline vector built from the
    /// row, no allocation for up to [`epidb_vv::VV_INLINE_CAP`] servers)
    /// and a refcounted handle to its value ([`ItemValue::share`]).
    /// Sharing changes no digest, so unlike [`get_mut`](Self::get_mut) it
    /// leaves the digest tree clean.
    #[inline]
    pub fn share(&mut self, x: ItemId) -> Result<(VersionVector, Bytes)> {
        self.check(x)?;
        let i = x.index();
        let ivv = VersionVector::from_slice(self.row(i));
        Ok((ivv, self.values[i].share()))
    }

    /// Apply a local update to item `x` on behalf of server `i`:
    /// apply the operation and bump `v_ii(x)`. Returns the update's
    /// per-item sequence number at `i` (the new `v_ii(x)`).
    pub fn apply_local_update(&mut self, i: NodeId, x: ItemId, op: &UpdateOp) -> Result<u64> {
        let item = self.get_mut(x)?;
        op.apply(item.value);
        Ok(row::bump(item.ivv, i))
    }

    /// Adopt a received copy wholesale (value and IVV), as
    /// `AcceptPropagation` does once domination is verified (Fig. 3).
    pub fn adopt(&mut self, x: ItemId, value: ItemValue, ivv: &[u64]) -> Result<()> {
        if ivv.len() != self.n_nodes {
            return Err(Error::DimensionMismatch { left: self.n_nodes, right: ivv.len() });
        }
        let item = self.get_mut(x)?;
        *item.value = value;
        item.ivv.copy_from_slice(ivv);
        Ok(())
    }

    /// Component-wise sum of all IVVs — the quantity the DBVV must equal at
    /// all times (the workspace's central invariant; see `epidb-vv`).
    pub fn ivv_sum(&self) -> VersionVector {
        let mut sum = vec![0u64; self.n_nodes];
        for row in self.ivvs.chunks_exact(self.n_nodes.max(1)) {
            for (s, e) in sum.iter_mut().zip(row) {
                *s += e;
            }
        }
        VersionVector::from_entries(sum)
    }

    /// Digest of the digest-tree node `[start, end)`, or `None` if the
    /// range is not a node of the tree over this store's items. Builds the
    /// tree on first use and serves clean nodes from it; the leaves
    /// actually hashed are added to `hashed`.
    pub fn range_digest(&mut self, start: u32, end: u32, hashed: &mut u64) -> Option<u64> {
        let n = self.n_items() as u32;
        let mut tree = self.tree.take().unwrap_or_else(|| Box::new(DigestTree::new(n)));
        let digest = tree.digest(self, start, end, hashed);
        self.tree = Some(tree);
        digest
    }

    /// Whether `[start, end)` is a node of the digest tree (a pure function
    /// of the item count; builds nothing).
    pub fn is_digest_node(&self, start: u32, end: u32) -> bool {
        digest::locate(self.n_items() as u32, start, end).is_some()
    }

    /// The uncached fold of the node `[start, end)`, hashing every leaf
    /// under it — the oracle the cached tree is tested against.
    #[doc(hidden)]
    pub fn range_digest_uncached(&self, start: u32, end: u32) -> Option<u64> {
        self.is_digest_node(start, end).then(|| digest::fold(self, start, end, &mut 0))
    }

    /// Check every clean cached node of the digest tree against the
    /// uncached fold of its range. `Ok` when no tree was built.
    pub fn check_digest_cache(&self) -> std::result::Result<(), String> {
        self.tree.as_ref().map_or(Ok(()), |tree| tree.check(self))
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
        for x in ItemId::all(5) {
            let item = s.get(x).unwrap();
            assert!(item.value.is_empty());
            assert_eq!(item.ivv, &[0, 0, 0]);
        }
    }

    #[test]
    fn unknown_item_is_an_error() {
        let mut s = ItemStore::new(2, 1);
        assert!(matches!(s.get(ItemId(1)), Err(Error::UnknownItem(ItemId(1)))));
        assert!(s.get_mut(ItemId(9)).is_err());
        assert!(s.share(ItemId(1)).is_err());
    }

    #[test]
    fn local_update_applies_and_bumps() {
        let mut s = ItemStore::new(2, 2);
        let seq = s.apply_local_update(NodeId(1), ItemId(0), &UpdateOp::set(&b"v1"[..])).unwrap();
        assert_eq!(seq, 1);
        let item = s.get(ItemId(0)).unwrap();
        assert_eq!(item.value.as_bytes(), b"v1");
        assert_eq!(item.ivv, &[0, 1]);
        // Untouched item unchanged.
        assert_eq!(s.get(ItemId(1)).unwrap().ivv, &[0, 0]);
    }

    #[test]
    fn adopt_replaces_value_and_ivv() {
        let mut s = ItemStore::new(2, 1);
        let ivv = VersionVector::from_entries(vec![0, 3]);
        s.adopt(ItemId(0), ItemValue::from_slice(b"remote"), &ivv).unwrap();
        let item = s.get(ItemId(0)).unwrap();
        assert_eq!(item.value.as_bytes(), b"remote");
        assert_eq!(item.ivv, &ivv[..]);
        assert!(matches!(
            s.adopt(ItemId(0), ItemValue::new(), &[1, 2, 3]),
            Err(Error::DimensionMismatch { left: 2, right: 3 })
        ));
    }

    #[test]
    fn rows_are_exactly_n_wide_and_isolated() {
        // n = 9 is above the inline cap of a `VersionVector`: the arena has
        // no cap, and a shipped vector of that width goes to the heap.
        for n in [1, 3, 9] {
            let items = 5;
            let mut s = ItemStore::new(n, items);
            assert_eq!(s.ivvs.len(), n * items, "n = {n}");
            let origin = NodeId::from_index(n - 1);
            for _ in 0..3 {
                s.apply_local_update(origin, ItemId(2), &UpdateOp::append(&b"x"[..])).unwrap();
            }
            let wide: Vec<u64> = (1..=n as u64).collect();
            s.adopt(ItemId(4), ItemValue::from_slice(b"w"), &wide).unwrap();
            s.get_mut(ItemId(0)).unwrap().ivv[0] = 7;
            for x in ItemId::all(items) {
                let mut want = vec![0; n];
                match x.0 {
                    0 => want[0] = 7,
                    2 => want[n - 1] = 3,
                    4 => want.clone_from(&wide),
                    _ => {}
                }
                assert_eq!(s.get(x).unwrap().ivv, &want[..], "n = {n}, {x}");
            }
            let (shipped, _) = s.share(ItemId(4)).unwrap();
            assert_eq!(&shipped[..], &wide[..]);
            let mut sum = vec![0; n];
            sum[0] += 7;
            sum[n - 1] += 3;
            for (s, w) in sum.iter_mut().zip(&wide) {
                *s += w;
            }
            assert_eq!(s.ivv_sum().entries(), &sum[..], "n = {n}");
        }
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
        s.adopt(ItemId(77), ItemValue::from_slice(b"c"), &[0, 2]).unwrap();
        row::bump(s.get_mut(ItemId(99)).unwrap().ivv, NodeId(0));
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
}
