//! Cold-start set reconciliation: the rung of the degradation ladder
//! below delta and tail-covered pulls (delta → recon → whole-pull).
//!
//! The paper's log vector retains one latest record per item per origin
//! (§4.2); with a retention cap ([`Replica::set_log_retention`]) a
//! responder can evict records a long-offline recipient still needs. The
//! responder then answers [`PropagationResponse::NeedRecon`](crate::PropagationResponse::NeedRecon) instead of a
//! tail vector, and the recipient reconciles by divide-and-conquer over a
//! deterministic **digest tree**:
//!
//! * leaves are per-item FNV digests of `(IVV, value)` — the same FNV-1a
//!   discipline as [`crate::mc_state`]'s fingerprints;
//! * interior nodes fold `(start, end, left, right)` around the midpoint
//!   split, so a subtree digest commits to both structure and content;
//! * the tree lives in the replica's [`ItemStore`](epidb_store::ItemStore)
//!   ([`epidb_store::digest`]): built lazily by the first probe (one O(N)
//!   fold), it caches every node wider than a bucket of
//!   [`BUCKET`](epidb_store::digest::BUCKET) = 16 leaves, and every item
//!   mutation marks its root-to-bucket path dirty. A probe refolds only
//!   dirty nodes and hashes at most one bucket per child, so it costs
//!   O(dirty paths · log N + 16) leaf hashes rather than O(width). A
//!   replica that never reconciles never builds the tree.
//!
//! A probe must name a node of the tree; any other range is refused.
//!
//! The recipient drives a breadth-first descent ([`ReconDriver`]): each
//! [`ProtocolRequest::Recon`] carries ranges to probe plus leaves to
//! fetch; each [`ReconReply`] returns the two child digests per probed
//! range and full items ([`ReconItem`]) for the fetched leaves. Equal
//! digests prune whole subtrees, so a `d`-item diff over `N` items costs
//! O(d · log N) digest traffic instead of the O(N) whole-database pull —
//! which survives as [`ProtocolRequest::FullPull`], the genuine bottom
//! rung, chosen outright when the recipient is empty (every item would
//! differ) or when the descent discovers that more than half the item
//! space differs.
//!
//! Frames are capped by [`GossipBudget::max_frame_items`](crate::GossipBudget::max_frame_items) (ranges plus
//! fetches per request), mirroring the delta path's fetch coalescing. The
//! [`ReconDriver`] is owned by a [`Round`](crate::rounds::Round) — the one
//! initiator every runtime and the model checker run — so per-node
//! [`Costs`](epidb_common::Costs) are byte-identical across runtimes by
//! construction.

use epidb_common::trace::{OrdTag, TraceStep};
use epidb_common::{ConflictEvent, ConflictSite, Error, FnvHasher, ItemId, NodeId, Result};
use epidb_log::LogRecord;
use epidb_store::digest;

use crate::engine::{unexpected, ProtocolRequest, ProtocolResponse};
use crate::journal::MutationRef;
use crate::messages::{FullPullReply, ReconItem, ReconReply, ShippedItem};
use crate::policy::ConflictPolicy;
use crate::propagation::{AcceptOutcome, PullOutcome};
use crate::replica::Replica;

impl Replica {
    /// Digest of the digest-tree node `[start, end)` as the descent
    /// compares it, or `None` if the range is not a node of this replica's
    /// tree. Served from the store's cached tree
    /// ([`epidb_store::digest`]); the leaves actually hashed are charged as
    /// `items_scanned`.
    pub fn range_digest(&mut self, start: u32, end: u32) -> Option<u64> {
        let mut hashed = 0;
        let digest = self.store.range_digest(start, end, &mut hashed);
        self.costs.items_scanned += hashed;
        digest
    }

    /// The uncached fold of the node `[start, end)`, hashing every leaf
    /// under it and charging nothing: the oracle the cached tree is tested
    /// against.
    #[doc(hidden)]
    pub fn range_digest_uncached(&self, start: u32, end: u32) -> Option<u64> {
        self.store.range_digest_uncached(start, end)
    }

    /// Materialize one item for shipping: value (shared, not copied),
    /// IVV, and the *retained* per-origin log records for the item, so an
    /// adopting recipient rebuilds the same log state a tail-covered pull
    /// would have left it with.
    fn recon_item(&mut self, x: ItemId) -> ReconItem {
        let n = self.n_nodes();
        let mut records = Vec::new();
        for k in NodeId::all(n) {
            if let Some(rec) = self.log.retained(k, x) {
                records.push((k, rec.m));
                self.costs.log_records_examined += 1;
            }
        }
        let (ivv, value) = self.store.share(x).expect("checked item exists");
        ReconItem { item: x, ivv, value, records }
    }

    /// Serve one reconciliation descent step (the responder side of
    /// [`ProtocolRequest::Recon`]): for each probed range return its two
    /// child digests (a width-1 range returns its own leaf digest), and
    /// ship full items for the fetched leaves, plus the coverage floor.
    /// A probed range that is not a node of the digest tree is refused:
    /// an honest [`ReconDriver`] only probes the root and children of
    /// ranges it was sent.
    pub fn serve_recon(&mut self, ranges: &[(u32, u32)], fetch: &[ItemId]) -> Result<ReconReply> {
        let n = self.n_items() as u32;
        let mut digests = Vec::with_capacity(ranges.len() * 2);
        for &(start, end) in ranges {
            if !self.store.is_digest_node(start, end) {
                return Err(Error::Network(format!(
                    "recon range [{start}, {end}) is not a node of the {n}-item digest tree"
                )));
            }
            let mid = digest::midpoint(start, end);
            let children: &[(u32, u32)] =
                if end - start == 1 { &[(start, end)] } else { &[(start, mid), (mid, end)] };
            for &(s, e) in children {
                let d = self.range_digest(s, e).expect("a node and its children are nodes");
                digests.push((s, e, d));
            }
        }
        let mut items = Vec::with_capacity(fetch.len());
        for &x in fetch {
            self.check_item(x)?;
            items.push(self.recon_item(x));
        }
        let served = digests.len() as u64 + items.len() as u64;
        self.trace_record(TraceStep::ReconServe, None, None, OrdTag::NoCompare, served);
        self.post_step_audit("recon-serve");
        Ok(ReconReply { digests, items, floor: self.floor.clone(), cut: self.dbvv.total() })
    }

    /// Serve a whole-database pull (the responder side of
    /// [`ProtocolRequest::FullPull`]): every item with its IVV, value,
    /// and retained records, plus the coverage floor. O(N) by design —
    /// the ladder's bottom rung.
    pub fn serve_full_pull(&mut self) -> Result<FullPullReply> {
        let n = self.n_items();
        let mut items = Vec::with_capacity(n);
        for x in ItemId::all(n) {
            items.push(self.recon_item(x));
        }
        self.costs.items_scanned += n as u64;
        self.trace_record(TraceStep::ReconServe, None, None, OrdTag::NoCompare, n as u64);
        self.post_step_audit("recon-serve");
        Ok(FullPullReply { items, floor: self.floor.clone() })
    }

    /// Apply reconciled items at the recipient — the recon twin of
    /// [`accept_propagation`](Replica::accept_propagation), with the same
    /// per-item IVV routing (adopt / redundant / conflict under the
    /// policy) and the same follow-up intra-node propagation. Shipped
    /// records are applied only for *adopted* items (a refused concurrent
    /// copy keeps its records out, exactly as Fig. 3 strips tails), and
    /// the source's coverage floor merges in component-wise, so the
    /// recipient never re-serves coverage it did not receive.
    ///
    /// Items are checked whole first: an unknown item, an IVV that is not
    /// `n` wide or a record origin at or above `n` refuses the step before
    /// it is journaled or any item applies.
    pub fn apply_recon_items(
        &mut self,
        from: NodeId,
        items: Vec<ReconItem>,
        floor: &[u64],
    ) -> Result<AcceptOutcome> {
        if floor.len() != self.n_nodes() {
            return Err(Error::DimensionMismatch { left: floor.len(), right: self.n_nodes() });
        }
        for shipped in &items {
            self.check_item(shipped.item)?;
            self.check_width(&shipped.ivv)?;
            if let Some(&(k, _)) = shipped.records.iter().find(|(k, _)| k.index() >= self.n_nodes())
            {
                return Err(Error::UnknownNode(k));
            }
        }
        // Journal only effective steps: digest-only descent replies touch
        // no durable state and replay as no-ops anyway.
        let effect = !items.is_empty() || floor.iter().enumerate().any(|(k, &m)| m > self.floor[k]);
        if effect {
            self.journal_mutation(MutationRef::Recon { from, items: &items, floor });
        }

        let mut outcome = AcceptOutcome::default();
        let fetched = items.len() as u64;
        for shipped in items {
            let x = shipped.item;
            let mut cmps = 0;
            let ord = {
                let local = self.store.get(x).expect("checked");
                shipped.ivv.compare_counted(local.ivv, &mut cmps)
            };
            self.costs.vv_entry_cmps += cmps;
            match ord {
                epidb_vv::VvOrd::Dominates => {
                    let local = self.store.get(x).expect("checked");
                    self.dbvv.absorb_item_copy(local.ivv, &shipped.ivv)?;
                    self.store.adopt(x, shipped.value.into(), &shipped.ivv)?;
                    self.op_cache.clear_item(x);
                    self.costs.items_copied += 1;
                    outcome.copied.push(x);
                    for &(k, m) in &shipped.records {
                        self.log.add_record(k, LogRecord { item: x, m });
                        self.costs.log_records_examined += 1;
                    }
                    self.trace_record(
                        TraceStep::AcceptItem,
                        Some(x),
                        Some(from),
                        OrdTag::Dominates,
                        0,
                    );
                }
                epidb_vv::VvOrd::Equal => {
                    self.counters.equal_receipts += 1;
                    self.costs.redundant_deliveries += 1;
                    self.trace_record(TraceStep::AcceptItem, Some(x), Some(from), OrdTag::Equal, 0);
                }
                epidb_vv::VvOrd::DominatedBy => {
                    self.counters.stale_receipts += 1;
                    self.costs.redundant_deliveries += 1;
                    self.trace_record(
                        TraceStep::AcceptItem,
                        Some(x),
                        Some(from),
                        OrdTag::DominatedBy,
                        0,
                    );
                }
                epidb_vv::VvOrd::Concurrent => {
                    outcome.conflicts += 1;
                    let offending = {
                        let local = self.store.get(x).expect("checked");
                        shipped.ivv.offending_pair(local.ivv)
                    };
                    self.report_conflict(ConflictEvent {
                        item: x,
                        detected_at: self.id,
                        peer: Some(from),
                        site: ConflictSite::Propagation,
                        offending,
                    });
                    let as_shipped = ShippedItem {
                        item: x,
                        ivv: shipped.ivv.clone(),
                        value: shipped.value.clone(),
                    };
                    match self.policy {
                        ConflictPolicy::Report if self.debug_adopt_conflicts => {
                            self.store.adopt(x, shipped.value.into(), &shipped.ivv)?;
                            self.op_cache.clear_item(x);
                            self.costs.items_copied += 1;
                            outcome.copied.push(x);
                            self.trace_record(
                                TraceStep::AcceptItem,
                                Some(x),
                                Some(from),
                                OrdTag::Concurrent,
                                0,
                            );
                        }
                        ConflictPolicy::Report => {
                            // Refuse the copy; its records stay out of the
                            // log, as Fig. 3 strips a refused item's tails.
                            self.trace_record(
                                TraceStep::RefuseItem,
                                Some(x),
                                Some(from),
                                OrdTag::Concurrent,
                                0,
                            );
                        }
                        ConflictPolicy::ResolveLww => {
                            let m = self.resolve_lww(x, &as_shipped)?;
                            outcome.copied.push(x);
                            self.trace_record(
                                TraceStep::LwwResolve,
                                Some(x),
                                Some(from),
                                OrdTag::Concurrent,
                                m,
                            );
                        }
                    }
                }
            }
        }

        for k in NodeId::all(self.n_nodes()) {
            self.raise_floor(k, floor[k.index()]);
            self.enforce_log_retention(k);
        }

        let intra = self.intra_node_propagation(&outcome.copied);
        outcome.replayed = intra.replayed;
        outcome.aux_discarded = intra.discarded;
        outcome.conflicts += intra.conflicts;

        self.trace_record(TraceStep::ReconAccept, None, Some(from), OrdTag::NoCompare, fetched);
        self.post_step_audit("recon-accept");
        Ok(outcome)
    }
}

/// Pull from `source` via set reconciliation over a local (in-process)
/// transport — the recon twin of [`crate::pull`] / [`crate::pull_delta`].
pub fn pull_recon(recipient: &mut Replica, source: &mut Replica) -> Result<PullOutcome> {
    crate::engine::Engine::pull_recon(recipient, &mut crate::engine::LocalTransport::new(source))
}

/// What the initiator must do next after feeding a response into
/// [`ReconDriver::on_response`].
#[derive(Debug)]
pub enum ReconStep {
    /// Another request is in flight.
    Send(ProtocolRequest),
    /// The descent (or full pull) completed.
    Done(PullOutcome),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ReconMode {
    /// Digest-tree descent over the item space.
    Descent,
    /// Degraded to the whole-database pull.
    Full,
}

/// The recipient-driven reconciliation state machine: the part of a
/// [`Round`](crate::rounds::Round) that runs the descent, whether the
/// round was started as one or degraded into one. `Clone` so the model
/// checker can fork systems with descents mid-flight.
#[derive(Clone, Debug)]
pub struct ReconDriver {
    n_items: u32,
    /// Max entries (ranges + fetches) per request frame, min 1.
    cap: usize,
    mode: ReconMode,
    /// Differing ranges not yet probed (breadth-first order).
    pending_ranges: Vec<(u32, u32)>,
    /// Differing leaves not yet fetched.
    pending_fetch: Vec<ItemId>,
    /// Differing leaves discovered so far (the degradation trigger).
    discovered: u64,
    /// The source's cut stamp from the first reply. A later reply with a
    /// different stamp means the source mutated mid-descent — earlier
    /// subtree prunes are no longer sound, so the driver degrades to the
    /// atomic whole-database pull.
    cut: Option<u64>,
    /// Items fetched so far, **staged** until the descent completes. A
    /// partially-applied descent could leave the recipient holding a
    /// non-prefix subset of an origin's updates (absorbing an item's
    /// later updates without a sibling item carrying the earlier ones),
    /// which tail-covered pulls can never repair — so fetched items only
    /// commit atomically, all at once, when every pending range and
    /// fetch has drained under a single consistent cut. An aborted round
    /// discards the stage and leaves the recipient untouched.
    staged: Vec<ReconItem>,
    /// Component-wise max of the reply floors, committed with the stage.
    staged_floor: Vec<u64>,
    /// Whether any reply shipped items (drives the final outcome).
    any_items: bool,
    outcome: AcceptOutcome,
}

impl ReconDriver {
    /// Start a reconciliation toward a peer: charges and returns the
    /// first request. An empty recipient (zero DBVV — every non-empty
    /// source item is guaranteed to differ) skips the descent and opens
    /// with the whole-database pull outright.
    pub fn start(initiator: &mut Replica, cap: usize) -> (ReconDriver, ProtocolRequest) {
        let n = initiator.n_items() as u32;
        let mut driver = ReconDriver {
            n_items: n,
            cap: cap.max(1),
            mode: ReconMode::Descent,
            pending_ranges: Vec::new(),
            pending_fetch: Vec::new(),
            discovered: 0,
            cut: None,
            staged: Vec::new(),
            staged_floor: vec![0; initiator.n_nodes()],
            any_items: false,
            outcome: AcceptOutcome::default(),
        };
        let req = if n == 0 || initiator.dbvv().total() == 0 {
            driver.mode = ReconMode::Full;
            ProtocolRequest::FullPull { from: initiator.id() }
        } else {
            ProtocolRequest::Recon { from: initiator.id(), ranges: vec![(0, n)], fetch: vec![] }
        };
        initiator.charge_message(req.control_bytes(), req.payload_bytes());
        (driver, req)
    }

    /// Feed the responder's reply to the last request into the machine.
    pub fn on_response(
        &mut self,
        initiator: &mut Replica,
        peer: NodeId,
        resp: ProtocolResponse,
    ) -> Result<ReconStep> {
        match (self.mode, resp) {
            (ReconMode::Full, ProtocolResponse::Full(reply)) => {
                let got = initiator.apply_recon_items(peer, reply.items, &reply.floor)?;
                self.merge(got);
                Ok(ReconStep::Done(PullOutcome::Propagated(std::mem::take(&mut self.outcome))))
            }
            (ReconMode::Full, other) => Err(unexpected("full-pull", &other)),
            (ReconMode::Descent, ProtocolResponse::Recon(reply)) => {
                // Cut check first: digests and items are only comparable
                // against ONE consistent source snapshot. A mid-descent
                // source mutation (the stamp moved) invalidates the subtree
                // prunes made against earlier replies, so discard the stage
                // and degrade to the single-exchange (atomic-cut)
                // whole-database pull.
                let stale = self.cut.is_some_and(|c| c != reply.cut);
                self.cut = Some(reply.cut);
                if stale {
                    return Ok(ReconStep::Send(self.degrade(initiator)));
                }
                if reply.floor.len() != self.staged_floor.len() {
                    return Err(Error::DimensionMismatch {
                        left: reply.floor.len(),
                        right: self.staged_floor.len(),
                    });
                }
                for (k, &m) in reply.floor.iter().enumerate() {
                    self.staged_floor[k] = self.staged_floor[k].max(m);
                }
                if !reply.items.is_empty() {
                    self.any_items = true;
                    self.staged.extend(reply.items);
                }
                // Narrow: equal digests prune whole subtrees; differing
                // width-1 ranges become leaf fetches.
                for &(start, end, digest) in &reply.digests {
                    let Some(local) = initiator.range_digest(start, end) else {
                        return Err(Error::Network(format!(
                            "recon reply range [{start}, {end}) is not a node of the {}-item \
                             digest tree",
                            self.n_items
                        )));
                    };
                    if local == digest {
                        continue;
                    }
                    if end - start == 1 {
                        self.pending_fetch.push(ItemId(start));
                        self.discovered += 1;
                    } else {
                        self.pending_ranges.push((start, end));
                    }
                }
                // Degrade: more than half the item space differs — the
                // remaining descent would cost more than shipping the
                // database whole.
                if self.discovered > (self.n_items / 2) as u64 {
                    return Ok(ReconStep::Send(self.degrade(initiator)));
                }
                if self.pending_ranges.is_empty() && self.pending_fetch.is_empty() {
                    // Commit: every range and fetch drained under one cut —
                    // apply the whole stage atomically.
                    let staged = std::mem::take(&mut self.staged);
                    let floor = std::mem::take(&mut self.staged_floor);
                    let got = initiator.apply_recon_items(peer, staged, &floor)?;
                    self.merge(got);
                    let outcome = std::mem::take(&mut self.outcome);
                    return Ok(ReconStep::Done(if self.any_items {
                        PullOutcome::Propagated(outcome)
                    } else {
                        PullOutcome::UpToDate
                    }));
                }
                // Next frame: up to `cap` entries, ranges before fetches
                // (breadth-first, deterministic).
                let nr = self.pending_ranges.len().min(self.cap);
                let ranges: Vec<(u32, u32)> = self.pending_ranges.drain(..nr).collect();
                let nf = self.pending_fetch.len().min(self.cap - nr);
                let fetch: Vec<ItemId> = self.pending_fetch.drain(..nf).collect();
                let req = ProtocolRequest::Recon { from: initiator.id(), ranges, fetch };
                initiator.charge_message(req.control_bytes(), req.payload_bytes());
                Ok(ReconStep::Send(req))
            }
            (ReconMode::Descent, other) => Err(unexpected("recon", &other)),
        }
    }

    /// Abandon the descent — drop pending probes and the stage — and
    /// charge + build the whole-database pull that replaces it.
    fn degrade(&mut self, initiator: &mut Replica) -> ProtocolRequest {
        self.mode = ReconMode::Full;
        self.pending_ranges.clear();
        self.pending_fetch.clear();
        self.staged.clear();
        self.staged_floor.iter_mut().for_each(|m| *m = 0);
        let req = ProtocolRequest::FullPull { from: initiator.id() };
        initiator.charge_message(req.control_bytes(), req.payload_bytes());
        req
    }

    fn merge(&mut self, got: AcceptOutcome) {
        self.outcome.copied.extend(got.copied);
        self.outcome.conflicts += got.conflicts;
        self.outcome.replayed += got.replayed;
        self.outcome.aux_discarded.extend(got.aux_discarded);
    }

    /// Absorb the descent's full state into a fingerprint hasher — two
    /// drivers hash identically iff a future schedule cannot distinguish
    /// them (see [`Round::mc_fingerprint`](crate::rounds::Round)).
    pub fn mc_fingerprint(&self, h: &mut FnvHasher) {
        h.write_u64(self.n_items as u64);
        h.write_u64(self.cap as u64);
        h.write_u8(match self.mode {
            ReconMode::Descent => 0,
            ReconMode::Full => 1,
        });
        h.write_u64(self.pending_ranges.len() as u64);
        for &(s, e) in &self.pending_ranges {
            h.write_u64(s as u64);
            h.write_u64(e as u64);
        }
        h.write_u64(self.pending_fetch.len() as u64);
        for x in &self.pending_fetch {
            h.write_u64(x.index() as u64);
        }
        h.write_u64(self.discovered);
        match self.cut {
            None => h.write_u8(0),
            Some(c) => {
                h.write_u8(1);
                h.write_u64(c);
            }
        }
        h.write_u64(self.staged.len() as u64);
        for it in &self.staged {
            h.write_u64(it.item.index() as u64);
            h.write_u64(it.ivv.len() as u64);
            for &e in it.ivv.entries() {
                h.write_u64(e);
            }
            h.write_u64(it.value.len() as u64);
            h.write(&it.value);
            h.write_u64(it.records.len() as u64);
            for &(k, m) in &it.records {
                h.write_u64(k.index() as u64);
                h.write_u64(m);
            }
        }
        h.write_u64(self.staged_floor.len() as u64);
        for &m in &self.staged_floor {
            h.write_u64(m);
        }
        h.write_u8(self.any_items as u8);
        h.write_u64(self.outcome.copied.len() as u64);
        for x in &self.outcome.copied {
            h.write_u64(x.index() as u64);
        }
        h.write_u64(self.outcome.conflicts as u64);
        h.write_u64(self.outcome.replayed);
        h.write_u64(self.outcome.aux_discarded.len() as u64);
        for x in &self.outcome.aux_discarded {
            h.write_u64(x.index() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, GossipBudget, LocalTransport};
    use epidb_store::UpdateOp;

    fn pair(n_items: usize) -> (Replica, Replica) {
        (Replica::new(NodeId(0), 2, n_items), Replica::new(NodeId(1), 2, n_items))
    }

    #[test]
    fn leaf_digests_agree_iff_items_agree() {
        let (mut a, mut b) = pair(4);
        assert_eq!(a.range_digest(0, 1), b.range_digest(0, 1));
        b.update(ItemId(0), UpdateOp::set(&b"x"[..])).unwrap();
        assert_ne!(a.range_digest(0, 1), b.range_digest(0, 1));
        a.update(ItemId(0), UpdateOp::set(&b"x"[..])).unwrap();
        // Same value, different IVV (different origin) — still different.
        assert_ne!(a.range_digest(0, 1), b.range_digest(0, 1));
    }

    #[test]
    fn range_digests_fold_and_localize_differences() {
        let (mut a, mut b) = pair(8);
        assert_eq!(a.range_digest(0, 8), b.range_digest(0, 8));
        b.update(ItemId(5), UpdateOp::set(&b"q"[..])).unwrap();
        assert_ne!(a.range_digest(0, 8), b.range_digest(0, 8));
        // The untouched half still agrees; the touched half differs.
        assert_eq!(a.range_digest(0, 4), b.range_digest(0, 4));
        assert_ne!(a.range_digest(4, 8), b.range_digest(4, 8));
        assert_eq!(a.range_digest(4, 5), b.range_digest(4, 5));
        assert_ne!(a.range_digest(5, 6), b.range_digest(5, 6));
    }

    #[test]
    fn serve_recon_returns_children_and_rejects_bad_ranges() {
        let (mut a, _) = pair(8);
        let reply = a.serve_recon(&[(0, 8)], &[]).unwrap();
        assert_eq!(reply.digests.len(), 2);
        assert_eq!((reply.digests[0].0, reply.digests[0].1), (0, 4));
        assert_eq!((reply.digests[1].0, reply.digests[1].1), (4, 8));
        let reply = a.serve_recon(&[(3, 4)], &[]).unwrap();
        assert_eq!(reply.digests.len(), 1, "width-1 range yields its own leaf digest");
        assert!(a.serve_recon(&[(0, 9)], &[]).is_err());
        assert!(a.serve_recon(&[(4, 4)], &[]).is_err());
    }

    #[test]
    fn serve_recon_refuses_in_space_ranges_that_are_not_tree_nodes() {
        let (mut a, _) = pair(8);
        let outside = a.serve_recon(&[(0, 9)], &[]).unwrap_err();
        let straddling = a.serve_recon(&[(1, 3)], &[]).unwrap_err();
        assert!(matches!(outside, Error::Network(_)));
        assert!(matches!(straddling, Error::Network(_)), "{straddling}");
        assert!(straddling.to_string().contains("not a node"), "{straddling}");
        // Both halves of [1, 3) are nodes; the range itself is not.
        assert!(a.serve_recon(&[(1, 2), (2, 3)], &[]).is_ok());
        assert!(a.serve_recon(&[(0, 3)], &[]).is_err());
        assert!(a.serve_recon(&[(2, 8)], &[]).is_err());
    }

    #[test]
    fn warm_probes_hash_only_what_changed() {
        let n = 1024;
        let (mut a, _) = pair(n);
        for i in 0..n as u32 {
            a.update(ItemId(i), UpdateOp::set(vec![i as u8; 4])).unwrap();
        }
        let scanned = |r: &Replica| r.costs().items_scanned;
        // The first probe builds the tree: every leaf once.
        let before = scanned(&a);
        a.serve_recon(&[(0, n as u32)], &[]).unwrap();
        assert_eq!(scanned(&a) - before, n as u64);
        // Clean: the root's children come from the cache.
        let before = scanned(&a);
        a.serve_recon(&[(0, n as u32)], &[]).unwrap();
        assert_eq!(scanned(&a) - before, 0);
        // One write dirties one path: the refold rehashes the two buckets
        // under its lowest cached node, not the half it lies in.
        a.update(ItemId(700), UpdateOp::append(&b"+"[..])).unwrap();
        let before = scanned(&a);
        a.serve_recon(&[(0, n as u32)], &[]).unwrap();
        assert_eq!(scanned(&a) - before, 32);
        assert_eq!(a.range_digest(0, n as u32), a.range_digest_uncached(0, n as u32));
        // Shipping an item changes no digest and dirties nothing.
        let before = scanned(&a);
        a.serve_recon(&[], &[ItemId(3)]).unwrap();
        a.serve_recon(&[(0, n as u32)], &[]).unwrap();
        assert_eq!(scanned(&a) - before, 0);
    }

    #[test]
    fn recon_descent_ships_only_the_diff() {
        let n = 64;
        let (mut a, mut b) = pair(n);
        // Shared history at both replicas.
        for i in 0..n as u32 {
            b.update(ItemId(i), UpdateOp::set(vec![i as u8; 16])).unwrap();
        }
        Engine::pull(&mut a, &mut LocalTransport::new(&mut b)).unwrap();
        // Then b moves ahead by 3 items while a is offline.
        for i in [7u32, 20, 41] {
            b.update(ItemId(i), UpdateOp::append(&b"+late"[..])).unwrap();
        }
        let payload_before = b.costs().bytes_sent - b.costs().control_bytes;
        let out = Engine::pull_recon(&mut a, &mut LocalTransport::new(&mut b)).unwrap();
        let mut copied = out.copied().to_vec();
        copied.sort();
        assert_eq!(copied, vec![ItemId(7), ItemId(20), ItemId(41)]);
        for i in [7u32, 20, 41] {
            assert_eq!(a.read(ItemId(i)).unwrap(), b.read(ItemId(i)).unwrap());
        }
        // Payload shipped by the descent = the three differing values only.
        let diff_payload: u64 = [7u32, 20, 41]
            .iter()
            .map(|&i| b.read(ItemId(i)).unwrap().as_bytes().len() as u64)
            .sum();
        let payload_sent = b.costs().bytes_sent - b.costs().control_bytes - payload_before;
        assert_eq!(payload_sent, diff_payload, "descent ships only differing values");
        a.check_invariants().unwrap();
        b.check_invariants().unwrap();
    }

    #[test]
    fn recon_on_equal_replicas_reports_up_to_date() {
        let (mut a, mut b) = pair(8);
        for i in 0..8u32 {
            b.update(ItemId(i), UpdateOp::set(&b"v"[..])).unwrap();
        }
        Engine::pull(&mut a, &mut LocalTransport::new(&mut b)).unwrap();
        let out = Engine::pull_recon(&mut a, &mut LocalTransport::new(&mut b)).unwrap();
        assert!(matches!(out, PullOutcome::UpToDate));
    }

    #[test]
    fn empty_recipient_goes_straight_to_full_pull() {
        let (mut a, mut b) = pair(8);
        for i in 0..8u32 {
            b.update(ItemId(i), UpdateOp::set(vec![1u8; 8])).unwrap();
        }
        let (driver, req) = ReconDriver::start(&mut a, usize::MAX);
        assert_eq!(driver.mode, ReconMode::Full);
        assert!(matches!(req, ProtocolRequest::FullPull { .. }));
        let out = Engine::pull_recon(&mut a, &mut LocalTransport::new(&mut b)).unwrap();
        assert_eq!(out.copied().len(), 8);
        for i in 0..8u32 {
            assert_eq!(a.read(ItemId(i)).unwrap(), b.read(ItemId(i)).unwrap());
        }
        a.check_invariants().unwrap();
    }

    #[test]
    fn descent_degrades_to_full_pull_when_most_items_differ() {
        let n = 16;
        let (mut a, mut b) = pair(n);
        // One shared item so the recipient is not empty (no shortcut).
        b.update(ItemId(0), UpdateOp::set(&b"seed"[..])).unwrap();
        Engine::pull(&mut a, &mut LocalTransport::new(&mut b)).unwrap();
        for i in 1..n as u32 {
            b.update(ItemId(i), UpdateOp::set(vec![i as u8; 4])).unwrap();
        }
        let out = Engine::pull_recon(&mut a, &mut LocalTransport::new(&mut b)).unwrap();
        assert_eq!(out.copied().len(), n - 1);
        for i in 0..n as u32 {
            assert_eq!(a.read(ItemId(i)).unwrap(), b.read(ItemId(i)).unwrap());
        }
    }

    #[test]
    fn recon_applies_retained_records_and_floor() {
        let (mut a, mut b) = pair(4);
        b.set_log_retention(1);
        for i in 0..4u32 {
            b.update(ItemId(i), UpdateOp::set(&b"v"[..])).unwrap();
        }
        // b's log keeps only the latest record; its floor is raised.
        assert!(b.coverage_floor()[1] > 0);
        a.update(ItemId(0), UpdateOp::set(&b"mine"[..])).unwrap();
        let out = Engine::pull_recon(&mut a, &mut LocalTransport::new(&mut b)).unwrap();
        assert!(out.copied().len() >= 3);
        // The recipient inherited the responder's floor.
        assert_eq!(a.coverage_floor()[1], b.coverage_floor()[1]);
        // And the retained record for the last item arrived.
        assert_eq!(a.log().retained(NodeId(1), ItemId(3)), b.log().retained(NodeId(1), ItemId(3)));
        a.check_invariants().unwrap();
    }

    #[test]
    fn budgeted_descent_chunks_request_frames() {
        let n = 64;
        let (mut a0, mut b) = pair(n);
        for i in 0..n as u32 {
            b.update(ItemId(i), UpdateOp::set(vec![i as u8; 8])).unwrap();
        }
        Engine::pull(&mut a0, &mut LocalTransport::new(&mut b)).unwrap();
        for i in [3u32, 30, 60] {
            b.update(ItemId(i), UpdateOp::append(&b"+x"[..])).unwrap();
        }
        let mut a1 = a0.clone();
        let out = Engine::pull_recon_with(
            &mut a0,
            &mut LocalTransport::new(&mut b),
            &crate::RetryPolicy::none(),
            &GossipBudget::per_frame(2),
        )
        .unwrap();
        assert_eq!(out.copied().len(), 3);
        // Unbounded gets there too, in fewer (larger) frames.
        let out = Engine::pull_recon(&mut a1, &mut LocalTransport::new(&mut b)).unwrap();
        assert_eq!(out.copied().len(), 3);
        assert!(a0.costs().messages_sent > a1.costs().messages_sent);
        for i in 0..n as u32 {
            assert_eq!(a0.read(ItemId(i)).unwrap(), a1.read(ItemId(i)).unwrap());
        }
    }

    #[test]
    fn mid_descent_source_write_degrades_to_atomic_full_pull() {
        // Regression (found by the model checker): a source write racing
        // the descent can invalidate earlier subtree prunes, and absorbing
        // the late reply's items would leave the recipient holding a
        // non-prefix subset of the source's updates — a divergence that
        // tail-covered pulls can never heal. The cut stamp must detect the
        // race and force the single-exchange whole-database pull instead.
        let n = 8;
        let (mut a, mut b) = pair(n);
        for i in 0..n as u32 {
            b.update(ItemId(i), UpdateOp::set(vec![i as u8; 8])).unwrap();
        }
        Engine::pull(&mut a, &mut LocalTransport::new(&mut b)).unwrap();
        for i in [1u32, 6] {
            b.update(ItemId(i), UpdateOp::append(&b"+x"[..])).unwrap();
        }
        let (mut driver, mut req) = ReconDriver::start(&mut a, 1);
        let mut exchanges = 0;
        let mut degraded = false;
        loop {
            exchanges += 1;
            let resp = match &req {
                ProtocolRequest::Recon { ranges, fetch, .. } => {
                    ProtocolResponse::Recon(b.serve_recon(ranges, fetch).unwrap())
                }
                ProtocolRequest::FullPull { .. } => {
                    degraded = true;
                    ProtocolResponse::Full(b.serve_full_pull().unwrap())
                }
                other => panic!("unexpected recon request {other:?}"),
            };
            // The source keeps writing while the descent is in flight —
            // the next reply it serves will carry a moved cut stamp.
            if exchanges == 2 {
                b.update(ItemId(4), UpdateOp::set(&b"racing"[..])).unwrap();
            }
            match driver.on_response(&mut a, b.id(), resp).unwrap() {
                ReconStep::Send(next) => req = next,
                ReconStep::Done(out) => {
                    assert!(matches!(out, PullOutcome::Propagated(_)));
                    break;
                }
            }
        }
        assert!(degraded, "the moved cut stamp must force the whole-database pull");
        for i in 0..n as u32 {
            assert_eq!(a.read(ItemId(i)).unwrap(), b.read(ItemId(i)).unwrap());
        }
        a.check_invariants().unwrap();
        // The committed state is prefix-true: a tail-covered pull sees
        // nothing left to ship.
        let out = Engine::pull(&mut a, &mut LocalTransport::new(&mut b)).unwrap();
        assert!(matches!(out, PullOutcome::UpToDate));
    }

    #[test]
    fn aborted_descent_leaves_the_recipient_untouched() {
        // Fetched items are staged, not applied: a round that dies
        // mid-descent (loss, crash) must leave no partial absorption
        // behind, or the recipient's DBVV could claim updates it does not
        // hold in prefix order.
        let n = 8;
        let (mut a, mut b) = pair(n);
        for i in 0..n as u32 {
            b.update(ItemId(i), UpdateOp::set(vec![i as u8; 8])).unwrap();
        }
        Engine::pull(&mut a, &mut LocalTransport::new(&mut b)).unwrap();
        for i in [1u32, 6] {
            b.update(ItemId(i), UpdateOp::append(&b"+x"[..])).unwrap();
        }
        let dbvv_before = a.dbvv().clone();
        let (mut driver, mut req) = ReconDriver::start(&mut a, 1);
        // Run two exchanges — far enough to have fetched item 1 into the
        // stage with cap 1 — then abandon the round.
        for _ in 0..3 {
            let resp = match &req {
                ProtocolRequest::Recon { ranges, fetch, .. } => {
                    ProtocolResponse::Recon(b.serve_recon(ranges, fetch).unwrap())
                }
                other => panic!("unexpected recon request {other:?}"),
            };
            match driver.on_response(&mut a, b.id(), resp).unwrap() {
                ReconStep::Send(next) => req = next,
                ReconStep::Done(_) => panic!("descent finished before the abort point"),
            }
        }
        drop(driver);
        assert_eq!(a.dbvv(), &dbvv_before, "nothing committed by the aborted descent");
        assert_eq!(a.read(ItemId(1)).unwrap().as_bytes(), &[1u8; 8][..], "item 1 unchanged");
        // And the retried reconciliation heals cleanly afterwards.
        let out = Engine::pull_recon(&mut a, &mut LocalTransport::new(&mut b)).unwrap();
        assert!(matches!(out, PullOutcome::Propagated(_)));
        for i in 0..n as u32 {
            assert_eq!(a.read(ItemId(i)).unwrap(), b.read(ItemId(i)).unwrap());
        }
        a.check_invariants().unwrap();
    }

    #[test]
    fn pull_degrades_to_recon_when_coverage_is_lost() {
        let (mut a, mut b) = pair(8);
        b.set_log_retention(1);
        for i in 0..8u32 {
            b.update(ItemId(i), UpdateOp::set(vec![i as u8; 8])).unwrap();
        }
        a.update(ItemId(0), UpdateOp::set(&b"mine"[..])).unwrap();
        // a's DBVV gap at origin 1 starts below b's floor → plain pull
        // answers NeedRecon and the driver reconciles transparently.
        let out = Engine::pull(&mut a, &mut LocalTransport::new(&mut b)).unwrap();
        assert!(matches!(out, PullOutcome::Propagated(_)));
        for i in 1..8u32 {
            assert_eq!(a.read(ItemId(i)).unwrap(), b.read(ItemId(i)).unwrap());
        }
        a.check_invariants().unwrap();
    }

    #[test]
    fn delta_pull_degrades_to_recon_when_coverage_is_lost() {
        let (mut a, mut b) = pair(8);
        a.enable_delta(4096);
        b.enable_delta(4096);
        b.set_log_retention(1);
        for i in 0..8u32 {
            b.update(ItemId(i), UpdateOp::set(vec![i as u8; 8])).unwrap();
        }
        a.update(ItemId(0), UpdateOp::set(&b"mine"[..])).unwrap();
        let out = Engine::pull_delta(&mut a, &mut LocalTransport::new(&mut b)).unwrap();
        assert!(matches!(out, PullOutcome::Propagated(_)));
        for i in 1..8u32 {
            assert_eq!(a.read(ItemId(i)).unwrap(), b.read(ItemId(i)).unwrap());
        }
    }
}
