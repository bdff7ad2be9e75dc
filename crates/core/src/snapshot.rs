//! Snapshot persistence: serialize a replica's durable state to bytes and
//! recover it.
//!
//! The epidemic model tolerates long outages — a recovering server simply
//! resumes anti-entropy from its last durable state and catches up (the
//! very property the Oracle comparison in §8.2 turns on). A snapshot
//! captures everything the protocol needs across a crash:
//!
//! * every regular item copy (value + IVV),
//! * the DBVV,
//! * the log vector (all retained records, in order),
//! * the auxiliary copies and the auxiliary log (pending out-of-bound
//!   updates carry re-doable operations and must survive).
//!
//! Ephemeral state is deliberately excluded: cost counters, pending
//! conflict reports (re-detected by the next propagation), the
//! `IsSelected` flags (always clear between propagations), and the
//! delta-mode op cache (an optimization, rebuilt warm over time).

use bytes::Bytes;
use epidb_common::{Error, ItemId, NodeId, Result};
use epidb_store::ItemValue;

use crate::codec::{
    get_dbvv, get_op, get_vv, put_dbvv, put_op, put_vv, Reader, Writer, CODEC_VERSION,
    INLINE_VALUE_MAX,
};
use crate::policy::ConflictPolicy;
use crate::replica::{AuxItem, Replica};

/// Magic prefix of snapshot files.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"EPDB";

/// Collapse any failure during snapshot decoding into the non-retryable
/// [`Error::CorruptSnapshot`]. Unlike a corrupt *frame*, corrupt durable
/// state does not heal on retry: re-reading the same bytes reproduces the
/// same failure, so the retry machinery must not loop on it.
fn corrupt(e: Error) -> Error {
    match e {
        Error::CorruptSnapshot(_) => e,
        other => Error::CorruptSnapshot(other.to_string()),
    }
}

/// Encoded bytes [`Replica::write_snapshot`] gathers before each call of
/// its `emit`: a checkpoint's transient buffer, whatever the replica's size.
pub const SNAPSHOT_PIECE: usize = 64 << 10;

impl Replica {
    /// Serialize the replica's durable state in pieces of about
    /// [`SNAPSHOT_PIECE`] bytes. `emit` sees each piece in order (as
    /// [`Writer::chunks`]: control runs, and large shared values by
    /// reference); their concatenation is byte for byte
    /// [`to_snapshot`](Self::to_snapshot). One writer is reused for every
    /// piece, so encoding a replica of any size holds one piece at a time.
    /// The first error `emit` returns stops the encode and is returned.
    pub fn write_snapshot<E>(
        &self,
        mut emit: impl FnMut(&Writer) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        // Headroom past the flush mark for the item that crosses it.
        let mut w = Writer::with_capacity(SNAPSHOT_PIECE + (4 << 10));
        self.encode_snapshot(&mut w, SNAPSHOT_PIECE, &mut emit)?;
        if w.is_empty() {
            return Ok(());
        }
        emit(&w)
    }

    /// Serialize the replica's durable state into one buffer: what
    /// [`write_snapshot`](Self::write_snapshot) emits, collected. Holds the
    /// whole encoded replica at once; checkpoints stream instead.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        let no_pieces = &mut |_: &Writer| Ok::<(), std::convert::Infallible>(());
        match self.encode_snapshot(&mut w, usize::MAX, no_pieces) {
            Ok(()) => w.into_bytes(),
            Err(never) => match never {},
        }
    }

    /// Encode into `w`, handing it to `emit` and clearing it whenever it
    /// holds `piece` bytes or more; the remainder is left in `w`.
    fn encode_snapshot<E>(
        &self,
        w: &mut Writer,
        piece: usize,
        emit: &mut impl FnMut(&Writer) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let mut flush = |w: &mut Writer| {
            if w.len() >= piece {
                emit(w)?;
                w.clear();
            }
            Ok(())
        };
        w.bytes(SNAPSHOT_MAGIC);
        w.u8(CODEC_VERSION);
        w.u16(self.id.0);
        w.u16(self.n_nodes() as u16);
        w.u32(self.n_items() as u32);
        w.u8(match self.policy {
            ConflictPolicy::Report => 0,
            ConflictPolicy::ResolveLww => 1,
        });
        put_dbvv(w, &self.dbvv);

        // Regular copies.
        for x in ItemId::all(self.n_items()) {
            let item = self.store.get(x).expect("dense items");
            put_item_value(w, item.value);
            put_vv(w, item.ivv);
            flush(w)?;
        }

        // Log vector, per origin, head-to-tail.
        for j in NodeId::all(self.n_nodes()) {
            w.u32(self.log.component_len(j) as u32);
            for rec in self.log.iter_component(j) {
                w.u32(rec.item.0);
                w.u64(rec.m);
                flush(w)?;
            }
        }

        // Auxiliary copies (the BTreeMap iterates in item order, so the
        // output is deterministic by construction).
        w.u32(self.aux_items.len() as u32);
        for (x, item) in &self.aux_items {
            w.u32(x.0);
            put_item_value(w, &item.value);
            put_vv(w, &item.ivv);
            flush(w)?;
        }

        // Auxiliary log, arrival order.
        w.u32(self.aux_log.len() as u32);
        for rec in self.aux_log.iter() {
            w.u32(rec.item.0);
            put_vv(w, &rec.vv);
            put_op(w, &rec.op);
            flush(w)?;
        }

        // Log retention and the coverage floor (§4.2 compaction state). The
        // floor is durable protocol state: losing it across a crash would
        // let a recovered replica serve tails it cannot prove complete.
        w.u32(self.log_retention as u32);
        for k in NodeId::all(self.n_nodes()) {
            w.u64(self.floor[k.index()]);
        }
        Ok(())
    }

    /// Recover a replica from a snapshot. Every failure — bad magic,
    /// unsupported version, decode error, range check, violated invariant —
    /// surfaces as the non-retryable [`Error::CorruptSnapshot`].
    pub fn from_snapshot(buf: &[u8]) -> Result<Replica> {
        Replica::decode_snapshot(Reader::new(buf)).map_err(corrupt)
    }

    /// Recover a replica from a refcounted snapshot frame. Identical to
    /// [`Replica::from_snapshot`] except that every value above
    /// [`INLINE_VALUE_MAX`] bytes — regular, auxiliary, or in an
    /// auxiliary-log operation — aliases the frame (a sub-view, a refcount
    /// bump) instead of being copied, so recovering large values allocates
    /// no per-value buffers.
    ///
    /// Small values never alias the frame. Regular ones are packed into
    /// one buffer sized by them alone, each restored value a slice of it
    /// (as in [`from_snapshot`](Self::from_snapshot)); small auxiliary ones
    /// are copied. The frame's IVVs and log records are decoded into the
    /// replica's own structures, so once the caller drops its handle the
    /// frame stays allocated only while a restored large value still
    /// aliases it — a replica of small values pins none of its snapshot.
    pub fn from_snapshot_shared(frame: &Bytes) -> Result<Replica> {
        Replica::decode_snapshot(Reader::shared(frame).copying_small()).map_err(corrupt)
    }

    fn decode_snapshot(mut r: Reader<'_>) -> Result<Replica> {
        let magic = r.bytes()?;
        if magic != SNAPSHOT_MAGIC {
            return Err(Error::CorruptSnapshot("bad magic".into()));
        }
        let version = r.u8()?;
        if version != CODEC_VERSION {
            return Err(Error::CorruptSnapshot(format!("unsupported version {version}")));
        }
        let id = NodeId(r.u16()?);
        let n_nodes = r.u16()? as usize;
        let n_items = r.u32()? as usize;
        let policy = match r.u8()? {
            0 => ConflictPolicy::Report,
            1 => ConflictPolicy::ResolveLww,
            p => return Err(Error::CorruptSnapshot(format!("unknown policy {p}"))),
        };
        if id.index() >= n_nodes {
            return Err(Error::UnknownNode(id));
        }

        let mut replica = Replica::with_policy(id, n_nodes, n_items, policy);
        replica.dbvv = get_dbvv(&mut r)?;
        if replica.dbvv.len() != n_nodes {
            return Err(Error::DimensionMismatch { left: n_nodes, right: replica.dbvv.len() });
        }

        let mut small = SmallValues::gather(&r, n_items)?;
        for x in ItemId::all(n_items) {
            let value = ItemValue::from(small.next(&mut r)?);
            let ivv = get_vv(&mut r)?;
            if ivv.len() != n_nodes {
                return Err(Error::DimensionMismatch { left: n_nodes, right: ivv.len() });
            }
            replica.store.adopt(x, value, &ivv)?;
        }

        for j in NodeId::all(n_nodes) {
            let count = r.u32()? as usize;
            for _ in 0..count {
                let item = ItemId(r.u32()?);
                let m = r.u64()?;
                if item.index() >= n_items {
                    return Err(Error::UnknownItem(item));
                }
                replica.log.add_record(j, epidb_log::LogRecord { item, m });
            }
        }

        let aux_count = r.u32()? as usize;
        for _ in 0..aux_count {
            let x = ItemId(r.u32()?);
            let value = ItemValue::from(r.value()?);
            let ivv = get_vv(&mut r)?;
            if x.index() >= n_items {
                return Err(Error::UnknownItem(x));
            }
            replica.aux_items.insert(x, AuxItem { value, ivv });
        }

        let aux_log_count = r.u32()? as usize;
        for _ in 0..aux_log_count {
            let x = ItemId(r.u32()?);
            let vv = get_vv(&mut r)?;
            let op = get_op(&mut r)?;
            if x.index() >= n_items {
                return Err(Error::UnknownItem(x));
            }
            replica.aux_log.push(x, vv, op);
        }

        replica.log_retention = r.u32()? as usize;
        for k in NodeId::all(n_nodes) {
            replica.floor[k.index()] = r.u64()?;
        }

        r.finish()?;
        replica.restored = true;
        replica
            .check_invariants()
            .map_err(|e| Error::CorruptSnapshot(format!("corrupt state: {e}")))?;
        Ok(replica)
    }
}

/// Encode an item value (wire-identical to [`Writer::value`]): a small
/// value is copied inline straight from the store, and only a large one is
/// taken as a [`Bytes`] handle, to ride as a shared segment.
fn put_item_value(w: &mut Writer, v: &ItemValue) {
    if v.len() <= INLINE_VALUE_MAX {
        w.bytes(v.as_bytes());
    } else {
        w.value(&v.to_bytes());
    }
}

/// The regular values of at most [`INLINE_VALUE_MAX`] bytes in a
/// snapshot, packed in item order into one buffer sized by them alone.
/// Restored small values are slices of it: one allocation for all of them,
/// and none of them pins the snapshot buffer.
struct SmallValues {
    arena: Bytes,
    at: usize,
}

impl SmallValues {
    /// Gather the small values of the `n_items` regular copies `r` is
    /// positioned at: one pass sizes the buffer, a second fills it. `r`
    /// itself does not move.
    fn gather(r: &Reader<'_>, n_items: usize) -> Result<SmallValues> {
        let mut len = 0;
        for_each_small_value(r.clone(), n_items, |v| len += v.len())?;
        let mut arena = Vec::with_capacity(len);
        for_each_small_value(r.clone(), n_items, |v| arena.extend_from_slice(v))?;
        Ok(SmallValues { arena: Bytes::from(arena), at: 0 })
    }

    /// Read the next regular value: a small one is the next slice of the
    /// arena, a large one is read as [`Reader::value`] reads it.
    fn next(&mut self, r: &mut Reader<'_>) -> Result<Bytes> {
        if r.clone().u32()? as usize > INLINE_VALUE_MAX {
            return r.value();
        }
        let len = r.bytes()?.len();
        let v = self.arena.slice(self.at..self.at + len);
        self.at += len;
        Ok(v)
    }
}

/// Call `f` on each small value among the next `n_items` regular copies.
fn for_each_small_value(mut r: Reader<'_>, n_items: usize, mut f: impl FnMut(&[u8])) -> Result<()> {
    for _ in 0..n_items {
        let v = r.bytes()?;
        if v.len() <= INLINE_VALUE_MAX {
            f(v);
        }
        let n = r.u16()? as usize;
        r.skip(8 * n)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{oob_copy, pull};
    use epidb_store::UpdateOp;
    use epidb_vv::VvOrd;

    fn populated_replica() -> Replica {
        let mut a = Replica::new(NodeId(0), 3, 20);
        let mut b = Replica::new(NodeId(1), 3, 20);
        for i in 0..8u32 {
            a.update(ItemId(i), UpdateOp::set(vec![i as u8; 32])).unwrap();
        }
        b.update(ItemId(9), UpdateOp::set(&b"from-b"[..])).unwrap();
        pull(&mut b, &mut a).unwrap();
        // Give b some auxiliary state too.
        a.update(ItemId(0), UpdateOp::append(&b"+new"[..])).unwrap();
        oob_copy(&mut b, &mut a, ItemId(0)).unwrap();
        b.update(ItemId(0), UpdateOp::append(&b"+aux-edit"[..])).unwrap();
        b
    }

    fn assert_replicas_equal(a: &Replica, b: &Replica) {
        assert_eq!(a.id(), b.id());
        assert_eq!(a.dbvv().compare(b.dbvv()), VvOrd::Equal);
        for x in ItemId::all(a.n_items()) {
            assert_eq!(a.read_regular(x).unwrap(), b.read_regular(x).unwrap());
            assert_eq!(a.item_ivv(x).unwrap(), b.item_ivv(x).unwrap());
            assert_eq!(a.read(x).unwrap(), b.read(x).unwrap());
        }
        assert_eq!(a.aux_item_count(), b.aux_item_count());
        assert_eq!(a.aux_log().len(), b.aux_log().len());
        for j in NodeId::all(a.n_nodes()) {
            let ra: Vec<_> = a.log().iter_component(j).collect();
            let rb: Vec<_> = b.log().iter_component(j).collect();
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let original = populated_replica();
        let buf = original.to_snapshot();
        let restored = Replica::from_snapshot(&buf).unwrap();
        assert_replicas_equal(&original, &restored);
        restored.check_invariants().unwrap();
    }

    #[test]
    fn restored_replica_keeps_propagating() {
        let b = populated_replica();
        let buf = b.to_snapshot();
        drop(b); // the crash

        let mut restored = Replica::from_snapshot(&buf).unwrap();
        // A peer with newer data: recovery is just normal anti-entropy.
        let mut a = Replica::new(NodeId(0), 3, 20);
        for i in 0..8u32 {
            a.update(ItemId(i), UpdateOp::set(vec![i as u8; 32])).unwrap();
        }
        a.update(ItemId(0), UpdateOp::append(&b"+new"[..])).unwrap();
        a.update(ItemId(15), UpdateOp::set(&b"post-crash"[..])).unwrap();
        let out = pull(&mut restored, &mut a).unwrap();
        assert!(!out.copied().is_empty());
        assert_eq!(restored.read(ItemId(15)).unwrap().as_bytes(), b"post-crash");
        // The pending aux update survived the crash and replays.
        assert!(restored.read(ItemId(0)).unwrap().as_bytes().ends_with(b"+aux-edit"));
        restored.check_invariants().unwrap();
    }

    #[test]
    fn empty_replica_roundtrips() {
        let r = Replica::new(NodeId(2), 4, 5);
        let restored = Replica::from_snapshot(&r.to_snapshot()).unwrap();
        assert_replicas_equal(&r, &restored);
    }

    #[test]
    fn corrupt_snapshots_rejected() {
        fn assert_corrupt(res: Result<Replica>) {
            let err = res.unwrap_err();
            assert!(
                matches!(err, Error::CorruptSnapshot(_)),
                "expected CorruptSnapshot, got {err:?}"
            );
            assert!(!err.is_retryable(), "corrupt durable state must not be retried");
        }
        let r = populated_replica();
        let buf = r.to_snapshot();
        // Bad magic.
        let mut bad = buf.clone();
        bad[4] = b'X';
        assert_corrupt(Replica::from_snapshot(&bad));
        // Truncated.
        assert_corrupt(Replica::from_snapshot(&buf[..buf.len() / 2]));
        // Trailing garbage.
        let mut long = buf.clone();
        long.push(0);
        assert_corrupt(Replica::from_snapshot(&long));
        // Bad version.
        let mut badv = buf;
        badv[8] = 99;
        assert_corrupt(Replica::from_snapshot(&badv));
    }

    #[test]
    fn shared_restore_roundtrips_and_aliases_the_frame() {
        let mut original = populated_replica();
        // A value comfortably past the inline threshold, so the snapshot
        // encodes it as a shared segment and the shared restore can alias it.
        original.update(ItemId(3), UpdateOp::set(vec![0xAB; 4096])).unwrap();
        original.update(ItemId(4), UpdateOp::set(vec![0xCD; 64])).unwrap();
        let frame = Bytes::from(original.to_snapshot());
        let restored = Replica::from_snapshot_shared(&frame).unwrap();
        assert_replicas_equal(&original, &restored);
        restored.check_invariants().unwrap();

        let in_frame = |x: ItemId| {
            let value = restored.read_regular(x).unwrap();
            let v = value.as_bytes().as_ptr() as usize;
            let lo = frame.as_ptr() as usize;
            v >= lo && v + value.len() <= lo + frame.len()
        };
        // The restored large value must be a sub-view of the frame, not a
        // copy: its backing pointer lies inside the frame's range.
        assert!(in_frame(ItemId(3)), "restored 4 KiB value was copied instead of aliased");
        // A small one is a slice of the replica's own small-value buffer, so
        // it does not keep the frame alive.
        assert!(!in_frame(ItemId(4)), "restored 64 B value aliases the frame");

        // Both restores rebuild the same replica.
        let copied = Replica::from_snapshot(&frame).unwrap();
        assert_eq!(copied.fingerprint(), restored.fingerprint());
    }

    /// A restored replica of small values holds none of its snapshot: the
    /// frame's last handle is the caller's.
    #[test]
    fn shared_restore_of_small_values_releases_the_frame() {
        let original = populated_replica();
        let frame = Bytes::from(original.to_snapshot());
        let restored = Replica::from_snapshot_shared(&frame).unwrap();
        assert_replicas_equal(&original, &restored);
        assert!(frame.try_into_vec().is_ok(), "a restored value still aliases the frame");
    }

    #[test]
    fn retention_and_floor_survive() {
        let mut r = Replica::new(NodeId(0), 3, 8);
        r.set_log_retention(2);
        for i in 0..6u32 {
            r.update(ItemId(i), UpdateOp::set(vec![i as u8; 8])).unwrap();
        }
        assert_eq!(r.log().component_len(NodeId(0)), 2);
        assert_eq!(r.coverage_floor(), &[4, 0, 0]);
        let restored = Replica::from_snapshot(&r.to_snapshot()).unwrap();
        assert_eq!(restored.log_retention(), 2);
        assert_eq!(restored.coverage_floor(), &[4, 0, 0]);
        assert_replicas_equal(&r, &restored);
        restored.check_invariants().unwrap();
    }

    /// Every snapshot section populated, `n_items` regular copies with
    /// values on both sides of the 128 B inline threshold.
    fn rich_replica(n_items: usize) -> Replica {
        let mut a = Replica::new(NodeId(0), 3, n_items);
        let mut b = Replica::new(NodeId(1), 3, n_items);
        for x in ItemId::all(n_items) {
            a.update(x, UpdateOp::set(vec![x.0 as u8; (x.index() * 37) % 300])).unwrap();
        }
        pull(&mut b, &mut a).unwrap();
        b.set_log_retention(n_items / 2);
        a.update(ItemId(1), UpdateOp::append(&b"+new"[..])).unwrap();
        oob_copy(&mut b, &mut a, ItemId(1)).unwrap();
        b.update(ItemId(1), UpdateOp::append(vec![7; 200])).unwrap();
        b.update(ItemId(1), UpdateOp::append(&b"+aux"[..])).unwrap();
        assert!(b.coverage_floor()[0] > 0 && b.aux_log().len() == 2);
        b
    }

    #[test]
    fn streamed_pieces_concatenate_to_the_snapshot() {
        let mut sizes = Vec::new();
        for n_items in [2, 330, 345, 360, 375, 390, 3000] {
            let r = rich_replica(n_items);
            let whole = r.to_snapshot();
            let mut pieces: Vec<Vec<u8>> = Vec::new();
            r.write_snapshot(|w| {
                pieces.push(w.chunks().flatten().copied().collect());
                Ok::<(), ()>(())
            })
            .unwrap();
            assert!(pieces.concat() == whole, "{n_items} items: pieces differ");
            let (last, full) = pieces.split_last().unwrap();
            assert!(!last.is_empty());
            for p in full {
                assert!((SNAPSHOT_PIECE..SNAPSHOT_PIECE + 1024).contains(&p.len()), "{}", p.len());
            }
            sizes.push(whole.len());
        }
        assert!(
            sizes.iter().any(|&s| s < SNAPSHOT_PIECE) && sizes.iter().any(|&s| s > SNAPSHOT_PIECE)
        );

        // The first error stops the encode.
        let r = rich_replica(3000);
        let mut calls = 0;
        let out = r.write_snapshot(|_| {
            calls += 1;
            if calls == 2 {
                Err("disk full")
            } else {
                Ok(())
            }
        });
        assert_eq!((out, calls), (Err("disk full"), 2));
    }

    /// Snapshot bytes are a file format: a replica with every section
    /// populated and values on both sides of the inline threshold encodes
    /// to exactly the bytes it always has (length and CRC32 pinned).
    #[test]
    fn snapshot_bytes_are_pinned() {
        let buf = rich_replica(390).to_snapshot();
        assert_eq!((buf.len(), crate::codec::crc32(&buf)), (73020, 1231032723));
    }

    #[test]
    fn policy_survives() {
        let r = Replica::with_policy(NodeId(0), 2, 3, ConflictPolicy::ResolveLww);
        let restored = Replica::from_snapshot(&r.to_snapshot()).unwrap();
        assert_eq!(restored.policy(), ConflictPolicy::ResolveLww);
    }
}
