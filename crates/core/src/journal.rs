//! Mutation journaling: the hook layer a durability subsystem plugs into.
//!
//! A [`Replica`] mutates durable state through exactly five entry points:
//! a local user [`update`](Replica::update), an accepted whole-item
//! propagation ([`accept_propagation`](Replica::accept_propagation)), an
//! applied delta exchange ([`apply_delta`](Replica::apply_delta)), an
//! adopted out-of-bound reply ([`accept_oob`](Replica::accept_oob)), and
//! the items of a reconciliation step
//! ([`apply_recon_items`](Replica::apply_recon_items)).
//! Everything else — intra-node replay, LWW resolution, tail appending —
//! happens *inside* those calls and is deterministic given their inputs.
//!
//! Each entry point therefore journals one [`MutationRef`] (its inputs,
//! borrowed) to an attached [`MutationSink`] *before* touching state:
//! write-ahead order, so a crash between the journal write and the
//! in-memory application replays the mutation on recovery. Replaying a
//! journal is just calling the same entry points again
//! ([`Replica::replay_mutation`], with the owned [`Mutation`] that
//! [`get_mutation`] decodes); a replayed mutation that fails, fails
//! exactly as the original did (deterministic partial application), so
//! errors during replay are reported but not fatal.
//!
//! Journaling borrows: the sink encodes straight from the entry point's
//! arguments, so no entry point clones its payload — a many-item
//! propagation is held once, as received, while its record is encoded.
//!
//! What is *not* journaled, deliberately: cost counters, conflict reports,
//! traces, paranoid audits (all ephemeral); `serve_*` calls (they mutate
//! no durable state); and configuration (`enable_delta`, `set_paranoid`),
//! which the owning runtime re-applies after recovery.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use epidb_common::{ItemId, NodeId, Result};
use epidb_log::LogRecord;
use epidb_store::UpdateOp;

use crate::codec::{
    get_delta_payload, get_floor, get_log_record, get_oob_reply, get_op, get_payload,
    get_recon_item, put_delta_payload, put_floor, put_log_record, put_oob_reply, put_op,
    put_payload, put_recon_item, Reader, Writer,
};
use crate::delta::{DeltaPayload, OfferEvaluation};
use crate::messages::{OobReply, PropagationPayload, ReconItem};
use crate::replica::Replica;

/// One durable mutation of a replica: the owned inputs of one of the five
/// state-changing entry points, sufficient to re-apply it during recovery.
/// What [`get_mutation`] decodes; the live entry points journal the
/// borrowed [`MutationRef`] instead.
#[derive(Clone, Debug)]
pub enum Mutation {
    /// A local user update (§5.3).
    Update {
        /// The updated item.
        item: ItemId,
        /// The operation applied.
        op: UpdateOp,
    },
    /// An accepted whole-item propagation (message 2 of the §5.1 pull).
    Propagation {
        /// The source server.
        from: NodeId,
        /// The payload as received.
        payload: PropagationPayload,
    },
    /// An applied delta exchange (message 4 plus the surviving evaluation
    /// of message 2 — tails and refusals — so replay needs no re-offer).
    Delta {
        /// The source server.
        from: NodeId,
        /// The data message as received.
        payload: DeltaPayload,
        /// The tail vector from the offer.
        tails: Vec<Vec<LogRecord>>,
        /// Items refused at offer-evaluation time.
        refused: BTreeSet<ItemId>,
    },
    /// An accepted out-of-bound reply (§5.2).
    Oob {
        /// The serving server.
        from: NodeId,
        /// The reply as received.
        reply: OobReply,
    },
    /// Items adopted (and the floor learned) from a set-reconciliation
    /// descent or whole-database pull.
    Recon {
        /// The source server.
        from: NodeId,
        /// The items shipped in the step being journaled.
        items: Vec<ReconItem>,
        /// The source's per-origin coverage floor.
        floor: Vec<u64>,
    },
}

const MUT_UPDATE: u8 = 0;
const MUT_PROPAGATION: u8 = 1;
const MUT_DELTA: u8 = 2;
const MUT_OOB: u8 = 3;
const MUT_RECON: u8 = 4;

/// A [`Mutation`] by reference: the inputs of one state-changing entry
/// point as the entry point holds them. Sinks encode from it, so
/// journaling a mutation copies none of its parts.
#[derive(Clone, Copy, Debug)]
pub enum MutationRef<'a> {
    /// See [`Mutation::Update`].
    Update {
        /// The updated item.
        item: ItemId,
        /// The operation applied.
        op: &'a UpdateOp,
    },
    /// See [`Mutation::Propagation`].
    Propagation {
        /// The source server.
        from: NodeId,
        /// The payload as received.
        payload: &'a PropagationPayload,
    },
    /// See [`Mutation::Delta`].
    Delta {
        /// The source server.
        from: NodeId,
        /// The data message as received.
        payload: &'a DeltaPayload,
        /// The tail vector from the offer.
        tails: &'a [Vec<LogRecord>],
        /// Items refused at offer-evaluation time.
        refused: &'a BTreeSet<ItemId>,
    },
    /// See [`Mutation::Oob`].
    Oob {
        /// The serving server.
        from: NodeId,
        /// The reply as received.
        reply: &'a OobReply,
    },
    /// See [`Mutation::Recon`].
    Recon {
        /// The source server.
        from: NodeId,
        /// The items shipped in the step being journaled.
        items: &'a [ReconItem],
        /// The source's per-origin coverage floor.
        floor: &'a [u64],
    },
}

impl<'a> From<&'a Mutation> for MutationRef<'a> {
    fn from(m: &'a Mutation) -> MutationRef<'a> {
        match m {
            Mutation::Update { item, op } => MutationRef::Update { item: *item, op },
            Mutation::Propagation { from, payload } => {
                MutationRef::Propagation { from: *from, payload }
            }
            Mutation::Delta { from, payload, tails, refused } => {
                MutationRef::Delta { from: *from, payload, tails, refused }
            }
            Mutation::Oob { from, reply } => MutationRef::Oob { from: *from, reply },
            Mutation::Recon { from, items, floor } => {
                MutationRef::Recon { from: *from, items, floor }
            }
        }
    }
}

impl MutationRef<'_> {
    /// The owned mutation (clones every part) — for sinks that keep what
    /// they are handed, such as test doubles.
    pub fn to_mutation(self) -> Mutation {
        match self {
            MutationRef::Update { item, op } => Mutation::Update { item, op: op.clone() },
            MutationRef::Propagation { from, payload } => {
                Mutation::Propagation { from, payload: payload.clone() }
            }
            MutationRef::Delta { from, payload, tails, refused } => Mutation::Delta {
                from,
                payload: payload.clone(),
                tails: tails.to_vec(),
                refused: refused.clone(),
            },
            MutationRef::Oob { from, reply } => Mutation::Oob { from, reply: reply.clone() },
            MutationRef::Recon { from, items, floor } => {
                Mutation::Recon { from, items: items.to_vec(), floor: floor.to_vec() }
            }
        }
    }
}

/// Encode a mutation, owned or borrowed, into `w` (the body of one WAL
/// record; framing and integrity are the journal owner's concern).
pub fn put_mutation<'a>(w: &mut Writer, m: impl Into<MutationRef<'a>>) {
    match m.into() {
        MutationRef::Update { item, op } => {
            w.u8(MUT_UPDATE);
            w.u32(item.0);
            put_op(w, op);
        }
        MutationRef::Propagation { from, payload } => {
            w.u8(MUT_PROPAGATION);
            w.u16(from.0);
            put_payload(w, payload);
        }
        MutationRef::Delta { from, payload, tails, refused } => {
            w.u8(MUT_DELTA);
            w.u16(from.0);
            put_delta_payload(w, payload);
            w.u16(tails.len() as u16);
            for tail in tails {
                w.u32(tail.len() as u32);
                for rec in tail {
                    put_log_record(w, rec);
                }
            }
            w.u32(refused.len() as u32);
            for x in refused {
                w.u32(x.0);
            }
        }
        MutationRef::Oob { from, reply } => {
            w.u8(MUT_OOB);
            w.u16(from.0);
            put_oob_reply(w, reply);
        }
        MutationRef::Recon { from, items, floor } => {
            w.u8(MUT_RECON);
            w.u16(from.0);
            w.u32(items.len() as u32);
            for item in items {
                put_recon_item(w, item);
            }
            put_floor(w, floor);
        }
    }
}

/// Decode a mutation encoded by [`put_mutation`].
pub fn get_mutation(r: &mut Reader<'_>) -> Result<Mutation> {
    match r.u8()? {
        MUT_UPDATE => Ok(Mutation::Update { item: ItemId(r.u32()?), op: get_op(r)? }),
        MUT_PROPAGATION => {
            Ok(Mutation::Propagation { from: NodeId(r.u16()?), payload: get_payload(r)? })
        }
        MUT_DELTA => {
            let from = NodeId(r.u16()?);
            let payload = get_delta_payload(r)?;
            let n_tails = r.u16()? as usize;
            let mut tails = Vec::with_capacity(n_tails.min(4096));
            for _ in 0..n_tails {
                let count = r.u32()? as usize;
                let mut tail = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    tail.push(get_log_record(r)?);
                }
                tails.push(tail);
            }
            let n_refused = r.u32()? as usize;
            let mut refused = BTreeSet::new();
            for _ in 0..n_refused {
                refused.insert(ItemId(r.u32()?));
            }
            Ok(Mutation::Delta { from, payload, tails, refused })
        }
        MUT_OOB => Ok(Mutation::Oob { from: NodeId(r.u16()?), reply: get_oob_reply(r)? }),
        MUT_RECON => {
            let from = NodeId(r.u16()?);
            let n = r.u32()? as usize;
            let mut items = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                items.push(get_recon_item(r)?);
            }
            let floor = get_floor(r)?;
            Ok(Mutation::Recon { from, items, floor })
        }
        t => Err(epidb_common::Error::CorruptSnapshot(format!("unknown mutation tag {t}"))),
    }
}

/// A destination for journaled mutations — implemented by the durability
/// layer (`epidb-durable`'s write-ahead log) and by test doubles.
///
/// `record` is called with the replica lock held, *before* the mutation is
/// applied in memory. Implementations decide their own durability level
/// (buffered append vs. fsync per record).
pub trait MutationSink: Send + Sync {
    /// Persist one mutation.
    fn record(&self, m: MutationRef<'_>);
}

/// A cloneable, debuggable handle to a shared [`MutationSink`].
///
/// Cloning a [`Replica`] clones the handle, so the clone journals to the
/// *same* sink — runtimes that clone replicas for inspection (e.g. at
/// shutdown) should detach the sink first if they intend to mutate the
/// clone.
#[derive(Clone)]
pub struct SinkHandle(Arc<dyn MutationSink>);

impl SinkHandle {
    /// Wrap a sink.
    pub fn new(sink: Arc<dyn MutationSink>) -> SinkHandle {
        SinkHandle(sink)
    }

    /// Forward one mutation.
    pub fn record(&self, m: MutationRef<'_>) {
        self.0.record(m);
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SinkHandle(..)")
    }
}

impl Replica {
    /// Attach (or detach, with `None`) the mutation sink. Attach only
    /// *after* recovery replay is complete, or the replay itself would be
    /// re-journaled.
    pub fn set_mutation_sink(&mut self, sink: Option<SinkHandle>) {
        self.sink = sink;
    }

    /// Whether a mutation sink is currently attached.
    pub fn has_mutation_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// Internal: journal one mutation if a sink is attached.
    #[inline]
    pub(crate) fn journal_mutation(&self, m: MutationRef<'_>) {
        if let Some(sink) = &self.sink {
            sink.record(m);
        }
    }

    /// Internal: run `f` with the sink detached — used by composite
    /// operations (`apply_delta`'s whole-item fallback) so their inner
    /// entry-point calls do not journal a second record, and by replay.
    pub(crate) fn with_sink_suspended<T>(&mut self, f: impl FnOnce(&mut Replica) -> T) -> T {
        let sink = self.sink.take();
        let out = f(self);
        self.sink = sink;
        out
    }

    /// Re-apply a journaled mutation during recovery, by calling the same
    /// entry point that produced it (with journaling suspended).
    ///
    /// Errors are the original call's errors: a mutation that failed live
    /// fails identically on replay, so callers treat errors as outcomes to
    /// note, not corruption.
    pub fn replay_mutation(&mut self, m: Mutation) -> Result<()> {
        self.with_sink_suspended(|r| match m {
            Mutation::Update { item, op } => r.update(item, op),
            Mutation::Propagation { from, payload } => {
                r.accept_propagation(from, payload).map(|_| ())
            }
            Mutation::Delta { from, payload, tails, refused } => r
                .apply_delta(from, payload, OfferEvaluation::from_parts(tails, refused))
                .map(|_| ()),
            Mutation::Oob { from, reply } => r.accept_oob(from, reply).map(|_| ()),
            Mutation::Recon { from, items, floor } => {
                r.apply_recon_items(from, items, &floor).map(|_| ())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::{oob_copy, pull, pull_delta};
    use epidb_vv::VvOrd;

    /// Test sink: collects mutations in memory.
    #[derive(Default)]
    struct Collector(Mutex<Vec<Mutation>>);

    impl MutationSink for Collector {
        fn record(&self, m: MutationRef<'_>) {
            self.0.lock().unwrap().push(m.to_mutation());
        }
    }

    fn attach(r: &mut Replica) -> Arc<Collector> {
        let sink = Arc::new(Collector::default());
        r.set_mutation_sink(Some(SinkHandle::new(sink.clone())));
        sink
    }

    fn drain(sink: &Collector) -> Vec<Mutation> {
        std::mem::take(&mut sink.0.lock().unwrap())
    }

    fn assert_same_durable_state(a: &Replica, b: &Replica) {
        assert_eq!(a.dbvv().compare(b.dbvv()), VvOrd::Equal);
        for x in ItemId::all(a.n_items()) {
            assert_eq!(a.read(x).unwrap(), b.read(x).unwrap());
            assert_eq!(a.read_regular(x).unwrap(), b.read_regular(x).unwrap());
            assert_eq!(a.item_ivv(x).unwrap(), b.item_ivv(x).unwrap());
        }
        assert_eq!(a.aux_item_count(), b.aux_item_count());
        assert_eq!(a.aux_log().len(), b.aux_log().len());
        for j in NodeId::all(a.n_nodes()) {
            let ra: Vec<_> = a.log().iter_component(j).collect();
            let rb: Vec<_> = b.log().iter_component(j).collect();
            assert_eq!(ra, rb);
        }
    }

    /// The core journal contract: replaying a replica's journal onto a
    /// fresh replica reproduces its durable state, across every mutation
    /// kind (update, pull, delta pull, OOB, aux update + replay).
    #[test]
    fn journal_replay_reproduces_state() {
        let mut a = Replica::new(NodeId(0), 2, 10);
        let mut b = Replica::new(NodeId(1), 2, 10);
        a.enable_delta(1 << 16);
        b.enable_delta(1 << 16);
        let sink = attach(&mut b);

        a.update(ItemId(0), UpdateOp::set(vec![7u8; 600])).unwrap();
        a.update(ItemId(1), UpdateOp::set(&b"one"[..])).unwrap();
        pull(&mut b, &mut a).unwrap();
        b.update(ItemId(2), UpdateOp::set(&b"local"[..])).unwrap();
        a.update(ItemId(0), UpdateOp::append(&b"+edit"[..])).unwrap();
        pull_delta(&mut b, &mut a).unwrap();
        a.update(ItemId(3), UpdateOp::set(&b"oob"[..])).unwrap();
        oob_copy(&mut b, &mut a, ItemId(3)).unwrap();
        b.update(ItemId(3), UpdateOp::append(&b"+aux"[..])).unwrap();
        pull(&mut b, &mut a).unwrap(); // replays the aux edit (Fig. 4)

        let journal = drain(&sink);
        assert!(journal.len() >= 6, "every entry point journaled, got {}", journal.len());

        let mut fresh = Replica::new(NodeId(1), 2, 10);
        fresh.enable_delta(1 << 16);
        for m in journal {
            fresh.replay_mutation(m).unwrap();
        }
        assert_same_durable_state(&b, &fresh);
        fresh.check_invariants().unwrap();
    }

    /// Composite operations journal exactly one record: a delta pull whose
    /// items come back as whole-value fallbacks must not also journal the
    /// inner `accept_propagation` calls.
    #[test]
    fn delta_whole_fallback_journals_once() {
        let mut a = Replica::new(NodeId(0), 2, 4);
        let mut b = Replica::new(NodeId(1), 2, 4);
        b.enable_delta(1 << 16); // source has no cache → Whole fallback
        let sink = attach(&mut b);
        a.update(ItemId(0), UpdateOp::set(&b"v"[..])).unwrap();
        pull_delta(&mut b, &mut a).unwrap();
        let journal = drain(&sink);
        assert_eq!(journal.len(), 1);
        assert!(matches!(journal[0], Mutation::Delta { .. }));
    }

    /// Mutations survive the wire format.
    #[test]
    fn mutation_codec_roundtrips() {
        let mut a = Replica::new(NodeId(0), 3, 8);
        let mut b = Replica::new(NodeId(1), 3, 8);
        a.enable_delta(1 << 16);
        b.enable_delta(1 << 16);
        let sink = attach(&mut b);
        a.update(ItemId(0), UpdateOp::set(vec![1u8; 300])).unwrap();
        pull(&mut b, &mut a).unwrap();
        b.update(ItemId(1), UpdateOp::write_range(2, &b"xy"[..])).unwrap();
        a.update(ItemId(0), UpdateOp::append(&b"z"[..])).unwrap();
        pull_delta(&mut b, &mut a).unwrap();
        a.update(ItemId(2), UpdateOp::set(&b"q"[..])).unwrap();
        oob_copy(&mut b, &mut a, ItemId(2)).unwrap();

        let journal = drain(&sink);
        let mut fresh = Replica::new(NodeId(1), 3, 8);
        fresh.enable_delta(1 << 16);
        for m in journal {
            let mut w = Writer::new();
            put_mutation(&mut w, &m);
            let buf = w.into_bytes();
            let mut r = Reader::new(&buf);
            let decoded = get_mutation(&mut r).unwrap();
            r.finish().unwrap();
            fresh.replay_mutation(decoded).unwrap();
        }
        assert_same_durable_state(&b, &fresh);
    }

    /// One mutation of each of the five kinds, with values on both sides of
    /// the inline threshold, empty tails next to full ones, and a refusal.
    fn one_of_each_kind() -> Vec<Mutation> {
        use crate::delta::DeltaItem;
        use crate::messages::ShippedItem;
        use crate::opcache::CachedOp;
        use bytes::Bytes;
        use epidb_vv::VersionVector;

        let vv = |e: &[u64]| VersionVector::from_slice(e);
        let value = |len: usize, b: u8| Bytes::from(vec![b; len]);
        let rec = |item: u32, m: u64| LogRecord { item: ItemId(item), m };
        let shipped = |item: u32, len: usize| ShippedItem {
            item: ItemId(item),
            ivv: vv(&[item as u64, 2, 0]),
            value: value(len, item as u8),
        };
        let payload = PropagationPayload {
            tails: vec![vec![rec(0, 1), rec(1, 3)], Vec::new(), vec![rec(2, 7)]],
            items: vec![shipped(0, 0), shipped(1, 64), shipped(2, 128), shipped(3, 129)],
        };
        let delta = DeltaPayload {
            items: vec![
                DeltaItem::Ops {
                    item: ItemId(4),
                    ops: vec![
                        CachedOp { pre_vv: vv(&[1, 0, 0]), op: UpdateOp::append(value(5, 9)) },
                        CachedOp {
                            pre_vv: vv(&[2, 0, 0]),
                            op: UpdateOp::write_range(3, value(300, 8)),
                        },
                    ],
                    final_ivv: vv(&[3, 0, 0]),
                },
                DeltaItem::Whole(shipped(5, 200)),
            ],
        };
        let recon_item = |item: u32, len: usize| ReconItem {
            item: ItemId(item),
            ivv: vv(&[0, item as u64, 1]),
            value: value(len, 0x40 + item as u8),
            records: vec![(NodeId(1), item as u64), (NodeId(2), 1)],
        };
        vec![
            Mutation::Update { item: ItemId(6), op: UpdateOp::set(value(40, 1)) },
            Mutation::Update { item: ItemId(6), op: UpdateOp::set(value(4096, 2)) },
            Mutation::Propagation { from: NodeId(2), payload },
            Mutation::Delta {
                from: NodeId(1),
                payload: delta,
                tails: vec![vec![rec(4, 3)], vec![rec(5, 9), rec(7, 10)], Vec::new()],
                refused: [ItemId(7), ItemId(2)].into_iter().collect(),
            },
            Mutation::Oob {
                from: NodeId(0),
                reply: OobReply {
                    item: ItemId(7),
                    ivv: vv(&[5, 0, 1]),
                    value: value(17, 3),
                    from_aux: true,
                },
            },
            Mutation::Recon {
                from: NodeId(1),
                items: vec![recon_item(8, 10), recon_item(9, 1000)],
                floor: vec![4, 0, 2],
            },
        ]
    }

    /// The journal's bytes are a file format: every mutation kind encodes
    /// to exactly the bytes it always has (length and CRC32 pinned), and
    /// decodes back to the same encoding.
    #[test]
    fn mutation_bytes_are_pinned() {
        let want: [(usize, u32); 6] = [
            (50, 2596664266),
            (4106, 3247614892),
            (514, 2618985188),
            (714, 256274573),
            (55, 1620421581),
            (1155, 2134984389),
        ];
        let mut got = Vec::new();
        for m in one_of_each_kind() {
            let mut w = Writer::new();
            put_mutation(&mut w, &m);
            let buf = w.into_bytes();
            let mut r = Reader::new(&buf);
            let decoded = get_mutation(&mut r).unwrap();
            r.finish().unwrap();
            let mut again = Writer::new();
            put_mutation(&mut again, &decoded);
            assert!(again.into_bytes() == buf, "decode and re-encode differ");
            got.push((buf.len(), crate::codec::crc32(&buf)));
        }
        assert_eq!(got, want);
    }

    /// A cloned replica shares the sink (documented hazard — this pins the
    /// behaviour so a change is deliberate).
    #[test]
    fn clone_shares_sink() {
        let mut r = Replica::new(NodeId(0), 2, 2);
        let sink = attach(&mut r);
        let mut clone = r.clone();
        clone.update(ItemId(0), UpdateOp::set(&b"x"[..])).unwrap();
        assert_eq!(drain(&sink).len(), 1);
    }
}
