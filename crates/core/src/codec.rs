//! Binary wire codec for the protocol's messages and state.
//!
//! A compact, versioned, little-endian format. The byte-accounting
//! constants in `epidb_common::costs::wire` model this encoding; the codec
//! makes them real: what `Costs` charges is (up to small rounding in the
//! envelope) what these functions produce.
//!
//! The same primitives back the snapshot (persistence) format in
//! [`crate::snapshot`] and the TCP framing in `epidb-net`.

use std::ops::Range;

use bytes::Bytes;
use epidb_common::{Error, ItemId, NodeId, Result, RouteTarget, ShardId};
use epidb_log::LogRecord;
use epidb_store::UpdateOp;
use epidb_vv::{DbVersionVector, VersionVector};

use crate::delta::{DeltaItem, DeltaOffer, DeltaOfferResponse, DeltaPayload, DeltaRequest};
use crate::engine::{ProtocolRequest, ProtocolResponse};
use crate::messages::{
    FullPullReply, OobReply, PropagationPayload, PropagationResponse, ReconItem, ReconReply,
    ShippedItem,
};
use crate::opcache::CachedOp;

/// Format version byte embedded in framed messages and snapshots.
pub const CODEC_VERSION: u8 = 1;

/// Hard upper bound on a framed message (length prefix + checked header +
/// body), shared by every transport. Both ends enforce it: a sender must
/// refuse to emit a larger frame ([`Error::FrameTooLarge`], not
/// retryable — resending the same oversized message can never succeed),
/// and a receiver drops anything whose length prefix exceeds it before
/// allocating a buffer for it.
pub const MAX_FRAME: u32 = 64 << 20;

/// Sender-side frame-size check: `body_len` is the encoded body (checked
/// header included); errors with the typed, non-retryable
/// [`Error::FrameTooLarge`] when the frame would exceed [`MAX_FRAME`].
/// The arithmetic is in `u64`, so bodies larger than `u32::MAX` are
/// rejected rather than silently truncated by a cast.
pub fn check_frame_len(body_len: usize) -> Result<u32> {
    let len = body_len as u64;
    if len > MAX_FRAME as u64 {
        return Err(Error::FrameTooLarge { len, limit: MAX_FRAME as u64 });
    }
    Ok(len as u32)
}

// --- frame integrity (CRC32) ------------------------------------------------

/// IEEE CRC32 lookup table (reflected polynomial 0xEDB88320), built at
/// compile time — no external crate, no runtime init.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Streaming IEEE CRC32 digest. Feed it the encoded frame in as many
/// slices as the writer holds ([`Writer::chunks`]): the checksum covers
/// control runs *and* shared value segments without assembling them — the
/// integrity check rides the same vectored path as the bytes themselves.
#[derive(Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// Fresh digest.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Absorb a slice.
    pub fn update(&mut self, data: &[u8]) {
        let mut c = self.0;
        for &b in data {
            c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// Final checksum value.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// IEEE CRC32 of a contiguous buffer.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// Values at or below this size are copied inline into the control buffer
/// when encoded with [`Writer::value`]; larger ones travel as shared,
/// refcounted segments. Inlining tiny values is cheaper than the
/// per-segment bookkeeping (and the iovec entry) they would otherwise
/// cost; large values must never be memcpy'd.
pub const INLINE_VALUE_MAX: usize = 128;

/// One stretch of encoded output: either a range of the control buffer or
/// a shared value segment.
enum Chunk {
    Ctl(Range<usize>),
    Val(Bytes),
}

/// Growable output buffer with primitive writers.
///
/// The writer is *segment-aware*: primitive fields accumulate in a
/// reusable control buffer, while large values appended
/// with [`Writer::value`] are kept as refcounted [`Bytes`] segments
/// instead of being copied in. The encoded message is the in-order
/// concatenation of both, exposed either as contiguous bytes
/// ([`Writer::into_bytes`], which only copies when value segments exist)
/// or as a sequence of slices ([`Writer::chunks`]) that a transport can
/// hand to a single vectored write — the zero-copy path from store to
/// socket.
///
/// Writers are meant to be reused: [`Writer::clear`] drops the contents
/// but keeps the control allocation, so a long-lived connection encodes
/// every frame into the same buffer.
#[derive(Default)]
pub struct Writer {
    /// Control bytes live in `ctl[..pos]`. The vector is kept at full
    /// length (equal to its capacity) so every primitive write is a plain
    /// slice store behind one length check — no per-call `reserve`, no
    /// `memcpy` dispatch for the fixed-width fields. This is what lets a
    /// thousand-item frame encode at copy speed.
    ctl: Vec<u8>,
    /// One past the last control byte written.
    pos: usize,
    chunks: Vec<Chunk>,
    /// Start of the control run not yet recorded in `chunks`.
    mark: usize,
    /// Total bytes held in `Chunk::Val` segments.
    val_bytes: usize,
}

impl Writer {
    /// Fresh, empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Fresh writer with `capacity` control bytes pre-reserved.
    pub fn with_capacity(capacity: usize) -> Writer {
        Writer { ctl: vec![0; capacity], ..Writer::default() }
    }

    /// Drop the contents but keep the control allocation, for reuse.
    pub fn clear(&mut self) {
        self.pos = 0;
        self.chunks.clear();
        self.mark = 0;
        self.val_bytes = 0;
    }

    /// [`clear`](Writer::clear) for a writer about to sit idle on a
    /// long-lived connection: the value segments (refcounts into the store)
    /// go now rather than at the next frame, and a control buffer grown
    /// past `keep` bytes is given back; a smaller one stays, so frames
    /// under `keep` encode without allocating.
    pub fn park(&mut self, keep: usize) {
        self.clear();
        if self.outgrew(keep) {
            self.ctl = Vec::new();
        }
    }

    /// Whether [`park`](Writer::park) would give the control buffer back.
    pub fn outgrew(&self, keep: usize) -> bool {
        self.ctl.len() > keep
    }

    /// Reserve room for at least `additional` more control bytes.
    pub fn reserve(&mut self, additional: usize) {
        if self.pos + additional > self.ctl.len() {
            self.grow(additional);
        }
    }

    #[cold]
    fn grow(&mut self, need: usize) {
        let target = (self.pos + need).max(self.ctl.len() * 2).max(64);
        self.ctl.resize(target, 0);
    }

    /// Claim `need` control bytes, growing if necessary; returns the
    /// write offset. The single branch all primitive writers share.
    #[inline]
    fn claim(&mut self, need: usize) -> usize {
        if self.pos + need > self.ctl.len() {
            self.grow(need);
        }
        let p = self.pos;
        self.pos += need;
        p
    }

    /// Finish and take the encoded bytes as one contiguous buffer.
    /// Zero-copy when no value segments were appended (the common case for
    /// requests and snapshots); otherwise assembles once.
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.chunks.is_empty() {
            self.ctl.truncate(self.pos);
            return self.ctl;
        }
        let mut out = Vec::with_capacity(self.len());
        for chunk in &self.chunks {
            match chunk {
                Chunk::Ctl(r) => out.extend_from_slice(&self.ctl[r.clone()]),
                Chunk::Val(b) => out.extend_from_slice(b),
            }
        }
        out.extend_from_slice(&self.ctl[self.mark..self.pos]);
        out
    }

    /// The encoded message as in-order slices (control runs interleaved
    /// with shared value segments), for vectored writes.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        let tail = &self.ctl[self.mark..self.pos];
        self.chunks
            .iter()
            .map(move |chunk| match chunk {
                Chunk::Ctl(r) => &self.ctl[r.clone()],
                Chunk::Val(b) => &b[..],
            })
            .chain(std::iter::once(tail).filter(|s| !s.is_empty()))
    }

    /// Bytes written so far (control and value segments).
    pub fn len(&self) -> usize {
        self.pos + self.val_bytes
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True before the writer's first use (no control buffer yet).
    fn is_fresh(&self) -> bool {
        self.ctl.is_empty()
    }

    /// Write a raw byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        let p = self.claim(1);
        self.ctl[p] = v;
    }

    /// Write a little-endian u16.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        let p = self.claim(2);
        self.ctl[p..p + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u32.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        let p = self.claim(4);
        self.ctl[p..p + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        let p = self.claim(8);
        self.ctl[p..p + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Write a run of little-endian u64s with one length check — the bulk
    /// path behind version-vector encoding.
    #[inline]
    pub fn u64_slice(&mut self, vals: &[u64]) {
        let n = vals.len() * 8;
        let p = self.claim(n);
        for (d, v) in self.ctl[p..p + n].chunks_exact_mut(8).zip(vals) {
            d.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Write a length-prefixed byte string (always copied into the control
    /// buffer; use [`Writer::value`] for payload bytes).
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        let p = self.claim(4 + v.len());
        self.ctl[p..p + 4].copy_from_slice(&(v.len() as u32).to_le_bytes());
        self.ctl[p + 4..p + 4 + v.len()].copy_from_slice(v);
    }

    /// Append pre-serialized wire bytes verbatim.
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) {
        let p = self.claim(bytes.len());
        self.ctl[p..p + bytes.len()].copy_from_slice(bytes);
    }

    /// IEEE CRC32 over the encoded message, computed by streaming the
    /// in-order chunks (control runs and shared value segments) through
    /// the digest — no assembly, no copies. Equal to `crc32(&into_bytes())`.
    pub fn crc32(&self) -> u32 {
        let mut c = Crc32::new();
        for chunk in self.chunks() {
            c.update(chunk);
        }
        c.finish()
    }

    /// Write a length-prefixed value payload. Small values are inlined
    /// into the control buffer (coalescing a many-small-item frame into a
    /// single contiguous chunk); anything larger than [`INLINE_VALUE_MAX`]
    /// is recorded as a shared segment — a refcount bump, not a copy.
    #[inline]
    pub fn value(&mut self, v: &Bytes) {
        if v.len() <= INLINE_VALUE_MAX {
            let p = self.claim(4 + v.len());
            self.ctl[p..p + 4].copy_from_slice(&(v.len() as u32).to_le_bytes());
            self.ctl[p + 4..p + 4 + v.len()].copy_from_slice(v);
        } else {
            self.u32(v.len() as u32);
            self.chunks.push(Chunk::Ctl(self.mark..self.pos));
            self.mark = self.pos;
            self.chunks.push(Chunk::Val(v.clone()));
            self.val_bytes += v.len();
        }
    }
}

/// Zero-copy input cursor with primitive readers.
///
/// Constructed over a plain slice ([`Reader::new`]) or over a shared
/// frame ([`Reader::shared`]); in the latter mode, [`Reader::value`]
/// yields sub-views of the frame instead of copies, so decoding a
/// received message never duplicates payload bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    backing: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0, backing: None }
    }

    /// Wrap a shared frame; values decode as zero-copy sub-views of it.
    pub fn shared(frame: &'a Bytes) -> Reader<'a> {
        Reader { buf: frame, pos: 0, backing: Some(frame) }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error if any input is left unconsumed (strict decoding).
    pub fn finish(self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(decode_err(format!("{} trailing bytes", self.remaining())))
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(decode_err(format!("need {n} bytes, {} remaining", self.remaining())));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u16.
    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len")))
    }

    /// Read a little-endian u32.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len")))
    }

    /// Read a little-endian u64.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }

    /// Read a length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Read a length-prefixed value payload. Zero-copy (a sub-view of the
    /// frame) when the reader was built with [`Reader::shared`]; a copy
    /// otherwise.
    pub fn value(&mut self) -> Result<Bytes> {
        let len = self.u32()? as usize;
        let start = self.pos;
        let slice = self.take(len)?;
        Ok(match self.backing {
            Some(frame) => frame.slice(start..start + len),
            None => Bytes::copy_from_slice(slice),
        })
    }
}

fn decode_err(msg: impl Into<String>) -> Error {
    Error::Network(format!("decode: {}", msg.into()))
}

// --- version vectors ------------------------------------------------------

/// Encode a version vector (bulk entry write).
#[inline]
pub fn put_vv(w: &mut Writer, vv: &VersionVector) {
    let e = vv.entries();
    w.u16(e.len() as u16);
    w.u64_slice(e);
}

/// Decode a version vector. Allocation-free for vectors up to the inline
/// cap ([`epidb_vv::VV_INLINE_CAP`] servers) — the entries are read from
/// one borrowed run of the frame straight into inline storage, so a
/// thousand-item message decodes its thousand vectors with zero heap
/// traffic.
pub fn get_vv(r: &mut Reader<'_>) -> Result<VersionVector> {
    let n = r.u16()? as usize;
    let raw = r.take(n * 8)?;
    let mut vv = VersionVector::zero(n);
    for j in 0..n {
        let b: [u8; 8] = raw[j * 8..j * 8 + 8].try_into().expect("len");
        vv.set(NodeId::from_index(j), u64::from_le_bytes(b));
    }
    Ok(vv)
}

/// Encode a database version vector.
pub fn put_dbvv(w: &mut Writer, vv: &DbVersionVector) {
    put_vv(w, vv.as_vector());
}

/// Decode a database version vector.
pub fn get_dbvv(r: &mut Reader<'_>) -> Result<DbVersionVector> {
    Ok(DbVersionVector::from_vector(get_vv(r)?))
}

// --- operations -----------------------------------------------------------

const OP_SET: u8 = 0;
const OP_WRITE_RANGE: u8 = 1;
const OP_APPEND: u8 = 2;

/// Encode an update operation.
pub fn put_op(w: &mut Writer, op: &UpdateOp) {
    match op {
        UpdateOp::Set(d) => {
            w.u8(OP_SET);
            w.value(d);
        }
        UpdateOp::WriteRange { offset, data } => {
            w.u8(OP_WRITE_RANGE);
            w.u64(*offset as u64);
            w.value(data);
        }
        UpdateOp::Append(d) => {
            w.u8(OP_APPEND);
            w.value(d);
        }
    }
}

/// Decode an update operation.
pub fn get_op(r: &mut Reader<'_>) -> Result<UpdateOp> {
    match r.u8()? {
        OP_SET => Ok(UpdateOp::Set(r.value()?)),
        OP_WRITE_RANGE => {
            let offset = r.u64()? as usize;
            let data = r.value()?;
            Ok(UpdateOp::WriteRange { offset, data })
        }
        OP_APPEND => Ok(UpdateOp::Append(r.value()?)),
        t => Err(decode_err(format!("unknown op tag {t}"))),
    }
}

// --- propagation messages ---------------------------------------------------

/// Encode a log record.
#[inline]
pub fn put_log_record(w: &mut Writer, rec: &LogRecord) {
    w.u32(rec.item.0);
    w.u64(rec.m);
}

/// Decode a log record.
pub fn get_log_record(r: &mut Reader<'_>) -> Result<LogRecord> {
    Ok(LogRecord { item: ItemId(r.u32()?), m: r.u64()? })
}

/// Encode a shipped item (id + IVV + value).
///
/// Small items (inline-sized value) take a fused path: one length check
/// claims the whole record — id, IVV, value header, value bytes — and the
/// fields are stored straight into the claimed window. Large values fall
/// back to the field-by-field path, which records the value as a shared
/// zero-copy segment.
#[inline]
pub fn put_shipped_item(w: &mut Writer, s: &ShippedItem) {
    let e = s.ivv.entries();
    let vlen = s.value.len();
    if vlen <= INLINE_VALUE_MAX {
        let need = 4 + 2 + e.len() * 8 + 4 + vlen;
        let p = w.claim(need);
        let buf = &mut w.ctl[p..p + need];
        buf[..4].copy_from_slice(&s.item.0.to_le_bytes());
        buf[4..6].copy_from_slice(&(e.len() as u16).to_le_bytes());
        let (vv, rest) = buf[6..].split_at_mut(e.len() * 8);
        for (d, v) in vv.chunks_exact_mut(8).zip(e) {
            d.copy_from_slice(&v.to_le_bytes());
        }
        rest[..4].copy_from_slice(&(vlen as u32).to_le_bytes());
        rest[4..4 + vlen].copy_from_slice(&s.value);
    } else {
        w.u32(s.item.0);
        put_vv(w, &s.ivv);
        w.value(&s.value);
    }
}

/// Decode a shipped item.
pub fn get_shipped_item(r: &mut Reader<'_>) -> Result<ShippedItem> {
    let item = ItemId(r.u32()?);
    let ivv = get_vv(r)?;
    let value = r.value()?;
    Ok(ShippedItem { item, ivv, value })
}

/// Encode a whole propagation payload. Each tail is written through one
/// claimed window (12 bytes per record, no per-field length checks).
pub fn put_payload(w: &mut Writer, p: &PropagationPayload) {
    w.u16(p.tails.len() as u16);
    for tail in &p.tails {
        w.u32(tail.len() as u32);
        put_log_records(w, tail);
    }
    w.u32(p.items.len() as u32);
    for item in &p.items {
        put_shipped_item(w, item);
    }
}

/// Encode a run of log records with a single length check.
pub fn put_log_records(w: &mut Writer, recs: &[LogRecord]) {
    let n = recs.len() * 12;
    let p = w.claim(n);
    for (d, rec) in w.ctl[p..p + n].chunks_exact_mut(12).zip(recs) {
        d[..4].copy_from_slice(&rec.item.0.to_le_bytes());
        d[4..].copy_from_slice(&rec.m.to_le_bytes());
    }
}

/// Decode a propagation payload.
pub fn get_payload(r: &mut Reader<'_>) -> Result<PropagationPayload> {
    let n_tails = r.u16()? as usize;
    let mut tails = Vec::with_capacity(n_tails);
    for _ in 0..n_tails {
        let len = r.u32()? as usize;
        let mut tail = Vec::with_capacity(len);
        for _ in 0..len {
            tail.push(get_log_record(r)?);
        }
        tails.push(tail);
    }
    let n_items = r.u32()? as usize;
    let mut items = Vec::with_capacity(n_items);
    for _ in 0..n_items {
        items.push(get_shipped_item(r)?);
    }
    Ok(PropagationPayload { tails, items })
}

const RESP_CURRENT: u8 = 0;
const RESP_PAYLOAD: u8 = 1;
const RESP_NEED_RECON: u8 = 2;

/// Encode a propagation response.
pub fn put_response(w: &mut Writer, resp: &PropagationResponse) {
    match resp {
        PropagationResponse::YouAreCurrent => w.u8(RESP_CURRENT),
        PropagationResponse::Payload(p) => {
            w.u8(RESP_PAYLOAD);
            put_payload(w, p);
        }
        PropagationResponse::NeedRecon => w.u8(RESP_NEED_RECON),
    }
}

/// Decode a propagation response.
pub fn get_response(r: &mut Reader<'_>) -> Result<PropagationResponse> {
    match r.u8()? {
        RESP_CURRENT => Ok(PropagationResponse::YouAreCurrent),
        RESP_PAYLOAD => Ok(PropagationResponse::Payload(get_payload(r)?)),
        RESP_NEED_RECON => Ok(PropagationResponse::NeedRecon),
        t => Err(decode_err(format!("unknown response tag {t}"))),
    }
}

// --- reconciliation messages -------------------------------------------------

/// Encode one reconciliation item (id + IVV + retained records + value).
pub fn put_recon_item(w: &mut Writer, s: &ReconItem) {
    w.u32(s.item.0);
    put_vv(w, &s.ivv);
    w.u16(s.records.len() as u16);
    for (k, m) in &s.records {
        w.u16(k.0);
        w.u64(*m);
    }
    w.value(&s.value);
}

/// Decode one reconciliation item.
pub fn get_recon_item(r: &mut Reader<'_>) -> Result<ReconItem> {
    let item = ItemId(r.u32()?);
    let ivv = get_vv(r)?;
    let n = r.u16()? as usize;
    let mut records = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let k = NodeId(r.u16()?);
        records.push((k, r.u64()?));
    }
    let value = r.value()?;
    Ok(ReconItem { item, ivv, value, records })
}

/// Encode a coverage-floor vector (one u64 per origin).
pub fn put_floor(w: &mut Writer, floor: &[u64]) {
    w.u16(floor.len() as u16);
    w.u64_slice(floor);
}

/// Decode a coverage-floor vector.
pub fn get_floor(r: &mut Reader<'_>) -> Result<Vec<u64>> {
    let n = r.u16()? as usize;
    let mut floor = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        floor.push(r.u64()?);
    }
    Ok(floor)
}

/// Encode a reconciliation descent reply.
pub fn put_recon_reply(w: &mut Writer, reply: &ReconReply) {
    w.u32(reply.digests.len() as u32);
    for (s, e, d) in &reply.digests {
        w.u32(*s);
        w.u32(*e);
        w.u64(*d);
    }
    w.u32(reply.items.len() as u32);
    for item in &reply.items {
        put_recon_item(w, item);
    }
    put_floor(w, &reply.floor);
    w.u64(reply.cut);
}

/// Decode a reconciliation descent reply.
pub fn get_recon_reply(r: &mut Reader<'_>) -> Result<ReconReply> {
    let n = r.u32()? as usize;
    let mut digests = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let s = r.u32()?;
        let e = r.u32()?;
        digests.push((s, e, r.u64()?));
    }
    let n = r.u32()? as usize;
    let mut items = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        items.push(get_recon_item(r)?);
    }
    let floor = get_floor(r)?;
    let cut = r.u64()?;
    Ok(ReconReply { digests, items, floor, cut })
}

/// Encode a whole-database pull reply.
pub fn put_full_pull_reply(w: &mut Writer, reply: &FullPullReply) {
    w.u32(reply.items.len() as u32);
    for item in &reply.items {
        put_recon_item(w, item);
    }
    put_floor(w, &reply.floor);
}

/// Decode a whole-database pull reply.
pub fn get_full_pull_reply(r: &mut Reader<'_>) -> Result<FullPullReply> {
    let n = r.u32()? as usize;
    let mut items = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        items.push(get_recon_item(r)?);
    }
    let floor = get_floor(r)?;
    Ok(FullPullReply { items, floor })
}

/// Encode an out-of-bound reply.
pub fn put_oob_reply(w: &mut Writer, reply: &OobReply) {
    w.u32(reply.item.0);
    put_vv(w, &reply.ivv);
    w.value(&reply.value);
    w.u8(reply.from_aux as u8);
}

/// Decode an out-of-bound reply.
pub fn get_oob_reply(r: &mut Reader<'_>) -> Result<OobReply> {
    let item = ItemId(r.u32()?);
    let ivv = get_vv(r)?;
    let value = r.value()?;
    let from_aux = match r.u8()? {
        0 => false,
        1 => true,
        b => return Err(decode_err(format!("bad bool {b}"))),
    };
    Ok(OobReply { item, ivv, value, from_aux })
}

// --- delta messages ---------------------------------------------------------

/// Encode a cached operation (pre-state IVV + the op).
pub fn put_cached_op(w: &mut Writer, c: &CachedOp) {
    put_vv(w, &c.pre_vv);
    put_op(w, &c.op);
}

/// Decode a cached operation.
pub fn get_cached_op(r: &mut Reader<'_>) -> Result<CachedOp> {
    let pre_vv = get_vv(r)?;
    let op = get_op(r)?;
    Ok(CachedOp { pre_vv, op })
}

/// Encode a delta offer (tails + per-item IVVs).
pub fn put_delta_offer(w: &mut Writer, o: &DeltaOffer) {
    w.u16(o.tails.len() as u16);
    for tail in &o.tails {
        w.u32(tail.len() as u32);
        put_log_records(w, tail);
    }
    w.u32(o.offers.len() as u32);
    for (item, ivv) in &o.offers {
        w.u32(item.0);
        put_vv(w, ivv);
    }
}

/// Decode a delta offer.
pub fn get_delta_offer(r: &mut Reader<'_>) -> Result<DeltaOffer> {
    let n_tails = r.u16()? as usize;
    let mut tails = Vec::with_capacity(n_tails);
    for _ in 0..n_tails {
        let len = r.u32()? as usize;
        let mut tail = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            tail.push(get_log_record(r)?);
        }
        tails.push(tail);
    }
    let n_offers = r.u32()? as usize;
    let mut offers = Vec::with_capacity(n_offers.min(4096));
    for _ in 0..n_offers {
        let item = ItemId(r.u32()?);
        offers.push((item, get_vv(r)?));
    }
    Ok(DeltaOffer { tails, offers })
}

/// Encode a delta want-list.
pub fn put_delta_request(w: &mut Writer, req: &DeltaRequest) {
    w.u32(req.wants.len() as u32);
    for (item, ivv) in &req.wants {
        w.u32(item.0);
        put_vv(w, ivv);
    }
}

/// Decode a delta want-list.
pub fn get_delta_request(r: &mut Reader<'_>) -> Result<DeltaRequest> {
    let n = r.u32()? as usize;
    let mut wants = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let item = ItemId(r.u32()?);
        wants.push((item, get_vv(r)?));
    }
    Ok(DeltaRequest { wants })
}

const DELTA_OPS: u8 = 0;
const DELTA_WHOLE: u8 = 1;

/// Encode one delta payload entry (op chain or whole-item fallback).
pub fn put_delta_item(w: &mut Writer, item: &DeltaItem) {
    match item {
        DeltaItem::Ops { item, ops, final_ivv } => {
            w.u8(DELTA_OPS);
            w.u32(item.0);
            put_vv(w, final_ivv);
            w.u32(ops.len() as u32);
            for c in ops {
                put_cached_op(w, c);
            }
        }
        DeltaItem::Whole(s) => {
            w.u8(DELTA_WHOLE);
            put_shipped_item(w, s);
        }
    }
}

/// Decode one delta payload entry.
pub fn get_delta_item(r: &mut Reader<'_>) -> Result<DeltaItem> {
    match r.u8()? {
        DELTA_OPS => {
            let item = ItemId(r.u32()?);
            let final_ivv = get_vv(r)?;
            let n = r.u32()? as usize;
            let mut ops = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                ops.push(get_cached_op(r)?);
            }
            Ok(DeltaItem::Ops { item, ops, final_ivv })
        }
        DELTA_WHOLE => Ok(DeltaItem::Whole(get_shipped_item(r)?)),
        t => Err(decode_err(format!("unknown delta item tag {t}"))),
    }
}

/// Encode a delta data message.
pub fn put_delta_payload(w: &mut Writer, p: &DeltaPayload) {
    w.u32(p.items.len() as u32);
    for item in &p.items {
        put_delta_item(w, item);
    }
}

/// Decode a delta data message.
pub fn get_delta_payload(r: &mut Reader<'_>) -> Result<DeltaPayload> {
    let n = r.u32()? as usize;
    let mut items = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        items.push(get_delta_item(r)?);
    }
    Ok(DeltaPayload { items })
}

// --- framed protocol messages (for real transports) ------------------------

const REQ_PULL: u8 = 1;
const REQ_DELTA_PULL: u8 = 2;
const REQ_DELTA_FETCH: u8 = 3;
const REQ_OOB: u8 = 4;
const REQ_LIST_DBS: u8 = 5;
const REQ_DB: u8 = 6;
const REQ_SHARD: u8 = 7;
const REQ_RECON: u8 = 8;
const REQ_FULL_PULL: u8 = 9;

const RESP_PULL: u8 = 1;
const RESP_DELTA_OFFER: u8 = 2;
const RESP_DELTA_PAYLOAD: u8 = 3;
const RESP_OOB: u8 = 4;
const RESP_DBS: u8 = 5;
const RESP_DB: u8 = 6;
const RESP_ERROR: u8 = 7;
const RESP_SHARD: u8 = 8;
const RESP_REFUSED: u8 = 9;
const RESP_RECON: u8 = 10;
const RESP_FULL: u8 = 11;

const OFFER_CURRENT: u8 = 0;
const OFFER_OFFER: u8 = 1;
const OFFER_NEED_RECON: u8 = 2;

// Sub-tags of `RESP_REFUSED`: the two typed routing refusals that must
// survive a real wire byte-exact (retryability depends on the variant).
const REFUSED_NOT_SERVED: u8 = 0;
const REFUSED_MOVING: u8 = 1;

// Sub-tags of a `REFUSED_NOT_SERVED` route target.
const TARGET_DB: u8 = 0;
const TARGET_SHARD: u8 = 1;

/// One level of routing is legal (a [`ProtocolRequest::Db`] or
/// [`ProtocolRequest::Shard`] envelope around a replica-level message);
/// deeper nesting is rejected.
const MAX_ROUTE_DEPTH: u8 = 1;

fn put_string(w: &mut Writer, s: &str) {
    w.bytes(s.as_bytes());
}

fn get_string(r: &mut Reader<'_>) -> Result<String> {
    // Validate in place, copy once — nothing is allocated for rejected
    // input. Strings appear O(1) times per frame (routing names, error
    // text), never per item, so this is off the small-message fast path.
    std::str::from_utf8(r.bytes()?)
        .map(str::to_owned)
        .map_err(|e| decode_err(format!("bad utf-8: {e}")))
}

fn put_request_body(w: &mut Writer, req: &ProtocolRequest) {
    match req {
        ProtocolRequest::Pull { from, dbvv } => {
            w.u8(REQ_PULL);
            w.u16(from.0);
            put_dbvv(w, dbvv);
        }
        ProtocolRequest::DeltaPull { from, dbvv } => {
            w.u8(REQ_DELTA_PULL);
            w.u16(from.0);
            put_dbvv(w, dbvv);
        }
        ProtocolRequest::DeltaFetch { from, wants } => {
            w.u8(REQ_DELTA_FETCH);
            w.u16(from.0);
            put_delta_request(w, wants);
        }
        ProtocolRequest::Oob { from, item } => {
            w.u8(REQ_OOB);
            w.u16(from.0);
            w.u32(item.0);
        }
        ProtocolRequest::ListDatabases { from } => {
            w.u8(REQ_LIST_DBS);
            w.u16(from.0);
        }
        ProtocolRequest::Db { name, req } => {
            w.u8(REQ_DB);
            put_string(w, name);
            put_request_body(w, req);
        }
        ProtocolRequest::Shard { shard, req } => {
            w.u8(REQ_SHARD);
            w.u16(shard.0);
            put_request_body(w, req);
        }
        ProtocolRequest::Recon { from, ranges, fetch } => {
            w.u8(REQ_RECON);
            w.u16(from.0);
            w.u32(ranges.len() as u32);
            for (s, e) in ranges {
                w.u32(*s);
                w.u32(*e);
            }
            w.u32(fetch.len() as u32);
            for item in fetch {
                w.u32(item.0);
            }
        }
        ProtocolRequest::FullPull { from } => {
            w.u8(REQ_FULL_PULL);
            w.u16(from.0);
        }
    }
}

fn get_request_body(r: &mut Reader<'_>, depth: u8) -> Result<ProtocolRequest> {
    match r.u8()? {
        REQ_PULL => {
            let from = NodeId(r.u16()?);
            Ok(ProtocolRequest::Pull { from, dbvv: get_dbvv(r)? })
        }
        REQ_DELTA_PULL => {
            let from = NodeId(r.u16()?);
            Ok(ProtocolRequest::DeltaPull { from, dbvv: get_dbvv(r)? })
        }
        REQ_DELTA_FETCH => {
            let from = NodeId(r.u16()?);
            Ok(ProtocolRequest::DeltaFetch { from, wants: get_delta_request(r)? })
        }
        REQ_OOB => {
            let from = NodeId(r.u16()?);
            Ok(ProtocolRequest::Oob { from, item: ItemId(r.u32()?) })
        }
        REQ_LIST_DBS => Ok(ProtocolRequest::ListDatabases { from: NodeId(r.u16()?) }),
        REQ_DB => {
            if depth >= MAX_ROUTE_DEPTH {
                return Err(decode_err("nested db routing"));
            }
            let name = get_string(r)?;
            let req = get_request_body(r, depth + 1)?;
            Ok(ProtocolRequest::Db { name, req: Box::new(req) })
        }
        REQ_SHARD => {
            if depth >= MAX_ROUTE_DEPTH {
                return Err(decode_err("nested shard routing"));
            }
            let shard = ShardId(r.u16()?);
            let req = get_request_body(r, depth + 1)?;
            Ok(ProtocolRequest::Shard { shard, req: Box::new(req) })
        }
        REQ_RECON => {
            let from = NodeId(r.u16()?);
            let n = r.u32()? as usize;
            let mut ranges = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let s = r.u32()?;
                ranges.push((s, r.u32()?));
            }
            let n = r.u32()? as usize;
            let mut fetch = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                fetch.push(ItemId(r.u32()?));
            }
            Ok(ProtocolRequest::Recon { from, ranges, fetch })
        }
        REQ_FULL_PULL => Ok(ProtocolRequest::FullPull { from: NodeId(r.u16()?) }),
        t => Err(decode_err(format!("unknown request tag {t}"))),
    }
}

fn put_response_body(w: &mut Writer, resp: &ProtocolResponse) {
    match resp {
        ProtocolResponse::Pull(r) => {
            w.u8(RESP_PULL);
            put_response(w, r);
        }
        ProtocolResponse::DeltaOffer(DeltaOfferResponse::YouAreCurrent) => {
            w.u8(RESP_DELTA_OFFER);
            w.u8(OFFER_CURRENT);
        }
        ProtocolResponse::DeltaOffer(DeltaOfferResponse::Offer(o)) => {
            w.u8(RESP_DELTA_OFFER);
            w.u8(OFFER_OFFER);
            put_delta_offer(w, o);
        }
        ProtocolResponse::DeltaOffer(DeltaOfferResponse::NeedRecon) => {
            w.u8(RESP_DELTA_OFFER);
            w.u8(OFFER_NEED_RECON);
        }
        ProtocolResponse::DeltaPayload(p) => {
            w.u8(RESP_DELTA_PAYLOAD);
            put_delta_payload(w, p);
        }
        ProtocolResponse::Oob(reply) => {
            w.u8(RESP_OOB);
            put_oob_reply(w, reply);
        }
        ProtocolResponse::Databases(names) => {
            w.u8(RESP_DBS);
            w.u32(names.len() as u32);
            for name in names {
                put_string(w, name);
            }
        }
        ProtocolResponse::Db { name, resp } => {
            w.u8(RESP_DB);
            put_string(w, name);
            put_response_body(w, resp);
        }
        ProtocolResponse::Error(msg) => {
            w.u8(RESP_ERROR);
            put_string(w, msg);
        }
        ProtocolResponse::Shard { shard, resp } => {
            w.u8(RESP_SHARD);
            w.u16(shard.0);
            put_response_body(w, resp);
        }
        ProtocolResponse::Refused(e) => {
            w.u8(RESP_REFUSED);
            put_refusal(w, e);
        }
        ProtocolResponse::Recon(reply) => {
            w.u8(RESP_RECON);
            put_recon_reply(w, reply);
        }
        ProtocolResponse::Full(reply) => {
            w.u8(RESP_FULL);
            put_full_pull_reply(w, reply);
        }
    }
}

/// Encode a typed routing refusal. Only the two routing variants exist on
/// the wire; anything else is a caller bug (the engine folds other errors
/// into [`ProtocolResponse::Error`] text).
fn put_refusal(w: &mut Writer, e: &Error) {
    match e {
        Error::NotServedHere { target, owners } => {
            w.u8(REFUSED_NOT_SERVED);
            match target {
                RouteTarget::Database(name) => {
                    w.u8(TARGET_DB);
                    put_string(w, name);
                }
                RouteTarget::Shard(shard) => {
                    w.u8(TARGET_SHARD);
                    w.u16(shard.0);
                }
            }
            w.u16(owners.len() as u16);
            for o in owners {
                w.u16(o.0);
            }
        }
        Error::ShardMoving(shard) => {
            w.u8(REFUSED_MOVING);
            w.u16(shard.0);
        }
        other => panic!("refusal {other:?} is not a typed routing refusal"),
    }
}

fn get_refusal(r: &mut Reader<'_>) -> Result<Error> {
    match r.u8()? {
        REFUSED_NOT_SERVED => {
            let target = match r.u8()? {
                TARGET_DB => RouteTarget::Database(get_string(r)?),
                TARGET_SHARD => RouteTarget::Shard(ShardId(r.u16()?)),
                t => return Err(decode_err(format!("unknown route target tag {t}"))),
            };
            let n = r.u16()? as usize;
            let mut owners = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                owners.push(NodeId(r.u16()?));
            }
            Ok(Error::NotServedHere { target, owners })
        }
        REFUSED_MOVING => Ok(Error::ShardMoving(ShardId(r.u16()?))),
        t => Err(decode_err(format!("unknown refusal tag {t}"))),
    }
}

fn get_response_body(r: &mut Reader<'_>, depth: u8) -> Result<ProtocolResponse> {
    match r.u8()? {
        RESP_PULL => Ok(ProtocolResponse::Pull(get_response(r)?)),
        RESP_DELTA_OFFER => match r.u8()? {
            OFFER_CURRENT => Ok(ProtocolResponse::DeltaOffer(DeltaOfferResponse::YouAreCurrent)),
            OFFER_OFFER => {
                Ok(ProtocolResponse::DeltaOffer(DeltaOfferResponse::Offer(get_delta_offer(r)?)))
            }
            OFFER_NEED_RECON => Ok(ProtocolResponse::DeltaOffer(DeltaOfferResponse::NeedRecon)),
            t => Err(decode_err(format!("unknown offer tag {t}"))),
        },
        RESP_DELTA_PAYLOAD => Ok(ProtocolResponse::DeltaPayload(get_delta_payload(r)?)),
        RESP_OOB => Ok(ProtocolResponse::Oob(get_oob_reply(r)?)),
        RESP_DBS => {
            let n = r.u32()? as usize;
            let mut names = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                names.push(get_string(r)?);
            }
            Ok(ProtocolResponse::Databases(names))
        }
        RESP_DB => {
            if depth >= MAX_ROUTE_DEPTH {
                return Err(decode_err("nested db routing"));
            }
            let name = get_string(r)?;
            let resp = get_response_body(r, depth + 1)?;
            Ok(ProtocolResponse::Db { name, resp: Box::new(resp) })
        }
        RESP_ERROR => Ok(ProtocolResponse::Error(get_string(r)?)),
        RESP_SHARD => {
            if depth >= MAX_ROUTE_DEPTH {
                return Err(decode_err("nested shard routing"));
            }
            let shard = ShardId(r.u16()?);
            let resp = get_response_body(r, depth + 1)?;
            Ok(ProtocolResponse::Shard { shard, resp: Box::new(resp) })
        }
        RESP_REFUSED => Ok(ProtocolResponse::Refused(get_refusal(r)?)),
        RESP_RECON => Ok(ProtocolResponse::Recon(get_recon_reply(r)?)),
        RESP_FULL => Ok(ProtocolResponse::Full(get_full_pull_reply(r)?)),
        t => Err(decode_err(format!("unknown response tag {t}"))),
    }
}

/// Encode a framed protocol request into a caller-supplied (reusable)
/// writer: the writer is cleared, capacity is pre-reserved from the
/// message's own size accounting, and the version byte + tagged body are
/// written. The length prefix is the transport's job.
pub fn encode_request_to(req: &ProtocolRequest, w: &mut Writer) {
    w.clear();
    // Size the control buffer from the message's own accounting, but only
    // on first use: a reused writer keeps its capacity, and re-walking the
    // message to compute `control_bytes` every frame costs more than the
    // amortized growth it would save.
    if w.is_fresh() {
        w.reserve(req.control_bytes() as usize + 16);
    }
    w.u8(CODEC_VERSION);
    put_request_body(w, req);
}

/// Encode a framed protocol request (version byte + tagged body) into a
/// fresh contiguous buffer. The length prefix is the transport's job.
pub fn encode_request(req: &ProtocolRequest) -> Vec<u8> {
    let mut w = Writer::new();
    encode_request_to(req, &mut w);
    w.into_bytes()
}

fn check_version(r: &mut Reader<'_>) -> Result<()> {
    let version = r.u8()?;
    if version != CODEC_VERSION {
        return Err(decode_err(format!("unsupported codec version {version}")));
    }
    Ok(())
}

/// Decode a framed protocol request, rejecting unknown versions/tags,
/// over-deep routing, and trailing garbage.
pub fn decode_request(buf: &[u8]) -> Result<ProtocolRequest> {
    let mut r = Reader::new(buf);
    check_version(&mut r)?;
    let req = get_request_body(&mut r, 0)?;
    r.finish()?;
    Ok(req)
}

/// As [`decode_request`], but over a shared frame: any value payloads in
/// the message decode as zero-copy sub-views of `frame`.
pub fn decode_request_shared(frame: &Bytes) -> Result<ProtocolRequest> {
    let mut r = Reader::shared(frame);
    check_version(&mut r)?;
    let req = get_request_body(&mut r, 0)?;
    r.finish()?;
    Ok(req)
}

/// Encode a framed protocol response into a caller-supplied (reusable)
/// writer; see [`encode_request_to`]. Values above [`INLINE_VALUE_MAX`]
/// become shared segments ([`Writer::chunks`]), not copies.
pub fn encode_response_to(resp: &ProtocolResponse, w: &mut Writer) {
    w.clear();
    // See `encode_request_to` for why this reserves only on first use.
    if w.is_fresh() {
        w.reserve(resp.control_bytes() as usize + 16);
    }
    w.u8(CODEC_VERSION);
    put_response_body(w, resp);
}

/// Encode a framed protocol response (version byte + tagged body) into a
/// fresh contiguous buffer.
pub fn encode_response(resp: &ProtocolResponse) -> Vec<u8> {
    let mut w = Writer::new();
    encode_response_to(resp, &mut w);
    w.into_bytes()
}

/// Decode a framed protocol response, rejecting unknown versions/tags,
/// over-deep routing, and trailing garbage.
pub fn decode_response(buf: &[u8]) -> Result<ProtocolResponse> {
    let mut r = Reader::new(buf);
    check_version(&mut r)?;
    let resp = get_response_body(&mut r, 0)?;
    r.finish()?;
    Ok(resp)
}

/// As [`decode_response`], but over a shared frame: item values decode as
/// zero-copy sub-views of `frame` — the receive half of the zero-copy
/// payload path.
pub fn decode_response_shared(frame: &Bytes) -> Result<ProtocolResponse> {
    let mut r = Reader::shared(frame);
    check_version(&mut r)?;
    let resp = get_response_body(&mut r, 0)?;
    r.finish()?;
    Ok(resp)
}

// --- checked frame envelope -------------------------------------------------
//
// A checked frame is `crc32 (u32 LE) | versioned body`. The checksum covers
// the whole body — control bytes and value segments alike — so any flipped
// bit surfaces as [`Error::CorruptFrame`] instead of a garbage decode. The
// checksum is always verified *before* the body is decoded (and, in the
// shared variants, before any zero-copy sub-view aliases the frame).

/// Bytes of the checked-frame header (the CRC32 field).
pub const CHECKED_HEADER: usize = 4;

/// Verify a checked frame's CRC32 header; on success return the body.
pub fn verify_checked_frame(buf: &[u8]) -> Result<&[u8]> {
    if buf.len() < CHECKED_HEADER {
        return Err(Error::CorruptFrame(format!("frame too short: {} bytes", buf.len())));
    }
    let want = u32::from_le_bytes(buf[..CHECKED_HEADER].try_into().expect("len"));
    let body = &buf[CHECKED_HEADER..];
    let got = crc32(body);
    if got != want {
        return Err(Error::CorruptFrame(format!(
            "crc mismatch: header {want:#010x}, computed {got:#010x}"
        )));
    }
    Ok(body)
}

fn corrupt(e: Error) -> Error {
    // A frame whose checksum matched but whose body fails to decode is
    // still a corrupt frame from the receiver's perspective (and equally
    // retryable); fold the decode detail into the message.
    match e {
        Error::CorruptFrame(_) => e,
        other => Error::CorruptFrame(other.to_string()),
    }
}

/// Encode a request as a checked frame (CRC32 header + versioned body).
pub fn encode_request_checked(req: &ProtocolRequest) -> Vec<u8> {
    let body = encode_request(req);
    let mut out = Vec::with_capacity(CHECKED_HEADER + body.len());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decode a checked request frame; any integrity or decode failure is a
/// retryable [`Error::CorruptFrame`].
pub fn decode_request_checked(buf: &[u8]) -> Result<ProtocolRequest> {
    let body = verify_checked_frame(buf)?;
    decode_request(body).map_err(corrupt)
}

/// Encode a response as a checked frame (CRC32 header + versioned body).
pub fn encode_response_checked(resp: &ProtocolResponse) -> Vec<u8> {
    let body = encode_response(resp);
    let mut out = Vec::with_capacity(CHECKED_HEADER + body.len());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decode a checked response frame; any integrity or decode failure is a
/// retryable [`Error::CorruptFrame`].
pub fn decode_response_checked(buf: &[u8]) -> Result<ProtocolResponse> {
    let body = verify_checked_frame(buf)?;
    decode_response(body).map_err(corrupt)
}

/// As [`decode_response_checked`], but zero-copy: after the checksum
/// verifies, item values decode as sub-views of `frame`. Verification
/// happens strictly before aliasing, so a corrupted frame is dropped
/// whole — no partially-decoded state escapes.
pub fn decode_response_checked_shared(frame: &Bytes) -> Result<ProtocolResponse> {
    verify_checked_frame(frame)?;
    let body = frame.slice(CHECKED_HEADER..);
    decode_response_shared(&body).map_err(corrupt)
}

/// As [`decode_request_checked`], but zero-copy over a shared frame.
pub fn decode_request_checked_shared(frame: &Bytes) -> Result<ProtocolRequest> {
    verify_checked_frame(frame)?;
    let body = frame.slice(CHECKED_HEADER..);
    decode_request_shared(&body).map_err(corrupt)
}

// --- decode scratch ---------------------------------------------------------

/// Frame buffers above this size are dropped instead of pooled; a giant
/// whole-item frame must not pin its allocation for the rest of a
/// connection's life.
const SCRATCH_MAX_POOLED: usize = 1 << 20;

/// Buffers retained per scratch: one in-flight frame plus a spare is the
/// steady state of a request/response connection.
const SCRATCH_MAX_BUFS: usize = 4;

/// Decode-side scratch: a slab of reusable frame buffers, owned by a
/// connection (or engine) and recycled per frame.
///
/// The decoders themselves are O(1) allocations per frame regardless of
/// item count — version vectors decode into inline storage
/// ([`get_vv`]), values alias the frame ([`Reader::shared`]), and only
/// the per-message containers allocate. What remains is the frame buffer
/// itself: a transport that reads each response into a fresh `Vec`
/// allocates once per round even when nothing changed. The scratch closes
/// that gap: [`DecodeScratch::take_buf`] hands out a recycled buffer to
/// read the frame into, and [`DecodeScratch::recycle`] reclaims it once
/// the decoded message no longer aliases it (checked via refcount — a
/// frame whose values were adopted by the store stays alive, untouched).
#[derive(Default)]
pub struct DecodeScratch {
    bufs: Vec<Vec<u8>>,
}

impl DecodeScratch {
    /// Fresh, empty scratch.
    pub fn new() -> DecodeScratch {
        DecodeScratch::default()
    }

    /// A cleared buffer to read the next frame into — recycled if one is
    /// pooled, fresh otherwise.
    pub fn take_buf(&mut self) -> Vec<u8> {
        self.bufs.pop().unwrap_or_default()
    }

    /// Reclaim a frame's buffer after its decoded message has been
    /// consumed. Succeeds (and pools the allocation for the next
    /// [`DecodeScratch::take_buf`]) only when nothing aliases the frame
    /// anymore; a frame still backing adopted values is left alone.
    /// Returns whether the buffer was reclaimed.
    pub fn recycle(&mut self, frame: Bytes) -> bool {
        match frame.try_into_vec() {
            Ok(buf) => {
                self.recycle_buf(buf);
                true
            }
            Err(_) => false,
        }
    }

    /// Pool a plain buffer (the non-shared read path).
    pub fn recycle_buf(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() <= SCRATCH_MAX_POOLED && self.bufs.len() < SCRATCH_MAX_BUFS {
            buf.clear();
            self.bufs.push(buf);
        }
    }

    /// Buffers currently pooled (for tests and diagnostics).
    pub fn pooled(&self) -> usize {
        self.bufs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vv(e: &[u64]) -> VersionVector {
        VersionVector::from_entries(e.to_vec())
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(1996);
        w.u32(123_456);
        w.u64(u64::MAX - 3);
        w.bytes(b"hello");
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 1996);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.bytes().unwrap(), b"hello");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let mut w = Writer::new();
        w.u64(42);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf[..5]);
        assert!(r.u64().is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut w = Writer::new();
        w.u8(CODEC_VERSION);
        w.u8(REQ_OOB);
        w.u16(0);
        w.u32(9);
        w.u8(0xFF); // garbage
        assert!(decode_request(&w.into_bytes()).is_err());
    }

    #[test]
    fn vv_roundtrip() {
        let v = vv(&[0, 5, u64::MAX, 7]);
        let mut w = Writer::new();
        put_vv(&mut w, &v);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(get_vv(&mut r).unwrap(), v);
        r.finish().unwrap();
    }

    #[test]
    fn ops_roundtrip() {
        for op in [
            UpdateOp::set(&b"whole"[..]),
            UpdateOp::write_range(17, &b"patch"[..]),
            UpdateOp::append(&b""[..]),
        ] {
            let mut w = Writer::new();
            put_op(&mut w, &op);
            let buf = w.into_bytes();
            let mut r = Reader::new(&buf);
            assert_eq!(get_op(&mut r).unwrap(), op);
            r.finish().unwrap();
        }
    }

    #[test]
    fn payload_roundtrip() {
        let payload = PropagationPayload {
            tails: vec![
                vec![LogRecord { item: ItemId(1), m: 3 }, LogRecord { item: ItemId(2), m: 9 }],
                vec![],
            ],
            items: vec![ShippedItem {
                item: ItemId(1),
                ivv: vv(&[3, 0]),
                value: Bytes::from_static(b"contents"),
            }],
        };
        let mut w = Writer::new();
        put_payload(&mut w, &payload);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let back = get_payload(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.tails, payload.tails);
        assert_eq!(back.items.len(), 1);
        assert_eq!(back.items[0].item, ItemId(1));
        assert_eq!(back.items[0].ivv, vv(&[3, 0]));
        assert_eq!(&back.items[0].value[..], b"contents");
    }

    #[test]
    fn requests_roundtrip() {
        let mut dbvv = DbVersionVector::zero(3);
        dbvv.record_local_update(NodeId(2));
        let reqs = vec![
            ProtocolRequest::Pull { from: NodeId(1), dbvv: dbvv.clone() },
            ProtocolRequest::DeltaPull { from: NodeId(1), dbvv },
            ProtocolRequest::DeltaFetch {
                from: NodeId(0),
                wants: DeltaRequest { wants: vec![(ItemId(3), vv(&[1, 0, 2]))] },
            },
            ProtocolRequest::Oob { from: NodeId(2), item: ItemId(77) },
            ProtocolRequest::ListDatabases { from: NodeId(0) },
            ProtocolRequest::Db {
                name: "mail".into(),
                req: Box::new(ProtocolRequest::Oob { from: NodeId(2), item: ItemId(5) }),
            },
            ProtocolRequest::Shard {
                shard: ShardId(3),
                req: Box::new(ProtocolRequest::Oob { from: NodeId(2), item: ItemId(5) }),
            },
            ProtocolRequest::Recon {
                from: NodeId(1),
                ranges: vec![(0, 8), (8, 16)],
                fetch: vec![ItemId(3), ItemId(11)],
            },
            ProtocolRequest::Recon { from: NodeId(0), ranges: vec![], fetch: vec![] },
            ProtocolRequest::FullPull { from: NodeId(2) },
        ];
        for req in reqs {
            let buf = encode_request(&req);
            let back = decode_request(&buf).unwrap();
            assert_eq!(format!("{req:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = vec![
            ProtocolResponse::Pull(PropagationResponse::YouAreCurrent),
            ProtocolResponse::DeltaOffer(DeltaOfferResponse::YouAreCurrent),
            ProtocolResponse::DeltaOffer(DeltaOfferResponse::Offer(DeltaOffer {
                tails: vec![vec![LogRecord { item: ItemId(1), m: 4 }], vec![]],
                offers: vec![(ItemId(1), vv(&[4, 0]))],
            })),
            ProtocolResponse::DeltaPayload(DeltaPayload {
                items: vec![
                    DeltaItem::Ops {
                        item: ItemId(1),
                        ops: vec![CachedOp {
                            pre_vv: vv(&[3, 0]),
                            op: UpdateOp::append(&b"x"[..]),
                        }],
                        final_ivv: vv(&[4, 0]),
                    },
                    DeltaItem::Whole(ShippedItem {
                        item: ItemId(2),
                        ivv: vv(&[0, 1]),
                        value: Bytes::from_static(b"whole"),
                    }),
                ],
            }),
            ProtocolResponse::Oob(OobReply {
                item: ItemId(77),
                ivv: vv(&[1, 2, 3]),
                value: Bytes::from_static(b"v"),
                from_aux: true,
            }),
            ProtocolResponse::Databases(vec!["docs".into(), "mail".into()]),
            ProtocolResponse::Db {
                name: "mail".into(),
                resp: Box::new(ProtocolResponse::Pull(PropagationResponse::YouAreCurrent)),
            },
            ProtocolResponse::Error("remote failure".into()),
            ProtocolResponse::Shard {
                shard: ShardId(7),
                resp: Box::new(ProtocolResponse::Pull(PropagationResponse::YouAreCurrent)),
            },
            ProtocolResponse::Refused(Error::NotServedHere {
                target: RouteTarget::Shard(ShardId(2)),
                owners: vec![NodeId(1), NodeId(3)],
            }),
            ProtocolResponse::Refused(Error::NotServedHere {
                target: RouteTarget::Database("mail".into()),
                owners: vec![],
            }),
            ProtocolResponse::Refused(Error::ShardMoving(ShardId(4))),
            ProtocolResponse::DeltaOffer(DeltaOfferResponse::NeedRecon),
            ProtocolResponse::Pull(PropagationResponse::NeedRecon),
            ProtocolResponse::Recon(ReconReply {
                digests: vec![(0, 4, 0xDEAD_BEEF), (4, 8, 7)],
                items: vec![ReconItem {
                    item: ItemId(5),
                    ivv: vv(&[2, 0, 1]),
                    value: Bytes::from_static(b"reconciled"),
                    records: vec![(NodeId(0), 2), (NodeId(2), 1)],
                }],
                floor: vec![1, 0, 0],
                cut: 13,
            }),
            ProtocolResponse::Recon(ReconReply::default()),
            ProtocolResponse::Full(FullPullReply {
                items: vec![
                    ReconItem {
                        item: ItemId(0),
                        ivv: vv(&[1, 0]),
                        value: Bytes::from_static(b"a"),
                        records: vec![(NodeId(0), 1)],
                    },
                    ReconItem {
                        item: ItemId(1),
                        ivv: vv(&[0, 0]),
                        value: Bytes::new(),
                        records: vec![],
                    },
                ],
                floor: vec![0, 3],
            }),
        ];
        for resp in resps {
            let buf = encode_response(&resp);
            let back = decode_response(&buf).unwrap();
            assert_eq!(format!("{resp:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn nested_db_routing_rejected() {
        let req = ProtocolRequest::Db {
            name: "outer".into(),
            req: Box::new(ProtocolRequest::Db {
                name: "inner".into(),
                req: Box::new(ProtocolRequest::ListDatabases { from: NodeId(0) }),
            }),
        };
        assert!(decode_request(&encode_request(&req)).is_err());
    }

    #[test]
    fn nested_shard_routing_rejected() {
        let req = ProtocolRequest::Shard {
            shard: ShardId(0),
            req: Box::new(ProtocolRequest::Shard {
                shard: ShardId(1),
                req: Box::new(ProtocolRequest::ListDatabases { from: NodeId(0) }),
            }),
        };
        assert!(decode_request(&encode_request(&req)).is_err());
        // Mixed nesting (a shard envelope inside a db envelope) is equally
        // over-deep: one routing hop total.
        let req = ProtocolRequest::Db {
            name: "outer".into(),
            req: Box::new(ProtocolRequest::Shard {
                shard: ShardId(1),
                req: Box::new(ProtocolRequest::ListDatabases { from: NodeId(0) }),
            }),
        };
        assert!(decode_request(&encode_request(&req)).is_err());
    }

    #[test]
    fn refusals_roundtrip_typed() {
        // A refusal that crossed a real wire must still classify correctly.
        let refusal = ProtocolResponse::Refused(Error::ShardMoving(ShardId(9)));
        match decode_response(&encode_response(&refusal)).unwrap() {
            ProtocolResponse::Refused(e) => assert!(e.is_retryable()),
            other => panic!("kind changed: {other:?}"),
        }
        let refusal = ProtocolResponse::Refused(Error::NotServedHere {
            target: RouteTarget::Shard(ShardId(1)),
            owners: vec![NodeId(2)],
        });
        match decode_response(&encode_response(&refusal)).unwrap() {
            ProtocolResponse::Refused(e) => {
                assert!(!e.is_retryable());
                match e {
                    Error::NotServedHere { owners, .. } => assert_eq!(owners, vec![NodeId(2)]),
                    other => panic!("variant changed: {other:?}"),
                }
            }
            other => panic!("kind changed: {other:?}"),
        }
    }

    #[test]
    fn unknown_version_rejected() {
        let mut buf = encode_request(&ProtocolRequest::Oob { from: NodeId(0), item: ItemId(0) });
        buf[0] = 99;
        assert!(decode_request(&buf).is_err());
    }

    fn large_oob(len: usize) -> (ProtocolResponse, Bytes) {
        let value = Bytes::from(vec![0xC3u8; len]);
        let resp = ProtocolResponse::Oob(OobReply {
            item: ItemId(4),
            ivv: vv(&[2, 1]),
            value: value.clone(),
            from_aux: false,
        });
        (resp, value)
    }

    #[test]
    fn large_value_travels_as_shared_segment() {
        let (resp, value) = large_oob(INLINE_VALUE_MAX + 1);
        let mut w = Writer::new();
        encode_response_to(&resp, &mut w);
        let segments: Vec<&[u8]> = w.chunks().collect();
        assert!(segments.len() >= 3, "ctl run, value segment, ctl tail");
        assert!(
            segments.iter().any(|s| s.as_ptr() == value.as_ref().as_ptr()),
            "the value segment must be the store's buffer itself, not a copy"
        );
        // The chunk sequence and the contiguous encoding agree byte-for-byte.
        let concat: Vec<u8> = segments.concat();
        assert_eq!(concat, encode_response(&resp));
        assert_eq!(concat.len(), w.len());
    }

    #[test]
    fn small_value_is_inlined() {
        let (resp, _) = large_oob(INLINE_VALUE_MAX);
        let mut w = Writer::new();
        encode_response_to(&resp, &mut w);
        assert_eq!(w.chunks().count(), 1, "at or below the threshold: one contiguous run");
    }

    #[test]
    fn shared_decode_is_zero_copy() {
        let (resp, _) = large_oob(1024);
        let frame = Bytes::from(encode_response(&resp));
        match decode_response_shared(&frame).unwrap() {
            ProtocolResponse::Oob(reply) => {
                assert!(
                    reply.value.shares_storage_with(&frame),
                    "decoded value must be a sub-view of the frame"
                );
                assert_eq!(reply.value.len(), 1024);
            }
            other => panic!("kind changed: {other:?}"),
        }
    }

    #[test]
    fn writer_reuse_keeps_capacity_and_resets_segments() {
        let (resp, _) = large_oob(4096);
        let mut w = Writer::new();
        encode_response_to(&resp, &mut w);
        let first = encode_response(&resp);
        // Re-encoding a different message into the same writer must fully
        // reset segment state; a small message then fits in one run.
        let small = ProtocolResponse::Error("e".into());
        encode_response_to(&small, &mut w);
        assert_eq!(w.chunks().count(), 1);
        assert_eq!(w.chunks().next().unwrap().to_vec(), encode_response(&small));
        // And the original message still encodes identically afterwards.
        encode_response_to(&resp, &mut w);
        assert_eq!(w.chunks().flat_map(|s| s.iter().copied()).collect::<Vec<u8>>(), first);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn writer_crc_streams_over_value_segments() {
        let (resp, _) = large_oob(4096);
        let mut w = Writer::new();
        encode_response_to(&resp, &mut w);
        assert!(w.chunks().count() >= 3, "must actually exercise segmented output");
        assert_eq!(w.crc32(), crc32(&encode_response(&resp)));
    }

    #[test]
    fn checked_frames_roundtrip() {
        let req = ProtocolRequest::Oob { from: NodeId(1), item: ItemId(9) };
        let back = decode_request_checked(&encode_request_checked(&req)).unwrap();
        assert_eq!(format!("{back:?}"), format!("{req:?}"));
        let (resp, _) = large_oob(1024);
        let frame = Bytes::from(encode_response_checked(&resp));
        let back = decode_response_checked_shared(&frame).unwrap();
        assert_eq!(format!("{back:?}"), format!("{resp:?}"));
    }

    #[test]
    fn checked_shared_decode_stays_zero_copy() {
        let (resp, _) = large_oob(1024);
        let frame = Bytes::from(encode_response_checked(&resp));
        match decode_response_checked_shared(&frame).unwrap() {
            ProtocolResponse::Oob(reply) => {
                assert!(reply.value.shares_storage_with(&frame));
            }
            other => panic!("kind changed: {other:?}"),
        }
    }

    #[test]
    fn every_single_byte_flip_is_a_corrupt_frame() {
        let req = ProtocolRequest::Oob { from: NodeId(2), item: ItemId(3) };
        let frame = encode_request_checked(&req);
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            match decode_request_checked(&bad) {
                Err(Error::CorruptFrame(_)) => {}
                other => panic!("flip at byte {i}: expected CorruptFrame, got {other:?}"),
            }
        }
    }

    #[test]
    fn short_checked_frames_rejected() {
        for len in 0..CHECKED_HEADER {
            assert!(matches!(decode_request_checked(&vec![0u8; len]), Err(Error::CorruptFrame(_))));
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf = encode_request(&ProtocolRequest::Oob { from: NodeId(0), item: ItemId(0) });
        buf[1] = 200;
        assert!(decode_request(&buf).is_err());
        let mut buf = encode_response(&ProtocolResponse::Error("e".into()));
        buf[1] = 200;
        assert!(decode_response(&buf).is_err());
    }
}
