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
use epidb_common::{Error, ItemId, NodeId, Result, ShardId};
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
//
// One checksum, four kernels, identical bits. Every kernel advances the
// same raw (pre-inversion) register of the reflected IEEE polynomial
// 0xEDB88320, so which one ran is invisible on the wire and on disk:
//
// - the byte table: one lookup per byte. The reference the others are
//   tested against;
// - slicing-by-8: one 8-byte block per step, then one 4-byte step, then
//   the byte table for the last 3 B at most. The kernel for slices under
//   16 B and for what the two below leave;
// - slicing-by-16: sixteen tables, one 16-byte block per step (portable);
// - carry-less-multiply folding (x86_64 with PCLMULQDQ, detected at run
//   time): four 128-bit lanes folded 64 B per step, then Barrett reduction.
//
// `Crc32::update` picks per slice by length; see `clmul::FOLD_MIN`.

/// IEEE CRC32 tables for slicing-by-16, built at compile time.
/// `CRC32_TABLES[0]` is the classic byte table; `CRC32_TABLES[k][b]` is the
/// register contribution of byte `b` followed by `k` zero bytes.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// The byte-at-a-time kernel.
fn crc32_bytewise(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The little-endian word at the start of `b` (at least 4 bytes).
#[inline(always)]
fn le_word(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// The register contribution of the four bytes of `w` followed by `k`
/// zero bytes: one slicing step's lookups for one word.
#[inline(always)]
fn slice_lane(w: u32, k: usize) -> u32 {
    let t = &CRC32_TABLES;
    t[k + 3][(w & 0xFF) as usize]
        ^ t[k + 2][((w >> 8) & 0xFF) as usize]
        ^ t[k + 1][((w >> 16) & 0xFF) as usize]
        ^ t[k][(w >> 24) as usize]
}

/// The slicing-by-8 kernel: eight independent lookups per 8-byte block,
/// then one slicing-by-4 step when 4 B or more are left, then the byte
/// table for the rest (at most 3 B).
fn crc32_slicing8(mut c: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        c = slice_lane(le_word(b) ^ c, 4) ^ slice_lane(le_word(&b[4..]), 0);
    }
    let mut rest = blocks.remainder();
    if rest.len() >= 4 {
        c = slice_lane(le_word(rest) ^ c, 0);
        rest = &rest[4..];
    }
    crc32_bytewise(c, rest)
}

/// The slicing-by-16 kernel: sixteen independent lookups per 16-byte
/// block, the tail (< 16 B) through slicing-by-8.
fn crc32_slicing16(mut c: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        c = slice_lane(le_word(b) ^ c, 12)
            ^ slice_lane(le_word(&b[4..]), 8)
            ^ slice_lane(le_word(&b[8..]), 4)
            ^ slice_lane(le_word(&b[12..]), 0);
    }
    crc32_slicing8(c, blocks.remainder())
}

/// Advance the raw register over `data` with the fastest kernel this CPU
/// and this length allow.
#[inline]
fn crc32_update(c: u32, data: &[u8]) -> u32 {
    if data.len() < 16 {
        return crc32_slicing8(c, data);
    }
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::FOLD_MIN {
        if let Some(clmul) = clmul::Clmul::detect() {
            let (head, tail) = data.split_at(data.len() & !15);
            return crc32_slicing8(clmul.fold(c, head), tail);
        }
    }
    crc32_slicing16(c, data)
}

/// Carry-less-multiply CRC32 folding ("Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ", Intel 2009; the reflected IEEE constants
/// zlib and Chromium use). The only `unsafe` in this crate lives here.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Slices at least this long are folded when the CPU can; shorter ones
    /// go through slicing-by-16. The four-lane fold needs 64 B to start,
    /// and a sweep over 16–256 B puts it ahead from there on (64 B: 5 ns
    /// against 18 for slicing-by-16; a 38 B frame takes 15 ns, 56 with the
    /// byte table alone), so the threshold is that minimum.
    pub(super) const FOLD_MIN: usize = 64;

    /// Proof that this CPU has PCLMULQDQ: only [`Clmul::detect`] makes one.
    #[derive(Clone, Copy)]
    pub(super) struct Clmul(());

    impl Clmul {
        /// `Some` iff the CPU supports PCLMULQDQ (the answer is cached by
        /// std after the first call).
        #[inline]
        pub(super) fn detect() -> Option<Clmul> {
            is_x86_feature_detected!("pclmulqdq").then_some(Clmul(()))
        }

        /// Advance the raw register `crc` over `data`, whose length must
        /// be a multiple of 16 and at least 64.
        #[inline]
        pub(super) fn fold(self, crc: u32, data: &[u8]) -> u32 {
            assert!(data.len() >= FOLD_MIN && data.len() & 15 == 0, "clmul fold needs 16k >= 64 B");
            // SAFETY: `fold_pclmulqdq` needs PCLMULQDQ (and SSE2, which
            // every x86_64 CPU has); `self` exists only because `detect`
            // saw PCLMULQDQ on this CPU.
            unsafe { fold_pclmulqdq(crc, data) }
        }
    }

    /// Unaligned 16-byte load; the array type proves the 16 bytes exist.
    #[inline(always)]
    fn load(b: &[u8]) -> __m128i {
        let b: &[u8; 16] = b.try_into().expect("16-byte block");
        // SAFETY: `b` is a live reference to 16 readable bytes and
        // `_mm_loadu_si128` has no alignment requirement (SSE2 is part
        // of the x86_64 baseline).
        unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
    }

    // SAFETY: callers must have detected PCLMULQDQ; the only caller is
    // `Clmul::fold`, reachable only through a `Clmul` from `detect`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_pclmulqdq(crc: u32, data: &[u8]) -> u32 {
        // x^(k) mod P(x) constants, bit-reflected, low qword first.
        let k1k2 = _mm_set_epi64x(0x01_c6e4_1596, 0x01_5444_2bd4); // 4x128 fold
        let k3k4 = _mm_set_epi64x(0x00_ccaa_009e, 0x01_7519_97d0); // 1x128 fold
        let k5 = _mm_set_epi64x(0, 0x01_63cd_6124); // 64 -> 32 bits
        let poly = _mm_set_epi64x(0x01_f701_1641, 0x01_db71_0641); // mu, P(x)
        let low32 = _mm_set_epi32(0, -1, 0, -1);

        // a.lo * k.lo ^ a.hi * k.hi ^ b: fold `a` 128 bits forward onto `b`.
        let step = |a: __m128i, k: __m128i, b: __m128i| {
            _mm_xor_si128(
                _mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00), _mm_clmulepi64_si128(a, k, 0x11)),
                b,
            )
        };

        let mut blocks = data.chunks_exact(64);
        let first = blocks.next().expect("at least 64 bytes");
        let mut x = [
            _mm_xor_si128(load(&first[..16]), _mm_cvtsi32_si128(crc as i32)),
            load(&first[16..32]),
            load(&first[32..48]),
            load(&first[48..]),
        ];
        for b in &mut blocks {
            for (i, lane) in x.iter_mut().enumerate() {
                *lane = step(*lane, k1k2, load(&b[16 * i..16 * i + 16]));
            }
        }
        let mut acc = step(step(step(x[0], k3k4, x[1]), k3k4, x[2]), k3k4, x[3]);
        for b in blocks.remainder().chunks_exact(16) {
            acc = step(acc, k3k4, load(b));
        }

        // 128 -> 64 bits.
        let acc = _mm_xor_si128(_mm_srli_si128(acc, 8), _mm_clmulepi64_si128(acc, k3k4, 0x10));
        // 64 -> 32 bits.
        let acc = _mm_xor_si128(
            _mm_srli_si128(acc, 4),
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00),
        );
        // Barrett reduction to the 32-bit register.
        let t = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), poly, 0x10);
        let t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
        _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(acc, t), 4)) as u32
    }
}

/// Streaming IEEE CRC32 digest. Feed it the encoded frame in as many
/// slices as the writer holds ([`Writer::chunks`]): the checksum covers
/// control runs *and* shared value segments without assembling them — the
/// integrity check rides the same vectored path as the bytes themselves.
///
/// Each [`update`](Crc32::update) runs the fastest kernel for its slice:
/// carry-less-multiply folding for slices of 64 B and more on x86_64 CPUs
/// with PCLMULQDQ (detected at run time), slicing-by-16 otherwise, and
/// slicing-by-8 for what is left under 16 B. All three compute the same
/// polynomial, so the checksum's bits never depend on the CPU or on how a
/// buffer is split across calls.
#[derive(Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// Fresh digest.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Absorb a slice.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        self.0 = crc32_update(self.0, data);
    }

    /// Final checksum value.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// IEEE CRC32 (reflected polynomial 0xEDB88320) of a contiguous buffer:
/// the checksum in every wire frame, WAL record and snapshot. Runs at
/// memory speed on long buffers; see [`Crc32`] for the kernels.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// Each CRC32 kernel on its own, for tests that pin them to the byte-table
/// reference. Each returns `crc32(data)` computed by that kernel alone.
#[doc(hidden)]
pub mod crc32_kernels {
    /// The byte-at-a-time table (the reference).
    pub fn reference(data: &[u8]) -> u32 {
        !super::crc32_bytewise(!0, data)
    }

    /// Slicing-by-8 over the whole slice (8 B steps, one 4 B step, the
    /// last 3 B at most byte by byte).
    pub fn slicing8(data: &[u8]) -> u32 {
        !super::crc32_slicing8(!0, data)
    }

    /// Slicing-by-16 (the tail under 16 B through slicing-by-8).
    pub fn slicing16(data: &[u8]) -> u32 {
        !super::crc32_slicing16(!0, data)
    }

    /// Carry-less-multiply folding over the longest multiple of 16 B (when
    /// at least 64 B), the rest through slicing-by-8; `None` when the CPU
    /// lacks PCLMULQDQ.
    pub fn fold(data: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if let Some(clmul) = super::clmul::Clmul::detect() {
            let (head, tail) = data.split_at(data.len() & !15);
            let c = if head.len() >= 64 {
                clmul.fold(!0, head)
            } else {
                super::crc32_slicing8(!0, head)
            };
            return Some(!super::crc32_slicing8(c, tail));
        }
        let _ = data;
        None
    }
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

    /// Reserve room for at least `additional` more control bytes. A writer
    /// short by more than its size grows to exactly that — a fresh writer
    /// that reserves its message's size allocates it once, with no slack;
    /// a reused one grows by doubling, so a connection's growing frames
    /// reallocate O(log size) times.
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
    /// Zero-copy when no value segments were appended (every value at most
    /// [`INLINE_VALUE_MAX`] bytes, as in requests and in most small-valued
    /// frames); otherwise assembles once, copying every segment.
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
        self.chunks_from(0, 0)
    }

    /// [`chunks`](Writer::chunks) from control offset `from` on, where
    /// `first` is the number of chunks recorded when `from` was written: a
    /// control run recorded since may begin before `from`, and is clipped.
    fn chunks_from(&self, from: usize, first: usize) -> impl Iterator<Item = &[u8]> {
        let tail = &self.ctl[self.mark.max(from)..self.pos];
        self.chunks[first..]
            .iter()
            .map(move |chunk| match chunk {
                Chunk::Ctl(r) => &self.ctl[r.start.max(from)..r.end],
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
            self.segment(v);
        }
    }

    /// Write one frame in place: `N` header bytes, then the body `body`
    /// encodes, then the header `header` makes of the body's length and
    /// CRC32 written over the first `N` bytes. The checksum streams over
    /// the body where it lies, large values included, so a queue of frames
    /// is built with no per-frame buffer and no copy.
    pub fn framed<const N: usize>(
        &mut self,
        body: impl FnOnce(&mut Writer),
        header: impl FnOnce(usize, u32) -> [u8; N],
    ) {
        let at = self.claim(N);
        let (len, first) = (self.len(), self.chunks.len());
        body(self);
        let mut crc = Crc32::new();
        self.chunks_from(at + N, first).for_each(|chunk| crc.update(chunk));
        let h = header(self.len() - len, crc.finish());
        self.ctl[at..at + N].copy_from_slice(&h);
    }

    /// Record `v` as a shared segment after the control bytes so far.
    fn segment(&mut self, v: &Bytes) {
        if self.mark < self.pos {
            self.chunks.push(Chunk::Ctl(self.mark..self.pos));
            self.mark = self.pos;
        }
        self.chunks.push(Chunk::Val(v.clone()));
        self.val_bytes += v.len();
    }
}

/// Zero-copy input cursor with primitive readers.
///
/// Constructed over a plain slice ([`Reader::new`]) or over a shared
/// frame ([`Reader::shared`]); in the latter mode, [`Reader::value`]
/// yields sub-views of the frame instead of copies, so decoding a
/// received message never duplicates payload bytes.
#[derive(Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    backing: Option<&'a Bytes>,
    /// Copy values of at most [`INLINE_VALUE_MAX`] bytes out of a shared
    /// frame instead of aliasing it ([`Reader::copying_small`]).
    copy_small: bool,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0, backing: None, copy_small: false }
    }

    /// Wrap a shared frame; values decode as zero-copy sub-views of it.
    pub fn shared(frame: &'a Bytes) -> Reader<'a> {
        Reader { buf: frame, pos: 0, backing: Some(frame), copy_small: false }
    }

    /// This reader, except that values of at most [`INLINE_VALUE_MAX`]
    /// bytes are copied even out of a shared frame. For state decoded to be
    /// kept: it then aliases the frame only through its large values, so a
    /// few small ones cannot pin a large frame.
    pub fn copying_small(self) -> Reader<'a> {
        Reader { copy_small: true, ..self }
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

    /// Skip `n` bytes.
    #[inline]
    pub fn skip(&mut self, n: usize) -> Result<()> {
        self.take(n).map(drop)
    }

    /// Read a length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Read a length-prefixed value payload. Zero-copy (a sub-view of the
    /// frame) when the reader was built with [`Reader::shared`], unless
    /// [`copying_small`](Reader::copying_small) applies; a copy otherwise.
    pub fn value(&mut self) -> Result<Bytes> {
        let len = self.u32()? as usize;
        let start = self.pos;
        let slice = self.take(len)?;
        Ok(match self.backing {
            Some(frame) if !self.copy_small || len > INLINE_VALUE_MAX => {
                frame.slice(start..start + len)
            }
            _ => Bytes::copy_from_slice(slice),
        })
    }
}

fn decode_err(msg: impl Into<String>) -> Error {
    Error::Network(format!("decode: {}", msg.into()))
}

// --- version vectors ------------------------------------------------------

/// Encode a version vector, or a stored IVV row (bulk entry write).
#[inline]
pub fn put_vv(w: &mut Writer, vv: &[u64]) {
    w.u16(vv.len() as u16);
    w.u64_slice(vv);
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

/// Encode a whole propagation payload — the body of a pull response and of
/// a journaled propagation alike. Its exact control length is reserved
/// first, so a many-item payload is encoded into one allocation of its
/// own size. Each tail is written through one claimed window (12 bytes per
/// record, no per-field length checks).
pub fn put_payload(w: &mut Writer, p: &PropagationPayload) {
    w.reserve(payload_control_len(p));
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

/// Control bytes [`put_payload`] writes: per tail 4 + 12·len, per item
/// 4 + 2 + 8n + 4 plus the value when it is inlined (large values are
/// shared segments, not control bytes).
fn payload_control_len(p: &PropagationPayload) -> usize {
    let tails: usize = p.tails.iter().map(|t| 4 + 12 * t.len()).sum();
    let items: usize = p
        .items
        .iter()
        .map(|s| {
            let inline = if s.value.len() <= INLINE_VALUE_MAX { s.value.len() } else { 0 };
            4 + 2 + 8 * s.ivv.len() + 4 + inline
        })
        .sum();
    2 + tails + 4 + items
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
// Request tags 5 and 6 are retired: they carried a multi-database
// envelope that no longer exists. Never reuse them — a frame from an old
// peer must fail to decode, not decode as something else.
const REQ_SHARD: u8 = 7;
const REQ_RECON: u8 = 8;
const REQ_FULL_PULL: u8 = 9;

const RESP_PULL: u8 = 1;
const RESP_DELTA_OFFER: u8 = 2;
const RESP_DELTA_PAYLOAD: u8 = 3;
const RESP_OOB: u8 = 4;
// Response tags 5 and 6 are retired, as on the request side: never reuse
// them.
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

// The route-target byte of a `REFUSED_NOT_SERVED` refusal. A shard is the
// only target left; its value stays 1 so refusal frames keep their bytes
// (0 was the retired database target and must not come back).
const TARGET_SHARD: u8 = 1;

/// One level of routing is legal (a [`ProtocolRequest::Shard`] envelope
/// around a replica-level message); deeper nesting is rejected.
const MAX_ROUTE_DEPTH: u8 = 1;

fn put_string(w: &mut Writer, s: &str) {
    w.bytes(s.as_bytes());
}

fn get_string(r: &mut Reader<'_>) -> Result<String> {
    // Validate in place, copy once — nothing is allocated for rejected
    // input. Strings appear O(1) times per frame (error text), never per
    // item, so this is off the small-message fast path.
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
        Error::NotServedHere { shard, owners } => {
            w.u8(REFUSED_NOT_SERVED);
            w.u8(TARGET_SHARD);
            w.u16(shard.0);
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
            let target = r.u8()?;
            if target != TARGET_SHARD {
                return Err(decode_err(format!("unknown route target tag {target}")));
            }
            let shard = ShardId(r.u16()?);
            let n = r.u16()? as usize;
            let mut owners = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                owners.push(NodeId(r.u16()?));
            }
            Ok(Error::NotServedHere { shard, owners })
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
            ProtocolResponse::Error("remote failure".into()),
            ProtocolResponse::Shard {
                shard: ShardId(7),
                resp: Box::new(ProtocolResponse::Pull(PropagationResponse::YouAreCurrent)),
            },
            ProtocolResponse::Refused(Error::NotServedHere {
                shard: ShardId(2),
                owners: vec![NodeId(1), NodeId(3)],
            }),
            ProtocolResponse::Refused(Error::NotServedHere { shard: ShardId(0), owners: vec![] }),
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

    /// `Shard { shard: outer, Shard { shard: inner, req } }`.
    fn doubly_routed(outer: u16, inner: u16, req: ProtocolRequest) -> ProtocolRequest {
        let inner = ProtocolRequest::Shard { shard: ShardId(inner), req: Box::new(req) };
        ProtocolRequest::Shard { shard: ShardId(outer), req: Box::new(inner) }
    }

    #[test]
    fn nested_shard_routing_rejected() {
        let oob = ProtocolRequest::Oob { from: NodeId(0), item: ItemId(3) };
        assert!(decode_request(&encode_request(&doubly_routed(0, 1, oob))).is_err());
        // The same shard twice is no better: one routing hop total,
        // whatever the ids.
        let pull = ProtocolRequest::Pull { from: NodeId(1), dbvv: DbVersionVector::zero(2) };
        assert!(decode_request(&encode_request(&doubly_routed(2, 2, pull))).is_err());
        // And on the response side.
        let inner = ProtocolResponse::Shard {
            shard: ShardId(1),
            resp: Box::new(ProtocolResponse::Pull(PropagationResponse::YouAreCurrent)),
        };
        let resp = ProtocolResponse::Shard { shard: ShardId(0), resp: Box::new(inner) };
        assert!(decode_response(&encode_response(&resp)).is_err());
    }

    #[test]
    fn shard_frames_keep_their_bytes() {
        // A shard-routed OOB request: version, REQ_SHARD, shard (u16 LE),
        // REQ_OOB, from (u16 LE), item (u32 LE).
        let req = ProtocolRequest::Shard {
            shard: ShardId(3),
            req: Box::new(ProtocolRequest::Oob { from: NodeId(2), item: ItemId(5) }),
        };
        assert_eq!(encode_request(&req), [1, 7, 3, 0, 4, 2, 0, 5, 0, 0, 0]);
        // A redirect: version, RESP_REFUSED, REFUSED_NOT_SERVED, the
        // route-target byte (still 1, the shard target), shard (u16 LE),
        // owner count (u16 LE), owners.
        let refusal = ProtocolResponse::Refused(Error::NotServedHere {
            shard: ShardId(1),
            owners: vec![NodeId(2)],
        });
        assert_eq!(encode_response(&refusal), [1, 9, 0, 1, 1, 0, 1, 0, 2, 0]);
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
            shard: ShardId(1),
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
    fn framed_checksums_the_body_in_place() {
        // Frames around and after shared value segments, in a writer that
        // already holds bytes: each is the header of its body's length and
        // CRC, then the body, exactly as framing the assembled body gives.
        let header = |len: usize, crc: u32| {
            let mut h = [0u8; 8];
            h[..4].copy_from_slice(&(len as u32).to_le_bytes());
            h[4..].copy_from_slice(&crc.to_le_bytes());
            h
        };
        let (large, small) = (Bytes::from(vec![5u8; 4096]), Bytes::from(vec![6u8; 100]));
        let mut queue = Writer::new();
        queue.raw(&[7; 300]);
        let mut want = vec![7; 300];
        for round in 0..3u8 {
            let body = |w: &mut Writer| {
                w.u8(round);
                w.value(&large);
                w.u32(round.into());
                w.value(&small);
            };
            queue.framed(body, header);
            queue.framed(|w| w.u32(round.into()), header);
            let mut alone = Writer::new();
            body(&mut alone);
            for body in [alone.into_bytes(), u32::from(round).to_le_bytes().to_vec()] {
                want.extend_from_slice(&header(body.len(), crc32(&body)));
                want.extend_from_slice(&body);
            }
        }
        assert!(queue.chunks().count() >= 6, "must actually exercise segmented output");
        assert_eq!(queue.len(), want.len());
        assert_eq!(queue.into_bytes(), want);
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
        // A redirect naming route target 0, the retired database target.
        let mut buf = encode_response(&ProtocolResponse::Refused(Error::NotServedHere {
            shard: ShardId(1),
            owners: vec![],
        }));
        buf[3] = 0;
        assert!(decode_response(&buf).is_err());
    }
}
