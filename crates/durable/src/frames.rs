//! The on-disk frame format shared by the WAL and the snapshot file:
//! `len: u32 LE | crc: u32 LE | body`, the PR 4 checked-envelope layout.
//!
//! Framing decides what a reader may trust. Length and CRC checks classify
//! every possible tail state of an append-only file: a frame that fails
//! them is a torn write (clean truncation point); a frame that passes them
//! but fails to decode is genuine corruption (typed error, never silent).

use std::io::{self, ErrorKind, IoSlice, Write};

use bytes::Bytes;
use epidb_core::codec::{crc32, Crc32, Writer};
use epidb_core::Replica;

/// Bytes of frame header preceding each body (`len` + `crc`).
pub const WAL_FRAME_HEADER: usize = 8;

/// Upper bound on a single frame body; anything larger is treated as a
/// torn/garbage length rather than an allocation request.
pub const MAX_FRAME_BODY: usize = 64 << 20;

fn frame_header(len: usize, crc: u32) -> [u8; WAL_FRAME_HEADER] {
    let mut h = [0u8; WAL_FRAME_HEADER];
    h[..4].copy_from_slice(&(len as u32).to_le_bytes());
    h[4..].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Frame `body` for appending to a WAL or snapshot file.
pub fn write_frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_FRAME_HEADER + body.len());
    out.extend_from_slice(&frame_header(body.len(), crc32(body)));
    out.extend_from_slice(body);
    out
}

/// Append one frame to `w`: a header, then the body `body` encodes,
/// checksummed where it lies and the header patched in after it. What `w`
/// gains is byte for byte `write_frame` of the body on its own; values
/// above `INLINE_VALUE_MAX` stay shared segments. Returns the frame's length.
pub(crate) fn put_frame(w: &mut Writer, body: impl FnOnce(&mut Writer)) -> usize {
    let before = w.len();
    w.framed(body, frame_header);
    w.len() - before
}

/// Slices handed to one `write_vectored` call: enough for a batch of
/// small records in one call, small enough to live on the stack.
const IOV_BATCH: usize = 64;

/// Write everything `w` holds, in order, with vectored writes that resume
/// after short ones. The slices are gathered on the stack, `IOV_BATCH` at
/// a time, so writing allocates nothing.
pub(crate) fn write_chunks(out: &mut impl Write, w: &Writer) -> io::Result<()> {
    let mut chunks = w.chunks();
    let mut slices = [IoSlice::new(&[]); IOV_BATCH];
    loop {
        let mut n = 0;
        for (slot, chunk) in slices.iter_mut().zip(chunks.by_ref()) {
            *slot = IoSlice::new(chunk);
            n += 1;
        }
        if n == 0 {
            return Ok(());
        }
        let mut rest = &mut slices[..n];
        while !rest.is_empty() {
            match out.write_vectored(rest) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(written) => IoSlice::advance_slices(&mut rest, written),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Stream `replica`'s snapshot into `out` as one frame, without ever
/// holding it whole: an all-zero placeholder header first, then the body
/// piece by piece ([`Replica::write_snapshot`]) under a running CRC.
/// Returns the real header, which the caller writes over the placeholder
/// (at offset 0) to make the output byte for byte
/// `write_frame(&replica.to_snapshot())`.
pub(crate) fn stream_snapshot(
    out: &mut impl Write,
    replica: &Replica,
) -> io::Result<[u8; WAL_FRAME_HEADER]> {
    out.write_all(&[0; WAL_FRAME_HEADER])?;
    let (mut len, mut crc) = (0, Crc32::new());
    replica.write_snapshot(|piece| {
        len += piece.len();
        piece.chunks().for_each(|chunk| crc.update(chunk));
        write_chunks(out, piece)
    })?;
    Ok(frame_header(len, crc.finish()))
}

/// The result of scanning a frame sequence from byte 0.
#[derive(Debug)]
pub struct FrameScan {
    /// Every frame body that passed its length and CRC checks, in order.
    /// Sub-views of the scanned buffer (refcount bumps, not copies).
    pub bodies: Vec<Bytes>,
    /// Byte length of the valid prefix; everything past it is a torn tail.
    pub valid_len: usize,
    /// Bytes past the valid prefix (0 for a cleanly closed file).
    pub torn_bytes: usize,
}

/// Scan `buf` as a sequence of frames, stopping at the first frame that
/// fails its length or CRC check (the torn-tail rule). Never errors and
/// never panics: any truncation of a valid file produces a valid prefix.
pub fn read_frames(buf: &Bytes) -> FrameScan {
    let mut bodies = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = buf.len() - pos;
        if rest < WAL_FRAME_HEADER {
            break;
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > MAX_FRAME_BODY || rest - WAL_FRAME_HEADER < len {
            break; // torn or garbage length
        }
        let body_start = pos + WAL_FRAME_HEADER;
        let body = &buf[body_start..body_start + len];
        if crc32(body) != crc {
            break; // torn or corrupt body
        }
        bodies.push(buf.slice(body_start..body_start + len));
        pos = body_start + len;
    }
    FrameScan { bodies, valid_len: pos, torn_bytes: buf.len() - pos }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_every_truncation_is_a_valid_prefix() {
        let mut file = Vec::new();
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 3 + i as usize * 7]).collect();
        let mut frame_ends = vec![0usize];
        for p in &payloads {
            file.extend_from_slice(&write_frame(p));
            frame_ends.push(file.len());
        }

        // Full file: all frames back, no torn bytes.
        let scan = read_frames(&Bytes::from(file.clone()));
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.valid_len, file.len());
        assert_eq!(scan.bodies.len(), payloads.len());
        for (body, p) in scan.bodies.iter().zip(&payloads) {
            assert_eq!(&body[..], &p[..]);
        }

        // Every possible truncation point: the scan recovers exactly the
        // frames wholly contained in the prefix.
        for cut in 0..=file.len() {
            let scan = read_frames(&Bytes::from(file[..cut].to_vec()));
            let complete = frame_ends.iter().filter(|&&e| e <= cut).count() - 1;
            assert_eq!(scan.bodies.len(), complete, "cut at {cut}");
            assert_eq!(scan.valid_len, frame_ends[complete], "cut at {cut}");
            assert_eq!(scan.torn_bytes, cut - frame_ends[complete]);
        }
    }

    #[test]
    fn corrupt_interior_frame_truncates_there() {
        let mut file = Vec::new();
        for i in 0..3u8 {
            file.extend_from_slice(&write_frame(&[i; 16]));
        }
        let first_end = WAL_FRAME_HEADER + 16;
        file[first_end + WAL_FRAME_HEADER + 3] ^= 0xFF; // flip a bit in frame 2's body
        let scan = read_frames(&Bytes::from(file));
        assert_eq!(scan.bodies.len(), 1);
        assert_eq!(scan.valid_len, first_end);
    }

    /// A sink that takes at most `max` bytes per call and is interrupted
    /// every third call.
    struct Trickle {
        out: Vec<u8>,
        max: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.max);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn chunked_writes_resume_across_slice_batches() {
        // Three slice batches' worth of control runs and shared values,
        // written whole and through short, interrupted writes.
        let mut w = Writer::new();
        for i in 0..(IOV_BATCH * 2 + 7) {
            w.u32(i as u32);
            w.value(&Bytes::from(vec![i as u8; 129 + i % 5]));
        }
        assert!(w.chunks().count() > 2 * IOV_BATCH);
        let mut whole = Vec::new();
        write_chunks(&mut whole, &w).unwrap();
        let mut trickle = Trickle { out: Vec::new(), max: 100, calls: 0 };
        write_chunks(&mut trickle, &w).unwrap();
        let want = w.into_bytes();
        assert_eq!(whole, want);
        assert_eq!(trickle.out, want);
    }

    #[test]
    fn garbage_length_does_not_allocate_or_panic() {
        let mut file = write_frame(b"ok");
        file.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        file.extend_from_slice(&[0xAA; 12]);
        let scan = read_frames(&Bytes::from(file));
        assert_eq!(scan.bodies.len(), 1);
    }
}
