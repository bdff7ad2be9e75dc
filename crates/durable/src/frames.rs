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

/// The frame header for the body `w` holds, checksummed chunk by chunk
/// without assembling it. Followed by `w.chunks()`, it is byte for byte
/// `write_frame(&w.into_bytes())`.
pub(crate) fn writer_frame_header(w: &Writer) -> [u8; WAL_FRAME_HEADER] {
    frame_header(w.len(), w.crc32())
}

/// Write everything `w` holds, in order, with vectored writes that resume
/// after short ones.
pub(crate) fn write_chunks(out: &mut impl Write, w: &Writer) -> io::Result<()> {
    let mut slices: Vec<IoSlice<'_>> = w.chunks().map(IoSlice::new).collect();
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match out.write_vectored(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
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

    #[test]
    fn garbage_length_does_not_allocate_or_panic() {
        let mut file = write_frame(b"ok");
        file.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        file.extend_from_slice(&[0xAA; 12]);
        let scan = read_frames(&Bytes::from(file));
        assert_eq!(scan.bodies.len(), 1);
    }
}
