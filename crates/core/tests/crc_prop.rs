//! Property tests for the CRC32 kernels: slicing-by-8, slicing-by-16 and
//! carry-less-multiply folding compute the byte table's bits at every
//! length, start offset and split across `update` calls; the segment-aware `Writer`
//! checksum equals the checksum of its assembled bytes; and a checked frame
//! still turns every single-bit flip and every short burst into
//! `CorruptFrame`.

use bytes::Bytes;
use epidb_common::Error;
use epidb_core::codec::{crc32, crc32_kernels, verify_checked_frame, Crc32, Writer};
use proptest::prelude::*;

/// Deterministic pseudo-random bytes (xorshift64*): cheap enough to build
/// 70 KiB buffers per case in a debug build.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

/// Lengths biased toward the kernels' edges (16-byte blocks, the 64 B fold
/// threshold) with a long-tail up to 70 KiB.
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        2 => 0usize..300,
        1 => 0usize..70 * 1024 + 1,
    ]
}

fn check_all_kernels(data: &[u8]) {
    let want = crc32_kernels::reference(data);
    assert_eq!(crc32_kernels::slicing8(data), want, "slicing-by-8, {} B", data.len());
    assert_eq!(crc32_kernels::slicing16(data), want, "slicing-by-16, {} B", data.len());
    if let Some(got) = crc32_kernels::fold(data) {
        assert_eq!(got, want, "clmul fold, {} B", data.len());
    }
    assert_eq!(crc32(data), want, "dispatching crc32, {} B", data.len());
}

#[test]
fn kernels_match_known_vectors() {
    for data in [&b""[..], b"a", b"123456789", b"The quick brown fox jumps over the lazy dog"] {
        check_all_kernels(data);
    }
    assert_eq!(crc32_kernels::reference(b"123456789"), 0xCBF4_3926);
    assert_eq!(
        crc32_kernels::reference(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
}

#[test]
fn every_length_up_to_1k_at_every_offset() {
    let buf = noise(7, 1024 + 16);
    for offset in 0..16 {
        for len in 0..=1024 {
            check_all_kernels(&buf[offset..offset + len]);
        }
    }
}

#[test]
fn every_length_to_96_through_each_path() {
    // Whole slices under 16 B, and the remainders slicing-by-16 and the
    // fold leave, all run slicing-by-8's 8 B and 4 B steps: every length
    // up to 96 B, whole and split at every point across two updates.
    let buf = noise(11, 96);
    for len in 0..=96 {
        let data = &buf[..len];
        check_all_kernels(data);
        let want = crc32_kernels::reference(data);
        for at in 0..=len {
            let mut c = Crc32::new();
            c.update(&data[..at]);
            c.update(&data[at..]);
            assert_eq!(c.finish(), want, "{len} B split at {at}");
        }
    }
}

proptest! {
    #[test]
    fn kernels_equal_reference(len in arb_len(), offset in 0usize..16, seed in any::<u64>()) {
        let buf = noise(seed, offset + len);
        check_all_kernels(&buf[offset..]);
    }

    /// One buffer fed to `Crc32::update` in arbitrary pieces — short pieces
    /// (under the fold threshold) interleaved with long ones — must give
    /// the one-shot checksum.
    #[test]
    fn splits_across_updates_do_not_change_the_checksum(
        len in arb_len(),
        seed in any::<u64>(),
        pieces in prop::collection::vec(prop_oneof![3 => 0usize..64, 1 => 64usize..4096], 1..24),
    ) {
        let buf = noise(seed, len);
        let mut c = Crc32::new();
        let mut rest = &buf[..];
        for want in pieces {
            let (head, tail) = rest.split_at(want.min(rest.len()));
            c.update(head);
            rest = tail;
        }
        c.update(rest);
        prop_assert_eq!(c.finish(), crc32_kernels::reference(&buf));
    }

    /// The writer's streamed checksum (control runs and shared value
    /// segments, chunk by chunk) equals the checksum of its assembled
    /// bytes, for writers mixing inline (<= 128 B) and segment
    /// (129 B ... 16 KiB) values.
    #[test]
    fn writer_crc_equals_crc_of_assembled_bytes(
        values in prop::collection::vec(
            (prop_oneof![1 => 0usize..129, 1 => 129usize..16 * 1024 + 1], any::<u64>()),
            0..12,
        ),
        ctl in any::<u32>(),
    ) {
        let mut w = Writer::new();
        for (len, seed) in values {
            w.u32(ctl);
            w.value(&Bytes::from(noise(seed, len)));
            w.u8(len as u8);
        }
        let streamed = w.crc32();
        prop_assert_eq!(streamed, crc32_kernels::reference(&w.into_bytes()));
    }
}

/// A checked frame with a 1 KiB body: `crc32 (u32 LE) | body`.
fn checked_frame() -> Vec<u8> {
    let body = noise(42, 1024);
    let mut frame = crc32(&body).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    frame
}

fn flip(frame: &mut [u8], bit: usize) {
    frame[bit / 8] ^= 1 << (bit % 8);
}

fn assert_corrupt(frame: &[u8], what: &str) {
    match verify_checked_frame(frame) {
        Err(Error::CorruptFrame(_)) => {}
        other => panic!("{what}: expected CorruptFrame, got {other:?}"),
    }
}

#[test]
fn every_single_bit_flip_is_a_corrupt_frame() {
    let frame = checked_frame();
    assert!(verify_checked_frame(&frame).is_ok());
    for bit in 0..frame.len() * 8 {
        let mut bad = frame.clone();
        flip(&mut bad, bit);
        assert_corrupt(&bad, &format!("bit {bit}"));
    }
}

#[test]
fn every_burst_up_to_32_bits_is_a_corrupt_frame() {
    // A burst of length `n` flips its first and last bit and an arbitrary
    // pattern between them. Inside the body, CRC32 detects every such
    // burst by construction; inside the header it changes the stored
    // checksum. Every start bit and every length is tried, with a fresh
    // interior pattern each time.
    let frame = checked_frame();
    let bits = frame.len() * 8;
    let pattern = noise(9, bits * 32 * 4);
    let mut draws = pattern.chunks_exact(4);
    for start in 0..bits {
        for n in 1..=32.min(bits - start) {
            let interior = u32::from_le_bytes(draws.next().expect("pattern").try_into().unwrap());
            let mut bad = frame.clone();
            for k in 0..n {
                if k == 0 || k == n - 1 || interior >> k & 1 == 1 {
                    flip(&mut bad, start + k);
                }
            }
            assert_corrupt(&bad, &format!("burst of {n} bits at bit {start}"));
        }
    }
}
