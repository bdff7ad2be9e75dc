//! Property tests for the wire codec: arbitrary engine requests and
//! responses round-trip, truncated buffers are rejected, and arbitrary
//! byte soup never panics the decoder.

use bytes::Bytes;
use epidb_common::{Error, ItemId, NodeId, ShardId};
use epidb_core::codec::{
    crc32, decode_request, decode_response, encode_request, encode_response, get_op, get_payload,
    get_vv, put_op, put_payload, put_vv, Reader, Writer, CODEC_VERSION,
};
use epidb_core::{
    CachedOp, DeltaItem, DeltaOffer, DeltaOfferResponse, DeltaPayload, DeltaRequest, FullPullReply,
    OobReply, PropagationPayload, PropagationResponse, ProtocolRequest, ProtocolResponse,
    ReconItem, ReconReply, ShippedItem,
};
use epidb_log::LogRecord;
use epidb_store::UpdateOp;
use epidb_vv::{DbVersionVector, VersionVector};
use proptest::prelude::*;

fn arb_vv() -> impl Strategy<Value = VersionVector> {
    prop::collection::vec(any::<u64>(), 1..8).prop_map(VersionVector::from_entries)
}

fn arb_dbvv() -> impl Strategy<Value = DbVersionVector> {
    arb_vv().prop_map(DbVersionVector::from_vector)
}

/// The vendored proptest has no `String` strategy; build names from ASCII.
fn arb_name() -> impl Strategy<Value = String> {
    prop::collection::vec(0x61u8..0x7Bu8, 0..12).prop_map(|b| String::from_utf8(b).expect("ascii"))
}

fn arb_op() -> impl Strategy<Value = UpdateOp> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..64).prop_map(|d| UpdateOp::Set(Bytes::from(d))),
        (any::<u16>(), prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(o, d)| {
            UpdateOp::WriteRange { offset: o as usize, data: Bytes::from(d) }
        }),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(|d| UpdateOp::Append(Bytes::from(d))),
    ]
}

/// Tail vectors, deliberately including empty per-origin tails and the
/// all-empty case (the `D = ∅` "you are current by tails" shape).
fn arb_tails() -> impl Strategy<Value = Vec<Vec<LogRecord>>> {
    prop::collection::vec(
        prop::collection::vec(
            (any::<u32>(), any::<u64>()).prop_map(|(i, m)| LogRecord { item: ItemId(i), m }),
            0..6,
        ),
        1..5,
    )
}

fn arb_shipped() -> impl Strategy<Value = ShippedItem> {
    (any::<u32>(), arb_vv(), prop::collection::vec(any::<u8>(), 0..64))
        .prop_map(|(i, ivv, v)| ShippedItem { item: ItemId(i), ivv, value: Bytes::from(v) })
}

fn arb_payload() -> impl Strategy<Value = PropagationPayload> {
    (arb_tails(), prop::collection::vec(arb_shipped(), 0..5))
        .prop_map(|(tails, items)| PropagationPayload { tails, items })
}

fn arb_cached_op() -> impl Strategy<Value = CachedOp> {
    (arb_vv(), arb_op()).prop_map(|(pre_vv, op)| CachedOp { pre_vv, op })
}

fn arb_delta_item() -> impl Strategy<Value = DeltaItem> {
    prop_oneof![
        (any::<u32>(), prop::collection::vec(arb_cached_op(), 0..4), arb_vv()).prop_map(
            |(item, ops, final_ivv)| DeltaItem::Ops { item: ItemId(item), ops, final_ivv },
        ),
        arb_shipped().prop_map(DeltaItem::Whole),
    ]
}

fn arb_recon_item() -> impl Strategy<Value = ReconItem> {
    (
        any::<u32>(),
        arb_vv(),
        prop::collection::vec(any::<u8>(), 0..64),
        prop::collection::vec((any::<u16>(), any::<u64>()), 0..4),
    )
        .prop_map(|(item, ivv, value, records)| ReconItem {
            item: ItemId(item),
            ivv,
            value: Bytes::from(value),
            records: records.into_iter().map(|(k, m)| (NodeId(k), m)).collect(),
        })
}

fn arb_recon_reply() -> impl Strategy<Value = ReconReply> {
    (
        prop::collection::vec((any::<u32>(), any::<u32>(), any::<u64>()), 0..6),
        prop::collection::vec(arb_recon_item(), 0..4),
        prop::collection::vec(any::<u64>(), 0..5),
        any::<u64>(),
    )
        .prop_map(|(digests, items, floor, cut)| ReconReply { digests, items, floor, cut })
}

fn arb_full_pull_reply() -> impl Strategy<Value = FullPullReply> {
    (prop::collection::vec(arb_recon_item(), 0..5), prop::collection::vec(any::<u64>(), 0..5))
        .prop_map(|(items, floor)| FullPullReply { items, floor })
}

fn arb_delta_offer() -> impl Strategy<Value = DeltaOfferResponse> {
    prop_oneof![
        Just(DeltaOfferResponse::YouAreCurrent),
        Just(DeltaOfferResponse::NeedRecon),
        (
            arb_tails(),
            prop::collection::vec((any::<u32>(), arb_vv()), 0..5)
                .prop_map(|v| v.into_iter().map(|(i, ivv)| (ItemId(i), ivv)).collect()),
        )
            .prop_map(|(tails, offers)| DeltaOfferResponse::Offer(DeltaOffer { tails, offers })),
    ]
}

fn arb_delta_request() -> impl Strategy<Value = DeltaRequest> {
    prop::collection::vec((any::<u32>(), arb_vv()), 0..5).prop_map(|v| DeltaRequest {
        wants: v.into_iter().map(|(i, ivv)| (ItemId(i), ivv)).collect(),
    })
}

fn arb_oob_reply() -> impl Strategy<Value = OobReply> {
    (any::<u32>(), arb_vv(), prop::collection::vec(any::<u8>(), 0..128), any::<bool>()).prop_map(
        |(item, ivv, value, from_aux)| OobReply {
            item: ItemId(item),
            ivv,
            value: Bytes::from(value),
            from_aux,
        },
    )
}

/// Every request variant except the routing envelope.
fn arb_flat_request() -> impl Strategy<Value = ProtocolRequest> {
    prop_oneof![
        (any::<u16>(), arb_dbvv())
            .prop_map(|(n, dbvv)| ProtocolRequest::Pull { from: NodeId(n), dbvv }),
        (any::<u16>(), arb_dbvv())
            .prop_map(|(n, dbvv)| ProtocolRequest::DeltaPull { from: NodeId(n), dbvv }),
        (any::<u16>(), arb_delta_request())
            .prop_map(|(n, wants)| ProtocolRequest::DeltaFetch { from: NodeId(n), wants }),
        (any::<u16>(), any::<u32>())
            .prop_map(|(n, i)| ProtocolRequest::Oob { from: NodeId(n), item: ItemId(i) }),
        (
            any::<u16>(),
            prop::collection::vec((any::<u32>(), any::<u32>()), 0..6),
            prop::collection::vec(any::<u32>(), 0..6),
        )
            .prop_map(|(n, ranges, fetch)| ProtocolRequest::Recon {
                from: NodeId(n),
                ranges,
                fetch: fetch.into_iter().map(ItemId).collect(),
            }),
        any::<u16>().prop_map(|n| ProtocolRequest::FullPull { from: NodeId(n) }),
    ]
}

/// Any request, including a depth-1 `Shard` routing envelope (the codec
/// rejects deeper nesting, so the strategy builds exactly one level).
fn arb_request() -> impl Strategy<Value = ProtocolRequest> {
    prop_oneof![
        3 => arb_flat_request(),
        1 => (any::<u16>(), arb_flat_request()).prop_map(|(s, req)| ProtocolRequest::Shard {
            shard: ShardId(s),
            req: Box::new(req),
        }),
    ]
}

fn arb_flat_response() -> impl Strategy<Value = ProtocolResponse> {
    prop_oneof![
        prop_oneof![
            Just(PropagationResponse::YouAreCurrent),
            Just(PropagationResponse::NeedRecon),
            arb_payload().prop_map(PropagationResponse::Payload),
        ]
        .prop_map(ProtocolResponse::Pull),
        arb_delta_offer().prop_map(ProtocolResponse::DeltaOffer),
        prop::collection::vec(arb_delta_item(), 0..4)
            .prop_map(|items| ProtocolResponse::DeltaPayload(DeltaPayload { items })),
        arb_oob_reply().prop_map(ProtocolResponse::Oob),
        arb_recon_reply().prop_map(ProtocolResponse::Recon),
        arb_full_pull_reply().prop_map(ProtocolResponse::Full),
        arb_name().prop_map(ProtocolResponse::Error),
        (any::<u16>(), prop::collection::vec(any::<u16>(), 0..4)).prop_map(|(s, owners)| {
            ProtocolResponse::Refused(Error::NotServedHere {
                shard: ShardId(s),
                owners: owners.into_iter().map(NodeId).collect(),
            })
        }),
        any::<u16>().prop_map(|s| ProtocolResponse::Refused(Error::ShardMoving(ShardId(s)))),
    ]
}

fn arb_response() -> impl Strategy<Value = ProtocolResponse> {
    prop_oneof![
        3 => arb_flat_response(),
        1 => (any::<u16>(), arb_flat_response()).prop_map(|(s, resp)| ProtocolResponse::Shard {
            shard: ShardId(s),
            resp: Box::new(resp),
        }),
    ]
}

proptest! {
    #[test]
    fn vv_roundtrips(vv in arb_vv()) {
        let mut w = Writer::new();
        put_vv(&mut w, &vv);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        prop_assert_eq!(get_vv(&mut r).unwrap(), vv);
        r.finish().unwrap();
    }

    #[test]
    fn op_roundtrips(op in arb_op()) {
        let mut w = Writer::new();
        put_op(&mut w, &op);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        prop_assert_eq!(get_op(&mut r).unwrap(), op);
        r.finish().unwrap();
    }

    #[test]
    fn payload_roundtrips(p in arb_payload()) {
        let mut w = Writer::new();
        put_payload(&mut w, &p);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let back = get_payload(&mut r).unwrap();
        r.finish().unwrap();
        prop_assert_eq!(&back.tails, &p.tails);
        prop_assert_eq!(back.items.len(), p.items.len());
        for (a, b) in back.items.iter().zip(&p.items) {
            prop_assert_eq!(a.item, b.item);
            prop_assert_eq!(&a.ivv, &b.ivv);
            prop_assert_eq!(&a.value, &b.value);
        }
    }

    /// Every engine request — including empty delta-fetch lists and
    /// depth-1 routing envelopes — round-trips
    /// structurally intact.
    #[test]
    fn requests_roundtrip(req in arb_request()) {
        let back = decode_request(&encode_request(&req)).unwrap();
        prop_assert_eq!(format!("{back:?}"), format!("{req:?}"));
    }

    /// Every engine response — empty tails, empty offers, whole-item
    /// fallbacks, error strings, typed refusals — round-trips structurally
    /// intact.
    #[test]
    fn responses_roundtrip(resp in arb_response()) {
        let back = decode_response(&encode_response(&resp)).unwrap();
        prop_assert_eq!(format!("{back:?}"), format!("{resp:?}"));
    }

    /// Chopping any amount off the end of a valid frame must yield a clean
    /// decode error (frames are self-describing: a decoder that "succeeds"
    /// on a prefix would silently drop protocol state).
    #[test]
    fn truncated_requests_rejected(req in arb_request(), cut in 0u32..100) {
        let buf = encode_request(&req);
        let keep = buf.len() * cut as usize / 100;
        if keep < buf.len() {
            prop_assert!(decode_request(&buf[..keep]).is_err());
        }
    }

    #[test]
    fn truncated_responses_rejected(resp in arb_response(), cut in 0u32..100) {
        let buf = encode_response(&resp);
        let keep = buf.len() * cut as usize / 100;
        if keep < buf.len() {
            prop_assert!(decode_response(&buf[..keep]).is_err());
        }
    }

    /// Trailing garbage after a valid frame must also be rejected.
    #[test]
    fn padded_requests_rejected(req in arb_request(), pad in 1usize..8) {
        let mut buf = encode_request(&req);
        buf.extend(std::iter::repeat_n(0xAB, pad));
        prop_assert!(decode_request(&buf).is_err());
    }

    /// Fuzz: the decoders must reject or accept arbitrary bytes without
    /// panicking.
    #[test]
    fn decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Fuzz: snapshot restore must never panic on corrupt input.
    #[test]
    fn snapshot_restore_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = epidb_core::Replica::from_snapshot(&bytes);
    }
}

/// A megabyte-sized item value survives the round trip (length fields are
/// u32 throughout; this exercises the large-payload path without the cost
/// of a proptest case).
#[test]
fn max_size_value_roundtrips() {
    let value = vec![0x5Au8; 1 << 20];
    let resp = ProtocolResponse::Oob(OobReply {
        item: ItemId(7),
        ivv: VersionVector::from_entries(vec![3, 0, 9]),
        value: Bytes::copy_from_slice(&value),
        from_aux: true,
    });
    let buf = encode_response(&resp);
    assert!(buf.len() > 1 << 20);
    match decode_response(&buf).unwrap() {
        ProtocolResponse::Oob(reply) => {
            assert_eq!(&reply.value[..], &value[..]);
            assert!(reply.from_aux);
        }
        other => panic!("kind changed: {other:?}"),
    }
}

/// The all-empty offer (empty tails, no offered items) is a legal frame.
#[test]
fn empty_delta_offer_roundtrips() {
    let resp = ProtocolResponse::DeltaOffer(DeltaOfferResponse::Offer(DeltaOffer {
        tails: vec![vec![], vec![]],
        offers: vec![],
    }));
    let back = decode_response(&encode_response(&resp)).unwrap();
    assert_eq!(format!("{back:?}"), format!("{resp:?}"));
}

// --- checked (CRC32) envelope fuzzing ---------------------------------------

use epidb_core::codec::{
    decode_request_checked, decode_request_checked_shared, decode_response_checked,
    decode_response_checked_shared, encode_request_checked, encode_response_checked,
};

fn is_corrupt<T: std::fmt::Debug>(r: Result<T, Error>) -> bool {
    matches!(r, Err(Error::CorruptFrame(_)))
}

proptest! {
    /// Flipping any single bit of a checked request frame must surface as
    /// `CorruptFrame` — never a wrong decode, never a panic.
    #[test]
    fn bit_flipped_checked_requests_rejected(
        req in arb_request(),
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut frame = encode_request_checked(&req);
        let idx = (pos % frame.len() as u64) as usize;
        frame[idx] ^= 1 << bit;
        prop_assert!(
            is_corrupt(decode_request_checked(&frame)),
            "flip at byte {} bit {} not caught", idx, bit
        );
        // The shared-buffer decoder must agree.
        let shared = Bytes::from(frame);
        prop_assert!(is_corrupt(decode_request_checked_shared(&shared)));
    }

    #[test]
    fn bit_flipped_checked_responses_rejected(
        resp in arb_response(),
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut frame = encode_response_checked(&resp);
        let idx = (pos % frame.len() as u64) as usize;
        frame[idx] ^= 1 << bit;
        prop_assert!(
            is_corrupt(decode_response_checked(&frame)),
            "flip at byte {} bit {} not caught", idx, bit
        );
        let shared = Bytes::from(frame);
        prop_assert!(is_corrupt(decode_response_checked_shared(&shared)));
    }

    /// Replacing a whole byte with a different value is likewise caught.
    #[test]
    fn byte_stomped_checked_frames_rejected(
        resp in arb_response(),
        pos in any::<u64>(),
        replacement in any::<u8>(),
    ) {
        let mut frame = encode_response_checked(&resp);
        let idx = (pos % frame.len() as u64) as usize;
        if frame[idx] != replacement {
            frame[idx] = replacement;
            prop_assert!(is_corrupt(decode_response_checked(&frame)));
        }
    }

    /// Intact checked frames still round-trip.
    #[test]
    fn checked_requests_roundtrip(req in arb_request()) {
        let frame = encode_request_checked(&req);
        let back = decode_request_checked(&frame).unwrap();
        prop_assert_eq!(format!("{back:?}"), format!("{req:?}"));
    }

    /// Request and response tags 5 and 6 are retired (they carried the
    /// multi-database envelope): whatever follows the tag, such a frame is
    /// rejected on both paths — never decoded, never a panic — and the
    /// checked decoders report it as a corrupt frame.
    #[test]
    fn retired_tags_are_rejected(
        tag in prop_oneof![Just(5u8), Just(6u8)],
        rest in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut body = vec![CODEC_VERSION, tag];
        body.extend_from_slice(&rest);
        prop_assert!(decode_request(&body).is_err());
        prop_assert!(decode_response(&body).is_err());
        let mut frame = crc32(&body).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        prop_assert!(is_corrupt(decode_request_checked(&frame)));
        prop_assert!(is_corrupt(decode_response_checked(&frame)));
        let shared = Bytes::from(frame);
        prop_assert!(is_corrupt(decode_request_checked_shared(&shared)));
        prop_assert!(is_corrupt(decode_response_checked_shared(&shared)));
    }

    /// Arbitrary byte soup never panics the checked decoders, and anything
    /// they reject is reported as a corrupt frame (the retryable shape).
    #[test]
    fn checked_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        if let Err(e) = decode_request_checked(&bytes) {
            prop_assert!(matches!(e, Error::CorruptFrame(_)));
        }
        if let Err(e) = decode_response_checked(&bytes) {
            prop_assert!(matches!(e, Error::CorruptFrame(_)));
        }
    }
}

// --- scratch-pooled decoding and frame-size bounds --------------------------

use epidb_core::codec::{check_frame_len, DecodeScratch};

proptest! {
    /// Decoding through a recycled scratch buffer — one that previously
    /// held a *different* frame — is indistinguishable from decoding a
    /// fresh allocation, for every request variant. This is the
    /// connection-lifetime invariant behind the transport's buffer pool:
    /// no state leaks between frames.
    #[test]
    fn scratch_pooled_request_decode_matches_fresh(
        first in arb_request(),
        second in arb_request(),
    ) {
        let mut scratch = DecodeScratch::new();
        for req in [&first, &second] {
            let wire = encode_request_checked(req);
            let mut buf = scratch.take_buf();
            buf.extend_from_slice(&wire);
            let frame = Bytes::from(buf);
            let pooled = decode_request_checked_shared(&frame).unwrap();
            let fresh = decode_request_checked(&wire).unwrap();
            prop_assert_eq!(format!("{pooled:?}"), format!("{fresh:?}"));
            drop(pooled);
            prop_assert!(scratch.recycle(frame));
        }
        // The second iteration really did reuse the first frame's buffer.
        prop_assert_eq!(scratch.pooled(), 1);
    }

    /// As above, for every response variant — including payloads whose
    /// values decode as zero-copy sub-views of the pooled frame. While
    /// such views are alive the frame must refuse to recycle (recycling
    /// would hand aliased memory to the next read); once dropped, the
    /// buffer pools normally.
    #[test]
    fn scratch_pooled_response_decode_matches_fresh(
        first in arb_response(),
        second in arb_response(),
    ) {
        let mut scratch = DecodeScratch::new();
        for resp in [&first, &second] {
            let wire = encode_response_checked(resp);
            let mut buf = scratch.take_buf();
            buf.extend_from_slice(&wire);
            let frame = Bytes::from(buf);
            let pooled = decode_response_checked_shared(&frame).unwrap();
            let fresh = decode_response_checked(&wire).unwrap();
            prop_assert_eq!(format!("{pooled:?}"), format!("{fresh:?}"));
            drop(pooled);
            // Nothing aliases the frame once the message is dropped, so
            // the buffer must actually return to the pool.
            prop_assert!(scratch.recycle(frame));
        }
        prop_assert_eq!(scratch.pooled(), 1);
    }

    /// Encoded frames for bounded inputs stay far under [`MAX_FRAME`]:
    /// the sender-side check accepts everything these strategies can
    /// build, so ordinary traffic never trips the frame limit.
    #[test]
    fn bounded_requests_fit_the_frame_limit(req in arb_request()) {
        let wire = encode_request_checked(&req);
        prop_assert!(check_frame_len(wire.len()).is_ok());
    }

    #[test]
    fn bounded_responses_fit_the_frame_limit(resp in arb_response()) {
        let wire = encode_response_checked(&resp);
        prop_assert!(check_frame_len(wire.len()).is_ok());
    }
}
