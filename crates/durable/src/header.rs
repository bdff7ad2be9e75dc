//! The WAL header record: the first frame of every WAL generation, tagged
//! so it can never be confused with a group record, which carries a
//! [`Mutation`](epidb_core::Mutation).
//!
//! The header journals the *configuration* a recovering node would
//! otherwise have to be handed out-of-band: the conflict policy and the
//! delta op-cache budget. With it, recovery is config-free — a node that
//! crashed before its first checkpoint (no snapshot, only a WAL) still
//! comes back with the policy its mutations were journaled under, and a
//! recovered replica re-enables its delta cache at the budget it ran with.

use bytes::Bytes;
use epidb_common::{Error, Result};
use epidb_core::codec::{Reader, Writer};
use epidb_core::ConflictPolicy;

/// First byte of a header frame body. Group records start with
/// [`GROUP_RECORD_TAG`](crate::group::GROUP_RECORD_TAG) and mutation
/// encodings with their tag (0–3); `0xEE` collides with neither.
pub(crate) const WAL_HEADER_TAG: u8 = 0xEE;

/// Header layout version.
const WAL_HEADER_VERSION: u8 = 1;

/// The journaled per-WAL configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalHeader {
    /// Conflict policy the replica ran (and its mutations assume).
    pub policy: ConflictPolicy,
    /// Delta op-cache budget in bytes (0 = delta mode off).
    pub delta_budget: u64,
}

/// Whether a CRC-verified WAL frame body is a header record.
pub(crate) fn is_header(body: &[u8]) -> bool {
    body.first() == Some(&WAL_HEADER_TAG)
}

/// Encode a header into a frame body.
pub(crate) fn encode_header(h: &WalHeader) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(WAL_HEADER_TAG);
    w.u8(WAL_HEADER_VERSION);
    w.u8(match h.policy {
        ConflictPolicy::Report => 0,
        ConflictPolicy::ResolveLww => 1,
    });
    w.u64(h.delta_budget);
    w.into_bytes()
}

/// Decode a header frame body (CRC already verified by the frame scan, so
/// failures here are corruption, not torn writes).
pub(crate) fn decode_header(body: &Bytes) -> Result<WalHeader> {
    let corrupt = |what: String| Error::CorruptSnapshot(format!("WAL header: {what}"));
    let mut r = Reader::shared(body);
    let tag = r.u8().map_err(|e| corrupt(e.to_string()))?;
    if tag != WAL_HEADER_TAG {
        return Err(corrupt(format!("bad tag {tag:#x}")));
    }
    let version = r.u8().map_err(|e| corrupt(e.to_string()))?;
    if version != WAL_HEADER_VERSION {
        return Err(corrupt(format!("unsupported version {version}")));
    }
    let policy = match r.u8().map_err(|e| corrupt(e.to_string()))? {
        0 => ConflictPolicy::Report,
        1 => ConflictPolicy::ResolveLww,
        p => return Err(corrupt(format!("unknown policy {p}"))),
    };
    let delta_budget = r.u64().map_err(|e| corrupt(e.to_string()))?;
    if r.remaining() != 0 {
        return Err(corrupt(format!("{} trailing bytes", r.remaining())));
    }
    Ok(WalHeader { policy, delta_budget })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips() {
        for (policy, budget) in
            [(ConflictPolicy::Report, 0u64), (ConflictPolicy::ResolveLww, 1 << 20)]
        {
            let h = WalHeader { policy, delta_budget: budget };
            let body = Bytes::from(encode_header(&h));
            assert!(is_header(&body));
            assert_eq!(decode_header(&body).unwrap(), h);
        }
    }

    #[test]
    fn mutation_tags_are_not_headers() {
        for tag in 0..4u8 {
            assert!(!is_header(&[tag, 1, 2, 3]));
        }
    }

    #[test]
    fn bad_header_is_corrupt_not_torn() {
        let mut body =
            encode_header(&WalHeader { policy: ConflictPolicy::Report, delta_budget: 0 });
        body[2] = 9; // unknown policy
        let err = decode_header(&Bytes::from(body)).unwrap_err();
        assert!(matches!(err, Error::CorruptSnapshot(_)));
        assert!(!err.is_retryable());
    }
}
