//! Cost accounting for update-propagation overhead.
//!
//! The paper's central claim (§6) is stated in *operation counts*, not
//! seconds: its protocol detects that no propagation is needed in constant
//! time (one database-version-vector comparison), and performs propagation
//! in time linear in `m`, the number of items actually copied — whereas
//! existing epidemic protocols pay at least one per-item comparison for all
//! `N` items in the database. To reproduce those claims faithfully and
//! portably, every protocol implementation in this workspace increments the
//! counters below at the exact points where the paper charges cost.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Operation counters charged by the replication protocols.
///
/// All counters are cumulative. [`Costs`] forms a commutative monoid under
/// `+` and supports `-` for computing per-phase deltas
/// (`after - before`).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Costs {
    /// Individual version-vector *entry* comparisons. Comparing two vectors
    /// over `n` servers charges `n`. This is the paper's unit of comparison
    /// overhead for both IVVs and DBVVs.
    pub vv_entry_cmps: u64,
    /// Log records examined (walked, selected, or appended) during
    /// propagation. The paper bounds this by the number of items copied
    /// (§4.2: one retained record per item per origin; §6: tails computed in
    /// time linear in records selected).
    pub log_records_examined: u64,
    /// Per-item control-state inspections that are *not* vv comparisons —
    /// e.g. Lotus scanning every item's modification time (§8.1), the
    /// per-item-VV baseline touching every item's control block each round,
    /// or, in reconciliation, the digest-tree leaves actually hashed (a
    /// cached clean node costs none).
    pub items_scanned: u64,
    /// Data items actually copied (adopted) by a recipient.
    pub items_copied: u64,
    /// Messages sent over the (simulated) network.
    pub messages_sent: u64,
    /// Total bytes sent: control information (version vectors, log records,
    /// item lists) plus payload (item values).
    pub bytes_sent: u64,
    /// Of `bytes_sent`, the bytes that are control overhead rather than item
    /// payload. The paper argues its message adds only a constant amount of
    /// control information per copied item (§6).
    pub control_bytes: u64,
    /// Conflicts declared ("declare inconsistent replicas", §5).
    pub conflicts_detected: u64,
    /// Auxiliary-log records replayed onto regular copies by intra-node
    /// propagation (§5.1 step 3 / Fig. 4).
    pub aux_replays: u64,
    /// Updates silently lost by a protocol that mis-resolves conflicts
    /// (the Lotus behaviour documented in §8.1). Always zero for `epidb`.
    pub lost_updates: u64,
    /// Exchange attempts repeated after a transient transport failure
    /// (lost, corrupt, or reset frames). Zero on a fault-free network.
    pub retries: u64,
    /// Receipts of state the recipient already held (equal or dominated by
    /// IVV comparison) — the price of duplicated or retried deliveries.
    /// Each is a no-op; this counter shows idempotence doing its job.
    pub redundant_deliveries: u64,
    /// Frames rejected by the integrity check before decoding.
    pub corrupt_frames_dropped: u64,
}

impl Costs {
    /// A zeroed counter set.
    pub const ZERO: Costs = Costs {
        vv_entry_cmps: 0,
        log_records_examined: 0,
        items_scanned: 0,
        items_copied: 0,
        messages_sent: 0,
        bytes_sent: 0,
        control_bytes: 0,
        conflicts_detected: 0,
        aux_replays: 0,
        lost_updates: 0,
        retries: 0,
        redundant_deliveries: 0,
        corrupt_frames_dropped: 0,
    };

    /// Total "comparison work" — the quantity the paper's O(N) vs O(m)
    /// argument is about: vv entry comparisons + log records examined +
    /// per-item scans.
    pub fn comparison_work(&self) -> u64 {
        self.vv_entry_cmps + self.log_records_examined + self.items_scanned
    }

    /// Charge one message of `control` control bytes and `payload` payload
    /// bytes.
    #[inline]
    pub fn charge_message(&mut self, control: u64, payload: u64) {
        self.messages_sent += 1;
        self.bytes_sent += control + payload;
        self.control_bytes += control;
    }
}

impl Add for Costs {
    type Output = Costs;
    fn add(self, rhs: Costs) -> Costs {
        Costs {
            vv_entry_cmps: self.vv_entry_cmps + rhs.vv_entry_cmps,
            log_records_examined: self.log_records_examined + rhs.log_records_examined,
            items_scanned: self.items_scanned + rhs.items_scanned,
            items_copied: self.items_copied + rhs.items_copied,
            messages_sent: self.messages_sent + rhs.messages_sent,
            bytes_sent: self.bytes_sent + rhs.bytes_sent,
            control_bytes: self.control_bytes + rhs.control_bytes,
            conflicts_detected: self.conflicts_detected + rhs.conflicts_detected,
            aux_replays: self.aux_replays + rhs.aux_replays,
            lost_updates: self.lost_updates + rhs.lost_updates,
            retries: self.retries + rhs.retries,
            redundant_deliveries: self.redundant_deliveries + rhs.redundant_deliveries,
            corrupt_frames_dropped: self.corrupt_frames_dropped + rhs.corrupt_frames_dropped,
        }
    }
}

impl AddAssign for Costs {
    fn add_assign(&mut self, rhs: Costs) {
        *self = *self + rhs;
    }
}

impl Sub for Costs {
    type Output = Costs;
    /// Delta between two cumulative snapshots. Saturates rather than
    /// panicking so `after - before` is safe even if a counter was reset.
    fn sub(self, rhs: Costs) -> Costs {
        Costs {
            vv_entry_cmps: self.vv_entry_cmps.saturating_sub(rhs.vv_entry_cmps),
            log_records_examined: self
                .log_records_examined
                .saturating_sub(rhs.log_records_examined),
            items_scanned: self.items_scanned.saturating_sub(rhs.items_scanned),
            items_copied: self.items_copied.saturating_sub(rhs.items_copied),
            messages_sent: self.messages_sent.saturating_sub(rhs.messages_sent),
            bytes_sent: self.bytes_sent.saturating_sub(rhs.bytes_sent),
            control_bytes: self.control_bytes.saturating_sub(rhs.control_bytes),
            conflicts_detected: self.conflicts_detected.saturating_sub(rhs.conflicts_detected),
            aux_replays: self.aux_replays.saturating_sub(rhs.aux_replays),
            lost_updates: self.lost_updates.saturating_sub(rhs.lost_updates),
            retries: self.retries.saturating_sub(rhs.retries),
            redundant_deliveries: self
                .redundant_deliveries
                .saturating_sub(rhs.redundant_deliveries),
            corrupt_frames_dropped: self
                .corrupt_frames_dropped
                .saturating_sub(rhs.corrupt_frames_dropped),
        }
    }
}

impl fmt::Display for Costs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vv_cmps={} log_recs={} scans={} copied={} msgs={} bytes={} (ctl {}) conflicts={} replays={} lost={} retries={} redundant={} corrupt={}",
            self.vv_entry_cmps,
            self.log_records_examined,
            self.items_scanned,
            self.items_copied,
            self.messages_sent,
            self.bytes_sent,
            self.control_bytes,
            self.conflicts_detected,
            self.aux_replays,
            self.lost_updates,
            self.retries,
            self.redundant_deliveries,
            self.corrupt_frames_dropped,
        )
    }
}

/// Wire-size constants shared by all protocols so that byte accounting is
/// comparable across them. These model a compact binary encoding.
pub mod wire {
    /// Fixed per-message envelope (source, destination, type, length).
    pub const MSG_HEADER: u64 = 16;
    /// One version-vector entry (a `u64` counter).
    pub const VV_ENTRY: u64 = 8;
    /// One item identifier.
    pub const ITEM_ID: u64 = 4;
    /// One log record `(item, m)`: item id + sequence number.
    pub const LOG_RECORD: u64 = ITEM_ID + 8;
    /// One per-item sequence number (Lotus-style).
    pub const SEQNO: u64 = 8;
    /// One timestamp.
    pub const TIMESTAMP: u64 = 8;
    /// One digest-tree range `[start, end)`: two `u32` item indices.
    pub const RECON_RANGE: u64 = 8;
    /// One digest-tree node in a recon reply: its range + a 64-bit digest.
    pub const RECON_DIGEST: u64 = RECON_RANGE + 8;
    /// One retained log record shipped with a reconciled item
    /// (origin `u16` + sequence number `u64`).
    pub const RECON_RECORD: u64 = 10;

    /// Size of a version vector over `n` servers.
    pub fn vv(n: usize) -> u64 {
        VV_ENTRY * n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Costs {
        Costs {
            vv_entry_cmps: 10,
            log_records_examined: 20,
            items_scanned: 30,
            items_copied: 4,
            messages_sent: 2,
            bytes_sent: 1000,
            control_bytes: 100,
            conflicts_detected: 1,
            aux_replays: 3,
            lost_updates: 0,
            retries: 5,
            redundant_deliveries: 6,
            corrupt_frames_dropped: 7,
        }
    }

    #[test]
    fn add_and_sub_are_inverse() {
        let a = sample();
        let b = Costs { vv_entry_cmps: 5, ..Costs::ZERO };
        assert_eq!((a + b) - b, a);
    }

    #[test]
    fn sub_saturates() {
        let a = Costs::ZERO;
        let b = sample();
        assert_eq!(a - b, Costs::ZERO);
    }

    #[test]
    fn comparison_work_sums_comparison_counters() {
        assert_eq!(sample().comparison_work(), 60);
    }

    #[test]
    fn charge_message_accumulates() {
        let mut c = Costs::ZERO;
        c.charge_message(16, 100);
        c.charge_message(16, 0);
        assert_eq!(c.messages_sent, 2);
        assert_eq!(c.bytes_sent, 132);
        assert_eq!(c.control_bytes, 32);
    }

    #[test]
    fn zero_is_identity() {
        let a = sample();
        assert_eq!(a + Costs::ZERO, a);
        assert_eq!(Costs::ZERO + a, a);
    }

    #[test]
    fn display_is_stable() {
        let s = sample().to_string();
        assert!(s.contains("vv_cmps=10"));
        assert!(s.contains("lost=0"));
        assert!(s.contains("retries=5"));
        assert!(s.contains("redundant=6"));
        assert!(s.contains("corrupt=7"));
    }

    #[test]
    fn wire_vv_scales_with_n() {
        assert_eq!(wire::vv(8), 64);
        assert_eq!(wire::vv(0), 0);
    }
}
