//! The shared error type for the workspace.

use std::fmt;

use crate::ids::{ItemId, NodeId, ShardId};

/// One replica-level invariant violation, found by an invariant predicate
/// (see `epidb-core`'s `paranoid` module). A plain value, not an [`Error`]
/// variant: invariant checks are *diagnoses*, consumed by paranoid mode
/// (which panics with the report) and by the model checker (which records
/// the violating state and minimizes the event trace that reached it) —
/// they never travel through the protocol's `Result` plumbing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InvariantViolation {
    /// The replica the violation was found at.
    pub node: NodeId,
    /// Stable kebab-case name of the violated invariant (e.g.
    /// `"dbvv-sum"`).
    pub check: &'static str,
    /// Human-readable specifics (which item / origin / values).
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}] {}", self.node, self.check, self.detail)
    }
}

/// Errors surfaced by the replication machinery.
///
/// Most protocol-internal situations (older copy received, identical
/// replicas, conflicts) are *outcomes*, not errors; `Error` is reserved for
/// genuine misuse or environmental failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Error {
    /// An item id outside the database's fixed item universe.
    UnknownItem(ItemId),
    /// A node id outside the fixed server set.
    UnknownNode(NodeId),
    /// Two version vectors (or replicas) sized for different server counts
    /// were combined.
    DimensionMismatch {
        /// Dimension of the left-hand operand.
        left: usize,
        /// Dimension of the right-hand operand.
        right: usize,
    },
    /// An operation addressed a node that is currently crashed in the
    /// simulation.
    NodeDown(NodeId),
    /// An update required the item's token but the node does not hold it
    /// (pessimistic mode, §2).
    TokenNotHeld {
        /// The item whose token was required.
        item: ItemId,
        /// The node currently holding it.
        holder: NodeId,
    },
    /// The network (simulated or real) failed to deliver a message, or a
    /// durable file operation failed.
    Network(String),
    /// A received frame failed its integrity check (bad checksum, bad
    /// version byte, or malformed interior). Retryable: the sender's state
    /// is intact and a re-sent frame is expected to pass.
    CorruptFrame(String),
    /// A peer could not be reached after the configured connect retries.
    /// Retryable at a coarser granularity (the peer may come back).
    PeerUnavailable(NodeId),
    /// A frame exceeded the transport's hard size limit. NOT retryable:
    /// unlike a corrupt frame, re-sending the same message produces the
    /// same oversized frame, so a retry deterministically fails again.
    /// Raised on the *sender* before any bytes hit the wire, and on the
    /// receiver as a defensive backstop against a non-conforming peer.
    FrameTooLarge {
        /// Size of the offending frame in bytes.
        len: u64,
        /// The limit it exceeded.
        limit: u64,
    },
    /// Durable state (a snapshot or write-ahead log record) failed its
    /// integrity or decode checks. NOT retryable: unlike a corrupt frame,
    /// re-reading the same bytes from disk yields the same corruption, so
    /// retrying can only repeat the failure. Recovery must fall back to an
    /// older generation or surface the loss.
    CorruptSnapshot(String),
    /// A read, a write or a `Shard`-routed request addressed a shard this
    /// node does not serve. NOT retryable *at the same peer*: the peer's
    /// placement is deterministic, so the identical request fails
    /// identically. `owners` carries the responder's shard-map entry for
    /// the shard, so the caller can redirect instead of retrying blindly.
    NotServedHere {
        /// The shard the request named.
        shard: ShardId,
        /// Nodes the responder believes serve the shard.
        owners: Vec<NodeId>,
    },
    /// The shard is mid-handoff between replica groups: reads and writes
    /// are refused for the duration of the cutover window. Retryable —
    /// the window is transient, and once the handoff completes the same
    /// request succeeds (here, or at the new owner after a
    /// `NotServedHere` redirect).
    ShardMoving(ShardId),
    /// A bounded wait (quiescence polling, a durability flush, a drain)
    /// ran out of time. NOT retryable as-is: the caller chose the bound,
    /// so an identical re-wait is expected to exhaust it identically —
    /// retry with a larger deadline or investigate why progress stalled.
    DeadlineExceeded {
        /// What the caller was waiting for.
        waiting_for: String,
        /// The deadline that was exhausted.
        after: std::time::Duration,
    },
}

impl Error {
    /// Whether a retry of the same exchange can reasonably be expected to
    /// succeed. Transport-level failures (lost frames, corrupt frames,
    /// unreachable peers) are transient; everything else reflects protocol
    /// misuse or durable state and retrying would only repeat it.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Error::Network(_)
                | Error::CorruptFrame(_)
                | Error::PeerUnavailable(_)
                | Error::ShardMoving(_)
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownItem(x) => write!(f, "unknown item {x}"),
            Error::UnknownNode(n) => write!(f, "unknown node {n}"),
            Error::DimensionMismatch { left, right } => {
                write!(f, "version vector dimension mismatch: {left} vs {right}")
            }
            Error::NodeDown(n) => write!(f, "node {n} is down"),
            Error::TokenNotHeld { item, holder } => {
                write!(f, "token for {item} is held by {holder}")
            }
            Error::Network(msg) => write!(f, "network error: {msg}"),
            Error::CorruptFrame(msg) => write!(f, "corrupt frame: {msg}"),
            Error::PeerUnavailable(n) => write!(f, "peer {n} unavailable"),
            Error::FrameTooLarge { len, limit } => {
                write!(f, "frame of {len} bytes exceeds the {limit}-byte limit")
            }
            Error::CorruptSnapshot(msg) => write!(f, "corrupt snapshot: {msg}"),
            Error::NotServedHere { shard, owners } => {
                write!(f, "shard {shard} is not served here")?;
                if !owners.is_empty() {
                    write!(f, " (owners:")?;
                    for o in owners {
                        write!(f, " {o}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            Error::ShardMoving(shard) => {
                write!(f, "shard {shard} is mid-handoff; retry after the cutover")
            }
            Error::DeadlineExceeded { waiting_for, after } => {
                write!(f, "deadline exceeded waiting for {waiting_for} (after {after:?})")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(Error::UnknownItem(ItemId(5)).to_string(), "unknown item x5");
        assert_eq!(Error::UnknownNode(NodeId(2)).to_string(), "unknown node n2");
        assert_eq!(
            Error::DimensionMismatch { left: 3, right: 4 }.to_string(),
            "version vector dimension mismatch: 3 vs 4"
        );
        assert_eq!(Error::NodeDown(NodeId(1)).to_string(), "node n1 is down");
        assert_eq!(
            Error::TokenNotHeld { item: ItemId(1), holder: NodeId(0) }.to_string(),
            "token for x1 is held by n0"
        );
        assert!(Error::Network("boom".into()).to_string().contains("boom"));
        assert_eq!(
            Error::CorruptFrame("crc mismatch".into()).to_string(),
            "corrupt frame: crc mismatch"
        );
        assert_eq!(Error::PeerUnavailable(NodeId(3)).to_string(), "peer n3 unavailable");
        assert_eq!(
            Error::FrameTooLarge { len: 100, limit: 64 }.to_string(),
            "frame of 100 bytes exceeds the 64-byte limit"
        );
        assert_eq!(
            Error::CorruptSnapshot("bad magic".into()).to_string(),
            "corrupt snapshot: bad magic"
        );
        assert_eq!(
            Error::NotServedHere { shard: ShardId(3), owners: vec![NodeId(2), NodeId(4)] }
                .to_string(),
            "shard s3 is not served here (owners: n2 n4)"
        );
        assert_eq!(
            Error::ShardMoving(ShardId(1)).to_string(),
            "shard s1 is mid-handoff; retry after the cutover"
        );
        assert_eq!(
            Error::DeadlineExceeded {
                waiting_for: "quiescence".into(),
                after: std::time::Duration::from_secs(2),
            }
            .to_string(),
            "deadline exceeded waiting for quiescence (after 2s)"
        );
    }

    #[test]
    fn retryability_classification() {
        assert!(Error::Network("x".into()).is_retryable());
        assert!(Error::CorruptFrame("x".into()).is_retryable());
        assert!(Error::PeerUnavailable(NodeId(0)).is_retryable());
        assert!(!Error::UnknownItem(ItemId(0)).is_retryable());
        assert!(!Error::NodeDown(NodeId(0)).is_retryable());
        // Corrupt durable state is permanent: the same bytes re-read from
        // disk fail the same way, so a retry can never succeed.
        assert!(!Error::CorruptSnapshot("x".into()).is_retryable());
        // An oversized frame is deterministic on the sender: re-encoding
        // the same message re-exceeds the same limit.
        assert!(!Error::FrameTooLarge { len: 2, limit: 1 }.is_retryable());
        // Routing refusals: placement at one peer is deterministic, so
        // "not served here" never changes on a blind retry — the caller
        // must redirect to one of the carried owners instead.
        assert!(!Error::NotServedHere { shard: ShardId(0), owners: vec![NodeId(1)] }.is_retryable());
        // A mid-handoff shard is a transient window: the same request
        // succeeds once the cutover completes.
        assert!(Error::ShardMoving(ShardId(0)).is_retryable());
        // An exhausted deadline was chosen by the caller: re-waiting the
        // same bound is expected to exhaust it the same way.
        assert!(!Error::DeadlineExceeded {
            waiting_for: "quiescence".into(),
            after: std::time::Duration::from_secs(1),
        }
        .is_retryable());
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::UnknownItem(ItemId(0)));
    }
}
