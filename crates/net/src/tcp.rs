//! The initiator side of the socket runtimes: [`TcpTransport`], frame I/O,
//! socket options and [`TcpConfig`]. Every socket node is served by the
//! reactor in [`async_tcp`](crate::async_tcp); this module holds no server.
//!
//! Frames are a 4-byte little-endian length followed by the checked
//! envelope of [`codec`](epidb_core::codec): a CRC32 over the encoded
//! engine enum, then the encoding itself — the socket carries exactly the
//! [`ProtocolRequest`] / [`ProtocolResponse`] pairs every other runtime
//! exchanges, every frame is verified before it is decoded (corruption
//! surfaces as the retryable [`Error::CorruptFrame`]), and the byte counts
//! charged by [`Costs`](epidb_common::Costs) inside the engine correspond
//! to what actually crosses the wire. A round reaches its peer over the
//! connection parked for it — see [`TcpTransport`] and [`pool`].

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bytes::Bytes;
use epidb_common::{Error, NodeId, Result};
use epidb_core::codec::{
    check_frame_len, decode_response_checked_shared, encode_request_to, DecodeScratch, Writer,
    CHECKED_HEADER, MAX_FRAME,
};
use epidb_core::{FaultPlan, ProtocolRequest, ProtocolResponse, RetryPolicy, Transport};
use epidb_durable::DurabilityConfig;

use crate::pool;

/// Socket-level tuning for [`TcpTransport`]: every timeout the transport
/// applies, plus the connect retry schedule. No hardcoded timeouts remain
/// in the transport itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpSocketOptions {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout: how long an initiator awaits a response, and
    /// how long a connection may stay parked before the pool discards it.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Connect attempts before giving up with
    /// [`Error::PeerUnavailable`].
    pub connect_attempts: u32,
    /// Base pause between connect attempts (doubles per failure).
    pub connect_backoff: Duration,
}

impl Default for TcpSocketOptions {
    fn default() -> Self {
        TcpSocketOptions {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            connect_attempts: 3,
            connect_backoff: Duration::from_millis(10),
        }
    }
}

/// Tuning and fault-injection knobs of every socket cluster
/// ([`SocketCluster`](crate::SocketCluster): both
/// [`AsyncTcpCluster`](crate::AsyncTcpCluster) and
/// [`ShardedTcpCluster`](crate::ShardedTcpCluster)).
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// How often each node pulls each of its shards from a random
    /// co-owner.
    pub gossip_interval: Duration,
    /// Seed for peer selection and per-link chaos.
    pub seed: u64,
    /// Op-cache budget per (shard) replica; when non-zero, gossip runs in
    /// delta mode.
    pub delta_budget: usize,
    /// Run every replica in paranoid mode (per-step invariant audits).
    pub paranoid: bool,
    /// Socket timeouts and connect retry schedule.
    pub socket: TcpSocketOptions,
    /// Fault mix for gossip links (`None`: fault-free), e.g.
    /// [`FaultPlan::lossy`] for message loss.
    pub fault_plan: Option<FaultPlan>,
    /// Retry policy the gossip loop applies within each anti-entropy
    /// round (between rounds, the next tick is the retry).
    pub retry: RetryPolicy,
    /// On-disk durability (group-commit WAL + snapshot checkpoints, a
    /// stream per owned shard) per node. When set,
    /// [`crash`](crate::SocketCluster::crash) really drops the node's
    /// replicas and [`revive`](crate::SocketCluster::revive) recovers
    /// them from disk.
    pub durability: Option<DurabilityConfig>,
    /// Maximum wanted items per `DeltaFetch` frame in delta gossip
    /// rounds (`usize::MAX` = no coalescing: the exchange shape — and
    /// therefore the per-node [`Costs`](epidb_common::Costs) — matches
    /// the unchunked protocol).
    pub max_frame_items: usize,
    /// Responder-side byte budget per delta payload frame (`u64::MAX` =
    /// unbounded). A budgeted responder serves a prefix of the want-list
    /// and the initiator re-requests the rest, keeping every frame under
    /// the transport's [`MAX_FRAME`] limit.
    pub delta_frame_bytes: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            gossip_interval: Duration::from_millis(5),
            seed: 0x7C9,
            delta_budget: 0,
            paranoid: false,
            socket: TcpSocketOptions::default(),
            fault_plan: None,
            retry: RetryPolicy::none(),
            durability: None,
            max_frame_items: usize::MAX,
            delta_frame_bytes: u64::MAX,
        }
    }
}

/// Write every byte of `bufs` with as few syscalls as the kernel allows:
/// repeated `write_vectored`, advancing through the slice list by hand
/// (std's `write_all_vectored` is unstable). In the common case the whole
/// frame — length prefix, control bytes, and value segments straight out
/// of the store's refcounted buffers — leaves in one call.
fn write_all_vectored(stream: &mut TcpStream, mut bufs: Vec<&[u8]>) -> std::io::Result<()> {
    while !bufs.is_empty() {
        let iov: Vec<IoSlice<'_>> = bufs.iter().map(|b| IoSlice::new(b)).collect();
        let mut n = stream.write_vectored(&iov)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "failed to write whole frame",
            ));
        }
        let mut done = 0;
        while done < bufs.len() && n >= bufs[done].len() {
            n -= bufs[done].len();
            done += 1;
        }
        bufs.drain(..done);
        if let Some(first) = bufs.first_mut() {
            *first = &first[n..];
        }
    }
    stream.flush()
}

/// Set on every initiator socket, new or checked out of the pool: the read
/// and write timeouts, and `TCP_NODELAY` — connections are long-lived, and a
/// frame that leaves in more than one `write` (a short vectored write on a
/// large frame) is otherwise the write-write-read pattern that Nagle's
/// algorithm and the peer's delayed ACK stall for 40 ms.
pub(crate) fn tune(stream: &TcpStream, options: &TcpSocketOptions) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(options.read_timeout))?;
    stream.set_write_timeout(Some(options.write_timeout))
}

/// A frame that did not cross the socket.
#[derive(Debug)]
pub(crate) struct FrameError {
    error: Error,
    /// The peer had closed the connection before this frame: a reset, EOF
    /// or broken pipe while sending, or before the first byte received.
    peer_closed: bool,
}

impl FrameError {
    fn io(what: &str, e: std::io::Error, nothing_received: bool) -> FrameError {
        let peer_closed = nothing_received
            && matches!(
                e.kind(),
                ErrorKind::UnexpectedEof
                    | ErrorKind::ConnectionReset
                    | ErrorKind::ConnectionAborted
                    | ErrorKind::BrokenPipe
            );
        FrameError { error: Error::Network(format!("{what}: {e}")), peer_closed }
    }
}

impl From<Error> for FrameError {
    fn from(error: Error) -> FrameError {
        FrameError { error, peer_closed: false }
    }
}

impl From<FrameError> for Error {
    fn from(e: FrameError) -> Error {
        e.error
    }
}

/// Send one frame: a 4-byte little-endian length, the 4-byte CRC32 of the
/// body, then the writer's chunks, in a single vectored write — value
/// segments are never copied into a contiguous send buffer (the checksum
/// streams over the chunk list, so it costs no copies either).
fn write_frame(stream: &mut TcpStream, w: &Writer) -> std::result::Result<(), FrameError> {
    // Check *before* any bytes hit the wire: an oversize frame is
    // deterministic (re-encoding re-exceeds), so it surfaces as the typed,
    // non-retryable [`Error::FrameTooLarge`] instead of a silent `as u32`
    // truncation that would desynchronize the stream.
    let len = check_frame_len(w.len() + CHECKED_HEADER)?.to_le_bytes();
    let crc = w.crc32().to_le_bytes();
    let mut bufs: Vec<&[u8]> = Vec::with_capacity(8);
    bufs.push(&len);
    bufs.push(&crc);
    bufs.extend(w.chunks());
    write_all_vectored(stream, bufs).map_err(|e| FrameError::io("send frame", e, true))
}

/// Read one frame body into `body` (reused across frames; only grows).
/// The body is the checked envelope — CRC32 followed by the encoding —
/// still unverified; the checked decoders verify before touching it.
pub(crate) fn read_frame_into(
    stream: &mut TcpStream,
    body: &mut Vec<u8>,
) -> std::result::Result<(), FrameError> {
    // `read` and a count for the length prefix, not `read_exact`: whether
    // the connection ended before the frame's first byte or inside it
    // decides if an initiator may send its request again.
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < len_buf.len() {
        match stream.read(&mut len_buf[got..]) {
            Ok(0) => {
                let eof = ErrorKind::UnexpectedEof.into();
                return Err(FrameError::io("read frame length", eof, got == 0));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::io("read frame length", e, got == 0)),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        // Not retryable: a conforming sender never produces this (it has
        // the same sender-side check), so re-reading cannot succeed.
        return Err(Error::FrameTooLarge { len: len as u64, limit: MAX_FRAME as u64 }.into());
    }
    body.clear();
    body.resize(len as usize, 0);
    stream.read_exact(body).map_err(|e| FrameError::io("read frame body", e, false))
}

/// A [`Transport`] over a TCP connection to one peer's server: each
/// exchange writes a request frame and reads a response frame.
///
/// Connections are parked per peer address, not opened per round. The
/// first exchange takes the stream the [pool] holds for the
/// address, or connects — retrying per
/// [`TcpSocketOptions::connect_attempts`], then failing with the typed
/// [`Error::PeerUnavailable`]; later exchanges of the round reuse it; and
/// dropping the transport parks it for the next one. Only a stream whose
/// last exchange completed — request written, response read and
/// CRC-verified — is kept or parked: any error, and [`reset`](Self::reset),
/// closes it.
///
/// A stream that sat idle, parked or held, may have been closed by the
/// peer meanwhile (it crashed, restarted, or timed the connection out). If
/// an exchange on such a stream fails because the peer closed it — reset,
/// EOF or broken pipe before any byte of the response arrived — the
/// transport opens a new connection and sends the request again, once, and
/// the caller sees one exchange. This is safe because every request is
/// idempotent at the responder (a retry after a reset is already the
/// protocol's contract), and it is not a retry in the
/// [`RetryPolicy`] sense: nothing is charged to
/// [`Costs::retries`](epidb_common::Costs). A failure on a new connection,
/// after part of a response, a timeout and a
/// [`CorruptFrame`](Error::CorruptFrame) all surface unchanged.
pub struct TcpTransport {
    peer: NodeId,
    addr: SocketAddr,
    options: TcpSocketOptions,
    /// Held only between exchanges, and only after one that completed.
    stream: Option<TcpStream>,
    /// Reusable request encoder: after the first exchange, encoding a
    /// request performs no allocations.
    writer: Writer,
    /// Pool of response-frame buffers: a frame whose decoded response did
    /// not alias it (small inlined values, `YouAreCurrent`, ...) is
    /// reclaimed and backs the next read, so small-message exchanges stop
    /// allocating a fresh frame buffer per response.
    scratch: DecodeScratch,
}

impl TcpTransport {
    /// A transport to the server of `peer` listening at `addr`, with
    /// default socket options.
    pub fn new(peer: NodeId, addr: SocketAddr) -> TcpTransport {
        TcpTransport::with_options(peer, addr, TcpSocketOptions::default())
    }

    /// A transport with explicit timeouts and connect retry schedule.
    pub fn with_options(peer: NodeId, addr: SocketAddr, options: TcpSocketOptions) -> TcpTransport {
        TcpTransport {
            peer,
            addr,
            options,
            stream: None,
            writer: Writer::new(),
            scratch: DecodeScratch::new(),
        }
    }

    /// Close the current connection (if any) instead of parking it; the
    /// next exchange takes a parked one or connects. Lets tests and
    /// harnesses kill a connection mid-round.
    pub fn reset(&mut self) {
        self.stream = None;
    }

    /// Open a new connection: the only place an initiator stream is made.
    fn connect(&self) -> Result<TcpStream> {
        let attempts = self.options.connect_attempts.max(1);
        let mut backoff = self.options.connect_backoff;
        for attempt in 1..=attempts {
            match TcpStream::connect_timeout(&self.addr, self.options.connect_timeout) {
                Ok(stream) => {
                    tune(&stream, &self.options)
                        .map_err(|e| Error::Network(format!("socket option: {e}")))?;
                    pool::count_connect();
                    return Ok(stream);
                }
                Err(_) if attempt < attempts => {
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_secs(1));
                    }
                }
                Err(_) => break,
            }
        }
        Err(Error::PeerUnavailable(self.peer))
    }

    /// Send the encoded request on `stream` and read the response; the
    /// stream is kept only if all of it worked.
    fn round_trip(
        &mut self,
        mut stream: TcpStream,
    ) -> std::result::Result<ProtocolResponse, FrameError> {
        write_frame(&mut stream, &self.writer)?;
        // The received frame becomes the shared backing of the decoded
        // response: after the CRC verifies, values are zero-copy
        // sub-views of it. A failed check is a retryable CorruptFrame
        // and nothing was aliased. The buffer comes from (and, when
        // the response leaves it unaliased, returns to) the scratch
        // pool, so small responses recycle one buffer forever.
        let mut buf = self.scratch.take_buf();
        read_frame_into(&mut stream, &mut buf)?;
        let frame = Bytes::from(buf);
        let resp = decode_response_checked_shared(&frame)?;
        self.scratch.recycle(frame);
        self.stream = Some(stream);
        Ok(resp)
    }
}

impl Drop for TcpTransport {
    /// The only place a stream is parked.
    fn drop(&mut self) {
        if let Some(stream) = self.stream.take() {
            pool::park(self.addr, self.options, stream);
        }
    }
}

impl Transport for TcpTransport {
    fn peer(&self) -> NodeId {
        self.peer
    }

    fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
        encode_request_to(&req, &mut self.writer);
        // Taken out for the exchange: an error on any path below leaves
        // `self.stream` empty, and the connection closed.
        let idle = self.stream.take().or_else(|| pool::checkout(self.addr, &self.options));
        let resp = match idle {
            None => self.round_trip(self.connect()?)?,
            Some(stream) => match self.round_trip(stream) {
                Err(e) if e.peer_closed => {
                    pool::count_stale_reconnect();
                    self.round_trip(self.connect()?)?
                }
                resp => resp?,
            },
        };
        match resp {
            ProtocolResponse::Error(msg) => Err(Error::Network(format!("peer error: {msg}"))),
            // Typed routing refusals (`NotServedHere`, `ShardMoving`)
            // survive the wire: the serving side encodes them in-band and
            // the initiator gets the original error back, retryability
            // intact.
            ProtocolResponse::Refused(e) => Err(e),
            resp => Ok(resp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    use epidb_core::Replica;

    use crate::{AsyncTcpCluster, AsyncTcpConfig};

    #[test]
    fn oversize_frames_are_typed_and_non_retryable() {
        // Regression: `write_frame` used to truncate the length with
        // `as u32` (silently corrupting the stream past 4 GiB) and the
        // receiver rejected oversize frames with a *retryable* Network
        // error. Both ends now surface the typed, non-retryable
        // `FrameTooLarge`.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let receiver = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut body = Vec::new();
            let err = read_frame_into(&mut stream, &mut body).unwrap_err().error;
            assert!(matches!(err, Error::FrameTooLarge { .. }), "receiver: {err}");
            assert!(!err.is_retryable(), "oversize frames must not be retried");
        });
        let mut stream = TcpStream::connect(addr).unwrap();

        // Sender side: the check fires before any bytes hit the wire.
        let mut w = Writer::new();
        w.bytes(&vec![0u8; MAX_FRAME as usize + 1]);
        let err = write_frame(&mut stream, &w).unwrap_err().error;
        assert!(matches!(err, Error::FrameTooLarge { .. }), "sender: {err}");
        assert!(!err.is_retryable());

        // Receiver backstop against a non-conforming peer: hand-send an
        // oversize length prefix.
        stream.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
        stream.flush().unwrap();
        receiver.join().unwrap();
    }

    #[test]
    fn the_connecting_end_sets_nodelay() {
        // The accepted end is the reactor's, checked in
        // `many_parked_connections_on_two_workers`.
        let config = AsyncTcpConfig {
            base: TcpConfig { gossip_interval: Duration::from_secs(60), ..TcpConfig::default() },
            worker_threads: 2,
        };
        let cluster = AsyncTcpCluster::spawn(2, 4, config).unwrap();
        let mut transport = cluster.transport_to(NodeId(0));
        let dbvv = Replica::new(NodeId(1), 2, 4).dbvv().clone();
        transport.exchange(ProtocolRequest::Pull { from: NodeId(1), dbvv }).unwrap();
        let connected = transport.stream.as_ref().expect("kept after a completed exchange");
        assert!(connected.nodelay().unwrap(), "the connecting end left Nagle's algorithm on");
        transport.reset();
        cluster.shutdown();
    }
}
