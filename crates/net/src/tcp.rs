//! A TCP runtime: the same protocol, over real sockets on localhost.
//!
//! Each replica gets a listener thread (spawning one serving thread per
//! accepted connection) and a gossip thread (periodically pulling from a
//! random peer, over the connection parked for it — see [`TcpTransport`]
//! and [`pool`]). Frames are a 4-byte little-endian length
//! followed by the checked envelope of [`codec`](epidb_core::codec): a
//! CRC32 over the encoded engine enum, then the encoding itself — the
//! socket carries exactly the [`ProtocolRequest`] / [`ProtocolResponse`]
//! pairs every other runtime exchanges, every frame is verified before it
//! is decoded (corruption surfaces as the retryable
//! [`Error::CorruptFrame`]), and the byte counts charged by
//! [`Costs`](epidb_common::Costs) inside the engine correspond to what
//! actually crosses the wire.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use epidb_common::{Error, ItemId, NodeId, Result};
use epidb_core::codec::{
    check_frame_len, decode_request_checked, decode_response_checked_shared, encode_request_to,
    encode_response_to, DecodeScratch, Writer, CHECKED_HEADER, MAX_FRAME,
};
use epidb_core::{
    ChaosLink, ChaosTransport, Engine, FaultPlan, OobOutcome, ProtocolRequest, ProtocolResponse,
    PullOutcome, Replica, RetryPolicy, Transport,
};
use epidb_durable::{DurabilityConfig, NodeDurability};
use epidb_store::UpdateOp;
use epidb_vv::VvOrd;
use parking_lot::Mutex;

use crate::gossip::{gossip_loop, GossipConfig, Gossiped, TCP_RNG_SALT};
use crate::pool;
use crate::runtime::open_durable_node;
use crate::transport::MutexHost;

/// Socket-level tuning for [`TcpTransport`]: every timeout the transport
/// applies, plus the connect retry schedule. No hardcoded timeouts remain
/// in the transport itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpSocketOptions {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout (both the initiator awaiting a response and
    /// the server awaiting the next request).
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

/// Tuning and fault-injection knobs for the TCP cluster.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// How often each node initiates a pull from a random peer.
    pub gossip_interval: Duration,
    /// Seed for peer selection and per-link chaos.
    pub seed: u64,
    /// Probability that either leg of a gossip exchange is dropped
    /// (shorthand for a [`FaultPlan::lossy`] plan; ignored when
    /// `fault_plan` is set).
    pub loss_probability: f64,
    /// Op-cache budget per replica; when non-zero, gossip runs in delta
    /// mode.
    pub delta_budget: usize,
    /// Run every replica in paranoid mode (per-step invariant audits).
    pub paranoid: bool,
    /// Socket timeouts and connect retry schedule.
    pub socket: TcpSocketOptions,
    /// Full fault mix for gossip links; overrides `loss_probability`
    /// when set.
    pub fault_plan: Option<FaultPlan>,
    /// Retry policy the gossip loop applies within each anti-entropy
    /// round (between rounds, the next tick is the retry).
    pub retry: RetryPolicy,
    /// On-disk durability (WAL + snapshot checkpoints) per node. When
    /// set, [`crash`](TcpCluster::crash) really drops the in-memory
    /// replica and [`revive`](TcpCluster::revive) recovers it from disk.
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
            loss_probability: 0.0,
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

impl TcpConfig {
    /// The fault plan gossip links run: `fault_plan` if set, else the
    /// `loss_probability` shorthand.
    pub fn effective_plan(&self) -> FaultPlan {
        self.fault_plan.clone().unwrap_or(FaultPlan::lossy(self.loss_probability))
    }

    pub(crate) fn gossip(&self) -> GossipConfig {
        GossipConfig {
            interval: self.gossip_interval,
            seed: self.seed,
            rng_salt: TCP_RNG_SALT,
            plan: self.effective_plan(),
            retry: self.retry.clone(),
            delta: self.delta_budget > 0,
            max_frame_items: self.max_frame_items,
        }
    }
}

/// How a socket runtime's gossip thread reaches a peer: a transport per
/// round, over the connection parked for that peer (see [`TcpTransport`]).
pub(crate) fn connector(
    addrs: Vec<SocketAddr>,
    socket: TcpSocketOptions,
) -> impl Fn(NodeId) -> TcpTransport {
    move |peer| TcpTransport::with_options(peer, addrs[peer.index()], socket)
}

struct TcpNode {
    replica: Mutex<Replica>,
    alive: AtomicBool,
    /// Counts crashes. A serve thread serves the incarnation that accepted
    /// its connection and no later one.
    incarnation: AtomicU64,
    /// The node's durability layer; `None` when durability is off, and
    /// also while a durable node is crashed (the WAL handle is dropped
    /// with the replica and reopened on revival).
    durability: Mutex<Option<Arc<NodeDurability>>>,
}

impl TcpNode {
    /// Run the checkpoint policy after a durable mutation. Takes the
    /// replica lock; call only from contexts that do not already hold it.
    fn after_mutation(&self) {
        let durability = self.durability.lock().clone();
        if let Some(d) = durability {
            let replica = self.replica.lock();
            d.maybe_checkpoint(&replica).expect("durable: checkpoint failed");
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

/// Set on every blocking socket end, connecting or accepted: the read and
/// write timeouts, and `TCP_NODELAY` — connections are long-lived, and a
/// frame that leaves in more than one `write` (a short vectored write on a
/// large frame) is otherwise the write-write-read pattern that Nagle's
/// algorithm and the peer's delayed ACK stall for 40 ms.
pub(crate) fn tune(stream: &TcpStream, options: &TcpSocketOptions) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(options.read_timeout))?;
    stream.set_write_timeout(Some(options.write_timeout))
}

/// What an idle served connection keeps of each of its buffers, at most.
pub(crate) const IDLE_KEEP: usize = 8 << 10;

/// A served connection now waits for its next request, possibly for
/// rounds on end: release what the last exchange pinned — the response's
/// refcounted value segments, and either buffer if it grew past
/// [`IDLE_KEEP`] (`unread` keeps the bytes in it). Smaller frames still
/// cost no allocation.
///
/// A response that outgrew `IDLE_KEEP` is sent in two steps around this
/// call — all but its last byte, then that byte — so that a large response
/// is off the responder's heap before the initiator has it whole and
/// starts on it, and not after or before as the scheduler has it. (Both
/// ends of the in-process clusters share one heap: its peak would
/// otherwise differ from run to run by the size of the largest response.)
pub(crate) fn idle_buffers(response: &mut Writer, unread: &mut Vec<u8>) {
    response.park(IDLE_KEEP);
    if unread.capacity() > IDLE_KEEP {
        unread.shrink_to_fit();
    }
}

/// A frame that did not cross the socket.
#[derive(Debug)]
pub(crate) struct FrameError {
    pub(crate) error: Error,
    /// The peer had closed the connection before this frame: a reset, EOF
    /// or broken pipe while sending, or before the first byte received.
    pub(crate) peer_closed: bool,
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
pub(crate) fn write_frame(
    stream: &mut TcpStream,
    w: &Writer,
) -> std::result::Result<(), FrameError> {
    write_frame_holding(stream, w, false).map(drop)
}

/// [`write_frame`], with the frame's last byte returned instead of sent
/// if `hold_last`.
fn write_frame_holding(
    stream: &mut TcpStream,
    w: &Writer,
    hold_last: bool,
) -> std::result::Result<Option<u8>, FrameError> {
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
    let mut held = None;
    if hold_last {
        let (&byte, rest) = bufs.pop().and_then(|b| b.split_last()).expect("no chunk is empty");
        held = Some(byte);
        if !rest.is_empty() {
            bufs.push(rest);
        }
    }
    write_all_vectored(stream, bufs).map_err(|e| FrameError::io("send frame", e, true))?;
    Ok(held)
}

/// Send the response a serve thread encoded into `response`, and put the
/// connection's buffers in their idle state (see [`idle_buffers`]).
pub(crate) fn send_response(
    stream: &mut TcpStream,
    response: &mut Writer,
    request: &mut Vec<u8>,
) -> std::result::Result<(), FrameError> {
    let held = write_frame_holding(stream, response, response.outgrew(IDLE_KEEP))?;
    request.clear();
    idle_buffers(response, request);
    match held {
        Some(byte) => stream.write_all(&[byte]).map_err(|e| FrameError::io("send frame", e, true)),
        None => Ok(()),
    }
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

/// A cluster of replicas gossiping over localhost TCP.
pub struct TcpCluster {
    nodes: Vec<Arc<TcpNode>>,
    addrs: Vec<SocketAddr>,
    running: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    config: TcpConfig,
}

impl TcpCluster {
    /// Bind `n_nodes` listeners on localhost and start gossiping.
    pub fn spawn(n_nodes: usize, n_items: usize, config: TcpConfig) -> Result<TcpCluster> {
        assert!(n_nodes >= 2);
        let running = Arc::new(AtomicBool::new(true));
        let nodes: Vec<Arc<TcpNode>> = (0..n_nodes)
            .map(|i| {
                let id = NodeId::from_index(i);
                let (durability, mut replica) = match &config.durability {
                    Some(cfg) => {
                        let (d, r) = open_durable_node(
                            cfg,
                            id,
                            n_nodes,
                            n_items,
                            config.delta_budget,
                            config.paranoid,
                        );
                        (Some(d), r)
                    }
                    None => {
                        let mut replica = Replica::new(id, n_nodes, n_items);
                        if config.delta_budget > 0 {
                            replica.enable_delta(config.delta_budget);
                        }
                        replica.set_paranoid(config.paranoid);
                        (None, replica)
                    }
                };
                replica.set_delta_frame_budget(config.delta_frame_bytes);
                Arc::new(TcpNode {
                    replica: Mutex::new(replica),
                    alive: AtomicBool::new(true),
                    incarnation: AtomicU64::new(0),
                    durability: Mutex::new(durability),
                })
            })
            .collect();

        // Bind all listeners first so every gossip thread knows every addr.
        let listeners: Vec<TcpListener> = (0..n_nodes)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()
            .map_err(|e| Error::Network(format!("bind: {e}")))?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<std::io::Result<_>>()
            .map_err(|e| Error::Network(format!("local_addr: {e}")))?;

        let mut handles = Vec::new();
        for (i, listener) in listeners.into_iter().enumerate() {
            // Listener thread.
            let node = nodes[i].clone();
            let run = running.clone();
            let socket = config.socket;
            handles.push(std::thread::spawn(move || server_loop(listener, node, run, socket)));
            // Gossip thread.
            let node = nodes[i].clone();
            let run = running.clone();
            let peer_addrs = addrs.clone();
            let me = NodeId::from_index(i);
            let cfg = config.clone();
            handles.push(std::thread::spawn(move || {
                let gossiped = Gossiped::Replica {
                    replica: &node.replica,
                    after_pull: &|| node.after_mutation(),
                };
                let connect = connector(peer_addrs, cfg.socket);
                gossip_loop(me, n_nodes, cfg.gossip(), &run, &node.alive, gossiped, connect)
            }));
        }
        Ok(TcpCluster { nodes, addrs, running, handles, config })
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The socket address a node's replica server listens on.
    pub fn addr(&self, node: NodeId) -> SocketAddr {
        self.addrs[node.index()]
    }

    /// Apply a user update at `node`.
    pub fn update(&self, node: NodeId, item: ItemId, op: UpdateOp) -> Result<()> {
        let n = self.checked(node)?;
        n.replica.lock().update(item, op)?;
        n.after_mutation();
        Ok(())
    }

    /// Read the user-visible value at `node`. A crashed durable node has
    /// no in-memory replica to serve from, so the read fails; without
    /// durability the surviving in-memory state is readable (the legacy
    /// simulation behaviour).
    pub fn read(&self, node: NodeId, item: ItemId) -> Result<Vec<u8>> {
        let n = self.nodes.get(node.index()).ok_or(Error::UnknownNode(node))?;
        if self.config.durability.is_some() && !n.alive.load(Ordering::SeqCst) {
            return Err(Error::NodeDown(node));
        }
        Ok(n.replica.lock().read(item)?.as_bytes().to_vec())
    }

    fn checked(&self, node: NodeId) -> Result<&Arc<TcpNode>> {
        let n = self.nodes.get(node.index()).ok_or(Error::UnknownNode(node))?;
        if !n.alive.load(Ordering::SeqCst) {
            return Err(Error::NodeDown(node));
        }
        Ok(n)
    }

    /// A new [`TcpTransport`] to `peer`'s server, with the cluster's
    /// socket options — for tests and harnesses that wrap it (in a
    /// [`ChaosTransport`], a reset shim, ...) and drive pulls through
    /// [`pull_now_via`](Self::pull_now_via).
    pub fn transport_to(&self, peer: NodeId) -> TcpTransport {
        TcpTransport::with_options(peer, self.addr(peer), self.config.socket)
    }

    /// Out-of-bound fetch over TCP, driven through the engine like every
    /// other exchange.
    pub fn oob_fetch(&self, recipient: NodeId, source: NodeId, item: ItemId) -> Result<OobOutcome> {
        if recipient == source {
            return Ok(OobOutcome::AlreadyCurrent);
        }
        self.checked(source)?;
        let node = self.checked(recipient)?;
        let mut transport = self.transport_to(source);
        let out = Engine::oob(&mut MutexHost(&node.replica), &mut transport, item)?;
        node.after_mutation();
        Ok(out)
    }

    /// Run one whole-item pull right now (`recipient` from `source`),
    /// bypassing the gossip schedule — deterministic schedules for tests.
    pub fn pull_now(&self, recipient: NodeId, source: NodeId) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let node = self.checked(recipient)?;
        let mut transport = self.transport_to(source);
        let out = Engine::pull(&mut MutexHost(&node.replica), &mut transport)?;
        node.after_mutation();
        Ok(out)
    }

    /// As [`pull_now`](Self::pull_now), in delta mode.
    pub fn pull_delta_now(&self, recipient: NodeId, source: NodeId) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let node = self.checked(recipient)?;
        let mut transport = self.transport_to(source);
        let out = Engine::pull_delta(&mut MutexHost(&node.replica), &mut transport)?;
        node.after_mutation();
        Ok(out)
    }

    /// As [`pull_now`](Self::pull_now), via digest-tree set
    /// reconciliation — the cold-start rung below whole-pull.
    pub fn pull_recon_now(&self, recipient: NodeId, source: NodeId) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let node = self.checked(recipient)?;
        let mut transport = self.transport_to(source);
        let out = Engine::pull_recon(&mut MutexHost(&node.replica), &mut transport)?;
        node.after_mutation();
        Ok(out)
    }

    /// Bound log-vector retention at `node` to `keep` records per
    /// (origin, item) component.
    pub fn set_log_retention(&self, node: NodeId, keep: usize) -> Result<()> {
        let node = self.checked(node)?;
        node.replica.lock().set_log_retention(keep);
        node.after_mutation();
        Ok(())
    }

    /// One whole-item pull at `recipient` over a caller-supplied
    /// transport (typically a wrapped [`transport_to`](Self::transport_to))
    /// with a retry policy.
    pub fn pull_now_via<T: Transport>(
        &self,
        recipient: NodeId,
        transport: &mut T,
        policy: &RetryPolicy,
    ) -> Result<PullOutcome> {
        let node = self.checked(recipient)?;
        let out = Engine::pull_with(&mut MutexHost(&node.replica), transport, policy)?;
        node.after_mutation();
        Ok(out)
    }

    /// As [`pull_now_via`](Self::pull_now_via), in delta mode (with the
    /// engine's delta-to-whole degradation ladder on retryable failures).
    pub fn pull_delta_now_via<T: Transport>(
        &self,
        recipient: NodeId,
        transport: &mut T,
        policy: &RetryPolicy,
    ) -> Result<PullOutcome> {
        let node = self.checked(recipient)?;
        let out = Engine::pull_delta_with(&mut MutexHost(&node.replica), transport, policy)?;
        node.after_mutation();
        Ok(out)
    }

    /// One whole-item pull through a caller-owned [`ChaosLink`] — the
    /// chaos-soak entry point, as on
    /// [`ThreadedCluster`](crate::ThreadedCluster).
    pub fn pull_now_chaos(
        &self,
        recipient: NodeId,
        source: NodeId,
        link: &mut ChaosLink,
        policy: &RetryPolicy,
    ) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let mut transport = ChaosTransport::new(self.transport_to(source), link);
        self.pull_now_via(recipient, &mut transport, policy)
    }

    /// As [`pull_now_chaos`](Self::pull_now_chaos), in delta mode.
    pub fn pull_delta_now_chaos(
        &self,
        recipient: NodeId,
        source: NodeId,
        link: &mut ChaosLink,
        policy: &RetryPolicy,
    ) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let mut transport = ChaosTransport::new(self.transport_to(source), link);
        self.pull_delta_now_via(recipient, &mut transport, policy)
    }

    /// Crash a node: it refuses connections and stops gossiping while
    /// down, and the connections it had accepted die with it — each is
    /// closed unanswered at its next frame, also after a revival. With
    /// durability configured, the in-memory replica is really dropped
    /// (only the on-disk WAL + snapshot survive); without it, the replica
    /// survives in memory (the legacy simulation).
    pub fn crash(&self, node: NodeId) {
        let n = &self.nodes[node.index()];
        n.alive.store(false, Ordering::SeqCst);
        n.incarnation.fetch_add(1, Ordering::SeqCst);
        if self.config.durability.is_some() {
            let placeholder =
                Replica::new(node, self.n_nodes(), self.with_replica(node, Replica::n_items));
            *n.replica.lock() = placeholder;
            *n.durability.lock() = None;
        }
    }

    /// Revive a crashed node; with durability configured, the replica is
    /// first reconstructed from its on-disk snapshot + WAL, then
    /// anti-entropy brings it the rest of the way up to date.
    pub fn revive(&self, node: NodeId) {
        let n = &self.nodes[node.index()];
        if let Some(cfg) = &self.config.durability {
            let (durability, mut replica) = open_durable_node(
                cfg,
                node,
                self.n_nodes(),
                self.with_replica(node, Replica::n_items),
                self.config.delta_budget,
                self.config.paranoid,
            );
            replica.set_delta_frame_budget(self.config.delta_frame_bytes);
            *n.replica.lock() = replica;
            *n.durability.lock() = Some(durability);
        }
        n.alive.store(true, Ordering::SeqCst);
    }

    /// Run a closure over a locked replica.
    pub fn with_replica<T>(&self, node: NodeId, f: impl FnOnce(&Replica) -> T) -> T {
        f(&self.nodes[node.index()].replica.lock())
    }

    /// Wait until all alive replicas hold equal DBVVs and no auxiliary
    /// state remains, or the deadline passes. See
    /// [`TcpCluster::try_quiesce`] for the typed form.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.try_quiesce(timeout).is_ok()
    }

    /// As [`TcpCluster::quiesce`], surfacing a timeout as the typed
    /// [`Error::DeadlineExceeded`]. Probe pacing follows the shared
    /// [`RetryPolicy`] backoff.
    pub fn try_quiesce(&self, timeout: Duration) -> Result<()> {
        crate::runtime::quiesce_policy(self.config.gossip_interval).poll_until(
            "quiescence",
            timeout,
            || self.is_quiescent(),
        )
    }

    fn is_quiescent(&self) -> bool {
        let alive: Vec<&Arc<TcpNode>> =
            self.nodes.iter().filter(|n| n.alive.load(Ordering::SeqCst)).collect();
        if alive.len() < 2 {
            return true;
        }
        let first = alive[0].replica.lock();
        let reference = first.dbvv().clone();
        let head_ok = first.aux_item_count() == 0;
        drop(first);
        head_ok
            && alive[1..].iter().all(|n| {
                let r = n.replica.lock();
                r.aux_item_count() == 0 && r.dbvv().compare(&reference) == VvOrd::Equal
            })
    }

    /// Stop all threads and return the final replicas (journal sinks
    /// detached — the clones are for inspection, not for appending to the
    /// cluster's WALs).
    pub fn shutdown(mut self) -> Vec<Replica> {
        self.stop();
        self.nodes
            .iter()
            .map(|n| {
                let mut r = n.replica.lock().clone();
                r.set_mutation_sink(None);
                r
            })
            .collect()
    }

    fn stop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        // Unblock every accept loop with a dummy connection.
        for addr in &self.addrs {
            let _ = TcpStream::connect_timeout(addr, Duration::from_millis(200));
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // With the gossip threads gone nothing parks a connection to this
        // cluster again; closing the parked ones ends the serve threads
        // blocked reading them.
        pool::evict(&self.addrs);
    }
}

impl Drop for TcpCluster {
    fn drop(&mut self) {
        if self.running.load(Ordering::SeqCst) {
            self.stop();
        }
    }
}

fn server_loop(
    listener: TcpListener,
    node: Arc<TcpNode>,
    running: Arc<AtomicBool>,
    socket: TcpSocketOptions,
) {
    while running.load(Ordering::SeqCst) {
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        if !running.load(Ordering::SeqCst) {
            return;
        }
        let node = node.clone();
        let run = running.clone();
        std::thread::spawn(move || serve_conn(stream, node, run, socket));
    }
}

/// Fold a serving-side error into its wire form: typed routing refusals
/// (`NotServedHere`, `ShardMoving`) ride in-band as
/// [`ProtocolResponse::Refused`] so the initiator recovers the original
/// error (and its retryability); everything else degrades to the stringly
/// [`ProtocolResponse::Error`].
pub(crate) fn refusal_or_error(e: Error) -> ProtocolResponse {
    match e {
        e @ (Error::NotServedHere { .. } | Error::ShardMoving(_)) => ProtocolResponse::Refused(e),
        e => ProtocolResponse::Error(e.to_string()),
    }
}

/// Serve one connection: a loop of request frame → [`Engine::handle`] →
/// response frame, until the peer closes it or leaves it idle for
/// `read_timeout`. A node that crashed since the connection was accepted
/// drops it without replying. A request that fails its CRC is counted at
/// the serving replica and refused in-band — the initiator sees a
/// retryable error and re-sends.
fn serve_conn(
    mut stream: TcpStream,
    node: Arc<TcpNode>,
    running: Arc<AtomicBool>,
    socket: TcpSocketOptions,
) {
    let _ = tune(&stream, &socket);
    let born = node.incarnation.load(Ordering::SeqCst);
    // Per-connection reusable buffers: request frames land in `body`,
    // responses encode into `writer` — in steady state a served exchange
    // allocates nothing on the control path and ships values as refcounted
    // segments in one vectored write.
    let mut body = Vec::new();
    let mut writer = Writer::new();
    loop {
        if !running.load(Ordering::SeqCst) || !node.alive.load(Ordering::SeqCst) {
            return;
        }
        if read_frame_into(&mut stream, &mut body).is_err() {
            return; // peer closed, timed out, or sent garbage
        }
        if !node.alive.load(Ordering::SeqCst) || node.incarnation.load(Ordering::SeqCst) != born {
            return; // crashed between frames: silently drop
        }
        let resp = match decode_request_checked(&body) {
            Ok(req) => {
                Engine::handle(&mut node.replica.lock(), req).unwrap_or_else(refusal_or_error)
            }
            Err(e) => {
                if matches!(e, Error::CorruptFrame(_)) {
                    node.replica.lock().note_corrupt_frame();
                }
                ProtocolResponse::Error(format!("bad request: {e}"))
            }
        };
        encode_response_to(&resp, &mut writer);
        if send_response(&mut stream, &mut writer, &mut body).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_converge_over_real_sockets() {
        let cluster = TcpCluster::spawn(
            3,
            50,
            TcpConfig { gossip_interval: Duration::from_millis(2), ..TcpConfig::default() },
        )
        .unwrap();
        for i in 0..12u32 {
            cluster
                .update(NodeId((i % 3) as u16), ItemId(i), UpdateOp::set(vec![i as u8 + 1]))
                .unwrap();
        }
        assert!(cluster.quiesce(Duration::from_secs(30)), "no quiescence over TCP");
        for i in 0..12u32 {
            for node in 0..3u16 {
                assert_eq!(cluster.read(NodeId(node), ItemId(i)).unwrap(), vec![i as u8 + 1]);
            }
        }
        let replicas = cluster.shutdown();
        for r in &replicas {
            r.check_invariants().unwrap();
            assert_eq!(r.costs().conflicts_detected, 0);
        }
    }

    #[test]
    fn oob_fetch_over_tcp() {
        let cluster = TcpCluster::spawn(
            2,
            10,
            TcpConfig { gossip_interval: Duration::from_secs(60), ..TcpConfig::default() },
        )
        .unwrap();
        cluster.update(NodeId(0), ItemId(1), UpdateOp::set(&b"wire"[..])).unwrap();
        let out = cluster.oob_fetch(NodeId(1), NodeId(0), ItemId(1)).unwrap();
        assert_eq!(out, OobOutcome::Adopted { from_aux: false });
        assert_eq!(cluster.read(NodeId(1), ItemId(1)).unwrap(), b"wire");
        cluster.shutdown();
    }

    #[test]
    fn crashed_node_refuses_and_recovers() {
        // Durable mode: the crash drops the in-memory replica; revival
        // recovers from the node's own WAL, then catches up via gossip.
        let tmp = epidb_durable::testdir::TempDir::new("tcp-crash");
        let cluster = TcpCluster::spawn(
            3,
            20,
            TcpConfig {
                gossip_interval: Duration::from_millis(2),
                durability: Some(DurabilityConfig::new(tmp.path().clone())),
                ..TcpConfig::default()
            },
        )
        .unwrap();
        cluster.update(NodeId(2), ItemId(5), UpdateOp::set(&b"pre-crash"[..])).unwrap();
        assert!(cluster.quiesce(Duration::from_secs(30)));
        cluster.crash(NodeId(2));
        assert!(matches!(cluster.read(NodeId(2), ItemId(5)), Err(Error::NodeDown(NodeId(2)))));
        cluster.update(NodeId(0), ItemId(0), UpdateOp::set(&b"while-down"[..])).unwrap();
        assert!(cluster.quiesce(Duration::from_secs(30)));
        cluster.revive(NodeId(2));
        assert!(cluster.quiesce(Duration::from_secs(30)));
        assert_eq!(cluster.read(NodeId(2), ItemId(5)).unwrap(), b"pre-crash");
        assert_eq!(cluster.read(NodeId(2), ItemId(0)).unwrap(), b"while-down");
        let replicas = cluster.shutdown();
        for r in &replicas {
            r.check_invariants().unwrap();
        }
    }

    #[test]
    fn crashed_node_stays_stale_without_durability() {
        let cluster = TcpCluster::spawn(
            3,
            20,
            TcpConfig { gossip_interval: Duration::from_millis(2), ..TcpConfig::default() },
        )
        .unwrap();
        cluster.crash(NodeId(2));
        cluster.update(NodeId(0), ItemId(0), UpdateOp::set(&b"while-down"[..])).unwrap();
        assert!(cluster.quiesce(Duration::from_secs(30)));
        assert_eq!(cluster.read(NodeId(2), ItemId(0)).unwrap(), b"");
        cluster.revive(NodeId(2));
        assert!(cluster.quiesce(Duration::from_secs(30)));
        assert_eq!(cluster.read(NodeId(2), ItemId(0)).unwrap(), b"while-down");
        cluster.shutdown();
    }

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
    fn both_ends_of_a_served_connection_set_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let accepted = stream.try_clone().unwrap();
            let node = Arc::new(TcpNode {
                replica: Mutex::new(Replica::new(NodeId(0), 2, 4)),
                alive: AtomicBool::new(true),
                incarnation: AtomicU64::new(0),
                durability: Mutex::new(None),
            });
            let running = Arc::new(AtomicBool::new(true));
            // Returns when the initiator closes its end.
            serve_conn(stream, node, running, TcpSocketOptions::default());
            accepted
        });
        let mut transport = TcpTransport::new(NodeId(0), addr);
        let dbvv = Replica::new(NodeId(1), 2, 4).dbvv().clone();
        transport.exchange(ProtocolRequest::Pull { from: NodeId(1), dbvv }).unwrap();
        let connected = transport.stream.as_ref().expect("kept after a completed exchange");
        assert!(connected.nodelay().unwrap(), "the connecting end left Nagle's algorithm on");
        transport.reset();
        let accepted = server.join().unwrap();
        assert!(accepted.nodelay().unwrap(), "the accepted end left Nagle's algorithm on");
    }

    #[test]
    fn coalesced_delta_gossip_over_tcp_converges() {
        // Tight budgets on both ends: at most 2 wants per fetch frame and
        // a 64-byte responder payload budget — the round chunks and
        // re-requests its way to the same converged state.
        let cluster = TcpCluster::spawn(
            3,
            20,
            TcpConfig {
                gossip_interval: Duration::from_millis(2),
                delta_budget: 1 << 20,
                max_frame_items: 2,
                delta_frame_bytes: 64,
                ..TcpConfig::default()
            },
        )
        .unwrap();
        for i in 0..10u32 {
            cluster
                .update(NodeId((i % 3) as u16), ItemId(i), UpdateOp::set(vec![i as u8; 48]))
                .unwrap();
        }
        assert!(cluster.quiesce(Duration::from_secs(30)), "no quiescence with tight budgets");
        for i in 0..10u32 {
            for node in 0..3u16 {
                assert_eq!(cluster.read(NodeId(node), ItemId(i)).unwrap(), vec![i as u8; 48]);
            }
        }
        let replicas = cluster.shutdown();
        for r in &replicas {
            r.check_invariants().unwrap();
        }
    }

    #[test]
    fn delta_gossip_over_tcp_converges() {
        let cluster = TcpCluster::spawn(
            3,
            20,
            TcpConfig {
                gossip_interval: Duration::from_millis(2),
                delta_budget: 1 << 20,
                ..TcpConfig::default()
            },
        )
        .unwrap();
        for i in 0..6u32 {
            cluster
                .update(NodeId((i % 3) as u16), ItemId(i), UpdateOp::set(vec![i as u8; 32]))
                .unwrap();
        }
        assert!(cluster.quiesce(Duration::from_secs(30)), "no quiescence in TCP delta mode");
        let replicas = cluster.shutdown();
        for r in &replicas {
            r.check_invariants().unwrap();
        }
    }
}
