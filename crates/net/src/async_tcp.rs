//! Nonblocking C10K runtime: an epoll readiness loop driving thousands of
//! peer connections from a small fixed worker pool, with group-commit
//! durability shared by every replica on the node.
//!
//! The thread-per-connection [`TcpCluster`](crate::TcpCluster) spends one
//! OS thread (stack, scheduler slot) per accepted socket; at C10K scale
//! that is the bottleneck, not the protocol. This runtime serves the same
//! framed protocol — identical bytes, identical
//! [`Costs`](epidb_common::Costs) — from `worker_threads` workers sharing
//! one [`Poller`]: idle connections are parked in the kernel, a readiness
//! event resumes exactly one worker on exactly one connection (oneshot
//! registration), and frame reads/writes proceed incrementally through
//! per-connection buffers until they would block. Complete request frames
//! dispatch into the transport-agnostic [`Engine`] — unsharded via
//! [`Engine::handle`], sharded via [`Engine::handle_sharded`] — so no
//! protocol code knows which runtime carried its bytes.
//!
//! Initiators stay blocking clients, as in `TcpCluster`: a
//! [`TcpTransport`] per round over the connection parked for the peer, so
//! between rounds each link is one idle socket in the peer's reactor. A
//! crash closes the crashed node's accepted connections
//! ([`AsyncServer::close_connections`]); the initiators find out at their
//! next exchange and reconnect.
//!
//! Durability is the group-commit [`GroupWal`]: every mutation journals
//! into one per-node WAL stream through a commit queue, a single
//! committer thread batches queued records and fsyncs once per batch, and
//! an update is acknowledged only after [`GroupWal::wait_durable`] — so
//! under concurrent writers the fsyncs-per-mutation ratio collapses far
//! below one while acked-implies-durable still holds.

use std::collections::HashMap;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use epidb_common::{Error, ItemId, NodeId, Result};
use epidb_core::codec::{
    check_frame_len, decode_request_checked, encode_response_to, Writer, CHECKED_HEADER, MAX_FRAME,
};
use epidb_core::{
    ChaosLink, ChaosTransport, ConflictPolicy, Engine, OobOutcome, ProtocolResponse, PullOutcome,
    Replica, RetryPolicy, ShardedNode, Transport,
};
use epidb_durable::{DurabilityConfig, GroupCommitStats, GroupWal, StreamSpec};
use epidb_store::UpdateOp;
use epidb_vv::VvOrd;
use parking_lot::Mutex;
use polling::{Event, Interest, Notify, Poller};

use crate::gossip::{gossip_loop, Gossiped};
use crate::tcp::{connector, idle_buffers, refusal_or_error, TcpConfig, TcpTransport, IDLE_KEEP};
use crate::transport::MutexHost;

/// Serves one request-frame body and encodes the response. This is the
/// seam between the reactor (bytes, readiness, buffers) and the protocol
/// ([`Engine`]): the reactor never decodes a frame, a service never sees
/// a socket.
pub trait FrameService: Send + Sync + 'static {
    /// Whether the service still accepts requests; a `false` tears down
    /// the connection without replying (crashed-node semantics).
    fn alive(&self) -> bool {
        true
    }

    /// Serve one request frame (`body` is the checked envelope: CRC32 +
    /// encoding), encoding the response into `out`. Return `false` to
    /// drop the connection without replying.
    fn serve(&self, body: &[u8], out: &mut Writer) -> bool;
}

/// [`FrameService`] over a sharded node: frames dispatch through
/// [`Engine::handle_sharded`], so only `Shard`-enveloped requests are
/// served — the reactor carries sharded and unsharded traffic with the
/// same byte loop.
pub struct ShardedFrameService {
    node: Mutex<ShardedNode>,
}

impl ShardedFrameService {
    /// Wrap a sharded node for serving.
    pub fn new(node: ShardedNode) -> ShardedFrameService {
        ShardedFrameService { node: Mutex::new(node) }
    }

    /// Run a closure over the locked node (for harness-side inspection
    /// and updates).
    pub fn with_node<T>(&self, f: impl FnOnce(&mut ShardedNode) -> T) -> T {
        f(&mut self.node.lock())
    }
}

impl FrameService for ShardedFrameService {
    fn serve(&self, body: &[u8], out: &mut Writer) -> bool {
        let resp = match decode_request_checked(body) {
            Ok(req) => {
                Engine::handle_sharded(&mut self.node.lock(), req).unwrap_or_else(refusal_or_error)
            }
            Err(e) => ProtocolResponse::Error(format!("bad request: {e}")),
        };
        encode_response_to(&resp, out);
        true
    }
}

/// Reserved poller key for the shutdown doorbell.
const NOTIFY_KEY: u64 = 0;

/// How long a worker sleeps in `wait` with no readiness — the shutdown
/// latency bound for workers the doorbell does not reach.
const WAIT_SLICE: Duration = Duration::from_millis(200);

/// One parked connection: the nonblocking socket plus enough state to
/// resume a half-read request or half-written response on the next
/// readiness event, from any worker.
struct Conn {
    stream: TcpStream,
    service: Arc<dyn FrameService>,
    /// Index of the listener that accepted it, and that listener's
    /// generation at the time: the connection is closed once they differ.
    listener: usize,
    generation: u64,
    /// Accumulated request bytes; complete frames are drained off the
    /// front. Reused across frames; see [`idle_buffers`] for how far it
    /// and `writer` shrink once a response has left.
    read_buf: Vec<u8>,
    /// Response encoder, reused across frames (its chunks are the
    /// response body; values ride as refcounted segments, uncopied).
    writer: Writer,
    /// Response frame header: 4-byte LE length + 4-byte LE CRC32.
    head: [u8; 8],
    /// Bytes of `head` + chunks already written to the socket.
    written: usize,
    /// The response's last byte, when it is all that is left to write.
    held: Option<u8>,
    /// A response is in flight; reads are deferred until it drains (the
    /// protocol is strictly request/response per connection, so this is
    /// also the natural backpressure).
    writing: bool,
}

/// What to do with a connection after driving it.
enum Drive {
    /// Park it again with this interest.
    Keep(Interest),
    /// Deregister and close it.
    Close,
}

impl Conn {
    fn new(stream: TcpStream, accepted_by: &Listener, listener: usize) -> Conn {
        Conn {
            stream,
            service: accepted_by.service.clone(),
            listener,
            generation: accepted_by.generation.load(Ordering::SeqCst),
            read_buf: Vec::new(),
            writer: Writer::new(),
            head: [0u8; 8],
            written: 0,
            held: None,
            writing: false,
        }
    }

    /// Resume this connection on a readiness event: flush any pending
    /// response, read what the socket has, serve every complete frame,
    /// and report how to park it (or that it is done).
    fn drive(&mut self, scratch: &mut [u8]) -> Drive {
        if !self.service.alive() {
            return Drive::Close;
        }
        if self.writing && self.flush().is_err() {
            return Drive::Close;
        }
        if !self.writing {
            match self.fill(scratch) {
                Ok(()) => {}
                Err(()) => return Drive::Close,
            }
            if self.pump().is_err() {
                return Drive::Close;
            }
        }
        Drive::Keep(if self.writing { Interest::writable() } else { Interest::readable() })
    }

    /// Read until the socket would block, appending to `read_buf`.
    fn fill(&mut self, scratch: &mut [u8]) -> std::result::Result<(), ()> {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Err(()), // peer closed
                Ok(n) => self.read_buf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
    }

    /// Serve every complete frame in `read_buf`, opportunistically
    /// flushing each response; stops at a partial frame or a response the
    /// socket would not take whole.
    fn pump(&mut self) -> std::result::Result<(), ()> {
        loop {
            if self.writing {
                self.flush()?;
                if self.writing {
                    return Ok(()); // wait for writability
                }
            }
            if self.read_buf.len() < 4 {
                return Ok(());
            }
            let len = u32::from_le_bytes(self.read_buf[..4].try_into().expect("4 bytes"));
            if len > MAX_FRAME {
                return Err(()); // non-conforming peer; desynchronized
            }
            let total = 4 + len as usize;
            if self.read_buf.len() < total {
                return Ok(());
            }
            let served = self.service.serve(&self.read_buf[4..total], &mut self.writer);
            self.read_buf.drain(..total);
            if !served {
                return Err(());
            }
            let frame_len = check_frame_len(self.writer.len() + CHECKED_HEADER).map_err(|_| ())?;
            self.head[..4].copy_from_slice(&frame_len.to_le_bytes());
            self.head[4..].copy_from_slice(&self.writer.crc32().to_le_bytes());
            self.written = 0;
            self.writing = true;
        }
    }

    /// Write as much of the pending response as the socket takes: one
    /// vectored write over the unwritten suffix of header + chunks per
    /// iteration, resuming at `written` after a short write or a park.
    /// Then the buffers go idle; a response large enough to be given back
    /// there has its last byte sent after that (see [`idle_buffers`]).
    fn flush(&mut self) -> std::result::Result<(), ()> {
        if self.held.is_none() {
            let hold = self.writer.outgrew(IDLE_KEEP);
            let upto = self.head.len() + self.writer.len() - usize::from(hold);
            while self.written < upto {
                let mut skip = self.written;
                let mut left = upto - self.written;
                let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(8);
                for buf in std::iter::once(&self.head[..]).chain(self.writer.chunks()) {
                    if skip >= buf.len() {
                        skip -= buf.len();
                        continue;
                    }
                    let part = &buf[skip..];
                    let part = &part[..part.len().min(left)];
                    if part.is_empty() {
                        break;
                    }
                    iov.push(IoSlice::new(part));
                    left -= part.len();
                    skip = 0;
                }
                match write_some(&mut self.stream, &iov)? {
                    Some(n) => self.written += n,
                    None => return Ok(()), // still writing
                }
            }
            if hold {
                self.held = self.writer.chunks().last().and_then(|chunk| chunk.last().copied());
            }
            self.written = 0;
            idle_buffers(&mut self.writer, &mut self.read_buf);
        }
        if let Some(byte) = self.held {
            if write_some(&mut self.stream, &[IoSlice::new(&[byte])])?.is_none() {
                return Ok(()); // still writing
            }
            self.held = None;
        }
        self.writing = false;
        Ok(())
    }
}

/// One nonblocking vectored write: the bytes the socket took, or `None` if
/// it would block.
fn write_some(
    stream: &mut TcpStream,
    iov: &[IoSlice<'_>],
) -> std::result::Result<Option<usize>, ()> {
    loop {
        match stream.write_vectored(iov) {
            Ok(0) => return Err(()),
            Ok(n) => return Ok(Some(n)),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
}

/// A listening socket, the service its connections are served by, and how
/// many times those connections have been closed wholesale.
struct Listener {
    socket: TcpListener,
    service: Arc<dyn FrameService>,
    generation: AtomicU64,
}

/// The shared readiness state: one poller, the listeners, and the parked
/// connections. Workers own a connection exclusively while driving it —
/// oneshot registration guarantees only one worker is woken for it, and
/// removing it from `conns` for the duration keeps the map's lock scope
/// to a lookup, never an I/O operation.
struct Reactor {
    poller: Poller,
    notify: Notify,
    listeners: Vec<Listener>,
    conns: Mutex<HashMap<u64, Conn>>,
    next_key: AtomicU64,
    running: Arc<AtomicBool>,
}

impl Reactor {
    /// Accept everything pending on listener `key`, register each new
    /// connection, and re-arm the listener.
    fn accept_ready(&self, key: u64) {
        let index = (key - 1) as usize;
        let listener = &self.listeners[index];
        loop {
            match listener.socket.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let conn_key = self.next_key.fetch_add(1, Ordering::Relaxed);
                    // `Conn::new` reads the generation with the map locked,
                    // as `close_accepted` sweeps it: none slips between.
                    self.conns.lock().insert(conn_key, Conn::new(stream, listener, index));
                    if self.poller.add(fd, conn_key, Interest::readable()).is_err() {
                        self.conns.lock().remove(&conn_key);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        let _ = self.poller.modify(listener.socket.as_raw_fd(), key, Interest::readable());
    }

    /// Close every connection `listener` has accepted so far.
    fn close_accepted(&self, listener: usize) {
        // The generation moves before the map is swept: a connection a
        // worker is driving right now is not in the map, and that worker
        // compares generations under the same lock before it parks it.
        self.listeners[listener].generation.fetch_add(1, Ordering::SeqCst);
        let closed: Vec<(u64, Conn)> =
            self.conns.lock().extract_if(|_, conn| conn.listener == listener).collect();
        for (_, conn) in &closed {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
        }
    }

    /// Drive the connection under `key` through one readiness event.
    fn conn_ready(&self, key: u64, scratch: &mut [u8]) {
        // Already closed (or claimed by a racing stale event): nothing to do.
        let Some(mut conn) = self.conns.lock().remove(&key) else {
            return;
        };
        match conn.drive(scratch) {
            Drive::Keep(interest) => {
                let fd = conn.stream.as_raw_fd();
                let mut conns = self.conns.lock();
                let generation = &self.listeners[conn.listener].generation;
                if conn.generation != generation.load(Ordering::SeqCst) {
                    // `close_accepted` swept the map while this one was
                    // out of it being driven.
                    drop(conns);
                    let _ = self.poller.delete(fd);
                    return;
                }
                // Insert *before* re-arming: the instant `modify` lands,
                // another worker may be woken for this key and must find
                // the connection in the map.
                conns.insert(key, conn);
                drop(conns);
                if self.poller.modify(fd, key, interest).is_err() {
                    if let Some(dead) = self.conns.lock().remove(&key) {
                        let _ = self.poller.delete(dead.stream.as_raw_fd());
                    }
                }
            }
            Drive::Close => {
                let _ = self.poller.delete(conn.stream.as_raw_fd());
                // Dropping the Conn closes the socket.
            }
        }
    }
}

fn worker_loop(reactor: Arc<Reactor>) {
    let mut events: Vec<Event> = Vec::new();
    // Per-worker read scratch: sockets drain through this before the
    // bytes land in the owning connection's buffer.
    let mut scratch = vec![0u8; 64 << 10];
    let n_listeners = reactor.listeners.len() as u64;
    while reactor.running.load(Ordering::SeqCst) {
        if reactor.poller.wait(&mut events, Some(WAIT_SLICE)).is_err() {
            return;
        }
        for &ev in &events {
            if ev.key == NOTIFY_KEY {
                // Shutdown doorbell: left undrained on purpose, so its
                // level-triggered readiness keeps waking the remaining
                // workers until every one has seen `running == false`.
                continue;
            }
            if ev.key <= n_listeners {
                reactor.accept_ready(ev.key);
            } else {
                reactor.conn_ready(ev.key, &mut scratch);
            }
        }
    }
}

/// The effective worker count: explicit if nonzero, else a small pool
/// sized to the machine (2–8). The point of the runtime is that this
/// number does **not** scale with connections.
fn effective_workers(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(2).clamp(2, 8)
    }
}

/// A nonblocking frame server: one listener per [`FrameService`], all
/// served by a fixed worker pool over a shared [`Poller`]. This is the
/// reactor alone — [`AsyncTcpCluster`] composes it with replicas, gossip,
/// and durability; sharded deployments can serve a
/// [`ShardedFrameService`] through it directly.
pub struct AsyncServer {
    reactor: Arc<Reactor>,
    workers: Vec<JoinHandle<()>>,
    addrs: Vec<SocketAddr>,
    running: Arc<AtomicBool>,
}

impl AsyncServer {
    /// Bind one localhost listener per service and start `worker_threads`
    /// workers (0 = size to the machine, 2–8).
    pub fn bind(
        services: Vec<Arc<dyn FrameService>>,
        worker_threads: usize,
    ) -> Result<AsyncServer> {
        let net_err = |what: &str, e: std::io::Error| Error::Network(format!("{what}: {e}"));
        let running = Arc::new(AtomicBool::new(true));
        let mut listeners = Vec::with_capacity(services.len());
        let mut addrs = Vec::with_capacity(services.len());
        for service in services {
            let listener =
                TcpListener::bind("127.0.0.1:0").map_err(|e| net_err("async bind", e))?;
            listener.set_nonblocking(true).map_err(|e| net_err("async nonblocking", e))?;
            addrs.push(listener.local_addr().map_err(|e| net_err("async local_addr", e))?);
            listeners.push(Listener { socket: listener, service, generation: AtomicU64::new(0) });
        }
        let poller = Poller::new().map_err(|e| net_err("epoll create", e))?;
        let notify = Notify::new().map_err(|e| net_err("eventfd create", e))?;
        poller
            .add(notify.fd(), NOTIFY_KEY, Interest::readable().level())
            .map_err(|e| net_err("register doorbell", e))?;
        for (i, listener) in listeners.iter().enumerate() {
            poller
                .add(listener.socket.as_raw_fd(), (i + 1) as u64, Interest::readable())
                .map_err(|e| net_err("register listener", e))?;
        }
        let first_conn_key = listeners.len() as u64 + 1;
        let reactor = Arc::new(Reactor {
            poller,
            notify,
            listeners,
            conns: Mutex::new(HashMap::new()),
            next_key: AtomicU64::new(first_conn_key),
            running: running.clone(),
        });
        let workers = (0..effective_workers(worker_threads))
            .map(|i| {
                let reactor = reactor.clone();
                std::thread::Builder::new()
                    .name(format!("epidb-async-{i}"))
                    .spawn(move || worker_loop(reactor))
                    .expect("spawn async worker")
            })
            .collect();
        Ok(AsyncServer { reactor, workers, addrs, running })
    }

    /// The bound address of each service's listener, in bind order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// How many workers serve all connections.
    pub fn worker_threads(&self) -> usize {
        self.workers.len()
    }

    /// Connections currently parked or being driven.
    pub fn open_connections(&self) -> usize {
        self.reactor.conns.lock().len()
    }

    /// Close every connection accepted so far for the `service`-th
    /// service (bind order): what a crash of that service does to its
    /// sockets. The listener stays open; a connection accepted later is
    /// served (or refused, while [`FrameService::alive`] is false) as ever.
    pub fn close_connections(&self, service: usize) {
        self.reactor.close_accepted(service);
    }

    /// Stop the workers and close every connection.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        // Level-triggered and never drained: stays readable, waking every
        // worker out of `wait` until all have exited.
        self.reactor.notify.notify();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.reactor.conns.lock().clear();
        // The initiator ends of those connections, where this process
        // holds them.
        crate::pool::evict(&self.addrs);
    }
}

impl Drop for AsyncServer {
    fn drop(&mut self) {
        if self.running.load(Ordering::SeqCst) {
            self.stop();
        }
    }
}

/// Tuning for [`AsyncTcpCluster`]: the shared [`TcpConfig`] knobs plus
/// the worker-pool size. With `base.durability` set, durability is the
/// group-commit [`GroupWal`] (not the per-node
/// [`NodeDurability`](epidb_durable::NodeDurability) the thread-per-
/// connection cluster uses).
#[derive(Clone, Debug, Default)]
pub struct AsyncTcpConfig {
    /// Protocol, gossip, fault, socket, and durability knobs — shared
    /// with [`TcpCluster`](crate::TcpCluster) so the two runtimes are
    /// interchangeable in harnesses.
    pub base: TcpConfig,
    /// Reactor worker threads (0 = size to the machine, 2–8). Total
    /// serving threads never scale with connection count.
    pub worker_threads: usize,
}

/// One replica served by the reactor, with group-commit durability.
pub struct AsyncNode {
    replica: Mutex<Replica>,
    alive: AtomicBool,
    /// The node's group-commit WAL; `None` without durability, and while
    /// a durable node is crashed (the handle is dropped with the replica
    /// and reopened on revival).
    durable: Mutex<Option<Arc<GroupWal>>>,
}

impl AsyncNode {
    /// Group-commit ack gate plus checkpoint policy, after any mutation.
    /// Blocks until the committer's fsync covers everything this node has
    /// journaled, then runs the byte/record checkpoint triggers. Takes
    /// the replica lock; call only from contexts not holding it.
    fn after_mutation(&self) {
        let durable = self.durable.lock().clone();
        if let Some(wal) = durable {
            wal.wait_durable();
            let replica = self.replica.lock();
            wal.maybe_checkpoint(&[&replica]).expect("durable: checkpoint failed");
        }
    }
}

impl FrameService for AsyncNode {
    fn alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    fn serve(&self, body: &[u8], out: &mut Writer) -> bool {
        if !self.alive() {
            return false;
        }
        let resp = match decode_request_checked(body) {
            Ok(req) => {
                Engine::handle(&mut self.replica.lock(), req).unwrap_or_else(refusal_or_error)
            }
            Err(e) => {
                if matches!(e, Error::CorruptFrame(_)) {
                    self.replica.lock().note_corrupt_frame();
                }
                ProtocolResponse::Error(format!("bad request: {e}"))
            }
        };
        // Ack gate: if serving journaled anything, the response may not
        // leave before the covering fsync. (Pure serves are read-only at
        // the responder, so this is normally a no-wait.)
        let durable = self.durable.lock().clone();
        if let Some(wal) = durable {
            wal.wait_durable();
        }
        encode_response_to(&resp, out);
        true
    }
}

/// Recover (or freshly create) one node's replica backed by the shared
/// group-commit WAL, sink attached.
fn open_group_node(
    cfg: &DurabilityConfig,
    id: NodeId,
    n_nodes: usize,
    n_items: usize,
    delta_budget: usize,
    paranoid: bool,
) -> (Arc<GroupWal>, Replica) {
    // As with `NodeDurability::open_with`, policy and delta budget are
    // journaled into the WAL header — the arguments are fresh-start
    // defaults and recovery is config-free.
    let (wal, mut replicas, _report) = GroupWal::open(
        cfg,
        cfg.node_dir(id),
        &[StreamSpec { id, n_nodes, n_items }],
        ConflictPolicy::Report,
        delta_budget,
    )
    .expect("durable: group recovery failed");
    let mut replica = replicas.pop().expect("exactly one stream");
    replica.set_paranoid(paranoid);
    wal.attach(0, &mut replica);
    (wal, replica)
}

/// A cluster of replicas served by the nonblocking reactor and gossiping
/// over localhost TCP — the C10K counterpart of
/// [`TcpCluster`](crate::TcpCluster), with the same protocol bytes and
/// the same harness API.
pub struct AsyncTcpCluster {
    nodes: Vec<Arc<AsyncNode>>,
    server: Option<AsyncServer>,
    addrs: Vec<SocketAddr>,
    running: Arc<AtomicBool>,
    gossips: Vec<JoinHandle<()>>,
    config: AsyncTcpConfig,
    n_items: usize,
}

impl AsyncTcpCluster {
    /// Bind `n_nodes` reactor-served listeners on localhost and start
    /// gossiping.
    pub fn spawn(
        n_nodes: usize,
        n_items: usize,
        config: AsyncTcpConfig,
    ) -> Result<AsyncTcpCluster> {
        assert!(n_nodes >= 2);
        let base = &config.base;
        let nodes: Vec<Arc<AsyncNode>> = (0..n_nodes)
            .map(|i| {
                let id = NodeId::from_index(i);
                let (durable, mut replica) = match &base.durability {
                    Some(cfg) => {
                        let (wal, replica) = open_group_node(
                            cfg,
                            id,
                            n_nodes,
                            n_items,
                            base.delta_budget,
                            base.paranoid,
                        );
                        (Some(wal), replica)
                    }
                    None => {
                        let mut replica = Replica::new(id, n_nodes, n_items);
                        if base.delta_budget > 0 {
                            replica.enable_delta(base.delta_budget);
                        }
                        replica.set_paranoid(base.paranoid);
                        (None, replica)
                    }
                };
                replica.set_delta_frame_budget(base.delta_frame_bytes);
                Arc::new(AsyncNode {
                    replica: Mutex::new(replica),
                    alive: AtomicBool::new(true),
                    durable: Mutex::new(durable),
                })
            })
            .collect();

        let services: Vec<Arc<dyn FrameService>> =
            nodes.iter().map(|n| n.clone() as Arc<dyn FrameService>).collect();
        let server = AsyncServer::bind(services, config.worker_threads)?;
        let addrs = server.addrs().to_vec();

        let running = Arc::new(AtomicBool::new(true));
        let gossips = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let me = NodeId::from_index(i);
                let node = node.clone();
                let peer_addrs = addrs.clone();
                let run = running.clone();
                let cfg = base.clone();
                // The C10K work is all on the serving side: initiators
                // stay blocking clients, as in `TcpCluster`.
                std::thread::spawn(move || {
                    let gossiped = Gossiped::Replica {
                        replica: &node.replica,
                        after_pull: &|| node.after_mutation(),
                    };
                    let connect = connector(peer_addrs, cfg.socket);
                    gossip_loop(me, n_nodes, cfg.gossip(), &run, &node.alive, gossiped, connect)
                })
            })
            .collect();
        Ok(AsyncTcpCluster {
            nodes,
            server: Some(server),
            addrs,
            running,
            gossips,
            config,
            n_items,
        })
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Reactor worker threads serving *all* connections of *all* nodes.
    pub fn worker_threads(&self) -> usize {
        self.server.as_ref().map_or(0, AsyncServer::worker_threads)
    }

    /// Connections currently held open by the reactor.
    pub fn open_connections(&self) -> usize {
        self.server.as_ref().map_or(0, AsyncServer::open_connections)
    }

    /// The socket address a node's replica server listens on.
    pub fn addr(&self, node: NodeId) -> SocketAddr {
        self.addrs[node.index()]
    }

    /// Apply a user update at `node`. With durability, returns only after
    /// the update's group-commit batch is fsynced (acked ⇒ durable).
    pub fn update(&self, node: NodeId, item: ItemId, op: UpdateOp) -> Result<()> {
        let n = self.checked(node)?;
        n.replica.lock().update(item, op)?;
        n.after_mutation();
        Ok(())
    }

    /// Read the user-visible value at `node`; crashed durable nodes have
    /// no in-memory replica and report [`Error::NodeDown`].
    pub fn read(&self, node: NodeId, item: ItemId) -> Result<Vec<u8>> {
        let n = self.nodes.get(node.index()).ok_or(Error::UnknownNode(node))?;
        if self.config.base.durability.is_some() && !n.alive.load(Ordering::SeqCst) {
            return Err(Error::NodeDown(node));
        }
        Ok(n.replica.lock().read(item)?.as_bytes().to_vec())
    }

    fn checked(&self, node: NodeId) -> Result<&Arc<AsyncNode>> {
        let n = self.nodes.get(node.index()).ok_or(Error::UnknownNode(node))?;
        if !n.alive.load(Ordering::SeqCst) {
            return Err(Error::NodeDown(node));
        }
        Ok(n)
    }

    /// A new [`TcpTransport`] to `peer`'s reactor-served listener.
    pub fn transport_to(&self, peer: NodeId) -> TcpTransport {
        TcpTransport::with_options(peer, self.addr(peer), self.config.base.socket)
    }

    /// Out-of-bound fetch, driven through the engine like every exchange.
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

    /// Run one whole-item pull right now, bypassing the gossip schedule.
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
    /// transport with a retry policy.
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

    /// As [`pull_now_via`](Self::pull_now_via), in delta mode.
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
    /// chaos-soak entry point.
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

    /// Crash a node: the connections it had accepted are closed, new ones
    /// drop without replying, and it stops gossiping. With durability, the
    /// in-memory replica and the WAL handle are really dropped (the group
    /// WAL's committer flushes its queue and exits); only the on-disk
    /// state survives.
    pub fn crash(&self, node: NodeId) {
        let n = &self.nodes[node.index()];
        n.alive.store(false, Ordering::SeqCst);
        if let Some(server) = &self.server {
            server.close_connections(node.index());
        }
        if self.config.base.durability.is_some() {
            let placeholder = Replica::new(node, self.n_nodes(), self.n_items);
            *n.replica.lock() = placeholder;
            *n.durable.lock() = None;
        }
    }

    /// Revive a crashed node; with durability, group recovery rebuilds
    /// the replica from its snapshots + shared WAL, then anti-entropy
    /// brings it the rest of the way.
    pub fn revive(&self, node: NodeId) {
        let n = &self.nodes[node.index()];
        if let Some(cfg) = &self.config.base.durability {
            let (wal, mut replica) = open_group_node(
                cfg,
                node,
                self.n_nodes(),
                self.n_items,
                self.config.base.delta_budget,
                self.config.base.paranoid,
            );
            replica.set_delta_frame_budget(self.config.base.delta_frame_bytes);
            *n.replica.lock() = replica;
            *n.durable.lock() = Some(wal);
        }
        n.alive.store(true, Ordering::SeqCst);
    }

    /// The group-commit counters of a node's WAL (`None` without
    /// durability or while crashed): records journaled, batches taken,
    /// fsyncs issued. The runtime's claim is `fsyncs ≪ records` under
    /// concurrent writers.
    pub fn group_commit_stats(&self, node: NodeId) -> Option<GroupCommitStats> {
        self.nodes[node.index()].durable.lock().as_ref().map(|w| w.stats())
    }

    /// Run a closure over a locked replica.
    pub fn with_replica<T>(&self, node: NodeId, f: impl FnOnce(&Replica) -> T) -> T {
        f(&self.nodes[node.index()].replica.lock())
    }

    /// Wait until all alive replicas hold equal DBVVs and no auxiliary
    /// state remains, or the deadline passes.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.try_quiesce(timeout).is_ok()
    }

    /// As [`quiesce`](Self::quiesce), surfacing a timeout as the typed
    /// [`Error::DeadlineExceeded`].
    pub fn try_quiesce(&self, timeout: Duration) -> Result<()> {
        crate::runtime::quiesce_policy(self.config.base.gossip_interval).poll_until(
            "quiescence",
            timeout,
            || self.is_quiescent(),
        )
    }

    fn is_quiescent(&self) -> bool {
        let alive: Vec<&Arc<AsyncNode>> =
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

    /// Stop gossip and the reactor; return the final replicas (journal
    /// sinks detached — the clones are for inspection, not appending).
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
        for h in self.gossips.drain(..) {
            let _ = h.join();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        // Dropping the last WAL handles flushes and closes the committers.
        for n in &self.nodes {
            *n.durable.lock() = None;
        }
    }
}

impl Drop for AsyncTcpCluster {
    fn drop(&mut self) {
        if self.running.load(Ordering::SeqCst) {
            self.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidb_core::{ProtocolRequest, ShardMap, ShardTransport};

    #[test]
    fn updates_converge_over_the_async_runtime() {
        let cluster = AsyncTcpCluster::spawn(
            3,
            50,
            AsyncTcpConfig {
                base: TcpConfig {
                    gossip_interval: Duration::from_millis(2),
                    ..TcpConfig::default()
                },
                worker_threads: 2,
            },
        )
        .unwrap();
        assert_eq!(cluster.worker_threads(), 2);
        for i in 0..12u32 {
            cluster
                .update(NodeId((i % 3) as u16), ItemId(i), UpdateOp::set(vec![i as u8 + 1]))
                .unwrap();
        }
        assert!(cluster.quiesce(Duration::from_secs(30)), "no quiescence on the async runtime");
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
    fn delta_gossip_converges_on_the_async_runtime() {
        let cluster = AsyncTcpCluster::spawn(
            3,
            20,
            AsyncTcpConfig {
                base: TcpConfig {
                    gossip_interval: Duration::from_millis(2),
                    delta_budget: 1 << 20,
                    max_frame_items: 2,
                    delta_frame_bytes: 64,
                    ..TcpConfig::default()
                },
                worker_threads: 2,
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
    fn many_parked_connections_on_two_workers() {
        // A few hundred concurrently-open connections served by 2 worker
        // threads: every connection completes an exchange, is parked, and
        // completes a second one — the full-scale version (1000+) is the
        // `c10k_connections` perf scenario.
        let cluster = AsyncTcpCluster::spawn(
            2,
            8,
            AsyncTcpConfig {
                base: TcpConfig {
                    gossip_interval: Duration::from_secs(60),
                    ..TcpConfig::default()
                },
                worker_threads: 2,
            },
        )
        .unwrap();
        cluster.update(NodeId(0), ItemId(1), UpdateOp::set(&b"fanout"[..])).unwrap();
        let client = Replica::new(NodeId(1), 2, 8);
        let dbvv = client.dbvv().clone();
        let mut transports: Vec<TcpTransport> =
            (0..256).map(|_| cluster.transport_to(NodeId(0))).collect();
        for round in 0..2 {
            for t in &mut transports {
                let resp = t
                    .exchange(ProtocolRequest::Pull { from: NodeId(1), dbvv: dbvv.clone() })
                    .unwrap();
                assert!(
                    !matches!(resp, ProtocolResponse::Error(_)),
                    "round {round}: unexpected error response"
                );
            }
            // All 256 sockets stay open between rounds; the reactor is
            // parking them, not a thread each. A just-served connection is
            // briefly out of the parked set while its worker re-arms it,
            // so give the count a moment to settle.
            RetryPolicy::default()
                .poll_until("parked connections", Duration::from_secs(5), || {
                    cluster.open_connections() >= 256
                })
                .unwrap_or_else(|_| {
                    panic!(
                        "connections were not kept open (round {round}: {} open)",
                        cluster.open_connections()
                    )
                });
        }
        // Every accepted end has Nagle's algorithm off (the connecting
        // and the thread-per-connection ends are checked in `tcp` and
        // `sharded`).
        let server = cluster.server.as_ref().expect("running");
        assert!(server.reactor.conns.lock().values().all(|c| c.stream.nodelay().unwrap()));
        drop(transports);
        cluster.shutdown();
    }

    #[test]
    fn crashed_durable_node_recovers_from_the_group_wal() {
        let tmp = epidb_durable::testdir::TempDir::new("async-crash");
        let cluster = AsyncTcpCluster::spawn(
            3,
            20,
            AsyncTcpConfig {
                base: TcpConfig {
                    gossip_interval: Duration::from_millis(2),
                    durability: Some(DurabilityConfig::new(tmp.path().clone())),
                    ..TcpConfig::default()
                },
                worker_threads: 2,
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
    fn group_commit_acks_after_fsync_and_batches_writers() {
        let tmp = epidb_durable::testdir::TempDir::new("async-group-commit");
        let mut durability = DurabilityConfig::new(tmp.path().clone());
        durability.fsync = true;
        durability.checkpoint_every = u64::MAX; // isolate the WAL counters
        let cluster = Arc::new(
            AsyncTcpCluster::spawn(
                2,
                64,
                AsyncTcpConfig {
                    base: TcpConfig {
                        gossip_interval: Duration::from_secs(60),
                        durability: Some(durability),
                        ..TcpConfig::default()
                    },
                    worker_threads: 2,
                },
            )
            .unwrap(),
        );
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let cluster = cluster.clone();
                std::thread::spawn(move || {
                    for i in 0..16u32 {
                        let item = ItemId(w * 16 + i);
                        cluster.update(NodeId(0), item, UpdateOp::set(vec![w as u8; 8])).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let stats = cluster.group_commit_stats(NodeId(0)).unwrap();
        assert_eq!(stats.records, 64, "every update journaled exactly once");
        assert_eq!(stats.batches, stats.fsyncs, "one fsync per taken batch");
        assert!(stats.fsyncs <= stats.records, "batching never costs extra fsyncs");
        match Arc::try_unwrap(cluster) {
            Ok(cluster) => {
                cluster.shutdown();
            }
            Err(_) => panic!("writer threads still hold the cluster"),
        }
    }

    #[test]
    fn sharded_dispatch_through_the_reactor() {
        // The reactor serves a sharded node via `Engine::handle_sharded`;
        // a client pulls one shard through `ShardTransport` over a plain
        // `TcpTransport` — proving the async runtime carries the sharded
        // protocol without any shard-aware code in the byte loop.
        let map = ShardMap::new(4, vec![vec![NodeId(0), NodeId(1)]]);
        let mut server_node = ShardedNode::new(NodeId(0), 2, map.clone(), ConflictPolicy::Report);
        let shard = map.shard_of(ItemId(1)).unwrap();
        server_node
            .shard_state_mut(shard)
            .unwrap()
            .update(ItemId(1), UpdateOp::set(&b"sharded-bytes"[..]))
            .unwrap();
        let service = Arc::new(ShardedFrameService::new(server_node));
        let server = AsyncServer::bind(vec![service.clone() as Arc<dyn FrameService>], 2).unwrap();

        let mut client_node = ShardedNode::new(NodeId(1), 2, map, ConflictPolicy::Report);
        let mut tcp = TcpTransport::new(NodeId(0), server.addrs()[0]);
        let mut transport = ShardTransport::new(&mut tcp, shard);
        Engine::pull(client_node.shard_state_mut(shard).unwrap(), &mut transport).unwrap();
        let fetched = client_node.shard_state(shard).unwrap().read(ItemId(1)).unwrap();
        assert_eq!(fetched.as_bytes(), b"sharded-bytes");
        server.shutdown();
    }
}
