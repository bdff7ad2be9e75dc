//! The socket server: an epoll readiness loop serving every TCP node
//! from a small fixed worker pool, and [`AsyncTcpCluster`], the unsharded
//! view of the one socket cluster ([`SocketCluster`]).
//!
//! Serving threads do not scale with connections: `worker_threads`
//! workers share one [`Poller`], idle connections are parked in the
//! kernel, a readiness event resumes exactly one worker on exactly one
//! connection (oneshot registration), and frame reads/writes proceed
//! incrementally through per-connection buffers until they would block.
//! Complete request frames dispatch through a [`FrameService`] — in the
//! product, one node kind ([`node`](crate::node)) over the
//! transport-agnostic [`Engine`] — so no protocol code knows which bytes
//! carried it, and every frame yields identical
//! [`Costs`](epidb_common::Costs) on every runtime. A `serve` that panics
//! closes its connection and is counted
//! ([`AsyncServer::serve_panics`]); the worker lives on.
//!
//! Initiators stay blocking clients: a [`TcpTransport`](crate::TcpTransport) per round over
//! the connection parked for the peer, so between rounds each link is one
//! idle socket in the peer's reactor. A crash closes the crashed node's
//! accepted connections ([`AsyncServer::close_connections`]); the
//! initiators find out at their next exchange and reconnect.

use std::collections::HashMap;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use epidb_common::{Error, ItemId, NodeId, Result, ShardId};
use epidb_core::codec::{check_frame_len, Writer, CHECKED_HEADER, MAX_FRAME};
use epidb_core::{
    ChaosLink, ChaosTransport, Engine, OobOutcome, PullOutcome, Replica, RetryPolicy, ShardMap,
    Transport,
};
use parking_lot::Mutex;
use polling::{Event, Interest, Notify, Poller};

use crate::node::{SocketCluster, Unsharded};
use crate::tcp::TcpConfig;

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

/// What an idle served connection keeps of each of its buffers, at most.
const IDLE_KEEP: usize = 8 << 10;

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
fn idle_buffers(response: &mut Writer, unread: &mut Vec<u8>) {
    response.park(IDLE_KEEP);
    if unread.capacity() > IDLE_KEEP {
        unread.shrink_to_fit();
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
    /// Serving a request of this connection panicked.
    panicked: bool,
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
            panicked: false,
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

    /// Read what the socket holds, appending to `read_buf`. A read that
    /// leaves `scratch` short has taken everything queued, so it is the
    /// last: the registration is level-triggered, and the re-arm reports
    /// bytes that arrive later — the `read` that would only say
    /// `WouldBlock` is not paid per frame.
    fn fill(&mut self, scratch: &mut [u8]) -> std::result::Result<(), ()> {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Err(()), // peer closed
                Ok(n) => {
                    self.read_buf.extend_from_slice(&scratch[..n]);
                    if n < scratch.len() {
                        return Ok(());
                    }
                }
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
            // A backstop, not a validation: a request that panics its
            // service closes this connection instead of the worker thread.
            let served = catch_unwind(AssertUnwindSafe(|| {
                self.service.serve(&self.read_buf[4..total], &mut self.writer)
            }))
            .unwrap_or_else(|_| {
                self.panicked = true;
                false
            });
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
    /// Connections closed because serving one of their requests panicked.
    serve_panics: AtomicU64,
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
                if conn.panicked {
                    self.serve_panics.fetch_add(1, Ordering::Relaxed);
                }
                let _ = self.poller.delete(conn.stream.as_raw_fd());
                // Dropping the Conn closes the socket.
            }
        }
    }
}

fn worker_loop(reactor: Arc<Reactor>) {
    let mut events: Vec<Event> = Vec::new();
    // Per-worker read scratch: sockets drain through this before the
    // bytes land in the owning connection's buffer. Allocated on the
    // worker's first connection event, so a worker that never serves one
    // holds none.
    let mut scratch = Vec::new();
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
                if scratch.is_empty() {
                    scratch = vec![0u8; 64 << 10];
                }
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
/// reactor alone — [`SocketCluster`] composes it with nodes, gossip, and
/// durability.
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
            serve_panics: AtomicU64::new(0),
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

    /// Connections closed because a request of theirs panicked its
    /// service (the worker that served it carries on).
    pub fn serve_panics(&self) -> u64 {
        self.reactor.serve_panics.load(Ordering::Relaxed)
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
/// the worker-pool size.
#[derive(Clone, Debug, Default)]
pub struct AsyncTcpConfig {
    /// Protocol, gossip, fault, socket, and durability knobs.
    pub base: TcpConfig,
    /// Reactor worker threads (0 = size to the machine, 2–8). Total
    /// serving threads never scale with connection count.
    pub worker_threads: usize,
}

/// One database replicated at every node: a [`SocketCluster`] of one-shard
/// nodes that exchange bare frames, so each node is one replica.
pub type AsyncTcpCluster = SocketCluster<Unsharded>;

impl SocketCluster<Unsharded> {
    /// Bind `n_nodes` reactor-served listeners on localhost and start
    /// gossiping. With `config.base.durability` set, each node journals
    /// through its group-commit WAL.
    pub fn spawn(
        n_nodes: usize,
        n_items: usize,
        config: AsyncTcpConfig,
    ) -> Result<AsyncTcpCluster> {
        let map = ShardMap::new(n_items, vec![NodeId::all(n_nodes).collect()]);
        SocketCluster::launch(map, n_nodes, config.base, config.worker_threads, true)
    }

    /// Run a closure over a node's locked replica.
    pub fn with_replica<T>(&self, node: NodeId, f: impl FnOnce(&Replica) -> T) -> T {
        self.with_node(node, |n| f(n.shard_state(ShardId(0)).expect("one shard")))
    }

    /// Out-of-bound fetch, driven through the engine like every exchange.
    /// An item outside the database is refused here, before anything is
    /// sent.
    pub fn oob_fetch(&self, recipient: NodeId, source: NodeId, item: ItemId) -> Result<OobOutcome> {
        self.checked(recipient)?;
        if item.index() >= self.map().n_items() {
            return Err(Error::UnknownItem(item));
        }
        if recipient == source {
            return Ok(OobOutcome::AlreadyCurrent);
        }
        self.round_now(recipient, source, ShardId(0), |h, mut t| Engine::oob(h, &mut t, item))
    }

    /// Run one whole-item pull right now, bypassing the gossip schedule.
    pub fn pull_now(&self, recipient: NodeId, source: NodeId) -> Result<PullOutcome> {
        self.round_now(recipient, source, ShardId(0), |h, mut t| Engine::pull(h, &mut t))
    }

    /// As [`pull_now`](Self::pull_now), in delta mode.
    pub fn pull_delta_now(&self, recipient: NodeId, source: NodeId) -> Result<PullOutcome> {
        self.round_now(recipient, source, ShardId(0), |h, mut t| Engine::pull_delta(h, &mut t))
    }

    /// As [`pull_now`](Self::pull_now), via digest-tree set
    /// reconciliation — the cold-start rung below whole-pull.
    pub fn pull_recon_now(&self, recipient: NodeId, source: NodeId) -> Result<PullOutcome> {
        self.round_now(recipient, source, ShardId(0), |h, mut t| Engine::pull_recon(h, &mut t))
    }

    /// One delta pull at `recipient` over a caller-supplied transport with
    /// a retry policy (and the engine's delta-to-whole degradation ladder).
    pub fn pull_delta_now_via<T: Transport>(
        &self,
        recipient: NodeId,
        transport: &mut T,
        policy: &RetryPolicy,
    ) -> Result<PullOutcome> {
        let node = self.checked(recipient)?;
        node.round(ShardId(0), transport, |h, mut t| Engine::pull_delta_with(h, &mut t, policy))
    }

    /// One delta pull through a caller-owned [`ChaosLink`] — the
    /// chaos-soak entry point; as
    /// [`pull_delta_now_via`](Self::pull_delta_now_via) over the link.
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

    /// Stop gossip and the reactor; return the final replicas, moved out
    /// of their nodes (every thread that served or gossiped for them is
    /// joined by then), journal sinks detached: they are for inspection,
    /// not for appending to the cluster's WALs.
    pub fn shutdown(mut self) -> Vec<Replica> {
        self.stop();
        (self.nodes.iter())
            .map(|node| {
                let mut r = node.with(|n| n.shard_state_mut(ShardId(0)).expect("one shard").take());
                r.set_mutation_sink(None);
                r
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidb_core::codec::{decode_response_checked, encode_request_checked};
    use epidb_core::{
        ConflictPolicy, PropagationResponse, ProtocolRequest, ProtocolResponse, ShardTransport,
        ShardedNode,
    };
    use epidb_durable::{DurabilityConfig, GroupCommitStats};
    use epidb_store::UpdateOp;

    use crate::node::Node;
    use crate::tcp::{read_frame_into, TcpTransport};

    fn quiet(n_nodes: usize, n_items: usize) -> AsyncTcpCluster {
        let config = AsyncTcpConfig {
            base: TcpConfig { gossip_interval: Duration::from_secs(60), ..TcpConfig::default() },
            worker_threads: 2,
        };
        AsyncTcpCluster::spawn(n_nodes, n_items, config).unwrap()
    }

    /// A whole request frame as it crosses the wire: length prefix, CRC32,
    /// encoding.
    fn request_frame(req: &ProtocolRequest) -> Vec<u8> {
        let body = encode_request_checked(req);
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame
    }

    fn read_response(stream: &mut TcpStream) -> ProtocolResponse {
        let mut body = Vec::new();
        read_frame_into(stream, &mut body).expect("a response frame");
        decode_response_checked(&body).expect("an intact response")
    }

    fn settle(what: &str, cond: impl FnMut() -> bool) {
        RetryPolicy::default()
            .poll_until(what, Duration::from_secs(5), cond)
            .unwrap_or_else(|_| panic!("{what}: not within 5 s"));
    }

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
                    paranoid: true,
                    // Tight budgets on both ends of every gossip link: 2
                    // wants per fetch frame, a 64-byte responder payload
                    // budget — same converged state, more (smaller) frames.
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
            assert!(r.audits_run() > 0, "paranoid audits should have run");
        }
    }

    #[test]
    fn oob_fetch_over_tcp() {
        let cluster = quiet(2, 10);
        cluster.update(NodeId(0), ItemId(1), UpdateOp::set(&b"wire"[..])).unwrap();
        let out = cluster.oob_fetch(NodeId(1), NodeId(0), ItemId(1)).unwrap();
        assert_eq!(out, OobOutcome::Adopted { from_aux: false });
        assert_eq!(cluster.read(NodeId(1), ItemId(1)).unwrap(), b"wire");
        // Regular copy still old — it's an auxiliary copy.
        cluster.with_replica(NodeId(1), |r| {
            assert_eq!(r.aux_item_count(), 1);
            assert_eq!(r.read_regular(ItemId(1)).unwrap().as_bytes(), b"");
        });
        cluster.shutdown();
    }

    #[test]
    fn explicit_pulls_without_gossip() {
        let cluster = quiet(2, 10);
        cluster.update(NodeId(0), ItemId(2), UpdateOp::set(&b"v"[..])).unwrap();
        let out = cluster.pull_now(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(out.copied(), &[ItemId(2)]);
        assert!(matches!(cluster.pull_now(NodeId(1), NodeId(0)).unwrap(), PullOutcome::UpToDate));
        cluster.shutdown();
    }

    #[test]
    fn crashed_node_stays_stale_without_durability() {
        let cluster = AsyncTcpCluster::spawn(
            3,
            20,
            AsyncTcpConfig {
                base: TcpConfig {
                    gossip_interval: Duration::from_millis(2),
                    ..TcpConfig::default()
                },
                worker_threads: 2,
            },
        )
        .unwrap();
        cluster.crash(NodeId(2));
        cluster.update(NodeId(0), ItemId(0), UpdateOp::set(&b"while-down"[..])).unwrap();
        assert!(cluster.quiesce(Duration::from_secs(30)));
        // A crashed node answers no reads; its replica, kept in memory,
        // stays stale.
        assert!(matches!(cluster.read(NodeId(2), ItemId(0)), Err(Error::NodeDown(NodeId(2)))));
        cluster.with_replica(NodeId(2), |r| assert_eq!(r.read(ItemId(0)).unwrap().as_bytes(), b""));
        cluster.revive(NodeId(2));
        assert!(cluster.quiesce(Duration::from_secs(30)));
        assert_eq!(cluster.read(NodeId(2), ItemId(0)).unwrap(), b"while-down");
        cluster.shutdown();
    }

    #[test]
    fn a_request_split_across_readiness_events_is_served_once() {
        let cluster = quiet(2, 8);
        cluster.update(NodeId(0), ItemId(1), UpdateOp::set(&b"split"[..])).unwrap();
        let dbvv = Replica::new(NodeId(1), 2, 8).dbvv().clone();
        let frame = request_frame(&ProtocolRequest::Pull { from: NodeId(1), dbvv });
        let cut = 4 + (frame.len() - 4) / 2;
        let mut stream = TcpStream::connect(cluster.addr(NodeId(0))).unwrap();
        stream.set_nodelay(true).unwrap();
        // Header and half the body, then — after the reactor has read them
        // and parked the connection — the rest.
        stream.write_all(&frame[..cut]).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        stream.write_all(&frame[cut..]).unwrap();
        match read_response(&mut stream) {
            ProtocolResponse::Pull(PropagationResponse::Payload(p)) => assert_eq!(p.items.len(), 1),
            other => panic!("expected the one update, got {other:?}"),
        }
        settle("the connection parks again", || cluster.open_connections() == 1);
        // Served once: nothing further arrives.
        stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        assert!(stream.read(&mut [0u8; 1]).is_err(), "a second response arrived");
        drop(stream);
        cluster.shutdown();
    }

    #[test]
    fn a_request_then_a_half_close_is_answered_then_closed() {
        let cluster = quiet(2, 8);
        let dbvv = Replica::new(NodeId(1), 2, 8).dbvv().clone();
        let mut stream = TcpStream::connect(cluster.addr(NodeId(0))).unwrap();
        stream.write_all(&request_frame(&ProtocolRequest::Pull { from: NodeId(1), dbvv })).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let resp = read_response(&mut stream);
        assert!(matches!(resp, ProtocolResponse::Pull(PropagationResponse::YouAreCurrent)));
        settle("the reactor closes its end", || cluster.open_connections() == 0);
        assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0, "expected EOF after the response");
        cluster.shutdown();
    }

    #[test]
    fn many_parked_connections_on_two_workers() {
        // A few hundred concurrently-open connections served by 2 worker
        // threads: every connection completes an exchange, is parked, and
        // completes a second one.
        let cluster = quiet(2, 8);
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
        // Every accepted end has Nagle's algorithm off (the connecting end
        // is checked in `tcp`).
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
    fn durable_revive_restores_state_from_disk_alone() {
        // Gossip effectively disabled: after the crash nothing can refill
        // node 0 except its own disk.
        let tmp = epidb_durable::testdir::TempDir::new("async-disk-only");
        let cluster = AsyncTcpCluster::spawn(
            2,
            10,
            AsyncTcpConfig {
                base: TcpConfig {
                    gossip_interval: Duration::from_secs(3600),
                    durability: Some(DurabilityConfig::new(tmp.path().clone())),
                    ..TcpConfig::default()
                },
                worker_threads: 2,
            },
        )
        .unwrap();
        for i in 0..4u32 {
            cluster.update(NodeId(0), ItemId(i), UpdateOp::set(vec![i as u8; 32])).unwrap();
        }
        cluster.crash(NodeId(0));
        cluster.revive(NodeId(0));
        for i in 0..4u32 {
            assert_eq!(cluster.read(NodeId(0), ItemId(i)).unwrap(), vec![i as u8; 32]);
        }
        cluster.with_replica(NodeId(0), |r| r.check_invariants().unwrap());
        cluster.shutdown();
    }

    /// Two nodes; node 0's updates journal with per-batch fsync on and no
    /// checkpoints, so the WAL counters count updates alone. Gossip idles.
    fn fsync_cluster(dir: &std::path::Path, n_items: usize) -> AsyncTcpCluster {
        let mut durability = DurabilityConfig::new(dir);
        durability.fsync = true;
        durability.checkpoint_every = u64::MAX;
        let base = TcpConfig {
            gossip_interval: Duration::from_secs(3600),
            durability: Some(durability),
            ..TcpConfig::default()
        };
        AsyncTcpCluster::spawn(2, n_items, AsyncTcpConfig { base, worker_threads: 2 }).unwrap()
    }

    /// `writers` threads each make `ops` acked updates to their own item on
    /// node 0, and return node 0's WAL counters.
    fn acked_writes(cluster: &AsyncTcpCluster, writers: usize, ops: usize) -> GroupCommitStats {
        std::thread::scope(|scope| {
            for w in 0..writers {
                scope.spawn(move || {
                    for k in 0..ops {
                        let op = UpdateOp::set(vec![k as u8; 24]);
                        cluster.update(NodeId(0), ItemId::from_index(w), op).unwrap();
                    }
                });
            }
        });
        cluster.group_commit_stats(NodeId(0)).unwrap()
    }

    #[test]
    fn group_commit_acks_after_fsync_and_batches_writers() {
        let tmp = epidb_durable::testdir::TempDir::new("async-group-commit");
        let cluster = fsync_cluster(tmp.path(), 4);
        let stats = acked_writes(&cluster, 4, 16);
        assert_eq!(stats.records, 64, "every update journaled exactly once");
        assert_eq!(stats.batches, stats.fsyncs, "one fsync per taken batch");
        assert!(stats.fsyncs <= stats.records, "batching never costs extra fsyncs");
        cluster.shutdown();
    }

    #[test]
    #[ignore = "timing-dependent; ci.sh runs it with --ignored"]
    fn group_commit_crowd_shares_fsyncs() {
        // 64 writers × 16 acked updates: followers coalesce into whichever
        // writer leads, at most one fsync per ten mutations. How many land
        // in one batch depends on thread scheduling; the exact law is
        // `group_commit.rs` in the durable crate.
        let tmp = epidb_durable::testdir::TempDir::new("async-group-commit-crowd");
        let cluster = fsync_cluster(tmp.path(), 64);
        let stats = acked_writes(&cluster, 64, 16);
        cluster.shutdown();
        assert_eq!(stats.records, 64 * 16, "every ack journaled exactly once");
        let ratio = stats.fsyncs as f64 / stats.records as f64;
        assert!(
            ratio <= 0.1,
            "group-commit regression: {} fsyncs for {} mutations (ratio {ratio:.3} > 0.1) — \
             concurrent writers stopped coalescing into shared fsync batches",
            stats.fsyncs,
            stats.records,
        );
    }

    /// Every file under `dir`, by path relative to it: its length and CRC32.
    fn file_prints(dir: &std::path::Path) -> Vec<(String, usize, u32)> {
        let mut prints = Vec::new();
        let mut pending = vec![dir.to_path_buf()];
        while let Some(at) = pending.pop() {
            for entry in std::fs::read_dir(&at).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    pending.push(path);
                    continue;
                }
                let bytes = std::fs::read(&path).unwrap();
                let name = path.strip_prefix(dir).unwrap().to_string_lossy().into_owned();
                prints.push((name, bytes.len(), epidb_core::codec::crc32(&bytes)));
            }
        }
        prints.sort();
        prints
    }

    #[test]
    fn durable_files_are_pinned() {
        // A fixed schedule on a durable unsharded cluster: acked writes of
        // inline and segment-sized values, whole, delta and recon pulls,
        // an out-of-bound fetch, checkpoints on the way, a crash and a
        // recovery. What it leaves on disk is pinned byte for byte.
        let tmp = epidb_durable::testdir::TempDir::new("async-pinned-files");
        let mut durability = DurabilityConfig::new(tmp.path().clone());
        durability.checkpoint_every = 24;
        let base = TcpConfig {
            gossip_interval: Duration::from_secs(3600),
            durability: Some(durability),
            delta_budget: 1 << 16,
            ..TcpConfig::default()
        };
        let cluster =
            AsyncTcpCluster::spawn(3, 32, AsyncTcpConfig { base, worker_threads: 2 }).unwrap();
        let node = |k: u32| NodeId((k % 3) as u16);
        for k in 0..60u32 {
            let len = if k % 5 == 0 { 200 } else { 8 + k as usize };
            cluster.update(node(k), ItemId(k % 32), UpdateOp::set(vec![k as u8; len])).unwrap();
            if k % 7 == 6 {
                cluster.pull_now(node(k + 1), node(k)).unwrap();
                cluster.pull_delta_now(node(k + 2), node(k + 1)).unwrap();
            }
        }
        cluster.oob_fetch(NodeId(2), NodeId(0), ItemId(30)).unwrap();
        cluster.pull_recon_now(NodeId(1), NodeId(2)).unwrap();
        cluster.crash(NodeId(2));
        cluster.update(NodeId(0), ItemId(3), UpdateOp::set(&b"while-down"[..])).unwrap();
        cluster.revive(NodeId(2));
        cluster.pull_now(NodeId(2), NodeId(0)).unwrap();
        cluster.shutdown();
        let pinned: [(&str, usize, u32); 6] = [
            ("node-0/snap-1-0.epdb", 4316, 2320017736),
            ("node-0/wal-1.log", 140, 1761535974),
            ("node-1/snap-1-0.epdb", 4087, 3587089529),
            ("node-1/wal-1.log", 1069, 3384069336),
            ("node-2/snap-1-0.epdb", 4228, 2095383277),
            ("node-2/wal-1.log", 861, 1046330077),
        ];
        let pinned: Vec<(String, usize, u32)> =
            pinned.iter().map(|&(name, len, crc)| (name.to_string(), len, crc)).collect();
        assert_eq!(file_prints(tmp.path()), pinned, "a durable node's files changed");
    }

    #[test]
    fn out_of_range_items_keep_their_errors() {
        let cluster = quiet(2, 8);
        let set = || UpdateOp::set(&b"x"[..]);
        let unknown = |e: Error| matches!(e, Error::UnknownItem(ItemId(8)));
        assert!(unknown(cluster.update(NodeId(0), ItemId(8), set()).unwrap_err()));
        assert!(unknown(cluster.read(NodeId(0), ItemId(8)).unwrap_err()));
        // The recipient refuses a fetch of an unknown item before sending
        // it, and so does the self-fetch shortcut.
        let sent = cluster.node_costs(NodeId(1)).messages_sent;
        assert!(unknown(cluster.oob_fetch(NodeId(1), NodeId(0), ItemId(8)).unwrap_err()));
        assert!(unknown(cluster.oob_fetch(NodeId(0), NodeId(0), ItemId(8)).unwrap_err()));
        assert_eq!(cluster.node_costs(NodeId(1)).messages_sent, sent, "nothing was sent");
        assert!(matches!(cluster.update(NodeId(5), ItemId(1), set()), Err(Error::UnknownNode(_))));
        assert!(matches!(cluster.read(NodeId(5), ItemId(1)), Err(Error::UnknownNode(_))));
        cluster.crash(NodeId(1));
        let down = cluster.oob_fetch(NodeId(1), NodeId(0), ItemId(8));
        assert!(matches!(down, Err(Error::NodeDown(NodeId(1)))));
        cluster.shutdown();
    }

    /// A service whose first request panics; later ones reach `node`.
    struct PanicsOnce {
        armed: AtomicBool,
        node: Node,
    }

    impl FrameService for PanicsOnce {
        fn serve(&self, body: &[u8], out: &mut Writer) -> bool {
            assert!(!self.armed.swap(false, Ordering::Relaxed), "the service panics");
            self.node.serve(body, out)
        }
    }

    #[test]
    fn a_request_that_panics_its_service_closes_only_its_connection() {
        // The first request panics its service. The reactor closes that
        // connection, counts it, and serves the next one on the same
        // workers. A pull whose DBVV is 2 wide, at a 3-node replica, is
        // refused in-band, not panicked on.
        let node = ShardedNode::new(
            NodeId(0),
            3,
            ShardMap::new(8, vec![vec![NodeId(0)]]),
            ConflictPolicy::Report,
        );
        let service = PanicsOnce { armed: AtomicBool::new(true), node: Node::new(node, true) };
        let server =
            AsyncServer::bind(vec![Arc::new(service) as Arc<dyn FrameService>], 1).unwrap();
        let pull = |width| ProtocolRequest::Pull {
            from: NodeId(1),
            dbvv: Replica::new(NodeId(1), width, 8).dbvv().clone(),
        };
        let mut stream = TcpStream::connect(server.addrs()[0]).unwrap();
        stream.write_all(&request_frame(&pull(3))).unwrap();
        assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0, "no response, then EOF");
        settle("the panic is counted", || server.serve_panics() == 1);
        let mut stream = TcpStream::connect(server.addrs()[0]).unwrap();
        stream.write_all(&request_frame(&pull(2))).unwrap();
        assert!(matches!(read_response(&mut stream), ProtocolResponse::Error(_)));
        stream.write_all(&request_frame(&pull(3))).unwrap();
        assert!(matches!(
            read_response(&mut stream),
            ProtocolResponse::Pull(PropagationResponse::YouAreCurrent)
        ));
        assert_eq!(server.serve_panics(), 1);
        server.shutdown();
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
        let service = Arc::new(Node::new(server_node, false));
        let server = AsyncServer::bind(vec![service as Arc<dyn FrameService>], 2).unwrap();

        let mut client_node = ShardedNode::new(NodeId(1), 2, map, ConflictPolicy::Report);
        let mut tcp = TcpTransport::new(NodeId(0), server.addrs()[0]);
        let mut transport = ShardTransport::new(&mut tcp, shard);
        Engine::pull(client_node.shard_state_mut(shard).unwrap(), &mut transport).unwrap();
        let fetched = client_node.shard_state(shard).unwrap().read(ItemId(1)).unwrap();
        assert_eq!(fetched.as_bytes(), b"sharded-bytes");
        server.shutdown();
    }
}
