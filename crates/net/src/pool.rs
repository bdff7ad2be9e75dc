//! The connection pool behind [`TcpTransport`](crate::TcpTransport): one
//! parked stream per peer address, process-wide.
//!
//! A transport that is dropped after a completed exchange parks its
//! stream here; the next transport to the same address checks it out
//! instead of connecting, so a round costs an exchange and not a connect +
//! accept + close around it. One process is one node — the in-process
//! clusters are harnesses and share the pool, since a connection to an
//! address is not tied to who uses it.
//!
//! A parked stream can die while it waits (the peer crashed, shut down, or
//! closed it as idle). The pool does not probe: an entry older than the
//! checking-out transport's `read_timeout` — after which the
//! thread-per-connection servers close an idle connection — is discarded
//! at checkout, and a younger dead one is found by the transport's first
//! exchange on it, which reconnects and resends once (see
//! [`TcpTransport`](crate::TcpTransport)).

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::tcp::{tune, TcpSocketOptions};

/// Most streams parked at once, over all addresses; one more evicts the
/// one parked longest. A node parks one stream per peer it pulls from.
const MAX_PARKED: usize = 64;

struct Parked {
    addr: SocketAddr,
    stream: TcpStream,
    /// The timeouts set on `stream`.
    options: TcpSocketOptions,
    since: Instant,
}

/// In park order, oldest first.
static PARKED: Mutex<VecDeque<Parked>> = Mutex::new(VecDeque::new());
static CONNECTS: AtomicU64 = AtomicU64::new(0);
static REUSES: AtomicU64 = AtomicU64::new(0);
static STALE_RECONNECTS: AtomicU64 = AtomicU64::new(0);

/// What the pool has done since the process started, and what it holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Connections opened (every initiator connection is opened by
    /// [`TcpTransport`](crate::TcpTransport)).
    pub connects: u64,
    /// Exchanges that started on a parked stream instead of a connect.
    pub reuses: u64,
    /// Reused streams found closed by the peer, replaced by a new
    /// connection with the request sent again.
    pub stale_reconnects: u64,
    /// Streams parked right now.
    pub parked: usize,
}

/// The pool's counters and its current size.
pub fn stats() -> PoolStats {
    PoolStats {
        connects: CONNECTS.load(Ordering::Relaxed),
        reuses: REUSES.load(Ordering::Relaxed),
        stale_reconnects: STALE_RECONNECTS.load(Ordering::Relaxed),
        parked: PARKED.lock().len(),
    }
}

/// Close the streams parked for `addrs`. A socket cluster does this for
/// its listeners when it stops, so that no connection to it — and no serve
/// thread blocked reading one — outlives it.
pub fn evict(addrs: &[SocketAddr]) {
    let evicted: VecDeque<Parked> = {
        let mut parked = PARKED.lock();
        let (evicted, kept) =
            std::mem::take(&mut *parked).into_iter().partition(|p| addrs.contains(&p.addr));
        *parked = kept;
        evicted
    };
    // Closed here, outside the lock.
    drop(evicted);
}

/// The stream parked for `addr`, carrying `options`' timeouts; `None` if
/// there is none or it waited `options.read_timeout` or longer.
pub(crate) fn checkout(addr: SocketAddr, options: &TcpSocketOptions) -> Option<TcpStream> {
    let found = {
        let mut parked = PARKED.lock();
        let i = parked.iter().position(|p| p.addr == addr)?;
        parked.remove(i)?
    };
    if found.since.elapsed() >= options.read_timeout {
        return None;
    }
    if found.options != *options {
        tune(&found.stream, options).ok()?;
    }
    REUSES.fetch_add(1, Ordering::Relaxed);
    Some(found.stream)
}

/// Park `stream`, whose last exchange completed, for the next transport to
/// `addr`. It replaces a stream already parked there.
pub(crate) fn park(addr: SocketAddr, options: TcpSocketOptions, stream: TcpStream) {
    let since = Instant::now();
    let displaced = {
        let mut parked = PARKED.lock();
        let same = parked.iter().position(|p| p.addr == addr).and_then(|i| parked.remove(i));
        parked.push_back(Parked { addr, stream, options, since });
        let oldest = if parked.len() > MAX_PARKED { parked.pop_front() } else { None };
        (same, oldest)
    };
    drop(displaced);
}

pub(crate) fn count_connect() {
    CONNECTS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_stale_reconnect() {
    STALE_RECONNECTS.fetch_add(1, Ordering::Relaxed);
}
