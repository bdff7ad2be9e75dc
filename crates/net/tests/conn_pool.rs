//! The connection lifecycle `TcpTransport`'s pool owns: what is parked,
//! when a parked stream is discarded, the one transparent resend, and what
//! a crash or a shutdown does to connections.
//!
//! The pool and its counters are process-wide, so these tests live in a
//! test binary of their own and run one at a time.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::Duration;

use epidb_common::{Costs, ItemId, NodeId, Result, ShardId};
use epidb_core::codec::{decode_request_checked, encode_response_checked};
use epidb_core::{
    Engine, ProtocolRequest, ProtocolResponse, Replica, RetryPolicy, ShardMap, Transport,
};
use epidb_net::pool::{self, PoolStats};
use epidb_net::{
    AsyncTcpCluster, AsyncTcpConfig, ShardedConfig, ShardedTcpCluster, TcpCluster, TcpConfig,
    TcpSocketOptions, TcpTransport,
};
use epidb_store::UpdateOp;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Take the pool for one test; it must be empty between tests.
fn pool_to_myself() -> MutexGuard<'static, ()> {
    let guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(pool::stats().parked, 0, "an earlier test left streams parked");
    guard
}

/// Counter movement since `before`.
fn since(before: PoolStats) -> (u64, u64, u64) {
    let now = pool::stats();
    (
        now.connects - before.connects,
        now.reuses - before.reuses,
        now.stale_reconnects - before.stale_reconnects,
    )
}

const HOUR: Duration = Duration::from_secs(3600);

fn quiet_tcp() -> TcpConfig {
    TcpConfig { gossip_interval: HOUR, ..TcpConfig::default() }
}

fn quiet_async() -> AsyncTcpConfig {
    AsyncTcpConfig { base: quiet_tcp(), worker_threads: 2 }
}

fn quiet_sharded() -> ShardedConfig {
    ShardedConfig { gossip_interval: HOUR, ..ShardedConfig::default() }
}

/// 4 nodes, 2 groups × 2 nodes, 2 shards × 8 items.
fn two_group_map() -> ShardMap {
    ShardMap::new(8, vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]])
}

/// The pull an up-to-date-with-nothing `from` would send.
fn probe(from: NodeId, n_nodes: usize, n_items: usize) -> ProtocolRequest {
    ProtocolRequest::Pull { from, dbvv: Replica::new(from, n_nodes, n_items).dbvv().clone() }
}

// ---------------------------------------------------------------------------
// (a) idle rounds reuse one connection per peer, and cost what they did
// ---------------------------------------------------------------------------

/// 1,000 idle rounds round the ring of a 3-node reactor cluster; with
/// `evict_first`, each on a new connection as before the pool existed.
fn idle_ring(evict_first: bool) -> (Vec<Costs>, u64) {
    let cluster = AsyncTcpCluster::spawn(3, 16, quiet_async()).unwrap();
    let addrs: Vec<SocketAddr> = (0..3).map(|i| cluster.addr(NodeId(i))).collect();
    for i in 0..3u16 {
        cluster.update(NodeId(i), ItemId(u32::from(i)), UpdateOp::set(vec![i as u8; 40])).unwrap();
    }
    for _sweep in 0..2 {
        for i in 0..3u16 {
            cluster.pull_now(NodeId((i + 1) % 3), NodeId(i)).unwrap();
        }
    }
    let before = pool::stats();
    for k in 0..1000u16 {
        if evict_first {
            pool::evict(&addrs);
        }
        let out = cluster.pull_now(NodeId((k + 1) % 3), NodeId(k % 3)).unwrap();
        assert!(out.copied().is_empty(), "round {k} was not idle");
    }
    let connects = since(before).0;
    let costs = cluster.shutdown().iter().map(Replica::costs).collect();
    (costs, connects)
}

#[test]
fn idle_rounds_open_one_connection_per_peer_and_cost_the_same() {
    let _pool = pool_to_myself();
    let (pooled, connects) = idle_ring(false);
    // The converging sweeps already parked a stream for each of the three
    // addresses; none of the thousand rounds connects.
    assert_eq!(connects, 0, "idle rounds connected although every peer had a parked stream");
    let (unpooled, connects) = idle_ring(true);
    assert_eq!(connects, 1000, "an evicted pool must connect per round");
    assert_eq!(pooled, unpooled, "reusing connections changed what the rounds cost");
    assert_eq!(pool::stats().parked, 0, "shutdown left streams parked");
}

/// 1,000 idle per-shard rounds inside both owner groups.
fn idle_shard_walk(evict_first: bool) -> (Vec<Costs>, u64) {
    let cluster = ShardedTcpCluster::spawn(two_group_map(), 4, quiet_sharded()).unwrap();
    let addrs: Vec<SocketAddr> = (0..4).map(|i| cluster.addr(NodeId(i))).collect();
    cluster.update(NodeId(0), ItemId(1), UpdateOp::set(&b"left"[..])).unwrap();
    cluster.update(NodeId(3), ItemId(9), UpdateOp::set(&b"right"[..])).unwrap();
    let links = [(1u16, 0u16, 0u16), (0, 1, 0), (2, 3, 1), (3, 2, 1)];
    for (recipient, source, shard) in links {
        cluster.pull_shard_now(NodeId(recipient), NodeId(source), ShardId(shard)).unwrap();
    }
    let before = pool::stats();
    for k in 0..1000 {
        if evict_first {
            pool::evict(&addrs);
        }
        let (recipient, source, shard) = links[k % links.len()];
        let out =
            cluster.pull_shard_now(NodeId(recipient), NodeId(source), ShardId(shard)).unwrap();
        assert!(out.copied().is_empty(), "round {k} was not idle");
    }
    let connects = since(before).0;
    let costs = (0..4).map(|i| cluster.node_costs(NodeId(i))).collect();
    cluster.shutdown();
    (costs, connects)
}

#[test]
fn idle_shard_rounds_open_one_connection_per_peer_and_cost_the_same() {
    let _pool = pool_to_myself();
    let (pooled, connects) = idle_shard_walk(false);
    assert_eq!(connects, 0, "idle shard rounds connected although every peer had a parked stream");
    let (unpooled, connects) = idle_shard_walk(true);
    assert_eq!(connects, 1000);
    assert_eq!(pooled, unpooled, "reusing connections changed what the rounds cost");
    assert_eq!(pool::stats().parked, 0, "shutdown left streams parked");
}

/// Responses past what an idle connection keeps (8 KiB) leave in two
/// steps, buffers released in between: they must arrive whole, twice over
/// on the same parked connection, from every server.
#[test]
fn responses_larger_than_an_idle_buffer_arrive_whole_on_a_reused_connection() {
    let _pool = pool_to_myself();
    let value = |i: u32, round: u8| vec![(i % 251) as u8 ^ round; 100];
    let before = pool::stats();

    let reactor = AsyncTcpCluster::spawn(2, 400, quiet_async()).unwrap();
    let threads = TcpCluster::spawn(2, 400, quiet_tcp()).unwrap();
    let map = ShardMap::new(400, vec![vec![NodeId(0), NodeId(1)]]);
    let sharded = ShardedTcpCluster::spawn(map, 2, quiet_sharded()).unwrap();
    for round in 0..2u8 {
        for i in 0..400u32 {
            reactor.update(NodeId(0), ItemId(i), UpdateOp::set(value(i, round))).unwrap();
            threads.update(NodeId(0), ItemId(i), UpdateOp::set(value(i, round))).unwrap();
            sharded.update(NodeId(0), ItemId(i), UpdateOp::set(value(i, round))).unwrap();
        }
        assert_eq!(reactor.pull_now(NodeId(1), NodeId(0)).unwrap().copied().len(), 400);
        assert_eq!(threads.pull_now(NodeId(1), NodeId(0)).unwrap().copied().len(), 400);
        let out = sharded.pull_shard_now(NodeId(1), NodeId(0), ShardId(0)).unwrap();
        assert_eq!(out.copied().len(), 400);
        for i in 0..400u32 {
            assert_eq!(reactor.read(NodeId(1), ItemId(i)).unwrap(), value(i, round));
            assert_eq!(threads.read(NodeId(1), ItemId(i)).unwrap(), value(i, round));
            assert_eq!(sharded.read(NodeId(1), ItemId(i)).unwrap(), value(i, round));
        }
    }
    assert_eq!(since(before), (3, 3, 0), "(connects, reuses, stale reconnects)");
    reactor.shutdown();
    threads.shutdown();
    sharded.shutdown();
    assert_eq!(pool::stats().parked, 0, "shutdown left streams parked");
}

// ---------------------------------------------------------------------------
// (b) a connection the server timed out
// ---------------------------------------------------------------------------

#[test]
fn a_connection_idle_past_the_read_timeout_is_replaced_without_a_retry() {
    let _pool = pool_to_myself();
    let short = TcpSocketOptions { read_timeout: Duration::from_millis(50), ..Default::default() };
    let cluster = TcpCluster::spawn(2, 8, TcpConfig { socket: short, ..quiet_tcp() }).unwrap();
    cluster.update(NodeId(0), ItemId(1), UpdateOp::set(&b"v"[..])).unwrap();
    let before = pool::stats();
    cluster.pull_now(NodeId(1), NodeId(0)).unwrap();
    assert_eq!(pool::stats().parked, 1);

    // The serve thread gives the connection up after 50 ms. The parked end
    // is as old, so it is dropped at checkout and never tried.
    std::thread::sleep(Duration::from_millis(120));
    cluster.pull_now(NodeId(1), NodeId(0)).unwrap();
    assert_eq!(since(before), (2, 0, 0), "(connects, reuses, stale reconnects)");

    // An initiator with a longer timeout than the server's does try it,
    // finds it closed, and reconnects inside the same exchange.
    std::thread::sleep(Duration::from_millis(120));
    let patient = TcpSocketOptions::default();
    let before = pool::stats();
    let mut transport = TcpTransport::with_options(NodeId(0), cluster.addr(NodeId(0)), patient);
    transport.exchange(probe(NodeId(1), 2, 8)).expect("one exchange, as the caller sees it");
    assert_eq!(since(before), (1, 1, 1), "(connects, reuses, stale reconnects)");
    drop(transport);

    assert_eq!(cluster.with_replica(NodeId(1), |r| r.costs().retries), 0);
    cluster.shutdown();
    assert_eq!(pool::stats().parked, 0, "shutdown left streams parked");
}

// ---------------------------------------------------------------------------
// (c) only a completed exchange parks
// ---------------------------------------------------------------------------

/// `tests/tcp_faults.rs`'s wrapper: the connection dies on the `n`-th
/// exchange, before its frame goes out.
struct KillNthExchange {
    inner: TcpTransport,
    n: usize,
    count: usize,
}

impl Transport for KillNthExchange {
    fn peer(&self) -> NodeId {
        self.inner.peer()
    }

    fn exchange(&mut self, req: ProtocolRequest) -> Result<ProtocolResponse> {
        self.count += 1;
        if self.count == self.n {
            self.inner.reset();
            return Err(epidb_common::Error::Network("connection killed mid-exchange".into()));
        }
        self.inner.exchange(req)
    }
}

#[test]
fn a_failed_reset_or_abandoned_exchange_parks_nothing() {
    let _pool = pool_to_myself();
    let cluster =
        TcpCluster::spawn(3, 8, TcpConfig { delta_budget: 1 << 20, ..quiet_tcp() }).unwrap();
    for i in 0..4u32 {
        cluster.update(NodeId(0), ItemId(i), UpdateOp::set(vec![i as u8 + 1; 40])).unwrap();
    }

    // An exchange that failed: node 2 is down and closes on the first frame.
    cluster.crash(NodeId(2));
    let mut transport = cluster.transport_to(NodeId(2));
    assert!(transport.exchange(probe(NodeId(1), 3, 8)).is_err());
    drop(transport);
    assert_eq!(pool::stats().parked, 0, "a failed exchange parked its connection");

    // A completed exchange, then `reset()`.
    let mut transport = cluster.transport_to(NodeId(0));
    transport.exchange(probe(NodeId(1), 3, 8)).unwrap();
    transport.reset();
    drop(transport);
    assert_eq!(pool::stats().parked, 0, "a reset transport parked its connection");

    // Killed between the DeltaOffer (exchange 1) and the DeltaFetch.
    let mut transport = KillNthExchange { inner: cluster.transport_to(NodeId(0)), n: 2, count: 0 };
    assert!(cluster.pull_delta_now_via(NodeId(1), &mut transport, &RetryPolicy::none()).is_err());
    assert_eq!(transport.count, 2, "the round must have got as far as the fetch");
    drop(transport);
    assert_eq!(pool::stats().parked, 0, "a round abandoned mid-way parked its connection");

    // And the round that completes does park.
    cluster.pull_delta_now(NodeId(1), NodeId(0)).unwrap();
    assert_eq!(pool::stats().parked, 1);
    cluster.shutdown();
    assert_eq!(pool::stats().parked, 0, "shutdown left streams parked");
}

// ---------------------------------------------------------------------------
// (d) what the transparent resend covers, and what it leaves to RetryPolicy
// ---------------------------------------------------------------------------

/// What the scripted server does with a request.
#[derive(Clone, Copy, Debug)]
enum On {
    /// Serve it; the connection stays open.
    Answer,
    /// Close the connection without a byte of reply.
    HangUp,
    /// Send the first half of the reply, then close.
    HalfAnswer,
}

/// A one-replica server that treats its requests, in arrival order over
/// all connections, per `script`, then exits. Returns its address and the
/// thread, which yields how many connections it accepted.
fn scripted_server(script: Vec<On>) -> (SocketAddr, std::thread::JoinHandle<usize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut replica = Replica::new(NodeId(0), 2, 8);
        replica.update(ItemId(1), UpdateOp::set(&b"served"[..])).unwrap();
        let mut script = script.into_iter();
        let mut next = script.next();
        let mut accepted = 0;
        while next.is_some() {
            let (mut stream, _) = listener.accept().unwrap();
            accepted += 1;
            while let Some(on) = next {
                let mut len = [0u8; 4];
                if stream.read_exact(&mut len).is_err() {
                    break; // the initiator closed this connection
                }
                let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
                stream.read_exact(&mut body).unwrap();
                next = script.next();
                let req = decode_request_checked(&body).unwrap();
                let reply = encode_response_checked(&Engine::handle(&mut replica, req).unwrap());
                let mut frame = (reply.len() as u32).to_le_bytes().to_vec();
                frame.extend_from_slice(&reply);
                match on {
                    On::Answer => stream.write_all(&frame).unwrap(),
                    On::HangUp => break,
                    On::HalfAnswer => {
                        stream.write_all(&frame[..frame.len() / 2]).unwrap();
                        break;
                    }
                }
            }
        }
        accepted
    });
    (addr, handle)
}

#[test]
fn a_parked_connection_the_peer_closed_is_replaced_inside_the_exchange() {
    let _pool = pool_to_myself();
    let (addr, server) = scripted_server(vec![On::Answer, On::HangUp, On::Answer]);
    let before = pool::stats();
    let mut recipient = Replica::new(NodeId(1), 2, 8);
    Engine::pull(&mut recipient, &mut TcpTransport::new(NodeId(0), addr)).unwrap();
    assert_eq!(pool::stats().parked, 1);
    // The second round's request is hung up on — on the parked connection,
    // before any reply byte — and sent again on a new one. No retry policy
    // is involved, and the round sees one exchange.
    Engine::pull(&mut recipient, &mut TcpTransport::new(NodeId(0), addr)).unwrap();
    assert_eq!(since(before), (2, 1, 1), "(connects, reuses, stale reconnects)");
    assert_eq!(recipient.costs().retries, 0);
    pool::evict(&[addr]);
    assert_eq!(server.join().unwrap(), 2);
}

#[test]
fn a_new_connection_hung_up_on_is_the_retry_policys_business() {
    let _pool = pool_to_myself();
    let (addr, server) = scripted_server(vec![On::HangUp, On::Answer]);
    let before = pool::stats();
    let mut recipient = Replica::new(NodeId(1), 2, 8);
    let mut transport = TcpTransport::new(NodeId(0), addr);
    assert!(Engine::pull(&mut recipient, &mut transport).is_err(), "no resend on a new connection");
    assert_eq!(since(before), (1, 0, 0), "(connects, reuses, stale reconnects)");
    Engine::pull_with(&mut recipient, &mut transport, &RetryPolicy::attempts(2)).unwrap();
    drop(transport);
    pool::evict(&[addr]);
    assert_eq!(server.join().unwrap(), 2);
}

#[test]
fn half_a_response_on_a_reused_connection_is_the_retry_policys_business() {
    let _pool = pool_to_myself();
    let (addr, server) = scripted_server(vec![On::Answer, On::HalfAnswer, On::Answer]);
    let mut recipient = Replica::new(NodeId(1), 2, 8);
    Engine::pull(&mut recipient, &mut TcpTransport::new(NodeId(0), addr)).unwrap();
    let before = pool::stats();
    let mut transport = TcpTransport::new(NodeId(0), addr);
    let policy = RetryPolicy::attempts(2);
    Engine::pull_with(&mut recipient, &mut transport, &policy).unwrap();
    assert_eq!(since(before), (1, 1, 0), "(connects, reuses, stale reconnects)");
    assert_eq!(recipient.costs().retries, 1, "the cut-off response must be charged as a retry");
    drop(transport);
    pool::evict(&[addr]);
    assert_eq!(server.join().unwrap(), 2);
}

// ---------------------------------------------------------------------------
// (e) concurrent initiators
// ---------------------------------------------------------------------------

#[test]
fn concurrent_pulls_from_one_source_park_one_stream() {
    let _pool = pool_to_myself();
    let cluster = Arc::new(AsyncTcpCluster::spawn(3, 8, quiet_async()).unwrap());
    cluster.update(NodeId(0), ItemId(1), UpdateOp::set(&b"v"[..])).unwrap();
    let start = Arc::new(Barrier::new(2));
    let pullers: Vec<_> = [NodeId(1), NodeId(2)]
        .into_iter()
        .map(|recipient| {
            let (cluster, start) = (cluster.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..200 {
                    cluster.pull_now(recipient, NodeId(0)).unwrap();
                }
            })
        })
        .collect();
    for p in pullers {
        p.join().unwrap();
    }
    assert_eq!(pool::stats().parked, 1, "one address was pulled from: one stream stays parked");
    let Ok(cluster) = Arc::try_unwrap(cluster) else { panic!("pullers still hold the cluster") };
    cluster.shutdown();
    assert_eq!(pool::stats().parked, 0, "shutdown left streams parked");
}

// ---------------------------------------------------------------------------
// A crash closes the connections the crashed incarnation accepted
// ---------------------------------------------------------------------------

#[test]
fn a_revived_reactor_node_does_not_serve_its_previous_incarnations_connections() {
    let _pool = pool_to_myself();
    let cluster = AsyncTcpCluster::spawn(2, 8, quiet_async()).unwrap();
    let mut held = cluster.transport_to(NodeId(0));
    held.exchange(probe(NodeId(1), 2, 8)).unwrap();
    RetryPolicy::default()
        .poll_until("the held connection re-arms", Duration::from_secs(5), || {
            cluster.open_connections() == 1
        })
        .unwrap();
    cluster.crash(NodeId(0));
    assert_eq!(cluster.open_connections(), 0, "the crash left the node's connections open");
    cluster.revive(NodeId(0));
    let before = pool::stats();
    held.exchange(probe(NodeId(1), 2, 8)).expect("the exchange moves to a new connection");
    assert_eq!(since(before), (1, 0, 1), "(connects, reuses, stale reconnects)");
    drop(held);
    cluster.shutdown();
    assert_eq!(pool::stats().parked, 0, "shutdown left streams parked");
}

#[test]
fn a_revived_thread_per_connection_node_does_not_serve_its_previous_incarnations_connections() {
    let _pool = pool_to_myself();
    let cluster = TcpCluster::spawn(2, 8, quiet_tcp()).unwrap();
    let mut held = cluster.transport_to(NodeId(0));
    held.exchange(probe(NodeId(1), 2, 8)).unwrap();
    cluster.crash(NodeId(0));
    cluster.revive(NodeId(0));
    let before = pool::stats();
    held.exchange(probe(NodeId(1), 2, 8)).expect("the exchange moves to a new connection");
    assert_eq!(since(before), (1, 0, 1), "(connects, reuses, stale reconnects)");
    drop(held);
    cluster.shutdown();

    let cluster = ShardedTcpCluster::spawn(two_group_map(), 4, quiet_sharded()).unwrap();
    let shard_probe =
        || ProtocolRequest::Shard { shard: ShardId(0), req: Box::new(probe(NodeId(1), 4, 8)) };
    let mut held = cluster.transport_to(NodeId(0));
    held.exchange(shard_probe()).unwrap();
    cluster.crash(NodeId(0));
    cluster.revive(NodeId(0));
    let before = pool::stats();
    held.exchange(shard_probe()).expect("the exchange moves to a new connection");
    assert_eq!(since(before), (1, 0, 1), "(connects, reuses, stale reconnects)");
    drop(held);
    cluster.shutdown();
    assert_eq!(pool::stats().parked, 0, "shutdown left streams parked");
}
