//! Fault injection over real sockets: the TCP runtime must converge under
//! message loss combined with a crash/recovery, with paranoid per-step
//! audits running at every replica throughout — and, under real threads
//! (gossip threads plus the reactor's worker pool), concurrent writers,
//! out-of-bound fetches and repeated crash/revive cycles must keep every
//! replica consistent.

use epidb::core::FaultPlan;
use epidb::durable::{testdir::TempDir, DurabilityConfig};
use epidb::net::{AsyncTcpCluster, AsyncTcpConfig, TcpConfig};
use epidb::prelude::*;
use std::time::Duration;

fn fast() -> AsyncTcpConfig {
    AsyncTcpConfig {
        base: TcpConfig { gossip_interval: Duration::from_millis(1), ..TcpConfig::default() },
        worker_threads: 2,
    }
}

#[test]
fn concurrent_writers_converge_under_loss_and_latency() {
    let cluster = AsyncTcpCluster::spawn(
        5,
        200,
        AsyncTcpConfig {
            base: TcpConfig {
                gossip_interval: Duration::from_millis(1),
                fault_plan: Some(FaultPlan {
                    latency: Duration::from_micros(50),
                    ..FaultPlan::lossy(0.2)
                }),
                ..TcpConfig::default()
            },
            worker_threads: 2,
        },
    )
    .unwrap();
    // Single-writer partition: node = item mod 5.
    for i in 0..100u32 {
        let node = NodeId((i % 5) as u16);
        cluster.update(node, ItemId(i), UpdateOp::set(format!("v{i}").into_bytes())).unwrap();
    }
    assert!(cluster.quiesce(Duration::from_secs(60)), "no quiescence under loss");
    for i in (0..100u32).step_by(13) {
        for node in 0..5u16 {
            assert_eq!(
                cluster.read(NodeId(node), ItemId(i)).unwrap(),
                format!("v{i}").into_bytes()
            );
        }
    }
    let replicas = cluster.shutdown();
    for r in &replicas {
        r.check_invariants().unwrap();
        assert_eq!(r.costs().conflicts_detected, 0);
        assert_eq!(r.counters().equal_receipts, 0);
        assert_eq!(r.counters().stale_receipts, 0);
    }
}

#[test]
fn oob_fetch_reconciles_under_live_gossip() {
    let cluster = AsyncTcpCluster::spawn(3, 50, fast()).unwrap();
    cluster.update(NodeId(0), ItemId(9), UpdateOp::set(&b"hot"[..])).unwrap();
    // Fetch out-of-bound while gossip runs concurrently.
    let _ = cluster.oob_fetch(NodeId(1), NodeId(0), ItemId(9)).unwrap();
    assert_eq!(cluster.read(NodeId(1), ItemId(9)).unwrap(), b"hot");
    // Quiescence requires all auxiliary state to drain.
    assert!(cluster.quiesce(Duration::from_secs(30)));
    cluster.with_replica(NodeId(1), |r| {
        assert_eq!(r.aux_item_count(), 0);
        assert_eq!(r.read_regular(ItemId(9)).unwrap().as_bytes(), b"hot");
    });
    cluster.shutdown();
}

#[test]
fn repeated_crash_revive_cycles_stay_consistent() {
    // Durable: every crash drops the victim's replica, every revival
    // recovers it from the node's group WAL before anti-entropy resumes.
    let tmp = TempDir::new("tcp-crash-cycles");
    let mut config = fast();
    config.base.durability = Some(DurabilityConfig::new(tmp.path().clone()));
    let cluster = AsyncTcpCluster::spawn(4, 50, config).unwrap();
    for cycle in 0..3u8 {
        let victim = NodeId((cycle % 4) as u16);
        cluster.crash(victim);
        // Updates continue at a surviving node.
        let writer = NodeId(((cycle + 1) % 4) as u16);
        cluster.update(writer, ItemId(cycle as u32), UpdateOp::set(vec![cycle + 1])).unwrap();
        assert!(cluster.quiesce(Duration::from_secs(30)));
        cluster.revive(victim);
        assert!(cluster.quiesce(Duration::from_secs(30)));
        assert_eq!(cluster.read(victim, ItemId(cycle as u32)).unwrap(), vec![cycle + 1]);
    }
    let replicas = cluster.shutdown();
    for r in &replicas {
        r.check_invariants().unwrap();
    }
}

#[test]
fn update_on_downed_node_is_rejected_and_state_preserved() {
    let cluster = AsyncTcpCluster::spawn(2, 10, fast()).unwrap();
    cluster.update(NodeId(1), ItemId(0), UpdateOp::set(&b"pre-crash"[..])).unwrap();
    assert!(cluster.quiesce(Duration::from_secs(20)));
    cluster.crash(NodeId(1));
    assert!(matches!(
        cluster.update(NodeId(1), ItemId(0), UpdateOp::set(&b"x"[..])),
        Err(Error::NodeDown(NodeId(1)))
    ));
    // Without durability the replica survives the crash in memory.
    cluster.with_replica(NodeId(1), |r| {
        assert_eq!(r.read(ItemId(0)).unwrap().as_bytes(), b"pre-crash");
    });
    cluster.shutdown();
}

#[test]
fn tcp_cluster_converges_under_loss_and_crash() {
    let cluster = AsyncTcpCluster::spawn(
        3,
        30,
        AsyncTcpConfig {
            base: TcpConfig {
                gossip_interval: Duration::from_millis(2),
                fault_plan: Some(FaultPlan::lossy(0.25)),
                paranoid: true,
                ..TcpConfig::default()
            },
            worker_threads: 2,
        },
    )
    .unwrap();

    for i in 0..8u32 {
        cluster
            .update(NodeId((i % 3) as u16), ItemId(i), UpdateOp::set(vec![i as u8 + 1; 40]))
            .unwrap();
    }

    // Crash a node mid-stream; updates keep landing elsewhere.
    cluster.crash(NodeId(1));
    assert!(matches!(
        cluster.update(NodeId(1), ItemId(9), UpdateOp::set(&b"x"[..])),
        Err(Error::NodeDown(NodeId(1)))
    ));
    cluster.update(NodeId(0), ItemId(9), UpdateOp::set(&b"while-down"[..])).unwrap();
    cluster.update(NodeId(2), ItemId(10), UpdateOp::append(&b"tail"[..])).unwrap();
    assert!(cluster.quiesce(Duration::from_secs(60)), "survivors did not converge under loss");

    // The crashed node keeps its in-memory state and catches up through
    // ordinary anti-entropy.
    cluster.revive(NodeId(1));
    assert!(cluster.quiesce(Duration::from_secs(60)), "revived node did not catch up");

    for i in 0..8u32 {
        for node in 0..3u16 {
            assert_eq!(cluster.read(NodeId(node), ItemId(i)).unwrap(), vec![i as u8 + 1; 40]);
        }
    }
    assert_eq!(cluster.read(NodeId(1), ItemId(9)).unwrap(), b"while-down");
    assert_eq!(cluster.read(NodeId(1), ItemId(10)).unwrap(), b"tail");

    let replicas = cluster.shutdown();
    for r in &replicas {
        r.check_invariants().unwrap_or_else(|e| panic!("invariant violated at {}: {e}", r.id()));
        assert!(r.audits_run() > 0, "paranoid audits never ran at {}", r.id());
        assert_eq!(r.costs().conflicts_detected, 0);
    }
}

#[test]
fn tcp_delta_gossip_converges_under_loss() {
    let cluster = AsyncTcpCluster::spawn(
        3,
        20,
        AsyncTcpConfig {
            base: TcpConfig {
                gossip_interval: Duration::from_millis(2),
                fault_plan: Some(FaultPlan::lossy(0.2)),
                delta_budget: 1 << 20,
                paranoid: true,
                ..TcpConfig::default()
            },
            worker_threads: 2,
        },
    )
    .unwrap();
    for i in 0..6u32 {
        cluster
            .update(NodeId((i % 3) as u16), ItemId(i), UpdateOp::set(vec![i as u8; 50]))
            .unwrap();
    }
    assert!(cluster.quiesce(Duration::from_secs(60)), "delta gossip did not converge under loss");
    let replicas = cluster.shutdown();
    for r in &replicas {
        r.check_invariants().unwrap();
        assert!(r.audits_run() > 0);
    }
}

/// A transport wrapper that kills the TCP connection on one chosen
/// exchange: the frame never goes out, the socket is dropped, and the
/// caller sees a network error — a connection dying between the delta
/// offer and the fetch.
struct KillNthExchange {
    inner: epidb::net::TcpTransport,
    n: usize,
    count: usize,
}

impl epidb::core::Transport for KillNthExchange {
    fn peer(&self) -> NodeId {
        self.inner.peer()
    }

    fn exchange(
        &mut self,
        req: epidb::core::ProtocolRequest,
    ) -> Result<epidb::core::ProtocolResponse> {
        self.count += 1;
        if self.count == self.n {
            self.inner.reset();
            return Err(Error::Network("connection killed mid-exchange".into()));
        }
        self.inner.exchange(req)
    }
}

/// Kill the connection between the delta offer and the delta fetch: the
/// recipient saw the offer, the responder never got the fetch. The retry
/// policy must ride through — the next attempt restarts the round from
/// the current DBVV, reconnects, and converges — and the responder's
/// invariants must hold throughout (serving an offer changes nothing).
#[test]
fn tcp_kill_between_delta_offer_and_fetch_retries_cleanly() {
    use epidb::core::RetryPolicy;

    let cluster = AsyncTcpCluster::spawn(
        2,
        10,
        AsyncTcpConfig {
            base: TcpConfig {
                // The harness drives the only pulls.
                gossip_interval: Duration::from_secs(3600),
                delta_budget: 1 << 20,
                paranoid: true,
                ..TcpConfig::default()
            },
            worker_threads: 2,
        },
    )
    .unwrap();

    for i in 0..4u32 {
        cluster.update(NodeId(0), ItemId(i), UpdateOp::set(vec![i as u8 + 1; 40])).unwrap();
    }

    // Exchange 1 is DeltaPull -> DeltaOffer; exchange 2 is the fetch.
    let mut transport = KillNthExchange { inner: cluster.transport_to(NodeId(0)), n: 2, count: 0 };

    // Without retries the round fails where the connection died...
    let policy = RetryPolicy::none();
    assert!(cluster.pull_delta_now_via(NodeId(1), &mut transport, &policy).is_err());

    // ...and with retries the next attempt completes the round.
    let mut transport = KillNthExchange { inner: cluster.transport_to(NodeId(0)), n: 2, count: 0 };
    let policy = RetryPolicy::attempts(4);
    let outcome = cluster.pull_delta_now_via(NodeId(1), &mut transport, &policy).unwrap();
    assert!(!outcome.copied().is_empty(), "retry must complete the interrupted round");

    for i in 0..4u32 {
        assert_eq!(cluster.read(NodeId(1), ItemId(i)).unwrap(), vec![i as u8 + 1; 40]);
    }
    cluster.with_replica(NodeId(1), |r| {
        assert!(r.costs().retries > 0, "the killed exchange must be counted as a retry");
    });

    let replicas = cluster.shutdown();
    for r in &replicas {
        r.check_invariants().unwrap_or_else(|e| panic!("invariant violated at {}: {e}", r.id()));
        assert_eq!(r.costs().conflicts_detected, 0);
    }
}
