#![warn(missing_docs)]

//! `epidb-net` — live runtimes for `epidb` replicas.
//!
//! The experiment suite (`epidb-sim`) measures protocol overhead in a
//! deterministic single-process simulation; this crate complements it with
//! two *live* runtimes: [`ThreadedCluster`] (one OS thread pair per
//! replica, exchanges over crossbeam channels) and [`TcpCluster`] (the
//! same protocol over framed localhost sockets). Both are thin adapters
//! over the transport-agnostic engine in `epidb-core`: every pull, delta,
//! and out-of-bound exchange is a [`ProtocolRequest`](epidb_core::ProtocolRequest)
//! executed by [`Engine::handle`](epidb_core::Engine::handle) at the
//! responder, so cost accounting, tracing, and paranoid audits behave
//! identically under channels, sockets, and in-process calls.
//!
//! The runtimes inject the failures the protocol is designed to survive —
//! via the seed-deterministic [`ChaosTransport`](epidb_core::ChaosTransport)
//! and its [`FaultPlan`](epidb_core::FaultPlan): message loss, duplication,
//! reordering, corruption, latency, partitions, mid-exchange resets — plus
//! node crashes/recoveries at the cluster level.
//!
//! Socket initiators do not connect per round: [`TcpTransport`] parks one
//! connection per peer address in a process-wide [`pool`] and the next
//! round to that peer takes it out again.
//!
//! ```
//! use epidb_net::{ClusterConfig, ThreadedCluster};
//! use epidb_common::{ItemId, NodeId};
//! use epidb_store::UpdateOp;
//! use std::time::Duration;
//!
//! let cluster = ThreadedCluster::spawn(3, 100, ClusterConfig {
//!     gossip_interval: Duration::from_millis(2),
//!     ..ClusterConfig::default()
//! });
//! cluster.update(NodeId(0), ItemId(7), UpdateOp::set(&b"hello"[..])).unwrap();
//! assert!(cluster.quiesce(Duration::from_secs(10)));
//! assert_eq!(cluster.read(NodeId(2), ItemId(7)).unwrap(), b"hello");
//! cluster.shutdown();
//! ```

pub mod async_tcp;
mod gossip;
pub mod message;
pub mod pool;
pub mod runtime;
pub mod sharded;
pub mod tcp;
pub mod transport;

pub use async_tcp::{
    AsyncServer, AsyncTcpCluster, AsyncTcpConfig, FrameService, ShardedFrameService,
};
pub use message::NetMessage;
pub use pool::PoolStats;
pub use runtime::{ClusterConfig, ThreadedCluster};
pub use sharded::{ShardedConfig, ShardedTcpCluster, ShardedThreadedCluster};
pub use tcp::{TcpCluster, TcpConfig, TcpSocketOptions, TcpTransport};
pub use transport::MutexHost;
