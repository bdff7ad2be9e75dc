#![warn(missing_docs)]

//! `epidb-net` — the live runtime for `epidb` replicas.
//!
//! The experiment suite (`epidb-sim`) measures protocol overhead in a
//! deterministic single-process simulation; this crate complements it with
//! one *live* fabric: framed localhost sockets, every node served by one
//! epoll reactor ([`AsyncServer`]) from a small worker pool, and initiator
//! rounds driven by one gossip thread per node.
//!
//! There is one node kind ([`node`]): a `ShardedNode`, an alive flag and,
//! with durability, one group-commit WAL with a stream per owned shard,
//! so every node — sharded or not — journals, acks and recovers the same
//! way. An unsharded node is a one-shard node that exchanges bare frames.
//! There is one cluster, [`SocketCluster`], with two views:
//! [`AsyncTcpCluster`] runs one replica per node, [`ShardedTcpCluster`]
//! the owned shards of a shard map. Both are thin adapters over the
//! transport-agnostic engine in `epidb-core`: every pull, delta, and
//! out-of-bound exchange is a
//! [`ProtocolRequest`](epidb_core::ProtocolRequest) executed by
//! [`Engine::handle`](epidb_core::Engine::handle) at the responder, so cost
//! accounting, tracing, and paranoid audits behave identically over
//! sockets and in-process calls.
//!
//! The runtimes inject the failures the protocol is designed to survive —
//! via the seed-deterministic [`ChaosTransport`](epidb_core::ChaosTransport)
//! and its [`FaultPlan`](epidb_core::FaultPlan): message loss, duplication,
//! reordering, corruption, latency, partitions, mid-exchange resets — plus
//! node crashes/recoveries at the cluster level. With durability on, a
//! crash drops the node's replicas and a revival recovers them from the
//! node's group-commit WAL.
//!
//! Socket initiators do not connect per round: [`TcpTransport`] parks one
//! connection per peer address in a process-wide [`pool`] and the next
//! round to that peer takes it out again.
//!
//! ```
//! use epidb_net::{AsyncTcpCluster, AsyncTcpConfig, TcpConfig};
//! use epidb_common::{ItemId, NodeId};
//! use epidb_store::UpdateOp;
//! use std::time::Duration;
//!
//! let cluster = AsyncTcpCluster::spawn(3, 100, AsyncTcpConfig {
//!     base: TcpConfig { gossip_interval: Duration::from_millis(2), ..TcpConfig::default() },
//!     worker_threads: 2,
//! })
//! .unwrap();
//! cluster.update(NodeId(0), ItemId(7), UpdateOp::set(&b"hello"[..])).unwrap();
//! assert!(cluster.quiesce(Duration::from_secs(10)));
//! assert_eq!(cluster.read(NodeId(2), ItemId(7)).unwrap(), b"hello");
//! cluster.shutdown();
//! ```

pub mod async_tcp;
mod gossip;
pub mod node;
pub mod pool;
pub mod sharded;
pub mod tcp;
pub mod transport;

pub use async_tcp::{AsyncServer, AsyncTcpCluster, AsyncTcpConfig, FrameService};
pub use node::{Sharded, SocketCluster, Unsharded};
pub use pool::PoolStats;
pub use sharded::{ShardedConfig, ShardedTcpCluster};
pub use tcp::{TcpConfig, TcpSocketOptions, TcpTransport};
pub use transport::MutexHost;
