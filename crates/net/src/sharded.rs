//! The live runtime for *sharded* deployments: [`ShardedTcpCluster`], the
//! per-shard protocol of [`epidb_core::shard`] on the one socket cluster
//! ([`SocketCluster`]).
//!
//! Each node serves and gossips only the shards its map entry assigns to
//! it: every incoming exchange is a `Shard`-enveloped request that
//! [`Engine::handle_sharded`] routes through the map, and every gossip
//! tick pulls each owned shard from a random co-owner in that shard's
//! replica group. A node therefore pays gossip costs only for the shards
//! it owns — the partial-replication property the shard map exists to
//! provide — and each shard converges within its group by the ordinary
//! §2.1 anti-entropy argument, independently of every other shard. With
//! durability, a node journals every owned shard into its one group WAL,
//! a stream per shard, and a revival recovers them all from it.
//!
//! The typed refusals ride in-band as
//! [`ProtocolResponse::Refused`](epidb_core::ProtocolResponse::Refused)
//! frames and are re-raised by the transport, so the initiator observes
//! the same [`Error`](epidb_common::Error), with the same retryability, as
//! an in-process caller of the engine.

use epidb_common::{ItemId, NodeId, Result, ShardId};
use epidb_core::{
    ChaosLink, ChaosTransport, Engine, PullOutcome, RetryPolicy, ShardMap, ShardedOob,
};

use crate::node::{Sharded, SocketCluster};
use crate::tcp::TcpConfig;

/// The knobs of [`ShardedTcpCluster`]: those of every socket cluster.
pub type ShardedConfig = TcpConfig;

/// A sharded cluster over localhost TCP: each node serves and gossips only
/// the shards its map entry assigns to it.
pub type ShardedTcpCluster = SocketCluster<Sharded>;

impl SocketCluster<Sharded> {
    /// Bind `n_nodes` reactor-served listeners on localhost and start
    /// per-shard gossip. With `config.durability` set, each node journals
    /// its owned shards through one group-commit WAL.
    pub fn spawn(
        map: ShardMap,
        n_nodes: usize,
        config: ShardedConfig,
    ) -> Result<ShardedTcpCluster> {
        SocketCluster::launch(map, n_nodes, config, 0, false)
    }

    /// One whole pull of `shard` right now, bypassing the gossip schedule.
    pub fn pull_shard_now(
        &self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
    ) -> Result<PullOutcome> {
        self.round_now(recipient, source, shard, |h, mut t| Engine::pull(h, &mut t))
    }

    /// As [`pull_shard_now`](Self::pull_shard_now), in delta mode.
    pub fn pull_delta_shard_now(
        &self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
    ) -> Result<PullOutcome> {
        self.round_now(recipient, source, shard, |h, mut t| Engine::pull_delta(h, &mut t))
    }

    /// As [`pull_shard_now`](Self::pull_shard_now), via digest-tree set
    /// reconciliation — the cold-start rung below whole-pull.
    pub fn pull_recon_shard_now(
        &self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
    ) -> Result<PullOutcome> {
        self.round_now(recipient, source, shard, |h, mut t| Engine::pull_recon(h, &mut t))
    }

    /// One whole pull of `shard` through a caller-owned [`ChaosLink`].
    pub fn pull_shard_now_chaos(
        &self,
        recipient: NodeId,
        source: NodeId,
        shard: ShardId,
        link: &mut ChaosLink,
        policy: &RetryPolicy,
    ) -> Result<PullOutcome> {
        assert_ne!(recipient, source, "a node cannot pull from itself");
        self.checked(source)?;
        let node = self.checked(recipient)?;
        let mut chaos = ChaosTransport::new(self.transport_to(source), link);
        node.round(shard, &mut chaos, |h, mut t| Engine::pull_with(h, &mut t, policy))
    }

    /// Out-of-bound resolution of a globally addressed item over TCP;
    /// cross-group fetches route via the shard map. Drive from harness
    /// threads one exchange at a time (the recipient's node lock is held
    /// across the exchange).
    pub fn oob_fetch(&self, recipient: NodeId, source: NodeId, item: ItemId) -> Result<ShardedOob> {
        assert_ne!(recipient, source, "a node cannot fetch from itself");
        self.checked(source)?;
        let node = self.checked(recipient)?;
        let mut transport = self.transport_to(source);
        node.mutate(|n| Engine::oob_sharded(n, &mut transport, item))
    }

    /// Stop all threads. Inspect final state with
    /// [`with_node`](Self::with_node) *before* shutting down.
    pub fn shutdown(mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Duration;

    use epidb_common::{Costs, Error};
    use epidb_core::codec::{decode_response_checked, encode_request_checked};
    use epidb_core::{ProtocolRequest, ProtocolResponse, Transport};
    use epidb_durable::testdir::TempDir;
    use epidb_durable::DurabilityConfig;
    use epidb_store::UpdateOp;

    use crate::tcp::read_frame_into;

    /// 4 nodes, 2 groups × 2 nodes, 2 shards × 8 items.
    fn two_group_map() -> ShardMap {
        ShardMap::new(8, vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]])
    }

    fn fast_config() -> ShardedConfig {
        ShardedConfig { gossip_interval: Duration::from_millis(1), ..ShardedConfig::default() }
    }

    fn quiet_config() -> ShardedConfig {
        ShardedConfig { gossip_interval: Duration::from_secs(60), ..ShardedConfig::default() }
    }

    #[test]
    fn sharded_cluster_converges_per_group_over_tcp() {
        let cluster = ShardedTcpCluster::spawn(
            two_group_map(),
            4,
            ShardedConfig { paranoid: true, ..fast_config() },
        )
        .unwrap();
        // Writes land at an owner of each item's shard.
        cluster.update(NodeId(1), ItemId(3), UpdateOp::set(&b"alpha"[..])).unwrap();
        cluster.update(NodeId(3), ItemId(12), UpdateOp::set(&b"beta"[..])).unwrap();
        assert!(cluster.quiesce(Duration::from_secs(30)), "no sharded quiescence over TCP");
        assert_eq!(cluster.read(NodeId(0), ItemId(3)).unwrap(), b"alpha");
        assert_eq!(cluster.read(NodeId(2), ItemId(12)).unwrap(), b"beta");
        // Partial replication: each node holds only its own group's shard
        // and pays costs only there.
        for n in 0..4u16 {
            cluster.with_node(NodeId(n), |node| {
                assert_eq!(node.owned_shards().len(), 1);
                node.check_invariants_clean().unwrap();
                assert!(node.audits_run() > 0, "paranoid audits must run");
            });
        }
        // Cross-group reads redirect with the owning group.
        match cluster.read(NodeId(0), ItemId(12)) {
            Err(Error::NotServedHere { owners, .. }) => {
                assert_eq!(owners, vec![NodeId(2), NodeId(3)]);
            }
            other => panic!("expected redirect, got {other:?}"),
        }
        cluster.shutdown();
    }

    #[test]
    fn typed_refusals_survive_the_tcp_wire() {
        let cluster = ShardedTcpCluster::spawn(two_group_map(), 4, quiet_config()).unwrap();
        // Ask node 0 (group {n0, n1}, shard s0) for shard s1.
        let mut transport = cluster.transport_to(NodeId(0));
        let req = ProtocolRequest::Shard {
            shard: ShardId(1),
            req: Box::new(ProtocolRequest::Oob { from: NodeId(2), item: ItemId(0) }),
        };
        match transport.exchange(req) {
            Err(Error::NotServedHere { shard, owners }) => {
                assert_eq!(shard, ShardId(1));
                assert_eq!(owners, vec![NodeId(2), NodeId(3)]);
            }
            other => panic!("expected a typed redirect over TCP, got {other:?}"),
        }
        // The refusal was never charged at the refusing server.
        assert_eq!(cluster.node_costs(NodeId(0)), Costs::default());
        cluster.shutdown();
    }

    #[test]
    fn a_corrupt_request_is_refused_and_charged_to_the_node() {
        let cluster = ShardedTcpCluster::spawn(two_group_map(), 4, quiet_config()).unwrap();
        let req = ProtocolRequest::Shard {
            shard: ShardId(0),
            req: Box::new(ProtocolRequest::Oob { from: NodeId(1), item: ItemId(0) }),
        };
        let mut body = encode_request_checked(&req);
        *body.last_mut().unwrap() ^= 0x40; // fails the CRC
        let mut stream = TcpStream::connect(cluster.addr(NodeId(0))).unwrap();
        stream.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
        stream.write_all(&body).unwrap();
        let mut frame = Vec::new();
        read_frame_into(&mut stream, &mut frame).unwrap();
        match decode_response_checked(&frame).unwrap() {
            ProtocolResponse::Error(msg) => assert!(msg.starts_with("bad request"), "{msg}"),
            other => panic!("expected an in-band refusal, got {other:?}"),
        }
        let costs = cluster.node_costs(NodeId(0));
        assert_eq!(costs, Costs { corrupt_frames_dropped: 1, ..Costs::default() });
        drop(stream);
        cluster.shutdown();
    }

    #[test]
    fn cross_group_oob_over_tcp() {
        let tcp = ShardedTcpCluster::spawn(two_group_map(), 4, quiet_config()).unwrap();
        tcp.update(NodeId(3), ItemId(10), UpdateOp::set(&b"wire"[..])).unwrap();
        match tcp.oob_fetch(NodeId(1), NodeId(3), ItemId(10)).unwrap() {
            ShardedOob::Fetched { value, .. } => assert_eq!(&value[..], b"wire"),
            other => panic!("expected a cross-group fetch, got {other:?}"),
        }
        tcp.shutdown();
    }

    #[test]
    fn delta_gossip_converges_per_shard_over_tcp() {
        let cluster = ShardedTcpCluster::spawn(
            two_group_map(),
            4,
            ShardedConfig { delta_budget: 1 << 20, ..fast_config() },
        )
        .unwrap();
        for i in 0..4u32 {
            cluster.update(NodeId(0), ItemId(i), UpdateOp::set(vec![i as u8; 16])).unwrap();
            cluster.update(NodeId(2), ItemId(8 + i), UpdateOp::set(vec![i as u8; 16])).unwrap();
        }
        assert!(cluster.quiesce(Duration::from_secs(20)), "no delta quiescence");
        for i in 0..4u32 {
            assert_eq!(cluster.read(NodeId(1), ItemId(i)).unwrap(), vec![i as u8; 16]);
            assert_eq!(cluster.read(NodeId(3), ItemId(8 + i)).unwrap(), vec![i as u8; 16]);
        }
        cluster.shutdown();
    }

    #[test]
    fn a_durable_node_owning_two_shards_recovers_every_acked_write_from_disk() {
        // Node 0 owns both shards, nodes 1 and 2 one each, and gossip
        // idles: after the crash nothing but node 0's own disk can refill
        // it. Checkpoints every few records, so recovery is snapshots of
        // both streams plus a WAL tail.
        let map = ShardMap::new(8, vec![vec![NodeId(0), NodeId(1)], vec![NodeId(0), NodeId(2)]]);
        let tmp = TempDir::new("sharded-durable");
        let mut durability = DurabilityConfig::new(tmp.path().clone());
        durability.checkpoint_every = 5;
        let config =
            ShardedConfig { durability: Some(durability), paranoid: true, ..quiet_config() };
        let cluster = ShardedTcpCluster::spawn(map, 3, config).unwrap();
        let value = |i: u32, k: u8| vec![i as u8 ^ k; 8 + 50 * (i as usize % 4)];
        let mut expected: Vec<Vec<u8>> = vec![Vec::new(); 16];
        for k in 0..3u8 {
            for i in (0..16u32).filter(|i| i % 8 != 7) {
                cluster.update(NodeId(0), ItemId(i), UpdateOp::set(value(i, k))).unwrap();
                expected[i as usize] = value(i, k);
            }
        }
        // Writes at the other owners, pulled in: adopted copies journal too.
        cluster.update(NodeId(1), ItemId(7), UpdateOp::set(&b"from-1"[..])).unwrap();
        cluster.update(NodeId(2), ItemId(15), UpdateOp::set(&b"from-2"[..])).unwrap();
        cluster.pull_shard_now(NodeId(0), NodeId(1), ShardId(0)).unwrap();
        cluster.pull_shard_now(NodeId(0), NodeId(2), ShardId(1)).unwrap();
        expected[7] = b"from-1".to_vec();
        expected[15] = b"from-2".to_vec();

        cluster.crash(NodeId(0));
        assert!(matches!(cluster.read(NodeId(0), ItemId(3)), Err(Error::NodeDown(NodeId(0)))));
        assert_eq!(cluster.group_commit_stats(NodeId(0)), None, "the WAL is closed");
        cluster.revive(NodeId(0));
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(&cluster.read(NodeId(0), ItemId(i as u32)).unwrap(), want, "item {i}");
        }
        cluster.with_node(NodeId(0), |n| {
            assert_eq!(n.owned_shards(), vec![ShardId(0), ShardId(1)]);
            n.check_invariants_clean().unwrap();
        });
        let snapshots = |stream: usize| {
            std::fs::read_dir(tmp.path().join("node-0"))
                .unwrap()
                .filter(|e| {
                    let name = e.as_ref().unwrap().file_name().into_string().unwrap();
                    name.starts_with("snap-") && name.ends_with(&format!("-{stream}.epdb"))
                })
                .count()
        };
        assert!(snapshots(0) > 0 && snapshots(1) > 0, "one snapshot stream per owned shard");
        cluster.shutdown();
    }
}
