//! The gossip tick, once: every node's initiator thread runs
//! [`gossip_loop`]. It owns the interval sleep, the alive check, the
//! per-peer [`ChaosLink`]s, the choice of peer and the delta-vs-whole
//! switch; each tick pulls every owned shard of the [`Node`] — the one
//! shard of an unsharded node — from a random co-owner.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use epidb_common::{NodeId, Result, ShardId};
use epidb_core::{
    ChaosLink, ChaosTransport, Engine, GossipBudget, PullOutcome, ReplicaHost, ShardedNode,
    Transport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::async_tcp::FrameService;
use crate::node::Node;
use crate::tcp::TcpConfig;

/// Mixed with `me` into the peer-choice rng seed (the value the socket
/// runtimes have always used, so seeded schedules do not move).
const RNG_SALT: u64 = 0x51_7C_C1;

/// One tick's gossip plan for `me`: for each owned, non-moving shard, a
/// co-owner drawn uniformly from that shard's replica group (per the
/// node's *current* map copy, so a reassignment redirects gossip
/// immediately). A shard `me` alone owns is skipped. On a one-shard map of
/// every node this is one `gen_range(0..n - 1)` draw per tick.
pub(crate) fn gossip_rounds(
    node: &ShardedNode,
    me: NodeId,
    rng: &mut StdRng,
) -> Vec<(ShardId, NodeId)> {
    let mut rounds = Vec::new();
    for shard in node.owned_shards() {
        let peers = node.map().owners(shard).iter().copied().filter(|&p| p != me);
        let count = peers.clone().count();
        if node.is_moving(shard) || count == 0 {
            continue;
        }
        rounds.push((shard, peers.clone().nth(rng.gen_range(0..count)).expect("in range")));
    }
    rounds
}

/// The initiator side of a node: every gossip interval, while it is alive,
/// run this tick's anti-entropy rounds, each over its own transport from
/// `connect` (the transports share one parked connection per peer), until
/// `running` clears. Faults, refusals and crashed peers exhaust the
/// in-round retry policy and surface as errors; gossip then just retries
/// on the next tick.
pub(crate) fn gossip_loop<T: Transport>(
    me: NodeId,
    n_nodes: usize,
    cfg: TcpConfig,
    running: &AtomicBool,
    node: &Node,
    connect: impl Fn(NodeId) -> T,
) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (me.index() as u64).wrapping_mul(RNG_SALT));
    // One persistent chaos link per peer: the fault process on each link
    // is continuous across gossip rounds and deterministic in
    // (seed, me, peer).
    let plan = cfg.fault_plan.clone().unwrap_or_default();
    let mut links: Vec<ChaosLink> = (0..n_nodes)
        .map(|peer| {
            let link = (me.index() * n_nodes + peer) as u64;
            let link_seed = cfg.seed.wrapping_add(link.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            ChaosLink::new(link_seed, plan.clone())
        })
        .collect();
    while running.load(Ordering::SeqCst) {
        // Sleep the gossip interval in small slices so shutdown is prompt
        // even with long intervals.
        let wake = Instant::now() + cfg.gossip_interval;
        while Instant::now() < wake {
            if !running.load(Ordering::SeqCst) {
                return;
            }
            let left = wake.saturating_duration_since(Instant::now());
            std::thread::sleep(left.min(Duration::from_millis(20)));
        }
        if !node.alive() {
            continue;
        }
        // Snapshot the plan under the lock, then exchange without it.
        for (shard, peer) in node.with(|n| gossip_rounds(n, me, &mut rng)) {
            let mut transport = ChaosTransport::new(connect(peer), &mut links[peer.index()]);
            let _ = node.round(shard, &mut transport, |host, mut t| pull(&cfg, host, &mut t));
        }
    }
}

/// One gossip round in the configured shipping mode: delta when the
/// replicas cache update operations.
fn pull<H: ReplicaHost, T: Transport>(
    cfg: &TcpConfig,
    host: &mut H,
    transport: &mut T,
) -> Result<PullOutcome> {
    if cfg.delta_budget > 0 {
        let budget = GossipBudget::per_frame(cfg.max_frame_items);
        Engine::pull_delta_budgeted(host, transport, &cfg.retry, &budget)
    } else {
        Engine::pull_with(host, transport, &cfg.retry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidb_core::{ConflictPolicy, ShardMap};

    #[test]
    fn peer_choice_is_uniform_over_the_others_and_never_self() {
        // An unsharded node is a one-shard node of every node: its plan is
        // one peer per tick, drawn exactly as the `gen_range(0..n - 1)`
        // pick of the unsharded runtime always was, so seeded schedules
        // keep their peers.
        let (n, me, picks) = (4usize, NodeId(1), 10_000usize);
        let map = ShardMap::new(8, vec![NodeId::all(n).collect()]);
        let node = ShardedNode::new(me, n, map, ConflictPolicy::Report);
        let mut rng = StdRng::seed_from_u64(0xE51D);
        let mut reference = StdRng::seed_from_u64(0xE51D);
        let mut hits = vec![0usize; n];
        for _ in 0..picks {
            let rounds = gossip_rounds(&node, me, &mut rng);
            let pick = reference.gen_range(0..n - 1);
            let expected = NodeId::from_index(if pick >= me.index() { pick + 1 } else { pick });
            assert_eq!(rounds, vec![(ShardId(0), expected)], "one round, the same peer");
            hits[expected.index()] += 1;
        }
        assert_eq!(hits[me.index()], 0, "a node never gossips with itself");
        let expected = picks as f64 / (n - 1) as f64;
        for (peer, &h) in hits.iter().enumerate().filter(|&(p, _)| p != me.index()) {
            let off = (h as f64 - expected).abs() / expected;
            assert!(off < 0.05, "peer {peer} picked {h} times, expected about {expected}");
        }
        let alone = ShardedNode::new(
            NodeId(0),
            1,
            ShardMap::new(8, vec![vec![NodeId(0)]]),
            ConflictPolicy::Report,
        );
        assert!(
            gossip_rounds(&alone, NodeId(0), &mut rng).is_empty(),
            "a one-node cluster does not gossip"
        );
    }
}
