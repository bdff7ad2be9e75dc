//! The gossip tick, once: every runtime's initiator thread runs
//! [`gossip_loop`]. It owns the interval sleep, the alive check, the
//! per-peer [`ChaosLink`]s, the choice of peer and the delta-vs-whole
//! switch; a runtime supplies only how a transport to a peer is made and
//! what is being gossiped (one replica, or the owned shards of a
//! [`ShardedNode`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use epidb_common::{NodeId, Result};
use epidb_core::{
    ChaosLink, ChaosTransport, Engine, FaultPlan, GossipBudget, PullOutcome, Replica, ReplicaHost,
    RetryPolicy, ShardTransport, ShardedNode, Transport,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sharded::{gossip_rounds, ShardHost};
use crate::transport::MutexHost;

/// Mixed with `me` into the peer-choice rng seed (the value the socket
/// runtimes have always used, so seeded schedules do not move).
const RNG_SALT: u64 = 0x51_7C_C1;

/// The part of a cluster config the gossip tick reads.
pub(crate) struct GossipConfig {
    pub interval: Duration,
    pub seed: u64,
    pub plan: FaultPlan,
    pub retry: RetryPolicy,
    /// Gossip in delta mode (the replicas cache update operations).
    pub delta: bool,
    pub max_frame_items: usize,
}

/// What a node gossips.
pub(crate) enum Gossiped<'a> {
    /// One replica, pulled from one random peer per tick; `after_pull`
    /// runs after every round, failed ones included (the ack gate and the
    /// checkpoint policy: a failed round may still have journaled).
    Replica { replica: &'a Mutex<Replica>, after_pull: &'a dyn Fn() },
    /// Every owned, non-moving shard, each pulled from a random co-owner.
    /// A node with no co-owned shards (singleton groups) simply idles.
    Shards(&'a Mutex<ShardedNode>),
}

/// One of the `n - 1` nodes other than `me`, uniformly; `None` when there
/// is no other node.
pub(crate) fn pick_peer(rng: &mut StdRng, me: NodeId, n: usize) -> Option<NodeId> {
    if n < 2 {
        return None;
    }
    let pick = rng.gen_range(0..n - 1);
    Some(NodeId::from_index(if pick >= me.index() { pick + 1 } else { pick }))
}

/// The initiator side of a node: every `cfg.interval`, while `alive`, run
/// this tick's anti-entropy rounds, each over its own transport from
/// `connect` (the socket runtimes' transports share one parked connection
/// per peer), until `running` clears. Faults, refusals and crashed peers exhaust the
/// in-round retry policy and surface as errors; gossip then just retries
/// on the next tick.
pub(crate) fn gossip_loop<T: Transport>(
    me: NodeId,
    n_nodes: usize,
    cfg: GossipConfig,
    running: &AtomicBool,
    alive: &AtomicBool,
    gossiped: Gossiped<'_>,
    connect: impl Fn(NodeId) -> T,
) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (me.index() as u64).wrapping_mul(RNG_SALT));
    // One persistent chaos link per peer: the fault process on each link
    // is continuous across gossip rounds and deterministic in
    // (seed, me, peer).
    let mut links: Vec<ChaosLink> = (0..n_nodes)
        .map(|peer| {
            let link = (me.index() * n_nodes + peer) as u64;
            let link_seed = cfg.seed.wrapping_add(link.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            ChaosLink::new(link_seed, cfg.plan.clone())
        })
        .collect();
    while running.load(Ordering::SeqCst) {
        // Sleep the gossip interval in small slices so shutdown is prompt
        // even with long intervals.
        let wake = Instant::now() + cfg.interval;
        while Instant::now() < wake {
            if !running.load(Ordering::SeqCst) {
                return;
            }
            let left = wake.saturating_duration_since(Instant::now());
            std::thread::sleep(left.min(Duration::from_millis(20)));
        }
        if !alive.load(Ordering::SeqCst) {
            continue;
        }
        match &gossiped {
            Gossiped::Replica { replica, after_pull } => {
                let Some(peer) = pick_peer(&mut rng, me, n_nodes) else { continue };
                let mut transport = ChaosTransport::new(connect(peer), &mut links[peer.index()]);
                let _ = pull(&cfg, &mut MutexHost(replica), &mut transport);
                after_pull();
            }
            Gossiped::Shards(node) => {
                // Snapshot the plan under the lock, then exchange without it.
                for (shard, peer) in gossip_rounds(node, me, &mut rng) {
                    let mut chaos = ChaosTransport::new(connect(peer), &mut links[peer.index()]);
                    let mut transport = ShardTransport::new(&mut chaos, shard);
                    let _ = pull(&cfg, &mut ShardHost { node, shard }, &mut transport);
                }
            }
        }
    }
}

/// One gossip round in the configured shipping mode.
fn pull<H: ReplicaHost, T: Transport>(
    cfg: &GossipConfig,
    host: &mut H,
    transport: &mut T,
) -> Result<PullOutcome> {
    if cfg.delta {
        let budget = GossipBudget::per_frame(cfg.max_frame_items);
        Engine::pull_delta_budgeted(host, transport, &cfg.retry, &budget)
    } else {
        Engine::pull_with(host, transport, &cfg.retry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_choice_is_uniform_over_the_others_and_never_self() {
        let (n, me, picks) = (4usize, NodeId(1), 10_000usize);
        let mut rng = StdRng::seed_from_u64(0xE51D);
        let mut hits = vec![0usize; n];
        for _ in 0..picks {
            hits[pick_peer(&mut rng, me, n).expect("three other nodes").index()] += 1;
        }
        assert_eq!(hits[me.index()], 0, "a node never gossips with itself");
        let expected = picks as f64 / (n - 1) as f64;
        for (peer, &h) in hits.iter().enumerate().filter(|&(p, _)| p != me.index()) {
            let off = (h as f64 - expected).abs() / expected;
            assert!(off < 0.05, "peer {peer} picked {h} times, expected about {expected}");
        }
        assert_eq!(pick_peer(&mut rng, NodeId(0), 1), None, "a one-node cluster does not gossip");
    }
}
