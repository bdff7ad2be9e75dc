//! Property test: crash-restart recovery is invisible to convergence.
//!
//! Two worlds run the same random multi-node schedule of updates, whole
//! pulls, delta pulls, and out-of-bound fetches (single-writer per item,
//! paranoid audits on):
//!
//! * the **durable world**, where every replica journals to its node's
//!   on-disk group WAL with snapshot checkpoints, and the schedule injects crash-restart
//!   points (drop the replica + WAL handle, recover from disk) and forced
//!   checkpoints at random positions;
//! * the **twin world** of plain in-memory replicas that never crash.
//!
//! After the schedule, both worlds run full-mesh anti-entropy until
//! quiescent and must agree on the final value of every item — crashing
//! and recovering must never lose an acknowledged write or invent state.

use std::sync::Arc;

use epidb_common::{ItemId, NodeId};
use epidb_core::{oob_copy, pull, pull_delta, ConflictPolicy, Replica};
use epidb_durable::testdir::TempDir;
use epidb_durable::{DurabilityConfig, GroupWal, StreamSpec};
use epidb_store::UpdateOp;
use epidb_vv::VvOrd;
use proptest::prelude::*;

const N_NODES: usize = 3;
const N_ITEMS: usize = 9;
const DELTA_BUDGET: usize = 1 << 16;
const MAX_SWEEPS: usize = 16;

#[derive(Clone, Debug)]
enum Op {
    /// Single-writer update: the owner of `slot` writes `[byte; len]`.
    Update { owner: usize, slot: usize, byte: u8, large: bool },
    /// Whole-item pull, `r` from `s` (remapped so r != s).
    Pull { r: usize, s: usize },
    /// Delta pull, `r` from `s`.
    PullDelta { r: usize, s: usize },
    /// Out-of-bound fetch of the item owned by `owner` at `slot`.
    Oob { r: usize, owner: usize, slot: usize },
    /// Durable world only: force a checkpoint now (snapshot + WAL roll).
    Checkpoint { node: usize },
    /// Durable world only: crash the node and recover it from disk.
    CrashRestart { node: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let slots = N_ITEMS.div_ceil(N_NODES);
    prop_oneof![
        4 => (0..N_NODES, 0..slots, any::<u8>(), any::<bool>())
            .prop_map(|(owner, slot, byte, large)| Op::Update { owner, slot, byte, large }),
        3 => (0..N_NODES, 0..N_NODES).prop_map(|(r, s)| Op::Pull { r, s }),
        3 => (0..N_NODES, 0..N_NODES).prop_map(|(r, s)| Op::PullDelta { r, s }),
        2 => (0..N_NODES, 0..N_NODES, 0..slots)
            .prop_map(|(r, owner, slot)| Op::Oob { r, owner, slot }),
        1 => (0..N_NODES).prop_map(|node| Op::Checkpoint { node }),
        2 => (0..N_NODES).prop_map(|node| Op::CrashRestart { node }),
    ]
}

/// The durable world: each node is a replica journaling to its own
/// one-stream group WAL.
struct DurableWorld {
    cfg: DurabilityConfig,
    nodes: Vec<(Arc<GroupWal>, Replica)>,
}

impl DurableWorld {
    fn open_node(cfg: &DurabilityConfig, id: NodeId) -> (Arc<GroupWal>, Replica) {
        let spec = [StreamSpec { id, n_nodes: N_NODES, n_items: N_ITEMS }];
        let (wal, mut replicas, _report) =
            GroupWal::open(cfg, cfg.node_dir(id), &spec, ConflictPolicy::Report, 0)
                .expect("durable open");
        let mut replica = replicas.pop().expect("one stream");
        replica.enable_delta(DELTA_BUDGET);
        replica.set_paranoid(true);
        wal.attach(0, &mut replica);
        (wal, replica)
    }

    fn new(dir: &TempDir) -> DurableWorld {
        let mut cfg = DurabilityConfig::new(dir.path().clone());
        // A small threshold so automatic checkpoints also fire mid-schedule.
        cfg.checkpoint_every = 7;
        let nodes =
            (0..N_NODES).map(|i| DurableWorld::open_node(&cfg, NodeId::from_index(i))).collect();
        DurableWorld { cfg, nodes }
    }

    fn crash_restart(&mut self, node: usize) {
        // Drop the in-memory replica and release the WAL, then recover
        // purely from what reached the disk. Every mutation already passed
        // the ack gate in `maybe_checkpoint`, so closing writes nothing.
        let id = NodeId::from_index(node);
        let (wal, replica) = &mut self.nodes[node];
        drop(std::mem::replace(replica, Replica::new(id, N_NODES, N_ITEMS)));
        wal.close();
        self.nodes[node] = DurableWorld::open_node(&self.cfg, id);
    }

    fn checkpoint_all_due(&mut self, node: usize) {
        let (d, r) = &self.nodes[node];
        d.checkpoint(&[r]).expect("forced checkpoint");
    }

    /// Two distinct replicas by index, for pull/oob pairs.
    fn pair(&mut self, r: usize, s: usize) -> (&mut Replica, &mut Replica) {
        assert_ne!(r, s);
        let (lo, hi) = if r < s { (r, s) } else { (s, r) };
        let (left, right) = self.nodes.split_at_mut(hi);
        let (a, b) = (&mut left[lo].1, &mut right[0].1);
        if r < s {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// What a runtime runs after every mutation: the ack gate (wait until
    /// the mutation is durable), then the checkpoint policy.
    fn maybe_checkpoint(&self, node: usize) {
        let (d, r) = &self.nodes[node];
        d.wait_durable();
        d.maybe_checkpoint(&[r]).expect("auto checkpoint");
    }
}

fn distinct(r: usize, s: usize) -> (usize, usize) {
    if r == s {
        (r, (s + 1) % N_NODES)
    } else {
        (r, s)
    }
}

fn owned_item(owner: usize, slot: usize) -> Option<ItemId> {
    let item = owner + slot * N_NODES;
    (item < N_ITEMS).then_some(ItemId(item as u32))
}

fn value_of(byte: u8, large: bool) -> Vec<u8> {
    // Large values travel as shared payload segments; small ones inline.
    vec![byte; if large { 192 } else { 5 }]
}

fn converge(replicas: &mut [Replica]) -> bool {
    for _ in 0..MAX_SWEEPS {
        for r in 0..replicas.len() {
            for s in 0..replicas.len() {
                if r == s {
                    continue;
                }
                let (lo, hi) = if r < s { (r, s) } else { (s, r) };
                let (left, right) = replicas.split_at_mut(hi);
                let (a, b) = if r < s {
                    (&mut left[lo], &mut right[0])
                } else {
                    (&mut right[0], &mut left[lo])
                };
                pull(a, b).expect("convergence pull");
            }
        }
        let reference = replicas[0].dbvv().clone();
        if replicas
            .iter()
            .all(|r| r.aux_item_count() == 0 && r.dbvv().compare(&reference) == VvOrd::Equal)
        {
            return true;
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn recovered_world_matches_never_crashed_twin(
        schedule in prop::collection::vec(op_strategy(), 1..48)
    ) {
        let tmp = TempDir::new("crash-prop");
        let mut durable = DurableWorld::new(&tmp);
        let mut twin: Vec<Replica> = (0..N_NODES)
            .map(|i| {
                let mut r = Replica::new(NodeId::from_index(i), N_NODES, N_ITEMS);
                r.enable_delta(DELTA_BUDGET);
                r.set_paranoid(true);
                r
            })
            .collect();

        for op in &schedule {
            match *op {
                Op::Update { owner, slot, byte, large } => {
                    let Some(item) = owned_item(owner, slot) else { continue };
                    let value = value_of(byte, large);
                    durable.nodes[owner].1.update(item, UpdateOp::set(value.clone())).unwrap();
                    durable.maybe_checkpoint(owner);
                    twin[owner].update(item, UpdateOp::set(value)).unwrap();
                }
                Op::Pull { r, s } => {
                    let (r, s) = distinct(r, s);
                    let (dst, src) = durable.pair(r, s);
                    pull(dst, src).unwrap();
                    durable.maybe_checkpoint(r);
                    let (lo, hi) = if r < s { (r, s) } else { (s, r) };
                    let (left, right) = twin.split_at_mut(hi);
                    let (a, b) = if r < s {
                        (&mut left[lo], &mut right[0])
                    } else {
                        (&mut right[0], &mut left[lo])
                    };
                    pull(a, b).unwrap();
                }
                Op::PullDelta { r, s } => {
                    let (r, s) = distinct(r, s);
                    let (dst, src) = durable.pair(r, s);
                    pull_delta(dst, src).unwrap();
                    durable.maybe_checkpoint(r);
                    let (lo, hi) = if r < s { (r, s) } else { (s, r) };
                    let (left, right) = twin.split_at_mut(hi);
                    let (a, b) = if r < s {
                        (&mut left[lo], &mut right[0])
                    } else {
                        (&mut right[0], &mut left[lo])
                    };
                    pull_delta(a, b).unwrap();
                }
                Op::Oob { r, owner, slot } => {
                    let Some(item) = owned_item(owner, slot) else { continue };
                    let (r, s) = distinct(r, owner);
                    let (dst, src) = durable.pair(r, s);
                    oob_copy(dst, src, item).unwrap();
                    durable.maybe_checkpoint(r);
                    let (lo, hi) = if r < s { (r, s) } else { (s, r) };
                    let (left, right) = twin.split_at_mut(hi);
                    let (a, b) = if r < s {
                        (&mut left[lo], &mut right[0])
                    } else {
                        (&mut right[0], &mut left[lo])
                    };
                    oob_copy(a, b, item).unwrap();
                }
                Op::Checkpoint { node } => durable.checkpoint_all_due(node),
                Op::CrashRestart { node } => durable.crash_restart(node),
            }
        }

        // Both worlds converge by full-mesh anti-entropy...
        let mut durable_final: Vec<Replica> = durable
            .nodes
            .iter()
            .map(|(_, r)| {
                let mut c = r.clone();
                c.set_mutation_sink(None);
                c
            })
            .collect();
        prop_assert!(converge(&mut durable_final), "durable world did not converge");
        prop_assert!(converge(&mut twin), "twin world did not converge");

        // ...and must agree item by item: recovery lost nothing acknowledged
        // and invented nothing.
        for item in 0..N_ITEMS {
            let want = twin[0].read(ItemId(item as u32)).unwrap().as_bytes().to_vec();
            for (node, r) in durable_final.iter().enumerate() {
                let got = r.read(ItemId(item as u32)).unwrap().as_bytes().to_vec();
                prop_assert_eq!(
                    &got, &want,
                    "durable node {} disagrees with twin on item {}", node, item
                );
            }
        }
        for r in durable_final.iter().chain(twin.iter()) {
            r.check_invariants().unwrap();
        }
    }
}
