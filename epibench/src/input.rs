//! Seeded inputs: which items a cycle updates and the bytes it writes.
//! The product receives only what is generated here; the same seed gives
//! the same stream.

use bytes::Bytes;
use epidb_common::ItemId;

use crate::spec::{Shape, Workload, SHARDS};

/// SplitMix64 — small, fast, and fixed here so the input stream does not
/// depend on which `rand` a build resolves.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `len` fresh bytes.
    pub fn bytes(&mut self, len: usize) -> Bytes {
        let mut v = Vec::with_capacity(len + 8);
        while v.len() < len {
            v.extend_from_slice(&self.next().to_le_bytes());
        }
        v.truncate(len);
        Bytes::from(v)
    }
}

/// One update: the item and the whole value written to it.
pub type Update = (ItemId, Bytes);

/// The input stream of one pass.
pub struct Inputs {
    rng: Rng,
    value_len: usize,
    batch: usize,
    /// Item orders walked cyclically, so a batch never repeats an item:
    /// one order over the whole database, or one per shard.
    orders: Vec<Vec<u32>>,
    cursors: Vec<usize>,
    sharded: bool,
}

impl Inputs {
    pub fn new(seed: u64, w: &Workload) -> Inputs {
        let mut rng = Rng::new(seed ^ 0xE91B_E4C4);
        let sharded = w.shape == Shape::Sharded;
        let (n_orders, per_order) = if sharded { (SHARDS, w.items / SHARDS) } else { (1, w.items) };
        let orders: Vec<Vec<u32>> = (0..n_orders)
            .map(|o| {
                let base = (o * per_order) as u32;
                let mut order: Vec<u32> = (0..per_order as u32).map(|i| base + i).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i + 1));
                }
                order
            })
            .collect();
        Inputs {
            rng,
            value_len: w.value_len,
            batch: w.batch,
            cursors: vec![0; orders.len()],
            orders,
            sharded,
        }
    }

    /// The value every item is populated with at set-up: a function of the
    /// seed and the item only.
    pub fn initial_value(seed: u64, item: ItemId, len: usize) -> Bytes {
        Rng::new(seed.rotate_left(17) ^ u64::from(item.0)).bytes(len)
    }

    fn take(&mut self, order: usize) -> ItemId {
        let at = self.cursors[order];
        self.cursors[order] = (at + 1) % self.orders[order].len();
        ItemId(self.orders[order][at])
    }

    /// The next cycle's updates: `batch` distinct items with fresh values.
    /// On the sharded workload the batch is spread evenly over the shards
    /// of `origin`'s owner group (shard `s` belongs to group `s % 2`, node
    /// `n` to group `n / 2`).
    pub fn next_batch(&mut self, origin: usize) -> Vec<Update> {
        (0..self.batch)
            .map(|i| {
                let order = if self.sharded {
                    let group_shards = SHARDS / 2;
                    (i % group_shards) * 2 + origin / 2
                } else {
                    0
                };
                let item = self.take(order);
                (item, self.rng.bytes(self.value_len))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    fn stream(seed: u64, name: &str) -> Vec<Update> {
        let w = workload(name).unwrap();
        let mut inputs = Inputs::new(seed, w);
        (0..5).flat_map(|c| inputs.next_batch(c % w.nodes)).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for name in ["core_sim", "sharded_small"] {
            assert_eq!(stream(7, name), stream(7, name));
            assert_ne!(stream(7, name), stream(8, name));
        }
    }

    #[test]
    fn a_batch_never_repeats_an_item_and_sharded_batches_stay_in_group() {
        let w = workload("sharded_small").unwrap();
        let mut inputs = Inputs::new(3, w);
        for cycle in 0..200 {
            let origin = cycle % w.nodes;
            let batch = inputs.next_batch(origin);
            let mut items: Vec<u32> = batch.iter().map(|(x, _)| x.0).collect();
            items.sort_unstable();
            items.dedup();
            assert_eq!(items.len(), w.batch);
            let per_shard = (w.items / SHARDS) as u32;
            assert!(items.iter().all(|x| (x / per_shard) as usize % 2 == origin / 2));
        }
    }
}
