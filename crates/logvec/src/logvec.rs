//! The log vector `L_i` with O(1) `AddLogRecord` (§4.2, Fig. 1).
//!
//! Records are stored in one slot arena shared by all components; each
//! component `L_ij` is a doubly linked list through that arena, ordered by
//! the origin's update sequence number `m` (ascending — the order in which
//! `j` performed the updates). The paper's per-item pointer array `P(x)`
//! (one pointer per origin) is kept here as a per-origin, per-item index so
//! the existing record for an item is unlinked in constant time when a newer
//! one arrives.

use epidb_common::{ItemId, NodeId};

/// Sentinel for "no slot".
const NIL: u32 = u32::MAX;

/// One log record `(x, m)`: origin's `m`-th update touched item `x`.
///
/// Records register only *that* an item was updated, not how — "these
/// records are very short" (§4.2) — which is why whole-item copying follows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LogRecord {
    /// The updated data item.
    pub item: ItemId,
    /// The origin server's database-wide update sequence number (`V_jj` at
    /// the time of the update, including it).
    pub m: u64,
}

#[derive(Clone, Debug)]
struct Slot {
    item: ItemId,
    m: u64,
    prev: u32,
    next: u32,
}

#[derive(Clone, Copy, Debug)]
struct ListEnds {
    head: u32,
    tail: u32,
    len: usize,
}

impl ListEnds {
    const EMPTY: ListEnds = ListEnds { head: NIL, tail: NIL, len: 0 };
}

/// Node `i`'s log vector: one component per origin server.
#[derive(Clone, Debug)]
pub struct LogVector {
    n_nodes: usize,
    n_items: usize,
    slots: Vec<Slot>,
    free: Vec<u32>,
    components: Vec<ListEnds>,
    /// `p[j][x]`: slot index of the retained record for item `x` in `L_ij`,
    /// or `NIL`. This is the paper's pointer array `P(x)` (component `P_j`),
    /// laid out per-origin for locality.
    p: Vec<Vec<u32>>,
}

impl LogVector {
    /// An empty log vector for `n_nodes` servers and `n_items` items.
    pub fn new(n_nodes: usize, n_items: usize) -> LogVector {
        LogVector {
            n_nodes,
            n_items,
            slots: Vec::new(),
            free: Vec::new(),
            components: vec![ListEnds::EMPTY; n_nodes],
            p: vec![vec![NIL; n_items]; n_nodes],
        }
    }

    /// Number of origin components.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Size of the item universe.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Total records currently retained, across all components. Bounded by
    /// `n_nodes * n_items` regardless of how many updates occurred (§4.2).
    pub fn total_len(&self) -> usize {
        self.components.iter().map(|c| c.len).sum()
    }

    /// Records retained in component `L_ij`.
    pub fn component_len(&self, j: NodeId) -> usize {
        self.components[j.index()].len
    }

    /// The paper's `AddLogRecord(j, (x, m))` — O(1) in the common case.
    ///
    /// Links the new record at the end of `L_ij`, unlinks the existing
    /// record for the same item (located through `P_j(x)`), and repoints
    /// `P_j(x)` at the new record.
    ///
    /// Two robustness cases the paper leaves implicit (they only arise
    /// after a declared conflict suspended part of a tail):
    /// * if the retained record for the item is already at least as new
    ///   (`m` not larger), the call is a no-op;
    /// * if `m` is not larger than the current tail's `m`, the record is
    ///   inserted at its sorted position (a backward walk — rare, and only
    ///   ever shorter than the suspended region).
    pub fn add_record(&mut self, j: NodeId, rec: LogRecord) {
        let jj = j.index();

        // Unlink the old record for this item, if any; keep it when it is
        // the same or newer (stale re-receipt after a conflict).
        let old = self.p[jj][rec.item.index()];
        if old != NIL {
            if self.slots[old as usize].m >= rec.m {
                return;
            }
            self.unlink(jj, old);
            self.free.push(old);
        }

        // Find the slot after which the record belongs: the tail in the
        // common case, else walk backward to the first record with a
        // smaller m.
        let mut after = self.components[jj].tail;
        while after != NIL && self.slots[after as usize].m >= rec.m {
            debug_assert!(
                self.slots[after as usize].m > rec.m,
                "duplicate update sequence number within one origin component"
            );
            after = self.slots[after as usize].prev;
        }

        let slot = self.alloc(rec);
        let next =
            if after == NIL { self.components[jj].head } else { self.slots[after as usize].next };
        self.slots[slot as usize].prev = after;
        self.slots[slot as usize].next = next;
        if after == NIL {
            self.components[jj].head = slot;
        } else {
            self.slots[after as usize].next = slot;
        }
        if next == NIL {
            self.components[jj].tail = slot;
        } else {
            self.slots[next as usize].prev = slot;
        }
        self.components[jj].len += 1;

        self.p[jj][rec.item.index()] = slot;
    }

    /// The retained record for item `x` in component `j`, if any — the
    /// record `P_j(x)` points to.
    pub fn retained(&self, j: NodeId, x: ItemId) -> Option<LogRecord> {
        let slot = self.p[j.index()][x.index()];
        if slot == NIL {
            None
        } else {
            let s = &self.slots[slot as usize];
            Some(LogRecord { item: s.item, m: s.m })
        }
    }

    /// Compute the tail `D_k` of component `L_ik`: all retained records with
    /// `m > threshold`, in ascending `m` order (head-to-tail), walking
    /// backward from the tail — O(|D_k|), plus one examination to detect the
    /// stopping record (§6).
    ///
    /// `records_examined` is charged with the number of records touched
    /// (selected + the one that stopped the walk, if any).
    pub fn tail_after(
        &self,
        k: NodeId,
        threshold: u64,
        records_examined: &mut u64,
    ) -> Vec<LogRecord> {
        let mut out = Vec::new();
        let mut cur = self.components[k.index()].tail;
        while cur != NIL {
            let s = &self.slots[cur as usize];
            *records_examined += 1;
            if s.m <= threshold {
                break;
            }
            out.push(LogRecord { item: s.item, m: s.m });
            cur = s.prev;
        }
        out.reverse();
        out
    }

    /// Iterate component `L_ij` head-to-tail (ascending `m`). For tests,
    /// invariant checks, and tools; protocol code uses
    /// [`tail_after`](Self::tail_after).
    pub fn iter_component(&self, j: NodeId) -> ComponentIter<'_> {
        ComponentIter { log: self, cur: self.components[j.index()].head }
    }

    /// Evict the oldest records of component `L_ij` until at most `keep`
    /// remain (`keep == 0` empties the component). Returns the largest `m`
    /// evicted, or `None` when nothing was evicted.
    ///
    /// Eviction *forgets which item* an old update touched: a tail computed
    /// from a threshold below the returned `m` can no longer be proven
    /// complete, so callers that prune must raise their coverage floor to
    /// the returned value and refuse to serve tails below it.
    pub fn prune_component(&mut self, j: NodeId, keep: usize) -> Option<u64> {
        let jj = j.index();
        let mut max_evicted = None;
        // The component ascends in `m`, so the head is always the oldest
        // record and the last eviction carries the largest evicted `m`.
        while self.components[jj].len > keep {
            let head = self.components[jj].head;
            let (item, m) = {
                let s = &self.slots[head as usize];
                (s.item, s.m)
            };
            self.unlink(jj, head);
            self.p[jj][item.index()] = NIL;
            self.free.push(head);
            max_evicted = Some(m);
        }
        max_evicted
    }

    /// The largest `m` in component `j` (the latest update by `j` this node
    /// has logged), or 0 if the component is empty.
    pub fn max_m(&self, j: NodeId) -> u64 {
        let tail = self.components[j.index()].tail;
        if tail == NIL {
            0
        } else {
            self.slots[tail as usize].m
        }
    }

    /// Verify the structural invariants (test helper):
    /// each component is strictly ascending in `m`, holds at most one record
    /// per item, and agrees with the `P` pointer array in both directions.
    /// The `P` check also rules out a second record for an item: `P_j(x)`
    /// can point at only one of them.
    pub fn check_invariants(&self) -> Result<(), String> {
        for j in 0..self.n_nodes {
            let node = NodeId::from_index(j);
            let mut last_m = 0u64;
            let mut count = 0usize;
            let mut cur = self.components[j].head;
            let mut prev = NIL;
            while cur != NIL {
                let s = &self.slots[cur as usize];
                if s.prev != prev {
                    return Err(format!("component {node}: broken prev link at slot {cur}"));
                }
                if count > 0 && s.m <= last_m {
                    return Err(format!(
                        "component {node}: m not ascending ({} after {last_m})",
                        s.m
                    ));
                }
                if self.p[j][s.item.index()] != cur {
                    return Err(format!(
                        "component {node}: P({}) does not point at its record",
                        s.item
                    ));
                }
                last_m = s.m;
                count += 1;
                prev = cur;
                cur = s.next;
            }
            if self.components[j].tail != prev {
                return Err(format!("component {node}: tail pointer stale"));
            }
            if count != self.components[j].len {
                return Err(format!(
                    "component {node}: len {} != walked {count}",
                    self.components[j].len
                ));
            }
            // Every P entry that is set must be reachable (i.e., counted).
            let p_set = self.p[j].iter().filter(|&&s| s != NIL).count();
            if p_set != count {
                return Err(format!("component {node}: {p_set} P entries but {count} records"));
            }
        }
        Ok(())
    }

    fn alloc(&mut self, rec: LogRecord) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Slot { item: rec.item, m: rec.m, prev: NIL, next: NIL };
            slot
        } else {
            let slot = self.slots.len() as u32;
            assert!(slot != NIL, "log vector slot arena exhausted");
            self.slots.push(Slot { item: rec.item, m: rec.m, prev: NIL, next: NIL });
            slot
        }
    }

    fn unlink(&mut self, j: usize, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        if prev == NIL {
            self.components[j].head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.components[j].tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        self.components[j].len -= 1;
    }
}

/// Iterator over one log component, head-to-tail.
pub struct ComponentIter<'a> {
    log: &'a LogVector,
    cur: u32,
}

impl Iterator for ComponentIter<'_> {
    type Item = LogRecord;

    fn next(&mut self) -> Option<LogRecord> {
        if self.cur == NIL {
            return None;
        }
        let s = &self.log.slots[self.cur as usize];
        self.cur = s.next;
        Some(LogRecord { item: s.item, m: s.m })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(item: u32, m: u64) -> LogRecord {
        LogRecord { item: ItemId(item), m }
    }

    fn collect(log: &LogVector, j: u16) -> Vec<(u32, u64)> {
        log.iter_component(NodeId(j)).map(|r| (r.item.0, r.m)).collect()
    }

    /// Replays Figure 1 of the paper exactly: component containing
    /// (y,1),(x,3),(z,4); adding (x,5) unlinks (x,3) and appends (x,5),
    /// yielding (y,1),(z,4),(x,5).
    #[test]
    fn fig1_replay() {
        // y=0, x=1, z=2
        let mut log = LogVector::new(1, 3);
        let j = NodeId(0);
        log.add_record(j, rec(0, 1)); // (y,1)
        log.add_record(j, rec(1, 3)); // (x,3)
        log.add_record(j, rec(2, 4)); // (z,4)
        assert_eq!(collect(&log, 0), vec![(0, 1), (1, 3), (2, 4)]);

        log.add_record(j, rec(1, 5)); // (x,5)
        assert_eq!(collect(&log, 0), vec![(0, 1), (2, 4), (1, 5)]);
        assert_eq!(log.component_len(j), 3);
        log.check_invariants().unwrap();
    }

    #[test]
    fn add_replaces_head_record() {
        let mut log = LogVector::new(1, 2);
        let j = NodeId(0);
        log.add_record(j, rec(0, 1));
        log.add_record(j, rec(1, 2));
        log.add_record(j, rec(0, 3)); // replaces the head
        assert_eq!(collect(&log, 0), vec![(1, 2), (0, 3)]);
        log.check_invariants().unwrap();
    }

    #[test]
    fn add_replaces_tail_record() {
        let mut log = LogVector::new(1, 2);
        let j = NodeId(0);
        log.add_record(j, rec(0, 1));
        log.add_record(j, rec(0, 2)); // replaces itself at the tail
        assert_eq!(collect(&log, 0), vec![(0, 2)]);
        assert_eq!(log.component_len(j), 1);
        log.check_invariants().unwrap();
    }

    #[test]
    fn retained_tracks_latest() {
        let mut log = LogVector::new(2, 3);
        log.add_record(NodeId(1), rec(2, 7));
        assert_eq!(log.retained(NodeId(1), ItemId(2)), Some(rec(2, 7)));
        assert_eq!(log.retained(NodeId(0), ItemId(2)), None);
        log.add_record(NodeId(1), rec(2, 9));
        assert_eq!(log.retained(NodeId(1), ItemId(2)), Some(rec(2, 9)));
    }

    #[test]
    fn components_are_independent() {
        let mut log = LogVector::new(3, 2);
        log.add_record(NodeId(0), rec(0, 1));
        log.add_record(NodeId(2), rec(0, 5));
        assert_eq!(log.component_len(NodeId(0)), 1);
        assert_eq!(log.component_len(NodeId(1)), 0);
        assert_eq!(log.component_len(NodeId(2)), 1);
        assert_eq!(log.total_len(), 2);
        log.check_invariants().unwrap();
    }

    #[test]
    fn tail_after_selects_records_above_threshold_in_order() {
        let mut log = LogVector::new(1, 5);
        let j = NodeId(0);
        for (x, m) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)] {
            log.add_record(j, rec(x, m));
        }
        let mut examined = 0;
        let tail = log.tail_after(j, 3, &mut examined);
        assert_eq!(tail, vec![rec(3, 4), rec(4, 5)]);
        // 2 selected + 1 stopping examination.
        assert_eq!(examined, 3);
    }

    #[test]
    fn tail_after_whole_component_and_empty() {
        let mut log = LogVector::new(1, 3);
        let j = NodeId(0);
        log.add_record(j, rec(0, 1));
        log.add_record(j, rec(1, 2));
        let mut ex = 0;
        assert_eq!(log.tail_after(j, 0, &mut ex), vec![rec(0, 1), rec(1, 2)]);
        assert_eq!(ex, 2); // all selected, no stopping record
        ex = 0;
        assert_eq!(log.tail_after(j, 99, &mut ex), vec![]);
        assert_eq!(ex, 1); // tail examined once, stops immediately
        ex = 0;
        assert_eq!(log.tail_after(NodeId(0), 0, &mut ex).len(), 2);
    }

    #[test]
    fn tail_after_empty_component_examines_nothing() {
        let log = LogVector::new(2, 2);
        let mut ex = 0;
        assert!(log.tail_after(NodeId(1), 0, &mut ex).is_empty());
        assert_eq!(ex, 0);
    }

    #[test]
    fn total_len_is_bounded_by_n_times_items() {
        let mut log = LogVector::new(2, 4);
        // 1000 updates, only 2 origins x 4 items possible records.
        for m in 1..=500u64 {
            log.add_record(NodeId(0), rec((m % 4) as u32, m));
            log.add_record(NodeId(1), rec((m % 3) as u32, m));
        }
        assert!(log.total_len() <= 2 * 4);
        assert_eq!(log.component_len(NodeId(0)), 4);
        assert_eq!(log.component_len(NodeId(1)), 3);
        log.check_invariants().unwrap();
    }

    #[test]
    fn max_m_tracks_tail() {
        let mut log = LogVector::new(1, 2);
        assert_eq!(log.max_m(NodeId(0)), 0);
        log.add_record(NodeId(0), rec(0, 4));
        log.add_record(NodeId(0), rec(1, 6));
        assert_eq!(log.max_m(NodeId(0)), 6);
        log.add_record(NodeId(0), rec(1, 7)); // replace tail
        assert_eq!(log.max_m(NodeId(0)), 7);
    }

    #[test]
    fn slots_are_recycled() {
        let mut log = LogVector::new(1, 1);
        for m in 1..=100u64 {
            log.add_record(NodeId(0), rec(0, m));
        }
        // Only ever one live record; the arena should not have grown past 2
        // slots (one live + at most one transiently allocated before free).
        assert!(log.slots.len() <= 2, "arena grew to {}", log.slots.len());
        log.check_invariants().unwrap();
    }

    #[test]
    fn out_of_order_insert_lands_sorted() {
        // Post-conflict case: a record older than the tail arrives; it must
        // be inserted at its sorted position, not appended.
        let mut log = LogVector::new(1, 3);
        log.add_record(NodeId(0), rec(0, 1));
        log.add_record(NodeId(0), rec(1, 5));
        log.add_record(NodeId(0), rec(2, 3));
        assert_eq!(collect(&log, 0), vec![(0, 1), (2, 3), (1, 5)]);
        log.check_invariants().unwrap();
    }

    #[test]
    fn out_of_order_insert_at_head() {
        let mut log = LogVector::new(1, 2);
        log.add_record(NodeId(0), rec(0, 9));
        log.add_record(NodeId(0), rec(1, 2));
        assert_eq!(collect(&log, 0), vec![(1, 2), (0, 9)]);
        log.check_invariants().unwrap();
    }

    #[test]
    fn prune_component_evicts_oldest_and_reports_floor() {
        let mut log = LogVector::new(2, 5);
        let j = NodeId(0);
        for (x, m) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)] {
            log.add_record(j, rec(x, m));
        }
        // Keep the two newest; the floor is the largest evicted m.
        assert_eq!(log.prune_component(j, 2), Some(3));
        assert_eq!(collect(&log, 0), vec![(3, 4), (4, 5)]);
        assert_eq!(log.component_len(j), 2);
        // Pruned items vanish from the pointer array too.
        assert_eq!(log.retained(j, ItemId(0)), None);
        assert_eq!(log.retained(j, ItemId(3)), Some(rec(3, 4)));
        // Other components are untouched; re-pruning at the cap is a no-op.
        assert_eq!(log.component_len(NodeId(1)), 0);
        assert_eq!(log.prune_component(j, 2), None);
        log.check_invariants().unwrap();

        // Evicted slots are recycled by later adds.
        let slots_before = log.slots.len();
        log.add_record(j, rec(0, 6));
        assert_eq!(log.slots.len(), slots_before);

        // keep == 0 empties the component.
        assert_eq!(log.prune_component(j, 0), Some(6));
        assert_eq!(log.component_len(j), 0);
        assert_eq!(log.max_m(j), 0);
        log.check_invariants().unwrap();
    }

    #[test]
    fn stale_re_add_is_a_no_op() {
        let mut log = LogVector::new(1, 2);
        log.add_record(NodeId(0), rec(0, 4));
        log.add_record(NodeId(0), rec(1, 6));
        // Same record again, and an older record for the same item.
        log.add_record(NodeId(0), rec(0, 4));
        log.add_record(NodeId(0), rec(0, 2));
        assert_eq!(collect(&log, 0), vec![(0, 4), (1, 6)]);
        log.check_invariants().unwrap();
    }

    /// A second record for an item, linked in through the arena with every
    /// other invariant intact (ascending, links, tail, length), is caught.
    #[test]
    fn duplicate_record_fails_the_check() {
        let mut log = LogVector::new(1, 2);
        log.add_record(NodeId(0), rec(0, 1));
        log.add_record(NodeId(0), rec(1, 2));
        let tail = log.components[0].tail;
        let dup = log.slots.len() as u32;
        log.slots.push(Slot { item: ItemId(0), m: 3, prev: tail, next: NIL });
        log.slots[tail as usize].next = dup;
        log.components[0].tail = dup;
        log.components[0].len += 1;
        assert_eq!(collect(&log, 0), vec![(0, 1), (1, 2), (0, 3)]);
        let err = log.check_invariants().unwrap_err();
        assert!(err.contains("P(x0) does not point at its record"), "{err}");
    }
}
