//! Pending-operation storage for the controller scheduler: a slab with
//! intrusive FIFO queues, organized into per-(class, tag) *groups* that
//! split further into issuability lanes.
//!
//! The dispatch hot path must not depend on queue depth. Pending ops live
//! in slab slots threaded onto doubly-linked FIFO queues; each `(OpClass,
//! priority-tag)` pair owns a *group* of queues (plus a dedicated group
//! for register transfers, the hardware-necessity fast path):
//!
//! * the group's **scan queue** holds ops whose issuability is op-specific
//!   (reads resolve their target at probe time, hybrid appends depend on
//!   log-block state); finding its first issuable op probes the blocked
//!   prefix in seq order, O(position of the first issuable op);
//! * **lanes** hold ops whose issuability is a pure function of one lane
//!   key: page writes per `(LUN, stream)` (*write lanes*), and GC/WL page
//!   moves and erases per LUN (*resource lanes*: a move's source read and
//!   an erase need the same idle LUN and free channel). Every op in a
//!   lane shares one issuability predicate, so the lane *head* decides
//!   for the whole lane: a blocked head proves the entire lane blocked,
//!   and one probe replaces an O(lane length) walk. This is what keeps
//!   deep write backlogs and GC victims' move batches (queue depth 512
//!   and beyond) out of the scheduler's inner loop.
//!
//! An op whose predicate stops being its lane's must leave the lane. The
//! one such case is a GC move whose source page gets superseded while it
//! waits: it becomes issuable regardless of its LUN (it is consumed with
//! no flash IO), so the controller re-threads it into the scan queue with
//! [`PendingSet::move_to_scan`], which keeps the scan queue in seq order
//! and the slot id unchanged.
//!
//! A group's first issuable op is the min-seq candidate over the scan
//! queue's first issuable op and the issuable lane heads — exactly the op
//! a single merged FIFO would have yielded, so scheduling decisions (and
//! therefore simulation results) are byte-identical to the pre-lane
//! layout. Within a group both seq and enqueue time are monotonic per
//! queue, so policies only ever compare group candidates (O(live
//! groups), typically ≤ `OpClass::COUNT`). Insertion and removal are
//! O(1) and never allocate after warm-up (slots and queues are recycled).
//!
//! Determinism: groups and lanes are discovered in first-use order and
//! slots are recycled LIFO, but selection never depends on either —
//! candidates are compared by `(class, tag, enqueue-time, seq)` keys, and
//! callers sort head candidates by `seq` before handing them to a policy.

use std::collections::BTreeMap;

use crate::types::OpClass;

/// Sentinel slot / queue / group id.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Which group a pending op belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum QueueKey {
    /// Register transfers: issued before anything else whenever their
    /// channel frees, since a LUN holding data blocks all other commands.
    Transfer,
    /// Everything else, segregated by scheduling class and priority tag
    /// so FIFO order within a group equals policy-preference order.
    Class(OpClass, Option<u8>),
}

/// Issuability lane of an op within its group: `None` routes to the scan
/// queue, `Some(key)` to the lane for an opaque resource encoding. All
/// ops sharing a lane key must share their issuability predicate — that
/// is the contract that lets a lane's head speak for it.
pub(crate) type LaneKey = Option<u64>;

#[derive(Debug)]
struct Slot<T> {
    item: Option<T>,
    prev: u32,
    next: u32,
}

#[derive(Debug)]
struct Queue {
    head: u32,
    tail: u32,
}

#[derive(Debug)]
struct Group {
    /// Queue id of the order-scan queue.
    scan: u32,
    /// Lane keys and their queue ids, in first-use order. Small (≤ LUNs
    /// × streams in play); linear search beats hashing here.
    lane_keys: Vec<u64>,
    lane_queues: Vec<u32>,
}

/// Slab + intrusive FIFO queues of pending items, grouped per `QueueKey`.
#[derive(Debug)]
pub(crate) struct PendingSet<T> {
    slots: Vec<Slot<T>>,
    /// Owning queue per slot (`NO_SLOT` for freed slots).
    slot_queue: Vec<u32>,
    free: Vec<u32>,
    queues: Vec<Queue>,
    /// Owning group per queue.
    queue_group: Vec<u32>,
    groups: Vec<Group>,
    by_key: BTreeMap<QueueKey, u32>,
    live: usize,
}

impl<T> PendingSet<T> {
    /// Group id of the transfer fast-path group (always present).
    pub(crate) const TRANSFER_GROUP: u32 = 0;

    pub(crate) fn new() -> Self {
        let mut by_key = BTreeMap::new();
        by_key.insert(QueueKey::Transfer, Self::TRANSFER_GROUP);
        PendingSet {
            slots: Vec::new(),
            slot_queue: Vec::new(),
            free: Vec::new(),
            queues: vec![Queue {
                head: NO_SLOT,
                tail: NO_SLOT,
            }],
            queue_group: vec![Self::TRANSFER_GROUP],
            groups: vec![Group {
                scan: 0,
                lane_keys: Vec::new(),
                lane_queues: Vec::new(),
            }],
            by_key,
            live: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of groups ever created (ids `0..group_count`); emptied
    /// groups are kept for reuse, so ids are stable for a set's lifetime.
    pub(crate) fn group_count(&self) -> u32 {
        self.groups.len() as u32
    }

    /// Head slot of a group's scan queue (`NO_SLOT` when empty).
    pub(crate) fn scan_head(&self, group: u32) -> u32 {
        self.queues[self.groups[group as usize].scan as usize].head
    }

    /// Number of lanes a group has accumulated.
    pub(crate) fn lane_count(&self, group: u32) -> usize {
        self.groups[group as usize].lane_queues.len()
    }

    /// Head slot of a group's `idx`-th lane (`NO_SLOT` when empty).
    pub(crate) fn lane_head(&self, group: u32, idx: usize) -> u32 {
        let q = self.groups[group as usize].lane_queues[idx];
        self.queues[q as usize].head
    }

    /// Successor of `slot` within its queue (`NO_SLOT` at the tail).
    pub(crate) fn next(&self, slot: u32) -> u32 {
        self.slots[slot as usize].next
    }

    /// The item in `slot`. Panics on a freed slot.
    pub(crate) fn get(&self, slot: u32) -> &T {
        self.slots[slot as usize]
            .item
            .as_ref()
            .expect("read of freed pending slot")
    }

    /// Every slot of `group` — scan queue first, then each lane in
    /// order — for checks that need the whole group, not just heads.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn group_slots(&self, group: u32) -> impl Iterator<Item = u32> + '_ {
        let g = &self.groups[group as usize];
        std::iter::once(g.scan)
            .chain(g.lane_queues.iter().copied())
            .flat_map(move |q| {
                std::iter::successors(
                    Some(self.queues[q as usize].head).filter(|&s| s != NO_SLOT),
                    move |&s| Some(self.next(s)).filter(|&n| n != NO_SLOT),
                )
            })
    }

    fn new_queue(&mut self, group: u32) -> u32 {
        let q = self.queues.len() as u32;
        self.queues.push(Queue {
            head: NO_SLOT,
            tail: NO_SLOT,
        });
        self.queue_group.push(group);
        q
    }

    /// Thread `slot` into queue `q` right after `after` (`NO_SLOT`: at the
    /// head).
    fn link_after(&mut self, slot: u32, q: u32, after: u32) {
        let queue = &mut self.queues[q as usize];
        let next = if after == NO_SLOT {
            std::mem::replace(&mut queue.head, slot)
        } else {
            std::mem::replace(&mut self.slots[after as usize].next, slot)
        };
        if next == NO_SLOT {
            queue.tail = slot;
        } else {
            self.slots[next as usize].prev = slot;
        }
        self.slots[slot as usize].prev = after;
        self.slots[slot as usize].next = next;
        self.slot_queue[slot as usize] = q;
    }

    /// Detach `slot` from its queue.
    fn unlink(&mut self, slot: u32) {
        let q = self.slot_queue[slot as usize];
        debug_assert_ne!(q, NO_SLOT, "unlink of freed pending slot");
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        let queue = &mut self.queues[q as usize];
        if prev == NO_SLOT {
            queue.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NO_SLOT {
            queue.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        self.slot_queue[slot as usize] = NO_SLOT;
    }

    /// Append `item` to the FIFO for `key`/`lane`; returns its slot id.
    pub(crate) fn insert(&mut self, key: QueueKey, lane: LaneKey, item: T) -> u32 {
        let g = match self.by_key.get(&key) {
            Some(&g) => g,
            None => {
                let g = self.groups.len() as u32;
                let scan = self.new_queue(g);
                self.groups.push(Group {
                    scan,
                    lane_keys: Vec::new(),
                    lane_queues: Vec::new(),
                });
                self.by_key.insert(key, g);
                g
            }
        };
        let q = match lane {
            None => self.groups[g as usize].scan,
            Some(lk) => {
                let group = &self.groups[g as usize];
                match group.lane_keys.iter().position(|&k| k == lk) {
                    Some(i) => group.lane_queues[i],
                    None => {
                        let q = self.new_queue(g);
                        let group = &mut self.groups[g as usize];
                        group.lane_keys.push(lk);
                        group.lane_queues.push(q);
                        q
                    }
                }
            }
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].item = Some(item);
                s
            }
            None => {
                self.slots.push(Slot {
                    item: Some(item),
                    prev: NO_SLOT,
                    next: NO_SLOT,
                });
                self.slot_queue.push(NO_SLOT);
                (self.slots.len() - 1) as u32
            }
        };
        let tail = self.queues[q as usize].tail;
        self.link_after(slot, q, tail);
        self.live += 1;
        slot
    }

    /// Detach `slot` from its queue and free it, returning the item.
    pub(crate) fn remove(&mut self, slot: u32) -> T {
        self.unlink(slot);
        self.free.push(slot);
        self.live -= 1;
        self.slots[slot as usize]
            .item
            .take()
            .expect("double-remove of pending slot")
    }

    /// Move `slot` out of its lane into its group's scan queue, at the
    /// position its `seq_of` key takes among the scan queue's (ascending)
    /// keys — found by walking back from the tail. The slot id stays the
    /// same; a slot already on the scan queue is left where it is.
    pub(crate) fn move_to_scan(&mut self, slot: u32, seq_of: impl Fn(&T) -> u64) {
        let q = self.slot_queue[slot as usize];
        let scan = self.groups[self.queue_group[q as usize] as usize].scan;
        if q == scan {
            return;
        }
        self.unlink(slot);
        let seq = seq_of(self.get(slot));
        let mut after = self.queues[scan as usize].tail;
        while after != NO_SLOT && seq_of(self.get(after)) > seq {
            after = self.slots[after as usize].prev;
        }
        self.link_after(slot, scan, after);
    }

    /// Iterate live items in slab order (NOT scheduling order). For
    /// maintenance passes that inspect every pending op.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| s.item.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_scan(set: &mut PendingSet<u64>, group: u32) -> Vec<u64> {
        let mut out = Vec::new();
        loop {
            let head = set.scan_head(group);
            if head == NO_SLOT {
                return out;
            }
            out.push(set.remove(head));
        }
    }

    #[test]
    fn scan_queues_are_fifo_and_isolated() {
        let mut set = PendingSet::new();
        let ka = QueueKey::Class(OpClass::AppRead, None);
        let kb = QueueKey::Class(OpClass::AppWrite, Some(1));
        for i in 0..4 {
            set.insert(ka, None, 10 + i);
            set.insert(kb, None, 20 + i);
        }
        assert_eq!(set.len(), 8);
        assert_eq!(set.group_count(), 3); // transfer + two class groups
        assert_eq!(drain_scan(&mut set, 1), vec![10, 11, 12, 13]);
        assert_eq!(drain_scan(&mut set, 2), vec![20, 21, 22, 23]);
        assert!(set.is_empty());
    }

    #[test]
    fn write_lanes_split_by_key_and_keep_fifo() {
        let mut set = PendingSet::new();
        let k = QueueKey::Class(OpClass::AppWrite, None);
        set.insert(k, Some(7), 1);
        set.insert(k, Some(9), 2);
        set.insert(k, Some(7), 3);
        set.insert(k, None, 4); // order-scan op in the same group
        let g = 1;
        assert_eq!(set.lane_count(g), 2);
        assert_eq!(*set.get(set.lane_head(g, 0)), 1);
        assert_eq!(*set.get(set.lane_head(g, 1)), 2);
        assert_eq!(*set.get(set.scan_head(g)), 4);
        // Lane FIFO: removing lane 0's head exposes the next same-key op.
        set.remove(set.lane_head(g, 0));
        assert_eq!(*set.get(set.lane_head(g, 0)), 3);
        set.remove(set.lane_head(g, 0));
        assert_eq!(set.lane_head(g, 0), NO_SLOT, "drained lane stays");
        assert_eq!(set.lane_count(g), 2, "lane ids are stable");
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn removal_from_middle_keeps_links() {
        let mut set = PendingSet::new();
        let k = QueueKey::Transfer;
        let slots: Vec<u32> = (0..5).map(|i| set.insert(k, None, i)).collect();
        assert_eq!(set.remove(slots[2]), 2);
        assert_eq!(set.remove(slots[0]), 0);
        assert_eq!(set.remove(slots[4]), 4);
        assert_eq!(
            drain_scan(&mut set, PendingSet::<u64>::TRANSFER_GROUP),
            vec![1, 3]
        );
    }

    #[test]
    fn slots_and_groups_are_recycled() {
        let mut set = PendingSet::new();
        let k = QueueKey::Class(OpClass::Erase, None);
        let a = set.insert(k, None, 1);
        set.remove(a);
        let b = set.insert(k, None, 2);
        assert_eq!(a, b, "freed slot should be reused");
        assert_eq!(set.group_count(), 2, "group id should be stable");
        assert_eq!(*set.get(b), 2);
        assert_eq!(set.next(b), NO_SLOT);
    }

    /// Items are their own seq. Scan queue holds 10, 20, 30; one lane
    /// holds the moved items in seq order, as the controller's lanes do.
    fn scan_with_lane(lane_items: &[u64]) -> (PendingSet<u64>, Vec<u32>) {
        let mut set = PendingSet::new();
        let k = QueueKey::Class(OpClass::GcRead, None);
        let mut all: Vec<(u64, LaneKey)> = vec![(10, None), (20, None), (30, None)];
        all.extend(lane_items.iter().map(|&i| (i, Some(1u64 << 63))));
        all.sort_unstable();
        let slots = all
            .iter()
            .filter_map(|&(item, lane)| {
                let slot = set.insert(k, lane, item);
                lane.map(|_| slot)
            })
            .collect();
        (set, slots)
    }

    fn scan_items(set: &PendingSet<u64>, group: u32) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = set.scan_head(group);
        while cur != NO_SLOT {
            out.push(*set.get(cur));
            cur = set.next(cur);
        }
        out
    }

    #[test]
    fn move_to_scan_inserts_by_seq_at_head_middle_and_tail() {
        for (moved, want) in [
            (5, vec![5, 10, 20, 30]),
            (25, vec![10, 20, 25, 30]),
            (35, vec![10, 20, 30, 35]),
        ] {
            let (mut set, lane) = scan_with_lane(&[moved]);
            let g = 1;
            assert_eq!(set.len(), 4);
            set.move_to_scan(lane[0], |&i| i);
            assert_eq!(scan_items(&set, g), want, "moving {moved}");
            assert_eq!(set.len(), 4, "a move is not a removal");
            assert_eq!(*set.get(lane[0]), moved, "slot id is stable");
            assert_eq!(set.lane_head(g, 0), NO_SLOT, "lane drained");
            assert_eq!(set.remove(lane[0]), moved, "moved slot removes cleanly");
            assert_eq!(scan_items(&set, g), vec![10, 20, 30]);
        }
    }

    #[test]
    fn move_to_scan_advances_the_lane_head() {
        let (mut set, lane) = scan_with_lane(&[15, 25, 35]);
        let g = 1;
        assert_eq!(set.lane_head(g, 0), lane[0]);
        set.move_to_scan(lane[0], |&i| i);
        assert_eq!(set.lane_head(g, 0), lane[1], "next lane op is the head");
        // Moving from the middle of a lane keeps its other links.
        set.move_to_scan(lane[2], |&i| i);
        assert_eq!(set.lane_head(g, 0), lane[1]);
        assert_eq!(set.next(lane[1]), NO_SLOT);
        assert_eq!(scan_items(&set, g), vec![10, 15, 20, 30, 35]);
        // A slot already on the scan queue stays put.
        set.move_to_scan(lane[0], |&i| i);
        assert_eq!(scan_items(&set, g), vec![10, 15, 20, 30, 35]);
        assert_eq!(set.len(), 6);
        let mut group: Vec<u64> = set.group_slots(g).map(|s| *set.get(s)).collect();
        group.sort_unstable();
        assert_eq!(group, vec![10, 15, 20, 25, 30, 35]);
    }

    #[test]
    fn iter_sees_exactly_the_live_items() {
        let mut set = PendingSet::new();
        let k = QueueKey::Class(OpClass::GcRead, None);
        let s0 = set.insert(k, None, 7);
        set.insert(QueueKey::Transfer, None, 8);
        set.remove(s0);
        let live: Vec<u64> = set.iter().copied().collect();
        assert_eq!(live, vec![8]);
    }
}
