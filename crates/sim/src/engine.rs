//! The hybrid simulation engine.
//!
//! The measured system in the paper has two kinds of actors:
//!
//! * **software** (MPI/UCP/UCT on a core) executes *sequentially*: each call
//!   costs CPU time, and the next call starts when the previous returns;
//! * **hardware** (root complex, NIC, wire, switch) is a *pipeline*: it has
//!   multiple outstanding transactions, and its work overlaps CPU time —
//!   the paper's Figure 5 shows `PCIe` of message *i* overlapping
//!   `CPU_time` of message *i+1*.
//!
//! We model this with a [`CpuClock`] per simulated core (software advances
//! it explicitly) and an [`EventQueue`] shared by the hardware components
//! (events fire in timestamp order, FIFO-stable for equal timestamps).
//! Software drains hardware events up to its own clock whenever it needs to
//! observe hardware state (e.g. polling a completion queue), which is
//! precisely what a real core does when it loads a CQ entry from memory.

use crate::hash::IdSet;
use crate::time::{SimDuration, SimTime};
use std::fmt::Debug;

/// Children per node of the implicit heap. A 4-ary layout halves the tree
/// depth of a binary heap, and all four children of a node share one or
/// two cache lines, so `pop` does fewer, cheaper levels of sift-down — the
/// classic d-ary-heap trade for discrete-event queues, whose pop:push
/// ratio is exactly 1 and whose pops dominate (each sift-down is
/// O(d·log_d n) comparisons but O(log_d n) line fetches).
const ARITY: usize = 4;

/// Handle to a scheduled event, returned by [`EventQueue::push`]. Pass it
/// to [`EventQueue::cancel`] to retract the event before it fires. Keys are
/// never reused, so a stale key (for an event that already fired) simply
/// fails to cancel anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey(u64);

/// One heap entry: the event's order key and the slab slot holding its
/// payload. 24 bytes whatever the payload type, so a sift moves three
/// words per level instead of the whole event.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    slot: usize,
}

impl HeapEntry {
    /// The total-order key: time, then insertion sequence, as one integer.
    #[inline]
    fn key(&self) -> u128 {
        (self.at.as_ps() as u128) << 64 | self.seq as u128
    }
}

/// A total-ordered, FIFO-stable event queue over payload type `E`.
///
/// Internally an indexed 4-ary min-heap of [`HeapEntry`] keys on
/// `(time, seq)` in a flat `Vec`, with payloads parked in a slab whose
/// slots are recycled through a free list. [`EventQueue::pop_due`]
/// inspects the root key exactly once per call — there is no
/// peek-then-pop double traversal — and the hot path never allocates once
/// heap, slab and free list have grown to the simulation's high-water
/// mark.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: Vec<HeapEntry>,
    /// Payloads by slot; `None` marks a free slot.
    slots: Vec<Option<E>>,
    /// Free slots, reused last-in first-out.
    free: Vec<usize>,
    next_seq: u64,
    /// Time of the most recently popped event; pushes earlier than this are
    /// causality violations and panic.
    watermark: SimTime,
    total_fired: u64,
    /// Sequence numbers of cancelled-but-not-yet-drained entries. Drained
    /// lazily at the root during pops, and eagerly purged whenever the
    /// tombstones outnumber live entries, so long lossy runs with frequent
    /// RTO timer resets keep the heap at O(live events).
    cancelled: IdSet<u64>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            watermark: SimTime::ZERO,
            total_fired: 0,
            cancelled: IdSet::default(),
        }
    }

    /// Schedule `event` to fire at absolute time `at`. Returns a key that
    /// can retract the event via [`EventQueue::cancel`].
    ///
    /// # Panics
    /// If `at` is earlier than the last popped event's time (an effect
    /// scheduled before its cause). The message names the event.
    pub fn push(&mut self, at: SimTime, event: E) -> EventKey
    where
        E: Debug,
    {
        assert!(
            at >= self.watermark,
            "causality violation: scheduling {event:?} at {at} behind watermark {}",
            self.watermark
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(event);
                slot
            }
            None => {
                self.slots.push(Some(event));
                self.slots.len() - 1
            }
        };
        self.heap.push(HeapEntry { at, seq, slot });
        self.sift_up(self.heap.len() - 1);
        EventKey(seq)
    }

    /// Schedule `event` to fire `after` from `from`.
    pub fn push_after(&mut self, from: SimTime, after: SimDuration, event: E) -> EventKey
    where
        E: Debug,
    {
        self.push(from + after, event)
    }

    /// Retract a still-pending event. The entry becomes a tombstone that is
    /// skipped (never delivered) by subsequent pops; tombstones are purged
    /// from the heap in bulk once they outnumber live entries. Returns
    /// `false` if `key` was already cancelled.
    ///
    /// Callers must only cancel keys of events that have not fired yet —
    /// keys are unique for the queue's lifetime, so cancelling a fired key
    /// leaks one tombstone slot until the next purge but cannot suppress an
    /// unrelated event.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let newly = self.cancelled.insert(key.0);
        if newly && self.cancelled.len() * 2 > self.heap.len() {
            self.purge();
        }
        newly
    }

    /// Drop every tombstoned entry, free its slot, and restore the heap in
    /// O(n).
    fn purge(&mut self) {
        if self.cancelled.is_empty() {
            return;
        }
        let cancelled = std::mem::take(&mut self.cancelled);
        let (slots, free) = (&mut self.slots, &mut self.free);
        self.heap.retain(|e| {
            if cancelled.contains(&e.seq) {
                slots[e.slot] = None;
                free.push(e.slot);
                false
            } else {
                true
            }
        });
        // Floyd heapify: sift parents bottom-up.
        if self.heap.len() > 1 {
            for i in (0..=(self.heap.len() - 2) / ARITY).rev() {
                self.sift_down(i);
            }
        }
    }

    /// Time of the earliest pending entry, if any. May report a cancelled
    /// entry's (earlier or equal) time; use [`EventQueue::next_live_time`]
    /// when an exact answer is needed.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    /// Time of the earliest *live* (non-cancelled) event, draining any
    /// tombstones blocking the root.
    pub fn next_live_time(&mut self) -> Option<SimTime> {
        loop {
            let root = *self.heap.first()?;
            if !self.cancelled.contains(&root.seq) {
                return Some(root.at);
            }
            self.take_root();
            self.cancelled.remove(&root.seq);
        }
    }

    /// Remove the root entry and return its payload, freeing its slot.
    #[inline]
    fn take_root(&mut self) -> E {
        let root = self.heap[0];
        let last = self.heap.pop().expect("root exists");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        self.free.push(root.slot);
        self.slots[root.slot]
            .take()
            .expect("heap entries own a filled slot")
    }

    /// Pop the earliest live event if it is due at or before `limit`.
    ///
    /// The due check is one comparison against the root — the entry is
    /// then extracted directly, with no second peek. Tombstoned entries
    /// encountered at the root are drained silently.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        loop {
            let root = *self.heap.first()?;
            if root.at > limit {
                return None;
            }
            let event = self.take_root();
            if !self.cancelled.is_empty() && self.cancelled.remove(&root.seq) {
                continue;
            }
            self.watermark = root.at;
            self.total_fired += 1;
            return Some((root.at, event));
        }
    }

    /// Pop the earliest live due event plus every further live event
    /// sharing its exact timestamp, in FIFO order, appending to `out`.
    /// Returns the number of events delivered (0 when nothing is due).
    ///
    /// Go-back-N retransmission bursts and credit-update fan-outs land
    /// back-to-back at identical virtual times; draining them in one heap
    /// transaction avoids a full sift per event on the hot path.
    pub fn pop_batch(&mut self, limit: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        let Some(first) = self.pop_due(limit) else {
            return 0;
        };
        let t = first.0;
        out.push(first);
        let mut n = 1;
        while let Some(ev) = self.pop_due(t) {
            out.push(ev);
            n += 1;
        }
        n
    }

    /// Restore the heap property upward from `i` after a push, moving
    /// parents down into the hole and writing the entry once at the end.
    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let key = entry.key();
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if key < self.heap[parent].key() {
                self.heap[i] = self.heap[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
    }

    /// Restore the heap property downward from `i` after a root removal,
    /// moving the smallest child up into the hole at each level.
    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        let entry = self.heap[i];
        let key = entry.key();
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            // Smallest of up to ARITY children.
            let mut min = first;
            let mut min_key = self.heap[first].key();
            for c in (first + 1)..(first + ARITY).min(len) {
                let k = self.heap[c].key();
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if min_key < key {
                self.heap[i] = self.heap[min];
                i = min;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
    }

    /// Pop the earliest event unconditionally.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// Number of pending *live* events (cancelled entries excluded).
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// True when no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical heap occupancy including not-yet-drained tombstones
    /// (diagnostics; the purge policy leaves at most `2 × len()` when a
    /// cancel returns).
    pub fn raw_len(&self) -> usize {
        self.heap.len()
    }

    /// Count of events fired since construction (diagnostics).
    pub fn total_fired(&self) -> u64 {
        self.total_fired
    }

    /// Time of the last fired event.
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }
}

/// The sequential clock of one simulated core.
///
/// Software-layer code (the `llp`, `hlp`, `mpi` crates) advances this clock
/// by the sampled cost of each instruction sequence it "executes". Hardware
/// interaction points read the clock to timestamp MMIO writes and drain the
/// hardware event queue up to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuClock {
    now: SimTime,
}

impl Default for CpuClock {
    fn default() -> Self {
        Self::new()
    }
}

impl CpuClock {
    /// A core whose local time starts at zero.
    pub fn new() -> Self {
        CpuClock { now: SimTime::ZERO }
    }

    /// A core starting at an arbitrary instant (e.g. the target node's CPU
    /// in a ping-pong, offset to when it posted its receive).
    pub fn starting_at(t: SimTime) -> Self {
        CpuClock { now: t }
    }

    /// Current local time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Execute work costing `d`; returns the completion instant.
    #[inline]
    pub fn advance(&mut self, d: SimDuration) -> SimTime {
        self.now += d;
        self.now
    }

    /// Block until at least `t` (no-op if already past). Models waiting on
    /// an external condition; returns the new local time.
    #[inline]
    pub fn advance_to(&mut self, t: SimTime) -> SimTime {
        self.now = self.now.max_of(t);
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), "c");
        q.push(SimTime::from_ns(10), "a");
        q.push(SimTime::from_ns(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_limit() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        assert_eq!(
            q.pop_due(SimTime::from_ns(15)),
            Some((SimTime::from_ns(10), 1))
        );
        assert_eq!(q.pop_due(SimTime::from_ns(15)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_due(SimTime::from_ns(20)),
            Some((SimTime::from_ns(20), 2))
        );
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn push_behind_watermark_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), ());
        q.pop();
        q.push(SimTime::from_ns(5), ());
    }

    #[test]
    fn push_at_watermark_is_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 1);
        q.pop();
        q.push(SimTime::from_ns(10), 2); // same instant: fine
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), 2)));
    }

    #[test]
    fn push_after_composes() {
        let mut q = EventQueue::new();
        q.push_after(SimTime::from_ns(100), SimDuration::from_ns(37), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(137)));
    }

    #[test]
    fn cpu_clock_advances_monotonically() {
        let mut cpu = CpuClock::new();
        assert_eq!(cpu.now(), SimTime::ZERO);
        cpu.advance(SimDuration::from_ns(100));
        cpu.advance_to(SimTime::from_ns(50)); // earlier: no-op
        assert_eq!(cpu.now(), SimTime::from_ns(100));
        cpu.advance_to(SimTime::from_ns(150));
        assert_eq!(cpu.now(), SimTime::from_ns(150));
    }

    #[test]
    fn cpu_clock_starting_at() {
        let mut cpu = CpuClock::starting_at(SimTime::from_ns(500));
        assert_eq!(cpu.now(), SimTime::from_ns(500));
        cpu.advance(SimDuration::from_ns(10));
        assert_eq!(cpu.now(), SimTime::from_ns(510));
    }

    #[test]
    fn interleaved_push_pop_respects_watermark() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 'a');
        assert_eq!(q.pop_due(SimTime::from_ns(5)), None);
        // Nothing popped yet: earlier pushes are still legal.
        q.push(SimTime::from_ns(2), 'b');
        assert_eq!(q.pop(), Some((SimTime::from_ns(2), 'b')));
        // Now the watermark is 2: same-time pushes fine, earlier panics.
        q.push(SimTime::from_ns(2), 'c');
        assert_eq!(q.pop(), Some((SimTime::from_ns(2), 'c')));
    }

    #[test]
    fn cancel_suppresses_delivery() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_ns(10), "a");
        q.push(SimTime::from_ns(20), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ns(20), "b")));
        assert!(q.is_empty());
        assert_eq!(q.total_fired(), 1, "cancelled events never count as fired");
    }

    #[test]
    fn cancelled_root_does_not_advance_watermark() {
        let mut q = EventQueue::new();
        let late = q.push(SimTime::from_ns(100), "late");
        q.cancel(late);
        // Draining the tombstone must not move the watermark to 100.
        assert_eq!(q.next_live_time(), None);
        q.push(SimTime::from_ns(5), "early");
        assert_eq!(q.pop(), Some((SimTime::from_ns(5), "early")));
    }

    #[test]
    fn next_live_time_skips_tombstones() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_ns(1), 'a');
        q.push(SimTime::from_ns(7), 'b');
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(1)));
        q.cancel(a);
        assert_eq!(q.next_live_time(), Some(SimTime::from_ns(7)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(7), 'b')));
    }

    #[test]
    fn pop_batch_drains_equal_timestamps_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(50);
        for i in 0..5 {
            q.push(t, i);
        }
        q.push(SimTime::from_ns(60), 99);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(SimTime::MAX, &mut out), 5);
        assert_eq!(out, (0..5).map(|i| (t, i)).collect::<Vec<_>>());
        assert_eq!(q.len(), 1);
        out.clear();
        assert_eq!(q.pop_batch(SimTime::from_ns(55), &mut out), 0);
        assert_eq!(q.pop_batch(SimTime::from_ns(60), &mut out), 1);
    }

    #[test]
    fn pop_batch_skips_cancelled_members() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        let keys: Vec<_> = (0..6).map(|i| q.push(t, i)).collect();
        q.cancel(keys[1]);
        q.cancel(keys[4]);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(SimTime::MAX, &mut out), 4);
        let vals: Vec<i32> = out.into_iter().map(|(_, v)| v).collect();
        assert_eq!(vals, vec![0, 2, 3, 5]);
    }

    #[test]
    fn repeated_cancel_repush_keeps_heap_bounded() {
        // The RTO-reset pattern: every state change retracts the old timer
        // deadline and arms a new one. Without tombstone purging the heap
        // grows by one dead entry per reset.
        let mut q = EventQueue::new();
        let mut key = q.push(SimTime::from_ns(1), ());
        for i in 2..10_000u64 {
            assert!(q.cancel(key));
            key = q.push(SimTime::from_ns(i), ());
            assert_eq!(q.len(), 1);
            assert!(
                q.raw_len() <= 3,
                "heap grew to {} entries at reset {i}",
                q.raw_len()
            );
        }
        assert_eq!(q.pop(), Some((SimTime::from_ns(9_999), ())));
        assert!(q.is_empty());
    }

    #[test]
    fn purge_preserves_order_of_survivors() {
        let mut q = EventQueue::new();
        let keys: Vec<_> = (0..100u64)
            .map(|i| q.push(SimTime::from_ns(i), i))
            .collect();
        // Cancel every even entry; crossing the half-way mark forces purges.
        for k in keys.iter().step_by(2) {
            q.cancel(*k);
        }
        assert_eq!(q.len(), 50);
        assert!(q.raw_len() <= 100);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (1..100).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn total_fired_counts() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(SimTime::from_ns(i), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.total_fired(), 10);
        assert_eq!(q.watermark(), SimTime::from_ns(9));
    }

    #[test]
    fn slab_slots_are_reused() {
        // A steady state of at most N pending events must not grow the
        // payload slab past N + 1 slots, however many events flow through.
        const N: u64 = 37;
        let mut q = EventQueue::new();
        for i in 0..N {
            q.push(SimTime::from_ns(i), i);
        }
        for i in 0..100_000u64 {
            let (t, e) = q.pop().expect("N pending");
            assert_eq!(e, i, "FIFO by time");
            q.push(t + SimDuration::from_ns(N), e + N);
        }
        assert_eq!(q.len() as u64, N);
        assert!(
            q.slots.len() as u64 <= N + 1,
            "slab grew to {}",
            q.slots.len()
        );
    }

    #[test]
    #[should_panic(expected = "scheduling \"late\" at 5.000 ns behind watermark 10.000 ns")]
    fn causality_panic_names_the_event() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), "first");
        q.pop();
        q.push(SimTime::from_ns(5), "late");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn interleaved_ops_match_reference_model(
                ops in proptest::collection::vec((0u8..6, 0u64..50, any::<u64>()), 1..400)
            ) {
                // Drive the queue and a naive sorted-vec model with the
                // same push / pop_due / cancel / pop_batch / next_live_time
                // stream; they must agree exactly. Payloads are random words
                // unrelated to the sequence numbers, so a slab slot handed
                // to the wrong entry shows.
                let mut q = EventQueue::new();
                // (at, seq, payload, key) of every live event.
                let mut model: Vec<(SimTime, u64, u64, EventKey)> = Vec::new();
                let mut watermark = SimTime::ZERO;
                let mut seq = 0u64;
                let mut peak_raw = 0usize;
                for (op, t, word) in ops {
                    model.sort_by_key(|&(at, s, _, _)| (at, s));
                    let limit = watermark + SimDuration::from_ns(t);
                    match op {
                        0 | 1 => {
                            let key = q.push(limit, word);
                            model.push((limit, seq, word, key));
                            seq += 1;
                        }
                        2 => {
                            let want = match model.first() {
                                Some(&(at, _, w, _)) if at <= limit => {
                                    model.remove(0);
                                    watermark = at;
                                    Some((at, w))
                                }
                                _ => None,
                            };
                            prop_assert_eq!(q.pop_due(limit), want);
                        }
                        3 if !model.is_empty() => {
                            let (_, _, _, key) = model.remove(word as usize % model.len());
                            prop_assert!(q.cancel(key));
                        }
                        4 => {
                            let mut want = Vec::new();
                            if let Some(&(first, ..)) = model.first() {
                                if first <= limit {
                                    while model.first().is_some_and(|e| e.0 == first) {
                                        let (at, _, w, _) = model.remove(0);
                                        want.push((at, w));
                                    }
                                    watermark = first;
                                }
                            }
                            let mut got = Vec::new();
                            prop_assert_eq!(q.pop_batch(limit, &mut got), want.len());
                            prop_assert_eq!(got, want);
                        }
                        _ => {
                            prop_assert_eq!(q.next_live_time(), model.first().map(|e| e.0));
                        }
                    }
                    prop_assert_eq!(q.len(), model.len());
                    peak_raw = peak_raw.max(q.raw_len());
                    prop_assert!(q.slots.len() <= peak_raw, "slab outgrew the heap");
                    prop_assert_eq!(q.watermark(), watermark);
                }
                model.sort_by_key(|&(at, s, _, _)| (at, s));
                let rest: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
                let want: Vec<(SimTime, u64)> = model.iter().map(|&(at, _, w, _)| (at, w)).collect();
                prop_assert_eq!(rest, want);
            }

            #[test]
            fn pops_are_sorted_and_stable(times in proptest::collection::vec(0u64..1000, 1..200)) {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.push(SimTime::from_ns(t), i);
                }
                let mut prev: Option<(SimTime, usize)> = None;
                while let Some((at, idx)) = q.pop() {
                    if let Some((pt, pidx)) = prev {
                        prop_assert!(at >= pt);
                        if at == pt {
                            prop_assert!(idx > pidx, "FIFO stability violated");
                        }
                    }
                    prev = Some((at, idx));
                }
            }
        }
    }
}
