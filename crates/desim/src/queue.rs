//! The pending-event set: a priority queue ordered by `(time, sequence)`.
//!
//! Two properties matter for reproducible simulation:
//!
//! * **Deterministic tie-break.** Events scheduled for the same instant pop
//!   in the order they were scheduled (FIFO), never in heap-internal order.
//! * **The heap holds only live events.** Timers (ACK timeouts, backoff
//!   expiry, NAV) are cancelled or re-armed far more often than they fire.
//!   The queue is an indexed binary heap: each live event owns a
//!   generation-stamped slot in a slab, and the slot records where its
//!   entry sits in the heap. Cancelling removes that entry at once with
//!   one sift, and re-arming ([`EventQueue::rearm`]) gives it a new key
//!   and sifts it in place, so no stale entry is ever left to surface in
//!   `pop` or `peek_time`. A handle whose event fired or was cancelled is
//!   recognised by its generation and is inert.

use crate::time::SimTime;

/// A handle to a scheduled event, used to cancel or re-arm it before it
/// fires.
///
/// Handles are cheap to copy and remain valid (but inert) after the event
/// has fired or been cancelled: the slot generation recorded in the handle
/// no longer matches the slab, so late cancels are rejected in O(1) —
/// even when the slot has since been reused by a newer event. A re-armed
/// event keeps its handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    slot: u32,
    generation: u32,
}

/// Heap entries carry only the scheduling key and a slot reference; the
/// payload lives in the slab, which also records each entry's heap
/// position.
///
/// The full ordering key is `(time, class, rank, seq)`:
///
/// * `class` 0 is an ordinary event; class 1 is *trailing* (see
///   [`EventQueue::push_trailing`]) and sorts after every ordinary event
///   at the same instant.
/// * `rank` is 0 for ordinary events. Trailing events store the bitwise
///   complement of their scheduling instant, so among trailing events at
///   the same firing instant the most recently scheduled fires first.
/// * `seq` keeps same-key events FIFO. It is unique, so no two entries
///   compare equal.
#[derive(Clone, Copy)]
struct HeapEntry {
    time: SimTime,
    class: u8,
    rank: u64,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    /// True if `self` pops before `other`.
    #[inline]
    fn before(&self, other: &HeapEntry) -> bool {
        (self.time, self.class, self.rank, self.seq)
            < (other.time, other.class, other.rank, other.seq)
    }
}

/// One slab slot. The generation counts how many times the slot has been
/// vacated; a handle minted under an older generation is stale. (The
/// counter wraps after 2^32 reuses of one slot, and a handle that old
/// would then alias the slot's occupant — beyond any simulated horizon.)
struct Slot<E> {
    generation: u32,
    /// Index of this slot's entry in the heap while `event` is `Some`.
    pos: u32,
    event: Option<E>,
}

/// A cancellable future-event set ordered by `(time, insertion order)`.
///
/// This is the scheduling core used by [`crate::Simulator`]; it can also be
/// used directly when the caller wants to manage the clock itself.
///
/// # Example
///
/// ```
/// use desim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let h = q.push(SimTime::from_micros(10), "timeout");
/// q.push(SimTime::from_micros(10), "same-instant, scheduled later");
/// assert!(q.cancel(h));
/// let (_, ev) = q.pop().expect("one live event left");
/// assert_eq!(ev, "same-instant, scheduled later");
/// ```
pub struct EventQueue<E> {
    /// A binary min-heap of the live events' keys, one entry per live
    /// event.
    heap: Vec<HeapEntry>,
    /// Event payloads and heap positions, indexed by `HeapEntry::slot` /
    /// `EventHandle::slot`.
    slots: Vec<Slot<E>>,
    /// Vacated slot indices ready for reuse.
    free: Vec<u32>,
    /// FIFO tie-break for same-instant events.
    next_seq: u64,
    /// Largest live population ever reached (see [`EventQueue::high_water`]).
    high_water: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            high_water: 0,
        }
    }

    /// Pre-sizes the heap and the slab for at least `capacity` pending
    /// events, so a caller with a known scale can keep the steady state
    /// allocation-free even if its peak population occurs late.
    pub fn reserve(&mut self, capacity: usize) {
        self.heap.reserve(capacity.saturating_sub(self.heap.len()));
        self.slots
            .reserve(capacity.saturating_sub(self.slots.len()));
        self.free.reserve(capacity.saturating_sub(self.free.len()));
    }

    /// Schedules `event` at `time` and returns a cancellation handle.
    pub fn push(&mut self, time: SimTime, event: E) -> EventHandle {
        self.push_keyed(time, 0, 0, event)
    }

    /// Schedules `event` at `time` in the **trailing class**: it pops
    /// after every ordinary event scheduled for the same instant,
    /// regardless of scheduling order.
    ///
    /// Among trailing events at the same firing instant, the one with the
    /// latest `scheduled_at` pops first; ties (same scheduling instant)
    /// stay FIFO. This mirrors what a self-rescheduling per-tick timer
    /// chain would produce for its next tick: a chain (re-)armed more
    /// recently was armed by an earlier-inserted event at the previous
    /// tick, so it fires ahead of older chains — the property that lets a
    /// coalesced multi-tick timer replace a per-tick chain without
    /// perturbing same-instant ordering.
    pub fn push_trailing(&mut self, time: SimTime, scheduled_at: SimTime, event: E) -> EventHandle {
        self.push_keyed(time, 1, !scheduled_at.as_nanos(), event)
    }

    fn push_keyed(&mut self, time: SimTime, class: u8, rank: u64, event: E) -> EventHandle {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].event = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event slab exceeds u32 slots");
                self.slots.push(Slot {
                    generation: 0,
                    pos: 0, // set by `sift_up` below
                    event: Some(event),
                });
                slot
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry {
            time,
            class,
            rank,
            seq,
            slot,
        });
        self.sift_up(self.heap.len() - 1);
        self.high_water = self.high_water.max(self.heap.len());
        EventHandle {
            slot,
            generation: self.slots[slot as usize].generation,
        }
    }

    /// The heap position of `handle`'s entry, or `None` if its event has
    /// fired or been cancelled.
    fn live_pos(&self, handle: EventHandle) -> Option<usize> {
        match self.slots.get(handle.slot as usize) {
            Some(s) if s.generation == handle.generation && s.event.is_some() => {
                Some(s.pos as usize)
            }
            _ => None,
        }
    }

    /// Vacates `slot`, whose entry has left the heap, returning its
    /// payload and retiring the generation every outstanding handle for
    /// it was minted under.
    fn vacate(&mut self, slot: u32) -> E {
        let s = &mut self.slots[slot as usize];
        let event = s.event.take().expect("vacating an empty slot");
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
        event
    }

    /// Cancels a scheduled event, removing it from the heap at once.
    ///
    /// Returns `true` if the event was still pending, `false` if it had
    /// already fired or been cancelled (in which case nothing changes —
    /// repeated cancels of a dead handle are free and allocate nothing).
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let Some(pos) = self.live_pos(handle) else {
            return false;
        };
        let last = self.heap.pop().expect("a live event has a heap entry");
        if pos < self.heap.len() {
            self.heap[pos] = last;
            self.restore(pos);
        }
        self.vacate(handle.slot);
        true
    }

    /// Moves a pending event to `time` in the ordinary class, keeping its
    /// payload and its handle.
    ///
    /// The event pops exactly where cancelling it and pushing its payload
    /// anew would put it: it draws a fresh sequence number, so it follows
    /// every event already scheduled for `time`. Returns `false`, and
    /// changes nothing, if the event had already fired or been cancelled.
    pub fn rearm(&mut self, handle: EventHandle, time: SimTime) -> bool {
        self.rearm_keyed(handle, time, 0, 0)
    }

    /// Like [`EventQueue::rearm`], but into the trailing class with
    /// `scheduled_at` as the new scheduling instant, exactly as
    /// cancelling the event and passing its payload to
    /// [`EventQueue::push_trailing`] would.
    pub fn rearm_trailing(
        &mut self,
        handle: EventHandle,
        time: SimTime,
        scheduled_at: SimTime,
    ) -> bool {
        self.rearm_keyed(handle, time, 1, !scheduled_at.as_nanos())
    }

    fn rearm_keyed(&mut self, handle: EventHandle, time: SimTime, class: u8, rank: u64) -> bool {
        let Some(pos) = self.live_pos(handle) else {
            return false;
        };
        let e = &mut self.heap[pos];
        e.time = time;
        e.class = class;
        e.rank = rank;
        e.seq = self.next_seq;
        self.next_seq += 1;
        self.restore(pos);
        true
    }

    /// Removes and returns the earliest pending event with its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let last = self.heap.pop()?;
        let top = if self.heap.is_empty() {
            last
        } else {
            let top = std::mem::replace(&mut self.heap[0], last);
            self.sift_down_to_bottom(0);
            top
        };
        Some((top.time, self.vacate(top.slot)))
    }

    /// The time of the earliest pending event, if any, without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.time)
    }

    /// Number of pending (scheduled, not cancelled, not fired) events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The largest number of events ever pending at once — the
    /// queue-depth high-water mark, a capacity-planning signal for the
    /// engine's self-instrumentation.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Writes `entry` at heap position `pos` and records the position in
    /// its slot.
    #[inline]
    fn place(&mut self, pos: usize, entry: HeapEntry) {
        self.slots[entry.slot as usize].pos = pos as u32;
        self.heap[pos] = entry;
    }

    /// Restores heap order around `pos` after its entry was replaced or
    /// re-keyed: the entry moves up if it now precedes its parent and
    /// down otherwise.
    fn restore(&mut self, pos: usize) {
        if pos > 0 && self.heap[pos].before(&self.heap[(pos - 1) / 2]) {
            self.sift_up(pos);
        } else {
            self.sift_down_to_bottom(pos);
        }
    }

    /// Moves the entry at `pos` up past every parent it precedes.
    fn sift_up(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !entry.before(&self.heap[parent]) {
                break;
            }
            self.place(pos, self.heap[parent]);
            pos = parent;
        }
        self.place(pos, entry);
    }

    /// Moves the entry at `start` down to its place in the subtree under
    /// `start`, bottom-up, as std's `BinaryHeap::pop` does: the hole
    /// walks to a leaf along the earlier child, one comparison per level
    /// instead of a top-down sift's two, and the entry then sifts up
    /// from there. The entry usually belongs near the bottom (it was the
    /// heap's last, or a timer moved later), so the climb back is short.
    fn sift_down_to_bottom(&mut self, start: usize) {
        let entry = self.heap[start];
        let end = self.heap.len();
        let mut pos = start;
        let mut child = 2 * pos + 1;
        while child + 1 < end {
            if self.heap[child + 1].before(&self.heap[child]) {
                child += 1;
            }
            self.place(pos, self.heap[child]);
            pos = child;
            child = 2 * pos + 1;
        }
        if child < end {
            self.place(pos, self.heap[child]);
            pos = child;
        }
        // The climb back, bounded by `start`. Written out rather than
        // calling `sift_up`: the call measured ~3% slower on `paper-grid`.
        while pos > start {
            let parent = (pos - 1) / 2;
            if !entry.before(&self.heap[parent]) {
                break;
            }
            self.place(pos, self.heap[parent]);
            pos = parent;
        }
        self.place(pos, entry);
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.heap.len())
            .field("slots", &self.slots.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let h1 = q.push(t(10), 1);
        let h2 = q.push(t(20), 2);
        assert_eq!(q.len(), 2);
        assert!(q.cancel(h1));
        assert!(!q.cancel(h1), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert!(!q.cancel(h2), "cancelling a fired event reports false");
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.push(t(10), 1);
        q.push(t(20), 2);
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(t(20)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn bogus_handle_is_rejected() {
        let mut q = EventQueue::<u32>::new();
        let h = q.push(t(1), 7);
        let mut other = EventQueue::<u32>::new();
        // A handle minted by a different queue for a slot this queue has
        // never allocated is inert.
        for _ in 0..3 {
            other.push(t(1), 0);
        }
        let foreign = other.push(t(1), 0);
        assert!(!q.cancel(foreign));
        assert!(q.cancel(h));
    }

    #[test]
    fn stale_handle_to_reused_slot_is_inert() {
        let mut q = EventQueue::new();
        let h1 = q.push(t(10), 1);
        assert!(q.cancel(h1));
        // The push reuses h1's slot under a newer generation.
        let h2 = q.push(t(20), 2);
        assert!(
            !q.cancel(h1),
            "stale generation must not cancel the slot's new occupant"
        );
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert!(!q.cancel(h2));
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(t(10), "a");
        let (time, e) = q.pop().expect("event pending");
        assert_eq!((time, e), (t(10), "a"));
        q.push(time + SimDuration::from_micros(5), "b");
        q.push(time + SimDuration::from_micros(1), "c");
        assert_eq!(q.pop().map(|(_, e)| e), Some("c"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    fn trailing_events_pop_after_ordinary_events_at_same_instant() {
        let mut q = EventQueue::new();
        // Trailing event scheduled FIRST still pops after ordinary events
        // at its instant — even ones scheduled later.
        q.push_trailing(t(100), t(0), "trailing");
        q.push(t(100), "ordinary-1");
        q.push(t(100), "ordinary-2");
        q.push(t(50), "earlier");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec!["earlier", "ordinary-1", "ordinary-2", "trailing"]
        );
    }

    #[test]
    fn trailing_events_order_by_recency_then_fifo() {
        let mut q = EventQueue::new();
        // Same firing instant, different scheduling instants: the most
        // recently scheduled trailing event pops first.
        q.push_trailing(t(100), t(10), "old");
        q.push_trailing(t(100), t(40), "new");
        // Same scheduling instant: FIFO.
        q.push_trailing(t(100), t(40), "new-2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["new", "new-2", "old"]);
    }

    #[test]
    fn trailing_events_cancel_like_ordinary_ones() {
        let mut q = EventQueue::new();
        let h = q.push_trailing(t(100), t(0), 1);
        q.push(t(100), 2);
        assert!(q.cancel(h));
        assert!(!q.cancel(h));
        assert_eq!(q.pop(), Some((t(100), 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn trailing_keeps_time_order_across_instants() {
        let mut q = EventQueue::new();
        q.push_trailing(t(10), t(0), "t10");
        q.push(t(20), "o20");
        // A trailing event at an earlier instant still precedes ordinary
        // events at later instants.
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["t10", "o20"]);
    }

    #[test]
    fn mass_cancel_of_fired_handles_leaves_no_tombstones() {
        // Regression: a timer-heavy MAC retires millions of handles whose
        // events have already fired. Every such cancel must be a no-op
        // that stores nothing — the queue's footprint stays at the slab
        // high-water mark, not the cancel count.
        let mut q = EventQueue::new();
        let mut fired = Vec::new();
        for i in 0..4u64 {
            fired.push(q.push(t(i), i));
        }
        while q.pop().is_some() {}
        for _ in 0..250_000 {
            for &h in &fired {
                assert!(!q.cancel(h), "fired handle must stay inert");
            }
        }
        // One million dead cancels later: no tombstones anywhere.
        assert!(q.heap.is_empty());
        assert_eq!(q.free.len(), q.slots.len());
        assert!(q.slots.len() <= 4, "slab never grew past the live peak");
        // And the queue still schedules and cancels normally.
        let h = q.push(t(100), 42);
        assert_eq!(q.len(), 1);
        assert!(q.cancel(h));
        assert!(q.is_empty());
        // Live timers cancelled or re-armed before they fire leave no
        // entry behind either: the heap never outgrows the live set.
        let keep = q.push(t(1_000), 0);
        for i in 0..100_000u64 {
            let h = q.push(t(200 + i % 7), i);
            assert!(q.rearm(keep, t(1_000 + i)));
            assert!(q.cancel(h));
            assert_eq!(q.heap.len(), 1);
        }
        assert!(q.slots.len() <= 4, "slab never grew past the live peak");
        assert_eq!(q.pop(), Some((t(100_999), 0)));
    }

    /// Checks every structural invariant of the indexed heap: one entry
    /// per live slot, each slot pointing at its entry, heap order, and
    /// `len()` equal to the heap's length.
    fn assert_consistent<E>(q: &EventQueue<E>) {
        assert_eq!(q.heap.len(), q.len());
        assert_eq!(q.heap.len() + q.free.len(), q.slots.len());
        for (i, e) in q.heap.iter().enumerate() {
            let s = &q.slots[e.slot as usize];
            assert!(s.event.is_some(), "heap entry {i} points at a vacated slot");
            assert_eq!(s.pos as usize, i, "slot {} lost its heap position", e.slot);
            if i > 0 {
                assert!(!e.before(&q.heap[(i - 1) / 2]), "heap order broken at {i}");
            }
        }
        for &f in &q.free {
            assert!(q.slots[f as usize].event.is_none());
        }
    }

    #[test]
    fn heap_holds_exactly_the_live_events_after_every_operation() {
        let mut rng = crate::SimRng::from_seed(0x0E0E_0001);
        let mut q = EventQueue::new();
        let mut handles: Vec<EventHandle> = Vec::new();
        for step in 0..20_000u32 {
            let at = t(rng.gen_range_u32(0, 64) as u64);
            let pick = |rng: &mut crate::SimRng, hs: &[EventHandle]| {
                hs[rng.gen_range_u32(0, hs.len() as u32) as usize]
            };
            match rng.gen_range_u32(0, 7) {
                0 | 1 => handles.push(q.push(at, step)),
                2 => handles.push(q.push_trailing(at, t(rng.gen_range_u32(0, 64) as u64), step)),
                3 if !handles.is_empty() => {
                    q.cancel(pick(&mut rng, &handles));
                }
                4 if !handles.is_empty() => {
                    q.rearm(pick(&mut rng, &handles), at);
                }
                5 if !handles.is_empty() => {
                    q.rearm_trailing(pick(&mut rng, &handles), at, t(0));
                }
                _ => {
                    q.pop();
                }
            }
            assert_consistent(&q);
            assert_eq!(q.peek_time(), q.heap.iter().map(|e| e.time).min());
        }
    }

    #[test]
    fn rearm_moves_a_pending_event_and_keeps_its_handle() {
        let mut q = EventQueue::new();
        let h = q.push(t(10), "timer");
        q.push(t(20), "other");
        assert!(q.rearm(h, t(30)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(20), "other")));
        assert!(q.rearm(h, t(25)), "the handle survives its own re-arm");
        assert_eq!(q.pop(), Some((t(25), "timer")));
        assert!(!q.rearm(h, t(40)), "a fired event cannot be re-armed");
        let h2 = q.push(t(50), "cancelled");
        assert!(q.cancel(h2));
        assert!(!q.rearm(h2, t(60)), "a cancelled event cannot be re-armed");
        assert!(q.is_empty());
    }

    #[test]
    fn rearm_orders_like_cancel_then_push() {
        // A re-armed event follows every event already scheduled for its
        // new instant, exactly as a fresh push would.
        let mut q = EventQueue::new();
        let h = q.push(t(5), "rearmed");
        q.push(t(10), "first");
        q.push(t(10), "second");
        assert!(q.rearm(h, t(10)));
        q.push(t(10), "later");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["first", "second", "rearmed", "later"]);
    }

    #[test]
    fn trailing_rearm_takes_its_rank_from_the_new_scheduling_instant() {
        let mut q = EventQueue::new();
        let h = q.push_trailing(t(100), t(50), "rearmed");
        q.push_trailing(t(100), t(40), "older");
        q.push(t(100), "ordinary");
        // Re-armed from instant 30: now older than "older".
        assert!(q.rearm_trailing(h, t(100), t(30)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["ordinary", "older", "rearmed"]);
        // And an ordinary re-arm leaves the trailing class: the event
        // now pops before an ordinary one scheduled after it.
        let h = q.push_trailing(t(200), t(0), "was trailing");
        assert!(q.rearm(h, t(200)));
        q.push(t(200), "ordinary");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["was trailing", "ordinary"]);
    }
}
