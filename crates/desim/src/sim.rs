//! The simulator: a clock plus the pending-event set.
//!
//! `Simulator` deliberately owns *no* model state. The world (nodes, medium,
//! flows) lives outside and drives the loop:
//!
//! ```text
//! while let Some((t, ev)) = sim.pop() {
//!     world.handle(&mut sim, ev);   // may schedule/cancel more events
//! }
//! ```
//!
//! This inversion avoids the borrow cycle of callback-owning schedulers and
//! keeps the dispatch explicit and easy to trace.

use crate::queue::{EventHandle, EventQueue};
use crate::time::{SimDuration, SimTime};

/// A discrete-event simulator: monotonic clock + cancellable event queue.
///
/// # Example
///
/// ```
/// use desim::{SimDuration, Simulator};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Tick(u32) }
///
/// let mut sim = Simulator::new();
/// sim.schedule_in(SimDuration::from_millis(1), Ev::Tick(1));
/// let mut fired = Vec::new();
/// while let Some((_, ev)) = sim.pop() {
///     fired.push(ev);
/// }
/// assert_eq!(fired, vec![Ev::Tick(1)]);
/// ```
#[derive(Debug)]
pub struct Simulator<E> {
    now: SimTime,
    queue: EventQueue<E>,
    popped: u64,
}

impl<E> Simulator<E> {
    /// Creates a simulator with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            popped: 0,
        }
    }

    /// The current simulation time. Advances only inside [`Simulator::pop`].
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock — scheduling into
    /// the past is always a model bug and silently reordering it would
    /// corrupt causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventHandle {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < now {}",
            self.now
        );
        self.queue.push(at, event)
    }

    /// Schedules `event` after the relative delay `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventHandle {
        let at = self.now + delay;
        self.queue.push(at, event)
    }

    /// Schedules `event` at the current instant (after all events already
    /// scheduled for this instant).
    pub fn schedule_now(&mut self, event: E) -> EventHandle {
        self.queue.push(self.now, event)
    }

    /// Schedules `event` after `delay` in the **trailing class**: at its
    /// firing instant it pops after every ordinary event, and among
    /// trailing events the most recently scheduled pops first (see
    /// [`EventQueue::push_trailing`]). Used to coalesce per-tick timer
    /// chains into one event without perturbing same-instant ordering.
    pub fn schedule_in_trailing(&mut self, delay: SimDuration, event: E) -> EventHandle {
        let at = self.now + delay;
        self.queue.push_trailing(at, self.now, event)
    }

    /// Moves the pending event behind `handle` to `delay` from now,
    /// keeping its payload and handle: it pops exactly where cancelling
    /// it and scheduling its payload anew with
    /// [`Simulator::schedule_in`] would put it (see
    /// [`EventQueue::rearm`]). Returns `false`, and changes nothing, if
    /// the event already fired or was cancelled.
    pub fn rearm_in(&mut self, handle: EventHandle, delay: SimDuration) -> bool {
        let at = self.now + delay;
        self.queue.rearm(handle, at)
    }

    /// Like [`Simulator::rearm_in`], but into the trailing class, with
    /// the current instant as the new scheduling instant: the
    /// re-armed event orders as one freshly scheduled with
    /// [`Simulator::schedule_in_trailing`] would.
    pub fn rearm_in_trailing(&mut self, handle: EventHandle, delay: SimDuration) -> bool {
        let at = self.now + delay;
        self.queue.rearm_trailing(handle, at, self.now)
    }

    /// Pre-sizes the pending-event set for at least `capacity` events
    /// (see [`EventQueue::reserve`]).
    pub fn reserve(&mut self, capacity: usize) {
        self.queue.reserve(capacity);
    }

    /// Cancels a pending event. Returns `true` if it was still pending.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.queue.cancel(handle)
    }

    /// Removes the earliest event, advancing the clock to its time.
    ///
    /// Returns `None` when no live events remain.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (time, event) = self.queue.pop()?;
        debug_assert!(time >= self.now, "event queue yielded a past event");
        self.now = time;
        self.popped += 1;
        Some((time, event))
    }

    /// The time of the next pending event, if any, without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of live pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// True if no live events are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total number of events dispatched so far (a cheap progress/loop
    /// diagnostic for callers).
    pub fn events_dispatched(&self) -> u64 {
        self.popped
    }

    /// The queue-depth high-water mark: the largest number of live events
    /// ever pending at once over the simulator's lifetime.
    pub fn queue_high_water(&self) -> usize {
        self.queue.high_water()
    }
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Simulator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_to_event_times() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_micros(42), "x");
        assert_eq!(sim.now(), SimTime::ZERO);
        let (t, _) = sim.pop().expect("event pending");
        assert_eq!(t, SimTime::from_micros(42));
        assert_eq!(sim.now(), t);
        assert_eq!(sim.events_dispatched(), 1);
    }

    #[test]
    fn relative_scheduling_uses_current_time() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_micros(10), "first");
        sim.pop();
        sim.schedule_in(SimDuration::from_micros(5), "second");
        let (t, _) = sim.pop().expect("event pending");
        assert_eq!(t, SimTime::from_micros(15));
    }

    #[test]
    fn schedule_now_runs_after_earlier_same_instant_events() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_micros(10), 1);
        sim.schedule_at(SimTime::from_micros(10), 2);
        let (_, first) = sim.pop().expect("event");
        assert_eq!(first, 1);
        sim.schedule_now(3);
        assert_eq!(sim.pop().map(|(_, e)| e), Some(2));
        assert_eq!(sim.pop().map(|(_, e)| e), Some(3));
    }

    #[test]
    fn trailing_events_fire_after_ordinary_same_instant_events() {
        let mut sim = Simulator::new();
        sim.schedule_in_trailing(SimDuration::from_micros(10), "trailing");
        sim.schedule_at(SimTime::from_micros(10), "ordinary");
        assert_eq!(sim.pop().map(|(_, e)| e), Some("ordinary"));
        let (t, e) = sim.pop().expect("trailing event");
        assert_eq!((t, e), (SimTime::from_micros(10), "trailing"));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_micros(10), ());
        sim.pop();
        sim.schedule_at(SimTime::from_micros(5), ());
    }

    #[test]
    fn rearmed_events_fire_at_their_new_time() {
        let mut sim = Simulator::new();
        let h = sim.schedule_in(SimDuration::from_micros(1), "timer");
        sim.schedule_in(SimDuration::from_micros(2), "work");
        assert!(sim.rearm_in(h, SimDuration::from_micros(3)));
        assert_eq!(sim.pop(), Some((SimTime::from_micros(2), "work")));
        assert!(sim.rearm_in_trailing(h, SimDuration::from_micros(1)));
        sim.schedule_in(SimDuration::from_micros(1), "ordinary");
        assert_eq!(sim.pop().map(|(_, e)| e), Some("ordinary"));
        assert_eq!(sim.pop(), Some((SimTime::from_micros(3), "timer")));
        assert!(!sim.rearm_in(h, SimDuration::from_micros(1)), "fired");
        assert!(sim.is_idle());
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut sim = Simulator::new();
        let h = sim.schedule_in(SimDuration::from_micros(1), "timeout");
        sim.schedule_in(SimDuration::from_micros(2), "work");
        assert!(sim.cancel(h));
        assert_eq!(sim.pop().map(|(_, e)| e), Some("work"));
        assert!(sim.is_idle());
        assert_eq!(sim.pending(), 0);
    }
}
