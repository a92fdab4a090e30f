//! Randomized-input tests for the event-queue and time invariants.
//!
//! Formerly proptest-based; the container build has no network access to
//! fetch crates, so cases are now generated from the crate's own `SimRng`.
//! The inputs are a fixed pseudo-random sample per test binary run —
//! deterministic, so failures reproduce exactly.

use desim::{EventHandle, EventQueue, SimDuration, SimRng, SimTime, Simulator};

/// Popping always yields events in non-decreasing time order, with FIFO
/// order among equal times, regardless of the push order.
#[test]
fn queue_pops_sorted_stable() {
    let mut rng = SimRng::from_seed(0xDE51_0001);
    for case in 0..64u32 {
        let len = rng.gen_range_u32(1, 200) as usize;
        let times: Vec<u64> = (0..len)
            .map(|_| rng.gen_range_u32(0, 1_000) as u64)
            .collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            assert_eq!(at, SimTime::from_micros(t));
            if let Some((lt, li)) = last {
                assert!(
                    t > lt || (t == lt && i > li),
                    "case {case}: order violated: ({lt},{li}) then ({t},{i})"
                );
            }
            last = Some((t, i));
        }
        assert!(q.is_empty());
    }
}

/// Cancelling an arbitrary subset removes exactly that subset.
#[test]
fn queue_cancellation_exact() {
    let mut rng = SimRng::from_seed(0xDE51_0002);
    for case in 0..64u32 {
        let len = rng.gen_range_u32(1, 100) as usize;
        let times: Vec<u64> = (0..len).map(|_| rng.gen_range_u32(0, 100) as u64).collect();
        let mask: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.5)).collect();
        let mut q = EventQueue::new();
        let handles: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.push(SimTime::from_micros(t), i)))
            .collect();
        let mut kept = Vec::new();
        for (i, h) in &handles {
            if mask[*i] {
                assert!(q.cancel(*h), "case {case}: first cancel succeeds");
                assert!(!q.cancel(*h), "case {case}: double cancel reports false");
            } else {
                kept.push(*i);
            }
        }
        assert_eq!(q.len(), kept.len(), "case {case}");
        let mut popped: Vec<usize> = Vec::new();
        while let Some((_, i)) = q.pop() {
            popped.push(i);
        }
        popped.sort_unstable();
        kept.sort_unstable();
        assert_eq!(popped, kept, "case {case}");
    }
}

/// One pending event of [`ModelQueue`]: its handle, its full ordering
/// key and its payload.
struct ModelEntry {
    handle: EventHandle,
    key: (SimTime, u8, u64, u64),
    payload: u32,
}

/// The reference model of [`EventQueue`]: an unordered list of the
/// pending events, popped by a linear scan for the least
/// `(time, class, rank, seq)` key. Ordinary events have class 0 and
/// rank 0; trailing events class 1 and the complement of their
/// scheduling instant; every push and re-arm draws the next `seq`.
#[derive(Default)]
struct ModelQueue {
    live: Vec<ModelEntry>,
    next_seq: u64,
    high_water: usize,
}

impl ModelQueue {
    fn draw_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn push(&mut self, handle: EventHandle, time: SimTime, class: u8, rank: u64, payload: u32) {
        let seq = self.draw_seq();
        self.live.push(ModelEntry {
            handle,
            key: (time, class, rank, seq),
            payload,
        });
        self.high_water = self.high_water.max(self.live.len());
    }

    fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.live.iter().position(|e| e.handle == handle) {
            Some(i) => {
                self.live.swap_remove(i);
                true
            }
            None => false,
        }
    }

    fn rearm(&mut self, handle: EventHandle, time: SimTime, class: u8, rank: u64) -> bool {
        match self.live.iter().position(|e| e.handle == handle) {
            Some(i) => {
                let seq = self.draw_seq();
                self.live[i].key = (time, class, rank, seq);
                true
            }
            None => false,
        }
    }

    fn earliest(&self) -> Option<usize> {
        (0..self.live.len()).min_by_key(|&i| self.live[i].key)
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let e = self.live.swap_remove(self.earliest()?);
        Some((e.key.0, e.payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(|i| self.live[i].key.0)
    }
}

/// The queue agrees with its reference model over random interleavings
/// of push, trailing push, cancel, re-arm (ordinary and trailing), pop
/// and peek: the same pops in the same order, the same return from
/// every cancel and re-arm, and the same `len` and `high_water` after
/// every operation. Cancels and re-arms pick from every handle ever
/// issued, so they hit live events, fired ones, cancelled ones and
/// handles whose slot has since been reused. Times come from a small
/// range so that equal instants, and so the class, rank and `seq`
/// tie-breaks, are common.
#[test]
fn queue_matches_reference_model() {
    let mut rng = SimRng::from_seed(0xDE51_0007);
    for case in 0..200u32 {
        let mut q = EventQueue::new();
        let mut model = ModelQueue::default();
        let mut handles: Vec<EventHandle> = Vec::new();
        let ops = rng.gen_range_u32(1, 600);
        let span = rng.gen_range_u32(1, 64) as u64;
        for op in 0..ops {
            let time = SimTime::from_micros(rng.gen_range_u32(0, span as u32 + 1) as u64);
            let scheduled_at = SimTime::from_micros(rng.gen_range_u32(0, span as u32 + 1) as u64);
            let trailing_rank = !scheduled_at.as_nanos();
            let roll = rng.gen_range_u32(0, 100);
            let target = if handles.is_empty() {
                None
            } else {
                Some(handles[rng.gen_range_u32(0, handles.len() as u32) as usize])
            };
            match (roll, target) {
                (0..=29, _) | (30..=64, None) => {
                    let h = q.push(time, op);
                    model.push(h, time, 0, 0, op);
                    handles.push(h);
                }
                (30..=44, Some(_)) => {
                    let h = q.push_trailing(time, scheduled_at, op);
                    model.push(h, time, 1, trailing_rank, op);
                    handles.push(h);
                }
                (45..=56, Some(h)) => {
                    assert_eq!(q.cancel(h), model.cancel(h), "case {case} op {op}: cancel");
                }
                (57..=60, Some(h)) => {
                    assert_eq!(
                        q.rearm(h, time),
                        model.rearm(h, time, 0, 0),
                        "case {case} op {op}: rearm"
                    );
                }
                (61..=64, Some(h)) => {
                    assert_eq!(
                        q.rearm_trailing(h, time, scheduled_at),
                        model.rearm(h, time, 1, trailing_rank),
                        "case {case} op {op}: rearm_trailing"
                    );
                }
                (65..=89, _) => {
                    assert_eq!(q.pop(), model.pop(), "case {case} op {op}: pop");
                }
                _ => {
                    assert_eq!(
                        q.peek_time(),
                        model.peek_time(),
                        "case {case} op {op}: peek"
                    );
                }
            }
            assert_eq!(q.len(), model.live.len(), "case {case} op {op}: len");
            assert_eq!(q.is_empty(), model.live.is_empty(), "case {case} op {op}");
            assert_eq!(
                q.high_water(),
                model.high_water,
                "case {case} op {op}: high water"
            );
        }
        while let Some(popped) = model.pop() {
            assert_eq!(q.pop(), Some(popped), "case {case}: drain");
        }
        assert_eq!(q.pop(), None, "case {case}: drained");
    }
}

/// The simulator clock is monotone over any schedule of relative delays.
#[test]
fn simulator_clock_monotone() {
    let mut rng = SimRng::from_seed(0xDE51_0003);
    for case in 0..64u32 {
        let len = rng.gen_range_u32(1, 100) as usize;
        let delays: Vec<u64> = (0..len)
            .map(|_| rng.gen_range_u32(0, 10_000) as u64)
            .collect();
        let mut sim = Simulator::new();
        for &d in &delays {
            sim.schedule_in(SimDuration::from_nanos(d), d);
        }
        let mut prev = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = sim.pop() {
            assert!(t >= prev, "case {case}: clock went backwards");
            prev = t;
            count += 1;
        }
        assert_eq!(count, delays.len());
        assert_eq!(sim.events_dispatched(), delays.len() as u64);
    }
}

/// Time arithmetic: (t + d) - t == d and ordering is consistent.
#[test]
fn time_arithmetic_roundtrip() {
    let mut rng = SimRng::from_seed(0xDE51_0004);
    for _ in 0..1000 {
        let base = (rng.gen_f64() * 1e9) as u64;
        let delta = (rng.gen_f64() * 1e9) as u64;
        let t = SimTime::from_nanos(base);
        let d = SimDuration::from_nanos(delta);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        assert!(t + d >= t);
    }
}

/// Duration float conversions round-trip within one nanosecond.
#[test]
fn duration_float_roundtrip() {
    let mut rng = SimRng::from_seed(0xDE51_0005);
    for _ in 0..1000 {
        let ns = (rng.gen_f64() * 1e12) as u64;
        let d = SimDuration::from_nanos(ns);
        let via_f64 = SimDuration::from_secs_f64(d.as_secs_f64());
        let err = via_f64.as_nanos().abs_diff(d.as_nanos());
        // f64 has 53 bits of mantissa; below ~2^53 ns the round trip is
        // exact, and our range stays well below that.
        assert!(err <= 1, "round trip error {err} ns");
    }
}

/// Queue depth high-water mark tracks the maximum live population.
#[test]
fn queue_high_water_tracks_peak() {
    let mut sim = Simulator::new();
    assert_eq!(sim.queue_high_water(), 0);
    for i in 0..10u64 {
        sim.schedule_in(SimDuration::from_micros(i), i);
    }
    assert_eq!(sim.queue_high_water(), 10);
    while sim.pop().is_some() {}
    // Draining does not lower the mark...
    assert_eq!(sim.queue_high_water(), 10);
    // ...and a smaller refill does not raise it.
    for i in 0..3u64 {
        sim.schedule_in(SimDuration::from_micros(i), i);
    }
    assert_eq!(sim.queue_high_water(), 10);
}
