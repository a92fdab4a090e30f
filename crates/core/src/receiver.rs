//! The receiver step, and the replay of listeners after dispatch.
//!
//! A delivery has two edges at its receiver: its signal reaches the
//! antenna, and leaves it. Each edge runs through one receiver step,
//! [`receive`] then [`sense_carrier`], whether the event loop dispatches
//! it or [`Replay`] runs it for a listener after dispatch, so the two
//! paths cannot drift apart.
//!
//! A **listener** is a silent station that is not deaf (see
//! [`Medium::listeners`]): it hears frames, yet never transmits, so its
//! MAC has nothing to contend for and arms no timer. Its PHY and MAC
//! state is then a function of the frames it hears alone, and it feeds
//! back into nothing but its own report row. So an untraced world leaves
//! listeners out of the event loop. It logs each signal event of a
//! transmission that reaches listeners, in dispatch order, and replays
//! the log listener by listener (see ARCHITECTURE.md, "Participants and
//! listeners").

use desim::{Probe, SimTime};
use dot11_mac::{MacAction, MacFrame};
use dot11_net::Packet;
use dot11_phy::{Dbm, Medium, NodeId, RxOutcomeKind, TxId, TxSignal};
use dot11_trace::{RxErrorCause, TraceRecord, TraceSink};

use crate::node::Node;
use crate::world::{frame_class, node_of, SCOPE_ARRIVAL_SCAN, SCOPE_BER_EVAL, SCOPE_SCATTER};

/// Listener edges a log holds at most before it is replayed (unless one
/// transmission alone reaches more listeners). A constant, so the log and
/// its buckets stay a few hundred kilobytes on any run.
const REPLAY_CHUNK: usize = 16_384;

/// One edge of one delivery at its receiver.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Edge<'a> {
    /// The signal reaches the antenna.
    Start(&'a TxSignal),
    /// Transmission `tx_id`, which carries `frame`, leaves the antenna.
    End {
        /// The transmission.
        tx_id: TxId,
        /// Its frame, handed to the MAC if the receiver decodes it.
        frame: &'a MacFrame<Packet>,
    },
}

/// The receiver step's first half: runs `edge` through `node`'s PHY at
/// `now` and, when a locked frame ends, hands the outcome to its MAC,
/// which pushes its actions onto `actions`. The caller applies them
/// before [`sense_carrier`], the step's second half: a decoded frame's
/// actions (a delivery, a queued response) must reach the MAC before the
/// carrier-sense edge the frame's end causes. Charges the PHY work to the
/// arrival-scan and BER-evaluation phase scopes.
#[inline]
pub(crate) fn receive<S: TraceSink, P: Probe>(
    node: &mut Node<S>,
    edge: Edge<'_>,
    now: SimTime,
    sink: &mut S,
    probe: &mut P,
    actions: &mut Vec<MacAction<Packet>>,
) {
    let (tx_id, frame) = match edge {
        Edge::Start(signal) => {
            let tick = probe.tick();
            node.phy.signal_start(signal, now);
            probe.record(SCOPE_ARRIVAL_SCAN, tick);
            return;
        }
        Edge::End { tx_id, frame } => (tx_id, frame),
    };
    // `signal_end` is where interference integration and BER evaluation
    // happen — the per-receiver decode cost.
    let tick = probe.tick();
    let outcome = node.phy.signal_end(tx_id, now);
    probe.record(SCOPE_BER_EVAL, tick);
    let Some(out) = outcome else {
        return;
    };
    match out.kind {
        RxOutcomeKind::Decoded => {
            if S::ENABLED {
                sink.record(
                    now,
                    &TraceRecord::FrameRxOk {
                        node: node.id.0,
                        src: frame.src.0,
                        kind: frame_class(frame.kind),
                        bytes: frame.mpdu_bytes,
                    },
                );
            }
            node.mac.on_rx_frame(frame.clone(), now, actions);
        }
        RxOutcomeKind::BodyError | RxOutcomeKind::HeaderError => {
            if S::ENABLED {
                let cause = if matches!(out.kind, RxOutcomeKind::BodyError) {
                    RxErrorCause::Body
                } else {
                    RxErrorCause::Header
                };
                sink.record(
                    now,
                    &TraceRecord::FrameRxErr {
                        node: node.id.0,
                        cause,
                    },
                );
            }
            node.mac.on_rx_error(now, actions);
        }
    }
}

/// The receiver step's second half, also run after a station's own
/// transmission starts or ends: reports a carrier-sense edge to the MAC,
/// which pushes its actions onto `actions`.
#[inline]
pub(crate) fn sense_carrier<S: TraceSink>(
    node: &mut Node<S>,
    now: SimTime,
    actions: &mut Vec<MacAction<Packet>>,
) {
    let busy = node.phy.carrier_busy();
    if busy != node.cs_reported {
        node.cs_reported = busy;
        if busy {
            node.mac.on_channel_busy(now, actions);
        } else {
            node.mac.on_channel_idle(now, actions);
        }
    }
}

/// A dispatched signal event of a transmission that reaches listeners.
#[derive(Debug)]
struct Logged {
    /// The signal as every listener sees it but for its power. A start
    /// happens at its `starts_at`, an end at its `ends_at`.
    signal: TxSignal,
    edge: LoggedEdge,
}

#[derive(Debug)]
enum LoggedEdge {
    /// Each listener's power is sampled at `launched` with `tx_power`.
    Start { launched: SimTime, tx_power: Dbm },
    /// The transmission's frame is `frames[frame]`.
    End { frame: u32 },
}

/// The listener log and its replay buffers, all reused from chunk to
/// chunk: after the first chunk, logging and replay allocate nothing.
#[derive(Debug)]
pub(crate) struct Replay {
    /// Logged signal events since the last replay, in dispatch order.
    log: Vec<Logged>,
    /// The frames of the logged ends.
    frames: Vec<MacFrame<Packet>>,
    /// Listener edges the log holds: each record counts once per
    /// listener it reaches.
    pending: usize,
    /// Bucket bounds: node `k`'s entries are `at[starts[k]..starts[k + 1]]`
    /// (one slot per node index, plus one).
    starts: Vec<u32>,
    /// Fill position of each node's bucket while the log is sampled.
    cursor: Vec<u32>,
    /// Each bucket entry's log record, and (for a start) its power.
    at: Vec<u32>,
    power: Vec<Dbm>,
    /// One step's MAC actions.
    actions: Vec<MacAction<Packet>>,
    /// Listener edges (signal starts and ends) replayed so far.
    pub(crate) replayed: u64,
}

impl Replay {
    /// An empty log; nothing is allocated until a transmission reaches a
    /// listener.
    pub(crate) fn new() -> Replay {
        Replay {
            log: Vec::new(),
            frames: Vec::new(),
            pending: 0,
            starts: Vec::new(),
            cursor: Vec::new(),
            at: Vec::new(),
            power: Vec::new(),
            actions: Vec::new(),
            replayed: 0,
        }
    }

    /// Whether logging an event that reaches `listeners` listeners would
    /// overfill the chunk: the log must be replayed first.
    pub(crate) fn is_full_for(&self, listeners: usize) -> bool {
        self.pending > 0 && self.pending + listeners > REPLAY_CHUNK
    }

    /// Logs a signal start that reaches `listeners` listeners.
    pub(crate) fn log_start(
        &mut self,
        signal: TxSignal,
        launched: SimTime,
        tx_power: Dbm,
        listeners: usize,
    ) {
        let edge = LoggedEdge::Start { launched, tx_power };
        self.push(Logged { signal, edge }, listeners);
    }

    /// Logs a signal end that reaches `listeners` listeners.
    pub(crate) fn log_end(&mut self, signal: TxSignal, frame: MacFrame<Packet>, listeners: usize) {
        let edge = LoggedEdge::End {
            frame: self.frames.len() as u32,
        };
        self.frames.push(frame);
        self.push(Logged { signal, edge }, listeners);
    }

    fn push(&mut self, record: Logged, listeners: usize) {
        if self.log.capacity() == 0 {
            // Each record reaches a listener, so a chunk holds at most
            // `REPLAY_CHUNK` records (and frames).
            self.log.reserve_exact(REPLAY_CHUNK);
            self.frames.reserve_exact(REPLAY_CHUNK);
            self.at.reserve_exact(REPLAY_CHUNK);
            self.power.reserve_exact(REPLAY_CHUNK);
            self.actions.reserve(8);
        }
        self.log.push(record);
        self.pending += listeners;
    }

    /// Replays the log into the listeners' nodes and empties it.
    ///
    /// Phase 1 goes record by record, in dispatch order: it samples each
    /// start's listener powers (at the launch instant, through
    /// [`Medium::sample_listeners`], so each link's samples keep their
    /// order) and files every listener edge into its receiver's
    /// bucket. Phase 2 goes listener by listener, in station order, and
    /// walks each bucket through the receiver step, so one node stays hot
    /// while its share of the chunk replays. A listener's bucket holds
    /// its edges in dispatch order, which is what fixes same-instant
    /// ties, and nothing else touches its node, so the replay reproduces
    /// the event loop's calls bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if a listener's MAC asks for anything but cancelling a
    /// timer (which, never having armed one, is a no-op for it): the
    /// world could not apply it after the fact.
    pub(crate) fn flush<S: TraceSink, P: Probe>(
        &mut self,
        medium: &mut Medium,
        nodes: &mut [Node<S>],
        station_nodes: &[u32],
        sink: &mut S,
        probe: &mut P,
    ) {
        if self.log.is_empty() {
            return;
        }
        let Replay {
            log,
            frames,
            starts,
            cursor,
            at,
            power,
            actions,
            ..
        } = self;
        let tick = probe.tick();
        starts.clear();
        starts.resize(nodes.len() + 1, 0);
        for record in log.iter() {
            for &rx in medium.listeners(record.signal.source) {
                starts[node_of(station_nodes, rx) + 1] += 1;
            }
        }
        for k in 1..starts.len() {
            starts[k] += starts[k - 1];
        }
        let total = starts[nodes.len()] as usize;
        cursor.clear();
        cursor.extend_from_slice(&starts[..nodes.len()]);
        at.clear();
        at.resize(total, 0);
        power.clear();
        power.resize(total, Dbm(f64::NAN));
        for (i, record) in log.iter().enumerate() {
            let mut file = |rx: NodeId, p: Dbm| {
                let k = node_of(station_nodes, rx);
                let slot = cursor[k] as usize;
                cursor[k] += 1;
                at[slot] = i as u32;
                power[slot] = p;
            };
            let source = record.signal.source;
            match record.edge {
                LoggedEdge::Start { launched, tx_power } => {
                    medium.sample_listeners(source, tx_power, launched, file)
                }
                LoggedEdge::End { .. } => {
                    for &rx in medium.listeners(source) {
                        file(rx, Dbm(f64::NAN));
                    }
                }
            }
        }
        probe.record(SCOPE_SCATTER, tick);
        for (k, node) in nodes.iter_mut().enumerate() {
            for e in starts[k] as usize..starts[k + 1] as usize {
                let Logged { signal, edge } = &log[at[e] as usize];
                match *edge {
                    LoggedEdge::Start { .. } => {
                        let signal = TxSignal {
                            rx_power: power[e],
                            ..*signal
                        };
                        let now = signal.starts_at;
                        receive(node, Edge::Start(&signal), now, sink, probe, actions);
                        listener_step_done(node, now, actions);
                    }
                    LoggedEdge::End { frame } => {
                        let edge = Edge::End {
                            tx_id: signal.tx_id,
                            frame: &frames[frame as usize],
                        };
                        receive(node, edge, signal.ends_at, sink, probe, actions);
                        listener_step_done(node, signal.ends_at, actions);
                    }
                }
            }
        }
        self.replayed += total as u64;
        self.log.clear();
        self.frames.clear();
        self.pending = 0;
    }
}

/// Checks a listener's first-half actions, runs the step's second half
/// and checks its actions: a listener may only cancel timers, which it
/// never armed. Checked in release builds too.
#[inline]
fn listener_step_done<S: TraceSink>(
    node: &mut Node<S>,
    now: SimTime,
    actions: &mut Vec<MacAction<Packet>>,
) {
    assert_cancels_only(node.id, actions);
    sense_carrier(node, now, actions);
    assert_cancels_only(node.id, actions);
}

#[inline]
fn assert_cancels_only(listener: NodeId, actions: &mut Vec<MacAction<Packet>>) {
    if actions.is_empty() {
        return;
    }
    for action in actions.drain(..) {
        assert!(
            matches!(action, MacAction::CancelTimer { .. }),
            "listener {} asked for {action:?}; a station outside the transmitter \
             set may only cancel timers, or listener replay would be unsound",
            listener.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;
    use dot11_mac::TimerKind;

    #[test]
    fn a_listener_may_cancel_timers() {
        let mut actions = vec![MacAction::CancelTimer {
            kind: TimerKind::NavEnd,
        }];
        assert_cancels_only(NodeId(7), &mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    #[should_panic(expected = "listener 7 asked for StartTimer")]
    fn a_listener_arming_a_timer_panics() {
        let mut actions = vec![MacAction::StartTimer {
            kind: TimerKind::NavEnd,
            delay: SimDuration::from_micros(10),
        }];
        assert_cancels_only(NodeId(7), &mut actions);
    }
}
