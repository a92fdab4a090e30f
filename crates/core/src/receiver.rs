//! The receiver step, and the replay of listeners on a worker thread.
//!
//! A delivery has two edges at its receiver: its signal reaches the
//! antenna, and leaves it. Each edge runs through one receiver step,
//! [`receive`] then [`sense_carrier`], whether the event loop dispatches
//! it or [`Replay`] runs it for a listener, so the two paths cannot
//! drift apart.
//!
//! A **listener** is a silent station that is not deaf (see
//! [`Medium::listeners`]): it hears frames, yet never transmits, so its
//! MAC has nothing to contend for and arms no timer. Its PHY and MAC
//! state is then a function of the frames it hears alone, and it feeds
//! back into nothing but its own report row. So an untraced world leaves
//! listeners out of the event loop. It logs each signal event of a
//! transmission that reaches listeners, in dispatch order, in chunks of
//! at most [`REPLAY_CHUNK`] listener edges.
//!
//! A full chunk is replayed in two phases. Phase 1 stays on the dispatch
//! thread, because it samples shadowing state the medium owns: it
//! samples the listeners' powers and files every edge into its
//! listener's bucket. Phase 2, each listener's receiver steps, runs on
//! one worker thread per world while the dispatch thread goes on
//! dispatching. The worker gets only the filed chunk and the listeners'
//! nodes, which are untraced (`Node<NullSink>`: only an untraced world
//! replays), and hands both back when it is done. Two chunks rotate
//! between the threads, so the steady state allocates nothing, and
//! [`World::step_until`](crate::world::World::step_until) ends with a
//! drain barrier that takes the nodes back, so reports see every station
//! current. Each link is sampled on the dispatch thread alone, in order,
//! chunks reach the worker one at a time and in order, and each
//! listener's bucket keeps its edges in dispatch order, so the outcome
//! does not depend on how the threads are scheduled (see ARCHITECTURE.md,
//! "Participants and listeners").

use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::JoinHandle;

use desim::{NoProbe, Probe, SimTime};
use dot11_mac::{MacAction, MacFrame};
use dot11_net::Packet;
use dot11_phy::{Dbm, Medium, NodeId, RxOutcomeKind, TxId, TxSignal};
use dot11_trace::{NullSink, RxErrorCause, TraceRecord, TraceSink};

use crate::node::Node;
use crate::world::{
    frame_class, listener_of, SCOPE_ARRIVAL_SCAN, SCOPE_BER_EVAL, SCOPE_REPLAY_WAIT, SCOPE_SCATTER,
};

/// Listener edges a chunk of the log holds at most before it is handed
/// off for replay (unless one transmission alone reaches more
/// listeners). A constant, so the two chunks and their buckets stay a
/// few hundred kilobytes on any run.
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

/// One chunk of the listener log and the buckets phase 1 files it into:
/// all that phase 2 reads besides the listeners' nodes. Its buffers are
/// reused from chunk to chunk.
#[derive(Debug, Default)]
struct Chunk {
    /// Logged signal events, in dispatch order.
    log: Vec<Logged>,
    /// The frames of the logged ends.
    frames: Vec<MacFrame<Packet>>,
    /// Bucket bounds: listener `k`'s entries are `at[starts[k]..starts[k + 1]]`
    /// (one slot per listener, plus one).
    starts: Vec<u32>,
    /// Each bucket entry's log record, and (for a start) its power.
    at: Vec<u32>,
    power: Vec<Dbm>,
}

impl Chunk {
    /// Phase 1, on the dispatch thread: goes record by record, in
    /// dispatch order, samples each start's listener powers (at the
    /// launch instant, through [`Medium::sample_listeners`], so each
    /// link's samples keep their order) and files every listener edge
    /// into its receiver's bucket, a counting sort over listener indices
    /// with `cursor` as the fill positions. Returns the edges filed.
    fn file(
        &mut self,
        medium: &mut Medium,
        station_nodes: &[u32],
        listeners: usize,
        cursor: &mut Vec<u32>,
    ) -> usize {
        let Chunk {
            log,
            starts,
            at,
            power,
            ..
        } = self;
        starts.clear();
        starts.resize(listeners + 1, 0);
        for record in log.iter() {
            for &rx in medium.listeners(record.signal.source) {
                starts[listener_of(station_nodes, rx) + 1] += 1;
            }
        }
        for k in 1..starts.len() {
            starts[k] += starts[k - 1];
        }
        let total = starts[listeners] as usize;
        cursor.clear();
        cursor.extend_from_slice(&starts[..listeners]);
        at.clear();
        at.resize(total, 0);
        power.clear();
        power.resize(total, Dbm(f64::NAN));
        for (i, record) in log.iter().enumerate() {
            let mut file = |rx: NodeId, p: Dbm| {
                let k = listener_of(station_nodes, rx);
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
        total
    }

    /// Phase 2, on the worker: goes listener by listener, in station
    /// order, and walks each bucket through the receiver step, so one
    /// node stays hot while its share of the chunk replays. Then empties
    /// the log for reuse.
    fn replay(&mut self, nodes: &mut [Node<NullSink>], actions: &mut Vec<MacAction<Packet>>) {
        let Chunk {
            log,
            frames,
            starts,
            at,
            power,
        } = self;
        for (k, node) in nodes.iter_mut().enumerate() {
            for e in starts[k] as usize..starts[k + 1] as usize {
                let Logged { signal, edge } = &log[at[e] as usize];
                match *edge {
                    LoggedEdge::Start { .. } => {
                        let signal = TxSignal {
                            rx_power: power[e],
                            ..*signal
                        };
                        listener_step(node, Edge::Start(&signal), signal.starts_at, actions);
                    }
                    LoggedEdge::End { frame } => {
                        let edge = Edge::End {
                            tx_id: signal.tx_id,
                            frame: &frames[frame as usize],
                        };
                        listener_step(node, edge, signal.ends_at, actions);
                    }
                }
            }
        }
        log.clear();
        frames.clear();
    }
}

/// What travels between the dispatch thread and the worker: a chunk and
/// the listeners' nodes, in station order.
#[derive(Debug)]
struct Job {
    chunk: Chunk,
    nodes: Vec<Node<NullSink>>,
}

/// The listener log, its replay buffers and the listeners themselves.
///
/// Two chunks rotate between the dispatch thread and one worker thread.
/// The dispatch thread logs into one; when it is full, phase 1 files it
/// (see [`Chunk::file`]), and the chunk goes to the worker together with
/// the listeners' nodes, while logging carries on into the other chunk.
/// The worker runs phase 2 (see [`Chunk::replay`]) and hands both back.
/// The next hand-off waits for them if the worker is still busy, and
/// [`Replay::drain`] waits for the last one, so between steps the nodes
/// are home and current. After the first two chunks, logging and replay
/// allocate nothing.
#[derive(Debug)]
pub(crate) struct Replay {
    /// The worker, from the first hand-off on. First, so that dropping
    /// the replay joins it before the buffers go.
    worker: Option<Worker>,
    /// The chunk being logged.
    chunk: Chunk,
    /// Listener edges `chunk` holds: each record counts once per
    /// listener it reaches.
    pending: usize,
    /// How many listeners there are: one bucket each.
    listeners: usize,
    /// Fill position of each bucket while phase 1 files a chunk.
    cursor: Vec<u32>,
    /// The listeners' nodes and the spare chunk, unless the worker holds
    /// them.
    home: Option<Job>,
    /// Listener edges (signal starts and ends) handed to replay so far.
    pub(crate) replayed: u64,
}

impl Replay {
    /// An empty log over the listeners' nodes, in station order; nothing
    /// is allocated and no thread started until a transmission reaches a
    /// listener.
    pub(crate) fn new(nodes: Vec<Node<NullSink>>) -> Replay {
        Replay {
            worker: None,
            chunk: Chunk::default(),
            pending: 0,
            listeners: nodes.len(),
            cursor: Vec::new(),
            home: Some(Job {
                chunk: Chunk::default(),
                nodes,
            }),
            replayed: 0,
        }
    }

    /// The listeners' nodes, in station order.
    ///
    /// # Panics
    ///
    /// Panics while the worker holds them: they are home whenever
    /// [`World::step_until`](crate::world::World::step_until) is not
    /// running.
    pub(crate) fn listeners(&self) -> &[Node<NullSink>] {
        &self.home.as_ref().expect(NODES_AWAY).nodes
    }

    /// The listeners' nodes, mutably (see [`Replay::listeners`]).
    pub(crate) fn listeners_mut(&mut self) -> &mut [Node<NullSink>] {
        &mut self.home.as_mut().expect(NODES_AWAY).nodes
    }

    /// Whether logging an event that reaches `listeners` listeners would
    /// overfill the chunk: it must be handed off first.
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
            frame: self.chunk.frames.len() as u32,
        };
        self.chunk.frames.push(frame);
        self.push(Logged { signal, edge }, listeners);
    }

    fn push(&mut self, record: Logged, listeners: usize) {
        let chunk = &mut self.chunk;
        if chunk.log.capacity() == 0 {
            // Each record reaches a listener, so a chunk holds at most
            // `REPLAY_CHUNK` records (and frames).
            chunk.log.reserve_exact(REPLAY_CHUNK);
            chunk.frames.reserve_exact(REPLAY_CHUNK);
            chunk.at.reserve_exact(REPLAY_CHUNK);
            chunk.power.reserve_exact(REPLAY_CHUNK);
        }
        chunk.log.push(record);
        self.pending += listeners;
    }

    /// Files the logged chunk (phase 1) and hands it to the worker with
    /// the listeners' nodes, spawning the worker the first time; logging
    /// carries on into the spare chunk. If the worker still holds the
    /// previous chunk, waits for it first, charging the wait to the
    /// `phase_replay_wait` scope.
    ///
    /// Each link is sampled on this thread alone, in log order, and each
    /// listener's bucket holds its edges in dispatch order, which is
    /// what fixes same-instant ties. Chunks reach the worker one at a
    /// time, in order, and nothing else touches a listener's node, so
    /// the worker makes exactly the PHY and MAC calls the event loop
    /// would have made, with the same arguments and in the same order,
    /// however the two threads are scheduled.
    pub(crate) fn hand_off<P: Probe>(
        &mut self,
        medium: &mut Medium,
        station_nodes: &[u32],
        probe: &mut P,
    ) {
        if self.chunk.log.is_empty() {
            return;
        }
        let tick = probe.tick();
        let filed = self
            .chunk
            .file(medium, station_nodes, self.listeners, &mut self.cursor);
        probe.record(SCOPE_SCATTER, tick);
        self.replayed += filed as u64;
        self.pending = 0;
        let Job { chunk, nodes } = match self.home.take() {
            Some(home) => home,
            None => self.wait(probe),
        };
        let chunk = std::mem::replace(&mut self.chunk, chunk);
        self.worker
            .get_or_insert_with(Worker::spawn)
            .send(Job { chunk, nodes });
    }

    /// Hands off what the log holds, then waits until the worker has
    /// replayed every chunk and handed the listeners' nodes back, charging
    /// the wait to the `phase_replay_wait` scope.
    pub(crate) fn drain<P: Probe>(
        &mut self,
        medium: &mut Medium,
        station_nodes: &[u32],
        probe: &mut P,
    ) {
        self.hand_off(medium, station_nodes, probe);
        if self.home.is_none() {
            let job = self.wait(probe);
            self.home = Some(job);
        }
    }

    /// Waits for the worker to hand back the chunk it holds.
    fn wait<P: Probe>(&mut self, probe: &mut P) -> Job {
        let tick = probe.tick();
        let worker = self
            .worker
            .as_mut()
            .expect("a chunk is out, so the worker runs");
        let job = worker.wait();
        probe.record(SCOPE_REPLAY_WAIT, tick);
        job
    }
}

#[cfg(test)]
impl Replay {
    /// A handle that the worker thread keeps alive until it exits;
    /// `None` before the first hand-off.
    pub(crate) fn worker_alive(&self) -> Option<std::sync::Weak<()>> {
        self.worker.as_ref().map(|w| w.alive.clone())
    }
}

/// Why the listeners' nodes cannot be read.
const NODES_AWAY: &str = "the listeners' nodes are with the replay worker";

/// The replay worker: one thread, spawned at a world's first hand-off
/// and joined when the world drops, unwinding included, that runs phase
/// 2 of each chunk it is handed. Each direction is a one-slot channel:
/// the dispatch thread hands a chunk off only once the previous one is
/// back, so neither send ever blocks.
#[derive(Debug)]
struct Worker {
    /// `None` once the world drops: the worker's loop then ends.
    jobs: Option<SyncSender<Job>>,
    done: Receiver<Job>,
    /// `None` once joined.
    thread: Option<JoinHandle<()>>,
    /// Upgradable until the worker thread exits.
    #[cfg(test)]
    alive: std::sync::Weak<()>,
}

impl Worker {
    fn spawn() -> Worker {
        let (jobs, inbox) = mpsc::sync_channel::<Job>(1);
        let (outbox, done) = mpsc::sync_channel(1);
        #[cfg(test)]
        let token = std::sync::Arc::new(());
        #[cfg(test)]
        let alive = std::sync::Arc::downgrade(&token);
        let thread = std::thread::Builder::new()
            .name("listener-replay".to_owned())
            .spawn(move || {
                #[cfg(test)]
                let _token = token;
                let mut actions = Vec::with_capacity(8);
                for mut job in inbox {
                    job.chunk.replay(&mut job.nodes, &mut actions);
                    if outbox.send(job).is_err() {
                        return;
                    }
                }
            })
            .expect("the OS refused to start the listener replay thread");
        Worker {
            jobs: Some(jobs),
            done,
            thread: Some(thread),
            #[cfg(test)]
            alive,
        }
    }

    /// Hands `job` to the worker, which holds no other: the send never
    /// blocks.
    fn send(&self, job: Job) {
        self.jobs
            .as_ref()
            .and_then(|jobs| jobs.send(job).ok())
            .expect("the replay worker runs until its world drops");
    }

    /// Waits for the worker's replayed chunk. If the worker panicked
    /// instead, joins it and resumes its panic on this thread.
    fn wait(&mut self) -> Job {
        if let Ok(job) = self.done.recv() {
            return job;
        }
        let thread = self.thread.take().expect(WORKER_PANICKED);
        if let Err(panic) = thread.join() {
            std::panic::resume_unwind(panic);
        }
        unreachable!("the replay worker exits only when its world drops");
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            // A panic on the worker resurfaces from the wait that finds
            // it; a world that drops with a chunk out is already
            // unwinding from a panic of its own.
            let _ = thread.join();
        }
    }
}

/// What a wait finds after the worker's panic was resumed once.
const WORKER_PANICKED: &str = "the listener replay worker panicked in an earlier step";

/// One receiver step of a listener, with its actions checked after
/// each half: a listener may only cancel timers, which it never armed.
/// Checked in release builds too.
#[inline]
fn listener_step(
    node: &mut Node<NullSink>,
    edge: Edge<'_>,
    now: SimTime,
    actions: &mut Vec<MacAction<Packet>>,
) {
    receive(node, edge, now, &mut NullSink, &mut NoProbe, actions);
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
