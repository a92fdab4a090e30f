//! The simulation world: event dispatch across nodes and the medium.
//!
//! The [`World`] owns the simulator, the medium, and every station. Each
//! popped event is routed to the owning station's PHY/MAC/transport; the
//! actions they emit (transmissions, timers, deliveries) are executed
//! immediately, possibly recursing (a delivered TCP segment produces an
//! ACK, which enqueues at the MAC, which may arm a DIFS timer…).
//!
//! Determinism: all state mutation happens in event order; all randomness
//! flows from per-component substreams of the scenario seed. Two runs of
//! the same scenario are bit-identical.

use std::collections::HashMap;

use desim::{EventHandle, NoProbe, Probe, SimDuration, SimRng, SimTime, Simulator};
use dot11_mac::{DcfMac, FrameKind, MacAction, MacFrame, MacSdu, TimerKind};
use dot11_net::{CbrSource, SaturatedSource, TcpConfig};
use dot11_net::{FlowId, Packet, Segment, StaticRoutes, TcpOutput, TcpReceiver, TcpSender};
use dot11_phy::{
    CullPolicy, Medium, MediumConfig, NodeId, PhyState, RxOutcomeKind, Shadowing, TxId, TxSignal,
    CULL_MARGIN_DB,
};
use dot11_trace::{FrameClass, NullSink, RxErrorCause, TraceRecord, TraceSink};

use crate::mobility::MobilityEngine;
use crate::node::{Node, UdpSink};
use crate::scenario::{FlowSpec, Scenario, Traffic};
use crate::stats::{
    EngineStats, EventKindCounts, FlowReport, MobilityStats, NodeReport, RunReport,
};

fn frame_class(kind: FrameKind) -> FrameClass {
    match kind {
        FrameKind::Data => FrameClass::Data,
        FrameKind::Rts => FrameClass::Rts,
        FrameKind::Cts => FrameClass::Cts,
        FrameKind::Ack => FrameClass::Ack,
    }
}

/// Events flowing through the simulator.
#[derive(Debug)]
pub enum Event {
    /// A traffic source starts.
    FlowStart {
        /// Which flow.
        flow: FlowId,
    },
    /// A transmitted signal reaches every receiver's antenna. One event
    /// per transmission: propagation delay is uniform, so all receivers
    /// share the arrival instant and the handler fans out over the
    /// in-flight delivery list in station order — the same order the
    /// per-receiver events of the unbatched scheme popped in.
    SignalStart {
        /// The transmission.
        tx_id: TxId,
    },
    /// The signal leaves every receiver's antenna (one event per
    /// transmission; see [`Event::SignalStart`]).
    SignalEnd {
        /// The transmission.
        tx_id: TxId,
    },
    /// The transmitter finishes keying the frame out.
    TxAirEnd {
        /// The transmitter.
        node: NodeId,
        /// The transmission.
        tx_id: TxId,
    },
    /// A MAC timer fires.
    MacTimer {
        /// The station.
        node: NodeId,
        /// Which timer.
        kind: TimerKind,
    },
    /// A TCP retransmission timer fires.
    RtoTimer {
        /// The sending station.
        node: NodeId,
        /// The flow.
        flow: FlowId,
    },
    /// A TCP delayed-ACK timer fires.
    DelackTimer {
        /// The receiving station.
        node: NodeId,
        /// The flow.
        flow: FlowId,
    },
    /// A paced CBR source is due to emit.
    CbrTick {
        /// The source station.
        node: NodeId,
        /// The flow.
        flow: FlowId,
    },
    /// Warm-up over: snapshot delivered-byte counters.
    MeasureStart,
    /// A mobility epoch boundary: advance the movement model and commit
    /// the moved stations to the medium (incremental link maintenance).
    /// Scheduled in the trailing event class so an epoch's topology
    /// change lands after every ordinary event of the same instant.
    TopologyUpdate,
}

/// The profiler's scope table: one scope per [`Event`] kind (indices
/// `0..17`, matching
/// [`EventKindCounts::iter_named`](crate::stats::EventKindCounts::iter_named)
/// order so per-scope counts can be cross-checked against the kind
/// histogram), then the hot-path phase scopes.
///
/// Kind scopes partition the dispatch loop: each popped event's handling
/// is charged to exactly one. Phase scopes are *inclusive sub-regions*
/// nested inside kind scopes and may overlap each other (a MAC action
/// that transmits charges its scatter to both `phase_mac_actions` and
/// `phase_scatter`), so they explain where kind time goes but do not sum
/// with it.
pub const PROBE_SCOPES: [&str; 22] = [
    "flow_start",
    "signal_start",
    "signal_end",
    "tx_air_end",
    "mac_difs",
    "mac_backoff_bulk",
    "mac_backoff_slot",
    "mac_cts_timeout",
    "mac_ack_timeout",
    "mac_sifs_response",
    "mac_sifs_data",
    "mac_nav_end",
    "rto_timer",
    "delack_timer",
    "cbr_tick",
    "measure_start",
    "topology_update",
    "phase_scatter",
    "phase_arrival_scan",
    "phase_ber_eval",
    "phase_mac_actions",
    "phase_response_build",
];

/// Phase-scope indices into [`PROBE_SCOPES`] (the kind scopes occupy
/// `0..17`).
const SCOPE_SCATTER: usize = 17;
const SCOPE_ARRIVAL_SCAN: usize = 18;
const SCOPE_BER_EVAL: usize = 19;
const SCOPE_MAC_ACTIONS: usize = 20;
const SCOPE_RESPONSE_BUILD: usize = 21;

/// Dense per-station timer-slot count: one slot per [`TimerKind`].
const MAC_TIMER_SLOTS: usize = 8;

/// The dense timer-table slot of a [`TimerKind`] (same order as the MAC
/// kind scopes in [`PROBE_SCOPES`]).
fn timer_slot(kind: TimerKind) -> usize {
    match kind {
        TimerKind::Difs => 0,
        TimerKind::BackoffBulk => 1,
        TimerKind::BackoffSlot => 2,
        TimerKind::CtsTimeout => 3,
        TimerKind::AckTimeout => 4,
        TimerKind::SifsResponse => 5,
        TimerKind::SifsData => 6,
        TimerKind::NavEnd => 7,
    }
}

struct InFlight {
    frame: MacFrame<Packet>,
    /// Per-receiver signals, in station order. Walked by the batched
    /// signal-start/end handlers; the buffer is recycled through
    /// `delivery_pool` when the transmission ends.
    deliveries: Vec<(NodeId, TxSignal)>,
}

/// A stack of recycled `Vec`s for the per-event action/output buffers.
///
/// The event handlers recurse (a delivered segment produces an ACK, which
/// enqueues at the MAC, …), so one scratch buffer is not enough: each
/// recursion depth checks a buffer out and returns it cleared when done.
/// The pool grows to the maximum recursion depth within the first few
/// events and allocates nothing after that.
struct BufPool<T> {
    free: Vec<Vec<T>>,
}

impl<T> BufPool<T> {
    fn new() -> BufPool<T> {
        BufPool { free: Vec::new() }
    }

    fn get(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    fn put(&mut self, mut buf: Vec<T>) {
        buf.clear();
        self.free.push(buf);
    }
}

/// The assembled simulation (see module docs).
///
/// Generic over a [`TraceSink`]; the default [`NullSink`] compiles every
/// emission site away. Pass a real sink (usually a
/// [`dot11_trace::SharedSink`], which is `Clone`) via
/// [`World::with_sink`] to observe the run. Likewise generic over a
/// [`Probe`]; the default [`NoProbe`] compiles the timing scopes away,
/// and [`World::with_probe`] accepts an armed [`desim::WallProbe`] over
/// [`PROBE_SCOPES`] to measure where the engine's wall time goes.
pub struct World<S: TraceSink + Clone = NullSink, P: Probe = NoProbe> {
    sim: Simulator<Event>,
    medium: Medium,
    nodes: Vec<Node<S>>,
    sink: S,
    probe: P,
    /// Recursion depth of `apply_mac_actions`: only the outermost call
    /// records the `phase_mac_actions` scope, so nested action cascades
    /// are not double-counted.
    mac_actions_depth: u32,
    flows: Vec<FlowSpec>,
    /// Transmissions on the air, sorted by [`TxId`]. Ids are handed out
    /// monotonically by the medium, so insertion is a push-back and
    /// lookup a binary search over a handful of concurrent entries — no
    /// hashing on the signal-start/end hot path.
    in_flight: Vec<(TxId, InFlight)>,
    /// Dense per-station timer table: slot `node * MAC_TIMER_SLOTS +
    /// timer_slot(kind)`. Replaces a `HashMap` keyed on `(node, kind)` —
    /// MAC timers are armed/cancelled several times per frame exchange,
    /// making this one of the hottest state tables in the world.
    mac_timers: Vec<Option<EventHandle>>,
    rto_timers: HashMap<(u32, u32), EventHandle>,
    delack_timers: HashMap<(u32, u32), EventHandle>,
    next_tag: u64,
    snapshot: HashMap<FlowId, u64>,
    routes: StaticRoutes,
    duration: SimDuration,
    warmup: SimDuration,
    /// Recycled buffers for the hot-path handlers (see [`BufPool`]).
    mac_action_pool: BufPool<MacAction<Packet>>,
    tcp_out_pool: BufPool<TcpOutput>,
    /// Recycled scatter buffers for [`Medium::transmit_into`]; each lives
    /// inside an [`InFlight`] entry while its transmission is on the air.
    /// Grown on demand: the pool holds as many buffers as transmissions
    /// ever overlapped, each as large as the widest slice it carried — a
    /// 4096-station field where 64 stations transmit never pays for the
    /// other 4032.
    delivery_pool: BufPool<(NodeId, TxSignal)>,
    /// Reused output buffer for saturated-source refills.
    packet_scratch: Vec<Packet>,
    /// Dispatched events broken down by kind.
    kind_counts: EventKindCounts,
    /// The movement model plus its epoch period (`Some` only on mobile
    /// scenarios).
    mobility: Option<(MobilityEngine, SimDuration)>,
    /// Link churn accumulated over the run's mobility epochs.
    mobility_stats: MobilityStats,
    /// Recycled per-epoch move buffer.
    move_scratch: Vec<(NodeId, dot11_phy::Position)>,
    /// The transmitter set: one flag per station, `true` for every
    /// station on some flow's route in either direction
    /// ([`transmitter_set`]). Deaf-receiver elision is derived from it,
    /// so a transmission from outside it panics.
    transmitters: Vec<bool>,
    /// Stations classified deaf under `transmitters` (0 on mobile
    /// scenarios, which are never classified).
    deaf_stations: u64,
    /// Per-receiver signals scattered so far.
    deliveries: u64,
}

/// Every station that can ever transmit: each flow's route walked hop by
/// hop (`next_hop(at, dst)`, or `dst` itself when no route is installed),
/// from source to destination and back. The reverse route carries TCP
/// ACK segments, and every hop answers with MAC ACKs or CTS frames, so
/// the stations on both walks are the only ones a frame ever leaves.
/// A walk takes at most `n` hops: a route that loops keeps every packet
/// on stations the walk has already visited.
fn transmitter_set(n: usize, flows: &[FlowSpec], routes: &StaticRoutes) -> Vec<bool> {
    let mut set = vec![false; n];
    for f in flows {
        for (from, to) in [(f.src, f.dst), (f.dst, f.src)] {
            let mut at = from;
            set[at.index()] = true;
            for _ in 0..n {
                if at == to {
                    break;
                }
                at = routes.next_hop(at, to).unwrap_or(to);
                set[at.index()] = true;
            }
        }
    }
    set
}

impl World {
    /// Assembles a world from a scenario with tracing disabled.
    pub fn new(scenario: Scenario) -> World {
        World::with_sink(scenario, NullSink)
    }
}

impl<S: TraceSink + Clone> World<S> {
    /// Assembles a world from a scenario, wiring `sink` through every
    /// layer (PHY, MAC, TCP, and the world's own frame/flow events).
    pub fn with_sink(scenario: Scenario, sink: S) -> World<S> {
        World::with_probe(scenario, sink, NoProbe)
    }
}

impl<S: TraceSink + Clone, P: Probe> World<S, P> {
    /// Assembles a world from a scenario with both a trace sink and a
    /// timing probe (usually a [`desim::WallProbe`] over
    /// [`PROBE_SCOPES`]).
    ///
    /// On a static scenario, frames skip every deaf receiver (see
    /// [`Medium::deaf_receivers`]): a station outside the
    /// [transmitter set](World::transmitters) that no member of it can
    /// make detect a preamble or sense energy. Its PHY calls would have
    /// no observable effect, so the report and the trace are the same as
    /// with full scatter.
    pub fn with_probe(scenario: Scenario, sink: S, probe: P) -> World<S, P> {
        World::assemble(scenario, sink, probe, true)
    }

    /// [`World::with_probe`] with the deaf receivers classified but not
    /// skipped: every frame scatters to its whole audible set. The
    /// reference the elision identity tests compare against.
    #[cfg(test)]
    fn with_full_scatter(scenario: Scenario, sink: S, probe: P) -> World<S, P> {
        World::assemble(scenario, sink, probe, false)
    }

    fn assemble(scenario: Scenario, sink: S, probe: P, elide: bool) -> World<S, P> {
        let Scenario {
            positions,
            radio,
            mac,
            day,
            path_loss,
            flows,
            routes,
            seed,
            duration,
            warmup,
            full_fanout,
            mobility,
        } = scenario;
        let master = SimRng::from_seed(seed);
        let shadowing = Shadowing::new(day.clone(), master.substream(b"shadowing"));
        // Audible-set culling: the world knows every station transmits at
        // the radio's (single) TX power, so it can bound each link's
        // best-case received power at construction and skip receivers
        // that can never rise above noise_floor − CULL_MARGIN_DB. On the
        // paper-scale scenarios no link is culled (regression-tested), so
        // reports are bit-identical with or without the policy.
        let cull = if full_fanout {
            CullPolicy::Full
        } else {
            CullPolicy::Audible {
                tx_power: radio.tx_power,
                noise_floor: radio.noise_floor,
                margin: dot11_phy::Db(CULL_MARGIN_DB),
            }
        };
        let mut medium = Medium::new(
            positions.clone(),
            shadowing,
            MediumConfig {
                path_loss,
                day,
                propagation_delay: desim::SimDuration::from_micros(1),
                cull,
            },
        );
        let transmitters = transmitter_set(positions.len(), &flows, &routes);
        // Moving stations can come to hear a transmitter whose link to
        // them was never sampled, so mobile scenarios are not classified;
        // and where every station may transmit, none can be deaf.
        let deaf_stations = if mobility.is_some() || !transmitters.contains(&false) {
            0
        } else {
            let deaf = medium.deaf_receivers(&transmitters, radio.tx_power, radio.cs_threshold);
            let count = deaf.iter().filter(|&&d| d).count() as u64;
            if elide {
                medium.elide_receivers(deaf);
            }
            count
        };
        let mut radio = radio;
        radio.preamble = mac.preamble;
        let mut nodes = Vec::with_capacity(positions.len());
        for i in 0..positions.len() {
            let id = NodeId(i as u32);
            let phy = PhyState::with_sink(
                radio,
                master.substream(format!("phy/{i}").as_bytes()),
                id,
                sink.clone(),
            );
            let dcf: DcfMac<Packet, S> = DcfMac::with_sink(
                id,
                mac,
                master.substream(format!("mac/{i}").as_bytes()),
                sink.clone(),
            );
            nodes.push(Node::new(id, phy, dcf));
        }
        let mut sim = Simulator::new();
        // Pending events are bounded by a few timers per station plus a
        // few per transmission and flow; pre-size the queue so a late
        // population peak never reallocates mid-run.
        sim.reserve(16 * (nodes.len() + flows.len()).max(4));
        for f in &flows {
            sim.schedule_at(SimTime::ZERO + f.start, Event::FlowStart { flow: f.id });
        }
        sim.schedule_at(SimTime::ZERO + warmup, Event::MeasureStart);
        // Mobile scenario: build the movement engine over its dedicated
        // substream and arm the first epoch. Trailing class: an epoch's
        // topology change follows every ordinary event of its instant.
        let mobility = mobility.map(|m| {
            let engine = MobilityEngine::new(&m, &positions, &master.substream(b"mobility"));
            sim.schedule_in_trailing(m.epoch, Event::TopologyUpdate);
            (engine, m.epoch)
        });
        let n_stations = nodes.len();
        let mut world = World {
            sim,
            medium,
            nodes,
            sink,
            probe,
            mac_actions_depth: 0,
            flows,
            in_flight: Vec::new(),
            mac_timers: vec![None; n_stations * MAC_TIMER_SLOTS],
            rto_timers: HashMap::new(),
            delack_timers: HashMap::new(),
            next_tag: 1,
            snapshot: HashMap::new(),
            routes,
            duration,
            warmup,
            mac_action_pool: BufPool::new(),
            tcp_out_pool: BufPool::new(),
            delivery_pool: BufPool::new(),
            packet_scratch: Vec::new(),
            kind_counts: EventKindCounts::default(),
            mobility,
            mobility_stats: MobilityStats::default(),
            move_scratch: Vec::new(),
            transmitters,
            deaf_stations,
            deliveries: 0,
        };
        world.install_endpoints();
        world
    }

    fn install_endpoints(&mut self) {
        for f in self.flows.clone() {
            match f.traffic {
                Traffic::SaturatedUdp {
                    payload_bytes,
                    backlog,
                } => {
                    self.nodes[f.src.index()].saturated_sources.insert(
                        f.id,
                        SaturatedSource::new(f.id, f.src, f.dst, payload_bytes, backlog),
                    );
                    self.nodes[f.src.index()].saturated_flows.push(f.id);
                    self.nodes[f.dst.index()]
                        .udp_sinks
                        .insert(f.id, UdpSink::default());
                }
                Traffic::CbrUdp {
                    payload_bytes,
                    interval,
                    limit,
                } => {
                    self.nodes[f.src.index()].cbr_sources.insert(
                        f.id,
                        CbrSource::new(f.id, f.src, f.dst, payload_bytes, interval, limit),
                    );
                    self.nodes[f.dst.index()]
                        .udp_sinks
                        .insert(f.id, UdpSink::default());
                }
                Traffic::BulkTcp { mss } => {
                    let cfg = TcpConfig::new(mss);
                    self.nodes[f.src.index()].tcp_senders.insert(
                        f.id,
                        TcpSender::with_sink(f.id, f.src, f.dst, cfg, self.sink.clone()),
                    );
                    self.nodes[f.dst.index()]
                        .tcp_receivers
                        .insert(f.id, TcpReceiver::new(f.id, f.dst, f.src, cfg));
                }
            }
        }
    }

    /// Runs the scenario to its configured duration and reports.
    pub fn run(mut self) -> RunReport {
        let wall_start = std::time::Instant::now();
        let end = SimTime::ZERO + self.duration;
        self.step_until(end);
        if S::ENABLED {
            // Close at the configured end so the final metrics window
            // spans to the run boundary, not the last event.
            self.sink.finish(end);
        }
        self.report(wall_start.elapsed())
    }

    /// The assembled medium — lets tests and benchmarks inspect the
    /// audible sets (e.g. assert that a paper scenario culled nothing, or
    /// report the fan-out a topology actually produces).
    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    /// The transmitter set, one flag per station: every station on some
    /// flow's route, in either direction. Only these stations may
    /// transmit; any other station's transmission panics.
    pub fn transmitters(&self) -> &[bool] {
        &self.transmitters
    }

    /// Dispatches events until the next one would land after `end`.
    ///
    /// [`World::run`] drives the whole scenario through this; it is public
    /// so instrumentation (e.g. the allocation-profiling tests) can advance
    /// a world in segments and observe it between them.
    pub fn step_until(&mut self, end: SimTime) {
        while let Some(t) = self.sim.peek_time() {
            if t > end {
                break;
            }
            let tick = self.probe.tick();
            let (now, ev) = self.sim.pop().expect("peeked event");
            let scope = Self::kind_scope(&ev);
            self.handle(now, ev);
            self.probe.record(scope, tick);
        }
    }

    /// Maps an event to its profiler scope index — the same order as
    /// [`EventKindCounts::iter_named`] and the head of [`PROBE_SCOPES`]
    /// (cross-checked by the `probe_scope_counts_match_kind_histogram`
    /// integration test).
    fn kind_scope(ev: &Event) -> usize {
        match ev {
            Event::FlowStart { .. } => 0,
            Event::SignalStart { .. } => 1,
            Event::SignalEnd { .. } => 2,
            Event::TxAirEnd { .. } => 3,
            Event::MacTimer { kind, .. } => match kind {
                TimerKind::Difs => 4,
                TimerKind::BackoffBulk => 5,
                TimerKind::BackoffSlot => 6,
                TimerKind::CtsTimeout => 7,
                TimerKind::AckTimeout => 8,
                TimerKind::SifsResponse => 9,
                TimerKind::SifsData => 10,
                TimerKind::NavEnd => 11,
            },
            Event::RtoTimer { .. } => 12,
            Event::DelackTimer { .. } => 13,
            Event::CbrTick { .. } => 14,
            Event::MeasureStart => 15,
            Event::TopologyUpdate => 16,
        }
    }

    /// Tallies one dispatched event into the per-kind histogram.
    fn count_kind(&mut self, ev: &Event) {
        let k = &mut self.kind_counts;
        match ev {
            Event::FlowStart { .. } => k.flow_start += 1,
            Event::SignalStart { .. } => k.signal_start += 1,
            Event::SignalEnd { .. } => k.signal_end += 1,
            Event::TxAirEnd { .. } => k.tx_air_end += 1,
            Event::MacTimer { kind, .. } => match kind {
                TimerKind::Difs => k.mac_difs += 1,
                TimerKind::BackoffBulk => k.mac_backoff_bulk += 1,
                TimerKind::BackoffSlot => k.mac_backoff_slot += 1,
                TimerKind::CtsTimeout => k.mac_cts_timeout += 1,
                TimerKind::AckTimeout => k.mac_ack_timeout += 1,
                TimerKind::SifsResponse => k.mac_sifs_response += 1,
                TimerKind::SifsData => k.mac_sifs_data += 1,
                TimerKind::NavEnd => k.mac_nav_end += 1,
            },
            Event::RtoTimer { .. } => k.rto_timer += 1,
            Event::DelackTimer { .. } => k.delack_timer += 1,
            Event::CbrTick { .. } => k.cbr_tick += 1,
            Event::MeasureStart => k.measure_start += 1,
            Event::TopologyUpdate => k.topology_update += 1,
        }
    }

    fn handle(&mut self, now: SimTime, ev: Event) {
        self.count_kind(&ev);
        match ev {
            Event::FlowStart { flow } => self.start_flow(flow, now),
            Event::SignalStart { tx_id } => self.on_signal_start(tx_id, now),
            Event::SignalEnd { tx_id } => self.on_signal_end(tx_id, now),
            Event::TxAirEnd { node, tx_id } => self.on_tx_air_end(node, tx_id, now),
            Event::MacTimer { node, kind } => {
                self.mac_timers[node.index() * MAC_TIMER_SLOTS + timer_slot(kind)] = None;
                let mut actions = self.mac_action_pool.get();
                if kind == TimerKind::SifsResponse {
                    // The SIFS-response build (precomputed CTS/ACK frame
                    // handed to the transmit path) gets its own phase
                    // scope so `engine.profile` keeps it visible.
                    let tick = self.probe.tick();
                    self.nodes[node.index()]
                        .mac
                        .on_timer(kind, now, &mut actions);
                    self.probe.record(SCOPE_RESPONSE_BUILD, tick);
                } else {
                    self.nodes[node.index()]
                        .mac
                        .on_timer(kind, now, &mut actions);
                }
                self.apply_mac_actions(node.index(), actions, now);
            }
            Event::RtoTimer { node, flow } => {
                self.rto_timers.remove(&(node.0, flow.0));
                let mut outs = self.tcp_out_pool.get();
                if let Some(s) = self.nodes[node.index()].tcp_senders.get_mut(&flow) {
                    s.on_rto(now, &mut outs);
                }
                self.apply_tcp_outputs(node.index(), flow, outs, now);
            }
            Event::DelackTimer { node, flow } => {
                self.delack_timers.remove(&(node.0, flow.0));
                let mut outs = self.tcp_out_pool.get();
                if let Some(r) = self.nodes[node.index()].tcp_receivers.get_mut(&flow) {
                    r.on_delack_timer(now, &mut outs);
                }
                self.apply_tcp_outputs(node.index(), flow, outs, now);
            }
            Event::CbrTick { node, flow } => self.on_cbr_tick(node, flow, now),
            Event::MeasureStart => {
                for f in &self.flows {
                    let bytes = self.delivered_bytes(f);
                    self.snapshot.insert(f.id, bytes);
                }
            }
            Event::TopologyUpdate => self.on_topology_update(now),
        }
    }

    /// One mobility epoch: advance the movement model to `now`, commit
    /// the moved stations to the medium, and arm the next epoch.
    ///
    /// Carrier-locked receivers are unaffected on purpose: an in-flight
    /// transmission sampled its per-receiver powers at launch (the
    /// block-fading assumption every signal already follows), so a move
    /// mid-flight changes only *future* transmissions — which is exactly
    /// what the epoch commit invalidates.
    fn on_topology_update(&mut self, now: SimTime) {
        let (mut engine, epoch) = self.mobility.take().expect("mobile scenario");
        let mut moves = std::mem::take(&mut self.move_scratch);
        moves.clear();
        engine.advance(
            now.saturating_duration_since(SimTime::ZERO),
            self.medium.positions(),
            &mut moves,
        );
        let churn = self.medium.commit_epoch(&moves);
        self.mobility_stats.accumulate(churn);
        self.move_scratch = moves;
        self.mobility = Some((engine, epoch));
        self.sim.schedule_in_trailing(epoch, Event::TopologyUpdate);
    }

    // --- traffic ---------------------------------------------------------

    fn start_flow(&mut self, flow: FlowId, now: SimTime) {
        let spec = *self
            .flows
            .iter()
            .find(|f| f.id == flow)
            .expect("known flow");
        match spec.traffic {
            Traffic::SaturatedUdp { .. } => self.refill_saturated(spec.src.index(), now),
            Traffic::CbrUdp { .. } => self.on_cbr_tick(spec.src, flow, now),
            Traffic::BulkTcp { .. } => {
                let mut outs = self.tcp_out_pool.get();
                self.nodes[spec.src.index()]
                    .tcp_senders
                    .get_mut(&flow)
                    .expect("sender installed")
                    .start(now, &mut outs);
                self.apply_tcp_outputs(spec.src.index(), flow, outs, now);
            }
        }
    }

    fn on_cbr_tick(&mut self, node: NodeId, flow: FlowId, now: SimTime) {
        let idx = node.index();
        let Some(src) = self.nodes[idx].cbr_sources.get_mut(&flow) else {
            return;
        };
        if let Some((packet, next)) = src.tick(now) {
            if let Some(next) = next {
                self.sim.schedule_at(next, Event::CbrTick { node, flow });
            }
            self.enqueue_packet(idx, packet, now);
        }
    }

    fn refill_saturated(&mut self, idx: usize, now: SimTime) {
        for fi in 0..self.nodes[idx].saturated_flows.len() {
            let flow = self.nodes[idx].saturated_flows[fi];
            // One top-up per invocation: the source emits enough datagrams
            // to restore its backlog given the current queue depth. (A
            // loop would never terminate if the backlog exceeded the MAC
            // queue capacity — drops would be "re-filled" forever.)
            let queued = self.nodes[idx].mac.queue_len();
            let mut packets = std::mem::take(&mut self.packet_scratch);
            self.nodes[idx]
                .saturated_sources
                .get_mut(&flow)
                .expect("source present")
                .refill(queued, now, &mut packets);
            for p in packets.drain(..) {
                self.enqueue_packet(idx, p, now);
            }
            self.packet_scratch = packets;
        }
    }

    // --- packet plumbing ---------------------------------------------------

    fn enqueue_packet(&mut self, idx: usize, packet: Packet, now: SimTime) {
        let tag = self.next_tag;
        self.next_tag += 1;
        let at = self.nodes[idx].id;
        // Multi-hop: the MAC-level receiver is the configured next hop
        // toward the packet's final destination (or the destination
        // itself when no route is installed).
        let hop = self.routes.next_hop(at, packet.dst).unwrap_or(packet.dst);
        let sdu = MacSdu {
            dst: hop,
            bytes: packet.wire_bytes(),
            tag,
            payload: packet,
        };
        let mut actions = self.mac_action_pool.get();
        self.nodes[idx].mac.enqueue(sdu, now, &mut actions);
        self.apply_mac_actions(idx, actions, now);
    }

    fn deliver_packet(&mut self, idx: usize, packet: Packet, now: SimTime) {
        if packet.dst != self.nodes[idx].id {
            // We are an intermediate hop: forward toward the destination.
            self.enqueue_packet(idx, packet, now);
            return;
        }
        match packet.seg {
            Segment::Udp { seq } => {
                if let Some(sink) = self.nodes[idx].udp_sinks.get_mut(&packet.flow) {
                    sink.datagrams += 1;
                    sink.payload_bytes += packet.payload_bytes as u64;
                    sink.max_seq = sink.max_seq.max(seq);
                    let delay = now.saturating_duration_since(packet.sent_at).as_nanos();
                    sink.delay_sum_ns += delay;
                    sink.delay_max_ns = sink.delay_max_ns.max(delay);
                    if S::ENABLED {
                        self.sink.record(
                            now,
                            &TraceRecord::FlowDeliver {
                                flow: packet.flow.0,
                                dst: packet.dst.0,
                                bytes: packet.payload_bytes,
                            },
                        );
                    }
                }
            }
            Segment::Tcp { seq, ack } => {
                let flow = packet.flow;
                let mut outs = self.tcp_out_pool.get();
                if packet.payload_bytes > 0 {
                    if let Some(r) = self.nodes[idx].tcp_receivers.get_mut(&flow) {
                        let before = r.delivered_bytes();
                        r.on_segment(seq, packet.payload_bytes, now, &mut outs);
                        // In-order delivery progress, not raw segment
                        // arrival: out-of-order segments count only once
                        // the hole closes.
                        let delta = r.delivered_bytes() - before;
                        if S::ENABLED && delta > 0 {
                            self.sink.record(
                                now,
                                &TraceRecord::FlowDeliver {
                                    flow: flow.0,
                                    dst: packet.dst.0,
                                    bytes: delta as u32,
                                },
                            );
                        }
                    }
                } else if let Some(s) = self.nodes[idx].tcp_senders.get_mut(&flow) {
                    s.on_ack(ack, now, &mut outs);
                }
                self.apply_tcp_outputs(idx, flow, outs, now);
            }
        }
    }

    fn apply_tcp_outputs(
        &mut self,
        idx: usize,
        flow: FlowId,
        mut outs: Vec<TcpOutput>,
        now: SimTime,
    ) {
        for out in outs.drain(..) {
            match out {
                TcpOutput::Send(packet) => self.enqueue_packet(idx, packet, now),
                TcpOutput::ArmRto(delay) => {
                    let node = self.nodes[idx].id;
                    let h = self.sim.schedule_in(delay, Event::RtoTimer { node, flow });
                    if let Some(old) = self.rto_timers.insert((node.0, flow.0), h) {
                        self.sim.cancel(old);
                    }
                }
                TcpOutput::CancelRto => {
                    let node = self.nodes[idx].id;
                    if let Some(h) = self.rto_timers.remove(&(node.0, flow.0)) {
                        self.sim.cancel(h);
                    }
                }
                TcpOutput::ArmDelack(delay) => {
                    let node = self.nodes[idx].id;
                    let h = self
                        .sim
                        .schedule_in(delay, Event::DelackTimer { node, flow });
                    if let Some(old) = self.delack_timers.insert((node.0, flow.0), h) {
                        self.sim.cancel(old);
                    }
                }
                TcpOutput::CancelDelack => {
                    let node = self.nodes[idx].id;
                    if let Some(h) = self.delack_timers.remove(&(node.0, flow.0)) {
                        self.sim.cancel(h);
                    }
                }
            }
        }
        self.tcp_out_pool.put(outs);
    }

    // --- MAC/PHY plumbing ----------------------------------------------------

    fn apply_mac_actions(&mut self, idx: usize, mut actions: Vec<MacAction<Packet>>, now: SimTime) {
        let tick = self.probe.tick();
        let outermost = self.mac_actions_depth == 0;
        self.mac_actions_depth += 1;
        for action in actions.drain(..) {
            match action {
                MacAction::Transmit { frame, rate } => {
                    self.start_transmission(idx, frame, rate, now)
                }
                MacAction::StartTimer { kind, delay } => {
                    let node = self.nodes[idx].id;
                    let ev = Event::MacTimer { node, kind };
                    // The bulk-backoff timer stands in for the *last* tick
                    // of a per-slot chain, which would have been the oldest
                    // pending event at its instant — so it goes in the
                    // trailing class (fires after every ordinary event at
                    // that instant; see `Simulator::schedule_in_trailing`).
                    let h = if kind == TimerKind::BackoffBulk {
                        self.sim.schedule_in_trailing(delay, ev)
                    } else {
                        self.sim.schedule_in(delay, ev)
                    };
                    let slot = idx * MAC_TIMER_SLOTS + timer_slot(kind);
                    if let Some(old) = self.mac_timers[slot].replace(h) {
                        self.sim.cancel(old);
                    }
                }
                MacAction::CancelTimer { kind } => {
                    let slot = idx * MAC_TIMER_SLOTS + timer_slot(kind);
                    if let Some(h) = self.mac_timers[slot].take() {
                        self.sim.cancel(h);
                    }
                }
                MacAction::Deliver { src: _, payload } => self.deliver_packet(idx, payload, now),
                MacAction::TxStatus { .. } => self.refill_saturated(idx, now),
            }
        }
        self.mac_action_pool.put(actions);
        self.mac_actions_depth -= 1;
        if outermost {
            self.probe.record(SCOPE_MAC_ACTIONS, tick);
        }
    }

    fn start_transmission(
        &mut self,
        idx: usize,
        frame: MacFrame<Packet>,
        rate: dot11_phy::PhyRate,
        now: SimTime,
    ) {
        let source = self.nodes[idx].id;
        // The deaf-receiver classification rests on both facts: only the
        // transmitter set transmits, and one station's frames never
        // overlap (so a receiver hears at most one signal per
        // transmitter). Checked in release builds too.
        assert!(
            self.transmitters[idx],
            "station {idx} transmitted but is outside the transmitter set \
             (no flow routes through it); deaf-receiver elision would be unsound"
        );
        assert!(
            !self.nodes[idx].phy.is_transmitting(),
            "station {idx} started a frame while its previous one is on the air"
        );
        let radio = *self.nodes[idx].phy.config();
        // Scatter into a pooled buffer; it rides inside the `InFlight`
        // entry until the transmission's SignalEnd returns it.
        let mut deliveries = self.delivery_pool.get();
        let tick = self.probe.tick();
        let (tx_id, airtime) = self.medium.transmit_into(
            source,
            radio.tx_power,
            rate,
            frame.mpdu_bytes,
            radio.preamble,
            now,
            &mut deliveries,
        );
        self.probe.record(SCOPE_SCATTER, tick);
        self.deliveries += deliveries.len() as u64;
        let until = now + airtime.total();
        if S::ENABLED {
            self.sink.record(
                now,
                &TraceRecord::FrameTxStart {
                    node: source.0,
                    kind: frame_class(frame.kind),
                    dst: frame.dst.0,
                    bytes: frame.mpdu_bytes,
                    rate_kbps: (rate.bits_per_sec() / 1000.0) as u32,
                    air_ns: airtime.total().as_nanos(),
                },
            );
        }
        self.nodes[idx].phy.begin_tx(until, now);
        self.sync_cs(idx, now);
        self.sim.schedule_at(
            until,
            Event::TxAirEnd {
                node: source,
                tx_id,
            },
        );
        if deliveries.is_empty() {
            // Nobody in range: no signal events, no in-flight entry.
            self.delivery_pool.put(deliveries);
            return;
        }
        // Uniform propagation delay: every receiver shares the arrival and
        // departure instants, so one event each covers the whole fan-out.
        let (starts_at, ends_at) = (deliveries[0].1.starts_at, deliveries[0].1.ends_at);
        debug_assert!(deliveries
            .iter()
            .all(|(_, s)| s.starts_at == starts_at && s.ends_at == ends_at));
        self.sim
            .schedule_at(starts_at, Event::SignalStart { tx_id });
        self.sim.schedule_at(ends_at, Event::SignalEnd { tx_id });
        debug_assert!(
            self.in_flight.last().is_none_or(|(last, _)| *last < tx_id),
            "medium tx ids must be monotonic for sorted push-back"
        );
        self.in_flight.push((tx_id, InFlight { frame, deliveries }));
    }

    /// Index of a live transmission in the sorted `in_flight` table.
    fn in_flight_idx(&self, tx_id: TxId) -> usize {
        self.in_flight
            .binary_search_by_key(&tx_id, |e| e.0)
            .expect("in-flight entry lives until its own signal end")
    }

    fn on_signal_start(&mut self, tx_id: TxId, now: SimTime) {
        // Take the delivery list out of its entry for the walk: `sync_cs`
        // can recurse into `apply_mac_actions` and push new in-flight
        // entries, so no borrow of the table may be held across receivers
        // — but nothing in that recursion can touch *this* transmission's
        // deliveries, so an owned take is safe and replaces the two map
        // lookups per receiver of the old scheme with none. The buffer
        // goes back afterwards; `on_signal_end` walks the same one.
        let i = self.in_flight_idx(tx_id);
        let deliveries = std::mem::take(&mut self.in_flight[i].1.deliveries);
        for &(rx, ref sig) in &deliveries {
            // Scope only the PHY arrival bookkeeping: `sync_cs` may
            // cascade into MAC actions, which time themselves.
            let tick = self.probe.tick();
            self.nodes[rx.index()].phy.signal_start(sig, now);
            self.probe.record(SCOPE_ARRIVAL_SCAN, tick);
            self.sync_cs(rx.index(), now);
        }
        let i = self.in_flight_idx(tx_id);
        self.in_flight[i].1.deliveries = deliveries;
    }

    fn on_signal_end(&mut self, tx_id: TxId, now: SimTime) {
        let i = self.in_flight_idx(tx_id);
        let deliveries = std::mem::take(&mut self.in_flight[i].1.deliveries);
        for &(rx, _) in &deliveries {
            self.signal_end_at(rx, tx_id, now);
        }
        let i = self.in_flight_idx(tx_id);
        self.in_flight.remove(i);
        self.delivery_pool.put(deliveries);
    }

    /// One receiver's share of a transmission's end: resolve the PHY
    /// outcome, feed the MAC, re-sync carrier sense. Runs in station
    /// order from [`World::on_signal_end`], exactly like the unbatched
    /// per-receiver events did.
    fn signal_end_at(&mut self, rx: NodeId, tx_id: TxId, now: SimTime) {
        let idx = rx.index();
        // `signal_end` is where interference integration and BER
        // evaluation happen — the per-receiver decode cost.
        let tick = self.probe.tick();
        let outcome = self.nodes[idx].phy.signal_end(tx_id, now);
        self.probe.record(SCOPE_BER_EVAL, tick);
        // Only the (rare) locked receiver can produce MAC input: skip the
        // action-buffer round-trip entirely for the other members of the
        // fan-out.
        if let Some(out) = outcome {
            let mut actions = self.mac_action_pool.get();
            match out.kind {
                RxOutcomeKind::Decoded => {
                    let i = self.in_flight_idx(tx_id);
                    let frame = self.in_flight[i].1.frame.clone();
                    if S::ENABLED {
                        self.sink.record(
                            now,
                            &TraceRecord::FrameRxOk {
                                node: rx.0,
                                src: frame.src.0,
                                kind: frame_class(frame.kind),
                                bytes: frame.mpdu_bytes,
                            },
                        );
                    }
                    self.nodes[idx].mac.on_rx_frame(frame, now, &mut actions);
                }
                RxOutcomeKind::BodyError | RxOutcomeKind::HeaderError => {
                    if S::ENABLED {
                        let cause = if matches!(out.kind, RxOutcomeKind::BodyError) {
                            RxErrorCause::Body
                        } else {
                            RxErrorCause::Header
                        };
                        self.sink
                            .record(now, &TraceRecord::FrameRxErr { node: rx.0, cause });
                    }
                    self.nodes[idx].mac.on_rx_error(now, &mut actions);
                }
            }
            self.apply_mac_actions(idx, actions, now);
        }
        self.sync_cs(idx, now);
    }

    fn on_tx_air_end(&mut self, node: NodeId, tx_id: TxId, now: SimTime) {
        let _ = tx_id;
        let idx = node.index();
        if S::ENABLED {
            self.sink
                .record(now, &TraceRecord::FrameTxEnd { node: node.0 });
        }
        self.nodes[idx].phy.end_tx(now);
        let mut actions = self.mac_action_pool.get();
        self.nodes[idx].mac.on_tx_end(now, &mut actions);
        self.apply_mac_actions(idx, actions, now);
        self.sync_cs(idx, now);
    }

    /// Reports carrier-sense edges to the MAC.
    fn sync_cs(&mut self, idx: usize, now: SimTime) {
        let busy = self.nodes[idx].phy.carrier_busy();
        if busy != self.nodes[idx].cs_reported {
            self.nodes[idx].cs_reported = busy;
            let mut actions = self.mac_action_pool.get();
            if busy {
                self.nodes[idx].mac.on_channel_busy(now, &mut actions);
            } else {
                self.nodes[idx].mac.on_channel_idle(now, &mut actions);
            }
            self.apply_mac_actions(idx, actions, now);
        }
    }

    // --- reporting -------------------------------------------------------------

    fn delivered_bytes(&self, spec: &FlowSpec) -> u64 {
        match spec.traffic {
            Traffic::SaturatedUdp { .. } | Traffic::CbrUdp { .. } => self.nodes[spec.dst.index()]
                .udp_sinks
                .get(&spec.id)
                .map(|s| s.payload_bytes)
                .unwrap_or(0),
            Traffic::BulkTcp { .. } => self.nodes[spec.dst.index()]
                .tcp_receivers
                .get(&spec.id)
                .map(|r| r.delivered_bytes())
                .unwrap_or(0),
        }
    }

    fn report(&mut self, wall: std::time::Duration) -> RunReport {
        // Fold the tail span into each station's airtime ledgers (the
        // PHY's radio-state split and the MAC's defer refinement).
        let end = (SimTime::ZERO + self.duration).max(self.sim.now());
        for n in &mut self.nodes {
            n.phy.account_airtime(end);
            n.mac.account_airtime(end);
        }
        let window = (self.duration - self.warmup).as_secs_f64();
        let flows = self
            .flows
            .iter()
            .map(|f| {
                let delivered_bytes = self.delivered_bytes(f);
                let measured =
                    delivered_bytes.saturating_sub(*self.snapshot.get(&f.id).unwrap_or(&0));
                let (mean_delay_ms, max_delay_ms) = self.nodes[f.dst.index()]
                    .udp_sinks
                    .get(&f.id)
                    .map(|s| (s.mean_delay_ms(), s.delay_max_ns as f64 / 1e6))
                    .unwrap_or((0.0, 0.0));
                let (offered, delivered_packets, loss) = match f.traffic {
                    Traffic::SaturatedUdp { .. } | Traffic::CbrUdp { .. } => {
                        let offered = self.nodes[f.src.index()]
                            .saturated_sources
                            .get(&f.id)
                            .map(|s| s.emitted())
                            .or_else(|| {
                                self.nodes[f.src.index()]
                                    .cbr_sources
                                    .get(&f.id)
                                    .map(|s| s.emitted())
                            })
                            .unwrap_or(0);
                        let got = self.nodes[f.dst.index()]
                            .udp_sinks
                            .get(&f.id)
                            .map(|s| s.datagrams)
                            .unwrap_or(0);
                        let loss = if offered > 0 {
                            1.0 - got as f64 / offered as f64
                        } else {
                            0.0
                        };
                        (offered, got, loss)
                    }
                    Traffic::BulkTcp { mss } => {
                        let offered = self.nodes[f.src.index()]
                            .tcp_senders
                            .get(&f.id)
                            .map(|s| s.stats().segments_sent)
                            .unwrap_or(0);
                        (offered, delivered_bytes / mss as u64, 0.0)
                    }
                };
                FlowReport {
                    flow: f.id,
                    src: f.src,
                    dst: f.dst,
                    offered_packets: offered,
                    delivered_bytes,
                    delivered_packets,
                    measured_bytes: measured,
                    throughput_kbps: measured as f64 * 8.0 / window / 1000.0,
                    loss_rate: loss.clamp(0.0, 1.0),
                    mean_delay_ms,
                    max_delay_ms,
                }
            })
            .collect();
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                // Merge the MAC's defer ledger into the PHY's airtime
                // split: the five refinement categories partition the
                // PHY's idle share (bit-exactly — asserted by the
                // airtime conservation tests), giving the exhaustive
                // channel-state accounting in one struct.
                let mut airtime = n.phy.airtime();
                let ledger = n.mac.airtime_ledger();
                airtime.nav_ns = ledger.nav_ns;
                airtime.difs_ns = ledger.difs_ns;
                airtime.backoff_ns = ledger.backoff_ns;
                airtime.frozen_ns = ledger.frozen_ns;
                airtime.quiet_ns = ledger.quiet_ns;
                NodeReport {
                    node: n.id,
                    mac: n.mac.counters(),
                    phy: n.phy.counters(),
                    arf: n.mac.arf_counters(),
                    final_data_rate: n.mac.current_data_rate(),
                    airtime,
                }
            })
            .collect();
        RunReport {
            duration: self.duration,
            warmup: self.warmup,
            flows,
            nodes,
            events: self.sim.events_dispatched(),
            engine: EngineStats {
                events: self.sim.events_dispatched(),
                kinds: self.kind_counts,
                mobility: self.mobility_stats,
                queue_high_water: self.sim.queue_high_water(),
                deliveries: self.deliveries,
                deaf_stations: self.deaf_stations,
                // The accounted horizon (same `end` the airtime ledgers
                // fold to), not the last event's timestamp: how far the
                // run simulated must not depend on whether the final
                // pending events happened to land before the boundary.
                sim_elapsed: end.saturating_duration_since(SimTime::ZERO),
                wall,
                profile: self.probe.report(),
            },
        }
    }
}

impl<S: TraceSink + Clone, P: Probe> std::fmt::Debug for World<S, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("stations", &self.nodes.len())
            .field("flows", &self.flows.len())
            .field("now", &self.sim.now())
            .field("pending", &self.sim.pending())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use dot11_phy::{DayProfile, PhyRate, Position};
    use dot11_trace::{JsonlSink, SharedSink};

    const UDP: Traffic = Traffic::SaturatedUdp {
        payload_bytes: 512,
        backlog: 10,
    };
    const TCP: Traffic = Traffic::BulkTcp { mss: 512 };

    /// How the flows of a sparse test field travel.
    #[derive(Debug, Clone, Copy)]
    enum Flows {
        /// One single-hop flow per sender/receiver pair.
        SingleHop(Traffic),
        /// A chain of stations at 60 m pitch with chain routes, and one
        /// saturated UDP flow from end to end.
        Chain(u32),
    }

    /// A sparse field: `bystanders` stations uniform on a disk of
    /// `radius_m`, plus the flow stations placed `pair_gap_m` apart
    /// along the x axis, the first at the disk centre. Most bystanders
    /// sit far beyond carrier-sense range of every flow station.
    fn sparse_field(
        bystanders: u32,
        radius_m: f64,
        flows: Flows,
        pairs: u32,
        pair_gap_m: f64,
        day: DayProfile,
        seed: u64,
    ) -> ScenarioBuilder {
        let mut b = ScenarioBuilder::new(PhyRate::R2);
        match flows {
            Flows::Chain(n) => {
                b = b.chain(n, 60.0).flow(0, n - 1, UDP);
            }
            Flows::SingleHop(traffic) => {
                for p in 0..pairs {
                    let x = p as f64 * pair_gap_m;
                    let src = b.station(Position { x, y: 0.0 });
                    let dst = b.station(Position {
                        x: x + 60.0,
                        y: 0.0,
                    });
                    b = b.flow(src.0, dst.0, traffic);
                }
            }
        }
        b.random_disk(bystanders, radius_m, 7)
            .day(day)
            .seed(seed)
            .duration(SimDuration::from_millis(600))
            .warmup(SimDuration::from_millis(100))
    }

    /// Every deterministic field of a report — all but the wall clock,
    /// the profile and the scattered-delivery count, which elision
    /// changes by design — with floats in their round-trip form.
    fn fingerprint(r: &RunReport) -> String {
        let e = &r.engine;
        let mut out = format!(
            "{:?} {:?} {:?} events={} kinds={:?} mobility={:?} qhw={} deaf={} sim={:?}\n",
            r.duration,
            r.warmup,
            r.flows,
            r.events,
            e.kinds,
            e.mobility,
            e.queue_high_water,
            e.deaf_stations,
            e.sim_elapsed
        );
        for n in &r.nodes {
            let a = n.airtime;
            out += &format!(
                "{n:?} refined=[{} {} {} {} {}]\n",
                a.nav_ns, a.difs_ns, a.backoff_ns, a.frozen_ns, a.quiet_ns
            );
        }
        out
    }

    /// Runs `scenario` elided and with full scatter, each with a JSONL
    /// trace. Asserts the two reports and traces are identical, and that
    /// every station classified deaf ended the full-scatter run with no
    /// lock, missed preamble, capture, RX or carrier-busy time. Returns
    /// the number of deaf stations.
    fn assert_elision_exact(label: &str, scenario: impl Fn() -> Scenario) -> usize {
        let run = |elide: bool| {
            let sink = SharedSink::new(JsonlSink::new(Vec::new()));
            let world = if elide {
                World::with_probe(scenario(), sink.clone(), NoProbe)
            } else {
                World::with_full_scatter(scenario(), sink.clone(), NoProbe)
            };
            let radio = *world.nodes[0].phy.config();
            let deaf = world.medium.deaf_receivers(
                &world.transmitters,
                radio.tx_power,
                radio.cs_threshold,
            );
            let report = world.run();
            let trace = sink
                .take()
                .into_inner()
                .expect("writing to a Vec cannot fail");
            (report, trace, deaf)
        };
        let (elided, elided_trace, deaf) = run(true);
        let (full, full_trace, _) = run(false);
        assert_eq!(
            fingerprint(&elided),
            fingerprint(&full),
            "{label}: elided report diverged from full scatter"
        );
        assert!(
            elided_trace == full_trace,
            "{label}: elided trace diverged from full scatter"
        );
        assert!(
            full.nodes.iter().any(|n| n.mac.delivered > 0),
            "{label}: no frame delivered"
        );
        let deaf_count = deaf.iter().filter(|&&d| d).count();
        assert_eq!(elided.engine.deaf_stations, deaf_count as u64, "{label}");
        for (node, _) in full.nodes.iter().zip(&deaf).filter(|(_, &d)| d) {
            let (p, a) = (node.phy, node.airtime);
            assert_eq!(
                (p.locks, p.missed_preambles, p.captures, a.rx_ns, a.busy_ns),
                (0, 0, 0, 0, 0),
                "{label}: deaf station {:?} heard something under full scatter",
                node.node
            );
        }
        if deaf_count > 0 {
            assert!(
                elided.engine.deliveries < full.engine.deliveries,
                "{label}: nothing elided"
            );
        }
        deaf_count
    }

    #[test]
    fn elision_is_exact_on_sparse_fields() {
        let days = [
            DayProfile::clear(),
            DayProfile::rainy(),
            DayProfile::still(),
        ];
        let kinds = [
            ("udp", Flows::SingleHop(UDP)),
            ("tcp", Flows::SingleHop(TCP)),
            ("chain", Flows::Chain(4)),
        ];
        for (k, &(kind, flows)) in kinds.iter().enumerate() {
            for (d, day) in days.iter().enumerate() {
                for full_fanout in [false, true] {
                    let label = format!("{kind}/{}/full_fanout={full_fanout}", day.name);
                    let seed = 1 + (k * 3 + d) as u64;
                    let deaf = assert_elision_exact(&label, || {
                        let b = sparse_field(120, 2_500.0, flows, 3, 350.0, day.clone(), seed);
                        if full_fanout { b.full_fanout() } else { b }.build()
                    });
                    assert!(deaf > 0, "{label}: the field has no deaf station");
                }
            }
        }
    }

    /// The production-scale check: a 4096-station field, too slow for a
    /// debug-mode test run. Run it with
    /// `cargo test --release -p dot11-adhoc -- --ignored`.
    #[test]
    #[ignore = "4096-station field; run in release with --ignored"]
    fn elision_is_exact_on_a_4096_station_field() {
        let deaf = assert_elision_exact("field4096", || {
            sparse_field(
                4096,
                12_000.0,
                Flows::SingleHop(UDP),
                16,
                700.0,
                DayProfile::clear(),
                3,
            )
            .duration(SimDuration::from_secs(2))
            .build()
        });
        assert!(deaf > 3_500, "only {deaf} of 4096 stations deaf");
    }

    /// Runs `scenario` and checks that its scatter elided nothing: no
    /// station classified deaf, and every frame reached its transmitter's
    /// whole audible set.
    fn assert_nothing_elided(label: &str, scenario: Scenario) {
        let world = World::new(scenario);
        let audible: Vec<u64> = (0..world.nodes.len())
            .map(|t| world.medium.audible_count(NodeId(t as u32)) as u64)
            .collect();
        let report = world.run();
        assert_eq!(report.engine.deaf_stations, 0, "{label}");
        let frames: u64 = report.nodes.iter().map(|n| n.phy.tx_frames).sum();
        assert!(frames > 0, "{label}: nothing transmitted");
        let full: u64 = report
            .nodes
            .iter()
            .zip(&audible)
            .map(|(n, &a)| n.phy.tx_frames * a)
            .sum();
        assert_eq!(report.engine.deliveries, full, "{label}");
    }

    #[test]
    fn delivery_and_deaf_counters_are_exact() {
        // A static 1024-station field: both counters pinned, and fewer
        // deliveries than the audible sets would scatter.
        let world = sparse_field(
            1024,
            6_000.0,
            Flows::SingleHop(UDP),
            4,
            350.0,
            DayProfile::clear(),
            5,
        )
        .build()
        .into_world();
        let audible: Vec<u64> = (0..world.nodes.len())
            .map(|t| world.medium.audible_count(NodeId(t as u32)) as u64)
            .collect();
        let report = world.run();
        assert_eq!(
            (report.engine.deaf_stations, report.engine.deliveries),
            (982, 75_705),
            "field1024 counters moved"
        );
        let full: u64 = report
            .nodes
            .iter()
            .zip(&audible)
            .map(|(n, &a)| n.phy.tx_frames * a)
            .sum();
        assert!(report.engine.deliveries < full);
        // Dense or mobile worlds elide nothing.
        assert_nothing_elided(
            "fig7 udp basic",
            crate::experiments::four_station::scenario(
                crate::experiments::ExpConfig::quick(),
                PhyRate::R11,
                crate::experiments::four_station::FourStationLayout::AsymmetricAt11,
                crate::experiments::four_station::SessionTransport::Udp,
                crate::analytic::AccessScheme::Basic,
            ),
        );
        assert_nothing_elided(
            "chain16",
            ScenarioBuilder::new(PhyRate::R2)
                .chain(16, 80.0)
                .duration(SimDuration::from_millis(300))
                .warmup(SimDuration::from_millis(100))
                .flow(0, 15, UDP)
                .build(),
        );
        let mut mobile = ScenarioBuilder::new(PhyRate::R2)
            .random_disk(64, 120.0, 7)
            .duration(SimDuration::from_millis(600))
            .warmup(SimDuration::from_millis(100))
            .mobility(
                crate::MobilityConfig::waypoint(20.0).with_epoch(SimDuration::from_millis(250)),
            );
        for (src, dst) in [(0, 1), (2, 3), (4, 5)] {
            mobile = mobile.flow(src, dst, UDP);
        }
        let report = mobile.build().run();
        assert_eq!(report.engine.deaf_stations, 0, "mobile-disk64");
        assert!(report.engine.mobility.epochs > 0);
        assert!(report.engine.deliveries > 0);
    }

    #[test]
    #[should_panic(expected = "station 0 transmitted but is outside the transmitter set")]
    fn transmission_from_outside_the_transmitter_set_panics() {
        let mut world = ScenarioBuilder::new(PhyRate::R2)
            .line(&[0.0, 50.0, 5_000.0])
            .flow(0, 1, UDP)
            .duration(SimDuration::from_millis(50))
            .warmup(SimDuration::from_millis(10))
            .build()
            .into_world();
        assert_eq!(world.transmitters(), &[true, true, false]);
        world.transmitters[0] = false;
        world.run();
    }

    #[test]
    fn transmitter_set_walks_routes_both_ways() {
        let mut routes = StaticRoutes::default();
        routes.add(NodeId(0), NodeId(3), NodeId(1));
        routes.add(NodeId(1), NodeId(3), NodeId(2));
        routes.add(NodeId(3), NodeId(0), NodeId(4));
        // A loop 5 → 6 → 5 toward 7 must terminate and keep both hops.
        routes.add(NodeId(5), NodeId(7), NodeId(6));
        routes.add(NodeId(6), NodeId(7), NodeId(5));
        let flow = |id, src, dst| FlowSpec {
            id: FlowId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            traffic: UDP,
            start: SimDuration::ZERO,
        };
        let set = transmitter_set(9, &[flow(0, 0, 3), flow(1, 5, 7)], &routes);
        assert_eq!(
            set,
            [true, true, true, true, true, true, true, true, false],
            "forward 0-1-2-3, reverse 3-4-0, looping 5-6 plus its reverse 7-5"
        );
    }
}
