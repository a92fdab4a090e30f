//! The simulation world: event dispatch across nodes and the medium.
//!
//! The [`World`] owns the simulator, the medium, and the state of every
//! station that is not deaf (see [`World::with_probe`]). Each
//! popped event is routed to the owning station's PHY/MAC/transport; the
//! actions they emit (transmissions, timers, deliveries) are executed
//! immediately, possibly recursing (a delivered TCP segment produces an
//! ACK, which enqueues at the MAC, which may arm a DIFS timer…). In an
//! untraced world, listeners (silent stations that hear frames) leave
//! the event loop: their deliveries are logged and replayed through the
//! same receiver step on a worker thread that overlaps dispatch (see the
//! `receiver` module).
//!
//! Determinism: all state mutation happens in event order; all randomness
//! flows from per-component substreams of the scenario seed. Two runs of
//! the same scenario are bit-identical.

use std::collections::HashMap;

use desim::{EventHandle, NoProbe, Probe, SimDuration, SimRng, SimTime, Simulator};
use dot11_mac::{DcfMac, FrameKind, MacAction, MacConfig, MacFrame, MacSdu, TimerKind};
use dot11_net::{CbrSource, SaturatedSource, TcpConfig};
use dot11_net::{FlowId, Packet, Segment, StaticRoutes, TcpOutput, TcpReceiver, TcpSender};
use dot11_phy::{
    CullPolicy, Dbm, Medium, MediumConfig, NodeId, PhyState, RadioConfig, Shadowing, StationRoles,
    TxId, TxSignal, CULL_MARGIN_DB,
};
use dot11_trace::{FrameClass, NullSink, TraceRecord, TraceSink};

use crate::mobility::MobilityEngine;
use crate::node::{Node, UdpSink};
use crate::receiver::{receive, sense_carrier, Edge, Replay};
use crate::scenario::{FlowSpec, Scenario, Traffic};
use crate::stats::{
    EngineStats, EventKindCounts, FlowReport, MobilityStats, NodeReport, RunReport,
};

pub(crate) fn frame_class(kind: FrameKind) -> FrameClass {
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
/// with it. The probe lives on the dispatch thread: the listeners'
/// receiver steps, which the replay worker runs, are in no scope, and
/// `phase_replay_wait` is the time the dispatch thread spends blocked
/// on that worker, mid-step (inside a signal kind scope) or in the
/// drain that ends each [`World::step_until`] (outside every kind
/// scope).
pub const PROBE_SCOPES: [&str; 23] = [
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
    "phase_replay_wait",
];

/// Phase-scope indices into [`PROBE_SCOPES`] (the kind scopes occupy
/// `0..17`).
pub(crate) const SCOPE_SCATTER: usize = 17;
pub(crate) const SCOPE_ARRIVAL_SCAN: usize = 18;
pub(crate) const SCOPE_BER_EVAL: usize = 19;
const SCOPE_MAC_ACTIONS: usize = 20;
const SCOPE_RESPONSE_BUILD: usize = 21;
pub(crate) const SCOPE_REPLAY_WAIT: usize = 22;

/// Dense per-station timer-slot count: one slot per [`TimerKind`].
const MAC_TIMER_SLOTS: usize = 8;

/// The `station_nodes` entry of a deaf station, which has no node.
const NO_NODE: u32 = u32::MAX;

/// The tag on a replayed listener's `station_nodes` entry, whose other
/// bits are its index among the replay's listener nodes (see
/// [`listener_of`]).
const LISTENER: u32 = 1 << 31;

/// The index into a world's `nodes` of station `id`, which must not be
/// deaf, given its `station_nodes` map. One array read at most: only a
/// world with deaf stations maps.
#[inline]
pub(crate) fn node_of(station_nodes: &[u32], id: NodeId) -> usize {
    if station_nodes.is_empty() {
        id.index()
    } else {
        station_nodes[id.index()] as usize
    }
}

/// The index among the replay's listener nodes of station `id`, which
/// must be a replayed listener, given its `station_nodes` map.
#[inline]
pub(crate) fn listener_of(station_nodes: &[u32], id: NodeId) -> usize {
    (station_nodes[id.index()] & !LISTENER) as usize
}

/// A station's substream label: `prefix` then the station's decimal
/// index, the bytes `format!` would produce, written into a stack buffer
/// (a 4-byte prefix plus at most ten digits). Returns the buffer and the
/// label's length.
fn station_label(prefix: &[u8; 4], station: u32) -> ([u8; 14], usize) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    let mut rest = station;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let mut label = [0u8; 14];
    let len = prefix.len() + digits.len() - at;
    label[..prefix.len()].copy_from_slice(prefix);
    label[prefix.len()..len].copy_from_slice(&digits[at..]);
    (label, len)
}

/// Arms the timer `timer` holds to fire `delay` from now: re-arms its
/// pending event in place, or schedules `ev` if it has none (never
/// armed, fired or cancelled). The pending event's payload is always
/// `ev`, so either way the timer pops exactly where cancelling it and
/// scheduling `ev` afresh would put it — in the trailing class if
/// `trailing`.
fn arm_timer(
    sim: &mut Simulator<Event>,
    timer: &mut Option<EventHandle>,
    delay: SimDuration,
    trailing: bool,
    ev: Event,
) {
    let rearmed = timer.is_some_and(|h| {
        if trailing {
            sim.rearm_in_trailing(h, delay)
        } else {
            sim.rearm_in(h, delay)
        }
    });
    if !rearmed {
        *timer = Some(if trailing {
            sim.schedule_in_trailing(delay, ev)
        } else {
            sim.schedule_in(delay, ev)
        });
    }
}

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
    /// Per-receiver signals of the participants (every receiver in a
    /// traced world), in station order. Walked by the batched
    /// signal-start/end handlers; the buffer is recycled through
    /// `delivery_pool` when the transmission ends.
    deliveries: Vec<(NodeId, TxSignal)>,
    /// The signal as every receiver sees it but for its power.
    signal: TxSignal,
    /// Launch instant and TX power, from which listener powers are
    /// sampled at replay.
    launched: SimTime,
    tx_power: Dbm,
    /// Listeners the transmission reaches outside the event loop: both
    /// signal events are logged for replay when this is nonzero.
    listeners: usize,
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
    /// The stations the event loop runs (all but deaf stations and
    /// replayed listeners), in station order. Handlers take an index
    /// into this table (`idx`), found once per event through
    /// [`World::node_idx`].
    nodes: Vec<Node<S>>,
    /// Each station's index into `nodes`, [`NO_NODE`] for a deaf one,
    /// and for a replayed listener its index among the replay's nodes
    /// tagged with [`LISTENER`]. Empty when every station is in `nodes`:
    /// then a station's index is its id.
    station_nodes: Vec<u32>,
    /// One deaf station, built like any other and never touched by the
    /// event loop: its row, stamped with each deaf station's id, is
    /// every deaf station's report row. `Some` only if a station is
    /// deaf.
    deaf_template: Option<Box<Node<S>>>,
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
    /// Dense per-station timer table: slot `idx * MAC_TIMER_SLOTS +
    /// timer_slot(kind)` for the station at `nodes[idx]`. Replaces a
    /// `HashMap` keyed on `(node, kind)` — MAC timers are armed/cancelled
    /// several times per frame exchange, making this one of the hottest
    /// state tables in the world.
    mac_timers: Vec<Option<EventHandle>>,
    /// Each flow's TCP retransmission timer, indexed by [`FlowId`]: a
    /// flow has one sender, so the flow id alone names the timer.
    rto_timers: Vec<Option<EventHandle>>,
    /// Each flow's delayed-ACK timer at its one receiver, indexed by
    /// [`FlowId`].
    delack_timers: Vec<Option<EventHandle>>,
    next_tag: u64,
    snapshot: HashMap<FlowId, u64>,
    routes: StaticRoutes,
    duration: SimDuration,
    warmup: SimDuration,
    /// Recycled buffers for the hot-path handlers (see [`BufPool`]).
    mac_action_pool: BufPool<MacAction<Packet>>,
    /// Where the receiver step pushes a station's MAC actions; nearly
    /// always left empty, and swapped for a pooled buffer when not (see
    /// [`World::apply_step_actions`]).
    step_actions: Vec<MacAction<Packet>>,
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
    /// The roles the medium was built from ([`station_roles`] in
    /// production). What the medium stored and skips rests on their
    /// transmitter set, so a transmission from outside it panics.
    roles: StationRoles,
    /// CSR entries the medium stored at construction.
    links_built: u64,
    /// Per-receiver signals delivered so far, scattered in the loop or
    /// logged for listener replay.
    deliveries: u64,
    /// The listeners' nodes and their log, replayed on a worker thread
    /// (see [`Replay`]).
    replay: Replay,
}

/// A station's node: its PHY and MAC on the station's own substreams of
/// `master`, both emitting to `sink`.
fn build_node<T: TraceSink + Clone>(
    id: NodeId,
    radio: RadioConfig,
    mac: MacConfig,
    master: &SimRng,
    sink: T,
) -> Node<T> {
    let (phy_label, phy_len) = station_label(b"phy/", id.0);
    let (mac_label, mac_len) = station_label(b"mac/", id.0);
    let phy = PhyState::with_sink(
        radio,
        master.substream(&phy_label[..phy_len]),
        id,
        sink.clone(),
    );
    let dcf = DcfMac::with_sink(id, mac, master.substream(&mac_label[..mac_len]), sink);
    Node::new(id, phy, dcf)
}

/// The scenario's station roles. The transmitter set is every station
/// on some flow's route, walked hop by hop (`next_hop(at, dst)`, or
/// `dst` itself when no route is installed) from source to destination
/// and back. The reverse route carries TCP ACK segments, and every hop
/// answers with MAC ACKs or CTS frames, so the stations on both walks
/// are the only ones a frame ever leaves. A walk takes at most `n` hops:
/// a route that loops keeps every packet on stations the walk has
/// already visited. Positions stay fixed unless the scenario has
/// mobility; every station transmits at the radio's one TX power.
fn station_roles(scenario: &Scenario) -> StationRoles {
    let n = scenario.positions.len();
    let mut set = vec![false; n];
    for f in &scenario.flows {
        for (from, to) in [(f.src, f.dst), (f.dst, f.src)] {
            let mut at = from;
            set[at.index()] = true;
            for _ in 0..n {
                if at == to {
                    break;
                }
                at = scenario.routes.next_hop(at, to).unwrap_or(to);
                set[at.index()] = true;
            }
        }
    }
    let radio = (scenario.radio.tx_power, scenario.radio.cs_threshold);
    StationRoles {
        transmitters: set,
        fixed: scenario.mobility.is_none().then_some(radio),
    }
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
    /// The medium is built from the scenario's [`StationRoles`], derived
    /// once from its flows, routes, mobility and radio. On a static
    /// scenario with stations outside the
    /// [transmitter set](World::transmitters), it builds only the
    /// transmitters' audible slices, and frames skip every deaf receiver:
    /// a silent station that no transmitter can make detect a preamble or
    /// sense energy (see [`Medium::new`]). A deaf station gets no node
    /// state either: no PHY, MAC or substreams, no timer slots and no
    /// share of the event-queue reserve. Its report row is that of one
    /// untouched station folded to the run's end and stamped with its id,
    /// which is exact because an untouched station's row depends on
    /// neither its id nor its streams. Unless `S` records a trace, the
    /// listeners (silent stations that are not deaf, and no flow's
    /// endpoint) run outside the event loop: their deliveries are logged
    /// as the loop dispatches them and replayed, listener by listener, on
    /// a worker thread, all of it before [`World::step_until`] returns.
    /// None of this changes a draw or a PHY call with an observable
    /// effect, so the report and the trace are the same as with every
    /// station built and full scatter.
    pub fn with_probe(scenario: Scenario, sink: S, probe: P) -> World<S, P> {
        let roles = station_roles(&scenario);
        World::assemble(scenario, sink, probe, roles)
    }

    fn assemble(scenario: Scenario, sink: S, probe: P, roles: StationRoles) -> World<S, P> {
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
        let config = MediumConfig {
            path_loss,
            day,
            propagation_delay: desim::SimDuration::from_micros(1),
            cull,
        };
        let medium = Medium::new(positions.clone(), shadowing, config, &roles);
        let links_built = medium.built_link_count() as u64;
        let mut radio = radio;
        radio.preamble = mac.preamble;
        let new_node = |id: NodeId| build_node(id, radio, mac, &master, sink.clone());
        // Unless `S` records a trace, listeners leave the event loop for
        // the replay, which holds their nodes untraced. A flow's endpoints
        // stay in the loop, which installs their traffic: with roles that
        // leave one silent, its first frame then panics as it should.
        let replayed = |id: NodeId| {
            !S::ENABLED
                && medium.is_listener(id)
                && !flows.iter().any(|f| f.src == id || f.dst == id)
        };
        let n = positions.len();
        let stations = (0..n).map(|i| NodeId(i as u32));
        let n_listeners = stations.clone().filter(|&id| replayed(id)).count();
        let looped = n - medium.deaf_count() - n_listeners;
        let mut nodes = Vec::with_capacity(looped);
        let mut listeners = Vec::with_capacity(n_listeners);
        let mut station_nodes = Vec::new();
        let mut deaf_template = None;
        if looped == n {
            nodes.extend(stations.map(new_node));
        } else {
            station_nodes.reserve_exact(n);
            for id in stations {
                if medium.is_deaf(id) {
                    station_nodes.push(NO_NODE);
                    deaf_template.get_or_insert_with(|| Box::new(new_node(id)));
                } else if replayed(id) {
                    station_nodes.push(LISTENER | listeners.len() as u32);
                    listeners.push(build_node(id, radio, mac, &master, NullSink));
                } else {
                    station_nodes.push(nodes.len() as u32);
                    nodes.push(new_node(id));
                }
            }
        }
        let mut sim = Simulator::new();
        // Pending events are bounded by a few timers per station plus a
        // few per transmission and flow; pre-size the queue so a late
        // population peak never reallocates mid-run. Only the loop's
        // stations ever have an event pending.
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
        let n_nodes = nodes.len();
        // The per-flow timer tables index by flow id; the scenario
        // builder numbers flows densely from 0, so they hold one entry
        // per flow.
        let n_flows = flows.iter().map(|f| f.id.0 as usize + 1).max().unwrap_or(0);
        let mut world = World {
            sim,
            medium,
            nodes,
            station_nodes,
            deaf_template,
            sink,
            probe,
            mac_actions_depth: 0,
            flows,
            in_flight: Vec::new(),
            mac_timers: vec![None; n_nodes * MAC_TIMER_SLOTS],
            rto_timers: vec![None; n_flows],
            delack_timers: vec![None; n_flows],
            next_tag: 1,
            snapshot: HashMap::new(),
            routes,
            duration,
            warmup,
            mac_action_pool: BufPool::new(),
            step_actions: Vec::new(),
            tcp_out_pool: BufPool::new(),
            delivery_pool: BufPool::new(),
            packet_scratch: Vec::new(),
            kind_counts: EventKindCounts::default(),
            mobility,
            mobility_stats: MobilityStats::default(),
            move_scratch: Vec::new(),
            roles,
            links_built,
            deliveries: 0,
            replay: Replay::new(listeners),
        };
        world.install_endpoints();
        world
    }

    fn install_endpoints(&mut self) {
        for f in self.flows.clone() {
            let (src, dst) = (self.node_idx(f.src), self.node_idx(f.dst));
            match f.traffic {
                Traffic::SaturatedUdp {
                    payload_bytes,
                    backlog,
                } => {
                    self.nodes[src].saturated_sources.insert(
                        f.id,
                        SaturatedSource::new(f.id, f.src, f.dst, payload_bytes, backlog),
                    );
                    self.nodes[src].saturated_flows.push(f.id);
                    self.nodes[dst].udp_sinks.insert(f.id, UdpSink::default());
                }
                Traffic::CbrUdp {
                    payload_bytes,
                    interval,
                    limit,
                } => {
                    self.nodes[src].cbr_sources.insert(
                        f.id,
                        CbrSource::new(f.id, f.src, f.dst, payload_bytes, interval, limit),
                    );
                    self.nodes[dst].udp_sinks.insert(f.id, UdpSink::default());
                }
                Traffic::BulkTcp { mss } => {
                    let cfg = TcpConfig::new(mss);
                    self.nodes[src].tcp_senders.insert(
                        f.id,
                        TcpSender::with_sink(f.id, f.src, f.dst, cfg, self.sink.clone()),
                    );
                    self.nodes[dst]
                        .tcp_receivers
                        .insert(f.id, TcpReceiver::new(f.id, f.dst, f.src, cfg));
                }
            }
        }
    }

    /// The index into `nodes` of station `id`, which must not be deaf
    /// (see [`node_of`]).
    #[inline]
    fn node_idx(&self, id: NodeId) -> usize {
        node_of(&self.station_nodes, id)
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
        &self.roles.transmitters
    }

    /// Dispatches events until the next one would land after `end`, then
    /// waits for the listeners' share of them to be replayed, so every
    /// station's state is current when it returns.
    ///
    /// In an untraced world with listeners, a worker thread replays them
    /// while this thread dispatches: each full chunk of the listener log
    /// goes to the worker with the listeners' nodes, and the next chunk
    /// is logged meanwhile (see the `receiver` module). The step ends
    /// with a drain barrier: the last chunk is handed off, and the worker
    /// hands the nodes back once it has replayed everything, so reports
    /// and accessors see every station current. The result does not
    /// depend on how the two threads are scheduled. A panic on the worker
    /// resumes here, on the calling thread.
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
        self.replay
            .drain(&mut self.medium, &self.station_nodes, &mut self.probe);
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
                let idx = self.node_idx(node);
                self.mac_timers[idx * MAC_TIMER_SLOTS + timer_slot(kind)] = None;
                let mut actions = self.mac_action_pool.get();
                if kind == TimerKind::SifsResponse {
                    // The SIFS-response build (precomputed CTS/ACK frame
                    // handed to the transmit path) gets its own phase
                    // scope so `engine.profile` keeps it visible.
                    let tick = self.probe.tick();
                    self.nodes[idx].mac.on_timer(kind, now, &mut actions);
                    self.probe.record(SCOPE_RESPONSE_BUILD, tick);
                } else {
                    self.nodes[idx].mac.on_timer(kind, now, &mut actions);
                }
                self.apply_mac_actions(idx, actions, now);
            }
            Event::RtoTimer { node, flow } => {
                self.rto_timers[flow.0 as usize] = None;
                let idx = self.node_idx(node);
                let mut outs = self.tcp_out_pool.get();
                if let Some(s) = self.nodes[idx].tcp_senders.get_mut(&flow) {
                    s.on_rto(now, &mut outs);
                }
                self.apply_tcp_outputs(idx, flow, outs, now);
            }
            Event::DelackTimer { node, flow } => {
                self.delack_timers[flow.0 as usize] = None;
                let idx = self.node_idx(node);
                let mut outs = self.tcp_out_pool.get();
                if let Some(r) = self.nodes[idx].tcp_receivers.get_mut(&flow) {
                    r.on_delack_timer(now, &mut outs);
                }
                self.apply_tcp_outputs(idx, flow, outs, now);
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
        let src = self.node_idx(spec.src);
        match spec.traffic {
            Traffic::SaturatedUdp { .. } => self.refill_saturated(src, now),
            Traffic::CbrUdp { .. } => self.on_cbr_tick(spec.src, flow, now),
            Traffic::BulkTcp { .. } => {
                let mut outs = self.tcp_out_pool.get();
                self.nodes[src]
                    .tcp_senders
                    .get_mut(&flow)
                    .expect("sender installed")
                    .start(now, &mut outs);
                self.apply_tcp_outputs(src, flow, outs, now);
            }
        }
    }

    fn on_cbr_tick(&mut self, node: NodeId, flow: FlowId, now: SimTime) {
        let idx = self.node_idx(node);
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
                    let ev = Event::RtoTimer {
                        node: self.nodes[idx].id,
                        flow,
                    };
                    let timer = &mut self.rto_timers[flow.0 as usize];
                    arm_timer(&mut self.sim, timer, delay, false, ev);
                }
                TcpOutput::CancelRto => {
                    if let Some(h) = self.rto_timers[flow.0 as usize].take() {
                        self.sim.cancel(h);
                    }
                }
                TcpOutput::ArmDelack(delay) => {
                    let ev = Event::DelackTimer {
                        node: self.nodes[idx].id,
                        flow,
                    };
                    let timer = &mut self.delack_timers[flow.0 as usize];
                    arm_timer(&mut self.sim, timer, delay, false, ev);
                }
                TcpOutput::CancelDelack => {
                    if let Some(h) = self.delack_timers[flow.0 as usize].take() {
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
                    let trailing = kind == TimerKind::BackoffBulk;
                    let timer = &mut self.mac_timers[idx * MAC_TIMER_SLOTS + timer_slot(kind)];
                    arm_timer(&mut self.sim, timer, delay, trailing, ev);
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
            self.roles.transmitters[source.index()],
            "station {} transmitted but is outside the transmitter set \
             (no flow routes through it); deaf-receiver elision would be unsound",
            source.0
        );
        assert!(
            !self.nodes[idx].phy.is_transmitting(),
            "station {} started a frame while its previous one is on the air",
            source.0
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
        // Uniform propagation delay: every receiver shares the arrival and
        // departure instants, so one event each covers the whole fan-out.
        let starts_at = now + self.medium.propagation_delay();
        let signal = TxSignal {
            tx_id,
            source,
            rx_power: Dbm(f64::NAN),
            rate,
            mpdu_bytes: frame.mpdu_bytes,
            preamble: radio.preamble,
            starts_at,
            ends_at: starts_at + airtime.total(),
        };
        let mut listeners = self.medium.listeners(source).len();
        if S::ENABLED && listeners > 0 {
            // A traced world keeps listeners in the loop, walked in
            // station order with the participants, so its trace records
            // interleave exactly as they would with every station there.
            self.medium
                .sample_listeners(source, radio.tx_power, now, |rx, rx_power| {
                    deliveries.push((rx, TxSignal { rx_power, ..signal }));
                });
            deliveries.sort_unstable_by_key(|&(rx, _)| rx);
            listeners = 0;
        }
        self.probe.record(SCOPE_SCATTER, tick);
        self.deliveries += (deliveries.len() + listeners) as u64;
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
        if deliveries.is_empty() && listeners == 0 {
            // Nobody in range: no signal events, no in-flight entry.
            self.delivery_pool.put(deliveries);
            return;
        }
        debug_assert!(deliveries
            .iter()
            .all(|(_, s)| s.starts_at == signal.starts_at && s.ends_at == signal.ends_at));
        // A frame that reaches only listeners still schedules both
        // events: their kinds and counts belong to the run's record.
        self.sim
            .schedule_at(signal.starts_at, Event::SignalStart { tx_id });
        self.sim
            .schedule_at(signal.ends_at, Event::SignalEnd { tx_id });
        debug_assert!(
            self.in_flight.last().is_none_or(|(last, _)| *last < tx_id),
            "medium tx ids must be monotonic for sorted push-back"
        );
        self.in_flight.push((
            tx_id,
            InFlight {
                frame,
                deliveries,
                signal,
                launched: now,
                tx_power: radio.tx_power,
                listeners,
            },
        ));
    }

    /// Index of a live transmission in the sorted `in_flight` table.
    fn in_flight_idx(&self, tx_id: TxId) -> usize {
        self.in_flight
            .binary_search_by_key(&tx_id, |e| e.0)
            .expect("in-flight entry lives until its own signal end")
    }

    fn on_signal_start(&mut self, tx_id: TxId, now: SimTime) {
        // Take the delivery list out of its entry for the walk: a
        // receiver's actions can recurse into `apply_mac_actions` and push
        // new in-flight entries, so no borrow of the table may be held
        // across receivers — but nothing in that recursion can touch
        // *this* transmission's deliveries, so an owned take is safe and
        // replaces the two map lookups per receiver of the old scheme
        // with none. The buffer goes back afterwards; `on_signal_end`
        // walks the same one.
        let i = self.in_flight_idx(tx_id);
        let entry = &self.in_flight[i].1;
        let (signal, launched, tx_power, listeners) = (
            entry.signal,
            entry.launched,
            entry.tx_power,
            entry.listeners,
        );
        if listeners > 0 {
            debug_assert_eq!(now, signal.starts_at);
            self.make_room_in_log(listeners);
            self.replay.log_start(signal, launched, tx_power, listeners);
        }
        let deliveries = std::mem::take(&mut self.in_flight[i].1.deliveries);
        for &(rx, ref sig) in &deliveries {
            let idx = self.node_idx(rx);
            receive(
                &mut self.nodes[idx],
                Edge::Start(sig),
                now,
                &mut self.sink,
                &mut self.probe,
                &mut self.step_actions,
            );
            self.apply_step_actions(idx, now);
            self.sync_cs(idx, now);
        }
        let i = self.in_flight_idx(tx_id);
        self.in_flight[i].1.deliveries = deliveries;
    }

    fn on_signal_end(&mut self, tx_id: TxId, now: SimTime) {
        let i = self.in_flight_idx(tx_id);
        let deliveries = std::mem::take(&mut self.in_flight[i].1.deliveries);
        for &(rx, _) in &deliveries {
            // The receivers' actions only push in-flight entries, at the
            // back (ids are monotonic), so `i` stays this transmission's.
            self.signal_end_at(rx, i, now);
        }
        debug_assert_eq!(self.in_flight[i].0, tx_id);
        let (_, entry) = self.in_flight.remove(i);
        self.delivery_pool.put(deliveries);
        if entry.listeners > 0 {
            debug_assert_eq!(now, entry.signal.ends_at);
            self.make_room_in_log(entry.listeners);
            self.replay
                .log_end(entry.signal, entry.frame, entry.listeners);
        }
    }

    /// Hands the listener log off for replay first if an event reaching
    /// `listeners` listeners would overfill it. Listeners are independent
    /// of every other station, so replaying mid-dispatch changes nothing.
    fn make_room_in_log(&mut self, listeners: usize) {
        if self.replay.is_full_for(listeners) {
            self.replay
                .hand_off(&mut self.medium, &self.station_nodes, &mut self.probe);
        }
    }

    /// One receiver's share of a transmission's end, in the loop: the
    /// receiver step, its actions applied between its two halves. Runs
    /// in station order from [`World::on_signal_end`], exactly like the
    /// unbatched per-receiver events did.
    fn signal_end_at(&mut self, rx: NodeId, in_flight: usize, now: SimTime) {
        let idx = self.node_idx(rx);
        let (tx_id, entry) = &self.in_flight[in_flight];
        let edge = Edge::End {
            tx_id: *tx_id,
            frame: &entry.frame,
        };
        receive(
            &mut self.nodes[idx],
            edge,
            now,
            &mut self.sink,
            &mut self.probe,
            &mut self.step_actions,
        );
        self.apply_step_actions(idx, now);
        self.sync_cs(idx, now);
    }

    /// Applies what a receiver step pushed onto `step_actions`, if
    /// anything, through a pooled buffer: applying can recurse into
    /// another step, which then finds `step_actions` empty again.
    fn apply_step_actions(&mut self, idx: usize, now: SimTime) {
        if !self.step_actions.is_empty() {
            let fresh = self.mac_action_pool.get();
            let actions = std::mem::replace(&mut self.step_actions, fresh);
            self.apply_mac_actions(idx, actions, now);
        }
    }

    fn on_tx_air_end(&mut self, node: NodeId, tx_id: TxId, now: SimTime) {
        let _ = tx_id;
        let idx = self.node_idx(node);
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

    /// Reports carrier-sense edges to the MAC and applies its actions
    /// (see [`sense_carrier`]).
    fn sync_cs(&mut self, idx: usize, now: SimTime) {
        sense_carrier(&mut self.nodes[idx], now, &mut self.step_actions);
        self.apply_step_actions(idx, now);
    }

    // --- reporting -------------------------------------------------------------

    fn delivered_bytes(&self, spec: &FlowSpec) -> u64 {
        let dst = &self.nodes[self.node_idx(spec.dst)];
        match spec.traffic {
            Traffic::SaturatedUdp { .. } | Traffic::CbrUdp { .. } => dst
                .udp_sinks
                .get(&spec.id)
                .map(|s| s.payload_bytes)
                .unwrap_or(0),
            Traffic::BulkTcp { .. } => dst
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
        for n in self
            .nodes
            .iter_mut()
            .chain(self.deaf_template.as_deref_mut())
        {
            n.phy.account_airtime(end);
            n.mac.account_airtime(end);
        }
        for n in self.replay.listeners_mut() {
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
                let (src, dst) = (
                    &self.nodes[self.node_idx(f.src)],
                    &self.nodes[self.node_idx(f.dst)],
                );
                let (mean_delay_ms, max_delay_ms) = dst
                    .udp_sinks
                    .get(&f.id)
                    .map(|s| (s.mean_delay_ms(), s.delay_max_ns as f64 / 1e6))
                    .unwrap_or((0.0, 0.0));
                let (offered, delivered_packets, loss) = match f.traffic {
                    Traffic::SaturatedUdp { .. } | Traffic::CbrUdp { .. } => {
                        let offered = src
                            .saturated_sources
                            .get(&f.id)
                            .map(|s| s.emitted())
                            .or_else(|| src.cbr_sources.get(&f.id).map(|s| s.emitted()))
                            .unwrap_or(0);
                        let got = dst.udp_sinks.get(&f.id).map(|s| s.datagrams).unwrap_or(0);
                        let loss = if offered > 0 {
                            1.0 - got as f64 / offered as f64
                        } else {
                            0.0
                        };
                        (offered, got, loss)
                    }
                    Traffic::BulkTcp { mss } => {
                        let offered = src
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
        let deaf_row = self.deaf_template.as_deref().map(node_report);
        let nodes = if self.station_nodes.is_empty() {
            self.nodes.iter().map(node_report).collect()
        } else {
            let listeners = self.replay.listeners();
            self.station_nodes
                .iter()
                .enumerate()
                .map(|(i, &k)| match k {
                    NO_NODE => NodeReport {
                        node: NodeId(i as u32),
                        ..deaf_row.expect("a world with a deaf station keeps its template")
                    },
                    k if k & LISTENER != 0 => node_report(&listeners[(k & !LISTENER) as usize]),
                    k => node_report(&self.nodes[k as usize]),
                })
                .collect()
        };
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
                deaf_stations: self.medium.deaf_count() as u64,
                links_built: self.links_built,
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

/// A station's report row: its counters, and the MAC's defer ledger
/// merged into the PHY's airtime split. The five refinement categories
/// partition the PHY's idle share (bit-exactly — asserted by the airtime
/// conservation tests), giving the exhaustive channel-state accounting in
/// one struct.
fn node_report<S: TraceSink>(n: &Node<S>) -> NodeReport {
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
}

impl<S: TraceSink + Clone, P: Probe> std::fmt::Debug for World<S, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("stations", &self.medium.station_count())
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
    /// the profile and the counters elision changes by design (scattered
    /// deliveries, deaf stations, links built) — with floats in their
    /// round-trip form.
    fn fingerprint(r: &RunReport) -> String {
        let e = &r.engine;
        let mut out = format!(
            "{:?} {:?} {:?} events={} kinds={:?} mobility={:?} qhw={} sim={:?}\n",
            r.duration,
            r.warmup,
            r.flows,
            r.events,
            e.kinds,
            e.mobility,
            e.queue_high_water,
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

    /// How many stations have node state: the loop's and the replayed
    /// listeners'.
    fn node_state<S: TraceSink + Clone, P: Probe>(world: &World<S, P>) -> usize {
        world.nodes.len() + world.replay.listeners().len()
    }

    /// Σ [`Medium::audible_count`] over a world's transmitter set, and
    /// over every station.
    fn audible_sums<S: TraceSink + Clone, P: Probe>(world: &World<S, P>) -> (u64, u64) {
        let count = |t: usize| world.medium.audible_count(NodeId(t as u32)) as u64;
        let n = world.medium.station_count();
        (
            (0..n).filter(|&t| world.transmitters()[t]).map(count).sum(),
            (0..n).map(count).sum(),
        )
    }

    /// Runs `scenario` as built (transmitter slices only, deaf receivers
    /// elided) and as the reference (roles in which every station may
    /// transmit: every slice built, full scatter), each with a JSONL
    /// trace. Asserts the two reports and traces are identical, that each
    /// world stored exactly its transmitters' slices (`links_built`: the
    /// reference's transmitters are every station), that each world built
    /// node state for exactly `n − deaf_stations` stations (the reference:
    /// every station), and that every station the production medium
    /// classified deaf ended the full-scatter run with no lock, missed
    /// preamble, capture, RX or carrier-busy time. Returns the number of
    /// deaf stations.
    fn assert_elision_exact(label: &str, scenario: impl Fn() -> Scenario) -> usize {
        let run = |reference: bool| {
            let sink = SharedSink::new(JsonlSink::new(Vec::new()));
            let world = if reference {
                let scenario = scenario();
                let roles = StationRoles::unrestricted(scenario.positions.len());
                World::assemble(scenario, sink.clone(), NoProbe, roles)
            } else {
                World::with_probe(scenario(), sink.clone(), NoProbe)
            };
            let n = world.medium.station_count();
            let deaf: Vec<bool> = (0..n)
                .map(|t| world.medium.is_deaf(NodeId(t as u32)))
                .collect();
            let (transmitter_links, all_links) = audible_sums(&world);
            if reference {
                assert_eq!(transmitter_links, all_links, "{label}: reference roles");
            }
            let node_state = node_state(&world);
            let report = world.run();
            assert_eq!(
                report.engine.links_built, transmitter_links,
                "{label}: links built (reference: {reference})"
            );
            assert_eq!(
                node_state as u64,
                n as u64 - report.engine.deaf_stations,
                "{label}: stations with node state (reference: {reference})"
            );
            let trace = sink
                .take()
                .into_inner()
                .expect("writing to a Vec cannot fail");
            (report, trace, deaf)
        };
        let (elided, elided_trace, deaf) = run(false);
        let (full, full_trace, reference_deaf) = run(true);
        assert!(!reference_deaf.contains(&true), "{label}: reference elided");
        assert_eq!(full.engine.deaf_stations, 0, "{label}");
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

    /// Runs `scenario` three ways: as built (listeners replayed after
    /// dispatch), traced (listeners walked in the loop: a traced world
    /// never replays), and as the in-loop reference built from
    /// [`StationRoles::unrestricted`] (every slice built, every receiver
    /// in the loop). Asserts the three reports are bit for bit the same,
    /// and that the replayed and traced worlds count the deliveries a
    /// loop that skips only deaf receivers scatters: each transmitter's
    /// frames times its audible receivers that are not deaf. Returns how
    /// many listener edges (signal starts and ends) the replayed world
    /// replayed, and whether some frame reached only listeners.
    fn assert_replay_exact(label: &str, scenario: impl Fn() -> Scenario) -> (u64, bool) {
        let end = |s: &Scenario| SimTime::ZERO + s.duration;
        let reference = {
            let scenario = scenario();
            let roles = StationRoles::unrestricted(scenario.positions.len());
            World::assemble(scenario, NullSink, NoProbe, roles).run()
        };
        let traced = {
            let scenario = scenario();
            let until = end(&scenario);
            let sink = SharedSink::new(JsonlSink::new(Vec::new()));
            let mut world = World::with_sink(scenario, sink);
            world.step_until(until);
            assert_eq!(world.replay.replayed, 0, "{label}: a traced world replayed");
            world.run()
        };
        let scenario = scenario();
        let until = end(&scenario);
        let mut world = World::new(scenario);
        let medium = world.medium();
        let n = medium.station_count();
        let transmitters: Vec<usize> = (0..n).filter(|&t| world.transmitters()[t]).collect();
        let hearing = |t: usize| {
            let set = medium.audible_set(NodeId(t as u32));
            let participants = set.iter().filter(|r| world.transmitters()[r.index()]);
            let listeners = medium.listeners(NodeId(t as u32));
            (
                set.iter().filter(|r| !medium.is_deaf(**r)).count() as u64,
                participants.count(),
                listeners.len(),
            )
        };
        let hearing: Vec<(u64, usize, usize)> = transmitters.iter().map(|&t| hearing(t)).collect();
        world.step_until(until);
        let replayed = world.replay.replayed;
        let replayed_report = world.run();
        for (name, other) in [("reference", &reference), ("traced", &traced)] {
            assert_eq!(
                fingerprint(&replayed_report),
                fingerprint(other),
                "{label}: replayed report diverged from the {name} world"
            );
        }
        let scattered: u64 = transmitters
            .iter()
            .zip(&hearing)
            .map(|(&t, &(non_deaf, _, _))| replayed_report.nodes[t].phy.tx_frames * non_deaf)
            .sum();
        assert_eq!(replayed_report.engine.deliveries, scattered, "{label}");
        assert_eq!(traced.engine.deliveries, scattered, "{label}");
        assert!(
            replayed_report.nodes.iter().any(|n| n.mac.delivered > 0),
            "{label}: no frame delivered"
        );
        let listeners_only = transmitters
            .iter()
            .zip(&hearing)
            .any(|(&t, &(_, p, l))| p == 0 && l > 0 && replayed_report.nodes[t].phy.tx_frames > 0);
        (replayed, listeners_only)
    }

    #[test]
    fn listener_replay_is_exact_on_sparse_fields() {
        for (k, (kind, flows)) in [
            ("udp", Flows::SingleHop(UDP)),
            ("tcp", Flows::SingleHop(TCP)),
            ("chain", Flows::Chain(4)),
        ]
        .into_iter()
        .enumerate()
        {
            for (d, day) in [
                DayProfile::clear(),
                DayProfile::rainy(),
                DayProfile::still(),
            ]
            .into_iter()
            .enumerate()
            {
                let label = format!("{kind}/{}", day.name);
                let seed = 11 + (k * 3 + d) as u64;
                let (replayed, _) = assert_replay_exact(&label, || {
                    sparse_field(300, 1_500.0, flows, 3, 350.0, day.clone(), seed)
                        .random_disk(40, 1_500.0, seed)
                        .build()
                });
                assert!(replayed > 0, "{label}: nothing replayed");
            }
        }
    }

    /// A frame can reach only listeners: a sender whose receiver stands
    /// far out of range, among bystanders, keeps transmitting (and
    /// retrying) with no participant in earshot.
    #[test]
    fn listener_replay_is_exact_for_frames_only_listeners_hear() {
        for seed in [1, 2] {
            let label = format!("lonely sender, seed {seed}");
            let (replayed, listeners_only) = assert_replay_exact(&label, || {
                ScenarioBuilder::new(PhyRate::R2)
                    .line(&[0.0, 30_000.0, 60_000.0, 60_060.0])
                    .flow(0, 1, UDP)
                    .flow(2, 3, UDP)
                    .random_disk(150, 600.0, seed)
                    .seed(seed)
                    .duration(SimDuration::from_millis(400))
                    .warmup(SimDuration::from_millis(100))
                    .build()
            });
            assert!(replayed > 0, "{label}: nothing replayed");
            assert!(listeners_only, "{label}: no frame reached only listeners");
        }
    }

    /// The production-scale replay check on the 4096-station field of
    /// `elision_is_exact_on_a_4096_station_field`. Release-only: run it
    /// with `cargo test --release -p dot11-adhoc -- --ignored`.
    #[test]
    #[ignore = "4096-station field; run in release with --ignored"]
    fn listener_replay_is_exact_on_a_4096_station_field() {
        let (replayed, _) = assert_replay_exact("field4096", || {
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
        assert!(
            replayed > 1_000_000,
            "only {replayed} listener edges replayed"
        );
    }

    /// A sparse field whose listeners take most of its deliveries.
    fn listening_field(seed: u64) -> Scenario {
        sparse_field(
            300,
            1_500.0,
            Flows::SingleHop(UDP),
            3,
            350.0,
            DayProfile::clear(),
            seed,
        )
        .random_disk(40, 1_500.0, seed)
        .duration(SimDuration::from_millis(500))
        .build()
    }

    /// Stepping a field with listeners in 25 segments of 20 ms drains
    /// the replay worker and takes the listeners' nodes back at every
    /// boundary, where they must be readable and current; the report
    /// must match one `run()` bit for bit.
    #[test]
    fn segmented_stepping_matches_one_run() {
        let whole = World::new(listening_field(21)).run();
        let mut world = World::new(listening_field(21));
        let mut locks = 0;
        for k in 1..=25 {
            world.step_until(SimTime::ZERO + SimDuration::from_millis(20 * k));
            let now: u64 = world
                .replay
                .listeners()
                .iter()
                .map(|n| n.phy_counters().locks)
                .sum();
            assert!(now >= locks, "segment {k}: listener locks went back");
            locks = now;
        }
        assert!(world.replay.replayed > 0, "nothing replayed");
        assert!(locks > 0, "no listener locked");
        let segmented = world.run();
        assert_eq!(fingerprint(&segmented), fingerprint(&whole));
        assert_eq!(segmented.engine.deliveries, whole.engine.deliveries);
    }

    /// The replay worker is joined when its world drops mid-run: what
    /// its thread holds is gone once `drop` returns.
    #[test]
    fn dropping_a_world_mid_run_joins_its_worker() {
        let mut world = World::new(listening_field(22));
        world.step_until(SimTime::ZERO + SimDuration::from_millis(100));
        let alive = world.replay.worker_alive().expect("the worker started");
        assert!(alive.upgrade().is_some());
        drop(world);
        assert!(
            alive.upgrade().is_none(),
            "the replay worker outlived its world"
        );
    }

    /// A panic on the replay worker resumes from `step_until` on the
    /// calling thread instead of hanging it. The panic here comes from
    /// listeners that have a frame to send: the first carrier-sense edge
    /// one of them replays makes its MAC arm a timer.
    #[test]
    #[should_panic(expected = "asked for StartTimer")]
    fn a_panic_on_the_replay_worker_resumes_in_step_until() {
        let mut world = World::new(listening_field(23));
        for listener in world.replay.listeners_mut() {
            let packet = Packet {
                flow: FlowId(0),
                src: listener.id,
                dst: NodeId(0),
                seg: Segment::Udp { seq: 0 },
                payload_bytes: 512,
                sent_at: SimTime::ZERO,
            };
            let sdu = MacSdu {
                dst: NodeId(0),
                bytes: packet.wire_bytes(),
                tag: 0,
                payload: packet,
            };
            listener.mac.enqueue(sdu, SimTime::ZERO, &mut Vec::new());
        }
        world.step_until(SimTime::ZERO + SimDuration::from_millis(500));
    }

    /// The static disk4096 sweep-registry scenario (4,096 stations on a
    /// 12 km disk from topology seed 7, saturated UDP 0→1, 2→3, 4→5 at
    /// 2 Mb/s, run seed 1, 300 ms): its transmitters' slices are all that
    /// construction stores, under 1/20 of every station's, only its
    /// stations that are not deaf get node state, and its event and
    /// delivery counts are pinned exactly (the events are the CI smoke
    /// sweep's disk4096 budget). Release-only, like the other
    /// 4096-station test.
    #[test]
    #[ignore = "4096-station field; run in release with --ignored"]
    fn disk4096_builds_only_its_transmitters_slices() {
        let mut b = ScenarioBuilder::new(PhyRate::R2)
            .random_disk(4096, 12_000.0, 7)
            .seed(1)
            .duration(SimDuration::from_millis(300))
            .warmup(SimDuration::from_millis(100));
        for (src, dst) in [(0, 1), (2, 3), (4, 5)] {
            b = b.flow(src, dst, UDP);
        }
        let world = b.build().into_world();
        let (transmitter_links, all_links) = audible_sums(&world);
        let node_state = node_state(&world) as u64;
        let report = world.run();
        assert_eq!(
            (report.engine.events, report.engine.deliveries),
            (922, 1_866),
            "disk4096 events or deliveries moved"
        );
        assert_eq!(report.engine.links_built, transmitter_links);
        assert!(report.engine.deaf_stations > 3_500);
        assert_eq!(node_state, 4096 - report.engine.deaf_stations);
        assert!(
            report.engine.links_built * 20 < all_links,
            "built {} of {all_links} links",
            report.engine.links_built
        );
    }

    /// Runs `scenario`, a static world in which every station may
    /// transmit, and checks that its scatter elided nothing: no station
    /// classified deaf, every slice built, and every frame reached its
    /// transmitter's whole audible set.
    fn assert_nothing_elided(label: &str, scenario: Scenario) {
        let world = World::new(scenario);
        assert!(
            !world.transmitters().contains(&false),
            "{label}: every station may transmit"
        );
        let audible: Vec<u64> = (0..world.medium.station_count())
            .map(|t| world.medium.audible_count(NodeId(t as u32)) as u64)
            .collect();
        assert_eq!(node_state(&world), audible.len(), "{label}: node state");
        let report = world.run();
        assert_eq!(report.engine.deaf_stations, 0, "{label}");
        assert_eq!(report.engine.links_built, audible.iter().sum(), "{label}");
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
        // A static 1024-station field: both counters pinned, fewer
        // deliveries than the audible sets would scatter, and only the
        // transmitters' slices built.
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
        let audible: Vec<u64> = (0..world.medium.station_count())
            .map(|t| world.medium.audible_count(NodeId(t as u32)) as u64)
            .collect();
        let (transmitter_links, all_links) = audible_sums(&world);
        assert!(transmitter_links < all_links);
        let node_state = node_state(&world) as u64;
        let report = world.run();
        assert_eq!(
            node_state,
            audible.len() as u64 - report.engine.deaf_stations
        );
        assert_eq!(
            (report.engine.deaf_stations, report.engine.deliveries),
            (982, 75_705),
            "field1024 counters moved"
        );
        assert_eq!(report.engine.links_built, transmitter_links);
        let full: u64 = report
            .nodes
            .iter()
            .zip(&audible)
            .map(|(n, &a)| n.phy.tx_frames * a)
            .sum();
        assert!(report.engine.deliveries < full);
        // Dense or mobile worlds elide nothing and build every slice.
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
        let world = mobile.build().into_world();
        assert!(
            world.transmitters().contains(&false),
            "mobile-disk64 has silent stations"
        );
        let (_, all_links) = audible_sums(&world);
        let report = world.run();
        assert_eq!(report.engine.links_built, all_links, "mobile-disk64");
        assert_eq!(report.engine.deaf_stations, 0, "mobile-disk64");
        assert!(report.engine.mobility.epochs > 0);
        assert!(report.engine.deliveries > 0);
    }

    /// Runs `scenario` in a world built from its derived roles with
    /// station 0, a flow source, taken out of the transmitter set.
    fn run_without_station_0(scenario: Scenario) {
        let mut roles = station_roles(&scenario);
        assert!(roles.transmitters[0], "station 0 sends a flow");
        roles.transmitters[0] = false;
        World::assemble(scenario, NullSink, NoProbe, roles).run();
    }

    #[test]
    #[should_panic(expected = "station 0 transmitted but is outside the transmitter set")]
    fn transmission_from_outside_the_transmitter_set_panics() {
        run_without_station_0(
            ScenarioBuilder::new(PhyRate::R2)
                .line(&[0.0, 50.0, 5_000.0])
                .flow(0, 1, UDP)
                .duration(SimDuration::from_millis(50))
                .warmup(SimDuration::from_millis(10))
                .build(),
        );
    }

    /// A mobile world builds every slice, yet still enforces its
    /// transmitter set.
    #[test]
    #[should_panic(expected = "station 0 transmitted but is outside the transmitter set")]
    fn mobile_transmission_from_outside_the_transmitter_set_panics() {
        run_without_station_0(
            ScenarioBuilder::new(PhyRate::R2)
                .random_disk(16, 120.0, 7)
                .flow(0, 1, UDP)
                .duration(SimDuration::from_millis(50))
                .warmup(SimDuration::from_millis(10))
                .mobility(crate::MobilityConfig::waypoint(20.0))
                .build(),
        );
    }

    #[test]
    fn station_labels_match_format() {
        for i in [0, 9, 10, 4095, u32::MAX] {
            for prefix in [b"phy/", b"mac/"] {
                let (label, len) = station_label(prefix, i);
                let expected = format!("{}{i}", std::str::from_utf8(prefix).unwrap());
                assert_eq!(&label[..len], expected.as_bytes());
            }
        }
    }

    /// The derived roles: every station on a flow's route, forward and
    /// back, may transmit; positions are fixed, with the radio's TX power
    /// and carrier-sense threshold, unless the scenario moves.
    #[test]
    fn station_roles_walk_routes_both_ways() {
        let mut routes = StaticRoutes::default();
        routes.add(NodeId(0), NodeId(3), NodeId(1));
        routes.add(NodeId(1), NodeId(3), NodeId(2));
        routes.add(NodeId(3), NodeId(0), NodeId(4));
        // A loop 5 → 6 → 5 toward 7 must terminate and keep both hops.
        routes.add(NodeId(5), NodeId(7), NodeId(6));
        routes.add(NodeId(6), NodeId(7), NodeId(5));
        let scenario = || {
            ScenarioBuilder::new(PhyRate::R2)
                .chain(9, 30.0)
                .routes(routes.clone())
                .flow(0, 3, UDP)
                .flow(5, 7, UDP)
                .build()
        };
        let expected = vec![true, true, true, true, true, true, true, true, false];
        let radio = scenario().radio;
        assert_eq!(
            station_roles(&scenario()),
            StationRoles {
                transmitters: expected.clone(),
                fixed: Some((radio.tx_power, radio.cs_threshold)),
            },
            "forward 0-1-2-3, reverse 3-4-0, looping 5-6 plus its reverse 7-5"
        );
        let mobile = scenario().with_mobility(crate::MobilityConfig::waypoint(5.0));
        assert_eq!(
            station_roles(&mobile),
            StationRoles {
                transmitters: expected,
                fixed: None,
            }
        );
    }
}
