//! Run reports: per-flow throughput/loss and per-node counters.

use desim::SimDuration;
use dot11_mac::{ArfCounters, MacCounters};
use dot11_net::FlowId;
use dot11_phy::{state::PhyCounters, Airtime, NodeId, PhyRate};

/// Measured results for one flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowReport {
    /// The flow.
    pub flow: FlowId,
    /// Data source station.
    pub src: NodeId,
    /// Data sink station.
    pub dst: NodeId,
    /// Packets (UDP datagrams / TCP data segments) emitted by the source,
    /// including TCP retransmissions.
    pub offered_packets: u64,
    /// Application payload bytes delivered in order over the whole run.
    pub delivered_bytes: u64,
    /// UDP datagrams delivered (TCP: delivered bytes / MSS).
    pub delivered_packets: u64,
    /// Payload bytes delivered inside the measurement window
    /// (after warm-up).
    pub measured_bytes: u64,
    /// Application-level throughput over the measurement window, kb/s.
    pub throughput_kbps: f64,
    /// End-to-end datagram loss over the whole run (UDP flows;
    /// 0 for TCP, which retransmits).
    pub loss_rate: f64,
    /// Mean end-to-end datagram delay, ms (UDP flows; 0 for TCP).
    pub mean_delay_ms: f64,
    /// Maximum end-to-end datagram delay, ms (UDP flows; 0 for TCP).
    pub max_delay_ms: f64,
}

/// Per-station counters after a run.
#[derive(Debug, Clone, Copy)]
pub struct NodeReport {
    /// The station.
    pub node: NodeId,
    /// MAC counters.
    pub mac: MacCounters,
    /// PHY counters.
    pub phy: PhyCounters,
    /// ARF rate-switching counters (zero when ARF is off).
    pub arf: ArfCounters,
    /// The data rate in effect when the run ended (moves only under ARF).
    pub final_data_rate: PhyRate,
    /// How this station's airtime split between transmitting, receiving
    /// (locked — the "deaf" share), sensing-busy and idle.
    pub airtime: Airtime,
}

/// How many events of each kind the simulator dispatched during a run.
///
/// One counter per [`Event`](crate::world::Event) variant, with MAC timers
/// broken out per [`TimerKind`](dot11_mac::TimerKind) — the per-kind view
/// is what makes an event-count regression diagnosable (e.g. a change that
/// silently reintroduces per-slot backoff events shows up as a
/// `mac_backoff_slot` explosion while everything else holds still).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventKindCounts {
    /// Traffic-source starts.
    pub flow_start: u64,
    /// Signal batches arriving at the receivers (one per transmission).
    pub signal_start: u64,
    /// Signal batches leaving the receivers (one per transmission).
    pub signal_end: u64,
    /// Transmitter finished keying a frame out.
    pub tx_air_end: u64,
    /// DIFS/EIFS deferral expiries.
    pub mac_difs: u64,
    /// Coalesced bulk-backoff expiries (all but the final slot).
    pub mac_backoff_bulk: u64,
    /// Final backoff-slot expiries.
    pub mac_backoff_slot: u64,
    /// CTS timeouts.
    pub mac_cts_timeout: u64,
    /// ACK timeouts.
    pub mac_ack_timeout: u64,
    /// SIFS-before-response expiries.
    pub mac_sifs_response: u64,
    /// SIFS-before-data expiries.
    pub mac_sifs_data: u64,
    /// NAV reservation expiries.
    pub mac_nav_end: u64,
    /// TCP retransmission timer expiries.
    pub rto_timer: u64,
    /// TCP delayed-ACK timer expiries.
    pub delack_timer: u64,
    /// Paced CBR source emissions.
    pub cbr_tick: u64,
    /// Warm-up boundary snapshots (one per run).
    pub measure_start: u64,
    /// Mobility epoch commits (zero on static scenarios).
    pub topology_update: u64,
}

impl EventKindCounts {
    /// Every counter with its stable snake_case name, in declaration
    /// order — the single source of truth for JSON emission and tests.
    pub fn iter_named(&self) -> [(&'static str, u64); 17] {
        [
            ("flow_start", self.flow_start),
            ("signal_start", self.signal_start),
            ("signal_end", self.signal_end),
            ("tx_air_end", self.tx_air_end),
            ("mac_difs", self.mac_difs),
            ("mac_backoff_bulk", self.mac_backoff_bulk),
            ("mac_backoff_slot", self.mac_backoff_slot),
            ("mac_cts_timeout", self.mac_cts_timeout),
            ("mac_ack_timeout", self.mac_ack_timeout),
            ("mac_sifs_response", self.mac_sifs_response),
            ("mac_sifs_data", self.mac_sifs_data),
            ("mac_nav_end", self.mac_nav_end),
            ("rto_timer", self.rto_timer),
            ("delack_timer", self.delack_timer),
            ("cbr_tick", self.cbr_tick),
            ("measure_start", self.measure_start),
            ("topology_update", self.topology_update),
        ]
    }

    /// Sum over all kinds; equals the engine's total dispatched-event
    /// count when every dispatch is classified.
    pub fn total(&self) -> u64 {
        self.iter_named().iter().map(|(_, v)| v).sum()
    }
}

/// Link-churn totals over a run's mobility epochs — how much topology
/// actually changed, and how much link state the incremental epoch path
/// had to touch to track it. All zero on static scenarios.
///
/// Each counter is the sum over epochs of the matching
/// [`EpochChurn`](dot11_phy::EpochChurn) field. The one `EpochChurn`
/// field deliberately *not* mirrored here is `compactions`: it reports
/// how the medium lays out its link arrays, not how the topology
/// changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MobilityStats {
    /// Mobility epochs committed.
    pub epochs: u64,
    /// Stations whose position changed, summed over epochs.
    pub stations_moved: u64,
    /// Audible slices recomputed (movers' own plus dirty neighbours').
    pub slices_recomputed: u64,
    /// Directed links invalidated (a mover at either end).
    pub links_dirtied: u64,
    /// Directed links recomputed (dirtied and still audible, plus new).
    pub links_recomputed: u64,
    /// Audible-set entries that appeared (links that came into range).
    pub audible_added: u64,
    /// Audible-set entries that vanished (links that fell out of range).
    pub audible_removed: u64,
}

impl MobilityStats {
    /// Folds one epoch's churn into the run totals.
    pub fn accumulate(&mut self, churn: dot11_phy::EpochChurn) {
        self.epochs += 1;
        self.stations_moved += churn.moved as u64;
        self.slices_recomputed += churn.slices_recomputed as u64;
        self.links_dirtied += churn.links_dirtied as u64;
        self.links_recomputed += churn.links_recomputed as u64;
        self.audible_added += churn.audible_added as u64;
        self.audible_removed += churn.audible_removed as u64;
    }
}

/// Engine self-instrumentation for one run: how hard the simulator worked
/// and how fast it went relative to simulated time.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Events dispatched by the simulator.
    pub events: u64,
    /// Dispatched events broken down by kind (sums to `events`).
    pub kinds: EventKindCounts,
    /// Link churn across mobility epochs (all zero on static scenarios).
    pub mobility: MobilityStats,
    /// Largest number of pending events ever queued at once.
    pub queue_high_water: usize,
    /// Per-receiver signals actually scattered: frames × receivers, deaf
    /// receivers excluded.
    pub deliveries: u64,
    /// Stations classified deaf: they never transmit, and no station
    /// that may transmit can make them detect a preamble or sense energy,
    /// so frames skip them (0 on mobile scenarios, which are not
    /// classified).
    pub deaf_stations: u64,
    /// Simulated time covered by the run.
    pub sim_elapsed: SimDuration,
    /// Wall-clock time the run took.
    pub wall: std::time::Duration,
    /// Per-scope wall-time histogram, present only when the world ran
    /// with an armed [`desim::Probe`] (see
    /// [`PROBE_SCOPES`](crate::world::PROBE_SCOPES) for the scope table).
    pub profile: Option<desim::ProbeReport>,
}

impl EngineStats {
    /// Simulated-seconds per wall-second (0 when the wall clock did not
    /// observably advance).
    pub fn speedup(&self) -> f64 {
        let w = self.wall.as_secs_f64();
        if w > 0.0 {
            self.sim_elapsed.as_secs_f64() / w
        } else {
            0.0
        }
    }

    /// Events dispatched per wall-second (0 when the wall clock did not
    /// observably advance).
    pub fn events_per_sec(&self) -> f64 {
        let w = self.wall.as_secs_f64();
        if w > 0.0 {
            self.events as f64 / w
        } else {
            0.0
        }
    }

    /// Wall nanoseconds the profiler attributed to per-event-kind scopes
    /// (the dispatch-loop partition — phase scopes overlap these and are
    /// excluded). `None` without an armed probe.
    pub fn attributed_ns(&self) -> Option<u64> {
        let profile = self.profile.as_ref()?;
        Some(
            self.kinds
                .iter_named()
                .iter()
                .filter_map(|(name, _)| profile.scope(name))
                .map(|s| s.total_ns)
                .sum(),
        )
    }

    /// Fraction of the run's wall clock attributed to per-kind scopes
    /// (0 when the wall clock did not observably advance). `None` without
    /// an armed probe.
    pub fn attributed_fraction(&self) -> Option<f64> {
        let attributed = self.attributed_ns()? as f64;
        let wall = self.wall.as_nanos() as f64;
        Some(if wall > 0.0 { attributed / wall } else { 0.0 })
    }
}

/// Jain's fairness index over per-flow throughputs:
/// `(Σx)² / (n·Σx²)` — 1.0 is perfectly fair, 1/n is a single winner.
///
/// # Example
///
/// ```
/// use dot11_adhoc::stats::jain_index;
/// assert!((jain_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
/// assert!((jain_index(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
/// ```
pub fn jain_index(throughputs: &[f64]) -> f64 {
    if throughputs.is_empty() {
        return 1.0;
    }
    let sum: f64 = throughputs.iter().sum();
    let sq: f64 = throughputs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (throughputs.len() as f64 * sq)
}

/// Distribution summary of one metric across repeated runs (seeds).
///
/// The sweep engine aggregates every cell metric with this: the paper's
/// own numbers are single measurement sessions, and the four-station
/// magnitudes are channel-draw dependent, so any quoted value should come
/// with its spread over seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (midpoint of the two central samples for even `n`).
    pub median: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Half-width of the normal-approximation 95% confidence interval of
    /// the mean (`1.96·σ/√n`; 0 for n < 2).
    pub ci95: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples`. Returns `None` for an empty slice.
    ///
    /// Samples are summed in sorted order, so the result is identical
    /// regardless of the order runs completed in — a requirement for
    /// sweep reports being independent of worker scheduling.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are never NaN"));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let (std_dev, ci95) = if n > 1 {
            let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
            let sd = var.sqrt();
            (sd, 1.96 * sd / (n as f64).sqrt())
        } else {
            (0.0, 0.0)
        };
        Some(Summary {
            n,
            mean,
            median,
            std_dev,
            ci95,
            min: sorted[0],
            max: sorted[n - 1],
        })
    }
}

/// Everything a finished run reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Total simulated time.
    pub duration: SimDuration,
    /// Warm-up excluded from throughput measurement.
    pub warmup: SimDuration,
    /// Per-flow results, in flow-id order.
    pub flows: Vec<FlowReport>,
    /// Per-station counters, in station order.
    pub nodes: Vec<NodeReport>,
    /// Events dispatched by the simulator (diagnostic; mirrors
    /// `engine.events`).
    pub events: u64,
    /// Engine self-instrumentation.
    pub engine: EngineStats,
}

impl RunReport {
    /// The report for `flow`.
    ///
    /// # Panics
    ///
    /// Panics if the flow does not exist in this run.
    pub fn flow(&self, flow: FlowId) -> &FlowReport {
        self.flows
            .iter()
            .find(|f| f.flow == flow)
            .unwrap_or_else(|| panic!("no such flow {flow}"))
    }

    /// Sum of all flows' measured throughput, kb/s.
    pub fn total_throughput_kbps(&self) -> f64 {
        self.flows.iter().map(|f| f.throughput_kbps).sum()
    }

    /// Jain's fairness index across this run's flows.
    pub fn fairness(&self) -> f64 {
        let t: Vec<f64> = self.flows.iter().map(|f| f.throughput_kbps).collect();
        jain_index(&t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            duration: SimDuration::from_secs(10),
            warmup: SimDuration::from_secs(1),
            flows: vec![
                FlowReport {
                    flow: FlowId(0),
                    src: NodeId(0),
                    dst: NodeId(1),
                    offered_packets: 100,
                    delivered_bytes: 51_200,
                    delivered_packets: 100,
                    measured_bytes: 46_080,
                    throughput_kbps: 40.96,
                    loss_rate: 0.0,
                    mean_delay_ms: 1.5,
                    max_delay_ms: 9.0,
                },
                FlowReport {
                    flow: FlowId(1),
                    src: NodeId(2),
                    dst: NodeId(3),
                    offered_packets: 100,
                    delivered_bytes: 25_600,
                    delivered_packets: 50,
                    measured_bytes: 23_040,
                    throughput_kbps: 20.48,
                    loss_rate: 0.5,
                    mean_delay_ms: 3.0,
                    max_delay_ms: 30.0,
                },
            ],
            nodes: vec![],
            events: 1234,
            engine: EngineStats {
                events: 1234,
                kinds: EventKindCounts::default(),
                mobility: MobilityStats::default(),
                queue_high_water: 7,
                deliveries: 0,
                deaf_stations: 0,
                sim_elapsed: SimDuration::from_secs(10),
                wall: std::time::Duration::from_millis(20),
                profile: None,
            },
        }
    }

    #[test]
    fn flow_lookup_and_totals() {
        let r = report();
        assert_eq!(r.flow(FlowId(1)).delivered_packets, 50);
        assert!((r.total_throughput_kbps() - 61.44).abs() < 1e-9);
    }

    #[test]
    fn fairness_index() {
        let r = report();
        // 40.96 vs 20.48: (61.44)^2 / (2*(40.96^2+20.48^2)) = 0.9.
        assert!((r.fairness() - 0.9).abs() < 1e-9);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no such flow")]
    fn missing_flow_panics() {
        let r = report();
        let _ = r.flow(FlowId(9));
    }

    #[test]
    fn engine_rates() {
        let e = report().engine;
        // 10 simulated seconds in 20 ms of wall time.
        assert!((e.speedup() - 500.0).abs() < 1e-9);
        assert!((e.events_per_sec() - 61_700.0).abs() < 1e-6);
    }

    #[test]
    fn kind_counts_total_and_names_stay_in_sync() {
        let mut kinds = EventKindCounts::default();
        assert_eq!(kinds.total(), 0);
        kinds.signal_start = 3;
        kinds.mac_backoff_bulk = 5;
        kinds.measure_start = 1;
        assert_eq!(kinds.total(), 9);
        let named = kinds.iter_named();
        assert_eq!(named.len(), 17, "every Event kind has a named counter");
        let mut names: Vec<&str> = named.iter().map(|(n, _)| *n).collect();
        names.dedup();
        assert_eq!(names.len(), 17, "counter names are unique");
        assert_eq!(
            named.iter().find(|(n, _)| *n == "mac_backoff_bulk"),
            Some(&("mac_backoff_bulk", 5))
        );
    }

    #[test]
    fn summary_over_known_samples() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).expect("non-empty");
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.median - 4.5).abs() < 1e-12);
        // Sample std dev of this classic set: sqrt(32/7).
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!((s.ci95 - 1.96 * s.std_dev / 8.0f64.sqrt()).abs() < 1e-12);
        assert_eq!((s.min, s.max), (2.0, 9.0));
    }

    #[test]
    fn summary_is_order_independent() {
        let a = Summary::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        let b = Summary::of(&[1.0, 2.0, 3.0]).expect("non-empty");
        assert_eq!(a, b);
    }

    #[test]
    fn summary_single_sample_has_zero_spread() {
        let s = Summary::of(&[42.0]).expect("non-empty");
        assert_eq!(s.median, 42.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn engine_rates_guard_zero_wall() {
        let e = EngineStats {
            events: 10,
            kinds: EventKindCounts::default(),
            mobility: MobilityStats::default(),
            queue_high_water: 1,
            deliveries: 0,
            deaf_stations: 0,
            sim_elapsed: SimDuration::from_secs(1),
            wall: std::time::Duration::ZERO,
            profile: None,
        };
        assert_eq!(e.speedup(), 0.0);
        assert_eq!(e.events_per_sec(), 0.0);
        assert_eq!(e.attributed_ns(), None);
        assert_eq!(e.attributed_fraction(), None);
    }

    #[test]
    fn attribution_sums_kind_scopes_only() {
        let kinds = EventKindCounts {
            signal_start: 2,
            ..EventKindCounts::default()
        };
        let scope = |name, total_ns| desim::ScopeStats {
            name,
            count: 1,
            total_ns,
            min_ns: total_ns,
            max_ns: total_ns,
        };
        let e = EngineStats {
            events: 2,
            kinds,
            mobility: MobilityStats::default(),
            queue_high_water: 1,
            deliveries: 0,
            deaf_stations: 0,
            sim_elapsed: SimDuration::from_secs(1),
            wall: std::time::Duration::from_nanos(200),
            profile: Some(desim::ProbeReport {
                scopes: vec![
                    scope("signal_start", 120),
                    scope("mac_difs", 30),
                    // Phase scopes overlap the kind partition and must not
                    // double-count into the attributed total.
                    scope("phase_scatter", 999),
                ],
            }),
        };
        assert_eq!(e.attributed_ns(), Some(150));
        assert!((e.attributed_fraction().expect("probed") - 0.75).abs() < 1e-12);
    }
}
