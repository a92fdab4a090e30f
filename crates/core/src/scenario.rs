//! Declarative experiment descriptions.
//!
//! A [`Scenario`] is the full recipe for one measurement run: station
//! positions, radio and MAC configuration, channel/day profile, traffic
//! flows, seed and timing. [`ScenarioBuilder`] assembles it fluently; the
//! result turns into a [`crate::World`] and runs.
//!
//! # Example
//!
//! ```
//! use dot11_adhoc::{ScenarioBuilder, Traffic};
//! use dot11_phy::PhyRate;
//! use desim::SimDuration;
//!
//! // Two stations 10 m apart, saturated UDP, 11 Mb/s, basic access.
//! let report = ScenarioBuilder::new(PhyRate::R11)
//!     .line(&[0.0, 10.0])
//!     .duration(SimDuration::from_secs(2))
//!     .flow(0, 1, Traffic::SaturatedUdp { payload_bytes: 512, backlog: 10 })
//!     .run();
//! assert!(report.flow(dot11_net::FlowId(0)).throughput_kbps > 1000.0);
//! ```

use desim::{SimDuration, SimRng};
use dot11_mac::MacConfig;
use dot11_net::{FlowId, StaticRoutes};
use dot11_phy::{DayProfile, NodeId, PathLossModel, PhyRate, Position, RadioConfig};
use dot11_trace::TraceSink;

use crate::calib::{calibrated_dual_slope, calibrated_path_loss};
use crate::mobility::MobilityConfig;
use crate::stats::RunReport;
use crate::world::World;

/// Traffic carried by one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Asymptotic UDP: the source keeps `backlog` datagrams queued at the
    /// interface — the paper's saturated-CBR condition.
    SaturatedUdp {
        /// Application payload per datagram, bytes.
        payload_bytes: u32,
        /// Interface-queue backlog to maintain, packets.
        backlog: usize,
    },
    /// Paced CBR over UDP (used for the loss-vs-distance probes).
    CbrUdp {
        /// Application payload per datagram, bytes.
        payload_bytes: u32,
        /// Inter-datagram interval.
        interval: SimDuration,
        /// Stop after this many datagrams (`None` = run forever).
        limit: Option<u64>,
    },
    /// Asymptotic bulk transfer over TCP (the paper's ftp).
    BulkTcp {
        /// Maximum segment size (application payload per segment), bytes.
        mss: u32,
    },
}

/// One unidirectional session.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Flow identifier (builder-assigned, dense from 0).
    pub id: FlowId,
    /// Data source station.
    pub src: NodeId,
    /// Data sink station.
    pub dst: NodeId,
    /// Workload.
    pub traffic: Traffic,
    /// When the source starts, relative to the run start.
    pub start: SimDuration,
}

/// A complete experiment description.
pub struct Scenario {
    pub(crate) positions: Vec<Position>,
    pub(crate) radio: RadioConfig,
    pub(crate) mac: MacConfig,
    pub(crate) day: DayProfile,
    pub(crate) path_loss: PathLossModel,
    pub(crate) flows: Vec<FlowSpec>,
    pub(crate) routes: StaticRoutes,
    pub(crate) seed: u64,
    pub(crate) duration: SimDuration,
    pub(crate) warmup: SimDuration,
    pub(crate) full_fanout: bool,
    pub(crate) mobility: Option<MobilityConfig>,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("stations", &self.positions.len())
            .field("data_rate", &self.mac.data_rate)
            .field("rts", &self.mac.rts_enabled)
            .field("flows", &self.flows.len())
            .field("seed", &self.seed)
            .field("duration", &self.duration)
            .finish()
    }
}

impl Scenario {
    /// Re-tunes the MAC configuration of an already-built scenario —
    /// the hook the sweep layer's MAC axis uses to move CW bounds, retry
    /// limits, slot time or backoff policy on top of a scenario recipe
    /// without re-deriving its geometry or traffic.
    pub fn tune_mac(mut self, f: impl FnOnce(&mut MacConfig)) -> Scenario {
        f(&mut self.mac);
        self
    }

    /// Attaches (or replaces) a mobility configuration on an
    /// already-built scenario — the hook the `repro --mobility` flag uses
    /// to set the paper's static topologies in motion without
    /// re-deriving geometry or traffic.
    pub fn with_mobility(mut self, config: MobilityConfig) -> Scenario {
        assert!(!config.epoch.is_zero(), "mobility epoch must be positive");
        self.mobility = Some(config);
        self
    }

    /// Builds the simulation world.
    pub fn into_world(self) -> World {
        World::new(self)
    }

    /// Builds and runs to completion.
    pub fn run(self) -> RunReport {
        self.into_world().run()
    }

    /// Builds the world with a trace sink attached (see
    /// [`World::with_sink`]).
    pub fn into_world_with<S: TraceSink + Clone>(self, sink: S) -> World<S> {
        World::with_sink(self, sink)
    }

    /// Builds and runs to completion with a trace sink attached.
    pub fn run_with<S: TraceSink + Clone>(self, sink: S) -> RunReport {
        self.into_world_with(sink).run()
    }

    /// Builds the world with both a trace sink and a timing probe (see
    /// [`World::with_probe`]).
    pub fn into_world_probed<S: TraceSink + Clone, P: desim::Probe>(
        self,
        sink: S,
        probe: P,
    ) -> World<S, P> {
        World::with_probe(self, sink, probe)
    }

    /// Builds and runs to completion with a timing probe attached; an
    /// armed probe's histogram lands in `RunReport.engine.profile`.
    pub fn run_probed<S: TraceSink + Clone, P: desim::Probe>(self, sink: S, probe: P) -> RunReport {
        self.into_world_probed(sink, probe).run()
    }
}

/// Fluent constructor for [`Scenario`].
///
/// # Examples
///
/// The hidden-terminal triple from EXPERIMENTS.md Chapter 7 — two
/// senders out of carrier-sense range of each other, one receiver in
/// the middle, shadowing frozen so the geometry is exact:
///
/// ```
/// use desim::SimDuration;
/// use dot11_adhoc::{ScenarioBuilder, Traffic};
/// use dot11_phy::{DayProfile, PhyRate};
///
/// let report = ScenarioBuilder::new(PhyRate::R2)
///     .line(&[0.0, 95.0, 190.0])
///     .day(DayProfile::still())
///     .rts(true)
///     .seed(5)
///     .duration(SimDuration::from_secs(2))
///     .warmup(SimDuration::from_millis(200))
///     .flow(0, 1, Traffic::SaturatedUdp { payload_bytes: 512, backlog: 10 })
///     .flow(2, 1, Traffic::SaturatedUdp { payload_bytes: 512, backlog: 10 })
///     .run();
/// // Both hidden senders get real goodput once RTS/CTS protects the
/// // data frames; same-seed runs reproduce these numbers bit-exactly.
/// assert!(report.flow(dot11_net::FlowId(0)).throughput_kbps > 100.0);
/// assert!(report.flow(dot11_net::FlowId(1)).throughput_kbps > 100.0);
/// ```
///
/// `tune_mac` opens the full [`MacConfig`] — contention window, retry
/// limits, slot time, backoff policy — without widening the builder:
///
/// ```
/// use dot11_adhoc::{ScenarioBuilder, Traffic};
/// use dot11_phy::PhyRate;
///
/// let scenario = ScenarioBuilder::new(PhyRate::R11)
///     .line(&[0.0, 10.0])
///     .flow(0, 1, Traffic::SaturatedUdp { payload_bytes: 512, backlog: 10 })
///     .build()
///     .tune_mac(|mac| *mac = mac.with_cw(64, 1024));
/// # let _ = scenario;
/// ```
pub struct ScenarioBuilder {
    scenario: Scenario,
    next_flow: u32,
}

impl ScenarioBuilder {
    /// Starts a scenario at the given NIC data rate with the calibrated
    /// radio/channel defaults: DWL-650 radio, clear-day shadowing,
    /// calibrated outdoor path loss, basic access, 10 s runs with 1 s
    /// warm-up, seed 1.
    pub fn new(data_rate: PhyRate) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                positions: Vec::new(),
                radio: RadioConfig::dwl650(),
                mac: MacConfig::new(data_rate),
                day: DayProfile::clear(),
                path_loss: calibrated_path_loss().into(),
                flows: Vec::new(),
                routes: StaticRoutes::new(),
                seed: 1,
                duration: SimDuration::from_secs(10),
                warmup: SimDuration::from_secs(1),
                full_fanout: false,
                mobility: None,
            },
            next_flow: 0,
        }
    }

    /// Adds a station at `position`; returns its id (dense from 0).
    pub fn station(&mut self, position: Position) -> NodeId {
        self.scenario.positions.push(position);
        NodeId(self.scenario.positions.len() as u32 - 1)
    }

    /// Adds stations on the x-axis at the given coordinates (meters) —
    /// the paper's chain topologies.
    pub fn line(mut self, xs: &[f64]) -> ScenarioBuilder {
        for &x in xs {
            self.scenario.positions.push(Position::on_line(x));
        }
        self
    }

    /// Large-topology generator: `n` stations on the x-axis, `spacing_m`
    /// apart, with chain routing installed and the dual-slope path-loss
    /// model (bit-identical to the calibrated model inside its 500 m
    /// breakpoint, fourth-power roll-off beyond — so distant chain
    /// segments have a finite interference horizon and audible-set
    /// culling has something to cull).
    pub fn chain(mut self, n: u32, spacing_m: f64) -> ScenarioBuilder {
        assert!(n >= 2, "a chain needs at least 2 stations");
        for i in 0..n {
            self.scenario
                .positions
                .push(Position::on_line(i as f64 * spacing_m));
        }
        self.scenario.routes = StaticRoutes::chain(n);
        self.scenario.path_loss = calibrated_dual_slope().into();
        self
    }

    /// Large-topology generator: `rows × cols` stations on a square grid
    /// with `spacing_m` pitch, west→east next-hop routes installed along
    /// each row, and the dual-slope path-loss model (see
    /// [`ScenarioBuilder::chain`]). Station ids are row-major from 0.
    pub fn grid(mut self, rows: u32, cols: u32, spacing_m: f64) -> ScenarioBuilder {
        assert!(rows >= 1 && cols >= 2, "a grid needs at least 1×2 stations");
        let mut routes = StaticRoutes::new();
        for r in 0..rows {
            for c in 0..cols {
                self.scenario.positions.push(Position {
                    x: c as f64 * spacing_m,
                    y: r as f64 * spacing_m,
                });
            }
            // Row r's eastmost station is every row flow's destination;
            // each hop forwards one station east.
            let east = NodeId(r * cols + (cols - 1));
            for c in 0..cols - 1 {
                let at = NodeId(r * cols + c);
                let next = NodeId(r * cols + c + 1);
                routes.add(at, east, next);
            }
        }
        self.scenario.routes = routes;
        self.scenario.path_loss = calibrated_dual_slope().into();
        self
    }

    /// Large-topology generator: `n` stations placed uniformly at random
    /// on a disk of radius `radius_m` (area-uniform: `r = R√u`), from the
    /// dedicated topology stream `topo_seed` — independent of the run
    /// seed so the same field can be simulated under many channel seeds.
    /// Uses the dual-slope path-loss model; installs no routes (add flows
    /// between mutually audible stations, or [`ScenarioBuilder::routes`]).
    pub fn random_disk(mut self, n: u32, radius_m: f64, topo_seed: u64) -> ScenarioBuilder {
        let mut rng = SimRng::from_seed(topo_seed).substream(b"topology/disk");
        for _ in 0..n {
            let r = radius_m * rng.gen_f64().sqrt();
            let theta = 2.0 * std::f64::consts::PI * rng.gen_f64();
            self.scenario.positions.push(Position {
                x: r * theta.cos(),
                y: r * theta.sin(),
            });
        }
        self.scenario.path_loss = calibrated_dual_slope().into();
        self
    }

    /// Disables audible-set culling: every frame is delivered to all
    /// other stations regardless of received power, as before PR 5. Used
    /// by the A/B equivalence tests and the scaling benchmark's
    /// full-fanout baseline.
    pub fn full_fanout(mut self) -> ScenarioBuilder {
        self.scenario.full_fanout = true;
        self
    }

    /// Puts the stations in motion (see [`crate::mobility`]): the world
    /// commits a topology epoch to the medium every
    /// [`MobilityConfig::epoch`], updating only the moved stations'
    /// neighborhoods. Mobile runs are exactly as deterministic as static
    /// ones — the model draws from its own substream of the run seed.
    pub fn mobility(mut self, config: MobilityConfig) -> ScenarioBuilder {
        self.scenario.mobility = Some(config);
        self
    }

    /// Enables the RTS/CTS mechanism.
    pub fn rts(mut self, enabled: bool) -> ScenarioBuilder {
        self.scenario.mac.rts_enabled = enabled;
        self
    }

    /// Enables classic ARF dynamic rate switching (starting from the
    /// scenario's data rate).
    pub fn arf(mut self, enabled: bool) -> ScenarioBuilder {
        self.scenario.mac.arf = if enabled {
            dot11_mac::ArfConfig::classic()
        } else {
            dot11_mac::ArfConfig::disabled()
        };
        self
    }

    /// Installs a static next-hop table; stations forward packets that
    /// are not addressed to them along it (multi-hop operation).
    pub fn routes(mut self, routes: StaticRoutes) -> ScenarioBuilder {
        self.scenario.routes = routes;
        self
    }

    /// Convenience: chain routing over all stations added so far, in
    /// index order (call after the stations are in place).
    pub fn chain_routes(mut self) -> ScenarioBuilder {
        self.scenario.routes = StaticRoutes::chain(self.scenario.positions.len() as u32);
        self
    }

    /// Replaces the MAC configuration wholesale (ablations).
    pub fn mac_config(mut self, mac: MacConfig) -> ScenarioBuilder {
        self.scenario.mac = mac;
        self
    }

    /// Replaces the radio configuration (ablations).
    pub fn radio(mut self, radio: RadioConfig) -> ScenarioBuilder {
        self.scenario.radio = radio;
        self
    }

    /// Selects the day/weather profile.
    pub fn day(mut self, day: DayProfile) -> ScenarioBuilder {
        self.scenario.day = day;
        self
    }

    /// Replaces the path-loss model (e.g. ns-2 style two-ray ground).
    pub fn path_loss(mut self, model: impl Into<PathLossModel>) -> ScenarioBuilder {
        self.scenario.path_loss = model.into();
        self
    }

    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> ScenarioBuilder {
        self.scenario.seed = seed;
        self
    }

    /// Sets the run length.
    pub fn duration(mut self, duration: SimDuration) -> ScenarioBuilder {
        self.scenario.duration = duration;
        self
    }

    /// Sets the warm-up excluded from throughput measurements.
    pub fn warmup(mut self, warmup: SimDuration) -> ScenarioBuilder {
        self.scenario.warmup = warmup;
        self
    }

    /// Adds a flow from station `src` to station `dst` (indices into the
    /// stations added so far). Returns the builder for chaining; flow ids
    /// are assigned densely from 0 in call order.
    pub fn flow(mut self, src: u32, dst: u32, traffic: Traffic) -> ScenarioBuilder {
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        self.scenario.flows.push(FlowSpec {
            id,
            src: NodeId(src),
            dst: NodeId(dst),
            traffic,
            start: SimDuration::ZERO,
        });
        self
    }

    /// Like [`ScenarioBuilder::flow`] with a delayed start.
    pub fn flow_at(
        mut self,
        src: u32,
        dst: u32,
        traffic: Traffic,
        start: SimDuration,
    ) -> ScenarioBuilder {
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        self.scenario.flows.push(FlowSpec {
            id,
            src: NodeId(src),
            dst: NodeId(dst),
            traffic,
            start,
        });
        self
    }

    /// Finalizes the scenario.
    ///
    /// # Panics
    ///
    /// Panics if a flow references a missing station, a flow loops onto
    /// its source, the warm-up is not shorter than the duration, or there
    /// are no stations.
    pub fn build(self) -> Scenario {
        let s = &self.scenario;
        assert!(!s.positions.is_empty(), "scenario has no stations");
        assert!(
            s.warmup < s.duration,
            "warmup {} must be shorter than duration {}",
            s.warmup,
            s.duration
        );
        for f in &s.flows {
            assert!(
                f.src.index() < s.positions.len() && f.dst.index() < s.positions.len(),
                "flow {} references a missing station",
                f.id
            );
            assert!(f.src != f.dst, "flow {} loops onto its source", f.id);
        }
        if let Some(m) = &s.mobility {
            assert!(!m.epoch.is_zero(), "mobility epoch must be positive");
        }
        self.scenario
    }

    /// Builds and runs in one step.
    pub fn run(self) -> RunReport {
        self.build().run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_ids() {
        let s = ScenarioBuilder::new(PhyRate::R2)
            .line(&[0.0, 10.0, 20.0])
            .flow(
                0,
                1,
                Traffic::SaturatedUdp {
                    payload_bytes: 512,
                    backlog: 5,
                },
            )
            .flow(1, 2, Traffic::BulkTcp { mss: 512 })
            .build();
        assert_eq!(s.positions.len(), 3);
        assert_eq!(s.flows[0].id, FlowId(0));
        assert_eq!(s.flows[1].id, FlowId(1));
        assert_eq!(s.flows[1].src, NodeId(1));
    }

    #[test]
    #[should_panic(expected = "missing station")]
    fn flow_to_missing_station_panics() {
        let _ = ScenarioBuilder::new(PhyRate::R2)
            .line(&[0.0])
            .flow(0, 3, Traffic::BulkTcp { mss: 512 })
            .build();
    }

    #[test]
    #[should_panic(expected = "loops onto its source")]
    fn self_flow_panics() {
        let _ = ScenarioBuilder::new(PhyRate::R2)
            .line(&[0.0, 5.0])
            .flow(1, 1, Traffic::BulkTcp { mss: 512 })
            .build();
    }

    #[test]
    #[should_panic(expected = "no stations")]
    fn empty_scenario_panics() {
        let _ = ScenarioBuilder::new(PhyRate::R2).build();
    }

    #[test]
    #[should_panic(expected = "warmup")]
    fn warmup_longer_than_duration_panics() {
        let _ = ScenarioBuilder::new(PhyRate::R2)
            .line(&[0.0, 5.0])
            .duration(SimDuration::from_secs(1))
            .warmup(SimDuration::from_secs(2))
            .build();
    }
}
