//! Sweep specifications: which scenarios, which seeds, which run length.
//!
//! A [`SweepSpec`] is the cross product of scenario recipes × seeds under
//! shared [`RunParams`]; [`SweepSpec::cells`] expands it into the flat
//! list of [`CellSpec`]s the runner executes. Every cell has a
//! [`CellKey`] — a stable content hash of everything that determines its
//! result — which names its cache entry and pins determinism tests.

use desim::SimDuration;
use dot11_adhoc::analytic::AccessScheme;
use dot11_adhoc::experiments::four_station::{self, FourStationLayout, SessionTransport};
use dot11_adhoc::experiments::{hidden, ExpConfig};
use dot11_adhoc::hash::StableHasher;
use dot11_adhoc::{MobilityConfig, Scenario, ScenarioBuilder, Traffic};
use dot11_mac::{BackoffConfig, MacConfig};
use dot11_phy::PhyRate;

/// One scenario recipe a sweep can run.
///
/// Variants are *declarative* — plain data, cheap to copy across worker
/// threads — and each expands to a [`Scenario`] via [`SweepScenario::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SweepScenario {
    /// The paper's four-station, two-session topology (Figures 5–12).
    FourStation {
        /// NIC data rate.
        rate: PhyRate,
        /// Station geometry.
        layout: FourStationLayout,
        /// Transport used by both sessions.
        transport: SessionTransport,
        /// Access scheme.
        scheme: AccessScheme,
    },
    /// A single saturated link: two stations `distance_m` apart.
    TwoStation {
        /// NIC data rate.
        rate: PhyRate,
        /// Station separation, meters.
        distance_m: f64,
        /// Transport of the single flow.
        transport: SessionTransport,
        /// Access scheme.
        scheme: AccessScheme,
    },
    /// Large topology: an `n`-station chain with `spacing_m` pitch, chain
    /// routing, dual-slope path loss, and one saturated UDP flow end to
    /// end (PR 5's scaling family).
    Chain {
        /// Number of stations.
        n: u32,
        /// Inter-station spacing, meters.
        spacing_m: f64,
        /// NIC data rate.
        rate: PhyRate,
    },
    /// Large topology: a `rows × cols` grid with `spacing_m` pitch,
    /// west→east row routes, and one saturated UDP flow per row.
    Grid {
        /// Grid rows.
        rows: u32,
        /// Grid columns.
        cols: u32,
        /// Grid pitch, meters.
        spacing_m: f64,
        /// NIC data rate.
        rate: PhyRate,
    },
    /// Large topology: `n` stations uniform on a disk of `radius_m`
    /// (field drawn from `topo_seed`, independent of the run seed), with
    /// three saturated UDP flows between the first six stations.
    RandomDisk {
        /// Number of stations (≥ 6).
        n: u32,
        /// Disk radius, meters.
        radius_m: f64,
        /// Seed of the dedicated topology stream.
        topo_seed: u64,
        /// NIC data rate.
        rate: PhyRate,
    },
    /// Mobile large topology: a [`SweepScenario::RandomDisk`] field whose
    /// stations walk the random-waypoint model (PR 10's mobility family).
    /// Epoch commits re-derive only the moved stations' link state; the
    /// run report is bitwise-independent of the incremental-vs-rebuild
    /// commit mode, so neither the mode nor the thread count enters the
    /// cell key.
    MobileDisk {
        /// Number of stations (≥ 6).
        n: u32,
        /// Disk radius, meters.
        radius_m: f64,
        /// Seed of the dedicated topology stream.
        topo_seed: u64,
        /// NIC data rate.
        rate: PhyRate,
        /// Random-waypoint walking speed, m/s.
        speed_mps: f64,
        /// Mobility epoch — the interval between link-state commits, ms.
        epoch_ms: u32,
    },
    /// The hidden-terminal triple: two mutually inaudible saturated
    /// senders aimed at one middle receiver
    /// ([`hidden::hidden_triple`]), with the access scheme as the
    /// collapse-and-recovery axis.
    HiddenTriple {
        /// NIC data rate (the proven geometry is at 2 Mb/s).
        rate: PhyRate,
        /// Access scheme — `Basic` collapses, `RtsCts` recovers.
        scheme: AccessScheme,
        /// UDP payload per datagram, bytes.
        payload_bytes: u32,
    },
}

fn rate_kbps(rate: PhyRate) -> u32 {
    (rate.bits_per_sec() / 1000.0) as u32
}

fn transport_tag(t: SessionTransport) -> &'static str {
    match t {
        SessionTransport::Udp => "udp",
        SessionTransport::Tcp => "tcp",
    }
}

fn scheme_tag(s: AccessScheme) -> &'static str {
    match s {
        AccessScheme::Basic => "basic",
        AccessScheme::RtsCts => "rts",
    }
}

fn layout_tag(l: FourStationLayout) -> &'static str {
    match l {
        FourStationLayout::AsymmetricAt11 => "asym11",
        FourStationLayout::AsymmetricAt2 => "asym2",
        FourStationLayout::Symmetric => "sym",
    }
}

impl SweepScenario {
    /// A stable, human-readable name: doubles as the grouping label in
    /// reports and as part of the cache key.
    pub fn name(&self) -> String {
        match *self {
            SweepScenario::FourStation {
                rate,
                layout,
                transport,
                scheme,
            } => format!(
                "four_station/{}/{}k/{}/{}",
                layout_tag(layout),
                rate_kbps(rate),
                transport_tag(transport),
                scheme_tag(scheme)
            ),
            SweepScenario::TwoStation {
                rate,
                distance_m,
                transport,
                scheme,
            } => format!(
                "two_station/{}m/{}k/{}/{}",
                distance_m,
                rate_kbps(rate),
                transport_tag(transport),
                scheme_tag(scheme)
            ),
            SweepScenario::Chain { n, spacing_m, rate } => {
                format!("chain/{}x{}m/{}k/udp", n, spacing_m, rate_kbps(rate))
            }
            SweepScenario::Grid {
                rows,
                cols,
                spacing_m,
                rate,
            } => format!(
                "grid/{}x{}x{}m/{}k/udp",
                rows,
                cols,
                spacing_m,
                rate_kbps(rate)
            ),
            SweepScenario::RandomDisk {
                n,
                radius_m,
                topo_seed,
                rate,
            } => format!(
                "disk/{}@{}m/t{}/{}k/udp",
                n,
                radius_m,
                topo_seed,
                rate_kbps(rate)
            ),
            SweepScenario::MobileDisk {
                n,
                radius_m,
                topo_seed,
                rate,
                speed_mps,
                epoch_ms,
            } => format!(
                "mobile-disk/{}@{}m/t{}/v{}mps/e{}ms/{}k/udp",
                n,
                radius_m,
                topo_seed,
                speed_mps,
                epoch_ms,
                rate_kbps(rate)
            ),
            SweepScenario::HiddenTriple {
                rate,
                scheme,
                payload_bytes,
            } => format!(
                "hidden3/{}B/{}k/udp/{}",
                payload_bytes,
                rate_kbps(rate),
                scheme_tag(scheme)
            ),
        }
    }

    /// Feeds the scenario's identity into a stable hasher.
    pub fn encode(&self, h: &mut StableHasher) {
        match *self {
            SweepScenario::FourStation {
                rate,
                layout,
                transport,
                scheme,
            } => {
                h.write_str("four_station");
                h.write_u32(rate_kbps(rate));
                h.write_str(layout_tag(layout));
                h.write_str(transport_tag(transport));
                h.write_str(scheme_tag(scheme));
            }
            SweepScenario::TwoStation {
                rate,
                distance_m,
                transport,
                scheme,
            } => {
                h.write_str("two_station");
                h.write_u32(rate_kbps(rate));
                h.write_f64(distance_m);
                h.write_str(transport_tag(transport));
                h.write_str(scheme_tag(scheme));
            }
            SweepScenario::Chain { n, spacing_m, rate } => {
                h.write_str("chain");
                h.write_u32(n);
                h.write_f64(spacing_m);
                h.write_u32(rate_kbps(rate));
            }
            SweepScenario::Grid {
                rows,
                cols,
                spacing_m,
                rate,
            } => {
                h.write_str("grid");
                h.write_u32(rows);
                h.write_u32(cols);
                h.write_f64(spacing_m);
                h.write_u32(rate_kbps(rate));
            }
            SweepScenario::RandomDisk {
                n,
                radius_m,
                topo_seed,
                rate,
            } => {
                h.write_str("random_disk");
                h.write_u32(n);
                h.write_f64(radius_m);
                h.write_u64(topo_seed);
                h.write_u32(rate_kbps(rate));
            }
            SweepScenario::MobileDisk {
                n,
                radius_m,
                topo_seed,
                rate,
                speed_mps,
                epoch_ms,
            } => {
                h.write_str("mobile_disk");
                h.write_u32(n);
                h.write_f64(radius_m);
                h.write_u64(topo_seed);
                h.write_u32(rate_kbps(rate));
                h.write_f64(speed_mps);
                h.write_u32(epoch_ms);
            }
            SweepScenario::HiddenTriple {
                rate,
                scheme,
                payload_bytes,
            } => {
                h.write_str("hidden_triple");
                h.write_u32(rate_kbps(rate));
                h.write_str(scheme_tag(scheme));
                h.write_u32(payload_bytes);
            }
        }
    }

    /// Number of flows [`SweepScenario::build`] installs: the length of
    /// a cell's per-flow metric arrays, known without building anything.
    pub fn flow_count(&self) -> usize {
        match *self {
            SweepScenario::TwoStation { .. } | SweepScenario::Chain { .. } => 1,
            SweepScenario::FourStation { .. } | SweepScenario::HiddenTriple { .. } => 2,
            SweepScenario::RandomDisk { .. } | SweepScenario::MobileDisk { .. } => 3,
            SweepScenario::Grid { rows, .. } => rows as usize,
        }
    }

    /// Expands the recipe into a runnable [`Scenario`].
    pub fn build(&self, params: RunParams, seed: u64) -> Scenario {
        match *self {
            SweepScenario::FourStation {
                rate,
                layout,
                transport,
                scheme,
            } => {
                let cfg = ExpConfig {
                    seed,
                    duration: params.duration,
                    warmup: params.warmup,
                };
                four_station::scenario(cfg, rate, layout, transport, scheme)
            }
            SweepScenario::TwoStation {
                rate,
                distance_m,
                transport,
                scheme,
            } => {
                let traffic = match transport {
                    SessionTransport::Udp => Traffic::SaturatedUdp {
                        payload_bytes: 512,
                        backlog: 10,
                    },
                    SessionTransport::Tcp => Traffic::BulkTcp { mss: 512 },
                };
                ScenarioBuilder::new(rate)
                    .line(&[0.0, distance_m])
                    .rts(scheme == AccessScheme::RtsCts)
                    .seed(seed)
                    .duration(params.duration)
                    .warmup(params.warmup)
                    .flow(0, 1, traffic)
                    .build()
            }
            SweepScenario::Chain { n, spacing_m, rate } => ScenarioBuilder::new(rate)
                .chain(n, spacing_m)
                .seed(seed)
                .duration(params.duration)
                .warmup(params.warmup)
                .flow(
                    0,
                    n - 1,
                    Traffic::SaturatedUdp {
                        payload_bytes: 512,
                        backlog: 10,
                    },
                )
                .build(),
            SweepScenario::Grid {
                rows,
                cols,
                spacing_m,
                rate,
            } => {
                let mut b = ScenarioBuilder::new(rate)
                    .grid(rows, cols, spacing_m)
                    .seed(seed)
                    .duration(params.duration)
                    .warmup(params.warmup);
                for r in 0..rows {
                    b = b.flow(
                        r * cols,
                        r * cols + cols - 1,
                        Traffic::SaturatedUdp {
                            payload_bytes: 512,
                            backlog: 10,
                        },
                    );
                }
                b.build()
            }
            SweepScenario::RandomDisk {
                n,
                radius_m,
                topo_seed,
                rate,
            } => {
                assert!(n >= 6, "random_disk needs ≥ 6 stations for its flows");
                let mut b = ScenarioBuilder::new(rate)
                    .random_disk(n, radius_m, topo_seed)
                    .seed(seed)
                    .duration(params.duration)
                    .warmup(params.warmup);
                for (src, dst) in [(0, 1), (2, 3), (4, 5)] {
                    b = b.flow(
                        src,
                        dst,
                        Traffic::SaturatedUdp {
                            payload_bytes: 512,
                            backlog: 10,
                        },
                    );
                }
                b.build()
            }
            SweepScenario::MobileDisk {
                n,
                radius_m,
                topo_seed,
                rate,
                speed_mps,
                epoch_ms,
            } => {
                assert!(n >= 6, "mobile_disk needs ≥ 6 stations for its flows");
                let mut b = ScenarioBuilder::new(rate)
                    .random_disk(n, radius_m, topo_seed)
                    .seed(seed)
                    .duration(params.duration)
                    .warmup(params.warmup)
                    .mobility(
                        MobilityConfig::waypoint(speed_mps)
                            .with_epoch(SimDuration::from_millis(epoch_ms as u64)),
                    );
                for (src, dst) in [(0, 1), (2, 3), (4, 5)] {
                    b = b.flow(
                        src,
                        dst,
                        Traffic::SaturatedUdp {
                            payload_bytes: 512,
                            backlog: 10,
                        },
                    );
                }
                b.build()
            }
            SweepScenario::HiddenTriple {
                rate,
                scheme,
                payload_bytes,
            } => {
                let cfg = ExpConfig {
                    seed,
                    duration: params.duration,
                    warmup: params.warmup,
                };
                hidden::hidden_triple(cfg, rate, scheme, payload_bytes)
            }
        }
    }

    /// The four cells (both transports × both schemes) of one paper
    /// four-station figure: 7, 9, 11 or 12.
    ///
    /// # Panics
    ///
    /// Panics on a figure number the paper does not have.
    pub fn figure(figure: u32) -> Vec<SweepScenario> {
        let (rate, layout) = match figure {
            7 => (PhyRate::R11, FourStationLayout::AsymmetricAt11),
            9 => (PhyRate::R2, FourStationLayout::AsymmetricAt2),
            11 => (PhyRate::R11, FourStationLayout::Symmetric),
            12 => (PhyRate::R2, FourStationLayout::Symmetric),
            other => panic!("no four-station figure {other} in the paper (7, 9, 11, 12)"),
        };
        let mut v = Vec::with_capacity(4);
        for transport in [SessionTransport::Udp, SessionTransport::Tcp] {
            for scheme in [AccessScheme::Basic, AccessScheme::RtsCts] {
                v.push(SweepScenario::FourStation {
                    rate,
                    layout,
                    transport,
                    scheme,
                });
            }
        }
        v
    }

    /// The canonical mobile cell: 64 stations random-waypoint walking at
    /// `speed_mps` on a 120 m disk — the disk20 scale, where
    /// single-hop flows actually deliver at the calibrated 2 Mb/s data
    /// range (topology stream 7, 2 Mb/s, 250 ms
    /// epochs). The `repro --group mobile-disk64` family sweeps this
    /// recipe over a speed ladder.
    pub fn mobile_disk64(speed_mps: f64) -> SweepScenario {
        SweepScenario::MobileDisk {
            n: 64,
            radius_m: 120.0,
            topo_seed: 7,
            rate: PhyRate::R2,
            speed_mps,
            epoch_ms: 250,
        }
    }

    /// The hidden-terminal pair of cells — basic access (collapse) and
    /// RTS/CTS (recovery) — at 2 Mb/s with the paper's 512 B payload.
    pub fn hidden3() -> Vec<SweepScenario> {
        [AccessScheme::Basic, AccessScheme::RtsCts]
            .into_iter()
            .map(|scheme| SweepScenario::HiddenTriple {
                rate: PhyRate::R2,
                scheme,
                payload_bytes: 512,
            })
            .collect()
    }
}

/// One point of the MAC-parameter grid: a backoff policy plus the
/// sweepable Table 1 constants. Plain `Copy` data — workers copy cells
/// across threads, and the axis is hashed into every [`CellKey`].
///
/// The default ([`MacAxis::table1`]) is physics-neutral: applying it to
/// a scenario reproduces the pre-axis behaviour bit for bit, so sweeps
/// that never mention the axis keep their golden results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacAxis {
    /// Contention-window policy.
    pub policy: BackoffConfig,
    /// CWmin, slots.
    pub cw_min: u32,
    /// CWmax, slots.
    pub cw_max: u32,
    /// dot11ShortRetryLimit.
    pub short_retry: u32,
    /// dot11LongRetryLimit.
    pub long_retry: u32,
    /// Slot time, µs (DIFS re-derives as SIFS + 2·slot).
    pub slot_us: u32,
}

impl MacAxis {
    /// The paper's Table 1 defaults under binary exponential backoff —
    /// the identity axis.
    pub fn table1() -> MacAxis {
        MacAxis {
            policy: BackoffConfig::Beb,
            cw_min: 32,
            cw_max: 1024,
            short_retry: 7,
            long_retry: 4,
            slot_us: 20,
        }
    }

    /// Whether this is the identity axis.
    pub fn is_table1(&self) -> bool {
        *self == MacAxis::table1()
    }

    /// A compact label of the dimensions that differ from Table 1
    /// (empty for the identity axis), e.g. `"fixed64/cw8-1024"`.
    pub fn label(&self) -> String {
        let def = MacAxis::table1();
        let mut parts: Vec<String> = Vec::new();
        match self.policy {
            BackoffConfig::Beb => {}
            BackoffConfig::FixedCw(cw) => parts.push(format!("fixed{cw}")),
            BackoffConfig::CtAdapt(c) => {
                let d = dot11_mac::CtAdaptConfig::default();
                if c == d {
                    parts.push("ctadapt".to_string());
                } else {
                    parts.push(format!("ctadapt(t{},g{},w{})", c.target, c.gain, c.window));
                }
            }
        }
        if (self.cw_min, self.cw_max) != (def.cw_min, def.cw_max) {
            parts.push(format!("cw{}-{}", self.cw_min, self.cw_max));
        }
        if (self.short_retry, self.long_retry) != (def.short_retry, def.long_retry) {
            parts.push(format!("retry{}-{}", self.short_retry, self.long_retry));
        }
        if self.slot_us != def.slot_us {
            parts.push(format!("slot{}us", self.slot_us));
        }
        parts.join("/")
    }

    /// Feeds the axis into a stable hasher (part of every cell key).
    pub fn encode(&self, h: &mut StableHasher) {
        match self.policy {
            BackoffConfig::Beb => h.write_str("beb"),
            BackoffConfig::FixedCw(cw) => {
                h.write_str("fixed");
                h.write_u32(cw);
            }
            BackoffConfig::CtAdapt(c) => {
                h.write_str("ctadapt");
                h.write_f64(c.target);
                h.write_f64(c.gain);
                h.write_u32(c.window);
            }
        }
        h.write_u32(self.cw_min);
        h.write_u32(self.cw_max);
        h.write_u32(self.short_retry);
        h.write_u32(self.long_retry);
        h.write_u32(self.slot_us);
    }

    /// Applies the axis to a scenario's MAC configuration.
    pub fn apply(&self, mac: &mut MacConfig) {
        mac.backoff = self.policy;
        *mac = mac
            .with_cw(self.cw_min, self.cw_max)
            .with_retry_limits(self.short_retry, self.long_retry)
            .with_slot_us(self.slot_us);
    }
}

impl Default for MacAxis {
    fn default() -> MacAxis {
        MacAxis::table1()
    }
}

/// Run length and warm-up shared by every cell of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunParams {
    /// Simulated session length.
    pub duration: SimDuration,
    /// Warm-up excluded from throughput windows.
    pub warmup: SimDuration,
    /// Unused: every run executes on its caller's thread. Kept only so
    /// existing `RunParams { .. }` literals still compile; nothing reads
    /// it, and it is **not part of the cell key**.
    pub threads: usize,
}

impl RunParams {
    /// The `repro` binary's full-fidelity settings: 20 s sessions, 2 s
    /// warm-up (matches [`ExpConfig::full`]).
    pub fn full() -> RunParams {
        let c = ExpConfig::full();
        RunParams {
            duration: c.duration,
            warmup: c.warmup,
            threads: 1,
        }
    }

    /// Reduced settings (4 s sessions) matching [`ExpConfig::quick`].
    pub fn quick() -> RunParams {
        let c = ExpConfig::quick();
        RunParams {
            duration: c.duration,
            warmup: c.warmup,
            threads: 1,
        }
    }

    fn encode(&self, h: &mut StableHasher) {
        // `threads` intentionally absent: nothing reads it.
        h.write_u64(self.duration.as_nanos());
        h.write_u64(self.warmup.as_nanos());
    }
}

/// The content hash naming one cell: stable across processes, platforms
/// and worker counts, and therefore safe to use as a cache filename.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey(pub u64);

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One unit of sweep work: a scenario recipe at one MAC-axis point and
/// one seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// The scenario recipe.
    pub scenario: SweepScenario,
    /// The MAC-parameter/policy point this cell runs under.
    pub mac: MacAxis,
    /// The master seed of this run.
    pub seed: u64,
    /// Run length and warm-up.
    pub params: RunParams,
}

impl CellSpec {
    /// The cell's content hash over (format version, scenario, MAC axis,
    /// seed, params). The version tag is bumped whenever the *meaning*
    /// of a cached result changes, invalidating old cache dirs
    /// wholesale; `v4` added the MAC axis, `v5` the mobility recipes.
    pub fn key(&self) -> CellKey {
        let mut h = StableHasher::new();
        h.write_str("dot11-sweep/v5");
        self.scenario.encode(&mut h);
        self.mac.encode(&mut h);
        h.write_u64(self.seed);
        self.params.encode(&mut h);
        CellKey(h.finish())
    }

    /// The label cells aggregate under: everything but the seed — the
    /// scenario name, with `@axis` appended off the identity MAC axis.
    pub fn group_label(&self) -> String {
        if self.mac.is_table1() {
            self.scenario.name()
        } else {
            format!("{}@{}", self.scenario.name(), self.mac.label())
        }
    }

    /// Expands the cell into a runnable [`Scenario`]: the recipe at this
    /// cell's seed, re-tuned to this cell's MAC axis.
    pub fn build(&self) -> Scenario {
        self.scenario
            .build(self.params, self.seed)
            .tune_mac(|mac| self.mac.apply(mac))
    }
}

/// The cross product a sweep runs: scenarios × MAC axes × seeds under
/// one [`RunParams`].
///
/// # Examples
///
/// A CWmin ladder over the hidden-terminal pair — 2 scenarios ×
/// 3 axes × 4 seeds = 24 cells, each with a distinct [`CellKey`]:
///
/// ```
/// use dot11_sweep::{MacAxis, RunParams, SweepScenario, SweepSpec};
///
/// let spec = SweepSpec::new(RunParams::quick())
///     .scenarios(SweepScenario::hidden3())
///     .mac_axes([8, 32, 128].map(|cw_min| MacAxis {
///         cw_min,
///         ..MacAxis::table1()
///     }))
///     .seeds(1..=4);
/// let cells = spec.cells();
/// assert_eq!(cells.len(), 24);
/// let keys: std::collections::HashSet<_> = cells.iter().map(|c| c.key()).collect();
/// assert_eq!(keys.len(), 24);
/// // Non-default axes surface in the grouping label:
/// assert_eq!(cells[0].group_label(), "hidden3/512B/2000k/udp/basic@cw8-1024");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Scenario recipes, in report order.
    pub scenarios: Vec<SweepScenario>,
    /// MAC-parameter/policy grid every scenario runs under. Defaults to
    /// the single identity axis ([`MacAxis::table1`]).
    pub mac_axes: Vec<MacAxis>,
    /// Seeds every (scenario, axis) pair is run at.
    pub seeds: Vec<u64>,
    /// Shared run parameters.
    pub params: RunParams,
}

impl SweepSpec {
    /// An empty spec with the given run parameters and the identity MAC
    /// axis.
    pub fn new(params: RunParams) -> SweepSpec {
        SweepSpec {
            scenarios: Vec::new(),
            mac_axes: vec![MacAxis::table1()],
            seeds: Vec::new(),
            params,
        }
    }

    /// Adds one scenario recipe.
    pub fn scenario(mut self, s: SweepScenario) -> SweepSpec {
        self.scenarios.push(s);
        self
    }

    /// Adds several scenario recipes.
    pub fn scenarios(mut self, s: impl IntoIterator<Item = SweepScenario>) -> SweepSpec {
        self.scenarios.extend(s);
        self
    }

    /// Replaces the MAC grid (e.g. a CWmin ladder). An empty iterator
    /// falls back to the identity axis.
    pub fn mac_axes(mut self, axes: impl IntoIterator<Item = MacAxis>) -> SweepSpec {
        self.mac_axes = axes.into_iter().collect();
        if self.mac_axes.is_empty() {
            self.mac_axes.push(MacAxis::table1());
        }
        self
    }

    /// Sets the seed list from any iterator (e.g. `1..=30`).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> SweepSpec {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Expands the cross product, scenario-major then axis-major: all
    /// seeds of the first (scenario, axis) pair, then the next axis, …
    /// Cell order is part of the report contract (groups keep
    /// first-appearance order).
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut cells =
            Vec::with_capacity(self.scenarios.len() * self.mac_axes.len() * self.seeds.len());
        for &scenario in &self.scenarios {
            for &mac in &self.mac_axes {
                for &seed in &self.seeds {
                    cells.push(CellSpec {
                        scenario,
                        mac,
                        seed,
                        params: self.params,
                    });
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> RunParams {
        RunParams {
            duration: SimDuration::from_secs(2),
            warmup: SimDuration::from_millis(200),
            threads: 1,
        }
    }

    #[test]
    fn flow_count_matches_the_built_scenario() {
        let params = RunParams::quick();
        let mut recipes = SweepScenario::hidden3();
        for figure in [7, 9, 11, 12] {
            recipes.extend(SweepScenario::figure(figure));
        }
        recipes.extend([
            SweepScenario::TwoStation {
                rate: PhyRate::R2,
                distance_m: 50.0,
                transport: SessionTransport::Tcp,
                scheme: AccessScheme::Basic,
            },
            SweepScenario::Chain {
                n: 16,
                spacing_m: 80.0,
                rate: PhyRate::R2,
            },
            SweepScenario::Grid {
                rows: 3,
                cols: 4,
                spacing_m: 80.0,
                rate: PhyRate::R2,
            },
            SweepScenario::RandomDisk {
                n: 20,
                radius_m: 120.0,
                topo_seed: 7,
                rate: PhyRate::R2,
            },
            SweepScenario::mobile_disk64(20.0),
        ]);
        for r in recipes {
            // `Scenario`'s Debug form is the public view of its flow list.
            let built = format!("{:?}", r.build(params, 1));
            let expected = format!("flows: {},", r.flow_count());
            assert!(built.contains(&expected), "{}: {built}", r.name());
        }
    }

    #[test]
    fn cross_product_is_scenario_major() {
        let spec = SweepSpec::new(params())
            .scenarios(SweepScenario::figure(7))
            .seeds(1..=3);
        let cells = spec.cells();
        assert_eq!(cells.len(), 12);
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[2].seed, 3);
        assert_eq!(cells[0].scenario, cells[2].scenario);
        assert_ne!(cells[0].scenario, cells[3].scenario);
    }

    #[test]
    fn keys_separate_every_dimension() {
        let base = CellSpec {
            scenario: SweepScenario::figure(7)[0],
            mac: MacAxis::table1(),
            seed: 1,
            params: params(),
        };
        let other_seed = CellSpec { seed: 2, ..base };
        let other_scenario = CellSpec {
            scenario: SweepScenario::figure(9)[0],
            ..base
        };
        let other_params = CellSpec {
            params: RunParams {
                duration: SimDuration::from_secs(3),
                warmup: base.params.warmup,
                threads: 1,
            },
            ..base
        };
        let other_axis = CellSpec {
            mac: MacAxis {
                cw_min: 16,
                ..MacAxis::table1()
            },
            ..base
        };
        let other_policy = CellSpec {
            mac: MacAxis {
                policy: BackoffConfig::FixedCw(32),
                ..MacAxis::table1()
            },
            ..base
        };
        let keys = [
            base.key(),
            other_seed.key(),
            other_scenario.key(),
            other_params.key(),
            other_axis.key(),
            other_policy.key(),
        ];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "cells {i} and {j} collide");
            }
        }
    }

    #[test]
    fn mac_axis_labels_only_what_differs_from_table1() {
        let identity = MacAxis::table1();
        assert!(identity.is_table1());
        assert_eq!(identity.label(), "");
        let cw = MacAxis {
            cw_min: 8,
            ..identity
        };
        assert_eq!(cw.label(), "cw8-1024");
        let fixed = MacAxis {
            policy: BackoffConfig::FixedCw(64),
            slot_us: 9,
            ..identity
        };
        assert_eq!(fixed.label(), "fixed64/slot9us");
        let ct = MacAxis {
            policy: BackoffConfig::CtAdapt(dot11_mac::CtAdaptConfig::default()),
            short_retry: 5,
            long_retry: 3,
            ..identity
        };
        assert_eq!(ct.label(), "ctadapt/retry5-3");
        let cell = CellSpec {
            scenario: SweepScenario::figure(7)[0],
            mac: cw,
            seed: 1,
            params: params(),
        };
        assert_eq!(
            cell.group_label(),
            "four_station/asym11/11000k/udp/basic@cw8-1024"
        );
    }

    #[test]
    fn mac_axis_applies_to_a_built_scenario() {
        let cell = CellSpec {
            scenario: SweepScenario::TwoStation {
                rate: PhyRate::R11,
                distance_m: 10.0,
                transport: SessionTransport::Udp,
                scheme: AccessScheme::Basic,
            },
            mac: MacAxis {
                policy: BackoffConfig::FixedCw(16),
                cw_min: 16,
                cw_max: 64,
                short_retry: 5,
                long_retry: 3,
                slot_us: 9,
            },
            seed: 5,
            params: RunParams {
                duration: SimDuration::from_millis(400),
                warmup: SimDuration::from_millis(100),
                threads: 1,
            },
        };
        // The tuned scenario still runs, and the axis reached the MAC.
        let report = cell.build().run();
        assert!(report.flow(dot11_net::FlowId(0)).throughput_kbps > 100.0);
        let mut mac = MacConfig::new(PhyRate::R11);
        cell.mac.apply(&mut mac);
        assert_eq!(mac.backoff, BackoffConfig::FixedCw(16));
        assert_eq!(mac.timing.cw_min, 16);
        assert_eq!(mac.timing.cw_max, 64);
        assert_eq!(mac.short_retry_limit, 5);
        assert_eq!(mac.long_retry_limit, 3);
        assert_eq!(mac.timing.slot.as_micros(), 9);
        // DIFS re-derives from the swept slot.
        assert_eq!(mac.timing.difs.as_micros(), 10 + 2 * 9);
    }

    #[test]
    fn hidden_triple_cells_are_named_and_run() {
        let pair = SweepScenario::hidden3();
        assert_eq!(pair[0].name(), "hidden3/512B/2000k/udp/basic");
        assert_eq!(pair[1].name(), "hidden3/512B/2000k/udp/rts");
        let cell = CellSpec {
            scenario: pair[0],
            mac: MacAxis::table1(),
            seed: 5,
            params: RunParams {
                duration: SimDuration::from_millis(400),
                warmup: SimDuration::from_millis(100),
                threads: 1,
            },
        };
        let report = cell.build().run();
        assert!(report.engine.events > 0);
    }

    #[test]
    fn names_are_stable_and_seed_free() {
        let spec = SweepScenario::figure(12)[3];
        assert_eq!(spec.name(), "four_station/sym/2000k/tcp/rts");
        let cell = CellSpec {
            scenario: spec,
            mac: MacAxis::table1(),
            seed: 7,
            params: params(),
        };
        assert_eq!(cell.group_label(), spec.name());
    }

    #[test]
    #[should_panic(expected = "no four-station figure")]
    fn unknown_figure_panics() {
        SweepScenario::figure(8);
    }

    #[test]
    fn built_scenarios_run() {
        let cell = CellSpec {
            scenario: SweepScenario::TwoStation {
                rate: PhyRate::R11,
                distance_m: 10.0,
                transport: SessionTransport::Udp,
                scheme: AccessScheme::Basic,
            },
            mac: MacAxis::table1(),
            seed: 5,
            params: RunParams {
                duration: SimDuration::from_millis(400),
                warmup: SimDuration::from_millis(100),
                threads: 1,
            },
        };
        let report = cell.build().run();
        assert!(report.flow(dot11_net::FlowId(0)).throughput_kbps > 100.0);
    }

    #[test]
    fn large_topology_names_are_stable() {
        let cases = [
            (
                SweepScenario::Chain {
                    n: 16,
                    spacing_m: 80.0,
                    rate: PhyRate::R2,
                },
                "chain/16x80m/2000k/udp",
            ),
            (
                SweepScenario::Grid {
                    rows: 4,
                    cols: 4,
                    spacing_m: 80.0,
                    rate: PhyRate::R2,
                },
                "grid/4x4x80m/2000k/udp",
            ),
            (
                SweepScenario::RandomDisk {
                    n: 20,
                    radius_m: 120.0,
                    topo_seed: 7,
                    rate: PhyRate::R2,
                },
                "disk/20@120m/t7/2000k/udp",
            ),
            (
                SweepScenario::mobile_disk64(20.0),
                "mobile-disk/64@120m/t7/v20mps/e250ms/2000k/udp",
            ),
        ];
        for (scenario, name) in cases {
            assert_eq!(scenario.name(), name);
        }
    }

    #[test]
    fn large_topology_keys_separate_every_dimension() {
        let base = SweepScenario::Chain {
            n: 16,
            spacing_m: 80.0,
            rate: PhyRate::R2,
        };
        let variants = [
            base,
            SweepScenario::Chain {
                n: 17,
                spacing_m: 80.0,
                rate: PhyRate::R2,
            },
            SweepScenario::Chain {
                n: 16,
                spacing_m: 81.0,
                rate: PhyRate::R2,
            },
            // Same 16 stations, 80 m pitch — but arranged as a grid.
            SweepScenario::Grid {
                rows: 2,
                cols: 8,
                spacing_m: 80.0,
                rate: PhyRate::R2,
            },
            SweepScenario::Grid {
                rows: 8,
                cols: 2,
                spacing_m: 80.0,
                rate: PhyRate::R2,
            },
            SweepScenario::RandomDisk {
                n: 16,
                radius_m: 80.0,
                topo_seed: 1,
                rate: PhyRate::R2,
            },
            SweepScenario::RandomDisk {
                n: 16,
                radius_m: 80.0,
                topo_seed: 2,
                rate: PhyRate::R2,
            },
            // The same field, mobile — and each mobility dimension keys
            // apart too.
            SweepScenario::MobileDisk {
                n: 16,
                radius_m: 80.0,
                topo_seed: 2,
                rate: PhyRate::R2,
                speed_mps: 10.0,
                epoch_ms: 250,
            },
            SweepScenario::MobileDisk {
                n: 16,
                radius_m: 80.0,
                topo_seed: 2,
                rate: PhyRate::R2,
                speed_mps: 20.0,
                epoch_ms: 250,
            },
            SweepScenario::MobileDisk {
                n: 16,
                radius_m: 80.0,
                topo_seed: 2,
                rate: PhyRate::R2,
                speed_mps: 10.0,
                epoch_ms: 100,
            },
        ];
        let keys: Vec<_> = variants
            .iter()
            .map(|&scenario| {
                CellSpec {
                    scenario,
                    mac: MacAxis::table1(),
                    seed: 1,
                    params: params(),
                }
                .key()
            })
            .collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "cells {i} and {j} collide");
            }
        }
    }

    #[test]
    fn built_chain_and_disk_scenarios_run() {
        let params = RunParams {
            duration: SimDuration::from_millis(400),
            warmup: SimDuration::from_millis(100),
            threads: 1,
        };
        // A 4-station chain moves end-to-end traffic over its static route.
        let chain = SweepScenario::Chain {
            n: 4,
            spacing_m: 80.0,
            rate: PhyRate::R2,
        };
        let report = chain.build(params, 5).run();
        assert!(report.flow(dot11_net::FlowId(0)).delivered_packets > 0);
        // A random disk's three single-hop flows all move packets: with
        // only 40 m radius every pair is mutually audible.
        let disk = SweepScenario::RandomDisk {
            n: 6,
            radius_m: 40.0,
            topo_seed: 3,
            rate: PhyRate::R2,
        };
        let report = disk.build(params, 5).run();
        for flow in 0..3 {
            assert!(
                report.flow(dot11_net::FlowId(flow)).delivered_packets > 0,
                "disk flow {flow} starved"
            );
        }
        // A mobile disk commits epochs and still moves packets.
        let mobile = SweepScenario::MobileDisk {
            n: 6,
            radius_m: 40.0,
            topo_seed: 3,
            rate: PhyRate::R2,
            speed_mps: 15.0,
            epoch_ms: 100,
        };
        let report = mobile.build(params, 5).run();
        assert!(report.engine.mobility.epochs > 0, "no epochs committed");
        assert!(
            report.flow(dot11_net::FlowId(0)).delivered_packets > 0,
            "mobile disk flow 0 starved"
        );
    }
}
