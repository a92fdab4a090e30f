//! The three workloads: input generation from the seed, and one pass.
//!
//! A *pass* builds and runs every world of a workload once, in order,
//! through the public API of each layer, timing each call from outside:
//! `CellSpec::build` / the field generator plus `ScenarioBuilder::build`
//! (scenario), `Scenario::into_world_probed` (world construction,
//! including `Medium::new`), `World::step_until(end)` (dispatch),
//! `World::run` after it (report assembly only), and on `paper-grid`
//! `RunCache::store` / `RunCache::load`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use desim::{Probe, SimDuration, SimRng, SimTime};
use dot11_adhoc::calib::calibrated_dual_slope;
use dot11_adhoc::world::PROBE_SCOPES;
use dot11_adhoc::{RunReport, Scenario, ScenarioBuilder, Traffic};
use dot11_phy::{PhyRate, Position};
use dot11_sweep::{CellMetrics, CellSpec, MacAxis, RunCache, RunParams, SweepScenario, SweepSpec};
use dot11_trace::NullSink;

use crate::digest;
use crate::spans::Recorder;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 16 four-station cells over a seed range, through the
    /// sweep layer and its run cache.
    PaperGrid,
    /// A static 4096-station disk with saturated single-hop flows.
    LargeField,
    /// The 64-station random-waypoint disk.
    MobileField,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::LargeField,
        Workload::MobileField,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::LargeField => "large-field",
            Workload::MobileField => "mobile-field",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seeds per paper-grid cell: 16 cells × 8 seeds = 128 worlds a pass.
const PAPER_SEEDS: u64 = 8;
/// Worlds per large-field pass, each on its own field.
const FIELD_RUNS: u64 = 8;
/// Stations on a large field.
pub const FIELD_STATIONS: u32 = 4096;
/// Large-field disk radius, meters.
const FIELD_RADIUS_M: f64 = 12_000.0;
/// Saturated single-hop flows on a large field.
const FIELD_FLOWS: u32 = 32;
/// Sender–receiver distance range of a large-field flow, meters: well
/// inside the calibrated ~98 m data range at 2 Mb/s.
const FIELD_PAIR_M: (f64, f64) = (20.0, 50.0);
/// Minimum distance between two large-field senders, meters: far beyond
/// carrier-sense range, so every flow is a saturated link of its own and
/// the work per pass hardly depends on where the field puts them.
const FIELD_SENDER_GAP_M: f64 = 1_000.0;
/// Large-field session length and warm-up.
const FIELD_DURATION: SimDuration = SimDuration::from_secs(2);
const FIELD_WARMUP: SimDuration = SimDuration::from_millis(200);
/// Worlds per mobile-field pass, each on its own topology.
const MOBILE_RUNS: u64 = 16;

/// One world to build and run.
#[derive(Debug, Clone, Copy)]
pub enum Job {
    /// A sweep cell, built by `CellSpec::build`.
    Cell(CellSpec),
    /// A large field, built by [`field_scenario`].
    Field {
        /// Seed of the field and flow placement.
        topo_seed: u64,
        /// Master seed of the run.
        run_seed: u64,
    },
}

impl Job {
    fn duration(&self) -> SimDuration {
        match self {
            Job::Cell(cell) => cell.params.duration,
            Job::Field { .. } => FIELD_DURATION,
        }
    }

    fn build(&self) -> Scenario {
        match *self {
            Job::Cell(cell) => cell.build(),
            Job::Field {
                topo_seed,
                run_seed,
            } => field_scenario(topo_seed, run_seed),
        }
    }
}

/// Every world a pass of `workload` runs, generated from `seed`.
pub fn jobs(workload: Workload, seed: u64) -> Vec<Job> {
    let mut rng = SimRng::from_seed(seed).substream(workload.name().as_bytes());
    let mut draw = || rng.gen_range_u32(1, u32::MAX) as u64;
    match workload {
        Workload::PaperGrid => {
            let base = draw();
            let scenarios = [7, 9, 11, 12].into_iter().flat_map(SweepScenario::figure);
            SweepSpec::new(RunParams::quick())
                .scenarios(scenarios)
                .seeds(base..base + PAPER_SEEDS)
                .cells()
                .into_iter()
                .map(Job::Cell)
                .collect()
        }
        Workload::LargeField => (0..FIELD_RUNS)
            .map(|_| Job::Field {
                topo_seed: draw(),
                run_seed: draw(),
            })
            .collect(),
        Workload::MobileField => (0..MOBILE_RUNS)
            .map(|_| {
                let SweepScenario::MobileDisk {
                    n,
                    radius_m,
                    rate,
                    speed_mps,
                    epoch_ms,
                    ..
                } = SweepScenario::mobile_disk64(20.0)
                else {
                    unreachable!("mobile_disk64 is a MobileDisk recipe")
                };
                Job::Cell(CellSpec {
                    scenario: SweepScenario::MobileDisk {
                        n,
                        radius_m,
                        topo_seed: draw(),
                        rate,
                        speed_mps,
                        epoch_ms,
                    },
                    mac: MacAxis::table1(),
                    seed: draw(),
                    params: RunParams::quick(),
                })
            })
            .collect(),
    }
}

/// Whether a workload's pass goes through the run cache.
fn cached(workload: Workload) -> bool {
    workload == Workload::PaperGrid
}

/// A large field: stations uniform on the disk, plus one receiver placed
/// within data range of each of [`FIELD_FLOWS`] senders that stand at
/// least [`FIELD_SENDER_GAP_M`] apart; one saturated UDP flow per pair.
pub fn field_scenario(topo_seed: u64, run_seed: u64) -> Scenario {
    let mut rng = SimRng::from_seed(topo_seed).substream(b"perfbench/large-field");
    let ambient = FIELD_STATIONS - FIELD_FLOWS;
    let mut positions: Vec<Position> = (0..ambient)
        .map(|_| {
            let r = FIELD_RADIUS_M * rng.gen_f64().sqrt();
            let theta = std::f64::consts::TAU * rng.gen_f64();
            Position {
                x: r * theta.cos(),
                y: r * theta.sin(),
            }
        })
        .collect();
    let mut senders: Vec<u32> = Vec::with_capacity(FIELD_FLOWS as usize);
    while senders.len() < FIELD_FLOWS as usize {
        let c = rng.gen_range_u32(0, ambient);
        let p = positions[c as usize];
        if senders
            .iter()
            .all(|&s| positions[s as usize].distance_to(p).0 >= FIELD_SENDER_GAP_M)
        {
            senders.push(c);
        }
    }
    for &s in &senders {
        let (lo, hi) = FIELD_PAIR_M;
        let d = lo + (hi - lo) * rng.gen_f64();
        let theta = std::f64::consts::TAU * rng.gen_f64();
        let p = positions[s as usize];
        positions.push(Position {
            x: p.x + d * theta.cos(),
            y: p.y + d * theta.sin(),
        });
    }
    let mut b = ScenarioBuilder::new(PhyRate::R2)
        .path_loss(calibrated_dual_slope())
        .seed(run_seed)
        .duration(FIELD_DURATION)
        .warmup(FIELD_WARMUP);
    for p in positions {
        b.station(p);
    }
    for (k, &s) in senders.iter().enumerate() {
        b = b.flow(
            s,
            ambient + k as u32,
            Traffic::SaturatedUdp {
                payload_bytes: 512,
                backlog: 10,
            },
        );
    }
    b.build()
}

/// Exact work and physics counts of one pass. Two passes over the same
/// inputs must agree on every field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Worlds run.
    pub worlds: u64,
    /// Events dispatched.
    pub events: u64,
    /// Largest event-queue high-water mark of any world.
    pub queue_high_water: u64,
    /// Frames put on the air.
    pub frames: u64,
    /// Frame deliveries scattered to receivers (frames × audible set of
    /// their transmitter at construction).
    pub deliveries: u64,
    /// Audible links built at world construction, summed over worlds.
    pub audible_links: u64,
    /// Receiver locks onto a preamble.
    pub locks: u64,
    /// Frames decoded.
    pub decoded: u64,
    /// Data MPDU transmission attempts.
    pub data_tx: u64,
    /// MAC retransmission attempts.
    pub retries: u64,
    /// MSDUs dropped at the retry limit.
    pub tx_dropped: u64,
    /// EIFS deferrals.
    pub eifs_defers: u64,
    /// Packets offered by the sources.
    pub offered: u64,
    /// Packets delivered to the sinks.
    pub delivered: u64,
    /// Sum over worlds of aggregate goodput, kb/s.
    pub goodput_kbps: f64,
    /// TCP retransmission-timer expiries.
    pub tcp_rto: u64,
    /// Audible slices recomputed by mobility epochs.
    pub slices_recomputed: u64,
    /// Links recomputed by mobility epochs.
    pub links_recomputed: u64,
    /// Cache lookups that found the cell.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
}

/// Everything one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Simulated seconds covered by the pass's worlds.
    pub sim_secs: f64,
    /// Per world: scenario build.
    pub build: Vec<Duration>,
    /// Per world: world construction.
    pub construct: Vec<Duration>,
    /// Per world: dispatch (`step_until`).
    pub dispatch: Vec<Duration>,
    /// Per world: report assembly.
    pub report: Vec<Duration>,
    /// Per world: the process's peak resident set while it was built and
    /// run, MiB.
    pub peak_rss_mb: Vec<f64>,
    /// Per cell: `RunCache::store`.
    pub cache_store: Vec<Duration>,
    /// Per cell: `RunCache::load` in the warm pass.
    pub cache_load: Vec<Duration>,
    /// Probe wall time per [`PROBE_SCOPES`] entry, nanoseconds (traced
    /// passes only).
    pub scopes: Vec<u64>,
    /// Exact counts.
    pub counts: Counts,
    /// Per-world physics digests, in run order (0 for a world that
    /// panicked).
    pub digests: Vec<u64>,
    /// Worlds run plus cache entries read back.
    pub attempted: u64,
    /// Attempts that panicked, delivered nothing, failed to store, or
    /// read back wrong.
    pub failed: u64,
}

impl Pass {
    /// Scenario build plus world construction, summed over worlds.
    pub fn setup(&self) -> Duration {
        self.build.iter().chain(&self.construct).sum()
    }

    /// Per world: build + construct + dispatch + report.
    pub fn run_times(&self) -> Vec<Duration> {
        (0..self.build.len())
            .map(|i| self.build[i] + self.construct[i] + self.dispatch[i] + self.report[i])
            .collect()
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: hands free heap memory back to the kernel.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Starts every world from the same memory state: returns the free heap
/// earlier worlds left behind to the kernel, then resets this process's
/// peak resident set (`VmHWM`) to its current resident set. Without both,
/// a world's peak would include whatever the allocator kept from earlier
/// worlds, which depends on the seed's allocation order (92 or 122 MiB
/// for the same large field). Where Linux refuses the reset, the peak is
/// simply not reset.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim takes no pointers and only releases memory the
    // allocator holds as free; every live allocation stays valid.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last reset, MiB (NaN
/// where `/proc` has no `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One built-and-run world.
struct Simulated {
    report: RunReport,
    /// Audible-set size of each station right after construction.
    audible: Vec<u64>,
    times: [Duration; 4],
}

fn simulate<P: Probe>(job: &Job, probe: P, rec: &mut Recorder, run: u64) -> Simulated {
    let span = rec.open("scenario.build", Some(run));
    let scenario = job.build();
    let build = rec.close(span);

    let span = rec.open("world.construct", Some(run));
    let mut world = scenario.into_world_probed(NullSink, probe);
    let construct = rec.close(span);

    let medium = world.medium();
    let audible = (0..medium.station_count())
        .map(|i| medium.audible_count(dot11_phy::NodeId(i as u32)) as u64)
        .collect();

    let span = rec.open("world.dispatch", Some(run));
    world.step_until(SimTime::ZERO + job.duration());
    let dispatch = rec.close(span);

    let span = rec.open("world.report", Some(run));
    let report = world.run();
    let report_time = rec.close(span);

    Simulated {
        report,
        audible,
        times: [build, construct, dispatch, report_time],
    }
}

/// Folds one world's report into the pass counts.
fn tally(c: &mut Counts, sim: &Simulated) {
    let r = &sim.report;
    c.worlds += 1;
    c.events += r.engine.events;
    c.queue_high_water = c.queue_high_water.max(r.engine.queue_high_water as u64);
    c.audible_links += sim.audible.iter().sum::<u64>();
    for (node, &audible) in r.nodes.iter().zip(&sim.audible) {
        c.frames += node.phy.tx_frames;
        c.deliveries += node.phy.tx_frames * audible;
        c.locks += node.phy.locks;
        c.decoded += node.phy.decoded;
        c.data_tx += node.mac.data_tx;
        c.retries += node.mac.retries;
        c.tx_dropped += node.mac.tx_dropped;
        c.eifs_defers += node.mac.eifs_defers;
    }
    for f in &r.flows {
        c.offered += f.offered_packets;
        c.delivered += f.delivered_packets;
    }
    c.goodput_kbps += r.total_throughput_kbps();
    c.tcp_rto += r.engine.kinds.rto_timer;
    c.slices_recomputed += r.engine.mobility.slices_recomputed;
    c.links_recomputed += r.engine.mobility.links_recomputed;
}

/// Runs one pass of `jobs`. `probe` makes each world's probe (`NoProbe`
/// untraced, an armed `WallProbe` traced); `cache_dir` is emptied and
/// used as the run cache on cached workloads.
pub fn run_pass<P: Probe>(
    workload: Workload,
    jobs: &[Job],
    probe: impl Fn() -> P,
    rec: &mut Recorder,
    cache_dir: &Path,
) -> Pass {
    let cache = cached(workload).then(|| {
        let _ = std::fs::remove_dir_all(cache_dir);
        RunCache::open(cache_dir).expect("the benchmark's cache directory is writable")
    });
    let mut pass = Pass {
        scopes: vec![0; PROBE_SCOPES.len()],
        ..Pass::default()
    };
    let mut stored: Vec<Option<CellMetrics>> = Vec::new();
    let start = Instant::now();
    let pass_span = rec.open("pass", None);
    for (i, job) in jobs.iter().enumerate() {
        let run = i as u64;
        pass.attempted += 1;
        if let (Some(cache), Job::Cell(cell)) = (&cache, job) {
            let span = rec.open("sweep.cache_load", Some(run));
            let hit = cache.load(cell).is_some();
            rec.close(span);
            if hit {
                pass.counts.cache_hits += 1;
            } else {
                pass.counts.cache_misses += 1;
            }
        }
        let depth = rec.depth();
        reset_peak_rss();
        let outcome = catch_unwind(AssertUnwindSafe(|| simulate(job, probe(), rec, run)));
        pass.peak_rss_mb.push(peak_rss_mb());
        let Ok(sim) = outcome else {
            rec.unwind(depth);
            pass.failed += 1;
            pass.digests.push(0);
            stored.push(None);
            continue;
        };
        let [build, construct, dispatch, report] = sim.times;
        pass.build.push(build);
        pass.construct.push(construct);
        pass.dispatch.push(dispatch);
        pass.report.push(report);
        pass.sim_secs += job.duration().as_secs_f64();

        let span = rec.open("bench.check", Some(run));
        tally(&mut pass.counts, &sim);
        // A world that delivers nothing measures an idle channel, not the
        // workload (the shipped disk4096 and chain1024 recipes do that).
        if sim.report.total_throughput_kbps() <= 0.0 {
            pass.failed += 1;
        }
        pass.digests.push(digest::run_digest(&sim.report));
        if let Some(profile) = &sim.report.engine.profile {
            for (total, scope) in pass.scopes.iter_mut().zip(&profile.scopes) {
                *total += scope.total_ns;
            }
        }
        let metrics = cache
            .as_ref()
            .map(|_| CellMetrics::from_report(&sim.report));
        rec.close(span);

        if let (Some(cache), Job::Cell(cell), Some(m)) = (&cache, job, &metrics) {
            let span = rec.open("sweep.cache_store", Some(run));
            let ok = cache.store(cell, m, 0).is_ok();
            pass.cache_store.push(rec.close(span));
            if !ok {
                pass.failed += 1;
            }
        }
        stored.push(metrics);
    }
    if let Some(cache) = &cache {
        for (i, (job, want)) in jobs.iter().zip(&stored).enumerate() {
            let Job::Cell(cell) = job else { continue };
            pass.attempted += 1;
            let span = rec.open("sweep.cache_load", Some(i as u64));
            let got = cache.load(cell);
            pass.cache_load.push(rec.close(span));
            if got.is_some() {
                pass.counts.cache_hits += 1;
            } else {
                pass.counts.cache_misses += 1;
            }
            if want.is_none() || got != *want {
                pass.failed += 1;
            }
        }
    }
    rec.close(pass_span);
    pass.wall = start.elapsed();
    if cache.is_some() {
        let _ = std::fs::remove_dir_all(cache_dir);
    }
    pass
}
