//! Regenerates every table and figure of the paper as text.
//!
//! Usage: `cargo run --release --bin repro [-- FLAGS]`
//!
//! * `--quick` — 4 s sessions instead of 20 s (same shapes, less
//!   confidence).
//! * `--json <path>` — additionally write a machine-readable report of
//!   the four-station figures (7/9/11/12): per-cell throughputs, engine
//!   self-instrumentation, and a per-interval throughput time series.
//! * `--metrics <interval>` — window length for that time series
//!   (`1s`, `500ms`, `250us`; default `1s`).
//! * `--trace <path>` — write a JSONL event trace of the Figure 7
//!   UDP/basic-access cell (one JSON object per MAC/PHY/TCP event).
//! * `--mobility waypoint:speed=S[,epoch=E]` or
//!   `--mobility trace:file=PATH[,epoch=E]` — set the four-station
//!   figures' stations in motion (random waypoint at `S` m/s, or
//!   piecewise-linear playback of a `seconds node x y` trace file); the
//!   JSON `engine` objects then carry per-run link-churn counters.
//!
//! Output sections are numbered after the paper's artifacts.
//!
//! # `repro sweep`
//!
//! `cargo run --release --bin repro -- sweep [FLAGS]` runs the paper's
//! four-station figures across a **seed population in parallel** and
//! prints seed-aggregated statistics (mean ± 95% CI over seeds) instead
//! of one channel draw:
//!
//! * `--scenarios fig7,fig9,fig11,fig12` — which figures (default: all
//!   four; each contributes 4 cells: UDP/TCP × basic/RTS).
//! * `--seeds A..B` or `--seeds N` (= `1..N`) — seed range, inclusive
//!   (default `1..8`).
//! * `--jobs N` — sweep worker threads (default: all cores). Each
//!   cell runs on one thread; cells run in parallel.
//! * `--cache-dir <dir>` — content-addressed run cache: finished cells
//!   are never recomputed, a fully warm re-run simulates zero worlds.
//! * `--json <path>` — write the full machine-readable `SweepReport`.
//! * `--quick` — 4 s sessions instead of 20 s.
//! * `--duration <interval>` / `--warmup <interval>` — explicit run
//!   length (e.g. `300ms`; overrides `--quick`).

use desim::SimDuration;
use dot11_adhoc::analytic::{
    overhead_breakdown, table2, AccessScheme, Dot11bParams, TransportKind,
};
use dot11_adhoc::experiments::four_station::{
    self, figure11, figure12, figure7, figure9, FourStationCell, FourStationLayout,
    SessionTransport,
};
use dot11_adhoc::experiments::{figure2, figure3, figure4, table3, ExpConfig};
use dot11_adhoc::range::estimate_crossing;
use dot11_adhoc::EngineStats;
use dot11_phy::{PhyRate, Preamble};
use dot11_trace::{IntervalMetricsSink, IntervalRow, JsonlSink, SharedSink};

struct Opts {
    quick: bool,
    trace: Option<String>,
    json: Option<String>,
    metrics: SimDuration,
    /// `--mobility` raw spec + parsed config: sets the four-station
    /// figures' stations in motion (off by default, so the static
    /// outputs stay byte-identical).
    mobility: Option<(String, dot11_adhoc::MobilityConfig)>,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        quick: false,
        trace: None,
        json: None,
        metrics: SimDuration::from_secs(1),
        mobility: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--trace" => {
                opts.trace = Some(args.next().unwrap_or_else(|| usage("--trace needs a path")))
            }
            "--json" => {
                opts.json = Some(args.next().unwrap_or_else(|| usage("--json needs a path")))
            }
            "--metrics" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--metrics needs an interval"));
                opts.metrics = parse_interval(&v).unwrap_or_else(|| {
                    usage(&format!("bad interval {v:?} (try 1s, 500ms, 250us)"))
                });
            }
            "--mobility" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--mobility needs a model spec"));
                opts.mobility = Some((v.clone(), parse_mobility(&v)));
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    opts
}

fn usage(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!(
        "usage: repro [--quick] [--json <path>] [--metrics <interval>] \
         [--trace <path>] [--mobility waypoint:speed=S[,epoch=E] | trace:file=PATH[,epoch=E]]"
    );
    std::process::exit(2);
}

/// Parses a `--mobility` spec: `waypoint:speed=50[,epoch=250ms]` (random
/// waypoint on the topology's bounding disk at `speed` m/s) or
/// `trace:file=walk.txt[,epoch=100ms]` (piecewise-linear playback of a
/// `seconds node x y` trace file). Exits with usage on any malformed
/// spec so a typo never silently runs static.
fn parse_mobility(spec: &str) -> dot11_adhoc::MobilityConfig {
    use dot11_adhoc::mobility::parse_trace;
    use dot11_adhoc::MobilityConfig;
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    let mut speed = None;
    let mut file = None;
    let mut epoch = None;
    for part in rest.split(',').filter(|p| !p.is_empty()) {
        let Some((k, v)) = part.split_once('=') else {
            usage(&format!(
                "bad --mobility parameter {part:?} (want key=value)"
            ));
        };
        match k {
            "speed" => {
                speed = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage(&format!("bad --mobility speed {v:?}"))),
                )
            }
            "file" => file = Some(v.to_owned()),
            "epoch" => {
                epoch = Some(
                    parse_interval(v)
                        .unwrap_or_else(|| usage(&format!("bad --mobility epoch {v:?}"))),
                )
            }
            other => usage(&format!(
                "unknown --mobility key {other:?} (try speed, file, epoch)"
            )),
        }
    }
    let mut config = match kind {
        "waypoint" => MobilityConfig::waypoint(
            speed.unwrap_or_else(|| usage("--mobility waypoint needs speed=<m/s>")),
        ),
        "trace" => {
            let path = file.unwrap_or_else(|| usage("--mobility trace needs file=<path>"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("repro: reading mobility trace {path}: {e}");
                std::process::exit(1);
            });
            MobilityConfig::trace(
                parse_trace(&text)
                    .unwrap_or_else(|e| usage(&format!("mobility trace {path}: {e}"))),
            )
        }
        other => usage(&format!(
            "unknown mobility model {other:?} (try waypoint, trace)"
        )),
    };
    if let Some(e) = epoch {
        config = config.with_epoch(e);
    }
    config
}

/// Parses `1s` / `500ms` / `250us` / `100ns` (a bare number means
/// seconds) into a positive duration.
fn parse_interval(s: &str) -> Option<SimDuration> {
    let split = s.find(|c: char| c.is_alphabetic()).unwrap_or(s.len());
    let (num, unit) = s.split_at(split);
    let v: f64 = num.parse().ok()?;
    let ns = match unit {
        "" | "s" => v * 1e9,
        "ms" => v * 1e6,
        "us" | "µs" => v * 1e3,
        "ns" => v,
        _ => return None,
    };
    if !ns.is_finite() || ns < 1.0 {
        return None;
    }
    Some(SimDuration::from_nanos(ns.round() as u64))
}

mod analyze;

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("sweep") => {
            sweep_main(std::env::args().skip(2).collect());
            return;
        }
        Some("analyze") => {
            analyze::analyze_main(std::env::args().skip(2).collect());
            return;
        }
        _ => {}
    }
    let opts = parse_args();
    let cfg = if opts.quick {
        ExpConfig::quick()
    } else {
        ExpConfig::full()
    };
    println!("Reproduction of: IEEE 802.11 Ad Hoc Networks: Performance Measurements");
    println!("(Anastasi, Borgia, Conti, Gregori — ICDCS-W 2003)");
    println!(
        "Sessions: {} per measurement, seed {}\n",
        cfg.duration, cfg.seed
    );

    table1();
    figure1();
    print_table2();
    print_figure2(cfg);
    print_figure3(cfg);
    print_figure4(cfg);
    print_table3(cfg);
    if opts.json.is_some() || opts.mobility.is_some() {
        // Instrumented path: rerun each four-station cell with an
        // interval-metrics sink so the JSON report carries the
        // throughput-vs-time series next to the headline numbers.
        // `--mobility` rides the same path so its churn counters land in
        // the JSON `engine` objects.
        if let Some((spec, _)) = &opts.mobility {
            println!("Mobility: {spec} (four-station figures run with stations in motion)\n");
        }
        let mobility = opts.mobility.as_ref().map(|(_, m)| m);
        let figures = run_instrumented_figures(cfg, opts.metrics, mobility);
        for f in &figures {
            print_four_station(f.title, f.cells.iter().map(|c| c.cell).collect());
        }
        if let Some(path) = opts.json.as_deref() {
            match std::fs::write(path, report_json(cfg, opts.metrics, &figures)) {
                Ok(()) => println!("JSON report written to {path}"),
                Err(e) => {
                    eprintln!("repro: writing {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    } else {
        print_four_station(FIG7_TITLE, figure7(cfg));
        print_four_station(FIG9_TITLE, figure9(cfg));
        print_four_station(FIG11_TITLE, figure11(cfg));
        print_four_station(FIG12_TITLE, figure12(cfg));
    }
    if let Some(path) = &opts.trace {
        match write_trace(cfg, path) {
            Ok(lines) => println!("JSONL trace ({lines} events) written to {path}"),
            Err(e) => {
                eprintln!("repro: tracing to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

// --- the sweep subcommand -------------------------------------------------

struct SweepArgs {
    scenarios: Vec<(String, Vec<dot11_sweep::SweepScenario>)>,
    mac_axes: Vec<dot11_sweep::MacAxis>,
    seeds: std::ops::RangeInclusive<u64>,
    jobs: usize,
    cache_dir: Option<String>,
    json: Option<String>,
    progress: Option<String>,
    params: dot11_sweep::RunParams,
}

fn sweep_usage(msg: &str) -> ! {
    eprintln!("repro sweep: {msg}");
    eprintln!(
        "usage: repro sweep \
         [--scenarios fig7,fig9,fig11,fig12,chain16,chain64,grid16,disk20,disk4096,hidden3,\
mobile-disk64[-slow|-fast]] \
         [--mac-grid key=v1,v2,...] [--seeds A..B|N] [--jobs N] \
         [--cache-dir <dir>] [--json <path>] [--progress <path|->] [--quick] \
         [--duration <interval>] [--warmup <interval>]"
    );
    eprintln!(
        "  --mac-grid keys: policy (beb|fixedN|ctadapt), cwmin, cwmax, retry, longretry, \
         slot (µs); repeat the flag to cross dimensions, e.g. \
         --mac-grid cwmin=8,16,32,64 --mac-grid policy=beb,fixed32"
    );
    std::process::exit(2);
}

/// Expands one `--mac-grid key=v1,v2,...` dimension against the axes
/// accumulated so far (cross product across repeated flags).
fn parse_mac_grid(axes: Vec<dot11_sweep::MacAxis>, spec: &str) -> Vec<dot11_sweep::MacAxis> {
    use dot11_mac::{BackoffConfig, CtAdaptConfig};
    let Some((key, list)) = spec.split_once('=') else {
        sweep_usage(&format!("bad --mac-grid {spec:?} (want key=v1,v2,...)"));
    };
    let mut out = Vec::new();
    for &axis in &axes {
        for value in list.split(',') {
            let parse_u32 = || {
                value
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        sweep_usage(&format!("bad --mac-grid {key} value {value:?}"))
                    })
            };
            let mut axis = axis;
            match key {
                "policy" => {
                    axis.policy = if value == "beb" {
                        BackoffConfig::Beb
                    } else if value == "ctadapt" {
                        BackoffConfig::CtAdapt(CtAdaptConfig::default())
                    } else if let Some(cw) = value.strip_prefix("fixed") {
                        BackoffConfig::FixedCw(cw.parse().ok().filter(|&n| n >= 1).unwrap_or_else(
                            || sweep_usage(&format!("bad fixed-CW width in {value:?}")),
                        ))
                    } else {
                        sweep_usage(&format!(
                            "unknown policy {value:?} (try beb, fixedN, ctadapt)"
                        ));
                    };
                }
                "cwmin" => axis.cw_min = parse_u32(),
                "cwmax" => axis.cw_max = parse_u32(),
                "retry" => axis.short_retry = parse_u32(),
                "longretry" => axis.long_retry = parse_u32(),
                "slot" => axis.slot_us = parse_u32(),
                other => sweep_usage(&format!(
                    "unknown --mac-grid key {other:?} (try policy, cwmin, cwmax, retry, \
                     longretry, slot)"
                )),
            }
            if axis.cw_min > axis.cw_max {
                sweep_usage(&format!(
                    "CWmin {} exceeds CWmax {} in --mac-grid {spec}",
                    axis.cw_min, axis.cw_max
                ));
            }
            out.push(axis);
        }
    }
    out
}

/// Parses `A..B` (inclusive) or a bare `N` meaning `1..N`.
fn parse_seed_range(s: &str) -> Option<std::ops::RangeInclusive<u64>> {
    let range = match s.split_once("..") {
        Some((a, b)) => a.parse().ok()?..=b.parse().ok()?,
        None => 1..=s.parse().ok()?,
    };
    (!range.is_empty()).then_some(range)
}

/// Every scenario-group name [`parse_scenario_group`] accepts.
const SCENARIO_GROUPS: [&str; 13] = [
    "fig7",
    "fig9",
    "fig11",
    "fig12",
    "chain16",
    "chain64",
    "grid16",
    "disk20",
    "disk4096",
    "hidden3",
    "mobile-disk64",
    "mobile-disk64-slow",
    "mobile-disk64-fast",
];

fn parse_scenario_group(name: &str) -> Option<Vec<dot11_sweep::SweepScenario>> {
    use dot11_sweep::SweepScenario;
    match name {
        "fig7" => Some(SweepScenario::figure(7)),
        "fig9" => Some(SweepScenario::figure(9)),
        "fig11" => Some(SweepScenario::figure(11)),
        "fig12" => Some(SweepScenario::figure(12)),
        // Large-topology families (PR 5): multi-hop chains/grids at 80 m
        // pitch (a reliable 2 Mb/s hop per the calibrated Table 3 ranges)
        // and a 20-station random field.
        "chain16" => Some(vec![SweepScenario::Chain {
            n: 16,
            spacing_m: 80.0,
            rate: PhyRate::R2,
        }]),
        "chain64" => Some(vec![SweepScenario::Chain {
            n: 64,
            spacing_m: 80.0,
            rate: PhyRate::R2,
        }]),
        "grid16" => Some(vec![SweepScenario::Grid {
            rows: 4,
            cols: 4,
            spacing_m: 80.0,
            rate: PhyRate::R2,
        }]),
        "disk20" => Some(vec![SweepScenario::RandomDisk {
            n: 20,
            radius_m: 120.0,
            topo_seed: 7,
            rate: PhyRate::R2,
        }]),
        // Production-scale disk (PR 8): 4096 stations on a 12 km disk.
        // Audible-set culling plus the flat per-event hot path keep a
        // sweep over it tractable; CI smoke-runs it at --quick duration.
        "disk4096" => Some(vec![SweepScenario::RandomDisk {
            n: 4096,
            radius_m: 12_000.0,
            topo_seed: 7,
            rate: PhyRate::R2,
        }]),
        // The hidden-terminal triple (PR 7): basic access collapses,
        // RTS/CTS recovers.
        "hidden3" => Some(SweepScenario::hidden3()),
        // The mobile disk (PR 10): 64 stations random-waypoint walking on
        // a 120 m disk (the calibrated 2 Mb/s data range), epoch-committed link
        // state. The speed ladder makes throughput-vs-node-speed a one-flag sweep.
        "mobile-disk64" => Some(vec![SweepScenario::mobile_disk64(20.0)]),
        "mobile-disk64-slow" => Some(vec![SweepScenario::mobile_disk64(5.0)]),
        "mobile-disk64-fast" => Some(vec![SweepScenario::mobile_disk64(50.0)]),
        _ => None,
    }
}

fn parse_sweep_args(args: Vec<String>) -> SweepArgs {
    let mut out = SweepArgs {
        scenarios: Vec::new(),
        mac_axes: vec![dot11_sweep::MacAxis::table1()],
        seeds: 1..=8,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cache_dir: None,
        json: None,
        progress: None,
        params: dot11_sweep::RunParams::full(),
    };
    let mut duration = None;
    let mut warmup = None;
    let mut quick = false;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scenarios" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| sweep_usage("--scenarios needs a list"));
                for name in v.split(',') {
                    let group = parse_scenario_group(name).unwrap_or_else(|| {
                        sweep_usage(&format!(
                            "unknown scenario {name:?} (try {})",
                            SCENARIO_GROUPS.join(", ")
                        ))
                    });
                    out.scenarios.push((name.to_owned(), group));
                }
            }
            "--mac-grid" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| sweep_usage("--mac-grid needs key=v1,v2,..."));
                out.mac_axes = parse_mac_grid(std::mem::take(&mut out.mac_axes), &v);
            }
            "--seeds" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| sweep_usage("--seeds needs a range"));
                out.seeds = parse_seed_range(&v)
                    .unwrap_or_else(|| sweep_usage(&format!("bad seed range {v:?} (try 1..30)")));
            }
            "--jobs" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| sweep_usage("--jobs needs a count"));
                out.jobs = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| sweep_usage(&format!("bad job count {v:?}")));
            }
            "--cache-dir" => {
                out.cache_dir = Some(
                    args.next()
                        .unwrap_or_else(|| sweep_usage("--cache-dir needs a path")),
                );
            }
            "--json" => {
                out.json = Some(
                    args.next()
                        .unwrap_or_else(|| sweep_usage("--json needs a path")),
                );
            }
            "--progress" => {
                out.progress =
                    Some(args.next().unwrap_or_else(|| {
                        sweep_usage("--progress needs a path (or - for stderr)")
                    }));
            }
            "--quick" => quick = true,
            "--duration" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| sweep_usage("--duration needs an interval"));
                duration = Some(
                    parse_interval(&v)
                        .unwrap_or_else(|| sweep_usage(&format!("bad interval {v:?}"))),
                );
            }
            "--warmup" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| sweep_usage("--warmup needs an interval"));
                warmup = Some(
                    parse_interval(&v)
                        .unwrap_or_else(|| sweep_usage(&format!("bad interval {v:?}"))),
                );
            }
            other => sweep_usage(&format!("unknown flag {other:?}")),
        }
    }
    if quick {
        out.params = dot11_sweep::RunParams::quick();
    }
    if let Some(d) = duration {
        out.params.duration = d;
        // Keep the default warm-up valid for short explicit durations.
        if out.params.warmup >= d {
            out.params.warmup = SimDuration::from_nanos((d.as_nanos() / 4).max(1));
        }
    }
    if let Some(w) = warmup {
        out.params.warmup = w;
    }
    if out.params.warmup >= out.params.duration {
        sweep_usage("warmup must be shorter than duration");
    }
    if out.scenarios.is_empty() {
        for name in ["fig7", "fig9", "fig11", "fig12"] {
            out.scenarios
                .push((name.to_owned(), parse_scenario_group(name).expect("known")));
        }
    }
    out
}

fn sweep_main(args: Vec<String>) {
    let args = parse_sweep_args(args);
    let spec = dot11_sweep::SweepSpec::new(args.params)
        .scenarios(args.scenarios.iter().flat_map(|(_, g)| g.iter().copied()))
        .mac_axes(args.mac_axes.clone())
        .seeds(args.seeds.clone());
    let n_scenarios = spec.scenarios.len();
    let n_axes = spec.mac_axes.len();
    let n_seeds = spec.seeds.len();
    if n_axes > 1 {
        println!(
            "== SWEEP — {n_scenarios} scenario cells × {n_axes} MAC axes × {n_seeds} seeds \
             = {} runs ==",
            n_scenarios * n_axes * n_seeds
        );
    } else {
        println!(
            "== SWEEP — {n_scenarios} scenario cells × {n_seeds} seeds = {} runs ==",
            n_scenarios * n_seeds
        );
    }
    println!(
        "sessions: {} (warm-up {}), seeds {}..{}\n",
        args.params.duration,
        args.params.warmup,
        args.seeds.start(),
        args.seeds.end()
    );
    let progress = args.progress.as_deref().map(|dest| {
        let sink = if dest == "-" {
            // Stderr keeps stdout machine-comparable (the smoke tests
            // md5 it) while still letting `2>` capture the stream.
            dot11_sweep::ProgressSink::stderr()
        } else {
            match std::fs::File::create(dest) {
                Ok(f) => dot11_sweep::ProgressSink::new(Box::new(f)),
                Err(e) => {
                    eprintln!("repro sweep: opening progress stream {dest}: {e}");
                    std::process::exit(1);
                }
            }
        };
        std::sync::Arc::new(sink)
    });
    let opts = dot11_sweep::SweepOptions {
        jobs: args.jobs,
        cache_dir: args.cache_dir.clone().map(Into::into),
        progress,
    };
    let report = match dot11_sweep::run_sweep(&spec, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro sweep: {e}");
            std::process::exit(1);
        }
    };
    print_sweep_report(&report);
    if let Some(path) = &args.json {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => println!("JSON sweep report written to {path}"),
            Err(e) => {
                eprintln!("repro sweep: writing {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn fmt_summary_kbps(s: &dot11_adhoc::Summary) -> String {
    format!("{:>6.0} ± {:<5.0}", s.mean, s.ci95)
}

fn print_sweep_report(report: &dot11_sweep::SweepReport) {
    println!(
        "{:<42} | {:>3} | {:>14} | {:>14} | {:>9} | {:>11} | chan util",
        "scenario (kb/s, mean ± 95% CI over seeds)",
        "n",
        "session 1",
        "session 2",
        "imbalance",
        "fairness"
    );
    for g in &report.groups {
        let s2 = g
            .flows_kbps
            .get(1)
            .map(fmt_summary_kbps)
            .unwrap_or_else(|| format!("{:>14}", "—"));
        let imbalance = g
            .imbalance()
            .map(|r| format!("{r:>8.2}x"))
            .unwrap_or_else(|| format!("{:>9}", "—"));
        println!(
            "{:<42} | {:>3} | {} | {} | {} | {:>5.2} ± {:.2} | {:>5.1}%",
            g.label,
            g.total_kbps.n,
            fmt_summary_kbps(&g.flows_kbps[0]),
            s2,
            imbalance,
            g.fairness.mean,
            g.fairness.ci95,
            100.0 * g.chan_util.mean
        );
    }
    let e = &report.engine;
    println!(
        "\nengine: {} jobs | {} simulated, {} cached | wall {:.2} s | \
         {:.0}x aggregate sim/wall | {:.0}% mean worker utilization",
        e.jobs,
        e.simulated,
        e.cached,
        e.wall.as_secs_f64(),
        e.speedup(),
        100.0 * e.mean_utilization()
    );
    for w in &e.workers {
        println!(
            "  worker {:>2}: {:>3} cells | {:>9} events | busy {:.2} s ({:.0}%)",
            w.worker,
            w.cells,
            w.events,
            w.busy.as_secs_f64(),
            100.0 * w.utilization(e.wall)
        );
    }
}

const FIG7_TITLE: &str = "FIGURE 7 — asymmetric scenario, 11 Mb/s (d = 25/82.5/25 m)";
const FIG9_TITLE: &str = "FIGURE 9 — asymmetric scenario, 2 Mb/s (d = 25/92.5/25 m)";
const FIG11_TITLE: &str = "FIGURE 11 — symmetric scenario, 11 Mb/s (d = 25/62.5/25 m)";
const FIG12_TITLE: &str = "FIGURE 12 — symmetric scenario, 2 Mb/s (d = 25/62.5/25 m)";

struct InstrumentedCell {
    cell: FourStationCell,
    engine: EngineStats,
    intervals: Vec<IntervalRow>,
}

struct InstrumentedFigure {
    figure: u32,
    title: &'static str,
    rate: PhyRate,
    cells: Vec<InstrumentedCell>,
}

fn run_instrumented_figures(
    cfg: ExpConfig,
    interval: SimDuration,
    mobility: Option<&dot11_adhoc::MobilityConfig>,
) -> Vec<InstrumentedFigure> {
    let specs = [
        (
            7,
            FIG7_TITLE,
            PhyRate::R11,
            FourStationLayout::AsymmetricAt11,
        ),
        (9, FIG9_TITLE, PhyRate::R2, FourStationLayout::AsymmetricAt2),
        (11, FIG11_TITLE, PhyRate::R11, FourStationLayout::Symmetric),
        (12, FIG12_TITLE, PhyRate::R2, FourStationLayout::Symmetric),
    ];
    specs
        .into_iter()
        .map(|(figure, title, rate, layout)| {
            let mut cells = Vec::with_capacity(4);
            for transport in [SessionTransport::Udp, SessionTransport::Tcp] {
                for scheme in [AccessScheme::Basic, AccessScheme::RtsCts] {
                    let sink = SharedSink::new(IntervalMetricsSink::new(interval));
                    // The instrumented path arms the wall-clock profiler:
                    // the per-kind timing lands in the JSON `engine`
                    // objects without touching physics (probe callbacks
                    // only read the monotonic clock).
                    let mut scenario = four_station::scenario(cfg, rate, layout, transport, scheme);
                    if let Some(m) = mobility {
                        scenario = scenario.with_mobility(m.clone());
                    }
                    let report = scenario.run_probed(
                        sink.clone(),
                        desim::WallProbe::new(&dot11_adhoc::world::PROBE_SCOPES),
                    );
                    cells.push(InstrumentedCell {
                        cell: FourStationCell {
                            transport,
                            scheme,
                            session1_kbps: report.flow(dot11_net::FlowId(0)).throughput_kbps,
                            session2_kbps: report.flow(dot11_net::FlowId(1)).throughput_kbps,
                        },
                        engine: report.engine,
                        intervals: sink.take().into_rows(),
                    });
                }
            }
            InstrumentedFigure {
                figure,
                title,
                rate,
                cells,
            }
        })
        .collect()
}

fn engine_json(e: &EngineStats) -> String {
    // The per-kind histogram makes event-budget regressions attributable:
    // `kinds` sums to `events`, so a count creeping back up points straight
    // at the timer or signal class responsible.
    let kinds: Vec<String> = e
        .kinds
        .iter_named()
        .iter()
        .map(|(name, count)| format!("\"{name}\":{count}"))
        .collect();
    // When a profiler was armed, its per-scope wall-time breakdown rides
    // along: `scopes` carries every named scope (kind scopes partition
    // the dispatch loop; `phase_*` scopes are overlapping sub-regions —
    // don't sum them with the kinds), and `attributed_pct` is the share
    // of total wall time the kind scopes explain.
    let profile = match (&e.profile, e.attributed_fraction()) {
        (Some(p), Some(frac)) => {
            let scopes: Vec<String> = p
                .scopes
                .iter()
                .map(|s| {
                    format!(
                        "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\
                         \"min_ns\":{},\"max_ns\":{}}}",
                        s.name, s.count, s.total_ns, s.min_ns, s.max_ns
                    )
                })
                .collect();
            format!(
                ",\"profile\":{{\"attributed_pct\":{:.1},\"scopes\":[{}]}}",
                100.0 * frac,
                scopes.join(",")
            )
        }
        _ => String::new(),
    };
    // Link-churn counters ride along only for mobile runs: static runs
    // never commit an epoch, and omitting the block keeps their JSON
    // byte-identical to the pre-mobility format.
    let mobility = if e.mobility.epochs > 0 {
        let m = &e.mobility;
        format!(
            ",\"mobility\":{{\"epochs\":{},\"stations_moved\":{},\"slices_recomputed\":{},\
             \"links_dirtied\":{},\"links_recomputed\":{},\"audible_added\":{},\
             \"audible_removed\":{}}}",
            m.epochs,
            m.stations_moved,
            m.slices_recomputed,
            m.links_dirtied,
            m.links_recomputed,
            m.audible_added,
            m.audible_removed
        )
    } else {
        String::new()
    };
    format!(
        "{{\"events\":{},\"queue_high_water\":{},\"deliveries\":{},\"deaf_stations\":{},\
         \"links_built\":{},\"sim_elapsed_ns\":{},\"wall_ns\":{},\"speedup\":{:.1},\
         \"events_per_sec\":{:.0},\"kinds\":{{{}}}{mobility}{profile}}}",
        e.events,
        e.queue_high_water,
        e.deliveries,
        e.deaf_stations,
        e.links_built,
        e.sim_elapsed.as_nanos(),
        e.wall.as_nanos(),
        e.speedup(),
        e.events_per_sec(),
        kinds.join(",")
    )
}

fn report_json(cfg: ExpConfig, interval: SimDuration, figures: &[InstrumentedFigure]) -> String {
    let mut s = format!(
        "{{\"meta\":{{\"paper\":\"IEEE 802.11 Ad Hoc Networks: Performance Measurements\",\
         \"seed\":{},\"duration_ns\":{},\"warmup_ns\":{},\"metrics_interval_ns\":{}}},\
         \"four_station\":[",
        cfg.seed,
        cfg.duration.as_nanos(),
        cfg.warmup.as_nanos(),
        interval.as_nanos()
    );
    for (i, f) in figures.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"figure\":{},\"rate_kbps\":{},\"cells\":[",
            f.figure,
            (f.rate.bits_per_sec() / 1000.0) as u32
        ));
        for (j, c) in f.cells.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let transport = match c.cell.transport {
                SessionTransport::Udp => "udp",
                SessionTransport::Tcp => "tcp",
            };
            let scheme = match c.cell.scheme {
                AccessScheme::Basic => "basic",
                AccessScheme::RtsCts => "rts_cts",
            };
            s.push_str(&format!(
                "{{\"transport\":\"{transport}\",\"scheme\":\"{scheme}\",\
                 \"session1_kbps\":{:.3},\"session2_kbps\":{:.3},\"engine\":{},\"intervals\":[",
                c.cell.session1_kbps,
                c.cell.session2_kbps,
                engine_json(&c.engine)
            ));
            for (k, row) in c.intervals.iter().enumerate() {
                if k > 0 {
                    s.push(',');
                }
                s.push_str(&row.to_json());
            }
            s.push_str("]}");
        }
        s.push_str("]}");
    }
    s.push_str("]}\n");
    s
}

fn write_trace(cfg: ExpConfig, path: &str) -> std::io::Result<u64> {
    let sink = SharedSink::new(JsonlSink::create(path)?);
    let _ = four_station::scenario(
        cfg,
        PhyRate::R11,
        FourStationLayout::AsymmetricAt11,
        SessionTransport::Udp,
        AccessScheme::Basic,
    )
    .run_with(sink.clone());
    let jsonl = sink.take();
    let lines = jsonl.lines();
    jsonl.into_inner()?;
    Ok(lines)
}

fn table1() {
    let p = Dot11bParams::table1();
    println!("== TABLE 1 — IEEE 802.11b parameter values ==");
    println!(
        "Slot {} us | tau {} us | PHYhdr {} bits | MAChdr {} bits | SIFS {} us | DIFS {} us",
        p.slot_us, p.tau_us, p.phy_hdr_bits, p.mac_hdr_bits, p.sifs_us, p.difs_us
    );
    println!(
        "ACK {} bits + PHYhdr | CWmin {} slots | CWmax {} slots | rates 1, 2, 5.5, 11 Mb/s\n",
        p.ack_bits, p.cw_min, p.cw_max
    );
}

fn figure1() {
    println!("== FIGURE 1 — encapsulation overheads (m = 512 B) ==");
    println!(
        "{:>9} | {:>9} | {:>6} | {:>6} | {:>8} | payload airtime",
        "transport", "data rate", "IP", "MPDU", "airtime"
    );
    for (t, label) in [(TransportKind::Udp, "UDP"), (TransportKind::Tcp, "TCP")] {
        for rate in [PhyRate::R11, PhyRate::R1] {
            let b = overhead_breakdown(512, t, rate, Preamble::Long);
            println!(
                "{label:>9} | {rate:>9} | {:>4} B | {:>4} B | {:>6.0} us | {:>5.1}%",
                b.ip_bytes,
                b.mpdu_bytes,
                b.total_us(),
                100.0 * b.payload_airtime_fraction()
            );
        }
    }
    println!();
}

fn print_table2() {
    println!("== TABLE 2 — maximum throughput (Mb/s), analytic ==");
    println!("            |     m = 512 B      |     m = 1024 B");
    println!("  data rate | no RTS/CTS RTS/CTS | no RTS/CTS RTS/CTS");
    for row in table2() {
        println!(
            "{:>11} |  {:>8.3} {:>8.3} |  {:>8.3} {:>8.3}",
            row.rate.to_string(),
            row.m512_basic,
            row.m512_rts,
            row.m1024_basic,
            row.m1024_rts
        );
    }
    println!("(paper prints 0.738 for 1 Mb/s / 512 B / RTS-CTS; that cell is");
    println!(" inconsistent with the other 15 — see EXPERIMENTS.md)\n");
}

fn print_figure2(cfg: ExpConfig) {
    println!("== FIGURE 2 — ideal vs measured throughput, 11 Mb/s, m = 512 B ==");
    println!(
        "{:>10} | {:>9} | {:>9} | {:>9}",
        "scheme", "ideal", "real UDP", "real TCP"
    );
    for row in figure2::figure2(cfg) {
        println!(
            "{:>10} | {:>7.3} M | {:>7.3} M | {:>7.3} M",
            row.scheme.to_string(),
            row.ideal_mbps,
            row.udp_mbps,
            row.tcp_mbps
        );
    }
    println!("(ideal = Eq. (1)/(2) with every term included)\n");
}

fn print_figure3(cfg: ExpConfig) {
    println!("== FIGURE 3 — packet loss vs distance per data rate ==");
    let curves = figure3::figure3(cfg);
    print!("{:>8} |", "d (m)");
    for c in &curves {
        print!(" {:>8}", c.rate.to_string());
    }
    println!();
    for (i, &d) in figure3::DISTANCES_M.iter().enumerate() {
        print!("{d:>8.0} |");
        for c in &curves {
            print!(" {:>8.2}", c.curve.points()[i].1);
        }
        println!();
    }
    println!();
}

fn print_figure4(cfg: ExpConfig) {
    println!("== FIGURE 4 — 1 Mb/s transmission range on different days ==");
    let curves = figure4::figure4(cfg);
    print!("{:>8} |", "d (m)");
    for c in &curves {
        print!(" {:>20}", c.day);
    }
    println!();
    for (i, &d) in figure4::DISTANCES_M.iter().enumerate() {
        print!("{d:>8.0} |");
        for c in &curves {
            print!(" {:>20.2}", c.curve.points()[i].1);
        }
        println!();
    }
    for c in &curves {
        match estimate_crossing(&c.curve, 0.5) {
            Some(r) => println!("  {}: 50% loss at ~{r:.0} m", c.day),
            None => println!("  {}: still connected at 160 m", c.day),
        }
    }
    println!();
}

fn print_table3(cfg: ExpConfig) {
    println!("== TABLE 3 — transmission-range estimates ==");
    println!(
        "{:>14} | {:>9} | {:>9} | {:>9} | {:>9}",
        "", "11 Mb/s", "5.5 Mb/s", "2 Mb/s", "1 Mb/s"
    );
    let entries = table3::table3(cfg);
    let fmt = |r: Option<f64>| match r {
        Some(m) => format!("{m:>6.0} m"),
        None => ">150 m".to_owned(),
    };
    print!("{:>14} |", "data range");
    for e in entries.iter().rev() {
        print!(" {:>9} |", fmt(e.data_range_m));
    }
    println!();
    print!("{:>14} |", "control range");
    for e in entries.iter().rev() {
        print!(" {:>9} |", fmt(e.control_range_m));
    }
    println!(
        "\n(paper: data 30 / 70 / 90-100 / 110-130 m; control 90 m at 2 Mb/s, 120 m at 1 Mb/s)\n"
    );
}

fn print_four_station(title: &str, cells: Vec<FourStationCell>) {
    println!("== {title} ==");
    println!(
        "{:>9} | {:>10} | {:>12} | {:>12} | imbalance",
        "transport", "scheme", "S1->S2", "S3->S4"
    );
    for c in &cells {
        println!(
            "{:>9} | {:>10} | {:>8.0} kb/s | {:>8.0} kb/s | {:>6.2}x",
            c.transport.to_string(),
            c.scheme.to_string(),
            c.session1_kbps,
            c.session2_kbps,
            c.imbalance()
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_json_carries_the_exact_scatter_counters() {
        let cell = dot11_sweep::SweepScenario::figure(7)[0];
        let params = dot11_sweep::RunParams {
            duration: SimDuration::from_millis(300),
            warmup: SimDuration::from_millis(100),
            threads: 1,
        };
        let e = cell.build(params, 1).run().engine;
        assert!(e.deliveries > 0);
        let json = engine_json(&e);
        let expected = format!(
            "\"deliveries\":{},\"deaf_stations\":0,\"links_built\":{},",
            e.deliveries, e.links_built
        );
        assert!(json.contains(&expected), "{json}");
        // A four-station cell: every station transmits, so every slice
        // is built and every pair is audible.
        assert_eq!(e.links_built, 12);
    }

    /// Every station that transmits in a registry scenario is in its
    /// world's transmitter set: the set deaf-receiver elision is derived
    /// from covers forward routes, TCP reverse routes and MAC responses.
    #[test]
    fn registry_transmitters_stay_in_the_transmitter_set() {
        let params = dot11_sweep::RunParams {
            duration: SimDuration::from_millis(300),
            warmup: SimDuration::from_millis(100),
            threads: 1,
        };
        for name in SCENARIO_GROUPS {
            let group = parse_scenario_group(name).expect("registry name parses");
            for scenario in group {
                let world = scenario.build(params, 1).into_world();
                let set = world.transmitters().to_vec();
                let report = world.run();
                let mut transmitted = 0;
                for n in report.nodes.iter().filter(|n| n.phy.tx_frames > 0) {
                    assert!(set[n.node.index()], "{name}: {:?} transmitted", n.node);
                    transmitted += 1;
                }
                assert!(transmitted > 0, "{name}: nothing transmitted");
            }
        }
    }
}
