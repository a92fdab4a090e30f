//! The repository's benchmark: one workload per invocation, generated
//! from a seed, run serially through the public API of each layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid --seed 7 --seconds 12 --trace 0
//! ```
//!
//! A run first makes one pass at the pinned seed and checks its physics
//! digest against `pins.txt` (this also warms the process up). It then
//! makes passes at `--seed` for `--seconds`: untraced ones only with
//! `--trace 0`, untraced and traced ones in turn with `--trace 1`. Every
//! pass must repeat the first one's digests and exact counts, and every
//! world must deliver traffic. End-to-end metrics come from untraced
//! passes, per-layer metrics from traced ones. Human-readable lines come
//! first; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A results file with
//! the machine fingerprint (and, traced, a JSON-lines span file) is
//! written under `perfbench/results/`.

mod digest;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use desim::{NoProbe, WallProbe};
use dot11_adhoc::world::PROBE_SCOPES;

use spans::Recorder;
use workload::{Pass, Workload};

const USAGE: &str =
    "usage: perfbench --workload <paper-grid|large-field|mobile-field> --seed <n> --seconds <s> --trace <0|1>";

/// Fewest measured passes a run makes, however long each takes (a traced
/// run then has at least one traced and two untraced passes).
const MIN_PASSES: usize = 3;

/// Worlds a percentile needs beyond it before it is reported.
const TAIL_SAMPLES: usize = 10;

/// The command line, checked.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => match value.parse() {
                Ok(s) if s >= 1 => seconds = Some(s),
                _ => return Err(bad("expected a whole number of seconds >= 1")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A reported value: exact counts print as integers.
#[derive(Debug, Clone, Copy)]
enum Value {
    Count(u64),
    Real(f64),
}

/// One named metric with its unit and the samples behind it.
struct Metric {
    name: String,
    unit: &'static str,
    value: Value,
    samples: usize,
}

fn real(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: Value::Real(value),
        samples,
    }
}

fn count(name: impl Into<String>, value: u64) -> Metric {
    Metric {
        name: name.into(),
        unit: "count",
        value: Value::Count(value),
        samples: 1,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn secs(d: &[Duration]) -> f64 {
    d.iter().sum::<Duration>().as_secs_f64()
}

/// Median over `passes` of `f(pass)`.
fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    stats::median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Everything a run measured and checked.
struct Run {
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Run {
    /// Books `pass`'s attempts and failures, and checks it repeats
    /// `reference` (the first measured pass) exactly.
    fn book(&mut self, pass: &Pass, reference: Option<&Pass>) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        if pass.failed > 0 {
            self.problems.push(format!(
                "{} of {} attempts panicked, delivered nothing or read back wrong",
                pass.failed, pass.attempted
            ));
        }
        let Some(reference) = reference else { return };
        let differing = pass
            .digests
            .iter()
            .zip(&reference.digests)
            .filter(|(a, b)| a != b)
            .count() as u64;
        if differing > 0 || pass.counts != reference.counts {
            self.failed += differing.max(1);
            self.problems.push(format!(
                "a pass did not repeat the first: {differing} world digests differ, counts {}",
                if pass.counts == reference.counts {
                    "equal"
                } else {
                    "differ"
                }
            ));
        }
    }
}

fn measure(args: &Args, cache_dir: &Path, rec: &mut Recorder) -> Run {
    let w = args.workload;
    let mut run = Run {
        untraced: Vec::new(),
        traced: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };

    let pin_pass = workload::run_pass(
        w,
        &workload::jobs(w, digest::PIN_SEED),
        || NoProbe,
        rec,
        cache_dir,
    );
    run.book(&pin_pass, None);
    let got = digest::fold(&pin_pass.digests);
    if let Err(why) = digest::check(w.name(), got) {
        run.failed += pin_pass.attempted;
        run.problems.push(why);
    }

    let jobs = workload::jobs(w, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reference: Option<Pass> = None;
    let mut n = 0usize;
    while n < MIN_PASSES || start.elapsed() < budget {
        let traced = args.trace && n % 2 == 1;
        rec.set_keep(traced);
        let pass = if traced {
            workload::run_pass(w, &jobs, || WallProbe::new(&PROBE_SCOPES), rec, cache_dir)
        } else {
            workload::run_pass(w, &jobs, || NoProbe, rec, cache_dir)
        };
        run.book(&pass, reference.as_ref());
        if reference.is_none() {
            reference = Some(pass.clone());
        }
        if traced {
            run.traced.push(pass);
        } else {
            run.untraced.push(pass);
        }
        n += 1;
    }
    rec.set_keep(false);
    run
}

/// Each world's build-plus-run time at its fastest over `passes`, ms.
///
/// The host is shared: a neighbour's load slows whole stretches of a run
/// by up to half, and never speeds one up. A repeat's minimum estimates
/// the program's own cost; its median moves with the neighbours.
fn fastest_runs_ms(passes: &[Pass]) -> Vec<f64> {
    let mut fastest = vec![f64::INFINITY; passes[0].build.len()];
    for p in passes {
        for (f, d) in fastest.iter_mut().zip(p.run_times()) {
            *f = f.min(d.as_secs_f64() * 1e3);
        }
    }
    fastest
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    let passes = &run.untraced;
    let n = passes.len();
    let wall = passes
        .iter()
        .map(|p| p.wall.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let runs = fastest_runs_ms(passes);
    let rss: Vec<f64> = passes.iter().flat_map(|p| p.peak_rss_mb.clone()).collect();
    vec![
        real(
            "setup_s",
            "s",
            median_of(passes, |p| p.setup().as_secs_f64()),
            n,
        ),
        real("wall_s", "s", wall, n),
        real("sim_per_wall", "s/s", passes[0].sim_secs / wall, n),
        real("run_ms_p50", "ms", stats::median(&runs), runs.len()),
        real("peak_rss_mb", "MiB", stats::median(&rss), rss.len()),
    ]
}

/// End-to-end figures printed for people but left out of the JSON
/// metrics: `run_ms_p90` exists only where ten worlds lie beyond it, and
/// `failed_frac` is 0 on a correct run, so a relative bound cannot hold
/// it (the JSON carries it as `failed` of `attempted`).
fn extra_lines(run: &Run) -> Vec<String> {
    let runs = fastest_runs_ms(&run.untraced);
    let p90 = if runs.len() >= TAIL_SAMPLES * 10 {
        format!("{:.6} ms", stats::percentile(&runs, 90.0))
    } else {
        format!("n/a (needs {} worlds)", TAIL_SAMPLES * 10)
    };
    vec![
        format!("{:<28} {p90} (n={})", "run_ms_p90", runs.len()),
        format!(
            "{:<28} {} (n={}, {} failed)",
            "failed_frac",
            ratio(run.failed as f64, run.attempted as f64),
            run.attempted,
            run.failed
        ),
    ]
}

fn per_layer(run: &Run, rec: &Recorder) -> Vec<Metric> {
    let passes = &run.traced;
    let n = passes.len();
    let c = &passes[0].counts;
    let scope = |i: usize| median_of(passes, |p| p.scopes[i] as f64 * 1e-9);
    let mut m = vec![
        real(
            "scenario.build_s",
            "s",
            median_of(passes, |p| secs(&p.build)),
            n,
        ),
        real(
            "world.construct_s",
            "s",
            median_of(passes, |p| secs(&p.construct)),
            n,
        ),
        real(
            "world.dispatch_s",
            "s",
            median_of(passes, |p| secs(&p.dispatch)),
            n,
        ),
        real(
            "world.report_s",
            "s",
            median_of(passes, |p| secs(&p.report)),
            n,
        ),
        count("desim.events", c.events),
        real(
            "desim.ns_per_event",
            "ns",
            median_of(passes, |p| {
                ratio(secs(&p.dispatch) * 1e9, p.counts.events as f64)
            }),
            n,
        ),
        count("desim.queue_high_water", c.queue_high_water),
    ];
    for (i, kind) in PROBE_SCOPES[..17].iter().enumerate() {
        m.push(real(format!("desim.kind.{kind}_s"), "s", scope(i), n));
    }
    m.extend([
        real("phy.scatter_s", "s", scope(17), n),
        real("phy.arrival_scan_s", "s", scope(18), n),
        real("phy.ber_eval_s", "s", scope(19), n),
        count("phy.frames", c.frames),
        count("phy.deliveries", c.deliveries),
        real(
            "phy.deliveries_per_frame",
            "ratio",
            ratio(c.deliveries as f64, c.frames as f64),
            1,
        ),
        count("phy.audible_links", c.audible_links),
        real(
            "phy.decode_ratio",
            "ratio",
            ratio(c.decoded as f64, c.locks as f64),
            1,
        ),
        real("mac.actions_s", "s", scope(20), n),
        real("mac.response_build_s", "s", scope(21), n),
        real(
            "mac.retries_per_data",
            "ratio",
            ratio(c.retries as f64, c.data_tx as f64),
            1,
        ),
        count("mac.tx_dropped", c.tx_dropped),
        count("mac.eifs_defers", c.eifs_defers),
        real(
            "net.delivered_frac",
            "ratio",
            ratio(c.delivered as f64, c.offered as f64),
            1,
        ),
        real(
            "net.goodput_kbps",
            "kb/s",
            ratio(c.goodput_kbps, c.worlds as f64),
            c.worlds as usize,
        ),
        count("net.tcp_rto", c.tcp_rto),
        real("mobility.epoch_commit_s", "s", scope(16), n),
        count("mobility.slices_recomputed", c.slices_recomputed),
        count("mobility.links_recomputed", c.links_recomputed),
    ]);
    let per_cell_us = |f: fn(&Pass) -> &Vec<Duration>| {
        let all: Vec<f64> = passes
            .iter()
            .flat_map(|p| f(p).iter().map(|d| d.as_secs_f64() * 1e6))
            .collect();
        (stats::median(&all), all.len())
    };
    let (store, stores) = per_cell_us(|p| &p.cache_store);
    let (load, loads) = per_cell_us(|p| &p.cache_load);
    let untraced_wall = median_of(&run.untraced, |p| p.wall.as_secs_f64());
    let traced_wall = median_of(passes, |p| p.wall.as_secs_f64());
    let coverage = rec.child_coverage("pass");
    m.extend([
        real("sweep.cache_store_us", "us", store, stores),
        real("sweep.cache_load_us", "us", load, loads),
        count("sweep.cache_hits", c.cache_hits),
        count("sweep.cache_misses", c.cache_misses),
        real(
            "trace.overhead_frac",
            "ratio",
            ratio(traced_wall, untraced_wall) - 1.0,
            n + run.untraced.len(),
        ),
        real(
            "trace.span_coverage",
            "ratio",
            stats::median(&coverage),
            coverage.len(),
        ),
    ]);
    m
}

fn value_json(v: Value) -> String {
    match v {
        Value::Count(c) => c.to_string(),
        Value::Real(x) if x.is_finite() => format!("{x:?}"),
        Value::Real(_) => "null".to_string(),
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                value_json(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// `nproc`, the compiler's version and the commit the checkout is at
/// ("unknown" outside a git work tree).
fn fingerprint(root: &Path) -> [(&'static str, String); 3] {
    let output = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .current_dir(root)
            // Keep git from searching above the checkout.
            .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    [
        ("nproc", nproc.to_string()),
        ("rustc", output("rustc", &["--version"])),
        ("commit", output("git", &["rev-parse", "HEAD"])),
    ]
}

fn write_results(
    path: &Path,
    args: &Args,
    fp: &[(&str, String)],
    metrics: &[Metric],
    run: &Run,
) -> std::io::Result<()> {
    let fp: Vec<String> = fp
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_str(v)))
        .collect();
    let samples: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, m.samples))
        .collect();
    let text = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"fingerprint\": {{{}}}, \
         \"untraced_passes\": {}, \"traced_passes\": {}, \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {}, \"samples\": {{{}}}}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fp.join(", "),
        run.untraced.len(),
        run.traced.len(),
        run.attempted,
        run.failed,
        metrics_json(metrics),
        samples.join(", ")
    );
    std::fs::write(path, text)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir.parent().unwrap_or(&bench_dir).to_path_buf();
    let results = bench_dir.join("results");
    if let Err(e) = std::fs::create_dir_all(&results) {
        eprintln!("perfbench: cannot create {}: {e}", results.display());
        return ExitCode::from(1);
    }
    let name = args.workload.name();
    let stem = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));
    let cache_dir = results.join(format!("sweep-cache-{}", std::process::id()));

    let mut rec = Recorder::new();
    let run = measure(&args, &cache_dir, &mut rec);
    let fp = fingerprint(&root);

    println!(
        "perfbench {name} seed={} seconds={} trace={} | untraced passes {} | traced passes {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.untraced.len(),
        run.traced.len()
    );
    for (k, v) in &fp {
        println!("fingerprint {k:<7} {v}");
    }
    for why in &run.problems {
        println!("FAILED: {why}");
    }
    let metrics = if args.trace {
        per_layer(&run, &rec)
    } else {
        end_to_end(&run)
    };
    for m in &metrics {
        println!(
            "{:<28} {} {} (n={})",
            m.name,
            value_json(m.value),
            m.unit,
            m.samples
        );
    }
    if !args.trace {
        for line in extra_lines(&run) {
            println!("{line}");
        }
    }

    if let Err(e) = write_results(
        &results.join(format!("{stem}.json")),
        &args,
        &fp,
        &metrics,
        &run,
    ) {
        eprintln!("perfbench: cannot write results: {e}");
        return ExitCode::from(1);
    }
    if args.trace {
        let path = results.join(format!("{stem}.spans.jsonl"));
        let written = std::fs::File::create(&path).and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            rec.write_jsonl(&mut out)?;
            std::io::Write::flush(&mut out)
        });
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "mobile-field",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::MobileField);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10, true));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        let base = [
            "--workload",
            "paper-grid",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "0",
        ];
        assert!(args(&base).is_ok());
        for (i, bad) in [(1, "no-such"), (3, "x"), (5, "0"), (7, "2")] {
            let mut v = base;
            v[i] = bad;
            assert!(args(&v).is_err(), "{v:?}");
        }
        assert!(args(&base[..6]).is_err(), "missing --trace");
        assert!(args(&["--workload"]).is_err(), "flag without value");
        assert!(args(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c \"");
    }
}
