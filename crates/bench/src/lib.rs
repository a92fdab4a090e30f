//! Shared helpers for the testbed benches.
//!
//! The benches live in `benches/`, one group per paper artifact (see
//! `DESIGN.md` §3). Each group measures the cost of *regenerating* that
//! artifact; the `repro` binary in the workspace root prints the
//! artifacts themselves.
//!
//! Timing is done by the self-contained [`Harness`] below (the container
//! has no bench framework): each benchmark warms up briefly, then runs
//! timed iterations until a wall-clock budget is spent, and reports the
//! median/min per-iteration time. Pass a substring on the command line to
//! run a subset: `cargo bench --bench engine -- queue`.
//!
//! The harness also maintains the repo's perf trajectory:
//!
//! * `--json PATH` writes every result (plus derived metrics such as
//!   ns/event) as machine-readable JSON — CI uploads these as artifacts;
//! * `--baseline PATH` compares the run against a committed
//!   `BENCH_*.json` and **exits non-zero** if any shared gated metric
//!   regressed more than `--tolerance PCT` (default 25%). Two metrics
//!   are gated: `ns_per_event` (per-event cost; regresses upward) and
//!   `sim_ns_per_wall_ns` (end-to-end simulated-time-per-wall-time;
//!   regresses downward — this one stays meaningful when an optimization
//!   shrinks the event count itself, which makes ns/event misleading).
//!
//! Call [`Harness::finish`] at the end of each bench `main` to flush the
//! JSON and apply the gate.

use std::cell::RefCell;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use desim::SimDuration;
use dot11_adhoc::experiments::ExpConfig;
use dot11_sweep::json;

/// The reduced configuration benches run at: 1 s sessions are enough to
/// exercise every code path while keeping repeated sampling affordable.
pub fn bench_config() -> ExpConfig {
    ExpConfig {
        seed: 3,
        duration: SimDuration::from_secs(1),
        warmup: SimDuration::from_millis(200),
    }
}

/// One benchmark's recorded outcome (what `--json` serializes).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name (`group/case`).
    pub name: String,
    /// Median per-iteration wall time, nanoseconds.
    pub median_ns: u64,
    /// Fastest iteration, nanoseconds.
    pub min_ns: u64,
    /// Timed iterations taken.
    pub iters: usize,
    /// Derived metrics (e.g. `events`, `events_per_sec`, `ns_per_event`),
    /// in insertion order.
    pub metrics: Vec<(String, f64)>,
}

impl BenchRecord {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", fmt_f64(*v)))
            .collect();
        format!(
            "{{\"name\":\"{}\",\"median_ns\":{},\"min_ns\":{},\"iters\":{},\
             \"metrics\":{{{}}}}}",
            self.name,
            self.median_ns,
            self.min_ns,
            self.iters,
            metrics.join(",")
        )
    }
}

/// Shortest-round-trip float formatting (JSON has no NaN/Inf).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A minimal benchmark runner: substring filtering, warm-up, a fixed
/// wall-clock budget per benchmark, median-of-iterations reporting, and
/// optional JSON emission / baseline regression gating (module docs).
pub struct Harness {
    filter: Option<String>,
    budget: Duration,
    max_iters: usize,
    json: Option<PathBuf>,
    baseline: Option<PathBuf>,
    tolerance_pct: f64,
    results: RefCell<Vec<BenchRecord>>,
}

impl Harness {
    /// Builds a harness from `std::env::args`. Recognized flags:
    /// `--json PATH`, `--baseline PATH`, `--tolerance PCT`; other flags
    /// (cargo passes `--bench`) are ignored, and the first free argument
    /// is a substring filter on benchmark names.
    pub fn from_args() -> Harness {
        let mut filter = None;
        let mut h = Harness::with_filter(None);
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--json" => h.json = args.next().map(PathBuf::from),
                "--baseline" => h.baseline = args.next().map(PathBuf::from),
                "--tolerance" => {
                    h.tolerance_pct = args
                        .next()
                        .and_then(|t| t.parse().ok())
                        .unwrap_or(h.tolerance_pct)
                }
                _ if a.starts_with('-') => {}
                _ if filter.is_none() => filter = Some(a),
                _ => {}
            }
        }
        h.filter = filter;
        h
    }

    /// Builds a harness with an explicit (optional) name filter.
    pub fn with_filter(filter: Option<String>) -> Harness {
        Harness {
            filter,
            budget: Duration::from_secs(1),
            max_iters: 1_000,
            json: None,
            baseline: None,
            tolerance_pct: 25.0,
            results: RefCell::new(Vec::new()),
        }
    }

    /// Whether `name` passes the filter.
    pub fn selected(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Times `f`, printing one line: name, median and min per-iteration
    /// time, and the iteration count. Always runs at least one timed
    /// iteration, so even multi-second benchmarks report.
    pub fn bench<R>(&self, name: &str, f: impl FnMut() -> R) {
        self.bench_metrics(name, f, |_, _| Vec::new());
    }

    /// Like [`Harness::bench`], but also derives named metrics from the
    /// last iteration's return value and the median iteration time (e.g.
    /// events dispatched → ns/event, events/sec). Metrics land in the
    /// printed line and the `--json` record.
    pub fn bench_metrics<R>(
        &self,
        name: &str,
        mut f: impl FnMut() -> R,
        metrics: impl FnOnce(&R, Duration) -> Vec<(String, f64)>,
    ) {
        if !self.selected(name) {
            return;
        }
        // Warm-up: up to two iterations or 200 ms, whichever first.
        let warm_start = Instant::now();
        for _ in 0..2 {
            std::hint::black_box(f());
            if warm_start.elapsed() > Duration::from_millis(200) {
                break;
            }
        }
        let mut samples = Vec::new();
        let start = Instant::now();
        let mut last = None;
        while samples.len() < self.max_iters
            && (samples.is_empty() || start.elapsed() < self.budget)
        {
            let t0 = Instant::now();
            last = Some(std::hint::black_box(f()));
            samples.push(t0.elapsed());
        }
        samples.sort();
        let median = samples[samples.len() / 2];
        let min = samples[0];
        let derived = metrics(last.as_ref().expect("at least one iteration"), median);
        let extra: String = derived
            .iter()
            .map(|(k, v)| format!("  {k} {v:.1}"))
            .collect();
        println!(
            "{name:<44} median {:>10}  min {:>10}  ({} iters){extra}",
            fmt_duration(median),
            fmt_duration(min),
            samples.len()
        );
        self.results.borrow_mut().push(BenchRecord {
            name: name.to_owned(),
            median_ns: median.as_nanos() as u64,
            min_ns: min.as_nanos() as u64,
            iters: samples.len(),
            metrics: derived,
        });
    }

    /// The records accumulated so far, in run order.
    pub fn records(&self) -> Vec<BenchRecord> {
        self.results.borrow().clone()
    }

    /// Serializes the accumulated records as one JSON object.
    pub fn results_json(&self) -> String {
        let benches: Vec<String> = self
            .results
            .borrow()
            .iter()
            .map(BenchRecord::to_json)
            .collect();
        format!(
            "{{\"version\":\"dot11-bench/v1\",\"benches\":[{}]}}\n",
            benches.join(",")
        )
    }

    /// Flushes `--json` output and applies the `--baseline` regression
    /// gate. Call at the end of each bench `main`; exits the process with
    /// a non-zero status (after printing each offender) if any shared
    /// gated metric ([`GATED_METRICS`]) regressed beyond the tolerance.
    pub fn finish(&self) {
        if let Some(path) = &self.json {
            let path = resolve_repo_path(path);
            std::fs::write(&path, self.results_json())
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            eprintln!("wrote {}", path.display());
        }
        let Some(baseline) = &self.baseline else {
            return;
        };
        let baseline = resolve_repo_path(baseline);
        let text = std::fs::read_to_string(&baseline)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", baseline.display()));
        // A gated row missing from the baseline is not an error (machine
        // width and bench retirement both legitimately drop rows) — but
        // it must never pass *silently*, or a renamed bench quietly
        // leaves the gate.
        for name in missing_from_baseline(&self.records(), &text) {
            eprintln!("SKIPPED (row missing from baseline): {name}");
        }
        let regressions = check_against_baseline(&self.records(), &text, self.tolerance_pct);
        if !regressions.is_empty() {
            for r in &regressions {
                eprintln!("PERF REGRESSION: {r}");
            }
            std::process::exit(1);
        }
        let gated: Vec<&str> = GATED_METRICS.iter().map(|&(name, _)| name).collect();
        println!(
            "perf gate: no {} regression > {}% vs {}",
            gated.join(" / "),
            self.tolerance_pct,
            baseline.display()
        );
    }
}

/// Resolves a CLI-supplied path: absolute paths, and relative paths that
/// already exist from the current directory, are used as-is; anything
/// else is anchored at the workspace root. Cargo runs bench binaries
/// with the *package* directory as cwd, but the committed `BENCH_*.json`
/// files live at the repo root where CI invokes cargo — without the
/// re-anchoring, `--baseline BENCH_pr4.json` would silently look in
/// `crates/bench/` instead.
fn resolve_repo_path(path: &std::path::Path) -> PathBuf {
    if path.is_absolute() || path.exists() {
        return path.to_path_buf();
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|dir| dir.join("Cargo.lock").exists())
        .map(|root| root.join(path))
        .unwrap_or_else(|| path.to_path_buf())
}

/// The metrics the baseline gate watches, with their regression
/// direction. `ns_per_event` regresses *upward*; `sim_ns_per_wall_ns`
/// (simulated nanoseconds covered per wall nanosecond — the end-to-end
/// speed, which stays honest when a change shrinks the event count
/// itself) regresses *downward*. `deliveries_per_frame` (reported by
/// the scaling group) regresses *upward* and — unlike the two
/// wall-clock metrics — is exact arithmetic over static audible sets,
/// so any tolerance catches a structural fan-out regression with zero
/// run-to-run noise. Benches that don't report a gated metric are
/// simply not gated on it.
pub const GATED_METRICS: [(&str, bool); 4] = [
    ("ns_per_event", true),
    ("sim_ns_per_wall_ns", false),
    ("deliveries_per_frame", true),
    // Incremental epoch commit over construction (mobility group):
    // regresses *downward* — a lower multiple means the incremental
    // path stopped pulling its weight.
    ("speedup", false),
];

/// Names of run records that carry at least one gated metric (see
/// [`GATED_METRICS`]) but have no row in the baseline JSON — rows the
/// regression gate would skip. [`Harness::finish`] logs one explicit
/// `SKIPPED (row missing from baseline)` line per name. An unparseable
/// baseline returns the empty list; [`check_against_baseline`] already
/// reports that case as its own failure.
pub fn missing_from_baseline(records: &[BenchRecord], baseline_json: &str) -> Vec<String> {
    let Ok(parsed) = json::parse(baseline_json) else {
        return Vec::new();
    };
    let Some(benches) = parsed
        .as_object()
        .and_then(|o| json::get(o, "benches"))
        .and_then(|b| match b {
            json::JsonValue::Arr(a) => Some(a),
            _ => None,
        })
    else {
        return Vec::new();
    };
    let baseline_names: Vec<&str> = benches
        .iter()
        .filter_map(|e| e.as_object().and_then(|o| json::get_str(o, "name")))
        .collect();
    records
        .iter()
        .filter(|r| {
            r.metrics
                .iter()
                .any(|(k, _)| GATED_METRICS.iter().any(|&(g, _)| g == k))
        })
        .filter(|r| !baseline_names.contains(&r.name.as_str()))
        .map(|r| r.name.clone())
        .collect()
}

/// Compares run records against a committed `BENCH_*.json`: for every
/// benchmark present in both with a gated metric (see [`GATED_METRICS`]),
/// reports a regression when the current value is worse than the
/// baseline by more than `tolerance_pct` percent in that metric's bad
/// direction. Unknown benches on either side are ignored, so adding or
/// retiring benchmarks never trips the gate.
pub fn check_against_baseline(
    records: &[BenchRecord],
    baseline_json: &str,
    tolerance_pct: f64,
) -> Vec<String> {
    let parsed = match json::parse(baseline_json) {
        Ok(v) => v,
        Err(e) => return vec![format!("baseline is not valid JSON: {e}")],
    };
    let Some(benches) = parsed
        .as_object()
        .and_then(|o| json::get(o, "benches"))
        .and_then(|b| match b {
            json::JsonValue::Arr(a) => Some(a),
            _ => None,
        })
    else {
        return vec!["baseline has no \"benches\" array".to_owned()];
    };
    let mut regressions = Vec::new();
    for entry in benches {
        let Some(obj) = entry.as_object() else {
            continue;
        };
        let (Some(name), Some(metrics)) = (
            json::get_str(obj, "name"),
            json::get(obj, "metrics").and_then(|m| m.as_object()),
        ) else {
            continue;
        };
        let Some(record) = records.iter().find(|r| r.name == name) else {
            continue;
        };
        for (metric, higher_is_worse) in GATED_METRICS {
            let Some(base) = json::get_f64(metrics, metric) else {
                continue;
            };
            let Some(&(_, cur)) = record.metrics.iter().find(|(k, _)| k == metric) else {
                continue;
            };
            if base <= 0.0 {
                continue;
            }
            let regressed = if higher_is_worse {
                cur > base * (1.0 + tolerance_pct / 100.0)
            } else {
                cur < base * (1.0 - tolerance_pct / 100.0)
            };
            if regressed {
                let pct = if higher_is_worse {
                    (cur / base - 1.0) * 100.0
                } else {
                    (1.0 - cur / base) * 100.0
                };
                regressions.push(format!(
                    "{name}: {metric} {cur:.1} vs baseline {base:.1} \
                     ({}{pct:.0}%, tolerance {tolerance_pct}%)",
                    if higher_is_worse { "+" } else { "-" },
                ));
            }
        }
    }
    regressions
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_short_but_valid() {
        let c = bench_config();
        assert!(c.warmup < c.duration);
        assert_eq!(c.seed, 3, "benches pin the reference channel state");
    }

    #[test]
    fn filter_selects_by_substring() {
        let h = Harness::with_filter(Some("queue".into()));
        assert!(h.selected("desim/queue_push_pop_1k"));
        assert!(!h.selected("phy/ber_cck11"));
        let all = Harness::with_filter(None);
        assert!(all.selected("anything"));
    }

    fn record(name: &str, ns_per_event: f64) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            median_ns: 1_000,
            min_ns: 900,
            iters: 10,
            metrics: vec![("ns_per_event".into(), ns_per_event)],
        }
    }

    #[test]
    fn results_json_is_parseable_and_complete() {
        let h = Harness::with_filter(None);
        h.bench_metrics(
            "group/case",
            || 42u64,
            |&v, median| {
                assert!(median.as_nanos() > 0 || v == 42);
                vec![("events".into(), v as f64)]
            },
        );
        let json_text = h.results_json();
        let parsed = json::parse(&json_text).expect("valid JSON");
        let obj = parsed.as_object().expect("object");
        assert_eq!(json::get_str(obj, "version"), Some("dot11-bench/v1"));
        assert!(json_text.contains("\"name\":\"group/case\""));
        assert!(json_text.contains("\"events\":42"));
    }

    #[test]
    fn baseline_gate_flags_only_real_regressions() {
        let baseline = "{\"version\":\"dot11-bench/v1\",\"benches\":[\
             {\"name\":\"a\",\"median_ns\":1,\"min_ns\":1,\"iters\":1,\
              \"metrics\":{\"ns_per_event\":100.0}},\
             {\"name\":\"gone\",\"median_ns\":1,\"min_ns\":1,\"iters\":1,\
              \"metrics\":{\"ns_per_event\":5.0}}]}";
        // Within tolerance: 20% over a 25% gate.
        assert!(check_against_baseline(&[record("a", 120.0)], baseline, 25.0).is_empty());
        // Beyond tolerance: flagged.
        let regressions = check_against_baseline(&[record("a", 130.0)], baseline, 25.0);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("ns_per_event 130.0 vs baseline 100.0"));
        // Improvements and benches missing on either side never trip it.
        assert!(check_against_baseline(&[record("a", 50.0)], baseline, 25.0).is_empty());
        assert!(check_against_baseline(&[record("new", 9e9)], baseline, 25.0).is_empty());
        // A garbage baseline reports instead of passing silently.
        assert!(!check_against_baseline(&[record("a", 1.0)], "nope", 25.0).is_empty());
    }

    #[test]
    fn missing_gated_rows_are_reported_not_silent() {
        let baseline = "{\"version\":\"dot11-bench/v1\",\"benches\":[\
             {\"name\":\"a\",\"median_ns\":1,\"min_ns\":1,\"iters\":1,\
              \"metrics\":{\"ns_per_event\":100.0}}]}";
        // Present in baseline: not skipped.
        assert!(missing_from_baseline(&[record("a", 90.0)], baseline).is_empty());
        // Gated metric, no baseline row: reported by name.
        assert_eq!(
            missing_from_baseline(&[record("renamed", 90.0)], baseline),
            vec!["renamed".to_owned()]
        );
        // Ungated records don't clutter the skip list.
        let ungated = BenchRecord {
            name: "plain".into(),
            median_ns: 1,
            min_ns: 1,
            iters: 1,
            metrics: vec![("events".into(), 5.0)],
        };
        assert!(missing_from_baseline(&[ungated], baseline).is_empty());
        // Garbage baselines are check_against_baseline's problem.
        assert!(missing_from_baseline(&[record("a", 90.0)], "nope").is_empty());
    }

    fn speed_record(name: &str, sim_ns_per_wall_ns: f64) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            median_ns: 1_000,
            min_ns: 900,
            iters: 10,
            metrics: vec![("sim_ns_per_wall_ns".into(), sim_ns_per_wall_ns)],
        }
    }

    #[test]
    fn baseline_gate_inverts_for_throughput_metrics() {
        let baseline = "{\"version\":\"dot11-bench/v1\",\"benches\":[\
             {\"name\":\"a\",\"median_ns\":1,\"min_ns\":1,\"iters\":1,\
              \"metrics\":{\"sim_ns_per_wall_ns\":400.0}}]}";
        // sim/wall is higher-is-better: dropping within tolerance passes…
        assert!(check_against_baseline(&[speed_record("a", 320.0)], baseline, 25.0).is_empty());
        // …dropping beyond it is a regression…
        let regressions = check_against_baseline(&[speed_record("a", 250.0)], baseline, 25.0);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("sim_ns_per_wall_ns 250.0 vs baseline 400.0"));
        // …and going faster never trips it.
        assert!(check_against_baseline(&[speed_record("a", 4000.0)], baseline, 25.0).is_empty());
    }

    #[test]
    fn baseline_gate_watches_structural_fanout_metric() {
        let baseline = "{\"version\":\"dot11-bench/v1\",\"benches\":[\
             {\"name\":\"a\",\"median_ns\":1,\"min_ns\":1,\"iters\":1,\
              \"metrics\":{\"deliveries_per_frame\":31.4}}]}";
        let fanout = |v: f64| BenchRecord {
            name: "a".into(),
            median_ns: 1_000,
            min_ns: 900,
            iters: 10,
            metrics: vec![("deliveries_per_frame".into(), v)],
        };
        // Identical (the metric is deterministic) passes at any tolerance…
        assert!(check_against_baseline(&[fanout(31.4)], baseline, 100.0).is_empty());
        // …losing the culling win (full fan-out) trips even a wide gate.
        let regressions = check_against_baseline(&[fanout(255.0)], baseline, 100.0);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("deliveries_per_frame"));
    }

    #[test]
    fn baseline_gate_checks_both_metrics_of_one_bench() {
        let baseline = "{\"version\":\"dot11-bench/v1\",\"benches\":[\
             {\"name\":\"a\",\"median_ns\":1,\"min_ns\":1,\"iters\":1,\
              \"metrics\":{\"ns_per_event\":100.0,\"sim_ns_per_wall_ns\":400.0}}]}";
        let mut both = record("a", 200.0);
        both.metrics.push(("sim_ns_per_wall_ns".into(), 100.0));
        let regressions = check_against_baseline(&[both], baseline, 25.0);
        assert_eq!(regressions.len(), 2, "{regressions:?}");
    }

    #[test]
    fn durations_format_by_magnitude() {
        assert_eq!(fmt_duration(Duration::from_nanos(120)), "120 ns");
        assert_eq!(fmt_duration(Duration::from_micros(3)), "3.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(15)), "15.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
    }
}
