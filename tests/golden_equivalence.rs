//! Hot-path refactor equivalence goldens, split into physics vs engine.
//!
//! Every golden line is one run's deterministic report, laid out as
//! **physics prefix + engine suffix**:
//!
//! * *physics* — `duration_ns`, `warmup_ns`, every flow field
//!   (throughput, delivered bytes, loss, delay) and every node field
//!   (MAC/PHY/ARF counters, airtime). These pin the simulation's
//!   *behaviour* and must never move: same seed, same world,
//!   byte-identical observables. A diff here is a physics change, no
//!   matter how innocent the refactor looked.
//! * *engine* — the trailing `"engine":{"events":…,"queue_high_water":…}`
//!   object. These pin how hard the simulator worked, and a perf PR may
//!   deliberately move them (PR 4's timer coalescing + signal batching
//!   cut dispatched events ~3× with the physics prefix untouched — the
//!   goldens were re-pinned then, physics bytes verified identical
//!   against the pre-change files).
//!
//! The active tests compare the two layers separately so a physics drift
//! is never masked by an expected engine re-pin. Files under
//! `tests/golden/` regenerate with the ignored `regenerate_goldens` test;
//! when you do that deliberately, diff the files and confirm only the
//! engine suffix moved (unless the PR is an acknowledged behaviour
//! change — then document the delta in EXPERIMENTS.md).
//!
//! Coverage: the Figure 7 (asymmetric, 11 Mb/s) four-station scenario,
//! UDP and TCP × basic/RTS, seeds 100–110; plus the Figure 12
//! (symmetric, 2 Mb/s) TCP cells for seeds 100–102, so transport-layer
//! timing (RTO, delayed ACK) is pinned on a second topology and rate.

use desim::SimDuration;
use dot11_testbed::adhoc::analytic::AccessScheme;
use dot11_testbed::adhoc::experiments::four_station::{
    scenario, FourStationLayout, SessionTransport,
};
use dot11_testbed::adhoc::experiments::ExpConfig;
use dot11_testbed::adhoc::RunReport;
use dot11_testbed::phy::PhyRate;

/// The seeds the issue pins: 100–110 inclusive.
const SEEDS: std::ops::RangeInclusive<u64> = 100..=110;

/// Seeds of the Figure 12 TCP goldens.
const TCP_SEEDS: std::ops::RangeInclusive<u64> = 100..=102;

/// The marker splitting a golden line into physics prefix and engine
/// suffix.
const ENGINE_MARKER: &str = ",\"engine\":";

fn config(seed: u64) -> ExpConfig {
    ExpConfig {
        seed,
        duration: SimDuration::from_secs(2),
        warmup: SimDuration::from_millis(250),
    }
}

/// Serializes the deterministic layer of a [`RunReport`] (everything but
/// the wall clock) as JSON: physics fields first, engine fields in a
/// trailing `"engine"` object (see module docs for the split). Floats use
/// Rust's shortest-round-trip `Display`, so equal bits produce equal
/// bytes; node counters are pinned through their `Debug` form, which
/// covers every MAC/PHY/ARF field.
fn report_json(r: &RunReport) -> String {
    let flows: Vec<String> = r
        .flows
        .iter()
        .map(|f| {
            format!(
                "{{\"flow\":{},\"src\":{},\"dst\":{},\"offered_packets\":{},\
                 \"delivered_bytes\":{},\"delivered_packets\":{},\
                 \"measured_bytes\":{},\"throughput_kbps\":{},\"loss_rate\":{},\
                 \"mean_delay_ms\":{},\"max_delay_ms\":{}}}",
                f.flow.0,
                f.src.0,
                f.dst.0,
                f.offered_packets,
                f.delivered_bytes,
                f.delivered_packets,
                f.measured_bytes,
                f.throughput_kbps,
                f.loss_rate,
                f.mean_delay_ms,
                f.max_delay_ms
            )
        })
        .collect();
    let nodes: Vec<String> = r
        .nodes
        .iter()
        .map(|n| format!("\"{}\"", format!("{n:?}").replace('"', "'")))
        .collect();
    format!(
        "{{\"duration_ns\":{},\"warmup_ns\":{},\"flows\":[{}],\"nodes\":[{}]\
         {ENGINE_MARKER}{{\"events\":{},\"queue_high_water\":{}}}}}\n",
        r.duration.as_nanos(),
        r.warmup.as_nanos(),
        flows.join(","),
        nodes.join(","),
        r.events,
        r.engine.queue_high_water,
    )
}

/// Splits one golden line into `(physics, engine)` at the engine marker.
fn split_line(line: &str) -> (&str, &str) {
    let at = line
        .find(ENGINE_MARKER)
        .expect("golden line carries an engine suffix");
    line.split_at(at)
}

/// All four cells (UDP/TCP × basic/RTS) of the Figure 7 asymmetric
/// four-station scenario for one seed, concatenated.
fn four_station_json(seed: u64) -> String {
    let cfg = config(seed);
    let mut out = String::new();
    for transport in [SessionTransport::Udp, SessionTransport::Tcp] {
        for scheme in [AccessScheme::Basic, AccessScheme::RtsCts] {
            let report = scenario(
                cfg,
                PhyRate::R11,
                FourStationLayout::AsymmetricAt11,
                transport,
                scheme,
            )
            .run();
            out.push_str(&report_json(&report));
        }
    }
    out
}

/// Both TCP cells (basic/RTS) of the Figure 12 symmetric 2 Mb/s scenario
/// for one seed, concatenated.
fn fig12_tcp_json(seed: u64) -> String {
    let cfg = config(seed);
    let mut out = String::new();
    for scheme in [AccessScheme::Basic, AccessScheme::RtsCts] {
        let report = scenario(
            cfg,
            PhyRate::R2,
            FourStationLayout::Symmetric,
            SessionTransport::Tcp,
            scheme,
        )
        .run();
        out.push_str(&report_json(&report));
    }
    out
}

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden_path(seed: u64) -> std::path::PathBuf {
    golden_dir().join(format!("four_station_seed{seed}.json"))
}

fn fig12_golden_path(seed: u64) -> std::path::PathBuf {
    golden_dir().join(format!("fig12_tcp_seed{seed}.json"))
}

/// Compares a freshly generated report set against its golden file,
/// physics first (the unforgivable diff), then engine (the re-pin diff).
fn assert_matches_golden(label: &str, actual: &str, path: &std::path::Path) {
    let expected = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("golden {} missing: {e}", path.display()));
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        let (a_phys, a_eng) = split_line(a);
        let (e_phys, e_eng) = split_line(e);
        assert_eq!(
            a_phys, e_phys,
            "{label} line {i}: PHYSICS fields moved — flow/node observables \
             must be byte-identical regardless of engine refactors"
        );
        assert_eq!(
            a_eng, e_eng,
            "{label} line {i}: engine fields moved — if the event-count \
             change is deliberate, regenerate the goldens and re-pin"
        );
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "{label}: cell count moved"
    );
}

/// The per-kind event histogram is a complete partition of the dispatch
/// count: every event the engine pops is classified exactly once, so the
/// `repro --json` breakdown can be trusted to attribute budget
/// regressions.
#[test]
fn kind_histogram_sums_to_dispatched_events() {
    let report = scenario(
        config(100),
        PhyRate::R11,
        FourStationLayout::AsymmetricAt11,
        SessionTransport::Tcp,
        AccessScheme::RtsCts,
    )
    .run();
    assert_eq!(report.engine.kinds.total(), report.engine.events);
    assert!(report.engine.kinds.signal_start > 0);
    // Every signal batch that starts also ends, except a transmission the
    // run horizon cut off mid-air (its SignalEnd is still queued when the
    // loop stops) — at most one, since the medium serializes heavily.
    let cut_off = report.engine.kinds.signal_start - report.engine.kinds.signal_end;
    assert!(cut_off <= 1, "{cut_off} signal batches never ended");
}

/// The current tree reproduces the pinned four-station reports for seeds
/// 100–110, physics and engine layers compared separately.
#[test]
fn four_station_reports_match_seed_commit_goldens() {
    for seed in SEEDS {
        assert_matches_golden(
            &format!("fig7 seed {seed}"),
            &four_station_json(seed),
            &golden_path(seed),
        );
    }
}

/// The current tree reproduces the pinned Figure 12 TCP reports for
/// seeds 100–102 — transport-layer timing pinned on a second topology.
#[test]
fn fig12_tcp_reports_match_goldens() {
    for seed in TCP_SEEDS {
        assert_matches_golden(
            &format!("fig12 seed {seed}"),
            &fig12_tcp_json(seed),
            &fig12_golden_path(seed),
        );
    }
}

/// Regenerates the goldens. Run only when a behaviour change is
/// deliberate: `cargo test --release --test golden_equivalence -- --ignored`.
#[test]
#[ignore = "writes tests/golden/*.json; run only to regenerate"]
fn regenerate_goldens() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("create tests/golden");
    for seed in SEEDS {
        std::fs::write(golden_path(seed), four_station_json(seed)).expect("write golden");
    }
    for seed in TCP_SEEDS {
        std::fs::write(fig12_golden_path(seed), fig12_tcp_json(seed)).expect("write golden");
    }
}
