//! Integration: the engine profiler is faithful and physics-invisible.

use std::sync::Mutex;
use std::time::Instant;

use desim::{SimDuration, WallProbe};
use dot11_testbed::adhoc::world::PROBE_SCOPES;
use dot11_testbed::adhoc::{Scenario, ScenarioBuilder, Traffic};
use dot11_testbed::phy::{DayProfile, PhyRate};
use dot11_testbed::trace::NullSink;

/// Wall-clock attribution is only meaningful on a quiet machine: the
/// test harness runs this binary's tests on parallel threads, and a
/// sibling test descheduling us *between* probe scopes counts against
/// attribution. Timing-sensitive tests serialize on this lock.
static TIMING: Mutex<()> = Mutex::new(());

fn quiet() -> std::sync::MutexGuard<'static, ()> {
    TIMING.lock().unwrap_or_else(|e| e.into_inner())
}

fn contended_cell() -> Scenario {
    ScenarioBuilder::new(PhyRate::R11)
        .line(&[0.0, 25.0, 107.5, 132.5])
        .day(DayProfile::still())
        .seed(3)
        .duration(SimDuration::from_secs(1))
        .warmup(SimDuration::from_millis(200))
        .flow(
            0,
            1,
            Traffic::SaturatedUdp {
                payload_bytes: 512,
                backlog: 10,
            },
        )
        .flow(
            2,
            3,
            Traffic::SaturatedUdp {
                payload_bytes: 512,
                backlog: 10,
            },
        )
        .build()
}

/// Every dispatched event lands in exactly one kind scope: the per-scope
/// visit counts reproduce the event-kind histogram, and their sum is the
/// engine's total event count. (Referenced from `World::kind_scope`.)
#[test]
fn probe_scope_counts_match_kind_histogram() {
    let _quiet = quiet();
    let report = contended_cell().run_probed(NullSink, WallProbe::new(&PROBE_SCOPES));
    let profile = report.engine.profile.as_ref().expect("armed probe reports");
    assert_eq!(profile.scopes.len(), PROBE_SCOPES.len());
    let mut scoped_total = 0u64;
    for (name, count) in report.engine.kinds.iter_named() {
        let scope = profile.scope(name).expect("every kind has a scope");
        assert_eq!(
            scope.count, count,
            "scope {name} visited {} times but the engine dispatched {count}",
            scope.count
        );
        scoped_total += scope.count;
    }
    assert_eq!(scoped_total, report.engine.events, "kind scopes partition");
}

/// The phase scopes cover the hot paths: a contended four-station cell
/// visits every one of them, and the kind scopes attribute the bulk of
/// the run's wall time.
#[test]
fn phase_scopes_fire_and_attribution_is_high() {
    let _quiet = quiet();
    let report = contended_cell().run_probed(NullSink, WallProbe::new(&PROBE_SCOPES));
    let profile = report.engine.profile.as_ref().expect("profile");
    for phase in [
        "phase_scatter",
        "phase_arrival_scan",
        "phase_ber_eval",
        "phase_mac_actions",
        "phase_response_build",
    ] {
        let s = profile.scope(phase).expect("phase scope exists");
        assert!(s.count > 0, "{phase} never fired");
        assert!(s.max_ns >= s.min_ns);
    }
    // The ≥ 95% attribution target is asserted on a kilo-station chain
    // by `chain1024_attribution_is_high_and_response_path_visible`; this
    // short cell's wall time is small enough that one descheduling
    // between scopes eats a visible slice of it. Assert the order of
    // magnitude, not the 95% bar.
    let frac = report
        .engine
        .attributed_fraction()
        .expect("armed probe attributes");
    assert!(
        frac > 0.5,
        "kind scopes attribute only {:.0}% of wall time",
        100.0 * frac
    );
}

/// The profiler has no large-N blind spot: a probed kilo-station chain
/// still attributes ≥ 95% of its wall time to named kind scopes, and the
/// precomputed-response fast path stays visible through its dedicated
/// `phase_response_build` scope.
#[test]
fn chain1024_attribution_is_high_and_response_path_visible() {
    let _quiet = quiet();
    let chain1024 = || {
        ScenarioBuilder::new(PhyRate::R2)
            .chain(1024, 80.0)
            .seed(3)
            .duration(SimDuration::from_millis(500))
            .warmup(SimDuration::from_millis(100))
            .flow(
                0,
                1023,
                Traffic::SaturatedUdp {
                    payload_bytes: 512,
                    backlog: 10,
                },
            )
            .build()
    };
    // Wall-clock attribution on a single short run can still lose a
    // scheduler hiccup's worth of time; take the best of three attempts
    // before declaring a blind spot.
    let mut best = 0.0f64;
    for _ in 0..3 {
        let report = chain1024().run_probed(NullSink, WallProbe::new(&PROBE_SCOPES));
        let profile = report.engine.profile.as_ref().expect("profile");
        let rb = profile
            .scope("phase_response_build")
            .expect("response-build phase scope exists");
        assert!(
            rb.count > 0,
            "SIFS responses never timed on a saturated chain"
        );
        let frac = report
            .engine
            .attributed_fraction()
            .expect("armed probe attributes");
        best = best.max(frac);
        if best >= 0.95 {
            break;
        }
    }
    assert!(
        best >= 0.95,
        "kind scopes attribute only {:.1}% of chain1024 wall time",
        100.0 * best
    );
}

/// Arming the profiler changes nothing physical: flows, per-station
/// counters and airtime are bit-identical to the unprobed run.
#[test]
fn armed_probe_is_physics_invisible() {
    let _quiet = quiet();
    let plain = contended_cell().run();
    let probed = contended_cell().run_probed(NullSink, WallProbe::new(&PROBE_SCOPES));
    for (a, b) in plain.flows.iter().zip(&probed.flows) {
        assert_eq!(a.throughput_kbps.to_bits(), b.throughput_kbps.to_bits());
        assert_eq!(a.loss_rate.to_bits(), b.loss_rate.to_bits());
    }
    for (a, b) in plain.nodes.iter().zip(&probed.nodes) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "node state diverged");
        assert_eq!(a.airtime, b.airtime);
    }
    assert_eq!(plain.engine.events, probed.engine.events);
    assert_eq!(plain.engine.kinds, probed.engine.kinds);
}

/// Probe states: compiled-out (default run) and disarmed (`WallProbe::off`)
/// both report no profile; only an armed probe produces one.
#[test]
fn only_an_armed_probe_reports() {
    let _quiet = quiet();
    assert!(contended_cell().run().engine.profile.is_none());
    let disarmed = contended_cell().run_probed(NullSink, WallProbe::off(&PROBE_SCOPES));
    assert!(disarmed.engine.profile.is_none());
    assert!(disarmed.engine.attributed_fraction().is_none());
    let armed = contended_cell().run_probed(NullSink, WallProbe::new(&PROBE_SCOPES));
    assert!(armed.engine.profile.is_some());
}

/// The probe is zero-cost when disarmed: the same four-station cell run
/// with probes compiled out (`NoProbe`, what `run` uses) and compiled in
/// but disarmed (`WallProbe::off`) must agree on median ns/event within
/// 25% in either direction. Runs alternate so drift on the host hits
/// both sides alike. A wall-clock gate means nothing in a debug build, so
/// it is ignored there; CI runs it in release with `--ignored`.
#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn disarmed_probe_costs_no_more_than_a_compiled_out_one() {
    const PAIRS: usize = 101;
    const TOLERANCE: f64 = 0.25;
    let _quiet = quiet();
    let ns_per_event = |probed: bool| {
        let cell = contended_cell();
        let t0 = Instant::now();
        let report = if probed {
            cell.run_probed(NullSink, WallProbe::off(&PROBE_SCOPES))
        } else {
            cell.run()
        };
        t0.elapsed().as_nanos() as f64 / report.engine.events as f64
    };
    // Warm caches and the allocator on both paths before timing.
    ns_per_event(false);
    ns_per_event(true);
    let (mut out, mut off) = (Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        out.push(ns_per_event(false));
        off.push(ns_per_event(true));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (out, off) = (median(&mut out), median(&mut off));
    let ratio = out.max(off) / out.min(off);
    assert!(
        ratio <= 1.0 + TOLERANCE,
        "compiled-out {out:.1} ns/event vs disarmed {off:.1} ns/event differ by {:.0}%",
        (ratio - 1.0) * 100.0
    );
}
