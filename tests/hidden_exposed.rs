//! Integration: hidden- and exposed-station topologies.
//!
//! These are the canonical CSMA/CA pathologies the paper's four-station
//! experiments compose; here each is isolated in its pure form.

use desim::SimDuration;
use dot11_testbed::adhoc::analytic::AccessScheme;
use dot11_testbed::adhoc::experiments::{hidden, ExpConfig};
use dot11_testbed::adhoc::{ScenarioBuilder, Traffic};
use dot11_testbed::net::FlowId;
use dot11_testbed::phy::{DayProfile, PhyRate, RadioConfig};

/// Two senders that cannot carrier-sense each other converging on one
/// receiver in the middle: the hidden-station collision storm, and the
/// RTS/CTS rescue.
///
/// Geometry (2 Mb/s, still channel): senders at 0 m and 190 m, receiver
/// at 95 m. Sender-sender distance 190 m is beyond the ~150 m PCS range;
/// each sender-receiver link (95 m) is within the ~104 m data range.
#[test]
fn hidden_stations_collide_and_rts_helps() {
    let run = |rts: bool| {
        let report = ScenarioBuilder::new(PhyRate::R2)
            .line(&[0.0, 95.0, 190.0])
            .day(DayProfile::still())
            .rts(rts)
            .seed(5)
            .duration(SimDuration::from_secs(8))
            .warmup(SimDuration::from_secs(1))
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
                1,
                Traffic::SaturatedUdp {
                    payload_bytes: 512,
                    backlog: 10,
                },
            )
            .run();
        let total = report.flow(FlowId(0)).throughput_kbps + report.flow(FlowId(1)).throughput_kbps;
        let retries: u64 = report.nodes.iter().map(|n| n.mac.retries).sum();
        (total, retries)
    };
    let (basic_total, basic_retries) = run(false);
    let (rts_total, rts_retries) = run(true);
    // Without RTS the hidden senders trash each other's data frames at
    // the receiver: heavy retries, poor goodput.
    assert!(
        basic_retries > 2_000,
        "hidden stations should collide, retries {basic_retries}"
    );
    // RTS/CTS trades short RTS collisions for protected data: fewer
    // retries and clearly better total goodput.
    assert!(
        rts_total > basic_total * 1.3,
        "RTS/CTS should rescue hidden stations: {rts_total:.0} vs {basic_total:.0} kb/s"
    );
    assert!(
        rts_retries < basic_retries,
        "retries {rts_retries} vs {basic_retries}"
    );
}

/// The same pathology through the sweepable experiment constructor
/// ([`hidden::hidden_triple`]), pinned across the paper's test-bed
/// payload sizes: at every size, basic-access aggregate goodput
/// collapses below the RTS/CTS run. This is the scenario `repro sweep
/// --scenarios hidden3` expands, so the pin also guards the sweep axis.
#[test]
fn hidden_triple_collapses_without_rts_at_paper_payloads() {
    let cfg = ExpConfig {
        seed: 5,
        duration: SimDuration::from_secs(8),
        warmup: SimDuration::from_secs(1),
    };
    let total = |scheme: AccessScheme, payload: u32| {
        let report = hidden::hidden_triple(cfg, PhyRate::R2, scheme, payload).run();
        report.flow(FlowId(0)).throughput_kbps + report.flow(FlowId(1)).throughput_kbps
    };
    for payload in [512, 1000, 1460] {
        let basic = total(AccessScheme::Basic, payload);
        let rts = total(AccessScheme::RtsCts, payload);
        assert!(
            basic < rts,
            "{payload} B: basic access should collapse below RTS/CTS, \
             got {basic:.0} vs {rts:.0} kb/s"
        );
        assert!(rts > 200.0, "{payload} B: RTS/CTS should move real data");
    }
}

/// With carrier sensing crippled (ablation D1), the session-1 sender can
/// no longer defer to the foreign session it cannot decode: its frames
/// overlap the neighbour's and its receiver — also blinded less often —
/// sees far more corrupted receptions. On the real shadowed channel this
/// collapses session 1 outright.
#[test]
fn removing_pcs_advantage_creates_hidden_stations() {
    let run = |radio: RadioConfig| {
        let report = ScenarioBuilder::new(PhyRate::R11)
            .line(&[0.0, 25.0, 107.5, 132.5])
            .radio(radio)
            .seed(2)
            .duration(SimDuration::from_secs(6))
            .warmup(SimDuration::from_secs(1))
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
            .run();
        let retries: u64 = report.nodes.iter().map(|n| n.mac.retries).sum();
        (
            report.flow(FlowId(0)).throughput_kbps,
            report.flow(FlowId(1)).throughput_kbps,
            retries,
        )
    };
    let (s1_with, s2_with, retries_with) = run(RadioConfig::dwl650());
    let (s1_without, s2_without, retries_without) =
        run(RadioConfig::dwl650().without_pcs_advantage());
    // The robust signature of losing carrier sense is wasted air: frames
    // overlap constantly, so MAC retries multiply. (Throughput can move
    // either way — the aggressive sender sometimes *gains* because its
    // receiver captures over the distant interferer — which is itself a
    // finding the ablation bench records.)
    assert!(
        retries_without > retries_with * 2,
        "hidden overlap should multiply retries: {retries_without} vs {retries_with}"
    );
    assert!(s1_with + s2_with > 1000.0, "sanity: baseline moves data");
    assert!(
        s1_without + s2_without > 100.0,
        "sanity: ablation still moves data"
    );
}

/// The exposed-station effect: a sender within carrier-sense range of a
/// *foreign* transmitter defers even though its own receiver (on the far
/// side) would hear it fine. Its throughput under contention falls well
/// below the clean-channel baseline.
#[test]
fn exposed_station_defers_needlessly() {
    // B at 80 m from A transmits to C at 160 m (away from A). A saturates
    // toward its own receiver D on the opposite side (-80 m).
    let run = |with_foreign: bool| {
        let mut b = ScenarioBuilder::new(PhyRate::R2)
            .line(&[0.0, 80.0, 160.0, -80.0])
            .day(DayProfile::still())
            .seed(4)
            .duration(SimDuration::from_secs(6))
            .warmup(SimDuration::from_secs(1))
            .flow(
                1,
                2,
                Traffic::SaturatedUdp {
                    payload_bytes: 512,
                    backlog: 10,
                },
            );
        if with_foreign {
            b = b.flow(
                0,
                3,
                Traffic::SaturatedUdp {
                    payload_bytes: 512,
                    backlog: 10,
                },
            );
        }
        b.run().flow(FlowId(0)).throughput_kbps
    };
    let alone = run(false);
    let exposed = run(true);
    assert!(
        exposed < alone * 0.7,
        "exposed sender should lose throughput: {exposed:.0} vs alone {alone:.0} kb/s"
    );
    assert!(
        exposed > alone * 0.2,
        "but not starve outright: {exposed:.0} kb/s"
    );
}

/// NAV (virtual carrier sense) suppresses CTS responses — the mechanism
/// the paper invokes for its four-station RTS/CTS results ("RTS frames
/// sent by S3 force S2 to not reply with a CTS frame to S1's RTS").
///
/// Construction: a neighbour (S2) keeps sending RTS to a dead station far
/// out of range. Each unanswered RTS leaves a ~1.1 ms reservation in
/// S1's NAV while the medium is physically idle again — so S0's RTS to
/// S1, launched after a normal DIFS+backoff, regularly lands inside the
/// stale reservation and must go unanswered.
#[test]
fn nav_suppresses_cts_after_unanswered_rts() {
    let report = ScenarioBuilder::new(PhyRate::R11)
        .line(&[0.0, 25.0, 120.0, 600.0])
        .day(DayProfile::still())
        .rts(true)
        .seed(3)
        .duration(SimDuration::from_secs(6))
        .warmup(SimDuration::from_secs(1))
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
        .run();
    let suppressed = report.nodes[1].mac.cts_suppressed;
    assert!(
        suppressed > 0,
        "stale reservations should block some CTS responses"
    );
    assert!(
        report.nodes[1].mac.nav_updates > 100,
        "S2's RTSes keep setting S1's NAV"
    );
    // The victim flow still makes progress between reservations.
    assert!(report.flow(FlowId(0)).throughput_kbps > 100.0);
}
