//! The correctness gate: a stable digest of each run's physics.
//!
//! A run's digest hashes every deterministic field of its report —
//! flows, per-station MAC/PHY counters and airtime, the event-kind
//! histogram and the mobility churn — with the repository's
//! [`StableHasher`]. Wall-clock fields stay out, so a change that only
//! speeds the simulator up keeps every digest. A workload's digest folds
//! its runs' digests in order; `pins.txt`, next to the manifest, holds
//! one per workload, taken at [`PIN_SEED`].

use dot11_adhoc::hash::StableHasher;
use dot11_adhoc::RunReport;

/// The benchmark seed the pinned digests were taken at.
pub const PIN_SEED: u64 = 1;

/// The pin file: one `<workload> <digest in hex>` line per workload.
const PINS: &str = include_str!("../pins.txt");

/// The pinned digest of `workload`, if the pin file has a nonzero one.
fn pin(pins: &str, workload: &str) -> Option<u64> {
    pins.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once(char::is_whitespace))
        .find(|(w, _)| *w == workload)
        .and_then(|(_, d)| u64::from_str_radix(d.trim(), 16).ok())
        .filter(|&d| d != 0)
}

/// Checks a pass's folded digest at [`PIN_SEED`] against the pin of
/// `workload`.
pub fn check(workload: &str, digest: u64) -> Result<(), String> {
    match pin(PINS, workload) {
        Some(p) if p == digest => Ok(()),
        Some(p) => Err(format!(
            "{workload}: digest {digest:016x} at seed {PIN_SEED} differs from the pin {p:016x}"
        )),
        None => Err(format!(
            "{workload}: no pin in pins.txt (this build's digest at seed {PIN_SEED} is {digest:016x})"
        )),
    }
}

/// The digest of one run's physics.
pub fn run_digest(r: &RunReport) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(r.duration.as_nanos());
    h.write_u64(r.warmup.as_nanos());
    h.write_u64(r.flows.len() as u64);
    for f in &r.flows {
        h.write_u32(f.flow.0);
        h.write_u32(f.src.0);
        h.write_u32(f.dst.0);
        h.write_u64(f.offered_packets);
        h.write_u64(f.delivered_bytes);
        h.write_u64(f.delivered_packets);
        h.write_u64(f.measured_bytes);
        h.write_f64(f.throughput_kbps);
        h.write_f64(f.loss_rate);
        h.write_f64(f.mean_delay_ms);
        h.write_f64(f.max_delay_ms);
    }
    h.write_u64(r.nodes.len() as u64);
    for n in &r.nodes {
        let (m, p, a) = (n.mac, n.phy, n.airtime);
        for v in [
            m.data_tx,
            m.rts_tx,
            m.cts_tx,
            m.ack_tx,
            m.delivered,
            m.duplicates,
            m.tx_success,
            m.tx_dropped,
            m.queue_drops,
            m.retries,
            m.eifs_defers,
            m.nav_updates,
            m.cts_suppressed,
            p.locks,
            p.decoded,
            p.body_errors,
            p.header_errors,
            p.captures,
            p.missed_preambles,
            p.tx_frames,
            a.tx_ns,
            a.rx_ns,
            a.busy_ns,
            a.idle_ns,
            a.nav_ns,
            a.difs_ns,
            a.backoff_ns,
            a.frozen_ns,
            a.quiet_ns,
        ] {
            h.write_u64(v);
        }
    }
    for (name, count) in r.engine.kinds.iter_named() {
        h.write_str(name);
        h.write_u64(count);
    }
    let m = r.engine.mobility;
    for v in [
        m.epochs,
        m.stations_moved,
        m.slices_recomputed,
        m.links_dirtied,
        m.links_recomputed,
        m.audible_added,
        m.audible_removed,
        r.engine.events,
        r.engine.queue_high_water as u64,
        r.engine.sim_elapsed.as_nanos(),
    ] {
        h.write_u64(v);
    }
    h.finish()
}

/// Folds per-run digests, in run order, into one workload digest.
pub fn fold(digests: &[u64]) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(digests.len() as u64);
    for &d in digests {
        h.write_u64(d);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dot11_sweep::{CellSpec, MacAxis, RunParams, SweepScenario};

    fn fig7_report(seed: u64) -> RunReport {
        let cell = CellSpec {
            scenario: SweepScenario::figure(7)[0],
            mac: MacAxis::table1(),
            seed,
            params: RunParams {
                duration: desim::SimDuration::from_millis(300),
                warmup: desim::SimDuration::from_millis(50),
                threads: 1,
            },
        };
        cell.build().into_world().run()
    }

    #[test]
    fn a_report_from_another_seed_fails_the_check() {
        let pinned = run_digest(&fig7_report(11));
        assert_eq!(
            run_digest(&fig7_report(11)),
            pinned,
            "same seed, same digest"
        );
        assert_ne!(
            run_digest(&fig7_report(12)),
            pinned,
            "another seed must not pass"
        );
    }

    #[test]
    fn wall_clock_stays_out_of_the_digest() {
        let mut report = fig7_report(11);
        let before = run_digest(&report);
        report.engine.wall += std::time::Duration::from_secs(1);
        assert_eq!(run_digest(&report), before);
    }

    #[test]
    fn every_workload_has_a_nonzero_pin() {
        for w in ["paper-grid", "large-field", "mobile-field"] {
            let p = pin(PINS, w).unwrap_or_else(|| panic!("{w} has no nonzero pin"));
            assert!(check(w, p).is_ok());
            assert!(check(w, p ^ 1).is_err());
        }
        assert!(check("no-such-workload", 1).is_err());
    }

    #[test]
    fn zero_or_malformed_pins_do_not_count() {
        let pins = "# comment\nzero 0\nbad xyz\nok 00ff\n";
        assert_eq!(pin(pins, "zero"), None);
        assert_eq!(pin(pins, "bad"), None);
        assert_eq!(pin(pins, "missing"), None);
        assert_eq!(pin(pins, "ok"), Some(255));
    }

    #[test]
    fn fold_depends_on_order_and_count() {
        assert_ne!(fold(&[1, 2]), fold(&[2, 1]));
        assert_ne!(fold(&[1]), fold(&[1, 0]));
    }
}
