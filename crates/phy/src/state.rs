//! Per-station PHY state machine: locking, SINR integration, capture.
//!
//! Each station's receiver is in one of three modes — idle, receiving
//! (locked on one frame), or transmitting. Every signal on the air at the
//! station is tracked, whatever its strength: signals below the
//! carrier-sense threshold still raise the interference floor for the
//! frame being received. Reception success is decided by integrating the
//! bit-error rate over **SINR segments**: every time the interference set
//! changes, the elapsed segment's bits are charged at the segment's SINR.
//! The PLCP portion (always DBPSK at 1 Mb/s) and the body (at the data
//! rate) are accounted separately, so a frame can be "sensed but not
//! decoded" — which the MAC answers with EIFS, a behaviour central to the
//! paper's four-station asymmetries.

use desim::{SimRng, SimTime};
use dot11_trace::{NullSink, TraceRecord, TraceSink};

use crate::ber::{ber, Modulation};
use crate::medium::{TxId, TxSignal};
use crate::radio::RadioConfig;
use crate::rate::PhyRate;
use crate::units::{Dbm, MilliWatts, NodeId};

/// What `signal_start` tells the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhyIndication {
    /// The receiver locked onto this frame (directly or by capture).
    pub locked: bool,
}

/// How a locked frame ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxOutcomeKind {
    /// PLCP and body both survived: the MPDU is delivered to the MAC.
    Decoded,
    /// PLCP survived but the body was corrupted (bad FCS at the MAC).
    BodyError,
    /// The PLCP itself was lost: pure noise to the station.
    HeaderError,
}

/// The result of a completed locked reception.
#[derive(Debug, Clone, Copy)]
pub struct RxOutcome {
    /// The transmission that ended.
    pub tx_id: TxId,
    /// Its transmitter.
    pub source: NodeId,
    /// How reception ended.
    pub kind: RxOutcomeKind,
    /// Received signal power.
    pub rx_power: Dbm,
    /// Body rate of the frame.
    pub rate: PhyRate,
}

#[derive(Debug, Clone, Copy)]
struct Lock {
    tx_id: TxId,
    source: NodeId,
    signal: MilliWatts,
    rx_power: Dbm,
    rate: PhyRate,
    plcp_end: SimTime,
    ends_at: SimTime,
    plcp_log_success: f64,
    body_log_success: f64,
    last_integrated: SimTime,
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    Idle,
    Rx(Lock),
    Tx { until: SimTime },
}

/// Cumulative airtime split for one station, nanoseconds per category.
///
/// The first four categories are measured by the PHY alone: `tx` — own
/// transmissions; `rx` — locked on a frame (decodable or not: the "deaf"
/// time of the paper's exposed stations); `busy` — carrier sensed busy
/// without a lock; `idle` — the rest. The remaining five refine `idle_ns`
/// with the MAC's defer ledger (what the station was *doing* while the
/// radio heard nothing): NAV defer, DIFS/EIFS, backoff counting, frozen
/// backoff, and truly quiet time. The PHY fills only the first four; the
/// world merges the MAC shares in at report time, so an `Airtime` taken
/// straight from a `PhyState` has the refinement fields at zero.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Airtime {
    /// Nanoseconds spent transmitting.
    pub tx_ns: u64,
    /// Nanoseconds spent locked in reception.
    pub rx_ns: u64,
    /// Nanoseconds carrier-busy without a lock.
    pub busy_ns: u64,
    /// Nanoseconds idle.
    pub idle_ns: u64,
    /// Idle nanoseconds spent deferring under a NAV reservation.
    pub nav_ns: u64,
    /// Idle nanoseconds spent in DIFS/EIFS deferral.
    pub difs_ns: u64,
    /// Idle nanoseconds spent counting backoff slots down.
    pub backoff_ns: u64,
    /// Idle nanoseconds holding a frozen backoff under a reservation.
    pub frozen_ns: u64,
    /// Idle nanoseconds with nothing to do at all.
    pub quiet_ns: u64,
}

/// Prints only the four PHY-measured categories. This exact rendering is
/// pinned byte-for-byte by the golden files (node reports golden through
/// their `Debug` form), so the MAC-refined fields — which partition
/// `idle_ns` rather than extend the total — are deliberately left out;
/// they surface through the accessors and the JSON reports instead.
impl std::fmt::Debug for Airtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Airtime")
            .field("tx_ns", &self.tx_ns)
            .field("rx_ns", &self.rx_ns)
            .field("busy_ns", &self.busy_ns)
            .field("idle_ns", &self.idle_ns)
            .finish()
    }
}

impl Airtime {
    /// Total accounted time.
    pub fn total_ns(&self) -> u64 {
        self.tx_ns + self.rx_ns + self.busy_ns + self.idle_ns
    }

    /// Fraction of accounted time in reception (the deafness share).
    pub fn rx_fraction(&self) -> f64 {
        if self.total_ns() == 0 {
            0.0
        } else {
            self.rx_ns as f64 / self.total_ns() as f64
        }
    }

    /// Fraction of accounted time transmitting.
    pub fn tx_fraction(&self) -> f64 {
        if self.total_ns() == 0 {
            0.0
        } else {
            self.tx_ns as f64 / self.total_ns() as f64
        }
    }

    /// Fraction of accounted time the channel was non-idle as seen by
    /// this station (own tx + locked rx + carrier busy).
    pub fn channel_utilization(&self) -> f64 {
        if self.total_ns() == 0 {
            0.0
        } else {
            (self.tx_ns + self.rx_ns + self.busy_ns) as f64 / self.total_ns() as f64
        }
    }

    /// Sum of the MAC-refined idle categories; equals `idle_ns`
    /// bit-exactly once the world has merged the defer ledger in.
    pub fn idle_refined_ns(&self) -> u64 {
        self.nav_ns + self.difs_ns + self.backoff_ns + self.frozen_ns + self.quiet_ns
    }
}

/// Cumulative PHY-level counters for one station.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhyCounters {
    /// Frames the receiver locked onto.
    pub locks: u64,
    /// Locked frames decoded successfully.
    pub decoded: u64,
    /// Locked frames whose body was corrupted.
    pub body_errors: u64,
    /// Locked frames whose PLCP was lost.
    pub header_errors: u64,
    /// Locks stolen by a stronger late frame (capture).
    pub captures: u64,
    /// Above-threshold signals that arrived while the receiver was not
    /// idle (missed preambles — energy only).
    pub missed_preambles: u64,
    /// Frames transmitted.
    pub tx_frames: u64,
}

/// The receiver/transmitter state of one station.
///
/// Generic over a [`TraceSink`]; with the default [`NullSink`] every
/// emission site compiles away.
#[derive(Debug)]
pub struct PhyState<S: TraceSink = NullSink> {
    cfg: RadioConfig,
    rng: SimRng,
    /// Station identity, used only to stamp trace records.
    node: NodeId,
    sink: S,
    mode: Mode,
    /// Signals currently on the air, sorted by [`TxId`], stored as
    /// struct-of-arrays: the id lane indexes, the power lane sums. The
    /// lanes are parallel (same length, same order). Overlap degree is a
    /// handful at most, so flat sorted lanes beat hashing — and unlike a
    /// `HashMap` the iteration order is deterministic. Splitting the
    /// lanes keeps arrival scans and the Neumaier interference math on
    /// dense `f64` memory with no interleaved ids.
    arriving_ids: Vec<TxId>,
    arriving_powers: Vec<f64>,
    /// Running Neumaier (compensated) sum of the arriving powers:
    /// `arriving_sum` is the working sum, `arriving_comp` the accumulated
    /// rounding residual. Updated O(1) on signal start/end, which turns
    /// the O(k) re-sums in `carrier_busy` / `integrate` into adds.
    arriving_sum: f64,
    arriving_comp: f64,
    /// Memoized energy carrier-sense decision: exactly
    /// `total_arriving() >= cs_threshold`, refreshed at every accumulator
    /// mutation, so `carrier_busy` / `account_airtime` read a flag
    /// instead of re-deciding between power changes.
    energy_busy: bool,
    noise: MilliWatts,
    cs_threshold: MilliWatts,
    counters: PhyCounters,
    airtime: Airtime,
    airtime_mark: SimTime,
}

impl PhyState {
    /// Creates the PHY for one station. `rng` should be a per-station
    /// substream of the run seed (reception draws consume it).
    pub fn new(cfg: RadioConfig, rng: SimRng) -> PhyState {
        PhyState::with_sink(cfg, rng, NodeId(0), NullSink)
    }
}

impl<S: TraceSink> PhyState<S> {
    /// Like [`PhyState::new`], but PHY-layer events (collisions) are also
    /// emitted into `sink`, stamped with `node`.
    pub fn with_sink(cfg: RadioConfig, rng: SimRng, node: NodeId, sink: S) -> PhyState<S> {
        PhyState {
            noise: cfg.noise_floor.to_milliwatts(),
            cs_threshold: cfg.cs_threshold.to_milliwatts(),
            cfg,
            rng,
            node,
            sink,
            mode: Mode::Idle,
            arriving_ids: Vec::new(),
            arriving_powers: Vec::new(),
            arriving_sum: 0.0,
            arriving_comp: 0.0,
            energy_busy: false,
            counters: PhyCounters::default(),
            airtime: Airtime::default(),
            airtime_mark: SimTime::ZERO,
        }
    }

    /// The radio configuration.
    pub fn config(&self) -> &RadioConfig {
        &self.cfg
    }

    /// Cumulative counters.
    pub fn counters(&self) -> PhyCounters {
        self.counters
    }

    /// The airtime split accounted so far (up to the last event; call
    /// [`PhyState::account_airtime`] first to fold in the tail).
    pub fn airtime(&self) -> Airtime {
        self.airtime
    }

    /// Folds the span since the last event into the airtime split —
    /// call once at measurement boundaries (end of run).
    pub fn account_airtime(&mut self, now: SimTime) {
        let span = now.saturating_duration_since(self.airtime_mark).as_nanos();
        self.airtime_mark = now;
        match self.mode {
            Mode::Tx { .. } => self.airtime.tx_ns += span,
            Mode::Rx(_) => self.airtime.rx_ns += span,
            Mode::Idle => {
                if self.energy_busy {
                    self.airtime.busy_ns += span;
                } else {
                    self.airtime.idle_ns += span;
                }
            }
        }
    }

    /// Physical carrier sense: busy while transmitting, receiving, or
    /// while the summed on-air signal power reaches the CS threshold.
    pub fn carrier_busy(&self) -> bool {
        match self.mode {
            Mode::Tx { .. } | Mode::Rx(_) => true,
            Mode::Idle => self.energy_busy,
        }
    }

    /// True while this station is transmitting.
    pub fn is_transmitting(&self) -> bool {
        matches!(self.mode, Mode::Tx { .. })
    }

    /// The transmission currently locked for reception, if any.
    pub fn locked_on(&self) -> Option<TxId> {
        match self.mode {
            Mode::Rx(lock) => Some(lock.tx_id),
            _ => None,
        }
    }

    /// The summed on-air power: the compensated running total, O(1).
    /// The hot paths read the memoized `energy_busy` decision instead;
    /// this accessor remains for the property tests, which compare it
    /// against naive re-sums.
    #[cfg_attr(not(test), allow(dead_code))]
    fn total_arriving(&self) -> MilliWatts {
        MilliWatts(self.arriving_sum + self.arriving_comp)
    }

    /// Folds `x` (a signed power delta, mW) into the running Neumaier
    /// sum: exact two-sum, residual into the compensation term. Also
    /// refreshes the memoized carrier-sense decision, which only moves
    /// when the accumulator does.
    #[inline]
    fn add_arriving_power(&mut self, x: f64) {
        let t = self.arriving_sum + x;
        self.arriving_comp += if self.arriving_sum.abs() >= x.abs() {
            (self.arriving_sum - t) + x
        } else {
            (x - t) + self.arriving_sum
        };
        self.arriving_sum = t;
        self.energy_busy = self.arriving_sum + self.arriving_comp >= self.cs_threshold.0;
    }

    /// A new signal reaches the antenna.
    pub fn signal_start(&mut self, sig: &TxSignal, now: SimTime) -> PhyIndication {
        self.account_airtime(now);
        self.integrate(now);
        let power = sig.rx_power.to_milliwatts();
        match self.arriving_ids.binary_search(&sig.tx_id) {
            Err(i) => {
                self.arriving_ids.insert(i, sig.tx_id);
                self.arriving_powers.insert(i, power.0);
            }
            Ok(i) => {
                // Re-announced TxId (cannot happen from `Medium`, but keep
                // the old map's last-write-wins semantics).
                let old = std::mem::replace(&mut self.arriving_powers[i], power.0);
                self.add_arriving_power(-old);
            }
        }
        self.add_arriving_power(power.0);
        let detectable = sig.rx_power.0 >= self.cfg.cs_threshold.0;
        match self.mode {
            Mode::Idle if detectable => {
                self.lock(sig, power, now);
                PhyIndication { locked: true }
            }
            Mode::Rx(lock)
                if self.cfg.capture_enabled
                    && detectable
                    && now < lock.plcp_end
                    && power.0 >= lock.signal.0 * self.cfg.capture_margin.to_linear() =>
            {
                // The stronger late arrival steals the receiver during the
                // current preamble; the old frame degrades to interference.
                self.counters.captures += 1;
                self.lock(sig, power, now);
                PhyIndication { locked: true }
            }
            _ => {
                if detectable && !matches!(self.mode, Mode::Idle) {
                    self.counters.missed_preambles += 1;
                    if S::ENABLED {
                        self.sink
                            .record(now, &TraceRecord::Collision { node: self.node.0 });
                    }
                }
                PhyIndication { locked: false }
            }
        }
    }

    fn lock(&mut self, sig: &TxSignal, power: MilliWatts, now: SimTime) {
        self.counters.locks += 1;
        self.mode = Mode::Rx(Lock {
            tx_id: sig.tx_id,
            source: sig.source,
            signal: power,
            rx_power: sig.rx_power,
            rate: sig.rate,
            plcp_end: now + sig.preamble.duration(),
            ends_at: sig.ends_at,
            plcp_log_success: 0.0,
            body_log_success: 0.0,
            last_integrated: now,
        });
    }

    /// A signal leaves the air. If it was the locked frame, the reception
    /// outcome is drawn and returned.
    pub fn signal_end(&mut self, tx_id: TxId, now: SimTime) -> Option<RxOutcome> {
        self.account_airtime(now);
        self.integrate(now);
        match self.arriving_ids.binary_search(&tx_id) {
            Ok(i) => {
                self.arriving_ids.remove(i);
                let power = self.arriving_powers.remove(i);
                if self.arriving_ids.is_empty() {
                    // Quiet antenna: pin the accumulator to exactly zero
                    // so residuals can never drift across quiet periods.
                    self.arriving_sum = 0.0;
                    self.arriving_comp = 0.0;
                    self.energy_busy =
                        self.arriving_sum + self.arriving_comp >= self.cs_threshold.0;
                } else {
                    self.add_arriving_power(-power);
                }
            }
            Err(_) => debug_assert!(false, "signal_end for unknown {tx_id:?}"),
        }
        match self.mode {
            Mode::Rx(lock) if lock.tx_id == tx_id => {
                self.mode = Mode::Idle;
                let plcp_ok = self.rng.gen_bool(lock.plcp_log_success.exp());
                let kind = if !plcp_ok {
                    self.counters.header_errors += 1;
                    RxOutcomeKind::HeaderError
                } else if self.rng.gen_bool(lock.body_log_success.exp()) {
                    self.counters.decoded += 1;
                    RxOutcomeKind::Decoded
                } else {
                    self.counters.body_errors += 1;
                    RxOutcomeKind::BodyError
                };
                Some(RxOutcome {
                    tx_id,
                    source: lock.source,
                    kind,
                    rx_power: lock.rx_power,
                    rate: lock.rate,
                })
            }
            _ => None,
        }
    }

    /// The station keys up its own transmitter until `until`.
    ///
    /// Any reception in progress is abandoned (half-duplex radio); the
    /// abandoned frame's energy keeps being tracked.
    pub fn begin_tx(&mut self, until: SimTime, now: SimTime) {
        self.account_airtime(now);
        self.integrate(now);
        self.counters.tx_frames += 1;
        self.mode = Mode::Tx { until };
    }

    /// The station's own transmission ends. Signals still on the air are
    /// energy only (their preambles were missed while transmitting).
    pub fn end_tx(&mut self, now: SimTime) {
        self.account_airtime(now);
        match self.mode {
            Mode::Tx { until } => debug_assert!(now >= until, "end_tx before keyed-up period"),
            _ => debug_assert!(false, "end_tx while not transmitting"),
        }
        self.integrate(now);
        self.mode = Mode::Idle;
    }

    /// Charges the elapsed segment's bits to the locked frame at the
    /// segment SINR.
    fn integrate(&mut self, now: SimTime) {
        let Mode::Rx(ref mut lock) = self.mode else {
            return;
        };
        if now <= lock.last_integrated {
            return;
        }
        // Interference = everything arriving minus the locked signal,
        // taken from the running compensated accumulator in O(1) instead
        // of re-summing the arrival set. The subtraction reuses the
        // Neumaier step so a lone locked signal yields exactly 0.0 and
        // residuals stay within one ulp of the naive re-sum.
        let interference = if self.arriving_ids.len() <= 1 {
            0.0
        } else {
            let x = -lock.signal.0;
            let t = self.arriving_sum + x;
            let comp = self.arriving_comp
                + if self.arriving_sum.abs() >= x.abs() {
                    (self.arriving_sum - t) + x
                } else {
                    (x - t) + self.arriving_sum
                };
            (t + comp).max(0.0)
        };
        let sinr = lock.signal.0 / (interference + self.noise.0);
        let from = lock.last_integrated;
        let to = now.min(lock.ends_at);
        if to > from {
            // PLCP portion: DBPSK at 1 Mb/s (long preamble; the short
            // preamble's 2 Mb/s header tail is approximated at 1 Mb/s).
            if from < lock.plcp_end {
                let seg_end = to.min(lock.plcp_end);
                let bits = (seg_end - from).as_micros_f64() * 1.0;
                lock.plcp_log_success += bits * ln_one_minus(ber(Modulation::Dbpsk, sinr));
            }
            if to > lock.plcp_end {
                let seg_start = from.max(lock.plcp_end);
                let bits = (to - seg_start).as_micros_f64() * lock.rate.bits_per_micro();
                let b = ber(lock.rate.modulation(), sinr);
                lock.body_log_success += bits * ln_one_minus(b);
            }
        }
        lock.last_integrated = now;
    }
}

/// `ln(1 - p)` with the `p → 1` singularity clamped so log-probabilities
/// stay finite.
fn ln_one_minus(p: f64) -> f64 {
    (1.0 - p).max(1e-300).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plcp::Preamble;

    fn phy() -> PhyState {
        PhyState::new(RadioConfig::default(), SimRng::from_seed(9))
    }

    fn signal(tx_id: u64, power_dbm: f64, start_us: u64, bytes: u32, rate: PhyRate) -> TxSignal {
        let starts_at = SimTime::from_micros(start_us);
        let air = crate::plcp::FrameAirtime::new(bytes, rate, Preamble::Long);
        TxSignal {
            tx_id: TxId(tx_id),
            source: NodeId(99),
            rx_power: Dbm(power_dbm),
            rate,
            mpdu_bytes: bytes,
            preamble: Preamble::Long,
            starts_at,
            ends_at: starts_at + air.total(),
        }
    }

    #[test]
    fn strong_clean_frame_decodes() {
        let mut p = phy();
        let sig = signal(0, -60.0, 0, 546, PhyRate::R11);
        assert!(p.signal_start(&sig, sig.starts_at).locked);
        assert!(p.carrier_busy());
        let out = p
            .signal_end(sig.tx_id, sig.ends_at)
            .expect("locked frame yields outcome");
        assert_eq!(out.kind, RxOutcomeKind::Decoded);
        assert_eq!(out.source, NodeId(99));
        assert!(!p.carrier_busy());
        assert_eq!(p.counters().decoded, 1);
    }

    #[test]
    fn sub_cs_threshold_signal_is_not_locked_and_not_busy() {
        let mut p = phy();
        let sig = signal(0, -110.0, 0, 546, PhyRate::R11);
        assert!(!p.signal_start(&sig, sig.starts_at).locked);
        assert!(!p.carrier_busy(), "below CS threshold must stay idle");
        assert!(p.signal_end(sig.tx_id, sig.ends_at).is_none());
    }

    #[test]
    fn sensed_but_undecodable_11mbps_frame_fails_body() {
        // Power above the CS threshold but far below the CCK11 decode
        // level: the spread-spectrum PLCP survives (processing gain 11)
        // while the 11 Mb/s body is hopeless — "sensed but not decoded",
        // which the MAC answers with EIFS.
        let mut p = phy();
        let sig = signal(0, -98.5, 0, 546, PhyRate::R11);
        assert!(p.signal_start(&sig, sig.starts_at).locked);
        assert!(p.carrier_busy());
        let out = p.signal_end(sig.tx_id, sig.ends_at).expect("outcome");
        assert_ne!(out.kind, RxOutcomeKind::Decoded);
    }

    #[test]
    fn preamble_time_interference_gives_header_error() {
        // A weak lock whose preamble is drowned by a 25 dB stronger frame
        // (capture disabled) loses the PLCP itself.
        let cfg = RadioConfig {
            capture_enabled: false,
            ..RadioConfig::default()
        };
        let mut p = PhyState::new(cfg, SimRng::from_seed(9));
        let weak = signal(0, -85.0, 0, 546, PhyRate::R11);
        let strong = signal(1, -60.0, 20, 1024, PhyRate::R11);
        assert!(p.signal_start(&weak, weak.starts_at).locked);
        assert!(!p.signal_start(&strong, strong.starts_at).locked);
        let out = p.signal_end(weak.tx_id, weak.ends_at).expect("outcome");
        assert_eq!(out.kind, RxOutcomeKind::HeaderError);
        assert_eq!(p.counters().header_errors, 1);
    }

    #[test]
    fn weak_body_at_11mbps_strong_plcp_gives_body_error() {
        // SINR ~6 dB: DBPSK (PLCP) is fine, CCK11 is hopeless.
        let mut p = phy();
        let sig = signal(0, -90.5, 0, 546, PhyRate::R11);
        assert!(p.signal_start(&sig, sig.starts_at).locked);
        let out = p.signal_end(sig.tx_id, sig.ends_at).expect("outcome");
        assert_eq!(out.kind, RxOutcomeKind::BodyError);
        // The same power decodes fine at 1 Mb/s.
        let sig2 = signal(1, -90.5, 10_000, 546, PhyRate::R1);
        assert!(p.signal_start(&sig2, sig2.starts_at).locked);
        let out2 = p.signal_end(sig2.tx_id, sig2.ends_at).expect("outcome");
        assert_eq!(out2.kind, RxOutcomeKind::Decoded);
    }

    #[test]
    fn overlapping_equal_power_frames_collide() {
        let mut p = phy();
        let a = signal(0, -70.0, 0, 1024, PhyRate::R11);
        let b = signal(1, -70.0, 100, 1024, PhyRate::R11);
        assert!(p.signal_start(&a, a.starts_at).locked);
        // b arrives during a's body: no capture (same power), pure
        // interference at SINR 0 dB.
        assert!(!p.signal_start(&b, b.starts_at).locked);
        let out = p.signal_end(a.tx_id, a.ends_at).expect("outcome");
        assert_ne!(
            out.kind,
            RxOutcomeKind::Decoded,
            "0 dB SINR body must corrupt"
        );
        assert!(
            p.signal_end(b.tx_id, b.ends_at).is_none(),
            "b was never locked"
        );
        assert_eq!(p.counters().missed_preambles, 1);
    }

    #[test]
    fn capture_during_preamble_steals_lock() {
        let mut p = phy();
        let weak = signal(0, -85.0, 0, 1024, PhyRate::R11);
        let strong = signal(1, -60.0, 50, 546, PhyRate::R11); // +25 dB, within 192 µs preamble
        assert!(p.signal_start(&weak, weak.starts_at).locked);
        assert!(
            p.signal_start(&strong, strong.starts_at).locked,
            "capture expected"
        );
        assert_eq!(p.locked_on(), Some(TxId(1)));
        assert_eq!(p.counters().captures, 1);
        // The strong frame decodes despite the weak one underneath.
        let out = p.signal_end(strong.tx_id, strong.ends_at).expect("outcome");
        assert_eq!(out.kind, RxOutcomeKind::Decoded);
        // The abandoned weak frame produces no outcome.
        assert!(p.signal_end(weak.tx_id, weak.ends_at).is_none());
    }

    #[test]
    fn capture_after_preamble_does_not_steal() {
        let mut p = phy();
        let weak = signal(0, -85.0, 0, 1024, PhyRate::R11);
        let strong = signal(1, -60.0, 300, 546, PhyRate::R11); // past 192 µs preamble
        assert!(p.signal_start(&weak, weak.starts_at).locked);
        assert!(!p.signal_start(&strong, strong.starts_at).locked);
        assert_eq!(p.locked_on(), Some(TxId(0)));
    }

    #[test]
    fn capture_can_be_disabled() {
        let cfg = RadioConfig {
            capture_enabled: false,
            ..RadioConfig::default()
        };
        let mut p = PhyState::new(cfg, SimRng::from_seed(9));
        let weak = signal(0, -85.0, 0, 1024, PhyRate::R11);
        let strong = signal(1, -60.0, 50, 546, PhyRate::R11);
        assert!(p.signal_start(&weak, weak.starts_at).locked);
        assert!(!p.signal_start(&strong, strong.starts_at).locked);
    }

    #[test]
    fn transmitting_station_ignores_preambles_but_keeps_energy() {
        let mut p = phy();
        let now = SimTime::from_micros(0);
        p.begin_tx(now + desim::SimDuration::from_micros(500), now);
        assert!(p.carrier_busy());
        assert!(p.is_transmitting());
        let sig = signal(0, -60.0, 10, 546, PhyRate::R11);
        assert!(!p.signal_start(&sig, sig.starts_at).locked);
        p.end_tx(now + desim::SimDuration::from_micros(500));
        assert!(!p.is_transmitting());
        // Energy of the missed frame still holds CS busy.
        assert!(p.carrier_busy());
        assert!(p.signal_end(sig.tx_id, sig.ends_at).is_none());
        assert!(!p.carrier_busy());
    }

    #[test]
    fn begin_tx_aborts_reception() {
        let mut p = phy();
        let sig = signal(0, -60.0, 0, 1024, PhyRate::R11);
        assert!(p.signal_start(&sig, sig.starts_at).locked);
        p.begin_tx(SimTime::from_micros(400), SimTime::from_micros(100));
        assert_eq!(p.locked_on(), None);
        assert!(
            p.signal_end(sig.tx_id, sig.ends_at).is_none(),
            "aborted rx yields nothing"
        );
    }

    #[test]
    fn airtime_accounting_splits_by_mode() {
        let mut p = phy();
        // 0..1000 µs idle, then a 546-byte 11 Mb/s frame (192+397 = 589 µs rx).
        let sig = signal(0, -60.0, 1_000, 546, PhyRate::R11);
        p.signal_start(&sig, sig.starts_at);
        p.signal_end(sig.tx_id, sig.ends_at);
        // Then transmit 300 µs.
        let t0 = sig.ends_at;
        p.begin_tx(t0 + desim::SimDuration::from_micros(300), t0);
        p.end_tx(t0 + desim::SimDuration::from_micros(300));
        let a = p.airtime();
        assert_eq!(a.idle_ns, 1_000_000, "1 ms idle before the frame");
        assert_eq!(a.rx_ns, (sig.ends_at - sig.starts_at).as_nanos());
        assert_eq!(a.tx_ns, 300_000);
        assert_eq!(a.busy_ns, 0);
        assert!((a.rx_fraction() - a.rx_ns as f64 / a.total_ns() as f64).abs() < 1e-12);
        // Folding in a tail span while idle grows only the idle bucket.
        p.account_airtime(t0 + desim::SimDuration::from_micros(800));
        assert_eq!(p.airtime().idle_ns, 1_500_000);
    }

    #[test]
    fn sub_threshold_energy_counts_as_idle_above_as_busy() {
        let mut p = phy();
        // A sub-CS-threshold signal: not busy.
        let weak = signal(0, -110.0, 0, 546, PhyRate::R1);
        p.signal_start(&weak, weak.starts_at);
        p.account_airtime(SimTime::from_micros(500));
        assert_eq!(p.airtime().busy_ns, 0);
        assert_eq!(p.airtime().idle_ns, 500_000);
        p.signal_end(weak.tx_id, weak.ends_at);
        // A sensed-but-missed frame (arrives while transmitting) leaves
        // energy that counts as busy after tx ends.
        let t0 = weak.ends_at;
        p.begin_tx(t0 + desim::SimDuration::from_micros(100), t0);
        let mid = signal(1, -60.0, t0.as_micros() + 50, 546, PhyRate::R11);
        p.signal_start(&mid, mid.starts_at);
        p.end_tx(t0 + desim::SimDuration::from_micros(100));
        let busy_before = p.airtime().busy_ns;
        p.account_airtime(t0 + desim::SimDuration::from_micros(400));
        assert_eq!(
            p.airtime().busy_ns - busy_before,
            300_000,
            "energy holds CS busy"
        );
    }

    #[test]
    fn interference_only_during_overlap_usually_spares_short_overlap() {
        // A strong frame overlapped only briefly by an equal-power
        // interferer loses only the overlapped bits; with just 1% of the
        // body overlapped at 0 dB SINR the frame still almost surely dies
        // at 0.5 BER — so instead verify the complement: interference
        // *after* the frame ended has no effect.
        let mut p = phy();
        let a = signal(0, -60.0, 0, 546, PhyRate::R11);
        assert!(p.signal_start(&a, a.starts_at).locked);
        let out = p.signal_end(a.tx_id, a.ends_at).expect("outcome");
        assert_eq!(out.kind, RxOutcomeKind::Decoded);
        let b = signal(1, -60.0, 1_000, 546, PhyRate::R11);
        let _ = p.signal_start(&b, b.starts_at);
        assert!(
            p.signal_end(b.tx_id, b.ends_at).is_some(),
            "b locked after a ended"
        );
    }

    /// Reference model of the pre-SoA arrival store: one `Vec` of
    /// `(TxId, power)` tuples plus the identical Neumaier two-sum, and the
    /// identical lock/capture comparisons. The SoA lanes must stay
    /// bitwise-equal to this model under arbitrary interleavings — which
    /// makes every decision the PHY derives from them byte-identical too.
    struct TupleModel {
        arriving: Vec<(TxId, f64)>,
        sum: f64,
        comp: f64,
    }

    impl TupleModel {
        fn add(&mut self, x: f64) {
            let t = self.sum + x;
            self.comp += if self.sum.abs() >= x.abs() {
                (self.sum - t) + x
            } else {
                (x - t) + self.sum
            };
            self.sum = t;
        }

        fn start(&mut self, tx_id: TxId, power: f64) {
            match self.arriving.binary_search_by_key(&tx_id, |e| e.0) {
                Err(i) => self.arriving.insert(i, (tx_id, power)),
                Ok(i) => {
                    let old = std::mem::replace(&mut self.arriving[i].1, power);
                    self.add(-old);
                }
            }
            self.add(power);
        }

        fn end(&mut self, tx_id: TxId) {
            if let Ok(i) = self.arriving.binary_search_by_key(&tx_id, |e| e.0) {
                let (_, power) = self.arriving.remove(i);
                if self.arriving.is_empty() {
                    self.sum = 0.0;
                    self.comp = 0.0;
                } else {
                    self.add(-power);
                }
            }
        }
    }

    #[test]
    fn soa_lanes_match_tuple_model_and_decisions_bitwise() {
        // Randomized add/remove/lock interleavings: the SoA store must
        // (a) keep its compensated sum within 1e-12 of a naive re-sum,
        // (b) hold lanes bitwise-equal to the Vec-of-tuples model, and
        // (c) make byte-identical lock/capture decisions — replicated
        // here from the model's compared quantities alone.
        let cfg = RadioConfig::default();
        let cs_dbm = cfg.cs_threshold.0;
        let capture_margin = cfg.capture_margin.to_linear();
        let mut rng = SimRng::from_seed(0x50a_2026);
        for _case in 0..100 {
            let mut p = phy();
            let mut model = TupleModel {
                arriving: Vec::new(),
                sum: 0.0,
                comp: 0.0,
            };
            // (tx_id, rx_power_dbm, plcp_end, ends_at) of the model's lock.
            let mut model_lock: Option<(TxId, f64, SimTime, SimTime)> = None;
            let mut active: Vec<(u64, f64)> = Vec::new();
            let mut next_id = 0u64;
            let mut now_us = 0u64;
            for _step in 0..80 {
                now_us += 1 + rng.gen_range_u32(0, 120) as u64;
                let now = SimTime::from_micros(now_us);
                // Drop the model's lock when its frame has left the air
                // (signal_end below resets the real PHY the same way).
                let start = active.is_empty() || rng.gen_bool(0.55);
                if start {
                    let dbm = -110.0 + 70.0 * rng.gen_f64();
                    let sig = signal(next_id, dbm, now_us, 546, PhyRate::R11);
                    let ind = p.signal_start(&sig, now);
                    let power = sig.rx_power.to_milliwatts().0;
                    model.start(sig.tx_id, power);
                    // Replicate the decision from compared quantities.
                    let detectable = dbm >= cs_dbm;
                    let expect_locked = match model_lock {
                        None => detectable,
                        Some((_, lock_dbm, plcp_end, _)) => {
                            detectable
                                && now < plcp_end
                                && power >= Dbm(lock_dbm).to_milliwatts().0 * capture_margin
                        }
                    };
                    assert_eq!(ind.locked, expect_locked, "lock/capture decision diverged");
                    if ind.locked {
                        model_lock =
                            Some((sig.tx_id, dbm, now + sig.preamble.duration(), sig.ends_at));
                    }
                    active.push((next_id, dbm));
                    next_id += 1;
                } else {
                    let i = rng.gen_range_u32(0, active.len() as u32) as usize;
                    let (id, _) = active.swap_remove(i);
                    let out = p.signal_end(TxId(id), now);
                    model.end(TxId(id));
                    let was_locked = model_lock.map(|(t, ..)| t) == Some(TxId(id));
                    assert_eq!(out.is_some(), was_locked, "outcome presence diverged");
                    if was_locked {
                        model_lock = None;
                    }
                }
                // Lanes bitwise-equal to the tuple model.
                assert_eq!(p.arriving_ids.len(), model.arriving.len());
                for (k, &(id, w)) in model.arriving.iter().enumerate() {
                    assert_eq!(p.arriving_ids[k], id);
                    assert_eq!(p.arriving_powers[k].to_bits(), w.to_bits());
                }
                assert_eq!(p.arriving_sum.to_bits(), model.sum.to_bits());
                assert_eq!(p.arriving_comp.to_bits(), model.comp.to_bits());
                // Compensated sum within 1e-12 of a naive re-sum.
                let naive: f64 = model.arriving.iter().map(|e| e.1).sum();
                let inc = p.total_arriving().0;
                if model.arriving.is_empty() {
                    assert_eq!(inc, 0.0);
                } else {
                    assert!((inc - naive).abs() <= naive * 1e-12);
                }
                // Memoized CS flag equals the from-scratch decision.
                assert_eq!(
                    p.energy_busy,
                    model.sum + model.comp >= cfg.cs_threshold.to_milliwatts().0
                );
            }
        }
    }

    #[test]
    fn incremental_arriving_sum_tracks_naive_resum() {
        // Property: across randomized signal start/end interleavings the
        // running compensated accumulator stays within a relative 1e-12
        // of a fresh re-sum over the arrival set (each individually
        // rounds at ~2^-52 per element), and pins to exactly 0.0
        // whenever the antenna goes quiet.
        let mut rng = SimRng::from_seed(0x801_2001);
        for _case in 0..200 {
            let mut p = phy();
            let mut active: Vec<(u64, SimTime)> = Vec::new();
            let mut next_id = 0u64;
            let mut now_us = 0u64;
            for _step in 0..60 {
                now_us += 1 + rng.gen_range_u32(0, 50) as u64;
                let start = active.is_empty() || rng.gen_bool(0.55);
                if start {
                    // Powers spanning ~70 dB of dynamic range so the
                    // accumulator sees both absorption (tiny + huge) and
                    // cancellation (removing the dominant term).
                    let dbm = -110.0 + 70.0 * rng.gen_f64();
                    let sig = signal(next_id, dbm, now_us, 546, PhyRate::R11);
                    let _ = p.signal_start(&sig, sig.starts_at);
                    active.push((next_id, sig.ends_at));
                    next_id += 1;
                } else {
                    let i = rng.gen_range_u32(0, active.len() as u32) as usize;
                    let (id, _) = active.swap_remove(i);
                    let _ = p.signal_end(TxId(id), SimTime::from_micros(now_us));
                }
                let naive: f64 = p.arriving_powers.iter().sum();
                let inc = p.total_arriving().0;
                if p.arriving_ids.is_empty() {
                    assert_eq!(inc, 0.0, "quiet antenna must read exactly zero");
                } else {
                    assert!(
                        (inc - naive).abs() <= naive * 1e-12,
                        "incremental {inc:e} drifted from naive {naive:e} \
                         with {} arrivals",
                        p.arriving_ids.len()
                    );
                }
                assert_eq!(p.arriving_ids.len(), p.arriving_powers.len());
            }
        }
    }
}
