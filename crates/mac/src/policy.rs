//! Pluggable contention-window (backoff) policies.
//!
//! The DCF state machine in [`crate::DcfMac`] owns *when* a backoff is
//! drawn and *which* RNG substream the draw comes from; a
//! [`BackoffPolicy`] only decides **how wide the contention window is**
//! at each of the two decision points the standard defines:
//!
//! - after a failed attempt (CTS/ACK timeout) — classically the window
//!   doubles, and
//! - after the current frame completes (delivered or dropped) —
//!   classically the window resets to CWmin.
//!
//! Three policies ship:
//!
//! - [`Beb`] — binary exponential backoff, byte-identical to the
//!   hard-wired ladder this trait was extracted from (proven by the
//!   golden-trace suite);
//! - [`FixedCw`] — a constant window, the classic ablation for
//!   separating contention-window dynamics from everything else;
//! - [`CtAdapt`] — a Serrano-style proportional controller
//!   (arXiv:1203.2970) that steers the window so the observed
//!   per-attempt failure rate tracks a target. The same timeout events
//!   that increment `MacCounters::retries` drive its estimator.
//!
//! # Determinism contract
//!
//! A policy must be a **pure function of its own observed history**: it
//! may keep state, but it must not draw randomness at all. The single
//! `gen_range_u32(0, cw)` draw per backoff stays inside `DcfMac`, on the
//! station's own labeled `mac/{i}` substream, so swapping policies never
//! perturbs any other station's random sequence. A policy that needs
//! randomization must be given its own labeled substream at
//! construction — never an extra draw from an existing stream.
//!
//! # Examples
//!
//! Drive a controller directly and watch it widen the window under
//! sustained collisions, then relax once the channel clears:
//!
//! ```
//! use dot11_mac::{BackoffPolicy, CtAdapt, CtAdaptConfig, MacTiming};
//!
//! let timing = MacTiming::dsss();
//! let mut policy = CtAdapt::new(CtAdaptConfig::default());
//! let mut cw = timing.cw_min;
//! // A long burst of timeouts: every attempt fails.
//! for _ in 0..256 {
//!     cw = policy.on_failure(cw, &timing);
//! }
//! assert!(cw > timing.cw_min, "controller widened the window");
//! // The channel clears: every frame now completes first try.
//! for _ in 0..2048 {
//!     cw = policy.on_complete(cw, true, &timing);
//! }
//! assert_eq!(cw, timing.cw_min, "controller relaxed back to CWmin");
//! ```

use crate::timing::MacTiming;

/// How a station's contention window evolves.
///
/// Implementations are stepped by [`crate::DcfMac`] at the two points
/// where 802.11 re-draws a backoff; the return value becomes the new
/// window and the MAC draws uniformly in `[0, cw)` from its own RNG
/// substream. The module docs above spell out the determinism contract
/// and walk a worked example.
pub trait BackoffPolicy {
    /// Short static name used in sweep labels and cache keys.
    fn name(&self) -> &'static str;

    /// The window after a failed attempt (CTS or ACK timeout), given the
    /// window `cw` the attempt was drawn from.
    fn on_failure(&mut self, cw: u32, timing: &MacTiming) -> u32;

    /// The window after the current frame completes — `success` is true
    /// for a delivered frame, false for one dropped at the retry limit.
    fn on_complete(&mut self, cw: u32, success: bool, timing: &MacTiming) -> u32;
}

/// Binary exponential backoff — the 802.11 default and the paper's
/// Table 1 ladder: double toward CWmax on failure, reset to CWmin on
/// completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Beb;

impl BackoffPolicy for Beb {
    fn name(&self) -> &'static str {
        "beb"
    }

    fn on_failure(&mut self, cw: u32, timing: &MacTiming) -> u32 {
        // Saturating: a window of 2³¹ or more (reachable through a CWmax
        // of up to `u32::MAX`) must clamp to CWmax, not wrap to 0.
        cw.saturating_mul(2).min(timing.cw_max)
    }

    fn on_complete(&mut self, _cw: u32, _success: bool, timing: &MacTiming) -> u32 {
        timing.cw_min
    }
}

/// A constant contention window: no doubling, no reset. Isolates the
/// cost of contention-window dynamics from the rest of DCF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedCw {
    cw: u32,
}

impl FixedCw {
    /// A fixed window of `cw` slots (clamped to ≥ 1 — the MAC draws
    /// uniformly in `[0, cw)`).
    pub fn new(cw: u32) -> FixedCw {
        FixedCw { cw: cw.max(1) }
    }
}

impl BackoffPolicy for FixedCw {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn on_failure(&mut self, _cw: u32, _timing: &MacTiming) -> u32 {
        self.cw
    }

    fn on_complete(&mut self, _cw: u32, _success: bool, _timing: &MacTiming) -> u32 {
        self.cw
    }
}

/// Parameters of the [`CtAdapt`] proportional controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtAdaptConfig {
    /// Target per-attempt failure probability the controller steers
    /// toward (Serrano et al. aim near the collision rate that maximizes
    /// DCF throughput; 0.1 is a sensible default at small n).
    pub target: f64,
    /// Proportional gain applied to the error `observed − target` as a
    /// multiplicative window update per control step.
    pub gain: f64,
    /// Attempts per control step — the estimator window.
    pub window: u32,
}

impl Default for CtAdaptConfig {
    fn default() -> CtAdaptConfig {
        CtAdaptConfig {
            target: 0.1,
            gain: 4.0,
            window: 16,
        }
    }
}

/// A Serrano-style control-theoretic window adapter (arXiv:1203.2970).
///
/// Counts attempts and failures (the same events that feed
/// `MacCounters::retries`); every [`CtAdaptConfig::window`] attempts it
/// applies one proportional step
/// `cw ← cw · (1 + gain · (observed − target))`, clamped to
/// `[CWmin, CWmax]`. Unlike BEB the window is *persistent* — it is not
/// reset after a success, so the station keeps the operating point the
/// controller found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtAdapt {
    cfg: CtAdaptConfig,
    /// Controller state as a continuous window; 0.0 until the first
    /// observation seeds it from the MAC's current window.
    cw: f64,
    attempts: u32,
    failures: u32,
}

impl CtAdapt {
    /// A fresh controller; the window seeds itself from the MAC's
    /// current CW (CWmin at start-of-day) on the first observation.
    pub fn new(cfg: CtAdaptConfig) -> CtAdapt {
        CtAdapt {
            cfg,
            cw: 0.0,
            attempts: 0,
            failures: 0,
        }
    }

    fn observe(&mut self, cw: u32, failed: bool, timing: &MacTiming) -> u32 {
        if self.cw == 0.0 {
            self.cw = f64::from(cw);
        }
        self.attempts += 1;
        self.failures += u32::from(failed);
        if self.attempts >= self.cfg.window.max(1) {
            let observed = f64::from(self.failures) / f64::from(self.attempts);
            let error = observed - self.cfg.target;
            self.cw = (self.cw * (1.0 + self.cfg.gain * error))
                .clamp(f64::from(timing.cw_min), f64::from(timing.cw_max));
            self.attempts = 0;
            self.failures = 0;
        }
        self.cw.round() as u32
    }
}

impl BackoffPolicy for CtAdapt {
    fn name(&self) -> &'static str {
        "ctadapt"
    }

    fn on_failure(&mut self, cw: u32, timing: &MacTiming) -> u32 {
        self.observe(cw, true, timing)
    }

    fn on_complete(&mut self, cw: u32, success: bool, timing: &MacTiming) -> u32 {
        self.observe(cw, !success, timing)
    }
}

/// Copyable policy selector stored in [`crate::MacConfig`] — the sweep
/// layer hashes and cross-products these, and each `World` node
/// instantiates its live state via [`BackoffConfig::instantiate`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum BackoffConfig {
    /// Binary exponential backoff (the default; byte-identical to the
    /// pre-trait hard-wired ladder).
    #[default]
    Beb,
    /// A constant window of the given width, slots.
    FixedCw(u32),
    /// The proportional controller.
    CtAdapt(CtAdaptConfig),
}

impl BackoffConfig {
    /// Builds the live per-station policy state.
    pub fn instantiate(&self) -> AnyPolicy {
        match *self {
            BackoffConfig::Beb => AnyPolicy::Beb(Beb),
            BackoffConfig::FixedCw(cw) => AnyPolicy::FixedCw(FixedCw::new(cw)),
            BackoffConfig::CtAdapt(cfg) => AnyPolicy::CtAdapt(CtAdapt::new(cfg)),
        }
    }

    /// The policy's short name (matches [`BackoffPolicy::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            BackoffConfig::Beb => "beb",
            BackoffConfig::FixedCw(_) => "fixed",
            BackoffConfig::CtAdapt(_) => "ctadapt",
        }
    }
}

/// Enum dispatcher over the shipped policies, so `DcfMac` (and the
/// per-cell `MacConfig` it copies from) stays `Copy` with no boxed
/// trait object on the per-event hot path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnyPolicy {
    /// See [`Beb`].
    Beb(Beb),
    /// See [`FixedCw`].
    FixedCw(FixedCw),
    /// See [`CtAdapt`].
    CtAdapt(CtAdapt),
}

impl BackoffPolicy for AnyPolicy {
    fn name(&self) -> &'static str {
        match self {
            AnyPolicy::Beb(p) => p.name(),
            AnyPolicy::FixedCw(p) => p.name(),
            AnyPolicy::CtAdapt(p) => p.name(),
        }
    }

    fn on_failure(&mut self, cw: u32, timing: &MacTiming) -> u32 {
        match self {
            AnyPolicy::Beb(p) => p.on_failure(cw, timing),
            AnyPolicy::FixedCw(p) => p.on_failure(cw, timing),
            AnyPolicy::CtAdapt(p) => p.on_failure(cw, timing),
        }
    }

    fn on_complete(&mut self, cw: u32, success: bool, timing: &MacTiming) -> u32 {
        match self {
            AnyPolicy::Beb(p) => p.on_complete(cw, success, timing),
            AnyPolicy::FixedCw(p) => p.on_complete(cw, success, timing),
            AnyPolicy::CtAdapt(p) => p.on_complete(cw, success, timing),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beb_matches_the_table1_ladder() {
        let t = MacTiming::dsss();
        let mut p = Beb;
        let mut cw = t.cw_min;
        let ladder: Vec<u32> = (0..7)
            .map(|_| {
                cw = p.on_failure(cw, &t);
                cw
            })
            .collect();
        assert_eq!(ladder, vec![64, 128, 256, 512, 1024, 1024, 1024]);
        assert_eq!(p.on_complete(cw, true, &t), 32);
        assert_eq!(p.on_complete(cw, false, &t), 32);
    }

    /// Doubling never leaves `[cw_min, cw_max]`, up to the widest windows
    /// a `u32` CWmax admits.
    #[test]
    fn beb_doubling_stays_within_the_window_range() {
        for (lo, hi) in [
            (32, 1024),
            (1, u32::MAX),
            (1 << 30, u32::MAX),
            (7, (1 << 31) + 5),
        ] {
            let t = MacTiming::dsss().with_cw(lo, hi);
            let mut p = Beb;
            let probes = [
                lo,
                lo + 1,
                hi / 2,
                hi / 2 + 1,
                1 << 31,
                (1 << 31) + 1,
                hi - 1,
                hi,
            ];
            for cw in probes.into_iter().filter(|cw| (lo..=hi).contains(cw)) {
                let next = p.on_failure(cw, &t);
                assert!(
                    (lo..=hi).contains(&next),
                    "cw {cw} doubled to {next}, outside [{lo}, {hi}]"
                );
                let doubled = if cw > hi / 2 { hi } else { 2 * cw };
                assert_eq!(next, doubled, "cw {cw} in [{lo}, {hi}]");
            }
            let mut cw = lo;
            for _ in 0..40 {
                cw = p.on_failure(cw, &t);
                assert!((lo..=hi).contains(&cw));
            }
            assert_eq!(cw, hi, "the ladder must reach CWmax");
        }
    }

    #[test]
    fn fixed_cw_never_moves() {
        let t = MacTiming::dsss();
        let mut p = FixedCw::new(64);
        assert_eq!(p.on_failure(64, &t), 64);
        assert_eq!(p.on_complete(64, true, &t), 64);
        assert_eq!(p.on_complete(64, false, &t), 64);
        // Degenerate width is clamped so the uniform draw stays valid.
        assert_eq!(FixedCw::new(0), FixedCw::new(1));
    }

    #[test]
    fn ct_adapt_widens_under_collisions_and_relaxes_when_clear() {
        let t = MacTiming::dsss();
        let mut p = CtAdapt::new(CtAdaptConfig::default());
        let mut cw = t.cw_min;
        for _ in 0..8 * 16 {
            cw = p.on_failure(cw, &t);
        }
        assert!(cw > 256, "sustained failures must widen the window: {cw}");
        for _ in 0..64 * 16 {
            cw = p.on_complete(cw, true, &t);
        }
        assert_eq!(cw, t.cw_min, "a clear channel must relax the window");
    }

    #[test]
    fn ct_adapt_is_clamped_to_the_configured_window_range() {
        let t = MacTiming::dsss();
        let mut p = CtAdapt::new(CtAdaptConfig::default());
        let mut cw = t.cw_min;
        for _ in 0..1024 {
            cw = p.on_failure(cw, &t);
            assert!(cw <= t.cw_max);
        }
        assert_eq!(cw, t.cw_max);
        for _ in 0..4096 {
            cw = p.on_complete(cw, true, &t);
            assert!(cw >= t.cw_min);
        }
    }

    #[test]
    fn selector_instantiates_matching_state() {
        assert_eq!(BackoffConfig::default(), BackoffConfig::Beb);
        assert_eq!(BackoffConfig::Beb.instantiate().name(), "beb");
        assert_eq!(BackoffConfig::FixedCw(8).instantiate().name(), "fixed");
        let ct = BackoffConfig::CtAdapt(CtAdaptConfig::default());
        assert_eq!(ct.instantiate().name(), "ctadapt");
        assert_eq!(ct.name(), "ctadapt");
    }
}
