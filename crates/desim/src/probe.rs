//! Zero-cost-when-disabled wall-clock profiling scopes.
//!
//! The engine's perf trajectory is tracked as ns/event medians, but a
//! median cannot say *where* a nanosecond went. This module adds the
//! missing attribution layer: a driver (the `dot11-adhoc` world) declares
//! a table of named scopes, wraps each hot region in a
//! [`Probe::tick`]/[`Probe::record`] pair, and a [`WallProbe`] accumulates
//! a per-scope `{count, total, min, max}` histogram of wall time.
//!
//! The cost model mirrors `TraceSink`: drivers are generic over
//! `P: Probe`, and the default [`NoProbe`] has `ENABLED = false` with
//! empty inline `tick`/`record` bodies, so every instrumentation site
//! compiles away at monomorphization time — an unprofiled simulation pays
//! zero cost, verified by the workspace's release-only probe test.
//! A [`WallProbe`] can additionally be constructed *disarmed*
//! ([`WallProbe::off`]): the sites stay compiled in but `tick` returns
//! `None` and `record` does nothing, which is the "enabled but off"
//! configuration the overhead gate compares against the compiled-out
//! build.
//!
//! Scopes are plain indices into the driver-declared name table, so the
//! probe stays below every protocol crate in the dependency graph and
//! recording is two array ops plus a clock read.

use std::time::Instant;

/// A consumer of timing scopes (see module docs).
///
/// Drivers call [`Probe::tick`] before a region and
/// [`Probe::record`] after it with the tick value; the probe charges the
/// elapsed wall time to the scope index. `Tick` is whatever the probe
/// needs to measure a span ([`Instant`] for [`WallProbe`], `()` for
/// [`NoProbe`]).
pub trait Probe {
    /// Whether this probe observes scopes at all. Leave at the default
    /// `true` for any probe that does work.
    const ENABLED: bool = true;

    /// A timestamp captured at region entry, returned to [`Probe::record`].
    type Tick: Copy;

    /// Captures a timestamp at region entry.
    fn tick(&self) -> Self::Tick;

    /// Charges the time since `since` to scope index `scope`.
    fn record(&mut self, scope: usize, since: Self::Tick);

    /// The accumulated histogram, if this probe measured anything.
    fn report(&self) -> Option<ProbeReport> {
        None
    }
}

/// The default probe: measures nothing, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;

    type Tick = ();

    #[inline(always)]
    fn tick(&self) {}

    #[inline(always)]
    fn record(&mut self, _scope: usize, _since: ()) {}
}

/// One scope's accumulated wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeStats {
    /// The scope's name from the driver's scope table.
    pub name: &'static str,
    /// Regions recorded.
    pub count: u64,
    /// Total wall time across all regions, nanoseconds.
    pub total_ns: u64,
    /// Shortest region, nanoseconds (0 when `count` is 0).
    pub min_ns: u64,
    /// Longest region, nanoseconds.
    pub max_ns: u64,
}

impl ScopeStats {
    fn empty(name: &'static str) -> ScopeStats {
        ScopeStats {
            name,
            count: 0,
            total_ns: 0,
            min_ns: 0,
            max_ns: 0,
        }
    }

    fn add(&mut self, ns: u64) {
        self.min_ns = if self.count == 0 {
            ns
        } else {
            self.min_ns.min(ns)
        };
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Mean region length, nanoseconds (0 when nothing was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count > 0 {
            self.total_ns as f64 / self.count as f64
        } else {
            0.0
        }
    }
}

/// A finished probe's per-scope histogram, in scope-table order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProbeReport {
    /// Every scope the probe was constructed with, including unvisited
    /// ones (`count == 0`), in declaration order.
    pub scopes: Vec<ScopeStats>,
}

impl ProbeReport {
    /// Looks a scope up by name.
    pub fn scope(&self, name: &str) -> Option<&ScopeStats> {
        self.scopes.iter().find(|s| s.name == name)
    }

    /// Total recorded wall time over `names`, nanoseconds. Names missing
    /// from the table contribute nothing.
    pub fn total_ns_of(&self, names: &[&str]) -> u64 {
        names
            .iter()
            .filter_map(|n| self.scope(n))
            .map(|s| s.total_ns)
            .sum()
    }
}

/// A wall-clock probe over a driver-declared scope table.
///
/// Construct armed with [`WallProbe::new`] or disarmed with
/// [`WallProbe::off`] (sites compiled in, nothing measured — the
/// configuration the overhead gate benchmarks).
#[derive(Debug, Clone)]
pub struct WallProbe {
    armed: bool,
    scopes: Vec<ScopeStats>,
}

impl WallProbe {
    /// An armed probe over `names`; scope indices follow table order.
    pub fn new(names: &'static [&'static str]) -> WallProbe {
        WallProbe {
            armed: true,
            scopes: names.iter().map(|n| ScopeStats::empty(n)).collect(),
        }
    }

    /// A disarmed probe: instrumentation sites stay compiled in
    /// (`ENABLED` is `true`) but every tick returns `None`, so nothing is
    /// measured and [`Probe::report`] returns `None`.
    pub fn off(names: &'static [&'static str]) -> WallProbe {
        WallProbe {
            armed: false,
            scopes: names.iter().map(|n| ScopeStats::empty(n)).collect(),
        }
    }

    /// Whether this probe is measuring.
    pub fn is_armed(&self) -> bool {
        self.armed
    }
}

impl Probe for WallProbe {
    type Tick = Option<Instant>;

    #[inline]
    fn tick(&self) -> Option<Instant> {
        if self.armed {
            Some(Instant::now())
        } else {
            None
        }
    }

    #[inline]
    fn record(&mut self, scope: usize, since: Option<Instant>) {
        if let Some(t0) = since {
            self.scopes[scope].add(t0.elapsed().as_nanos() as u64);
        }
    }

    fn report(&self) -> Option<ProbeReport> {
        self.armed.then(|| ProbeReport {
            scopes: self.scopes.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCOPES: [&str; 3] = ["alpha", "beta", "gamma"];

    #[test]
    fn no_probe_is_disabled_and_reports_nothing() {
        fn enabled<P: Probe>(_: &P) -> bool {
            P::ENABLED
        }
        // Exercised generically, as `World` uses it — the unit `Tick` is
        // opaque here.
        fn visit<P: Probe>(p: &mut P) {
            let t = p.tick();
            p.record(0, t);
        }
        let mut p = NoProbe;
        assert!(!enabled(&p));
        visit(&mut p);
        assert!(p.report().is_none());
    }

    #[test]
    fn wall_probe_accumulates_per_scope() {
        let mut p = WallProbe::new(&SCOPES);
        assert!(p.is_armed());
        for _ in 0..3 {
            let t = p.tick();
            std::hint::black_box(());
            p.record(1, t);
        }
        let t = p.tick();
        p.record(2, t);
        let report = p.report().expect("armed probe reports");
        assert_eq!(report.scopes.len(), 3);
        let beta = report.scope("beta").expect("beta exists");
        assert_eq!(beta.count, 3);
        assert!(beta.total_ns >= beta.min_ns.saturating_mul(3) || beta.total_ns == 0);
        assert!(beta.min_ns <= beta.max_ns);
        assert_eq!(report.scope("alpha").expect("alpha").count, 0);
        assert_eq!(report.scope("gamma").expect("gamma").count, 1);
        assert!(report.scope("missing").is_none());
    }

    #[test]
    fn disarmed_probe_measures_and_reports_nothing() {
        let mut p = WallProbe::off(&SCOPES);
        assert!(!p.is_armed());
        let t = p.tick();
        assert!(t.is_none());
        p.record(0, t);
        assert!(p.report().is_none());
    }

    #[test]
    fn report_totals_over_names() {
        let mut p = WallProbe::new(&SCOPES);
        let t = p.tick();
        p.record(0, t);
        let t = p.tick();
        p.record(1, t);
        let r = p.report().expect("report");
        let all = r.total_ns_of(&["alpha", "beta", "gamma", "missing"]);
        let sum: u64 = r.scopes.iter().map(|s| s.total_ns).sum();
        assert_eq!(all, sum);
    }

    #[test]
    fn scope_stats_track_min_max_mean() {
        let mut s = ScopeStats::empty("x");
        assert_eq!(s.mean_ns(), 0.0);
        s.add(10);
        s.add(2);
        s.add(30);
        assert_eq!((s.count, s.total_ns, s.min_ns, s.max_ns), (3, 42, 2, 30));
        assert!((s.mean_ns() - 14.0).abs() < 1e-12);
    }
}
