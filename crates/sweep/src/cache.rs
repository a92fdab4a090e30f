//! Content-addressed run caching.
//!
//! Every finished cell persists as one JSON line in
//! `<cache_dir>/<cell-key>.json`, where the filename is the cell's
//! [`CellKey`] — a stable hash of (scenario, MAC axis,
//! seed, run params). A re-run looks the key up before simulating: cache hits cost
//! one file read, and a fully warm sweep simulates **zero** worlds.
//!
//! Invariants the determinism tests pin:
//!
//! * a cache file's bytes depend only on the cell spec and its
//!   (deterministic) metrics — never on worker count or timing, so files
//!   written by `--jobs 1` and `--jobs 8` runs are byte-identical;
//! * floats are serialized with Rust's shortest-round-trip formatting and
//!   re-parsed bit-exactly, so a cached result aggregates identically to
//!   a recomputed one;
//! * entries carry a format-version tag; a mismatch (or any parse
//!   failure) is treated as a miss and the cell is recomputed, never an
//!   error.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::json;
use crate::report::CellMetrics;
use crate::spec::{CellKey, CellSpec};

/// The cache entry format version. Bump on any change to the entry
/// layout *or* to the engine-side numbers a cached cell carries (v1 → v2:
/// timer coalescing and signal batching shrank `events` and
/// `queue_high_water`; pre-coalescing entries must read as misses so
/// sweeps never mix old and new engine counts; v2 → v3: entries gained
/// the `chan_util`/`tx_util` airtime fractions, which v2 files lack;
/// v3 → v4: cell keys and group labels picked up the MAC axis —
/// policy/CW/retry/slot — so pre-axis entries must not serve axis-aware
/// lookups; v4 → v5: mobile recipes entered the scenario space and the
/// epoch-versioned medium landed — static results are bit-identical, but
/// the key space is re-salted in lockstep so the two version tags never
/// drift apart).
const FORMAT: &str = "dot11-sweep/v5";

/// A directory of cached cell results (see module docs).
#[derive(Debug, Clone)]
pub struct RunCache {
    dir: PathBuf,
}

impl RunCache {
    /// Opens (creating if needed) a cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<RunCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(RunCache { dir })
    }

    /// The directory this cache lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a cell's result lives at.
    pub fn path_for(&self, key: CellKey) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Looks a cell up. Any miss, version mismatch, stale key, parse
    /// failure or implausible value returns `None` — the caller simply
    /// recomputes. Implausible means a count that is not a whole number
    /// in `u64` range, a non-finite float, or per-flow arrays whose
    /// length is not the cell's flow count (an entry written by an older
    /// scenario recipe, say): nothing [`RunCache::store`] can have
    /// written for this cell.
    pub fn load(&self, spec: &CellSpec) -> Option<CellMetrics> {
        let key = spec.key();
        let text = std::fs::read_to_string(self.path_for(key)).ok()?;
        let value = json::parse(&text).ok()?;
        let obj = value.as_object()?;
        if json::get_str(obj, "version")? != FORMAT {
            return None;
        }
        if json::get_str(obj, "key")? != key.to_string() {
            return None;
        }
        let metrics = json::get(obj, "metrics")?.as_object()?;
        let finite = |name| json::get_f64(metrics, name).filter(|v| v.is_finite());
        let finite_array =
            |name| json::get_f64_array(metrics, name).filter(|vs| vs.iter().all(|v| v.is_finite()));
        let count = |name| json::get_f64(metrics, name).and_then(whole_count);
        let flows_kbps = finite_array("flows_kbps")?;
        let loss_rates = finite_array("loss_rates")?;
        let flows = spec.scenario.flow_count();
        if flows_kbps.len() != flows || loss_rates.len() != flows {
            return None;
        }
        Some(CellMetrics {
            flows_kbps,
            loss_rates,
            fairness: finite("fairness")?,
            chan_util: finite("chan_util")?,
            tx_util: finite("tx_util")?,
            events: count("events")?,
            queue_high_water: count("queue_high_water")?,
            sim_elapsed_ns: count("sim_elapsed_ns")?,
        })
    }

    /// The exact bytes stored for a cell — a pure function of the spec
    /// and metrics, which is what makes cache files comparable across
    /// runs and worker counts.
    pub fn entry_bytes(spec: &CellSpec, metrics: &CellMetrics) -> String {
        format!(
            "{{\"version\":\"{FORMAT}\",\"key\":\"{}\",\"scenario\":\"{}\",\"seed\":{},\
             \"duration_ns\":{},\"warmup_ns\":{},\"metrics\":{}}}\n",
            spec.key(),
            spec.group_label(),
            spec.seed,
            spec.params.duration.as_nanos(),
            spec.params.warmup.as_nanos(),
            metrics.to_json()
        )
    }

    /// Persists a cell's result. The write is atomic (temp file + rename)
    /// so concurrent workers — or concurrent sweeps sharing a cache dir —
    /// never expose a torn entry; the rename's last-writer-wins race is
    /// harmless because both writers produce identical bytes.
    pub fn store(
        &self,
        spec: &CellSpec,
        metrics: &CellMetrics,
        worker: usize,
    ) -> std::io::Result<()> {
        let key = spec.key();
        let tmp = self
            .dir
            .join(format!(".{key}.w{worker}.p{}.tmp", std::process::id()));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(Self::entry_bytes(spec, metrics).as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.path_for(key))
    }
}

/// `v` as a count, if it is one exactly: a whole number in `u64` range.
/// (An `as u64` cast would silently map negative, NaN and fractional
/// values onto some count instead.)
fn whole_count(v: f64) -> Option<u64> {
    // 2^64, the first whole number past u64::MAX.
    const LIMIT: f64 = 18_446_744_073_709_551_616.0;
    ((0.0..LIMIT).contains(&v) && v.fract() == 0.0).then_some(v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MacAxis, RunParams, SweepScenario};
    use desim::SimDuration;

    fn spec() -> CellSpec {
        CellSpec {
            scenario: SweepScenario::figure(7)[0],
            mac: MacAxis::table1(),
            seed: 42,
            params: RunParams {
                duration: SimDuration::from_secs(1),
                warmup: SimDuration::from_millis(100),
                threads: 1,
            },
        }
    }

    fn metrics() -> CellMetrics {
        CellMetrics {
            flows_kbps: vec![599.03680000001, 2714.0],
            loss_rates: vec![0.25, 0.0],
            fairness: 0.7512341,
            chan_util: 0.84218750000001,
            tx_util: 0.2109375,
            events: 123_456_789,
            queue_high_water: 77,
            sim_elapsed_ns: 20_000_000_000,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "dot11-sweep-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn store_then_load_round_trips_bit_exactly() {
        let cache = RunCache::open(tmp_dir("roundtrip")).expect("open cache");
        let (s, m) = (spec(), metrics());
        assert!(cache.load(&s).is_none(), "cold cache misses");
        cache.store(&s, &m, 0).expect("store");
        let back = cache.load(&s).expect("warm cache hits");
        assert_eq!(back, m, "floats survive the JSON round trip bit-exactly");
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn entry_bytes_are_a_pure_function() {
        let (s, m) = (spec(), metrics());
        assert_eq!(RunCache::entry_bytes(&s, &m), RunCache::entry_bytes(&s, &m));
        assert!(RunCache::entry_bytes(&s, &m).contains(&s.key().to_string()));
    }

    #[test]
    fn different_spec_is_a_miss() {
        let cache = RunCache::open(tmp_dir("miss")).expect("open cache");
        let (s, m) = (spec(), metrics());
        cache.store(&s, &m, 1).expect("store");
        let other = CellSpec { seed: 43, ..s };
        assert!(cache.load(&other).is_none());
        let other_axis = CellSpec {
            mac: MacAxis {
                cw_min: 8,
                ..MacAxis::table1()
            },
            ..s
        };
        assert!(cache.load(&other_axis).is_none(), "axis is part of the key");
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    /// Stores a valid entry for `spec()`, rewrites one field of its bytes
    /// with `edit`, and reports whether the result still loads.
    fn loads_after_edit(tag: &str, edit: impl Fn(String) -> String) -> bool {
        let cache = RunCache::open(tmp_dir(tag)).expect("open cache");
        let (s, m) = (spec(), metrics());
        let edited = edit(RunCache::entry_bytes(&s, &m));
        assert_ne!(
            edited,
            RunCache::entry_bytes(&s, &m),
            "{tag}: edit must apply"
        );
        std::fs::write(cache.path_for(s.key()), edited).expect("write");
        let hit = cache.load(&s).is_some();
        std::fs::remove_dir_all(cache.dir()).ok();
        hit
    }

    #[test]
    fn plausible_edit_still_loads() {
        assert!(loads_after_edit("plausible", |e| e
            .replace("\"events\":123456789", "\"events\":123456790")));
    }

    #[test]
    fn negative_count_reads_as_miss() {
        assert!(!loads_after_edit("negative", |e| e
            .replace("\"events\":123456789", "\"events\":-5")));
    }

    #[test]
    fn fractional_count_reads_as_miss() {
        assert!(!loads_after_edit("fractional", |e| {
            e.replace("\"queue_high_water\":77", "\"queue_high_water\":77.5")
        }));
    }

    #[test]
    fn out_of_range_count_reads_as_miss() {
        assert!(!loads_after_edit("overflow", |e| {
            e.replace("\"sim_elapsed_ns\":20000000000", "\"sim_elapsed_ns\":1e20")
        }));
        assert!(!loads_after_edit("infinite-count", |e| {
            e.replace("\"sim_elapsed_ns\":20000000000", "\"sim_elapsed_ns\":1e999")
        }));
    }

    #[test]
    fn nan_count_is_not_a_count() {
        // JSON text cannot spell NaN, so this case is checked on the
        // conversion itself; `as u64` would have mapped it to 0.
        assert_eq!(whole_count(f64::NAN), None);
        assert_eq!(whole_count(-0.5), None);
        assert_eq!(whole_count(f64::INFINITY), None);
        assert_eq!(whole_count(0.0), Some(0));
        assert_eq!(whole_count(9_007_199_254_740_992.0), Some(1 << 53));
    }

    #[test]
    fn mismatched_flow_arrays_read_as_miss() {
        assert!(!loads_after_edit("mismatch", |e| {
            e.replace("\"loss_rates\":[0.25,0]", "\"loss_rates\":[0.25]")
        }));
    }

    #[test]
    fn flow_arrays_of_another_recipe_read_as_miss() {
        // Consistent with each other, but not with the cell's two flows.
        assert!(RunCache::entry_bytes(&spec(), &metrics())
            .contains("\"flows_kbps\":[599.03680000001,2714],\"loss_rates\":[0.25,0]"));
        assert!(!loads_after_edit("three-flows", |e| {
            e.replace("\"loss_rates\":[0.25,0]", "\"loss_rates\":[0.25,0,0]")
                .replace(
                    "\"flows_kbps\":[599.03680000001,2714]",
                    "\"flows_kbps\":[599.03680000001,2714,1]",
                )
        }));
        assert!(!loads_after_edit("one-flow", |e| {
            e.replace("\"loss_rates\":[0.25,0]", "\"loss_rates\":[0.25]")
                .replace(
                    "\"flows_kbps\":[599.03680000001,2714]",
                    "\"flows_kbps\":[599.03680000001]",
                )
        }));
    }

    #[test]
    fn non_finite_float_reads_as_miss() {
        assert!(!loads_after_edit("inf-fairness", |e| {
            e.replace("\"fairness\":0.7512341", "\"fairness\":1e999")
        }));
        assert!(!loads_after_edit("inf-flow", |e| {
            e.replace("\"flows_kbps\":[599.03680000001", "\"flows_kbps\":[-1e999")
        }));
    }

    #[test]
    fn corrupt_entry_reads_as_miss() {
        let cache = RunCache::open(tmp_dir("corrupt")).expect("open cache");
        let s = spec();
        std::fs::write(cache.path_for(s.key()), b"{not json").expect("write");
        assert!(cache.load(&s).is_none());
        std::fs::write(cache.path_for(s.key()), b"{\"version\":\"other/v9\"}").expect("write");
        assert!(cache.load(&s).is_none());
        // Nesting deep enough to overflow a recursive parser's stack.
        std::fs::write(cache.path_for(s.key()), "[".repeat(200_000)).expect("write");
        assert!(cache.load(&s).is_none());
        std::fs::remove_dir_all(cache.dir()).ok();
    }
}
