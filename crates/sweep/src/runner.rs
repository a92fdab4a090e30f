//! The parallel sweep executor.
//!
//! Cells are claimed from a shared cursor (an atomic fetch-add over the
//! pending list) by `jobs` worker threads — work-sharing with the same
//! load-balancing property as work stealing for this workload, since
//! every "task" is one independent `World` run and claiming is a single
//! atomic instruction. Each worker simulates its cells to completion and
//! returns (index, metrics) pairs; results are reassembled **in spec
//! order**, so the aggregated report is bit-identical for any worker
//! count or completion interleaving.
//!
//! With a cache directory configured, cells whose key is already present
//! load instead of simulating; a fully warm sweep simulates zero worlds.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use desim::SimDuration;

use crate::cache::RunCache;
use crate::progress::ProgressSink;
use crate::report::{CellMetrics, CellOutcome, SweepEngine, SweepReport, WorkerStats};
use crate::spec::SweepSpec;

/// How a sweep executes: worker count, (optional) run cache, and
/// (optional) live telemetry.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads. Clamped to ≥ 1; also clamped down to the number
    /// of pending cells, so small sweeps don't spawn idle threads.
    pub jobs: usize,
    /// Run-cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Live JSONL telemetry destination; `None` runs silently. Shared by
    /// `Arc` because every worker thread narrates into it.
    pub progress: Option<Arc<ProgressSink>>,
}

impl SweepOptions {
    /// One worker, no cache — the reference serial configuration.
    pub fn serial() -> SweepOptions {
        SweepOptions {
            jobs: 1,
            cache_dir: None,
            progress: None,
        }
    }

    /// `jobs` workers, no cache.
    pub fn with_jobs(jobs: usize) -> SweepOptions {
        SweepOptions {
            jobs,
            cache_dir: None,
            progress: None,
        }
    }

    /// Sets the cache directory.
    pub fn cache(mut self, dir: impl Into<PathBuf>) -> SweepOptions {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Attaches a live telemetry sink.
    pub fn progress(mut self, sink: Arc<ProgressSink>) -> SweepOptions {
        self.progress = Some(sink);
        self
    }
}

impl Default for SweepOptions {
    /// All available cores, no cache.
    fn default() -> SweepOptions {
        SweepOptions {
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache_dir: None,
            progress: None,
        }
    }
}

/// Runs every cell of `spec` and aggregates (see module docs).
///
/// # Errors
///
/// Only the cache *directory* failing to open is an error. A failed
/// cache-entry write is reported to stderr and the sweep continues — the
/// cache is an accelerator, not a correctness dependency.
///
/// # Panics
///
/// Panics if a worker thread panics (i.e. a scenario itself panicked).
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> std::io::Result<SweepReport> {
    let start = Instant::now();
    let cells = spec.cells();
    let cache = match &opts.cache_dir {
        Some(dir) => Some(RunCache::open(dir)?),
        None => None,
    };

    // Phase 1: serve what the cache already has.
    let mut outcomes: Vec<Option<CellOutcome>> = Vec::with_capacity(cells.len());
    let mut pending: Vec<usize> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        match cache.as_ref().and_then(|c| c.load(cell)) {
            Some(metrics) => outcomes.push(Some(CellOutcome {
                spec: *cell,
                key: cell.key(),
                metrics,
                cached: true,
            })),
            None => {
                outcomes.push(None);
                pending.push(i);
            }
        }
    }
    let cached = cells.len() - pending.len();

    // Phase 2: fan the pending cells out across workers.
    let jobs = opts.jobs.max(1).min(pending.len().max(1));
    let progress = opts.progress.as_deref();
    if let Some(p) = progress {
        p.sweep_start(cells.len(), cached, pending.len(), jobs);
    }
    let cursor = AtomicUsize::new(0);
    let mut workers: Vec<WorkerStats> = Vec::with_capacity(jobs);
    let mut computed: Vec<(usize, CellMetrics)> = Vec::with_capacity(pending.len());
    if !pending.is_empty() {
        let per_worker = std::thread::scope(|s| {
            let handles: Vec<_> = (0..jobs)
                .map(|w| {
                    let (cells, pending, cursor, cache) = (&cells, &pending, &cursor, &cache);
                    s.spawn(move || {
                        let mut stats = WorkerStats {
                            worker: w,
                            cells: 0,
                            events: 0,
                            busy: Duration::ZERO,
                        };
                        let mut results = Vec::new();
                        loop {
                            let n = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&idx) = pending.get(n) else { break };
                            let cell = cells[idx];
                            let key = cell.key().to_string();
                            if let Some(p) = progress {
                                p.run_start(w, &key, &cell.group_label(), cell.seed);
                            }
                            let report = cell.build().run();
                            let metrics = CellMetrics::from_report(&report);
                            if let Some(p) = progress {
                                p.run_finish(w, &key, report.engine.events, report.engine.wall);
                            }
                            stats.cells += 1;
                            stats.events += report.engine.events;
                            stats.busy += report.engine.wall;
                            if let Some(cache) = cache {
                                if let Err(e) = cache.store(&cell, &metrics, w) {
                                    eprintln!(
                                        "dot11-sweep: cache write for cell {}: {e}",
                                        cell.key()
                                    );
                                }
                            }
                            results.push((idx, metrics));
                        }
                        (stats, results)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect::<Vec<_>>()
        });
        for (stats, results) in per_worker {
            workers.push(stats);
            computed.extend(results);
        }
    }

    // Phase 3: reassemble in spec order and aggregate.
    let simulated = computed.len();
    let (mut events, mut sim_ns) = (0u64, 0u64);
    for (idx, metrics) in computed {
        events += metrics.events;
        sim_ns += metrics.sim_elapsed_ns;
        let cell = cells[idx];
        outcomes[idx] = Some(CellOutcome {
            spec: cell,
            key: cell.key(),
            metrics,
            cached: false,
        });
    }
    let cells: Vec<CellOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every cell either cached or simulated"))
        .collect();
    let groups = SweepReport::group(&cells);
    let wall = start.elapsed();
    if let Some(p) = progress {
        p.sweep_finish(wall, simulated, cached, events, &workers);
    }
    Ok(SweepReport {
        groups,
        cells,
        engine: SweepEngine {
            jobs,
            wall,
            simulated,
            cached,
            sim_elapsed: SimDuration::from_nanos(sim_ns),
            events,
            workers,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{RunParams, SweepScenario};
    use dot11_adhoc::analytic::AccessScheme;
    use dot11_adhoc::experiments::four_station::SessionTransport;
    use dot11_phy::PhyRate;

    fn tiny_spec(seeds: std::ops::RangeInclusive<u64>) -> SweepSpec {
        SweepSpec::new(RunParams {
            duration: SimDuration::from_millis(300),
            warmup: SimDuration::from_millis(100),
            threads: 1,
        })
        .scenario(SweepScenario::TwoStation {
            rate: PhyRate::R11,
            distance_m: 10.0,
            transport: SessionTransport::Udp,
            scheme: AccessScheme::Basic,
        })
        .seeds(seeds)
    }

    #[test]
    fn serial_sweep_fills_every_cell_in_order() {
        let spec = tiny_spec(1..=3);
        let report = run_sweep(&spec, &SweepOptions::serial()).expect("sweep");
        assert_eq!(report.cells.len(), 3);
        assert_eq!(
            report.cells.iter().map(|c| c.spec.seed).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(report.engine.simulated, 3);
        assert_eq!(report.engine.cached, 0);
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.groups[0].total_kbps.n, 3);
        assert!(report.groups[0].total_kbps.mean > 100.0);
        assert!(report.engine.events > 0);
    }

    #[test]
    fn more_jobs_than_cells_is_clamped() {
        let spec = tiny_spec(1..=2);
        let report = run_sweep(&spec, &SweepOptions::with_jobs(16)).expect("sweep");
        assert_eq!(report.engine.jobs, 2, "jobs clamp to pending cells");
        assert_eq!(report.engine.workers.len(), 2);
        let worked: usize = report.engine.workers.iter().map(|w| w.cells).sum();
        assert_eq!(worked, 2);
    }

    #[test]
    fn progress_stream_narrates_without_touching_determinism() {
        use crate::progress::ProgressSink;
        use std::io::Write;
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let spec = tiny_spec(1..=3);
        let silent = run_sweep(&spec, &SweepOptions::serial()).expect("sweep");
        let buf = Buf::default();
        let opts =
            SweepOptions::serial().progress(Arc::new(ProgressSink::new(Box::new(buf.clone()))));
        let loud = run_sweep(&spec, &opts).expect("sweep");
        assert_eq!(
            silent.deterministic_json(),
            loud.deterministic_json(),
            "telemetry must not perturb results"
        );
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // sweep_start + (run_start + run_finish) × 3 cells + sweep_finish.
        assert_eq!(lines.len(), 8, "{text}");
        assert!(lines[0].contains("\"event\":\"sweep_start\""));
        assert_eq!(text.matches("\"event\":\"run_start\"").count(), 3);
        assert_eq!(text.matches("\"event\":\"run_finish\"").count(), 3);
        assert!(lines[7].contains("\"event\":\"sweep_finish\""));
    }

    #[test]
    fn empty_spec_yields_an_empty_report() {
        let spec = SweepSpec::new(RunParams::quick());
        let report = run_sweep(&spec, &SweepOptions::serial()).expect("sweep");
        assert!(report.cells.is_empty());
        assert!(report.groups.is_empty());
        assert_eq!(report.engine.simulated + report.engine.cached, 0);
    }
}
