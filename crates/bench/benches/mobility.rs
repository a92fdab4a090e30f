//! The `mobility` group: incremental epoch commits vs building the
//! medium from scratch — the headline artifact of the epoch-versioned
//! link state.
//!
//! For N ∈ {64, 256, 1024} stations on a constant-density spiral field
//! (a few audible neighbors each — a sparse wide-area deployment), a
//! small mover fraction (~0.5%, the regime mobility epochs live in)
//! bounces between two position sets every iteration. `construct_nN`
//! times `Medium::new` at the post-move positions (the O(N·degree) cost
//! of starting over); `epoch_nN` times the incremental
//! `Medium::commit_epoch` (dirty-neighborhood recompute, O(moved)) and
//! reports `speedup` = construct median / epoch median. That an epoch
//! commit leaves exactly the link state a fresh build would (plus the
//! unmoved pairs' transplanted state) is pinned by the phy crate's
//! `medium_matches_brute_force_oracle_bitwise`; only the wall clock is
//! measured here.
//!
//! Committed medians live in `BENCH_pr10.json` (recorded when the
//! denominator was a from-scratch rebuild with state transplant, which
//! cost slightly more than construction alone); CI gates `speedup`
//! (regresses downward) against it. Independent of any baseline, the
//! bench hard-fails unless the incremental path clears **10×** over
//! construction at N = 1024 — the acceptance floor for O(moved)
//! maintenance:
//!
//! ```console
//! cargo bench -p dot11-bench --bench mobility -- --json BENCH_pr10.json
//! cargo bench -p dot11-bench --bench mobility -- --baseline BENCH_pr10.json --tolerance 60
//! ```

use desim::{SimDuration, SimRng};
use dot11_bench::Harness;
use dot11_phy::{
    CullPolicy, DayProfile, Db, Dbm, LogDistance, Medium, MediumConfig, NodeId, Position,
    Shadowing, StationRoles, CULL_MARGIN_DB,
};

/// Constant-density sunflower spiral: the field radius grows with √N so
/// every station keeps the same (sparse, wide-area) audible
/// neighborhood — a handful of stations under the ~4.7 km audible cull
/// the CULL_MARGIN_DB policy resolves to — and an epoch update is
/// N-independent work per mover.
fn spiral(n: usize) -> Vec<Position> {
    let radius = 14_000.0 * (n as f64 / 64.0).sqrt();
    (0..n)
        .map(|k| {
            let r = radius * ((k as f64 + 0.5) / n as f64).sqrt();
            let th = k as f64 * 2.399_963_229_728_653;
            Position {
                x: r * th.cos(),
                y: r * th.sin(),
            }
        })
        .collect()
}

/// A medium over `positions` with every audible slice built: `roles`
/// let every station transmit and move, as a mobile world's must.
fn medium(positions: Vec<Position>, roles: &StationRoles) -> Medium {
    let day = DayProfile::clear();
    Medium::new(
        positions,
        Shadowing::new(day.clone(), SimRng::from_seed(33)),
        MediumConfig {
            path_loss: LogDistance::anchored_at_free_space_1m(3.0).into(),
            day,
            propagation_delay: SimDuration::from_micros(1),
            cull: CullPolicy::Audible {
                tx_power: Dbm(15.0),
                noise_floor: Dbm(-96.6),
                margin: Db(CULL_MARGIN_DB),
            },
        },
        roles,
    )
}

/// The two alternating move sets: ~0.5% of stations (at least one) hop
/// 60-odd metres out on even epochs and back home on odd ones, so the
/// medium bounces between two states instead of drifting off the field.
fn move_sets(n: usize) -> [Vec<(NodeId, Position)>; 2] {
    let positions = spiral(n);
    let movers = (n / 200).max(1);
    let stride = n / movers;
    let mut out = Vec::with_capacity(movers);
    let mut back = Vec::with_capacity(movers);
    for m in 0..movers {
        let i = m * stride;
        let p = positions[i];
        out.push((
            NodeId(i as u32),
            Position {
                x: p.x + 60.0,
                y: p.y - 45.0,
            },
        ));
        back.push((NodeId(i as u32), p));
    }
    [out, back]
}

/// Times `Medium::new` at the positions the outbound move set leaves:
/// the cost of starting over instead of committing an epoch.
fn bench_construct(h: &Harness, n: usize) {
    let mut moved = spiral(n);
    for &(id, p) in &move_sets(n)[0] {
        moved[id.index()] = p;
    }
    let roles = StationRoles::unrestricted(n);
    h.bench_metrics(
        &format!("mobility/construct_n{n}"),
        || medium(moved.clone(), &roles),
        |m, _| {
            let pairs = n * (n - 1);
            vec![
                ("stations".into(), n as f64),
                (
                    "audible_links".into(),
                    (pairs - m.culled_link_count()) as f64,
                ),
            ]
        },
    );
}

/// Times incremental epoch commits: alternating out/back epochs,
/// reporting per-epoch churn and `speedup` over the already-timed
/// construction row.
fn bench_epochs(h: &Harness, n: usize, construct_ns: Option<f64>) {
    let mut medium = medium(spiral(n), &StationRoles::unrestricted(n));
    let sets = move_sets(n);
    // Install the steady state (capacity slack) before timing, exactly
    // as a run's first epochs would.
    medium.commit_epoch(&sets[0]);
    medium.commit_epoch(&sets[1]);
    let mut flip = 0usize;
    h.bench_metrics(
        &format!("mobility/epoch_n{n}"),
        move || {
            let churn = medium.commit_epoch(&sets[flip]);
            flip ^= 1;
            churn
        },
        |churn, median| {
            let mut m = vec![
                ("stations".into(), n as f64),
                ("moved".into(), churn.moved as f64),
                ("links_recomputed".into(), churn.links_recomputed as f64),
                (
                    "audible_churn".into(),
                    (churn.audible_added + churn.audible_removed) as f64,
                ),
            ];
            if let Some(construct_ns) = construct_ns {
                m.push(("speedup".into(), construct_ns / median.as_nanos() as f64));
            }
            m
        },
    );
}

/// Construction median for size `n`, if its row ran (the speedup
/// denominator).
fn construct_median_ns(h: &Harness, n: usize) -> Option<f64> {
    h.records()
        .iter()
        .find(|r| r.name == format!("mobility/construct_n{n}"))
        .map(|r| r.median_ns as f64)
}

fn main() {
    let h = Harness::from_args();
    for n in [64usize, 256, 1024] {
        // Construction first so the incremental row can report its speedup.
        bench_construct(&h, n);
        bench_epochs(&h, n, construct_median_ns(&h, n));
    }
    // Acceptance floor, independent of any committed baseline: at 1024
    // stations with a small mover set the incremental path must clear
    // 10× over construction, or it is not O(moved) maintenance.
    let full = h
        .records()
        .into_iter()
        .find(|r| r.name == "mobility/epoch_n1024");
    if let Some(r) = full {
        let speedup = r
            .metrics
            .iter()
            .find(|(k, _)| k == "speedup")
            .map(|&(_, v)| v);
        match speedup {
            Some(s) if s >= 10.0 => {
                println!(
                    "mobility gate: epoch update {s:.1}x cheaper than construction at n=1024 (>= 10x)"
                );
            }
            Some(s) => {
                eprintln!(
                    "PERF REGRESSION: mobility/epoch_n1024 only {s:.1}x cheaper than construction \
                     (< 10x floor)"
                );
                std::process::exit(1);
            }
            // construct_n1024 filtered out: no denominator, nothing to gate.
            None => {}
        }
    }
    h.finish();
}
