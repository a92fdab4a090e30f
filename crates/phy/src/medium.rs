//! The shared wireless medium: positions, propagation, active signals.
//!
//! `Medium` is pure computation — the event loop lives in the simulation
//! driver. When a station starts transmitting, the driver calls
//! [`Medium::transmit_into`], which samples the per-receiver powers
//! **once** (path loss + that instant's shadowing) into a recycled
//! buffer; the driver then schedules one signal-start and one signal-end
//! event for the whole frame, since the propagation delay is the same at
//! every receiver. On a fixed field with silent stations,
//! `transmit_into` covers only the frame's participants; the driver
//! samples its listeners later with [`Medium::sample_listeners`], at the
//! same launch instant.

use desim::{SimDuration, SimTime};

use crate::pathloss::{PathLoss, PathLossModel};
use crate::plcp::{FrameAirtime, Preamble};
use crate::rate::PhyRate;
use crate::roles::StationRoles;
use crate::shadowing::{DayProfile, Shadowing, SlotEntry};
use crate::units::{Db, Dbm, Meters, NodeId, Position};

/// Identifier of one transmission on the medium (unique within a run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

/// Default culling margin (dB) below the noise floor for
/// [`CullPolicy::Audible`].
///
/// A link is kept whenever its *best-case* received power — TX power
/// minus cached path loss minus [`DayProfile::min_excess`] — still clears
/// `noise_floor − CULL_MARGIN_DB`. At 25 dB below a −96.6 dBm noise floor
/// a culled signal is ≤ −121.6 dBm ≈ 7·10⁻¹³ mW, more than 300× below
/// the weakest signal the PHY will ever carrier-sense (−101.5 dBm) and
/// ~10⁻⁵ of the noise power that dominates every SINR denominator, so
/// dropping it cannot flip a carrier-sense comparison or change a decode
/// probability beyond the float's low bits (see ARCHITECTURE.md,
/// "Audible sets & scaling", for the full soundness argument).
pub const CULL_MARGIN_DB: f64 = 25.0;

/// How [`Medium`] decides which receivers each transmitter can possibly
/// reach. [`Medium::new`] reduces it to one keep radius: every link no
/// longer than the radius is kept, every other link is culled.
#[derive(Debug, Clone, Copy)]
pub enum CullPolicy {
    /// An infinite keep radius: every frame reaches all other stations,
    /// an O(N) fan-out. Kept for A/B comparison and as the safe default
    /// for hand-built media whose TX power is unknown.
    Full,
    /// Deliver only to receivers whose best-case received power clears
    /// `noise_floor − margin`. Sound only if every transmission uses at
    /// most `tx_power` (checked by a debug assertion on the hot path).
    Audible {
        /// Upper bound on the TX power any station will use.
        tx_power: Dbm,
        /// The receivers' thermal noise floor.
        noise_floor: Dbm,
        /// Safety margin below the noise floor (see [`CULL_MARGIN_DB`]).
        margin: Db,
    },
}

/// Static configuration of the medium.
#[derive(Clone)]
pub struct MediumConfig {
    /// Deterministic path-loss model (devirtualized — see
    /// [`PathLossModel`]).
    pub path_loss: PathLossModel,
    /// Day/weather profile driving the shadowing process.
    pub day: DayProfile,
    /// Propagation delay applied uniformly (the paper's Table 1 lists
    /// τ = 1 µs).
    pub propagation_delay: SimDuration,
    /// Audible-set culling policy, read once by [`Medium::new`] to derive
    /// the keep radius.
    pub cull: CullPolicy,
}

impl std::fmt::Debug for MediumConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MediumConfig")
            .field("path_loss", &self.path_loss)
            .field("day", &self.day.name)
            .field("propagation_delay", &self.propagation_delay)
            .field("cull", &self.cull)
            .finish()
    }
}

/// One launched transmission, as seen by a particular receiver.
#[derive(Debug, Clone, Copy)]
pub struct TxSignal {
    /// The transmission this signal belongs to.
    pub tx_id: TxId,
    /// The transmitting station.
    pub source: NodeId,
    /// Received power at this receiver (sampled at transmit time).
    pub rx_power: Dbm,
    /// Rate of the MPDU body.
    pub rate: PhyRate,
    /// MPDU length, bytes.
    pub mpdu_bytes: u32,
    /// Preamble format.
    pub preamble: Preamble,
    /// Airtime start at the receiver (transmit time + propagation delay).
    pub starts_at: SimTime,
    /// Airtime end at the receiver.
    pub ends_at: SimTime,
}

/// The shared medium for one simulation run.
///
/// Positions change only at [`Medium::commit_epoch`], so the
/// deterministic part of every directed link — distance and path loss —
/// is cached per kept link, and an epoch commit resets exactly the cells
/// with a moved endpoint. The cache is **audible-slice-major**: one
/// `(distance, loss)` entry per kept CSR link, parallel to `audible`, so
/// a frame's scatter walks one contiguous block instead of striding an
/// N-sized matrix row — and the whole cache is O(kept links), not O(N²)
/// (a 4096-station disk needs megabytes, not a 256 MB matrix). Path
/// losses fill lazily on first touch (NaN-sentinelled — no shipped model
/// produces NaN for any distance), so construction does no `log10` at
/// all and a run only ever pays for the links its transmitters actually
/// use. The per-frame cost of
/// [`Medium::transmit_into`] is then one sequential cache read plus the
/// time-varying shadowing sample per receiver; no `log10`, no virtual
/// dispatch, no hashing, no allocation.
#[derive(Debug)]
pub struct Medium {
    positions: Vec<Position>,
    shadowing: Shadowing,
    config: MediumConfig,
    /// Audible-slice-major cache of `(distance, path_loss)`, parallel to
    /// `audible`: entry `i` describes the directed link whose receiver is
    /// `audible[i]` — exactly the values `path_loss.path_loss(distance)`
    /// would produce, so cached and recomputed powers are bit-identical.
    /// The distance is written with the entry; a NaN loss marks a loss
    /// not computed yet, which [`Medium::slot_link`] fills on first touch.
    slot_links: Vec<(Meters, Db)>,
    /// CSR layout of the per-transmitter audible sets: transmitter `t`'s
    /// receivers are the first `audible_lens[t]` entries of
    /// `audible[audible_offsets[t] .. audible_offsets[t+1]]`, in station
    /// order, never containing `t` itself. Under [`CullPolicy::Full`]
    /// this is "everyone else". A station whose slice is not built (see
    /// `lanes`) has an empty range. Construction packs the slices
    /// tight (`audible_lens[t] == audible_offsets[t+1] −
    /// audible_offsets[t]`); an epoch compaction re-lays the arrays with
    /// per-station slack so later [`Medium::commit_epoch`] splices stay
    /// in place, leaving dead capacity past each live prefix that no
    /// reader ever touches.
    audible: Vec<NodeId>,
    audible_offsets: Vec<u32>,
    audible_lens: Vec<u32>,
    /// Total live CSR entries (`audible.len()` until slack exists).
    live_links: usize,
    /// The exact keep horizon recovered by `keep_radius` at construction
    /// (`INFINITY` under [`CullPolicy::Full`]). A function of the cull
    /// policy, path-loss model and day profile only — never of positions
    /// — so epoch commits reuse it as-is.
    cull_radius: f64,
    /// The spatial index over current positions: built by
    /// [`Medium::new`], its movers re-binned by every epoch commit.
    grid: BucketGrid,
    /// One lane per station, fixed at construction from the
    /// [`StationRoles`]: whether its audible slice is stored, and whether
    /// [`Medium::transmit_into`] skips it as a receiver.
    lanes: Vec<Lane>,
    /// How many `lanes` are [`Lane::Deaf`].
    deaf_count: usize,
    /// Per station, the CSR slots where its slice's listener and deaf
    /// groups start (see [`Medium::new`]); empty when no station is
    /// silent on a fixed field, where every receiver is a participant.
    group_starts: Vec<(u32, u32)>,
    next_tx: u64,
}

/// What a [`Medium`] stores and scatters for one station.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    /// Its audible slice is stored; frames reach it as a participant.
    Built,
    /// No slice stored (silent on a fixed field); frames reach it as a
    /// listener, through [`Medium::sample_listeners`].
    Listening,
    /// No slice stored, and frames skip it (see [`StationRoles`]).
    Deaf,
}

/// NaN sentinel for a lazily-filled path loss. No shipped [`PathLoss`]
/// model returns NaN (every model is finite for every distance, and
/// distances between finite positions are finite), so NaN unambiguously
/// marks "not computed yet".
const UNFILLED: f64 = f64::NAN;

/// Link-churn accounting for one mobility epoch, returned by
/// [`Medium::commit_epoch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochChurn {
    /// Stations whose position actually changed (bit-identical no-op
    /// moves are dropped).
    pub moved: u32,
    /// Audible slices recomputed: the movers plus every station within
    /// the keep radius of a mover's old or new position. Under
    /// [`CullPolicy::Full`] (an infinite radius) that is every station;
    /// under a keep radius that keeps nothing it is zero, since every
    /// slice stays empty.
    pub slices_recomputed: u32,
    /// Pre-epoch directed links invalidated — entries with a moved
    /// endpoint, including those that left their audible set.
    pub links_dirtied: u32,
    /// Post-epoch directed links starting from fresh state — entries
    /// with a moved endpoint, including those that just entered.
    pub links_recomputed: u32,
    /// Directed links that entered an audible set this epoch.
    pub audible_added: u32,
    /// Directed links that left an audible set this epoch.
    pub audible_removed: u32,
    /// Whole-CSR re-layouts forced by a slice outgrowing its capacity
    /// (0 or 1 per commit).
    pub compactions: u32,
}

/// The validated move set of one epoch: which stations really moved, and
/// from where.
struct EpochPlan {
    moved: Vec<bool>,
    moved_count: u32,
    /// `(station, pre-epoch position)`, ascending by station.
    movers: Vec<(u32, Position)>,
}

/// Merges a dirty station's old live slice against its recomputed slice
/// (both in station order) into churn counters. An entry present on both
/// sides with no moved endpoint survives untouched; everything else is
/// dirtied and/or recomputed.
fn count_slice_churn(
    moved: &[bool],
    tx: usize,
    old_rx: &[NodeId],
    new: &[(u32, f64)],
    churn: &mut EpochChurn,
) {
    churn.slices_recomputed += 1;
    let tx_moved = moved[tx];
    let (mut i, mut j) = (0usize, 0usize);
    while i < old_rx.len() || j < new.len() {
        match (old_rx.get(i).map(|r| r.0), new.get(j).map(|&(r, _)| r)) {
            (Some(a), Some(b)) if a == b => {
                if tx_moved || moved[a as usize] {
                    churn.links_dirtied += 1;
                    churn.links_recomputed += 1;
                }
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a < b => {
                churn.links_dirtied += 1;
                churn.audible_removed += 1;
                i += 1;
            }
            (Some(_), None) => {
                churn.links_dirtied += 1;
                churn.audible_removed += 1;
                i += 1;
            }
            (_, Some(_)) => {
                churn.links_recomputed += 1;
                churn.audible_added += 1;
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
}

/// The largest distance the (monotone) keep predicate accepts, found by
/// bisection over the f64 bit lattice — non-negative floats order like
/// their bit patterns, so this lands on the exact float where the
/// predicate flips. [`PathLoss`] implementations are monotone
/// non-decreasing in distance (a documented trait contract the range
/// solvers already rely on), which makes `keep` downward-closed in
/// distance; `d ≤ radius` then reproduces `keep(d)` for every distance,
/// bit for bit (debug-asserted per examined pair in
/// `compute_audible_slice`, and pinned against a brute-force per-pair
/// oracle by the unit tests).
///
/// Returns `NEG_INFINITY` when nothing is kept (every comparison false)
/// and `INFINITY` when everything is (every comparison true).
fn keep_radius(keep: impl Fn(Meters) -> bool) -> f64 {
    if !keep(Meters(0.0)) {
        return f64::NEG_INFINITY;
    }
    if keep(Meters(f64::MAX)) {
        return f64::INFINITY;
    }
    let (mut lo, mut hi) = (0.0f64.to_bits(), f64::MAX.to_bits());
    // Invariant: keep(lo) && !keep(hi).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if keep(Meters(f64::from_bits(mid))) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    f64::from_bits(lo)
}

/// The grid's geometry: cell side, origin, cell counts and neighbourhood
/// reach for `positions` under keep radius `radius`. Cell side is at
/// least the keep radius (so a 1-ring neighbourhood always covers it)
/// but never smaller than span/√N (so the grid stays O(N) cells even
/// when the keep radius is far below the station spacing). An infinite
/// radius gives one cell holding every station.
#[derive(Debug)]
struct GridGeometry {
    cell: f64,
    min_x: f64,
    min_y: f64,
    nx: usize,
    ny: usize,
    /// Cells-per-axis a pair within the keep radius can straddle.
    reach: usize,
    /// A neighbourhood cell whose squared gap to the query position
    /// exceeds this holds no station within the keep radius: the radius
    /// plus a slack for the rounding in [`GridGeometry::cell_of`]'s
    /// division and the cell-edge arithmetic, squared.
    skip_gap_sq: f64,
}

fn grid_geometry(positions: &[Position], radius: f64) -> GridGeometry {
    let n = positions.len();
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in positions {
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
        max_x = max_x.max(p.x);
        max_y = max_y.max(p.y);
    }
    let span = (max_x - min_x).max(max_y - min_y).max(1.0);
    let max_side = (n as f64).sqrt().ceil().max(1.0);
    let cell = radius.max(span / max_side);
    let nx = (((max_x - min_x) / cell) as usize + 1).max(1);
    let ny = (((max_y - min_y) / cell) as usize + 1).max(1);
    // ceil(radius/cell) rings suffice mathematically; the +1 ring
    // absorbs any rounding in the division for free (the extra cells
    // are empty or re-checked by the exact distance compare anyway).
    let reach = ((radius / cell).ceil() as usize).saturating_add(1);
    // Rounding in `cell_of` and in the edge coordinates is a few ulps of
    // the field's coordinate magnitudes; 1e-9 of them is ample and still
    // far below a metre on any real field.
    let magnitude = radius + cell * (nx + ny + 2) as f64 + min_x.abs() + min_y.abs();
    let slack = 1e-9 * magnitude;
    GridGeometry {
        cell,
        min_x,
        min_y,
        nx,
        ny,
        reach,
        skip_gap_sq: (radius + slack).powi(2),
    }
}

impl GridGeometry {
    /// The (clamped) cell index of a position. Clamping makes the index
    /// total: positions outside the original bounding box land in edge
    /// cells. Because clamping is monotone and non-expanding, two
    /// positions within the keep radius of each other still map to cells
    /// at most `reach` apart — so a grid whose geometry was frozen on the
    /// construction-time bounding box remains a *correct* candidate
    /// generator for any later positions (only its efficiency can degrade
    /// as stations drift far outside the box).
    fn cell_of(&self, p: &Position) -> usize {
        let ix = (((p.x - self.min_x) / self.cell) as usize).min(self.nx - 1);
        let iy = (((p.y - self.min_y) / self.cell) as usize).min(self.ny - 1);
        iy * self.nx + ix
    }

    /// Visits every cell that can hold a station within the keep radius
    /// of `of`: the `reach`-ring neighbourhood of `of`'s cell, minus the
    /// cells whose rectangle lies wholly beyond the radius (plus slack).
    /// Edge cells extend to infinity on their outer sides, because
    /// `cell_of` clamps every outlying position into them — so a frozen
    /// grid stays a sound candidate generator under drift.
    fn for_each_cell_near(&self, of: &Position, mut visit: impl FnMut(usize)) {
        let ix = (((of.x - self.min_x) / self.cell) as usize).min(self.nx - 1);
        let iy = (((of.y - self.min_y) / self.cell) as usize).min(self.ny - 1);
        let (x0, x1) = (
            ix.saturating_sub(self.reach),
            (ix + self.reach).min(self.nx - 1),
        );
        let (y0, y1) = (
            iy.saturating_sub(self.reach),
            (iy + self.reach).min(self.ny - 1),
        );
        for cy in y0..=y1 {
            let gy_sq = self.axis_gap(of.y, self.min_y, cy, self.ny).powi(2);
            if gy_sq > self.skip_gap_sq {
                continue;
            }
            for cx in x0..=x1 {
                let gx = self.axis_gap(of.x, self.min_x, cx, self.nx);
                if gx * gx + gy_sq <= self.skip_gap_sq {
                    visit(cy * self.nx + cx);
                }
            }
        }
    }

    /// Distance along one axis from coordinate `v` to the extent of cell
    /// `c` (of `count` along that axis, starting at `origin`); zero inside.
    fn axis_gap(&self, v: f64, origin: f64, c: usize, count: usize) -> f64 {
        let lo = if c == 0 {
            f64::NEG_INFINITY
        } else {
            origin + c as f64 * self.cell
        };
        let hi = if c + 1 == count {
            f64::INFINITY
        } else {
            origin + (c + 1) as f64 * self.cell
        };
        if v < lo {
            lo - v
        } else if v > hi {
            v - hi
        } else {
            0.0
        }
    }
}

/// A uniform bucket grid over station positions: the spatial index that
/// lets audible-slice computation examine only O(neighbours) candidate
/// pairs per station instead of all N−1. Per-cell `Vec` buckets make
/// moving a station two bucket edits, so an epoch commit re-bins its
/// movers instead of rebuilding the index.
///
/// Geometry is frozen at construction. [`GridGeometry::cell_of`]'s
/// clamped indexing keeps the frozen grid a correct candidate generator
/// for arbitrary later positions; bucket *order* is irrelevant (every
/// consumer either marks a dirty bit or sorts the slice it builds), so
/// removal can `swap_remove`.
#[derive(Debug)]
struct BucketGrid {
    geo: GridGeometry,
    buckets: Vec<Vec<u32>>,
}

impl BucketGrid {
    /// Counts each cell's stations first, so every occupied bucket is
    /// allocated once at its final size (an empty one not at all).
    fn new(positions: &[Position], radius: f64) -> BucketGrid {
        let geo = grid_geometry(positions, radius);
        let mut counts = vec![0usize; geo.nx * geo.ny];
        for p in positions {
            counts[geo.cell_of(p)] += 1;
        }
        let mut buckets: Vec<Vec<u32>> = counts.into_iter().map(Vec::with_capacity).collect();
        for (i, p) in positions.iter().enumerate() {
            buckets[geo.cell_of(p)].push(i as u32);
        }
        BucketGrid { geo, buckets }
    }

    /// Re-bins station `id` after it moved from `old` to `new`.
    fn move_id(&mut self, id: u32, old: &Position, new: &Position) {
        let from = self.geo.cell_of(old);
        let to = self.geo.cell_of(new);
        if from == to {
            return;
        }
        let bucket = &mut self.buckets[from];
        let at = bucket
            .iter()
            .position(|&b| b == id)
            .expect("station binned in the cell its old position maps to");
        bucket.swap_remove(at);
        self.buckets[to].push(id);
    }

    /// Visits every station id (including `of` itself, if binned) in the
    /// cells [`GridGeometry::for_each_cell_near`] keeps: a superset of
    /// the stations within the keep radius of `of`.
    fn for_each_neighbour(&self, of: &Position, mut visit: impl FnMut(u32)) {
        self.geo.for_each_cell_near(of, |c| {
            for &id in &self.buckets[c] {
                visit(id);
            }
        });
    }
}

/// Visits every station in `tx`'s audible set at the current positions,
/// with its distance, in grid order: grid-bounded candidates through the
/// exact `d ≤ radius` filter (debug cross-checked against the full
/// predicate). The one keep test behind every audible slice and every
/// count: [`compute_audible_slice`] collects what it visits, and
/// [`Medium::audible_count`] counts it for stations whose slice is not
/// built. With an infinite radius every candidate passes, and the
/// distance `sqrt(d_sq)` is bit for bit [`Position::distance_to`].
// `config` only feeds the debug cross-check below.
#[cfg_attr(not(debug_assertions), allow(unused_variables))]
fn for_each_audible(
    positions: &[Position],
    config: &MediumConfig,
    radius: f64,
    grid: &BucketGrid,
    tx: usize,
    mut keep: impl FnMut(u32, f64),
) {
    // A candidate whose squared distance clears this bound is beyond the
    // radius for certain (the 1e-9 relative slack dwarfs the rounding of
    // the square and of the root), so it is rejected before the root;
    // every other candidate gets the exact `d ≤ radius` compare.
    let reject_sq = radius * radius * (1.0 + 1e-9);
    let at = positions[tx];
    grid.for_each_neighbour(&at, |rx| {
        if rx as usize == tx {
            return;
        }
        let d_sq = at.distance_sq_to(positions[rx as usize]);
        #[cfg(debug_assertions)]
        if let CullPolicy::Audible {
            tx_power,
            noise_floor,
            margin,
        } = config.cull
        {
            let d = Meters(d_sq.sqrt());
            let best_case = tx_power - config.path_loss.path_loss(d) - config.day.min_excess();
            debug_assert_eq!(
                d.0 <= radius,
                best_case.0 >= noise_floor.0 - margin.0,
                "keep-radius compare diverged from the exact predicate at {d:?}"
            );
            debug_assert!(
                d_sq <= reject_sq || d.0 > radius,
                "prefilter rejected a kept pair"
            );
        }
        if d_sq > reject_sq {
            return;
        }
        let d = d_sq.sqrt();
        if d <= radius {
            keep(rx, d);
        }
    });
}

/// Computes station `tx`'s audible slice from the current positions:
/// [`for_each_audible`]'s receivers, sorted into station order. The
/// single slice routine shared by [`Medium::new`] and
/// [`Medium::commit_epoch`]: an epoch-recomputed slice is byte-identical
/// to what construction over the same positions would build.
fn compute_audible_slice(
    positions: &[Position],
    config: &MediumConfig,
    radius: f64,
    grid: &BucketGrid,
    tx: usize,
    scratch: &mut Vec<(u32, f64)>,
) {
    scratch.clear();
    for_each_audible(positions, config, radius, grid, tx, |rx, d| {
        scratch.push((rx, d));
    });
    // Neighbour cells are visited in grid order; the audible slice must
    // be in station order.
    scratch.sort_unstable_by_key(|&(rx, _)| rx);
}

/// Panics for a request that needs the audible slice of `tx`, which this
/// medium did not build.
#[cold]
#[track_caller]
fn unbuilt_slice(tx: NodeId, what: &str) -> ! {
    panic!(
        "{what}: station {} has no audible slice (this medium built only its transmitters' slices)",
        tx.0
    )
}

impl Medium {
    /// Creates a medium over the given station positions, storing what
    /// `roles` says can be read.
    ///
    /// Construction precomputes each transmitter's **audible set** under
    /// `config.cull`: the receivers whose best-case received power (TX
    /// power bound − path loss − [`DayProfile::min_excess`]) clears
    /// `noise_floor − margin`. [`Medium::transmit_into`] scatters only
    /// over that list, making per-frame fan-out O(reachable) rather than
    /// O(N).
    ///
    /// The kept set is identical — station for station — to evaluating
    /// the predicate on all `n·(n−1)` pairs, but is built in
    /// O(N + kept): the predicate depends on a pair only through its
    /// distance and path loss is monotone in distance, so the exact keep
    /// horizon is recovered once by `keep_radius` bisection and each
    /// station only examines the neighbours the grid proves could
    /// be inside it. Construction writes only membership and distances:
    /// path losses and shadowing state wait for a link's first sample, so
    /// a large field whose stations mostly never transmit pays for the
    /// few slices that do.
    ///
    /// When `roles` fix positions and leave some station silent, only the
    /// transmitters' slices are built, and frames skip every deaf
    /// receiver (see [`StationRoles`]). Each built slice, and every link
    /// state and draw derived from it, is bit for bit what the all-slices
    /// build holds: shadowing streams are keyed by link, not by CSR slot.
    /// A silent station gets an empty CSR range; [`Medium::audible_count`]
    /// stays exact for it through a count-only scan. Each built slice is
    /// then stable-partitioned by receiver: **participants** (the
    /// transmitters) first, then **listeners** (silent, not deaf), then
    /// deaf receivers, each group in station order.
    /// [`Medium::transmit_into`] scatters the participants only,
    /// [`Medium::sample_listeners`] the listeners, and nothing samples a
    /// deaf receiver's link.
    ///
    /// # Panics
    ///
    /// Panics if `roles` do not hold one flag per station.
    pub fn new(
        positions: Vec<Position>,
        mut shadowing: Shadowing,
        config: MediumConfig,
        roles: &StationRoles,
    ) -> Medium {
        let n = positions.len();
        assert_eq!(roles.transmitters.len(), n, "one role per station");
        // Only a fixed field with silent stations leaves slices unbuilt.
        let silent_fixed = roles.fixed.filter(|_| roles.transmitters.contains(&false));
        let radius = match config.cull {
            CullPolicy::Full => f64::INFINITY,
            CullPolicy::Audible {
                tx_power,
                noise_floor,
                margin,
            } => {
                let min_excess = config.day.min_excess();
                keep_radius(|d| {
                    let best_case = tx_power - config.path_loss.path_loss(d) - min_excess;
                    best_case.0 >= noise_floor.0 - margin.0
                })
            }
        };
        let grid = BucketGrid::new(&positions, radius);
        let mut audible = Vec::new();
        let mut slot_links = Vec::new();
        let mut audible_offsets = Vec::with_capacity(n + 1);
        audible_offsets.push(0u32);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        let mut lanes = Vec::with_capacity(n);
        for (tx, &may_transmit) in roles.transmitters.iter().enumerate() {
            if silent_fixed.is_some() && !may_transmit {
                lanes.push(Lane::Listening);
            } else {
                lanes.push(Lane::Built);
                compute_audible_slice(&positions, &config, radius, &grid, tx, &mut scratch);
                for &(rx, d) in &scratch {
                    audible.push(NodeId(rx));
                    slot_links.push((Meters(d), Db(UNFILLED)));
                }
            }
            audible_offsets.push(audible.len() as u32);
        }
        shadowing.reserve_slots(audible.len());
        // Construction packs the CSR tight: every slice's live length is
        // its full capacity. Epoch compactions are what introduce slack.
        let audible_lens = audible_offsets.windows(2).map(|w| w[1] - w[0]).collect();
        let live_links = audible.len();
        let mut medium = Medium {
            positions,
            shadowing,
            config,
            slot_links,
            audible,
            audible_offsets,
            audible_lens,
            live_links,
            cull_radius: radius,
            grid,
            lanes,
            deaf_count: 0,
            group_starts: Vec::new(),
            next_tx: 0,
        };
        if let Some((tx_power, cs_threshold)) = silent_fixed {
            let deaf = medium.deaf_receivers(&roles.transmitters, tx_power, cs_threshold);
            for i in (0..n).filter(|&i| deaf[i]) {
                medium.lanes[i] = Lane::Deaf;
                medium.deaf_count += 1;
            }
            medium.partition_slices();
        }
        medium
    }

    /// Stable-partitions every built slice by receiver lane, participants
    /// ([`Lane::Built`]) first, then listeners, then deaf receivers, and
    /// records where each slice's listener and deaf groups start: a
    /// counting pass, then a placing pass over each slice that has a
    /// listener or deaf receiver. Runs before any link is sampled, so
    /// each slot carries only its receiver and `(distance, UNFILLED)`
    /// cell; shadowing state is keyed by link, so no draw depends on a
    /// slot's position.
    fn partition_slices(&mut self) {
        let group = |lane: Lane| match lane {
            Lane::Built => 0,
            Lane::Listening => 1,
            Lane::Deaf => 2,
        };
        let n = self.positions.len();
        let mut group_starts = Vec::with_capacity(n);
        let mut scratch: Vec<(NodeId, (Meters, Db))> = Vec::new();
        for tx in 0..n {
            let (start, end) = self.slice_bounds(tx);
            let mut sizes = [0; 3];
            for &rx in &self.audible[start..end] {
                sizes[group(self.lanes[rx.index()])] += 1;
            }
            let mut next = [start, start + sizes[0], start + sizes[0] + sizes[1]];
            group_starts.push((next[1] as u32, next[2] as u32));
            if sizes[0] == end - start {
                continue;
            }
            scratch.clear();
            scratch.extend(
                self.audible[start..end]
                    .iter()
                    .copied()
                    .zip(self.slot_links[start..end].iter().copied()),
            );
            for &(rx, cell) in &scratch {
                let g = group(self.lanes[rx.index()]);
                self.audible[next[g]] = rx;
                self.slot_links[next[g]] = cell;
                next[g] += 1;
            }
        }
        self.group_starts = group_starts;
    }

    /// Whether station `tx`'s audible slice is stored.
    #[inline]
    fn is_built(&self, tx: usize) -> bool {
        self.lanes[tx] == Lane::Built
    }

    /// The live CSR slot range of transmitter `tx`'s audible slice —
    /// `start + audible_lens[tx]`, *not* the next offset, which past a
    /// compaction may include dead slack capacity.
    #[inline]
    fn slice_bounds(&self, tx: usize) -> (usize, usize) {
        let start = self.audible_offsets[tx] as usize;
        (start, start + self.audible_lens[tx] as usize)
    }

    /// The slot ranges of transmitter `tx`'s participant, listener and
    /// deaf groups (see [`Medium::new`]). Without partitioned slices the
    /// whole slice is participants.
    #[inline]
    fn groups(&self, tx: usize) -> [(usize, usize); 3] {
        let (start, end) = self.slice_bounds(tx);
        let (listen, deaf) = match self.group_starts.get(tx) {
            Some(&(l, d)) => (l as usize, d as usize),
            None => (end, end),
        };
        [(start, listen), (listen, deaf), (deaf, end)]
    }

    /// The CSR slot of the directed link `tx → rx`, if the link survived
    /// culling. Each group of an audible slice is in station order, so
    /// this is a binary search per group.
    #[inline]
    fn slot_of(&self, tx: NodeId, rx: NodeId) -> Option<usize> {
        self.groups(tx.index()).into_iter().find_map(|(a, b)| {
            self.audible[a..b]
                .binary_search_by(|r| r.0.cmp(&rx.0))
                .ok()
                .map(|i| a + i)
        })
    }

    /// The (distance, path loss) of the CSR slot `slot`, filling the
    /// lazy path loss on first touch. Filled entries hold exactly what
    /// recomputing from positions would produce, so cached and recomputed
    /// values are bit-identical (asserted by the bitwise link-cache test).
    #[inline]
    fn slot_link(&mut self, slot: usize) -> (Meters, Db) {
        let (d, pl) = self.slot_links[slot];
        if !pl.0.is_nan() {
            return (d, pl);
        }
        let pl = self.config.path_loss.path_loss(d);
        self.slot_links[slot].1 = pl;
        (d, pl)
    }

    /// The (distance, path loss) of the directed link `tx → rx`: read
    /// from the audible-slice cache when the link has a filled slot,
    /// computed from positions otherwise (without caching — this is the
    /// shared-reference form) — the two are bit-identical by
    /// construction.
    #[inline]
    fn link(&self, tx: NodeId, rx: NodeId) -> (Meters, Db) {
        if let Some(slot) = self.slot_of(tx, rx) {
            let (d, pl) = self.slot_links[slot];
            if !pl.0.is_nan() {
                return (d, pl);
            }
        }
        let d = self.positions[tx.index()].distance_to(self.positions[rx.index()]);
        (d, self.config.path_loss.path_loss(d))
    }

    /// Number of stations on the field.
    pub fn station_count(&self) -> usize {
        self.positions.len()
    }

    /// Position of a station.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// Distance between two stations.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Meters {
        self.position(a).distance_to(self.position(b))
    }

    /// The propagation delay between any pair of stations.
    pub fn propagation_delay(&self) -> SimDuration {
        self.config.propagation_delay
    }

    /// The audible set of `tx`, in station order, or on a partitioned
    /// medium (see [`Medium::new`]) participants, listeners and deaf
    /// receivers, each in station order.
    ///
    /// # Panics
    ///
    /// Panics, naming `tx`, if its slice was not built (see
    /// [`Medium::new`]).
    pub fn audible_set(&self, tx: NodeId) -> &[NodeId] {
        if !self.is_built(tx.index()) {
            unbuilt_slice(tx, "audible_set");
        }
        let (start, end) = self.slice_bounds(tx.index());
        &self.audible[start..end]
    }

    /// Number of receivers in `tx`'s audible set, exact whether or not
    /// its slice is built: O(1) for a built slice, a count-only grid scan
    /// with the slice routine's keep test otherwise (O(neighbourhood),
    /// nothing stored).
    pub fn audible_count(&self, tx: NodeId) -> usize {
        if self.is_built(tx.index()) {
            return self.audible_lens[tx.index()] as usize;
        }
        let mut count = 0;
        for_each_audible(
            &self.positions,
            &self.config,
            self.cull_radius,
            &self.grid,
            tx.index(),
            |_, _| count += 1,
        );
        count
    }

    /// The largest audible set over all transmitters — the most
    /// deliveries any one frame can produce. Counts every station, built
    /// slice or not (see [`Medium::audible_count`]).
    pub fn max_audible_count(&self) -> usize {
        (0..self.positions.len())
            .map(|t| self.audible_count(NodeId(t as u32)))
            .max()
            .unwrap_or(0)
    }

    /// Number of directed links outside every audible set at the current
    /// positions, out of `n·(n−1)` total. Zero under [`CullPolicy::Full`],
    /// whose infinite radius keeps every pair — and zero on all
    /// paper-scale scenarios even under [`CullPolicy::Audible`], which is
    /// what makes culling physics-invisible there (asserted by the
    /// workspace `culling` tests).
    ///
    /// O(1) when every slice is built. On a medium built for a fixed
    /// field's transmitters it counts each unbuilt station's set with
    /// [`Medium::audible_count`]: O(unbuilt × degree). Only tests call
    /// it.
    pub fn culled_link_count(&self) -> usize {
        let n = self.positions.len();
        let unbuilt: usize = (0..n)
            .filter(|&t| !self.is_built(t))
            .map(|t| self.audible_count(NodeId(t as u32)))
            .sum();
        n * n.saturating_sub(1) - self.live_links - unbuilt
    }

    /// Directed links whose state this medium stores: its live CSR
    /// entries, Σ [`Medium::audible_count`] over the stations whose slice
    /// is built. Right after construction this is the link count the
    /// slice scan wrote.
    pub fn built_link_count(&self) -> usize {
        self.live_links
    }

    /// Whether frames skip `station`: a silent station of a fixed field
    /// that no transmitter can make detect a preamble or sense energy
    /// (see [`StationRoles`]). Fixed at construction.
    pub fn is_deaf(&self, station: NodeId) -> bool {
        self.lanes[station.index()] == Lane::Deaf
    }

    /// Whether `station` is a listener: a silent station of a fixed field
    /// that is not deaf, which frames reach through
    /// [`Medium::sample_listeners`] only. Fixed at construction.
    pub fn is_listener(&self, station: NodeId) -> bool {
        self.lanes[station.index()] == Lane::Listening
    }

    /// How many stations [`Medium::is_deaf`] holds for: O(1), counted at
    /// construction.
    pub fn deaf_count(&self) -> usize {
        self.deaf_count
    }

    /// The listeners in `tx`'s audible slice, in station order: silent
    /// stations that are not deaf, which [`Medium::transmit_into`] leaves
    /// to [`Medium::sample_listeners`]. Empty for an unbuilt slice, and
    /// on any medium not built for a fixed field with silent stations.
    pub fn listeners(&self, tx: NodeId) -> &[NodeId] {
        let (a, b) = self.groups(tx.index())[1];
        &self.audible[a..b]
    }

    /// Classifies every station as **deaf** or listening, given the
    /// complete set of stations that may ever transmit (`transmitters`,
    /// one flag per station): a deaf station never transmits, and no
    /// transmitter can ever make it detect a preamble or sense energy.
    ///
    /// With U(T→R) = `tx_power − path_loss − DayProfile::min_excess` the
    /// best-case power at R from transmitter T, R is deaf when both hold
    /// over the transmitters whose audible slice holds R:
    ///
    /// * every U(T→R) is below `cs_threshold`;
    /// * Σ 10^(U/10) stays below the threshold in mW by a 1e-6 relative
    ///   margin (which covers `powf` rounding and the PHY's compensated
    ///   sum).
    ///
    /// Every sampled power is ≤ U bit for bit (the shadowing deviation is
    /// clamped and float subtraction rounds monotonically), so a deaf
    /// receiver that hears at most one signal per transmitter at a time
    /// never locks and never turns carrier-busy (see ARCHITECTURE.md,
    /// "Deaf-receiver elision"). Examines only the transmitters' audible
    /// slices, and computes path losses without filling the link cache.
    ///
    /// # Panics
    ///
    /// Panics if `transmitters.len()` differs from the station count, or,
    /// naming the station, if a flagged transmitter's slice was not built.
    fn deaf_receivers(&self, transmitters: &[bool], tx_power: Dbm, cs_threshold: Dbm) -> Vec<bool> {
        let n = self.positions.len();
        assert_eq!(transmitters.len(), n, "one transmitter flag per station");
        let min_excess = self.config.day.min_excess();
        // Best-case powers summed per receiver, in mW; infinite once one
        // transmitter alone can reach `cs_threshold`, which settles the
        // receiver as listening and skips its remaining links.
        let mut best_sum_mw = vec![0.0f64; n];
        for tx in (0..n).filter(|&t| transmitters[t]) {
            if !self.is_built(tx) {
                unbuilt_slice(NodeId(tx as u32), "deaf_receivers");
            }
            let (start, end) = self.slice_bounds(tx);
            for slot in start..end {
                let rx = self.audible[slot];
                let sum = &mut best_sum_mw[rx.index()];
                if *sum == f64::INFINITY {
                    continue;
                }
                let (_, pl) = self.link(NodeId(tx as u32), rx);
                let best = tx_power - pl - min_excess;
                *sum = if best.0 >= cs_threshold.0 {
                    f64::INFINITY
                } else {
                    *sum + best.to_milliwatts().0
                };
            }
        }
        let threshold_mw = cs_threshold.to_milliwatts().0;
        best_sum_mw
            .iter()
            .zip(transmitters)
            .map(|(&sum, &tx)| !tx && sum * (1.0 + 1e-6) < threshold_mw)
            .collect()
    }

    /// Launches a transmission at `now` from `source`, appending the
    /// signal as it will appear at every participant in `source`'s
    /// audible set (in station order; see [`Medium::new`]) to
    /// `deliveries`, powers sampled at launch (block-fading per frame).
    /// On a medium without listeners or deaf receivers that is the whole
    /// audible set; otherwise [`Medium::sample_listeners`] covers the
    /// listeners, and deaf receivers are skipped.
    ///
    /// `deliveries` must arrive **empty** (debug-asserted): clearing is
    /// hoisted to the caller, which recycles its buffers — a recycled
    /// buffer keeps the capacity its widest slice grew it to, so the
    /// steady-state path neither clears nor allocates here.
    ///
    /// # Panics
    ///
    /// Panics, naming `source`, if its audible slice was not built (see
    /// [`Medium::new`]): the frame would otherwise silently reach nobody.
    #[allow(clippy::too_many_arguments)] // the per-frame signature is flat on purpose
    pub fn transmit_into(
        &mut self,
        source: NodeId,
        tx_power: Dbm,
        rate: PhyRate,
        mpdu_bytes: u32,
        preamble: Preamble,
        now: SimTime,
        deliveries: &mut Vec<(NodeId, TxSignal)>,
    ) -> (TxId, FrameAirtime) {
        debug_assert!(
            deliveries.is_empty(),
            "transmit_into expects an empty delivery buffer"
        );
        #[cfg(debug_assertions)]
        if let CullPolicy::Audible {
            tx_power: bound, ..
        } = self.config.cull
        {
            debug_assert!(
                tx_power.0 <= bound.0,
                "transmit at {tx_power:?} exceeds the audible-set TX power bound {bound:?}"
            );
        }
        let tx_id = TxId(self.next_tx);
        self.next_tx += 1;
        let airtime = FrameAirtime::new(mpdu_bytes, rate, preamble);
        let starts_at = now + self.config.propagation_delay;
        let ends_at = starts_at + airtime.total();
        let [(start, head_end), _, (_, end)] = self.groups(source.index());
        // Only an empty slice can be an unbuilt one, so a built medium
        // pays one compare of bounds it already holds.
        if start == end && !self.is_built(source.index()) {
            unbuilt_slice(source, "transmit_into");
        }
        // One pass over the contiguous participant group: gain read,
        // shadowing advance, and power subtraction per receiver, with the
        // slot index doubling as the shadowing-state index (no
        // per-receiver search or hashing). A deaf receiver's link stream
        // has no other reader, so leaving it unsampled changes no other
        // link.
        for slot in start..head_end {
            let rx = self.audible[slot];
            let (d, pl) = self.slot_link(slot);
            let excess = self.shadowing.sample_slot(slot, source, rx, d, now);
            deliveries.push((
                rx,
                TxSignal {
                    tx_id,
                    source,
                    rx_power: tx_power - pl - excess,
                    rate,
                    mpdu_bytes,
                    preamble,
                    starts_at,
                    ends_at,
                },
            ));
        }
        (tx_id, airtime)
    }

    /// Samples the power at each of `source`'s [listeners](Medium::listeners),
    /// in slice order, for the frame it launched at `now` with
    /// `tx_power`: the values [`Medium::transmit_into`] would have
    /// sampled for them at launch. Each link's shadowing stream is its
    /// own, so sampling a frame's listeners after later frames of other
    /// links changes no draw; only the order of one link's samples
    /// matters, and callers keep it by sampling each source's frames in
    /// launch order.
    pub fn sample_listeners(
        &mut self,
        source: NodeId,
        tx_power: Dbm,
        now: SimTime,
        mut visit: impl FnMut(NodeId, Dbm),
    ) {
        let (from, to) = self.groups(source.index())[1];
        for slot in from..to {
            let rx = self.audible[slot];
            let (d, pl) = self.slot_link(slot);
            let excess = self.shadowing.sample_slot(slot, source, rx, d, now);
            visit(rx, tx_power - pl - excess);
        }
    }

    /// All station positions, indexed by station id. Movement models
    /// read this to derive the next epoch's displacements.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Applies one mobility epoch **incrementally**: moves the given
    /// stations and repairs only the link state their displacement can
    /// have touched, leaving every unmoved pair's cached geometry and
    /// shadowing state byte-for-byte intact (same bits, same RNG
    /// substream position). The result is bitwise-identical to building
    /// the medium afresh at the new positions and transplanting every
    /// unmoved pair's state into it (the unit tests replay every epoch
    /// against a brute-force per-pair oracle that does exactly that).
    ///
    /// The dirty set is bounded by the grid: a station's slice can only
    /// change if it moved or lies within the keep radius of some mover's
    /// old or new position, and the grid over-approximates exactly those
    /// neighbourhoods. Recomputation then uses the same exact-predicate
    /// slice routine as construction, so the bound being a superset costs
    /// work, never correctness. Under [`CullPolicy::Full`] every station
    /// is within reach of a mover, so every slice is recomputed.
    /// Slices are spliced in place while they fit their CSR capacity;
    /// the first growth beyond capacity triggers one compaction that
    /// re-lays the arrays with per-station slack (¼ of the live length,
    /// at least 4 slots), after which splices fit in place again.
    ///
    /// Cost: O(moved neighbourhoods), plus two O(N) flag passes (the
    /// move plan and the dirty set each allocate and scan a
    /// `vec![false; n]`) and O(N + kept links) on a compaction.
    ///
    /// Duplicate moves of one station keep the last position; moves that
    /// leave a station's position bit-identical are ignored.
    ///
    /// # Panics
    ///
    /// Panics if any moved [`NodeId`] is out of range, or if the medium
    /// was built for a fixed field's transmitters (roles that fix
    /// positions and leave some station silent; see [`Medium::new`]).
    pub fn commit_epoch(&mut self, moves: &[(NodeId, Position)]) -> EpochChurn {
        let plan = self.apply_moves(moves);
        let mut churn = EpochChurn {
            moved: plan.moved_count,
            ..EpochChurn::default()
        };
        if plan.movers.is_empty() {
            return churn;
        }
        for &(id, ref old) in &plan.movers {
            self.grid.move_id(id, old, &self.positions[id as usize]);
        }
        if self.cull_radius == f64::NEG_INFINITY {
            // Nothing is ever kept: every slice stays empty.
            return churn;
        }
        let dirty = self.dirty_stations(&plan);
        // Recompute every dirty slice first (flat arena, one slice per
        // `dirty` entry), counting churn against the old live slices;
        // only then mutate, so the capacity check can pick in-place
        // splicing vs. one whole-CSR compaction up front.
        let mut flat: Vec<(u32, f64)> = Vec::new();
        let mut ends: Vec<u32> = Vec::with_capacity(dirty.len());
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        let mut fits_in_place = true;
        for &tx in &dirty {
            compute_audible_slice(
                &self.positions,
                &self.config,
                self.cull_radius,
                &self.grid,
                tx as usize,
                &mut scratch,
            );
            let start = self.audible_offsets[tx as usize] as usize;
            let cap = self.audible_offsets[tx as usize + 1] as usize - start;
            let old_len = self.audible_lens[tx as usize] as usize;
            count_slice_churn(
                &plan.moved,
                tx as usize,
                &self.audible[start..start + old_len],
                &scratch,
                &mut churn,
            );
            fits_in_place &= scratch.len() <= cap;
            flat.extend_from_slice(&scratch);
            ends.push(flat.len() as u32);
        }
        if fits_in_place {
            self.splice_in_place(&plan.moved, &dirty, &flat, &ends);
        } else {
            churn.compactions = 1;
            self.compact_with(&plan.moved, &dirty, &flat, &ends);
        }
        churn
    }

    /// Validates and applies the raw move list: dedups stations (last
    /// position wins), drops bit-identical no-ops, records each real
    /// mover's pre-epoch position, and updates `positions`.
    fn apply_moves(&mut self, moves: &[(NodeId, Position)]) -> EpochPlan {
        // A moved station's unbuilt slice could not be recomputed, nor
        // the churn it defines counted, and a deaf station (never built)
        // could come to hear a transmitter whose link to it was never
        // sampled.
        assert!(
            self.lanes.iter().all(|&l| l == Lane::Built),
            "epoch commits require every audible slice built"
        );
        let n = self.positions.len();
        let mut moved = vec![false; n];
        let mut movers: Vec<(u32, Position)> = Vec::new();
        for &(node, to) in moves {
            let i = node.index();
            let old = self.positions[i];
            if old.x.to_bits() == to.x.to_bits() && old.y.to_bits() == to.y.to_bits() {
                continue;
            }
            if !moved[i] {
                moved[i] = true;
                movers.push((i as u32, old));
            }
            self.positions[i] = to;
        }
        movers.sort_unstable_by_key(|&(id, _)| id);
        EpochPlan {
            moved_count: movers.len() as u32,
            moved,
            movers,
        }
    }

    /// The stations whose audible slice this epoch can have changed:
    /// every mover, plus every station within the keep radius of a
    /// mover's old or new position. A proven — and exact up to the
    /// movers' own neighbours — superset: an unmoved station's slice can
    /// only differ if some mover entered it, left it, or changed
    /// distance inside it, and each of those puts the station within
    /// the radius of that mover's old or new position. Grid
    /// neighbourhoods generate the candidates (movers are already
    /// re-binned at their new cells; a mover audible at its old cell is
    /// dirty by the first rule), the exact distance predicate then
    /// discards the 3×3-cell overhang — without the filter the dirty set
    /// is ~9/π wider and the epoch commit measurably slower at scale.
    /// Ascending station order.
    fn dirty_stations(&self, plan: &EpochPlan) -> Vec<u32> {
        let n = self.positions.len();
        let radius = self.cull_radius;
        let mut dirty = vec![false; n];
        for &(id, ref old) in &plan.movers {
            dirty[id as usize] = true;
            let new = self.positions[id as usize];
            self.grid.for_each_neighbour(old, |t| {
                if old.distance_to(self.positions[t as usize]).0 <= radius {
                    dirty[t as usize] = true;
                }
            });
            self.grid.for_each_neighbour(&new, |t| {
                if new.distance_to(self.positions[t as usize]).0 <= radius {
                    dirty[t as usize] = true;
                }
            });
        }
        (0..n as u32).filter(|&t| dirty[t as usize]).collect()
    }

    /// Replaces each dirty slice inside its existing CSR capacity:
    /// extract the surviving (unmoved-pair) entries, write the
    /// recomputed slice with fresh `(distance, UNFILLED)` cells, then
    /// drop the survivors back onto their receivers — cached bits and
    /// shadowing state relocated, never recomputed. O(dirty slice
    /// lengths) total.
    fn splice_in_place(
        &mut self,
        moved: &[bool],
        dirty: &[u32],
        flat: &[(u32, f64)],
        ends: &[u32],
    ) {
        let mut retained: Vec<(u32, (Meters, Db), SlotEntry)> = Vec::new();
        let mut begin = 0usize;
        for (k, &tx) in dirty.iter().enumerate() {
            let new = &flat[begin..ends[k] as usize];
            begin = ends[k] as usize;
            let start = self.audible_offsets[tx as usize] as usize;
            let old_len = self.audible_lens[tx as usize] as usize;
            retained.clear();
            for i in 0..old_len {
                let slot = start + i;
                let rx = self.audible[slot];
                if moved[tx as usize] || moved[rx.index()] {
                    self.shadowing.clear_slot(slot);
                } else {
                    retained.push((rx.0, self.slot_links[slot], self.shadowing.take_slot(slot)));
                }
            }
            for (i, &(rx, d)) in new.iter().enumerate() {
                let slot = start + i;
                self.audible[slot] = NodeId(rx);
                self.slot_links[slot] = (Meters(d), Db(UNFILLED));
            }
            self.live_links -= old_len;
            self.live_links += new.len();
            self.audible_lens[tx as usize] = new.len() as u32;
            for (rx, cell, entry) in retained.drain(..) {
                let i = new
                    .binary_search_by_key(&rx, |&(r, _)| r)
                    .expect("an unmoved pair's audible membership cannot change");
                let slot = start + i;
                self.slot_links[slot] = cell;
                if entry.is_some() {
                    self.shadowing.put_slot(slot, entry);
                }
            }
        }
    }

    /// The compaction fallback: some dirty slice outgrew its capacity,
    /// so re-lay the whole CSR with per-station slack (live length + ¼,
    /// at least 4 slots), relocating every surviving entry — clean
    /// slices wholesale, dirty slices via the same survivor logic as the
    /// in-place splice — and remapping the shadowing slot store in one
    /// pass. O(N + kept links), amortized away by the slack it installs.
    fn compact_with(&mut self, moved: &[bool], dirty: &[u32], flat: &[(u32, f64)], ends: &[u32]) {
        let n = self.positions.len();
        let mut dirty_index = vec![usize::MAX; n];
        for (k, &tx) in dirty.iter().enumerate() {
            dirty_index[tx as usize] = k;
        }
        let slice_of = |k: usize| {
            let lo = if k == 0 { 0 } else { ends[k - 1] as usize };
            &flat[lo..ends[k] as usize]
        };
        let mut new_offsets = Vec::with_capacity(n + 1);
        new_offsets.push(0u32);
        let mut new_lens = Vec::with_capacity(n);
        let mut total = 0usize;
        for (t, &dix) in dirty_index.iter().enumerate() {
            let len = match dix {
                usize::MAX => self.audible_lens[t] as usize,
                k => slice_of(k).len(),
            };
            new_lens.push(len as u32);
            total += len + (len / 4).max(4);
            new_offsets.push(total as u32);
        }
        let mut new_audible = vec![NodeId(u32::MAX); total];
        let mut new_slot_links = vec![(Meters(UNFILLED), Db(UNFILLED)); total];
        let mut slot_moves: Vec<(u32, u32)> = Vec::with_capacity(self.live_links);
        let mut live = 0usize;
        for t in 0..n {
            let old_start = self.audible_offsets[t] as usize;
            let new_start = new_offsets[t] as usize;
            match dirty_index[t] {
                usize::MAX => {
                    let len = self.audible_lens[t] as usize;
                    for i in 0..len {
                        new_audible[new_start + i] = self.audible[old_start + i];
                        new_slot_links[new_start + i] = self.slot_links[old_start + i];
                        slot_moves.push(((old_start + i) as u32, (new_start + i) as u32));
                    }
                    live += len;
                }
                k => {
                    let new = slice_of(k);
                    for (i, &(rx, d)) in new.iter().enumerate() {
                        new_audible[new_start + i] = NodeId(rx);
                        new_slot_links[new_start + i] = (Meters(d), Db(UNFILLED));
                    }
                    let old_len = self.audible_lens[t] as usize;
                    for i in 0..old_len {
                        let rx = self.audible[old_start + i];
                        if moved[t] || moved[rx.index()] {
                            continue;
                        }
                        let j = new
                            .binary_search_by_key(&rx.0, |&(r, _)| r)
                            .expect("an unmoved pair's audible membership cannot change");
                        new_slot_links[new_start + j] = self.slot_links[old_start + i];
                        slot_moves.push(((old_start + i) as u32, (new_start + j) as u32));
                    }
                    live += new.len();
                }
            }
        }
        self.shadowing.remap_slots(total, &slot_moves);
        self.audible = new_audible;
        self.slot_links = new_slot_links;
        self.audible_offsets = new_offsets;
        self.audible_lens = new_lens;
        self.live_links = live;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathloss::LogDistance;
    use desim::SimRng;

    impl Medium {
        /// Allocating form of [`Medium::transmit_into`], extended to
        /// every receiver that is not deaf: the participants, then the
        /// listeners sampled at the same `now`, merged into station
        /// order — what a driver that keeps listeners in its event loop
        /// scatters.
        fn transmit(
            &mut self,
            source: NodeId,
            tx_power: Dbm,
            rate: PhyRate,
            mpdu_bytes: u32,
            preamble: Preamble,
            now: SimTime,
        ) -> (TxId, FrameAirtime, Vec<(NodeId, TxSignal)>) {
            let mut deliveries = Vec::new();
            let (tx_id, airtime) = self.transmit_into(
                source,
                tx_power,
                rate,
                mpdu_bytes,
                preamble,
                now,
                &mut deliveries,
            );
            let starts_at = now + self.config.propagation_delay;
            let signal = TxSignal {
                tx_id,
                source,
                rx_power: Dbm(f64::NAN),
                rate,
                mpdu_bytes,
                preamble,
                starts_at,
                ends_at: starts_at + airtime.total(),
            };
            self.sample_listeners(source, tx_power, now, |rx, rx_power| {
                deliveries.push((rx, TxSignal { rx_power, ..signal }));
            });
            deliveries.sort_unstable_by_key(|&(rx, _)| rx);
            (tx_id, airtime, deliveries)
        }
    }

    fn medium(positions: Vec<Position>, sigma_zero: bool) -> Medium {
        let day = if sigma_zero {
            DayProfile::still()
        } else {
            DayProfile::clear()
        };
        let roles = StationRoles::unrestricted(positions.len());
        medium_for(positions, day, &roles)
    }

    /// The power `tx` puts on its audible link to `rx` at `now` with
    /// `tx_power`: the slot's path loss and that link's shadowing sample,
    /// the arithmetic [`Medium::transmit_into`] does per receiver.
    fn rx_power(m: &mut Medium, tx: NodeId, rx: NodeId, tx_power: Dbm, now: SimTime) -> Dbm {
        let slot = m.slot_of(tx, rx).expect("an audible link");
        let (d, pl) = m.slot_link(slot);
        let excess = m.shadowing.sample_slot(slot, tx, rx, d, now);
        tx_power - pl - excess
    }

    /// `tx`'s audible set in station order.
    fn station_order(m: &Medium, tx: NodeId) -> Vec<NodeId> {
        let mut set = m.audible_set(tx).to_vec();
        set.sort_unstable();
        set
    }

    /// Asserts that `tx`'s built slice holds its participants, listeners
    /// and deaf receivers in that order, each group in station order, and
    /// that [`Medium::listeners`] is the listener group.
    fn assert_grouped(m: &Medium, tx: NodeId, tag: &str) {
        let set = m.audible_set(tx);
        let key = |rx: NodeId| (m.lanes[rx.index()] as u8, rx);
        assert!(
            set.windows(2).all(|w| key(w[0]) < key(w[1])),
            "{tag} slice of {tx:?} out of group order: {set:?}"
        );
        let listeners: Vec<NodeId> = set
            .iter()
            .copied()
            .filter(|rx| m.lanes[rx.index()] == Lane::Listening)
            .collect();
        assert_eq!(m.listeners(tx), &listeners[..], "{tag} listeners of {tx:?}");
    }

    /// A Full-fanout medium over `positions` on `day`, built from `roles`.
    fn medium_for(positions: Vec<Position>, day: DayProfile, roles: &StationRoles) -> Medium {
        Medium::new(
            positions,
            Shadowing::new(day.clone(), SimRng::from_seed(5)),
            MediumConfig {
                path_loss: LogDistance::anchored_at_free_space_1m(3.0).into(),
                day,
                propagation_delay: SimDuration::from_micros(1),
                cull: CullPolicy::Full,
            },
            roles,
        )
    }

    #[test]
    fn geometry_queries() {
        let m = medium(vec![Position::on_line(0.0), Position::on_line(25.0)], true);
        assert_eq!(m.station_count(), 2);
        assert!((m.distance(NodeId(0), NodeId(1)).0 - 25.0).abs() < 1e-12);
        assert_eq!(m.propagation_delay(), SimDuration::from_micros(1));
    }

    #[test]
    fn rx_power_decreases_with_distance() {
        let mut m = medium(
            vec![
                Position::on_line(0.0),
                Position::on_line(10.0),
                Position::on_line(100.0),
            ],
            true,
        );
        let now = SimTime::ZERO;
        let near = rx_power(&mut m, NodeId(0), NodeId(1), Dbm(15.0), now);
        let far = rx_power(&mut m, NodeId(0), NodeId(2), Dbm(15.0), now);
        assert!(near.0 > far.0 + 25.0, "near {near} vs far {far}");
    }

    #[test]
    fn transmit_delivers_to_all_but_source() {
        let mut m = medium(
            vec![
                Position::on_line(0.0),
                Position::on_line(10.0),
                Position::on_line(20.0),
            ],
            true,
        );
        let now = SimTime::from_millis(1);
        let (tx_id, airtime, deliveries) = m.transmit(
            NodeId(1),
            Dbm(15.0),
            PhyRate::R2,
            112 / 8,
            Preamble::Long,
            now,
        );
        assert_eq!(deliveries.len(), 2);
        assert!(deliveries.iter().all(|(rx, _)| *rx != NodeId(1)));
        for (_, sig) in &deliveries {
            assert_eq!(sig.tx_id, tx_id);
            assert_eq!(sig.starts_at, now + SimDuration::from_micros(1));
            assert_eq!(sig.ends_at - sig.starts_at, airtime.total());
        }
        // Consecutive transmissions get distinct ids.
        let (tx_id2, ..) = m.transmit(NodeId(0), Dbm(15.0), PhyRate::R1, 20, Preamble::Long, now);
        assert_ne!(tx_id, tx_id2);
    }

    /// The link matrix is an optimization, not a behaviour change: the
    /// cached (distance, loss) must be bit-identical to recomputing from
    /// positions, and a scratch-buffer transmit must equal the allocating
    /// form — including the shadowing draws, which depend only on call
    /// order.
    #[test]
    fn link_cache_matches_naive_recomputation_bitwise() {
        let positions = vec![
            Position::on_line(0.0),
            Position::on_line(25.0),
            Position { x: 40.0, y: 30.0 },
            Position::on_line(200.0),
        ];
        let model = LogDistance::anchored_at_free_space_1m(3.0);
        for tx in 0..positions.len() {
            for rx in 0..positions.len() {
                let m = medium(positions.clone(), false);
                let (d, pl) = m.link(NodeId(tx as u32), NodeId(rx as u32));
                let naive_d = positions[tx].distance_to(positions[rx]);
                assert_eq!(d.0.to_bits(), naive_d.0.to_bits(), "{tx}->{rx} distance");
                assert_eq!(
                    pl.0.to_bits(),
                    model.path_loss(naive_d).0.to_bits(),
                    "{tx}->{rx} loss"
                );
            }
        }
        // Two identically seeded media: transmit vs transmit_into agree
        // bit-for-bit. The caller owns clearing now, mirroring World's
        // pooled-buffer discipline.
        let mut a = medium(positions.clone(), false);
        let mut b = medium(positions, false);
        let mut scratch = Vec::new();
        for frame in 0..8u64 {
            let now = SimTime::from_micros(frame * 300);
            let src = NodeId((frame % 4) as u32);
            let (id_a, air_a, dels_a) =
                a.transmit(src, Dbm(15.0), PhyRate::R11, 534, Preamble::Long, now);
            scratch.clear();
            let (id_b, air_b) = b.transmit_into(
                src,
                Dbm(15.0),
                PhyRate::R11,
                534,
                Preamble::Long,
                now,
                &mut scratch,
            );
            assert_eq!(id_a, id_b);
            assert_eq!(air_a.total(), air_b.total());
            assert_eq!(dels_a.len(), scratch.len());
            for ((rx_a, sig_a), (rx_b, sig_b)) in dels_a.iter().zip(&scratch) {
                assert_eq!(rx_a, rx_b);
                assert_eq!(sig_a.rx_power.0.to_bits(), sig_b.rx_power.0.to_bits());
                assert_eq!(sig_a.starts_at, sig_b.starts_at);
                assert_eq!(sig_a.ends_at, sig_b.ends_at);
            }
        }
    }

    fn audible_medium(positions: Vec<Position>, margin: f64) -> Medium {
        let day = DayProfile::clear();
        let roles = StationRoles::unrestricted(positions.len());
        Medium::new(
            positions,
            Shadowing::new(day.clone(), SimRng::from_seed(5)),
            MediumConfig {
                path_loss: LogDistance::anchored_at_free_space_1m(3.0).into(),
                day,
                propagation_delay: SimDuration::from_micros(1),
                cull: CullPolicy::Audible {
                    tx_power: Dbm(15.0),
                    noise_floor: Dbm(-96.6),
                    margin: Db(margin),
                },
            },
            &roles,
        )
    }

    #[test]
    fn audible_sets_cull_unreachable_receivers_only() {
        // With exponent 3.0 the cull horizon at margin 25 dB sits where
        // path loss exceeds 15 + 96.6 + 25 + 16 ≈ 152.6 dB → ~5.6 km.
        // One station far beyond that, three well inside.
        let positions = vec![
            Position::on_line(0.0),
            Position::on_line(50.0),
            Position::on_line(100.0),
            Position::on_line(50_000.0),
        ];
        let m = audible_medium(positions.clone(), CULL_MARGIN_DB);
        // Near stations hear each other but not the far one.
        assert_eq!(
            m.audible_set(NodeId(0)),
            &[NodeId(1), NodeId(2)],
            "far station should be culled from 0's set"
        );
        assert_eq!(m.audible_set(NodeId(3)), &[] as &[NodeId]);
        assert_eq!(m.audible_count(NodeId(1)), 2);
        assert_eq!(m.max_audible_count(), 2);
        // 12 directed links total; 6 involve the far station.
        assert_eq!(m.culled_link_count(), 6);

        // The full policy keeps everything.
        let full = medium(positions, false);
        assert_eq!(full.culled_link_count(), 0);
        assert_eq!(full.max_audible_count(), 3);
        assert_eq!(
            full.audible_set(NodeId(0)),
            &[NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn transmit_scatters_over_audible_set_only() {
        let positions = vec![
            Position::on_line(0.0),
            Position::on_line(50.0),
            Position::on_line(50_000.0),
        ];
        let mut m = audible_medium(positions, CULL_MARGIN_DB);
        let now = SimTime::from_millis(1);
        let (_, _, deliveries) = m.transmit(
            NodeId(0),
            Dbm(15.0),
            PhyRate::R2,
            112 / 8,
            Preamble::Long,
            now,
        );
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, NodeId(1));
        // An isolated transmitter delivers to nobody.
        let (_, _, empty) = m.transmit(
            NodeId(2),
            Dbm(15.0),
            PhyRate::R2,
            112 / 8,
            Preamble::Long,
            now,
        );
        assert!(empty.is_empty());
    }

    /// Culling must never perturb the powers of the links it keeps: the
    /// kept deliveries of a culled medium are bit-identical to the same
    /// links in a full-fanout medium with the same seed, because per-link
    /// shadowing substreams are call-order independent.
    #[test]
    fn kept_links_are_bitwise_unaffected_by_culling() {
        let positions = vec![
            Position::on_line(0.0),
            Position::on_line(60.0),
            Position { x: 30.0, y: 40.0 },
            Position::on_line(40_000.0),
        ];
        let day = DayProfile::clear();
        let mk = |cull: CullPolicy| {
            Medium::new(
                positions.clone(),
                Shadowing::new(day.clone(), SimRng::from_seed(11)),
                MediumConfig {
                    path_loss: LogDistance::anchored_at_free_space_1m(3.0).into(),
                    day: day.clone(),
                    propagation_delay: SimDuration::from_micros(1),
                    cull,
                },
                &StationRoles::unrestricted(4),
            )
        };
        let mut full = mk(CullPolicy::Full);
        let mut culled = mk(CullPolicy::Audible {
            tx_power: Dbm(15.0),
            noise_floor: Dbm(-96.6),
            margin: Db(CULL_MARGIN_DB),
        });
        assert!(culled.culled_link_count() > 0);
        for frame in 0..6u64 {
            let now = SimTime::from_micros(frame * 500);
            let src = NodeId((frame % 3) as u32);
            let (_, _, dels_full) =
                full.transmit(src, Dbm(15.0), PhyRate::R11, 534, Preamble::Long, now);
            let (_, _, dels_culled) =
                culled.transmit(src, Dbm(15.0), PhyRate::R11, 534, Preamble::Long, now);
            for (rx, sig) in &dels_culled {
                let (_, sig_full) = dels_full
                    .iter()
                    .find(|(r, _)| r == rx)
                    .expect("kept link present in full fan-out");
                assert_eq!(
                    sig.rx_power.0.to_bits(),
                    sig_full.rx_power.0.to_bits(),
                    "kept link {src:?}->{rx:?} perturbed by culling"
                );
            }
        }
    }

    /// A deterministic irregular disk: golden-angle spiral.
    fn spiral(n: usize, radius: f64) -> Vec<Position> {
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

    /// The exact keep predicate on one link length — what every audible
    /// set must agree with, pair by pair.
    fn keeps(config: &MediumConfig, d: Meters) -> bool {
        match config.cull {
            CullPolicy::Full => true,
            CullPolicy::Audible {
                tx_power,
                noise_floor,
                margin,
            } => {
                let best_case = tx_power - config.path_loss.path_loss(d) - config.day.min_excess();
                best_case.0 >= noise_floor.0 - margin.0
            }
        }
    }

    /// The brute-force O(N²) oracle for `Medium`'s link state: re-lays
    /// `m`'s CSR tight from the exact keep predicate on every pair at the
    /// current positions, touching neither the grid nor the keep radius.
    /// Only the stations whose lane is `Built` get a slice; the rest get
    /// an empty range. A pair with an
    /// endpoint flagged in `moved` starts fresh — its distance, no path
    /// loss, no shadowing state. Every other pair keeps its old cell and
    /// shadowing state, relocated to its new slot.
    fn oracle_relayout(m: &mut Medium, moved: &[bool]) {
        let n = m.positions.len();
        let mut audible = Vec::new();
        let mut slot_links = Vec::new();
        let mut offsets = vec![0u32];
        let mut slot_moves = Vec::new();
        for tx in 0..n {
            let receivers = if m.is_built(tx) { 0..n } else { 0..0 };
            for rx in receivers.filter(|&rx| rx != tx) {
                let d = m.positions[tx].distance_to(m.positions[rx]);
                if !keeps(&m.config, d) {
                    continue;
                }
                let cell = if moved[tx] || moved[rx] {
                    (d, Db(UNFILLED))
                } else {
                    let old = m
                        .slot_of(NodeId(tx as u32), NodeId(rx as u32))
                        .expect("an unmoved pair keeps its membership");
                    slot_moves.push((old as u32, audible.len() as u32));
                    m.slot_links[old]
                };
                audible.push(NodeId(rx as u32));
                slot_links.push(cell);
            }
            offsets.push(audible.len() as u32);
        }
        m.shadowing.remap_slots(audible.len(), &slot_moves);
        m.audible_lens = offsets.windows(2).map(|w| w[1] - w[0]).collect();
        m.live_links = audible.len();
        m.audible = audible;
        m.slot_links = slot_links;
        m.audible_offsets = offsets;
    }

    /// The oracle's construction: every pair starts fresh, and each
    /// station gets the given lane, so only the `Built` stations' slices
    /// are laid. Only the link state of the returned medium is the
    /// oracle's; its grid indexes no station, so it must never commit an
    /// epoch or count an unbuilt slice itself.
    fn oracle_new(
        positions: Vec<Position>,
        shadowing: Shadowing,
        config: MediumConfig,
        lanes: Vec<Lane>,
    ) -> Medium {
        let n = positions.len();
        let mut m = Medium::new(
            Vec::new(),
            shadowing,
            config,
            &StationRoles::unrestricted(0),
        );
        m.positions = positions;
        m.lanes = lanes;
        oracle_relayout(&mut m, &vec![true; n]);
        m
    }

    /// The lanes fixed roles over `mask` must give: the transmitters'
    /// slices built and, where some station is silent, the receivers
    /// that the all-built medium `all` classifies deaf at `tx_power` and
    /// `cs_threshold` skipped.
    fn expected_lanes(all: &Medium, mask: &[bool], tx_power: Dbm, cs_threshold: Dbm) -> Vec<Lane> {
        if !mask.contains(&false) {
            return vec![Lane::Built; mask.len()];
        }
        let deaf = all.deaf_receivers(mask, tx_power, cs_threshold);
        mask.iter()
            .zip(deaf)
            .map(|(&tx, deaf)| match (tx, deaf) {
                (true, _) => Lane::Built,
                (false, true) => Lane::Deaf,
                (false, false) => Lane::Listening,
            })
            .collect()
    }

    /// The oracle's epoch commit, with [`EpochChurn`] computed from its
    /// definition: links dirtied (recomputed) are the old (new) entries
    /// with a moved endpoint; added and removed are the set differences;
    /// slices are the movers plus every station the predicate keeps from
    /// a mover's old or new position, or none when it keeps nothing at
    /// all; and a compaction happens when some new slice is longer than
    /// `capacity`, the committing medium's pre-epoch CSR capacities.
    fn oracle_commit(
        m: &mut Medium,
        moves: &[(NodeId, Position)],
        capacity: &[usize],
    ) -> EpochChurn {
        let n = m.positions.len();
        let before = m.positions.clone();
        let old_sets: Vec<Vec<NodeId>> = (0..n)
            .map(|t| m.audible_set(NodeId(t as u32)).to_vec())
            .collect();
        let plan = m.apply_moves(moves);
        oracle_relayout(m, &plan.moved);
        let moved = &plan.moved;
        let touched = |t: usize, set: &[NodeId]| {
            set.iter()
                .filter(|rx| moved[t] || moved[rx.index()])
                .count() as u32
        };
        let config = &m.config;
        let movers: Vec<usize> = (0..n).filter(|&k| moved[k]).collect();
        let near_mover = |at: Position| {
            movers.iter().any(|&k| {
                keeps(config, before[k].distance_to(at))
                    || keeps(config, m.positions[k].distance_to(at))
            })
        };
        let mut churn = EpochChurn {
            moved: plan.moved_count,
            ..EpochChurn::default()
        };
        for (t, old) in old_sets.iter().enumerate() {
            let new = m.audible_set(NodeId(t as u32));
            churn.links_dirtied += touched(t, old);
            churn.links_recomputed += touched(t, new);
            churn.audible_added += new.iter().filter(|rx| !old.contains(rx)).count() as u32;
            churn.audible_removed += old.iter().filter(|rx| !new.contains(rx)).count() as u32;
            if keeps(config, Meters(0.0)) && (moved[t] || near_mover(m.positions[t])) {
                churn.slices_recomputed += 1;
            }
            if new.len() > capacity[t] {
                churn.compactions = 1;
            }
        }
        churn
    }

    /// Asserts that `m` holds the oracle's link state bit for bit: the
    /// built slices, the audible sets, every raw cached cell, every
    /// resolved (distance, path loss) against a recomputation from
    /// positions, and every link's shadowing init state; and that every
    /// station's [`Medium::audible_count`], the largest count and the
    /// culled-link count equal the keep predicate counted on every pair.
    /// The oracle lays slices unpartitioned and scatters to every
    /// receiver, so a link to a receiver `m` skips as deaf must hold the
    /// oracle's distance with no path loss and no shadowing state: `m`
    /// never samples it.
    fn assert_matches_oracle(m: &Medium, o: &Medium, tag: &str) {
        let bits = |(d, pl): (Meters, Db)| (d.0.to_bits(), pl.0.to_bits());
        let n = m.station_count();
        assert_eq!(n, o.station_count(), "{tag}");
        assert_eq!(m.next_tx, o.next_tx, "{tag}");
        assert_eq!(m.lanes, o.lanes, "{tag} lanes");
        let mut kept = 0;
        let mut max_kept = 0;
        let mut sampled = 0;
        for t in 0..n {
            let tx = NodeId(t as u32);
            assert_eq!(m.position(tx), o.position(tx), "{tag} position of {tx:?}");
            let count = (0..n)
                .filter(|&rx| {
                    rx != t && keeps(&m.config, m.positions[t].distance_to(m.positions[rx]))
                })
                .count();
            assert_eq!(m.audible_count(tx), count, "{tag} count of {tx:?}");
            kept += count;
            max_kept = max_kept.max(count);
            if !m.is_built(t) {
                let (start, end) = m.slice_bounds(t);
                assert_eq!(start, end, "{tag} unbuilt {tx:?} holds slots");
                continue;
            }
            assert_grouped(m, tx, tag);
            assert_eq!(
                station_order(m, tx),
                o.audible_set(tx),
                "{tag} set of {tx:?}"
            );
            for &rx in m.audible_set(tx) {
                let (sm, so) = (m.slot_of(tx, rx).unwrap(), o.slot_of(tx, rx).unwrap());
                let (cell, init) = if m.is_deaf(rx) {
                    ((o.slot_links[so].0, Db(UNFILLED)), false)
                } else {
                    (o.slot_links[so], o.shadowing.slot_is_init(so))
                };
                sampled += usize::from(init);
                assert_eq!(
                    bits(m.slot_links[sm]),
                    bits(cell),
                    "{tag} cell {tx:?}->{rx:?}"
                );
                let d = m.position(tx).distance_to(m.position(rx));
                assert_eq!(
                    bits(m.link(tx, rx)),
                    bits((d, m.config.path_loss.path_loss(d))),
                    "{tag} link {tx:?}->{rx:?}"
                );
                assert_eq!(
                    m.shadowing.slot_is_init(sm),
                    init,
                    "{tag} shadowing {tx:?}->{rx:?}"
                );
            }
        }
        assert_eq!(m.shadowing.initialised_slots(), sampled, "{tag}");
        assert_eq!(
            m.culled_link_count(),
            n * n.saturating_sub(1) - kept,
            "{tag}"
        );
        assert_eq!(m.max_audible_count(), max_kept, "{tag}");
    }

    /// Sends one frame from `src` on both media and asserts bitwise-equal
    /// deliveries: same transmission id, receivers and powers, once `b`'s
    /// deliveries to the receivers `a` skips as deaf are set aside.
    fn assert_same_frame(
        a: &mut Medium,
        b: &mut Medium,
        src: NodeId,
        tx_power: Dbm,
        now: SimTime,
        tag: &str,
    ) {
        let (id_a, _, da) = a.transmit(src, tx_power, PhyRate::R2, 256, Preamble::Long, now);
        let (id_b, _, mut db) = b.transmit(src, tx_power, PhyRate::R2, 256, Preamble::Long, now);
        db.retain(|(rx, _)| !a.is_deaf(*rx));
        assert_eq!(id_a, id_b, "{tag}");
        assert_eq!(da.len(), db.len(), "{tag} frame from {src:?}");
        for ((rx_a, sa), (rx_b, sb)) in da.iter().zip(&db) {
            assert_eq!(rx_a, rx_b, "{tag}");
            assert_eq!(
                sa.rx_power.0.to_bits(),
                sb.rx_power.0.to_bits(),
                "{tag} frame from {src:?} at {rx_a:?}"
            );
        }
    }

    /// The carrier-sense thresholds every deaf classification check runs
    /// at: the DWL-650's −101.5 dBm, and a less sensitive −80 dBm, at
    /// which more stations are deaf.
    const CS_THRESHOLDS: [Dbm; 2] = [Dbm(-101.5), Dbm(-80.0)];

    /// The transmitter masks every subset-construction check runs: none,
    /// one station, a seeded random third, and all.
    fn subset_masks(n: usize, seed: u64) -> Vec<(&'static str, Vec<bool>)> {
        let mut rng = SimRng::from_seed(seed);
        let mut one = vec![false; n];
        if n > 0 {
            one[n / 2] = true;
        }
        vec![
            ("none", vec![false; n]),
            ("one", one),
            (
                "random",
                (0..n).map(|_| rng.gen_f64() < 1.0 / 3.0).collect(),
            ),
            ("all", vec![true; n]),
        ]
    }

    /// One epoch's move set, drawn from `m`'s current positions.
    #[derive(Debug, Clone, Copy)]
    enum MoveSet {
        /// Every third station jumps up to ~2 km (large jumps, sign
        /// flips, diagonal drift).
        Jump,
        /// A tenth of the stations contract toward the field's centre,
        /// densifying it until some slice outgrows its capacity.
        Contract,
        /// Every fourth station leaves several cells past each side and
        /// corner of the construction-time bounding box, in pairs half a
        /// keep radius apart, into the grid's clamped edge cells.
        Expand,
        /// Nothing but the no-op and duplicate entries every set gets.
        Idle,
    }

    fn moves_for(
        set: MoveSet,
        epoch: usize,
        m: &Medium,
        built: &[Position],
    ) -> Vec<(NodeId, Position)> {
        let n = m.station_count();
        let at = |i: usize| m.positions()[i];
        let mut moves: Vec<(NodeId, Position)> = match set {
            MoveSet::Jump => (epoch % 3..n)
                .step_by(3)
                .map(|i| {
                    let sign = if (i + epoch).is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    };
                    let dx = sign * (((i * 37 + epoch * 101) % 40) as f64) * 60.0;
                    let dy = -sign * (((i * 13 + epoch * 59) % 30) as f64) * 45.0;
                    (
                        NodeId(i as u32),
                        Position {
                            x: at(i).x + dx,
                            y: at(i).y + dy,
                        },
                    )
                })
                .collect(),
            MoveSet::Contract => (epoch % 10..n)
                .step_by(10)
                .map(|i| {
                    let p = at(i);
                    (
                        NodeId(i as u32),
                        Position {
                            x: p.x * 0.45,
                            y: p.y * 0.45 + 80.0,
                        },
                    )
                })
                .collect(),
            MoveSet::Expand => {
                let (lo_x, hi_x, lo_y, hi_y) = built.iter().fold(
                    (
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                    ),
                    |(a, b, c, d), p| (a.min(p.x), b.max(p.x), c.min(p.y), d.max(p.y)),
                );
                let cell = m.grid.geo.cell;
                let cell = if cell.is_finite() { cell } else { 1_000.0 };
                // Half a keep radius, or half a cell where the radius is
                // infinite or keeps nothing.
                let r = m.cull_radius;
                let pair = 0.5 * if r.is_finite() && r > 0.0 { r } else { cell };
                (0..n)
                    .step_by(4)
                    .enumerate()
                    .map(|(k, i)| {
                        let far = (3 + k / 8 * 2) as f64 * cell;
                        let mut to = match (k / 2) % 4 {
                            0 => Position {
                                x: hi_x + far,
                                y: lo_y,
                            },
                            1 => Position {
                                x: lo_x - far,
                                y: hi_y,
                            },
                            2 => Position {
                                x: hi_x + far,
                                y: hi_y + far,
                            },
                            _ => Position {
                                x: lo_x,
                                y: lo_y - far,
                            },
                        };
                        if k % 2 == 1 {
                            to.x += 0.6 * pair;
                            to.y += 0.8 * pair;
                        }
                        (NodeId(i as u32), to)
                    })
                    .collect()
            }
            MoveSet::Idle => Vec::new(),
        };
        if n > 0 {
            // A bit-identical "move" and a repeated entry, which the move
            // plan must drop and dedup.
            let anchor = (epoch + 1) % n;
            moves.push((NodeId(anchor as u32), at(anchor)));
            let first = moves[0];
            moves.push(first);
        }
        moves
    }

    /// Construction and every epoch commit leave the medium exactly what
    /// the brute-force oracle builds: same audible sets in the same
    /// order, bit-identical cached and resolved (distance, path loss) per
    /// link, the same shadowing init state, the same [`EpochChurn`], and
    /// bitwise-equal deliveries from frames sent between epochs (which
    /// consume shadowing state, so survivors carry live RNG positions).
    /// The topologies include stations exactly on cell edges and pairs
    /// exactly at (and one ulp either side of) the keep radius, where the
    /// cell-skipping scan's slack must not cut a kept pair; an empty
    /// field and a lone station. The densifying chain sees both in-place
    /// splices and a compaction of a partly sampled store. Construction
    /// from fixed roles (every mask of `subset_masks`, at both
    /// carrier-sense thresholds of `CS_THRESHOLDS`) matches the oracle
    /// laid for that subset, with the deaf receivers the all-built medium
    /// classifies skipped, before and after frames from each built slice.
    #[test]
    fn medium_matches_brute_force_oracle_bitwise() {
        use crate::pathloss::DualSlope;

        let config = |cull: CullPolicy| MediumConfig {
            path_loss: DualSlope {
                near: LogDistance::anchored_at_free_space_1m(2.42),
                breakpoint: Meters(500.0),
                far_exponent: 4.0,
            }
            .into(),
            day: DayProfile::clear(),
            propagation_delay: SimDuration::from_micros(1),
            cull,
        };
        let shadowing = || Shadowing::new(DayProfile::clear(), SimRng::from_seed(33));
        let zero_horizon = CullPolicy::Audible {
            tx_power: Dbm(-400.0),
            noise_floor: Dbm(-96.6),
            margin: Db(0.0),
        };
        let culls = [
            CullPolicy::Audible {
                tx_power: Dbm(15.0),
                noise_floor: Dbm(-96.6),
                margin: Db(CULL_MARGIN_DB),
            },
            CullPolicy::Full,
            zero_horizon,
        ];
        let none = StationRoles::unrestricted(0);
        assert_eq!(
            Medium::new(Vec::new(), shadowing(), config(zero_horizon), &none).cull_radius,
            f64::NEG_INFINITY
        );
        // The keep radius of the first policy: the lattice below puts
        // stations on its cell edges (the grid's cell side is exactly the
        // radius there, with the origin at 0) and pairs at its boundary.
        let r = Medium::new(Vec::new(), shadowing(), config(culls[0]), &none).cull_radius;
        assert!(r.is_finite() && r > 0.0);
        let up = |v: f64| f64::from_bits(v.to_bits() + 1);
        let down = |v: f64| f64::from_bits(v.to_bits() - 1);
        let mut edge_lattice: Vec<Position> = (0..36)
            .map(|k| Position {
                x: (k % 6) as f64 * r,
                y: (k / 6) as f64 * r,
            })
            .collect();
        // Pairs at exactly r (sqrt(r²) == r), one ulp beyond, one ulp
        // inside, along both axes from a lattice point.
        let base = Position { x: r, y: r };
        edge_lattice.extend([
            Position {
                x: base.x + r,
                y: base.y + 0.5 * r,
            },
            Position {
                x: base.x + 0.5 * r,
                y: base.y + up(r),
            },
            Position {
                x: base.x - down(r),
                y: base.y - 0.5 * r,
            },
            Position {
                x: 0.5 * r,
                y: 0.5 * r + r,
            },
            Position {
                x: 0.5 * r,
                y: 0.5 * r - up(r),
            },
        ]);
        let densifying_chain: Vec<Position> = (0..48)
            .map(|i| Position::on_line(i as f64 * 2_500.0))
            .collect();
        let topologies: Vec<(&str, Vec<Position>)> = vec![
            ("edge lattice", edge_lattice),
            // A long chain with a finite horizon partway down it.
            (
                "chain120",
                (0..120)
                    .map(|i| Position::on_line(i as f64 * 140.0))
                    .collect(),
            ),
            // An irregular disk wider than the horizon.
            ("spiral150", spiral(150, 9_000.0)),
            // Two clusters with a gulf between them.
            (
                "clusters",
                (0..30)
                    .map(|i| Position {
                        x: (i % 6) as f64 * 55.0 + if i >= 15 { 30_000.0 } else { 0.0 },
                        y: (i / 6 % 3) as f64 * 70.0,
                    })
                    .collect(),
            ),
            // Degenerate: everyone in (nearly) one spot.
            (
                "huddle",
                (0..8).map(|i| Position::on_line(i as f64 * 0.25)).collect(),
            ),
            ("densifying chain48", densifying_chain),
            ("empty", Vec::new()),
            ("lone station", vec![Position { x: 3.0, y: -4.0 }]),
        ];
        let mut schedule = vec![MoveSet::Idle];
        schedule.extend([MoveSet::Jump; 3]);
        schedule.extend([MoveSet::Contract; 6]);
        schedule.extend([MoveSet::Expand, MoveSet::Idle]);
        for (name, positions) in &topologies {
            for cull in culls {
                let tag = format!("{name} {cull:?}");
                let tx_power = match cull {
                    CullPolicy::Audible { tx_power, .. } => tx_power,
                    CullPolicy::Full => Dbm(15.0),
                };
                let n = positions.len();
                let all = StationRoles::unrestricted(n);
                let all_built = Medium::new(positions.clone(), shadowing(), config(cull), &all);
                for ((mask_name, mask), cs_threshold) in subset_masks(n, 19)
                    .into_iter()
                    .flat_map(|m| CS_THRESHOLDS.map(|cs| (m.clone(), cs)))
                {
                    let tag = format!("{tag} built for {mask_name} at {cs_threshold:?}");
                    let lanes = expected_lanes(&all_built, &mask, tx_power, cs_threshold);
                    let roles = StationRoles {
                        transmitters: mask,
                        fixed: Some((tx_power, cs_threshold)),
                    };
                    let mut m = Medium::new(positions.clone(), shadowing(), config(cull), &roles);
                    let mut o = oracle_new(positions.clone(), shadowing(), config(cull), lanes);
                    assert_matches_oracle(&m, &o, &tag);
                    let senders: Vec<usize> = (0..n).filter(|&t| roles.transmitters[t]).collect();
                    for (f, &src) in senders.iter().cycle().take(2 * senders.len()).enumerate() {
                        let now = SimTime::from_micros(f as u64 * 700 + 1);
                        assert_same_frame(&mut m, &mut o, NodeId(src as u32), tx_power, now, &tag);
                    }
                    assert_matches_oracle(&m, &o, &format!("{tag} after frames"));
                }
                let mut m = Medium::new(positions.clone(), shadowing(), config(cull), &all);
                let mut o = oracle_new(
                    positions.clone(),
                    shadowing(),
                    config(cull),
                    vec![Lane::Built; n],
                );
                assert_matches_oracle(&m, &o, &format!("{tag} built"));
                let (mut saw_splice, mut saw_compaction, mut saw_partial_compaction) =
                    (false, false, false);
                for (epoch, &set) in schedule.iter().enumerate() {
                    let tag = format!("{tag} epoch {epoch} {set:?}");
                    let moves = moves_for(set, epoch, &m, positions);
                    let capacity: Vec<usize> = m
                        .audible_offsets
                        .windows(2)
                        .map(|w| (w[1] - w[0]) as usize)
                        .collect();
                    let (live, sampled) = (m.live_links, m.shadowing.initialised_slots());
                    let churn = m.commit_epoch(&moves);
                    assert_eq!(
                        churn,
                        oracle_commit(&mut o, &moves, &capacity),
                        "{tag} churn"
                    );
                    assert_matches_oracle(&m, &o, &tag);
                    saw_splice |= churn.compactions == 0 && churn.links_recomputed > 0;
                    saw_compaction |= churn.compactions > 0;
                    saw_partial_compaction |=
                        churn.compactions > 0 && 0 < sampled && sampled < live;
                    for f in 0..4 {
                        if positions.is_empty() {
                            break;
                        }
                        let now = SimTime::from_micros((epoch as u64 * 4 + f) * 700 + 1);
                        let src =
                            NodeId(((epoch as u64 * 7 + f * 13) % positions.len() as u64) as u32);
                        assert_same_frame(
                            &mut m,
                            &mut o,
                            src,
                            tx_power,
                            now,
                            &format!("{tag} frame {f}"),
                        );
                    }
                }
                if *name == "densifying chain48"
                    && matches!(cull, CullPolicy::Audible { tx_power, .. } if tx_power.0 > 0.0)
                {
                    assert!(saw_splice, "{tag}: some commit should splice in place");
                    assert!(saw_compaction, "{tag}: the densifying chain should compact");
                    assert!(
                        saw_partial_compaction,
                        "{tag}: a compaction should remap a partly sampled store"
                    );
                }
            }
        }
    }

    /// Stations uniform on a disk of radius `radius` (m) drawn from `seed`.
    fn random_disk(n: usize, radius: f64, seed: u64) -> Vec<Position> {
        let mut rng = SimRng::from_seed(seed);
        (0..n)
            .map(|_| {
                let r = radius * rng.gen_f64().sqrt();
                let th = std::f64::consts::TAU * rng.gen_f64();
                Position {
                    x: r * th.cos(),
                    y: r * th.sin(),
                }
            })
            .collect()
    }

    /// Asserts that `sub`, built from fixed roles, holds exactly what the
    /// all-built `full` holds for every slice `sub` built — membership,
    /// raw (distance, path loss) cells, shadowing-slot init state — except
    /// that a link to a receiver `sub` skips as deaf keeps its
    /// construction state (distance only, never sampled); and the same
    /// counts for every station, built or not.
    fn assert_subset_matches_full(sub: &Medium, full: &Medium, tag: &str) {
        let bits = |(d, pl): (Meters, Db)| (d.0.to_bits(), pl.0.to_bits());
        let n = sub.station_count();
        let mut built_links = 0;
        for t in 0..n {
            let tx = NodeId(t as u32);
            assert_eq!(
                sub.audible_count(tx),
                full.audible_count(tx),
                "{tag} count of {tx:?}"
            );
            if !sub.is_built(t) {
                continue;
            }
            assert_grouped(sub, tx, tag);
            assert_eq!(
                station_order(sub, tx),
                full.audible_set(tx),
                "{tag} set of {tx:?}"
            );
            built_links += sub.audible_count(tx);
            let (s0, s1) = sub.slice_bounds(t);
            for ss in s0..s1 {
                let rx = sub.audible[ss];
                let fs = full.slot_of(tx, rx).expect("the same audible set");
                let (cell, init) = if sub.is_deaf(rx) {
                    ((full.slot_links[fs].0, Db(UNFILLED)), false)
                } else {
                    (full.slot_links[fs], full.shadowing.slot_is_init(fs))
                };
                assert_eq!(
                    bits(sub.slot_links[ss]),
                    bits(cell),
                    "{tag} cell {tx:?}->{rx:?}"
                );
                assert_eq!(
                    sub.shadowing.slot_is_init(ss),
                    init,
                    "{tag} shadowing {tx:?}->{rx:?}"
                );
            }
        }
        assert_eq!(sub.built_link_count(), built_links, "{tag}");
        assert_eq!(sub.max_audible_count(), full.max_audible_count(), "{tag}");
        assert_eq!(sub.culled_link_count(), full.culled_link_count(), "{tag}");
    }

    /// Roles fix what a medium stores and whom it skips, and nothing any
    /// caller can observe beyond that: on random fields, under every cull
    /// policy, for every mask and at both carrier-sense thresholds, fixed
    /// roles build exactly the transmitters' slices and skip exactly the
    /// receivers the all-built medium classifies deaf; each built slice
    /// matches the all-built medium's bit for bit before and after frames
    /// are sent from it (path losses filled, shadowing slots sampled),
    /// every station's audible count, the largest count and the
    /// culled-link count match, and the frames' deliveries are bitwise
    /// equal to the all-built medium's minus the deaf receivers. Moving
    /// roles over the same mask build every slice and skip no one.
    #[test]
    fn subset_built_medium_matches_the_all_built_one() {
        use crate::pathloss::DualSlope;

        let config = |cull: CullPolicy| MediumConfig {
            path_loss: DualSlope {
                near: LogDistance::anchored_at_free_space_1m(2.42),
                breakpoint: Meters(500.0),
                far_exponent: 4.0,
            }
            .into(),
            day: DayProfile::clear(),
            propagation_delay: SimDuration::from_micros(1),
            cull,
        };
        let shadowing = || Shadowing::new(DayProfile::clear(), SimRng::from_seed(71));
        let culls = [
            CullPolicy::Audible {
                tx_power: Dbm(15.0),
                noise_floor: Dbm(-96.6),
                margin: Db(CULL_MARGIN_DB),
            },
            CullPolicy::Full,
            CullPolicy::Audible {
                tx_power: Dbm(-400.0),
                noise_floor: Dbm(-96.6),
                margin: Db(0.0),
            },
        ];
        let fields = [
            ("disk40 300 m", random_disk(40, 300.0, 1)),
            ("disk90 6 km", random_disk(90, 6_000.0, 2)),
            ("disk160 15 km", random_disk(160, 15_000.0, 3)),
        ];
        let (mut partly_culled_unbuilt, mut split_deafness) = (false, false);
        for (name, positions) in &fields {
            let n = positions.len();
            let all = StationRoles::unrestricted(n);
            for cull in culls {
                let tx_power = match cull {
                    CullPolicy::Audible { tx_power, .. } => tx_power,
                    CullPolicy::Full => Dbm(15.0),
                };
                for (mask_name, mask) in subset_masks(n, 23) {
                    let moving = StationRoles {
                        transmitters: mask.clone(),
                        fixed: None,
                    };
                    let m = Medium::new(positions.clone(), shadowing(), config(cull), &moving);
                    assert!(m.lanes.iter().all(|&l| l == Lane::Built), "{mask_name}");
                    for cs_threshold in CS_THRESHOLDS {
                        let tag =
                            format!("{name} {cull:?} built for {mask_name} at {cs_threshold:?}");
                        let mut full =
                            Medium::new(positions.clone(), shadowing(), config(cull), &all);
                        let roles = StationRoles {
                            transmitters: mask.clone(),
                            fixed: Some((tx_power, cs_threshold)),
                        };
                        let mut sub =
                            Medium::new(positions.clone(), shadowing(), config(cull), &roles);
                        let silent = mask.contains(&false);
                        for (t, &tx) in mask.iter().enumerate() {
                            assert_eq!(sub.is_built(t), tx || !silent, "{tag} {t}");
                        }
                        let deaf: Vec<bool> =
                            (0..n).map(|t| sub.is_deaf(NodeId(t as u32))).collect();
                        assert_eq!(
                            sub.deaf_count(),
                            deaf.iter().filter(|&&d| d).count(),
                            "{tag} deaf count"
                        );
                        if silent {
                            assert_eq!(
                                deaf,
                                full.deaf_receivers(&mask, tx_power, cs_threshold),
                                "{tag} deaf"
                            );
                        } else {
                            assert!(!deaf.contains(&true), "{tag}: no silent station, none deaf");
                        }
                        assert_subset_matches_full(&sub, &full, &tag);
                        partly_culled_unbuilt |= (0..n).any(|t| {
                            !mask[t] && (1..n - 1).contains(&sub.audible_count(NodeId(t as u32)))
                        });
                        split_deafness |=
                            (0..n).any(|t| !mask[t] && !deaf[t]) && deaf.contains(&true);
                        let senders: Vec<usize> = (0..n).filter(|&t| mask[t]).collect();
                        for (f, &src) in senders.iter().cycle().take(3 * senders.len()).enumerate()
                        {
                            let now = SimTime::from_micros(f as u64 * 900 + 1);
                            assert_same_frame(
                                &mut sub,
                                &mut full,
                                NodeId(src as u32),
                                tx_power,
                                now,
                                &tag,
                            );
                        }
                        assert_subset_matches_full(&sub, &full, &format!("{tag} after frames"));
                    }
                }
            }
        }
        assert!(
            partly_culled_unbuilt,
            "some unbuilt station should have a count strictly between 0 and n−1"
        );
        assert!(
            split_deafness,
            "some classification should split silent stations into deaf and listening"
        );
    }

    /// A Full-fanout medium over stations at `xs` (m along a line), built
    /// from fixed roles over `mask` with the DWL-650's TX power and
    /// carrier-sense threshold.
    fn fixed_medium(xs: &[f64], mask: &[bool]) -> Medium {
        let positions = xs.iter().map(|&x| Position::on_line(x)).collect();
        let roles = StationRoles {
            transmitters: mask.to_vec(),
            fixed: Some((Dbm(15.0), Dbm(-101.5))),
        };
        medium_for(positions, DayProfile::clear(), &roles)
    }

    /// A three-station line, 30 m apart: every station hears every other.
    fn subset_medium(mask: &[bool]) -> Medium {
        fixed_medium(&[0.0, 30.0, 60.0], mask)
    }

    #[test]
    #[should_panic(expected = "transmit_into: station 1 has no audible slice")]
    fn transmit_from_an_unbuilt_slice_panics() {
        let mut m = subset_medium(&[true, false, true]);
        m.transmit(
            NodeId(0),
            Dbm(15.0),
            PhyRate::R2,
            100,
            Preamble::Long,
            SimTime::ZERO,
        );
        m.transmit(
            NodeId(1),
            Dbm(15.0),
            PhyRate::R2,
            100,
            Preamble::Long,
            SimTime::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "audible_set: station 2 has no audible slice")]
    fn audible_set_of_an_unbuilt_slice_panics() {
        let m = subset_medium(&[true, false, false]);
        assert_eq!(m.audible_count(NodeId(2)), 2);
        m.audible_set(NodeId(2));
    }

    /// One guard for both premises an epoch commit would break: a
    /// station whose slice is not built, and a deaf one.
    #[test]
    #[should_panic(expected = "epoch commits require every audible slice built")]
    fn epoch_commit_on_a_partly_built_medium_panics() {
        let mut m = fixed_medium(&[0.0, 30.0, 60.0, 60_000.0], &[true, true, false, false]);
        assert!(!m.is_deaf(NodeId(2)) && m.is_deaf(NodeId(3)));
        m.commit_epoch(&[(NodeId(1), Position::on_line(45.0))]);
    }

    #[test]
    #[should_panic(expected = "deaf_receivers: station 0 has no audible slice")]
    fn deaf_receivers_needs_every_transmitter_slice_built() {
        let m = subset_medium(&[false, true, false]);
        m.deaf_receivers(&[true, true, false], Dbm(15.0), Dbm(-101.5));
    }

    /// The cell-skipping scan's efficiency on the large-field shape: a
    /// uniform 4096-station disk of radius 12 km under the calibrated
    /// dual-slope model (exponent 2.42 from 62.6 dB at 1 m, 40 dB/decade
    /// past 500 m). Each station examines only the cells its keep circle
    /// reaches, so candidates stay within 3× the kept links — a plain
    /// 5×5-cell neighbourhood examines ~8.7×.
    #[test]
    fn cell_skipping_scan_examines_under_three_candidates_per_kept_link() {
        use crate::pathloss::DualSlope;

        let mut rng = SimRng::from_seed(4096);
        let positions: Vec<Position> = (0..4096)
            .map(|_| {
                let r = 12_000.0 * rng.gen_f64().sqrt();
                let th = std::f64::consts::TAU * rng.gen_f64();
                Position {
                    x: r * th.cos(),
                    y: r * th.sin(),
                }
            })
            .collect();
        let day = DayProfile::clear();
        let m = Medium::new(
            positions.clone(),
            Shadowing::new(day.clone(), SimRng::from_seed(1)),
            MediumConfig {
                path_loss: DualSlope {
                    near: LogDistance {
                        reference_loss: Db(62.6),
                        reference_distance: Meters(1.0),
                        exponent: 2.42,
                    },
                    breakpoint: Meters(500.0),
                    far_exponent: 4.0,
                }
                .into(),
                day,
                propagation_delay: SimDuration::from_micros(1),
                cull: CullPolicy::Audible {
                    tx_power: Dbm(15.0),
                    noise_floor: Dbm(-96.6),
                    margin: Db(CULL_MARGIN_DB),
                },
            },
            &StationRoles::unrestricted(4096),
        );
        let mut examined = 0usize;
        for p in &positions {
            m.grid.for_each_neighbour(p, |_| examined += 1);
        }
        // Every station's scan also visits the station itself.
        examined -= positions.len();
        let kept = m.live_links;
        assert!(kept > 400_000, "large-field scale: {kept} kept links");
        assert!(
            examined <= 3 * kept,
            "scan examined {examined} candidates for {kept} kept links ({:.2}×)",
            examined as f64 / kept as f64
        );
    }

    /// Construction writes membership and distances only: no shadowing
    /// state and no path loss exist until a station transmits, and a
    /// transmission materializes exactly its own slice's state.
    #[test]
    fn link_state_materializes_on_first_transmit_only() {
        let positions = spiral(200, 9_000.0);
        let n = positions.len();
        let mut m = audible_medium(positions, CULL_MARGIN_DB);
        assert!(m.live_links > 0);
        assert_eq!(
            m.shadowing.initialised_slots(),
            0,
            "construction samples nothing"
        );
        assert!(m.slot_links.iter().all(|(_, pl)| pl.0.is_nan()));
        let talkers = [3usize, 50, 51, 120, 199];
        for (k, &t) in talkers.iter().enumerate() {
            let now = SimTime::from_micros(300 * k as u64 + 1);
            m.transmit(
                NodeId(t as u32),
                Dbm(15.0),
                PhyRate::R2,
                256,
                Preamble::Long,
                now,
            );
        }
        let mut expect = 0usize;
        for tx in 0..n {
            let (start, end) = m.slice_bounds(tx);
            let talked = talkers.contains(&tx);
            if talked {
                expect += end - start;
            }
            for slot in start..end {
                assert_eq!(
                    m.shadowing.slot_is_init(slot),
                    talked,
                    "slot {slot} of {tx}"
                );
                assert_eq!(
                    !m.slot_links[slot].1 .0.is_nan(),
                    talked,
                    "loss {slot} of {tx}"
                );
            }
        }
        assert!(expect > 0);
        assert_eq!(m.shadowing.initialised_slots(), expect);
    }

    /// Move-plan validation: empty commits, bit-identical no-ops and
    /// duplicate entries (last position wins).
    #[test]
    fn epoch_move_plan_validates_inputs() {
        let positions = vec![
            Position::on_line(0.0),
            Position::on_line(50.0),
            Position::on_line(100.0),
        ];
        let mut m = medium(positions.clone(), false);
        assert_eq!(m.commit_epoch(&[]), EpochChurn::default());
        // A bit-identical "move" is a no-op commit.
        let noop = m.commit_epoch(&[(NodeId(1), positions[1])]);
        assert_eq!(noop, EpochChurn::default());
        // Duplicates: the last position wins, and the station counts once.
        let churn = m.commit_epoch(&[
            (NodeId(1), Position::on_line(999.0)),
            (NodeId(1), Position::on_line(60.0)),
        ]);
        assert_eq!(churn.moved, 1);
        assert_eq!(m.position(NodeId(1)).x, 60.0);
        // Full fan-out: membership never changes, only moved-pair state
        // resets (2 slice entries + 2 reverse entries here).
        assert_eq!(churn.audible_added, 0);
        assert_eq!(churn.audible_removed, 0);
        assert_eq!(churn.links_dirtied, 4);
        assert_eq!(churn.links_recomputed, 4);
    }

    /// Skipping a receiver draws nothing from any other link: the other
    /// receivers' powers are bitwise those of a medium that skips none.
    /// The skipped receivers are the deaf ones fixed roles leave: two
    /// silent stations kilometres from every transmitter, while a silent
    /// one among them still listens.
    #[test]
    fn elided_receivers_leave_other_links_bitwise_unchanged() {
        let xs = [0.0, 40.0, 3_000.0, 80.0, 6_000.0, 120.0, 160.0];
        let mask = [true, true, false, true, false, false, true];
        let mut elided = fixed_medium(&xs, &mask);
        let skip: Vec<bool> = (0..xs.len())
            .map(|t| elided.is_deaf(NodeId(t as u32)))
            .collect();
        assert_eq!(skip, [false, false, true, false, true, false, false]);
        let positions: Vec<Position> = xs.iter().map(|&x| Position::on_line(x)).collect();
        let mut full = medium_for(
            positions,
            DayProfile::clear(),
            &StationRoles::unrestricted(7),
        );
        let senders: Vec<u32> = (0..7).filter(|&t| mask[t as usize]).collect();
        for frame in 0..12u64 {
            let now = SimTime::from_micros(frame * 700);
            let src = NodeId(senders[frame as usize % senders.len()]);
            let (_, _, all) = full.transmit(src, Dbm(15.0), PhyRate::R2, 100, Preamble::Long, now);
            let (_, _, kept) =
                elided.transmit(src, Dbm(15.0), PhyRate::R2, 100, Preamble::Long, now);
            let expected: Vec<_> = all.iter().filter(|(rx, _)| !skip[rx.index()]).collect();
            assert!(expected.len() < all.len());
            assert_eq!(kept.len(), expected.len());
            for ((rx_a, a), (rx_b, b)) in expected.into_iter().zip(&kept) {
                assert_eq!(rx_a, rx_b);
                assert_eq!(a.rx_power.0.to_bits(), b.rx_power.0.to_bits());
            }
        }
    }

    /// Listeners sampled after dispatch see bitwise the powers an
    /// in-order scatter gives them: `late` scatters each frame's
    /// participants at launch and samples every frame's listeners only
    /// after the last launch, in launch order, while `now` samples both
    /// at launch. Frames alternate between senders, so other links'
    /// samples (and the AR(1) memo) interleave between a link's own.
    #[test]
    fn listeners_sampled_after_dispatch_match_an_in_order_scatter() {
        let xs = [0.0, 40.0, 70.0, 3_000.0, 110.0, 6_000.0, 150.0, 190.0];
        let mask = [true, false, true, false, false, false, true, false];
        let mut now_medium = fixed_medium(&xs, &mask);
        let mut late = fixed_medium(&xs, &mask);
        assert!(late.is_deaf(NodeId(5)) && !late.is_deaf(NodeId(1)));
        assert_eq!(
            late.listeners(NodeId(0)),
            &[NodeId(1), NodeId(4), NodeId(7)]
        );
        let senders = [0u32, 2, 6];
        let mut launched = Vec::new();
        let mut expected = Vec::new();
        for frame in 0..15u64 {
            let now = SimTime::from_micros(frame * 650 + frame * frame * 37);
            let src = NodeId(senders[frame as usize % 3]);
            let (_, _, all) =
                now_medium.transmit(src, Dbm(15.0), PhyRate::R2, 100, Preamble::Long, now);
            let mut head = Vec::new();
            late.transmit_into(
                src,
                Dbm(15.0),
                PhyRate::R2,
                100,
                Preamble::Long,
                now,
                &mut head,
            );
            for (rx, sig) in &all {
                if mask[rx.index()] {
                    let (_, h) = head.iter().find(|(r, _)| r == rx).expect("a participant");
                    assert_eq!(h.rx_power.0.to_bits(), sig.rx_power.0.to_bits());
                } else {
                    expected.push((*rx, sig.rx_power));
                }
            }
            assert_eq!(head.len() + late.listeners(src).len(), all.len());
            launched.push((src, now));
        }
        let mut sampled = Vec::new();
        for (src, now) in launched {
            late.sample_listeners(src, Dbm(15.0), now, |rx, p| sampled.push((rx, p)));
        }
        assert_eq!(sampled.len(), expected.len());
        assert!(!sampled.is_empty());
        for ((rx_a, a), (rx_b, b)) in sampled.iter().zip(&expected) {
            assert_eq!(rx_a, rx_b);
            assert_eq!(a.0.to_bits(), b.0.to_bits());
        }
    }

    #[test]
    fn shadowed_link_varies_but_still_link_does_not() {
        let mut still = medium(vec![Position::on_line(0.0), Position::on_line(50.0)], true);
        let a = rx_power(
            &mut still,
            NodeId(0),
            NodeId(1),
            Dbm(15.0),
            SimTime::from_secs(1),
        );
        let b = rx_power(
            &mut still,
            NodeId(0),
            NodeId(1),
            Dbm(15.0),
            SimTime::from_secs(30),
        );
        assert_eq!(a.0, b.0);

        let mut varying = medium(vec![Position::on_line(0.0), Position::on_line(50.0)], false);
        let a = rx_power(
            &mut varying,
            NodeId(0),
            NodeId(1),
            Dbm(15.0),
            SimTime::from_secs(1),
        );
        let b = rx_power(
            &mut varying,
            NodeId(0),
            NodeId(1),
            Dbm(15.0),
            SimTime::from_secs(30),
        );
        assert_ne!(a.0, b.0, "time-varying channel should move over 29 s");
    }
}
