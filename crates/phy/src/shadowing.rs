//! Time-correlated log-normal shadowing with per-day weather profiles.
//!
//! The paper stresses that the channel is **time-varying and asymmetric**:
//! the same link measured on different days (and within one session) shows
//! different loss (their Figure 4, footnote 4, and the non-monotonic
//! points of Figure 3). We model the deviation from deterministic path
//! loss as two per-directed-link components in dB:
//!
//! * a **slow** (session-scale) log-normal term, drawn once per link per
//!   run — antennas, ground moisture, people walking by: this is what
//!   makes two sessions at the same distance measure different loss;
//! * a **fast** Gauss–Markov (AR(1)) term with coherence time `τ`:
//!
//! ```text
//! X(t+Δ) = ρ X(t) + σ_f √(1-ρ²) N(0,1),   ρ = exp(-Δ/τ)
//! ```
//!
//! A [`DayProfile`] adds a constant weather offset and selects the random
//! stream, so "2002-12-06" and "2002-12-09" are reproducible distinct
//! days. Keying the state on the *directed* pair (a→b) yields the
//! asymmetric channels the paper observed.

use std::collections::HashMap;
use std::mem::MaybeUninit;

use desim::{SimDuration, SimRng, SimTime};

use crate::units::{Db, Meters, NodeId};

/// Hard bound on the total random deviation (slow + fast, dB) a single
/// [`Shadowing::sample`] may return around the profile's `extra_loss`.
///
/// The deviation is clamped at *read time*; the underlying AR(1)/slow
/// state evolves unclamped, so trajectories are unchanged and only the
/// astronomically rare excursion is truncated. For every shipped profile
/// the combined σ is at most ≈2.9 dB, putting the bound past 5.5σ —
/// P(hit) < 2·10⁻⁸ per sample, far below one expected hit across all
/// golden runs. What the clamp buys is a *strict* link-budget bound: the
/// received power on a link can never exceed
/// `tx_power − path_loss − extra_loss + DEVIATION_BOUND_DB`, which is
/// what makes the audible-set culling in [`crate::Medium`] sound rather
/// than merely probabilistic (see `ARCHITECTURE.md`, "Audible sets").
pub const DEVIATION_BOUND_DB: f64 = 16.0;

/// Weather/epoch profile for a measurement day.
///
/// # Example
///
/// ```
/// use dot11_phy::DayProfile;
/// let clear = DayProfile::clear();
/// let rainy = DayProfile::rainy();
/// assert!(rainy.extra_loss.0 > clear.extra_loss.0);
/// ```
#[derive(Debug, Clone)]
pub struct DayProfile {
    /// Human-readable label, e.g. `"2002-12-06"`.
    pub name: String,
    /// Constant extra attenuation on every link (weather, humidity).
    pub extra_loss: Db,
    /// Standard deviation of the slow (per-session, per-link) component.
    pub sigma_slow: Db,
    /// Standard deviation of the fast AR(1) component.
    pub sigma_fast: Db,
    /// Coherence time of the fast component.
    pub coherence: SimDuration,
    /// Distance at which the sigmas reach full strength. Short links are
    /// line-of-sight on the open field and shadow little; the variance
    /// ramps linearly up to this distance (σ_eff = σ · min(1, d/d_full)).
    pub sigma_full_distance: Meters,
    /// Salt mixed into the random stream so different days decorrelate.
    pub seed_salt: u64,
}

impl DayProfile {
    /// A clear, dry day — the paper's 2002-12-06 session (longer ranges).
    pub fn clear() -> DayProfile {
        DayProfile {
            name: "2002-12-06 (clear)".to_owned(),
            extra_loss: Db(0.0),
            sigma_slow: Db(2.0),
            sigma_fast: Db(1.0),
            coherence: SimDuration::from_millis(300),
            sigma_full_distance: Meters(75.0),
            seed_salt: 0x2002_1206,
        }
    }

    /// A damp day — the paper's 2002-12-09 session, with visibly shorter
    /// ranges (their Figure 4).
    pub fn rainy() -> DayProfile {
        DayProfile {
            name: "2002-12-09 (damp)".to_owned(),
            extra_loss: Db(4.0),
            sigma_slow: Db(2.6),
            sigma_fast: Db(1.2),
            coherence: SimDuration::from_millis(300),
            sigma_full_distance: Meters(75.0),
            seed_salt: 0x2002_1209,
        }
    }

    /// A hypothetical still channel (no shadowing) — ablation D4: with
    /// σ = 0 the loss-vs-distance curves become knife edges, unlike the
    /// paper's gradual Figure 3 transitions.
    pub fn still() -> DayProfile {
        DayProfile {
            name: "still channel (ablation)".to_owned(),
            extra_loss: Db(0.0),
            sigma_slow: Db(0.0),
            sigma_fast: Db(0.0),
            coherence: SimDuration::from_millis(300),
            sigma_full_distance: Meters(75.0),
            seed_salt: 0,
        }
    }

    /// Lower bound (dB) on the excess loss any [`Shadowing::sample`] call
    /// under this profile can ever return, i.e. the *best case* for a
    /// receiver. With both sigmas zero the sample short-circuits to
    /// exactly `extra_loss`; otherwise the read-time clamp guarantees the
    /// random deviation never exceeds [`DEVIATION_BOUND_DB`] in the
    /// receiver's favour. [`crate::Medium`] uses this to build sound
    /// audible sets.
    pub fn min_excess(&self) -> Db {
        if self.sigma_slow.0 == 0.0 && self.sigma_fast.0 == 0.0 {
            self.extra_loss
        } else {
            Db(self.extra_loss.0 - DEVIATION_BOUND_DB)
        }
    }
}

impl Default for DayProfile {
    fn default() -> Self {
        DayProfile::clear()
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkState {
    at: SimTime,
    slow_db: f64,
    fast_db: f64,
}

/// One link's AR(1)/slow state plus its private substream.
type LinkEntry = (LinkState, SimRng);

/// One dense-store cell as [`crate::Medium`]'s epoch commit moves it
/// around: the link's state, or `None` before first sample.
pub(crate) type SlotEntry = Option<LinkEntry>;

// Cells are never dropped in place (clearing a slot only unsets its
// init bit), which is sound only while the state owns no resources.
const _: () = assert!(!std::mem::needs_drop::<LinkEntry>());

/// The dense per-link state store: one cell per CSR audible slot of the
/// owning [`crate::Medium`], initialised on first sample.
///
/// Cells are uninitialised memory plus an init bitset, so sizing the
/// store for `n` links writes `n / 8` bytes of bitset and leaves the
/// cells' pages untouched — a 4096-station field with ~460k kept links
/// pays for the few links its transmitters actually sample, not for
/// 33 MB of `None`s. Bit `slot` is set exactly when cell `slot` holds a
/// live [`LinkEntry`].
struct SlotStore {
    cells: Box<[MaybeUninit<LinkEntry>]>,
    init: Box<[u64]>,
}

// The crate denies `unsafe_code`; this impl is the one exception. Reading
// an uninitialised cell needs `unsafe`, and `Option` cells would make
// sizing the store write every cell — on a 4096-station field that is the
// difference between ~23 and ~72 MiB peak RSS.
#[allow(unsafe_code)]
impl SlotStore {
    fn with_len(n: usize) -> SlotStore {
        SlotStore {
            cells: Box::new_uninit_slice(n),
            init: vec![0; n.div_ceil(64)].into_boxed_slice(),
        }
    }

    fn len(&self) -> usize {
        self.cells.len()
    }

    fn is_init(&self, slot: usize) -> bool {
        assert!(slot < self.len(), "slot {slot} out of range {}", self.len());
        self.init[slot / 64] & (1 << (slot % 64)) != 0
    }

    fn initialised(&self) -> usize {
        self.init.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn take(&mut self, slot: usize) -> SlotEntry {
        if !self.is_init(slot) {
            return None;
        }
        self.init[slot / 64] &= !(1 << (slot % 64));
        // SAFETY: the init bit was set, so the cell holds a live entry;
        // clearing the bit first means it is read out exactly once.
        Some(unsafe { self.cells[slot].assume_init_read() })
    }

    fn put(&mut self, slot: usize, entry: SlotEntry) {
        let bit = 1 << (slot % 64);
        match entry {
            Some(e) => {
                self.cells[slot].write(e);
                self.init[slot / 64] |= bit;
            }
            None => self.init[slot / 64] &= !bit,
        }
    }

    /// The entry of `slot`, initialised with `init()` on first access.
    fn get_or_init(&mut self, slot: usize, init: impl FnOnce() -> LinkEntry) -> &mut LinkEntry {
        let cell = &mut self.cells[slot];
        let (word, bit) = (&mut self.init[slot / 64], 1u64 << (slot % 64));
        if *word & bit == 0 {
            cell.write(init());
            *word |= bit;
        }
        // SAFETY: the bit is set, so the cell holds a live entry.
        unsafe { cell.assume_init_mut() }
    }
}

impl std::fmt::Debug for SlotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotStore")
            .field("len", &self.len())
            .field("initialised", &self.initialised())
            .finish()
    }
}

/// Initializes the state for the directed link `tx → rx`: derive the
/// link's substream from the 15-byte `"shadow/" + tx + rx` label and draw
/// the slow then fast components, exactly as every prior revision did —
/// the label bytes and draw order are load-bearing for byte-identity.
fn init_link_state(
    master: &SimRng,
    tx: NodeId,
    rx: NodeId,
    slow: f64,
    fast: f64,
    now: SimTime,
) -> (LinkState, SimRng) {
    let mut label = [0u8; 15];
    label[..7].copy_from_slice(b"shadow/");
    label[7..11].copy_from_slice(&tx.0.to_le_bytes());
    label[11..15].copy_from_slice(&rx.0.to_le_bytes());
    let mut rng = master.substream(&label);
    let slow_db = rng.gen_normal(0.0, slow);
    let fast_db = rng.gen_normal(0.0, fast);
    (
        LinkState {
            at: now,
            slow_db,
            fast_db,
        },
        rng,
    )
}

/// Advances the AR(1) fast component to `now` and returns the clamped
/// total excess loss. `memo` caches `(ρ, √(1-ρ²))` keyed on the raw bits
/// of `dt`: every audible link of one transmitter advances with the same
/// `dt` (links are only sampled when that station transmits), so one
/// `exp`+`sqrt` pair serves the whole scatter slice. The innovation is
/// still drawn per link, keeping the sample stream byte-identical.
fn advance_and_read(
    state: &mut LinkState,
    rng: &mut SimRng,
    extra_loss: f64,
    fast: f64,
    tau: f64,
    now: SimTime,
    memo: &mut Option<(u64, f64, f64)>,
) -> Db {
    let dt = now.saturating_duration_since(state.at).as_secs_f64();
    if dt > 0.0 && fast > 0.0 {
        let (rho, root) = match *memo {
            Some((bits, rho, root)) if bits == dt.to_bits() => (rho, root),
            _ => {
                let rho = (-dt / tau).exp();
                let root = (1.0 - rho * rho).sqrt();
                *memo = Some((dt.to_bits(), rho, root));
                (rho, root)
            }
        };
        let innov = fast * root;
        state.fast_db = rho * state.fast_db + rng.gen_normal(0.0, innov.max(0.0));
        state.at = now;
    }
    let deviation = (state.slow_db + state.fast_db).clamp(-DEVIATION_BOUND_DB, DEVIATION_BOUND_DB);
    Db(extra_loss + deviation)
}

/// The per-link shadowing process for one simulation run.
///
/// Link state lives in one of two stores, and each directed link uses
/// exactly one of them for its whole lifetime (the AR(1) state is
/// sequential, so splitting a link across stores would fork its stream):
///
/// * a dense `slots` lane indexed by the owning [`crate::Medium`]'s CSR
///   audible slot — the hot scatter path, no hashing;
/// * a `HashMap` fallback for arbitrary pairs outside the audible sets
///   (probes, tests, culled links queried directly).
#[derive(Debug)]
pub struct Shadowing {
    profile: DayProfile,
    master: SimRng,
    links: HashMap<(NodeId, NodeId), (LinkState, SimRng)>,
    slots: SlotStore,
    /// AR(1) coefficient memo `(dt_bits, ρ, √(1-ρ²))`: every audible
    /// link of one transmitter advances with the same `dt`, so one
    /// `exp`+`sqrt` pair serves the whole scatter slice.
    ar1_memo: Option<(u64, f64, f64)>,
}

impl Shadowing {
    /// Creates the process for `profile`, deriving all link streams from
    /// `master` (pass a substream of the run's master seed).
    pub fn new(profile: DayProfile, master: SimRng) -> Shadowing {
        let master = master.substream(&profile.seed_salt.to_le_bytes());
        Shadowing {
            profile,
            master,
            links: HashMap::new(),
            slots: SlotStore::with_len(0),
            ar1_memo: None,
        }
    }

    /// The active day profile.
    pub fn profile(&self) -> &DayProfile {
        &self.profile
    }

    /// Sizes the dense slot store to `n` slots, keeping the state of any
    /// already-sampled slot below `n`. Called once by [`crate::Medium`]
    /// with the total CSR audible-slot count; slots initialize lazily on
    /// first sample, so sizing writes only the init bitset.
    pub fn reserve_slots(&mut self, n: usize) {
        let keep: Vec<(u32, u32)> = (0..self.slots.len().min(n) as u32)
            .map(|slot| (slot, slot))
            .collect();
        self.remap_slots(n, &keep);
    }

    /// The slow and fast sigmas (dB) of a link `distance` long: the
    /// profile's, ramped up linearly to full strength at
    /// [`DayProfile::sigma_full_distance`].
    fn sigmas(&self, distance: Meters) -> (f64, f64) {
        let scale = (distance.0 / self.profile.sigma_full_distance.0.max(1e-9)).clamp(0.0, 1.0);
        (
            self.profile.sigma_slow.0 * scale,
            self.profile.sigma_fast.0 * scale,
        )
    }

    /// Samples the total excess loss (weather offset + shadowing) on the
    /// directed link `tx → rx` of length `distance` at time `now`.
    ///
    /// Consecutive samples on the same link are correlated with
    /// coherence time `τ`; samples on different links (including the
    /// reverse direction) are independent. Variance ramps with distance
    /// (see [`DayProfile::sigma_full_distance`]).
    ///
    /// This is the HashMap-backed path for pairs without a CSR slot; a
    /// slotted link must go through [`Shadowing::sample_slot`] instead.
    pub fn sample(&mut self, tx: NodeId, rx: NodeId, distance: Meters, now: SimTime) -> Db {
        let (slow, fast) = self.sigmas(distance);
        if slow == 0.0 && fast == 0.0 {
            return self.profile.extra_loss;
        }
        let tau = self.profile.coherence.as_secs_f64().max(1e-9);
        let (state, rng) = self
            .links
            .entry((tx, rx))
            .or_insert_with(|| init_link_state(&self.master, tx, rx, slow, fast, now));
        advance_and_read(
            state,
            rng,
            self.profile.extra_loss.0,
            fast,
            tau,
            now,
            &mut self.ar1_memo,
        )
    }

    /// Same process as [`Shadowing::sample`], but the link state lives in
    /// the dense slot `slot` (the link's index in the owning `Medium`'s
    /// CSR audible arrays) — no hashing on the scatter hot path. The
    /// AR(1) memo persists across calls on the owned process (one
    /// `exp`+`sqrt` serves a whole scatter slice).
    pub fn sample_slot(
        &mut self,
        slot: usize,
        tx: NodeId,
        rx: NodeId,
        distance: Meters,
        now: SimTime,
    ) -> Db {
        let (slow, fast) = self.sigmas(distance);
        if slow == 0.0 && fast == 0.0 {
            return self.profile.extra_loss;
        }
        let tau = self.profile.coherence.as_secs_f64().max(1e-9);
        let master = &self.master;
        let (state, rng) = self
            .slots
            .get_or_init(slot, || init_link_state(master, tx, rx, slow, fast, now));
        advance_and_read(
            state,
            rng,
            self.profile.extra_loss.0,
            fast,
            tau,
            now,
            &mut self.ar1_memo,
        )
    }

    // ---- epoch-commit support (crate-internal) ----------------------
    //
    // [`crate::Medium::commit_epoch`] relocates surviving link state when
    // the CSR layout changes and drops state whose endpoint moved. All of
    // this is mechanical slot surgery: the per-link process itself (the
    // substream label, the slow-then-fast draw order, the AR(1) advance)
    // is untouched, and `init_link_state` is a pure function of
    // `(master, tx, rx)` — which together are what make an incremental
    // epoch bitwise-identical to building the medium afresh at the new
    // positions and transplanting every unmoved pair's state.

    /// Removes and returns the state of dense slot `slot`.
    pub(crate) fn take_slot(&mut self, slot: usize) -> SlotEntry {
        self.slots.take(slot)
    }

    /// Installs `entry` at dense slot `slot` (used to relocate a
    /// surviving link's state to its new CSR slot).
    pub(crate) fn put_slot(&mut self, slot: usize, entry: SlotEntry) {
        self.slots.put(slot, entry);
    }

    /// Drops the state of dense slot `slot`: the next sample re-derives
    /// it from the master stream exactly as a fresh construction would.
    pub(crate) fn clear_slot(&mut self, slot: usize) {
        self.slots.put(slot, None);
    }

    /// Whether dense slot `slot` holds link state — i.e. has been sampled
    /// since construction or since its last clear.
    #[cfg(test)]
    pub(crate) fn slot_is_init(&self, slot: usize) -> bool {
        self.slots.is_init(slot)
    }

    /// How many dense slots hold link state.
    #[cfg(test)]
    pub(crate) fn initialised_slots(&self) -> usize {
        self.slots.initialised()
    }

    /// Rebuilds the dense store at `new_len` slots, relocating each
    /// `(from, to)` entry of `moves` and dropping everything else.
    /// Destination slots must be distinct.
    pub(crate) fn remap_slots(&mut self, new_len: usize, moves: &[(u32, u32)]) {
        let mut old = std::mem::replace(&mut self.slots, SlotStore::with_len(new_len));
        for &(from, to) in moves {
            self.slots.put(to as usize, old.take(from as usize));
        }
    }

    /// Drops every HashMap-backed link whose endpoint is flagged in
    /// `moved` (indexed by station id; out-of-range ids — probe pairs
    /// tests invent — count as unmoved).
    pub(crate) fn retain_unmoved_links(&mut self, moved: &[bool]) {
        self.links.retain(|&(a, b), _| {
            !moved.get(a.index()).copied().unwrap_or(false)
                && !moved.get(b.index()).copied().unwrap_or(false)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn process(profile: DayProfile, seed: u64) -> Shadowing {
        Shadowing::new(profile, SimRng::from_seed(seed))
    }

    #[test]
    fn still_profile_is_deterministic_offset() {
        let mut s = process(DayProfile::still(), 1);
        for k in 0..10 {
            let v = s.sample(
                NodeId(0),
                NodeId(1),
                Meters(100.0),
                SimTime::from_millis(k * 10),
            );
            assert_eq!(v.0, 0.0);
        }
    }

    #[test]
    fn same_seed_reproduces_samples() {
        let mut a = process(DayProfile::clear(), 42);
        let mut b = process(DayProfile::clear(), 42);
        for k in 0..50 {
            let t = SimTime::from_millis(k * 7);
            assert_eq!(
                a.sample(NodeId(0), NodeId(1), Meters(100.0), t).0.to_bits(),
                b.sample(NodeId(0), NodeId(1), Meters(100.0), t).0.to_bits()
            );
        }
    }

    #[test]
    fn slot_and_hashmap_paths_are_bitwise_identical() {
        // The dense slot store and the HashMap fallback must realize the
        // same per-link process: same substream label, same draw order,
        // same AR(1) advance. Interleave two links with irregular lags so
        // the dt-keyed coefficient memo is exercised across links.
        let mut a = process(DayProfile::clear(), 42);
        let mut b = process(DayProfile::clear(), 42);
        b.reserve_slots(4);
        for k in 0..50u64 {
            let t = SimTime::from_millis(k * k % 97 + k * 7);
            assert_eq!(
                a.sample(NodeId(3), NodeId(9), Meters(100.0), t).0.to_bits(),
                b.sample_slot(2, NodeId(3), NodeId(9), Meters(100.0), t)
                    .0
                    .to_bits()
            );
            let t2 = SimTime::from_millis(k * 13 + 5);
            assert_eq!(
                a.sample(NodeId(9), NodeId(3), Meters(60.0), t2).0.to_bits(),
                b.sample_slot(0, NodeId(9), NodeId(3), Meters(60.0), t2)
                    .0
                    .to_bits()
            );
        }
    }

    /// Epoch commits shuffle link state between dense slots; none of the
    /// surgery primitives may fork a link's random trajectory, and a
    /// cleared slot must re-derive bitwise the state a fresh process
    /// would create (the RNG-substream invariance the incremental
    /// mobility path rests on).
    #[test]
    fn relocated_slot_state_continues_the_same_trajectory() {
        let mut a = process(DayProfile::clear(), 42);
        let mut b = process(DayProfile::clear(), 42);
        a.reserve_slots(8);
        b.reserve_slots(8);
        for k in 0..20u64 {
            let t = SimTime::from_millis(k * 11 + 3);
            assert_eq!(
                a.sample_slot(1, NodeId(4), NodeId(6), Meters(90.0), t)
                    .0
                    .to_bits(),
                b.sample_slot(1, NodeId(4), NodeId(6), Meters(90.0), t)
                    .0
                    .to_bits()
            );
        }
        // Relocate the link's state to a different slot (as an in-place
        // epoch splice does) …
        let entry = b.take_slot(1);
        b.put_slot(5, entry);
        // … then via a full remap to a larger store (as a compaction does).
        b.remap_slots(16, &[(5, 7)]);
        for k in 20..40u64 {
            let t = SimTime::from_millis(k * 11 + 3);
            assert_eq!(
                a.sample_slot(1, NodeId(4), NodeId(6), Meters(90.0), t)
                    .0
                    .to_bits(),
                b.sample_slot(7, NodeId(4), NodeId(6), Meters(90.0), t)
                    .0
                    .to_bits(),
                "relocation must not fork the trajectory"
            );
        }
        // A cleared slot re-derives from the master: bitwise the state a
        // fresh process would create for the same directed pair.
        let mut c = process(DayProfile::clear(), 42);
        c.reserve_slots(1);
        b.clear_slot(7);
        let t = SimTime::from_secs(9);
        assert_eq!(
            b.sample_slot(7, NodeId(4), NodeId(6), Meters(90.0), t)
                .0
                .to_bits(),
            c.sample_slot(0, NodeId(4), NodeId(6), Meters(90.0), t)
                .0
                .to_bits()
        );
    }

    #[test]
    fn directions_are_independent() {
        let mut s = process(DayProfile::clear(), 42);
        let t = SimTime::from_secs(1);
        let fwd = s.sample(NodeId(0), NodeId(1), Meters(100.0), t);
        let rev = s.sample(NodeId(1), NodeId(0), Meters(100.0), t);
        assert_ne!(fwd.0, rev.0, "directed links should decorrelate");
    }

    #[test]
    fn short_lags_are_highly_correlated_long_lags_are_not() {
        // Correlation over many links: sample each link at t, t+1ms (short
        // lag) and t+10s (≫ coherence time).
        let mut s = process(DayProfile::clear(), 7);
        let mut short_pairs = Vec::new();
        let mut long_pairs = Vec::new();
        for i in 0..300u32 {
            let (a, b) = (NodeId(i), NodeId(i + 1000));
            let x0 = s.sample(a, b, Meters(100.0), SimTime::from_secs(1)).0;
            let x1 = s
                .sample(
                    a,
                    b,
                    Meters(100.0),
                    SimTime::from_secs(1) + SimDuration::from_millis(1),
                )
                .0;
            let x2 = s.sample(a, b, Meters(100.0), SimTime::from_secs(20)).0;
            short_pairs.push((x0, x1));
            long_pairs.push((x0, x2));
        }
        let corr = |pairs: &[(f64, f64)]| {
            let n = pairs.len() as f64;
            let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
            let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
            let cov = pairs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>() / n;
            let sx = (pairs.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>() / n).sqrt();
            let sy = (pairs.iter().map(|p| (p.1 - my).powi(2)).sum::<f64>() / n).sqrt();
            cov / (sx * sy)
        };
        let short = corr(&short_pairs);
        let long = corr(&long_pairs);
        assert!(
            short > 0.95,
            "1 ms lag should be near-perfectly correlated, got {short}"
        );
        // The fast component decorrelates over 10 s; the slow per-session
        // component persists, so the long-lag correlation settles near
        // slow² / (slow² + fast²) ≈ 0.81 for the clear profile.
        assert!(
            long < short - 0.02,
            "fast component should decay: {long} vs {short}"
        );
        assert!(
            (0.55..0.95).contains(&long),
            "slow component should persist, got {long}"
        );
    }

    #[test]
    fn marginal_std_matches_combined_sigma() {
        let mut s = process(DayProfile::clear(), 9);
        let vals: Vec<f64> = (0..2000u32)
            .map(|i| {
                s.sample(
                    NodeId(i),
                    NodeId(i + 10_000),
                    Meters(100.0),
                    SimTime::from_secs(5),
                )
                .0
            })
            .collect();
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let std = (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt();
        let expect = (2.0f64.powi(2) + 1.0f64.powi(2)).sqrt();
        assert!(
            (std - expect).abs() < 0.3,
            "marginal std {std} should approach {expect:.2}"
        );
        assert!(
            mean.abs() < 0.3,
            "mean {mean} should be near the 0 dB offset"
        );
    }

    #[test]
    fn short_links_shadow_less_than_long_links() {
        let mut s = process(DayProfile::clear(), 21);
        let spread = |d: f64, s: &mut Shadowing| {
            let vals: Vec<f64> = (0..500u32)
                .map(|i| {
                    s.sample(
                        NodeId(i),
                        NodeId(i + 5000),
                        Meters(d),
                        SimTime::from_secs(1),
                    )
                    .0
                })
                .collect();
            let n = vals.len() as f64;
            let mean = vals.iter().sum::<f64>() / n;
            (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt()
        };
        let near = spread(20.0, &mut s);
        let mut s2 = process(DayProfile::clear(), 21);
        let far = spread(120.0, &mut s2);
        assert!(
            near < far * 0.5,
            "20 m spread {near:.2} dB should be well below 120 m {far:.2} dB"
        );
        // Beyond sigma_full_distance the variance saturates.
        let mut s3 = process(DayProfile::clear(), 21);
        let very_far = spread(300.0, &mut s3);
        assert!(
            (very_far - far).abs() < 0.4,
            "variance saturates: {far:.2} vs {very_far:.2}"
        );
    }

    #[test]
    fn deviation_is_hard_bounded_for_every_profile() {
        for profile in [DayProfile::clear(), DayProfile::rainy()] {
            let extra = profile.extra_loss.0;
            let mut s = process(profile, 13);
            for i in 0..5000u32 {
                let v = s
                    .sample(
                        NodeId(i),
                        NodeId(i + 50_000),
                        Meters(200.0),
                        SimTime::from_secs(3),
                    )
                    .0;
                assert!(
                    (v - extra).abs() <= DEVIATION_BOUND_DB,
                    "deviation {v} escaped the ±{DEVIATION_BOUND_DB} dB bound"
                );
            }
        }
    }

    #[test]
    fn min_excess_bounds_every_sample_from_below() {
        for profile in [
            DayProfile::clear(),
            DayProfile::rainy(),
            DayProfile::still(),
        ] {
            let floor = profile.min_excess().0;
            let mut s = process(profile, 17);
            for i in 0..2000u32 {
                let v = s
                    .sample(
                        NodeId(i),
                        NodeId(i + 20_000),
                        Meters(150.0),
                        SimTime::from_secs(1),
                    )
                    .0;
                assert!(v >= floor, "sample {v} fell below min_excess {floor}");
            }
        }
        assert_eq!(DayProfile::still().min_excess().0, 0.0);
        assert_eq!(DayProfile::clear().min_excess().0, -DEVIATION_BOUND_DB);
        assert_eq!(DayProfile::rainy().min_excess().0, 4.0 - DEVIATION_BOUND_DB);
    }

    #[test]
    fn rainy_day_adds_loss_on_average() {
        let mut clear = process(DayProfile::clear(), 3);
        let mut rainy = process(DayProfile::rainy(), 3);
        let avg = |s: &mut Shadowing| {
            (0..500u32)
                .map(|i| {
                    s.sample(
                        NodeId(i),
                        NodeId(i + 1000),
                        Meters(100.0),
                        SimTime::from_secs(2),
                    )
                    .0
                })
                .sum::<f64>()
                / 500.0
        };
        let diff = avg(&mut rainy) - avg(&mut clear);
        assert!(
            diff > 2.0,
            "rainy day should average ≥2 dB extra loss, got {diff}"
        );
    }
}
