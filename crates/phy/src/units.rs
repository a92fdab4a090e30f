//! Physical units as newtypes: decibels, powers, distances, positions.
//!
//! Power arithmetic mixes two scales — logarithmic (dB/dBm) for link
//! budgets and linear (mW) for interference sums. Newtypes make the scale
//! explicit at every call site so a dB value can never be summed as if it
//! were milliwatts.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Identifier of a station in the network (an index into the medium's
/// position table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The station index as a `usize`, for indexing node tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A power ratio in decibels (relative quantity: gains, losses, SNR).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Db(pub f64);

/// An absolute power level in dB-milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Dbm(pub f64);

/// An absolute power in linear milliwatts (non-negative).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct MilliWatts(pub f64);

/// A distance in meters (non-negative).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Meters(pub f64);

/// A station position on the 2-D field, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// East coordinate in meters.
    pub x: f64,
    /// North coordinate in meters.
    pub y: f64,
}

impl Db {
    /// The zero ratio (0 dB = ×1).
    pub const ZERO: Db = Db(0.0);

    /// The ratio as a linear factor: `10^(dB/10)`.
    pub fn to_linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Builds a ratio from a linear factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn from_linear(factor: f64) -> Db {
        assert!(
            factor > 0.0,
            "dB ratio requires positive factor, got {factor}"
        );
        Db(10.0 * factor.log10())
    }
}

impl Dbm {
    /// Converts to linear milliwatts.
    pub fn to_milliwatts(self) -> MilliWatts {
        MilliWatts(10f64.powf(self.0 / 10.0))
    }
}

impl MilliWatts {
    /// The zero power.
    pub const ZERO: MilliWatts = MilliWatts(0.0);

    /// Converts to dBm.
    ///
    /// # Panics
    ///
    /// Panics on non-positive power — the log scale has no representation
    /// for 0 mW; callers should treat absent signals as absent, not as
    /// `-inf dBm`.
    pub fn to_dbm(self) -> Dbm {
        assert!(self.0 > 0.0, "cannot express {} mW in dBm", self.0);
        Dbm(10.0 * self.0.log10())
    }

    /// True if the power is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Meters {
    /// Zero distance.
    pub const ZERO: Meters = Meters(0.0);
}

impl Position {
    /// Builds a position from east/north coordinates in meters.
    pub const fn new(x: f64, y: f64) -> Position {
        Position { x, y }
    }

    /// A position on the x axis — convenient for the paper's linear
    /// (chain) topologies.
    pub const fn on_line(x: f64) -> Position {
        Position { x, y: 0.0 }
    }

    /// Euclidean distance to `other`.
    pub fn distance_to(self, other: Position) -> Meters {
        Meters(self.distance_sq_to(other).sqrt())
    }

    /// Squared Euclidean distance to `other`, in m²: exactly the value
    /// [`Position::distance_to`] takes the square root of.
    pub(crate) fn distance_sq_to(self, other: Position) -> f64 {
        (self.x - other.x).powi(2) + (self.y - other.y).powi(2)
    }
}

// --- dB arithmetic -------------------------------------------------------

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}
impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}
impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}
impl AddAssign for Db {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}
impl SubAssign for Db {
    fn sub_assign(&mut self, rhs: Db) {
        self.0 -= rhs.0;
    }
}
impl Mul<f64> for Db {
    type Output = Db;
    fn mul(self, rhs: f64) -> Db {
        Db(self.0 * rhs)
    }
}

/// Applying a gain to an absolute level yields an absolute level.
impl Add<Db> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}
/// Applying a loss to an absolute level yields an absolute level.
impl Sub<Db> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}
/// The ratio between two absolute levels is a relative quantity.
impl Sub for Dbm {
    type Output = Db;
    fn sub(self, rhs: Dbm) -> Db {
        Db(self.0 - rhs.0)
    }
}

// --- linear power arithmetic ---------------------------------------------

impl Add for MilliWatts {
    type Output = MilliWatts;
    fn add(self, rhs: MilliWatts) -> MilliWatts {
        MilliWatts(self.0 + rhs.0)
    }
}
impl AddAssign for MilliWatts {
    fn add_assign(&mut self, rhs: MilliWatts) {
        self.0 += rhs.0;
    }
}
impl Sub for MilliWatts {
    type Output = MilliWatts;
    /// Subtracts, clamping tiny negative residues (float cancellation when
    /// removing a signal from an interference sum) to zero.
    fn sub(self, rhs: MilliWatts) -> MilliWatts {
        MilliWatts((self.0 - rhs.0).max(0.0))
    }
}
impl Div for MilliWatts {
    type Output = f64;
    fn div(self, rhs: MilliWatts) -> f64 {
        self.0 / rhs.0
    }
}
impl Sum for MilliWatts {
    fn sum<I: Iterator<Item = MilliWatts>>(iter: I) -> MilliWatts {
        iter.fold(MilliWatts::ZERO, Add::add)
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dB", self.0)
    }
}
impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dBm", self.0)
    }
}
impl fmt::Display for MilliWatts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3e} mW", self.0)
    }
}
impl fmt::Display for Meters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} m", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_milliwatt_round_trip() {
        for dbm in [-90.0, -30.0, 0.0, 15.0, 20.0] {
            let p = Dbm(dbm).to_milliwatts();
            assert!(
                (p.to_dbm().0 - dbm).abs() < 1e-9,
                "round trip failed at {dbm}"
            );
        }
        assert!((Dbm(0.0).to_milliwatts().0 - 1.0).abs() < 1e-12);
        assert!((Dbm(30.0).to_milliwatts().0 - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn db_linear_round_trip() {
        assert!((Db(3.0103).to_linear() - 2.0).abs() < 1e-4);
        assert!((Db::from_linear(10.0).0 - 10.0).abs() < 1e-12);
        assert!((Db::from_linear(Db(-7.5).to_linear()).0 + 7.5).abs() < 1e-9);
    }

    #[test]
    fn mixed_scale_arithmetic() {
        let tx = Dbm(15.0);
        let loss = Db(97.0);
        let rx = tx - loss;
        assert!((rx.0 + 82.0).abs() < 1e-12);
        let snr = rx - Dbm(-96.0);
        assert!((snr.0 - 14.0).abs() < 1e-12);
    }

    #[test]
    fn linear_sum_models_interference() {
        // Two equal interferers add 3 dB.
        let one = Dbm(-80.0).to_milliwatts();
        let total = one + one;
        assert!((total.to_dbm().0 + 77.0).abs() < 0.02);
        // Removing one gets us back without going negative.
        let back = total - one;
        assert!((back.0 - one.0).abs() < 1e-18);
        assert_eq!(one - total, MilliWatts::ZERO);
    }

    #[test]
    fn position_distance() {
        let a = Position::on_line(0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance_to(b).0 - 5.0).abs() < 1e-12);
        assert_eq!(a.distance_to(a), Meters::ZERO);
        // Symmetric.
        assert_eq!(a.distance_to(b), b.distance_to(a));
    }

    #[test]
    #[should_panic(expected = "cannot express")]
    fn zero_mw_has_no_dbm() {
        let _ = MilliWatts::ZERO.to_dbm();
    }

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(3).to_string(), "S3");
        assert_eq!(NodeId(3).index(), 3);
    }
}
