//! Station roles: what each station of a run may do, fixed before its
//! [`Medium`](crate::Medium) is built.

use crate::units::Dbm;

/// Which stations may transmit, and whether positions stay fixed: the
/// premises [`Medium::new`](crate::Medium::new) reads once to decide
/// which audible slices to store and which receivers frames skip.
///
/// When positions stay fixed and some station is silent, the medium
/// stores only the transmitters' slices and skips every **deaf**
/// receiver: a silent station that no transmitter, at the TX power
/// bound, can make detect a preamble or sense energy at the
/// carrier-sense threshold. Otherwise — positions that move (a moving
/// station can come to hear any transmitter, and an epoch commit can
/// recompute any slice) or no silent station — it stores every slice and
/// skips no one. Exact only while the caller enforces the transmitter
/// set.
#[derive(Debug, Clone, PartialEq)]
pub struct StationRoles {
    /// One flag per station, `true` where it may transmit.
    pub transmitters: Vec<bool>,
    /// `Some((tx_power, cs_threshold))` when positions stay fixed: the
    /// highest TX power any transmitter uses, and every receiver's
    /// carrier-sense threshold. `None` when positions may move.
    pub fixed: Option<(Dbm, Dbm)>,
}

impl StationRoles {
    /// Roles that assume nothing: each of `n` stations may transmit and
    /// move, so the medium stores every slice and skips no receiver.
    pub fn unrestricted(n: usize) -> StationRoles {
        StationRoles {
            transmitters: vec![true; n],
            fixed: None,
        }
    }
}
