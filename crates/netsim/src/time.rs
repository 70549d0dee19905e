//! Simulation time primitives.
//!
//! All simulation timing is expressed in integer nanoseconds via the
//! [`SimTime`] (absolute instant) and [`SimDuration`] (span) newtypes, so the
//! engine is fully deterministic and free of floating-point drift.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute instant on the simulation clock, in nanoseconds since start.
///
/// # Examples
///
/// ```
/// use iswitch_netsim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_micros(3);
/// assert_eq!(t.as_nanos(), 3_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulation time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use iswitch_netsim::SimDuration;
///
/// let d = SimDuration::from_millis(2) + SimDuration::from_micros(500);
/// assert_eq!(d.as_nanos(), 2_500_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from nanoseconds since the simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns the instant as nanoseconds since the simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the instant as (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: `earlier` is later than `self`"),
        )
    }

    /// Returns the span from `earlier` to `self`, saturating at zero.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a span from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative"
        );
        SimDuration((s * 1e9).round() as u64)
    }

    /// Returns the span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the span as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the span as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The time to serialize `bytes` bytes onto a link of `bits_per_sec`,
    /// rounded up to the next nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_sec` is zero.
    pub fn serialization(bytes: usize, bits_per_sec: u64) -> SimDuration {
        assert!(bits_per_sec > 0, "link bandwidth must be positive");
        // Every frame's `bytes × 8·10^9` fits in 64 bits (it overflows
        // only past ~2.3 GB), so the common case is one `u64` divide; the
        // 128-bit divide is a library call, paid on every transmit.
        match (bytes as u64).checked_mul(8 * NANOS_PER_SEC) {
            Some(bit_ns) => SimDuration(bit_ns.div_ceil(bits_per_sec)),
            None => Self::serialization_u128(bytes, bits_per_sec),
        }
    }

    /// [`SimDuration::serialization`] in 128-bit arithmetic, for any size.
    fn serialization_u128(bytes: usize, bits_per_sec: u64) -> SimDuration {
        let bit_ns = bytes as u128 * 8 * u128::from(NANOS_PER_SEC);
        SimDuration(bit_ns.div_ceil(u128::from(bits_per_sec)) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_nanos(5_000);
        let d = SimDuration::from_micros(2);
        assert_eq!((t + d).as_nanos(), 7_000);
        assert_eq!((t + d).duration_since(t), d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn serialization_matches_line_rate() {
        // 1250 bytes at 10 Gb/s = 10_000 bits / 10e9 bps = 1 us.
        let d = SimDuration::serialization(1_250, 10_000_000_000);
        assert_eq!(d, SimDuration::from_micros(1));
    }

    #[test]
    fn serialization_rounds_up() {
        // 1 byte at 3 bps: 8/3 s -> ceil to nanoseconds.
        let d = SimDuration::serialization(1, 3);
        assert_eq!(d.as_nanos(), 2_666_666_667);
    }

    #[test]
    fn the_u64_path_is_the_u128_formula_for_every_frame() {
        for gbps in [1, 10, 40, 100] {
            let bps = gbps * 1_000_000_000;
            for bytes in 0..=4_096 {
                assert_eq!(
                    SimDuration::serialization(bytes, bps),
                    SimDuration::serialization_u128(bytes, bps),
                    "{bytes} B at {gbps} Gb/s"
                );
            }
        }
    }

    #[test]
    fn the_u64_path_is_the_u128_formula_either_side_of_its_overflow() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // The largest byte count whose bit-nanoseconds fit in 64 bits.
        let edge = (u64::MAX / (8 * NANOS_PER_SEC)) as usize;
        assert!((edge as u64).checked_mul(8 * NANOS_PER_SEC).is_some());
        assert!((edge as u64 + 1).checked_mul(8 * NANOS_PER_SEC).is_none());
        let mut rng = StdRng::seed_from_u64(0x5e71a1);
        for _ in 0..20_000 {
            let bytes = match rng.gen_range(0..3u32) {
                0 => edge - rng.gen_range(0..1_000usize),
                1 => edge + 1 + rng.gen_range(0..1_000usize),
                _ => rng.gen_range(0..2 * edge),
            };
            let bps = match rng.gen_range(0..3u32) {
                0 => rng.gen_range(1..1_000u64),
                1 => rng.gen_range(1..400_000_000_000u64),
                _ => rng.gen_range(1..u64::MAX),
            };
            assert_eq!(
                SimDuration::serialization(bytes, bps),
                SimDuration::serialization_u128(bytes, bps),
                "{bytes} B at {bps} b/s"
            );
        }
    }

    #[test]
    fn saturating_ops_clamp() {
        let t = SimTime::from_nanos(5);
        assert_eq!(
            SimTime::from_nanos(3).saturating_duration_since(t),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_nanos(3).saturating_sub(SimDuration::from_nanos(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_when_reversed() {
        let _ = SimTime::from_nanos(1).duration_since(SimTime::from_nanos(2));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(3).to_string(), "3.000us");
        assert_eq!(SimDuration::from_millis(4).to_string(), "4.000ms");
    }
}
