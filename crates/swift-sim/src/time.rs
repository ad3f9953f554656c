//! Simulated time: microsecond-resolution instants and durations.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// An instant on the simulation clock, in microseconds since simulation
/// start. Monotonically non-decreasing as events are processed.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Time zero — the simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant `secs` seconds after the epoch (saturating at
    /// `u64::MAX` microseconds).
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs.saturating_mul(1_000_000))
    }

    /// Builds an instant `ms` milliseconds after the epoch (saturating).
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000))
    }

    /// Microseconds since the epoch.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reports and figures).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration from `earlier` to `self`; zero if `earlier` is later
    /// (saturating, mirroring `std::time::Instant::saturating_duration_since`).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration of `secs` seconds (saturating at `u64::MAX` microseconds).
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs.saturating_mul(1_000_000))
    }

    /// A duration of `ms` milliseconds (saturating).
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000))
    }

    /// A duration of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// A duration of `secs` (fractional) seconds, rounded to microseconds.
    /// Negative or non-finite inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1e6).round() as u64)
    }

    /// Microseconds in this duration.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds in this duration, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    /// Saturates at the end of simulated time instead of overflowing: an
    /// instant near `u64::MAX` microseconds plus any duration stays
    /// representable, which chaos campaigns with adversarial schedules
    /// rely on.
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when the ordering is uncertain.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Sampling boundaries at every positive multiple of a fixed period: the
/// one copy of the boundary arithmetic that every sampler shares.
/// Samplers consult it between event batches, so sampling never queues an
/// event.
///
/// ```
/// use swift_sim::{Cadence, SimDuration, SimTime};
///
/// let mut c = Cadence::new(SimDuration::from_secs(2));
/// assert_eq!(c.due(SimTime::from_secs(5)), Some(SimTime::from_secs(2)));
/// assert_eq!(c.due(SimTime::from_secs(5)), Some(SimTime::from_secs(4)));
/// assert_eq!(c.due(SimTime::from_secs(5)), None);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Cadence {
    /// Period in µs (≥ 1).
    period: u64,
    /// Next boundary not yet taken, in µs; `u128` so that the clock's
    /// last boundary needs no saturation special case.
    next: u128,
}

impl Cadence {
    /// Boundaries every `period`. Panics if the period is zero.
    pub fn new(period: SimDuration) -> Self {
        assert!(period.0 > 0, "sampling cadence must be positive");
        Cadence {
            period: period.0,
            next: u128::from(period.0),
        }
    }

    /// Takes the earliest boundary at or before `now` not taken yet.
    /// Looping until `None` yields every boundary, empty windows included.
    pub fn due(&mut self, now: SimTime) -> Option<SimTime> {
        let boundary = self.next;
        (u128::from(now.0) >= boundary).then(|| {
            self.next += u128::from(self.period);
            SimTime(boundary as u64)
        })
    }

    /// Takes every boundary at or before `now` at once and says whether
    /// there was any: one sample per crossing, however many windows it
    /// spans.
    pub fn cross(&mut self, now: SimTime) -> bool {
        let crossed = u128::from(now.0) >= self.next;
        if crossed {
            self.next = (u128::from(self.window(now)) + 1) * u128::from(self.period);
        }
        crossed
    }

    /// Index of the window holding `t`, i.e. `t / period`.
    pub fn window(&self, t: SimTime) -> u64 {
        t.0 / self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_secs(3) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 3_500_000);
        assert_eq!((t - SimTime::from_secs(3)).as_micros(), 500_000);
        assert_eq!(
            t.saturating_since(SimTime::from_secs(10)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn float_conversions() {
        assert!((SimDuration::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(SimDuration::from_secs_f64(-2.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn scaling() {
        assert_eq!(SimDuration::from_secs(2) * 3u64, SimDuration::from_secs(6));
        assert_eq!(SimDuration::from_secs(2) * 0.5, SimDuration::from_secs(1));
        assert_eq!(
            SimDuration::from_secs(5) - SimDuration::from_secs(7),
            SimDuration::ZERO
        );
    }

    #[test]
    fn arithmetic_saturates_near_u64_max() {
        // None of these may panic, in debug or release builds.
        let huge_t = SimTime(u64::MAX - 10);
        let huge_d = SimDuration(u64::MAX - 10);
        assert_eq!(huge_t + SimDuration::from_secs(1), SimTime(u64::MAX));
        let mut t = huge_t;
        t += SimDuration(u64::MAX);
        assert_eq!(t, SimTime(u64::MAX));
        assert_eq!(huge_d + huge_d, SimDuration(u64::MAX));
        let mut d = huge_d;
        d += SimDuration(20);
        assert_eq!(d, SimDuration(u64::MAX));
        assert_eq!(huge_d * 3u64, SimDuration(u64::MAX));
        assert_eq!(SimDuration(0) * u64::MAX, SimDuration::ZERO);
        assert_eq!(SimTime::from_secs(u64::MAX), SimTime(u64::MAX));
        assert_eq!(SimTime::from_millis(u64::MAX), SimTime(u64::MAX));
        assert_eq!(SimDuration::from_secs(u64::MAX), SimDuration(u64::MAX));
        assert_eq!(SimDuration::from_millis(u64::MAX), SimDuration(u64::MAX));
    }

    #[test]
    fn float_mul_saturates_instead_of_wrapping() {
        // f64 -> u64 casts in Rust saturate; enormous products must clamp.
        let d = SimDuration::from_secs(1_000_000) * 1e30;
        assert_eq!(d, SimDuration(u64::MAX));
        assert_eq!(SimDuration::from_secs_f64(f64::MAX), SimDuration(u64::MAX));
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "t=1.500s");
        assert_eq!(format!("{}", SimDuration::from_millis(250)), "0.250s");
    }

    #[test]
    fn cadence_due_yields_every_boundary_once() {
        let mut c = Cadence::new(SimDuration::from_secs(1));
        assert_eq!(c.due(SimTime::from_millis(999)), None);
        assert_eq!(c.due(SimTime::from_secs(1)), Some(SimTime::from_secs(1)));
        assert_eq!(c.due(SimTime::from_secs(1)), None);
        let mut later = Vec::new();
        while let Some(b) = c.due(SimTime::from_millis(3_500)) {
            later.push(b);
        }
        assert_eq!(later, [SimTime::from_secs(2), SimTime::from_secs(3)]);
    }

    #[test]
    fn cadence_cross_takes_all_skipped_boundaries() {
        let mut c = Cadence::new(SimDuration::from_secs(1));
        assert!(!c.cross(SimTime::from_millis(500)));
        assert!(c.cross(SimTime::from_millis(3_500)));
        assert!(!c.cross(SimTime::from_millis(3_999)));
        assert!(c.cross(SimTime::from_secs(4)));
        assert_eq!(c.due(SimTime::from_secs(5)), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn cadence_ends_at_the_top_of_the_clock() {
        let mut c = Cadence::new(SimDuration(u64::MAX / 2 + 1));
        let mut n = 0;
        while c.due(SimTime(u64::MAX)).is_some() {
            n += 1;
        }
        assert_eq!(n, 1);
        assert!(!c.cross(SimTime(u64::MAX)));
    }

    #[test]
    #[should_panic(expected = "sampling cadence must be positive")]
    fn cadence_rejects_a_zero_period() {
        Cadence::new(SimDuration::ZERO);
    }
}
