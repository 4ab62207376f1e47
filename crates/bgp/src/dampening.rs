//! RFC 2439-style route-flap dampening: a per-`(neighbor, prefix)`
//! figure of merit that grows on flaps and decays exponentially.
//!
//! The state machine is the classic one — a penalty accumulates
//! [`PENALTY_FLAP`] per flap, decays with half-life [`HALF_LIFE`],
//! suppresses the route while the penalty sits *above*
//! [`SUPPRESS_THRESHOLD`], and releases it once the penalty falls
//! *below* [`REUSE_THRESHOLD`] — but the arithmetic is pure integer
//! math: whole half-lives are right-shifts and the fractional remainder
//! is a piecewise-linear interpolation, so every router in every run
//! computes bit-identical penalties (no floating-point `exp`, no
//! rounding-mode drift).
//!
//! The thresholds are Cisco-flavored, time-scaled to the simulator:
//! classic dampening thinks in minutes, the churn experiments in
//! hundreds of milliseconds, so the half-life is 200 ms.

use pvr_crypto::encoding::{Reader, Wire, WireError};
use pvr_netsim::{SimDuration, SimTime};

/// Penalty added per flap (a withdraw of an installed route, or a
/// session loss covering it).
pub const PENALTY_FLAP: u64 = 1000;
/// Penalties strictly above this suppress the route.
pub const SUPPRESS_THRESHOLD: u64 = 2000;
/// A suppressed route is released once its penalty falls strictly below
/// this.
pub const REUSE_THRESHOLD: u64 = 750;
/// Time for the penalty to halve.
pub const HALF_LIFE: SimDuration = SimDuration::from_millis(200);
/// Penalty ceiling (RFC 2439's "maximum penalty"); accumulation
/// saturates here instead of overflowing.
pub const MAX_PENALTY: u64 = 16_000;
/// How often a router with suppressed routes re-evaluates decay (the
/// reuse-list timer granularity).
pub const REUSE_TICK: SimDuration = SimDuration::from_millis(50);

/// Turns dampening on, at the thresholds above, when set as
/// `InstantiateOptions::dampening`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DampeningPolicy;

// The policy rides inside checkpoint META sections (as part of
// `InstantiateOptions`); with nothing to set, `Some` is the option's
// tag byte alone.
impl Wire for DampeningPolicy {
    fn encode(&self, _: &mut Vec<u8>) {}
    fn decode(_: &mut Reader<'_>) -> Result<DampeningPolicy, WireError> {
        Ok(DampeningPolicy)
    }
    fn encoded_len(&self) -> usize {
        0
    }
}

/// Dampening state for one `(neighbor, prefix)` pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DampState {
    /// Current figure of merit (post-decay as of `last_decay`).
    pub penalty: u64,
    /// When `penalty` was last decayed.
    pub last_decay: SimTime,
    /// Whether announcements of this pair are currently suppressed.
    pub suppressed: bool,
}

// Per-pair states ride in the ROUTERS section of a checkpoint.
pvr_crypto::wire_struct!(DampState { penalty, last_decay, suppressed });

impl DampState {
    /// Fresh state anchored at `now`.
    pub fn new(now: SimTime) -> DampState {
        DampState { penalty: 0, last_decay: now, suppressed: false }
    }

    /// Decays the penalty from `last_decay` to `now`: one right-shift
    /// per whole half-life, then a linear interpolation across the
    /// fractional remainder (`p · (2h − f) / 2h`, exact at `f = 0` and
    /// `f = h`). Integer-only, so identical on every engine.
    pub fn decay_to(&mut self, now: SimTime) {
        let elapsed = now.since(self.last_decay).as_micros();
        self.last_decay = now;
        if elapsed == 0 || self.penalty == 0 {
            return;
        }
        let h = HALF_LIFE.as_micros();
        let whole = elapsed / h;
        let frac = elapsed % h;
        self.penalty = if whole >= 64 { 0 } else { self.penalty >> whole };
        if frac > 0 && self.penalty > 0 {
            // u128 keeps `p · (2h − f)` exact for any h the sim can
            // express (the figure-of-merit overflow case in the tests).
            let num = self.penalty as u128 * (2 * h - frac) as u128;
            self.penalty = (num / (2 * h) as u128) as u64;
        }
    }

    /// Records one flap at `now`: decay, add [`PENALTY_FLAP`]
    /// saturating at [`MAX_PENALTY`], and suppress when the result
    /// exceeds [`SUPPRESS_THRESHOLD`].
    pub fn penalize(&mut self, now: SimTime) {
        self.decay_to(now);
        self.penalty = self.penalty.saturating_add(PENALTY_FLAP).min(MAX_PENALTY);
        if self.penalty > SUPPRESS_THRESHOLD {
            self.suppressed = true;
        }
    }

    /// Decays to `now` and applies the release rule (penalty strictly
    /// below the reuse threshold clears suppression). Returns whether
    /// the pair is suppressed *after* the refresh.
    pub fn refresh(&mut self, now: SimTime) -> bool {
        self.decay_to(now);
        if self.suppressed && self.penalty < REUSE_THRESHOLD {
            self.suppressed = false;
        }
        self.suppressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalty_accumulates_and_suppresses() {
        let mut s = DampState::new(SimTime::ZERO);
        s.penalize(SimTime::ZERO);
        assert_eq!(s.penalty, 1000);
        assert!(!s.suppressed, "one flap stays below the threshold");
        s.penalize(SimTime::ZERO);
        assert_eq!(s.penalty, 2000);
        assert!(!s.suppressed, "penalty exactly at suppress threshold does not suppress");
        s.penalize(SimTime::ZERO);
        assert_eq!(s.penalty, 3000);
        assert!(s.suppressed, "crossing the threshold suppresses");
    }

    #[test]
    fn whole_half_life_halves_exactly() {
        let mut s = DampState { penalty: 4000, last_decay: SimTime::ZERO, suppressed: true };
        s.decay_to(SimTime::ZERO + HALF_LIFE);
        assert_eq!(s.penalty, 2000);
        s.decay_to(SimTime(2 * HALF_LIFE.as_micros()));
        assert_eq!(s.penalty, 1000);
    }

    #[test]
    fn fractional_decay_is_linear_between_half_lives() {
        let mut s = DampState { penalty: 4000, last_decay: SimTime::ZERO, suppressed: false };
        // Half of one half-life: p · (2h − h/2) / 2h = p · 3/4.
        s.decay_to(SimTime(HALF_LIFE.as_micros() / 2));
        assert_eq!(s.penalty, 3000);
    }

    #[test]
    fn decay_rounding_truncates_deterministically() {
        let mut s = DampState { penalty: 3, last_decay: SimTime::ZERO, suppressed: false };
        // 1 µs into a 200 ms half-life: 3 · (400000 − 1) / 400000
        // truncates to 2 — the documented round-toward-zero rule.
        s.decay_to(SimTime(1));
        assert_eq!(s.penalty, 2);
    }

    #[test]
    fn reuse_boundary_is_strict() {
        let mut s =
            DampState { penalty: REUSE_THRESHOLD, last_decay: SimTime(5), suppressed: true };
        assert!(s.refresh(SimTime(5)), "exactly at reuse threshold stays suppressed");
        s.penalty = REUSE_THRESHOLD - 1;
        assert!(!s.refresh(SimTime(5)), "strictly below reuse releases");
    }

    #[test]
    fn figure_of_merit_saturates_at_max() {
        let mut s = DampState { penalty: MAX_PENALTY, last_decay: SimTime::ZERO, suppressed: true };
        s.penalize(SimTime::ZERO);
        assert_eq!(s.penalty, MAX_PENALTY, "penalty saturates, never overflows");
    }

    #[test]
    fn huge_gaps_decay_to_zero_without_shift_overflow() {
        let mut s = DampState { penalty: u64::MAX, last_decay: SimTime::ZERO, suppressed: true };
        // > 64 half-lives: a naive `>> whole` would be UB-adjacent; we
        // clamp to zero.
        s.decay_to(SimTime(100 * HALF_LIFE.as_micros()));
        assert_eq!(s.penalty, 0);
        assert!(!s.refresh(SimTime(100 * HALF_LIFE.as_micros())));
    }

    #[test]
    fn decay_is_time_anchored_not_call_anchored() {
        let mut a = DampState { penalty: 4000, last_decay: SimTime::ZERO, suppressed: false };
        let mut b = a;
        // One big decay vs. two half-steps must agree at half-life
        // boundaries (the shift is exact there).
        a.decay_to(SimTime(2 * HALF_LIFE.as_micros()));
        b.decay_to(SimTime(HALF_LIFE.as_micros()));
        b.decay_to(SimTime(2 * HALF_LIFE.as_micros()));
        assert_eq!(a.penalty, b.penalty);
    }
}
