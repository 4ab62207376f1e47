//! Simulated time.
//!
//! The simulator is a logical-time discrete-event system: all latencies
//! and timers are expressed in [`SimDuration`] microseconds, and the
//! clock only advances when the event queue does. Nothing in the
//! workspace reads wall-clock time during a simulation, which is what
//! makes runs bit-reproducible.

/// An instant in simulated time (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Adds a duration.
    pub fn after(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Time elapsed since `earlier` (saturating).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Microsecond count.
    pub fn as_micros(self) -> u64 {
        self.0
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From microseconds.
    pub fn from_micros(us: u64) -> SimDuration {
        SimDuration(us)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1000)
    }

    /// From seconds.
    pub fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000)
    }

    /// Microsecond count.
    pub fn as_micros(self) -> u64 {
        self.0
    }
}

impl std::fmt::Debug for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t+{}µs", self.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1e6)
        } else if self.0 >= 1000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

impl std::fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}µs", self.0)
    }
}

impl std::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        self.after(d)
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(2);
        assert_eq!(t.as_micros(), 2000);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_millis(2));
        assert_eq!(SimTime(5).since(SimTime(10)), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs(1) + SimDuration::from_micros(1), SimDuration(1_000_001));
    }

    #[test]
    fn ordering() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime(5).to_string(), "5µs");
        assert_eq!(SimTime(5_000).to_string(), "5.000ms");
        assert_eq!(SimTime(5_000_000).to_string(), "5.000s");
    }

    #[test]
    fn saturation() {
        let t = SimTime(u64::MAX) + SimDuration(10);
        assert_eq!(t.0, u64::MAX);
    }
}
