//! Explicitly-labelled time: the runtime measures on two different clocks.
//!
//! MikPoly's serving timeline mixes **real** host time (wall-clock
//! nanoseconds a worker spent polymerizing) with **virtual** time (Poisson
//! arrival stamps and simulated device durations). Summing the two without
//! saying so produced the `RequestRecord::total_ns` unit bug this module
//! exists to prevent: every histogram and span carries a [`Clock`] label,
//! and a real-clock duration only enters a virtual timeline through the
//! explicit [`ClockNs::onto_virtual_timeline`] projection.

use std::fmt;

/// Which clock a duration or timestamp was measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Clock {
    /// Host wall-clock (monotonic) time — e.g. online polymerization.
    #[default]
    Real,
    /// Simulated / virtual time — e.g. arrival stamps, device execution.
    Virtual,
}

impl Clock {
    /// The label value used in metric names and trace metadata.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Real => "real",
            Clock::Virtual => "virtual",
        }
    }
}

impl fmt::Display for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A duration in nanoseconds tagged with the clock it was measured on.
///
/// The nanosecond value is private: arithmetic across clocks is a unit
/// error, so there is deliberately no `Add` implementation and no way to
/// reach the raw number without going through an accessor that names the
/// clock ([`ClockNs::real_ns`] / [`ClockNs::virtual_ns`]) or the explicit
/// timeline projection ([`ClockNs::onto_virtual_timeline`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClockNs {
    clock: Clock,
    ns: f64,
}

impl ClockNs {
    /// A real (wall-clock) duration.
    pub fn real(ns: f64) -> Self {
        Self {
            clock: Clock::Real,
            ns,
        }
    }

    /// The clock this duration was measured on.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// The raw nanoseconds, whatever the clock — for display and
    /// histogram recording where the clock label travels separately.
    pub fn ns(&self) -> f64 {
        self.ns
    }

    /// The nanoseconds if (and only if) this is a real-clock duration.
    ///
    /// # Panics
    ///
    /// Panics on a virtual-clock duration: the caller asked for the wrong
    /// unit.
    pub fn real_ns(&self) -> f64 {
        assert_eq!(self.clock, Clock::Real, "expected a real-clock duration");
        self.ns
    }

    /// The nanoseconds if (and only if) this is a virtual-clock duration.
    ///
    /// # Panics
    ///
    /// Panics on a real-clock duration: the caller asked for the wrong
    /// unit.
    pub fn virtual_ns(&self) -> f64 {
        assert_eq!(
            self.clock,
            Clock::Virtual,
            "expected a virtual-clock duration"
        );
        self.ns
    }

    /// Whether the duration is zero (e.g. a fully cache-hit compile).
    pub fn is_zero(&self) -> bool {
        self.ns == 0.0
    }

    /// Projects this duration onto a virtual timeline, 1 virtual ns per
    /// measured ns.
    ///
    /// This is the **only** sanctioned way to mix clocks: the serving
    /// timeline advances by the real nanoseconds a worker spent compiling
    /// (the host really is busy for that long while virtual arrivals keep
    /// accumulating), and calling this method is the annotation that the
    /// projection is intentional.
    pub fn onto_virtual_timeline(self) -> f64 {
        self.ns
    }
}

impl fmt::Display for ClockNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} ns ({})", self.ns, self.clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn virt(ns: f64) -> ClockNs {
        ClockNs {
            clock: Clock::Virtual,
            ns,
        }
    }

    #[test]
    fn accessors_enforce_the_clock() {
        let real = ClockNs::real(1500.0);
        assert_eq!(real.clock(), Clock::Real);
        assert_eq!(real.real_ns(), 1500.0);
        assert_eq!(real.onto_virtual_timeline(), 1500.0);
        let virt = virt(2500.0);
        assert_eq!(virt.virtual_ns(), 2500.0);
        assert!(!virt.is_zero());
        assert!(ClockNs::real(0.0).is_zero());
    }

    #[test]
    #[should_panic(expected = "expected a virtual-clock duration")]
    fn real_duration_rejects_virtual_accessor() {
        let _ = ClockNs::real(1.0).virtual_ns();
    }

    #[test]
    #[should_panic(expected = "expected a real-clock duration")]
    fn virtual_duration_rejects_real_accessor() {
        let _ = virt(1.0).real_ns();
    }

    #[test]
    fn labels_render() {
        assert_eq!(Clock::Real.label(), "real");
        assert_eq!(format!("{}", virt(2.0)), "2.0 ns (virtual)");
    }
}
