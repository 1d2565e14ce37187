//! Throughput metrics of manipulation campaigns.

use labchip_units::Seconds;
use serde::{Deserialize, Serialize};

/// Aggregate figures of a routing / manipulation campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Number of particles that were asked to move.
    pub requested: usize,
    /// Number that reached their goals.
    pub completed: usize,
    /// Steps until the last completed particle arrived.
    pub makespan_steps: usize,
    /// Total individual cage moves.
    pub total_moves: usize,
    /// Duration of one cage step.
    pub step_period: Seconds,
}

impl ThroughputReport {
    /// Fraction of requests completed.
    pub fn success_rate(&self) -> f64 {
        if self.requested == 0 {
            1.0
        } else {
            self.completed as f64 / self.requested as f64
        }
    }

    /// Wall-clock duration of the campaign.
    pub fn duration(&self) -> Seconds {
        self.step_period * self.makespan_steps as f64
    }

    /// Completed particles per second of wall-clock time — the headline
    /// throughput figure of massively parallel manipulation.
    pub fn particles_per_second(&self) -> f64 {
        let d = self.duration().get();
        if d <= 0.0 {
            0.0
        } else {
            self.completed as f64 / d
        }
    }

    /// Average number of particles in motion per step (parallelism factor).
    pub fn parallelism(&self) -> f64 {
        if self.makespan_steps == 0 {
            0.0
        } else {
            self.total_moves as f64 / self.makespan_steps as f64
        }
    }
}

/// Accumulated figures of a sustained manipulation workload: repeated
/// route→sense→flush cycles, as driven by the batch workload driver (E11).
///
/// Every figure is *chip time* — the simulated fluidics/sensing/motion
/// budget — or a count, so the totals are a pure function of the cycles
/// folded in. Host planner wall-clock is not accumulated here; it is a
/// benchmark measurement (`report bench-workload`), not a domain output.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SustainedThroughput {
    /// Cycles executed.
    pub cycles: usize,
    /// Particles requested across all cycles.
    pub requested: usize,
    /// Particles routed to their targets across all cycles.
    pub completed: usize,
    /// Individual cage moves across all cycles.
    pub total_moves: usize,
    /// Simulated chip time across all cycles (fluidics + sensing + motion).
    pub chip_time: Seconds,
}

impl SustainedThroughput {
    /// Folds one cycle into the running totals.
    pub fn record(&mut self, requested: usize, completed: usize, moves: usize, chip_time: Seconds) {
        self.cycles += 1;
        self.requested += requested;
        self.completed += completed;
        self.total_moves += moves;
        self.chip_time += chip_time;
    }

    /// Fraction of requests completed across all cycles.
    pub fn success_rate(&self) -> f64 {
        if self.requested == 0 {
            1.0
        } else {
            self.completed as f64 / self.requested as f64
        }
    }

    /// Completed particles per second of simulated chip time.
    pub fn particles_per_chip_second(&self) -> f64 {
        let t = self.chip_time.get();
        if t <= 0.0 {
            0.0
        } else {
            self.completed as f64 / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ThroughputReport {
        ThroughputReport {
            requested: 100,
            completed: 95,
            makespan_steps: 50,
            total_moves: 3_000,
            step_period: Seconds::new(0.4),
        }
    }

    #[test]
    fn rates_and_durations() {
        let r = report();
        assert!((r.success_rate() - 0.95).abs() < 1e-12);
        assert!((r.duration().get() - 20.0).abs() < 1e-12);
        assert!((r.particles_per_second() - 4.75).abs() < 1e-12);
        assert!((r.parallelism() - 60.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_manipulation_beats_serial() {
        // The whole point of the array: moving 95 cells one at a time at 30
        // steps each would take 95×30×0.4 s = 19 minutes; in parallel it took
        // 20 seconds.
        let r = report();
        let serial_steps: usize = 95 * 30;
        let serial_duration = r.step_period * serial_steps as f64;
        assert!(r.duration().get() < serial_duration.get() / 10.0);
    }

    #[test]
    fn sustained_throughput_accumulates_cycles() {
        let mut s = SustainedThroughput::default();
        s.record(100, 95, 3_000, Seconds::new(30.0));
        s.record(100, 90, 2_800, Seconds::new(30.0));
        assert_eq!(s.cycles, 2);
        assert_eq!(s.requested, 200);
        assert_eq!(s.completed, 185);
        assert!((s.success_rate() - 0.925).abs() < 1e-12);
        assert!((s.particles_per_chip_second() - 185.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn sustained_throughput_degenerate_cases() {
        let s = SustainedThroughput::default();
        assert_eq!(s.success_rate(), 1.0);
        assert_eq!(s.particles_per_chip_second(), 0.0);
    }

    #[test]
    fn degenerate_reports_do_not_divide_by_zero() {
        let r = ThroughputReport {
            requested: 0,
            completed: 0,
            makespan_steps: 0,
            total_moves: 0,
            step_period: Seconds::new(0.4),
        };
        assert_eq!(r.success_rate(), 1.0);
        assert_eq!(r.particles_per_second(), 0.0);
        assert_eq!(r.parallelism(), 0.0);
    }
}
