//! E11 — sustained-throughput assay: repeated route→sense→flush cycles on
//! the full array.
//!
//! The paper's working regime is not one manipulation but a *stream* of
//! them: load a batch, sort it, read the sensors, flush, repeat. This
//! experiment drives the [`BatchDriver`] for a configurable number of
//! cycles and reports, per cycle: routing success, makespan, planned
//! moves, the simulated chip time by phase (fluidics / sensing / motion),
//! and how much of the cage-step period the array's row-rewrite budget
//! actually used. The totals row gives the sustained figures in chip time.
//! Every figure is a pure function of `(config, seed)`.

use crate::experiments::ExperimentTable;
use crate::scenario::{Limit, Scenario, ScenarioContext};
use crate::workload::{BatchDriver, CycleReport, RecoveryPolicy, WorkloadConfig};
use labchip_manipulation::sharding::ShardConfig;
use labchip_units::Seconds;
use serde::{Deserialize, Serialize};

/// Configuration of the sustained-throughput assay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Array side (electrodes).
    pub array_side: u32,
    /// Particles loaded per cycle (clamped to the target-pattern capacity).
    pub particles_per_cycle: usize,
    /// Number of route→sense→flush cycles.
    pub cycles: usize,
    /// Minimum cage separation.
    pub min_separation: u32,
    /// Cage-step period.
    pub step_period: Seconds,
    /// Sensor frames averaged per detection scan.
    pub detection_frames: u32,
    /// Scale applied to every sensor noise term (1 = reference channel).
    pub noise_scale: f64,
    /// Fluidic handling time per batch load.
    pub load_time: Seconds,
    /// Fluidic handling time per batch flush.
    pub flush_time: Seconds,
    /// Shard tile side of the incremental router.
    pub shard_side: u32,
    /// Steps per planning window.
    pub window: u32,
    /// Worker threads for the sharded planner (0 = all cores).
    pub threads: usize,
    /// Reuse per-shard plans across cycles (bit-identical output either way).
    pub reuse_plans: bool,
    /// Base RNG seed for batch placement.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            array_side: 128,
            particles_per_cycle: 500,
            cycles: 3,
            min_separation: 2,
            step_period: Seconds::new(0.4),
            detection_frames: 16,
            noise_scale: 1.0,
            load_time: Seconds::from_minutes(1.0),
            flush_time: Seconds::from_minutes(0.5),
            shard_side: 32,
            window: 8,
            threads: 0,
            reuse_plans: false,
            seed: 2005,
        }
    }
}

/// One cycle of the assay, rendered for the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CycleRow {
    /// Zero-based cycle index.
    pub cycle: usize,
    /// Particles loaded.
    pub particles: usize,
    /// Particles routed to their targets.
    pub routed: usize,
    /// Makespan in cage steps.
    pub makespan_steps: usize,
    /// Cage moves planned.
    pub total_moves: usize,
    /// Cage-motion time at the step period, seconds.
    pub motion_s: f64,
    /// Detection-scan time, seconds.
    pub sensing_s: f64,
    /// Fluidic handling time, seconds.
    pub fluidics_s: f64,
    /// Fraction of the step period the busiest row rewrite used.
    pub programming_utilization: f64,
    /// Whether the executed plan passed the separation invariant.
    pub conflict_free: bool,
}

impl CycleRow {
    /// Renders a driver cycle report for the table; `step_period` is the
    /// budget the programming utilization is measured against.
    pub fn from_report(report: &CycleReport, step_period: Seconds) -> Self {
        Self {
            cycle: report.cycle,
            particles: report.requested,
            routed: report.routed,
            makespan_steps: report.makespan_steps,
            total_moves: report.total_moves,
            motion_s: report.time.motion.get(),
            sensing_s: report.time.sensing.get(),
            fluidics_s: report.time.fluidics.get(),
            programming_utilization: report.budget.utilization(step_period),
            conflict_free: report.conflict_free,
        }
    }
}

/// Result of the sustained-throughput assay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    /// One row per cycle.
    pub rows: Vec<CycleRow>,
    /// Particles requested across all cycles.
    pub total_requested: usize,
    /// Particles routed across all cycles.
    pub total_routed: usize,
    /// Cage moves across all cycles.
    pub total_moves: usize,
    /// Completed particles per hour of simulated chip time.
    pub particles_per_chip_hour: f64,
    /// Maximum cage speed the force envelope permits, µm/s.
    pub envelope_max_speed_um_s: f64,
    /// Planned moves checked against the envelope across all cycles.
    pub moves_checked: usize,
    /// Moves the envelope rejected (0 for a feasible step period).
    pub infeasible_moves: usize,
}

impl Results {
    /// Renders the result as a report table (cycle rows plus a totals row).
    pub fn to_table(&self) -> ExperimentTable {
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.cycle.to_string(),
                    r.particles.to_string(),
                    format!(
                        "{:.1}%",
                        100.0 * r.routed as f64 / r.particles.max(1) as f64
                    ),
                    r.makespan_steps.to_string(),
                    r.total_moves.to_string(),
                    format!("{:.0}", r.motion_s),
                    format!("{:.2}", r.sensing_s),
                    format!("{:.0}", r.fluidics_s),
                    format!("{:.2}%", 100.0 * r.programming_utilization),
                ]
            })
            .collect();
        rows.push(vec![
            "total".into(),
            self.total_requested.to_string(),
            format!(
                "{:.1}%",
                100.0 * self.total_routed as f64 / self.total_requested.max(1) as f64
            ),
            "-".into(),
            self.total_moves.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
        ExperimentTable::new(
            "E11",
            "Sustained throughput: repeated route→sense→flush assay cycles",
            vec![
                "cycle".into(),
                "particles".into(),
                "routed".into(),
                "makespan [steps]".into(),
                "moves".into(),
                "motion [s]".into(),
                "sense [s]".into(),
                "fluidics [s]".into(),
                "prog util".into(),
            ],
            rows,
        )
    }
}

impl From<Results> for ExperimentTable {
    fn from(results: Results) -> Self {
        results.to_table()
    }
}

fn run_with(config: &Config, ctx: &mut ScenarioContext) -> Results {
    let workload = WorkloadConfig {
        array_side: config.array_side,
        shards: ShardConfig {
            shard_side: config.shard_side,
            window: config.window,
        },
        min_separation: config.min_separation,
        step_period: config.step_period,
        detection_frames: config.detection_frames,
        noise_scale: config.noise_scale,
        recovery: RecoveryPolicy::disabled(),
        load_time: config.load_time,
        flush_time: config.flush_time,
        reuse_plans: config.reuse_plans,
        seed: config.seed,
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(config.threads)
        .build()
        .expect("thread pool construction is infallible");
    let mut driver = BatchDriver::new(workload);

    let mut rows = Vec::with_capacity(config.cycles);
    let mut moves_checked = 0usize;
    let mut infeasible_moves = 0usize;
    for _ in 0..config.cycles {
        let report = pool.install(|| driver.run_cycle(config.particles_per_cycle));
        moves_checked += report.moves_checked;
        infeasible_moves += report.infeasible_moves;
        let row = CycleRow::from_report(&report, config.step_period);
        ctx.emit_row(format!(
            "cycle {}: {}/{} routed, {} moves",
            row.cycle, row.routed, row.particles, row.total_moves
        ));
        rows.push(row);
    }

    let totals = driver.totals();
    let results = Results {
        rows,
        total_requested: totals.requested,
        total_routed: totals.completed,
        total_moves: totals.total_moves,
        particles_per_chip_hour: totals.particles_per_chip_second() * 3600.0,
        envelope_max_speed_um_s: driver.envelope().max_speed.as_micrometers_per_second(),
        moves_checked,
        infeasible_moves,
    };
    ctx.emit_row(format!(
        "sustained: {} moves planned, {:.0} particles/chip-hour",
        results.total_moves, results.particles_per_chip_hour
    ));
    results
}

/// The sustained-throughput assay as a first-class engine scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThroughputScenario;

impl Scenario for ThroughputScenario {
    type Config = Config;
    type Output = Results;

    fn id(&self) -> &'static str {
        "E11"
    }

    fn describe(&self) -> &'static str {
        "Sustained-throughput assay: repeated route/sense/flush cycles"
    }

    fn check_limits(&self, config: &Config) -> Result<(), Limit> {
        Limit::array_side(config.array_side)?;
        Limit::threads("threads", config.threads)?;
        Limit::frames("detection_frames", config.detection_frames.into())
    }

    fn run(&self, config: &Config, ctx: &mut ScenarioContext) -> Results {
        run_with(config, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(config: &Config) -> Results {
        run_with(config, &mut ScenarioContext::silent("E11"))
    }

    fn quick_config() -> Config {
        Config {
            array_side: 64,
            particles_per_cycle: 60,
            cycles: 2,
            threads: 1,
            ..Config::default()
        }
    }

    #[test]
    fn cycles_run_and_totals_accumulate() {
        let results = run(&quick_config());
        assert_eq!(results.rows.len(), 2);
        assert_eq!(results.total_requested, 120);
        assert!(
            results.total_routed > 100,
            "routed {}",
            results.total_routed
        );
        assert!(results.total_moves > 0);
        assert!(results.particles_per_chip_hour > 0.0);
        assert_eq!(results.infeasible_moves, 0);
        assert!(results.moves_checked >= results.total_moves);
    }

    #[test]
    fn every_cycle_is_conflict_free_with_slack() {
        let results = run(&quick_config());
        for row in &results.rows {
            assert!(row.conflict_free, "{row:?}");
            assert!(row.programming_utilization < 0.5, "{row:?}");
            assert!(row.fluidics_s > row.sensing_s);
        }
    }

    #[test]
    fn table_has_cycle_rows_plus_totals() {
        let results = run(&quick_config());
        let table = results.to_table();
        assert_eq!(table.columns.len(), 9);
        assert_eq!(table.row_count(), 3);
        assert!(table.to_string().contains("total"));
    }
}
