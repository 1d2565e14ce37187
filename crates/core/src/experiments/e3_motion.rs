//! E3 — motion timescales: "cells move … at 10–100 µm/s … plenty of time to
//! program the actuator array, scan sensor output etc."
//!
//! A single cell is dragged across the array by stepping its cage one
//! electrode at a time at a commanded speed. The experiment reports, per
//! commanded speed: whether the cell kept up (tracking success), the achieved
//! speed, and how the cage-step period compares with the time the electronics
//! needs to reprogram the array and scan the sensors — the slack the paper
//! proposes to spend on quality.

use crate::biochip::Biochip;
use crate::experiments::ExperimentTable;
use crate::scenario::{Limit, Scenario, ScenarioContext};
use crate::simulator::{ChipSimulator, SimulationConfig};
use labchip_array::addressing::ProgrammingInterface;
use labchip_sensing::scan::ScanTiming;
use labchip_units::{GridCoord, GridDims, MetersPerSecond, Seconds};
use serde::{Deserialize, Serialize};

/// Configuration of the motion experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Commanded cell speeds in micrometres per second.
    pub speeds_um_s: Vec<f64>,
    /// Number of cage steps to command.
    pub travel_steps: u32,
    /// Side of the (small) test array.
    pub array_side: u32,
    /// Integration time step.
    pub dt: Seconds,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the particle loop (0 = all cores). The experiment
    /// steps a single cell, so the default pins one worker and avoids
    /// spawn overhead; population-scale assays raise it.
    pub threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            speeds_um_s: vec![10.0, 25.0, 50.0, 100.0, 200.0, 5_000.0],
            travel_steps: 6,
            array_side: 16,
            dt: Seconds::from_millis(1.0),
            seed: 7,
            threads: 1,
        }
    }
}

/// One row of the motion experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MotionRow {
    /// Commanded speed, µm/s.
    pub commanded_um_s: f64,
    /// Cage-step period, milliseconds.
    pub step_period_ms: f64,
    /// Achieved speed of the cell, µm/s (distance travelled / elapsed time).
    pub achieved_um_s: f64,
    /// Final lateral distance from the last cage centre, µm.
    pub final_error_um: f64,
    /// Whether the cell was still trapped at the end (error below one pitch).
    pub tracked: bool,
    /// Electronics busy time per step (programming + one sensor scan), ms.
    pub electronics_ms: f64,
    /// Slack ratio: step period over electronics busy time.
    pub slack_ratio: f64,
}

/// Result of the motion experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    /// One row per commanded speed.
    pub rows: Vec<MotionRow>,
}

fn run_speed(config: &Config, speed_um_s: f64, ctx: &ScenarioContext) -> MotionRow {
    let mut chip = Biochip::small_reference(config.array_side);
    let start = GridCoord::new(2, config.array_side / 2);
    chip.program_single_cage(start)
        .expect("start electrode exists");
    let pitch = chip.array().pitch();
    let pitch_m = pitch.get();

    // Electronics timing uses the *full-size* paper chip, which is the
    // honest comparison: the mechanics does not care how big the array is,
    // the electronics does.
    let paper_dims = GridDims::new(320, 320);
    let programming = ProgrammingInterface::date05_reference().full_frame_time(paper_dims);
    let scan = ScanTiming::date05_reference().frame_time(paper_dims);
    let electronics = programming + scan;

    let speed = MetersPerSecond::from_micrometers_per_second(speed_um_s);
    let step_period = pitch / speed;

    let mut sim = ChipSimulator::new(
        chip,
        SimulationConfig {
            dt: config.dt,
            brownian: true,
            seed: config.seed,
        },
    )
    .with_threads(config.threads);
    // Long drags report liveness through the scenario progress sink.
    sim.set_step_observer(ctx.step_observer());
    let idx = sim
        .add_reference_particle_at(start)
        .expect("start site is on the array");

    // Let the cell settle into the cage before moving.
    sim.run_for(Seconds::new(0.5));

    let mut cage = start;
    for step in 0..config.travel_steps {
        cage = GridCoord::new(start.x + step + 1, start.y);
        sim.chip_mut()
            .program_single_cage(cage)
            .expect("target electrode exists");
        sim.refresh_field();
        sim.run_for(step_period);
    }

    let final_error = sim.lateral_distance_from(idx, cage);
    let travel_time = step_period.get() * config.travel_steps as f64;
    let start_center = sim
        .chip()
        .array()
        .to_electrode_plane()
        .electrode_center(start);
    let travelled = (sim.particles()[idx].state.position.xy()
        - labchip_units::Vec2::new(start_center.x, start_center.y))
    .norm();
    let achieved = travelled / travel_time;

    MotionRow {
        commanded_um_s: speed_um_s,
        step_period_ms: step_period.as_millis(),
        achieved_um_s: achieved * 1e6,
        final_error_um: final_error * 1e6,
        tracked: final_error < pitch_m,
        electronics_ms: electronics.as_millis(),
        slack_ratio: step_period.get() / electronics.get(),
    }
}

/// The motion experiment as a first-class engine scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct MotionScenario;

impl Scenario for MotionScenario {
    type Config = Config;
    type Output = Results;

    fn id(&self) -> &'static str {
        "E3"
    }

    fn describe(&self) -> &'static str {
        "Motion timescales: cage stepping vs electronics time budget"
    }

    fn check_limits(&self, config: &Config) -> Result<(), Limit> {
        Limit::array_side(config.array_side)?;
        Limit::threads("threads", config.threads)
    }

    fn run(&self, config: &Config, ctx: &mut ScenarioContext) -> Results {
        run_with(config, ctx)
    }
}

impl From<Results> for ExperimentTable {
    fn from(results: Results) -> Self {
        results.to_table()
    }
}

fn run_with(config: &Config, ctx: &mut ScenarioContext) -> Results {
    // The drag starts on column 2 and ends `travel_steps` columns on, which
    // must still lie on the array.
    if u64::from(config.travel_steps) + 2 >= u64::from(config.array_side) {
        ctx.emit_row(format!(
            "skipped: a {}-step drag from column 2 leaves the {}-column array",
            config.travel_steps, config.array_side
        ));
        return Results { rows: Vec::new() };
    }
    let mut rows = Vec::with_capacity(config.speeds_um_s.len());
    for &speed in &config.speeds_um_s {
        let row = run_speed(config, speed, ctx);
        ctx.emit_row(format!(
            "{speed:.0} um/s commanded: achieved {:.1} um/s, tracked = {}",
            row.achieved_um_s, row.tracked
        ));
        rows.push(row);
    }
    Results { rows }
}

impl Results {
    /// Highest commanded speed at which the cell still tracked its cage.
    pub fn max_tracked_speed(&self) -> Option<f64> {
        self.rows
            .iter()
            .filter(|r| r.tracked)
            .map(|r| r.commanded_um_s)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Renders the result as a report table.
    pub fn to_table(&self) -> ExperimentTable {
        ExperimentTable::new(
            "E3",
            "Motion timescales: cage stepping vs electronics time budget",
            vec![
                "commanded [um/s]".into(),
                "step period [ms]".into(),
                "achieved [um/s]".into(),
                "final error [um]".into(),
                "tracked".into(),
                "electronics [ms]".into(),
                "slack ratio".into(),
            ],
            self.rows
                .iter()
                .map(|r| {
                    vec![
                        format!("{:.0}", r.commanded_um_s),
                        format!("{:.0}", r.step_period_ms),
                        format!("{:.1}", r.achieved_um_s),
                        format!("{:.1}", r.final_error_um),
                        if r.tracked { "yes".into() } else { "no".into() },
                        format!("{:.2}", r.electronics_ms),
                        format!("{:.0}", r.slack_ratio),
                    ]
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(config: &Config) -> Results {
        run_with(config, &mut ScenarioContext::silent("E3"))
    }

    fn quick_config() -> Config {
        Config {
            speeds_um_s: vec![25.0, 50.0, 5_000.0],
            travel_steps: 4,
            ..Config::default()
        }
    }

    #[test]
    fn cells_track_at_paper_speeds_but_not_arbitrarily_fast() {
        let results = run(&quick_config());
        let slow = &results.rows[0];
        let medium = &results.rows[1];
        let fast = &results.rows[2];
        // C4: 10-100 µm/s is the working range.
        assert!(slow.tracked, "cell must track at 25 um/s");
        assert!(medium.tracked, "cell must track at 50 um/s");
        // At 5 mm/s the Stokes drag needed to keep up (~850 pN) exceeds the
        // cage's holding force and the cell is left behind.
        assert!(!fast.tracked, "tracking should fail at 5 mm/s");
        assert_eq!(results.max_tracked_speed().unwrap(), 50.0);
    }

    /// A drag that would leave the array is skipped, not run off its edge:
    /// the last cage of a `travel_steps` drag sits on column
    /// `2 + travel_steps`, so the array needs one column more.
    #[test]
    fn a_drag_off_the_array_is_skipped() {
        let config = |array_side, travel_steps| Config {
            speeds_um_s: vec![50.0],
            travel_steps,
            array_side,
            ..Config::default()
        };
        for (side, travel) in [(0, 0), (2, 0), (3, 1), (16, 14), (16, 40), (16, u32::MAX)] {
            assert!(
                run(&config(side, travel)).rows.is_empty(),
                "{side}/{travel}"
            );
        }
        for (side, travel) in [(3, 0), (4, 1), (16, 13)] {
            assert_eq!(run(&config(side, travel)).rows.len(), 1, "{side}/{travel}");
        }
    }

    #[test]
    fn electronics_slack_is_enormous_at_working_speeds() {
        let results = run(&quick_config());
        let medium = &results.rows[1];
        // C4: the electronics needs a few ms per step, the mechanics takes
        // hundreds — a slack ratio of tens to hundreds.
        assert!(medium.slack_ratio > 10.0, "slack = {}", medium.slack_ratio);
        assert!(medium.electronics_ms < 20.0);
        assert!(medium.step_period_ms > 100.0);
    }

    #[test]
    fn achieved_speed_is_close_to_commanded_when_tracking() {
        let results = run(&quick_config());
        let medium = &results.rows[1];
        assert!(
            (medium.achieved_um_s / medium.commanded_um_s) > 0.6,
            "achieved {} um/s at commanded {}",
            medium.achieved_um_s,
            medium.commanded_um_s
        );
    }

    #[test]
    fn table_shape() {
        let table = run(&quick_config()).to_table();
        assert_eq!(table.row_count(), 3);
        assert_eq!(table.columns.len(), 7);
    }
}
