//! E9 — the assembled device (Fig. 3) runs an end-to-end assay.
//!
//! A complete single-cell isolation assay runs on the journaled
//! [`ChipState`] of the packaged chip: load a sample, scan the sensors,
//! isolate the target cell with [`ops`], scan again, wash the rest to the
//! waste edge, recover the target. The result is the time budget split
//! between fluidic handling, sensing and cage motion — the system-level
//! confirmation that mass transfer, not electronics, dominates the
//! experiment (and that the packaged device has everything it needs).
//! Overrides that leave no room for a cell degrade instead of failing:
//! the report counts the cells actually placed, and isolate, wash and
//! recover are skipped when there is no target.

use crate::experiments::ExperimentTable;
use crate::scenario::{Limit, Scenario, ScenarioContext};
use labchip_fluidics::fabrication::{FabricationProcess, ProcessKind};
use labchip_fluidics::packaging::PackagingStack;
use labchip_manipulation::cage::ParticleId;
use labchip_manipulation::error::ManipulationError;
use labchip_manipulation::ops;
use labchip_manipulation::state::{ChipState, TimeLedger};
use labchip_sensing::averaging::FrameAverager;
use labchip_sensing::scan::ScanTiming;
use labchip_units::{GridCoord, GridDims, Seconds};
use serde::{Deserialize, Serialize};

/// Configuration of the end-to-end assay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Array side of the working region used by the assay.
    pub array_side: u32,
    /// Number of cells loaded.
    pub cells: u32,
    /// Frames averaged per detection scan.
    pub detection_frames: u32,
    /// Sample loading time (pipetting, settling, trapping).
    pub load_time: Seconds,
    /// Recovery handling time.
    pub recover_time: Seconds,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            array_side: 32,
            cells: 9,
            detection_frames: 32,
            load_time: Seconds::from_minutes(3.0),
            recover_time: Seconds::from_minutes(1.0),
        }
    }
}

/// Result of the end-to-end assay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    /// Cells loaded.
    pub cells_loaded: u32,
    /// Cells recovered.
    pub cells_recovered: usize,
    /// Total cage steps executed.
    pub cage_steps: usize,
    /// Time spent in fluidic handling.
    pub fluidics: Seconds,
    /// Time spent scanning sensors.
    pub sensing: Seconds,
    /// Time spent moving cages.
    pub motion: Seconds,
    /// Packaged-device assembly turnaround (dry-film process).
    pub device_turnaround: Seconds,
    /// Packaged-device incremental cost in euros.
    pub device_cost_eur: f64,
}

/// The end-to-end assay as a first-class engine scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct AssayScenario;

impl Scenario for AssayScenario {
    type Config = Config;
    type Output = Results;

    fn id(&self) -> &'static str {
        "E9"
    }

    fn describe(&self) -> &'static str {
        "End-to-end single-cell isolation assay on the packaged device"
    }

    fn check_limits(&self, config: &Config) -> Result<(), Limit> {
        Limit::array_side(config.array_side)?;
        Limit::frames("detection_frames", config.detection_frames.into())
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

/// Runs the assay on a fresh journaled chip state and returns the final
/// state (journal still attached) with the results.
fn run_assay(config: &Config, ctx: &mut ScenarioContext) -> (ChipState, Results) {
    let dims = GridDims::square(config.array_side);
    let mut state = ChipState::new(dims);
    state.attach_journal();
    let step_period = ops::reference_step_period();

    // Load: cells trap on the first sites, row by row, of a period-4
    // lattice from (2, 2) — as many as the array holds up to the requested
    // number. Ids are assigned in coordinate order.
    let side = config.array_side;
    let mut sites: Vec<GridCoord> = (2..side)
        .step_by(4)
        .flat_map(|y| (2..side).step_by(4).map(move |x| GridCoord::new(x, y)))
        .take(config.cells as usize)
        .collect();
    sites.sort_unstable();
    let mut loaded = 0u32;
    for site in sites {
        if state.place(ParticleId(u64::from(loaded)), site).is_ok() {
            loaded += 1;
        }
    }
    state.charge(TimeLedger::Fluidics, config.load_time);

    // Detection scan time: full-array scan with the configured averaging.
    let scan_time = ScanTiming::date05_reference()
        .averaged_scan_time(dims, &FrameAverager::new(config.detection_frames.max(1)));

    let target = ParticleId(0);
    let mut cage_steps = 0;
    let mut recovered = 0;
    state.charge(TimeLedger::Sensing, scan_time);
    let mut isolate_and_recover = |state: &mut ChipState| -> Result<(), ManipulationError> {
        cage_steps += ops::isolate(state, target, step_period)?;
        state.charge(TimeLedger::Sensing, scan_time);
        cage_steps += ops::wash_except(state, &[target], step_period)?;
        state.remove(target)?;
        state.charge(TimeLedger::Fluidics, config.recover_time);
        recovered += 1;
        Ok(())
    };
    if loaded == 0 {
        state.charge(TimeLedger::Sensing, scan_time);
        ctx.emit_row("no cell loaded: isolate, wash and recover skipped");
    } else if let Err(error) = isolate_and_recover(&mut state) {
        ctx.emit_row(format!("assay stopped: {error}"));
    }

    // The physical device the assay runs on (Fig. 3).
    let stack = PackagingStack::date05_reference();
    let process = FabricationProcess::preset(ProcessKind::DryFilmResist);
    let time = *state.time();
    let results = Results {
        cells_loaded: loaded,
        cells_recovered: recovered,
        cage_steps,
        fluidics: time.fluidics,
        sensing: time.sensing,
        motion: time.motion,
        device_turnaround: stack.assembly_turnaround(&process),
        device_cost_eur: stack.assembly_cost(&process).get(),
    };
    (state, results)
}

fn run_with(config: &Config, ctx: &mut ScenarioContext) -> Results {
    let (_, results) = run_assay(config, ctx);
    ctx.emit_row(format!(
        "recovered {}/{} cells in {} cage steps",
        results.cells_recovered, results.cells_loaded, results.cage_steps
    ));
    ctx.emit_row(format!(
        "assay total {:.1} min ({:.1}% fluidics)",
        results.total_time().as_minutes(),
        100.0 * results.fluidics.get() / results.total_time().get().max(f64::MIN_POSITIVE)
    ));
    results
}

impl Results {
    /// Total assay time.
    pub fn total_time(&self) -> Seconds {
        self.fluidics + self.sensing + self.motion
    }

    /// Renders the result as a report table.
    pub fn to_table(&self) -> ExperimentTable {
        let total = self.total_time();
        let percent = |part: Seconds| {
            if total.get() > 0.0 {
                format!("{:.1}%", 100.0 * part.get() / total.get())
            } else {
                "0%".into()
            }
        };
        ExperimentTable::new(
            "E9",
            "End-to-end single-cell isolation assay on the packaged device",
            vec!["quantity".into(), "value".into(), "share of assay".into()],
            vec![
                vec![
                    "cells loaded".into(),
                    self.cells_loaded.to_string(),
                    "-".into(),
                ],
                vec![
                    "cells recovered".into(),
                    self.cells_recovered.to_string(),
                    "-".into(),
                ],
                vec!["cage steps".into(), self.cage_steps.to_string(), "-".into()],
                vec![
                    "fluidic handling".into(),
                    format!("{:.1} min", self.fluidics.as_minutes()),
                    percent(self.fluidics),
                ],
                vec![
                    "sensor scanning".into(),
                    format!("{:.1} ms", self.sensing.as_millis()),
                    percent(self.sensing),
                ],
                vec![
                    "cage motion".into(),
                    format!("{:.1} min", self.motion.as_minutes()),
                    percent(self.motion),
                ],
                vec![
                    "total assay".into(),
                    format!("{:.1} min", total.as_minutes()),
                    "100%".into(),
                ],
                vec![
                    "device turnaround".into(),
                    format!("{:.1} days", self.device_turnaround.as_days()),
                    "-".into(),
                ],
                vec![
                    "device cost".into(),
                    format!("{:.0} EUR", self.device_cost_eur),
                    "-".into(),
                ],
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use labchip_manipulation::journal::replay;

    fn run(config: &Config) -> Results {
        run_with(config, &mut ScenarioContext::silent("E9"))
    }

    #[test]
    fn assay_completes_and_recovers_the_target() {
        let results = run(&Config::default());
        assert_eq!(results.cells_recovered, 1);
        assert!(results.cage_steps > 0);
        assert!(results.total_time().as_minutes() > 3.0);
    }

    #[test]
    fn default_assay_output_is_pinned() {
        let results = run(&Config::default());
        assert_eq!(results.cells_loaded, 9);
        assert_eq!(results.cells_recovered, 1);
        assert_eq!(results.cage_steps, 93);
        assert_eq!(results.fluidics, Seconds::new(240.0));
        assert_eq!(results.sensing, Seconds::new(0.006144));
        assert_eq!(results.motion, Seconds::new(37.2));
    }

    #[test]
    fn assay_journal_replays_to_the_live_state() {
        let config = Config::default();
        let (mut state, _) = run_assay(&config, &mut ScenarioContext::silent("E9"));
        let journal = state.take_journal().expect("E9 attaches a journal");
        let dims = GridDims::square(config.array_side);
        let replayed = replay(&journal, dims, state.grid().min_separation())
            .expect("the assay journal replays");
        assert_eq!(replayed.state_hash(), state.state_hash());
        assert_eq!(replayed, state);
    }

    #[test]
    fn overrides_without_room_for_cells_degrade() {
        let with = |array_side, cells, detection_frames| Config {
            array_side,
            cells,
            detection_frames,
            ..Config::default()
        };
        // No cell requested, or an array too small for the load lattice:
        // nothing is loaded, so isolate, wash and recover are skipped.
        for config in [with(32, 0, 32), with(2, 9, 32), with(1, 9, 32)] {
            let results = run(&config);
            assert_eq!(results.cells_loaded, 0, "{config:?}");
            assert_eq!(results.cells_recovered, 0);
            assert_eq!(results.cage_steps, 0);
            assert_eq!(results.motion, Seconds::ZERO);
            assert_eq!(results.fluidics, config.load_time);
        }
        // A 3×3 array holds one lattice site: one cell is loaded, not nine.
        let results = run(&with(3, 9, 32));
        assert_eq!((results.cells_loaded, results.cells_recovered), (1, 1));
        // Zero averaged frames scan like one instead of aborting.
        assert_eq!(run(&with(32, 9, 0)).sensing, run(&with(32, 9, 1)).sensing);
    }

    #[test]
    fn fluidics_dominates_then_motion_then_sensing() {
        // The system-level restatement of C4: mass transfer (handling and
        // cage motion) dwarfs the electronics time.
        let results = run(&Config::default());
        assert!(results.fluidics > results.motion);
        assert!(results.motion > results.sensing);
        assert!(
            results.sensing.get() < 5.0,
            "sensing = {} s",
            results.sensing.get()
        );
    }

    #[test]
    fn packaged_device_is_days_and_tens_of_euros() {
        let results = run(&Config::default());
        assert!(results.device_turnaround.as_days() < 5.0);
        assert!(results.device_cost_eur < 60.0);
    }

    #[test]
    fn more_cells_mean_more_cage_steps() {
        let small = run(&Config {
            cells: 4,
            ..Config::default()
        });
        let large = run(&Config {
            cells: 16,
            ..Config::default()
        });
        assert!(large.cage_steps >= small.cage_steps);
        assert_eq!(large.cells_recovered, 1);
    }

    #[test]
    fn table_shape() {
        let table = run(&Config::default()).to_table();
        assert_eq!(table.columns.len(), 3);
        assert_eq!(table.row_count(), 9);
        assert!(table.to_string().contains("cells recovered"));
    }
}
