//! E2 — technology/voltage sweep: "older generation technologies may best
//! fit your purpose".
//!
//! For every CMOS node of the ladder the experiment builds a small chip at
//! that node's supply voltage (optionally using thick-oxide I/O drivers),
//! programs one cage, and measures the quantities the paper's argument rests
//! on: the DEP holding force (∝ V²), the trap stiffness, whether a viable
//! cell levitates at all, plus the mask-set cost of the node. The expected
//! shape: force falls steeply as the node advances while the NRE cost rises.

use crate::biochip::{Biochip, BiochipBuilder};
use crate::error::ChipError;
use crate::experiments::ExperimentTable;
use crate::scenario::{Limit, Scenario, ScenarioContext};
use labchip_array::technology::TechnologyNode;
use labchip_units::{GridCoord, GridDims};
use serde::{Deserialize, Serialize};

/// Configuration of the technology sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Nodes to sweep.
    pub nodes: Vec<TechnologyNode>,
    /// Whether thick-oxide I/O drivers are allowed.
    pub use_io_drivers: bool,
    /// Side of the (small) test array used for the field analysis.
    pub array_side: u32,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            nodes: TechnologyNode::ladder(),
            use_io_drivers: false,
            array_side: 11,
        }
    }
}

/// One row of the technology sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TechnologyRow {
    /// Node name.
    pub node: String,
    /// Drive voltage used.
    pub drive_voltage: f64,
    /// Electrode pitch in micrometres.
    pub pitch_um: f64,
    /// Lateral holding force of the cage, piconewtons.
    pub holding_force_pn: f64,
    /// Lateral trap stiffness, N/m.
    pub stiffness: f64,
    /// Whether a viable cell is stably levitated.
    pub levitates: bool,
    /// Levitation height in micrometres (0 when not levitating).
    pub levitation_height_um: f64,
    /// V² figure of merit relative to the 0.35 µm node.
    pub dep_figure_of_merit: f64,
    /// Mask-set cost in kilo-euros.
    pub mask_set_cost_keur: f64,
}

/// Result of the technology sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    /// One row per node, in sweep order (oldest first).
    pub rows: Vec<TechnologyRow>,
}

/// The row of one node, or the error of a chip the config cannot build
/// (an array without electrodes).
fn analyze_node(node: &TechnologyNode, config: &Config) -> Result<TechnologyRow, ChipError> {
    let mut chip: Biochip = BiochipBuilder::new()
        .dims(GridDims::square(config.array_side))
        .technology(node.clone())
        .pitch(node.electrode_pitch_for_cells(labchip_units::Meters::from_micrometers(25.0)))
        .io_drivers(config.use_io_drivers)
        .build()?;
    let center = GridCoord::new(config.array_side / 2, config.array_side / 2);
    chip.program_single_cage(center)?;
    let summary = chip.cage_summary(center)?;
    Ok(TechnologyRow {
        node: node.name.clone(),
        drive_voltage: chip.drive_voltage().get(),
        pitch_um: chip.array().pitch().as_micrometers(),
        holding_force_pn: summary.holding_force.as_piconewtons(),
        stiffness: summary.lateral_stiffness,
        levitates: summary.levitation_height.is_some(),
        levitation_height_um: summary
            .levitation_height
            .map(|h| h.as_micrometers())
            .unwrap_or(0.0),
        dep_figure_of_merit: node.dep_figure_of_merit(config.use_io_drivers),
        mask_set_cost_keur: node.mask_set_cost.as_kilo_euros(),
    })
}

/// The technology sweep as a first-class engine scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct TechnologyScenario;

impl Scenario for TechnologyScenario {
    type Config = Config;
    type Output = Results;

    fn id(&self) -> &'static str {
        "E2"
    }

    fn describe(&self) -> &'static str {
        "Technology sweep: DEP holding force vs supply voltage and node cost"
    }

    fn check_limits(&self, config: &Config) -> Result<(), Limit> {
        Limit::array_side(config.array_side)
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
    let mut rows = Vec::with_capacity(config.nodes.len());
    for node in &config.nodes {
        let row = match analyze_node(node, config) {
            Ok(row) => row,
            Err(err) => {
                ctx.emit_row(format!("{}: skipped, {err}", node.name));
                continue;
            }
        };
        ctx.emit_row(format!(
            "{}: {:.1} V, {:.1} pN holding force",
            row.node, row.drive_voltage, row.holding_force_pn
        ));
        rows.push(row);
    }
    Results { rows }
}

impl Results {
    /// Finds a row by (partial) node name.
    pub fn row_for(&self, name_fragment: &str) -> Option<&TechnologyRow> {
        self.rows.iter().find(|r| r.node.contains(name_fragment))
    }

    /// Renders the result as a report table.
    pub fn to_table(&self) -> ExperimentTable {
        ExperimentTable::new(
            "E2",
            "Technology sweep: DEP holding force vs supply voltage and node cost",
            vec![
                "node".into(),
                "drive [V]".into(),
                "pitch [um]".into(),
                "holding force [pN]".into(),
                "stiffness [N/m]".into(),
                "levitates".into(),
                "levitation [um]".into(),
                "V^2 FoM".into(),
                "mask set [kEUR]".into(),
            ],
            self.rows
                .iter()
                .map(|r| {
                    vec![
                        r.node.clone(),
                        format!("{:.1}", r.drive_voltage),
                        format!("{:.0}", r.pitch_um),
                        format!("{:.1}", r.holding_force_pn),
                        format!("{:.2e}", r.stiffness),
                        if r.levitates {
                            "yes".into()
                        } else {
                            "no".into()
                        },
                        format!("{:.1}", r.levitation_height_um),
                        format!("{:.2}", r.dep_figure_of_merit),
                        format!("{:.0}", r.mask_set_cost_keur),
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
        run_with(config, &mut ScenarioContext::silent("E2"))
    }

    /// An array without electrodes skips every node instead of panicking
    /// in the array constructor; one electrode is enough for a row.
    #[test]
    fn an_empty_array_skips_the_sweep() {
        let results = run(&Config {
            array_side: 0,
            ..Config::default()
        });
        assert!(results.rows.is_empty());
        let one = run(&Config {
            array_side: 1,
            ..Config::default()
        });
        assert_eq!(one.rows.len(), Config::default().nodes.len());
    }

    #[test]
    fn holding_force_falls_as_technology_advances() {
        // The paper's §2 claim: the actuation figure of merit is highest on
        // the oldest (highest-voltage) node and falls monotonically.
        let results = run(&Config::default());
        assert_eq!(results.rows.len(), 5);
        for pair in results.rows.windows(2) {
            assert!(
                pair[0].holding_force_pn >= pair[1].holding_force_pn * 0.99,
                "{} ({:.2} pN) should hold at least as strongly as {} ({:.2} pN)",
                pair[0].node,
                pair[0].holding_force_pn,
                pair[1].node,
                pair[1].holding_force_pn
            );
            assert!(pair[0].dep_figure_of_merit >= pair[1].dep_figure_of_merit);
            assert!(pair[0].mask_set_cost_keur <= pair[1].mask_set_cost_keur);
        }
    }

    #[test]
    fn old_nodes_levitate_cells_newest_struggles() {
        let results = run(&Config::default());
        let old = results.row_for("0.35").expect("0.35 um node swept");
        assert!(old.levitates, "the paper's node must levitate the cell");
        assert!(old.holding_force_pn > 1.0);
        // The 1.0 V, 90 nm node has (1/3.3)² ≈ 9 % of the reference force.
        let newest = results.row_for("90 nm").expect("90 nm node swept");
        assert!(newest.dep_figure_of_merit < 0.15);
    }

    #[test]
    fn io_drivers_recover_force_on_advanced_nodes() {
        let core_only = run(&Config::default());
        let with_io = run(&Config {
            use_io_drivers: true,
            ..Config::default()
        });
        let core_row = core_only.row_for("0.18").unwrap();
        let io_row = with_io.row_for("0.18").unwrap();
        assert!(io_row.drive_voltage > core_row.drive_voltage);
        assert!(io_row.holding_force_pn > core_row.holding_force_pn * 2.0);
    }

    #[test]
    fn table_shape() {
        let table = run(&Config::default()).to_table();
        assert_eq!(table.row_count(), 5);
        assert_eq!(table.columns.len(), 9);
    }
}
