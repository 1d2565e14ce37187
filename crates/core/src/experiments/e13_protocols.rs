//! E13 — programmable protocols: assays as data through the phase pipeline.
//!
//! Every driver scenario before this one ran the *same* hard-coded
//! load→route→sense→flush cycle; the chip's actual value proposition is
//! that one device runs **arbitrary** assay protocols. This scenario
//! executes a [`Protocol`] — a serde-round-trippable ordered list of
//! [`PhaseSpec`]s with per-phase knobs — through
//! [`BatchDriver::execute`](crate::workload::BatchDriver::execute): the default is a
//! two-population merge assay
//! (`load → route(sort) → sense → route(merge pairs) → sense → flush`)
//! that the retired monolithic `run_cycle` literally could not express,
//! and any other phase list can be injected straight from the CLI
//! (`report run e13 --set 'protocol={...}'`).
//!
//! Per phase the table reports the simulated time by ledger
//! (fluidics/sensing/motion/recovery), the cage moves commanded and the
//! particle population — the per-phase cost breakdown of a programmable
//! assay — plus a totals row with the cycle-level outcome (routed counts,
//! detected occupancy, final plan mismatches).

use crate::experiments::ExperimentTable;
use crate::scenario::{Limit, Scenario, ScenarioContext};
use crate::workload::{
    BatchDriver, PhaseSpec, Protocol, RecoveryPolicy, RouteTarget, WorkloadConfig,
};
use labchip_manipulation::sharding::ShardConfig;
use labchip_units::Seconds;
use serde::{Deserialize, Serialize};

/// Configuration of the programmable-protocol scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Array side (electrodes).
    pub array_side: u32,
    /// Particles loaded by the *default* protocol (ignored when an explicit
    /// `protocol` is supplied — that protocol's own load phases rule).
    pub particles: usize,
    /// The protocol to execute; `None` runs the default two-population
    /// merge assay built from `particles`.
    pub protocol: Option<Protocol>,
    /// Minimum cage separation.
    pub min_separation: u32,
    /// Cage-step period.
    pub step_period: Seconds,
    /// Sensor frames averaged per detection scan.
    pub detection_frames: u32,
    /// Scale applied to every sensor noise term (1 = reference channel).
    pub noise_scale: f64,
    /// Recovery policy for `Recover` phases that do not override it.
    pub recovery: RecoveryPolicy,
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
    /// Base RNG seed (batch placement and sensor noise).
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            array_side: 96,
            particles: 120,
            protocol: None,
            min_separation: 2,
            step_period: Seconds::new(0.4),
            detection_frames: 8,
            noise_scale: 1.0,
            recovery: RecoveryPolicy::disabled(),
            load_time: Seconds::from_minutes(1.0),
            flush_time: Seconds::from_minutes(0.5),
            shard_side: 32,
            window: 8,
            threads: 0,
            seed: 2005,
        }
    }
}

/// The default two-population merge assay: sort the batch into two
/// populations, verify, bring consecutive pairs together at minimum
/// separation in the centre, verify again, flush.
pub fn default_protocol(particles: usize) -> Protocol {
    Protocol::new("two-population-merge")
        .with_phase(PhaseSpec::Load {
            particles,
            capacity_clamp: None,
        })
        .with_phase(PhaseSpec::Route {
            target: RouteTarget::SortSplit,
        })
        .with_phase(PhaseSpec::Sense { frames: None })
        .with_phase(PhaseSpec::Route {
            target: RouteTarget::MergePairs,
        })
        .with_phase(PhaseSpec::Sense { frames: None })
        .with_phase(PhaseSpec::Flush)
}

/// One executed phase, rendered for the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseRow {
    /// Zero-based phase index.
    pub index: usize,
    /// Phase name (with target annotation).
    pub phase: String,
    /// Cage moves this phase commanded.
    pub moves: usize,
    /// Particles on the grid after the phase.
    pub particles_after: usize,
    /// Fluidic time charged, seconds.
    pub fluidics_s: f64,
    /// Sensing time charged, seconds.
    pub sensing_s: f64,
    /// Motion time charged, seconds.
    pub motion_s: f64,
    /// Recovery time charged, seconds.
    pub recovery_s: f64,
    /// One-line phase summary.
    pub detail: String,
}

/// Result of the programmable-protocol run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    /// Name of the executed protocol.
    pub protocol_name: String,
    /// One row per executed phase.
    pub rows: Vec<PhaseRow>,
    /// Particles loaded across all load phases.
    pub requested: usize,
    /// Requests delivered across all route phases.
    pub routed: usize,
    /// Occupied cages the final detection map reports.
    pub occupancy_detected: usize,
    /// Detected-vs-plan mismatches at protocol end.
    pub mismatches_final: usize,
    /// Ground-truth placement errors at protocol end.
    pub true_mismatches_final: usize,
    /// Total simulated chip time, seconds.
    pub total_time_s: f64,
    /// Whether every routed plan passed the separation invariant.
    pub conflict_free: bool,
}

impl Results {
    /// Renders the result as a report table (phase rows plus a totals row).
    pub fn to_table(&self) -> ExperimentTable {
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.index.to_string(),
                    r.phase.clone(),
                    r.moves.to_string(),
                    r.particles_after.to_string(),
                    format!("{:.1}", r.fluidics_s),
                    format!("{:.2}", r.sensing_s),
                    format!("{:.1}", r.motion_s),
                    format!("{:.1}", r.recovery_s),
                    r.detail.clone(),
                ]
            })
            .collect();
        rows.push(vec![
            "total".into(),
            self.protocol_name.clone(),
            self.routed.to_string(),
            self.occupancy_detected.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!(
                "{} mismatches ({} true) after {:.0} s",
                self.mismatches_final, self.true_mismatches_final, self.total_time_s
            ),
        ]);
        ExperimentTable::new(
            "E13",
            "Programmable protocols: assays composed from phases, executed as data",
            vec![
                "phase".into(),
                "name".into(),
                "moves".into(),
                "particles".into(),
                "fluidics [s]".into(),
                "sense [s]".into(),
                "motion [s]".into(),
                "recovery [s]".into(),
                "detail".into(),
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
        recovery: config.recovery,
        load_time: config.load_time,
        flush_time: config.flush_time,
        reuse_plans: false,
        seed: config.seed,
    };
    let protocol = config
        .protocol
        .clone()
        .unwrap_or_else(|| default_protocol(config.particles));
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(config.threads)
        .build()
        .expect("thread pool construction is infallible");
    let mut driver = BatchDriver::new(workload);
    let outcome = pool.install(|| driver.run_protocol(&protocol));

    let rows: Vec<PhaseRow> = outcome
        .phases
        .iter()
        .enumerate()
        .map(|(index, phase)| PhaseRow {
            index,
            phase: phase.phase.clone(),
            moves: phase.moves,
            particles_after: phase.particles_after,
            fluidics_s: phase.time.fluidics.get(),
            sensing_s: phase.time.sensing.get(),
            motion_s: phase.time.motion.get(),
            recovery_s: phase.time.recovery.get(),
            detail: phase.detail.clone(),
        })
        .collect();
    for row in &rows {
        ctx.emit_row(format!(
            "phase {} ({}): {} moves, {} particles — {}",
            row.index, row.phase, row.moves, row.particles_after, row.detail
        ));
    }
    let report = &outcome.report;
    let results = Results {
        protocol_name: protocol.name.clone(),
        rows,
        requested: report.requested,
        routed: report.routed,
        occupancy_detected: report.occupancy_detected,
        mismatches_final: report.mismatches_final,
        true_mismatches_final: report.true_mismatches_final,
        total_time_s: report.time.total().get(),
        conflict_free: report.conflict_free,
    };
    ctx.emit_row(format!(
        "protocol `{}`: {}/{} routed, {} detected, {} mismatches in {:.0} s",
        results.protocol_name,
        results.routed,
        results.requested,
        results.occupancy_detected,
        results.mismatches_final,
        results.total_time_s
    ));
    results
}

/// The programmable-protocol scenario as a first-class engine scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtocolsScenario;

impl Scenario for ProtocolsScenario {
    type Config = Config;
    type Output = Results;

    fn id(&self) -> &'static str {
        "E13"
    }

    fn describe(&self) -> &'static str {
        "Programmable protocols: assays composed from phases, executed as data"
    }

    fn check_limits(&self, config: &Config) -> Result<(), Limit> {
        Limit::array_side(config.array_side)?;
        Limit::threads("threads", config.threads)?;
        Limit::scans(config.detection_frames, &config.recovery)?;
        config.protocol.as_ref().map_or(Ok(()), |protocol| {
            Limit::protocol(protocol, config.detection_frames)
        })
    }

    fn run(&self, config: &Config, ctx: &mut ScenarioContext) -> Results {
        run_with(config, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(config: &Config) -> Results {
        run_with(config, &mut ScenarioContext::silent("E13"))
    }

    fn quick_config() -> Config {
        Config {
            array_side: 48,
            particles: 20,
            noise_scale: 0.0,
            threads: 1,
            ..Config::default()
        }
    }

    #[test]
    fn default_protocol_runs_and_reports_every_phase() {
        let results = run(&quick_config());
        assert_eq!(results.protocol_name, "two-population-merge");
        assert_eq!(results.rows.len(), 6);
        assert_eq!(results.requested, 20);
        // Two route phases, 20 requests each.
        assert_eq!(results.routed, 40);
        assert!(results.conflict_free);
        // With ideal sensing the final map matches the merge plan exactly.
        assert_eq!(results.mismatches_final, 0);
        assert_eq!(results.true_mismatches_final, 0);
        // Both motion phases commanded moves.
        assert!(results.rows[1].moves > 0, "{:?}", results.rows[1]);
        assert!(results.rows[3].moves > 0, "{:?}", results.rows[3]);
        // The flush emptied the chip.
        assert_eq!(results.rows[5].particles_after, 0);
    }

    #[test]
    fn explicit_protocols_override_the_default() {
        let protocol = Protocol::new("just-load-and-flush")
            .with_phase(PhaseSpec::Load {
                particles: 8,
                capacity_clamp: None,
            })
            .with_phase(PhaseSpec::Flush);
        let config = Config {
            protocol: Some(protocol),
            ..quick_config()
        };
        let results = run(&config);
        assert_eq!(results.protocol_name, "just-load-and-flush");
        assert_eq!(results.rows.len(), 2);
        assert_eq!(results.requested, 8);
        assert_eq!(results.routed, 0);
        // No scan ran: nothing was detected.
        assert_eq!(results.occupancy_detected, 0);
    }

    #[test]
    fn table_has_phase_rows_plus_totals() {
        let results = run(&quick_config());
        let table = results.to_table();
        assert_eq!(table.columns.len(), 9);
        assert_eq!(table.row_count(), 7);
        assert!(table.to_string().contains("merge-pairs"));
    }
}
