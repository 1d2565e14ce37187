//! E16 — sharded chip fleets: one logical array over many shards, with
//! cross-shard handoff and sharded-vs-monolithic equivalence.
//!
//! The scenario sweeps shard grids over one protocol at one seed:
//!
//! 1. run the **monolithic baseline** once, journaled — its final state
//!    hash is the oracle;
//! 2. for every shard grid: [`project`] the baseline journal onto the
//!    shards and fold them as a [`ShardGroup`], counting handoffs and
//!    per-shard load imbalance (a grid that cannot partition the array
//!    is skipped with one progress row);
//! 3. oracles, all of which **must hold** (CI asserts zero divergences):
//!    the shards compose back to the monolithic state hash; every shard
//!    journal replays to its shard state; the [`ShardGroup`] (one pool
//!    pass over the shards per phase segment) reproduces every shard hash;
//! 4. on every multi-shard grid, one shard is **killed** at an
//!    interior phase boundary and the whole group resumed from its
//!    [`GroupCheckpoint`](crate::group::GroupCheckpoint) — the resumed
//!    hashes must equal the uninterrupted run's.
//!
//! Every figure is a pure function of `(config, seed)`. The wall clock of
//! a grid's projection plus one uninterrupted group run is a benchmark
//! row of `report bench-workload`, timed around [`Baseline::group`].

use labchip::experiments::ExperimentTable;
use labchip::scenario::{Scenario, ScenarioContext};
use labchip::workload::{BatchDriver, Protocol, RecoveryPolicy, WorkloadConfig};
use labchip_manipulation::fleet::{project, FleetGridError, FleetTopology};
use labchip_manipulation::journal::Journal;
use labchip_units::{GridDims, Seconds};
use serde::{Deserialize, Serialize};

use crate::group::{GroupKill, ShardGroup};

/// Configuration of the sharded-fleet equivalence sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Array side (electrodes).
    pub array_side: u32,
    /// Particles loaded per cycle.
    pub particles: usize,
    /// Shard grids swept, `[cols, rows]` each.
    pub grids: Vec<[u32; 2]>,
    /// Minimum cage separation (the halo margin is `sep / 2`).
    pub min_separation: u32,
    /// Cage-step period.
    pub step_period: Seconds,
    /// Sensor frames averaged per detection scan.
    pub detection_frames: u32,
    /// Scale applied to every sensor noise term.
    pub noise_scale: f64,
    /// Closed-loop recovery policy.
    pub recovery: RecoveryPolicy,
    /// RNG seed of the swept run.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            array_side: 320,
            particles: 10_000,
            grids: vec![[1, 1], [2, 1], [2, 2]],
            min_separation: 2,
            step_period: Seconds::new(0.4),
            detection_frames: 2,
            noise_scale: 8.0,
            recovery: RecoveryPolicy::date05_reference(),
            seed: 1606,
        }
    }
}

/// One shard-grid sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridRow {
    /// Shard grid, rendered `colsxrows`.
    pub grid: String,
    /// Shards in the fleet.
    pub shards: usize,
    /// Cross-shard handoffs (export halves).
    pub handoffs: u64,
    /// Handoff import halves landed.
    pub imports: u64,
    /// Phase-boundary barriers the fleet rendezvoused at.
    pub barriers: u64,
    /// Per-shard journal lengths — the distributed work.
    pub journal_events: Vec<usize>,
    /// Final per-shard populations.
    pub populations: Vec<usize>,
    /// Load imbalance: max over mean of the per-shard journal lengths
    /// (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Whether the composed fleet missed the baseline state hash.
    pub compose_divergence: bool,
    /// Shards whose journal replay missed their live state hash.
    pub shard_replay_divergences: usize,
    /// Group-run replica shards that missed their live state hash.
    pub group_divergences: usize,
    /// Kill-one-worker group recovery: `None` on single-shard grids,
    /// otherwise whether the resumed group matched the uninterrupted
    /// hashes.
    pub kill_recovered: Option<bool>,
    /// Total divergences of this row — must be zero.
    pub divergences: usize,
}

/// Result of the sharded-fleet equivalence sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    /// Monolithic-baseline final state hash.
    pub baseline_hash: String,
    /// Monolithic-baseline journal length.
    pub baseline_events: usize,
    /// One row per swept shard grid.
    pub grids: Vec<GridRow>,
    /// Divergences summed over the sweep — must be zero.
    pub total_divergences: usize,
}

impl Results {
    /// Renders the sweep as a report table.
    pub fn to_table(&self) -> ExperimentTable {
        let mut rows: Vec<Vec<String>> = self
            .grids
            .iter()
            .map(|row| {
                vec![
                    row.grid.clone(),
                    row.handoffs.to_string(),
                    format!("{:.2}", row.imbalance),
                    row.divergences.to_string(),
                    format!(
                        "{} barriers{}",
                        row.barriers,
                        match row.kill_recovered {
                            Some(true) => ", kill+resume ok",
                            Some(false) => ", kill+resume DIVERGED",
                            None => "",
                        }
                    ),
                ]
            })
            .collect();
        rows.push(vec![
            "-".into(),
            "-".into(),
            "-".into(),
            self.total_divergences.to_string(),
            format!(
                "monolithic baseline {} ({} events)",
                self.baseline_hash, self.baseline_events
            ),
        ]);
        ExperimentTable::new(
            "E16",
            "Sharded chip fleets: cross-shard handoff and sharded-vs-monolithic equivalence",
            vec![
                "grid".into(),
                "handoffs".into(),
                "imbalance".into(),
                "divergences".into(),
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

/// The monolithic run a sweep projects every shard grid from.
#[derive(Debug)]
pub struct Baseline {
    dims: GridDims,
    sep: u32,
    journal: Journal,
    hash: u64,
}

impl Baseline {
    /// Runs the config's canned protocol once on the monolithic chip,
    /// journaled.
    pub fn run(config: &Config) -> Self {
        let workload = WorkloadConfig {
            array_side: config.array_side,
            min_separation: config.min_separation,
            step_period: config.step_period,
            detection_frames: config.detection_frames,
            noise_scale: config.noise_scale,
            recovery: config.recovery,
            seed: config.seed,
            ..WorkloadConfig::default()
        };
        let dims = GridDims::square(workload.array_side);
        let sep = workload.min_separation.max(1);
        let protocol = Protocol::canned_cycle(dims, sep, config.particles);
        let (outcome, journal) = BatchDriver::new(workload).run_journaled(&protocol, 0);
        Self {
            dims,
            sep,
            journal,
            hash: outcome.state.state_hash(),
        }
    }

    /// The shard topology of one `[cols, rows]` grid over the baseline's
    /// array.
    ///
    /// # Errors
    ///
    /// [`FleetGridError`] if the grid cannot partition the array.
    pub fn topology(&self, [cols, rows]: [u32; 2]) -> Result<FleetTopology, FleetGridError> {
        FleetTopology::try_new(self.dims, self.sep, cols, rows)
    }

    /// Projects the baseline journal onto `topology` as a shard group.
    pub fn group(&self, topology: &FleetTopology) -> ShardGroup {
        ShardGroup::from_outcome(project(&self.journal, topology), self.hash)
    }
}

fn run_with(config: &Config, ctx: &mut ScenarioContext) -> Results {
    let baseline = Baseline::run(config);
    let baseline_hash = baseline.hash;
    ctx.emit_row(format!(
        "monolithic baseline: {:#018x}, {} events",
        baseline_hash,
        baseline.journal.len()
    ));

    let mut rows: Vec<GridRow> = Vec::new();
    let mut total_divergences = 0usize;
    for (index, &[cols, rows_]) in config.grids.iter().enumerate() {
        let topology = match baseline.topology([cols, rows_]) {
            Ok(topology) => topology,
            Err(err) => {
                ctx.emit_row(format!("{cols}x{rows_}: skipped, {err}"));
                continue;
            }
        };
        let shards = topology.shard_count();
        let group = baseline.group(&topology);
        let group_run = group.run();

        let compose_divergence = group.fleet().compose().state_hash() != baseline_hash;
        let shard_replay_divergences = group.fleet().replay_divergences();
        let expected = group.expected_hashes();
        let group_divergences = group_run
            .state_hashes()
            .iter()
            .zip(&expected)
            .filter(|(replica, live)| replica != live)
            .count();
        // Kill one shard (rotating which, so the sweep covers
        // different shards) at an interior boundary and resume the group.
        let kill_recovered = (shards > 1 && group.segment_count() > 1).then(|| {
            let kill = GroupKill {
                shard: index % shards,
                boundary: (group.segment_count() / 2).clamp(1, group.segment_count() - 1),
            };
            let (_stopped, checkpoint) = group.run_killed(kill);
            group
                .resume(&checkpoint)
                .is_ok_and(|resumed| resumed.state_hashes() == expected)
        });

        let stats = group.stats();
        let journal_events = group.journal_lengths();
        let mean = journal_events.iter().sum::<usize>() as f64 / journal_events.len() as f64;
        let imbalance = if mean > 0.0 {
            journal_events.iter().copied().max().unwrap_or(0) as f64 / mean
        } else {
            1.0
        };
        let divergences = usize::from(compose_divergence)
            + shard_replay_divergences
            + group_divergences
            + usize::from(kill_recovered == Some(false));
        total_divergences += divergences;
        let row = GridRow {
            grid: format!("{cols}x{rows_}"),
            shards,
            handoffs: stats.exports,
            imports: stats.imports,
            barriers: stats.barriers,
            populations: group
                .fleet()
                .states
                .iter()
                .map(|s| s.particle_count())
                .collect(),
            journal_events,
            imbalance,
            compose_divergence,
            shard_replay_divergences,
            group_divergences,
            kill_recovered,
            divergences,
        };
        ctx.emit_row(format!(
            "{}: {} handoffs, imbalance {:.2}, {} divergences{}",
            row.grid,
            row.handoffs,
            row.imbalance,
            row.divergences,
            match row.kill_recovered {
                Some(true) => ", kill+resume ok",
                Some(false) => ", kill+resume DIVERGED",
                None => "",
            }
        ));
        rows.push(row);
    }

    Results {
        baseline_hash: format!("{baseline_hash:#018x}"),
        baseline_events: baseline.journal.len(),
        grids: rows,
        total_divergences,
    }
}

/// The sharded-fleet equivalence sweep as a first-class engine scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetScenario;

impl Scenario for FleetScenario {
    type Config = Config;
    type Output = Results;

    fn id(&self) -> &'static str {
        "E16"
    }

    fn describe(&self) -> &'static str {
        "Sharded chip fleets: cross-shard handoff and sharded-vs-monolithic equivalence"
    }

    fn run(&self, config: &Config, ctx: &mut ScenarioContext) -> Results {
        run_with(config, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> Config {
        Config {
            array_side: 32,
            particles: 24,
            grids: vec![[1, 1], [2, 1], [2, 2]],
            ..Config::default()
        }
    }

    #[test]
    fn fleet_sweep_is_equivalent_and_hands_off() {
        let config = quick_config();
        let results = run_with(&config, &mut ScenarioContext::silent("E16"));
        assert_eq!(results.total_divergences, 0, "{results:?}");
        assert_eq!(results.grids.len(), 3);
        assert_eq!(results.grids[0].shards, 1);
        assert_eq!(results.grids[0].handoffs, 0);
        assert!(results.grids[0].kill_recovered.is_none());
        for row in &results.grids[1..] {
            assert!(row.handoffs > 0, "{row:?}");
            assert_eq!(row.imports, row.handoffs);
            assert_eq!(row.kill_recovered, Some(true), "{row:?}");
            assert!(row.barriers > 0);
            assert!(row.imbalance >= 1.0);
            assert_eq!(row.journal_events.len(), row.shards);
            assert_eq!(
                row.populations.iter().sum::<usize>(),
                results.grids[0].populations[0],
                "sharding never loses a particle"
            );
        }
    }

    #[test]
    fn grids_that_cannot_partition_the_array_are_skipped_with_a_row() {
        let config = Config {
            array_side: 16,
            particles: 6,
            grids: vec![[0, 1], [1, 1], [17, 1]],
            ..Config::default()
        };
        let progress = std::sync::Arc::new(labchip::scenario::CollectingProgress::new());
        let mut ctx = ScenarioContext::new("E16", config.seed, progress.clone());
        let results = run_with(&config, &mut ctx);
        assert_eq!(results.grids.len(), 1);
        assert_eq!(results.grids[0].grid, "1x1");
        assert_eq!(results.total_divergences, 0);
        let skipped: Vec<String> = progress
            .events_for("E16")
            .into_iter()
            .filter_map(|event| match event {
                labchip::scenario::ProgressEvent::Row { summary, .. } => Some(summary),
                _ => None,
            })
            .filter(|summary| summary.contains("skipped"))
            .collect();
        assert_eq!(skipped.len(), 2, "{skipped:?}");
        assert!(skipped[0].starts_with("0x1: skipped"));
        assert!(skipped[1].starts_with("17x1: skipped"));
    }

    #[test]
    fn results_render_as_a_table_and_round_trip() {
        let config = Config {
            array_side: 24,
            particles: 10,
            grids: vec![[1, 1], [2, 1]],
            ..Config::default()
        };
        let results = run_with(&config, &mut ScenarioContext::silent("E16"));
        let table = results.to_table();
        assert_eq!(table.id, "E16");
        assert_eq!(table.rows.len(), results.grids.len() + 1);
        let json = serde_json::to_string(&results);
        let back: Results = serde_json::from_str(&json).expect("results round trip");
        assert_eq!(back, results);
    }
}
