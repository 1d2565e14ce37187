//! E14 — fault injection: kill-point sweep with replay and resume oracles.
//!
//! The event-sourced pipeline makes a hard claim: kill the chip controller
//! after *any* journaled event and nothing is lost — the journal prefix
//! replays to exactly the checkpointed state, and resuming from the
//! checkpoint ([`Start::Resume`]) finishes the assay to a final
//! [`ChipState`] bit-identical to an uninterrupted run. This scenario turns that claim
//! into a measured sweep:
//!
//! 1. run the canned cycle once with a journal attached — the *baseline*
//!    (final state hash, total event count);
//! 2. draw a seeded, stratified [`FaultPlan::sweep`] of kill points over
//!    `1..=total_events`, so deaths land inside load batches, mid-route,
//!    mid-sense and mid-recovery-round;
//! 3. for every kill point, run with the fault armed; on interruption
//!    verify (a) the journal prefix at the checkpoint offset replays to
//!    the checkpoint snapshot, (b) the checkpoint survives a JSON round
//!    trip, (c) resume reaches the baseline state hash.
//!
//! The table reports kill-point coverage per interrupted phase, the resume
//! success rate and the replay-divergence count — the whole sweep is a
//! tripwire, so **any** divergence is a red result (CI asserts zero).

use crate::experiments::ExperimentTable;
use crate::scenario::{Limit, Scenario, ScenarioContext};
use crate::workload::{
    BatchDriver, Checkpoint, Journaling, Protocol, RecoveryPolicy, RunOptions, Start,
    WorkloadConfig,
};
use labchip_manipulation::journal::{replay, FaultPlan};
use labchip_manipulation::sharding::ShardConfig;
use labchip_manipulation::state::ChipState;
use labchip_units::{GridDims, Seconds};
use serde::{Deserialize, Serialize};

/// Configuration of the fault-injection sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Array side (electrodes).
    pub array_side: u32,
    /// Particles loaded per cycle.
    pub particles: usize,
    /// Kill points drawn from the baseline run's event count.
    pub kill_points: usize,
    /// Minimum cage separation.
    pub min_separation: u32,
    /// Cage-step period.
    pub step_period: Seconds,
    /// Sensor frames averaged per detection scan.
    pub detection_frames: u32,
    /// Scale applied to every sensor noise term (noisy by default, so the
    /// sweep covers the recovery loop too).
    pub noise_scale: f64,
    /// Closed-loop recovery policy.
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
    /// Base RNG seed (batch placement, sensor noise and the kill-point
    /// draw).
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            array_side: 48,
            particles: 60,
            kill_points: 50,
            min_separation: 2,
            step_period: Seconds::new(0.4),
            detection_frames: 2,
            noise_scale: 8.0,
            recovery: RecoveryPolicy::date05_reference(),
            load_time: Seconds::from_minutes(1.0),
            flush_time: Seconds::from_minutes(0.5),
            shard_side: 32,
            window: 8,
            threads: 1,
            seed: 2005,
        }
    }
}

/// Kill-point coverage of one assay phase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageRow {
    /// Name of the phase the fault interrupted.
    pub phase: String,
    /// Kill points that landed in this phase.
    pub kills: usize,
    /// Of those, resumes that reached the baseline state hash.
    pub resumed_ok: usize,
}

/// Result of the fault-injection sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    /// Events the uninterrupted baseline run journaled.
    pub total_events: usize,
    /// Kill points actually swept.
    pub kill_points: usize,
    /// Sweep runs the fault interrupted.
    pub interrupted: usize,
    /// Sweep runs that completed before the kill point could fire: only a
    /// kill on the run's very last event (its final `PhaseFinished`
    /// marker), since the last phase polls the fault once more before
    /// finishing.
    pub ran_to_completion: usize,
    /// Interrupted runs whose resume reached the baseline state hash.
    pub resume_successes: usize,
    /// Replay/resume oracle violations (prefix replay mismatch, resume
    /// hash mismatch, or a completed fault run diverging from baseline) —
    /// **must be zero**.
    pub replay_divergences: usize,
    /// Checkpoints that failed their JSON round trip — must be zero.
    pub checkpoint_roundtrip_failures: usize,
    /// Distinct phases the sweep killed inside.
    pub phases_covered: usize,
    /// Per-phase coverage, in first-kill order.
    pub coverage: Vec<CoverageRow>,
}

impl Results {
    /// Fraction of interrupted runs that resumed to the baseline hash.
    pub fn resume_success_rate(&self) -> f64 {
        if self.interrupted == 0 {
            1.0
        } else {
            self.resume_successes as f64 / self.interrupted as f64
        }
    }

    /// Renders the sweep as a report table (coverage rows plus totals).
    pub fn to_table(&self) -> ExperimentTable {
        let mut rows: Vec<Vec<String>> = self
            .coverage
            .iter()
            .map(|row| {
                vec![
                    row.phase.clone(),
                    row.kills.to_string(),
                    row.resumed_ok.to_string(),
                    "-".into(),
                    format!("{}/{} resumed to baseline hash", row.resumed_ok, row.kills),
                ]
            })
            .collect();
        rows.push(vec![
            "total".into(),
            self.interrupted.to_string(),
            self.resume_successes.to_string(),
            self.replay_divergences.to_string(),
            format!(
                "{} kill points over {} events, {} phases covered, resume rate {:.2}, {} completed uninterrupted",
                self.kill_points,
                self.total_events,
                self.phases_covered,
                self.resume_success_rate(),
                self.ran_to_completion
            ),
        ]);
        ExperimentTable::new(
            "E14",
            "Fault injection: kill-point sweep with replay and resume equivalence",
            vec![
                "killed phase".into(),
                "kills".into(),
                "resumed ok".into(),
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

fn run_with(config: &Config, ctx: &mut ScenarioContext) -> Results {
    let workload = WorkloadConfig {
        array_side: config.array_side,
        shards: ShardConfig {
            shard_side: config.shard_side,
            window: config.window,
            ..ShardConfig::default()
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
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(config.threads)
        .build()
        .expect("thread pool construction is infallible");
    let driver = BatchDriver::new(workload);
    let dims = GridDims::square(driver.config().array_side);
    let sep = driver.config().min_separation.max(1);
    let protocol = Protocol::canned_cycle(dims, sep, config.particles);

    // Baseline: the uninterrupted journaled run every kill point must
    // converge back to.
    let (baseline, baseline_journal) = pool.install(|| driver.run_journaled(&protocol, 0));
    let baseline_hash = baseline.state.state_hash();
    let total_events = baseline_journal.len();
    ctx.emit_row(format!(
        "baseline: {} events journaled, final state hash {baseline_hash:#018x}",
        total_events
    ));

    let sweep = FaultPlan::sweep(config.seed, config.kill_points, total_events as u64);
    let mut interrupted = 0usize;
    let mut ran_to_completion = 0usize;
    let mut resume_successes = 0usize;
    let mut replay_divergences = 0usize;
    let mut checkpoint_roundtrip_failures = 0usize;
    // Per-phase coverage, in first-kill order.
    let mut coverage: Vec<CoverageRow> = Vec::new();

    for fault in &sweep {
        let kill = fault.kill_after_events;
        let start = Start::Fresh {
            protocol: &protocol,
            cycle: 0,
        };
        let armed = Journaling::Armed(*fault).into();
        let run = match pool.install(|| driver.execute(start, armed)) {
            Ok((outcome, _journal)) => {
                ran_to_completion += 1;
                if outcome.state.state_hash() != baseline_hash {
                    replay_divergences += 1;
                    ctx.emit_row(format!(
                        "DIVERGENCE: uninterrupted fault run at kill point {kill} left a different state"
                    ));
                }
                continue;
            }
            Err(run) => run,
        };
        interrupted += 1;
        let phase = run.checkpoint.protocol.phases[run.checkpoint.next_phase].name();
        let row = match coverage.iter().position(|row| row.phase == phase) {
            Some(row) => row,
            None => {
                coverage.push(CoverageRow {
                    phase: phase.to_owned(),
                    kills: 0,
                    resumed_ok: 0,
                });
                coverage.len() - 1
            }
        };
        coverage[row].kills += 1;

        // Oracle (a): the journal prefix at the checkpoint offset replays
        // to the checkpoint snapshot.
        let prefix = run.journal.truncated(run.checkpoint.journal_offset);
        let snapshot_hash = ChipState::from_snapshot(run.checkpoint.state.clone()).state_hash();
        let replayed = replay(&prefix, dims, sep).map(|state| state.state_hash());
        if replayed != Ok(snapshot_hash) {
            replay_divergences += 1;
            ctx.emit_row(format!(
                "DIVERGENCE: prefix replay at kill point {kill} gave {replayed:?}, not {snapshot_hash:#x}"
            ));
        }

        // Oracle (b): the checkpoint survives its JSON round trip.
        let checkpoint = match Checkpoint::from_json(&run.checkpoint.to_json()) {
            Ok(restored) if restored == run.checkpoint => restored,
            _ => {
                checkpoint_roundtrip_failures += 1;
                run.checkpoint.clone()
            }
        };

        // Oracle (c): resume reaches the baseline state hash.
        let resumed =
            pool.install(|| driver.execute(Start::Resume(&checkpoint), RunOptions::default()));
        if resumed.is_ok_and(|(outcome, _)| outcome.state.state_hash() == baseline_hash) {
            resume_successes += 1;
            coverage[row].resumed_ok += 1;
        } else {
            replay_divergences += 1;
            ctx.emit_row(format!(
                "DIVERGENCE: resume from kill point {kill} (phase {phase}) missed the baseline hash"
            ));
        }
    }

    let results = Results {
        total_events,
        kill_points: sweep.len(),
        interrupted,
        ran_to_completion,
        resume_successes,
        replay_divergences,
        checkpoint_roundtrip_failures,
        phases_covered: coverage.len(),
        coverage,
    };
    for row in &results.coverage {
        ctx.emit_row(format!(
            "phase {}: {} kills, {} resumed to baseline",
            row.phase, row.kills, row.resumed_ok
        ));
    }
    ctx.emit_row(format!(
        "{} kill points: {} interrupted, {} completed, resume rate {:.2}, {} divergences",
        results.kill_points,
        results.interrupted,
        results.ran_to_completion,
        results.resume_success_rate(),
        results.replay_divergences
    ));
    results
}

/// The fault-injection sweep as a first-class engine scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultsScenario;

impl Scenario for FaultsScenario {
    type Config = Config;
    type Output = Results;

    fn id(&self) -> &'static str {
        "E14"
    }

    fn describe(&self) -> &'static str {
        "Fault injection: kill-point sweep with replay and resume equivalence"
    }

    fn check_limits(&self, config: &Config) -> Result<(), Limit> {
        Limit::threads("threads", config.threads)
    }

    fn run(&self, config: &Config, ctx: &mut ScenarioContext) -> Results {
        run_with(config, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(config: &Config) -> Results {
        run_with(config, &mut ScenarioContext::silent("E14"))
    }

    fn quick_config() -> Config {
        Config {
            array_side: 32,
            particles: 20,
            kill_points: 6,
            ..Config::default()
        }
    }

    #[test]
    fn sweep_interrupts_resumes_and_never_diverges() {
        let results = run(&quick_config());
        assert_eq!(results.kill_points, 6);
        assert!(results.total_events > 0);
        assert_eq!(results.interrupted + results.ran_to_completion, 6);
        assert!(results.interrupted >= 4, "{results:?}");
        assert_eq!(results.resume_successes, results.interrupted);
        assert_eq!(results.replay_divergences, 0, "{results:?}");
        assert_eq!(results.checkpoint_roundtrip_failures, 0);
        assert!(results.phases_covered >= 1);
        assert_eq!(results.resume_success_rate(), 1.0);
    }

    #[test]
    fn noisy_recovery_path_is_killable_and_recoverable_too() {
        // The default noisy config drives the closed loop; a denser sweep
        // must still resume cleanly from kills inside it.
        let results = run(&Config {
            kill_points: 10,
            ..quick_config()
        });
        assert_eq!(results.replay_divergences, 0, "{results:?}");
        assert_eq!(results.resume_successes, results.interrupted);
        // Kill points span more than one phase of the canned cycle.
        assert!(results.phases_covered >= 2, "{results:?}");
    }

    #[test]
    fn table_has_coverage_rows_plus_totals() {
        let results = run(&quick_config());
        let table = results.to_table();
        assert_eq!(table.columns.len(), 5);
        assert_eq!(table.row_count(), results.coverage.len() + 1);
        assert!(table.to_string().contains("resume rate"));
    }
}
