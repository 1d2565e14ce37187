//! E12 — closed-loop assay under sensor noise: the full
//! load→route→sense→recover→flush cycle with a *physical* detection path.
//!
//! The paper's architecture only works because every cage is *sensed*, not
//! assumed; this scenario quantifies what that costs and buys. For a sweep
//! of sensor noise scales and frames-per-scan it runs the [`BatchDriver`]
//! cycle twice at the same seed — open loop (detection reported, nothing
//! done about it) and closed loop (the bounded re-scan + re-route recovery
//! of [`RecoveryPolicy`]) — and reports the observed detection error rate,
//! the detected-vs-plan mismatches left by each mode, the corrective moves
//! spent, and the simulated-time penalty versus an oracle baseline with
//! ideal electronics.
//!
//! The headline behaviours the table shows:
//!
//! * detection error rate rises monotonically with the noise knob and falls
//!   with frames averaged (E4's trade, now measured in the assembled loop);
//! * the closed loop's final mismatch count stays well below the open
//!   loop's at every noisy operating point — re-scanning dissolves the
//!   phantom errors and re-routing fixes the real ones;
//! * a zero-noise sweep point reproduces the oracle numbers exactly: no
//!   detection errors, no recovery, no extra time.

use crate::experiments::ExperimentTable;
use crate::scenario::{Limit, Scenario, ScenarioContext};
use crate::workload::{BatchDriver, CycleReport, RecoveryPolicy, WorkloadConfig};
use labchip_manipulation::sharding::ShardConfig;
use labchip_units::Seconds;
use serde::{Deserialize, Serialize};

/// Configuration of the closed-loop assay sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Array side (electrodes).
    pub array_side: u32,
    /// Particles loaded per cycle (clamped to the pattern capacity).
    pub particles: usize,
    /// Sensor noise scales swept (1 = the reference channel, 0 = ideal).
    pub noise_scales: Vec<f64>,
    /// Frames-per-scan values swept.
    pub frame_counts: Vec<u32>,
    /// Suspect sites are re-scanned with `frames × rescan_factor` frames.
    pub rescan_factor: u32,
    /// Maximum recovery rounds per cycle (the closed-loop runs).
    pub max_recovery_rounds: u32,
    /// Minimum cage separation.
    pub min_separation: u32,
    /// Cage-step period.
    pub step_period: Seconds,
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
    /// Base RNG seed (batch placement and sensor noise).
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            array_side: 96,
            particles: 140,
            noise_scales: vec![0.0, 2.0, 4.0],
            frame_counts: vec![4, 16],
            rescan_factor: 4,
            max_recovery_rounds: 2,
            min_separation: 2,
            step_period: Seconds::new(0.4),
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

/// One sweep point: an open-loop and a closed-loop cycle at the same seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// Sensor noise scale of this point.
    pub noise_scale: f64,
    /// Frames averaged per full-array scan.
    pub frames: u32,
    /// Observed per-site detection error rate of the initial scan.
    pub detection_error_rate: f64,
    /// False positives of the initial scan (empty sites read occupied).
    pub false_positives: u64,
    /// False negatives of the initial scan (particles missed).
    pub false_negatives: u64,
    /// Detected-vs-plan mismatches left by the open-loop run.
    pub mismatches_open: usize,
    /// Detected-vs-plan mismatches left after closed-loop recovery.
    pub mismatches_closed: usize,
    /// Ground-truth placement errors of the open-loop run.
    pub true_mismatches_open: usize,
    /// Ground-truth placement errors after closed-loop recovery.
    pub true_mismatches_closed: usize,
    /// Recovery rounds the closed loop executed.
    pub recovery_rounds: usize,
    /// Corrective cage moves the closed loop commanded.
    pub recovery_moves: usize,
    /// Simulated-time overhead of the closed loop versus the oracle
    /// baseline at the same frame count, in percent.
    pub time_penalty_pct: f64,
}

/// Result of the closed-loop sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    /// One row per (noise scale, frames) sweep point.
    pub rows: Vec<SweepRow>,
    /// Simulated oracle cycle time per swept frame count, seconds.
    pub oracle_cycle_s: Vec<f64>,
    /// Particles requested per cycle after capacity clamping.
    pub particles: usize,
}

impl Results {
    /// Renders the result as a report table.
    pub fn to_table(&self) -> ExperimentTable {
        ExperimentTable::new(
            "E12",
            "Closed-loop assay under sensor noise: detect, recover, re-route",
            vec![
                "noise".into(),
                "frames".into(),
                "err rate".into(),
                "FP".into(),
                "FN".into(),
                "mismatch (open)".into(),
                "mismatch (closed)".into(),
                "true err (open)".into(),
                "true err (closed)".into(),
                "recovery moves".into(),
                "time penalty".into(),
            ],
            self.rows
                .iter()
                .map(|r| {
                    vec![
                        format!("{:.1}x", r.noise_scale),
                        r.frames.to_string(),
                        format!("{:.2e}", r.detection_error_rate),
                        r.false_positives.to_string(),
                        r.false_negatives.to_string(),
                        r.mismatches_open.to_string(),
                        r.mismatches_closed.to_string(),
                        r.true_mismatches_open.to_string(),
                        r.true_mismatches_closed.to_string(),
                        r.recovery_moves.to_string(),
                        format!("{:.2}%", r.time_penalty_pct),
                    ]
                })
                .collect(),
        )
    }
}

impl From<Results> for ExperimentTable {
    fn from(results: Results) -> Self {
        results.to_table()
    }
}

fn workload(
    config: &Config,
    noise_scale: f64,
    frames: u32,
    recovery: RecoveryPolicy,
) -> WorkloadConfig {
    WorkloadConfig {
        array_side: config.array_side,
        shards: ShardConfig {
            shard_side: config.shard_side,
            window: config.window,
        },
        min_separation: config.min_separation,
        step_period: config.step_period,
        detection_frames: frames,
        noise_scale,
        recovery,
        load_time: config.load_time,
        flush_time: config.flush_time,
        reuse_plans: config.reuse_plans,
        seed: config.seed,
    }
}

fn run_with(config: &Config, ctx: &mut ScenarioContext) -> Results {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(config.threads)
        .build()
        .expect("thread pool construction is infallible");
    let closed_policy = RecoveryPolicy {
        max_rounds: config.max_recovery_rounds,
        rescan_factor: config.rescan_factor,
    };
    let cycle = |noise_scale: f64, frames: u32, recovery: RecoveryPolicy| -> CycleReport {
        let mut driver = BatchDriver::new(workload(config, noise_scale, frames, recovery));
        pool.install(|| driver.run_cycle(config.particles))
    };

    let mut rows = Vec::with_capacity(config.noise_scales.len() * config.frame_counts.len());
    let mut oracle_cycle_s = Vec::with_capacity(config.frame_counts.len());
    let mut particles = config.particles;
    for &frames in &config.frame_counts {
        // The oracle baseline: ideal electronics, open loop — the numbers
        // the driver used to report unconditionally.
        let oracle = cycle(0.0, frames, RecoveryPolicy::disabled());
        let oracle_time = oracle.time.total();
        oracle_cycle_s.push(oracle_time.get());
        particles = oracle.requested;

        for &noise_scale in &config.noise_scales {
            // The zero-noise open-loop run *is* the oracle (same config,
            // same seed, bit-identical by the determinism contract) — skip
            // the redundant cycle.
            let open = if noise_scale == 0.0 {
                oracle.clone()
            } else {
                cycle(noise_scale, frames, RecoveryPolicy::disabled())
            };
            let closed = cycle(noise_scale, frames, closed_policy);
            let row = SweepRow {
                noise_scale,
                frames,
                detection_error_rate: open.detection_error_rate(),
                false_positives: open.detection.false_positives,
                false_negatives: open.detection.false_negatives,
                mismatches_open: open.mismatches_final,
                mismatches_closed: closed.mismatches_final,
                true_mismatches_open: open.true_mismatches_final,
                true_mismatches_closed: closed.true_mismatches_final,
                recovery_rounds: closed.recovery_rounds,
                recovery_moves: closed.recovery_moves,
                time_penalty_pct: if oracle_time.get() > 0.0 {
                    100.0 * (closed.time.total().get() / oracle_time.get() - 1.0)
                } else {
                    0.0
                },
            };
            ctx.emit_row(format!(
                "noise {:.1}x / {} frames: err {:.2e}, mismatch {} -> {}, {} recovery moves, +{:.2}%",
                row.noise_scale,
                row.frames,
                row.detection_error_rate,
                row.mismatches_open,
                row.mismatches_closed,
                row.recovery_moves,
                row.time_penalty_pct,
            ));
            rows.push(row);
        }
    }
    Results {
        rows,
        oracle_cycle_s,
        particles,
    }
}

/// The closed-loop assay sweep as a first-class engine scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClosedLoopScenario;

impl Scenario for ClosedLoopScenario {
    type Config = Config;
    type Output = Results;

    fn id(&self) -> &'static str {
        "E12"
    }

    fn describe(&self) -> &'static str {
        "Closed-loop assay under sensor noise: detect, recover, re-route"
    }

    fn check_limits(&self, config: &Config) -> Result<(), Limit> {
        Limit::array_side(config.array_side)?;
        Limit::threads("threads", config.threads)?;
        let rescan_factor = u64::from(config.rescan_factor.max(1));
        for &frames in &config.frame_counts {
            Limit::frames("frame_counts", frames.into())?;
            Limit::frames(
                "frame_counts × rescan_factor",
                u64::from(frames) * rescan_factor,
            )?;
        }
        Ok(())
    }

    fn run(&self, config: &Config, ctx: &mut ScenarioContext) -> Results {
        run_with(config, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(config: &Config) -> Results {
        run_with(config, &mut ScenarioContext::silent("E12"))
    }

    fn quick_config() -> Config {
        Config {
            array_side: 48,
            particles: 40,
            noise_scales: vec![0.0, 3.0, 8.0],
            frame_counts: vec![2],
            threads: 1,
            ..Config::default()
        }
    }

    #[test]
    fn detection_error_rate_responds_monotonically_to_the_noise_knob() {
        let results = run(&quick_config());
        let rates: Vec<f64> = results
            .rows
            .iter()
            .map(|r| r.detection_error_rate)
            .collect();
        for pair in rates.windows(2) {
            assert!(
                pair[1] >= pair[0],
                "error rate must not fall with noise: {rates:?}"
            );
        }
        assert!(
            rates.last().unwrap() > rates.first().unwrap(),
            "the knob must move the rate: {rates:?}"
        );
        assert_eq!(rates[0], 0.0, "ideal electronics make no mistakes");
    }

    #[test]
    fn zero_noise_point_matches_the_oracle_baseline() {
        let results = run(&quick_config());
        let quiet = &results.rows[0];
        assert_eq!(quiet.noise_scale, 0.0);
        assert_eq!(quiet.false_positives, 0);
        assert_eq!(quiet.false_negatives, 0);
        assert_eq!(quiet.recovery_moves, 0);
        assert_eq!(quiet.time_penalty_pct, 0.0);
    }

    #[test]
    fn closing_the_loop_reduces_final_mismatches_at_every_noisy_point() {
        let results = run(&quick_config());
        let mut any_errors = false;
        for row in &results.rows {
            if row.mismatches_open == 0 {
                continue;
            }
            any_errors = true;
            assert!(
                row.mismatches_closed < row.mismatches_open,
                "recovery must strictly reduce mismatches: {row:?}"
            );
        }
        assert!(
            any_errors,
            "the noisy sweep points must produce detection errors"
        );
    }

    #[test]
    fn table_covers_every_sweep_point() {
        let results = run(&quick_config());
        assert_eq!(results.rows.len(), 3);
        assert_eq!(results.oracle_cycle_s.len(), 1);
        let table = results.to_table();
        assert_eq!(table.columns.len(), 11);
        assert_eq!(table.row_count(), 3);
    }
}
