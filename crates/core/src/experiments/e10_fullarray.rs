//! E10 — full-array concurrent sort: the paper's "massively parallel
//! manipulation" claim exercised at chip scale.
//!
//! Thousands of particles are loaded across the whole 320×320 array and
//! sorted into two target patterns (one cell class to the left third, the
//! other to the right). Three planners compete at increasing density:
//!
//! * the **greedy** baseline — fast, but it livelocks as opposing traffic
//!   meets;
//! * the **monolithic space–time A\*** of E7 — exact at moderate scale, but
//!   its single global reservation table stops being usable at thousands of
//!   particles, so it runs on a *capped subsample* of the problem (the cap
//!   and its shorter horizon are config knobs, and the strategy column says
//!   exactly what it ran);
//! * the **incremental sharded planner**
//!   ([`IncrementalRouter`]) — windowed,
//!   partitioned, parallel across shards; the planner this experiment
//!   motivates.
//!
//! Per row: success rate, makespan (steps and seconds at the cage-step
//! period), total cage moves and the separation check. Every figure is a
//! pure function of `(config, seed)`; planner wall-clock is measured by
//! `report bench-workload`, not here.

use crate::experiments::ExperimentTable;
use crate::scenario::{Limit, Scenario, ScenarioContext};
use crate::workload::sort_problem;
use labchip_manipulation::routing::{Router, RoutingOutcome, RoutingProblem, RoutingStrategy};
use labchip_manipulation::sharding::{IncrementalRouter, RouterCache, ShardConfig};
use labchip_units::{GridDims, Seconds};
use serde::{Deserialize, Serialize};

/// Configuration of the full-array sort experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Array side (electrodes).
    pub array_side: u32,
    /// Particle count at the densest setting.
    pub particles: usize,
    /// Density sweep as fractions of `particles` (each fraction is one
    /// sweep point; the last should be 1.0).
    pub density_steps: Vec<f64>,
    /// Minimum cage separation.
    pub min_separation: u32,
    /// Cage-step period (for makespan figures in seconds).
    pub step_period: Seconds,
    /// Shard tile side of the incremental planner.
    pub shard_side: u32,
    /// Steps per planning window of the incremental planner.
    pub window: u32,
    /// The monolithic A\* runs on at most this many particles of each sweep
    /// point (0 disables the A\* rows entirely); beyond it the planner is
    /// minutes-per-row slow — which is the point of this experiment.
    pub astar_cap: usize,
    /// Horizon (max steps) of the capped A\* sub-problems.
    pub astar_max_steps: usize,
    /// Worker threads for the sharded planner (0 = all cores).
    pub threads: usize,
    /// Keep the incremental planner's per-shard plan cache warm across the
    /// density sweep (bit-identical rows either way).
    pub reuse_plans: bool,
    /// RNG seed for particle placement.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            array_side: 320,
            particles: 2000,
            density_steps: vec![0.25, 0.5, 1.0],
            min_separation: 2,
            step_period: Seconds::new(0.4),
            shard_side: 32,
            window: 8,
            astar_cap: 96,
            astar_max_steps: 768,
            threads: 0,
            reuse_plans: false,
            seed: 2005,
        }
    }
}

/// One row of the full-array sweep (one particle count, one planner).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FullArrayRow {
    /// Particles the planner was given.
    pub particles: usize,
    /// Planner name (including any cap annotation).
    pub strategy: String,
    /// Fraction routed to their targets.
    pub success_rate: f64,
    /// Makespan in cage steps.
    pub makespan_steps: usize,
    /// Makespan in seconds at the configured step period.
    pub makespan_seconds: f64,
    /// Total cage moves planned.
    pub total_moves: usize,
    /// Whether the plan satisfies the separation invariant.
    pub conflict_free: bool,
}

/// Result of the full-array sort sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    /// Rows: per density step, greedy → A\* (if capped in) → incremental.
    pub rows: Vec<FullArrayRow>,
}

impl Results {
    /// Rows of one strategy (substring match on the strategy name).
    pub fn rows_for(&self, fragment: &str) -> Vec<&FullArrayRow> {
        self.rows
            .iter()
            .filter(|r| r.strategy.contains(fragment))
            .collect()
    }

    /// Success rate of a strategy at the densest sweep point.
    pub fn densest_success(&self, fragment: &str) -> Option<f64> {
        self.rows_for(fragment).last().map(|r| r.success_rate)
    }

    /// Renders the result as a report table.
    pub fn to_table(&self) -> ExperimentTable {
        ExperimentTable::new(
            "E10",
            "Full-array sort: greedy vs space-time A* vs incremental sharded planner",
            vec![
                "particles".into(),
                "strategy".into(),
                "success".into(),
                "makespan [steps]".into(),
                "makespan [s]".into(),
                "moves".into(),
                "conflict-free".into(),
            ],
            self.rows
                .iter()
                .map(|r| {
                    vec![
                        r.particles.to_string(),
                        r.strategy.clone(),
                        format!("{:.1}%", r.success_rate * 100.0),
                        r.makespan_steps.to_string(),
                        format!("{:.0}", r.makespan_seconds),
                        r.total_moves.to_string(),
                        if r.conflict_free { "yes" } else { "NO" }.into(),
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

fn row_from_outcome(
    strategy: String,
    problem: &RoutingProblem,
    outcome: &RoutingOutcome,
    step_period: Seconds,
) -> FullArrayRow {
    FullArrayRow {
        particles: problem.requests.len(),
        strategy,
        success_rate: outcome.success_rate(problem.requests.len()),
        makespan_steps: outcome.makespan,
        makespan_seconds: step_period.get() * outcome.makespan as f64,
        total_moves: outcome.total_moves,
        conflict_free: outcome.is_conflict_free(problem.min_separation),
    }
}

fn run_with(config: &Config, ctx: &mut ScenarioContext) -> Results {
    let dims = GridDims::square(config.array_side);
    let incremental = IncrementalRouter::new(ShardConfig {
        shard_side: config.shard_side,
        window: config.window,
        ..ShardConfig::default()
    });
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(config.threads)
        .build()
        .expect("thread pool construction is infallible");
    let mut cache = config.reuse_plans.then(RouterCache::new);

    let mut rows = Vec::new();
    for &fraction in &config.density_steps {
        let count = ((config.particles as f64 * fraction).round() as usize).max(1);
        let problem = sort_problem(dims, count, config.min_separation, config.seed);

        // Greedy baseline.
        let outcome = Router::new(RoutingStrategy::Greedy)
            .solve(&problem)
            .expect("generated problems are always well-formed");
        let row = row_from_outcome("greedy".into(), &problem, &outcome, config.step_period);
        ctx.emit_row(summary(&row));
        rows.push(row);

        // Monolithic space-time A* on a capped subsample.
        if config.astar_cap > 0 {
            let cap = config.astar_cap.min(problem.requests.len());
            let mut sub = problem.clone();
            sub.requests.truncate(cap);
            sub.max_steps = config.astar_max_steps;
            let outcome = Router::new(RoutingStrategy::PrioritizedAStar)
                .solve(&sub)
                .expect("sub-problems of well-formed problems are well-formed");
            let row = row_from_outcome(
                format!("space-time A* (first {cap})"),
                &sub,
                &outcome,
                config.step_period,
            );
            ctx.emit_row(summary(&row));
            rows.push(row);
        }

        // The incremental sharded planner.
        let outcome = pool.install(|| match cache.as_mut() {
            Some(cache) => incremental
                .solve_cached(&problem, cache)
                .expect("generated problems are always well-formed"),
            None => incremental
                .solve(&problem)
                .expect("generated problems are always well-formed"),
        });
        let row = row_from_outcome("incremental".into(), &problem, &outcome, config.step_period);
        ctx.emit_row(summary(&row));
        rows.push(row);
    }
    Results { rows }
}

fn summary(row: &FullArrayRow) -> String {
    format!(
        "{} particles via {}: {:.0}% in {} steps",
        row.particles,
        row.strategy,
        row.success_rate * 100.0,
        row.makespan_steps,
    )
}

/// The full-array sort as a first-class engine scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullArrayScenario;

impl Scenario for FullArrayScenario {
    type Config = Config;
    type Output = Results;

    fn id(&self) -> &'static str {
        "E10"
    }

    fn describe(&self) -> &'static str {
        "Full-array concurrent sort at thousands of particles (three planners)"
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
        run_with(config, &mut ScenarioContext::silent("E10"))
    }

    fn quick_config() -> Config {
        Config {
            array_side: 96,
            particles: 300,
            density_steps: vec![0.5, 1.0],
            astar_cap: 24,
            astar_max_steps: 384,
            threads: 1,
            ..Config::default()
        }
    }

    #[test]
    fn sweep_produces_three_strategies_per_density() {
        let results = run(&quick_config());
        assert_eq!(results.rows.len(), 6);
        assert_eq!(results.rows_for("greedy").len(), 2);
        assert_eq!(results.rows_for("A*").len(), 2);
        assert_eq!(results.rows_for("incremental").len(), 2);
    }

    #[test]
    fn incremental_is_conflict_free_and_beats_greedy_when_dense() {
        let results = run(&quick_config());
        for row in results.rows_for("incremental") {
            assert!(row.conflict_free, "{row:?}");
        }
        let incremental = results.densest_success("incremental").unwrap();
        let greedy = results.densest_success("greedy").unwrap();
        assert!(
            incremental >= 2.0 * greedy,
            "incremental {incremental} vs greedy {greedy}"
        );
        assert!(incremental > 0.85, "incremental routed only {incremental}");
    }

    #[test]
    fn astar_cap_zero_disables_astar_rows() {
        let config = Config {
            astar_cap: 0,
            ..quick_config()
        };
        let results = run(&config);
        assert_eq!(results.rows.len(), 4);
        assert!(results.rows_for("A*").is_empty());
    }

    #[test]
    fn plan_reuse_leaves_every_row_bit_identical() {
        let cold = run(&quick_config());
        let warm = run(&Config {
            reuse_plans: true,
            ..quick_config()
        });
        assert_eq!(cold, warm);
    }

    #[test]
    fn table_shape() {
        let results = run(&quick_config());
        let table = results.to_table();
        assert_eq!(table.columns.len(), 7);
        assert_eq!(table.row_count(), 6);
    }
}
