//! E7 — parallel manipulation at scale: "changing the pattern of voltages …
//! the DEP cages can be shifted, thus dragging along the trapped particles".
//!
//! At the scale the paper envisions — thousands of simultaneously trapped
//! cells — the software that shifts all those cages concurrently becomes the
//! bottleneck. The experiment sweeps the number of particles routed across a
//! fixed array and compares the proposed prioritized space-time A\* router
//! against the greedy baseline: success rate, makespan (in cage steps and in
//! wall-clock time at 50 µm/s), and total cage moves.

use crate::experiments::ExperimentTable;
use crate::scenario::{Limit, Scenario, ScenarioContext};
use crate::workload::phases::lattice;
use labchip_manipulation::cage::ParticleId;
use labchip_manipulation::routing::{Router, RoutingProblem, RoutingRequest, RoutingStrategy};
use labchip_units::{GridCoord, GridDims, Seconds};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the routing experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Array side (electrodes).
    pub array_side: u32,
    /// Particle counts to sweep.
    pub particle_counts: Vec<usize>,
    /// Minimum cage separation.
    pub min_separation: u32,
    /// Cage-step period (for wall-clock figures).
    pub step_period: Seconds,
    /// RNG seed for start/goal placement.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            array_side: 64,
            particle_counts: vec![10, 25, 50, 100, 140],
            min_separation: 2,
            step_period: Seconds::new(0.4),
            seed: 99,
        }
    }
}

/// One row of the routing sweep (one particle count, one strategy).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingRow {
    /// Number of particles requested to move.
    pub particles: usize,
    /// Strategy name.
    pub strategy: String,
    /// Fraction of particles routed to their goals.
    pub success_rate: f64,
    /// Makespan in cage steps.
    pub makespan_steps: usize,
    /// Makespan in seconds at the configured step period.
    pub makespan_seconds: f64,
    /// Total cage moves.
    pub total_moves: usize,
    /// Completed particles per second of wall-clock time.
    pub particles_per_second: f64,
}

/// Result of the routing sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    /// Rows, two per particle count (A*, then greedy).
    pub rows: Vec<RoutingRow>,
}

/// Generates a random but well-posed routing problem: particles start on a
/// lattice in the left third of the array (one electrode of headroom beyond
/// the minimum cage separation, as a real loading pattern would use) and are
/// sent across the array to slots in the right third. Start/goal pairing
/// preserves the scan order of the slots — the assignment a real scheduler
/// would make — while the random subset of occupied slots varies with the
/// seed.
pub fn generate_problem(config: &Config, particles: usize) -> RoutingProblem {
    let dims = GridDims::square(config.array_side);
    let spacing = config.min_separation.max(1) + 1;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ particles as u64);

    let all_starts = lattice(dims, 1, dims.cols / 3, spacing);
    let all_goals = lattice(
        dims,
        2 * dims.cols / 3,
        dims.cols.saturating_sub(1),
        spacing,
    );
    let count = particles.min(all_starts.len()).min(all_goals.len());

    // Choose a random subset of slots on each side, then pair them in scan
    // order so that trajectories do not have to overtake each other.
    let mut starts: Vec<GridCoord> = {
        let mut s = all_starts;
        s.shuffle(&mut rng);
        s.truncate(count);
        s.sort_unstable_by_key(|c| (c.y, c.x));
        s
    };
    let goals: Vec<GridCoord> = {
        let mut g = all_goals;
        g.shuffle(&mut rng);
        g.truncate(count);
        g.sort_unstable_by_key(|c| (c.y, c.x));
        g
    };
    starts.sort_unstable_by_key(|c| (c.y, c.x));

    let requests = starts
        .into_iter()
        .zip(goals)
        .enumerate()
        .map(|(i, (start, goal))| RoutingRequest {
            id: ParticleId(i as u64),
            start,
            goal,
        })
        .collect();

    let mut problem = RoutingProblem::new(dims, requests);
    problem.min_separation = config.min_separation;
    problem
}

fn run_one(config: &Config, particles: usize, strategy: RoutingStrategy) -> RoutingRow {
    let problem = generate_problem(config, particles);
    let requested = problem.requests.len();
    let outcome = Router::new(strategy)
        .solve(&problem)
        .expect("generated problems are always valid");
    let makespan_seconds = config.step_period.get() * outcome.makespan as f64;
    let completed = outcome.paths.len();
    RoutingRow {
        particles: requested,
        strategy: match strategy {
            RoutingStrategy::PrioritizedAStar => "space-time A*".into(),
            RoutingStrategy::Greedy => "greedy".into(),
            RoutingStrategy::Incremental => "incremental".into(),
        },
        success_rate: outcome.success_rate(requested),
        makespan_steps: outcome.makespan,
        makespan_seconds,
        total_moves: outcome.total_moves,
        particles_per_second: if makespan_seconds > 0.0 {
            completed as f64 / makespan_seconds
        } else {
            0.0
        },
    }
}

/// The routing sweep as a first-class engine scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoutingScenario;

impl Scenario for RoutingScenario {
    type Config = Config;
    type Output = Results;

    fn id(&self) -> &'static str {
        "E7"
    }

    fn describe(&self) -> &'static str {
        "Parallel cage routing: space-time A* vs greedy baseline"
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
    let mut rows = Vec::with_capacity(2 * config.particle_counts.len());
    for &particles in &config.particle_counts {
        for strategy in [RoutingStrategy::PrioritizedAStar, RoutingStrategy::Greedy] {
            let row = run_one(config, particles, strategy);
            ctx.emit_row(format!(
                "{} particles via {}: {:.0}% routed in {} steps",
                row.particles,
                row.strategy,
                row.success_rate * 100.0,
                row.makespan_steps
            ));
            rows.push(row);
        }
    }
    Results { rows }
}

impl Results {
    /// Rows of one strategy.
    pub fn rows_for(&self, strategy_fragment: &str) -> Vec<&RoutingRow> {
        self.rows
            .iter()
            .filter(|r| r.strategy.contains(strategy_fragment))
            .collect()
    }

    /// Renders the result as a report table.
    pub fn to_table(&self) -> ExperimentTable {
        ExperimentTable::new(
            "E7",
            "Parallel cage routing: space-time A* vs greedy baseline",
            vec![
                "particles".into(),
                "strategy".into(),
                "success".into(),
                "makespan [steps]".into(),
                "makespan [s]".into(),
                "total moves".into(),
                "particles/s".into(),
            ],
            self.rows
                .iter()
                .map(|r| {
                    vec![
                        r.particles.to_string(),
                        r.strategy.clone(),
                        format!("{:.0}%", r.success_rate * 100.0),
                        r.makespan_steps.to_string(),
                        format!("{:.0}", r.makespan_seconds),
                        r.total_moves.to_string(),
                        format!("{:.2}", r.particles_per_second),
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
        run_with(config, &mut ScenarioContext::silent("E7"))
    }

    fn quick_config() -> Config {
        Config {
            array_side: 32,
            particle_counts: vec![8, 24],
            ..Config::default()
        }
    }

    #[test]
    fn generated_problems_are_valid_and_span_the_array() {
        let config = quick_config();
        let problem = generate_problem(&config, 24);
        assert!(problem.validate().is_ok());
        assert_eq!(problem.requests.len(), 24);
        for r in &problem.requests {
            assert!(r.start.x < problem.dims.cols / 3);
            assert!(r.goal.x >= 2 * problem.dims.cols / 3);
            assert!(problem.dims.contains(r.start) && problem.dims.contains(r.goal));
        }
    }

    /// Arrays too small for a lattice give empty problems; at
    /// `array_side = 0` the goal lattice's right edge saturates at 0
    /// instead of wrapping to `u32::MAX`.
    #[test]
    fn degenerate_arrays_give_empty_problems() {
        for array_side in 0..6 {
            let config = Config {
                array_side,
                ..quick_config()
            };
            assert!(
                generate_problem(&config, 24).requests.is_empty(),
                "{array_side}"
            );
            assert_eq!(run(&config).rows.len(), 2 * config.particle_counts.len());
        }
        let config = Config {
            array_side: 6,
            ..quick_config()
        };
        assert!(!generate_problem(&config, 24).requests.is_empty());
    }

    #[test]
    fn astar_sustains_high_success_as_density_grows() {
        let results = run(&quick_config());
        let astar = results.rows_for("A*");
        assert_eq!(astar.len(), 2);
        for row in &astar {
            assert!(
                row.success_rate > 0.9,
                "A* success {} at {} particles",
                row.success_rate,
                row.particles
            );
        }
    }

    #[test]
    fn astar_beats_or_matches_greedy_everywhere() {
        let results = run(&quick_config());
        let astar = results.rows_for("A*");
        let greedy = results.rows_for("greedy");
        for (a, g) in astar.iter().zip(greedy.iter()) {
            assert_eq!(a.particles, g.particles);
            assert!(
                a.success_rate >= g.success_rate,
                "A* {} vs greedy {} at {} particles",
                a.success_rate,
                g.success_rate,
                a.particles
            );
        }
        // At the denser point the baseline visibly degrades relative to A*.
        let last_a = astar.last().unwrap();
        let last_g = greedy.last().unwrap();
        assert!(last_a.success_rate - last_g.success_rate > -1e-9);
    }

    #[test]
    fn throughput_grows_with_parallelism() {
        let results = run(&quick_config());
        let astar = results.rows_for("A*");
        assert!(astar[1].particles_per_second > astar[0].particles_per_second);
    }

    #[test]
    fn table_shape() {
        let config = quick_config();
        let table = run(&config).to_table();
        assert_eq!(table.row_count(), 2 * config.particle_counts.len());
        assert_eq!(table.columns.len(), 7);
    }
}
