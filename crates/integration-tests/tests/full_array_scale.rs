//! Integration: the full-array pipeline scenarios (E10/E11) end to end —
//! serial-vs-parallel bit-identical outputs through the `Runner`, the
//! incremental planner's conflict-free invariant at scale, and the batch
//! workload driver's phase accounting.

use labchip::scenario::{Runner, ScenarioRegistry};
use labchip::workload::{sort_problem, BatchDriver, WorkloadConfig};
use labchip_manipulation::routing::{Router, RoutingStrategy};
use labchip_manipulation::sharding::{IncrementalRouter, ShardConfig};
use labchip_units::GridDims;

/// A runner with E10/E11 shrunk to integration-test size (the default
/// 320²/2000-particle sweep is what `report run e10 e11` exercises).
fn scale_runner() -> Runner {
    let mut runner = Runner::new(ScenarioRegistry::all());
    for spec in [
        "array_side=64",
        "particles=80",
        "density_steps=[0.5,1.0]",
        "astar_cap=12",
        "astar_max_steps=256",
        "particles_per_cycle=40",
        "cycles=2",
        "threads=2",
    ] {
        runner.set_override(spec).expect("spec is well-formed");
    }
    runner
}

#[test]
fn e10_and_e11_plans_are_bit_identical_across_serial_and_parallel_runs() {
    let ids = ["e10", "e11"];
    let parallel = scale_runner().run(&ids).expect("parallel run succeeds");
    let mut serial_runner = scale_runner();
    serial_runner.set_parallel(false);
    let serial = serial_runner.run(&ids).expect("serial run succeeds");
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.id, s.id);
        assert_eq!(p.output, s.output, "{} plans differ", p.id);
        assert_eq!(p.table, s.table, "{} tables differ", p.id);
    }
}

#[test]
fn incremental_planner_is_deterministic_across_thread_counts_at_scale() {
    let problem = sort_problem(GridDims::square(96), 250, 2, 77);
    let router = IncrementalRouter::new(ShardConfig {
        shard_side: 24,
        window: 6,
    });
    let solve_with = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds")
            .install(|| router.solve(&problem).expect("problem is well-formed"))
    };
    let one = solve_with(1);
    let four = solve_with(4);
    assert_eq!(one, four, "thread count changed the plan");
    assert!(one.is_conflict_free(problem.min_separation));
}

#[test]
fn incremental_beats_greedy_by_2x_at_the_densest_setting() {
    // The acceptance shape of E10, at integration-test scale: the densest
    // sweep point of the full-array sort.
    let problem = sort_problem(GridDims::square(96), 300, 2, 2005);
    let total = problem.requests.len();
    let incremental = IncrementalRouter::default()
        .solve(&problem)
        .expect("well-formed");
    let greedy = Router::new(RoutingStrategy::Greedy)
        .solve(&problem)
        .expect("well-formed");
    assert!(incremental.is_conflict_free(problem.min_separation));
    assert!(
        incremental.success_rate(total) >= 2.0 * greedy.success_rate(total),
        "incremental {} vs greedy {}",
        incremental.success_rate(total),
        greedy.success_rate(total)
    );
    assert!(incremental.success_rate(total) > 0.85);
}

#[test]
fn batch_driver_accounts_every_phase_and_validates_moves() {
    let mut driver = BatchDriver::new(WorkloadConfig {
        array_side: 64,
        ..WorkloadConfig::default()
    });
    let report = driver.run_cycle(60);
    assert!(report.conflict_free);
    assert!(report.success_rate() > 0.9, "routed {}", report.routed);
    // Every phase of the paper-style assay is accounted for.
    assert!(report.time.fluidics.get() > 0.0);
    assert!(report.time.sensing.get() > 0.0);
    assert!(report.time.motion.get() > 0.0);
    // Force-feasibility checked each planned move and found the reference
    // operating point safe; the row-rewrite budget fits the step period.
    assert_eq!(report.moves_checked, report.total_moves);
    assert_eq!(report.infeasible_moves, 0);
    assert!(report.budget.fits_within(driver.config().step_period));
    assert_eq!(report.occupancy_detected, report.requested);
}
