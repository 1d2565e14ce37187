//! Equivalence lock on warm-start replanning: a [`RouterCache`]-backed
//! solve must be indistinguishable from a cold solve, for any problem, any
//! mutation history, and any thread count.
//!
//! The cache's contract is stronger than "still conflict-free": because
//! entries are keyed on the *entire* per-shard planning input, a warm solve
//! is bit-identical to a cold solve of the same problem. These properties
//! pin that down:
//!
//! * an unchanged problem re-solved warm replays from cache (zero new
//!   misses) and reproduces the cold outcome exactly;
//! * after a chain of goal mutations through one cache, each warm solve
//!   equals its cold solve — same routed set, same paths, still
//!   conflict-free — so reuse never costs routed fraction, and the cache
//!   never holds more than the last two solves looked up;
//! * the cached path is thread-invariant at 1, 2, 4 and 8 workers, warm
//!   and cold alike.

use labchip::workload::sort_problem;
use labchip_manipulation::routing::{RoutingOutcome, RoutingProblem};
use labchip_manipulation::sharding::{IncrementalRouter, RouterCache, ShardConfig};
use labchip_units::GridDims;
use proptest::prelude::*;

fn router() -> IncrementalRouter {
    IncrementalRouter::new(ShardConfig {
        shard_side: 16,
        window: 8,
    })
}

fn problem_for(side: u32, particles: usize, seed: u64) -> RoutingProblem {
    sort_problem(GridDims::square(side), particles, 2, seed)
}

/// Applies goal swaps (a permutation, so the goal set — and with it the
/// separation feasibility — is untouched) to produce a mutated problem.
fn swap_goals(problem: &RoutingProblem, swaps: &[(usize, usize)]) -> RoutingProblem {
    let mut mutated = problem.clone();
    let n = mutated.requests.len();
    for &(a, b) in swaps {
        let (a, b) = (a % n, b % n);
        let goal_a = mutated.requests[a].goal;
        mutated.requests[a].goal = mutated.requests[b].goal;
        mutated.requests[b].goal = goal_a;
    }
    mutated
}

fn routed_fraction(outcome: &RoutingOutcome, requested: usize) -> f64 {
    outcome.paths.len() as f64 / requested.max(1) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn warm_resolve_of_an_unchanged_problem_is_bit_identical(
        side in 32u32..56,
        particles in 8usize..48,
        seed in 0u64..1000,
    ) {
        let router = router();
        let problem = problem_for(side, particles, seed);
        let cold = router.solve(&problem).expect("well-formed problem");

        let mut cache = RouterCache::new();
        let warm_first = router.solve_cached(&problem, &mut cache).expect("well-formed problem");
        let misses_after_first = cache.stats().misses;
        let warm_second = router.solve_cached(&problem, &mut cache).expect("well-formed problem");

        prop_assert_eq!(&warm_first, &cold);
        prop_assert_eq!(&warm_second, &cold);
        prop_assert_eq!(
            cache.stats().misses, misses_after_first,
            "re-solving an unchanged problem must be served entirely from cache"
        );
        prop_assert!(cache.stats().hits > 0);
    }

    #[test]
    fn mutated_goals_replan_exactly_like_a_cold_solve(
        side in 32u32..56,
        particles in 8usize..48,
        seed in 0u64..1000,
        mutations in proptest::collection::vec(
            proptest::collection::vec((0usize..64, 0usize..64), 0..4),
            3,
        ),
    ) {
        let router = router();
        let mut problem = problem_for(side, particles, seed);

        // Prime the cache on the original problem, then mutate it three
        // times in a row, re-solving through the same cache each time.
        let mut cache = RouterCache::new();
        router.solve_cached(&problem, &mut cache).expect("well-formed problem");
        let mut lookups = [0, cache.stats().hits + cache.stats().misses];
        for swaps in &mutations {
            problem = swap_goals(&problem, swaps);
            let before = cache.stats();
            let cold = router.solve(&problem).expect("well-formed problem");
            let warm = router.solve_cached(&problem, &mut cache).expect("well-formed problem");

            prop_assert_eq!(&warm, &cold);
            prop_assert!(warm.is_conflict_free(problem.min_separation));
            let requested = problem.requests.len();
            prop_assert!(
                routed_fraction(&warm, requested) >= routed_fraction(&cold, requested),
                "plan reuse must never cost routed fraction"
            );

            let after = cache.stats();
            lookups = [lookups[1], after.hits + after.misses - before.hits - before.misses];
            prop_assert!(
                after.entries as u64 <= lookups[0] + lookups[1],
                "{} entries outlive the last two solves' {:?} lookups",
                after.entries,
                lookups
            );
        }
    }
}

proptest! {
    // Thread sweeps run four pools per case; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn cached_solves_are_thread_invariant(
        side in 32u32..48,
        particles in 8usize..32,
        seed in 0u64..1000,
    ) {
        let router = router();
        let problem = problem_for(side, particles, seed);
        let mut reference: Option<(RoutingOutcome, RoutingOutcome)> = None;
        for threads in [1usize, 2, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool construction is infallible");
            let mut cache = RouterCache::new();
            let (cold, warm) = pool.install(|| {
                let cold = router.solve_cached(&problem, &mut cache).expect("well-formed problem");
                let warm = router.solve_cached(&problem, &mut cache).expect("well-formed problem");
                (cold, warm)
            });
            match &reference {
                None => reference = Some((cold, warm)),
                Some((ref_cold, ref_warm)) => {
                    prop_assert_eq!(&cold, ref_cold, "cold solve diverged at {} threads", threads);
                    prop_assert_eq!(&warm, ref_warm, "warm solve diverged at {} threads", threads);
                }
            }
        }
    }
}
