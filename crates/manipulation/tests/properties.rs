//! Property-based tests for the manipulation crate: the router's conflict-free
//! invariant and the cage-grid separation invariant under random workloads.

use labchip_manipulation::cage::{CageGrid, ParticleId};
use labchip_manipulation::routing::{Router, RoutingProblem, RoutingRequest, RoutingStrategy};
use labchip_units::{GridCoord, GridDims};
use proptest::prelude::*;

/// Builds a routing problem from proptest-chosen slot indices: starts on a
/// period-3 lattice on the left, goals on a period-3 lattice on the right.
fn problem_from_indices(side: u32, picks: &[usize]) -> RoutingProblem {
    let dims = GridDims::square(side);
    let lattice = |x_lo: u32, x_hi: u32| -> Vec<GridCoord> {
        let mut v = Vec::new();
        let mut y = 1;
        while y < dims.rows - 1 {
            let mut x = x_lo;
            while x < x_hi {
                v.push(GridCoord::new(x, y));
                x += 3;
            }
            y += 3;
        }
        v
    };
    let starts = lattice(1, side / 3);
    let goals = lattice(2 * side / 3, side - 1);
    let n = starts.len().min(goals.len());
    let requests: Vec<RoutingRequest> = picks
        .iter()
        .enumerate()
        .map(|(i, pick)| RoutingRequest {
            id: ParticleId(i as u64),
            start: starts[pick % n],
            goal: goals[(pick * 7 + i) % n],
        })
        // Deduplicate starts and goals to keep the problem valid.
        .fold(Vec::new(), |mut acc: Vec<RoutingRequest>, r| {
            let clash = acc
                .iter()
                .any(|o| o.start.chebyshev(r.start) < 2 || o.goal.chebyshev(r.goal) < 2);
            if !clash {
                acc.push(r);
            }
            acc
        });
    RoutingProblem::new(dims, requests)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the workload, every solution the A* router reports is
    /// conflict-free and every routed particle really ends at its goal.
    #[test]
    fn astar_solutions_are_always_conflict_free(
        side in 18u32..36,
        picks in proptest::collection::vec(0usize..1000, 1..12),
    ) {
        let problem = problem_from_indices(side, &picks);
        prop_assume!(!problem.requests.is_empty());
        prop_assert!(problem.validate().is_ok());
        let outcome = Router::new(RoutingStrategy::PrioritizedAStar).solve(&problem).unwrap();
        prop_assert!(outcome.is_conflict_free(problem.min_separation));
        for path in &outcome.paths {
            let request = problem.requests.iter().find(|r| r.id == path.id).unwrap();
            if path.positions.len() > 1 {
                prop_assert_eq!(*path.positions.last().unwrap(), request.goal);
            }
            prop_assert_eq!(path.positions[0], request.start);
            // Each step moves at most one electrode.
            for pair in path.positions.windows(2) {
                prop_assert!(pair[0].chebyshev(pair[1]) <= 1);
            }
        }
        // Accounting is consistent.
        prop_assert_eq!(
            outcome.paths.len() + outcome.unrouted.len(),
            problem.requests.len()
        );
    }

    /// The greedy baseline also never produces a conflicting plan (it may
    /// just deliver fewer particles).
    #[test]
    fn greedy_solutions_are_always_conflict_free(
        side in 18u32..36,
        picks in proptest::collection::vec(0usize..1000, 1..12),
    ) {
        let problem = problem_from_indices(side, &picks);
        prop_assume!(!problem.requests.is_empty());
        let outcome = Router::new(RoutingStrategy::Greedy).solve(&problem).unwrap();
        prop_assert!(outcome.is_conflict_free(problem.min_separation));
    }

    /// The cage grid never ends up with two particles closer than the
    /// minimum separation, no matter what sequence of placements and steps is
    /// attempted (failed operations simply leave the grid unchanged).
    #[test]
    fn cage_grid_invariant_under_random_operations(
        ops in proptest::collection::vec((0u64..6, 0u32..16, 0u32..16), 1..60),
    ) {
        let mut grid = CageGrid::new(GridDims::square(16));
        for (id, x, y) in ops {
            let coord = GridCoord::new(x, y);
            if grid.position(ParticleId(id)).is_ok() {
                let _ = grid.step(ParticleId(id), coord);
            } else {
                let _ = grid.place(ParticleId(id), coord);
            }
            // Invariant: pairwise separation always holds.
            let particles: Vec<_> = grid.iter_particles().collect();
            for (i, (_, a)) in particles.iter().enumerate() {
                for (_, b) in &particles[i + 1..] {
                    prop_assert!(a.chebyshev(*b) >= grid.min_separation());
                }
            }
        }
    }
}
