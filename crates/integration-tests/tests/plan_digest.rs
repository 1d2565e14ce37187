//! Plan digests: the incremental router's full outcome on seeded sort and
//! recovery problems, and the prioritized space-time A\*'s on E7's and
//! E10's problems, pinned as 64-bit FNV-1a digests.
//!
//! Speed work on either planner must change no plan, so these constants
//! must never move with it. The small problems run in every test pass;
//! the paper-scale twins are `#[ignore]`d and run in release:
//!
//! ```text
//! cargo test --release -p labchip-integration-tests --test plan_digest -- --ignored plan_digest
//! ```

use labchip::experiments::{e10_fullarray, e7_routing};
use labchip::workload::phases::loading_sites;
use labchip::workload::sort_problem;
use labchip_manipulation::cage::ParticleId;
use labchip_manipulation::routing::{
    Router, RoutingOutcome, RoutingProblem, RoutingRequest, RoutingStrategy,
};
use labchip_manipulation::sharding::IncrementalRouter;
use labchip_units::{GridCoord, GridDims};
use std::collections::HashSet;

/// FNV-1a over every routed and stranded path (id, length, cells), the
/// unrouted ids, the makespan and the move count.
fn digest(outcome: &RoutingOutcome) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for path in outcome.paths.iter().chain(&outcome.stranded) {
        eat(path.id.0);
        eat(path.positions.len() as u64);
        for c in &path.positions {
            eat(u64::from(c.x) << 32 | u64::from(c.y));
        }
    }
    for id in &outcome.unrouted {
        eat(id.0);
    }
    eat(outcome.makespan as u64);
    eat(outcome.total_moves as u64);
    hash
}

fn solve(problem: &RoutingProblem) -> RoutingOutcome {
    IncrementalRouter::default()
        .solve(problem)
        .expect("generated problems are always well-formed")
}

fn sort_digest(side: u32, particles: usize, seed: u64) -> u64 {
    let problem = sort_problem(GridDims::square(side), particles, 2, seed);
    digest(&solve(&problem))
}

/// The problem shape the Recover phase routes: every loaded site of a
/// seeded batch is a stationary request, and `movers` strays head for
/// vacant loading-lattice sites. Mover `movers - 1` sits inside a ring of
/// eight stationary particles at exactly the separation distance, so it
/// cannot take a step and strands, and the solve runs on until the router
/// gives up. Ids follow Recover's order: movers first, then the stationary
/// particles in row-major order.
fn recovery_problem(side: u32, particles: usize, movers: usize, seed: u64) -> RoutingProblem {
    let dims = GridDims::square(side);
    let sep = 2;
    let wall = GridCoord::new(side / 2, side / 2);
    let ring: Vec<GridCoord> = [-2, 0, 2]
        .into_iter()
        .flat_map(|dy| [-2, 0, 2].map(|dx| wall.offset(dx, dy)))
        .map(|c| c.expect("the ring lies on the grid"))
        .filter(|c| *c != wall)
        .collect();
    // Lattice sites at Chebyshev distance ≥ 4 from the wall keep the
    // separation from the ring.
    let clear = |c: &GridCoord| c.chebyshev(wall) > 3;
    let loaded: Vec<GridCoord> = loading_sites(dims, particles, sep, seed, None)
        .into_iter()
        .filter(clear)
        .collect();
    let taken: HashSet<GridCoord> = loaded.iter().copied().collect();
    let vacancies: Vec<GridCoord> = loading_sites(dims, usize::MAX, sep, 0, None)
        .into_iter()
        .filter(|c| clear(c) && !taken.contains(c))
        .collect();
    let strays = movers - 1;
    let mover_starts: Vec<GridCoord> = (0..strays)
        .map(|k| loaded[k * loaded.len() / strays])
        .chain([wall])
        .collect();
    let mut requests: Vec<RoutingRequest> = mover_starts
        .iter()
        .enumerate()
        .map(|(k, &start)| RoutingRequest {
            id: ParticleId(k as u64),
            start,
            goal: vacancies[(2 * k + 1) * vacancies.len() / (2 * movers)],
        })
        .collect();
    let mut stationary: Vec<GridCoord> = loaded
        .iter()
        .chain(&ring)
        .copied()
        .filter(|c| !mover_starts.contains(c))
        .collect();
    stationary.sort_by_key(|c| (c.y, c.x));
    for site in stationary {
        requests.push(RoutingRequest {
            id: ParticleId(requests.len() as u64),
            start: site,
            goal: site,
        });
    }
    let mut problem = RoutingProblem::new(dims, requests);
    problem.min_separation = sep;
    problem
}

fn recovery_digest(side: u32, particles: usize, movers: usize, seed: u64) -> u64 {
    let outcome = solve(&recovery_problem(side, particles, movers, seed));
    let walled = ParticleId(movers as u64 - 1);
    assert!(
        outcome.unrouted.contains(&walled),
        "the walled-in mover must strand"
    );
    digest(&outcome)
}

#[test]
fn plan_digest_96x500() {
    assert_eq!(
        sort_digest(96, 500, 3),
        0x69b6_d4fe_d0c7_16c1,
        "96²/500 seed 3 plans changed"
    );
}

#[test]
#[ignore = "paper scale; run in release with --ignored"]
fn plan_digest_320x10000() {
    assert_eq!(
        sort_digest(320, 10_000, 11),
        0xe7f6_1e6a_dda6_4ef9,
        "320²/10 000 seed 11 plans changed"
    );
}

#[test]
fn plan_digest_96x_recovery() {
    assert_eq!(
        recovery_digest(96, 500, 6, 5),
        0xe3a7_19fe_74a3_14a0,
        "96²/500 recovery seed 5 plans changed"
    );
}

#[test]
#[ignore = "paper scale; run in release with --ignored"]
fn plan_digest_320x_recovery() {
    assert_eq!(
        recovery_digest(320, 4320, 40, 7),
        0x7bc6_5e31_5fe9_0188,
        "320²/4320 recovery seed 7 plans changed"
    );
}

fn prioritized_digest(problem: &RoutingProblem) -> u64 {
    let outcome = Router::new(RoutingStrategy::PrioritizedAStar)
        .solve(problem)
        .expect("generated problems are always well-formed");
    digest(&outcome)
}

/// E7's seeded problem: `particles` cross a `side`² array left to right.
fn e7_digest(side: u32, particles: usize) -> u64 {
    let config = e7_routing::Config {
        array_side: side,
        ..e7_routing::Config::default()
    };
    prioritized_digest(&e7_routing::generate_problem(&config, particles))
}

/// E10's first "space-time A\* (first N)" row at defaults: the first
/// `astar_cap` requests of the sparsest sort, at `astar_max_steps`.
fn e10_first_digest() -> u64 {
    let config = e10_fullarray::Config::default();
    let count = (config.particles as f64 * config.density_steps[0]).round() as usize;
    let mut problem = sort_problem(
        GridDims::square(config.array_side),
        count,
        config.min_separation,
        config.seed,
    );
    problem.requests.truncate(config.astar_cap);
    problem.max_steps = config.astar_max_steps;
    prioritized_digest(&problem)
}

#[test]
fn plan_digest_prioritized_e7_32x24() {
    assert_eq!(
        e7_digest(32, 24),
        0xdace_8f14_3c63_8e28,
        "E7 32²/24 prioritized plans changed"
    );
}

/// Four head-on pairs in a 24 × 11 strip: every pair must swap ends.
#[test]
fn plan_digest_prioritized_head_on() {
    let requests = (0..4u32)
        .flat_map(|k| {
            let y = 1 + 3 * k;
            let (left, right) = (GridCoord::new(1, y), GridCoord::new(22, y));
            [(2 * k, left, right), (2 * k + 1, right, left)]
        })
        .map(|(id, start, goal)| RoutingRequest {
            id: ParticleId(u64::from(id)),
            start,
            goal,
        })
        .collect();
    let problem = RoutingProblem::new(GridDims::new(24, 11), requests);
    assert_eq!(
        prioritized_digest(&problem),
        0x7f55_cc7b_1dcd_b1ca,
        "head-on prioritized plans changed"
    );
}

#[test]
#[ignore = "paper scale; run in release with --ignored"]
fn plan_digest_prioritized_e7_64x140() {
    assert_eq!(
        e7_digest(64, 140),
        0x551b_8c8d_7884_50d8,
        "E7 64²/140 prioritized plans changed"
    );
}

#[test]
#[ignore = "paper scale; run in release with --ignored"]
fn plan_digest_prioritized_e10_first_96() {
    assert_eq!(
        e10_first_digest(),
        0xa9a2_72bc_774a_6a87,
        "E10 first-96 prioritized plans changed"
    );
}
