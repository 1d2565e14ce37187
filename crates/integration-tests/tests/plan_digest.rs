//! Plan digests: the incremental router's full outcome on two seeded sort
//! problems, pinned as 64-bit FNV-1a digests.
//!
//! Speed work on the windowed A\* must change no plan, so these constants
//! must never move with it. The 96² problem runs in every test pass; the
//! paper-scale 320²/10 000 twin is `#[ignore]`d and runs in release:
//!
//! ```text
//! cargo test --release -p labchip-integration-tests --test plan_digest -- --ignored plan_digest
//! ```

use labchip::workload::sort_problem;
use labchip_manipulation::routing::RoutingOutcome;
use labchip_manipulation::sharding::IncrementalRouter;
use labchip_units::GridDims;

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

fn sort_digest(side: u32, particles: usize, seed: u64) -> u64 {
    let problem = sort_problem(GridDims::square(side), particles, 2, seed);
    let outcome = IncrementalRouter::default()
        .solve(&problem)
        .expect("generated problems are always well-formed");
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
