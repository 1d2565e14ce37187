//! `replan_320`: warm re-targeting at paper scale. A cold solve fills a
//! `RouterCache`; each timed operation swaps the goals of a seeded 1% of
//! the particles (in pairs), invalidates the touched cells and re-solves
//! through the cache.

use std::collections::BTreeSet;
use std::time::Instant;

use labchip::workload::sort_problem;
use labchip_manipulation::routing::RoutingOutcome;
use labchip_manipulation::sharding::{IncrementalRouter, RouterCache, ShardConfig};
use labchip_units::GridDims;

use crate::assay::partition_probe;
use crate::common::{median, repeat_setup, run_for, Outcome, Params, SplitMix};
use crate::trace::Tracer;

const SEP: u32 = 2;
const SWAP_SALT: u64 = 0x5EED_0F5A_4B00_0001;

pub fn run(params: &Params, tracer: &Tracer) -> Outcome {
    let (side, particles) = if params.reduced {
        (128, 800)
    } else {
        (320, 10_000)
    };
    let dims = GridDims::square(side);
    let router = IncrementalRouter::new(ShardConfig::default());
    let tile = router.effective_side(SEP);
    let mut out = Outcome::default();
    let ((mut problem, mut cache), setup) = repeat_setup(2, || {
        let problem = sort_problem(dims, particles, SEP, params.seed);
        let mut cache = RouterCache::new();
        let cold = router
            .solve_cached(&problem, &mut cache)
            .expect("generated problems are well-formed");
        std::hint::black_box(cold);
        (problem, cache)
    });
    out.setup_s = setup;

    let n = problem.requests.len();
    let pairs = (n / 200).max(1);
    let mut rng = SplitMix::new(params.seed ^ SWAP_SALT);
    let mut first: Option<RoutingOutcome> = None;
    let mut last: Option<RoutingOutcome> = None;
    let (mut hit_ratios, mut misses, mut invalidate_s) = (Vec::new(), Vec::new(), Vec::new());
    let checks = &mut out.checks;
    let latencies = &mut out.latencies_ms;
    let replans = run_for(params, 1, |k| {
        // Re-target: swap the goals of `pairs` disjoint particle pairs.
        let mut chosen = BTreeSet::new();
        while chosen.len() < 2 * pairs {
            chosen.insert(rng.below(n));
        }
        let chosen: Vec<usize> = chosen.into_iter().collect();
        let mut order = chosen.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut cells = Vec::with_capacity(2 * chosen.len());
        for pair in order.chunks(2) {
            let (a, b) = (pair[0], pair[1]);
            let goal_a = problem.requests[a].goal;
            problem.requests[a].goal = problem.requests[b].goal;
            problem.requests[b].goal = goal_a;
        }
        for &i in &chosen {
            cells.push(problem.requests[i].start);
            cells.push(problem.requests[i].goal);
        }

        let before = cache.stats();
        let op = tracer.next_id();
        let start = Instant::now();
        cache.invalidate_cells(dims, tile, &cells);
        let invalidated = Instant::now();
        let outcome = router
            .solve_cached(&problem, &mut cache)
            .expect("re-targeted problems stay well-formed");
        let end = Instant::now();
        tracer.record(
            tracer.next_id(),
            "invalidate",
            start,
            invalidated,
            Some(op),
            Some(k as u64),
            0,
        );
        tracer.record(
            tracer.next_id(),
            "solve_cached",
            invalidated,
            end,
            Some(op),
            Some(k as u64),
            0,
        );
        tracer.record(op, "replan", start, end, None, Some(k as u64), 0);
        latencies.push(end.duration_since(start).as_secs_f64() * 1e3);
        invalidate_s.push(invalidated.duration_since(start).as_secs_f64());

        let after = cache.stats();
        let (hits, missed) = (after.hits - before.hits, after.misses - before.misses);
        hit_ratios.push(hits as f64 / (hits + missed).max(1) as f64);
        misses.push(missed as f64);
        checks.check(outcome.is_conflict_free(SEP), || {
            format!("replan {k}: plan is not conflict-free")
        });
        if first.is_none() {
            first = Some(outcome.clone());
        }
        last = Some(outcome);
    });

    // Once per run, untimed: the warm result equals a cold solve of the
    // same problem.
    let (cold, cold_s) = tracer.time("cold_check", None, None, || router.solve(&problem));
    let cold = cold.expect("re-targeted problems stay well-formed");
    out.checks.check(last.as_ref() == Some(&cold), || {
        "replan: final warm outcome differs from a cold solve".into()
    });

    let first = first.expect("at least one replan ran");
    let replan_s: f64 = out.latencies_ms.iter().sum::<f64>() / 1e3;
    out.work_per_s = (n * replans) as f64 / replan_s;
    out.yield_frac = first.success_rate(n);
    out.size("cells", f64::from(side * side));
    out.size("particles_asked", particles as f64);
    out.size("requested", n as f64);
    out.size("swapped_per_replan", (2 * pairs) as f64);
    out.fact("replans", replans as f64, "count", false);
    out.fact(
        "rayon_threads",
        rayon::current_num_threads() as f64,
        "count",
        false,
    );
    out.fact("replan_s", median(&out.latencies_ms) / 1e3, "s", false);
    out.fact("routed_frac", out.yield_frac, "ratio", true);
    out.fact("makespan_steps", first.makespan as f64, "count", true);
    out.fact("total_moves", first.total_moves as f64, "count", true);

    if tracer.enabled() {
        out.recorder_overhead(tracer);
        out.layer("cache.hit_ratio", median(&hit_ratios));
        out.layer("cache.misses", median(&misses));
        out.layer("cache.invalidate_s", median(&invalidate_s));
        out.layer("cache.entries", cache.stats().entries as f64);
        out.layer("router.solve_s", cold_s);
        out.layer("router.makespan_steps", first.makespan as f64);
        out.layer("router.total_moves", first.total_moves as f64);
        out.layer(
            "router.partition_s",
            partition_probe(tracer, &router, &problem),
        );
    }
    out
}
