//! `assay_320`: the paper's headline use, the canned
//! load → route(sort-split) → sense → recover → flush cycle on one
//! `BatchDriver` at 320², journaled, with closed-loop recovery on the
//! reference sensor channel.

use std::cell::RefCell;
use std::time::Instant;

use labchip::workload::{
    sort_problem, BatchDriver, ForceEnvelope, PhaseReport, Protocol, ProtocolOutcome,
    RecoveryPolicy, RunControl, WorkloadConfig,
};
use labchip_manipulation::journal::{replay, Journal};
use labchip_manipulation::sharding::IncrementalRouter;
use labchip_manipulation::state::ChipState;
use labchip_sensing::array_scan::ArrayScanner;
use labchip_units::GridDims;

use crate::common::{median, repeat_setup, run_for, Checks, Outcome, Params};
use crate::trace::Tracer;

const SEP: u32 = 2;
/// Phase span names and the per-layer metric each one feeds.
const PHASES: [(&str, &str); 5] = [
    ("load", "workload.load_s"),
    ("route", "workload.route_s"),
    ("sense", "workload.sense_s"),
    ("recover", "workload.recover_s"),
    ("flush", "workload.flush_s"),
];

/// Times every phase of a controlled run as a child span of its cycle.
struct PhaseSpans<'t> {
    tracer: &'t Tracer,
    cycle_span: u64,
    op: u64,
    open: RefCell<Option<(String, Instant)>>,
    phase_s: RefCell<f64>,
}

impl RunControl for PhaseSpans<'_> {
    fn should_stop(&self, _next_phase: usize) -> bool {
        false
    }

    fn on_phase_started(&self, _index: usize, name: &str) {
        *self.open.borrow_mut() = Some((name.to_owned(), Instant::now()));
    }

    fn on_phase_finished(&self, _index: usize, _report: &PhaseReport) {
        let end = Instant::now();
        if let Some((name, start)) = self.open.borrow_mut().take() {
            *self.phase_s.borrow_mut() += end.duration_since(start).as_secs_f64();
            let id = self.tracer.next_id();
            self.tracer.record(
                id,
                &name,
                start,
                end,
                Some(self.cycle_span),
                Some(self.op),
                0,
            );
        }
    }
}

/// The per-cycle correctness check: the journal replays to the final
/// state, no phase aborted, and the plan kept its separation.
fn check_cycle(
    checks: &mut Checks,
    cycle: usize,
    dims: GridDims,
    outcome: &ProtocolOutcome,
    journal: &Journal,
) {
    let replayed = replay(journal, dims, SEP).map(|state| state.state_hash());
    let hash = outcome.state.state_hash();
    let aborted = outcome
        .phases
        .iter()
        .find(|p| p.phase.starts_with("aborted:"));
    checks.check(
        replayed.as_ref().ok() == Some(&hash)
            && aborted.is_none()
            && outcome.report.conflict_free,
        || {
            format!(
                "assay cycle {cycle}: replay {replayed:?} vs {hash:#x}, aborted {:?}, conflict_free {}",
                aborted.map(|p| &p.phase),
                outcome.report.conflict_free
            )
        },
    );
}

pub fn run(params: &Params, tracer: &Tracer) -> Outcome {
    let (side, particles) = if params.reduced {
        (96, 400)
    } else {
        (320, 10_000)
    };
    let dims = GridDims::square(side);
    let config = WorkloadConfig {
        array_side: side,
        min_separation: SEP,
        noise_scale: 1.0,
        detection_frames: 16,
        recovery: RecoveryPolicy::date05_reference(),
        reuse_plans: false,
        seed: params.seed,
        ..WorkloadConfig::default()
    };
    let mut out = Outcome::default();
    let ((driver, protocol), setup) = repeat_setup(5, || {
        let driver = BatchDriver::with_envelope(config, ForceEnvelope::date05_reference());
        let protocol = Protocol::canned_cycle(dims, SEP, particles);
        (driver, protocol)
    });
    out.setup_s = setup;

    let mut first: Option<labchip::workload::CycleReport> = None;
    let mut first_journal_len = 0;
    let mut cycled = 0usize;
    let mut cycle_s = 0.0;
    let mut between = Vec::new();
    let mut traced_total = 0.0;
    let checks = &mut out.checks;
    let latencies = &mut out.latencies_ms;
    let cycles = run_for(params, 1, |k| {
        let start = Instant::now();
        let (outcome, journal) = driver.runner().run_journaled(&protocol, k);
        let seconds = start.elapsed().as_secs_f64();
        latencies.push(seconds * 1e3);
        cycle_s += seconds;
        cycled += outcome.report.requested;
        check_cycle(checks, k, dims, &outcome, &journal);
        if first.is_none() {
            first = Some(outcome.report.clone());
            first_journal_len = journal.len();
        }
        if !tracer.enabled() {
            return;
        }
        // The traced twin of the same cycle: phase spans through the
        // run-control hooks, output compared with the untraced run.
        let cycle_span = tracer.next_id();
        let control = PhaseSpans {
            tracer,
            cycle_span,
            op: k as u64,
            open: RefCell::new(None),
            phase_s: RefCell::new(0.0),
        };
        let start = Instant::now();
        let result = driver.runner().run_controlled(&protocol, k, None, &control);
        let end = Instant::now();
        tracer.record(cycle_span, "cycle", start, end, None, Some(k as u64), 0);
        let traced_s = end.duration_since(start).as_secs_f64();
        between.push(traced_s - *control.phase_s.borrow());
        traced_total += traced_s;
        match result {
            Ok((traced, traced_journal)) => {
                check_cycle(checks, k, dims, &traced, &traced_journal);
                let mut expected = outcome.report.clone();
                expected.planning = traced.report.planning;
                checks.check(
                    traced.report == expected
                        && traced.state.state_hash() == outcome.state.state_hash(),
                    || format!("assay cycle {k}: traced run differs from untraced run"),
                );
            }
            Err(stopped) => checks.check(false, || {
                format!("assay cycle {k}: traced run stopped: {:?}", stopped.cause)
            }),
        }
    });

    let first = first.expect("at least one cycle ran");
    let requested = first.requested.max(1) as f64;
    out.work_per_s = cycled as f64 / cycle_s;
    out.yield_frac = first.routed as f64 / requested;
    out.size("cells", f64::from(side * side));
    out.size("particles_asked", particles as f64);
    out.size("requested", first.requested as f64);
    out.fact("cycles", cycles as f64, "count", false);
    out.fact(
        "rayon_threads",
        rayon::current_num_threads() as f64,
        "count",
        false,
    );
    out.fact("cycle_s", median(&out.latencies_ms) / 1e3, "s", false);
    out.fact("chip_s", first.time.total().get(), "s", true);
    out.fact("routed_frac", out.yield_frac, "ratio", true);
    out.fact(
        "placement_err",
        first.true_mismatches_final as f64 / requested,
        "ratio",
        true,
    );
    out.fact("recovery_moves", first.recovery_moves as f64, "count", true);
    out.fact(
        "mismatches_initial",
        first.mismatches_initial as f64,
        "count",
        true,
    );
    out.fact("journal_events", first_journal_len as f64, "count", true);

    if tracer.enabled() {
        for (phase, metric) in PHASES {
            out.layer(metric, median(&tracer.durations(phase)));
        }
        out.layer("workload.between_phases_s", median(&between));
        out.layer("workload.recovery_moves", first.recovery_moves as f64);
        out.layer(
            "workload.mismatches_initial",
            first.mismatches_initial as f64,
        );
        out.layer("router.makespan_steps", first.makespan_steps as f64);
        out.layer("router.total_moves", first.total_moves as f64);
        out.layer("scan.error_rate", first.detection.error_rate());
        out.layer("journal.events", first_journal_len as f64);
        out.layer(
            "trace.overhead_pct",
            100.0 * (traced_total - cycle_s) / cycle_s,
        );
        probe_layers(&mut out, tracer, &config, dims, particles);
    }
    out
}

/// Probes of single layers at the workload's size, run after the timed
/// cycles.
fn probe_layers(
    out: &mut Outcome,
    tracer: &Tracer,
    config: &WorkloadConfig,
    dims: GridDims,
    particles: usize,
) {
    let problem = sort_problem(dims, particles, SEP, config.seed);
    let router = IncrementalRouter::new(config.shards);
    let (ambient, ambient_s) =
        tracer.time("probe.router.solve", None, None, || router.solve(&problem));
    let pinned = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("building a one-thread pool");
    let (single, single_s) = tracer.time("probe.router.solve_1t", None, None, || {
        pinned.install(|| router.solve(&problem))
    });
    out.checks.check(ambient.is_ok() && ambient == single, || {
        "assay probe: 1-thread solve differs from the ambient-pool solve".into()
    });
    out.layer("router.solve_s", ambient_s);
    out.layer("router.parallel_speedup", single_s / ambient_s);
    out.layer(
        "router.partition_s",
        partition_probe(tracer, &router, &problem),
    );

    let goals: Vec<_> = problem.requests.iter().map(|r| r.goal).collect();
    let truth = ChipState::occupancy_from_sites(dims, goals);
    let scanner = ArrayScanner::date05_reference(dims, config.noise_scale, config.seed);
    let scans: Vec<f64> = (0..3)
        .map(|pass| {
            tracer
                .time("probe.scan", None, None, || {
                    scanner.scan(&truth, config.detection_frames, pass)
                })
                .1
        })
        .collect();
    out.layer("scan.scan_s", median(&scans));
}

/// Median seconds of `IncrementalRouter::partition_build_probe` over the
/// problem's start positions.
pub fn partition_probe(
    tracer: &Tracer,
    router: &IncrementalRouter,
    problem: &labchip_manipulation::routing::RoutingProblem,
) -> f64 {
    let starts: Vec<_> = problem.requests.iter().map(|r| r.start).collect();
    let times: Vec<f64> = (0..50)
        .map(|_| {
            tracer
                .time("probe.router.partition", None, None, || {
                    std::hint::black_box(router.partition_build_probe(
                        problem.dims,
                        problem.min_separation,
                        &starts,
                    ))
                })
                .1
        })
        .collect();
    median(&times)
}
