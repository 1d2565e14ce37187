//! `farm_mix`: the multi-tenant job service under a closed loop. Four
//! tenants each keep one job outstanding on a two-worker `Farm` serving
//! the E15 protocol mix; every tenth job is killed at half its journal and
//! resumed from its checkpoint.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use labchip::scenario::{Progress, ProgressEvent};
use labchip::workload::{
    sort_problem, BatchDriver, ForceEnvelope, Protocol, RecoveryPolicy, WorkloadConfig,
};
use labchip_farm::farm::{Farm, FarmConfig};
use labchip_farm::job::{JobId, JobSpec, JobStatus};
use labchip_farm::scenario::protocol_mix;
use labchip_manipulation::journal::FaultPlan;
use labchip_manipulation::sharding::IncrementalRouter;
use labchip_manipulation::state::ChipState;
use labchip_sensing::array_scan::ArrayScanner;
use labchip_units::GridDims;

use crate::common::{median, quantile, repeat_setup, Outcome, Params, SplitMix};
use crate::trace::Tracer;

const SIDE: u32 = 64;
const PARTICLES: usize = 60;
const SEP: u32 = 2;
const TENANTS: usize = 4;
const WORKERS: usize = 2;
const MIN_JOBS: usize = 120;
const KILL_EVERY: usize = 10;
/// Distinct job definitions (protocol × seed) the tenants cycle through.
const DEFS: usize = 30;
/// Per-layer run-time metric of each protocol in `protocol_mix` order.
const RUN_MS: [&str; 3] = ["farm.run_ms.canned", "farm.run_ms.merge", "farm.run_ms.qc"];

/// One job definition with its uninterrupted `run_journaled` baseline.
struct JobDef {
    protocol: Protocol,
    kind: usize,
    seed: u64,
    hash: String,
    events: usize,
    requested: usize,
    misplaced: usize,
}

/// What the farm's progress stream told the generator, stamped where it
/// was emitted.
enum Seen {
    Started(JobId, Instant),
    Phase(JobId, Instant, String),
    Finished(JobId, Instant),
}

struct Sink(Mutex<Sender<Seen>>);

impl Progress for Sink {
    fn on_event(&self, event: &ProgressEvent) {
        let at = Instant::now();
        let seen = match event {
            ProgressEvent::ScenarioStarted { scenario } => {
                JobId::parse(scenario).map(|id| Seen::Started(id, at))
            }
            ProgressEvent::Row {
                scenario, summary, ..
            } => JobId::parse(scenario).map(|id| Seen::Phase(id, at, summary.clone())),
            ProgressEvent::ScenarioFinished { scenario, .. } => {
                JobId::parse(scenario).map(|id| Seen::Finished(id, at))
            }
            ProgressEvent::SimSteps { .. } => None,
        };
        if let Some(seen) = seen {
            // A closed receiver only means the generator is done.
            let _ = self.0.lock().expect("progress sender poisoned").send(seen);
        }
    }
}

struct Pending {
    seq: usize,
    def: usize,
    tenant: usize,
    submitted: Instant,
    span: u64,
    started: Option<Instant>,
    last_boundary: Option<Instant>,
}

fn workload_config(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        array_side: SIDE,
        min_separation: SEP,
        noise_scale: 8.0,
        detection_frames: 2,
        recovery: RecoveryPolicy::date05_reference(),
        seed,
        ..WorkloadConfig::default()
    }
}

fn job_defs(base_seed: u64) -> Vec<JobDef> {
    let dims = GridDims::square(SIDE);
    let mix = protocol_mix(dims, SEP, PARTICLES);
    let envelope = ForceEnvelope::date05_reference();
    let mut seeds = SplitMix::new(base_seed);
    (0..DEFS)
        .map(|index| {
            let kind = index % mix.len();
            let seed = seeds.next_u64();
            let driver = BatchDriver::with_envelope(workload_config(seed), envelope);
            let (outcome, journal) = driver.runner().run_journaled(&mix[kind], 0);
            JobDef {
                protocol: mix[kind].clone(),
                kind,
                seed,
                hash: format!("{:#018x}", outcome.state.state_hash()),
                events: journal.len(),
                requested: outcome.report.requested,
                misplaced: outcome.report.true_mismatches_final,
            }
        })
        .collect()
}

fn start_farm(base_seed: u64) -> (Farm, Receiver<Seen>) {
    let (tx, rx) = channel();
    let farm = Farm::with_progress(
        FarmConfig {
            workers: WORKERS,
            queue_depth: 64,
            planner_threads: 1,
            workload: workload_config(base_seed),
            start_paused: false,
            pause_on_fault: false,
        },
        Arc::new(Sink(Mutex::new(tx))),
    );
    (farm, rx)
}

pub fn run(params: &Params, tracer: &Tracer) -> Outcome {
    let min_jobs = if params.reduced { 12 } else { MIN_JOBS };
    let mut out = Outcome::default();
    let ((defs, (farm, rx)), setup) =
        repeat_setup(3, || (job_defs(params.seed), start_farm(params.seed)));
    out.setup_s = setup;

    let mut pending: HashMap<JobId, Pending> = HashMap::new();
    let mut next_seq = 0usize;
    let submit = |tenant: usize, next_seq: &mut usize, pending: &mut HashMap<JobId, Pending>| {
        let seq = *next_seq;
        *next_seq += 1;
        let def = seq % defs.len();
        let mut spec = JobSpec::tenant(format!("tenant-{tenant}")).with_seed(defs[def].seed);
        if seq % KILL_EVERY == KILL_EVERY - 1 {
            spec = spec.with_fault(FaultPlan::after((defs[def].events as u64 / 2).max(1)));
        }
        let submitted = Instant::now();
        let id = farm
            .submit(defs[def].protocol.clone(), spec)
            .expect("a closed loop never fills the queue");
        pending.insert(
            id,
            Pending {
                seq,
                def,
                tenant,
                submitted,
                span: tracer.next_id(),
                started: None,
                last_boundary: None,
            },
        );
    };

    let start = Instant::now();
    for tenant in 0..TENANTS {
        submit(tenant, &mut next_seq, &mut pending);
    }
    let (mut queue_ms, mut settle_ms, mut journal_events) = (Vec::new(), Vec::new(), Vec::new());
    let mut run_ms: [Vec<f64>; 3] = Default::default();
    let (mut busy_ms, mut resumes, mut completed) = (0.0, 0usize, 0usize);
    let mut last_done = start;
    while !pending.is_empty() {
        let Ok(seen) = rx.recv_timeout(Duration::from_secs(60)) else {
            out.checks
                .check(false, || "farm: no job finished within 60 s".into());
            break;
        };
        match seen {
            Seen::Started(id, at) => {
                if let Some(job) = pending.get_mut(&id) {
                    job.started.get_or_insert(at);
                    job.last_boundary = Some(at);
                }
            }
            Seen::Phase(id, at, phase) => {
                if let Some(job) = pending.get_mut(&id) {
                    let from = job.last_boundary.unwrap_or(job.submitted);
                    let lane = job.tenant as u64;
                    tracer.record(
                        tracer.next_id(),
                        &phase,
                        from,
                        at,
                        Some(job.span),
                        Some(job.seq as u64),
                        lane,
                    );
                    job.last_boundary = Some(at);
                }
            }
            Seen::Finished(id, finished) => {
                let observed = Instant::now();
                let Some(job) = pending.remove(&id) else {
                    continue;
                };
                last_done = observed;
                completed += 1;
                let latency_ms = observed.duration_since(job.submitted).as_secs_f64() * 1e3;
                out.latencies_ms.push(latency_ms);
                let def = &defs[job.def];
                let record = farm.record(id);
                out.checks.check(
                    record.as_ref().is_some_and(|r| {
                        r.status == JobStatus::Done && r.state_hash.as_deref() == Some(&def.hash)
                    }),
                    || {
                        format!(
                            "farm job {id}: {record:?} differs from baseline {}",
                            def.hash
                        )
                    },
                );
                if let Some(record) = record {
                    queue_ms.push(record.queue_ms);
                    run_ms[def.kind].push(record.run_ms);
                    settle_ms.push(latency_ms - record.queue_ms - record.run_ms);
                    journal_events.push(record.journal_events as f64);
                    busy_ms += record.run_ms;
                    resumes += record.resumes;
                }
                let lane = job.tenant as u64;
                let op = Some(job.seq as u64);
                if let Some(started) = job.started {
                    tracer.record(
                        tracer.next_id(),
                        "queue",
                        job.submitted,
                        started,
                        Some(job.span),
                        op,
                        lane,
                    );
                    tracer.record(
                        tracer.next_id(),
                        "run",
                        started,
                        finished,
                        Some(job.span),
                        op,
                        lane,
                    );
                }
                tracer.record(
                    tracer.next_id(),
                    "settle",
                    finished,
                    observed,
                    Some(job.span),
                    op,
                    lane,
                );
                tracer.record(job.span, "job", job.submitted, observed, None, op, lane);
                if completed + pending.len() < min_jobs || start.elapsed() < params.deadline() {
                    submit(job.tenant, &mut next_seq, &mut pending);
                }
            }
        }
    }
    let wall_s = last_done.duration_since(start).as_secs_f64();
    farm.shutdown();

    let requested: usize = defs.iter().map(|d| d.requested).sum();
    let misplaced: usize = defs.iter().map(|d| d.misplaced).sum();
    out.work_per_s = completed as f64 / wall_s;
    out.yield_frac = 1.0 - misplaced as f64 / requested.max(1) as f64;
    out.size("cells", f64::from(SIDE * SIDE));
    out.size("particles_per_job", PARTICLES as f64);
    out.size("tenants", TENANTS as f64);
    out.size("workers", WORKERS as f64);
    out.size("planner_threads", 1.0);
    out.size("job_definitions", defs.len() as f64);
    out.fact("jobs", completed as f64, "count", false);
    out.fact(
        "killed_jobs",
        (next_seq / KILL_EVERY) as f64,
        "count",
        false,
    );
    out.fact("jobs_per_s", out.work_per_s, "1/s", false);
    out.fact("job_ms_p50", median(&out.latencies_ms), "ms", false);
    out.fact("job_ms_p90", quantile(&out.latencies_ms, 0.9), "ms", false);
    out.fact("placed_frac", out.yield_frac, "ratio", true);
    out.fact(
        "baseline_events_total",
        defs.iter().map(|d| d.events).sum::<usize>() as f64,
        "count",
        true,
    );

    if tracer.enabled() {
        out.recorder_overhead(tracer);
        out.layer("farm.queue_ms_p50", median(&queue_ms));
        out.layer("farm.queue_ms_p90", quantile(&queue_ms, 0.9));
        for (metric, times) in RUN_MS.iter().zip(&run_ms) {
            out.layer(metric, median(times));
        }
        out.layer(
            "farm.worker_busy",
            busy_ms / (WORKERS as f64 * wall_s * 1e3),
        );
        out.layer("farm.settle_ms_p50", median(&settle_ms));
        out.layer("farm.resumes", resumes as f64);
        out.layer("journal.events", median(&journal_events));
        probe_layers(&mut out, tracer, params.seed);
    }
    out
}

/// Router and scanner probes at the jobs' size, after the timed loop.
fn probe_layers(out: &mut Outcome, tracer: &Tracer, seed: u64) {
    let dims = GridDims::square(SIDE);
    let config = workload_config(seed);
    let problem = sort_problem(dims, PARTICLES, SEP, seed);
    let router = IncrementalRouter::new(config.shards);
    let solves: Vec<f64> = (0..5)
        .map(|_| {
            tracer
                .time("probe.router.solve", None, None, || router.solve(&problem))
                .1
        })
        .collect();
    out.layer("router.solve_s", median(&solves));

    let goals: Vec<_> = problem.requests.iter().map(|r| r.goal).collect();
    let truth = ChipState::occupancy_from_sites(dims, goals);
    let scanner = ArrayScanner::date05_reference(dims, config.noise_scale, seed);
    let scans: Vec<f64> = (0..20)
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
