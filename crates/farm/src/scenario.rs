//! E15 — chip-farm fleet benchmark: multi-tenant throughput, job-control
//! latency and kill-recovery of the [`Farm`].
//!
//! The scenario drives a heterogeneous protocol mix (the canned sort
//! cycle, the E13 two-population merge, and a sense-heavy QC protocol)
//! across several tenants, then sweeps the worker-fleet size:
//!
//! 1. compute each job's *uninterrupted baseline* (final state hash +
//!    journal event count) with a plain journaled run;
//! 2. for every worker count in the sweep: build a paused farm, submit
//!    every tenant's jobs, cancel a deterministic subset before start,
//!    arm injected mid-run kills on another subset, then start the fleet
//!    and drain it — measuring wall clock, jobs/sec and latency
//!    percentiles from the job records;
//! 3. oracle: every completed job (killed-and-resumed or not) must land
//!    exactly on its baseline state hash with the baseline journal length
//!    — any miss counts as a divergence and **must be zero** (CI asserts
//!    it);
//! 4. a deliberately tiny queue measures explicit [`QueueFull`]
//!    backpressure.
//!
//! Jobs/sec scaling with workers is bounded by the protocol mix's
//! planning cost; the point of the sweep is the measured curve, not a
//! scaling claim.
//!
//! [`QueueFull`]: crate::queue::QueueFull

use labchip::experiments::{e13_protocols, ExperimentTable};
use labchip::scenario::{Limit, Scenario, ScenarioContext, ScenarioRegistry};
use labchip::workload::{
    BatchDriver, PhaseSpec, Protocol, RecoveryPolicy, RouteTarget, WorkloadConfig,
};
use labchip_manipulation::journal::FaultPlan;
use labchip_units::{GridDims, Seconds};
use serde::{Deserialize, Serialize};

use crate::farm::{Farm, FarmConfig};
use crate::job::{HistoryFilter, JobId, JobSpec, JobStatus, SubmitError};

/// The complete scenario registry, E1 through E16.
///
/// Core's [`ScenarioRegistry::all`] stops at E14 because the farm crate
/// sits *above* `labchip` in the dependency order — E15 exercises the
/// farm service and E16 the sharded fleet, so they register here.
/// Binaries and tests that want every scenario (the `report` CLI, the
/// smoke suites) call this instead of `ScenarioRegistry::all()`.
pub fn full_registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::all();
    registry.register(FarmScenario);
    registry.register(crate::fleet_scenario::FleetScenario);
    registry
}

/// Configuration of the fleet benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Array side (electrodes).
    pub array_side: u32,
    /// Particles loaded per protocol.
    pub particles: usize,
    /// Tenants submitting jobs (`tenant-0` …).
    pub tenants: usize,
    /// Jobs each tenant submits per fleet run.
    pub jobs_per_tenant: usize,
    /// Worker-fleet sizes swept.
    pub worker_counts: Vec<usize>,
    /// Queue bound of the benchmark farms.
    pub queue_depth: usize,
    /// Jobs (per fleet run) armed with a mid-run kill point, to measure
    /// checkpoint-resume recovery under fleet scheduling.
    pub kill_jobs: usize,
    /// Jobs (per fleet run) cancelled before the fleet starts.
    pub cancel_jobs: usize,
    /// Minimum cage separation.
    pub min_separation: u32,
    /// Cage-step period.
    pub step_period: Seconds,
    /// Sensor frames averaged per detection scan.
    pub detection_frames: u32,
    /// Scale applied to every sensor noise term.
    pub noise_scale: f64,
    /// Closed-loop recovery policy.
    pub recovery: RecoveryPolicy,
    /// Fluidic handling time per batch load.
    pub load_time: Seconds,
    /// Fluidic handling time per batch flush.
    pub flush_time: Seconds,
    /// Rayon planner threads per worker (0 = ambient pool).
    pub planner_threads: usize,
    /// Base RNG seed; job `k` runs under `seed + k`.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            array_side: 32,
            particles: 24,
            tenants: 3,
            jobs_per_tenant: 3,
            worker_counts: vec![1, 2, 4, 8],
            queue_depth: 64,
            kill_jobs: 2,
            cancel_jobs: 1,
            min_separation: 2,
            step_period: Seconds::new(0.4),
            detection_frames: 2,
            noise_scale: 8.0,
            recovery: RecoveryPolicy::date05_reference(),
            load_time: Seconds::from_minutes(1.0),
            flush_time: Seconds::from_minutes(0.5),
            planner_threads: 1,
            seed: 1505,
        }
    }
}

/// The heterogeneous protocol mix the tenants submit, cycled by job
/// index: the canned sort cycle, the E13 two-population merge, and a
/// sense-heavy QC protocol (double scan around a hold).
pub fn protocol_mix(dims: GridDims, min_separation: u32, particles: usize) -> Vec<Protocol> {
    let qc = Protocol::new("sense-heavy-qc")
        .with_phase(PhaseSpec::Load {
            particles,
            capacity_clamp: None,
        })
        .with_phase(PhaseSpec::Sense { frames: None })
        .with_phase(PhaseSpec::Route {
            target: RouteTarget::Hold,
        })
        .with_phase(PhaseSpec::Sense { frames: Some(4) })
        .with_phase(PhaseSpec::Flush);
    vec![
        Protocol::canned_cycle(dims, min_separation, particles),
        e13_protocols::default_protocol(particles),
        qc,
    ]
}

/// One fleet-size sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetRow {
    /// Worker threads in the fleet.
    pub workers: usize,
    /// Jobs submitted.
    pub submitted: usize,
    /// Jobs that ran to `Done`.
    pub completed: usize,
    /// Jobs cancelled before start.
    pub cancelled: usize,
    /// Jobs armed with a mid-run kill.
    pub killed: usize,
    /// Killed jobs that resumed from their checkpoint to the baseline
    /// state hash.
    pub recovered: usize,
    /// Wall clock from fleet start to drain, milliseconds.
    pub wall_ms: f64,
    /// Completed jobs per wall-clock second.
    pub jobs_per_sec: f64,
    /// Median submit-to-done latency over completed jobs, milliseconds.
    pub latency_p50_ms: f64,
    /// 99th-percentile latency over completed jobs, milliseconds.
    pub latency_p99_ms: f64,
    /// Completed jobs whose final hash or journal length missed their
    /// uninterrupted baseline — must be zero.
    pub divergences: usize,
}

/// Result of the farm fleet benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    /// Distinct job definitions (tenant × per-tenant index) per fleet run.
    pub jobs_per_fleet: usize,
    /// Protocols in the mix.
    pub protocols: Vec<String>,
    /// One row per swept worker count.
    pub fleet: Vec<FleetRow>,
    /// Submissions the deliberately tiny queue rejected with `QueueFull`.
    pub queue_full_rejections: usize,
    /// Divergences summed over the sweep — must be zero.
    pub total_divergences: usize,
}

impl Results {
    /// Fraction of killed jobs (across the sweep) that recovered to the
    /// baseline hash.
    pub fn recovery_rate(&self) -> f64 {
        let killed: usize = self.fleet.iter().map(|row| row.killed).sum();
        if killed == 0 {
            return 1.0;
        }
        let recovered: usize = self.fleet.iter().map(|row| row.recovered).sum();
        recovered as f64 / killed as f64
    }

    /// Renders the sweep as a report table.
    pub fn to_table(&self) -> ExperimentTable {
        let mut rows: Vec<Vec<String>> = self
            .fleet
            .iter()
            .map(|row| {
                vec![
                    row.workers.to_string(),
                    format!("{:.1}", row.jobs_per_sec),
                    format!("{:.1}", row.latency_p50_ms),
                    format!("{:.1}", row.latency_p99_ms),
                    row.divergences.to_string(),
                    format!(
                        "{}/{} done, {} cancelled, {}/{} kills recovered in {:.0} ms",
                        row.completed,
                        row.submitted,
                        row.cancelled,
                        row.recovered,
                        row.killed,
                        row.wall_ms
                    ),
                ]
            })
            .collect();
        rows.push(vec![
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            self.total_divergences.to_string(),
            format!(
                "{} jobs/fleet over {{{}}}, recovery rate {:.2}, {} queue-full rejections",
                self.jobs_per_fleet,
                self.protocols.join(", "),
                self.recovery_rate(),
                self.queue_full_rejections
            ),
        ]);
        ExperimentTable::new(
            "E15",
            "Chip farm: multi-tenant fleet throughput, cancellation and kill recovery",
            vec![
                "workers".into(),
                "jobs/s".into(),
                "p50 ms".into(),
                "p99 ms".into(),
                "divergences".into(),
                "detail".into(),
            ],
            rows,
        )
    }
}

impl From<Results> for ExperimentTable {
    fn from(results: Results) -> Self {
        results.to_table()
    }
}

/// One job definition, fixed across the whole worker-count sweep so the
/// fleet rows compare identical workloads.
struct JobDef {
    tenant: String,
    protocol: Protocol,
    seed: u64,
    /// Uninterrupted-baseline final state hash.
    baseline_hash: String,
    /// Uninterrupted-baseline journal length.
    baseline_events: usize,
    /// Mid-run kill point armed for this job (at half its baseline
    /// journal), when the job is in the killed subset.
    kill: Option<FaultPlan>,
    /// Whether the job is cancelled before the fleet starts.
    cancel: bool,
}

fn percentile(sorted: &[f64], fraction: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let position = (fraction * (sorted.len() - 1) as f64).round() as usize;
    sorted[position.min(sorted.len() - 1)]
}

fn run_with(config: &Config, ctx: &mut ScenarioContext) -> Results {
    let workload = WorkloadConfig {
        array_side: config.array_side,
        min_separation: config.min_separation,
        step_period: config.step_period,
        detection_frames: config.detection_frames,
        noise_scale: config.noise_scale,
        recovery: config.recovery,
        load_time: config.load_time,
        flush_time: config.flush_time,
        seed: config.seed,
        ..WorkloadConfig::default()
    };
    let dims = GridDims::square(workload.array_side);
    let sep = workload.min_separation.max(1);
    let mix = protocol_mix(dims, sep, config.particles);
    let tenants = config.tenants.max(1);
    let per_tenant = config.jobs_per_tenant.max(1);
    let total = tenants * per_tenant;

    // Fixed job definitions with their uninterrupted baselines: the
    // oracle every fleet run must reproduce. Cancelled jobs are drawn
    // from the tail, killed jobs from the head, and the two subsets never
    // overlap (a cancelled job never runs, so a kill on it would be
    // unobservable).
    let cancel_from = total - config.cancel_jobs.min(total);
    let defs: Vec<JobDef> = (0..total)
        .map(|index| {
            let protocol = mix[index % mix.len()].clone();
            let seed = config.seed + index as u64;
            let mut job_config = workload;
            job_config.seed = seed;
            let driver = BatchDriver::new(job_config);
            let (outcome, journal) = driver.run_journaled(&protocol, 0);
            let cancel = index >= cancel_from;
            JobDef {
                tenant: format!("tenant-{}", index / per_tenant),
                protocol,
                seed,
                baseline_hash: format!("{:#018x}", outcome.state.state_hash()),
                baseline_events: journal.len(),
                kill: (!cancel && index < config.kill_jobs)
                    .then(|| FaultPlan::after((journal.len() as u64 / 2).max(1))),
                cancel,
            }
        })
        .collect();
    ctx.emit_row(format!(
        "{} job definitions across {} tenants ({} baselines computed)",
        total,
        tenants,
        defs.len()
    ));

    let mut fleet = Vec::new();
    let mut total_divergences = 0usize;
    for &workers in &config.worker_counts {
        let farm = Farm::new(FarmConfig {
            workers: workers.max(1),
            queue_depth: config.queue_depth.max(total),
            planner_threads: config.planner_threads,
            workload,
            start_paused: true,
            pause_on_fault: false,
        });
        let ids: Vec<JobId> = defs
            .iter()
            .map(|def| {
                let mut spec = JobSpec::tenant(&def.tenant).with_seed(def.seed);
                if let Some(kill) = def.kill {
                    spec = spec.with_fault(kill);
                }
                farm.submit(def.protocol.clone(), spec)
                    .expect("benchmark queue is sized to hold every job")
            })
            .collect();
        for (id, def) in ids.iter().zip(&defs) {
            if def.cancel {
                assert!(farm.cancel(*id), "cancelling a queued job succeeds");
            }
        }
        let started = std::time::Instant::now();
        farm.start();
        farm.wait_idle();
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;

        let mut completed = 0usize;
        let mut cancelled = 0usize;
        let mut killed = 0usize;
        let mut recovered = 0usize;
        let mut divergences = 0usize;
        let mut latencies = Vec::new();
        for (id, def) in ids.iter().zip(&defs) {
            let record = farm.record(*id).expect("submitted jobs have records");
            match record.status {
                JobStatus::Done => {
                    completed += 1;
                    latencies.push(record.latency_ms());
                    let on_baseline = record.state_hash.as_deref()
                        == Some(def.baseline_hash.as_str())
                        && record.journal_events == def.baseline_events;
                    if !on_baseline {
                        divergences += 1;
                        ctx.emit_row(format!(
                            "DIVERGENCE: {} ({}) missed its baseline ({:?} vs {}, {} vs {} events)",
                            record.id,
                            record.protocol.name,
                            record.state_hash,
                            def.baseline_hash,
                            record.journal_events,
                            def.baseline_events
                        ));
                    }
                    if def.kill.is_some() {
                        killed += 1;
                        if record.resumes >= 1 && on_baseline {
                            recovered += 1;
                        }
                    }
                }
                JobStatus::Cancelled => cancelled += 1,
                ref status => {
                    divergences += 1;
                    ctx.emit_row(format!(
                        "DIVERGENCE: {} ended {} ({})",
                        record.id,
                        status.label(),
                        record.detail
                    ));
                }
            }
        }
        total_divergences += divergences;
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let row = FleetRow {
            workers,
            submitted: ids.len(),
            completed,
            cancelled,
            killed,
            recovered,
            wall_ms,
            jobs_per_sec: if wall_ms > 0.0 {
                completed as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            latency_p50_ms: percentile(&latencies, 0.50),
            latency_p99_ms: percentile(&latencies, 0.99),
            divergences,
        };
        ctx.emit_row(format!(
            "workers {}: {:.1} jobs/s, p50 {:.1} ms, p99 {:.1} ms, {}/{} kills recovered, {} divergences",
            row.workers,
            row.jobs_per_sec,
            row.latency_p50_ms,
            row.latency_p99_ms,
            row.recovered,
            row.killed,
            row.divergences
        ));
        fleet.push(row);
        // History sanity under load: every record is terminal and visible.
        let records = farm.history(&HistoryFilter::terminal(), 0);
        assert_eq!(
            records.len(),
            ids.len(),
            "every job reached a terminal state"
        );
        farm.shutdown();
    }

    // Backpressure: a deliberately tiny queue must reject the overflow
    // explicitly rather than grow or block.
    let tiny = Farm::new(FarmConfig {
        workers: 1,
        queue_depth: 2,
        planner_threads: config.planner_threads,
        workload,
        start_paused: true,
        pause_on_fault: false,
    });
    let mut queue_full_rejections = 0usize;
    for def in defs.iter().take(4) {
        match tiny.submit(def.protocol.clone(), JobSpec::tenant(&def.tenant)) {
            Ok(_) => {}
            Err(SubmitError::Rejected(_)) => queue_full_rejections += 1,
            Err(error) => panic!("unexpected submit error: {error}"),
        }
    }
    tiny.start();
    tiny.wait_idle();
    tiny.shutdown();
    ctx.emit_row(format!(
        "queue depth 2: {queue_full_rejections} of 4 submissions rejected with QueueFull"
    ));

    Results {
        jobs_per_fleet: total,
        protocols: mix.iter().map(|protocol| protocol.name.clone()).collect(),
        fleet,
        queue_full_rejections,
        total_divergences,
    }
}

/// The farm fleet benchmark as a first-class engine scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct FarmScenario;

impl Scenario for FarmScenario {
    type Config = Config;
    type Output = Results;

    fn id(&self) -> &'static str {
        "E15"
    }

    fn describe(&self) -> &'static str {
        "Chip farm: multi-tenant fleet throughput, cancellation and kill recovery"
    }

    /// Every farm worker is an OS thread, and so is every planner thread.
    fn check_limits(&self, config: &Config) -> Result<(), Limit> {
        for &workers in &config.worker_counts {
            Limit::threads("worker_counts", workers)?;
        }
        Limit::threads("planner_threads", config.planner_threads)
    }

    fn run(&self, config: &Config, ctx: &mut ScenarioContext) -> Results {
        run_with(config, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> Config {
        Config {
            array_side: 24,
            particles: 12,
            tenants: 2,
            jobs_per_tenant: 2,
            worker_counts: vec![1, 2],
            kill_jobs: 1,
            cancel_jobs: 1,
            ..Config::default()
        }
    }

    #[test]
    fn fleet_sweep_completes_recovers_and_never_diverges() {
        let config = quick_config();
        let results = run_with(&config, &mut ScenarioContext::silent("E15"));
        assert_eq!(results.jobs_per_fleet, 4);
        assert_eq!(results.fleet.len(), 2);
        assert_eq!(results.total_divergences, 0, "{results:?}");
        assert!(results.queue_full_rejections >= 1);
        for row in &results.fleet {
            assert_eq!(row.completed, 3, "{row:?}");
            assert_eq!(row.cancelled, 1);
            assert_eq!(row.killed, 1);
            assert_eq!(row.recovered, 1, "{row:?}");
            assert!(row.jobs_per_sec > 0.0);
            assert!(row.latency_p99_ms >= row.latency_p50_ms);
        }
        assert!((results.recovery_rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn thread_counts_past_the_cap_are_rejected_before_a_farm_is_built() {
        // Only `check_value` is called: nothing here builds a farm or a
        // pool, whatever the count.
        use labchip::scenario::{ScenarioError, MAX_THREADS};
        let registry = full_registry();
        let e15 = registry.get("E15").unwrap();
        let cases = |n: usize| {
            [
                (
                    "worker_counts",
                    Config {
                        worker_counts: vec![1, n],
                        ..Config::default()
                    },
                ),
                (
                    "planner_threads",
                    Config {
                        planner_threads: n,
                        ..Config::default()
                    },
                ),
            ]
            .map(|(field, config)| (field, serde_json::to_value(&config)))
        };
        for (_, config) in cases(MAX_THREADS) {
            assert_eq!(e15.check_value(&config), Ok(()));
        }
        for n in [MAX_THREADS + 1, usize::MAX] {
            for (field, config) in cases(n) {
                let err = e15.check_value(&config).unwrap_err();
                assert_eq!(
                    err,
                    ScenarioError::OverLimit {
                        scenario: "E15".to_owned(),
                        limit: Limit {
                            field,
                            value: n,
                            max: MAX_THREADS,
                        },
                    }
                );
                assert!(err.to_string().contains(field), "{err}");
            }
        }
    }

    #[test]
    fn full_registry_extends_core_with_e15_and_e16() {
        let registry = full_registry();
        assert_eq!(registry.len(), ScenarioRegistry::all().len() + 2);
        assert!(registry.get("E15").is_some());
        assert!(registry.get("E16").is_some());
        assert!(registry.get("e16").is_some(), "lookup is case-insensitive");
    }

    #[test]
    fn results_render_as_a_table() {
        let results = Results {
            jobs_per_fleet: 4,
            protocols: vec!["canned-cycle".into()],
            fleet: vec![FleetRow {
                workers: 2,
                submitted: 4,
                completed: 3,
                cancelled: 1,
                killed: 1,
                recovered: 1,
                wall_ms: 100.0,
                jobs_per_sec: 30.0,
                latency_p50_ms: 40.0,
                latency_p99_ms: 90.0,
                divergences: 0,
            }],
            queue_full_rejections: 2,
            total_divergences: 0,
        };
        let table = results.to_table();
        assert_eq!(table.id, "E15");
        assert_eq!(table.rows.len(), 2);
        let json = serde_json::to_string(&results);
        let back: Results = serde_json::from_str(&json).expect("results round trip");
        assert_eq!(back, results);
    }
}
