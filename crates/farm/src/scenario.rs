//! E15 — chip-farm fleet benchmark: multi-tenant scheduling, cancellation
//! and kill-recovery of the [`Farm`].
//!
//! The scenario drives a heterogeneous protocol mix (the canned sort
//! cycle, the E13 two-population merge, and a sense-heavy QC protocol)
//! across several tenants, then sweeps the worker-fleet size:
//!
//! 1. compute each job's *uninterrupted baseline* (final state hash +
//!    journal event count) with a plain journaled run ([`Baseline::run`]);
//! 2. for every worker count in the sweep: build a paused farm, submit
//!    every tenant's jobs, cancel a deterministic subset before start and
//!    arm injected mid-run kills on another subset ([`Baseline::point`]),
//!    then start the fleet, drain it and tally the job records;
//! 3. oracle: every completed job (killed-and-resumed or not) must land
//!    exactly on its baseline state hash with the baseline journal length
//!    — any miss counts as a divergence and **must be zero** (CI asserts
//!    it);
//! 4. a deliberately tiny queue measures explicit [`QueueFull`]
//!    backpressure.
//!
//! Every figure is a pure function of `(config, seed)`. The fleet's wall
//! clock, jobs/sec and latency percentiles are rows of `report
//! bench-workload`, timed around [`SweepPoint::drain`].
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
use crate::job::{HistoryFilter, JobId, JobRecord, JobSpec, JobStatus, SubmitError};

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
                    row.divergences.to_string(),
                    format!(
                        "{}/{} done, {} cancelled, {}/{} kills recovered",
                        row.completed, row.submitted, row.cancelled, row.recovered, row.killed
                    ),
                ]
            })
            .collect();
        rows.push(vec![
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
            vec!["workers".into(), "divergences".into(), "detail".into()],
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
#[derive(Debug)]
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

/// The job definitions a sweep submits at every worker count, each with
/// its uninterrupted baseline.
#[derive(Debug)]
pub struct Baseline {
    workload: WorkloadConfig,
    queue_depth: usize,
    planner_threads: usize,
    protocols: Vec<String>,
    defs: Vec<JobDef>,
}

impl Baseline {
    /// Runs every job definition of `config` once, journaled and
    /// uninterrupted.
    pub fn run(config: &Config) -> Self {
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
        let per_tenant = config.jobs_per_tenant.max(1);
        let total = config.tenants.max(1) * per_tenant;

        // Cancelled jobs are drawn from the tail, killed jobs from the
        // head, and the two subsets never overlap (a cancelled job never
        // runs, so a kill on it would be unobservable).
        let cancel_from = total - config.cancel_jobs.min(total);
        let defs = (0..total)
            .map(|index| {
                let protocol = mix[index % mix.len()].clone();
                let seed = config.seed + index as u64;
                let driver = BatchDriver::new(WorkloadConfig { seed, ..workload });
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
        Self {
            workload,
            queue_depth: config.queue_depth.max(total),
            planner_threads: config.planner_threads,
            protocols: mix.iter().map(|protocol| protocol.name.clone()).collect(),
            defs,
        }
    }

    /// A paused farm of `workers` workers holding every job, with the
    /// cancelled subset already cancelled and the killed subset armed.
    pub fn point(&self, workers: usize) -> SweepPoint<'_> {
        let farm = self.farm(workers.max(1), self.queue_depth);
        let ids = self
            .defs
            .iter()
            .map(|def| {
                let mut spec = JobSpec::tenant(&def.tenant).with_seed(def.seed);
                if let Some(kill) = def.kill {
                    spec = spec.with_fault(kill);
                }
                let id = farm
                    .submit(def.protocol.clone(), spec)
                    .expect("benchmark queue is sized to hold every job");
                if def.cancel {
                    assert!(farm.cancel(id), "cancelling a queued job succeeds");
                }
                id
            })
            .collect();
        SweepPoint {
            baseline: self,
            workers,
            farm,
            ids,
        }
    }

    /// A paused farm running the baseline's workload.
    fn farm(&self, workers: usize, queue_depth: usize) -> Farm {
        Farm::new(FarmConfig {
            workers,
            queue_depth,
            planner_threads: self.planner_threads,
            workload: self.workload,
            start_paused: true,
            pause_on_fault: false,
        })
    }
}

/// One sweep point: a paused farm holding every job of a [`Baseline`].
pub struct SweepPoint<'a> {
    baseline: &'a Baseline,
    workers: usize,
    /// The farm; it runs nothing until [`SweepPoint::drain`].
    pub farm: Farm,
    ids: Vec<JobId>,
}

impl SweepPoint<'_> {
    /// Starts the farm and waits until every job is terminal.
    pub fn drain(&self) {
        self.farm.start();
        self.farm.wait_idle();
    }

    /// The current record of every submitted job, in submission order.
    pub fn records(&self) -> Vec<JobRecord> {
        self.ids
            .iter()
            .map(|&id| self.farm.record(id).expect("submitted jobs have records"))
            .collect()
    }

    /// Tallies the drained farm's records against the baselines, emitting
    /// one progress row per divergence.
    pub fn tally(&self, ctx: &mut ScenarioContext) -> FleetRow {
        let mut row = FleetRow {
            workers: self.workers,
            submitted: self.ids.len(),
            completed: 0,
            cancelled: 0,
            killed: 0,
            recovered: 0,
            divergences: 0,
        };
        for (record, def) in self.records().iter().zip(&self.baseline.defs) {
            match record.status {
                JobStatus::Done => {
                    row.completed += 1;
                    let on_baseline = record.state_hash.as_deref()
                        == Some(def.baseline_hash.as_str())
                        && record.journal_events == def.baseline_events;
                    if !on_baseline {
                        row.divergences += 1;
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
                        row.killed += 1;
                        if record.resumes >= 1 && on_baseline {
                            row.recovered += 1;
                        }
                    }
                }
                JobStatus::Cancelled => row.cancelled += 1,
                ref status => {
                    row.divergences += 1;
                    ctx.emit_row(format!(
                        "DIVERGENCE: {} ended {} ({})",
                        record.id,
                        status.label(),
                        record.detail
                    ));
                }
            }
        }
        row
    }
}

fn run_with(config: &Config, ctx: &mut ScenarioContext) -> Results {
    let baseline = Baseline::run(config);
    let total = baseline.defs.len();
    ctx.emit_row(format!(
        "{} job definitions across {} tenants ({} baselines computed)",
        total,
        config.tenants.max(1),
        total
    ));

    let mut fleet = Vec::new();
    for &workers in &config.worker_counts {
        let point = baseline.point(workers);
        point.drain();
        let row = point.tally(ctx);
        ctx.emit_row(format!(
            "workers {}: {}/{} done, {}/{} kills recovered, {} divergences",
            row.workers, row.completed, row.submitted, row.recovered, row.killed, row.divergences
        ));
        // History sanity under load: every record is terminal and visible.
        let records = point.farm.history(&HistoryFilter::terminal(), 0);
        assert_eq!(records.len(), total, "every job reached a terminal state");
        fleet.push(row);
    }

    // Backpressure: a deliberately tiny queue must reject the overflow
    // explicitly rather than grow or block.
    let tiny = baseline.farm(1, 2);
    let mut queue_full_rejections = 0usize;
    for def in baseline.defs.iter().take(4) {
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
        protocols: baseline.protocols.clone(),
        total_divergences: fleet.iter().map(|row| row.divergences).sum(),
        fleet,
        queue_full_rejections,
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
        Limit::array_side(config.array_side)?;
        for &workers in &config.worker_counts {
            Limit::threads("worker_counts", workers)?;
        }
        Limit::threads("planner_threads", config.planner_threads)?;
        Limit::scans(config.detection_frames, &config.recovery)
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
        }
        assert!((results.recovery_rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn the_same_config_and_seed_give_the_same_results() {
        let config = quick_config();
        let run = || {
            let results = run_with(&config, &mut ScenarioContext::silent("E15"));
            serde_json::to_string(&results)
        };
        assert_eq!(run(), run());
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
    fn array_sides_past_the_bound_are_rejected_before_anything_runs() {
        // Only `check_value` is called: no array of any side is built.
        use labchip::scenario::{ScenarioError, MAX_ARRAY_SIDE};
        let registry = full_registry();
        let ids = [
            "E2", "E3", "E7", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16",
        ];
        for id in ids {
            let scenario = registry.get(id).unwrap();
            let with_side = |side: u32| {
                let mut config = scenario.default_config();
                let map = config.as_object_mut().expect("configs are objects");
                assert!(map.contains_key("array_side"), "{id} has an array side");
                map.insert("array_side", serde_json::to_value(&side));
                config
            };
            assert_eq!(scenario.check_value(&with_side(MAX_ARRAY_SIDE)), Ok(()));
            for side in [MAX_ARRAY_SIDE + 1, u32::MAX] {
                let err = scenario.check_value(&with_side(side)).unwrap_err();
                assert_eq!(
                    err,
                    ScenarioError::OverLimit {
                        scenario: id.to_owned(),
                        limit: Limit {
                            field: "array_side",
                            value: side as usize,
                            max: 4096,
                        },
                    }
                );
            }
        }
    }

    #[test]
    fn frame_counts_past_the_bound_are_rejected_before_anything_runs() {
        // Only `check_value` is called: no scan averages any of these
        // counts.
        use labchip::scenario::{ScenarioError, MAX_FRAMES};
        use serde_json::Value;
        let registry = full_registry();
        let check = |id: &str, fields: Vec<(&str, Value)>| {
            let scenario = registry.get(id).unwrap();
            let mut config = scenario.default_config();
            let map = config.as_object_mut().expect("configs are objects");
            for (field, value) in fields {
                assert!(map.contains_key(field), "{id} has `{field}`");
                map.insert(field, value);
            }
            scenario.check_value(&config)
        };
        let over = |id: &str, field: &'static str, value: u64| {
            Err(ScenarioError::OverLimit {
                scenario: id.to_owned(),
                limit: Limit {
                    field,
                    value: value as usize,
                    max: 4096,
                },
            })
        };
        let frames = |n: u64| serde_json::to_value(&n);
        let max = u64::from(MAX_FRAMES);
        let huge = u64::from(u32::MAX);

        // Every detection scan. With no re-scan, the bound itself passes.
        for id in ["E9", "E11"] {
            assert_eq!(check(id, vec![("detection_frames", frames(max))]), Ok(()));
        }
        for id in ["E9", "E11", "E13", "E14", "E15", "E16"] {
            for n in [max + 1, huge] {
                let err = check(id, vec![("detection_frames", frames(n))]);
                assert_eq!(err, over(id, "detection_frames", n));
            }
        }

        // A recovery re-scan averages `detection_frames × rescan_factor`.
        let recovery = |rescan_factor: u32| {
            serde_json::to_value(&RecoveryPolicy {
                max_rounds: 2,
                rescan_factor,
            })
        };
        for id in ["E13", "E14", "E15", "E16"] {
            let at_bound = vec![
                ("detection_frames", frames(max / 4)),
                ("recovery", recovery(4)),
            ];
            assert_eq!(check(id, at_bound), Ok(()));
            let err = check(
                id,
                vec![
                    ("detection_frames", frames(2)),
                    ("recovery", recovery(u32::MAX)),
                ],
            );
            assert_eq!(err, over(id, "detection_frames × rescan_factor", 2 * huge));
        }

        // E12 sweeps frame counts, each with its re-scan.
        let sweep = |counts: &[u64], rescan_factor: u64| {
            check(
                "E12",
                vec![
                    ("frame_counts", serde_json::to_value(&counts.to_vec())),
                    ("rescan_factor", frames(rescan_factor)),
                ],
            )
        };
        assert_eq!(sweep(&[2, max], 1), Ok(()));
        assert_eq!(sweep(&[2, huge], 1), over("E12", "frame_counts", huge));
        assert_eq!(
            sweep(&[2, max], huge),
            over("E12", "frame_counts × rescan_factor", 2 * huge)
        );

        // E13's protocol override: each `Sense` phase's own frame count.
        let protocol = |n: u32| {
            let protocol =
                e13_protocols::default_protocol(8).with_phase(PhaseSpec::Sense { frames: Some(n) });
            serde_json::to_value(&Some(protocol))
        };
        assert_eq!(
            check("E13", vec![("protocol", protocol(MAX_FRAMES))]),
            Ok(())
        );
        assert_eq!(
            check("E13", vec![("protocol", protocol(u32::MAX))]),
            over("E13", "Sense.frames", huge)
        );
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
