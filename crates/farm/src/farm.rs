//! The farm service: a bounded multi-tenant job queue drained by a fleet
//! of worker threads, each driving a
//! [`BatchDriver`] over its own
//! [`ChipState`](labchip_manipulation::state::ChipState).
//!
//! ## Execution model
//!
//! [`Farm::submit`] admits a ([`Protocol`], [`JobSpec`]) pair into the
//! [`TenantQueue`] — FIFO within a tenant, round-robin across tenants,
//! bounded depth with explicit [`SubmitError::Rejected`] backpressure.
//! Workers claim jobs from the queue and execute them with
//! [`BatchDriver::execute`](labchip::workload::BatchDriver::execute),
//! journaled, which takes a [`Checkpoint`] at every phase boundary:
//!
//! * an injected-fault kill ([`JobSpec::fault`]) stops the worker
//!   mid-phase; the job is re-queued at the front of its tenant's FIFO
//!   with the boundary checkpoint and later *resumed* — bit-identically
//!   to an uninterrupted run, per the PR 6 journal/checkpoint guarantees;
//! * [`Farm::cancel`] removes a queued job immediately, or stops a
//!   running one cooperatively at its next phase boundary;
//! * every job's final chip-state hash depends only on its protocol and
//!   effective config — not on which worker ran it, how the fleet was
//!   scheduled, or how many times it was killed and resumed.
//!
//! Job telemetry streams through the scenario-engine [`Progress`] sink
//! (one `ScenarioStarted`/`Row`/`ScenarioFinished` stream per job, keyed
//! `job-<id>`), and every job leaves a JSON-serialisable [`JobRecord`]
//! served by [`Farm::status`] and [`Farm::history`].

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use labchip::scenario::{Progress, ProgressEvent};
use labchip::workload::{
    BatchDriver, Checkpoint, ForceEnvelope, Journaling, PhaseError, Protocol, RunControl,
    RunOptions, Start, StopCause, StoppedRun, WorkloadConfig,
};
use labchip_manipulation::journal::{Event, FaultPlan, Journal};

use crate::job::{HistoryFilter, JobId, JobRecord, JobSpec, JobStatus, SubmitError};
use crate::queue::TenantQueue;

/// Configuration of a [`Farm`].
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Total queued jobs across all tenants before `submit` rejects. Also
    /// the number of terminal jobs whose committed journals the farm keeps
    /// (see [`Farm::accumulated_journal`]), so memory stays flat however
    /// many jobs the farm serves.
    pub queue_depth: usize,
    /// Rayon planner threads *per worker* (0 = inherit the ambient pool).
    /// Routing results are bit-identical across planner thread counts;
    /// this only trades planning latency against core pressure.
    pub planner_threads: usize,
    /// Base workload configuration; per-job [`JobSpec`] seed/noise
    /// overrides are applied on top.
    pub workload: WorkloadConfig,
    /// Start with the fleet paused: submissions queue up but nothing runs
    /// until [`Farm::start`] — deterministic setup for tests and batch
    /// submission.
    pub start_paused: bool,
    /// Pause the fleet whenever an injected-fault kill re-queues a job —
    /// a breakpoint-on-fault mode that lets an operator (or a test)
    /// inspect the checkpointed job before resuming with [`Farm::start`].
    pub pause_on_fault: bool,
}

impl Default for FarmConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 64,
            planner_threads: 0,
            workload: WorkloadConfig::default(),
            start_paused: false,
            pause_on_fault: false,
        }
    }
}

/// A job held by the farm: its public record plus the execution-side
/// baggage (checkpoint, committed journal, armed fault) that never leaves
/// the service.
struct Job {
    record: JobRecord,
    /// Resume point from an interrupted execution.
    checkpoint: Option<Checkpoint>,
    /// Injected kill armed for the next execution (fires once).
    fault: Option<FaultPlan>,
    /// Journal events committed so far: completed executions in full plus
    /// the replay-exact prefix of interrupted ones. After the job is
    /// `Done`, this is bit-identical to the journal of an uninterrupted
    /// run. `None` once released: only the newest `queue_depth` terminal
    /// jobs keep theirs.
    committed: Option<Vec<Event>>,
    /// Cooperative cancellation flag, polled at phase boundaries.
    cancel_requested: bool,
    /// When the job (re-)entered the queue, for `queue_ms`.
    enqueued_at: Instant,
    /// Whether the job's `ScenarioStarted` progress event was emitted.
    announced: bool,
}

struct FarmState {
    queue: TenantQueue<JobId>,
    jobs: BTreeMap<JobId, Job>,
    /// Terminal jobs still holding their committed journal, oldest first.
    retained: VecDeque<JobId>,
    /// How many terminal journals `retained` may hold.
    retain_journals: usize,
    next_id: u64,
    /// Jobs currently executing on workers.
    running: usize,
    paused: bool,
    shutdown: bool,
}

struct FarmShared {
    state: Mutex<FarmState>,
    /// Signalled on every state transition; workers, `wait_idle` and
    /// `wait_paused` all wait here.
    changed: Condvar,
    progress: Arc<dyn Progress>,
    /// Derived once at farm startup and shared by every per-job driver.
    envelope: ForceEnvelope,
    planner_threads: usize,
    pause_on_fault: bool,
}

/// The multi-tenant chip-farm job service. See the module docs for the
/// execution model.
pub struct Farm {
    shared: Arc<FarmShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    base_workload: WorkloadConfig,
}

impl Farm {
    /// Builds the farm and spawns its worker fleet (discarding progress
    /// telemetry).
    pub fn new(config: FarmConfig) -> Self {
        Self::with_progress(config, Arc::new(labchip::scenario::NullProgress))
    }

    /// Builds the farm with a [`Progress`] sink receiving per-job
    /// telemetry streams keyed `job-<id>`.
    pub fn with_progress(config: FarmConfig, progress: Arc<dyn Progress>) -> Self {
        let shared = Arc::new(FarmShared {
            state: Mutex::new(FarmState {
                queue: TenantQueue::new(config.queue_depth),
                jobs: BTreeMap::new(),
                retained: VecDeque::new(),
                retain_journals: config.queue_depth,
                next_id: 0,
                running: 0,
                paused: config.start_paused,
                shutdown: false,
            }),
            changed: Condvar::new(),
            progress,
            envelope: ForceEnvelope::date05_reference(),
            planner_threads: config.planner_threads,
            pause_on_fault: config.pause_on_fault,
        });
        let workers = config.workers.max(1);
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("farm-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a farm worker thread")
            })
            .collect();
        Self {
            shared,
            handles: Mutex::new(handles),
            base_workload: config.workload,
        }
    }

    /// Submits a job: the protocol enters `spec.tenant`'s FIFO and runs
    /// under the farm's workload config with the spec's seed/noise
    /// overrides applied.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Rejected`] when the bounded queue is full (explicit
    /// backpressure — retry after the fleet drains), and
    /// [`SubmitError::ShuttingDown`] after [`Farm::shutdown`].
    pub fn submit(&self, protocol: Protocol, spec: JobSpec) -> Result<JobId, SubmitError> {
        let mut config = self.base_workload;
        if let Some(seed) = spec.seed {
            config.seed = seed;
        }
        if let Some(noise) = spec.noise_scale {
            config.noise_scale = noise;
        }
        let mut state = self.lock();
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let id = JobId(state.next_id);
        state
            .queue
            .push(&spec.tenant, id)
            .map_err(SubmitError::Rejected)?;
        state.next_id += 1;
        state.jobs.insert(
            id,
            Job {
                record: JobRecord {
                    id,
                    tenant: spec.tenant,
                    protocol,
                    config,
                    status: JobStatus::Queued,
                    phases_completed: 0,
                    resumes: 0,
                    journal_events: 0,
                    queue_ms: 0.0,
                    run_ms: 0.0,
                    state_hash: None,
                    detail: "queued".into(),
                },
                checkpoint: None,
                fault: spec.fault,
                committed: Some(Vec::new()),
                cancel_requested: false,
                enqueued_at: Instant::now(),
                announced: false,
            },
        );
        self.shared.changed.notify_all();
        Ok(id)
    }

    /// Cancels a job: a queued job leaves the queue immediately; a
    /// running one stops cooperatively at its next phase boundary (with a
    /// checkpoint, so the cancellation is still resumable in principle).
    /// Returns `false` if the job is unknown or already terminal.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut state = self.lock();
        let Some(job) = state.jobs.get_mut(&id) else {
            return false;
        };
        match job.record.status {
            JobStatus::Queued => {
                let tenant = job.record.tenant.clone();
                job.record.queue_ms += ms_since(job.enqueued_at);
                job.record.status = JobStatus::Cancelled;
                job.record.detail = if job.checkpoint.is_some() {
                    "cancelled while re-queued with a checkpoint".into()
                } else {
                    "cancelled before start".into()
                };
                let announced = job.announced;
                let rows = job.record.phases_completed;
                let wall = job.record.run_ms;
                state.queue.remove(&tenant, |queued| *queued == id);
                state.retire(id);
                self.shared.changed.notify_all();
                drop(state);
                if announced {
                    self.shared
                        .progress
                        .on_event(&ProgressEvent::ScenarioFinished {
                            scenario: id.to_string(),
                            rows,
                            wall_ms: wall,
                        });
                }
                true
            }
            JobStatus::Running { .. } => {
                job.cancel_requested = true;
                true
            }
            _ => false,
        }
    }

    /// The job's current lifecycle state.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.lock()
            .jobs
            .get(&id)
            .map(|job| job.record.status.clone())
    }

    /// A point-in-time copy of the job's full record.
    pub fn record(&self, id: JobId) -> Option<JobRecord> {
        self.lock().jobs.get(&id).map(|job| job.record.clone())
    }

    /// Records matching `filter`, most recent submission first, truncated
    /// to `depth` entries (0 = unlimited).
    pub fn history(&self, filter: &HistoryFilter, depth: usize) -> Vec<JobRecord> {
        let state = self.lock();
        let mut records: Vec<JobRecord> = state
            .jobs
            .values()
            .rev()
            .filter(|job| filter.matches(&job.record))
            .map(|job| job.record.clone())
            .collect();
        if depth > 0 {
            records.truncate(depth);
        }
        records
    }

    /// The job's committed journal: completed executions in full plus the
    /// replay-exact prefix of interrupted ones. For a `Done` job this is
    /// bit-identical to the journal of an uninterrupted run — the
    /// equivalence oracle the recovery tests and `report journal-diff`
    /// build on.
    ///
    /// `None` for an unknown job, and for a terminal job whose journal was
    /// released: the farm keeps journals only for the newest
    /// [`FarmConfig::queue_depth`] terminal jobs. The job's record, state
    /// hash included, stays available through [`Farm::record`].
    pub fn accumulated_journal(&self, id: JobId) -> Option<Journal> {
        let state = self.lock();
        let committed = state.jobs.get(&id)?.committed.as_ref()?;
        let mut journal = Journal::new();
        for event in committed {
            journal.record(event.clone());
        }
        Some(journal)
    }

    /// Unpauses the fleet (after [`FarmConfig::start_paused`] or a
    /// [`FarmConfig::pause_on_fault`] breakpoint).
    pub fn start(&self) {
        self.lock().paused = false;
        self.shared.changed.notify_all();
    }

    /// Pauses the fleet: running jobs finish their current execution,
    /// queued ones stay queued.
    pub fn pause(&self) {
        self.lock().paused = true;
        self.shared.changed.notify_all();
    }

    /// Whether the fleet is paused.
    pub fn is_paused(&self) -> bool {
        self.lock().paused
    }

    /// Jobs currently waiting in the queue.
    pub fn queued(&self) -> usize {
        self.lock().queue.len()
    }

    /// Jobs currently executing on workers.
    pub fn running(&self) -> usize {
        self.lock().running
    }

    /// Blocks until the queue is empty and no job is executing. Call
    /// [`Farm::start`] first if the farm is paused with queued work —
    /// paused jobs never drain.
    pub fn wait_idle(&self) {
        let mut state = self.lock();
        while !(state.queue.is_empty() && state.running == 0) {
            state = self
                .shared
                .changed
                .wait(state)
                .expect("farm state lock poisoned");
        }
    }

    /// Blocks until the fleet is paused with no job executing — the
    /// rendezvous for [`FarmConfig::pause_on_fault`] breakpoints.
    pub fn wait_paused(&self) {
        let mut state = self.lock();
        while !(state.paused && state.running == 0) {
            state = self
                .shared
                .changed
                .wait(state)
                .expect("farm state lock poisoned");
        }
    }

    /// Stops accepting submissions, winds down the workers (running jobs
    /// finish their current execution; queued jobs stay queued) and joins
    /// the fleet.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.shared.changed.notify_all();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handles.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn lock(&self) -> MutexGuard<'_, FarmState> {
        self.shared.state.lock().expect("farm state lock poisoned")
    }
}

impl Drop for Farm {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl FarmState {
    /// Records that `id` turned terminal, releasing the committed journals
    /// of older terminal jobs beyond the retention bound.
    fn retire(&mut self, id: JobId) {
        self.retained.push_back(id);
        while self.retained.len() > self.retain_journals {
            let oldest = self.retained.pop_front();
            if let Some(job) = oldest.and_then(|id| self.jobs.get_mut(&id)) {
                job.committed = None;
            }
        }
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Everything a worker needs to execute one claimed job outside the lock.
struct Claim {
    id: JobId,
    protocol: Protocol,
    config: WorkloadConfig,
    checkpoint: Option<Checkpoint>,
    fault: Option<FaultPlan>,
    announce: bool,
}

/// The per-job [`RunControl`]: polls the job's cooperative-cancel flag at
/// every phase boundary and streams phase telemetry into the farm's
/// progress sink.
struct WorkerControl {
    shared: Arc<FarmShared>,
    id: JobId,
}

impl RunControl for WorkerControl {
    fn should_stop(&self, _next_phase: usize) -> bool {
        let state = self.shared.state.lock().expect("farm state lock poisoned");
        state
            .jobs
            .get(&self.id)
            .is_some_and(|job| job.cancel_requested)
    }

    fn on_phase_started(&self, _index: usize, name: &str) {
        let mut state = self.shared.state.lock().expect("farm state lock poisoned");
        if let Some(job) = state.jobs.get_mut(&self.id) {
            job.record.status = JobStatus::Running { phase: name.into() };
        }
    }

    fn on_phase_finished(&self, index: usize, report: &labchip::workload::PhaseReport) {
        {
            let mut state = self.shared.state.lock().expect("farm state lock poisoned");
            if let Some(job) = state.jobs.get_mut(&self.id) {
                job.record.phases_completed = index + 1;
            }
        }
        self.shared.progress.on_event(&ProgressEvent::Row {
            scenario: self.id.to_string(),
            index,
            summary: report.phase.clone(),
        });
    }
}

fn worker_loop(shared: &Arc<FarmShared>) {
    let pool = (shared.planner_threads > 0).then(|| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(shared.planner_threads)
            .build()
            .expect("building the worker's planner pool")
    });
    while let Some(claim) = claim_next(shared) {
        if claim.announce {
            shared.progress.on_event(&ProgressEvent::ScenarioStarted {
                scenario: claim.id.to_string(),
            });
        }
        let driver = BatchDriver::with_envelope(claim.config, shared.envelope);
        let control = WorkerControl {
            shared: Arc::clone(shared),
            id: claim.id,
        };
        let started = Instant::now();
        let fresh = Start::Fresh {
            protocol: &claim.protocol,
            cycle: 0,
        };
        let start = claim.checkpoint.as_ref().map_or(fresh, Start::Resume);
        let options = RunOptions {
            journal: claim.fault.map_or(Journaling::On, Journaling::Armed),
            control: &control,
        };
        let run = || driver.execute(start, options);
        let result = match &pool {
            Some(pool) => pool.install(run),
            None => run(),
        };
        settle(shared, claim, result, ms_since(started));
    }
}

/// Blocks until a job can be claimed; `None` means the farm is shutting
/// down. The claim marks the job `Running` and moves its execution-side
/// baggage (checkpoint, armed fault) out of the shared state.
fn claim_next(shared: &Arc<FarmShared>) -> Option<Claim> {
    let mut state = shared.state.lock().expect("farm state lock poisoned");
    loop {
        if state.shutdown {
            return None;
        }
        if !state.paused {
            if let Some((_tenant, id)) = state.queue.pop() {
                state.running += 1;
                let job = state
                    .jobs
                    .get_mut(&id)
                    .expect("queued job ids always have a record");
                job.record.queue_ms += ms_since(job.enqueued_at);
                let announce = !job.announced;
                job.announced = true;
                let checkpoint = job.checkpoint.take();
                if checkpoint.is_some() {
                    job.record.resumes += 1;
                }
                let next = checkpoint.as_ref().map_or(0, |cp| cp.next_phase);
                let phase = job
                    .record
                    .protocol
                    .phases
                    .get(next)
                    .map_or_else(|| "start".to_owned(), |spec| spec.name().to_owned());
                job.record.status = JobStatus::Running { phase };
                let claim = Claim {
                    id,
                    protocol: job.record.protocol.clone(),
                    config: job.record.config,
                    checkpoint,
                    fault: job.fault.take(),
                    announce,
                };
                shared.changed.notify_all();
                return Some(claim);
            }
        }
        state = shared
            .changed
            .wait(state)
            .expect("farm state lock poisoned");
    }
}

/// Applies one execution's outcome back to the shared state: `Done` /
/// `Cancelled` / `Failed`, or re-queue with checkpoint after an
/// injected-fault kill.
fn settle(
    shared: &Arc<FarmShared>,
    claim: Claim,
    result: Result<(labchip::workload::ProtocolOutcome, Journal), Box<StoppedRun>>,
    run_ms: f64,
) {
    let mut finished: Option<(usize, f64)> = None;
    let mut state = shared.state.lock().expect("farm state lock poisoned");
    let mut requeue: Option<String> = None;
    {
        let job = state
            .jobs
            .get_mut(&claim.id)
            .expect("claimed job ids always have a record");
        job.record.run_ms += run_ms;
        match result {
            Ok((outcome, journal)) => {
                let committed = job.committed.get_or_insert_with(Vec::new);
                committed.extend(journal.events().iter().cloned());
                job.record.journal_events = committed.len();
                job.record.phases_completed = outcome.phases.len();
                job.record.state_hash = Some(format!("{:#018x}", outcome.state.state_hash()));
                job.record.status = JobStatus::Done;
                job.record.detail = format!(
                    "completed {} phases ({} journal events)",
                    outcome.phases.len(),
                    job.record.journal_events
                );
            }
            Err(stopped) => {
                let StoppedRun {
                    checkpoint,
                    journal,
                    cause,
                    ..
                } = *stopped;
                let committed = job.committed.get_or_insert_with(Vec::new);
                committed.extend(
                    journal
                        .truncated(checkpoint.journal_offset)
                        .events()
                        .iter()
                        .cloned(),
                );
                job.record.journal_events = committed.len();
                job.record.phases_completed = checkpoint.completed.len();
                match cause {
                    StopCause::Cancelled { next_phase } => {
                        job.record.status = JobStatus::Cancelled;
                        job.record.detail =
                            format!("cancelled at the boundary of phase {next_phase}");
                        job.checkpoint = Some(checkpoint);
                    }
                    StopCause::Phase(PhaseError::Interrupted { phase }) => {
                        job.record.status = JobStatus::Queued;
                        job.record.detail = format!(
                            "killed by injected fault in `{phase}`; re-queued with checkpoint"
                        );
                        job.checkpoint = Some(checkpoint);
                        job.enqueued_at = Instant::now();
                        requeue = Some(job.record.tenant.clone());
                    }
                    StopCause::Phase(PhaseError::Invariant { phase, reason }) => {
                        job.record.status = JobStatus::Failed {
                            error: format!("{phase}: {reason}"),
                        };
                        job.record.detail = "invariant violation".into();
                    }
                    StopCause::Rejected(error) => {
                        job.record.status = JobStatus::Failed {
                            error: error.to_string(),
                        };
                        job.record.detail = "checkpoint does not fit the job".into();
                    }
                }
            }
        }
        if job.record.status.is_terminal() {
            finished = Some((job.record.phases_completed, job.record.run_ms));
        }
    }
    if finished.is_some() {
        state.retire(claim.id);
    }
    if let Some(tenant) = requeue {
        state.queue.push_front(&tenant, claim.id);
        if shared.pause_on_fault {
            state.paused = true;
        }
    }
    drop(state);
    if let Some((rows, wall_ms)) = finished {
        shared.progress.on_event(&ProgressEvent::ScenarioFinished {
            scenario: claim.id.to_string(),
            rows,
            wall_ms,
        });
    }
    // The worker only counts as idle once the job's terminal telemetry is
    // out — `wait_idle` returning must imply every `ScenarioFinished` was
    // delivered.
    shared
        .state
        .lock()
        .expect("farm state lock poisoned")
        .running -= 1;
    shared.changed.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use labchip::scenario::CollectingProgress;
    use labchip_units::GridDims;

    fn small_workload() -> WorkloadConfig {
        WorkloadConfig {
            array_side: 16,
            seed: 7,
            ..WorkloadConfig::default()
        }
    }

    fn small_protocol(config: &WorkloadConfig, particles: usize) -> Protocol {
        Protocol::canned_cycle(
            GridDims::square(config.array_side),
            config.min_separation,
            particles,
        )
    }

    /// The uninterrupted baseline a farm job must reproduce: same
    /// protocol, same effective config, cycle 0.
    fn baseline(config: &WorkloadConfig, protocol: &Protocol) -> (u64, usize) {
        let driver = BatchDriver::new(*config);
        let (outcome, journal) = driver.run_journaled(protocol, 0);
        (outcome.state.state_hash(), journal.len())
    }

    #[test]
    fn jobs_complete_and_match_the_uninterrupted_baseline() {
        let workload = small_workload();
        let protocol = small_protocol(&workload, 10);
        let farm = Farm::new(FarmConfig {
            workers: 3,
            workload,
            ..FarmConfig::default()
        });
        let ids: Vec<JobId> = (0..6)
            .map(|i| {
                farm.submit(
                    protocol.clone(),
                    JobSpec::tenant(if i % 2 == 0 { "alice" } else { "bob" }),
                )
                .expect("queue has room")
            })
            .collect();
        farm.wait_idle();
        let (hash, events) = baseline(&workload, &protocol);
        let expected = format!("{hash:#018x}");
        for id in ids {
            let record = farm.record(id).expect("job exists");
            assert_eq!(record.status, JobStatus::Done, "{}: {}", id, record.detail);
            assert_eq!(record.state_hash.as_deref(), Some(expected.as_str()));
            assert_eq!(record.journal_events, events);
            assert_eq!(record.phases_completed, protocol.len());
        }
    }

    #[test]
    fn queue_full_rejects_and_cancel_before_start_removes() {
        let workload = small_workload();
        let protocol = small_protocol(&workload, 6);
        let farm = Farm::new(FarmConfig {
            workers: 1,
            queue_depth: 2,
            workload,
            start_paused: true,
            ..FarmConfig::default()
        });
        let first = farm.submit(protocol.clone(), JobSpec::tenant("a")).unwrap();
        let second = farm.submit(protocol.clone(), JobSpec::tenant("b")).unwrap();
        let rejected = farm.submit(protocol.clone(), JobSpec::tenant("a"));
        assert!(matches!(rejected, Err(SubmitError::Rejected(_))));
        // Cancel one queued job: it leaves the queue without running...
        assert!(farm.cancel(first));
        assert_eq!(farm.status(first), Some(JobStatus::Cancelled));
        assert_eq!(farm.record(first).unwrap().phases_completed, 0);
        // ...which re-opens a queue slot.
        let third = farm.submit(protocol, JobSpec::tenant("a")).unwrap();
        farm.start();
        farm.wait_idle();
        assert_eq!(farm.status(second), Some(JobStatus::Done));
        assert_eq!(farm.status(third), Some(JobStatus::Done));
        // Cancelling a terminal job is a no-op.
        assert!(!farm.cancel(second));
    }

    #[test]
    fn fault_kill_requeues_then_resumes_bit_identically() {
        let workload = small_workload();
        let protocol = small_protocol(&workload, 12);
        let (hash, events) = baseline(&workload, &protocol);
        let farm = Farm::new(FarmConfig {
            workers: 1,
            workload,
            pause_on_fault: true,
            ..FarmConfig::default()
        });
        let kill = (events as u64) / 2;
        let id = farm
            .submit(
                protocol,
                JobSpec::tenant("chaos").with_fault(FaultPlan::after(kill)),
            )
            .unwrap();
        // The injected kill trips mid-run; pause_on_fault holds the fleet
        // so the re-queued checkpointed job is observable.
        farm.wait_paused();
        let record = farm.record(id).expect("job exists");
        assert_eq!(record.status, JobStatus::Queued, "{}", record.detail);
        assert!(record.journal_events < events);
        // Resume: the job must finish with the uninterrupted hash and the
        // accumulated journal must be the uninterrupted journal.
        farm.start();
        farm.wait_idle();
        let record = farm.record(id).expect("job exists");
        assert_eq!(record.status, JobStatus::Done, "{}", record.detail);
        assert_eq!(record.resumes, 1);
        assert_eq!(record.state_hash, Some(format!("{hash:#018x}")));
        assert_eq!(record.journal_events, events);
        assert_eq!(farm.accumulated_journal(id).unwrap().len(), events);
    }

    #[test]
    fn cancel_of_a_checkpointed_requeued_job_sticks() {
        let workload = small_workload();
        let protocol = small_protocol(&workload, 12);
        let (_, events) = baseline(&workload, &protocol);
        let farm = Farm::new(FarmConfig {
            workers: 1,
            workload,
            pause_on_fault: true,
            ..FarmConfig::default()
        });
        let id = farm
            .submit(
                protocol,
                JobSpec::tenant("chaos").with_fault(FaultPlan::after((events as u64) / 2)),
            )
            .unwrap();
        farm.wait_paused();
        assert!(farm.cancel(id));
        farm.start();
        farm.wait_idle();
        let record = farm.record(id).expect("job exists");
        assert_eq!(record.status, JobStatus::Cancelled);
        assert!(record.detail.contains("checkpoint"), "{}", record.detail);
    }

    #[test]
    fn history_filters_and_progress_streams_per_job() {
        let workload = small_workload();
        let protocol = small_protocol(&workload, 8);
        let progress = Arc::new(CollectingProgress::new());
        let farm = Farm::with_progress(
            FarmConfig {
                workers: 2,
                workload,
                ..FarmConfig::default()
            },
            Arc::clone(&progress) as Arc<dyn Progress>,
        );
        let a = farm.submit(protocol.clone(), JobSpec::tenant("a")).unwrap();
        let b = farm.submit(protocol.clone(), JobSpec::tenant("b")).unwrap();
        farm.wait_idle();
        let all = farm.history(&HistoryFilter::all(), 0);
        assert_eq!(all.len(), 2);
        // Most recent submission first.
        assert_eq!(all[0].id, b);
        assert_eq!(all[1].id, a);
        let only_a = farm.history(
            &HistoryFilter {
                tenant: Some("a".into()),
                terminal_only: true,
            },
            0,
        );
        assert_eq!(only_a.len(), 1);
        assert_eq!(only_a[0].id, a);
        assert_eq!(farm.history(&HistoryFilter::all(), 1).len(), 1);
        // Each job streamed started → rows → finished under its own key.
        for id in [a, b] {
            let events = progress.events_for(&id.to_string());
            assert!(matches!(
                events.first(),
                Some(ProgressEvent::ScenarioStarted { .. })
            ));
            assert!(matches!(
                events.last(),
                Some(ProgressEvent::ScenarioFinished { .. })
            ));
            let rows = events
                .iter()
                .filter(|event| matches!(event, ProgressEvent::Row { .. }))
                .count();
            assert_eq!(rows, protocol.len());
        }
    }

    #[test]
    fn only_the_newest_queue_depth_terminal_journals_are_kept() {
        let workload = small_workload();
        let protocol = small_protocol(&workload, 6);
        let farm = Farm::new(FarmConfig {
            workers: 1,
            queue_depth: 2,
            workload,
            ..FarmConfig::default()
        });
        let ids: Vec<JobId> = (0..5u64)
            .map(|seed| {
                let id = farm
                    .submit(protocol.clone(), JobSpec::tenant("a").with_seed(seed))
                    .expect("the previous job has drained");
                farm.wait_idle();
                id
            })
            .collect();
        for (seed, &id) in ids.iter().enumerate() {
            let config = WorkloadConfig {
                seed: seed as u64,
                ..workload
            };
            let (outcome, journal) = BatchDriver::new(config).run_journaled(&protocol, 0);
            let record = farm.record(id).expect("records are never released");
            assert_eq!(record.status, JobStatus::Done, "{}", record.detail);
            assert_eq!(
                record.state_hash,
                Some(format!("{:#018x}", outcome.state.state_hash()))
            );
            assert_eq!(record.journal_events, journal.len());
            let kept = farm.accumulated_journal(id);
            if seed < 3 {
                assert_eq!(kept, None, "{id}: the 3 oldest journals are released");
            } else {
                assert_eq!(kept, Some(journal), "{id}: the 2 newest journals are kept");
            }
        }
    }

    #[test]
    fn shutdown_refuses_new_submissions() {
        let workload = small_workload();
        let protocol = small_protocol(&workload, 4);
        let farm = Farm::new(FarmConfig {
            workers: 1,
            workload,
            ..FarmConfig::default()
        });
        farm.shutdown();
        assert!(matches!(
            farm.submit(protocol, JobSpec::default()),
            Err(SubmitError::ShuttingDown)
        ));
    }
}
