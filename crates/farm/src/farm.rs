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
//! * a job that panics (in a phase or in the [`Progress`] sink) lands
//!   [`JobStatus::Failed`] with its committed journal prefix, and the
//!   worker lives on;
//! * every job's final chip-state hash depends only on its protocol and
//!   effective config — not on which worker ran it, how the fleet was
//!   scheduled, or how many times it was killed and resumed.
//!
//! The lifecycle is a pure state machine, `FarmState`, whose transitions
//! take the time as an argument and return the telemetry to emit. The
//! threaded shell only calls one transition per lock, runs claimed jobs
//! outside the lock under `catch_unwind`, and emits.
//!
//! Job telemetry streams through the scenario-engine [`Progress`] sink
//! (one `ScenarioStarted`/`Row`/`ScenarioFinished` stream per job, keyed
//! `job-<id>`), and every job leaves a JSON-serialisable [`JobRecord`]
//! served by [`Farm::status`] and [`Farm::history`].

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use labchip::scenario::{Progress, ProgressEvent};
use labchip::workload::{
    BatchDriver, Checkpoint, Journaling, PhaseError, PhaseReport, Protocol, ProtocolOutcome,
    RunControl, RunOptions, Start, StopCause, StoppedRun, WorkloadConfig,
};
use labchip_manipulation::journal::{FaultPlan, Journal};

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
    committed: Option<Journal>,
    /// Cooperative cancellation flag, polled at phase boundaries.
    cancel_requested: bool,
    /// When the job (re-)entered the queue, for `queue_ms`.
    enqueued_at: Instant,
}

/// What one execution of a claimed job returned.
type RunResult = Result<(ProtocolOutcome, Journal), Box<StoppedRun>>;

/// How one execution of a claimed job ended: what the driver returned, or
/// the message of the panic that unwound it.
type Execution = Result<RunResult, String>;

/// Everything a worker needs to execute one claimed job outside the lock.
struct Claim {
    id: JobId,
    protocol: Protocol,
    config: WorkloadConfig,
    checkpoint: Option<Checkpoint>,
    fault: Option<FaultPlan>,
    /// The job's `ScenarioStarted`, on its first claim only (a job
    /// re-enters the queue only with a checkpoint).
    started: Option<ProgressEvent>,
}

impl Claim {
    /// Runs the claimed execution under `control`: journaled, resumed from
    /// the checkpoint if there is one, with the armed fault if any.
    fn execute(&self, control: &dyn RunControl) -> RunResult {
        let driver = BatchDriver::new(self.config);
        let fresh = Start::Fresh {
            protocol: &self.protocol,
            cycle: 0,
        };
        let start = self.checkpoint.as_ref().map_or(fresh, Start::Resume);
        let options = RunOptions {
            journal: self.fault.map_or(Journaling::On, Journaling::Armed),
            control,
        };
        driver.execute(start, options)
    }
}

/// The job lifecycle: plain transitions that take the time as an argument
/// and return the progress event to emit rather than emitting it.
struct FarmState {
    queue: TenantQueue<JobId>,
    jobs: BTreeMap<JobId, Job>,
    /// Terminal jobs still holding their committed journal, oldest first.
    retained: VecDeque<JobId>,
    /// How many terminal journals `retained` may hold.
    retain_journals: usize,
    /// Base workload config that per-job overrides apply to.
    workload: WorkloadConfig,
    /// Jobs claimed by workers whose terminal telemetry is not out yet.
    running: usize,
    paused: bool,
    pause_on_fault: bool,
    shutdown: bool,
}

impl FarmState {
    fn new(config: &FarmConfig) -> Self {
        Self {
            queue: TenantQueue::new(config.queue_depth),
            jobs: BTreeMap::new(),
            retained: VecDeque::new(),
            retain_journals: config.queue_depth,
            workload: config.workload,
            running: 0,
            paused: config.start_paused,
            pause_on_fault: config.pause_on_fault,
            shutdown: false,
        }
    }

    /// Admits a job into its tenant's FIFO under the base workload config
    /// with the spec's seed/noise overrides applied.
    fn submit(
        &mut self,
        protocol: Protocol,
        spec: JobSpec,
        now: Instant,
    ) -> Result<JobId, SubmitError> {
        if self.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        // Records are never dropped, so ids count the jobs admitted so far.
        let id = JobId(self.jobs.len() as u64);
        self.queue
            .push(&spec.tenant, id)
            .map_err(SubmitError::Rejected)?;
        let mut config = self.workload;
        if let Some(seed) = spec.seed {
            config.seed = seed;
        }
        if let Some(noise) = spec.noise_scale {
            config.noise_scale = noise;
        }
        let job = Job {
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
            committed: Some(Journal::new()),
            cancel_requested: false,
            enqueued_at: now,
        };
        self.jobs.insert(id, job);
        Ok(id)
    }

    /// Takes the next job off the queue and marks it `Running`, moving its
    /// execution-side baggage (checkpoint, armed fault) into the claim.
    /// `None` while the fleet is paused or shutting down, or the queue is
    /// empty.
    fn claim(&mut self, now: Instant) -> Option<Claim> {
        if self.paused || self.shutdown {
            return None;
        }
        let (_tenant, id) = self.queue.pop()?;
        self.running += 1;
        let job = self
            .jobs
            .get_mut(&id)
            .expect("queued job ids always have a record");
        job.record.queue_ms += ms_between(job.enqueued_at, now);
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
        Some(Claim {
            id,
            protocol: job.record.protocol.clone(),
            config: job.record.config,
            started: checkpoint
                .is_none()
                .then(|| ProgressEvent::ScenarioStarted {
                    scenario: id.to_string(),
                }),
            checkpoint,
            fault: job.fault.take(),
        })
    }

    /// Whether the running job `id` was asked to stop at its next phase
    /// boundary.
    fn should_stop(&self, id: JobId) -> bool {
        self.jobs.get(&id).is_some_and(|job| job.cancel_requested)
    }

    fn phase_started(&mut self, id: JobId, name: &str) {
        if let Some(job) = self.jobs.get_mut(&id) {
            job.record.status = JobStatus::Running { phase: name.into() };
        }
    }

    /// Counts the finished phase; returns the job's progress row.
    fn phase_finished(&mut self, id: JobId, index: usize, report: &PhaseReport) -> ProgressEvent {
        if let Some(job) = self.jobs.get_mut(&id) {
            job.record.phases_completed = index + 1;
        }
        ProgressEvent::Row {
            scenario: id.to_string(),
            index,
            summary: report.phase.clone(),
        }
    }

    /// Applies one execution's outcome: `Done` / `Cancelled` / `Failed`, or
    /// re-queue at the front of the tenant's FIFO with the checkpoint after
    /// an injected-fault kill. Returns the job's `ScenarioFinished` when it
    /// turned terminal. The worker stays counted as running until
    /// [`FarmState::release`].
    fn settle(
        &mut self,
        id: JobId,
        execution: Execution,
        run_ms: f64,
        now: Instant,
    ) -> Option<ProgressEvent> {
        let job = self
            .jobs
            .get_mut(&id)
            .expect("claimed job ids always have a record");
        job.record.run_ms += run_ms;
        let committed = job.committed.get_or_insert_with(Journal::new);
        let failed = |error, detail: &str| (JobStatus::Failed { error }, detail.to_owned());
        let (status, detail) = match execution {
            Err(message) => failed(format!("panicked: {message}"), "job panicked"),
            Ok(Ok((outcome, journal))) => {
                committed.extend(journal.events().iter().cloned());
                job.record.phases_completed = outcome.phases.len();
                job.record.state_hash = Some(format!("{:#018x}", outcome.state.state_hash()));
                let detail = format!(
                    "completed {} phases ({} journal events)",
                    outcome.phases.len(),
                    committed.len()
                );
                (JobStatus::Done, detail)
            }
            Ok(Err(stopped)) => {
                let stopped = *stopped;
                let prefix = stopped.journal.truncated(stopped.checkpoint.journal_offset);
                committed.extend(prefix.events().iter().cloned());
                job.record.phases_completed = stopped.checkpoint.completed.len();
                match stopped.cause {
                    StopCause::Cancelled { next_phase } => {
                        job.checkpoint = Some(stopped.checkpoint);
                        let detail = format!("cancelled at the boundary of phase {next_phase}");
                        (JobStatus::Cancelled, detail)
                    }
                    StopCause::Phase(PhaseError::Interrupted { phase }) => {
                        job.record.journal_events = committed.len();
                        job.record.status = JobStatus::Queued;
                        job.record.detail = format!(
                            "killed by injected fault in `{phase}`; re-queued with checkpoint"
                        );
                        job.checkpoint = Some(stopped.checkpoint);
                        job.enqueued_at = now;
                        self.queue.push_front(&job.record.tenant, id);
                        self.paused |= self.pause_on_fault;
                        return None;
                    }
                    StopCause::Phase(PhaseError::Invariant { phase, reason }) => {
                        failed(format!("{phase}: {reason}"), "invariant violation")
                    }
                    StopCause::Rejected(error) => {
                        failed(error.to_string(), "checkpoint does not fit the job")
                    }
                }
            }
        };
        job.record.journal_events = committed.len();
        self.finish(id, status, detail)
    }

    /// The worker emitted its job's terminal telemetry and is idle again.
    fn release(&mut self) {
        self.running -= 1;
    }

    /// Cancels a job: a queued one turns `Cancelled` at once, a running one
    /// is flagged to stop at its next phase boundary. Returns whether the
    /// cancel took, and the `ScenarioFinished` of a job that turned
    /// terminal after it had started once.
    fn cancel(&mut self, id: JobId, now: Instant) -> (bool, Option<ProgressEvent>) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return (false, None);
        };
        match job.record.status {
            JobStatus::Queued => {
                job.record.queue_ms += ms_between(job.enqueued_at, now);
                let (started, detail) = match job.checkpoint {
                    Some(_) => (true, "cancelled while re-queued with a checkpoint"),
                    None => (false, "cancelled before start"),
                };
                self.queue.remove(&job.record.tenant, |q| *q == id);
                let finished = self.finish(id, JobStatus::Cancelled, detail.into());
                (true, finished.filter(|_| started))
            }
            JobStatus::Running { .. } => {
                job.cancel_requested = true;
                (true, None)
            }
            _ => (false, None),
        }
    }

    /// Refuses further submissions and claims; queued jobs stay queued.
    fn shutdown(&mut self) {
        self.shutdown = true;
    }

    /// Moves `id` to the terminal `status`, releasing the committed
    /// journals of older terminal jobs beyond the retention bound. Returns
    /// the job's `ScenarioFinished`.
    fn finish(&mut self, id: JobId, status: JobStatus, detail: String) -> Option<ProgressEvent> {
        let job = self.jobs.get_mut(&id)?;
        job.record.status = status;
        job.record.detail = detail;
        let finished = ProgressEvent::ScenarioFinished {
            scenario: id.to_string(),
            rows: job.record.phases_completed,
            wall_ms: job.record.run_ms,
        };
        self.retained.push_back(id);
        while self.retained.len() > self.retain_journals {
            let oldest = self.retained.pop_front();
            if let Some(job) = oldest.and_then(|id| self.jobs.get_mut(&id)) {
                job.committed = None;
            }
        }
        Some(finished)
    }
}

fn ms_between(earlier: Instant, now: Instant) -> f64 {
    now.saturating_duration_since(earlier).as_secs_f64() * 1e3
}

/// The text of a caught panic's payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        return (*text).to_owned();
    }
    payload.downcast_ref().cloned().unwrap_or_default()
}

struct FarmShared {
    state: Mutex<FarmState>,
    /// Signalled on every state transition; workers, `wait_idle` and
    /// `wait_paused` all wait here.
    changed: Condvar,
    progress: Arc<dyn Progress>,
    planner_threads: usize,
}

impl FarmShared {
    /// Blocks until `ready` holds for the state, then returns it locked.
    /// Jobs never run under the lock, so a job panic cannot poison it.
    fn lock_when(&self, mut ready: impl FnMut(&FarmState) -> bool) -> MutexGuard<'_, FarmState> {
        self.state
            .lock()
            .and_then(|state| self.changed.wait_while(state, |state| !ready(state)))
            .expect("farm state lock poisoned")
    }

    fn lock(&self) -> MutexGuard<'_, FarmState> {
        self.lock_when(|_| true)
    }

    /// Runs one transition under the lock and wakes every waiter.
    fn transition<R>(&self, step: impl FnOnce(&mut FarmState) -> R) -> R {
        let out = step(&mut self.lock());
        self.changed.notify_all();
        out
    }

    fn emit(&self, event: Option<ProgressEvent>) {
        if let Some(event) = event {
            self.progress.on_event(&event);
        }
    }
}

/// The multi-tenant chip-farm job service. See the module docs for the
/// execution model.
pub struct Farm {
    shared: Arc<FarmShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
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
            state: Mutex::new(FarmState::new(&config)),
            changed: Condvar::new(),
            progress,
            planner_threads: config.planner_threads,
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
        let now = Instant::now();
        self.shared.transition(|s| s.submit(protocol, spec, now))
    }

    /// Cancels a job: a queued job leaves the queue immediately; a
    /// running one stops cooperatively at its next phase boundary (with a
    /// checkpoint, so the cancellation is still resumable in principle).
    /// Returns `false` if the job is unknown or already terminal.
    pub fn cancel(&self, id: JobId) -> bool {
        let now = Instant::now();
        let (cancelled, finished) = self.shared.transition(|s| s.cancel(id, now));
        self.shared.emit(finished);
        cancelled
    }

    /// The job's current lifecycle state.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let state = self.shared.lock();
        state.jobs.get(&id).map(|job| job.record.status.clone())
    }

    /// A point-in-time copy of the job's full record.
    pub fn record(&self, id: JobId) -> Option<JobRecord> {
        let state = self.shared.lock();
        state.jobs.get(&id).map(|job| job.record.clone())
    }

    /// Records matching `filter`, most recent submission first, truncated
    /// to `depth` entries (0 = unlimited).
    pub fn history(&self, filter: &HistoryFilter, depth: usize) -> Vec<JobRecord> {
        let state = self.shared.lock();
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
        self.shared.lock().jobs.get(&id)?.committed.clone()
    }

    /// Unpauses the fleet (after [`FarmConfig::start_paused`] or a
    /// [`FarmConfig::pause_on_fault`] breakpoint).
    pub fn start(&self) {
        self.shared.transition(|s| s.paused = false);
    }

    /// Blocks until the queue is empty and no job is executing. Call
    /// [`Farm::start`] first if the farm is paused with queued work —
    /// paused jobs never drain.
    pub fn wait_idle(&self) {
        let idle = |s: &FarmState| s.queue.is_empty() && s.running == 0;
        drop(self.shared.lock_when(idle));
    }

    /// Blocks until the fleet is paused with no job executing — the
    /// rendezvous for [`FarmConfig::pause_on_fault`] breakpoints.
    pub fn wait_paused(&self) {
        drop(self.shared.lock_when(|s| s.paused && s.running == 0));
    }

    /// Stops accepting submissions, winds down the workers (running jobs
    /// finish their current execution; queued jobs stay queued) and joins
    /// the fleet.
    pub fn shutdown(&self) {
        self.shared.transition(FarmState::shutdown);
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handles.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Farm {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The per-job [`RunControl`]: polls the job's cooperative-cancel flag at
/// every phase boundary and streams phase telemetry into the farm's
/// progress sink.
struct WorkerControl<'a> {
    shared: &'a FarmShared,
    id: JobId,
}

impl RunControl for WorkerControl<'_> {
    fn should_stop(&self, _next_phase: usize) -> bool {
        self.shared.lock().should_stop(self.id)
    }

    fn on_phase_started(&self, _index: usize, name: &str) {
        self.shared.transition(|s| s.phase_started(self.id, name));
    }

    fn on_phase_finished(&self, index: usize, report: &PhaseReport) {
        let row = self
            .shared
            .transition(|s| s.phase_finished(self.id, index, report));
        self.shared.emit(Some(row));
    }
}

/// Claims and runs jobs until the farm shuts down. A job that panics is
/// settled `Failed`, and the worker goes on to the next claim.
fn worker_loop(shared: &FarmShared) {
    let pool = (shared.planner_threads > 0).then(|| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(shared.planner_threads)
            .build()
            .expect("building the worker's planner pool")
    });
    loop {
        let ready = |s: &FarmState| s.shutdown || !(s.paused || s.queue.is_empty());
        let Some(mut claim) = shared.lock_when(ready).claim(Instant::now()) else {
            return;
        };
        shared.changed.notify_all();
        let (id, started) = (claim.id, Instant::now());
        let run = || {
            shared.emit(claim.started.take());
            let control = WorkerControl { shared, id };
            let execute = || claim.execute(&control);
            match &pool {
                Some(pool) => pool.install(execute),
                None => execute(),
            }
        };
        let execution = catch_unwind(AssertUnwindSafe(run)).map_err(|panic| panic_message(&*panic));
        let run_ms = ms_between(started, Instant::now());
        let finished = shared.transition(|s| s.settle(id, execution, run_ms, Instant::now()));
        // The worker only counts as idle once the job's terminal telemetry
        // is out, even when the sink panics on it: `wait_idle` returning
        // implies every `ScenarioFinished` was delivered.
        let _ = catch_unwind(AssertUnwindSafe(|| shared.emit(finished)));
        shared.transition(FarmState::release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use labchip::scenario::CollectingProgress;
    use labchip_units::GridDims;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::sync::OnceLock;
    use std::time::Duration;

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

    /// A progress sink that panics on every event its predicate selects.
    struct TrippingSink(fn(&ProgressEvent) -> bool);

    impl Progress for TrippingSink {
        fn on_event(&self, event: &ProgressEvent) {
            if (self.0)(event) {
                panic!("sink tripped on {event:?}");
            }
        }
    }

    /// Runs `step` on a helper thread and fails the test, rather than
    /// hanging it, if the step has not returned within a minute.
    fn within_a_minute(farm: &Arc<Farm>, step: fn(&Farm)) {
        let (done, returned) = std::sync::mpsc::channel();
        let farm = Arc::clone(farm);
        let helper = std::thread::spawn(move || {
            step(&farm);
            let _ = done.send(());
        });
        returned
            .recv_timeout(Duration::from_secs(60))
            .expect("the farm wedged instead of returning");
        helper.join().expect("the helper thread returned");
    }

    #[test]
    fn a_job_that_panics_fails_alone_and_its_worker_runs_the_next() {
        let workload = small_workload();
        let protocol = small_protocol(&workload, 8);
        let sink = TrippingSink(
            |event| matches!(event, ProgressEvent::Row { scenario, index: 0, .. } if scenario == "job-0"),
        );
        let config = FarmConfig {
            workers: 1,
            workload,
            ..FarmConfig::default()
        };
        let farm = Arc::new(Farm::with_progress(config, Arc::new(sink)));
        let first = farm.submit(protocol.clone(), JobSpec::tenant("a")).unwrap();
        let second = farm.submit(protocol.clone(), JobSpec::tenant("a")).unwrap();
        within_a_minute(&farm, Farm::wait_idle);
        let record = farm.record(first).expect("job exists");
        match &record.status {
            JobStatus::Failed { error } => {
                assert!(
                    error.starts_with("panicked: sink tripped on Row"),
                    "{error}"
                );
            }
            other => panic!("the panicking job ended {other:?}: {}", record.detail),
        }
        // The panicked execution commits nothing beyond what was committed
        // before it (here: nothing).
        assert_eq!(record.journal_events, 0);
        assert_eq!(farm.accumulated_journal(first).map(|j| j.len()), Some(0));
        let (hash, events) = baseline(&workload, &protocol);
        let record = farm.record(second).expect("job exists");
        assert_eq!(record.status, JobStatus::Done, "{}", record.detail);
        assert_eq!(record.state_hash, Some(format!("{hash:#018x}")));
        assert_eq!(record.journal_events, events);
        within_a_minute(&farm, Farm::shutdown);
    }

    #[test]
    fn a_sink_that_panics_on_every_event_still_settles_every_job() {
        let workload = small_workload();
        let protocol = small_protocol(&workload, 4);
        let config = FarmConfig {
            workers: 2,
            workload,
            ..FarmConfig::default()
        };
        let farm = Arc::new(Farm::with_progress(
            config,
            Arc::new(TrippingSink(|_| true)),
        ));
        let ids: Vec<JobId> = ["a", "b", "a"]
            .into_iter()
            .map(|tenant| {
                farm.submit(protocol.clone(), JobSpec::tenant(tenant))
                    .unwrap()
            })
            .collect();
        within_a_minute(&farm, Farm::wait_idle);
        for id in ids {
            let record = farm.record(id).expect("job exists");
            assert!(record.status.is_terminal(), "{id}: {:?}", record.status);
        }
        within_a_minute(&farm, Farm::shutdown);
        assert!(matches!(
            farm.submit(protocol, JobSpec::default()),
            Err(SubmitError::ShuttingDown)
        ));
    }

    /// Seeds the interleaving proptest draws jobs from.
    const SEEDS: u64 = 2;

    /// The uninterrupted state hash (as a record shows it) and journal of
    /// the proptest protocol, per seed.
    fn baselines() -> &'static [(String, Journal)] {
        static BASELINES: OnceLock<Vec<(String, Journal)>> = OnceLock::new();
        BASELINES.get_or_init(|| {
            (0..SEEDS)
                .map(|seed| {
                    let config = WorkloadConfig {
                        seed,
                        ..small_workload()
                    };
                    let protocol = small_protocol(&config, 6);
                    let (outcome, journal) = BatchDriver::new(config).run_journaled(&protocol, 0);
                    (format!("{:#018x}", outcome.state.state_hash()), journal)
                })
                .collect()
        })
    }

    /// How the inline executor ends one run of a claimed job.
    #[derive(Debug, Clone, Copy)]
    enum Ending {
        /// Runs to the end, or to the job's armed kill.
        AsArmed,
        /// Another thread cancels the job after the first phase this run
        /// finishes.
        CancelAfterFirstPhase,
        /// The first progress row of this run panics.
        PanicOnFirstRow,
    }

    /// The inline executor's [`RunControl`]: the pure core's phase
    /// transitions, plus the cancel or panic its [`Ending`] injects.
    struct Inline<'a> {
        state: &'a RefCell<FarmState>,
        id: JobId,
        ending: Ending,
        /// Whether a phase of this run has finished yet.
        rowed: std::cell::Cell<bool>,
    }

    impl RunControl for Inline<'_> {
        fn should_stop(&self, _next_phase: usize) -> bool {
            self.state.borrow().should_stop(self.id)
        }

        fn on_phase_started(&self, _index: usize, name: &str) {
            self.state.borrow_mut().phase_started(self.id, name);
        }

        fn on_phase_finished(&self, index: usize, report: &PhaseReport) {
            let row = self
                .state
                .borrow_mut()
                .phase_finished(self.id, index, report);
            if self.rowed.replace(true) {
                return;
            }
            match self.ending {
                Ending::CancelAfterFirstPhase => {
                    let cancel = self.state.borrow_mut().cancel(self.id, Instant::now());
                    assert!(matches!(cancel, (true, None)), "{cancel:?}");
                }
                Ending::PanicOnFirstRow => panic!("injected panic on {row:?}"),
                Ending::AsArmed => {}
            }
        }
    }

    /// The pure core under a random interleaving, with the model the test
    /// checks it against.
    struct Interleaving {
        state: RefCell<FarmState>,
        /// Claimed jobs not yet run, in claim order.
        claimed: Vec<Claim>,
        /// The queue as the model expects it: per-tenant FIFOs of job ids.
        fifo: BTreeMap<String, VecDeque<JobId>>,
        /// `ScenarioStarted` / `ScenarioFinished` events returned per job.
        started: BTreeMap<JobId, usize>,
        finished: BTreeMap<JobId, usize>,
        /// Every job that turned terminal, with the status it turned to.
        terminal: BTreeMap<JobId, JobStatus>,
    }

    impl Interleaving {
        fn new() -> Self {
            let config = FarmConfig {
                queue_depth: 3,
                workload: small_workload(),
                ..FarmConfig::default()
            };
            Self {
                state: RefCell::new(FarmState::new(&config)),
                claimed: Vec::new(),
                fifo: BTreeMap::new(),
                started: BTreeMap::new(),
                finished: BTreeMap::new(),
                terminal: BTreeMap::new(),
            }
        }

        fn finished(&mut self, id: JobId, event: Option<ProgressEvent>) {
            if let Some(event) = event {
                assert!(matches!(event, ProgressEvent::ScenarioFinished { .. }));
                *self.finished.entry(id).or_default() += 1;
            }
        }

        fn submit(&mut self, tenant: String, seed: u64, kill_quarter: Option<u64>) {
            let mut spec = JobSpec::tenant(tenant.clone()).with_seed(seed);
            if let Some(quarter) = kill_quarter {
                let events = baselines()[seed as usize].1.len() as u64;
                spec = spec.with_fault(FaultPlan::after(events * quarter / 4));
            }
            let protocol = small_protocol(&small_workload(), 6);
            let mut state = self.state.borrow_mut();
            let room = state.queue.len() < state.queue.capacity();
            match state.submit(protocol, spec, Instant::now()) {
                Ok(id) => {
                    assert!(room, "{id} was admitted past the capacity");
                    self.fifo.entry(tenant).or_default().push_back(id);
                }
                Err(error) => assert!(!room, "rejected with room: {error:?}"),
            }
        }

        fn claim(&mut self) {
            let Some(claim) = self.state.borrow_mut().claim(Instant::now()) else {
                assert!(self.fifo.values().all(VecDeque::is_empty));
                return;
            };
            let tenant = self.state.borrow().jobs[&claim.id].record.tenant.clone();
            let expected = self.fifo.get_mut(&tenant).and_then(VecDeque::pop_front);
            assert_eq!(expected, Some(claim.id), "tenant {tenant} left FIFO order");
            if claim.started.is_some() {
                *self.started.entry(claim.id).or_default() += 1;
            }
            self.claimed.push(claim);
        }

        fn cancel(&mut self, id: JobId) {
            let before = self
                .state
                .borrow()
                .jobs
                .get(&id)
                .map(|job| job.record.status.clone());
            let (took, event) = self.state.borrow_mut().cancel(id, Instant::now());
            match before {
                Some(JobStatus::Queued) => {
                    assert!(took);
                    let tenant = &self.state.borrow().jobs[&id].record.tenant;
                    self.fifo
                        .get_mut(tenant)
                        .unwrap()
                        .retain(|queued| *queued != id);
                }
                Some(JobStatus::Running { .. }) => assert!(took && event.is_none()),
                _ => assert!(!took && event.is_none()),
            }
            self.finished(id, event);
        }

        fn run(&mut self, slot: usize, ending: Ending) {
            if self.claimed.is_empty() {
                return;
            }
            let claim = self.claimed.remove(slot % self.claimed.len());
            let control = Inline {
                state: &self.state,
                id: claim.id,
                ending,
                rowed: Default::default(),
            };
            let execution = catch_unwind(AssertUnwindSafe(|| claim.execute(&control)))
                .map_err(|panic| panic_message(&*panic));
            let event = self
                .state
                .borrow_mut()
                .settle(claim.id, execution, 1.0, Instant::now());
            self.state.borrow_mut().release();
            let record = self.state.borrow().jobs[&claim.id].record.clone();
            if record.status == JobStatus::Queued {
                let fifo = self.fifo.entry(record.tenant).or_default();
                fifo.push_front(claim.id);
            }
            self.finished(claim.id, event);
        }

        /// The invariants that hold between any two steps.
        fn check(&mut self) {
            let state = self.state.borrow();
            let requeued = state
                .jobs
                .values()
                .filter(|job| job.record.status == JobStatus::Queued && job.checkpoint.is_some())
                .count();
            assert!(state.queue.len() <= state.queue.capacity() + requeued);
            let modelled: usize = self.fifo.values().map(VecDeque::len).sum();
            assert_eq!(state.queue.len(), modelled);
            assert_eq!(state.running, self.claimed.len());
            for (id, job) in &state.jobs {
                match self.terminal.get(id) {
                    Some(status) => assert_eq!(&job.record.status, status, "{id} left terminal"),
                    None if job.record.status.is_terminal() => {
                        self.terminal.insert(*id, job.record.status.clone());
                    }
                    None => {}
                }
            }
        }

        /// Runs every claimed and queued job to its end.
        fn drain(&mut self) {
            loop {
                self.claim();
                if self.claimed.is_empty() {
                    return;
                }
                while !self.claimed.is_empty() {
                    self.run(0, Ending::AsArmed);
                }
                self.check();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings of submit, claim, cancel and run (to the
        /// end, to an armed kill, to a mid-run cancel, or to a panic) keep
        /// the capacity bound and per-tenant FIFO order, end every job in
        /// exactly one terminal state with one `ScenarioFinished` per started
        /// stream, lose no job to a panic, and resume every killed job to
        /// its baseline journal and hash.
        #[test]
        fn interleavings_end_every_job_once_and_killed_jobs_match_the_baseline(
            steps in proptest::collection::vec((0u8..8, 0u8..6, 0u8..3), 1..32)
        ) {
            let mut run = Interleaving::new();
            for &(kind, a, b) in &steps {
                match kind {
                    0..=2 => run.submit(
                        format!("t{}", a % 3),
                        u64::from(b) % SEEDS,
                        (a >= 3).then(|| u64::from(b) + 1),
                    ),
                    3 | 4 => run.claim(),
                    5 => run.cancel(JobId(u64::from(a))),
                    _ => run.run(
                        usize::from(a),
                        match b {
                            1 => Ending::CancelAfterFirstPhase,
                            2 => Ending::PanicOnFirstRow,
                            _ => Ending::AsArmed,
                        },
                    ),
                }
                run.check();
            }
            run.drain();
            let state = run.state.borrow();
            prop_assert!(state.queue.is_empty() && state.running == 0);
            for (id, job) in &state.jobs {
                let record = &job.record;
                let (hash, journal) = &baselines()[record.config.seed as usize];
                prop_assert!(run.terminal.contains_key(id), "{id} never ended");
                let started = run.started.get(id).copied().unwrap_or(0);
                prop_assert!(started <= 1, "{id} started {started} times");
                prop_assert_eq!(run.finished.get(id).copied().unwrap_or(0), started);
                if let Some(committed) = &job.committed {
                    prop_assert!(journal.events().starts_with(committed.events()), "{id}");
                }
                match &record.status {
                    JobStatus::Done => {
                        prop_assert_eq!(record.state_hash.as_ref(), Some(hash), "{id}");
                        prop_assert_eq!(record.journal_events, journal.len());
                    }
                    JobStatus::Failed { error } => {
                        prop_assert!(error.starts_with("panicked: injected panic"), "{error}");
                    }
                    JobStatus::Cancelled => {}
                    other => prop_assert!(false, "{id} ended {other:?}"),
                }
            }
        }
    }
}
