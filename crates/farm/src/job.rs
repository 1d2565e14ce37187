//! Job-facing types of the farm service: identifiers, submission specs,
//! the status state machine and the durable [`JobRecord`].
//!
//! The job lifecycle is a small state machine:
//!
//! ```text
//!            submit                cancel (queued)
//!   Queued ─────────▶ Running ┐      └──▶ Cancelled
//!     ▲                  │    │ cancel (mid-run, next phase boundary)
//!     │ injected kill:   │    └──────▶ Cancelled
//!     │ requeue w/       ├──▶ Done
//!     │ checkpoint       ├──▶ Failed (invariant violation, unfit checkpoint)
//!     └──────────────────┤
//!                        └──▶ Failed (panic in a phase or the progress sink)
//! ```
//!
//! Every terminal state leaves a [`JobRecord`] in the farm history — the
//! JSON-serialisable answer of the `history`/`status` endpoints, carrying
//! the protocol and the effective workload config so a recorded job can be
//! re-run (and its journal diffed) offline.

use labchip::workload::{Protocol, WorkloadConfig};
use labchip_manipulation::journal::FaultPlan;
use serde::{Deserialize, Serialize};

use crate::queue::QueueFull;

/// Farm-wide unique job identifier, assigned at submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

impl JobId {
    /// Parses both the bare number (`"7"`) and the display form
    /// (`"job-7"`).
    pub fn parse(text: &str) -> Option<JobId> {
        let digits = text.strip_prefix("job-").unwrap_or(text);
        digits.trim().parse().ok().map(JobId)
    }
}

/// Per-job submission knobs riding along with the [`Protocol`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The tenant the job is accounted (and scheduled) under.
    pub tenant: String,
    /// Batch-placement / sensor seed override; `None` inherits the farm's
    /// base workload seed. Two jobs with the same protocol, config and
    /// seed produce bit-identical final chip states regardless of which
    /// worker runs them, in what order, or how often they were resumed.
    pub seed: Option<u64>,
    /// Sensor-noise override for this job; `None` inherits the farm's.
    pub noise_scale: Option<f64>,
    /// Chaos knob: an injected kill point (in journaled events) armed for
    /// the job's *first* execution. The worker dies cooperatively at the
    /// fault, the job re-queues with its checkpoint, and the next
    /// execution resumes — the crash-recovery path, exercised on demand.
    pub fault: Option<FaultPlan>,
}

impl JobSpec {
    /// A spec for `tenant` with every knob inherited from the farm.
    pub fn tenant(tenant: impl Into<String>) -> Self {
        Self {
            tenant: tenant.into(),
            seed: None,
            noise_scale: None,
            fault: None,
        }
    }

    /// Sets the per-job seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Arms an injected kill point for the first execution (builder
    /// style).
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }
}

impl Default for JobSpec {
    fn default() -> Self {
        Self::tenant("default")
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Waiting in the tenant queue (possibly holding a checkpoint from an
    /// interrupted execution, counted in [`JobRecord::resumes`]).
    Queued,
    /// Executing on a worker.
    Running {
        /// The protocol phase currently executing.
        phase: String,
    },
    /// Completed every phase.
    Done,
    /// A phase hit an invariant violation, the checkpoint did not fit, or
    /// the execution panicked (`error` starts with `panicked: `).
    Failed {
        /// The abort reason.
        error: String,
    },
    /// Cancelled — before starting, or cooperatively at a phase boundary.
    Cancelled,
}

impl JobStatus {
    /// Whether the job can make no further progress.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed { .. } | JobStatus::Cancelled
        )
    }

    /// Short status label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running { .. } => "running",
            JobStatus::Done => "done",
            JobStatus::Failed { .. } => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// `submit` refused the job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — explicit backpressure; retry
    /// after the fleet drains.
    Rejected(QueueFull),
    /// The farm is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected(full) => write!(f, "submission rejected: {full}"),
            SubmitError::ShuttingDown => write!(f, "farm is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The durable record of one job — the JSON the `status`/`history`
/// endpoints serve, self-contained enough (protocol + effective config +
/// seed) to re-run the job offline and diff its journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The farm-assigned identifier.
    pub id: JobId,
    /// Owning tenant.
    pub tenant: String,
    /// The submitted protocol.
    pub protocol: Protocol,
    /// The effective workload configuration the job ran under (farm base
    /// config with the spec's seed/noise overrides applied).
    pub config: WorkloadConfig,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Protocol phases completed so far.
    pub phases_completed: usize,
    /// Times the job was resumed from a checkpoint after an injected
    /// kill.
    pub resumes: usize,
    /// Journaled chip-state events committed so far (the replayable
    /// prefix).
    pub journal_events: usize,
    /// Wall-clock spent queued, milliseconds.
    pub queue_ms: f64,
    /// Wall-clock spent executing on a worker, milliseconds.
    pub run_ms: f64,
    /// FNV hash of the final chip state, as `0x`-hex — the equivalence
    /// oracle against an uninterrupted run. `None` until terminal.
    pub state_hash: Option<String>,
    /// One-line outcome summary.
    pub detail: String,
}

impl JobRecord {
    /// Submit-to-terminal latency, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.queue_ms + self.run_ms
    }
}

/// Predicate of the `history` endpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistoryFilter {
    /// Only this tenant's jobs (`None` = all tenants).
    pub tenant: Option<String>,
    /// Only jobs in a terminal state.
    pub terminal_only: bool,
}

impl HistoryFilter {
    /// Every job, any state.
    pub fn all() -> Self {
        Self::default()
    }

    /// Terminal jobs of every tenant.
    pub fn terminal() -> Self {
        Self {
            tenant: None,
            terminal_only: true,
        }
    }

    /// Whether `record` passes the filter.
    pub fn matches(&self, record: &JobRecord) -> bool {
        if let Some(tenant) = &self.tenant {
            if &record.tenant != tenant {
                return false;
            }
        }
        !self.terminal_only || record.status.is_terminal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_parses_both_spellings() {
        assert_eq!(JobId::parse("7"), Some(JobId(7)));
        assert_eq!(JobId::parse("job-7"), Some(JobId(7)));
        assert_eq!(JobId::parse(" 12 "), Some(JobId(12)));
        assert_eq!(JobId::parse("job-x"), None);
        assert_eq!(JobId(3).to_string(), "job-3");
    }

    #[test]
    fn status_round_trips_and_classifies() {
        for status in [
            JobStatus::Queued,
            JobStatus::Running {
                phase: "route".into(),
            },
            JobStatus::Done,
            JobStatus::Failed {
                error: "boom".into(),
            },
            JobStatus::Cancelled,
        ] {
            let text = serde_json::to_string(&status);
            let back: JobStatus = serde_json::from_str(&text).expect("status round trips");
            assert_eq!(back, status);
        }
        assert!(!JobStatus::Queued.is_terminal());
        assert!(!JobStatus::Running { phase: "x".into() }.is_terminal());
        assert!(JobStatus::Done.is_terminal());
        assert!(JobStatus::Cancelled.is_terminal());
        assert!(JobStatus::Failed { error: "e".into() }.is_terminal());
    }

    #[test]
    fn history_filter_selects_by_tenant_and_state() {
        let record = |tenant: &str, status: JobStatus| JobRecord {
            id: JobId(1),
            tenant: tenant.into(),
            protocol: Protocol::new("p"),
            config: WorkloadConfig::default(),
            status,
            phases_completed: 0,
            resumes: 0,
            journal_events: 0,
            queue_ms: 0.0,
            run_ms: 0.0,
            state_hash: None,
            detail: String::new(),
        };
        assert!(HistoryFilter::all().matches(&record("a", JobStatus::Queued)));
        assert!(!HistoryFilter::terminal().matches(&record("a", JobStatus::Queued)));
        assert!(HistoryFilter::terminal().matches(&record("a", JobStatus::Done)));
        let only_b = HistoryFilter {
            tenant: Some("b".into()),
            terminal_only: false,
        };
        assert!(!only_b.matches(&record("a", JobStatus::Done)));
        assert!(only_b.matches(&record("b", JobStatus::Queued)));
    }
}
