//! # labchip_farm — the multi-tenant chip-farm job service
//!
//! The DATE'05 chip (`labchip` core) simulates *one* microelectronic
//! biochip running *one* assay protocol. This crate scales that out to a
//! production-style service: a [`Farm`] owns a bounded multi-tenant job
//! queue and a fleet of worker threads, each driving a
//! [`BatchDriver`](labchip::workload::BatchDriver) over its own
//! chip state. Submitted protocols run to completion, can be cancelled
//! cooperatively at phase boundaries, and survive injected mid-run kills
//! by resuming from phase-boundary checkpoints — bit-identically to an
//! uninterrupted run, inheriting the journal/replay/checkpoint guarantees
//! the event-sourced chip state established.
//!
//! The crate splits into:
//!
//! * [`queue`] — the pure scheduling structure: FIFO within tenant,
//!   round-robin across tenants, bounded with explicit
//!   [`QueueFull`] backpressure;
//! * [`job`] — the public job model: [`JobId`], [`JobSpec`],
//!   [`JobStatus`], the durable [`JobRecord`] and [`HistoryFilter`], all
//!   JSON-serialisable;
//! * [`farm`] — the service itself: [`Farm`], [`FarmConfig`], the worker
//!   fleet and the job-control API (`submit` / `cancel` / `status` /
//!   `history`);
//! * [`history`] — on-disk persistence of job records and journals for
//!   offline inspection and `report journal-diff`;
//! * [`group`] — a sharded chip as a job *group*: one worker per shard
//!   folding its shard's journal segments, barrier rendezvous at phase
//!   boundaries, and whole-group checkpoint/resume (kill any shard
//!   worker → the group resumes bit-identically);
//! * [`scenario`] — experiment E15 (`e15_farm`): fleet-throughput and
//!   recovery benchmarking of the farm; and [`fleet_scenario`] —
//!   experiment E16 (`e16_fleet`): sharded-vs-monolithic equivalence
//!   sweeps; plus [`full_registry`] — the complete E1..E16 scenario
//!   registry (core's registry stays E1..E14 because this crate sits
//!   above it in the dependency order).

pub mod farm;
pub mod fleet_scenario;
pub mod group;
pub mod history;
pub mod job;
pub mod queue;
pub mod scenario;

pub use farm::{Farm, FarmConfig};
pub use fleet_scenario::FleetScenario;
pub use group::{GroupCheckpoint, GroupKill, GroupOutcome, ResumeError, ShardGroup};
pub use history::HistoryStore;
pub use job::{HistoryFilter, JobId, JobRecord, JobSpec, JobStatus, SubmitError};
pub use queue::{QueueFull, TenantQueue};
pub use scenario::{full_registry, FarmScenario};
