//! Protocols as data: serde-round-trippable phase lists, and the
//! [`BatchDriver`] methods that execute them.
//!
//! A [`Protocol`] is an ordered list of [`PhaseSpec`]s with per-phase knobs
//! — the declarative form of an assay. A spec *is* the phase: its one
//! `match` dispatches to the phase body in [`phases`].
//! [`BatchDriver::execute`] runs the specs in order over one shared
//! [`ChipState`], snapshots the time ledger around each phase (so every
//! [`PhaseReport`] carries exactly what that phase cost), and assembles the
//! final [`CycleReport`] from the cycle's [`Accumulators`]. The canned cycle
//! ([`Protocol::canned_cycle`]) is the driver's standard
//! `load → route → sense → recover → flush` sequence; anything else —
//! repeated sense/route rounds, merge assays, wash-free cycles — is just a
//! different list.
//!
//! ## Journal, checkpoint, resume
//!
//! [`BatchDriver::execute`] is the one way a protocol runs. A
//! [`Start`] says whether a fresh chip runs a protocol or a [`Checkpoint`]
//! is continued; [`RunOptions`] pick the [`Journaling`] and the
//! [`RunControl`] polled at every phase boundary. With a journal attached
//! every mutation of the run is recorded, and
//! [`replay`](labchip_manipulation::journal::replay) reconstructs the
//! final state bit-for-bit — the equivalence oracle that replaced the
//! retired legacy monolith. An armed [`FaultPlan`] kill point kills the
//! run cooperatively, and the [`StoppedRun`] carries the checkpoint taken
//! at the start of the interrupted phase (chip snapshot + accumulators +
//! journal offset). Resuming from it finishes the protocol; because every
//! RNG stream is a pure function of seeds and counters captured in the
//! checkpoint, the resumed run reaches a final state **bit-identical** to
//! an uninterrupted execution — the property scenario E14 sweeps across
//! ≥50 kill points.

use super::phases::{
    self, sort_capacity, Accumulators, PhaseCtx, PhaseError, PhaseReport, RouteTarget,
};
use super::{BatchDriver, CycleReport, RecoveryPolicy};
use labchip_manipulation::journal::{FaultPlan, Journal};
use labchip_manipulation::state::{ChipState, ChipStateSnapshot, TimeBreakdown};
use labchip_units::{GridDims, Seconds};
use serde::{Deserialize, Serialize};

/// One phase of a [`Protocol`], with its knobs: the unit of chip work a
/// protocol is composed from.
///
/// Every phase mutates the shared [`ChipState`] (grid, plan, time ledger)
/// and the cycle's [`Accumulators`], charges its simulated time through
/// [`ChipState::charge`], and polls [`ChipState::fault_tripped`] at its
/// mutation boundaries so an armed [`FaultPlan`] kills it cooperatively.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PhaseSpec {
    /// Loads a seeded batch onto the loading lattice (fluidics).
    Load {
        /// Particles requested (the placement truncates to the lattice and
        /// the optional capacity clamp).
        particles: usize,
        /// Optional cap on placed particles (the canned cycle clamps to the
        /// sort targets' capacity, as the monolithic driver did).
        capacity_clamp: Option<usize>,
    },
    /// Routes the population to a [`RouteTarget`] with the incremental
    /// sharded planner, checks every planned move against the force
    /// envelope and the programming budget, executes the plan, and replaces
    /// the plan map with the target goals.
    Route {
        /// Where to send the population.
        target: RouteTarget,
    },
    /// Synthesizes one full-array detection scan through the noisy sensor
    /// chain and diffs the decisions against the plan.
    Sense {
        /// Frames averaged (None = the workload's `detection_frames`).
        frames: Option<u32>,
    },
    /// The bounded closed-loop recovery: re-scans suspect sites with
    /// heavier averaging, pairs confirmed strays with vacant plan slots,
    /// re-routes them with the incremental router, and verifies the
    /// touched sites.
    Recover {
        /// Policy override (None = the workload's configured policy).
        policy: Option<RecoveryPolicy>,
    },
    /// Flushes the batch out through the outlet (fluidics), snapshotting
    /// the final plan-vs-reality counts just before the chip empties.
    Flush,
}

impl PhaseSpec {
    /// Short stable name of the phase, as journaled in `PhaseStarted`,
    /// carried by [`PhaseError`] and prefixed to every [`PhaseReport`].
    pub fn name(&self) -> &'static str {
        match self {
            PhaseSpec::Load { .. } => "load",
            PhaseSpec::Route { .. } => "route",
            PhaseSpec::Sense { .. } => "sense",
            PhaseSpec::Recover { .. } => "recover",
            PhaseSpec::Flush => "flush",
        }
    }

    /// Executes the phase. The returned report's `time` field is
    /// overwritten by [`BatchDriver::execute`] with the measured ledger
    /// delta.
    ///
    /// # Errors
    ///
    /// [`PhaseError::Interrupted`] when an armed fault plan tripped at one
    /// of the phase's poll points; [`PhaseError::Invariant`] when the grid
    /// rejected an operation the phase's own bookkeeping says must succeed
    /// (a bug or corrupted state — reported, never panicked). Either way
    /// the driver journals a `PhaseAborted` marker and the protocol can be
    /// resumed from the checkpoint taken before the phase.
    pub(crate) fn run(
        &self,
        state: &mut ChipState,
        ctx: &mut PhaseCtx,
    ) -> Result<PhaseReport, PhaseError> {
        let name = self.name();
        if state.fault_tripped() {
            return Err(PhaseError::interrupted(name));
        }
        match self {
            PhaseSpec::Load {
                particles,
                capacity_clamp,
            } => phases::load(name, state, ctx, *particles, *capacity_clamp),
            PhaseSpec::Route { target } => phases::route(name, state, ctx, target),
            PhaseSpec::Sense { frames } => phases::sense(name, state, ctx, *frames),
            PhaseSpec::Recover { policy } => phases::recover(name, state, ctx, *policy),
            PhaseSpec::Flush => phases::flush(name, state, ctx),
        }
    }
}

/// A named, ordered, serde-round-trippable list of assay phases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Protocol {
    /// Human-readable protocol name.
    pub name: String,
    /// The phases, executed in order.
    pub phases: Vec<PhaseSpec>,
}

impl Protocol {
    /// Creates an empty protocol.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            phases: Vec::new(),
        }
    }

    /// Appends a phase (builder style).
    pub fn with_phase(mut self, phase: PhaseSpec) -> Self {
        self.phases.push(phase);
        self
    }

    /// Number of phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// `true` when the protocol has no phases.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// The canned `load → route(sort) → sense → recover → flush` cycle the
    /// [`BatchDriver`] has always run — now expressed
    /// as data. `dims`/`min_separation` fix the sort-capacity load clamp
    /// exactly as the monolithic driver clamped it.
    pub fn canned_cycle(dims: GridDims, min_separation: u32, particles: usize) -> Self {
        Self {
            name: "canned-cycle".into(),
            phases: vec![
                PhaseSpec::Load {
                    particles,
                    capacity_clamp: Some(sort_capacity(dims, min_separation)),
                },
                PhaseSpec::Route {
                    target: RouteTarget::SortSplit,
                },
                PhaseSpec::Sense { frames: None },
                PhaseSpec::Recover { policy: None },
                PhaseSpec::Flush,
            ],
        }
    }
}

/// The record of one executed protocol: the assembled cycle report, the
/// per-phase ledger, and the final chip state (for inspection and
/// invariant checks).
#[derive(Debug)]
pub struct ProtocolOutcome {
    /// The cycle-level report (same shape the monolithic driver produced).
    pub report: CycleReport,
    /// One report per executed phase, in order.
    pub phases: Vec<PhaseReport>,
    /// The chip state after the last phase.
    pub state: ChipState,
}

/// A resumable point in a protocol execution: everything needed to
/// continue from the start of phase `next_phase` — the durable chip state,
/// every cycle accumulator, the journal offset the run had reached,
/// and the reports of the phases already completed.
///
/// Serde-round-trippable: [`Checkpoint::to_json`] /
/// [`Checkpoint::from_json`] are the on-disk form a chip-farm worker
/// would persist between assays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The protocol being executed.
    pub protocol: Protocol,
    /// Zero-based cycle index of the run.
    pub cycle: usize,
    /// Index of the next phase to execute (the interrupted phase re-runs
    /// from its start — phase-internal determinism makes that exact).
    pub next_phase: usize,
    /// The durable chip state at the start of `next_phase`.
    pub state: ChipStateSnapshot,
    /// Every cycle accumulator at the start of `next_phase`.
    pub ctx: Accumulators,
    /// Journal length when the checkpoint was taken: replaying the journal
    /// truncated to this offset reconstructs `state` exactly.
    pub journal_offset: usize,
    /// Reports of the phases completed before the checkpoint.
    pub completed: Vec<PhaseReport>,
}

impl Checkpoint {
    /// Serializes the checkpoint to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self)
    }

    /// Parses a checkpoint from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error for malformed input — including
    /// non-finite ledger floats, which the JSON writer encodes as `null`
    /// and the typed reader rejects rather than resurrecting as NaN.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// How [`BatchDriver::execute`] starts a run.
#[derive(Debug, Clone, Copy)]
pub enum Start<'p> {
    /// A fresh chip running `protocol` as cycle number `cycle`, which fixes
    /// the batch seed and the scan-pass numbering.
    Fresh {
        /// The protocol to run.
        protocol: &'p Protocol,
        /// Zero-based cycle index.
        cycle: usize,
    },
    /// Continue from a [`Checkpoint`]; the interrupted phase re-runs from
    /// its start.
    Resume(&'p Checkpoint),
}

/// Whether a run records an event [`Journal`], and whether a fault kill
/// point is armed on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Journaling {
    /// No journal: the run returns an empty one.
    Off,
    /// Every chip-state mutation of the run is recorded.
    On,
    /// Recorded, with a [`FaultPlan`] kill point armed: once the journal
    /// reaches it, the run dies at the next poll point.
    Armed(FaultPlan),
}

/// How [`BatchDriver::execute`] runs: which journal it records and
/// which [`RunControl`] it polls. The control defaults to [`NeverStop`],
/// the journal to [`Journaling::Off`].
#[derive(Clone, Copy)]
pub struct RunOptions<'c> {
    /// The journal attached to the run.
    pub journal: Journaling,
    /// Polled at every phase boundary.
    pub control: &'c dyn RunControl,
}

impl From<Journaling> for RunOptions<'_> {
    fn from(journal: Journaling) -> Self {
        Self {
            journal,
            control: &NeverStop,
        }
    }
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        Journaling::Off.into()
    }
}

/// Cooperative control over a long-running protocol execution, polled at
/// every phase boundary by [`BatchDriver::execute`].
///
/// This is the hook a job service (the chip farm) hangs cancellation and
/// per-phase progress on: `should_stop` lets an external flag end the run
/// at the next boundary — with a [`Checkpoint`] in hand, so the job can be
/// resumed later or discarded — and the phase callbacks stream job-level
/// telemetry without the runner knowing who is listening.
pub trait RunControl {
    /// Polled at the start of every phase, before it runs. Returning
    /// `true` stops the run at this boundary; the [`StoppedRun`] carries
    /// the checkpoint taken there.
    fn should_stop(&self, next_phase: usize) -> bool;

    /// A phase is about to run.
    fn on_phase_started(&self, _index: usize, _name: &str) {}

    /// A phase completed, with its report.
    fn on_phase_finished(&self, _index: usize, _report: &PhaseReport) {}
}

/// A [`RunControl`] that never stops the run and ignores all telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverStop;

impl RunControl for NeverStop {
    fn should_stop(&self, _next_phase: usize) -> bool {
        false
    }
}

/// Why [`BatchDriver::execute`] refused to resume a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The snapshot's grid or the detected map does not span the
    /// driver's array.
    Dims {
        /// The driver's array.
        expected: GridDims,
        /// The dims of the snapshot's grid or the detected map.
        found: GridDims,
    },
    /// The snapshot's cage separation is not the driver's.
    Separation {
        /// The driver's (clamped) minimum separation.
        expected: u32,
        /// The snapshot grid's separation.
        found: u32,
    },
    /// `next_phase` lies past the protocol's end.
    NextPhase {
        /// The checkpoint's `next_phase`.
        next_phase: usize,
        /// Phases in the checkpoint's protocol.
        phases: usize,
    },
    /// The completed-phase reports do not account for every phase before
    /// `next_phase`.
    Completed {
        /// Reports in the checkpoint.
        completed: usize,
        /// The checkpoint's `next_phase`.
        next_phase: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("checkpoint does not fit: ")?;
        match self {
            Self::Dims { expected, found } => write!(f, "snapshot {found}, runner {expected}"),
            Self::Separation { expected, found } => {
                write!(f, "snapshot separation {found}, runner {expected}")
            }
            Self::NextPhase { next_phase, phases } => {
                write!(f, "next phase {next_phase} of a {phases}-phase protocol")
            }
            Self::Completed {
                completed,
                next_phase,
            } => write!(f, "{completed} phase reports before phase {next_phase}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Why a run stopped early.
#[derive(Debug, PartialEq, Eq)]
pub enum StopCause {
    /// [`RunControl::should_stop`] returned `true` at a phase boundary —
    /// a cooperative cancellation, not a failure.
    Cancelled {
        /// The phase that was about to run when the stop was requested.
        next_phase: usize,
    },
    /// A phase aborted mid-flight: an armed fault kill point tripped, or
    /// an internal invariant was violated.
    Phase(PhaseError),
    /// The [`Start::Resume`] checkpoint does not fit the driver; nothing
    /// ran.
    Rejected(CheckpointError),
}

/// A run that ended before its final phase: the resume point, the journal
/// of everything executed, the outcome so far, and why it stopped.
///
/// The journal prefix of length [`Checkpoint::journal_offset`] replays to
/// the checkpoint state; the tail is the stopped phase's partial work,
/// which a [`Start::Resume`] from the checkpoint re-executes from the
/// phase start.
#[derive(Debug)]
pub struct StoppedRun {
    /// The checkpoint taken at the boundary of the stopped phase (for a
    /// [`StopCause::Rejected`] start, the rejected checkpoint itself).
    pub checkpoint: Checkpoint,
    /// The journal recorded up to the stop.
    pub journal: Journal,
    /// Why the run stopped.
    pub cause: StopCause,
    /// The outcome assembled from the work done so far (for a rejected
    /// checkpoint, what it records). After a phase stop its last row is
    /// the `aborted:` report of the stopped phase.
    pub partial: ProtocolOutcome,
}

impl BatchDriver {
    /// Returns the driver itself. The protocol runner was once a separate
    /// borrow of the driver; this stays only because the repository
    /// benchmark under `chipbench/` is frozen and still calls
    /// `driver.runner().run_journaled(..)` and `.run_controlled(..)`. New
    /// code calls those methods on the driver directly.
    pub fn runner(&self) -> &Self {
        self
    }

    /// The cycle seed: a pure function of the base seed and the cycle
    /// index, unchanged across every driver generation so seeded runs stay
    /// bit-identical.
    fn cycle_seed(&self, cycle: usize) -> u64 {
        self.config
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(cycle as u64 + 1))
    }

    /// The chip's minimum cage separation. A zero separation is physically
    /// meaningless (cages would merge) and the cage grid rejects it; clamp
    /// like the routers do rather than panic on a CLI-supplied
    /// `min_separation=0` override.
    fn separation(&self) -> u32 {
        self.config.min_separation.max(1)
    }

    /// Checks that `checkpoint` fits this driver and its own protocol
    /// before anything is restored from it. The snapshot's own invariants
    /// (particles on its grid, a plan spanning it) were checked when it
    /// was decoded.
    fn check(&self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        let expected = GridDims::square(self.config.array_side);
        let grid = checkpoint.state.grid();
        let detected = checkpoint.ctx.detected.as_ref().map(|map| map.dims());
        for found in std::iter::once(grid.dims()).chain(detected) {
            if found != expected {
                return Err(CheckpointError::Dims { expected, found });
            }
        }
        let found = grid.min_separation();
        if found != self.separation() {
            return Err(CheckpointError::Separation {
                expected: self.separation(),
                found,
            });
        }
        let next_phase = checkpoint.next_phase;
        if next_phase > checkpoint.protocol.len() {
            return Err(CheckpointError::NextPhase {
                next_phase,
                phases: checkpoint.protocol.len(),
            });
        }
        if checkpoint.completed.len() != next_phase {
            return Err(CheckpointError::Completed {
                completed: checkpoint.completed.len(),
                next_phase,
            });
        }
        Ok(())
    }

    /// Executes a protocol — the one entry point of every run, kill and
    /// resume. A checkpoint is taken at the start of every phase, so a
    /// stopped run hands back the resume point of the phase it stopped in;
    /// resuming from it reaches the uninterrupted run's final state, and
    /// its journal continues the stopped run's committed prefix into the
    /// uninterrupted journal.
    ///
    /// ```
    /// use labchip::workload::{
    ///     BatchDriver, Checkpoint, Journaling, Protocol, RunOptions, Start, WorkloadConfig,
    /// };
    /// use labchip_manipulation::journal::FaultPlan;
    /// use labchip_units::GridDims;
    ///
    /// let config = WorkloadConfig { array_side: 32, ..WorkloadConfig::default() };
    /// let protocol = Protocol::canned_cycle(GridDims::square(32), 2, 20);
    /// let driver = BatchDriver::new(config);
    ///
    /// // Arm a kill after 50 journal events — the run dies mid-protocol and
    /// // hands back the resume point plus the journal of everything before it.
    /// let fresh = Start::Fresh { protocol: &protocol, cycle: 0 };
    /// let stopped = driver
    ///     .execute(fresh, Journaling::Armed(FaultPlan::after(50)).into())
    ///     .expect_err("the kill point lies inside the run");
    ///
    /// // The checkpoint is durable JSON; a chip-farm worker would persist it.
    /// let text = stopped.checkpoint.to_json();
    /// let checkpoint = Checkpoint::from_json(&text).unwrap();
    ///
    /// // Resume reaches the exact state the uninterrupted run would have.
    /// let (resumed, _) = driver
    ///     .execute(Start::Resume(&checkpoint), RunOptions::default())
    ///     .expect("the checkpoint fits the driver");
    /// let (baseline, _) = driver.execute(fresh, RunOptions::default()).unwrap();
    /// assert_eq!(resumed.state.state_hash(), baseline.state.state_hash());
    /// ```
    ///
    /// # Errors
    ///
    /// The [`StoppedRun`] when the run ended before its final phase; its
    /// [`StopCause`] says why.
    pub fn execute(
        &self,
        start: Start<'_>,
        options: RunOptions<'_>,
    ) -> Result<(ProtocolOutcome, Journal), Box<StoppedRun>> {
        let (protocol, cycle, first, mut state, acc, mut phases, rejected) = match start {
            Start::Fresh { protocol, cycle } => (
                protocol,
                cycle,
                0,
                ChipState::with_separation(
                    GridDims::square(self.config.array_side),
                    self.separation(),
                ),
                Accumulators::new(cycle, self.cycle_seed(cycle)),
                Vec::with_capacity(protocol.len()),
                None,
            ),
            Start::Resume(checkpoint) => (
                &checkpoint.protocol,
                checkpoint.cycle,
                checkpoint.next_phase,
                ChipState::from_snapshot(checkpoint.state.clone()),
                checkpoint.ctx.clone(),
                checkpoint.completed.clone(),
                self.check(checkpoint)
                    .err()
                    .map(|error| (checkpoint.clone(), StopCause::Rejected(error))),
            ),
        };
        match options.journal {
            Journaling::Off => {}
            Journaling::On => state.attach_journal(),
            Journaling::Armed(fault) => state.attach_journal_with_fault(fault),
        }
        let mut ctx = PhaseCtx { driver: self, acc };
        let stop = 'run: {
            if rejected.is_some() {
                break 'run rejected;
            }
            for (index, spec) in protocol.phases.iter().enumerate().skip(first) {
                let checkpoint = Checkpoint {
                    protocol: protocol.clone(),
                    cycle,
                    next_phase: index,
                    state: state.snapshot(),
                    ctx: ctx.acc.clone(),
                    journal_offset: state.journal().map_or(0, Journal::len),
                    completed: phases.clone(),
                };
                if options.control.should_stop(index) {
                    break 'run Some((checkpoint, StopCause::Cancelled { next_phase: index }));
                }
                options.control.on_phase_started(index, spec.name());
                state.note_phase_started(index, spec.name());
                let ledger_before = *state.time();
                let result = spec.run(&mut state, &mut ctx).and_then(|report| {
                    // The last phase has no later poll point: a kill on its
                    // final event still stops the run before it finishes.
                    if index + 1 == protocol.len() && state.fault_tripped() {
                        Err(PhaseError::interrupted(spec.name()))
                    } else {
                        Ok(report)
                    }
                });
                match result {
                    Ok(mut report) => {
                        report.time = state.time().delta_since(&ledger_before);
                        state.note_phase_finished(index);
                        options.control.on_phase_finished(index, &report);
                        phases.push(report);
                    }
                    Err(error) => {
                        state.note_phase_aborted(index, &error.to_string());
                        phases.push(PhaseReport {
                            phase: format!("aborted:{}", error.phase()),
                            time: TimeBreakdown::default(),
                            moves: 0,
                            particles_after: state.particle_count(),
                            detail: error.to_string(),
                        });
                        break 'run Some((checkpoint, StopCause::Phase(error)));
                    }
                }
            }
            // A flush snapshots the finals itself (pre-clear); protocols that
            // end with the batch still on-chip are snapshotted here.
            if !matches!(protocol.phases.last(), Some(PhaseSpec::Flush)) {
                ctx.capture_finals(&mut state);
            }
            None
        };
        let journal = state.take_journal().unwrap_or_default();
        let outcome = self.assemble(cycle, state, ctx.acc, phases);
        match stop {
            None => Ok((outcome, journal)),
            Some((checkpoint, cause)) => Err(Box::new(StoppedRun {
                checkpoint,
                journal,
                cause,
                partial: outcome,
            })),
        }
    }

    /// Assembles the outcome from the consumed per-run state.
    fn assemble(
        &self,
        cycle: usize,
        state: ChipState,
        acc: Accumulators,
        phases: Vec<PhaseReport>,
    ) -> ProtocolOutcome {
        let finals = acc.finals.unwrap_or_default();
        let report = CycleReport {
            cycle,
            requested: acc.requested,
            routed: acc.routed,
            makespan_steps: acc.makespan_steps,
            total_moves: acc.total_moves,
            planning: Seconds::ZERO,
            time: *state.time(),
            moves_checked: acc.moves_checked,
            infeasible_moves: acc.infeasible_moves,
            occupancy_detected: finals.occupancy_detected,
            detection: acc.detection,
            mismatches_initial: acc.mismatches_initial.unwrap_or(0),
            mismatches_final: finals.mismatches_final,
            true_mismatches_final: finals.true_mismatches_final,
            recovery_rounds: acc.recovery_rounds,
            recovery_moves: acc.recovery_moves,
            budget: acc.budget,
            conflict_free: acc.conflict_free,
        };
        ProtocolOutcome {
            report,
            phases,
            state,
        }
    }

    /// Executes `protocol` on a fresh chip with [`Journaling::On`]: [`replay`]
    /// of the returned journal reconstructs `outcome.state` bit-for-bit. A
    /// phase error ends the run with an `aborted:` report row instead of a
    /// panic.
    ///
    /// [`replay`]: labchip_manipulation::journal::replay
    pub fn run_journaled(&self, protocol: &Protocol, cycle: usize) -> (ProtocolOutcome, Journal) {
        self.execute(Start::Fresh { protocol, cycle }, Journaling::On.into())
            .unwrap_or_else(|stopped| (stopped.partial, stopped.journal))
    }

    /// Journaled [`execute`](Self::execute) from a fresh chip, with an
    /// optional armed `fault` and the given `control`.
    ///
    /// # Errors
    ///
    /// As for [`execute`](Self::execute).
    pub fn run_controlled(
        &self,
        protocol: &Protocol,
        cycle: usize,
        fault: Option<FaultPlan>,
        control: &dyn RunControl,
    ) -> Result<(ProtocolOutcome, Journal), Box<StoppedRun>> {
        self.execute(
            Start::Fresh { protocol, cycle },
            RunOptions {
                journal: fault.map_or(Journaling::On, Journaling::Armed),
                control,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json;

    #[test]
    fn protocols_round_trip_through_serde() {
        let protocol = Protocol::canned_cycle(GridDims::square(48), 2, 40)
            .with_phase(PhaseSpec::Sense { frames: Some(8) })
            .with_phase(PhaseSpec::Route {
                target: RouteTarget::MergePairs,
            })
            .with_phase(PhaseSpec::Recover {
                policy: Some(RecoveryPolicy::date05_reference()),
            });
        let value = serde_json::to_value(&protocol);
        let back: Protocol = serde_json::from_value(&value).expect("round trip");
        assert_eq!(back, protocol);
        assert_eq!(back.len(), 8);
        assert!(!back.is_empty());
    }

    #[test]
    fn sharded_run_is_bit_identical_to_the_monolithic_run() {
        // The fleet is a projection of the monolithic journal: the shards
        // compose back to the exact global state, every shard journal
        // replays cleanly, and a multi-shard grid actually exercises the
        // handoff path.
        use crate::workload::{BatchDriver, WorkloadConfig};
        use labchip_manipulation::fleet::{project, FleetTopology};

        let config = WorkloadConfig {
            array_side: 32,
            noise_scale: 1.0,
            detection_frames: 2,
            recovery: RecoveryPolicy::date05_reference(),
            ..WorkloadConfig::default()
        };
        let driver = BatchDriver::new(config);
        let dims = GridDims::square(config.array_side);
        let sep = config.min_separation.max(1);
        let protocol = Protocol::canned_cycle(dims, sep, 24);
        let (baseline, baseline_journal) = driver.run_journaled(&protocol, 0);

        for (gx, gy) in [(1u32, 1u32), (2, 1), (2, 2)] {
            let fleet = project(&baseline_journal, &FleetTopology::new(dims, sep, gx, gy));
            assert_eq!(
                fleet.compose().state_hash(),
                baseline.state.state_hash(),
                "{gx}x{gy}: composed fleet must match the monolithic state hash"
            );
            assert_eq!(
                fleet.replay_divergences(),
                0,
                "{gx}x{gy}: every shard journal must replay to its shard state"
            );
            if gx * gy > 1 {
                assert!(
                    fleet.handoffs() > 0,
                    "{gx}x{gy}: a multi-shard sort must hand particles across boundaries"
                );
            } else {
                assert_eq!(fleet.handoffs(), 0);
            }
        }
    }

    #[test]
    fn every_phase_is_journaled_reported_and_interrupted_under_its_spec_name() {
        // The canned cycle holds every `PhaseSpec` variant once. Each phase
        // name appears three times: in the journal's `PhaseStarted`
        // marker, as the prefix of its report row, and in the
        // `Interrupted` error of a run killed on that marker.
        use crate::workload::WorkloadConfig;
        use labchip_manipulation::journal::Event;

        let config = WorkloadConfig {
            array_side: 32,
            ..WorkloadConfig::default()
        };
        let driver = BatchDriver::new(config);
        let protocol = Protocol::canned_cycle(GridDims::square(32), 2, 20);
        let names: Vec<&str> = protocol.phases.iter().map(PhaseSpec::name).collect();
        assert_eq!(names, ["load", "route", "sense", "recover", "flush"]);

        let (outcome, journal) = driver.run_journaled(&protocol, 0);
        let started: Vec<(usize, &str)> = journal
            .events()
            .iter()
            .enumerate()
            .filter_map(|(at, event)| match event {
                Event::PhaseStarted { name, .. } => Some((at, name.as_str())),
                _ => None,
            })
            .collect();
        assert_eq!(started.len(), protocol.len());
        assert_eq!(outcome.phases.len(), protocol.len());
        for (index, spec) in protocol.phases.iter().enumerate() {
            let (at, journaled) = started[index];
            assert_eq!(journaled, spec.name());
            let reported = &outcome.phases[index].phase;
            assert_eq!(reported.split(':').next(), Some(spec.name()), "{reported}");

            let fault = FaultPlan::after(at as u64 + 1);
            let stopped = driver
                .run_controlled(&protocol, 0, Some(fault), &NeverStop)
                .expect_err("the kill point lies on the phase's first event");
            assert_eq!(stopped.checkpoint.next_phase, index);
            assert_eq!(
                stopped.cause,
                StopCause::Phase(PhaseError::Interrupted { phase: spec.name() })
            );
        }
    }

    #[test]
    fn canned_cycle_has_the_five_monolith_phases() {
        let protocol = Protocol::canned_cycle(GridDims::square(64), 2, 100);
        assert_eq!(protocol.len(), 5);
        assert!(matches!(
            protocol.phases[0],
            PhaseSpec::Load {
                particles: 100,
                capacity_clamp: Some(_)
            }
        ));
        assert!(matches!(
            protocol.phases[1],
            PhaseSpec::Route {
                target: RouteTarget::SortSplit
            }
        ));
        assert!(matches!(
            protocol.phases[2],
            PhaseSpec::Sense { frames: None }
        ));
        assert!(matches!(
            protocol.phases[3],
            PhaseSpec::Recover { policy: None }
        ));
        assert!(matches!(protocol.phases[4], PhaseSpec::Flush));
    }
}
