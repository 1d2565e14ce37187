//! Protocols as data: serde-round-trippable phase lists and the thin
//! runner that executes them.
//!
//! A [`Protocol`] is an ordered list of [`PhaseSpec`]s with per-phase knobs
//! — the declarative form of an assay. [`ProtocolRunner`] is deliberately
//! thin: it materialises each spec into its [`AssayPhase`], runs the phases
//! in order over one shared [`ChipState`], snapshots the time ledger around
//! each phase (so every [`PhaseReport`] carries exactly what that phase
//! cost), and assembles the final [`CycleReport`] from the accumulated
//! [`PhaseCtx`]. The canned cycle ([`Protocol::canned_cycle`]) is the
//! driver's standard `load → route → sense → recover → flush` sequence;
//! anything else — repeated sense/route rounds, merge assays, wash-free
//! cycles — is just a different list.
//!
//! ## Journal, checkpoint, resume
//!
//! [`ProtocolRunner::run_journaled`] attaches an event
//! [`Journal`] to the chip state, so every mutation
//! of the run is recorded and
//! [`replay`](labchip_manipulation::journal::replay) reconstructs the
//! final state bit-for-bit — the equivalence oracle that replaced the
//! retired legacy monolith. [`ProtocolRunner::run_with_fault`] arms a
//! seeded [`FaultPlan`] kill point on top; when it
//! trips, the run dies cooperatively and returns the [`Checkpoint`] taken
//! at the start of the interrupted phase (chip snapshot + ctx snapshot +
//! journal offset). [`ProtocolRunner::resume`] restores the checkpoint
//! and finishes the protocol; because every RNG stream is a pure function
//! of seeds and counters captured in the checkpoint, the resumed run
//! reaches a final state **bit-identical** to an uninterrupted execution
//! — the property scenario E14 sweeps across ≥50 kill points.

use super::envelope::ForceEnvelope;
use super::phases::{
    sort_capacity, Accumulators, AssayPhase, Flush, Load, PhaseCtx, PhaseError, PhaseReport,
    Recover, Route, RouteTarget, Sense,
};
use super::{CycleReport, RecoveryPolicy, WorkloadConfig};
use labchip_array::addressing::ProgrammingInterface;
use labchip_manipulation::journal::{FaultPlan, Journal};
use labchip_manipulation::sharding::{IncrementalRouter, RouterCache};
use labchip_manipulation::state::{ChipState, ChipStateSnapshot, TimeBreakdown};
use labchip_sensing::array_scan::ArrayScanner;
use labchip_sensing::scan::ScanTiming;
use labchip_units::GridDims;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// One declarative phase of a [`Protocol`], with its knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PhaseSpec {
    /// Load a seeded batch (see [`Load`]).
    Load {
        /// Particles requested.
        particles: usize,
        /// Optional cap on placed particles.
        capacity_clamp: Option<usize>,
    },
    /// Route the population to a target (see [`Route`]).
    Route {
        /// Where to send the population.
        target: RouteTarget,
    },
    /// Scan the whole array (see [`Sense`]).
    Sense {
        /// Frames averaged (None = the workload's `detection_frames`).
        frames: Option<u32>,
    },
    /// Close the loop on detection/plan mismatches (see [`Recover`]).
    Recover {
        /// Policy override (None = the workload's configured policy).
        policy: Option<RecoveryPolicy>,
    },
    /// Flush the batch (see [`Flush`]).
    Flush,
}

impl PhaseSpec {
    /// Materialises the spec into its executable phase.
    pub fn build(&self) -> Box<dyn AssayPhase> {
        match self {
            PhaseSpec::Load {
                particles,
                capacity_clamp,
            } => Box::new(Load {
                particles: *particles,
                capacity_clamp: *capacity_clamp,
            }),
            PhaseSpec::Route { target } => Box::new(Route {
                target: target.clone(),
            }),
            PhaseSpec::Sense { frames } => Box::new(Sense { frames: *frames }),
            PhaseSpec::Recover { policy } => Box::new(Recover { policy: *policy }),
            PhaseSpec::Flush => Box::new(Flush),
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
    /// [`BatchDriver`](super::BatchDriver) has always run — now expressed
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
/// every [`PhaseCtx`] accumulator, the journal offset the run had reached,
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

/// A run killed by an injected fault: the resume point, the journal up to
/// the kill, and what tripped.
#[derive(Debug)]
pub struct InterruptedRun {
    /// The checkpoint taken at the start of the interrupted phase.
    pub checkpoint: Checkpoint,
    /// The journal of everything executed before the kill (its prefix of
    /// length [`Checkpoint::journal_offset`] replays to the checkpoint
    /// state; the tail is the interrupted phase's partial work).
    pub journal: Journal,
    /// The error that stopped the run.
    pub error: PhaseError,
}

/// Cooperative control over a long-running protocol execution, polled at
/// every phase boundary by [`ProtocolRunner::run_controlled`] and
/// [`ProtocolRunner::resume_controlled`].
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

/// Why a controlled run stopped early.
#[derive(Debug)]
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
}

impl StopCause {
    /// Whether the stop was a cooperative cancellation.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, StopCause::Cancelled { .. })
    }

    /// Whether the stop was an injected-fault kill (the resumable case).
    pub fn is_fault(&self) -> bool {
        matches!(self, StopCause::Phase(PhaseError::Interrupted { .. }))
    }
}

/// A controlled run that ended before its final phase: the resume point,
/// the journal of everything executed, and why it stopped.
///
/// The journal prefix of length [`Checkpoint::journal_offset`] replays to
/// the checkpoint state; the tail is the stopped phase's partial work,
/// which [`ProtocolRunner::resume_controlled`] re-executes from the phase
/// start.
#[derive(Debug)]
pub struct StoppedRun {
    /// The checkpoint taken at the boundary of the stopped phase.
    pub checkpoint: Checkpoint,
    /// The journal recorded up to the stop.
    pub journal: Journal,
    /// Why the run stopped.
    pub cause: StopCause,
}

/// Outcome of [`ProtocolRunner::execute`]: `Err` carries the interruption
/// point when a phase stopped early.
struct Interruption {
    cause: StopCause,
    checkpoint: Option<Box<Checkpoint>>,
}

impl Interruption {
    /// The phase error of a non-cancelled interruption; uncontrolled runs
    /// can only stop through a phase error.
    fn expect_phase_error(self) -> PhaseError {
        match self.cause {
            StopCause::Phase(error) => error,
            StopCause::Cancelled { .. } => {
                unreachable!("cancellation requires a RunControl, none was supplied")
            }
        }
    }
}

/// The thin executor: phases in, reports out.
///
/// Borrows the driver's shared resources; all per-cycle state lives in the
/// [`ChipState`] and [`PhaseCtx`] it creates per run.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolRunner<'a> {
    pub(super) config: &'a WorkloadConfig,
    pub(super) envelope: &'a ForceEnvelope,
    pub(super) router: &'a IncrementalRouter,
    pub(super) programming: &'a ProgrammingInterface,
    pub(super) scan: &'a ScanTiming,
    pub(super) scanner: &'a ArrayScanner,
    /// The driver's warm-start plan cache; `Some` iff
    /// [`WorkloadConfig::reuse_plans`] is set.
    pub(super) route_cache: Option<&'a Mutex<RouterCache>>,
}

impl<'a> ProtocolRunner<'a> {
    /// The cycle seed: a pure function of the base seed and the cycle
    /// index, unchanged across every driver generation so seeded runs stay
    /// bit-identical.
    fn cycle_seed(&self, cycle: usize) -> u64 {
        self.config
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(cycle as u64 + 1))
    }

    /// A fresh chip state for one run of this runner's configuration.
    fn fresh_state(&self) -> ChipState {
        let dims = GridDims::square(self.config.array_side);
        // A zero separation is physically meaningless (cages would merge)
        // and the cage grid rejects it; clamp like the routers do rather
        // than panic on a CLI-supplied `min_separation=0` override.
        let sep = self.config.min_separation.max(1);
        ChipState::with_separation(dims, sep)
    }

    /// A cycle context with the given accumulators over this runner's
    /// borrowed resources.
    fn ctx(&self, acc: Accumulators) -> PhaseCtx<'a> {
        PhaseCtx::new(
            self.config,
            self.envelope,
            self.router,
            self.programming,
            self.scan,
            self.scanner,
            self.route_cache,
            acc,
        )
    }

    /// The phase loop shared by every entry point: runs
    /// `protocol.phases[start_phase..]` over the given state and ctx,
    /// appending one report per completed phase. With `capture` on, a
    /// [`Checkpoint`] is taken at the start of every phase and the latest
    /// one rides along in the `Err` when a phase stops early. A `control`
    /// is polled at every phase boundary and may stop the run there.
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &self,
        protocol: &Protocol,
        cycle: usize,
        start_phase: usize,
        state: &mut ChipState,
        ctx: &mut PhaseCtx<'_>,
        phases: &mut Vec<PhaseReport>,
        capture: bool,
        control: Option<&dyn RunControl>,
    ) -> Result<(), Interruption> {
        for (index, spec) in protocol.phases.iter().enumerate().skip(start_phase) {
            let checkpoint = capture.then(|| {
                Box::new(Checkpoint {
                    protocol: protocol.clone(),
                    cycle,
                    next_phase: index,
                    state: state.snapshot(),
                    ctx: ctx.acc.clone(),
                    journal_offset: state.journal().map_or(0, Journal::len),
                    completed: phases.clone(),
                })
            });
            if let Some(control) = control {
                if control.should_stop(index) {
                    return Err(Interruption {
                        cause: StopCause::Cancelled { next_phase: index },
                        checkpoint,
                    });
                }
            }
            let phase = spec.build();
            if let Some(control) = control {
                control.on_phase_started(index, phase.name());
            }
            state.note_phase_started(index, phase.name());
            let ledger_before = *state.time();
            match phase.run(state, ctx) {
                Ok(mut report) => {
                    report.time = state.time().delta_since(&ledger_before);
                    state.note_phase_finished(index);
                    if let Some(control) = control {
                        control.on_phase_finished(index, &report);
                    }
                    phases.push(report);
                }
                Err(error) => {
                    state.note_phase_aborted(index, &error.to_string());
                    return Err(Interruption {
                        cause: StopCause::Phase(error),
                        checkpoint,
                    });
                }
            }
        }
        // A flush snapshots the finals itself (pre-clear); protocols that
        // end with the batch still on-chip are snapshotted here.
        if !matches!(protocol.phases.last(), Some(PhaseSpec::Flush)) {
            ctx.capture_finals(state);
        }
        Ok(())
    }

    /// Assembles the final outcome from the consumed per-run state.
    fn assemble(
        &self,
        cycle: usize,
        state: ChipState,
        ctx: PhaseCtx<'_>,
        phases: Vec<PhaseReport>,
    ) -> ProtocolOutcome {
        let acc = ctx.acc;
        let finals = acc.finals.unwrap_or_default();
        let report = CycleReport {
            cycle,
            requested: acc.requested,
            routed: acc.routed,
            makespan_steps: acc.makespan_steps,
            total_moves: acc.total_moves,
            planning: acc.planning,
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

    /// The report row appended when a phase aborted: zero work, the abort
    /// reason as the detail.
    fn aborted_report(error: &PhaseError, state: &ChipState) -> PhaseReport {
        PhaseReport {
            phase: format!("aborted:{}", error.phase()),
            time: TimeBreakdown::default(),
            moves: 0,
            particles_after: state.particle_count(),
            detail: error.to_string(),
        }
    }

    /// Executes `protocol` as cycle number `cycle` (the cycle index fixes
    /// the batch seed and the scan-pass numbering, exactly as the driver's
    /// repeated cycles always did).
    ///
    /// A phase error (an internal invariant violation — impossible on the
    /// canned path) aborts the remaining phases and surfaces as an
    /// `aborted:` report row instead of a panic.
    pub fn run(&self, protocol: &Protocol, cycle: usize) -> ProtocolOutcome {
        let mut state = self.fresh_state();
        let mut ctx = self.ctx(Accumulators::new(cycle, self.cycle_seed(cycle)));
        let mut phases = Vec::with_capacity(protocol.phases.len());
        if let Err(interruption) = self.execute(
            protocol,
            cycle,
            0,
            &mut state,
            &mut ctx,
            &mut phases,
            false,
            None,
        ) {
            phases.push(Self::aborted_report(
                &interruption.expect_phase_error(),
                &state,
            ));
        }
        self.assemble(cycle, state, ctx, phases)
    }

    /// Like [`run`](Self::run), with an event journal attached: every
    /// chip-state mutation of the run is recorded, and
    /// [`replay`](labchip_manipulation::journal::replay) of the returned
    /// journal reconstructs `outcome.state` bit-for-bit.
    pub fn run_journaled(&self, protocol: &Protocol, cycle: usize) -> (ProtocolOutcome, Journal) {
        let mut state = self.fresh_state();
        state.attach_journal();
        let mut ctx = self.ctx(Accumulators::new(cycle, self.cycle_seed(cycle)));
        let mut phases = Vec::with_capacity(protocol.phases.len());
        if let Err(interruption) = self.execute(
            protocol,
            cycle,
            0,
            &mut state,
            &mut ctx,
            &mut phases,
            false,
            None,
        ) {
            phases.push(Self::aborted_report(
                &interruption.expect_phase_error(),
                &state,
            ));
        }
        let journal = state.take_journal().expect("journal attached above");
        (self.assemble(cycle, state, ctx, phases), journal)
    }

    /// Runs `protocol` with a journal and an armed [`FaultPlan`] kill
    /// point. If the kill point lies beyond the run's event count the run
    /// completes normally (`Ok`); otherwise execution dies at the fault's
    /// poll point and the [`InterruptedRun`] carries the checkpoint to
    /// [`resume`](Self::resume) from.
    ///
    /// # Errors
    ///
    /// `Err` is the interrupted run — the expected outcome of a fault
    /// sweep, boxed because it carries the full resume state.
    pub fn run_with_fault(
        &self,
        protocol: &Protocol,
        cycle: usize,
        fault: FaultPlan,
    ) -> Result<(ProtocolOutcome, Journal), Box<InterruptedRun>> {
        let mut state = self.fresh_state();
        state.attach_journal_with_fault(fault);
        let mut ctx = self.ctx(Accumulators::new(cycle, self.cycle_seed(cycle)));
        let mut phases = Vec::with_capacity(protocol.phases.len());
        match self.execute(
            protocol,
            cycle,
            0,
            &mut state,
            &mut ctx,
            &mut phases,
            true,
            None,
        ) {
            Ok(()) => {
                let journal = state.take_journal().expect("journal attached above");
                Ok((self.assemble(cycle, state, ctx, phases), journal))
            }
            Err(interruption) => {
                let journal = state.take_journal().expect("journal attached above");
                let Interruption { cause, checkpoint } = interruption;
                let checkpoint = checkpoint.expect("checkpoint capture enabled for fault runs");
                let error = match cause {
                    StopCause::Phase(error) => error,
                    StopCause::Cancelled { .. } => {
                        unreachable!("cancellation requires a RunControl, none was supplied")
                    }
                };
                Err(Box::new(InterruptedRun {
                    checkpoint: *checkpoint,
                    journal,
                    error,
                }))
            }
        }
    }

    /// Runs `protocol` journaled, with checkpoints captured at every phase
    /// boundary, an optional armed [`FaultPlan`] kill point, and a
    /// [`RunControl`] polled between phases — the execution mode a farm
    /// worker drives a job in.
    ///
    /// On success returns the outcome plus the full journal of the run.
    ///
    /// # Errors
    ///
    /// `Err` is the stopped run: either the control requested a stop at a
    /// phase boundary ([`StopCause::Cancelled`]) or a phase aborted
    /// mid-flight ([`StopCause::Phase`] — an injected kill, or an internal
    /// invariant violation). Both carry the checkpoint to
    /// [`resume_controlled`](Self::resume_controlled) from.
    pub fn run_controlled(
        &self,
        protocol: &Protocol,
        cycle: usize,
        fault: Option<FaultPlan>,
        control: &dyn RunControl,
    ) -> Result<(ProtocolOutcome, Journal), Box<StoppedRun>> {
        let mut state = self.fresh_state();
        match fault {
            Some(fault) => state.attach_journal_with_fault(fault),
            None => state.attach_journal(),
        }
        let mut ctx = self.ctx(Accumulators::new(cycle, self.cycle_seed(cycle)));
        let mut phases = Vec::with_capacity(protocol.phases.len());
        let outcome = self.execute(
            protocol,
            cycle,
            0,
            &mut state,
            &mut ctx,
            &mut phases,
            true,
            Some(control),
        );
        self.finish_controlled(outcome, state, ctx, phases, cycle)
    }

    /// Continues a stopped controlled run from its [`Checkpoint`], with a
    /// fresh journal attached (its events are the continuation — appending
    /// them to the stopped run's committed prefix of length
    /// [`Checkpoint::journal_offset`] yields a journal identical to an
    /// uninterrupted run's) and the same boundary-polled [`RunControl`].
    ///
    /// # Errors
    ///
    /// As for [`run_controlled`](Self::run_controlled): the run may be
    /// stopped again, by the control or by a freshly armed `fault`.
    pub fn resume_controlled(
        &self,
        checkpoint: &Checkpoint,
        fault: Option<FaultPlan>,
        control: &dyn RunControl,
    ) -> Result<(ProtocolOutcome, Journal), Box<StoppedRun>> {
        let mut state = ChipState::from_snapshot(checkpoint.state.clone());
        match fault {
            Some(fault) => state.attach_journal_with_fault(fault),
            None => state.attach_journal(),
        }
        let mut ctx = self.ctx(checkpoint.ctx.clone());
        let mut phases = checkpoint.completed.clone();
        let outcome = self.execute(
            &checkpoint.protocol,
            checkpoint.cycle,
            checkpoint.next_phase,
            &mut state,
            &mut ctx,
            &mut phases,
            true,
            Some(control),
        );
        self.finish_controlled(outcome, state, ctx, phases, checkpoint.cycle)
    }

    /// Shared tail of the controlled entry points: detach the journal and
    /// assemble either the outcome or the [`StoppedRun`].
    fn finish_controlled(
        &self,
        outcome: Result<(), Interruption>,
        mut state: ChipState,
        ctx: PhaseCtx<'_>,
        phases: Vec<PhaseReport>,
        cycle: usize,
    ) -> Result<(ProtocolOutcome, Journal), Box<StoppedRun>> {
        let journal = state.take_journal().expect("journal attached above");
        match outcome {
            Ok(()) => Ok((self.assemble(cycle, state, ctx, phases), journal)),
            Err(interruption) => {
                let checkpoint = interruption
                    .checkpoint
                    .expect("checkpoint capture enabled for controlled runs");
                Err(Box::new(StoppedRun {
                    checkpoint: *checkpoint,
                    journal,
                    cause: interruption.cause,
                }))
            }
        }
    }

    /// Continues an interrupted protocol from a [`Checkpoint`]: restores
    /// the chip state and every ctx accumulator, then executes the
    /// remaining phases (the interrupted one re-runs from its start).
    /// Every RNG stream is a pure function of the captured seeds and
    /// counters, so the final state is bit-identical to an uninterrupted
    /// run of the same protocol — planner wall-clock aside, so is the
    /// report.
    pub fn resume(&self, checkpoint: &Checkpoint) -> ProtocolOutcome {
        let mut state = ChipState::from_snapshot(checkpoint.state.clone());
        let mut ctx = self.ctx(checkpoint.ctx.clone());
        let mut phases = checkpoint.completed.clone();
        if let Err(interruption) = self.execute(
            &checkpoint.protocol,
            checkpoint.cycle,
            checkpoint.next_phase,
            &mut state,
            &mut ctx,
            &mut phases,
            false,
            None,
        ) {
            phases.push(Self::aborted_report(
                &interruption.expect_phase_error(),
                &state,
            ));
        }
        self.assemble(checkpoint.cycle, state, ctx, phases)
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
    fn fault_kill_and_resume_reach_the_uninterrupted_state() {
        // One mid-protocol kill point, end to end: the interrupted run's
        // journal prefix replays to the checkpoint state, and resume from
        // the checkpoint lands on the exact state (and report, modulo
        // planner wall-clock) of an uninterrupted run.
        use crate::workload::{BatchDriver, WorkloadConfig};
        use labchip_manipulation::journal::{replay, FaultPlan};

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
        let protocol = Protocol::canned_cycle(dims, sep, 20);
        let (baseline, baseline_journal) = driver.runner().run_journaled(&protocol, 0);
        let total_events = baseline_journal.len() as u64;
        assert!(
            total_events > 10,
            "probe run journaled {total_events} events"
        );

        // A kill point mid-journal must interrupt...
        let interrupted = driver
            .runner()
            .run_with_fault(&protocol, 0, FaultPlan::after(total_events / 2))
            .expect_err("mid-journal kill point must interrupt the run");
        assert!(interrupted.journal.len() as u64 >= total_events / 2);
        let checkpoint = &interrupted.checkpoint;
        assert!(checkpoint.next_phase < protocol.len());

        // ...its journal-at-checkpoint prefix replays to the snapshot...
        let prefix = interrupted.journal.truncated(checkpoint.journal_offset);
        let replayed = replay(&prefix, dims, sep).expect("prefix replays cleanly");
        assert_eq!(
            replayed.state_hash(),
            ChipState::from_snapshot(checkpoint.state.clone()).state_hash()
        );

        // ...the checkpoint survives its JSON round trip...
        let restored = Checkpoint::from_json(&checkpoint.to_json()).expect("round trip");
        assert_eq!(&restored, checkpoint);

        // ...and resume finishes to the uninterrupted state and report.
        let resumed = driver.runner().resume(&restored);
        assert_eq!(resumed.state, baseline.state);
        assert_eq!(resumed.state.state_hash(), baseline.state.state_hash());
        let mut resumed_report = resumed.report.clone();
        resumed_report.planning = baseline.report.planning;
        assert_eq!(resumed_report, baseline.report);

        // A kill point past the end never fires: the run completes.
        let (outcome, _) = driver
            .runner()
            .run_with_fault(&protocol, 0, FaultPlan::after(total_events + 1))
            .expect("kill point past the journal end must not interrupt");
        assert_eq!(outcome.state, baseline.state);
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
        let (baseline, baseline_journal) = driver.runner().run_journaled(&protocol, 0);

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
