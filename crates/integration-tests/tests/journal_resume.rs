//! Property tests of the event-sourced execution contract: kill a protocol
//! run at *any* journal offset, and the checkpoint + journal pair is enough
//! to get back — the truncated prefix replays to the checkpoint state bit
//! for bit, the checkpoint survives its JSON round trip, and resuming
//! reaches the same final chip state and report as the run that was never
//! interrupted.
//!
//! The sweep crosses seeds × sensor noise × recovery policy so the killable
//! surface includes the closed-loop recovery path, not just the happy path.
//! Alongside the property, regressions pin the serde edges: astral-plane
//! protocol names (surrogate pairs in JSON) round-trip, non-finite ledger
//! floats and hostile nesting depth are rejected cleanly by
//! `Checkpoint::from_json`, and a checkpoint file written by an earlier
//! build (`golden/checkpoint_16x16_flush.json`) still decodes, re-encodes
//! byte-for-byte and resumes to the uninterrupted state — the on-disk
//! format is pinned.

use labchip::workload::{
    BatchDriver, Checkpoint, CheckpointError, Journaling, PhaseError, Protocol, ProtocolOutcome,
    RecoveryPolicy, RunOptions, Start, StopCause, WorkloadConfig,
};
use labchip_manipulation::cage::ParticleId;
use labchip_manipulation::journal::{replay, FaultPlan, Journal};
use labchip_manipulation::state::ChipState;
use labchip_units::{GridCoord, GridDims, Seconds};
use proptest::prelude::*;

fn workload(seed: u64, noise_scale: f64, recovery: RecoveryPolicy) -> WorkloadConfig {
    WorkloadConfig {
        array_side: 32,
        noise_scale,
        detection_frames: 2,
        recovery,
        seed,
        ..WorkloadConfig::default()
    }
}

fn canned(config: &WorkloadConfig, particles: usize) -> Protocol {
    Protocol::canned_cycle(
        GridDims::square(config.array_side),
        config.min_separation.max(1),
        particles,
    )
}

/// Kills the cycle after `kill` journal events and checks the way back
/// against the uninterrupted run and its journal. Returns whether the kill
/// interrupted the run; one it did not must be the uninterrupted run.
///
/// An interrupted run's journal prefix up to the checkpoint offset replays
/// to the checkpoint state, the checkpoint survives its JSON round trip,
/// and a journaled resume reaches the baseline state and report, its
/// journal continuing the committed prefix into exactly the baseline
/// journal.
fn kill_and_resume(
    driver: &BatchDriver,
    protocol: &Protocol,
    kill: u64,
    (baseline, baseline_journal): &(ProtocolOutcome, Journal),
) -> bool {
    let total = baseline_journal.len() as u64;
    let start = Start::Fresh { protocol, cycle: 0 };
    let armed = Journaling::Armed(FaultPlan::after(kill)).into();
    let run = match driver.execute(start, armed) {
        Ok((outcome, journal)) => {
            assert!(kill >= total, "kill {kill}/{total} must interrupt");
            assert_eq!(outcome.state, baseline.state);
            assert_eq!(&journal, baseline_journal);
            return false;
        }
        Err(run) => run,
    };
    assert!(kill < total, "kill {kill}/{total} must complete");
    assert!(matches!(
        run.cause,
        StopCause::Phase(PhaseError::Interrupted { .. })
    ));
    let checkpoint = &run.checkpoint;
    let mut journal = run.journal.truncated(checkpoint.journal_offset);
    let (side, sep) = (driver.config().array_side, driver.config().min_separation);
    let replayed = replay(&journal, GridDims::square(side), sep).expect("prefix replays");
    assert_eq!(replayed, ChipState::from_snapshot(checkpoint.state.clone()));
    let restored = Checkpoint::from_json(&checkpoint.to_json()).expect("checkpoint parses back");
    assert_eq!(&restored, checkpoint);

    let (resumed, continuation) = driver
        .execute(Start::Resume(&restored), Journaling::On.into())
        .expect("an unarmed resume runs to completion");
    assert_eq!(resumed.state, baseline.state);
    assert_eq!(resumed.report, baseline.report);
    for event in continuation.events() {
        journal.record(event.clone());
    }
    assert_eq!(&journal, baseline_journal, "kill {kill}: journals diverged");
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn kill_anywhere_and_resume_reaches_the_uninterrupted_state(
        seed in 0u64..1000,
        noisy in proptest::bool::ANY,
        recovering in proptest::bool::ANY,
        kill_sel in 0u64..10_000,
    ) {
        let recovery = if recovering {
            RecoveryPolicy::date05_reference()
        } else {
            RecoveryPolicy::disabled()
        };
        let config = workload(seed, if noisy { 8.0 } else { 0.0 }, recovery);
        let protocol = canned(&config, 20);
        let driver = BatchDriver::new(config);

        // The oracle: the same cycle, never interrupted. Replay of its full
        // journal is the equivalence oracle.
        let baseline = driver.run_journaled(&protocol, 0);
        let total = baseline.1.len() as u64;
        prop_assert!(total > 0, "a canned cycle always journals events");
        let dims = GridDims::square(config.array_side);
        let replayed = replay(&baseline.1, dims, config.min_separation).expect("journals replay");
        prop_assert_eq!(&replayed, &baseline.0.state);

        // Kill anywhere in [1, total + 10]: offsets at or past the last
        // event must let the run complete untouched.
        let kill = 1 + kill_sel % (total + 10);
        kill_and_resume(&driver, &protocol, kill, &baseline);
    }
}

/// The kill points around the journal's end: a kill before the last event
/// interrupts — including one on the final mutation, just before the
/// closing `PhaseFinished` marker — and a kill on or past it completes.
#[test]
fn kills_at_the_journal_edges_interrupt_exactly_inside_the_run() {
    for (seed, noise_scale) in [(2005, 8.0), (WorkloadConfig::default().seed, 1.0)] {
        let config = workload(seed, noise_scale, RecoveryPolicy::date05_reference());
        let protocol = canned(&config, 20);
        let driver = BatchDriver::new(config);
        let baseline = driver.run_journaled(&protocol, 0);
        let total = baseline.1.len() as u64;
        let interrupted = [total / 2, total - 1, total, total + 1]
            .map(|kill| kill_and_resume(&driver, &protocol, kill, &baseline));
        assert_eq!(interrupted, [true, true, false, false], "seed {seed}");
    }
}

/// Grabs a real checkpoint by killing a short run after `kill` events.
fn interrupted_checkpoint(name: &str, kill: u64) -> Checkpoint {
    let config = workload(2005, 0.0, RecoveryPolicy::disabled());
    let mut protocol = canned(&config, 12);
    protocol.name = name.to_string();
    let driver = BatchDriver::new(config);
    let armed = Journaling::Armed(FaultPlan::after(kill)).into();
    let start = Start::Fresh {
        protocol: &protocol,
        cycle: 0,
    };
    let run = driver.execute(start, armed);
    run.expect_err("an early kill interrupts").checkpoint
}

/// A checkpoint that does not fit the runner is refused before anything
/// runs — not a panic, and not a silently wrong outcome.
#[test]
fn resume_rejects_a_checkpoint_that_does_not_fit() {
    use CheckpointError::{Completed, Dims, NextPhase};
    use StopCause::Rejected;
    let resume = |array_side: u32, checkpoint: &Checkpoint| {
        let mut config = workload(2005, 0.0, RecoveryPolicy::disabled());
        config.array_side = array_side;
        let driver = BatchDriver::new(config);
        let run = driver.execute(Start::Resume(checkpoint), Journaling::On.into());
        run.err().map(|stopped| stopped.cause)
    };
    let checkpoint = interrupted_checkpoint("misfit", 30);
    assert_eq!(resume(32, &checkpoint), None);
    let (mut past_end, mut unreported) = (checkpoint.clone(), checkpoint.clone());
    past_end.next_phase = 99;
    unreported.completed.clear();
    let (side, next_phase) = (GridDims::square, checkpoint.next_phase);
    let small = Dims {
        expected: side(16),
        found: side(32),
    };
    assert_eq!(resume(16, &checkpoint), Some(Rejected(small)));
    assert_eq!(
        resume(32, &past_end),
        Some(Rejected(NextPhase {
            next_phase: 99,
            phases: 5
        }))
    );
    assert_eq!(
        resume(32, &unreported),
        Some(Rejected(Completed {
            completed: 0,
            next_phase
        }))
    );
}

/// Astral-plane characters in the protocol name survive the checkpoint's
/// JSON round trip — they encode as UTF-16 surrogate pairs in `\u` escapes
/// and must decode back to the same scalar values.
#[test]
fn checkpoint_json_round_trips_surrogate_pair_protocol_names() {
    let name = "assay-\u{1D538}\u{1F9EB}-\"quoted\"-\u{10FFFF}";
    let checkpoint = interrupted_checkpoint(name, 5);
    let round_tripped =
        Checkpoint::from_json(&checkpoint.to_json()).expect("astral names parse back");
    assert_eq!(round_tripped.protocol.name, name);
    assert_eq!(round_tripped, checkpoint);
}

/// Non-finite ledger floats cannot survive: the JSON writer encodes them as
/// `null`, and the typed reader must reject that cleanly (an `Err`, not a
/// panic and not a resurrected NaN).
#[test]
fn checkpoint_json_rejects_non_finite_ledger_floats_cleanly() {
    let mut checkpoint = interrupted_checkpoint("nan-probe", 5);

    let programming_time = checkpoint.ctx.budget.programming_time;
    checkpoint.ctx.budget.programming_time = Seconds::new(f64::NAN);
    let text = checkpoint.to_json();
    assert!(text.contains("null"), "non-finite floats encode as null");
    assert!(Checkpoint::from_json(&text).is_err());

    checkpoint.ctx.budget.programming_time = programming_time;
    checkpoint.state.time.motion = Seconds::new(f64::INFINITY);
    assert!(Checkpoint::from_json(&checkpoint.to_json()).is_err());
}

/// Deeply nested input is a clean decode error, not a stack overflow.
#[test]
fn checkpoint_json_rejects_hostile_nesting_cleanly() {
    for text in ["[".repeat(100_000), r#"{"a":"#.repeat(100_000)] {
        assert!(Checkpoint::from_json(&text).is_err());
    }
}

/// A checkpoint captured from a 16² canned cycle (6 particles, noisy
/// sensing, recovery on) killed at the start of its flush phase, as an
/// earlier build wrote it to disk.
const PINNED_CHECKPOINT: &str = include_str!("golden/checkpoint_16x16_flush.json");

#[test]
fn pinned_checkpoint_file_decodes_re_encodes_and_resumes() {
    let checkpoint = Checkpoint::from_json(PINNED_CHECKPOINT).expect("pinned checkpoint decodes");
    assert_eq!(
        checkpoint.to_json(),
        PINNED_CHECKPOINT,
        "re-encoding is byte-identical"
    );
    assert_eq!(checkpoint.next_phase, 4, "killed before the flush");
    assert!(checkpoint.ctx.detected.is_some());

    let config = WorkloadConfig {
        array_side: 16,
        ..workload(2005, 8.0, RecoveryPolicy::date05_reference())
    };
    let protocol = canned(&config, 6);
    assert_eq!(checkpoint.protocol, protocol);
    let driver = BatchDriver::new(config);
    let (baseline, _) = driver.run_journaled(&protocol, 0);
    let (resumed, _) = driver
        .execute(Start::Resume(&checkpoint), RunOptions::default())
        .expect("the pinned checkpoint fits its runner");
    assert_eq!(resumed.state.state_hash(), baseline.state.state_hash());
    assert_eq!(baseline.state.state_hash(), 0x7940_391e_a5fb_149c);
}

/// The pinned checkpoint with one edit, particle 0 moved to `x = 99` on
/// its 16² grid, is refused as a typed error instead of panicking when
/// the snapshot is restored.
#[test]
fn a_checkpoint_particle_off_its_grid_is_rejected() {
    let edited = PINNED_CHECKPOINT.replacen("\"0\":{\"x\":1,", "\"0\":{\"x\":99,", 1);
    assert_ne!(edited, PINNED_CHECKPOINT, "the edit applies");
    let checkpoint = Checkpoint::from_json(&edited).expect("the edited checkpoint decodes");
    let config = WorkloadConfig {
        array_side: 16,
        ..workload(2005, 8.0, RecoveryPolicy::date05_reference())
    };
    let run = BatchDriver::new(config).execute(Start::Resume(&checkpoint), RunOptions::default());
    let off_grid = CheckpointError::OffGrid {
        particle: ParticleId(0),
        at: GridCoord::new(99, 1),
        dims: GridDims::square(16),
    };
    assert_eq!(
        run.err().map(|stopped| stopped.cause),
        Some(StopCause::Rejected(off_grid))
    );
}
