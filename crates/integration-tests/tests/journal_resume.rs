//! Property tests of the event-sourced execution contract: kill a protocol
//! run at *any* journal offset, and the checkpoint + journal pair is enough
//! to get back — the truncated prefix replays to the checkpoint state bit
//! for bit, the checkpoint survives its JSON round trip, and resuming
//! reaches the same final chip state (and report, planner wall-clock
//! aside) as the run that was never interrupted.
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
    BatchDriver, Checkpoint, ForceEnvelope, Protocol, RecoveryPolicy, WorkloadConfig,
};
use labchip_manipulation::journal::{replay, FaultPlan};
use labchip_units::{GridDims, Seconds};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The force envelope is derived from the cached field engine once for the
/// whole suite — it is config-independent and costs a field probe.
fn envelope() -> ForceEnvelope {
    static ENVELOPE: OnceLock<ForceEnvelope> = OnceLock::new();
    *ENVELOPE.get_or_init(ForceEnvelope::date05_reference)
}

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
        let dims = GridDims::square(config.array_side);
        let sep = config.min_separation.max(1);
        let driver = BatchDriver::with_envelope(config, envelope());

        // The oracle: the same cycle, never interrupted.
        let (baseline, journal) = driver.runner().run_journaled(&protocol, 0);
        let baseline_hash = baseline.state.state_hash();
        let total = journal.len() as u64;
        prop_assert!(total > 0, "a canned cycle always journals events");

        // Replay of the full journal is the equivalence oracle.
        let replayed = replay(&journal, dims, sep).expect("recorded journals replay");
        prop_assert_eq!(replayed.state_hash(), baseline_hash);

        // Kill anywhere in [1, total + 10]: offsets past the end must let
        // the run complete untouched.
        let kill = 1 + kill_sel % (total + 10);
        match driver.runner().run_with_fault(&protocol, 0, FaultPlan::after(kill)) {
            Ok((outcome, journal)) => {
                prop_assert!(kill >= total, "in-journal kill must interrupt");
                prop_assert_eq!(outcome.state.state_hash(), baseline_hash);
                prop_assert_eq!(journal.len() as u64, total);
            }
            Err(run) => {
                prop_assert!(kill < total, "kill past the journal end must complete");

                // The journal prefix up to the checkpoint offset replays to
                // the checkpointed state bit for bit.
                let prefix = run.journal.truncated(run.checkpoint.journal_offset);
                let from_prefix = replay(&prefix, dims, sep).expect("prefix replays");
                let from_snapshot =
                    labchip_manipulation::state::ChipState::from_snapshot(run.checkpoint.state.clone());
                prop_assert_eq!(from_prefix.state_hash(), from_snapshot.state_hash());

                // The checkpoint is durable: its JSON round trip is identity.
                let round_tripped = Checkpoint::from_json(&run.checkpoint.to_json())
                    .expect("checkpoint JSON parses back");
                prop_assert_eq!(&round_tripped, &run.checkpoint);

                // Resume reaches the uninterrupted final state, and the
                // report too once the planner wall-clock is aligned.
                let resumed = driver.runner().resume(&run.checkpoint);
                prop_assert_eq!(resumed.state.state_hash(), baseline_hash);
                let mut report = resumed.report;
                report.planning = baseline.report.planning;
                prop_assert_eq!(report, baseline.report);
            }
        }
    }
}

/// Grabs a real checkpoint by killing a short run early.
fn interrupted_checkpoint(name: &str) -> Checkpoint {
    let config = workload(2005, 0.0, RecoveryPolicy::disabled());
    let mut protocol = canned(&config, 12);
    protocol.name = name.to_string();
    let driver = BatchDriver::with_envelope(config, envelope());
    let run = driver
        .runner()
        .run_with_fault(&protocol, 0, FaultPlan::after(5))
        .expect_err("an early kill point interrupts the run");
    run.checkpoint
}

/// Astral-plane characters in the protocol name survive the checkpoint's
/// JSON round trip — they encode as UTF-16 surrogate pairs in `\u` escapes
/// and must decode back to the same scalar values.
#[test]
fn checkpoint_json_round_trips_surrogate_pair_protocol_names() {
    let name = "assay-\u{1D538}\u{1F9EB}-\"quoted\"-\u{10FFFF}";
    let checkpoint = interrupted_checkpoint(name);
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
    let mut checkpoint = interrupted_checkpoint("nan-probe");

    checkpoint.ctx.planning = Seconds::new(f64::NAN);
    let text = checkpoint.to_json();
    assert!(text.contains("null"), "non-finite floats encode as null");
    assert!(Checkpoint::from_json(&text).is_err());

    checkpoint.ctx.planning = Seconds::new(0.0);
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
    let driver = BatchDriver::with_envelope(config, envelope());
    let (baseline, _) = driver.runner().run_journaled(&protocol, 0);
    let resumed = driver.runner().resume(&checkpoint);
    assert_eq!(resumed.state.state_hash(), baseline.state.state_hash());
    assert_eq!(baseline.state.state_hash(), 0x7940_391e_a5fb_149c);
}
