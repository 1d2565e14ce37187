//! Property tests of the protocol pipeline: any serde-round-tripped
//! [`Protocol`] executes with the `ChipState` invariants held.
//!
//! The invariants locked here are the contract of the phase decomposition:
//!
//! * particle count is conserved by every phase except `Load` and `Flush`
//!   (routing and recovery relocate, never create or destroy);
//! * the cached electrode pattern always agrees with the grid;
//! * the cycle's [`TimeBreakdown::total`] equals the sum of the per-phase
//!   ledgers the runner reports;
//! * executing the serde round-trip of a protocol reproduces the original
//!   run bit for bit (protocols are *data*, and data is the whole truth).

use labchip::workload::{
    BatchDriver, PhaseSpec, Protocol, RecoveryPolicy, RouteTarget, WorkloadConfig,
};
use labchip_manipulation::state::TimeBreakdown;
use labchip_units::Seconds;
use proptest::prelude::*;

/// Decodes one proptest-chosen `(kind, knob)` pair into a phase spec.
fn phase_from(kind: u8, knob: usize) -> PhaseSpec {
    match kind % 5 {
        0 => PhaseSpec::Load {
            particles: knob % 24 + 1,
            capacity_clamp: if knob.is_multiple_of(3) {
                Some(knob % 16 + 4)
            } else {
                None
            },
        },
        1 => PhaseSpec::Route {
            target: if knob.is_multiple_of(2) {
                RouteTarget::SortSplit
            } else {
                RouteTarget::MergePairs
            },
        },
        2 => PhaseSpec::Sense {
            frames: if knob.is_multiple_of(2) {
                None
            } else {
                Some((knob % 4 + 1) as u32)
            },
        },
        3 => PhaseSpec::Recover {
            policy: Some(RecoveryPolicy {
                max_rounds: (knob % 3) as u32,
                rescan_factor: 2,
            }),
        },
        _ => PhaseSpec::Flush,
    }
}

fn workload(seed: u64, noise_scale: f64) -> WorkloadConfig {
    WorkloadConfig {
        array_side: 32,
        noise_scale,
        detection_frames: 2,
        seed,
        ..WorkloadConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn any_round_tripped_protocol_holds_the_chip_state_invariants(
        specs in proptest::collection::vec((0u8..5, 0usize..1000), 1..8),
        seed in 0u64..1000,
        noisy in 0u8..2,
    ) {
        let mut protocol = Protocol::new("property-protocol");
        for (kind, knob) in &specs {
            protocol = protocol.with_phase(phase_from(*kind, *knob));
        }

        // Serde round trip: the protocol is pure data.
        let value = serde_json::to_value(&protocol);
        let round_tripped: Protocol =
            serde_json::from_value(&value).expect("protocols are serde-round-trippable");
        prop_assert_eq!(&round_tripped, &protocol);

        let noise_scale = if noisy == 0 { 0.0 } else { 4.0 };
        let config = workload(seed, noise_scale);
        let outcome = BatchDriver::new(config).run_protocol(&protocol);

        // Invariant: phases other than load/flush conserve the population.
        let mut population = 0usize;
        for phase in &outcome.phases {
            let conserves = !(phase.phase.starts_with("load") || phase.phase.starts_with("flush"));
            if conserves {
                prop_assert_eq!(
                    phase.particles_after, population,
                    "phase `{}` changed the particle count", &phase.phase
                );
            }
            population = phase.particles_after;
        }

        // Invariant: the cached pattern always agrees with the grid.
        let mut state = outcome.state;
        let grid_sites: Vec<_> = state.grid().iter_particles().map(|(_, c)| c).collect();
        let pattern_sites = state.pattern().cage_sites();
        let mut expected = grid_sites.clone();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(pattern_sites, &expected[..]);
        prop_assert_eq!(state.occupancy().occupied_count(), expected.len());

        // Invariant: the cycle total equals the sum of phase ledgers.
        let summed = outcome
            .phases
            .iter()
            .fold(TimeBreakdown::default(), |mut acc, phase| {
                acc.fluidics += phase.time.fluidics;
                acc.sensing += phase.time.sensing;
                acc.motion += phase.time.motion;
                acc.recovery += phase.time.recovery;
                acc
            });
        let total = outcome.report.time.total().get();
        prop_assert!(
            (summed.total().get() - total).abs() <= 1e-9 * total.max(1.0),
            "phase ledgers sum to {} but the cycle total is {}",
            summed.total().get(),
            total
        );
        prop_assert_eq!(outcome.report.time.total(), Seconds::new(total));

        // Executing the round-tripped protocol reproduces the run
        // bit-for-bit.
        let replay = BatchDriver::new(config).run_protocol(&round_tripped);
        prop_assert_eq!(replay.report, outcome.report);
    }
}
