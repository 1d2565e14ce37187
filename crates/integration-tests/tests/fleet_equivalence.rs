//! Property tests of the sharded fleet (E16): for any seed, noise level,
//! recovery policy and shard grid, the fleet projected from the
//! monolithic journal is an exact decomposition of the monolithic run —
//! and killing any shard worker of the job group at any phase boundary,
//! then resuming, lands on the uninterrupted group's hashes.
//!
//! These are the equivalence oracles, property-swept:
//!
//! * the per-shard journals of [`project`] — cross-shard handoff events
//!   included — replay through the ordinary [`replay`] oracle to the
//!   shard states, and the shards compose back to the monolithic state
//!   hash;
//! * every handoff is a matched pair: per shard pair, exports equal
//!   imports, and no shard imports from itself;
//! * the farm's [`ShardGroup`] (one worker per shard, barrier rendezvous
//!   at phase boundaries) reproduces every shard hash, survives a kill of
//!   *any* worker at *any* interior boundary, and resumes from the
//!   whole-group checkpoint bit-identically.
//!
//! [`replay`]: labchip_manipulation::journal::replay

use labchip::workload::{BatchDriver, Protocol, RecoveryPolicy, WorkloadConfig};
use labchip_farm::{GroupKill, ShardGroup};
use labchip_manipulation::fleet::{project, FleetOutcome, FleetTopology};
use labchip_manipulation::journal::Event;
use labchip_units::GridDims;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn workload(seed: u64, noise_scale: f64, recovery_rounds: u32) -> WorkloadConfig {
    WorkloadConfig {
        array_side: 32,
        noise_scale,
        detection_frames: 2,
        recovery: RecoveryPolicy {
            max_rounds: recovery_rounds,
            rescan_factor: 2,
        },
        seed,
        ..WorkloadConfig::default()
    }
}

fn canned(config: &WorkloadConfig, particles: usize) -> Protocol {
    Protocol::canned_cycle(
        GridDims::square(config.array_side),
        config.min_separation,
        particles,
    )
}

/// Every export has its import — per `(from_shard, to_shard)` pair,
/// counted once from the export halves and once from the import halves —
/// and no shard imports from itself.
fn check_handoffs(fleet: &FleetOutcome) {
    let mut exports: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut imports: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for (shard, journal) in fleet.journals.iter().enumerate() {
        for event in journal.events() {
            match *event {
                Event::HandoffExported { to_shard, .. } => {
                    *exports.entry((shard, to_shard)).or_default() += 1;
                }
                Event::HandoffImported { from_shard, .. } => {
                    *imports.entry((from_shard, shard)).or_default() += 1;
                }
                _ => {}
            }
        }
    }
    assert_eq!(exports, imports);
    assert!(imports.keys().all(|&(from, to)| from != to), "{imports:?}");
    assert_eq!(fleet.stats.exports, fleet.stats.imports);
}

const GRIDS: [(u32, u32); 3] = [(1, 1), (2, 1), (2, 2)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn any_seed_noise_recovery_and_grid_replays_to_the_monolithic_hash(
        seed in 0u64..1_000,
        noisy in 0u8..2,
        recovery_rounds in 0u32..3,
        grid_choice in 0usize..GRIDS.len(),
    ) {
        let config = workload(seed, if noisy == 0 { 0.0 } else { 6.0 }, recovery_rounds);
        let protocol = canned(&config, 20);
        let driver = BatchDriver::new(config);
        let (baseline, baseline_journal) = driver.run_journaled(&protocol, 0);

        let (cols, rows) = GRIDS[grid_choice];
        let dims = GridDims::square(config.array_side);
        let sep = config.min_separation.max(1);
        let fleet = project(&baseline_journal, &FleetTopology::new(dims, sep, cols, rows));

        // The shards compose back to the monolithic state, and every
        // shard journal replays to its shard — handoffs included.
        prop_assert_eq!(
            fleet.compose().state_hash(),
            baseline.state.state_hash(),
            "grid {}x{} composed to a different state", cols, rows
        );
        prop_assert_eq!(fleet.replay_divergences(), 0);

        check_handoffs(&fleet);
        let total: usize = fleet
            .states
            .iter()
            .map(|state| state.particle_count())
            .sum();
        prop_assert_eq!(total, baseline.state.particle_count());
    }

    #[test]
    fn killing_any_shard_worker_then_resuming_matches_the_uninterrupted_group(
        seed in 0u64..1_000,
        grid_choice in 1usize..GRIDS.len(),
        kill_shard in 0usize..4,
        kill_boundary in 1usize..8,
    ) {
        let config = workload(seed, 4.0, 1);
        let protocol = canned(&config, 16);
        let (cols, rows) = GRIDS[grid_choice];
        let group = ShardGroup::plan(&config, &protocol, cols, rows);

        check_handoffs(group.fleet());

        let expected = group.expected_hashes();
        let uninterrupted = group.run();
        prop_assert_eq!(uninterrupted.segments_folded, group.segment_count());
        prop_assert_eq!(uninterrupted.state_hashes(), expected.clone());

        let kill = GroupKill {
            shard: kill_shard % group.shard_count(),
            boundary: kill_boundary.clamp(1, group.segment_count() - 1),
        };
        let (stopped, checkpoint) = group.run_killed(kill);
        prop_assert_eq!(stopped.segments_folded, kill.boundary);
        prop_assert!(stopped.segments_folded < group.segment_count());

        // The whole-group checkpoint survives JSON and resumes to the
        // uninterrupted hashes.
        let restored = labchip_farm::GroupCheckpoint::from_json(&checkpoint.to_json())
            .expect("group checkpoints round trip");
        let resumed = group.resume(&restored).expect("the group's own checkpoint fits it");
        prop_assert_eq!(resumed.segments_folded, group.segment_count());
        prop_assert_eq!(resumed.state_hashes(), expected);
    }
}
