//! Integration: manipulation layer → actuation array. The operations run on
//! the shared, journaled `ChipState`; the cage pattern of the state before
//! and after each operation is programmable on the chip facade, and the
//! complete assay replays bit-for-bit from its journal.

use labchip::prelude::*;
use labchip_manipulation::journal::replay;
use labchip_manipulation::ops;
use labchip_units::{GridCoord, GridDims, Seconds};

#[test]
fn state_patterns_around_an_operation_are_programmable_on_the_array() {
    let dims = GridDims::square(24);
    let mut state = ChipState::new(dims);
    state.place(ParticleId(1), GridCoord::new(3, 3)).unwrap();
    state.place(ParticleId(2), GridCoord::new(3, 12)).unwrap();
    let before = state.pattern().clone();
    let targets = [
        (ParticleId(1), GridCoord::new(20, 3)),
        (ParticleId(2), GridCoord::new(20, 12)),
    ];
    let steps = ops::move_group(&mut state, &targets, ops::reference_step_period())
        .expect("routing succeeds");
    assert!(steps >= 17);

    // Program the pattern before and after the move onto a chip of the
    // same size: if either were invalid the facade would reject it.
    let mut chip = BiochipBuilder::new()
        .dims(dims)
        .build()
        .expect("valid configuration");
    for frame in [&before, state.pattern()] {
        chip.program_pattern(frame)
            .expect("pattern is programmable");
        assert_eq!(chip.cage_count(), frame.cage_count());
        assert_eq!(frame.cage_count(), 2, "no cage is lost or merged");
    }
}

#[test]
fn assay_protocol_runs_on_the_same_grid_the_chip_exposes() {
    let chip = Biochip::small_reference(32);
    let dims = chip.array().dims();
    let step_period = ops::reference_step_period();

    let mut state = ChipState::new(dims);
    state.attach_journal();
    // Load six cells on a period-6 lattice.
    let sites = CagePattern::new(
        dims,
        labchip_array::pattern::PatternKind::Lattice {
            period: 6,
            offset: GridCoord::new(3, 3),
        },
    )
    .unwrap();
    for (k, site) in sites.cage_sites().iter().take(6).enumerate() {
        state.place(ParticleId(k as u64), *site).unwrap();
    }
    state.charge(TimeLedger::Fluidics, Seconds::from_minutes(2.0));
    // Detect, isolate, wash, recover.
    let scan_time = chip
        .scan_timing()
        .averaged_scan_time(dims, &FrameAverager::new(16));
    state.charge(TimeLedger::Sensing, scan_time);
    let target = ParticleId(2);
    ops::isolate(&mut state, target, step_period).expect("isolation routes");
    ops::wash_except(&mut state, &[target], step_period).expect("wash routes");
    state.remove(target).expect("target is on the chip");
    state.charge(TimeLedger::Fluidics, Seconds::from_minutes(1.0));

    let time = *state.time();
    assert!(time.fluidics > time.motion);
    assert!(time.motion > time.sensing);
    assert_eq!(state.particle_count(), 5);

    // The final state of the manipulation is programmable on the chip.
    let mut chip = chip;
    chip.program_pattern(state.pattern())
        .expect("final pattern programmable");
    assert_eq!(chip.cage_count(), state.particle_count());

    // And the whole assay is journaled: replay reaches the live state.
    let journal = state.take_journal().expect("journal attached");
    let replayed = replay(&journal, dims, state.grid().min_separation()).expect("replays");
    assert_eq!(replayed.state_hash(), state.state_hash());
}

#[test]
fn routed_plans_respect_the_cage_separation_at_every_step() {
    let config = labchip::experiments::e7_routing::Config {
        array_side: 32,
        ..labchip::experiments::e7_routing::Config::default()
    };
    let problem = labchip::experiments::e7_routing::generate_problem(&config, 20);
    let outcome = Router::new(RoutingStrategy::PrioritizedAStar)
        .solve(&problem)
        .expect("valid problem");
    assert!(outcome.success_rate(problem.requests.len()) > 0.9);
    assert!(outcome.is_conflict_free(problem.min_separation));
}
