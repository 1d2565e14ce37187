//! A viability-sorting assay: load a mixed population, tell viable from
//! non-viable cells by their dielectric signature, isolate one viable cell
//! and recover it — the workload the paper's introduction motivates.
//!
//! Run with `cargo run --example cell_sorting_assay`.

use labchip::prelude::*;
use labchip_array::pattern::{CagePattern, PatternKind};
use labchip_manipulation::ops;
use labchip_units::{GridCoord, GridDims, Hertz, Meters, Seconds};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Dielectric discrimination -------------------------------------
    // At 10 kHz in a low-conductivity buffer a viable cell (intact membrane)
    // is negative-DEP while a membrane-compromised cell is positive-DEP: the
    // former is trapped in the cages, the latter is not.
    let medium = Medium::physiological_low_conductivity();
    let frequency = Hertz::from_kilohertz(10.0);
    let viable = Particle::viable_cell(Meters::from_micrometers(10.0));
    let dead = Particle::nonviable_cell(Meters::from_micrometers(10.0));
    println!("Clausius-Mossotti factor at 10 kHz:");
    println!(
        "  viable cell    : {:+.3}",
        viable.cm_re(&medium, frequency)
    );
    println!("  non-viable cell: {:+.3}", dead.cm_re(&medium, frequency));
    println!("  -> only the viable cell is held in the cages (negative DEP)");
    println!();

    // --- 2. Detection ------------------------------------------------------
    // The capacitive sensors report which cages are occupied; averaging a few
    // frames makes the call essentially error-free.
    let sensor = CapacitiveSensor::date05_reference();
    let detector = Detector::new(0.0, sensor.signal_for(Occupancy::Occupied).get())?;
    let averager = FrameAverager::new(16);
    let noise = averager.effective_noise(&sensor.noise);
    println!(
        "detection with 16-frame averaging: SNR = {:.0}, error probability = {:.1e}",
        detector.separation() / noise,
        detector.error_probability(noise)
    );
    println!();

    // --- 3. The manipulation protocol --------------------------------------
    // Nine viable cells end up trapped after loading; cell #4 (say, the one
    // the operator picked under the microscope) is isolated to the array edge,
    // everything else is washed to the waste side, then the target is
    // recovered through the outlet. Every step runs on the chip state, which
    // keeps the time ledger.
    let dims = GridDims::square(32);
    let load_sites = CagePattern::new(
        dims,
        PatternKind::Lattice {
            period: 5,
            offset: GridCoord::new(4, 4),
        },
    )?;
    let mut state = ChipState::new(dims);
    for (k, site) in load_sites.cage_sites().iter().take(9).enumerate() {
        state.place(ParticleId(k as u64), *site)?;
    }
    state.charge(TimeLedger::Fluidics, Seconds::from_minutes(3.0));

    let scan_time = ScanTiming::date05_reference().averaged_scan_time(dims, &averager);
    state.charge(TimeLedger::Sensing, scan_time);
    let target = ParticleId(4);
    let step_period = ops::reference_step_period();
    let isolated = ops::isolate(&mut state, target, step_period)?;
    let washed = ops::wash_except(&mut state, &[target], step_period)?;
    state.remove(target)?;
    state.charge(TimeLedger::Fluidics, Seconds::from_minutes(1.0));

    let time = state.time();
    println!("viability sorting:");
    println!("  cage steps     : {}", isolated + washed);
    println!("  recovered cell : {target:?}");
    println!("  time budget:");
    println!(
        "    fluidics {:.1} min | motion {:.1} min | sensing {:.1} s | total {:.1} min",
        time.fluidics.as_minutes(),
        time.motion.as_minutes(),
        time.sensing.get(),
        time.total().as_minutes()
    );
    Ok(())
}
