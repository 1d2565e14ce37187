//! `cell_motion`: population transport in the particle simulator. A 96²
//! reference chip carries the standard cage lattice with one levitated
//! cell per cage; every 0.4 s step period the lattice shuttles one
//! electrode right, then back (50 µm/s), with Brownian motion on and the
//! particle loop on all cores.

use std::time::Instant;

use labchip::biochip::Biochip;
use labchip::simulator::{ChipSimulator, SimulationConfig};
use labchip_array::pattern::CagePattern;
use labchip_physics::field::FieldModel;
use labchip_units::{GridDims, Seconds};

use crate::common::{available_parallelism, median, repeat_setup, run_for, Outcome, Params};
use crate::trace::Tracer;

/// Integration step, seconds.
const DT_S: f64 = 0.5e-3;
/// Settling steps before the first timed period (0.1 s).
const SETTLE_STEPS: usize = 200;
/// Steps of the speed-up probe.
const PROBE_STEPS: usize = 50;

/// Fraction of cells within half a pitch of their cage in `pattern`.
fn trapped_frac(sim: &ChipSimulator, pattern: &CagePattern) -> f64 {
    let half_pitch = 0.5 * sim.chip().array().pitch().get();
    let sites = pattern.cage_sites();
    let trapped = sites
        .iter()
        .enumerate()
        .filter(|(i, site)| sim.lateral_distance_from(*i, **site) < half_pitch)
        .count();
    trapped as f64 / sites.len().max(1) as f64
}

pub fn run(params: &Params, tracer: &Tracer) -> Outcome {
    // 0.4 s step period at dt 0.5 ms.
    let (side, steps) = if params.reduced { (24, 100) } else { (96, 800) };
    let dims = GridDims::square(side);
    let lattice = CagePattern::standard_lattice(dims).expect("the lattice fits the array");
    let shifted = lattice.shifted(1, 0);
    let cells = lattice.cage_count();
    let mut out = Outcome::default();
    let (mut sim, setup) = repeat_setup(3, || {
        let mut chip = Biochip::small_reference(side);
        chip.program_pattern(&lattice)
            .expect("the lattice fits the array");
        let mut sim = ChipSimulator::new(
            chip,
            SimulationConfig {
                dt: Seconds::new(DT_S),
                brownian: true,
                seed: params.seed,
            },
        );
        sim.set_threads(0);
        for site in lattice.cage_sites() {
            sim.add_reference_particle_at(*site)
                .expect("cage sites are on the array");
        }
        sim.run(SETTLE_STEPS);
        sim
    });
    out.setup_s = setup;

    let (mut program_s, mut refresh_s, mut run_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut shuttle_trapped = 0.0;
    let checks = &mut out.checks;
    let latencies = &mut out.latencies_ms;
    let periods = run_for(params, 2, |k| {
        let pattern = if k % 2 == 0 { &shifted } else { &lattice };
        let op = tracer.next_id();
        let t0 = Instant::now();
        sim.chip_mut()
            .program_pattern(pattern)
            .expect("a shifted lattice fits the array");
        let t1 = Instant::now();
        sim.refresh_field();
        let t2 = Instant::now();
        sim.run(steps);
        let t3 = Instant::now();
        let period = Some(k as u64);
        tracer.record(
            tracer.next_id(),
            "program_pattern",
            t0,
            t1,
            Some(op),
            period,
            0,
        );
        tracer.record(
            tracer.next_id(),
            "refresh_field",
            t1,
            t2,
            Some(op),
            period,
            0,
        );
        tracer.record(tracer.next_id(), "sim.run", t2, t3, Some(op), period, 0);
        tracer.record(op, "period", t0, t3, None, period, 0);
        latencies.push(t3.duration_since(t0).as_secs_f64() * 1e3);
        program_s.push(t1.duration_since(t0).as_secs_f64());
        refresh_s.push(t2.duration_since(t1).as_secs_f64());
        run_s.push(t3.duration_since(t2).as_secs_f64());
        let finite = sim.particles().iter().all(|p| {
            let x = p.state.position;
            x.x.is_finite() && x.y.is_finite() && x.z.is_finite()
        });
        checks.check(finite, || {
            format!("cell_motion period {k}: non-finite position")
        });
        if k == 1 {
            shuttle_trapped = trapped_frac(&sim, pattern);
        }
    });
    let end_pattern = if periods % 2 == 1 { &shifted } else { &lattice };

    let run_total: f64 = out.latencies_ms.iter().sum::<f64>() / 1e3;
    out.work_per_s = (cells * steps * periods) as f64 / run_total;
    out.yield_frac = shuttle_trapped;
    out.size("cells", cells as f64);
    out.size("electrodes", f64::from(side * side));
    out.size("steps_per_period", steps as f64);
    out.fact("periods", periods as f64, "count", false);
    out.fact(
        "sim_threads",
        available_parallelism() as f64,
        "count",
        false,
    );
    out.fact("steps_per_s", out.work_per_s, "1/s", false);
    out.fact("trapped_frac", shuttle_trapped, "ratio", true);
    out.fact(
        "trapped_frac_end",
        trapped_frac(&sim, end_pattern),
        "ratio",
        false,
    );

    if tracer.enabled() {
        out.recorder_overhead(tracer);
        out.layer("sim.run_s", median(&run_s));
        out.layer("sim.refresh_s", median(&refresh_s));
        out.layer("array.program_s", median(&program_s));
        probe_layers(&mut out, tracer, &mut sim);
    }
    out
}

/// Field-kernel and thread-scaling probes, after the timed periods.
fn probe_layers(out: &mut Outcome, tracer: &Tracer, sim: &mut ChipSimulator) {
    let field = sim.chip().field_model();
    let positions: Vec<_> = sim.particles().iter().map(|p| p.state.position).collect();
    let reps = 20;
    let (_, grad_s) = tracer.time("probe.field.grad_e_squared", None, None, || {
        for _ in 0..reps {
            for p in &positions {
                std::hint::black_box(field.grad_e_squared(std::hint::black_box(*p)));
            }
        }
    });
    out.layer(
        "field.grad_ns",
        grad_s * 1e9 / (reps * positions.len()) as f64,
    );

    sim.set_threads(1);
    let (_, single_s) = tracer.time("probe.sim.run_1t", None, None, || sim.run(PROBE_STEPS));
    sim.set_threads(0);
    let (_, all_s) = tracer.time("probe.sim.run", None, None, || sim.run(PROBE_STEPS));
    out.layer("sim.parallel_speedup", single_s / all_s);
}
