//! `report` — drives the scenario engine of the DATE'05 reproduction, and
//! emits the machine-readable benchmark files.
//!
//! Usage:
//!
//! ```text
//! report list                          # enumerate the registered scenarios
//! report run --all                     # every experiment, markdown tables
//! report run e2 e5                     # a subset
//! report run --all --json              # one JSON document covering every scenario
//! report run e3 --set threads=2        # key=value overrides onto the typed config
//! report run --all --seed 7 --serial   # derived per-scenario seeds, serial order
//! report bench-fields [OUT.json]       # field-kernel benchmark trajectory
//! report bench-workload [OUT.json]     # workload/driver/farm benchmark trajectory
//! report journal-diff A.json B.json    # first divergence between two journals
//! report journal-diff --demo [--seed N] [--noise X] [--side N] [--particles N] [--save PREFIX]
//! report journal-diff --farm DIR JOB   # saved farm job vs a fresh baseline run
//! report farm demo [...]               # run a demo workload on an in-process farm
//! report farm submit P.json [...]      # run one protocol JSON as a farm job
//! report farm status --dir DIR JOB     # one saved job record, as JSON
//! report farm history --dir DIR [...]  # saved job records, filtered, as JSON
//! report [e2 e5 ...]                   # legacy spelling of `run`
//! ```
//!
//! The markdown output is what `EXPERIMENTS.md` quotes; `--json` emits the
//! same tables (plus full typed outputs, configs, seeds and wall-clock
//! times) as one JSON document from the same source. While scenarios run,
//! row-level progress streams to stderr so long runs never go dark.
//!
//! `bench-fields` times the field-evaluation kernels and the
//! particle-stepping loop; `bench-workload` times planning, driver cycles,
//! journal replay and the farm and fleet sweeps. Both write one document of
//! the same shape, so successive changes accumulate a perf trajectory:
//!
//! ```text
//! {"meta": {"available_parallelism": N, ...},
//!  "benchmarks": [{"id": "...", "value": V, "unit": "ns", "threads": T}, ...]}
//! ```

use labchip::prelude::{Biochip, ChipSimulator, SimulationConfig};
use labchip::scenario::{outcomes_to_json, Progress, ProgressEvent, RunOutcome, Runner};
use labchip_farm::full_registry;
use labchip_physics::field::cache::FieldCache;
use labchip_physics::field::superposition::SuperpositionField;
use labchip_physics::field::{ElectrodePhase, ElectrodePlane, FieldModel};
use labchip_units::{GridCoord, GridDims, Meters, Seconds, Vec3, Volts};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-fields") => {
            let out = args.get(1).map_or("BENCH_fields.json", String::as_str);
            exit_on_bench_error(write_bench(out, &[], bench_fields));
        }
        Some("bench-workload") => {
            let out = args.get(1).map_or("BENCH_workload.json", String::as_str);
            let meta = [("cycles", CYCLES), ("pairs", PAIRS), ("reps", REPS)];
            exit_on_bench_error(write_bench(out, &meta, bench_workload));
        }
        Some("journal-diff") => {
            if let Err(message) = journal_diff(&args[1..]) {
                eprintln!("error: {message}");
                std::process::exit(2);
            }
        }
        Some("farm") => {
            if let Err(message) = farm_command(&args[1..]) {
                eprintln!("error: {message}");
                std::process::exit(2);
            }
        }
        Some("list") => list_scenarios(),
        Some("run") => {
            if let Err(message) = run_scenarios(&args[1..]) {
                eprintln!("error: {message}");
                std::process::exit(2);
            }
        }
        // Legacy spelling: bare ids (or nothing for everything), markdown.
        // Long-standing contract: unknown ids warn and are skipped (exit 0),
        // unlike the `run` subcommand's hard errors.
        _ => {
            let registry = full_registry();
            let mut legacy: Vec<String> = Vec::with_capacity(args.len());
            for id in &args {
                if registry.get(id).is_some() {
                    legacy.push(id.clone());
                } else {
                    eprintln!(
                        "unknown experiment id `{id}` (expected {})",
                        registry.id_range()
                    );
                }
            }
            if args.is_empty() {
                legacy.push("--all".into());
            } else if legacy.is_empty() {
                // All ids were unknown: keep the legacy empty report.
                print_markdown_report(&[]);
                return;
            }
            legacy.push("--quiet".into());
            if let Err(message) = run_scenarios(&legacy) {
                eprintln!("error: {message}");
                std::process::exit(2);
            }
        }
    }
}

/// `report list` — one line per registered scenario.
fn list_scenarios() {
    let registry = full_registry();
    for scenario in registry.iter() {
        println!("{}  {}", scenario.id(), scenario.describe());
    }
    println!("{} scenarios", registry.len());
}

/// Streams scenario progress to stderr, one line per event.
struct StderrProgress;

impl Progress for StderrProgress {
    fn on_event(&self, event: &ProgressEvent) {
        match event {
            ProgressEvent::ScenarioStarted { scenario } => {
                eprintln!("[{scenario}] started");
            }
            ProgressEvent::Row {
                scenario,
                index,
                summary,
            } => {
                eprintln!("[{scenario}] row {index}: {summary}");
            }
            ProgressEvent::SimSteps {
                scenario,
                steps,
                elapsed_s,
                particles,
            } => {
                eprintln!(
                    "[{scenario}] sim t={elapsed_s:.2} s (+{steps} steps, {particles} particles)"
                );
            }
            ProgressEvent::ScenarioFinished {
                scenario,
                rows,
                wall_ms,
            } => {
                eprintln!("[{scenario}] done: {rows} rows in {wall_ms:.1} ms");
            }
        }
    }
}

/// `report run ...` — executes a scenario subset through the engine.
fn run_scenarios(args: &[String]) -> Result<(), String> {
    let mut ids: Vec<String> = Vec::new();
    let mut all = false;
    let mut json = false;
    let mut quiet = false;
    let mut runner = Runner::new(full_registry());
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--json" => json = true,
            "--serial" => {
                runner.set_parallel(false);
            }
            "--quiet" => quiet = true,
            "--set" => {
                let spec = iter
                    .next()
                    .ok_or_else(|| "--set needs a key=value argument".to_owned())?;
                runner.set_override(spec).map_err(|e| e.to_string())?;
            }
            "--seed" => {
                let seed = iter
                    .next()
                    .ok_or_else(|| "--seed needs an integer argument".to_owned())?;
                runner.set_base_seed(seed.parse().map_err(|_| format!("invalid seed `{seed}`"))?);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`"));
            }
            id => ids.push(id.to_owned()),
        }
    }
    if !quiet {
        runner.set_progress(Arc::new(StderrProgress));
    }

    let outcomes = if all {
        if !ids.is_empty() {
            return Err("pass either explicit ids or --all, not both".to_owned());
        }
        runner.run_all().map_err(|e| e.to_string())?
    } else if ids.is_empty() {
        return Err("no scenarios selected (pass ids like `e3`, or --all)".to_owned());
    } else {
        runner.run(&ids).map_err(|e| e.to_string())?
    };

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&outcomes_to_json(&outcomes))
        );
    } else {
        print_markdown_report(&outcomes);
    }
    Ok(())
}

fn print_markdown_report(outcomes: &[RunOutcome]) {
    println!("# labchip experiment report");
    println!();
    println!(
        "Reproduction of \"New Perspectives and Opportunities From the Wild West of \
         Microelectronic Biochips\" (Manaresi et al., DATE 2005)."
    );
    println!();
    for outcome in outcomes {
        println!("{}", outcome.table);
    }
}

/// One measurement in a `BENCH_*.json` file; `bench-fields` and
/// `bench-workload` emit nothing else.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchRow {
    id: String,
    value: f64,
    /// `ns` (per operation), `ms`, `1/s`, `ratio`, `%` or `count`.
    unit: String,
    /// Worker threads the measured code ran on; 0 for a count that is not
    /// a timing.
    threads: usize,
}

impl BenchRow {
    fn new(id: impl Into<String>, value: f64, unit: &str, threads: usize) -> Self {
        Self {
            id: id.into(),
            value,
            unit: unit.to_owned(),
            threads,
        }
    }
}

/// A whole `BENCH_*.json` document.
#[derive(Debug, Serialize, Deserialize)]
struct BenchFile {
    /// The machine's `available_parallelism` plus the run's size constants:
    /// a `threads/1` vs `all_cores` comparison means nothing without knowing
    /// how many cores "all" was.
    meta: BTreeMap<String, usize>,
    benchmarks: Vec<BenchRow>,
}

/// Checks that `path` is writable, runs `measure`, and writes its rows
/// with `meta` and the machine's `available_parallelism` to `path`. The
/// check comes first because the measurements can take a minute and would
/// otherwise be thrown away at the final write.
fn write_bench(
    path: &str,
    meta: &[(&str, usize)],
    measure: impl FnOnce() -> Vec<BenchRow>,
) -> Result<(), String> {
    let unwritable = |err: std::io::Error| format!("cannot write benchmark output `{path}`: {err}");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(unwritable)?;
    let benchmarks = measure();
    let mut meta: BTreeMap<String, usize> = meta
        .iter()
        .map(|&(key, value)| (key.to_owned(), value))
        .collect();
    meta.insert("available_parallelism".into(), available_parallelism());
    let file = BenchFile { meta, benchmarks };
    std::fs::write(path, serde_json::to_string_pretty(&file) + "\n").map_err(unwritable)?;
    println!("wrote {path} ({} entries)", file.benchmarks.len());
    Ok(())
}

fn exit_on_bench_error(result: Result<(), String>) {
    if let Err(message) = result {
        eprintln!("{message}");
        std::process::exit(1);
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Median ns per call of `f` over `samples` timed batches. Calls are
/// batched until a batch costs ≳1 ms, so the calibration doubles as a
/// warm-up; a call slower than that is timed one at a time.
fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut run_batch = |batch: u64| {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        t0.elapsed().as_nanos() as f64
    };
    let mut batch = 1u64;
    while run_batch(batch) < 1e6 {
        batch *= 2;
    }
    let times: Vec<f64> = (0..samples)
        .map(|_| run_batch(batch) / batch as f64)
        .collect();
    median(times)
}

/// The median (upper median for an even count) of `values`.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// The nearest-rank `fraction` percentile of ascending `sorted` (0 when
/// empty).
fn percentile(sorted: &[f64], fraction: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let position = (fraction * (sorted.len() - 1) as f64).round() as usize;
    sorted[position.min(sorted.len() - 1)]
}

/// Reference plane (20 µm pitch, 3.3 V, 80 µm chamber) with a single cage
/// at the array centre, in the fast field model.
fn cage_field(side: u32) -> SuperpositionField {
    let mut plane = ElectrodePlane::new(
        GridDims::square(side),
        Meters::from_micrometers(20.0),
        Volts::new(3.3),
        Meters::from_micrometers(80.0),
    );
    plane.set_phase(
        GridCoord::new(side / 2, side / 2),
        ElectrodePhase::CounterPhase,
    );
    SuperpositionField::new(plane)
}

/// The simulator benchmark workload: a 64×64 chip programmed with the
/// standard cage lattice and `particles` cells spread deterministically
/// (low-discrepancy additive recurrences) through the chamber.
fn populated_simulator(threads: usize, particles: u32) -> ChipSimulator {
    let mut chip = Biochip::small_reference(64);
    let pattern = labchip_array::pattern::CagePattern::standard_lattice(chip.array().dims())
        .expect("lattice fits");
    chip.program_pattern(&pattern).expect("pattern fits");
    let mut sim = ChipSimulator::new(
        chip,
        SimulationConfig {
            dt: Seconds::from_millis(0.5),
            brownian: true,
            seed: 9,
        },
    )
    .with_threads(threads);
    let cell = *sim.chip().reference_particle();
    let width = sim.chip().array().to_electrode_plane().width();
    for i in 0..particles {
        let fx = (i as f64 * 0.754_877_666) % 1.0;
        let fy = (i as f64 * 0.569_840_296) % 1.0;
        let z = 15e-6 + 50e-6 * ((i as f64 * 0.381_966_011) % 1.0);
        sim.add_particle(
            cell,
            Vec3::new((0.05 + 0.9 * fx) * width, (0.05 + 0.9 * fy) * width, z),
        )
        .expect("inside the chamber");
    }
    sim
}

/// `report bench-fields` — the field kernels (ns/op, single-threaded) and
/// simulator step throughput with 1000 particles on 1 thread and on all
/// cores.
fn bench_fields() -> Vec<BenchRow> {
    let mut rows = Vec::new();
    for side in [16u32, 320] {
        let field = cage_field(side);
        let probe = Vec3::new(
            field.plane().width() / 2.0,
            field.plane().height() / 2.0,
            30e-6,
        );
        let kernels: [(&str, &dyn Fn()); 4] = [
            ("potential", &|| {
                black_box(field.potential(black_box(probe)));
            }),
            ("e_squared", &|| {
                black_box(field.e_squared(black_box(probe)));
            }),
            ("grad_e_squared", &|| {
                black_box(field.grad_e_squared(black_box(probe)));
            }),
            ("grad_e_squared_fd", &|| {
                black_box(field.grad_e_squared_fd(black_box(probe)));
            }),
        ];
        for (name, kernel) in kernels {
            rows.push(BenchRow::new(
                format!("kernel_field_evaluation/{name}/{side}"),
                median_ns(32, kernel),
                "ns",
                1,
            ));
        }
    }

    let cache = FieldCache::build(&cage_field(16));
    let probe = Vec3::new(163.1e-6, 157.7e-6, 31e-6);
    rows.push(BenchRow::new(
        "kernel_field_evaluation/field_cache_grad_lookup",
        median_ns(32, || {
            black_box(cache.grad_e_squared(black_box(probe)));
        }),
        "ns",
        1,
    ));

    // `threads = 0` asks the simulator for every core; its rows name the
    // resolved count so a 1-core runner's 1.0x speedup reads as such.
    for threads in [1usize, 0] {
        let mut sim = populated_simulator(threads, 1000);
        let ns_per_step = median_ns(32, || sim.run(1));
        let (resolved, label) = if threads == 0 {
            let all = available_parallelism();
            (all, format!("all_cores({all})"))
        } else {
            (threads, threads.to_string())
        };
        rows.push(BenchRow::new(
            format!("simulator_step_1000_particles/threads/{label}"),
            ns_per_step,
            "ns",
            resolved,
        ));
        rows.push(BenchRow::new(
            format!("particle_steps_per_second/threads/{label}"),
            1000.0 / (ns_per_step * 1e-9),
            "1/s",
            resolved,
        ));
    }

    let ns = |id: &str| {
        rows.iter()
            .find(|row| row.id == id)
            .map_or(f64::NAN, |row| row.value)
    };
    let speedup = ns("kernel_field_evaluation/grad_e_squared_fd/320")
        / ns("kernel_field_evaluation/grad_e_squared/320");
    println!("analytic grad_e_squared speedup over finite differences (side 320): {speedup:.1}x");
    rows
}

/// Driver cycles per `bench-workload` batch, interleaved live/journaled
/// batch pairs, and replay repetitions.
const CYCLES: usize = 4;
const PAIRS: usize = 9;
const REPS: usize = 3;

/// `report bench-workload` — the workload-pipeline perf trajectory:
/// incremental-router planning, full driver cycles with and without the
/// event journal attached, journal replay, and the farm and fleet sweeps.
///
/// All cycle variants run the *identical* deterministic cycle sequence
/// (same seeds, same routing problems), so their wall-clock totals are
/// directly comparable. Live and journaled batches run as interleaved
/// pairs and the journal overhead is the median of the per-pair ratios, so
/// drift in the host's load hits both sides of a pair alike. CI bounds the
/// journal write overhead (< 2% of a live cycle) and requires replay to be
/// faster than live execution — the property that makes the journal a
/// usable crash-recovery and debugging artifact.
fn bench_workload() -> Vec<BenchRow> {
    use labchip::scenario::{Scenario, ScenarioContext};
    use labchip::workload::{
        sort_problem, BatchDriver, Protocol, RunOptions, Start, WorkloadConfig,
    };
    use labchip_manipulation::journal::{replay, Journal};
    use labchip_manipulation::sharding::{IncrementalRouter, RouterCache, ShardConfig};

    let driver_at = |array_side: u32| {
        BatchDriver::new(WorkloadConfig {
            array_side,
            ..WorkloadConfig::default()
        })
    };
    let pinned_pool = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool construction is infallible")
    };
    // Rows not pinned to a pool run on the ambient one.
    let ambient = rayon::current_num_threads();
    let mut rows = Vec::new();

    // Incremental-router planning alone (no execution, no sensing).
    for (side, particles) in [(128u32, 500usize), (256, 1000)] {
        let driver = driver_at(side);
        rows.push(BenchRow::new(
            format!("workload/incremental_plan/{side}x{particles}"),
            median_ns(8, || {
                black_box(driver.plan_only(particles, 2005));
            }),
            "ns",
            ambient,
        ));
    }

    // Warm-start replanning at full chip scale: one cold solve of the
    // 320²/10k sort (the E10 headline problem) on a pinned single-thread
    // pool, then warm re-solves of the identical problem against the primed
    // plan cache. Warm output is bit-identical to cold by the cache's
    // content-key construction, so the ratio row is a pure speed figure.
    // The cache counters are exact: a warm re-solve misses nothing and
    // keeps exactly the entries the cold solve left.
    let problem = sort_problem(GridDims::square(320), 10_000, 2, 2005);
    let router = IncrementalRouter::new(ShardConfig::default());
    let pool = pinned_pool(1);
    let mut cache = RouterCache::new();
    let solve_cached = |cache: &mut RouterCache| {
        pool.install(|| {
            black_box(
                router
                    .solve_cached(&problem, cache)
                    .expect("generated problems are always well-formed"),
            );
        });
    };
    let t0 = Instant::now();
    solve_cached(&mut cache);
    let cold = t0.elapsed().as_nanos() as f64;
    let cold_stats = cache.stats();
    let warm = median_ns(3, || solve_cached(&mut cache));
    let warm_stats = cache.stats();
    let warm_cold_ratio = warm / cold;
    rows.push(BenchRow::new(
        "workload/incremental_plan_cold/320x10000",
        cold,
        "ns",
        1,
    ));
    rows.push(BenchRow::new(
        "workload/incremental_plan_warm/320x10000",
        warm,
        "ns",
        1,
    ));
    rows.push(BenchRow::new(
        "workload/plan_warm_cold_ratio",
        warm_cold_ratio,
        "ratio",
        1,
    ));
    rows.push(BenchRow::new(
        "workload/plan_warm_misses/320x10000",
        (warm_stats.misses - cold_stats.misses) as f64,
        "count",
        0,
    ));
    rows.push(BenchRow::new(
        "workload/plan_cache_entries_cold/320x10000",
        cold_stats.entries as f64,
        "count",
        0,
    ));
    rows.push(BenchRow::new(
        "workload/plan_cache_entries/320x10000",
        warm_stats.entries as f64,
        "count",
        0,
    ));
    // Exact counts of the same problem's uncached solve: the windows it
    // ran, and how many of them repeated the recorded period of its
    // periodic tail instead of planning.
    let (_, solve_stats) = pool
        .install(|| router.solve_with_stats(&problem))
        .expect("generated problems are always well-formed");
    rows.push(BenchRow::new(
        "workload/plan_windows/320x10000",
        solve_stats.windows as f64,
        "count",
        0,
    ));
    rows.push(BenchRow::new(
        "workload/plan_windows_repeated/320x10000",
        solve_stats.windows_repeated as f64,
        "count",
        0,
    ));

    // The SoA tile-membership build alone: the per-window counting sort
    // over the 320²/10k scatter (margin freezing included), isolated from
    // the A* so the partition-build lever of the cold solve is tracked.
    let positions: Vec<_> = problem
        .requests
        .iter()
        .map(|request| request.start)
        .collect();
    rows.push(BenchRow::new(
        "workload/partition_build/320x10000",
        median_ns(16, || {
            black_box(router.partition_build_probe(GridDims::square(320), 2, &positions));
        }),
        "ns",
        1,
    ));

    // Thread-pinned planning: the same problem under explicit rayon pools,
    // so the trajectory records a measured scaling curve (a time row and a
    // speedup-over-1-thread row per thread count) instead of whatever pool
    // the ambient environment happened to provide.
    let driver = driver_at(128);
    let mut serial_ns = None;
    let mut curve = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let pool = pinned_pool(threads);
        let ns = median_ns(8, || {
            pool.install(|| black_box(driver.plan_only(500, 2005)));
        });
        let speedup = *serial_ns.get_or_insert(ns) / ns;
        rows.push(BenchRow::new(
            format!("workload/incremental_plan_pinned/128x500/threads/{threads}"),
            ns,
            "ns",
            threads,
        ));
        rows.push(BenchRow::new(
            format!("workload/incremental_plan_pinned_speedup/128x500/threads/{threads}"),
            speedup,
            "ratio",
            threads,
        ));
        curve.push(format!("{threads}t {speedup:.2}x"));
    }

    // Full driver cycles: live (no journal) vs journaled, the same
    // deterministic cycle sequence each way, then replay of the recorded
    // journals back into chip states.
    let cycle_config = WorkloadConfig {
        array_side: 96,
        ..WorkloadConfig::default()
    };
    let dims = GridDims::square(cycle_config.array_side);
    let sep = cycle_config.min_separation.max(1);
    let protocol = Protocol::canned_cycle(dims, sep, 200);
    // One batch of `CYCLES` cycles on a fresh driver: its wall-clock and
    // the journals it recorded (none when live).
    let time_batch = |journaled: bool| -> (f64, Vec<Journal>) {
        let driver = BatchDriver::new(cycle_config);
        let mut journals = Vec::with_capacity(CYCLES);
        let t0 = Instant::now();
        for cycle in 0..CYCLES {
            if journaled {
                let (outcome, journal) = driver.run_journaled(&protocol, cycle);
                black_box(outcome);
                journals.push(journal);
            } else {
                let fresh = Start::Fresh {
                    protocol: &protocol,
                    cycle,
                };
                black_box(driver.execute(fresh, RunOptions::default()).ok());
            }
        }
        (t0.elapsed().as_secs_f64(), journals)
    };
    // Warm both paths once (field caches, allocator) before measuring.
    time_batch(false);
    time_batch(true);
    let (mut live, mut journaled, mut overheads) = (Vec::new(), Vec::new(), Vec::new());
    let mut journals = Vec::new();
    for pair in 0..PAIRS {
        // Alternate which side of the pair runs first.
        let live_first = pair % 2 == 0;
        let first = time_batch(!live_first);
        let second = time_batch(live_first);
        let ((live_s, _), (journaled_s, recorded)) = if live_first {
            (first, second)
        } else {
            (second, first)
        };
        live.push(live_s);
        journaled.push(journaled_s);
        overheads.push(journaled_s / live_s - 1.0);
        journals = recorded;
    }
    let live_total = median(live);
    let journaled_total = median(journaled);
    let replay_total = {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            for journal in &journals {
                black_box(replay(journal, dims, sep).expect("recorded journals replay cleanly"));
            }
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let per_cycle = |total: f64| total / CYCLES as f64 * 1e9;
    for (id, total) in [
        ("workload/driver_cycle_live/96x200", live_total),
        ("workload/driver_cycle_journaled/96x200", journaled_total),
        ("workload/cycle_replay/96x200", replay_total),
    ] {
        rows.push(BenchRow::new(id, per_cycle(total), "ns", ambient));
    }
    let journal_overhead_pct = 100.0 * median(overheads);
    let replay_vs_live_pct = 100.0 * (replay_total / live_total - 1.0);
    rows.push(BenchRow::new(
        "workload/journal_overhead_pct",
        journal_overhead_pct,
        "%",
        ambient,
    ));
    rows.push(BenchRow::new(
        "workload/replay_vs_live_pct",
        replay_vs_live_pct,
        "%",
        ambient,
    ));

    // Farm fleet benchmark: the E15 scenario's worker-count sweep, folded
    // into the same trajectory file — jobs/sec from the wall clock of each
    // point's start → drain, latency percentiles over its Done jobs, plus
    // the sweep's divergence tripwire.
    let farm_config = labchip_farm::scenario::Config::default();
    let farm_baseline = labchip_farm::scenario::Baseline::run(&farm_config);
    let mut farm_divergences = 0;
    for &workers in &farm_config.worker_counts {
        let point = farm_baseline.point(workers);
        let t0 = Instant::now();
        point.drain();
        let wall_s = t0.elapsed().as_secs_f64();
        let tally = point.tally(&mut ScenarioContext::silent("E15"));
        farm_divergences += tally.divergences;
        let mut latencies: Vec<f64> = point
            .records()
            .iter()
            .filter(|record| record.status == labchip_farm::JobStatus::Done)
            .map(labchip_farm::JobRecord::latency_ms)
            .collect();
        latencies.sort_by(f64::total_cmp);
        let jobs_per_sec = if wall_s > 0.0 {
            tally.completed as f64 / wall_s
        } else {
            0.0
        };
        for (metric, value, unit) in [
            ("jobs_per_sec", jobs_per_sec, "1/s"),
            ("latency_p50_ms", percentile(&latencies, 0.50), "ms"),
            ("latency_p99_ms", percentile(&latencies, 0.99), "ms"),
        ] {
            rows.push(BenchRow::new(
                format!("workload/farm/{metric}/workers/{workers}"),
                value,
                unit,
                workers,
            ));
        }
    }
    rows.push(BenchRow::new(
        "workload/farm/divergences",
        farm_divergences as f64,
        "count",
        0,
    ));

    // Sharded-fleet benchmark: a reduced E16 sweep (the default 320²/10k
    // sweep belongs to `report run e16`), recording handoff traffic per
    // shard grid plus the equivalence tripwire, and the wall clock of each
    // grid's projection plus one uninterrupted group run.
    let fleet_config = labchip_farm::fleet_scenario::Config {
        array_side: 96,
        particles: 200,
        ..labchip_farm::fleet_scenario::Config::default()
    };
    let fleet = labchip_farm::FleetScenario.run(&fleet_config, &mut ScenarioContext::silent("E16"));
    let baseline = labchip_farm::fleet_scenario::Baseline::run(&fleet_config);
    for (row, &grid) in fleet.grids.iter().zip(&fleet_config.grids) {
        let topology = baseline.topology(grid).expect("the default grids fit 96²");
        let t0 = Instant::now();
        black_box(baseline.group(&topology).run());
        rows.push(BenchRow::new(
            format!("workload/fleet/wall_ms/grid/{}", row.grid),
            t0.elapsed().as_secs_f64() * 1e3,
            "ms",
            row.shards,
        ));
        rows.push(BenchRow::new(
            format!("workload/fleet/handoffs/grid/{}", row.grid),
            row.handoffs as f64,
            "count",
            row.shards,
        ));
    }
    rows.push(BenchRow::new(
        "workload/fleet/divergences",
        fleet.total_divergences as f64,
        "count",
        0,
    ));

    println!("warm/cold replan ratio (320x10000, 1 thread): {warm_cold_ratio:.4}");
    println!(
        "pinned incremental-plan scaling (128x500): {}",
        curve.join(", ")
    );
    for row in &rows {
        let id = &row.id;
        if id.contains("jobs_per_sec") || id.contains("wall_ms") || id.ends_with("divergences") {
            println!("{id}: {:.2}", row.value);
        }
    }
    println!(
        "journal write overhead vs live cycle: {journal_overhead_pct:+.3}% \
         ({:.1} ms journaled vs {:.1} ms live per cycle)",
        per_cycle(journaled_total) / 1e6,
        per_cycle(live_total) / 1e6
    );
    println!(
        "journal replay vs live execution: {replay_vs_live_pct:+.3}% \
         ({:.3} ms replay per cycle)",
        per_cycle(replay_total) / 1e6
    );
    rows
}

/// `report journal-diff` — where do two chip-state journals first diverge?
///
/// File mode (`report journal-diff A.json B.json`) compares two saved
/// journals event by event and prints the common-prefix length and the
/// first divergent pair. Demo mode (`--demo`) runs the canned cycle twice
/// at the *same* seed — open-loop (recovery disabled) versus closed-loop
/// (the DATE'05 reference policy) — and diffs the two journals: the
/// divergence point is exactly where the recovery loop first acted on a
/// detection mismatch, the E12 debugging question the journal was built to
/// answer. `--save PREFIX` writes both demo journals for later file-mode
/// diffs.
fn journal_diff(args: &[String]) -> Result<(), String> {
    use labchip::workload::{BatchDriver, Protocol, RecoveryPolicy, WorkloadConfig};
    use labchip_manipulation::journal::{diff, Journal};
    use labchip_units::GridDims;

    // Farm mode: a saved job's committed journal vs a fresh baseline run
    // of the same record. The record carries protocol + effective config,
    // so a `Done` job must diff clean — any divergence localises exactly
    // where the farm's execution (including any kill/resume history)
    // departed from a straight-through run.
    if args.first().map(String::as_str) == Some("--farm") {
        let [_, dir, job] = args else {
            return Err("usage: report journal-diff --farm DIR JOB".into());
        };
        let id = labchip_farm::JobId::parse(job)
            .ok_or_else(|| format!("`{job}` is not a job id (expected `7` or `job-7`)"))?;
        let store = labchip_farm::HistoryStore::new(dir.as_str());
        let record = store
            .load_record(id)
            .map_err(|err| format!("cannot load {id} from `{dir}`: {err}"))?;
        let saved = store
            .load_journal(id)
            .map_err(|err| format!("cannot load {id}'s journal from `{dir}`: {err}"))?;
        let driver = BatchDriver::new(record.config);
        let (_, baseline) = driver.run_journaled(&record.protocol, 0);
        println!(
            "{id} (`{}`, tenant {}, status {}, {} resumes): committed journal vs fresh baseline\n",
            record.protocol.name,
            record.tenant,
            record.status.label(),
            record.resumes
        );
        println!("{}", diff(&saved, &baseline));
        return Ok(());
    }

    if args.first().map(String::as_str) != Some("--demo") {
        let [path_a, path_b] = args else {
            return Err(
                "usage: report journal-diff A.json B.json  |  report journal-diff --demo \
                 [--seed N] [--noise X] [--side N] [--particles N] [--save PREFIX]  |  \
                 report journal-diff --farm DIR JOB"
                    .into(),
            );
        };
        let load = |path: &String| -> Result<Journal, String> {
            let text = std::fs::read_to_string(path)
                .map_err(|err| format!("cannot read journal `{path}`: {err}"))?;
            serde_json::from_str(&text)
                .map_err(|err| format!("`{path}` is not a journal JSON: {err}"))
        };
        let a = load(path_a)?;
        let b = load(path_b)?;
        println!("{}", diff(&a, &b));
        return Ok(());
    }

    // Demo mode: open- vs closed-loop at the same seed.
    let mut seed = 2005u64;
    let mut noise = 8.0f64;
    let mut side = 48u32;
    let mut particles = 60usize;
    let mut save: Option<String> = None;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            rest.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--noise" => {
                noise = value("--noise")?
                    .parse()
                    .map_err(|e| format!("--noise: {e}"))?;
            }
            "--side" => {
                side = value("--side")?
                    .parse()
                    .map_err(|e| format!("--side: {e}"))?
            }
            "--particles" => {
                particles = value("--particles")?
                    .parse()
                    .map_err(|e| format!("--particles: {e}"))?;
            }
            "--save" => save = Some(value("--save")?.clone()),
            other => return Err(format!("unknown journal-diff flag `{other}`")),
        }
    }

    let base = WorkloadConfig {
        array_side: side,
        seed,
        noise_scale: noise,
        detection_frames: 2,
        recovery: RecoveryPolicy::disabled(),
        ..WorkloadConfig::default()
    };
    let dims = GridDims::square(side);
    let sep = base.min_separation.max(1);
    let protocol = Protocol::canned_cycle(dims, sep, particles);
    let run = |config: WorkloadConfig| {
        let driver = BatchDriver::new(config);
        driver.run_journaled(&protocol, 0).1
    };
    let open = run(base);
    let closed = run(WorkloadConfig {
        recovery: RecoveryPolicy::date05_reference(),
        ..base
    });
    println!(
        "canned cycle, seed {seed}, noise {noise}, {side}x{side}, {particles} particles:\n\
         open-loop (recovery off) vs closed-loop (DATE'05 reference policy)\n"
    );
    println!("{}", diff(&open, &closed));
    if let Some(prefix) = save {
        for (suffix, journal) in [("open", &open), ("closed", &closed)] {
            let path = format!("{prefix}-{suffix}.json");
            std::fs::write(&path, serde_json::to_string(journal))
                .map_err(|err| format!("cannot write `{path}`: {err}"))?;
            println!("wrote {path} ({} events)", journal.len());
        }
    }
    Ok(())
}

/// `report farm ...` — job control against an in-process chip farm.
///
/// The farm is a library service, not a daemon, so `demo` and `submit`
/// spin a fleet up, drive it to drain and tear it down in one invocation;
/// `--out DIR` persists every terminal job's record + committed journal
/// through the [`HistoryStore`](labchip_farm::HistoryStore), and `status`
/// / `history` read such a directory back — the same files
/// `report journal-diff --farm` consumes.
fn farm_command(args: &[String]) -> Result<(), String> {
    use labchip_farm::{Farm, FarmConfig, HistoryFilter, HistoryStore, JobId, JobSpec};

    let usage = "usage: report farm demo [--workers N] [--tenants N] [--jobs-per-tenant N] \
                 [--kill N] [--side N] [--particles N] [--seed N] [--out DIR]  |  \
                 report farm submit PROTOCOL.json [--tenant T] [--workers N] [--seed N] \
                 [--side N] [--out DIR]  |  report farm status --dir DIR JOB  |  \
                 report farm history --dir DIR [--tenant T] [--depth N] [--terminal]";
    match args.first().map(String::as_str) {
        Some("demo") => {
            let mut workers = 2usize;
            let mut tenants = 3usize;
            let mut jobs_per_tenant = 2usize;
            let mut kill = 1usize;
            let mut side = 32u32;
            let mut particles = 24usize;
            let mut seed = 2005u64;
            let mut out: Option<String> = None;
            let mut rest = args[1..].iter();
            while let Some(flag) = rest.next() {
                let mut value = |name: &str| -> Result<&String, String> {
                    rest.next().ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--workers" => workers = parse_workers(value("--workers")?)?,
                    "--tenants" => tenants = parse_flag(value("--tenants")?, "--tenants")?,
                    "--jobs-per-tenant" => {
                        jobs_per_tenant =
                            parse_flag(value("--jobs-per-tenant")?, "--jobs-per-tenant")?;
                    }
                    "--kill" => kill = parse_flag(value("--kill")?, "--kill")?,
                    "--side" => side = parse_flag(value("--side")?, "--side")?,
                    "--particles" => particles = parse_flag(value("--particles")?, "--particles")?,
                    "--seed" => seed = parse_flag(value("--seed")?, "--seed")?,
                    "--out" => out = Some(value("--out")?.clone()),
                    other => return Err(format!("unknown farm demo flag `{other}`\n{usage}")),
                }
            }
            run_farm_demo(
                workers,
                tenants.max(1),
                jobs_per_tenant.max(1),
                kill,
                side,
                particles,
                seed,
                out.as_deref(),
            )
        }
        Some("submit") => {
            let path = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| format!("submit needs a PROTOCOL.json path\n{usage}"))?;
            let mut tenant = "cli".to_owned();
            let mut workers = 1usize;
            let mut side = 32u32;
            let mut seed: Option<u64> = None;
            let mut out: Option<String> = None;
            let mut rest = args[2..].iter();
            while let Some(flag) = rest.next() {
                let mut value = |name: &str| -> Result<&String, String> {
                    rest.next().ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--tenant" => tenant = value("--tenant")?.clone(),
                    "--workers" => workers = parse_workers(value("--workers")?)?,
                    "--side" => side = parse_flag(value("--side")?, "--side")?,
                    "--seed" => seed = Some(parse_flag(value("--seed")?, "--seed")?),
                    "--out" => out = Some(value("--out")?.clone()),
                    other => return Err(format!("unknown farm submit flag `{other}`\n{usage}")),
                }
            }
            let text = std::fs::read_to_string(path)
                .map_err(|err| format!("cannot read protocol `{path}`: {err}"))?;
            let protocol: labchip::workload::Protocol = serde_json::from_str(&text)
                .map_err(|err| format!("`{path}` is not a protocol JSON: {err}"))?;
            let farm = Farm::new(FarmConfig {
                workers,
                workload: labchip::workload::WorkloadConfig {
                    array_side: side,
                    ..labchip::workload::WorkloadConfig::default()
                },
                ..FarmConfig::default()
            });
            let mut spec = JobSpec::tenant(tenant);
            if let Some(seed) = seed {
                spec = spec.with_seed(seed);
            }
            let id = farm
                .submit(protocol, spec)
                .map_err(|err| format!("submit failed: {err}"))?;
            farm.wait_idle();
            let record = farm.record(id).expect("submitted job has a record");
            println!("{}", serde_json::to_string_pretty(&record));
            if let Some(dir) = out {
                save_farm_history(&farm, &HistoryStore::new(dir.as_str()))?;
            }
            farm.shutdown();
            Ok(())
        }
        Some("status") => {
            let (dir, positional) = take_dir_flag(&args[1..])?;
            let dir = dir.ok_or_else(|| format!("status needs --dir DIR\n{usage}"))?;
            let [job] = positional.as_slice() else {
                return Err(format!("status needs exactly one JOB id\n{usage}"));
            };
            let id = JobId::parse(job)
                .ok_or_else(|| format!("`{job}` is not a job id (expected `7` or `job-7`)"))?;
            let record = HistoryStore::new(dir.as_str())
                .load_record(id)
                .map_err(|err| format!("cannot load {id} from `{dir}`: {err}"))?;
            println!("{}", serde_json::to_string_pretty(&record));
            Ok(())
        }
        Some("history") => {
            let mut dir: Option<String> = None;
            let mut filter = HistoryFilter::all();
            let mut depth = 0usize;
            let mut rest = args[1..].iter();
            while let Some(flag) = rest.next() {
                let mut value = |name: &str| -> Result<&String, String> {
                    rest.next().ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--dir" => dir = Some(value("--dir")?.clone()),
                    "--tenant" => filter.tenant = Some(value("--tenant")?.clone()),
                    "--depth" => depth = parse_flag(value("--depth")?, "--depth")?,
                    "--terminal" => filter.terminal_only = true,
                    other => return Err(format!("unknown farm history flag `{other}`\n{usage}")),
                }
            }
            let dir = dir.ok_or_else(|| format!("history needs --dir DIR\n{usage}"))?;
            let store = HistoryStore::new(dir.as_str());
            let ids = store
                .list()
                .map_err(|err| format!("cannot list `{dir}`: {err}"))?;
            let mut records = Vec::new();
            for id in ids.into_iter().rev() {
                let record = store
                    .load_record(id)
                    .map_err(|err| format!("cannot load {id} from `{dir}`: {err}"))?;
                if filter.matches(&record) {
                    records.push(record);
                }
                if depth > 0 && records.len() == depth {
                    break;
                }
            }
            println!("{}", serde_json::to_string_pretty(&records));
            Ok(())
        }
        _ => Err(usage.into()),
    }
}

fn parse_flag<T: std::str::FromStr>(text: &str, name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse()
        .map_err(|err| format!("{name}: invalid value `{text}`: {err}"))
}

/// Parses `--workers`, bounded like every scenario thread count: each farm
/// worker is an OS thread, and the check runs before any farm is built.
fn parse_workers(text: &str) -> Result<usize, String> {
    let workers = parse_flag(text, "--workers")?;
    labchip::scenario::Limit::threads("--workers", workers).map_err(|limit| limit.to_string())?;
    Ok(workers)
}

fn take_dir_flag(args: &[String]) -> Result<(Option<String>, Vec<String>), String> {
    let mut dir = None;
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--dir" {
            dir = Some(
                iter.next()
                    .ok_or_else(|| "--dir needs a value".to_owned())?
                    .clone(),
            );
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((dir, positional))
}

fn save_farm_history(
    farm: &labchip_farm::Farm,
    store: &labchip_farm::HistoryStore,
) -> Result<(), String> {
    let records = farm.history(&labchip_farm::HistoryFilter::all(), 0);
    let mut saved = 0;
    for record in &records {
        // The farm releases the journals of its oldest terminal jobs; a
        // record without its journal cannot be diffed, so it is skipped.
        let Some(journal) = farm.accumulated_journal(record.id) else {
            continue;
        };
        store.save(record, &journal).map_err(|err| {
            format!(
                "cannot save {} to `{}`: {err}",
                record.id,
                store.dir().display()
            )
        })?;
        saved += 1;
    }
    println!("saved {saved} job records to {}", store.dir().display());
    if saved < records.len() {
        println!(
            "skipped {} older jobs whose journals the farm already released",
            records.len() - saved
        );
    }
    Ok(())
}

/// `report farm demo` — a multi-tenant workload with an injected mid-run
/// kill, printed as a job table.
#[allow(clippy::too_many_arguments)]
fn run_farm_demo(
    workers: usize,
    tenants: usize,
    jobs_per_tenant: usize,
    kill: usize,
    side: u32,
    particles: usize,
    seed: u64,
    out: Option<&str>,
) -> Result<(), String> {
    use labchip::workload::{BatchDriver, WorkloadConfig};
    use labchip_farm::{
        scenario::protocol_mix, Farm, FarmConfig, HistoryFilter, HistoryStore, JobSpec,
    };
    use labchip_manipulation::journal::FaultPlan;
    use labchip_units::GridDims;

    let workload = WorkloadConfig {
        array_side: side,
        seed,
        ..WorkloadConfig::default()
    };
    let dims = GridDims::square(side);
    let sep = workload.min_separation.max(1);
    let mix = protocol_mix(dims, sep, particles);
    let farm = Farm::new(FarmConfig {
        workers,
        workload,
        start_paused: true,
        ..FarmConfig::default()
    });
    let total = tenants * jobs_per_tenant;
    println!(
        "farm demo: {workers} workers, {tenants} tenants x {jobs_per_tenant} jobs, \
         {} protocols, {kill} injected kill(s)\n",
        mix.len()
    );
    for index in 0..total {
        let protocol = mix[index % mix.len()].clone();
        let job_seed = seed + index as u64;
        let mut spec =
            JobSpec::tenant(format!("tenant-{}", index / jobs_per_tenant)).with_seed(job_seed);
        if index < kill {
            // Arm the kill at half the job's uninterrupted journal so the
            // demo always exercises the checkpoint-resume path.
            let mut config = workload;
            config.seed = job_seed;
            let (_, journal) = BatchDriver::new(config).run_journaled(&protocol, 0);
            spec = spec.with_fault(FaultPlan::after((journal.len() as u64 / 2).max(1)));
        }
        farm.submit(protocol, spec)
            .map_err(|err| format!("submit failed: {err}"))?;
    }
    let started = std::time::Instant::now();
    farm.start();
    farm.wait_idle();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    println!("| job | tenant | protocol | status | phases | resumes | latency ms | state hash |");
    println!("|---|---|---|---|---|---|---|---|");
    let records = farm.history(&HistoryFilter::all(), 0);
    for record in records.iter().rev() {
        println!(
            "| {} | {} | {} | {} | {} | {} | {:.1} | {} |",
            record.id,
            record.tenant,
            record.protocol.name,
            record.status.label(),
            record.phases_completed,
            record.resumes,
            record.latency_ms(),
            record.state_hash.as_deref().unwrap_or("-")
        );
    }
    let done = records
        .iter()
        .filter(|r| matches!(r.status, labchip_farm::JobStatus::Done))
        .count();
    println!(
        "\n{done}/{total} jobs done in {wall_ms:.0} ms ({:.1} jobs/s)",
        done as f64 / (wall_ms / 1e3)
    );
    if let Some(dir) = out {
        save_farm_history(&farm, &HistoryStore::new(dir))?;
    }
    farm.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_file_round_trips_through_serde_json() {
        let rows = vec![
            BenchRow::new("kernel/a/16", 2461.36, "ns", 1),
            BenchRow::new(
                "steps/threads/all_cores(2)",
                381_349.412_345_678_9,
                "1/s",
                2,
            ),
            BenchRow::new("ratio", 0.1 + 0.2, "ratio", 8),
            BenchRow::new("pct", -99.415, "%", 2),
            BenchRow::new("divergences", 0.0, "count", 0),
        ];
        let path = std::env::temp_dir().join(format!("labchip-bench-{}.json", std::process::id()));
        let path = path.to_str().expect("temp path is UTF-8");
        write_bench(path, &[("cycles", 4)], || rows.clone()).expect("temp dir is writable");
        let text = std::fs::read_to_string(path).expect("file was written");
        std::fs::remove_file(path).expect("file was written");

        let file: BenchFile = serde_json::from_str(&text).expect("writer emits valid JSON");
        assert_eq!(file.benchmarks, rows);
        assert_eq!(file.meta["cycles"], 4);
        assert_eq!(file.meta["available_parallelism"], available_parallelism());
    }

    #[test]
    fn farm_worker_counts_past_the_cap_are_rejected() {
        // The flag check only: no farm is built for any of these counts.
        use labchip::scenario::MAX_THREADS;
        assert_eq!(parse_workers(&MAX_THREADS.to_string()), Ok(MAX_THREADS));
        for workers in [MAX_THREADS + 1, usize::MAX] {
            let message = parse_workers(&workers.to_string()).unwrap_err();
            assert!(message.contains("--workers"), "{message}");
            assert!(message.contains("exceeds the limit 256"), "{message}");
        }
    }

    #[test]
    fn unwritable_output_is_rejected_before_measuring() {
        let path = "/nonexistent-labchip-dir/BENCH.json";
        let result = write_bench(path, &[], || panic!("measured before the path check"));
        let message = result.expect_err("path has no parent directory");
        assert!(message.contains(path), "{message}");
    }
}
