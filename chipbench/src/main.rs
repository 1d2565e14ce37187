//! The labchip benchmark: end-to-end metrics of four workloads and, in a
//! separate traced run, the per-layer metrics behind them.
//!
//! ```text
//! chipbench --workload <assay_320|replan_320|farm_mix|cell_motion>
//!           --seed <n> --seconds <s> --trace <0|1> [--reduced]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones
//! (a layer the workload bypasses reads 0), and the traced run also
//! writes its spans as Chrome trace-event JSON under `chipbench/out/`.
//! `--reduced` shrinks every input for the self-test.

mod assay;
mod cell_motion;
mod common;
mod farm_mix;
mod replan;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use common::{available_parallelism, median, peak_rss_mb, quantile, Outcome, Params};
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["assay_320", "replan_320", "farm_mix", "cell_motion"];

/// End-to-end metrics, printed by every workload.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("work_per_s", "1/s"),
    ("yield_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run.
const PER_LAYER: [(&str, &str); 34] = [
    ("workload.load_s", "s"),
    ("workload.route_s", "s"),
    ("workload.sense_s", "s"),
    ("workload.recover_s", "s"),
    ("workload.flush_s", "s"),
    ("workload.between_phases_s", "s"),
    ("workload.recovery_moves", "count"),
    ("workload.mismatches_initial", "count"),
    ("router.solve_s", "s"),
    ("router.parallel_speedup", "ratio"),
    ("router.partition_s", "s"),
    ("router.makespan_steps", "count"),
    ("router.total_moves", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.misses", "count"),
    ("cache.invalidate_s", "s"),
    ("cache.entries", "count"),
    ("scan.scan_s", "s"),
    ("scan.error_rate", "ratio"),
    ("journal.events", "count"),
    ("farm.queue_ms_p50", "ms"),
    ("farm.queue_ms_p90", "ms"),
    ("farm.run_ms.canned", "ms"),
    ("farm.run_ms.merge", "ms"),
    ("farm.run_ms.qc", "ms"),
    ("farm.worker_busy", "ratio"),
    ("farm.settle_ms_p50", "ms"),
    ("farm.resumes", "count"),
    ("field.grad_ns", "ns"),
    ("sim.run_s", "s"),
    ("sim.parallel_speedup", "ratio"),
    ("sim.refresh_s", "s"),
    ("array.program_s", "s"),
    ("trace.overhead_pct", "%"),
];

const USAGE: &str = "usage: chipbench --workload <assay_320|replan_320|farm_mix|cell_motion> \
                     --seed <n> --seconds <s> --trace <0|1> [--reduced]";

struct Args {
    workload: String,
    params: Params,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut reduced) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--reduced" {
            reduced = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        params: Params {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            reduced,
        },
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "assay_320" => assay::run(&args.params, &tracer),
        "replan_320" => replan::run(&args.params, &tracer),
        "farm_mix" => farm_mix::run(&args.params, &tracer),
        _ => cell_motion::run(&args.params, &tracer),
    };
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.params.seed));
        if let Err(error) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.chrome_json()))
        {
            eprintln!("writing {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("trace: {} spans in {}", tracer.len(), path.display());
    }
    match report(&args, &outcome) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// The human-readable lines followed by the JSON result line.
fn report(args: &Args, outcome: &Outcome) -> Result<String, String> {
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        for (name, _) in &outcome.layers {
            if !PER_LAYER.iter().any(|(known, _)| known == name) {
                return Err(format!("workload reported undeclared layer metric {name}"));
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = outcome
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                (name, value, unit)
            })
            .collect()
    } else {
        let values = [
            median(&outcome.setup_s),
            median(&outcome.latencies_ms),
            quantile(&outcome.latencies_ms, 0.9),
            outcome.work_per_s,
            outcome.yield_frac,
            peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite: {value}"));
    }

    let checks = &outcome.checks;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "chipbench {} seed={} seconds={} trace={} reduced={}",
        args.workload,
        args.params.seed,
        args.params.seconds,
        u8::from(args.trace),
        args.params.reduced
    );
    let _ = writeln!(
        text,
        "size available_parallelism = {} count",
        available_parallelism()
    );
    let _ = writeln!(
        text,
        "size timed_ops = {} count",
        outcome.latencies_ms.len()
    );
    let _ = writeln!(text, "size setup_reps = {} count", outcome.setup_s.len());
    for fact in &outcome.facts {
        let kind = if fact.deterministic { "det" } else { "info" };
        let _ = writeln!(text, "{kind} {} = {} {}", fact.name, fact.value, fact.unit);
    }
    for (name, value, unit) in &metrics {
        let _ = writeln!(text, "metric {name} = {value} {unit}");
    }
    let error_rate = checks.failed as f64 / checks.attempted.max(1) as f64;
    let _ = writeln!(
        text,
        "error_rate = {error_rate} ({} of {} checks failed)",
        checks.failed, checks.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let _ = writeln!(
        text,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    Ok(text)
}
