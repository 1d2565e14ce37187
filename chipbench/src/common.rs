//! Shared pieces of the workloads: run parameters, the result every
//! workload returns, correctness counting, statistics and the seeded RNG.

use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// Command-line parameters of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    /// Reduced input sizes, for the self-test only.
    pub reduced: bool,
}

impl Params {
    pub fn deadline(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A number printed next to the metrics: an input size actually run, or a
/// domain result. Deterministic facts must repeat exactly for a seed,
/// traced or not.
#[derive(Debug, Clone)]
pub struct Fact {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub deterministic: bool,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host milliseconds of each timed operation.
    pub latencies_ms: Vec<f64>,
    /// Work items per host second (the unit of work is per workload).
    pub work_per_s: f64,
    /// Fraction of the requested work delivered (deterministic per seed).
    pub yield_frac: f64,
    pub facts: Vec<Fact>,
    /// Per-layer metrics, filled by traced runs only.
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn size(&mut self, name: &str, value: f64) {
        self.fact(name, value, "count", true);
    }

    pub fn fact(&mut self, name: &str, value: f64, unit: &'static str, deterministic: bool) {
        self.facts.push(Fact {
            name: name.to_owned(),
            value,
            unit,
            deterministic,
        });
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// Estimated tracing overhead in percent of the timed work: spans
    /// recorded times the calibrated cost of one span. Used where the
    /// traced and untraced paths make the same calls and differ only by
    /// the recorder.
    pub fn recorder_overhead(&mut self, tracer: &Tracer) {
        let op_s: f64 = self.latencies_ms.iter().sum::<f64>() / 1e3;
        let pct = 100.0 * tracer.len() as f64 * Tracer::cost_per_span_s() / op_s.max(1e-9);
        self.layer("trace.overhead_pct", pct);
    }
}

/// Correctness checks made by the benchmark: one attempted operation per
/// check, failed when the check does not hold.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Runs `op(k)` for k = 0, 1, … until `params.seconds` have passed and at
/// least `min_ops` operations completed; returns the count.
pub fn run_for(params: &Params, min_ops: usize, mut op: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut k = 0;
    while k < min_ops.max(1) || start.elapsed() < params.deadline() {
        op(k);
        k += 1;
    }
    k
}

/// Runs `setup` `reps` times, returning the last result and every
/// repetition's host seconds.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), times)
}

/// Linear-interpolated quantile `q` in [0, 1]; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64: the benchmark's input generator, a pure function of the
/// seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
