//! In-memory span recorder for the traced run, exported as Chrome
//! trace-event JSON (load the file in `chrome://tracing` or Perfetto).
//!
//! Spans are recorded here, in the benchmark, around calls into each
//! layer's public functions; the workspace crates are not instrumented.
//! A disabled tracer records nothing, so untraced runs pay only the
//! branch.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The cycle, replan, job or period the span belongs to.
    pub op: Option<u64>,
    pub name: String,
    pub start: Instant,
    pub end: Instant,
    /// Lane in the trace viewer.
    pub lane: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent closes.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span observed between two instants.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        op: Option<u64>,
        lane: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.lock().expect("span buffer poisoned").push(Span {
            id,
            parent,
            op,
            name: name.to_owned(),
            start,
            end,
            lane,
        });
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the elapsed seconds (measured whether or not tracing is on).
    pub fn time<R>(
        &self,
        name: &str,
        parent: Option<u64>,
        op: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.enabled {
            let id = self.next_id();
            self.record(id, name, start, end, parent, op, 0);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer poisoned").len()
    }

    /// Host seconds one recorded span costs: two clock reads, an id and a
    /// buffer push, timed over a scratch tracer.
    pub fn cost_per_span_s() -> f64 {
        const N: usize = 20_000;
        let scratch = Tracer::new(true);
        let started = Instant::now();
        for _ in 0..N {
            let (_, _) = scratch.time("calibrate", None, None, || ());
        }
        started.elapsed().as_secs_f64() / N as f64
    }

    /// The spans as Chrome trace-event JSON ("X" complete events, times
    /// in microseconds since the tracer was created).
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = String::from("{\"traceEvents\":[");
        for (k, span) in spans.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let ts = span.start.duration_since(self.origin).as_secs_f64() * 1e6;
            let dur = span.seconds() * 1e6;
            let _ = write!(
                out,
                "\n{{\"name\":{},\"cat\":\"chipbench\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{}",
                json_string(&span.name),
                span.lane,
                span.id
            );
            if let Some(parent) = span.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            if let Some(op) = span.op {
                let _ = write!(out, ",\"op\":{op}");
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
