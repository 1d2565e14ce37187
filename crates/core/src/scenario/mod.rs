//! The unified scenario engine: one trait, a registry, and a streaming
//! runner for the E1–E14 scenarios.
//!
//! The experiment modules under [`crate::experiments`] each expose a
//! typed `Config` and a typed result; this module gives them one shared
//! contract so that callers — the `report` binary, benches, examples and
//! bulk sweeps — no longer re-plumb each experiment by hand:
//!
//! * [`Scenario`] is the typed contract: a `Config` (serde round-trippable,
//!   with paper-scenario defaults) and an `Output` that renders into an
//!   [`ExperimentTable`], plus `id`/`describe` metadata and a
//!   [`Scenario::run`] entry point that receives a [`ScenarioContext`];
//! * [`ScenarioRegistry`] enumerates every experiment behind type-erased
//!   trait objects, with `serde_json` [`Value`]s carrying configs and
//!   outputs across the `dyn` boundary;
//! * [`Runner`] executes any subset — in parallel via rayon, with
//!   per-scenario seeds, wall-clock accounting and `key=value` config
//!   overrides parsed onto the typed configs;
//! * [`ScenarioContext`] carries the seed and a [`Progress`] sink so long
//!   runs stream row-level telemetry instead of going dark; its
//!   [`ScenarioContext::step_observer`] bridges the
//!   [`ChipSimulator`](crate::simulator::ChipSimulator) step-observer hook
//!   into the same sink.
//!
//! ```
//! use labchip::scenario::{Runner, ScenarioRegistry};
//!
//! let registry = ScenarioRegistry::all();
//! assert_eq!(registry.len(), 14);
//!
//! let mut runner = Runner::new(ScenarioRegistry::all());
//! runner.set_override("batch_sizes=[1,5]").unwrap();
//! let outcomes = runner.run(&["e6"]).unwrap();
//! assert_eq!(outcomes[0].id, "E6");
//! assert_eq!(outcomes[0].table.columns.len(), 5 + 2);
//! ```

mod progress;
mod registry;
mod runner;

pub use progress::{CollectingProgress, NullProgress, Progress, ProgressEvent};
pub use registry::{DynScenario, ScenarioRegistry, ScenarioRun};
pub use runner::{outcomes_to_json, RunOutcome, Runner};

use crate::experiments::ExperimentTable;
use crate::simulator::StepObserver;
use crate::workload::{PhaseSpec, Protocol, RecoveryPolicy};
use serde::de::DeserializeOwned;
use serde::Serialize;
use serde_json::Value;
use std::fmt;
use std::sync::Arc;

/// One experiment of the reproduction, as a first-class, enumerable,
/// parameterizable unit.
///
/// Implementations are zero-sized handles (e.g.
/// [`crate::experiments::e6_fabrication::FabricationScenario`]); the state
/// lives in the typed `Config`. The engine talks to scenarios through
/// [`DynScenario`], which erases the associated types via `serde_json`
/// values, so anything implementing this trait can be dropped into the
/// [`ScenarioRegistry`] and driven by the [`Runner`].
pub trait Scenario: Send + Sync + 'static {
    /// The typed configuration; `Default` must be the paper's scenario.
    type Config: Serialize + DeserializeOwned + Default + Clone + Send;

    /// The typed result; must render into an [`ExperimentTable`] and
    /// serialise for `--json` output.
    type Output: Into<ExperimentTable> + Serialize;

    /// Stable identifier (`"E1"` … `"E9"` for the paper experiments).
    fn id(&self) -> &'static str;

    /// One-line human description of what the scenario measures.
    fn describe(&self) -> &'static str;

    /// Checks `config` against the scenario's resource bounds; the engine
    /// calls it before anything runs. No bounds by default.
    ///
    /// # Errors
    ///
    /// The first [`Limit`] `config` exceeds.
    fn check_limits(&self, _config: &Self::Config) -> Result<(), Limit> {
        Ok(())
    }

    /// Runs the scenario. Implementations should stream one
    /// [`ScenarioContext::emit_row`] per result row as it is produced.
    fn run(&self, config: &Self::Config, ctx: &mut ScenarioContext) -> Self::Output;
}

/// Largest thread count a scenario config may ask for. The rayon worker
/// pool keeps every thread it has started, so a config must not be able to
/// make it start thousands.
pub const MAX_THREADS: usize = 256;

/// Largest array side a scenario config may ask for: the 4096² grid of
/// 2²⁴ cells, the largest the routers' dense conflict scan spans. Far
/// larger sides abort the process when the array's buffers are allocated,
/// so the bound is checked before anything is built.
pub const MAX_ARRAY_SIDE: u32 = 4096;

/// Largest number of sensor frames one scan may average. A scan draws
/// every frame of every site, so four billion frames run for hours even
/// on a 16² array, while 4096 take a tenth of a second there; the bound is
/// checked before anything runs.
pub const MAX_FRAMES: u32 = 4096;

/// A config value beyond the bound its scenario sets on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Limit {
    /// The config field.
    pub field: &'static str,
    /// The value asked for.
    pub value: usize,
    /// The largest value allowed.
    pub max: usize,
}

impl Limit {
    /// Checks the thread count `threads` of `field` against
    /// [`MAX_THREADS`].
    ///
    /// # Errors
    ///
    /// The exceeded [`Limit`] when `threads > MAX_THREADS`.
    pub fn threads(field: &'static str, threads: usize) -> Result<(), Limit> {
        if threads > MAX_THREADS {
            return Err(Limit {
                field,
                value: threads,
                max: MAX_THREADS,
            });
        }
        Ok(())
    }

    /// Checks the array side `side` of the `array_side` field against
    /// [`MAX_ARRAY_SIDE`].
    ///
    /// # Errors
    ///
    /// The exceeded [`Limit`] when `side > MAX_ARRAY_SIDE`.
    pub fn array_side(side: u32) -> Result<(), Limit> {
        if side > MAX_ARRAY_SIDE {
            return Err(Limit {
                field: "array_side",
                value: side as usize,
                max: MAX_ARRAY_SIDE as usize,
            });
        }
        Ok(())
    }

    /// Checks the frames one scan averages, `frames` of `field`, against
    /// [`MAX_FRAMES`]. A `u64` holds the product of two `u32` counts, so a
    /// re-scan's `frames × rescan_factor` is checked without overflow.
    ///
    /// # Errors
    ///
    /// The exceeded [`Limit`] when `frames > MAX_FRAMES`.
    pub fn frames(field: &'static str, frames: u64) -> Result<(), Limit> {
        if frames > u64::from(MAX_FRAMES) {
            return Err(Limit {
                field,
                value: usize::try_from(frames).unwrap_or(usize::MAX),
                max: MAX_FRAMES as usize,
            });
        }
        Ok(())
    }

    /// Checks the scans of a cycle that averages `frames` per detection
    /// scan under `recovery`: the scan itself, and the recovery re-scan of
    /// `frames × rescan_factor` (the factor clamped to at least 1, as the
    /// Recover phase does).
    ///
    /// # Errors
    ///
    /// The first exceeded [`Limit`].
    pub fn scans(frames: u32, recovery: &RecoveryPolicy) -> Result<(), Limit> {
        Limit::frames("detection_frames", frames.into())?;
        Limit::frames(
            "detection_frames × rescan_factor",
            u64::from(frames) * u64::from(recovery.rescan_factor.max(1)),
        )
    }

    /// Checks the scans `protocol` sets itself, on a workload that averages
    /// `detection_frames` per detection scan: every `Sense` phase with its
    /// own frame count, and the re-scan of every `Recover` phase with its
    /// own policy. Phases that keep the workload's defaults are covered by
    /// [`Limit::scans`] of the workload.
    ///
    /// # Errors
    ///
    /// The first exceeded [`Limit`], in phase order.
    pub fn protocol(protocol: &Protocol, detection_frames: u32) -> Result<(), Limit> {
        for phase in &protocol.phases {
            match phase {
                PhaseSpec::Sense {
                    frames: Some(frames),
                } => Limit::frames("Sense.frames", (*frames).into())?,
                PhaseSpec::Recover {
                    policy: Some(policy),
                } => Limit::scans(detection_frames, policy)?,
                _ => {}
            }
        }
        Ok(())
    }
}

impl fmt::Display for Limit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}` = {} exceeds the limit {}",
            self.field, self.value, self.max
        )
    }
}

/// Per-run state handed to [`Scenario::run`]: the derived seed, the
/// scenario's identifier and the [`Progress`] sink rows are streamed into.
pub struct ScenarioContext {
    scenario_id: String,
    seed: u64,
    progress: Arc<dyn Progress>,
    rows: usize,
}

impl fmt::Debug for ScenarioContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScenarioContext")
            .field("scenario_id", &self.scenario_id)
            .field("seed", &self.seed)
            .field("rows", &self.rows)
            .finish_non_exhaustive()
    }
}

impl ScenarioContext {
    /// Creates a context streaming into `progress`.
    pub fn new(scenario_id: impl Into<String>, seed: u64, progress: Arc<dyn Progress>) -> Self {
        Self {
            scenario_id: scenario_id.into(),
            seed,
            progress,
            rows: 0,
        }
    }

    /// A context that discards all telemetry — what the legacy
    /// `run(&Config)` shims use.
    pub fn silent(scenario_id: impl Into<String>) -> Self {
        Self::new(scenario_id, 0, Arc::new(NullProgress))
    }

    /// The seed the runner derived for this scenario run. Scenarios whose
    /// config carries its own `seed` field have that field already updated;
    /// seedless scenarios may use this directly.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The running scenario's identifier.
    pub fn scenario_id(&self) -> &str {
        &self.scenario_id
    }

    /// Number of rows streamed so far.
    pub fn rows_emitted(&self) -> usize {
        self.rows
    }

    /// Streams one row-level telemetry event. `summary` is a short
    /// human-readable digest of the row (not the rendered table cells).
    pub fn emit_row(&mut self, summary: impl Into<String>) {
        let event = ProgressEvent::Row {
            scenario: self.scenario_id.clone(),
            index: self.rows,
            summary: summary.into(),
        };
        self.rows += 1;
        self.progress.on_event(&event);
    }

    /// A [`StepObserver`] forwarding simulator step batches into this
    /// context's progress sink — plug it into
    /// [`ChipSimulator::set_step_observer`](crate::simulator::ChipSimulator::set_step_observer)
    /// so long particle runs report liveness.
    pub fn step_observer(&self) -> Arc<dyn StepObserver> {
        Arc::new(progress::ProgressStepObserver::new(
            self.scenario_id.clone(),
            Arc::clone(&self.progress),
        ))
    }

    /// The progress sink itself (to share with sub-components).
    pub fn progress(&self) -> Arc<dyn Progress> {
        Arc::clone(&self.progress)
    }
}

/// Errors produced by the scenario engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// An identifier did not match any registered scenario.
    UnknownScenario {
        /// The offending identifier.
        id: String,
        /// The registry's identifier span (e.g. `"E1..E14"`), derived
        /// from the live registrations.
        expected: String,
    },
    /// A config value failed to decode onto the scenario's typed config.
    Config {
        /// The scenario whose config was rejected.
        scenario: String,
        /// Decoder message.
        message: String,
    },
    /// A `key=value` override was malformed or matched no selected scenario.
    Override {
        /// What went wrong.
        message: String,
    },
    /// A config value exceeded the scenario's resource bound.
    OverLimit {
        /// The scenario whose config was rejected.
        scenario: String,
        /// The bound it exceeded.
        limit: Limit,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownScenario { id, expected } => {
                write!(f, "unknown scenario id `{id}` (expected {expected})")
            }
            ScenarioError::Config { scenario, message } => {
                write!(f, "invalid config for {scenario}: {message}")
            }
            ScenarioError::Override { message } => write!(f, "bad override: {message}"),
            ScenarioError::OverLimit { scenario, limit } => {
                write!(f, "invalid config for {scenario}: {limit}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Parses one `key=value` override: the value text is parsed as JSON when it
/// is valid JSON and falls back to a bare string otherwise, so
/// `threads=2`, `use_io_drivers=true`, `sides=[64,320]` and `label=foo` all
/// work without quoting gymnastics.
pub(crate) fn parse_override(spec: &str) -> Result<(String, Value), ScenarioError> {
    let (key, text) = spec
        .split_once('=')
        .ok_or_else(|| ScenarioError::Override {
            message: format!("`{spec}` is not of the form key=value"),
        })?;
    let key = key.trim();
    if key.is_empty() {
        return Err(ScenarioError::Override {
            message: format!("`{spec}` has an empty key"),
        });
    }
    let text = text.trim();
    let value =
        serde_json::from_str::<Value>(text).unwrap_or_else(|_| Value::String(text.to_owned()));
    Ok((key.to_owned(), value))
}

/// Applies an override to a config tree if the (dot-separated) path already
/// exists, returning whether it was applied. Only existing keys are
/// replaced — inventing new keys would silently miss the typed config.
pub(crate) fn apply_override(config: &mut Value, path: &str, value: &Value) -> bool {
    let mut cursor = config;
    let mut segments = path.split('.').peekable();
    while let Some(segment) = segments.next() {
        let Some(object) = cursor.as_object_mut() else {
            return false;
        };
        let Some(slot) = object.get_mut(segment) else {
            return false;
        };
        if segments.peek().is_none() {
            *slot = value.clone();
            return true;
        }
        cursor = slot;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_parsing_covers_json_and_bare_strings() {
        let (k, v) = parse_override("threads=2").unwrap();
        assert_eq!(k, "threads");
        assert_eq!(v.as_u64(), Some(2));
        let (_, v) = parse_override("sides=[1,2]").unwrap();
        assert_eq!(v.as_array().map(Vec::len), Some(2));
        let (_, v) = parse_override("label=hello world").unwrap();
        assert_eq!(v.as_str(), Some("hello world"));
        assert!(parse_override("no-equals").is_err());
        assert!(parse_override("=5").is_err());
    }

    /// The protocol check only validates: a four-billion-frame `Sense` or
    /// re-scan is refused without running anything.
    #[test]
    fn protocol_scans_are_bounded_at_max_frames() {
        let sense = |frames| {
            Protocol::new("p").with_phase(PhaseSpec::Sense {
                frames: Some(frames),
            })
        };
        let recover = |rescan_factor| {
            Protocol::new("p").with_phase(PhaseSpec::Recover {
                policy: Some(RecoveryPolicy {
                    rescan_factor,
                    ..RecoveryPolicy::disabled()
                }),
            })
        };
        for (frames, ok) in [(4096, true), (4097, false), (u32::MAX, false)] {
            assert_eq!(Limit::protocol(&sense(frames), 8).is_ok(), ok, "{frames}");
            assert_eq!(Limit::protocol(&recover(frames), 1).is_ok(), ok, "{frames}");
        }
        let err = Limit::protocol(&sense(u32::MAX), 8).unwrap_err();
        assert_eq!((err.field, err.value), ("Sense.frames", u32::MAX as usize));
        assert!(Limit::protocol(&Protocol::new("empty"), u32::MAX).is_ok());
    }

    #[test]
    fn override_application_respects_existing_paths() {
        let mut config: Value = serde_json::from_str(r#"{"a":{"b":1},"c":2}"#).unwrap();
        assert!(apply_override(&mut config, "a.b", &Value::Bool(true)));
        assert!(apply_override(&mut config, "c", &Value::Null));
        assert!(!apply_override(&mut config, "a.missing", &Value::Null));
        assert!(!apply_override(&mut config, "missing", &Value::Null));
        assert_eq!(
            serde_json::to_string(&config),
            r#"{"a":{"b":true},"c":null}"#
        );
    }
}
