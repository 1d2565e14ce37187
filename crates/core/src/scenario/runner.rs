//! Bulk execution of scenarios: subset selection, per-scenario seeds,
//! `key=value` overrides and rayon parallelism. A run's outcome is a pure
//! function of `(config, seed)`; wall-clock time only reaches the progress
//! stream ([`ProgressEvent::ScenarioFinished`]).

use super::registry::{DynScenario, ScenarioRegistry};
use super::{
    apply_override, parse_override, Progress, ProgressEvent, ScenarioContext, ScenarioError,
};
use crate::experiments::ExperimentTable;
use serde_json::{Map, Value};
use std::sync::Arc;
use std::time::Instant;

/// The record of one completed scenario run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Scenario identifier.
    pub id: String,
    /// Scenario description.
    pub description: String,
    /// The exact config the run used (defaults + seed + overrides),
    /// serialised.
    pub config: Value,
    /// The seed in effect: the derived per-scenario seed when the runner was
    /// given a base seed, otherwise the config's own `seed` field (0 for
    /// seedless scenarios).
    pub seed: u64,
    /// Rows streamed through the progress sink.
    pub rows_streamed: usize,
    /// The rendered report table.
    pub table: ExperimentTable,
    /// The scenario's full typed output, serialised.
    pub output: Value,
}

/// Executes registry scenarios in bulk.
///
/// ```
/// use labchip::scenario::{Runner, ScenarioRegistry};
///
/// let mut runner = Runner::new(ScenarioRegistry::all());
/// runner.set_override("spec_halfwidth_sigmas=2.5").unwrap();
/// let outcomes = runner.run(&["e8"]).unwrap();
/// assert_eq!(outcomes[0].config.as_object().unwrap()
///     .get("spec_halfwidth_sigmas").unwrap().as_f64(), Some(2.5));
/// ```
pub struct Runner {
    registry: ScenarioRegistry,
    parallel: bool,
    base_seed: Option<u64>,
    overrides: Vec<(String, Value)>,
    progress: Arc<dyn Progress>,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("registry", &self.registry)
            .field("parallel", &self.parallel)
            .field("base_seed", &self.base_seed)
            .field("overrides", &self.overrides)
            .finish_non_exhaustive()
    }
}

impl Runner {
    /// Creates a runner over a registry: parallel, unseeded, no overrides,
    /// silent progress.
    pub fn new(registry: ScenarioRegistry) -> Self {
        Self {
            registry,
            parallel: true,
            base_seed: None,
            overrides: Vec::new(),
            progress: Arc::new(super::NullProgress),
        }
    }

    /// The registry the runner executes from.
    pub fn registry(&self) -> &ScenarioRegistry {
        &self.registry
    }

    /// Chooses between rayon-parallel (default) and in-order serial
    /// execution. Outcome order and content are identical either way; serial
    /// keeps the progress stream un-interleaved.
    pub fn set_parallel(&mut self, parallel: bool) -> &mut Self {
        self.parallel = parallel;
        self
    }

    /// Sets a base seed: each scenario gets a distinct seed derived from it
    /// (stable per scenario id), injected into configs that carry a
    /// top-level `seed` field and exposed via
    /// [`ScenarioContext::seed`](super::ScenarioContext::seed). Explicit
    /// `seed=…` overrides still win.
    pub fn set_base_seed(&mut self, seed: u64) -> &mut Self {
        self.base_seed = Some(seed);
        self
    }

    /// Streams run telemetry into `progress`.
    pub fn set_progress(&mut self, progress: Arc<dyn Progress>) -> &mut Self {
        self.progress = progress;
        self
    }

    /// Adds a `key=value` config override (dot-separated paths reach nested
    /// fields). Values parse as JSON with a bare-string fallback; they are
    /// applied to every selected scenario whose config has the key, and the
    /// run fails if an override matches no selected scenario.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Override`] on a malformed spec.
    pub fn set_override(&mut self, spec: &str) -> Result<&mut Self, ScenarioError> {
        let parsed = parse_override(spec)?;
        self.overrides.push(parsed);
        Ok(self)
    }

    /// Runs every registered scenario, in registration order.
    ///
    /// # Errors
    ///
    /// See [`Runner::run`].
    pub fn run_all(&self) -> Result<Vec<RunOutcome>, ScenarioError> {
        let ids: Vec<&'static str> = self.registry.ids();
        self.run(&ids)
    }

    /// Runs the identified subset, preserving the given order in the
    /// returned outcomes.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownScenario`] for an unmatched id,
    /// [`ScenarioError::Override`] when an override touches no selected
    /// scenario, [`ScenarioError::Config`] when an overridden config fails
    /// to decode onto the typed config.
    pub fn run<I: AsRef<str>>(&self, ids: &[I]) -> Result<Vec<RunOutcome>, ScenarioError> {
        let mut selected: Vec<Arc<dyn DynScenario>> = Vec::with_capacity(ids.len());
        for id in ids {
            let scenario =
                self.registry
                    .get(id.as_ref())
                    .ok_or_else(|| ScenarioError::UnknownScenario {
                        id: id.as_ref().trim().to_owned(),
                        expected: self.registry.id_range(),
                    })?;
            selected.push(Arc::clone(scenario));
        }

        // Prepare configs up front: defaults, then derived seeds, then
        // overrides (so an explicit `seed=…` override wins).
        let mut configs: Vec<Value> = Vec::with_capacity(selected.len());
        let mut seeds: Vec<u64> = Vec::with_capacity(selected.len());
        for scenario in &selected {
            let mut config = scenario.default_config();
            let seed = match self.base_seed {
                Some(base) => {
                    let derived = derive_seed(base, scenario.id());
                    if let Some(slot) = config.as_object_mut().and_then(|m| m.get_mut("seed")) {
                        *slot = Value::Number(serde_json::Number::from(derived));
                    }
                    derived
                }
                None => config
                    .as_object()
                    .and_then(|m| m.get("seed"))
                    .and_then(Value::as_u64)
                    .unwrap_or(0),
            };
            seeds.push(seed);
            configs.push(config);
        }
        for (key, value) in &self.overrides {
            let mut applied = 0usize;
            for config in &mut configs {
                if apply_override(config, key, value) {
                    applied += 1;
                }
            }
            if applied == 0 {
                return Err(ScenarioError::Override {
                    message: format!("`{key}` matched no config field of the selected scenarios"),
                });
            }
        }
        // A `seed=…` override may have changed a config's seed after the
        // derivation above: re-read the effective value so the reported
        // seed always matches the config the scenario actually ran with.
        for (config, seed) in configs.iter().zip(&mut seeds) {
            if let Some(effective) = config
                .as_object()
                .and_then(|m| m.get("seed"))
                .and_then(Value::as_u64)
            {
                *seed = effective;
            }
        }

        let run_one = |index: usize| -> Result<RunOutcome, ScenarioError> {
            let scenario = &selected[index];
            let progress = Arc::clone(&self.progress);
            progress.on_event(&ProgressEvent::ScenarioStarted {
                scenario: scenario.id().to_owned(),
            });
            let mut ctx = ScenarioContext::new(scenario.id(), seeds[index], progress);
            let started = Instant::now();
            let run = scenario.run_value(&configs[index], &mut ctx)?;
            self.progress.on_event(&ProgressEvent::ScenarioFinished {
                scenario: scenario.id().to_owned(),
                rows: ctx.rows_emitted(),
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
            });
            Ok(RunOutcome {
                id: scenario.id().to_owned(),
                description: scenario.describe().to_owned(),
                config: configs[index].clone(),
                seed: seeds[index],
                rows_streamed: ctx.rows_emitted(),
                table: run.table,
                output: run.output,
            })
        };

        let mut slots: Vec<Option<Result<RunOutcome, ScenarioError>>> =
            (0..selected.len()).map(|_| None).collect();
        if self.parallel && selected.len() > 1 {
            use rayon::prelude::*;
            slots
                .par_iter_mut()
                .enumerate()
                .for_each(|(index, slot)| *slot = Some(run_one(index)));
        } else {
            for (index, slot) in slots.iter_mut().enumerate() {
                *slot = Some(run_one(index));
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every slot was filled"))
            .collect()
    }
}

/// Derives a per-scenario seed from a base seed and the scenario id: the id
/// is FNV-hashed and the result diffused with a SplitMix64 round, matching
/// the simulator's philosophy of well-separated deterministic streams.
fn derive_seed(base: u64, id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut z = base ^ h;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Renders a set of outcomes as one JSON document — the payload of
/// `report run --json`.
pub fn outcomes_to_json(outcomes: &[RunOutcome]) -> Value {
    let scenarios: Vec<Value> = outcomes
        .iter()
        .map(|outcome| {
            let mut entry = Map::new();
            entry.insert("id", Value::String(outcome.id.clone()));
            entry.insert("description", Value::String(outcome.description.clone()));
            entry.insert("seed", serde_json::to_value(&outcome.seed));
            entry.insert("config", outcome.config.clone());
            entry.insert("table", outcome.table.to_json());
            entry.insert("output", outcome.output.clone());
            Value::Object(entry)
        })
        .collect();
    let mut doc = Map::new();
    doc.insert(
        "source",
        Value::String(
            "Reproduction of Manaresi et al., \"New Perspectives and Opportunities From the \
             Wild West of Microelectronic Biochips\" (DATE 2005)"
                .to_owned(),
        ),
    );
    doc.insert("scenarios", Value::Array(scenarios));
    Value::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CollectingProgress;

    #[test]
    fn unknown_id_is_rejected() {
        let runner = Runner::new(ScenarioRegistry::all());
        let err = runner.run(&["e42"]).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::UnknownScenario {
                id: "e42".to_owned(),
                expected: ScenarioRegistry::all().id_range(),
            }
        );
        // The expected-range hint is derived from the registry, never
        // hardcoded, so it tracks new scenario registrations.
        assert!(err.to_string().contains("expected E1..E"));
    }

    #[test]
    fn override_matching_no_scenario_is_rejected() {
        let mut runner = Runner::new(ScenarioRegistry::all());
        runner.set_override("not_a_field=1").unwrap();
        let err = runner.run(&["e6"]).unwrap_err();
        assert!(matches!(err, ScenarioError::Override { .. }));
    }

    #[test]
    fn ill_typed_override_reports_the_scenario() {
        let mut runner = Runner::new(ScenarioRegistry::all());
        runner.set_override("batch_sizes=true").unwrap();
        let err = runner.run(&["e6"]).unwrap_err();
        match err {
            ScenarioError::Config { scenario, .. } => assert_eq!(scenario, "E6"),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn overrides_round_trip_through_typed_configs() {
        let mut runner = Runner::new(ScenarioRegistry::all());
        runner.set_override("batch_sizes=[1,5]").unwrap();
        let outcomes = runner.run(&["e6"]).unwrap();
        let outcome = &outcomes[0];
        // 5 fixed columns + one per batch size (see e6_fabrication).
        assert_eq!(outcome.table.columns.len(), 7);
        assert_eq!(
            outcome
                .config
                .as_object()
                .unwrap()
                .get("batch_sizes")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn base_seed_derives_distinct_stable_per_scenario_seeds() {
        let mut runner = Runner::new(ScenarioRegistry::all());
        runner.set_base_seed(1234);
        let outcomes = runner.run(&["e6", "e8"]).unwrap();
        assert_ne!(outcomes[0].seed, outcomes[1].seed);
        // E8's config carries a seed field: the derived seed must land in it.
        assert_eq!(
            outcomes[1]
                .config
                .as_object()
                .unwrap()
                .get("seed")
                .unwrap()
                .as_u64(),
            Some(outcomes[1].seed)
        );
        let again = runner.run(&["e6", "e8"]).unwrap();
        assert_eq!(outcomes[1].seed, again[1].seed);
    }

    #[test]
    fn explicit_seed_override_wins_and_is_reported() {
        let mut runner = Runner::new(ScenarioRegistry::all());
        runner.set_base_seed(7);
        runner.set_override("seed=42").unwrap();
        let outcomes = runner.run(&["e8"]).unwrap();
        assert_eq!(outcomes[0].seed, 42, "reported seed must match the config");
        assert_eq!(
            outcomes[0]
                .config
                .as_object()
                .unwrap()
                .get("seed")
                .unwrap()
                .as_u64(),
            Some(42)
        );
    }

    #[test]
    fn progress_streams_rows_and_lifecycle() {
        let progress = Arc::new(CollectingProgress::new());
        let mut runner = Runner::new(ScenarioRegistry::all());
        runner.set_parallel(false);
        runner.set_progress(progress.clone());
        let outcomes = runner.run(&["e6"]).unwrap();
        let events = progress.events_for("E6");
        assert!(matches!(
            events.first(),
            Some(ProgressEvent::ScenarioStarted { .. })
        ));
        assert!(matches!(
            events.last(),
            Some(ProgressEvent::ScenarioFinished { .. })
        ));
        let rows = events
            .iter()
            .filter(|e| matches!(e, ProgressEvent::Row { .. }))
            .count();
        assert_eq!(rows, outcomes[0].table.row_count());
        assert_eq!(rows, outcomes[0].rows_streamed);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let ids = ["e6", "e8", "e2"];
        let mut serial = Runner::new(ScenarioRegistry::all());
        serial.set_parallel(false);
        let serial_outcomes = serial.run(&ids).unwrap();
        let parallel_outcomes = Runner::new(ScenarioRegistry::all()).run(&ids).unwrap();
        for (s, p) in serial_outcomes.iter().zip(&parallel_outcomes) {
            assert_eq!(s.id, p.id);
            assert_eq!(s.table, p.table);
            assert_eq!(s.output, p.output);
        }
    }
}
