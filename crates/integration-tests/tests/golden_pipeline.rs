//! Golden-snapshot regression lock for the full-array pipeline scenarios.
//!
//! `report run e10 e11 e12 --json` at a fixed seed and reduced sizes is
//! captured once into `tests/golden/pipeline_e10_e11_e12.json` and asserted
//! bit-identical forever after — the safety net under any refactor of the
//! workload driver (the ChipState / assay-phase decomposition rode on top of
//! exactly this lock). Nothing is scrubbed: a scenario's output is a pure
//! function of `(config, seed)`, so the raw document is the snapshot.
//!
//! To regenerate after an *intentional* output change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p labchip-integration-tests --test golden_pipeline
//! ```

use labchip::scenario::{outcomes_to_json, Runner, ScenarioRegistry};
use labchip::workload::{BatchDriver, Protocol, WorkloadConfig};
use labchip_manipulation::journal::replay;
use labchip_units::GridDims;
use serde_json::Value;

/// The locked run: `report run e10 e11 e12 --json --serial --seed 20050307`
/// with size-reduction overrides (shared keys apply to every scenario that
/// has them, exactly as the CLI applies `--set`).
fn locked_document_with(extra_overrides: &[&str]) -> Value {
    let mut runner = Runner::new(ScenarioRegistry::all());
    runner.set_parallel(false);
    runner.set_base_seed(20_050_307);
    for spec in [
        "array_side=64",          // E10 + E11 + E12
        "particles=60",           // E10 + E12
        "density_steps=[1.0]",    // E10: one sweep point
        "astar_cap=16",           // E10: small A* subsample
        "astar_max_steps=256",    // E10
        "particles_per_cycle=60", // E11
        "cycles=2",               // E11
        "noise_scales=[0.0,4.0]", // E12
        "frame_counts=[2]",       // E12
        "threads=1",              // all three (results are thread-invariant)
    ]
    .iter()
    .chain(extra_overrides)
    {
        runner.set_override(spec).expect("spec is well-formed");
    }
    let outcomes = runner
        .run(&["e10", "e11", "e12"])
        .expect("locked scenarios run");
    outcomes_to_json(&outcomes)
}

fn locked_document() -> Value {
    locked_document_with(&[])
}

#[test]
fn pipeline_json_output_is_bit_identical_to_the_golden_snapshot() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/pipeline_e10_e11_e12.json"
    );
    let document = locked_document();
    let text = serde_json::to_string_pretty(&document);

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, text + "\n").expect("write golden snapshot");
        return;
    }

    let golden = std::fs::read_to_string(golden_path)
        .expect("golden snapshot exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        text + "\n",
        golden,
        "E10/E11/E12 JSON output drifted from the golden snapshot; if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn locked_document_is_itself_deterministic() {
    // The lock is only meaningful if the document is reproducible
    // within one build: two runs must serialise identically.
    let a = serde_json::to_string(&locked_document());
    let b = serde_json::to_string(&locked_document());
    assert_eq!(a, b);
}

/// Recursively forces every `"reuse_plans"` value to `false`, so a
/// warm-start document can be compared against the cold golden snapshot:
/// the config echo is the *only* place the knob is allowed to show up.
fn mask_reuse_plans(value: &mut Value) {
    match value {
        Value::Object(map) => {
            if let Some(flag) = map.get_mut("reuse_plans") {
                *flag = Value::Bool(false);
            }
            for entry in map.values_mut() {
                mask_reuse_plans(entry);
            }
        }
        Value::Array(items) => {
            for item in items {
                mask_reuse_plans(item);
            }
        }
        _ => {}
    }
}

#[test]
fn warm_start_pipeline_matches_the_golden_snapshot() {
    // The plan cache's contract is bit-identical output: the same locked
    // run with `reuse_plans=true` must reproduce the golden snapshot
    // exactly, config echo aside.
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/pipeline_e10_e11_e12.json"
    );
    let golden: Value = serde_json::from_str(
        &std::fs::read_to_string(golden_path)
            .expect("golden snapshot exists (regenerate with UPDATE_GOLDEN=1)"),
    )
    .expect("golden snapshot parses");

    let mut warm = locked_document_with(&["reuse_plans=true"]);
    mask_reuse_plans(&mut warm);
    assert_eq!(
        warm, golden,
        "reuse_plans=true changed the E10/E11/E12 output — the plan cache \
         must be invisible outside the config echo"
    );
}

#[test]
fn plan_reuse_leaves_the_journal_event_stream_identical() {
    // The event journal sees every chip-state mutation in order, so an
    // identical stream is a much stronger statement than matching reports:
    // the cached planner made the *same moves at the same times*.
    let config = WorkloadConfig {
        array_side: 48,
        seed: 20_050_307,
        ..WorkloadConfig::default()
    };
    let dims = GridDims::square(config.array_side);
    let sep = config.min_separation;
    let protocol = Protocol::canned_cycle(dims, sep, 40);

    let cold_driver = BatchDriver::new(config);
    let warm_driver = BatchDriver::new(WorkloadConfig {
        reuse_plans: true,
        ..config
    });

    for cycle in 0..2 {
        let (cold, cold_journal) = cold_driver.runner().run_journaled(&protocol, cycle);
        let (warm, warm_journal) = warm_driver.runner().run_journaled(&protocol, cycle);
        assert_eq!(
            cold_journal.events(),
            warm_journal.events(),
            "cycle {cycle}: warm and cold runs recorded different event streams"
        );
        assert_eq!(cold.state, warm.state, "cycle {cycle}");

        // And the shared journal replays to the same final chip state.
        let replayed = replay(&warm_journal, dims, sep).expect("journal replays");
        assert_eq!(replayed, warm.state, "cycle {cycle}: replay drifted");
    }

    // Repeat a cycle the cache has already seen: the rerun must be served
    // from cache (so the guard above is not vacuously passing on an idle
    // cache) and still record the exact same event stream.
    let before = warm_driver.route_cache_stats();
    let (_, first) = warm_driver.runner().run_journaled(&protocol, 0);
    let (_, second) = warm_driver.runner().run_journaled(&protocol, 0);
    assert_eq!(first.events(), second.events());
    let after = warm_driver.route_cache_stats();
    assert!(
        after.hits > before.hits,
        "rerunning an identical cycle never hit the plan cache ({before:?} -> {after:?})"
    );
}
