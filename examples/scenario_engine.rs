//! The scenario engine: enumerate the E1–E9 experiments, run a subset with
//! typed `key=value` overrides, and stream row-level progress while they
//! execute.
//!
//! Run with `cargo run --release --example scenario_engine`.

use labchip::prelude::*;
use labchip::scenario::outcomes_to_json;
use std::sync::Arc;

/// A progress sink that prints every streamed event — what `report run`
/// does on stderr.
struct PrintProgress;

impl Progress for PrintProgress {
    fn on_event(&self, event: &ProgressEvent) {
        match event {
            ProgressEvent::ScenarioStarted { scenario } => println!("[{scenario}] started"),
            ProgressEvent::Row {
                scenario, summary, ..
            } => println!("[{scenario}]   {summary}"),
            ProgressEvent::SimSteps {
                scenario,
                elapsed_s,
                ..
            } => println!("[{scenario}]   sim t = {elapsed_s:.2} s"),
            ProgressEvent::ScenarioFinished {
                scenario, wall_ms, ..
            } => println!("[{scenario}] done in {wall_ms:.1} ms"),
        }
    }
}

fn main() -> Result<(), ScenarioError> {
    // 1. Every experiment of the paper is enumerable behind one registry.
    let registry = ScenarioRegistry::all();
    println!("registered scenarios:");
    for scenario in registry.iter() {
        println!("  {}  {}", scenario.id(), scenario.describe());
    }
    println!();

    // 2. Run a subset through the Runner: overrides are parsed onto the
    //    typed configs (a typo or a wrong type is a hard error), seeds are
    //    derived per scenario, and progress streams while scenarios run.
    let mut runner = Runner::new(registry);
    runner.set_base_seed(2005);
    runner.set_progress(Arc::new(PrintProgress));
    runner.set_override("batch_sizes=[1,10,1000]")?; // E6: add a big batch
    runner.set_override("initial_offsets=[0.5,2.5]")?; // E8: two mis-centrings
    let outcomes = runner.run(&["e6", "e8"])?;

    // 3. Each outcome carries the rendered table, the exact config used
    //    and the seed (wall-clock time went to the progress stream above).
    println!();
    for outcome in &outcomes {
        println!("{}", outcome.table);
        println!(
            "({} rows, seed {})",
            outcome.table.row_count(),
            outcome.seed
        );
        println!();
    }

    // 4. The same outcomes serialise into the one JSON document that
    //    `report run --json` prints.
    let document = outcomes_to_json(&outcomes);
    let text = serde_json::to_string_pretty(&document);
    println!("JSON document: {} bytes covering E6 + E8", text.len());
    Ok(())
}
