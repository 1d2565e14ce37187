//! Integration: every experiment of the harness produces a well-formed table
//! whose shape matches the paper's narrative. Heavier experiments run with
//! reduced configurations to keep the suite fast.
//!
//! All runs go through the [`Scenario`] trait — the per-module free
//! `run(&Config)` shims are gone.

use labchip::experiments::{
    e1_scale, e2_technology, e4_sensing, e5_designflow, e6_fabrication, e7_routing, e8_centering,
    e9_assay,
};
use labchip::scenario::{Scenario, ScenarioContext, ScenarioRegistry};

/// Runs a scenario with a silent context — the trait-based spelling of the
/// retired `module::run(&config)` shims.
fn run<S: Scenario>(scenario: S, config: &S::Config) -> S::Output {
    scenario.run(config, &mut ScenarioContext::silent(scenario.id()))
}

#[test]
fn experiment_catalogue_is_complete() {
    assert_eq!(
        ScenarioRegistry::all().ids(),
        vec![
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14"
        ]
    );
}

#[test]
fn e1_and_e6_default_tables_match_paper_claims() {
    let e1 = run(e1_scale::ScaleScenario, &e1_scale::Config::default());
    let row = e1.paper_scale_row().expect("320x320 swept");
    assert!(row.electrodes > 100_000);
    assert!(row.dense_cages > 20_000);

    let e6 = run(
        e6_fabrication::FabricationScenario,
        &e6_fabrication::Config::default(),
    );
    let dry = e6.dry_film_row().expect("dry film swept");
    assert!(dry.turnaround_days <= 3.0);
    assert!(dry.mask_cost_eur < 10.0);
}

#[test]
fn e2_shape_old_nodes_beat_new_nodes() {
    let results = run(
        e2_technology::TechnologyScenario,
        &e2_technology::Config::default(),
    );
    let first = results.rows.first().unwrap();
    let last = results.rows.last().unwrap();
    assert!(first.holding_force_pn > 2.0 * last.holding_force_pn);
    assert!(first.mask_set_cost_keur < last.mask_set_cost_keur);
}

#[test]
fn e4_shape_snr_grows_as_sqrt_n() {
    let results = run(
        e4_sensing::SensingScenario,
        &e4_sensing::Config {
            frame_counts: vec![1, 16],
            trials: 500,
            ..e4_sensing::Config::default()
        },
    );
    let gain = results.rows[1].snr / results.rows[0].snr;
    assert!(gain > 2.5 && gain < 4.5, "gain = {gain}");
}

#[test]
fn e5_shape_prototyping_wins_under_2005_uncertainty() {
    let results = run(
        e5_designflow::DesignFlowScenario,
        &e5_designflow::Config {
            trials: 150,
            ..e5_designflow::Config::default()
        },
    );
    assert!(results.rows[0].speedup > 1.5);
}

#[test]
fn e7_shape_router_beats_baseline_at_density() {
    let results = run(
        e7_routing::RoutingScenario,
        &e7_routing::Config {
            array_side: 32,
            particle_counts: vec![24],
            ..e7_routing::Config::default()
        },
    );
    let astar = results.rows_for("A*")[0];
    let greedy = results.rows_for("greedy")[0];
    assert!(astar.success_rate >= greedy.success_rate);
    assert!(astar.success_rate > 0.9);
}

#[test]
fn e8_and_e9_tables_are_well_formed() {
    let e8 = run(
        e8_centering::CenteringScenario,
        &e8_centering::Config::default(),
    );
    assert!(e8.rows.iter().all(|r| r.final_yield > 0.9));
    let table = e8.to_table();
    assert_eq!(table.row_count(), e8.rows.len());

    let e9 = run(e9_assay::AssayScenario, &e9_assay::Config::default());
    assert_eq!(e9.cells_recovered, 1);
    assert!(e9.to_table().to_string().contains("total assay"));
}
