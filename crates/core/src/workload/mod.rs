//! The batch workload driver: complete paper-style assays at full-array
//! scale, composed from data-driven phases.
//!
//! The scenario experiments up to E9 exercise one subsystem each; this
//! module drives the *assembled* pipeline the way the paper's §4 envisions
//! the chip being used — thousands of cells manipulated concurrently,
//! cycle after cycle. Since the ChipState/phase decomposition, a cycle is
//! not control flow but **data**:
//!
//! * [`ChipState`](labchip_manipulation::state::ChipState) owns the one
//!   copy of chip truth — the cage grid plus its cached derivations
//!   (electrode pattern, ground-truth occupancy), the plan map
//!   and the per-phase time ledger — shared by router, scanner and driver
//!   instead of each keeping a private copy stitched together by ad-hoc
//!   converters;
//! * a [`PhaseSpec`] is one phase with its knobs — load, route (with a
//!   pluggable [`RouteTarget`]), sense, recover or flush — and runs its
//!   body from [`phases`]: one reusable unit of chip work over the shared
//!   state;
//! * a [`Protocol`] is a serde-round-trippable ordered
//!   list of phase specs, executed by [`BatchDriver::execute`] — so
//!   arbitrary assays
//!   (multi-route merges, repeated sense rounds, wash-free cycles;
//!   scenario E13) compose from the same verified pieces.
//!
//! [`BatchDriver::run_cycle`] is literally the canned
//! `load → route(sort) → sense → recover → flush` protocol
//! ([`Protocol::canned_cycle`](protocol::Protocol::canned_cycle)). The
//! pipeline is **event-sourced**: every chip-state mutation is recorded as
//! a typed [`Event`](labchip_manipulation::journal::Event) in an
//! append-only [`Journal`](labchip_manipulation::journal::Journal) when
//! one is attached ([`Journaling::On`]), and
//! [`replay`](labchip_manipulation::journal::replay) of that journal
//! reconstructs the final [`ChipState`](labchip_manipulation::state::ChipState)
//! bit-for-bit — the equivalence oracle that retired the old monolithic
//! `legacy` baseline for good. A [`Checkpoint`] (state snapshot + journal
//! offset + cycle accumulators) lets [`Start::Resume`] continue a killed
//! run to the same final state; scenario E14 sweeps seeded
//! [`FaultPlan`](labchip_manipulation::journal::FaultPlan) kill points to
//! prove it.
//!
//! Every cycle reports a [`CycleReport`] with a per-phase
//! [`TimeBreakdown`]; the running [`SustainedThroughput`] totals the chip
//! time and moves behind experiment E11.
//!
//! ## The sense phase is not an oracle
//!
//! The sense phase goes through [`ArrayScanner`]: what the driver reports —
//! and what the recovery loop acts on — is the classifier's decision per
//! site, with real false positives and false negatives at the configured
//! [`WorkloadConfig::noise_scale`]. A zero noise scale reproduces the
//! oracle numbers bit-for-bit (locked in by tests); scenario E12 sweeps the
//! knob and closes the loop with recovery.

mod envelope;
pub mod phases;
pub mod protocol;

pub use envelope::ForceEnvelope;
pub use phases::{Accumulators, PhaseError, PhaseReport, RouteTarget};
pub use protocol::{
    Checkpoint, CheckpointError, Journaling, NeverStop, PhaseSpec, Protocol, ProtocolOutcome,
    RunControl, RunOptions, Start, StopCause, StoppedRun,
};

use labchip_array::addressing::ProgrammingInterface;
use labchip_array::timing::WindowBudget;
use labchip_manipulation::cage::ParticleId;
use labchip_manipulation::metrics::SustainedThroughput;
use labchip_manipulation::routing::{RoutingOutcome, RoutingProblem};
use labchip_manipulation::sharding::{CacheStats, IncrementalRouter, RouterCache, ShardConfig};
use labchip_manipulation::state::TimeBreakdown;
use labchip_sensing::array_scan::ArrayScanner;
use labchip_sensing::detect::DetectionStats;
use labchip_sensing::scan::ScanTiming;
use labchip_units::{GridDims, Seconds};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// The bounded closed-loop recovery policy: what the driver does when the
/// detected occupancy disagrees with the plan.
///
/// Each round re-scans every suspect site with
/// `detection_frames × rescan_factor` frames (detection errors mostly
/// dissolve under the extra averaging), then pairs each *confirmed* stray —
/// a detected particle off the plan — with the nearest unfilled plan slot
/// and re-routes it there with the incremental router. `max_rounds == 0`
/// disables recovery (the pre-closed-loop behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Maximum sense→decide→act rounds per cycle (0 disables recovery).
    pub max_rounds: u32,
    /// Suspect sites are re-scanned with `detection_frames × rescan_factor`
    /// frames (clamped to at least 1×).
    pub rescan_factor: u32,
}

impl RecoveryPolicy {
    /// Recovery off: detection mismatches are reported but not acted on.
    pub fn disabled() -> Self {
        Self {
            max_rounds: 0,
            rescan_factor: 4,
        }
    }

    /// The reference closed-loop policy: two rounds, 4× re-scan averaging.
    pub fn date05_reference() -> Self {
        Self {
            max_rounds: 2,
            rescan_factor: 4,
        }
    }

    /// Whether recovery runs at all.
    pub fn is_enabled(&self) -> bool {
        self.max_rounds > 0
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        // Off by default: the closed loop is opt-in so the long-standing
        // E10/E11 baseline numbers stay untouched; E12 turns it on.
        Self::disabled()
    }
}

/// Configuration of the batch workload driver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Array side (electrodes).
    pub array_side: u32,
    /// Sharding/windowing of the incremental router.
    pub shards: ShardConfig,
    /// Minimum cage separation.
    pub min_separation: u32,
    /// Cage-step period.
    pub step_period: Seconds,
    /// Sensor frames averaged per detection scan.
    pub detection_frames: u32,
    /// Scale applied to every sensor noise term (1 = the reference channel,
    /// 0 = ideal electronics; the detected map then equals truth exactly).
    pub noise_scale: f64,
    /// Closed-loop recovery policy for detection/plan mismatches.
    pub recovery: RecoveryPolicy,
    /// Fluidic handling time to load one batch.
    pub load_time: Seconds,
    /// Fluidic handling time to flush one batch.
    pub flush_time: Seconds,
    /// Base RNG seed for batch placement.
    pub seed: u64,
    /// Route phases through the driver's warm-start [`RouterCache`]:
    /// per-shard window plans are memoized across solves, keeping what the
    /// last solve used. Outcomes are bit-identical either way; this knob
    /// only trades memory for planning time.
    pub reuse_plans: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            array_side: 128,
            shards: ShardConfig::default(),
            min_separation: 2,
            step_period: Seconds::new(0.4),
            detection_frames: 16,
            noise_scale: 1.0,
            recovery: RecoveryPolicy::disabled(),
            load_time: Seconds::from_minutes(1.0),
            flush_time: Seconds::from_minutes(0.5),
            seed: 2005,
            reuse_plans: false,
        }
    }
}

/// The record of one load→route→sense→flush cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CycleReport {
    /// Zero-based cycle index.
    pub cycle: usize,
    /// Particles loaded.
    pub requested: usize,
    /// Particles routed to their target slots.
    pub routed: usize,
    /// Steps until the last routed particle arrived.
    pub makespan_steps: usize,
    /// Individual cage moves across the batch.
    pub total_moves: usize,
    /// Planner wall-clock.
    pub planning: Seconds,
    /// Simulated chip time by phase.
    pub time: TimeBreakdown,
    /// Planned moves checked against the force envelope.
    pub moves_checked: usize,
    /// Moves the envelope rejected (0 for a feasible step period).
    pub infeasible_moves: usize,
    /// Occupied cages the detection scan *decided* it saw after routing —
    /// the classifier's count, not the ground truth.
    pub occupancy_detected: usize,
    /// Confusion counts of the full-array detection scan against truth.
    pub detection: DetectionStats,
    /// Sites where the initial scan disagreed with the planned pattern.
    pub mismatches_initial: usize,
    /// Sites where the final detected map still disagrees with the plan
    /// after recovery (equals `mismatches_initial` when recovery is off).
    pub mismatches_final: usize,
    /// Sites where the *true* occupancy disagrees with the plan at cycle
    /// end — the ground-truth placement error the assay actually suffers.
    pub true_mismatches_final: usize,
    /// Recovery rounds executed.
    pub recovery_rounds: usize,
    /// Corrective cage moves commanded by the recovery loop.
    pub recovery_moves: usize,
    /// Programming-clock budget of the executed motion.
    pub budget: WindowBudget,
    /// Whether the plan passed the separation invariant.
    pub conflict_free: bool,
}

impl CycleReport {
    /// Fraction of the batch routed.
    pub fn success_rate(&self) -> f64 {
        if self.requested == 0 {
            1.0
        } else {
            self.routed as f64 / self.requested as f64
        }
    }

    /// Observed per-site detection error rate of the full-array scan.
    pub fn detection_error_rate(&self) -> f64 {
        self.detection.error_rate()
    }
}

/// Generates the full-array sort workload: particles start on a seeded
/// random subset of a whole-array loading lattice (spacing
/// `min_separation + 1`, the densest loadable packing) and are sorted into
/// two target patterns — even-indexed particles to a lattice in the left
/// third, odd-indexed to the right third. Target lattices use spacing
/// `min_separation + 2`, which keeps them *traversable while occupied*, so
/// any arrival order works.
///
/// Built from the same primitives the [`phases`] use
/// ([`phases::loading_sites`] + the sort-goal assignment of
/// [`RouteTarget::SortSplit`]), so seeded problems are bit-identical to
/// what the canned protocol generates.
pub fn sort_problem(
    dims: GridDims,
    particles: usize,
    min_separation: u32,
    seed: u64,
) -> RoutingProblem {
    let (left, right) = phases::sort_lattices(dims, min_separation);
    let starts = phases::loading_sites(
        dims,
        particles,
        min_separation,
        seed,
        Some(left.len() + right.len()),
    );
    let indexed: Vec<(ParticleId, labchip_units::GridCoord)> = starts
        .iter()
        .enumerate()
        .map(|(i, start)| (ParticleId(i as u64), *start))
        .collect();
    let requests = phases::assign_sort_goals(&indexed, &left, &right);
    let mut problem = RoutingProblem::new(dims, requests);
    problem.min_separation = min_separation;
    problem
}

/// Executes repeated full-array assay protocols and accumulates throughput.
#[derive(Debug)]
pub struct BatchDriver {
    config: WorkloadConfig,
    envelope: ForceEnvelope,
    router: IncrementalRouter,
    programming: ProgrammingInterface,
    scan: ScanTiming,
    scanner: ArrayScanner,
    totals: SustainedThroughput,
    cycles_run: usize,
    /// Warm-start plan cache shared across this driver's cycles; consulted
    /// only when [`WorkloadConfig::reuse_plans`] is set. Behind a mutex so
    /// protocols run through `&self` and the driver stays `Sync`.
    route_cache: Mutex<RouterCache>,
}

/// Stream-salt separating the sensor synthesis from batch placement.
const SCANNER_SEED_SALT: u64 = 0x5EE5_0A11_D07E_C70F;

impl BatchDriver {
    /// Creates a driver; the force envelope is derived once from the cached
    /// field engine.
    pub fn new(config: WorkloadConfig) -> Self {
        Self::with_envelope(config, ForceEnvelope::date05_reference())
    }

    /// Creates a driver reusing an already-derived force envelope — sweeps
    /// that build many drivers (E12 runs one per sweep point) share the
    /// cached-field-engine probe instead of repeating it.
    pub fn with_envelope(mut config: WorkloadConfig, envelope: ForceEnvelope) -> Self {
        // Sanitize the CLI-reachable sensing knobs the way the runner
        // clamps `min_separation`: a `--set` override should degrade, not
        // panic deep in the sensing stack. NaN noise clamps to ideal
        // electronics, infinity to a saturating (coin-flip) channel, and a
        // zero frame count reads one frame.
        config.noise_scale = if config.noise_scale.is_nan() {
            0.0
        } else {
            config.noise_scale.clamp(0.0, 1e12)
        };
        config.detection_frames = config.detection_frames.max(1);
        Self {
            envelope,
            router: IncrementalRouter::new(config.shards),
            programming: ProgrammingInterface::date05_reference(),
            scan: ScanTiming::date05_reference(),
            scanner: ArrayScanner::date05_reference(
                GridDims::square(config.array_side),
                config.noise_scale,
                config.seed ^ SCANNER_SEED_SALT,
            ),
            totals: SustainedThroughput::default(),
            cycles_run: 0,
            route_cache: Mutex::new(RouterCache::new()),
            config,
        }
    }

    /// The driver's configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// The force-feasibility envelope in effect.
    pub fn envelope(&self) -> &ForceEnvelope {
        &self.envelope
    }

    /// Running totals across the cycles executed so far.
    pub fn totals(&self) -> &SustainedThroughput {
        &self.totals
    }

    /// Hit/miss counters of the warm-start plan cache (all zero unless
    /// [`WorkloadConfig::reuse_plans`] is set).
    pub fn route_cache_stats(&self) -> CacheStats {
        self.route_cache
            .lock()
            .expect("route cache poisoned")
            .stats()
    }

    /// Executes an arbitrary protocol on a fresh chip as the next cycle,
    /// unjournaled, recording its work into the running totals. A phase
    /// error ends the run with an `aborted:` report row instead of a panic.
    pub fn run_protocol(&mut self, protocol: &Protocol) -> ProtocolOutcome {
        let cycle = self.cycles_run;
        self.cycles_run += 1;
        let outcome = self
            .execute(Start::Fresh { protocol, cycle }, RunOptions::default())
            .map_or_else(|stopped| stopped.partial, |(outcome, _)| outcome);
        let report = &outcome.report;
        // Recovery moves are executed on-chip and their time is in the
        // recorded total, so they belong in the throughput numerator too.
        self.totals.record(
            report.requested,
            report.routed,
            report.total_moves + report.recovery_moves,
            report.time.total(),
        );
        outcome
    }

    /// Runs one load→route→sense→recover→flush cycle with `particles`
    /// particles (clamped to the array's pattern capacity) — the canned
    /// [`Protocol::canned_cycle`] through the phase pipeline.
    pub fn run_cycle(&mut self, particles: usize) -> CycleReport {
        let dims = GridDims::square(self.config.array_side);
        let sep = self.config.min_separation.max(1);
        self.run_protocol(&Protocol::canned_cycle(dims, sep, particles))
            .report
    }

    /// The outcome of routing one generated batch without executing it —
    /// used by benchmarks probing the planner alone.
    pub fn plan_only(&self, particles: usize, cycle_seed: u64) -> RoutingOutcome {
        let dims = GridDims::square(self.config.array_side);
        let problem = sort_problem(dims, particles, self.config.min_separation, cycle_seed);
        self.router
            .solve(&problem)
            .expect("generated problems are always well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use labchip_units::MetersPerSecond;

    #[test]
    fn sort_problem_is_valid_and_splits_classes() {
        let dims = GridDims::square(64);
        let problem = sort_problem(dims, 60, 2, 7);
        assert!(problem.validate().is_ok());
        assert_eq!(problem.requests.len(), 60);
        let left_goals = problem
            .requests
            .iter()
            .filter(|r| r.goal.x < dims.cols / 3)
            .count();
        let right_goals = problem
            .requests
            .iter()
            .filter(|r| r.goal.x >= 2 * dims.cols / 3)
            .count();
        assert_eq!(left_goals + right_goals, 60);
        assert!(left_goals >= 25 && right_goals >= 25);
    }

    #[test]
    fn sort_problem_clamps_to_capacity() {
        let dims = GridDims::square(32);
        let problem = sort_problem(dims, 100_000, 2, 7);
        assert!(problem.requests.len() < 100_000);
        assert!(problem.validate().is_ok());
    }

    #[test]
    fn one_small_cycle_end_to_end() {
        let mut driver = BatchDriver::new(WorkloadConfig {
            array_side: 48,
            ..WorkloadConfig::default()
        });
        let report = driver.run_cycle(40);
        assert_eq!(report.cycle, 0);
        assert_eq!(report.requested, 40);
        assert!(report.conflict_free);
        assert!(report.success_rate() > 0.85, "routed {}", report.routed);
        assert_eq!(report.occupancy_detected, 40);
        assert_eq!(report.infeasible_moves, 0);
        assert!(report.moves_checked >= report.total_moves);
        assert!(report.budget.fits_within(driver.config().step_period));
        assert!(report.time.fluidics > report.time.sensing);
    }

    #[test]
    fn journal_replay_is_the_equivalence_oracle_bit_for_bit() {
        // The event-sourcing contract, at the same seed/noise grid the old
        // legacy-equivalence test used: a journaled run produces the exact
        // report a plain run does (planner wall-clock is real time, so it
        // is the one field aligned), and replaying its journal into a
        // fresh chip reconstructs the final state bit-for-bit.
        use labchip_manipulation::journal::replay;

        for (seed, noise_scale, recovery) in [
            (2005u64, 1.0, RecoveryPolicy::disabled()),
            (7, 0.0, RecoveryPolicy::date05_reference()),
            (11, 8.0, RecoveryPolicy::date05_reference()),
            (13, 8.0, RecoveryPolicy::disabled()),
        ] {
            let config = WorkloadConfig {
                array_side: 48,
                seed,
                noise_scale,
                detection_frames: 2,
                recovery,
                ..WorkloadConfig::default()
            };
            let envelope = ForceEnvelope::date05_reference();
            let driver = BatchDriver::with_envelope(config, envelope);
            let dims = GridDims::square(config.array_side);
            let sep = config.min_separation.max(1);
            for (cycle, particles) in [40usize, 90].into_iter().enumerate() {
                let protocol = Protocol::canned_cycle(dims, sep, particles);
                let fresh = Start::Fresh {
                    protocol: &protocol,
                    cycle,
                };
                let (plain, _) = driver.execute(fresh, RunOptions::default()).unwrap();
                let (journaled, journal) = driver.run_journaled(&protocol, cycle);
                assert!(!journal.is_empty());

                let mut plain_report = plain.report.clone();
                plain_report.planning = journaled.report.planning;
                assert_eq!(journaled.report, plain_report, "seed {seed}");
                assert_eq!(journaled.state, plain.state, "seed {seed}");

                let replayed = replay(&journal, dims, sep).expect("journal replays cleanly");
                assert_eq!(replayed, journaled.state, "seed {seed} noise {noise_scale}");
                assert_eq!(replayed.state_hash(), journaled.state.state_hash());
            }
        }
    }

    #[test]
    fn zero_noise_sense_reproduces_the_oracle_exactly() {
        // The lock-in for the old "sense = oracle" behaviour: with ideal
        // electronics the detected map equals the truth bit-for-bit, no
        // recovery fires, and no recovery time is charged — so the numbers
        // E9/E11 publish cannot drift at noise_scale 0.
        let config = WorkloadConfig {
            array_side: 48,
            noise_scale: 0.0,
            recovery: RecoveryPolicy::date05_reference(),
            ..WorkloadConfig::default()
        };
        let report = BatchDriver::new(config).run_cycle(40);
        assert_eq!(report.occupancy_detected, 40);
        assert_eq!(report.detection.error_rate(), 0.0);
        assert_eq!(report.detection.false_positives, 0);
        assert_eq!(report.detection.false_negatives, 0);
        // Detection mismatches against the plan can only be real stranding,
        // which this light batch does not produce.
        assert_eq!(report.mismatches_initial, 0);
        assert_eq!(report.mismatches_final, 0);
        assert_eq!(report.true_mismatches_final, 0);
        assert_eq!(report.recovery_rounds, 0);
        assert_eq!(report.recovery_moves, 0);
        assert_eq!(report.time.recovery, Seconds::new(0.0));

        // Bit-identical to the oracle baseline: the same cycle with
        // recovery entirely disabled produces the exact same report
        // (modulo planner wall-clock, which is not simulated time).
        let mut baseline = BatchDriver::new(WorkloadConfig {
            recovery: RecoveryPolicy::disabled(),
            ..config
        })
        .run_cycle(40);
        baseline.planning = report.planning;
        assert_eq!(report, baseline);
    }

    #[test]
    fn noisy_detection_errors_are_flagged_and_rescan_clears_them() {
        // Loud electronics: the single scan misreads sites, so the cycle
        // reports detection errors (impossible under the old oracle). The
        // recovery re-scan at 4x frames then clears essentially all of
        // them — detection errors are not real placement errors.
        let noisy = WorkloadConfig {
            array_side: 48,
            noise_scale: 8.0,
            detection_frames: 2,
            recovery: RecoveryPolicy::disabled(),
            ..WorkloadConfig::default()
        };
        let open_loop = BatchDriver::new(noisy).run_cycle(30);
        assert!(
            open_loop.detection.error_rate() > 0.0,
            "a loud channel must show detection errors"
        );
        assert!(open_loop.mismatches_initial > 0);
        assert_eq!(open_loop.mismatches_final, open_loop.mismatches_initial);
        // The chip never misplaced anything — the errors are in the eyes.
        assert_eq!(open_loop.true_mismatches_final, 0);

        let closed_loop = BatchDriver::new(WorkloadConfig {
            recovery: RecoveryPolicy::date05_reference(),
            ..noisy
        })
        .run_cycle(30);
        // Same seed, same pass numbering: the initial scan is identical.
        assert_eq!(closed_loop.detection, open_loop.detection);
        assert_eq!(closed_loop.mismatches_initial, open_loop.mismatches_initial);
        assert!(
            closed_loop.mismatches_final < open_loop.mismatches_final,
            "recovery must reduce the final mismatch count: {} vs {}",
            closed_loop.mismatches_final,
            open_loop.mismatches_final
        );
        assert!(closed_loop.recovery_rounds >= 1);
        assert!(closed_loop.time.recovery.get() > 0.0);
    }

    #[test]
    fn recovery_reroutes_stranded_particles_to_their_slots() {
        // A dense batch on a small array strands some particles short of
        // their goals. With ideal sensing the mismatches are all real, and
        // the closed loop routes the strays home: the ground-truth
        // placement error strictly drops versus the open-loop run.
        let config = WorkloadConfig {
            array_side: 48,
            noise_scale: 0.0,
            recovery: RecoveryPolicy::disabled(),
            ..WorkloadConfig::default()
        };
        let mut open_report = None;
        // Find a seed whose batch strands at least one particle.
        for seed in 0..64 {
            let candidate = WorkloadConfig { seed, ..config };
            let report = BatchDriver::new(candidate).run_cycle(90);
            if report.true_mismatches_final > 0 {
                open_report = Some((candidate, report));
                break;
            }
        }
        let (config, open_loop) = open_report.expect("some dense batch strands a particle");
        assert!(open_loop.routed < open_loop.requested);

        let closed_loop = BatchDriver::new(WorkloadConfig {
            recovery: RecoveryPolicy::date05_reference(),
            ..config
        })
        .run_cycle(90);
        assert!(closed_loop.recovery_moves > 0);
        assert!(
            closed_loop.true_mismatches_final < open_loop.true_mismatches_final,
            "recovery must strictly improve true placement: {} vs {}",
            closed_loop.true_mismatches_final,
            open_loop.true_mismatches_final
        );
        assert!(closed_loop.time.recovery.get() > 0.0);
        // Recovery work is visible in the totals the envelope checks saw.
        assert!(closed_loop.moves_checked > open_loop.moves_checked);
    }

    #[test]
    fn hostile_sensing_overrides_degrade_instead_of_panicking() {
        // CLI `--set` overrides can deliver any value; like the
        // `min_separation=0` clamp, bad sensing knobs must degrade rather
        // than panic deep in the sensing stack.
        let envelope = ForceEnvelope::date05_reference();
        let base = WorkloadConfig {
            array_side: 16,
            ..WorkloadConfig::default()
        };
        let negative = BatchDriver::with_envelope(
            WorkloadConfig {
                noise_scale: -3.0,
                detection_frames: 0,
                ..base
            },
            envelope,
        );
        assert_eq!(negative.config().noise_scale, 0.0);
        assert_eq!(negative.config().detection_frames, 1);
        let nan = BatchDriver::with_envelope(
            WorkloadConfig {
                noise_scale: f64::NAN,
                ..base
            },
            envelope,
        );
        assert_eq!(nan.config().noise_scale, 0.0);
        let infinite = BatchDriver::with_envelope(
            WorkloadConfig {
                noise_scale: f64::INFINITY,
                ..base
            },
            envelope,
        );
        assert!(infinite.config().noise_scale.is_finite());
        // The clamp keeps hostile envelopes comparable too.
        assert!(!envelope.permits(MetersPerSecond::new(1.0)));
    }

    #[test]
    fn cycles_accumulate_into_totals() {
        let mut driver = BatchDriver::new(WorkloadConfig {
            array_side: 48,
            ..WorkloadConfig::default()
        });
        driver.run_cycle(20);
        driver.run_cycle(20);
        let totals = driver.totals();
        assert_eq!(totals.cycles, 2);
        assert_eq!(totals.requested, 40);
        assert!(totals.total_moves > 0);
        assert!(totals.particles_per_chip_second() > 0.0);
    }

    #[test]
    fn repeated_loads_draw_fresh_batches() {
        // Two identical Load phases must not replay the same placement
        // stream (every site would already be occupied and the second load
        // would silently be a no-op): the id-offset salt gives each load a
        // fresh draw.
        let mut driver = BatchDriver::new(WorkloadConfig {
            array_side: 48,
            noise_scale: 0.0,
            ..WorkloadConfig::default()
        });
        let protocol = Protocol::new("double-load")
            .with_phase(PhaseSpec::Load {
                particles: 15,
                capacity_clamp: None,
            })
            .with_phase(PhaseSpec::Load {
                particles: 15,
                capacity_clamp: None,
            })
            .with_phase(PhaseSpec::Flush);
        let outcome = driver.run_protocol(&protocol);
        assert_eq!(outcome.phases[0].particles_after, 15);
        assert!(
            outcome.phases[1].particles_after > 15,
            "second load placed nothing: {:?}",
            outcome.phases[1]
        );
    }

    #[test]
    fn custom_protocols_compose_phases_the_monolith_could_not() {
        // A two-route assay: sort the populations apart, then bring pairs
        // together in the centre — with a verifying scan after each motion
        // phase. The old run_cycle literally could not express this.
        let mut driver = BatchDriver::new(WorkloadConfig {
            array_side: 48,
            noise_scale: 0.0,
            ..WorkloadConfig::default()
        });
        let protocol = Protocol::new("two-population merge")
            .with_phase(PhaseSpec::Load {
                particles: 20,
                capacity_clamp: None,
            })
            .with_phase(PhaseSpec::Route {
                target: RouteTarget::SortSplit,
            })
            .with_phase(PhaseSpec::Sense { frames: None })
            .with_phase(PhaseSpec::Route {
                target: RouteTarget::MergePairs,
            })
            .with_phase(PhaseSpec::Sense { frames: None })
            .with_phase(PhaseSpec::Flush);
        let outcome = driver.run_protocol(&protocol);
        assert_eq!(outcome.phases.len(), 6);
        assert_eq!(outcome.report.requested, 20);
        // Both routes delivered everyone with ideal sensing on a roomy array.
        assert_eq!(outcome.report.routed, 40, "two routes of 20 requests each");
        // The second scan sees the merged layout, and with zero noise the
        // detected map matches the plan exactly.
        assert_eq!(outcome.report.mismatches_final, 0);
        assert_eq!(outcome.report.true_mismatches_final, 0);
        // The chip is empty after the flush, and time accrued in every
        // ledger that ran.
        assert_eq!(outcome.state.particle_count(), 0);
        assert!(outcome.report.time.motion.get() > 0.0);
        assert!(outcome.report.time.sensing.get() > 0.0);
        assert!(outcome.report.time.fluidics.get() > 0.0);
        // Phase ledgers sum to the cycle total.
        let summed: f64 = outcome.phases.iter().map(|p| p.time.total().get()).sum();
        assert!((summed - outcome.report.time.total().get()).abs() < 1e-9);
    }
}
