//! The bodies of the five assay phases — load, route, sense, recover and
//! flush — and the cycle context they share.
//!
//! Each body is a plain function that [`PhaseSpec::run`](super::PhaseSpec)
//! dispatches to from its one `match`: it mutates the shared [`ChipState`]
//! (grid, plan, time ledger) and the cycle's [`Accumulators`], and returns
//! a [`PhaseReport`]. A [`Protocol`](super::protocol::Protocol) is an
//! ordered list of phase specs; the canned
//! `load → route(sort) → sense → recover → flush` sequence is the driver's
//! standard cycle (its replay equivalence is locked in by the journal
//! oracle), and arbitrary other sequences (multi-route, multi-sense — see
//! scenario E13) compose from the same five pieces.
//!
//! Phases are **fallible and interruptible**: a body returns
//! `Result<PhaseReport, PhaseError>`, never panics on grid-state surprises,
//! and polls [`ChipState::fault_tripped`] at its mutation boundaries so an
//! armed [`FaultPlan`](labchip_manipulation::journal::FaultPlan) kills
//! execution cooperatively — the hook the checkpoint/resume sweep (E14)
//! injects crashes through.

use super::{BatchDriver, RecoveryPolicy};
use labchip_array::timing::WindowBudget;
use labchip_manipulation::cage::ParticleId;
use labchip_manipulation::error::ManipulationError;
use labchip_manipulation::routing::{RoutingOutcome, RoutingProblem, RoutingRequest};
use labchip_manipulation::state::{ChipState, TimeBreakdown, TimeLedger};
use labchip_sensing::averaging::FrameAverager;
use labchip_sensing::detect::{DetectionStats, Occupancy, OccupancyMap};
use labchip_units::{GridCoord, GridDims};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};

/// Why a phase stopped without completing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhaseError {
    /// An armed [`FaultPlan`](labchip_manipulation::journal::FaultPlan)
    /// kill point tripped at one of the phase's poll points.
    Interrupted {
        /// Name of the interrupted phase.
        phase: &'static str,
    },
    /// A grid operation the phase's bookkeeping guarantees was rejected —
    /// an internal inconsistency, surfaced instead of panicking.
    Invariant {
        /// Name of the failing phase.
        phase: &'static str,
        /// What was violated.
        reason: String,
    },
}

impl PhaseError {
    /// Name of the phase that stopped.
    pub fn phase(&self) -> &'static str {
        match self {
            PhaseError::Interrupted { phase } | PhaseError::Invariant { phase, .. } => phase,
        }
    }

    pub(super) fn interrupted(phase: &'static str) -> Self {
        PhaseError::Interrupted { phase }
    }

    fn invariant(phase: &'static str, reason: impl Into<String>) -> Self {
        PhaseError::Invariant {
            phase,
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for PhaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhaseError::Interrupted { phase } => {
                write!(f, "{phase} interrupted by injected fault")
            }
            PhaseError::Invariant { phase, reason } => {
                write!(f, "{phase} invariant violated: {reason}")
            }
        }
    }
}

impl std::error::Error for PhaseError {}

/// What one executed phase did — one row of a protocol's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Phase name (plus a target/knob annotation where relevant).
    pub phase: String,
    /// Simulated chip time this phase charged, by ledger (filled in by
    /// [`BatchDriver::execute`] from [`ChipState`] snapshots around the
    /// phase).
    pub time: TimeBreakdown,
    /// Cage moves this phase commanded.
    pub moves: usize,
    /// Particles on the grid after the phase.
    pub particles_after: usize,
    /// One-line human summary.
    pub detail: String,
}

/// The final plan-vs-reality counts of a protocol, captured while the batch
/// is still on-chip (just before a flush, or at protocol end).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FinalCounts {
    /// Sites where the final detected map disagrees with the plan.
    pub mismatches_final: usize,
    /// Sites where the true occupancy disagrees with the plan.
    pub true_mismatches_final: usize,
    /// Occupied cages the detection scan decided it saw.
    pub occupancy_detected: usize,
}

/// Cycle-scoped context handed to every phase: the driver whose shared
/// resources the phases use, plus the [`Accumulators`] the final
/// [`CycleReport`](super::CycleReport) is assembled from.
pub(crate) struct PhaseCtx<'a> {
    /// The driver running the protocol.
    pub(crate) driver: &'a BatchDriver,
    /// Every cycle accumulator — the part of the ctx a
    /// [`Checkpoint`](super::protocol::Checkpoint) stores.
    pub(crate) acc: Accumulators,
}

/// Every cycle-scoped accumulator of a protocol run, serde-round-trippable
/// as the second half of a [`Checkpoint`](super::protocol::Checkpoint)
/// (the first being the [`ChipStateSnapshot`](labchip_manipulation::state::ChipStateSnapshot)).
/// Restoring it into a run on an equally configured driver makes a
/// resumed run bit-identical to an uninterrupted one: the scan-pass
/// counter and cycle seed pin every RNG stream, the rest pins the final
/// [`CycleReport`](super::CycleReport) assembly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Accumulators {
    /// Zero-based cycle index.
    pub cycle: usize,
    /// Seed of this cycle's batch placement.
    pub cycle_seed: u64,
    /// Next scan pass number (separates repeated scans of one cycle).
    pub pass: u64,
    /// Particles requested across all load phases.
    pub requested: usize,
    /// Requests the routers delivered to their goals.
    pub routed: usize,
    /// Cage steps until the last routed particle arrived, summed over
    /// route phases.
    pub makespan_steps: usize,
    /// Individual cage moves across all route phases.
    pub total_moves: usize,
    /// Whether every routed plan passed the separation invariant.
    pub conflict_free: bool,
    /// Planned moves checked against the force envelope.
    pub moves_checked: usize,
    /// Moves the envelope rejected.
    pub infeasible_moves: usize,
    /// Programming-clock budget of the executed motion.
    pub budget: WindowBudget,
    /// The latest detected occupancy map (None until a sense phase runs).
    pub detected: Option<OccupancyMap>,
    /// Confusion counts accumulated over all full-array scans.
    pub detection: DetectionStats,
    /// Detected-vs-plan mismatches of the *first* scan.
    pub mismatches_initial: Option<usize>,
    /// Recovery rounds executed.
    pub recovery_rounds: usize,
    /// Corrective cage moves commanded by recovery.
    pub recovery_moves: usize,
    /// Final plan-vs-reality counts, if already captured.
    pub finals: Option<FinalCounts>,
}

impl Accumulators {
    /// Fresh accumulators for cycle `cycle` with batch seed `cycle_seed`.
    pub fn new(cycle: usize, cycle_seed: u64) -> Self {
        Self {
            cycle,
            cycle_seed,
            pass: (cycle as u64) << 16,
            requested: 0,
            routed: 0,
            makespan_steps: 0,
            total_moves: 0,
            conflict_free: true,
            moves_checked: 0,
            infeasible_moves: 0,
            budget: WindowBudget::default(),
            detected: None,
            detection: DetectionStats::default(),
            mismatches_initial: None,
            recovery_rounds: 0,
            recovery_moves: 0,
            finals: None,
        }
    }
}

impl<'a> PhaseCtx<'a> {
    /// Routes a problem through the shared router, warm-starting from the
    /// driver's [`RouterCache`](labchip_manipulation::sharding::RouterCache)
    /// when [`WorkloadConfig::reuse_plans`](super::WorkloadConfig::reuse_plans)
    /// is set.
    /// Outcomes are bit-identical with and without the cache.
    ///
    /// # Errors
    ///
    /// Propagates the router's validation error for ill-formed problems.
    fn solve_routing(&self, problem: &RoutingProblem) -> Result<RoutingOutcome, ManipulationError> {
        let driver = self.driver;
        if driver.config.reuse_plans {
            let mut cache = driver.route_cache.lock().expect("route cache poisoned");
            driver.router.solve_cached(problem, &mut cache)
        } else {
            driver.router.solve(problem)
        }
    }

    /// Checks every move of a plan against the force envelope and feeds the
    /// changed electrode pairs into the row-update budget — shared by route
    /// phases and the recovery re-plans.
    ///
    /// One pass over each path's moves fills, per step, the number of
    /// changed electrodes (two per move) and a bitmap of the rows they lie
    /// in; then every step with a move records one update, in step order.
    /// That is the per-step `plan_update` of the changed list, so the
    /// counts and the budget — its `f64` sums included — come out the same
    /// as stepping every path through the horizon.
    fn check_planned_moves(&mut self, outcome: &RoutingOutcome, dims: GridDims) {
        let driver = self.driver;
        let speed = driver.envelope.pitch / driver.config.step_period;
        let feasible = driver.envelope.permits(speed);
        let all_paths = || outcome.paths.iter().chain(outcome.stranded.iter());
        // No path moves after its arrival step.
        let horizon = all_paths().map(|p| p.arrival_step()).max().unwrap_or(0);
        let words = dims.rows.div_ceil(64).max(1) as usize;
        let mut changed = vec![0usize; horizon + 1];
        let mut rows = vec![0u64; (horizon + 1) * words];
        for path in all_paths() {
            for (t, pair) in path.positions.windows(2).enumerate() {
                if pair[0] == pair[1] {
                    continue;
                }
                let step = t + 1;
                changed[step] += 2;
                for c in pair.iter().filter(|c| dims.contains(**c)) {
                    rows[step * words + c.y as usize / 64] |= 1 << (c.y % 64);
                }
            }
        }
        let moves = changed.iter().sum::<usize>() / 2;
        self.acc.moves_checked += moves;
        if !feasible {
            self.acc.infeasible_moves += moves;
        }
        for (step_rows, &electrodes) in rows.chunks_exact(words).zip(&changed) {
            if electrodes > 0 {
                let rows_written = step_rows.iter().map(|w| w.count_ones()).sum();
                self.acc.budget.record(&driver.programming.row_update(
                    dims.cols,
                    rows_written,
                    electrodes,
                ));
            }
        }
    }

    /// Captures the final plan-vs-reality counts from the current state
    /// (overwriting any earlier capture — the *last* on-chip snapshot wins).
    pub(crate) fn capture_finals(&mut self, state: &mut ChipState) {
        let mismatches_final = match &self.acc.detected {
            Some(map) => map
                .diff_count(state.plan())
                .expect("detected and plan maps share the array dims"),
            None => state.plan().occupied_count(),
        };
        let occupancy_detected = self
            .acc
            .detected
            .as_ref()
            .map(OccupancyMap::occupied_count)
            .unwrap_or(0);
        self.acc.finals = Some(FinalCounts {
            mismatches_final,
            true_mismatches_final: state.true_mismatches(),
            occupancy_detected,
        });
    }
}

// ---------------------------------------------------------------------------
// Workload geometry: loading lattices and sort targets.
// ---------------------------------------------------------------------------

/// A sparse lattice of sites over `x_lo..x_hi`, rows `1..rows-1`, with the
/// given spacing — the building block of loading and target patterns.
pub(crate) fn lattice(dims: GridDims, x_lo: u32, x_hi: u32, spacing: u32) -> Vec<GridCoord> {
    let mut slots = Vec::new();
    let mut y = 1;
    while y < dims.rows.saturating_sub(1) {
        let mut x = x_lo;
        while x < x_hi {
            slots.push(GridCoord::new(x, y));
            x += spacing;
        }
        y += spacing;
    }
    slots
}

/// The two sort-target lattices of the full-array sort workload: one in the
/// left third, one in the right, spaced `min_separation + 2` so they stay
/// traversable while occupied.
pub(crate) fn sort_lattices(
    dims: GridDims,
    min_separation: u32,
) -> (Vec<GridCoord>, Vec<GridCoord>) {
    let spacing = min_separation + 2;
    let left = lattice(dims, 1, dims.cols / 3, spacing);
    let right = lattice(
        dims,
        2 * dims.cols / 3,
        dims.cols.saturating_sub(1),
        spacing,
    );
    (left, right)
}

/// Capacity of the canned sort workload (both target lattices together) —
/// the load clamp of the canned cycle.
pub fn sort_capacity(dims: GridDims, min_separation: u32) -> usize {
    let (left, right) = sort_lattices(dims, min_separation);
    left.len() + right.len()
}

/// The seeded batch placement: a random subset of the whole-array loading
/// lattice (spacing `min_separation + 1`, the densest loadable packing),
/// truncated to `particles` (and `capacity_clamp` if given) and sorted
/// row-major. The RNG stream is a pure function of
/// `(seed, particles, min_separation via the lattice)`, unchanged from the
/// original `sort_problem` so seeded placements stay bit-identical.
pub fn loading_sites(
    dims: GridDims,
    particles: usize,
    min_separation: u32,
    seed: u64,
    capacity_clamp: Option<usize>,
) -> Vec<GridCoord> {
    let load_spacing = min_separation + 1;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ particles as u64);
    let mut starts = lattice(dims, 1, dims.cols.saturating_sub(1), load_spacing);
    starts.shuffle(&mut rng);
    starts.truncate(particles.min(capacity_clamp.unwrap_or(usize::MAX)));
    starts.sort_unstable_by_key(|c| (c.y, c.x));
    starts
}

/// Assigns the alternating sort goals: even-indexed particles to the left
/// lattice, odd-indexed to the right, overflowing into whichever side still
/// has slots — exactly the original `sort_problem` assignment.
pub(crate) fn assign_sort_goals(
    particles: &[(ParticleId, GridCoord)],
    left: &[GridCoord],
    right: &[GridCoord],
) -> Vec<RoutingRequest> {
    let mut requests = Vec::with_capacity(particles.len());
    let (mut li, mut ri) = (0usize, 0usize);
    for (i, (id, start)) in particles.iter().enumerate() {
        let goal = if i % 2 == 0 && li < left.len() {
            li += 1;
            left[li - 1]
        } else if ri < right.len() {
            ri += 1;
            right[ri - 1]
        } else if li < left.len() {
            li += 1;
            left[li - 1]
        } else {
            // Both target lattices are full — only reachable when the
            // population was loaded without the sort-capacity clamp (the
            // canned cycle always clamps); the overflow holds position.
            *start
        };
        requests.push(RoutingRequest {
            id: *id,
            start: *start,
            goal,
        });
    }
    requests
}

/// Greedily pairs each stray with its nearest (Chebyshev) unused vacancy;
/// leftover strays or vacancies stay unpaired for a later round.
pub(crate) fn pair_nearest(
    strays: &[GridCoord],
    vacancies: &[GridCoord],
) -> Vec<(GridCoord, GridCoord)> {
    let mut used = vec![false; vacancies.len()];
    let mut pairs = Vec::with_capacity(strays.len().min(vacancies.len()));
    for &from in strays {
        let mut best: Option<(u32, usize)> = None;
        for (j, &slot) in vacancies.iter().enumerate() {
            if used[j] {
                continue;
            }
            let d = from.chebyshev(slot);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, j));
            }
        }
        let Some((_, j)) = best else { break };
        used[j] = true;
        pairs.push((from, vacancies[j]));
    }
    pairs
}

// ---------------------------------------------------------------------------
// The five phase bodies.
// ---------------------------------------------------------------------------

/// [`PhaseSpec::Load`](super::PhaseSpec::Load): places up to `particles`
/// (and `capacity_clamp`) on the loading lattice.
pub(super) fn load(
    name: &'static str,
    state: &mut ChipState,
    ctx: &mut PhaseCtx,
    particles: usize,
    capacity_clamp: Option<usize>,
) -> Result<PhaseReport, PhaseError> {
    let dims = state.dims();
    let sep = state.grid().min_separation();
    // Ids continue after the largest already on the grid so repeated
    // loads stay unique.
    let first_id = state
        .grid()
        .iter_particles()
        .last()
        .map(|(id, _)| id.0 + 1)
        .unwrap_or(0);
    // Salt the placement stream with the id offset so a repeated load
    // draws a *fresh* batch instead of replaying the first one (whose
    // sites are all occupied by now). The first load of a cycle has
    // `first_id == 0` and keeps the exact historical stream.
    let seed = ctx.acc.cycle_seed ^ first_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let starts = loading_sites(dims, particles, sep, seed, capacity_clamp);
    let mut placed = 0usize;
    for start in &starts {
        // On an empty grid every lattice site is placeable (they are
        // mutually separated); a repeated load skips sites an earlier
        // batch already crowds.
        if state
            .place(ParticleId(first_id + placed as u64), *start)
            .is_ok()
        {
            placed += 1;
        }
        if state.fault_tripped() {
            return Err(PhaseError::interrupted(name));
        }
    }
    ctx.acc.requested += placed;
    state.charge(TimeLedger::Fluidics, ctx.driver.config.load_time);
    Ok(PhaseReport {
        phase: name.to_owned(),
        time: TimeBreakdown::default(),
        moves: 0,
        particles_after: state.particle_count(),
        detail: format!("{placed} particles loaded (requested {particles})"),
    })
}

/// Where a route phase sends the current population.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteTarget {
    /// The canned full-array sort: even-indexed particles to a lattice in
    /// the left third, odd-indexed to the right third.
    SortSplit,
    /// Pairs consecutive particles (by id) and routes each pair to adjacent
    /// slots — separated by exactly the minimum cage separation, the closest
    /// legal approach — on a central lattice. The protocol-level "bring
    /// these two populations together" step the monolithic driver could not
    /// express.
    MergePairs,
    /// Every particle holds its position (stationary obstacle routing; a
    /// no-op that still exercises the planner).
    Hold,
}

impl RouteTarget {
    /// Short annotation for reports.
    fn label(&self) -> &'static str {
        match self {
            RouteTarget::SortSplit => "sort-split",
            RouteTarget::MergePairs => "merge-pairs",
            RouteTarget::Hold => "hold",
        }
    }

    /// Builds the routing requests for the current population (in id
    /// order, so seeded runs are deterministic).
    fn requests(&self, state: &ChipState, sep: u32) -> Vec<RoutingRequest> {
        let dims = state.dims();
        let particles: Vec<(ParticleId, GridCoord)> = state.grid().iter_particles().collect();
        match self {
            RouteTarget::SortSplit => {
                let (left, right) = sort_lattices(dims, sep);
                assign_sort_goals(&particles, &left, &right)
            }
            RouteTarget::MergePairs => {
                // Anchor slots on a central lattice wide enough that pairs
                // stay mutually separated: each anchor hosts a pair at
                // (anchor, anchor + sep·x̂).
                let pitch = 2 * sep + 2;
                let x_lo = dims.cols / 3 + 1;
                let x_hi = (2 * dims.cols / 3).saturating_sub(sep + 1);
                let mut anchors = Vec::new();
                let mut y = 1;
                while y < dims.rows.saturating_sub(1) {
                    let mut x = x_lo;
                    while x < x_hi {
                        anchors.push(GridCoord::new(x, y));
                        x += pitch;
                    }
                    y += pitch;
                }
                let mut requests = Vec::with_capacity(particles.len());
                for (pair, chunk) in particles.chunks(2).enumerate() {
                    match (chunk, anchors.get(pair)) {
                        ([(id_a, start_a), (id_b, start_b)], Some(anchor)) => {
                            requests.push(RoutingRequest {
                                id: *id_a,
                                start: *start_a,
                                goal: *anchor,
                            });
                            requests.push(RoutingRequest {
                                id: *id_b,
                                start: *start_b,
                                goal: GridCoord::new(anchor.x + sep, anchor.y),
                            });
                        }
                        _ => {
                            // Unpaired leftover or anchors exhausted: hold.
                            for (id, start) in chunk {
                                requests.push(RoutingRequest {
                                    id: *id,
                                    start: *start,
                                    goal: *start,
                                });
                            }
                        }
                    }
                }
                requests
            }
            RouteTarget::Hold => particles
                .iter()
                .map(|(id, start)| RoutingRequest {
                    id: *id,
                    start: *start,
                    goal: *start,
                })
                .collect(),
        }
    }
}

/// [`PhaseSpec::Route`](super::PhaseSpec::Route): plans, checks and
/// executes the move of the population to `target`.
pub(super) fn route(
    name: &'static str,
    state: &mut ChipState,
    ctx: &mut PhaseCtx,
    target: &RouteTarget,
) -> Result<PhaseReport, PhaseError> {
    let dims = state.dims();
    let sep = state.grid().min_separation();
    let requests = target.requests(state, sep);
    if requests.is_empty() {
        return Ok(PhaseReport {
            phase: format!("{name}:{}", target.label()),
            time: TimeBreakdown::default(),
            moves: 0,
            particles_after: state.particle_count(),
            detail: "nothing to route".into(),
        });
    }
    let goals: Vec<GridCoord> = requests.iter().map(|r| r.goal).collect();
    let mut problem = RoutingProblem::new(dims, requests);
    problem.min_separation = sep;

    // Protocols are data and can demand the impossible (e.g. sorting a
    // population larger than the target capacity): an unroutable target
    // degrades into a skipped motion phase, never a panic. The canned
    // cycle clamps its load to the sort capacity, so this branch is
    // unreachable on the legacy-equivalent path. The solver validates
    // internally, so its error *is* the degrade signal.
    let Ok(outcome) = ctx.solve_routing(&problem) else {
        return Ok(PhaseReport {
            phase: format!("{name}:{}", target.label()),
            time: TimeBreakdown::default(),
            moves: 0,
            particles_after: state.particle_count(),
            detail: format!(
                "target unroutable for {} particles; routing skipped",
                problem.requests.len()
            ),
        });
    };
    ctx.acc.conflict_free &= outcome.is_conflict_free(sep);
    ctx.check_planned_moves(&outcome, dims);
    state.charge(
        TimeLedger::Motion,
        ctx.driver.config.step_period * outcome.makespan as f64,
    );

    // Execute: routed particles end on their targets, stranded ones
    // wherever their best-effort trajectory stopped. Lift every moved
    // particle first, then set the finals — applying moves one at a
    // time would trip the separation check against particles that have
    // not been moved yet.
    let moved = || outcome.paths.iter().chain(outcome.stranded.iter());
    for path in moved() {
        state
            .remove(path.id)
            .map_err(|e| PhaseError::invariant(name, format!("lifting routed particle: {e}")))?;
        if state.fault_tripped() {
            return Err(PhaseError::interrupted(name));
        }
    }
    for path in moved() {
        let last = *path
            .positions
            .last()
            .ok_or_else(|| PhaseError::invariant(name, "router produced an empty path"))?;
        state
            .place(path.id, last)
            .map_err(|e| PhaseError::invariant(name, format!("settling routed particle: {e}")))?;
        if state.fault_tripped() {
            return Err(PhaseError::interrupted(name));
        }
    }
    state.set_plan_from_goals(goals);

    ctx.acc.routed += outcome.paths.len();
    ctx.acc.makespan_steps += outcome.makespan;
    ctx.acc.total_moves += outcome.total_moves;
    Ok(PhaseReport {
        phase: format!("{name}:{}", target.label()),
        time: TimeBreakdown::default(),
        moves: outcome.total_moves,
        particles_after: state.particle_count(),
        detail: format!(
            "{}/{} routed in {} steps",
            outcome.paths.len(),
            problem.requests.len(),
            outcome.makespan
        ),
    })
}

/// [`PhaseSpec::Sense`](super::PhaseSpec::Sense): one full-array scan
/// averaging `frames` (default: the workload's `detection_frames`).
pub(super) fn sense(
    name: &'static str,
    state: &mut ChipState,
    ctx: &mut PhaseCtx,
    frames: Option<u32>,
) -> Result<PhaseReport, PhaseError> {
    let driver = ctx.driver;
    let dims = state.dims();
    let frames = frames.unwrap_or(driver.config.detection_frames).max(1);
    let scan_time = driver
        .scan
        .averaged_scan_time(dims, &FrameAverager::new(frames));
    state.charge(TimeLedger::Sensing, scan_time);
    if state.fault_tripped() {
        return Err(PhaseError::interrupted(name));
    }
    let result = driver.scanner.scan_source(state, frames, ctx.acc.pass);
    ctx.acc.pass += 1;
    ctx.acc.detection.merge(&result.stats);
    let mismatches = result
        .map
        .diff_count(state.plan())
        .map_err(|e| PhaseError::invariant(name, e.to_string()))?;
    if ctx.acc.mismatches_initial.is_none() {
        ctx.acc.mismatches_initial = Some(mismatches);
    }
    let occupied = result.map.occupied_count();
    ctx.acc.detected = Some(result.map);
    Ok(PhaseReport {
        phase: name.to_owned(),
        time: TimeBreakdown::default(),
        moves: 0,
        particles_after: state.particle_count(),
        detail: format!(
            "{occupied} occupied detected, {mismatches} mismatches vs plan ({frames} frames)"
        ),
    })
}

/// [`PhaseSpec::Recover`](super::PhaseSpec::Recover): the closed loop on
/// detection/plan mismatches under `policy` (default: the workload's).
pub(super) fn recover(
    name: &'static str,
    state: &mut ChipState,
    ctx: &mut PhaseCtx,
    policy: Option<RecoveryPolicy>,
) -> Result<PhaseReport, PhaseError> {
    let driver = ctx.driver;
    let dims = state.dims();
    let sep = state.grid().min_separation();
    let policy = policy.unwrap_or(driver.config.recovery);
    let rescan_frames = driver
        .config
        .detection_frames
        .saturating_mul(policy.rescan_factor.max(1));
    let Some(mut detected) = ctx.acc.detected.take() else {
        // No scan to recover against: nothing to do.
        return Ok(PhaseReport {
            phase: name.to_owned(),
            time: TimeBreakdown::default(),
            moves: 0,
            particles_after: state.particle_count(),
            detail: "no detection map (sense phase missing)".into(),
        });
    };

    let moves_before = ctx.acc.recovery_moves;
    let rounds_before = ctx.acc.recovery_rounds;
    for _ in 0..policy.max_rounds {
        if state.fault_tripped() {
            return Err(PhaseError::interrupted(name));
        }
        let suspects: Vec<GridCoord> = dims
            .iter()
            .filter(|c| detected.get(*c) != state.plan().get(*c))
            .collect();
        if suspects.is_empty() {
            break;
        }
        ctx.acc.recovery_rounds += 1;

        // Re-scan every suspect with heavier averaging; most detection
        // errors dissolve here.
        rescan(state, ctx, &mut detected, &suspects, rescan_frames);

        // Decide: confirmed strays are detected particles off the plan;
        // vacancies are plan slots the readout still reports empty.
        let strays: Vec<GridCoord> = suspects
            .iter()
            .copied()
            .filter(|c| {
                detected.get(*c) == Occupancy::Occupied && state.plan().get(*c) == Occupancy::Empty
            })
            .collect();
        let vacancies: Vec<GridCoord> = suspects
            .iter()
            .copied()
            .filter(|c| {
                detected.get(*c) == Occupancy::Empty && state.plan().get(*c) == Occupancy::Occupied
            })
            .collect();
        if strays.is_empty() || vacancies.is_empty() {
            // Nothing actionable; the re-scan may already have cleared
            // the suspects — the next round re-checks and exits.
            continue;
        }

        // Act: pair each stray with the nearest vacancy and re-route.
        // Every other site the scanner reports occupied — particles on
        // plan *and* strays left unpaired when strays outnumber the
        // vacancies — enters the problem as a stationary request, so
        // corrective paths are planned around every known particle, not
        // just the ones being moved.
        let pairs = pair_nearest(&strays, &vacancies);
        let movers = pairs.len();
        let mut requests: Vec<RoutingRequest> = pairs
            .iter()
            .enumerate()
            .map(|(k, &(from, to))| RoutingRequest {
                id: ParticleId(k as u64),
                start: from,
                goal: to,
            })
            .collect();
        let moving: HashSet<GridCoord> = pairs.iter().map(|&(from, _)| from).collect();
        for site in dims.iter() {
            if detected.get(site) == Occupancy::Occupied && !moving.contains(&site) {
                requests.push(RoutingRequest {
                    id: ParticleId(requests.len() as u64),
                    start: site,
                    goal: site,
                });
            }
        }
        let mut recovery_problem = RoutingProblem::new(dims, requests);
        recovery_problem.min_separation = sep;
        // The solver validates internally: an error means a surviving
        // false positive sits too close to a real particle, and no
        // conflict-free plan exists for this reading.
        let Ok(recovery_outcome) = ctx.solve_routing(&recovery_problem) else {
            break;
        };
        ctx.check_planned_moves(&recovery_outcome, dims);
        state.charge(
            TimeLedger::Recovery,
            driver.config.step_period * recovery_outcome.makespan as f64,
        );
        ctx.acc.recovery_moves += recovery_outcome.total_moves;

        // Execute on the particles actually present. A commanded move of
        // a phantom detection drags an empty cage — time passes, nothing
        // relocates, and the next verification scan still flags it.
        let occupant: BTreeMap<GridCoord, ParticleId> = state
            .grid()
            .iter_particles()
            .map(|(id, c)| (c, id))
            .collect();
        let mut touched: Vec<GridCoord> = Vec::new();
        let mut moved: Vec<(ParticleId, GridCoord, GridCoord)> = Vec::new();
        for path in recovery_outcome
            .paths
            .iter()
            .chain(recovery_outcome.stranded.iter())
        {
            if path.id.0 >= movers as u64 {
                continue; // stationary on-plan particle
            }
            let from = path.positions[0];
            let to = *path
                .positions
                .last()
                .ok_or_else(|| PhaseError::invariant(name, "router produced an empty path"))?;
            touched.push(from);
            touched.push(to);
            if from == to {
                continue;
            }
            if let Some(&id) = occupant.get(&from) {
                moved.push((id, from, to));
            }
        }
        for &(id, _, _) in &moved {
            state.remove(id).map_err(|e| {
                PhaseError::invariant(name, format!("lifting tracked particle: {e}"))
            })?;
            if state.fault_tripped() {
                return Err(PhaseError::interrupted(name));
            }
        }
        for &(id, from, to) in &moved {
            if state.place(id, to).is_err() {
                // An undetected particle blocks the slot; the cell
                // stays where it was (its own cage is still free).
                if state.place(id, from).is_err() {
                    state.place_merged(id, from);
                }
            }
            if state.fault_tripped() {
                return Err(PhaseError::interrupted(name));
            }
        }

        // Verify the sites the moves touched so the loop (and the final
        // report) sees the post-move readout, not a stale map.
        rescan(state, ctx, &mut detected, &touched, rescan_frames);
    }
    let moves = ctx.acc.recovery_moves - moves_before;
    let rounds = ctx.acc.recovery_rounds - rounds_before;
    ctx.acc.detected = Some(detected);
    Ok(PhaseReport {
        phase: name.to_owned(),
        time: TimeBreakdown::default(),
        moves,
        particles_after: state.particle_count(),
        detail: format!("{rounds} rounds, {moves} corrective moves"),
    })
}

/// Re-reads `sites` into `detected` with `frames`-frame averaging, as one
/// Recover pass: charges [`TimeLedger::Recovery`] for the rows actually
/// re-read, then advances the scan pass.
fn rescan(
    state: &mut ChipState,
    ctx: &mut PhaseCtx,
    detected: &mut OccupancyMap,
    sites: &[GridCoord],
    frames: u32,
) {
    let driver = ctx.driver;
    let rows: HashSet<u32> = sites.iter().map(|c| c.y).collect();
    state.charge(
        TimeLedger::Recovery,
        driver.scan.row_time(state.dims().cols) * (rows.len() as f64 * frames as f64),
    );
    let truth = state.occupancy();
    for &site in sites {
        detected.set(
            site,
            driver
                .scanner
                .sense_site(truth.get(site), site, frames, ctx.acc.pass),
        );
    }
    ctx.acc.pass += 1;
}

/// [`PhaseSpec::Flush`](super::PhaseSpec::Flush): empties the chip.
pub(super) fn flush(
    name: &'static str,
    state: &mut ChipState,
    ctx: &mut PhaseCtx,
) -> Result<PhaseReport, PhaseError> {
    ctx.capture_finals(state);
    let flushed = state.particle_count();
    let ids: Vec<ParticleId> = state.grid().iter_particles().map(|(id, _)| id).collect();
    for id in ids {
        state
            .remove(id)
            .map_err(|e| PhaseError::invariant(name, format!("flushing tracked particle: {e}")))?;
        if state.fault_tripped() {
            return Err(PhaseError::interrupted(name));
        }
    }
    state.charge(TimeLedger::Fluidics, ctx.driver.config.flush_time);
    Ok(PhaseReport {
        phase: name.to_owned(),
        time: TimeBreakdown::default(),
        moves: 0,
        particles_after: 0,
        detail: format!("{flushed} particles flushed"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ForceEnvelope, WorkloadConfig};
    use labchip_manipulation::routing::ParticlePath;
    use labchip_units::{Meters, MetersPerSecond, Newtons};

    impl PhaseCtx<'_> {
        /// The move check as it was first written: every path stepped
        /// through the whole horizon, one `plan_update` per step with a
        /// move: the reference [`PhaseCtx::check_planned_moves`] must match.
        fn check_planned_moves_reference(&mut self, outcome: &RoutingOutcome, dims: GridDims) {
            let driver = self.driver;
            let speed = driver.envelope.pitch / driver.config.step_period;
            let feasible = driver.envelope.permits(speed);
            let all_paths = || outcome.paths.iter().chain(outcome.stranded.iter());
            let horizon = all_paths().map(|p| p.arrival_step()).max().unwrap_or(0);
            let mut changed: Vec<GridCoord> = Vec::new();
            for t in 1..=horizon {
                changed.clear();
                for path in all_paths() {
                    let prev = path.position_at(t - 1);
                    let cur = path.position_at(t);
                    if prev != cur {
                        self.acc.moves_checked += 1;
                        if !feasible {
                            self.acc.infeasible_moves += 1;
                        }
                        changed.push(prev);
                        changed.push(cur);
                    }
                }
                if !changed.is_empty() {
                    self.acc
                        .budget
                        .record(&driver.programming.plan_update(dims, &changed));
                }
            }
        }
    }

    /// A seeded outcome on `dims`: up to `count` paths of random walks
    /// (some one cell long, some walking back to their start, some
    /// stepping one cell off the array), each filed as routed or stranded.
    fn random_outcome(dims: GridDims, count: usize, seed: u64) -> RoutingOutcome {
        let mut bits = seed;
        let mut next = |bound: u32| {
            bits = bits
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((bits >> 33) % u64::from(bound.max(1))) as u32
        };
        let mut outcome = RoutingOutcome {
            paths: Vec::new(),
            unrouted: Vec::new(),
            stranded: Vec::new(),
            makespan: 0,
            total_moves: 0,
        };
        for k in 0..next(count as u32 + 1) {
            let mut pos = GridCoord::new(next(dims.cols + 1), next(dims.rows + 1));
            let mut positions = vec![pos];
            for _ in 0..next(24) {
                let (dx, dy) = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)][next(5) as usize];
                pos = pos.offset(dx, dy).unwrap_or(pos);
                positions.push(pos);
            }
            if next(4) == 0 {
                let back: Vec<GridCoord> = positions.iter().rev().skip(1).copied().collect();
                positions.extend(back);
            }
            let path = ParticlePath {
                id: ParticleId(u64::from(k)),
                positions,
            };
            if next(3) == 0 {
                outcome.unrouted.push(path.id);
                outcome.stranded.push(path);
            } else {
                outcome.paths.push(path);
            }
        }
        outcome
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// The one-pass move check counts the same moves and records the
        /// same budget, `f64` sums bit for bit, as stepping every path
        /// through the horizon — over two checks in a row, as a route and
        /// a recovery re-plan run them, under a feasible and an infeasible
        /// envelope.
        #[test]
        fn one_pass_move_check_matches_the_per_step_reference(
            cols in 1u32..90,
            rows in 1u32..150,
            counts in (0usize..12, 0usize..12),
            seed in 0u64..u64::MAX,
            feasible in 0u32..2,
        ) {
            let dims = GridDims::new(cols, rows);
            let envelope = ForceEnvelope {
                holding_force: Newtons::new(1e-12),
                max_speed: MetersPerSecond::new(if feasible == 1 { 1.0 } else { 0.0 }),
                pitch: Meters::new(20e-6),
            };
            let config = WorkloadConfig { array_side: 1, ..WorkloadConfig::default() };
            let driver = BatchDriver::with_envelope(config, envelope);
            let ctx = || PhaseCtx { driver: &driver, acc: Accumulators::new(0, 0) };
            let (mut fast, mut reference) = (ctx(), ctx());
            for (k, count) in [counts.0, counts.1].into_iter().enumerate() {
                let outcome = random_outcome(dims, count, seed ^ k as u64);
                fast.check_planned_moves(&outcome, dims);
                reference.check_planned_moves_reference(&outcome, dims);
            }
            let (a, b) = (&fast.acc, &reference.acc);
            proptest::prop_assert_eq!(a.moves_checked, b.moves_checked);
            proptest::prop_assert_eq!(a.infeasible_moves, b.infeasible_moves);
            proptest::prop_assert_eq!(a.infeasible_moves, if feasible == 1 { 0 } else { a.moves_checked });
            let (x, y) = (&a.budget, &b.budget);
            proptest::prop_assert_eq!(x.steps, y.steps);
            proptest::prop_assert_eq!(x.rows_written, y.rows_written);
            proptest::prop_assert_eq!(x.electrodes_changed, y.electrodes_changed);
            proptest::prop_assert_eq!(
                x.programming_time.get().to_bits(),
                y.programming_time.get().to_bits()
            );
            proptest::prop_assert_eq!(
                x.worst_step_time.get().to_bits(),
                y.worst_step_time.get().to_bits()
            );
        }
    }

    #[test]
    fn arrays_too_small_for_a_lattice_load_and_sort_nothing() {
        for side in [0, 1] {
            let dims = GridDims::square(side);
            assert!(
                loading_sites(dims, 10, 2, 7, None).is_empty(),
                "side {side}"
            );
            let problem = crate::workload::sort_problem(dims, 10, 2, 7);
            assert!(problem.requests.is_empty(), "side {side}");
        }
    }

    #[test]
    fn pair_nearest_matches_each_stray_to_its_closest_slot() {
        let strays = [GridCoord::new(0, 0), GridCoord::new(10, 10)];
        let vacancies = [GridCoord::new(9, 9), GridCoord::new(1, 1)];
        let pairs = pair_nearest(&strays, &vacancies);
        assert_eq!(
            pairs,
            vec![
                (GridCoord::new(0, 0), GridCoord::new(1, 1)),
                (GridCoord::new(10, 10), GridCoord::new(9, 9)),
            ]
        );
        // Leftovers stay unpaired.
        assert_eq!(pair_nearest(&strays, &vacancies[..1]).len(), 1);
        assert_eq!(pair_nearest(&[], &vacancies).len(), 0);
    }

    #[test]
    fn loading_sites_are_deterministic_and_clamped() {
        let dims = GridDims::square(32);
        let a = loading_sites(dims, 20, 2, 7, None);
        let b = loading_sites(dims, 20, 2, 7, None);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        let clamped = loading_sites(dims, 20, 2, 7, Some(5));
        assert_eq!(clamped.len(), 5);
        // Row-major order.
        for pair in a.windows(2) {
            assert!((pair[0].y, pair[0].x) < (pair[1].y, pair[1].x));
        }
    }

    #[test]
    fn merge_pairs_targets_put_partners_at_minimum_separation() {
        let dims = GridDims::square(48);
        let mut state = ChipState::with_separation(dims, 2);
        for (i, site) in loading_sites(dims, 8, 2, 3, None).iter().enumerate() {
            state.place(ParticleId(i as u64), *site).unwrap();
        }
        let requests = RouteTarget::MergePairs.requests(&state, 2);
        assert_eq!(requests.len(), 8);
        let mut problem = RoutingProblem::new(dims, requests.clone());
        problem.min_separation = 2;
        assert!(problem.validate().is_ok(), "merge goals must be routable");
        for chunk in requests.chunks(2) {
            if let [a, b] = chunk {
                if a.goal != a.start {
                    assert_eq!(a.goal.chebyshev(b.goal), 2, "{a:?} vs {b:?}");
                }
            }
        }
    }
}
