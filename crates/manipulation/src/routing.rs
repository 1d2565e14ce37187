//! Conflict-free multi-particle routing.
//!
//! Moving one cage is trivial; moving thousands of cages concurrently without
//! letting any two traps merge is a path-planning problem. Three planners are
//! provided:
//!
//! * [`RoutingStrategy::PrioritizedAStar`] — space–time A\* with a
//!   reservation table (Silver's Cooperative A\*): particles are planned one
//!   at a time (longest distance first), each treating the already-planned
//!   particles as moving obstacles and the not-yet-planned ones as static
//!   obstacles at their start positions. The moving obstacles live in a
//!   reservation table and the static ones in a zone counter: the dense
//!   tables of the thread's planner arena, begun over the whole grid;
//! * [`RoutingStrategy::Greedy`] — the obvious baseline: every step, every
//!   particle moves towards its goal if the next cage is free, otherwise it
//!   waits. Cheap, but it livelocks as density grows — which is exactly the
//!   comparison experiment E7 reports;
//! * [`RoutingStrategy::Incremental`] — the full-array planner of
//!   [`crate::sharding`]: windowed, sharded, parallel across tiles. Use it
//!   (or [`crate::sharding::IncrementalRouter`] directly, for custom shard
//!   parameters) when the problem has hundreds to thousands of particles.

use crate::cage::ParticleId;
use crate::error::ManipulationError;
use crate::sharding::{grid_box, with_arena, Arena, DenseZone};
use labchip_units::{GridCoord, GridDims};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

/// One routing request: take a particle from `start` to `goal`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingRequest {
    /// The particle to move.
    pub id: ParticleId,
    /// Its current cage.
    pub start: GridCoord,
    /// The cage it must end up in.
    pub goal: GridCoord,
}

/// A complete multi-particle routing problem.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingProblem {
    /// Electrode-grid dimensions.
    pub dims: GridDims,
    /// Minimum Chebyshev separation between any two cages at any time.
    pub min_separation: u32,
    /// The requests to satisfy.
    pub requests: Vec<RoutingRequest>,
    /// Planning horizon in cage steps.
    pub max_steps: usize,
}

impl RoutingProblem {
    /// Creates a problem with the default separation (2) and a horizon of
    /// four grid diameters.
    pub fn new(dims: GridDims, requests: Vec<RoutingRequest>) -> Self {
        Self {
            dims,
            min_separation: 2,
            requests,
            max_steps: 4 * (dims.cols + dims.rows) as usize,
        }
    }

    /// Validates that starts and goals are in bounds and mutually compatible
    /// with the separation rule, and that no particle is requested twice.
    ///
    /// A well-formed problem is confirmed in near-linear time: one sort of
    /// the ids, and the dense occupancy scan, one pass over the starts and
    /// one over the goals. Only an ill-formed one (or one spread over more
    /// cells than the scan allocates) runs the pairwise comparison, which
    /// names the first offending pair.
    ///
    /// # Errors
    ///
    /// Returns [`ManipulationError::OutOfBounds`],
    /// [`ManipulationError::DuplicateParticle`] or
    /// [`ManipulationError::SiteConflict`] describing the first problem.
    pub fn validate(&self) -> Result<(), ManipulationError> {
        let in_bounds = self
            .requests
            .iter()
            .all(|r| self.dims.contains(r.start) && self.dims.contains(r.goal));
        let mut ids: Vec<ParticleId> = self.requests.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        let unique = ids.windows(2).all(|w| w[0] != w[1]);
        if in_bounds && unique && self.sites_clear(|r| r.start) && self.sites_clear(|r| r.goal) {
            return Ok(());
        }
        self.validate_pairwise()
    }

    /// Whether the cells `site` picks from the requests keep the separation
    /// rule, by one dense scan over their bounding box. `false` also when
    /// the box is too large to scan densely.
    fn sites_clear(&self, site: impl Fn(&RoutingRequest) -> GridCoord) -> bool {
        let Some((lo, hi)) = bounding_box(self.requests.iter().map(&site)) else {
            return true;
        };
        dense_scan_fits(lo, hi)
            && with_arena(|Arena { scan, .. }| {
                scan.first_conflicts(
                    (lo, hi),
                    0..=0,
                    self.requests.len(),
                    |i, _| site(&self.requests[i]),
                    self.min_separation,
                )
                .is_empty()
            })
    }

    /// The `O(requests²)` form of [`Self::validate`], which reports the
    /// first offending request pair in request order.
    fn validate_pairwise(&self) -> Result<(), ManipulationError> {
        for r in &self.requests {
            for c in [r.start, r.goal] {
                if !self.dims.contains(c) {
                    return Err(ManipulationError::OutOfBounds { coord: c });
                }
            }
        }
        for (i, a) in self.requests.iter().enumerate() {
            for b in &self.requests[i + 1..] {
                if a.id == b.id {
                    return Err(ManipulationError::DuplicateParticle { id: a.id.0 });
                }
                if a.start.chebyshev(b.start) < self.min_separation {
                    return Err(ManipulationError::SiteConflict {
                        coord: b.start,
                        reason: format!("starts of #{} and #{} too close", a.id.0, b.id.0),
                    });
                }
                if a.goal.chebyshev(b.goal) < self.min_separation {
                    return Err(ManipulationError::SiteConflict {
                        coord: b.goal,
                        reason: format!("goals of #{} and #{} too close", a.id.0, b.id.0),
                    });
                }
            }
        }
        Ok(())
    }
}

/// The planner to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RoutingStrategy {
    /// Space–time A\* with reservations (the proposed planner).
    #[default]
    PrioritizedAStar,
    /// Step-synchronous greedy motion (the baseline).
    Greedy,
    /// The incremental sharded planner of [`crate::sharding`], with default
    /// shard parameters.
    Incremental,
}

/// The planned trajectory of one particle. `positions[t]` is the cage at
/// step `t`; once the goal is reached the particle stays there.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParticlePath {
    /// The particle this path belongs to.
    pub id: ParticleId,
    /// Cage position at every step from 0 to the end of the path.
    pub positions: Vec<GridCoord>,
}

impl ParticlePath {
    /// Position at step `t` (clamped to the final position).
    pub fn position_at(&self, t: usize) -> GridCoord {
        self.positions[t.min(self.positions.len() - 1)]
    }

    /// Number of actual moves (steps where the position changes).
    pub fn move_count(&self) -> usize {
        self.positions.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Number of steps until the final position is first reached.
    pub fn arrival_step(&self) -> usize {
        let last = *self.positions.last().expect("paths are never empty");
        // First index from which the position never changes again.
        let mut arrival = self.positions.len() - 1;
        while arrival > 0 && self.positions[arrival - 1] == last {
            arrival -= 1;
        }
        arrival
    }
}

/// Visits every in-bounds cell within Chebyshev distance `< radius` of
/// `center` — the "blocked zone" induced by a cage under the separation
/// rule. The single definition of that zone shape: the sharded planner's
/// zone counters walk it through this helper, and the dense conflict scan
/// reads the same square row by row.
pub(crate) fn for_each_zone_cell(center: GridCoord, radius: u32, mut f: impl FnMut(GridCoord)) {
    let r = radius as i32;
    for dy in -(r - 1)..r {
        for dx in -(r - 1)..r {
            if let Some(c) = center.offset(dx, dy) {
                f(c);
            }
        }
    }
}

/// Result of solving a routing problem.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingOutcome {
    /// Paths of the particles that were routed successfully.
    pub paths: Vec<ParticlePath>,
    /// Particles that could not be routed within the horizon.
    pub unrouted: Vec<ParticleId>,
    /// Best-effort trajectories of unrouted particles that *did* move
    /// before getting stuck (step-synchronous planners produce these; the
    /// prioritized planner leaves its unrouted particles parked at their
    /// starts, so it reports none). Callers executing an outcome must leave
    /// each stranded particle at its trajectory's final position.
    pub stranded: Vec<ParticlePath>,
    /// Number of steps until the last routed particle reaches its goal.
    pub makespan: usize,
    /// Total number of individual cage moves across all particles.
    pub total_moves: usize,
}

impl RoutingOutcome {
    /// Fraction of requests that were routed.
    pub fn success_rate(&self, total_requests: usize) -> f64 {
        if total_requests == 0 {
            1.0
        } else {
            self.paths.len() as f64 / total_requests as f64
        }
    }

    /// Returns `true` when every pair of particles — routed *and* stranded
    /// — respects the separation rule at every step: the correctness
    /// invariant of the planner.
    ///
    /// Runs the router's dense occupancy scan over the bounding box of all
    /// positions: step 0 in full, then each later step only for the
    /// particles that moved into it, found by one pass over each path that
    /// buckets its moves by step. Validating a full-array outcome with
    /// thousands of paths therefore costs about one pass over the paths
    /// plus one zone probe per move, instead of `O(paths² · makespan)`. An outcome spread over more than
    /// 2²⁴ cells — no planner produces one on a real chip — is compared
    /// pairwise instead of allocating the scan grid.
    pub fn is_conflict_free(&self, min_separation: u32) -> bool {
        if min_separation == 0 {
            return true;
        }
        let all: Vec<&ParticlePath> = self.paths.iter().chain(self.stranded.iter()).collect();
        let horizon = all
            .iter()
            .map(|path| path.arrival_step())
            .max()
            .unwrap_or(0)
            .max(1);
        let Some((lo, hi)) =
            bounding_box(all.iter().flat_map(|path| path.positions.iter().copied()))
        else {
            return true;
        };
        if !dense_scan_fits(lo, hi) {
            return pairwise_conflict_free(&all, horizon, min_separation);
        }
        with_arena(|Arena { scan, .. }| {
            scan.stays_clear(
                (lo, hi),
                horizon,
                all.len(),
                |i| &all[i].positions,
                min_separation,
            )
        })
    }
}

/// Largest bounding box, in cells, that [`RoutingOutcome::is_conflict_free`]
/// and [`RoutingProblem::validate`] scan densely (two `u32`s per cell:
/// 128 MiB, a 4096² chip).
const MAX_DENSE_SCAN_CELLS: u64 = 1 << 24;

/// Whether the inclusive box `[lo, hi]` is small enough to scan densely.
fn dense_scan_fits(lo: GridCoord, hi: GridCoord) -> bool {
    (u64::from(hi.x - lo.x) + 1) * (u64::from(hi.y - lo.y) + 1) <= MAX_DENSE_SCAN_CELLS
}

/// The inclusive bounding box of `cells`; `None` when there are none.
fn bounding_box(mut cells: impl Iterator<Item = GridCoord>) -> Option<(GridCoord, GridCoord)> {
    let first = cells.next()?;
    Some(cells.fold((first, first), |(lo, hi), c| {
        (
            GridCoord::new(lo.x.min(c.x), lo.y.min(c.y)),
            GridCoord::new(hi.x.max(c.x), hi.y.max(c.y)),
        )
    }))
}

/// The brute-force form of [`RoutingOutcome::is_conflict_free`]: every pair
/// of paths, at every step `0..=horizon`.
fn pairwise_conflict_free(paths: &[&ParticlePath], horizon: usize, min_separation: u32) -> bool {
    (0..=horizon).all(|t| {
        paths.iter().enumerate().all(|(i, a)| {
            paths[i + 1..]
                .iter()
                .all(|b| a.position_at(t).chebyshev(b.position_at(t)) >= min_separation)
        })
    })
}

/// Multi-particle router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Router {
    /// Strategy to use.
    pub strategy: RoutingStrategy,
}

impl Router {
    /// Creates a router using the given strategy.
    pub fn new(strategy: RoutingStrategy) -> Self {
        Self { strategy }
    }

    /// Solves a routing problem.
    ///
    /// # Errors
    ///
    /// Returns the validation error of an ill-formed problem; an unsolvable
    /// but well-formed problem is reported through
    /// [`RoutingOutcome::unrouted`] instead.
    pub fn solve(&self, problem: &RoutingProblem) -> Result<RoutingOutcome, ManipulationError> {
        problem.validate()?;
        let outcome = match self.strategy {
            RoutingStrategy::PrioritizedAStar => prioritized_astar(problem),
            RoutingStrategy::Greedy => greedy(problem),
            RoutingStrategy::Incremental => {
                return crate::sharding::IncrementalRouter::default().solve(problem)
            }
        };
        Ok(outcome)
    }
}

fn finalize(
    paths: Vec<ParticlePath>,
    unrouted: Vec<ParticleId>,
    stranded: Vec<ParticlePath>,
) -> RoutingOutcome {
    let makespan = paths.iter().map(|p| p.arrival_step()).max().unwrap_or(0);
    let total_moves = paths
        .iter()
        .chain(stranded.iter())
        .map(|p| p.move_count())
        .sum();
    RoutingOutcome {
        paths,
        unrouted,
        stranded,
        makespan,
        total_moves,
    }
}

// ---------------------------------------------------------------------------
// Prioritized space-time A*
// ---------------------------------------------------------------------------

/// Attempts to plan every pending request in priority order against the
/// reservations of the already-routed paths (the arena's whole-grid
/// `reservations`), and reserves each new path;
/// when `treat_pending_as_static` is set, the starts of the *other*
/// still-pending particles are treated as permanent obstacles
/// (conservative), otherwise they are ignored (optimistic). Returns the
/// requests that remain unplanned.
fn plan_round<'a>(
    problem: &RoutingProblem,
    paths: &mut Vec<ParticlePath>,
    arena: &mut Arena,
    pending: Vec<&'a RoutingRequest>,
    treat_pending_as_static: bool,
) -> Vec<&'a RoutingRequest> {
    let sep = problem.min_separation;
    let mut queue = pending;
    queue.sort_by_key(|r| Reverse(r.start.manhattan(r.goal)));

    // Particles of this round that have not been planned yet sit parked at
    // their starts, in the arena's zone counter. Each one's own zone is
    // lifted while it plans, and stays lifted once it has a path; ids are
    // unique, so that is exactly the zone of every *other* parked particle.
    let (lo, hi) = grid_box(problem.dims);
    arena.parked.begin(lo, hi);
    let parked = if treat_pending_as_static {
        &queue[..]
    } else {
        &[]
    };
    for request in parked {
        arena.parked.add(request.start, sep);
    }

    let mut remaining: Vec<&RoutingRequest> = Vec::new();
    for request in queue {
        if treat_pending_as_static {
            arena.parked.remove(request.start, sep);
        }
        match space_time_astar(problem, request, arena) {
            Some(path) => {
                arena.reservations.add_path(&path.positions);
                paths.push(path);
            }
            None => {
                if treat_pending_as_static {
                    arena.parked.add(request.start, sep);
                }
                remaining.push(request);
            }
        }
    }
    remaining
}

/// Demotes routed (moving) paths that pass too close to a particle that is
/// still parked at its start, returning the demoted requests to the pending
/// pool so the plan stays physically executable. Returns whether any path
/// was demoted.
fn repair_demote<'a>(
    problem: &'a RoutingProblem,
    paths: &mut Vec<ParticlePath>,
    parked: &mut DenseZone,
    pending: &mut Vec<&'a RoutingRequest>,
) -> bool {
    let (lo, hi) = grid_box(problem.dims);
    let mut any = false;
    loop {
        parked.begin(lo, hi);
        for request in pending.iter() {
            parked.add(request.start, problem.min_separation);
        }
        // A path ends within the horizon, so it passes too close to a
        // parked particle at some step exactly when one of its cells lies
        // in that particle's zone.
        let mut demoted = Vec::new();
        paths.retain(|path| {
            let conflicts =
                path.positions.len() > 1 && path.positions.iter().any(|&c| parked.blocked(c));
            if conflicts {
                demoted.push(path.id);
            }
            !conflicts
        });
        if demoted.is_empty() {
            return any;
        }
        any = true;
        for id in demoted {
            let request = problem
                .requests
                .iter()
                .find(|r| r.id == id)
                .expect("demoted ids come from the request list");
            pending.push(request);
        }
    }
}

fn prioritized_astar(problem: &RoutingProblem) -> RoutingOutcome {
    // Stationary requests (start == goal) are hard obstacles: they are
    // trivially "routed" and reserved in every round.
    let (stationary, moving): (Vec<&RoutingRequest>, Vec<&RoutingRequest>) =
        problem.requests.iter().partition(|r| r.start == r.goal);

    let mut paths: Vec<ParticlePath> = stationary
        .iter()
        .map(|request| ParticlePath {
            id: request.id,
            positions: vec![request.start],
        })
        .collect();

    // Conservative "peeling" rounds: plan whoever can reach their goal while
    // treating the rest as parked; every round the planned paths vacate space
    // for the next layer. When a round makes no progress, fall back to one
    // optimistic round (needed for mutual exchanges) followed by a repair
    // pass, and keep going while something improves. The reservations span
    // steps `0..=max_steps + 1`, one past the last step A* reaches, and
    // carry over from round to round; the table cannot drop a path, so it
    // is rebuilt only after a repair demoted one.
    const MAX_ROUNDS: usize = 16;
    let pending = with_arena(|arena| {
        let (lo, hi) = grid_box(problem.dims);
        let mut pending = moving;
        let mut stale = true;
        for _ in 0..MAX_ROUNDS {
            if pending.is_empty() {
                break;
            }
            if stale {
                let (window, sep) = (problem.max_steps + 1, problem.min_separation);
                arena.reservations.begin(window, sep, lo, hi);
                for path in &paths {
                    arena.reservations.add_path(&path.positions);
                }
                stale = false;
            }
            let before = pending.len();
            pending = plan_round(problem, &mut paths, arena, pending, true);
            if pending.len() < before {
                continue;
            }
            // Stuck: optimistic round + repair.
            pending = plan_round(problem, &mut paths, arena, pending, false);
            stale = repair_demote(problem, &mut paths, &mut arena.parked, &mut pending);
            if pending.len() >= before {
                break;
            }
        }
        pending
    });

    let unrouted: Vec<ParticleId> = {
        let mut ids: Vec<ParticleId> = pending.iter().map(|r| r.id).collect();
        ids.sort();
        ids
    };
    paths.sort_by_key(|p| p.id);
    // Pending requests were never planned: they stay parked at their starts,
    // so there are no stranded trajectories to report.
    finalize(paths, unrouted, Vec::new())
}

/// Node-expansion budget of one [`space_time_astar`] search, per step of
/// horizon. Uncongested searches stay far below it; a search that exhausts
/// the budget reports failure (the request lands in
/// [`RoutingOutcome::unrouted`]) instead of stalling the whole plan — at
/// thousands of particles an unbounded search in a congested region can
/// otherwise take minutes for one particle.
const ASTAR_EXPANSIONS_PER_STEP: usize = 96;

/// Plans `request` against the reservations and the parked zones, or
/// `None` when the goal is blocked or the search runs out of horizon or
/// budget.
///
/// Every state's cost is its step (`g == t`), so a state is pushed at most
/// once, the first time it is reached, and `parent` is the visited set.
/// The heap pops states in ascending `(f, t, x, y)` order: `GridCoord`
/// orders by `(x, y)`.
fn space_time_astar(
    problem: &RoutingProblem,
    request: &RoutingRequest,
    arena: &Arena,
) -> Option<ParticlePath> {
    let horizon = problem.max_steps;
    let expansion_cap = horizon.saturating_mul(ASTAR_EXPANSIONS_PER_STEP);
    let (start, goal) = (request.start, request.goal);
    if arena.parked.blocked(goal) {
        return None;
    }

    let heuristic = |c: GridCoord| c.manhattan(goal) as usize;
    let mut open = BinaryHeap::from([Reverse((heuristic(start), 0, start))]);
    // The cell each state at step `t ≥ 1` was reached from at `t - 1`.
    let mut parent: HashMap<(GridCoord, usize), GridCoord> = HashMap::new();

    let mut expansions = 0usize;
    while let Some(Reverse((_, t, coord))) = open.pop() {
        expansions += 1;
        if expansions > expansion_cap {
            return None;
        }
        if coord == goal && arena.reservations.is_free_from(goal, t) {
            let mut positions = vec![coord];
            for step in (1..=t).rev() {
                positions.push(parent[&(positions[positions.len() - 1], step)]);
            }
            positions.reverse();
            return Some(ParticlePath {
                id: request.id,
                positions,
            });
        }
        if t >= horizon {
            continue;
        }
        for (dx, dy) in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)] {
            let Some(next) = coord.offset(dx, dy) else {
                continue;
            };
            if !problem.dims.contains(next)
                || !arena.reservations.is_free(next, t + 1)
                || arena.parked.blocked(next)
            {
                continue;
            }
            if let Entry::Vacant(slot) = parent.entry((next, t + 1)) {
                slot.insert(coord);
                open.push(Reverse((t + 1 + heuristic(next), t + 1, next)));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Greedy baseline
// ---------------------------------------------------------------------------

fn greedy(problem: &RoutingProblem) -> RoutingOutcome {
    let sep = problem.min_separation;
    let mut positions: Vec<GridCoord> = problem.requests.iter().map(|r| r.start).collect();
    let mut histories: Vec<Vec<GridCoord>> = positions.iter().map(|p| vec![*p]).collect();

    for _ in 0..problem.max_steps {
        let mut any_moved = false;
        for i in 0..positions.len() {
            let goal = problem.requests[i].goal;
            let current = positions[i];
            if current == goal {
                continue;
            }
            // Candidate neighbours sorted by resulting distance to goal.
            let mut candidates: Vec<GridCoord> = [(1, 0), (-1, 0), (0, 1), (0, -1)]
                .iter()
                .filter_map(|(dx, dy)| current.offset(*dx, *dy))
                .filter(|c| problem.dims.contains(*c))
                .filter(|c| c.manhattan(goal) < current.manhattan(goal))
                .collect();
            candidates.sort_by_key(|c| c.manhattan(goal));
            let chosen = candidates.into_iter().find(|candidate| {
                positions
                    .iter()
                    .enumerate()
                    .all(|(j, other)| j == i || other.chebyshev(*candidate) >= sep)
            });
            if let Some(next) = chosen {
                positions[i] = next;
                any_moved = true;
            }
        }
        for (i, p) in positions.iter().enumerate() {
            histories[i].push(*p);
        }
        let all_arrived = positions
            .iter()
            .zip(problem.requests.iter())
            .all(|(p, r)| *p == r.goal);
        if all_arrived || !any_moved {
            break;
        }
    }

    let mut paths = Vec::new();
    let mut unrouted = Vec::new();
    let mut stranded = Vec::new();
    for (i, request) in problem.requests.iter().enumerate() {
        let path = ParticlePath {
            id: request.id,
            positions: histories[i].clone(),
        };
        if positions[i] == request.goal {
            paths.push(path);
        } else {
            unrouted.push(request.id);
            stranded.push(path);
        }
    }
    paths.sort_by_key(|p| p.id);
    stranded.sort_by_key(|p| p.id);
    finalize(paths, unrouted, stranded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64, start: (u32, u32), goal: (u32, u32)) -> RoutingRequest {
        RoutingRequest {
            id: ParticleId(id),
            start: GridCoord::new(start.0, start.1),
            goal: GridCoord::new(goal.0, goal.1),
        }
    }

    #[test]
    fn single_particle_takes_shortest_path() {
        let problem = RoutingProblem::new(GridDims::square(16), vec![request(1, (1, 1), (9, 5))]);
        let outcome = Router::new(RoutingStrategy::PrioritizedAStar)
            .solve(&problem)
            .unwrap();
        assert!(outcome.unrouted.is_empty());
        assert_eq!(outcome.paths.len(), 1);
        // Manhattan distance is 12: the path should take exactly 12 moves.
        assert_eq!(outcome.paths[0].move_count(), 12);
        assert_eq!(outcome.makespan, 12);
        assert!(outcome.is_conflict_free(problem.min_separation));
    }

    #[test]
    fn crossing_particles_avoid_each_other() {
        // Two particles swapping sides of the array must not let their cages
        // merge at any step.
        let problem = RoutingProblem::new(
            GridDims::square(16),
            vec![request(1, (1, 8), (14, 8)), request(2, (14, 8), (1, 8))],
        );
        let outcome = Router::new(RoutingStrategy::PrioritizedAStar)
            .solve(&problem)
            .unwrap();
        assert!(
            outcome.unrouted.is_empty(),
            "unrouted: {:?}",
            outcome.unrouted
        );
        assert!(outcome.is_conflict_free(problem.min_separation));
        // Someone had to detour: total moves exceed the sum of Manhattan
        // distances? (Not necessarily, but makespan is at least the distance.)
        assert!(outcome.makespan >= 13);
    }

    #[test]
    fn many_particles_route_conflict_free() {
        // A column of particles all moving to the opposite side.
        let mut requests = Vec::new();
        for (i, y) in (1..14).step_by(3).enumerate() {
            requests.push(request(i as u64, (1, y), (14, y)));
        }
        let problem = RoutingProblem::new(GridDims::square(16), requests.clone());
        let outcome = Router::new(RoutingStrategy::PrioritizedAStar)
            .solve(&problem)
            .unwrap();
        assert_eq!(outcome.paths.len(), requests.len());
        assert!(outcome.is_conflict_free(problem.min_separation));
        assert_eq!(outcome.success_rate(requests.len()), 1.0);
        assert!(outcome.total_moves >= requests.len() * 13);
    }

    #[test]
    fn astar_beats_greedy_in_a_congested_corridor() {
        // Head-on traffic in a narrow strip: greedy livelocks, A* resolves it.
        let dims = GridDims::new(20, 5);
        let requests = vec![
            request(1, (1, 2), (18, 2)),
            request(2, (18, 2), (1, 2)),
            request(3, (1, 0), (18, 0)),
            request(4, (18, 4), (1, 4)),
        ];
        let problem = RoutingProblem::new(dims, requests.clone());
        let astar = Router::new(RoutingStrategy::PrioritizedAStar)
            .solve(&problem)
            .unwrap();
        let greedy = Router::new(RoutingStrategy::Greedy)
            .solve(&problem)
            .unwrap();
        assert!(astar.paths.len() >= greedy.paths.len());
        assert!(
            astar.paths.len() >= 3,
            "A* routed only {}",
            astar.paths.len()
        );
        assert!(astar.is_conflict_free(problem.min_separation));
    }

    #[test]
    fn greedy_handles_disjoint_traffic() {
        let problem = RoutingProblem::new(
            GridDims::square(16),
            vec![request(1, (1, 1), (10, 1)), request(2, (1, 8), (10, 8))],
        );
        let outcome = Router::new(RoutingStrategy::Greedy)
            .solve(&problem)
            .unwrap();
        assert!(outcome.unrouted.is_empty());
        assert!(outcome.is_conflict_free(problem.min_separation));
        assert_eq!(outcome.total_moves, 18);
    }

    #[test]
    fn invalid_problems_are_rejected() {
        // Goal outside the grid.
        let p = RoutingProblem::new(GridDims::square(8), vec![request(1, (0, 0), (9, 0))]);
        assert!(Router::default().solve(&p).is_err());
        // Starts too close together.
        let p = RoutingProblem::new(
            GridDims::square(8),
            vec![request(1, (1, 1), (6, 6)), request(2, (2, 1), (6, 1))],
        );
        assert!(Router::default().solve(&p).is_err());
        // One particle requested twice, well-formed otherwise: repair would
        // re-queue the first request with the demoted id.
        let p = RoutingProblem::new(
            GridDims::square(8),
            vec![request(1, (1, 1), (6, 1)), request(1, (1, 5), (6, 5))],
        );
        assert_eq!(
            Router::default().solve(&p),
            Err(ManipulationError::DuplicateParticle { id: 1 })
        );
    }

    #[test]
    fn unreachable_goal_is_reported_not_fatal() {
        // The goal sits inside the separation zone of another particle's
        // goal... instead use a horizon too short to reach the goal.
        let mut problem =
            RoutingProblem::new(GridDims::square(16), vec![request(1, (0, 0), (15, 15))]);
        problem.max_steps = 5;
        let outcome = Router::default().solve(&problem).unwrap();
        assert_eq!(outcome.paths.len(), 0);
        assert_eq!(outcome.unrouted, vec![ParticleId(1)]);
        assert_eq!(outcome.success_rate(1), 0.0);
    }

    #[test]
    fn zero_request_problems_are_trivially_solved() {
        let problem = RoutingProblem::new(GridDims::square(16), Vec::new());
        for strategy in [
            RoutingStrategy::PrioritizedAStar,
            RoutingStrategy::Greedy,
            RoutingStrategy::Incremental,
        ] {
            let outcome = Router::new(strategy).solve(&problem).unwrap();
            assert!(outcome.paths.is_empty());
            assert!(outcome.unrouted.is_empty());
            assert_eq!(outcome.makespan, 0);
            assert_eq!(outcome.total_moves, 0);
            assert_eq!(outcome.success_rate(0), 1.0);
            assert!(outcome.is_conflict_free(problem.min_separation));
        }
    }

    #[test]
    fn wide_separation_conflicts_are_detected_and_respected() {
        // An outcome whose paths pass at Chebyshev 2 is fine for the default
        // separation but a conflict at min_separation = 3.
        let outcome = RoutingOutcome {
            paths: vec![
                ParticlePath {
                    id: ParticleId(1),
                    positions: vec![GridCoord::new(4, 4), GridCoord::new(5, 4)],
                },
                ParticlePath {
                    id: ParticleId(2),
                    positions: vec![GridCoord::new(8, 4), GridCoord::new(7, 4)],
                },
            ],
            unrouted: vec![],
            stranded: vec![],
            makespan: 1,
            total_moves: 2,
        };
        assert!(outcome.is_conflict_free(2));
        assert!(!outcome.is_conflict_free(3));

        // And a solver told to keep cages 3 apart produces a plan that
        // passes the stricter check.
        let mut problem = RoutingProblem::new(
            GridDims::square(16),
            vec![request(1, (1, 4), (13, 4)), request(2, (1, 10), (13, 10))],
        );
        problem.min_separation = 3;
        for strategy in [
            RoutingStrategy::PrioritizedAStar,
            RoutingStrategy::Incremental,
        ] {
            let solved = Router::new(strategy).solve(&problem).unwrap();
            assert_eq!(solved.paths.len(), 2, "{strategy:?}");
            assert!(solved.is_conflict_free(3), "{strategy:?}");
        }
    }

    #[test]
    fn same_cage_occupancy_is_a_conflict() {
        let outcome = RoutingOutcome {
            paths: vec![
                ParticlePath {
                    id: ParticleId(1),
                    positions: vec![GridCoord::new(4, 4)],
                },
                ParticlePath {
                    id: ParticleId(2),
                    positions: vec![GridCoord::new(4, 4)],
                },
            ],
            unrouted: vec![],
            stranded: vec![],
            makespan: 0,
            total_moves: 0,
        };
        assert!(!outcome.is_conflict_free(1));
        assert!(
            outcome.is_conflict_free(0),
            "separation 0 disables the rule"
        );
    }

    fn outcome(paths: Vec<Vec<(u32, u32)>>) -> RoutingOutcome {
        let paths = paths
            .into_iter()
            .enumerate()
            .map(|(i, cells)| ParticlePath {
                id: ParticleId(i as u64),
                positions: cells
                    .into_iter()
                    .map(|(x, y)| GridCoord::new(x, y))
                    .collect(),
            })
            .collect();
        finalize(paths, Vec::new(), Vec::new())
    }

    #[test]
    fn outcomes_spread_beyond_the_dense_scan_are_checked_pairwise() {
        let far = u32::MAX - 1;
        let spread = outcome(vec![vec![(0, 0), (1, 0)], vec![(far, far)], vec![(3, 0)]]);
        assert!(spread.is_conflict_free(2));
        assert!(
            !spread.is_conflict_free(3),
            "(1, 0) and (3, 0) meet at step 1"
        );
        let clash = outcome(vec![
            vec![(far, 0)],
            vec![(far - 1, 5), (far - 1, 1)],
            vec![(0, far)],
        ]);
        assert!(clash.is_conflict_free(1));
        assert!(!clash.is_conflict_free(2));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The dense scan agrees with the pairwise check on crowded
        /// outcomes: shared cages, near misses at every separation,
        /// conflicts at step 0 and paths of unequal length.
        #[test]
        fn dense_conflict_check_matches_pairwise(
            sep in 1u32..5,
            spacing_slack in 0u32..3,
            walks in proptest::collection::vec((0u32..4, 0u32..3, 1usize..12, 0u64..u64::MAX), 0..7),
            stranded_from in 0usize..7,
        ) {
            // Starts on a row whose spacing sits just below, at, or just
            // above the separation; walks that mostly wait then drift.
            let spacing = sep - 1 + spacing_slack;
            let mut paths: Vec<ParticlePath> = walks
                .iter()
                .enumerate()
                .map(|(i, &(dx, y, len, mut bits))| {
                    let mut c = GridCoord::new(2 + i as u32 * spacing + dx % 2, 2 + y);
                    let mut positions = vec![c];
                    for _ in 1..len {
                        let step = [(0, 0), (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
                            [(bits % 6) as usize];
                        bits /= 6;
                        c = c.offset(step.0, step.1).unwrap_or(c);
                        positions.push(c);
                    }
                    ParticlePath { id: ParticleId(i as u64), positions }
                })
                .collect();
            let stranded = paths.split_off(stranded_from.min(paths.len()));
            let outcome = finalize(paths, Vec::new(), stranded);
            let all: Vec<&ParticlePath> = outcome.paths.iter().chain(&outcome.stranded).collect();
            let horizon = all.iter().map(|p| p.arrival_step()).max().unwrap_or(0).max(1);
            proptest::prop_assert_eq!(
                outcome.is_conflict_free(sep),
                pairwise_conflict_free(&all, horizon, sep),
                "{:?}",
                all
            );
        }

        /// The dense `validate` returns exactly the pairwise reference's
        /// result, first error included: crowded requests with shared
        /// cells, near misses at every separation, and out-of-bounds
        /// coordinates and repeated ids mixed in.
        #[test]
        fn dense_validate_matches_pairwise(
            sep in 0u32..5,
            spacing_slack in 0u32..3,
            sites in proptest::collection::vec((0u32..3, 0u32..3, 0u32..3, 0u32..3, 0u8..12), 0..9),
        ) {
            // Starts along one row and goals along another, both spaced just
            // below, at or just above the separation and jittered by up to
            // two cells; goals run in reverse order. A few coordinates land
            // past the grid edge, and a few requests repeat the previous id.
            let dims = GridDims::new(40, 12);
            let spacing = sep.saturating_sub(1) + spacing_slack;
            let n = sites.len() as u32;
            let requests = sites
                .iter()
                .enumerate()
                .map(|(i, &(sx, sy, gx, gy, flag))| {
                    let i = i as u32;
                    let mut start = GridCoord::new(1 + i * spacing + sx, 1 + sy);
                    let mut goal = GridCoord::new(1 + (n - 1 - i) * spacing + gx, 6 + gy);
                    let mut id = u64::from(i);
                    match flag {
                        0 => start.x += dims.cols,
                        1 => goal.y += dims.rows,
                        2 => id = id.saturating_sub(1),
                        _ => {}
                    }
                    RoutingRequest { id: ParticleId(id), start, goal }
                })
                .collect();
            let mut problem = RoutingProblem::new(dims, requests);
            problem.min_separation = sep;
            proptest::prop_assert_eq!(problem.validate(), problem.validate_pairwise());
        }
    }

    #[test]
    fn density_sweep_greedy_livelocks_within_bounded_steps_astar_succeeds() {
        // Head-on traffic at increasing density: the greedy baseline must
        // terminate (bounded by max_steps, i.e. no unbounded livelock) but
        // fail some particles, while prioritized A* routes everyone.
        let dims = GridDims::new(24, 11);
        for pairs in [2u32, 3, 4] {
            let mut requests = Vec::new();
            for k in 0..pairs {
                let y = 1 + 3 * k;
                requests.push(request(u64::from(2 * k), (1, y), (22, y)));
                requests.push(request(u64::from(2 * k + 1), (22, y), (1, y)));
            }
            let problem = RoutingProblem::new(dims, requests.clone());

            let greedy = Router::new(RoutingStrategy::Greedy)
                .solve(&problem)
                .unwrap();
            // Livelock is *detected*: the planner returns (it does not spin
            // past the horizon) and reports who is stuck.
            assert!(greedy.makespan <= problem.max_steps);
            assert!(
                !greedy.unrouted.is_empty(),
                "greedy should livelock on head-on traffic at {pairs} pairs"
            );

            let astar = Router::new(RoutingStrategy::PrioritizedAStar)
                .solve(&problem)
                .unwrap();
            assert!(
                astar.unrouted.is_empty(),
                "A* failed {:?} at {pairs} pairs",
                astar.unrouted
            );
            assert!(astar.is_conflict_free(problem.min_separation));
        }
    }

    #[test]
    fn path_accessors_are_consistent() {
        let problem = RoutingProblem::new(GridDims::square(16), vec![request(7, (2, 2), (5, 2))]);
        let outcome = Router::default().solve(&problem).unwrap();
        let path = &outcome.paths[0];
        assert_eq!(path.id, ParticleId(7));
        assert_eq!(path.position_at(0), GridCoord::new(2, 2));
        assert_eq!(path.position_at(100), GridCoord::new(5, 2));
        assert_eq!(path.arrival_step(), 3);
        assert_eq!(path.move_count(), 3);
    }

    #[test]
    fn arrival_step_is_the_first_step_of_the_final_stay() {
        let (a, b) = (GridCoord::new(1, 1), GridCoord::new(2, 1));
        for (positions, arrival) in [
            (vec![a], 0),
            (vec![a, b], 1),
            (vec![a, b, a], 2),
            (vec![a, b, b, b], 1),
            (vec![a, a, b], 2),
        ] {
            let path = ParticlePath {
                id: ParticleId(0),
                positions,
            };
            assert_eq!(path.arrival_step(), arrival, "{:?}", path.positions);
        }
    }
}
