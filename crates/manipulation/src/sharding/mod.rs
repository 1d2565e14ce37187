//! Incremental, sharded space–time routing for full-array workloads.
//!
//! The global planner in [`crate::routing`] plans every particle against one
//! monolithic reservation table spanning the whole array and the whole
//! horizon. That is exact, but at the paper's scale — thousands of DEP cages
//! moving concurrently on a 320×320 array — a single A\* pass over a
//! `(cells × steps)` state space is both slow and needlessly serial. The
//! [`IncrementalRouter`] plans *incrementally* instead:
//!
//! * **Windows** — motion is planned `window` steps at a time; each window
//!   starts from the executed positions of the previous one, so the plan
//!   adapts as traffic develops instead of committing to a full-horizon
//!   schedule up front.
//! * **Shards** — within a window the grid is partitioned into
//!   `shard_side`-sized tiles and every shard plans its own particles with a
//!   bounded space–time A\*, in parallel across shards (rayon). Mobile
//!   particles are confined to their tile's *interior*: a margin of
//!   `min_separation / 2` cells along every internal tile boundary is
//!   off-limits, which makes two mobile particles in different shards
//!   provably unable to violate the separation rule — no cross-shard
//!   communication is needed during planning.
//! * **Cross-shard handoff** — particles cross tile boundaries because the
//!   partition is *staggered*: successive windows cycle the partition offset
//!   through four phases (`(0,0)`, `(s/2,0)`, `(0,s/2)`, `(s/2,s/2)`), so
//!   every cell is interior in at least one phase and traffic ratchets
//!   between tiles window by window.
//! * **Parked fast path** — a particle already on its goal whose cell is
//!   free for the whole window stays put without a search: that is the
//!   path A\* would return, and its parked zone keeps blocking what its
//!   reservation would have (see the tile loop of `plan`).
//! * **Re-planning on conflict** — after the per-shard plans are merged the
//!   window is verified with a dense occupancy scan that re-checks only
//!   the particles that moved after step 0; a window failing it is scanned
//!   step by step for the violating pairs (none are expected by
//!   construction, but frozen corner cases are cheap to guard), and one
//!   particle of each pair is demoted to wait-in-place and then re-planned
//!   serially against the merged reservation table.
//! * **Warm starts** — every solve memoizes each shard's window plan in a
//!   [`RouterCache`] keyed by a content hash of everything the shard
//!   planner reads, and replays a hit instead of searching. Because the
//!   key covers the planner's *entire* input, a hit is bit-identical to a
//!   recompute by construction. [`IncrementalRouter::solve`] plans on a
//!   fresh cache: stranded particles keep a solve running to its horizon
//!   while most tiles see the same input again, so many tile searches of
//!   one cold solve are skipped. [`IncrementalRouter::solve_cached`] plans
//!   on a cache the caller keeps, so re-solving an unchanged (or mostly
//!   unchanged) problem also hits the windows of the solve before.
//! * **Periodic tail** — behind stranded particles the window-start
//!   positions of a solve often become exactly periodic. Once window `w`
//!   starts where window `w − P` did (`P` a multiple of the four stagger
//!   phases; nominated by hash, confirmed by value `P` windows later),
//!   the solve repeats the recorded period instead of planning it
//!   (`tail`). A window's trajectories depend only on its start positions,
//!   the goals and its phase, so the repeat is exact.
//!
//! The hot loops are struct-of-arrays throughout (`astar_soa`): flat
//! epoch-stamped arrays for reservations, zones, conflict scans and A\*
//! scratch, held in one arena per thread instead of being allocated per
//! shard inside the rayon closure. The A\* pops from exact-order `(f, t)` buckets, and a tile's
//! searches read one tile-local blocked mask: its members' zones and those
//! of the frozen particles that reach into it.
//!
//! The outcome is deterministic — per-shard plans depend only on the
//! window-start state and are merged in shard order — so results are
//! bit-identical for any thread count, and identical between cold and
//! cached solves.

mod astar_soa;
mod cache;
mod codec;
mod partition;
mod tail;
mod verify;

pub use cache::{CacheStats, RouterCache};

use crate::cage::ParticleId;
use crate::error::ManipulationError;
use crate::routing::{ParticlePath, RoutingOutcome, RoutingProblem};
use astar_soa::{position_at, window_astar};
pub(crate) use astar_soa::{with_arena, Arena, DenseZone};
use cache::shard_key;
use labchip_units::GridCoord;
use partition::{stagger_phases, Partition, TileMembership};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use tail::{positions_hash, PeriodicTail};
pub(crate) use verify::grid_box;
use verify::verify_and_repair;

/// Sharding and windowing knobs of the [`IncrementalRouter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Tile edge length in electrodes (clamped so a tile interior exists).
    pub shard_side: u32,
    /// Cage steps planned per window.
    pub window: u32,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shard_side: 32,
            window: 8,
        }
    }
}

/// The router gives up after this many consecutive windows with no
/// movement: one per stagger phase, so every phase gets a chance.
const MAX_STAGNANT_WINDOWS: u32 = 4;

/// Bounded node expansions per windowed A\* call; searches that exhaust the
/// cap settle for the best stopping cell found so far.
const EXPANSION_CAP: usize = 2048;

/// Exact counts of what one solve did (see
/// [`IncrementalRouter::solve_with_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Windows the solve ran.
    pub windows: usize,
    /// Windows of the periodic tail: their trajectories repeat a recorded
    /// window instead of being planned.
    pub windows_repeated: usize,
    /// Tiles the solve's [`RouterCache`] served instead of searching.
    pub tiles_replayed: usize,
}

/// One tile of a planning window: its paths, one per member in order, and
/// whether the window's parallel pass is to plan them.
struct TileSlot {
    paths: Vec<Vec<GridCoord>>,
    /// The content key of the tile's planning input (0 when not keyed).
    key: u128,
    /// Whether the pass must plan the tile: it has mobile members and no
    /// cache entry served them.
    needs_plan: bool,
}

/// The incremental sharded space–time router.
///
/// Produces a [`RoutingOutcome`] with the same contract as
/// [`crate::routing::Router::solve`]: conflict-free paths for the particles
/// it routed, the rest reported in `unrouted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IncrementalRouter {
    /// Sharding and windowing parameters.
    pub shards: ShardConfig,
}

impl IncrementalRouter {
    /// Creates a router with the given shard configuration.
    pub fn new(shards: ShardConfig) -> Self {
        Self { shards }
    }

    /// The tile edge length actually used for a problem with the given
    /// separation: the configured `shard_side`, clamped so a tile interior
    /// exists, there is room for the half-tile stagger, and the staggered
    /// margin strips of successive phases leave an overlap corridor for the
    /// cross-shard handoff.
    pub fn effective_side(&self, min_separation: u32) -> u32 {
        let margin = min_separation.max(1) / 2;
        self.shards.shard_side.max(4 * margin + 2).max(4)
    }

    /// Solves a routing problem incrementally, from a cold start: the
    /// cached planner on a fresh [`RouterCache`], dropped at the end.
    ///
    /// # Errors
    ///
    /// Returns the validation error of an ill-formed problem; an unsolvable
    /// but well-formed problem is reported through
    /// [`RoutingOutcome::unrouted`] instead.
    pub fn solve(&self, problem: &RoutingProblem) -> Result<RoutingOutcome, ManipulationError> {
        self.solve_with_stats(problem).map(|(outcome, _)| outcome)
    }

    /// Solves a routing problem, reading and populating `cache` so that
    /// repeated or overlapping solves replay unchanged shards instead of
    /// re-searching them. The outcome is bit-identical to [`Self::solve`]
    /// regardless of the cache's contents.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::solve`].
    pub fn solve_cached(
        &self,
        problem: &RoutingProblem,
        cache: &mut RouterCache,
    ) -> Result<RoutingOutcome, ManipulationError> {
        problem.validate()?;
        Ok(self.plan::<true>(problem, cache).0)
    }

    /// [`Self::solve`], also returning the [`SolveStats`] of the solve.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::solve`].
    pub fn solve_with_stats(
        &self,
        problem: &RoutingProblem,
    ) -> Result<(RoutingOutcome, SolveStats), ManipulationError> {
        problem.validate()?;
        Ok(self.plan::<true>(problem, &mut RouterCache::new()))
    }

    /// Benchmark probe for the per-window partition build: classifies
    /// `positions` against a fresh staggered partition (margin
    /// freezing included) and builds the structure-of-arrays tile
    /// membership exactly as one planning window does. Returns
    /// `(occupied_tiles, mobile_particles)` so the work is observable.
    pub fn partition_build_probe(
        &self,
        dims: labchip_units::GridDims,
        min_separation: u32,
        positions: &[GridCoord],
    ) -> (usize, usize) {
        let sep = min_separation.max(1);
        let margin = sep / 2;
        let side = self.effective_side(min_separation);
        let part = Partition::new(dims, side, 0, 0);
        let frozen: Vec<bool> = positions
            .iter()
            .map(|pos| part.in_margin(*pos, margin))
            .collect();
        let mut membership = TileMembership::build(&part, positions, &frozen);
        membership.sort_each_tile_by_key(|i| i);
        let mobile = frozen.iter().filter(|f| !**f).count();
        (membership.occupied_tiles(), mobile)
    }

    /// The planner behind [`Self::solve`] and [`Self::solve_cached`].
    /// `SHORTCUTS` enables the parked fast path of the tile loop, the
    /// periodic tail and the `cache` lookups and inserts; tests turn it off
    /// to compare against calling A\* for every particle in every window.
    fn plan<const SHORTCUTS: bool>(
        &self,
        problem: &RoutingProblem,
        cache: &mut RouterCache,
    ) -> (RoutingOutcome, SolveStats) {
        let n = problem.requests.len();
        let sep = problem.min_separation.max(1);
        let margin = sep / 2;
        let side = self.effective_side(problem.min_separation);
        let window = self.shards.window.max(1) as usize;
        let phases = stagger_phases(side);
        // The parked fast path needs window starts at least `sep` apart,
        // which a validated problem guarantees only for a separation ≥ 1.
        let fast_park = SHORTCUTS && problem.min_separation > 0;

        let goals: Vec<GridCoord> = problem.requests.iter().map(|r| r.goal).collect();
        let mut positions: Vec<GridCoord> = problem.requests.iter().map(|r| r.start).collect();
        let mut histories: Vec<Vec<GridCoord>> = positions.iter().map(|p| vec![*p]).collect();
        let mut pending_stays = vec![0usize; n];

        let mut frozen_touch: Vec<(u32, GridCoord)> = Vec::new();

        let mut elapsed = 0usize;
        let mut stagnant = 0u32;
        let mut phase = 0usize;
        let mut tail = PeriodicTail::default();
        let horizon = problem.max_steps.div_ceil(window);
        let mut stats = SolveStats::default();

        while elapsed < problem.max_steps && n > 0 {
            if positions.iter().zip(&goals).all(|(p, g)| p == g) {
                break;
            }
            let (ox, oy) = phases[phase];
            phase = (phase + 1) % phases.len();
            stats.windows += 1;

            // A window of the periodic tail repeats its recorded
            // trajectories; any other window is planned.
            let mut trajs: Vec<Vec<GridCoord>> = vec![Vec::new(); n];
            if SHORTCUTS
                && tail.begin_window(positions_hash(&positions), &positions, horizon, &mut trajs)
            {
                stats.windows_repeated += 1;
            } else {
                let part = Partition::new(problem.dims, side, ox, oy);

                // Classify: margin dwellers freeze for this window, everyone
                // else plans within their tile.
                let frozen: Vec<bool> = positions
                    .iter()
                    .map(|pos| part.in_margin(*pos, margin))
                    .collect();
                let mut membership = TileMembership::build(&part, &positions, &frozen);

                // Front-runners first: particles closest to their goals plan
                // first so convoys flow instead of blocking on their leaders.
                membership.sort_each_tile_by_key(|i| {
                    let i = i as usize;
                    (positions[i].manhattan(goals[i]), i)
                });

                // The rest of a tile's planning input: the frozen particles
                // whose separation zone reaches into it.
                frozen_touch.clear();
                let reach = sep.saturating_sub(1);
                for (i, pos) in positions.iter().enumerate() {
                    if !frozen[i] {
                        continue;
                    }
                    let lo =
                        GridCoord::new(pos.x.saturating_sub(reach), pos.y.saturating_sub(reach));
                    let hi = GridCoord::new(pos.x + reach, pos.y + reach);
                    for tile in part.tiles_in_box(lo, hi) {
                        frozen_touch.push((tile as u32, *pos));
                    }
                }
                // Stable by tile: particle order within a tile is kept.
                frozen_touch.sort_by_key(|&(tile, _)| tile);

                let touch_of = |tile: usize| {
                    let lo = frozen_touch.partition_point(|&(t, _)| (t as usize) < tile);
                    let hi = frozen_touch.partition_point(|&(t, _)| (t as usize) <= tile);
                    &frozen_touch[lo..hi]
                };
                let members_of = |tile: usize| {
                    membership
                        .members(tile)
                        .iter()
                        .map(|&i| (positions[i as usize], goals[i as usize]))
                };
                // A shard whose content key the cache holds replays its
                // paths instead of searching; the rest plan fresh in the
                // parallel pass below.
                let mut slots: Vec<TileSlot> = (0..part.tile_count())
                    .map(|tile| {
                        let mut slot = TileSlot {
                            paths: Vec::new(),
                            key: 0,
                            needs_plan: !membership.members(tile).is_empty(),
                        };
                        if SHORTCUTS && slot.needs_plan {
                            slot.key = shard_key(
                                problem.dims,
                                side,
                                ox,
                                oy,
                                tile,
                                sep,
                                window,
                                members_of(tile),
                                touch_of(tile),
                            );
                            slot.needs_plan =
                                !cache.fetch(slot.key, members_of(tile), &mut slot.paths);
                            stats.tiles_replayed += usize::from(!slot.needs_plan);
                        }
                        slot
                    })
                    .collect();

                // Plan the missing shards in parallel. Each plan depends only
                // on the window-start state, so the merge below is
                // deterministic regardless of the hit/miss pattern or the
                // thread count.
                slots.par_iter_mut().enumerate().for_each(|(tile, slot)| {
                    if !slot.needs_plan {
                        return;
                    }
                    let indices = membership.members(tile);
                    let out = &mut slot.paths;
                    // Every cell the tables below are asked about lies in
                    // the tile interior: the searches stay in it and the
                    // starts are mobile.
                    let (lo, hi) = part
                        .interior_bounds(positions[indices[0] as usize], margin)
                        .expect("a mobile particle lies in its tile's interior");
                    with_arena(|arena| {
                        let Arena {
                            scratch,
                            reservations,
                            parked,
                            ..
                        } = arena;
                        reservations.begin(window, sep, lo, hi);
                        // One blocked mask for the search: the zones of the
                        // tile's members and of the frozen particles that reach
                        // into it (no other frozen zone reaches the interior).
                        parked.begin(lo, hi);
                        for &i in indices {
                            parked.add(positions[i as usize], sep);
                        }
                        for &(_, pos) in touch_of(tile) {
                            parked.add(pos, sep);
                        }
                        for &i in indices {
                            let i = i as usize;
                            let start = positions[i];
                            // Parked fast path: A* would pop the start first and
                            // return the stay `[start]` at once. Its reservation
                            // is left out and its parked zone kept instead; both
                            // block the same cells at every step ≥ 1, and no
                            // later start lies in that zone.
                            if fast_park && start == goals[i] && reservations.is_free_from(start, 0)
                            {
                                out.push(Vec::new());
                                continue;
                            }
                            parked.remove(start, sep);
                            let parked_view = &*parked;
                            let path = window_astar(
                                lo,
                                hi,
                                |c| !parked_view.blocked(c),
                                start,
                                goals[i],
                                &*reservations,
                                scratch,
                                EXPANSION_CAP,
                            );
                            reservations.add_path(&path);
                            out.push(path);
                        }
                    });
                });

                // Store the freshly planned shards under their content keys.
                if SHORTCUTS {
                    for (tile, slot) in slots.iter().enumerate() {
                        if slot.needs_plan {
                            cache.insert(slot.key, members_of(tile), &slot.paths);
                        }
                    }
                }

                // Merge into one trajectory per particle; frozen particles keep
                // the empty trajectory, which waits (see `window_path`).
                for (tile, slot) in slots.iter_mut().enumerate() {
                    for (k, &i) in membership.members(tile).iter().enumerate() {
                        trajs[i as usize] = std::mem::take(&mut slot.paths[k]);
                    }
                }

                verify_and_repair(problem, &positions, &goals, &mut trajs, window, sep);
                if SHORTCUTS {
                    tail.end_window(&positions, &trajs);
                }
            }

            // Execute the window (truncated at the global horizon).
            let steps = window.min(problem.max_steps - elapsed);
            let mut any_moved = false;
            for (i, traj) in trajs.iter().enumerate() {
                if traj.len() <= 1 {
                    pending_stays[i] += steps; // waits the whole window
                    continue;
                }
                for t in 1..=steps {
                    let pos = position_at(traj, t);
                    let last = *histories[i].last().expect("histories are never empty");
                    if pos == last {
                        pending_stays[i] += 1;
                    } else {
                        any_moved = true;
                        let stays = pending_stays[i];
                        histories[i].extend(std::iter::repeat_n(last, stays));
                        pending_stays[i] = 0;
                        histories[i].push(pos);
                    }
                }
                positions[i] = position_at(traj, steps);
            }
            elapsed += steps;
            if any_moved {
                stagnant = 0;
            } else {
                stagnant += 1;
                if stagnant >= MAX_STAGNANT_WINDOWS {
                    break;
                }
            }
        }

        cache.end_solve();

        let mut paths = Vec::new();
        let mut unrouted: Vec<ParticleId> = Vec::new();
        let mut stranded = Vec::new();
        for (i, request) in problem.requests.iter().enumerate() {
            let path = ParticlePath {
                id: request.id,
                positions: std::mem::take(&mut histories[i]),
            };
            if positions[i] == goals[i] {
                paths.push(path);
            } else {
                unrouted.push(request.id);
                stranded.push(path);
            }
        }
        paths.sort_by_key(|p| p.id);
        stranded.sort_by_key(|p| p.id);
        unrouted.sort();
        let makespan = paths.iter().map(|p| p.arrival_step()).max().unwrap_or(0);
        let total_moves = paths
            .iter()
            .chain(stranded.iter())
            .map(|p| p.move_count())
            .sum();
        let outcome = RoutingOutcome {
            paths,
            unrouted,
            stranded,
            makespan,
            total_moves,
        };
        (outcome, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::astar_soa::{DenseReservations, Scratch};
    use super::*;
    use crate::routing::{Router, RoutingRequest, RoutingStrategy};
    use labchip_units::GridDims;

    fn request(id: u64, start: (u32, u32), goal: (u32, u32)) -> RoutingRequest {
        RoutingRequest {
            id: ParticleId(id),
            start: GridCoord::new(start.0, start.1),
            goal: GridCoord::new(goal.0, goal.1),
        }
    }

    fn small_shards() -> IncrementalRouter {
        IncrementalRouter::new(ShardConfig {
            shard_side: 8,
            window: 4,
        })
    }

    #[test]
    fn single_particle_crosses_the_whole_array() {
        let problem = RoutingProblem::new(GridDims::square(32), vec![request(1, (1, 1), (30, 30))]);
        let outcome = small_shards().solve(&problem).unwrap();
        assert!(outcome.unrouted.is_empty());
        assert!(outcome.is_conflict_free(problem.min_separation));
        // Windowed planning may detour around frozen margins but stays close
        // to the Manhattan distance.
        assert!(outcome.makespan >= 58);
        assert!(outcome.makespan <= 2 * 58);
    }

    #[test]
    fn crossing_particles_stay_separated() {
        let problem = RoutingProblem::new(
            GridDims::square(24),
            vec![request(1, (1, 10), (22, 10)), request(2, (22, 10), (1, 10))],
        );
        let outcome = small_shards().solve(&problem).unwrap();
        assert!(
            outcome.unrouted.is_empty(),
            "unrouted: {:?}",
            outcome.unrouted
        );
        assert!(outcome.is_conflict_free(problem.min_separation));
    }

    #[test]
    fn dense_column_routes_conflict_free() {
        let mut requests = Vec::new();
        for (i, y) in (1..30).step_by(3).enumerate() {
            requests.push(request(i as u64, (2, y), (29, y)));
        }
        let problem = RoutingProblem::new(GridDims::square(32), requests.clone());
        let outcome = small_shards().solve(&problem).unwrap();
        assert_eq!(outcome.paths.len(), requests.len());
        assert!(outcome.is_conflict_free(problem.min_separation));
    }

    #[test]
    fn zero_requests_is_a_trivial_success() {
        let problem = RoutingProblem::new(GridDims::square(16), Vec::new());
        let outcome = small_shards().solve(&problem).unwrap();
        assert!(outcome.paths.is_empty());
        assert!(outcome.unrouted.is_empty());
        assert_eq!(outcome.makespan, 0);
        assert_eq!(outcome.success_rate(0), 1.0);
    }

    #[test]
    fn stationary_requests_stay_put() {
        let problem = RoutingProblem::new(
            GridDims::square(16),
            vec![request(1, (4, 4), (4, 4)), request(2, (10, 4), (12, 4))],
        );
        let outcome = small_shards().solve(&problem).unwrap();
        assert_eq!(outcome.paths.len(), 2);
        assert_eq!(outcome.paths[0].move_count(), 0);
        assert!(outcome.is_conflict_free(problem.min_separation));
    }

    #[test]
    fn respects_larger_separations() {
        let mut problem = RoutingProblem::new(
            GridDims::square(24),
            vec![request(1, (2, 8), (20, 8)), request(2, (2, 14), (20, 14))],
        );
        problem.min_separation = 4;
        let outcome = small_shards().solve(&problem).unwrap();
        assert_eq!(outcome.paths.len(), 2);
        assert!(outcome.is_conflict_free(4));
    }

    #[test]
    fn horizon_bounds_are_respected() {
        let mut problem =
            RoutingProblem::new(GridDims::square(32), vec![request(1, (0, 0), (31, 31))]);
        problem.max_steps = 10;
        let outcome = small_shards().solve(&problem).unwrap();
        assert_eq!(outcome.paths.len(), 0);
        assert_eq!(outcome.unrouted, vec![ParticleId(1)]);
    }

    #[test]
    fn matches_global_planner_quality_on_moderate_traffic() {
        let mut requests = Vec::new();
        for i in 0..8u32 {
            requests.push(request(
                u64::from(i),
                (1, 1 + 3 * i),
                (28, 1 + 3 * ((i + 3) % 8)),
            ));
        }
        let problem = RoutingProblem::new(GridDims::square(32), requests.clone());
        let incremental = small_shards().solve(&problem).unwrap();
        let global = Router::new(RoutingStrategy::PrioritizedAStar)
            .solve(&problem)
            .unwrap();
        assert!(incremental.is_conflict_free(problem.min_separation));
        assert!(incremental.paths.len() >= global.paths.len().saturating_sub(1));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut requests = Vec::new();
        for i in 0..20u32 {
            requests.push(request(
                u64::from(i),
                (1 + (i % 4) * 3, 1 + (i / 4) * 3),
                (28 - (i % 4) * 3, 28 - (i / 4) * 3),
            ));
        }
        let problem = RoutingProblem::new(GridDims::square(32), requests);
        let router = small_shards();
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| router.solve(&problem).unwrap());
        let many = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(|| router.solve(&problem).unwrap());
        assert_eq!(one, many);
        assert!(one.is_conflict_free(problem.min_separation));
    }

    #[test]
    fn routes_past_the_u16_coordinate_range() {
        // Column 65 535 is the last a 16-bit coordinate can hold; the
        // route crosses it.
        let problem = RoutingProblem::new(
            GridDims::new(70_000, 4),
            vec![request(1, (65_530, 1), (65_545, 1))],
        );
        let outcome = IncrementalRouter::default().solve(&problem).unwrap();
        assert!(outcome.unrouted.is_empty(), "{outcome:?}");
        assert_eq!(
            outcome.paths[0].positions.last(),
            Some(&GridCoord::new(65_545, 1))
        );
        assert!(outcome.makespan >= 15);
        assert!(outcome.is_conflict_free(problem.min_separation));
    }

    #[test]
    fn window_astar_advances_toward_a_far_goal() {
        let (lo, hi) = (GridCoord::new(0, 9), GridCoord::new(6, 14));
        let mut reservations = DenseReservations::default();
        reservations.begin(4, 2, lo, hi);
        let mut scratch = Scratch::default();
        let path = window_astar(
            lo,
            hi,
            |_| true,
            GridCoord::new(1, 10),
            GridCoord::new(22, 10),
            &reservations,
            &mut scratch,
            EXPANSION_CAP,
        );
        assert_eq!(path.last(), Some(&GridCoord::new(5, 10)), "path: {path:?}");
        assert_eq!(path.len(), 5);
    }

    #[test]
    fn partition_margins_only_on_internal_boundaries() {
        let part = Partition::new(GridDims::square(16), 8, 0, 0);
        // Array corner: no internal boundary nearby.
        assert!(!part.in_margin(GridCoord::new(0, 0), 1));
        // Cells flanking the internal boundary at x = 8.
        assert!(part.in_margin(GridCoord::new(7, 4), 1));
        assert!(part.in_margin(GridCoord::new(8, 4), 1));
        assert!(!part.in_margin(GridCoord::new(6, 4), 1));
        // Staggered partition moves the margin.
        let staggered = Partition::new(GridDims::square(16), 8, 4, 4);
        assert!(!staggered.in_margin(GridCoord::new(7, 7), 1));
        assert!(staggered.in_margin(GridCoord::new(4, 7), 1));
    }

    #[test]
    fn every_cell_is_mobile_in_some_phase() {
        let dims = GridDims::square(20);
        let side = 8u32;
        let phases = stagger_phases(8);
        for c in dims.iter() {
            let mobile_somewhere = phases
                .iter()
                .any(|&(ox, oy)| !Partition::new(dims, side, ox, oy).in_margin(c, 1));
            assert!(mobile_somewhere, "cell {c} is frozen in every phase");
        }
    }

    fn moderate_problem() -> RoutingProblem {
        let mut requests = Vec::new();
        for i in 0..24u32 {
            requests.push(request(
                u64::from(i),
                (1 + (i % 6) * 5, 1 + (i / 6) * 7),
                (29 - (i % 6) * 4, 29 - (i / 6) * 6),
            ));
        }
        RoutingProblem::new(GridDims::square(32), requests)
    }

    #[test]
    fn cached_solve_is_bit_identical_to_cold() {
        let problem = moderate_problem();
        let router = small_shards();
        let cold = router.solve(&problem).unwrap();
        let mut cache = RouterCache::new();
        let first = router.solve_cached(&problem, &mut cache).unwrap();
        assert_eq!(cold, first, "cold cache must not change the outcome");
        // Even the first cached solve may hit intra-solve (a shard whose
        // state recurs across windows replays itself) — but it must miss at
        // least once per planned shard.
        let after_first = cache.stats();
        assert!(after_first.misses > 0);
        assert!(after_first.entries > 0);

        let warm = router.solve_cached(&problem, &mut cache).unwrap();
        assert_eq!(cold, warm, "warm replay must be bit-identical");
        let after_warm = cache.stats();
        assert_eq!(
            after_warm.misses, after_first.misses,
            "an identical re-solve hits on every shard"
        );
        assert!(after_warm.hits > 0);
    }

    #[test]
    fn cached_solve_survives_invalidation_and_mutation() {
        let mut problem = moderate_problem();
        let router = small_shards();
        let mut cache = RouterCache::new();
        router.solve_cached(&problem, &mut cache).unwrap();

        // Mutate one request's goal; the cached solve must match a cold
        // solve of the mutated problem exactly.
        problem.requests[5].goal = GridCoord::new(3, 27);
        // The legacy invalidation call is a no-op and must stay harmless.
        let side = router.effective_side(problem.min_separation);
        cache.invalidate_cells(problem.dims, side, &[problem.requests[5].start]);
        let warm = router.solve_cached(&problem, &mut cache).unwrap();
        let cold = router.solve(&problem).unwrap();
        assert_eq!(warm, cold);
        assert!(warm.is_conflict_free(problem.min_separation));
    }

    /// The cells of a `(px, py)`-pitch lattice on a `side²` grid, shuffled
    /// by `seed`.
    fn shuffled_lattice(side: u32, (px, py): (u32, u32), seed: u64) -> Vec<GridCoord> {
        let mut lattice: Vec<GridCoord> = (0..side)
            .step_by(py as usize)
            .flat_map(|y| {
                (0..side)
                    .step_by(px as usize)
                    .map(move |x| GridCoord::new(x, y))
            })
            .collect();
        let mut bits = seed;
        for k in (1..lattice.len()).rev() {
            bits = bits
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lattice.swap(k, (bits >> 33) as usize % (k + 1));
        }
        lattice
    }

    /// Recover-shaped problem on a lattice of pitch `sep + slack` (exactly
    /// `sep` when the slack is 0): `occupied` lattice cells hold particles
    /// and all but the first `movers` of them stay on their goals; each
    /// mover heads for a distinct empty lattice cell. `seed` shuffles the
    /// lattice.
    fn recover_shaped(
        side: u32,
        sep: u32,
        slack: (u32, u32),
        occupied: usize,
        movers: usize,
        seed: u64,
    ) -> RoutingProblem {
        let lattice = shuffled_lattice(side, (sep + slack.0, sep + slack.1), seed);
        let occupied = occupied.min(lattice.len());
        let movers = movers.min(occupied).min(lattice.len() - occupied);
        let requests = (0..occupied)
            .map(|k| RoutingRequest {
                id: ParticleId(k as u64),
                start: lattice[k],
                goal: if k < movers {
                    lattice[occupied + k]
                } else {
                    lattice[k]
                },
            })
            .collect();
        let mut problem = RoutingProblem::new(GridDims::square(side), requests);
        problem.min_separation = sep;
        problem
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The parked fast path, the periodic tail and the plan cache
        /// change no plan: `solve` and cold and warm `solve_cached` return
        /// exactly the outcome of calling A\* for every particle in every
        /// window, on recover-shaped problems.
        #[test]
        fn parked_fast_path_matches_always_astar(
            side in 8u32..29,
            sep in 1u32..5,
            slack in (0u32..2, 0u32..2),
            occupied in 0usize..60,
            movers in 0usize..8,
            seed in 0u64..u64::MAX,
            shards in (4u32..13, 1u32..7),
        ) {
            let problem = recover_shaped(side, sep, slack, occupied, movers, seed);
            let router = IncrementalRouter::new(ShardConfig {
                shard_side: shards.0,
                window: shards.1,
            });
            let reference = router.plan::<false>(&problem, &mut RouterCache::new()).0;
            proptest::prop_assert_eq!(&router.solve(&problem).unwrap(), &reference);
            let mut cache = RouterCache::new();
            for _ in 0..2 {
                let cached = router.solve_cached(&problem, &mut cache).unwrap();
                proptest::prop_assert_eq!(&cached, &reference);
            }
        }
    }

    /// Recovery-shaped problem: stationary particles on a pitch-4 lattice,
    /// one mover crossing the array along a free corridor, and one mover
    /// walled in by a ring of eight stationary particles at exactly the
    /// separation distance, so it strands and the solve runs on until the
    /// router gives up.
    fn walled_in_recovery() -> RoutingProblem {
        let side = 32;
        let wall = GridCoord::new(16, 16);
        let mut requests = vec![
            request(0, (3, 3), (27, 27)),
            request(1, (wall.x, wall.y), (3, 27)),
        ];
        let ring = (-2i32..=2)
            .step_by(2)
            .flat_map(|dy| [-2, 0, 2].map(|dx| wall.offset(dx, dy).unwrap()))
            .filter(|c| *c != wall);
        let lattice = (1..side)
            .step_by(4)
            .flat_map(|y| (1..side).step_by(4).map(move |x| GridCoord::new(x, y)))
            .filter(|c| c.chebyshev(wall) > 3);
        for site in ring.chain(lattice) {
            let id = requests.len() as u64;
            requests.push(request(id, (site.x, site.y), (site.x, site.y)));
        }
        RoutingProblem::new(GridDims::square(side), requests)
    }

    #[test]
    fn a_cold_solve_serves_unchanged_tiles_from_its_own_cache() {
        let problem = walled_in_recovery();
        let router = small_shards();
        let (outcome, stats) = router.solve_with_stats(&problem).unwrap();
        assert_eq!(
            outcome.unrouted,
            vec![ParticleId(1)],
            "only the walled-in mover strands"
        );
        assert!(stats.tiles_replayed > 0, "stationary tiles recur unchanged");
        let mut cache = RouterCache::new();
        let cached = router.solve_cached(&problem, &mut cache).unwrap();
        assert_eq!(stats.tiles_replayed as u64, cache.stats().hits);
        assert_eq!(cached, outcome);
        assert_eq!(
            outcome,
            router.plan::<false>(&problem, &mut RouterCache::new()).0
        );
    }

    /// `count` particles on a shuffled pitch-2 lattice, each bound for the
    /// next one's start, with a horizon of 400 steps: a crowded rotation
    /// in which some movers strand and circle for the rest of the solve.
    fn rotation(side: u32, count: usize, seed: u64) -> RoutingProblem {
        let lattice = shuffled_lattice(side, (2, 2), seed);
        let requests = (0..count)
            .map(|k| RoutingRequest {
                id: ParticleId(k as u64),
                start: lattice[k],
                goal: lattice[(k + 1) % count],
            })
            .collect();
        let mut problem = RoutingProblem::new(GridDims::square(side), requests);
        problem.max_steps = 400;
        problem
    }

    #[test]
    fn periodic_tail_repeats_without_changing_the_plan() {
        let problem = rotation(12, 8, 4);
        let router = small_shards();
        let (outcome, stats) = router.plan::<true>(&problem, &mut RouterCache::new());
        assert!(
            !outcome.unrouted.is_empty(),
            "stranded movers run the solve on"
        );
        assert_eq!(stats.windows, 100, "the solve runs to its horizon");
        assert!(stats.windows_repeated > 0, "{stats:?}");
        let (reference, reference_stats) = router.plan::<false>(&problem, &mut RouterCache::new());
        assert_eq!(outcome, reference);
        assert_eq!(reference_stats.windows_repeated, 0);
        assert_eq!(
            router.solve_with_stats(&problem).unwrap(),
            (outcome.clone(), stats)
        );
        let mut cache = RouterCache::new();
        for _ in 0..2 {
            assert_eq!(router.solve_cached(&problem, &mut cache).unwrap(), outcome);
        }
        assert_eq!(cache.stats().misses, cache.stats().entries as u64);
    }

    #[test]
    fn parked_fast_path_is_off_without_a_separation() {
        // Separation 0 lets two parked particles share a cell, so the
        // second one's start lies in the first one's zone: the argument
        // for the fast path fails, and the planner must call A* as before.
        // A third particle on the move makes the planner run windows.
        let mut problem = RoutingProblem::new(
            GridDims::square(16),
            vec![
                request(1, (5, 5), (5, 5)),
                request(2, (5, 5), (5, 5)),
                request(3, (1, 1), (12, 12)),
            ],
        );
        problem.min_separation = 0;
        let router = small_shards();
        assert_eq!(
            router.solve(&problem).unwrap(),
            router.plan::<false>(&problem, &mut RouterCache::new()).0
        );
    }

    /// Scratch reused on one thread carries nothing between calls: a solve
    /// after a larger solve and a prioritized plan, both of which grow every
    /// table of the thread's arena, equals the same solve on a fresh arena.
    #[test]
    fn reused_scratch_carries_nothing_between_solves() {
        let small = moderate_problem();
        let large = recover_shaped(48, 2, (1, 1), 150, 16, 5);
        let router = small_shards();
        let prioritized = Router::new(RoutingStrategy::PrioritizedAStar);
        std::thread::spawn(move || {
            rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .unwrap()
                .install(|| {
                    let first = router.solve(&small).unwrap();
                    let larger = router.solve(&large).unwrap();
                    assert!(larger.is_conflict_free(large.min_separation));
                    prioritized.solve(&large).unwrap();
                    assert_eq!(router.solve(&small).unwrap(), first);
                })
        })
        .join()
        .unwrap();
    }

    #[test]
    fn cached_solve_is_deterministic_across_thread_counts() {
        let problem = moderate_problem();
        let router = small_shards();
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| {
                let mut cache = RouterCache::new();
                router.solve_cached(&problem, &mut cache).unwrap();
                router.solve_cached(&problem, &mut cache).unwrap()
            });
        let many = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(|| {
                let mut cache = RouterCache::new();
                router.solve_cached(&problem, &mut cache).unwrap();
                router.solve_cached(&problem, &mut cache).unwrap()
            });
        assert_eq!(one, many);
    }
}
