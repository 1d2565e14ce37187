//! High-level manipulation operations on the shared [`ChipState`].
//!
//! Each operation is a free function over the journaled chip state: moving
//! particles to target cages, merging two particles into one cage (e.g.
//! forcing cell–cell or cell–bead contact), isolating a particle away from a
//! crowd, and washing (moving every non-target particle to a disposal edge).
//! Motion is planned by the prioritized space–time A\* router, checked
//! whole before anything moves, and executed through the state's typed
//! choke points — every moved particle is lifted with
//! [`ChipState::remove`] and settled with [`ChipState::place`], the same
//! way the workload's route phase executes a plan — so every operation is
//! journaled and replayable. Each operation charges its cage steps to
//! [`TimeLedger::Motion`] at the given cage-step period.

use crate::cage::ParticleId;
use crate::error::ManipulationError;
use crate::routing::{Router, RoutingProblem, RoutingRequest, RoutingStrategy};
use crate::state::{ChipState, TimeLedger};
use labchip_units::{GridCoord, Meters, MetersPerSecond, Seconds};

/// Cage-step period of the DATE'05 reference geometry: one 20 µm electrode
/// pitch at the 50 µm/s speed a cell reliably follows its cage.
pub fn reference_step_period() -> Seconds {
    Meters::from_micrometers(20.0) / MetersPerSecond::from_micrometers_per_second(50.0)
}

/// Plans and executes the motion of `targets`; every other particle is a
/// static obstacle. Returns the cage steps taken, without charging time.
fn route(
    state: &mut ChipState,
    targets: &[(ParticleId, GridCoord)],
) -> Result<usize, ManipulationError> {
    let grid = state.grid();
    let sep = grid.min_separation();
    let mut requests = Vec::with_capacity(grid.particle_count());
    for (id, goal) in targets {
        requests.push(RoutingRequest {
            id: *id,
            start: grid.position(*id)?,
            goal: *goal,
        });
    }
    // Particles that are not being moved are static obstacles: model them
    // as zero-length requests so the router keeps everyone apart.
    for (id, pos) in grid.iter_particles() {
        if !targets.iter().any(|(t, _)| *t == id) {
            requests.push(RoutingRequest {
                id,
                start: pos,
                goal: pos,
            });
        }
    }
    let mut problem = RoutingProblem::new(grid.dims(), requests);
    problem.min_separation = sep;
    let outcome = Router::new(RoutingStrategy::PrioritizedAStar).solve(&problem)?;
    if !outcome.unrouted.is_empty() {
        return Err(ManipulationError::RoutingFailed {
            unrouted: outcome.unrouted.len(),
            reason: format!("could not route particles {:?}", outcome.unrouted),
        });
    }

    // Check the whole plan before touching the state: every trajectory
    // starts on its particle, moves at most one electrode per cage step and
    // stays on the array, and no two cages come closer than the separation
    // at any step. A rejected plan leaves the state untouched.
    for path in &outcome.paths {
        let start = state.grid().position(path.id)?;
        let stepwise = path.positions.first() == Some(&start)
            && path.positions.windows(2).all(|w| w[0].chebyshev(w[1]) <= 1)
            && path.positions.iter().all(|c| problem.dims.contains(*c));
        if !stepwise {
            return Err(ManipulationError::SiteConflict {
                coord: start,
                reason: format!(
                    "planned path of #{} is not a chain of single-electrode steps",
                    path.id.0
                ),
            });
        }
    }
    if !outcome.is_conflict_free(sep) {
        return Err(ManipulationError::RoutingFailed {
            unrouted: 0,
            reason: "planned motion brings two cages closer than the separation".into(),
        });
    }

    // Execute: lift every particle whose cage moves, then settle each on its
    // final electrode — placing them one at a time would trip the
    // separation check against particles that have not moved yet.
    let moved: Vec<(ParticleId, GridCoord)> = outcome
        .paths
        .iter()
        .filter_map(|path| {
            let last = *path.positions.last()?;
            (path.positions.first() != Some(&last)).then_some((path.id, last))
        })
        .collect();
    for (id, _) in &moved {
        state.remove(*id)?;
    }
    for (id, last) in &moved {
        state.place(*id, *last)?;
    }
    Ok(outcome.makespan)
}

/// Routes a set of particles to target cages simultaneously, executes the
/// motion on the state and charges it to [`TimeLedger::Motion`]. Returns
/// the cage steps taken.
///
/// # Errors
///
/// Returns [`ManipulationError::UnknownParticle`] for a target that is not
/// on the grid, [`ManipulationError::RoutingFailed`] when any particle
/// cannot be routed, and a [`ManipulationError`] for a plan that fails the
/// step or separation check; the state is left unchanged in every case.
pub fn move_group(
    state: &mut ChipState,
    targets: &[(ParticleId, GridCoord)],
    step_period: Seconds,
) -> Result<usize, ManipulationError> {
    let steps = route(state, targets)?;
    state.charge(TimeLedger::Motion, step_period * steps as f64);
    Ok(steps)
}

/// Moves a single particle to a target cage.
///
/// # Errors
///
/// See [`move_group`].
pub fn move_particle(
    state: &mut ChipState,
    id: ParticleId,
    goal: GridCoord,
    step_period: Seconds,
) -> Result<usize, ManipulationError> {
    move_group(state, &[(id, goal)], step_period)
}

/// Brings `a` and `b` into the same cage (cell–cell contact): `b` is routed
/// to a cage adjacent to `a`, then the two cages are merged by placing `b`
/// on top of `a`'s electrode. After the merge both ids map to the same
/// position.
///
/// # Errors
///
/// See [`move_group`]; additionally fails if no approach cage adjacent to
/// `a` is available.
pub fn merge(
    state: &mut ChipState,
    a: ParticleId,
    b: ParticleId,
    step_period: Seconds,
) -> Result<usize, ManipulationError> {
    let grid = state.grid();
    let target = grid.position(a)?;
    let sep = grid.min_separation();
    // Find an approach cage exactly `sep` away from `a` (the closest
    // allowed position), preferring the direction `b` is coming from.
    let from = grid.position(b)?;
    let mut candidates: Vec<GridCoord> = grid
        .dims()
        .iter()
        .filter(|c| target.chebyshev(*c) == sep && grid.is_free_for(*c, &[b]))
        .collect();
    candidates.sort_by_key(|c| c.manhattan(from));
    let approach = candidates
        .first()
        .copied()
        .ok_or_else(|| ManipulationError::SiteConflict {
            coord: target,
            reason: "no free approach cage around the merge target".into(),
        })?;

    let steps = route(state, &[(b, approach)])?;

    // Final merge: collapse the two cages into one. This intentionally
    // bypasses the separation rule — merging is the one operation that
    // wants the traps to coalesce.
    let steps = steps + approach.chebyshev(target) as usize;
    state.remove(b)?;
    state.place_merged(b, target);
    state.charge(TimeLedger::Motion, step_period * steps as f64);
    Ok(steps)
}

/// Moves `id` to the most isolated free cage along the array edge — used to
/// separate a target cell from the crowd before recovery.
///
/// # Errors
///
/// See [`move_group`]; fails when no edge cage is free.
pub fn isolate(
    state: &mut ChipState,
    id: ParticleId,
    step_period: Seconds,
) -> Result<usize, ManipulationError> {
    let grid = state.grid();
    let dims = grid.dims();
    let others: Vec<GridCoord> = grid
        .iter_particles()
        .filter(|(other, _)| *other != id)
        .map(|(_, pos)| pos)
        .collect();
    // Candidate edge cages, scored by distance to the nearest other
    // particle (larger is better).
    let mut best: Option<(u32, GridCoord)> = None;
    for c in dims.iter() {
        let on_edge = c.x == 0 || c.y == 0 || c.x == dims.cols - 1 || c.y == dims.rows - 1;
        if !on_edge || !grid.is_free_for(c, &[id]) {
            continue;
        }
        let clearance = others
            .iter()
            .map(|o| o.chebyshev(c))
            .min()
            .unwrap_or(u32::MAX);
        if best.is_none_or(|(b, _)| clearance > b) {
            best = Some((clearance, c));
        }
    }
    let (_, target) = best.ok_or(ManipulationError::SiteConflict {
        coord: GridCoord::new(0, 0),
        reason: "no free edge cage available for isolation".into(),
    })?;
    move_particle(state, id, target, step_period)
}

/// Moves every particle *except* the listed targets to the rightmost column
/// region (the waste side), emptying the working area. With nothing to
/// wash it moves nothing and charges nothing.
///
/// # Errors
///
/// See [`move_group`].
pub fn wash_except(
    state: &mut ChipState,
    keep: &[ParticleId],
    step_period: Seconds,
) -> Result<usize, ManipulationError> {
    let grid = state.grid();
    let dims = grid.dims();
    let sep = grid.min_separation();
    let discard: Vec<ParticleId> = grid
        .iter_particles()
        .map(|(id, _)| id)
        .filter(|id| !keep.contains(id))
        .collect();
    if discard.is_empty() {
        return Ok(0);
    }
    // Assign waste slots along the right edge, spaced by the separation.
    let mut targets = Vec::with_capacity(discard.len());
    for (slot_index, id) in discard.iter().enumerate() {
        let slot_index = slot_index as u32;
        let column = dims.cols - 1 - (slot_index / (dims.rows / sep)) * sep;
        let row = (slot_index % (dims.rows / sep)) * sep;
        targets.push((*id, GridCoord::new(column, row)));
    }
    move_group(state, &targets, step_period)
}

#[cfg(test)]
mod tests {
    use super::*;
    use labchip_units::GridDims;

    fn state_with(particles: &[(u64, (u32, u32))]) -> ChipState {
        let mut state = ChipState::new(GridDims::square(24));
        for (id, (x, y)) in particles {
            state
                .place(ParticleId(*id), GridCoord::new(*x, *y))
                .unwrap();
        }
        state.attach_journal();
        state
    }

    fn position(state: &ChipState, id: u64) -> GridCoord {
        state.grid().position(ParticleId(id)).unwrap()
    }

    fn journaled(state: &ChipState) -> Vec<&'static str> {
        let events = state.journal().unwrap().events();
        events.iter().map(|e| e.kind()).collect()
    }

    #[test]
    fn move_particle_charges_one_period_per_step() {
        let mut state = state_with(&[(1, (2, 2))]);
        let steps = move_particle(
            &mut state,
            ParticleId(1),
            GridCoord::new(10, 2),
            reference_step_period(),
        )
        .unwrap();
        assert_eq!(steps, 8);
        assert_eq!(position(&state, 1), GridCoord::new(10, 2));
        // At 50 µm/s and 20 µm pitch a step takes 0.4 s.
        assert!((state.time().motion.get() - 8.0 * 0.4).abs() < 1e-9);
        assert_eq!(journaled(&state), ["removed", "placed", "charged"]);
    }

    #[test]
    fn move_group_keeps_everyone_apart() {
        let mut state = state_with(&[(1, (2, 2)), (2, (2, 10)), (3, (20, 6))]);
        let targets = [
            (ParticleId(1), GridCoord::new(18, 2)),
            (ParticleId(2), GridCoord::new(18, 10)),
        ];
        assert!(move_group(&mut state, &targets, reference_step_period()).unwrap() >= 16);
        assert_eq!(position(&state, 1), GridCoord::new(18, 2));
        assert_eq!(
            position(&state, 3),
            GridCoord::new(20, 6),
            "unmoved particles stay put"
        );
    }

    #[test]
    fn merge_brings_particles_into_one_cage() {
        let mut state = state_with(&[(1, (10, 10)), (2, (3, 10))]);
        assert!(
            merge(
                &mut state,
                ParticleId(1),
                ParticleId(2),
                reference_step_period()
            )
            .unwrap()
                > 0
        );
        let a = position(&state, 1);
        assert_eq!(a, position(&state, 2), "after merging both share a cage");
        assert_eq!(a, GridCoord::new(10, 10));
        assert!(journaled(&state).ends_with(&["removed", "placed_merged", "charged"]));
    }

    #[test]
    fn isolate_moves_particle_to_a_clear_edge() {
        let mut state = state_with(&[(1, (10, 10)), (2, (12, 10)), (3, (10, 12))]);
        assert!(isolate(&mut state, ParticleId(1), reference_step_period()).unwrap() > 0);
        let pos = position(&state, 1);
        let dims = state.dims();
        assert!(
            pos.x == 0 || pos.y == 0 || pos.x == dims.cols - 1 || pos.y == dims.rows - 1,
            "isolated particle should sit on the array edge, got {pos}"
        );
        // And it should now be far from the others.
        for other in [2, 3] {
            let d = position(&state, other).chebyshev(pos);
            assert!(d >= 5, "isolation left particles only {d} cages apart");
        }
    }

    #[test]
    fn wash_except_clears_everything_but_the_target() {
        let mut state = state_with(&[(1, (10, 10)), (2, (6, 6)), (3, (14, 14))]);
        assert!(wash_except(&mut state, &[ParticleId(1)], reference_step_period()).unwrap() > 0);
        assert_eq!(
            position(&state, 1),
            GridCoord::new(10, 10),
            "the kept particle stays"
        );
        let edge = state.dims().cols - 1 - state.grid().min_separation();
        for id in [2, 3] {
            let pos = position(&state, id);
            assert!(
                pos.x >= edge,
                "washed #{id} should be near the waste edge, got {pos}"
            );
        }
        // Washing with nothing to wash is a no-op that charges nothing.
        let mut only_one = state_with(&[(9, (5, 5))]);
        assert_eq!(
            wash_except(&mut only_one, &[ParticleId(9)], reference_step_period()).unwrap(),
            0
        );
        assert!(journaled(&only_one).is_empty());
    }

    #[test]
    fn moving_an_unknown_particle_fails() {
        let mut state = state_with(&[(1, (2, 2))]);
        assert!(move_particle(
            &mut state,
            ParticleId(99),
            GridCoord::new(5, 5),
            reference_step_period()
        )
        .is_err());
        assert!(journaled(&state).is_empty());
    }

    #[test]
    fn unroutable_moves_leave_the_state_untouched() {
        let mut state = state_with(&[(1, (2, 2)), (2, (12, 12))]);
        let before = state.state_hash();
        // A goal inside another cage's separation zone cannot be reached.
        assert!(move_particle(
            &mut state,
            ParticleId(1),
            GridCoord::new(12, 13),
            reference_step_period()
        )
        .is_err());
        assert_eq!(state.state_hash(), before);
        assert!(journaled(&state).is_empty());
    }

    #[test]
    fn step_period_follows_speed() {
        assert!((reference_step_period().get() - 0.4).abs() < 1e-12);
        // Twice the cell speed halves the period and the charged time.
        let fast =
            Meters::from_micrometers(20.0) / MetersPerSecond::from_micrometers_per_second(100.0);
        let mut state = state_with(&[(1, (2, 2))]);
        move_particle(&mut state, ParticleId(1), GridCoord::new(7, 2), fast).unwrap();
        assert!((state.time().motion.get() - 5.0 * 0.2).abs() < 1e-9);
    }

    #[test]
    fn operations_replay_bit_identically() {
        let mut state = state_with(&[(1, (10, 10)), (2, (3, 10)), (3, (20, 20)), (4, (6, 16))]);
        let mut start = state.clone();
        start.take_journal();
        move_particle(
            &mut state,
            ParticleId(3),
            GridCoord::new(16, 20),
            reference_step_period(),
        )
        .unwrap();
        wash_except(
            &mut state,
            &[ParticleId(1), ParticleId(2), ParticleId(3)],
            reference_step_period(),
        )
        .unwrap();
        merge(
            &mut state,
            ParticleId(1),
            ParticleId(2),
            reference_step_period(),
        )
        .unwrap();
        // Folding the journal onto the starting state reaches the live one.
        for (index, event) in state.journal().unwrap().events().iter().enumerate() {
            crate::journal::apply_event(&mut start, event, index).unwrap();
        }
        assert_eq!(start.state_hash(), state.state_hash());
    }
}
