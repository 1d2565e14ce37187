//! Deterministic replay: fold a journal back into a [`ChipState`].

use crate::error::ManipulationError;
use crate::journal::event::Event;
use crate::journal::log::Journal;
use crate::state::ChipState;
use labchip_units::{GridCoord, GridDims};
use std::fmt;

/// A journal event that cannot be applied to the reconstructed state —
/// i.e. the journal does not describe a valid execution (corruption,
/// truncation mid-invariant, or a recorder bug). Any replay error counts
/// as a divergence in the E14 sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The replay was asked for a grid with a minimum cage separation of
    /// zero, which no chip state can have.
    ZeroSeparation,
    /// A grid operation in the journal was rejected on replay.
    Apply {
        /// Index of the offending event in the journal.
        index: usize,
        /// The rejection.
        source: ManipulationError,
    },
    /// A [`Event::Removed`] entry recorded a different origin cage than
    /// the reconstructed grid produced.
    RemovedMismatch {
        /// Index of the offending event in the journal.
        index: usize,
        /// The origin recorded in the journal.
        expected: GridCoord,
        /// The origin the replayed grid reported.
        actual: GridCoord,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::ZeroSeparation => {
                write!(f, "replay needs a cage separation of at least 1")
            }
            ReplayError::Apply { index, source } => {
                write!(f, "journal event #{index} failed to apply: {source}")
            }
            ReplayError::RemovedMismatch {
                index,
                expected,
                actual,
            } => write!(
                f,
                "journal event #{index}: removal origin {expected} but replay found {actual}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Apply { source, .. } => Some(source),
            ReplayError::ZeroSeparation | ReplayError::RemovedMismatch { .. } => None,
        }
    }
}

/// Replays a journal from an empty chip into a fresh [`ChipState`].
///
/// The result is bit-identical to the live state that recorded the
/// journal: grid contents, plan map and time ledger all match exactly
/// (`f64` ledger values are reproduced bit-for-bit because events store
/// the charged deltas, applied in the original order). Phase markers are
/// skipped; the replayed state carries no journal of its own.
///
/// # Errors
///
/// Returns [`ReplayError::ZeroSeparation`] if `min_separation` is zero,
/// and another [`ReplayError`] if any event cannot be applied — a corrupt
/// or internally inconsistent journal.
pub fn replay(
    journal: &Journal,
    dims: GridDims,
    min_separation: u32,
) -> Result<ChipState, ReplayError> {
    if min_separation == 0 {
        return Err(ReplayError::ZeroSeparation);
    }
    let mut state = ChipState::with_separation(dims, min_separation);
    for (index, event) in journal.events().iter().enumerate() {
        apply_event(&mut state, event, index)?;
    }
    Ok(state)
}

/// Applies one journal event to a state under reconstruction — the single
/// fold step [`replay`] iterates. Exposed so incremental consumers (the
/// fleet shard-group workers, which fold per-phase event segments between
/// rendezvous barriers) share the exact replay semantics: markers are
/// skipped, removals and handoff exports cross-check their recorded
/// origin, handoff import/export behave as place/remove, and a merge
/// target or plan goal off the grid is an [`OutOfBounds`] rejection, as
/// an off-grid placement is.
///
/// [`OutOfBounds`]: ManipulationError::OutOfBounds
///
/// # Errors
///
/// Returns a [`ReplayError`] tagged with `index` if the event cannot be
/// applied to `state`.
pub fn apply_event(state: &mut ChipState, event: &Event, index: usize) -> Result<(), ReplayError> {
    let dims = state.dims();
    let on_grid = |coord: GridCoord| {
        if dims.contains(coord) {
            Ok(())
        } else {
            Err(ReplayError::Apply {
                index,
                source: ManipulationError::OutOfBounds { coord },
            })
        }
    };
    match event {
        Event::PhaseStarted { .. } | Event::PhaseFinished { .. } | Event::PhaseAborted { .. } => {}
        Event::Placed { id, at } | Event::HandoffImported { id, at, .. } => {
            state
                .place(*id, *at)
                .map_err(|source| ReplayError::Apply { index, source })?;
        }
        Event::Removed { id, from } | Event::HandoffExported { id, from, .. } => {
            let actual = state
                .remove(*id)
                .map_err(|source| ReplayError::Apply { index, source })?;
            if actual != *from {
                return Err(ReplayError::RemovedMismatch {
                    index,
                    expected: *from,
                    actual,
                });
            }
        }
        Event::PlacedMerged { id, at } => {
            on_grid(*at)?;
            state.place_merged(*id, *at);
        }
        Event::PlanReplaced { goals } => {
            goals.iter().try_for_each(|&goal| on_grid(goal))?;
            state.set_plan_from_goals(goals.iter().copied());
        }
        Event::Charged { ledger, seconds } => state.charge(*ledger, *seconds),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cage::ParticleId;
    use crate::state::TimeLedger;
    use labchip_units::Seconds;

    #[test]
    fn replay_reconstructs_a_live_run_bit_for_bit() {
        let dims = GridDims::square(16);
        let mut live = ChipState::with_separation(dims, 2);
        live.attach_journal();
        live.place(ParticleId(1), GridCoord::new(2, 2)).unwrap();
        live.place(ParticleId(2), GridCoord::new(8, 8)).unwrap();
        live.set_plan_from_goals([GridCoord::new(8, 8), GridCoord::new(12, 2)]);
        live.charge(TimeLedger::Motion, Seconds::new(0.4));
        live.charge(TimeLedger::Sensing, Seconds::new(0.1));
        live.remove(ParticleId(1)).unwrap();
        live.place_merged(ParticleId(3), GridCoord::new(8, 8));

        let journal = live.take_journal().expect("journal attached");
        let replayed = replay(&journal, dims, 2).unwrap();
        assert_eq!(replayed, live);
        assert_eq!(replayed.state_hash(), live.state_hash());
    }

    #[test]
    fn replay_rejects_a_zero_separation_instead_of_panicking() {
        let mut live = ChipState::new(GridDims::square(8));
        live.attach_journal();
        live.place(ParticleId(1), GridCoord::new(2, 2)).unwrap();
        let journal = live.take_journal().expect("journal attached");
        assert_eq!(
            replay(&journal, GridDims::square(8), 0),
            Err(ReplayError::ZeroSeparation)
        );
    }

    #[test]
    fn replay_of_a_prefix_matches_the_state_at_that_point() {
        let dims = GridDims::square(12);
        let mut live = ChipState::new(dims);
        live.attach_journal();
        live.place(ParticleId(0), GridCoord::new(1, 1)).unwrap();
        let hash_after_one = {
            let journal = live.journal().unwrap().clone();
            replay(&journal, dims, live.grid().min_separation())
                .unwrap()
                .state_hash()
        };
        live.place(ParticleId(1), GridCoord::new(5, 5)).unwrap();

        let sep = live.grid().min_separation();
        let journal = live.take_journal().unwrap();
        let prefix = journal.truncated(1);
        let replayed = replay(&prefix, dims, sep).unwrap();
        assert_eq!(replayed.state_hash(), hash_after_one);
        assert_eq!(replayed.particle_count(), 1);
    }

    #[test]
    fn corrupt_journals_are_rejected_not_panicked() {
        let dims = GridDims::square(8);
        // Removing a particle that was never placed.
        let mut journal = Journal::new();
        journal.record(Event::Removed {
            id: ParticleId(9),
            from: GridCoord::new(1, 1),
        });
        let err = replay(&journal, dims, 1).unwrap_err();
        assert!(matches!(err, ReplayError::Apply { index: 0, .. }));
        assert!(err.to_string().contains("#0"));

        // A removal whose recorded origin disagrees with the grid.
        let mut journal = Journal::new();
        journal.record(Event::Placed {
            id: ParticleId(1),
            at: GridCoord::new(2, 2),
        });
        journal.record(Event::Removed {
            id: ParticleId(1),
            from: GridCoord::new(3, 3),
        });
        let err = replay(&journal, dims, 1).unwrap_err();
        assert!(matches!(err, ReplayError::RemovedMismatch { index: 1, .. }));

        // A merge or a plan goal off the grid.
        let off_grid = GridCoord::new(99, 0);
        for event in [
            Event::PlacedMerged {
                id: ParticleId(1),
                at: off_grid,
            },
            Event::PlanReplaced {
                goals: vec![GridCoord::new(1, 1), off_grid],
            },
        ] {
            let mut journal = Journal::new();
            journal.record(event);
            assert_eq!(
                replay(&journal, GridDims::square(16), 1),
                Err(ReplayError::Apply {
                    index: 0,
                    source: ManipulationError::OutOfBounds { coord: off_grid }
                })
            );
        }
    }

    #[test]
    fn markers_do_not_perturb_replay() {
        let dims = GridDims::square(8);
        let mut journal = Journal::new();
        journal.record(Event::PhaseStarted {
            index: 0,
            name: "load".into(),
        });
        journal.record(Event::Placed {
            id: ParticleId(1),
            at: GridCoord::new(4, 4),
        });
        journal.record(Event::PhaseAborted {
            index: 0,
            reason: "injected".into(),
        });
        let state = replay(&journal, dims, 1).unwrap();
        assert_eq!(state.particle_count(), 1);
    }

    #[test]
    fn handoff_events_replay_as_remove_and_place() {
        let dims = GridDims::square(8);
        let mut journal = Journal::new();
        journal.record(Event::Placed {
            id: ParticleId(4),
            at: GridCoord::new(6, 3),
        });
        journal.record(Event::HandoffExported {
            id: ParticleId(4),
            from: GridCoord::new(6, 3),
            to_shard: 1,
        });
        journal.record(Event::HandoffImported {
            id: ParticleId(4),
            at: GridCoord::new(1, 3),
            from_shard: 0,
        });
        let state = replay(&journal, dims, 1).unwrap();
        assert_eq!(state.particle_count(), 1);
        assert_eq!(
            state.grid().position(ParticleId(4)).unwrap(),
            GridCoord::new(1, 3)
        );

        // An export whose recorded origin disagrees with the grid is a
        // divergence, exactly like a plain removal.
        let mut journal = Journal::new();
        journal.record(Event::Placed {
            id: ParticleId(4),
            at: GridCoord::new(6, 3),
        });
        journal.record(Event::HandoffExported {
            id: ParticleId(4),
            from: GridCoord::new(5, 3),
            to_shard: 1,
        });
        let err = replay(&journal, dims, 1).unwrap_err();
        assert!(matches!(err, ReplayError::RemovedMismatch { index: 1, .. }));

        // A merge or a plan goal off the grid.
        let off_grid = GridCoord::new(99, 0);
        for event in [
            Event::PlacedMerged {
                id: ParticleId(1),
                at: off_grid,
            },
            Event::PlanReplaced {
                goals: vec![GridCoord::new(1, 1), off_grid],
            },
        ] {
            let mut journal = Journal::new();
            journal.record(event);
            assert_eq!(
                replay(&journal, GridDims::square(16), 1),
                Err(ReplayError::Apply {
                    index: 0,
                    source: ManipulationError::OutOfBounds { coord: off_grid }
                })
            );
        }
    }
}
