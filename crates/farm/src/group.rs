//! A sharded chip as a farm job group: every shard folds one phase
//! segment per pool pass, the end of the pass is the group-wide phase
//! boundary, and the group checkpoints and resumes as a whole.
//!
//! The fleet layer ([`labchip_manipulation::fleet`]) projects one
//! monolithic journal onto per-shard [`ChipState`]s and journals every
//! shard's events — including the typed cross-shard handoffs — through
//! the same choke points the monolithic chip uses. This module executes
//! that decomposition the way the farm executes everything else: as a
//! group of shards folding event streams.
//!
//! ## Execution model
//!
//! [`ShardGroup::plan`] runs the protocol once on the coordinator
//! ([`BatchDriver::run_journaled`](labchip::workload::BatchDriver::run_journaled)),
//! [projects](labchip_manipulation::fleet::project) the global journal
//! onto the shard grid, and keeps the per-shard journals, split into one
//! segment per protocol phase at the broadcast phase markers.
//! [`ShardGroup::run`] then folds the segments in order: for each phase
//! segment, **one parallel pass over the shards** on the rayon pool folds
//! every shard's events through the shared [`apply_event`] replay step
//! into its replica shard state. The end of the pass is the group-wide
//! phase boundary — no shard starts phase `k + 1` until every shard has
//! finished phase `k`, mirroring how a physical multi-chip fleet must
//! synchronise before particles cross chip edges. The pool bounds the
//! threads a run uses, whatever the shard count.
//!
//! ## Kill and resume
//!
//! [`ShardGroup::run_killed`] kills **any one** shard at a chosen
//! boundary. Because boundaries are group-wide, the whole group stops
//! there in a consistent state, captured as a
//! JSON-serialisable [`GroupCheckpoint`] (boundary index + per-shard
//! snapshots). [`ShardGroup::resume`] checks the checkpoint against the
//! group, restores every shard from it and folds the remaining segments;
//! the final per-shard hashes are **bit-identical** to an uninterrupted
//! group run — the E16 group-recovery guarantee, extending the per-job
//! guarantee of E14/E15 to a gang of coupled shards. A checkpoint that
//! does not fit the group is a typed [`ResumeError`], never a panic.

use std::fmt;

use labchip::workload::{BatchDriver, Protocol, WorkloadConfig};
use labchip_manipulation::fleet::{project, FleetOutcome, FleetStats, FleetTopology};
use labchip_manipulation::journal::{apply_event, Event, Journal, ReplayError};
use labchip_manipulation::state::{ChipState, ChipStateSnapshot};
use labchip_units::GridDims;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Kill one shard of a group at a phase boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupKill {
    /// Which shard dies.
    pub shard: usize,
    /// The boundary it dies at: the shard folds this many phase segments
    /// and stops there, and the group with it. Must be in
    /// `1..segment_count` — a shard cannot die before the first boundary
    /// or after the last.
    pub boundary: usize,
}

/// A consistent whole-group resume point: every shard's state at one
/// phase boundary. JSON-serialisable like the per-job
/// [`Checkpoint`](labchip::workload::Checkpoint).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupCheckpoint {
    /// Index of the next phase segment every shard folds on resume.
    pub next_segment: usize,
    /// Per-shard replica states at the boundary.
    pub shards: Vec<ChipStateSnapshot>,
}

impl GroupCheckpoint {
    /// Serializes the group checkpoint to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self)
    }

    /// Parses a group checkpoint from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error for malformed input.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// Why [`ShardGroup::resume`] refused a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum ResumeError {
    /// The checkpoint holds a different number of shards than the group.
    ShardCount {
        /// Shards in the group.
        expected: usize,
        /// Shard snapshots in the checkpoint.
        found: usize,
    },
    /// The checkpoint's boundary lies past the group's last segment.
    Segment {
        /// The checkpoint's `next_segment`.
        next_segment: usize,
        /// Phase segments in the group.
        segments: usize,
    },
    /// A shard snapshot does not span that shard's local frame.
    ShardDims {
        /// The offending shard.
        shard: usize,
        /// The shard's local dims in the group topology.
        expected: GridDims,
        /// The dims of the snapshot's grid.
        found: GridDims,
    },
    /// A shard's remaining journal segments do not fold onto its
    /// snapshot.
    Fold {
        /// The offending shard.
        shard: usize,
        /// The rejected event.
        source: ReplayError,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::ShardCount { expected, found } => write!(
                f,
                "checkpoint holds {found} shard snapshots, the group has {expected} shards"
            ),
            ResumeError::Segment {
                next_segment,
                segments,
            } => write!(
                f,
                "checkpoint resumes at segment {next_segment}, the group has {segments}"
            ),
            ResumeError::ShardDims {
                shard,
                expected,
                found,
            } => write!(
                f,
                "shard {shard} snapshot spans {}x{}, the shard frame is {}x{}",
                found.cols, found.rows, expected.cols, expected.rows
            ),
            ResumeError::Fold { shard, source } => {
                write!(
                    f,
                    "shard {shard} does not resume from its snapshot: {source}"
                )
            }
        }
    }
}

impl std::error::Error for ResumeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResumeError::Fold { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The result of a (possibly resumed) group run: the replica shard states
/// and how many phase segments every shard folded.
#[derive(Debug)]
pub struct GroupOutcome {
    /// Final replica state of every shard, in shard order.
    pub states: Vec<ChipState>,
    /// Phase segments each shard folded (group-wide: boundaries are
    /// shared).
    pub segments_folded: usize,
}

impl GroupOutcome {
    /// Per-shard state hashes, in shard order.
    pub fn state_hashes(&self) -> Vec<u64> {
        self.states.iter().map(ChipState::state_hash).collect()
    }
}

/// A planned sharded run held as a farm job group: per-shard journals
/// split at phase boundaries, ready to execute one pool pass per phase.
#[derive(Debug)]
pub struct ShardGroup {
    outcome: FleetOutcome,
    /// Per shard: segment bounds into the journal, `segments + 1` long.
    bounds: Vec<Vec<usize>>,
    /// Phase segments between boundaries (equal across shards: markers are
    /// broadcast).
    segments: usize,
    /// State hash of the coordinator's global (monolithic) final state.
    global_hash: u64,
}

impl ShardGroup {
    /// Runs `protocol` on the coordinator, projects its journal onto a
    /// `grid_cols x grid_rows` fleet and captures the per-shard journals
    /// as a job group.
    ///
    /// # Panics
    ///
    /// Panics if the grid does not fit the configured array (see
    /// [`FleetTopology::new`]).
    pub fn plan(
        config: &WorkloadConfig,
        protocol: &Protocol,
        grid_cols: u32,
        grid_rows: u32,
    ) -> Self {
        let driver = BatchDriver::new(*config);
        let dims = GridDims::square(config.array_side);
        let sep = config.min_separation.max(1);
        let (outcome, journal) = driver.run_journaled(protocol, 0);
        let topology = FleetTopology::new(dims, sep, grid_cols, grid_rows);
        Self::from_outcome(project(&journal, &topology), outcome.state.state_hash())
    }

    /// Wraps an already-projected fleet as a job group —
    /// [`ShardGroup::plan`] without re-running the coordinator, for
    /// callers (like scenario E16) that already hold the
    /// [`FleetOutcome`].
    ///
    /// # Panics
    ///
    /// Panics if the shard journals carry inconsistent phase boundaries
    /// (impossible for a [`project`]ed fleet: markers are broadcast).
    pub fn from_outcome(outcome: FleetOutcome, global_hash: u64) -> Self {
        let bounds: Vec<Vec<usize>> = outcome.journals.iter().map(segment_bounds).collect();
        let segments = bounds[0].len() - 1;
        assert!(
            bounds.iter().all(|b| b.len() == segments + 1),
            "phase markers are broadcast, so every shard must see the same boundaries"
        );
        Self {
            outcome,
            bounds,
            segments,
            global_hash,
        }
    }

    /// Shards in the group.
    pub fn shard_count(&self) -> usize {
        self.outcome.states.len()
    }

    /// Phase segments between boundaries.
    pub fn segment_count(&self) -> usize {
        self.segments
    }

    /// Handoff counters of the projected fleet.
    pub fn stats(&self) -> FleetStats {
        self.outcome.stats
    }

    /// Journal length of every shard — the per-shard work the group
    /// distributes, and the load-imbalance signal E16 reports.
    pub fn journal_lengths(&self) -> Vec<usize> {
        self.outcome.journals.iter().map(Journal::len).collect()
    }

    /// State hash of every projected shard — what a group run's replicas
    /// must reproduce.
    pub fn expected_hashes(&self) -> Vec<u64> {
        self.outcome
            .states
            .iter()
            .map(ChipState::state_hash)
            .collect()
    }

    /// State hash of the coordinator's global final state.
    pub fn global_hash(&self) -> u64 {
        self.global_hash
    }

    /// The fleet outcome backing the group (journals, states, topology).
    pub fn fleet(&self) -> &FleetOutcome {
        &self.outcome
    }

    /// Executes the group uninterrupted: every shard folds all segments.
    ///
    /// # Panics
    ///
    /// Panics if a shard journal does not fold from the empty shard —
    /// impossible for a [`project`]ed fleet.
    pub fn run(&self) -> GroupOutcome {
        self.execute(0, None, None)
            .expect("projected shard journals fold from the empty shard")
    }

    /// Executes the group with one shard killed at a boundary.
    /// The *whole group* stops there; the returned
    /// [`GroupCheckpoint`] is the consistent resume point.
    ///
    /// # Panics
    ///
    /// Panics if `kill.shard` or `kill.boundary` is out of range.
    pub fn run_killed(&self, kill: GroupKill) -> (GroupOutcome, GroupCheckpoint) {
        assert!(kill.shard < self.shard_count(), "kill.shard out of range");
        assert!(
            kill.boundary >= 1 && kill.boundary < self.segments,
            "kill.boundary must be an interior phase boundary"
        );
        let outcome = self
            .execute(0, None, Some(kill))
            .expect("projected shard journals fold from the empty shard");
        let checkpoint = GroupCheckpoint {
            next_segment: outcome.segments_folded,
            shards: outcome.states.iter().map(ChipState::snapshot).collect(),
        };
        (outcome, checkpoint)
    }

    /// Resumes a stopped group from its checkpoint: every shard is
    /// restored from its snapshot and folds the remaining segments.
    ///
    /// # Errors
    ///
    /// A [`ResumeError`] when the checkpoint's shard count, boundary or
    /// snapshot dims do not fit this group, or a shard's remaining
    /// segments do not fold onto its snapshot.
    pub fn resume(&self, checkpoint: &GroupCheckpoint) -> Result<GroupOutcome, ResumeError> {
        if checkpoint.shards.len() != self.shard_count() {
            return Err(ResumeError::ShardCount {
                expected: self.shard_count(),
                found: checkpoint.shards.len(),
            });
        }
        if checkpoint.next_segment > self.segments {
            return Err(ResumeError::Segment {
                next_segment: checkpoint.next_segment,
                segments: self.segments,
            });
        }
        for (shard, snapshot) in checkpoint.shards.iter().enumerate() {
            let expected = self.outcome.topology.local_dims(shard);
            let found = snapshot.grid().dims();
            if found != expected {
                return Err(ResumeError::ShardDims {
                    shard,
                    expected,
                    found,
                });
            }
        }
        self.execute(checkpoint.next_segment, Some(&checkpoint.shards), None)
    }

    /// Folds segments `start..`, one parallel pass over the shards per
    /// segment, all stopping together after the pass that reaches the
    /// armed kill or a fold failure. The first failure in shard order is
    /// the error.
    fn execute(
        &self,
        start: usize,
        snapshots: Option<&[ChipStateSnapshot]>,
        kill: Option<GroupKill>,
    ) -> Result<GroupOutcome, ResumeError> {
        let sep = self.outcome.topology.min_separation().max(1);
        let mut shards: Vec<(ChipState, Option<ResumeError>)> = (0..self.shard_count())
            .map(|shard| {
                let state = match snapshots {
                    Some(snapshots) => ChipState::from_snapshot(snapshots[shard].clone()),
                    None => {
                        ChipState::with_separation(self.outcome.topology.local_dims(shard), sep)
                    }
                };
                (state, None)
            })
            .collect();
        let mut folded = start;
        while folded < self.segments {
            let seg = folded;
            shards
                .par_iter_mut()
                .enumerate()
                .for_each(|(shard, (state, failure))| {
                    let bounds = &self.bounds[shard];
                    let events =
                        &self.outcome.journals[shard].events()[bounds[seg]..bounds[seg + 1]];
                    for (offset, event) in events.iter().enumerate() {
                        if let Err(source) = apply_event(state, event, bounds[seg] + offset) {
                            *failure = Some(ResumeError::Fold { shard, source });
                            break;
                        }
                    }
                });
            folded += 1;
            let killed = kill.is_some_and(|k| k.boundary == folded);
            if killed || shards.iter().any(|(_, failure)| failure.is_some()) {
                break;
            }
        }
        let states = shards
            .into_iter()
            .map(|(state, failure)| failure.map_or(Ok(state), Err))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(GroupOutcome {
            states,
            segments_folded: folded,
        })
    }
}

/// Splits a shard journal into per-phase segments at its phase-finished /
/// phase-aborted markers: `bounds[k]..bounds[k + 1]` is phase `k`'s event
/// run, marker included. Any tail after the last marker folds into the
/// final segment; a journal with no markers at all is one segment.
fn segment_bounds(journal: &Journal) -> Vec<usize> {
    let mut bounds = vec![0];
    for (index, event) in journal.events().iter().enumerate() {
        if matches!(
            event,
            Event::PhaseFinished { .. } | Event::PhaseAborted { .. }
        ) {
            bounds.push(index + 1);
        }
    }
    match bounds.len() {
        1 => bounds.push(journal.len()),
        n => bounds[n - 1] = journal.len(),
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use labchip_manipulation::cage::ParticleId;
    use labchip_units::GridCoord;

    fn group(grid: (u32, u32)) -> ShardGroup {
        let config = WorkloadConfig {
            array_side: 24,
            seed: 11,
            noise_scale: 1.0,
            detection_frames: 2,
            ..WorkloadConfig::default()
        };
        let protocol = Protocol::canned_cycle(
            GridDims::square(config.array_side),
            config.min_separation,
            16,
        );
        ShardGroup::plan(&config, &protocol, grid.0, grid.1)
    }

    #[test]
    fn group_workers_reproduce_every_live_shard_hash() {
        let group = group((2, 2));
        assert_eq!(group.shard_count(), 4);
        assert_eq!(group.segment_count(), 5);
        let outcome = group.run();
        assert_eq!(outcome.segments_folded, 5);
        assert_eq!(outcome.state_hashes(), group.expected_hashes());
    }

    #[test]
    fn killing_any_shard_worker_stops_the_whole_group_consistently() {
        let group = group((2, 1));
        for shard in 0..group.shard_count() {
            let (stopped, checkpoint) = group.run_killed(GroupKill { shard, boundary: 2 });
            assert_eq!(stopped.segments_folded, 2);
            assert_eq!(checkpoint.next_segment, 2);
            assert_eq!(checkpoint.shards.len(), 2);
            // The checkpoint survives its JSON round trip...
            let restored = GroupCheckpoint::from_json(&checkpoint.to_json()).expect("round trip");
            assert_eq!(restored, checkpoint);
            // ...and the resumed group lands on the uninterrupted hashes.
            let resumed = group.resume(&restored).expect("checkpoint fits the group");
            assert_eq!(resumed.segments_folded, group.segment_count());
            assert_eq!(resumed.state_hashes(), group.expected_hashes());
        }
    }

    #[test]
    fn single_shard_groups_degenerate_to_one_worker() {
        let group = group((1, 1));
        assert_eq!(group.shard_count(), 1);
        assert_eq!(group.stats().exports, 0);
        let outcome = group.run();
        assert_eq!(outcome.state_hashes(), group.expected_hashes());
        assert_eq!(group.journal_lengths().len(), 1);
    }

    /// A checkpoint saved by an older build carried an `in_flight` key of
    /// seam announcements; it still decodes and resumes.
    #[test]
    fn stale_in_flight_announcements_do_not_disturb_a_resumed_group() {
        let group = group((2, 1));
        let (_, checkpoint) = group.run_killed(GroupKill {
            shard: 0,
            boundary: 2,
        });
        let json = checkpoint.to_json();
        let legacy = format!(
            "{},\"in_flight\":[[],[{{\"id\":9999,\"from_shard\":0,\"to_shard\":1}}]]}}",
            json.strip_suffix('}')
                .expect("checkpoints are JSON objects")
        );
        let restored = GroupCheckpoint::from_json(&legacy).expect("legacy checkpoint decodes");
        assert_eq!(restored, checkpoint);
        let resumed = group.resume(&restored).expect("legacy checkpoint resumes");
        assert_eq!(resumed.state_hashes(), group.expected_hashes());
    }

    /// Checkpoints come from outside the program: one that does not fit
    /// the group is a typed error, never a panic.
    #[test]
    fn resume_rejects_checkpoints_that_do_not_fit_the_group() {
        let group = group((2, 1));
        let (_, checkpoint) = group.run_killed(GroupKill {
            shard: 1,
            boundary: 2,
        });
        let tampered = |edit: &dyn Fn(&mut GroupCheckpoint)| {
            let mut copy = checkpoint.clone();
            edit(&mut copy);
            let restored = GroupCheckpoint::from_json(&copy.to_json()).expect("still JSON");
            group.resume(&restored).expect_err("tampered checkpoint")
        };

        let error = tampered(&|c| {
            c.shards.pop();
        });
        assert_eq!(
            error,
            ResumeError::ShardCount {
                expected: 2,
                found: 1
            }
        );
        assert!(error.to_string().contains("1 shard snapshots"), "{error}");

        let error = tampered(&|c| c.next_segment = 99);
        assert_eq!(
            error,
            ResumeError::Segment {
                next_segment: 99,
                segments: group.segment_count()
            }
        );

        // A snapshot of some other frame in shard 0's slot.
        let foreign = ChipState::with_separation(GridDims::new(5, 5), 2).snapshot();
        let error = tampered(&|c| c.shards[0] = foreign.clone());
        assert!(
            matches!(
                error,
                ResumeError::ShardDims {
                    shard: 0,
                    found: GridDims { cols: 5, rows: 5 },
                    ..
                }
            ),
            "{error:?}"
        );

        // Right dims, wrong contents: re-folding the load segment
        // re-places particles the snapshots already hold.
        let error = tampered(&|c| c.next_segment = 0);
        assert!(matches!(error, ResumeError::Fold { .. }), "{error:?}");

        // One edit to the JSON: the first particle's `x` set to 99, off
        // its shard's grid, fails to decode and names the particle.
        let (particle, at) = checkpoint
            .shards
            .iter()
            .find_map(|s| s.grid().iter_particles().next())
            .expect("some shard holds a particle");
        let json = checkpoint.to_json();
        let x = json
            .find("\"particles\":{\"")
            .expect("a non-empty particle map");
        let x = x + json[x..].find("\"x\":").expect("a particle cell") + 4;
        let end = x + json[x..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("a number");
        let edited = format!("{}99{}", &json[..x], &json[end..]);
        let error = GroupCheckpoint::from_json(&edited).expect_err("off-grid particle");
        let named = format!("particle {} at {}", particle.0, GridCoord::new(99, at.y));
        assert!(error.to_string().contains(&named), "{error}");
    }

    /// A journal with no phase markers is one segment, not an empty one.
    #[test]
    fn markerless_journals_fold_as_one_segment() {
        let dims = GridDims::square(16);
        let mut global = ChipState::with_separation(dims, 2);
        global.attach_journal();
        global.place(ParticleId(1), GridCoord::new(2, 8)).unwrap();
        global.place(ParticleId(2), GridCoord::new(13, 8)).unwrap();
        let journal = global.take_journal().unwrap();
        assert_eq!(segment_bounds(&journal), [0, 2]);
        assert_eq!(segment_bounds(&Journal::new()), [0, 0]);

        let fleet = project(&journal, &FleetTopology::new(dims, 2, 2, 1));
        let group = ShardGroup::from_outcome(fleet, global.state_hash());
        assert_eq!(group.segment_count(), 1);
        let outcome = group.run();
        let populations: Vec<usize> = outcome
            .states
            .iter()
            .map(ChipState::particle_count)
            .collect();
        assert_eq!(populations, [1, 1]);
        assert_eq!(outcome.state_hashes(), group.expected_hashes());
    }
}
