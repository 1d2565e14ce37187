//! The periodic tail of a solve.
//!
//! Stranded particles keep a solve running to its horizon, and the
//! window-start positions of such a solve often become exactly periodic:
//! the movers that are left shuffle through a fixed cycle of windows. A
//! window's merged, verified trajectories depend only on its start
//! positions, the goals, its stagger phase and constants of the solve
//! (the caches and replays change only speed). So once
//! `positions(w + P) == positions(w)` with `P` a multiple of the four
//! stagger phases, window `w + P + k` has the trajectories of window
//! `w + k` for every `k ≥ 0`, and the rest of the solve can repeat the
//! recorded period instead of planning it.
//!
//! [`PeriodicTail`] keeps a hash of every window's start positions. When
//! window `w` hashes like window `w − P` (smallest such `P`), it takes a
//! snapshot of the positions and records the next `P` planned windows.
//! At window `w + P` it compares the positions with the snapshot by value,
//! so a hash collision can cost a recording but never repeat a wrong
//! window.

use super::replay::{pack, unpack};
use labchip_units::GridCoord;

/// The stagger phases a period must be a multiple of.
const PHASES: usize = 4;

/// One recorded window: `(particle, packed trajectory)` for each
/// particle whose trajectory moves (is longer than one cell), packed
/// relative to its window-start position. Everyone else waits the whole
/// window.
type Recorded = Vec<(u32, u64)>;

#[derive(Debug, Default)]
enum State {
    /// Looking for a window whose start hashes like an earlier one.
    #[default]
    Watching,
    /// Recording the `period` windows from the one that started on
    /// `snapshot`.
    Recording {
        snapshot: Vec<GridCoord>,
        period: usize,
        windows: Vec<Recorded>,
    },
    /// The positions repeated: every window from now on is
    /// `windows[next]`, cyclically.
    Repeating { windows: Vec<Recorded>, next: usize },
}

/// Detects a solve's periodic tail and plays it back.
#[derive(Debug, Default)]
pub(super) struct PeriodicTail {
    /// The hash of each window's start positions, in window order.
    hashes: Vec<u64>,
    state: State,
}

impl PeriodicTail {
    /// Starts the next window from `positions` (whose hash is `hash`, see
    /// [`positions_hash`]) in a solve of at most `horizon` windows.
    /// Returns whether the window repeats a recorded one; its trajectories
    /// are then written into `trajs`, whose entries must be empty. If not,
    /// the caller plans the window and hands it to
    /// [`Self::end_window`].
    pub(super) fn begin_window(
        &mut self,
        hash: u64,
        positions: &[GridCoord],
        horizon: usize,
        trajs: &mut [Vec<GridCoord>],
    ) -> bool {
        let w = self.hashes.len();
        self.hashes.push(hash);
        if let State::Recording {
            snapshot,
            period,
            windows,
        } = &mut self.state
        {
            if windows.len() < *period {
                return false;
            }
            self.state = if snapshot.as_slice() == positions {
                State::Repeating {
                    windows: std::mem::take(windows),
                    next: 0,
                }
            } else {
                State::Watching
            };
        }
        if let State::Repeating { windows, next } = &mut self.state {
            let window = &windows[*next];
            *next = (*next + 1) % windows.len();
            for &(i, word) in window {
                let i = i as usize;
                trajs[i] = unpack(positions[i], word);
            }
            return true;
        }
        let period = (PHASES..=w)
            .step_by(PHASES)
            .take_while(|period| w + period < horizon)
            .find(|period| self.hashes[w - period] == hash);
        if let Some(period) = period {
            self.state = State::Recording {
                snapshot: positions.to_vec(),
                period,
                windows: Vec::with_capacity(period),
            };
        }
        false
    }

    /// Records a window that [`Self::begin_window`] did not repeat: it
    /// started on `positions` and was planned as `trajs`. A trajectory
    /// that does not pack drops the recording.
    pub(super) fn end_window(&mut self, positions: &[GridCoord], trajs: &[Vec<GridCoord>]) {
        let State::Recording { windows, .. } = &mut self.state else {
            return;
        };
        let mut window = Recorded::new();
        for (i, traj) in trajs.iter().enumerate() {
            if traj.len() <= 1 {
                continue;
            }
            let Some(word) = pack(positions[i], traj) else {
                self.state = State::Watching;
                return;
            };
            window.push((i as u32, word));
        }
        windows.push(window);
    }
}

/// A 64-bit FNV-1a hash of window-start positions: it only nominates a
/// period, which is then checked by value.
pub(super) fn positions_hash(positions: &[GridCoord]) -> u64 {
    positions.iter().fold(0xcbf2_9ce4_8422_2325, |h, c| {
        (h ^ (u64::from(c.x) << 32 | u64::from(c.y))).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(x: u32) -> Vec<GridCoord> {
        vec![GridCoord::new(x, 0), GridCoord::new(x, 5)]
    }

    /// Particle 0 steps right by one; particle 1 waits.
    fn step_right(positions: &[GridCoord]) -> Vec<Vec<GridCoord>> {
        let p = positions[0];
        vec![vec![p, GridCoord::new(p.x + 1, p.y)], Vec::new()]
    }

    /// Runs windows 0..4 on distinct hashes, then starts window 4 on
    /// `at(10)` with window 0's hash and records it and the next three.
    fn nominated() -> PeriodicTail {
        let mut tail = PeriodicTail::default();
        let mut trajs = vec![Vec::new(); 2];
        for w in 0..4 {
            assert!(!tail.begin_window(w, &at(20 + w as u32), 100, &mut trajs));
            tail.end_window(&at(20 + w as u32), &step_right(&at(20 + w as u32)));
        }
        for (w, x) in (4..8).zip(10..) {
            assert!(!tail.begin_window(if w == 4 { 0 } else { 50 + w }, &at(x), 100, &mut trajs));
            tail.end_window(&at(x), &step_right(&at(x)));
        }
        tail
    }

    #[test]
    fn equal_hashes_of_different_positions_start_no_repeat() {
        let mut tail = nominated();
        let mut trajs = vec![Vec::new(); 2];
        // Window 8 hashes like window 4 but starts elsewhere: the value
        // check drops the recording, and the hash nominates a new one.
        assert!(!tail.begin_window(0, &at(11), 100, &mut trajs));
        assert!(trajs.iter().all(Vec::is_empty));
        assert!(matches!(tail.state, State::Recording { period: 4, .. }));
        for x in 12..15 {
            tail.end_window(&at(x - 1), &step_right(&at(x - 1)));
            assert!(!tail.begin_window(u64::from(x), &at(x), 100, &mut trajs));
        }
        tail.end_window(&at(14), &step_right(&at(14)));
        // Window 12 hashes like window 8 and starts elsewhere again.
        assert!(!tail.begin_window(0, &at(10), 100, &mut trajs));
        assert!(trajs.iter().all(Vec::is_empty));
    }

    #[test]
    fn equal_positions_repeat_the_recording_cyclically() {
        let mut tail = nominated();
        let mut trajs = vec![Vec::new(); 2];
        for k in 0..9u32 {
            let x = 10 + k % 4;
            trajs.iter_mut().for_each(Vec::clear);
            assert!(tail.begin_window(1000 + u64::from(k), &at(x), 100, &mut trajs));
            assert_eq!(trajs, step_right(&at(x)));
        }
    }

    #[test]
    fn a_period_that_ends_past_the_horizon_is_not_recorded() {
        let mut tail = PeriodicTail::default();
        let mut trajs = vec![Vec::new(); 2];
        for w in 0..5u32 {
            // Window 4 hashes like window 0, but window 8 would not run.
            assert!(!tail.begin_window(u64::from(w % 4), &at(w), 8, &mut trajs));
        }
        assert!(matches!(tail.state, State::Watching));
    }
}
