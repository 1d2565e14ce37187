//! Merged-window verification and serial repair.
//!
//! After the per-shard plans are merged the window is verified with a dense
//! per-step occupancy scan; any violating particle (none are expected by
//! construction — the margins make cross-shard conflicts impossible — but
//! frozen corner cases are cheap to guard) is demoted to wait-in-place and
//! then re-planned serially against the merged reservation table.

use super::astar_soa::{position_at, window_astar, Scratch, WindowReservations};
use super::EXPANSION_CAP;
use crate::routing::{for_each_zone_cell, RoutingProblem};
use labchip_units::{GridCoord, GridDims};

/// Reusable dense occupancy scan: one `u32` occupant id and epoch stamp
/// per cell of a box, re-stamped per step instead of rebuilding a hash map.
/// The crate's one conflict scanner — it verifies every merged router
/// window ([`ConflictScan::window_conflicts`]) and whole routing outcomes
/// ([`crate::routing::RoutingOutcome::is_conflict_free`]).
#[derive(Debug, Default)]
pub(crate) struct ConflictScan {
    lo_x: u32,
    lo_y: u32,
    cols: usize,
    rows: usize,
    occupant: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl ConflictScan {
    /// Re-targets the scan to the inclusive cell box `[lo, hi]`, which
    /// must hold every position scanned.
    fn begin(&mut self, lo: GridCoord, hi: GridCoord) {
        self.lo_x = lo.x;
        self.lo_y = lo.y;
        self.cols = (hi.x - lo.x) as usize + 1;
        self.rows = (hi.y - lo.y) as usize + 1;
        let cells = self.cols * self.rows;
        if self.occupant.len() < cells {
            self.occupant.resize(cells, 0);
            self.stamp.resize(cells, 0);
        }
    }

    /// Clears the grid in O(1). Stamps are never 0 afterwards, so a stamp
    /// of 0 also marks one cell empty.
    fn bump(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Grid index of `c`, which must lie in the box.
    fn slot(&self, c: GridCoord) -> usize {
        (c.y - self.lo_y) as usize * self.cols + (c.x - self.lo_x) as usize
    }

    fn place(&mut self, i: usize, c: GridCoord) {
        let k = self.slot(c);
        self.occupant[k] = i as u32;
        self.stamp[k] = self.epoch;
    }

    /// Every occupant within Chebyshev distance `< sep` of `c`.
    fn zone_occupants(&self, c: GridCoord, sep: u32, mut f: impl FnMut(usize)) {
        for_each_zone_cell(c, sep, |z| {
            let (Some(x), Some(y)) = (z.x.checked_sub(self.lo_x), z.y.checked_sub(self.lo_y))
            else {
                return;
            };
            let (x, y) = (x as usize, y as usize);
            if x < self.cols && y < self.rows && self.stamp[y * self.cols + x] == self.epoch {
                f(self.occupant[y * self.cols + x] as usize);
            }
        });
    }

    /// The conflicting pairs `(i, j)`, `i < j`, of the first step in
    /// `steps` at which any two of `n` particles — particle `i` sits at
    /// `pos(i, t)`, inside the box `[lo, hi]` — are closer than `sep`
    /// (Chebyshev), or share a cell when `sep ≥ 1`. Empty when every step
    /// is clean. Costs `O(n · steps · sep²)` instead of `O(n² · steps)`.
    ///
    /// Every conflicting step yields at least one pair, but not
    /// necessarily all of them: of three particles in one cell only the
    /// pairs with the last-written occupant are found. Callers either stop
    /// at the first pair or re-scan after fixing the ones reported.
    pub(crate) fn first_conflicts(
        &mut self,
        (lo, hi): (GridCoord, GridCoord),
        steps: std::ops::RangeInclusive<usize>,
        n: usize,
        pos: impl Fn(usize, usize) -> GridCoord,
        sep: u32,
    ) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        if n == 0 {
            return pairs;
        }
        self.begin(lo, hi);
        for t in steps {
            self.bump();
            for i in 0..n {
                self.place(i, pos(i, t));
            }
            for i in 0..n {
                self.zone_occupants(pos(i, t), sep, |j| {
                    if j > i {
                        pairs.push((i, j));
                    }
                });
            }
            if !pairs.is_empty() {
                break;
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Whether particles `0..last.len()` keep `sep ≥ 1` apart at every step
    /// `0..=horizon`, where particle `i` sits at `pos(i, t)` inside the box
    /// `[lo, hi]` and stays put after step `last[i]`. The same answer as
    /// an empty [`Self::first_conflicts`] over those steps, found faster:
    /// after a full check of step 0, each step re-checks only the
    /// particles that moved into it. Two particles that both stood still
    /// were already checked the step before.
    pub(crate) fn stays_clear(
        &mut self,
        (lo, hi): (GridCoord, GridCoord),
        horizon: usize,
        last: &[usize],
        pos: impl Fn(usize, usize) -> GridCoord,
        sep: u32,
    ) -> bool {
        if !self
            .first_conflicts((lo, hi), 0..=0, last.len(), &pos, sep)
            .is_empty()
        {
            return false;
        }
        // The grid now holds step 0, one particle per cell.
        let mut active: Vec<usize> = (0..last.len()).collect();
        let mut moved = Vec::new();
        for t in 1..=horizon {
            active.retain(|&i| last[i] >= t);
            moved.clear();
            for &i in &active {
                let from = pos(i, t - 1);
                if pos(i, t) != from {
                    moved.push(i);
                    let k = self.slot(from);
                    if self.occupant[k] == i as u32 {
                        self.stamp[k] = 0;
                    }
                }
            }
            for &i in &moved {
                let to = pos(i, t);
                if self.stamp[self.slot(to)] == self.epoch {
                    return false; // two particles in one cell
                }
                self.place(i, to);
            }
            let mut clear = true;
            for &i in &moved {
                self.zone_occupants(pos(i, t), sep, |j| clear &= j == i);
            }
            if !clear {
                return false;
            }
        }
        true
    }

    /// All conflicting particle pairs found at the first conflicting step
    /// of a merged window; stops there so repair can fix that step before
    /// re-verifying.
    pub(crate) fn window_conflicts(
        &mut self,
        dims: GridDims,
        trajs: &[Vec<GridCoord>],
        window: usize,
        sep: u32,
    ) -> Vec<(usize, usize)> {
        let grid = (
            GridCoord::new(0, 0),
            GridCoord::new(dims.cols.saturating_sub(1), dims.rows.saturating_sub(1)),
        );
        self.first_conflicts(
            grid,
            1..=window,
            trajs.len(),
            |i, t| position_at(&trajs[i], t),
            sep,
        )
    }
}

/// Verifies a merged window; conflicting particles are demoted to
/// wait-in-place until the window is clean, then re-planned serially
/// against the merged reservations.
pub(crate) fn verify_and_repair(
    problem: &RoutingProblem,
    positions: &[GridCoord],
    goals: &[GridCoord],
    trajs: &mut [Vec<GridCoord>],
    window: usize,
    sep: u32,
    scan: &mut ConflictScan,
) {
    let mut demoted: Vec<usize> = Vec::new();
    loop {
        let offenders = scan.window_conflicts(problem.dims, trajs, window, sep);
        if offenders.is_empty() {
            break;
        }
        for (a, b) in offenders {
            // Demote the particle farther from its goal (ties: higher
            // index); the other keeps its plan. Two waiting particles
            // can never conflict (window-start states are valid), so if
            // the preferred victim already waits, the other one moved.
            let preferred =
                if (positions[a].manhattan(goals[a]), a) >= (positions[b].manhattan(goals[b]), b) {
                    a
                } else {
                    b
                };
            let victim = if trajs[preferred].len() > 1 {
                preferred
            } else {
                a + b - preferred
            };
            if trajs[victim].len() > 1 {
                trajs[victim] = vec![positions[victim]];
                demoted.push(victim);
            }
        }
    }
    if demoted.is_empty() {
        return;
    }
    demoted.sort_unstable();
    demoted.dedup();

    // Re-plan the demoted particles one at a time against everyone
    // else's merged trajectories. This is a cold path, so the sparse
    // whole-grid reservation table is the right trade-off here.
    let mut reservations = WindowReservations::new(window, sep);
    for traj in trajs.iter() {
        reservations.add_path(traj);
    }
    let dims = problem.dims;
    let lo = GridCoord::new(0, 0);
    let hi = GridCoord::new(dims.cols - 1, dims.rows - 1);
    let mut scratch = Scratch::default();
    for &i in &demoted {
        reservations.remove_path(&trajs[i]);
        let path = window_astar(
            lo,
            hi,
            |_| true,
            positions[i],
            goals[i],
            &reservations,
            &mut scratch,
            EXPANSION_CAP,
        );
        reservations.add_path(&path);
        trajs[i] = path;
    }
    // The re-planned paths respected the reservations, but run one
    // last wait-demotion sweep as a hard guarantee.
    loop {
        let offenders = scan.window_conflicts(problem.dims, trajs, window, sep);
        if offenders.is_empty() {
            break;
        }
        for (a, b) in offenders {
            let victim = a.max(b);
            if trajs[victim].len() > 1 {
                trajs[victim] = vec![positions[victim]];
            } else {
                let other = a.min(b);
                trajs[other] = vec![positions[other]];
            }
        }
    }
}
