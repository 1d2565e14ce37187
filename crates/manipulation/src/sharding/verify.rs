//! Merged-window verification and serial repair.
//!
//! After the per-shard plans are merged the window is verified with a dense
//! occupancy scan that checks step 0 in full and then only the particles
//! that moved. Only a window that fails it (none are expected by
//! construction — the margins make cross-shard conflicts impossible — but
//! frozen corner cases are cheap to guard) runs the per-step dense scan,
//! which finds the violating pairs: one particle of each is demoted to
//! wait-in-place and then re-planned serially against the merged
//! reservation table.

use super::astar_soa::{position_at, window_astar, window_path, Scratch, WindowReservations};
use super::EXPANSION_CAP;
use crate::routing::RoutingProblem;
use labchip_units::{GridCoord, GridDims};

/// Reusable dense occupancy scan: one `u32` occupant id and epoch stamp
/// per cell of a box, re-stamped per step instead of rebuilding a hash map.
/// The crate's one conflict scanner — it verifies every merged router
/// window ([`verify_and_repair`]), whole routing outcomes
/// ([`crate::routing::RoutingOutcome::is_conflict_free`]) and the starts
/// and goals of routing problems
/// ([`crate::routing::RoutingProblem::validate`]).
#[derive(Debug, Default)]
pub(crate) struct ConflictScan {
    lo_x: u32,
    lo_y: u32,
    cols: usize,
    rows: usize,
    occupant: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Per step, the first particle whose next move is at that step
    /// ([`Self::stays_clear`]); the rest of the bucket follows
    /// `bucket_next`.
    bucket_head: Vec<u32>,
    bucket_next: Vec<u32>,
    /// The particles moving at the step being checked.
    moved: Vec<u32>,
}

/// The end of a bucket list.
const NO_PARTICLE: u32 = u32::MAX;

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

    /// Every occupant within Chebyshev distance `< sep` of `c`, which must
    /// lie in the box: the cells of the zone
    /// [`for_each_zone_cell`](crate::routing::for_each_zone_cell) walks,
    /// read row by row from the square clipped to the box.
    fn zone_occupants(&self, c: GridCoord, sep: u32, mut f: impl FnMut(usize)) {
        let Some(r) = sep.checked_sub(1) else {
            return;
        };
        let r = r as usize;
        let (x, y) = ((c.x - self.lo_x) as usize, (c.y - self.lo_y) as usize);
        let (x0, x1) = (x.saturating_sub(r), (x + r).min(self.cols - 1));
        for row in y.saturating_sub(r)..=(y + r).min(self.rows - 1) {
            let cells = row * self.cols + x0..=row * self.cols + x1;
            for (&stamp, &occupant) in self.stamp[cells.clone()].iter().zip(&self.occupant[cells]) {
                if stamp == self.epoch {
                    f(occupant as usize);
                }
            }
        }
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

    /// Whether `n` particles keep `sep ≥ 1` apart at every step
    /// `0..=horizon`, where particle `i` follows `path(i)` (its cell at
    /// steps 0, 1, …, staying on the last one afterwards) inside the box
    /// `[lo, hi]`. The same answer as an empty [`Self::first_conflicts`]
    /// over those steps, found faster: after a full check of step 0, each
    /// step re-checks only the particles that moved into it. Two particles
    /// that both stood still were already checked the step before.
    pub(crate) fn stays_clear<'p>(
        &mut self,
        (lo, hi): (GridCoord, GridCoord),
        horizon: usize,
        n: usize,
        path: impl Fn(usize) -> &'p [GridCoord],
        sep: u32,
    ) -> bool {
        self.first_conflicts((lo, hi), 0..=0, n, |i, _| path(i)[0], sep)
            .is_empty()
            && self.moves_stay_clear(horizon, n, path, sep)
    }

    /// [`Self::stays_clear`] for particles whose step-0 cells are known to
    /// keep the separation: step 0 is placed, not checked (debug builds
    /// still check it).
    fn stays_clear_from_clear_start<'p>(
        &mut self,
        (lo, hi): (GridCoord, GridCoord),
        horizon: usize,
        n: usize,
        path: impl Fn(usize) -> &'p [GridCoord],
        sep: u32,
    ) -> bool {
        debug_assert!(
            self.first_conflicts((lo, hi), 0..=0, n, |i, _| path(i)[0], sep)
                .is_empty(),
            "step 0 keeps the separation"
        );
        self.begin(lo, hi);
        self.bump();
        for i in 0..n {
            self.place(i, path(i)[0]);
        }
        self.moves_stay_clear(horizon, n, path, sep)
    }

    /// The moved-only part of [`Self::stays_clear`], on a grid that holds
    /// step 0 with one particle per cell, clear of each other.
    ///
    /// Moves are bucketed by step: each particle waits in the bucket of
    /// its next move, found by reading its path on from the last one, so
    /// the check reads each path once and holds one bucket entry per
    /// particle.
    fn moves_stay_clear<'p>(
        &mut self,
        horizon: usize,
        n: usize,
        path: impl Fn(usize) -> &'p [GridCoord],
        sep: u32,
    ) -> bool {
        self.bucket_head.clear();
        self.bucket_head.resize(horizon + 1, NO_PARTICLE);
        self.bucket_next.clear();
        self.bucket_next.resize(n, NO_PARTICLE);
        for i in 0..n {
            self.file_next_move(i, path(i), 1, horizon);
        }
        let mut moved = std::mem::take(&mut self.moved);
        let clear = (1..=horizon).all(|t| {
            moved.clear();
            let mut i = self.bucket_head[t];
            while i != NO_PARTICLE {
                moved.push(i);
                i = self.bucket_next[i as usize];
            }
            for &i in &moved {
                let k = self.slot(path(i as usize)[t - 1]);
                if self.occupant[k] == i {
                    self.stamp[k] = 0;
                }
            }
            for &i in &moved {
                let to = path(i as usize)[t];
                if self.stamp[self.slot(to)] == self.epoch {
                    return false; // two particles in one cell
                }
                self.place(i as usize, to);
            }
            let mut clear = true;
            for &i in &moved {
                let i = i as usize;
                self.zone_occupants(path(i)[t], sep, |j| clear &= j == i);
                self.file_next_move(i, path(i), t + 1, horizon);
            }
            clear
        });
        self.moved = moved;
        clear
    }

    /// Files particle `i` in the bucket of the first step in
    /// `from..=horizon` at which `cells` changes cell, if any.
    fn file_next_move(&mut self, i: usize, cells: &[GridCoord], from: usize, horizon: usize) {
        let end = cells.len().min(horizon + 1);
        if let Some(t) = (from..end).find(|&t| cells[t] != cells[t - 1]) {
            self.bucket_next[i] = self.bucket_head[t];
            self.bucket_head[t] = i as u32;
        }
    }

    /// All conflicting particle pairs found at the first conflicting step
    /// of a merged window, where particle `i` starts on `positions[i]` and
    /// follows `trajs[i]` (see [`window_path`]); stops there so repair can
    /// fix that step before re-verifying.
    fn window_conflicts(
        &mut self,
        dims: GridDims,
        positions: &[GridCoord],
        trajs: &[Vec<GridCoord>],
        window: usize,
        sep: u32,
    ) -> Vec<(usize, usize)> {
        self.first_conflicts(
            grid_box(dims),
            1..=window,
            trajs.len(),
            |i, t| position_at(window_path(&trajs[i], &positions[i]), t),
            sep,
        )
    }
}

/// The inclusive cell box of the whole grid.
fn grid_box(dims: GridDims) -> (GridCoord, GridCoord) {
    (
        GridCoord::new(0, 0),
        GridCoord::new(dims.cols.saturating_sub(1), dims.rows.saturating_sub(1)),
    )
}

/// Verifies a merged window, where particle `i` starts on `positions[i]`
/// and follows `trajs[i]` (see [`window_path`]). A clean window, the
/// expected case, is confirmed by the moved-only scan and left untouched;
/// any other runs [`repair`]. With a separation of at least 1 the window
/// start is not re-checked: the first window starts on the problem's
/// validated starts, and every later one where the window before ended,
/// on a step that window's scan or repair left clean.
pub(crate) fn verify_and_repair(
    problem: &RoutingProblem,
    positions: &[GridCoord],
    goals: &[GridCoord],
    trajs: &mut [Vec<GridCoord>],
    window: usize,
    sep: u32,
    scan: &mut ConflictScan,
) {
    let path = |i: usize| window_path(&trajs[i], &positions[i]);
    let (bounds, n) = (grid_box(problem.dims), trajs.len());
    let clear = if problem.min_separation > 0 {
        scan.stays_clear_from_clear_start(bounds, window, n, path, sep)
    } else {
        // Separation 0 lets two particles start in one cell, which the
        // router's own separation of 1 counts as a conflict.
        scan.stays_clear(bounds, window, n, path, sep)
    };
    if !clear {
        repair(problem, positions, goals, trajs, window, sep, scan);
    }
}

/// Repairs a merged window with the per-step dense scan: conflicting
/// particles are demoted to wait-in-place until the window is clean, then
/// re-planned serially against the merged reservations.
fn repair(
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
        let offenders = scan.window_conflicts(problem.dims, positions, trajs, window, sep);
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
                trajs[victim].clear();
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
    for (traj, start) in trajs.iter().zip(positions) {
        reservations.add_path(window_path(traj, start));
    }
    let dims = problem.dims;
    let lo = GridCoord::new(0, 0);
    let hi = GridCoord::new(dims.cols - 1, dims.rows - 1);
    let mut scratch = Scratch::default();
    for &i in &demoted {
        reservations.remove_path(window_path(&trajs[i], &positions[i]));
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
        let offenders = scan.window_conflicts(problem.dims, positions, trajs, window, sep);
        if offenders.is_empty() {
            break;
        }
        for (a, b) in offenders {
            let victim = a.max(b);
            if trajs[victim].len() > 1 {
                trajs[victim].clear();
            } else {
                trajs[a.min(b)].clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOW: usize = 4;
    const SEP: u32 = 2;

    fn cells(raw: &[(u32, u32)]) -> Vec<GridCoord> {
        raw.iter().map(|&(x, y)| GridCoord::new(x, y)).collect()
    }

    fn problem() -> RoutingProblem {
        RoutingProblem::new(GridDims::square(16), Vec::new())
    }

    /// Window starts and goals of three particles: one heading right along
    /// row 1, one on row 1 further right, one parked far away.
    fn setup() -> (Vec<GridCoord>, Vec<GridCoord>) {
        (
            cells(&[(1, 1), (6, 1), (10, 10)]),
            cells(&[(5, 1), (12, 1), (10, 10)]),
        )
    }

    fn clear(positions: &[GridCoord], trajs: &[Vec<GridCoord>]) -> bool {
        ConflictScan::default().stays_clear(
            grid_box(problem().dims),
            WINDOW,
            trajs.len(),
            |i| window_path(&trajs[i], &positions[i]),
            SEP,
        )
    }

    #[test]
    fn a_clean_window_is_left_untouched() {
        let (positions, goals) = setup();
        let mut trajs = vec![
            cells(&[(1, 1), (2, 1), (3, 1), (4, 1)]),
            cells(&[(6, 1), (7, 1), (8, 1)]),
            Vec::new(),
        ];
        let before = trajs.clone();
        let mut scan = ConflictScan::default();
        verify_and_repair(
            &problem(),
            &positions,
            &goals,
            &mut trajs,
            WINDOW,
            SEP,
            &mut scan,
        );
        assert_eq!(trajs, before);
    }

    #[test]
    fn a_conflict_takes_the_dense_fallback_and_is_repaired() {
        let (positions, goals) = setup();
        // Particle 1 waits two steps, then steps left into particle 0's
        // path: at step 3 they sit on (4, 1) and (5, 1).
        let merged = vec![
            cells(&[(1, 1), (2, 1), (3, 1), (4, 1)]),
            cells(&[(6, 1), (6, 1), (6, 1), (5, 1)]),
            Vec::new(),
        ];
        assert!(
            !clear(&positions, &merged),
            "the moved-only check must fail"
        );

        let mut verified = merged.clone();
        let mut scan = ConflictScan::default();
        verify_and_repair(
            &problem(),
            &positions,
            &goals,
            &mut verified,
            WINDOW,
            SEP,
            &mut scan,
        );
        let mut repaired = merged.clone();
        repair(
            &problem(),
            &positions,
            &goals,
            &mut repaired,
            WINDOW,
            SEP,
            &mut scan,
        );

        assert_eq!(verified, repaired);
        assert_ne!(verified, merged, "repair must change the window");
        assert!(clear(&positions, &verified));
        assert!(scan
            .window_conflicts(problem().dims, &positions, &verified, WINDOW, SEP)
            .is_empty());
    }
}
