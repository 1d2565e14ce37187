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

use super::astar_soa::{position_at, window_astar, window_path, with_arena, Arena, CellBox};
use super::EXPANSION_CAP;
use crate::routing::RoutingProblem;
use labchip_units::{GridCoord, GridDims};

/// Reusable dense occupancy scan: one `u32` occupant id and epoch stamp
/// per cell of a box, re-stamped per step instead of rebuilding a hash map.
/// The crate's one conflict scanner — it verifies every merged router
/// window ([`verify_and_repair`]), whole routing outcomes
/// ([`crate::routing::RoutingOutcome::is_conflict_free`]) and the starts
/// and goals of routing problems
/// ([`crate::routing::RoutingProblem::validate`]). It lives in the
/// thread's [`Arena`].
#[derive(Debug, Default)]
pub(crate) struct ConflictScan {
    cells: CellBox,
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
        self.cells = CellBox::new(lo, hi);
        let cells = self.cells.cells();
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

    fn place(&mut self, i: usize, c: GridCoord) {
        let k = self.cells.slot(c);
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
        let CellBox { lo, bw, bh } = self.cells;
        let (x, y) = ((c.x - lo.x) as usize, (c.y - lo.y) as usize);
        let (x0, x1) = (x.saturating_sub(r), (x + r).min(bw - 1));
        for row in y.saturating_sub(r)..=(y + r).min(bh - 1) {
            let cells = row * bw + x0..=row * bw + x1;
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
                let k = self.cells.slot(path(i as usize)[t - 1]);
                if self.occupant[k] == i {
                    self.stamp[k] = 0;
                }
            }
            for &i in &moved {
                let to = path(i as usize)[t];
                if self.stamp[self.cells.slot(to)] == self.epoch {
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
pub(crate) fn grid_box(dims: GridDims) -> (GridCoord, GridCoord) {
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
) {
    let path = |i: usize| window_path(&trajs[i], &positions[i]);
    let (bounds, n) = (grid_box(problem.dims), trajs.len());
    let clear = with_arena(|Arena { scan, .. }| {
        if problem.min_separation > 0 {
            scan.stays_clear_from_clear_start(bounds, window, n, path, sep)
        } else {
            // Separation 0 lets two particles start in one cell, which the
            // router's own separation of 1 counts as a conflict.
            scan.stays_clear(bounds, window, n, path, sep)
        }
    });
    if !clear {
        repair(problem, positions, goals, trajs, window, sep);
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
) {
    with_arena(|arena| {
        let Arena {
            scratch,
            reservations,
            scan,
            ..
        } = arena;
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
                let preferred = if (positions[a].manhattan(goals[a]), a)
                    >= (positions[b].manhattan(goals[b]), b)
                {
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
        // else's current trajectories: the merged ones, the re-planned ones
        // and the stays of those still waiting. The dense table cannot drop a
        // path, so it is rebuilt per particle; this is a cold path.
        let (lo, hi) = grid_box(problem.dims);
        for &i in &demoted {
            reservations.begin(window, sep, lo, hi);
            for (j, (traj, start)) in trajs.iter().zip(positions).enumerate() {
                if j != i {
                    reservations.add_path(window_path(traj, start));
                }
            }
            let path = window_astar(
                lo,
                hi,
                |_| true,
                positions[i],
                goals[i],
                reservations,
                scratch,
                EXPANSION_CAP,
            );
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
    });
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
        verify_and_repair(&problem(), &positions, &goals, &mut trajs, WINDOW, SEP);
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
        verify_and_repair(&problem(), &positions, &goals, &mut verified, WINDOW, SEP);
        let mut repaired = merged.clone();
        repair(&problem(), &positions, &goals, &mut repaired, WINDOW, SEP);

        assert_eq!(verified, repaired);
        assert_ne!(verified, merged, "repair must change the window");
        assert!(clear(&positions, &verified));
        assert!(ConflictScan::default()
            .window_conflicts(problem().dims, &positions, &verified, WINDOW, SEP)
            .is_empty());
    }

    /// SplitMix64: a tiny deterministic stream for deriving test inputs.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One seeded merged window with injected conflicts: up to 14
    /// particles start clear of each other on a small grid, and each
    /// either stays put or follows a random walk that ignores everyone
    /// else. Returns the problem, the window length, the starts, goals
    /// and merged trajectories.
    #[allow(clippy::type_complexity)]
    fn conflicting_window(
        seed: u64,
    ) -> (
        RoutingProblem,
        usize,
        Vec<GridCoord>,
        Vec<GridCoord>,
        Vec<Vec<GridCoord>>,
    ) {
        let mut state = mix(seed);
        let mut next = |bound: u64| {
            state = mix(state);
            state % bound
        };
        let side = 10 + next(11) as u32;
        let mut problem = RoutingProblem::new(GridDims::square(side), Vec::new());
        problem.min_separation = next(4) as u32;
        let sep = problem.min_separation.max(1);
        let window = 2 + next(7) as usize;
        let mut positions: Vec<GridCoord> = Vec::new();
        for _ in 0..40 {
            let c = GridCoord::new(next(u64::from(side)) as u32, next(u64::from(side)) as u32);
            if positions.len() < 14 && positions.iter().all(|p| p.chebyshev(c) >= sep) {
                positions.push(c);
            }
        }
        let goals = positions
            .iter()
            .map(|_| GridCoord::new(next(u64::from(side)) as u32, next(u64::from(side)) as u32))
            .collect();
        let trajs = positions
            .iter()
            .map(|&start| {
                if next(4) == 0 {
                    return Vec::new();
                }
                let mut c = start;
                let mut path = vec![c];
                for _ in 0..1 + next(window as u64) {
                    let (dx, dy) = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)][next(5) as usize];
                    c = c
                        .offset(dx, dy)
                        .filter(|n| n.x < side && n.y < side)
                        .unwrap_or(c);
                    path.push(c);
                }
                path
            })
            .collect();
        (problem, window, positions, goals, trajs)
    }

    /// Repair of seeded conflicting windows: every repaired window is
    /// clean, and the repaired trajectories hash (FNV-1a over each
    /// trajectory's length and cells, case by case) to a pinned digest,
    /// so a change to how repair re-plans shows up here.
    #[test]
    fn seeded_conflicting_windows_repair_to_a_pinned_digest() {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fnv = |word: u32| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mut scan = ConflictScan::default();
        let mut conflicting = 0;
        for seed in 0..96 {
            let (problem, window, positions, goals, mut trajs) = conflicting_window(seed);
            let sep = problem.min_separation.max(1);
            let clean = |scan: &mut ConflictScan, trajs: &[Vec<GridCoord>]| {
                scan.stays_clear(
                    grid_box(problem.dims),
                    window,
                    trajs.len(),
                    |i| window_path(&trajs[i], &positions[i]),
                    sep,
                )
            };
            if !clean(&mut scan, &trajs) {
                conflicting += 1;
            }
            verify_and_repair(&problem, &positions, &goals, &mut trajs, window, sep);
            assert!(
                clean(&mut scan, &trajs),
                "seed {seed}: the repaired window must be clean"
            );
            for traj in &trajs {
                fnv(traj.len() as u32);
                for c in traj {
                    fnv(c.x);
                    fnv(c.y);
                }
            }
        }
        assert!(conflicting >= 48, "only {conflicting} of 96 cases conflict");
        assert_eq!(hash, 0x2356_1359_f0a1_43e9);
    }
}
