//! Struct-of-arrays hot paths for the windowed space–time A\*.
//!
//! The per-shard planning loop used to allocate a fresh `HashMap`-backed
//! reservation table and scratch buffer inside the rayon closure for every
//! shard of every window — the allocation traffic was what made the pinned
//! thread-scaling curve go *backwards*. Everything here is flat arrays over
//! a dense cell or `(cell, step)` index space, cleared without freeing (by
//! an epoch stamp, or for the reservation bits by emptying one plane), and
//! bundled into one [`Arena`] per thread, lent out by [`with_arena`]. Every
//! planner of the crate borrows its scratch there: the tile pass, window
//! verification and repair, the prioritized planner, and the conflict scans
//! of problem validation and outcome checking. So the scratch lives as long
//! as the thread that plans: a rayon worker, or the caller.
//!
//! [`DenseReservations`] is the crate's one reservation table, and
//! [`DenseZone`] its one parked-zone counter: every tile search plans
//! against them over its tile interior, the rare serial repair re-plans
//! each demoted particle against a whole-grid table, and the prioritized
//! planner of [`crate::routing`] plans against a whole-grid table over its
//! whole horizon.
//!
//! The inner loop of [`window_astar`] runs millions of times per
//! paper-scale solve, so each expansion is kept to a few array reads: the
//! open set is a [`BucketQueue`] of `(f, t)` buckets instead of a heap, a
//! neighbour is tested against the visited stamps before the costlier
//! `allowed` and reservation predicates, the caller passes the tile
//! *interior* as the search box so `allowed` need not re-derive tile
//! membership and margins (it reads one [`DenseZone`] counter), and
//! [`DenseReservations`] answers "free until the window ends" with one
//! comparison. None of this changes a plan: the pop order is the same
//! total order over states, and the reordered tests are pure predicates.

use super::verify::ConflictScan;
use crate::routing::for_each_zone_cell;
use labchip_units::GridCoord;
use std::cell::RefCell;

/// The position of a window path at step `t` (paths park on their last
/// cell for the remainder of the window).
pub(crate) fn position_at(path: &[GridCoord], t: usize) -> GridCoord {
    path[t.min(path.len() - 1)]
}

/// The window path of a particle that starts the window on `*start`. The
/// merged window stores an empty trajectory for a particle that stays put
/// (frozen, or parked on its goal), so it needs no `Vec` of its own; that
/// reads as the one-cell path `[*start]`.
pub(crate) fn window_path<'a>(traj: &'a [GridCoord], start: &'a GridCoord) -> &'a [GridCoord] {
    if traj.is_empty() {
        std::slice::from_ref(start)
    } else {
        traj
    }
}

/// The inclusive cell box `[lo, hi]` a dense table is begun over, indexed
/// row-major. Zone cells spilling outside it are dropped on write and read
/// as clear: every query the router makes is for a cell inside the box the
/// table was begun with (a tile interior, or the whole grid).
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct CellBox {
    pub(super) lo: GridCoord,
    pub(super) bw: usize,
    pub(super) bh: usize,
}

impl CellBox {
    pub(super) fn new(lo: GridCoord, hi: GridCoord) -> Self {
        Self {
            lo,
            bw: (hi.x - lo.x + 1) as usize,
            bh: (hi.y - lo.y + 1) as usize,
        }
    }

    pub(super) fn cells(self) -> usize {
        self.bw * self.bh
    }

    /// Flat index of `c`, which must lie in the box.
    pub(super) fn slot(self, c: GridCoord) -> usize {
        (c.y - self.lo.y) as usize * self.bw + (c.x - self.lo.x) as usize
    }

    /// Flat index of `c` within the box, or `None` outside it.
    fn index(self, c: GridCoord) -> Option<usize> {
        let x = c.x.checked_sub(self.lo.x)? as usize;
        let y = c.y.checked_sub(self.lo.y)? as usize;
        (x < self.bw && y < self.bh).then_some(y * self.bw + x)
    }
}

/// Dense zone counter over a fixed cell box, epoch-cleared in O(1). A
/// tile's `parked` counter holds the zones of its members and of the
/// frozen particles that reach into it: the one blocked mask its searches
/// read. The prioritized planner keeps the zones of its parked starts in
/// one over the whole grid.
#[derive(Debug, Default)]
pub(crate) struct DenseZone {
    cells: CellBox,
    counts: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl DenseZone {
    /// Re-targets the counter to the inclusive cell box `[lo, hi]` and
    /// clears it (lazily, via the epoch stamp).
    pub(crate) fn begin(&mut self, lo: GridCoord, hi: GridCoord) {
        self.cells = CellBox::new(lo, hi);
        let cells = self.cells.cells();
        if self.counts.len() < cells {
            self.counts.resize(cells, 0);
            self.stamp.resize(cells, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    pub(crate) fn add(&mut self, center: GridCoord, radius: u32) {
        let (cells, epoch) = (self.cells, self.epoch);
        let (counts, stamp) = (&mut self.counts, &mut self.stamp);
        for_each_zone_cell(center, radius, |c| {
            if let Some(k) = cells.index(c) {
                if stamp[k] != epoch {
                    stamp[k] = epoch;
                    counts[k] = 0;
                }
                counts[k] += 1;
            }
        });
    }

    pub(crate) fn remove(&mut self, center: GridCoord, radius: u32) {
        let (cells, epoch) = (self.cells, self.epoch);
        let (counts, stamp) = (&mut self.counts, &mut self.stamp);
        for_each_zone_cell(center, radius, |c| {
            if let Some(k) = cells.index(c) {
                if stamp[k] == epoch && counts[k] > 0 {
                    counts[k] -= 1;
                }
            }
        });
    }

    pub(crate) fn blocked(&self, c: GridCoord) -> bool {
        self.cells
            .index(c)
            .is_some_and(|k| self.stamp[k] == self.epoch && self.counts[k] > 0)
    }
}

/// Dense space–time reservations over one window and one cell box (a tile
/// interior, or the whole grid for repair and for the prioritized
/// planner): one bitset plane per step, one bit per reserved cell. The
/// table only ever gains reservations (its users rebuild it rather than
/// remove a path), so a bit is all a reservation needs.
///
/// A path parks on its last cell for the rest of the window, so once every
/// reserved path has ended, all later steps look alike. The table keeps
/// planes only up to the longest path reserved (at most `window + 1`) and
/// reads a later step from the last plane. Its size follows the paths, not
/// the horizon: the prioritized planner's whole-grid table at E10's 320²
/// and 770 steps is at most about 10 MB.
///
/// Per cell it also keeps `until`: one past the last step reserved there
/// (`0` for none), epoch-stamped so that `begin` leaves it in O(1).
/// Because reservations are only ever added, a cell is free from step `t`
/// to the end of the window exactly when `until ≤ t`, which makes
/// [`Self::is_free_from`] one comparison.
#[derive(Debug, Default)]
pub(crate) struct DenseReservations {
    radius: u32,
    window: usize,
    cells: CellBox,
    /// Words per plane: each plane starts on a word.
    plane_words: usize,
    /// Planes held, at least 1 once begun.
    planes: usize,
    /// Bit `cell % 64` of word `t · plane_words + cell / 64` is set when
    /// that `(step, cell)` is reserved.
    reserved: Vec<u64>,
    until: Vec<u32>,
    until_stamp: Vec<u32>,
    epoch: u32,
}

impl DenseReservations {
    /// Re-targets the table to `window` steps over the inclusive box
    /// `[lo, hi]` and clears it: one empty plane is left, and `until` is
    /// dropped by bumping its epoch.
    pub(crate) fn begin(
        &mut self,
        window: usize,
        min_separation: u32,
        lo: GridCoord,
        hi: GridCoord,
    ) {
        self.radius = min_separation;
        self.window = window;
        self.cells = CellBox::new(lo, hi);
        let cells = self.cells.cells();
        self.plane_words = cells.div_ceil(64);
        if self.reserved.len() < self.plane_words {
            self.reserved.resize(self.plane_words, 0);
        }
        self.reserved[..self.plane_words].fill(0);
        self.planes = 1;
        if self.until.len() < cells {
            self.until.resize(cells, 0);
            self.until_stamp.resize(cells, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.until_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    pub(crate) fn add_path(&mut self, path: &[GridCoord]) {
        // New planes copy the last one: every path reserved so far is
        // parked there.
        let (w, planes) = (self.plane_words, path.len().min(self.window + 1));
        if self.reserved.len() < planes * w {
            self.reserved.resize(planes * w, 0);
        }
        for t in self.planes..planes {
            self.reserved.copy_within((t - 1) * w..t * w, t * w);
        }
        self.planes = self.planes.max(planes);

        let (cells, epoch, last) = (self.cells, self.epoch, self.planes - 1);
        let end = self.window as u32 + 1;
        let (reserved, until, until_stamp) =
            (&mut self.reserved, &mut self.until, &mut self.until_stamp);
        for t in 0..=last {
            for_each_zone_cell(position_at(path, t), self.radius, |c| {
                if let Some(cell) = cells.index(c) {
                    reserved[t * w + cell / 64] |= 1 << (cell % 64);
                    if until_stamp[cell] != epoch {
                        until_stamp[cell] = epoch;
                        until[cell] = 0;
                    }
                    // The last plane stands for every step to the window's end.
                    let reach = if t == last { end } else { t as u32 + 1 };
                    until[cell] = until[cell].max(reach);
                }
            });
        }
    }

    /// Number of planned steps (the table covers steps `0..=window()`).
    pub(crate) fn window(&self) -> usize {
        self.window
    }

    /// Whether `c` is unreserved at step `t` (clamped to the window end).
    pub(crate) fn is_free(&self, c: GridCoord, t: usize) -> bool {
        self.cells.index(c).is_none_or(|cell| {
            let word = self.reserved[t.min(self.planes - 1) * self.plane_words + cell / 64];
            word >> (cell % 64) & 1 == 0
        })
    }

    /// Whether a particle parked at `c` from step `t` to the end of the
    /// window stays clear of every reservation.
    pub(crate) fn is_free_from(&self, c: GridCoord, t: usize) -> bool {
        self.cells.index(c).is_none_or(|cell| {
            self.until_stamp[cell] != self.epoch || self.until[cell] as usize <= t
        })
    }
}

/// The open set of the windowed A\*. It pops states in ascending
/// `(f, t, y, x)` order, so ties break on `(t, y, x)` and the expansion
/// order, and therefore the plan, is fully deterministic.
trait OpenSet {
    /// Empties the set for a search from a start with heuristic `f0`
    /// over a window of `window` steps.
    fn begin(&mut self, f0: u32, window: usize);
    fn push(&mut self, f: u32, t: u32, c: GridCoord);
    fn pop(&mut self) -> Option<(u32, u32, GridCoord)>;
}

/// The open set [`window_astar`] uses: one bucket of packed `y << 32 | x`
/// per `(f, t)`, walked in `(f, t)` order and sorted when first reached.
///
/// A search from `start` only pushes states with `f − h(start)` in
/// `0..=2·window` and `t` in `0..=window`: each step changes the
/// Manhattan heuristic by at most 1. A push lands on step `t + 1` and
/// comes from a pop at `(f', t)` with `f' ≤ f` (the heuristic is
/// consistent), which is before its bucket in `(f, t)` order. So a
/// bucket is complete when it is first reached, and popping it in sorted
/// order yields exactly the `(f, t, y, x)` sequence of a binary heap.
#[derive(Debug, Default)]
struct BucketQueue {
    /// Bucket `(f − f0) · steps + t`.
    buckets: Vec<Vec<u64>>,
    f0: u32,
    /// `window + 1`: the bucket count per `f`.
    steps: usize,
    /// One past the highest bucket pushed to since `begin`.
    end: usize,
    /// The bucket being popped, and the next entry in it.
    cur: usize,
    next: usize,
}

impl OpenSet for BucketQueue {
    fn begin(&mut self, f0: u32, window: usize) {
        for bucket in &mut self.buckets[..self.end] {
            bucket.clear();
        }
        self.steps = window + 1;
        let count = (2 * window + 1) * self.steps;
        if self.buckets.len() < count {
            self.buckets.resize_with(count, Vec::new);
        }
        self.f0 = f0;
        (self.end, self.cur, self.next) = (0, 0, 0);
    }

    fn push(&mut self, f: u32, t: u32, c: GridCoord) {
        let b = (f - self.f0) as usize * self.steps + t as usize;
        debug_assert!(
            b > self.cur || (b == 0 && self.end == 0),
            "push behind the walk"
        );
        self.buckets[b].push(u64::from(c.y) << 32 | u64::from(c.x));
        self.end = self.end.max(b + 1);
    }

    fn pop(&mut self) -> Option<(u32, u32, GridCoord)> {
        while self.cur < self.end {
            let bucket = &mut self.buckets[self.cur];
            if self.next < bucket.len() {
                if self.next == 0 {
                    bucket.sort_unstable();
                }
                let key = bucket[self.next];
                self.next += 1;
                let f = self.f0 + (self.cur / self.steps) as u32;
                let t = (self.cur % self.steps) as u32;
                return Some((f, t, GridCoord::new(key as u32, (key >> 32) as u32)));
            }
            self.cur += 1;
            self.next = 0;
        }
        None
    }
}

/// Reusable flat-array scratch space for the windowed A\*: visited stamps
/// and parent links indexed by `(cell, t)` — cleared in O(1) via an epoch
/// stamp — plus the open set, whose allocations are reused across calls.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    visited: Vec<u32>,
    parent: Vec<u32>,
    epoch: u32,
    open: BucketQueue,
}

impl Scratch {
    fn begin(&mut self, states: usize) {
        if self.visited.len() < states {
            self.visited.resize(states, 0);
            self.parent.resize(states, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visited.iter_mut().for_each(|v| *v = 0);
            self.epoch = 1;
        }
    }
}

/// One thread's planner scratch: A\* scratch, the dense reservation table,
/// the parked-zone counter and the conflict scan. Every table is re-begun
/// (and so epoch-cleared) by its user before use, so what an earlier call
/// left in it cannot change a plan.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    pub(crate) scratch: Scratch,
    pub(crate) reservations: DenseReservations,
    pub(crate) parked: DenseZone,
    pub(crate) scan: ConflictScan,
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::new(Arena::default());
}

/// Lends `f` this thread's [`Arena`]. Its tables keep their allocations
/// from call to call, so a thread that plans again allocates nothing new
/// unless the tables must grow.
///
/// The one rule: `with_arena` is never entered while this thread's arena
/// is lent out, and never wraps a `par_iter` call (the calling thread runs
/// items of the call like any worker, and an item that borrows the arena
/// would enter it again). A nested borrow panics in `RefCell::borrow_mut`;
/// there is no fallback.
pub(crate) fn with_arena<R>(f: impl FnOnce(&mut Arena) -> R) -> R {
    ARENA.with(|arena| f(&mut arena.borrow_mut()))
}

/// Plans the best window path for one particle: a sequence of positions
/// `[start, ...]` of length ≤ `window + 1` ending on a cell that is safe to
/// park on for the rest of the window, minimising the Manhattan distance to
/// `goal` (then arrival time). Falls back to waiting at `start`.
///
/// The search stops as soon as no state left in the open set can improve
/// on the best parking spot (see [`search`]), so a particle whose goal lies
/// beyond the window no longer pops its whole reachable space–time cone.
#[allow(clippy::too_many_arguments)]
pub(crate) fn window_astar(
    lo: GridCoord,
    hi: GridCoord,
    allowed: impl Fn(GridCoord) -> bool,
    start: GridCoord,
    goal: GridCoord,
    reservations: &DenseReservations,
    scratch: &mut Scratch,
    cap: usize,
) -> Vec<GridCoord> {
    let mut open = std::mem::take(&mut scratch.open);
    let path = search::<true>(
        lo,
        hi,
        allowed,
        start,
        goal,
        reservations,
        scratch,
        &mut open,
        cap,
    );
    scratch.open = open;
    path
}

/// [`window_astar`] without the bound-pruned stop: pops every reachable
/// state (up to `cap`). The reference the early exit is tested against.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn window_astar_exhaustive(
    lo: GridCoord,
    hi: GridCoord,
    allowed: impl Fn(GridCoord) -> bool,
    start: GridCoord,
    goal: GridCoord,
    reservations: &DenseReservations,
    scratch: &mut Scratch,
    cap: usize,
) -> Vec<GridCoord> {
    let mut open = BucketQueue::default();
    search::<false>(
        lo,
        hi,
        allowed,
        start,
        goal,
        reservations,
        scratch,
        &mut open,
        cap,
    )
}

/// The windowed A\* behind [`window_astar`]. With `PRUNE`, the loop breaks
/// once a popped `f` exceeds `best.h + window`: the Manhattan heuristic is
/// consistent, so popped `f` never decreases, and every state popped later
/// has `h = f - t ≥ f - window > best.h`. So `best` cannot change after
/// that point. `best_moving` still could, but only to a spot with
/// `h > best.h`, and the stall-breaking rule below takes `best_moving` only
/// when its `h` equals `best.h`, so the choice between them cannot change
/// either. Parent links are written once per state, so the returned path
/// is identical to the exhaustive search's.
#[allow(clippy::too_many_arguments)]
fn search<const PRUNE: bool>(
    lo: GridCoord,
    hi: GridCoord,
    allowed: impl Fn(GridCoord) -> bool,
    start: GridCoord,
    goal: GridCoord,
    reservations: &DenseReservations,
    scratch: &mut Scratch,
    open: &mut impl OpenSet,
    cap: usize,
) -> Vec<GridCoord> {
    let window = reservations.window();
    let bw = (hi.x - lo.x + 1) as usize;
    let bh = (hi.y - lo.y + 1) as usize;
    let idx = |c: GridCoord, t: usize| -> usize {
        (t * bh + (c.y - lo.y) as usize) * bw + (c.x - lo.x) as usize
    };
    let coord_of = |state: usize| -> (GridCoord, usize) {
        let t = state / (bw * bh);
        let rem = state % (bw * bh);
        (
            GridCoord::new(lo.x + (rem % bw) as u32, lo.y + (rem / bw) as u32),
            t,
        )
    };
    scratch.begin(bw * bh * (window + 1));

    let h = |c: GridCoord| c.manhattan(goal);
    open.begin(h(start), window);
    open.push(h(start), 0, start);
    scratch.visited[idx(start, 0)] = scratch.epoch;

    // Best parking spot so far: minimise (distance-to-goal, t, y, x). The
    // best spot *away from the start* is tracked separately: when no
    // distance progress is possible at all, parking on an equal-distance
    // sidestep instead of waiting is what lets two head-on particles rotate
    // around each other across successive windows.
    let mut best: Option<(u32, usize, GridCoord)> = None;
    let mut best_moving: Option<(u32, usize, GridCoord)> = None;
    fn update(slot: &mut Option<(u32, usize, GridCoord)>, key: (u32, usize, GridCoord)) {
        match slot {
            Some(existing) if *existing <= key => {}
            _ => *slot = Some(key),
        }
    }
    let consider = |c: GridCoord,
                    t: usize,
                    best: &mut Option<(u32, usize, GridCoord)>,
                    best_moving: &mut Option<(u32, usize, GridCoord)>| {
        if !reservations.is_free_from(c, t) {
            return;
        }
        let key = (h(c), t, c);
        update(best, key);
        if c != start {
            update(best_moving, key);
        }
    };
    consider(start, 0, &mut best, &mut best_moving);

    let mut expansions = 0usize;
    while let Some((f, t, c)) = open.pop() {
        if PRUNE {
            if let Some((d, _, _)) = best {
                if f as usize > d as usize + window {
                    break; // nothing left can beat the best parking spot
                }
            }
        }
        let t = t as usize;
        consider(c, t, &mut best, &mut best_moving);
        if let Some((0, bt, bc)) = best {
            if bc == c && bt == t {
                break; // reached the goal and can park there
            }
        }
        expansions += 1;
        if expansions > cap || t >= window {
            if expansions > cap {
                break;
            }
            continue;
        }
        let here = idx(c, t) as u32;
        for (dx, dy) in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)] {
            let Some(next) = c.offset(dx, dy) else {
                continue;
            };
            if next.x < lo.x || next.x > hi.x || next.y < lo.y || next.y > hi.y {
                continue;
            }
            // Cheapest test first: all three are pure predicates.
            let slot = idx(next, t + 1);
            if scratch.visited[slot] == scratch.epoch
                || !allowed(next)
                || !reservations.is_free(next, t + 1)
            {
                continue;
            }
            scratch.visited[slot] = scratch.epoch;
            scratch.parent[slot] = here;
            let next_t = (t + 1) as u32;
            open.push(next_t + h(next), next_t, next);
        }
    }

    // Stall breaking: if the best reachable distance equals the start's
    // (no progress possible) prefer an equal-distance sidestep over waiting.
    if let (Some((d, _, _)), Some(moving)) = (best, best_moving) {
        if d > 0 && d == h(start) && moving.0 == d {
            best = Some(moving);
        }
    }
    let Some((_, stop_t, stop_c)) = best else {
        return vec![start]; // defensive: the start always qualifies
    };
    let mut positions = vec![stop_c];
    let mut state = idx(stop_c, stop_t);
    for _ in 0..stop_t {
        state = scratch.parent[state] as usize;
        let (c, _) = coord_of(state);
        positions.push(c);
    }
    positions.reverse();
    positions
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// SplitMix64: a tiny deterministic stream for deriving test inputs.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random walk of up to `window` steps from a cell of the box
    /// `[lo, hi]`; shorter walks park on their last cell.
    fn walk(seed: u64, lo: GridCoord, hi: GridCoord, window: usize) -> Vec<GridCoord> {
        let (bw, bh) = (u64::from(hi.x - lo.x + 1), u64::from(hi.y - lo.y + 1));
        let mut c = GridCoord::new(
            lo.x + (mix(seed) % bw) as u32,
            lo.y + (mix(seed ^ 1) % bh) as u32,
        );
        let mut path = vec![c];
        let mut bits = mix(seed ^ 2);
        for _ in 0..mix(seed ^ 3) % (window as u64 + 1) {
            let (dx, dy) = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)][(bits % 5) as usize];
            bits = mix(bits);
            c = c.offset(dx, dy).unwrap_or(c);
            path.push(c);
        }
        path
    }

    /// One windowed search problem: a box, a start in it, a goal that may
    /// lie outside it, a blocked-cell mask and random-walk reservations.
    struct Case {
        lo: GridCoord,
        hi: GridCoord,
        start: GridCoord,
        goal: GridCoord,
        mask_seed: u64,
        blocked_fifths: usize,
        reservations: DenseReservations,
    }

    impl Case {
        fn new(
            (lx, ly, bw, bh): (u32, u32, u32, u32),
            (window, sep, blocked_fifths): (usize, u32, usize),
            ends: (u64, u64),
            walk_seeds: &[u64],
            mask_seed: u64,
        ) -> Self {
            let lo = GridCoord::new(lx, ly);
            let hi = GridCoord::new(lx + bw - 1, ly + bh - 1);
            let start = GridCoord::new(
                lx + (mix(ends.0) % u64::from(bw)) as u32,
                ly + (mix(ends.0 ^ 1) % u64::from(bh)) as u32,
            );
            // Goals may lie outside the box, as they do for tile-confined
            // searches of particles bound elsewhere.
            let goal = GridCoord::new(
                (mix(ends.1) % u64::from(lx + bw + 8)) as u32,
                (mix(ends.1 ^ 1) % u64::from(ly + bh + 8)) as u32,
            );
            let mut reservations = DenseReservations::default();
            reservations.begin(window, sep, lo, hi);
            for &seed in walk_seeds {
                reservations.add_path(&walk(seed, lo, hi, window));
            }
            Self {
                lo,
                hi,
                start,
                goal,
                mask_seed,
                blocked_fifths,
                reservations,
            }
        }

        fn allowed(&self, c: GridCoord) -> bool {
            c == self.start
                || mix(self.mask_seed ^ (u64::from(c.x) << 32 | u64::from(c.y))) % 5
                    >= self.blocked_fifths as u64
        }

        fn search(
            &self,
            scratch: &mut Scratch,
            open: &mut impl OpenSet,
            cap: usize,
        ) -> Vec<GridCoord> {
            let allowed = |c| self.allowed(c);
            search::<true>(
                self.lo,
                self.hi,
                allowed,
                self.start,
                self.goal,
                &self.reservations,
                scratch,
                open,
                cap,
            )
        }
    }

    /// The open set of a plain binary heap: the reference order the
    /// bucket queue must reproduce.
    #[derive(Default)]
    struct HeapOpen(BinaryHeap<Reverse<(u32, u32, u32, u32)>>);

    impl OpenSet for HeapOpen {
        fn begin(&mut self, _f0: u32, _window: usize) {
            self.0.clear();
        }

        fn push(&mut self, f: u32, t: u32, c: GridCoord) {
            self.0.push(Reverse((f, t, c.y, c.x)));
        }

        fn pop(&mut self) -> Option<(u32, u32, GridCoord)> {
            self.0
                .pop()
                .map(|Reverse((f, t, y, x))| (f, t, GridCoord::new(x, y)))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The bound-pruned search returns exactly the exhaustive search's
        /// path; the dense table's `is_free` agrees with a pairwise check
        /// of the walks, and its O(1) `is_free_from` with `is_free` at
        /// every remaining step, on every cell of the box.
        #[test]
        fn early_exit_matches_exhaustive_search(
            tile in (0u32..6, 0u32..6, 2u32..14, 2u32..14),
            shape in (1usize..14, 1u32..4, 0usize..6),
            ends in (0u64..u64::MAX, 0u64..u64::MAX),
            walk_seeds in collection::vec(0u64..u64::MAX, 0..6),
            mask_seed in 0u64..u64::MAX,
            cap in prop_oneof![Just(super::super::EXPANSION_CAP), 1usize..400],
        ) {
            let case = Case::new(tile, shape, ends, &walk_seeds, mask_seed);
            let (lo, hi, (window, sep, _)) = (case.lo, case.hi, shape);
            let dense = &case.reservations;
            let walks: Vec<_> = walk_seeds.iter().map(|&s| walk(s, lo, hi, window)).collect();
            for y in lo.y..=hi.y {
                for x in lo.x..=hi.x {
                    let c = GridCoord::new(x, y);
                    for t in 0..=window + 1 {
                        prop_assert_eq!(
                            dense.is_free(c, t),
                            walks.iter().all(|w| position_at(w, t).chebyshev(c) >= sep),
                            "cell {} at step {}", c, t
                        );
                        prop_assert_eq!(
                            dense.is_free_from(c, t),
                            (t..=window).all(|s| dense.is_free(c, s)),
                            "cell {} at step {}", c, t
                        );
                    }
                }
            }
            let allowed = |c| case.allowed(c);
            let mut scratch = Scratch::default();
            let dense_path = window_astar(lo, hi, allowed, case.start, case.goal, dense, &mut scratch, cap);
            let full = window_astar_exhaustive(lo, hi, allowed, case.start, case.goal, dense, &mut scratch, cap);
            prop_assert_eq!(&dense_path, &full);
        }

        /// The bucket queue pops states in exactly a binary heap's
        /// `(f, t, y, x)` order: the search returns the same path with
        /// either open set, early exit and expansion cap included. One
        /// scratch serves every search, as in a tile.
        #[test]
        fn bucket_queue_matches_a_binary_heap(
            tile in (0u32..6, 0u32..6, 2u32..14, 2u32..14),
            shape in (1usize..14, 1u32..4, 0usize..6),
            ends in (0u64..u64::MAX, 0u64..u64::MAX),
            walk_seeds in collection::vec(0u64..u64::MAX, 0..6),
            mask_seed in 0u64..u64::MAX,
            cap in prop_oneof![Just(super::super::EXPANSION_CAP), 1usize..400],
        ) {
            let mut case = Case::new(tile, shape, ends, &walk_seeds, mask_seed);
            let mut scratch = Scratch::default();
            let mut buckets = BucketQueue::default();
            let mut heap = HeapOpen::default();
            for goal in [case.goal, case.start, case.lo, case.hi] {
                case.goal = goal;
                let bucketed = case.search(&mut scratch, &mut buckets, cap);
                let reference = case.search(&mut scratch, &mut heap, cap);
                prop_assert_eq!(&bucketed, &reference, "goal {}", goal);
            }
        }
    }
}
