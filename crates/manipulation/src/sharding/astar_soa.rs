//! Struct-of-arrays hot paths for the windowed space–time A\*.
//!
//! The per-shard planning loop used to allocate a fresh `HashMap`-backed
//! reservation table and scratch buffer inside the rayon closure for every
//! shard of every window — the allocation traffic was what made the pinned
//! thread-scaling curve go *backwards*. Everything here is flat arrays over
//! a dense `(cell, step)` index space, cleared in O(1) with an epoch stamp,
//! and bundled into an [`Arena`] that an [`ArenaPool`] recycles across
//! shards, windows, and (through [`super::RouterCache`]) whole solves.
//!
//! [`DenseReservations`] is the one reservation table: every tile search
//! plans against one over its tile interior, and the rare serial repair
//! re-plans each demoted particle against one over the whole grid, the
//! same box its A\* scratch already spans.
//!
//! The inner loop of [`window_astar`] runs millions of times per
//! paper-scale solve, so each expansion is kept to a few array reads: the
//! open set is a heap of packed `u128` keys (see [`open_key`]), a
//! neighbour is tested against the visited stamps before the costlier
//! `allowed` and reservation predicates, the caller passes the tile
//! *interior* as the search box so `allowed` need not re-derive tile
//! membership and margins, and [`DenseReservations`] answers "free until
//! the window ends" with one comparison. None of this changes a plan: the
//! pop order is the same total order over states, and the reordered tests
//! are pure predicates.

use crate::routing::for_each_zone_cell;
use labchip_units::GridCoord;
use std::collections::BinaryHeap;
use std::sync::Mutex;

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

/// Dense zone counter over a fixed cell box, epoch-cleared in O(1).
///
/// Writes outside the box are dropped; that is sound because every query
/// the router makes is for a cell inside the box the structure was begun
/// with (tile interiors for `parked`, the whole grid for the frozen zone).
#[derive(Debug, Default)]
pub(crate) struct DenseZone {
    lo_x: u32,
    lo_y: u32,
    bw: usize,
    bh: usize,
    counts: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl DenseZone {
    /// Re-targets the counter to the inclusive cell box `[lo, hi]` and
    /// clears it (lazily, via the epoch stamp).
    pub(crate) fn begin(&mut self, lo: GridCoord, hi: GridCoord) {
        self.lo_x = lo.x;
        self.lo_y = lo.y;
        self.bw = (hi.x - lo.x + 1) as usize;
        self.bh = (hi.y - lo.y + 1) as usize;
        let cells = self.bw * self.bh;
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
        let (lx, ly, bw, bh, epoch) = (self.lo_x, self.lo_y, self.bw, self.bh, self.epoch);
        let counts = &mut self.counts;
        let stamp = &mut self.stamp;
        for_each_zone_cell(center, radius, |c| {
            if c.x < lx || c.y < ly {
                return;
            }
            let (x, y) = ((c.x - lx) as usize, (c.y - ly) as usize);
            if x >= bw || y >= bh {
                return;
            }
            let k = y * bw + x;
            if stamp[k] != epoch {
                stamp[k] = epoch;
                counts[k] = 0;
            }
            counts[k] += 1;
        });
    }

    pub(crate) fn remove(&mut self, center: GridCoord, radius: u32) {
        let (lx, ly, bw, bh, epoch) = (self.lo_x, self.lo_y, self.bw, self.bh, self.epoch);
        let counts = &mut self.counts;
        let stamp = &mut self.stamp;
        for_each_zone_cell(center, radius, |c| {
            if c.x < lx || c.y < ly {
                return;
            }
            let (x, y) = ((c.x - lx) as usize, (c.y - ly) as usize);
            if x >= bw || y >= bh {
                return;
            }
            let k = y * bw + x;
            if stamp[k] == epoch && counts[k] > 0 {
                counts[k] -= 1;
            }
        });
    }

    pub(crate) fn blocked(&self, c: GridCoord) -> bool {
        if c.x < self.lo_x || c.y < self.lo_y {
            return false;
        }
        let (x, y) = ((c.x - self.lo_x) as usize, (c.y - self.lo_y) as usize);
        if x >= self.bw || y >= self.bh {
            return false;
        }
        let k = y * self.bw + x;
        self.stamp[k] == self.epoch && self.counts[k] > 0
    }
}

/// Dense space–time reservations over one window and one cell box (a tile
/// interior, or the whole grid for repair): a flat
/// `(window + 1) × bh × bw` array of epoch stamps, one per reserved
/// `(step, cell)`, cleared in O(1) by bumping the epoch. The table only
/// ever gains reservations (repair rebuilds it rather than remove a
/// path), so a stamp is all a reservation needs.
///
/// Zone cells spilling outside the box are dropped: every query the A\*
/// makes is for a cell inside the box it searches, which is the box the
/// table was begun with.
///
/// Per cell it also keeps `until`: one past the last step reserved there
/// (`0` for none). Because reservations are only ever added, a cell is
/// free from step `t` to the end of the window exactly when `until ≤ t`,
/// which makes [`Self::is_free_from`] one comparison.
#[derive(Debug, Default)]
pub(crate) struct DenseReservations {
    radius: u32,
    window: usize,
    lo_x: u32,
    lo_y: u32,
    bw: usize,
    bh: usize,
    reserved: Vec<u32>,
    until: Vec<u32>,
    until_stamp: Vec<u32>,
    epoch: u32,
}

impl DenseReservations {
    /// Re-targets the table to `window` steps over the inclusive box
    /// `[lo, hi]` and clears it.
    pub(crate) fn begin(
        &mut self,
        window: usize,
        min_separation: u32,
        lo: GridCoord,
        hi: GridCoord,
    ) {
        self.radius = min_separation;
        self.window = window;
        self.lo_x = lo.x;
        self.lo_y = lo.y;
        self.bw = (hi.x - lo.x + 1) as usize;
        self.bh = (hi.y - lo.y + 1) as usize;
        let cells = self.bw * self.bh;
        if self.reserved.len() < cells * (window + 1) {
            self.reserved.resize(cells * (window + 1), 0);
        }
        if self.until.len() < cells {
            self.until.resize(cells, 0);
            self.until_stamp.resize(cells, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.reserved.iter_mut().for_each(|s| *s = 0);
            self.until_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    pub(crate) fn add_path(&mut self, path: &[GridCoord]) {
        let (lx, ly, bw, bh, epoch) = (self.lo_x, self.lo_y, self.bw, self.bh, self.epoch);
        let reserved = &mut self.reserved;
        let until = &mut self.until;
        let until_stamp = &mut self.until_stamp;
        for t in 0..=self.window {
            let pos = position_at(path, t);
            for_each_zone_cell(pos, self.radius, |c| {
                if c.x < lx || c.y < ly {
                    return;
                }
                let (x, y) = ((c.x - lx) as usize, (c.y - ly) as usize);
                if x >= bw || y >= bh {
                    return;
                }
                let cell = y * bw + x;
                reserved[t * bh * bw + cell] = epoch;
                if until_stamp[cell] != epoch {
                    until_stamp[cell] = epoch;
                    until[cell] = 0;
                }
                until[cell] = until[cell].max(t as u32 + 1);
            });
        }
    }

    /// Flat index of `c` within the box, or `None` outside it.
    fn cell(&self, c: GridCoord) -> Option<usize> {
        if c.x < self.lo_x || c.y < self.lo_y {
            return None;
        }
        let (x, y) = ((c.x - self.lo_x) as usize, (c.y - self.lo_y) as usize);
        if x >= self.bw || y >= self.bh {
            return None;
        }
        Some(y * self.bw + x)
    }

    /// Number of planned steps (the table covers steps `0..=window()`).
    pub(crate) fn window(&self) -> usize {
        self.window
    }

    /// Whether `c` is unreserved at step `t` (clamped to the window end).
    pub(crate) fn is_free(&self, c: GridCoord, t: usize) -> bool {
        self.cell(c).is_none_or(|cell| {
            self.reserved[t.min(self.window) * self.bh * self.bw + cell] != self.epoch
        })
    }

    /// Whether a particle parked at `c` from step `t` to the end of the
    /// window stays clear of every reservation.
    pub(crate) fn is_free_from(&self, c: GridCoord, t: usize) -> bool {
        self.cell(c).is_none_or(|cell| {
            self.until_stamp[cell] != self.epoch || self.until[cell] as usize <= t
        })
    }
}

/// Open-set key of the windowed A\*: `(f, t, y, x)` packed high to low
/// into one `u128` and complemented, so the max-heap pops the
/// lexicographically smallest state first. Ties break on `(t, y, x)`, so
/// the expansion order — and therefore the plan — is fully deterministic.
fn open_key(f: u32, t: u32, y: u32, x: u32) -> u128 {
    !(u128::from(f) << 96 | u128::from(t) << 64 | u128::from(y) << 32 | u128::from(x))
}

/// The `(f, t, y, x)` an [`open_key`] was packed from.
fn open_state(key: u128) -> (u32, u32, u32, u32) {
    let k = !key;
    (
        (k >> 96) as u32,
        (k >> 64) as u32,
        (k >> 32) as u32,
        k as u32,
    )
}

/// Reusable flat-array scratch space for the windowed A\*: visited stamps
/// and parent links indexed by `(cell, t)` — cleared in O(1) via an epoch
/// stamp — plus the open heap, whose allocation is reused across calls.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    visited: Vec<u32>,
    parent: Vec<u32>,
    epoch: u32,
    open: BinaryHeap<u128>,
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
        self.open.clear();
    }
}

/// One shard's worth of reusable planning state: A\* scratch, the dense
/// reservation table, and the parked-neighbour zone counter. Checked out of
/// an [`ArenaPool`] at the top of each shard task instead of being allocated
/// inside the rayon closure.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    pub(crate) scratch: Scratch,
    pub(crate) reservations: DenseReservations,
    pub(crate) parked: DenseZone,
}

/// A mutex-guarded free list of [`Arena`]s shared by all shard tasks of a
/// window. The pool never holds more arenas than ran concurrently, and the
/// arenas are content-agnostic (epoch-cleared on checkout-side `begin`), so
/// checkout order cannot affect results.
#[derive(Debug, Default)]
pub(crate) struct ArenaPool {
    free: Mutex<Vec<Arena>>,
}

/// Upper bound on pooled arenas; anything beyond this is dropped on restore.
const MAX_POOLED_ARENAS: usize = 32;

impl ArenaPool {
    pub(crate) fn checkout(&self) -> Arena {
        self.free
            .lock()
            .ok()
            .and_then(|mut free| free.pop())
            .unwrap_or_default()
    }

    pub(crate) fn restore(&self, arena: Arena) {
        if let Ok(mut free) = self.free.lock() {
            if free.len() < MAX_POOLED_ARENAS {
                free.push(arena);
            }
        }
    }
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
    search::<true>(lo, hi, allowed, start, goal, reservations, scratch, cap)
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
    search::<false>(lo, hi, allowed, start, goal, reservations, scratch, cap)
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
    scratch.open.push(open_key(h(start), 0, start.y, start.x));
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
    while let Some(key) = scratch.open.pop() {
        let (f, t, y, x) = open_state(key);
        if PRUNE {
            if let Some((d, _, _)) = best {
                if f as usize > d as usize + window {
                    break; // nothing left can beat the best parking spot
                }
            }
        }
        let c = GridCoord::new(x, y);
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
            scratch
                .open
                .push(open_key(next_t + h(next), next_t, next.y, next.x));
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

    /// SplitMix64: a tiny deterministic stream for deriving test inputs.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random walk of `window` steps from a cell of the box `[lo, hi]`.
    fn walk(seed: u64, lo: GridCoord, hi: GridCoord, window: usize) -> Vec<GridCoord> {
        let (bw, bh) = (u64::from(hi.x - lo.x + 1), u64::from(hi.y - lo.y + 1));
        let mut c = GridCoord::new(
            lo.x + (mix(seed) % bw) as u32,
            lo.y + (mix(seed ^ 1) % bh) as u32,
        );
        let mut path = vec![c];
        let mut bits = mix(seed ^ 2);
        for _ in 0..window {
            let (dx, dy) = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)][(bits % 5) as usize];
            bits = mix(bits);
            c = c.offset(dx, dy).unwrap_or(c);
            path.push(c);
        }
        path
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The bound-pruned search returns exactly the exhaustive search's
        /// path, and the dense table's O(1) `is_free_from` agrees with
        /// `is_free` at every remaining step, on every cell of the box.
        #[test]
        fn early_exit_matches_exhaustive_search(
            tile in (0u32..6, 0u32..6, 2u32..14, 2u32..14),
            shape in (1usize..14, 1u32..4, 0usize..6),
            ends in (0u64..u64::MAX, 0u64..u64::MAX),
            walk_seeds in collection::vec(0u64..u64::MAX, 0..6),
            mask_seed in 0u64..u64::MAX,
            cap in prop_oneof![Just(super::super::EXPANSION_CAP), 1usize..400],
        ) {
            let (lx, ly, bw, bh) = tile;
            let (window, sep, blocked_fifths) = shape;
            let lo = GridCoord::new(lx, ly);
            let hi = GridCoord::new(lx + bw - 1, ly + bh - 1);
            let start = GridCoord::new(lx + (mix(ends.0) % u64::from(bw)) as u32, ly + (mix(ends.0 ^ 1) % u64::from(bh)) as u32);
            // Goals may lie outside the box, as they do for tile-confined
            // searches of particles bound elsewhere.
            let goal = GridCoord::new((mix(ends.1) % u64::from(lx + bw + 8)) as u32, (mix(ends.1 ^ 1) % u64::from(ly + bh + 8)) as u32);
            let allowed = |c: GridCoord| {
                c == start
                    || mix(mask_seed ^ (u64::from(c.x) << 32 | u64::from(c.y))) % 5 >= blocked_fifths as u64
            };
            let walks: Vec<Vec<GridCoord>> =
                walk_seeds.iter().map(|&s| walk(s, lo, hi, window)).collect();

            let mut dense = DenseReservations::default();
            dense.begin(window, sep, lo, hi);
            for path in &walks {
                dense.add_path(path);
            }
            for y in lo.y..=hi.y {
                for x in lo.x..=hi.x {
                    let c = GridCoord::new(x, y);
                    for t in 0..=window {
                        prop_assert_eq!(
                            dense.is_free_from(c, t),
                            (t..=window).all(|s| dense.is_free(c, s)),
                            "cell {} at step {}", c, t
                        );
                    }
                }
            }
            let mut scratch = Scratch::default();
            let dense_path = window_astar(lo, hi, allowed, start, goal, &dense, &mut scratch, cap);
            let full = window_astar_exhaustive(lo, hi, allowed, start, goal, &dense, &mut scratch, cap);
            prop_assert_eq!(&dense_path, &full);
        }
    }

    /// The max-heap pops packed keys in ascending lexicographic
    /// `(f, t, y, x)` order, ties and values past `u16::MAX` included, and
    /// every key unpacks to the state it was packed from.
    #[test]
    fn packed_key_order_is_lexicographic() {
        // Every combination, so each field ties under every prefix.
        let values = [0u32, 1, 0xffff, 0x1_0000, 70_000, u32::MAX];
        let mut states = Vec::new();
        for f in values {
            for t in values {
                for y in values {
                    for x in values {
                        states.push((f, t, y, x));
                    }
                }
            }
        }
        states.sort_unstable();
        let mut heap: BinaryHeap<u128> = states
            .iter()
            .rev()
            .map(|&(f, t, y, x)| open_key(f, t, y, x))
            .collect();
        let mut popped = Vec::new();
        while let Some(key) = heap.pop() {
            popped.push(open_state(key));
        }
        assert_eq!(popped, states);
    }
}
