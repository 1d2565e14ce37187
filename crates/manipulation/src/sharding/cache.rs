//! The router's one tile-reuse store: a cross-window plan cache, carried
//! across solves for warm-start replanning.
//!
//! One cache entry holds the A\* output of one shard of one window, keyed
//! by a 128-bit hash of *everything the per-shard planner reads*: grid
//! dimensions, effective tile side, stagger offset, tile index, separation,
//! window length, the ordered `(start, goal)` list of the shard's mobile
//! members, and the positions of frozen particles whose separation zone
//! reaches into the tile. Per-shard planning is a pure function of exactly
//! those inputs, so a key hit replays the stored paths *bit-identically* to
//! recomputing them — staleness is impossible by construction, because any
//! change to the inputs changes the key and misses. Callers therefore never
//! report what changed on the chip.
//!
//! Retention needs no input either: **at the end of each cached solve the
//! cache keeps exactly the entries that solve hit or inserted.** Entries
//! live in two generations. `current` gathers the hits and inserts of the
//! solve in flight, a hit in `previous` (the last solve's generation) moves
//! the entry over, and [`RouterCache::end_solve`] makes `current` the new
//! `previous`. Content the last solve still planned from survives whatever
//! the chip did in between; content it no longer reached is dropped, so
//! between solves the cache holds at most one solve's lookups.
//!
//! Every solve plans through a cache: [`super::IncrementalRouter::solve`]
//! on a fresh one that it drops at the end, so a tile whose input recurs
//! within a cold solve is served from the windows before it, and
//! [`super::IncrementalRouter::solve_cached`] on one the caller keeps.
//! The cache holds plans only: planner scratch lives in each thread's
//! arena (`astar_soa::with_arena`), so a solve on a fresh cache allocates
//! no scratch of its own.
//!
//! Paths are stored one `u64` word per member through the path codec
//! (`codec::pack_plan`), relative to the member's start, which the key
//! fixes. A word holds 15 cells, so a plan with a longer path (possible
//! only with a window over 14 steps) is not stored.

use super::codec::{pack_plan, unpack_plan};
use labchip_units::{GridCoord, GridDims};
use std::collections::HashMap;

/// Hit/miss/size counters of a [`RouterCache`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Shard lookups served from the cache.
    pub hits: u64,
    /// Shard lookups that had to be planned fresh.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

/// Two independent 64-bit mixing streams concatenated into a 128-bit key;
/// not cryptographic, but collisions across the cache's working set are
/// negligible and a collision can only occur between *valid* plans.
struct KeyHasher {
    a: u64,
    b: u64,
}

impl KeyHasher {
    fn new() -> Self {
        Self {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn word(&mut self, v: u64) {
        self.a = (self.a ^ v).wrapping_mul(0x0100_0000_01b3);
        self.b = (self.b ^ v.rotate_left(31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        self.b ^= self.b >> 27;
    }

    fn coord(&mut self, c: GridCoord) {
        self.word((u64::from(c.x) << 32) | u64::from(c.y));
    }

    fn finish(&self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

/// Content key of one shard's window-planning inputs. `members` must be the
/// shard's mobile particles in planning order; `frozen` the
/// `(tile, position)` pairs of frozen particles whose zone reaches this
/// tile, in deterministic order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn shard_key(
    dims: GridDims,
    side: u32,
    ox: u32,
    oy: u32,
    tile: usize,
    sep: u32,
    window: usize,
    members: impl ExactSizeIterator<Item = (GridCoord, GridCoord)>,
    frozen: &[(u32, GridCoord)],
) -> u128 {
    let mut h = KeyHasher::new();
    h.word((u64::from(dims.cols) << 32) | u64::from(dims.rows));
    h.word((u64::from(side) << 32) | u64::from(sep));
    h.word((u64::from(ox) << 32) | u64::from(oy));
    h.word(tile as u64);
    h.word(window as u64);
    h.word(members.len() as u64);
    for (start, goal) in members {
        h.coord(start);
        h.coord(goal);
    }
    h.word(frozen.len() as u64);
    for &(_, pos) in frozen {
        h.coord(pos);
    }
    h.finish()
}

/// Warm-start plan cache of the [`super::IncrementalRouter`], carried
/// across solves by the workload driver.
#[derive(Debug, Default)]
pub struct RouterCache {
    /// Entries the solve in flight hit or inserted.
    current: HashMap<u128, Box<[u64]>>,
    /// Entries the last solve hit or inserted, not yet hit by this one.
    previous: HashMap<u128, Box<[u64]>>,
    hits: u64,
    misses: u64,
}

impl RouterCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current counters (hits, misses, entry count).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.current.len() + self.previous.len(),
        }
    }

    /// Decodes the entry for `key` into `out` if present, one path per
    /// member of `members` (the shard's `(start, goal)` list the key was
    /// made from). Counts a hit or a miss either way.
    pub(crate) fn fetch(
        &mut self,
        key: u128,
        members: impl Iterator<Item = (GridCoord, GridCoord)>,
        out: &mut Vec<Vec<GridCoord>>,
    ) -> bool {
        if let Some(words) = self.previous.remove(&key) {
            self.current.insert(key, words);
        }
        match self.current.get(&key) {
            Some(words) => {
                out.clear();
                unpack_plan(members, words, out);
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Stores the plan made for `key`, one path per member of `members`.
    /// A plan with a path that does not pack is not stored, so its next
    /// lookup misses and plans again.
    pub(crate) fn insert(
        &mut self,
        key: u128,
        members: impl Iterator<Item = (GridCoord, GridCoord)>,
        paths: &[Vec<GridCoord>],
    ) {
        if let Some(words) = pack_plan(members, paths) {
            self.current.insert(key, words.into_boxed_slice());
        }
    }

    /// Does nothing. Content keys already make a stale hit impossible and
    /// each solve keeps only the entries it used, so a mutation needs no
    /// report. Kept for callers written against the cell invalidation this
    /// cache used to need.
    pub fn invalidate_cells(&mut self, _dims: GridDims, _side: u32, _cells: &[GridCoord]) {}

    /// Closes one solve: keeps exactly the entries it hit or inserted.
    /// Called by the router after every cached solve.
    pub(crate) fn end_solve(&mut self) {
        self.previous = std::mem::take(&mut self.current);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_solve_keeps_exactly_the_entries_it_hit_or_inserted() {
        let start = GridCoord::new(1, 1);
        let members = || [(start, GridCoord::new(2, 1))].into_iter();
        let plan = vec![vec![start, GridCoord::new(2, 1)]];
        let mut out = Vec::new();
        let mut cache = RouterCache::new();

        // Solve 1 misses both keys and plans them.
        for key in [1, 2] {
            assert!(!cache.fetch(key, members(), &mut out));
            cache.insert(key, members(), &plan);
        }
        cache.end_solve();
        assert_eq!(cache.stats().entries, 2);

        // Solve 2 hits key 1 only: key 2 is dropped at its end.
        assert!(cache.fetch(1, members(), &mut out));
        assert_eq!(out, plan);
        assert_eq!(cache.stats().entries, 2, "nothing is dropped mid-solve");
        cache.end_solve();
        assert_eq!(cache.stats().entries, 1);

        // Solve 3: key 1 survived, key 2 is planned again.
        assert!(cache.fetch(1, members(), &mut out));
        assert!(!cache.fetch(2, members(), &mut out));
        cache.end_solve();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 3, 1));
    }
}
