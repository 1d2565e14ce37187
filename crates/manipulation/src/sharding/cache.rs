//! Cross-window, cross-solve plan cache for warm-start replanning.
//!
//! One cache entry holds the A\* output of one shard of one window, keyed
//! by a 128-bit hash of *everything the per-shard planner reads*: grid
//! dimensions, effective tile side, stagger offset, tile index, separation,
//! window length, the ordered `(start, goal)` list of the shard's mobile
//! members, and the positions of frozen particles whose separation zone
//! reaches into the tile. Per-shard planning is a pure function of exactly
//! those inputs, so a key hit replays the stored paths *bit-identically* to
//! recomputing them — staleness is impossible by construction, because any
//! change to the inputs changes the key and misses.
//!
//! Invalidation ([`RouterCache::invalidate_cells`]) is therefore a memory
//! hygiene mechanism, not a correctness one: dirty cells reported by
//! `ChipState` map to at most the [`covering_tiles`] of each cell (one tile
//! per stagger phase, ≤ 4 total), and those tiles are marked *suspect*
//! rather than evicted on the spot. The next solve sweeps each suspect
//! tile, keeping entries whose key it hit or refreshed — live content by
//! definition — and dropping the rest. Evicting eagerly would throw away
//! plans the mutation did not actually change (a particle lifted and
//! placed back, a cycle reloaded with the same batch), which is exactly
//! the reuse the cache exists for.
//!
//! Paths are stored packed — 4 bits per step (5 possible moves) in a `u64`
//! plus the start cell — so a full-array solve's worth of cached windows
//! stays tens of megabytes instead of hundreds.

use super::astar_soa::ArenaPool;
use super::partition::{stagger_phases, Partition};
use labchip_units::{GridCoord, GridDims};
use std::collections::{HashMap, HashSet};

/// Default entry cap of [`RouterCache::new`]; a full 320²/10k-particle
/// solve populates roughly half this many shard entries.
const DEFAULT_MAX_ENTRIES: usize = 1 << 16;

/// Hit/miss/size counters of a [`RouterCache`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Shard lookups served from the cache.
    pub hits: u64,
    /// Shard lookups that had to be planned fresh.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Entries dropped because the cache hit its capacity cap.
    pub evictions: u64,
    /// Entries dropped by explicit invalidation.
    pub invalidated: u64,
}

/// One shard's cached window plan: where it applies (for invalidation) and
/// the packed per-member paths, in the shard's deterministic member order.
#[derive(Debug)]
struct ShardEntry {
    ox: u32,
    oy: u32,
    tile: u32,
    paths: Vec<StoredPath>,
}

/// The 4-bit code of one window step (the move alphabet has 5 symbols:
/// stay + 4 directions), or `None` for a jump no single step makes.
pub(super) fn step_code(from: GridCoord, to: GridCoord) -> Option<u64> {
    let dx = to.x as i64 - from.x as i64;
    let dy = to.y as i64 - from.y as i64;
    match (dx, dy) {
        (0, 0) => Some(0),
        (1, 0) => Some(1),
        (-1, 0) => Some(2),
        (0, 1) => Some(3),
        (0, -1) => Some(4),
        _ => None,
    }
}

/// The cell one step of `code` leads to from `pos`.
pub(super) fn take_step(pos: GridCoord, code: u64) -> GridCoord {
    let (dx, dy) = match code {
        0 => (0, 0),
        1 => (1, 0),
        2 => (-1, 0),
        3 => (0, 1),
        _ => (0, -1),
    };
    pos.offset(dx, dy).expect("packed path stays on the grid")
}

/// A window path packed to 4 bits per step where possible (see
/// [`step_code`]), falling back to the full coordinate list for windows
/// longer than 16 steps. The empty path of a particle parked on its goal is
/// stored as an empty, unallocated `Wide`.
#[derive(Debug)]
enum StoredPath {
    Packed {
        start: GridCoord,
        steps: u8,
        dirs: u64,
    },
    Wide(Vec<GridCoord>),
}

impl StoredPath {
    fn encode(path: &[GridCoord]) -> Self {
        if path.is_empty() || path.len() > 17 {
            return Self::Wide(path.to_vec());
        }
        let mut dirs = 0u64;
        for (k, pair) in path.windows(2).enumerate() {
            let Some(code) = step_code(pair[0], pair[1]) else {
                return Self::Wide(path.to_vec());
            };
            dirs |= code << (4 * k);
        }
        Self::Packed {
            start: path[0],
            steps: (path.len() - 1) as u8,
            dirs,
        }
    }

    fn decode(&self) -> Vec<GridCoord> {
        match self {
            Self::Wide(path) => path.clone(),
            Self::Packed { start, steps, dirs } => {
                let mut out = Vec::with_capacity(*steps as usize + 1);
                let mut pos = *start;
                out.push(pos);
                for k in 0..*steps {
                    pos = take_step(pos, (dirs >> (4 * k)) & 0xF);
                    out.push(pos);
                }
                out
            }
        }
    }
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

/// The `(ox, oy, tile)` triple of every staggered tile containing `cell` —
/// one per stagger phase, so at most 4. This is the invalidation footprint
/// of a single-cell mutation.
pub fn covering_tiles(dims: GridDims, side: u32, cell: GridCoord) -> Vec<(u32, u32, u32)> {
    stagger_phases(side)
        .iter()
        .map(|&(ox, oy)| {
            (
                ox,
                oy,
                Partition::new(dims, side, ox, oy).tile_of(cell) as u32,
            )
        })
        .collect()
}

/// Warm-start plan cache of the [`super::IncrementalRouter`], carried
/// across solves by the workload driver. Also owns the pool of
/// reusable A\* scratch so allocations persist across whole solves, not
/// just across the windows of one solve.
#[derive(Debug)]
pub struct RouterCache {
    entries: HashMap<u128, ShardEntry>,
    max_entries: usize,
    pub(crate) arenas: ArenaPool,
    /// Tiles flagged by [`invalidate_cells`](Self::invalidate_cells),
    /// awaiting the end-of-solve sweep.
    suspect: HashSet<(u32, u32, u32)>,
    /// Keys hit or inserted by the solve in flight; entries in suspect
    /// tiles survive the sweep only if their key is in here.
    touched: HashSet<u128>,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidated: u64,
}

impl Default for RouterCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_MAX_ENTRIES)
    }
}

impl RouterCache {
    /// Creates an empty cache with the default entry cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache holding at most `max_entries` shard plans.
    pub fn with_capacity(max_entries: usize) -> Self {
        Self {
            entries: HashMap::new(),
            max_entries: max_entries.max(1),
            arenas: ArenaPool::default(),
            suspect: HashSet::new(),
            touched: HashSet::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidated: 0,
        }
    }

    /// Current counters (entry count, hits, misses, evictions,
    /// invalidations).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries.len(),
            evictions: self.evictions,
            invalidated: self.invalidated,
        }
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.suspect.clear();
        self.touched.clear();
    }

    /// Decodes the entry for `key` into `out` if present. Counts a hit or
    /// a miss either way.
    pub(crate) fn fetch(&mut self, key: u128, out: &mut Vec<Vec<GridCoord>>) -> bool {
        match self.entries.get(&key) {
            Some(entry) => {
                out.clear();
                out.extend(entry.paths.iter().map(StoredPath::decode));
                self.touched.insert(key);
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    pub(crate) fn insert(
        &mut self,
        key: u128,
        ox: u32,
        oy: u32,
        tile: usize,
        paths: &[Vec<GridCoord>],
    ) {
        if self.entries.len() >= self.max_entries {
            self.evictions += self.entries.len() as u64;
            self.entries.clear();
        }
        self.touched.insert(key);
        self.entries.insert(
            key,
            ShardEntry {
                ox,
                oy,
                tile: tile as u32,
                paths: paths.iter().map(|p| StoredPath::encode(p)).collect(),
            },
        );
    }

    /// Marks every staggered tile containing one of `cells` as suspect:
    /// the next solve's [`end_solve`](Self::end_solve) sweep drops the
    /// tile's entries except those the solve itself hit or refreshed.
    /// `side` must be the router's
    /// [`super::IncrementalRouter::effective_side`] for the problem's
    /// separation, and `dims` the problem grid.
    pub fn invalidate_cells(&mut self, dims: GridDims, side: u32, cells: &[GridCoord]) {
        for &cell in cells {
            self.suspect.extend(covering_tiles(dims, side, cell));
        }
    }

    /// Closes one solve: sweeps the suspect tiles, dropping entries whose
    /// key the solve neither hit nor inserted — content that no longer
    /// exists on the chip. Called by the router after every cached solve;
    /// callers mutating the cache directly (tests) call it explicitly.
    pub fn end_solve(&mut self) {
        if !self.suspect.is_empty() {
            let before = self.entries.len();
            let suspect = &self.suspect;
            let touched = &self.touched;
            self.entries
                .retain(|key, e| !suspect.contains(&(e.ox, e.oy, e.tile)) || touched.contains(key));
            self.invalidated += (before - self.entries.len()) as u64;
            self.suspect.clear();
        }
        self.touched.clear();
    }

    /// Drops everything — the response to a dirty report too coarse to
    /// enumerate (e.g. a whole-plan rebuild).
    pub fn invalidate_all(&mut self) {
        self.invalidated += self.entries.len() as u64;
        self.entries.clear();
        self.suspect.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coords(raw: &[(u32, u32)]) -> Vec<GridCoord> {
        raw.iter().map(|&(x, y)| GridCoord::new(x, y)).collect()
    }

    #[test]
    fn stored_paths_round_trip() {
        let short = coords(&[(5, 5), (6, 5), (6, 6), (6, 6), (6, 5)]);
        let encoded = StoredPath::encode(&short);
        assert!(matches!(encoded, StoredPath::Packed { .. }));
        assert_eq!(encoded.decode(), short);

        let single = coords(&[(3, 9)]);
        assert_eq!(StoredPath::encode(&single).decode(), single);
        assert!(StoredPath::encode(&[]).decode().is_empty());

        let long: Vec<GridCoord> = (0..40).map(|x| GridCoord::new(x, 0)).collect();
        let encoded = StoredPath::encode(&long);
        assert!(matches!(encoded, StoredPath::Wide(_)));
        assert_eq!(encoded.decode(), long);
    }

    #[test]
    fn covering_tiles_is_one_tile_per_phase() {
        let dims = GridDims::square(64);
        let tiles = covering_tiles(dims, 16, GridCoord::new(20, 33));
        assert_eq!(tiles.len(), 4);
        let offsets: Vec<(u32, u32)> = tiles.iter().map(|&(ox, oy, _)| (ox, oy)).collect();
        assert_eq!(offsets, vec![(0, 0), (8, 0), (0, 8), (8, 8)]);
    }

    #[test]
    fn fetch_and_insert_track_stats() {
        let mut cache = RouterCache::new();
        let paths = vec![coords(&[(1, 1), (2, 1)])];
        let mut out = Vec::new();
        assert!(!cache.fetch(42, &mut out));
        cache.insert(42, 0, 0, 3, &paths);
        assert!(cache.fetch(42, &mut out));
        assert_eq!(out, paths);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn invalidation_drops_exactly_the_covering_tiles() {
        let dims = GridDims::square(64);
        let side = 16;
        let mut cache = RouterCache::new();
        let paths = vec![coords(&[(2, 2)])];
        // One entry per phase tile covering (20, 33), plus one far away.
        for (k, &(ox, oy, tile)) in covering_tiles(dims, side, GridCoord::new(20, 33))
            .iter()
            .enumerate()
        {
            cache.insert(k as u128, ox, oy, tile as usize, &paths);
        }
        let far = Partition::new(dims, side, 0, 0).tile_of(GridCoord::new(60, 60)) as u32;
        cache.insert(99, 0, 0, far as usize, &paths);
        cache.end_solve(); // close the priming solve

        cache.invalidate_cells(dims, side, &[GridCoord::new(20, 33)]);
        cache.end_solve();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "only the far tile survives");
        assert_eq!(stats.invalidated, 4);
        let mut out = Vec::new();
        assert!(cache.fetch(99, &mut out));
    }

    #[test]
    fn suspect_entries_survive_if_the_solve_hits_them() {
        let dims = GridDims::square(64);
        let side = 16;
        let cell = GridCoord::new(20, 33);
        let mut cache = RouterCache::new();
        let paths = vec![coords(&[(2, 2)])];
        let tiles = covering_tiles(dims, side, cell);
        for (k, &(ox, oy, tile)) in tiles.iter().enumerate() {
            cache.insert(k as u128, ox, oy, tile as usize, &paths);
        }
        cache.end_solve(); // close the priming solve

        // A mutation touched the cell, but the next solve finds the same
        // content for one of the phase tiles: its entry must survive.
        cache.invalidate_cells(dims, side, &[cell]);
        let mut out = Vec::new();
        assert!(cache.fetch(0, &mut out));
        cache.end_solve();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "the re-hit entry survives the sweep");
        assert_eq!(stats.invalidated, 3);
        assert!(cache.fetch(0, &mut out));
    }

    #[test]
    fn capacity_cap_evicts_wholesale() {
        let mut cache = RouterCache::with_capacity(2);
        let paths = vec![coords(&[(0, 0)])];
        cache.insert(1, 0, 0, 0, &paths);
        cache.insert(2, 0, 0, 1, &paths);
        cache.insert(3, 0, 0, 2, &paths);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 2);
    }
}
