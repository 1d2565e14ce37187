//! Staggered square-tile partitions of the electrode grid.
//!
//! A [`Partition`] divides the array into `side`-sized tiles anchored at a
//! stagger offset `(ox, oy)`. Successive routing windows cycle the offset
//! through the four [`stagger_phases`] so every cell is interior to some
//! tile in at least one phase — that is what lets traffic ratchet across
//! tile boundaries without any cross-shard communication.

use labchip_units::{GridCoord, GridDims};

/// The four stagger offsets cycled across successive windows:
/// `(0,0)`, `(s/2,0)`, `(0,s/2)`, `(s/2,s/2)`.
pub(crate) fn stagger_phases(side: u32) -> [(u32, u32); 4] {
    [(0, 0), (side / 2, 0), (0, side / 2), (side / 2, side / 2)]
}

/// A staggered partition of the grid into square tiles.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Partition {
    dims: GridDims,
    side: u32,
    ox: u32,
    oy: u32,
    min_tx: u32,
    min_ty: u32,
    tiles_x: u32,
    tiles_y: u32,
}

impl Partition {
    pub(crate) fn new(dims: GridDims, side: u32, ox: u32, oy: u32) -> Self {
        let raw_tx = |x: u32| (x + side - ox) / side;
        let raw_ty = |y: u32| (y + side - oy) / side;
        let min_tx = raw_tx(0);
        let min_ty = raw_ty(0);
        Self {
            dims,
            side,
            ox,
            oy,
            min_tx,
            min_ty,
            tiles_x: raw_tx(dims.cols - 1) - min_tx + 1,
            tiles_y: raw_ty(dims.rows - 1) - min_ty + 1,
        }
    }

    pub(crate) fn tile_count(&self) -> usize {
        self.tiles_x as usize * self.tiles_y as usize
    }

    /// Tile grid coordinates `(tx, ty)` of the tile containing `c`.
    fn tile_xy(&self, c: GridCoord) -> (u32, u32) {
        (
            (c.x + self.side - self.ox) / self.side - self.min_tx,
            (c.y + self.side - self.oy) / self.side - self.min_ty,
        )
    }

    /// Compact tile index of a coordinate.
    pub(crate) fn tile_of(&self, c: GridCoord) -> usize {
        let (tx, ty) = self.tile_xy(c);
        (ty * self.tiles_x + tx) as usize
    }

    /// Compact indices of every tile overlapping the inclusive cell box
    /// `[lo, hi]` (the box is clipped to the grid).
    pub(crate) fn tiles_in_box(
        &self,
        lo: GridCoord,
        hi: GridCoord,
    ) -> impl Iterator<Item = usize> + '_ {
        let (tx0, ty0) = self.tile_xy(lo);
        let clipped = GridCoord::new(hi.x.min(self.dims.cols - 1), hi.y.min(self.dims.rows - 1));
        let (tx1, ty1) = self.tile_xy(clipped);
        (ty0..=ty1).flat_map(move |ty| (tx0..=tx1).map(move |tx| (ty * self.tiles_x + tx) as usize))
    }

    /// Unclipped bounds of one axis of the tile containing `v`:
    /// `(lo, hi)` inclusive, possibly negative / past the edge.
    fn raw_axis_bounds(v: u32, side: u32, offset: u32) -> (i64, i64) {
        let t = ((v + side - offset) / side) as i64;
        let lo = t * side as i64 + offset as i64 - side as i64;
        (lo, lo + side as i64 - 1)
    }

    /// Inclusive bounds of the interior of the tile containing `c`: exactly
    /// the cells `d` with `tile_of(d) == tile_of(c) && !in_margin(d, margin)`,
    /// or `None` when the margin leaves no such cell.
    pub(crate) fn interior_bounds(
        &self,
        c: GridCoord,
        margin: u32,
    ) -> Option<(GridCoord, GridCoord)> {
        let axis = |v: u32, offset: u32, extent: u32| {
            let (lo, hi) = Self::raw_axis_bounds(v, self.side, offset);
            let last = extent as i64 - 1;
            let m = margin as i64;
            let lo_in = if lo > 0 { lo + m } else { 0 };
            let hi_in = if hi < last { hi - m } else { last };
            (lo_in <= hi_in).then_some((lo_in as u32, hi_in as u32))
        };
        let (lx, hx) = axis(c.x, self.ox, self.dims.cols)?;
        let (ly, hy) = axis(c.y, self.oy, self.dims.rows)?;
        Some((GridCoord::new(lx, ly), GridCoord::new(hx, hy)))
    }

    /// Whether `c` lies within `margin` cells of an *internal* tile boundary
    /// (array edges need no margin: there is no neighbouring tile there).
    pub(crate) fn in_margin(&self, c: GridCoord, margin: u32) -> bool {
        if margin == 0 {
            return false;
        }
        let m = margin as i64;
        let (lx, hx) = Self::raw_axis_bounds(c.x, self.side, self.ox);
        let (ly, hy) = Self::raw_axis_bounds(c.y, self.side, self.oy);
        let x = c.x as i64;
        let y = c.y as i64;
        (lx > 0 && x < lx + m)
            || (hx < self.dims.cols as i64 - 1 && x > hx - m)
            || (ly > 0 && y < ly + m)
            || (hy < self.dims.rows as i64 - 1 && y > hy - m)
    }
}

/// Structure-of-arrays tile membership: which particle indices plan in
/// which tile this window.
///
/// Replaces the per-window `Vec<Vec<usize>>` nested build with two flat
/// arrays — `starts` (prefix offsets, `tile_count + 1` long) into
/// `members` (particle indices grouped by tile) — built by a two-pass
/// counting sort. One allocation pair per window instead of one `Vec`
/// per tile, contiguous per-tile slices for the planner's hot loops, and
/// the same deterministic within-tile order (ascending particle index)
/// the nested build produced.
#[derive(Debug, Clone, Default)]
pub(crate) struct TileMembership {
    starts: Vec<u32>,
    members: Vec<u32>,
}

impl TileMembership {
    /// Counting-sort build: count per tile, prefix-sum, place. Frozen
    /// particles are left out, exactly like the nested build skipped
    /// them.
    pub(crate) fn build(part: &Partition, positions: &[GridCoord], frozen: &[bool]) -> Self {
        let tiles = part.tile_count();
        let mut starts = vec![0u32; tiles + 1];
        for (i, pos) in positions.iter().enumerate() {
            if !frozen[i] {
                starts[part.tile_of(*pos) + 1] += 1;
            }
        }
        for tile in 0..tiles {
            starts[tile + 1] += starts[tile];
        }
        let mut members = vec![0u32; starts[tiles] as usize];
        let mut cursor = starts.clone();
        for (i, pos) in positions.iter().enumerate() {
            if !frozen[i] {
                let tile = part.tile_of(*pos);
                members[cursor[tile] as usize] = i as u32;
                cursor[tile] += 1;
            }
        }
        Self { starts, members }
    }

    /// Number of tiles (occupied or not).
    pub(crate) fn tile_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// The particle indices planning in `tile`, in build order.
    pub(crate) fn members(&self, tile: usize) -> &[u32] {
        &self.members[self.starts[tile] as usize..self.starts[tile + 1] as usize]
    }

    /// Sorts every tile's members by `key` — the planner's
    /// front-runners-first ordering, applied per contiguous slice.
    pub(crate) fn sort_each_tile_by_key<K: Ord>(&mut self, mut key: impl FnMut(u32) -> K) {
        for tile in 0..self.tile_count() {
            let (lo, hi) = (self.starts[tile] as usize, self.starts[tile + 1] as usize);
            self.members[lo..hi].sort_by_key(|&i| key(i));
        }
    }

    /// Tiles with at least one member.
    pub(crate) fn occupied_tiles(&self) -> usize {
        (0..self.tile_count())
            .filter(|&tile| self.starts[tile] != self.starts[tile + 1])
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sort_matches_the_nested_build() {
        let dims = GridDims::new(40, 40);
        let part = Partition::new(dims, 8, 4, 0);
        // A deterministic scatter, some frozen.
        let positions: Vec<GridCoord> = (0..60)
            .map(|i| GridCoord::new((i * 7) % 40, (i * 13) % 40))
            .collect();
        let frozen: Vec<bool> = (0..60).map(|i| i % 5 == 0).collect();

        let mut nested: Vec<Vec<u32>> = vec![Vec::new(); part.tile_count()];
        for (i, pos) in positions.iter().enumerate() {
            if !frozen[i] {
                nested[part.tile_of(*pos)].push(i as u32);
            }
        }
        let soa = TileMembership::build(&part, &positions, &frozen);
        assert_eq!(soa.tile_count(), part.tile_count());
        for (tile, expected) in nested.iter().enumerate() {
            assert_eq!(soa.members(tile), expected.as_slice(), "tile {tile}");
        }
        assert_eq!(
            soa.occupied_tiles(),
            nested.iter().filter(|members| !members.is_empty()).count()
        );
    }

    #[test]
    fn interior_bounds_matches_brute_force() {
        for (cols, rows, side) in [(37, 29, 8), (16, 16, 8), (9, 5, 4), (3, 40, 6)] {
            let dims = GridDims::new(cols, rows);
            for (ox, oy) in stagger_phases(side) {
                let part = Partition::new(dims, side, ox, oy);
                for margin in 0..=3 {
                    for c in dims.iter() {
                        let bounds = part.interior_bounds(c, margin);
                        let inside = |d: GridCoord| {
                            bounds.is_some_and(|(lo, hi)| {
                                (lo.x..=hi.x).contains(&d.x) && (lo.y..=hi.y).contains(&d.y)
                            })
                        };
                        for d in dims.iter() {
                            let interior =
                                part.tile_of(d) == part.tile_of(c) && !part.in_margin(d, margin);
                            assert_eq!(
                                inside(d),
                                interior,
                                "{cols}x{rows} side {side} offset ({ox},{oy}) margin {margin}: \
                                 tile of {c}, cell {d}, bounds {bounds:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn per_tile_sort_orders_within_tiles_only() {
        let dims = GridDims::new(16, 16);
        let part = Partition::new(dims, 8, 0, 0);
        let positions = vec![
            GridCoord::new(1, 1),
            GridCoord::new(2, 2),
            GridCoord::new(9, 9),
            GridCoord::new(10, 10),
        ];
        let mut soa = TileMembership::build(&part, &positions, &[false; 4]);
        // Reverse-index keys flip the order inside each tile but never
        // move a member across tiles.
        soa.sort_each_tile_by_key(std::cmp::Reverse);
        assert_eq!(soa.members(part.tile_of(positions[0])), &[1, 0]);
        assert_eq!(soa.members(part.tile_of(positions[2])), &[3, 2]);
    }
}
