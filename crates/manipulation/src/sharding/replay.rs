//! In-solve shard replay of a cold solve.
//!
//! A solve without a [`RouterCache`](super::RouterCache) keeps one
//! [`TileReplay`] per (stagger phase, tile): the tile's plan from the last
//! window of that phase that planned it, and the input it was planned
//! from. Within one solve, dims, tile side, stagger offset, tile index,
//! separation and window are fixed, so the rest of the shard planner's
//! input is the ordered `(start, goal)` list of the tile's mobile members
//! and the frozen positions whose zone reaches into it. A tile whose input
//! equals the stored one, compared exactly rather than by hash, gets the
//! stored paths back, bit-identical to searching again.
//!
//! Paths are packed into one word each, relative to the member's start, so
//! the four phases' entries of a 320² solve stay well under a megabyte.
//! The [`RouterCache`](super::RouterCache) stores its entries through the
//! same codec ([`pack_plan`], [`unpack_plan`]), and the periodic tail
//! (`tail`) its recorded windows ([`pack`], [`unpack`]).

use labchip_units::GridCoord;

/// Longest path (in cells) a packed word holds: a 4-bit length, then
/// 4 bits per step.
const MAX_PACKED_CELLS: usize = 15;

/// One tile's stored input and plan.
#[derive(Debug, Default)]
pub(super) struct TileReplay {
    members: Vec<(GridCoord, GridCoord)>,
    touch: Vec<GridCoord>,
    paths: Vec<u64>,
}

impl TileReplay {
    /// Whether `members` and the positions in `touch` are exactly the
    /// stored input. If not, they replace it, as the input of the plan the
    /// caller is about to make and [`store`](Self::store).
    pub(super) fn matches_or_replace(
        &mut self,
        members: impl ExactSizeIterator<Item = (GridCoord, GridCoord)> + Clone,
        touch: &[(u32, GridCoord)],
    ) -> bool {
        let touch = touch.iter().map(|&(_, pos)| pos);
        if self.members.len() == members.len()
            && self.touch.len() == touch.len()
            && self.members.iter().copied().eq(members.clone())
            && self.touch.iter().copied().eq(touch.clone())
        {
            return true;
        }
        refill(&mut self.members, members);
        refill(&mut self.touch, touch);
        self.paths.clear();
        false
    }

    /// Appends the stored plan to `out`, one path per member in order.
    pub(super) fn replay(&self, out: &mut Vec<Vec<GridCoord>>) {
        unpack_plan(self.members.iter().copied(), &self.paths, out);
    }

    /// Stores the plan made from the input just stored by
    /// [`matches_or_replace`](Self::matches_or_replace). A plan with a path
    /// that does not pack drops the input, so the tile never replays it.
    pub(super) fn store(&mut self, paths: &[Vec<GridCoord>]) {
        match pack_plan(self.members.iter().copied(), paths) {
            Some(words) => refill(&mut self.paths, words.into_iter()),
            None => self.members.clear(),
        }
    }
}

/// Packs one shard's plan, a path per member in order, each relative to
/// the member's start; `None` if a path does not pack.
pub(super) fn pack_plan(
    members: impl Iterator<Item = (GridCoord, GridCoord)>,
    paths: &[Vec<GridCoord>],
) -> Option<Vec<u64>> {
    members
        .zip(paths)
        .map(|((start, _), path)| pack(start, path))
        .collect()
}

/// Appends the plan packed by [`pack_plan`] for the same `members` to
/// `out`.
pub(super) fn unpack_plan(
    members: impl Iterator<Item = (GridCoord, GridCoord)>,
    words: &[u64],
    out: &mut Vec<Vec<GridCoord>>,
) {
    out.extend(
        members
            .zip(words)
            .map(|((start, _), &word)| unpack(start, word)),
    );
}

/// Refills `vec` with `items`, growing its allocation to the exact length
/// only: an entry is rewritten every few windows and must not keep
/// doubling slack.
fn refill<T>(vec: &mut Vec<T>, items: impl ExactSizeIterator<Item = T>) {
    vec.clear();
    vec.reserve_exact(items.len());
    vec.extend(items);
}

/// The 4-bit code of one window step (the move alphabet has 5 symbols:
/// stay + 4 directions), or `None` for a jump no single step makes.
fn step_code(from: GridCoord, to: GridCoord) -> Option<u64> {
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
fn take_step(pos: GridCoord, code: u64) -> GridCoord {
    let (dx, dy) = match code {
        0 => (0, 0),
        1 => (1, 0),
        2 => (-1, 0),
        3 => (0, 1),
        _ => (0, -1),
    };
    pos.offset(dx, dy).expect("packed path stays on the grid")
}

/// Packs a path that starts on `start` (or the empty path of a parked
/// particle) into its length and step codes; `None` if it is longer than
/// a word holds or does not move one step at a time from `start`.
pub(super) fn pack(start: GridCoord, path: &[GridCoord]) -> Option<u64> {
    if path.len() > MAX_PACKED_CELLS || path.first().is_some_and(|c| *c != start) {
        return None;
    }
    let mut word = path.len() as u64;
    for (k, pair) in path.windows(2).enumerate() {
        word |= step_code(pair[0], pair[1])? << (4 * (k + 1));
    }
    Some(word)
}

/// The path [`pack`] packed from `start`.
pub(super) fn unpack(start: GridCoord, word: u64) -> Vec<GridCoord> {
    let len = (word & 0xF) as usize;
    let mut out = Vec::with_capacity(len);
    let mut pos = start;
    for k in 0..len {
        if k > 0 {
            pos = take_step(pos, (word >> (4 * k)) & 0xF);
        }
        out.push(pos);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_round_trip_through_a_packed_word() {
        let start = GridCoord::new(5, 5);
        let walk: Vec<GridCoord> = [(0, 0), (1, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
            .iter()
            .map(|&(dx, dy)| start.offset(dx, dy).unwrap())
            .collect();
        for path in [vec![], vec![start], walk] {
            assert_eq!(unpack(start, pack(start, &path).unwrap()), path);
        }
        assert_eq!(pack(start, &[GridCoord::new(6, 5)]), None, "off its start");
        assert_eq!(pack(start, &[start, GridCoord::new(7, 5)]), None, "a jump");
        assert_eq!(pack(start, &[start; MAX_PACKED_CELLS + 1]), None);
        assert!(pack(start, &[start; MAX_PACKED_CELLS]).is_some());
    }
}
