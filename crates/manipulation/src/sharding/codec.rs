//! The path codec of the router's plan stores.
//!
//! A window path moves at most one cell per step, so it packs into one
//! `u64` relative to its start: a 4-bit length, then 4 bits per step. The
//! [`RouterCache`](super::RouterCache) stores each shard's plan as one word
//! per member ([`pack_plan`], [`unpack_plan`]), and the periodic tail
//! (`tail`) its recorded windows ([`pack`], [`unpack`]).

use labchip_units::GridCoord;

/// Longest path (in cells) a packed word holds: a 4-bit length, then
/// 4 bits per step.
const MAX_PACKED_CELLS: usize = 15;

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
