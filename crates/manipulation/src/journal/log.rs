//! The append-only journal and the seeded fault-injection plan.

use crate::journal::event::Event;
use serde::{Deserialize, Serialize};

/// An append-only log of chip-state [`Event`]s.
///
/// A journal only ever grows while attached to a live
/// [`ChipState`](crate::state::ChipState); the sole way to get a shorter
/// journal is [`truncated`](Journal::truncated), which builds a *new*
/// prefix journal (the checkpoint/resume tests rely on this to simulate a
/// crash that lost the tail of the log).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Journal {
    events: Vec<Event>,
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    pub fn record(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of non-marker events (the ones replay applies).
    pub fn state_event_count(&self) -> usize {
        self.events.iter().filter(|e| !e.is_marker()).count()
    }

    /// A new journal holding only the first `len` events — the log a crash
    /// at that point would have left behind.
    pub fn truncated(&self, len: usize) -> Journal {
        Journal {
            events: self.events[..len.min(self.events.len())].to_vec(),
        }
    }
}

impl Extend<Event> for Journal {
    fn extend<I: IntoIterator<Item = Event>>(&mut self, events: I) {
        self.events.extend(events);
    }
}

/// A deterministic kill point: execution aborts after the Nth journal
/// event.
///
/// Armed on a [`ChipState`](crate::state::ChipState) via
/// [`attach_journal_with_fault`](crate::state::ChipState::attach_journal_with_fault);
/// once the journal reaches `kill_after_events` events the state's
/// [`fault_tripped`](crate::state::ChipState::fault_tripped) flag latches
/// and the assay phases abort at their next poll point. Because the
/// journal records every mutation, "after the Nth event" lands kill
/// points inside load batches, mid-route, mid-recovery-round — wherever
/// the protocol happens to be mutating state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Trip the fault once this many events have been journaled.
    pub kill_after_events: u64,
}

impl FaultPlan {
    /// A fault that trips after `n` journaled events.
    pub fn after(n: u64) -> Self {
        Self {
            kill_after_events: n,
        }
    }

    /// A deterministic, seeded sweep of `count` kill points stratified
    /// over `1..=total_events`: one point drawn per equal-width stratum,
    /// so the sweep covers early loading, mid-protocol routing and the
    /// recovery tail without clustering. The same `(seed, count,
    /// total_events)` always yields the same sweep.
    pub fn sweep(seed: u64, count: usize, total_events: u64) -> Vec<FaultPlan> {
        if total_events == 0 || count == 0 {
            return Vec::new();
        }
        let mut rng_state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut plans = Vec::with_capacity(count);
        for i in 0..count as u64 {
            let lo = 1 + i * total_events / count as u64;
            let hi = 1 + (i + 1) * total_events / count as u64;
            let width = (hi - lo).max(1);
            let pick = lo + splitmix64(&mut rng_state) % width;
            plans.push(FaultPlan::after(pick.min(total_events)));
        }
        plans
    }
}

/// SplitMix64: the standard 64-bit mixing sequence — tiny, seedable and
/// statistically fine for picking kill points.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cage::ParticleId;
    use labchip_units::GridCoord;

    fn placed(id: u64) -> Event {
        Event::Placed {
            id: ParticleId(id),
            at: GridCoord::new(1, 1),
        }
    }

    #[test]
    fn journal_appends_and_truncates() {
        let mut journal = Journal::new();
        assert!(journal.is_empty());
        for id in 0..5 {
            journal.record(placed(id));
        }
        journal.record(Event::PhaseFinished { index: 0 });
        assert_eq!(journal.len(), 6);
        assert_eq!(journal.state_event_count(), 5);

        let prefix = journal.truncated(3);
        assert_eq!(prefix.len(), 3);
        assert_eq!(prefix.events(), &journal.events()[..3]);
        // Truncating past the end is a full copy, not a panic.
        assert_eq!(journal.truncated(100), journal);
    }

    #[test]
    fn journal_round_trips_through_serde() {
        let mut journal = Journal::new();
        journal.record(Event::PhaseStarted {
            index: 0,
            name: "load".into(),
        });
        journal.record(placed(7));
        let json = serde_json::to_string(&journal);
        let back: Journal = serde_json::from_str(&json).unwrap();
        assert_eq!(back, journal);
    }

    #[test]
    fn sweep_is_deterministic_stratified_and_in_range() {
        let a = FaultPlan::sweep(2005, 50, 900);
        let b = FaultPlan::sweep(2005, 50, 900);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        for (i, plan) in a.iter().enumerate() {
            assert!(plan.kill_after_events >= 1 && plan.kill_after_events <= 900);
            // Stratified: point i stays inside its stratum.
            let lo = 1 + i as u64 * 900 / 50;
            let hi = 1 + (i as u64 + 1) * 900 / 50;
            assert!(plan.kill_after_events >= lo && plan.kill_after_events < hi.max(lo + 1));
        }
        // A different seed moves at least one kill point.
        let c = FaultPlan::sweep(7, 50, 900);
        assert_ne!(a, c);
    }

    #[test]
    fn sweep_degenerate_inputs_are_empty_or_clamped() {
        assert!(FaultPlan::sweep(1, 8, 0).is_empty());
        assert!(FaultPlan::sweep(1, 0, 100).is_empty());
        // More strata than events still lands every point in range.
        for plan in FaultPlan::sweep(9, 10, 3) {
            assert!(plan.kill_after_events >= 1 && plan.kill_after_events <= 3);
        }
    }
}
