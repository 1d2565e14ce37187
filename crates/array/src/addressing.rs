//! Row/column programming interface and update planning.
//!
//! The per-pixel memory is written through a conventional row/column
//! interface: a row is selected, the column data bus presents the new phase
//! bits for (part of) that row, and the row is latched. The paper's §2
//! observes that even a full-frame reprogramming of >100,000 electrodes takes
//! well under a millisecond at modest clock rates — negligible compared with
//! the tens-of-milliseconds it takes a cell to follow a moving cage.

use crate::error::ArrayError;
use crate::pixel::PixelCell;
use labchip_units::{GridCoord, GridDims, Hertz, Seconds};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Order in which rows are visited during a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ScanOrder {
    /// Rows visited top to bottom.
    #[default]
    RowMajor,
    /// Even rows first, then odd rows (reduces transient pattern skew for
    /// moving cages).
    Interlaced,
}

/// The digital programming interface of the array.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProgrammingInterface {
    /// Interface clock frequency.
    pub clock: Hertz,
    /// Width of the column data bus in bits (bits written per clock).
    pub bus_width_bits: u32,
    /// Extra clock cycles of row-select / latch overhead per row.
    pub row_overhead_cycles: u32,
    /// Scan order.
    pub scan_order: ScanOrder,
}

impl ProgrammingInterface {
    /// The DATE'05-era interface: 10 MHz clock, 32-bit bus, 4 cycles of row
    /// overhead.
    pub fn date05_reference() -> Self {
        Self {
            clock: Hertz::from_megahertz(10.0),
            bus_width_bits: 32,
            row_overhead_cycles: 4,
            scan_order: ScanOrder::RowMajor,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidConfiguration`] when the clock or the bus
    /// width is zero.
    pub fn validate(&self) -> Result<(), ArrayError> {
        if self.clock.get() <= 0.0 {
            return Err(ArrayError::InvalidConfiguration {
                name: "clock",
                reason: "clock frequency must be positive".into(),
            });
        }
        if self.bus_width_bits == 0 {
            return Err(ArrayError::InvalidConfiguration {
                name: "bus_width_bits",
                reason: "bus width must be at least one bit".into(),
            });
        }
        Ok(())
    }

    /// Clock cycles needed to write one full row of an array with `cols`
    /// columns.
    pub fn cycles_per_row(&self, cols: u32) -> u64 {
        let bits = cols as u64 * PixelCell::MEMORY_BITS as u64;
        let data_cycles = bits.div_ceil(self.bus_width_bits as u64);
        data_cycles + self.row_overhead_cycles as u64
    }

    /// Time to reprogram every electrode of a `dims`-sized array.
    pub fn full_frame_time(&self, dims: GridDims) -> Seconds {
        let cycles = self.cycles_per_row(dims.cols) * dims.rows as u64;
        Seconds::new(cycles as f64 / self.clock.get())
    }

    /// Sustainable full-frame reprogramming rate (frames per second).
    pub fn frame_rate(&self, dims: GridDims) -> f64 {
        1.0 / self.full_frame_time(dims).get()
    }

    /// Plans a partial update touching only the rows that contain changed
    /// electrodes. Every listed electrode counts as changed; only the
    /// in-range ones select rows.
    pub fn plan_update(&self, dims: GridDims, changed: &[GridCoord]) -> UpdatePlan {
        let rows: BTreeSet<u32> = changed
            .iter()
            .filter(|c| dims.contains(**c))
            .map(|c| c.y)
            .collect();
        self.row_update(dims.cols, rows.len() as u32, changed.len())
    }

    /// The update that rewrites `rows_written` rows of an array with `cols`
    /// columns to change `electrodes_changed` electrodes — the one
    /// definition of the update arithmetic, for callers that count rows
    /// themselves.
    pub fn row_update(
        &self,
        cols: u32,
        rows_written: u32,
        electrodes_changed: usize,
    ) -> UpdatePlan {
        let cycles = self.cycles_per_row(cols) * u64::from(rows_written);
        UpdatePlan {
            rows_written,
            electrodes_changed,
            duration: Seconds::new(cycles as f64 / self.clock.get()),
        }
    }
}

impl Default for ProgrammingInterface {
    fn default() -> Self {
        Self::date05_reference()
    }
}

/// Result of planning a (partial) array update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpdatePlan {
    /// Number of rows that must be rewritten.
    pub rows_written: u32,
    /// Number of electrodes whose phase changes.
    pub electrodes_changed: usize,
    /// Time the update occupies on the programming interface.
    pub duration: Seconds,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_interface_validates() {
        assert!(ProgrammingInterface::date05_reference().validate().is_ok());
        let bad_clock = ProgrammingInterface {
            clock: Hertz::new(0.0),
            ..ProgrammingInterface::date05_reference()
        };
        assert!(bad_clock.validate().is_err());
        let bad_bus = ProgrammingInterface {
            bus_width_bits: 0,
            ..ProgrammingInterface::date05_reference()
        };
        assert!(bad_bus.validate().is_err());
    }

    #[test]
    fn full_frame_programming_is_sub_millisecond_at_paper_scale() {
        // C4/E3: reprogramming all 102,400 electrodes takes ~0.7 ms at
        // 10 MHz — two orders of magnitude faster than a cage step.
        let iface = ProgrammingInterface::date05_reference();
        let t = iface.full_frame_time(GridDims::new(320, 320));
        assert!(t.as_millis() < 1.5, "frame time = {} ms", t.as_millis());
        assert!(t.as_millis() > 0.1);
        assert!(iface.frame_rate(GridDims::new(320, 320)) > 500.0);
    }

    #[test]
    fn cycles_per_row_accounts_for_bus_width_and_overhead() {
        let iface = ProgrammingInterface::date05_reference();
        // 320 columns × 2 bits = 640 bits / 32-bit bus = 20 cycles + 4 = 24.
        assert_eq!(iface.cycles_per_row(320), 24);
        // Non-multiple widths round up.
        assert_eq!(
            iface.cycles_per_row(17),
            (17.0f64 * 2.0 / 32.0).ceil() as u64 + 4
        );
    }

    #[test]
    fn partial_update_touches_only_affected_rows() {
        let iface = ProgrammingInterface::date05_reference();
        let dims = GridDims::new(320, 320);
        let changed = vec![
            GridCoord::new(10, 5),
            GridCoord::new(200, 5),
            GridCoord::new(17, 200),
        ];
        let plan = iface.plan_update(dims, &changed);
        assert_eq!(plan.rows_written, 2);
        assert_eq!(plan.electrodes_changed, 3);
        assert!(plan.duration < iface.full_frame_time(dims));
        // Out-of-range coordinates are ignored.
        let plan2 = iface.plan_update(dims, &[GridCoord::new(400, 400)]);
        assert_eq!(plan2.rows_written, 0);
        assert_eq!(plan2.duration, Seconds::new(0.0));
    }

    #[test]
    fn plan_update_is_row_update_over_the_rows_it_counts() {
        let iface = ProgrammingInterface::date05_reference();
        let dims = GridDims::new(320, 200);
        // Two electrodes in row 5, one in row 150, one past the last row
        // and one past the last column: both out-of-range ones count as
        // changed electrodes but select no row.
        let changed = [
            GridCoord::new(10, 5),
            GridCoord::new(200, 5),
            GridCoord::new(17, 150),
            GridCoord::new(3, 200),
            GridCoord::new(320, 7),
        ];
        let plan = iface.plan_update(dims, &changed);
        assert_eq!(plan, iface.row_update(dims.cols, 2, 5));
        assert_eq!(plan.rows_written, 2);
        assert_eq!(plan.electrodes_changed, 5);
        assert_eq!(
            iface.plan_update(dims, &changed[3..]),
            iface.row_update(dims.cols, 0, 2)
        );
        assert_eq!(
            iface.plan_update(dims, &[]),
            iface.row_update(dims.cols, 0, 0)
        );
    }

    #[test]
    fn faster_clock_programs_faster() {
        let slow = ProgrammingInterface::date05_reference();
        let fast = ProgrammingInterface {
            clock: Hertz::from_megahertz(50.0),
            ..slow
        };
        let dims = GridDims::new(320, 320);
        assert!(fast.full_frame_time(dims) < slow.full_frame_time(dims));
    }
}
