//! The experiment harness: one module per claim/figure of the paper.
//!
//! The DATE'05 paper is a position paper without numbered tables, so the
//! reproduction defines one experiment per quantitative claim or figure (see
//! `DESIGN.md` and `EXPERIMENTS.md` at the repository root):
//!
//! | id | claim | module |
//! |----|-------|--------|
//! | E1 | >100,000 electrodes, tens of thousands of cages | [`e1_scale`] |
//! | E2 | DEP force ∝ V²: older nodes win | [`e2_technology`] |
//! | E3 | cells move at 10–100 µm/s; electronics has huge slack | [`e3_motion`] |
//! | E4 | averaging sensor output buys SNR with spare time | [`e4_sensing`] |
//! | E5 | prototyping beats simulation for fluidics (Fig. 1 vs 2) | [`e5_designflow`] |
//! | E6 | dry-film resist: days and euros per iteration | [`e6_fabrication`] |
//! | E7 | pattern-shift manipulation at scale (router vs baseline) | [`e7_routing`] |
//! | E8 | design centering buys yield (Fig. 1 dashed loop) | [`e8_centering`] |
//! | E9 | the assembled device runs a full assay (Fig. 3) | [`e9_assay`] |
//! | E10 | full-array concurrent sort, thousands of cages | [`e10_fullarray`] |
//! | E11 | sustained route→sense→flush assay throughput | [`e11_throughput`] |
//! | E12 | closed-loop assay under sensor noise | [`e12_closedloop`] |
//! | E13 | programmable protocols composed from assay phases | [`e13_protocols`] |
//! | E14 | fault-injection sweep: replay + checkpoint/resume equivalence | [`e14_faults`] |
//! | E15 | multi-tenant chip-farm fleet benchmark | `labchip_farm::scenario` (sits above this crate) |
//!
//! E10–E14 go beyond the paper's individual claims: they exercise the
//! *assembled* pipeline at the scale §4 envisions — comparing the
//! incremental sharded planner against the E7 planners, measuring sustained
//! assay throughput, closing the sense→decide→act loop against a
//! physically noisy detection path, running arbitrary protocols composed
//! from the phase pipeline, and proving the event-sourced pipeline
//! crash-safe under a seeded kill-point sweep.
//!
//! Every experiment exposes a `Config` (with defaults matching the paper's
//! scenario), a typed result, and a conversion into a generic
//! [`ExperimentTable`] that the `report` binary prints and `EXPERIMENTS.md`
//! quotes.
//!
//! ## Entry point: the scenario engine
//!
//! All experiments run through
//! [`ScenarioRegistry`](crate::scenario::ScenarioRegistry) and
//! [`Runner`](crate::scenario::Runner), which add typed config overrides,
//! seeds, progress streaming and JSON output. The pre-engine free
//! `run(&Config)` shims (every module, E1–E13) are **deleted** — callers
//! construct the module's `Scenario` handle (e.g.
//! [`e1_scale::ScaleScenario`]) and call
//! [`Scenario::run`](crate::scenario::Scenario::run) with a
//! [`ScenarioContext`](crate::scenario::ScenarioContext).

pub mod e10_fullarray;
pub mod e11_throughput;
pub mod e12_closedloop;
pub mod e13_protocols;
pub mod e14_faults;
pub mod e1_scale;
pub mod e2_technology;
pub mod e3_motion;
pub mod e4_sensing;
pub mod e5_designflow;
pub mod e6_fabrication;
pub mod e7_routing;
pub mod e8_centering;
pub mod e9_assay;

use serde::{Deserialize, Serialize};
use std::fmt;

/// A rendered experiment result: an identifier, a caption and a plain table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentTable {
    /// Experiment identifier (`"E1"` … `"E9"`).
    pub id: String,
    /// One-line caption.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows, one `Vec<String>` per row, same arity as `columns`.
    pub rows: Vec<Vec<String>>,
}

impl ExperimentTable {
    /// Creates a table, checking that every row has the right arity.
    ///
    /// # Panics
    ///
    /// Panics if a row's length differs from the number of columns — that is
    /// a bug in the experiment code, not a runtime condition.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        columns: Vec<String>,
        rows: Vec<Vec<String>>,
    ) -> Self {
        let columns_len = columns.len();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                columns_len,
                "row {i} has {} cells but the table has {columns_len} columns",
                row.len()
            );
        }
        Self {
            id: id.into(),
            title: title.into(),
            columns,
            rows,
        }
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as a `serde_json` value — the payload embedded by
    /// `report run --json`. The same table feeds
    /// [`ExperimentTable::to_markdown`], so the JSON output and the
    /// `EXPERIMENTS.md` tables always come from one source.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::to_value(self)
    }

    /// Renders the table as the markdown block quoted in `EXPERIMENTS.md`
    /// (identical to the `Display` rendering).
    pub fn to_markdown(&self) -> String {
        self.to_string()
    }

    /// Parses a table back from its [`ExperimentTable::to_markdown`]
    /// rendering (cell padding is not preserved — cells are trimmed).
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not a rendered table.
    pub fn from_markdown(text: &str) -> Result<ExperimentTable, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty input")?;
        let header = header
            .strip_prefix("## ")
            .ok_or("missing `## id — title` header line")?;
        let (id, title) = header
            .split_once(" — ")
            .ok_or("header line has no ` — ` separator")?;

        let parse_row = |line: &str| -> Result<Vec<String>, String> {
            let trimmed = line.trim();
            let inner = trimmed
                .strip_prefix('|')
                .and_then(|l| l.strip_suffix('|'))
                .ok_or_else(|| format!("table line not `|`-delimited: `{trimmed}`"))?;
            Ok(inner
                .split('|')
                .map(|cell| cell.trim().to_owned())
                .collect())
        };

        let columns = parse_row(lines.next().ok_or("missing column header row")?)?;
        let rule = lines.next().ok_or("missing header rule row")?;
        if !rule
            .trim()
            .chars()
            .all(|c| c == '|' || c == '-' || c == ' ')
        {
            return Err(format!("malformed header rule `{rule}`"));
        }
        let mut rows = Vec::new();
        for line in lines {
            let row = parse_row(line)?;
            if row.len() != columns.len() {
                return Err(format!(
                    "row has {} cells but the table has {} columns",
                    row.len(),
                    columns.len()
                ));
            }
            rows.push(row);
        }
        Ok(ExperimentTable {
            id: id.trim().to_owned(),
            title: title.trim().to_owned(),
            columns,
            rows,
        })
    }
}

impl fmt::Display for ExperimentTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {} — {}", self.id, self.title)?;
        // Column widths.
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
            .collect();
        writeln!(f, "| {} |", header.join(" | "))?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "|-{}-|", rule.join("-|-"))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            writeln!(f, "| {} |", cells.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_includes_all_cells() {
        let table = ExperimentTable::new(
            "E0",
            "demo",
            vec!["a".into(), "b".into()],
            vec![vec!["1".into(), "2".into()], vec!["30".into(), "40".into()]],
        );
        let rendered = table.to_string();
        assert!(rendered.contains("E0"));
        assert!(rendered.contains("| 1 "));
        assert!(rendered.contains("40"));
        assert_eq!(table.row_count(), 2);
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn mismatched_row_arity_panics() {
        let _ = ExperimentTable::new(
            "E0",
            "demo",
            vec!["a".into(), "b".into()],
            vec![vec!["1".into()]],
        );
    }

    #[test]
    fn markdown_round_trips() {
        let table = ExperimentTable::new(
            "E6",
            "Fabrication processes: turnaround, mask cost",
            vec!["process".into(), "EUR/device @10".into()],
            vec![
                vec!["dry film resist".into(), "12".into()],
                vec!["CMOS".into(), "84000".into()],
            ],
        );
        let parsed = ExperimentTable::from_markdown(&table.to_markdown()).unwrap();
        assert_eq!(parsed, table);
        // And the re-rendering is byte-identical.
        assert_eq!(parsed.to_markdown(), table.to_markdown());
    }

    #[test]
    fn malformed_markdown_is_rejected() {
        assert!(ExperimentTable::from_markdown("").is_err());
        assert!(ExperimentTable::from_markdown("no header").is_err());
        assert!(ExperimentTable::from_markdown("## E1 no separator\n| a |\n|---|").is_err());
        assert!(
            ExperimentTable::from_markdown("## E1 — t\n| a | b |\n|---|---|\n| 1 |").is_err(),
            "arity mismatch must be rejected"
        );
    }

    #[test]
    fn json_and_markdown_come_from_the_same_table() {
        let table = ExperimentTable::new("E0", "demo", vec!["a".into()], vec![vec!["1".into()]]);
        let json = table.to_json();
        let object = json.as_object().unwrap();
        assert_eq!(object.get("id").unwrap().as_str(), Some("E0"));
        let back: ExperimentTable = serde_json::from_value(&json).unwrap();
        assert_eq!(back.to_markdown(), table.to_markdown());
    }
}
