//! On-disk persistence of farm job history: one `job-<id>.record.json`
//! ([`JobRecord`]) plus one `job-<id>.journal.json` (the committed
//! [`Journal`]) per job, in a flat directory.
//!
//! The record is self-contained — protocol, effective config, seed — so a
//! saved job can be re-run offline and its journal diffed against the
//! fresh run (`report journal-diff --farm DIR JOB`), the same
//! divergence-localisation workflow E14 established for single runs.

use std::io;
use std::path::{Path, PathBuf};

use labchip_manipulation::journal::Journal;

use crate::job::{JobId, JobRecord};

/// Reads and writes `job-<id>.{record,journal}.json` pairs under one
/// directory.
#[derive(Debug, Clone)]
pub struct HistoryStore {
    dir: PathBuf,
}

impl HistoryStore {
    /// A store rooted at `dir` (created on the first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn record_path(&self, id: JobId) -> PathBuf {
        self.dir.join(format!("{id}.record.json"))
    }

    fn journal_path(&self, id: JobId) -> PathBuf {
        self.dir.join(format!("{id}.journal.json"))
    }

    /// Persists one job's record and committed journal.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (unwritable directory, full disk).
    pub fn save(&self, record: &JobRecord, journal: &Journal) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        std::fs::write(
            self.record_path(record.id),
            serde_json::to_string_pretty(record),
        )?;
        std::fs::write(
            self.journal_path(record.id),
            serde_json::to_string_pretty(journal),
        )?;
        Ok(())
    }

    /// Loads one job's record.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file, or [`io::ErrorKind::InvalidData`] on
    /// malformed JSON.
    pub fn load_record(&self, id: JobId) -> io::Result<JobRecord> {
        let text = std::fs::read_to_string(self.record_path(id))?;
        serde_json::from_str(&text)
            .map_err(|error| io::Error::new(io::ErrorKind::InvalidData, error.to_string()))
    }

    /// Loads one job's committed journal.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file, or [`io::ErrorKind::InvalidData`] on
    /// malformed JSON.
    pub fn load_journal(&self, id: JobId) -> io::Result<Journal> {
        let text = std::fs::read_to_string(self.journal_path(id))?;
        serde_json::from_str(&text)
            .map_err(|error| io::Error::new(io::ErrorKind::InvalidData, error.to_string()))
    }

    /// Job ids with a saved record in the store, ascending.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors (a missing directory yields an
    /// empty list).
    pub fn list(&self) -> io::Result<Vec<JobId>> {
        let mut ids = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(error) if error.kind() == io::ErrorKind::NotFound => return Ok(ids),
            Err(error) => return Err(error),
        };
        for entry in entries {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(stem) = name.strip_suffix(".record.json") {
                if let Some(id) = JobId::parse(stem) {
                    ids.push(id);
                }
            }
        }
        ids.sort();
        Ok(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobStatus;
    use labchip::workload::{Protocol, WorkloadConfig};
    use labchip_manipulation::journal::Event;

    fn record(id: u64) -> JobRecord {
        JobRecord {
            id: JobId(id),
            tenant: "t".into(),
            protocol: Protocol::new("p"),
            config: WorkloadConfig::default(),
            status: JobStatus::Done,
            phases_completed: 5,
            resumes: 1,
            journal_events: 2,
            queue_ms: 0.5,
            run_ms: 1.5,
            state_hash: Some("0x0000000000000001".into()),
            detail: "completed".into(),
        }
    }

    #[test]
    fn save_load_list_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "labchip-farm-history-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = HistoryStore::new(&dir);
        assert!(store.list().unwrap().is_empty());

        let mut journal = Journal::new();
        journal.record(Event::PhaseStarted {
            index: 0,
            name: "load".into(),
        });
        store.save(&record(3), &journal).unwrap();
        store.save(&record(1), &Journal::new()).unwrap();

        assert_eq!(store.list().unwrap(), vec![JobId(1), JobId(3)]);
        let loaded = store.load_record(JobId(3)).unwrap();
        assert_eq!(loaded, record(3));
        assert_eq!(store.load_journal(JobId(3)).unwrap(), journal);
        assert!(store.load_record(JobId(9)).is_err());

        // A record saved before the `live_planning` knob was removed from
        // `WorkloadConfig` still loads.
        let current = serde_json::to_string(&record(5));
        let legacy = current.replacen("\"config\":{", "\"config\":{\"live_planning\":false,", 1);
        assert_ne!(legacy, current);
        std::fs::write(store.record_path(JobId(5)), legacy).unwrap();
        assert_eq!(store.load_record(JobId(5)).unwrap(), record(5));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
