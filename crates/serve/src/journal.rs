//! The durable job journal: a write-ahead log plus snapshot, so a
//! `kill -9` at any instant loses no accepted job.
//!
//! Discipline: **record, then act.** Every state transition is
//! appended (and fsynced) to `journal.jsonl` *before* the server acts
//! on it. Restart replays the journal over the last `state.json`
//! snapshot; the replayed fold is idempotent, so any crash window —
//! including the one between writing a new snapshot and truncating
//! the journal — reconstructs the same job table.
//!
//! Files under the state directory:
//!
//! - `journal.jsonl` — append-only, one record per line, fsynced per
//!   record. The final line may be torn by a crash; the tolerant
//!   reader skips it and counts it (never a parse error).
//! - `state.json` — full job-table snapshot, written via atomic
//!   temp-file + rename during compaction. Old or new bytes, never
//!   torn.
//!
//! Compaction order matters: snapshot first (atomic), then truncate
//! the journal. A crash between the two replays old records onto the
//! new snapshot, which the idempotent fold absorbs.

use crate::queue::Priority;
use spp_core::json::{parse, Json};
use spp_core::JsonlAppender;
use std::io;
use std::path::{Path, PathBuf};

/// One journal record: a job state transition, written before the
/// server acts on it.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A job was admitted.
    Submit {
        /// Job id (`j<seq>`).
        job: String,
        /// Canonical scenario digest, 16 hex digits.
        digest: String,
        /// Admission lane.
        priority: Priority,
        /// Milliseconds until the job's deadline (0 = none).
        deadline_ms: u64,
        /// The canonical scenario TOML (enough to re-run the job from
        /// the journal alone).
        spec: String,
    },
    /// A worker picked the job up (attempt numbers start at 1).
    Start {
        /// Job id.
        job: String,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The job was evicted mid-run to free a worker for a
    /// higher-priority submission; it returns to the queue and later
    /// resumes from its checkpoint.
    Preempt {
        /// Job id.
        job: String,
    },
    /// A client cancelled the job.
    Cancel {
        /// Job id.
        job: String,
    },
    /// The job reached a terminal state.
    End {
        /// Job id.
        job: String,
        /// Terminal state label (`done`, `failed`, `quarantined`,
        /// `cancelled`, `deadline-expired`).
        state: String,
        /// The deterministic result line (only for `done`).
        result: Option<String>,
        /// Error text (for `failed` / `quarantined`).
        error: Option<String>,
        /// Attempts consumed.
        attempts: u32,
        /// True when any attempt resumed from a checkpoint.
        resumed: bool,
    },
}

impl Record {
    /// The single-line JSON form appended to the journal.
    pub fn to_line(&self) -> String {
        let head = |ev: &str, job: &str| Json::obj().with("ev", ev).with("job", job);
        let line = match self {
            Record::Submit {
                job,
                digest,
                priority,
                deadline_ms,
                spec,
            } => head("submit", job)
                .with("digest", digest)
                .with("priority", priority.label())
                .with("deadline_ms", *deadline_ms)
                .with("spec", spec),
            Record::Start { job, attempt } => head("start", job).with("attempt", *attempt),
            Record::Preempt { job } => head("preempt", job),
            Record::Cancel { job } => head("cancel", job),
            Record::End {
                job,
                state,
                result,
                error,
                attempts,
                resumed,
            } => {
                let mut line = head("end", job)
                    .with("state", state)
                    .with("attempts", *attempts)
                    .with("resumed", *resumed);
                if let Some(r) = result {
                    line.push("result", r);
                }
                if let Some(e) = error {
                    line.push("error", e);
                }
                line
            }
        };
        line.compact()
    }

    /// Parse one journal line back into a record.
    pub fn from_line(line: &str) -> Result<Record, String> {
        let v = parse(line).map_err(|e| e.to_string())?;
        let job = v
            .str_field("job")
            .ok_or_else(|| "record without a job id".to_string())?
            .to_string();
        match v.str_field("ev") {
            Some("submit") => Ok(Record::Submit {
                job,
                digest: v.str_field("digest").unwrap_or_default().to_string(),
                priority: Priority::from_label(v.str_field("priority").unwrap_or("normal"))
                    .unwrap_or(Priority::Normal),
                deadline_ms: v.int_field("deadline_ms").unwrap_or(0).max(0) as u64,
                spec: v
                    .str_field("spec")
                    .ok_or_else(|| "submit record without a spec".to_string())?
                    .to_string(),
            }),
            Some("start") => Ok(Record::Start {
                job,
                attempt: v.int_field("attempt").unwrap_or(1).max(1) as u32,
            }),
            Some("preempt") => Ok(Record::Preempt { job }),
            Some("cancel") => Ok(Record::Cancel { job }),
            Some("end") => Ok(Record::End {
                job,
                state: v
                    .str_field("state")
                    .ok_or_else(|| "end record without a state".to_string())?
                    .to_string(),
                result: v.str_field("result").map(str::to_string),
                error: v.str_field("error").map(str::to_string),
                attempts: v.int_field("attempts").unwrap_or(0).max(0) as u32,
                resumed: v.bool_field("resumed").unwrap_or(false),
            }),
            other => Err(format!("unknown journal event {other:?}")),
        }
    }
}

/// What a journal load found on disk: the snapshot (if any), the
/// records appended since it, and read diagnostics.
pub struct Replay {
    /// Parsed `state.json` snapshot, if one exists.
    pub snapshot: Option<Json>,
    /// Journal records since the snapshot, in append order.
    pub records: Vec<Record>,
    /// Torn final lines skipped by the tolerant reader (0 or 1 in
    /// practice; a crash can tear at most the last line).
    pub truncated: usize,
    /// Mid-stream lines that failed to parse (with their errors) —
    /// counted and skipped, never fatal.
    pub malformed: Vec<String>,
}

/// The open journal: an fsync-per-record appender plus the snapshot
/// path it compacts into.
pub struct Journal {
    dir: PathBuf,
    appender: JsonlAppender,
    /// Records appended since the last compaction.
    pub since_compact: usize,
}

/// `state.json` path under a state directory.
pub fn state_path(dir: &Path) -> PathBuf {
    dir.join("state.json")
}

/// `journal.jsonl` path under a state directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.jsonl")
}

impl Journal {
    /// Load whatever survives under `dir` (snapshot + journal tail),
    /// then open the journal for appending. Missing files mean a
    /// fresh state directory, not an error.
    pub fn open(dir: &Path) -> io::Result<(Journal, Replay)> {
        std::fs::create_dir_all(dir)?;
        let snapshot = match std::fs::read_to_string(state_path(dir)) {
            Ok(text) => Some(parse(&text).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt {}: {e}", state_path(dir).display()),
                )
            })?),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let stream = spp_core::read_jsonl_tolerant(&journal_path(dir))?;
        let mut records = Vec::new();
        let mut malformed = Vec::new();
        for line in &stream.lines {
            match Record::from_line(line) {
                Ok(r) => records.push(r),
                Err(e) => malformed.push(e),
            }
        }
        let since_compact = records.len();
        let appender = JsonlAppender::open(&journal_path(dir), true)?;
        Ok((
            Journal {
                dir: dir.to_path_buf(),
                appender,
                since_compact,
            },
            Replay {
                snapshot,
                records,
                truncated: stream.truncated,
                malformed,
            },
        ))
    }

    /// Append one record, fsynced before return — the record-then-act
    /// contract.
    pub fn append(&mut self, rec: &Record) -> io::Result<()> {
        self.appender.append(&rec.to_line())?;
        self.since_compact += 1;
        Ok(())
    }

    /// Compact: atomically replace `state.json` with `snapshot_json`,
    /// then truncate the journal. Crash-safe in both windows (see
    /// module docs).
    pub fn compact(&mut self, snapshot_json: &str) -> io::Result<()> {
        spp_core::atomic_write_str(&state_path(&self.dir), snapshot_json)?;
        // Replace-then-reopen: the old fd must not keep appending to
        // an unlinked inode.
        spp_core::atomic_write(&journal_path(&self.dir), b"")?;
        self.appender = JsonlAppender::open(&journal_path(&self.dir), true)?;
        self.since_compact = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("spp-serve-journal-{name}"));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn submit(job: &str) -> Record {
        Record::Submit {
            job: job.to_string(),
            digest: "00ff00ff00ff00ff".to_string(),
            priority: Priority::High,
            deadline_ms: 250,
            spec: "schema = 1\n[scenario]\nname = \"x\"\n".to_string(),
        }
    }

    #[test]
    fn record_line_bytes_are_pinned() {
        let j = || "j1".to_string();
        let lines: Vec<String> = [
            submit("j1"),
            Record::Start {
                job: j(),
                attempt: 2,
            },
            Record::Preempt { job: j() },
            Record::Cancel { job: j() },
            Record::End {
                job: j(),
                state: "failed".to_string(),
                result: Some("{\"a\": 1}".to_string()),
                error: Some("boom\n".to_string()),
                attempts: 3,
                resumed: true,
            },
            Record::End {
                job: j(),
                state: "done".to_string(),
                result: None,
                error: None,
                attempts: 1,
                resumed: false,
            },
        ]
        .iter()
        .map(Record::to_line)
        .collect();
        assert_eq!(
            lines,
            [
                "{\"ev\": \"submit\", \"job\": \"j1\", \"digest\": \"00ff00ff00ff00ff\", \"priority\": \"high\", \"deadline_ms\": 250, \"spec\": \"schema = 1\\n[scenario]\\nname = \\\"x\\\"\\n\"}",
                "{\"ev\": \"start\", \"job\": \"j1\", \"attempt\": 2}",
                "{\"ev\": \"preempt\", \"job\": \"j1\"}",
                "{\"ev\": \"cancel\", \"job\": \"j1\"}",
                "{\"ev\": \"end\", \"job\": \"j1\", \"state\": \"failed\", \"attempts\": 3, \"resumed\": true, \"result\": \"{\\\"a\\\": 1}\", \"error\": \"boom\\n\"}",
                "{\"ev\": \"end\", \"job\": \"j1\", \"state\": \"done\", \"attempts\": 1, \"resumed\": false}",
            ]
        );
    }

    #[test]
    fn records_round_trip_through_their_line_form() {
        let recs = [
            submit("j1"),
            Record::Start {
                job: "j1".to_string(),
                attempt: 2,
            },
            Record::Preempt {
                job: "j1".to_string(),
            },
            Record::Cancel {
                job: "j1".to_string(),
            },
            Record::End {
                job: "j1".to_string(),
                state: "done".to_string(),
                result: Some("{\"digest\": \"00\", \"status\": \"pass\"}".to_string()),
                error: None,
                attempts: 1,
                resumed: true,
            },
            Record::End {
                job: "j2".to_string(),
                state: "quarantined".to_string(),
                result: None,
                error: Some("panicked: \"boom\"\nline two".to_string()),
                attempts: 3,
                resumed: false,
            },
        ];
        for r in &recs {
            let line = r.to_line();
            assert!(!line.contains('\n'), "journal lines must be single lines");
            assert_eq!(&Record::from_line(&line).unwrap(), r, "via {line}");
        }
    }

    #[test]
    fn open_append_reopen_replays_everything() {
        let dir = tdir("replay");
        {
            let (mut j, replay) = Journal::open(&dir).unwrap();
            assert!(replay.snapshot.is_none());
            assert!(replay.records.is_empty());
            j.append(&submit("j1")).unwrap();
            j.append(&Record::Start {
                job: "j1".to_string(),
                attempt: 1,
            })
            .unwrap();
            // No clean shutdown: drop mid-flight like a kill.
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.truncated, 0);
        assert!(replay.malformed.is_empty());
        assert_eq!(replay.records[0], submit("j1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_counted_not_fatal() {
        let dir = tdir("torn");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.append(&submit("j1")).unwrap();
        }
        // Simulate a crash mid-append: a partial record with no
        // trailing newline.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(journal_path(&dir))
            .unwrap();
        f.write_all(b"{\"ev\": \"start\", \"jo").unwrap();
        drop(f);

        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.records.len(), 1, "the whole record survives");
        assert_eq!(replay.truncated, 1, "the torn line is counted");
        assert!(replay.malformed.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_snapshots_then_truncates() {
        let dir = tdir("compact");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.append(&submit("j1")).unwrap();
            assert_eq!(j.since_compact, 1);
            j.compact("{\"next_seq\": 2, \"jobs\": []}").unwrap();
            assert_eq!(j.since_compact, 0);
            // Appends after compaction land in the *new* journal file.
            j.append(&submit("j2")).unwrap();
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        let snap = replay.snapshot.expect("snapshot written");
        assert_eq!(snap.int_field("next_seq"), Some(2));
        assert_eq!(replay.records.len(), 1, "only the post-compact record");
        assert!(matches!(&replay.records[0], Record::Submit { job, .. } if job == "j2"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_stream_garbage_is_skipped_and_reported() {
        let dir = tdir("garbage");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.append(&submit("j1")).unwrap();
        }
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(journal_path(&dir))
            .unwrap();
        f.write_all(b"not json at all\n").unwrap();
        drop(f);
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.append(&submit("j2")).unwrap();
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.malformed.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
