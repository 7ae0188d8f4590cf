//! Persistent shard-summary sink: crash-safe JSONL output for the
//! streaming campaign runner.
//!
//! [`run_machine_shard_summaries`](crate::campaign::run_machine_shard_summaries)
//! holds one summary per shard in memory; for campaigns that must
//! survive a harness crash, its persistent variant appends each shard's
//! summary to a [`ShardSummarySink`] *as the shard completes*, fsync'd
//! per append, so every line on disk is a durably finished shard. A
//! crashed run leaves at worst one torn trailing line (a write the
//! crash interrupted), which [`ShardSummarySink::replay`] detects and
//! drops; every intact line is replayable.
//!
//! Line format, one shard per line:
//!
//! ```text
//! {"shard": 17, "summary": <caller-rendered JSON>}
//! ```
//!
//! Workers append in completion order, which is nondeterministic under
//! parallel claiming — [`replay`](ShardSummarySink::replay) returns
//! records sorted by shard index so consumers see the canonical order.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Append-only JSONL sink for shard summaries, fsync'd per record.
///
/// Sharable across worker threads; the first I/O error is latched and
/// reported by [`finish`](Self::finish) (later appends are skipped, so
/// a dying disk fails the run instead of silently dropping shards).
#[derive(Debug)]
pub struct ShardSummarySink {
    state: Mutex<SinkState>,
    path: PathBuf,
}

#[derive(Debug)]
struct SinkState {
    file: File,
    error: Option<io::Error>,
}

/// One replayed sink line: a shard that durably completed before the
/// crash (or clean shutdown).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// The shard the summary covers.
    pub shard: usize,
    /// The caller-rendered summary JSON, exactly as recorded.
    pub summary: String,
}

impl ShardSummarySink {
    /// Creates (or truncates) the sink file for a fresh run.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Self {
            state: Mutex::new(SinkState { file, error: None }),
            path,
        })
    }

    /// Opens the sink file for appending — resuming a prior run's file
    /// without disturbing its durable lines. A torn tail left by a crash
    /// (bytes after the last `\n`) is cut off first: appending onto it
    /// would join it to the next record and turn it into interior
    /// corruption, which makes [`replay`](Self::replay) refuse the file.
    pub fn append(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let durable = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |nl| nl + 1);
        if durable < bytes.len() {
            file.set_len(durable as u64)?;
            file.sync_data()?;
        }
        Ok(Self {
            state: Mutex::new(SinkState { file, error: None }),
            path,
        })
    }

    /// The file this sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one shard's summary line and fsyncs it. Called from
    /// worker threads; a poisoned lock (a worker that panicked while
    /// appending) is recovered — the latched-error protocol already
    /// covers partial writes.
    pub(crate) fn record(&self, shard: usize, summary_json: &str) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.error.is_some() {
            return;
        }
        let line = format!("{{\"shard\": {shard}, \"summary\": {summary_json}}}\n");
        let attempt = state
            .file
            .write_all(line.as_bytes())
            .and_then(|()| state.file.sync_data());
        if let Err(e) = attempt {
            state.error = Some(e);
        }
    }

    /// Surfaces the first append error, if any. Call once after the run;
    /// `Ok` means every recorded line is durably on disk.
    pub fn finish(&self) -> io::Result<()> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        match state.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Reads a sink file back, dropping at most one torn trailing line
    /// (a crash-interrupted append never ends in a newline). Records
    /// return sorted by shard index, whatever the completion order was;
    /// a malformed *interior* line is an error — torn tails are the only
    /// corruption an append-fsync crash can produce.
    pub fn replay(path: impl AsRef<Path>) -> io::Result<Vec<ShardRecord>> {
        let mut text = String::new();
        File::open(path)?.read_to_string(&mut text)?;
        let mut records = Vec::new();
        let mut rest = text.as_str();
        while let Some(nl) = rest.find('\n') {
            let line = &rest[..nl];
            rest = &rest[nl + 1..];
            records.push(parse_line(line)?);
        }
        // `rest` is now the unterminated tail: empty on clean shutdown,
        // a torn write after a crash. Either way it is not a record.
        records.sort_by_key(|r| r.shard);
        Ok(records)
    }
}

fn parse_line(line: &str) -> io::Result<ShardRecord> {
    let malformed = || {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed sink line: {line:?}"),
        )
    };
    let body = line
        .strip_prefix("{\"shard\": ")
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(malformed)?;
    let (shard, summary) = body.split_once(", \"summary\": ").ok_or_else(malformed)?;
    Ok(ShardRecord {
        shard: shard.parse().map_err(|_| malformed())?,
        summary: summary.to_string(),
    })
}

/// Collision-free scratch path for tests, without wall-clock or RNG.
#[cfg(test)]
pub(crate) fn scratch_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("hlisa_sink_{}_{tag}_{n}.jsonl", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_fsync_and_replay_in_shard_order() {
        let path = scratch_path("order");
        let sink = ShardSummarySink::create(&path).unwrap();
        // Completion order is whatever the scheduler made of it.
        for (shard, payload) in [
            (2usize, "{\"ok\": 2}"),
            (0, "{\"ok\": 0}"),
            (1, "{\"ok\": 1}"),
        ] {
            sink.record(shard, payload);
        }
        sink.finish().unwrap();
        let records = ShardSummarySink::replay(&path).unwrap();
        assert_eq!(
            records,
            vec![
                ShardRecord {
                    shard: 0,
                    summary: "{\"ok\": 0}".into()
                },
                ShardRecord {
                    shard: 1,
                    summary: "{\"ok\": 1}".into()
                },
                ShardRecord {
                    shard: 2,
                    summary: "{\"ok\": 2}".into()
                },
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_drops_a_torn_tail_but_keeps_durable_lines() {
        let path = scratch_path("torn");
        let sink = ShardSummarySink::create(&path).unwrap();
        sink.record(0, "{\"visits\": 9}");
        sink.record(1, "{\"visits\": 7}");
        sink.finish().unwrap();
        // Simulate a crash mid-append: a partial line, no newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"shard\": 2, \"summ").unwrap();
        }
        let records = ShardSummarySink::replay(&path).unwrap();
        assert_eq!(records.len(), 2, "torn tail must not become a record");
        assert_eq!(records[0].shard, 0);
        assert_eq!(records[1].shard, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_rejects_interior_corruption() {
        let path = scratch_path("corrupt");
        std::fs::write(&path, "not json at all\n{\"shard\": 0, \"summary\": {}}\n").unwrap();
        assert!(ShardSummarySink::replay(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_resumes_without_truncating() {
        let path = scratch_path("resume");
        let first = ShardSummarySink::create(&path).unwrap();
        first.record(0, "{}");
        first.finish().unwrap();
        let resumed = ShardSummarySink::append(&path).unwrap();
        resumed.record(1, "{}");
        resumed.finish().unwrap();
        assert_eq!(ShardSummarySink::replay(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_after_a_crash_cuts_the_torn_tail() {
        let path = scratch_path("resume_torn");
        let first = ShardSummarySink::create(&path).unwrap();
        first.record(0, "{}");
        first.record(1, "{}");
        first.finish().unwrap();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"shard\": 2, \"summ").unwrap();
        }
        let resumed = ShardSummarySink::append(&path).unwrap();
        resumed.record(2, "{}");
        resumed.finish().unwrap();
        let records = ShardSummarySink::replay(&path).unwrap();
        let shards: Vec<usize> = records.iter().map(|r| r.shard).collect();
        assert_eq!(shards, [0, 1, 2]);
        std::fs::remove_file(&path).unwrap();
    }
}
