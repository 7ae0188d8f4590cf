//! Persistent shard-summary sink: crash-safe JSONL output for streaming
//! campaign folds.
//!
//! A fold over [`run`](crate::campaign::run) that summarises each shard
//! inside the worker keeps one summary per shard in memory; for
//! campaigns that must survive a harness crash, the fold also hands each
//! rendered summary to [`ShardSummarySink::record`] *as the shard
//! completes*, fsync'd per append, and the caller checks
//! [`ShardSummarySink::finish`] once the run returns. Every line on disk
//! is a durably finished shard. A crashed run leaves at worst one torn
//! trailing line (a write the crash interrupted), which
//! [`ShardSummarySink::replay`] detects and drops; every intact line is
//! replayable.
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
    pub fn record(&self, shard: usize, summary_json: &str) {
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
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        replay_bytes(&bytes)
    }
}

/// [`ShardSummarySink::replay`] over a file's bytes. Lines are split on
/// `b'\n'` before any decoding, so a torn tail that cuts a multi-byte
/// character in half is dropped like any other torn tail; only complete
/// lines must be UTF-8.
fn replay_bytes(bytes: &[u8]) -> io::Result<Vec<ShardRecord>> {
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    // The last piece is the unterminated tail: empty on clean shutdown,
    // a torn write after a crash. Either way it is not a record.
    lines.pop();
    let mut records = lines
        .into_iter()
        .map(|line| {
            let line = std::str::from_utf8(line).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("sink line: {e}"))
            })?;
            parse_line(line)
        })
        .collect::<io::Result<Vec<_>>>()?;
    records.sort_by_key(|r| r.shard);
    Ok(records)
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
    use proptest::prelude::*;

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

    /// A crash can cut the file at any byte, including inside a
    /// multi-byte character of a summary.
    #[test]
    fn replay_keeps_the_complete_lines_of_a_file_cut_at_every_byte() {
        let path = scratch_path("cut");
        let sink = ShardSummarySink::create(&path).unwrap();
        let summaries = ["{\"name\": \"café ✓\"}", "{}", "{\"note\": \"日本語\"}"];
        for (shard, summary) in summaries.iter().enumerate().rev() {
            sink.record(shard, summary);
        }
        sink.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        // The last line lost the tail of "日本語"'s last character.
        let records = ShardSummarySink::replay(&path).unwrap();
        let shards: Vec<usize> = records.iter().map(|r| r.shard).collect();
        assert_eq!(shards, [1, 2]);
        std::fs::remove_file(&path).unwrap();
    }

    fn arb_summaries() -> impl Strategy<Value = Vec<(usize, String)>> {
        proptest::collection::vec((0usize..64, "[a-zé✓日 ]{0,6}"), 1..6).prop_map(|pairs| {
            pairs
                .into_iter()
                .map(|(shard, text)| (shard, format!("{{\"s\": \"{text}\"}}")))
                .collect()
        })
    }

    /// The file `records` leaves, line by line, with each line's end offset.
    fn journal(records: &[(usize, String)]) -> (Vec<u8>, Vec<usize>) {
        let mut bytes = Vec::new();
        let mut ends = Vec::new();
        for (shard, summary) in records {
            bytes.extend_from_slice(
                format!("{{\"shard\": {shard}, \"summary\": {summary}}}\n").as_bytes(),
            );
            ends.push(bytes.len());
        }
        (bytes, ends)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Cut at every byte offset, replay returns exactly the lines
        /// that were complete at the cut, in shard order.
        #[test]
        fn replay_of_any_prefix_is_its_complete_lines(records in arb_summaries()) {
            let (bytes, ends) = journal(&records);
            for cut in 0..=bytes.len() {
                let mut expected: Vec<ShardRecord> = records
                    .iter()
                    .zip(&ends)
                    .filter(|(_, end)| **end <= cut)
                    .map(|((shard, summary), _)| ShardRecord {
                        shard: *shard,
                        summary: summary.clone(),
                    })
                    .collect();
                expected.sort_by_key(|r| r.shard);
                prop_assert_eq!(replay_bytes(&bytes[..cut]).unwrap(), expected, "cut {}", cut);
            }
        }

        /// Garbage inside an interior line — bytes that are not UTF-8, or
        /// text that breaks the line format — is refused, never skipped.
        #[test]
        fn replay_refuses_interior_garbage(
            records in arb_summaries(),
            line in 0usize..6,
            at in 0usize..200,
            garbage in (0u8..3, "[a-z{}:\" ]{0,5}"),
        ) {
            let (bytes, ends) = journal(&records);
            // An interior line: some complete line stays after it.
            let line = line % records.len();
            let start = if line == 0 { 0 } else { ends[line - 1] };
            let end = ends[line] - 1;
            let at = start + at % (end - start + 1);
            let (kind, text) = garbage;
            let injected: Vec<u8> = match kind {
                // A stray continuation byte: never valid UTF-8.
                0 => [&[0x80u8][..], text.as_bytes()].concat(),
                // A lone lead byte of a three-byte character.
                1 => [text.as_bytes(), &[0xE6u8][..]].concat(),
                // Text that replaces the whole line's framing.
                _ => format!("#{text}").into_bytes(),
            };
            let mut corrupt = bytes[..start].to_vec();
            if kind == 2 {
                corrupt.extend_from_slice(&injected);
            } else {
                corrupt.extend_from_slice(&bytes[start..at]);
                corrupt.extend_from_slice(&injected);
                corrupt.extend_from_slice(&bytes[at..end]);
            }
            corrupt.extend_from_slice(&bytes[end..]);
            prop_assert!(replay_bytes(&corrupt).is_err());
            // Whatever the damage, reading it never panics — not even
            // as a torn tail of any length.
            for cut in 0..=corrupt.len() {
                let _ = replay_bytes(&corrupt[..cut]);
            }
        }
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
