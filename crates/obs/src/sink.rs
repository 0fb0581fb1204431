//! Event sinks: where serialized records go.
//!
//! The only sink today is [`JsonlSink`], a buffered line-per-record writer.
//! It takes any [`Codec`] value, so one `--obs-events` file carries
//! [`crate::EventRecord`] round events, [`crate::SpanRecord`] spans, and
//! [`crate::HealthRecord`] watchdog lines side by side. It is shared across
//! worker threads through a mutex; contention stays low because producers
//! encode lines locally and write them in batches, not per event.

use cdt_types::json::Codec;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// A buffered JSON-lines sink: one JSON object per line, one line per event.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BufWriter<File>> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Encodes and writes one record as a line.
    pub fn write_record<T: Codec>(&self, record: &T) -> io::Result<()> {
        // Encode outside the lock; only the write itself is serialized.
        let mut line = Vec::with_capacity(256);
        record.encode(&mut line);
        line.push(b'\n');
        self.lock().write_all(&line)
    }

    /// Writes lines a producer already encoded, under a single lock
    /// acquisition.
    pub fn write_lines(&self, lines: &[u8]) -> io::Result<()> {
        if lines.is_empty() {
            return Ok(());
        }
        self.lock().write_all(lines)
    }

    /// Flushes buffered lines to the file.
    pub fn flush(&self) -> io::Result<()> {
        self.lock().flush()
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        // Best effort: never panic in drop over an I/O error.
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EventRecord;
    use std::fs;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "cdt_obs_sink_{}_{}.jsonl",
            std::process::id(),
            name
        ));
        p
    }

    #[test]
    fn writes_one_line_per_record() {
        let path = temp_path("single");
        let sink = JsonlSink::create(&path).unwrap();
        sink.write_record(&EventRecord::RoundStart {
            run: "a".into(),
            round: 0,
        })
        .unwrap();
        sink.write_record(&EventRecord::RoundStart {
            run: "a".into(),
            round: 1,
        })
        .unwrap();
        sink.flush().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let parsed: EventRecord = cdt_types::json::from_str(line).unwrap();
            assert_eq!(parsed.run(), "a");
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_writes_every_record() {
        let path = temp_path("batch");
        let sink = JsonlSink::create(&path).unwrap();
        let mut batch = Vec::new();
        for round in 0..5 {
            let record = EventRecord::Observation {
                run: "b".into(),
                round,
                observed_revenue: round as f64,
                samples: 2,
            };
            record.encode(&mut batch);
            batch.push(b'\n');
        }
        sink.write_lines(&batch).unwrap();
        sink.flush().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 5);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn drop_flushes() {
        let path = temp_path("drop");
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.write_record(&EventRecord::RoundStart {
                run: "c".into(),
                round: 9,
            })
            .unwrap();
        }
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"round\":9"));
        fs::remove_file(&path).ok();
    }
}
