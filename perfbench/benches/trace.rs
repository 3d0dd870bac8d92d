//! In-memory spans recorded by the benchmark around its own calls into
//! each layer, written out as one JSON file when a traced pass ends.
//!
//! A disabled tracer records nothing: the untraced pass pays one branch
//! per call site.

use serde::Value;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call: `name` is the layer boundary (`search`,
/// `session.step`, `serve.submit`, `job`, ...), `id` the request id it
/// belongs to (the job id for serve spans), `parent` the id of the
/// span that caused it (0 = none).
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64() * 1e3
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Offset of `t` from the tracer's origin.
    pub fn at(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.origin)
    }

    pub fn record(&self, name: &'static str, id: u64, parent: u64, start: Instant, end: Instant) {
        if self.enabled {
            let span = Span {
                name,
                id,
                parent,
                start: self.at(start),
                end: self.at(end),
            };
            self.spans.lock().expect("span log poisoned").push(span);
        }
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Writes every span as a JSON array (times in microseconds from
    /// the tracer's origin).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        let rows: Vec<Value> = spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".to_string(), Value::Str(s.name.to_string())),
                    ("id".to_string(), Value::U64(s.id)),
                    ("parent".to_string(), Value::U64(s.parent)),
                    (
                        "start_us".to_string(),
                        Value::F64(s.start.as_secs_f64() * 1e6),
                    ),
                    ("end_us".to_string(), Value::F64(s.end.as_secs_f64() * 1e6)),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let text = serde_json::to_string(&Value::Array(rows)).map_err(std::io::Error::other)?;
        std::fs::write(path, text)
    }
}
