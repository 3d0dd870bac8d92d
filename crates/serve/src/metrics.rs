//! Serve-edge observability: per-route latency histograms,
//! shed-by-reason counters and failed accepts, appended below the
//! engine section of the `/metrics` text exposition.
//!
//! Route labels and shed reasons are both small closed sets of static
//! strings, so the histograms ride the core's lock-free
//! [`TagHistograms`] (tagged by an FNV-1a hash of the label — no
//! collisions are possible between labels this module controls) and the
//! counters are a fixed array of atomics. Recording is allocation-free
//! on every request after a route's first sight.

use nmcs_core::metrics::TagHistograms;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Every reason the edge sheds or refuses work, in render order. The
/// first four come from [`crate::admission`] decisions; the last two
/// are the engine's own backpressure surfacing as 503s.
pub const SHED_REASONS: [&str; 7] = [
    "tenant-quota",
    "lane",
    "deadline",
    "session-quota",
    "session-capacity",
    "queue-full",
    "shutting-down",
];

/// The serve layer's own gauges, one instance per server.
pub struct ServeMetrics {
    /// Request-handling latency keyed by route template (e.g.
    /// `POST /jobs`); for streaming routes this measures the routing
    /// and setup, not the stream's lifetime.
    routes: TagHistograms,
    /// Requests refused, by reason, indexed like [`SHED_REASONS`].
    shed: [AtomicU64; SHED_REASONS.len()],
    /// Failed `accept` calls on the listener.
    accept_errors: AtomicU64,
}

impl ServeMetrics {
    pub fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        ServeMetrics {
            routes: TagHistograms::new(),
            shed: [ZERO; SHED_REASONS.len()],
            accept_errors: AtomicU64::new(0),
        }
    }

    /// Records one handled request under its route template.
    pub fn record_route(&self, label: &'static str, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.routes.record(fnv1a(label), label, ns);
    }

    /// Counts one refused request. Unknown reasons are ignored rather
    /// than panicking — the set is closed by construction, so a miss
    /// here is a programming error a test catches, not a crash.
    pub fn shed(&self, reason: &str) {
        if let Some(i) = SHED_REASONS.iter().position(|r| *r == reason) {
            self.shed[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one failed `accept` on the listener.
    pub fn accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Shed count for one reason (test hook).
    pub fn shed_count(&self, reason: &str) -> u64 {
        SHED_REASONS
            .iter()
            .position(|r| *r == reason)
            .map_or(0, |i| self.shed[i].load(Ordering::Relaxed))
    }

    /// Appends the serve section to a `/metrics` text exposition. Lines
    /// follow the same `name{labels} value` grammar as the core render
    /// (histograms mirror its `_count` / `_sum` / `quantile` shape).
    pub fn render_into(&self, s: &mut String) {
        use std::fmt::Write as _;
        for t in self.routes.snapshot() {
            let h = &t.hist;
            let _ = writeln!(
                s,
                "serve_route_seconds_count{{route=\"{}\"}} {}",
                t.label, h.count
            );
            let _ = writeln!(
                s,
                "serve_route_seconds_sum{{route=\"{}\"}} {}",
                t.label,
                h.sum_ns as f64 / 1e9
            );
            for (q, v) in [("0.5", h.p50_ns), ("0.95", h.p95_ns), ("0.99", h.p99_ns)] {
                let _ = writeln!(
                    s,
                    "serve_route_seconds{{route=\"{}\",quantile=\"{q}\"}} {}",
                    t.label,
                    v as f64 / 1e9
                );
            }
        }
        for (reason, counter) in SHED_REASONS.iter().zip(&self.shed) {
            let _ = writeln!(
                s,
                "serve_shed_total{{reason=\"{reason}\"}} {}",
                counter.load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(
            s,
            "serve_accept_errors_total {}",
            self.accept_errors.load(Ordering::Relaxed)
        );
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a over the label bytes — the route/reason tag space is tiny and
/// fully controlled here, so a 64-bit hash cannot collide in practice.
fn fnv1a(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_and_sheds_render_one_parsable_line_each() {
        let m = ServeMetrics::new();
        m.record_route("POST /jobs", Duration::from_millis(3));
        m.record_route("POST /jobs", Duration::from_millis(5));
        m.record_route("GET /metrics", Duration::from_micros(80));
        m.shed("tenant-quota");
        m.shed("queue-full");
        m.shed("queue-full");
        m.shed("not-a-reason"); // ignored, not a panic
        m.accept_error();
        let mut s = String::new();
        m.render_into(&mut s);
        assert!(s.contains("serve_route_seconds_count{route=\"POST /jobs\"} 2"));
        assert!(s.contains("serve_route_seconds_count{route=\"GET /metrics\"} 1"));
        assert!(s.contains("serve_shed_total{reason=\"tenant-quota\"} 1"));
        assert!(s.contains("serve_shed_total{reason=\"queue-full\"} 2"));
        assert!(s.contains("serve_shed_total{reason=\"deadline\"} 0"));
        assert!(s.contains("serve_accept_errors_total 1"));
        // Every line obeys the `name{labels} value` grammar the soak's
        // parser checks.
        for line in s.lines() {
            let (series, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
            assert!(
                series.chars().next().unwrap().is_ascii_alphabetic(),
                "bad series: {line}"
            );
        }
        assert_eq!(m.shed_count("queue-full"), 2);
    }
}
