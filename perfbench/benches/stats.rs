//! Order statistics and the per-layer metric sheet.

use std::collections::BTreeMap;
use std::time::Duration;

/// Nearest-rank percentile (`q` in 0..=1) of `xs`; 0 for an empty set
/// (callers only ask on sets the workload guarantees are non-empty).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-input search times in milliseconds from `(input, wall)` pairs:
/// each input is searched twice, half a window apart, and the faster
/// run counts, which filters host slow phases and preemption hiccups
/// out of the percentiles.
pub fn search_ms(runs: impl Iterator<Item = (usize, Duration)>) -> Vec<f64> {
    let mut best: BTreeMap<usize, Duration> = BTreeMap::new();
    for (input, wall) in runs {
        best.entry(input)
            .and_modify(|b| *b = (*b).min(wall))
            .or_insert(wall);
    }
    best.into_values().map(ms).collect()
}

/// Per-layer metrics of one traced pass: name → (value, unit).
#[derive(Default)]
pub struct Sheet(pub BTreeMap<String, (f64, &'static str)>);

impl Sheet {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.put(name, value as f64, "count");
    }

    pub fn extend(&mut self, other: Sheet) {
        self.0.extend(other.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[2.0, 1.0, 3.0]), 2.0);
    }

    #[test]
    fn the_faster_repeat_is_the_search_time() {
        let d = Duration::from_millis;
        let runs = [(0, d(50)), (1, d(70)), (0, d(40)), (1, d(90))];
        assert_eq!(search_ms(runs.into_iter()), vec![40.0, 70.0]);
    }
}
