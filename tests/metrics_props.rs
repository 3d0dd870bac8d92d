//! Property tests of the observability layer (`nmcs_core::metrics`):
//!
//! * histogram merging is associative and order-independent, so
//!   per-worker histograms can be combined in any order;
//! * registry snapshots are monotone across polls (counters never run
//!   backwards);
//! * the dead-letter queue is bounded and never evicts its newest
//!   entry;
//! * enabling or disabling metrics changes **no** search result on any
//!   backend — the instrumentation provably never touches a search RNG;
//! * the engine inspector reports non-zero pool counters, per-backend
//!   percentiles, the queue-wait/run-time split, and dead letters for a
//!   panicked job, and the whole snapshot round-trips through JSON;
//! * instrumented sequential UCT stays within noise of a
//!   registry-disabled run (the cheap-overhead guard).
//!
//! The enable flag is process-global, so the tests that flip it
//! serialise on one lock and always restore the enabled state.

use pnmcs::games::SameGame;
use pnmcs::search::metrics as m;
use pnmcs::search::{SearchSpec, Searcher};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serialises the tests that flip the process-global enable flag.
static FLAG_LOCK: Mutex<()> = Mutex::new(());

/// Restores `set_metrics_enabled(true)` even if the test panics.
struct EnabledGuard;
impl Drop for EnabledGuard {
    fn drop(&mut self) {
        m::set_metrics_enabled(true);
    }
}

fn hist_of(samples: &[u64]) -> m::Histogram {
    let h = m::Histogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

fn merged(parts: &[&m::Histogram]) -> m::Histogram {
    let out = m::Histogram::new();
    for p in parts {
        out.merge_from(p);
    }
    out
}

fn assert_hist_eq(a: &m::Histogram, b: &m::Histogram, label: &str) {
    assert_eq!(a.bucket_counts(), b.bucket_counts(), "{label}: buckets");
    assert_eq!(a.snapshot(), b.snapshot(), "{label}: snapshot");
}

/// Deterministic strategies of the unified API, smallest-sensible
/// shapes (the `budget_props` list). Tree-parallel joins at one worker,
/// its deterministic form.
fn all_specs(seed: u64) -> Vec<SearchSpec> {
    vec![
        SearchSpec::nested(1).seed(seed).build(),
        SearchSpec::nrpa(1).seed(seed).build(),
        SearchSpec::uct().seed(seed).build(),
        SearchSpec::flat_mc(128).seed(seed).build(),
        SearchSpec::iterated_sampling(2).seed(seed).build(),
        SearchSpec::beam(3, 1).seed(seed).build(),
        SearchSpec::sample().seed(seed).build(),
        SearchSpec::leaf(1, 4, 2).seed(seed).build(),
        SearchSpec::root_parallel(2, 2).seed(seed).build(),
        SearchSpec::tree_parallel(1).seed(seed).build(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn histogram_merge_is_associative_and_order_independent(
        xs in proptest::collection::vec(0u64..u64::MAX / 2, 0..40),
        ys in proptest::collection::vec(0u64..u64::MAX / 2, 0..40),
        zs in proptest::collection::vec(0u64..u64::MAX / 2, 0..40),
    ) {
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));

        // ((a + b) + c) == (a + (b + c))
        let left = merged(&[&merged(&[&a, &b]), &c]);
        let right = merged(&[&a, &merged(&[&b, &c])]);
        assert_hist_eq(&left, &right, "associativity");

        // Any merge order gives the same histogram.
        let abc = merged(&[&a, &b, &c]);
        let cba = merged(&[&c, &b, &a]);
        let bac = merged(&[&b, &a, &c]);
        assert_hist_eq(&abc, &cba, "order abc/cba");
        assert_hist_eq(&abc, &bac, "order abc/bac");

        // And equals recording every sample into one histogram.
        let mut all = xs.to_vec();
        all.extend(&ys);
        all.extend(&zs);
        assert_hist_eq(&abc, &hist_of(&all), "merge vs direct");
        prop_assert_eq!(abc.count(), all.len() as u64);
    }

    #[test]
    fn search_snapshot_counters_are_monotone_across_polls(seed in 0u64..1000) {
        // Hold the flag lock: a concurrently running flag-flip test
        // could otherwise disable recording mid-poll.
        let _serial = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let game = SameGame::random(4, 4, 3, seed);
        let mut prev = m::search_metrics().snapshot();
        for i in 0..3 {
            SearchSpec::sample().seed(seed.wrapping_add(i)).run(&game);
            let next = m::search_metrics().snapshot();
            // Counters only move forward (other test threads may bump
            // them concurrently — that still keeps them monotone).
            prop_assert!(next.searches > prev.searches);
            prop_assert!(next.playouts >= prev.playouts);
            prop_assert!(next.playout_moves >= prev.playout_moves);
            prop_assert!(next.deadline_trips >= prev.deadline_trips);
            prop_assert!(next.playout_trips >= prev.playout_trips);
            prop_assert!(next.node_trips >= prev.node_trips);
            prop_assert!(next.cancellations >= prev.cancellations);
            for b in &prev.backends {
                let again = next.backends.iter().find(|n| n.tag == b.tag);
                prop_assert!(again.is_some_and(|n| n.hits >= b.hits));
            }
            prev = next;
        }
    }

    #[test]
    fn dead_letter_queue_is_bounded_and_keeps_the_newest(
        cap in 1usize..5,
        n in 0usize..12,
    ) {
        let dlq = m::DeadLetterQueue::new(cap);
        for i in 0..n {
            dlq.push(m::DeadLetter {
                job: i as u64,
                reason: "panicked".to_string(),
                ..Default::default()
            });
        }
        let letters = dlq.snapshot();
        prop_assert!(letters.len() <= cap);
        prop_assert_eq!(letters.len(), n.min(cap));
        prop_assert_eq!(dlq.dropped(), n.saturating_sub(cap) as u64);
        if n > 0 {
            // The newest entry always survives eviction...
            prop_assert_eq!(letters.last().unwrap().job, n as u64 - 1);
            // ...and the record is the most recent `min(n, cap)`,
            // oldest first.
            let oldest = n - n.min(cap);
            for (k, l) in letters.iter().enumerate() {
                prop_assert_eq!(l.job, (oldest + k) as u64);
            }
        }
    }

    #[test]
    fn metrics_flag_changes_no_search_result_on_any_backend(seed in 0u64..500) {
        let _serial = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _restore = EnabledGuard;
        let game = SameGame::random(4, 4, 3, seed);
        for spec in all_specs(seed) {
            let label = spec.algorithm.label();
            m::set_metrics_enabled(true);
            let on = spec.search(&game, None);
            m::set_metrics_enabled(false);
            let off = spec.search(&game, None);
            prop_assert_eq!(
                (on.score, &on.sequence, on.stats.playouts),
                (off.score, &off.sequence, off.stats.playouts),
                "{}: metrics flag must not perturb the search", label
            );
        }
    }
}

#[test]
fn engine_inspector_reports_all_three_layers_and_round_trips() {
    // Hold the flag lock: the flag-flip tests could otherwise disable
    // recording while the engine workload runs.
    let _serial = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Drive the shared executor pool through a batched leaf search so
    // the pool section has non-zero counters no matter which test ran
    // first.
    let game = SameGame::random(5, 5, 3, 23);
    SearchSpec::leaf(1, 4, 2).seed(23).run(&game);

    // The bench SLO workload: mixed jobs + a guaranteed budget trip +
    // a guaranteed panic, snapshotted through `Engine::inspector`.
    let snapshot = nmcs_bench::slo_snapshot(4, 23);

    // Pool layer: the batch above is visible, and its wakeups with it.
    assert!(snapshot.pool.workers >= 1);
    assert!(snapshot.pool.batches >= 1, "leaf batches must be counted");
    assert!(snapshot.pool.batch_slots >= snapshot.pool.batches);
    assert!(snapshot.pool.wakeups >= 1);

    // Search layer: per-backend wall-time percentiles exist and are
    // internally consistent.
    assert!(snapshot.search.searches >= 1);
    assert!(!snapshot.search.backends.is_empty());
    for b in &snapshot.search.backends {
        assert!(b.hits >= 1, "{}: empty backend slot", b.label);
        assert_eq!(b.hits, b.hist.count, "{}", b.label);
        assert!(b.hist.p50_ns <= b.hist.p95_ns, "{}", b.label);
        assert!(b.hist.p95_ns <= b.hist.p99_ns, "{}", b.label);
        assert!(b.hist.max_ns >= b.hist.min_ns, "{}", b.label);
    }

    // Engine layer: queue-wait/run-time split and the dead letters of
    // the injected panic (and the 1ms-deadline trip).
    let engine = snapshot.engine.as_ref().expect("engine section");
    assert!(engine.executed_tasks >= 1);
    assert!(engine.queue_wait.count >= 1, "queue waits recorded");
    assert!(engine.run_time.count >= 1, "run times recorded");
    assert!(!engine.tenants.is_empty());
    assert!(!engine.domains.is_empty());
    assert!(
        engine.dead_letters.iter().any(|d| d.reason == "panicked"),
        "the injected panic must be a dead letter: {:?}",
        engine.dead_letters
    );
    assert_eq!(engine.failed_jobs, 1);

    // The whole snapshot is JSON-round-trippable, and the text render
    // mentions every layer.
    let json = serde_json::to_string(&snapshot).expect("snapshot serialises");
    let back: m::MetricsSnapshot = serde_json::from_str(&json).expect("snapshot parses");
    assert_eq!(back, snapshot);
    let text = snapshot.render_text();
    for series in ["pool_parks", "search_playouts", "engine_run_time"] {
        assert!(text.contains(series), "render_text missing {series}");
    }
}

#[test]
fn tag_collisions_are_rerouted_not_merged() {
    let tags = m::TagHistograms::new();
    tags.record(7, "alpha", 100);
    // Same tag under a different label: an FNV collision between two
    // names. It must not pollute alpha's histogram.
    tags.record(7, "beta", 9_999);
    tags.record(7, "alpha", 300);
    assert_eq!(tags.collisions(), 1);
    assert_eq!(tags.overflow(), 1, "collisions count as overflow too");
    let snap = tags.snapshot();
    let slot = snap.iter().find(|s| s.tag == 7).expect("slot claimed");
    assert_eq!(slot.label, "alpha", "first claimer keeps the slot");
    assert_eq!(slot.hits, 2);
    assert_eq!(slot.hist.count, 2);
    assert_eq!(slot.hist.max_ns, 300, "colliding sample must not land");
    assert!(!snap.iter().any(|s| s.label == "beta"));
}

#[test]
fn histogram_empty_and_single_sample_snapshots_are_exact() {
    // Count 0: everything is zero, no garbage percentiles.
    let h = m::Histogram::new();
    assert_eq!(h.snapshot(), m::HistogramSnapshot::default());

    // Count 1: every percentile is exactly the one sample (the min/max
    // clamp collapses the bucket-midpoint estimate).
    for sample in [0u64, 1, 2, 1_234, u64::MAX / 3] {
        let h = m::Histogram::new();
        h.record(sample);
        let s = h.snapshot();
        assert_eq!(s.count, 1, "{sample}");
        assert_eq!(s.sum_ns, sample, "{sample}");
        assert_eq!(s.min_ns, sample, "{sample}");
        assert_eq!(s.max_ns, sample, "{sample}");
        assert_eq!(s.p50_ns, sample, "{sample}");
        assert_eq!(s.p95_ns, sample, "{sample}");
        assert_eq!(s.p99_ns, sample, "{sample}");
    }
}

#[test]
fn render_text_escapes_hostile_labels() {
    let hostile = m::TaggedHistogramSnapshot {
        tag: 1,
        label: "evil\"tenant\nname\\\u{7}".to_string(),
        hits: 1,
        hist: m::HistogramSnapshot {
            count: 1,
            ..Default::default()
        },
    };
    let snap = m::MetricsSnapshot {
        engine: Some(m::EngineSnapshot {
            tenants: vec![hostile.clone()],
            domains: vec![hostile.clone()],
            tag_collisions: 3,
            ..Default::default()
        }),
        ..Default::default()
    };
    let mut snap = snap;
    snap.search.backends.push(hostile);
    let text = snap.render_text();

    // The quote, newline, and backslash are escaped and the control
    // character replaced, so every exposition line stays one line with
    // balanced quotes.
    assert!(
        text.contains("evil\\\"tenant\\nname\\\\\u{FFFD}"),
        "escaped label missing:\n{text}"
    );
    assert!(!text.contains("evil\"tenant"), "raw quote survived");
    for line in text.lines() {
        // Count quotes that are *not* escaped: every label value must
        // open and close on the same exposition line.
        let mut unescaped = 0usize;
        let mut pending_escape = false;
        for c in line.chars() {
            match c {
                '\\' => pending_escape = !pending_escape,
                '"' if !pending_escape => unescaped += 1,
                _ => pending_escape = false,
            }
        }
        assert_eq!(unescaped % 2, 0, "unbalanced: {line}");
    }
    // The new collision counters render for both layers.
    assert!(text.contains("search_tag_collisions_total 0"));
    assert!(text.contains("engine_tag_collisions_total 3"));
}

/// The cheap overhead guard: instrumented sequential UCT within noise
/// of a registry-disabled run. Min-of-N wall clock on identical work;
/// the generous factor keeps the guard meaningful without making it
/// flaky on a loaded CI box.
#[test]
fn instrumented_sequential_uct_stays_within_noise() {
    let _serial = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = EnabledGuard;
    let game = SameGame::random(5, 5, 3, 41);
    let spec = SearchSpec::uct().seed(41).build();
    let min_wall = |runs: usize| {
        (0..runs)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let report = spec.search(&game, None);
                assert!(report.stats.playouts > 0);
                t0.elapsed()
            })
            .min()
            .expect("at least one run")
    };
    // Warm-up evens out first-touch costs for whichever side runs first.
    min_wall(1);
    m::set_metrics_enabled(true);
    let on = min_wall(5);
    m::set_metrics_enabled(false);
    let off = min_wall(5);
    assert!(
        on <= off * 3 + std::time::Duration::from_millis(5),
        "instrumented run too slow: on={on:?} off={off:?}"
    );
}
