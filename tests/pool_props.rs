//! Property tests of the persistent executor pool
//! (`nmcs_core::exec::pool::ExecutorPool`) — the concurrency claims the
//! pool-backed executors rest on:
//!
//! * every batch drains and the pool joins cleanly on drop, under a
//!   watchdog so a hang fails the test instead of wedging the suite;
//! * a panicking task surfaces on the submitter without poisoning the
//!   pool — later submissions (including from other threads) run
//!   normally;
//! * budget- and cancel-interrupted runs of the pool-backed backends
//!   return promptly with a best-so-far line that replays to its score.
//!
//! Worker-count-sensitive assertions honour `NMCS_TEST_WORKERS` so CI
//! exercises them at both 1 and 4 workers (see `.github/workflows`).

mod common;

use common::test_workers;
use pnmcs::games::SameGame;
use pnmcs::search::exec::pool::ExecutorPool;
use pnmcs::search::{Budget, CancelToken, Game, Interruption, SearchReport, SearchSpec};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs `f` on a helper thread and fails loudly if it does not finish
/// within `timeout` — the watchdog that turns a pool hang (lost wakeup,
/// missed shutdown, deadlocked batch) into a test failure.
fn with_watchdog<F>(label: &str, timeout: Duration, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(timeout) {
        Ok(()) => worker.join().expect("watchdogged body panicked"),
        Err(_) => panic!("{label}: pool hung past {timeout:?}"),
    }
}

fn assert_replays<G: Game>(game: &G, report: &SearchReport<G::Move>, label: &str) {
    let mut replay = game.clone();
    for mv in &report.sequence {
        replay.play(mv);
    }
    assert_eq!(
        replay.score(),
        report.score,
        "{label}: interrupted best-so-far must replay to its score"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Drop joins every worker with all submitted batches fully drained,
    /// for arbitrary worker counts, batch shapes, and batch counts.
    #[test]
    fn pool_drains_and_joins_on_drop(
        workers in 0usize..5,
        slots in 1usize..9,
        batches in 1usize..6,
    ) {
        with_watchdog("drain-on-drop", Duration::from_secs(30), move || {
            let pool = ExecutorPool::new(workers);
            let ran = Arc::new(AtomicUsize::new(0));
            for _ in 0..batches {
                let ran = ran.clone();
                pool.run_batch(slots, &|_| {
                    // A sliver of real work so slots interleave.
                    std::hint::black_box((0..100).sum::<u64>());
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            drop(pool);
            assert_eq!(ran.load(Ordering::Relaxed), slots * batches);
        });
    }

    /// A panicking slot surfaces on the submitter, and the pool keeps
    /// serving: the same pool then runs clean batches — sequentially and
    /// from several submitting threads at once — to completion.
    #[test]
    fn panicking_task_does_not_poison_later_submissions(
        workers in 1usize..5,
        bad_slot in 0usize..6,
    ) {
        with_watchdog("panic-containment", Duration::from_secs(30), move || {
            let pool = Arc::new(ExecutorPool::new(workers));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.run_batch(6, &|slot| {
                    if slot == bad_slot {
                        panic!("injected slot failure");
                    }
                });
            }));
            assert!(outcome.is_err(), "the injected panic must surface");

            // Sequential follow-up batch.
            let ran = AtomicUsize::new(0);
            pool.run_batch(6, &|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(ran.load(Ordering::Relaxed), 6);

            // Concurrent submitters sharing the damaged-then-healed pool.
            let total = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let pool = pool.clone();
                    let total = total.clone();
                    std::thread::spawn(move || {
                        pool.run_batch(4, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("submitter thread");
            }
            assert_eq!(total.load(Ordering::Relaxed), 12);
        });
    }

    /// Budget-interrupted pool-backed runs return promptly and their
    /// best-so-far line replays to the reported score, at the CI worker
    /// count, across every pool-backed backend.
    #[test]
    fn budget_cancelled_pool_runs_return_promptly_with_replayable_best(seed in 0u64..500) {
        let workers = test_workers();
        let game = SameGame::random(7, 7, 3, seed);
        let specs = [
            SearchSpec::leaf(1, 4, workers).seed(seed).build(),
            SearchSpec::root_parallel(2, workers).seed(seed).build(),
            SearchSpec::tree_parallel(workers).seed(seed).build(),
        ];
        for spec in specs {
            let label = spec.algorithm.label();

            // (a) a playout budget trips mid-run.
            let mut budgeted = spec.clone();
            budgeted.budget = Budget::none().with_max_playouts(30);
            let t0 = Instant::now();
            let report = budgeted.run(&game);
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "{label}: budgeted run took {:?}",
                t0.elapsed()
            );
            assert_replays(&game, &report, label);

            // (b) a pre-cancelled token stops it before real work.
            let token = CancelToken::new();
            token.cancel();
            let t0 = Instant::now();
            let report = spec.run_cancellable(&game, &token);
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "{label}: pre-cancelled run took {:?}",
                t0.elapsed()
            );
            assert_eq!(report.interrupted, Some(Interruption::Cancelled), "{label}");
            assert_replays(&game, &report, label);
        }
    }
}

/// Mid-flight cancellation from another thread unblocks a pool-backed
/// search promptly — the pool must propagate the shared meter trip to
/// every slot, not just the one that observes the token first.
#[test]
fn mid_flight_cancellation_unblocks_pool_backed_searches() {
    let workers = test_workers();
    let game = SameGame::random(10, 10, 4, 21);
    for spec in [
        SearchSpec::leaf(2, 8, workers).seed(5).build(),
        SearchSpec::tree_parallel_with(
            pnmcs::search::UctConfig {
                iterations: 5_000_000,
                ..Default::default()
            },
            workers,
        )
        .seed(5)
        .build(),
    ] {
        let label = spec.algorithm.label();
        let token = CancelToken::new();
        let (report, latency) = std::thread::scope(|scope| {
            let handle = {
                let token = token.clone();
                let game = &game;
                let spec = &spec;
                scope.spawn(move || spec.run_cancellable(game, &token))
            };
            std::thread::sleep(Duration::from_millis(30));
            let t0 = Instant::now();
            token.cancel();
            let report = handle.join().expect("search thread");
            (report, t0.elapsed())
        });
        assert_eq!(report.interrupted, Some(Interruption::Cancelled), "{label}");
        assert!(
            latency < Duration::from_secs(5),
            "{label}: cancellation latency {latency:?}"
        );
        assert_replays(&game, &report, label);
    }
}

/// The executor pool's stealing machinery is observable: saturating the
/// injector from one submitter with more slots than workers must
/// complete every slot exactly once (the steal counter is allowed to be
/// anything — scheduling decides — but nothing may be lost or doubled).
#[test]
fn oversubscribed_batches_complete_every_slot_exactly_once() {
    with_watchdog("oversubscription", Duration::from_secs(30), || {
        let pool = ExecutorPool::new(2);
        for _ in 0..10 {
            let counts: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
            pool.run_batch(32, &|slot| {
                counts[slot].fetch_add(1, Ordering::Relaxed);
            });
            for (slot, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "slot {slot}");
            }
        }
    });
}

/// A lost park/unpark wakeup must be a test failure, not a 50 ms blip
/// the timeout net quietly absorbs: this pool's park timeout is far
/// beyond the watchdog budget, so the only way the hammering below
/// completes in time is the wakeup-generation handshake doing its job
/// — including under concurrent submitters racing workers toward their
/// parks, and at shutdown.
#[test]
fn wakeup_generation_makes_the_park_timeout_net_redundant() {
    with_watchdog("long-park-timeout hammer", Duration::from_secs(60), || {
        let pool = Arc::new(ExecutorPool::with_park_timeout(3, Duration::from_secs(300)));
        let total = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = pool.clone();
                let total = total.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        pool.run_batch(4, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("submitter thread");
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 4);
        // Shutdown must wake the parked workers without the net too.
        drop(Arc::try_unwrap(pool).ok().expect("sole owner"));
    });
}

/// A batch whose slots each submit a batch of their own to the same
/// pool must drain without deadlock even when every background worker
/// is occupied by the outer batch (each inner submitter helps drain its
/// own slots), at the CI worker count — on a pool sized to the outer
/// batch and on the process-wide shared pool.
#[test]
fn nested_batches_from_busy_workers_cannot_deadlock() {
    with_watchdog("nested run_batch", Duration::from_secs(120), || {
        let workers = test_workers();
        let sized = ExecutorPool::new(workers - 1);
        for pool in [&sized, ExecutorPool::shared()] {
            let inner_slots = AtomicUsize::new(0);
            pool.run_batch(workers, &|_| {
                pool.run_batch(4, &|_| {
                    inner_slots.fetch_add(1, Ordering::Relaxed);
                });
            });
            assert_eq!(inner_slots.load(Ordering::Relaxed), workers * 4);
        }
    });
}
