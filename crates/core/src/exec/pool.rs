//! The persistent executor pool behind the in-core parallel backends.
//!
//! Before this module existed, the leaf- and root-parallel executors
//! spawned a fresh set of `std::thread::scope` workers at **every step**
//! of the top-level game — the throughput ceiling ROADMAP flags for
//! small boards, where a step's evaluation work is comparable to the
//! cost of spawning the threads that do it. An [`ExecutorPool`] keeps
//! its workers alive for as long as the pool lives, so a whole game
//! (hundreds of steps) pays the spawn cost once.
//!
//! Topology (mirroring the engine's job pool, scaled down to in-search
//! granularity):
//!
//! * one *injector* queue that [`ExecutorPool::run_batch`] submits to;
//! * one local deque per worker — a worker grabs a small batch from the
//!   injector, runs from the front of its deque, and banks the surplus
//!   where siblings can *steal* from the back;
//! * idle workers park on a condvar and are woken by new submissions
//!   (with a timeout as a lost-wakeup safety net);
//! * dropping the pool sets a shutdown flag, wakes everyone, and joins
//!   every worker — no detached threads survive the pool.
//!
//! ## The batch protocol
//!
//! [`ExecutorPool::run_batch`]`(slots, body)` runs `body(0)`,
//! `body(1)`, … `body(slots - 1)`, each exactly once, and returns when
//! all of them have finished. Slot `0` always runs on the *calling*
//! thread (the caller is a worker too — a pool with zero background
//! workers degrades to fully inline execution), and the caller then
//! helps drain its own still-queued slots before parking, so a batch
//! can never deadlock waiting for workers that are busy elsewhere.
//!
//! The body is a plain `&dyn Fn(usize)` borrowing the caller's stack —
//! exactly like a scoped thread body. Soundness of handing that borrow
//! to long-lived workers rests on one invariant, enforced by a drop
//! guard: **`run_batch` does not return (or unwind) until every
//! dispatched slot has finished running.**
//!
//! A panicking slot does not take the pool down: the payload is caught
//! on the worker, carried back to the submitting call, and re-thrown
//! there once the batch has drained — later submissions run normally
//! (`tests/pool_props.rs` proves drain-on-drop, panic containment, and
//! prompt budget-cancelled returns).

use crate::metrics::{metrics_enabled, PoolMetrics, WorkerClock};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a parked worker sleeps before re-checking for work even
/// without a wakeup. **Pure defence-in-depth**, not a correctness
/// mechanism: every publish bumps the wakeup generation counter under
/// the injector lock (see [`Injector::wake_gen`]), so a worker never
/// parks across a publish it has not yet scanned for. If a stall ever
/// *does* depend on this timeout, that is a bug — and the tests run
/// pools with a timeout long enough to surface it as one
/// (`ExecutorPool::with_park_timeout`).
const PARK_TIMEOUT: Duration = Duration::from_millis(50);

/// A persistent pool of search-executor workers. See the module docs
/// for the topology and the batch protocol.
pub struct ExecutorPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

/// The submission queue plus the wakeup generation counter, under one
/// mutex so "work was published" and "a parker would have been woken"
/// are a single atomic observation.
struct Injector {
    queue: VecDeque<Task>,
    /// Bumped (under this mutex) by every publish — injector pushes,
    /// surplus banked into a local deque, shutdown. A worker records
    /// the generation before scanning for work and refuses to park if
    /// it moved: a notify that raced the scan becomes a rescan instead
    /// of a lost wakeup.
    wake_gen: u64,
}

struct PoolShared {
    /// Submission queue; guarded by its own mutex, paired with
    /// `work_ready` for park/unpark.
    injector: Mutex<Injector>,
    work_ready: Condvar,
    /// Per-worker deques; siblings steal from the back.
    locals: Vec<Mutex<VecDeque<Task>>>,
    shutdown: AtomicBool,
    /// Tasks run by a thread other than their submitter after sitting in
    /// a sibling's local deque — the observable work-stealing counter.
    steals: AtomicU64,
    /// See [`PARK_TIMEOUT`]; tests shrink or stretch it per pool.
    park_timeout: Duration,
    /// Lock-free counters/clocks for this pool (see [`PoolMetrics`]).
    /// Event counters and the idle-workers gauge update unconditionally
    /// (plain relaxed RMWs); the per-worker busy/idle clocks take their
    /// `Instant` readings only while [`metrics_enabled`] — the knob the
    /// overhead-guard test flips.
    metrics: PoolMetrics,
}

impl PoolShared {
    fn lock_injector(&self) -> MutexGuard<'_, Injector> {
        self.injector.lock()
    }

    fn lock_local(&self, idx: usize) -> MutexGuard<'_, VecDeque<Task>> {
        self.locals[idx].lock()
    }

    /// Records a publish that parked workers cannot see in the injector
    /// queue (surplus banked in a local deque, shutdown). Publishes via
    /// the injector bump the generation in the same critical section as
    /// their push.
    fn bump_wake_gen(&self) {
        self.lock_injector().wake_gen += 1;
        self.metrics.wakeups.incr();
    }
}

/// One schedulable unit: slot `slot` of one submitted batch.
struct Task {
    batch: Arc<BatchCore>,
    slot: usize,
}

impl Task {
    fn run(self) {
        // The lifetime-erased borrow is valid: the submitter blocks in
        // `run_batch` until `pending` hits zero, which happens strictly
        // after this call returns.
        let outcome = catch_unwind(AssertUnwindSafe(|| (self.batch.body)(self.slot)));
        let mut done = self.batch.lock_done();
        if let Err(payload) = outcome {
            // First panic wins; it is re-thrown by the submitter.
            done.panic.get_or_insert(payload);
        }
        done.pending -= 1;
        if done.pending == 0 {
            self.batch.done_cond.notify_all();
        }
    }
}

/// Completion state of one `run_batch` call.
struct BatchDone {
    /// Dispatched slots not yet finished.
    pending: usize,
    /// First panic payload caught on a worker, if any.
    panic: Option<Box<dyn Any + Send>>,
}

struct BatchCore {
    /// The caller's slot body with its lifetime erased (see the module
    /// docs for the soundness argument).
    body: &'static (dyn Fn(usize) + Sync),
    done: Mutex<BatchDone>,
    done_cond: Condvar,
}

impl BatchCore {
    fn lock_done(&self) -> MutexGuard<'_, BatchDone> {
        self.done.lock()
    }
}

impl ExecutorPool {
    /// A pool with `background_workers` long-lived worker threads.
    ///
    /// Zero is allowed: every batch then runs inline on the submitting
    /// thread, which is exactly the right degenerate form for
    /// single-threaded specs and keeps them trivially deterministic.
    pub fn new(background_workers: usize) -> Self {
        Self::with_park_timeout(background_workers, PARK_TIMEOUT)
    }

    /// [`ExecutorPool::new`] with an explicit park timeout. Exposed for
    /// the lost-wakeup tests: a pool whose timeout is much longer than
    /// the expected batch latency turns a lost notify into a visible
    /// stall instead of a 50 ms hiccup the net would mask.
    #[doc(hidden)]
    pub fn with_park_timeout(background_workers: usize, park_timeout: Duration) -> Self {
        let shared = Arc::new(PoolShared {
            injector: Mutex::new(Injector {
                queue: VecDeque::new(),
                wake_gen: 0,
            }),
            work_ready: Condvar::new(),
            locals: (0..background_workers)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            shutdown: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            park_timeout,
            metrics: PoolMetrics::new(background_workers),
        });
        let workers = (0..background_workers)
            .map(|idx| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("nmcs-exec-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    // nmcs-lint: allow(panic-discipline) reason="OS refusing to spawn at pool construction is unrecoverable; fail fast before any work is accepted"
                    .expect("spawn executor pool worker")
            })
            .collect();
        ExecutorPool { shared, workers }
    }

    /// Number of background workers (the submitting thread adds one more
    /// to every batch, so peak parallelism is `background_workers() + 1`).
    pub fn background_workers(&self) -> usize {
        self.shared.locals.len()
    }

    /// Tasks that ran on a thread other than the one that banked them —
    /// the pool's work-stealing counter (monotonic; test observability).
    pub fn steal_count(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// This pool's metrics registry: park/wakeup/steal/batch counters,
    /// the idle-workers gauge, and per-worker busy/idle clocks. All
    /// reads are atomics.
    pub fn metrics(&self) -> &PoolMetrics {
        &self.shared.metrics
    }

    /// The process-wide shared pool the in-core parallel executors run
    /// on, sized to the machine (`available_parallelism − 1` background
    /// workers; the submitting search thread is the `+ 1`). Created on
    /// first use and kept for the life of the process, so every search
    /// — including every replica inside the engine — reuses the same
    /// warm workers instead of spawning per run (or worse, per step).
    ///
    /// Floored at one background worker even on a single-core machine:
    /// multi-slot batches then still execute across two real threads, so
    /// the concurrency machinery (in-flight markers, shared meters, stealing)
    /// is exercised everywhere instead of silently degenerating to
    /// inline execution on small boxes.
    pub fn shared() -> &'static ExecutorPool {
        static SHARED: OnceLock<ExecutorPool> = OnceLock::new();
        SHARED.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4);
            ExecutorPool::new(cores.saturating_sub(1).max(1))
        })
    }

    /// Runs `body(0) … body(slots - 1)`, each exactly once, across the
    /// calling thread (slot 0) and the pool's workers, returning when
    /// every slot has finished. If any slot panicked, the first payload
    /// is re-thrown here — after the batch has fully drained, so the
    /// pool stays usable and later submissions are unaffected.
    pub fn run_batch(&self, slots: usize, body: &(dyn Fn(usize) + Sync)) {
        assert!(slots >= 1, "a batch needs at least one slot");
        self.shared.metrics.batches.incr();
        self.shared.metrics.batch_slots.add(slots as u64);
        if slots == 1 {
            // Nothing to dispatch; plain inline call, panics propagate
            // naturally.
            body(0);
            return;
        }

        // SAFETY: the erased borrow never outlives this call. The
        // `BatchGuard` below blocks — even during unwinding — until
        // every dispatched task has run, and tasks drop their clone of
        // the `Arc<BatchCore>` (the only other handle to the borrow)
        // when they finish.
        let body_static: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(body) };
        let batch = Arc::new(BatchCore {
            body: body_static,
            done: Mutex::new(BatchDone {
                pending: slots - 1,
                panic: None,
            }),
            done_cond: Condvar::new(),
        });

        {
            let mut injector = self.shared.lock_injector();
            for slot in 1..slots {
                injector.queue.push_back(Task {
                    batch: batch.clone(),
                    slot,
                });
            }
            injector.wake_gen += 1;
        }
        self.shared.metrics.wakeups.incr();
        self.shared.work_ready.notify_all();

        let guard = BatchGuard {
            batch: &batch,
            shared: &self.shared,
        };
        body(0);
        drop(guard); // waits for the dispatched slots, helping drain
        let panic = batch.lock_done().panic.take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for ExecutorPool {
    fn drop(&mut self) {
        // `run_batch` borrows the pool, so no batch can be in flight
        // here; every queued task has already finished. Signal shutdown,
        // bump the wakeup generation so a worker racing toward its park
        // rescans and observes the flag, wake the parked ones, and join
        // them all.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.bump_wake_gen();
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Blocks until the batch's dispatched slots have all finished, first
/// helping to run any of them still sitting in the injector. Runs in
/// `Drop` so the wait also covers unwinding out of slot 0 — the
/// soundness lynchpin of the lifetime erasure.
struct BatchGuard<'a> {
    batch: &'a Arc<BatchCore>,
    shared: &'a PoolShared,
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        // Help-first: claim this batch's still-queued slots instead of
        // idling. Tasks banked in a worker's local deque are that
        // worker's responsibility; it is alive and will run them.
        loop {
            let task = {
                let mut injector = self.shared.lock_injector();
                injector
                    .queue
                    .iter()
                    .position(|t| Arc::ptr_eq(&t.batch, self.batch))
                    .and_then(|pos| injector.queue.remove(pos))
            };
            match task {
                Some(task) => task.run(),
                None => break,
            }
        }
        let mut done = self.batch.lock_done();
        while done.pending > 0 {
            // Completion is notified under the `done` mutex itself, so
            // this wait cannot lose a wakeup; the timeout is the same
            // defence-in-depth net as the worker park.
            self.batch
                .done_cond
                .wait_for(&mut done, self.shared.park_timeout);
        }
    }
}

/// Runs a task, charging its wall time to the worker's busy clock when
/// metrics are enabled (the clock reads are the only conditional part —
/// the task always runs).
fn timed_run(task: Task, clock: &WorkerClock) {
    if metrics_enabled() {
        let t0 = Instant::now();
        task.run();
        clock
            .busy_ns
            .add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    } else {
        task.run();
    }
}

fn worker_loop(shared: &Arc<PoolShared>, idx: usize) {
    let workers = shared.locals.len();
    let clock = shared.metrics.worker(idx);
    loop {
        // 1. Own deque, oldest first. Tasks here were banked by this
        //    worker (or are steal leftovers); anything we run that a
        //    sibling banked counts as a steal below, not here.
        let task = shared.lock_local(idx).pop_front();
        if let Some(task) = task {
            timed_run(task, clock);
            continue;
        }

        // 2. Injector: grab a small batch, run one, bank the surplus
        //    where siblings can steal it. The wakeup generation is read
        //    in the same critical section as the drain — the only path
        //    that can reach the park below — so any publish after this
        //    read bumps it (under this same lock) and the park step
        //    refuses to sleep on it; any publish *before* it is either
        //    drained here or (surplus banked in a sibling's deque)
        //    visible to the steal scan in step 3. A wakeup can never be
        //    lost, timeout or no timeout.
        let (mut grabbed, observed_gen): (Vec<Task>, u64) = {
            let mut injector = shared.lock_injector();
            let n = (injector.queue.len() / workers.max(1))
                .clamp(1, 4)
                .min(injector.queue.len());
            (injector.queue.drain(..n).collect(), injector.wake_gen)
        };
        if !grabbed.is_empty() {
            let first = grabbed.remove(0);
            if !grabbed.is_empty() {
                shared.lock_local(idx).extend(grabbed);
                // The surplus is stealable work parked siblings cannot
                // see in the injector; bump the generation and wake
                // them.
                shared.bump_wake_gen();
                shared.work_ready.notify_all();
            }
            timed_run(first, clock);
            continue;
        }

        // 3. Steal from the back of a sibling's deque.
        let mut stolen = None;
        for off in 1..workers {
            let victim = (idx + off) % workers;
            if let Some(task) = shared.lock_local(victim).pop_back() {
                stolen = Some(task);
                break;
            }
        }
        if let Some(task) = stolen {
            shared.steals.fetch_add(1, Ordering::Relaxed);
            shared.metrics.steals.incr();
            timed_run(task, clock);
            continue;
        }

        // 4. Park — but only if nothing was published since step 0. A
        //    publish that raced the scan shows up as a moved generation
        //    and triggers a rescan instead of a sleep.
        let mut injector = shared.lock_injector();
        if shared.shutdown.load(Ordering::Acquire) && injector.queue.is_empty() {
            return;
        }
        if injector.queue.is_empty() && injector.wake_gen == observed_gen {
            shared.metrics.parks.incr();
            shared.metrics.idle_workers.add(1);
            let parked_at = metrics_enabled().then(Instant::now);
            shared
                .work_ready
                .wait_for(&mut injector, shared.park_timeout);
            if let Some(t0) = parked_at {
                clock
                    .idle_ns
                    .add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
            shared.metrics.idle_workers.add(-1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_slot_runs_exactly_once() {
        let pool = ExecutorPool::new(3);
        for slots in [1usize, 2, 3, 7, 32] {
            let counts: Vec<AtomicUsize> = (0..slots).map(|_| AtomicUsize::new(0)).collect();
            pool.run_batch(slots, &|slot| {
                counts[slot].fetch_add(1, Ordering::Relaxed);
            });
            for (slot, count) in counts.iter().enumerate() {
                assert_eq!(count.load(Ordering::Relaxed), 1, "slot {slot} of {slots}");
            }
        }
    }

    #[test]
    fn zero_worker_pool_runs_batches_inline() {
        let pool = ExecutorPool::new(0);
        let ran = AtomicUsize::new(0);
        pool.run_batch(5, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 5);
        assert_eq!(pool.background_workers(), 0);
    }

    #[test]
    fn batches_borrow_the_callers_stack() {
        let pool = ExecutorPool::new(2);
        let data: Vec<u64> = (0..100).collect();
        let sum = AtomicU64::new(0);
        pool.run_batch(4, &|slot| {
            let part: u64 = data.iter().skip(slot).step_by(4).sum();
            sum.fetch_add(part, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn worker_panic_is_rethrown_on_the_submitter() {
        let pool = ExecutorPool::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run_batch(4, &|slot| {
                if slot == 2 {
                    panic!("slot 2 exploded");
                }
            });
        }));
        assert!(err.is_err(), "the slot panic must surface to the caller");
        // The pool survives: the next batch runs normally.
        let ran = AtomicUsize::new(0);
        pool.run_batch(4, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = ExecutorPool::new(4);
        let ran = AtomicUsize::new(0);
        pool.run_batch(16, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        drop(pool); // must not hang or leave threads behind
        assert_eq!(ran.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = ExecutorPool::shared() as *const _;
        let b = ExecutorPool::shared() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn wakeups_do_not_depend_on_the_park_timeout_net() {
        // A park timeout far beyond the test budget: if any wakeup were
        // lost (workers parking across a publish), some batch — or the
        // final drop — would stall for the full timeout and blow the
        // elapsed assertion, instead of being quietly rescued by the
        // 50 ms production net.
        let pool = ExecutorPool::with_park_timeout(3, Duration::from_secs(120));
        let t0 = std::time::Instant::now();
        let ran = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run_batch(4, &|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(ran.load(Ordering::Relaxed), 400);
        drop(pool); // shutdown must wake parked workers without the net
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "a lost wakeup stalled the pool for {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn every_publish_moves_the_wakeup_generation() {
        // The generation is the observable contract the park step keys
        // on: a batch submission must bump it at least once, so a
        // worker that scanned before the submission cannot park after.
        let pool = ExecutorPool::new(2);
        let before = pool.shared.lock_injector().wake_gen;
        pool.run_batch(3, &|_| {});
        let after = pool.shared.lock_injector().wake_gen;
        assert!(after > before, "submission did not bump wake_gen");
    }
}
