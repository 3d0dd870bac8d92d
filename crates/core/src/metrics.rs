//! Lock-free metrics registry: counters, gauges, and log-bucketed
//! latency histograms, plus the serde-serialisable snapshot types the
//! future `/metrics` endpoint will render.
//!
//! Three layers feed this module:
//!
//! - the [`ExecutorPool`] records park/steal/
//!   wakeup/batch events and per-worker busy-vs-idle clocks into a
//!   per-pool [`PoolMetrics`];
//! - [`Searcher::search`](crate::Searcher::search) records per-backend
//!   wall-time histograms (keyed by
//!   [`AlgorithmSpec::tag()`](crate::AlgorithmSpec::tag)), playout
//!   totals, and budget-trip/cancellation tallies into the process-wide
//!   [`SearchMetrics`] registry;
//! - `nmcs-engine` fills the [`EngineSnapshot`] section (queue-wait vs
//!   run-time split, per-tenant/per-domain histograms, dead letters,
//!   stall detection) from its own registry built out of the same
//!   primitives.
//!
//! Hot-path contract: every record operation is a handful of relaxed
//! atomic RMWs — no mutex, no allocation (labels allocate once, on the
//! first registration of a tag, never on a search or rollout path). The
//! only mutex in the module guards the [`DeadLetterQueue`], which is
//! pushed to exclusively at replica *completion* (panic/cancel/budget
//! trip), never inside a search loop. Snapshots read atomics and never
//! touch any RNG, so the determinism contracts (1-worker ≡ sequential
//! per seed, unhit budgets bit-identical) hold with metrics enabled —
//! `tests/metrics_props.rs` asserts this on every backend.
//!
//! The whole registry can be switched off with
//! [`set_metrics_enabled(false)`](set_metrics_enabled): instrumentation
//! sites check [`metrics_enabled()`] (one relaxed load) before taking
//! clock readings, which is what the overhead-guard test compares
//! against.

use crate::exec::pool::ExecutorPool;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------
// Global enable flag
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// The sanctioned monotonic clock read for wall-time *observability*
/// (latency reports, deadline bookkeeping). Every timing site outside
/// the clock-allowlisted modules must come through here so the
/// `nmcs-lint` clock-discipline rule can see, from the call site alone,
/// that the reading feeds reporting and never a seed or an RNG.
#[inline]
pub fn monotonic_now() -> Instant {
    Instant::now()
}

/// Whether instrumentation sites should record (one relaxed load).
#[inline]
pub fn metrics_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables metric recording. Disabling skips the
/// clock reads and atomic bumps at every instrumentation site; it never
/// changes search results (asserted by the bit-identity proptests).
pub fn set_metrics_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

/// A monotonic counter (relaxed atomic adds).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (usable in `static` position).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous gauge (e.g. currently idle pool workers).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge (usable in `static` position).
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the gauge to `n`.
    #[inline]
    pub fn set(&self, n: i64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log buckets in a [`Histogram`]. Bucket `i` (for `i >= 1`)
/// holds samples in `[2^(i-1), 2^i)` nanoseconds; bucket 0 holds zeros;
/// the last bucket absorbs everything above `2^(BUCKETS-2)`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free log-bucketed latency histogram over nanoseconds.
///
/// Recording is four relaxed atomic RMWs (bucket, sum, min, max); no
/// allocation ever. Percentiles are estimated from bucket midpoints at
/// snapshot time, giving ≤ ~33 % relative error — plenty for latency
/// SLO reporting across nine orders of magnitude.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Log-bucket index of a nanosecond sample.
#[inline]
fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (64 - ns.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Representative (midpoint) value of a bucket, used for percentile
/// estimates.
fn bucket_mid(i: usize) -> u64 {
    match i {
        0 => 0,
        1 => 1,
        _ => (1u64 << (i - 1)) + (1u64 << (i - 2)),
    }
}

impl Histogram {
    /// An empty histogram (usable in `static` position).
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one nanosecond sample.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.min.fetch_min(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] sample.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Folds `other`'s samples into `self`. Merge is associative and
    /// order-independent (proptested): bucket counts and sums add,
    /// min/max combine.
    pub fn merge_from(&self, other: &Histogram) {
        for (b, o) in self.buckets.iter().zip(other.buckets.iter()) {
            b.fetch_add(o.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Raw bucket counts (tests compare these for merge laws).
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Point-in-time percentile/mean summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts = self.bucket_counts();
        let count: u64 = counts.iter().sum();
        let sum = self.sum.load(Ordering::Relaxed);
        if count == 0 {
            return HistogramSnapshot::default();
        }
        let pct = |q: f64| -> u64 {
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_mid(i);
                }
            }
            bucket_mid(HISTOGRAM_BUCKETS - 1)
        };
        let mut min_ns = self.min.load(Ordering::Relaxed);
        let mut max_ns = self.max.load(Ordering::Relaxed);
        // A record in flight on another thread updates bucket, sum, min,
        // max as four separate relaxed stores, so a torn read can show
        // `count >= 1` while min/max still hold their initial values
        // (min = u64::MAX > max = 0). `clamp(min, max)` would panic on
        // that inversion; fall back to the bucket extremes, which are
        // consistent with `counts` by construction.
        if min_ns > max_ns {
            let first = counts.iter().position(|&c| c > 0).unwrap_or(0);
            let last = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
            min_ns = bucket_mid(first);
            max_ns = bucket_mid(last);
        }
        // Bucket midpoints can over/undershoot the true extremes by up
        // to half a power of two; clamping keeps the summary internally
        // consistent (min ≤ p50 ≤ p95 ≤ p99 ≤ max always holds). With a
        // single sample this collapses every percentile to that exact
        // sample (min == max), not a bucket-midpoint estimate of it.
        let pct = |q: f64| pct(q).clamp(min_ns, max_ns);
        HistogramSnapshot {
            count,
            sum_ns: sum,
            min_ns,
            max_ns,
            p50_ns: pct(0.50),
            p95_ns: pct(0.95),
            p99_ns: pct(0.99),
        }
    }
}

// ---------------------------------------------------------------------
// Per-tag histogram table
// ---------------------------------------------------------------------

/// Capacity of a [`TagHistograms`] table. Records beyond capacity land
/// in an overflow counter instead of being silently dropped.
pub const TAG_SLOTS: usize = 32;

struct TagSlot {
    /// CAS-claimed key; 0 means empty (a genuine tag of 0 is remapped,
    /// see `slot_key`).
    key: AtomicU64,
    /// The label of the *first* record that claimed this key. Immutable
    /// after initialisation — later records under the same key must
    /// present the same label or they are collisions, not samples.
    label: OnceLock<String>,
    hist: Histogram,
    hits: Counter,
}

impl TagSlot {
    const fn new() -> Self {
        TagSlot {
            key: AtomicU64::new(0),
            label: OnceLock::new(),
            hist: Histogram::new(),
            hits: Counter::new(),
        }
    }
}

/// 0 is the empty-slot sentinel; remap a genuine 0 tag so it still gets
/// a slot (colliding with a genuine `u64::MAX` tag is accepted — FNV
/// tags hit neither in practice).
fn slot_key(tag: u64) -> u64 {
    if tag == 0 {
        u64::MAX
    } else {
        tag
    }
}

/// A fixed-capacity, lock-free table of histograms keyed by a `u64`
/// tag (e.g. [`AlgorithmSpec::tag()`](crate::AlgorithmSpec::tag), or an
/// FNV hash of a tenant/domain name).
///
/// Slots are claimed by CAS on first sight of a key; the human-readable
/// label allocates once at claim time (cold path) and is immutable
/// after. Recording into a claimed slot is a short scan of atomic loads
/// plus a histogram record — no mutex, no allocation.
pub struct TagHistograms {
    slots: [TagSlot; TAG_SLOTS],
    /// Records that found the table full.
    overflow: Counter,
    /// Records whose tag matched a claimed slot but whose label did not:
    /// two distinct names hashing to the same u64 tag. Routed to the
    /// overflow counter instead of silently merging latencies.
    collisions: Counter,
}

impl Default for TagHistograms {
    fn default() -> Self {
        Self::new()
    }
}

impl TagHistograms {
    /// An empty table (usable in `static` position).
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const SLOT: TagSlot = TagSlot::new();
        TagHistograms {
            slots: [SLOT; TAG_SLOTS],
            overflow: Counter::new(),
            collisions: Counter::new(),
        }
    }

    /// Records `ns` under `tag`, labelling the slot with `label` if this
    /// is the first sight of the tag.
    ///
    /// Tags are typically hashes of `label`, so two distinct labels can
    /// collide on one u64. A slot belongs to the label that claimed it:
    /// a record whose tag matches but whose label differs is counted in
    /// [`TagHistograms::collisions`] (and routed to the overflow
    /// counter) rather than silently merged into the wrong histogram.
    pub fn record(&self, tag: u64, label: &str, ns: u64) {
        let key = slot_key(tag);
        for slot in &self.slots {
            let cur = slot.key.load(Ordering::Acquire);
            let claimed = cur == key
                || (cur == 0
                    && slot
                        .key
                        .compare_exchange(0, key, Ordering::AcqRel, Ordering::Acquire)
                        .map(|_| true)
                        .unwrap_or_else(|raced| raced == key));
            if claimed {
                // First record under the key wins the label; everyone
                // else must match it. `get_or_init` makes the claim race
                // deterministic: a loser observes the winner's label and
                // detects the mismatch here, at claim time.
                let owner = slot.label.get_or_init(|| label.to_string());
                if owner != label {
                    self.collisions.incr();
                    self.overflow.incr();
                    return;
                }
                slot.hist.record(ns);
                slot.hits.incr();
                return;
            }
        }
        self.overflow.incr();
    }

    /// Records that found no free slot (including collision re-routes).
    pub fn overflow(&self) -> u64 {
        self.overflow.get()
    }

    /// Records rejected because their tag matched a slot claimed by a
    /// different label (hash collision between two names).
    pub fn collisions(&self) -> u64 {
        self.collisions.get()
    }

    /// Snapshots every claimed slot, sorted by label (then key) so the
    /// output is deterministic.
    pub fn snapshot(&self) -> Vec<TaggedHistogramSnapshot> {
        let mut out: Vec<TaggedHistogramSnapshot> = self
            .slots
            .iter()
            .filter(|s| s.key.load(Ordering::Acquire) != 0)
            .map(|s| TaggedHistogramSnapshot {
                tag: s.key.load(Ordering::Acquire),
                label: s.label.get().cloned().unwrap_or_default(),
                hits: s.hits.get(),
                hist: s.hist.snapshot(),
            })
            .collect();
        out.sort_by(|a, b| a.label.cmp(&b.label).then(a.tag.cmp(&b.tag)));
        out
    }
}

// ---------------------------------------------------------------------
// Dead-letter queue
// ---------------------------------------------------------------------

/// One dead letter: a replica that panicked, was cancelled, or tripped
/// its budget. Also the serde snapshot type.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeadLetter {
    /// Job id the replica belonged to.
    pub job: u64,
    /// Replica index within the job.
    pub replica: u64,
    /// Job (tenant) name.
    pub name: String,
    /// Why it dead-lettered: `"panicked"`, `"cancelled"`, or a budget
    /// trip (`"deadline"`, `"playouts"`, `"nodes"`).
    pub reason: String,
    /// Milliseconds from job submission to the dead-letter event.
    pub age_ms: u64,
}

/// A bounded FIFO of [`DeadLetter`]s: pushing past capacity evicts the
/// *oldest* entry, so the most recent letter is never dropped
/// (proptested). Guarded by a mutex, but only ever pushed at replica
/// completion — never on a search or rollout path.
pub struct DeadLetterQueue {
    cap: usize,
    inner: Mutex<VecDeque<DeadLetter>>,
    /// Entries evicted to stay within capacity.
    dropped: Counter,
}

impl DeadLetterQueue {
    /// A queue holding at most `cap` letters (`cap` ≥ 1 enforced).
    pub fn new(cap: usize) -> Self {
        DeadLetterQueue {
            cap: cap.max(1),
            inner: Mutex::new(VecDeque::new()),
            dropped: Counter::new(),
        }
    }

    /// Appends a letter, evicting the oldest if full.
    pub fn push(&self, letter: DeadLetter) {
        let mut q = self.inner.lock();
        if q.len() == self.cap {
            q.pop_front();
            self.dropped.incr();
        }
        q.push_back(letter);
    }

    /// Letters evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Current letters, oldest first.
    pub fn snapshot(&self) -> Vec<DeadLetter> {
        self.inner.lock().iter().cloned().collect()
    }
}

// ---------------------------------------------------------------------
// Pool metrics
// ---------------------------------------------------------------------

/// Per-worker busy/idle nanosecond clocks.
#[derive(Debug, Default)]
pub struct WorkerClock {
    /// Nanoseconds spent running tasks.
    pub busy_ns: Counter,
    /// Nanoseconds spent parked or scanning for work.
    pub idle_ns: Counter,
}

/// Counters and clocks for one [`ExecutorPool`].
/// All fields are atomics; see the module docs for the hot-path
/// contract.
pub struct PoolMetrics {
    /// Times a worker parked on the injector condvar.
    pub parks: Counter,
    /// Wakeup-generation bumps (notifications issued to parked workers).
    pub wakeups: Counter,
    /// Successful steals from a sibling's deque.
    pub steals: Counter,
    /// `run_batch` submissions.
    pub batches: Counter,
    /// Total slots executed across all batches.
    pub batch_slots: Counter,
    /// Workers currently parked (idle), exported by `/metrics`.
    pub idle_workers: Gauge,
    per_worker: Vec<WorkerClock>,
}

impl PoolMetrics {
    /// Metrics for a pool with `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        PoolMetrics {
            parks: Counter::new(),
            wakeups: Counter::new(),
            steals: Counter::new(),
            batches: Counter::new(),
            batch_slots: Counter::new(),
            idle_workers: Gauge::new(),
            per_worker: (0..workers).map(|_| WorkerClock::default()).collect(),
        }
    }

    /// The busy/idle clock of worker `idx`.
    pub fn worker(&self, idx: usize) -> &WorkerClock {
        &self.per_worker[idx]
    }

    /// Point-in-time summary of all pool counters.
    pub fn snapshot(&self) -> PoolSnapshot {
        let per_worker_busy_ns: Vec<u64> =
            self.per_worker.iter().map(|w| w.busy_ns.get()).collect();
        let per_worker_idle_ns: Vec<u64> =
            self.per_worker.iter().map(|w| w.idle_ns.get()).collect();
        PoolSnapshot {
            workers: self.per_worker.len() as u64,
            parks: self.parks.get(),
            wakeups: self.wakeups.get(),
            steals: self.steals.get(),
            batches: self.batches.get(),
            batch_slots: self.batch_slots.get(),
            idle_workers: self.idle_workers.get(),
            busy_ns: per_worker_busy_ns.iter().sum(),
            idle_ns: per_worker_idle_ns.iter().sum(),
            per_worker_busy_ns,
            per_worker_idle_ns,
        }
    }
}

// ---------------------------------------------------------------------
// Search metrics (process-wide registry)
// ---------------------------------------------------------------------

/// Process-wide search-layer registry, fed by
/// [`Searcher::search`](crate::Searcher::search) once per completed
/// search (nothing records inside rollout loops).
pub struct SearchMetrics {
    /// Completed searches.
    pub searches: Counter,
    /// Playouts across all searches (from
    /// [`SearchStats`](crate::SearchStats)).
    pub playouts: Counter,
    /// Playout moves across all searches.
    pub playout_moves: Counter,
    /// Searches interrupted by the wall-clock deadline.
    pub deadline_trips: Counter,
    /// Searches interrupted by the playout budget.
    pub playout_trips: Counter,
    /// Searches interrupted by the node budget.
    pub node_trips: Counter,
    /// Searches interrupted by cancellation.
    pub cancellations: Counter,
    /// Per-backend wall-time histograms keyed by
    /// [`AlgorithmSpec::tag()`](crate::AlgorithmSpec::tag).
    pub wall: TagHistograms,
    epoch: Instant,
}

impl SearchMetrics {
    fn new() -> Self {
        SearchMetrics {
            searches: Counter::new(),
            playouts: Counter::new(),
            playout_moves: Counter::new(),
            deadline_trips: Counter::new(),
            playout_trips: Counter::new(),
            node_trips: Counter::new(),
            cancellations: Counter::new(),
            wall: TagHistograms::new(),
            epoch: Instant::now(),
        }
    }

    /// Point-in-time summary; `playouts_per_sec` is the lifetime rate
    /// since the registry was first touched.
    pub fn snapshot(&self) -> SearchSnapshot {
        let secs = self.epoch.elapsed().as_secs_f64();
        let playouts = self.playouts.get();
        SearchSnapshot {
            searches: self.searches.get(),
            playouts,
            playout_moves: self.playout_moves.get(),
            playouts_per_sec: if secs > 0.0 {
                playouts as f64 / secs
            } else {
                0.0
            },
            deadline_trips: self.deadline_trips.get(),
            playout_trips: self.playout_trips.get(),
            node_trips: self.node_trips.get(),
            cancellations: self.cancellations.get(),
            backends: self.wall.snapshot(),
            tag_collisions: self.wall.collisions(),
        }
    }
}

static SEARCH: OnceLock<SearchMetrics> = OnceLock::new();

/// The process-wide [`SearchMetrics`] registry (created on first use).
pub fn search_metrics() -> &'static SearchMetrics {
    SEARCH.get_or_init(SearchMetrics::new)
}

// ---------------------------------------------------------------------
// Snapshot types
// ---------------------------------------------------------------------

/// Percentile/mean summary of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub sum_ns: u64,
    /// Smallest sample (0 when empty).
    pub min_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
    /// Estimated median.
    pub p50_ns: u64,
    /// Estimated 95th percentile.
    pub p95_ns: u64,
    /// Estimated 99th percentile.
    pub p99_ns: u64,
}

impl HistogramSnapshot {
    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// One claimed slot of a [`TagHistograms`] table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaggedHistogramSnapshot {
    /// The slot's key (e.g. an algorithm `tag()`).
    pub tag: u64,
    /// Human-readable label recorded at claim time.
    pub label: String,
    /// Samples recorded under this tag.
    pub hits: u64,
    /// Latency summary.
    pub hist: HistogramSnapshot,
}

/// Summary of one pool's [`PoolMetrics`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PoolSnapshot {
    /// Worker threads in the pool.
    pub workers: u64,
    /// Times a worker parked.
    pub parks: u64,
    /// Wakeup-generation bumps.
    pub wakeups: u64,
    /// Successful deque steals.
    pub steals: u64,
    /// `run_batch` submissions.
    pub batches: u64,
    /// Slots executed across all batches.
    pub batch_slots: u64,
    /// Workers currently parked.
    pub idle_workers: i64,
    /// Total busy nanoseconds across workers.
    pub busy_ns: u64,
    /// Total idle nanoseconds across workers.
    pub idle_ns: u64,
    /// Busy nanoseconds per worker.
    pub per_worker_busy_ns: Vec<u64>,
    /// Idle nanoseconds per worker.
    pub per_worker_idle_ns: Vec<u64>,
}

/// Summary of the process-wide [`SearchMetrics`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchSnapshot {
    /// Completed searches.
    pub searches: u64,
    /// Total playouts.
    pub playouts: u64,
    /// Total playout moves.
    pub playout_moves: u64,
    /// Lifetime playout rate.
    pub playouts_per_sec: f64,
    /// Deadline budget trips.
    pub deadline_trips: u64,
    /// Playout budget trips.
    pub playout_trips: u64,
    /// Node budget trips.
    pub node_trips: u64,
    /// Cancelled searches.
    pub cancellations: u64,
    /// Per-backend wall-time histograms.
    pub backends: Vec<TaggedHistogramSnapshot>,
    /// Backend records rejected because their tag collided with a slot
    /// claimed by a different label (see [`TagHistograms::collisions`]).
    pub tag_collisions: u64,
}

/// A running job flagged past its deadline estimate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StalledJob {
    /// Job id.
    pub job: u64,
    /// Job (tenant) name.
    pub name: String,
    /// Milliseconds the job has been running.
    pub running_ms: u64,
    /// The deadline estimate it exceeded, milliseconds.
    pub deadline_ms: u64,
}

/// The engine section of a [`MetricsSnapshot`], filled by
/// `nmcs_engine::Engine::inspector`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineSnapshot {
    /// Jobs accepted by `submit`/`try_submit`.
    pub submitted_jobs: u64,
    /// Jobs that finished with all replicas successful.
    pub completed_jobs: u64,
    /// Jobs that finished cancelled.
    pub cancelled_jobs: u64,
    /// Jobs that finished failed (a replica panicked).
    pub failed_jobs: u64,
    /// Submissions rejected by backpressure.
    pub rejected_submissions: u64,
    /// Replica tasks executed to completion.
    pub executed_tasks: u64,
    /// Replica tasks skipped (cancelled before running).
    pub skipped_tasks: u64,
    /// Replica tasks stolen between engine workers.
    pub stolen_tasks: u64,
    /// Work units across all executed tasks.
    pub total_work_units: u64,
    /// Current submission-queue depth.
    pub queue_depth: u64,
    /// Time replicas spent queued before first pickup.
    pub queue_wait: HistogramSnapshot,
    /// Time replicas spent actually searching.
    pub run_time: HistogramSnapshot,
    /// Run-time histograms keyed by tenant (job name).
    pub tenants: Vec<TaggedHistogramSnapshot>,
    /// Run-time histograms keyed by game domain.
    pub domains: Vec<TaggedHistogramSnapshot>,
    /// The bounded dead-letter record, oldest first.
    pub dead_letters: Vec<DeadLetter>,
    /// Dead letters evicted to stay within capacity.
    pub dlq_dropped: u64,
    /// Running jobs currently past their deadline estimate.
    pub stalled: Vec<StalledJob>,
    /// Tenant/domain records rejected because their FNV tag collided
    /// with a slot claimed by a different label — latencies were routed
    /// to the overflow counter instead of silently merged (see
    /// [`TagHistograms::collisions`]).
    pub tag_collisions: u64,
    /// Warm-tree sessions currently open.
    pub sessions: u64,
    /// Summed approximate warm bytes across open sessions (what the
    /// session table's memory bound is enforced against).
    pub session_bytes: u64,
    /// Sessions ever opened.
    pub sessions_opened: u64,
    /// Sessions dropped by idle-TTL expiry.
    pub sessions_expired: u64,
    /// Sessions evicted under the count or byte bound.
    pub sessions_evicted: u64,
}

/// The full, serde-round-trippable metrics snapshot — the future
/// `/metrics` endpoint body. `engine` is `None` for core-only
/// snapshots (no engine in the process).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Executor-pool counters and clocks.
    pub pool: PoolSnapshot,
    /// Search-layer counters and per-backend histograms.
    pub search: SearchSnapshot,
    /// Engine section, when snapshotted through `Engine::inspector`.
    pub engine: Option<EngineSnapshot>,
}

/// Snapshots the process-wide registries (shared executor pool +
/// search metrics), with no engine section.
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        pool: ExecutorPool::shared().metrics().snapshot(),
        search: search_metrics().snapshot(),
        engine: None,
    }
}

// ---------------------------------------------------------------------
// Serde (hand-written against the vendored shim: the derive handles
// only flat structs of primitives, and these types nest).
// ---------------------------------------------------------------------

macro_rules! impl_value_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl serde::Serialize for $ty {
            fn to_value(&self) -> serde::Value {
                serde::Value::Object(vec![
                    $((stringify!($field).to_string(), self.$field.to_value()),)*
                ])
            }
        }
        impl serde::Deserialize for $ty {
            fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
                Ok($ty {
                    $($field: match v.get_field(stringify!($field)) {
                        Some(f) => serde::Deserialize::from_value(f)?,
                        None => Default::default(),
                    },)*
                })
            }
        }
    };
}

impl_value_struct!(HistogramSnapshot {
    count,
    sum_ns,
    min_ns,
    max_ns,
    p50_ns,
    p95_ns,
    p99_ns
});
impl_value_struct!(TaggedHistogramSnapshot {
    tag,
    label,
    hits,
    hist
});
impl_value_struct!(PoolSnapshot {
    workers,
    parks,
    wakeups,
    steals,
    batches,
    batch_slots,
    idle_workers,
    busy_ns,
    idle_ns,
    per_worker_busy_ns,
    per_worker_idle_ns,
});
impl_value_struct!(SearchSnapshot {
    searches,
    playouts,
    playout_moves,
    playouts_per_sec,
    deadline_trips,
    playout_trips,
    node_trips,
    cancellations,
    backends,
    tag_collisions,
});
impl_value_struct!(DeadLetter {
    job,
    replica,
    name,
    reason,
    age_ms
});
impl_value_struct!(StalledJob {
    job,
    name,
    running_ms,
    deadline_ms
});
impl_value_struct!(EngineSnapshot {
    submitted_jobs,
    completed_jobs,
    cancelled_jobs,
    failed_jobs,
    rejected_submissions,
    executed_tasks,
    skipped_tasks,
    stolen_tasks,
    total_work_units,
    queue_depth,
    queue_wait,
    run_time,
    tenants,
    domains,
    dead_letters,
    dlq_dropped,
    stalled,
    tag_collisions,
    sessions,
    session_bytes,
    sessions_opened,
    sessions_expired,
    sessions_evicted,
});
impl_value_struct!(MetricsSnapshot {
    pool,
    search,
    engine
});

// ---------------------------------------------------------------------
// Text render
// ---------------------------------------------------------------------

impl MetricsSnapshot {
    /// Renders the snapshot in a Prometheus-flavoured text exposition
    /// format — one `name{labels} value` line per series. This (or the
    /// JSON form via `serde_json`) is what a future `/metrics` endpoint
    /// serves.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let p = &self.pool;
        let _ = writeln!(s, "pool_workers {}", p.workers);
        let _ = writeln!(s, "pool_parks_total {}", p.parks);
        let _ = writeln!(s, "pool_wakeups_total {}", p.wakeups);
        let _ = writeln!(s, "pool_steals_total {}", p.steals);
        let _ = writeln!(s, "pool_batches_total {}", p.batches);
        let _ = writeln!(s, "pool_batch_slots_total {}", p.batch_slots);
        let _ = writeln!(s, "pool_idle_workers {}", p.idle_workers);
        let _ = writeln!(s, "pool_busy_seconds_total {}", p.busy_ns as f64 / 1e9);
        let _ = writeln!(s, "pool_idle_seconds_total {}", p.idle_ns as f64 / 1e9);
        let q = &self.search;
        let _ = writeln!(s, "search_total {}", q.searches);
        let _ = writeln!(s, "search_playouts_total {}", q.playouts);
        let _ = writeln!(s, "search_playout_moves_total {}", q.playout_moves);
        let _ = writeln!(s, "search_playouts_per_second {}", q.playouts_per_sec);
        let _ = writeln!(
            s,
            "search_trips_total{{kind=\"deadline\"}} {}",
            q.deadline_trips
        );
        let _ = writeln!(
            s,
            "search_trips_total{{kind=\"playouts\"}} {}",
            q.playout_trips
        );
        let _ = writeln!(s, "search_trips_total{{kind=\"nodes\"}} {}", q.node_trips);
        let _ = writeln!(s, "search_cancellations_total {}", q.cancellations);
        let _ = writeln!(s, "search_tag_collisions_total {}", q.tag_collisions);
        for b in &q.backends {
            render_hist(
                &mut s,
                "search_wall_seconds",
                &[("backend", &b.label)],
                &b.hist,
            );
        }
        if let Some(e) = &self.engine {
            let _ = writeln!(
                s,
                "engine_jobs_total{{state=\"submitted\"}} {}",
                e.submitted_jobs
            );
            let _ = writeln!(
                s,
                "engine_jobs_total{{state=\"completed\"}} {}",
                e.completed_jobs
            );
            let _ = writeln!(
                s,
                "engine_jobs_total{{state=\"cancelled\"}} {}",
                e.cancelled_jobs
            );
            let _ = writeln!(s, "engine_jobs_total{{state=\"failed\"}} {}", e.failed_jobs);
            let _ = writeln!(
                s,
                "engine_rejected_submissions_total {}",
                e.rejected_submissions
            );
            let _ = writeln!(
                s,
                "engine_tasks_total{{kind=\"executed\"}} {}",
                e.executed_tasks
            );
            let _ = writeln!(
                s,
                "engine_tasks_total{{kind=\"skipped\"}} {}",
                e.skipped_tasks
            );
            let _ = writeln!(
                s,
                "engine_tasks_total{{kind=\"stolen\"}} {}",
                e.stolen_tasks
            );
            let _ = writeln!(s, "engine_work_units_total {}", e.total_work_units);
            let _ = writeln!(s, "engine_queue_depth {}", e.queue_depth);
            render_hist(&mut s, "engine_queue_wait_seconds", &[], &e.queue_wait);
            render_hist(&mut s, "engine_run_time_seconds", &[], &e.run_time);
            for t in &e.tenants {
                render_hist(
                    &mut s,
                    "engine_tenant_run_seconds",
                    &[("tenant", &t.label)],
                    &t.hist,
                );
            }
            for d in &e.domains {
                render_hist(
                    &mut s,
                    "engine_domain_run_seconds",
                    &[("domain", &d.label)],
                    &d.hist,
                );
            }
            let _ = writeln!(s, "engine_dead_letters {}", e.dead_letters.len());
            let _ = writeln!(s, "engine_dead_letters_dropped_total {}", e.dlq_dropped);
            let _ = writeln!(s, "engine_stalled_jobs {}", e.stalled.len());
            let _ = writeln!(s, "engine_tag_collisions_total {}", e.tag_collisions);
            let _ = writeln!(s, "engine_sessions {}", e.sessions);
            let _ = writeln!(s, "engine_session_bytes {}", e.session_bytes);
            let _ = writeln!(
                s,
                "engine_sessions_total{{event=\"opened\"}} {}",
                e.sessions_opened
            );
            let _ = writeln!(
                s,
                "engine_sessions_total{{event=\"expired\"}} {}",
                e.sessions_expired
            );
            let _ = writeln!(
                s,
                "engine_sessions_total{{event=\"evicted\"}} {}",
                e.sessions_evicted
            );
        }
        s
    }
}

/// Escapes a label *value* for the Prometheus text exposition format:
/// backslash, double quote, and newline get the format's own escapes;
/// any other control character (a hostile tenant name can contain a
/// carriage return or a NUL) is replaced outright, since the format
/// defines no escape for it and a raw one would corrupt the line
/// structure. The result always parses as a quoted label value.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if c.is_control() => out.push('\u{FFFD}'),
            c => out.push(c),
        }
    }
    out
}

fn render_hist(s: &mut String, name: &str, labels: &[(&str, &str)], h: &HistogramSnapshot) {
    use std::fmt::Write as _;
    let tag = |extra: &str| -> String {
        let mut parts: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        if !extra.is_empty() {
            parts.push(extra.to_string());
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    };
    let _ = writeln!(s, "{name}_count{} {}", tag(""), h.count);
    let _ = writeln!(s, "{name}_sum{} {}", tag(""), h.sum_ns as f64 / 1e9);
    for (q, v) in [("0.5", h.p50_ns), ("0.95", h.p95_ns), ("0.99", h.p99_ns)] {
        let _ = writeln!(
            s,
            "{name}{} {}",
            tag(&format!("quantile=\"{q}\"")),
            v as f64 / 1e9
        );
    }
}
