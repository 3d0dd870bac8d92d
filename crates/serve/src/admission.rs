//! Admission control for the HTTP front door, layered on the engine's
//! bounded queue: per-tenant in-flight quotas, priority lanes over the
//! queue-depth gauge, and deadline-aware load shedding driven by the
//! engine's queue-wait p95.
//!
//! The decision function is pure — every input is a number the caller
//! snapshots — so each policy edge is unit-testable without sockets or
//! threads. A rejected job is **never** enqueued; the 429 carries a
//! `Retry-After` derived from the same wait model that shed it.

/// Priority lane of a submission. Lanes partition the queue-depth
/// gauge: low-priority work is shed first as the queue fills, high
/// priority can use the full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    Low,
    Normal,
    High,
}

impl Priority {
    /// Parses the wire value; `None`/empty means `Normal`.
    pub fn parse(s: Option<&str>) -> Result<Priority, String> {
        match s {
            None | Some("") | Some("normal") => Ok(Priority::Normal),
            Some("low") => Ok(Priority::Low),
            Some("high") => Ok(Priority::High),
            Some(other) => Err(format!(
                "unknown priority '{other}' (expected low, normal, or high)"
            )),
        }
    }

    /// Fraction of the queue this lane may fill before shedding.
    fn depth_allowance(self) -> f64 {
        match self {
            Priority::Low => 0.50,
            Priority::Normal => 0.85,
            Priority::High => 1.0,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// Everything the decision looks at, snapshotted by the caller.
#[derive(Debug, Clone)]
pub struct AdmissionInputs {
    /// Non-terminal jobs this tenant already has in the system.
    pub tenant_inflight: usize,
    /// Per-tenant in-flight cap.
    pub tenant_quota: usize,
    pub priority: Priority,
    /// Current submission-queue depth, replica tasks.
    pub queue_depth: usize,
    /// Submission-queue capacity, replica tasks.
    pub queue_capacity: usize,
    /// Replica tasks this job would enqueue.
    pub replicas: usize,
    /// Engine worker threads.
    pub workers: usize,
    /// Queue-wait p95 from the engine registry, nanoseconds (0 until
    /// the first replica has been picked up).
    pub queue_wait_p95_ns: u64,
    /// The job's wall-clock allowance in milliseconds: its budget
    /// deadline, or the request's `ttl_ms`, whichever the caller
    /// resolved. `None` opts out of deadline shedding.
    pub deadline_ms: Option<u64>,
}

/// Outcome of [`decide`] / [`decide_open_session`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    Admit,
    Reject {
        /// HTTP status (always 429 here; queue-full and shutdown 503s
        /// come from the engine itself).
        status: u16,
        reason: String,
        /// Suggested backoff, milliseconds.
        retry_after_ms: u64,
        /// Stable machine-readable rejection class — the label of the
        /// edge's shed-by-reason counter (one of
        /// [`crate::metrics::SHED_REASONS`]).
        kind: &'static str,
    },
}

/// Expected queue wait for a job entering at `depth`, in milliseconds:
/// the p95 historical wait scaled by how loaded the queue is right now
/// relative to the worker pool. An empty queue predicts zero wait
/// regardless of history, so an idle engine never sheds.
pub fn predicted_wait_ms(queue_depth: usize, workers: usize, queue_wait_p95_ns: u64) -> u64 {
    if queue_depth == 0 {
        return 0;
    }
    let p95_ms = queue_wait_p95_ns / 1_000_000;
    let batches_ahead = queue_depth.div_ceil(workers.max(1)) as u64;
    p95_ms.saturating_mul(batches_ahead)
}

pub fn decide(inputs: &AdmissionInputs) -> Decision {
    // Quota first: a tenant at its cap is rejected regardless of how
    // empty the queue is, so one tenant cannot monopolise the engine.
    if inputs.tenant_inflight >= inputs.tenant_quota {
        let wait = predicted_wait_ms(inputs.queue_depth, inputs.workers, inputs.queue_wait_p95_ns);
        return Decision::Reject {
            status: 429,
            reason: format!(
                "tenant quota exceeded ({} of {} jobs in flight)",
                inputs.tenant_inflight, inputs.tenant_quota
            ),
            retry_after_ms: wait.max(250),
            kind: "tenant-quota",
        };
    }

    // Priority lane: each lane may only fill its share of the queue.
    // `High` keeps the whole queue; the engine's own all-or-nothing
    // check still applies after admission.
    let allowed_depth =
        (inputs.queue_capacity as f64 * inputs.priority.depth_allowance()).floor() as usize;
    if inputs.queue_depth.saturating_add(inputs.replicas) > allowed_depth {
        let wait = predicted_wait_ms(inputs.queue_depth, inputs.workers, inputs.queue_wait_p95_ns);
        return Decision::Reject {
            status: 429,
            reason: format!(
                "{} lane full (depth {} + {} replicas > {} allowed of {})",
                inputs.priority.as_str(),
                inputs.queue_depth,
                inputs.replicas,
                allowed_depth,
                inputs.queue_capacity
            ),
            retry_after_ms: wait.max(250),
            kind: "lane",
        };
    }

    // Deadline shedding: refuse work whose own budget will already be
    // spent waiting in the queue — running it would only burn workers
    // to produce a deadline-tripped result nobody wants.
    if let Some(deadline_ms) = inputs.deadline_ms {
        let wait = predicted_wait_ms(inputs.queue_depth, inputs.workers, inputs.queue_wait_p95_ns);
        if wait > deadline_ms {
            return Decision::Reject {
                status: 429,
                reason: format!(
                    "deadline unmeetable (predicted queue wait {wait}ms > budget {deadline_ms}ms)"
                ),
                retry_after_ms: wait,
                kind: "deadline",
            };
        }
    }

    Decision::Admit
}

/// Everything the session-open decision looks at, snapshotted by the
/// caller. Step submissions on an already-open session skip job
/// admission — steps are strictly serial per session, so open sessions
/// *are* the concurrency bound — which makes this the single gate a
/// tenant's warm-tree footprint passes through.
#[derive(Debug, Clone)]
pub struct SessionAdmissionInputs {
    /// Sessions this tenant already has open.
    pub tenant_sessions: usize,
    /// Per-tenant open-session cap.
    pub session_quota: usize,
}

/// Decides a `POST /sessions`. Only the per-tenant quota is checked
/// here; the engine's own session table enforces the global count and
/// byte bounds (by LRU eviction, or `AtCapacity` when everything is
/// busy).
pub fn decide_open_session(inputs: &SessionAdmissionInputs) -> Decision {
    if inputs.tenant_sessions >= inputs.session_quota {
        return Decision::Reject {
            status: 429,
            reason: format!(
                "session quota exceeded ({} of {} sessions open)",
                inputs.tenant_sessions, inputs.session_quota
            ),
            // Sessions are long-lived; there is no queue model to
            // predict from, so suggest a fixed polite backoff.
            retry_after_ms: 1000,
            kind: "session-quota",
        };
    }
    Decision::Admit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> AdmissionInputs {
        AdmissionInputs {
            tenant_inflight: 0,
            tenant_quota: 4,
            priority: Priority::Normal,
            queue_depth: 0,
            queue_capacity: 100,
            replicas: 1,
            workers: 2,
            queue_wait_p95_ns: 50_000_000, // 50ms
            deadline_ms: None,
        }
    }

    fn rejected(d: Decision) -> (String, u64) {
        match d {
            Decision::Reject {
                status,
                reason,
                retry_after_ms,
                ..
            } => {
                assert_eq!(status, 429);
                (reason, retry_after_ms)
            }
            Decision::Admit => panic!("expected rejection"),
        }
    }

    #[test]
    fn idle_engine_admits_everything() {
        assert_eq!(decide(&base()), Decision::Admit);
        // Even with a tiny deadline: empty queue predicts zero wait.
        let mut i = base();
        i.deadline_ms = Some(1);
        assert_eq!(decide(&i), Decision::Admit);
    }

    #[test]
    fn tenant_quota_rejects_at_cap_regardless_of_depth() {
        let mut i = base();
        i.tenant_inflight = 4;
        let (reason, retry) = rejected(decide(&i));
        assert!(reason.contains("quota"), "{reason}");
        assert!(retry >= 250, "retry-after has a floor");
        // One below the cap is fine.
        i.tenant_inflight = 3;
        assert_eq!(decide(&i), Decision::Admit);
    }

    #[test]
    fn lanes_partition_the_queue_depth() {
        let mut i = base();
        i.queue_depth = 60;
        i.priority = Priority::Low; // allowance 50
        let (reason, _) = rejected(decide(&i));
        assert!(reason.contains("low lane full"), "{reason}");
        i.priority = Priority::Normal; // allowance 85
        assert_eq!(decide(&i), Decision::Admit);
        i.queue_depth = 90;
        let (reason, _) = rejected(decide(&i));
        assert!(reason.contains("normal lane full"), "{reason}");
        i.priority = Priority::High; // allowance 100
        assert_eq!(decide(&i), Decision::Admit);
        i.queue_depth = 100;
        rejected(decide(&i));
    }

    #[test]
    fn replicas_count_against_the_lane() {
        let mut i = base();
        i.priority = Priority::High;
        i.queue_depth = 95;
        i.replicas = 6;
        rejected(decide(&i));
        i.replicas = 5;
        assert_eq!(decide(&i), Decision::Admit);
    }

    #[test]
    fn a_huge_replica_count_is_a_lane_rejection_not_an_overflow() {
        let mut i = base();
        i.queue_depth = 3;
        i.replicas = usize::MAX;
        let (reason, _) = rejected(decide(&i));
        assert!(reason.contains("lane full"), "{reason}");
    }

    #[test]
    fn unmeetable_deadlines_are_shed_with_the_predicted_wait() {
        let mut i = base();
        i.queue_depth = 8; // ceil(8/2) = 4 batches × 50ms = 200ms
        i.deadline_ms = Some(100);
        let (reason, retry) = rejected(decide(&i));
        assert!(reason.contains("deadline unmeetable"), "{reason}");
        assert_eq!(retry, 200);
        // A roomier budget on the same queue is admitted.
        i.deadline_ms = Some(500);
        assert_eq!(decide(&i), Decision::Admit);
        // No deadline opts out of shedding entirely.
        i.deadline_ms = None;
        assert_eq!(decide(&i), Decision::Admit);
    }

    #[test]
    fn predicted_wait_is_zero_on_an_empty_queue() {
        assert_eq!(predicted_wait_ms(0, 2, u64::MAX), 0);
        assert_eq!(predicted_wait_ms(4, 2, 50_000_000), 100);
        // Zero workers cannot divide-by-zero.
        assert_eq!(predicted_wait_ms(4, 0, 50_000_000), 200);
    }

    #[test]
    fn session_quota_gates_opens_per_tenant() {
        let mut i = SessionAdmissionInputs {
            tenant_sessions: 0,
            session_quota: 2,
        };
        assert_eq!(decide_open_session(&i), Decision::Admit);
        i.tenant_sessions = 2;
        match decide_open_session(&i) {
            Decision::Reject {
                status,
                reason,
                kind,
                ..
            } => {
                assert_eq!(status, 429);
                assert_eq!(kind, "session-quota");
                assert!(reason.contains("session quota"), "{reason}");
            }
            Decision::Admit => panic!("expected rejection at quota"),
        }
    }

    #[test]
    fn priority_parses_from_the_wire() {
        assert_eq!(Priority::parse(None).unwrap(), Priority::Normal);
        assert_eq!(Priority::parse(Some("low")).unwrap(), Priority::Low);
        assert_eq!(Priority::parse(Some("high")).unwrap(), Priority::High);
        assert!(Priority::parse(Some("urgent")).is_err());
    }
}
