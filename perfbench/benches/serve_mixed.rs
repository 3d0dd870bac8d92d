//! `serve-mixed`: an open loop over loopback against an in-process
//! `nmcs_serve::Server` with 2 engine workers, driven from 2 keep-alive
//! connections at a fixed offered rate on a seed-derived arrival
//! schedule.
//!
//! Search work per job is small, so HTTP parsing, admission, queueing,
//! engine dispatch and session bookkeeping dominate the latency. Most
//! jobs are small one-shot searches; a minority are heavier (UCT on
//! SameGame 10×10, 2-replica ensembles). Beside them run warm session
//! episodes (open, steps, delete) and periodic `GET /metrics` reads.
//! Tenants stay under quota, so any shed reply is a failure.
//!
//! A job's latency runs from its scheduled send time until a poll
//! observes it terminal. Every accepted job is audited afterwards
//! against the direct `SearchSpec::run` (sessions: a local
//! `SearchSession`) for bit-identity.

use crate::http::Conn;
use crate::stats::{mean, median, ms, percentile, Sheet};
use crate::trace::Tracer;
use crate::{E2e, Pass};
use nmcs_core::metrics::MetricsSnapshot;
use nmcs_core::{mix64, DynGame, Rng, SearchSession, SearchSpec, UctConfig};
use nmcs_engine::EngineConfig;
use nmcs_serve::wire::stock_game;
use nmcs_serve::{ServeConfig, Server};
use serde::Value;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Offered job rate: 15 s of schedule is 1200 jobs.
const RATE_PER_S: f64 = 80.0;
/// The latency limit of `throughput_w{1,2}` (goodput), fixed once from
/// the p99 of the first runs on a 2-core Xeon (about 100 ms) with
/// headroom; never tuned per run.
const LATENCY_LIMIT_MS: f64 = 250.0;
const CONNECTIONS: usize = 2;
const AUDIT_THREADS: usize = 2;
const ENGINE_WORKERS: usize = 2;
/// A pending job is polled again after a quarter of its age, within
/// these bounds: short jobs are seen terminal within ~25% of their
/// latency without a fixed-rate poll storm.
const POLL_MIN: Duration = Duration::from_micros(200);
const POLL_MAX: Duration = Duration::from_millis(2);
const METRICS_EVERY_S: f64 = 0.5;
const SESSION_EVERY_S: f64 = 1.0;
const SESSION_STEPS: usize = 3;
const SESSION_ITERATIONS: usize = 300;
const UCT_ITERATIONS: usize = 2_000;
/// Jobs still outstanding this long after the schedule ends time out.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// The generator fell behind (the run is invalid) when its p99
/// lateness exceeds this: far above the few ms a busy reply costs, so
/// only a backlog trips it.
const GEN_LAG_LIMIT_MS: f64 = 100.0;
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SumSample,
    SameGameNested,
    MorpionNested,
    TspNrpa,
    SameGameUct,
    /// `replicas: 2` ensemble of nested level 1 on Morpion 5D-c3.
    Ensemble,
}

/// The job mix, per 100 jobs.
const MIX: [(Kind, usize); 6] = [
    (Kind::SumSample, 30),
    (Kind::SameGameNested, 20),
    (Kind::MorpionNested, 15),
    (Kind::TspNrpa, 15),
    (Kind::SameGameUct, 4),
    (Kind::Ensemble, 16),
];

impl Kind {
    fn game(self) -> &'static str {
        match self {
            Kind::SumSample => "sum",
            Kind::SameGameNested => "samegame-small",
            Kind::MorpionNested | Kind::Ensemble => "morpion-c3",
            Kind::TspNrpa => "tsp",
            Kind::SameGameUct => "samegame",
        }
    }

    fn spec(self, seed: u64) -> SearchSpec {
        let b = match self {
            Kind::SumSample => SearchSpec::sample(),
            Kind::SameGameNested | Kind::MorpionNested | Kind::Ensemble => SearchSpec::nested(1),
            Kind::TspNrpa => SearchSpec::nrpa(1),
            Kind::SameGameUct => SearchSpec::uct_with(UctConfig {
                iterations: UCT_ITERATIONS,
                ..UctConfig::default()
            }),
        };
        b.seed(seed).build()
    }

    fn replicas(self) -> usize {
        if self == Kind::Ensemble {
            2
        } else {
            1
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct JobPlan {
    pub due: Duration,
    pub kind: Kind,
    pub spec: SearchSpec,
    pub body: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlan {
    pub due: Duration,
    pub spec: SearchSpec,
    pub body: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub jobs: Vec<JobPlan>,
    pub sessions: Vec<SessionPlan>,
    pub metrics_reads: Vec<Duration>,
}

/// A `POST /jobs` body; `extra` holds further JSON fields, each with a
/// leading comma.
fn submit_body(tenant: &str, kind: Kind, spec: &SearchSpec, extra: &str) -> String {
    let replicas = match kind.replicas() {
        1 => String::new(),
        r => format!(r#","replicas":{r}"#),
    };
    format!(
        r#"{{"tenant":"{tenant}","game":"{}","spec":{}{replicas}{extra}}}"#,
        kind.game(),
        serde_json::to_string(spec).expect("spec serialises"),
    )
}

fn session_body(spec: &SearchSpec) -> String {
    format!(
        r#"{{"tenant":"sessions","game":"samegame-small","spec":{}}}"#,
        serde_json::to_string(spec).expect("spec serialises")
    )
}

fn session_spec(seed: u64) -> SearchSpec {
    SearchSpec::uct_with(UctConfig {
        iterations: SESSION_ITERATIONS,
        ..UctConfig::default()
    })
    .tree_reuse(true)
    .seed(seed)
    .build()
}

/// The seed's schedule: exactly `RATE_PER_S × seconds` jobs in the
/// fixed mix. The heavy UCT jobs arrive evenly spaced (seeded phase),
/// so the tail measures the system rather than how the draw clustered
/// them; the rest arrive at exponential gaps scaled to span `seconds`.
pub fn schedule(seed: u64, seconds: u64) -> Schedule {
    let mut rng = Rng::seeded(mix64(seed ^ 0x5e7e_0003));
    let n = (RATE_PER_S * seconds as f64) as usize;
    let span = seconds as f64;
    let mut kinds: Vec<Kind> = Vec::with_capacity(n);
    for (kind, per100) in MIX {
        if kind != Kind::SameGameUct {
            kinds.extend(std::iter::repeat_n(kind, n * per100 / 100));
        }
    }
    let heavy = n * MIX
        .iter()
        .find(|(k, _)| *k == Kind::SameGameUct)
        .map_or(0, |(_, p)| *p)
        / 100;
    while kinds.len() + heavy < n {
        kinds.push(Kind::SumSample);
    }
    rng.shuffle(&mut kinds);
    let gaps: Vec<f64> = (0..kinds.len())
        .map(|_| -(1.0 - rng.unit_f64()).ln())
        .collect();
    let total: f64 = gaps.iter().sum();
    let mut at = 0.0;
    let mut arrivals: Vec<(f64, Kind)> = kinds
        .into_iter()
        .zip(gaps)
        .map(|(kind, gap)| {
            at += gap;
            (span * at / total, kind)
        })
        .collect();
    let phase = rng.unit_f64();
    arrivals
        .extend((0..heavy).map(|k| (span * (k as f64 + phase) / heavy as f64, Kind::SameGameUct)));
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let jobs = arrivals
        .into_iter()
        .enumerate()
        .map(|(i, (due, kind))| {
            let job_seed = mix64(seed ^ mix64(0x10b ^ i as u64));
            let spec = kind.spec(job_seed);
            let priority = match i % 10 {
                0 => r#","priority":"high""#,
                5 => r#","priority":"low""#,
                _ => "",
            };
            let body = submit_body(&format!("t{}", i % 4), kind, &spec, priority);
            JobPlan {
                due: Duration::from_secs_f64(due),
                kind,
                spec,
                body,
            }
        })
        .collect();
    let every = |period: f64| {
        (0..)
            .map(move |k| k as f64 * period + period / 2.0)
            .take_while(move |t| *t < span)
    };
    let sessions = every(SESSION_EVERY_S)
        .enumerate()
        .map(|(k, t)| {
            let spec = session_spec(mix64(seed ^ mix64(0x5e55 ^ k as u64)));
            let body = session_body(&spec);
            SessionPlan {
                due: Duration::from_secs_f64(t),
                spec,
                body,
            }
        })
        .collect();
    Schedule {
        jobs,
        sessions,
        metrics_reads: every(METRICS_EVERY_S)
            .map(Duration::from_secs_f64)
            .collect(),
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Job(usize),
    Session(usize),
    Metrics(usize),
}

/// A job the client is waiting on.
struct Pending {
    job: u64,
    /// When its latency clock started: the scheduled send time (jobs) or
    /// the step submission (session steps).
    since: Instant,
    submitted: Instant,
    next_poll: Instant,
    what: Waiting,
}

impl Pending {
    fn new(job: u64, since: Instant, what: Waiting) -> Pending {
        let now = Instant::now();
        Pending {
            job,
            since,
            submitted: now,
            next_poll: now,
            what,
        }
    }
}

#[derive(Clone, Copy)]
enum Waiting {
    Job(usize),
    Step {
        session: usize,
        id: u64,
        step: usize,
    },
}

/// A terminal job as the client observed it.
struct Done {
    what: Waiting,
    job: u64,
    latency: Duration,
    observed: Instant,
    queued_ms: f64,
    running_ms: f64,
    output: Value,
}

#[derive(Default)]
struct ClientLog {
    done: Vec<Done>,
    failures: Vec<String>,
    attempted: u64,
    lag_ms: Vec<f64>,
    submits: u64,
}

fn field_f64(v: &Value, k: &str) -> Option<f64> {
    match v.get_field(k)? {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn field_u64(v: &Value, k: &str) -> Option<u64> {
    match v.get_field(k)? {
        Value::U64(x) => Some(*x),
        Value::I64(x) => u64::try_from(*x).ok(),
        _ => None,
    }
}

struct Client<'a> {
    conn: Conn,
    tracer: &'a Tracer,
    plan: &'a Schedule,
    log: ClientLog,
    pending: Vec<Pending>,
}

impl Client<'_> {
    /// Sends one request, tracing it as `span` under request id `id`,
    /// and returns the reply body; a transport error or an unexpected
    /// status is a failure.
    fn call(
        &mut self,
        span: &'static str,
        id: u64,
        want: u16,
        req: impl FnOnce(&mut Conn) -> Result<crate::http::Reply, String>,
    ) -> Option<String> {
        self.log.attempted += 1;
        let started = Instant::now();
        let reply = req(&mut self.conn);
        self.tracer.record(span, id, 0, started, Instant::now());
        let failure = match reply {
            Ok(r) if r.status == want => return Some(r.body),
            Ok(r) => format!("{span}: status {}: {}", r.status, r.body),
            Err(e) => format!("{span}: {e}"),
        };
        self.log.failures.push(failure);
        None
    }

    /// [`Client::call`] on a JSON route: the reply must parse.
    fn call_json(
        &mut self,
        span: &'static str,
        id: u64,
        want: u16,
        req: impl FnOnce(&mut Conn) -> Result<crate::http::Reply, String>,
    ) -> Option<Value> {
        let body = self.call(span, id, want, req)?;
        match serde_json::from_str(&body) {
            Ok(v) => Some(v),
            Err(e) => {
                self.log
                    .failures
                    .push(format!("{span}: unparsable reply: {e}"));
                None
            }
        }
    }

    fn fire(&mut self, event: Event, due: Instant) {
        self.log
            .lag_ms
            .push(ms(Instant::now().saturating_duration_since(due)));
        match event {
            Event::Job(i) => {
                self.log.submits += 1;
                let body = &self.plan.jobs[i].body;
                let reply = self.call_json("serve.submit", 0, 202, |c| c.post("/jobs", body));
                match reply.as_ref().and_then(|v| field_u64(v, "job")) {
                    Some(job) => self.pending.push(Pending::new(job, due, Waiting::Job(i))),
                    None if reply.is_some() => self
                        .log
                        .failures
                        .push(format!("job {i}: 202 without an id")),
                    None => {}
                }
            }
            Event::Session(s) => {
                self.log.submits += 1;
                let body = &self.plan.sessions[s].body;
                let reply =
                    self.call_json("serve.session_open", 0, 201, |c| c.post("/sessions", body));
                if let Some(id) = reply.as_ref().and_then(|v| field_u64(v, "session")) {
                    self.step(s, id, 0);
                }
            }
            Event::Metrics(k) => {
                // Alternate the two formats; each must hold the serve
                // edge's section (text) or parse as the snapshot (JSON).
                let json = k % 2 == 1;
                let path = if json {
                    "/metrics?format=json"
                } else {
                    "/metrics"
                };
                if let Some(body) = self.call("serve.metrics", 0, 200, |c| c.get(path)) {
                    let ok = if json {
                        serde_json::from_str::<MetricsSnapshot>(&body).is_ok()
                    } else {
                        body.contains("serve_shed_total")
                    };
                    if !ok {
                        self.log
                            .failures
                            .push(format!("serve.metrics: malformed {path} body"));
                    }
                }
            }
        }
    }

    fn step(&mut self, session: usize, id: u64, step: usize) {
        let path = format!("/sessions/{id}/jobs");
        let since = Instant::now();
        let reply = self.call_json("serve.session_step", id, 202, |c| c.post(&path, ""));
        if let Some(job) = reply.as_ref().and_then(|v| field_u64(v, "job")) {
            self.pending.push(Pending::new(
                job,
                since,
                Waiting::Step { session, id, step },
            ));
        }
    }

    /// Polls every pending job whose poll is due; returns how many
    /// turned terminal.
    fn poll(&mut self) -> usize {
        let mut finished = 0;
        let mut k = 0;
        while k < self.pending.len() {
            let now = Instant::now();
            if self.pending[k].next_poll > now {
                k += 1;
                continue;
            }
            let job = self.pending[k].job;
            let path = format!("/jobs/{job}");
            let Some(v) = self.call_json("serve.poll", job, 200, |c| c.get(&path)) else {
                self.pending.swap_remove(k);
                continue;
            };
            let Some(output) = v.get_field("output").cloned() else {
                let p = &mut self.pending[k];
                let now = Instant::now();
                p.next_poll = now + ((now - p.submitted) / 4).clamp(POLL_MIN, POLL_MAX);
                k += 1;
                continue;
            };
            let observed = Instant::now();
            let p = self.pending.swap_remove(k);
            finished += 1;
            self.tracer.record("job", job, 0, p.since, observed);
            if let Waiting::Step { session, id, step } = p.what {
                let terminal = output
                    .get_field("best")
                    .and_then(|b| b.get_field("sequence"))
                    == Some(&Value::Array(vec![]));
                if step + 1 < SESSION_STEPS && !terminal {
                    self.step(session, id, step + 1);
                } else {
                    let path = format!("/sessions/{id}");
                    self.call_json("serve.session_delete", id, 200, |c| c.delete(&path));
                }
            }
            self.log.done.push(Done {
                what: p.what,
                job,
                latency: observed - p.since,
                observed,
                queued_ms: field_f64(&v, "queued_for_ms").unwrap_or(f64::NAN),
                running_ms: field_f64(&v, "running_for_ms").unwrap_or(f64::NAN),
                output,
            });
        }
        finished
    }

    /// The open loop: fire each event at its due time, poll pending jobs
    /// in between, then drain.
    fn drive(mut self, events: &[(Duration, Event)], t0: Instant) -> ClientLog {
        let mut next = 0;
        let mut drain_deadline = None;
        loop {
            let now = Instant::now();
            match events.get(next) {
                Some((due, event)) if t0 + *due <= now => {
                    self.fire(*event, t0 + *due);
                    next += 1;
                    continue;
                }
                None if self.pending.is_empty() => break,
                None if now > *drain_deadline.get_or_insert(now + DRAIN_TIMEOUT) => {
                    for p in self.pending.drain(..) {
                        self.log.failures.push(format!("job {} timed out", p.job));
                    }
                    break;
                }
                _ => {}
            }
            if self.poll() == 0 {
                let wake = events
                    .get(next)
                    .map(|(d, _)| t0 + *d)
                    .into_iter()
                    .chain(self.pending.iter().map(|p| p.next_poll))
                    .min()
                    .unwrap_or(now);
                let nap = wake.saturating_duration_since(Instant::now());
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                }
            }
        }
        self.log
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        engine: EngineConfig {
            workers: ENGINE_WORKERS,
            queue_capacity: 256,
        },
        tenant_quota: 64,
        retain_terminal: 4096,
        ..ServeConfig::default()
    }
}

fn metrics_json(conn: &mut Conn) -> Result<MetricsSnapshot, String> {
    let r = conn.get("/metrics?format=json")?;
    serde_json::from_str(&r.body).map_err(|e| format!("metrics json: {e}"))
}

/// POSTs `body` and reads the id field `key` of the reply.
fn post_for_id(c: &mut Conn, path: &str, body: &str, key: &str) -> Result<u64, String> {
    let reply = c.post(path, body)?;
    serde_json::from_str::<Value>(&reply.body)
        .ok()
        .and_then(|v| field_u64(&v, key))
        .ok_or_else(|| format!("POST {path}: {} {}", reply.status, reply.body))
}

/// Server up, both connections open, and one job of every kind plus a
/// session episode served on them (at fixed seeds, so set-up work does
/// not vary with the inputs).
fn start() -> Result<(Server, Vec<Conn>), String> {
    let server = Server::start(config()).map_err(|e| format!("server start: {e}"))?;
    let addr: SocketAddr = server.addr();
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        let mut c = Conn::connect(addr)?;
        let r = c.get("/healthz")?;
        if r.status != 200 {
            return Err(format!("healthz: {}", r.status));
        }
        conns.push(c);
    }
    for (kind, _) in MIX {
        let body = submit_body("warm-up", kind, &kind.spec(0), "");
        let job = post_for_id(&mut conns[0], "/jobs", &body, "job")?;
        conns[0].get(&format!("/jobs/{job}?wait=1"))?;
    }
    let c = &mut conns[1];
    let session = post_for_id(c, "/sessions", &session_body(&session_spec(0)), "session")?;
    let job = post_for_id(c, &format!("/sessions/{session}/jobs"), "", "job")?;
    c.get(&format!("/jobs/{job}?wait=1"))?;
    c.delete(&format!("/sessions/{session}"))?;
    Ok((server, conns))
}

/// The replica records of a terminal job output.
fn replicas(output: &Value) -> Vec<&Value> {
    match output.get_field("replicas") {
        Some(Value::Array(rs)) => rs.iter().collect(),
        _ => Vec::new(),
    }
}

/// (score, sequence, playouts, work_units) of one wire replica.
fn wire_result(r: &Value) -> Option<(i64, Vec<usize>, u64, u64)> {
    let score = match r.get_field("score")? {
        Value::I64(s) => *s,
        Value::U64(s) => i64::try_from(*s).ok()?,
        _ => return None,
    };
    let seq = match r.get_field("sequence")? {
        Value::Array(xs) => xs
            .iter()
            .map(|x| match x {
                Value::U64(n) => usize::try_from(*n).ok(),
                _ => None,
            })
            .collect::<Option<Vec<usize>>>()?,
        _ => return None,
    };
    Some((
        score,
        seq,
        field_u64(r, "playouts")?,
        field_u64(r, "work_units")?,
    ))
}

/// Bit-identity of one one-shot job against the direct library call:
/// every replica equals `SearchSpec::run` at the seed it reports.
fn audit_job(plan: &JobPlan, output: &Value) -> Result<(), String> {
    if output.get_field("state") != Some(&Value::Str("completed".to_string())) {
        return Err(format!(
            "not completed: {}",
            serde_json::to_string(output).unwrap_or_default()
        ));
    }
    let game: DynGame = stock_game(plan.kind.game(), plan.spec.seed)?;
    let rs = replicas(output);
    if rs.len() != plan.kind.replicas() {
        return Err(format!(
            "{} replicas, planned {}",
            rs.len(),
            plan.kind.replicas()
        ));
    }
    for r in rs {
        let seed = field_u64(r, "seed_used").ok_or("replica without seed_used")?;
        let got = wire_result(r).ok_or("malformed replica")?;
        let mut spec = plan.spec.clone();
        spec.seed = seed;
        let d = spec.run(&game);
        let want = (d.score, d.sequence, d.stats.playouts, d.stats.work_units);
        if got != want {
            return Err(format!("wire {got:?} vs direct {want:?}"));
        }
    }
    Ok(())
}

/// Replays a session's observed steps on a local `SearchSession`.
fn audit_session(plan: &SessionPlan, steps: &[&Done]) -> Result<(), String> {
    let game: DynGame = stock_game("samegame-small", plan.spec.seed)?;
    let mut local = SearchSession::new(game, plan.spec.clone(), None);
    for d in steps {
        let best = d.output.get_field("best").ok_or("step without a result")?;
        let got = wire_result(best).ok_or("malformed step result")?;
        let r = local.step(None);
        let want = (r.score, r.sequence, r.stats.playouts, r.stats.work_units);
        if got != want {
            return Err(format!("step wire {got:?} vs local {want:?}"));
        }
    }
    Ok(())
}

/// The median job latency of the quarter of the schedule (by due time)
/// whose median is lowest: the host's speed drifts by up to 1.8× in
/// phases of 10 s and more, and a slow phase over part of a run should
/// not move the median. Each quarter holds ≥ 400 jobs at 20 s.
fn fastest_quarter_median(due_and_ms: &[(Duration, f64)], span: Duration) -> f64 {
    (0..4)
        .filter_map(|q| {
            let lat: Vec<f64> = due_and_ms
                .iter()
                .filter(|(due, _)| {
                    (4.0 * due.as_secs_f64() / span.as_secs_f64()).min(3.0) as usize == q
                })
                .map(|(_, ms)| *ms)
                .collect();
            (!lat.is_empty()).then(|| median(&lat))
        })
        .fold(f64::INFINITY, f64::min)
}

pub fn run(seed: u64, seconds: u64, tracer: &Tracer) -> Pass {
    let plan = schedule(seed, seconds);
    let mut pass = Pass::default();

    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        match start() {
            Ok(up) => {
                setup_s.push(started.elapsed().as_secs_f64());
                if let Some((old, conns)) = ready.replace(up) {
                    drop(conns);
                    Server::shutdown(old);
                }
            }
            Err(e) => {
                pass.attempted += 1;
                pass.failures.push(format!("setup: {e}"));
                if let Some((server, conns)) = ready {
                    // Close the clients first: the server joins their
                    // connection threads.
                    drop(conns);
                    server.shutdown();
                }
                return pass;
            }
        }
    }
    let (server, mut conns) = ready.expect("at least one setup");
    let before = metrics_json(&mut conns[0]);

    // Events, each connection taking every other one of each stream.
    let mut per_conn: Vec<Vec<(Duration, Event)>> = vec![Vec::new(); CONNECTIONS];
    for (i, j) in plan.jobs.iter().enumerate() {
        per_conn[i % CONNECTIONS].push((j.due, Event::Job(i)));
    }
    for (s, p) in plan.sessions.iter().enumerate() {
        per_conn[s % CONNECTIONS].push((p.due, Event::Session(s)));
    }
    for (k, &t) in plan.metrics_reads.iter().enumerate() {
        per_conn[(k + 1) % CONNECTIONS].push((t, Event::Metrics(k)));
    }
    for evs in &mut per_conn {
        evs.sort_by_key(|(d, _)| *d);
    }

    let t0 = Instant::now() + Duration::from_millis(5);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .drain(..)
            .zip(&per_conn)
            .map(|(conn, events)| {
                let client = Client {
                    conn,
                    tracer,
                    plan: &plan,
                    log: ClientLog::default(),
                    pending: Vec::new(),
                };
                s.spawn(move || client.drive(events, t0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    // Outside the window: counters, shed tally, then the audit.
    let mut conn = match Conn::connect(server.addr()) {
        Ok(c) => c,
        Err(e) => {
            pass.failures.push(format!("post-run connect: {e}"));
            return pass;
        }
    };
    let after = metrics_json(&mut conn);
    let text = conn.get("/metrics").map(|r| r.body).unwrap_or_default();
    drop(conn);
    server.shutdown();

    let mut done: Vec<Done> = Vec::new();
    let mut lag = Vec::new();
    let mut submits = 0;
    for log in logs {
        pass.attempted += log.attempted;
        pass.failures.extend(log.failures);
        done.extend(log.done);
        lag.extend(log.lag_ms);
        submits += log.submits;
    }
    let gen_lag_p99 = percentile(&lag, 0.99);
    if gen_lag_p99 > GEN_LAG_LIMIT_MS {
        pass.failures.push(format!(
            "invalid run: the generator fell behind (lateness p99 {gen_lag_p99:.1} ms > {GEN_LAG_LIMIT_MS} ms)"
        ));
    }

    // Audit, on both cores.
    let jobs: Vec<&Done> = done
        .iter()
        .filter(|d| matches!(d.what, Waiting::Job(_)))
        .collect();
    let halves: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..AUDIT_THREADS)
            .map(|h| {
                let jobs = &jobs;
                let plan = &plan;
                s.spawn(move || {
                    jobs.iter()
                        .skip(h)
                        .step_by(AUDIT_THREADS)
                        .filter_map(|d| match d.what {
                            Waiting::Job(i) => audit_job(&plan.jobs[i], &d.output).err().map(|e| {
                                format!("job {} (plan {i}, {:?}): {e}", d.job, plan.jobs[i].kind)
                            }),
                            Waiting::Step { .. } => None,
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("audit thread panicked"))
            .collect()
    });
    pass.failures.extend(halves.into_iter().flatten());
    pass.attempted += jobs.len() as u64;
    for (s, p) in plan.sessions.iter().enumerate() {
        let mut steps: Vec<&Done> = done
            .iter()
            .filter(|d| matches!(d.what, Waiting::Step { session, .. } if session == s))
            .collect();
        steps.sort_by_key(|d| match d.what {
            Waiting::Step { step, .. } => step,
            Waiting::Job(_) => 0,
        });
        pass.attempted += 1;
        if let Err(e) = audit_session(p, &steps) {
            pass.failures.push(format!("session {s}: {e}"));
        }
    }

    // End-to-end figures over the scheduled jobs.
    let latency_ms: Vec<f64> = jobs.iter().map(|d| ms(d.latency)).collect();
    let due_and_ms: Vec<(Duration, f64)> = jobs
        .iter()
        .filter_map(|d| match d.what {
            Waiting::Job(i) => Some((plan.jobs[i].due, ms(d.latency))),
            Waiting::Step { .. } => None,
        })
        .collect();
    let window_s = jobs
        .iter()
        .map(|d| d.observed.saturating_duration_since(t0).as_secs_f64())
        .fold(0.0, f64::max);
    let goodput = |width: usize| {
        jobs.iter()
            .filter(|d| match d.what {
                Waiting::Job(i) => plan.jobs[i].kind.replicas() == width,
                Waiting::Step { .. } => false,
            })
            .filter(|d| ms(d.latency) <= LATENCY_LIMIT_MS)
            .count() as f64
            / window_s
    };
    let ensemble_scores: Vec<f64> = jobs
        .iter()
        .filter(|d| matches!(d.what, Waiting::Job(i) if plan.jobs[i].kind == Kind::Ensemble))
        .filter_map(|d| {
            d.output
                .get_field("best")
                .and_then(|b| field_f64(b, "score"))
        })
        .collect();
    pass.e2e = E2e {
        setup_s: median(&setup_s),
        p50_ms: fastest_quarter_median(&due_and_ms, Duration::from_secs(seconds)),
        tail_ms: percentile(&latency_ms, 0.99),
        throughput_w1: goodput(1),
        throughput_w2: goodput(2),
        score_mean: mean(&ensemble_scores),
    };

    if tracer.enabled() {
        let mut sheet = Sheet::default();
        let all: Vec<&Done> = done.iter().collect();
        let queued: Vec<f64> = all.iter().map(|d| d.queued_ms).collect();
        let running: Vec<f64> = all.iter().map(|d| d.running_ms).collect();
        sheet.put("engine.queue_wait_ms_p50", percentile(&queued, 0.5), "ms");
        sheet.put("engine.queue_wait_ms_p99", percentile(&queued, 0.99), "ms");
        sheet.put("engine.run_ms_p50", percentile(&running, 0.5), "ms");
        match (before, after) {
            (Ok(a), Ok(b)) => {
                let (a, b) = (a.engine.unwrap_or_default(), b.engine.unwrap_or_default());
                sheet.count("engine.executed_tasks", b.executed_tasks - a.executed_tasks);
                sheet.count("engine.stolen_tasks", b.stolen_tasks - a.stolen_tasks);
                sheet.count(
                    "engine.rejected_submissions",
                    b.rejected_submissions - a.rejected_submissions,
                );
                sheet.count(
                    "engine.session_evictions",
                    b.sessions_evicted - a.sessions_evicted,
                );
            }
            (a, b) => pass.failures.push(format!(
                "engine counters unavailable: {:?} / {:?}",
                a.err(),
                b.err()
            )),
        }
        let dur = |name: &str| tracer.durations_ms(name);
        sheet.put(
            "serve.submit_ms_p50",
            percentile(&dur("serve.submit"), 0.5),
            "ms",
        );
        sheet.put(
            "serve.submit_ms_p99",
            percentile(&dur("serve.submit"), 0.99),
            "ms",
        );
        sheet.put(
            "serve.poll_ms_p50",
            percentile(&dur("serve.poll"), 0.5),
            "ms",
        );
        sheet.put(
            "serve.metrics_ms_p50",
            percentile(&dur("serve.metrics"), 0.5),
            "ms",
        );
        sheet.put(
            "serve.session_open_ms_p50",
            percentile(&dur("serve.session_open"), 0.5),
            "ms",
        );
        sheet.put("serve.gen_lag_ms_p99", gen_lag_p99, "ms");
        for reason in nmcs_serve::metrics::SHED_REASONS {
            let prefix = format!("serve_shed_total{{reason=\"{reason}\"}} ");
            let n: f64 = text
                .lines()
                .find_map(|l| l.strip_prefix(&prefix))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(f64::NAN);
            sheet.put(
                format!("serve.shed_ratio.{reason}"),
                n / submits.max(1) as f64,
                "ratio",
            );
        }
        pass.layers = sheet;
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_new_seed_changes_the_schedule_but_not_its_shape() {
        let a = schedule(1, 15);
        let b = schedule(2, 15);
        assert_ne!(a, b);
        assert_eq!(a, schedule(1, 15));
        assert_eq!(a.jobs.len(), 1200);
        for s in [&a, &b] {
            for (kind, per100) in MIX {
                assert_eq!(
                    s.jobs.iter().filter(|j| j.kind == kind).count(),
                    12 * per100
                );
            }
            assert!(s.jobs.last().expect("jobs").due <= Duration::from_secs(15));
            assert_eq!(s.sessions.len(), 15);
        }
    }

    #[test]
    fn the_fastest_quarter_sets_the_median() {
        let at = |s: f64, v: f64| (Duration::from_secs_f64(s), v);
        let jobs = [
            at(0.1, 5.0),
            at(0.2, 6.0),
            at(1.1, 9.0),
            at(2.1, 2.0),
            at(2.2, 3.0),
            at(2.3, 4.0),
            at(3.5, 7.0),
            at(4.0, 8.0),
        ];
        assert_eq!(fastest_quarter_median(&jobs, Duration::from_secs(4)), 3.0);
    }

    #[test]
    fn the_audit_catches_a_corrupted_result() {
        let plan = &schedule(3, 1).jobs[0];
        let game = stock_game(plan.kind.game(), plan.spec.seed).expect("stock game");
        let r = plan.spec.run(&game);
        let replica = |score: i64| {
            Value::Object(vec![
                ("seed_used".to_string(), Value::U64(plan.spec.seed)),
                ("score".to_string(), Value::I64(score)),
                (
                    "sequence".to_string(),
                    Value::Array(r.sequence.iter().map(|&m| Value::U64(m as u64)).collect()),
                ),
                ("playouts".to_string(), Value::U64(r.stats.playouts)),
                ("work_units".to_string(), Value::U64(r.stats.work_units)),
            ])
        };
        let output = |score: i64| {
            let rs = vec![replica(score); plan.kind.replicas()];
            Value::Object(vec![
                ("state".to_string(), Value::Str("completed".to_string())),
                ("replicas".to_string(), Value::Array(rs)),
            ])
        };
        assert_eq!(audit_job(plan, &output(r.score)), Ok(()));
        assert!(audit_job(plan, &output(r.score + 1)).is_err());
    }
}
