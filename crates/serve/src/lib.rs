//! # nmcs-serve — the engine's networked front door
//!
//! A minimal HTTP/1.1 server (std `TcpListener`, thread per connection,
//! no async runtime) exposing [`nmcs_engine::Engine`] on a socket. The
//! protocol lives entirely at this edge: the engine core is untouched,
//! and a job submitted over the wire runs the exact serde
//! [`nmcs_core::SearchSpec`] the library API runs — bit-identical
//! results, budgets, cancellation, and all.
//!
//! ## Routes
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /jobs` | Submit a [`wire::SubmitRequest`]; `202` with the job id, `429` when shed, `503` when full or shutting down |
//! | `GET /jobs/{id}` | One progress snapshot (`?wait=1` blocks for the final output; `?stream=1` streams chunked progress lines until terminal) |
//! | `DELETE /jobs/{id}` | Cancel; finished replicas keep their results |
//! | `POST /sessions` | Open a warm-tree [`wire::OpenSessionRequest`]; `201` with the session snapshot, `429` over the tenant session quota |
//! | `GET /sessions/{id}` | One lock-free session snapshot (steps, committed moves, score, warm bytes) |
//! | `POST /sessions/{id}/jobs` | Submit one session step as a job; `202` with job + session ids, `409` while a step is in flight |
//! | `DELETE /sessions/{id}` | Close; a step already in flight completes normally |
//! | `GET /metrics` | Prometheus text from [`MetricsSnapshot::render_text`] plus the serve edge's per-route histograms and shed counters; `?format=json` returns the inspector snapshot verbatim |
//! | `GET /healthz` | `200 ok` while accepting |
//!
//! ## Admission control
//!
//! Before a job touches the engine's bounded queue it passes
//! [`admission::decide`]: per-tenant in-flight quotas, priority lanes
//! over the queue-depth gauge, and deadline-aware shedding driven by
//! the engine's queue-wait p95. Rejected jobs get `429` plus
//! `Retry-After` and are **never** enqueued.
//!
//! [`MetricsSnapshot::render_text`]: nmcs_core::metrics::MetricsSnapshot::render_text

pub mod admission;
pub mod http;
pub mod metrics;
pub mod registry;
pub mod wire;

use admission::{
    decide, decide_open_session, AdmissionInputs, Decision, Priority, SessionAdmissionInputs,
};
use http::{HttpError, Request, Response};
use metrics::ServeMetrics;
use nmcs_core::metrics::monotonic_now;
use nmcs_engine::{
    Engine, EngineConfig, JobId, SessionError, SessionId, SessionLimits, SubmitError,
};
use registry::JobDirectory;
use serde::Value;
use std::io::Write as _;
// nmcs-lint: allow(socket-discipline) reason="the HTTP edge: this module owns the listener and its shutdown self-connect"
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wire::{to_json, OpenSessionRequest, SubmitRequest};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (tests, soaks).
    pub addr: String,
    /// The embedded engine's worker/queue shape.
    pub engine: EngineConfig,
    /// Max non-terminal jobs per tenant (admission quota).
    pub tenant_quota: usize,
    /// Request body cap, bytes.
    pub max_body_bytes: usize,
    /// Terminal jobs kept for late polls.
    pub retain_terminal: usize,
    /// Deadline for reading one whole request, head and body, counted
    /// from when the connection starts waiting for it. Past it the
    /// connection closes, so neither an idle keep-alive client nor one
    /// trickling bytes can hold a connection thread longer.
    pub read_timeout: Duration,
    /// Poll interval of the progress stream.
    pub stream_interval: Duration,
    /// Max warm-tree sessions a tenant may hold open at once
    /// (admission quota for `POST /sessions`).
    pub session_quota: usize,
    /// The embedded engine's session-table bounds (idle TTL, global
    /// count cap, summed warm-byte cap), applied at startup.
    pub session_limits: SessionLimits,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            engine: EngineConfig::default(),
            tenant_quota: 8,
            max_body_bytes: 1024 * 1024,
            retain_terminal: 256,
            read_timeout: Duration::from_secs(30),
            stream_interval: Duration::from_millis(10),
            session_quota: 4,
            session_limits: SessionLimits::default(),
        }
    }
}

/// Shared state every connection thread sees.
struct ServerCtx {
    engine: Engine,
    directory: JobDirectory,
    config: ServeConfig,
    accepting: AtomicBool,
    metrics: ServeMetrics,
}

/// A running server. Dropping without [`Server::shutdown`] also shuts
/// down (listener closed, engine drained).
pub struct Server {
    ctx: Arc<ServerCtx>,
    addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    conn_threads: Arc<parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Binds, starts the engine, and spawns the accept loop.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let engine = Engine::start(config.engine.clone())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        engine.set_session_limits(config.session_limits.clone());
        let ctx = Arc::new(ServerCtx {
            engine,
            directory: JobDirectory::new(config.retain_terminal),
            config,
            accepting: AtomicBool::new(true),
            metrics: ServeMetrics::new(),
        });
        let conn_threads = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let accept_ctx = ctx.clone();
        let accept_conns = conn_threads.clone();
        // nmcs-lint: allow(spawn-discipline) reason="server edge: the accept loop is not search work and never touches a search RNG"
        let accept_thread = std::thread::Builder::new()
            .name("nmcs-serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_ctx, accept_conns))?;
        Ok(Server {
            ctx,
            addr,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The bound address (resolves port 0 binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains admitted jobs, joins every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.ctx.accepting.store(false, Ordering::Release);
        self.ctx.engine.close();
        // Wake the blocking `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let threads: Vec<_> = self.conn_threads.lock().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Pause of `accept_loop` after a failed `accept`: it starts at the
/// minimum, doubles per consecutive failure up to the maximum, and
/// resets on the next successful accept.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

fn accept_loop(
    listener: TcpListener,
    ctx: Arc<ServerCtx>,
    conn_threads: Arc<parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    let mut backoff = ACCEPT_BACKOFF_MIN;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                backoff = ACCEPT_BACKOFF_MIN;
                stream
            }
            Err(_) => {
                // Errors such as EMFILE do not clear on an immediate
                // retry; back off instead of spinning on them.
                ctx.metrics.accept_error();
                if !ctx.accepting.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                continue;
            }
        };
        if !ctx.accepting.load(Ordering::Acquire) {
            return;
        }
        let conn_ctx = ctx.clone();
        // nmcs-lint: allow(spawn-discipline) reason="server edge: one thread per connection; search work still runs only on engine workers"
        let spawned = std::thread::Builder::new()
            .name("nmcs-serve-conn".to_string())
            .spawn(move || handle_connection(stream, conn_ctx));
        if let Ok(handle) = spawned {
            let mut threads = conn_threads.lock();
            // Reap finished connections so the vec stays bounded over a
            // long soak.
            threads.retain(|t| !t.is_finished());
            threads.push(handle);
        }
    }
}

fn handle_connection(mut stream: TcpStream, ctx: Arc<ServerCtx>) {
    let _ = stream.set_nodelay(true);
    loop {
        let request = match http::read_request(
            &mut stream,
            ctx.config.max_body_bytes,
            ctx.config.read_timeout,
        ) {
            Ok(req) => req,
            Err(HttpError::Eof) | Err(HttpError::Io(_)) => return,
            Err(HttpError::BodyTooLarge) => {
                let resp = json_error(413, "request body too large", None);
                let _ = http::write_response(&mut stream, &resp, false);
                return;
            }
            Err(HttpError::Malformed(msg)) => {
                let resp = json_error(400, msg, None);
                let _ = http::write_response(&mut stream, &resp, false);
                return;
            }
        };
        let keep_alive = request.keep_alive();
        let started = monotonic_now();
        let routed = route(&request, &ctx);
        // For streaming routes this measures routing + setup; the
        // stream's own lifetime is the client's choice, not a latency.
        ctx.metrics
            .record_route(route_label(&request), started.elapsed());
        match routed {
            Routed::Plain(resp) => {
                if http::write_response(&mut stream, &resp, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Routed::StreamProgress(id) => {
                stream_progress(&mut stream, &ctx, id);
                return; // streams always close the connection
            }
        }
    }
}

/// What a route resolved to: an immediate response, or a streaming
/// handoff that owns the connection.
enum Routed {
    Plain(Response),
    StreamProgress(JobId),
}

/// The route template a request resolves to — the label of the edge's
/// per-route latency histogram (a closed static set, so recording
/// never allocates after a route's first sight).
fn route_label(req: &Request) -> &'static str {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => "POST /jobs",
        ("GET", ["jobs", _]) => "GET /jobs/{id}",
        ("DELETE", ["jobs", _]) => "DELETE /jobs/{id}",
        ("POST", ["sessions"]) => "POST /sessions",
        ("GET", ["sessions", _]) => "GET /sessions/{id}",
        ("POST", ["sessions", _, "jobs"]) => "POST /sessions/{id}/jobs",
        ("DELETE", ["sessions", _]) => "DELETE /sessions/{id}",
        ("GET", ["metrics"]) => "GET /metrics",
        ("GET", ["healthz"]) => "GET /healthz",
        _ => "other",
    }
}

fn route(req: &Request, ctx: &ServerCtx) -> Routed {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => Routed::Plain(submit(req, ctx)),
        ("GET", ["jobs", id]) => match id.parse::<JobId>() {
            Err(_) => Routed::Plain(json_error(404, "no such job", None)),
            Ok(id) => {
                if req.query_param("stream") == Some("1") {
                    match ctx.directory.handle(id) {
                        Some(_) => Routed::StreamProgress(id),
                        None => Routed::Plain(json_error(404, "no such job", None)),
                    }
                } else {
                    Routed::Plain(job_status(ctx, id, req.query_param("wait") == Some("1")))
                }
            }
        },
        ("DELETE", ["jobs", id]) => Routed::Plain(match id.parse::<JobId>() {
            Err(_) => json_error(404, "no such job", None),
            Ok(id) => cancel(ctx, id),
        }),
        ("POST", ["sessions"]) => Routed::Plain(open_session(req, ctx)),
        ("GET", ["sessions", id]) => Routed::Plain(match id.parse::<SessionId>() {
            Err(_) => json_error(404, "no such session", None),
            Ok(id) => session_status(ctx, id),
        }),
        ("POST", ["sessions", id, "jobs"]) => Routed::Plain(match id.parse::<SessionId>() {
            Err(_) => json_error(404, "no such session", None),
            Ok(id) => submit_session(ctx, id),
        }),
        ("DELETE", ["sessions", id]) => Routed::Plain(match id.parse::<SessionId>() {
            Err(_) => json_error(404, "no such session", None),
            Ok(id) => close_session(ctx, id),
        }),
        ("GET", ["metrics"]) => Routed::Plain(metrics(ctx, req.query_param("format"))),
        ("GET", ["healthz"]) => Routed::Plain(Response::text(200, "ok\n".to_string())),
        (_, ["jobs", ..]) | (_, ["sessions", ..]) | (_, ["metrics"]) | (_, ["healthz"]) => {
            Routed::Plain(json_error(405, "method not allowed", None))
        }
        _ => Routed::Plain(json_error(404, "no such route", None)),
    }
}

fn submit(req: &Request, ctx: &ServerCtx) -> Response {
    let body = match req.body_str() {
        Ok(b) => b,
        Err(_) => return json_error(400, "body is not UTF-8", None),
    };
    let submit_req: SubmitRequest = match serde_json::from_str(body) {
        Ok(r) => r,
        Err(e) => return json_error(400, &format!("bad submit request: {e}"), None),
    };
    if submit_req.tenant.is_empty() {
        return json_error(400, "tenant must be non-empty", None);
    }
    let priority = match Priority::parse(submit_req.priority.as_deref()) {
        Ok(p) => p,
        Err(e) => return json_error(400, &e, None),
    };
    let job = match wire::build_job(&submit_req) {
        Ok(j) => j,
        Err(e) => return json_error(404, &e, None),
    };

    // Admission: snapshot the gauges, decide, and only then touch the
    // engine. A rejected job is never enqueued.
    let stats = ctx.engine.stats();
    let deadline_ms = job
        .budget
        .deadline
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .or(submit_req.ttl_ms);
    let inputs = AdmissionInputs {
        tenant_inflight: ctx.directory.tenant_inflight(&submit_req.tenant),
        tenant_quota: ctx.config.tenant_quota,
        priority,
        queue_depth: stats.queue_depth,
        queue_capacity: stats.queue_capacity,
        replicas: job.replicas,
        workers: stats.workers,
        queue_wait_p95_ns: ctx.engine.queue_wait_snapshot().p95_ns,
        deadline_ms,
    };
    if let Decision::Reject {
        status,
        reason,
        retry_after_ms,
        kind,
    } = decide(&inputs)
    {
        ctx.metrics.shed(kind);
        return json_error(status, &reason, Some(retry_after_ms));
    }

    let replicas = job.replicas;
    match ctx.engine.try_submit(job) {
        Ok(handle) => {
            let id = handle.id();
            ctx.directory.insert(&submit_req.tenant, handle);
            Response::json(
                202,
                to_json(&wire::accepted_value(id, &submit_req, replicas)),
            )
        }
        Err((SubmitError::QueueFull { .. }, _)) => {
            ctx.metrics.shed("queue-full");
            let retry = admission::predicted_wait_ms(
                stats.queue_depth,
                stats.workers,
                inputs.queue_wait_p95_ns,
            )
            .max(250);
            json_error(503, "submission queue full", Some(retry))
        }
        Err((SubmitError::ShuttingDown, _)) => {
            ctx.metrics.shed("shutting-down");
            json_error(503, "shutting down", None)
        }
    }
}

fn open_session(req: &Request, ctx: &ServerCtx) -> Response {
    let body = match req.body_str() {
        Ok(b) => b,
        Err(_) => return json_error(400, "body is not UTF-8", None),
    };
    let open_req: OpenSessionRequest = match serde_json::from_str(body) {
        Ok(r) => r,
        Err(e) => return json_error(400, &format!("bad session request: {e}"), None),
    };
    if open_req.tenant.is_empty() {
        return json_error(400, "tenant must be non-empty", None);
    }
    let game = match wire::stock_game(&open_req.game, open_req.spec.seed) {
        Ok(g) => g,
        Err(e) => return json_error(404, &e, None),
    };
    let inputs = SessionAdmissionInputs {
        tenant_sessions: ctx.engine.tenant_sessions(&open_req.tenant),
        session_quota: ctx.config.session_quota,
    };
    if let Decision::Reject {
        status,
        reason,
        retry_after_ms,
        kind,
    } = decide_open_session(&inputs)
    {
        ctx.metrics.shed(kind);
        return json_error(status, &reason, Some(retry_after_ms));
    }
    match ctx
        .engine
        .open_session_dyn(&open_req.tenant, game, open_req.spec, None)
    {
        Ok(id) => match ctx.engine.session_info(id) {
            Some(info) => Response::json(201, to_json(&wire::session_value(&info))),
            // Swept between open and poll — only possible with a zero
            // TTL; report it as the capacity condition it is.
            None => json_error(429, "session table at capacity", Some(1000)),
        },
        Err(e @ SessionError::AtCapacity { .. }) => {
            ctx.metrics.shed("session-capacity");
            json_error(429, &e.to_string(), Some(1000))
        }
        Err(e) => json_error(503, &e.to_string(), None),
    }
}

fn session_status(ctx: &ServerCtx, id: SessionId) -> Response {
    match ctx.engine.session_info(id) {
        Some(info) => Response::json(200, to_json(&wire::session_value(&info))),
        None => json_error(404, "no such session", None),
    }
}

/// Submits one step of a session as an engine job. No job admission
/// runs here: steps are strictly serial per session (a concurrent
/// submit is a 409), so the open-session quota already bounds a
/// tenant's step concurrency.
fn submit_session(ctx: &ServerCtx, id: SessionId) -> Response {
    let Some(info) = ctx.engine.session_info(id) else {
        return json_error(404, "no such session", None);
    };
    match ctx.engine.submit_session(id) {
        Ok(handle) => {
            let job = handle.id();
            ctx.directory.insert(&info.tenant, handle);
            Response::json(
                202,
                to_json(&wire::session_job_accepted_value(job, id, &info.tenant)),
            )
        }
        Err(SessionError::NoSuchSession(_)) => json_error(404, "no such session", None),
        Err(e @ SessionError::StepInFlight(_)) => json_error(409, &e.to_string(), None),
        Err(e @ SessionError::AtCapacity { .. }) => json_error(429, &e.to_string(), Some(1000)),
        Err(SessionError::Submit(SubmitError::QueueFull { .. })) => {
            ctx.metrics.shed("queue-full");
            json_error(503, "submission queue full", Some(250))
        }
        Err(SessionError::Submit(SubmitError::ShuttingDown)) => {
            ctx.metrics.shed("shutting-down");
            json_error(503, "shutting down", None)
        }
    }
}

fn close_session(ctx: &ServerCtx, id: SessionId) -> Response {
    if ctx.engine.close_session(id) {
        Response::json(
            200,
            to_json(&Value::Object(vec![
                ("session".to_string(), Value::U64(id)),
                ("closed".to_string(), Value::Bool(true)),
            ])),
        )
    } else {
        json_error(404, "no such session", None)
    }
}

fn job_status(ctx: &ServerCtx, id: JobId, wait: bool) -> Response {
    let Some(handle) = ctx.directory.handle(id) else {
        return json_error(404, "no such job", None);
    };
    if wait {
        let output = handle.wait();
        return Response::json(200, to_json(&wire::output_value(&output)));
    }
    let progress = handle.poll_progress();
    let mut value = wire::progress_value(&progress);
    if let Some(output) = handle.try_output() {
        if let Value::Object(fields) = &mut value {
            fields.push(("output".to_string(), wire::output_value(&output)));
        }
    }
    Response::json(200, to_json(&value))
}

fn cancel(ctx: &ServerCtx, id: JobId) -> Response {
    match ctx.directory.handle(id) {
        None => json_error(404, "no such job", None),
        Some(handle) => {
            handle.cancel();
            let progress = handle.poll_progress();
            Response::json(
                200,
                to_json(&Value::Object(vec![
                    ("job".to_string(), Value::U64(id)),
                    ("cancelled".to_string(), Value::Bool(true)),
                    (
                        "state".to_string(),
                        Value::Str(wire::state_str(progress.state).to_string()),
                    ),
                ])),
            )
        }
    }
}

fn metrics(ctx: &ServerCtx, format: Option<&str>) -> Response {
    let snapshot = ctx.engine.inspector();
    match format {
        Some("json") => match serde_json::to_string(&snapshot) {
            Ok(json) => Response::json(200, json),
            Err(e) => json_error(500, &format!("snapshot serialisation failed: {e}"), None),
        },
        _ => {
            // Engine/core sections first, then the serve edge's own
            // per-route histograms and shed counters (same line
            // grammar; the JSON format stays the inspector snapshot
            // verbatim, which is what round-trips byte-identically).
            let mut text = snapshot.render_text();
            ctx.metrics.render_into(&mut text);
            Response::text(200, text)
        }
    }
}

fn stream_progress(stream: &mut TcpStream, ctx: &ServerCtx, id: JobId) {
    let Some(handle) = ctx.directory.handle(id) else {
        return;
    };
    if http::start_chunked(stream, "application/x-ndjson").is_err() {
        return;
    }
    loop {
        let progress = handle.poll_progress();
        let mut line = to_json(&wire::progress_value(&progress));
        line.push('\n');
        if http::write_chunk(stream, line.as_bytes()).is_err() {
            return; // client went away
        }
        if progress.state.is_terminal() {
            break;
        }
        std::thread::sleep(ctx.config.stream_interval);
    }
    let output = handle.wait();
    let mut line = to_json(&wire::output_value(&output));
    line.push('\n');
    let _ = http::write_chunk(stream, line.as_bytes());
    let _ = http::finish_chunks(stream);
    let _ = stream.flush();
}

fn json_error(status: u16, message: &str, retry_after_ms: Option<u64>) -> Response {
    let resp = Response::json(status, to_json(&wire::error_value(message, retry_after_ms)));
    match retry_after_ms {
        Some(ms) => resp.with_retry_after(ms.div_ceil(1000).max(1)),
        None => resp,
    }
}
