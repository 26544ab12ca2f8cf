//! The optimization daemon: accept loop, bounded job queue, worker pool,
//! single-flight coalescing and budget batching.
//!
//! # Anatomy of a request
//!
//! ```text
//! client ──frame──▶ connection thread ──job──▶ bounded queue ──▶ worker pool
//!                        │                                         │
//!                        ◀──────────── response channel ◀──────────┘
//! ```
//!
//! * One **connection thread** per client parses frames, answers `ping`
//!   and `stats` inline, and turns `optimize` requests into jobs. The
//!   queue is **bounded**: when it is full the client gets a structured
//!   `queue-full` error instead of unbounded memory growth.
//! * **Workers** (`--workers N`) pop jobs. A worker that pops a job also
//!   **drains a batch**: it takes along every queued job with the same
//!   saturation budget (up to a cap), so one queue interaction feeds a
//!   run of requests that exercise the same configuration — duplicates
//!   inside the batch collapse onto the cache/single-flight layer
//!   without ever waking another worker.
//! * **Single-flight**: identical in-flight fingerprints share one
//!   computation. The first job becomes the *leader* and computes; the
//!   rest wait on the leader's result and respond `"cache":"coalesced"`.
//!   If a leader dies, waiters fall back to computing themselves.
//! * Every worker shares one [`SaturationCache`] through
//!   [`Liar::with_cache`], so repeat fingerprints replay bit-identically
//!   (`"cache":"hit"`).
//!
//! The daemon trusts its network: it is an **unauthenticated loopback
//! service** (bind it to `127.0.0.1`), with robustness against malformed
//! and oversized frames but no authentication or TLS.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use liar_core::store::stop_reason_from_name;
use liar_core::{
    Fingerprint, InspectReport, Liar, MachineProfile, MultiReport, OptimizeError, SaturationCache,
    SnapshotStore, Target,
};
use liar_ir::{ArrayAnalysis, ArrayEGraph, Expr, StableHasher};
use liar_trace::{prom::PromWriter, FlightRecorder, Histogram, Recorder, TraceSink};

use crate::protocol::{
    self, read_frame, target_from_wire, write_frame, ErrorCode, FrameError, IntrospectResponse,
    MetricsResponse, OptimizeRequest, OptimizeResponse, ProofMsg, Request, Response,
    RestoreRequest, RestoreResponse, SnapshotRequest, SnapshotResponse, SolutionMsg, StatsResponse,
};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:4004` (port 0 picks a free one).
    pub addr: String,
    /// Worker threads executing optimizations.
    pub workers: usize,
    /// Bounded job-queue capacity; beyond it clients get `queue-full`.
    pub queue_cap: usize,
    /// Byte budget of the shared saturation cache.
    pub cache_bytes: usize,
    /// Maximum frame payload size accepted.
    pub max_frame: usize,
    /// Default saturation-step limit when a request names none.
    pub default_steps: usize,
    /// Ceiling on a request's `steps` (`budget-too-large` beyond it).
    pub max_steps: usize,
    /// Default e-node budget when a request names none.
    pub default_node_limit: usize,
    /// Ceiling on a request's `node_limit`.
    pub max_node_limit: usize,
    /// Ceiling on a request's `discount_scales` length (each scale is a
    /// full per-target extraction, so this is a budget knob too).
    pub max_discount_scales: usize,
    /// Most jobs one worker drains per queue interaction.
    pub batch_max: usize,
    /// Directory of the durable snapshot store (`liar serve --warm`).
    /// When set, every cold saturation persists its e-graph there, a
    /// restart answers repeat fingerprints by restore + extraction
    /// (zero saturation steps), and the `snapshot` / `restore` protocol
    /// ops ship e-graphs between nodes. `None` disables durability.
    pub warm_dir: Option<std::path::PathBuf>,
    /// Directory for Chrome trace-event exports (`liar serve
    /// --trace-dir`). When set, the daemon records per-request phase
    /// spans (queue wait, single-flight coalescing, saturation,
    /// extraction, reply serialization — each request's lane carries its
    /// trace id) and writes `serve-trace.json` there at shutdown; load it
    /// in `chrome://tracing` or Perfetto. `None` (the default) disables
    /// span recording entirely — the metrics histograms stay on either
    /// way, they are plain atomic counters.
    pub trace_dir: Option<std::path::PathBuf>,
    /// Live introspection (`introspect` op, `liar stats --inspect`):
    /// when on (the default), every job's pipeline runs with growth
    /// attribution and a flight recorder, and the daemon retains the
    /// most recent cold saturation's tables. Attribution is strictly
    /// observational (answers are bit-identical either way); turn it off
    /// to shave the ledger's bookkeeping from hot saturations.
    pub introspect: bool,
    /// Flight-recorder ring capacity (events retained for the
    /// `introspect` op's tail).
    pub flight_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 64,
            cache_bytes: 64 << 20,
            max_frame: protocol::DEFAULT_MAX_FRAME,
            default_steps: 8,
            max_steps: 24,
            default_node_limit: 300_000,
            max_node_limit: 1_000_000,
            max_discount_scales: 8,
            batch_max: 8,
            warm_dir: None,
            trace_dir: None,
            introspect: true,
            flight_capacity: 256,
        }
    }
}

/// A validated optimize job, ready for a worker.
struct Job {
    id: Option<String>,
    expr: Expr,
    targets: Vec<Target>,
    discount_scales: Vec<f64>,
    pipeline: Liar,
    fingerprint: Fingerprint,
    /// Hash of the budget knobs alone — the batching key.
    budget_key: u64,
    received: Instant,
    reply: mpsc::Sender<Response>,
}

/// Result a single-flight leader publishes for its waiters.
enum FlightState {
    Running,
    Done(Arc<MultiReport>),
    /// The leader disappeared without publishing (panic); waiters must
    /// compute for themselves.
    Abandoned,
}

struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

/// Drop guard for a single-flight leader. On drop it always removes the
/// in-flight map entry (so the fingerprint can fly again), and if the
/// leader unwound before publishing it marks the flight abandoned so
/// waiters do not hang. Without the unconditional removal, a panicking
/// leader would leave a dead `Abandoned` flight in the map forever,
/// permanently disabling coalescing for that fingerprint.
struct FlightGuard<'a> {
    flight: Arc<Flight>,
    shared: &'a Shared,
    fp: u128,
    published: bool,
}

impl FlightGuard<'_> {
    fn publish(&mut self, report: Arc<MultiReport>) {
        *self.flight.state.lock().unwrap() = FlightState::Done(report);
        self.flight.cv.notify_all();
        self.published = true;
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            *self.flight.state.lock().unwrap() = FlightState::Abandoned;
            self.flight.cv.notify_all();
        }
        self.shared.inflight.lock().unwrap().remove(&self.fp);
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    errors: AtomicU64,
    coalesced: AtomicU64,
    batched: AtomicU64,
}

/// Always-on request metrics (plain atomics — no recorder required):
/// latency distributions for the percentile gauges and the Prometheus
/// scrape, plus per-phase time totals.
struct Metrics {
    /// End-to-end optimize latency (frame received → reply handed to the
    /// connection thread), milliseconds.
    latency_ms: Histogram,
    /// Time jobs spent queued before a worker picked them up, ms.
    queue_wait_ms: Histogram,
    /// Total queue wait across all jobs, microseconds.
    queue_wait_us: AtomicU64,
    /// Total time inside the optimization pipeline (saturation + cache +
    /// extraction), microseconds.
    optimize_us: AtomicU64,
    /// Total time serializing replies, microseconds.
    serialize_us: AtomicU64,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            latency_ms: Histogram::latency_ms(),
            queue_wait_ms: Histogram::latency_ms(),
            queue_wait_us: AtomicU64::new(0),
            optimize_us: AtomicU64::new(0),
            serialize_us: AtomicU64::new(0),
        }
    }
}

struct Shared {
    config: ServerConfig,
    cache: Arc<SaturationCache>,
    /// The durable snapshot store, when `config.warm_dir` names one.
    store: Option<Arc<SnapshotStore>>,
    queue: Mutex<Vec<Job>>,
    queue_cv: Condvar,
    inflight: Mutex<HashMap<u128, Arc<Flight>>>,
    stopping: AtomicBool,
    counters: Counters,
    metrics: Metrics,
    /// Span recorder behind `config.trace_dir` — disabled (an atomic
    /// load and a branch per call site) when no trace directory is set.
    recorder: Arc<Recorder>,
    /// When the daemon started (the `liar_uptime_seconds` gauge).
    start: Instant,
    /// The always-on event ring the `introspect` op serves its tail
    /// from. Pipelines record cache hits/misses and snapshot restores
    /// into it; runners record rule firings, bans and budget
    /// truncations (only when `config.introspect` attaches it).
    flight: Arc<FlightRecorder>,
    /// Growth tables of the most recent *cold* saturation (`None` until
    /// one runs, or always with `config.introspect` off).
    inspect: Mutex<Option<InspectReport>>,
}

impl Shared {
    fn stats(&self) -> StatsResponse {
        let cache = self.cache.stats();
        let latency = self.metrics.latency_ms.snapshot();
        StatsResponse {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_insertions: cache.insertions,
            cache_evictions: cache.evictions,
            cache_rejected: cache.rejected,
            cache_entries: cache.entries,
            cache_bytes: cache.bytes,
            requests: self.counters.requests.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            batched: self.counters.batched.load(Ordering::Relaxed),
            queue_depth: self.queue.lock().unwrap().len(),
            inflight: self.inflight.lock().unwrap().len(),
            latency_p50_ms: latency.quantile(0.50),
            latency_p95_ms: latency.quantile(0.95),
            latency_p99_ms: latency.quantile(0.99),
        }
    }

    /// Render every counter, gauge and histogram as Prometheus text
    /// exposition format (the `metrics` op; `liar stats --prometheus`).
    fn prometheus(&self) -> String {
        let s = self.stats();
        let us_to_s = |us: &AtomicU64| us.load(Ordering::Relaxed) as f64 / 1e6;
        let mut w = PromWriter::new();
        w.labeled_gauge(
            "liar_build_info",
            "Build metadata; the gauge is always 1",
            &[("version", env!("CARGO_PKG_VERSION"))],
            1.0,
        );
        w.gauge("liar_uptime_seconds", "Seconds since the daemon started", self.start.elapsed().as_secs_f64());
        w.counter("liar_requests_total", "Optimize requests accepted into the job queue", s.requests as f64);
        w.counter("liar_errors_total", "Error responses sent", s.errors as f64);
        w.counter("liar_coalesced_total", "Requests coalesced onto an identical in-flight computation", s.coalesced as f64);
        w.counter("liar_batched_total", "Jobs drained alongside a same-budget batch leader", s.batched as f64);
        w.counter("liar_cache_hits_total", "Saturation cache hits", s.cache_hits as f64);
        w.counter("liar_cache_misses_total", "Saturation cache misses", s.cache_misses as f64);
        w.counter("liar_cache_insertions_total", "Saturation cache insertions", s.cache_insertions as f64);
        w.counter("liar_cache_evictions_total", "Saturation cache evictions by the byte budget", s.cache_evictions as f64);
        w.counter("liar_cache_rejected_total", "Reports refused as larger than a cache shard", s.cache_rejected as f64);
        w.gauge("liar_cache_entries", "Live saturation cache entries", s.cache_entries as f64);
        w.gauge("liar_cache_bytes", "Estimated live saturation cache bytes", s.cache_bytes as f64);
        w.gauge("liar_queue_depth", "Jobs waiting in the bounded queue", s.queue_depth as f64);
        w.gauge("liar_inflight", "Single-flight computations running now", s.inflight as f64);
        w.counter("liar_phase_queue_wait_seconds_total", "Total time jobs waited in the queue", us_to_s(&self.metrics.queue_wait_us));
        w.counter("liar_phase_optimize_seconds_total", "Total time inside the optimization pipeline", us_to_s(&self.metrics.optimize_us));
        w.counter("liar_phase_serialize_seconds_total", "Total time serializing replies", us_to_s(&self.metrics.serialize_us));
        w.counter("liar_flight_events_total", "Flight-recorder events recorded since start", self.flight.total_recorded() as f64);
        w.counter("liar_flight_dropped_total", "Flight-recorder events evicted from the ring", self.flight.dropped() as f64);
        w.histogram("liar_request_latency_ms", "End-to-end optimize request latency, milliseconds", &self.metrics.latency_ms.snapshot());
        w.histogram("liar_queue_wait_ms", "Queue wait before a worker picked the job up, milliseconds", &self.metrics.queue_wait_ms.snapshot());
        w.finish()
    }

    fn begin_shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`Server::shutdown`] (or send the `shutdown` op).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    connections: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind `config.addr` and start the accept loop and worker pool.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let cache = Arc::new(SaturationCache::new(config.cache_bytes));
        let store = match &config.warm_dir {
            Some(dir) => Some(Arc::new(SnapshotStore::open(dir)?)),
            None => None,
        };
        let recorder = if config.trace_dir.is_some() {
            Recorder::new()
        } else {
            Recorder::off()
        };
        let shared = Arc::new(Shared {
            cache,
            store,
            queue: Mutex::new(Vec::new()),
            queue_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            stopping: AtomicBool::new(false),
            counters: Counters::default(),
            metrics: Metrics::new(),
            recorder,
            start: Instant::now(),
            flight: Arc::new(FlightRecorder::new(config.flight_capacity)),
            inspect: Mutex::new(None),
            config,
        });

        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("liar-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker")
            })
            .collect();

        let connections = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("liar-accept".to_string())
                .spawn(move || accept_loop(listener, &shared, &connections))
                .expect("spawn accept loop")
        };

        Ok(Server {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            workers,
            connections,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the service + cache counters.
    pub fn stats(&self) -> StatsResponse {
        self.shared.stats()
    }

    /// The durable snapshot store, when the server was started with
    /// [`ServerConfig::warm_dir`].
    pub fn snapshot_store(&self) -> Option<&Arc<SnapshotStore>> {
        self.shared.store.as_ref()
    }

    /// Pre-saturate the PolyBench kernel corpus into the warm store, so
    /// the first client asking for any of them is answered by restore +
    /// extraction alone (`"cache":"warm"`, zero saturation steps).
    ///
    /// Each kernel runs through **exactly** the pipeline a defaulted
    /// `optimize` request would get (all targets, scale `1.0`, the
    /// identity profile, the server's default budgets), so the stored
    /// fingerprints match later client requests. A kernel already in the
    /// store restores instead of re-saturating, making repeat boots
    /// cheap.
    ///
    /// Returns `(saturated, warm)`: kernels computed cold vs answered
    /// from the store (or the in-memory cache). No-op without a store.
    pub fn prewarm_kernels(&self) -> (usize, usize) {
        if self.shared.store.is_none() {
            return (0, 0);
        }
        let cfg = &self.shared.config;
        let targets: Vec<Target> = Target::ALL.to_vec();
        let (mut saturated, mut warm) = (0, 0);
        for kernel in liar_kernels::Kernel::ALL {
            let expr = kernel.expr(kernel.search_size());
            let pipeline = job_pipeline(
                &self.shared,
                targets[0],
                cfg.default_steps,
                cfg.default_node_limit,
                false,
                vec![MachineProfile::default()],
            );
            match pipeline.optimize_multi_status(&expr, &targets, &[1.0]) {
                Ok((_, status)) if status.name() == "warm" || status.name() == "hit" => warm += 1,
                Ok(_) => saturated += 1,
                // Unextractable kernels (none today) just don't prewarm.
                Err(_) => {}
            }
        }
        (saturated, warm)
    }

    /// Whether a shutdown has been requested (via [`Server::shutdown`] or
    /// the `shutdown` op).
    pub fn stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::SeqCst)
    }

    /// Block until a shutdown is requested (the daemon main loop). Polls
    /// at the connection threads' cadence; follow with
    /// [`Server::shutdown`] to drain and join.
    pub fn wait(&self) {
        while !self.stopping() {
            std::thread::sleep(READ_POLL);
        }
    }

    /// Stop accepting, drain queued jobs, and join every thread.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        // Unblock `accept` by poking the listener.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let conns = std::mem::take(&mut *self.connections.lock().unwrap());
        for c in conns {
            let _ = c.join();
        }
        // Every thread has flushed its sinks; dump the Chrome trace.
        if let Some(dir) = &self.shared.config.trace_dir {
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(
                dir.join("serve-trace.json"),
                self.shared.recorder.chrome_trace_json(),
            );
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("liar-conn".to_string())
            .spawn(move || connection_loop(stream, &shared))
            .expect("spawn connection thread");
        let mut conns = connections.lock().unwrap();
        // Reap finished connection threads so a long-lived daemon serving
        // many short-lived connections does not accumulate handles.
        let mut i = 0;
        while i < conns.len() {
            if conns[i].is_finished() {
                let _ = conns.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        conns.push(handle);
    }
}

/// Poll interval connection threads use so they notice shutdown even
/// while blocked on an idle socket.
const READ_POLL: Duration = Duration::from_millis(200);

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = BufWriter::new(stream);
    let max_frame = shared.config.max_frame;

    loop {
        let payload = match read_frame(&mut reader, max_frame) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean EOF
            // Idle = timeout at a frame boundary, nothing consumed: the
            // read-timeout is our shutdown poll cadence. (Timeouts *inside*
            // a frame are retried by read_frame itself, so a slow client
            // cannot desynchronize the stream.)
            Err(FrameError::Idle) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(FrameError::Io(_)) => return,
            Err(FrameError::TooLarge { len, max, recovered }) => {
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    id: None,
                    code: ErrorCode::FrameTooLarge,
                    message: format!("frame of {len} bytes exceeds the {max}-byte limit"),
                };
                let _ = write_frame(&mut writer, &resp.to_payload());
                if recovered {
                    continue; // stream is still frame-aligned
                }
                return;
            }
            Err(FrameError::BadHeader(h)) => {
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    id: None,
                    code: ErrorCode::BadFrame,
                    message: format!("malformed frame header {h:?}"),
                };
                let _ = write_frame(&mut writer, &resp.to_payload());
                return; // unrecoverable: close
            }
        };

        let response = handle_payload(&payload, shared);
        let is_shutdown = matches!(response, Response::ShuttingDown);
        if matches!(response, Response::Error { .. }) {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        if write_frame(&mut writer, &response.to_payload()).is_err() {
            return;
        }
        if is_shutdown {
            shared.begin_shutdown();
            return;
        }
    }
}

/// Parse, validate, enqueue and await one request payload.
fn handle_payload(payload: &[u8], shared: &Arc<Shared>) -> Response {
    let request = match Request::from_payload(payload) {
        Ok(r) => r,
        Err((code, message)) => {
            return Response::Error {
                id: None,
                code,
                message,
            }
        }
    };
    match request {
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(shared.stats()),
        Request::Metrics => Response::Metrics(MetricsResponse {
            prometheus: shared.prometheus(),
        }),
        // Introspection reads already-folded state (one mutex clone + a
        // ring tail), so it is answered inline like `stats`.
        Request::Introspect { tail } => Response::Introspect(IntrospectResponse {
            report: shared.inspect.lock().unwrap().clone(),
            flight: shared.flight.tail(tail),
            flight_dropped: shared.flight.dropped(),
            flight_total: shared.flight.total_recorded(),
        }),
        Request::Shutdown => Response::ShuttingDown,
        // Snapshot traffic is I/O-bound (disk + wire, no saturation), so
        // it is answered inline on the connection thread rather than
        // competing with optimizations for workers.
        Request::Snapshot(req) => handle_snapshot(req, shared),
        Request::Restore(req) => handle_restore(req, shared),
        Request::Optimize(req) => {
            if shared.stopping.load(Ordering::SeqCst) {
                return Response::Error {
                    id: req.id,
                    code: ErrorCode::ShuttingDown,
                    message: "server is shutting down".to_string(),
                };
            }
            let (job, rx) = match make_job(req, shared) {
                Ok(pair) => pair,
                Err(resp) => return *resp,
            };
            {
                let mut queue = shared.queue.lock().unwrap();
                // Re-check under the queue lock: workers only exit after
                // observing (stopping && queue empty) under this same
                // lock, so a push that wins the lock with stopping still
                // false is guaranteed to be drained. Without this check a
                // job pushed after the workers exited would strand its
                // reply channel and hang the connection thread.
                if shared.stopping.load(Ordering::SeqCst) {
                    return Response::Error {
                        id: job.id,
                        code: ErrorCode::ShuttingDown,
                        message: "server is shutting down".to_string(),
                    };
                }
                if queue.len() >= shared.config.queue_cap {
                    return Response::Error {
                        id: job.id,
                        code: ErrorCode::QueueFull,
                        message: format!(
                            "job queue is at capacity ({}); retry later",
                            shared.config.queue_cap
                        ),
                    };
                }
                queue.push(job);
                // Counted only once actually accepted into the queue —
                // rejected submissions show up in `errors`, not here.
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                shared.queue_cv.notify_one();
            }
            match rx.recv() {
                Ok(resp) => resp,
                Err(_) => Response::Error {
                    id: None,
                    code: ErrorCode::ShuttingDown,
                    message: "worker pool exited before the job completed".to_string(),
                },
            }
        }
    }
}

/// Parse a request fingerprint: up to 32 hex digits (the canonical form
/// [`Fingerprint`]'s `Display` emits).
fn parse_fingerprint(s: &str) -> Option<Fingerprint> {
    if s.is_empty() || s.len() > 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u128::from_str_radix(s, 16).ok().map(Fingerprint)
}

/// Serve a `snapshot` op: read the stored e-graph for a fingerprint and
/// ship it hex-encoded.
fn handle_snapshot(req: SnapshotRequest, shared: &Arc<Shared>) -> Response {
    let Some(store) = &shared.store else {
        return Response::Error {
            id: req.id,
            code: ErrorCode::NoStore,
            message: "no snapshot store attached (start the server with a warm directory)".into(),
        };
    };
    let Some(fp) = parse_fingerprint(&req.fingerprint) else {
        return Response::Error {
            id: req.id,
            code: ErrorCode::BadRequest,
            message: format!(
                "\"fingerprint\" must be 1–32 hex digits, got {:?}",
                req.fingerprint
            ),
        };
    };
    match store.load(fp) {
        Some((stop_reason, bytes)) => Response::Snapshot(SnapshotResponse {
            id: req.id,
            fingerprint: fp.to_string(),
            stop_reason: stop_reason.to_string(),
            snapshot_hex: protocol::to_hex(&bytes),
        }),
        None => Response::Error {
            id: req.id,
            code: ErrorCode::UnknownSnapshot,
            message: format!("no snapshot stored under fingerprint {fp}"),
        },
    }
}

/// Serve a `restore` op: decode, **validate by actually restoring**, and
/// persist a shipped snapshot. A snapshot that does not restore to a
/// live e-graph never touches the store.
fn handle_restore(req: RestoreRequest, shared: &Arc<Shared>) -> Response {
    let err = |id: Option<String>, code, message: String| Response::Error { id, code, message };
    let Some(store) = &shared.store else {
        return err(
            req.id,
            ErrorCode::NoStore,
            "no snapshot store attached (start the server with a warm directory)".into(),
        );
    };
    let Some(fp) = parse_fingerprint(&req.fingerprint) else {
        return err(
            req.id,
            ErrorCode::BadRequest,
            format!("\"fingerprint\" must be 1–32 hex digits, got {:?}", req.fingerprint),
        );
    };
    let Some(stop_reason) = stop_reason_from_name(&req.stop_reason) else {
        return err(
            req.id,
            ErrorCode::BadSnapshot,
            format!("unknown stop reason {:?}", req.stop_reason),
        );
    };
    let Some(bytes) = protocol::from_hex(&req.snapshot_hex) else {
        return err(
            req.id,
            ErrorCode::BadSnapshot,
            "\"snapshot_hex\" is not valid hex".into(),
        );
    };
    let graph = match ArrayEGraph::restore(ArrayAnalysis::default(), &bytes) {
        Ok(g) => g,
        Err(e) => return err(req.id, ErrorCode::BadSnapshot, e.to_string()),
    };
    if let Err(e) = store.save(fp, &stop_reason, &bytes) {
        return err(
            req.id,
            ErrorCode::StoreFailed,
            format!("failed to persist the snapshot: {e}"),
        );
    }
    Response::Restored(RestoreResponse {
        id: req.id,
        fingerprint: fp.to_string(),
        n_nodes: graph.num_nodes(),
        n_classes: graph.num_classes(),
    })
}

/// The pipeline a validated job runs. `prewarm_kernels` builds pipelines
/// through this same function, so boot-time snapshots land under the
/// fingerprints later client requests compute.
fn job_pipeline(
    shared: &Arc<Shared>,
    lead_target: Target,
    steps: usize,
    node_limit: usize,
    explain: bool,
    profiles: Vec<MachineProfile>,
) -> Liar {
    let mut pipeline = Liar::new(lead_target)
        .with_iter_limit(steps)
        .with_node_limit(node_limit)
        .with_explanations(explain)
        .with_profiles(profiles)
        .with_cache(Arc::clone(&shared.cache));
    if let Some(store) = &shared.store {
        pipeline = pipeline.with_snapshot_store(Arc::clone(store));
    }
    if shared.recorder.is_enabled() {
        // Saturation/extraction spans land in the same trace as the
        // serve-layer request spans.
        pipeline = pipeline.with_trace(Arc::clone(&shared.recorder));
    }
    if shared.config.introspect {
        pipeline = pipeline
            .with_attribution(true)
            .with_flight(Arc::clone(&shared.flight));
    }
    pipeline
}

/// Validate an optimize request into a runnable job.
fn make_job(
    req: OptimizeRequest,
    shared: &Arc<Shared>,
) -> Result<(Job, mpsc::Receiver<Response>), Box<Response>> {
    let cfg = &shared.config;
    let err = |code, message: String| {
        Box::new(Response::Error {
            id: req.id.clone(),
            code,
            message,
        })
    };

    let expr: Expr = match req.program.parse() {
        Ok(e) => e,
        Err(e) => return Err(err(ErrorCode::ParseError, e.to_string())),
    };
    let mut targets = Vec::new();
    if req.targets.is_empty() {
        targets.extend(Target::ALL);
    } else {
        for name in &req.targets {
            match target_from_wire(name) {
                // Dedupe, preserving first-occurrence order.
                Some(t) if !targets.contains(&t) => targets.push(t),
                Some(_) => {}
                None => {
                    return Err(err(
                        ErrorCode::UnknownTarget,
                        format!("unknown target {name:?} (expected blas | pytorch | pure-c)"),
                    ))
                }
            }
        }
    }
    let discount_scales = if req.discount_scales.is_empty() {
        vec![1.0]
    } else {
        if req.discount_scales.len() > cfg.max_discount_scales {
            return Err(err(
                ErrorCode::BudgetTooLarge,
                format!(
                    "{} discount scales exceeds the server cap {} (each scale is a full \
                     per-target extraction)",
                    req.discount_scales.len(),
                    cfg.max_discount_scales
                ),
            ));
        }
        req.discount_scales.clone()
    };
    let mut profiles = Vec::new();
    if req.profiles.is_empty() {
        profiles.push(MachineProfile::default());
    } else {
        // Each profile is a full per-target extraction, exactly like a
        // discount scale — the same budget cap applies.
        if req.profiles.len() > cfg.max_discount_scales {
            return Err(err(
                ErrorCode::BudgetTooLarge,
                format!(
                    "{} machine profiles exceeds the server cap {} (each profile is a full \
                     per-target extraction)",
                    req.profiles.len(),
                    cfg.max_discount_scales
                ),
            ));
        }
        for name in &req.profiles {
            match MachineProfile::by_name(name) {
                // Dedupe, preserving first-occurrence order.
                Some(p) if !profiles.contains(&p) => profiles.push(p),
                Some(_) => {}
                None => {
                    return Err(err(
                        ErrorCode::UnknownProfile,
                        format!(
                            "unknown machine profile {name:?} (expected one of {:?})",
                            MachineProfile::ALL_NAMES
                        ),
                    ))
                }
            }
        }
    }
    let steps = req.steps.unwrap_or(cfg.default_steps);
    if steps > cfg.max_steps {
        return Err(err(
            ErrorCode::BudgetTooLarge,
            format!("steps {} exceeds the server cap {}", steps, cfg.max_steps),
        ));
    }
    let node_limit = req.node_limit.unwrap_or(cfg.default_node_limit);
    if node_limit > cfg.max_node_limit {
        return Err(err(
            ErrorCode::BudgetTooLarge,
            format!(
                "node_limit {} exceeds the server cap {}",
                node_limit, cfg.max_node_limit
            ),
        ));
    }

    let pipeline = job_pipeline(shared, targets[0], steps, node_limit, req.explain, profiles);
    let fingerprint = pipeline.request_fingerprint(&expr, &targets, &discount_scales);
    let budget_key = {
        let knobs = pipeline.budget_knobs();
        let mut h = StableHasher::new();
        h.u64(knobs.iter_limit as u64);
        h.u64(knobs.node_limit as u64);
        h.u64(knobs.match_limit as u64);
        // Explained saturations pay provenance bookkeeping — a different
        // cost profile, so they batch with their own kind.
        h.u64(knobs.explain as u64);
        h.finish() as u64
    };

    let (tx, rx) = mpsc::channel();
    Ok((
        Job {
            id: req.id,
            expr,
            targets,
            discount_scales,
            pipeline,
            fingerprint,
            budget_key,
            received: Instant::now(),
            reply: tx,
        },
        rx,
    ))
}

fn worker_loop(shared: &Arc<Shared>, index: usize) {
    let mut sink = TraceSink::attached(&shared.recorder, &format!("worker-{index}"));
    loop {
        let batch = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if !queue.is_empty() {
                    break;
                }
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.queue_cv.wait(queue).unwrap();
            }
            // Pop the oldest job, then drain every queued job that shares
            // its saturation budget (up to batch_max) — one queue
            // interaction feeds a whole run of same-configuration work.
            let leader = queue.remove(0);
            let mut batch = vec![leader];
            let mut i = 0;
            while i < queue.len() && batch.len() < shared.config.batch_max {
                if queue[i].budget_key == batch[0].budget_key {
                    batch.push(queue.remove(i));
                } else {
                    i += 1;
                }
            }
            if batch.len() > 1 {
                shared
                    .counters
                    .batched
                    .fetch_add(batch.len() as u64 - 1, Ordering::Relaxed);
            }
            batch
        };
        for job in batch {
            process_job(job, shared, &mut sink);
        }
        // Make this round's spans visible to concurrent `metrics`
        // scrapers and the shutdown dump.
        sink.flush();
    }
}

/// Execute one job through the cache + single-flight layers and reply.
///
/// The request's trace id (its protocol `id`, falling back to the
/// fingerprint) names the `request/<id>` span; `optimize` /
/// `coalesce/wait` / `serialize` child spans carry the phase breakdown,
/// and queue wait rides along as a span argument (it elapsed before the
/// worker existed, so it cannot be its own span here).
fn process_job(job: Job, shared: &Arc<Shared>, sink: &mut TraceSink) {
    let fp = job.fingerprint;
    let queue_wait = job.received.elapsed();
    shared
        .metrics
        .queue_wait_ms
        .observe(queue_wait.as_secs_f64() * 1e3);
    shared
        .metrics
        .queue_wait_us
        .fetch_add(queue_wait.as_micros() as u64, Ordering::Relaxed);
    let req_span = match &job.id {
        Some(id) => sink.begin_args(format_args!("request/{id}")),
        None => sink.begin_args(format_args!("request/{fp}")),
    };
    // Single-flight: join an identical in-flight computation if one
    // exists, otherwise become the leader.
    let (flight, leader) = {
        let mut inflight = shared.inflight.lock().unwrap();
        match inflight.get(&fp.0) {
            Some(flight) => (Arc::clone(flight), false),
            None => {
                let flight = Arc::new(Flight {
                    state: Mutex::new(FlightState::Running),
                    cv: Condvar::new(),
                });
                inflight.insert(fp.0, Arc::clone(&flight));
                (flight, true)
            }
        }
    };

    // A timed + traced run of the optimization pipeline (the leader path
    // and the abandoned-flight fallback share it).
    let run_pipeline = |sink: &mut TraceSink| {
        let span = sink.begin("optimize");
        let start = Instant::now();
        let result = job
            .pipeline
            .optimize_multi_status(&job.expr, &job.targets, &job.discount_scales);
        shared
            .metrics
            .optimize_us
            .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        sink.end_with(span, &[("ok", result.is_ok() as u8 as f64)]);
        result
    };

    let outcome = if leader {
        let mut guard = FlightGuard {
            flight: Arc::clone(&flight),
            shared,
            fp: fp.0,
            published: false,
        };
        match run_pipeline(sink) {
            Ok((report, status)) => {
                let report = Arc::new(report);
                guard.publish(Arc::clone(&report));
                drop(guard); // removes the in-flight entry
                Ok((report, status.name()))
            }
            // The guard drops unpublished, marking the flight
            // abandoned: waiters recompute and re-derive the same
            // structured error (unextractable requests are rare and
            // cheap — extraction fails fast, and errors are never
            // cached). Before extraction errors were structured, this
            // path was a panic that killed the worker thread for good.
            Err(e) => Err(e),
        }
    } else {
        let wait_span = sink.begin("coalesce/wait");
        let published = {
            let mut state = flight.state.lock().unwrap();
            loop {
                match &*state {
                    FlightState::Running => state = flight.cv.wait(state).unwrap(),
                    FlightState::Done(report) => break Some(Arc::clone(report)),
                    FlightState::Abandoned => break None,
                }
            }
        };
        sink.end_with(
            wait_span,
            &[("published", published.is_some() as u8 as f64)],
        );
        match published {
            Some(report) => {
                shared.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                Ok((report, "coalesced"))
            }
            // Leader died or hit an error; compute directly (the
            // cache may well cover it by now anyway).
            None => run_pipeline(sink)
                .map(|(report, status)| (Arc::new(report), status.name())),
        }
    };

    // Retain the newest growth tables for the `introspect` op. Replayed
    // (hit/coalesced) reports carry the tables of the cold run that
    // produced them, so "latest report with tables" is "latest cold
    // saturation".
    if let Ok((report, _)) = &outcome {
        if let Some(inspect) = &report.inspect {
            *shared.inspect.lock().unwrap() = Some(inspect.clone());
        }
    }

    let response = match &outcome {
        Ok((report, verdict)) => {
            let span = sink.begin("serialize");
            let start = Instant::now();
            let resp = Response::Optimize(build_response(&job, report, verdict.to_string()));
            shared
                .metrics
                .serialize_us
                .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
            sink.end(span);
            resp
        }
        Err(e) => unextractable(&job, e),
    };
    // Observe latency *before* handing the response to the connection
    // thread: once the client has the reply it may immediately scrape
    // `stats`/`metrics`, and this request must already be in the
    // histogram (the omitted tail is just the channel send).
    shared
        .metrics
        .latency_ms
        .observe(job.received.elapsed().as_secs_f64() * 1e3);
    let _ = job.reply.send(response);
    sink.end_with(
        req_span,
        &[
            ("queue_ms", queue_wait.as_secs_f64() * 1e3),
            ("coalesced", (!leader) as u8 as f64),
            ("ok", outcome.is_ok() as u8 as f64),
        ],
    );
}

/// The structured reply for a request whose best term has infinite cost
/// under some `(target, discount_scale, profile)` — extraction has no
/// answer, but the worker and the connection live on.
fn unextractable(job: &Job, e: &OptimizeError) -> Response {
    Response::Error {
        id: job.id.clone(),
        code: ErrorCode::Unextractable,
        message: e.to_string(),
    }
}

fn build_response(job: &Job, report: &MultiReport, cache: String) -> OptimizeResponse {
    // Steps the server ran *for this answer*: replayed (hit/coalesced)
    // and restored (warm) answers did no saturation — their reports may
    // still describe the original run's steps (or none at all).
    let saturation_steps = match cache.as_str() {
        "miss" | "uncached" => report.steps.len().saturating_sub(1),
        _ => 0,
    };
    OptimizeResponse {
        id: job.id.clone(),
        fingerprint: job.fingerprint.to_string(),
        cache,
        stop_reason: report.stop_reason.to_string(),
        n_nodes: report.n_nodes,
        n_classes: report.n_classes,
        saturation_s: report.saturation_time.as_secs_f64(),
        saturation_steps,
        server_ms: job.received.elapsed().as_secs_f64() * 1e3,
        solutions: report
            .solutions
            .iter()
            .map(|s| SolutionMsg {
                target: s.target.name().to_string(),
                discount_scale: s.discount_scale,
                profile: s.profile.clone(),
                cost: s.cost,
                dag_cost: s.dag_cost,
                solution: s.solution_summary(),
                best: s.best.to_string(),
                lib_calls: s.lib_calls.clone(),
                proof: s.proof.as_ref().map(ProofMsg::from_explanation),
            })
            .collect(),
    }
}
