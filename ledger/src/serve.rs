//! The `serve-mix` workload, and the daemon probe the compile workloads'
//! traced passes use.
//!
//! `serve-mix` boots an in-process `Server` on loopback with its default
//! config (2 workers, introspection on) plus a snapshot store in the
//! run's scratch directory and [`UNION_STEPS`] default steps,
//! pre-saturating the 16-kernel corpus into it (`Server::prewarm_kernels`,
//! the daemon's own boot path). Two client connections then run a closed
//! loop over a seeded request stream: mostly repeats of the corpus
//! requests (cache hits, Zipf-skewed), plus one fresh request per kernel
//! at a seeded, not-yet-seen problem size (a cold saturation and a
//! snapshot write), sent in the loop's mixed windows; its repeat-only
//! windows give the hit metrics. A cold pass of further fresh rounds
//! follows, one request at a time, timed in reference seconds
//! ([`HostClock`]); then the server restarts on the same store and every
//! distinct request is replayed once (restore + extract). Every reply is
//! compared with the in-process
//! `optimize_multi` answer for the same request and evaluated against
//! `Kernel::reference`; the client-side hit/miss counts must equal the
//! server's own `stats()`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use liar_core::{Liar, MultiReport, SnapshotStore, Target};
use liar_ir::Expr;
use liar_kernels::Kernel;
use liar_serve::{
    Client, OptimizeRequest, OptimizeResponse, Response, Server, ServerConfig, SolutionMsg,
};

use crate::compile::{fmt_f, repeat_setup, timed_kernel, UNION_STEPS};
use crate::layers::{
    probe_codegen, probe_frame, probe_runtime, probe_snapshot, report_record, traced_multi,
    without_applied, Layers, Persist,
};
use crate::runtime::{time_solutions, Case};
use crate::stats::{
    digest, geomean, median, ms, peak_heap_mb, quantile, reset_peak_heap, HostClock, Rng,
};
use crate::{json_str, print_row, Config, Outcome};

/// Client connections of the closed loop.
const CLIENTS: usize = 2;
/// Times the daemon boot is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Zipf exponent of the popularity skew over the 16 corpus requests. The
/// popularity ranks follow `Kernel::ALL` order, not the seed: hit latency
/// differs ~4× between kernels, so a seeded ranking would move
/// `hit_p50_ms` between seeds. The seed draws the request sequence.
const SKEW: f64 = 1.0;
/// Fresh problem sizes are drawn from this range (the corpus uses 8).
const FRESH_SIZES: (usize, usize) = (9, 17);
/// Rounds of fresh requests: each round asks for every kernel once, at a
/// size no earlier request used. Round 0 is spread over the mixed windows
/// of the closed loop; the others form the cold pass after it, sent one
/// at a time with the daemon otherwise idle, which gives the miss and
/// compile metrics (in the loop, misses share two cores with the hits).
const FRESH_ROUNDS: usize = 5;
/// Restarts on the warm store; `warm_boot_s` is the median.
const RESTARTS: usize = 9;
/// Windows the closed loop is cut into for the repeat metrics.
const WINDOWS: usize = 12;
/// Share of the run's budget the closed loop takes; the cold pass, the
/// restarts and the checks follow it.
const LOOP_SHARE: f64 = 0.5;
/// Budget of the BLAS run-time measurement of the corpus replies.
const TIMING_BUDGET: Duration = Duration::from_millis(1500);

/// The seeded stream: distinct requests (the corpus first, then the fresh
/// rounds, each kernel once per round in a seeded order at seeded sizes)
/// and the popularity CDF over the corpus. The clients see only this; the
/// daemon sees only its frames.
struct Stream {
    requests: Vec<OptimizeRequest>,
    /// The fresh round of each request (`None` for the corpus).
    round: Vec<Option<usize>>,
    /// `(cumulative weight, corpus index)`, most popular first.
    popularity: Vec<(f64, usize)>,
}

impl Stream {
    /// The stream for `seed`, and the check case of each distinct request.
    fn new(seed: u64) -> Result<(Stream, Vec<Case>), String> {
        let mut rng = Rng::new(seed);
        let (mut cases, mut round) = (Vec::new(), Vec::new());
        for k in Kernel::ALL {
            cases.push(Case::new(k, k.search_size(), seed)?);
            round.push(None);
        }
        // Each kernel's fresh sizes, without repeats across rounds.
        let mut sizes: Vec<std::vec::IntoIter<usize>> = Kernel::ALL
            .iter()
            .map(|_| {
                let mut s: Vec<usize> = (FRESH_SIZES.0..FRESH_SIZES.1).collect();
                rng.shuffle(&mut s);
                s.into_iter()
            })
            .collect();
        for r in 0..FRESH_ROUNDS {
            // Round 0 goes into the closed loop in `Kernel::ALL` order, so
            // every seed puts the same kernels' misses into the same
            // windows; the later rounds, sent one at a time, are shuffled.
            let mut order: Vec<usize> = (0..Kernel::ALL.len()).collect();
            if r > 0 {
                rng.shuffle(&mut order);
            }
            for k in order {
                let n = sizes[k]
                    .next()
                    .ok_or("more fresh rounds than fresh sizes")?;
                cases.push(Case::new(Kernel::ALL[k], n, seed)?);
                round.push(Some(r));
            }
        }
        let requests = cases
            .iter()
            .map(|c| OptimizeRequest::new(c.expr.to_string()))
            .collect();
        let ranks: Vec<usize> = (0..Kernel::ALL.len()).collect();
        let weights: Vec<f64> = (1..=ranks.len()).map(|r| (r as f64).powf(-SKEW)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let popularity = ranks
            .iter()
            .zip(&weights)
            .map(|(&i, w)| {
                acc += w / total;
                (acc, i)
            })
            .collect();
        Ok((
            Stream {
                requests,
                round,
                popularity,
            },
            cases,
        ))
    }

    fn popular(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.popularity
            .iter()
            .find(|(c, _)| u < *c)
            .map_or(self.popularity[self.popularity.len() - 1].1, |(_, i)| *i)
    }

    /// The requests of fresh round `r`, in stream order.
    fn round_keys(&self, r: usize) -> Vec<usize> {
        (0..self.round.len())
            .filter(|&i| self.round[i] == Some(r))
            .collect()
    }

    fn fresh(&self, key: usize) -> bool {
        self.round[key].is_some()
    }
}

/// What a reply must match: the first reply seen for its request.
type Answer = (usize, Vec<SolutionMsg>);

fn answer(r: &OptimizeResponse) -> Answer {
    (r.n_nodes, r.solutions.clone())
}

/// One completed request of the loop.
struct Done {
    key: usize,
    /// The window of the loop the request was sent in.
    window: usize,
    latency_ms: f64,
    /// The daemon's own latency for the request (`server_ms`).
    server_ms: f64,
    cache: String,
    failure: Option<String>,
}

/// One client's share of the loop.
#[derive(Default)]
struct ClientLog {
    done: Vec<Done>,
    first: HashMap<usize, Answer>,
}

/// The daemon's default config, with a store and the union-ruleset step
/// limit every workload's solutions survive (see [`UNION_STEPS`]).
fn config(dir: Option<&std::path::Path>) -> ServerConfig {
    ServerConfig {
        warm_dir: dir.map(std::path::Path::to_path_buf),
        default_steps: UNION_STEPS,
        ..ServerConfig::default()
    }
}

/// Boot a daemon on a fresh store, pre-saturate the corpus, connect the
/// clients. Returns the server, the clients and the corpus kernels
/// saturated at boot.
fn boot(dir: &std::path::Path) -> std::io::Result<(Server, Vec<Client>, usize)> {
    let _ = std::fs::remove_dir_all(dir);
    let server = Server::start(config(Some(dir)))?;
    let (saturated, _) = server.prewarm_kernels();
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(server.local_addr()))
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok((server, clients, saturated))
}

/// What the main thread of the closed loop shares with the clients: it
/// cuts the loop into windows and drains the clients between two, so no
/// request of one window, a miss least of all, runs into the next.
struct Gate {
    paused: AtomicBool,
    /// Clients waiting at the gate.
    idle: AtomicUsize,
    /// Clients still in the loop.
    running: AtomicUsize,
    window: AtomicUsize,
    /// Set once the last window has ended.
    stop: AtomicBool,
}

impl Gate {
    /// Called by a client before each request: wait while the loop is
    /// paused. Returns the window the next request belongs to.
    fn pass(&self) -> usize {
        if self.paused.load(Ordering::SeqCst) {
            self.idle.fetch_add(1, Ordering::SeqCst);
            while self.paused.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(200));
            }
            self.idle.fetch_sub(1, Ordering::SeqCst);
        }
        self.window.load(Ordering::SeqCst)
    }

    /// Called by the main thread: pause the clients and wait until every
    /// one still running is idle.
    fn pause(&self) {
        self.paused.store(true, Ordering::SeqCst);
        while self.idle.load(Ordering::SeqCst) < self.running.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Start the next window (or stop) and wait until the clients left the gate.
    fn resume(&self, stop: bool) {
        self.window.fetch_add(1, Ordering::SeqCst);
        self.stop.store(stop, Ordering::SeqCst);
        self.paused.store(false, Ordering::SeqCst);
        while self.idle.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// The closed loop: both clients send for [`WINDOWS`] windows of
/// `budget / WINDOWS` each. Windows alternate: an even window sends
/// repeats only and gives the repeat metrics; an odd one mixes in its
/// share of the fresh requests, so misses saturate and write the store
/// while hits read the cache. Whichever client is free first sends the
/// next fresh request, one at a time, so cold saturations never overlap;
/// the last window is extended until every fresh request has gone out.
fn closed_loop(
    stream: &Stream,
    server: &Server,
    clients: Vec<Client>,
    seed: u64,
    budget: Duration,
) -> (Vec<ClientLog>, Vec<Client>, Vec<f64>, Vec<f64>) {
    let fresh = stream.round_keys(0);
    let next_fresh = AtomicUsize::new(0);
    let fresh_busy = AtomicBool::new(false);
    let gate = Gate {
        paused: AtomicBool::new(false),
        idle: AtomicUsize::new(0),
        running: AtomicUsize::new(clients.len()),
        window: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    };
    // Fresh requests due by the end of mixed window `w`.
    let mixed = WINDOWS / 2;
    let due = |w: usize| fresh.len() * (w / 2 + 1) / mixed;
    let window_len = budget / WINDOWS as u32;
    let mut depth = Vec::new();
    let mut windows = Vec::new();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let (fresh, next_fresh, fresh_busy, gate) =
                    (&fresh, &next_fresh, &fresh_busy, &gate);
                // Claim the next fresh request if it is due in this window
                // and none is in flight; `next_fresh` only moves under
                // `fresh_busy`.
                let claim = move |window: usize| -> Option<usize> {
                    let f = next_fresh.load(Ordering::SeqCst);
                    if window.is_multiple_of(2) || f >= due(window) {
                        return None;
                    }
                    fresh_busy
                        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                        .ok()?;
                    let f = next_fresh.fetch_add(1, Ordering::SeqCst);
                    Some(fresh[f])
                };
                s.spawn(move || {
                    let mut rng =
                        Rng::new(seed ^ (0xA076_1D64_78BD_642F_u64.wrapping_mul(c as u64 + 1)));
                    let mut log = ClientLog::default();
                    loop {
                        let window = gate.pass();
                        if gate.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let key = match claim(window) {
                            Some(key) => key,
                            None => stream.popular(&mut rng),
                        };
                        let t = Instant::now();
                        let reply = client.optimize(stream.requests[key].clone());
                        let latency_ms = ms(t.elapsed());
                        let (cache, server_ms, failure) = match reply {
                            Ok(r) => {
                                // A repeat arriving while the same request is in
                                // flight on the other connection is coalesced onto it.
                                let expected: &[&str] = if stream.fresh(key) {
                                    &["miss"]
                                } else {
                                    &["hit", "coalesced"]
                                };
                                let a = answer(&r);
                                let failure = if !expected.contains(&r.cache.as_str()) {
                                    Some(format!(
                                        "request {key}: cache {} where {expected:?} was due",
                                        r.cache
                                    ))
                                } else if log.first.get(&key).is_some_and(|first| *first != a) {
                                    Some(format!(
                                        "request {key}: reply differs from its first reply"
                                    ))
                                } else {
                                    None
                                };
                                log.first.entry(key).or_insert(a);
                                (r.cache, r.server_ms, failure)
                            }
                            Err(e) => {
                                // A broken connection cannot recover; stop
                                // rather than spin on errors.
                                gate.stop.store(true, Ordering::SeqCst);
                                (String::new(), f64::NAN, Some(format!("request {key}: {e}")))
                            }
                        };
                        if stream.fresh(key) {
                            fresh_busy.store(false, Ordering::SeqCst);
                        }
                        log.done.push(Done {
                            key,
                            window,
                            latency_ms,
                            server_ms,
                            cache,
                            failure,
                        });
                    }
                    gate.running.fetch_sub(1, Ordering::SeqCst);
                    (log, client)
                })
            })
            .collect();
        for w in 0..WINDOWS {
            let begin = Instant::now();
            loop {
                depth.push(server.stats().queue_depth as f64);
                std::thread::sleep(Duration::from_millis(20));
                let sent = next_fresh.load(Ordering::SeqCst) >= fresh.len()
                    && !fresh_busy.load(Ordering::SeqCst);
                let stopped = gate.stop.load(Ordering::SeqCst);
                if stopped || begin.elapsed() >= window_len && (w + 1 < WINDOWS || sent) {
                    break;
                }
            }
            gate.pause();
            let active_s = begin.elapsed().as_secs_f64();
            windows.push(active_s);
            gate.resume(w + 1 == WINDOWS || gate.stop.load(Ordering::SeqCst));
            if gate.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let (logs, clients) = logs.into_iter().unzip();
    (logs, clients, depth, windows)
}

/// Compare a reply with the in-process report for the same request.
fn same_answer(reply: &Answer, report: &MultiReport) -> bool {
    reply.0 == report.n_nodes
        && reply.1.len() == report.solutions.len()
        && reply.1.iter().zip(&report.solutions).all(|(m, s)| {
            m.target == s.target.name()
                && m.cost == s.cost
                && m.dag_cost == s.dag_cost
                && m.solution == s.solution_summary()
                && m.best == s.best.to_string()
        })
}

/// The in-process pipeline a default request to [`config`]'s daemon runs.
fn serve_pipeline() -> Liar {
    let defaults = config(None);
    Liar::new(Target::ALL[0])
        .with_iter_limit(defaults.default_steps)
        .with_node_limit(defaults.default_node_limit)
}

fn request_name(case: &Case) -> String {
    format!("{}@{}", case.kernel, case.n)
}

/// The `serve-mix` workload.
pub fn serve_mix(cfg: &Config, out: &mut Outcome) {
    let (stream, cases) = match Stream::new(cfg.seed) {
        Ok(s) => s,
        Err(e) => return out.check(false, || format!("set-up: {e}")),
    };
    let dir = cfg.scratch.join("store");
    reset_peak_heap();
    let mut rep = 0;
    let (booted, setup_s) = repeat_setup(SETUP_REPS, || {
        rep += 1;
        let booted = boot(&dir);
        if rep < SETUP_REPS {
            if let Ok((server, clients, _)) = booted {
                drop(clients);
                server.shutdown();
            }
            return None;
        }
        Some(booted)
    });
    out.set("setup_s", setup_s);
    // The daemon holding the pre-saturated corpus: seed-independent, unlike
    // the fresh requests' graphs, whose sizes the seed draws.
    out.set("peak_heap_mb", peak_heap_mb());
    let (server, clients, saturated) = match booted {
        Some(Ok(b)) => b,
        Some(Err(e)) => return out.check(false, || format!("daemon boot: {e}")),
        None => unreachable!("the last repetition keeps its daemon"),
    };
    out.check(saturated == Kernel::ALL.len(), || {
        format!(
            "boot pre-saturated {saturated} of {} kernels",
            Kernel::ALL.len()
        )
    });

    // The timed closed loop.
    let loop_budget = cfg.budget.mul_f64(LOOP_SHARE);
    let (logs, mut clients, depth, windows) =
        closed_loop(&stream, &server, clients, cfg.seed, loop_budget);
    let done: Vec<&Done> = logs.iter().flat_map(|l| &l.done).collect();
    for d in &done {
        out.check(d.failure.is_none(), || {
            d.failure.clone().unwrap_or_default()
        });
    }
    let mut first: HashMap<usize, Answer> = HashMap::new();
    for log in &logs {
        for (key, a) in &log.first {
            match first.get(key) {
                Some(b) => out.check(a == b, || {
                    format!("request {key}: clients got different replies")
                }),
                None => {
                    first.insert(*key, a.clone());
                }
            }
        }
    }

    // The cold pass: the later fresh rounds, one request at a time.
    let mut cold: Vec<(usize, f64)> = Vec::new();
    let mut clock = HostClock::new();
    for r in 1..FRESH_ROUNDS {
        for key in stream.round_keys(r) {
            let (reply, secs) = clock.time(|| clients[0].optimize(stream.requests[key].clone()));
            let latency_ms = secs * 1e3;
            let ok = matches!(&reply, Ok(r) if r.cache == "miss");
            out.check(ok, || {
                format!(
                    "cold pass: {} not a miss: {reply:?}",
                    request_name(&cases[key])
                )
            });
            if let Ok(r) = reply {
                first.insert(key, answer(&r));
                cold.push((key, latency_ms));
            }
        }
    }
    let stats = server.stats();
    drop(clients);
    server.shutdown();

    let count = |cache: &str| done.iter().filter(|d| d.cache == cache).count() as u64;
    let (hits, misses, coalesced) = (count("hit"), count("miss"), count("coalesced"));
    let fresh_total = (0..stream.round.len()).filter(|&k| stream.fresh(k)).count() as u64;
    out.check(misses + cold.len() as u64 == fresh_total, || {
        format!(
            "{misses} loop misses and {} cold misses for {fresh_total} fresh requests",
            cold.len()
        )
    });
    out.check(
        stats.cache_hits == hits
            && stats.cache_misses == Kernel::ALL.len() as u64 + fresh_total
            && stats.coalesced == coalesced
            && stats.requests == done.len() as u64 + cold.len() as u64
            && stats.errors == 0,
        || {
            format!(
                "server stats {stats:?} disagree with the client's {hits} hits, {misses} + {} \
                 misses, {coalesced} coalesced of {} requests",
                cold.len(),
                done.len() + cold.len()
            )
        },
    );

    // Repeats: each repeat-only window of the loop reports its own
    // quantiles and throughput, and the run reports the median window. The
    // hit path waits on the wire and on thread wake-ups more than it
    // computes, so its times do not follow the calibration and stay
    // unscaled.
    let mut hit_p50 = Vec::new();
    let mut window_rps = Vec::new();
    for (w, active_s) in windows.iter().enumerate().step_by(2) {
        let inside: Vec<&&Done> = done.iter().filter(|d| d.window == w).collect();
        let hits: Vec<f64> = inside
            .iter()
            .filter(|d| !stream.fresh(d.key) && !d.cache.is_empty())
            .map(|d| d.latency_ms)
            .collect();
        hit_p50.push(quantile(&hits, 0.5));
        window_rps.push(inside.len() as f64 / active_s);
    }
    out.set("hit_p50_ms", median(&hit_p50));
    out.set("rps", median(&window_rps));

    // Misses and compiles: the cold pass, one request at a time with the
    // daemon otherwise idle (in the loop, misses share two cores with the
    // hits). Each kernel reports its median round.
    let misses_ms: Vec<f64> = cold.iter().map(|(_, l)| *l).collect();
    out.set("miss_p50_ms", median(&misses_ms));
    let per_kernel: Vec<f64> = Kernel::ALL
        .iter()
        .map(|&kernel| {
            let rounds: Vec<f64> = cold
                .iter()
                .filter(|(k, _)| cases[*k].kernel == kernel)
                .map(|(_, l)| *l)
                .collect();
            median(&rounds)
        })
        .collect();
    out.set("compile_s", per_kernel.iter().sum::<f64>() / 1e3);
    out.set("compile_p50_ms", quantile(&per_kernel, 0.5));
    out.set("compile_p90_ms", quantile(&per_kernel, 0.9));

    // Restart on the same store: every distinct request, restore + extract.
    let mut boots = Vec::new();
    let mut clock = HostClock::new();
    for _ in 0..RESTARTS {
        let (restarted, secs) = clock.time(|| {
            let server = Server::start(config(Some(&dir)))?;
            let mut client = Client::connect(server.local_addr())?;
            let replies: Vec<_> = stream
                .requests
                .iter()
                .map(|request| client.optimize(request.clone()))
                .collect();
            Ok::<_, std::io::Error>((server, replies))
        });
        match restarted {
            Ok((server, replies)) => {
                for (key, (reply, case)) in replies.iter().zip(&cases).enumerate() {
                    let ok = matches!(reply, Ok(r) if r.cache == "warm" && first.get(&key) == Some(&answer(r)));
                    out.check(ok, || {
                        format!(
                            "restart: {} not answered warm and identically",
                            request_name(case)
                        )
                    });
                }
                boots.push(secs);
                let restarted = server.stats();
                out.check(
                    restarted.cache_misses == cases.len() as u64 && restarted.cache_hits == 0,
                    || format!("restarted server stats {restarted:?}"),
                );
                server.shutdown();
            }
            Err(e) => out.check(false, || format!("restart: {e}")),
        }
    }
    out.set("warm_boot_s", median(&boots));
    // Independent checks: in-process answers and reference outputs.
    let reference_store = SnapshotStore::open(cfg.scratch.join("reference")).map(Arc::new);
    let mut pipeline = serve_pipeline();
    if let Ok(store) = &reference_store {
        pipeline = pipeline.with_snapshot_store(Arc::clone(store));
    }
    let mut records = Vec::new();
    let mut reference_ms = 0.0;
    let mut reports = Vec::new();
    for (key, case) in cases.iter().enumerate() {
        let t = Instant::now();
        let report = pipeline.optimize_multi(&case.expr, &Target::ALL, &[1.0]);
        reference_ms += ms(t.elapsed());
        let Ok(report) = report else {
            out.check(false, || {
                format!("{}: in-process optimize_multi failed", request_name(case))
            });
            reports.push(None);
            records.push(String::new());
            continue;
        };
        out.check(
            first.get(&key).is_some_and(|a| same_answer(a, &report)),
            || {
                format!(
                    "{}: serve reply differs from in-process optimize_multi",
                    request_name(case)
                )
            },
        );
        if let Some((_, sols)) = first.get(&key) {
            for m in sols {
                let parsed: Result<Expr, _> = m.best.parse();
                let result = match &parsed {
                    Ok(e) => case.check(e),
                    Err(e) => Err(format!("unparsable reply: {e:?}")),
                };
                out.check(result.is_ok(), || {
                    format!(
                        "{}/{}: {}",
                        request_name(case),
                        m.target,
                        result.unwrap_err()
                    )
                });
            }
        }
        records.push(report_record(&request_name(case), &report));
        reports.push(Some(report));
    }

    let corpus: Vec<(usize, &SolutionMsg)> = (0..Kernel::ALL.len())
        .filter_map(|key| Some((key, first.get(&key)?)))
        .flat_map(|(key, (_, sols))| sols.iter().map(move |m| (key, m)))
        .collect();
    out.set(
        "cost_geomean",
        geomean(&corpus.iter().map(|(_, m)| m.dag_cost).collect::<Vec<_>>()),
    );
    out.set(
        "lib_solutions",
        corpus
            .iter()
            .filter(|(_, m)| m.target != Target::PureC.name() && !m.lib_calls.is_empty())
            .count() as f64,
    );
    let blas: Vec<(usize, Expr)> = corpus
        .iter()
        .filter(|(key, m)| m.target == Target::Blas.name() && timed_kernel(cases[*key].kernel))
        .filter_map(|(key, m)| Some((*key, m.best.parse().ok()?)))
        .collect();
    let timed_items: Vec<(&Case, &Expr)> = blas.iter().map(|(k, e)| (&cases[*k], e)).collect();
    let timings = time_solutions(&timed_items, TIMING_BUDGET, 5);
    out.set(
        "speedup_geomean",
        geomean(&timings.iter().map(|t| t.speedup()).collect::<Vec<_>>()),
    );
    // Rows: one per distinct request, with its client-side latencies.
    for (key, case) in cases.iter().enumerate() {
        let mine: Vec<f64> = done
            .iter()
            .filter(|x| x.key == key)
            .map(|x| x.latency_ms)
            .chain(cold.iter().filter(|(k, _)| *k == key).map(|(_, l)| *l))
            .collect();
        let Some(Some(r)) = reports.get(key) else {
            continue;
        };
        print_row(&[
            ("workload", json_str("serve-mix")),
            ("request", json_str(&request_name(case))),
            (
                "kind",
                json_str(if stream.fresh(key) { "fresh" } else { "repeat" }),
            ),
            ("requests", mine.len().to_string()),
            ("latency_p50_ms", fmt_f(median(&mine))),
            ("enodes", r.n_nodes.to_string()),
            (
                "solutions",
                json_str(
                    &r.solutions
                        .iter()
                        .map(|s| format!("{}: {}", s.target, s.solution_summary()))
                        .collect::<Vec<_>>()
                        .join("; "),
                ),
            ),
        ]);
    }
    // The corpus records do not depend on the seed; the fresh ones do.
    let corpus_records = &records[..Kernel::ALL.len()];
    println!(
        "record_digest {:016x} items {}",
        digest(corpus_records.iter().map(String::as_str)),
        corpus_records.len()
    );
    println!(
        "fresh_digest {:016x} items {}",
        digest(records[Kernel::ALL.len()..].iter().map(String::as_str)),
        records.len() - Kernel::ALL.len()
    );
    println!(
        "serve_counts hits {hits} misses {misses} coalesced {coalesced} requests {} server_hits {} server_misses {}",
        done.len(),
        stats.cache_hits,
        stats.cache_misses
    );

    if cfg.trace {
        let mut l = Layers::default();
        let knobs = serve_pipeline().budget_knobs();
        let mirror_store = SnapshotStore::open(cfg.scratch.join("traced"));
        for (key, case) in cases.iter().enumerate() {
            let name = request_name(case);
            let fingerprint =
                serve_pipeline().request_fingerprint(&case.expr, &Target::ALL, &[1.0]);
            let persist = mirror_store
                .as_ref()
                .ok()
                .map(|store| Persist { store, fingerprint });
            let traced = traced_multi(&mut l, &name, &case.expr, &knobs, persist, None);
            let traced_record = traced.record.clone();
            out.check(without_applied(&traced_record) == records[key], || {
                format!(
                    "traced pass diverged:\n  {}\n  {traced_record}",
                    records[key]
                )
            });
            out.check(traced.reconciles(), || {
                format!(
                    "{name}: layers sum to {:.3} ms of a {:.3} ms wall",
                    traced.layer_ms, traced.wall_ms
                )
            });
            let persist = mirror_store
                .as_ref()
                .ok()
                .map(|store| Persist { store, fingerprint });
            out.check(
                probe_snapshot(&mut l, &traced, &case.expr, persist, true),
                || format!("{name}: stored snapshot did not restore"),
            );
            probe_codegen(&mut l, case, &traced.solutions);
            if let Some((_, sols)) = first.get(&key) {
                let reply = Response::Optimize(OptimizeResponse {
                    id: None,
                    fingerprint: fingerprint.to_string(),
                    cache: "hit".to_string(),
                    stop_reason: traced.stop.to_string(),
                    n_nodes: traced.egraph.num_nodes(),
                    n_classes: traced.egraph.num_classes(),
                    saturation_s: 0.0,
                    saturation_steps: 0,
                    server_ms: 0.0,
                    solutions: sols.clone(),
                });
                probe_frame(&mut l, &stream.requests[key], &reply);
            }
            if let Some((_, _, best, _, _)) = traced.solutions.iter().find(|s| s.0 == Target::Blas)
            {
                probe_runtime(&mut l, case, best);
            }
        }
        let server_ms: Vec<f64> = done
            .iter()
            .map(|d| d.server_ms)
            .filter(|x| x.is_finite())
            .collect();
        l.add("serve.server_p50_ms", median(&server_ms));
        l.add("serve.hit_rate", hits as f64 / done.len().max(1) as f64);
        l.add("serve.coalesced", stats.coalesced as f64);
        l.add("serve.queue_depth", median(&depth));
        l.report(out, reference_ms);
    }
}

/// Probe: the daemon layer on a compile workload's own requests. A
/// storeless [`config`] server answers each request twice — a cold
/// miss, then a cache hit — and its own statistics feed the `serve.*`
/// layers.
pub fn probe_daemon(l: &mut Layers, requests: &[OptimizeRequest], out: &mut Outcome) {
    let server = match Server::start(config(None)) {
        Ok(s) => s,
        Err(e) => return out.check(false, || format!("daemon probe: {e}")),
    };
    let (mut depth, mut server_ms) = (Vec::new(), Vec::new());
    match Client::connect(server.local_addr()) {
        Ok(mut client) => {
            for req in requests {
                for expected in ["miss", "hit"] {
                    let reply = client.optimize(req.clone());
                    out.check(matches!(&reply, Ok(r) if r.cache == expected), || {
                        format!("daemon probe: expected a {expected}, got {reply:?}")
                    });
                    if let Ok(r) = reply {
                        server_ms.push(r.server_ms);
                    }
                    depth.push(server.stats().queue_depth as f64);
                }
            }
        }
        Err(e) => out.check(false, || format!("daemon probe: {e}")),
    }
    let stats = server.stats();
    server.shutdown();
    l.add("serve.server_p50_ms", median(&server_ms));
    l.add(
        "serve.hit_rate",
        stats.cache_hits as f64 / stats.requests.max(1) as f64,
    );
    l.add("serve.coalesced", stats.coalesced as f64);
    l.add("serve.queue_depth", median(&depth));
}
