//! End-to-end loopback tests of the optimization service: response
//! fidelity against the in-process pipeline, cache and single-flight
//! behavior under concurrency, and protocol robustness against
//! malformed/oversized frames.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use liar_core::{Liar, MultiReport, Target};
use liar_kernels::Kernel;
use liar_serve::protocol::{read_frame, write_frame};
use liar_serve::{Client, ErrorCode, OptimizeRequest, Response, Server, ServerConfig};

const STEPS: usize = 6;

fn server(config: ServerConfig) -> Server {
    Server::start(config).expect("bind loopback")
}

fn request_for(program: &str) -> OptimizeRequest {
    let mut req = OptimizeRequest::new(program);
    req.steps = Some(STEPS);
    req
}

/// The in-process run a served response must reproduce bit-identically.
fn in_process(program: &str) -> MultiReport {
    let expr = program.parse().expect("test programs parse");
    Liar::new(Target::PureC)
        .with_iter_limit(STEPS)
        .optimize_multi(&expr, &Target::ALL, &[1.0])
        .expect("kernels are extractable for every target")
}

/// Assert a served response matches an in-process report field-for-field
/// (everything the protocol carries; timings are run-dependent and the
/// protocol reports the *original* run's saturation time, which cannot be
/// compared against a different process-local run).
fn assert_matches(resp: &liar_serve::OptimizeResponse, expected: &MultiReport) {
    assert_eq!(resp.stop_reason, expected.stop_reason.to_string());
    assert_eq!(resp.n_nodes, expected.n_nodes);
    assert_eq!(resp.n_classes, expected.n_classes);
    assert_eq!(resp.solutions.len(), expected.solutions.len());
    for (got, want) in resp.solutions.iter().zip(&expected.solutions) {
        assert_eq!(got.target, want.target.name());
        assert_eq!(got.discount_scale, want.discount_scale);
        assert_eq!(got.profile, want.profile);
        assert_eq!(got.best, want.best.to_string(), "{}", got.target);
        assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{}", got.target);
        assert_eq!(
            got.dag_cost.to_bits(),
            want.dag_cost.to_bits(),
            "{}",
            got.target
        );
        assert_eq!(got.solution, want.solution_summary());
        assert_eq!(got.lib_calls, want.lib_calls);
    }
}

#[test]
fn concurrent_clients_get_bit_identical_responses_and_cache_hits() {
    let srv = server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = srv.local_addr();

    // A mix of PolyBench programs, each with its cold in-process report.
    let programs: Vec<String> = [Kernel::Vsum, Kernel::Gemv, Kernel::Atax]
        .iter()
        .map(|k| k.expr(k.search_size()).to_string())
        .collect();
    let expected: Vec<MultiReport> = programs.iter().map(|p| in_process(p)).collect();
    let programs = Arc::new(programs);
    let expected = Arc::new(expected);

    // Wave 1: N concurrent clients, each submitting every program.
    let n_clients = 4;
    let handles: Vec<_> = (0..n_clients)
        .map(|c| {
            let programs = Arc::clone(&programs);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for (i, program) in programs.iter().enumerate() {
                    // Stagger the order per client to mix the queue.
                    let i = (i + c) % programs.len();
                    let resp = client
                        .optimize(request_for(&programs[i]))
                        .expect("optimize");
                    let _ = program;
                    assert_matches(&resp, &expected[i]);
                    assert_eq!(resp.fingerprint.len(), 32);
                    assert!(
                        ["hit", "miss", "coalesced"].contains(&resp.cache.as_str()),
                        "{}",
                        resp.cache
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // Each program was computed at most once per fingerprint: of the
    // 4 × 3 submissions, exactly 3 were misses (one per program);
    // everything else came from the cache or coalesced onto a leader.
    let stats = srv.stats();
    assert_eq!(stats.requests, (n_clients * 3) as u64);
    assert_eq!(stats.cache_insertions, 3, "{stats:?}");
    assert_eq!(
        stats.cache_hits + stats.coalesced,
        (n_clients * 3 - 3) as u64,
        "{stats:?}"
    );

    // Wave 2: duplicate submissions are hits, verified via the response's
    // cache-status field, and replay bit-identically.
    let mut client = Client::connect(addr).expect("connect");
    for (i, program) in programs.iter().enumerate() {
        let resp = client.optimize(request_for(program)).expect("optimize");
        assert_eq!(resp.cache, "hit", "{program}");
        assert_matches(&resp, &expected[i]);
    }
    let after = srv.stats();
    assert!(after.cache_hits >= stats.cache_hits + 3);

    srv.shutdown();
}

#[test]
fn identical_inflight_requests_single_flight() {
    let srv = server(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let addr = srv.local_addr();
    let program = Kernel::Gemv.expr(Kernel::Gemv.search_size()).to_string();

    let handles: Vec<_> = (0..6)
        .map(|_| {
            let program = program.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.optimize(request_for(&program)).expect("optimize")
            })
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Exactly one client computed; everyone else shared its result
    // (coalesced while in flight, or a cache hit after it landed).
    let misses = responses.iter().filter(|r| r.cache == "miss").count();
    assert_eq!(misses, 1, "statuses: {:?}", statuses(&responses));
    for r in &responses {
        assert!(
            ["hit", "miss", "coalesced"].contains(&r.cache.as_str()),
            "{}",
            r.cache
        );
        assert_eq!(r.solutions, responses[0].solutions, "shared one result");
        assert_eq!(r.fingerprint, responses[0].fingerprint);
    }
    let stats = srv.stats();
    assert_eq!(stats.cache_insertions, 1, "{stats:?}");
    assert_eq!(stats.cache_hits + stats.coalesced, 5, "{stats:?}");

    srv.shutdown();
}

fn statuses(responses: &[liar_serve::OptimizeResponse]) -> Vec<&str> {
    responses.iter().map(|r| r.cache.as_str()).collect()
}

#[test]
fn explain_op_returns_replayable_proofs_and_cached_replays_are_bit_identical() {
    let srv = server(ServerConfig::default());
    let mut client = Client::connect(srv.local_addr()).expect("connect");
    let program = Kernel::Vsum.expr(Kernel::Vsum.search_size()).to_string();

    // Cold explain: every solution carries a proof from the program to
    // its best expression…
    let mut req = request_for(&program);
    req.targets = vec!["blas".into(), "pytorch".into()];
    let cold = client.explain(req.clone()).expect("explain");
    assert_eq!(cold.cache, "miss");
    let rules = liar_core::rules::rules_for_targets(
        &[Target::Blas, Target::Torch],
        &liar_core::rules::RuleConfig::default(),
    );
    for sol in &cold.solutions {
        let msg = sol
            .proof
            .as_ref()
            .unwrap_or_else(|| panic!("{}: explain response lacks a proof", sol.target));
        assert_eq!(msg.source, program, "{}", sol.target);
        assert_eq!(msg.target, sol.best, "{}", sol.target);
        // …and the proof replays clean after a full wire round trip.
        let proof = msg.to_explanation().expect("proof deserializes");
        proof
            .check(&rules)
            .unwrap_or_else(|e| panic!("{}: served proof failed to replay: {e}", sol.target));
    }

    // The same explain request replays from the cache, proof included,
    // bit-identically.
    let warm = client.explain(req.clone()).expect("explain again");
    assert_eq!(warm.cache, "hit");
    assert_eq!(warm.solutions, cold.solutions);
    assert_eq!(warm.fingerprint, cold.fingerprint);

    // A plain optimize of the same program is a *different* fingerprint
    // (explain is a budget knob) and carries no proofs.
    let fast = client.optimize(req).expect("optimize");
    assert_ne!(fast.fingerprint, cold.fingerprint);
    assert!(fast.solutions.iter().all(|s| s.proof.is_none()));
    // Liftings agree between the explained and fast paths.
    for (f, c) in fast.solutions.iter().zip(&cold.solutions) {
        assert_eq!(f.lib_calls, c.lib_calls, "{}", f.target);
    }

    srv.shutdown();
}

#[test]
fn bounded_queue_rejects_when_full() {
    // queue_cap 0: every optimize is turned away with a structured error
    // while control ops keep working.
    let srv = server(ServerConfig {
        queue_cap: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(srv.local_addr()).expect("connect");
    client.ping().expect("ping still works");
    match client.optimize(request_for("(+ 1 2)")) {
        Err(liar_serve::ClientError::Server { code, .. }) => assert_eq!(code, "queue-full"),
        other => panic!("expected queue-full, got {other:?}"),
    }
    srv.shutdown();
}

#[test]
fn invalid_requests_get_structured_errors_and_the_connection_survives() {
    let srv = server(ServerConfig::default());
    let mut client = Client::connect(srv.local_addr()).expect("connect");

    let expect_code = |client: &mut Client, req: OptimizeRequest, code: ErrorCode| {
        match client.request(&liar_serve::Request::Optimize(req)).unwrap() {
            Response::Error { code: got, .. } => assert_eq!(got, code),
            other => panic!("expected {code:?}, got {other:?}"),
        }
    };

    // Program does not parse (including the NaN constant case).
    expect_code(&mut client, OptimizeRequest::new("((("), ErrorCode::ParseError);
    expect_code(
        &mut client,
        OptimizeRequest::new("(+ nan 1)"),
        ErrorCode::ParseError,
    );
    // Unknown target.
    let mut req = OptimizeRequest::new("(+ 1 2)");
    req.targets = vec!["fortran".into()];
    expect_code(&mut client, req, ErrorCode::UnknownTarget);
    // Budget over the server's ceiling.
    let mut req = OptimizeRequest::new("(+ 1 2)");
    req.steps = Some(10_000);
    expect_code(&mut client, req, ErrorCode::BudgetTooLarge);
    // Discount-scale fan-out is a budget knob too.
    let mut req = OptimizeRequest::new("(+ 1 2)");
    req.discount_scales = (0..1000).map(|i| 1.0 + i as f64).collect();
    expect_code(&mut client, req, ErrorCode::BudgetTooLarge);
    // As is machine-profile fan-out.
    let mut req = OptimizeRequest::new("(+ 1 2)");
    req.profiles = (0..1000).map(|_| "gpu".to_string()).collect();
    expect_code(&mut client, req, ErrorCode::BudgetTooLarge);
    // Unknown machine profile.
    let mut req = OptimizeRequest::new("(+ 1 2)");
    req.profiles = vec!["tpu".into()];
    expect_code(&mut client, req, ErrorCode::UnknownProfile);

    // The connection survived all of that.
    client.ping().expect("connection still alive");
    srv.shutdown();
}

#[test]
fn deeply_nested_programs_get_parse_errors_and_the_daemon_survives() {
    // 20,000 nested lambdas: 120 KB, well under the frame limit. The
    // parser recurses once per level; without its depth cap this one
    // request overflows the connection thread's stack and aborts the
    // whole daemon.
    let srv = server(ServerConfig::default());
    let mut client = Client::connect(srv.local_addr()).expect("connect");
    let depth = 20_000;
    let program = format!("{}%0{}", "(lam ".repeat(depth), ")".repeat(depth));
    let req = liar_serve::Request::Optimize(OptimizeRequest::new(program));
    match client.request(&req).expect("the daemon replies") {
        Response::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::ParseError);
            assert!(message.contains("nesting"), "{message}");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }

    // The same server still answers a normal request.
    let program = Kernel::Vsum.expr(Kernel::Vsum.search_size()).to_string();
    let resp = client
        .optimize(request_for(&program))
        .expect("the daemon survived");
    assert_eq!(resp.cache, "miss");
    srv.shutdown();
}

#[test]
fn machine_profiles_fan_out_solutions() {
    let srv = server(ServerConfig::default());
    let mut client = Client::connect(srv.local_addr()).expect("connect");
    let program = Kernel::Vsum.expr(Kernel::Vsum.search_size()).to_string();

    let mut req = request_for(&program);
    req.targets = vec!["blas".into()];
    req.profiles = vec!["default".into(), "gpu".into()];
    let profiled = client.optimize(req).expect("optimize");
    let profiles: Vec<&str> = profiled
        .solutions
        .iter()
        .map(|s| s.profile.as_str())
        .collect();
    assert_eq!(profiles, ["default", "gpu"]);

    // A plain request is a different fingerprint, and its solution is
    // bit-identical to the profiled request's default-profile entry:
    // the default profile is the identity.
    let mut plain = request_for(&program);
    plain.targets = vec!["blas".into()];
    let unprofiled = client.optimize(plain).expect("optimize");
    assert_ne!(unprofiled.fingerprint, profiled.fingerprint);
    assert_eq!(unprofiled.solutions.len(), 1);
    assert_eq!(
        unprofiled.solutions[0].cost.to_bits(),
        profiled.solutions[0].cost.to_bits()
    );
    assert_eq!(unprofiled.solutions[0].best, profiled.solutions[0].best);

    srv.shutdown();
}

#[test]
fn unextractable_programs_get_structured_errors_and_workers_survive() {
    // One worker: before extraction errors were structured, an
    // unextractable program panicked the worker thread and every later
    // request hung. The error reply plus a served follow-up proves the
    // pool survived.
    let srv = server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(srv.local_addr()).expect("connect");

    // The program *is* a BLAS call: under the Torch model every
    // equivalent term prices at infinity.
    let mut req = request_for("(axpy #8 alpha A B)");
    req.targets = vec!["pytorch".into()];
    match client.optimize(req) {
        Err(liar_serve::ClientError::Server { code, message }) => {
            assert_eq!(code, "unextractable");
            assert!(message.contains("no extractable solution"), "{message}");
        }
        other => panic!("expected an unextractable error, got {other:?}"),
    }

    // The same program for BLAS succeeds on the same (sole) worker.
    let mut req = request_for("(axpy #8 alpha A B)");
    req.targets = vec!["blas".into()];
    let resp = client.optimize(req).expect("the worker survived the error");
    assert_eq!(resp.cache, "miss");

    let stats = srv.stats();
    assert!(stats.errors >= 1, "{stats:?}");
    srv.shutdown();
}

#[test]
fn malformed_and_oversized_frames_are_rejected_gracefully() {
    let srv = server(ServerConfig {
        max_frame: 256,
        ..ServerConfig::default()
    });
    let addr = srv.local_addr();

    // Oversized frame: structured error, connection stays usable.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let big = vec![b'x'; 1000];
        write_frame(&mut stream, &big).unwrap();
        let payload = read_frame(&mut stream, 1 << 20).unwrap().expect("reply");
        match Response::from_payload(&payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::FrameTooLarge),
            other => panic!("expected frame-too-large, got {other:?}"),
        }
        // Same connection, now a valid ping.
        write_frame(&mut stream, b"{\"op\":\"ping\"}").unwrap();
        let payload = read_frame(&mut stream, 1 << 20).unwrap().expect("pong");
        assert_eq!(Response::from_payload(&payload).unwrap(), Response::Pong);
    }

    // Malformed header: structured error, then the server closes (the
    // stream can no longer be trusted to be frame-aligned).
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"hello, world\n").unwrap();
        stream.flush().unwrap();
        let payload = read_frame(&mut stream, 1 << 20).unwrap().expect("reply");
        match Response::from_payload(&payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
            other => panic!("expected bad-frame, got {other:?}"),
        }
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("server closed");
        assert!(rest.is_empty(), "no further frames after a bad header");
    }

    // Bad JSON in a well-formed frame: structured error, connection
    // survives.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_frame(&mut stream, b"this is not json").unwrap();
        let payload = read_frame(&mut stream, 1 << 20).unwrap().expect("reply");
        match Response::from_payload(&payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadJson),
            other => panic!("expected bad-json, got {other:?}"),
        }
        write_frame(&mut stream, b"{\"op\":\"ping\"}").unwrap();
        let payload = read_frame(&mut stream, 1 << 20).unwrap().expect("pong");
        assert_eq!(Response::from_payload(&payload).unwrap(), Response::Pong);
    }

    let stats = srv.stats();
    assert!(stats.errors >= 3, "{stats:?}");
    srv.shutdown();
}

#[test]
fn shutdown_over_the_protocol_drains() {
    let srv = server(ServerConfig::default());
    let addr = srv.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    let resp = client.optimize(request_for("(+ 1 2)")).expect("optimize");
    assert_eq!(resp.cache, "miss");
    client.shutdown().expect("acknowledged");
    // The server refuses new optimize work while draining.
    srv.wait();
    srv.shutdown();
}

/// The durable warm store survives the process boundary: a second server
/// on the same directory answers its very first submission from the
/// restored snapshot — `cache == "warm"`, zero saturation steps, answers
/// bit-identical to the cold run — and the `snapshot`/`restore` protocol
/// ops move a saturated graph to a third, empty-store server.
#[test]
fn warm_store_survives_restart_and_snapshot_ops_move_graphs() {
    let dir = std::env::temp_dir().join(format!("liar-e2e-warm-{}", std::process::id()));
    let dir_b = std::env::temp_dir().join(format!("liar-e2e-warm-b-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_b);

    let program = Kernel::Gemv.expr(Kernel::Gemv.search_size()).to_string();
    let expected = in_process(&program);

    // Server #1: the cold saturation lands in the durable store.
    let srv = server(ServerConfig {
        warm_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(srv.local_addr()).expect("connect");
    let cold = client.optimize(request_for(&program)).expect("optimize");
    assert_eq!(cold.cache, "miss");
    assert!(cold.saturation_steps > 0, "a cold run reports its steps");
    assert_matches(&cold, &expected);

    // The snapshot op hands the persisted graph over the wire…
    let snap = client
        .snapshot(cold.fingerprint.clone())
        .expect("snapshot op");
    assert_eq!(snap.fingerprint, cold.fingerprint);
    assert!(!snap.snapshot_hex.is_empty());
    // …and unknown fingerprints get a structured error.
    match client.snapshot("0".repeat(32)) {
        Err(liar_serve::ClientError::Server { code, .. }) => {
            assert_eq!(code, "unknown-snapshot")
        }
        other => panic!("expected unknown-snapshot, got {other:?}"),
    }
    srv.shutdown();

    // Server #2, same directory, fresh in-memory cache (the process
    // boundary): the first submission is served warm, then promoted.
    let srv2 = server(ServerConfig {
        warm_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client2 = Client::connect(srv2.local_addr()).expect("connect");
    let warm = client2.optimize(request_for(&program)).expect("optimize");
    assert_eq!(warm.cache, "warm", "restart must not recompute");
    assert_eq!(warm.saturation_steps, 0, "warm answers run no saturation");
    assert_eq!(warm.fingerprint, cold.fingerprint);
    assert_matches(&warm, &expected);
    let hit = client2.optimize(request_for(&program)).expect("optimize");
    assert_eq!(hit.cache, "hit", "warm answers promote to the memory cache");
    assert_eq!(hit.solutions, warm.solutions);
    srv2.shutdown();

    // Server #3, empty store: the restore op ships the graph in, after
    // which the same request is warm there too. Corrupt payloads are
    // rejected without touching the store.
    let srv3 = server(ServerConfig {
        warm_dir: Some(dir_b.clone()),
        ..ServerConfig::default()
    });
    let mut client3 = Client::connect(srv3.local_addr()).expect("connect");
    let mut corrupt = snap.clone();
    corrupt.snapshot_hex.truncate(corrupt.snapshot_hex.len() / 2);
    match client3.restore(&corrupt) {
        Err(liar_serve::ClientError::Server { code, .. }) => assert_eq!(code, "bad-snapshot"),
        other => panic!("expected bad-snapshot, got {other:?}"),
    }
    let restored = client3.restore(&snap).expect("restore op");
    assert_eq!(restored.fingerprint, snap.fingerprint);
    assert!(restored.n_nodes > 0);
    let moved = client3.optimize(request_for(&program)).expect("optimize");
    assert_eq!(moved.cache, "warm", "a restored snapshot serves warm");
    assert_eq!(moved.saturation_steps, 0);
    assert_matches(&moved, &expected);
    srv3.shutdown();

    // Without a store, snapshot ops are a structured refusal.
    let srv4 = server(ServerConfig::default());
    let mut client4 = Client::connect(srv4.local_addr()).expect("connect");
    match client4.snapshot(cold.fingerprint.clone()) {
        Err(liar_serve::ClientError::Server { code, .. }) => assert_eq!(code, "no-store"),
        other => panic!("expected no-store, got {other:?}"),
    }
    srv4.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// A corrupt store file must never corrupt an answer: the server falls
/// back to a cold saturation (bit-identical solutions), overwrites the
/// bad file with the fresh result, and the *next* restart serves warm
/// again — the store self-heals.
#[test]
fn corrupt_store_files_fall_back_cold_and_self_heal() {
    let dir = std::env::temp_dir().join(format!("liar-e2e-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let program = Kernel::Vsum.expr(Kernel::Vsum.search_size()).to_string();
    let expected = in_process(&program);

    let srv = server(ServerConfig {
        warm_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(srv.local_addr()).expect("connect");
    let cold = client.optimize(request_for(&program)).expect("optimize");
    assert_eq!(cold.cache, "miss");
    srv.shutdown();

    // Flip a byte deep in the persisted snapshot payload.
    let path = dir.join(format!("{}.snap", cold.fingerprint));
    let mut bytes = std::fs::read(&path).expect("store file exists");
    let pos = bytes.len() - bytes.len() / 4;
    bytes[pos] ^= 0x40;
    std::fs::write(&path, &bytes).expect("rewrite store file");

    // Restart: the corrupt entry is a cold fallback, not a wrong answer.
    let srv2 = server(ServerConfig {
        warm_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client2 = Client::connect(srv2.local_addr()).expect("connect");
    let fallback = client2.optimize(request_for(&program)).expect("optimize");
    assert_eq!(fallback.cache, "miss", "corrupt snapshots must recompute");
    assert!(fallback.saturation_steps > 0);
    assert_matches(&fallback, &expected);
    srv2.shutdown();

    // The recomputation overwrote the bad file: warm again.
    let srv3 = server(ServerConfig {
        warm_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client3 = Client::connect(srv3.local_addr()).expect("connect");
    let healed = client3.optimize(request_for(&program)).expect("optimize");
    assert_eq!(healed.cache, "warm", "the store heals itself on recompute");
    assert_matches(&healed, &expected);
    srv3.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

/// The observability surface end to end: queue-depth / in-flight gauges
/// and latency percentiles in `stats`, the `metrics` op as valid
/// Prometheus text exposition, and a Chrome trace-event export with
/// correctly nested per-request phase spans.
#[test]
fn stats_gauges_metrics_scrape_and_trace_export() {
    let dir = std::env::temp_dir().join(format!("liar-e2e-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let srv = server(ServerConfig {
        trace_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(srv.local_addr()).expect("connect");

    // Idle: nothing queued, nothing in flight, no latency observed yet.
    let idle = client.stats().expect("stats");
    assert_eq!(idle.queue_depth, 0);
    assert_eq!(idle.inflight, 0);
    assert_eq!(idle.latency_p50_ms, 0.0);

    let program = Kernel::Vsum.expr(Kernel::Vsum.search_size()).to_string();
    let mut req = request_for(&program);
    req.id = Some("trace-me".to_string());
    let first = client.optimize(req.clone()).expect("optimize");
    assert_eq!(first.cache, "miss");
    let again = client.optimize(req).expect("optimize");
    assert_eq!(again.cache, "hit");

    // Settled: the gauges drained back to zero and the percentiles are
    // populated and ordered.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.queue_depth, 0, "no jobs queued once the waves settle");
    assert_eq!(stats.inflight, 0, "no single-flight leaders once settled");
    assert!(stats.latency_p50_ms > 0.0, "two requests were observed");
    assert!(stats.latency_p50_ms <= stats.latency_p95_ms);
    assert!(stats.latency_p95_ms <= stats.latency_p99_ms);

    // The metrics op is valid Prometheus text exposition carrying the
    // same counters.
    let scrape = client.metrics().expect("metrics").prometheus;
    liar_trace::prom::validate_exposition(&scrape).expect("valid exposition");
    assert!(scrape.contains("liar_requests_total 2"), "scrape:\n{scrape}");
    assert!(scrape.contains("liar_cache_hits_total 1"), "scrape:\n{scrape}");
    assert!(scrape.contains("liar_queue_depth 0"), "scrape:\n{scrape}");
    assert!(
        scrape.contains("liar_request_latency_ms_bucket{le=\"+Inf\"} 2"),
        "both requests land in the latency histogram:\n{scrape}"
    );
    // Naming-convention audit: every family is liar_-prefixed and
    // declared exactly once; the build/uptime gauges are present.
    let families =
        liar_trace::prom::audit_metric_names(&scrape, "liar_").expect("audit passes");
    assert!(families.iter().any(|f| f == "liar_build_info"), "{families:?}");
    assert!(families.iter().any(|f| f == "liar_uptime_seconds"), "{families:?}");
    assert!(
        scrape.contains(&format!(
            "liar_build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        )),
        "scrape:\n{scrape}"
    );

    // Live introspection: the cold saturation left growth tables behind
    // (conserved), and the flight recorder saw the miss then the hit on
    // the same fingerprint.
    // (The cold saturation also logged a rule_fired event per applied
    // rule per step, so ask for the whole ring, not just a short tail.)
    let introspect = client.introspect(256).expect("introspect");
    let report = introspect.report.expect("one cold saturation completed");
    assert!(report.n_nodes > 0 && !report.rules.is_empty());
    report.check().expect("attribution conservation holds on the daemon");
    let kinds: Vec<_> = introspect.flight.iter().map(|e| e.kind.name()).collect();
    assert!(kinds.contains(&"rule_fired"), "{kinds:?}");
    assert!(kinds.contains(&"cache_miss"), "{kinds:?}");
    assert!(kinds.contains(&"cache_hit"), "{kinds:?}");
    let fp = &first.fingerprint;
    assert!(
        introspect.flight.iter().any(|e| &e.detail == fp),
        "flight events carry the request fingerprint"
    );

    srv.shutdown();

    // Shutdown dumped a Chrome trace: it parses as JSON, and the request
    // span (named by the request's trace id) contains the optimize and
    // serialize phase spans on the same lane.
    let trace = std::fs::read_to_string(dir.join("serve-trace.json")).expect("trace file");
    let json = liar_serve::json::parse(&trace).expect("trace parses as JSON");
    let events = json
        .get("traceEvents")
        .and_then(|j| j.as_arr())
        .expect("traceEvents array");
    let span = |name: &str| {
        events.iter().find(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("X")
                && e.get("name").and_then(|n| n.as_str()) == Some(name)
        })
    };
    let bounds = |e: &liar_serve::json::Json| {
        let ts = e.get("ts").and_then(|v| v.as_f64()).expect("ts");
        let dur = e.get("dur").and_then(|v| v.as_f64()).expect("dur");
        let tid = e.get("tid").and_then(|v| v.as_f64()).expect("tid");
        (ts, ts + dur, tid)
    };
    let request = span("request/trace-me").expect("request span named by trace id");
    let optimize = span("optimize").expect("optimize phase span");
    let serialize = span("serialize").expect("serialize phase span");
    let (req_start, req_end, req_tid) = bounds(request);
    for phase in [optimize, serialize] {
        let (start, end, tid) = bounds(phase);
        assert_eq!(tid, req_tid, "phase spans share the request's lane");
        assert!(
            req_start <= start && end <= req_end,
            "phase spans nest inside the request span"
        );
    }
    // The pipeline's lanes are in the same trace: saturation ran.
    assert!(span("saturate").is_some(), "pipeline saturate span");
    assert!(span("extract/flatten").is_some(), "extraction spans");

    let _ = std::fs::remove_dir_all(&dir);
}
