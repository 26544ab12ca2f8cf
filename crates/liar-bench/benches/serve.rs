//! Serve benchmark: loopback throughput and latency of the `liar-serve`
//! daemon, cold (cache misses) versus warm (content-addressed cache
//! hits), on a PolyBench request mix.
//!
//! One in-process [`Server`] on an ephemeral loopback port; a cold pass
//! submits each kernel once (populating the saturation cache), then
//! several client threads replay the mix concurrently. Reported:
//!
//! * per-kernel cold latency vs warm p50/p95 latency and the resulting
//!   **cache-hit speedup** (the serving win this subsystem is about);
//! * overall warm p50/p95 latency and throughput (requests/second);
//! * correctness riders: every warm response must be served from the
//!   cache (`hit`/`coalesced`) and carry the same solutions as the cold
//!   response for that kernel;
//! * **durability columns**: the first server runs with a snapshot
//!   store, so a server booted on the same directory (fresh in-memory
//!   cache — a simulated restart) answers each kernel by restore +
//!   extraction: `cold_boot_ms` (saturate from scratch) vs `warm_boot_ms`
//!   (`"cache":"warm"`, zero saturation steps, identical solutions), the
//!   median over `rounds` restarts on the same store.
//!
//! Results are printed and written to `BENCH_serve.json` at the repo
//! root; CI runs this bench and uploads the JSON as an artifact.

use std::sync::Arc;
use std::time::{Duration, Instant};

use liar_kernels::Kernel;
use liar_serve::{Client, OptimizeRequest, Server, ServerConfig};

const KERNELS: [Kernel; 4] = [Kernel::Vsum, Kernel::Gemv, Kernel::Atax, Kernel::Mvt];
const STEPS: usize = 6;
const CLIENTS: usize = 4;
const ROUNDS: usize = 5;

fn request_for(program: &str) -> OptimizeRequest {
    let mut req = OptimizeRequest::new(program);
    req.steps = Some(STEPS);
    req
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    assert!(!sorted.is_empty());
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

struct Row {
    kernel: &'static str,
    cold_ms: f64,
    warm_p50_ms: f64,
    warm_p95_ms: f64,
    speedup: f64,
    warm_boot_ms: f64,
}

fn main() {
    println!("== serve (loopback daemon: cold misses vs content-addressed cache hits) ==");
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("host hardware threads: {hw}   clients: {CLIENTS}   rounds: {ROUNDS}");

    // A scratch warm-store directory: the cold pass doubles as the
    // cold-boot measurement and populates the store for the restart.
    let warm_dir = std::env::temp_dir().join(format!("liar-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&warm_dir);

    let server = Server::start(ServerConfig {
        workers: 2,
        warm_dir: Some(warm_dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();

    let programs: Vec<(&'static str, String)> = KERNELS
        .iter()
        .map(|k| (k.name(), k.expr(k.search_size()).to_string()))
        .collect();

    // Cold pass: one miss per kernel, timed client-side.
    let mut client = Client::connect(addr).expect("connect");
    let mut cold = Vec::new();
    for (name, program) in &programs {
        let start = Instant::now();
        let resp = client.optimize(request_for(program)).expect("optimize");
        let elapsed = start.elapsed();
        assert_eq!(resp.cache, "miss", "{name}: first submission must miss");
        cold.push((*name, elapsed, resp.solutions));
    }

    // Warm pass: CLIENTS threads × ROUNDS rounds over the same mix.
    let programs = Arc::new(programs);
    let expected: Arc<Vec<_>> = Arc::new(cold.iter().map(|(n, _, s)| (*n, s.clone())).collect());
    let wall = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let programs = Arc::clone(&programs);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut samples: Vec<(usize, Duration)> = Vec::new();
                for r in 0..ROUNDS {
                    for i in 0..programs.len() {
                        let i = (i + c + r) % programs.len();
                        let start = Instant::now();
                        let resp = client
                            .optimize(request_for(&programs[i].1))
                            .expect("optimize");
                        samples.push((i, start.elapsed()));
                        assert!(
                            resp.cache == "hit" || resp.cache == "coalesced",
                            "{}: warm submission was {}",
                            programs[i].0,
                            resp.cache
                        );
                        assert_eq!(
                            resp.solutions, expected[i].1,
                            "{}: warm solutions diverged",
                            programs[i].0
                        );
                    }
                }
                samples
            })
        })
        .collect();
    let mut warm: Vec<Vec<Duration>> = vec![Vec::new(); programs.len()];
    let mut all_warm: Vec<Duration> = Vec::new();
    for h in handles {
        for (i, d) in h.join().expect("client thread") {
            warm[i].push(d);
            all_warm.push(d);
        }
    }
    let warm_wall = wall.elapsed();

    // Warm boot: ROUNDS servers in turn on the same store directory, each
    // with a fresh in-memory cache — simulated restarts. Every first
    // submission must restore from disk ("warm"), run zero saturation
    // steps, and answer with the cold run's exact solutions. A kernel's
    // warm boot is the median of its ROUNDS restarts, so one slow first
    // request does not stand for the row.
    let mut boots: Vec<Vec<Duration>> = vec![Vec::new(); programs.len()];
    for round in 0..ROUNDS {
        let restarted = Server::start(ServerConfig {
            workers: 2,
            warm_dir: Some(warm_dir.clone()),
            ..ServerConfig::default()
        })
        .expect("bind loopback (restart)");
        let mut client = Client::connect(restarted.local_addr()).expect("connect (restart)");
        for (i, (name, program)) in programs.iter().enumerate() {
            let start = Instant::now();
            let resp = client.optimize(request_for(program)).expect("optimize (restart)");
            let elapsed = start.elapsed();
            assert_eq!(
                resp.cache, "warm",
                "{name}: restart {round} must answer from the store"
            );
            assert_eq!(resp.saturation_steps, 0, "{name}: warm answers run zero steps");
            assert_eq!(
                resp.solutions, expected[i].1,
                "{name}: warm-boot solutions diverged"
            );
            boots[i].push(elapsed);
        }
        restarted.shutdown();
    }
    let warm_boot: Vec<Duration> = boots
        .into_iter()
        .map(|mut b| {
            b.sort();
            percentile(&b, 0.50)
        })
        .collect();

    let mut rows = Vec::new();
    for (i, (name, cold_time, _)) in cold.iter().enumerate() {
        let mut sorted = warm[i].clone();
        sorted.sort();
        let p50 = percentile(&sorted, 0.50);
        let p95 = percentile(&sorted, 0.95);
        let speedup = cold_time.as_secs_f64() / p50.as_secs_f64().max(1e-9);
        println!(
            "serve/{:<12} cold {:>10.3?}   warm p50 {:>10.3?}   p95 {:>10.3?}   hit speedup {:>7.1}x   warm boot {:>10.3?}",
            name, cold_time, p50, p95, speedup, warm_boot[i]
        );
        rows.push(Row {
            kernel: name,
            cold_ms: cold_time.as_secs_f64() * 1e3,
            warm_p50_ms: p50.as_secs_f64() * 1e3,
            warm_p95_ms: p95.as_secs_f64() * 1e3,
            speedup,
            warm_boot_ms: warm_boot[i].as_secs_f64() * 1e3,
        });
    }

    all_warm.sort();
    let overall_p50 = percentile(&all_warm, 0.50);
    let overall_p95 = percentile(&all_warm, 0.95);
    let throughput = all_warm.len() as f64 / warm_wall.as_secs_f64().max(1e-9);
    let total_cold_ms: f64 = rows.iter().map(|r| r.cold_ms).sum();
    let overall_speedup =
        (total_cold_ms / rows.len() as f64) / (overall_p50.as_secs_f64() * 1e3).max(1e-9);
    let stats = server.stats();
    println!(
        "overall: {} warm requests in {:.3?}  p50 {:.3?}  p95 {:.3?}  {:.0} req/s  mean hit speedup {:.1}x",
        all_warm.len(),
        warm_wall,
        overall_p50,
        overall_p95,
        throughput,
        overall_speedup,
    );
    println!(
        "cache: {} hits, {} misses, {} insertions ({} coalesced, {} batched)",
        stats.cache_hits, stats.cache_misses, stats.cache_insertions, stats.coalesced,
        stats.batched,
    );
    assert!(
        overall_speedup > 1.0,
        "cache hits must beat cold saturation"
    );

    // Hand-rolled JSON (the workspace is dependency-free offline).
    let mut json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"workers\": 2,\n  \"clients\": {CLIENTS},\n  \"rounds\": {ROUNDS},\n  \"steps\": {STEPS},\n  \"kernels\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"cold_ms\": {:.3}, \"warm_p50_ms\": {:.3}, \
             \"warm_p95_ms\": {:.3}, \"cache_hit_speedup\": {:.3}, \"cold_boot_ms\": {:.3}, \
             \"warm_boot_ms\": {:.3}, \"warm_boot_speedup\": {:.3}}}{}\n",
            r.kernel,
            r.cold_ms,
            r.warm_p50_ms,
            r.warm_p95_ms,
            r.speedup,
            r.cold_ms, // cold boot *is* the first saturation on an empty store
            r.warm_boot_ms,
            r.cold_ms / r.warm_boot_ms.max(1e-9),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    let total_warm_boot_ms: f64 = rows.iter().map(|r| r.warm_boot_ms).sum();
    json.push_str(&format!(
        "  ],\n  \"overall\": {{\"warm_requests\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \
         \"throughput_rps\": {:.1}, \"cache_hit_speedup\": {:.3}, \"cache_hits\": {}, \
         \"coalesced\": {}, \"cold_boot_ms\": {:.3}, \"warm_boot_ms\": {:.3}, \
         \"warm_boot_speedup\": {:.3}}}\n}}\n",
        all_warm.len(),
        overall_p50.as_secs_f64() * 1e3,
        overall_p95.as_secs_f64() * 1e3,
        throughput,
        overall_speedup,
        stats.cache_hits,
        stats.coalesced,
        total_cold_ms,
        total_warm_boot_ms,
        total_cold_ms / total_warm_boot_ms.max(1e-9),
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&warm_dir);
}
