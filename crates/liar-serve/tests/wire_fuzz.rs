//! Seeded byte-level fuzzing of every parser that reads bytes from the
//! wire: the frame reader, request and response decoding, the JSON
//! parser, and the IR's s-expression parser (a request's `program`).
//!
//! Valid payloads and kernel programs are mutated with bit flips,
//! truncation and byte inserts, deletes and replacements, plus nesting
//! far past both parsers' depth limits. The bar is the one the snapshot
//! corruption sweep sets for bytes from disk: every input gets an `Ok` or
//! a structured error, never a panic. A failure prints the seed and the
//! input that panicked.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

use liar_egraph::SplitMix64;
use liar_ir::Expr;
use liar_kernels::Kernel;
use liar_serve::json;
use liar_serve::protocol::{read_frame, write_frame, SolutionMsg};
use liar_serve::{
    ErrorCode, OptimizeRequest, OptimizeResponse, Request, Response, RestoreRequest,
    SnapshotRequest, StatsResponse,
};

const SEED: u64 = 0x5eed_f022;

/// Mutated inputs per valid input.
const ROUNDS: usize = 1500;

/// Frames above this size are refused (the fuzz inputs are far smaller).
const MAX_FRAME: usize = 64 << 10;

/// Bytes that make structural mutations likely: brackets, quotes,
/// separators, escapes, digits and the IR's sigils.
const STRUCTURAL: &[u8] = b"()[]{}\",:\\0123456789-.eE \n%#?";

/// Mutate `input` with one to four random edits.
fn mutate(rng: &mut SplitMix64, input: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..1 + rng.below(4) {
        let byte = |rng: &mut SplitMix64| {
            if rng.below(2) == 0 {
                STRUCTURAL[rng.below(STRUCTURAL.len())]
            } else {
                rng.next_u64() as u8
            }
        };
        let at = rng.below(out.len() + 1);
        match rng.below(5) {
            0 if at < out.len() => out[at] ^= 1 << rng.below(8),
            1 => out.truncate(at),
            2 => out.insert(at, byte(rng)),
            3 if at < out.len() => {
                out.remove(at);
            }
            _ if at < out.len() => out[at] = byte(rng),
            _ => out.push(byte(rng)),
        }
    }
    out
}

/// Run `parse` on `input`, failing the test with the seed and the input
/// when it panics.
fn no_panic(what: &str, seed: u64, input: &[u8], parse: impl FnOnce(&[u8])) {
    if catch_unwind(AssertUnwindSafe(|| parse(input))).is_err() {
        panic!(
            "{what} panicked (seed {seed:#x}) on input {:?}",
            String::from_utf8_lossy(input)
        );
    }
}

/// Read frames from `bytes` until the stream ends or a frame error.
fn read_all_frames(bytes: &[u8]) {
    let mut reader = Cursor::new(bytes);
    for _ in 0..bytes.len() + 1 {
        match read_frame(&mut reader, MAX_FRAME) {
            Ok(Some(payload)) => {
                let _ = Request::from_payload(&payload);
            }
            Ok(None) | Err(_) => return,
        }
    }
}

fn parse_json(bytes: &[u8]) {
    let _ = json::parse(&String::from_utf8_lossy(bytes));
}

fn parse_expr(bytes: &[u8]) {
    let _ = String::from_utf8_lossy(bytes).parse::<Expr>();
}

fn programs() -> Vec<String> {
    Kernel::ALL
        .iter()
        .map(|k| k.expr(k.search_size()).to_string())
        .collect()
}

fn requests() -> Vec<Request> {
    let mut optimize = OptimizeRequest::new(Kernel::Gemv.expr(8).to_string());
    optimize.id = Some("r-1".into());
    optimize.targets = vec!["blas".into(), "pytorch".into()];
    optimize.discount_scales = vec![1.0, 0.5];
    optimize.profiles = vec!["default".into(), "gpu".into()];
    optimize.steps = Some(6);
    optimize.node_limit = Some(100_000);
    optimize.explain = true;
    let fingerprint = "0123456789abcdef0123456789abcdef".to_string();
    vec![
        Request::Optimize(optimize),
        Request::Snapshot(SnapshotRequest {
            id: Some("s-1".into()),
            fingerprint: fingerprint.clone(),
        }),
        Request::Restore(RestoreRequest {
            id: None,
            fingerprint,
            stop_reason: "iteration limit".into(),
            snapshot_hex: "4c494152deadbeef".into(),
        }),
        Request::Stats,
        Request::Metrics,
        Request::Introspect { tail: 16 },
        Request::Ping,
        Request::Shutdown,
    ]
}

fn responses() -> Vec<Response> {
    let solution = SolutionMsg {
        target: "blas".into(),
        discount_scale: 1.0,
        profile: "default".into(),
        cost: 49.8,
        dag_cost: 47.25,
        solution: "1 × gemv".into(),
        best: "(gemv #8 #8 alpha A B beta C)".into(),
        lib_calls: BTreeMap::from([("gemv".to_string(), 1)]),
        proof: None,
    };
    vec![
        Response::Optimize(OptimizeResponse {
            id: Some("r-1".into()),
            fingerprint: "0123456789abcdef0123456789abcdef".into(),
            cache: "miss".into(),
            stop_reason: "iteration limit".into(),
            n_nodes: 475,
            n_classes: 180,
            saturation_s: 0.012,
            saturation_steps: 8,
            server_ms: 14.5,
            solutions: vec![solution],
        }),
        Response::Stats(StatsResponse::default()),
        Response::Error {
            id: Some("r-2".into()),
            code: ErrorCode::ParseError,
            message: "parse error: unexpected ')'".into(),
        },
        Response::Pong,
        Response::ShuttingDown,
    ]
}

#[test]
fn mutated_frames_and_payloads_never_panic() {
    let mut rng = SplitMix64::new(SEED);
    let requests: Vec<Vec<u8>> = requests().iter().map(Request::to_payload).collect();
    let responses: Vec<Vec<u8>> = responses().iter().map(Response::to_payload).collect();
    for payload in &requests {
        let mut frames = Vec::new();
        write_frame(&mut frames, payload).expect("write to a Vec");
        write_frame(&mut frames, payload).expect("write to a Vec");
        for _ in 0..ROUNDS {
            let bytes = mutate(&mut rng, &frames);
            no_panic("read_frame", SEED, &bytes, read_all_frames);
            let bytes = mutate(&mut rng, payload);
            no_panic("Request::from_payload", SEED, &bytes, |b| {
                let _ = Request::from_payload(b);
            });
            no_panic("json::parse", SEED, &bytes, parse_json);
        }
    }
    for payload in &responses {
        for _ in 0..ROUNDS {
            let bytes = mutate(&mut rng, payload);
            no_panic("Response::from_payload", SEED, &bytes, |b| {
                let _ = Response::from_payload(b);
            });
            no_panic("json::parse", SEED, &bytes, parse_json);
        }
    }
}

#[test]
fn mutated_program_texts_never_panic() {
    let mut rng = SplitMix64::new(SEED);
    for program in programs() {
        for _ in 0..ROUNDS {
            let bytes = mutate(&mut rng, program.as_bytes());
            no_panic("Expr::from_str", SEED, &bytes, parse_expr);
        }
    }
}

#[test]
fn nesting_far_past_the_parser_limits_is_an_error() {
    let depth = 20_000;
    let program = format!("{}%0{}", "(lam ".repeat(depth), ")".repeat(depth));
    assert!(program.parse::<Expr>().is_err(), "deep program parsed");
    let array = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(json::parse(&array).is_err(), "deep JSON parsed");
    let object = format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
    assert!(
        Request::from_payload(object.as_bytes()).is_err(),
        "deep request parsed"
    );
    assert!(
        Response::from_payload(object.as_bytes()).is_err(),
        "deep response parsed"
    );

    // Truncated deep inputs stay errors too.
    let mut rng = SplitMix64::new(SEED);
    for _ in 0..16 {
        let cut = rng.below(program.len());
        no_panic(
            "Expr::from_str",
            SEED,
            &program.as_bytes()[..cut],
            parse_expr,
        );
        let cut = rng.below(array.len());
        no_panic("json::parse", SEED, &array.as_bytes()[..cut], parse_json);
    }
}
