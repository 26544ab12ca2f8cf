//! The serve wire protocol: length-prefixed JSON frames over TCP, and the
//! typed request/response messages they carry.
//!
//! # Framing
//!
//! Each message is one frame:
//!
//! ```text
//! <payload length in bytes, ASCII decimal>\n
//! <payload: exactly that many bytes of UTF-8 JSON>
//! ```
//!
//! The decimal header is at most [`MAX_HEADER_DIGITS`] digits. A reader
//! enforces a maximum payload size; oversized frames are *skimmed*
//! (their payload is read and discarded, up to a small multiple of the
//! limit) so the server can answer with a structured error and keep the
//! connection alive, while a malformed header is unrecoverable — the
//! stream has lost synchronization — and closes the connection after one
//! error response.
//!
//! # Requests
//!
//! The payload is a JSON object with an `op` field:
//!
//! * `{"op":"optimize", "program": "<s-expression>", ...}` — optimize a
//!   program; see [`OptimizeRequest`] for the optional knobs.
//! * `{"op":"explain", "program": "<s-expression>", ...}` — same knobs,
//!   but the pipeline runs with proof production on and every solution
//!   in the response carries a replayable [`ProofMsg`] certificate.
//! * `{"op":"stats"}` — cache and service counters, queue-depth and
//!   in-flight gauges, and p50/p95/p99 request-latency percentiles.
//! * `{"op":"metrics"}` — the full metric set (counters, gauges,
//!   latency histograms, per-phase time totals) rendered server-side as
//!   Prometheus text exposition format; see [`MetricsResponse`].
//! * `{"op":"introspect", "tail": 64}` — live e-graph introspection:
//!   the growth-attribution tables of the most recent cold saturation
//!   (per-rule funnel, composition by operator) plus the last `tail`
//!   flight-recorder events; see [`IntrospectResponse`].
//! * `{"op":"ping"}` — liveness probe.
//! * `{"op":"shutdown"}` — ask the daemon to drain and exit (the daemon
//!   is an unauthenticated loopback service; do not expose it beyond
//!   localhost).
//!
//! # Responses
//!
//! Every response carries `"ok": true|false`. Successful optimizations
//! carry the request fingerprint, the cache verdict (`hit` / `miss` /
//! `coalesced`), and one entry per `(target, discount_scale, profile)`
//! triple; see [`OptimizeResponse`]. Failures carry a machine-readable
//! [`ErrorCode`] — including [`ErrorCode::Unextractable`] when no
//! equivalent of the program has finite cost under a requested cost
//! model.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};

use liar_core::{InspectReport, OpRow, RuleRow, Target};
use liar_egraph::explain::canonical_expr;
use liar_egraph::{Direction, ProofStep};
use liar_ir::{ArrayExplanation, Expr};
use liar_trace::{FlightEvent, FlightKind};

use crate::json::{self, Json};

/// Default cap on a frame's payload size (1 MiB — kernels are a few
/// hundred bytes; this is generous headroom, not a promise).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Maximum digits in the length header (9 digits < 1 GB).
pub const MAX_HEADER_DIGITS: usize = 9;

/// Flight-recorder events an `introspect` request returns when it names
/// no `tail`.
pub const DEFAULT_INTROSPECT_TAIL: usize = 64;

/// How much oversized payload a reader is willing to skim before it
/// declares the connection hopeless (multiple of its `max_frame`).
const SKIM_FACTOR: usize = 16;

/// How long a reader keeps retrying timed-out reads once a frame has
/// *started* (slow-client tolerance; a stalled half-frame past this is an
/// error, which also bounds slowloris-style dribbling).
pub const MID_FRAME_DEADLINE: std::time::Duration = std::time::Duration::from_secs(30);

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed or hit EOF mid-frame.
    Io(io::Error),
    /// A read timeout fired **at a frame boundary** (no byte of the next
    /// frame consumed). The stream is still aligned; callers that poll
    /// with a read timeout should treat this as "no traffic yet" and
    /// retry. Timeouts *inside* a frame keep being retried until
    /// [`MID_FRAME_DEADLINE`], then surface as [`FrameError::Io`].
    Idle,
    /// The length header was not `<digits>\n`. Unrecoverable: the stream
    /// is no longer frame-aligned.
    BadHeader(String),
    /// The advertised payload exceeds the reader's limit. The payload
    /// was skimmed if `recovered` is true, so the connection can go on.
    TooLarge {
        /// Advertised payload length.
        len: usize,
        /// The reader's limit.
        max: usize,
        /// Whether the payload was skimmed off the stream (frame
        /// alignment preserved).
        recovered: bool,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Idle => write!(f, "read timed out at a frame boundary"),
            FrameError::BadHeader(h) => write!(f, "malformed frame header {h:?}"),
            FrameError::TooLarge { len, max, .. } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    writeln!(w, "{}", payload.len())?;
    w.write_all(payload)?;
    w.flush()
}

/// Whether an I/O error is a read-timeout on a socket with a read
/// timeout configured.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// One `read` that retries timeouts until the mid-frame deadline. The
/// `started` timer is set when the first byte of the frame arrives, so a
/// reader polling an idle socket never hits the deadline path.
fn read_retrying(
    r: &mut impl Read,
    buf: &mut [u8],
    started: std::time::Instant,
) -> Result<usize, FrameError> {
    loop {
        match r.read(buf) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                if started.elapsed() > MID_FRAME_DEADLINE {
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "peer stalled mid-frame",
                    )));
                }
                // The socket's read timeout is the poll cadence; loop.
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
}

/// Read one frame's payload. `Ok(None)` means the peer closed the
/// connection cleanly (EOF at a frame boundary).
///
/// Designed for sockets with a read timeout: a timeout *before* the
/// frame's first byte returns [`FrameError::Idle`] with nothing consumed
/// (the caller can check for shutdown and call again); once a frame has
/// started, timed-out reads are retried so a slow peer cannot
/// desynchronize the stream, up to [`MID_FRAME_DEADLINE`].
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Vec<u8>>, FrameError> {
    // Header: ASCII digits then '\n'.
    let mut header = Vec::with_capacity(MAX_HEADER_DIGITS + 1);
    let mut byte = [0u8; 1];
    let mut started = None;
    loop {
        let n = match started {
            // Nothing consumed yet: a timeout here is a clean idle poll.
            None => match r.read(&mut byte) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if is_timeout(&e) => return Err(FrameError::Idle),
                Err(e) => return Err(FrameError::Io(e)),
            },
            Some(at) => read_retrying(r, &mut byte, at)?,
        };
        if n == 0 {
            if header.is_empty() && started.is_none() {
                return Ok(None);
            }
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside frame header",
            )));
        }
        started.get_or_insert_with(std::time::Instant::now);
        match byte[0] {
            b'\n' => break,
            b'0'..=b'9' if header.len() < MAX_HEADER_DIGITS => header.push(byte[0]),
            _ => {
                header.push(byte[0]);
                return Err(FrameError::BadHeader(
                    String::from_utf8_lossy(&header).into_owned(),
                ));
            }
        }
    }
    let started = started.expect("consumed at least the newline");
    if header.is_empty() {
        return Err(FrameError::BadHeader("<empty>".to_string()));
    }
    let len: usize = std::str::from_utf8(&header)
        .expect("digits are UTF-8")
        .parse()
        .map_err(|_| FrameError::BadHeader(String::from_utf8_lossy(&header).into_owned()))?;
    if len > max_frame {
        // Skim the payload so the stream stays frame-aligned — unless the
        // claim is absurd, in which case give up rather than stream it.
        let recovered = len <= max_frame.saturating_mul(SKIM_FACTOR);
        if recovered {
            let mut chunk = [0u8; 4096];
            let mut remaining = len;
            while remaining > 0 {
                let want = remaining.min(chunk.len());
                let n = read_retrying(r, &mut chunk[..want], started)?;
                if n == 0 {
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF inside oversized payload",
                    )));
                }
                remaining -= n;
            }
        }
        return Err(FrameError::TooLarge {
            len,
            max: max_frame,
            recovered,
        });
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        let n = read_retrying(r, &mut payload[filled..], started)?;
        if n == 0 {
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside frame payload",
            )));
        }
        filled += n;
    }
    Ok(Some(payload))
}

/// Machine-readable error classes (the `code` field of error responses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The payload was not valid JSON.
    BadJson,
    /// The JSON was valid but not a well-formed request.
    BadRequest,
    /// The `program` field failed to parse as an IR expression.
    ParseError,
    /// A target name was not recognized.
    UnknownTarget,
    /// A requested budget exceeds the server's configured ceiling.
    BudgetTooLarge,
    /// The job queue is full — back off and retry.
    QueueFull,
    /// A machine-profile name was not recognized.
    UnknownProfile,
    /// No equivalent of the program has finite cost for some requested
    /// `(target, discount_scale, profile)` — extraction has no answer.
    Unextractable,
    /// A frame exceeded the server's size limit.
    FrameTooLarge,
    /// The frame stream lost synchronization (malformed header).
    BadFrame,
    /// The server is shutting down.
    ShuttingDown,
}

impl ErrorCode {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad-json",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::ParseError => "parse-error",
            ErrorCode::UnknownTarget => "unknown-target",
            ErrorCode::BudgetTooLarge => "budget-too-large",
            ErrorCode::UnknownProfile => "unknown-profile",
            ErrorCode::Unextractable => "unextractable",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }

    /// Parse a wire name.
    pub fn from_name(name: &str) -> Option<ErrorCode> {
        [
            ErrorCode::BadJson,
            ErrorCode::BadRequest,
            ErrorCode::ParseError,
            ErrorCode::UnknownTarget,
            ErrorCode::BudgetTooLarge,
            ErrorCode::UnknownProfile,
            ErrorCode::Unextractable,
            ErrorCode::QueueFull,
            ErrorCode::FrameTooLarge,
            ErrorCode::BadFrame,
            ErrorCode::ShuttingDown,
        ]
        .into_iter()
        .find(|c| c.name() == name)
    }
}

/// Parse a target's wire name (the same aliases the CLI accepts).
pub fn target_from_wire(name: &str) -> Option<Target> {
    match name {
        "blas" => Some(Target::Blas),
        "pytorch" | "torch" => Some(Target::Torch),
        "pure-c" | "purec" | "c" => Some(Target::PureC),
        _ => None,
    }
}

/// An `optimize` (or `explain`) request: a program plus the knobs that
/// are part of the request fingerprint. Missing knobs take the server's
/// defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeRequest {
    /// Optional client-chosen id, echoed in the response.
    pub id: Option<String>,
    /// The program, in the IR's s-expression syntax.
    pub program: String,
    /// Target names (wire names; empty means the server default, all
    /// three targets).
    pub targets: Vec<String>,
    /// Discount scales (empty means `[1.0]`).
    pub discount_scales: Vec<f64>,
    /// Machine-profile names to extract under (empty means
    /// `["default"]`). Profiles re-weight the cost model per machine —
    /// saturation runs once, extraction runs once per profile — and are
    /// part of the request fingerprint.
    pub profiles: Vec<String>,
    /// Saturation-step limit.
    pub steps: Option<usize>,
    /// E-node budget.
    pub node_limit: Option<usize>,
    /// Proof production: `true` serializes as the `explain` op, the
    /// server runs the pipeline with explanations enabled, and every
    /// solution in the response carries a [`ProofMsg`]. Part of the
    /// request fingerprint (explained and fast-path runs never share a
    /// cache entry), and cached explained reports replay their proofs
    /// bit-identically.
    pub explain: bool,
}

impl OptimizeRequest {
    /// A request for `program` with every knob defaulted.
    pub fn new(program: impl Into<String>) -> Self {
        OptimizeRequest {
            id: None,
            program: program.into(),
            targets: Vec::new(),
            discount_scales: Vec::new(),
            profiles: Vec::new(),
            steps: None,
            node_limit: None,
            explain: false,
        }
    }

    fn to_json(&self) -> Json {
        let op = if self.explain { "explain" } else { "optimize" };
        let mut pairs = vec![("op".to_string(), Json::Str(op.into()))];
        if let Some(id) = &self.id {
            pairs.push(("id".to_string(), Json::Str(id.clone())));
        }
        pairs.push(("program".to_string(), Json::Str(self.program.clone())));
        if !self.targets.is_empty() {
            pairs.push((
                "targets".to_string(),
                Json::Arr(self.targets.iter().map(|t| Json::Str(t.clone())).collect()),
            ));
        }
        if !self.discount_scales.is_empty() {
            pairs.push((
                "discount_scales".to_string(),
                Json::Arr(self.discount_scales.iter().map(|s| Json::Num(*s)).collect()),
            ));
        }
        if !self.profiles.is_empty() {
            pairs.push((
                "profiles".to_string(),
                Json::Arr(self.profiles.iter().map(|p| Json::Str(p.clone())).collect()),
            ));
        }
        if let Some(steps) = self.steps {
            pairs.push(("steps".to_string(), Json::Num(steps as f64)));
        }
        if let Some(limit) = self.node_limit {
            pairs.push(("node_limit".to_string(), Json::Num(limit as f64)));
        }
        Json::Obj(pairs)
    }

    fn from_json(j: &Json, explain: bool) -> Result<Self, String> {
        let program = j
            .get("program")
            .and_then(Json::as_str)
            .ok_or("missing string field \"program\"")?
            .to_string();
        let id = match j.get("id") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_str().ok_or("\"id\" must be a string")?.to_string()),
        };
        let targets = match j.get("targets") {
            None => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or("\"targets\" must be an array of strings")?
                .iter()
                .map(|t| {
                    t.as_str()
                        .map(str::to_string)
                        .ok_or("\"targets\" must be an array of strings")
                })
                .collect::<Result<_, _>>()?,
        };
        let discount_scales = match j.get("discount_scales") {
            None => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or("\"discount_scales\" must be an array of numbers")?
                .iter()
                .map(|s| {
                    s.as_f64()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or("\"discount_scales\" must be non-negative numbers")
                })
                .collect::<Result<_, _>>()?,
        };
        let profiles = match j.get("profiles") {
            None => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or("\"profiles\" must be an array of strings")?
                .iter()
                .map(|p| {
                    p.as_str()
                        .map(str::to_string)
                        .ok_or("\"profiles\" must be an array of strings")
                })
                .collect::<Result<_, _>>()?,
        };
        let steps = match j.get("steps") {
            None => None,
            Some(v) => Some(v.as_usize().ok_or("\"steps\" must be a non-negative integer")?),
        };
        let node_limit = match j.get("node_limit") {
            None => None,
            Some(v) => Some(
                v.as_usize()
                    .ok_or("\"node_limit\" must be a non-negative integer")?,
            ),
        };
        Ok(OptimizeRequest {
            id,
            program,
            targets,
            discount_scales,
            profiles,
            steps,
            node_limit,
            explain,
        })
    }
}

/// A request frame's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Optimize a program (with proofs when
    /// [`OptimizeRequest::explain`] is set — the `explain` op).
    Optimize(OptimizeRequest),
    /// Service + cache counters.
    Stats,
    /// Full metrics scrape: the server's counters, gauges and latency
    /// histograms rendered as Prometheus text exposition format.
    Metrics,
    /// Live e-graph introspection: the latest cold saturation's growth
    /// tables plus the last `tail` flight-recorder events.
    Introspect {
        /// Most flight events to return (the server clamps to its ring
        /// capacity).
        tail: usize,
    },
    /// Liveness probe.
    Ping,
    /// Drain and exit.
    Shutdown,
}

impl Request {
    /// Serialize to the wire payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let j = match self {
            Request::Optimize(r) => r.to_json(),
            Request::Stats => Json::obj([("op", Json::Str("stats".into()))]),
            Request::Metrics => Json::obj([("op", Json::Str("metrics".into()))]),
            Request::Introspect { tail } => Json::obj([
                ("op", Json::Str("introspect".into())),
                ("tail", Json::Num(*tail as f64)),
            ]),
            Request::Ping => Json::obj([("op", Json::Str("ping".into()))]),
            Request::Shutdown => Json::obj([("op", Json::Str("shutdown".into()))]),
        };
        j.to_json().into_bytes()
    }

    /// Parse a wire payload. The error is a human-readable message paired
    /// with the [`ErrorCode`] the server should answer with.
    pub fn from_payload(payload: &[u8]) -> Result<Request, (ErrorCode, String)> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| (ErrorCode::BadJson, format!("payload is not UTF-8: {e}")))?;
        let j = json::parse(text).map_err(|e| (ErrorCode::BadJson, e.to_string()))?;
        let op = j
            .get("op")
            .and_then(Json::as_str)
            .ok_or((ErrorCode::BadRequest, "missing string field \"op\"".into()))?;
        match op {
            "optimize" => OptimizeRequest::from_json(&j, false)
                .map(Request::Optimize)
                .map_err(|m| (ErrorCode::BadRequest, m)),
            "explain" => OptimizeRequest::from_json(&j, true)
                .map(Request::Optimize)
                .map_err(|m| (ErrorCode::BadRequest, m)),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "introspect" => {
                let tail = match j.get("tail") {
                    None => DEFAULT_INTROSPECT_TAIL,
                    Some(v) => v
                        .as_usize()
                        .ok_or((
                            ErrorCode::BadRequest,
                            "\"tail\" must be a non-negative integer".into(),
                        ))?,
                };
                Ok(Request::Introspect { tail })
            }
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err((
                ErrorCode::BadRequest,
                format!(
                    "unknown op {other:?} (expected optimize|explain|stats|metrics|\
                     introspect|ping|shutdown)"
                ),
            )),
        }
    }
}

/// One step of a [`ProofMsg`]: the whole term after the step, plus the
/// rule application that produced it. The before-term is implicit (the
/// previous step's `after`, or the proof's `source` for the first step),
/// so a proof serializes each intermediate term exactly once.
#[derive(Debug, Clone, PartialEq)]
pub struct ProofStepMsg {
    /// Name of the rewrite rule applied.
    pub rule: String,
    /// `"forward"` (left-to-right) or `"backward"`.
    pub direction: String,
    /// Child-index path from the root to the rewritten subterm.
    pub position: Vec<usize>,
    /// The whole term after this step, in the IR's textual syntax.
    pub after: String,
}

/// A serialized [`liar_ir::ArrayExplanation`]: the replayable certificate
/// an `explain` request attaches to every solution. Deserialize back
/// into a checkable proof with [`ProofMsg::to_explanation`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProofMsg {
    /// The source term (the submitted program).
    pub source: String,
    /// The final term (the solution's best expression).
    pub target: String,
    /// The rewrite chain (empty when source and target are one term).
    pub steps: Vec<ProofStepMsg>,
}

impl ProofMsg {
    /// Serialize a proof for the wire.
    pub fn from_explanation(proof: &ArrayExplanation) -> ProofMsg {
        ProofMsg {
            source: proof.source.to_string(),
            target: proof.target.to_string(),
            steps: proof
                .steps
                .iter()
                .map(|s| ProofStepMsg {
                    rule: s.rule.clone(),
                    direction: match s.direction {
                        Direction::Forward => "forward".to_string(),
                        Direction::Backward => "backward".to_string(),
                    },
                    position: s.position.clone(),
                    after: s.after.to_string(),
                })
                .collect(),
        }
    }

    /// Reconstruct the checkable proof: parse every term back into the
    /// canonical node tables proof terms use and rebuild the step chain
    /// (each step's before-term is the previous step's after-term).
    ///
    /// The result carries no trust from the wire — replay it with
    /// [`liar_egraph::Explanation::check`] against the rule set of the
    /// targets the request named; a tampered or truncated proof fails
    /// there.
    ///
    /// # Errors
    ///
    /// Returns a message when a term fails to parse or a direction tag is
    /// unknown.
    pub fn to_explanation(&self) -> Result<ArrayExplanation, String> {
        let term = |text: &str| -> Result<Expr, String> {
            text.parse::<Expr>()
                .map(|e| canonical_expr(&e))
                .map_err(|e| format!("proof term {text:?} does not parse: {e}"))
        };
        let source = term(&self.source)?;
        let target = term(&self.target)?;
        let mut steps = Vec::with_capacity(self.steps.len());
        let mut before = source.clone();
        for s in &self.steps {
            let after = term(&s.after)?;
            let direction = match s.direction.as_str() {
                "forward" => Direction::Forward,
                "backward" => Direction::Backward,
                other => return Err(format!("unknown proof direction {other:?}")),
            };
            steps.push(ProofStep {
                before: std::mem::replace(&mut before, after.clone()),
                after,
                rule: s.rule.clone(),
                direction,
                position: s.position.clone(),
            });
        }
        Ok(ArrayExplanation {
            source,
            target,
            steps,
        })
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("source", Json::Str(self.source.clone())),
            ("target", Json::Str(self.target.clone())),
            (
                "steps",
                Json::Arr(
                    self.steps
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("rule", Json::Str(s.rule.clone())),
                                ("direction", Json::Str(s.direction.clone())),
                                (
                                    "position",
                                    Json::Arr(
                                        s.position.iter().map(|&p| Json::Num(p as f64)).collect(),
                                    ),
                                ),
                                ("after", Json::Str(s.after.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let text = |field: &str| -> Result<String, String> {
            j.get(field)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("proof missing \"{field}\""))
        };
        let steps = j
            .get("steps")
            .and_then(Json::as_arr)
            .ok_or("proof missing \"steps\"")?
            .iter()
            .map(|s| {
                let field = |name: &str| -> Result<String, String> {
                    s.get(name)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or(format!("proof step missing \"{name}\""))
                };
                let position = s
                    .get("position")
                    .and_then(Json::as_arr)
                    .ok_or("proof step missing \"position\"")?
                    .iter()
                    .map(|p| p.as_usize().ok_or("proof position must be non-negative integers"))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(ProofStepMsg {
                    rule: field("rule")?,
                    direction: field("direction")?,
                    position,
                    after: field("after")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ProofMsg {
            source: text("source")?,
            target: text("target")?,
            steps,
        })
    }
}

/// One `(target, discount_scale, profile)` solution of an
/// [`OptimizeResponse`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolutionMsg {
    /// Target wire name.
    pub target: String,
    /// Discount scale this solution was extracted at.
    pub discount_scale: f64,
    /// Machine-profile name this solution was extracted under (absent on
    /// the wire means `"default"`).
    pub profile: String,
    /// Tree cost of the best expression.
    pub cost: f64,
    /// DAG cost (each selected e-class charged once).
    pub dag_cost: f64,
    /// Human-readable call summary, e.g. `1 × gemv`.
    pub solution: String,
    /// The best expression, in the IR's textual syntax.
    pub best: String,
    /// Library calls by family name.
    pub lib_calls: BTreeMap<String, usize>,
    /// The replayable certificate (present on `explain` responses).
    pub proof: Option<ProofMsg>,
}

impl SolutionMsg {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("target".to_string(), Json::Str(self.target.clone())),
            ("discount_scale".to_string(), Json::Num(self.discount_scale)),
            ("profile".to_string(), Json::Str(self.profile.clone())),
            ("cost".to_string(), Json::Num(self.cost)),
            ("dag_cost".to_string(), Json::Num(self.dag_cost)),
            ("solution".to_string(), Json::Str(self.solution.clone())),
            ("best".to_string(), Json::Str(self.best.clone())),
            (
                "lib_calls".to_string(),
                Json::Obj(
                    self.lib_calls
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
        ];
        if let Some(proof) = &self.proof {
            pairs.push(("proof".to_string(), proof.to_json()));
        }
        Json::Obj(pairs)
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        Ok(SolutionMsg {
            target: j
                .get("target")
                .and_then(Json::as_str)
                .ok_or("solution missing \"target\"")?
                .to_string(),
            discount_scale: j
                .get("discount_scale")
                .and_then(Json::as_f64)
                .ok_or("solution missing \"discount_scale\"")?,
            profile: j
                .get("profile")
                .and_then(Json::as_str)
                .unwrap_or("default")
                .to_string(),
            cost: j.get("cost").and_then(Json::as_f64).ok_or("solution missing \"cost\"")?,
            dag_cost: j
                .get("dag_cost")
                .and_then(Json::as_f64)
                .ok_or("solution missing \"dag_cost\"")?,
            solution: j
                .get("solution")
                .and_then(Json::as_str)
                .ok_or("solution missing \"solution\"")?
                .to_string(),
            best: j
                .get("best")
                .and_then(Json::as_str)
                .ok_or("solution missing \"best\"")?
                .to_string(),
            lib_calls: j
                .get("lib_calls")
                .and_then(Json::as_count_map)
                .ok_or("solution missing \"lib_calls\"")?,
            proof: match j.get("proof") {
                None | Some(Json::Null) => None,
                Some(p) => Some(ProofMsg::from_json(p)?),
            },
        })
    }
}

/// A successful `optimize` response.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeResponse {
    /// Echo of the request id, when one was given.
    pub id: Option<String>,
    /// The request fingerprint, 32 hex digits.
    pub fingerprint: String,
    /// Cache verdict: `hit`, `miss`, `coalesced`, `uncached`, or `warm`
    /// (restored from the durable snapshot store — extraction only).
    pub cache: String,
    /// Why saturation stopped.
    pub stop_reason: String,
    /// E-nodes in the final e-graph.
    pub n_nodes: usize,
    /// E-classes in the final e-graph.
    pub n_classes: usize,
    /// Wall-clock seconds the (original) saturation took.
    pub saturation_s: f64,
    /// Saturation steps the server ran to produce **this** answer: `0`
    /// when the report replayed from the in-memory cache or restored
    /// warm from the durable snapshot store (extraction only).
    pub saturation_steps: usize,
    /// Wall-clock milliseconds this request took inside the server,
    /// queueing included.
    pub server_ms: f64,
    /// One entry per `(target, discount_scale, profile)` — targets
    /// outermost, machine profiles innermost.
    pub solutions: Vec<SolutionMsg>,
}

/// Cache + service counters (`stats` response).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatsResponse {
    /// Cache hits (including in-process `optimize_multi` reuse).
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Entries stored.
    pub cache_insertions: u64,
    /// Entries evicted by the byte budget.
    pub cache_evictions: u64,
    /// Reports refused as larger than a whole shard.
    pub cache_rejected: u64,
    /// Live entries.
    pub cache_entries: usize,
    /// Estimated live bytes.
    pub cache_bytes: usize,
    /// Optimize requests accepted into the job queue (rejected
    /// submissions count toward `errors` instead).
    pub requests: u64,
    /// Error responses sent.
    pub errors: u64,
    /// Requests that coalesced onto an identical in-flight computation.
    pub coalesced: u64,
    /// Jobs that rode along in a drained batch (queue pops avoided).
    pub batched: u64,
    /// Jobs waiting in the bounded queue right now (a gauge).
    pub queue_depth: usize,
    /// Single-flight computations running right now (a gauge).
    pub inflight: usize,
    /// Median end-to-end request latency, milliseconds (0 until the
    /// first optimize request completes).
    pub latency_p50_ms: f64,
    /// 95th-percentile request latency, milliseconds.
    pub latency_p95_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub latency_p99_ms: f64,
}

impl StatsResponse {
    /// The counters as `(wire name, value)` pairs in declaration order —
    /// the keys of the `stats` reply and of `liar stats --json`.
    pub fn fields(&self) -> [(&'static str, f64); 16] {
        [
            ("cache_hits", self.cache_hits as f64),
            ("cache_misses", self.cache_misses as f64),
            ("cache_insertions", self.cache_insertions as f64),
            ("cache_evictions", self.cache_evictions as f64),
            ("cache_rejected", self.cache_rejected as f64),
            ("cache_entries", self.cache_entries as f64),
            ("cache_bytes", self.cache_bytes as f64),
            ("requests", self.requests as f64),
            ("errors", self.errors as f64),
            ("coalesced", self.coalesced as f64),
            ("batched", self.batched as f64),
            ("queue_depth", self.queue_depth as f64),
            ("inflight", self.inflight as f64),
            ("latency_p50_ms", self.latency_p50_ms),
            ("latency_p95_ms", self.latency_p95_ms),
            ("latency_p99_ms", self.latency_p99_ms),
        ]
    }
}

/// A full metrics scrape (`metrics` response): the server's counters,
/// gauges, per-phase time totals and latency histograms rendered
/// server-side as [Prometheus text exposition format] (version 0.0.4) —
/// the exact document `liar stats --prometheus` prints and a Prometheus
/// scraper ingests. See `docs/OBSERVABILITY.md` for the metric
/// catalogue.
///
/// [Prometheus text exposition format]: https://prometheus.io/docs/instrumenting/exposition_formats/
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsResponse {
    /// The Prometheus exposition document.
    pub prometheus: String,
}

/// An `introspect` response: the growth-attribution tables of the most
/// recent cold saturation the daemon ran (the same tables `liar inspect`
/// computes locally) plus the tail of its flight-recorder ring.
///
/// `report` is `None` until the first cold (non-replayed, non-restored)
/// optimization completes.
#[derive(Debug, Clone, PartialEq)]
pub struct IntrospectResponse {
    /// The per-rule funnel and composition tables, when a cold
    /// saturation has run.
    pub report: Option<InspectReport>,
    /// The last `tail` flight events, ascending sequence order.
    pub flight: Vec<FlightEvent>,
    /// Events that fell off the ring over the daemon's lifetime.
    pub flight_dropped: u64,
    /// Events recorded over the daemon's lifetime.
    pub flight_total: u64,
}

impl IntrospectResponse {
    /// Encode growth tables with a stable key order (struct order; rows
    /// keep the report's deterministic sort) — the `report` field of the
    /// `introspect` reply and the `liar inspect --json` document.
    pub fn report_to_json(report: &InspectReport) -> Json {
        Json::obj([
            ("n_nodes", Json::Num(report.n_nodes as f64)),
            ("n_classes", Json::Num(report.n_classes as f64)),
            ("nodes_retired", Json::Num(report.nodes_retired as f64)),
            ("steps", Json::Num(report.steps as f64)),
            (
                "rules",
                Json::Arr(
                    report
                        .rules
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::Str(r.name.clone())),
                                ("candidates", Json::Num(r.candidates as f64)),
                                ("matches", Json::Num(r.matches as f64)),
                                ("applied", Json::Num(r.applied as f64)),
                                ("nodes_created", Json::Num(r.nodes_created as f64)),
                                ("classes_created", Json::Num(r.classes_created as f64)),
                                ("classes_merged", Json::Num(r.classes_merged as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "ops",
                Json::Arr(
                    report
                        .ops
                        .iter()
                        .map(|o| {
                            Json::obj([
                                ("op", Json::Str(o.op.clone())),
                                ("nodes", Json::Num(o.nodes as f64)),
                                ("classes", Json::Num(o.classes as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn report_from_json(j: &Json) -> Result<InspectReport, String> {
        let num = |obj: &Json, name: &str| -> Result<f64, String> {
            obj.get(name)
                .and_then(Json::as_f64)
                .ok_or(format!("introspect report missing \"{name}\""))
        };
        let rules = j
            .get("rules")
            .and_then(Json::as_arr)
            .ok_or("introspect report missing \"rules\"")?
            .iter()
            .map(|r| {
                Ok(RuleRow {
                    name: r
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("rule row missing \"name\"")?
                        .to_string(),
                    candidates: num(r, "candidates")? as u64,
                    matches: num(r, "matches")? as u64,
                    applied: num(r, "applied")? as u64,
                    nodes_created: num(r, "nodes_created")? as u64,
                    classes_created: num(r, "classes_created")? as u64,
                    classes_merged: num(r, "classes_merged")? as u64,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let ops = j
            .get("ops")
            .and_then(Json::as_arr)
            .ok_or("introspect report missing \"ops\"")?
            .iter()
            .map(|o| {
                Ok(OpRow {
                    op: o
                        .get("op")
                        .and_then(Json::as_str)
                        .ok_or("op row missing \"op\"")?
                        .to_string(),
                    nodes: num(o, "nodes")? as u64,
                    classes: num(o, "classes")? as u64,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(InspectReport {
            rules,
            ops,
            n_nodes: num(j, "n_nodes")? as usize,
            n_classes: num(j, "n_classes")? as usize,
            nodes_retired: num(j, "nodes_retired")? as u64,
            steps: num(j, "steps")? as usize,
        })
    }

    /// The wire payload (`liar stats --inspect --json` prints this
    /// verbatim — stable key order, no re-encoding).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("ok".to_string(), Json::Bool(true)),
            ("introspect".to_string(), Json::Bool(true)),
        ];
        if let Some(report) = &self.report {
            pairs.push(("report".to_string(), Self::report_to_json(report)));
        }
        pairs.push((
            "flight".to_string(),
            Json::Arr(
                self.flight
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("seq", Json::Num(e.seq as f64)),
                            ("kind", Json::Str(e.kind.name().to_string())),
                            ("detail", Json::Str(e.detail.clone())),
                            ("value", Json::Num(e.value)),
                        ])
                    })
                    .collect(),
            ),
        ));
        pairs.push((
            "flight_dropped".to_string(),
            Json::Num(self.flight_dropped as f64),
        ));
        pairs.push((
            "flight_total".to_string(),
            Json::Num(self.flight_total as f64),
        ));
        Json::Obj(pairs)
    }

    fn from_json(j: &Json) -> Result<IntrospectResponse, String> {
        let report = match j.get("report") {
            None | Some(Json::Null) => None,
            Some(r) => Some(Self::report_from_json(r)?),
        };
        let flight = j
            .get("flight")
            .and_then(Json::as_arr)
            .ok_or("introspect response missing \"flight\"")?
            .iter()
            .filter_map(|e| {
                // Unknown kinds come from newer servers: skip the event
                // rather than failing the whole response.
                let kind = FlightKind::from_name(e.get("kind")?.as_str()?)?;
                Some(FlightEvent {
                    seq: e.get("seq").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                    kind,
                    detail: e
                        .get("detail")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    value: e.get("value").and_then(Json::as_f64).unwrap_or(0.0),
                })
            })
            .collect();
        let lenient = |name: &str| j.get(name).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        Ok(IntrospectResponse {
            report,
            flight,
            flight_dropped: lenient("flight_dropped"),
            flight_total: lenient("flight_total"),
        })
    }
}

/// A response frame's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A finished optimization.
    Optimize(OptimizeResponse),
    /// Counters.
    Stats(StatsResponse),
    /// A Prometheus-rendered metrics scrape.
    Metrics(MetricsResponse),
    /// Growth tables + flight-recorder tail.
    Introspect(IntrospectResponse),
    /// Ping acknowledgement.
    Pong,
    /// Shutdown acknowledgement (the server drains and exits after).
    ShuttingDown,
    /// Any failure.
    Error {
        /// Echo of the request id, when one was parseable.
        id: Option<String>,
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Serialize to the wire payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let j = match self {
            Response::Optimize(r) => {
                let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
                if let Some(id) = &r.id {
                    pairs.push(("id".to_string(), Json::Str(id.clone())));
                }
                pairs.extend([
                    ("fingerprint".to_string(), Json::Str(r.fingerprint.clone())),
                    ("cache".to_string(), Json::Str(r.cache.clone())),
                    ("stop_reason".to_string(), Json::Str(r.stop_reason.clone())),
                    ("n_nodes".to_string(), Json::Num(r.n_nodes as f64)),
                    ("n_classes".to_string(), Json::Num(r.n_classes as f64)),
                    ("saturation_s".to_string(), Json::Num(r.saturation_s)),
                    (
                        "saturation_steps".to_string(),
                        Json::Num(r.saturation_steps as f64),
                    ),
                    ("server_ms".to_string(), Json::Num(r.server_ms)),
                    (
                        "solutions".to_string(),
                        Json::Arr(r.solutions.iter().map(SolutionMsg::to_json).collect()),
                    ),
                ]);
                Json::Obj(pairs)
            }
            Response::Stats(s) => {
                let mut pairs = vec![
                    ("ok".to_string(), Json::Bool(true)),
                    ("stats".to_string(), Json::Bool(true)),
                ];
                pairs.extend(
                    s.fields()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(v))),
                );
                Json::Obj(pairs)
            }
            Response::Metrics(m) => Json::obj([
                ("ok", Json::Bool(true)),
                ("metrics", Json::Bool(true)),
                ("prometheus", Json::Str(m.prometheus.clone())),
            ]),
            Response::Introspect(r) => r.to_json(),
            Response::Pong => Json::obj([("ok", Json::Bool(true)), ("pong", Json::Bool(true))]),
            Response::ShuttingDown => Json::obj([
                ("ok", Json::Bool(true)),
                ("shutting_down", Json::Bool(true)),
            ]),
            Response::Error { id, code, message } => {
                let mut pairs = vec![("ok".to_string(), Json::Bool(false))];
                if let Some(id) = id {
                    pairs.push(("id".to_string(), Json::Str(id.clone())));
                }
                pairs.push(("code".to_string(), Json::Str(code.name().into())));
                pairs.push(("message".to_string(), Json::Str(message.clone())));
                Json::Obj(pairs)
            }
        };
        j.to_json().into_bytes()
    }

    /// Parse a wire payload (the client side).
    pub fn from_payload(payload: &[u8]) -> Result<Response, String> {
        let text =
            std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
        let j = json::parse(text).map_err(|e| e.to_string())?;
        let ok = j
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or("missing boolean field \"ok\"")?;
        if !ok {
            let code = j
                .get("code")
                .and_then(Json::as_str)
                .and_then(ErrorCode::from_name)
                .ok_or("error response missing \"code\"")?;
            let message = j
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            let id = j.get("id").and_then(Json::as_str).map(str::to_string);
            return Ok(Response::Error { id, code, message });
        }
        if j.get("pong").is_some() {
            return Ok(Response::Pong);
        }
        if j.get("shutting_down").is_some() {
            return Ok(Response::ShuttingDown);
        }
        if j.get("introspect").is_some() {
            return Ok(Response::Introspect(IntrospectResponse::from_json(&j)?));
        }
        if j.get("metrics").is_some() {
            return Ok(Response::Metrics(MetricsResponse {
                prometheus: j
                    .get("prometheus")
                    .and_then(Json::as_str)
                    .ok_or("metrics response missing \"prometheus\"")?
                    .to_string(),
            }));
        }
        if j.get("stats").is_some() {
            let field = |name: &str| -> Result<f64, String> {
                j.get(name)
                    .and_then(Json::as_f64)
                    .ok_or(format!("stats response missing \"{name}\""))
            };
            // Gauges and percentiles are absent from pre-observability
            // servers: default to 0 rather than failing the response.
            let lenient = |name: &str| j.get(name).and_then(Json::as_f64).unwrap_or(0.0);
            return Ok(Response::Stats(StatsResponse {
                cache_hits: field("cache_hits")? as u64,
                cache_misses: field("cache_misses")? as u64,
                cache_insertions: field("cache_insertions")? as u64,
                cache_evictions: field("cache_evictions")? as u64,
                cache_rejected: field("cache_rejected")? as u64,
                cache_entries: field("cache_entries")? as usize,
                cache_bytes: field("cache_bytes")? as usize,
                requests: field("requests")? as u64,
                errors: field("errors")? as u64,
                coalesced: field("coalesced")? as u64,
                batched: field("batched")? as u64,
                queue_depth: lenient("queue_depth") as usize,
                inflight: lenient("inflight") as usize,
                latency_p50_ms: lenient("latency_p50_ms"),
                latency_p95_ms: lenient("latency_p95_ms"),
                latency_p99_ms: lenient("latency_p99_ms"),
            }));
        }
        let str_field = |name: &str| -> Result<String, String> {
            j.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("optimize response missing \"{name}\""))
        };
        let solutions = j
            .get("solutions")
            .and_then(Json::as_arr)
            .ok_or("optimize response missing \"solutions\"")?
            .iter()
            .map(SolutionMsg::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Response::Optimize(OptimizeResponse {
            id: j.get("id").and_then(Json::as_str).map(str::to_string),
            fingerprint: str_field("fingerprint")?,
            cache: str_field("cache")?,
            stop_reason: str_field("stop_reason")?,
            n_nodes: j
                .get("n_nodes")
                .and_then(Json::as_usize)
                .ok_or("optimize response missing \"n_nodes\"")?,
            n_classes: j
                .get("n_classes")
                .and_then(Json::as_usize)
                .ok_or("optimize response missing \"n_classes\"")?,
            saturation_s: j
                .get("saturation_s")
                .and_then(Json::as_f64)
                .ok_or("optimize response missing \"saturation_s\"")?,
            // Absent from pre-snapshot servers: default to 0 rather than
            // failing the whole response.
            saturation_steps: j
                .get("saturation_steps")
                .and_then(Json::as_usize)
                .unwrap_or(0),
            server_ms: j
                .get("server_ms")
                .and_then(Json::as_f64)
                .ok_or("optimize response missing \"server_ms\"")?,
            solutions,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r, 1024).unwrap().as_deref(),
            Some(&b"{\"op\":\"ping\"}"[..])
        );
        assert_eq!(read_frame(&mut r, 1024).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r, 1024).unwrap(), None);
    }

    #[test]
    fn oversized_frames_are_skimmed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[b'x'; 100]).unwrap();
        write_frame(&mut buf, b"ok").unwrap();
        let mut r = Cursor::new(buf);
        match read_frame(&mut r, 10) {
            Err(FrameError::TooLarge {
                len: 100,
                max: 10,
                recovered: true,
            }) => {}
            other => panic!("expected recoverable TooLarge, got {other:?}"),
        }
        // The stream is still frame-aligned.
        assert_eq!(read_frame(&mut r, 10).unwrap().as_deref(), Some(&b"ok"[..]));
    }

    #[test]
    fn absurd_frames_are_not_skimmed() {
        let mut r = Cursor::new(b"999999999\nx".to_vec());
        match read_frame(&mut r, 10) {
            Err(FrameError::TooLarge {
                recovered: false, ..
            }) => {}
            other => panic!("expected unrecoverable TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn malformed_headers_fail() {
        for bad in [&b"abc\n{}"[..], b"12x4\n", b"\n", b"9999999999\n"] {
            let mut r = Cursor::new(bad.to_vec());
            assert!(
                matches!(read_frame(&mut r, 1024), Err(FrameError::BadHeader(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn truncated_payload_is_an_io_error() {
        let mut r = Cursor::new(b"10\nshort".to_vec());
        assert!(matches!(read_frame(&mut r, 1024), Err(FrameError::Io(_))));
    }

    /// A reader scripted with chunks and timeouts (`None` = one
    /// WouldBlock, as a socket with a read timeout produces).
    struct Scripted(Vec<Option<Vec<u8>>>);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0); // EOF
            }
            match self.0.remove(0) {
                None => Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout")),
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.insert(0, Some(chunk[n..].to_vec()));
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn timeout_at_frame_boundary_is_idle_and_consumes_nothing() {
        let mut r = Scripted(vec![None, Some(b"2\nok".to_vec())]);
        assert!(matches!(read_frame(&mut r, 1024), Err(FrameError::Idle)));
        // The next call reads the full frame — nothing was lost.
        assert_eq!(read_frame(&mut r, 1024).unwrap().as_deref(), Some(&b"ok"[..]));
    }

    #[test]
    fn timeouts_mid_frame_are_retried_not_desynchronized() {
        // Header split across a timeout, then payload dribbled around
        // more timeouts: a slow peer, not a protocol error.
        let mut r = Scripted(vec![
            Some(b"1".to_vec()),
            None,
            Some(b"3\nhel".to_vec()),
            None,
            None,
            Some(b"lo worl".to_vec()),
            None,
            Some(b"d!!".to_vec()),
        ]);
        assert_eq!(
            read_frame(&mut r, 1024).unwrap().as_deref(),
            Some(&b"hello world!!"[..])
        );
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Optimize(OptimizeRequest {
                id: Some("r1".into()),
                program: "(dot #8 xs ys)".into(),
                targets: vec!["blas".into(), "pytorch".into()],
                discount_scales: vec![1.0, 2.5],
                profiles: vec!["default".into(), "gpu".into()],
                steps: Some(6),
                node_limit: Some(10_000),
                explain: false,
            }),
            Request::Optimize(OptimizeRequest::new("(+ 1 2)")),
            // The explain op: same knobs, explain flag set.
            Request::Optimize(OptimizeRequest {
                explain: true,
                ..OptimizeRequest::new("(dot #8 xs ys)")
            }),
        ];
        for req in reqs {
            let payload = req.to_payload();
            let back = Request::from_payload(&payload).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn bad_requests_carry_codes() {
        let cases: [(&[u8], ErrorCode); 6] = [
            (b"not json", ErrorCode::BadJson),
            (b"{}", ErrorCode::BadRequest),
            (b"{\"op\":\"nope\"}", ErrorCode::BadRequest),
            // The snapshot-shipping ops are gone: unknown ops like any other.
            (b"{\"op\":\"snapshot\",\"fingerprint\":\"00\"}", ErrorCode::BadRequest),
            (b"{\"op\":\"optimize\"}", ErrorCode::BadRequest),
            (
                b"{\"op\":\"optimize\",\"program\":\"x\",\"steps\":-1}",
                ErrorCode::BadRequest,
            ),
        ];
        for (payload, code) in cases {
            let (got, _) = Request::from_payload(payload).unwrap_err();
            assert_eq!(got, code, "{:?}", String::from_utf8_lossy(payload));
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = [
            Response::Pong,
            Response::ShuttingDown,
            Response::Stats(StatsResponse {
                cache_hits: 3,
                requests: 7,
                ..Default::default()
            }),
            Response::Error {
                id: Some("r1".into()),
                code: ErrorCode::QueueFull,
                message: "try later".into(),
            },
            Response::Optimize(OptimizeResponse {
                id: None,
                fingerprint: "0".repeat(32),
                cache: "miss".into(),
                stop_reason: "saturated".into(),
                n_nodes: 120,
                n_classes: 40,
                saturation_s: 0.25,
                saturation_steps: 6,
                server_ms: 260.5,
                solutions: vec![
                    SolutionMsg {
                        target: "blas".into(),
                        discount_scale: 1.0,
                        profile: "default".into(),
                        cost: 64.0,
                        dag_cost: 60.0,
                        solution: "1 × dot".into(),
                        best: "(dot #8 xs ys)".into(),
                        lib_calls: [("dot".to_string(), 1)].into_iter().collect(),
                        proof: None,
                    },
                    SolutionMsg {
                        target: "pytorch".into(),
                        discount_scale: 1.0,
                        profile: "gpu".into(),
                        cost: 64.0,
                        dag_cost: 64.0,
                        solution: "1 × sum".into(),
                        best: "(sum #8 xs)".into(),
                        lib_calls: [("sum".to_string(), 1)].into_iter().collect(),
                        proof: Some(ProofMsg {
                            source: "(ifold #8 0 (lam (lam (+ (get xs %1) %0))))".into(),
                            target: "(sum #8 xs)".into(),
                            steps: vec![ProofStepMsg {
                                rule: "torch-sum".into(),
                                direction: "forward".into(),
                                position: vec![],
                                after: "(sum #8 xs)".into(),
                            }],
                        }),
                    },
                ],
            }),
        ];
        for resp in resps {
            let payload = resp.to_payload();
            let back = Response::from_payload(&payload).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn introspect_roundtrips() {
        // Requests: explicit tail, and the default when omitted.
        let req = Request::Introspect { tail: 17 };
        assert_eq!(Request::from_payload(&req.to_payload()).unwrap(), req);
        let defaulted = Request::from_payload(br#"{"op":"introspect"}"#).unwrap();
        assert_eq!(defaulted, Request::Introspect { tail: DEFAULT_INTROSPECT_TAIL });

        // Full response: tables + flight tail.
        let resp = Response::Introspect(IntrospectResponse {
            report: Some(InspectReport {
                rules: vec![RuleRow {
                    name: "idiom-gemv".into(),
                    candidates: 168,
                    matches: 94,
                    applied: 15,
                    nodes_created: 15,
                    classes_created: 15,
                    classes_merged: 15,
                }],
                ops: vec![OpRow { op: "gemv".into(), nodes: 10, classes: 5 }],
                n_nodes: 1864,
                n_classes: 251,
                nodes_retired: 12,
                steps: 8,
            }),
            flight: vec![FlightEvent {
                seq: 41,
                kind: FlightKind::CacheMiss,
                detail: "ab".repeat(16),
                value: 0.0,
            }],
            flight_dropped: 3,
            flight_total: 44,
        });
        assert_eq!(Response::from_payload(&resp.to_payload()).unwrap(), resp);

        // No cold saturation yet: the report key is absent, not null.
        let empty = Response::Introspect(IntrospectResponse {
            report: None,
            flight: vec![],
            flight_dropped: 0,
            flight_total: 0,
        });
        let payload = empty.to_payload();
        assert!(!String::from_utf8_lossy(&payload).contains("report"));
        assert_eq!(Response::from_payload(&payload).unwrap(), empty);

        // A newer server's unknown flight kind is skipped, not fatal.
        let forward = br#"{"ok":true,"introspect":true,"flight":[
            {"seq":1,"kind":"warp-drive-engaged","detail":"","value":1},
            {"seq":2,"kind":"cache_hit","detail":"f0","value":0}
        ],"flight_dropped":0,"flight_total":2}"#;
        match Response::from_payload(forward).unwrap() {
            Response::Introspect(r) => {
                assert_eq!(r.flight.len(), 1);
                assert_eq!(r.flight[0].kind, FlightKind::CacheHit);
            }
            other => panic!("expected introspect, got {other:?}"),
        }
    }

    #[test]
    fn optimize_responses_without_saturation_steps_parse_as_zero() {
        // Responses from servers predating snapshots omit the counter.
        let payload = br#"{"ok":true,"fingerprint":"00","cache":"miss",
            "stop_reason":"saturated","n_nodes":1,"n_classes":1,
            "saturation_s":0.1,"server_ms":1.0,"solutions":[]}"#;
        match Response::from_payload(payload).unwrap() {
            Response::Optimize(r) => assert_eq!(r.saturation_steps, 0),
            other => panic!("expected optimize, got {other:?}"),
        }
    }

    #[test]
    fn solutions_without_a_profile_parse_as_default() {
        // Responses from servers predating machine profiles omit the
        // field; clients read them as the identity profile.
        let j = json::parse(
            r#"{"target":"blas","discount_scale":1.0,"cost":2.0,"dag_cost":2.0,
                "solution":"1 × dot","best":"(dot #8 xs ys)","lib_calls":{"dot":1}}"#,
        )
        .unwrap();
        let s = SolutionMsg::from_json(&j).unwrap();
        assert_eq!(s.profile, "default");
    }

    #[test]
    fn proofs_deserialize_to_checkable_explanations() {
        // A forged proof round-trips the wire fine — and then fails
        // `check`, which is the point: the wire carries certificates,
        // trust lives in the replay.
        let msg = ProofMsg {
            source: "(dot #8 xs ys)".into(),
            target: "(sum #8 xs)".into(),
            steps: vec![ProofStepMsg {
                rule: "no-such-rule".into(),
                direction: "forward".into(),
                position: vec![],
                after: "(sum #8 xs)".into(),
            }],
        };
        let proof = msg.to_explanation().unwrap();
        assert_eq!(proof.len(), 1);
        // The chain is reconstructed: before of step 0 is the source.
        assert_eq!(proof.steps[0].before, proof.source);
        let rules = liar_core::rules::rules_for_targets(
            &[Target::Blas],
            &liar_core::rules::RuleConfig::default(),
        );
        assert!(proof.check(&rules).is_err());

        // Unparseable terms and unknown directions are structural errors.
        let mut bad = msg.clone();
        bad.source = "(((".into();
        assert!(bad.to_explanation().is_err());
        let mut bad = msg;
        bad.steps[0].direction = "sideways".into();
        assert!(bad.to_explanation().is_err());
    }

    #[test]
    fn target_wire_names() {
        assert_eq!(target_from_wire("blas"), Some(Target::Blas));
        assert_eq!(target_from_wire("torch"), Some(Target::Torch));
        assert_eq!(target_from_wire("pure-c"), Some(Target::PureC));
        assert_eq!(target_from_wire("fortran"), None);
    }
}
