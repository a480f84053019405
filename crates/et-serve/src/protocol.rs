//! The wire protocol: newline-delimited JSON, one request and one response
//! per line.
//!
//! Grammar (every line is one compact JSON object):
//!
//! ```text
//! request  := {"op": OP, ...op-specific members}
//! OP       := "create_session" | "next_pairs" | "submit_labels"
//!           | "status" | "close_session" | "shutdown"
//! response := {"ok": true, "reply": KIND, ...} | {"ok": false, "error": CODE, "message": STR}
//! CODE     := "parse_error" | "bad_request" | "unknown_session" | "server_busy"
//!           | "wrong_phase" | "invalid_config" | "shutting_down" | "internal"
//!           | "protocol_error"
//! ```
//!
//! See DESIGN.md §9 for the full per-op member tables and the session
//! state machine.

use et_core::{IterationMetrics, StrategyKind};
use et_data::gen::DatasetName;

use crate::json::Json;
use crate::spec::CreateSessionSpec;

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Create a session; missing members take paper-shaped defaults.
    Create(CreateSessionSpec),
    /// Ask the learner for the next presentation of `session`.
    NextPairs {
        /// Target session id.
        session: u64,
    },
    /// Label the pending presentation. `labels: None` delegates to the
    /// hosted simulated annotator (batch-identical); `Some` supplies the
    /// caller's own per-tuple verdicts.
    SubmitLabels {
        /// Target session id.
        session: u64,
        /// One `dirty?` verdict per presented tuple, or `None` to let the
        /// hosted trainer label.
        labels: Option<Vec<bool>>,
    },
    /// Metrics snapshot: one session (`Some`) or the whole server (`None`).
    Status {
        /// Target session id, when asking about one session.
        session: Option<u64>,
    },
    /// Drop a session.
    Close {
        /// Target session id.
        session: u64,
    },
    /// Ask the server to shut down gracefully.
    Shutdown,
}

/// Typed error codes carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON.
    ParseError,
    /// The request was JSON but not a valid request.
    BadRequest,
    /// The session id names no live session.
    UnknownSession,
    /// The session store is at capacity.
    ServerBusy,
    /// The step was called out of phase (e.g. labels without a pending
    /// presentation).
    WrongPhase,
    /// The create spec or session config was rejected.
    InvalidConfig,
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// A server-side failure (e.g. durable storage refused a write). The
    /// session is untouched; the request may be retried.
    Internal,
    /// The byte stream violated the framing contract (e.g. a request line
    /// over the configured maximum length). The server closes the
    /// connection after this reply.
    ProtocolError,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::ParseError => "parse_error",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::ServerBusy => "server_busy",
            ErrorCode::WrongPhase => "wrong_phase",
            ErrorCode::InvalidConfig => "invalid_config",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
            ErrorCode::ProtocolError => "protocol_error",
        }
    }

    /// Parses the wire spelling.
    pub fn from_name(name: &str) -> Option<ErrorCode> {
        [
            ErrorCode::ParseError,
            ErrorCode::BadRequest,
            ErrorCode::UnknownSession,
            ErrorCode::ServerBusy,
            ErrorCode::WrongPhase,
            ErrorCode::InvalidConfig,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
            ErrorCode::ProtocolError,
        ]
        .into_iter()
        .find(|c| c.as_str() == name)
    }
}

/// One presented pair, by global row id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePair {
    /// First row.
    pub a: usize,
    /// Second row.
    pub b: usize,
}

/// A server reply.
#[derive(Debug, Clone)]
pub enum Response {
    /// Session created.
    Created {
        /// The new session id.
        session: u64,
        /// Rows in the generated table.
        rows: usize,
        /// Hypotheses in the FD space.
        fds: usize,
        /// Iteration budget.
        iterations: usize,
        /// The seed the session runs under (echoed so callers can
        /// reproduce the run in batch).
        seed: u64,
    },
    /// The next presentation: pairs to label.
    Pairs {
        /// Session id.
        session: u64,
        /// Iteration number (0-based).
        t: usize,
        /// Selected pairs (global row ids).
        pairs: Vec<WirePair>,
        /// Distinct presented rows, in order; labels align with this.
        sample: Vec<usize>,
        /// Rendered row texts, aligned with `sample`.
        tuples: Vec<String>,
    },
    /// The session has no further presentations.
    Done {
        /// Session id.
        session: u64,
        /// Interactions executed.
        iterations_run: usize,
        /// First stable iteration, when convergence was reached.
        converged_at: Option<usize>,
        /// Final trainer/learner MAE.
        final_mae: f64,
    },
    /// Labels absorbed; the iteration's metrics.
    Labeled {
        /// Session id.
        session: u64,
        /// The labels that were applied.
        labels: Vec<bool>,
        /// The full per-iteration metrics row.
        metrics: IterationMetrics,
    },
    /// Snapshot of one session.
    SessionStatus {
        /// Session id.
        session: u64,
        /// Interactions executed so far.
        iterations_done: usize,
        /// Iteration budget.
        iterations: usize,
        /// Whether a presentation awaits labels.
        awaiting_labels: bool,
        /// MAE curve so far.
        mae_series: Vec<f64>,
        /// Convergence point so far, if any.
        converged_at: Option<usize>,
        /// The learner's current per-FD confidences. f64 encoding is
        /// shortest-round-trip, so these compare *bit-exactly* across the
        /// wire — the crash-recovery harness leans on that.
        learner_confidences: Vec<f64>,
        /// The hosted trainer's current per-FD confidences.
        trainer_confidences: Vec<f64>,
    },
    /// Snapshot of the whole server.
    ServerStatus {
        /// Live sessions.
        live_sessions: usize,
        /// Capacity bound.
        capacity: usize,
        /// Sessions created since start.
        created_total: u64,
        /// Sessions evicted for idleness since start.
        evicted_total: u64,
        /// Sessions refused at capacity since start.
        busy_rejections: u64,
        /// Rounds timed by the server-side latency histogram.
        round_latency_samples: u64,
        /// Estimated p50 of `submit_labels` handling (hosted labeling +
        /// learner update + WAL append), ms; 0 before any sample.
        round_latency_p50_ms: f64,
        /// Estimated p99 of the same, ms; 0 before any sample.
        round_latency_p99_ms: f64,
    },
    /// Session dropped.
    Closed {
        /// Session id.
        session: u64,
    },
    /// Shutdown acknowledged; the listener is draining.
    ShuttingDown,
    /// Typed failure.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    /// `(code, message)` mirroring the wire error reply: `ParseError` for
    /// invalid JSON, `BadRequest` for valid JSON that is not a request.
    pub fn parse_line(line: &str) -> Result<Request, (ErrorCode, String)> {
        let v = Json::parse(line).map_err(|e| (ErrorCode::ParseError, e.to_string()))?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| (ErrorCode::BadRequest, "missing \"op\" member".to_string()))?;
        match op {
            "create_session" => Ok(Request::Create(parse_create(&v)?)),
            "next_pairs" => Ok(Request::NextPairs {
                session: required_session(&v)?,
            }),
            "submit_labels" => {
                let labels = match v.get("labels") {
                    None | Some(Json::Null) => None,
                    Some(Json::Arr(items)) => {
                        let mut out = Vec::with_capacity(items.len());
                        for item in items {
                            out.push(item.as_bool().ok_or_else(|| {
                                (
                                    ErrorCode::BadRequest,
                                    "\"labels\" must be an array of booleans".to_string(),
                                )
                            })?);
                        }
                        Some(out)
                    }
                    Some(_) => {
                        return Err((
                            ErrorCode::BadRequest,
                            "\"labels\" must be an array of booleans".to_string(),
                        ))
                    }
                };
                Ok(Request::SubmitLabels {
                    session: required_session(&v)?,
                    labels,
                })
            }
            "status" => Ok(Request::Status {
                session: optional_u64(&v, "session")?,
            }),
            "close_session" => Ok(Request::Close {
                session: required_session(&v)?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err((ErrorCode::BadRequest, format!("unknown op {other:?}"))),
        }
    }

    /// Encodes the request as one wire line (no trailing newline).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Create(spec) => {
                let mut members = vec![
                    ("op", Json::str("create_session")),
                    ("dataset", Json::str(spec.dataset.as_str())),
                    ("rows", Json::Num(spec.rows as f64)),
                    ("degree", Json::Num(spec.degree)),
                    ("strategy", Json::str(spec.strategy.as_str())),
                    ("iterations", Json::Num(spec.iterations as f64)),
                    (
                        "pairs_per_iteration",
                        Json::Num(spec.pairs_per_iteration as f64),
                    ),
                    ("test_frac", Json::Num(spec.test_frac)),
                ];
                if let Some(seed) = spec.seed {
                    members.push(("seed", seed_json(seed)));
                }
                Json::obj(members)
            }
            Request::NextPairs { session } => Json::obj(vec![
                ("op", Json::str("next_pairs")),
                ("session", Json::Num(*session as f64)),
            ]),
            Request::SubmitLabels { session, labels } => {
                let mut members = vec![
                    ("op", Json::str("submit_labels")),
                    ("session", Json::Num(*session as f64)),
                ];
                if let Some(labels) = labels {
                    members.push((
                        "labels",
                        Json::Arr(labels.iter().map(|&b| Json::Bool(b)).collect()),
                    ));
                }
                Json::obj(members)
            }
            Request::Status { session } => {
                let mut members = vec![("op", Json::str("status"))];
                if let Some(s) = session {
                    members.push(("session", Json::Num(*s as f64)));
                }
                Json::obj(members)
            }
            Request::Close { session } => Json::obj(vec![
                ("op", Json::str("close_session")),
                ("session", Json::Num(*session as f64)),
            ]),
            Request::Shutdown => Json::obj(vec![("op", Json::str("shutdown"))]),
        }
    }
}

fn required_session(v: &Json) -> Result<u64, (ErrorCode, String)> {
    optional_u64(v, "session")?.ok_or_else(|| {
        (
            ErrorCode::BadRequest,
            "missing \"session\" member".to_string(),
        )
    })
}

fn optional_u64(v: &Json, key: &str) -> Result<Option<u64>, (ErrorCode, String)> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(member) => member.as_u64().map(Some).ok_or_else(|| {
            (
                ErrorCode::BadRequest,
                format!("{key:?} must be a non-negative integer"),
            )
        }),
    }
}

fn optional_usize(v: &Json, key: &str) -> Result<Option<usize>, (ErrorCode, String)> {
    Ok(optional_u64(v, key)?.map(|n| n as usize))
}

fn optional_f64(v: &Json, key: &str) -> Result<Option<f64>, (ErrorCode, String)> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(member) => member
            .as_f64()
            .map(Some)
            .ok_or_else(|| (ErrorCode::BadRequest, format!("{key:?} must be a number"))),
    }
}

fn parse_create(v: &Json) -> Result<CreateSessionSpec, (ErrorCode, String)> {
    let mut spec = CreateSessionSpec::default();
    if let Some(name) = v.get("dataset") {
        let name = name.as_str().ok_or_else(|| {
            (
                ErrorCode::BadRequest,
                "\"dataset\" must be a string".to_string(),
            )
        })?;
        spec.dataset = DatasetName::ALL
            .into_iter()
            .find(|d| d.as_str().eq_ignore_ascii_case(name))
            .ok_or_else(|| (ErrorCode::BadRequest, format!("unknown dataset {name:?}")))?;
    }
    if let Some(name) = v.get("strategy") {
        let name = name.as_str().ok_or_else(|| {
            (
                ErrorCode::BadRequest,
                "\"strategy\" must be a string".to_string(),
            )
        })?;
        spec.strategy = StrategyKind::from_name(name)
            .ok_or_else(|| (ErrorCode::BadRequest, format!("unknown strategy {name:?}")))?;
    }
    if let Some(rows) = optional_usize(v, "rows")? {
        spec.rows = rows;
    }
    if let Some(degree) = optional_f64(v, "degree")? {
        spec.degree = degree;
    }
    if let Some(iterations) = optional_usize(v, "iterations")? {
        spec.iterations = iterations;
    }
    if let Some(pairs) = optional_usize(v, "pairs_per_iteration")? {
        spec.pairs_per_iteration = pairs;
    }
    if let Some(test_frac) = optional_f64(v, "test_frac")? {
        spec.test_frac = test_frac;
    }
    spec.seed = match v.get("seed") {
        None | Some(Json::Null) => None,
        Some(member) => Some(member.as_u64_or_decimal().ok_or_else(|| {
            (
                ErrorCode::BadRequest,
                "\"seed\" must be a non-negative integer or its decimal string".to_string(),
            )
        })?),
    };
    Ok(spec)
}

/// Seeds travel as decimal strings: a JSON number is an `f64` and carries
/// only 53 bits exactly, while server-derived seeds use all 64.
fn seed_json(seed: u64) -> Json {
    Json::Str(seed.to_string())
}

fn metrics_to_json(m: &IterationMetrics) -> Json {
    Json::obj(vec![
        ("t", Json::Num(m.t as f64)),
        ("mae", Json::Num(m.mae)),
        ("learner_f1", Json::Num(m.learner_f1)),
        ("learner_precision", Json::Num(m.learner_precision)),
        ("learner_recall", Json::Num(m.learner_recall)),
        ("trainer_f1", Json::Num(m.trainer_f1)),
        ("learner_drift", Json::Num(m.learner_drift)),
        ("trainer_drift", Json::Num(m.trainer_drift)),
        ("policy_entropy", Json::Num(m.policy_entropy)),
        ("dirty_labels", Json::Num(m.dirty_labels as f64)),
        ("phi_dirty", Json::Num(m.phi_dirty)),
        ("agreement", Json::Num(m.agreement)),
    ])
}

fn opt_num(v: Option<usize>) -> Json {
    match v {
        Some(n) => Json::Num(n as f64),
        None => Json::Null,
    }
}

impl Response {
    /// Encodes the response as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_json().encode()
    }

    fn to_json(&self) -> Json {
        match self {
            Response::Created {
                session,
                rows,
                fds,
                iterations,
                seed,
            } => ok_reply(
                "created",
                vec![
                    ("session", Json::Num(*session as f64)),
                    ("rows", Json::Num(*rows as f64)),
                    ("fds", Json::Num(*fds as f64)),
                    ("iterations", Json::Num(*iterations as f64)),
                    ("seed", seed_json(*seed)),
                ],
            ),
            Response::Pairs {
                session,
                t,
                pairs,
                sample,
                tuples,
            } => ok_reply(
                "pairs",
                vec![
                    ("session", Json::Num(*session as f64)),
                    ("t", Json::Num(*t as f64)),
                    (
                        "pairs",
                        Json::Arr(
                            pairs
                                .iter()
                                .map(|p| {
                                    Json::Arr(vec![Json::Num(p.a as f64), Json::Num(p.b as f64)])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "sample",
                        Json::Arr(sample.iter().map(|&r| Json::Num(r as f64)).collect()),
                    ),
                    (
                        "tuples",
                        Json::Arr(tuples.iter().map(|t| Json::str(t)).collect()),
                    ),
                ],
            ),
            Response::Done {
                session,
                iterations_run,
                converged_at,
                final_mae,
            } => ok_reply(
                "done",
                vec![
                    ("session", Json::Num(*session as f64)),
                    ("iterations_run", Json::Num(*iterations_run as f64)),
                    ("converged_at", opt_num(*converged_at)),
                    ("final_mae", Json::Num(*final_mae)),
                ],
            ),
            Response::Labeled {
                session,
                labels,
                metrics,
            } => ok_reply(
                "labeled",
                vec![
                    ("session", Json::Num(*session as f64)),
                    (
                        "labels",
                        Json::Arr(labels.iter().map(|&b| Json::Bool(b)).collect()),
                    ),
                    ("metrics", metrics_to_json(metrics)),
                ],
            ),
            Response::SessionStatus {
                session,
                iterations_done,
                iterations,
                awaiting_labels,
                mae_series,
                converged_at,
                learner_confidences,
                trainer_confidences,
            } => ok_reply(
                "session_status",
                vec![
                    ("session", Json::Num(*session as f64)),
                    ("iterations_done", Json::Num(*iterations_done as f64)),
                    ("iterations", Json::Num(*iterations as f64)),
                    ("awaiting_labels", Json::Bool(*awaiting_labels)),
                    (
                        "mae_series",
                        Json::Arr(mae_series.iter().map(|&m| Json::Num(m)).collect()),
                    ),
                    ("converged_at", opt_num(*converged_at)),
                    (
                        "learner_confidences",
                        Json::Arr(learner_confidences.iter().map(|&c| Json::Num(c)).collect()),
                    ),
                    (
                        "trainer_confidences",
                        Json::Arr(trainer_confidences.iter().map(|&c| Json::Num(c)).collect()),
                    ),
                ],
            ),
            Response::ServerStatus {
                live_sessions,
                capacity,
                created_total,
                evicted_total,
                busy_rejections,
                round_latency_samples,
                round_latency_p50_ms,
                round_latency_p99_ms,
            } => ok_reply(
                "server_status",
                vec![
                    ("live_sessions", Json::Num(*live_sessions as f64)),
                    ("capacity", Json::Num(*capacity as f64)),
                    ("created_total", Json::Num(*created_total as f64)),
                    ("evicted_total", Json::Num(*evicted_total as f64)),
                    ("busy_rejections", Json::Num(*busy_rejections as f64)),
                    (
                        "round_latency_samples",
                        Json::Num(*round_latency_samples as f64),
                    ),
                    ("round_latency_p50_ms", Json::Num(*round_latency_p50_ms)),
                    ("round_latency_p99_ms", Json::Num(*round_latency_p99_ms)),
                ],
            ),
            Response::Closed { session } => {
                ok_reply("closed", vec![("session", Json::Num(*session as f64))])
            }
            Response::ShuttingDown => ok_reply("shutting_down", vec![]),
            Response::Error { code, message } => Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::str(code.as_str())),
                ("message", Json::str(message)),
            ]),
        }
    }
}

fn ok_reply(kind: &str, rest: Vec<(&str, Json)>) -> Json {
    let mut members = vec![("ok", Json::Bool(true)), ("reply", Json::str(kind))];
    members.extend(rest);
    Json::obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_round_trips_through_parse() {
        let spec = CreateSessionSpec {
            dataset: DatasetName::Hospital,
            rows: 120,
            degree: 0.2,
            strategy: StrategyKind::UncertaintySampling,
            iterations: 12,
            pairs_per_iteration: 4,
            test_frac: 0.25,
            seed: Some(99),
        };
        let derived = crate::spec::derive_seed(0x5EED, 7);
        for seed in [Some(99), Some(u64::MAX), Some(derived), None] {
            let spec = CreateSessionSpec {
                seed,
                ..spec.clone()
            };
            let line = Request::Create(spec.clone()).to_json().encode();
            let Ok(Request::Create(parsed)) = Request::parse_line(&line) else {
                panic!("create should re-parse: {line}");
            };
            assert_eq!(parsed.dataset.as_str(), spec.dataset.as_str());
            assert_eq!(parsed.rows, spec.rows);
            assert_eq!(parsed.degree, spec.degree);
            assert_eq!(parsed.strategy, spec.strategy);
            assert_eq!(parsed.iterations, spec.iterations);
            assert_eq!(parsed.pairs_per_iteration, spec.pairs_per_iteration);
            assert_eq!(parsed.test_frac, spec.test_frac);
            assert_eq!(parsed.seed, spec.seed);
        }
        // The reply echoes every seed exactly, and a seed sent as a JSON
        // number still parses when it is an exact integer.
        for seed in [u64::MAX, derived] {
            let reply = Response::Created {
                session: 1,
                rows: 1,
                fds: 1,
                iterations: 1,
                seed,
            }
            .encode();
            let v = Json::parse(&reply).expect("reply is JSON");
            assert_eq!(v.get("seed").and_then(Json::as_u64_or_decimal), Some(seed));
        }
        let numeric = "{\"op\":\"create_session\",\"seed\":9007199254740991}";
        let Ok(Request::Create(parsed)) = Request::parse_line(numeric) else {
            panic!("numeric seed should parse");
        };
        assert_eq!(parsed.seed, Some((1 << 53) - 1));
    }

    #[test]
    fn empty_create_takes_defaults() {
        let Ok(Request::Create(spec)) = Request::parse_line("{\"op\":\"create_session\"}") else {
            panic!("bare create should parse");
        };
        assert_eq!(spec.rows, CreateSessionSpec::default().rows);
        assert_eq!(spec.seed, None);
    }

    #[test]
    fn bad_requests_get_typed_codes() {
        let cases = [
            ("not json", ErrorCode::ParseError),
            ("{}", ErrorCode::BadRequest),
            ("{\"op\":\"fly\"}", ErrorCode::BadRequest),
            ("{\"op\":\"next_pairs\"}", ErrorCode::BadRequest),
            (
                "{\"op\":\"next_pairs\",\"session\":-1}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"op\":\"submit_labels\",\"session\":1,\"labels\":[1]}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"op\":\"create_session\",\"dataset\":\"Mars\"}",
                ErrorCode::BadRequest,
            ),
        ];
        for (line, want) in cases {
            match Request::parse_line(line) {
                Err((code, _)) => assert_eq!(code, want, "{line}"),
                Ok(r) => panic!("{line} should fail, got {r:?}"),
            }
        }
    }

    #[test]
    fn submit_labels_distinguishes_hosted_from_explicit() {
        let Ok(Request::SubmitLabels { labels: None, .. }) =
            Request::parse_line("{\"op\":\"submit_labels\",\"session\":3}")
        else {
            panic!("hosted submit should parse");
        };
        let Ok(Request::SubmitLabels {
            labels: Some(ls), ..
        }) =
            Request::parse_line("{\"op\":\"submit_labels\",\"session\":3,\"labels\":[true,false]}")
        else {
            panic!("explicit submit should parse");
        };
        assert_eq!(ls, vec![true, false]);
    }

    #[test]
    fn responses_encode_as_single_lines() {
        let responses = [
            Response::Created {
                session: 1,
                rows: 100,
                fds: 12,
                iterations: 30,
                seed: 42,
            },
            Response::Done {
                session: 1,
                iterations_run: 30,
                converged_at: None,
                final_mae: 0.03125,
            },
            Response::ShuttingDown,
            Response::Error {
                code: ErrorCode::ServerBusy,
                message: "at capacity".to_string(),
            },
        ];
        for r in responses {
            let line = r.encode();
            assert!(!line.contains('\n'), "{line}");
            assert!(crate::json::Json::parse(&line).is_ok(), "{line}");
        }
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::ParseError,
            ErrorCode::BadRequest,
            ErrorCode::UnknownSession,
            ErrorCode::ServerBusy,
            ErrorCode::WrongPhase,
            ErrorCode::InvalidConfig,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
            ErrorCode::ProtocolError,
        ] {
            assert_eq!(ErrorCode::from_name(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::from_name("nope"), None);
    }
}
