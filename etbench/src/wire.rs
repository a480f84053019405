//! Clients that drive the in-process server over its wire protocol, and
//! the per-op, per-phase failure accounting.
//!
//! The server keeps one request in flight per connection, so each client
//! thread owns one blocking connection and multiplexes many sessions on
//! it. A typed error reply, a disconnect, or a `done` reply before the
//! schedule ends counts as a failed op.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use et_serve::{Client, CreateSessionSpec, Json, Request};

use crate::schedule::Due;

/// Attempted / succeeded / failed counts per `(op, phase)`.
#[derive(Debug, Clone, Default)]
pub struct Acct(BTreeMap<(&'static str, &'static str), [u64; 3]>);

impl Acct {
    /// Records one attempt of `op` during `phase`.
    pub fn record(&mut self, op: &'static str, phase: &'static str, ok: bool) {
        let c = self.0.entry((op, phase)).or_insert([0; 3]);
        c[0] += 1;
        c[if ok { 1 } else { 2 }] += 1;
    }

    /// Folds another thread's counts in.
    pub fn merge(&mut self, other: Acct) {
        for (k, v) in other.0 {
            let c = self.0.entry(k).or_insert([0; 3]);
            for i in 0..3 {
                c[i] += v[i];
            }
        }
    }

    /// Ops attempted, all phases.
    pub fn attempted(&self) -> u64 {
        self.0.values().map(|c| c[0]).sum()
    }

    /// Ops failed, all phases.
    pub fn failed(&self) -> u64 {
        self.0.values().map(|c| c[2]).sum()
    }

    /// One report line per `(op, phase)`.
    pub fn lines(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|((op, phase), c)| {
                format!(
                    "ops {phase:<6} {op:<13} attempted={} ok={} failed={}",
                    c[0], c[1], c[2]
                )
            })
            .collect()
    }
}

/// Outcome of one call: the reply kind on success.
fn call(
    client: &mut Client,
    req: &Request,
    op: &'static str,
    phase: &'static str,
    want: &str,
    acct: &mut Acct,
) -> Option<Json> {
    let ok = match client.call(req) {
        Ok(v) if v.get("reply").and_then(Json::as_str) == Some(want) => Some(v),
        Ok(v) => {
            eprintln!("{op}: expected {want:?} reply, got {}", v.encode());
            None
        }
        Err(e) => {
            eprintln!("{op}: {e}");
            None
        }
    };
    acct.record(op, phase, ok.is_some());
    ok
}

/// Connects a client, counting a refused connection as a failed op.
pub fn connect(addr: &str, phase: &'static str, acct: &mut Acct) -> Option<Client> {
    let c = Client::connect(addr)
        .map_err(|e| eprintln!("connect: {e}"))
        .ok();
    acct.record("connect", phase, c.is_some());
    c
}

/// Creates a session. Returns its id and the create latency in ms.
///
/// The seed is not read from the reply: `Response::Created` encodes it as
/// an f64, which cannot carry a server-derived 64-bit seed exactly. Callers
/// recompute it with `derive_seed(base_seed, id)`.
pub fn create(
    client: &mut Client,
    spec: &CreateSessionSpec,
    phase: &'static str,
    acct: &mut Acct,
) -> Option<(u64, f64)> {
    let t = Instant::now();
    let v = call(
        client,
        &Request::Create(spec.clone()),
        "create",
        phase,
        "created",
        acct,
    )?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    v.get("session").and_then(Json::as_u64).map(|id| (id, ms))
}

/// One hosted round: `next_pairs`, then `submit_labels` with the hosted
/// annotator's labels, sent as soon as the pairs arrive. Returns the MAE
/// of the labeled reply and the instant the pairs reply arrived.
pub fn round(
    client: &mut Client,
    session: u64,
    phase: &'static str,
    acct: &mut Acct,
) -> Option<(f64, Instant)> {
    call(
        client,
        &Request::NextPairs { session },
        "next_pairs",
        phase,
        "pairs",
        acct,
    )?;
    let pairs_at = Instant::now();
    let v = call(
        client,
        &Request::SubmitLabels {
            session,
            labels: None,
        },
        "submit_labels",
        phase,
        "labeled",
        acct,
    )?;
    let mae = v.get("metrics").and_then(|m| m.get("mae"))?.as_f64()?;
    Some((mae, pairs_at))
}

/// Closes a session.
pub fn close(client: &mut Client, session: u64, phase: &'static str, acct: &mut Acct) -> bool {
    call(
        client,
        &Request::Close { session },
        "close",
        phase,
        "closed",
        acct,
    )
    .is_some()
}

/// A session driven over the wire, with the MAE curve its replies carried.
#[derive(Debug, Clone)]
pub struct WireSession {
    /// Session id.
    pub id: u64,
    /// MAE of each labeled reply, in order.
    pub mae: Vec<f64>,
}

/// Timings of one scheduled round, from the window start.
#[derive(Debug, Clone, Copy)]
pub struct RoundRec {
    /// Rung the round belongs to.
    pub rung: usize,
    /// When it was due.
    pub due: Duration,
    /// When `next_pairs` was sent.
    pub sent: Duration,
    /// When the pairs reply arrived and `submit_labels` was sent.
    pub pairs: Duration,
    /// When the labeled reply arrived; `None` if the round failed.
    pub done: Option<Duration>,
}

/// Drives one connection through its due rounds. A round whose rung has
/// ended (plus `grace`) before it could be sent is abandoned: it was
/// offered but never attempted, so it lowers the rung's completion.
pub fn open_loop(
    client: &mut Client,
    sessions: &mut [WireSession],
    dues: &[Due],
    rung_ends: &[Duration],
    grace: Duration,
    t0: Instant,
    acct: &mut Acct,
) -> Vec<RoundRec> {
    let mut recs = Vec::with_capacity(dues.len());
    for d in dues {
        let now = Instant::now();
        if now > t0 + rung_ends[d.rung] + grace {
            continue;
        }
        let due = t0 + d.at;
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = t0.elapsed();
        let s = &mut sessions[d.session];
        let out = round(client, s.id, "window", acct);
        let (pairs, done) = match out {
            Some((mae, pairs_at)) => {
                s.mae.push(mae);
                (pairs_at - t0, Some(t0.elapsed()))
            }
            None => (sent, None),
        };
        recs.push(RoundRec {
            rung: d.rung,
            due: d.at,
            sent,
            pairs,
            done,
        });
    }
    recs
}

/// One churned session: created, driven for its rounds, closed.
#[derive(Debug, Clone)]
pub struct ChurnRec {
    /// Index into the workload's session list.
    pub index: usize,
    /// Session id.
    pub id: u64,
    /// Create latency, ms.
    pub create_ms: f64,
    /// MAE of each labeled reply.
    pub mae: Vec<f64>,
    /// Whether create, every round and the close succeeded.
    pub ok: bool,
    /// When the close reply arrived.
    pub finished: Instant,
}

/// Walks `list` closed-loop on one connection until `deadline`: create,
/// `rounds` hosted rounds, close; the next session starts when the
/// previous one is closed.
pub fn churn(
    client: &mut Client,
    list: &[(usize, CreateSessionSpec)],
    rounds: usize,
    deadline: Instant,
    acct: &mut Acct,
) -> Vec<ChurnRec> {
    let mut out = Vec::new();
    for (index, spec) in list {
        if Instant::now() >= deadline {
            break;
        }
        let Some((id, create_ms)) = create(client, spec, "window", acct) else {
            continue;
        };
        let mut mae = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            match round(client, id, "window", acct) {
                Some((m, _)) => mae.push(m),
                None => break,
            }
        }
        let ok = mae.len() == rounds && close(client, id, "window", acct);
        out.push(ChurnRec {
            index: *index,
            id,
            create_ms,
            mae,
            ok,
            finished: Instant::now(),
        });
    }
    out
}
