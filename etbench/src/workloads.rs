//! The three workloads, each measured with tracing off.
//!
//! * `interactive` — open-loop rounds on a fixed set of default-spec
//!   sessions (OMDB, 160 rows), in-memory store.
//! * `churn` — closed-loop create → 10 rounds → close over a fixed list of
//!   1,000-row sessions rotating the four datasets.
//! * `repro` — every registered experiment at the default options, in
//!   registry order, twice, with a digest check of every output.
//!
//! The end-to-end metrics are the same names on every workload (see
//! `NOTES.md` for each workload's definition of each).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use et_data::gen::DatasetName;
use et_data::{inject_errors, InjectConfig};
use et_experiments::{all_experiments, RunOptions};
use et_fd::{Fd, HypothesisSpace};
use et_serve::{
    derive_seed, run_batch, spawn, Client, CreateSessionSpec, ServerConfig, ServerHandle,
};

use crate::schedule::{
    connection_schedule, max_passing_rate, rung_starts, Limits, Rung, RungOutcome, SplitMix,
};
use crate::stats::{median, percentiles, sliced_quantile};
use crate::wire::{self, Acct, RoundRec, WireSession};

/// Client threads and connections: at most the host's two cores.
pub const CONNS: usize = 2;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Per-op, per-phase counts.
    pub acct: Acct,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (printed before the result).
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome with no metrics whose checks have not failed yet.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed check.
    pub fn fail(&mut self, why: impl Into<String>) {
        let why = why.into();
        eprintln!("check failed: {why}");
        self.notes.push(format!("CHECK FAILED: {why}"));
        self.correct = false;
    }
}

/// The server's base seed for a benchmark seed.
pub fn base_seed(seed: u64) -> u64 {
    SplitMix::new(seed).next_u64()
}

/// The in-process server at its default configuration (in-memory store);
/// the benchmark sets only capacity and base seed.
pub fn server(base: u64, capacity: usize) -> ServerHandle {
    let mut cfg = ServerConfig::default();
    cfg.store.capacity = capacity;
    cfg.store.base_seed = base;
    spawn(cfg).expect("spawn the in-process server")
}

/// Graceful stop: shutdown, join every thread, flush journals.
pub fn stop(h: ServerHandle) {
    h.shutdown();
    h.wait();
}

/// Per-run scratch directory inside the checkout (the benchmark writes
/// nowhere else); `.gitignore` lists it.
pub fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(".bench_data").join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `f` on `CONNS` scoped threads, one per item group, and collects
/// the results in group order.
pub fn par<T: Send, R: Send>(groups: Vec<T>, f: impl Fn(usize, T) -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let handles: Vec<_> = groups
            .into_iter()
            .enumerate()
            .map(|(i, g)| {
                let f = &f;
                s.spawn(move || f(i, g))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark thread panicked"))
            .collect()
    })
}

/// Splits `0..n` round-robin into `CONNS` groups.
fn split(n: usize) -> Vec<Vec<usize>> {
    let mut g = vec![Vec::new(); CONNS];
    for i in 0..n {
        g[i % CONNS].push(i);
    }
    g
}

/// Whether `wire` is, bit for bit, a prefix of `batch`.
pub fn is_bit_prefix(wire: &[f64], batch: &[f64]) -> bool {
    wire.len() <= batch.len()
        && wire
            .iter()
            .zip(batch)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Checks every session's wire MAE curve, bit for bit, against the prefix
/// of the batch run with the same spec and derived seed.
pub fn check_against_batch(
    out: &mut Outcome,
    base: u64,
    sessions: Vec<(CreateSessionSpec, u64, Vec<f64>)>,
) {
    let groups = split(sessions.len())
        .into_iter()
        .map(|idx| idx.into_iter().map(|i| &sessions[i]).collect::<Vec<_>>())
        .collect();
    let verdicts = par(groups, |_, group| {
        group
            .into_iter()
            .map(
                |(spec, id, mae)| match run_batch(spec, derive_seed(base, *id)) {
                    Ok(batch) if is_bit_prefix(mae, &batch.mae_series()) => Ok(()),
                    Ok(_) => Err(format!("session {id}: wire MAE differs from batch")),
                    Err(e) => Err(format!("session {id}: batch failed: {e}")),
                },
            )
            .collect::<Vec<_>>()
    });
    for v in verdicts.into_iter().flatten() {
        out.acct.record("batch_check", "verify", v.is_ok());
        if let Err(why) = v {
            out.fail(why);
        }
    }
}

// ---------------------------------------------------------------------------
// interactive
// ---------------------------------------------------------------------------

/// The open-loop workload's shape.
struct OpenPlan {
    /// Sessions created during set-up.
    sessions: usize,
    /// The offered-rate ladder; the first rung is the reference rate the
    /// latency metrics are taken at.
    rungs: Vec<Rung>,
    /// Rung pass criteria.
    limits: Limits,
    /// Set-ups per run (the median is reported).
    setups: usize,
}

const GAP: Duration = Duration::from_millis(250);
/// Slices of a rung the gated figures are medians over.
const SLICES: usize = 5;
const GRACE: Duration = Duration::from_millis(100);

fn open_plan(seconds: f64) -> OpenPlan {
    // Measured on 2 cores: the server completes 1,200 rounds/s with a p99
    // of a few ms and falls behind near 1,500. The top rung offers far
    // more than two connections complete.
    let reference = 400.0;
    let ladder = [800.0, 1200.0];
    let mut rungs = vec![Rung {
        rate: reference,
        secs: seconds * 0.45,
    }];
    rungs.extend(ladder.iter().map(|&rate| Rung {
        rate,
        secs: seconds * 0.25 / ladder.len() as f64,
    }));
    // What the overload rung completes is the closed-loop capacity of the
    // connections.
    rungs.push(Rung {
        rate: 2400.0,
        secs: seconds * 0.3,
    });
    // A session's pool of about 2,000 pairs runs dry after roughly 270 to
    // 390 rounds of 5 pairs, so sessions are added until none is owed more
    // than 150 rounds.
    let rounds: f64 = rungs.iter().map(|r| r.rate * r.secs).sum();
    let sessions = ((rounds / 150.0 / CONNS as f64).ceil() as usize).max(16) * CONNS;
    OpenPlan {
        sessions,
        rungs,
        limits: Limits {
            next_pairs_p99_ms: 50.0,
            completion: 0.99,
            lag_growth_ms: 1.0,
        },
        setups: 7,
    }
}

/// p50, p90 and p99 of `samples`. Only a median is gated: on a shared
/// two-core host, stalls of 5-25 ms and drifts of 15-30 % over minutes
/// move the tails by more than any allowed bound from run to run, so the
/// tails are reported in the notes.
fn latency_quantiles(samples: &[f64]) -> [f64; 3] {
    let v = percentiles(samples, &[0.5, 0.9, 0.99]);
    [0, 1, 2].map(|i| v[i].unwrap_or(0.0))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Spawns a server and creates `n` sessions of `spec` over `CONNS`
/// connections. Returns the handle, the connected clients and each
/// connection's sessions.
fn open_setup(
    base: u64,
    spec: &CreateSessionSpec,
    n: usize,
    acct: &mut Acct,
) -> (ServerHandle, Vec<(Client, Vec<WireSession>)>) {
    let h = server(base, n + 8);
    let addr = h.addr().to_string();
    let per_conn = par(split(n), |_, idx| {
        let mut a = Acct::default();
        let Some(mut c) = wire::connect(&addr, "setup", &mut a) else {
            return (None, a);
        };
        let mut sessions = Vec::with_capacity(idx.len());
        for _ in idx {
            if let Some((id, _)) = wire::create(&mut c, spec, "setup", &mut a) {
                sessions.push(WireSession {
                    id,
                    mae: Vec::new(),
                });
            }
        }
        (Some((c, sessions)), a)
    });
    let mut conns = Vec::new();
    for (c, a) in per_conn {
        acct.merge(a);
        conns.extend(c);
    }
    (h, conns)
}

fn evaluate_rungs(
    plan: &OpenPlan,
    starts: &[Duration],
    dues: &[usize],
    recs: &[RoundRec],
) -> Vec<RungOutcome> {
    plan.rungs
        .iter()
        .enumerate()
        .map(|(ri, rung)| {
            let end = starts[ri] + Duration::from_secs_f64(rung.secs) + GRACE;
            let mut in_rung: Vec<&RoundRec> = recs.iter().filter(|r| r.rung == ri).collect();
            in_rung.sort_by_key(|r| r.due);
            let completed: Vec<&&RoundRec> = in_rung
                .iter()
                .filter(|r| r.done.is_some_and(|d| d <= end))
                .collect();
            let mut np: Vec<f64> = completed
                .iter()
                .map(|r| ms(r.pairs.saturating_sub(r.due)))
                .collect();
            np.resize(dues[ri], f64::INFINITY);
            let lag: Vec<f64> = in_rung
                .iter()
                .map(|r| ms(r.sent.saturating_sub(r.due)))
                .collect();
            let q = (lag.len() / 4).max(1).min(lag.len());
            RungOutcome {
                rate: rung.rate,
                offered: dues[ri],
                completed: completed.len(),
                next_pairs_p99_ms: percentiles(&np, &[0.99])[0].unwrap_or(f64::INFINITY),
                lag_first_quarter_ms: median(&lag[..q]).unwrap_or(0.0),
                lag_last_quarter_ms: median(&lag[lag.len() - q..]).unwrap_or(0.0),
            }
        })
        .collect()
}

/// Total size and count of the files under `dir` whose names satisfy
/// `pick`.
fn bytes_where(dir: &Path, pick: impl Fn(&str) -> bool + Copy) -> (u64, usize) {
    let mut total = (0u64, 0usize);
    for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = e.path();
        if path.is_dir() {
            let (b, n) = bytes_where(&path, pick);
            total = (total.0 + b, total.1 + n);
        } else if pick(&e.file_name().to_string_lossy()) {
            total = (
                total.0 + e.metadata().map(|m| m.len()).unwrap_or(0),
                total.1 + 1,
            );
        }
    }
    total
}

/// WAL and snapshot bytes per round under a data directory. Snapshots are
/// pruned as they are replaced, so their bytes are estimated as the mean
/// size of those on disk times the number written.
pub fn journal_bytes_per_round(dir: &Path, rounds: usize, snapshots: usize) -> (f64, f64) {
    let (wal, _) = bytes_where(dir, |n| n.ends_with(".wal"));
    let (snap, n_snap) = bytes_where(dir, |n| n.starts_with("snap-"));
    let rounds = rounds.max(1) as f64;
    (
        wal as f64 / rounds,
        snap as f64 / n_snap.max(1) as f64 * snapshots as f64 / rounds,
    )
}

/// `interactive`.
pub fn interactive(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    let base = base_seed(seed);
    let plan = open_plan(seconds);
    let starts = rung_starts(&plan.rungs, GAP);
    let schedules: Vec<Vec<crate::schedule::Due>> = (0..CONNS)
        .map(|c| connection_schedule(seed, &plan.rungs, GAP, CONNS, c, plan.sessions / CONNS))
        .collect();
    // Iterations sized so that no session runs dry before the schedule
    // ends (a `done` reply mid-window would count as a failure).
    let most = schedules
        .iter()
        .flat_map(|s| {
            let mut n = vec![0usize; plan.sessions / CONNS];
            for d in s {
                n[d.session] += 1;
            }
            n
        })
        .max()
        .unwrap_or(0);
    let spec = CreateSessionSpec {
        iterations: most + 1,
        ..CreateSessionSpec::default()
    };

    // Set-up, several times; the last one is kept.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..plan.setups {
        let t = Instant::now();
        let (h, conns) = open_setup(base, &spec, plan.sessions, &mut out.acct);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((h, _)) = kept.replace((h, conns)) {
            stop(h);
        }
    }
    let (h, conns) = kept.expect("at least one set-up");
    out.metric("setup_s", "s", median(&setup_s).unwrap_or(0.0));

    // The window: every connection walks its own due rounds.
    let t0 = Instant::now() + Duration::from_millis(50);
    let rung_ends: Vec<Duration> = plan
        .rungs
        .iter()
        .zip(&starts)
        .map(|(r, s)| *s + Duration::from_secs_f64(r.secs))
        .collect();
    let results = par(
        conns.into_iter().zip(schedules.iter()).collect(),
        |_, ((mut client, mut sessions), dues)| {
            let mut a = Acct::default();
            let recs = wire::open_loop(
                &mut client,
                &mut sessions,
                dues,
                &rung_ends,
                GRACE,
                t0,
                &mut a,
            );
            (client, sessions, recs, a)
        },
    );
    let mut clients = Vec::new();
    let mut sessions = Vec::new();
    let mut recs = Vec::new();
    for (c, s, r, a) in results {
        clients.push(c);
        sessions.push(s);
        recs.extend(r);
        out.acct.merge(a);
    }
    let dues: Vec<usize> = (0..plan.rungs.len())
        .map(|ri| schedules.iter().flatten().filter(|d| d.rung == ri).count())
        .collect();
    let outcomes = evaluate_rungs(&plan, &starts, &dues, &recs);

    // End-to-end metrics at the reference rung.
    let mut ref_recs: Vec<&RoundRec> = recs.iter().filter(|r| r.rung == 0).collect();
    ref_recs.sort_by_key(|r| r.due);
    let round_ms: Vec<f64> = ref_recs
        .iter()
        .filter_map(|r| r.done.map(|d| ms(d.saturating_sub(r.due))))
        .collect();
    // The gated figures are medians over slices of the rung, so a
    // transient host stall in one slice does not move them; whole-rung
    // quantiles go to the report.
    let [p50, p90, p99] = latency_quantiles(&round_ms);
    out.metric(
        "latency_ms_p50",
        "ms",
        sliced_quantile(&round_ms, SLICES, 0.5).unwrap_or(0.0),
    );
    let max_rate = max_passing_rate(&outcomes, &plan.limits).unwrap_or(0.0);
    let top = plan.rungs.len() - 1;
    let slice = plan.rungs[top].secs / SLICES as f64;
    let per_slice: Vec<f64> = (0..SLICES)
        .map(|k| {
            let from = starts[top] + Duration::from_secs_f64(slice * k as f64);
            let to = from + Duration::from_secs_f64(slice);
            recs.iter()
                .filter(|r| r.done.is_some_and(|d| d > from && d <= to))
                .count() as f64
                / slice
        })
        .collect();
    out.metric("throughput_per_s", "1/s", median(&per_slice).unwrap_or(0.0));

    out.note(format!(
        "reference rung {} rounds/s: round latency from due over {} rounds: p50={p50:.4} p90={p90:.4} p99={p99:.4} ms",
        plan.rungs[0].rate,
        round_ms.len()
    ));
    for (ri, o) in outcomes.iter().enumerate() {
        let rr: Vec<&RoundRec> = recs
            .iter()
            .filter(|r| r.rung == ri && r.done.is_some())
            .collect();
        let np: Vec<f64> = rr
            .iter()
            .map(|r| ms(r.pairs.saturating_sub(r.due)))
            .collect();
        let sub: Vec<f64> = rr
            .iter()
            .filter_map(|r| r.done.map(|d| ms(d.saturating_sub(r.pairs))))
            .collect();
        let lag: Vec<f64> = rr
            .iter()
            .map(|r| ms(r.sent.saturating_sub(r.due)))
            .collect();
        let p = |v: &[f64], q: f64| percentiles(v, &[q])[0].unwrap_or(f64::NAN);
        out.note(format!(
            "rung {:>6.0}/s offered={} completion={:.4} next_pairs_ms p50={:.3} p99={:.3} submit_ms p50={:.3} p99={:.3} lag_ms p99={:.3} lag_growth_ms={:.3} {}",
            o.rate,
            o.offered,
            o.completion(),
            p(&np, 0.5),
            o.next_pairs_p99_ms,
            p(&sub, 0.5),
            p(&sub, 0.99),
            p(&lag, 0.99),
            o.lag_last_quarter_ms - o.lag_first_quarter_ms,
            if o.passes(&plan.limits) { "pass" } else { "FAIL" }
        ));
    }
    out.note(format!(
        "max_rounds_per_s={max_rate} (next_pairs p99 <= {} ms, completion >= {}, lag growth <= {} ms)",
        plan.limits.next_pairs_p99_ms, plan.limits.completion, plan.limits.lag_growth_ms
    ));
    let rounds_done: usize = sessions.iter().flatten().map(|s| s.mae.len()).sum();
    out.note(format!(
        "workload: rows={} sessions={} iterations={} rounds={} rounds/session max={}",
        spec.rows, plan.sessions, spec.iterations, rounds_done, most
    ));

    // Verification, outside the timed window.
    drop(clients);
    stop(h);
    let check: Vec<_> = sessions
        .into_iter()
        .flatten()
        .map(|s| (spec.clone(), s.id, s.mae))
        .collect();
    check_against_batch(&mut out, base, check);
    out
}

// ---------------------------------------------------------------------------
// churn
// ---------------------------------------------------------------------------

/// Rounds each churned session runs before it is closed.
pub const CHURN_ROUNDS: usize = 10;
/// Rows of every churned session.
pub const CHURN_ROWS: usize = 1000;

/// The fixed session list: 1,000-row sessions rotating the four datasets
/// from a seed-chosen starting dataset.
pub fn churn_list(seed: u64, n: usize) -> Vec<CreateSessionSpec> {
    let rot = SplitMix::new(seed ^ 0xC4_0C4).below(DatasetName::ALL.len());
    (0..n)
        .map(|i| CreateSessionSpec {
            dataset: DatasetName::ALL[(i + rot) % DatasetName::ALL.len()],
            rows: CHURN_ROWS,
            iterations: CHURN_ROUNDS,
            ..CreateSessionSpec::default()
        })
        .collect()
}

/// `churn`, on one connection. On two, the two cores ran two creates at
/// once, and over four interleaved runs each create latency and
/// sessions/s ranged over about 20 %, against about 7 % on one.
pub fn churn(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    let base = base_seed(seed);
    // Long enough that the walk does not run out of sessions before the
    // window closes, even at several times today's create rate.
    let list: Vec<(usize, CreateSessionSpec)> = churn_list(seed, (seconds * 100.0) as usize + 8)
        .into_iter()
        .enumerate()
        .collect();

    // Set-up: spawn the server, connect, and warm it by creating and
    // closing one session of every dataset, so first-touch allocation and
    // lazy initialisation finish before the window. Each set-up warms with
    // fresh seeds (masked to 53 bits: a create request carries its seed as
    // a JSON number), so the median spans their data.
    let mut setup_s = Vec::new();
    let mut kept: Option<(ServerHandle, Option<Client>)> = None;
    for rep in 0..3u64 {
        let t = Instant::now();
        let h = server(base, 64);
        let mut client = wire::connect(&h.addr().to_string(), "setup", &mut out.acct);
        for (k, &dataset) in DatasetName::ALL.iter().enumerate() {
            let Some(c) = client.as_mut() else { break };
            let spec = CreateSessionSpec {
                dataset,
                rows: CHURN_ROWS,
                iterations: CHURN_ROUNDS,
                seed: Some(derive_seed(base, 1 << 40 | rep << 8 | k as u64) & ((1 << 53) - 1)),
                ..CreateSessionSpec::default()
            };
            if let Some((id, _)) = wire::create(c, &spec, "setup", &mut out.acct) {
                wire::close(c, id, "setup", &mut out.acct);
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((old, c)) = kept.replace((h, client)) {
            drop(c);
            stop(old);
        }
    }
    let (h, client) = kept.expect("at least one set-up");
    out.metric("setup_s", "s", median(&setup_s).unwrap_or(0.0));

    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let recs = match client {
        Some(mut c) => wire::churn(&mut c, &list, CHURN_ROUNDS, deadline, &mut out.acct),
        None => Vec::new(),
    };
    let elapsed = recs
        .iter()
        .map(|r| r.finished)
        .max()
        .map_or(0.0, |f| (f - t0).as_secs_f64());
    stop(h);

    let creates: Vec<f64> = recs.iter().map(|r| r.create_ms).collect();
    let done = recs.iter().filter(|r| r.ok).count();
    let [p50, p90, p99] = latency_quantiles(&creates);
    // Each dataset's median create, averaged over the datasets. The four
    // medians differ by up to 3x, so the median of the mixed samples
    // jumps between them as the mix of a run shifts by one session.
    let per_dataset: Vec<f64> = DatasetName::ALL
        .iter()
        .map(|&d| {
            let v: Vec<f64> = recs
                .iter()
                .filter(|r| list[r.index].1.dataset == d)
                .map(|r| r.create_ms)
                .collect();
            median(&v).unwrap_or(f64::NAN)
        })
        .collect();
    out.metric(
        "latency_ms_p50",
        "ms",
        per_dataset.iter().sum::<f64>() / per_dataset.len() as f64,
    );
    out.metric(
        "throughput_per_s",
        "1/s",
        if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        },
    );
    out.note(format!(
        "create latency over {} creates: p50={p50:.3} p90={p90:.3} p99={p99:.3} ms; sessions_per_s over {elapsed:.3} s",
        creates.len()
    ));
    for (d, m) in DatasetName::ALL.iter().zip(&per_dataset) {
        out.note(format!("create_ms {:<8} p50={m:.3}", d.as_str()));
    }
    out.note(format!(
        "workload: rows={CHURN_ROWS} sessions={} rounds/session={CHURN_ROUNDS}",
        recs.len()
    ));
    let check = recs
        .into_iter()
        .map(|r| (list[r.index].1.clone(), r.id, r.mae))
        .collect();
    check_against_batch(&mut out, base, check);
    out
}

// ---------------------------------------------------------------------------
// repro
// ---------------------------------------------------------------------------

/// Every experiment's recorded output digest and reference time at the
/// default options, one `id hex ref_ms` line each. The reference times
/// were measured on a 2-core x86-64 VM; each is the faster of two passes.
const REPRO_RECORD: &str = include_str!("../repro.digest");

/// One experiment's recorded digest and reference time.
struct Recorded<'a> {
    id: &'a str,
    digest: &'a str,
    ref_ms: f64,
}

fn recorded() -> Vec<Recorded<'static>> {
    REPRO_RECORD
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some(Recorded {
                id: f.next()?,
                digest: f.next()?,
                ref_ms: f.next()?.parse().ok()?,
            })
        })
        .collect()
}

/// FNV-1a over every byte of an experiment's output (text, then each CSV's
/// name and content, with separators).
pub fn output_digest(o: &et_experiments::ExperimentOutput) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= 0xFF;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    eat(o.id.as_bytes());
    eat(o.text.as_bytes());
    for (name, content) in &o.csv {
        eat(name.as_bytes());
        eat(content.as_bytes());
    }
    h
}

/// Runs every experiment once, in registry order (the `repro --all`
/// order). Returns `(id, seconds, digest)` per experiment.
pub fn run_experiments() -> Vec<(&'static str, f64, u64)> {
    let opts = RunOptions::default();
    all_experiments()
        .into_iter()
        .map(|e| {
            let t = Instant::now();
            let o = (e.run)(&opts);
            let s = t.elapsed().as_secs_f64();
            (e.id, s, output_digest(&o))
        })
        .collect()
}

/// Compares digests with the recorded ones.
pub fn check_digests(out: &mut Outcome, runs: &[(&'static str, f64, u64)]) {
    let want = recorded();
    if want.len() != runs.len() {
        out.fail(format!(
            "{} experiments ran, {} digests recorded",
            runs.len(),
            want.len()
        ));
    }
    for (id, _, d) in runs {
        match want.iter().find(|w| w.id == *id) {
            Some(w) if w.digest == format!("{d:016x}") => {}
            Some(w) => out.fail(format!("{id}: digest {d:016x}, recorded {}", w.digest)),
            None => out.fail(format!("{id}: no recorded digest")),
        }
    }
}

/// The paper profile's data preparation, as every convergence experiment
/// does it before its sessions (`ConvergenceExperiment::prepare` at the
/// default options): for each dataset and each of the run seeds, generate
/// the rows, inject violations and build the capped hypothesis space.
/// Returns the number of FDs built, so the work cannot be optimised away.
fn prepare_paper_data() -> usize {
    let opts = RunOptions::default();
    let mut fds = 0;
    for ds in DatasetName::ALL {
        for r in 0..opts.runs as u64 {
            let seed = 0xE7u64.wrapping_add(r).wrapping_mul(0x9e37_79b9);
            let mut g = ds.generate(opts.rows, seed);
            let specs = g.exact_fds.clone();
            let cfg = InjectConfig::with_degree(0.10, seed ^ 0xB5);
            inject_errors(&mut g.table, &specs, &[], &cfg);
            let pinned: Vec<Fd> = specs.iter().map(Fd::from_spec).collect();
            let min_support = (opts.rows as u64 / 12).max(5);
            fds += HypothesisSpace::capped(&g.table, 4, 38, min_support, &pinned).len();
        }
    }
    fds
}

/// Full passes over the experiments per `repro` run.
const REPRO_PASSES: usize = 2;

/// `repro`. Its inputs are the paper profile's fixed seeds, so `--seed`
/// changes nothing here. Runs whole passes until `seconds` have passed,
/// and at least `REPRO_PASSES`; each experiment's time is its fastest.
pub fn repro(seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    // `repro --all` has no set-up of its own: its registry is static
    // descriptors. The slot holds the data preparation every convergence
    // experiment repeats before its sessions run.
    let mut setup_s = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        std::hint::black_box(prepare_paper_data());
        setup_s.push(t.elapsed().as_secs_f64());
    }
    out.metric("setup_s", "s", median(&setup_s).unwrap_or(0.0));

    let t = Instant::now();
    let mut passes: Vec<Vec<(&'static str, f64, u64)>> = Vec::new();
    while passes.len() < REPRO_PASSES || t.elapsed().as_secs_f64() < seconds {
        let runs = run_experiments();
        for (id, _, _) in &runs {
            out.acct.record(id, "window", true);
        }
        check_digests(&mut out, &runs);
        passes.push(runs);
    }
    let best: Vec<(&'static str, f64, u64)> = passes[0]
        .iter()
        .enumerate()
        .map(|(i, &(id, _, d))| {
            let s = passes.iter().map(|p| p[i].1).fold(f64::INFINITY, f64::min);
            (id, s, d)
        })
        .collect();
    let wall: f64 = best.iter().map(|r| r.1).sum();
    // Each experiment's time over its reference time; the median of these
    // ratios, scaled back to the median reference time, is the latency.
    let refs = recorded();
    let ratios: Vec<f64> = best
        .iter()
        .filter_map(|(id, s, _)| {
            let w = refs.iter().find(|w| w.id == *id)?;
            Some(s * 1e3 / w.ref_ms.max(1e-3))
        })
        .collect();
    let ref_ms: Vec<f64> = refs.iter().map(|w| w.ref_ms).collect();
    out.metric(
        "latency_ms_p50",
        "ms",
        median(&ratios).unwrap_or(0.0) * median(&ref_ms).unwrap_or(0.0),
    );
    out.metric("throughput_per_s", "1/s", best.len() as f64 / wall);
    let secs: Vec<f64> = best.iter().map(|r| r.1 * 1e3).collect();
    let [p50, p90, p99] = latency_quantiles(&secs);
    out.note(format!(
        "wall_s={wall:.3} (fastest of {} passes per experiment) experiments={}; per-experiment p50={p50:.1} p90={p90:.1} p99={p99:.1} ms; time/reference p50={:.4}",
        passes.len(),
        best.len(),
        median(&ratios).unwrap_or(0.0)
    ));
    out.note("experiment lines, fastest first, as `repro.digest` records them (id digest ms):");
    let mut by_time = best.clone();
    by_time.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (id, s, d) in &by_time {
        out.note(format!("{id} {d:016x} {:.3}", s * 1e3));
    }
    out
}
