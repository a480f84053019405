//! The traced run: the same session lists as the workloads, driven
//! in-process with a span around each public call into a layer, plus a
//! short wire phase whose latencies the spans are attributed against.
//!
//! Every `--trace 1` run prints every per-layer metric, whatever the
//! workload, so the sweep covers every workload's layers and the
//! journal's:
//!
//! 1. wire: default-spec sessions at the interactive reference rate and
//!    the churn list's creates, for the latencies the stages must explain;
//! 2. interactive sessions in-process, in alternating untraced and traced
//!    passes over identical sessions doing identical work (the tracing
//!    overhead), with parse/encode of each round's own request and reply
//!    lines;
//! 3. durable sessions in-process (WAL + snapshots), then recovery;
//! 4. the churn list's creates, stage by stage (`build_parts` hides its
//!    stages, so they are called one by one on the same dataset, rows,
//!    degree and seeds), beside `build_parts` and `SessionStore::create`;
//! 5. every experiment.

use std::sync::Arc;
use std::time::{Duration, Instant};

use et_belief::{build_prior, EvidenceConfig, PriorConfig, PriorSpec};
use et_core::{FpTrainer, Learner, ResponseStrategy, SessionState};
use et_data::{inject_errors, InjectConfig};
use et_fd::{Fd, HypothesisSpace};
use et_serve::store::LiveSession;
use et_serve::{
    build_parts, derive_seed, run_batch, CreateSessionSpec, Request, Response, SessionStore,
    StoreConfig, WirePair,
};

use crate::schedule::{connection_schedule, Rung};
use crate::stats::{median, percentiles};
use crate::trace::{Attribution, Tracer};
use crate::wire::{self, Acct, RoundRec, WireSession};
use crate::workloads::{
    base_seed, check_against_batch, check_digests, churn_list, is_bit_prefix,
    journal_bytes_per_round, par, run_experiments, scratch_dir, server, stop, Outcome,
    CHURN_ROUNDS, CONNS,
};

/// Interactive sessions driven in-process per pass.
const INPROC_SESSIONS: usize = 16;
/// Rounds per in-process interactive session.
const INPROC_ROUNDS: usize = 40;
/// Durable sessions driven in-process.
const DURABLE_SESSIONS: usize = 4;
/// Rounds per durable session (three snapshots each at the default
/// cadence of 8).
const DURABLE_ROUNDS: usize = 24;
/// Churn-list sessions built stage by stage: two per dataset.
const STAGED_SESSIONS: usize = 8;

/// `build_parts`' private per-stage seed split (SplitMix64 over the
/// session seed), repeated so the staged calls see the same inputs.
fn sub_seed(base: u64, stream: u64) -> u64 {
    let mut z = base
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

fn p(v: &[f64], q: f64) -> f64 {
    percentiles(v, &[q])[0].unwrap_or(0.0)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Wire latencies the traced stages are attributed against.
struct WirePhase {
    next_pairs_us: Vec<f64>,
    submit_us: Vec<f64>,
    create_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    completion: f64,
}

fn wire_phase(
    out: &mut Outcome,
    base: u64,
    seed: u64,
    seconds: f64,
    staged: &[(CreateSessionSpec, u64)],
) -> WirePhase {
    let rung = [Rung {
        rate: 400.0,
        secs: (seconds * 0.3).clamp(1.0, 4.0),
    }];
    let n_sessions = 8;
    let schedules: Vec<_> = (0..CONNS)
        .map(|c| connection_schedule(seed, &rung, Duration::ZERO, CONNS, c, n_sessions / CONNS))
        .collect();
    let spec = CreateSessionSpec {
        iterations: schedules[0].len() / (n_sessions / CONNS) + 2,
        ..CreateSessionSpec::default()
    };
    let h = server(base, 64);
    let addr = h.addr().to_string();
    // Creates of the churn list's staged sessions, with explicit seeds so
    // the wire builds exactly what the stages build.
    let mut create_ms = Vec::new();
    if let Some(mut c) = wire::connect(&addr, "window", &mut out.acct) {
        for (spec, s) in staged {
            let explicit = CreateSessionSpec {
                seed: Some(*s),
                ..spec.clone()
            };
            if let Some((id, ms)) = wire::create(&mut c, &explicit, "window", &mut out.acct) {
                create_ms.push(ms);
                wire::close(&mut c, id, "window", &mut out.acct);
            }
        }
    }
    let t0 = Instant::now() + Duration::from_millis(100);
    let rung_end = [Duration::from_secs_f64(rung[0].secs)];
    let results = par(schedules.clone(), |_, dues| {
        let mut a = Acct::default();
        let Some(mut c) = wire::connect(&addr, "setup", &mut a) else {
            return (Vec::new(), Vec::new(), a);
        };
        let mut sessions: Vec<WireSession> = (0..n_sessions / CONNS)
            .filter_map(|_| wire::create(&mut c, &spec, "setup", &mut a))
            .map(|(id, _)| WireSession {
                id,
                mae: Vec::new(),
            })
            .collect();
        if sessions.len() < n_sessions / CONNS {
            return (Vec::new(), Vec::new(), a);
        }
        let recs = wire::open_loop(
            &mut c,
            &mut sessions,
            &dues,
            &rung_end,
            Duration::from_millis(100),
            t0,
            &mut a,
        );
        (recs, sessions, a)
    });
    stop(h);
    let mut recs: Vec<RoundRec> = Vec::new();
    let mut check = Vec::new();
    for (r, s, a) in results {
        recs.extend(r);
        check.extend(s.into_iter().map(|s| (spec.clone(), s.id, s.mae)));
        out.acct.merge(a);
    }
    check_against_batch(out, base, check);
    let offered: usize = schedules.iter().map(Vec::len).sum();
    let done: Vec<&RoundRec> = recs.iter().filter(|r| r.done.is_some()).collect();
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    WirePhase {
        next_pairs_us: done
            .iter()
            .map(|r| us(r.pairs.saturating_sub(r.sent)))
            .collect(),
        submit_us: done
            .iter()
            .filter_map(|r| r.done.map(|d| us(d.saturating_sub(r.pairs))))
            .collect(),
        create_ms,
        lag_ms: recs
            .iter()
            .map(|r| us(r.sent.saturating_sub(r.due)) / 1e3)
            .collect(),
        completion: done.len() as f64 / offered.max(1) as f64,
    }
}

/// Drives `rounds` hosted rounds on every session of `store`, round-robin,
/// through the same public calls the server's handlers make, parsing and
/// encoding each round's own request and reply lines. Each call gets a
/// span under a per-round parent (none when `t` is off).
fn drive(
    store: &SessionStore,
    ids: &[u64],
    rounds: usize,
    t: &mut Tracer,
    apply_name: &'static str,
) -> usize {
    let mut snapshots = 0usize;
    for _ in 0..rounds {
        for &id in ids {
            let step = store.with_session(id, |live| {
                let LiveSession {
                    state,
                    trainer,
                    learner,
                    ..
                } = live;
                let round = t.begin("round", None, id);
                let np_line = Request::NextPairs { session: id }.to_json().encode();
                t.span("et-serve.parse.next_pairs", Some(round), id, || {
                    Request::parse_line(std::hint::black_box(&np_line)).is_ok()
                });
                let presented = t.span("et-core.present", Some(round), id, || {
                    state.present(learner).map(|p| p.is_some())
                });
                if presented != Ok(true) {
                    return None;
                }
                let pending = state.pending()?;
                let reply = Response::Pairs {
                    session: id,
                    t: state.iterations_done(),
                    pairs: pending
                        .pairs()
                        .iter()
                        .map(|p| WirePair { a: p.a, b: p.b })
                        .collect(),
                    sample: pending.sample().to_vec(),
                    tuples: pending
                        .sample()
                        .iter()
                        .map(|&r| state.table().row_texts(r).join(" | "))
                        .collect(),
                };
                t.span("et-serve.encode.pairs", Some(round), id, || {
                    std::hint::black_box(reply.encode()).len()
                });
                let sub_line = Request::SubmitLabels {
                    session: id,
                    labels: None,
                }
                .to_json()
                .encode();
                t.span("et-serve.parse.submit", Some(round), id, || {
                    Request::parse_line(std::hint::black_box(&sub_line)).is_ok()
                });
                let labels = t
                    .span("et-core.label", Some(round), id, || {
                        state.label_pending(trainer)
                    })
                    .ok()?;
                let metrics = t
                    .span(apply_name, Some(round), id, || {
                        state.apply_labels(trainer, learner, &labels).cloned()
                    })
                    .ok()?;
                let snap = t.begin("et-core.maybe_snapshot", Some(round), id);
                let due = state.maybe_snapshot(trainer, learner).ok()?;
                t.end(snap);
                if due {
                    t.rename(snap, "et-core.snapshot");
                }
                let reply = Response::Labeled {
                    session: id,
                    labels,
                    metrics,
                };
                t.span("et-serve.encode.labeled", Some(round), id, || {
                    std::hint::black_box(reply.encode()).len()
                });
                t.end(round);
                Some(due)
            });
            if let Ok(Some(true)) = step {
                snapshots += 1;
            }
        }
    }
    snapshots
}

fn mae_of(store: &SessionStore, id: u64) -> Vec<f64> {
    store
        .with_session(id, |l| l.state.metrics().iter().map(|m| m.mae).collect())
        .unwrap_or_default()
}

fn status_of(l: &mut LiveSession) -> (usize, Vec<u64>, Vec<u64>, Vec<u64>) {
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    (
        l.state.iterations_done(),
        bits(l.state.metrics().iter().map(|m| m.mae).collect()),
        bits(l.learner.confidences()),
        bits(l.trainer.belief().confidences()),
    )
}

/// The traced run.
pub fn traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    let base = base_seed(seed);
    let staged: Vec<(CreateSessionSpec, u64)> = churn_list(seed, STAGED_SESSIONS)
        .into_iter()
        .enumerate()
        // Masked to 53 bits: a create request carries its seed as a JSON
        // number (an f64), which holds larger integers inexactly and the
        // server then rejects them.
        .map(|(i, s)| (s, derive_seed(base, 1000 + i as u64) & ((1 << 53) - 1)))
        .collect();

    // 1. Wire phase.
    let w = wire_phase(&mut out, base, seed, seconds, &staged);

    // 2. Interactive sessions in-process: an untraced pass, then a traced
    //    pass over identical sessions (same base seed, same ids).
    let spec = CreateSessionSpec {
        iterations: INPROC_ROUNDS,
        ..CreateSessionSpec::default()
    };
    let mem = |b| {
        SessionStore::new(StoreConfig {
            capacity: 64,
            base_seed: b,
            ..StoreConfig::default()
        })
    };
    let create_all = |store: &SessionStore, acct: &mut Acct| -> Vec<u64> {
        (0..INPROC_SESSIONS)
            .filter_map(|_| {
                let r = store.create(&spec).ok();
                acct.record("store_create", "setup", r.is_some());
                r.map(|(id, _)| id)
            })
            .collect()
    };
    // Untraced, traced, traced, untraced: the first pass runs on a cold
    // process, so alternating cancels the warm-up from the overhead. Both
    // kinds of pass do the same work; only the spans differ.
    let mut tr = Tracer::new();
    let mut off = Tracer::off();
    let mut secs = [0.0f64; 2];
    let mut stores = Vec::new();
    let mut rss_per_session = 0.0;
    for traced in [false, true, true, false] {
        let store = mem(base);
        let rss0 = rss_kb();
        let ids = create_all(&store, &mut out.acct);
        if stores.is_empty() {
            rss_per_session = (rss_kb() - rss0) / ids.len().max(1) as f64;
        }
        let t = Instant::now();
        drive(
            &store,
            &ids,
            INPROC_ROUNDS,
            if traced { &mut tr } else { &mut off },
            "et-core.apply",
        );
        secs[usize::from(traced)] += t.elapsed().as_secs_f64();
        stores.push((store, ids));
    }
    let [untraced_s, traced_s] = secs;
    let (pool_pairs, fds) = stores[1]
        .0
        .with_session(stores[1].1[0], |l| {
            (l.state.relation_matrix().n_pairs(), l.state.space().len())
        })
        .unwrap_or((0, 0));
    let mut check = Vec::new();
    for (store, ids) in &stores {
        for &id in ids {
            let mae = mae_of(store, id);
            if mae.len() != INPROC_ROUNDS {
                out.fail(format!("in-process session {id} ran {} rounds", mae.len()));
            }
            out.acct
                .record("round", "window", mae.len() == INPROC_ROUNDS);
            check.push((spec.clone(), id, mae));
        }
    }
    drop(stores);

    // 3. Durable sessions in-process, then recovery.
    let dir = scratch_dir("trace-durable");
    let dcfg = StoreConfig {
        capacity: 64,
        base_seed: base,
        data_dir: Some(dir.clone()),
        ..StoreConfig::default()
    };
    let dspec = CreateSessionSpec {
        iterations: DURABLE_ROUNDS + 8,
        ..CreateSessionSpec::default()
    };
    let store = SessionStore::new(dcfg.clone());
    let dids: Vec<u64> = (0..DURABLE_SESSIONS)
        .filter_map(|_| {
            let r = store.create(&dspec).ok();
            out.acct.record("store_create", "setup", r.is_some());
            r.map(|(id, _)| id)
        })
        .collect();
    let snapshots = drive(
        &store,
        &dids,
        DURABLE_ROUNDS,
        &mut tr,
        "et-core.apply.durable",
    );
    let (wal_per_round, snap_per_round) =
        journal_bytes_per_round(&dir, dids.len() * DURABLE_ROUNDS, snapshots);
    let before: Vec<_> = dids
        .iter()
        .map(|&id| store.with_session(id, status_of).ok())
        .collect();
    store.flush_all();
    drop(store);
    let recovered_store = SessionStore::new(dcfg);
    let t = Instant::now();
    let report = recovered_store.recover_from_disk();
    let recover_s = t.elapsed().as_secs_f64();
    if report.recovered != dids.len() || !report.failed.is_empty() {
        out.fail(format!(
            "recovered {} of {} durable sessions",
            report.recovered,
            dids.len()
        ));
    }
    for (id, b) in dids.iter().zip(&before) {
        let a = recovered_store.with_session(*id, status_of).ok();
        let same = b.is_some() && *b == a;
        out.acct.record("recover", "verify", same);
        if !same {
            out.fail(format!(
                "durable session {id}: status differs after recovery"
            ));
        }
        check.push((dspec.clone(), *id, mae_of(&recovered_store, *id)));
    }
    drop(recovered_store);
    let _ = std::fs::remove_dir_all(&dir);

    // 4. The churn list's creates, stage by stage, then whole.
    let staged_store = mem(base);
    let mut staged_pool = Vec::new();
    for (spec, s) in &staged {
        let ds = spec.dataset.as_str().to_ascii_lowercase();
        let inject_name: &'static str = match ds.as_str() {
            "omdb" => "et-data.inject.omdb",
            "airport" => "et-data.inject.airport",
            "hospital" => "et-data.inject.hospital",
            _ => "et-data.inject.tax",
        };
        let mut gen = tr.span("et-data.generate", None, *s, || {
            spec.dataset.generate(spec.rows, sub_seed(*s, 1))
        });
        let specs = gen.exact_fds.clone();
        let inj_cfg = InjectConfig::with_degree(spec.degree, sub_seed(*s, 2));
        let inj = tr.span(inject_name, None, *s, || {
            inject_errors(&mut gen.table, &specs, &[], &inj_cfg)
        });
        let pinned: Vec<Fd> = specs.iter().map(Fd::from_spec).collect();
        let space = tr.span("et-fd.space_capped", None, *s, || {
            Arc::new(HypothesisSpace::capped(&gen.table, 3, 20, 3, &pinned))
        });
        let prior_cfg = PriorConfig::weak();
        let (tp, lp) = tr.span("et-belief.build_prior", None, *s, || {
            (
                build_prior(
                    &PriorSpec::Random {
                        seed: sub_seed(*s, 3),
                    },
                    &prior_cfg,
                    &space,
                    &gen.table,
                ),
                build_prior(&PriorSpec::DataEstimate, &prior_cfg, &space, &gen.table),
            )
        });
        let trainer = FpTrainer::new(tp, EvidenceConfig::default());
        let mut learner = Learner::new(
            lp,
            ResponseStrategy::paper(spec.strategy),
            EvidenceConfig::default(),
            sub_seed(*s, 4),
        );
        let Ok(mut state) = tr.span("et-core.session_new", None, *s, || {
            SessionState::new(
                gen.table,
                space,
                &inj.dirty_rows,
                spec.session_config(*s),
                &trainer,
                &learner,
            )
        }) else {
            out.fail("SessionState::new failed on a staged session");
            continue;
        };
        let mut trainer = trainer.with_cache(state.partition_cache().clone());
        let pairs = tr.span("et-fd.matrix_build", None, *s, || {
            state.relation_matrix().n_pairs()
        });
        staged_pool.push(pairs as f64);
        let mut mae = Vec::new();
        for _ in 0..CHURN_ROUNDS {
            if !matches!(state.present(&mut learner), Ok(Some(_))) {
                break;
            }
            let Ok(labels) = state.label_pending(&mut trainer) else {
                break;
            };
            match state.apply_labels(&trainer, &mut learner, &labels) {
                Ok(m) => mae.push(m.mae),
                Err(_) => break,
            }
        }
        let built = tr.span("et-serve.build_parts", None, *s, || {
            build_parts(spec, *s).is_ok()
        });
        let explicit = CreateSessionSpec {
            seed: Some(*s),
            ..spec.clone()
        };
        let created = tr.span("et-serve.store_create", None, *s, || {
            staged_store.create(&explicit)
        });
        out.acct
            .record("store_create", "window", built && created.is_ok());
        if let Ok((id, _)) = created {
            staged_store.remove(id).ok();
        }
        match run_batch(spec, *s) {
            Ok(b) => {
                let want = b.mae_series();
                let same = mae.len() == want.len() && is_bit_prefix(&mae, &want);
                out.acct.record("staged", "verify", same);
                if !same {
                    out.fail(format!(
                        "staged {} session differs from batch",
                        spec.dataset.as_str()
                    ));
                }
            }
            Err(e) => out.fail(format!("batch failed: {e}")),
        }
    }
    check_against_batch(&mut out, base, check);

    // 5. Every experiment.
    let t = Instant::now();
    let runs = run_experiments();
    let exp_wall = t.elapsed().as_secs_f64();
    for (id, s, _) in &runs {
        out.acct.record("experiment", "window", true);
        out.metric(format!("et-experiments.{id}_s"), "s", *s);
    }
    check_digests(&mut out, &runs);

    // Per-layer metrics.
    let q = |name: &str, qq: f64| tr.quantile_us(name, qq).unwrap_or(0.0);
    let ms = |name: &str| q(name, 0.5) / 1e3;
    let mut inject_all = Vec::new();
    for ds in ["omdb", "airport", "hospital", "tax"] {
        let v = tr.durations_us(&format!("et-data.inject.{ds}"));
        inject_all.extend(v.iter().copied());
        out.metric(
            format!("et-data.inject_ms.{ds}"),
            "ms",
            median(&v).unwrap_or(0.0) / 1e3,
        );
    }
    out.metric("et-data.generate_ms", "ms", ms("et-data.generate"));
    out.metric(
        "et-data.inject_ms",
        "ms",
        median(&inject_all).unwrap_or(0.0) / 1e3,
    );
    out.metric("et-fd.space_capped_ms", "ms", ms("et-fd.space_capped"));
    out.metric("et-fd.matrix_build_ms", "ms", ms("et-fd.matrix_build"));
    out.metric(
        "et-belief.build_prior_ms",
        "ms",
        ms("et-belief.build_prior"),
    );
    out.metric("et-core.session_new_ms", "ms", ms("et-core.session_new"));
    out.metric("et-core.present_us_p50", "us", q("et-core.present", 0.5));
    out.metric("et-core.present_us_p99", "us", q("et-core.present", 0.99));
    out.metric("et-core.label_us_p50", "us", q("et-core.label", 0.5));
    out.metric("et-core.apply_us_p50", "us", q("et-core.apply", 0.5));
    out.metric("et-core.apply_us_p99", "us", q("et-core.apply", 0.99));
    out.metric(
        "et-core.apply_us_p50.durable",
        "us",
        q("et-core.apply.durable", 0.5),
    );
    out.metric(
        "et-core.apply_us_p99.durable",
        "us",
        q("et-core.apply.durable", 0.99),
    );
    out.metric("et-core.snapshot_us_p50", "us", q("et-core.snapshot", 0.5));
    out.metric("et-core.snapshot_us_p99", "us", q("et-core.snapshot", 0.99));
    let mut parse = tr.durations_us("et-serve.parse.next_pairs");
    parse.extend(tr.durations_us("et-serve.parse.submit"));
    let mut encode = tr.durations_us("et-serve.encode.pairs");
    encode.extend(tr.durations_us("et-serve.encode.labeled"));
    out.metric("et-serve.parse_us", "us", median(&parse).unwrap_or(0.0));
    out.metric("et-serve.encode_us", "us", median(&encode).unwrap_or(0.0));
    out.metric("et-serve.build_parts_ms", "ms", ms("et-serve.build_parts"));
    out.metric(
        "et-serve.store_create_ms",
        "ms",
        ms("et-serve.store_create"),
    );
    out.metric(
        "et-serve.recover_ms_per_session",
        "ms",
        recover_s * 1e3 / report.recovered.max(1) as f64,
    );
    out.metric("et-serve.recover_s", "s", recover_s);
    out.metric("et-serve.rss_kb_per_session", "KiB", rss_per_session);
    out.metric("et-durable.wal_bytes_per_round", "B", wal_per_round);
    out.metric("et-durable.snapshot_bytes_per_round", "B", snap_per_round);
    out.note(format!(
        "workload: interactive rows={} fds={fds} pool_pairs={pool_pairs}; churn rows=1000 pool_pairs p50={}",
        spec.rows,
        median(&staged_pool).unwrap_or(0.0)
    ));

    // Attribution of the wire medians to the in-process stages.
    let np = Attribution::new(
        &[
            q("et-serve.parse.next_pairs", 0.5),
            q("et-core.present", 0.5),
            q("et-serve.encode.pairs", 0.5),
        ],
        median(&w.next_pairs_us).unwrap_or(0.0),
    );
    let sub = Attribution::new(
        &[
            q("et-serve.parse.submit", 0.5),
            q("et-core.label", 0.5),
            q("et-core.apply", 0.5),
            q("et-core.maybe_snapshot", 0.5),
            q("et-serve.encode.labeled", 0.5),
        ],
        median(&w.submit_us).unwrap_or(0.0),
    );
    // Creates pair up session by session (the wire built the same specs
    // and seeds), so the stage means are compared with the wire mean.
    let stage_mean = |name: &str| mean(&tr.durations_us(name));
    let create = Attribution::new(
        &[
            stage_mean("et-data.generate"),
            mean(&inject_all),
            stage_mean("et-fd.space_capped"),
            stage_mean("et-belief.build_prior"),
            stage_mean("et-core.session_new"),
            stage_mean("et-fd.matrix_build"),
        ],
        mean(&w.create_ms) * 1e3,
    );
    out.metric("et-serve.unattributed_us_p50", "us", np.unattributed_us());
    out.metric("attributed_fraction.next_pairs", "ratio", np.fraction());
    out.metric("attributed_fraction.submit", "ratio", sub.fraction());
    out.metric("attributed_fraction.create", "ratio", create.fraction());
    out.metric("loadgen.lag_ms_p99", "ms", p(&w.lag_ms, 0.99));
    out.metric("loadgen.completion", "ratio", w.completion);
    out.metric(
        "trace.overhead_pct",
        "%",
        (traced_s - untraced_s) / untraced_s.max(1e-9) * 100.0,
    );
    let attempted = out.acct.attempted().max(1) as f64;
    out.metric("error_rate", "ratio", out.acct.failed() as f64 / attempted);

    out.note(format!(
        "wire next_pairs p50 {:.1} us = stages {:.1} us + unattributed {:.1} us",
        np.wire_us,
        np.stage_sum_us,
        np.unattributed_us()
    ));
    out.note(format!(
        "wire submit p50 {:.1} us = stages {:.1} us + unattributed {:.1} us",
        sub.wire_us,
        sub.stage_sum_us,
        sub.unattributed_us()
    ));
    out.note(format!(
        "wire create mean {:.1} us = stages {:.1} us + unattributed {:.1} us; build_parts p50 {:.1} ms, store_create p50 {:.1} ms",
        create.wire_us,
        create.stage_sum_us,
        create.unattributed_us(),
        ms("et-serve.build_parts"),
        ms("et-serve.store_create")
    ));
    out.note(format!(
        "tracing overhead: two passes of {INPROC_SESSIONS}x{INPROC_ROUNDS} in-process rounds each, {untraced_s:.4} s untraced, {traced_s:.4} s traced"
    ));
    let sessions: std::collections::BTreeSet<u64> = tr.spans().iter().map(|s| s.session).collect();
    out.note(format!(
        "experiments wall_s={exp_wall:.3}; {} spans over {} sessions",
        tr.spans().len(),
        sessions.len()
    ));
    for (name, us) in tr.self_time_us() {
        out.note(format!("self time {name:<32} {:>12.1} ms", us / 1e3));
    }
    out
}
