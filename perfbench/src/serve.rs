//! `serve_mixed`: an in-process `grimp_serve::Server` with two workers,
//! serving a checkpointed `GrimpConfig::fast()` model fitted on the first
//! 500 rows of Mammogram, under an open-loop mix of reads and writes.
//!
//! - Impute requests are cut from the 330 held-out rows with fresh MCAR
//!   holes: one in ten has 300 rows, the rest 40, in a seeded order. They
//!   arrive at a constant rate with a seeded phase.
//! - At a fixed low rate, keyed `POST /append` deltas of 8 base rows with
//!   fresh holes go out alongside. They bring no new categorical value,
//!   so each takes the fine-tune path and swaps the served generation;
//!   every replica then restores on its next request.
//!
//! The impute latencies are taken at the nominal rate, about half of the
//! knee on the 2-core host the benchmark was sized on. A ladder of higher
//! rates, 30 % apart and refined three times by bisection around the first
//! rung that fails, gives `max_rate_rps`. It is the only workload that runs the
//! serve layer, the inductive impute path and the incremental layer.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use grimp::{GrimpConfig, Pipeline, ShutdownFlag, TrainCheckpoint, CHECKPOINT_FILE, LOCK_FILE};
use grimp_datasets::{generate, DatasetId};
use grimp_graph::TableGraph;
use grimp_obs::names;
use grimp_serve::{client, DrainReport, ModelSource, ServeConfig, Server};
use grimp_table::csv::{read_csv_str, to_csv_bytes, to_csv_string};
use grimp_table::{inject_mcar, Table};
use rand::rngs::StdRng;
use rand::Rng;

use crate::fit::{cuts, slice, Cut};
use crate::layers::{self, GnnReplay, Layers, Subtree};
use crate::load::{self, Done, Op, Rung};
use crate::stats;
use crate::trace::{self, PointRec, SpanRec, StampedSink};
use crate::{json_num, json_summary, json_tail, peak_rss_mb, Outcome, Run};

const TAG_MASK: u64 = 11;
const TAG_REQUESTS: u64 = 12;
const TAG_DELTAS: u64 = 13;
const TAG_ARRIVALS: u64 = 14;

/// Training rows (the repository's standard row cap); the rest of the
/// 830 Mammogram rows are held out for requests.
const TRAIN_ROWS: usize = 500;
/// MCAR holes in the training table and in every delta.
const HOLES: f64 = 0.2;
const WORKERS: usize = 2;
/// Epochs of the base fit: fixed, so its cost does not hinge on when
/// early stopping fires for a given seed.
const BASE_EPOCHS: usize = 30;
const SETUP_REPS: usize = 3;
/// Training-table imputes per set-up, and after every phase of the load.
const IMPUTE_REPS: usize = 5;
const IMPUTE_BETWEEN: usize = 2;
/// Base fits after the load, on top of the set-up ones.
const END_FITS: usize = 2;
/// Warm-up appends: the first few pay a one-off cost several times the
/// steady one, so they belong to set-up.
const WARM_APPENDS: usize = 3;
const DELTA_ROWS: usize = 8;
/// Keyed appends per second, at every rate.
const APPEND_RPS: f64 = 2.0;
/// The nominal impute rate, and the ladder above it.
const NOMINAL_RPS: f64 = 110.0;
const STEP: f64 = 1.3;
const MAX_RUNGS: usize = 6;
/// Bisections after the first failing rung: three bring the last step
/// near the knee to 1.3^(1/8), about 3.3 %.
const BISECTIONS: usize = 3;
/// Impute latency limit of the rung rule, ms.
pub const LIMIT_MS: f64 = 50.0;
/// Share of `--seconds` spent at the nominal rate; the ladder gets the rest.
const NOMINAL_SHARE: f64 = 0.5;
const REQUEST_POOL: usize = 100;

fn config() -> GrimpConfig {
    GrimpConfig {
        max_epochs: BASE_EPOCHS,
        patience: BASE_EPOCHS,
        seed: 7,
        ..GrimpConfig::fast()
    }
}

/// One append delta: rows drawn from the base table, with fresh holes.
struct Delta {
    key: String,
    body: String,
    rows: Vec<Vec<Option<String>>>,
}

fn deltas(train: &Table, count: usize, seed: u64, rng: &mut StdRng) -> Vec<Delta> {
    let header: Vec<String> = (0..train.n_columns())
        .map(|j| train.schema().column(j).name.clone())
        .collect();
    (0..count)
        .map(|k| {
            let rows: Vec<Vec<Option<String>>> = (0..DELTA_ROWS)
                .map(|_| {
                    let i = rng.gen_range(0..train.n_rows());
                    let mut row: Vec<Option<String>> = (0..train.n_columns())
                        .map(|j| (!train.is_missing(i, j)).then(|| train.display(i, j)))
                        .collect();
                    for j in 0..row.len() {
                        let observed = row.iter().filter(|c| c.is_some()).count();
                        if observed > 1 && rng.gen_bool(HOLES) {
                            row[j] = None;
                        }
                    }
                    row
                })
                .collect();
            let mut body = header.join(",");
            body.push('\n');
            for row in &rows {
                let cells: Vec<&str> = row.iter().map(|c| c.as_deref().unwrap_or("")).collect();
                body.push_str(&cells.join(","));
                body.push('\n');
            }
            Delta {
                key: format!("perfbench-{seed}-{k}"),
                body,
                rows,
            }
        })
        .collect()
}

/// The same cell: equal text, or equal numbers.
fn same_cell(a: &str, b: &str) -> bool {
    a == b
        || matches!((a.parse::<f64>(), b.parse::<f64>()), (Ok(x), Ok(y))
            if (x - y).abs() <= 1e-9 * x.abs().max(1.0))
}

/// Whether `out` (a response table) keeps `rows` at row offset `at`.
fn keeps_rows(out: &Table, at: usize, rows: &[Vec<Option<String>>]) -> bool {
    rows.iter().enumerate().all(|(r, row)| {
        row.iter().enumerate().all(|(j, cell)| {
            cell.as_deref()
                .is_none_or(|v| same_cell(&out.display(at + r, j), v))
        })
    })
}

/// Client-visible kinds of operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Impute,
    Append,
}

/// Append bookkeeping, held across each append (appends go out one at a
/// time, so none is refused for arriving while another runs).
struct Appends {
    next: usize,
    grown: Table,
    attempted: usize,
}

/// A running server and what the benchmark knows about its state.
struct Live {
    addr: String,
    flag: ShutdownFlag,
    handle: std::thread::JoinHandle<Result<DrainReport, grimp::GrimpError>>,
    dir: std::path::PathBuf,
    appends: Mutex<Appends>,
}

impl Live {
    fn stop(self) -> (DrainReport, Table, std::path::PathBuf) {
        self.flag.request();
        let report = self
            .handle
            .join()
            .expect("the server thread does not panic")
            .expect("the server drains");
        let appends = self.appends.into_inner().expect("appends lock");
        (report, appends.grown, self.dir)
    }
}

/// One response, kept for checking after the timed phase.
struct Reply {
    kind: Kind,
    item: usize,
    status: u16,
    body: Vec<u8>,
    /// For appends: rows the grown table must have.
    expect_rows: usize,
}

/// Tallies of checked responses.
#[derive(Default)]
struct Checked {
    attempted: usize,
    failed: usize,
    wrong: usize,
    cat_correct: usize,
    cat_total: usize,
    num_sse: f64,
    num_total: usize,
}

impl Checked {
    fn check(&mut self, replies: &[Reply], requests: &[Cut], deltas: &[Delta]) {
        for r in replies {
            self.attempted += 1;
            if r.status != 200 {
                self.failed += 1;
                continue;
            }
            let Some(out) = std::str::from_utf8(&r.body)
                .ok()
                .and_then(|t| read_csv_str(t).ok())
            else {
                self.wrong += 1;
                continue;
            };
            let ok = match r.kind {
                Kind::Impute => {
                    let cut = &requests[r.item];
                    let ok = out.n_rows() == cut.dirty.n_rows()
                        && out.n_missing() == 0
                        && keeps_rows(&out, 0, &observed_rows(&cut.dirty));
                    if ok {
                        let eval = grimp_metrics::evaluate(&cut.clean, &out, &cut.log);
                        self.cat_correct += eval.cat_correct;
                        self.cat_total += eval.cat_total;
                        self.num_sse += eval.num_sse;
                        self.num_total += eval.num_total;
                    }
                    ok
                }
                Kind::Append => {
                    out.n_rows() == r.expect_rows
                        && out.n_missing() == 0
                        && keeps_rows(&out, r.expect_rows - DELTA_ROWS, &deltas[r.item].rows)
                }
            };
            if !ok {
                self.wrong += 1;
            }
        }
    }
}

fn observed_rows(t: &Table) -> Vec<Vec<Option<String>>> {
    (0..t.n_rows())
        .map(|i| {
            (0..t.n_columns())
                .map(|j| (!t.is_missing(i, j)).then(|| t.display(i, j)))
                .collect()
        })
        .collect()
}

struct Inputs {
    train: Table,
    requests: Vec<Cut>,
    bodies: Vec<String>,
    deltas: Vec<Delta>,
}

/// Send one impute or the next append; `None` on a socket error.
fn send(live: &Live, inputs: &Inputs, op: &Op<Kind>, index: usize) -> Reply {
    match op.kind {
        Kind::Impute => {
            let resp = trace::span_req("serve.impute", Some(index as u64), || {
                client::impute(&live.addr, &inputs.bodies[op.item])
            });
            match resp {
                Ok(r) => Reply {
                    kind: Kind::Impute,
                    item: op.item,
                    status: r.status,
                    body: r.body,
                    expect_rows: 0,
                },
                Err(_) => Reply {
                    kind: Kind::Impute,
                    item: op.item,
                    status: 0,
                    body: Vec::new(),
                    expect_rows: 0,
                },
            }
        }
        Kind::Append => {
            let mut a = live.appends.lock().expect("appends lock");
            let item = a.next % inputs.deltas.len();
            a.next += 1;
            a.attempted += 1;
            let delta = &inputs.deltas[item];
            let resp = trace::span_req("serve.append", Some(index as u64), || {
                client::request_with_headers(
                    &live.addr,
                    "POST",
                    "/append",
                    &[("Idempotency-Key", &delta.key)],
                    delta.body.as_bytes(),
                )
            });
            let (status, body) = resp.map_or((0, Vec::new()), |r| (r.status, r.body));
            if status == 200 {
                for row in &delta.rows {
                    let cells: Vec<Option<&str>> = row.iter().map(|c| c.as_deref()).collect();
                    a.grown.push_str_row(&cells);
                }
            }
            Reply {
                kind: Kind::Append,
                item,
                status,
                body,
                expect_rows: a.grown.n_rows(),
            }
        }
    }
}

/// What one phase at one rate measured.
struct Phase {
    rate: f64,
    imputes: Vec<Done<Kind>>,
    appends: Vec<Done<Kind>>,
    replies: Vec<Reply>,
}

impl Phase {
    fn latency_ms(&self) -> Vec<f64> {
        self.imputes.iter().map(Done::latency_ms).collect()
    }

    fn failed(&self) -> usize {
        self.replies.iter().filter(|r| r.status != 200).count()
    }

    fn rung(&self) -> Rung {
        let late: Vec<f64> = self.imputes.iter().map(Done::late_ms).collect();
        Rung::measure(self.rate, &self.latency_ms(), &late, self.failed())
    }
}

/// Offer `rate` imputes per second (plus the fixed append rate) for
/// `seconds`, from at most `nproc` senders.
fn phase(live: &Live, inputs: &Inputs, rate: f64, seconds: f64, rng: &mut StdRng) -> Phase {
    let first = rng.gen_range(0..inputs.requests.len());
    let mut ops: Vec<Op<Kind>> = load::arrivals(rate, seconds, rng.gen())
        .into_iter()
        .enumerate()
        .map(|(k, due)| Op {
            due,
            kind: Kind::Impute,
            item: (first + k) % inputs.requests.len(),
        })
        .collect();
    ops.extend(
        load::arrivals(APPEND_RPS, seconds, rng.gen())
            .into_iter()
            .map(|due| Op {
                due,
                kind: Kind::Append,
                item: 0,
            }),
    );
    ops.sort_by_key(|op| op.due);
    let replies: Mutex<BTreeMap<usize, Reply>> = Mutex::new(BTreeMap::new());
    let senders = std::thread::available_parallelism().map_or(1, |n| n.get());
    let done = load::run(&ops, senders, &|index, op| {
        let reply = send(live, inputs, op, index);
        let ok = reply.status == 200;
        replies.lock().expect("replies lock").insert(index, reply);
        ok
    });
    let (imputes, appends) = done.into_iter().partition(|d| d.kind == Kind::Impute);
    Phase {
        rate,
        imputes,
        appends,
        replies: replies
            .into_inner()
            .expect("replies lock")
            .into_values()
            .collect(),
    }
}

/// What one set-up left: the running server and its timings.
struct SetUp {
    live: Live,
    setup_s: f64,
    fit_s: f64,
    impute_s: Vec<f64>,
    fit_root: Option<u64>,
    impute_root: Option<u64>,
    n_weights: usize,
    warm: Checked,
    /// The base model, kept to time more training-table imputes.
    model: grimp::FittedModel,
}

/// Set up a server: fit and checkpoint the base model, bind, and warm up
/// until both replicas have restored and the first appends are paid for.
fn set_up(run: &Run, inputs: &Inputs, rep: usize) -> SetUp {
    let dir = run.scratch(&format!("ckpt{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the checkpoint directory");
    let start = Instant::now();
    let fit_pipeline = Pipeline::new(config().with_checkpoint_dir(&dir))
        .expect("the serve configuration is valid");
    let t = Instant::now();
    let mut fitted = trace::span("core.fit", || {
        fit_pipeline.fit_traced(&inputs.train, &mut StampedSink)
    })
    .expect("the base fit succeeds");
    let fit_s = t.elapsed().as_secs_f64();
    let fit_root = trace::last_span_id("core.fit").filter(|_| trace::enabled());
    let n_weights = fitted.report().n_weights;
    // The training-table impute is short, so it is timed several times;
    // it is not part of set-up.
    let mut warm = Checked::default();
    let mut impute_s = Vec::new();
    for _ in 0..IMPUTE_REPS {
        let t = Instant::now();
        let imputed = trace::span("core.impute", || {
            fitted.impute_traced(&inputs.train, &mut StampedSink)
        })
        .expect("the base model imputes its training table");
        impute_s.push(t.elapsed().as_secs_f64());
        if imputed.n_missing() != 0 {
            warm.wrong += 1;
        }
    }
    let impute_root = trace::last_span_id("core.impute").filter(|_| trace::enabled());

    let source = ModelSource {
        pipeline: Pipeline::new(config()).expect("the serve configuration is valid"),
        train: inputs.train.clone(),
        checkpoint_dir: dir.clone(),
    };
    let serve_cfg = ServeConfig {
        workers: WORKERS,
        queue_depth: 64,
        request_deadline: Some(Duration::from_secs(30)),
        seed: run.seed,
        ..Default::default()
    };
    let flag = ShutdownFlag::new();
    let server = trace::span("serve.bind", || {
        Server::bind(serve_cfg, source, flag.clone(), Box::new(StampedSink))
    })
    .expect("the server binds and restores the checkpoint");
    let addr = server
        .local_addr()
        .expect("the server has an address")
        .to_string();
    let handle = std::thread::spawn(move || server.run());
    let live = Live {
        addr,
        flag,
        handle,
        dir,
        appends: Mutex::new(Appends {
            next: 0,
            grown: inputs.train.clone(),
            attempted: 0,
        }),
    };

    // Warm-up: concurrent imputes so both workers restore, the first
    // appends, then imputes again so both restore the grown generation.
    let pair = |round: usize| -> Vec<Reply> {
        std::thread::scope(|s| {
            let hs: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let live = &live;
                    s.spawn(move || {
                        let op = Op {
                            due: Duration::ZERO,
                            kind: Kind::Impute,
                            item: (round * WORKERS + w) % inputs.requests.len(),
                        };
                        send(live, inputs, &op, usize::MAX)
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("warm-up sender"))
                .collect()
        })
    };
    let mut replies = Vec::new();
    for round in 0..3 {
        replies.extend(pair(round));
    }
    for _ in 0..WARM_APPENDS {
        let op = Op {
            due: Duration::ZERO,
            kind: Kind::Append,
            item: 0,
        };
        replies.push(send(&live, inputs, &op, usize::MAX));
    }
    for round in 3..5 {
        replies.extend(pair(round));
    }
    let setup_s = start.elapsed().as_secs_f64() - impute_s.iter().sum::<f64>();
    warm.check(&replies, &inputs.requests, &inputs.deltas);
    SetUp {
        live,
        setup_s,
        fit_s,
        impute_s,
        fit_root,
        impute_root,
        n_weights,
        warm,
        model: fitted,
    }
}

/// Counters from `GET /stats`.
fn server_stats(addr: &str) -> BTreeMap<String, f64> {
    let Ok(resp) = client::request(addr, "GET", "/stats", b"") else {
        return BTreeMap::new();
    };
    let text = String::from_utf8_lossy(&resp.body);
    text.trim()
        .trim_matches(|c| c == '{' || c == '}')
        .split(',')
        .filter_map(|kv| {
            let (k, v) = kv.split_once(':')?;
            Some((k.trim_matches('"').to_string(), v.parse().ok()?))
        })
        .collect()
}

pub fn run(run: &Run) -> Outcome {
    let ds = generate(DatasetId::Mammogram, run.seed).table;
    let clean_train = slice(&ds, 0, TRAIN_ROWS);
    let held = slice(&ds, TRAIN_ROWS, ds.n_rows() - TRAIN_ROWS);
    let mut train = clean_train;
    inject_mcar(&mut train, HOLES, &mut run.rng(TAG_MASK));
    let requests = cuts(&held, REQUEST_POOL, &mut run.rng(TAG_REQUESTS));
    let bodies = requests.iter().map(|c| to_csv_string(&c.dirty)).collect();
    let n_deltas = WARM_APPENDS + (APPEND_RPS * run.seconds * 2.0) as usize + 16;
    let deltas = deltas(&train, n_deltas, run.seed, &mut run.rng(TAG_DELTAS));
    let inputs = Inputs {
        train,
        requests,
        bodies,
        deltas,
    };
    let mut arrivals = run.rng(TAG_ARRIVALS);
    let mut details = BTreeMap::new();

    if run.traced {
        return traced(run, &inputs, &mut arrivals, details);
    }

    // Set-up, several times; the last server stays up for the load.
    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        let s = set_up(run, &inputs, rep);
        let keep = rep + 1 == SETUP_REPS;
        setups.push((s.setup_s, s.fit_s, s.impute_s.clone(), s.warm));
        if keep {
            return measured(
                run,
                &inputs,
                s.live,
                s.model,
                setups,
                &mut arrivals,
                &mut details,
            );
        }
        let (_, _, dir) = s.live.stop();
        let _ = std::fs::remove_dir_all(dir);
    }
    unreachable!("SETUP_REPS is at least 1")
}

fn measured(
    run: &Run,
    inputs: &Inputs,
    live: Live,
    mut base: grimp::FittedModel,
    setups: Vec<(f64, f64, Vec<f64>, Checked)>,
    arrivals: &mut StdRng,
    details: &mut BTreeMap<String, String>,
) -> Outcome {
    // Between phases the base model imputes its training table again, so
    // `impute_s` samples the whole run, not only set-up.
    let mut impute_s: Vec<f64> = setups.iter().flat_map(|s| s.2.iter().copied()).collect();
    let mut wrong = 0;
    let mut phase = |rate: f64, seconds: f64| {
        let p = phase(&live, inputs, rate, seconds, arrivals);
        for _ in 0..IMPUTE_BETWEEN {
            let t = Instant::now();
            match base.impute(&inputs.train) {
                Ok(out) if out.n_missing() == 0 => {}
                _ => wrong += 1,
            }
            impute_s.push(t.elapsed().as_secs_f64());
        }
        p
    };
    let nominal = phase(NOMINAL_RPS, NOMINAL_SHARE * run.seconds);
    let peak_mb = peak_rss_mb();
    let mut rungs = vec![nominal.rung()];
    let mut phases = vec![];
    let rung_s = ((1.0 - NOMINAL_SHARE) * run.seconds / 7.0).max(1.0);
    // Below the nominal rate only when the nominal rate itself fails.
    for k in 1..=MAX_RUNGS {
        if rungs.iter().any(|r| r.passes(LIMIT_MS)) {
            break;
        }
        let p = phase(NOMINAL_RPS / STEP.powi(k as i32), rung_s);
        rungs.push(p.rung());
        phases.push(p);
    }
    for k in 1..=MAX_RUNGS {
        let p = phase(NOMINAL_RPS * STEP.powi(k as i32), rung_s);
        let r = p.rung();
        phases.push(p);
        rungs.push(r);
        if !r.passes(LIMIT_MS) {
            break;
        }
    }
    // Bisect between the highest pass below the lowest failure and that
    // failure.
    for _ in 0..BISECTIONS {
        let pass = load::max_rate(&rungs, LIMIT_MS);
        let fail = rungs
            .iter()
            .filter(|r| !r.passes(LIMIT_MS))
            .map(|r| r.rate)
            .fold(f64::INFINITY, f64::min);
        if pass == 0.0 || !fail.is_finite() {
            break;
        }
        let p = phase((pass * fail).sqrt(), rung_s);
        rungs.push(p.rung());
        phases.push(p);
    }
    let stats = server_stats(&live.addr);
    let (report, _, dir) = live.stop();
    let _ = std::fs::remove_dir_all(dir);
    drop(base);

    // Two more base fits after the load, so `fit_s` too samples the run.
    let mut fit_s: Vec<f64> = setups.iter().map(|s| s.1).collect();
    for rep in 0..END_FITS {
        let dir = run.scratch(&format!("ckpt-end{rep}"));
        let pipeline = Pipeline::new(config().with_checkpoint_dir(&dir))
            .expect("the serve configuration is valid");
        let t = Instant::now();
        let fitted = pipeline.fit(&inputs.train);
        fit_s.push(t.elapsed().as_secs_f64());
        if fitted.is_err() {
            wrong += 1;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut checked = Checked::default();
    for p in std::iter::once(&nominal).chain(&phases) {
        checked.check(&p.replies, &inputs.requests, &inputs.deltas);
    }
    let warm_wrong: usize = setups.iter().map(|s| s.3.wrong + s.3.failed).sum();
    let correct =
        checked.wrong == 0 && warm_wrong == 0 && wrong == 0 && report.clean && report.panics == 0;

    let lat = nominal.latency_ms();
    let p50 = stats::tail(&lat, 50.0);
    let p99 = stats::tail(&lat, 99.0);
    let append_ms: Vec<f64> = nominal.appends.iter().map(Done::latency_ms).collect();
    let late: Vec<f64> = nominal.imputes.iter().map(Done::late_ms).collect();
    let setup_s: Vec<f64> = setups.iter().map(|s| s.0).collect();

    details.insert("setup_s".into(), json_summary(&setup_s));
    details.insert("fit_s".into(), json_summary(&fit_s));
    details.insert("impute_s".into(), json_summary(&impute_s));
    details.insert("impute_p50_ms".into(), json_tail(p50));
    details.insert("impute_p99_ms".into(), json_tail(p99));
    details.insert(
        "append_p50_ms".into(),
        json_tail(stats::tail(&append_ms, 50.0)),
    );
    details.insert(
        "append_p90_ms".into(),
        json_tail(stats::tail(&append_ms, 90.0)),
    );
    details.insert(
        "generator_late_ms_p99".into(),
        json_tail(stats::tail(&late, 99.0)),
    );
    details.insert("server_stats".into(), stats_json(&stats));
    details.insert("rungs".into(), rungs_json(&rungs));
    details.insert("wrong_outputs".into(), checked.wrong.to_string());

    let cat = checked.cat_correct as f64 / checked.cat_total as f64;
    let rmse = (checked.num_sse / checked.num_total as f64).sqrt();
    Outcome {
        correct,
        attempted: checked.attempted,
        failed: checked.failed,
        metrics: vec![
            ("setup_s", stats::median(&setup_s), "s"),
            ("peak_rss_mb", peak_mb, "MB"),
            (
                "ok_share",
                1.0 - checked.failed as f64 / checked.attempted as f64,
                "ratio",
            ),
            ("fit_s", stats::median(&fit_s), "s"),
            ("impute_s", stats::median(&impute_s), "s"),
            ("cat_accuracy", cat, "ratio"),
            ("num_rmse", rmse, "sigma"),
            ("impute_p50_ms", p50.map_or(f64::NAN, |t| t.value), "ms"),
            ("impute_p99_ms", p99.map_or(f64::NAN, |t| t.value), "ms"),
            ("max_rate_rps", load::max_rate(&rungs, LIMIT_MS), "req/s"),
        ],
        details: std::mem::take(details),
    }
}

fn stats_json(stats: &BTreeMap<String, f64>) -> String {
    let fields: Vec<String> = stats
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", json_num(*v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn rungs_json(rungs: &[Rung]) -> String {
    let items: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "{{\"rate\":{},\"tail\":{},\"failed\":{},\"late_growth_ms\":{},\"passes\":{}}}",
                json_num(r.rate),
                json_tail(r.tail),
                r.failed,
                json_num(r.late_growth_ms),
                r.passes(LIMIT_MS)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// The traced run: one traced set-up, the nominal rate untraced and then
/// traced (their ratio is the tracing overhead), then replays of single
/// layers on the inputs the timed phase used.
fn traced(
    run: &Run,
    inputs: &Inputs,
    arrivals: &mut StdRng,
    mut details: BTreeMap<String, String>,
) -> Outcome {
    let s = set_up(run, inputs, 0);
    // Untraced and traced quarters alternate, so drift over the run (the
    // table grows with every append) does not land on one side.
    let quarter = NOMINAL_SHARE * run.seconds / 4.0;
    let (mut plain, mut traced, mut windows) = (Vec::new(), Vec::new(), Vec::new());
    for q in 0..4 {
        let on = q % 2 == 1;
        trace::set_enabled(on);
        let from = trace::now_ns();
        let p = phase(&s.live, inputs, NOMINAL_RPS, quarter, arrivals);
        if on {
            windows.push(from..trace::now_ns());
            traced.push(p);
        } else {
            plain.push(p);
        }
    }
    trace::set_enabled(true);
    let stats = server_stats(&s.live.addr);
    let attempted_appends = s.live.appends.lock().expect("appends lock").attempted;
    let (report, grown, dir) = s.live.stop();

    let mut checked = Checked::default();
    for p in plain.iter().chain(&traced) {
        checked.check(&p.replies, &inputs.requests, &inputs.deltas);
    }
    let correct = checked.wrong == 0
        && s.warm.wrong + s.warm.failed == 0
        && report.clean
        && report.panics == 0;

    let mut layers = Layers::new();
    // Replays on the inputs the timed phase used.
    layers.set(
        "table.request_parse_ms",
        layers::replay_ms("table.read_csv_str", &inputs.bodies, |b| {
            std::hint::black_box(read_csv_str(b).expect("request bodies parse"));
        }),
    );
    let request_tables: Vec<Table> = inputs.requests.iter().map(|c| c.dirty.clone()).collect();
    layers.set(
        "graph.request_build_ms",
        layers::replay_request_build(&request_tables, config().feature_dim),
    );
    let small = request_tables
        .iter()
        .find(|t| t.n_rows() == crate::fit::SMALL_ROWS)
        .unwrap_or(&request_tables[0]);
    let graph = TableGraph::build(small, config().graph, &[]);
    GnnReplay::run(
        &graph,
        config().feature_dim,
        config().gnn,
        config().backend,
        s.n_weights,
        None,
        20,
    )
    .report(&mut layers);

    // Restore of the grown table from the newest checkpoint, then the
    // per-request path on that replica: parse, impute, serialise.
    let ck =
        TrainCheckpoint::load(&dir.join(CHECKPOINT_FILE)).expect("the newest checkpoint loads");
    let pipeline = Pipeline::new(config()).expect("the serve configuration is valid");
    let mut replica = None;
    let restore_ms = layers::replay_ms("core.restore", &[(); 3], |_| {
        replica = Some(
            pipeline
                .restore(&grown, &ck)
                .expect("the grown table restores"),
        );
    });
    layers.set("core.restore_ms", restore_ms);
    let mut replica = replica.expect("restored");
    let request_ms = layers::replay_samples("serve.request_path", &inputs.bodies, |b| {
        let t = trace::span("table.read_csv_str", || read_csv_str(b).expect("parses"));
        let out = trace::span("core.impute", || {
            replica
                .impute_traced(&t, &mut StampedSink)
                .expect("imputes")
        });
        std::hint::black_box(trace::span("table.to_csv", || to_csv_bytes(&out)));
    });

    // Appends replayed through the traced API on a copy of the directory.
    let copy = run.scratch("ckpt-replay");
    let _ = std::fs::remove_dir_all(&copy);
    std::fs::create_dir_all(&copy).expect("create the replay directory");
    for entry in std::fs::read_dir(&dir).expect("list the checkpoint directory") {
        let entry = entry.expect("directory entry");
        if entry.file_name() != LOCK_FILE {
            std::fs::copy(entry.path(), copy.join(entry.file_name()))
                .expect("copy checkpoint files");
        }
    }
    let append_pipeline = Pipeline::new(config().with_checkpoint_dir(&copy))
        .expect("the serve configuration is valid");
    let mut base = grown.clone();
    let mut append_roots = Vec::new();
    for delta in inputs.deltas.iter().rev().take(3) {
        let rows: Vec<grimp::WalRow> = delta.rows.clone();
        let outcome = trace::span("core.append", || {
            append_pipeline.append_traced(&base, &rows, &mut StampedSink)
        });
        append_roots.push(trace::last_span_id("core.append").expect("recorded"));
        match outcome {
            Ok(o) => base = o.table,
            Err(e) => {
                eprintln!("serve_mixed: replayed append failed: {e}");
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&copy);
    let _ = std::fs::remove_dir_all(&dir);

    let (spans, points) = trace::take();
    if let Some(root) = s.fit_root {
        layers::report_fit(&spans, &points, root, &mut layers);
    }
    if let Some(root) = s.impute_root {
        let t = Subtree::of(&spans, &points, root);
        layers.set("core.impute_s", t.total_s(names::IMPUTE));
    }
    let append = |name: &str| -> f64 {
        let v: Vec<f64> = append_roots
            .iter()
            .map(|&root| Subtree::of(&spans, &points, root).total_s(name) * 1e3)
            .collect();
        stats::median(&v)
    };
    layers.set("core.append_ms", append(names::APPEND));
    layers.set("core.finetune_ms", append(names::FIT));
    layers.set("core.checkpoint_save_ms", append(names::CHECKPOINT_SAVE));
    let wal: Vec<f64> = append_roots
        .iter()
        .filter_map(|&root| {
            let start = spans.iter().find(|s| s.id == root)?.start_ns;
            let p = points
                .iter()
                .find(|p| p.parent == Some(root) && p.name == names::WAL_WRITE)?;
            Some((p.t_ns - start) as f64 * 1e-6)
        })
        .collect();
    layers.set("core.wal_write_ms", stats::median(&wal));

    // Server-side request spans of the traced window.
    let (request_ms_server, queue_ms) = server_side(&spans, &points, &windows);
    let rq = |p: f64| stats::tail(&request_ms_server, p).map_or(0.0, |t| t.value);
    let qw = |p: f64| stats::tail(&queue_ms, p).map_or(0.0, |t| t.value);
    layers.set("serve.request_ms_p50", rq(50.0));
    layers.set("serve.request_ms_p99", rq(99.0));
    layers.set("serve.queue_wait_ms_p50", qw(50.0));
    layers.set("serve.queue_wait_ms_p99", qw(99.0));
    for (metric, key) in [
        ("serve.reloads", "reloads"),
        ("serve.shed", "shed"),
        ("serve.over_budget", "over_budget"),
        ("serve.panics", "panics"),
    ] {
        layers.set(metric, stats.get(key).copied().unwrap_or(0.0));
    }
    let late: Vec<f64> = traced
        .iter()
        .flat_map(|p| &p.imputes)
        .map(Done::late_ms)
        .collect();
    layers.set(
        "serve.generator_late_ms_p99",
        stats::tail(&late, 99.0).map_or(0.0, |t| t.value),
    );
    let all_appends = || plain.iter().chain(&traced).flat_map(|p| &p.appends);
    let append_lat: Vec<f64> = all_appends().map(Done::latency_ms).collect();
    layers.set(
        "serve.append_p50_ms",
        stats::tail(&append_lat, 50.0).map_or(0.0, |t| t.value),
    );
    layers.set(
        "serve.append_p90_ms",
        stats::tail(&append_lat, 90.0).map_or(0.0, |t| t.value),
    );
    let appends_ok = all_appends().filter(|d| d.ok).count();
    layers.set(
        "core.append_finetune_share",
        appends_ok as f64 / all_appends().count().max(1) as f64,
    );
    let p50 = |ps: &[Phase]| {
        let lat: Vec<f64> = ps.iter().flat_map(Phase::latency_ms).collect();
        stats::median(&lat)
    };
    layers.set("obs.trace_overhead", p50(&traced) / p50(&plain) - 1.0);
    // How much of the server-side impute time the replayed layers explain:
    // the per-request path, plus one restore per worker per generation.
    let traced_appends = traced
        .iter()
        .flat_map(|p| &p.appends)
        .filter(|d| d.ok)
        .count() as f64;
    let restores = (traced_appends * WORKERS as f64).min(request_ms_server.len() as f64);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let explained =
        mean(&request_ms) + restores * restore_ms / request_ms_server.len().max(1) as f64;
    layers.set("obs.span_coverage", explained / mean(&request_ms_server));

    details.insert("attempted_appends".into(), attempted_appends.to_string());
    details.insert("server_stats".into(), stats_json(&stats));
    details.insert("request_path_replay_ms".into(), json_summary(&request_ms));
    details.insert("server_impute_ms".into(), json_summary(&request_ms_server));
    std::fs::write(
        run.out.join("spans.jsonl"),
        trace::to_jsonl("serve_mixed", &spans),
    )
    .expect("write the span JSONL");
    layers::print_self_table("serve_mixed", &spans);
    Outcome {
        correct,
        attempted: checked.attempted,
        failed: checked.failed,
        metrics: layers.into_metrics(),
        details,
    }
}

/// Server-side durations (ms) of the impute `request` spans that began in
/// the traced `windows`, and the queue waits of those requests. A request
/// span holding an `append` event is an append.
fn server_side(
    spans: &[SpanRec],
    points: &[PointRec],
    windows: &[std::ops::Range<u64>],
) -> (Vec<f64>, Vec<f64>) {
    let appends: std::collections::HashSet<u64> = points
        .iter()
        .filter(|p| p.name == names::APPEND)
        .filter_map(|p| p.parent)
        .collect();
    let imputes: BTreeMap<u64, f64> = spans
        .iter()
        .filter(|s| {
            s.program && s.name == names::REQUEST && windows.iter().any(|w| w.contains(&s.start_ns))
        })
        .filter(|s| !appends.contains(&s.id))
        .map(|s| (s.id, s.secs() * 1e3))
        .collect();
    let queue = points
        .iter()
        .filter(|p| {
            p.name == names::QUEUE_WAIT && p.parent.is_some_and(|id| imputes.contains_key(&id))
        })
        .map(|p| p.value * 1e3)
        .collect();
    (imputes.into_values().collect(), queue)
}
