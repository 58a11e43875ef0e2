//! The two fit workloads.
//!
//! `fit_paper`: Adult at its paper Table 1 size (3,016 rows, 9 categorical
//! and 5 numerical columns) with 20 % MCAR holes and `GrimpConfig::paper()`
//! on the serial backend — the paper's own regime, where tensor kernels,
//! the tape, the GNN layer and the attention heads do nearly all the work.
//!
//! `fit_sampled`: the 250,000-row scaling table with 5 % MCAR holes, one
//! 16-wide GNN layer, linear heads and neighbour-sampled mini-batches on
//! the parallel backend — the same code at the other extreme, where graph
//! build, sampling and the full-graph impute carry a large share.
//!
//! Set-up reads the generated dirty CSV and builds the pipeline. The
//! measured phase repeats a fixed-epoch fit (median reported), each
//! followed by a window in which imputes of the training table (median
//! reported) alternate with bursts of request-sized unseen tables, cut from
//! a second draw of the same generator and imputed back to back in-process.

use std::fs::File;
use std::io::BufReader;
use std::time::Instant;

use grimp::{
    estimate_footprint, BackendKind, FittedModel, GrimpConfig, Pipeline, SamplerConfig, TaskKind,
};
use grimp_datasets::{generate, generate_large, DatasetId};
use grimp_gnn::GnnConfig;
use grimp_graph::{FeatureSource, TableGraph};
use grimp_table::csv::{read_csv, read_csv_str, to_csv_string};
use grimp_table::{inject_mcar, CorruptionLog, Table};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::layers::{self, GnnReplay, Layers};
use crate::stats;
use crate::trace::{self, StampedSink};
use crate::{json_summary, json_tail, peak_rss_mb, Outcome, Run};

/// Which fit workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Paper,
    Sampled,
}

/// Seed tags: one independent stream per kind of input.
const TAG_MASK: u64 = 1;
const TAG_HELD: u64 = 2;
const TAG_REQUESTS: u64 = 3;

/// Set-up is repeated at least `MIN_SETUP_REPS` times and for at least
/// `MIN_SETUP_S`; its median is `setup_s`.
const MIN_SETUP_REPS: usize = 5;
const MIN_SETUP_S: f64 = 1.0;
const MAX_SETUP_REPS: usize = 200;
/// Fits per untraced run, at least (the median is `fit_s`).
const MIN_FIT_REPS: usize = 3;
/// Training-table imputes after each fit, at least (the median over the
/// run is `impute_s`).
const MIN_IMPUTES_PER_FIT: usize = 2;
/// Share of `--seconds` given to the fits. The rest is split into one
/// window after each fit, in which training-table imputes and bursts of
/// requests alternate, so both sample the whole run as the fits do.
const FIT_SHARE: f64 = 0.6;
/// Requests imputed per run, at least.
const MIN_REQUESTS: usize = 200;
/// Distinct request tables, cycled through.
const REQUEST_POOL: usize = 100;
/// Rows of a request: most have `SMALL_ROWS`, a seeded one in ten `LARGE_ROWS`.
pub const SMALL_ROWS: usize = 40;
pub const LARGE_ROWS: usize = 300;
/// Holes in each request table.
pub const REQUEST_HOLES: f64 = 0.2;

struct Spec {
    name: &'static str,
    hole_rate: f64,
    epochs: usize,
    config: GrimpConfig,
}

fn spec(kind: Kind) -> Spec {
    match kind {
        Kind::Paper => {
            let epochs = 5;
            Spec {
                name: "fit_paper",
                hole_rate: 0.2,
                epochs,
                config: GrimpConfig {
                    max_epochs: epochs,
                    patience: epochs,
                    seed: 7,
                    ..GrimpConfig::paper()
                },
            }
        }
        Kind::Sampled => {
            let epochs = 3;
            Spec {
                name: "fit_sampled",
                hole_rate: 0.05,
                epochs,
                // The `scaling_probe` shape.
                config: GrimpConfig {
                    features: FeatureSource::FastText,
                    feature_dim: 16,
                    gnn: GnnConfig {
                        layers: 1,
                        hidden: 16,
                        ..Default::default()
                    },
                    merge_hidden: 32,
                    embed_dim: 16,
                    task_kind: TaskKind::Linear,
                    max_epochs: epochs,
                    patience: epochs,
                    max_train_samples_per_task: None,
                    sampler: Some(SamplerConfig {
                        batch_rows: 4096,
                        fanout: 8,
                    }),
                    seed: 7,
                    backend: BackendKind::Parallel {
                        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
                    },
                    ..GrimpConfig::fast()
                },
            }
        }
    }
}

fn clean_table(kind: Kind, seed: u64) -> Table {
    match kind {
        Kind::Paper => generate(DatasetId::Adult, seed).table,
        Kind::Sampled => generate_large(250_000, seed).table,
    }
}

/// Rows `start..start + n` of `t` as a table of their own.
pub fn slice(t: &Table, start: usize, n: usize) -> Table {
    let mut out = Table::empty(t.schema().clone());
    for i in start..start + n {
        let row: Vec<Option<String>> = (0..t.n_columns())
            .map(|j| (!t.is_missing(i, j)).then(|| t.display(i, j)))
            .collect();
        let cells: Vec<Option<&str>> = row.iter().map(|c| c.as_deref()).collect();
        out.push_str_row(&cells);
    }
    out
}

/// A request cut: clean rows, the dirty copy sent, and its holes.
pub struct Cut {
    pub clean: Table,
    pub dirty: Table,
    pub log: CorruptionLog,
}

/// `count` request cuts from `held`, in a seeded order: exactly one in ten
/// has [`LARGE_ROWS`] rows, the rest [`SMALL_ROWS`], each at a seeded
/// offset and with fresh MCAR holes. Runs cycle through the cuts in
/// order, so every seed offers the same mix of sizes.
pub fn cuts(held: &Table, count: usize, rng: &mut impl Rng) -> Vec<Cut> {
    let mut sizes: Vec<usize> = (0..count)
        .map(|i| if i % 10 == 0 { LARGE_ROWS } else { SMALL_ROWS })
        .collect();
    sizes.shuffle(rng);
    sizes
        .into_iter()
        .map(|rows| {
            let rows = rows.min(held.n_rows());
            let start = rng.gen_range(0..=held.n_rows() - rows);
            let clean = slice(held, start, rows);
            let mut dirty = clean.clone();
            let log = inject_mcar(&mut dirty, REQUEST_HOLES, rng);
            Cut { clean, dirty, log }
        })
        .collect()
}

pub fn run(run: &Run, kind: Kind) -> Outcome {
    let spec = spec(kind);
    let seconds = run.seconds;

    // Inputs, all from the seed.
    let clean = clean_table(kind, run.seed);
    let mut dirty = clean.clone();
    let log = inject_mcar(&mut dirty, spec.hole_rate, &mut run.rng(TAG_MASK));
    let csv_path = run.scratch(&format!("{}.csv", spec.name));
    std::fs::write(&csv_path, to_csv_string(&dirty)).expect("write the generated dirty CSV");
    drop(dirty);
    let held = match kind {
        Kind::Paper => clean_table(kind, run.seed ^ TAG_HELD),
        Kind::Sampled => generate_large(4 * LARGE_ROWS, run.seed ^ TAG_HELD).table,
    };
    let requests = cuts(&held, REQUEST_POOL, &mut run.rng(TAG_REQUESTS));

    let mut correct = true;
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut details = std::collections::BTreeMap::new();

    // Set-up: read the CSV and validate the configuration.
    let mut setup_s = Vec::new();
    let mut csv_read_s = Vec::new();
    let mut loaded = None;
    let setup_start = Instant::now();
    while setup_s.len() < MAX_SETUP_REPS
        && (setup_s.len() < MIN_SETUP_REPS || setup_start.elapsed().as_secs_f64() < MIN_SETUP_S)
    {
        let t = Instant::now();
        let table = trace::span("table.read_csv", || {
            let file = File::open(&csv_path).expect("open the generated CSV");
            read_csv(BufReader::new(file)).expect("the generated CSV parses")
        });
        csv_read_s.push(t.elapsed().as_secs_f64());
        let pipeline = trace::span("core.pipeline_new", || Pipeline::new(spec.config.clone()))
            .expect("the workload configuration is valid");
        setup_s.push(t.elapsed().as_secs_f64());
        loaded = Some((table, pipeline));
    }
    let (table, pipeline) = loaded.expect("at least one set-up");
    let _ = std::fs::remove_file(&csv_path);
    if table.n_rows() != clean.n_rows() || table.n_missing() != log.len() {
        eprintln!("{}: the CSV did not read back as written", spec.name);
        correct = false;
    }

    // Measured phase: fixed-epoch fits, each followed by a window of
    // training-table imputes alternating with request bursts.
    let (mut fit_s, mut impute_s) = (Vec::new(), Vec::new());
    let (mut traced_fit_s, mut fit_roots) = (Vec::new(), Vec::new());
    let mut quality = None;
    let mut model = None;
    let mut allocs_after_epoch1 = 0u64;
    let mut peak_mb = f64::NAN;
    let mut latency_ms = Vec::new();
    // Traced runs alternate untraced and traced fits, U T U T U, so their
    // ratio gives the tracing overhead; the first, which also warms the
    // allocator, is left out of it.
    let mut reps = if run.traced { 5 } else { MIN_FIT_REPS };
    let mut rep = 0;
    while rep < reps {
        // One model alive at a time, so the peak is one fit's.
        model = None;
        let traced_rep = run.traced && rep % 2 == 1;
        trace::set_enabled(traced_rep);
        attempted += 1;
        let t = Instant::now();
        let fitted = trace::span("core.fit", || {
            if traced_rep {
                pipeline.fit_traced(&table, &mut StampedSink)
            } else {
                pipeline.fit(&table)
            }
        });
        let dt = t.elapsed().as_secs_f64();
        if rep == 0 && !run.traced {
            reps = MIN_FIT_REPS.max((FIT_SHARE * seconds / dt) as usize);
        }
        let Ok(mut fitted) = fitted else {
            eprintln!("{}: fit failed", spec.name);
            failed += 1;
            rep += 1;
            continue;
        };
        if traced_rep {
            traced_fit_s.push(dt);
            fit_roots.push(trace::last_span_id("core.fit").expect("the fit span was recorded"));
        } else if !(run.traced && rep == 0) {
            fit_s.push(dt);
        }
        let report = fitted.report();
        if report.epochs_run != spec.epochs {
            eprintln!(
                "{}: fit ran {} epochs, want {}",
                spec.name, report.epochs_run, spec.epochs
            );
            correct = false;
        }
        // Reported, not gated: the count is a property of the hot path,
        // not of the imputed output.
        allocs_after_epoch1 = allocs_after_epoch1.max(report.epoch_allocs().iter().skip(1).sum());

        // The window after the fit: a training-table impute, then a burst
        // of requests as long as that impute took, until the window ends.
        let window_s = (1.0 - FIT_SHARE) * seconds / reps as f64;
        let min_requests = MIN_REQUESTS.div_ceil(reps);
        let requests_before = latency_ms.len();
        let window = Instant::now();
        let mut imputes = 0;
        loop {
            imputes += 1;
            attempted += 1;
            let t = Instant::now();
            let imputed = trace::span("core.impute", || {
                if traced_rep {
                    fitted.impute_traced(&table, &mut StampedSink)
                } else {
                    fitted.impute(&table)
                }
            });
            let dt = t.elapsed().as_secs_f64();
            match imputed {
                Ok(imputed) => {
                    if !traced_rep {
                        impute_s.push(dt);
                    }
                    if imputed.n_missing() != 0 || imputed.n_rows() != table.n_rows() {
                        eprintln!("{}: the impute left cells missing", spec.name);
                        correct = false;
                    }
                    if quality.is_none() {
                        let eval = grimp_metrics::evaluate(&clean, &imputed, &log);
                        quality = Some((
                            eval.accuracy().unwrap_or(f64::NAN),
                            eval.rmse().unwrap_or(f64::NAN),
                        ));
                    }
                }
                Err(e) => {
                    eprintln!("{}: impute failed: {e}", spec.name);
                    failed += 1;
                }
            }
            // The last burst of the window also makes up the fit's share
            // of the run's minimum request count.
            let last = imputes >= MIN_IMPUTES_PER_FIT
                && window.elapsed().as_secs_f64() + dt >= window_s;
            let burst_min = if last {
                min_requests.saturating_sub(latency_ms.len() - requests_before)
            } else {
                0
            };
            let requested =
                impute_requests(&mut fitted, &requests, latency_ms.len(), dt, burst_min);
            attempted += requested.latency_ms.len();
            failed += requested.failed;
            if requested.wrong > 0 {
                eprintln!(
                    "{}: {} request imputes left cells missing",
                    spec.name, requested.wrong
                );
                correct = false;
            }
            latency_ms.extend(requested.latency_ms);
            if last {
                break;
            }
        }
        if rep == 0 {
            // Later repetitions only add allocator fragmentation.
            peak_mb = peak_rss_mb();
        }
        model = Some(fitted);
        rep += 1;
    }
    trace::set_enabled(run.traced);
    let model = model.expect("at least one fit succeeded");

    let busy_s: f64 = latency_ms.iter().sum::<f64>() / 1e3;
    let p50 = stats::tail(&latency_ms, 50.0);
    let p99 = stats::tail(&latency_ms, 99.0);
    let (accuracy, rmse) = quality.unwrap_or((f64::NAN, f64::NAN));

    details.insert("setup_s".into(), json_summary(&setup_s));
    details.insert("fit_s".into(), json_summary(&fit_s));
    details.insert("impute_s".into(), json_summary(&impute_s));
    details.insert("impute_p50_ms".into(), json_tail(p50));
    details.insert("impute_p99_ms".into(), json_tail(p99));
    details.insert("epochs".into(), spec.epochs.to_string());
    details.insert(
        "allocs_after_epoch1".into(),
        allocs_after_epoch1.to_string(),
    );
    if allocs_after_epoch1 != 0 {
        eprintln!(
            "{}: {allocs_after_epoch1} workspace allocations after epoch 1 (the hot path promises 0)",
            spec.name
        );
    }

    if !run.traced {
        return Outcome {
            correct,
            attempted,
            failed,
            metrics: vec![
                ("setup_s", stats::median(&setup_s), "s"),
                ("peak_rss_mb", peak_mb, "MB"),
                ("ok_share", 1.0 - failed as f64 / attempted as f64, "ratio"),
                ("fit_s", stats::median(&fit_s), "s"),
                ("impute_s", stats::median(&impute_s), "s"),
                ("cat_accuracy", accuracy, "ratio"),
                ("num_rmse", rmse, "sigma"),
                ("impute_p50_ms", p50.map_or(f64::NAN, |t| t.value), "ms"),
                ("impute_p99_ms", p99.map_or(f64::NAN, |t| t.value), "ms"),
                ("max_rate_rps", latency_ms.len() as f64 / busy_s, "req/s"),
            ],
            details,
        };
    }

    // Traced run: replay single layers on the inputs the timed phase used.
    let request_tables: Vec<Table> = requests.iter().map(|c| c.dirty.clone()).collect();
    let bodies: Vec<String> = request_tables.iter().map(to_csv_string).collect();
    let mut layers = Layers::new();
    layers.set("table.csv_read_s", stats::median(&csv_read_s));
    layers.set(
        "table.request_parse_ms",
        layers::replay_ms("table.read_csv_str", &bodies, |b| {
            std::hint::black_box(read_csv_str(b).expect("request bodies parse"));
        }),
    );
    layers.set(
        "graph.request_build_ms",
        layers::replay_request_build(&request_tables, spec.config.feature_dim),
    );
    let footprint = trace::span("core.estimate_footprint", || {
        estimate_footprint(&table, &spec.config).total_bytes()
    });
    layers.set(
        "core.footprint_estimate_mb",
        footprint as f64 / (1024.0 * 1024.0),
    );
    let graph = trace::span("graph.build", || {
        TableGraph::build(&table, spec.config.graph, &[])
    });
    let n_weights = model.report().n_weights;
    GnnReplay::run(
        &graph,
        spec.config.feature_dim,
        spec.config.gnn,
        spec.config.backend,
        n_weights,
        spec.config.sampler.map(|s| s.fanout),
        5,
    )
    .report(&mut layers);
    drop(graph);

    let (spans, points) = trace::take();
    // The per-layer numbers of the median traced fit.
    let mut order: Vec<usize> = (0..fit_roots.len()).collect();
    order.sort_by(|&a, &b| traced_fit_s[a].total_cmp(&traced_fit_s[b]));
    if let Some(&m) = order.get(order.len() / 2) {
        let coverage = layers::report_fit(&spans, &points, fit_roots[m], &mut layers);
        layers.set("obs.span_coverage", coverage);
    }
    let impute_roots: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "core.impute")
        .map(|s| s.id)
        .collect();
    let impute_spans: Vec<f64> = spans
        .iter()
        .filter(|s| s.program && s.name == "impute")
        .filter(|s| s.parent.is_some_and(|p| impute_roots.contains(&p)))
        .map(|s| s.secs())
        .collect();
    layers.set("core.impute_s", stats::median(&impute_spans));
    layers.set(
        "obs.trace_overhead",
        stats::median(&traced_fit_s) / stats::median(&fit_s) - 1.0,
    );

    std::fs::write(
        run.out.join("spans.jsonl"),
        trace::to_jsonl(spec.name, &spans),
    )
    .expect("write the span JSONL");
    layers::print_self_table(spec.name, &spans);
    Outcome {
        correct,
        attempted,
        failed,
        metrics: layers.into_metrics(),
        details,
    }
}

/// What the request phase measured.
struct Requested {
    latency_ms: Vec<f64>,
    failed: usize,
    wrong: usize,
}

/// Impute the request tables in order from position `from`, back to back,
/// for `budget` seconds and at least `min` of them.
fn impute_requests(
    model: &mut FittedModel,
    requests: &[Cut],
    from: usize,
    budget: f64,
    min: usize,
) -> Requested {
    let mut out = Requested {
        latency_ms: Vec::new(),
        failed: 0,
        wrong: 0,
    };
    let start = Instant::now();
    while out.latency_ms.len() < min || start.elapsed().as_secs_f64() < budget {
        let i = from + out.latency_ms.len();
        let cut = &requests[i % requests.len()];
        let t = Instant::now();
        let imputed = trace::span_req("core.impute_request", Some(i as u64), || {
            model.impute_traced(&cut.dirty, &mut StampedSink)
        });
        out.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match imputed {
            Ok(t) if t.n_missing() == 0 && t.n_rows() == cut.dirty.n_rows() => {}
            Ok(_) => out.wrong += 1,
            Err(_) => out.failed += 1,
        }
    }
    out
}
