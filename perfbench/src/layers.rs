//! Per-layer metrics of the traced run: the list, what the program's own
//! stage events say about a fit, and the replayed timings of single layers.
//!
//! Every per-layer metric is reported on every workload; a layer the
//! workload does not exercise reads 0.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use grimp_gnn::{GnnConfig, HeteroSage};
use grimp_graph::{fasttext_features, GraphConfig, NeighborSampler, TableGraph};
use grimp_obs::names;
use grimp_table::Table;
use grimp_tensor::{Adam, BackendKind, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats;
use crate::trace::{self, PointRec, SpanRec};

/// The per-layer metrics, with their units, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("table.csv_read_s", "s"),
    ("table.request_parse_ms", "ms"),
    ("graph.build_s", "s"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("graph.features_s", "s"),
    ("graph.request_build_ms", "ms"),
    ("graph.sampled_edge_share", "ratio"),
    ("gnn.forward_ms", "ms"),
    ("gnn.backward_ms", "ms"),
    ("tensor.adam_step_ms", "ms"),
    ("core.forward_s", "s"),
    ("core.backward_s", "s"),
    ("core.optim_s", "s"),
    ("core.epoch_ms_p50", "ms"),
    ("core.epoch_self_s", "s"),
    ("core.model_build_s", "s"),
    ("core.batch_build_s", "s"),
    ("core.impute_s", "s"),
    ("core.tape_backward_nodes", "count"),
    ("core.allocs_after_epoch1", "count"),
    ("core.rollback_share", "ratio"),
    ("core.footprint_estimate_mb", "MB"),
    ("core.append_ms", "ms"),
    ("core.finetune_ms", "ms"),
    ("core.wal_write_ms", "ms"),
    ("core.checkpoint_save_ms", "ms"),
    ("core.restore_ms", "ms"),
    ("core.append_finetune_share", "ratio"),
    ("serve.request_ms_p50", "ms"),
    ("serve.request_ms_p99", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.reloads", "count"),
    ("serve.shed", "count"),
    ("serve.over_budget", "count"),
    ("serve.panics", "count"),
    ("serve.generator_late_ms_p99", "ms"),
    ("serve.append_p50_ms", "ms"),
    ("serve.append_p90_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("obs.span_coverage", "ratio"),
];

/// Per-layer values, every metric present (0 until set).
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// All metrics at 0.
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect())
    }

    /// Set one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }

    /// The metrics in report order, with units.
    pub fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER.iter().map(|(n, u)| (*n, self.0[n], *u)).collect()
    }
}

/// The spans below `root` (root included) and the points they hold.
pub struct Subtree<'a> {
    spans: Vec<&'a SpanRec>,
    points: Vec<&'a PointRec>,
    selfs: HashMap<u64, f64>,
}

impl<'a> Subtree<'a> {
    /// Collect the subtree of span `root`.
    pub fn of(spans: &'a [SpanRec], points: &'a [PointRec], root: u64) -> Subtree<'a> {
        let parent: HashMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
        let inside = |mut id: u64| loop {
            if id == root {
                return true;
            }
            match parent.get(&id).copied().flatten() {
                Some(p) => id = p,
                None => return false,
            }
        };
        let picked: Vec<&SpanRec> = spans.iter().filter(|s| inside(s.id)).collect();
        let ids: HashSet<u64> = picked.iter().map(|s| s.id).collect();
        let owned: Vec<SpanRec> = picked.iter().map(|s| (*s).clone()).collect();
        let selfs = picked
            .iter()
            .map(|s| s.id)
            .zip(trace::self_times(&owned))
            .collect();
        Subtree {
            points: points
                .iter()
                .filter(|p| p.parent.is_some_and(|id| ids.contains(&id)))
                .collect(),
            spans: picked,
            selfs,
        }
    }

    /// Spans called `name`.
    pub fn named(&self, name: &str) -> impl Iterator<Item = &&'a SpanRec> + '_ {
        let name = name.to_string();
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of the spans called `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.secs()).sum()
    }

    /// Summed self time of the spans called `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| self.selfs[&s.id]).sum()
    }

    /// Points called `name`.
    pub fn points(&self, name: &str) -> impl Iterator<Item = &&'a PointRec> + '_ {
        let name = name.to_string();
        self.points.iter().filter(move |p| p.name == name)
    }
}

/// Put what the program's stage events say about the traced fit under the
/// benchmark span `root` into `layers`; returns the share of the program's
/// `fit` span that its named stages cover.
pub fn report_fit(spans: &[SpanRec], points: &[PointRec], root: u64, layers: &mut Layers) -> f64 {
    let t = Subtree::of(spans, points, root);
    let last = |name: &str| t.points(name).last().map_or(0.0, |p| p.value);
    let epochs: Vec<f64> = t.named(names::EPOCH).map(|s| s.secs() * 1e3).collect();
    let rollbacks = t.named(names::EPOCH_ROLLBACK).count();
    let edges = last(names::GRAPH_EDGES);
    let sampled: Vec<f64> = t.points(names::SAMPLED_EDGES).map(|p| p.value).collect();
    let first_epoch = t.points(names::EPOCH_ALLOCS).map(|p| p.index).min();
    layers.set("graph.build_s", t.total_s(names::GRAPH_BUILD));
    layers.set("graph.nodes", last(names::GRAPH_NODES));
    layers.set("graph.edges", edges);
    layers.set("graph.features_s", t.total_s(names::FEATURE_INIT));
    // Full-batch epochs pass every edge; sampled ones a fanout-capped subset
    // (counted per direction).
    let share = if sampled.is_empty() || edges == 0.0 {
        1.0
    } else {
        stats::median(&sampled) / (2.0 * edges)
    };
    layers.set("graph.sampled_edge_share", share);
    layers.set("core.forward_s", t.total_s(names::FORWARD));
    layers.set("core.backward_s", t.total_s(names::BACKWARD));
    layers.set("core.optim_s", t.total_s(names::OPTIM));
    if !epochs.is_empty() {
        layers.set("core.epoch_ms_p50", stats::median(&epochs));
    }
    layers.set("core.epoch_self_s", t.self_s(names::EPOCH));
    layers.set("core.model_build_s", t.total_s(names::MODEL_BUILD));
    layers.set("core.batch_build_s", t.total_s(names::BATCH_BUILD));
    layers.set("core.tape_backward_nodes", last(names::TAPE_BACKWARD_NODES));
    let allocs = t
        .points(names::EPOCH_ALLOCS)
        .filter(|p| Some(p.index) != first_epoch)
        .map(|p| p.value)
        .sum();
    layers.set("core.allocs_after_epoch1", allocs);
    if rollbacks > 0 {
        layers.set(
            "core.rollback_share",
            rollbacks as f64 / (epochs.len() + rollbacks) as f64,
        );
    }
    let coverage = t
        .named(names::FIT)
        .next()
        .map_or(0.0, |f| 1.0 - t.selfs[&f.id] / f.secs());
    coverage
}

/// Wall time of `f` on each of `inputs`, in ms, each call in span `name`.
pub fn replay_samples<T>(name: &'static str, inputs: &[T], mut f: impl FnMut(&T)) -> Vec<f64> {
    inputs
        .iter()
        .map(|input| {
            let t = Instant::now();
            trace::span(name, || f(input));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Median of [`replay_samples`].
pub fn replay_ms<T>(name: &'static str, inputs: &[T], f: impl FnMut(&T)) -> f64 {
    stats::median(&replay_samples(name, inputs, f))
}

/// `TableGraph::build` plus `fasttext_features` on each request table.
pub fn replay_request_build(requests: &[Table], feature_dim: usize) -> f64 {
    replay_ms("graph.request_build", requests, |t| {
        let graph = TableGraph::build(t, GraphConfig::default(), &[]);
        std::hint::black_box(fasttext_features(&graph, feature_dim, 7));
    })
}

/// Median times of one GNN step replayed on `graph`: `HeteroSage::forward`,
/// `Tape::backward` of a sum over its output, and `Adam::step` over the
/// GNN's parameters padded to the model's parameter count `n_weights`.
/// With `fanout`, the adjacency is one epoch of the neighbour sampler.
pub struct GnnReplay {
    pub forward_ms: f64,
    pub backward_ms: f64,
    pub adam_ms: f64,
}

impl GnnReplay {
    pub fn run(
        graph: &TableGraph,
        feature_dim: usize,
        gnn: GnnConfig,
        backend: BackendKind,
        n_weights: usize,
        fanout: Option<usize>,
        reps: usize,
    ) -> GnnReplay {
        let mut rng = StdRng::seed_from_u64(7);
        let mut tape = Tape::new();
        tape.set_backend(backend);
        let mut sage = HeteroSage::new(&mut tape, graph, feature_dim, gnn, &mut rng);
        let pad = n_weights.saturating_sub(sage.n_weights());
        let pad = (pad > 0).then(|| tape.param(Tensor::zeros(1, pad)));
        let features = fasttext_features(graph, feature_dim, 7);
        let x = tape.input(Tensor::from_vec(
            graph.n_nodes(),
            feature_dim,
            features.node_matrix,
        ));
        tape.freeze();
        if let Some(fanout) = fanout {
            let mut sampler = NeighborSampler::new(graph, 7, fanout);
            sampler.sample_epoch(0);
            sage.rebind_lists(sampler.lists());
        }
        let mut adam = Adam::new(1e-3);
        let (mut fwd, mut bwd, mut opt) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..reps {
            let t = Instant::now();
            let loss = trace::span("gnn.forward", || {
                let h = sage.forward(&mut tape, x);
                let mut loss = tape.sum_all(h);
                if let Some(p) = pad {
                    let p = tape.sum_all(p);
                    loss = tape.add_n(&[loss, p]);
                }
                loss
            });
            fwd.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            trace::span("tensor.backward", || tape.backward(loss));
            bwd.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            trace::span("tensor.adam_step", || adam.step(&mut tape));
            opt.push(t.elapsed().as_secs_f64() * 1e3);
            tape.reset();
        }
        GnnReplay {
            forward_ms: stats::median(&fwd),
            backward_ms: stats::median(&bwd),
            adam_ms: stats::median(&opt),
        }
    }

    pub fn report(&self, layers: &mut Layers) {
        layers.set("gnn.forward_ms", self.forward_ms);
        layers.set("gnn.backward_ms", self.backward_ms);
        layers.set("tensor.adam_step_ms", self.adam_ms);
    }
}

/// The self-time table of a traced run, for standard error.
pub fn print_self_table(workload: &str, spans: &[SpanRec]) {
    eprintln!("self time by span, {workload} (traced run):");
    eprintln!(
        "{:<28} {:>7} {:>11} {:>11}",
        "span", "count", "total s", "self s"
    );
    for row in trace::self_table(spans) {
        eprintln!(
            "{:<28} {:>7} {:>11.4} {:>11.4}",
            row.name, row.count, row.total_s, row.self_s
        );
    }
}
