//! The GRIMP model: shared layer (HeteroGNN + merge) and multi-task heads,
//! trained end-to-end with the dual loss and early stopping (paper §3,
//! Algorithm 1).
//!
//! The training loop is fault-tolerant: a per-epoch divergence guard checks
//! loss, gradient, and parameter finiteness (plus global gradient-norm
//! clipping), every good epoch is snapshotted in memory (and optionally to
//! disk as a versioned [`TrainCheckpoint`]), and a detected anomaly rolls
//! back to the last good epoch with a halved learning rate. When the
//! recovery budget is exhausted the run degrades to the mode/mean baseline
//! so the imputation contract still holds.
//!
//! Every phase of a run — graph build, feature init, each epoch's
//! forward/backward/optim sub-phases, per-task losses, checkpoints,
//! recovery, imputation — emits structured events into a
//! [`grimp_obs::EventSink`] (see [`grimp_obs::names`] for the vocabulary).
//! With the default [`NullSink`] the instrumentation compiles down to a
//! branch on a `None`: no clock reads, no allocations. The
//! [`crate::report::TrainReport`] aggregates are the *same* measured
//! numbers that go into the trace, so
//! [`TrainReport::from_events`](crate::report::TrainReport::from_events)
//! on a recorded stream reproduces them bit-for-bit.

use std::ops::Range;
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use grimp_gnn::{Blocks, HeteroSage};
use grimp_graph::{build_features, fasttext_features, FeatureSource, NeighborSampler, TableGraph};
use grimp_obs::{names, EventSink, FaultFs, GrimpFs, NullSink, RealFs, Trace};
use grimp_table::{ColumnKind, Corpus, FdSet, Imputer, Normalizer, Table, Value};
use grimp_tensor::{Adam, AdamState, Mlp, Tape, Tensor, Var};

use crate::checkpoint::{TrainCheckpoint, CHECKPOINT_FILE, CHECKPOINT_PREV_FILE};
use crate::config::{CategoricalLoss, GrimpConfig};
use crate::error::GrimpError;
use crate::fault::TrainAnomaly;
#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::{FaultKind, FaultPlan};
use crate::governor::{downscale_to_budget, estimate_footprint, DirLock};
use crate::report::{ColumnTier, EpochStats, TrainReport};
use crate::tasks::Task;
use crate::vectors::VectorBatch;

/// Categorical fill value of the [`ColumnTier::Constant`] ladder rung —
/// deliberately non-empty, since the CSV layer treats `""` as null.
pub const CONSTANT_FILL_CATEGORICAL: &str = "(unknown)";
/// Numerical fill value of the [`ColumnTier::Constant`] ladder rung.
pub const CONSTANT_FILL_NUMERICAL: f64 = 0.0;

/// Resumable cursor of the training loop: everything a checkpoint must
/// capture, beyond tensors, to continue bit-exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainState {
    /// Completed epochs.
    pub epoch: usize,
    /// Learning rate in effect (halved by each divergence recovery).
    pub lr: f32,
    /// Best validation loss seen so far (`+inf` before the first epoch).
    pub best_val: f32,
    /// Epochs since `best_val` last improved (early-stopping counter).
    pub since_best: usize,
    /// Divergence recoveries consumed so far.
    pub recoveries: usize,
}

impl TrainState {
    /// Fresh state at epoch 0 with the configured learning rate.
    pub fn new(lr: f32) -> Self {
        TrainState {
            epoch: 0,
            lr,
            best_val: f32::INFINITY,
            since_best: 0,
            recoveries: 0,
        }
    }
}

/// In-memory rollback point: the training state plus parameter and
/// optimizer tensors as of the last good epoch. Buffers are reused across
/// epochs, so re-capturing allocates nothing in steady state.
struct Snapshot {
    state: TrainState,
    params: Vec<Tensor>,
    adam: AdamState,
}

/// The GRIMP imputer (paper §3). Construct with a config, call
/// [`Grimp::fit_impute`] (or the [`Imputer`] trait) on a dirty table.
///
/// For a fit-once/impute-many handle (including imputing *unseen* tables
/// with the inductive FastText features), use [`crate::Pipeline`], which
/// returns a [`FittedModel`].
pub struct Grimp {
    config: GrimpConfig,
    fds: FdSet,
    last_report: Option<TrainReport>,
}

/// Per-task label storage.
enum Labels {
    Cat(Rc<Vec<u32>>),
    Num(Rc<Vec<f32>>),
}

struct TaskBatch {
    batch: VectorBatch,
    labels: Labels,
}

impl Grimp {
    /// A GRIMP model with no FDs.
    pub fn new(config: GrimpConfig) -> Self {
        Grimp {
            config,
            fds: FdSet::empty(),
            last_report: None,
        }
    }

    /// A GRIMP model that exploits the given FDs in its attention `K`
    /// matrices (GRIMP-A of §4.3; pair with
    /// [`crate::config::KStrategy::WeakDiagonalFd`]).
    pub fn with_fds(config: GrimpConfig, fds: FdSet) -> Self {
        Grimp {
            config,
            fds,
            last_report: None,
        }
    }

    /// The report of the most recent [`Grimp::fit_impute`] call.
    pub fn last_report(&self) -> Option<&TrainReport> {
        self.last_report.as_ref()
    }

    /// The configuration.
    pub fn config(&self) -> &GrimpConfig {
        &self.config
    }

    /// Train on the dirty table (self-supervised — no clean data needed) and
    /// impute all its missing values.
    pub fn fit_impute(&mut self, dirty: &Table) -> Table {
        let mut sink = NullSink;
        self.fit_impute_traced(dirty, &mut sink)
    }

    /// [`Grimp::fit_impute`] with structured events streamed into `sink`.
    ///
    /// This entry point is infallible by contract: the only fit-time error
    /// (a zero-column table) has nothing to impute, so the input comes back
    /// unchanged, and the training-table impute path cannot fail.
    pub fn fit_impute_traced(&mut self, dirty: &Table, sink: &mut dyn EventSink) -> Table {
        let mut fitted = match fit_model(&self.config, &self.fds, dirty, sink) {
            Ok(f) => f,
            Err(_) => return dirty.clone(),
        };
        let result = fitted
            .impute_traced(dirty, sink)
            // Unreachable for the training table; kept as a safety net so
            // the Imputer contract survives even a future logic error.
            .unwrap_or_else(|_| baseline_fill(dirty));
        self.last_report = Some(fitted.report().clone());
        result
    }
}

/// Variant name shown in experiment output (paper §4.3 naming).
pub(crate) fn variant_name(config: &GrimpConfig) -> &'static str {
    match (config.task_kind, config.features) {
        (crate::config::TaskKind::Linear, _) => "GRIMP-linear",
        (_, FeatureSource::Embdi) => "GRIMP-E",
        (_, FeatureSource::FastText) => "GRIMP-FT",
        (_, FeatureSource::Random) => "GRIMP-rand",
    }
}

/// A trained GRIMP model, ready to impute: the fitted graph/tape/heads plus
/// everything needed to run inference again — on the training table or
/// (with FastText features) on schema-compatible unseen tables.
///
/// Produced by [`crate::Pipeline::fit`]; [`Grimp::fit_impute`] is a thin
/// fit-then-impute wrapper over the same machinery.
pub struct FittedModel {
    config: GrimpConfig,
    normalizer: Normalizer,
    /// Normalized copy of the training table.
    norm: Table,
    /// The original dirty training table (detects transductive imputes).
    train_dirty: Table,
    graph: TableGraph,
    tape: Tape,
    gnn: HeteroSage,
    /// The training graph's readout blocks over its full neighborhoods,
    /// built once: every training-table impute runs through them. A layer
    /// that computes every node shares the GNN's bound adjacency.
    train_blocks: Blocks,
    merge: Mlp,
    tasks: Vec<Task>,
    persistent_x: Option<Var>,
    /// Legacy hot path keeps the feature tensor to re-clone per pass.
    feature_tensor: Option<Tensor>,
    best_params: Option<Vec<Tensor>>,
    degraded: bool,
    /// Training-table dictionaries, for mapping predictions into unseen
    /// tables' dictionaries (empty vec for numerical columns).
    dictionaries: Vec<Vec<String>>,
    /// Seed of the inductive FastText features (None for other sources).
    ft_seed: Option<u64>,
    /// Degradation-ladder tier of every column, in schema order.
    tiers: Vec<ColumnTier>,
    report: TrainReport,
}

impl FittedModel {
    /// The training report. [`TrainReport::seconds`] accumulates the time
    /// of every [`FittedModel::impute`] call made through this model.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// The configuration the model was fitted with.
    pub fn config(&self) -> &GrimpConfig {
        &self.config
    }

    /// Whether training exhausted its recovery budget and imputation runs
    /// the mode/mean baseline instead of the GNN.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Degradation-ladder tier of every column, in schema order. Columns at
    /// [`ColumnTier::Gnn`] impute from their trained head; demoted columns
    /// impute from the mode/mean baseline or the global constant.
    pub fn column_tiers(&self) -> &[ColumnTier] {
        &self.tiers
    }

    /// Swap this model's weights for the ones in `ck` — the hot-reload
    /// primitive behind `grimp serve`'s checkpoint-generation rotation.
    ///
    /// The checkpoint's parameter tensors must line up shape-for-shape
    /// with this model's tape (i.e. it was written by a fit of the same
    /// table and configuration). On success the imputation weights become
    /// the checkpoint's best-validation parameters (falling back to its
    /// last-epoch parameters for checkpoints taken before the first
    /// validation improvement).
    ///
    /// # Errors
    /// [`grimp_tensor::CheckpointError::Corrupt`] when the shapes do not
    /// match; the model is left untouched.
    pub fn restore_checkpoint(
        &mut self,
        ck: &TrainCheckpoint,
    ) -> Result<(), grimp_tensor::CheckpointError> {
        if !snapshot_shapes_match(&self.tape, &ck.params) {
            return Err(grimp_tensor::CheckpointError::Corrupt(
                "parameter shapes do not match this model".to_string(),
            ));
        }
        self.tape.restore_param_values(&ck.params);
        self.best_params = Some(ck.best_params.clone().unwrap_or_else(|| ck.params.clone()));
        Ok(())
    }

    /// Impute all missing values of `table`.
    ///
    /// Passing the training table back runs the transductive path of the
    /// paper (one forward pass over the fitted graph). Any *other* table
    /// with the same schema takes the inductive path: its graph is rebuilt,
    /// the seed-deterministic FastText features are recomputed, and the
    /// trained weights are reused.
    ///
    /// Columns demoted down the degradation ladder (see
    /// [`FittedModel::column_tiers`]) fill from their mode/mean or the
    /// global constant instead of a task head; every missing cell is filled
    /// either way.
    ///
    /// # Errors
    /// On an unseen table, [`GrimpError::SchemaMismatch`] when the schema
    /// differs from the training schema. A model fitted without
    /// [`FeatureSource::FastText`] (EMBDI and random features are
    /// transductive — they cannot embed unseen values) does not error on an
    /// unseen table: its GNN-tier columns step down the degradation ladder
    /// to the mode/mean baseline of the new table, so every missing cell is
    /// still filled. Imputing the training table never fails.
    pub fn impute(&mut self, table: &Table) -> Result<Table, GrimpError> {
        let mut sink = NullSink;
        self.impute_traced(table, &mut sink)
    }

    /// [`FittedModel::impute`] with structured events streamed into `sink`.
    pub fn impute_traced(
        &mut self,
        table: &Table,
        sink: &mut dyn EventSink,
    ) -> Result<Table, GrimpError> {
        let mut trace = Trace::new(sink);
        let start = Instant::now();
        let span = trace.enter(names::IMPUTE, 0);
        let outcome = if *table == self.train_dirty {
            Ok(self.impute_training_table(&mut trace))
        } else {
            self.impute_unseen_table(table, &mut trace)
        };
        let dt = start.elapsed().as_secs_f64();
        self.report.seconds += dt;
        trace.exit_with(names::IMPUTE, 0, span, dt);
        let _ = trace.flush();
        outcome
    }

    /// Transductive imputation (§3.7): one forward pass from the
    /// best-validation parameters over the fitted graph's readout blocks,
    /// per-column argmax / de-normalized regression. Demoted columns skip
    /// the GNN and fill from their ladder tier; if no column is at the GNN
    /// tier the forward pass is skipped entirely.
    fn impute_training_table(&mut self, trace: &mut Trace<'_>) -> Table {
        let use_gnn = self.tiers.contains(&ColumnTier::Gnn);
        let mut result = self.train_dirty.clone();
        let h = if use_gnn {
            if let Some(best) = &self.best_params {
                self.tape.restore_param_values(best);
            }
            let x = match self.persistent_x {
                Some(x) => x,
                None => self.tape.input(
                    self.feature_tensor
                        .as_ref()
                        .expect("legacy path keeps features")
                        .clone(),
                ),
            };
            let h0 = self
                .gnn
                .forward_blocks(&mut self.tape, x, &self.train_blocks);
            Some(self.merge.forward(&mut self.tape, h0))
        } else {
            None
        };
        for (j, task) in self.tasks.iter().enumerate() {
            let missing: Vec<(usize, usize)> = (0..self.norm.n_rows())
                .filter(|&i| self.norm.is_missing(i, j))
                .map(|i| (i, j))
                .collect();
            if missing.is_empty() {
                continue;
            }
            match self.tiers[j] {
                ColumnTier::Gnn => {
                    let h = h.expect("invariant: forward pass ran for GNN-tier columns");
                    let batch =
                        VectorBatch::for_readout(&self.graph, &missing, self.config.embed_dim);
                    let out = task.forward(&mut self.tape, h, &batch);
                    let out_t = self.tape.value(out).clone();
                    match self.norm.schema().column(j).kind {
                        ColumnKind::Categorical => {
                            // GNN-tier categoricals have ≥ 2 dictionary
                            // entries (emptier columns were demoted).
                            for (s, &(i, _)) in missing.iter().enumerate() {
                                let row = out_t.row_slice(s);
                                let best = row
                                    .iter()
                                    .enumerate()
                                    .max_by(|a, b| a.1.total_cmp(b.1))
                                    .map(|(k, _)| k as u32)
                                    .expect("non-empty logits row");
                                result.set(i, j, Value::Cat(best));
                            }
                        }
                        ColumnKind::Numerical => {
                            let fallback = self.train_dirty.mean(j);
                            for (s, &(i, _)) in missing.iter().enumerate() {
                                let z = f64::from(out_t.get(s, 0));
                                let v = finite_or(self.normalizer.inverse(j, z), fallback);
                                result.set(i, j, Value::Num(v));
                            }
                        }
                    }
                }
                tier => fill_column_from_ladder(&mut result, &self.train_dirty, j, tier),
            }
            trace.counter(names::IMPUTED_CELLS, j as u64, missing.len() as u64);
        }
        if use_gnn {
            self.tape.reset();
        }
        result
    }

    /// Inductive imputation: rebuild the graph for the unseen table,
    /// recompute the seed-deterministic FastText features, run the GNN
    /// over the new graph's readout blocks, and map categorical
    /// predictions through the training dictionaries into the new table's
    /// dictionaries. Demoted columns fill from their ladder tier using the
    /// unseen table's own statistics.
    fn impute_unseen_table(
        &mut self,
        table: &Table,
        trace: &mut Trace<'_>,
    ) -> Result<Table, GrimpError> {
        if table.schema() != self.train_dirty.schema() {
            return Err(GrimpError::SchemaMismatch {
                expected: format!("{:?}", self.train_dirty.schema()),
                got: format!("{:?}", table.schema()),
            });
        }
        let use_gnn = self.tiers.contains(&ColumnTier::Gnn);
        let mut result = table.clone();
        // Graph + features + shared forward pass, built only when at least
        // one column still imputes from its trained head AND the features
        // are inductive (FastText). A transductive-feature model cannot
        // embed unseen values — its GNN-tier columns fall down the ladder
        // to the new table's mode/mean baseline instead of erroring.
        let prepared = if let (true, Some(ft_seed)) = (use_gnn, self.ft_seed) {
            if let Some(best) = &self.best_params {
                self.tape.restore_param_values(best);
            }
            let mut norm = table.clone();
            self.normalizer.apply(&mut norm);
            let graph = TableGraph::build_traced(&norm, self.config.graph, &[], trace);
            // Blocks straight from the new graph: the GNN stays bound to
            // the training graph.
            let blocks = self.gnn.graph_blocks(&graph, readout_of(&graph));
            let features = fasttext_features(&graph, self.config.feature_dim, ft_seed);
            let feature_tensor = Tensor::from_vec(
                graph.n_nodes(),
                self.config.feature_dim,
                features.node_matrix,
            );
            let x = self.tape.input(feature_tensor);
            let h0 = self.gnn.forward_blocks(&mut self.tape, x, &blocks);
            let h = self.merge.forward(&mut self.tape, h0);
            Some((norm, graph, h))
        } else {
            None
        };
        for (j, task) in self.tasks.iter().enumerate() {
            let missing: Vec<(usize, usize)> = (0..table.n_rows())
                .filter(|&i| table.is_missing(i, j))
                .map(|i| (i, j))
                .collect();
            if missing.is_empty() {
                continue;
            }
            match self.tiers[j] {
                ColumnTier::Gnn => {
                    let Some((norm, graph, h)) = prepared.as_ref() else {
                        // Transductive features: GNN-tier columns degrade to
                        // the unseen table's own mode/mean baseline.
                        fill_column_from_ladder(&mut result, table, j, ColumnTier::Baseline);
                        trace.counter(names::IMPUTED_CELLS, j as u64, missing.len() as u64);
                        continue;
                    };
                    let batch = VectorBatch::for_readout(graph, &missing, self.config.embed_dim);
                    let out = task.forward(&mut self.tape, *h, &batch);
                    let out_t = self.tape.value(out).clone();
                    match norm.schema().column(j).kind {
                        ColumnKind::Categorical => {
                            for (s, &(i, _)) in missing.iter().enumerate() {
                                let best = out_t
                                    .row_slice(s)
                                    .iter()
                                    .enumerate()
                                    .max_by(|a, b| a.1.total_cmp(b.1))
                                    .map(|(k, _)| k)
                                    .expect("non-empty logits row");
                                let label = &self.dictionaries[j][best];
                                let code = result.intern(j, label);
                                result.set(i, j, Value::Cat(code));
                            }
                        }
                        ColumnKind::Numerical => {
                            let fallback = table.mean(j);
                            for (s, &(i, _)) in missing.iter().enumerate() {
                                let z = f64::from(out_t.get(s, 0));
                                let v = finite_or(self.normalizer.inverse(j, z), fallback);
                                result.set(i, j, Value::Num(v));
                            }
                        }
                    }
                }
                tier => fill_column_from_ladder(&mut result, table, j, tier),
            }
            trace.counter(names::IMPUTED_CELLS, j as u64, missing.len() as u64);
        }
        if prepared.is_some() {
            self.tape.reset();
        }
        Ok(result)
    }
}

/// The GNN rows the task heads read: the graph's cell nodes
/// ([`TableGraph::readout_range`]). A graph without a single cell node
/// keeps node 0 as its one readout row: every vector slot is masked then,
/// but a gather still needs a row to point at.
fn readout_of(graph: &TableGraph) -> Range<usize> {
    let readout = graph.readout_range();
    if readout.is_empty() {
        0..graph.n_nodes().min(1)
    } else {
        readout
    }
}

/// Fill every missing cell of column `j` of `result` from the ladder tier,
/// with mode/mean statistics taken from `stats` (the table the missing
/// cells came from — `result` starts as its clone, so categorical codes
/// align). Falls through to the constant rung when the baseline statistic
/// does not exist (no observed value at all).
fn fill_column_from_ladder(result: &mut Table, stats: &Table, j: usize, tier: ColumnTier) {
    let missing: Vec<usize> = (0..stats.n_rows())
        .filter(|&i| stats.is_missing(i, j))
        .collect();
    match stats.schema().column(j).kind {
        ColumnKind::Categorical => {
            let code = match tier {
                ColumnTier::Baseline => stats.mode(j),
                _ => None,
            };
            let code = code.unwrap_or_else(|| result.intern(j, CONSTANT_FILL_CATEGORICAL));
            for i in missing {
                result.set(i, j, Value::Cat(code));
            }
        }
        ColumnKind::Numerical => {
            let v = match tier {
                ColumnTier::Baseline => stats.mean(j).unwrap_or(CONSTANT_FILL_NUMERICAL),
                _ => CONSTANT_FILL_NUMERICAL,
            };
            for i in missing {
                result.set(i, j, Value::Num(v));
            }
        }
    }
}

/// `v` when finite, otherwise the fallback statistic (or the global
/// constant when even that does not exist). Guards the de-normalization of
/// GNN regression outputs so an imputed cell is never `NaN`/`±inf`.
fn finite_or(v: f64, fallback: Option<f64>) -> f64 {
    if v.is_finite() {
        v
    } else {
        fallback.unwrap_or(CONSTANT_FILL_NUMERICAL)
    }
}

/// Initial ladder tier of a column, from its observed values alone: zero
/// observed (finite) values → [`ColumnTier::Constant`], exactly one
/// distinct value → the mode/mean [`ColumnTier::Baseline`] (a single-class
/// classifier or zero-variance regressor has nothing to learn), two or
/// more → [`ColumnTier::Gnn`].
fn detect_column_tier(table: &Table, j: usize) -> ColumnTier {
    let distinct = match table.schema().column(j).kind {
        ColumnKind::Categorical => table.column(j).n_distinct(),
        ColumnKind::Numerical => {
            let mut bits: Vec<u64> = (0..table.n_rows())
                .filter_map(|i| table.get(i, j).as_num())
                .filter(|v| v.is_finite())
                .map(f64::to_bits)
                .collect();
            bits.sort_unstable();
            bits.dedup();
            bits.len()
        }
    };
    match distinct {
        0 => ColumnTier::Constant,
        1 => ColumnTier::Baseline,
        _ => ColumnTier::Gnn,
    }
}

/// Stable code of an anomaly kind, used as the `anomaly` counter value.
fn anomaly_code(a: &TrainAnomaly) -> u64 {
    match a {
        TrainAnomaly::NonFiniteLoss { .. } => 0,
        TrainAnomaly::NonFiniteGradient { .. } => 1,
        TrainAnomaly::NonFiniteParameter { .. } => 2,
        TrainAnomaly::NonFiniteTaskLoss { column, .. } => 3 + *column as u64,
    }
}

/// Train a GRIMP model on the dirty table, emitting structured events into
/// `sink`, and return the fitted inference handle.
///
/// This is the engine behind both [`crate::Pipeline::fit`] and
/// [`Grimp::fit_impute`].
///
/// # Errors
/// [`GrimpError::EmptySchema`] when the table has no columns — there is
/// nothing to impute and no graph to build. Every other pathology (empty
/// columns, degenerate dictionaries, non-finite observations, diverging
/// heads) is absorbed by the per-column degradation ladder instead.
pub(crate) fn fit_model(
    config: &GrimpConfig,
    fds: &FdSet,
    dirty: &Table,
    sink: &mut dyn EventSink,
) -> Result<FittedModel, GrimpError> {
    fit_model_delta(config, fds, dirty, None, sink)
}

/// [`fit_model`] with an optional append-delta boundary: when `delta_from`
/// is `Some(base_rows)`, the first `base_rows` rows of `dirty` are the
/// already-trained base table and only the appended tail contributes
/// training samples — a warm-start fine-tune. The model structure (graph,
/// features, tape shapes) is still that of the whole concatenated table:
/// the graph is grown from the base build via
/// [`TableGraph::append_rows`] (bit-identical to a from-scratch build),
/// validation spans the whole table, and a post-loop drift check compares
/// the last validation loss against the run's best, scheduling a full
/// refit in the report when the regression exceeds
/// [`crate::FinetuneConfig::drift_band`].
pub(crate) fn fit_model_delta(
    config: &GrimpConfig,
    fds: &FdSet,
    dirty: &Table,
    delta_from: Option<usize>,
    sink: &mut dyn EventSink,
) -> Result<FittedModel, GrimpError> {
    if dirty.n_columns() == 0 {
        return Err(GrimpError::EmptySchema);
    }
    let fit_start = Instant::now();
    let mut trace = Trace::new(sink);
    let fit_span = trace.enter(names::FIT, 0);

    // Admission-time memory governor: estimate the graph + tape footprint
    // before anything is allocated, and when it exceeds the budget walk
    // the downscale ladder (value-node cap, then hidden dims) instead of
    // OOM-ing mid-fit. Every decision lands in the report and the trace.
    let mut effective = config.clone();
    let mut downscales = Vec::new();
    if let Some(budget_mb) = config.memory_budget_mb {
        let estimate = estimate_footprint(dirty, config);
        trace.counter(names::MEM_ESTIMATE, 0, estimate.total_bytes());
        let (downsized, decisions) = downscale_to_budget(config, dirty, budget_mb);
        for d in &decisions {
            trace.counter(names::DOWNSCALE, d.rung.code(), d.value);
        }
        effective = downsized;
        downscales = decisions;
    }
    let cfg = &effective;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // All checkpoint-path IO goes through this handle so faults can be
    // injected deterministically (`GrimpConfig::io_fault`).
    let mut ckfs: Box<dyn GrimpFs> = match cfg.io_fault {
        Some(plan) => Box::new(FaultFs::new(plan)),
        None => Box::new(RealFs),
    };

    // Normalize numericals (paper §3.2); labels and the graph use the
    // normalized copy, outputs are de-normalized at the end.
    let normalizer = Normalizer::fit(dirty);
    let mut norm = dirty.clone();
    normalizer.apply(&mut norm);

    // Per-column degradation ladder: columns that cannot possibly train a
    // task head (no observed value, or a single distinct one) start below
    // the GNN tier and never enter the shared objective.
    let mut tiers: Vec<ColumnTier> = (0..dirty.n_columns())
        .map(|j| detect_column_tier(dirty, j))
        .collect();

    // Training corpus and validation holdout (§3.3, §3.6). Demoted columns
    // contribute no samples: their observed cells stay in the graph as
    // context, but their (degenerate) loss is dropped from the objective.
    let mut corpus = Corpus::build(&norm, cfg.validation_fraction, &mut rng);
    for (j, tier) in tiers.iter().enumerate() {
        if *tier != ColumnTier::Gnn {
            corpus.train[j].clear();
            corpus.validation[j].clear();
        }
    }
    // Append-delta fine-tune: only the appended tail contributes training
    // samples (the base rows are already learned), but validation spans the
    // whole table so early stopping and the drift check measure quality on
    // everything the model serves.
    if let Some(base_rows) = delta_from {
        for samples in corpus.train.iter_mut() {
            samples.retain(|s| s.row >= base_rows);
        }
    }
    let excluded: Vec<(usize, usize)> = corpus
        .validation_flat()
        .map(|s| (s.row, s.target_col))
        .collect();

    // Graph without validation edges (§3.6) — test cells are already ∅.
    let graph = match (&cfg.sampler, delta_from) {
        // Append-delta path: grow the base graph by the appended rows
        // (CSR segment append + value-node dictionary growth) instead
        // of rebuilding from scratch. `append_rows` is proptest-proven
        // bit-identical to the monolithic build, so a capped graph (or
        // any other rejection) can just fall back to scratch.
        (None, Some(base_rows)) if base_rows <= norm.n_rows() => {
            let base_excluded: Vec<(usize, usize)> = excluded
                .iter()
                .copied()
                .filter(|&(i, _)| i < base_rows)
                .collect();
            let base = norm.head(base_rows);
            let mut g = TableGraph::build_traced(&base, cfg.graph, &base_excluded, &mut trace);
            match g.append_rows(&norm, &excluded) {
                Ok(()) => g,
                Err(_) => TableGraph::build_traced(&norm, cfg.graph, &excluded, &mut trace),
            }
        }
        _ => TableGraph::build_traced(&norm, cfg.graph, &excluded, &mut trace),
    };

    // Feature init. The FastText arm captures its seed so the fitted model
    // can recompute identical features on unseen tables; drawing exactly
    // one u64 keeps the RNG stream identical to `build_features`.
    let feat_span = trace.enter(names::FEATURE_INIT, 0);
    let (features, ft_seed) = match cfg.features {
        FeatureSource::FastText => {
            let seed: u64 = rng.gen();
            (fasttext_features(&graph, cfg.feature_dim, seed), Some(seed))
        }
        source => (
            build_features(&graph, &norm, source, cfg.feature_dim, &cfg.embdi, &mut rng),
            None,
        ),
    };
    trace.counter(names::FEATURE_DIM, 0, features.dim as u64);
    trace.exit(names::FEATURE_INIT, 0, feat_span);
    let feature_tensor = Tensor::from_vec(graph.n_nodes(), cfg.feature_dim, features.node_matrix);

    // Shared layer: HeteroGNN + two-linear-layer merge (§3.5), then one
    // task head per attribute.
    let model_span = trace.enter(names::MODEL_BUILD, 0);
    let mut tape = Tape::new();
    tape.set_legacy_mode(cfg.legacy_hot_path);
    tape.set_backend(cfg.backend);
    trace.counter(
        names::BACKEND,
        cfg.backend.code(),
        cfg.backend.threads() as u64,
    );
    let gnn = HeteroSage::new(&mut tape, &graph, cfg.feature_dim, cfg.gnn, &mut rng);
    // The task heads read only the cell nodes, so every forward pass runs
    // the GNN's message-flow blocks of that readout set instead of all
    // nodes (the merge MLP then sees readout rows only).
    let readout = readout_of(&graph);
    let train_blocks = gnn.readout_blocks(readout.clone());
    let merge = Mlp::new(
        &mut tape,
        &[cfg.gnn.hidden, cfg.merge_hidden, cfg.embed_dim],
        &mut rng,
    );
    let n_cols = norm.n_columns();
    let tasks: Vec<Task> = (0..n_cols)
        .map(|j| {
            let out_dim = match norm.schema().column(j).kind {
                ColumnKind::Categorical => norm.dictionary(j).len().max(1),
                ColumnKind::Numerical => 1,
            };
            let q_init = Some(attribute_q_init(
                &features.attribute_matrix,
                features.dim,
                n_cols,
                cfg.embed_dim,
            ));
            Task::new(
                &mut tape,
                cfg.task_kind,
                n_cols,
                cfg.embed_dim,
                cfg.merge_hidden,
                out_dim,
                j,
                cfg.k_strategy,
                fds,
                q_init,
                &mut rng,
            )
        })
        .collect();
    // Optimized hot path: register the node features once as a persistent
    // input that survives every reset. The legacy path keeps the tensor
    // around and re-clones it onto the tape each epoch.
    let mut feature_tensor = Some(feature_tensor);
    let persistent_x = (!cfg.legacy_hot_path)
        .then(|| tape.input(feature_tensor.take().expect("features not yet consumed")));
    tape.freeze();
    let n_weights = tape.total_param_elems();
    trace.counter(names::N_WEIGHTS, 0, n_weights as u64);
    trace.exit(names::MODEL_BUILD, 0, model_span);
    let mut adam = Adam::new(cfg.lr);

    // Pre-build the per-task batches. Full-batch mode fixes them for the
    // whole run; sampled mode carves a fixed-shape mini-batch per task
    // (refilled in place every epoch) and keeps the full pool around.
    let batch_span = trace.enter(names::BATCH_BUILD, 0);
    let (mut train_batches, mut sampled) = match &cfg.sampler {
        Some(s) => {
            let (batches, pools) = build_sampled_task_batches(
                &graph,
                &norm,
                &corpus.train,
                cfg.embed_dim,
                s.batch_rows,
            );
            let sampler = NeighborSampler::new(&graph, cfg.seed, s.fanout);
            let st = SampledTraining {
                sampled_edges: sampler.sampled_edges(),
                sampler,
                batch_rows: s.batch_rows,
                pools,
                scratch: Vec::new(),
            };
            trace.counter(names::BATCH_ROWS, 0, s.batch_rows as u64);
            trace.counter(names::FANOUT, 0, s.fanout as u64);
            (batches, Some(st))
        }
        None => (
            build_task_batches(
                &graph,
                &norm,
                &corpus.train,
                cfg.embed_dim,
                cfg.max_train_samples_per_task,
                &mut rng,
            ),
            None,
        ),
    };
    let val_batches = build_task_batches(
        &graph,
        &norm,
        &corpus.validation,
        cfg.embed_dim,
        cfg.sampler.as_ref().map(|s| s.batch_rows),
        &mut rng,
    );
    trace.exit(names::BATCH_BUILD, 0, batch_span);

    // A GNN-tier column can still end up with zero training samples (e.g.
    // every observed cell landed in the validation split): it cannot learn
    // a head either, so it steps down to the baseline tier. Not in delta
    // mode — there an empty batch just means the appended rows brought no
    // new observations for a column whose head is already trained (the
    // resumed checkpoint carries its weights), so it stays on the GNN tier.
    if delta_from.is_none() {
        for (j, tb) in train_batches.iter().enumerate() {
            if tiers[j] == ColumnTier::Gnn && tb.is_none() {
                tiers[j] = ColumnTier::Baseline;
            }
        }
    }
    // With no GNN-tier column left the epoch loop is skipped entirely —
    // every column fills from its ladder tier at impute time.
    let trainable = tiers.contains(&ColumnTier::Gnn);

    // Training loop with early stopping on validation loss, wrapped in
    // the divergence guard + rollback/recovery machinery.
    let mut report = TrainReport {
        n_weights,
        downscales,
        backend_threads: cfg.backend.threads(),
        sampler_batch_rows: cfg.sampler.as_ref().map(|s| s.batch_rows),
        sampler_fanout: cfg.sampler.as_ref().map(|s| s.fanout),
        ..Default::default()
    };
    let mut state = TrainState::new(cfg.lr);
    let mut best_params: Option<Vec<Tensor>> = None;

    // Resume from a disk checkpoint when asked to. A missing file starts
    // a fresh run; an unreadable or mismatched one is reported and also
    // starts fresh — resume must never panic.
    let mut ckpt_path = cfg.checkpoint_dir.as_ref().map(|d| d.join(CHECKPOINT_FILE));
    let mut _dir_lock: Option<DirLock> = None;
    if let Some(dir) = &cfg.checkpoint_dir {
        use grimp_obs::fs::{with_retry_capped, IO_RETRY_ATTEMPTS};
        // Retry backoffs spend real wall-clock time; cap them at whatever
        // is left of the governor deadline so a flaky disk cannot sleep a
        // nearly-expired run past its budget.
        let retry_cap = |deadline: Option<f64>| {
            deadline.map(|d| {
                std::time::Duration::from_secs_f64((d - fit_start.elapsed().as_secs_f64()).max(0.0))
            })
        };
        if let Err(e) = with_retry_capped(IO_RETRY_ATTEMPTS, retry_cap(cfg.deadline_secs), || {
            ckfs.create_dir_all(dir)
        }) {
            report.io_errors.push(format!(
                "cannot create checkpoint dir {}: {e}",
                dir.display()
            ));
            trace.counter(names::IO_ERROR, report.io_errors.len() as u64, 1);
        }
        // Exclusive lock so two concurrent runs cannot corrupt each
        // other's checkpoint rotation. A held lock is a hard error (the
        // caller picked the directory); any other lock-file IO failure
        // degrades to checkpoint-less training.
        // Transient faults are retried (FaultFs injects them *before*
        // creating the file, and a real EINTR mid-create leaves nothing
        // behind either, so a retry cannot trip over its own lock file).
        match with_retry_capped(IO_RETRY_ATTEMPTS, retry_cap(cfg.deadline_secs), || {
            DirLock::acquire(ckfs.as_mut(), dir)
        }) {
            Ok(lock) => _dir_lock = Some(lock),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                // Stale-lock reclaim: a lock whose recorded holder is no
                // longer alive (or whose content is unreadable — a torn
                // write from a crashed run) would otherwise livelock every
                // future run on this directory. Remove it, trace the
                // reclaim, and retry once. A live holder — including this
                // very process — stays a hard error.
                let owner = DirLock::owner_pid(ckfs.as_mut(), dir);
                if owner.is_some_and(crate::governor::pid_alive) {
                    return Err(GrimpError::LockHeld {
                        path: dir.join(crate::governor::LOCK_FILE),
                        owner_pid: owner,
                    });
                }
                let _ = std::fs::remove_file(dir.join(crate::governor::LOCK_FILE));
                trace.counter(names::LOCK_RECLAIMED, u64::from(owner.unwrap_or(0)), 1);
                report.locks_reclaimed += 1;
                match with_retry_capped(IO_RETRY_ATTEMPTS, retry_cap(cfg.deadline_secs), || {
                    DirLock::acquire(ckfs.as_mut(), dir)
                }) {
                    Ok(lock) => _dir_lock = Some(lock),
                    Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                        // Lost the race to another run between the reclaim
                        // and our retry; that holder is live by construction.
                        return Err(GrimpError::LockHeld {
                            path: dir.join(crate::governor::LOCK_FILE),
                            owner_pid: DirLock::owner_pid(ckfs.as_mut(), dir),
                        });
                    }
                    Err(e) => {
                        report.io_errors.push(format!(
                            "cannot lock checkpoint dir {}: {e}; continuing without checkpoints",
                            dir.display()
                        ));
                        trace.counter(names::IO_ERROR, report.io_errors.len() as u64, 1);
                        ckpt_path = None;
                        let _ = std::fs::remove_file(dir.join(crate::governor::LOCK_FILE));
                    }
                }
            }
            Err(e) => {
                report.io_errors.push(format!(
                    "cannot lock checkpoint dir {}: {e}; continuing without checkpoints",
                    dir.display()
                ));
                trace.counter(names::IO_ERROR, report.io_errors.len() as u64, 1);
                ckpt_path = None;
                // The failed create may have left a half-written lock file
                // behind (torn write); it was ours, so clean it up.
                let _ = std::fs::remove_file(dir.join(crate::governor::LOCK_FILE));
            }
        }
    }
    if cfg.resume {
        if let Some(dir) = &cfg.checkpoint_dir {
            // Two-generation fallback: a truncated or bit-flipped current
            // checkpoint (rejected by its CRC-32 footer) is reported, then
            // the previous good generation is tried before giving up and
            // restarting from scratch.
            let candidates = [dir.join(CHECKPOINT_FILE), dir.join(CHECKPOINT_PREV_FILE)];
            for path in candidates.iter().filter(|p| p.exists()) {
                match TrainCheckpoint::load(path) {
                    Ok(ck) if snapshot_shapes_match(&tape, &ck.params) => {
                        tape.restore_param_values(&ck.params);
                        adam.import_state(&ck.adam);
                        rng = StdRng::from_state(ck.rng);
                        state = TrainState {
                            epoch: ck.epoch as usize,
                            lr: ck.lr,
                            best_val: ck.best_val,
                            since_best: ck.since_best as usize,
                            recoveries: ck.recoveries as usize,
                        };
                        best_params = ck.best_params;
                        report.resumed_from_epoch = Some(state.epoch);
                        trace.counter(names::RESUME, state.epoch as u64, 1);
                        break;
                    }
                    Ok(_) => {
                        report.io_errors.push(format!(
                            "checkpoint at {} does not match this model's parameter shapes; \
                             restarting from scratch",
                            path.display()
                        ));
                        trace.counter(names::IO_ERROR, report.io_errors.len() as u64, 1);
                    }
                    Err(e) => {
                        report.io_errors.push(format!(
                            "failed to resume from {}: {e}; restarting from scratch",
                            path.display()
                        ));
                        trace.counter(names::IO_ERROR, report.io_errors.len() as u64, 1);
                    }
                }
            }
        }
    }
    #[cfg(any(test, feature = "fault-injection"))]
    let fault_plan = cfg.fault_injection;
    #[cfg(any(test, feature = "fault-injection"))]
    let mut injected = 0usize;

    let mut last_good = Snapshot {
        state,
        params: tape.snapshot_param_values(),
        adam: adam.export_state(),
    };
    let mut degraded = false;
    let checkpoint_every = cfg.checkpoint_every.max(1);
    // Persistent checkpoint-write failures disable checkpointing for the
    // rest of the run (training continues checkpoint-less) instead of
    // hammering a dead disk every epoch. Transient faults are already
    // retried inside `save_with` and reset the strike counter on success.
    let mut ckpt_strikes = 0usize;
    let mut train_losses: Vec<Var> = Vec::new();
    while trainable && state.epoch < cfg.max_epochs && state.since_best < cfg.patience {
        // Resource governance, checked at every epoch boundary: a blown
        // wall-clock budget or a shutdown request stops training cleanly —
        // the final checkpoint below still runs, and imputation proceeds
        // from whatever epochs completed.
        if let Some(deadline) = cfg.deadline_secs {
            if fit_start.elapsed().as_secs_f64() >= deadline {
                report.deadline_hit = true;
                report.stopped_at_epoch = Some(state.epoch);
                trace.counter(names::DEADLINE_HIT, state.epoch as u64, 1);
                break;
            }
        }
        if let Some(flag) = &cfg.shutdown {
            if flag.is_requested() {
                report.interrupted = true;
                report.stopped_at_epoch = Some(state.epoch);
                trace.counter(names::INTERRUPTED, state.epoch as u64, 1);
                break;
            }
        }
        let epoch_idx = state.epoch as u64;
        let misses_before = tape.workspace_stats().misses;
        let epoch_start = Instant::now();
        let epoch_span = trace.enter(names::EPOCH, epoch_idx);

        // Neighbor-sampled mode: re-draw this epoch's sampled frontier of
        // the readout and the mini-batches before the forward pass. Every
        // draw is a pure function of (seed, epoch, task) — independent of
        // the training RNG stream — so resumed and rolled-back epochs
        // re-draw identically.
        let mut sampled_edges = 0u64;
        let mut epoch_blocks = None;
        if let Some(st) = sampled.as_mut() {
            sampled_edges = st.sampled_edges;
            epoch_blocks = Some(gnn.sampled_blocks(&st.sampler, epoch_idx, readout.clone()));
            for (j, pool) in st.pools.iter_mut().enumerate() {
                let Some(pool) = pool else { continue };
                if tiers[j] != ColumnTier::Gnn {
                    continue;
                }
                let Some(tb) = train_batches[j].as_mut() else {
                    continue;
                };
                pool.refill_epoch(
                    cfg.seed,
                    epoch_idx,
                    j as u64,
                    st.batch_rows,
                    &graph,
                    &mut st.scratch,
                    tb,
                );
            }
            trace.counter(names::SAMPLED_EDGES, epoch_idx, sampled_edges);
        }

        let forward_start = Instant::now();
        let fwd_span = trace.enter(names::FORWARD, epoch_idx);
        let x = match persistent_x {
            Some(x) => x,
            None => tape.input(
                feature_tensor
                    .as_ref()
                    .expect("legacy path keeps features")
                    .clone(),
            ),
        };
        let blocks = epoch_blocks.as_ref().unwrap_or(&train_blocks);
        let h0 = gnn.forward_blocks(&mut tape, x, blocks);
        let h = merge.forward(&mut tape, h0);

        train_losses.clear();
        for (j, (task, tb)) in tasks.iter().zip(&train_batches).enumerate() {
            if tiers[j] != ColumnTier::Gnn {
                continue;
            }
            let Some(tb) = tb else { continue };
            let l = task_loss(&mut tape, task, h, tb, cfg.categorical_loss);
            #[cfg(any(test, feature = "fault-injection"))]
            inject_task_loss_fault(
                &mut tape,
                l,
                fault_plan.as_ref(),
                j,
                state.epoch,
                &mut injected,
            );
            let lv = tape.value(l).item();
            if !lv.is_finite() {
                // Per-column divergence: demote just this column and keep
                // training the others. The poisoned loss node is excluded
                // from the summed objective, so backward never touches it.
                let a = TrainAnomaly::NonFiniteTaskLoss {
                    epoch: state.epoch,
                    column: j,
                };
                trace.counter(names::ANOMALY, epoch_idx, anomaly_code(&a));
                report.anomalies.push(a);
                trace.counter(names::COLUMN_DEMOTED, j as u64, state.epoch as u64);
                tiers[j] = ColumnTier::Baseline;
                continue;
            }
            if trace.is_enabled() {
                trace.metric(names::TASK_LOSS, j as u64, f64::from(lv));
            }
            train_losses.push(l);
        }
        let mut val_total = 0.0f32;
        for (j, (task, tb)) in tasks.iter().zip(&val_batches).enumerate() {
            if tiers[j] != ColumnTier::Gnn {
                continue;
            }
            let Some(tb) = tb else { continue };
            let l = task_loss(&mut tape, task, h, tb, cfg.categorical_loss);
            let lv = tape.value(l).item();
            if !lv.is_finite() {
                let a = TrainAnomaly::NonFiniteTaskLoss {
                    epoch: state.epoch,
                    column: j,
                };
                trace.counter(names::ANOMALY, epoch_idx, anomaly_code(&a));
                report.anomalies.push(a);
                trace.counter(names::COLUMN_DEMOTED, j as u64, state.epoch as u64);
                tiers[j] = ColumnTier::Baseline;
                continue;
            }
            val_total += lv;
        }
        if train_losses.is_empty() {
            tape.reset();
            // Nothing trainable: the attempt produced no epoch. Close the
            // span as a rollback so trace consumers discard it too.
            trace.exit_with(
                names::EPOCH_ROLLBACK,
                epoch_idx,
                epoch_span,
                epoch_start.elapsed().as_secs_f64(),
            );
            drop(fwd_span);
            break;
        }
        let total = tape.add_n(&train_losses);
        let train_total = tape.value(total).item();
        let fwd_dt = forward_start.elapsed().as_secs_f64();
        report.forward_s += fwd_dt;
        trace.exit_with(names::FORWARD, epoch_idx, fwd_span, fwd_dt);

        // Divergence guard: loss finiteness after the forward pass,
        // gradient finiteness (via the global norm) after backward,
        // parameter finiteness after the optimizer step.
        let mut anomaly: Option<TrainAnomaly> = None;
        let mut grad_norm = 0.0f64;
        let mut bwd_dt = 0.0f64;
        let mut opt_dt = 0.0f64;
        if !train_total.is_finite() || !val_total.is_finite() {
            anomaly = Some(TrainAnomaly::NonFiniteLoss {
                epoch: state.epoch,
                train: train_total,
                val: val_total,
            });
        } else {
            let backward_start = Instant::now();
            let bwd_span = trace.enter(names::BACKWARD, epoch_idx);
            tape.backward(total);
            bwd_dt = backward_start.elapsed().as_secs_f64();
            report.backward_s += bwd_dt;
            trace.exit_with(names::BACKWARD, epoch_idx, bwd_span, bwd_dt);
            if trace.is_enabled() {
                trace.counter(
                    names::TAPE_BACKWARD_NODES,
                    epoch_idx,
                    tape.last_backward_stats().nodes_visited,
                );
            }

            #[cfg(any(test, feature = "fault-injection"))]
            inject_gradient_fault(&mut tape, fault_plan.as_ref(), state.epoch, &mut injected);

            grad_norm = tape.global_grad_norm();
            if !grad_norm.is_finite() {
                anomaly = Some(TrainAnomaly::NonFiniteGradient {
                    epoch: state.epoch,
                    norm: grad_norm,
                });
            } else {
                if let Some(max) = cfg.max_grad_norm {
                    if grad_norm > f64::from(max) {
                        tape.scale_param_grads((f64::from(max) / grad_norm) as f32);
                        report.clip_activations += 1;
                        trace.counter(names::GRAD_CLIP, epoch_idx, 1);
                    }
                }
                let optim_start = Instant::now();
                let opt_span = trace.enter(names::OPTIM, epoch_idx);
                adam.lr = state.lr;
                adam.step(&mut tape);
                opt_dt = optim_start.elapsed().as_secs_f64();
                report.optim_s += opt_dt;
                trace.exit_with(names::OPTIM, epoch_idx, opt_span, opt_dt);

                #[cfg(any(test, feature = "fault-injection"))]
                inject_parameter_fault(&mut tape, fault_plan.as_ref(), state.epoch, &mut injected);

                if !tape.params_all_finite() {
                    anomaly = Some(TrainAnomaly::NonFiniteParameter { epoch: state.epoch });
                }
            }
        }
        let reset_start = Instant::now();
        let reset_span = trace.enter(names::TAPE_RESET, epoch_idx);
        tape.reset();
        let reset_dt = reset_start.elapsed().as_secs_f64();
        report.optim_s += reset_dt;
        trace.exit_with(names::TAPE_RESET, epoch_idx, reset_span, reset_dt);

        if let Some(a) = anomaly {
            // Recovery policy: roll back to the last good epoch, halve
            // the learning rate, and retry — up to `max_recoveries`
            // times, after which the run degrades to the baseline.
            trace.counter(names::ANOMALY, epoch_idx, anomaly_code(&a));
            report.anomalies.push(a);
            tape.restore_param_values(&last_good.params);
            adam.import_state(&last_good.adam);
            let mut st = last_good.state;
            st.lr *= 0.5;
            st.recoveries += 1;
            state = st;
            last_good.state = st;
            report.recoveries = st.recoveries;
            trace.counter(names::RECOVERY, epoch_idx, st.recoveries as u64);
            trace.metric(names::LR, epoch_idx, f64::from(st.lr));
            trace.exit_with(
                names::EPOCH_ROLLBACK,
                epoch_idx,
                epoch_span,
                epoch_start.elapsed().as_secs_f64(),
            );
            if st.recoveries > cfg.max_recoveries {
                degraded = true;
                trace.counter(names::DEGRADED, epoch_idx, 1);
                break;
            }
            continue;
        }

        let allocs = tape.workspace_stats().misses - misses_before;
        let mut stats = EpochStats {
            epoch: state.epoch,
            train_loss: train_total,
            val_loss: val_total,
            grad_norm,
            allocs,
            seconds: 0.0,
            forward_s: fwd_dt,
            backward_s: bwd_dt,
            optim_s: opt_dt + reset_dt,
            sampled_edges,
        };
        state.epoch += 1;
        if val_total + 1e-5 < state.best_val {
            state.best_val = val_total;
            state.since_best = 0;
            // explicit best-validation checkpoint: imputation runs from
            // these parameters, not from wherever training stopped
            tape.snapshot_param_values_into(best_params.get_or_insert_with(Vec::new));
        } else {
            state.since_best += 1;
        }
        last_good.state = state;
        tape.snapshot_param_values_into(&mut last_good.params);
        adam.export_state_into(&mut last_good.adam);

        if let Some(path) = &ckpt_path {
            if !report.checkpoints_disabled && state.epoch.is_multiple_of(checkpoint_every) {
                let ck_span = trace.enter(names::CHECKPOINT_SAVE, epoch_idx);
                #[cfg(any(test, feature = "fault-injection"))]
                let ckpt_fault = fault_due(
                    fault_plan.as_ref(),
                    FaultKind::CheckpointWrite,
                    state.epoch,
                    &mut injected,
                );
                #[cfg(not(any(test, feature = "fault-injection")))]
                let ckpt_fault = false;
                let ck = build_checkpoint(&tape, &adam, &state, &rng, &best_params);
                match save_checkpoint(&ck, ckfs.as_mut(), path, ckpt_fault) {
                    Ok(n) => {
                        ckpt_strikes = 0;
                        report.checkpoint_bytes = n;
                        trace.counter(names::CHECKPOINT_BYTES, epoch_idx, n as u64);
                    }
                    Err(e) => {
                        report
                            .io_errors
                            .push(format!("checkpoint write failed: {e}"));
                        trace.counter(names::IO_ERROR, report.io_errors.len() as u64, 1);
                        ckpt_strikes += 1;
                        if ckpt_strikes >= CHECKPOINT_MAX_STRIKES {
                            report.checkpoints_disabled = true;
                            trace.counter(names::CHECKPOINT_DISABLED, epoch_idx, 1);
                        }
                    }
                }
                trace.exit(names::CHECKPOINT_SAVE, epoch_idx, ck_span);
            }
        }
        let epoch_dt = epoch_start.elapsed().as_secs_f64();
        stats.seconds = epoch_dt;
        trace.metric(names::TRAIN_LOSS, epoch_idx, f64::from(train_total));
        trace.metric(names::VAL_LOSS, epoch_idx, f64::from(val_total));
        trace.metric(names::GRAD_NORM, epoch_idx, grad_norm);
        trace.counter(names::EPOCH_ALLOCS, epoch_idx, allocs);
        trace.exit_with(names::EPOCH, epoch_idx, epoch_span, epoch_dt);
        report.push_epoch(stats);
    }
    report.early_stopped = state.since_best >= cfg.patience;
    if report.early_stopped {
        trace.counter(names::EARLY_STOP, state.epoch as u64, 1);
    }
    // Drift trigger (delta mode): when the fine-tuned model's final
    // validation loss regressed beyond the configured band relative to the
    // run's best, the delta has drifted from the base distribution and a
    // full refit is scheduled (recorded here; the incremental driver acts
    // on it at the next append).
    if delta_from.is_some() && !degraded {
        if let Some(last) = report.epochs.last() {
            let best = f64::from(state.best_val);
            let drift = (f64::from(last.val_loss) - best) / best.max(1e-6);
            report.drift = Some(drift);
            trace.metric(names::DRIFT, state.epoch as u64, drift);
            if drift > f64::from(cfg.finetune.drift_band) {
                report.refit_scheduled = true;
                trace.counter(names::REFIT_SCHEDULED, state.epoch as u64, 1);
            }
        }
    }
    report.recoveries = state.recoveries;
    report.degraded_to_baseline = degraded;
    // A run-level degradation is the bottom of the ladder for every column
    // that was still training: each steps down to its mode/mean baseline.
    if degraded {
        for t in tiers.iter_mut() {
            if *t == ColumnTier::Gnn {
                *t = ColumnTier::Baseline;
            }
        }
    }
    // A deadline or interrupt that fired before a single epoch completed
    // (and without a resumed checkpoint) leaves the task heads at their
    // random init — imputing from them would be noise, so every GNN-tier
    // column steps down to its mode/mean baseline instead.
    if (report.deadline_hit || report.interrupted) && state.epoch == 0 {
        for t in tiers.iter_mut() {
            if *t == ColumnTier::Gnn {
                *t = ColumnTier::Baseline;
            }
        }
    }
    for (j, t) in tiers.iter().enumerate() {
        trace.counter(names::COLUMN_TIER, j as u64, t.code());
    }
    report.column_tiers = tiers.clone();

    // Final checkpoint, so resuming a finished run is a no-op. Skipped
    // when degraded: the surviving state is the rolled-back one and the
    // caller should restart, not resume, such a run.
    if !degraded {
        let ck_span = trace.enter(names::CHECKPOINT_SAVE, state.epoch as u64);
        let ck = build_checkpoint(&tape, &adam, &state, &rng, &best_params);
        match &ckpt_path {
            Some(path) if !report.checkpoints_disabled => {
                #[cfg(any(test, feature = "fault-injection"))]
                let ckpt_fault = fault_due(
                    fault_plan.as_ref(),
                    FaultKind::CheckpointWrite,
                    state.epoch,
                    &mut injected,
                );
                #[cfg(not(any(test, feature = "fault-injection")))]
                let ckpt_fault = false;
                match save_checkpoint(&ck, ckfs.as_mut(), path, ckpt_fault) {
                    Ok(n) => report.checkpoint_bytes = n,
                    Err(e) => {
                        report
                            .io_errors
                            .push(format!("checkpoint write failed: {e}"));
                        trace.counter(names::IO_ERROR, report.io_errors.len() as u64, 1);
                    }
                }
            }
            _ => report.checkpoint_bytes = ck.to_bytes().len(),
        }
        if report.checkpoint_bytes > 0 {
            trace.counter(
                names::CHECKPOINT_BYTES,
                state.epoch as u64,
                report.checkpoint_bytes as u64,
            );
        }
        trace.exit(names::CHECKPOINT_SAVE, state.epoch as u64, ck_span);
    }

    let fit_dt = fit_start.elapsed().as_secs_f64();
    report.seconds = fit_dt;
    trace.exit_with(names::FIT, 0, fit_span, fit_dt);
    let _ = trace.flush();

    let dictionaries: Vec<Vec<String>> = (0..n_cols)
        .map(|j| match norm.schema().column(j).kind {
            ColumnKind::Categorical => norm.dictionary(j).to_vec(),
            ColumnKind::Numerical => Vec::new(),
        })
        .collect();
    Ok(FittedModel {
        config: cfg.clone(),
        normalizer,
        norm,
        train_dirty: dirty.clone(),
        graph,
        tape,
        gnn,
        train_blocks,
        merge,
        tasks,
        persistent_x,
        feature_tensor,
        best_params,
        degraded,
        dictionaries,
        ft_seed,
        tiers,
        report,
    })
}

/// Rebuild a [`FittedModel`] from a saved [`TrainCheckpoint`] without
/// training: the model *structure* (graph, features, tape, task heads) is
/// reconstructed deterministically from the table and configuration —
/// exactly as `fit_model` would build it, including any admission-time
/// memory downscale — and the checkpoint's weights are restored onto it.
///
/// No checkpoint-directory lock is taken and nothing is written: a serving
/// process can restore from a directory a trainer is actively rotating.
///
/// # Errors
/// [`GrimpError::EmptySchema`] for a zero-column table, or
/// [`GrimpError::Checkpoint`]-shaped corruption when the checkpoint's
/// parameter shapes do not match the rebuilt structure (a checkpoint from
/// a different table or configuration).
pub(crate) fn restore_model(
    config: &GrimpConfig,
    fds: &FdSet,
    dirty: &Table,
    ck: &TrainCheckpoint,
    sink: &mut dyn EventSink,
) -> Result<FittedModel, GrimpError> {
    let mut structure = config.clone();
    // Skip the training loop (the structure build before it draws from the
    // RNG identically regardless of max_epochs, so shapes line up with the
    // fit that wrote the checkpoint), and strip every side effect: no
    // locking, no resume, no checkpoint writes, no fault injection.
    structure.max_epochs = 0;
    structure.checkpoint_dir = None;
    structure.resume = false;
    structure.io_fault = None;
    let mut fitted = fit_model(&structure, fds, dirty, sink)?;
    fitted
        .restore_checkpoint(ck)
        .map_err(|source| GrimpError::Checkpoint {
            path: std::path::PathBuf::from("<in-memory checkpoint>"),
            source,
        })?;
    fitted.config.max_epochs = config.max_epochs;
    Ok(fitted)
}

/// Consecutive checkpoint-write failures after which the run stops trying
/// (training continues checkpoint-less, with a `checkpoint_disabled` event).
const CHECKPOINT_MAX_STRIKES: usize = 2;

/// Save a checkpoint through the run's (possibly fault-injected) IO layer,
/// or fail with an injected IO error when the legacy fault plan poisons
/// checkpoint writes (chaos-harness hook; `inject_io_fault` is constant
/// `false` outside fault-injection builds).
fn save_checkpoint(
    ck: &TrainCheckpoint,
    fs: &mut dyn GrimpFs,
    path: &std::path::Path,
    inject_io_fault: bool,
) -> Result<usize, grimp_tensor::CheckpointError> {
    if inject_io_fault {
        return Err(grimp_tensor::CheckpointError::Io(std::io::Error::other(
            "injected checkpoint write fault",
        )));
    }
    ck.save_with(fs, path)
}

/// `true` when a checkpoint's parameter tensors line up one-to-one, shape
/// for shape, with the tape's trainable parameters.
fn snapshot_shapes_match(tape: &Tape, params: &[Tensor]) -> bool {
    let current = tape.snapshot_param_values();
    current.len() == params.len()
        && current
            .iter()
            .zip(params)
            .all(|(a, b)| a.shape() == b.shape())
}

/// Assemble a serializable checkpoint from the live training objects.
fn build_checkpoint(
    tape: &Tape,
    adam: &Adam,
    state: &TrainState,
    rng: &StdRng,
    best_params: &Option<Vec<Tensor>>,
) -> TrainCheckpoint {
    TrainCheckpoint {
        epoch: state.epoch as u64,
        lr: state.lr,
        recoveries: state.recoveries as u32,
        best_val: state.best_val,
        since_best: state.since_best as u64,
        rng: rng.state(),
        params: tape.snapshot_param_values(),
        adam: adam.export_state(),
        best_params: best_params.clone(),
    }
}

/// Mode/mean fallback (safety net of [`Grimp::fit_impute_traced`]): every
/// missing categorical gets its column mode, every missing numerical its
/// column mean, and columns with no statistic at all fall to the global
/// constants — every missing cell is filled, without exception.
fn baseline_fill(dirty: &Table) -> Table {
    let mut result = dirty.clone();
    for (i, j) in dirty.missing_cells() {
        match dirty.schema().column(j).kind {
            ColumnKind::Categorical => {
                let code = dirty
                    .mode(j)
                    .unwrap_or_else(|| result.intern(j, CONSTANT_FILL_CATEGORICAL));
                result.set(i, j, Value::Cat(code));
            }
            ColumnKind::Numerical => {
                result.set(
                    i,
                    j,
                    Value::Num(dirty.mean(j).unwrap_or(CONSTANT_FILL_NUMERICAL)),
                );
            }
        }
    }
    result
}

/// Corrupt one gradient element with `NaN` when the fault plan says this is
/// the epoch (and the injection budget is not yet spent).
#[cfg(any(test, feature = "fault-injection"))]
fn inject_gradient_fault(
    tape: &mut Tape,
    plan: Option<&FaultPlan>,
    epoch: usize,
    injected: &mut usize,
) {
    if !fault_due(plan, FaultKind::GradNan, epoch, injected) {
        return;
    }
    for i in 0..tape.param_count() {
        let v = Var::from_index(i);
        if !tape.is_trainable(v) {
            continue;
        }
        if let Some(first) = tape.grad_mut(v).and_then(|g| g.as_mut_slice().first_mut()) {
            *first = f32::NAN;
            return;
        }
    }
}

/// Corrupt one parameter element with `NaN` (post-optimizer-step fault).
#[cfg(any(test, feature = "fault-injection"))]
fn inject_parameter_fault(
    tape: &mut Tape,
    plan: Option<&FaultPlan>,
    epoch: usize,
    injected: &mut usize,
) {
    if !fault_due(plan, FaultKind::ParamNan, epoch, injected) {
        return;
    }
    for i in 0..tape.param_count() {
        let v = Var::from_index(i);
        if !tape.is_trainable(v) {
            continue;
        }
        if let Some(first) = tape.value_mut(v).as_mut_slice().first_mut() {
            *first = f32::NAN;
            return;
        }
    }
}

/// Poison task `column`'s loss value with `NaN` when the fault plan says
/// so: a per-column divergence that must demote only that column down the
/// degradation ladder.
#[cfg(any(test, feature = "fault-injection"))]
fn inject_task_loss_fault(
    tape: &mut Tape,
    loss: Var,
    plan: Option<&FaultPlan>,
    column: usize,
    epoch: usize,
    injected: &mut usize,
) {
    if !fault_due(plan, FaultKind::TaskLossNan(column), epoch, injected) {
        return;
    }
    if let Some(first) = tape.value_mut(loss).as_mut_slice().first_mut() {
        *first = f32::NAN;
    }
}

/// Whether a fault of `kind` fires this epoch; consumes injection budget.
#[cfg(any(test, feature = "fault-injection"))]
fn fault_due(
    plan: Option<&FaultPlan>,
    kind: FaultKind,
    epoch: usize,
    injected: &mut usize,
) -> bool {
    let Some(plan) = plan else { return false };
    if plan.kind != kind || plan.at_epoch != epoch || *injected >= plan.times {
        return false;
    }
    *injected += 1;
    true
}

impl Imputer for Grimp {
    fn name(&self) -> &str {
        variant_name(&self.config)
    }

    fn impute(&mut self, dirty: &Table) -> Table {
        self.fit_impute(dirty)
    }
}

/// Tile/truncate pre-trained attribute vectors (`n_cols × feat_dim`) into a
/// `n_cols × embed_dim` initialization for the attention matrix `Q`.
fn attribute_q_init(
    attr_matrix: &[f32],
    feat_dim: usize,
    n_cols: usize,
    embed_dim: usize,
) -> Tensor {
    let mut q = Tensor::zeros(n_cols, embed_dim);
    for c in 0..n_cols {
        let src = &attr_matrix[c * feat_dim..(c + 1) * feat_dim];
        for d in 0..embed_dim {
            q.set(c, d, src[d % feat_dim]);
        }
    }
    q
}

/// Stream tag separating the mini-batch row draws from the neighbor
/// sampler's streams (which chain from the bare `seed ^ epoch`).
const BATCH_STREAM_TAG: u64 = 0x4241_5443_4852_5753; // "BATCHRWS"

/// SplitMix64 mixer — same finalizer the neighbor sampler uses, so every
/// per-epoch draw in sampled mode is a pure function of its key.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Label storage of a full sample pool (sampled training mode).
enum PoolLabels {
    Cat(Vec<u32>),
    Num(Vec<f32>),
}

/// One task's full training pool in sampled mode: every sample the task
/// owns, kept so each epoch can re-draw a fixed-size mini-batch from it.
/// Only tasks whose pool exceeds `batch_rows` get one — smaller tasks keep
/// their (full) fixed batch and never refill.
struct TaskPool {
    /// `(row, target_col)` of every training sample of this task.
    positions: Vec<(usize, usize)>,
    labels: PoolLabels,
    /// Scratch permutation for the per-epoch partial Fisher–Yates draw.
    perm: Vec<u32>,
}

impl TaskPool {
    /// Draw `k` distinct pool rows for `epoch` and rewrite the task's
    /// fixed-shape batch (gather indices, masks, labels) in place.
    ///
    /// The draw is a partial Fisher–Yates over a *fresh* identity
    /// permutation keyed on `(seed, epoch, task)`: uniform without
    /// replacement, allocation-free after the first epoch, and — because it
    /// never carries state across epochs — bit-identical whether the epoch
    /// is reached by straight training, a divergence rollback, or a resume.
    #[allow(clippy::too_many_arguments)]
    fn refill_epoch(
        &mut self,
        seed: u64,
        epoch: u64,
        task: u64,
        k: usize,
        graph: &TableGraph,
        scratch: &mut Vec<(usize, usize)>,
        tb: &mut TaskBatch,
    ) {
        let n = self.positions.len();
        debug_assert!(k <= n);
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i as u32;
        }
        let mut state = splitmix64(seed ^ BATCH_STREAM_TAG ^ epoch);
        state = splitmix64(state ^ task);
        for i in 0..k {
            state = splitmix64(state);
            let j = i + (state % (n - i) as u64) as usize;
            self.perm.swap(i, j);
        }
        scratch.clear();
        scratch.extend(self.perm[..k].iter().map(|&i| self.positions[i as usize]));
        tb.batch.refill(graph, scratch);
        match (&mut tb.labels, &self.labels) {
            (Labels::Cat(dst), PoolLabels::Cat(src)) => {
                let dst = Rc::get_mut(dst)
                    .expect("refill requires the previous epoch's labels to be released");
                for (slot, &i) in self.perm[..k].iter().enumerate() {
                    dst[slot] = src[i as usize];
                }
            }
            (Labels::Num(dst), PoolLabels::Num(src)) => {
                let dst = Rc::get_mut(dst)
                    .expect("refill requires the previous epoch's labels to be released");
                for (slot, &i) in self.perm[..k].iter().enumerate() {
                    dst[slot] = src[i as usize];
                }
            }
            _ => unreachable!("a column's label kind is fixed"),
        }
    }
}

/// Runtime state of the neighbor-sampled training mode.
struct SampledTraining {
    sampler: NeighborSampler,
    /// Directed sampled edges per epoch over all nodes (epoch-invariant).
    sampled_edges: u64,
    batch_rows: usize,
    /// Parallel to the task list; `None` for tasks that never refill.
    pools: Vec<Option<TaskPool>>,
    /// Reused buffer of the epoch's selected `(row, target_col)` pairs.
    scratch: Vec<(usize, usize)>,
}

/// Sampled-mode counterpart of [`build_task_batches`]: tasks with at most
/// `batch_rows` samples get the same full fixed batch they would get in
/// full-batch mode; larger tasks get a fixed `batch_rows`-sized batch
/// (contents are overwritten by the epoch-0 refill before first use) plus a
/// [`TaskPool`] holding the complete sample pool.
fn build_sampled_task_batches(
    graph: &TableGraph,
    table: &Table,
    per_task: &[Vec<grimp_table::TrainingSample>],
    dim: usize,
    batch_rows: usize,
) -> (Vec<Option<TaskBatch>>, Vec<Option<TaskPool>>) {
    let mut batches = Vec::with_capacity(per_task.len());
    let mut pools = Vec::with_capacity(per_task.len());
    for (j, samples) in per_task.iter().enumerate() {
        if samples.is_empty() {
            batches.push(None);
            pools.push(None);
            continue;
        }
        let positions: Vec<(usize, usize)> =
            samples.iter().map(|s| (s.row, s.target_col)).collect();
        let cat = |n: usize| -> Vec<u32> {
            samples[..n]
                .iter()
                .map(|s| s.label.as_cat().expect("categorical label"))
                .collect()
        };
        let num = |n: usize| -> Vec<f32> {
            samples[..n]
                .iter()
                .map(|s| s.label.as_num().expect("numerical label") as f32)
                .collect()
        };
        let kind = table.schema().column(j).kind;
        if samples.len() <= batch_rows {
            let batch = VectorBatch::for_readout(graph, &positions, dim);
            let labels = match kind {
                ColumnKind::Categorical => Labels::Cat(Rc::new(cat(samples.len()))),
                ColumnKind::Numerical => Labels::Num(Rc::new(num(samples.len()))),
            };
            batches.push(Some(TaskBatch { batch, labels }));
            pools.push(None);
            continue;
        }
        let batch = VectorBatch::for_readout(graph, &positions[..batch_rows], dim);
        let (labels, pool_labels) = match kind {
            ColumnKind::Categorical => (
                Labels::Cat(Rc::new(cat(batch_rows))),
                PoolLabels::Cat(cat(samples.len())),
            ),
            ColumnKind::Numerical => (
                Labels::Num(Rc::new(num(batch_rows))),
                PoolLabels::Num(num(samples.len())),
            ),
        };
        batches.push(Some(TaskBatch { batch, labels }));
        pools.push(Some(TaskPool {
            perm: (0..positions.len() as u32).collect(),
            positions,
            labels: pool_labels,
        }));
    }
    (batches, pools)
}

fn build_task_batches(
    graph: &TableGraph,
    table: &Table,
    per_task: &[Vec<grimp_table::TrainingSample>],
    dim: usize,
    cap: Option<usize>,
    rng: &mut StdRng,
) -> Vec<Option<TaskBatch>> {
    per_task
        .iter()
        .enumerate()
        .map(|(j, samples)| {
            if samples.is_empty() {
                return None;
            }
            let mut samples: Vec<&grimp_table::TrainingSample> = samples.iter().collect();
            if let Some(cap) = cap {
                if samples.len() > cap {
                    samples.shuffle(rng);
                    samples.truncate(cap);
                }
            }
            let positions: Vec<(usize, usize)> =
                samples.iter().map(|s| (s.row, s.target_col)).collect();
            let batch = VectorBatch::for_readout(graph, &positions, dim);
            let labels = match table.schema().column(j).kind {
                ColumnKind::Categorical => Labels::Cat(Rc::new(
                    samples
                        .iter()
                        .map(|s| s.label.as_cat().expect("categorical label"))
                        .collect(),
                )),
                ColumnKind::Numerical => Labels::Num(Rc::new(
                    samples
                        .iter()
                        .map(|s| s.label.as_num().expect("numerical label") as f32)
                        .collect(),
                )),
            };
            Some(TaskBatch { batch, labels })
        })
        .collect()
}

fn task_loss(
    tape: &mut Tape,
    task: &Task,
    h: Var,
    tb: &TaskBatch,
    cat_loss: CategoricalLoss,
) -> Var {
    let out = task.forward(tape, h, &tb.batch);
    match &tb.labels {
        Labels::Cat(targets) => match cat_loss {
            CategoricalLoss::CrossEntropy => tape.softmax_cross_entropy(out, Rc::clone(targets)),
            CategoricalLoss::Focal(gamma) => tape.focal_loss(out, Rc::clone(targets), gamma),
        },
        Labels::Num(targets) => tape.mse_loss(out, Rc::clone(targets)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaskKind;
    use grimp_graph::FeatureSource;
    use grimp_table::{check_imputation_contract, inject_mcar, ColumnKind, Schema};

    /// A table where column `b` is a deterministic function of column `a` —
    /// any reasonable imputer should recover blanked `b` cells.
    fn functional_table(n: usize) -> Table {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
            ("x", ColumnKind::Numerical),
        ]);
        let mut t = Table::empty(schema);
        for i in 0..n {
            let a = format!("a{}", i % 4);
            let b = format!("b{}", i % 4);
            let x = format!("{}", (i % 4) as f64 * 10.0);
            t.push_str_row(&[Some(&a), Some(&b), Some(&x)]);
        }
        t
    }

    fn tiny_config(kind: TaskKind) -> GrimpConfig {
        GrimpConfig {
            features: FeatureSource::FastText,
            feature_dim: 16,
            gnn: grimp_gnn::GnnConfig {
                layers: 2,
                hidden: 16,
                ..Default::default()
            },
            merge_hidden: 32,
            embed_dim: 16,
            task_kind: kind,
            max_epochs: 80,
            patience: 15,
            lr: 2e-2,
            seed: 7,
            ..GrimpConfig::paper()
        }
    }

    #[test]
    fn imputation_satisfies_the_contract() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut model = Grimp::new(tiny_config(TaskKind::Attention));
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
    }

    #[test]
    fn learns_functional_relationship_with_attention() {
        let clean = functional_table(80);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(2));
        let mut model = Grimp::new(tiny_config(TaskKind::Attention));
        let imputed = model.fit_impute(&dirty);
        // accuracy on categorical cells must beat the 25 % random baseline
        let cat_cells: Vec<_> = log.cells.iter().filter(|c| c.col < 2).collect();
        let correct = cat_cells
            .iter()
            .filter(|c| imputed.get(c.row, c.col) == c.truth)
            .count();
        let acc = correct as f64 / cat_cells.len().max(1) as f64;
        assert!(acc > 0.5, "categorical accuracy too low: {acc}");
        let report = model.last_report().unwrap();
        assert!(report.epochs_run > 0);
        assert_eq!(report.train_losses().len(), report.epochs_run);
        assert_eq!(report.epochs.len(), report.epochs_run);
    }

    #[test]
    fn linear_tasks_also_work() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(3));
        let mut model = Grimp::new(tiny_config(TaskKind::Linear));
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let cat_cells: Vec<_> = log.cells.iter().filter(|c| c.col < 2).collect();
        let correct = cat_cells
            .iter()
            .filter(|c| imputed.get(c.row, c.col) == c.truth)
            .count();
        assert!(correct as f64 / cat_cells.len().max(1) as f64 > 0.5);
    }

    #[test]
    fn numerical_imputations_are_denormalized() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.15, &mut StdRng::seed_from_u64(4));
        let mut model = Grimp::new(tiny_config(TaskKind::Attention));
        let imputed = model.fit_impute(&dirty);
        // imputed numericals must be in the vicinity of the column's range
        for i in 0..imputed.n_rows() {
            if dirty.is_missing(i, 2) {
                let v = imputed.get(i, 2).as_num().unwrap();
                assert!(
                    (-30.0..60.0).contains(&v),
                    "imputed numeric {v} out of range"
                );
            }
        }
    }

    #[test]
    fn focal_loss_variant_trains_and_imputes() {
        // the paper's alternative categorical loss (§3.6): same pipeline,
        // focal loss with γ = 2
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(8));
        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.categorical_loss = crate::config::CategoricalLoss::Focal(2.0);
        let mut model = Grimp::new(cfg);
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let cat: Vec<_> = log.cells.iter().filter(|c| c.col < 2).collect();
        let correct = cat
            .iter()
            .filter(|c| imputed.get(c.row, c.col) == c.truth)
            .count();
        assert!(
            correct as f64 / cat.len().max(1) as f64 > 0.5,
            "focal-loss variant underperforms"
        );
    }

    #[test]
    fn early_stopping_fires_with_zero_patience_budget() {
        let clean = functional_table(40);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(5));
        let mut cfg = tiny_config(TaskKind::Linear);
        cfg.patience = 1;
        cfg.max_epochs = 50;
        let mut model = Grimp::new(cfg);
        let _ = model.fit_impute(&dirty);
        let report = model.last_report().unwrap();
        assert!(report.epochs_run <= 50);
    }

    /// Accuracy of `imputed` on the categorical cells of an injection log.
    fn cat_accuracy(log: &grimp_table::CorruptionLog, imputed: &Table) -> f64 {
        let cat: Vec<_> = log.cells.iter().filter(|c| c.col < 2).collect();
        let correct = cat
            .iter()
            .filter(|c| imputed.get(c.row, c.col) == c.truth)
            .count();
        correct as f64 / cat.len().max(1) as f64
    }

    #[test]
    fn injected_nan_gradient_is_detected_rolled_back_and_converges() {
        let clean = functional_table(80);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(2));
        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.fault_injection = Some(crate::fault::FaultPlan {
            at_epoch: 3,
            times: 1,
            kind: crate::fault::FaultKind::GradNan,
        });
        let mut model = Grimp::new(cfg);
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let report = model.last_report().unwrap();
        assert_eq!(report.anomalies_detected(), 1, "{:?}", report.anomalies);
        assert!(matches!(
            report.anomalies[0],
            crate::fault::TrainAnomaly::NonFiniteGradient { epoch: 3, .. }
        ));
        assert_eq!(report.recoveries, 1);
        assert!(!report.degraded_to_baseline);
        // the recovered run must still reach clean-run accuracy tolerance
        let acc = cat_accuracy(&log, &imputed);
        assert!(acc > 0.5, "post-recovery accuracy too low: {acc}");
    }

    #[test]
    fn injected_nan_parameter_is_detected_and_recovered() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(4));
        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.fault_injection = Some(crate::fault::FaultPlan {
            at_epoch: 2,
            times: 1,
            kind: crate::fault::FaultKind::ParamNan,
        });
        let mut model = Grimp::new(cfg);
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let report = model.last_report().unwrap();
        assert!(matches!(
            report.anomalies[0],
            crate::fault::TrainAnomaly::NonFiniteParameter { epoch: 2 }
        ));
        assert_eq!(report.recoveries, 1);
        assert!(!report.degraded_to_baseline);
    }

    #[test]
    fn exhausted_recoveries_degrade_to_baseline_and_still_impute_every_cell() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.15, &mut StdRng::seed_from_u64(6));
        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.max_recoveries = 2;
        cfg.fault_injection = Some(crate::fault::FaultPlan {
            at_epoch: 1,
            times: usize::MAX, // every retry is re-poisoned
            kind: crate::fault::FaultKind::ParamNan,
        });
        let mut model = Grimp::new(cfg);
        let imputed = model.fit_impute(&dirty);
        let report = model.last_report().unwrap();
        assert!(report.degraded_to_baseline);
        assert_eq!(report.recoveries, 3, "budget of 2 plus the final straw");
        assert_eq!(report.anomalies_detected(), 3);
        // graceful degradation contract: imputed differs only at missing
        // cells and no imputable cell is left missing
        check_imputation_contract(&dirty, &imputed).unwrap();
        assert_eq!(imputed.n_missing(), 0, "baseline must fill every cell");
    }

    #[test]
    fn recovery_halves_the_learning_rate_each_time() {
        let clean = functional_table(40);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(9));
        let mut cfg = tiny_config(TaskKind::Linear);
        cfg.max_epochs = 10;
        cfg.max_recoveries = 5;
        cfg.fault_injection = Some(crate::fault::FaultPlan {
            at_epoch: 0,
            times: 2,
            kind: crate::fault::FaultKind::GradNan,
        });
        let mut model = Grimp::new(cfg);
        let _ = model.fit_impute(&dirty);
        let report = model.last_report().unwrap();
        assert_eq!(report.recoveries, 2);
        assert_eq!(report.anomalies_detected(), 2);
        assert!(!report.degraded_to_baseline);
        assert!(report.epochs_run > 0, "training resumed after recovery");
    }

    #[test]
    fn gradient_clipping_activates_and_training_still_imputes() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(5));
        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.max_grad_norm = Some(1e-3); // absurdly tight: clips every epoch
        let mut model = Grimp::new(cfg);
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let report = model.last_report().unwrap();
        assert!(report.clip_activations > 0);
        assert_eq!(report.clip_activations, report.epochs_run);
        assert!(report.grad_norms().iter().all(|n| n.is_finite()));
        assert_eq!(report.grad_norms().len(), report.epochs_run);
    }

    #[test]
    fn healthy_runs_report_grad_norms_and_no_anomalies() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut model = Grimp::new(tiny_config(TaskKind::Attention));
        let _ = model.fit_impute(&dirty);
        let report = model.last_report().unwrap();
        assert_eq!(report.anomalies_detected(), 0);
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.clip_activations, 0, "default threshold never fires");
        assert_eq!(report.grad_norms().len(), report.epochs_run);
        assert!(
            report.checkpoint_bytes > 0,
            "size is reported even w/o disk"
        );
        assert!(!report.degraded_to_baseline);
    }

    #[test]
    fn interrupted_run_resumes_bit_identically() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(3));
        let dir = std::env::temp_dir().join(format!("grimp-resume-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.max_epochs = 30;
        cfg.patience = 30;

        // uninterrupted reference
        let reference = Grimp::new(cfg.clone()).fit_impute(&dirty);

        // phase 1: "killed" after 11 epochs, checkpointing to disk
        let mut phase1 = cfg.clone();
        phase1.max_epochs = 11;
        phase1.checkpoint_dir = Some(dir.clone());
        let _ = Grimp::new(phase1).fit_impute(&dirty);

        // phase 2: resume and finish
        let mut phase2 = cfg.clone();
        phase2.checkpoint_dir = Some(dir.clone());
        phase2.resume = true;
        let mut model = Grimp::new(phase2);
        let resumed = model.fit_impute(&dirty);
        let report = model.last_report().unwrap();
        assert_eq!(report.resumed_from_epoch, Some(11));
        assert_eq!(report.epochs_run, 30 - 11);

        assert_tables_bit_identical(&reference, &resumed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_reported_and_training_restarts() {
        let clean = functional_table(40);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(7));
        let dir =
            std::env::temp_dir().join(format!("grimp-corrupt-ckpt-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(crate::checkpoint::CHECKPOINT_FILE), b"garbage").unwrap();

        let mut cfg = tiny_config(TaskKind::Linear);
        cfg.max_epochs = 5;
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.resume = true;
        let mut model = Grimp::new(cfg);
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let report = model.last_report().unwrap();
        assert!(report.resumed_from_epoch.is_none());
        assert_eq!(report.io_errors.len(), 1, "{:?}", report.io_errors);
        assert!(report.epochs_run > 0, "training restarted from scratch");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Cell-by-cell bit-exact comparison (numericals via `f64::to_bits`).
    fn assert_tables_bit_identical(a: &Table, b: &Table) {
        assert_eq!(a.n_rows(), b.n_rows());
        assert_eq!(a.n_columns(), b.n_columns());
        for i in 0..a.n_rows() {
            for j in 0..a.n_columns() {
                match (a.get(i, j), b.get(i, j)) {
                    (Value::Num(x), Value::Num(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits(), "cell ({i}, {j}): {x} vs {y}")
                    }
                    (x, y) => assert_eq!(x, y, "cell ({i}, {j})"),
                }
            }
        }
    }

    #[test]
    fn sampled_training_fills_every_cell_and_is_deterministic() {
        let clean = functional_table(200);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(21));
        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.sampler = Some(crate::config::SamplerConfig {
            batch_rows: 32,
            fanout: 4,
        });
        let mut model = Grimp::new(cfg.clone());
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        assert_eq!(imputed.n_missing(), 0, "sampled mode must fill every cell");
        let report = model.last_report().unwrap();
        assert_eq!(report.sampler_batch_rows, Some(32));
        assert_eq!(report.sampler_fanout, Some(4));
        assert!(report.epochs.iter().all(|e| e.sampled_edges > 0));
        // the sampled batches still learn the functional dependency
        let acc = cat_accuracy(&log, &imputed);
        assert!(acc > 0.5, "sampled-mode accuracy too low: {acc}");
        // bit-identical across runs with the same seed
        let again = Grimp::new(cfg).fit_impute(&dirty);
        assert_tables_bit_identical(&imputed, &again);
    }

    #[test]
    fn sampled_training_allocates_nothing_after_the_first_epoch() {
        let clean = functional_table(160);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(22));
        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.max_epochs = 12;
        cfg.sampler = Some(crate::config::SamplerConfig {
            batch_rows: 24,
            fanout: 3,
        });
        let mut model = Grimp::new(cfg);
        let _ = model.fit_impute(&dirty);
        let report = model.last_report().unwrap();
        assert!(report.epochs_run > 2, "need steady-state epochs to measure");
        for e in &report.epochs[1..] {
            assert_eq!(
                e.allocs, 0,
                "epoch {} missed the tape workspace {} times",
                e.epoch, e.allocs
            );
        }
    }

    #[test]
    fn full_batch_runs_are_unchanged_by_the_sampler_machinery() {
        // cfg.sampler = None must keep the exact pre-sampler behavior:
        // no sampler provenance in the report, zero sampled edges.
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(23));
        let mut model = Grimp::new(tiny_config(TaskKind::Attention));
        let _ = model.fit_impute(&dirty);
        let report = model.last_report().unwrap();
        assert_eq!(report.sampler_batch_rows, None);
        assert_eq!(report.sampler_fanout, None);
        assert!(report.epochs.iter().all(|e| e.sampled_edges == 0));
    }

    #[test]
    fn sampled_run_resumes_bit_identically() {
        let clean = functional_table(150);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(24));
        let dir =
            std::env::temp_dir().join(format!("grimp-sampled-resume-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.max_epochs = 20;
        cfg.patience = 20;
        cfg.sampler = Some(crate::config::SamplerConfig {
            batch_rows: 32,
            fanout: 4,
        });

        let reference = Grimp::new(cfg.clone()).fit_impute(&dirty);

        // the per-epoch draws are keyed on (seed, epoch), so a run killed
        // mid-way and resumed must re-draw the remaining epochs identically
        let mut phase1 = cfg.clone();
        phase1.max_epochs = 7;
        phase1.checkpoint_dir = Some(dir.clone());
        let _ = Grimp::new(phase1).fit_impute(&dirty);

        // resume is only rejected for *user* configs (validate()); the
        // structure config here mimics the governor-applied path by
        // setting the fields directly
        let mut phase2 = cfg.clone();
        phase2.checkpoint_dir = Some(dir.clone());
        phase2.resume = true;
        let mut model = Grimp::new(phase2);
        let resumed = model.fit_impute(&dirty);
        let report = model.last_report().unwrap();
        assert_eq!(report.resumed_from_epoch, Some(7));

        assert_tables_bit_identical(&reference, &resumed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn imputer_trait_names_variants() {
        assert_eq!(
            Grimp::new(tiny_config(TaskKind::Attention)).name(),
            "GRIMP-FT"
        );
        assert_eq!(
            Grimp::new(tiny_config(TaskKind::Attention).with_features(FeatureSource::Embdi)).name(),
            "GRIMP-E"
        );
        assert_eq!(
            Grimp::new(tiny_config(TaskKind::Linear)).name(),
            "GRIMP-linear"
        );
    }

    #[test]
    fn fitted_model_imputes_the_training_table_like_fit_impute() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(11));
        let cfg = tiny_config(TaskKind::Attention);
        let reference = Grimp::new(cfg.clone()).fit_impute(&dirty);
        let mut sink = NullSink;
        let mut fitted = fit_model(&cfg, &FdSet::empty(), &dirty, &mut sink).unwrap();
        let via_pipeline = fitted.impute(&dirty).unwrap();
        assert_tables_bit_identical(&reference, &via_pipeline);
        // a second impute of the same table is stable
        let again = fitted.impute(&dirty).unwrap();
        assert_tables_bit_identical(&reference, &again);
    }

    #[test]
    fn fitted_model_imputes_unseen_tables_inductively() {
        let clean = functional_table(80);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(12));
        let cfg = tiny_config(TaskKind::Attention);
        let mut sink = NullSink;
        let mut fitted = fit_model(&cfg, &FdSet::empty(), &dirty, &mut sink).unwrap();

        // an unseen table over the same schema and value domain
        let unseen_clean = functional_table(40);
        let mut unseen = unseen_clean.clone();
        let log = inject_mcar(&mut unseen, 0.15, &mut StdRng::seed_from_u64(13));
        let imputed = fitted.impute(&unseen).unwrap();
        check_imputation_contract(&unseen, &imputed).unwrap();
        let acc = cat_accuracy(&log, &imputed);
        assert!(acc > 0.5, "inductive accuracy too low: {acc}");

        // and the model can go back to its training table afterwards
        let back = fitted.impute(&dirty).unwrap();
        check_imputation_contract(&dirty, &back).unwrap();
    }

    #[test]
    fn training_imputes_are_unchanged_by_an_unseen_impute_in_between() {
        // An unseen table's blocks are built beside the training graph's,
        // never over them: impute(train) → impute(unseen) → impute(train)
        // must give the very same table, full-batch and sampled alike.
        let clean = functional_table(90);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(14));
        let mut unseen = functional_table(30);
        inject_mcar(&mut unseen, 0.2, &mut StdRng::seed_from_u64(15));
        let mut sampled = tiny_config(TaskKind::Attention);
        sampled.max_epochs = 10;
        sampled.sampler = Some(crate::config::SamplerConfig {
            batch_rows: 16,
            fanout: 3,
        });
        for cfg in [tiny_config(TaskKind::Attention), sampled] {
            let mut sink = NullSink;
            let mut fitted = fit_model(&cfg, &FdSet::empty(), &dirty, &mut sink).unwrap();
            let first = fitted.impute(&dirty).unwrap();
            fitted.impute(&unseen).unwrap();
            let again = fitted.impute(&dirty).unwrap();
            assert_tables_bit_identical(&first, &again);
        }
    }

    #[test]
    fn unseen_table_without_a_single_value_still_imputes() {
        // No cell node at all: the readout falls back to one row, every
        // vector slot is masked, and every hole is still filled.
        let mut dirty = functional_table(60);
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(16));
        let mut sink = NullSink;
        let cfg = tiny_config(TaskKind::Attention);
        let mut fitted = fit_model(&cfg, &FdSet::empty(), &dirty, &mut sink).unwrap();
        let mut empty = Table::empty(dirty.schema().clone());
        for _ in 0..3 {
            empty.push_str_row(&[None, None, None]);
        }
        let imputed = fitted.impute(&empty).unwrap();
        check_imputation_contract(&empty, &imputed).unwrap();
        assert_eq!(imputed.n_missing(), 0);
    }
}
