//! GNN-MC: the ablation of Fig. 10 with the GNN enabled but multi-task
//! learning disabled — a *single* multiclass classifier over the full domain
//! of the table (the design §3.5 argues against; implemented to measure how
//! much MTL buys).
//!
//! Every value of every attribute (numericals via their rounded keys) is one
//! global class. At imputation time the argmax is restricted to the target
//! attribute's slice, mirroring GRIMP's `Dom(A_i)` restriction.

use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use grimp_gnn::HeteroSage;
use grimp_graph::{build_features, TableGraph};
use grimp_table::{ColumnKind, Corpus, Imputer, Normalizer, Table, Value};
use grimp_tensor::{Adam, Mlp, Tape, Tensor};

use crate::config::GrimpConfig;
use crate::report::TrainReport;
use crate::vectors::VectorBatch;

/// Global label space: one class per (attribute, value-key) pair.
pub struct GlobalDomain {
    /// Per column: its value keys in a fixed order.
    keys: Vec<Vec<String>>,
    /// Per column: starting offset into the global class space.
    offsets: Vec<usize>,
    /// Total number of classes.
    total: usize,
}

impl GlobalDomain {
    /// Build the global domain from a graph's cell nodes.
    pub fn build(graph: &TableGraph) -> Self {
        let n_cols = graph.n_edge_types();
        let mut keys: Vec<Vec<String>> = Vec::with_capacity(n_cols);
        let mut offsets = Vec::with_capacity(n_cols);
        let mut total = 0usize;
        for j in 0..n_cols {
            let mut col_keys: Vec<String> =
                graph.column_cells(j).map(|(k, _)| k.to_string()).collect();
            col_keys.sort_unstable();
            offsets.push(total);
            total += col_keys.len();
            keys.push(col_keys);
        }
        GlobalDomain {
            keys,
            offsets,
            total,
        }
    }

    /// Total number of global classes.
    pub fn n_classes(&self) -> usize {
        self.total
    }

    /// Global class index of `(column, key)`.
    pub fn class_of(&self, col: usize, key: &str) -> Option<u32> {
        self.keys[col]
            .binary_search_by(|k| k.as_str().cmp(key))
            .ok()
            .map(|i| (self.offsets[col] + i) as u32)
    }

    /// The `(start, end)` slice of global classes belonging to `column`.
    pub fn column_range(&self, col: usize) -> (usize, usize) {
        (self.offsets[col], self.offsets[col] + self.keys[col].len())
    }

    /// The value key of a global class inside `column`'s slice.
    pub fn key_of(&self, col: usize, class: usize) -> &str {
        &self.keys[col][class - self.offsets[col]]
    }
}

/// The GNN-MC ablation model.
pub struct GnnMc {
    config: GrimpConfig,
    last_report: Option<TrainReport>,
}

impl GnnMc {
    /// A GNN-MC model. Only the shared-layer fields of the config are used
    /// (task kind / K strategy do not apply).
    pub fn new(config: GrimpConfig) -> Self {
        GnnMc {
            config,
            last_report: None,
        }
    }

    /// The report of the most recent run.
    pub fn last_report(&self) -> Option<&TrainReport> {
        self.last_report.as_ref()
    }

    /// Train self-supervised and impute all missing values.
    pub fn fit_impute(&mut self, dirty: &Table) -> Table {
        let start = Instant::now();
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let normalizer = Normalizer::fit(dirty);
        let mut norm = dirty.clone();
        normalizer.apply(&mut norm);

        let corpus = Corpus::build(&norm, cfg.validation_fraction, &mut rng);
        let excluded: Vec<(usize, usize)> = corpus
            .validation_flat()
            .map(|s| (s.row, s.target_col))
            .collect();
        let graph = TableGraph::build(&norm, cfg.graph, &excluded);
        let domain = GlobalDomain::build(&graph);
        let features = build_features(
            &graph,
            &norm,
            cfg.features,
            cfg.feature_dim,
            &cfg.embdi,
            &mut rng,
        );
        let feature_tensor = Tensor::from_vec(
            graph.n_nodes(),
            cfg.feature_dim,
            features.node_matrix.clone(),
        );

        let n_cols = norm.n_columns();
        let mut tape = Tape::new();
        let gnn = HeteroSage::new(&mut tape, &graph, cfg.feature_dim, cfg.gnn, &mut rng);
        let merge = Mlp::new(
            &mut tape,
            &[cfg.gnn.hidden, cfg.merge_hidden, cfg.embed_dim],
            &mut rng,
        );
        let classifier = Mlp::new(
            &mut tape,
            &[
                n_cols * cfg.embed_dim,
                cfg.merge_hidden,
                domain.n_classes().max(1),
            ],
            &mut rng,
        );
        tape.freeze();
        let n_weights = tape.total_param_elems();
        let mut adam = Adam::new(cfg.lr);

        // One flat sample list; labels in the global class space.
        let collect = |buckets: &[Vec<grimp_table::TrainingSample>]| {
            let mut positions = Vec::new();
            let mut labels = Vec::new();
            for bucket in buckets {
                for s in bucket {
                    let key = grimp_graph::value_key(
                        &norm,
                        s.row,
                        s.target_col,
                        cfg.graph.numeric_decimals,
                    )
                    .expect("training sample labels are non-null");
                    if let Some(class) = domain.class_of(s.target_col, &key) {
                        positions.push((s.row, s.target_col));
                        labels.push(class);
                    }
                }
            }
            (positions, labels)
        };
        let (mut train_pos, mut train_labels) = collect(&corpus.train);
        if let Some(cap) = cfg.max_train_samples_per_task {
            // the MC model has one "task": scale the cap by column count
            let cap = cap * n_cols;
            train_pos.truncate(cap);
            train_labels.truncate(cap);
        }
        let (val_pos, val_labels) = collect(&corpus.validation);
        let train_batch = VectorBatch::build(&graph, &train_pos, cfg.embed_dim);
        let val_batch = VectorBatch::build(&graph, &val_pos, cfg.embed_dim);
        let train_labels = Rc::new(train_labels);
        let val_labels = Rc::new(val_labels);

        let mut report = TrainReport {
            n_weights,
            ..Default::default()
        };
        let mut best_val = f32::INFINITY;
        let mut since_best = 0usize;
        if !train_batch.is_empty() && domain.n_classes() > 0 {
            for _epoch in 0..cfg.max_epochs {
                let x = tape.input(feature_tensor.clone());
                let h0 = gnn.forward(&mut tape, x);
                let h = merge.forward(&mut tape, h0);

                let logits = mc_forward(&mut tape, &classifier, h, &train_batch);
                let loss = tape.softmax_cross_entropy(logits, Rc::clone(&train_labels));
                let train_total = tape.value(loss).item();
                let val_total = if val_batch.is_empty() {
                    train_total
                } else {
                    let vl = mc_forward(&mut tape, &classifier, h, &val_batch);
                    let v = tape.softmax_cross_entropy(vl, Rc::clone(&val_labels));
                    tape.value(v).item()
                };
                tape.backward(loss);
                adam.step(&mut tape);
                tape.reset();

                report.push_epoch(crate::report::EpochStats {
                    epoch: report.epochs.len(),
                    train_loss: train_total,
                    val_loss: val_total,
                    ..Default::default()
                });
                if val_total + 1e-5 < best_val {
                    best_val = val_total;
                    since_best = 0;
                } else {
                    since_best += 1;
                    if since_best >= cfg.patience {
                        report.early_stopped = true;
                        break;
                    }
                }
            }
        }

        // Imputation: argmax restricted to the target column's class slice.
        let mut result = dirty.clone();
        let missing = norm.missing_cells();
        if !missing.is_empty() && domain.n_classes() > 0 {
            let x = tape.input(feature_tensor.clone());
            let h0 = gnn.forward(&mut tape, x);
            let h = merge.forward(&mut tape, h0);
            let batch = VectorBatch::build(&graph, &missing, cfg.embed_dim);
            let out = mc_forward(&mut tape, &classifier, h, &batch);
            let out_t = tape.value(out).clone();
            for (s, &(i, j)) in missing.iter().enumerate() {
                let (lo, hi) = domain.column_range(j);
                if lo == hi {
                    continue;
                }
                let row = out_t.row_slice(s);
                let best = (lo..hi)
                    .max_by(|&a, &b| row[a].total_cmp(&row[b]))
                    .expect("non-empty column range");
                let key = domain.key_of(j, best);
                match norm.schema().column(j).kind {
                    ColumnKind::Categorical => {
                        let code = result.intern(j, key);
                        result.set(i, j, Value::Cat(code));
                    }
                    ColumnKind::Numerical => {
                        let z: f64 = key.parse().expect("numeric keys parse back");
                        result.set(i, j, Value::Num(normalizer.inverse(j, z)));
                    }
                }
            }
            tape.reset();
        }
        report.seconds = start.elapsed().as_secs_f64();
        self.last_report = Some(report);
        result
    }
}

fn mc_forward(
    tape: &mut Tape,
    classifier: &Mlp,
    h: grimp_tensor::Var,
    batch: &VectorBatch,
) -> grimp_tensor::Var {
    let v = tape.gather_rows(h, Rc::clone(&batch.idx));
    let mask = tape.input(batch.mask.clone());
    let v = tape.mul_elem(v, mask);
    let flat = tape.reshape(v, batch.n, batch.n_cols * batch.dim);
    classifier.forward(tape, flat)
}

impl Imputer for GnnMc {
    fn name(&self) -> &str {
        "GNN-MC"
    }

    fn impute(&mut self, dirty: &Table) -> Table {
        self.fit_impute(dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grimp_graph::{FeatureSource, GraphConfig};
    use grimp_table::{check_imputation_contract, inject_mcar, ColumnKind, Schema};

    fn config() -> GrimpConfig {
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
            max_epochs: 60,
            patience: 10,
            lr: 2e-2,
            seed: 3,
            ..GrimpConfig::paper()
        }
    }

    fn functional_table(n: usize) -> Table {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
        ]);
        let mut t = Table::empty(schema);
        for i in 0..n {
            let a = format!("a{}", i % 3);
            let b = format!("b{}", i % 3);
            t.push_str_row(&[Some(&a), Some(&b)]);
        }
        t
    }

    #[test]
    fn global_domain_indexes_every_value_once() {
        let t = functional_table(9);
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        let d = GlobalDomain::build(&g);
        assert_eq!(d.n_classes(), 6);
        let (lo, hi) = d.column_range(1);
        assert_eq!(hi - lo, 3);
        let class = d.class_of(1, "b2").unwrap() as usize;
        assert!((lo..hi).contains(&class));
        assert_eq!(d.key_of(1, class), "b2");
        assert_eq!(d.class_of(0, "b2"), None, "keys are column-scoped");
    }

    #[test]
    fn gnn_mc_imputes_and_respects_contract() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut model = GnnMc::new(config());
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        // functional table: should beat random (1/3)
        let correct = log
            .cells
            .iter()
            .filter(|c| {
                imputed.display(c.row, c.col)
                    == match c.truth {
                        Value::Cat(code) => clean.dictionary(c.col)[code as usize].clone(),
                        _ => unreachable!(),
                    }
            })
            .count();
        assert!(correct as f64 / log.len() as f64 > 0.5);
    }

    #[test]
    fn imputed_values_stay_in_column_domain() {
        let clean = functional_table(30);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.2, &mut StdRng::seed_from_u64(2));
        let mut model = GnnMc::new(config());
        let imputed = model.fit_impute(&dirty);
        for (i, j) in dirty.missing_cells() {
            let v = imputed.display(i, j);
            assert!(
                v.starts_with(if j == 0 { "a" } else { "b" }),
                "leaked value {v} into col {j}"
            );
        }
    }
}
