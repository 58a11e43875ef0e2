//! Inductive reuse of a trained GRIMP model (paper §7, future work #4:
//! "as GRIMP is inductive, we plan to study how, once it is trained on one
//! dataset, it can be reused on other datasets").
//!
//! [`TrainedGrimp::fit`] trains exactly like [`crate::Grimp::fit_impute`]
//! but keeps the model — GNN weights, merge layers, task heads, the
//! normalizer and the training dictionaries. [`TrainedGrimp::impute_table`]
//! then imputes *any* schema-compatible table, including tuples never seen
//! during training: the graph is rebuilt over the new table, the GNN is
//! rebound to it (message passing is inductive), and the pre-trained
//! features come from the seeded hashed-n-gram embedder, which maps equal
//! value texts to equal vectors on any table.
//!
//! Restrictions inherent to the approach (and asserted at run time):
//! the new table must have the same schema, categorical predictions are
//! limited to the training dictionaries (a classifier cannot emit labels it
//! never saw), and the feature source is the inductive FastText substitute
//! (EMBDI embeddings are transductive).

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grimp_gnn::HeteroSage;
use grimp_graph::{fasttext_features, TableGraph};
use grimp_table::{ColumnKind, Corpus, FdSet, Normalizer, Schema, Table, Value};
use grimp_tensor::{Adam, Mlp, Tape, Tensor};

use crate::config::{CategoricalLoss, GrimpConfig};
use crate::report::TrainReport;
use crate::tasks::Task;
use crate::vectors::VectorBatch;

/// A trained, reusable GRIMP model.
pub struct TrainedGrimp {
    config: GrimpConfig,
    tape: Tape,
    gnn: HeteroSage,
    merge: Mlp,
    tasks: Vec<Task>,
    normalizer: Normalizer,
    schema: Schema,
    /// Training dictionaries per categorical column (prediction label
    /// space).
    dictionaries: Vec<Vec<String>>,
    ft_seed: u64,
    report: TrainReport,
}

impl TrainedGrimp {
    /// Train on a dirty table and keep the model.
    ///
    /// # Panics
    /// Panics when `config.features` is not the (inductive) FastText
    /// substitute.
    pub fn fit(config: GrimpConfig, fds: &FdSet, dirty: &Table) -> Self {
        assert_eq!(
            config.features,
            grimp_graph::FeatureSource::FastText,
            "inductive reuse requires the FastText feature source (EMBDI is transductive)"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let ft_seed: u64 = rng.gen();

        let normalizer = Normalizer::fit(dirty);
        let mut norm = dirty.clone();
        normalizer.apply(&mut norm);

        let corpus = Corpus::build(&norm, config.validation_fraction, &mut rng);
        let excluded: Vec<(usize, usize)> = corpus
            .validation_flat()
            .map(|s| (s.row, s.target_col))
            .collect();
        let graph = TableGraph::build(&norm, config.graph, &excluded);
        let features = fasttext_features(&graph, config.feature_dim, ft_seed);
        let feature_tensor = Tensor::from_vec(
            graph.n_nodes(),
            config.feature_dim,
            features.node_matrix.clone(),
        );

        let n_cols = norm.n_columns();
        let mut tape = Tape::new();
        let gnn = HeteroSage::new(&mut tape, &graph, config.feature_dim, config.gnn, &mut rng);
        let merge = Mlp::new(
            &mut tape,
            &[config.gnn.hidden, config.merge_hidden, config.embed_dim],
            &mut rng,
        );
        let tasks: Vec<Task> = (0..n_cols)
            .map(|j| {
                let out_dim = match norm.schema().column(j).kind {
                    ColumnKind::Categorical => norm.dictionary(j).len().max(1),
                    ColumnKind::Numerical => 1,
                };
                Task::new(
                    &mut tape,
                    config.task_kind,
                    n_cols,
                    config.embed_dim,
                    config.merge_hidden,
                    out_dim,
                    j,
                    config.k_strategy,
                    fds,
                    None,
                    &mut rng,
                )
            })
            .collect();
        tape.freeze();
        let n_weights = tape.total_param_elems();
        let mut adam = Adam::new(config.lr);

        // Training batches (same construction as Grimp::fit_impute).
        enum L {
            Cat(Rc<Vec<u32>>),
            Num(Rc<Vec<f32>>),
        }
        let build = |buckets: &[Vec<grimp_table::TrainingSample>],
                     cap: Option<usize>,
                     rng: &mut StdRng|
         -> Vec<Option<(VectorBatch, L)>> {
            use rand::seq::SliceRandom;
            buckets
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
                    let batch = VectorBatch::build(&graph, &positions, config.embed_dim);
                    let labels = match norm.schema().column(j).kind {
                        ColumnKind::Categorical => L::Cat(Rc::new(
                            samples
                                .iter()
                                .map(|s| s.label.as_cat().expect("cat"))
                                .collect(),
                        )),
                        ColumnKind::Numerical => L::Num(Rc::new(
                            samples
                                .iter()
                                .map(|s| s.label.as_num().expect("num") as f32)
                                .collect(),
                        )),
                    };
                    Some((batch, labels))
                })
                .collect()
        };
        let train_batches = build(&corpus.train, config.max_train_samples_per_task, &mut rng);
        let val_batches = build(&corpus.validation, None, &mut rng);

        let mut report = TrainReport {
            n_weights,
            ..Default::default()
        };
        let mut best_val = f32::INFINITY;
        let mut since_best = 0usize;
        for _epoch in 0..config.max_epochs {
            let x = tape.input(feature_tensor.clone());
            let h0 = gnn.forward(&mut tape, x);
            let h = merge.forward(&mut tape, h0);
            let mut losses = Vec::new();
            for (task, entry) in tasks.iter().zip(&train_batches) {
                let Some((batch, labels)) = entry else {
                    continue;
                };
                let out = task.forward(&mut tape, h, batch);
                let loss = match labels {
                    L::Cat(t) => match config.categorical_loss {
                        CategoricalLoss::CrossEntropy => {
                            tape.softmax_cross_entropy(out, Rc::clone(t))
                        }
                        CategoricalLoss::Focal(g) => tape.focal_loss(out, Rc::clone(t), g),
                    },
                    L::Num(t) => tape.mse_loss(out, Rc::clone(t)),
                };
                losses.push(loss);
            }
            let mut val_total = 0.0f32;
            for (task, entry) in tasks.iter().zip(&val_batches) {
                let Some((batch, labels)) = entry else {
                    continue;
                };
                let out = task.forward(&mut tape, h, batch);
                let loss = match labels {
                    L::Cat(t) => tape.softmax_cross_entropy(out, Rc::clone(t)),
                    L::Num(t) => tape.mse_loss(out, Rc::clone(t)),
                };
                val_total += tape.value(loss).item();
            }
            if losses.is_empty() {
                tape.reset();
                break;
            }
            let total = tape.add_n(&losses);
            let train_total = tape.value(total).item();
            tape.backward(total);
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
                if since_best >= config.patience {
                    report.early_stopped = true;
                    break;
                }
            }
        }

        let dictionaries = (0..n_cols)
            .map(|j| match norm.schema().column(j).kind {
                ColumnKind::Categorical => norm.dictionary(j).to_vec(),
                ColumnKind::Numerical => Vec::new(),
            })
            .collect();
        TrainedGrimp {
            config,
            tape,
            gnn,
            merge,
            tasks,
            normalizer,
            schema: dirty.schema().clone(),
            dictionaries,
            ft_seed,
            report,
        }
    }

    /// The training report.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// The prediction label space of a categorical column.
    pub fn dictionary(&self, j: usize) -> &[String] {
        &self.dictionaries[j]
    }

    /// Average attention weight each task places on each column, measured
    /// over up to `max_samples` observed cells per task of `table`
    /// (`None` entries for linear tasks).
    ///
    /// High weight of task `j` on column `c` means the model imputes `A_j`
    /// mostly from `A_c` — learned functional dependencies show up here.
    pub fn attention_profile(
        &mut self,
        table: &Table,
        max_samples: usize,
    ) -> Vec<Option<Vec<f32>>> {
        assert_eq!(
            table.schema(),
            &self.schema,
            "schema must match the training schema"
        );
        let mut norm = table.clone();
        self.normalizer.apply(&mut norm);
        let graph = TableGraph::build(&norm, self.config.graph, &[]);
        self.gnn.rebind(&graph);
        let features = fasttext_features(&graph, self.config.feature_dim, self.ft_seed);
        let feature_tensor = Tensor::from_vec(
            graph.n_nodes(),
            self.config.feature_dim,
            features.node_matrix,
        );
        let x = self.tape.input(feature_tensor);
        let h0 = self.gnn.forward(&mut self.tape, x);
        let h = self.merge.forward(&mut self.tape, h0);
        let n_cols = norm.n_columns();
        let mut profiles = Vec::with_capacity(n_cols);
        for (j, task) in self.tasks.iter().enumerate() {
            let samples: Vec<(usize, usize)> = (0..norm.n_rows())
                .filter(|&i| !norm.is_missing(i, j))
                .take(max_samples)
                .map(|i| (i, j))
                .collect();
            if samples.is_empty() {
                profiles.push(None);
                continue;
            }
            let batch = VectorBatch::build(&graph, &samples, self.config.embed_dim);
            match task.attention_alpha(&mut self.tape, h, &batch) {
                Some(alpha) => {
                    let a = self.tape.value(alpha);
                    let mut mean = vec![0.0f32; n_cols];
                    for s in 0..batch.n {
                        for (m, &v) in mean.iter_mut().zip(a.row_slice(s)) {
                            *m += v;
                        }
                    }
                    mean.iter_mut().for_each(|m| *m /= batch.n as f32);
                    profiles.push(Some(mean));
                }
                None => profiles.push(None),
            }
        }
        self.tape.reset();
        profiles
    }

    /// Impute all missing values of a schema-compatible table — possibly
    /// one the model has never seen — reusing the trained weights.
    ///
    /// # Panics
    /// Panics when the table's schema differs from the training schema.
    pub fn impute_table(&mut self, table: &Table) -> Table {
        assert_eq!(
            table.schema(),
            &self.schema,
            "schema must match the training schema"
        );
        let mut norm = table.clone();
        self.normalizer.apply(&mut norm);
        let graph = TableGraph::build(&norm, self.config.graph, &[]);
        self.gnn.rebind(&graph);
        let features = fasttext_features(&graph, self.config.feature_dim, self.ft_seed);
        let feature_tensor = Tensor::from_vec(
            graph.n_nodes(),
            self.config.feature_dim,
            features.node_matrix,
        );

        let mut result = table.clone();
        let x = self.tape.input(feature_tensor);
        let h0 = self.gnn.forward(&mut self.tape, x);
        let h = self.merge.forward(&mut self.tape, h0);
        for j in 0..norm.n_columns() {
            let missing: Vec<(usize, usize)> = (0..norm.n_rows())
                .filter(|&i| norm.is_missing(i, j))
                .map(|i| (i, j))
                .collect();
            if missing.is_empty() {
                continue;
            }
            let batch = VectorBatch::build(&graph, &missing, self.config.embed_dim);
            let out = self.tasks[j].forward(&mut self.tape, h, &batch);
            let out_t = self.tape.value(out).clone();
            match norm.schema().column(j).kind {
                ColumnKind::Categorical => {
                    if self.dictionaries[j].is_empty() {
                        continue;
                    }
                    for (s, &(i, _)) in missing.iter().enumerate() {
                        let best = out_t
                            .row_slice(s)
                            .iter()
                            .enumerate()
                            .max_by(|a, b| a.1.total_cmp(b.1))
                            .map(|(k, _)| k)
                            .expect("non-empty logits");
                        // map the training-dictionary label into the new
                        // table's dictionary
                        let label = &self.dictionaries[j][best];
                        let code = result.intern(j, label);
                        result.set(i, j, Value::Cat(code));
                    }
                }
                ColumnKind::Numerical => {
                    for (s, &(i, _)) in missing.iter().enumerate() {
                        let z = f64::from(out_t.get(s, 0));
                        result.set(i, j, Value::Num(self.normalizer.inverse(j, z)));
                    }
                }
            }
        }
        self.tape.reset();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grimp_table::{check_imputation_contract, inject_mcar, Schema};

    fn functional_table(n: usize, offset: usize) -> Table {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
            ("x", ColumnKind::Numerical),
        ]);
        let mut t = Table::empty(schema);
        // Pre-intern values in a fixed order so train/test tables share
        // dictionaries (schema compatibility).
        for k in 0..4 {
            t.intern(0, &format!("a{k}"));
            t.intern(1, &format!("b{k}"));
        }
        for i in 0..n {
            let k = (i + offset) % 4;
            let a = format!("a{k}");
            let b = format!("b{k}");
            let x = format!("{}", k as f64 * 10.0);
            t.push_str_row(&[Some(&a), Some(&b), Some(&x)]);
        }
        t
    }

    fn cfg() -> GrimpConfig {
        GrimpConfig {
            feature_dim: 16,
            gnn: grimp_gnn::GnnConfig {
                layers: 2,
                hidden: 16,
                ..Default::default()
            },
            merge_hidden: 32,
            embed_dim: 16,
            max_epochs: 60,
            patience: 12,
            lr: 2e-2,
            seed: 1,
            ..GrimpConfig::fast()
        }
    }

    #[test]
    fn trained_model_imputes_the_training_table() {
        let clean = functional_table(80, 0);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut model = TrainedGrimp::fit(cfg(), &FdSet::empty(), &dirty);
        assert!(model.report().epochs_run > 0);
        let imputed = model.impute_table(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let cat: Vec<_> = log.cells.iter().filter(|c| c.col < 2).collect();
        let correct = cat
            .iter()
            .filter(|c| imputed.get(c.row, c.col) == c.truth)
            .count();
        assert!(correct as f64 / cat.len().max(1) as f64 > 0.5);
    }

    #[test]
    fn trained_model_transfers_to_unseen_tuples() {
        // train on one sample of the distribution, impute a fresh one
        let train_clean = functional_table(80, 0);
        let mut train_dirty = train_clean.clone();
        inject_mcar(&mut train_dirty, 0.1, &mut StdRng::seed_from_u64(2));
        let mut model = TrainedGrimp::fit(cfg(), &FdSet::empty(), &train_dirty);

        let test_clean = functional_table(60, 1); // different rows, same schema
        let mut test_dirty = test_clean.clone();
        let log = inject_mcar(&mut test_dirty, 0.15, &mut StdRng::seed_from_u64(3));
        let imputed = model.impute_table(&test_dirty);
        check_imputation_contract(&test_dirty, &imputed).unwrap();
        let cat: Vec<_> = log.cells.iter().filter(|c| c.col < 2).collect();
        let correct = cat
            .iter()
            .filter(|c| imputed.display(c.row, c.col) == test_clean.display(c.row, c.col))
            .count();
        let acc = correct as f64 / cat.len().max(1) as f64;
        assert!(acc > 0.5, "inductive transfer accuracy {acc}");
    }

    #[test]
    fn repeated_imputation_calls_are_stable() {
        let clean = functional_table(50, 0);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(4));
        let mut model = TrainedGrimp::fit(cfg(), &FdSet::empty(), &dirty);
        let a = model.impute_table(&dirty);
        let b = model.impute_table(&dirty);
        assert_eq!(a, b, "imputation must not mutate the trained model");
    }

    #[test]
    fn attention_profile_reveals_the_informative_column() {
        // b is a deterministic function of a (and vice versa): each task's
        // attention must be a valid distribution, and mass on the target's
        // own (masked) slot must be ~0.
        let clean = functional_table(80, 0);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.05, &mut StdRng::seed_from_u64(7));
        let mut model = TrainedGrimp::fit(cfg(), &FdSet::empty(), &dirty);
        let profiles = model.attention_profile(&dirty, 50);
        assert_eq!(profiles.len(), 3);
        for (j, profile) in profiles.iter().enumerate() {
            let p = profile.as_ref().expect("attention tasks");
            let sum: f32 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-3, "task {j} attention sums to {sum}");
            assert!(
                p[j] < 0.05,
                "task {j} attends to its own masked slot: {}",
                p[j]
            );
        }
    }

    #[test]
    #[should_panic(expected = "schema must match")]
    fn schema_mismatch_is_rejected() {
        let clean = functional_table(30, 0);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(5));
        let mut model = TrainedGrimp::fit(cfg(), &FdSet::empty(), &dirty);
        let other = Table::empty(Schema::from_pairs(&[("z", ColumnKind::Numerical)]));
        model.impute_table(&other);
    }

    #[test]
    #[should_panic(expected = "FastText feature source")]
    fn embdi_features_are_rejected_for_inductive_use() {
        let clean = functional_table(30, 0);
        let cfg = cfg().with_features(grimp_graph::FeatureSource::Embdi);
        TrainedGrimp::fit(cfg, &FdSet::empty(), &clean);
    }
}
