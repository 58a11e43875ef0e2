//! Federated imputation prototype (paper §7, future work #5: "in settings
//! where data privacy is an issue, we see GRIMP as a step that can lead to
//! novel solutions for federated imputation").
//!
//! Simulates `K` parties holding disjoint row shards of one table. Each
//! party trains a *local* GRIMP on its shard (its own graph, features and
//! self-supervised corpus — raw rows never leave the party); every round,
//! only the **model parameters** are averaged across parties (FedAvg,
//! McMahan et al. 2017) and broadcast back. After the final round each
//! party imputes its own shard and the shards are reassembled.
//!
//! Simulation simplifications (documented, inherent to an offline
//! prototype): the parties share the schema and the categorical label
//! vocabularies (in a real deployment this is an agreed codebook — values,
//! not records), and the shard split is round-robin. Optimizer state stays
//! local; only weights are communicated.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use grimp_gnn::HeteroSage;
use grimp_graph::{build_features, TableGraph};
use grimp_table::{ColumnKind, Corpus, FdSet, Normalizer, Table, Value};
use grimp_tensor::{Adam, Mlp, Tape, Tensor, Var};

use crate::config::{CategoricalLoss, GrimpConfig};
use crate::tasks::Task;
use crate::vectors::VectorBatch;

/// Federation options.
#[derive(Clone, Debug)]
pub struct FederatedConfig {
    /// Number of parties `K`.
    pub parties: usize,
    /// Communication rounds.
    pub rounds: usize,
    /// Local epochs per round `E`.
    pub local_epochs: usize,
    /// The per-party GRIMP configuration (its `max_epochs`/`patience` are
    /// ignored; `rounds × local_epochs` governs training).
    pub base: GrimpConfig,
}

impl Default for FederatedConfig {
    fn default() -> Self {
        FederatedConfig {
            parties: 3,
            rounds: 8,
            local_epochs: 5,
            base: GrimpConfig::fast(),
        }
    }
}

/// Outcome of a federated run.
#[derive(Clone, Debug, Default)]
pub struct FederatedReport {
    /// Rounds executed.
    pub rounds_run: usize,
    /// Mean local training loss per round (averaged over parties).
    pub round_losses: Vec<f32>,
    /// Scalar parameters exchanged per round (weights of one model).
    pub params_per_round: usize,
}

/// One party's local state: shard data, graph, model, optimizer.
struct Party {
    /// Original row indices of this shard.
    rows: Vec<usize>,
    shard: Table,
    graph: TableGraph,
    feature_tensor: Tensor,
    tape: Tape,
    gnn: HeteroSage,
    merge: Mlp,
    tasks: Vec<Task>,
    adam: Adam,
    batches: Vec<Option<(VectorBatch, Labels)>>,
}

enum Labels {
    Cat(Rc<Vec<u32>>),
    Num(Rc<Vec<f32>>),
}

/// The federated GRIMP coordinator.
pub struct FederatedGrimp {
    config: FederatedConfig,
    fds: FdSet,
    last_report: Option<FederatedReport>,
}

/// Clone a table's schema and dictionaries without any rows, so shard
/// tables share categorical codes with the source.
fn empty_with_dictionaries(source: &Table) -> Table {
    let mut out = Table::empty(source.schema().clone());
    for j in 0..source.n_columns() {
        if source.schema().column(j).kind == ColumnKind::Categorical {
            for value in source.dictionary(j) {
                out.intern(j, value);
            }
        }
    }
    out
}

impl FederatedGrimp {
    /// A federated coordinator without FDs.
    pub fn new(config: FederatedConfig) -> Self {
        assert!(config.parties >= 2, "federation needs at least two parties");
        FederatedGrimp {
            config,
            fds: FdSet::empty(),
            last_report: None,
        }
    }

    /// The report of the most recent run.
    pub fn last_report(&self) -> Option<&FederatedReport> {
        self.last_report.as_ref()
    }

    /// Split, train federated, impute shards, reassemble.
    pub fn fit_impute(&mut self, dirty: &Table) -> Table {
        let cfg = &self.config;
        let base = &cfg.base;

        // Global normalization statistics (in deployment: securely
        // aggregated moments — scalar statistics, not records).
        let normalizer = Normalizer::fit(dirty);
        let mut norm = dirty.clone();
        normalizer.apply(&mut norm);

        // Round-robin shard split.
        let mut parties: Vec<Party> = Vec::with_capacity(cfg.parties);
        for p in 0..cfg.parties {
            let rows: Vec<usize> = (p..norm.n_rows()).step_by(cfg.parties).collect();
            let mut shard = empty_with_dictionaries(&norm);
            for &i in &rows {
                let row: Vec<Value> = (0..norm.n_columns()).map(|j| norm.get(i, j)).collect();
                shard.push_value_row(&row);
            }
            // identical seeds → identical initial weights on every party
            let mut rng = StdRng::seed_from_u64(base.seed);
            let corpus = Corpus::build(&shard, 0.0, &mut rng);
            let graph = TableGraph::build(&shard, base.graph, &[]);
            let features = build_features(
                &graph,
                &shard,
                base.features,
                base.feature_dim,
                &base.embdi,
                &mut rng,
            );
            let feature_tensor = Tensor::from_vec(
                graph.n_nodes(),
                base.feature_dim,
                features.node_matrix.clone(),
            );
            let mut tape = Tape::new();
            let gnn = HeteroSage::new(&mut tape, &graph, base.feature_dim, base.gnn, &mut rng);
            let merge = Mlp::new(
                &mut tape,
                &[base.gnn.hidden, base.merge_hidden, base.embed_dim],
                &mut rng,
            );
            let n_cols = shard.n_columns();
            let tasks: Vec<Task> = (0..n_cols)
                .map(|j| {
                    let out_dim = match shard.schema().column(j).kind {
                        // shared vocabulary: dictionary of the *global* table
                        ColumnKind::Categorical => shard.dictionary(j).len().max(1),
                        ColumnKind::Numerical => 1,
                    };
                    Task::new(
                        &mut tape,
                        base.task_kind,
                        n_cols,
                        base.embed_dim,
                        base.merge_hidden,
                        out_dim,
                        j,
                        base.k_strategy,
                        &self.fds,
                        None,
                        &mut rng,
                    )
                })
                .collect();
            tape.freeze();
            let batches = (0..n_cols)
                .map(|j| {
                    let samples = &corpus.train[j];
                    if samples.is_empty() {
                        return None;
                    }
                    let positions: Vec<(usize, usize)> =
                        samples.iter().map(|s| (s.row, s.target_col)).collect();
                    let batch = VectorBatch::build(&graph, &positions, base.embed_dim);
                    let labels = match shard.schema().column(j).kind {
                        ColumnKind::Categorical => Labels::Cat(Rc::new(
                            samples
                                .iter()
                                .map(|s| s.label.as_cat().expect("cat"))
                                .collect(),
                        )),
                        ColumnKind::Numerical => Labels::Num(Rc::new(
                            samples
                                .iter()
                                .map(|s| s.label.as_num().expect("num") as f32)
                                .collect(),
                        )),
                    };
                    Some((batch, labels))
                })
                .collect();
            parties.push(Party {
                rows,
                shard,
                graph,
                feature_tensor,
                tape,
                gnn,
                merge,
                tasks,
                adam: Adam::new(base.lr),
                batches,
            });
        }

        let n_params = parties[0].tape.param_count();
        for party in &parties {
            assert_eq!(
                party.tape.param_count(),
                n_params,
                "parties must have identical parameter layouts"
            );
        }

        // FedAvg rounds.
        let mut report = FederatedReport {
            params_per_round: parties[0].tape.total_param_elems(),
            ..Default::default()
        };
        for _round in 0..cfg.rounds {
            let mut round_loss = 0.0f32;
            for party in &mut parties {
                for _ in 0..cfg.local_epochs {
                    round_loss += party.local_epoch(base) / cfg.local_epochs as f32;
                }
            }
            average_parameters(&mut parties, n_params);
            report.rounds_run += 1;
            report.round_losses.push(round_loss / cfg.parties as f32);
        }

        // Local imputation of each shard, merged back by original row ids.
        let mut result = dirty.clone();
        for party in &mut parties {
            let imputed_shard = party.impute_shard(base, &normalizer);
            for (local, &global) in party.rows.iter().enumerate() {
                for j in 0..result.n_columns() {
                    if result.is_missing(global, j) {
                        let v = imputed_shard.get(local, j);
                        if !v.is_null() {
                            result.set(global, j, v);
                        }
                    }
                }
            }
        }
        self.last_report = Some(report);
        result
    }
}

impl Party {
    /// One local epoch; returns the summed task loss.
    fn local_epoch(&mut self, base: &GrimpConfig) -> f32 {
        let x = self.tape.input(self.feature_tensor.clone());
        let h0 = self.gnn.forward(&mut self.tape, x);
        let h = self.merge.forward(&mut self.tape, h0);
        let mut losses = Vec::new();
        for (task, entry) in self.tasks.iter().zip(&self.batches) {
            let Some((batch, labels)) = entry else {
                continue;
            };
            let out = task.forward(&mut self.tape, h, batch);
            let loss = match labels {
                Labels::Cat(t) => match base.categorical_loss {
                    CategoricalLoss::CrossEntropy => {
                        self.tape.softmax_cross_entropy(out, Rc::clone(t))
                    }
                    CategoricalLoss::Focal(g) => self.tape.focal_loss(out, Rc::clone(t), g),
                },
                Labels::Num(t) => self.tape.mse_loss(out, Rc::clone(t)),
            };
            losses.push(loss);
        }
        if losses.is_empty() {
            self.tape.reset();
            return 0.0;
        }
        let total = self.tape.add_n(&losses);
        let value = self.tape.value(total).item();
        self.tape.backward(total);
        self.adam.step(&mut self.tape);
        self.tape.reset();
        value
    }

    /// Impute this shard's missing cells with the current (synced) model.
    fn impute_shard(&mut self, base: &GrimpConfig, normalizer: &Normalizer) -> Table {
        let mut result = self.shard.clone();
        let x = self.tape.input(self.feature_tensor.clone());
        let h0 = self.gnn.forward(&mut self.tape, x);
        let h = self.merge.forward(&mut self.tape, h0);
        for j in 0..self.shard.n_columns() {
            let missing: Vec<(usize, usize)> = (0..self.shard.n_rows())
                .filter(|&i| self.shard.is_missing(i, j))
                .map(|i| (i, j))
                .collect();
            if missing.is_empty() {
                continue;
            }
            let batch = VectorBatch::build(&self.graph, &missing, base.embed_dim);
            let out = self.tasks[j].forward(&mut self.tape, h, &batch);
            let out_t = self.tape.value(out).clone();
            match self.shard.schema().column(j).kind {
                ColumnKind::Categorical => {
                    if self.shard.dictionary(j).is_empty() {
                        continue;
                    }
                    for (s, &(i, _)) in missing.iter().enumerate() {
                        let best = out_t
                            .row_slice(s)
                            .iter()
                            .enumerate()
                            .max_by(|a, b| a.1.total_cmp(b.1))
                            .map(|(k, _)| k as u32)
                            .expect("non-empty logits");
                        result.set(i, j, Value::Cat(best));
                    }
                }
                ColumnKind::Numerical => {
                    for (s, &(i, _)) in missing.iter().enumerate() {
                        // de-normalize: z in normalized space → raw
                        let z = f64::from(out_t.get(s, 0));
                        result.set(i, j, Value::Num(normalizer.inverse(j, z)));
                    }
                }
            }
        }
        self.tape.reset();
        result
    }
}

/// FedAvg: elementwise mean of every parameter across parties, broadcast
/// back to every party.
fn average_parameters(parties: &mut [Party], n_params: usize) {
    for p in 0..n_params {
        let var = Var::from_index(p);
        let (rows, cols) = parties[0].tape.value(var).shape();
        let mut mean = Tensor::zeros(rows, cols);
        for party in parties.iter() {
            mean.add_scaled(party.tape.value(var), 1.0 / parties.len() as f32);
        }
        for party in parties.iter_mut() {
            *party.tape.value_mut(var) = mean.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grimp_table::{check_imputation_contract, inject_mcar, ColumnKind, Schema};

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

    fn fed_config() -> FederatedConfig {
        FederatedConfig {
            parties: 3,
            rounds: 6,
            local_epochs: 4,
            base: GrimpConfig {
                feature_dim: 8,
                gnn: grimp_gnn::GnnConfig {
                    layers: 1,
                    hidden: 8,
                    ..Default::default()
                },
                merge_hidden: 16,
                embed_dim: 8,
                lr: 2e-2,
                seed: 0,
                ..GrimpConfig::fast()
            },
        }
    }

    #[test]
    fn federated_imputation_learns_the_shared_structure() {
        let clean = functional_table(90);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut fed = FederatedGrimp::new(fed_config());
        let imputed = fed.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let correct = log
            .cells
            .iter()
            .filter(|c| imputed.display(c.row, c.col) == clean.display(c.row, c.col))
            .count();
        let acc = correct as f64 / log.len().max(1) as f64;
        assert!(acc > 0.5, "federated accuracy {acc}");
        let report = fed.last_report().unwrap();
        assert_eq!(report.rounds_run, 6);
        assert!(report.params_per_round > 0);
        // losses trend downward over rounds
        assert!(
            report.round_losses.last().unwrap() < report.round_losses.first().unwrap(),
            "{:?}",
            report.round_losses
        );
    }

    #[test]
    fn shards_partition_all_rows() {
        let clean = functional_table(20);
        let cfg = fed_config();
        let mut seen = [false; 20];
        for p in 0..cfg.parties {
            for i in (p..20).step_by(cfg.parties) {
                assert!(!seen[i], "row {i} in two shards");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        drop(clean);
    }

    #[test]
    #[should_panic(expected = "at least two parties")]
    fn single_party_is_rejected() {
        FederatedGrimp::new(FederatedConfig {
            parties: 1,
            ..fed_config()
        });
    }

    #[test]
    fn dictionaries_are_shared_across_shards() {
        let clean = functional_table(30);
        let shard = empty_with_dictionaries(&clean);
        for j in 0..clean.n_columns() {
            assert_eq!(shard.dictionary(j), clean.dictionary(j));
        }
        assert_eq!(shard.n_rows(), 0);
    }
}
