//! Initial node features for the GNN (paper §3.4, "Pre-Trained Features").
//!
//! Three strategies: random initialization, FastText-substitute hashed
//! n-gram embeddings (GRIMP-FT), and EMBDI local embeddings (GRIMP-E). In
//! every case, a RID node's vector is the average of its cells' vectors and
//! each attribute's vector (used by the attention matrices `Q`) is the
//! average of the vectors of the values in the attribute.

use rand::Rng;

use grimp_table::Table;

use crate::embdi::{train_embdi, EmbdiConfig};
use crate::fasttext::{l2_normalize, FastTextLike};
use crate::hetero::{NodeLabel, TableGraph};

/// Which pre-trained feature strategy to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeatureSource {
    /// Random unit vectors.
    Random,
    /// Hashed character-n-gram embeddings (FastText substitute, GRIMP-FT).
    FastText,
    /// EMBDI random-walk skip-gram embeddings (GRIMP-E).
    Embdi,
}

impl FeatureSource {
    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            FeatureSource::Random => "rand",
            FeatureSource::FastText => "ft",
            FeatureSource::Embdi => "embdi",
        }
    }
}

/// Initial features for every graph node plus per-attribute vectors.
#[derive(Clone, Debug)]
pub struct NodeFeatures {
    /// Dimensionality of every vector.
    pub dim: usize,
    /// Row-major `n_nodes × dim` feature matrix.
    pub node_matrix: Vec<f32>,
    /// Row-major `n_cols × dim` attribute matrix (for attention `Q`).
    pub attribute_matrix: Vec<f32>,
}

impl NodeFeatures {
    /// Feature vector of node `n`.
    pub fn node(&self, n: usize) -> &[f32] {
        &self.node_matrix[n * self.dim..(n + 1) * self.dim]
    }

    /// Feature vector of attribute `j`.
    pub fn attribute(&self, j: usize) -> &[f32] {
        &self.attribute_matrix[j * self.dim..(j + 1) * self.dim]
    }
}

/// Build initial features for `graph` using `source`.
///
/// For [`FeatureSource::Embdi`], `embdi_cfg` controls the walk/SGNS stage
/// (its `dim` field is overridden by `dim`).
pub fn build_features(
    graph: &TableGraph,
    table: &Table,
    source: FeatureSource,
    dim: usize,
    embdi_cfg: &EmbdiConfig,
    rng: &mut impl Rng,
) -> NodeFeatures {
    match source {
        FeatureSource::Random => random_features(graph, dim, rng),
        FeatureSource::FastText => fasttext_features(graph, dim, rng.gen()),
        FeatureSource::Embdi => {
            let cfg = EmbdiConfig { dim, ..*embdi_cfg };
            let emb = train_embdi(graph, table, &cfg, rng);
            NodeFeatures {
                dim,
                node_matrix: emb.node_vectors,
                attribute_matrix: emb.attribute_vectors,
            }
        }
    }
}

/// [`build_features`] wrapped in a [`grimp_obs::names::FEATURE_INIT`] span,
/// also emitting the feature dimensionality as a counter.
pub fn build_features_traced(
    graph: &TableGraph,
    table: &Table,
    source: FeatureSource,
    dim: usize,
    embdi_cfg: &EmbdiConfig,
    rng: &mut impl Rng,
    trace: &mut grimp_obs::Trace<'_>,
) -> NodeFeatures {
    use grimp_obs::names;
    let span = trace.enter(names::FEATURE_INIT, 0);
    let features = build_features(graph, table, source, dim, embdi_cfg, rng);
    trace.counter(names::FEATURE_DIM, 0, features.dim as u64);
    trace.exit(names::FEATURE_INIT, 0, span);
    features
}

fn random_features(graph: &TableGraph, dim: usize, rng: &mut impl Rng) -> NodeFeatures {
    let n = graph.n_nodes();
    let mut node_matrix: Vec<f32> = (0..n * dim).map(|_| rng.gen::<f32>() - 0.5).collect();
    for chunk in node_matrix.chunks_mut(dim) {
        l2_normalize(chunk);
    }
    let attribute_matrix = average_attribute_vectors(graph, dim, &node_matrix);
    NodeFeatures {
        dim,
        node_matrix,
        attribute_matrix,
    }
}

/// FastText-substitute features with an explicit seed. Unlike
/// [`build_features`], this is **inductive**: the same `(dim, seed)` maps
/// the same value text to the same vector on *any* graph, which is what
/// lets a trained model be reused on unseen tables.
pub fn fasttext_features(graph: &TableGraph, dim: usize, seed: u64) -> NodeFeatures {
    let ft = FastTextLike::new(dim, seed);
    let n = graph.n_nodes();
    let mut node_matrix = vec![0.0f32; n * dim];
    // Cell nodes: embed their text.
    for node in 0..n {
        if let NodeLabel::Cell { text, .. } = graph.label(node) {
            node_matrix[node * dim..(node + 1) * dim].copy_from_slice(&ft.embed(text));
        }
    }
    // RID nodes: average of connected cell vectors.
    let mut counts = vec![0usize; graph.n_rids()];
    for t in 0..graph.n_edge_types() {
        for &(rid, cell) in &graph.edges_of(t).pairs {
            let (rid, cell) = (rid as usize, cell as usize);
            for d in 0..dim {
                node_matrix[rid * dim + d] += node_matrix[cell * dim + d];
            }
            counts[rid] += 1;
        }
    }
    for rid in 0..graph.n_rids() {
        let chunk = &mut node_matrix[rid * dim..(rid + 1) * dim];
        if counts[rid] > 0 {
            let inv = 1.0 / counts[rid] as f32;
            chunk.iter_mut().for_each(|v| *v *= inv);
        }
        l2_normalize(chunk);
    }
    let attribute_matrix = average_attribute_vectors(graph, dim, &node_matrix);
    NodeFeatures {
        dim,
        node_matrix,
        attribute_matrix,
    }
}

/// Attribute vector = mean of the attribute's cell-node vectors.
fn average_attribute_vectors(graph: &TableGraph, dim: usize, node_matrix: &[f32]) -> Vec<f32> {
    let n_cols = graph.n_edge_types();
    let mut attr = vec![0.0f32; n_cols * dim];
    for t in 0..n_cols {
        let mut count = 0usize;
        for (_, cell) in graph.column_cells(t) {
            let cell = cell as usize;
            for d in 0..dim {
                attr[t * dim + d] += node_matrix[cell * dim + d];
            }
            count += 1;
        }
        let chunk = &mut attr[t * dim..(t + 1) * dim];
        if count > 0 {
            let inv = 1.0 / count as f32;
            chunk.iter_mut().for_each(|v| *v *= inv);
        }
        l2_normalize(chunk);
    }
    attr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hetero::GraphConfig;
    use grimp_table::{ColumnKind, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> Table {
        let schema =
            Schema::from_pairs(&[("c", ColumnKind::Categorical), ("x", ColumnKind::Numerical)]);
        Table::from_rows(
            schema,
            &[
                vec![Some("alpha"), Some("1.0")],
                vec![Some("beta"), Some("2.0")],
                vec![None, Some("1.0")],
            ],
        )
    }

    #[test]
    fn all_sources_produce_full_feature_sets() {
        let t = table();
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        for source in [
            FeatureSource::Random,
            FeatureSource::FastText,
            FeatureSource::Embdi,
        ] {
            let mut rng = StdRng::seed_from_u64(3);
            let f = build_features(&g, &t, source, 16, &EmbdiConfig::default(), &mut rng);
            assert_eq!(f.dim, 16);
            assert_eq!(f.node_matrix.len(), g.n_nodes() * 16, "{source:?}");
            assert_eq!(f.attribute_matrix.len(), 2 * 16, "{source:?}");
            assert!(f.node_matrix.iter().all(|v| v.is_finite()), "{source:?}");
        }
    }

    #[test]
    fn fasttext_rid_features_average_their_cells() {
        let t = table();
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        let f = fasttext_features(&g, 16, 42);
        // RID 2 is connected only to the "1.0000" cell of column x, so its
        // vector equals that cell's (both unit-normalized).
        let cell = g.node_at(2, 1).unwrap() as usize;
        for d in 0..16 {
            assert!((f.node(2)[d] - f.node(cell)[d]).abs() < 1e-5);
        }
    }

    #[test]
    fn rows_sharing_values_have_similar_fasttext_features() {
        let t = table();
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        let f = fasttext_features(&g, 32, 42);
        let cos = |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(&x, &y)| x * y).sum() };
        // rows 0 and 2 share the value 1.0 in column x; rows 1 and 2 share none
        let sim_02 = cos(f.node(0), f.node(2));
        let sim_12 = cos(f.node(1), f.node(2));
        assert!(sim_02 > sim_12, "{sim_02} <= {sim_12}");
    }

    #[test]
    fn random_features_are_unit_norm() {
        let t = table();
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        let f = random_features(&g, 8, &mut StdRng::seed_from_u64(1));
        for n in 0..g.n_nodes() {
            let norm: f32 = f.node(n).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-5);
        }
    }
}
