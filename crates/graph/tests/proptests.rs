//! Property-based tests of the graph substrate: structural invariants of
//! the heterogeneous table graph and of the embedding generators, and a
//! differential test of the code-keyed build against a string-keyed
//! reference.

use std::collections::{HashMap, HashSet};

use grimp_graph::{
    train_embdi, value_key, EmbdiConfig, FastTextLike, GraphConfig, NeighborSampler, NodeLabel,
    TableGraph,
};
use grimp_table::{ColumnKind, Schema, Table};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The string-keyed graph build that `TableGraph::build` replaced: it
/// formats and hashes a canonical key for every cell, once to count the
/// domain and once to emit edges. Kept as the reference the code-keyed
/// build must reproduce bit for bit.
struct ReferenceGraph {
    labels: Vec<NodeLabel>,
    cell_index: Vec<HashMap<String, u32>>,
    edges: Vec<Vec<(u32, u32)>>,
    decimals: usize,
}

impl ReferenceGraph {
    fn build(table: &Table, config: GraphConfig, excluded: &[(usize, usize)]) -> Self {
        let n_rows = table.n_rows();
        let n_cols = table.n_columns();
        let excluded: HashSet<(usize, usize)> = excluded.iter().copied().collect();
        let mut labels: Vec<NodeLabel> = (0..n_rows).map(|i| NodeLabel::Rid(i as u32)).collect();
        let mut cell_index: Vec<HashMap<String, u32>> = vec![HashMap::new(); n_cols];
        let mut edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_cols];
        for (col, index) in cell_index.iter_mut().enumerate() {
            let mut order: Vec<String> = Vec::new();
            let mut counts: HashMap<String, usize> = HashMap::new();
            for row in 0..n_rows {
                if let Some(key) = value_key(table, row, col, config.numeric_decimals) {
                    let count = counts.entry(key.clone()).or_insert(0);
                    if *count == 0 {
                        order.push(key);
                    }
                    *count += 1;
                }
            }
            let kept: Vec<usize> = match config.max_cells_per_column {
                Some(cap) if order.len() > cap => {
                    let mut ranked: Vec<usize> = (0..order.len()).collect();
                    ranked.sort_by_key(|&i| (std::cmp::Reverse(counts[order[i].as_str()]), i));
                    ranked.truncate(cap);
                    ranked.sort_unstable();
                    ranked
                }
                _ => (0..order.len()).collect(),
            };
            for i in kept {
                let id = labels.len() as u32;
                labels.push(NodeLabel::Cell {
                    col: col as u32,
                    text: order[i].clone(),
                });
                index.insert(order[i].clone(), id);
            }
        }
        for row in 0..n_rows {
            for col in 0..n_cols {
                if excluded.contains(&(row, col)) {
                    continue;
                }
                if let Some(key) = value_key(table, row, col, config.numeric_decimals) {
                    if let Some(&cell) = cell_index[col].get(&key) {
                        edges[col].push((row as u32, cell));
                    }
                }
            }
        }
        ReferenceGraph {
            labels,
            cell_index,
            edges,
            decimals: config.numeric_decimals,
        }
    }

    /// The node of a cell by formatting and looking up its key.
    fn node_at(&self, table: &Table, row: usize, col: usize) -> Option<u32> {
        value_key(table, row, col, self.decimals)
            .and_then(|key| self.cell_index[col].get(&key).copied())
    }
}

/// Sorted `(key, node)` pairs of one column's cell index.
fn column_cells(g: &TableGraph, col: usize) -> Vec<(String, u32)> {
    g.column_cells(col)
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Every node, edge, index entry and cell node of `g` equals the
/// reference's (the node map is checked against `table`, the table both
/// were built over).
fn assert_matches_reference(g: &TableGraph, r: &ReferenceGraph, table: &Table) {
    prop_assert_eq!(g.n_nodes(), r.labels.len());
    for (n, label) in r.labels.iter().enumerate() {
        prop_assert_eq!(g.label(n), label, "node {}", n);
    }
    prop_assert_eq!(g.n_edge_types(), r.edges.len());
    for (col, pairs) in r.edges.iter().enumerate() {
        prop_assert_eq!(&g.edges_of(col).pairs, pairs, "edges of column {}", col);
        let mut expected: Vec<(String, u32)> = r.cell_index[col]
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        expected.sort_unstable_by_key(|&(_, v)| v);
        prop_assert_eq!(
            column_cells(g, col),
            expected,
            "cell index of column {}",
            col
        );
        for row in 0..table.n_rows() {
            prop_assert_eq!(
                g.node_at(row, col),
                r.node_at(table, row, col),
                "cell ({}, {})",
                row,
                col
            );
        }
    }
}

/// Numericals chosen to collide only after rounding: `1.00001` and
/// `1.00002` share a key at 4 decimals or fewer, `-0.0` and `-0.00001`
/// share one at any precision up to 4, while `0.0` keeps its own.
const COLLIDING_NUMS: [&str; 8] = [
    "1.00001", "1.00002", "0.0", "-0.0", "-0.00001", "2.5", "NaN", "-7.125",
];

fn arb_colliding_table() -> impl Strategy<Value = Table> {
    let cat = prop_oneof![
        4 => (0u32..8).prop_map(Some),
        1 => Just(None),
    ];
    let num = prop_oneof![
        4 => (0usize..COLLIDING_NUMS.len()).prop_map(Some),
        1 => Just(None),
    ];
    proptest::collection::vec((cat, num.clone(), num), 0..40).prop_map(|rows| {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("x", ColumnKind::Numerical),
            ("y", ColumnKind::Numerical),
        ]);
        let mut t = Table::empty(schema);
        for (a, x, y) in rows {
            let a = a.map(|v| format!("a{v}"));
            t.push_str_row(&[
                a.as_deref(),
                x.map(|i| COLLIDING_NUMS[i]),
                y.map(|i| COLLIDING_NUMS[i]),
            ]);
        }
        t
    })
}

fn arb_table() -> impl Strategy<Value = Table> {
    let cell = prop_oneof![
        4 => (0u32..6).prop_map(Some),
        1 => Just(None),
    ];
    proptest::collection::vec(
        (cell.clone(), cell, proptest::option::of(-50i32..50)),
        1..30,
    )
    .prop_map(|rows| {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
            ("x", ColumnKind::Numerical),
        ]);
        let mut t = Table::empty(schema);
        for (a, b, x) in rows {
            let a = a.map(|v| format!("a{v}"));
            let b = b.map(|v| format!("b{v}"));
            let x = x.map(|v| format!("{}", v as f64 / 2.0));
            t.push_str_row(&[a.as_deref(), b.as_deref(), x.as_deref()]);
        }
        t
    })
}

/// Grow a graph of `base` by the rows of `delta` with
/// `TableGraph::append_rows` and check it against a from-scratch build of
/// the concatenation: labels, edges, cell index and the node of every cell.
fn assert_append_matches_scratch(
    base: &Table,
    delta: &Table,
    sel: &[(usize, usize)],
    cfg: GraphConfig,
) {
    // Concatenate: the delta table's rows are pushed onto the base.
    let mut cat = base.clone();
    for i in 0..delta.n_rows() {
        let row: Vec<Option<String>> = (0..delta.n_columns())
            .map(|j| (!delta.is_missing(i, j)).then(|| delta.display(i, j)))
            .collect();
        let row: Vec<Option<&str>> = row.iter().map(|v| v.as_deref()).collect();
        cat.push_str_row(&row);
    }
    let excluded: Vec<(usize, usize)> = sel
        .iter()
        .copied()
        .filter(|&(i, j)| i < cat.n_rows() && j < cat.n_columns())
        .collect();
    let base_excluded: Vec<(usize, usize)> = excluded
        .iter()
        .copied()
        .filter(|&(i, _)| i < base.n_rows())
        .collect();

    let mut grown = TableGraph::build(base, cfg, &base_excluded);
    grown.append_rows(&cat, &excluded).unwrap();
    let scratch = TableGraph::build(&cat, cfg, &excluded);

    prop_assert_eq!(scratch.n_nodes(), grown.n_nodes());
    prop_assert_eq!(grown.readout_range(), cat.n_rows()..grown.n_nodes());
    for n in 0..scratch.n_nodes() {
        prop_assert_eq!(scratch.label(n), grown.label(n), "node {}", n);
    }
    for c in 0..scratch.n_edge_types() {
        prop_assert_eq!(
            &scratch.edges_of(c).pairs,
            &grown.edges_of(c).pairs,
            "column {}",
            c
        );
        prop_assert_eq!(
            column_cells(&scratch, c),
            column_cells(&grown, c),
            "cell index of column {}",
            c
        );
        for row in 0..cat.n_rows() {
            prop_assert_eq!(
                scratch.node_at(row, c),
                grown.node_at(row, c),
                "cell ({}, {})",
                row,
                c
            );
        }
    }
    // Both also agree with the string-keyed reference.
    assert_matches_reference(&grown, &ReferenceGraph::build(&cat, cfg, &excluded), &cat);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn graph_structure_invariants(t in arb_table()) {
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        // node layout: RIDs first
        prop_assert_eq!(g.n_rids(), t.n_rows());
        for i in 0..g.n_rids() {
            prop_assert!(matches!(g.label(i), NodeLabel::Rid(r) if *r as usize == i));
        }
        // edge count = non-missing cells
        let non_missing = t.n_rows() * t.n_columns() - t.n_missing();
        prop_assert_eq!(g.n_edges(), non_missing);
        // every edge references a valid RID and a cell node of its own type
        for ty in 0..g.n_edge_types() {
            for &(rid, cell) in &g.edges_of(ty).pairs {
                prop_assert!((rid as usize) < g.n_rids());
                match g.label(cell as usize) {
                    NodeLabel::Cell { col, .. } => prop_assert_eq!(*col as usize, ty),
                    _ => prop_assert!(false, "edge target is not a cell node"),
                }
            }
        }
    }

    #[test]
    fn cell_nodes_are_unique_per_column_value(t in arb_table()) {
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        // distinct cell-node count per column equals the column's distinct
        // (canonicalized) value count
        for j in 0..t.n_columns() {
            let mut keys: Vec<String> = (0..t.n_rows())
                .filter_map(|i| grimp_graph::value_key(&t, i, j, 4))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            prop_assert_eq!(g.n_column_cells(j), keys.len());
        }
    }

    #[test]
    fn excluding_cells_only_removes_their_edges(t in arb_table(), sel in proptest::collection::vec((0usize..30, 0usize..3), 0..8)) {
        let excluded: Vec<(usize, usize)> = sel
            .into_iter()
            .filter(|&(i, j)| i < t.n_rows() && j < t.n_columns() && !t.is_missing(i, j))
            .collect();
        let full = TableGraph::build(&t, GraphConfig::default(), &[]);
        let pruned = TableGraph::build(&t, GraphConfig::default(), &excluded);
        let distinct_excluded: std::collections::HashSet<(usize, usize)> =
            excluded.iter().copied().collect();
        prop_assert_eq!(full.n_edges(), pruned.n_edges() + distinct_excluded.len());
        // node sets identical (candidates must survive exclusion)
        prop_assert_eq!(full.n_nodes(), pruned.n_nodes());
    }

    #[test]
    fn code_keyed_build_matches_the_string_keyed_reference(
        t in arb_colliding_table(),
        cap in proptest::option::of(1usize..6),
        decimals in 0usize..6,
        sel in proptest::collection::vec((0usize..45, 0usize..4), 0..10),
    ) {
        // Exclusions may name rows or columns outside the table: both
        // builds ignore those.
        let cfg = GraphConfig { numeric_decimals: decimals, max_cells_per_column: cap };
        let g = TableGraph::build(&t, cfg, &sel);
        let r = ReferenceGraph::build(&t, cfg, &sel);
        assert_matches_reference(&g, &r, &t);
    }

    #[test]
    fn code_keyed_build_matches_the_reference_on_mixed_tables(
        t in arb_table(),
        cap in proptest::option::of(1usize..8),
        sel in proptest::collection::vec((0usize..30, 0usize..3), 0..8),
    ) {
        let cfg = GraphConfig { max_cells_per_column: cap, ..GraphConfig::default() };
        let g = TableGraph::build(&t, cfg, &sel);
        let r = ReferenceGraph::build(&t, cfg, &sel);
        assert_matches_reference(&g, &r, &t);
    }

    #[test]
    fn delta_built_graph_is_bit_identical_to_from_scratch(
        base in arb_table(),
        delta in arb_table(),
        sel in proptest::collection::vec((0usize..60, 0usize..3), 0..8),
    ) {
        assert_append_matches_scratch(&base, &delta, &sel, GraphConfig::default());
    }

    #[test]
    fn delta_over_colliding_numericals_is_bit_identical_to_from_scratch(
        base in arb_colliding_table(),
        delta in arb_colliding_table(),
        decimals in 0usize..6,
        sel in proptest::collection::vec((0usize..80, 0usize..3), 0..8),
    ) {
        let cfg = GraphConfig { numeric_decimals: decimals, ..GraphConfig::default() };
        assert_append_matches_scratch(&base, &delta, &sel, cfg);
    }

    #[test]
    fn frontier_draws_equal_the_all_node_epoch_lists(
        t in arb_table(),
        seed in 0u64..1000,
        epoch in 0u64..50,
        fanout in 1usize..4,
    ) {
        // The frontier of the readout set (cells) two hops out, drawn node
        // by node, must see exactly the lists of the all-node epoch.
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        let readout = g.readout_range();
        prop_assert!(readout.clone().all(|v| matches!(g.label(v), NodeLabel::Cell { .. })));
        let mut all = NeighborSampler::new(&g, seed, fanout);
        let total = all.sample_epoch(epoch);
        prop_assert_eq!(total, all.sampled_edges());
        let frontier = NeighborSampler::new(&g, seed, fanout);
        let mut nodes: Vec<usize> = readout.collect();
        for _hop in 0..2 {
            let mut next = nodes.clone();
            for &v in &nodes {
                for ty in 0..g.n_edge_types() {
                    let mut drawn = Vec::new();
                    frontier.sample_node(epoch, ty, v, &mut drawn);
                    prop_assert_eq!(&drawn, &all.lists()[ty][v], "type {} node {}", ty, v);
                    prop_assert_eq!(drawn.len(), frontier.sampled_degree(ty, v));
                    next.extend(drawn.iter().map(|&u| u as usize));
                }
            }
            next.sort_unstable();
            next.dedup();
            nodes = next;
        }
    }

    #[test]
    fn fasttext_is_deterministic_and_normalized(word in "[a-z0-9]{1,12}", dim in 4usize..64, seed in 0u64..50) {
        let ft = FastTextLike::new(dim, seed);
        let a = ft.embed(&word);
        let b = ft.embed(&word);
        prop_assert_eq!(&a, &b);
        let norm: f32 = a.iter().map(|v| v * v).sum::<f32>().sqrt();
        prop_assert!((norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn embdi_vectors_are_finite_unit_or_zero(t in arb_table(), seed in 0u64..20) {
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        let cfg = EmbdiConfig { walks_per_node: 2, walk_length: 6, epochs: 1, ..Default::default() };
        let emb = train_embdi(&g, &t, &cfg, &mut StdRng::seed_from_u64(seed));
        for n in 0..g.n_nodes() {
            let v = emb.node(n);
            prop_assert!(v.iter().all(|x| x.is_finite()));
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            // unit (trained) or zero (isolated node never visited)
            prop_assert!(norm < 1.0 + 1e-3, "norm {}", norm);
        }
    }
}
