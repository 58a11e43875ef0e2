//! The heterogeneous quasi-bipartite table graph of §3.2.
//!
//! Each tuple is a **RID node**; each distinct (attribute, value) pair is a
//! **cell node** — the same surface value appearing in two attributes gets
//! two nodes (disambiguation). RID and cell nodes are connected by a typed
//! edge whose type is the attribute. `∅` cells contribute no edges, and the
//! caller can exclude additional `(row, col)` cells (validation samples, per
//! §3.6: "We remove all edges incident in the validation step from the graph
//! representation before training").

use std::collections::HashMap;
use std::ops::Range;

use grimp_table::{Column, Table, Value};

/// Node-map entry of a cell without a node: `∅`, or a value capped out of
/// the node set. Also the "not yet seen" mark of the resolution caches.
const NO_NODE: u32 = u32::MAX;

/// What a graph node represents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeLabel {
    /// The record-id node of tuple `row`.
    Rid(u32),
    /// The cell node of a distinct value within one attribute.
    Cell {
        /// Owning attribute index.
        col: u32,
        /// Canonical text of the value (numericals rounded per config).
        text: String,
    },
}

/// Construction options.
#[derive(Clone, Copy, Debug)]
pub struct GraphConfig {
    /// Decimal places used to canonicalize numerical values into cell-node
    /// keys. The paper rounds reals "to a pre-defined number of decimal
    /// places (8 places by default)"; we default to 4 to keep distinct-node
    /// counts close to the published Table 1 scales (see DESIGN.md §8).
    pub numeric_decimals: usize,
    /// Optional cap on distinct-value cell nodes per attribute, applied as
    /// a frequency cutoff: only the most frequent values keep their nodes
    /// (ties broken by first occurrence, so the result is deterministic).
    /// Capped-out values contribute no edges and stop being imputation
    /// candidates — the memory-budget downscaling ladder sets this under
    /// pressure. `None` keeps every distinct value (the paper's graph).
    pub max_cells_per_column: Option<usize>,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            numeric_decimals: 4,
            max_cells_per_column: None,
        }
    }
}

/// Why [`TableGraph::append_rows`] refused to apply a delta. Both cases
/// mean "rebuild from scratch instead"; neither leaves the graph modified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphAppendError {
    /// The graph was built with a `max_cells_per_column` frequency cutoff;
    /// appended rows shift the cutoff, so delta/scratch identity cannot be
    /// guaranteed.
    CappedGraph,
    /// The concatenated table does not extend this graph's table (fewer
    /// rows, or a different column count).
    ShapeMismatch {
        /// Rows the graph was built over.
        graph_rows: usize,
        /// Columns the graph was built over.
        graph_cols: usize,
        /// Rows of the offered table.
        table_rows: usize,
        /// Columns of the offered table.
        table_cols: usize,
    },
}

impl std::fmt::Display for GraphAppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphAppendError::CappedGraph => {
                write!(f, "cannot append rows to a value-node-capped graph")
            }
            GraphAppendError::ShapeMismatch {
                graph_rows,
                graph_cols,
                table_rows,
                table_cols,
            } => write!(
                f,
                "table {table_rows}x{table_cols} does not extend the \
                 graph's {graph_rows}x{graph_cols} table"
            ),
        }
    }
}

impl std::error::Error for GraphAppendError {}

/// One typed edge list: pairs `(rid_node, cell_node)` of one attribute.
#[derive(Clone, Debug, Default)]
pub struct TypedEdges {
    /// `(rid node id, cell node id)` pairs.
    pub pairs: Vec<(u32, u32)>,
}

/// The heterogeneous table graph.
#[derive(Clone, Debug)]
pub struct TableGraph {
    n_rows: usize,
    n_cols: usize,
    labels: Vec<NodeLabel>,
    /// Per column: canonical value text → cell node id.
    cell_index: Vec<HashMap<String, u32>>,
    /// Per column: the typed edge list.
    edges: Vec<TypedEdges>,
    /// Row-major (`row * n_cols + col`) cell node of every table cell,
    /// [`NO_NODE`] for `∅` and capped-out values. Excluded cells keep
    /// their node: they lose only their edge.
    node_map: Vec<u32>,
    config: GraphConfig,
}

/// Canonical text key of a non-null value.
pub fn value_key(table: &Table, row: usize, col: usize, decimals: usize) -> Option<String> {
    match table.get(row, col) {
        Value::Null => None,
        Value::Cat(_) => Some(table.display(row, col)),
        Value::Num(v) => Some(format_rounded(v, decimals)),
    }
}

/// Round-and-format a numerical value the way cell-node keys do.
pub fn format_rounded(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// One column's non-null cells over a row range, resolved to column-local
/// ids numbered in first-seen order of their canonical keys.
struct ResolvedColumn {
    /// Canonical key of each local id.
    keys: Vec<String>,
    /// Local id of each row of the range, [`NO_NODE`] for `∅`.
    local: Vec<u32>,
}

/// Resolve `rows` of `column` to local ids. A cache keyed by dictionary
/// code (categorical) or by `f64::to_bits` (numerical) forms each canonical
/// key once per distinct code or bit pattern, not once per cell; the
/// `String` index then merges codes or bit patterns whose keys coincide
/// (`1.00001` and `1.00002` at 4 decimals, `-0.0` and `-0.00001`), so
/// the ids are those of a per-cell string-keyed scan.
fn resolve_column(column: &Column, rows: Range<usize>, decimals: usize) -> ResolvedColumn {
    let mut keys: Vec<String> = Vec::new();
    let mut by_key: HashMap<String, u32> = HashMap::new();
    let mut intern = |key: String| -> u32 {
        *by_key.entry(key).or_insert_with_key(|key| {
            keys.push(key.clone());
            (keys.len() - 1) as u32
        })
    };
    let local = match column {
        Column::Categorical { dict, codes } => {
            let mut by_code = vec![NO_NODE; dict.len()];
            codes[rows]
                .iter()
                .map(|code| match *code {
                    None => NO_NODE,
                    Some(code) => {
                        let slot = &mut by_code[code as usize];
                        if *slot == NO_NODE {
                            *slot = intern(dict[code as usize].clone());
                        }
                        *slot
                    }
                })
                .collect()
        }
        Column::Numerical { values } => {
            let mut by_bits: HashMap<u64, u32> = HashMap::new();
            values[rows]
                .iter()
                .map(|value| match *value {
                    None => NO_NODE,
                    Some(v) => *by_bits
                        .entry(v.to_bits())
                        .or_insert_with(|| intern(format_rounded(v, decimals))),
                })
                .collect()
        }
    };
    ResolvedColumn { keys, local }
}

/// Row-major bitmap of the excluded cells of a row range. Cells outside
/// the range or the column count are ignored.
struct CellMask {
    rows: Range<usize>,
    n_cols: usize,
    words: Vec<u64>,
}

impl CellMask {
    fn new(rows: Range<usize>, n_cols: usize, cells: &[(usize, usize)]) -> Self {
        let mut words = vec![0u64; (rows.len() * n_cols).div_ceil(64)];
        for &(row, col) in cells {
            if rows.contains(&row) && col < n_cols {
                let bit = (row - rows.start) * n_cols + col;
                words[bit / 64] |= 1 << (bit % 64);
            }
        }
        CellMask {
            rows,
            n_cols,
            words,
        }
    }

    fn contains(&self, row: usize, col: usize) -> bool {
        let bit = (row - self.rows.start) * self.n_cols + col;
        self.words[bit / 64] & (1 << (bit % 64)) != 0
    }
}

impl TableGraph {
    /// Build the graph from a dirty table, excluding the given cells (in
    /// addition to `∅` cells, which never produce edges).
    ///
    /// One pass per column over the table's columnar storage resolves every
    /// cell to its node ([`resolve_column`]), so a canonical key is
    /// formatted once per distinct dictionary code or float bit pattern.
    pub fn build(table: &Table, config: GraphConfig, excluded: &[(usize, usize)]) -> Self {
        let n_rows = table.n_rows();
        let n_cols = table.n_columns();
        let excluded = CellMask::new(0..n_rows, n_cols, excluded);
        let mut labels: Vec<NodeLabel> = (0..n_rows).map(|i| NodeLabel::Rid(i as u32)).collect();
        let mut cell_index: Vec<HashMap<String, u32>> = Vec::with_capacity(n_cols);
        let mut edges: Vec<TypedEdges> = Vec::with_capacity(n_cols);
        let mut node_map = vec![NO_NODE; n_rows * n_cols];

        for col in 0..n_cols {
            let ResolvedColumn { keys, local } =
                resolve_column(table.column(col), 0..n_rows, config.numeric_decimals);
            // Every value in the attribute domain gets a node, even if all
            // its occurrences are excluded — imputation candidates must
            // exist as nodes so they can be scored. Under a cell-node cap
            // only the most frequent values survive (frequency cutoff, ties
            // by first occurrence); node ids still follow first-seen order,
            // so an uncapped build is bit-identical to the historical layout.
            let kept: Vec<bool> = match config.max_cells_per_column {
                Some(cap) if keys.len() > cap => {
                    let mut counts = vec![0usize; keys.len()];
                    for &l in local.iter().filter(|&&l| l != NO_NODE) {
                        counts[l as usize] += 1;
                    }
                    let mut ranked: Vec<usize> = (0..keys.len()).collect();
                    ranked.sort_by_key(|&i| (std::cmp::Reverse(counts[i]), i));
                    let mut kept = vec![false; keys.len()];
                    for &i in &ranked[..cap] {
                        kept[i] = true;
                    }
                    kept
                }
                _ => vec![true; keys.len()],
            };
            let mut index = HashMap::with_capacity(keys.len());
            let mut node_of_local = vec![NO_NODE; keys.len()];
            for ((key, keep), node) in keys.into_iter().zip(kept).zip(&mut node_of_local) {
                if keep {
                    *node = labels.len() as u32;
                    labels.push(NodeLabel::Cell {
                        col: col as u32,
                        text: key.clone(),
                    });
                    index.insert(key, *node);
                }
            }
            // Then the node map and the typed edges of non-excluded cells.
            // Values capped out of the node set contribute neither.
            let mut pairs = Vec::new();
            for (row, &l) in local.iter().enumerate() {
                if l == NO_NODE || node_of_local[l as usize] == NO_NODE {
                    continue;
                }
                let node = node_of_local[l as usize];
                node_map[row * n_cols + col] = node;
                if !excluded.contains(row, col) {
                    pairs.push((row as u32, node));
                }
            }
            cell_index.push(index);
            edges.push(TypedEdges { pairs });
        }
        TableGraph {
            n_rows,
            n_cols,
            labels,
            cell_index,
            edges,
            node_map,
            config,
        }
    }

    /// [`TableGraph::build`] wrapped in a [`grimp_obs::names::GRAPH_BUILD`]
    /// span, also emitting node/edge counters into the trace.
    pub fn build_traced(
        table: &Table,
        config: GraphConfig,
        excluded: &[(usize, usize)],
        trace: &mut grimp_obs::Trace<'_>,
    ) -> Self {
        use grimp_obs::names;
        let span = trace.enter(names::GRAPH_BUILD, 0);
        let graph = Self::build(table, config, excluded);
        trace.counter(names::GRAPH_NODES, 0, graph.n_nodes() as u64);
        trace.counter(names::GRAPH_EDGES, 0, graph.n_edges() as u64);
        trace.exit(names::GRAPH_BUILD, 0, span);
        graph
    }

    /// Append the trailing rows of `concat` (everything past this graph's
    /// current row count) as a graph delta: new RID nodes, value-node
    /// dictionary growth for first-seen values, and CSR segment append of
    /// the new rows' edges — without rescanning the base rows.
    ///
    /// `concat` must be the base table this graph was built from with the
    /// new rows pushed after it (same columns, same leading rows). The
    /// result is **bit-identical** to a from-scratch [`TableGraph::build`]
    /// of `concat`: a from-scratch build numbers all `n + k` RIDs first and
    /// then every column's cells in first-seen order, so the delta renumbers
    /// the existing cell nodes (RID ids are unchanged) — old cell node `v`
    /// of column `c` shifts by `k + Σ_{c' < c} new_count[c']` — and slots
    /// each column's newly seen values behind its old ones. Edge lists keep
    /// their per-column row-major order with remapped cell ids, then the
    /// appended rows' edges follow.
    ///
    /// `excluded` lists `(row, col)` cells (in `concat` coordinates) that
    /// must not contribute edges; entries for base rows are ignored (the
    /// base build already handled its own exclusions).
    ///
    /// # Errors
    /// [`GraphAppendError::CappedGraph`] when the graph was built with a
    /// `max_cells_per_column` cap — appended rows change the frequency
    /// cutoff, so a capped graph cannot guarantee delta/scratch identity
    /// and the caller must rebuild instead.
    /// [`GraphAppendError::ShapeMismatch`] when `concat` has fewer rows or
    /// a different column count than the graph.
    pub fn append_rows(
        &mut self,
        concat: &Table,
        excluded: &[(usize, usize)],
    ) -> Result<(), GraphAppendError> {
        if self.config.max_cells_per_column.is_some() {
            return Err(GraphAppendError::CappedGraph);
        }
        if concat.n_rows() < self.n_rows || concat.n_columns() != self.n_cols {
            return Err(GraphAppendError::ShapeMismatch {
                graph_rows: self.n_rows,
                graph_cols: self.n_cols,
                table_rows: concat.n_rows(),
                table_cols: concat.n_columns(),
            });
        }
        let base_rows = self.n_rows;
        let k = concat.n_rows() - base_rows;
        if k == 0 {
            return Ok(());
        }
        let n_cols = self.n_cols;
        let rows = base_rows..concat.n_rows();
        let excluded = CellMask::new(rows.clone(), n_cols, excluded);

        // Resolve each column's appended cells. Keys missing from the index
        // are the column's newly seen values, in appended-row first-seen
        // order — the order a from-scratch build would first see them in.
        let resolved: Vec<ResolvedColumn> = (0..n_cols)
            .map(|col| {
                resolve_column(
                    concat.column(col),
                    rows.clone(),
                    self.config.numeric_decimals,
                )
            })
            .collect();
        let new_keys: Vec<Vec<&String>> = resolved
            .iter()
            .zip(&self.cell_index)
            .map(|(r, index)| r.keys.iter().filter(|k| !index.contains_key(*k)).collect())
            .collect();

        // Per-column shift of the existing cell ids: the k new RIDs push
        // every cell node back, and each earlier column's new values push
        // later columns back further.
        let mut shifts: Vec<u32> = Vec::with_capacity(n_cols);
        let mut acc = k as u32;
        for keys in &new_keys {
            shifts.push(acc);
            acc += keys.len() as u32;
        }

        // Rebuild the label vector in from-scratch order: all RIDs, then
        // per column its old cells followed by its new ones.
        let old_labels = std::mem::take(&mut self.labels);
        let total = old_labels.len() + k + new_keys.iter().map(Vec::len).sum::<usize>();
        self.labels = Vec::with_capacity(total);
        self.labels
            .extend((0..concat.n_rows()).map(|i| NodeLabel::Rid(i as u32)));
        let mut old_cells = old_labels.into_iter().skip(base_rows);
        for (col, keys) in new_keys.iter().enumerate() {
            for _ in 0..self.cell_index[col].len() {
                self.labels
                    .push(old_cells.next().expect("old cell label present"));
            }
            for &key in keys {
                self.labels.push(NodeLabel::Cell {
                    col: col as u32,
                    text: key.clone(),
                });
            }
        }

        // Remap the value index, the existing edges and the base rows'
        // node map (RID ids are unchanged; only cell ids shift), then
        // register the new values.
        let mut next_new_id: Vec<u32> = Vec::with_capacity(n_cols);
        {
            let mut base = concat.n_rows() as u32;
            for (col, keys) in new_keys.iter().enumerate() {
                base += self.cell_index[col].len() as u32;
                next_new_id.push(base);
                base += keys.len() as u32;
            }
        }
        for (col, index) in self.cell_index.iter_mut().enumerate() {
            for id in index.values_mut() {
                *id += shifts[col];
            }
            for (j, &key) in new_keys[col].iter().enumerate() {
                index.insert(key.clone(), next_new_id[col] + j as u32);
            }
        }
        for (col, e) in self.edges.iter_mut().enumerate() {
            for (_, cell) in e.pairs.iter_mut() {
                *cell += shifts[col];
            }
        }
        for row in self.node_map.chunks_exact_mut(n_cols.max(1)) {
            for (node, shift) in row.iter_mut().zip(&shifts) {
                if *node != NO_NODE {
                    *node += shift;
                }
            }
        }

        // CSR segment append: the new rows' nodes and edges, each column's
        // edges in the row order the from-scratch edge pass would emit.
        self.node_map.resize(concat.n_rows() * n_cols, NO_NODE);
        for (col, r) in resolved.iter().enumerate() {
            let node_of_local: Vec<u32> = r
                .keys
                .iter()
                .map(|key| self.cell_index[col][key.as_str()])
                .collect();
            for (row, &l) in rows.clone().zip(&r.local) {
                if l == NO_NODE {
                    continue;
                }
                let node = node_of_local[l as usize];
                self.node_map[row * n_cols + col] = node;
                if !excluded.contains(row, col) {
                    self.edges[col].pairs.push((row as u32, node));
                }
            }
        }
        self.n_rows = concat.n_rows();
        Ok(())
    }

    /// Total node count (RID + cell nodes).
    pub fn n_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Number of RID nodes (= table rows). RID node ids are `0..n_rids()`.
    pub fn n_rids(&self) -> usize {
        self.n_rows
    }

    /// The readout set of the task heads: every cell node, as the
    /// contiguous id range `n_rids()..n_nodes()`. Training and imputation
    /// vectors are built from cell-node embeddings only (§3.3), so the GNN
    /// needs its last layer only on these rows. Every build numbers all
    /// RIDs first and [`TableGraph::append_rows`] renumbers to keep that
    /// layout; the boundary is checked here.
    pub fn readout_range(&self) -> std::ops::Range<usize> {
        let n = self.n_nodes();
        assert!(
            (self.n_rows == 0 || matches!(self.labels[self.n_rows - 1], NodeLabel::Rid(_)))
                && (self.n_rows == n || matches!(self.labels[self.n_rows], NodeLabel::Cell { .. })),
            "node layout must be RIDs first, then cells"
        );
        self.n_rows..n
    }

    /// Number of attributes (= edge types).
    pub fn n_edge_types(&self) -> usize {
        self.n_cols
    }

    /// Total number of typed edges.
    pub fn n_edges(&self) -> usize {
        self.edges.iter().map(|e| e.pairs.len()).sum()
    }

    /// Node label.
    pub fn label(&self, node: usize) -> &NodeLabel {
        &self.labels[node]
    }

    /// The cell node of a canonical value text within a column, if any.
    pub fn cell_node(&self, col: usize, key: &str) -> Option<u32> {
        self.cell_index[col].get(key).copied()
    }

    /// The cell node of table cell `(row, col)` of the table the graph was
    /// built over (or grown to by [`TableGraph::append_rows`]): `None` for
    /// `∅` and for values capped out of the node set. Excluded cells keep
    /// their node. A lookup reads the node map (4 B per cell); no key is
    /// formatted.
    pub fn node_at(&self, row: usize, col: usize) -> Option<u32> {
        assert!(col < self.n_cols, "column {col} out of range");
        let node = self.node_map[row * self.n_cols + col];
        (node != NO_NODE).then_some(node)
    }

    /// All cell nodes of one attribute with their canonical texts, in
    /// ascending node-id order. Deterministic ordering matters: consumers
    /// sum floats over this iterator and build sampling structures from it,
    /// so HashMap iteration order must not leak out.
    pub fn column_cells(&self, col: usize) -> impl Iterator<Item = (&str, u32)> {
        let mut cells: Vec<(&str, u32)> = self.cell_index[col]
            .iter()
            .map(|(k, &v)| (k.as_str(), v))
            .collect();
        cells.sort_unstable_by_key(|&(_, v)| v);
        cells.into_iter()
    }

    /// Number of distinct cell nodes of an attribute.
    pub fn n_column_cells(&self, col: usize) -> usize {
        self.cell_index[col].len()
    }

    /// Typed edge list of one attribute.
    pub fn edges_of(&self, col: usize) -> &TypedEdges {
        &self.edges[col]
    }

    /// The construction config.
    pub fn config(&self) -> GraphConfig {
        self.config
    }

    /// Symmetric per-type neighbor lists over all nodes: entry `t` maps every
    /// node to its neighbors through edges of type `t` (RID → cells of
    /// column `t`; cell of column `t` → RIDs). The GNN turns these into CSR
    /// adjacencies.
    pub fn neighbor_lists(&self) -> Vec<Vec<Vec<u32>>> {
        let n = self.n_nodes();
        let mut per_type: Vec<Vec<Vec<u32>>> = Vec::with_capacity(self.n_cols);
        for t in 0..self.n_cols {
            let mut lists = vec![Vec::new(); n];
            for &(rid, cell) in &self.edges[t].pairs {
                lists[rid as usize].push(cell);
                lists[cell as usize].push(rid);
            }
            per_type.push(lists);
        }
        per_type
    }

    /// Per-type CSR adjacencies over all nodes — the packed form of
    /// [`TableGraph::neighbor_lists`] (same symmetric edges, same
    /// deterministic per-node neighbor order). The neighbor sampler reads
    /// these instead of the nested lists so each epoch's resampling is a
    /// cache-friendly linear scan.
    pub fn csr_adjacency(&self) -> Vec<TypeCsr> {
        let n = self.n_nodes();
        self.edges
            .iter()
            .map(|e| {
                let mut offsets = vec![0u32; n + 1];
                for &(rid, cell) in &e.pairs {
                    offsets[rid as usize + 1] += 1;
                    offsets[cell as usize + 1] += 1;
                }
                for i in 0..n {
                    offsets[i + 1] += offsets[i];
                }
                let mut neighbors = vec![0u32; offsets[n] as usize];
                let mut cursor = offsets.clone();
                for &(rid, cell) in &e.pairs {
                    neighbors[cursor[rid as usize] as usize] = cell;
                    cursor[rid as usize] += 1;
                    neighbors[cursor[cell as usize] as usize] = rid;
                    cursor[cell as usize] += 1;
                }
                TypeCsr { offsets, neighbors }
            })
            .collect()
    }
}

/// Compressed-sparse-row adjacency of one edge type, symmetric like
/// [`TableGraph::neighbor_lists`]: RID nodes point at the column's cell
/// nodes and vice versa.
#[derive(Clone, Debug)]
pub struct TypeCsr {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors` for node `v`.
    offsets: Vec<u32>,
    /// Concatenated neighbor ids, per-node order matching the edge list.
    neighbors: Vec<u32>,
}

impl TypeCsr {
    /// The raw `(offsets, neighbors)` arrays, ready for a CSR consumer
    /// such as `grimp_tensor::Adjacency::from_raw`.
    pub fn into_raw(self) -> (Vec<u32>, Vec<u32>) {
        (self.offsets, self.neighbors)
    }

    /// Number of nodes covered.
    pub fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Degree of `node` through this edge type.
    pub fn degree(&self, node: usize) -> usize {
        (self.offsets[node + 1] - self.offsets[node]) as usize
    }

    /// The neighbors of `node` through this edge type.
    pub fn neighbors_of(&self, node: usize) -> &[u32] {
        &self.neighbors[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }
}

/// SplitMix64 — the statelessly seedable mixer the sampler derives its
/// per-(epoch, type, node) streams from. Deliberately independent of the
/// training RNG so enabling sampling cannot shift the main draw order.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic per-epoch neighbor sampler over [`TypeCsr`] edge sets.
///
/// Every node's neighborhood of one edge type is capped at `fanout` via
/// reservoir sampling (uniform without replacement). The random stream of a
/// node is derived purely from `(seed, epoch, type, node)` with SplitMix64,
/// so the sample is:
///
/// - **reproducible** — same seed + epoch ⇒ bit-identical lists, on any
///   backend and at any thread count;
/// - **epoch-indexed** — consecutive epochs see different neighborhoods,
///   which is what makes the expectation over epochs cover every edge;
/// - **isolated** — no draws are taken from the training RNG, so full-batch
///   runs are unaffected by the sampler's existence;
/// - **local** — one node's draw does not depend on any other node's, so
///   [`NeighborSampler::sample_node`] can draw just the message-flow
///   frontier of a readout set and get exactly the lists
///   [`NeighborSampler::sample_epoch`] would give those nodes.
///
/// [`NeighborSampler::sample_epoch`] fills per-type lists for every node,
/// shaped like [`TableGraph::neighbor_lists`]. Its output buffers are
/// allocated on the first call (capacity `min(degree, fanout)` per node,
/// invariant across epochs) and refilled in place afterwards.
#[derive(Clone, Debug)]
pub struct NeighborSampler {
    seed: u64,
    fanout: usize,
    csr: Vec<TypeCsr>,
    lists: Vec<Vec<Vec<u32>>>,
}

/// Append the `(seed, epoch, t, v)` sample of `v`'s type-`t` neighborhood.
fn sample_into(
    csr: &TypeCsr,
    seed: u64,
    fanout: usize,
    epoch: u64,
    t: usize,
    v: usize,
    out: &mut Vec<u32>,
) {
    let neigh = csr.neighbors_of(v);
    if neigh.len() <= fanout {
        out.extend_from_slice(neigh);
        return;
    }
    // Reservoir sampling with a per-(seed, epoch, type, node) stream:
    // uniform without replacement and O(degree).
    let base = out.len();
    let mut state = seed;
    state = splitmix64(state ^ epoch);
    state = splitmix64(state ^ t as u64);
    state = splitmix64(state ^ v as u64);
    out.extend_from_slice(&neigh[..fanout]);
    for (i, &cand) in neigh.iter().enumerate().skip(fanout) {
        state = splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        if j < fanout {
            out[base + j] = cand;
        }
    }
}

impl NeighborSampler {
    /// Snapshot the graph's CSR edge sets. `fanout` must be positive.
    pub fn new(graph: &TableGraph, seed: u64, fanout: usize) -> Self {
        assert!(fanout > 0, "fanout must be positive");
        NeighborSampler {
            seed,
            fanout,
            csr: graph.csr_adjacency(),
            lists: Vec::new(),
        }
    }

    /// The fanout cap the sampler was built with.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Number of edge types.
    pub fn n_edge_types(&self) -> usize {
        self.csr.len()
    }

    /// Number of nodes covered.
    pub fn n_nodes(&self) -> usize {
        self.csr.first().map_or(0, TypeCsr::n_nodes)
    }

    /// Length of every sampled list of `v` through type `t`:
    /// `min(degree, fanout)`, whatever the epoch.
    pub fn sampled_degree(&self, t: usize, v: usize) -> usize {
        self.csr[t].degree(v).min(self.fanout)
    }

    /// Directed sampled edges per epoch over all nodes: the sum over
    /// `(node, type)` of `min(degree, fanout)`. Epoch-invariant.
    pub fn sampled_edges(&self) -> u64 {
        self.csr
            .iter()
            .map(|c| {
                (0..c.n_nodes())
                    .map(|v| c.degree(v).min(self.fanout) as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Append `v`'s sampled type-`t` neighbors for `epoch` to `out` —
    /// the same list [`NeighborSampler::sample_epoch`] gives `v`.
    pub fn sample_node(&self, epoch: u64, t: usize, v: usize, out: &mut Vec<u32>) {
        sample_into(&self.csr[t], self.seed, self.fanout, epoch, t, v, out);
    }

    /// Resample every node's neighborhood for `epoch`, refilling the
    /// internal buffers. Returns the total number of directed sampled
    /// edges (the sum of all list lengths).
    pub fn sample_epoch(&mut self, epoch: u64) -> u64 {
        if self.lists.is_empty() {
            let fanout = self.fanout;
            self.lists = self
                .csr
                .iter()
                .map(|c| {
                    (0..c.n_nodes())
                        .map(|v| Vec::with_capacity(c.degree(v).min(fanout)))
                        .collect()
                })
                .collect();
        }
        let mut total = 0u64;
        for (t, (csr, out)) in self.csr.iter().zip(&mut self.lists).enumerate() {
            for (v, list) in out.iter_mut().enumerate() {
                list.clear();
                sample_into(csr, self.seed, self.fanout, epoch, t, v, list);
                total += list.len() as u64;
            }
        }
        total
    }

    /// The sampled per-type neighbor lists of the last
    /// [`NeighborSampler::sample_epoch`] call, shaped like
    /// [`TableGraph::neighbor_lists`].
    pub fn lists(&self) -> &[Vec<Vec<u32>>] {
        &self.lists
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grimp_table::{ColumnKind, Schema};

    fn table() -> Table {
        let schema = Schema::from_pairs(&[
            ("country", ColumnKind::Categorical),
            ("year", ColumnKind::Numerical),
        ]);
        Table::from_rows(
            schema,
            &[
                vec![Some("FR"), Some("2015")],
                vec![Some("FR"), Some("2014")],
                vec![None, Some("2015")],
            ],
        )
    }

    #[test]
    fn node_layout_is_rids_then_cells() {
        let g = TableGraph::build(&table(), GraphConfig::default(), &[]);
        assert_eq!(g.n_rids(), 3);
        // cells: FR (country), 2015, 2014 (year)
        assert_eq!(g.n_nodes(), 3 + 1 + 2);
        assert_eq!(g.label(0), &NodeLabel::Rid(0));
        assert!(matches!(g.label(3), NodeLabel::Cell { .. }));
    }

    #[test]
    fn null_cells_contribute_no_edges() {
        let g = TableGraph::build(&table(), GraphConfig::default(), &[]);
        // country edges: rows 0, 1 only; year edges: rows 0, 1, 2.
        assert_eq!(g.edges_of(0).pairs.len(), 2);
        assert_eq!(g.edges_of(1).pairs.len(), 3);
        assert_eq!(g.n_edges(), 5);
    }

    #[test]
    fn same_value_in_two_columns_gets_two_nodes() {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
        ]);
        let t = Table::from_rows(schema, &[vec![Some("x"), Some("x")]]);
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        let na = g.cell_node(0, "x").unwrap();
        let nb = g.cell_node(1, "x").unwrap();
        assert_ne!(na, nb, "values must be disambiguated per attribute");
    }

    #[test]
    fn excluded_cells_keep_nodes_but_lose_edges() {
        let t = table();
        let g = TableGraph::build(&t, GraphConfig::default(), &[(0, 0), (1, 0)]);
        // FR node still exists (it is a candidate for imputation)…
        assert!(g.cell_node(0, "FR").is_some());
        // …but no country edges remain.
        assert_eq!(g.edges_of(0).pairs.len(), 0);
    }

    #[test]
    fn numeric_values_are_rounded_into_keys() {
        let schema = Schema::from_pairs(&[("x", ColumnKind::Numerical)]);
        let t = Table::from_rows(schema, &[vec![Some("1.00001")], vec![Some("1.00002")]]);
        let g = TableGraph::build(
            &t,
            GraphConfig {
                numeric_decimals: 4,
                ..GraphConfig::default()
            },
            &[],
        );
        // both round to "1.0000" → a single cell node
        assert_eq!(g.n_column_cells(0), 1);
        let g8 = TableGraph::build(
            &t,
            GraphConfig {
                numeric_decimals: 8,
                ..GraphConfig::default()
            },
            &[],
        );
        assert_eq!(g8.n_column_cells(0), 2);
    }

    /// 12 rows of column "v": value "a" ×6, "b" ×4, "c" ×1, "d" ×1
    /// (c before d), next to a low-cardinality anchor column.
    fn skewed_table() -> Table {
        let schema = Schema::from_pairs(&[
            ("v", ColumnKind::Categorical),
            ("k", ColumnKind::Categorical),
        ]);
        let vs = ["a", "a", "b", "a", "c", "b", "a", "d", "b", "a", "b", "a"];
        let mut t = Table::empty(schema);
        for (i, v) in vs.iter().enumerate() {
            let k = if i % 2 == 0 { "k0" } else { "k1" };
            t.push_str_row(&[Some(v), Some(k)]);
        }
        t
    }

    #[test]
    fn cell_node_cap_keeps_the_most_frequent_values() {
        let t = skewed_table();
        let cfg = GraphConfig {
            max_cells_per_column: Some(2),
            ..GraphConfig::default()
        };
        let g = TableGraph::build(&t, cfg, &[]);
        assert_eq!(g.n_column_cells(0), 2);
        assert!(g.cell_node(0, "a").is_some());
        assert!(g.cell_node(0, "b").is_some());
        assert!(g.cell_node(0, "c").is_none());
        assert!(g.cell_node(0, "d").is_none());
        // Columns under the cap are untouched.
        assert_eq!(g.n_column_cells(1), 2);
        // Capped-out cells resolve to no node and contribute no edges:
        // 10 "a"/"b" edges survive in column 0, all 12 in column 1.
        assert_eq!(g.node_at(4, 0), None);
        assert_eq!(g.edges_of(0).pairs.len(), 10);
        assert_eq!(g.edges_of(1).pairs.len(), 12);
    }

    #[test]
    fn cell_node_cap_breaks_frequency_ties_by_first_occurrence() {
        let t = skewed_table();
        let cfg = GraphConfig {
            max_cells_per_column: Some(3),
            ..GraphConfig::default()
        };
        let g = TableGraph::build(&t, cfg, &[]);
        // "c" and "d" both appear once; "c" appears first and wins slot 3.
        assert!(g.cell_node(0, "c").is_some());
        assert!(g.cell_node(0, "d").is_none());
    }

    #[test]
    fn uncapped_build_is_identical_to_a_generous_cap() {
        let t = skewed_table();
        let free = TableGraph::build(&t, GraphConfig::default(), &[]);
        let capped = TableGraph::build(
            &t,
            GraphConfig {
                max_cells_per_column: Some(100),
                ..GraphConfig::default()
            },
            &[],
        );
        assert_eq!(free.n_nodes(), capped.n_nodes());
        for n in 0..free.n_nodes() {
            assert_eq!(free.label(n), capped.label(n), "node {n}");
        }
        for c in 0..2 {
            assert_eq!(free.edges_of(c).pairs, capped.edges_of(c).pairs);
        }
    }

    #[test]
    fn neighbor_lists_are_symmetric() {
        let g = TableGraph::build(&table(), GraphConfig::default(), &[]);
        for lists in g.neighbor_lists() {
            for (node, neigh) in lists.iter().enumerate() {
                for &m in neigh {
                    assert!(
                        lists[m as usize].contains(&(node as u32)),
                        "edge {node} -> {m} missing its reverse"
                    );
                }
            }
        }
    }

    #[test]
    fn node_at_resolves_cell_values() {
        let g = TableGraph::build(&table(), GraphConfig::default(), &[(0, 0)]);
        // An excluded cell keeps its node; a null cell has none.
        assert_eq!(g.node_at(0, 0), g.cell_node(0, "FR"));
        assert_eq!(g.node_at(1, 0), g.cell_node(0, "FR"));
        assert_eq!(g.node_at(2, 0), None);
        assert_eq!(g.node_at(1, 1), g.cell_node(1, "2014.0000"));
    }

    fn assert_graphs_identical(a: &TableGraph, b: &TableGraph) {
        assert_eq!(a.n_nodes(), b.n_nodes());
        for n in 0..a.n_nodes() {
            assert_eq!(a.label(n), b.label(n), "node {n}");
        }
        assert_eq!(a.n_edge_types(), b.n_edge_types());
        for c in 0..a.n_edge_types() {
            assert_eq!(a.edges_of(c).pairs, b.edges_of(c).pairs, "column {c}");
        }
        assert_eq!(a.node_map, b.node_map);
    }

    /// Push `rows` onto a clone of `base` and return the concatenation.
    fn concat(base: &Table, rows: &[Vec<Option<&str>>]) -> Table {
        let mut t = base.clone();
        for row in rows {
            t.push_str_row(row);
        }
        t
    }

    #[test]
    fn append_rows_matches_from_scratch_build() {
        let base = table();
        let cat = concat(
            &base,
            &[
                vec![Some("IT"), Some("2015")], // new country, old year
                vec![Some("FR"), None],         // old country, null
                vec![Some("IT"), Some("1999")], // both new in their columns
            ],
        );
        let mut delta = TableGraph::build(&base, GraphConfig::default(), &[]);
        delta.append_rows(&cat, &[]).unwrap();
        let scratch = TableGraph::build(&cat, GraphConfig::default(), &[]);
        assert_graphs_identical(&scratch, &delta);
        assert_eq!(delta.n_rids(), 6);
        assert_eq!(delta.cell_node(0, "IT"), scratch.cell_node(0, "IT"));
    }

    #[test]
    fn append_rows_respects_appended_row_exclusions() {
        let base = table();
        let cat = concat(&base, &[vec![Some("IT"), Some("2015")]]);
        // Excluding a base cell is a no-op (already handled at base build);
        // excluding an appended cell drops its edge but keeps the node.
        let excluded = [(0, 0), (3, 0)];
        let mut delta = TableGraph::build(&base, GraphConfig::default(), &[]);
        delta.append_rows(&cat, &excluded).unwrap();
        let scratch = TableGraph::build(&cat, GraphConfig::default(), &[(3, 0)]);
        assert_graphs_identical(&scratch, &delta);
        assert!(delta.cell_node(0, "IT").is_some());
        assert!(!delta.edges_of(0).pairs.iter().any(|&(r, _)| r == 3));
    }

    #[test]
    fn append_rows_of_zero_rows_is_a_no_op() {
        let base = table();
        let mut delta = TableGraph::build(&base, GraphConfig::default(), &[]);
        delta.append_rows(&base, &[]).unwrap();
        let scratch = TableGraph::build(&base, GraphConfig::default(), &[]);
        assert_graphs_identical(&scratch, &delta);
    }

    #[test]
    fn append_rows_rejects_capped_and_mismatched_graphs() {
        let base = table();
        let cat = concat(&base, &[vec![Some("IT"), Some("2015")]]);
        let cfg = GraphConfig {
            max_cells_per_column: Some(2),
            ..GraphConfig::default()
        };
        let mut capped = TableGraph::build(&base, cfg, &[]);
        assert_eq!(
            capped.append_rows(&cat, &[]),
            Err(GraphAppendError::CappedGraph)
        );
        let mut g = TableGraph::build(&cat, GraphConfig::default(), &[]);
        assert!(matches!(
            g.append_rows(&base, &[]),
            Err(GraphAppendError::ShapeMismatch { .. })
        ));
        // A rejected append leaves the graph untouched.
        let scratch = TableGraph::build(&cat, GraphConfig::default(), &[]);
        assert_graphs_identical(&scratch, &g);
    }

    #[test]
    fn chained_appends_match_one_from_scratch_build() {
        let base = skewed_table();
        let step1 = {
            let mut t = base.clone();
            t.push_str_row(&[Some("e"), Some("k0")]);
            t.push_str_row(&[Some("a"), Some("k2")]);
            t
        };
        let step2 = {
            let mut t = step1.clone();
            t.push_str_row(&[None, Some("k2")]);
            t.push_str_row(&[Some("f"), None]);
            t
        };
        let mut delta = TableGraph::build(&base, GraphConfig::default(), &[]);
        delta.append_rows(&step1, &[]).unwrap();
        delta.append_rows(&step2, &[]).unwrap();
        let scratch = TableGraph::build(&step2, GraphConfig::default(), &[]);
        assert_graphs_identical(&scratch, &delta);
    }

    #[test]
    fn csr_adjacency_matches_neighbor_lists() {
        let g = TableGraph::build(&skewed_table(), GraphConfig::default(), &[]);
        let lists = g.neighbor_lists();
        let csr = g.csr_adjacency();
        assert_eq!(lists.len(), csr.len());
        for (t, type_csr) in csr.iter().enumerate() {
            assert_eq!(type_csr.n_nodes(), g.n_nodes());
            for (v, list) in lists[t].iter().enumerate() {
                assert_eq!(
                    type_csr.neighbors_of(v),
                    list.as_slice(),
                    "type {t} node {v}"
                );
                assert_eq!(type_csr.degree(v), list.len());
            }
        }
    }

    #[test]
    fn sampler_caps_fanout_and_subsets_the_true_neighborhood() {
        let g = TableGraph::build(&skewed_table(), GraphConfig::default(), &[]);
        let full = g.neighbor_lists();
        let fanout = 2;
        let mut s = NeighborSampler::new(&g, 7, fanout);
        let total = s.sample_epoch(0);
        let mut seen = 0u64;
        for (t, lists) in s.lists().iter().enumerate() {
            for (v, list) in lists.iter().enumerate() {
                assert!(list.len() <= fanout, "type {t} node {v} exceeds fanout");
                assert_eq!(list.len(), full[t][v].len().min(fanout));
                for &m in list {
                    assert!(full[t][v].contains(&m), "sampled edge not in graph");
                }
                // sampling without replacement: no duplicate neighbors
                // beyond what the true multiset already contains
                let mut sorted = list.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), list.len(), "duplicate sampled neighbor");
                seen += list.len() as u64;
            }
        }
        assert_eq!(total, seen);
    }

    #[test]
    fn sampler_is_deterministic_per_epoch_and_varies_across_epochs() {
        let g = TableGraph::build(&skewed_table(), GraphConfig::default(), &[]);
        let mut a = NeighborSampler::new(&g, 42, 2);
        let mut b = NeighborSampler::new(&g, 42, 2);
        a.sample_epoch(3);
        b.sample_epoch(3);
        assert_eq!(a.lists(), b.lists(), "same seed + epoch must agree");

        // replaying an epoch after sampling others reproduces it exactly
        let third: Vec<Vec<Vec<u32>>> = a.lists().to_vec();
        a.sample_epoch(4);
        a.sample_epoch(9);
        a.sample_epoch(3);
        assert_eq!(a.lists(), third.as_slice(), "epoch replay must be stable");

        // different epochs (or seeds) must not all collapse to one sample
        b.sample_epoch(4);
        assert_ne!(a.lists(), b.lists(), "epochs 3 and 4 sampled identically");
        let mut c = NeighborSampler::new(&g, 43, 2);
        c.sample_epoch(3);
        assert_ne!(a.lists(), c.lists(), "seeds 42 and 43 sampled identically");
    }

    #[test]
    fn sampler_keeps_small_neighborhoods_whole() {
        let g = TableGraph::build(&table(), GraphConfig::default(), &[]);
        let full = g.neighbor_lists();
        // fanout larger than any degree: the sample is the full graph
        let mut s = NeighborSampler::new(&g, 0, 64);
        let total = s.sample_epoch(0);
        assert_eq!(s.lists(), full.as_slice());
        assert_eq!(
            total,
            full.iter().flatten().map(|l| l.len() as u64).sum::<u64>()
        );
    }
}
