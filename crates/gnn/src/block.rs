//! Message-flow blocks: the minibatch form of GraphSAGE (Hamilton et al.,
//! 2017) over a readout node set.
//!
//! The task heads read only the readout rows `R` of the GNN output (the
//! cell nodes, [`grimp_graph::TableGraph::readout_range`]). The last layer
//! therefore computes `D_L = R` only, and layer `l` computes
//! `D_l = D_{l+1} ∪ N(D_{l+1})` over the bound (full or sampled) per-type
//! neighborhoods. Layer 0 reads the node features by global id, so the
//! feature matrix is never copied; every later layer reads the previous
//! layer's output in that layer's local row order. A layer whose output
//! set is every node (layer 0 of a two-layer model over the cell nodes,
//! usually) shares the bound all-node adjacency instead of copying it.
//!
//! Each `D_l` is kept in ascending node-id order. Its rows are identical to
//! the all-node computation's rows for those nodes: the neighbor lists, and
//! with them every summation order, are the same ones.

use std::ops::Range;
use std::rc::Rc;

use grimp_tensor::Adjacency;

/// The per-type aggregation of one block: mean over the neighbor lists
/// (GraphSAGE) or the symmetric-normalized sum with self-loops (GCN).
#[derive(Clone, Debug)]
pub(crate) enum Agg {
    Mean(Rc<Adjacency>),
    Gcn(Rc<Adjacency>, Rc<Vec<f32>>),
}

/// One GNN layer's block: output rows, their neighbor lists in the
/// layer's input rows, and where the output nodes sit among the inputs.
#[derive(Clone, Debug)]
pub(crate) struct Block {
    /// Output rows (padded frontier rows included).
    pub(crate) rows: usize,
    /// Input row of every output row's own node (the self term), or `None`
    /// when input and output rows are the same nodes in the same order.
    pub(crate) self_rows: Option<Rc<Vec<u32>>>,
    /// One aggregation per edge type.
    pub(crate) aggs: Vec<Agg>,
}

/// Per-layer blocks of one readout set. Built by
/// [`crate::HeteroSage::readout_blocks`] (bound neighborhoods) or
/// [`crate::HeteroSage::sampled_blocks`] (one epoch's sampled frontier) and
/// consumed by [`crate::HeteroSage::forward_blocks`].
#[derive(Clone, Debug)]
pub struct Blocks {
    pub(crate) layers: Vec<Block>,
    pub(crate) n_out: usize,
}

impl Blocks {
    /// Rows of the GNN output: the readout nodes in ascending id order.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Output rows of every layer, first layer first (padded sizes in
    /// sampled mode). The last entry is [`Blocks::n_out`].
    pub fn layer_rows(&self) -> Vec<usize> {
        self.layers.iter().map(|b| b.rows).collect()
    }
}

/// `1/sqrt((d_i+1)(d_j+1))`: the GCN edge weight between nodes of bound
/// degree `di` and `dj`.
pub(crate) fn gcn_weight(di: usize, dj: usize) -> f32 {
    1.0 / (((di + 1) * (dj + 1)) as f32).sqrt()
}

/// Where a block's neighborhoods come from.
pub(crate) struct Hood<'a> {
    pub(crate) n_nodes: usize,
    pub(crate) n_types: usize,
    /// Append node `v`'s type-`t` neighbors (global ids) to the buffer.
    pub(crate) fill: &'a mut dyn FnMut(usize, usize, &mut Vec<u32>),
    /// Length of node `v`'s type-`t` neighbor list (GCN normalisation).
    pub(crate) degree: &'a dyn Fn(usize, usize) -> usize,
    /// Type `t`'s aggregation over every node, when the neighborhoods are
    /// bound ones: a layer that computes every node shares it instead of
    /// copying its lists.
    pub(crate) whole: Option<&'a dyn Fn(usize) -> Agg>,
}

/// Build the blocks of `readout` over `hood` for `n_layers` layers.
/// `is_gcn(t)` picks each type's operator. `caps[l]` (for `1 <= l <
/// n_layers`) pads `D_l` to a fixed row count, so the tensor shapes do not
/// depend on which neighbors were drawn; `0` means no padding. Padded rows
/// have no neighbors and are never read.
pub(crate) fn build_blocks(
    hood: Hood<'_>,
    readout: Range<usize>,
    n_layers: usize,
    is_gcn: &dyn Fn(usize) -> bool,
    caps: &[usize],
) -> Blocks {
    let Hood {
        n_nodes,
        n_types,
        fill,
        degree,
        whole,
    } = hood;
    assert!(readout.end <= n_nodes, "readout beyond the graph");
    let to_u32 = |v: usize| u32::try_from(v).expect("node id fits u32");
    // Real (unpadded) output nodes of the current layer, ascending.
    let mut dst: Vec<u32> = readout.clone().map(to_u32).collect();
    let mut n_dst = dst.len();
    let mut layers = Vec::with_capacity(n_layers);
    for l in (0..n_layers).rev() {
        if let (true, Some(whole)) = (dst.len() == n_nodes, whole) {
            // Every node from every node: the bound all-node aggregation,
            // and every earlier layer computes every node too.
            layers.push(Block {
                rows: n_nodes,
                self_rows: None,
                aggs: (0..n_types).map(whole).collect(),
            });
            continue;
        }
        // Per-type neighbor lists of the real output nodes, global ids.
        let lists: Vec<(Vec<u32>, Vec<u32>)> = (0..n_types)
            .map(|t| {
                let mut offsets = Vec::with_capacity(n_dst + 1);
                let mut targets = Vec::new();
                offsets.push(0u32);
                for &v in &dst {
                    fill(t, v as usize, &mut targets);
                    offsets.push(to_u32(targets.len()));
                }
                offsets.resize(n_dst + 1, to_u32(targets.len()));
                (offsets, targets)
            })
            .collect();
        // Layer 0 reads the features by global id; later layers read the
        // previous layer's output rows `D_l`, ascending.
        let src: Option<Vec<u32>> = (l > 0).then(|| {
            let mut s = dst.clone();
            for (_, targets) in &lists {
                s.extend_from_slice(targets);
            }
            s.sort_unstable();
            s.dedup();
            s
        });
        let n_src = match &src {
            None => n_nodes,
            Some(s) => {
                let cap = caps.get(l).copied().unwrap_or(0);
                assert!(s.len() <= cap || cap == 0, "frontier exceeds its padding");
                s.len().max(cap)
            }
        };
        // Global ids are the input rows unless the inputs are a proper
        // subset of the nodes.
        let index = src.as_deref().filter(|s| s.len() < n_nodes);
        let local = |g: u32| -> u32 {
            match index {
                None => g,
                Some(s) => to_u32(s.binary_search(&g).expect("neighbor inside the frontier")),
            }
        };
        let mut self_pos: Vec<u32> = dst.iter().map(|&v| local(v)).collect();
        self_pos.resize(n_dst, 0);
        let identity = n_dst == n_src && self_pos.iter().enumerate().all(|(i, &p)| p as usize == i);
        let aggs = lists
            .into_iter()
            .enumerate()
            .map(|(t, (offsets, targets))| {
                if !is_gcn(t) {
                    let targets = targets.into_iter().map(local).collect();
                    return Agg::Mean(Rc::new(Adjacency::from_raw(offsets, targets)));
                }
                // GCN: each row's neighbors, then its self-loop, as in the
                // all-node normalisation.
                let mut gcn_offsets = Vec::with_capacity(n_dst + 1);
                let mut gcn_targets = Vec::with_capacity(targets.len() + dst.len());
                let mut weights = Vec::with_capacity(targets.len() + dst.len());
                gcn_offsets.push(0u32);
                for (i, &v) in dst.iter().enumerate() {
                    let di = degree(t, v as usize);
                    let row = &targets[offsets[i] as usize..offsets[i + 1] as usize];
                    for &u in row.iter().chain(std::iter::once(&v)) {
                        gcn_targets.push(local(u));
                        weights.push(gcn_weight(di, degree(t, u as usize)));
                    }
                    gcn_offsets.push(to_u32(gcn_targets.len()));
                }
                gcn_offsets.resize(n_dst + 1, to_u32(gcn_targets.len()));
                Agg::Gcn(
                    Rc::new(Adjacency::from_raw(gcn_offsets, gcn_targets)),
                    Rc::new(weights),
                )
            })
            .collect();
        layers.push(Block {
            rows: n_dst,
            self_rows: (!identity).then(|| Rc::new(self_pos)),
            aggs,
        });
        if let Some(s) = src {
            dst = s;
            n_dst = n_src;
        }
    }
    layers.reverse();
    Blocks {
        layers,
        n_out: readout.len(),
    }
}
