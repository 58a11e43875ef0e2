//! Differential tests of readout-restricted message passing: the block
//! forward over the readout rows must reproduce those rows of the all-node
//! forward, and backward through it must give the same parameter
//! gradients, for every operator assignment, layer count, neighborhood
//! (full or one sampled epoch) and kernel backend.

use std::rc::Rc;

use grimp_gnn::{GnnConfig, HeteroSage, OperatorAssignment};
use grimp_graph::{GraphConfig, NeighborSampler, TableGraph};
use grimp_table::{ColumnKind, Schema, Table};
use grimp_tensor::{BackendKind, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A table with shared values (hub cell nodes above the fanout), an
/// all-null column, an all-null row (an isolated RID), and one value whose
/// only occurrence is excluded (an isolated cell node).
fn graph() -> TableGraph {
    let schema = Schema::from_pairs(&[
        ("a", ColumnKind::Categorical),
        ("empty", ColumnKind::Categorical),
        ("b", ColumnKind::Categorical),
        ("x", ColumnKind::Numerical),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..14 {
        let a = format!("a{}", i % 3);
        let b = format!("b{}", i % 5);
        let x = format!("{}", (i % 4) as f64);
        t.push_str_row(&[Some(&a), None, Some(&b), Some(&x)]);
    }
    t.push_str_row(&[None, None, None, None]);
    t.push_str_row(&[Some("lonely"), None, Some("b0"), None]);
    // Row 15's "lonely" edge is excluded: its cell node keeps no edges.
    TableGraph::build(&t, GraphConfig::default(), &[(15, 0)])
}

/// Readout-row outputs and every parameter gradient of one run.
struct Run {
    out: Vec<f32>,
    grads: Vec<Vec<f32>>,
}

/// Forward, weighted-sum loss over the readout rows, backward.
fn run(
    g: &TableGraph,
    layers: usize,
    operator: OperatorAssignment,
    fanout: Option<usize>,
    backend: BackendKind,
    blocks: bool,
) -> Run {
    let mut rng = StdRng::seed_from_u64(11);
    let mut tape = Tape::new();
    tape.set_backend(backend);
    let cfg = GnnConfig {
        layers,
        hidden: 6,
        operator,
        ..Default::default()
    };
    let mut sage = HeteroSage::new(&mut tape, g, 5, cfg, &mut rng);
    tape.freeze();
    let readout = g.readout_range();
    let mut feat_rng = StdRng::seed_from_u64(3);
    let feats: Vec<f32> = (0..g.n_nodes() * 5)
        .map(|_| feat_rng.gen_range(-1.0f32..1.0))
        .collect();
    let x = tape.input(Tensor::from_vec(g.n_nodes(), 5, feats));
    let coef: Vec<f32> = (0..readout.len() * 6)
        .map(|_| feat_rng.gen_range(-1.0f32..1.0))
        .collect();
    let sampler = fanout.map(|f| NeighborSampler::new(g, 5, f));
    let h = if blocks {
        let b = match &sampler {
            Some(s) => sage.sampled_blocks(s, 2, readout.clone()),
            None => sage.readout_blocks(readout.clone()),
        };
        assert_eq!(b.n_out(), readout.len());
        sage.forward_blocks(&mut tape, x, &b)
    } else {
        if let Some(mut s) = sampler {
            s.sample_epoch(2);
            sage.rebind_lists(s.lists());
        }
        let all = sage.forward(&mut tape, x);
        let rows: Vec<u32> = readout.clone().map(|v| v as u32).collect();
        tape.gather_rows(all, Rc::new(rows))
    };
    let c = tape.input(Tensor::from_vec(readout.len(), 6, coef));
    let weighted = tape.mul_elem(h, c);
    let loss = tape.sum_all(weighted);
    tape.backward(loss);
    Run {
        out: tape.value(h).as_slice().to_vec(),
        grads: (0..tape.param_count())
            .map(|i| {
                tape.grad(Var::from_index(i))
                    .map_or_else(Vec::new, |g| g.as_slice().to_vec())
            })
            .collect(),
    }
}

/// Agreement within 1e-6 relative to the tensor's largest magnitude: the
/// block pass sums the same terms, but a kernel may group them differently
/// when the row count changes.
fn assert_close(what: &str, a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    let scale = a.iter().chain(b).fold(0.0f32, |m, v| m.max(v.abs()));
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= 1e-6 * scale,
            "{what}[{i}]: {x} vs {y} (scale {scale})"
        );
    }
}

#[test]
fn block_forward_and_backward_match_the_all_node_pass() {
    let g = graph();
    for layers in [1, 2] {
        for operator in [
            OperatorAssignment::AllSage,
            OperatorAssignment::AllGcn,
            OperatorAssignment::Alternating,
        ] {
            for fanout in [None, Some(2)] {
                for backend in [BackendKind::Serial, BackendKind::Parallel { threads: 2 }] {
                    let case =
                        format!("{layers} layers, {operator:?}, fanout {fanout:?}, {backend:?}");
                    let all = run(&g, layers, operator, fanout, backend, false);
                    let block = run(&g, layers, operator, fanout, backend, true);
                    assert_close(&format!("{case}: output"), &all.out, &block.out);
                    assert!(all.out.iter().any(|&v| v != 0.0), "{case}: dead output");
                    assert_eq!(all.grads.len(), block.grads.len());
                    for (p, (ga, gb)) in all.grads.iter().zip(&block.grads).enumerate() {
                        assert_close(&format!("{case}: grad {p}"), ga, gb);
                    }
                }
            }
        }
    }
}

#[test]
fn sampled_blocks_keep_their_shapes_across_epochs() {
    // Frontier padding depends on the graph and the fanout only, so every
    // epoch's blocks have the same per-layer row counts.
    let g = graph();
    let mut rng = StdRng::seed_from_u64(1);
    let mut tape = Tape::new();
    let cfg = GnnConfig {
        layers: 3,
        hidden: 4,
        ..Default::default()
    };
    let sage = HeteroSage::new(&mut tape, &g, 5, cfg, &mut rng);
    let sampler = NeighborSampler::new(&g, 9, 1);
    let shape = sage
        .sampled_blocks(&sampler, 0, g.readout_range())
        .layer_rows();
    assert_eq!(*shape.last().unwrap(), g.readout_range().len());
    for epoch in 1..6 {
        let b = sage.sampled_blocks(&sampler, epoch, g.readout_range());
        assert_eq!(b.layer_rows(), shape, "epoch {epoch}");
    }
}

#[test]
fn all_node_readout_blocks_equal_the_plain_forward_bit_for_bit() {
    // Readout = every node is the degenerate case: no gathers, the bound
    // adjacency itself, and hence the very same floats.
    let g = graph();
    for operator in [OperatorAssignment::AllSage, OperatorAssignment::AllGcn] {
        let mut rng = StdRng::seed_from_u64(4);
        let mut tape = Tape::new();
        let cfg = GnnConfig {
            layers: 2,
            hidden: 4,
            operator,
            ..Default::default()
        };
        let sage = HeteroSage::new(&mut tape, &g, 3, cfg, &mut rng);
        tape.freeze();
        let x = tape.input(Tensor::full(g.n_nodes(), 3, 0.25));
        let a = sage.forward(&mut tape, x);
        let b = sage.forward_blocks(&mut tape, x, &sage.readout_blocks(0..g.n_nodes()));
        let bits = |v: Var, tape: &Tape| -> Vec<u32> {
            tape.value(v)
                .as_slice()
                .iter()
                .map(|f| f.to_bits())
                .collect()
        };
        assert_eq!(bits(a, &tape), bits(b, &tape), "{operator:?}");
    }
}

#[test]
fn graph_blocks_equal_rebinding_and_leave_the_binding_alone() {
    // An unseen graph's blocks hold what rebind(graph) would bind (the
    // neighbor-cap draw included) while the GNN keeps its own binding.
    // Every row of this graph has a value, so with two layers the first
    // layer computes every node and shares the all-node adjacency.
    let g = graph();
    let schema = Schema::from_pairs(&[
        ("a", ColumnKind::Categorical),
        ("empty", ColumnKind::Categorical),
        ("b", ColumnKind::Categorical),
        ("x", ColumnKind::Numerical),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..9 {
        let a = format!("a{}", i % 2);
        let b = format!("b{}", i % 4);
        t.push_str_row(&[Some(&a), None, Some(&b), (i % 3 == 0).then_some("1")]);
    }
    let unseen = TableGraph::build(&t, GraphConfig::default(), &[]);
    for layers in [1, 2] {
        for operator in [
            OperatorAssignment::AllSage,
            OperatorAssignment::AllGcn,
            OperatorAssignment::Alternating,
        ] {
            for neighbor_cap in [None, Some(2)] {
                let case = format!("{layers} layers, {operator:?}, cap {neighbor_cap:?}");
                let mut rng = StdRng::seed_from_u64(8);
                let mut tape = Tape::new();
                let cfg = GnnConfig {
                    layers,
                    hidden: 4,
                    neighbor_cap,
                    operator,
                };
                let mut sage = HeteroSage::new(&mut tape, &g, 3, cfg, &mut rng);
                tape.freeze();
                let mut bits = |sage: &HeteroSage, graph: &TableGraph, blocks| -> Vec<u32> {
                    let x = tape.input(Tensor::full(graph.n_nodes(), 3, 0.25));
                    let h = match blocks {
                        Some(b) => sage.forward_blocks(&mut tape, x, b),
                        None => sage.forward(&mut tape, x),
                    };
                    let out = tape
                        .value(h)
                        .as_slice()
                        .iter()
                        .map(|f| f.to_bits())
                        .collect();
                    tape.reset();
                    out
                };
                let bound = bits(&sage, &g, None);
                let readout = unseen.readout_range();
                let unbound = sage.graph_blocks(&unseen, readout.clone());
                let via_graph = bits(&sage, &unseen, Some(&unbound));
                assert_eq!(bits(&sage, &g, None), bound, "{case}: binding moved");
                sage.rebind(&unseen);
                let rebound = sage.readout_blocks(readout.clone());
                assert_eq!(unbound.layer_rows(), rebound.layer_rows(), "{case}");
                assert_eq!(via_graph, bits(&sage, &unseen, Some(&rebound)), "{case}");
                let all = bits(&sage, &unseen, None);
                let floats = |b: &[u32]| b.iter().map(|&u| f32::from_bits(u)).collect::<Vec<_>>();
                assert_close(
                    &case,
                    &floats(&all[readout.start * 4..readout.end * 4]),
                    &floats(&via_graph),
                );
            }
        }
    }
}
