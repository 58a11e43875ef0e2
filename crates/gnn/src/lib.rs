//! # grimp-gnn
//!
//! Heterogeneous GraphSAGE message passing over the GRIMP table graph
//! (paper §3.4–3.5, Eq. 1): one mean-aggregator sub-module per
//! (layer, attribute) pair, summed across edge types (`γ`) and passed
//! through ReLU (`σ`). The `W_self` term realizes the paper's self-loops.
//! Message passing runs over per-layer [`Blocks`] of a readout node set, so
//! only the rows the task heads read (and their receptive field) are
//! computed.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod block;
pub mod sage;

pub use block::Blocks;
pub use sage::{GnnConfig, HeteroSage, OperatorAssignment};
