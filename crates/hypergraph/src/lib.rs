//! # shp-hypergraph
//!
//! Data structures and quality metrics for hypergraph partitioning, shared by every other
//! crate in the Social Hash Partitioner (SHP) workspace.
//!
//! The SHP paper (Kabiljo et al., VLDB 2017) models the storage-sharding problem as a
//! *bipartite graph* `G = (Q ∪ D, E)` whose left side `Q` holds *query* vertices (one per
//! hyperedge) and whose right side `D` holds *data* vertices. Partitioning the data vertices
//! into `k` balanced buckets while minimizing the average *fanout* of the queries is exactly
//! balanced k-way hypergraph partitioning under the communication-volume / (k−1)-cut metric.
//!
//! This crate provides:
//!
//! * [`BipartiteGraph`] — a compressed sparse row (CSR) representation with adjacency in both
//!   directions (query → data and data → query), built through [`GraphBuilder`].
//! * [`Partition`] — an assignment of data vertices to buckets with balance bookkeeping.
//! * [`metrics`] — fanout, probabilistic fanout, hyperedge cut, sum of external degrees,
//!   weighted edge cut of the clique-net graph, and imbalance.
//! * [`clique`] — construction of the clique-net (weighted unipartite) graph of Lemma 2.
//! * [`io`] — readers/writers for the bipartite edge list, hMetis, and `.shpb` compact
//!   binary graph formats plus partition files, with zero-copy parallel text parsing and
//!   format autodetection.
//! * [`stats`] — dataset statistics as reported in Table 1 of the paper.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bipartite;
pub mod builder;
pub mod clique;
pub mod error;
pub mod io;
pub mod metrics;
pub mod partition;
pub mod stats;
// The storage module is the single place `unsafe` is permitted: the mmap syscalls and the
// borrowed-slice reinterpretation, with the safety argument documented there.
#[allow(unsafe_code)]
pub(crate) mod storage;

pub use bipartite::{BipartiteGraph, DataId, QueryId};
pub use builder::{BuildKernel, GraphBuilder};
pub use clique::CliqueNetGraph;
pub use error::{GraphError, Result};
pub use metrics::{
    average_fanout, average_p_fanout, hyperedge_cut, imbalance, max_fanout, sum_external_degrees,
    weighted_edge_cut, FanoutHistogram,
};
pub use partition::{BucketId, Partition};
pub use stats::GraphStats;
