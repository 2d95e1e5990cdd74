//! # shp-core
//!
//! The Social Hash Partitioner (SHP): a scalable hypergraph partitioner that minimizes query
//! fanout by local search on the *probabilistic fanout* objective, as described in
//! "Social Hash Partitioner: A Scalable Distributed Hypergraph Partitioner" (Kabiljo et al.,
//! VLDB 2017).
//!
//! Two execution paths implement the same algorithm:
//!
//! * the in-process path ([`partition_direct`] for SHP-k, [`partition_recursive`] for
//!   SHP-2 / SHP-r), whose refinement sweeps — gain computation, neighbor-data and
//!   gain-histogram construction — run on the rayon shim's scoped thread pool with
//!   `ShpConfig::workers` (`PartitionSpec::workers`) threads, and
//! * the distributed path ([`distributed::partition_distributed`]) which drives the same gain
//!   kernel, move probabilities and recursion schedule as four supersteps per iteration
//!   (Figure 3 of the paper) on the vertex-centric BSP engine of `shp-vertex-centric`, with
//!   per-superstep communication accounting and one real thread per simulated worker. Its
//!   result is bit-identical to [`partition_recursive`] / [`partition_direct`] whenever the
//!   in-process `(1 + ε)` capacity guard drops no move, and otherwise balanced in
//!   expectation only (a BSP master cannot sort every selected move); the conformance test
//!   `distributed_matches_in_process_when_the_capacity_guard_drops_nothing` in
//!   `tests/parallel_conformance.rs` checks the bit-identity.
//!
//! # Determinism contract
//!
//! Parallelism never changes results: every parallel phase splits its index space into
//! contiguous chunks and merges the per-chunk results **in chunk order** (ordered chunk
//! reduction — see the vendored `rayon` crate docs), and probabilistic move decisions hash
//! `(seed, iteration, vertex)` instead of sampling from a shared RNG stream. A fixed
//! [`api::PartitionSpec`] therefore produces a bit-identical [`api::PartitionOutcome`] for
//! every worker count, which `tests/parallel_conformance.rs` enforces for all registered
//! algorithms.
//!
//! Every execution path (plus the baselines of `shp-baselines`) is also reachable through the
//! unified [`api`] module — one [`api::Partitioner`] trait, one [`api::PartitionSpec`], one
//! [`api::PartitionOutcome`], and a runtime [`api::AlgorithmRegistry`] for dispatch by name.
//!
//! The easiest in-process entry point is [`SocialHashPartitioner`]:
//!
//! ```
//! use shp_core::{ShpConfig, SocialHashPartitioner};
//! use shp_hypergraph::GraphBuilder;
//!
//! // Three queries over six data records (Figure 1 of the paper).
//! let mut builder = GraphBuilder::new();
//! builder.add_query([0, 1, 5]);
//! builder.add_query([0, 1, 2, 3]);
//! builder.add_query([3, 4, 5]);
//! let graph = builder.build().unwrap();
//!
//! let partitioner = SocialHashPartitioner::new(ShpConfig::recursive_bisection(2)).unwrap();
//! let result = partitioner.partition(&graph);
//! assert_eq!(result.partition.num_buckets(), 2);
//! assert!(result.report.final_fanout <= 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod config;
pub mod direct;
pub mod distributed;
pub mod error;
pub mod gains;
pub mod histogram;
pub mod incremental;
pub mod multidim;
pub mod neighbor_data;
pub mod objective;
pub mod pair_table;
pub mod recursive;
pub mod refinement;
pub mod report;
pub mod swap;

pub use api::{
    AlgorithmRegistry, BoxedPartitioner, DistributedShp, IncrementalShp, IterationEvent,
    NoopObserver, PartitionOutcome, PartitionSpec, Partitioner, ProgressObserver, Shp2, ShpK,
    TelemetryObserver, TraceObserver,
};
pub use config::{BalanceMode, ObjectiveKind, PartitionMode, ShpConfig, SwapStrategy};
pub use direct::partition_direct;
pub use distributed::{partition_distributed, DistributedRunResult};
pub use error::{ShpError, ShpResult};
pub use gains::{GainKernel, GainScratch, MoveProposal, TargetConstraint};
pub use incremental::{partition_incremental, IncrementalConfig};
pub use multidim::{partition_multidimensional, MultiDimConfig};
pub use neighbor_data::NeighborData;
pub use objective::Objective;
pub use pair_table::PairTable;
pub use recursive::partition_recursive;
pub use refinement::{ActiveSet, IterationStats, Refiner};
pub use report::{LevelReport, PartitionResult, RunReport};

use shp_hypergraph::BipartiteGraph;

/// High-level entry point dispatching to direct (SHP-k) or recursive (SHP-2 / SHP-r) mode based
/// on the configuration.
#[derive(Debug, Clone)]
pub struct SocialHashPartitioner {
    config: ShpConfig,
}

impl SocialHashPartitioner {
    /// Creates a partitioner, validating the configuration.
    ///
    /// # Errors
    /// Returns [`ShpError::InvalidConfig`] for invalid configurations (zero buckets, `p`
    /// outside `(0, 1)`, negative `ε`, …).
    pub fn new(config: ShpConfig) -> ShpResult<Self> {
        config.validate()?;
        Ok(SocialHashPartitioner { config })
    }

    /// The configuration the partitioner was built with.
    pub fn config(&self) -> &ShpConfig {
        &self.config
    }

    /// Partitions the graph according to the configured mode.
    pub fn partition(&self, graph: &BipartiteGraph) -> PartitionResult {
        let result = match self.config.mode {
            PartitionMode::Direct => partition_direct(graph, &self.config),
            PartitionMode::Recursive { .. } => partition_recursive(graph, &self.config),
        };
        result.expect("configuration was validated at construction time")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shp_hypergraph::GraphBuilder;

    fn small_graph() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for g in 0..4u32 {
            let members: Vec<u32> = (0..6).map(|i| g * 6 + i).collect();
            for _ in 0..4 {
                b.add_query(members.clone());
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn facade_dispatches_to_both_modes() {
        let graph = small_graph();
        let recursive = SocialHashPartitioner::new(ShpConfig::recursive_bisection(4)).unwrap();
        let direct = SocialHashPartitioner::new(ShpConfig::direct(4)).unwrap();
        let r = recursive.partition(&graph);
        let d = direct.partition(&graph);
        assert_eq!(r.partition.num_buckets(), 4);
        assert_eq!(d.partition.num_buckets(), 4);
        assert!(!r.report.levels.is_empty());
        assert!(d.report.levels.is_empty());
    }

    #[test]
    fn facade_rejects_invalid_config() {
        assert!(SocialHashPartitioner::new(ShpConfig::direct(0)).is_err());
        assert!(SocialHashPartitioner::new(ShpConfig::direct(4).with_p(2.0)).is_err());
    }

    #[test]
    fn config_accessor_returns_the_config() {
        let config = ShpConfig::direct(16).with_seed(5);
        let p = SocialHashPartitioner::new(config.clone()).unwrap();
        assert_eq!(p.config(), &config);
    }
}
