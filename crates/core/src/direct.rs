//! SHP-k: direct k-way optimization (Algorithm 1 applied to all `k` buckets at once).

use crate::config::ShpConfig;
use crate::error::ShpResult;
use crate::gains::TargetConstraint;
use crate::neighbor_data::NeighborData;
use crate::objective::Objective;
use crate::refinement::Refiner;
use crate::report::{PartitionResult, RunReport};
use rand::SeedableRng;
use rand_pcg::Pcg64;
use shp_hypergraph::{average_fanout, average_p_fanout, BipartiteGraph, Partition};
use std::time::Instant;

/// Partitions `graph` into `config.num_buckets` buckets with direct k-way local search.
///
/// The initial partition assigns every data vertex to an independently uniform random bucket
/// (which for large graphs is nearly perfectly balanced); refinement iterations then swap
/// vertices between buckets until convergence or the iteration limit.
///
/// # Errors
/// Returns [`ShpError::InvalidConfig`](crate::ShpError::InvalidConfig) when the configuration
/// is invalid.
pub fn partition_direct(graph: &BipartiteGraph, config: &ShpConfig) -> ShpResult<PartitionResult> {
    config.validate()?;
    let _span = shp_telemetry::Span::enter("partition/direct");
    let start = Instant::now();
    let mut rng = Pcg64::seed_from_u64(config.seed);
    let mut partition = Partition::new_random(graph, config.num_buckets, &mut rng)?;
    let history = refine_in_place(graph, config, &mut partition);
    let elapsed = start.elapsed();

    let report = RunReport {
        final_fanout: average_fanout(graph, &partition),
        final_p_fanout: average_p_fanout(graph, &partition, 0.5),
        imbalance: partition.imbalance(),
        history,
        levels: Vec::new(),
        elapsed,
    };
    Ok(PartitionResult { partition, report })
}

/// Runs direct k-way refinement on all `config.num_buckets` buckets of an existing partition
/// for at most `config.max_iterations` iterations; [`partition_direct`] calls it on its random
/// initial partition.
pub fn refine_in_place(
    graph: &BipartiteGraph,
    config: &ShpConfig,
    partition: &mut Partition,
) -> Vec<crate::refinement::IterationStats> {
    let objective = Objective::from_kind(config.objective);
    let constraint = TargetConstraint::all(config.num_buckets);
    let refiner = Refiner::new(
        graph,
        objective,
        constraint,
        config.swap_strategy,
        config.balance_mode,
        config.allow_imbalanced_moves,
        config.epsilon,
        config.seed,
    )
    .with_workers(config.workers);
    let mut nd = NeighborData::build_with_workers(graph, partition, config.workers);
    refiner.run(
        partition,
        &mut nd,
        config.max_iterations,
        config.convergence_threshold,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BalanceMode, ObjectiveKind, ShpConfig};
    use shp_hypergraph::{weighted_edge_cut, GraphBuilder};

    fn community_graph(groups: u32, size: u32) -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for g in 0..groups {
            let members: Vec<u32> = (0..size).map(|i| g * size + i).collect();
            for _ in 0..size {
                b.add_query(members.clone());
            }
        }
        for g in 0..groups.saturating_sub(1) {
            b.add_query([g * size, (g + 1) * size]);
        }
        b.build().unwrap()
    }

    #[test]
    fn direct_partitioning_improves_over_random() {
        let graph = community_graph(8, 8);
        let config = ShpConfig::direct(8).with_seed(1).with_max_iterations(40);
        let result = partition_direct(&graph, &config).unwrap();

        let mut rng = Pcg64::seed_from_u64(123);
        let random = Partition::new_random(&graph, 8, &mut rng).unwrap();
        let random_fanout = average_fanout(&graph, &random);
        assert!(
            result.report.final_fanout < random_fanout * 0.6,
            "SHP-k fanout {} should be well below random {}",
            result.report.final_fanout,
            random_fanout
        );
        assert_eq!(result.partition.num_buckets(), 8);
        assert!(result.report.total_iterations() >= 1);
        assert!(result.report.imbalance < 0.5);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let graph = community_graph(2, 4);
        let config = ShpConfig::direct(0);
        assert!(partition_direct(&graph, &config).is_err());
    }

    #[test]
    fn direct_partitioning_is_deterministic() {
        let graph = community_graph(4, 6);
        let config = ShpConfig::direct(4).with_seed(77).with_max_iterations(15);
        let a = partition_direct(&graph, &config).unwrap();
        let b = partition_direct(&graph, &config).unwrap();
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.report.history, b.report.history);
    }

    #[test]
    fn clique_net_objective_reduces_edge_cut() {
        let graph = community_graph(4, 8);
        let config = ShpConfig::direct(4)
            .with_objective(ObjectiveKind::CliqueNet)
            .with_seed(3)
            .with_max_iterations(30);
        let result = partition_direct(&graph, &config).unwrap();
        let mut rng = Pcg64::seed_from_u64(3);
        let random = Partition::new_random(&graph, 4, &mut rng).unwrap();
        assert!(
            weighted_edge_cut(&graph, &result.partition) < weighted_edge_cut(&graph, &random),
            "clique-net optimization should reduce the weighted edge cut"
        );
    }

    #[test]
    fn strict_balance_keeps_initial_weights() {
        let graph = community_graph(4, 8);
        let config = ShpConfig::direct(4)
            .with_seed(5)
            .with_balance_mode(BalanceMode::Strict)
            .with_max_iterations(20);
        let result = partition_direct(&graph, &config).unwrap();
        let mut rng = Pcg64::seed_from_u64(5);
        let initial = Partition::new_random(&graph, 4, &mut rng).unwrap();
        assert_eq!(result.partition.bucket_weights(), initial.bucket_weights());
    }

    #[test]
    fn single_bucket_partitioning_is_trivial() {
        let graph = community_graph(2, 4);
        let config = ShpConfig::direct(1).with_max_iterations(3);
        let result = partition_direct(&graph, &config).unwrap();
        assert_eq!(result.partition.num_buckets(), 1);
        assert!((result.report.final_fanout - 1.0).abs() < 1e-12);
        assert_eq!(result.report.total_moves(), 0);
    }
}
