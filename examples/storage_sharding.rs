//! Storage sharding end to end: generate a social workload, shard it with SHP over 40 servers,
//! and measure on the serving engine how much the multi-get latency improves over random
//! sharding (the motivating application of the paper, Section 4.2.1).
//!
//! Run with: `cargo run --release --example storage_sharding`

use shp::baselines::full_registry;
use shp::core::api::{NoopObserver, PartitionSpec};
use shp::datagen::{social_graph, SocialGraphConfig};
use shp::hypergraph::{BipartiteGraph, Partition};
use shp::serving::{EngineConfig, ServingEngine};
use shp::sharding_sim::LatencySummary;

/// Serves every non-empty query of `graph` once as a multiget on an engine over `partition`
/// and summarizes the latencies (in units of `t`).
fn replay(graph: &BipartiteGraph, partition: &Partition) -> LatencySummary {
    let engine = ServingEngine::new(partition, EngineConfig::default()).expect("k >= 1");
    let latencies: Vec<f64> = graph
        .queries()
        .map(|q| graph.query_neighbors(q))
        .filter(|keys| !keys.is_empty())
        .map(|keys| {
            engine
                .multiget(keys)
                .expect("keys lie in the partition")
                .latency
        })
        .collect();
    LatencySummary::from_samples(&latencies)
}

fn main() {
    let servers = 40;
    // A Facebook-like workload: rendering a user's page fetches the user and all friends.
    let graph = social_graph(&SocialGraphConfig {
        num_users: 20_000,
        avg_degree: 20,
        avg_community_size: 120,
        cross_community_fraction: 0.08,
        seed: 7,
    });
    println!(
        "workload: {} users, {} fetch edges",
        graph.num_data(),
        graph.num_edges()
    );

    // Both placements come from the same unified registry — random sharding (the production
    // default before locality optimization) and social sharding with SHP-2.
    let registry = full_registry();
    let spec = PartitionSpec::new(servers).with_seed(7);
    let random = registry
        .run("random", &graph, &spec, &mut NoopObserver)
        .expect("valid spec");
    let shp = registry
        .run("shp2", &graph, &spec, &mut NoopObserver)
        .expect("valid spec");

    println!("random sharding fanout: {:.2}", random.fanout);
    println!("SHP sharding fanout   : {:.2}", shp.fanout);
    let (random, shp) = (random.partition, shp.partition);

    // Replay the workload on the serving engine and compare latency percentiles.
    let random_report = replay(&graph, &random);
    let shp_report = replay(&graph, &shp);

    println!("\nlatency (in units of t, the mean single-request latency):");
    println!(
        "  random: mean {:.2}t  p50 {:.2}t  p99 {:.2}t",
        random_report.mean, random_report.p50, random_report.p99
    );
    println!(
        "  SHP   : mean {:.2}t  p50 {:.2}t  p99 {:.2}t",
        shp_report.mean, shp_report.p50, shp_report.p99
    );
    println!(
        "  mean latency reduction: {:.0}%",
        (1.0 - shp_report.mean / random_report.mean) * 100.0
    );
}
