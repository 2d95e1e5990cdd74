//! Figure 4: distribution of multi-get latency as a function of query fanout, measured on the
//! serving engine (`ServingEngine::multiget`: route the keys to per-shard batches, charge the
//! query the maximum of the batches' sampled service times).
//!
//! * `--synthetic` (Figure 4a): one key per server, multigets of keys `0..f` for every fanout
//!   `f` in 1..40.
//! * `--replay` (Figure 4b): a Facebook-like friendship graph sharded over 40 servers with SHP,
//!   every non-empty query replayed as one multiget, latency bucketed by its realized fanout.
//!
//! Without arguments both experiments run.

use shp_bench::{env_usize, TextTable};
use shp_core::{partition_recursive, ShpConfig};
use shp_datagen::{social_graph, SocialGraphConfig};
use shp_hypergraph::{BipartiteGraph, DataId, GraphBuilder, Partition};
use shp_serving::{EngineConfig, ServingEngine};
use shp_sharding_sim::LatencySummary;
use std::collections::BTreeMap;

/// Latencies of the served multigets, grouped by realized fanout: the data plotted in Figure 4.
#[derive(Default)]
struct ByFanout(BTreeMap<u32, Vec<f64>>);

impl ByFanout {
    /// Serves `keys` on `engine` and records the result.
    fn serve(&mut self, engine: &ServingEngine, keys: &[DataId]) {
        let result = engine.multiget(keys).expect("keys lie in the partition");
        self.0
            .entry(result.fanout)
            .or_default()
            .push(result.latency);
    }

    /// Replays every non-empty query of `graph` once on a fresh engine over `partition`.
    fn replay(graph: &BipartiteGraph, partition: &Partition) -> Self {
        let engine = ServingEngine::new(partition, EngineConfig::default()).expect("k >= 1");
        let mut samples = ByFanout::default();
        for q in graph.queries() {
            let keys = graph.query_neighbors(q);
            if !keys.is_empty() {
                samples.serve(&engine, keys);
            }
        }
        samples
    }

    fn average_fanout(&self) -> f64 {
        let (sum, count) = self.0.iter().fold((0.0, 0), |(sum, count), (&f, l)| {
            (sum + f as f64 * l.len() as f64, count + l.len())
        });
        sum / count.max(1) as f64
    }

    fn overall(&self) -> LatencySummary {
        LatencySummary::from_samples(&self.0.values().flatten().copied().collect::<Vec<_>>())
    }

    fn print(&self, title: &str) {
        println!("{title}");
        println!("average fanout: {:.2}\n", self.average_fanout());
        let mut table = TextTable::new(["fanout", "queries", "p50", "p90", "p95", "p99", "mean"]);
        for (fanout, latencies) in &self.0 {
            let summary = LatencySummary::from_samples(latencies);
            table.add_row([
                fanout.to_string(),
                summary.count.to_string(),
                format!("{:.2}t", summary.p50),
                format!("{:.2}t", summary.p90),
                format!("{:.2}t", summary.p95),
                format!("{:.2}t", summary.p99),
                format!("{:.2}t", summary.mean),
            ]);
        }
        println!("{}", table.render());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run_synthetic = args.is_empty() || args.iter().any(|a| a == "--synthetic");
    let run_replay = args.is_empty() || args.iter().any(|a| a == "--replay");
    let servers = env_usize("SHP_BENCH_SERVERS", 40) as u32;
    let users = env_usize("SHP_BENCH_USERS", 20_000);

    if run_synthetic {
        // Figure 4a: latency of f parallel trivial requests, f = 1..40. Key i lives on
        // server i, so the multiget of keys 0..f contacts exactly f servers.
        let mut builder = GraphBuilder::new();
        builder.add_query(0..servers);
        let graph = builder.build().expect("one query over every key");
        let one_key_per_server =
            Partition::from_assignment(&graph, servers, (0..servers).collect())
                .expect("one record per server");
        let engine = ServingEngine::new(&one_key_per_server, EngineConfig::default())
            .expect("at least one server");
        let keys: Vec<DataId> = (0..servers).collect();
        let mut samples = ByFanout::default();
        for fanout in 1..=servers.min(40) as usize {
            for _ in 0..20_000 {
                samples.serve(&engine, &keys[..fanout]);
            }
        }
        samples.print(
            "Figure 4a — synthetic queries (latency in units of t, the single-request mean)",
        );
    }

    if run_replay {
        // Figure 4b: a social graph sharded with SHP over 40 servers, live workload replayed.
        let graph = social_graph(&SocialGraphConfig {
            num_users: users,
            avg_degree: 20,
            avg_community_size: 120,
            cross_community_fraction: 0.08,
            seed: 0x5047,
        });
        let config = ShpConfig::recursive_bisection(servers).with_seed(0x5047);
        let shp = partition_recursive(&graph, &config).expect("valid config");
        let samples = ByFanout::replay(&graph, &shp.partition);
        samples.print(&format!(
            "Figure 4b — real-world-style workload on {servers} servers sharded with SHP (average fanout {:.1})",
            samples.average_fanout()
        ));

        // For contrast, the same workload under random sharding (the "fanout 40" end of the plot).
        let random = shp_baselines::RandomPartitioner::new(1);
        let random_partition = random.partition_into(&graph, servers, 0.05);
        let random_samples = ByFanout::replay(&graph, &random_partition);
        let (random_mean, shp_mean) = (random_samples.overall().mean, samples.overall().mean);
        println!(
            "Random sharding for comparison: average fanout {:.1}, mean latency {:.2}t (SHP mean {:.2}t) — {:.1}x reduction\n",
            random_samples.average_fanout(),
            random_mean,
            shp_mean,
            random_mean / shp_mean.max(1e-9),
        );
    }
}
