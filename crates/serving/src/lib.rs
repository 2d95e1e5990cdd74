//! # shp-serving
//!
//! An online, partition-aware **multiget serving engine** with live repartition swap — the
//! storage-tier half of the Social Hash Partitioner story (Kabiljo et al., VLDB 2017).
//!
//! ## Why a serving layer
//!
//! SHP exists to make *serving* cheap. Section 2 of the paper describes the production
//! setting: a user's request becomes one **multiget** for the records of all their friends,
//! and the storage tier must contact every shard that holds at least one of those records.
//! The query's latency is the **maximum** over those parallel per-shard requests, so it grows
//! with the number of shards contacted — the *fanout*. Figure 4 of the paper measures exactly
//! this tail-at-scale dependency: p50/p99 latency climbing steeply as fanout rises, because
//! every extra shard is one more draw from the service-time distribution's tail (one more
//! chance to hit a GC pause, a queue, a slow disk). Halving average fanout is therefore worth
//! more than any single-server optimization — it attacks the tail at its source.
//!
//! This crate is that storage tier in miniature:
//!
//! * [`ShardRouter`] maps a multiget's keys to per-shard batches through a
//!   [`PartitionSnapshot`] — the fanout-defining step.
//! * [`ShardSet`] holds the records in concurrent in-memory KV shards and charges each batch
//!   a service time from `shp-sharding-sim`'s [`LatencyModel`](shp_sharding_sim::LatencyModel),
//!   taking the max across batches (Figure 4's semantics).
//! * [`EpochSwap`] / [`PartitionMap`] double-buffer the placement: a background repartition
//!   (e.g. `shp_core::partition_incremental`) builds the next generation **off the serving
//!   path**, then installs it with one atomic pointer swap — readers in flight finish on the
//!   old generation, so there is no serving gap and no torn multiget.
//! * [`HotKeyCache`] absorbs the hot-key skew of social workloads with hit/miss accounting.
//! * [`ServingMetrics`] aggregates per-query fanout histograms, p50/p99/p999 latency, and
//!   shard load skew into a [`ServingReport`] — on a **lock-free, allocation-free,
//!   bounded-memory** record path (sharded atomics and a log-linear latency histogram from
//!   `shp-telemetry`; percentiles quantized to ≤1.56%, everything else exact). The engine
//!   additionally traces per-key access frequencies into a bounded top-K sketch
//!   ([`ServingEngine::hot_keys`]) and exports everything as a mergeable telemetry snapshot
//!   ([`ServingEngine::telemetry_snapshot`]).
//! * [`ServingEngine`] composes all of the above behind a `multiget` call and an
//!   [`install_partition`](ServingEngine::install_partition) live-swap entry point;
//!   [`workload`] generates skewed open-loop arrival schedules to drive it.
//!
//! There is one way to serve a multiget: [`ServingEngine::multiget`] →
//! [`ShardRouter::route`] → [`ShardSet::execute`], or [`ShardSet::execute_with_faults`] when a
//! fault injector is attached. The shard set serves a plan's batches in the calling thread;
//! concurrency comes from many clients calling the engine at once. Every workload runs on
//! this path, including the Figure 4 replay (`shp-bench`'s `fig4_latency`).
//!
//! ## Quickstart
//!
//! ```
//! use shp_serving::{EngineConfig, ServingEngine};
//! use shp_hypergraph::{GraphBuilder, Partition};
//!
//! // Two communities of three keys, one multiget each.
//! let mut b = GraphBuilder::new();
//! b.add_query([0u32, 1, 2]);
//! b.add_query([3u32, 4, 5]);
//! let graph = b.build().unwrap();
//!
//! // Community-aligned placement: every multiget hits exactly one shard.
//! let partition = Partition::from_assignment(&graph, 2, vec![0, 0, 0, 1, 1, 1]).unwrap();
//! let engine = ServingEngine::new(&partition, EngineConfig::default()).unwrap();
//! let result = engine.multiget(&[0, 1, 2]).unwrap();
//! assert_eq!(result.fanout, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod cache;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod partition_map;
pub mod router;
pub mod store;
pub mod workload;

pub use bootstrap::{load_warm_start, load_warm_start_with, WarmStart};
pub use cache::{CacheStats, HotKeyCache};
pub use engine::{AccessObserver, EngineConfig, Generation, MultigetResult, ServingEngine};
pub use error::{Result, ServingError};
pub use metrics::{LegacyServingMetrics, ServingMetrics, ServingReport};
pub use partition_map::{EpochSwap, PartitionDelta, PartitionMap, PartitionSnapshot};
pub use router::{RoutePlan, ShardBatch, ShardRouter};
pub use store::{value_of, BatchResults, Shard, ShardSet};
pub use workload::{open_loop_schedule, WorkloadConfig, WorkloadEvent};
