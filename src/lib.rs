//! # shp — Social Hash Partitioner
//!
//! A Rust reproduction of *"Social Hash Partitioner: A Scalable Distributed Hypergraph
//! Partitioner"* (Kabiljo et al., VLDB 2017): a balanced k-way hypergraph partitioner that
//! minimizes query fanout by local search on the probabilistic-fanout objective, together with
//! the vertex-centric execution substrate, baseline partitioners, dataset generators, and a
//! storage-sharding simulator used to reproduce the paper's evaluation.
//!
//! Every partitioning algorithm in the workspace — the four SHP execution paths and the five
//! baselines — implements the unified [`core::api::Partitioner`] trait and is constructible by
//! name from the runtime [`core::api::AlgorithmRegistry`] (see
//! [`baselines::full_registry`]), returning one serializable
//! [`core::api::PartitionOutcome`] with typed [`core::ShpError`] failures throughout.
//!
//! This facade crate re-exports the member crates of the workspace under stable module names;
//! see the individual crates for full documentation:
//!
//! * [`hypergraph`] — graph data structures, partitions, metrics, IO.
//! * [`core`] — the SHP algorithm (SHP-k, SHP-2, distributed path, incremental updates) and
//!   the unified `api` module (trait, spec, outcome, registry, typed errors).
//! * [`vertex_centric`] — the Giraph-style BSP engine.
//! * [`datagen`] — synthetic dataset generators and the Table-1 registry.
//! * [`baselines`] — comparison partitioners (random, hash, greedy, label propagation,
//!   multilevel FM), all behind the unified trait, plus the full workspace registry.
//! * [`sharding_sim`] — the per-request latency model behind Figure 4's fanout-vs-latency
//!   experiment (replayed on [`serving`]).
//! * [`serving`] — the online partition-aware multiget serving engine with live repartition
//!   swap, warm-startable from any registry outcome.
//! * [`controller`] — the closed serve→observe→repartition loop: bounded access-trace
//!   collection on the serving hot path, a budgeted online repartition controller installing
//!   delta placements, and the hours-compressed drift scenario.
//! * [`telemetry`] — zero-dependency lock-free observability: sharded counters, log-linear
//!   histograms, hierarchical phase spans, a top-K access sketch, and Prometheus/JSON
//!   exporters; instrumented throughout the crates above.
//! * [`faults`] — deterministic, replayable fault injection for the serving tier: scripted
//!   shard crashes, slow-shard multipliers, per-request drops, and the retry/hedging policy
//!   driving replica failover.
//!
//! # Quickstart
//!
//! ```
//! use shp::baselines::full_registry;
//! use shp::core::api::{NoopObserver, PartitionSpec};
//! use shp::hypergraph::GraphBuilder;
//!
//! let mut builder = GraphBuilder::new();
//! builder.add_query([0, 1, 5]);
//! builder.add_query([0, 1, 2, 3]);
//! builder.add_query([3, 4, 5]);
//! let graph = builder.build().unwrap();
//!
//! // Any registered algorithm, same trait, same spec, same outcome type.
//! let registry = full_registry();
//! let spec = PartitionSpec::new(2).with_seed(42);
//! let shp2 = registry.run("shp2", &graph, &spec, &mut NoopObserver).unwrap();
//! let multilevel = registry.run("multilevel", &graph, &spec, &mut NoopObserver).unwrap();
//! println!("shp2 fanout {:.2} vs multilevel {:.2}", shp2.fanout, multilevel.fanout);
//! assert!(shp2.fanout <= 5.0 / 3.0 + 1e-9);
//! ```

#![forbid(unsafe_code)]

pub use shp_baselines as baselines;
pub use shp_controller as controller;
pub use shp_core as core;
pub use shp_datagen as datagen;
pub use shp_faults as faults;
pub use shp_hypergraph as hypergraph;
pub use shp_serving as serving;
pub use shp_sharding_sim as sharding_sim;
pub use shp_telemetry as telemetry;
pub use shp_vertex_centric as vertex_centric;
