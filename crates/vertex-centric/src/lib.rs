//! # shp-vertex-centric
//!
//! A Giraph-style vertex-centric Bulk Synchronous Parallel (BSP) engine.
//!
//! The SHP paper implements its partitioner on Apache Giraph: the input graph is stored as a
//! collection of vertices distributed over workers, computation proceeds in *supersteps*
//! separated by synchronization barriers, vertices exchange messages that are delivered at the
//! start of the next superstep, and a *master* aggregates global state (the swap matrix /
//! move-probability histograms) between supersteps.
//!
//! This crate reproduces that execution model in-process:
//!
//! * [`VertexProgram`] — the user-defined per-vertex compute function, aggregate merge, and
//!   master compute, mirroring Giraph's `Computation`, `Aggregator`, and `MasterCompute`.
//! * [`Engine`] — distributes vertices over a configurable number of simulated workers
//!   (vertex `v` lives on worker `v mod W`, as with Giraph's random vertex distribution) and
//!   runs each superstep's per-worker compute on one real scoped thread per worker (merging
//!   worker results in worker-index order, so outcomes never depend on thread interleaving).
//! * Post-and-pull delivery ([`routing`]) — a vertex broadcasts to its out-neighbors with
//!   [`Context::send_to_neighbors`]. The message is stored once in its worker's post list,
//!   and in the next superstep each receiver reads its in-neighbors' posts by reference
//!   through the transpose kept in [`Topology`]. Every vertex receives its messages in
//!   ascending sender-vertex order, so even an order-sensitive compute (a floating-point sum
//!   over the messages) gives the same result on any number of workers.
//! * [`ExecutionMetrics`] — per-superstep accounting of messages, bytes, and local-vs-remote
//!   traffic, counted per out-edge when a message is posted, so the communication-complexity
//!   claims of Section 3.3 of the paper can be checked quantitatively even though no real
//!   network is involved and no per-edge copy is made.
//!
//! The engine is deliberately independent of the partitioner: the unit tests run classical
//! vertex-centric algorithms (connected components, degree counting) on it, and
//! `shp-core::distributed` builds the four-superstep SHP iteration (Figure 3 of the paper)
//! on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod engine;
pub mod metrics;
pub mod program;
pub mod routing;
pub mod topology;

pub use context::Context;
pub use engine::{Engine, EngineConfig};
pub use metrics::{ExecutionMetrics, SuperstepMetrics};
pub use program::{MasterOutcome, VertexProgram};
pub use topology::{Topology, TopologyBuilder};
