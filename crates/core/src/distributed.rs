//! The distributed execution path: SHP as a vertex-centric program (Figure 3 of the paper).
//!
//! Every iteration of Algorithm 1 is expressed as four supersteps on the BSP engine of
//! `shp-vertex-centric`:
//!
//! 1. **Collect buckets** — every data vertex sends its current bucket to its adjacent query
//!    vertices; in direct mode it also adds its weight to the master's bucket-weight
//!    aggregate, from which the master picks the least-loaded bucket.
//! 2. **Neighbor data** — every query vertex aggregates the received buckets into its neighbor
//!    data `n_i(q)` and sends the non-zero entries back to its adjacent data vertices.
//! 3. **Move gains** — every data vertex runs the in-process gain kernel
//!    ([`best_move_for_vertex_with`]) over the received neighbor data and contributes its
//!    proposal to the master's gain histograms or swap matrix (the aggregate).
//! 4. **Apply moves** — the master has turned the aggregate into [`MoveProbabilities`] with
//!    the constructors the in-process [`Refiner`](crate::Refiner) uses (the global value);
//!    every data vertex flips the refiner's deterministic coin and moves accordingly.
//!
//! The vertex program is a thin layer: the gain kernel, the move probabilities, the coin,
//! the recursion schedule and the direct-mode start partition are the in-process code. What
//! it adds is per-superstep communication accounting and the ability to scale the number of
//! simulated workers (Figures 5a/5b, Table 3).
//!
//! # Relation to the in-process path
//!
//! The in-process refiner also guards every iteration with the `(1 + ε)` capacity check,
//! which sorts all selected moves globally. A BSP master sees only the O(k²·bins) aggregate,
//! so this path balances in expectation only (the [`api`](crate::api) adapter repairs the
//! final partition). The result is therefore **bit-identical** to
//! [`partition_recursive`](crate::partition_recursive) /
//! [`partition_direct`](crate::partition_direct) whenever that guard drops no move, and
//! balanced in expectation otherwise. `tests/parallel_conformance.rs`
//! (`distributed_matches_in_process_when_the_capacity_guard_drops_nothing`) checks the
//! bit-identity for both swap strategies, recursive and direct mode, and every worker count.

use crate::config::{BalanceMode, PartitionMode, ShpConfig, SwapStrategy};
use crate::error::{ShpError, ShpResult};
use crate::gains::{best_move_for_vertex_with, GainScratch, MoveProposal, TargetConstraint};
use crate::histogram::GainHistogramSet;
use crate::objective::Objective;
use crate::recursive::Schedule;
use crate::refinement::move_taken;
use crate::swap::{MoveProbabilities, SwapMatrix};
use rand::SeedableRng;
use rand_pcg::Pcg64;
use serde::{Deserialize, Serialize};
use shp_hypergraph::{average_fanout, average_p_fanout, BipartiteGraph, BucketId, Partition};
use shp_vertex_centric::{
    Context, Engine, EngineConfig, ExecutionMetrics, MasterOutcome, Topology, VertexProgram,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-iteration statistics reported by the distributed master.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistributedIterationStats {
    /// Iteration index within the current engine run.
    pub iteration: usize,
    /// Number of data vertices moved.
    pub moved: u64,
    /// Average query fanout observed at the start of the iteration.
    pub fanout: f64,
}

/// Result of a distributed partitioning run.
#[derive(Debug, Clone)]
pub struct DistributedRunResult {
    /// The final bucket assignment.
    pub partition: Partition,
    /// Per-iteration statistics (concatenated over recursion levels in recursive mode).
    pub history: Vec<DistributedIterationStats>,
    /// Engine communication metrics (concatenated over recursion levels).
    pub metrics: ExecutionMetrics,
    /// Average fanout of the final partition.
    pub final_fanout: f64,
    /// Average p-fanout (p = 0.5) of the final partition.
    pub final_p_fanout: f64,
    /// Total wall-clock time.
    pub elapsed: std::time::Duration,
}

/// Vertex value: data vertices carry their bucket and pending proposal, query vertices are
/// stateless (their neighbor data is recomputed every iteration from fresh messages).
#[derive(Debug, Clone)]
enum ShpValue {
    Data {
        bucket: BucketId,
        proposal: Option<MoveProposal>,
    },
    Query,
}

/// Messages a vertex broadcasts to its bipartite neighbors. The engine stores each broadcast
/// once and every neighbor reads it by reference.
#[derive(Debug)]
enum ShpMessage {
    /// Data → query: the sender's current bucket.
    Bucket(BucketId),
    /// Query → data: the query's non-zero neighbor data.
    NeighborData(Box<[(BucketId, u32)]>),
}

/// Per-superstep aggregate collected by the master.
///
/// A vertex contributes at most one `weight`, one `proposal`, a `moved` count or a
/// `fanout_sum`, and no tables. [`VertexProgram::merge_aggregates`] folds the single
/// contributions into the dense `tables`, which a worker's accumulator allocates at its first
/// fold of the superstep, so a per-vertex contribution never builds or moves a table.
#[derive(Debug, Clone, Default)]
struct ShpAggregate {
    weight: Option<(BucketId, u64)>,
    proposal: Option<MoveProposal>,
    moved: u64,
    fanout_sum: u64,
    tables: Option<Box<ShpTables>>,
}

/// The master's dense tables, built from the folded contributions.
#[derive(Debug, Clone, Default)]
struct ShpTables {
    /// Total data weight per bucket (direct mode).
    bucket_weights: Vec<u64>,
    histograms: GainHistogramSet,
    swaps: SwapMatrix,
}

impl ShpAggregate {
    fn tables_mut(&mut self) -> &mut ShpTables {
        self.tables.get_or_insert_with(Box::default)
    }
}

/// Global value broadcast by the master.
#[derive(Debug, Clone, Default)]
struct ShpGlobal {
    iteration: usize,
    least_loaded: BucketId,
    probabilities: Option<MoveProbabilities>,
    pending_fanout: f64,
    history: Vec<DistributedIterationStats>,
}

/// The SHP vertex program for one refinement run (one recursion level, or the whole direct
/// optimization).
struct ShpProgram<'g> {
    graph: &'g BipartiteGraph,
    objective: Objective,
    constraint: TargetConstraint,
    swap_strategy: SwapStrategy,
    max_iterations: usize,
    convergence_threshold: f64,
    seed: u64,
    /// One gain scratch per simulated worker (vertex `v` runs on worker `v mod W`), so the
    /// kernel allocates nothing per vertex; the lock is uncontended.
    scratches: Vec<Mutex<GainScratch>>,
}

impl VertexProgram for ShpProgram<'_> {
    type Value = ShpValue;
    type Message = ShpMessage;
    type Aggregate = ShpAggregate;
    type Global = ShpGlobal;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        vertex: u32,
        value: &mut ShpValue,
        messages: &[&ShpMessage],
    ) {
        let phase = ctx.superstep() % 4;
        match value {
            ShpValue::Data { bucket, proposal } => match phase {
                0 => {
                    // Superstep 1: send the current bucket to all adjacent queries.
                    ctx.send_to_neighbors(ShpMessage::Bucket(*bucket));
                    if matches!(self.constraint, TargetConstraint::All { .. }) {
                        let weight = self.graph.data_weight(vertex) as u64;
                        ctx.aggregate(ShpAggregate {
                            weight: Some((*bucket, weight)),
                            ..Default::default()
                        });
                    }
                }
                2 => {
                    // Superstep 3: the in-process gain kernel over the received neighbor data,
                    // which the engine delivers in ascending query order. That is the order of
                    // `data_neighbors(v)` for every graph: `GraphBuilder`'s transpose emits it and
                    // `.shpb` loading rejects any other.
                    let entries = messages.iter().filter_map(|m| match m {
                        ShpMessage::NeighborData(counts) => Some(&counts[..]),
                        ShpMessage::Bucket(_) => None,
                    });
                    let mut scratch = self.scratches[vertex as usize % self.scratches.len()]
                        .lock()
                        .expect("a vertex panicked while holding the gain scratch");
                    let include_nonpositive = self.swap_strategy == SwapStrategy::Histogram;
                    *proposal = best_move_for_vertex_with(
                        &self.objective,
                        entries,
                        *bucket,
                        &self.constraint,
                        ctx.global().least_loaded,
                        &mut scratch,
                        vertex,
                    )
                    .filter(|p| include_nonpositive || p.gain > 0.0);
                    if proposal.is_some() {
                        ctx.aggregate(ShpAggregate {
                            proposal: *proposal,
                            ..Default::default()
                        });
                    }
                }
                3 => {
                    // Superstep 4: apply the move with the master-provided probability.
                    if let Some(p) = proposal.take() {
                        let global = ctx.global();
                        let taken = global.probabilities.as_ref().is_some_and(|probabilities| {
                            move_taken(probabilities, self.seed, global.iteration, &p)
                        });
                        if taken {
                            *bucket = p.to;
                            ctx.aggregate(ShpAggregate {
                                moved: 1,
                                ..Default::default()
                            });
                        }
                    }
                }
                _ => {}
            },
            ShpValue::Query => {
                if phase == 1 {
                    // Superstep 2: aggregate buckets into neighbor data, report fanout, and send
                    // the non-zero entries back to the adjacent data vertices.
                    let mut counts: Vec<(BucketId, u32)> = Vec::new();
                    for m in messages {
                        if let ShpMessage::Bucket(b) = m {
                            match counts.binary_search_by_key(b, |&(bb, _)| bb) {
                                Ok(idx) => counts[idx].1 += 1,
                                Err(idx) => counts.insert(idx, (*b, 1)),
                            }
                        }
                    }
                    if !counts.is_empty() {
                        ctx.aggregate(ShpAggregate {
                            fanout_sum: counts.len() as u64,
                            ..Default::default()
                        });
                        ctx.send_to_neighbors(ShpMessage::NeighborData(counts.into_boxed_slice()));
                    }
                }
            }
        }
    }

    fn merge_aggregates(&self, mut a: ShpAggregate, b: ShpAggregate) -> ShpAggregate {
        // Fold the single contributions into the accumulator's tables; every table holds
        // commutative counters, so any merge association yields the same aggregate.
        if let Some(other) = b.tables {
            let tables = a.tables_mut();
            for (bucket, &weight) in other.bucket_weights.iter().enumerate() {
                add_weight(&mut tables.bucket_weights, bucket as BucketId, weight);
            }
            tables.histograms.merge(&other.histograms);
            tables.swaps.merge(&other.swaps);
        }
        for (bucket, weight) in [a.weight.take(), b.weight].into_iter().flatten() {
            add_weight(&mut a.tables_mut().bucket_weights, bucket, weight);
        }
        for p in [a.proposal.take(), b.proposal].into_iter().flatten() {
            let tables = a.tables_mut();
            match self.swap_strategy {
                SwapStrategy::Histogram => tables.histograms.record(&p),
                SwapStrategy::Matrix => tables.swaps.record(&p),
            }
        }
        a.moved += b.moved;
        a.fanout_sum += b.fanout_sum;
        a
    }

    fn master_compute(
        &self,
        superstep: usize,
        aggregate: ShpAggregate,
        previous: &ShpGlobal,
    ) -> MasterOutcome<ShpGlobal> {
        let mut global = previous.clone();
        match superstep % 4 {
            1 => {
                // End of the neighbor-data superstep: remember the fanout observed this
                // iteration.
                let num_queries = self.graph.num_queries();
                global.pending_fanout = if num_queries == 0 {
                    0.0
                } else {
                    aggregate.fanout_sum as f64 / num_queries as f64
                };
                MasterOutcome::Continue(global)
            }
            2 => {
                // End of the gain superstep: turn the aggregate into move probabilities.
                let tables = aggregate.tables.unwrap_or_default();
                global.probabilities = Some(match self.swap_strategy {
                    SwapStrategy::Histogram => {
                        MoveProbabilities::from_histograms(&tables.histograms)
                    }
                    SwapStrategy::Matrix => tables.swaps.move_probabilities(),
                });
                MasterOutcome::Continue(global)
            }
            3 => {
                // End of the move superstep: record history and decide whether to continue.
                let moved = aggregate.moved;
                global.history.push(DistributedIterationStats {
                    iteration: global.iteration,
                    moved,
                    fanout: global.pending_fanout,
                });
                global.iteration += 1;
                global.probabilities = None;
                let moved_fraction = moved as f64 / self.graph.num_data().max(1) as f64;
                if global.iteration >= self.max_iterations
                    || moved_fraction < self.convergence_threshold
                {
                    // Halting here would discard the global carrying the final history entry
                    // (MasterOutcome::Halt keeps the *previous* global), so broadcast it with
                    // the iteration counter saturated and halt at the start of the next
                    // superstep instead.
                    global.iteration = self.max_iterations;
                }
                MasterOutcome::Continue(global)
            }
            _ => {
                // End of the bucket-collection superstep: halt cleanly if the previous
                // iteration decided to stop; otherwise pick the least-loaded bucket (the
                // lowest-indexed one of minimum weight, as `Partition` keeps it).
                if global.iteration >= self.max_iterations {
                    return MasterOutcome::Halt;
                }
                if let TargetConstraint::All { k } = self.constraint {
                    let weights = aggregate
                        .tables
                        .map(|tables| tables.bucket_weights)
                        .unwrap_or_default();
                    global.least_loaded = (0..k)
                        .min_by_key(|&b| weights.get(b as usize).copied().unwrap_or(0))
                        .unwrap_or(0);
                }
                MasterOutcome::Continue(global)
            }
        }
    }

    fn message_size(&self, message: &ShpMessage) -> usize {
        match message {
            ShpMessage::Bucket(_) => 4,
            ShpMessage::NeighborData(counts) => 8 * counts.len(),
        }
    }
}

/// Adds `weight` to `bucket`'s slot, growing the table as needed.
fn add_weight(weights: &mut Vec<u64>, bucket: BucketId, weight: u64) {
    let b = bucket as usize;
    if weights.len() <= b {
        weights.resize(b + 1, 0);
    }
    weights[b] += weight;
}

/// Runs the distributed SHP on `num_workers` simulated workers.
///
/// Direct mode runs one engine job from the seeded random partition of
/// [`partition_direct`](crate::partition_direct); recursive mode runs one engine job per level
/// of the recursion schedule of [`partition_recursive`](crate::partition_recursive), exactly
/// as the Giraph implementation schedules one job per split level.
///
/// # Errors
/// Returns [`ShpError::InvalidConfig`] when the configuration is invalid, or when it asks for
/// [`BalanceMode::Strict`] or `allow_imbalanced_moves`: both act in the in-process capacity
/// guard, which needs every selected move at once and has no BSP counterpart.
pub fn partition_distributed(
    graph: &BipartiteGraph,
    config: &ShpConfig,
    num_workers: usize,
) -> ShpResult<DistributedRunResult> {
    config.validate()?;
    if num_workers == 0 {
        return Err(ShpError::InvalidConfig(
            "num_workers: partition_distributed needs at least one worker".into(),
        ));
    }
    if config.balance_mode == BalanceMode::Strict {
        return Err(ShpError::InvalidConfig(
            "balance_mode: Strict is not supported by partition_distributed (the BSP master \
             balances in expectation)"
                .into(),
        ));
    }
    if config.allow_imbalanced_moves {
        return Err(ShpError::InvalidConfig(
            "allow_imbalanced_moves: not supported by partition_distributed (the BSP master \
             balances in expectation)"
                .into(),
        ));
    }
    let start = Instant::now();
    let topology = Arc::new(engine_topology(graph));
    let mut metrics = ExecutionMetrics::new(num_workers);
    let mut history = Vec::new();
    let mut job = |assignment: Vec<BucketId>, objective, constraint, num_buckets, seed| {
        let program = ShpProgram {
            graph,
            objective,
            constraint,
            swap_strategy: config.swap_strategy,
            max_iterations: config.max_iterations,
            convergence_threshold: config.convergence_threshold,
            seed,
            scratches: (0..num_workers)
                .map(|_| Mutex::new(GainScratch::new(num_buckets)))
                .collect(),
        };
        run_job(
            program,
            &topology,
            assignment,
            num_workers,
            &mut metrics,
            &mut history,
        )
    };

    let assignment = match config.mode {
        PartitionMode::Direct => {
            let mut rng = Pcg64::seed_from_u64(config.seed);
            let initial = Partition::new_random(graph, config.num_buckets, &mut rng)?;
            job(
                initial.into_assignment(),
                Objective::from_kind(config.objective),
                TargetConstraint::all(config.num_buckets),
                config.num_buckets,
                config.seed,
            )
        }
        PartitionMode::Recursive { .. } => {
            let mut schedule = Schedule::new(config)?;
            let mut assignment: Vec<BucketId> = vec![0; graph.num_data()];
            while !schedule.is_done() {
                let level = schedule.next_level(&assignment);
                assignment = job(
                    level.assignment,
                    level.objective,
                    level.constraint,
                    level.num_buckets,
                    level.seed,
                );
            }
            assignment
        }
    };
    let partition = Partition::from_assignment(graph, config.num_buckets, assignment)?;

    Ok(DistributedRunResult {
        final_fanout: average_fanout(graph, &partition),
        final_p_fanout: average_p_fanout(graph, &partition, 0.5),
        partition,
        history,
        metrics,
        elapsed: start.elapsed(),
    })
}

/// The engine topology of `graph`: data vertex `v` is vertex `v`, query `q` is vertex
/// `|D| + q`, and every bipartite edge points both ways. Built once per
/// [`partition_distributed`] call and shared by every recursion level.
fn engine_topology(graph: &BipartiteGraph) -> Topology {
    let num_data = graph.num_data() as u32;
    let mut offsets = Vec::with_capacity(graph.num_data() + graph.num_queries() + 1);
    let mut neighbors = Vec::with_capacity(2 * graph.num_edges());
    offsets.push(0);
    for v in graph.data_vertices() {
        neighbors.extend(graph.data_neighbors(v).iter().map(|&q| num_data + q));
        offsets.push(neighbors.len() as u64);
    }
    for q in graph.queries() {
        neighbors.extend_from_slice(graph.query_neighbors(q));
        offsets.push(neighbors.len() as u64);
    }
    Topology::from_csr(offsets, neighbors)
}

/// Runs one engine job of `program` over `topology` from `initial_assignment`, appending its
/// history and communication metrics, and returns the final bucket assignment.
fn run_job(
    program: ShpProgram<'_>,
    topology: &Arc<Topology>,
    initial_assignment: Vec<BucketId>,
    num_workers: usize,
    metrics: &mut ExecutionMetrics,
    history: &mut Vec<DistributedIterationStats>,
) -> Vec<BucketId> {
    let graph = program.graph;
    let num_data = graph.num_data();
    let values: Vec<ShpValue> = initial_assignment
        .into_iter()
        .map(|bucket| ShpValue::Data {
            bucket,
            proposal: None,
        })
        .chain(std::iter::repeat_n(ShpValue::Query, graph.num_queries()))
        .collect();
    let engine_config = EngineConfig::new(num_workers, program.max_iterations * 4 + 4);
    let mut engine = Engine::new(program, Arc::clone(topology), values, engine_config);
    engine.run();

    let base = history.len();
    for stat in &engine.global().history {
        history.push(DistributedIterationStats {
            iteration: base + stat.iteration,
            moved: stat.moved,
            fanout: stat.fanout,
        });
    }
    metrics.absorb(engine.metrics());

    engine
        .values()
        .into_iter()
        .take(num_data)
        .map(|v| match v {
            ShpValue::Data { bucket, .. } => bucket,
            ShpValue::Query => unreachable!("data vertices occupy the first num_data slots"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shp_hypergraph::GraphBuilder;

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
    fn distributed_direct_reduces_fanout() {
        let graph = community_graph(4, 8);
        let config = ShpConfig::direct(4).with_seed(3).with_max_iterations(20);
        let result = partition_distributed(&graph, &config, 4).unwrap();
        assert_eq!(result.partition.num_buckets(), 4);
        let first = result.history.first().unwrap().fanout;
        assert!(
            result.final_fanout < first,
            "fanout should improve: initial {first}, final {}",
            result.final_fanout
        );
        assert!(result.metrics.total_messages() > 0);
        assert!(!result.history.is_empty());
    }

    #[test]
    fn distributed_recursive_reaches_k_buckets() {
        let graph = community_graph(8, 6);
        let config = ShpConfig::recursive_bisection(8)
            .with_seed(5)
            .with_max_iterations(10);
        let result = partition_distributed(&graph, &config, 4).unwrap();
        assert_eq!(result.partition.num_buckets(), 8);
        assert!(result.partition.bucket_weights().iter().all(|&w| w > 0));
        assert!(result.final_fanout < 4.0);
    }

    #[test]
    fn distributed_results_do_not_depend_on_worker_count() {
        let graph = community_graph(4, 6);
        let config = ShpConfig::direct(4).with_seed(9).with_max_iterations(8);
        let one = partition_distributed(&graph, &config, 1).unwrap();
        let four = partition_distributed(&graph, &config, 4).unwrap();
        let eight = partition_distributed(&graph, &config, 8).unwrap();
        assert_eq!(one.partition.assignment(), four.partition.assignment());
        assert_eq!(four.partition.assignment(), eight.partition.assignment());
    }

    #[test]
    fn communication_volume_is_bounded_by_fanout_times_edges() {
        // Section 3.3: the heavy superstep sends at most fanout·|E| neighbor-data entries; in
        // bytes this is 8·fanout·|E| with our 8-byte entries, plus |E| bucket messages of
        // 4 bytes. Check the recorded totals stay within this bound per iteration.
        let graph = community_graph(4, 8);
        let config = ShpConfig::direct(4).with_seed(1).with_max_iterations(5);
        let result = partition_distributed(&graph, &config, 4).unwrap();
        let iterations = result.history.len() as u64;
        let k = 4u64;
        let bound_per_iter = 4 * graph.num_edges() as u64 + 8 * k * graph.num_edges() as u64;
        assert!(
            result.metrics.total_bytes() <= bound_per_iter * iterations,
            "bytes {} exceed bound {}",
            result.metrics.total_bytes(),
            bound_per_iter * iterations
        );
    }

    #[test]
    fn matrix_swap_strategy_also_works_distributed() {
        let graph = community_graph(4, 6);
        let config = ShpConfig::direct(4)
            .with_seed(2)
            .with_max_iterations(15)
            .with_swap_strategy(SwapStrategy::Matrix);
        let result = partition_distributed(&graph, &config, 2).unwrap();
        let first = result.history.first().unwrap().fanout;
        assert!(result.final_fanout <= first);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let graph = community_graph(2, 4);
        assert!(partition_distributed(&graph, &ShpConfig::direct(0), 2).is_err());
    }

    #[test]
    fn zero_workers_are_rejected_by_name() {
        let graph = community_graph(2, 4);
        match partition_distributed(&graph, &ShpConfig::direct(2), 0) {
            Err(ShpError::InvalidConfig(msg)) => assert!(msg.contains("num_workers"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn communication_accounting_is_pinned_per_superstep() {
        // Two iterations of direct k=2: bucket broadcasts (15 edges × 4 bytes), neighbor data
        // (8 bytes per entry, per edge), two silent supersteps, then the halting superstep's
        // bucket broadcast. Vertex v lives on worker v mod W; data 0..7, queries 7..12.
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1, 2]);
        b.add_query([1u32, 2, 3, 4]);
        b.add_query([3u32, 4]);
        b.add_query([0u32, 5, 6]);
        b.add_query([5u32, 6, 4]);
        let graph = b.build().unwrap();
        let config = ShpConfig::direct(2).with_seed(3).with_max_iterations(2);
        // Per superstep: (active_vertices, max_worker_vertices, messages_sent,
        // remote_messages, bytes_sent, remote_bytes).
        type Row = (usize, usize, u64, u64, u64, u64);
        let expected: [(usize, [Row; 9]); 3] = [
            (
                1,
                [
                    (12, 12, 15, 0, 60, 0),
                    (12, 12, 15, 0, 192, 0),
                    (12, 12, 0, 0, 0, 0),
                    (12, 12, 0, 0, 0, 0),
                    (12, 12, 15, 0, 60, 0),
                    (12, 12, 15, 0, 168, 0),
                    (12, 12, 0, 0, 0, 0),
                    (12, 12, 0, 0, 0, 0),
                    (12, 12, 15, 0, 60, 0),
                ],
            ),
            (
                2,
                [
                    (12, 6, 15, 8, 60, 32),
                    (12, 6, 15, 8, 192, 104),
                    (12, 6, 0, 0, 0, 0),
                    (12, 6, 0, 0, 0, 0),
                    (12, 6, 15, 8, 60, 32),
                    (12, 6, 15, 8, 168, 88),
                    (12, 6, 0, 0, 0, 0),
                    (12, 6, 0, 0, 0, 0),
                    (12, 6, 15, 8, 60, 32),
                ],
            ),
            (
                3,
                [
                    (12, 4, 15, 11, 60, 44),
                    (12, 4, 15, 11, 192, 136),
                    (12, 4, 0, 0, 0, 0),
                    (12, 4, 0, 0, 0, 0),
                    (12, 4, 15, 11, 60, 44),
                    (12, 4, 15, 11, 168, 120),
                    (12, 4, 0, 0, 0, 0),
                    (12, 4, 0, 0, 0, 0),
                    (12, 4, 15, 11, 60, 44),
                ],
            ),
        ];
        for (workers, rows) in expected {
            let result = partition_distributed(&graph, &config, workers).unwrap();
            assert_eq!(result.partition.assignment(), &[1, 1, 1, 1, 0, 1, 1]);
            let actual: Vec<Row> = result
                .metrics
                .supersteps
                .iter()
                .map(|s| {
                    (
                        s.active_vertices,
                        s.max_worker_vertices,
                        s.messages_sent,
                        s.remote_messages,
                        s.bytes_sent,
                        s.remote_bytes,
                    )
                })
                .collect();
            assert_eq!(actual, rows, "workers={workers}");
        }
    }

    #[test]
    fn strict_balance_mode_is_rejected_by_name() {
        let graph = community_graph(2, 4);
        let config = ShpConfig::direct(2).with_balance_mode(BalanceMode::Strict);
        match partition_distributed(&graph, &config, 2) {
            Err(ShpError::InvalidConfig(msg)) => assert!(msg.contains("balance_mode"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn imbalanced_moves_are_rejected_by_name() {
        let graph = community_graph(2, 4);
        let config = ShpConfig {
            allow_imbalanced_moves: true,
            ..ShpConfig::recursive_bisection(2)
        };
        match partition_distributed(&graph, &config, 2) {
            Err(ShpError::InvalidConfig(msg)) => {
                assert!(msg.contains("allow_imbalanced_moves"), "{msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
