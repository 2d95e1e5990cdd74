//! The BSP engine: worker partitioning, superstep loop, message delivery, master compute.

use crate::context::Context;
use crate::metrics::{ExecutionMetrics, SuperstepMetrics};
use crate::program::{MasterOutcome, VertexProgram};
use crate::routing::{gather, WorkerPosts};
use crate::topology::Topology;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of an engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of simulated workers (machines). Vertex `v` is owned by worker `v mod num_workers`,
    /// matching Giraph's pseudo-random vertex distribution.
    pub num_workers: usize,
    /// Hard cap on the number of supersteps; the run also stops earlier if the master halts or
    /// every vertex has voted to halt with no messages in flight.
    pub max_supersteps: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_workers: 4,
            max_supersteps: 1_000,
        }
    }
}

impl EngineConfig {
    /// Creates a configuration with the given worker count and superstep limit.
    pub fn new(num_workers: usize, max_supersteps: usize) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        EngineConfig {
            num_workers,
            max_supersteps,
        }
    }
}

/// Per-worker state: the values and halt flags of the vertices it owns.
struct WorkerState<V> {
    /// Values of owned vertices, indexed by local index (`vertex / num_workers`).
    values: Vec<V>,
    /// Halt flags of owned vertices.
    halted: Vec<bool>,
}

/// Result produced by one worker for one superstep.
struct WorkerStepResult<M, A> {
    posts: WorkerPosts<M>,
    aggregate: A,
    active: usize,
}

/// A vertex-centric BSP engine executing a [`VertexProgram`] over a [`Topology`].
///
/// Messages are posted once and pulled by reference: a vertex's broadcast is stored in its
/// worker's post list, and in the next superstep each receiver reads the posts of its
/// in-neighbors, in ascending sender order.
///
/// # Example
///
/// Counting each vertex's degree via messages (every vertex broadcasts to its neighbors in
/// superstep 0 and counts what it reads in superstep 1):
///
/// ```
/// use shp_vertex_centric::{Context, Engine, EngineConfig, MasterOutcome, TopologyBuilder, VertexProgram};
///
/// struct DegreeCount;
/// impl VertexProgram for DegreeCount {
///     type Value = u32;
///     type Message = u32;
///     type Aggregate = u64;
///     type Global = ();
///
///     fn compute(&self, ctx: &mut Context<'_, Self>, _v: u32, value: &mut u32, msgs: &[&u32]) {
///         if ctx.superstep() == 0 {
///             ctx.send_to_neighbors(1);
///         } else {
///             *value = msgs.len() as u32;
///             ctx.aggregate(msgs.len() as u64);
///             ctx.vote_to_halt();
///         }
///     }
///     fn merge_aggregates(&self, a: u64, b: u64) -> u64 { a + b }
///     fn master_compute(&self, step: usize, _agg: u64, _g: &()) -> MasterOutcome<()> {
///         if step >= 1 { MasterOutcome::Halt } else { MasterOutcome::Continue(()) }
///     }
/// }
///
/// let mut t = TopologyBuilder::new(3);
/// t.add_undirected_edge(0, 1);
/// t.add_undirected_edge(1, 2);
/// let mut engine = Engine::new(DegreeCount, t.build(), vec![0; 3], EngineConfig::new(2, 10));
/// engine.run();
/// assert_eq!(engine.values(), vec![1, 2, 1]);
/// // Three broadcasts stored once each, counted once per out-edge: 4 messages.
/// assert_eq!(engine.metrics().supersteps[0].messages_sent, 4);
/// ```
pub struct Engine<P: VertexProgram> {
    program: P,
    config: EngineConfig,
    topology: Arc<Topology>,
    /// Per vertex, how many of its out-neighbors live on another worker.
    remote_degrees: Vec<u32>,
    workers: Vec<WorkerState<P::Value>>,
    global: P::Global,
    metrics: ExecutionMetrics,
    /// What each worker posted in the last superstep, read in the next one.
    posts: Vec<WorkerPosts<P::Message>>,
    superstep: usize,
}

impl<P: VertexProgram> Engine<P> {
    /// Creates an engine over `topology` with one initial value per vertex. Pass an
    /// `Arc<Topology>` to share one topology (and its transpose) between several runs.
    ///
    /// # Panics
    /// Panics if `initial_values.len() != topology.num_vertices()`.
    pub fn new(
        program: P,
        topology: impl Into<Arc<Topology>>,
        initial_values: Vec<P::Value>,
        config: EngineConfig,
    ) -> Self {
        let topology = topology.into();
        assert_eq!(
            initial_values.len(),
            topology.num_vertices(),
            "one initial value per vertex required"
        );
        let w = config.num_workers;
        let remote_degrees = (0..topology.num_vertices() as u32)
            .map(|v| {
                let worker = v as usize % w;
                topology
                    .neighbors(v)
                    .iter()
                    .filter(|&&n| n as usize % w != worker)
                    .count() as u32
            })
            .collect();
        let mut workers: Vec<WorkerState<P::Value>> = (0..w)
            .map(|_| WorkerState {
                values: Vec::new(),
                halted: Vec::new(),
            })
            .collect();
        for (v, value) in initial_values.into_iter().enumerate() {
            let worker = v % w;
            workers[worker].values.push(value);
            workers[worker].halted.push(false);
        }
        Engine {
            program,
            config,
            topology,
            remote_degrees,
            workers,
            global: P::Global::default(),
            metrics: ExecutionMetrics::new(w),
            posts: (0..w).map(|_| WorkerPosts::new()).collect(),
            superstep: 0,
        }
    }

    /// The number of vertices managed by the engine.
    pub fn num_vertices(&self) -> usize {
        self.topology.num_vertices()
    }

    /// The current global value (set by the last master compute).
    pub fn global(&self) -> &P::Global {
        &self.global
    }

    /// Execution metrics recorded so far.
    pub fn metrics(&self) -> &ExecutionMetrics {
        &self.metrics
    }

    /// The current value of vertex `v`.
    pub fn value(&self, v: u32) -> &P::Value {
        let w = v as usize % self.config.num_workers;
        let local = v as usize / self.config.num_workers;
        &self.workers[w].values[local]
    }

    /// All vertex values, in vertex-id order.
    pub fn values(&self) -> Vec<P::Value> {
        (0..self.num_vertices() as u32)
            .map(|v| self.value(v).clone())
            .collect()
    }

    /// Runs supersteps until the master halts, every vertex is halted with no pending messages,
    /// or the configured superstep limit is reached. Returns the number of supersteps executed.
    pub fn run(&mut self) -> usize {
        let mut executed = 0;
        while self.superstep < self.config.max_supersteps {
            let (halt, any_active) = self.run_superstep();
            executed += 1;
            if halt || !any_active {
                break;
            }
        }
        executed
    }

    /// Runs a single superstep. Returns `(master_halted, any_vertex_active_or_messages_pending)`.
    pub fn run_superstep(&mut self) -> (bool, bool) {
        let start = Instant::now();
        let num_workers = self.config.num_workers;
        let program = &self.program;
        let topology = &*self.topology;
        let remote_degrees = &self.remote_degrees[..];
        let global = &self.global;
        let superstep = self.superstep;
        let previous = &self.posts[..];
        // When nobody posted, no vertex has anything to read: skip every in-edge scan.
        let any_posted = previous.iter().any(|p| !p.is_empty());

        // Each simulated worker processes its vertices on its own real thread (one scoped
        // thread per worker, results collected in worker-index order so the merge below is
        // deterministic regardless of which worker finishes first).
        let work: Vec<&mut WorkerState<P::Value>> = self.workers.iter_mut().collect();
        let results: Vec<WorkerStepResult<P::Message, P::Aggregate>> =
            rayon::pool::map_vec(work, num_workers, |worker_idx, state| {
                let mut posts = WorkerPosts::new();
                let mut inbox: Vec<&P::Message> = Vec::new();
                let mut aggregate = P::Aggregate::default();
                let mut active = 0usize;
                for local in 0..state.values.len() {
                    let vertex = (local * num_workers + worker_idx) as u32;
                    if any_posted {
                        gather(&mut inbox, topology.in_neighbors(vertex), previous);
                    }
                    if state.halted[local] && inbox.is_empty() {
                        posts.end_vertex();
                        continue;
                    }
                    active += 1;
                    let mut halt = false;
                    {
                        let mut ctx = Context {
                            program,
                            superstep,
                            global,
                            topology,
                            remote_degrees,
                            vertex,
                            posts: &mut posts,
                            aggregate: &mut aggregate,
                            halt: &mut halt,
                        };
                        program.compute(&mut ctx, vertex, &mut state.values[local], &inbox);
                    }
                    state.halted[local] = halt;
                    posts.end_vertex();
                }
                WorkerStepResult {
                    posts,
                    aggregate,
                    active,
                }
            });

        // Collect metrics and the merged aggregate deterministically (worker-index order).
        let mut step_metrics = SuperstepMetrics {
            superstep,
            ..Default::default()
        };
        let mut merged = P::Aggregate::default();
        let mut posts = Vec::with_capacity(num_workers);
        for result in results {
            step_metrics.active_vertices += result.active;
            step_metrics.max_worker_vertices = step_metrics.max_worker_vertices.max(result.active);
            step_metrics.messages_sent += result.posts.traffic.messages;
            step_metrics.remote_messages += result.posts.traffic.remote_messages;
            step_metrics.bytes_sent += result.posts.traffic.bytes;
            step_metrics.remote_bytes += result.posts.traffic.remote_bytes;
            merged = self.program.merge_aggregates(merged, result.aggregate);
            posts.push(result.posts);
        }

        // This superstep's posts become the next superstep's input.
        self.posts = posts;

        // Master compute.
        let master_halt = match self.program.master_compute(superstep, merged, &self.global) {
            MasterOutcome::Continue(next_global) => {
                self.global = next_global;
                false
            }
            MasterOutcome::Halt => true,
        };

        step_metrics.duration = start.elapsed();
        self.metrics.supersteps.push(step_metrics);
        self.superstep += 1;

        let pending_messages = self.posts.iter().any(|p| !p.is_empty());
        let any_unhalted = self.workers.iter().any(|w| w.halted.iter().any(|&h| !h));
        (master_halt, pending_messages || any_unhalted)
    }

    /// Consumes the engine and returns `(vertex values, global value, metrics)`.
    pub fn into_parts(self) -> (Vec<P::Value>, P::Global, ExecutionMetrics) {
        let values = self.values();
        (values, self.global, self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    /// Connected components by label propagation: every vertex repeatedly adopts the minimum
    /// id it has seen and halts when its label stops changing.
    struct MinLabel;

    impl VertexProgram for MinLabel {
        type Value = u32;
        type Message = u32;
        type Aggregate = u64; // number of label changes this superstep
        type Global = ();

        fn compute(&self, ctx: &mut Context<'_, Self>, _v: u32, value: &mut u32, msgs: &[&u32]) {
            let incoming_min = msgs.iter().map(|&&m| m).min();
            let mut changed = ctx.superstep() == 0;
            if let Some(m) = incoming_min {
                if m < *value {
                    *value = m;
                    changed = true;
                }
            }
            if changed {
                ctx.aggregate(1);
                ctx.send_to_neighbors(*value);
            }
            ctx.vote_to_halt();
        }

        fn merge_aggregates(&self, a: u64, b: u64) -> u64 {
            a + b
        }

        fn master_compute(&self, _s: usize, _agg: u64, _g: &()) -> MasterOutcome<()> {
            MasterOutcome::Continue(())
        }
    }

    fn two_components_topology() -> Topology {
        // Component {0,2,4} in a path, component {1,3} in an edge (ids chosen so both workers
        // own vertices of both components).
        let mut b = TopologyBuilder::new(5);
        b.add_undirected_edge(0, 2);
        b.add_undirected_edge(2, 4);
        b.add_undirected_edge(1, 3);
        b.build()
    }

    #[test]
    fn connected_components_converge() {
        let topology = two_components_topology();
        let initial: Vec<u32> = (0..5).collect();
        let mut engine = Engine::new(MinLabel, topology, initial, EngineConfig::new(2, 50));
        let steps = engine.run();
        assert!(steps < 50, "should converge, ran {steps} supersteps");
        assert_eq!(engine.values(), vec![0, 1, 0, 1, 0]);

        // Star graph: the hub reads every leaf's label and the leaves converge through it.
        let mut b = TopologyBuilder::new(9);
        for leaf in 1..9 {
            b.add_undirected_edge(0, leaf);
        }
        let initial: Vec<u32> = (0..9).collect();
        let mut engine = Engine::new(MinLabel, b.build(), initial, EngineConfig::new(2, 50));
        engine.run();
        assert!(engine.values().iter().all(|&v| v == 0));
    }

    #[test]
    fn results_are_independent_of_worker_count() {
        for workers in [1, 2, 3, 5, 8] {
            let topology = two_components_topology();
            let initial: Vec<u32> = (0..5).collect();
            let mut engine =
                Engine::new(MinLabel, topology, initial, EngineConfig::new(workers, 50));
            engine.run();
            assert_eq!(engine.values(), vec![0, 1, 0, 1, 0], "workers={workers}");
        }
    }

    #[test]
    fn metrics_track_messages_and_remote_fraction() {
        let topology = two_components_topology();
        let initial: Vec<u32> = (0..5).collect();
        let mut engine = Engine::new(MinLabel, topology, initial, EngineConfig::new(2, 50));
        engine.run();
        let metrics = engine.metrics();
        assert!(metrics.total_messages() > 0);
        assert!(metrics.total_bytes() >= metrics.total_messages() * 4);
        assert!(metrics.total_remote_messages() <= metrics.total_messages());
        assert_eq!(metrics.num_workers, 2);
        assert!(metrics.num_supersteps() >= 2);
        // Superstep 0 runs every vertex.
        assert_eq!(metrics.supersteps[0].active_vertices, 5);
    }

    #[test]
    fn single_worker_sends_no_remote_messages() {
        let topology = two_components_topology();
        let initial: Vec<u32> = (0..5).collect();
        let mut engine = Engine::new(MinLabel, topology, initial, EngineConfig::new(1, 50));
        engine.run();
        assert_eq!(engine.metrics().total_remote_messages(), 0);
        assert!(engine.metrics().total_messages() > 0);
    }

    /// Program that halts via master decision after a fixed number of supersteps, used to test
    /// the master-driven termination path and global broadcast.
    struct CountDown {
        limit: usize,
    }

    impl VertexProgram for CountDown {
        type Value = usize;
        type Message = ();
        type Aggregate = usize;
        type Global = usize;

        fn compute(&self, ctx: &mut Context<'_, Self>, _v: u32, value: &mut usize, _msgs: &[&()]) {
            // Record the global value observed this superstep; never vote to halt.
            *value = *ctx.global();
            ctx.aggregate(1);
        }

        fn merge_aggregates(&self, a: usize, b: usize) -> usize {
            a + b
        }

        fn master_compute(&self, superstep: usize, agg: usize, _g: &usize) -> MasterOutcome<usize> {
            assert!(agg > 0);
            if superstep + 1 >= self.limit {
                MasterOutcome::Halt
            } else {
                MasterOutcome::Continue(superstep + 1)
            }
        }
    }

    #[test]
    fn master_halt_and_global_broadcast() {
        let topology = TopologyBuilder::new(4).build();
        let mut engine = Engine::new(
            CountDown { limit: 3 },
            topology,
            vec![0usize; 4],
            EngineConfig::new(2, 100),
        );
        let steps = engine.run();
        assert_eq!(steps, 3);
        // In the last superstep (index 2) vertices observed the global set after superstep 1,
        // which is 2.
        assert!(engine.values().iter().all(|&v| v == 2));
        assert_eq!(engine.metrics().num_supersteps(), 3);
    }

    #[test]
    fn value_accessor_matches_values_order() {
        let topology = TopologyBuilder::new(7).build();
        let initial: Vec<u32> = (0..7).map(|v| v * 10).collect();
        let engine = Engine::new(
            MinLabel,
            topology,
            initial.clone(),
            EngineConfig::new(3, 10),
        );
        for v in 0..7u32 {
            assert_eq!(*engine.value(v), initial[v as usize]);
        }
        assert_eq!(engine.values(), initial);
    }

    #[test]
    fn into_parts_returns_everything() {
        let topology = two_components_topology();
        let mut engine = Engine::new(
            MinLabel,
            topology,
            (0..5).collect(),
            EngineConfig::new(2, 50),
        );
        engine.run();
        let (values, _global, metrics) = engine.into_parts();
        assert_eq!(values, vec![0, 1, 0, 1, 0]);
        assert!(metrics.num_supersteps() > 0);
    }

    /// Records, in superstep 1, the ids its neighbors sent in superstep 0, in arrival order.
    /// Vertex 5 sends twice: its id, then its id plus 100.
    struct ArrivalOrder;

    impl VertexProgram for ArrivalOrder {
        type Value = Vec<u32>;
        type Message = u32;
        type Aggregate = ();
        type Global = ();

        fn compute(&self, ctx: &mut Context<'_, Self>, v: u32, value: &mut Vec<u32>, m: &[&u32]) {
            if ctx.superstep() == 0 {
                ctx.send_to_neighbors(v);
                if v == 5 {
                    ctx.send_to_neighbors(v + 100);
                }
            } else {
                *value = m.iter().map(|&&id| id).collect();
                ctx.vote_to_halt();
            }
        }

        fn merge_aggregates(&self, _a: (), _b: ()) {}

        fn master_compute(&self, _s: usize, _agg: (), _g: &()) -> MasterOutcome<()> {
            MasterOutcome::Continue(())
        }
    }

    #[test]
    fn messages_arrive_in_ascending_sender_order_for_every_worker_count() {
        // A hub whose neighbors are added in descending id order: arrival order must follow
        // the sender ids, not the edge order or the worker layout, and sender 5's two
        // messages must arrive together, in send order.
        let mut b = TopologyBuilder::new(10);
        for leaf in (1..10).rev() {
            b.add_undirected_edge(0, leaf);
        }
        for workers in [1, 2, 3, 4, 7] {
            let mut engine = Engine::new(
                ArrivalOrder,
                b.clone().build(),
                vec![Vec::new(); 10],
                EngineConfig::new(workers, 10),
            );
            engine.run();
            assert_eq!(
                engine.value(0),
                &[1, 2, 3, 4, 5, 105, 6, 7, 8, 9],
                "workers={workers}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one initial value per vertex")]
    fn mismatched_initial_values_panic() {
        let topology = TopologyBuilder::new(3).build();
        let _ = Engine::new(MinLabel, topology, vec![0u32; 2], EngineConfig::new(1, 1));
    }
}
