//! The per-vertex compute context handed to [`crate::VertexProgram::compute`].
//!
//! A vertex communicates only by broadcasting to its out-neighbors: the context posts the
//! message once into its worker's post list and counts the per-out-edge traffic there (see
//! [`crate::routing`]). Out-neighbors read the post in the next superstep.

use crate::program::VertexProgram;
use crate::routing::WorkerPosts;
use crate::topology::Topology;

/// Everything a vertex may do during its compute call: inspect the superstep and the global
/// value, look at its out-neighbors, broadcast messages, contribute to the aggregate, and vote
/// to halt. Mirrors the API surface Giraph exposes to a `Computation`.
pub struct Context<'a, P: VertexProgram + ?Sized> {
    pub(crate) program: &'a P,
    pub(crate) superstep: usize,
    pub(crate) global: &'a P::Global,
    pub(crate) topology: &'a Topology,
    /// Per vertex, how many of its out-neighbors live on another worker.
    pub(crate) remote_degrees: &'a [u32],
    pub(crate) vertex: u32,
    pub(crate) posts: &'a mut WorkerPosts<P::Message>,
    pub(crate) aggregate: &'a mut P::Aggregate,
    pub(crate) halt: &'a mut bool,
}

impl<'a, P: VertexProgram + ?Sized> Context<'a, P> {
    /// The current superstep number (0-based).
    pub fn superstep(&self) -> usize {
        self.superstep
    }

    /// The global value computed by the master after the previous superstep.
    pub fn global(&self) -> &P::Global {
        self.global
    }

    /// The id of the vertex currently being computed.
    pub fn vertex(&self) -> u32 {
        self.vertex
    }

    /// Number of vertices in the whole graph.
    pub fn num_vertices(&self) -> usize {
        self.topology.num_vertices()
    }

    /// Out-neighbors of the current vertex.
    pub fn neighbors(&self) -> &'a [u32] {
        self.topology.neighbors(self.vertex)
    }

    /// Out-degree of the current vertex.
    pub fn degree(&self) -> usize {
        self.topology.degree(self.vertex)
    }

    /// Sends `message` to every out-neighbor of the current vertex, delivered at the start of
    /// the next superstep. It is stored once; each out-edge counts as one message of
    /// [`crate::VertexProgram::message_size`] bytes.
    pub fn send_to_neighbors(&mut self, message: P::Message) {
        let degree = self.degree();
        if degree == 0 {
            return;
        }
        let size = self.program.message_size(&message);
        let remote = self.remote_degrees[self.vertex as usize] as usize;
        self.posts.post(message, size, degree, remote);
    }

    /// Contributes a value to this superstep's aggregate (merged with
    /// [`crate::VertexProgram::merge_aggregates`]).
    pub fn aggregate(&mut self, contribution: P::Aggregate) {
        let current = std::mem::take(self.aggregate);
        *self.aggregate = self.program.merge_aggregates(current, contribution);
    }

    /// Votes to halt: the vertex will not be computed in later supersteps unless it receives a
    /// message.
    pub fn vote_to_halt(&mut self) {
        *self.halt = true;
    }
}
