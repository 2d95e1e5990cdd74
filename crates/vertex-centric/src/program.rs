//! The [`VertexProgram`] trait: the user-defined part of a vertex-centric computation.

use crate::context::Context;

/// Decision returned by [`VertexProgram::master_compute`] after every superstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MasterOutcome<G> {
    /// Continue with the next superstep, broadcasting the given global value to all vertices.
    Continue(G),
    /// Stop the computation after this superstep, leaving the previous global value in place.
    Halt,
}

/// A vertex-centric program in the Pregel/Giraph mold.
///
/// Types:
/// * `Value` — mutable per-vertex state (e.g. current bucket, cached neighbor data).
/// * `Message` — messages a vertex broadcasts to its out-neighbors; read at the next superstep.
/// * `Aggregate` — per-superstep aggregation contributed by vertices and merged pairwise,
///   corresponding to Giraph aggregators (SHP uses it for the swap matrix / gain histograms).
/// * `Global` — the value computed by the master from the merged aggregate and broadcast to
///   every vertex for the next superstep (SHP uses it for move probabilities).
///
/// The engine calls [`compute`](VertexProgram::compute) for every *active* vertex each
/// superstep. A vertex is active if it received a message or has not voted to halt.
pub trait VertexProgram: Sync {
    /// Mutable per-vertex state.
    type Value: Clone + Send + Sync;
    /// Message type a vertex broadcasts to its out-neighbors.
    type Message: Send + Sync;
    /// Per-superstep aggregate contributed by vertices, merged pairwise by the engine.
    type Aggregate: Clone + Send + Default;
    /// Global value computed by the master and visible to every vertex in the next superstep.
    type Global: Clone + Send + Sync + Default;

    /// Per-vertex compute function executed once per superstep for every active vertex.
    ///
    /// `messages` borrows what the vertex's in-neighbors broadcast in the previous superstep,
    /// in ascending sender order (one sender's messages in send order).
    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        vertex: u32,
        value: &mut Self::Value,
        messages: &[&Self::Message],
    );

    /// Merges two partial aggregates. Must be associative and commutative.
    fn merge_aggregates(&self, a: Self::Aggregate, b: Self::Aggregate) -> Self::Aggregate;

    /// Master compute hook, run after every superstep with the merged aggregate. Returns the
    /// global value for the next superstep or halts the computation.
    fn master_compute(
        &self,
        superstep: usize,
        aggregate: Self::Aggregate,
        previous_global: &Self::Global,
    ) -> MasterOutcome<Self::Global>;

    /// Estimated wire size of a message in bytes, used for communication accounting only.
    fn message_size(&self, _message: &Self::Message) -> usize {
        std::mem::size_of::<Self::Message>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_outcome_equality() {
        let a: MasterOutcome<u32> = MasterOutcome::Continue(5);
        let b: MasterOutcome<u32> = MasterOutcome::Continue(5);
        assert_eq!(a, b);
        assert_ne!(a, MasterOutcome::Halt);
    }
}
