//! The bipartite-graph representation of a hypergraph.
//!
//! A [`BipartiteGraph`] stores the query→data and data→query adjacency of the bipartite graph
//! `G = (Q ∪ D, E)` in two compressed sparse row (CSR) arrays. The structure is immutable after
//! construction; use [`crate::GraphBuilder`] to assemble one incrementally.

use crate::error::{GraphError, Result};
use crate::storage::Section;

/// Identifier of a query vertex (equivalently, a hyperedge). Dense, `0..num_queries`.
pub type QueryId = u32;

/// Identifier of a data vertex (a hypergraph vertex). Dense, `0..num_data`.
pub type DataId = u32;

/// Borrowed raw CSR components: `(query_offsets, query_adjacency, data_offsets,
/// data_adjacency, data_weights)`.
pub(crate) type RawCsr<'a> = (
    &'a [u64],
    &'a [DataId],
    &'a [u64],
    &'a [QueryId],
    Option<&'a [u32]>,
);

/// An immutable bipartite graph in CSR form with adjacency stored in both directions.
///
/// The graph is equivalent to a hypergraph whose vertices are the data vertices and whose
/// hyperedges are the queries: hyperedge `q` spans exactly the data vertices adjacent to query
/// vertex `q` (Section 1 of the paper).
///
/// # Example
///
/// ```
/// use shp_hypergraph::GraphBuilder;
///
/// // The six-vertex example of Figure 1 in the paper: queries {1,2,6}, {1,2,3,4}, {4,5,6}
/// // (ids shifted to be 0-based).
/// let mut builder = GraphBuilder::new();
/// builder.add_query([0, 1, 5]);
/// builder.add_query([0, 1, 2, 3]);
/// builder.add_query([3, 4, 5]);
/// let graph = builder.build().unwrap();
///
/// assert_eq!(graph.num_queries(), 3);
/// assert_eq!(graph.num_data(), 6);
/// assert_eq!(graph.num_edges(), 10);
/// assert_eq!(graph.query_neighbors(1), &[0, 1, 2, 3]);
/// assert_eq!(graph.data_neighbors(0), &[0, 1]);
/// ```
/// Every section is a `Section`: either heap-owned (builders, text readers, the copying
/// binary reader) or a zero-copy borrowed view of a memory-mapped `.shpb` file
/// ([`crate::io::map_shpb_file`]). Equality compares contents, so an owned graph and a mapped
/// view of its serialization are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteGraph {
    /// CSR offsets for query → data adjacency; length `num_queries + 1`.
    query_offsets: Section<u64>,
    /// Concatenated data-vertex neighbor lists of all queries.
    query_adjacency: Section<DataId>,
    /// CSR offsets for data → query adjacency; length `num_data + 1`.
    data_offsets: Section<u64>,
    /// Concatenated query-vertex neighbor lists of all data vertices.
    data_adjacency: Section<QueryId>,
    /// Optional per-data-vertex weights (uniform weight 1 when `None`).
    data_weights: Option<Section<u32>>,
}

impl BipartiteGraph {
    /// Assembles a graph directly from CSR components.
    ///
    /// This is the low-level constructor used by [`crate::GraphBuilder`] and by the generators;
    /// it validates structural consistency of the two adjacency directions' sizes but does not
    /// verify that they encode the same edge set (the builder guarantees that).
    pub(crate) fn from_csr(
        query_offsets: Vec<u64>,
        query_adjacency: Vec<DataId>,
        data_offsets: Vec<u64>,
        data_adjacency: Vec<QueryId>,
        data_weights: Option<Vec<u32>>,
    ) -> Self {
        debug_assert_eq!(
            *query_offsets.last().unwrap_or(&0),
            query_adjacency.len() as u64
        );
        debug_assert_eq!(
            *data_offsets.last().unwrap_or(&0),
            data_adjacency.len() as u64
        );
        debug_assert_eq!(query_adjacency.len(), data_adjacency.len());
        if let Some(w) = &data_weights {
            debug_assert_eq!(w.len() + 1, data_offsets.len());
        }
        BipartiteGraph {
            query_offsets: Section::from(query_offsets),
            query_adjacency: Section::from(query_adjacency),
            data_offsets: Section::from(data_offsets),
            data_adjacency: Section::from(data_adjacency),
            data_weights: data_weights.map(Section::from),
        }
    }

    /// Assembles a graph directly from backing [`Section`]s — the constructor behind the
    /// zero-copy mapped path. The caller (the `.shpb` reader) must have validated the CSR
    /// structural contract; accessors trust offsets to be monotone and in-bounds.
    pub(crate) fn from_sections(
        query_offsets: Section<u64>,
        query_adjacency: Section<DataId>,
        data_offsets: Section<u64>,
        data_adjacency: Section<QueryId>,
        data_weights: Option<Section<u32>>,
    ) -> Self {
        BipartiteGraph {
            query_offsets,
            query_adjacency,
            data_offsets,
            data_adjacency,
            data_weights,
        }
    }

    /// Borrows the raw CSR components `(query_offsets, query_adjacency, data_offsets,
    /// data_adjacency, data_weights)` — the exact arrays the `.shpb` binary container
    /// serializes.
    pub(crate) fn raw_csr(&self) -> RawCsr<'_> {
        (
            self.query_offsets.as_slice(),
            self.query_adjacency.as_slice(),
            self.data_offsets.as_slice(),
            self.data_adjacency.as_slice(),
            self.data_weights.as_deref(),
        )
    }

    /// Number of query vertices (hyperedges), `|Q|`.
    #[inline]
    pub fn num_queries(&self) -> usize {
        self.query_offsets.len() - 1
    }

    /// Number of data vertices (hypergraph vertices), `|D|`.
    #[inline]
    pub fn num_data(&self) -> usize {
        self.data_offsets.len() - 1
    }

    /// Number of bipartite edges, `|E|` (equivalently the total size of all hyperedges).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.query_adjacency.len()
    }

    /// The data vertices adjacent to query `q` — i.e. the pins of hyperedge `q`.
    ///
    /// # Panics
    /// Panics if `q >= num_queries()`.
    #[inline]
    pub fn query_neighbors(&self, q: QueryId) -> &[DataId] {
        let start = self.query_offsets[q as usize] as usize;
        let end = self.query_offsets[q as usize + 1] as usize;
        &self.query_adjacency[start..end]
    }

    /// The query vertices adjacent to data vertex `v` — i.e. the hyperedges containing `v`.
    ///
    /// # Panics
    /// Panics if `v >= num_data()`.
    #[inline]
    pub fn data_neighbors(&self, v: DataId) -> &[QueryId] {
        let start = self.data_offsets[v as usize] as usize;
        let end = self.data_offsets[v as usize + 1] as usize;
        &self.data_adjacency[start..end]
    }

    /// Degree of query vertex `q` (size of hyperedge `q`).
    #[inline]
    pub fn query_degree(&self, q: QueryId) -> usize {
        self.query_neighbors(q).len()
    }

    /// Degree of data vertex `v` (number of hyperedges containing `v`).
    #[inline]
    pub fn data_degree(&self, v: DataId) -> usize {
        self.data_neighbors(v).len()
    }

    /// Weight of data vertex `v`; 1 unless explicit weights were supplied.
    #[inline]
    pub fn data_weight(&self, v: DataId) -> u32 {
        match &self.data_weights {
            Some(w) => w[v as usize],
            None => 1,
        }
    }

    /// Total weight of all data vertices.
    pub fn total_data_weight(&self) -> u64 {
        match &self.data_weights {
            Some(w) => w.iter().map(|&x| x as u64).sum(),
            None => self.num_data() as u64,
        }
    }

    /// Whether explicit data-vertex weights are attached.
    pub fn has_weights(&self) -> bool {
        self.data_weights.is_some()
    }

    /// Iterator over all query ids.
    pub fn queries(&self) -> impl Iterator<Item = QueryId> + '_ {
        0..self.num_queries() as QueryId
    }

    /// Iterator over all data ids.
    pub fn data_vertices(&self) -> impl Iterator<Item = DataId> + '_ {
        0..self.num_data() as DataId
    }

    /// Iterator over every bipartite edge as `(query, data)` pairs, in query order.
    pub fn edges(&self) -> impl Iterator<Item = (QueryId, DataId)> + '_ {
        self.queries()
            .flat_map(move |q| self.query_neighbors(q).iter().map(move |&v| (q, v)))
    }

    /// Maximum query degree (largest hyperedge), 0 for an empty graph.
    pub fn max_query_degree(&self) -> usize {
        self.queries()
            .map(|q| self.query_degree(q))
            .max()
            .unwrap_or(0)
    }

    /// Maximum data degree, 0 for an empty graph.
    pub fn max_data_degree(&self) -> usize {
        self.data_vertices()
            .map(|v| self.data_degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average query degree (average hyperedge size).
    pub fn avg_query_degree(&self) -> f64 {
        if self.num_queries() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_queries() as f64
        }
    }

    /// Average data degree.
    pub fn avg_data_degree(&self) -> f64 {
        if self.num_data() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_data() as f64
        }
    }

    /// Attaches explicit data-vertex weights, replacing any existing weights.
    ///
    /// # Errors
    /// Returns [`GraphError::PartitionLengthMismatch`] if `weights.len() != num_data()`.
    pub fn with_data_weights(mut self, weights: Vec<u32>) -> Result<Self> {
        if weights.len() != self.num_data() {
            return Err(GraphError::PartitionLengthMismatch {
                got: weights.len(),
                expected: self.num_data(),
            });
        }
        self.data_weights = Some(Section::from(weights));
        Ok(self)
    }

    /// Returns the sub-bipartite-graph induced by the given subset of data vertices, together
    /// with the mapping from new (dense) data ids back to the original ids.
    ///
    /// Queries that end up with fewer than `min_query_degree` remaining data neighbors are
    /// dropped (the paper removes queries of degree ≤ 1 since their fanout is fixed). The
    /// subgraph re-numbers both sides densely.
    pub fn induced_subgraph(
        &self,
        data_subset: &[DataId],
        min_query_degree: usize,
    ) -> (BipartiteGraph, Vec<DataId>) {
        let mut new_id = vec![u32::MAX; self.num_data()];
        let mut original: Vec<DataId> = Vec::with_capacity(data_subset.len());
        for &v in data_subset {
            if new_id[v as usize] == u32::MAX {
                new_id[v as usize] = original.len() as u32;
                original.push(v);
            }
        }

        let mut builder =
            crate::builder::GraphBuilder::with_capacity(self.num_queries() / 2, original.len());
        let mut pins: Vec<DataId> = Vec::new();
        for q in self.queries() {
            pins.clear();
            pins.extend(
                self.query_neighbors(q)
                    .iter()
                    .filter(|&&v| new_id[v as usize] != u32::MAX)
                    .map(|&v| new_id[v as usize]),
            );
            if pins.len() >= min_query_degree {
                builder.add_query_slice(&pins);
            }
        }
        if let Some(weights) = &self.data_weights {
            let sub_weights: Vec<u32> = original.iter().map(|&v| weights[v as usize]).collect();
            builder.set_data_weights(sub_weights);
        }
        // Make sure isolated data vertices of the subset are still represented.
        builder.ensure_data_count(original.len());
        let graph = builder
            .build()
            .expect("induced subgraph construction cannot produce out-of-range ids");
        (graph, original)
    }

    /// Produces a copy of the graph with all queries of degree strictly less than `min_degree`
    /// removed (data vertices are kept, so ids remain stable).
    pub fn filter_small_queries(&self, min_degree: usize) -> BipartiteGraph {
        let mut builder =
            crate::builder::GraphBuilder::with_capacity(self.num_queries(), self.num_data());
        for q in self.queries() {
            let pins = self.query_neighbors(q);
            if pins.len() >= min_degree {
                builder.add_query_slice(pins);
            }
        }
        builder.ensure_data_count(self.num_data());
        if let Some(w) = &self.data_weights {
            builder.set_data_weights(w.to_vec());
        }
        builder.build().expect("filtering preserves id validity")
    }

    /// Heap bytes owned by this graph. Useful for the scalability analyses.
    ///
    /// Borrowed (memory-mapped) sections own no heap and report 0 here — their file-backed
    /// footprint is [`BipartiteGraph::mapped_bytes`]. For a fully owned graph this is the
    /// complete CSR footprint, as before.
    pub fn memory_bytes(&self) -> usize {
        self.query_offsets.owned_bytes()
            + self.data_offsets.owned_bytes()
            + self.query_adjacency.owned_bytes()
            + self.data_adjacency.owned_bytes()
            + self.data_weights.as_ref().map_or(0, Section::owned_bytes)
    }

    /// File-backed bytes viewed through memory-mapped sections (0 for a fully owned graph).
    pub fn mapped_bytes(&self) -> usize {
        self.query_offsets.mapped_bytes()
            + self.data_offsets.mapped_bytes()
            + self.query_adjacency.mapped_bytes()
            + self.data_adjacency.mapped_bytes()
            + self.data_weights.as_ref().map_or(0, Section::mapped_bytes)
    }

    /// Whether any section borrows from a memory-mapped `.shpb` file.
    pub fn is_mapped(&self) -> bool {
        self.query_offsets.is_mapped()
            || self.data_offsets.is_mapped()
            || self.query_adjacency.is_mapped()
            || self.data_adjacency.is_mapped()
            || self.data_weights.as_ref().is_some_and(|w| w.is_mapped())
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    /// Builds the Figure-1 example from the paper (0-based ids).
    fn figure1() -> crate::BipartiteGraph {
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1, 5]);
        b.add_query([0u32, 1, 2, 3]);
        b.add_query([3u32, 4, 5]);
        b.build().unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = figure1();
        assert_eq!(g.num_queries(), 3);
        assert_eq!(g.num_data(), 6);
        assert_eq!(g.num_edges(), 10);
        assert_eq!(g.total_data_weight(), 6);
        assert!(!g.has_weights());
    }

    #[test]
    fn adjacency_is_consistent_in_both_directions() {
        let g = figure1();
        // Each (q, v) pair present in query adjacency must appear in data adjacency and
        // vice versa.
        for (q, v) in g.edges() {
            assert!(
                g.data_neighbors(v).contains(&q),
                "edge ({q},{v}) missing from data side"
            );
        }
        let total_from_data: usize = g.data_vertices().map(|v| g.data_degree(v)).sum();
        assert_eq!(total_from_data, g.num_edges());
    }

    #[test]
    fn degrees_and_averages() {
        let g = figure1();
        assert_eq!(g.query_degree(0), 3);
        assert_eq!(g.query_degree(1), 4);
        assert_eq!(g.query_degree(2), 3);
        assert_eq!(g.max_query_degree(), 4);
        assert_eq!(g.data_degree(0), 2);
        assert_eq!(g.data_degree(4), 1);
        assert_eq!(g.max_data_degree(), 2);
        assert!((g.avg_query_degree() - 10.0 / 3.0).abs() < 1e-12);
        assert!((g.avg_data_degree() - 10.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn weights_roundtrip() {
        let g = figure1().with_data_weights(vec![1, 2, 3, 4, 5, 6]).unwrap();
        assert!(g.has_weights());
        assert_eq!(g.data_weight(3), 4);
        assert_eq!(g.total_data_weight(), 21);
    }

    #[test]
    fn weights_length_mismatch_is_rejected() {
        let err = figure1().with_data_weights(vec![1, 2, 3]).unwrap_err();
        assert!(err.to_string().contains("length 3"));
    }

    #[test]
    fn induced_subgraph_keeps_only_selected_data() {
        let g = figure1();
        // Keep data vertices {0,1,2,3} -> queries become {0,1} (deg 2 and 4) and {3} (deg 1,
        // dropped with min degree 2).
        let (sub, original) = g.induced_subgraph(&[0, 1, 2, 3], 2);
        assert_eq!(original, vec![0, 1, 2, 3]);
        assert_eq!(sub.num_data(), 4);
        assert_eq!(sub.num_queries(), 2);
        assert_eq!(sub.query_neighbors(0), &[0, 1]);
        assert_eq!(sub.query_neighbors(1), &[0, 1, 2, 3]);
    }

    #[test]
    fn induced_subgraph_renumbers_densely() {
        let g = figure1();
        let (sub, original) = g.induced_subgraph(&[5, 3, 4], 2);
        assert_eq!(original, vec![5, 3, 4]);
        assert_eq!(sub.num_data(), 3);
        // Queries 0 and 1 keep only one pin each and are dropped; only query 2 = {3,4,5}
        // survives, with pins renumbered to {0,1,2}.
        assert_eq!(sub.num_queries(), 1);
        let mut all_pins: Vec<u32> = sub.query_neighbors(0).to_vec();
        all_pins.sort_unstable();
        assert_eq!(all_pins, vec![0, 1, 2]);
    }

    #[test]
    fn filter_small_queries_removes_singletons() {
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1]);
        b.add_query([2u32]);
        b.add_query([0u32, 2, 3]);
        let g = b.build().unwrap();
        let filtered = g.filter_small_queries(2);
        assert_eq!(filtered.num_queries(), 2);
        assert_eq!(filtered.num_data(), 4);
        assert_eq!(filtered.num_edges(), 5);
    }

    #[test]
    fn memory_bytes_is_positive_and_scales() {
        let g = figure1();
        let small = g.memory_bytes();
        assert!(small > 0);
        let mut b = GraphBuilder::new();
        for q in 0..100u32 {
            b.add_query([q, q + 1, q + 2]);
        }
        let big = b.build().unwrap().memory_bytes();
        assert!(big > small);
    }

    #[test]
    fn edges_iterator_matches_num_edges() {
        let g = figure1();
        assert_eq!(g.edges().count(), g.num_edges());
    }
}
