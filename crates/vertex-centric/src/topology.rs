//! Engine-side graph topology: a CSR of out-neighbors per vertex, plus its transpose.
//!
//! The topology is directed from the engine's point of view; for the bipartite SHP graph the
//! caller adds both directions (data → query and query → data) so that messages can flow both
//! ways, matching how Giraph stores the bipartite graph as undirected adjacency.
//!
//! A vertex broadcasts along its out-edges and reads along its in-edges, so the transpose
//! (every vertex's in-neighbors, ascending) is built together with the out-CSR, once per
//! topology. One topology can then serve several engine runs (see [`crate::Engine::new`]).

/// Immutable CSR adjacency used by the [`crate::Engine`], in both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    offsets: Vec<u64>,
    neighbors: Vec<u32>,
    in_offsets: Vec<u64>,
    in_neighbors: Vec<u32>,
}

impl Topology {
    /// Builds a topology from an out-neighbor CSR: the out-neighbors of vertex `v` are
    /// `neighbors[offsets[v]..offsets[v + 1]]`.
    ///
    /// # Panics
    /// Panics if `offsets` is empty, does not start at 0, decreases, or does not end at
    /// `neighbors.len()`, or if an edge target is out of range.
    pub fn from_csr(offsets: Vec<u64>, neighbors: Vec<u32>) -> Self {
        assert!(
            offsets.first() == Some(&0)
                && offsets.last() == Some(&(neighbors.len() as u64))
                && offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must rise from 0 to the edge count"
        );
        let n = offsets.len() - 1;
        // Counting sort by target; scanning sources in ascending order leaves every in-list
        // ascending, with the copies of a repeated edge adjacent.
        let mut in_offsets = vec![0u64; n + 1];
        for &t in &neighbors {
            assert!((t as usize) < n, "edge target {t} out of range");
            in_offsets[t as usize + 1] += 1;
        }
        for v in 0..n {
            in_offsets[v + 1] += in_offsets[v];
        }
        let mut cursor = in_offsets[..n].to_vec();
        let mut in_neighbors = vec![0u32; neighbors.len()];
        for v in 0..n {
            for &t in &neighbors[offsets[v] as usize..offsets[v + 1] as usize] {
                in_neighbors[cursor[t as usize] as usize] = v as u32;
                cursor[t as usize] += 1;
            }
        }
        Topology {
            offsets,
            neighbors,
            in_offsets,
            in_neighbors,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Out-neighbors of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let start = self.offsets[v as usize] as usize;
        let end = self.offsets[v as usize + 1] as usize;
        &self.neighbors[start..end]
    }

    /// In-neighbors of vertex `v` (the vertices with an edge to `v`), in ascending order; a
    /// vertex with `c` edges to `v` appears `c` times in a row.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn in_neighbors(&self, v: u32) -> &[u32] {
        let start = self.in_offsets[v as usize] as usize;
        let end = self.in_offsets[v as usize + 1] as usize;
        &self.in_neighbors[start..end]
    }

    /// Out-degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }
}

/// Incremental builder for a [`Topology`].
#[derive(Debug, Default, Clone)]
pub struct TopologyBuilder {
    adjacency: Vec<Vec<u32>>,
}

impl TopologyBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices and no edges.
    pub fn new(num_vertices: usize) -> Self {
        TopologyBuilder {
            adjacency: vec![Vec::new(); num_vertices],
        }
    }

    /// Adds a directed edge `from → to`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: u32, to: u32) {
        assert!(
            (to as usize) < self.adjacency.len(),
            "edge target {to} out of range"
        );
        self.adjacency[from as usize].push(to);
    }

    /// Adds both directions of an undirected edge.
    pub fn add_undirected_edge(&mut self, a: u32, b: u32) {
        self.add_edge(a, b);
        self.add_edge(b, a);
    }

    /// Sets the full out-neighbor list of a vertex at once (replacing any previous edges).
    pub fn set_neighbors(&mut self, v: u32, neighbors: Vec<u32>) {
        for &n in &neighbors {
            assert!(
                (n as usize) < self.adjacency.len(),
                "edge target {n} out of range"
            );
        }
        self.adjacency[v as usize] = neighbors;
    }

    /// Finalizes the builder into an immutable CSR topology.
    pub fn build(self) -> Topology {
        let mut offsets = Vec::with_capacity(self.adjacency.len() + 1);
        offsets.push(0u64);
        let total: usize = self.adjacency.iter().map(|a| a.len()).sum();
        let mut neighbors = Vec::with_capacity(total);
        for adj in &self.adjacency {
            neighbors.extend_from_slice(adj);
            offsets.push(neighbors.len() as u64);
        }
        Topology::from_csr(offsets, neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_adjacency() {
        let mut b = TopologyBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_undirected_edge(2, 3);
        let t = b.build();
        assert_eq!(t.num_vertices(), 4);
        assert_eq!(t.num_edges(), 4);
        assert_eq!(t.neighbors(0), &[1, 2]);
        assert_eq!(t.neighbors(2), &[3]);
        assert_eq!(t.neighbors(3), &[2]);
        assert_eq!(t.degree(1), 0);
    }

    #[test]
    fn set_neighbors_replaces_existing() {
        let mut b = TopologyBuilder::new(3);
        b.add_edge(0, 1);
        b.set_neighbors(0, vec![2]);
        let t = b.build();
        assert_eq!(t.neighbors(0), &[2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = TopologyBuilder::new(2);
        b.add_edge(0, 5);
    }

    #[test]
    fn empty_topology() {
        let t = TopologyBuilder::new(0).build();
        assert_eq!(t.num_vertices(), 0);
        assert_eq!(t.num_edges(), 0);
    }

    #[test]
    fn in_neighbors_are_the_ascending_transpose() {
        // Edges added out of order, with 3 → 1 twice.
        let mut b = TopologyBuilder::new(4);
        b.set_neighbors(3, vec![1, 0, 1]);
        b.set_neighbors(2, vec![1]);
        b.set_neighbors(0, vec![1, 2]);
        let t = b.build();
        assert_eq!(t.in_neighbors(0), &[3]);
        assert_eq!(t.in_neighbors(1), &[0, 2, 3, 3]);
        assert_eq!(t.in_neighbors(2), &[0]);
        assert!(t.in_neighbors(3).is_empty());
        assert_eq!(
            t,
            Topology::from_csr(vec![0, 2, 2, 3, 6], vec![1, 2, 1, 1, 0, 1])
        );
    }

    #[test]
    #[should_panic(expected = "offsets must rise")]
    fn malformed_csr_panics() {
        let _ = Topology::from_csr(vec![0, 3], vec![0]);
    }
}
