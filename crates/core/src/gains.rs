//! Move-gain computation: for every data vertex, the best target bucket and its gain.
//!
//! This is the "compute move gains / find best bucket" phase of Algorithm 1. Gains are computed
//! from the per-query [`NeighborData`] in `O(Σ_{q ∈ N(v)} fanout(q))` per vertex — the zero
//! entries of the neighbor data never need to be touched, mirroring the communication
//! optimization of Section 3.3. The kernel reads only a vertex's per-query entries, so the
//! in-process refiner and superstep 3 of the BSP program ([`crate::distributed`]) run the same
//! code.
//!
//! # The scratch kernel and its determinism contract
//!
//! The hot kernel accumulates per-candidate-bucket gain deltas in a [`GainScratch`]: a dense
//! `Vec<f64>` of size `k` plus a touched-bucket stack, allocated **once per worker** (via
//! `rayon::pool::filter_map_index_with`) and reset in `O(touched)` after each vertex. Compared
//! to the original per-vertex `HashMap<BucketId, f64>` kernel this removes all hashing, heap
//! allocation, and large sorts from the inner loop — only the tiny touched list is sorted.
//!
//! The scratch kernel is **bit-identical** to the hash-map kernel by construction:
//!
//! * per-bucket delta accumulation follows the exact same visit order (outer loop over the
//!   vertex's queries, inner loop over each query's non-zero entries), so every slot sees the
//!   identical sequence of f64 additions;
//! * candidates are considered in ascending bucket order (the touched stack is sorted, matching
//!   the sorted key collection of the hash-map kernel), with the same tie-breaking;
//! * the `least_loaded` fallback candidate is handled identically (considered last, only when
//!   untouched).
//!
//! The original kernel is retained as [`GainKernel::LegacyHashMap`], selectable through
//! [`compute_proposals_with_kernel`], solely so the conformance suite and the benchmark
//! harness can assert bit-identical `MoveProposal` lists (including float bit patterns)
//! between the two implementations. Production call sites always use [`GainKernel::Scratch`].

use crate::neighbor_data::{count_in, NeighborData};
use crate::objective::Objective;
use shp_hypergraph::{BipartiteGraph, BucketId, DataId, Partition};
use std::collections::HashMap;

/// A proposed move of one data vertex to its best target bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoveProposal {
    /// The moving data vertex.
    pub vertex: DataId,
    /// Its current bucket.
    pub from: BucketId,
    /// The proposed target bucket.
    pub to: BucketId,
    /// Gain (objective reduction) of the move; may be non-positive when non-positive proposals
    /// are requested (histogram strategy).
    pub gain: f64,
}

/// Restricts which buckets a vertex may move to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetConstraint {
    /// Any of the `k` buckets (direct SHP-k optimization).
    All {
        /// Total number of buckets.
        k: u32,
    },
    /// Recursive splitting: a vertex currently in bucket `b` may only move to `allowed[b]`
    /// (its sibling buckets at the current recursion level).
    Siblings {
        /// Allowed target buckets per current bucket.
        allowed: Vec<Vec<BucketId>>,
    },
}

impl TargetConstraint {
    /// Constraint allowing movement between every pair of the `k` buckets.
    pub fn all(k: u32) -> Self {
        TargetConstraint::All { k }
    }

    /// Constraint allowing movement only inside sibling groups. `groups[g]` lists the buckets
    /// of group `g`; each bucket may move to any other bucket of its group.
    pub fn sibling_groups(groups: &[Vec<BucketId>]) -> Self {
        let max_bucket = groups
            .iter()
            .flat_map(|g| g.iter().copied())
            .max()
            .map_or(0, |b| b as usize + 1);
        let mut allowed: Vec<Vec<BucketId>> = vec![Vec::new(); max_bucket];
        for group in groups {
            for &b in group {
                allowed[b as usize] = group.iter().copied().filter(|&o| o != b).collect();
            }
        }
        TargetConstraint::Siblings { allowed }
    }
}

/// Computes the exact gain of moving vertex `v` from its current bucket to `to`.
pub fn move_gain(
    objective: &Objective,
    graph: &BipartiteGraph,
    partition: &Partition,
    nd: &NeighborData,
    v: DataId,
    to: BucketId,
) -> f64 {
    let from = partition.bucket_of(v);
    if from == to {
        return 0.0;
    }
    graph
        .data_neighbors(v)
        .iter()
        .map(|&q| objective.per_query_gain(nd.count(q, from), nd.count(q, to)))
        .sum()
}

/// Selects which gain-kernel implementation [`compute_proposals_with_kernel`] runs.
///
/// [`GainKernel::LegacyHashMap`] exists **only** as a conformance oracle: the parallel
/// conformance suite and the bench smoke job run both kernels and assert bit-identical
/// proposal lists. Every production call site uses [`GainKernel::Scratch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GainKernel {
    /// Allocation-free dense-scratch kernel (the default).
    #[default]
    Scratch,
    /// The original per-vertex `HashMap` kernel, kept as the bit-identity oracle.
    LegacyHashMap,
}

/// Worker-local scratch state for the dense gain kernel: a delta accumulator of size `k`, a
/// presence mark per bucket, and the stack of touched buckets used for `O(touched)` reset.
///
/// One scratch is created per worker chunk and reused for every vertex of the chunk; after
/// each vertex the kernel resets exactly the slots it touched, so reuse cannot leak state
/// between vertices (the determinism contract in the module docs).
#[derive(Debug, Clone)]
pub struct GainScratch {
    /// Per-bucket gain adjustment relative to an untouched bucket; 0.0 when not touched.
    delta: Vec<f64>,
    /// Whether the bucket currently has an entry (mirrors hash-map key presence).
    marked: Vec<bool>,
    /// Buckets touched for the current vertex, in first-touch order (sorted before use).
    touched: Vec<BucketId>,
}

impl GainScratch {
    /// Creates a scratch for `k` buckets.
    pub fn new(k: u32) -> Self {
        GainScratch {
            delta: vec![0.0; k as usize],
            marked: vec![false; k as usize],
            touched: Vec::new(),
        }
    }

    /// Number of buckets the scratch covers.
    pub fn num_buckets(&self) -> u32 {
        self.delta.len() as u32
    }

    #[inline]
    fn add(&mut self, b: BucketId, adjustment: f64) {
        let i = b as usize;
        if !self.marked[i] {
            self.marked[i] = true;
            self.touched.push(b);
        }
        self.delta[i] += adjustment;
    }

    #[inline]
    fn reset(&mut self) {
        for &b in &self.touched {
            self.delta[b as usize] = 0.0;
            self.marked[b as usize] = false;
        }
        self.touched.clear();
    }
}

/// The per-query neighbor entries of vertex `v`, in `data_neighbors(v)` order: the input of
/// [`best_move_for_vertex_with`] on the in-process path.
fn query_entries<'a>(
    graph: &'a BipartiteGraph,
    nd: &'a NeighborData,
    v: DataId,
) -> impl Iterator<Item = &'a [(BucketId, u32)]> + Clone + 'a {
    graph.data_neighbors(v).iter().map(move |&q| nd.nonzero(q))
}

/// Computes the best move proposal for a single vertex under the given constraint, or `None`
/// when the vertex has no admissible target (e.g. an isolated vertex under `All` with every
/// candidate equal to its own bucket).
///
/// `least_loaded` supplies a representative empty-ish bucket so that moving to a bucket none of
/// the vertex's queries touch is also considered under the `All` constraint.
///
/// This convenience wrapper allocates a fresh [`GainScratch`] per call; hot paths reuse a
/// worker-local scratch through [`best_move_for_vertex_with`].
pub fn best_move_for_vertex(
    objective: &Objective,
    graph: &BipartiteGraph,
    partition: &Partition,
    nd: &NeighborData,
    constraint: &TargetConstraint,
    least_loaded: BucketId,
    v: DataId,
) -> Option<MoveProposal> {
    let mut scratch = GainScratch::new(partition.num_buckets());
    best_move_for_vertex_with(
        objective,
        query_entries(graph, nd, v),
        partition.bucket_of(v),
        constraint,
        least_loaded,
        &mut scratch,
        v,
    )
}

/// The allocation-free gain kernel of Algorithm 1, shared by both execution paths.
///
/// `entries` yields the non-zero `(bucket, count)` neighbor data of each query adjacent to
/// vertex `v` (currently in bucket `from`), one slice per query: `nd.nonzero(q)` in process,
/// the received neighbor-data messages in superstep 3 of the BSP program. The result depends
/// on the order of the queries (floating-point sums), so both paths feed them in
/// `data_neighbors(v)` order. `scratch` must cover every bucket the entries mention. Zero heap
/// allocation, zero hashing; only the touched-bucket list (at most the vertex's neighborhood
/// fanout) is sorted. Bit-identical to the legacy hash-map kernel — see the module docs.
pub fn best_move_for_vertex_with<'e>(
    objective: &Objective,
    entries: impl Iterator<Item = &'e [(BucketId, u32)]> + Clone,
    from: BucketId,
    constraint: &TargetConstraint,
    least_loaded: BucketId,
    scratch: &mut GainScratch,
    v: DataId,
) -> Option<MoveProposal> {
    match constraint {
        TargetConstraint::Siblings { allowed } => {
            // The sibling candidate set is tiny (the recursion arity); per-target exact gains
            // need no scratch and match `move_gain`'s summation order exactly.
            let targets = allowed.get(from as usize)?;
            let mut best: Option<(BucketId, f64)> = None;
            for &to in targets {
                if to == from {
                    continue;
                }
                let gain: f64 = entries
                    .clone()
                    .map(|e| objective.per_query_gain(count_in(e, from), count_in(e, to)))
                    .sum();
                best = match best {
                    Some((bb, bg)) if bg > gain || (bg == gain && bb < to) => Some((bb, bg)),
                    _ => Some((to, gain)),
                };
            }
            best.map(|(to, gain)| MoveProposal {
                vertex: v,
                from,
                to,
                gain,
            })
        }
        TargetConstraint::All { k } => {
            if *k <= 1 {
                return None;
            }
            // One fused pass per query: find `n_from` with a linear scan of the (tiny) entry
            // list, evaluate the escape gain `g0 = per_query_gain(n_from, 0)` once, and reuse
            // it for the base gain and for every entry's adjustment. Bit-identical to the
            // legacy kernel's separate loops: base-gain accumulation visits queries in the
            // same order and starts from -0.0 exactly like `Iterator::sum` for f64 (so an
            // isolated vertex's empty sum keeps its sign bit), `g0` is a pure function of
            // `n_from` (reusing it cannot change a single bit), and per-bucket delta
            // accumulation keeps the same (query, entry) visit order.
            let mut base_gain = -0.0f64;
            for entries in entries {
                let mut n_from = 0u32;
                for &(b, c) in entries {
                    if b == from {
                        n_from = c;
                        break;
                    }
                }
                let g0 = objective.per_query_gain(n_from, 0);
                base_gain += g0;
                for &(b, c) in entries {
                    if b == from {
                        continue;
                    }
                    let adjustment = objective.per_query_gain(n_from, c) - g0;
                    scratch.add(b, adjustment);
                }
            }
            let mut best: Option<(BucketId, f64)> = None;
            let mut consider = |to: BucketId, gain: f64| {
                best = match best {
                    Some((bb, bg)) if bg > gain || (bg == gain && bb <= to) => Some((bb, bg)),
                    _ => Some((to, gain)),
                };
            };
            // Candidates in ascending bucket order (sorting only the touched stack), exactly
            // like the legacy kernel's sorted key collection.
            scratch.touched.sort_unstable();
            for &b in &scratch.touched {
                consider(b, base_gain + scratch.delta[b as usize]);
            }
            // Also consider an untouched bucket (the globally least-loaded one) if admissible.
            // Bounds-check before touching the scratch so an out-of-range caller-supplied
            // `least_loaded` degrades exactly like the legacy kernel (treated as untouched,
            // then filtered by `< k`) instead of panicking on the mark index.
            let least_loaded_untouched = scratch
                .marked
                .get(least_loaded as usize)
                .is_none_or(|&m| !m);
            if least_loaded != from && least_loaded_untouched && least_loaded < *k {
                consider(least_loaded, base_gain);
            }
            scratch.reset();
            best.map(|(to, gain)| MoveProposal {
                vertex: v,
                from,
                to,
                gain,
            })
        }
    }
}

/// The original hash-map gain kernel, retained verbatim as the bit-identity oracle for
/// [`GainKernel::LegacyHashMap`]. Not used by any production path.
fn best_move_for_vertex_legacy(
    objective: &Objective,
    graph: &BipartiteGraph,
    partition: &Partition,
    nd: &NeighborData,
    constraint: &TargetConstraint,
    least_loaded: BucketId,
    v: DataId,
) -> Option<MoveProposal> {
    let from = partition.bucket_of(v);
    match constraint {
        TargetConstraint::Siblings { allowed } => {
            let targets = allowed.get(from as usize)?;
            let mut best: Option<(BucketId, f64)> = None;
            for &to in targets {
                if to == from {
                    continue;
                }
                let gain = move_gain(objective, graph, partition, nd, v, to);
                best = match best {
                    Some((bb, bg)) if bg > gain || (bg == gain && bb < to) => Some((bb, bg)),
                    _ => Some((to, gain)),
                };
            }
            best.map(|(to, gain)| MoveProposal {
                vertex: v,
                from,
                to,
                gain,
            })
        }
        TargetConstraint::All { k } => {
            if *k <= 1 {
                return None;
            }
            // Gain of moving to a bucket none of v's queries touch.
            let base_gain: f64 = graph
                .data_neighbors(v)
                .iter()
                .map(|&q| objective.per_query_gain(nd.count(q, from), 0))
                .sum();
            // Adjustment for every bucket that at least one adjacent query already touches.
            let mut deltas: HashMap<BucketId, f64> = HashMap::new();
            for &q in graph.data_neighbors(v) {
                let n_from = nd.count(q, from);
                for &(b, c) in nd.nonzero(q) {
                    if b == from {
                        continue;
                    }
                    let adjustment =
                        objective.per_query_gain(n_from, c) - objective.per_query_gain(n_from, 0);
                    *deltas.entry(b).or_insert(0.0) += adjustment;
                }
            }
            let mut best: Option<(BucketId, f64)> = None;
            let mut consider = |to: BucketId, gain: f64| {
                best = match best {
                    Some((bb, bg)) if bg > gain || (bg == gain && bb <= to) => Some((bb, bg)),
                    _ => Some((to, gain)),
                };
            };
            // Iterate candidates in bucket order so results are deterministic across runs
            // (HashMap iteration order is not).
            let mut candidates: Vec<(BucketId, f64)> =
                deltas.iter().map(|(&b, &d)| (b, d)).collect();
            candidates.sort_unstable_by_key(|&(b, _)| b);
            for (b, delta) in candidates {
                consider(b, base_gain + delta);
            }
            // Also consider an untouched bucket (the globally least-loaded one) if admissible.
            if least_loaded != from && !deltas.contains_key(&least_loaded) && least_loaded < *k {
                consider(least_loaded, base_gain);
            }
            best.map(|(to, gain)| MoveProposal {
                vertex: v,
                from,
                to,
                gain,
            })
        }
    }
}

/// Computes move proposals for every data vertex in parallel over `workers` threads.
///
/// When `include_nonpositive` is false only strictly improving proposals are returned (the
/// basic Algorithm 1 behaviour); when true every vertex's best proposal is returned so the
/// histogram strategy can pair positive with non-positive gains (Section 3.4).
///
/// Vertices are partitioned into contiguous index chunks and the per-chunk candidate lists are
/// concatenated in chunk order (the rayon shim's ordered reduction), so the returned list is
/// **bit-identical for every worker count** — sorted by vertex id, exactly as the sequential
/// scan would produce it.
pub fn compute_proposals(
    objective: &Objective,
    graph: &BipartiteGraph,
    partition: &Partition,
    nd: &NeighborData,
    constraint: &TargetConstraint,
    include_nonpositive: bool,
    workers: usize,
) -> Vec<MoveProposal> {
    compute_proposals_with_kernel(
        objective,
        graph,
        partition,
        nd,
        constraint,
        include_nonpositive,
        workers,
        GainKernel::Scratch,
    )
}

/// [`compute_proposals`] with an explicit kernel choice — the conformance-oracle entry point.
#[allow(clippy::too_many_arguments)]
pub fn compute_proposals_with_kernel(
    objective: &Objective,
    graph: &BipartiteGraph,
    partition: &Partition,
    nd: &NeighborData,
    constraint: &TargetConstraint,
    include_nonpositive: bool,
    workers: usize,
    kernel: GainKernel,
) -> Vec<MoveProposal> {
    let least_loaded = partition.least_loaded_bucket();
    match kernel {
        GainKernel::Scratch => rayon::pool::filter_map_index_with(
            graph.num_data(),
            workers,
            || GainScratch::new(partition.num_buckets()),
            |scratch, v| {
                let v = v as DataId;
                best_move_for_vertex_with(
                    objective,
                    query_entries(graph, nd, v),
                    partition.bucket_of(v),
                    constraint,
                    least_loaded,
                    scratch,
                    v,
                )
                .filter(|p| include_nonpositive || p.gain > 0.0)
            },
        ),
        GainKernel::LegacyHashMap => {
            rayon::pool::filter_map_index(graph.num_data(), workers, |v| {
                best_move_for_vertex_legacy(
                    objective,
                    graph,
                    partition,
                    nd,
                    constraint,
                    least_loaded,
                    v as DataId,
                )
                .filter(|p| include_nonpositive || p.gain > 0.0)
            })
        }
    }
}

/// Recomputes the best proposal of each vertex in `vertices` (ascending ids expected), in
/// parallel with worker-local scratches, returning one `Option<MoveProposal>` per input vertex
/// in input order. This is the dirty-set entry point used by
/// [`crate::refinement::Refiner`]: unlike [`compute_proposals`] it never filters by gain (the
/// caller caches the raw best proposal per vertex and applies filtering when assembling the
/// iteration's proposal list).
#[allow(clippy::too_many_arguments)]
pub fn compute_proposals_for(
    objective: &Objective,
    graph: &BipartiteGraph,
    partition: &Partition,
    nd: &NeighborData,
    constraint: &TargetConstraint,
    least_loaded: BucketId,
    vertices: &[DataId],
    workers: usize,
    kernel: GainKernel,
) -> Vec<Option<MoveProposal>> {
    match kernel {
        GainKernel::Scratch => rayon::pool::map_index_with(
            vertices.len(),
            workers,
            || GainScratch::new(partition.num_buckets()),
            |scratch, i| {
                let v = vertices[i];
                best_move_for_vertex_with(
                    objective,
                    query_entries(graph, nd, v),
                    partition.bucket_of(v),
                    constraint,
                    least_loaded,
                    scratch,
                    v,
                )
            },
        ),
        GainKernel::LegacyHashMap => rayon::pool::map_index(vertices.len(), workers, |i| {
            best_move_for_vertex_legacy(
                objective,
                graph,
                partition,
                nd,
                constraint,
                least_loaded,
                vertices[i],
            )
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shp_hypergraph::GraphBuilder;

    fn figure1() -> (BipartiteGraph, Partition) {
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1, 5]);
        b.add_query([0u32, 1, 2, 3]);
        b.add_query([3u32, 4, 5]);
        let g = b.build().unwrap();
        let p = Partition::from_assignment(&g, 2, vec![0, 0, 0, 1, 1, 1]).unwrap();
        (g, p)
    }

    #[test]
    fn move_gain_matches_objective_difference() {
        let (g, p) = figure1();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        for v in 0..6u32 {
            for to in 0..2u32 {
                let gain = move_gain(&obj, &g, &p, &nd, v, to);
                let before = obj.evaluate(&g, &p) * g.num_queries() as f64;
                let mut moved = p.clone();
                moved.assign(v, to);
                let after = obj.evaluate(&g, &moved) * g.num_queries() as f64;
                assert!((gain - (before - after)).abs() < 1e-9, "v={v} to={to}");
            }
        }
    }

    #[test]
    fn best_move_prefers_highest_gain_bucket() {
        // Vertex 5 belongs to queries {0,1,5} (two pins in bucket 0) and {3,4,5} (all three in
        // bucket 1). Moving it to bucket 0 helps query 0 but hurts query 2, and vice versa.
        let (g, p) = figure1();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        let proposal = best_move_for_vertex(&obj, &g, &p, &nd, &TargetConstraint::all(2), 0, 5)
            .expect("vertex 5 has an admissible target");
        assert_eq!(proposal.from, 1);
        assert_eq!(proposal.to, 0);
        let expected = move_gain(&obj, &g, &p, &nd, 5, 0);
        assert!((proposal.gain - expected).abs() < 1e-12);
    }

    #[test]
    fn all_constraint_explores_untouched_bucket() {
        // With k = 3 and the third bucket empty, the least-loaded bucket (2) must be considered
        // even though no query touches it.
        let (g, _) = figure1();
        let p = Partition::from_assignment(&g, 3, vec![0, 0, 0, 1, 1, 1]).unwrap();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::Fanout;
        let proposal =
            best_move_for_vertex(&obj, &g, &p, &nd, &TargetConstraint::all(3), 2, 4).unwrap();
        // Vertex 4 only belongs to query {3,4,5}; moving anywhere splits it, so the best gain is
        // non-positive, but a proposal must still exist and consider bucket 2 or 0.
        assert!(proposal.gain <= 0.0);
        assert!(proposal.to == 0 || proposal.to == 2);
    }

    #[test]
    fn sibling_constraint_restricts_targets() {
        let (g, _) = figure1();
        let p = Partition::from_assignment(&g, 4, vec![0, 0, 1, 1, 2, 3]).unwrap();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        // Groups {0,1} and {2,3}: a vertex in bucket 0 may only move to 1, etc.
        let constraint = TargetConstraint::sibling_groups(&[vec![0, 1], vec![2, 3]]);
        for v in 0..6u32 {
            let proposal = best_move_for_vertex(&obj, &g, &p, &nd, &constraint, 0, v).unwrap();
            let expected_to = match p.bucket_of(v) {
                0 => 1,
                1 => 0,
                2 => 3,
                _ => 2,
            };
            assert_eq!(proposal.to, expected_to, "vertex {v}");
        }
    }

    #[test]
    fn compute_proposals_filters_nonpositive_by_default() {
        let (g, p) = figure1();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        let strict = compute_proposals(&obj, &g, &p, &nd, &TargetConstraint::all(2), false, 1);
        assert!(strict.iter().all(|m| m.gain > 0.0));
        let all = compute_proposals(&obj, &g, &p, &nd, &TargetConstraint::all(2), true, 1);
        assert_eq!(
            all.len(),
            6,
            "every vertex proposes when non-positive gains are allowed"
        );
        assert!(all.len() >= strict.len());
    }

    #[test]
    fn proposals_are_deterministic() {
        let (g, p) = figure1();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        let a = compute_proposals(&obj, &g, &p, &nd, &TargetConstraint::all(2), true, 1);
        let b = compute_proposals(&obj, &g, &p, &nd, &TargetConstraint::all(2), true, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn single_bucket_has_no_proposals() {
        let (g, _) = figure1();
        let p = Partition::from_assignment(&g, 1, vec![0; 6]).unwrap();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::Fanout;
        let proposals = compute_proposals(&obj, &g, &p, &nd, &TargetConstraint::all(1), true, 2);
        assert!(proposals.is_empty());
    }

    #[test]
    fn scratch_kernel_is_bit_identical_to_legacy_kernel() {
        // Random-ish graph with enough structure to hit every kernel branch: touched and
        // untouched least-loaded buckets, ties, isolated vertices.
        let mut b = GraphBuilder::new();
        for q in 0..40u32 {
            let base = (q * 7) % 50;
            b.add_query([base, (base + 3) % 50, (base + 11) % 50, (base + 19) % 50]);
        }
        b.ensure_data_count(55); // vertices 50..55 are isolated
        let g = b.build().unwrap();
        let assignment: Vec<u32> = (0..55).map(|v| (v * 13) % 6).collect();
        let p = Partition::from_assignment(&g, 6, assignment).unwrap();
        let nd = NeighborData::build(&g, &p);
        for obj in [
            Objective::Fanout,
            Objective::PFanout { p: 0.5 },
            Objective::CliqueNet,
        ] {
            for constraint in [
                TargetConstraint::all(6),
                TargetConstraint::sibling_groups(&[vec![0, 1, 2], vec![3, 4, 5]]),
            ] {
                for include in [false, true] {
                    for workers in [1usize, 2, 4] {
                        let scratch = compute_proposals_with_kernel(
                            &obj,
                            &g,
                            &p,
                            &nd,
                            &constraint,
                            include,
                            workers,
                            GainKernel::Scratch,
                        );
                        let legacy = compute_proposals_with_kernel(
                            &obj,
                            &g,
                            &p,
                            &nd,
                            &constraint,
                            include,
                            workers,
                            GainKernel::LegacyHashMap,
                        );
                        assert_eq!(scratch.len(), legacy.len());
                        for (s, l) in scratch.iter().zip(legacy.iter()) {
                            assert_eq!(s.vertex, l.vertex);
                            assert_eq!(s.from, l.from);
                            assert_eq!(s.to, l.to);
                            assert_eq!(
                                s.gain.to_bits(),
                                l.gain.to_bits(),
                                "gain bits diverged for vertex {} ({obj:?})",
                                s.vertex
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_vertices_does_not_leak_state() {
        let (g, p) = figure1();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        let constraint = TargetConstraint::all(2);
        let mut scratch = GainScratch::new(2);
        // Reusing one scratch sequentially must match fresh-scratch computation per vertex.
        for v in 0..6u32 {
            let reused = best_move_for_vertex_with(
                &obj,
                query_entries(&g, &nd, v),
                p.bucket_of(v),
                &constraint,
                0,
                &mut scratch,
                v,
            );
            let fresh = best_move_for_vertex(&obj, &g, &p, &nd, &constraint, 0, v);
            assert_eq!(reused, fresh, "vertex {v}");
        }
    }

    #[test]
    fn out_of_range_least_loaded_degrades_like_legacy_instead_of_panicking() {
        // The constraint's k may legitimately exceed the partition's bucket count (and thus
        // the scratch size); a caller-supplied least_loaded in that gap must be filtered by
        // the `< k` guard on both kernels, never panic on the scratch mark index.
        let (g, p) = figure1();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        let constraint = TargetConstraint::all(5); // partition only has 2 buckets
        for least_loaded in [2u32, 4, 7, u32::MAX] {
            for v in 0..6u32 {
                let scratch = best_move_for_vertex(&obj, &g, &p, &nd, &constraint, least_loaded, v);
                let legacy =
                    best_move_for_vertex_legacy(&obj, &g, &p, &nd, &constraint, least_loaded, v);
                assert_eq!(scratch, legacy, "v={v} least_loaded={least_loaded}");
            }
        }
    }

    #[test]
    fn compute_proposals_for_matches_full_scan() {
        let (g, p) = figure1();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        let constraint = TargetConstraint::all(2);
        let full = compute_proposals(&obj, &g, &p, &nd, &constraint, true, 1);
        let vertices: Vec<u32> = (0..6).collect();
        for kernel in [GainKernel::Scratch, GainKernel::LegacyHashMap] {
            let per_vertex = compute_proposals_for(
                &obj,
                &g,
                &p,
                &nd,
                &constraint,
                p.least_loaded_bucket(),
                &vertices,
                2,
                kernel,
            );
            let flattened: Vec<MoveProposal> = per_vertex.into_iter().flatten().collect();
            assert_eq!(flattened, full);
        }
    }

    #[test]
    fn all_and_sibling_agree_for_two_buckets() {
        let (g, p) = figure1();
        let nd = NeighborData::build(&g, &p);
        let obj = Objective::PFanout { p: 0.5 };
        let all = compute_proposals(&obj, &g, &p, &nd, &TargetConstraint::all(2), true, 1);
        let sib = compute_proposals(
            &obj,
            &g,
            &p,
            &nd,
            &TargetConstraint::sibling_groups(&[vec![0, 1]]),
            true,
            1,
        );
        assert_eq!(all.len(), sib.len());
        for (a, s) in all.iter().zip(sib.iter()) {
            assert_eq!(a.vertex, s.vertex);
            assert_eq!(a.to, s.to);
            assert!((a.gain - s.gain).abs() < 1e-12);
        }
    }
}
