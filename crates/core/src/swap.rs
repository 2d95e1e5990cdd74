//! Swap coordination: the swap matrix `S` and bucket-pair move probabilities.
//!
//! After every data vertex has picked a target bucket, the master must decide how many of the
//! candidates may actually move so that balance is preserved. The basic scheme of Algorithm 1
//! counts candidates per ordered bucket pair in the matrix `S` and lets each candidate move
//! with probability `min(S_ij, S_ji) / S_ij`, so the expected flow in the two directions is
//! equal. The advanced scheme (Section 3.4, implemented in [`crate::histogram`]) refines this
//! with per-gain-bin probabilities.

use crate::gains::MoveProposal;
use crate::histogram::{bin_index, GainHistogramSet, NUM_BINS};
use crate::pair_table::PairTable;
use shp_hypergraph::BucketId;

/// The swap matrix `S`: `S[(i, j)]` is the number of data vertices currently in bucket `i`
/// whose best target is bucket `j`. Stored in a dense [`PairTable`] indexed by `i * k + j`
/// (O(1) hash-free counting; at most `k²` slots, small in the dense-k regime the paper
/// targets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapMatrix {
    counts: PairTable<u64>,
}

impl Default for SwapMatrix {
    fn default() -> Self {
        SwapMatrix {
            counts: PairTable::new(0, 0),
        }
    }
}

impl SwapMatrix {
    /// Builds the swap matrix from a set of proposals, counting only strictly improving moves
    /// (matching the `if gain > 0` condition of Algorithm 1).
    pub fn from_proposals(proposals: &[MoveProposal]) -> Self {
        let k = proposals
            .iter()
            .filter(|p| p.gain > 0.0)
            .map(|p| p.from.max(p.to) + 1)
            .max()
            .unwrap_or(0);
        let mut matrix = SwapMatrix {
            counts: PairTable::new(k, 0u64),
        };
        for p in proposals {
            matrix.record(p);
        }
        matrix
    }

    /// Counts one proposal if it is strictly improving, growing the bucket range if needed.
    pub(crate) fn record(&mut self, proposal: &MoveProposal) {
        if proposal.gain > 0.0 {
            *self.counts.entry(proposal.from, proposal.to) += 1;
        }
    }

    /// Adds another matrix's counts into this one (worker-local matrices combined by the
    /// master).
    pub(crate) fn merge(&mut self, other: &SwapMatrix) {
        for ((i, j), &count) in other.counts.iter() {
            *self.counts.entry(i, j) += count;
        }
    }

    /// Number of candidates wanting to move from `i` to `j`.
    pub fn count(&self, i: BucketId, j: BucketId) -> u64 {
        self.counts.get(i, j).copied().unwrap_or(0)
    }

    /// Number of non-zero entries.
    pub fn num_entries(&self) -> usize {
        self.counts.len()
    }

    /// Total number of counted candidates.
    pub fn total_candidates(&self) -> u64 {
        self.counts.iter().map(|(_, &c)| c).sum()
    }

    /// Computes the basic move probabilities `min(S_ij, S_ji) / S_ij` for every ordered pair
    /// with candidates.
    pub fn move_probabilities(&self) -> MoveProbabilities {
        let mut probs = PairTable::new(self.counts.num_buckets(), 0.0f64);
        for ((i, j), &s_ij) in self.counts.iter() {
            if s_ij == 0 {
                continue;
            }
            let s_ji = self.count(j, i);
            let p = s_ij.min(s_ji) as f64 / s_ij as f64;
            probs.insert(i, j, p);
        }
        MoveProbabilities::Matrix(probs)
    }
}

/// Move probabilities broadcast by the master: either one probability per ordered bucket pair
/// (basic scheme) or one per (bucket pair, gain bin) (histogram scheme).
#[derive(Debug, Clone, PartialEq)]
pub enum MoveProbabilities {
    /// `probability[(i, j)]` applies to every candidate moving from `i` to `j`.
    Matrix(PairTable<f64>),
    /// `probability[(i, j)][bin]` applies to candidates moving from `i` to `j` whose gain falls
    /// in `bin` (see [`crate::histogram::bin_index`]). Boxed: the per-bin table's fill
    /// template alone is larger than the whole matrix variant.
    Histogram(Box<PairTable<[f64; NUM_BINS]>>),
}

impl MoveProbabilities {
    /// Probability with which the given proposal is allowed to move.
    pub fn probability(&self, proposal: &MoveProposal) -> f64 {
        match self {
            MoveProbabilities::Matrix(probs) => {
                if proposal.gain > 0.0 {
                    probs
                        .get(proposal.from, proposal.to)
                        .copied()
                        .unwrap_or(0.0)
                } else {
                    0.0
                }
            }
            MoveProbabilities::Histogram(probs) => probs
                .get(proposal.from, proposal.to)
                .map(|bins| bins[bin_index(proposal.gain)])
                .unwrap_or(0.0),
        }
    }

    /// Builds histogram-based probabilities from a histogram set (Section 3.4): bins of the two
    /// directions of every bucket pair are matched from the highest gain downwards.
    pub fn from_histograms(set: &GainHistogramSet) -> Self {
        MoveProbabilities::Histogram(Box::new(set.match_bins()))
    }

    /// An empty probability table (nothing is allowed to move).
    pub fn none() -> Self {
        MoveProbabilities::Matrix(PairTable::new(0, 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proposal(vertex: u32, from: u32, to: u32, gain: f64) -> MoveProposal {
        MoveProposal {
            vertex,
            from,
            to,
            gain,
        }
    }

    #[test]
    fn swap_matrix_counts_only_positive_gains() {
        let proposals = vec![
            proposal(0, 0, 1, 1.0),
            proposal(1, 0, 1, 0.5),
            proposal(2, 1, 0, 2.0),
            proposal(3, 1, 0, -1.0),
            proposal(4, 1, 0, 0.0),
        ];
        let s = SwapMatrix::from_proposals(&proposals);
        assert_eq!(s.count(0, 1), 2);
        assert_eq!(s.count(1, 0), 1);
        assert_eq!(s.count(0, 2), 0);
        assert_eq!(s.num_entries(), 2);
        assert_eq!(s.total_candidates(), 3);
    }

    #[test]
    fn merged_partial_matrices_equal_the_whole() {
        let proposals: Vec<MoveProposal> = (0..12)
            .map(|v| proposal(v, v % 3, (v + 1) % 4, v as f64 - 3.5))
            .collect();
        let mut merged = SwapMatrix::default();
        for chunk in proposals.chunks(5) {
            merged.merge(&SwapMatrix::from_proposals(chunk));
        }
        assert_eq!(merged, SwapMatrix::from_proposals(&proposals));
        assert_eq!(
            merged.move_probabilities(),
            SwapMatrix::from_proposals(&proposals).move_probabilities()
        );
    }

    #[test]
    fn matrix_probabilities_balance_expected_flow() {
        // 4 candidates 0->1, 2 candidates 1->0: probability 0.5 one way, 1.0 the other, so the
        // expected number of movers is 2 in each direction.
        let mut proposals = Vec::new();
        for v in 0..4 {
            proposals.push(proposal(v, 0, 1, 1.0));
        }
        for v in 4..6 {
            proposals.push(proposal(v, 1, 0, 1.0));
        }
        let s = SwapMatrix::from_proposals(&proposals);
        let probs = s.move_probabilities();
        assert!((probs.probability(&proposal(0, 0, 1, 1.0)) - 0.5).abs() < 1e-12);
        assert!((probs.probability(&proposal(4, 1, 0, 1.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_sided_demand_gets_zero_probability() {
        let proposals = vec![proposal(0, 0, 1, 1.0), proposal(1, 0, 1, 1.0)];
        let s = SwapMatrix::from_proposals(&proposals);
        let probs = s.move_probabilities();
        assert_eq!(probs.probability(&proposal(0, 0, 1, 1.0)), 0.0);
    }

    #[test]
    fn nonpositive_proposals_never_move_under_matrix_probabilities() {
        let proposals = vec![proposal(0, 0, 1, 1.0), proposal(1, 1, 0, 1.0)];
        let s = SwapMatrix::from_proposals(&proposals);
        let probs = s.move_probabilities();
        assert_eq!(probs.probability(&proposal(5, 0, 1, -0.5)), 0.0);
        assert_eq!(probs.probability(&proposal(5, 0, 1, 0.0)), 0.0);
        assert!(probs.probability(&proposal(5, 0, 1, 0.5)) > 0.0);
    }

    #[test]
    fn unknown_pairs_have_zero_probability() {
        let probs = MoveProbabilities::none();
        assert_eq!(probs.probability(&proposal(0, 3, 7, 10.0)), 0.0);
    }
}
