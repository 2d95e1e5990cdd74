//! Run reports: everything a caller might want to know about a finished partitioning run.

use crate::refinement::IterationStats;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Summary of one recursion level (recursive mode only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelReport {
    /// Recursion level (0-based).
    pub level: usize,
    /// Number of buckets after this level's splits.
    pub buckets_after: u32,
    /// Refinement iterations executed at this level.
    pub iterations: usize,
    /// Average fanout at the end of the level.
    pub fanout_after: f64,
    /// Wall-clock time spent on the level.
    pub elapsed: Duration,
}

/// Full report of a partitioning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Per-iteration statistics, concatenated across recursion levels in execution order.
    pub history: Vec<IterationStats>,
    /// Per-level summaries (empty in direct mode).
    pub levels: Vec<LevelReport>,
    /// Average fanout of the final partition.
    pub final_fanout: f64,
    /// Average p-fanout (p = 0.5) of the final partition, for comparability across objectives.
    pub final_p_fanout: f64,
    /// Realized imbalance of the final partition.
    pub imbalance: f64,
    /// Total wall-clock time of the run.
    pub elapsed: Duration,
}

impl RunReport {
    /// Total number of refinement iterations executed.
    pub fn total_iterations(&self) -> usize {
        self.history.len()
    }

    /// Total number of vertex moves applied over the whole run.
    pub fn total_moves(&self) -> usize {
        self.history.iter().map(|s| s.moved).sum()
    }
}

/// The output of a partitioning run: the partition plus its report.
#[derive(Debug, Clone)]
pub struct PartitionResult {
    /// The final bucket assignment.
    pub partition: shp_hypergraph::Partition,
    /// Statistics about how it was obtained.
    pub report: RunReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_aggregate_history() {
        let report = RunReport {
            history: vec![
                IterationStats {
                    iteration: 0,
                    candidates: 10,
                    moved: 5,
                    moved_fraction: 0.5,
                    applied_gain: 2.0,
                    fanout_after: 3.0,
                },
                IterationStats {
                    iteration: 1,
                    candidates: 4,
                    moved: 2,
                    moved_fraction: 0.2,
                    applied_gain: 0.5,
                    fanout_after: 2.5,
                },
            ],
            levels: vec![],
            final_fanout: 2.5,
            final_p_fanout: 2.0,
            imbalance: 0.01,
            elapsed: Duration::from_millis(12),
        };
        assert_eq!(report.total_iterations(), 2);
        assert_eq!(report.total_moves(), 7);
    }
}
