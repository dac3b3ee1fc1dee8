//! Operation accounting.
//!
//! The paper argues its optimizations save *work* (join computations
//! avoided, fragments never materialized) — claims that wall-clock alone
//! can't isolate. Every operator in this crate threads an [`EvalStats`]
//! counter so the benchmark harness can report exactly the quantities the
//! paper reasons about in §3–§4.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::AddAssign;

/// Counters accumulated during the evaluation of one algebraic expression.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvalStats {
    /// Number of binary fragment-join (`f1 ⋈ f2`) kernels executed.
    pub joins: u64,
    /// Total nodes merged across all join kernels (proxy for join cost,
    /// since a join is linear in its operand sizes).
    pub nodes_merged: u64,
    /// Fragments offered to a [`crate::FragmentSet`] by an operator.
    pub fragments_emitted: u64,
    /// Of those, how many were duplicates the set collapsed.
    pub duplicates_collapsed: u64,
    /// Filter predicate evaluations.
    pub filter_evals: u64,
    /// Fragments a filter rejected (pruned before further processing when
    /// the selection was pushed down, or dropped from the result otherwise).
    pub filter_pruned: u64,
    /// Pairwise-join iterations executed by fixed-point computations.
    pub fixpoint_iterations: u64,
    /// Fixed-point stabilization checks performed (the overhead §3.1.2
    /// eliminates).
    pub fixpoint_checks: u64,
    /// Subset tests executed by `⊖` (fragment set reduce).
    pub reduce_checks: u64,
    /// Budget checkpoints passed by a governed execution (phase
    /// boundaries where the deadline and cancel flag were consulted).
    /// Zero for ungoverned runs.
    pub budget_checkpoints: u64,
    /// Query-cache lookups that found a reusable entry (any tier).
    /// Cache counters are *observability* fields: the differential suite
    /// asserts that all non-cache counters are identical between cached
    /// and uncached evaluation, while these two may legitimately differ.
    pub cache_hits: u64,
    /// Query-cache lookups that missed and fell through to computation.
    pub cache_misses: u64,
}

impl EvalStats {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-field difference `self − base`, saturating at zero. The tracing
    /// layer snapshots a counter at stage entry and uses this to compute
    /// the stage's contribution.
    pub fn delta_since(&self, base: &EvalStats) -> EvalStats {
        EvalStats {
            joins: self.joins.saturating_sub(base.joins),
            nodes_merged: self.nodes_merged.saturating_sub(base.nodes_merged),
            fragments_emitted: self
                .fragments_emitted
                .saturating_sub(base.fragments_emitted),
            duplicates_collapsed: self
                .duplicates_collapsed
                .saturating_sub(base.duplicates_collapsed),
            filter_evals: self.filter_evals.saturating_sub(base.filter_evals),
            filter_pruned: self.filter_pruned.saturating_sub(base.filter_pruned),
            fixpoint_iterations: self
                .fixpoint_iterations
                .saturating_sub(base.fixpoint_iterations),
            fixpoint_checks: self.fixpoint_checks.saturating_sub(base.fixpoint_checks),
            reduce_checks: self.reduce_checks.saturating_sub(base.reduce_checks),
            budget_checkpoints: self
                .budget_checkpoints
                .saturating_sub(base.budget_checkpoints),
            cache_hits: self.cache_hits.saturating_sub(base.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(base.cache_misses),
        }
    }

    /// A copy with the cache observability counters zeroed — the
    /// "pure compute" view. Cached entries store this form so a replay
    /// reproduces exactly the counters an uncached run would report.
    pub fn without_cache_counters(&self) -> EvalStats {
        EvalStats {
            cache_hits: 0,
            cache_misses: 0,
            ..*self
        }
    }
}

impl AddAssign for EvalStats {
    fn add_assign(&mut self, o: Self) {
        self.joins += o.joins;
        self.nodes_merged += o.nodes_merged;
        self.fragments_emitted += o.fragments_emitted;
        self.duplicates_collapsed += o.duplicates_collapsed;
        self.filter_evals += o.filter_evals;
        self.filter_pruned += o.filter_pruned;
        self.fixpoint_iterations += o.fixpoint_iterations;
        self.fixpoint_checks += o.fixpoint_checks;
        self.reduce_checks += o.reduce_checks;
        self.budget_checkpoints += o.budget_checkpoints;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
    }
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "joins={} merged_nodes={} emitted={} dups={} filter_evals={} pruned={} fp_iters={} fp_checks={} reduce_checks={} budget_checkpoints={} cache_hits={} cache_misses={}",
            self.joins,
            self.nodes_merged,
            self.fragments_emitted,
            self.duplicates_collapsed,
            self.filter_evals,
            self.filter_pruned,
            self.fixpoint_iterations,
            self.fixpoint_checks,
            self.reduce_checks,
            self.budget_checkpoints,
            self.cache_hits,
            self.cache_misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a = EvalStats {
            joins: 1,
            filter_evals: 2,
            ..Default::default()
        };
        let b = EvalStats {
            joins: 3,
            filter_pruned: 4,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.joins, 4);
        assert_eq!(a.filter_evals, 2);
        assert_eq!(a.filter_pruned, 4);
    }

    #[test]
    fn display_is_single_line() {
        let s = EvalStats::new().to_string();
        assert!(s.contains("joins=0"));
        assert!(!s.contains('\n'));
    }

    /// A struct literal with every field spelled out (no `..`): each
    /// counter gets a distinct value so wiring mistakes can't cancel out.
    fn distinct() -> EvalStats {
        EvalStats {
            joins: 1,
            nodes_merged: 2,
            fragments_emitted: 3,
            duplicates_collapsed: 4,
            filter_evals: 5,
            filter_pruned: 6,
            fixpoint_iterations: 7,
            fixpoint_checks: 8,
            reduce_checks: 9,
            budget_checkpoints: 10,
            cache_hits: 11,
            cache_misses: 12,
        }
    }

    /// Exhaustive destructuring (no `..`): adding a counter to
    /// [`EvalStats`] without updating this test — and, by the assertions
    /// below, `AddAssign`, `Display`, and `delta_since` — fails to
    /// compile or fails here.
    #[test]
    fn every_field_is_wired_into_add_assign_display_and_delta() {
        let mut sum = distinct();
        sum += distinct();
        let EvalStats {
            joins,
            nodes_merged,
            fragments_emitted,
            duplicates_collapsed,
            filter_evals,
            filter_pruned,
            fixpoint_iterations,
            fixpoint_checks,
            reduce_checks,
            budget_checkpoints,
            cache_hits,
            cache_misses,
        } = sum;
        assert_eq!(joins, 2);
        assert_eq!(nodes_merged, 4);
        assert_eq!(fragments_emitted, 6);
        assert_eq!(duplicates_collapsed, 8);
        assert_eq!(filter_evals, 10);
        assert_eq!(filter_pruned, 12);
        assert_eq!(fixpoint_iterations, 14);
        assert_eq!(fixpoint_checks, 16);
        assert_eq!(reduce_checks, 18);
        assert_eq!(budget_checkpoints, 20);
        assert_eq!(cache_hits, 22);
        assert_eq!(cache_misses, 24);

        // Display must render each doubled value exactly once.
        let shown = sum.to_string();
        for expect in [
            "joins=2",
            "merged_nodes=4",
            "emitted=6",
            "dups=8",
            "filter_evals=10",
            "pruned=12",
            "fp_iters=14",
            "fp_checks=16",
            "reduce_checks=18",
            "budget_checkpoints=20",
            "cache_hits=22",
            "cache_misses=24",
        ] {
            assert!(shown.contains(expect), "missing `{expect}` in `{shown}`");
        }

        // delta_since inverts add_assign field-by-field, and saturates.
        assert_eq!(sum.delta_since(&distinct()), distinct());
        assert_eq!(EvalStats::new().delta_since(&sum), EvalStats::new());
    }

    #[test]
    fn without_cache_counters_zeroes_only_cache_fields() {
        let pure = distinct().without_cache_counters();
        assert_eq!(pure.cache_hits, 0);
        assert_eq!(pure.cache_misses, 0);
        let mut expect = distinct();
        expect.cache_hits = 0;
        expect.cache_misses = 0;
        assert_eq!(pure, expect);
    }
}
