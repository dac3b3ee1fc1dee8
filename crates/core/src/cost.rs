//! A concrete instantiation of the §5 cost-model sketch.
//!
//! The paper defers cost models to future work but describes the decision
//! it must support: *estimate the reduction factor `RF = (a − b)/a` of an
//! operand set and compare it against a calibrated threshold `v` to decide
//! whether `⊖` (fragment set reduce) pays for itself* when computing a
//! fixed point. This module provides:
//!
//! * [`estimate_rf`] — an O(s²·a) sampled estimate of RF (exact when the
//!   sample covers the set);
//! * [`CostModel`] — join-count cost formulas for both fixed-point
//!   computations plus the RF-threshold decision rule;
//! * [`CostModel::choose_mode`] — the optimizer entry point.
//!
//! The default threshold was calibrated with the `reduction` benchmark in
//! `crates/bench` (see EXPERIMENTS.md, experiment P3).

use crate::fixpoint::FixpointMode;
use crate::join::fragment_join;
use crate::plan::LogicalPlan;
use crate::set::FragmentSet;
use crate::stats::EvalStats;
use serde::{Deserialize, Serialize};
use xfrag_doc::{Document, PostingsSource};

/// Estimate the reduction factor of `f` by testing up to `sample`
/// candidate fragments against joins of up to `sample` pairs.
///
/// Sampling is deterministic (evenly-strided) so plans are reproducible;
/// when `sample >= |f|` the estimate is exact and equals
/// [`crate::reduction_factor`].
pub fn estimate_rf(doc: &Document, f: &FragmentSet, sample: usize, stats: &mut EvalStats) -> f64 {
    let frags = f.as_slice();
    let n = frags.len();
    if n <= 2 || sample == 0 {
        return 0.0;
    }
    let stride = n.div_ceil(sample).max(1);
    let candidates: Vec<usize> = (0..n).step_by(stride).collect();
    let pair_pool: Vec<usize> = (0..n).step_by(stride).collect();
    let mut eliminated = 0usize;
    'cand: for &ci in &candidates {
        for (ii, &i) in pair_pool.iter().enumerate() {
            if i == ci {
                continue;
            }
            for &j in &pair_pool[ii + 1..] {
                if j == ci {
                    continue;
                }
                stats.reduce_checks += 1;
                let joined = fragment_join(doc, &frags[i], &frags[j], stats);
                if frags[ci].is_subfragment_of(&joined) {
                    eliminated += 1;
                    continue 'cand;
                }
            }
        }
    }
    eliminated as f64 / candidates.len() as f64
}

/// Join-count cost estimates and the reduce-or-not decision rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// `v` — apply `⊖` only when the estimated RF is at least this value.
    pub rf_threshold: f64,
    /// Sample size for [`estimate_rf`].
    pub rf_sample: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            // Calibrated by the P3 reduction-factor sweep: below ~0.25 the
            // O(k³) reduce pass costs more joins than the skipped
            // stabilization checks save.
            rf_threshold: 0.25,
            rf_sample: 32,
        }
    }
}

impl CostModel {
    /// Estimated joins for the *naive* fixed point of a set with `n`
    /// fragments converging in `iters` rounds: each round joins the
    /// accumulated set (≥ n, growing) against the base set, and pays one
    /// stabilization comparison.
    ///
    /// We model the accumulated set as reaching its final cardinality `m`
    /// immediately (an upper bound): `iters · m · n` joins.
    pub fn naive_fixpoint_joins(&self, n: u64, m: u64, iters: u64) -> u64 {
        iters.saturating_mul(m).saturating_mul(n)
    }

    /// Estimated joins for the reduce-then-iterate fixed point: the `⊖`
    /// pass itself costs ~`n·C(n−1,2) ≈ n³/2` joins in the worst case, then
    /// `(k−1) · m · n` iteration joins.
    pub fn reduced_fixpoint_joins(&self, n: u64, m: u64, k: u64) -> u64 {
        let reduce_cost = n
            .saturating_mul(n.saturating_sub(1))
            .saturating_mul(n.saturating_sub(2))
            / 2;
        reduce_cost.saturating_add(k.saturating_sub(1).saturating_mul(m).saturating_mul(n))
    }

    /// Decide the fixed-point mode for one operand set: estimate RF by
    /// sampling and use [`FixpointMode::Reduced`] only above the threshold
    /// (§5's decision rule verbatim).
    pub fn choose_mode(
        &self,
        doc: &Document,
        f: &FragmentSet,
        stats: &mut EvalStats,
    ) -> FixpointMode {
        let rf = estimate_rf(doc, f, self.rf_sample, stats);
        if rf >= self.rf_threshold {
            FixpointMode::Reduced
        } else {
            FixpointMode::Naive
        }
    }

    /// Estimate the cost of executing `plan` bottom-up, using index
    /// cardinalities at the leaves and the §5 join-count formulas at
    /// fixed points.
    ///
    /// These are deliberately crude *upper-bound* estimates (selections
    /// are assumed to pass everything through, joined cardinalities
    /// multiply, closures are capped at `2^k − 1`): the point of
    /// `explain --analyze` is to print them **next to** the measured
    /// counters, making the model's error visible rather than hiding it.
    pub fn estimate_plan<I: PostingsSource + ?Sized>(
        &self,
        plan: &LogicalPlan,
        doc: &Document,
        index: &I,
    ) -> CostEstimate {
        // Closure cardinality cap: Theorem 2 bounds |F⁺| by the number of
        // non-empty subsets of F.
        fn pow2cap(k: u64) -> u64 {
            if k >= 63 {
                u64::MAX
            } else {
                (1u64 << k).saturating_sub(1)
            }
        }
        match plan {
            LogicalPlan::KeywordSelect { term } => CostEstimate {
                // Directory-only df: never materializes a lazy posting
                // list just to cost the plan.
                joins: 0,
                fragments: index.df(term) as u64,
            },
            // Upper bound: assume the selection passes everything through.
            LogicalPlan::Select { input, .. } => self.estimate_plan(input, doc, index),
            LogicalPlan::PairwiseJoin { left, right } => {
                let l = self.estimate_plan(left, doc, index);
                let r = self.estimate_plan(right, doc, index);
                let pairs = l.fragments.saturating_mul(r.fragments);
                CostEstimate {
                    joins: l.joins.saturating_add(r.joins).saturating_add(pairs),
                    fragments: pairs,
                }
            }
            LogicalPlan::PowersetJoin { left, right } => {
                let l = self.estimate_plan(left, doc, index);
                let r = self.estimate_plan(right, doc, index);
                let candidates = pow2cap(l.fragments).saturating_mul(pow2cap(r.fragments));
                CostEstimate {
                    joins: l.joins.saturating_add(r.joins).saturating_add(candidates),
                    fragments: candidates,
                }
            }
            LogicalPlan::FixedPoint { input, mode, .. } => {
                let inner = self.estimate_plan(input, doc, index);
                let n = inner.fragments;
                // Recover the operand set when the input is a (possibly
                // selected) keyword leaf, so RF can be sampled; otherwise
                // assume nothing reduces.
                let rf = match leaf_term(input) {
                    Some(term) => {
                        let f = FragmentSet::of_nodes(index.postings(term).iter().copied());
                        let mut st = EvalStats::new();
                        estimate_rf(doc, &f, self.rf_sample, &mut st)
                    }
                    None => 0.0,
                };
                let k = n.saturating_sub((rf * n as f64).round() as u64).max(1);
                let m = pow2cap(k);
                let joins = match mode {
                    FixpointMode::Naive => self.naive_fixpoint_joins(n, m, k.saturating_add(1)),
                    FixpointMode::Reduced => self.reduced_fixpoint_joins(n, m, k),
                };
                CostEstimate {
                    joins: inner.joins.saturating_add(joins),
                    fragments: m,
                }
            }
            LogicalPlan::Union { left, right } => {
                let l = self.estimate_plan(left, doc, index);
                let r = self.estimate_plan(right, doc, index);
                CostEstimate {
                    joins: l.joins.saturating_add(r.joins),
                    fragments: l.fragments.saturating_add(r.fragments),
                }
            }
        }
    }
}

/// The keyword term at the bottom of a (possibly selected) leaf chain.
fn leaf_term(plan: &LogicalPlan) -> Option<&str> {
    match plan {
        LogicalPlan::KeywordSelect { term } => Some(term),
        LogicalPlan::Select { input, .. } => leaf_term(input),
        _ => None,
    }
}

/// A plan-stage cost estimate: the two quantities the paper's efficiency
/// arguments count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Estimated join kernels executed.
    pub joins: u64,
    /// Estimated output cardinality (fragments).
    pub fragments: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixpoint::reduction_factor;
    use crate::fragment::Fragment;
    use xfrag_doc::{DocumentBuilder, InvertedIndex, NodeId};

    /// Chain r -> c1 -> c2 -> ... -> c9 (ids 0..9) plus a sibling leaf.
    fn chain_doc() -> Document {
        let mut b = DocumentBuilder::new();
        b.begin("r");
        {
            b.begin("c1");
            b.begin("c2");
            b.begin("c3");
            b.begin("c4");
            b.leaf("c5", "");
            b.end();
            b.end();
            b.end();
            b.end();
            b.leaf("s", "");
        }
        b.end();
        b.finish().unwrap()
    }

    #[test]
    fn exact_sample_matches_reduction_factor() {
        let d = chain_doc();
        let mut st = EvalStats::new();
        // Chain nodes: every interior node is on the path of its
        // neighbours → heavy reduction.
        let f = FragmentSet::from_iter((1..=5).map(|i| Fragment::node(NodeId(i))));
        let exact = reduction_factor(&d, &f, &mut st);
        let est = estimate_rf(&d, &f, 100, &mut st);
        assert!((exact - est).abs() < 1e-9, "exact {exact} vs est {est}");
        assert!(exact > 0.5);
    }

    #[test]
    fn small_sets_have_zero_rf() {
        let d = chain_doc();
        let mut st = EvalStats::new();
        let f = FragmentSet::from_iter([Fragment::node(NodeId(1)), Fragment::node(NodeId(6))]);
        assert_eq!(estimate_rf(&d, &f, 10, &mut st), 0.0);
        assert_eq!(estimate_rf(&d, &FragmentSet::new(), 10, &mut st), 0.0);
    }

    #[test]
    fn choose_mode_follows_threshold() {
        let d = chain_doc();
        let mut st = EvalStats::new();
        let reducible = FragmentSet::from_iter((1..=5).map(|i| Fragment::node(NodeId(i))));
        let cm = CostModel::default();
        assert_eq!(
            cm.choose_mode(&d, &reducible, &mut st),
            FixpointMode::Reduced
        );
        // Two disjoint leaves: nothing to reduce.
        let irreducible =
            FragmentSet::from_iter([Fragment::node(NodeId(5)), Fragment::node(NodeId(6))]);
        assert_eq!(
            cm.choose_mode(&d, &irreducible, &mut st),
            FixpointMode::Naive
        );
        // A model with an impossible threshold never reduces.
        let strict = CostModel {
            rf_threshold: 1.1,
            ..CostModel::default()
        };
        assert_eq!(
            strict.choose_mode(&d, &reducible, &mut st),
            FixpointMode::Naive
        );
    }

    #[test]
    fn estimate_plan_shapes() {
        let mut b = DocumentBuilder::new();
        b.begin("r");
        b.leaf("p", "x y");
        b.leaf("p", "x");
        b.end();
        let d = b.finish().unwrap();
        let idx = InvertedIndex::build(&d);
        let cm = CostModel::default();
        let leaf = |t: &str| LogicalPlan::KeywordSelect {
            term: t.to_string(),
        };

        // Leaves: cardinality straight from the index, no joins.
        let est = cm.estimate_plan(&leaf("x"), &d, &idx);
        assert_eq!(
            est,
            CostEstimate {
                joins: 0,
                fragments: 2
            }
        );

        // Pairwise join: |L|·|R| pairs.
        let join = LogicalPlan::PairwiseJoin {
            left: Box::new(leaf("x")),
            right: Box::new(leaf("y")),
        };
        assert_eq!(
            cm.estimate_plan(&join, &d, &idx),
            CostEstimate {
                joins: 2,
                fragments: 2
            }
        );

        // Union: sums of both branches; a wrapping selection is a
        // pass-through upper bound.
        let union = LogicalPlan::Select {
            filter: crate::filter::FilterExpr::MaxSize(1),
            input: Box::new(LogicalPlan::Union {
                left: Box::new(leaf("x")),
                right: Box::new(leaf("y")),
            }),
        };
        assert_eq!(
            cm.estimate_plan(&union, &d, &idx),
            CostEstimate {
                joins: 0,
                fragments: 3
            }
        );

        // Fixed point over a 2-fragment leaf: RF samples to 0 (sets of
        // ≤ 2 never reduce), so k = n = 2, closure cap m = 2^2 − 1 = 3.
        let fp = LogicalPlan::FixedPoint {
            input: Box::new(leaf("x")),
            mode: FixpointMode::Naive,
            inner_filter: None,
        };
        let est = cm.estimate_plan(&fp, &d, &idx);
        assert_eq!(est.fragments, 3);
        assert_eq!(est.joins, cm.naive_fixpoint_joins(2, 3, 3));
    }

    #[test]
    fn cost_formulas_monotone() {
        let cm = CostModel::default();
        assert!(cm.naive_fixpoint_joins(10, 50, 5) > cm.naive_fixpoint_joins(10, 50, 2));
        assert!(cm.reduced_fixpoint_joins(10, 50, 2) < cm.reduced_fixpoint_joins(10, 50, 5));
        // Saturating, not panicking, on absurd sizes.
        assert_eq!(cm.naive_fixpoint_joins(u64::MAX, 2, 2), u64::MAX);
    }
}
