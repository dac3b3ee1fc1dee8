//! Logical query plans: the evaluation tree each §4 strategy runs, and
//! Figure 5-style `EXPLAIN` rendering.
//!
//! §3 is written the way a database optimizer thinks: a query is an
//! algebraic expression tree, and optimization is rewriting it into an
//! equivalent tree that is cheaper to evaluate "irrespective of how they
//! are implemented". This module keeps those rewrites as data:
//!
//! * [`LogicalPlan`] — the expression tree (`σ`, `⋈`, `⋈*`, `⁺` over
//!   keyword-selection leaves);
//! * [`LogicalPlan::for_strategy`] — the tree a [`Strategy`] evaluates,
//!   built by two rewrites: Theorem 2 (`F1 ⋈* F2 → F1⁺ ⋈ F2⁺`) and
//!   Theorem 3 (anti-monotonic selections commute below pairwise joins
//!   and into fixed-point iterations);
//! * [`LogicalPlan::render`] — the indented evaluation-tree printer
//!   (compare Figure 5 (a) and (b)).
//!
//! Nothing here executes a plan: [`crate::evaluate_traced`] runs every
//! strategy, and `explain` prints each strategy's tree beside that run.

use crate::filter::FilterExpr;
use crate::fixpoint::FixpointMode;
use crate::query::{Query, QueryError, Strategy};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// An algebraic expression over fragment sets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogicalPlan {
    /// `σ_{keyword=term}(nodes(D))` — the leaf of every query tree.
    KeywordSelect {
        /// Normalized query term.
        term: String,
    },
    /// `σ_filter(input)`.
    Select {
        /// The predicate.
        filter: FilterExpr,
        /// The operand expression.
        input: Box<LogicalPlan>,
    },
    /// `left ⋈ right` — pairwise fragment join.
    PairwiseJoin {
        /// Left operand.
        left: Box<LogicalPlan>,
        /// Right operand.
        right: Box<LogicalPlan>,
    },
    /// `left ⋈* right` — powerset fragment join (pre-optimization form).
    PowersetJoin {
        /// Left operand.
        left: Box<LogicalPlan>,
        /// Right operand.
        right: Box<LogicalPlan>,
    },
    /// `input⁺` — fixed point, optionally filtering after every iteration
    /// with an anti-monotonic predicate (the §3.3 expansion).
    FixedPoint {
        /// The operand expression.
        input: Box<LogicalPlan>,
        /// Naive or Theorem-1-reduced iteration.
        mode: FixpointMode,
        /// Anti-monotonic filter applied inside every iteration.
        inner_filter: Option<FilterExpr>,
    },
}

impl LogicalPlan {
    /// The tree `strategy` evaluates for `query`:
    ///
    /// * brute force — the canonical §2.3 form `σ_P(F1 ⋈* … ⋈* Fm)`;
    /// * fixpoint-naive — its Theorem 2 rewrite `σ_P(F1⁺ ⋈ … ⋈ Fm⁺)`;
    /// * fixpoint-reduced — the same tree with Theorem 1's reduced fixed
    ///   points;
    /// * push-down — the Theorem 2 tree with Theorem 3's selections below
    ///   every join and inside every fixed point.
    ///
    /// Under strict leaf semantics a `leaf-contains` selection over every
    /// term sits on top, as it does in evaluation.
    pub fn for_strategy(query: &Query, strategy: Strategy) -> Result<LogicalPlan, QueryError> {
        let canonical = canonical(query)?;
        Ok(match strategy {
            Strategy::BruteForce => canonical,
            Strategy::FixedPointNaive => powerset_to_fixpoint(canonical, FixpointMode::Naive),
            Strategy::FixedPointReduced => powerset_to_fixpoint(canonical, FixpointMode::Reduced),
            Strategy::PushDown => push_down_selection(
                powerset_to_fixpoint(canonical, FixpointMode::Naive),
                &FilterExpr::True,
            ),
        })
    }

    /// Render the evaluation tree, one operator per line, children
    /// indented — the visual of Figure 5.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, level: usize) {
        for _ in 0..level {
            out.push_str("  ");
        }
        // invariant (every writeln! below): fmt::Write for String never
        // returns Err.
        match self {
            LogicalPlan::KeywordSelect { term } => {
                writeln!(out, "σ[keyword={term}](nodes(D))").unwrap();
            }
            LogicalPlan::Select { filter, input } => {
                writeln!(out, "σ[{filter}]").unwrap();
                input.render_into(out, level + 1);
            }
            LogicalPlan::PairwiseJoin { left, right } => {
                writeln!(out, "⋈ (pairwise)").unwrap();
                left.render_into(out, level + 1);
                right.render_into(out, level + 1);
            }
            LogicalPlan::PowersetJoin { left, right } => {
                writeln!(out, "⋈* (powerset)").unwrap();
                left.render_into(out, level + 1);
                right.render_into(out, level + 1);
            }
            LogicalPlan::FixedPoint {
                input,
                mode,
                inner_filter,
            } => {
                match inner_filter {
                    Some(p) => writeln!(out, "fixpoint[{mode:?}, inner σ[{p}]]").unwrap(),
                    None => writeln!(out, "fixpoint[{mode:?}]").unwrap(),
                }
                input.render_into(out, level + 1);
            }
        }
    }
}

/// The canonical un-optimized plan for a query (§2.3):
/// `σ_P(F1 ⋈* F2 ⋈* … ⋈* Fm)`, under a `leaf-contains` selection when the
/// query asks for strict leaf semantics.
fn canonical(query: &Query) -> Result<LogicalPlan, QueryError> {
    let mut terms = query.terms.iter();
    let first = terms.next().ok_or(QueryError::NoTerms)?;
    let mut plan = LogicalPlan::KeywordSelect {
        term: first.clone(),
    };
    let mut saw_join = false;
    for t in terms {
        saw_join = true;
        plan = LogicalPlan::PowersetJoin {
            left: Box::new(plan),
            right: Box::new(LogicalPlan::KeywordSelect { term: t.clone() }),
        };
    }
    if !saw_join {
        // Single-term queries still close the operand under join:
        // F1⁺ is the m = 1 degenerate form of the powerset join.
        plan = LogicalPlan::FixedPoint {
            input: Box::new(plan),
            mode: FixpointMode::Naive,
            inner_filter: None,
        };
    }
    plan = LogicalPlan::Select {
        filter: query.filter.clone(),
        input: Box::new(plan),
    };
    if query.strict_leaf_semantics {
        plan = LogicalPlan::Select {
            filter: FilterExpr::and(query.terms.iter().map(|t| FilterExpr::LeafTerm(t.clone()))),
            input: Box::new(plan),
        };
    }
    Ok(plan)
}

/// Theorem 2: replace every `⋈*` with `⁺`-then-`⋈`, every fixed point
/// iterating in `mode`.
fn powerset_to_fixpoint(plan: LogicalPlan, mode: FixpointMode) -> LogicalPlan {
    match plan {
        LogicalPlan::PowersetJoin { left, right } => LogicalPlan::PairwiseJoin {
            left: Box::new(close(powerset_to_fixpoint(*left, mode), mode)),
            right: Box::new(close(powerset_to_fixpoint(*right, mode), mode)),
        },
        LogicalPlan::Select { filter, input } => LogicalPlan::Select {
            filter,
            input: Box::new(powerset_to_fixpoint(*input, mode)),
        },
        LogicalPlan::PairwiseJoin { left, right } => LogicalPlan::PairwiseJoin {
            left: Box::new(powerset_to_fixpoint(*left, mode)),
            right: Box::new(powerset_to_fixpoint(*right, mode)),
        },
        LogicalPlan::FixedPoint {
            input,
            inner_filter,
            ..
        } => LogicalPlan::FixedPoint {
            input: Box::new(powerset_to_fixpoint(*input, mode)),
            mode,
            inner_filter,
        },
        leaf @ LogicalPlan::KeywordSelect { .. } => leaf,
    }
}

/// Wrap `plan` in a fixed point — unless it is already closed under `⋈`.
/// A pairwise join of fixed points is closed (joins of joins of base
/// elements are joins of base elements), so re-closing it would only
/// waste an iteration.
fn close(plan: LogicalPlan, mode: FixpointMode) -> LogicalPlan {
    fn is_join_closed(plan: &LogicalPlan) -> bool {
        match plan {
            LogicalPlan::FixedPoint { .. } => true,
            LogicalPlan::PairwiseJoin { left, right } => {
                is_join_closed(left) && is_join_closed(right)
            }
            _ => false,
        }
    }
    if is_join_closed(&plan) {
        return plan;
    }
    LogicalPlan::FixedPoint {
        input: Box::new(plan),
        mode,
        inner_filter: None,
    }
}

/// Theorem 3: push anti-monotonic selections below joins and inside
/// fixed points. `anti` is the conjunction of anti-monotonic predicates
/// inherited from enclosing selections ([`FilterExpr::True`] at the root).
fn push_down_selection(plan: LogicalPlan, anti: &FilterExpr) -> LogicalPlan {
    match plan {
        LogicalPlan::Select { filter, input } => {
            let (a, _rest) = filter.split_anti_monotonic();
            let combined = FilterExpr::and([anti.clone(), a]);
            LogicalPlan::Select {
                filter,
                input: Box::new(push_down_selection(*input, &combined)),
            }
        }
        LogicalPlan::PairwiseJoin { left, right } => guard(
            LogicalPlan::PairwiseJoin {
                left: Box::new(push_down_selection(*left, anti)),
                right: Box::new(push_down_selection(*right, anti)),
            },
            anti,
        ),
        // Theorems 2 + 3 compose: the anti-monotonic filter passes
        // through the powerset join to both operands.
        LogicalPlan::PowersetJoin { left, right } => guard(
            LogicalPlan::PowersetJoin {
                left: Box::new(push_down_selection(*left, anti)),
                right: Box::new(push_down_selection(*right, anti)),
            },
            anti,
        ),
        LogicalPlan::FixedPoint {
            input,
            mode,
            inner_filter,
        } => {
            let inner = match (inner_filter, anti.is_true()) {
                (None, true) => None,
                (None, false) => Some(anti.clone()),
                (Some(p), true) => Some(p),
                (Some(p), false) => Some(FilterExpr::and([p, anti.clone()])),
            };
            LogicalPlan::FixedPoint {
                input: Box::new(push_down_selection(*input, anti)),
                mode,
                inner_filter: inner,
            }
        }
        leaf @ LogicalPlan::KeywordSelect { .. } => guard(leaf, anti),
    }
}

/// Wrap in `σ[anti]` unless that would be a no-op.
fn guard(plan: LogicalPlan, anti: &FilterExpr) -> LogicalPlan {
    if anti.is_true() {
        return plan;
    }
    if let LogicalPlan::Select { filter, .. } = &plan {
        if filter == anti {
            return plan;
        }
    }
    LogicalPlan::Select {
        filter: anti.clone(),
        input: Box::new(plan),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(terms: &[&str], filter: FilterExpr, strategy: Strategy) -> String {
        let q = Query::new(terms.iter().copied(), filter);
        LogicalPlan::for_strategy(&q, strategy).unwrap().render()
    }

    #[test]
    fn initial_plan_shape() {
        let r = plan(
            &["alpha", "beta"],
            FilterExpr::MaxSize(3),
            Strategy::BruteForce,
        );
        assert!(r.starts_with("σ[size≤3]"), "{r}");
        assert!(r.contains("⋈* (powerset)"));
        assert!(r.contains("σ[keyword=alpha](nodes(D))"));
        assert!(r.contains("σ[keyword=beta](nodes(D))"));
        assert!(!r.contains("fixpoint"), "{r}");
    }

    #[test]
    fn single_term_plan_closes_with_fixpoint() {
        let r = plan(&["alpha"], FilterExpr::True, Strategy::BruteForce);
        assert!(r.contains("fixpoint"));
    }

    #[test]
    fn theorem2_rule_removes_powerset_joins() {
        let r = plan(
            &["alpha", "beta", "gamma"],
            FilterExpr::MaxSize(5),
            Strategy::FixedPointNaive,
        );
        assert!(!r.contains("⋈*"));
        // (F1⁺ ⋈ F2⁺) ⋈ F3⁺: the inner join is closed, so is not re-closed.
        assert_eq!(r.matches("⋈ (pairwise)").count(), 2, "{r}");
        assert_eq!(r.matches("fixpoint[Naive]").count(), 3, "{r}");
    }

    #[test]
    fn reduced_strategy_plan_iterates_reduced_fixpoints() {
        for terms in [&["alpha"][..], &["alpha", "beta"]] {
            let r = plan(terms, FilterExpr::MaxSize(3), Strategy::FixedPointReduced);
            assert!(!r.contains("Naive") && !r.contains("⋈*"), "{r}");
            assert_eq!(r.matches("fixpoint[Reduced]").count(), terms.len(), "{r}");
            assert_eq!(r.matches("σ[size≤3]").count(), 1, "{r}");
        }
    }

    #[test]
    fn pushdown_rule_inserts_selections_below_joins() {
        let r = plan(
            &["alpha", "beta"],
            FilterExpr::MaxSize(3),
            Strategy::PushDown,
        );
        // The anti-monotonic filter must now appear under the join as well
        // as on top (Figure 5 (b)).
        assert!(r.matches("σ[size≤3]").count() >= 3, "rendered:\n{r}");
        assert!(r.contains("inner σ[size≤3]"));
    }

    #[test]
    fn pushdown_leaves_non_anti_monotonic_filters_on_top() {
        let r = plan(
            &["alpha", "beta"],
            FilterExpr::MinSize(2),
            Strategy::PushDown,
        );
        assert_eq!(r.matches("size≥2").count(), 1, "rendered:\n{r}");
        // Nothing is anti-monotonic, so push-down runs the Theorem 2 tree.
        assert_eq!(
            r,
            plan(
                &["alpha", "beta"],
                FilterExpr::MinSize(2),
                Strategy::FixedPointNaive
            )
        );
    }

    #[test]
    fn strict_plans_select_leaf_terms_on_top() {
        let q = Query::new(["alpha", "beta"], FilterExpr::MaxSize(3)).with_strict_leaf_semantics();
        for s in Strategy::ALL {
            let r = LogicalPlan::for_strategy(&q, s).unwrap().render();
            assert!(
                r.starts_with("σ[(leaf-contains(alpha) ∧ leaf-contains(beta))]\n  σ[size≤3]"),
                "{s:?}:\n{r}"
            );
        }
    }

    #[test]
    fn a_query_without_terms_has_no_plan() {
        let q = Query::new(Vec::<String>::new(), FilterExpr::True);
        for s in Strategy::ALL {
            assert_eq!(LogicalPlan::for_strategy(&q, s), Err(QueryError::NoTerms));
        }
    }
}
