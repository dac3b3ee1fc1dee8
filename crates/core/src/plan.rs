//! Logical query plans, the paper's rewrites as optimizer rules, and
//! Figure 5-style `EXPLAIN` rendering.
//!
//! §3 is written the way a database optimizer thinks: a query is an
//! algebraic expression tree, and optimization is rewriting it into an
//! equivalent tree that is cheaper to evaluate "irrespective of how they
//! are implemented". This module makes that concrete:
//!
//! * [`LogicalPlan`] — the expression tree (`σ`, `⋈`, `⋈*`, `⁺` over
//!   keyword-selection leaves);
//! * [`PowersetToFixpoint`] — Theorem 2: `F1 ⋈* F2 → F1⁺ ⋈ F2⁺`;
//! * [`PushDownSelection`] — Theorem 3: anti-monotonic selections commute
//!   below pairwise joins and into fixed-point iterations;
//! * [`ChooseFixpointMode`] — the §5 decision rule, delegating to
//!   [`crate::cost::CostModel`];
//! * [`execute_traced`] — the governed, traced plan interpreter behind
//!   `explain` (pass [`Governor::unlimited`] and [`Tracer::disabled`] for
//!   a plain run);
//! * [`LogicalPlan::render`] — the indented evaluation-tree printer
//!   (compare Figure 5 (a) and (b)).

use crate::budget::{Breach, Governor};
use crate::cost::CostModel;
use crate::exec::ExecCtx;
use crate::filter::{select, FilterExpr};
use crate::fixpoint::FixpointMode;
use crate::nav::Nav;
use crate::query::{Query, QueryError};
use crate::set::FragmentSet;
use crate::stats::EvalStats;
use crate::trace::Tracer;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use xfrag_doc::{Document, PostingsSource};

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
    /// `left ∪ right` — set union. Introduced by the distributive-law
    /// rewrite `F1 ⋈ (F2 ∪ F3) = (F1 ⋈ F2) ∪ (F1 ⋈ F3)` (a Definition 5
    /// law the paper lists among its optimization-enabling properties);
    /// union branches are independent and can be evaluated in parallel.
    Union {
        /// Left branch.
        left: Box<LogicalPlan>,
        /// Right branch.
        right: Box<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// The canonical un-optimized plan for a query (§2.3):
    /// `σ_P(F1 ⋈* F2 ⋈* … ⋈* Fm)`.
    pub fn for_query(query: &Query) -> Result<LogicalPlan, QueryError> {
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
        Ok(LogicalPlan::Select {
            filter: query.filter.clone(),
            input: Box::new(plan),
        })
    }

    /// A plan for a query with *synonym groups*: each group is a
    /// disjunction of terms (`σ_{k=t1} ∪ σ_{k=t2} ∪ …` — keyword
    /// selections over the same node universe union exactly), and groups
    /// combine conjunctively through powerset joins as usual. With one
    /// term per group this reduces to [`LogicalPlan::for_query`]'s shape.
    pub fn for_query_groups(
        groups: &[Vec<String>],
        filter: FilterExpr,
    ) -> Result<LogicalPlan, QueryError> {
        fn group_plan(group: &[String]) -> Result<LogicalPlan, QueryError> {
            let mut it = group.iter();
            let first = it.next().ok_or(QueryError::NoTerms)?;
            let mut plan = LogicalPlan::KeywordSelect {
                term: first.clone(),
            };
            for t in it {
                plan = LogicalPlan::Union {
                    left: Box::new(plan),
                    right: Box::new(LogicalPlan::KeywordSelect { term: t.clone() }),
                };
            }
            Ok(plan)
        }
        let mut it = groups.iter();
        let first = it.next().ok_or(QueryError::NoTerms)?;
        let mut plan = group_plan(first)?;
        let mut saw_join = false;
        for g in it {
            saw_join = true;
            plan = LogicalPlan::PowersetJoin {
                left: Box::new(plan),
                right: Box::new(group_plan(g)?),
            };
        }
        if !saw_join {
            plan = LogicalPlan::FixedPoint {
                input: Box::new(plan),
                mode: FixpointMode::Naive,
                inner_filter: None,
            };
        }
        Ok(LogicalPlan::Select {
            filter,
            input: Box::new(plan),
        })
    }

    /// Short one-line label for this operator (no children) — used as the
    /// trace span stage for plan execution and in `explain --analyze`
    /// stage tables.
    pub fn label(&self) -> String {
        match self {
            LogicalPlan::KeywordSelect { term } => format!("keyword:{term}"),
            LogicalPlan::Select { filter, .. } => format!("σ[{filter}]"),
            LogicalPlan::PairwiseJoin { .. } => "⋈ pairwise".to_string(),
            LogicalPlan::PowersetJoin { .. } => "⋈* powerset".to_string(),
            LogicalPlan::FixedPoint { mode, .. } => format!("fixpoint[{mode:?}]"),
            LogicalPlan::Union { .. } => "∪ union".to_string(),
        }
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
            LogicalPlan::Union { left, right } => {
                writeln!(out, "∪ (union)").unwrap();
                left.render_into(out, level + 1);
                right.render_into(out, level + 1);
            }
        }
    }
}

/// A plan-to-plan rewrite preserving the result set.
pub trait OptimizerRule {
    /// Stable rule name for explain output.
    fn name(&self) -> &'static str;
    /// Rewrite the plan. Must preserve semantics.
    fn apply(&self, plan: LogicalPlan) -> LogicalPlan;
}

/// Theorem 2: replace every `⋈*` with `⁺`-then-`⋈`.
#[derive(Debug, Default)]
pub struct PowersetToFixpoint;

impl PowersetToFixpoint {
    fn rewrite(plan: LogicalPlan) -> LogicalPlan {
        match plan {
            LogicalPlan::PowersetJoin { left, right } => {
                let l = Self::rewrite(*left);
                let r = Self::rewrite(*right);
                LogicalPlan::PairwiseJoin {
                    left: Box::new(Self::close(l)),
                    right: Box::new(Self::close(r)),
                }
            }
            LogicalPlan::Select { filter, input } => LogicalPlan::Select {
                filter,
                input: Box::new(Self::rewrite(*input)),
            },
            LogicalPlan::PairwiseJoin { left, right } => LogicalPlan::PairwiseJoin {
                left: Box::new(Self::rewrite(*left)),
                right: Box::new(Self::rewrite(*right)),
            },
            LogicalPlan::FixedPoint {
                input,
                mode,
                inner_filter,
            } => LogicalPlan::FixedPoint {
                input: Box::new(Self::rewrite(*input)),
                mode,
                inner_filter,
            },
            LogicalPlan::Union { left, right } => LogicalPlan::Union {
                left: Box::new(Self::rewrite(*left)),
                right: Box::new(Self::rewrite(*right)),
            },
            leaf @ LogicalPlan::KeywordSelect { .. } => leaf,
        }
    }

    /// Wrap `plan` in a fixed point — unless it is already closed under
    /// `⋈`. A pairwise join of fixed points is closed (joins of joins of
    /// base elements are joins of base elements), so re-closing it would
    /// only waste an iteration.
    fn close(plan: LogicalPlan) -> LogicalPlan {
        if Self::is_join_closed(&plan) {
            return plan;
        }
        LogicalPlan::FixedPoint {
            input: Box::new(plan),
            mode: FixpointMode::Naive,
            inner_filter: None,
        }
    }

    fn is_join_closed(plan: &LogicalPlan) -> bool {
        match plan {
            LogicalPlan::FixedPoint { .. } => true,
            LogicalPlan::PairwiseJoin { left, right } => {
                Self::is_join_closed(left) && Self::is_join_closed(right)
            }
            _ => false,
        }
    }
}

impl OptimizerRule for PowersetToFixpoint {
    fn name(&self) -> &'static str {
        "powerset-to-fixpoint (Theorem 2)"
    }
    fn apply(&self, plan: LogicalPlan) -> LogicalPlan {
        Self::rewrite(plan)
    }
}

/// The Definition 5 distributive law as a rewrite:
/// `A ⋈ (B ∪ C) → (A ⋈ B) ∪ (A ⋈ C)` (and symmetrically on the left).
/// Union branches are independent — a parallel executor can run them on
/// separate workers — and selections distribute into them exactly.
#[derive(Debug, Default)]
pub struct DistributeJoinOverUnion;

impl DistributeJoinOverUnion {
    fn rewrite(plan: LogicalPlan) -> LogicalPlan {
        match plan {
            LogicalPlan::PairwiseJoin { left, right } => {
                let l = Self::rewrite(*left);
                let r = Self::rewrite(*right);
                match (l, r) {
                    (l, LogicalPlan::Union { left: b, right: c }) => LogicalPlan::Union {
                        left: Box::new(Self::rewrite(LogicalPlan::PairwiseJoin {
                            left: Box::new(l.clone()),
                            right: b,
                        })),
                        right: Box::new(Self::rewrite(LogicalPlan::PairwiseJoin {
                            left: Box::new(l),
                            right: c,
                        })),
                    },
                    (LogicalPlan::Union { left: a, right: b }, r) => LogicalPlan::Union {
                        left: Box::new(Self::rewrite(LogicalPlan::PairwiseJoin {
                            left: a,
                            right: Box::new(r.clone()),
                        })),
                        right: Box::new(Self::rewrite(LogicalPlan::PairwiseJoin {
                            left: b,
                            right: Box::new(r),
                        })),
                    },
                    (l, r) => LogicalPlan::PairwiseJoin {
                        left: Box::new(l),
                        right: Box::new(r),
                    },
                }
            }
            LogicalPlan::Select { filter, input } => LogicalPlan::Select {
                filter,
                input: Box::new(Self::rewrite(*input)),
            },
            LogicalPlan::PowersetJoin { left, right } => LogicalPlan::PowersetJoin {
                left: Box::new(Self::rewrite(*left)),
                right: Box::new(Self::rewrite(*right)),
            },
            LogicalPlan::FixedPoint {
                input,
                mode,
                inner_filter,
            } => LogicalPlan::FixedPoint {
                input: Box::new(Self::rewrite(*input)),
                mode,
                inner_filter,
            },
            LogicalPlan::Union { left, right } => LogicalPlan::Union {
                left: Box::new(Self::rewrite(*left)),
                right: Box::new(Self::rewrite(*right)),
            },
            leaf @ LogicalPlan::KeywordSelect { .. } => leaf,
        }
    }
}

impl OptimizerRule for DistributeJoinOverUnion {
    fn name(&self) -> &'static str {
        "distribute-join-over-union (Definition 5 law)"
    }
    fn apply(&self, plan: LogicalPlan) -> LogicalPlan {
        Self::rewrite(plan)
    }
}

/// Theorem 3: push anti-monotonic selections below joins and inside
/// fixed points.
#[derive(Debug, Default)]
pub struct PushDownSelection;

impl PushDownSelection {
    /// `anti` is the conjunction of anti-monotonic predicates inherited
    /// from enclosing selections.
    fn rewrite(plan: LogicalPlan, anti: &FilterExpr) -> LogicalPlan {
        match plan {
            LogicalPlan::Select { filter, input } => {
                let (a, _rest) = filter.split_anti_monotonic();
                let combined = FilterExpr::and([anti.clone(), a]);
                LogicalPlan::Select {
                    filter,
                    input: Box::new(Self::rewrite(*input, &combined)),
                }
            }
            LogicalPlan::PairwiseJoin { left, right } => {
                let joined = LogicalPlan::PairwiseJoin {
                    left: Box::new(Self::rewrite(*left, anti)),
                    right: Box::new(Self::rewrite(*right, anti)),
                };
                Self::guard(joined, anti)
            }
            LogicalPlan::PowersetJoin { left, right } => {
                // Theorems 2 + 3 compose: the anti-monotonic filter passes
                // through the powerset join to both operands.
                let joined = LogicalPlan::PowersetJoin {
                    left: Box::new(Self::rewrite(*left, anti)),
                    right: Box::new(Self::rewrite(*right, anti)),
                };
                Self::guard(joined, anti)
            }
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
                    input: Box::new(Self::rewrite(*input, anti)),
                    mode,
                    inner_filter: inner,
                }
            }
            LogicalPlan::Union { left, right } => LogicalPlan::Union {
                // σ distributes over ∪ exactly (no anti-monotonicity
                // needed): push into both branches, no guard required.
                left: Box::new(Self::rewrite(*left, anti)),
                right: Box::new(Self::rewrite(*right, anti)),
            },
            leaf @ LogicalPlan::KeywordSelect { .. } => Self::guard(leaf, anti),
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
}

impl OptimizerRule for PushDownSelection {
    fn name(&self) -> &'static str {
        "push-down-selection (Theorem 3)"
    }
    fn apply(&self, plan: LogicalPlan) -> LogicalPlan {
        Self::rewrite(plan, &FilterExpr::True)
    }
}

/// §5's decision rule: pick [`FixpointMode::Reduced`] for fixed points
/// whose operand's *estimated* reduction factor clears the cost-model
/// threshold. This rule needs data statistics, so it holds the document
/// and index.
pub struct ChooseFixpointMode<'a, I: PostingsSource + ?Sized> {
    /// The cost model carrying the threshold `v` and sample size.
    pub model: CostModel,
    /// Document being queried.
    pub doc: &'a Document,
    /// Its keyword index (to materialize leaf cardinalities).
    pub index: &'a I,
}

impl<I: PostingsSource + ?Sized> ChooseFixpointMode<'_, I> {
    fn rewrite(&self, plan: LogicalPlan) -> LogicalPlan {
        match plan {
            LogicalPlan::FixedPoint {
                input,
                mode: _,
                inner_filter,
            } => {
                // Only keyword-select leaves (possibly under selections)
                // have cheaply-estimable operand sets.
                let mode = match Self::leaf_term(&input) {
                    Some(term) => {
                        let mut st = EvalStats::new();
                        let f = FragmentSet::of_nodes(self.index.postings(term).iter().copied());
                        self.model.choose_mode(self.doc, &f, &mut st)
                    }
                    None => FixpointMode::Naive,
                };
                LogicalPlan::FixedPoint {
                    input: Box::new(self.rewrite(*input)),
                    mode,
                    inner_filter,
                }
            }
            LogicalPlan::Select { filter, input } => LogicalPlan::Select {
                filter,
                input: Box::new(self.rewrite(*input)),
            },
            LogicalPlan::PairwiseJoin { left, right } => LogicalPlan::PairwiseJoin {
                left: Box::new(self.rewrite(*left)),
                right: Box::new(self.rewrite(*right)),
            },
            LogicalPlan::PowersetJoin { left, right } => LogicalPlan::PowersetJoin {
                left: Box::new(self.rewrite(*left)),
                right: Box::new(self.rewrite(*right)),
            },
            LogicalPlan::Union { left, right } => LogicalPlan::Union {
                left: Box::new(self.rewrite(*left)),
                right: Box::new(self.rewrite(*right)),
            },
            leaf @ LogicalPlan::KeywordSelect { .. } => leaf,
        }
    }

    fn leaf_term(plan: &LogicalPlan) -> Option<&str> {
        match plan {
            LogicalPlan::KeywordSelect { term } => Some(term),
            LogicalPlan::Select { input, .. } => Self::leaf_term(input),
            _ => None,
        }
    }
}

impl<I: PostingsSource + ?Sized> OptimizerRule for ChooseFixpointMode<'_, I> {
    fn name(&self) -> &'static str {
        "choose-fixpoint-mode (§5 RF rule)"
    }
    fn apply(&self, plan: LogicalPlan) -> LogicalPlan {
        self.rewrite(plan)
    }
}

/// An ordered pipeline of rewrite rules.
pub struct Optimizer<'a> {
    rules: Vec<Box<dyn OptimizerRule + 'a>>,
}

impl<'a> Optimizer<'a> {
    /// The paper's full pipeline: Theorem 2, then Theorem 3, then the §5
    /// RF decision.
    pub fn standard<I: PostingsSource + ?Sized>(
        doc: &'a Document,
        index: &'a I,
        model: CostModel,
    ) -> Self {
        Optimizer {
            rules: vec![
                Box::new(PowersetToFixpoint),
                Box::new(PushDownSelection),
                Box::new(ChooseFixpointMode { model, doc, index }),
            ],
        }
    }

    /// An optimizer with no rules (identity).
    pub fn empty() -> Self {
        Optimizer { rules: Vec::new() }
    }

    /// Add a rule to the end of the pipeline.
    pub fn with_rule(mut self, rule: impl OptimizerRule + 'a) -> Self {
        self.rules.push(Box::new(rule));
        self
    }

    /// Apply all rules in order.
    pub fn optimize(&self, mut plan: LogicalPlan) -> LogicalPlan {
        for rule in &self.rules {
            plan = rule.apply(plan);
        }
        plan
    }

    /// Apply all rules, returning the plan after each rule — the EXPLAIN
    /// trace.
    pub fn optimize_traced(&self, mut plan: LogicalPlan) -> Vec<(String, LogicalPlan)> {
        let mut trace = vec![("initial".to_string(), plan.clone())];
        for rule in &self.rules {
            plan = rule.apply(plan);
            trace.push((rule.name().to_string(), plan.clone()));
        }
        trace
    }
}

/// Evaluate a logical plan under a [`Governor`] and a [`Tracer`]: a budget
/// checkpoint runs at every operator boundary (so even a deep plan observes deadlines and
/// cancellation promptly), every join and fixed-point operator charges
/// the governor, and every operator opens a span labeled by
/// [`LogicalPlan::label`], nested to mirror the plan tree, with
/// fixed-point operators contributing their per-round child spans — the
/// execution side of `explain --analyze`. Structural questions go
/// through a [`Nav`] built from the source's labels, so a persistent
/// segment executes plans by label arithmetic, an in-memory index by
/// tree walks.
///
/// A powerset join with an operand over [`crate::POWERSET_LIMIT`]
/// fragments returns [`Breach::PowersetLimit`]; so does an unfiltered
/// fixed point over more than that many under a governor without work
/// limits, where nothing else would stop the closure blow-up.
pub fn execute_traced<I: PostingsSource + ?Sized>(
    plan: &LogicalPlan,
    doc: &Document,
    index: &I,
    stats: &mut EvalStats,
    gov: &Governor,
    tracer: &Tracer<'_>,
) -> Result<FragmentSet, Breach> {
    let cx = ExecCtx::new(Nav::new(doc, index.labels()), gov, tracer);
    execute_in(plan, index, &cx, stats)
}

/// The interpreter behind [`execute_traced`], one operator per call.
fn execute_in<I: PostingsSource + ?Sized>(
    plan: &LogicalPlan,
    index: &I,
    cx: &ExecCtx<'_>,
    stats: &mut EvalStats,
) -> Result<FragmentSet, Breach> {
    cx.tracer.scoped_lazy(
        || plan.label(),
        stats,
        |stats| {
            cx.gov.checkpoint()?;
            match plan {
                LogicalPlan::KeywordSelect { term } => {
                    Ok(crate::query::term_operand(index, term, cx.tracer, stats))
                }
                LogicalPlan::Select { filter, input } => {
                    let f = execute_in(input, index, cx, stats)?;
                    Ok(select(cx.nav.doc(), filter, &f, stats))
                }
                LogicalPlan::PairwiseJoin { left, right } => {
                    let l = execute_in(left, index, cx, stats)?;
                    let r = execute_in(right, index, cx, stats)?;
                    if l.is_empty() || r.is_empty() {
                        return Ok(FragmentSet::new());
                    }
                    cx.tracer.scoped("pairwise-join", stats, |stats| {
                        cx.pairwise_join(&l, &r, stats)
                    })
                }
                LogicalPlan::PowersetJoin { left, right } => {
                    let l = execute_in(left, index, cx, stats)?;
                    let r = execute_in(right, index, cx, stats)?;
                    if l.is_empty() || r.is_empty() {
                        return Ok(FragmentSet::new());
                    }
                    cx.powerset_join(&l, &r, stats)
                }
                LogicalPlan::FixedPoint {
                    input,
                    mode,
                    inner_filter,
                } => {
                    let f = execute_in(input, index, cx, stats)?;
                    // An unbounded governor cannot stop an unfiltered closure
                    // blow-up, and Theorem 2 says |F⁺| can reach the powerset
                    // size — refuse it like the literal enumeration would.
                    // Filtered fixed points stay admissible: the pushed-down
                    // anti-monotonic filter is what makes them tractable.
                    if inner_filter.is_none()
                        && !cx.gov.is_work_bounded()
                        && f.len() > crate::join::POWERSET_LIMIT
                    {
                        return Err(Breach::PowersetLimit);
                    }
                    match inner_filter {
                        None => cx.fixed_point(&f, *mode, stats),
                        Some(p) => cx.filtered_fixed_point(&f, p, stats),
                    }
                }
                LogicalPlan::Union { left, right } => {
                    let l = execute_in(left, index, cx, stats)?;
                    let r = execute_in(right, index, cx, stats)?;
                    Ok(l.union(&r))
                }
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{evaluate, Strategy};
    use xfrag_doc::{DocumentBuilder, InvertedIndex};

    /// A plain, unbudgeted, untraced plan run.
    fn execute(
        plan: &LogicalPlan,
        doc: &Document,
        index: &InvertedIndex,
        stats: &mut EvalStats,
    ) -> Result<FragmentSet, Breach> {
        execute_traced(
            plan,
            doc,
            index,
            stats,
            &Governor::unlimited(),
            &Tracer::disabled(),
        )
    }

    fn doc() -> Document {
        let mut b = DocumentBuilder::new();
        b.begin("article");
        b.begin("sec");
        b.text("alpha");
        b.leaf("p", "alpha beta");
        b.leaf("p", "beta");
        b.end();
        b.begin("sec");
        b.leaf("p", "alpha");
        b.leaf("p", "gamma");
        b.end();
        b.end();
        b.finish().unwrap()
    }

    fn query(terms: &[&str], filter: FilterExpr) -> Query {
        Query::new(terms.iter().copied(), filter)
    }

    #[test]
    fn initial_plan_shape() {
        let q = query(&["alpha", "beta"], FilterExpr::MaxSize(3));
        let plan = LogicalPlan::for_query(&q).unwrap();
        let rendered = plan.render();
        assert!(rendered.contains("σ[size≤3]"));
        assert!(rendered.contains("⋈* (powerset)"));
        assert!(rendered.contains("σ[keyword=alpha](nodes(D))"));
        assert!(rendered.contains("σ[keyword=beta](nodes(D))"));
    }

    #[test]
    fn single_term_plan_closes_with_fixpoint() {
        let q = query(&["alpha"], FilterExpr::True);
        let plan = LogicalPlan::for_query(&q).unwrap();
        assert!(plan.render().contains("fixpoint"));
    }

    #[test]
    fn theorem2_rule_removes_powerset_joins() {
        let q = query(&["alpha", "beta", "gamma"], FilterExpr::MaxSize(5));
        let plan = LogicalPlan::for_query(&q).unwrap();
        let rewritten = PowersetToFixpoint.apply(plan);
        let r = rewritten.render();
        assert!(!r.contains("⋈*"));
        assert!(r.contains("⋈ (pairwise)"));
        assert!(r.contains("fixpoint"));
    }

    #[test]
    fn pushdown_rule_inserts_selections_below_joins() {
        let q = query(&["alpha", "beta"], FilterExpr::MaxSize(3));
        let plan = PowersetToFixpoint.apply(LogicalPlan::for_query(&q).unwrap());
        let pushed = PushDownSelection.apply(plan);
        let r = pushed.render();
        // The anti-monotonic filter must now appear under the join as well
        // as on top (Figure 5 (b)).
        assert!(r.matches("σ[size≤3]").count() >= 3, "rendered:\n{r}");
        assert!(r.contains("inner σ[size≤3]"));
    }

    #[test]
    fn pushdown_leaves_non_anti_monotonic_filters_on_top() {
        let q = query(&["alpha", "beta"], FilterExpr::MinSize(2));
        let plan = PowersetToFixpoint.apply(LogicalPlan::for_query(&q).unwrap());
        let pushed = PushDownSelection.apply(plan);
        let r = pushed.render();
        assert_eq!(r.matches("size≥2").count(), 1, "rendered:\n{r}");
    }

    #[test]
    fn all_plan_stages_agree_with_direct_evaluation() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        for filter in [
            FilterExpr::True,
            FilterExpr::MaxSize(3),
            FilterExpr::and([FilterExpr::MaxSize(4), FilterExpr::MinSize(2)]),
        ] {
            let q = query(&["alpha", "beta"], filter);
            let oracle = evaluate(&d, &idx, &q, Strategy::FixedPointNaive)
                .unwrap()
                .fragments;
            let optimizer = Optimizer::standard(&d, &idx, CostModel::default());
            for (stage, plan) in optimizer.optimize_traced(LogicalPlan::for_query(&q).unwrap()) {
                let mut st = EvalStats::new();
                let got = execute(&plan, &d, &idx, &mut st).unwrap();
                assert_eq!(got, oracle, "stage {stage} for {:?}", q.filter);
            }
        }
    }

    #[test]
    fn optimized_plan_prunes_work() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        let q = query(&["alpha", "beta"], FilterExpr::MaxSize(2));
        let initial = PowersetToFixpoint.apply(LogicalPlan::for_query(&q).unwrap());
        let optimized = PushDownSelection.apply(initial.clone());
        let mut st_init = EvalStats::new();
        let mut st_opt = EvalStats::new();
        let a = execute(&initial, &d, &idx, &mut st_init).unwrap();
        let b = execute(&optimized, &d, &idx, &mut st_opt).unwrap();
        assert_eq!(a, b);
        assert!(st_opt.joins <= st_init.joins);
    }

    #[test]
    fn cost_rule_sets_modes() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        let q = query(&["alpha"], FilterExpr::True);
        let plan = LogicalPlan::for_query(&q).unwrap();
        // alpha postings {n1,n2,n5} reduce to {n2,n5} → RF = 1/3 ≥ 0.25.
        let rule = ChooseFixpointMode {
            model: CostModel::default(),
            doc: &d,
            index: &idx,
        };
        let rewritten = rule.apply(plan);
        assert!(
            rewritten.render().contains("Reduced"),
            "{}",
            rewritten.render()
        );
    }

    #[test]
    fn optimizer_trace_has_stage_per_rule() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        let q = query(&["alpha", "beta"], FilterExpr::MaxSize(3));
        let optimizer = Optimizer::standard(&d, &idx, CostModel::default());
        let trace = optimizer.optimize_traced(LogicalPlan::for_query(&q).unwrap());
        assert_eq!(trace.len(), 4); // initial + 3 rules
        assert_eq!(trace[0].0, "initial");
        assert!(trace[2].0.contains("Theorem 3"));
    }

    #[test]
    fn empty_optimizer_is_identity() {
        let q = query(&["alpha", "beta"], FilterExpr::True);
        let plan = LogicalPlan::for_query(&q).unwrap();
        assert_eq!(Optimizer::empty().optimize(plan.clone()), plan);
    }

    #[test]
    fn synonym_groups_union_semantics() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        // (alpha ∪ gamma) AND beta: answers where beta co-occurs with
        // either synonym.
        let groups = vec![
            vec!["alpha".to_string(), "gamma".to_string()],
            vec!["beta".to_string()],
        ];
        let plan = LogicalPlan::for_query_groups(&groups, FilterExpr::MaxSize(5)).unwrap();
        let mut st = EvalStats::new();
        let got = execute(&plan, &d, &idx, &mut st).unwrap();
        // Manual union of the two single-term queries' operand selections:
        // every answer of {alpha, beta} is an answer of the group query.
        let q_ab = query(&["alpha", "beta"], FilterExpr::MaxSize(5));
        let ab = evaluate(&d, &idx, &q_ab, Strategy::FixedPointNaive)
            .unwrap()
            .fragments;
        for f in ab.iter() {
            assert!(got.contains(f), "missing {f}");
        }
        // And the gamma-side adds at least one answer the alpha-side lacks
        // (gamma only occurs at n6).
        assert!(got.iter().any(|f| f.contains_node(xfrag_doc::NodeId(6))));
        // Rendering shows the union node.
        assert!(plan.render().contains("∪ (union)"));
    }

    #[test]
    fn distributive_rule_preserves_results() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        // A pairwise join directly over a union — the shape the
        // Definition 5 law rewrites. (After the Theorem 2 rewrite a
        // group-union sits *inside* a fixed point, where distribution
        // does not apply: (A ∪ B)⁺ ≠ A⁺ ∪ B⁺.)
        let ks = |t: &str| LogicalPlan::KeywordSelect {
            term: t.to_string(),
        };
        let base = LogicalPlan::Select {
            filter: FilterExpr::MaxSize(5),
            input: Box::new(LogicalPlan::PairwiseJoin {
                left: Box::new(LogicalPlan::Union {
                    left: Box::new(ks("alpha")),
                    right: Box::new(ks("gamma")),
                }),
                right: Box::new(ks("beta")),
            }),
        };
        let distributed = DistributeJoinOverUnion.apply(base.clone());
        assert_ne!(base, distributed);
        // The join no longer sits directly on a union…
        fn join_on_union(p: &LogicalPlan) -> bool {
            match p {
                LogicalPlan::PairwiseJoin { left, right } => {
                    matches!(**left, LogicalPlan::Union { .. })
                        || matches!(**right, LogicalPlan::Union { .. })
                        || join_on_union(left)
                        || join_on_union(right)
                }
                LogicalPlan::Select { input, .. } => join_on_union(input),
                LogicalPlan::FixedPoint { input, .. } => join_on_union(input),
                LogicalPlan::Union { left, right } => join_on_union(left) || join_on_union(right),
                _ => false,
            }
        }
        assert!(!join_on_union(&distributed), "{}", distributed.render());
        assert!(distributed.render().contains("∪ (union)"));
        // …and the results are identical.
        let mut st1 = EvalStats::new();
        let mut st2 = EvalStats::new();
        let a = execute(&base, &d, &idx, &mut st1).unwrap();
        let b = execute(&distributed, &d, &idx, &mut st2).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn single_group_single_term_matches_for_query() {
        let q = query(&["alpha"], FilterExpr::True);
        let a = LogicalPlan::for_query(&q).unwrap();
        let b =
            LogicalPlan::for_query_groups(&[vec!["alpha".to_string()]], FilterExpr::True).unwrap();
        assert_eq!(a, b);
        assert!(LogicalPlan::for_query_groups(&[], FilterExpr::True).is_err());
        assert!(LogicalPlan::for_query_groups(&[vec![]], FilterExpr::True).is_err());
    }

    #[test]
    fn execute_short_circuits_empty_operands() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        let q = query(&["alpha", "nonexistent"], FilterExpr::True);
        let plan = LogicalPlan::for_query(&q).unwrap();
        let mut st = EvalStats::new();
        let out = execute(&plan, &d, &idx, &mut st).unwrap();
        assert!(out.is_empty());
        assert_eq!(st.joins, 0);
    }
}
