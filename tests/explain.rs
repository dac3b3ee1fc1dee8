//! Figure 5 reproduction: the initial query evaluation tree vs the
//! push-down tree, rendered by the planner, and the equivalence of every
//! optimization stage end-to-end through the interpreter.

use xfrag::core::cost::CostModel;
use xfrag::core::plan::{execute_traced, PowersetToFixpoint, PushDownSelection};
use xfrag::core::trace::Tracer;
use xfrag::core::{
    evaluate, Breach, EvalStats, FilterExpr, FragmentSet, Governor, LogicalPlan, Optimizer,
    OptimizerRule, Query, Strategy,
};
use xfrag::corpus::figure1;
use xfrag::doc::{Document, InvertedIndex};

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

#[test]
fn figure5_trees_render() {
    let q = Query::new(["xquery", "optimization"], FilterExpr::MaxSize(3));
    // Figure 5 (a): σ_Pa over the join of the expanded operand joins.
    let initial = PowersetToFixpoint.apply(LogicalPlan::for_query(&q).unwrap());
    let a = initial.render();
    assert!(a.starts_with("σ[size≤3]"), "{a}");
    assert!(a.contains("⋈ (pairwise)"));
    assert!(a.contains("σ[keyword=xquery](nodes(D))"));

    // Figure 5 (b): selections pushed below the joins.
    let pushed = PushDownSelection.apply(initial);
    let b = pushed.render();
    // The size filter now guards both operand branches and the join.
    assert!(b.matches("σ[size≤3]").count() >= 3, "{b}");
    let kw_pos = b.find("keyword=xquery").unwrap();
    let push_pos = b[..kw_pos].rfind("σ[size≤3]").unwrap();
    assert!(push_pos > 0, "a pushed selection precedes the keyword leaf");
}

#[test]
fn optimizer_pipeline_equivalent_on_figure1() {
    let fig = figure1();
    let d = &fig.doc;
    let idx = InvertedIndex::build(d);
    let q = Query::new(["xquery", "optimization"], FilterExpr::MaxSize(3));

    let oracle = evaluate(d, &idx, &q, Strategy::BruteForce)
        .unwrap()
        .fragments;
    let optimizer = Optimizer::standard(d, &idx, CostModel::default());
    let trace = optimizer.optimize_traced(LogicalPlan::for_query(&q).unwrap());
    assert_eq!(trace.len(), 4);

    let mut join_counts = Vec::new();
    for (stage, plan) in &trace {
        let mut st = EvalStats::new();
        let got = execute(plan, d, &idx, &mut st).unwrap();
        assert_eq!(&got, &oracle, "stage {stage}");
        join_counts.push((stage.clone(), st.joins));
    }
    // The fully-optimized plan does no more join work than the initial one.
    let initial = join_counts.first().unwrap().1;
    let final_ = join_counts.last().unwrap().1;
    assert!(
        final_ <= initial,
        "optimized plan regressed: {join_counts:?}"
    );
}

#[test]
fn mixed_filter_split_in_plan() {
    // size ≤ 4 (anti-monotonic) ∧ size ≥ 2 (not): only the former is
    // pushed; the latter must remain exactly once, on top.
    let q = Query::new(
        ["xquery", "optimization"],
        FilterExpr::and([FilterExpr::MaxSize(4), FilterExpr::MinSize(2)]),
    );
    let plan =
        PushDownSelection.apply(PowersetToFixpoint.apply(LogicalPlan::for_query(&q).unwrap()));
    let r = plan.render();
    assert_eq!(r.matches("size≥2").count(), 1, "{r}");
    assert!(r.matches("size≤4").count() >= 3, "{r}");

    // And it still evaluates correctly.
    let fig = figure1();
    let idx = InvertedIndex::build(&fig.doc);
    let mut st = EvalStats::new();
    let got = execute(&plan, &fig.doc, &idx, &mut st).unwrap();
    let oracle = evaluate(&fig.doc, &idx, &q, Strategy::FixedPointNaive)
        .unwrap()
        .fragments;
    assert_eq!(got, oracle);
    // size ≥ 2 removes ⟨n17⟩ from the Table 1 answer: 3 fragments remain.
    assert_eq!(got.len(), 3);
}
