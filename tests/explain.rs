//! Figure 5 reproduction: the initial query evaluation tree vs the
//! push-down tree, rendered from each strategy's plan, and the
//! equivalence of every strategy end-to-end through evaluation.

use xfrag::core::{evaluate, FilterExpr, LogicalPlan, Query, Strategy};
use xfrag::corpus::figure1;
use xfrag::doc::InvertedIndex;

#[test]
fn figure5_trees_render() {
    let q = Query::new(["xquery", "optimization"], FilterExpr::MaxSize(3));
    // Figure 5 (a): σ_Pa over the join of the expanded operand joins.
    let a = LogicalPlan::for_strategy(&q, Strategy::FixedPointNaive)
        .unwrap()
        .render();
    assert!(a.starts_with("σ[size≤3]"), "{a}");
    assert!(a.contains("⋈ (pairwise)"));
    assert!(a.contains("σ[keyword=xquery](nodes(D))"));

    // Figure 5 (b): selections pushed below the joins.
    let b = LogicalPlan::for_strategy(&q, Strategy::PushDown)
        .unwrap()
        .render();
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

    let mut join_counts = Vec::new();
    for s in Strategy::ALL {
        let r = evaluate(d, &idx, &q, s).unwrap();
        join_counts.push((s, r.fragments, r.stats.joins));
    }
    // Every rewrite stage answers the same set…
    let oracle = &join_counts[0].1;
    for (s, got, _) in &join_counts {
        assert_eq!(got, oracle, "{s:?}");
    }
    // …and the fully rewritten push-down tree does no more join work than
    // brute force's powerset enumeration.
    let initial = join_counts.first().unwrap().2;
    let final_ = join_counts.last().unwrap().2;
    assert!(final_ <= initial, "push-down regressed: {join_counts:?}");
}

#[test]
fn mixed_filter_split_in_plan() {
    // size ≤ 4 (anti-monotonic) ∧ size ≥ 2 (not): only the former is
    // pushed; the latter must remain exactly once, on top.
    let q = Query::new(
        ["xquery", "optimization"],
        FilterExpr::and([FilterExpr::MaxSize(4), FilterExpr::MinSize(2)]),
    );
    let r = LogicalPlan::for_strategy(&q, Strategy::PushDown)
        .unwrap()
        .render();
    assert_eq!(r.matches("size≥2").count(), 1, "{r}");
    assert!(r.matches("size≤4").count() >= 3, "{r}");

    // And push-down still evaluates correctly.
    let fig = figure1();
    let idx = InvertedIndex::build(&fig.doc);
    let got = evaluate(&fig.doc, &idx, &q, Strategy::PushDown)
        .unwrap()
        .fragments;
    let oracle = evaluate(&fig.doc, &idx, &q, Strategy::FixedPointNaive)
        .unwrap()
        .fragments;
    assert_eq!(got, oracle);
    // size ≥ 2 removes ⟨n17⟩ from the Table 1 answer: 3 fragments remain.
    assert_eq!(got.len(), 3);
}
