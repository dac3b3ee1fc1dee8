//! Differential testing across postings backends: the in-memory
//! [`InvertedIndex`] and a persistent [`SegmentIndex`] decoded out of
//! its `.xidx` encoding differ only in where postings come from. Both
//! navigate by the document's own prefix labels, so every evaluation
//! entry point must return identical answers *and* identical
//! [`EvalStats`](xfrag::core::EvalStats), on every strategy and filter.

use xfrag::core::{
    evaluate, evaluate_budgeted, evaluate_scoped, Budget, ExecPolicy, FilterExpr, Query, Strategy,
};
use xfrag::corpus::docgen::{generate, DocGenConfig};
use xfrag::corpus::figure1;
use xfrag::doc::{encode_segment, InvertedIndex, SegmentIndex};

const STRATEGIES: [Strategy; 4] = [
    Strategy::BruteForce,
    Strategy::FixedPointNaive,
    Strategy::FixedPointReduced,
    Strategy::PushDown,
];

fn filters() -> Vec<FilterExpr> {
    vec![
        FilterExpr::True,
        FilterExpr::MaxSize(3),
        FilterExpr::MaxSize(8),
        FilterExpr::MaxHeight(2),
        FilterExpr::MaxWidth(4),
    ]
}

#[test]
fn figure1_backends_agree_across_all_strategies_and_filters() {
    let fig = figure1();
    let d = &fig.doc;
    let idx = InvertedIndex::build(d);
    let seg = SegmentIndex::from_bytes(&encode_segment(d)).expect("segment round-trip");
    for filter in filters() {
        for s in STRATEGIES {
            let q = Query::new(["xquery", "optimization"], filter.clone());
            let mem = evaluate(d, &idx, &q, s).unwrap();
            let per = evaluate(d, &seg, &q, s).unwrap();
            assert_eq!(mem.fragments, per.fragments, "{s:?} {filter}");
            assert_eq!(mem.stats, per.stats, "{s:?} {filter}: work differs");
            assert!(
                mem.stats.joins > 0,
                "{s:?} {filter}: a two-term query should join"
            );
        }
    }
    // The segment stays lazy: one decode per query term, out of a
    // vocabulary that dwarfs the query.
    assert_eq!(seg.terms_loaded(), 2);
    assert!(seg.term_count() > 2, "{}", seg.term_count());
}

#[test]
fn generated_corpora_agree_unbudgeted_and_budgeted() {
    for seed in [1, 2, 3] {
        let cfg = DocGenConfig {
            seed,
            ..DocGenConfig::default()
        }
        .with_approx_nodes(300)
        .plant("kwone", 3)
        .plant("kwtwo", 4);
        let d = generate(&cfg);
        let idx = InvertedIndex::build(&d);
        let seg = SegmentIndex::from_bytes(&encode_segment(&d)).expect("segment round-trip");
        let q = Query::new(["kwone", "kwtwo"], FilterExpr::MaxSize(10));
        for s in STRATEGIES {
            let mem = evaluate(&d, &idx, &q, s).unwrap();
            let per = evaluate(&d, &seg, &q, s).unwrap();
            assert_eq!(mem.fragments, per.fragments, "seed {seed} {s:?}");
            assert_eq!(mem.stats, per.stats, "seed {seed} {s:?}: work differs");

            // Budgeted evaluation (unlimited and tight) degrades — or
            // does not — identically, because budget charges count
            // joins and merged nodes, and the postings backend changes
            // neither.
            for policy in [
                ExecPolicy::unlimited(),
                ExecPolicy::with_budget(Budget::unlimited().with_max_joins(8)),
                ExecPolicy::with_budget(Budget::bounded()),
            ] {
                let mem = evaluate_budgeted(&d, &idx, &q, s, &policy).unwrap();
                let per = evaluate_budgeted(&d, &seg, &q, s, &policy).unwrap();
                if policy.budget == Budget::bounded() {
                    // The default work bound trips on no cell.
                    assert!(!mem.degradation.is_degraded(), "seed {seed} {s:?}");
                }
                assert_eq!(mem.fragments, per.fragments, "seed {seed} {s:?} budgeted");
                assert_eq!(
                    mem.stats, per.stats,
                    "seed {seed} {s:?}: budgeted work differs"
                );
                assert_eq!(
                    mem.degradation, per.degradation,
                    "seed {seed} {s:?}: backends degraded differently"
                );
            }
        }
    }
}

#[test]
fn scoped_evaluation_agrees_per_scope() {
    let fig = figure1();
    let d = &fig.doc;
    let idx = InvertedIndex::build(d);
    let seg = SegmentIndex::from_bytes(&encode_segment(d)).expect("segment round-trip");
    let q = Query::new(["xquery", "optimization"], FilterExpr::MaxSize(5));
    for path in ["/article/section", "/article/section/subsection"] {
        let mem = evaluate_scoped(d, &idx, &q, path, Strategy::PushDown).unwrap();
        let per = evaluate_scoped(d, &seg, &q, path, Strategy::PushDown).unwrap();
        assert_eq!(mem.len(), per.len(), "{path}: scope counts differ");
        for ((ma, mr), (pa, pr)) in mem.iter().zip(per.iter()) {
            assert_eq!(ma, pa, "{path}: scope roots differ");
            assert_eq!(
                mr.fragments, pr.fragments,
                "{path}: answers differ at {ma:?}"
            );
            assert_eq!(mr.stats, pr.stats, "{path}: work differs at {ma:?}");
        }
    }
}
