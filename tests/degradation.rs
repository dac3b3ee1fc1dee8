//! Fault injection for budgeted execution: tiny budgets on adversarial
//! trees must degrade gracefully — never panic, never return an unsound
//! answer.
//!
//! | Guarantee | Test |
//! |---|---|
//! | every budgeted answer is a subset of the exact answer | `every_budgeted_answer_is_subset_of_exact` |
//! | no degradation report ⇒ answer equals the exact answer | `unlimited_policy_is_exact_everywhere` |
//! | `PowersetTooLarge` abort becomes a degraded answer | `powerset_abort_becomes_degraded_answer` |
//! | degraded answers are non-empty when the exact answer is | `powerset_abort_becomes_degraded_answer` |
//! | a one-term breach answers every lowest occurrence | `one_term_breach_answers_every_lowest_occurrence` |
//! | cancellation aborts with an error, never a partial answer | `cancellation_aborts_instead_of_degrading` |
//! | `--degrade off` surfaces the breach as an error | `degrade_off_surfaces_breach` |
//! | collection budgets skip documents instead of failing | `collection_budget_skips_documents` |

use std::time::Duration;

use xfrag::core::trace::Tracer;
use xfrag::core::{
    evaluate, evaluate_budgeted, evaluate_collection, evaluate_collection_traced, Breach, Budget,
    BudgetedCollectionResult, CancelToken, DegradeMode, ExecPolicy, FilterExpr, Query, QueryError,
    QueryResult, Strategy,
};
use xfrag::corpus::adversarial::{comb, deep_chain, wide_star};
use xfrag::doc::{Collection, DocId, Document, InvertedIndex};

const STRATEGIES: [Strategy; 4] = [
    Strategy::BruteForce,
    Strategy::FixedPointNaive,
    Strategy::FixedPointReduced,
    Strategy::PushDown,
];

/// The collection loop over every document with a forced strategy.
fn evaluate_collection_budgeted(
    coll: &Collection,
    query: &Query,
    strategy: Strategy,
    policy: &ExecPolicy,
) -> Result<BudgetedCollectionResult, QueryError> {
    let all: Vec<DocId> = coll.ids().collect();
    evaluate_collection_traced(
        coll,
        query,
        strategy,
        policy,
        &Tracer::disabled(),
        None,
        &all,
    )
}

/// Exact (unbudgeted) answer via a strategy that cannot abort on size.
fn exact(doc: &Document, query: &Query) -> QueryResult {
    let index = InvertedIndex::build(doc);
    evaluate(doc, &index, query, Strategy::FixedPointNaive).expect("exact evaluation")
}

/// Assert `sub ⊆ sup` fragment-wise, with a readable failure message.
fn assert_subset(sub: &QueryResult, sup: &QueryResult, ctx: &str) {
    for f in sub.fragments.iter() {
        assert!(
            sup.fragments.contains(f),
            "{ctx}: degraded answer contains fragment {:?} absent from the exact answer",
            f.nodes()
        );
    }
}

/// A spread of budgets designed to trip at different points: before any
/// work, mid-join, mid-materialization, and on the memory proxy.
fn hostile_budgets() -> Vec<(&'static str, Budget)> {
    vec![
        ("max_joins=0", Budget::unlimited().with_max_joins(0)),
        ("max_joins=3", Budget::unlimited().with_max_joins(3)),
        ("max_joins=40", Budget::unlimited().with_max_joins(40)),
        ("max_fragments=1", Budget::unlimited().with_max_fragments(1)),
        (
            "max_fragments=10",
            Budget::unlimited().with_max_fragments(10),
        ),
        ("max_nodes=5", Budget::unlimited().with_max_nodes_merged(5)),
        (
            "deadline=0",
            Budget::unlimited().with_wall_clock(Duration::ZERO),
        ),
        (
            "joins=2+fragments=4",
            Budget::unlimited().with_max_joins(2).with_max_fragments(4),
        ),
    ]
}

fn adversarial_docs() -> Vec<(&'static str, Document)> {
    vec![
        ("deep_chain(24)", deep_chain(24, "k1", "k2")),
        ("wide_star(12)", wide_star(12, "k1", "k2")),
        ("comb(10)", comb(10, &["k1", "k2"])),
    ]
}

/// Every (document, query, strategy, budget) combination must return
/// without panicking, and whatever it returns must be a subset of the
/// exact answer. This is the core soundness claim of the ladder: rungs
/// may drop answers, never invent them. Nothing after `full` charges the
/// governor. One-term queries are included: their `full` rung is a
/// fixed point over a single operand.
#[test]
fn every_budgeted_answer_is_subset_of_exact() {
    let queries = [
        Query::new(["k1"], FilterExpr::True),
        Query::new(["k1", "k2"], FilterExpr::True),
    ];
    for (doc_name, doc) in adversarial_docs() {
        let index = InvertedIndex::build(&doc);
        for query in &queries {
            let full = exact(&doc, query);
            let terms = query.terms.join("+");
            for strategy in STRATEGIES {
                for (budget_name, budget) in hostile_budgets() {
                    let policy = ExecPolicy::with_budget(budget);
                    let ctx = format!("{doc_name}/{terms}/{strategy:?}/{budget_name}");
                    let r = evaluate_budgeted(&doc, &index, query, strategy, &policy)
                        .unwrap_or_else(|e| panic!("{ctx}: ladder returned error {e}"));
                    assert_subset(&r, &full, &ctx);
                    if !r.degradation.is_degraded() {
                        assert_eq!(
                            r.fragments, full.fragments,
                            "{ctx}: reported exact but differs from the exact answer"
                        );
                    } else if r.degradation.breach == Some(Breach::Joins) {
                        let max_joins = budget.max_joins.expect("a joins breach needs a limit");
                        assert_eq!(r.degradation.joins_spent, max_joins + 1, "{ctx}");
                    }
                }
            }
        }
    }
}

/// With no limits set the ladder must never fire, and the answer must be
/// bit-identical to the plain `evaluate` result for every strategy that
/// can complete. (Brute force on the wide star exceeds the powerset
/// limit; that case is covered separately below.)
#[test]
fn unlimited_policy_is_exact_everywhere() {
    let query = Query::new(["k1", "k2"], FilterExpr::True);
    // Smaller instances than `adversarial_docs()`: this test runs the
    // *literal powerset* oracle, which is 4^|operand| subset pairs —
    // the very blow-up the paper calls impractical in §4.1.
    let docs = vec![
        ("deep_chain(12)", deep_chain(12, "k1", "k2")),
        ("wide_star(8)", wide_star(8, "k1", "k2")),
        ("comb(6)", comb(6, &["k1", "k2"])),
    ];
    for (doc_name, doc) in docs {
        let index = InvertedIndex::build(&doc);
        for strategy in STRATEGIES {
            let plain = match evaluate(&doc, &index, &query, strategy) {
                Ok(r) => r,
                Err(QueryError::PowersetTooLarge(_)) => continue,
                Err(e) => panic!("{doc_name}/{strategy:?}: {e}"),
            };
            let budgeted =
                evaluate_budgeted(&doc, &index, &query, strategy, &ExecPolicy::unlimited())
                    .expect("unlimited budget");
            assert!(
                !budgeted.degradation.is_degraded(),
                "{doc_name}/{strategy:?}: degraded with no limits set"
            );
            assert_eq!(
                budgeted.fragments, plain.fragments,
                "{doc_name}/{strategy:?}"
            );
            // The same work, counter for counter: only the budgeted run
            // counts governor checkpoints.
            let mut budgeted_stats = budgeted.stats;
            budgeted_stats.budget_checkpoints = 0;
            assert_eq!(
                (plain.stats.budget_checkpoints, budgeted_stats),
                (0, plain.stats),
                "{doc_name}/{strategy:?}"
            );
        }
    }
}

/// The acceptance scenario from the issue: brute force on a star with 40
/// keyword leaves has operand sets of 20 fragments each — beyond
/// `POWERSET_LIMIT` — so plain `evaluate` aborts with `PowersetTooLarge`.
/// Under the ladder the same query completes with a non-empty, sound
/// `slca-approx` answer even with an otherwise unlimited budget.
#[test]
fn powerset_abort_becomes_degraded_answer() {
    let doc = wide_star(40, "k1", "k2");
    let index = InvertedIndex::build(&doc);
    // MaxSize(3) keeps the *exact* answer tractable (the unfiltered
    // closure of 20 leaves on a star is ~2^20 fragments); brute force
    // aborts on operand size alone, before any filter applies.
    let query = Query::new(["k1", "k2"], FilterExpr::MaxSize(3));

    let plain = evaluate(&doc, &index, &query, Strategy::BruteForce);
    assert!(
        matches!(plain, Err(QueryError::PowersetTooLarge(_))),
        "expected the unbudgeted brute force to abort, got {plain:?}"
    );

    let r = evaluate_budgeted(
        &doc,
        &index,
        &query,
        Strategy::BruteForce,
        &ExecPolicy::unlimited(),
    )
    .expect("ladder must absorb the powerset abort");
    assert!(!r.fragments.is_empty(), "degraded answer must be non-empty");
    assert_eq!(r.degradation.breach, Some(Breach::PowersetLimit));
    // The report names the fallback and the breach that forced it.
    let report = r.degradation.to_string();
    assert!(
        report.starts_with("degraded to slca-approx; full stopped by powerset-limit"),
        "{report}"
    );
    // Soundness against the exact answer (push-down keeps it feasible).
    let full = evaluate(&doc, &index, &query, Strategy::PushDown).expect("exact via push-down");
    assert_subset(&r, &full, "wide_star(40)/brute/unlimited");
}

/// A breached one-term query answers every occurrence that has no other
/// occurrence below it: all 20 `k1` leaves of a 40-leaf star, and only the
/// deepest `k1` of a chain, where the occurrences nest.
#[test]
fn one_term_breach_answers_every_lowest_occurrence() {
    let query = Query::new(["k1"], FilterExpr::True);
    let policy = ExecPolicy::with_budget(Budget::unlimited().with_max_joins(1));
    for (doc, lowest) in [
        (wide_star(40, "k1", "k2"), 20),
        (deep_chain(24, "k1", "k2"), 1),
    ] {
        let index = InvertedIndex::build(&doc);
        let r = evaluate_budgeted(&doc, &index, &query, Strategy::PushDown, &policy)
            .expect("degraded answer");
        assert_eq!(r.degradation.breach, Some(Breach::Joins));
        assert_eq!(r.fragments.len(), lowest);
        assert!(r.fragments.iter().all(|f| f.size() == 1));
    }
}

/// Cancellation must abort with `QueryError::Cancelled` — a cancelled
/// caller wants no answer, so the ladder never catches it.
#[test]
fn cancellation_aborts_instead_of_degrading() {
    let doc = comb(10, &["k1", "k2"]);
    let index = InvertedIndex::build(&doc);
    let query = Query::new(["k1", "k2"], FilterExpr::True);
    let token = CancelToken::new();
    token.cancel(); // cancelled before the evaluation even starts
    let policy = ExecPolicy::unlimited().with_cancel(token);
    for strategy in STRATEGIES {
        let r = evaluate_budgeted(&doc, &index, &query, strategy, &policy);
        assert!(
            matches!(r, Err(QueryError::Cancelled)),
            "{strategy:?}: expected Cancelled, got {r:?}"
        );
    }
}

/// With `--degrade off` the first breach is surfaced as an error naming
/// the tripped limit.
#[test]
fn degrade_off_surfaces_breach() {
    let doc = deep_chain(24, "k1", "k2");
    let index = InvertedIndex::build(&doc);
    let query = Query::new(["k1", "k2"], FilterExpr::True);
    let policy = ExecPolicy::with_budget(Budget::unlimited().with_max_joins(1))
        .with_degrade(DegradeMode::Off);
    for strategy in STRATEGIES {
        match evaluate_budgeted(&doc, &index, &query, strategy, &policy) {
            Err(QueryError::BudgetExceeded(b)) => {
                assert!(!b.name().is_empty());
            }
            other => panic!("{strategy:?}: expected BudgetExceeded, got {other:?}"),
        }
    }
}

/// Selection predicates and strict leaf semantics apply to degraded
/// answers exactly as they do to exact ones: no rung may smuggle a
/// fragment past σ_P.
#[test]
fn degraded_answers_respect_the_filter() {
    let doc = wide_star(12, "k1", "k2");
    let index = InvertedIndex::build(&doc);
    let query = Query::new(["k1", "k2"], FilterExpr::MaxSize(3));
    for (budget_name, budget) in hostile_budgets() {
        let r = evaluate_budgeted(
            &doc,
            &index,
            &query,
            Strategy::PushDown,
            &ExecPolicy::with_budget(budget),
        )
        .unwrap_or_else(|e| panic!("{budget_name}: {e}"));
        for f in r.fragments.iter() {
            assert!(
                f.size() <= 3,
                "{budget_name}: fragment of size {} passed MaxSize(3)",
                f.size()
            );
        }
    }
}

/// A whole-collection budget that runs out mid-scan skips the remaining
/// documents (reported in `docs_skipped`) instead of erroring, and what
/// it did evaluate stays sound per document.
#[test]
fn collection_budget_skips_documents() {
    let mut coll = Collection::new();
    for i in 0..6 {
        coll.add(format!("doc{i}"), comb(6, &["k1", "k2"]));
    }
    let query = Query::new(["k1", "k2"], FilterExpr::True);

    // Zero wall-clock: the collection governor trips on its very first
    // per-document checkpoint, so nothing is evaluated and nothing panics.
    let starved = evaluate_collection_budgeted(
        &coll,
        &query,
        Strategy::PushDown,
        &ExecPolicy::with_budget(Budget::unlimited().with_wall_clock(Duration::ZERO)),
    )
    .expect("starved collection scan must not error under the ladder");
    assert_eq!(starved.docs_skipped, coll.len(), "all documents skipped");
    assert!(starved.answers.is_empty());

    // Unlimited budget: same answers as the unbudgeted scan, nothing
    // skipped, nothing degraded.
    let exact = evaluate_collection(&coll, &query, Strategy::PushDown).expect("exact scan");
    let free =
        evaluate_collection_budgeted(&coll, &query, Strategy::PushDown, &ExecPolicy::unlimited())
            .expect("unlimited scan");
    assert_eq!(free.docs_skipped, 0);
    assert!(!free.is_degraded());
    assert_eq!(free.answers.len(), exact.answers.len());
    for (a, b) in free.answers.iter().zip(exact.answers.iter()) {
        assert_eq!(a.doc, b.doc);
        assert_eq!(a.fragments, b.fragments);
    }

    // Per-document join starvation: every document degrades but the scan
    // completes with per-document reports.
    let tight = evaluate_collection_budgeted(
        &coll,
        &query,
        Strategy::PushDown,
        &ExecPolicy::with_budget(Budget::unlimited().with_max_joins(0)),
    )
    .expect("tight scan");
    assert!(
        tight.is_degraded(),
        "per-document budgets must surface in the report"
    );
    for (_, d) in &tight.degraded_docs {
        assert!(d.is_degraded());
    }
}
