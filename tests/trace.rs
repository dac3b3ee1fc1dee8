//! Tracing must be observationally free: evaluation with a recording
//! tracer returns exactly the fragments and [`EvalStats`] of untraced
//! evaluation (spans only snapshot counters, never mutate them), and the
//! no-op tracer adds no observable work. Checked across all four §4
//! strategies, on the Figure 1 document and generated corpora.

use xfrag::core::trace::{render_spans, spans_to_json, LatencyHistogram, RecordingSink, Tracer};
use xfrag::core::{
    evaluate, evaluate_budgeted, evaluate_traced, EvalStats, ExecPolicy, FilterExpr, Query,
    Strategy,
};
use xfrag::corpus::docgen::{generate, DocGenConfig};
use xfrag::corpus::figure1;
use xfrag::doc::InvertedIndex;

#[test]
fn all_strategies_agree_traced_and_untraced() {
    let fig = figure1();
    let d = &fig.doc;
    let idx = InvertedIndex::build(d);
    for filter in [FilterExpr::True, FilterExpr::MaxSize(3)] {
        let q = Query::new(["xquery", "optimization"], filter.clone());
        let mut answers = Vec::new();
        for &s in &Strategy::ALL {
            let plain = evaluate(d, &idx, &q, s).unwrap();

            let sink = RecordingSink::new();
            let tracer = Tracer::new(&sink);
            let traced = evaluate_traced(d, &idx, &q, s, None, &tracer, None).unwrap();

            // Identical answers AND identical counters, field for field.
            assert_eq!(traced.fragments, plain.fragments, "{s:?} {filter}");
            assert_eq!(traced.stats, plain.stats, "{s:?} {filter}");
            // The recorder actually saw the evaluation.
            let spans = sink.take();
            assert!(!spans.is_empty(), "{s:?} recorded no spans");
            assert!(
                spans.iter().any(|sp| sp.stage.starts_with("term-lookup:")),
                "{s:?}"
            );
            answers.push(plain.fragments);
        }
        // And all four strategies still agree with each other.
        for a in &answers[1..] {
            assert_eq!(*a, answers[0], "{filter}");
        }
    }
}

#[test]
fn generated_corpora_agree_traced_and_untraced() {
    for seed in [7, 11] {
        let cfg = DocGenConfig {
            seed,
            ..DocGenConfig::default()
        }
        .with_approx_nodes(250)
        .plant("kwone", 3)
        .plant("kwtwo", 4);
        let d = generate(&cfg);
        let idx = InvertedIndex::build(&d);
        let q = Query::new(["kwone", "kwtwo"], FilterExpr::MaxSize(6));
        for &s in &Strategy::ALL {
            let plain = evaluate(&d, &idx, &q, s).unwrap();
            let sink = RecordingSink::new();
            let tracer = Tracer::new(&sink);
            let traced = evaluate_traced(&d, &idx, &q, s, None, &tracer, None).unwrap();
            assert_eq!(traced.fragments, plain.fragments, "seed {seed} {s:?}");
            assert_eq!(traced.stats, plain.stats, "seed {seed} {s:?}");
        }
    }
}

#[test]
fn budgeted_evaluation_agrees_traced_and_untraced() {
    let fig = figure1();
    let d = &fig.doc;
    let idx = InvertedIndex::build(d);
    let q = Query::new(["xquery", "optimization"], FilterExpr::MaxSize(3));
    for policy in [
        ExecPolicy::unlimited(),
        ExecPolicy::with_budget(xfrag::core::Budget::unlimited().with_max_joins(25)),
    ] {
        for &s in &Strategy::ALL {
            let plain = evaluate_budgeted(d, &idx, &q, s, &policy).unwrap();
            let sink = RecordingSink::new();
            let tracer = Tracer::new(&sink);
            let traced = evaluate_traced(d, &idx, &q, s, Some(&policy), &tracer, None).unwrap();
            assert_eq!(traced.fragments, plain.fragments, "{s:?}");
            assert_eq!(traced.stats, plain.stats, "{s:?}");
            assert_eq!(traced.degradation.rung, plain.degradation.rung, "{s:?}");
            // Every run opens at least the first ladder rung.
            let spans = sink.take();
            assert!(
                spans.iter().any(|sp| sp.stage.starts_with("rung:")),
                "{s:?}"
            );
        }
    }
}

#[test]
fn span_trees_sum_and_emit() {
    let fig = figure1();
    let d = &fig.doc;
    let idx = InvertedIndex::build(d);
    let q = Query::new(["xquery", "optimization"], FilterExpr::MaxSize(3));
    let sink = RecordingSink::new();
    let tracer = Tracer::new(&sink);
    let r = evaluate_traced(
        d,
        &idx,
        &q,
        Strategy::FixedPointReduced,
        None,
        &tracer,
        None,
    )
    .unwrap();
    let spans = sink.take();

    // Top-level span deltas sum to the query's total stats.
    let mut summed = EvalStats::new();
    for s in &spans {
        summed += s.stats_delta;
    }
    assert_eq!(summed, r.stats);

    // Both emitters accept the real tree.
    let text = render_spans(&spans);
    assert!(text.contains("fixpoint-reduced"), "{text}");
    assert!(text.contains("round"), "{text}");
    let json = spans_to_json(&spans);
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert!(json.contains("\"stage\":\"fixpoint-reduced\""), "{json}");

    // Histograms aggregate over any span selection.
    let hist = LatencyHistogram::from_spans(&spans);
    assert_eq!(hist.count(), spans.len() as u64);
    assert!(hist.total() >= hist.max());
}
