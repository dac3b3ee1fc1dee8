//! Cache-equivalence differential suite: evaluation through the
//! generation-keyed [`QueryCache`] must be **observably identical** to
//! evaluation without it — same fragments (byte-identical), same
//! degradation report, same compute counters (modulo the cache's own
//! hit/miss bookkeeping) — across every strategy, budget policy, and
//! injected fault. A cache that changes any answer is a correctness bug,
//! not a performance feature.
//!
//! Also pins the two result-tier soundness guarantees:
//! term-order-insensitive result keys (`Q{a,b}` and `Q{b,a}` share one
//! entry) and exact-only storage (a degraded answer computed under a
//! tight budget is never stored, so it can never satisfy any request).

use std::sync::Arc;

use xfrag::core::fault::site;
use xfrag::core::{
    evaluate_traced, Budget, CacheRef, DegradeMode, EvalStats, ExecPolicy, FaultAction, FaultPlan,
    FilterExpr, GenerationTag, Query, QueryCache, QueryError, QueryResult, Strategy, Tracer,
};
use xfrag::doc::{Document, DocumentBuilder, InvertedIndex};

/// A deterministic tree from a parent-choice vector, with tags cycling
/// through `alpha`/`beta`/`gamma` so every keyword has several postings.
fn build_doc(choices: &[usize]) -> Document {
    let n = choices.len() + 1;
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, &c) in choices.iter().enumerate() {
        children[c % (i + 1)].push(i + 1);
    }
    const TAGS: [&str; 3] = ["alpha", "beta", "gamma"];
    let mut b = DocumentBuilder::new();
    fn emit(b: &mut DocumentBuilder, children: &[Vec<usize>], v: usize) {
        b.begin(TAGS[v % 3]);
        for &c in &children[v] {
            emit(b, children, c);
        }
        b.end();
    }
    emit(&mut b, &children, 0);
    b.finish().expect("choice vector encodes a valid tree")
}

/// The corpus of documents the whole suite runs against: a path, a star,
/// a bushy tree and two irregular shapes.
fn corpus() -> Vec<Document> {
    vec![
        build_doc(&[0, 1, 2, 3, 4, 5]),
        build_doc(&[0, 0, 0, 0, 0, 0]),
        build_doc(&[0, 0, 1, 1, 2, 2, 3, 3]),
        build_doc(&[0, 1, 0, 2, 1, 3, 0, 5]),
        build_doc(&[0, 1, 1, 0, 4, 4, 2, 7, 3]),
    ]
}

fn queries() -> Vec<Query> {
    vec![
        Query::new(["alpha".to_string(), "beta".to_string()], FilterExpr::True),
        Query::new(
            ["alpha".to_string(), "beta".to_string(), "gamma".to_string()],
            FilterExpr::MaxSize(5),
        ),
        Query::new(["gamma".to_string()], FilterExpr::MaxHeight(2)),
        Query::new(
            ["beta".to_string(), "gamma".to_string()],
            FilterExpr::and([FilterExpr::MaxSize(6), FilterExpr::MaxWidth(3)]),
        ),
    ]
}

/// One evaluation, cached or not, under a freshly built policy (fresh so
/// fault injectors restart their hit counters every pass).
fn run(
    doc: &Document,
    idx: &InvertedIndex,
    q: &Query,
    s: Strategy,
    policy: &ExecPolicy,
    cache: Option<CacheRef<'_>>,
) -> Result<QueryResult, QueryError> {
    evaluate_traced(doc, idx, q, s, policy, &Tracer::disabled(), cache)
}

/// Assert the cached pipeline (cold fill, then warm replay) is observably
/// identical to the uncached one under `mk_policy`.
fn assert_differential(
    doc: &Document,
    idx: &InvertedIndex,
    q: &Query,
    s: Strategy,
    mk_policy: &dyn Fn() -> ExecPolicy,
    label: &str,
) {
    let uncached = run(doc, idx, q, s, &mk_policy(), None);
    let cache = QueryCache::with_capacity_mb(8);
    let generation = GenerationTag::fresh();
    let cref = CacheRef {
        cache: &cache,
        gen: generation,
        doc: 0,
    };
    let cold = run(doc, idx, q, s, &mk_policy(), Some(cref));
    let warm = run(doc, idx, q, s, &mk_policy(), Some(cref));

    match (&uncached, &cold, &warm) {
        (Ok(u), Ok(c), Ok(w)) => {
            // Byte-identical answers: structural equality AND an identical
            // rendered form (insertion order included).
            assert_eq!(u.fragments, c.fragments, "{label}: cold fragments diverge");
            assert_eq!(u.fragments, w.fragments, "{label}: warm fragments diverge");
            assert_eq!(
                format!("{:?}", u.fragments),
                format!("{:?}", w.fragments),
                "{label}: warm rendering diverges"
            );
            assert_eq!(
                u.degradation, c.degradation,
                "{label}: cold degradation diverges"
            );
            assert_eq!(
                u.degradation, w.degradation,
                "{label}: warm degradation diverges"
            );
            // Compute counters match exactly once the cache's own
            // bookkeeping is stripped — the replay contract.
            assert_eq!(
                u.stats.without_cache_counters(),
                c.stats.without_cache_counters(),
                "{label}: cold stats diverge"
            );
            assert_eq!(
                u.stats.without_cache_counters(),
                w.stats.without_cache_counters(),
                "{label}: warm stats diverge"
            );
            assert_eq!(u.stats.cache_hits, 0, "{label}: uncached run counted a hit");
        }
        (Err(ue), Err(ce), Err(we)) => {
            assert_eq!(ue, ce, "{label}: cold error diverges");
            assert_eq!(ue, we, "{label}: warm error diverges");
        }
        _ => panic!(
            "{label}: cached and uncached disagree on success: \
             uncached={uncached:?} cold={cold:?} warm={warm:?}"
        ),
    }
}

/// A labelled policy constructor; fresh per pass so fault hit counters
/// restart.
type PolicyCase = (&'static str, Box<dyn Fn() -> ExecPolicy>);

/// The policy matrix: unlimited, tight work budgets with degradation off
/// and on, and deterministic fault injections at the evaluation site.
fn policies() -> Vec<PolicyCase> {
    vec![
        ("unlimited", Box::new(ExecPolicy::unlimited)),
        (
            "tight-joins-off",
            Box::new(|| ExecPolicy::with_budget(Budget::unlimited().with_max_joins(3))),
        ),
        (
            "tight-joins-ladder",
            Box::new(|| {
                ExecPolicy::with_budget(Budget::unlimited().with_max_joins(3))
                    .with_degrade(DegradeMode::Ladder)
            }),
        ),
        (
            "tight-fragments-ladder",
            Box::new(|| {
                ExecPolicy::with_budget(Budget::unlimited().with_max_fragments(4))
                    .with_degrade(DegradeMode::Ladder)
            }),
        ),
        (
            "fault-cancel",
            Box::new(|| {
                let inj: Arc<_> = FaultPlan::new()
                    .arm(site::QUERY_EVAL, 1, FaultAction::Cancel)
                    .build();
                ExecPolicy::unlimited().with_fault(inj)
            }),
        ),
        (
            "fault-delay",
            Box::new(|| {
                let inj: Arc<_> = FaultPlan::new()
                    .arm(
                        site::QUERY_EVAL,
                        1,
                        FaultAction::Delay(std::time::Duration::ZERO),
                    )
                    .build();
                ExecPolicy::unlimited().with_fault(inj)
            }),
        ),
    ]
}

/// The full differential matrix: every document × query × strategy ×
/// policy. ~480 triples, each run three times (uncached, cold, warm).
#[test]
fn cached_equals_uncached_across_strategies_policies_and_faults() {
    for doc in corpus() {
        let idx = InvertedIndex::build(&doc);
        for q in queries() {
            for s in Strategy::ALL {
                for (name, mk) in &policies() {
                    let label = format!(
                        "doc={} q={:?} strategy={} policy={name}",
                        doc.len(),
                        q.terms,
                        s.name()
                    );
                    assert_differential(&doc, &idx, &q, s, mk.as_ref(), &label);
                }
            }
        }
    }
}

/// The default work bound trips on no cell of the matrix: every
/// document × query × strategy answers under [`Budget::bounded`] exactly
/// what the unlimited policy answers.
#[test]
fn default_bound_trips_on_no_cell() {
    let bounded = ExecPolicy::with_budget(Budget::bounded());
    for doc in corpus() {
        let idx = InvertedIndex::build(&doc);
        for q in queries() {
            for s in Strategy::ALL {
                let r = run(&doc, &idx, &q, s, &bounded, None).unwrap();
                let label = format!("doc={} q={:?} strategy={}", doc.len(), q.terms, s.name());
                assert!(!r.degradation.is_degraded(), "{label}");
                let exact = run(&doc, &idx, &q, s, &ExecPolicy::unlimited(), None).unwrap();
                assert_eq!(r.fragments, exact.fragments, "{label}");
            }
        }
    }
}

/// Warm replays actually hit: the second identical request is served from
/// the result tier and says so in its stats.
#[test]
fn warm_pass_reports_result_tier_hit() {
    let doc = build_doc(&[0, 0, 1, 1, 2, 2]);
    let idx = InvertedIndex::build(&doc);
    let q = Query::new(["alpha".to_string(), "beta".to_string()], FilterExpr::True);
    let cache = QueryCache::with_capacity_mb(8);
    let cref = CacheRef {
        cache: &cache,
        gen: GenerationTag::fresh(),
        doc: 0,
    };
    let policy = ExecPolicy::unlimited();

    let cold = run(
        &doc,
        &idx,
        &q,
        Strategy::FixedPointReduced,
        &policy,
        Some(cref),
    )
    .unwrap();
    assert_eq!(cold.stats.cache_hits, 0);
    assert!(
        cold.stats.cache_misses >= 1,
        "cold pass must count its misses"
    );

    let warm = run(
        &doc,
        &idx,
        &q,
        Strategy::FixedPointReduced,
        &policy,
        Some(cref),
    )
    .unwrap();
    assert!(warm.stats.cache_hits >= 1, "warm pass must count its hit");
    assert_eq!(
        cache.stats().result.hits,
        1,
        "result tier records exactly one hit"
    );
}

/// A cached evaluation that misses stores exactly one entry, its answer:
/// the operand sets of a two-term query are not copied into the cache.
#[test]
fn cold_miss_stores_only_the_result() {
    let doc = build_doc(&[0, 0, 1, 1, 2, 2]);
    let idx = InvertedIndex::build(&doc);
    let q = Query::new(["alpha".to_string(), "beta".to_string()], FilterExpr::True);
    let cache = QueryCache::with_capacity_mb(8);
    let cref = CacheRef {
        cache: &cache,
        gen: GenerationTag::fresh(),
        doc: 0,
    };
    let cold = run(
        &doc,
        &idx,
        &q,
        Strategy::PushDown,
        &ExecPolicy::unlimited(),
        Some(cref),
    )
    .unwrap();
    assert!(!cold.fragments.is_empty(), "the query must have an answer");
    assert_eq!((cold.stats.cache_hits, cold.stats.cache_misses), (0, 1));
    let st = cache.stats();
    assert_eq!(st.entries, 1, "{st:?}");
    assert_eq!(st.insertions, 1, "{st:?}");
}

/// Issue satellite: result keys normalize term order and multiplicity, so
/// `Q{a,b}`, `Q{b,a}` and `Q{b,a,b}` share one cache entry.
#[test]
fn result_key_is_term_order_insensitive() {
    let doc = build_doc(&[0, 0, 1, 1, 2, 2, 3]);
    let idx = InvertedIndex::build(&doc);
    let cache = QueryCache::with_capacity_mb(8);
    let cref = CacheRef {
        cache: &cache,
        gen: GenerationTag::fresh(),
        doc: 0,
    };
    let policy = ExecPolicy::unlimited();

    let ab = Query::new(["alpha".to_string(), "beta".to_string()], FilterExpr::True);
    let ba = Query::new(["beta".to_string(), "alpha".to_string()], FilterExpr::True);
    let bab = Query::new(
        ["beta".to_string(), "alpha".to_string(), "beta".to_string()],
        FilterExpr::True,
    );

    let first = run(&doc, &idx, &ab, Strategy::PushDown, &policy, Some(cref)).unwrap();
    let second = run(&doc, &idx, &ba, Strategy::PushDown, &policy, Some(cref)).unwrap();
    let third = run(&doc, &idx, &bab, Strategy::PushDown, &policy, Some(cref)).unwrap();

    assert!(
        second.stats.cache_hits >= 1,
        "Q{{b,a}} must hit Q{{a,b}}'s entry"
    );
    assert!(
        third.stats.cache_hits >= 1,
        "duplicate terms must not change the key"
    );
    assert_eq!(first.fragments, second.fragments);
    assert_eq!(first.fragments, third.fragments);
    assert_eq!(cache.stats().result.hits, 2);
}

/// A degraded answer produced under a tight budget is never stored: the
/// same tight request recomputes it (no result-tier hit) with the same
/// fragments and degradation report, and a full-budget request gets the
/// exact answer.
#[test]
fn degraded_entry_never_serves_full_budget_request() {
    let doc = build_doc(&[0, 0, 1, 1, 2, 2, 3, 3]);
    let idx = InvertedIndex::build(&doc);
    let q = Query::new(["alpha".to_string(), "beta".to_string()], FilterExpr::True);
    let cache = QueryCache::with_capacity_mb(8);
    let cref = CacheRef {
        cache: &cache,
        gen: GenerationTag::fresh(),
        doc: 0,
    };

    let tight = ExecPolicy::with_budget(Budget::unlimited().with_max_joins(2))
        .with_degrade(DegradeMode::Ladder);
    let degraded = run(
        &doc,
        &idx,
        &q,
        Strategy::FixedPointNaive,
        &tight,
        Some(cref),
    )
    .unwrap();
    assert!(
        degraded.degradation.is_degraded(),
        "tight budget must degrade this query"
    );

    // Same tight policy again: nothing was stored, so it recomputes —
    // deterministically, to the same degraded answer.
    let result_hits = cache.stats().result.hits;
    let replay = run(
        &doc,
        &idx,
        &q,
        Strategy::FixedPointNaive,
        &tight,
        Some(cref),
    )
    .unwrap();
    assert_eq!(
        cache.stats().result.hits,
        result_hits,
        "a degraded answer must not be served from the result tier"
    );
    assert_eq!(replay.degradation, degraded.degradation);
    assert_eq!(replay.fragments, degraded.fragments);

    // Full-budget request: the exact answer is computed, never the
    // degraded leftovers.
    let full = run(
        &doc,
        &idx,
        &q,
        Strategy::FixedPointNaive,
        &ExecPolicy::unlimited(),
        Some(cref),
    )
    .unwrap();
    assert!(!full.degradation.is_degraded());
    let exact = run(
        &doc,
        &idx,
        &q,
        Strategy::FixedPointNaive,
        &ExecPolicy::unlimited(),
        None,
    )
    .unwrap();
    assert_eq!(full.fragments, exact.fragments);
    for f in degraded.fragments.iter() {
        assert!(
            exact.fragments.contains(f),
            "degraded answer must be a subset of exact"
        );
    }
}

/// A new generation tag is a different key space: entries filled under one
/// generation are invisible to the next (implicit invalidation), and the
/// stale generation's entries stop being served.
#[test]
fn generation_bump_invalidates_implicitly() {
    let doc = build_doc(&[0, 0, 1, 1, 2]);
    let idx = InvertedIndex::build(&doc);
    let q = Query::new(["alpha".to_string(), "gamma".to_string()], FilterExpr::True);
    let cache = QueryCache::with_capacity_mb(8);
    let policy = ExecPolicy::unlimited();

    let gen1 = GenerationTag::fresh();
    let old = CacheRef {
        cache: &cache,
        gen: gen1,
        doc: 0,
    };
    run(&doc, &idx, &q, Strategy::PushDown, &policy, Some(old)).unwrap();
    let cold_fill = cache.stats().result;
    let hit = run(&doc, &idx, &q, Strategy::PushDown, &policy, Some(old)).unwrap();
    assert!(hit.stats.cache_hits >= 1);
    let before = cache.stats().result;

    let gen2 = GenerationTag::fresh();
    assert_ne!(gen1.as_u64(), gen2.as_u64());
    let fresh = CacheRef {
        cache: &cache,
        gen: gen2,
        doc: 0,
    };
    let after = run(&doc, &idx, &q, Strategy::PushDown, &policy, Some(fresh)).unwrap();
    assert_eq!(
        cache.stats().result.hits,
        before.hits,
        "a new generation must not hit the old generation's entries"
    );
    assert!(after.stats.cache_misses >= 1);
    // A full reload carries nothing over, so it replays the cold fill's
    // hit/miss counters exactly (the cache started empty).
    let reload = cache.stats().result;
    assert_eq!(
        (reload.hits - before.hits, reload.misses - before.misses),
        (cold_fill.hits, cold_fill.misses)
    );
    // But the new generation caches normally from then on.
    let again = run(&doc, &idx, &q, Strategy::PushDown, &policy, Some(fresh)).unwrap();
    assert!(again.stats.cache_hits >= 1);
}

/// EvalStats arithmetic sanity for the two new counters: they accumulate
/// and strip exactly as documented.
#[test]
fn cache_counters_strip_cleanly() {
    let mut a = EvalStats::new();
    a.cache_hits = 3;
    a.cache_misses = 5;
    a.joins = 7;
    let stripped = a.without_cache_counters();
    assert_eq!(stripped.cache_hits, 0);
    assert_eq!(stripped.cache_misses, 0);
    assert_eq!(stripped.joins, 7);
    let rendered = format!("{a}");
    assert!(
        rendered.contains("cache_hits=3"),
        "Display must show cache counters: {rendered}"
    );
    assert!(rendered.contains("cache_misses=5"));
}
