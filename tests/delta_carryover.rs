//! Delta carry-over differential suite (ISSUE 6 acceptance bar): after
//! [`QueryCache::carry_over`] rekeys a generation's entries to a new
//! [`GenerationTag`], a warm hit on a carried entry must be **observably
//! identical** to evaluating the same document cold with no cache at
//! all — byte-identical fragments (structural equality and rendered
//! form), identical degradation reports, and identical compute counters
//! including budget checkpoints, once the cache's own hit/miss
//! bookkeeping is stripped. This holds across every strategy, every
//! budget policy (degradation ladder rungs included), and deterministic
//! fault injection; documents outside the carry map (changed/removed)
//! must miss and recompute, never replay stale bytes.

use std::collections::HashMap;
use std::sync::Arc;

use xfrag::core::fault::site;
use xfrag::core::{
    evaluate_traced, Budget, CacheRef, DegradeMode, ExecPolicy, FaultAction, FaultPlan, FilterExpr,
    GenerationTag, Query, QueryCache, QueryError, QueryResult, Strategy, Tracer,
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

/// Four distinct shapes: doc 0 plays the "changed" document (no carry
/// mapping), docs 1..4 are carried across the generation bump.
fn corpus() -> Vec<Document> {
    vec![
        build_doc(&[0, 1, 2, 3, 4, 5]),
        build_doc(&[0, 0, 0, 0, 0, 0]),
        build_doc(&[0, 0, 1, 1, 2, 2, 3, 3]),
        build_doc(&[0, 1, 0, 2, 1, 3, 0, 5]),
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
    ]
}

fn run(
    doc: &Document,
    idx: &InvertedIndex,
    q: &Query,
    s: Strategy,
    policy: &ExecPolicy,
    cache: Option<CacheRef<'_>>,
) -> Result<QueryResult, QueryError> {
    evaluate_traced(doc, idx, q, s, Some(policy), &Tracer::disabled(), cache)
}

/// A labelled policy constructor; fresh per pass so fault hit counters
/// restart.
type PolicyCase = (&'static str, Box<dyn Fn() -> ExecPolicy>);

/// Unlimited, tight budgets with the degradation ladder off and on
/// (rung-bearing entries must carry with their rung), and deterministic
/// fault injection at the evaluation site (fault replay).
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
    ]
}

/// The carry map used throughout: doc 0 changed (evicted), docs 1.. are
/// carried with shifted ids so the rekey path is exercised, not just the
/// same-id keep path.
fn carry_map(n: usize) -> HashMap<u32, u32> {
    (1..n as u32).map(|i| (i, i + 3)).collect()
}

/// Post-carry doc id for document `i` under the new generation.
fn new_id(i: usize) -> u32 {
    if i == 0 {
        9 // the "changed" doc gets a fresh id with no carried entries
    } else {
        i as u32 + 3
    }
}

/// The full matrix: every query × strategy × policy fills the cache for
/// all documents under generation A, carries to generation B, then
/// asserts every post-carry evaluation — carried hit or changed-doc
/// miss — is observably identical to uncached evaluation.
#[test]
fn carried_hits_are_byte_identical_to_cold_evaluation() {
    let docs = corpus();
    let idxs: Vec<InvertedIndex> = docs.iter().map(InvertedIndex::build).collect();
    for q in queries() {
        for s in Strategy::ALL {
            for (name, mk) in &policies() {
                let cache = QueryCache::with_capacity_mb(8);
                let gen_a = GenerationTag::fresh();
                let gen_b = GenerationTag::fresh();
                for (i, doc) in docs.iter().enumerate() {
                    let _ = run(
                        doc,
                        &idxs[i],
                        &q,
                        s,
                        &mk(),
                        Some(CacheRef {
                            cache: &cache,
                            gen: gen_a,
                            doc: i as u32,
                        }),
                    );
                }
                cache.carry_over(gen_a, gen_b, &carry_map(docs.len()));
                for (i, doc) in docs.iter().enumerate() {
                    let label = format!(
                        "doc={i} q={:?} strategy={} policy={name}",
                        q.terms,
                        s.name()
                    );
                    let uncached = run(doc, &idxs[i], &q, s, &mk(), None);
                    let carried = run(
                        doc,
                        &idxs[i],
                        &q,
                        s,
                        &mk(),
                        Some(CacheRef {
                            cache: &cache,
                            gen: gen_b,
                            doc: new_id(i),
                        }),
                    );
                    match (&uncached, &carried) {
                        (Ok(u), Ok(c)) => {
                            assert_eq!(u.fragments, c.fragments, "{label}: fragments diverge");
                            assert_eq!(
                                format!("{:?}", u.fragments),
                                format!("{:?}", c.fragments),
                                "{label}: rendering diverges"
                            );
                            assert_eq!(
                                u.degradation, c.degradation,
                                "{label}: degradation diverges"
                            );
                            assert_eq!(
                                u.stats.without_cache_counters(),
                                c.stats.without_cache_counters(),
                                "{label}: stats diverge"
                            );
                        }
                        (Err(ue), Err(ce)) => {
                            assert_eq!(ue, ce, "{label}: error diverges");
                        }
                        _ => panic!(
                            "{label}: carried and uncached disagree on success: \
                             uncached={uncached:?} carried={carried:?}"
                        ),
                    }
                }
            }
        }
    }
}

/// Counter-level proof that the carry actually happened: kept entries
/// hit under the same doc id, rekeyed entries hit under their new id,
/// and the changed document misses and re-caches under the new
/// generation without resurrecting old bytes.
#[test]
fn carry_over_splits_hits_by_the_changed_set() {
    let docs = corpus();
    let idxs: Vec<InvertedIndex> = docs.iter().map(InvertedIndex::build).collect();
    let q = Query::new(["alpha".to_string(), "beta".to_string()], FilterExpr::True);
    let policy = ExecPolicy::unlimited();
    let cache = QueryCache::with_capacity_mb(8);
    let gen_a = GenerationTag::fresh();
    let gen_b = GenerationTag::fresh();
    let s = Strategy::FixedPointReduced;

    let mut cold = Vec::new();
    for (i, doc) in docs.iter().enumerate() {
        let r = run(
            doc,
            &idxs[i],
            &q,
            s,
            &policy,
            Some(CacheRef {
                cache: &cache,
                gen: gen_a,
                doc: i as u32,
            }),
        )
        .unwrap();
        assert_eq!(r.stats.cache_hits, 0, "doc {i}: fill pass must be cold");
        cold.push(r);
    }

    // Doc 1 keeps its id, docs 2.. are rekeyed, doc 0 is dropped.
    let co = cache.carry_over(gen_a, gen_b, &carry_map(docs.len()));
    assert!(
        co.kept == 0,
        "ids all shifted, nothing kept in place: {co:?}"
    );
    assert!(co.rekeyed > 0, "{co:?}");
    assert!(co.evicted > 0, "changed doc should lose entries: {co:?}");

    let hits_before = cache.stats().result.hits;
    for (i, doc) in docs.iter().enumerate() {
        let r = run(
            doc,
            &idxs[i],
            &q,
            s,
            &policy,
            Some(CacheRef {
                cache: &cache,
                gen: gen_b,
                doc: new_id(i),
            }),
        )
        .unwrap();
        assert_eq!(r.fragments, cold[i].fragments, "doc {i}");
        if i == 0 {
            assert_eq!(
                r.stats.cache_hits, 0,
                "changed doc must miss: {:?}",
                r.stats
            );
        } else {
            assert!(r.stats.cache_hits >= 1, "carried doc {i} must hit");
        }
    }
    assert_eq!(
        cache.stats().result.hits - hits_before,
        (docs.len() - 1) as u64,
        "exactly the carried documents hit the result tier"
    );

    // The old generation's key space is dead: replaying under gen A
    // cannot hit anything (its entries moved or died).
    let hits_now = cache.stats().result.hits;
    let r = run(
        &docs[1],
        &idxs[1],
        &q,
        s,
        &policy,
        Some(CacheRef {
            cache: &cache,
            gen: gen_a,
            doc: 1,
        }),
    )
    .unwrap();
    assert_eq!(r.stats.cache_hits, 0, "old generation hit after carry");
    assert_eq!(cache.stats().result.hits, hits_now);
}
