//! Query evaluation over document collections.
//!
//! Fragments never span documents, so a collection query is a per-document
//! query over the documents that can possibly answer it (those containing
//! every term — conjunctive semantics prune whole documents before any
//! join work). Results carry their [`DocId`] so callers can present
//! per-document groups, and ranking can be applied across the whole
//! result stream.

use crate::budget::{Breach, Degradation, DegradeMode, ExecPolicy, Governor};
use crate::cache::{CacheRef, GenerationTag, QueryCache};
use crate::fault::{panic_message, site};
use crate::join::PowersetTooLarge;
use crate::query::{evaluate_traced, Query, QueryError, Strategy};
use crate::rank::{score, RankConfig};
use crate::set::FragmentSet;
use crate::stats::EvalStats;
use crate::trace::Tracer;
use crate::Fragment;
use std::panic::{catch_unwind, AssertUnwindSafe};
use xfrag_doc::{Collection, DocId};

/// One document's answers within a collection result.
#[derive(Debug, Clone)]
pub struct DocAnswers {
    /// Which document.
    pub doc: DocId,
    /// Its answer fragments, in engine order.
    pub fragments: Vec<Fragment>,
}

/// The outcome of a collection query.
#[derive(Debug, Clone, Default)]
pub struct CollectionResult {
    /// Per-document answers, in document-id order; documents with no
    /// answers are omitted.
    pub answers: Vec<DocAnswers>,
    /// Documents skipped because some query term never occurs in them.
    pub docs_pruned: usize,
    /// Documents whose evaluation panicked, with the panic message.
    /// Panics are isolated per document: one poisoned document costs its
    /// own answers, never the collection result or the process.
    pub docs_failed: Vec<(DocId, String)>,
    /// Aggregated operation counters.
    pub stats: EvalStats,
}

impl CollectionResult {
    /// Total number of answer fragments across documents.
    pub fn total_fragments(&self) -> usize {
        self.answers.iter().map(|a| a.fragments.len()).sum()
    }
}

/// Evaluate a query against every candidate document of a collection:
/// the forced `strategy` under an unlimited policy, over all documents.
///
/// Exact or an error, like [`crate::evaluate`]: brute force over a
/// candidate document with an operand larger than
/// [`crate::POWERSET_LIMIT`] fails with [`QueryError::PowersetTooLarge`]
/// (for the first such document and operand), and degradation is off, so
/// no answer ever comes from a ladder rung below the requested strategy.
pub fn evaluate_collection(
    collection: &Collection,
    query: &Query,
    strategy: Strategy,
) -> Result<CollectionResult, QueryError> {
    if strategy == Strategy::BruteForce {
        for id in collection.candidate_docs(&query.terms) {
            let index = collection.index(id);
            let operands: Vec<FragmentSet> = query
                .terms
                .iter()
                .map(|t| FragmentSet::of_nodes(index.postings(t).iter().copied()))
                .collect();
            PowersetTooLarge::check(&operands)?;
        }
    }
    let all: Vec<DocId> = collection.ids().collect();
    let r = evaluate_collection_traced(
        collection,
        query,
        strategy,
        &ExecPolicy::unlimited().with_degrade(DegradeMode::Off),
        &Tracer::disabled(),
        None,
        &all,
    )?;
    Ok(CollectionResult {
        answers: r.answers,
        docs_pruned: r.docs_pruned,
        docs_failed: r.docs_failed,
        stats: r.stats,
    })
}

/// The outcome of a budgeted collection query.
#[derive(Debug, Clone, Default)]
pub struct BudgetedCollectionResult {
    /// Per-document answers, in document-id order; documents with no
    /// answers are omitted.
    pub answers: Vec<DocAnswers>,
    /// Documents skipped because some query term never occurs in them.
    pub docs_pruned: usize,
    /// Candidate documents never evaluated because the whole-collection
    /// budget ran out first.
    pub docs_skipped: usize,
    /// Documents whose evaluation panicked, with the panic message.
    /// Panic isolation is per document: the rest of the collection still
    /// answers, and the caller's process survives.
    pub docs_failed: Vec<(DocId, String)>,
    /// Documents whose answers came from a degraded ladder rung, with the
    /// per-document degradation report.
    pub degraded_docs: Vec<(DocId, Degradation)>,
    /// Aggregated operation counters.
    pub stats: EvalStats,
}

impl BudgetedCollectionResult {
    /// Total number of answer fragments across documents.
    pub fn total_fragments(&self) -> usize {
        self.answers.iter().map(|a| a.fragments.len()).sum()
    }

    /// Whether any part of the result is less than exact: a degraded
    /// per-document answer, candidate documents never reached, or
    /// documents lost to an isolated panic.
    pub fn is_degraded(&self) -> bool {
        self.docs_skipped > 0 || !self.degraded_docs.is_empty() || !self.docs_failed.is_empty()
    }
}

/// Evaluate a collection query with `strategy` under an [`ExecPolicy`],
/// over the routed subset `docs` of the collection.
///
/// Two budget scopes compose here:
///
/// * A **whole-collection** governor enforces the wall-clock deadline and
///   cancellation across documents: it is checkpointed before each
///   candidate document, and once it trips, the remaining candidates are
///   skipped (counted in
///   [`BudgetedCollectionResult::docs_skipped`]) rather than evaluated —
///   documents are independent, so the partial result is still a sound
///   subset of the exact collection answer.
/// * Each document then runs the full degradation ladder (see
///   [`crate::evaluate_budgeted`]), with the policy's per-document
///   resource caps and whatever wall-clock the collection budget has
///   left.
///
/// Cancellation aborts with [`QueryError::Cancelled`]; any other breach
/// with [`DegradeMode::Off`] aborts with [`QueryError::BudgetExceeded`].
///
/// Each candidate document runs under a `doc:{name}` span, so the
/// per-document ladder rungs nest underneath it and the top-level `doc:`
/// spans carry exactly one document's wall-clock and counter deltas —
/// the input to [`crate::trace::LatencyHistogram::from_spans`] for
/// collection-level latency aggregation.
///
/// `cache` pairs the shared cache with the [`GenerationTag`] of *this*
/// collection snapshot; each candidate document probes and fills under a
/// per-document [`CacheRef`] (cache keys carry the document id, so two
/// documents never alias). Pass `None` for the uncached path — the two
/// produce byte-identical answers, which `tests/cache_differential.rs`
/// verifies across strategies, policies, and fault plans.
///
/// Only documents in `docs` are considered — the shard-serving
/// primitive. `docs` must be in ascending id order, as
/// [`Collection::ids`] yields them. Because candidacy, evaluation and
/// stats are all per-document and deterministic, evaluating a partition
/// of the collection shard by shard and concatenating the results
/// (answers and failures re-sorted by [`DocId`], counters summed)
/// reproduces the whole-collection result *exactly* —
/// `routed_partition_merges_to_whole_collection_result` below and the
/// serve-layer shard differential both pin this down.
pub fn evaluate_collection_traced(
    collection: &Collection,
    query: &Query,
    strategy: Strategy,
    policy: &ExecPolicy,
    tracer: &Tracer<'_>,
    cache: Option<(&QueryCache, GenerationTag)>,
    docs: &[DocId],
) -> Result<BudgetedCollectionResult, QueryError> {
    if query.terms.is_empty() {
        return Err(QueryError::NoTerms);
    }
    let gov = Governor::new(policy.budget, policy.cancel.clone()).with_fault(policy.fault.clone());
    debug_assert!(
        docs.windows(2).all(|w| w[0] < w[1]),
        "docs must be in ascending id order"
    );
    let candidates: Vec<DocId> = collection
        .candidate_docs(&query.terms)
        .filter(|id| docs.binary_search(id).is_ok())
        .collect();
    let mut out = BudgetedCollectionResult {
        docs_pruned: docs.len() - candidates.len(),
        ..Default::default()
    };
    for (i, &id) in candidates.iter().enumerate() {
        match gov.checkpoint() {
            Ok(()) => {}
            Err(Breach::Cancelled) => return Err(QueryError::Cancelled),
            Err(breach) => {
                if policy.degrade == DegradeMode::Off {
                    return Err(QueryError::BudgetExceeded(breach));
                }
                out.docs_skipped = candidates.len() - i;
                break;
            }
        }
        // Per-document policy: the same resource caps, but only the
        // wall-clock the collection budget has left.
        let mut per_doc = policy.clone();
        if let Some(total) = policy.budget.wall_clock {
            per_doc.budget.wall_clock = Some(total.saturating_sub(gov.elapsed()));
        }
        // Isolation boundary: a panic while evaluating one document
        // (injected via [`site::COLLECTION_DOC`] / [`site::QUERY_EVAL`],
        // or genuine) becomes a `docs_failed` entry; the remaining
        // candidates still answer.
        let attempt = catch_unwind(AssertUnwindSafe(|| -> Result<_, QueryError> {
            gov.fault_point(site::COLLECTION_DOC)
                .map_err(|_| QueryError::Cancelled)?;
            tracer.scoped_lazy(
                || format!("doc:{}", collection.name(id)),
                &mut out.stats,
                |stats| -> Result<_, QueryError> {
                    let doc = collection.doc(id);
                    let index = collection.index(id);
                    let cache_ref = cache.map(|(cache, gen)| CacheRef {
                        cache,
                        gen,
                        doc: id.0,
                    });
                    let r = evaluate_traced(
                        doc,
                        &index,
                        query,
                        strategy,
                        Some(&per_doc),
                        tracer,
                        cache_ref,
                    )?;
                    *stats += r.stats;
                    Ok(r)
                },
            )
        }));
        let r = match attempt {
            Ok(r) => r?,
            Err(payload) => {
                out.docs_failed.push((id, panic_message(payload.as_ref())));
                continue;
            }
        };
        if r.degradation.is_degraded() {
            out.degraded_docs.push((id, r.degradation.clone()));
        }
        if !r.fragments.is_empty() {
            out.answers.push(DocAnswers {
                doc: id,
                fragments: r.fragments.iter().cloned().collect(),
            });
        }
    }
    out.stats.budget_checkpoints += gov.checkpoints_passed();
    Ok(out)
}

/// The `k` highest-scoring fragments across the whole collection, as
/// `(doc, fragment, score)` triples — ties broken by document id then
/// canonical fragment order, so output is deterministic.
pub fn top_k_collection(
    collection: &Collection,
    result: &CollectionResult,
    query: &Query,
    cfg: &RankConfig,
    k: usize,
) -> Vec<(DocId, Fragment, f64)> {
    let mut scored: Vec<(DocId, Fragment, f64)> = result
        .answers
        .iter()
        .flat_map(|da| {
            let doc = collection.doc(da.doc);
            da.fragments
                .iter()
                .map(move |f| (da.doc, f.clone(), score(doc, f, &query.terms, cfg)))
        })
        .collect();
    scored.sort_by(|a, b| {
        b.2.partial_cmp(&a.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
            .then_with(|| a.1.cmp(&b.1))
    });
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FilterExpr;
    use xfrag_doc::parse_str;

    /// The collection loop over every document with a forced strategy.
    fn budgeted(
        c: &Collection,
        q: &Query,
        policy: &ExecPolicy,
        tracer: &Tracer<'_>,
    ) -> Result<BudgetedCollectionResult, QueryError> {
        let all: Vec<DocId> = c.ids().collect();
        evaluate_collection_traced(c, q, Strategy::PushDown, policy, tracer, None, &all)
    }

    fn collection() -> Collection {
        let mut c = Collection::new();
        c.add(
            "one.xml",
            parse_str("<a><p>alpha beta</p><p>noise</p></a>").unwrap(),
        );
        c.add(
            "two.xml",
            parse_str("<b><p>alpha</p><p>beta</p></b>").unwrap(),
        );
        c.add("three.xml", parse_str("<c><p>alpha only</p></c>").unwrap());
        c
    }

    #[test]
    fn evaluates_candidate_docs_only() {
        let c = collection();
        let q = Query::new(["alpha", "beta"], FilterExpr::MaxSize(3));
        let r = evaluate_collection(&c, &q, Strategy::PushDown).unwrap();
        assert_eq!(r.docs_pruned, 1, "three.xml lacks beta");
        assert_eq!(r.answers.len(), 2);
        assert!(r.total_fragments() >= 2);
        // Document order is preserved.
        assert!(r.answers[0].doc < r.answers[1].doc);
    }

    #[test]
    fn no_terms_error() {
        let c = collection();
        let q = Query::new(Vec::<&str>::new(), FilterExpr::True);
        assert!(matches!(
            evaluate_collection(&c, &q, Strategy::PushDown),
            Err(QueryError::NoTerms)
        ));
    }

    #[test]
    fn unmatched_terms_prune_everything() {
        let c = collection();
        let q = Query::new(["alpha", "zeta"], FilterExpr::True);
        let r = evaluate_collection(&c, &q, Strategy::PushDown).unwrap();
        assert_eq!(r.docs_pruned, 3);
        assert!(r.answers.is_empty());
        assert_eq!(r.stats.joins, 0);
    }

    #[test]
    fn top_k_ranks_across_documents() {
        let c = collection();
        let q = Query::new(["alpha", "beta"], FilterExpr::MaxSize(3));
        let r = evaluate_collection(&c, &q, Strategy::PushDown).unwrap();
        // one.xml answers with the dense single ⟨p⟩; two.xml with the
        // 3-node ⟨b,p,p⟩ span: 2 fragments total.
        let top = top_k_collection(&c, &r, &q, &RankConfig::default(), 3);
        assert_eq!(top.len(), 2);
        // Highest score first; the densest answer is one.xml's single
        // ⟨p⟩ node containing both terms.
        assert!(top.windows(2).all(|w| w[0].2 >= w[1].2));
        assert_eq!(top[0].0, xfrag_doc::DocId(0));
        assert_eq!(top[0].1.size(), 1);
        // Deterministic, and k truncates.
        let again = top_k_collection(&c, &r, &q, &RankConfig::default(), 3);
        assert_eq!(top, again);
        assert_eq!(
            top_k_collection(&c, &r, &q, &RankConfig::default(), 1).len(),
            1
        );
    }

    #[test]
    fn budgeted_tracing_groups_spans_per_document() {
        use crate::trace::{LatencyHistogram, RecordingSink};
        let c = collection();
        let q = Query::new(["alpha", "beta"], FilterExpr::MaxSize(3));
        let plain = budgeted(&c, &q, &ExecPolicy::unlimited(), &Tracer::disabled()).unwrap();

        let sink = RecordingSink::new();
        let tracer = Tracer::new(&sink);
        let traced = budgeted(&c, &q, &ExecPolicy::unlimited(), &tracer).unwrap();
        assert_eq!(traced.answers.len(), plain.answers.len());
        assert_eq!(traced.stats.joins, plain.stats.joins);

        let spans = sink.take();
        // One top-level span per candidate document (three.xml is pruned),
        // each with the per-document ladder nested underneath.
        let doc_spans: Vec<_> = spans
            .iter()
            .filter(|s| s.stage.starts_with("doc:"))
            .collect();
        assert_eq!(doc_spans.len(), 2);
        assert!(doc_spans.iter().any(|s| s.stage == "doc:one.xml"));
        assert!(doc_spans
            .iter()
            .all(|s| s.children.iter().any(|c| c.stage.starts_with("rung:"))));
        let hist = LatencyHistogram::from_spans(doc_spans.iter().copied());
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn budgeted_isolates_injected_panic_and_reports_failure() {
        use crate::fault::{FaultAction, FaultPlan};
        let c = collection();
        let q = Query::new(["alpha", "beta"], FilterExpr::MaxSize(3));
        let clean = budgeted(&c, &q, &ExecPolicy::unlimited(), &Tracer::disabled()).unwrap();
        assert_eq!(clean.answers.len(), 2);
        assert!(!clean.is_degraded());

        let inj = FaultPlan::new()
            .arm(site::COLLECTION_DOC, 0, FaultAction::Panic)
            .build();
        let policy = ExecPolicy::unlimited().with_fault(inj);
        let r = budgeted(&c, &q, &policy, &Tracer::disabled()).unwrap();
        assert_eq!(r.docs_failed.len(), 1);
        assert!(r.docs_failed[0].1.contains(crate::fault::PANIC_MARKER));
        assert!(r.is_degraded());
        // The surviving document answers exactly as in the clean run.
        assert_eq!(r.answers.len(), 1);
        let exact = clean
            .answers
            .iter()
            .find(|a| a.doc == r.answers[0].doc)
            .unwrap();
        assert_eq!(r.answers[0].fragments, exact.fragments);
    }

    #[test]
    fn budgeted_fault_cancel_aborts_like_a_cancel_token() {
        use crate::fault::{FaultAction, FaultPlan};
        let c = collection();
        let q = Query::new(["alpha", "beta"], FilterExpr::MaxSize(3));
        let inj = FaultPlan::new()
            .arm(site::COLLECTION_DOC, 1, FaultAction::Cancel)
            .build();
        let policy = ExecPolicy::unlimited().with_fault(inj);
        assert!(matches!(
            budgeted(&c, &q, &policy, &Tracer::disabled()),
            Err(QueryError::Cancelled)
        ));
    }

    #[test]
    fn budgeted_query_eval_fault_panics_are_isolated_per_document() {
        use crate::fault::{FaultAction, FaultPlan};
        let c = collection();
        let q = Query::new(["alpha", "beta"], FilterExpr::MaxSize(3));
        // The panic fires inside evaluate_budgeted (query:eval site), a
        // layer below the per-document boundary — still isolated.
        let inj = FaultPlan::new()
            .arm(crate::fault::site::QUERY_EVAL, 1, FaultAction::Panic)
            .build();
        let policy = ExecPolicy::unlimited().with_fault(inj);
        let r = budgeted(&c, &q, &policy, &Tracer::disabled()).unwrap();
        assert_eq!(r.docs_failed.len(), 1);
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn panicking_document_keeps_later_spans_top_level() {
        use crate::fault::{FaultAction, FaultPlan};
        use crate::trace::RecordingSink;
        let mut c = Collection::new();
        for i in 0..3 {
            c.add(
                format!("d{i}.xml"),
                parse_str(&format!("<r><p>alpha beta {i}</p></r>")).unwrap(),
            );
        }
        let q = Query::new(["alpha", "beta"], FilterExpr::MaxSize(2));
        let inj = FaultPlan::new()
            .arm(site::QUERY_EVAL, 0, FaultAction::Panic)
            .build();
        let policy = ExecPolicy::unlimited().with_fault(inj);
        let sink = RecordingSink::new();
        let tracer = Tracer::new(&sink);
        let r = budgeted(&c, &q, &policy, &tracer).unwrap();
        assert_eq!(r.docs_failed.len(), 1);
        assert_eq!(r.answers.len(), 2);
        // The panicking document's frame is dropped on unwind, so both
        // surviving documents still reach the sink as top-level spans.
        let top: Vec<String> = sink.take().into_iter().map(|s| s.stage).collect();
        assert_eq!(top, ["doc:d1.xml", "doc:d2.xml"]);
    }

    #[test]
    fn routed_partition_merges_to_whole_collection_result() {
        // The shard-serving invariant: evaluating any partition of the
        // doc set shard by shard and merging reproduces the
        // whole-collection result exactly — answers, failure lists,
        // pruning counts, and stats.
        let mut c = Collection::new();
        for i in 0..9 {
            let body = if i % 3 == 0 {
                format!("<r><p>alpha beta {i}</p><p>noise</p></r>")
            } else {
                format!("<r><p>alpha only {i}</p></r>")
            };
            c.add(format!("d{i}.xml"), parse_str(&body).unwrap());
        }
        let q = Query::new(["alpha", "beta"], FilterExpr::MaxSize(3));
        let policy = ExecPolicy::unlimited();
        let tracer = Tracer::disabled();
        let whole = budgeted(&c, &q, &policy, &tracer).unwrap();

        for shards in [1usize, 2, 3, 4] {
            let mut parts: Vec<Vec<DocId>> = vec![Vec::new(); shards];
            for id in c.ids() {
                parts[id.0 as usize % shards].push(id);
            }
            let mut merged = BudgetedCollectionResult::default();
            for part in &parts {
                let r = evaluate_collection_traced(
                    &c,
                    &q,
                    Strategy::PushDown,
                    &policy,
                    &tracer,
                    None,
                    part,
                )
                .unwrap();
                merged.answers.extend(r.answers);
                merged.docs_failed.extend(r.docs_failed);
                merged.degraded_docs.extend(r.degraded_docs);
                merged.docs_pruned += r.docs_pruned;
                merged.docs_skipped += r.docs_skipped;
                merged.stats += r.stats;
            }
            merged.answers.sort_by_key(|a| a.doc);
            merged.docs_failed.sort_by_key(|f| f.0);

            assert_eq!(merged.docs_pruned, whole.docs_pruned, "shards={shards}");
            assert_eq!(merged.docs_skipped, whole.docs_skipped);
            assert_eq!(merged.answers.len(), whole.answers.len());
            for (a, b) in merged.answers.iter().zip(&whole.answers) {
                assert_eq!(a.doc, b.doc, "shards={shards}");
                assert_eq!(a.fragments, b.fragments, "shards={shards}");
            }
            assert_eq!(merged.stats.joins, whole.stats.joins);
            assert_eq!(
                merged.stats.fragments_emitted,
                whole.stats.fragments_emitted
            );
            assert_eq!(
                merged.stats.budget_checkpoints, whole.stats.budget_checkpoints,
                "one checkpoint per candidate either way (shards={shards})"
            );
        }
    }

    #[test]
    fn brute_force_over_oversized_operand_fails_instead_of_degrading() {
        // d1.xml holds "alpha" in 20 leaves, past the powerset limit;
        // d0.xml is small and answers on its own.
        let mut c = Collection::new();
        c.add("d0.xml", parse_str("<r><p>alpha beta</p></r>").unwrap());
        let leaves: String = (0..20).map(|i| format!("<p>alpha {i}</p>")).collect();
        c.add(
            "d1.xml",
            parse_str(&format!("<r>{leaves}<p>beta</p></r>")).unwrap(),
        );
        let q = Query::new(["alpha", "beta"], FilterExpr::MaxSize(3));
        match evaluate_collection(&c, &q, Strategy::BruteForce) {
            Err(QueryError::PowersetTooLarge(e)) => assert_eq!(e.len, 20),
            other => panic!("expected PowersetTooLarge, got {other:?}"),
        }
        // The same collection answers exactly under push-down.
        let r = evaluate_collection(&c, &q, Strategy::PushDown).unwrap();
        assert_eq!(r.answers.len(), 2);
    }

    #[test]
    fn empty_collection_yields_empty_result() {
        let c = Collection::new();
        let q = Query::new(["alpha"], FilterExpr::True);
        let r = evaluate_collection(&c, &q, Strategy::PushDown).unwrap();
        assert!(r.answers.is_empty());
        assert_eq!(r.docs_pruned, 0);
    }
}
