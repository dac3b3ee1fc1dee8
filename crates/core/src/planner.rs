//! Strategy selection: `auto` runs push-down.
//!
//! The paper's §5 sketches a reduction-factor estimate only to decide
//! whether `⊖` pays off, and predicts that brute force is impractical.
//! Measured on the benchmark's request shapes, a per-document cost-based
//! pick spent more evaluation time in total than always running
//! [`Strategy::PushDown`] on every workload, up to half again as much
//! (see DESIGN.md, "Query planning"), so `auto` is an alias of push-down
//! and serving code calls [`evaluate_traced`] directly.
//!
//! The names below remain only because the end-to-end benchmark replay
//! links them; they carry no state and pick nothing.

use crate::budget::ExecPolicy;
use crate::cache::{CacheRef, GenerationTag};
use crate::cost::CostModel;
use crate::query::{evaluate_traced, Query, QueryError, QueryResult, Strategy};
use crate::trace::Tracer;
use xfrag_doc::{Document, PostingsSource};

/// The strategy a (query, document) pair runs under. Only the benchmark
/// replay uses it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanDecision {
    /// The strategy to execute: always [`Strategy::PushDown`].
    pub picked: Strategy,
}

/// Hands out [`PlanDecision`]s; holds no state. Only the benchmark
/// replay calls it.
#[derive(Debug, Default)]
pub struct PlanCache;

impl PlanCache {
    /// A plan cache for generation `gen`; the generation is ignored.
    /// Only the benchmark replay calls it.
    pub fn new(_gen: GenerationTag) -> Self {
        PlanCache
    }

    /// The decision for `query` on one document: push-down, whatever the
    /// arguments. Only the benchmark replay calls it.
    pub fn get_or_plan<I: PostingsSource + ?Sized>(
        &self,
        _gen: GenerationTag,
        _doc_id: u64,
        _doc: &Document,
        _index: &I,
        _query: &Query,
        _model: &CostModel,
    ) -> PlanDecision {
        PlanDecision {
            picked: Strategy::PushDown,
        }
    }
}

/// [`evaluate_traced`] under `policy` with the decided strategy. Only the
/// benchmark replay calls it.
pub fn evaluate_decided_cached_traced<I: PostingsSource + ?Sized>(
    doc: &Document,
    index: &I,
    query: &Query,
    decision: &mut PlanDecision,
    policy: &ExecPolicy,
    tracer: &Tracer<'_>,
    cache: Option<CacheRef<'_>>,
) -> Result<QueryResult, QueryError> {
    evaluate_traced(
        doc,
        index,
        query,
        decision.picked,
        Some(policy),
        tracer,
        cache,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterExpr;
    use xfrag_doc::{parse_str, InvertedIndex};

    #[test]
    fn replay_entry_points_run_push_down() {
        let d = parse_str("<r><a>alpha beta</a><b><c>alpha</c><d>beta</d></b></r>").unwrap();
        let i = InvertedIndex::build(&d);
        let q = Query::parse("alpha beta", FilterExpr::MaxSize(3));
        let gen = GenerationTag::fresh();
        let mut decision =
            PlanCache::new(gen).get_or_plan(gen, 0, &d, &i, &q, &CostModel::default());
        assert_eq!(decision.picked, Strategy::PushDown);
        let policy = ExecPolicy::unlimited();
        let tracer = Tracer::disabled();
        let got = evaluate_decided_cached_traced(&d, &i, &q, &mut decision, &policy, &tracer, None)
            .unwrap();
        let want =
            evaluate_traced(&d, &i, &q, Strategy::PushDown, Some(&policy), &tracer, None).unwrap();
        assert_eq!(got.fragments, want.fragments);
        assert_eq!(got.stats, want.stats);
    }
}
