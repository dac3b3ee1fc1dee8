#![warn(missing_docs)]

//! # xfrag-core — the fragment algebra
//!
//! The primary contribution of Pradhan, *"An Algebraic Query Model for
//! Effective and Efficient Retrieval of XML Fragments"* (VLDB 2006):
//! a database-style algebra over document fragments, with
//!
//! * [`Fragment`] / [`FragmentSet`] — Definition 2 and the set operands;
//! * [`join`] — fragment join, pairwise fragment join, powerset fragment
//!   join (Definitions 4–6);
//! * [`fixpoint`] — fixed points, fragment set reduce, Theorems 1 & 2;
//! * [`filter`] — selection predicates, anti-monotonic classification
//!   (Definitions 3 & 11, Theorem 3's precondition);
//! * [`query`] — keyword queries and the §4 evaluation strategies;
//! * [`plan`] — the evaluation tree each §4 strategy runs, built by the
//!   paper's Theorem 2 and 3 rewrites, with `EXPLAIN`-style rendering
//!   (Figure 5);
//! * [`overlap`] — grouping of overlapping answers (§5 discussion);
//! * [`budget`] — resource budgets, cooperative cancellation, the
//!   client retry budget, and the graceful-degradation ladder
//!   ([`evaluate_budgeted`]);
//! * [`cache`] — generation-keyed, sharded LRU memoization of exact
//!   per-document results for repeated query traffic;
//! * `exec` (crate-private) — the execution context (`ExecCtx`:
//!   document, governor, tracer) that every
//!   operator's one implementation runs under;
//! * [`trace`] — span-based stage tracing of every evaluation stage,
//!   powering `--profile` and `explain --analyze`;
//! * [`fault`] — deterministic, seeded fault injection at named sites,
//!   so panic/delay/cancel/read-error handling is testable on demand.
//!
//! ## Example
//!
//! The paper's running query, end to end:
//!
//! ```
//! use xfrag_core::{evaluate, FilterExpr, Query, Strategy};
//! use xfrag_doc::{parse_str, InvertedIndex};
//!
//! let doc = parse_str(
//!     "<sec><sub>optimization topics\
//!        <par>XQuery optimization in practice</par>\
//!        <par>XQuery rewriting</par></sub></sec>",
//! ).unwrap();
//! let index = InvertedIndex::build(&doc);
//! let query = Query::new(["xquery", "optimization"], FilterExpr::MaxSize(3));
//!
//! // All four strategies return the same answer set.
//! let push = evaluate(&doc, &index, &query, Strategy::PushDown).unwrap();
//! let brute = evaluate(&doc, &index, &query, Strategy::BruteForce).unwrap();
//! assert_eq!(push.fragments, brute.fragments);
//! // ⟨sub, par, par⟩ — the self-contained fragment — is among them.
//! assert!(push.fragments.iter().any(|f| f.size() == 3));
//! ```

pub mod budget;
pub mod cache;
pub mod collection;
mod exec;
pub mod fault;
pub mod filter;
pub mod fixpoint;
pub mod fragment;
pub mod join;
pub mod overlap;
pub mod plan;
pub mod planner;
pub mod query;
pub mod rank;
pub mod set;
pub mod snippet;
pub mod stats;
pub mod trace;

pub use budget::{
    Breach, Budget, CancelToken, Degradation, DegradeMode, ExecPolicy, Governor, RetryBudget,
    SLCA_APPROX,
};
pub use cache::{
    flight_key, CacheRef, CacheStats, CachedResult, CarryOver, Flight, FlightFollower, FlightLease,
    FlightOutcome, GenerationTag, PolicyFp, QueryCache, ResultKey, ShardCounters, Singleflight,
    SingleflightStats, TierCounters,
};
pub use collection::{
    evaluate_collection, evaluate_collection_traced, top_k_collection, BudgetedCollectionResult,
    CollectionResult, DocAnswers,
};
pub use fault::{FaultAction, FaultInjector, FaultPlan};
pub use filter::{select, FilterExpr};
pub use fixpoint::{
    fixed_point, fixed_point_naive, fixed_point_reduced, powerset_via_fixpoint, reduce,
    reduction_factor, FixpointMode,
};
pub use fragment::{Fragment, FragmentError};
pub use join::{
    fragment_join, fragment_join_all, fragment_join_many, pairwise_join, powerset_join,
    powerset_join_candidates, PowersetTooLarge, POWERSET_LIMIT,
};
pub use plan::LogicalPlan;
pub use planner::{evaluate_decided_cached_traced, CostModel, PlanCache, PlanDecision};
pub use query::{
    evaluate, evaluate_budgeted, evaluate_scoped, evaluate_traced, Query, QueryError, QueryResult,
    ScopedQueryError, Strategy,
};
pub use set::FragmentSet;
pub use stats::EvalStats;
pub use trace::{
    format_duration, render_spans, spans_to_json, LatencyHistogram, NoopSink, RecordingSink, Span,
    TraceSink, Tracer,
};
