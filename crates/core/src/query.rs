//! Keyword queries and the evaluation strategies of §4.
//!
//! A query `Q_P{k1,…,km}` (Definition 7) is evaluated as
//! `σ_P(F1 ⋈* F2 ⋈* … ⋈* Fm)` where `Fi = σ_{keyword=ki}(nodes(D))`
//! (§2.3 gives the two-keyword case; the m-ary form is well-defined
//! because powerset join is associative and commutative, and by the same
//! argument as Theorem 2 it equals the pairwise-join fold of the operand
//! fixed points `F1⁺ ⋈ … ⋈ Fm⁺`). For `m = 1` this degenerates to
//! `σ_P(F1⁺)`.
//!
//! Four strategies implement the same semantics:
//!
//! | Strategy | Paper section | Mechanism |
//! |---|---|---|
//! | [`Strategy::BruteForce`] | §4.1 | literal subset enumeration, post-filter |
//! | [`Strategy::FixedPointNaive`] | §3.1.1 | `Fi⁺` with per-round stabilization checks |
//! | [`Strategy::FixedPointReduced`] | §3.1.2/§4.2 | Theorem 1: `|⊖(Fi)|` rounds, no checks |
//! | [`Strategy::PushDown`] | §3.2/§4.3 | Theorem 3: anti-monotonic selection below every join |
//!
//! All four must return identical fragment sets — the test-suite and a
//! proptest enforce it. They differ (dramatically) in work performed,
//! which [`crate::EvalStats`] exposes.

use crate::budget::{Breach, Degradation, DegradeMode, ExecPolicy, Governor};
use crate::cache::{CacheRef, ResultKey};
use crate::exec::ExecCtx;
use crate::filter::{select, FilterExpr};
use crate::fixpoint::FixpointMode;
use crate::join::{fragment_join_many, PowersetTooLarge};
use crate::set::FragmentSet;
use crate::stats::EvalStats;
use crate::trace::Tracer;
use serde::{Deserialize, Serialize};
use xfrag_doc::text::normalize_term;
use xfrag_doc::{Document, PostingsSource};

/// A keyword query with a selection predicate (Definition 7).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Query {
    /// Normalized query terms `k1 … km` (conjunctive semantics).
    pub terms: Vec<String>,
    /// The selection predicate `P`.
    pub filter: FilterExpr,
    /// Enforce Definition 8's letter: every keyword must occur in a *leaf*
    /// of the answer fragment. The paper's operational formula
    /// `σ_P(F1 ⋈* F2)` can produce fragments where a keyword node became
    /// internal (e.g. joining a node with its own descendant); strict mode
    /// post-filters those out. Off by default, matching §4's worked example.
    pub strict_leaf_semantics: bool,
}

impl Query {
    /// Build a query from raw terms; terms are normalized like document
    /// text, empty ones dropped, and duplicates removed (first occurrence
    /// wins). `Q{k, k} = Q{k}` — the powerset join of a set with itself
    /// adds no answers, only work — so deduplication preserves semantics
    /// while avoiding a redundant join over identical operands.
    pub fn new(terms: impl IntoIterator<Item = impl AsRef<str>>, filter: FilterExpr) -> Self {
        let mut deduped: Vec<String> = Vec::new();
        for t in terms {
            if let Some(norm) = normalize_term(t.as_ref()) {
                if !deduped.contains(&norm) {
                    deduped.push(norm);
                }
            }
        }
        Query {
            terms: deduped,
            filter,
            strict_leaf_semantics: false,
        }
    }

    /// Parse a whitespace-separated keyword string.
    pub fn parse(input: &str, filter: FilterExpr) -> Self {
        Self::new(input.split_whitespace(), filter)
    }

    /// Enable Definition 8's strict keyword-in-leaf requirement.
    pub fn with_strict_leaf_semantics(mut self) -> Self {
        self.strict_leaf_semantics = true;
        self
    }
}

/// The §4 evaluation strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// §4.1: powerset join by literal subset enumeration, filter last.
    /// Exponential; refuses operands larger than
    /// [`crate::POWERSET_LIMIT`].
    BruteForce,
    /// §3.1.1: fixed points by iteration with stabilization checks.
    FixedPointNaive,
    /// §4.2: Theorem 1 — pre-compute `|⊖(F)|`, skip stabilization checks.
    FixedPointReduced,
    /// §4.3: Theorem 3 — push the anti-monotonic part of the filter below
    /// all joins (and inside fixed-point iteration); evaluate the residual
    /// part at the top.
    PushDown,
}

impl Strategy {
    /// All strategies, in paper order.
    pub const ALL: [Strategy; 4] = [
        Strategy::BruteForce,
        Strategy::FixedPointNaive,
        Strategy::FixedPointReduced,
        Strategy::PushDown,
    ];

    /// Short stable name for tables and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::BruteForce => "brute-force",
            Strategy::FixedPointNaive => "fixpoint-naive",
            Strategy::FixedPointReduced => "fixpoint-reduced",
            Strategy::PushDown => "push-down",
        }
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "brute-force" | "brute" => Ok(Strategy::BruteForce),
            "fixpoint-naive" | "naive" => Ok(Strategy::FixedPointNaive),
            "fixpoint-reduced" | "reduced" => Ok(Strategy::FixedPointReduced),
            // `auto` is what requests without a strategy run: push-down.
            "push-down" | "pushdown" | "auto" => Ok(Strategy::PushDown),
            other => Err(format!(
                "unknown strategy {other:?} (expected auto, brute-force, fixpoint-naive, fixpoint-reduced or push-down)"
            )),
        }
    }
}

/// The outcome of evaluating a query: the answer set `A` plus the work
/// accounting that the paper's efficiency arguments are about.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The answer fragments.
    pub fragments: FragmentSet,
    /// Operation counters accumulated during evaluation.
    pub stats: EvalStats,
    /// How (or whether) the evaluation degraded under a budget. Always
    /// [`Degradation::none`] for unbudgeted evaluation.
    pub degradation: Degradation,
}

/// Errors surfaced by query evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query contained no usable terms after normalization.
    NoTerms,
    /// Brute force was asked to enumerate an oversized powerset.
    PowersetTooLarge(PowersetTooLarge),
    /// The evaluation's [`crate::CancelToken`] was triggered. Cancellation
    /// never degrades: a cancelled caller wants no answer at all.
    Cancelled,
    /// A budget tripped and degradation was [`DegradeMode::Off`].
    BudgetExceeded(Breach),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::NoTerms => write!(f, "query has no terms"),
            QueryError::PowersetTooLarge(e) => write!(f, "{e}"),
            QueryError::Cancelled => write!(f, "query cancelled"),
            QueryError::BudgetExceeded(b) => {
                write!(f, "budget exceeded ({b}) and degradation is off")
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl From<PowersetTooLarge> for QueryError {
    fn from(e: PowersetTooLarge) -> Self {
        QueryError::PowersetTooLarge(e)
    }
}

/// Evaluate `query` over `doc` using `index` for the keyword selections.
///
/// Generic over [`PostingsSource`]: the same engine runs off an
/// in-memory [`xfrag_doc::InvertedIndex`] or a persistent
/// [`xfrag_doc::SegmentIndex`] / collection handle, in which case
/// postings are lazily materialized. Structural arithmetic always uses
/// the document's own prefix labels. Both backends return identical
/// results — the indexed differential suite proves it across every
/// strategy.
///
/// Exact and unbounded: the strategy runs under an unlimited governor
/// with no degradation ladder, so an unfiltered query over many keyword
/// occurrences can take time exponential in their number (Definition 8's
/// answer set is that large), and brute force over an operand larger
/// than [`crate::POWERSET_LIMIT`] fails with
/// [`QueryError::PowersetTooLarge`]. Evaluations of outside input run
/// [`evaluate_budgeted`] under [`crate::Budget::bounded`] instead.
pub fn evaluate<I: PostingsSource + ?Sized>(
    doc: &Document,
    index: &I,
    query: &Query,
    strategy: Strategy,
) -> Result<QueryResult, QueryError> {
    let tracer = Tracer::disabled();
    let operands = term_operands(index, query, &tracer);
    evaluate_operands(doc, query, strategy, &operands)
}

/// Evaluate `query` under an [`ExecPolicy`]: resource budgets, cooperative
/// cancellation, and — when the budget trips — the graceful-degradation
/// ladder.
///
/// The ladder has two rungs:
///
/// 1. **full** — the requested strategy, charging one [`Governor`].
/// 2. **slca-approx** — once `full` breaches (any [`Breach`] but
///    cancellation, including [`Breach::PowersetLimit`]), one answer per
///    smallest-LCA node, ungoverned and linear in document size, so the
///    ladder always terminates with an answer. A breached counter stays
///    past its limit, so no other plan that joins could run on what is
///    left. For a one-term query the answer is every occurrence with no
///    other occurrence below it.
///
/// Both rungs pass their raw set through the query's selection `σ_P`, so
/// every returned fragment satisfies the predicate and each rung yields a
/// **sound subset** of the exact answer. [`QueryResult::degradation`]
/// names the breach that stopped `full` and what it spent.
///
/// Cancellation ([`Breach::Cancelled`]) never degrades — it surfaces as
/// [`QueryError::Cancelled`]. With [`DegradeMode::Off`], the breach
/// surfaces as [`QueryError::BudgetExceeded`].
pub fn evaluate_budgeted<I: PostingsSource + ?Sized>(
    doc: &Document,
    index: &I,
    query: &Query,
    strategy: Strategy,
    policy: &ExecPolicy,
) -> Result<QueryResult, QueryError> {
    evaluate_traced(
        doc,
        index,
        query,
        strategy,
        policy,
        &Tracer::disabled(),
        None,
    )
}

/// [`evaluate_budgeted`] with span recording and the query cache.
///
/// Spans: one `term-lookup:{term}` span per keyword selection (with an
/// `index:load:{term}` child when the posting list is decoded from a
/// segment), then the strategy's own span tree (fixpoints with per-round
/// children, joins, the final `select-top`).
///
/// Each ladder rung that runs opens a `rung:full` or `rung:slca-approx`
/// span, so a profile shows where the budget went before the fallback
/// answered — an abandoned `rung:full` span ends at the moment its
/// budget tripped.
///
/// With `cache: None` this is exactly the uncached path. With a cache:
///
/// 1. **Hit** — probe the exact-answer cache under the
///    normalized [`ResultKey`] (sorted terms, filter fingerprint,
///    strategy, policy fingerprint). A hit is charged to a governor
///    built from the policy — a cancelled token still aborts, an armed
///    `query:eval` fault still fires, and a pre-expired deadline makes
///    the hit unservable (falls through to normal evaluation, which
///    degrades or times out exactly as an uncached run would). Served
///    hits replay the stored compute [`EvalStats`], so cached and
///    uncached evaluation report identical non-cache counters.
/// 2. **Miss** — the operand sets come from `index` exactly as on the
///    uncached path (a segment-backed [`PostingsSource`] decodes each
///    list once and keeps it), the answer is computed, and it is stored
///    unless it degraded (see [`QueryCache::put_result`](crate::QueryCache::put_result)).
pub fn evaluate_traced<I: PostingsSource + ?Sized>(
    doc: &Document,
    index: &I,
    query: &Query,
    strategy: Strategy,
    policy: &ExecPolicy,
    tracer: &Tracer<'_>,
    cache: Option<CacheRef<'_>>,
) -> Result<QueryResult, QueryError> {
    if query.terms.is_empty() {
        return Err(QueryError::NoTerms);
    }
    let key = cache
        .as_ref()
        .map(|c| ResultKey::new(c.gen, c.doc, query, strategy, policy));
    if let (Some(c), Some(key)) = (&cache, &key) {
        if let Some(entry) = c.cache.get_result(key) {
            let gov = policy.governor();
            match gov.checkpoint() {
                Ok(()) => {
                    // Mirror the single fault point a computed run fires.
                    if gov.fault_point(crate::fault::site::QUERY_EVAL).is_err() {
                        return Err(QueryError::Cancelled);
                    }
                    let mut stats = EvalStats::new();
                    tracer.scoped("cache:result-hit", &mut stats, |stats| {
                        *stats += entry.stats;
                        stats.cache_hits += 1;
                    });
                    return Ok(QueryResult {
                        fragments: entry.fragments,
                        stats,
                        degradation: Degradation::none(),
                    });
                }
                Err(Breach::Cancelled) => return Err(QueryError::Cancelled),
                // Deadline already gone: the entry is not servable under
                // this request's budget charge — recompute below.
                Err(_) => {}
            }
        }
    }

    let operands = term_operands(index, query, tracer);
    // Conjunctive semantics: a term with no occurrences empties the answer.
    let any_empty = operands.iter().any(FragmentSet::is_empty);
    let mut result = if any_empty {
        empty_result()
    } else {
        let gov = policy.governor();
        let cx = ExecCtx::new(doc, &gov, tracer);
        run_ladder(&cx, query, strategy, &operands, policy)?
    };
    if let (Some(c), Some(key)) = (&cache, &key) {
        // This evaluation did not reuse a result. Empty-operand
        // short-circuits are not cached: recomputing them costs one
        // postings lookup, and keeping them out preserves exact
        // fault-injection parity (the short-circuit path fires no
        // `query:eval` fault point; the hit path does).
        result.stats.cache_misses += 1;
        if !any_empty {
            c.cache.put_result(key, &result);
        }
    }
    Ok(result)
}

/// Build one operand set `Fi = σ_{keyword=ki}(nodes(D))` from a postings
/// source, recording an `index:load:{term}` span when the lookup lazily
/// materializes a posting list out of a persistent segment.
pub(crate) fn term_operand<I: PostingsSource + ?Sized>(
    index: &I,
    term: &str,
    tracer: &Tracer<'_>,
    stats: &mut EvalStats,
) -> FragmentSet {
    if index.needs_load(term) {
        tracer.scoped_lazy(
            || format!("index:load:{term}"),
            stats,
            |_| FragmentSet::of_nodes(index.postings(term).iter().copied()),
        )
    } else {
        FragmentSet::of_nodes(index.postings(term).iter().copied())
    }
}

/// Every operand `Fi` of `query`, one `term-lookup:{term}` span each.
fn term_operands<I: PostingsSource + ?Sized>(
    index: &I,
    query: &Query,
    tracer: &Tracer<'_>,
) -> Vec<FragmentSet> {
    let mut stats = EvalStats::new();
    query
        .terms
        .iter()
        .map(|t| {
            tracer.scoped_lazy(
                || format!("term-lookup:{t}"),
                &mut stats,
                |stats| term_operand(index, t, tracer, stats),
            )
        })
        .collect()
}

fn empty_result() -> QueryResult {
    QueryResult {
        fragments: FragmentSet::new(),
        stats: EvalStats::new(),
        degradation: Degradation::none(),
    }
}

/// Unbudgeted evaluation over pre-built operand sets, shared by
/// [`evaluate`] and [`evaluate_scoped`]: the strategy dispatch under an
/// unlimited governor, then `select-top`.
fn evaluate_operands(
    doc: &Document,
    query: &Query,
    strategy: Strategy,
    operands: &[FragmentSet],
) -> Result<QueryResult, QueryError> {
    if query.terms.is_empty() {
        return Err(QueryError::NoTerms);
    }
    // Conjunctive semantics: a term with no occurrences empties the answer.
    if operands.iter().any(FragmentSet::is_empty) {
        return Ok(empty_result());
    }
    if strategy == Strategy::BruteForce {
        PowersetTooLarge::check(operands)?;
    }
    let gov = Governor::unlimited();
    let tracer = Tracer::disabled();
    let cx = ExecCtx::new(doc, &gov, &tracer);
    let mut stats = EvalStats::new();
    let raw = match strategy_raw(&cx, query, strategy, operands, &mut stats) {
        Ok(raw) => raw,
        // invariant: an unlimited governor cannot breach, and brute
        // force's operand sizes were checked above.
        Err(_) => unreachable!("unlimited governor breached"),
    };
    let fragments = select_top(&cx, query, &raw, &mut stats);
    Ok(QueryResult {
        fragments,
        stats,
        degradation: Degradation::none(),
    })
}

/// The degradation ladder of [`evaluate_budgeted`] over non-empty
/// operand sets.
fn run_ladder(
    cx: &ExecCtx<'_>,
    query: &Query,
    strategy: Strategy,
    operands: &[FragmentSet],
    policy: &ExecPolicy,
) -> Result<QueryResult, QueryError> {
    let gov = cx.gov;
    let mut stats = EvalStats::new();
    // Fault-injection point: an armed `query:eval` site can panic, stall,
    // or cancel this evaluation before any rung runs.
    if gov.fault_point(crate::fault::site::QUERY_EVAL).is_err() {
        return Err(QueryError::Cancelled);
    }
    // The `full` rung: the requested strategy, governed.
    let attempt = cx.tracer.scoped("rung:full", &mut stats, |stats| {
        strategy_raw(cx, query, strategy, operands, stats)
    });
    // A breached counter stays past its limit (a passed deadline stays
    // passed), so any further plan that joins would trip at its first
    // charge or checkpoint: the ungoverned SLCA approximation answers
    // instead.
    let (raw, breach) = match attempt {
        Ok(raw) => (raw, None),
        Err(Breach::Cancelled) => return Err(QueryError::Cancelled),
        Err(breach) if policy.degrade == DegradeMode::Off => {
            return Err(QueryError::BudgetExceeded(breach))
        }
        Err(breach) => {
            let raw = cx.tracer.scoped("rung:slca-approx", &mut stats, |stats| {
                slca_approximation(cx.doc, operands, stats)
            });
            (raw, Some(breach))
        }
    };

    let fragments = select_top(cx, query, &raw, &mut stats);

    stats.budget_checkpoints = gov.checkpoints_passed();
    let degradation = match breach {
        None => Degradation::none(),
        Some(breach) => Degradation {
            breach: Some(breach),
            joins_spent: gov.joins_spent(),
            fragments_spent: gov.fragments_spent(),
            nodes_spent: gov.nodes_spent(),
            elapsed: gov.elapsed(),
        },
    };
    Ok(QueryResult {
        fragments,
        stats,
        degradation,
    })
}

/// The strategy dispatch — the one copy, run by [`evaluate`] and by the
/// ladder's `full` rung: compute the raw (pre-selection) set for the
/// requested strategy, charging `cx.gov` and recording spans throughout.
fn strategy_raw(
    cx: &ExecCtx<'_>,
    query: &Query,
    strategy: Strategy,
    operands: &[FragmentSet],
    stats: &mut EvalStats,
) -> Result<FragmentSet, Breach> {
    let mode = match strategy {
        Strategy::BruteForce => {
            return cx.tracer.scoped("brute-force", stats, |stats| {
                brute_force(cx, operands, stats)
            })
        }
        Strategy::PushDown => return push_down(cx, query, operands, stats),
        Strategy::FixedPointNaive => FixpointMode::Naive,
        Strategy::FixedPointReduced => FixpointMode::Reduced,
    };
    let fps: Vec<FragmentSet> = operands
        .iter()
        .map(|f| cx.fixed_point(f, mode, stats))
        .collect::<Result<_, _>>()?;
    join_fold(cx, fps, stats)
}

/// §4.3 push-down: each operand's §3.3 filtered fixed point under a
/// `push-down-operand` span, folded by pairwise joins with the
/// anti-monotonic part of the filter applied after every join.
fn push_down(
    cx: &ExecCtx<'_>,
    query: &Query,
    operands: &[FragmentSet],
    stats: &mut EvalStats,
) -> Result<FragmentSet, Breach> {
    let (anti, _rest) = query.filter.split_anti_monotonic();
    let mut acc: Option<FragmentSet> = None;
    for f in operands {
        cx.gov.checkpoint()?;
        let fp = cx.tracer.scoped("push-down-operand", stats, |stats| {
            cx.filtered_fixed_point(f, &anti, stats)
        })?;
        acc = Some(match acc {
            None => fp,
            Some(prev) => {
                let joined = cx.tracer.scoped("pairwise-join", stats, |stats| {
                    cx.pairwise_join(&prev, &fp, stats)
                })?;
                select(cx.doc, &anti, &joined, stats)
            }
        });
    }
    // invariant: operands are non-empty (term-less queries are rejected
    // before dispatch), so the loop assigned Some.
    Ok(acc.expect("at least one operand"))
}

/// Top-level selection `σ_P` plus strict leaf semantics, as one
/// `select-top` span. For push-down this re-checks the anti-monotonic
/// part (already guaranteed) and applies the residual.
fn select_top(
    cx: &ExecCtx<'_>,
    query: &Query,
    raw: &FragmentSet,
    stats: &mut EvalStats,
) -> FragmentSet {
    let doc = cx.doc;
    cx.tracer.scoped("select-top", stats, |stats| {
        let mut fragments = select(doc, &query.filter, raw, stats);
        if query.strict_leaf_semantics {
            let strict =
                FilterExpr::and(query.terms.iter().map(|t| FilterExpr::LeafTerm(t.clone())));
            fragments = select(doc, &strict, &fragments, stats);
        }
        fragments
    })
}

/// §4.1 brute force: enumerate every choice of non-empty subsets, one per
/// operand, and join each union. An over-large operand reports
/// [`Breach::PowersetLimit`], so the ladder answers from `slca-approx`.
fn brute_force(
    cx: &ExecCtx<'_>,
    operands: &[FragmentSet],
    stats: &mut EvalStats,
) -> Result<FragmentSet, Breach> {
    PowersetTooLarge::check(operands).map_err(|_| Breach::PowersetLimit)?;
    let slices: Vec<Vec<&crate::fragment::Fragment>> =
        operands.iter().map(|s| s.iter().collect()).collect();
    let mut out = FragmentSet::new();
    // Odometer over non-empty subset masks of each operand.
    let mut masks: Vec<u32> = vec![1; slices.len()];
    loop {
        let chosen = slices.iter().zip(&masks).flat_map(|(fs, &m)| {
            fs.iter()
                .enumerate()
                .filter(move |(i, _)| m & (1 << i) != 0)
                .map(|(_, f)| *f)
        });
        let joins_before = stats.joins;
        // invariant: every odometer mask is at least 1, so at least one
        // fragment is always chosen.
        let joined = fragment_join_many(cx.doc, chosen, stats).expect("non-empty choice");
        // One charge per binary kernel of the union (`n − 1`, as `stats`
        // counts them, and at least one), so `max_joins` bounds brute
        // force's work the way it bounds the fixed points'.
        cx.gov.charge_join(joined.size() as u64)?;
        for _ in 1..stats.joins - joins_before {
            cx.gov.charge_join(0)?;
        }
        cx.gov.charge_fragments(1)?;
        stats.fragments_emitted += 1;
        if !out.insert(joined) {
            stats.duplicates_collapsed += 1;
        }
        // Advance the odometer.
        let mut i = 0;
        loop {
            if i == masks.len() {
                return Ok(out);
            }
            masks[i] += 1;
            if masks[i] < (1u32 << slices[i].len()) {
                break;
            }
            masks[i] = 1;
            i += 1;
        }
    }
}

/// Governed left-to-right pairwise fold of operand fixed points, recorded
/// as one `join-fold` span with a `pairwise-join` child per step.
fn join_fold(
    cx: &ExecCtx<'_>,
    fps: Vec<FragmentSet>,
    stats: &mut EvalStats,
) -> Result<FragmentSet, Breach> {
    cx.tracer.scoped("join-fold", stats, |stats| {
        let mut it = fps.into_iter();
        // invariant: callers pass one set per query term and reject
        // term-less queries before reaching this fold.
        let mut acc = it.next().expect("at least one operand");
        for fp in it {
            cx.gov.checkpoint()?;
            acc = cx.tracer.scoped("pairwise-join", stats, |stats| {
                cx.pairwise_join(&acc, &fp, stats)
            })?;
        }
        Ok(acc)
    })
}

/// The ladder's `slca-approx` rung: an SLCA-style approximation computed directly
/// over the operand sets, linear in document size.
///
/// One bottom-up mask pass (operand `i` marks bit `i` at the root of each
/// of its fragments) finds the smallest-LCA nodes — nodes whose subtree
/// contains a fragment root from *every* operand while no child's subtree
/// does. For each such node, the first fragment of each operand rooted in
/// its subtree is joined with [`fragment_join_many`]. Every output is the
/// join of exactly one fragment per operand — a powerset-join candidate —
/// so the result is a subset of the exact raw set.
///
/// More than 64 operands exceed the mask width; the approximation then
/// returns the empty set, which is trivially sound.
fn slca_approximation(
    doc: &Document,
    operands: &[FragmentSet],
    stats: &mut EvalStats,
) -> FragmentSet {
    let m = operands.len();
    if m == 0 || m > 64 {
        return FragmentSet::new();
    }
    let full: u64 = if m == 64 { u64::MAX } else { (1 << m) - 1 };
    let n = doc.len();
    let mut sub = vec![0u64; n];
    for (bit, set) in operands.iter().enumerate() {
        for f in set.iter() {
            sub[f.root().index()] |= 1 << bit;
        }
    }
    // Reverse pre-order: children precede parents when walking ids
    // backwards, so one pass accumulates subtree masks.
    for i in (1..n).rev() {
        // invariant: i > 0, and every non-root node has a parent.
        let p = doc
            .parent(xfrag_doc::NodeId(i as u32))
            .expect("non-root")
            .index();
        sub[p] |= sub[i];
    }
    if sub[doc.root().index()] != full {
        return FragmentSet::new();
    }
    let mut out = FragmentSet::new();
    for v in doc.node_ids() {
        if sub[v.index()] != full || doc.children(v).iter().any(|c| sub[c.index()] == full) {
            continue;
        }
        let lo = v.0;
        let hi = v.0 + doc.subtree_size(v);
        let picks = operands.iter().filter_map(|set| {
            set.iter().find(|f| {
                let r = f.root().0;
                r >= lo && r < hi
            })
        });
        if let Some(joined) = fragment_join_many(doc, picks, stats) {
            stats.fragments_emitted += 1;
            if !out.insert(joined) {
                stats.duplicates_collapsed += 1;
            }
        }
    }
    out
}

/// Hybrid structural + keyword evaluation — the integration the paper's
/// §6 attributes to Florescu et al. and Al-Khalifa et al.: a structural
/// path expression *scopes* the keyword query, and the algebra runs
/// inside each scope subtree independently. Returns `(scope, answers)`
/// pairs for the scopes that produced answers, in document order.
///
/// Scoping restricts the operand selections `Fi` to the scope's subtree,
/// so answer fragments are always contained in one scope — joins never
/// escape through the scope root's ancestors.
pub fn evaluate_scoped<I: PostingsSource + ?Sized>(
    doc: &Document,
    index: &I,
    query: &Query,
    scope_path: &str,
    strategy: Strategy,
) -> Result<Vec<(xfrag_doc::NodeId, QueryResult)>, ScopedQueryError> {
    let scopes = xfrag_doc::select_path(doc, scope_path).map_err(ScopedQueryError::Path)?;
    let mut out = Vec::new();
    for scope in scopes {
        // Restrict each operand's postings to the scope subtree; pre-order
        // spans make this a range filter on node ids.
        let lo = scope.0;
        let hi = scope.0 + doc.subtree_size(scope);
        let operands: Vec<FragmentSet> = query
            .terms
            .iter()
            .map(|t| {
                FragmentSet::of_nodes(
                    index
                        .postings(t)
                        .iter()
                        .copied()
                        .filter(|n| n.0 >= lo && n.0 < hi),
                )
            })
            .collect();
        let r =
            evaluate_operands(doc, query, strategy, &operands).map_err(ScopedQueryError::Query)?;
        if !r.fragments.is_empty() {
            out.push((scope, r));
        }
    }
    Ok(out)
}

/// Error type for [`evaluate_scoped`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScopedQueryError {
    /// The scope path failed to parse.
    Path(xfrag_doc::path::PathError),
    /// The inner keyword query failed.
    Query(QueryError),
}

impl std::fmt::Display for ScopedQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScopedQueryError::Path(e) => write!(f, "{e}"),
            ScopedQueryError::Query(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScopedQueryError {}

/// The §4.2-style diagnostic of how much each operand set would shrink
/// under `⊖`: `(term, |F|, |⊖(F)|)` per query term, as `explain` prints
/// it. `⊖` is O(|F|³), so each operand's reduction runs governed under
/// its own governor built from `policy`, and an operand whose reduction
/// breaches reports the [`Breach`] in place of `|⊖(F)|`.
pub fn operand_reduction_factors<I: PostingsSource + ?Sized>(
    doc: &Document,
    index: &I,
    query: &Query,
    policy: &ExecPolicy,
) -> Vec<(String, usize, Result<usize, Breach>)> {
    let tracer = Tracer::disabled();
    let mut stats = EvalStats::new();
    query
        .terms
        .iter()
        .map(|t| {
            let f = FragmentSet::of_nodes(index.postings(t).iter().copied());
            let gov = policy.governor();
            let reduced = ExecCtx::new(doc, &gov, &tracer).reduce(&f, &mut stats);
            (t.clone(), f.len(), reduced.map(|r| r.len()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfrag_doc::{DocumentBuilder, InvertedIndex};

    /// article(0) -> sec(1){"alpha"} -> p(2){"alpha beta"}, p(3){"beta"};
    /// article -> sec(4) -> p(5){"alpha"}, p(6){"gamma"}
    fn doc() -> Document {
        let mut b = DocumentBuilder::new();
        b.begin("article");
        b.begin("sec");
        b.text("alpha");
        b.leaf("p", "alpha beta");
        b.leaf("p", "beta");
        b.end();
        b.begin("sec");
        b.leaf("p", "alpha");
        b.leaf("p", "gamma");
        b.end();
        b.end();
        b.finish().unwrap()
    }

    fn eval(q: &Query, s: Strategy) -> QueryResult {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        evaluate(&d, &idx, q, s).unwrap()
    }

    #[test]
    fn all_strategies_agree() {
        let q = Query::new(["alpha", "beta"], FilterExpr::MaxSize(3));
        let results: Vec<QueryResult> = Strategy::ALL.iter().map(|&s| eval(&q, s)).collect();
        for r in &results[1..] {
            assert_eq!(r.fragments, results[0].fragments);
        }
        assert!(!results[0].fragments.is_empty());
    }

    #[test]
    fn duplicate_terms_are_deduplicated() {
        // "alpha alpha beta" must behave exactly like "alpha beta": same
        // answer set AND same join work — before deduplication the repeat
        // operand multiplied every downstream join.
        let deduped = Query::new(["alpha", "beta"], FilterExpr::MaxSize(3));
        let dupes = Query::new(["alpha", "Alpha", "beta", "alpha"], FilterExpr::MaxSize(3));
        assert_eq!(dupes.terms, vec!["alpha".to_string(), "beta".to_string()]);
        for &s in &Strategy::ALL {
            let a = eval(&deduped, s);
            let b = eval(&dupes, s);
            assert_eq!(a.fragments, b.fragments, "{s:?}");
            assert_eq!(a.stats.joins, b.stats.joins, "{s:?}");
        }
    }

    #[test]
    fn conjunctive_semantics_unknown_term_empties() {
        let q = Query::new(["alpha", "zzz"], FilterExpr::True);
        for s in Strategy::ALL {
            assert!(eval(&q, s).fragments.is_empty(), "{}", s.name());
        }
    }

    #[test]
    fn no_terms_is_an_error() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        let q = Query::new(Vec::<&str>::new(), FilterExpr::True);
        assert_eq!(
            evaluate(&d, &idx, &q, Strategy::PushDown).unwrap_err(),
            QueryError::NoTerms
        );
        // Terms that normalize to nothing behave the same.
        let q = Query::parse("  ,. ", FilterExpr::True);
        assert_eq!(
            evaluate(&d, &idx, &q, Strategy::PushDown).unwrap_err(),
            QueryError::NoTerms
        );
    }

    #[test]
    fn single_term_query_is_operand_fixed_point() {
        // "beta" occurs at n2 and n3 (siblings under n1): answer should
        // contain ⟨n2⟩, ⟨n3⟩ and their join ⟨n1,n2,n3⟩.
        let q = Query::new(["beta"], FilterExpr::True);
        let r = eval(&q, Strategy::FixedPointNaive);
        assert_eq!(r.fragments.len(), 3);
        let q_filtered = Query::new(["beta"], FilterExpr::MaxSize(1));
        let r = eval(&q_filtered, Strategy::PushDown);
        assert_eq!(r.fragments.len(), 2);
    }

    #[test]
    fn three_term_query_consistency() {
        let q = Query::new(["alpha", "beta", "gamma"], FilterExpr::MaxSize(10));
        let results: Vec<QueryResult> = Strategy::ALL.iter().map(|&s| eval(&q, s)).collect();
        for r in &results[1..] {
            assert_eq!(r.fragments, results[0].fragments);
        }
        // gamma only at n6; any answer must span both sec subtrees → root n0.
        for f in results[0].fragments.iter() {
            assert!(f.contains_node(xfrag_doc::NodeId(0)));
        }
    }

    #[test]
    fn pushdown_does_less_join_work() {
        let q = Query::new(["alpha", "beta"], FilterExpr::MaxSize(2));
        let naive = eval(&q, Strategy::FixedPointNaive);
        let push = eval(&q, Strategy::PushDown);
        assert_eq!(naive.fragments, push.fragments);
        assert!(
            push.stats.joins <= naive.stats.joins,
            "push-down should not join more: {} vs {}",
            push.stats.joins,
            naive.stats.joins
        );
    }

    #[test]
    fn strict_leaf_semantics_prunes_internal_keyword_answers() {
        // Query {alpha, beta}: fragment ⟨n1,n3⟩ joins keyword node n1
        // (alpha, internal? no — n1 has child n3 in fragment; alpha is at
        // n1 which is internal) — strict mode must reject it, relaxed mode
        // keeps it.
        let relaxed = Query::new(["alpha", "beta"], FilterExpr::True);
        let strict = relaxed.clone().with_strict_leaf_semantics();
        let r_rel = eval(&relaxed, Strategy::FixedPointNaive);
        let r_str = eval(&strict, Strategy::FixedPointNaive);
        assert!(r_str.fragments.len() < r_rel.fragments.len());
        for f in r_str.fragments.iter() {
            // every term occurs at some fragment leaf
            for t in &strict.terms {
                assert!(FilterExpr::LeafTerm(t.clone()).eval_uncounted(&doc(), f));
            }
        }
    }

    #[test]
    fn strategy_parsing_and_names() {
        for s in Strategy::ALL {
            assert_eq!(s.name().parse::<Strategy>().unwrap(), s);
        }
        assert!("bogus".parse::<Strategy>().is_err());
    }

    #[test]
    fn scoped_hybrid_query() {
        // article(0) -> sec(1){alpha} -> p(2){alpha beta}, p(3){beta};
        // article -> sec(4) -> p(5){alpha}, p(6){gamma}
        let d = doc();
        let idx = InvertedIndex::build(&d);
        let q = Query::new(["alpha", "beta"], FilterExpr::MaxSize(3));
        // Scoped to each <sec>: only the first section answers, and no
        // fragment escapes its scope subtree.
        let scoped = evaluate_scoped(&d, &idx, &q, "/article/sec", Strategy::PushDown).unwrap();
        assert_eq!(scoped.len(), 1);
        let (scope, r) = &scoped[0];
        assert_eq!(*scope, xfrag_doc::NodeId(1));
        assert!(!r.fragments.is_empty());
        for f in r.fragments.iter() {
            for n in f.iter() {
                assert!(d.is_ancestor_or_self(*scope, n), "{f} escaped scope");
            }
        }
        // An unscoped query joins across sections; a scope forbids it.
        let q_cross = Query::new(["beta", "gamma"], FilterExpr::True);
        let unscoped = evaluate(&d, &idx, &q_cross, Strategy::PushDown).unwrap();
        assert!(!unscoped.fragments.is_empty());
        let scoped =
            evaluate_scoped(&d, &idx, &q_cross, "/article/sec", Strategy::PushDown).unwrap();
        assert!(
            scoped.is_empty(),
            "beta and gamma live in different sections"
        );
    }

    #[test]
    fn scoped_errors() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        let q = Query::new(["alpha"], FilterExpr::True);
        assert!(matches!(
            evaluate_scoped(&d, &idx, &q, "no-slash", Strategy::PushDown),
            Err(ScopedQueryError::Path(_))
        ));
        let empty = Query::new(Vec::<&str>::new(), FilterExpr::True);
        assert!(matches!(
            evaluate_scoped(&d, &idx, &empty, "//sec", Strategy::PushDown),
            Err(ScopedQueryError::Query(QueryError::NoTerms))
        ));
    }

    #[test]
    fn reduction_factors_reported() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        let q = Query::new(["alpha"], FilterExpr::True);
        let rfs = operand_reduction_factors(&d, &idx, &q, &ExecPolicy::unlimited());
        assert_eq!(rfs.len(), 1);
        let (term, a, b) = &rfs[0];
        assert_eq!(term, "alpha");
        // alpha at n1, n2, n5: n1 ⊆ n2 ⋈ n5 (path through n0? no —
        // path(n2,n5) = n2,n1,n0,n4,n5 ∋ n1) → n1 eliminated.
        assert_eq!(*a, 3);
        assert_eq!(*b, Ok(2));
        // Under a work bound `⊖` stops at its first charge past it and
        // names the breach instead of running on.
        let tight = ExecPolicy::with_budget(crate::Budget::unlimited().with_max_joins(0));
        let rfs = operand_reduction_factors(&d, &idx, &q, &tight);
        assert_eq!(rfs[0].2, Err(Breach::Joins));
    }
}
