//! The in-process replay: one query through the same public functions
//! `xfrag serve` calls, in the same per-document loop as
//! `core::collection`, timed call by call from outside and traced
//! through an aggregating [`TraceSink`]. It also serves as the reply
//! oracle (untraced, uncached).

use crate::corpus::Source;
use crate::wire::Answer;
use crate::workload::TIMEOUT_MS;
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};
use xfrag_core::collection::{top_k_collection, CollectionResult, DocAnswers};
use xfrag_core::rank::RankConfig;
use xfrag_core::snippet::{snippet, SnippetConfig};
use xfrag_core::{
    evaluate_decided_cached_traced, Budget, CacheRef, CacheStats, CancelToken, CostModel,
    DegradeMode, EvalStats, ExecPolicy, GenerationTag, Governor, PlanCache, Query, QueryCache,
    Span, Strategy, TraceSink, Tracer,
};
use xfrag_doc::{encode_segment, manifest, parse_str, store, Collection, DocId, SegmentIndex};

/// Which layer a span's self time belongs to.
#[derive(Clone, Copy)]
enum Layer {
    Postings,
    Join,
    Filter,
    /// Every other strategy span: ladder rungs, push-down operands,
    /// fixed points and their rounds, reduce.
    Fixpoint,
}

fn layer_of(stage: &str) -> Layer {
    match stage {
        s if s.starts_with("term-lookup:") || s.starts_with("index:load:") => Layer::Postings,
        "pairwise-join" | "powerset-join" | "join-fold" | "brute-force" | "parallel-join" => {
            Layer::Join
        }
        s if s.starts_with("worker-") => Layer::Join,
        "select-top" => Layer::Filter,
        _ => Layer::Fixpoint,
    }
}

/// Per-layer self times and counters over every folded span tree except
/// result-tier hits, whose replayed counters are not work done now and
/// whose time the replay books to the cache layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub postings: Duration,
    pub join: Duration,
    pub filter: Duration,
    pub fixpoint: Duration,
    pub work: EvalStats,
}

impl Agg {
    fn fold(&mut self, span: &Span) {
        let children: Duration = span.children.iter().map(|c| c.wall).sum();
        let own = span.wall.saturating_sub(children);
        match layer_of(&span.stage) {
            Layer::Postings => self.postings += own,
            Layer::Join => self.join += own,
            Layer::Filter => self.filter += own,
            Layer::Fixpoint => self.fixpoint += own,
        }
        for c in &span.children {
            self.fold(c);
        }
    }
}

/// A [`TraceSink`] that aggregates span trees into per-layer self times
/// and counters. Recording only keeps the tree; folding it into the
/// totals waits for [`AggSink::fold`], which the replay calls after a
/// request's timed region, so the bookkeeping never counts as tracing
/// overhead.
#[derive(Default)]
pub struct AggSink {
    pending: RefCell<Vec<Span>>,
    totals: RefCell<Agg>,
}

impl AggSink {
    /// Position of the next span to be recorded.
    fn mark(&self) -> usize {
        self.pending.borrow().len()
    }

    /// Whether the spans recorded since `mark` are a result-tier hit,
    /// and their wall time.
    fn since(&self, mark: usize) -> (bool, Duration) {
        let spans = self.pending.borrow();
        let new = &spans[mark..];
        let hit = new.iter().any(|s| s.stage == "cache:result-hit");
        (hit, new.iter().map(|s| s.wall).sum())
    }

    /// Fold every pending span tree into the totals.
    pub fn fold(&self) {
        let mut a = self.totals.borrow_mut();
        for span in self.pending.borrow_mut().drain(..) {
            if span.stage != "cache:result-hit" {
                a.work += span.stats_delta;
                a.fold(&span);
            }
        }
    }

    pub fn totals(&self) -> Agg {
        self.fold();
        *self.totals.borrow()
    }
}

impl TraceSink for AggSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, span: Span) {
        self.pending.borrow_mut().push(span);
    }
}

/// Per-call times and counts, accumulated over the replayed requests.
#[derive(Debug, Default)]
pub struct Timings {
    pub requests: u64,
    /// Whole requests, candidate selection through snippets.
    pub total: Duration,
    pub planner: Duration,
    /// `evaluate_decided_cached_traced` calls served from the result tier.
    pub eval_hit: Duration,
    /// The part of the other evaluate calls that their spans cover.
    pub eval_spans: Duration,
    pub rank: Duration,
    pub snippet: Duration,
    pub docs_evaluated: u64,
    pub docs_answering: u64,
    /// Posting lists decoded from segments on first use.
    pub terms_loaded: u64,
    pub plans_pushdown: u64,
    pub scored: u64,
    pub kept: u64,
}

impl Timings {
    /// Candidate selection, the per-document loop itself, and evaluate
    /// time outside every span (result-key build, cache probe and fill):
    /// what remains of `total` once the other layers are taken out.
    pub fn collection(&self) -> Duration {
        self.total
            .saturating_sub(self.planner + self.eval_hit + self.eval_spans)
            .saturating_sub(self.rank + self.snippet)
    }
}

/// The policy a serve worker evaluates under: the request's deadline as
/// a wall clock, a cancel token for the watchdog, ladder degradation.
/// Matching it matters: the cache keys and tier gates read it.
fn serve_policy() -> ExecPolicy {
    ExecPolicy::with_budget(Budget::unlimited().with_wall_clock(Duration::from_millis(TIMEOUT_MS)))
        .with_degrade(DegradeMode::Ladder)
        .with_cancel(CancelToken::new())
}

/// Load the newest committed generation in `dir` exactly as the server
/// does: documents sorted by display name, each `.xfrg` decoded and
/// paired with its `.xidx` segment. Also returns each document's
/// manifest checksum, which decides cache carry-over on reload.
pub fn load_generation(dir: &Path) -> Result<(Collection, HashMap<String, u64>), String> {
    let fail = |what: String| format!("{}: {what}", dir.display());
    let m = match manifest::load_generation(dir).map_err(|e| fail(e.to_string()))? {
        manifest::GenerationLoad::Committed { manifest, .. } => manifest,
        _ => return Err(fail("no committed generation".into())),
    };
    let mut segments = HashMap::new();
    let mut docs = Vec::new();
    let mut sums = HashMap::new();
    for e in &m.files {
        let (display, _) = manifest::split_generation_file(&e.name)
            .unwrap_or_else(|| (e.name.clone(), m.generation));
        if let Some(stem) = display.strip_suffix(".xidx") {
            segments.insert(stem.to_string(), dir.join(&e.name));
            continue;
        }
        sums.insert(display.clone(), e.checksum);
        docs.push((dir.join(&e.name), display));
    }
    docs.sort_by(|a, b| a.1.cmp(&b.1));
    let mut coll = Collection::new();
    for (path, display) in docs {
        let read = |p: &Path| std::fs::read(p).map_err(|e| fail(format!("{}: {e}", p.display())));
        let doc = store::decode(&read(&path)?).map_err(|e| fail(format!("{display}: {e}")))?;
        let seg_path = display
            .strip_suffix(".xfrg")
            .and_then(|stem| segments.get(stem))
            .ok_or_else(|| fail(format!("{display} has no index segment")))?;
        let seg = SegmentIndex::from_bytes(&read(seg_path)?)
            .map_err(|e| fail(format!("{display}: {e}")))?;
        if seg.doc_len() != doc.len() {
            return Err(fail(format!("{display}: segment does not match document")));
        }
        coll.add_with_segment(display, doc, seg);
    }
    Ok((coll, sums))
}

/// The collection `xfrag index` would commit from `sources`, built in
/// memory: the oracle's view of one corpus version.
pub fn collection_from(sources: &[Source]) -> Result<Collection, String> {
    let mut coll = Collection::new();
    for s in sources {
        let doc = parse_str(&s.xml).map_err(|e| format!("{}: {e}", s.stem))?;
        let seg = SegmentIndex::from_bytes(&encode_segment(&doc))
            .map_err(|e| format!("{}: {e}", s.stem))?;
        coll.add_with_segment(format!("{}.xfrg", s.stem), doc, seg);
    }
    Ok(coll)
}

/// One in-process serving unit: a generation, its cache arena and its
/// plan cache, like one serve replica.
pub struct Instance {
    coll: Collection,
    sums: HashMap<String, u64>,
    tag: GenerationTag,
    cache: Option<QueryCache>,
    plans: PlanCache,
    model: CostModel,
}

/// What one replayed query produced.
pub struct Replayed {
    pub answers: Vec<Answer>,
    /// Whether any document answered from a degraded ladder rung; the
    /// server would reply `degraded` instead of `ok`.
    pub degraded: bool,
}

impl Instance {
    /// `tag` keys the cache and plan cache. The server numbers its
    /// generations with the same process-local counter, so an instance
    /// whose tag is the process's first fresh tag hashes cache keys to
    /// the same lock shards as the server's first generation does.
    pub fn new(
        coll: Collection,
        sums: HashMap<String, u64>,
        tag: GenerationTag,
        cache_mb: Option<u64>,
    ) -> Instance {
        Instance {
            coll,
            sums,
            tag,
            cache: cache_mb.map(QueryCache::with_capacity_mb),
            plans: PlanCache::new(tag),
            model: CostModel::default(),
        }
    }

    pub fn open(dir: &Path, cache_mb: Option<u64>) -> Result<Instance, String> {
        let (coll, sums) = load_generation(dir)?;
        Ok(Instance::new(coll, sums, GenerationTag::fresh(), cache_mb))
    }

    pub fn tag(&self) -> GenerationTag {
        self.tag
    }

    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(QueryCache::stats)
    }

    /// Swap to the newest generation in `dir` the way the server's reload
    /// does: cache entries of documents whose manifest checksum did not
    /// change carry over, the rest are evicted.
    pub fn reload(&mut self, dir: &Path) -> Result<(), String> {
        let (coll, sums) = load_generation(dir)?;
        let tag = GenerationTag::fresh();
        if let Some(cache) = &self.cache {
            let old: HashMap<&str, u32> = self
                .coll
                .ids()
                .map(|id| (self.coll.name(id), id.0))
                .collect();
            let map: HashMap<u32, u32> = coll
                .ids()
                .filter_map(|id| {
                    let name = coll.name(id);
                    let same = matches!((sums.get(name), self.sums.get(name)), (Some(a), Some(b)) if a == b);
                    same.then(|| old.get(name).map(|&o| (o, id.0))).flatten()
                })
                .collect();
            cache.carry_over(self.tag, tag, &map);
        }
        (self.coll, self.sums, self.tag) = (coll, sums, tag);
        Ok(())
    }

    /// Answer `q` as a one-shard, one-replica server does, timing each
    /// layer into `t`. `sink` must be the sink behind `tracer` when the
    /// tracer is enabled; it tells result-tier hits from computed
    /// results.
    pub fn run(
        &self,
        q: &Query,
        tracer: &Tracer<'_>,
        sink: Option<&AggSink>,
        t: &mut Timings,
    ) -> Result<Replayed, String> {
        let start = Instant::now();
        let coll = &self.coll;
        let loaded = coll.index_terms_loaded();
        let policy = serve_policy();
        let total = policy.budget.wall_clock;
        let gov = Governor::new(policy.budget, policy.cancel.clone());
        let docs: Vec<DocId> = coll.ids().collect();
        let candidates: Vec<DocId> = coll
            .candidate_docs(&q.terms)
            .filter(|id| docs.contains(id))
            .collect();
        let mut answers = Vec::new();
        let mut stats = EvalStats::new();
        let mut degraded = false;
        for &id in &candidates {
            gov.checkpoint()
                .map_err(|b| format!("collection budget breached: {b}"))?;
            let mut per_doc = policy.clone();
            per_doc.budget.wall_clock = total.map(|w| w.saturating_sub(gov.elapsed()));
            let doc = coll.doc(id);
            let index = coll.index(id);
            let cache = self.cache.as_ref().map(|cache| CacheRef {
                cache,
                gen: self.tag,
                doc: id.0,
            });
            let t0 = Instant::now();
            let mut decision =
                self.plans
                    .get_or_plan(self.tag, id.0 as u64, doc, &index, q, &self.model);
            let t1 = Instant::now();
            let mark = sink.map(AggSink::mark);
            let r = evaluate_decided_cached_traced(
                doc,
                &index,
                q,
                &mut decision,
                &per_doc,
                tracer,
                cache,
            )
            .map_err(|e| format!("{}: {e}", coll.name(id)))?;
            let t2 = Instant::now();
            t.planner += t1 - t0;
            match sink.zip(mark).map(|(s, m)| s.since(m)) {
                Some((true, _)) => t.eval_hit += t2 - t1,
                Some((false, spans)) => t.eval_spans += spans,
                None => {}
            }
            t.plans_pushdown += u64::from(decision.picked == Strategy::PushDown);
            degraded |= r.degradation.is_degraded();
            stats += r.stats;
            if !r.fragments.is_empty() {
                answers.push(DocAnswers {
                    doc: id,
                    fragments: r.fragments.iter().cloned().collect(),
                });
            }
        }
        t.docs_evaluated += candidates.len() as u64;
        t.terms_loaded += coll.index_terms_loaded() - loaded;
        t.docs_answering += answers.len() as u64;

        let t3 = Instant::now();
        let ranked = CollectionResult {
            answers: answers.clone(),
            docs_pruned: docs.len() - candidates.len(),
            docs_failed: Vec::new(),
            stats,
        };
        let top = top_k_collection(coll, &ranked, q, &RankConfig::default(), 10);
        let t4 = Instant::now();
        let answers: Vec<Answer> = top
            .iter()
            .map(|(id, f, score)| Answer {
                doc: coll.name(*id).to_string(),
                score: *score,
                nodes: f.nodes().iter().map(|n| n.0).collect(),
                snippet: snippet(coll.doc(*id), f, &q.terms, &SnippetConfig::default()),
            })
            .collect();
        let end = Instant::now();
        t.rank += t4 - t3;
        t.snippet += end - t4;
        t.scored += ranked.total_fragments() as u64;
        t.kept += answers.len() as u64;
        t.total += end - start;
        t.requests += 1;
        if let Some(sink) = sink {
            sink.fold();
        }
        Ok(Replayed { answers, degraded })
    }
}
