//! Command implementations. Each returns the full output as a string so
//! the logic is unit-testable without capturing stdout.

use crate::args::{Command, ProfileMode, SearchArgs};
use crate::corpus::{load, load_corpus, sibling_segment};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use xfrag_core::collection::{evaluate_collection_traced, top_k_collection, CollectionResult};
use xfrag_core::rank::RankConfig;
use xfrag_core::snippet::{snippet, SnippetConfig};
use xfrag_core::trace::{
    format_duration, render_spans, spans_to_json, LatencyHistogram, RecordingSink, Span, Tracer,
};
use xfrag_core::{
    evaluate_traced, overlap, CacheRef, ExecPolicy, GenerationTag, LogicalPlan, Query, QueryCache,
    Strategy,
};
use xfrag_core::{FaultInjector, FaultPlan};
use xfrag_doc::atomic::{write_atomic, WriteFault, WriteFaultHook};
use xfrag_doc::manifest;
use xfrag_doc::serialize::{fragment_to_xml, WriteOptions};
use xfrag_doc::{
    encode_segment, segment_file_name, store, Collection, Document, InvertedIndex, PostingsSource,
    SegmentIndex,
};

/// Top-level error type for command execution.
#[derive(Debug)]
pub enum CliError {
    /// An I/O operation on the named path/address failed (read, write,
    /// or connect — the io::Error says which way it went).
    Io(String, std::io::Error),
    /// The input was not well-formed XML.
    Parse(xfrag_doc::ParseError),
    /// A binary .xfrg file was corrupted or unreadable.
    Store(store::StoreError),
    /// Query evaluation failed.
    Query(String),
    /// `xfrag request` exhausted its retry budget on retryable outcomes
    /// (shed/timeout replies, refused connections). Distinguished from
    /// permanent failures by exit code 3 so scripts can tell "try again
    /// later" from "this will never work".
    RetriesExhausted(String),
    /// `xfrag request` got a *partial* reply (`"complete":false`): some
    /// shards were dropped from the merge, so the answers cover only
    /// the surviving shards. The carried string is the full reply line
    /// (printed to stdout; exit code 4) — a partial success, distinct
    /// from shed/timeout (retryable) and from permanent failures.
    PartialResult(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Io(path, e) => write!(f, "cannot access {path}: {e}"),
            CliError::Parse(e) => write!(f, "{e}"),
            CliError::Store(e) => write!(f, "{e}"),
            CliError::Query(e) => write!(f, "{e}"),
            CliError::RetriesExhausted(e) => write!(f, "retries exhausted: {e}"),
            CliError::PartialResult(_) => write!(f, "partial reply: some shards were dropped"),
        }
    }
}

impl std::error::Error for CliError {}

/// Execute a parsed command.
pub fn run(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Search(a) => {
            let doc = load(&a.file)?;
            let seg = file_segment(&a.file, &doc);
            search_with(&doc, seg.as_ref(), &a)
        }
        Command::MultiSearch(a) => {
            let corpus = load_corpus(&a.file, None, true)?;
            multi_search(&corpus.coll, &a)
        }
        Command::Compile {
            input,
            output,
            inject,
        } => {
            let doc = load(&input)?;
            let bytes = store::encode(&doc);
            let hook = write_hook(inject.as_deref())?;
            write_atomic(Path::new(&output), &bytes, hook_ref(&hook))
                .map_err(|e| CliError::Io(output.clone(), e))?;
            Ok(format!(
                "compiled {input} ({} nodes) -> {output} ({} bytes)\n",
                doc.len(),
                bytes.len()
            ))
        }
        Command::Index {
            src,
            out,
            delta,
            inject,
        } => {
            if delta {
                delta_index(&src, &out, inject.as_deref())
            } else {
                index_corpus(&src, &out, inject.as_deref())
            }
        }
        Command::Compact { dir, inject } => compact_corpus(&dir, inject.as_deref()),
        Command::Explain(a) => {
            let doc = load(&a.file)?;
            let seg = file_segment(&a.file, &doc);
            explain_with(&doc, seg.as_ref(), &a)
        }
        Command::Info { file } => {
            let doc = load(&file)?;
            Ok(info(&doc))
        }
        Command::Serve(a) => crate::serve::serve(&a),
        Command::Request {
            addr,
            json,
            retries,
            backoff_ms,
            retry_partial,
            retry_budget_ms,
        } => crate::serve::request_with_retry(
            &addr,
            &json,
            retries,
            backoff_ms,
            retry_partial,
            retry_budget_ms,
        ),
        Command::Demo => Ok(demo()),
    }
}

/// Adapts the CLI's [`FaultInjector`] onto the `doc` crate's minimal
/// write-path hook. A newtype because the orphan rule forbids
/// implementing `doc`'s trait on `core`'s foreign type directly; it also
/// keeps `doc` free of any dependency on the fault machinery.
struct InjectorWriteHook(Arc<FaultInjector>);

impl WriteFaultHook for InjectorWriteHook {
    fn check(&self, at: &str) -> Option<WriteFault> {
        use xfrag_core::fault::{FaultAction, PANIC_MARKER};
        match self.0.check(at)? {
            FaultAction::Panic => panic!("{PANIC_MARKER}: injected panic at {at}"),
            FaultAction::Abort => std::process::abort(),
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                None
            }
            FaultAction::Cancel | FaultAction::ReadError => Some(WriteFault::Error),
            FaultAction::Torn(n) => Some(WriteFault::Torn(n)),
        }
    }
}

/// Build the write-path fault hook from a `--inject` spec.
fn write_hook(spec: Option<&str>) -> Result<Option<InjectorWriteHook>, CliError> {
    match spec {
        None => Ok(None),
        Some(s) => {
            let plan = FaultPlan::parse(s).map_err(CliError::Query)?;
            Ok(Some(InjectorWriteHook(plan.build())))
        }
    }
}

/// The trait-object view `write_atomic` wants.
fn hook_ref(hook: &Option<InjectorWriteHook>) -> Option<&dyn WriteFaultHook> {
    hook.as_ref().map(|h| h as &dyn WriteFaultHook)
}

/// Write one data file of a generation atomically as `dir/name` and
/// return its manifest entry.
fn write_entry(
    dir: &Path,
    name: String,
    bytes: &[u8],
    hook: &Option<InjectorWriteHook>,
) -> Result<manifest::ManifestEntry, CliError> {
    write_atomic(&dir.join(&name), bytes, hook_ref(hook))
        .map_err(|e| CliError::Io(name.clone(), e))?;
    Ok(manifest::ManifestEntry::for_bytes(name, bytes))
}

/// Commit a generation whose data files are written: its manifest is
/// the commit point. Then prune every generation older than
/// `keep_from` that no kept manifest still references (`None`: nothing
/// is older). Returns how many files were pruned.
fn commit(
    dir: &str,
    m: &manifest::Manifest,
    keep_from: Option<u64>,
    hook: &Option<InjectorWriteHook>,
) -> Result<usize, CliError> {
    let dirp = Path::new(dir);
    manifest::write_manifest(dirp, m, hook_ref(hook))
        .map_err(|e| CliError::Io(dir.to_string(), e))?;
    match keep_from {
        Some(g) => manifest::prune_generations(dirp, g)
            .map(|pruned| pruned.len())
            .map_err(|e| CliError::Io(dir.to_string(), e)),
        None => Ok(0),
    }
}

/// `xfrag index <src-dir> <corpus-dir>`: compile every `.xml` in the
/// source directory into the corpus directory as one new
/// manifest-committed generation. Each document commits as a pair: the
/// `.xfrg` tree and a `.xidx` inverted-index segment (postings +
/// prefix labels), both checksummed in the manifest so the
/// cold query path runs off persistent postings. Ordering is the
/// crash-safety story: every data file is written atomically under its
/// generation-unique name first, and the manifest — the commit point —
/// last, so a crash anywhere leaves the previous generation untouched
/// and loadable. Generations older than the previous one are pruned
/// after the commit.
fn index_corpus(src: &str, out: &str, inject: Option<&str>) -> Result<String, CliError> {
    let hook = write_hook(inject)?;
    let paths = xml_sources(src)?;
    std::fs::create_dir_all(out).map_err(|e| CliError::Io(out.to_string(), e))?;
    let outp = Path::new(out);
    let generation =
        manifest::latest_generation_number(outp).map_err(|e| CliError::Io(out.to_string(), e))? + 1;
    let mut files = Vec::new();
    let mut segments = 0usize;
    for p in &paths {
        let doc = load(&p.to_string_lossy())?;
        let stem = p
            .file_stem()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        let name = manifest::generation_file_name(&stem, generation);
        files.push(write_entry(outp, name, &store::encode(&doc), &hook)?);
        let seg_name = segment_file_name(&stem, generation);
        files.push(write_entry(outp, seg_name, &encode_segment(&doc), &hook)?);
        segments += 1;
    }
    let m = manifest::Manifest {
        generation,
        parent: None,
        files,
    };
    // Keep the current and previous generations (the previous is the
    // rollback target); everything older is garbage.
    let pruned = commit(out, &m, (generation >= 2).then(|| generation - 1), &hook)?;
    Ok(format!(
        "committed generation {generation}: {} document(s) + {segments} index segment(s) \
         -> {out} ({pruned} old file(s) pruned)\n",
        paths.len(),
    ))
}

/// The sorted `.xml` paths of a source directory.
fn xml_sources(src: &str) -> Result<Vec<std::path::PathBuf>, CliError> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(src)
        .map_err(|e| CliError::Io(src.to_string(), e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("xml"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(CliError::Query(format!("no .xml files in {src}")));
    }
    Ok(paths)
}

/// The logical display name a manifest entry serves under:
/// `a.g000002.xfrg` → `a.xfrg`.
fn logical_name(entry_name: &str) -> String {
    manifest::split_generation_file(entry_name)
        .map(|(logical, _)| logical)
        .unwrap_or_else(|| entry_name.to_string())
}

/// `xfrag index --delta <src-dir> <corpus-dir>`: diff the source tree
/// against the latest verified generation (by encoded length + checksum
/// from its manifest) and commit a *delta* generation — only added or
/// changed documents are rewritten; unchanged ones are referenced under
/// their parent generation's file names. Same commit discipline as a
/// full index: data files first (atomic), manifest last.
fn delta_index(src: &str, out: &str, inject: Option<&str>) -> Result<String, CliError> {
    let hook = write_hook(inject)?;
    let paths = xml_sources(src)?;
    let outp = Path::new(out);
    let parent = match manifest::load_generation(outp) {
        Ok(manifest::GenerationLoad::Committed { manifest, .. }) => manifest,
        Ok(_) => {
            return Err(CliError::Query(format!(
                "no committed generation in {out} to delta against; run a full index first"
            )))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(CliError::Query(format!(
                "no committed generation in {out} to delta against; run a full index first"
            )))
        }
        Err(e) => return Err(CliError::Io(out.to_string(), e)),
    };
    let parent_by_logical: std::collections::HashMap<String, &manifest::ManifestEntry> = parent
        .files
        .iter()
        .map(|e| (logical_name(&e.name), e))
        .collect();
    let generation =
        manifest::latest_generation_number(outp).map_err(|e| CliError::Io(out.to_string(), e))? + 1;
    let mut files = Vec::new();
    let mut src_logicals = std::collections::HashSet::new();
    let (mut carried, mut rewritten) = (0usize, 0usize);
    for p in &paths {
        let doc = load(&p.to_string_lossy())?;
        let stem = p
            .file_stem()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        src_logicals.insert(format!("{stem}.xfrg"));
        src_logicals.insert(format!("{stem}.xidx"));
        // A fresh `.xidx` segment for this document, written only when
        // the parent's can't be carried (doc changed, or a legacy parent
        // generation never had one).
        let write_segment = || {
            write_entry(
                outp,
                segment_file_name(&stem, generation),
                &encode_segment(&doc),
                &hook,
            )
        };
        let bytes = store::encode(&doc);
        match parent_by_logical.get(&format!("{stem}.xfrg")) {
            Some(e) if e.len == bytes.len() as u64 && e.checksum == manifest::checksum(&bytes) => {
                // Unchanged: reference the parent generation's files —
                // the document *and* its index segment (byte-identical
                // document bytes imply an identical segment).
                files.push((*e).clone());
                files.push(match parent_by_logical.get(&format!("{stem}.xidx")) {
                    Some(seg) => (*seg).clone(),
                    None => write_segment()?,
                });
                carried += 1;
            }
            _ => {
                let name = manifest::generation_file_name(&stem, generation);
                files.push(write_entry(outp, name, &bytes, &hook)?);
                files.push(write_segment()?);
                rewritten += 1;
            }
        }
    }
    // Removed *documents* only — a parent `.xidx` entry disappears with
    // its document and is not a removal of its own.
    let removed = parent
        .files
        .iter()
        .filter(|e| {
            let logical = logical_name(&e.name);
            logical.ends_with(".xfrg") && !src_logicals.contains(&logical)
        })
        .count();
    let m = manifest::Manifest {
        generation,
        parent: Some(parent.generation),
        files,
    };
    // Keep the parent (the rollback target); parent-chain retention in
    // prune_generations keeps everything the delta still references.
    let pruned = commit(out, &m, Some(parent.generation), &hook)?;
    Ok(format!(
        "committed delta generation {generation} (parent {}): {carried} carried, \
         {rewritten} rewritten, {removed} removed -> {out} ({pruned} old file(s) pruned)\n",
        parent.generation,
    ))
}

/// `xfrag compact <corpus-dir>`: materialize the latest verified
/// generation — typically the top of a delta chain — as a new *full*
/// generation (every document rewritten under the new generation's
/// names, `parent: None`), bounding chain depth. The old chain survives
/// as the rollback target until the next commit prunes it.
fn compact_corpus(dir: &str, inject: Option<&str>) -> Result<String, CliError> {
    let hook = write_hook(inject)?;
    let dirp = Path::new(dir);
    let current =
        match manifest::load_generation(dirp).map_err(|e| CliError::Io(dir.to_string(), e))? {
            manifest::GenerationLoad::Committed { manifest, .. } => manifest,
            _ => {
                return Err(CliError::Query(format!(
                    "no committed generation in {dir} to compact"
                )))
            }
        };
    let generation =
        manifest::latest_generation_number(dirp).map_err(|e| CliError::Io(dir.to_string(), e))? + 1;
    let mut entries = current.files.clone();
    entries.sort_by_key(|e| logical_name(&e.name));
    let mut files = Vec::new();
    let (mut count, mut segments) = (0usize, 0usize);
    for e in &entries {
        let bytes =
            std::fs::read(dirp.join(&e.name)).map_err(|err| CliError::Io(e.name.clone(), err))?;
        let logical = logical_name(&e.name);
        // `.xidx` index segments keep their kind across compaction; both
        // kinds are renamed under the new generation's infix.
        let name = match logical.strip_suffix(".xidx") {
            Some(stem) => {
                segments += 1;
                segment_file_name(stem, generation)
            }
            None => {
                count += 1;
                let stem = logical.strip_suffix(".xfrg").unwrap_or(&logical);
                manifest::generation_file_name(stem, generation)
            }
        };
        files.push(write_entry(dirp, name, &bytes, &hook)?);
    }
    let m = manifest::Manifest {
        generation,
        parent: None,
        files,
    };
    let pruned = commit(dir, &m, Some(current.generation), &hook)?;
    Ok(format!(
        "compacted generation {} -> {generation}: {count} document(s) + {segments} \
         index segment(s) ({pruned} old file(s) pruned)\n",
        current.generation,
    ))
}

/// A one-shot CLI cache: `--cache-mb N` builds the cache and a fresh
/// generation tag, runs one untraced cold pass to fill it, and lets the
/// reported (warm) pass hit — so `--profile` spans and `--stats` show
/// real hit counters from a single invocation.
fn cli_cache(a: &SearchArgs) -> Option<(QueryCache, GenerationTag)> {
    a.cache_mb
        .map(|mb| (QueryCache::with_capacity_mb(mb), GenerationTag::fresh()))
}

/// `xfrag msearch`.
pub fn multi_search(coll: &Collection, a: &SearchArgs) -> Result<String, CliError> {
    let q = build_query(a);
    let sink = RecordingSink::new();
    let tracer = if a.profile.is_on() {
        Tracer::new(&sink)
    } else {
        Tracer::disabled()
    };
    let cache = cli_cache(a);
    let cache_arg = cache.as_ref().map(|(c, g)| (c, *g));
    let all: Vec<xfrag_doc::DocId> = coll.ids().collect();
    if cache_arg.is_some() {
        // Cold fill pass; the reported pass below runs warm.
        evaluate_collection_traced(
            coll,
            &q,
            a.strategy,
            &exec_policy(a),
            &Tracer::disabled(),
            cache_arg,
            &all,
        )
        .map_err(|e| CliError::Query(e.to_string()))?;
    }
    let r = evaluate_collection_traced(
        coll,
        &q,
        a.strategy,
        &exec_policy(a),
        &tracer,
        cache_arg,
        &all,
    )
    .map_err(|e| CliError::Query(e.to_string()))?;
    let mut out = String::new();
    writeln!(
        out,
        "{} fragment(s) in {} of {} document(s) ({} pruned) for {:?}",
        r.total_fragments(),
        r.answers.len(),
        coll.len(),
        r.docs_pruned,
        a.keywords
    )
    .unwrap();
    if r.docs_skipped > 0 {
        writeln!(
            out,
            "note: collection budget exhausted — {} candidate document(s) skipped",
            r.docs_skipped
        )
        .unwrap();
    }
    for (id, d) in &r.degraded_docs {
        writeln!(out, "note: {} {}", coll.name(*id), d).unwrap();
    }
    for (id, msg) in &r.docs_failed {
        writeln!(
            out,
            "note: {} failed (panic isolated): {}",
            coll.name(*id),
            msg.lines().next().unwrap_or("")
        )
        .unwrap();
    }
    // Ranking operates on the (possibly partial) answers.
    let ranked = CollectionResult {
        answers: r.answers.clone(),
        docs_pruned: r.docs_pruned,
        docs_failed: r.docs_failed.clone(),
        stats: r.stats,
    };
    let top = top_k_collection(coll, &ranked, &q, &RankConfig::default(), 10);
    for (i, (doc_id, f, score)) in top.iter().enumerate() {
        if a.ids {
            writeln!(out, "[{}] {} {:.3} {}", i + 1, coll.name(*doc_id), score, f).unwrap();
        } else {
            let snip = snippet(coll.doc(*doc_id), f, &q.terms, &SnippetConfig::default());
            writeln!(
                out,
                "--- answer {} from {} (score {:.3}, {} nodes)\n    {}",
                i + 1,
                coll.name(*doc_id),
                score,
                f.size(),
                snip
            )
            .unwrap();
        }
    }
    if a.stats {
        writeln!(out, "stats: {}", r.stats).unwrap();
        if coll.segment_count() > 0 {
            writeln!(
                out,
                "index: segments={} bytes={} terms_loaded={}",
                coll.segment_count(),
                coll.index_bytes(),
                coll.index_terms_loaded()
            )
            .unwrap();
        }
        if let Some((c, _)) = &cache {
            writeln!(
                out,
                "cache: {}",
                serde_json::to_string(&c.stats()).expect("cache stats serialize")
            )
            .unwrap();
        }
    }
    if a.profile.is_on() {
        let spans = sink.take();
        out.push_str(&profile_block(a.profile, &spans));
        if a.profile == ProfileMode::Text {
            // Collection-level latency aggregation over the per-document
            // spans (one `doc:{name}` top-level span per candidate).
            let hist =
                LatencyHistogram::from_spans(spans.iter().filter(|s| s.stage.starts_with("doc:")));
            if !hist.is_empty() {
                for line in hist.render().lines() {
                    out.push_str("  ");
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
    }
    Ok(out)
}

fn build_query(a: &SearchArgs) -> Query {
    let mut q = Query::new(a.keywords.iter(), a.filter.clone());
    if a.strict {
        q = q.with_strict_leaf_semantics();
    }
    q
}

fn exec_policy(a: &SearchArgs) -> ExecPolicy {
    ExecPolicy::with_budget(a.budget).with_degrade(a.degrade)
}

/// Render recorded spans per the `--profile` mode: a `profile:` header
/// with the indented span tree (text) or one JSON line (json).
fn profile_block(mode: ProfileMode, spans: &[Span]) -> String {
    match mode {
        ProfileMode::Off => String::new(),
        ProfileMode::Text => {
            let mut out = String::from("profile:\n");
            for line in render_spans(spans).lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
            out
        }
        ProfileMode::Json => format!("profile: {}\n", spans_to_json(spans)),
    }
}

/// Probe the single-file commands' `.xidx` sibling; an unusable
/// segment warns and falls back to an in-memory index, never fails the
/// command.
fn file_segment(file: &str, doc: &Document) -> Option<SegmentIndex> {
    match sibling_segment(Path::new(file), doc) {
        Ok(seg) => seg,
        Err(why) => {
            eprintln!("warning: ignoring index segment ({why}); using the in-memory index");
            None
        }
    }
}

/// One-line provenance for `--stats`: how big the persistent segment
/// is and how much of its vocabulary the query actually materialized.
fn segment_stats_line(seg: &SegmentIndex) -> String {
    format!(
        "index: segment bytes={} terms={} terms_loaded={}",
        seg.bytes_len(),
        seg.term_count(),
        seg.terms_loaded()
    )
}

/// `xfrag search`.
pub fn search(doc: &Document, a: &SearchArgs) -> Result<String, CliError> {
    search_with(doc, None, a)
}

/// `xfrag search`, segment-backed when a usable `.xidx` sibling was
/// found: postings stream lazily.
pub fn search_with(
    doc: &Document,
    seg: Option<&SegmentIndex>,
    a: &SearchArgs,
) -> Result<String, CliError> {
    match seg {
        Some(seg) => search_impl(doc, seg, Some(seg), a),
        None => search_impl(doc, &InvertedIndex::build(doc), None, a),
    }
}

fn search_impl<I: PostingsSource + ?Sized>(
    doc: &Document,
    index: &I,
    seg: Option<&SegmentIndex>,
    a: &SearchArgs,
) -> Result<String, CliError> {
    let q = build_query(a);
    let sink = RecordingSink::new();
    let tracer = if a.profile.is_on() {
        Tracer::new(&sink)
    } else {
        Tracer::disabled()
    };
    let cache = cli_cache(a);
    let cache_ref = cache.as_ref().map(|(c, g)| CacheRef {
        cache: c,
        gen: *g,
        doc: 0,
    });
    let policy = exec_policy(a);
    if let Some(cref) = cache_ref {
        // Cold fill pass; the reported pass below runs warm.
        evaluate_traced(
            doc,
            index,
            &q,
            a.strategy,
            &policy,
            &Tracer::disabled(),
            Some(cref),
        )
        .map_err(|e| CliError::Query(e.to_string()))?;
    }
    let result = evaluate_traced(doc, index, &q, a.strategy, &policy, &tracer, cache_ref)
        .map_err(|e| CliError::Query(e.to_string()))?;
    let answers = if a.maximal {
        overlap::maximal_only(&result.fragments)
    } else {
        result.fragments.clone()
    };

    let mut out = String::new();
    writeln!(
        out,
        "{} fragment(s) for {:?} [{}]",
        answers.len(),
        a.keywords,
        a.strategy.name(),
    )
    .unwrap();
    if result.degradation.is_degraded() {
        writeln!(out, "note: {}", result.degradation).unwrap();
    }
    for (i, f) in answers.iter().enumerate() {
        if a.ids {
            writeln!(out, "[{}] {}", i + 1, f).unwrap();
        } else {
            writeln!(
                out,
                "--- answer {} (root {}, {} nodes)",
                i + 1,
                f.root(),
                f.size()
            )
            .unwrap();
            writeln!(
                out,
                "{}",
                fragment_to_xml(doc, f.nodes(), WriteOptions::default())
            )
            .unwrap();
        }
    }
    if a.stats {
        writeln!(out, "stats: {}", result.stats).unwrap();
        if let Some(seg) = seg {
            writeln!(out, "{}", segment_stats_line(seg)).unwrap();
        }
        if let Some((c, _)) = &cache {
            writeln!(
                out,
                "cache: {}",
                serde_json::to_string(&c.stats()).expect("cache stats serialize")
            )
            .unwrap();
        }
    }
    out.push_str(&profile_block(a.profile, &sink.take()));
    Ok(out)
}

/// `xfrag explain` without a persistent segment; `run` dispatches
/// through [`explain_with`], so outside the unit tests this shorthand
/// has no binary caller.
#[cfg_attr(not(test), allow(dead_code))]
pub fn explain(doc: &Document, a: &SearchArgs) -> Result<String, CliError> {
    explain_with(doc, None, a)
}

/// `xfrag explain`, segment-backed when a usable `.xidx` sibling was
/// found — the stages then execute off the persistent postings, and the
/// `index:` line reports how many terms they materialized.
pub fn explain_with(
    doc: &Document,
    seg: Option<&SegmentIndex>,
    a: &SearchArgs,
) -> Result<String, CliError> {
    match seg {
        Some(seg) => explain_impl(doc, seg, Some(seg), a),
        None => explain_impl(doc, &InvertedIndex::build(doc), None, a),
    }
}

fn explain_impl<I: PostingsSource + ?Sized>(
    doc: &Document,
    index: &I,
    seg: Option<&SegmentIndex>,
    a: &SearchArgs,
) -> Result<String, CliError> {
    let q = build_query(a);
    let policy = exec_policy(a);
    let mut out = String::new();
    let mut budget = String::new();
    for s in Strategy::ALL {
        let plan = LogicalPlan::for_strategy(&q, s).map_err(|e| CliError::Query(e.to_string()))?;
        let header = match s {
            Strategy::BruteForce => "§4.1: the powerset join enumerated, σ_P last",
            Strategy::FixedPointNaive => "Theorem 2: ⋈* → ⁺ then ⋈",
            Strategy::FixedPointReduced => "Theorem 2 over Theorem 1's reduced sets ⊖(F)",
            Strategy::PushDown => "Theorem 2, then Theorem 3: anti-monotonic σ below every join",
        };
        writeln!(out, "== {} ({header}) ==", s.name()).unwrap();
        out.push_str(&plan.render());
        // The exact call `search --strategy {s}` makes.
        let sink = RecordingSink::new();
        let tracer = if a.analyze {
            Tracer::new(&sink)
        } else {
            Tracer::disabled()
        };
        let start = std::time::Instant::now();
        let res = evaluate_traced(doc, index, &q, s, &policy, &tracer, None);
        let wall = start.elapsed();
        match &res {
            Ok(r) => {
                writeln!(out, "-> {} fragment(s), {}", r.fragments.len(), r.stats).unwrap();
                if r.degradation.is_degraded() {
                    writeln!(out, "note: {}", r.degradation).unwrap();
                }
            }
            Err(e) => writeln!(out, "-> error: {e}").unwrap(),
        }
        if a.analyze {
            writeln!(out, "analyze: wall {}", format_duration(wall)).unwrap();
            for line in render_spans(&sink.take()).lines() {
                writeln!(out, "  {line}").unwrap();
            }
        }
        out.push('\n');
        if s == a.strategy {
            budget = match res {
                Ok(r) if r.degradation.is_degraded() => format!(
                    "budget: tripped after {} checkpoint(s); {}",
                    r.stats.budget_checkpoints, r.degradation
                ),
                Ok(r) => format!(
                    "budget: {} checkpoint(s) passed, {} join(s), {} fragment(s) within budget",
                    r.stats.budget_checkpoints,
                    r.stats.joins,
                    r.fragments.len()
                ),
                Err(e) => format!("budget: tripped; search fails: {e}"),
            };
        }
    }
    for (term, a_len, reduced) in
        xfrag_core::query::operand_reduction_factors(doc, index, &q, &policy)
    {
        match reduced {
            Ok(b_len) => {
                let rf = if a_len == 0 {
                    0.0
                } else {
                    (a_len - b_len) as f64 / a_len as f64
                };
                writeln!(
                    out,
                    "operand {term:?}: |F| = {a_len}, |⊖(F)| = {b_len}, RF = {rf:.2}"
                )
            }
            Err(breach) => writeln!(
                out,
                "operand {term:?}: |F| = {a_len}, |⊖(F)| not computed (stopped by {breach})"
            ),
        }
        .unwrap();
    }
    writeln!(out, "{budget}").unwrap();
    // `--cache-mb`: run the query cold (filling a fresh cache), then run
    // it again warm under the tracer — the warm span tree carries
    // cache_hits/cache_misses per stage, the EXPLAIN ANALYZE view of the
    // cache.
    if let Some((cache, gen)) = cli_cache(a) {
        let cref = CacheRef {
            cache: &cache,
            gen,
            doc: 0,
        };
        let policy = exec_policy(a);
        writeln!(out, "== cache (cold fill, then warm re-run) ==").unwrap();
        evaluate_traced(
            doc,
            index,
            &q,
            a.strategy,
            &policy,
            &Tracer::disabled(),
            Some(cref),
        )
        .map_err(|e| CliError::Query(e.to_string()))?;
        let sink = RecordingSink::new();
        let tracer = Tracer::new(&sink);
        let warm = evaluate_traced(doc, index, &q, a.strategy, &policy, &tracer, Some(cref))
            .map_err(|e| CliError::Query(e.to_string()))?;
        writeln!(
            out,
            "-> {} fragment(s) warm, {}",
            warm.fragments.len(),
            warm.stats
        )
        .unwrap();
        for line in render_spans(&sink.take()).lines() {
            writeln!(out, "  {line}").unwrap();
        }
        writeln!(
            out,
            "cache: {}",
            serde_json::to_string(&cache.stats()).expect("cache stats serialize")
        )
        .unwrap();
    }
    // Last so `terms_loaded` reflects everything the stages above
    // actually materialized from the persistent segment.
    if let Some(seg) = seg {
        writeln!(out, "{}", segment_stats_line(seg)).unwrap();
    }
    Ok(out)
}

/// `xfrag info`.
pub fn info(doc: &Document) -> String {
    let index = InvertedIndex::build(doc);
    let mut tags: std::collections::BTreeMap<&str, usize> = Default::default();
    for n in doc.node_ids() {
        *tags.entry(doc.tag(n)).or_default() += 1;
    }
    let mut out = String::new();
    writeln!(out, "nodes:  {}", doc.len()).unwrap();
    writeln!(out, "height: {}", doc.height()).unwrap();
    writeln!(out, "terms:  {}", index.term_count()).unwrap();
    writeln!(out, "tags:").unwrap();
    for (tag, count) in tags {
        writeln!(out, "  {tag}: {count}").unwrap();
    }
    out
}

/// `xfrag demo` — the paper's §4 walkthrough on the built-in Figure 1
/// document.
pub fn demo() -> String {
    let fig = xfrag_corpus::figure1();
    let doc = &fig.doc;
    let a = SearchArgs {
        file: "<built-in figure 1>".into(),
        keywords: vec!["XQuery".into(), "optimization".into()],
        filter: xfrag_core::FilterExpr::MaxSize(3),
        strategy: xfrag_core::Strategy::PushDown,
        strict: false,
        maximal: false,
        ids: true,
        stats: true,
        budget: xfrag_core::Budget::bounded(),
        degrade: xfrag_core::DegradeMode::Ladder,
        profile: ProfileMode::Off,
        analyze: false,
        cache_mb: None,
    };
    let mut out = String::from(
        "Paper §4 example: query {XQuery, optimization}, filter size ≤ 3,\n\
         against the Figure 1 document (82 nodes).\n\n",
    );
    out.push_str(&search(doc, &a).expect("demo query evaluates"));
    out.push_str("\nThe fragment ⟨n16,n17,n18⟩ is the paper's \"fragment of interest\".\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfrag_core::{FilterExpr, Strategy};
    use xfrag_doc::parse_str;

    fn args(keywords: &[&str], filter: FilterExpr) -> SearchArgs {
        SearchArgs {
            file: String::new(),
            keywords: keywords.iter().map(|s| s.to_string()).collect(),
            filter,
            strategy: Strategy::PushDown,
            strict: false,
            maximal: false,
            ids: true,
            stats: false,
            budget: xfrag_core::Budget::unlimited(),
            degrade: xfrag_core::DegradeMode::Ladder,
            profile: ProfileMode::Off,
            analyze: false,
            cache_mb: None,
        }
    }

    fn doc() -> Document {
        parse_str("<a><b>xml search</b><c>xml ranking</c></a>").unwrap()
    }

    #[test]
    fn search_lists_fragments() {
        let out = search(&doc(), &args(&["xml", "search"], FilterExpr::MaxSize(3))).unwrap();
        assert!(out.contains("fragment(s)"));
        assert!(out.contains("⟨n1⟩"));
    }

    #[test]
    fn search_xml_output() {
        let mut a = args(&["xml", "ranking"], FilterExpr::True);
        a.ids = false;
        let out = search(&doc(), &a).unwrap();
        assert!(out.contains("<c>xml ranking</c>"));
    }

    #[test]
    fn maximal_hides_subfragments() {
        let base = args(&["xml"], FilterExpr::True);
        let all = search(&doc(), &base).unwrap();
        let mut m = base.clone();
        m.maximal = true;
        let max = search(&doc(), &m).unwrap();
        let count = |s: &str| {
            s.lines()
                .next()
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .parse::<usize>()
                .unwrap()
        };
        assert!(count(&max) < count(&all));
    }

    #[test]
    fn explain_shows_stages_and_rf() {
        let out = explain(&doc(), &args(&["xml", "search"], FilterExpr::MaxSize(2))).unwrap();
        for s in Strategy::ALL {
            assert!(out.contains(&format!("== {} (", s.name())), "{out}");
        }
        assert!(out.contains("Theorem 2"));
        assert!(out.contains("Theorem 3"));
        assert!(out.contains("RF ="));
    }

    /// The `-> …` line of `strategy`'s EXPLAIN stage and the `note:`
    /// line under it, if any.
    fn stage_lines(explained: &str, strategy: Strategy) -> (String, Option<String>) {
        let header = format!("== {} (", strategy.name());
        let mut lines = explained
            .lines()
            .skip_while(|l| !l.starts_with(&header))
            .skip_while(|l| !l.starts_with("-> "));
        let result = lines.next().expect("stage result line").to_string();
        let note = lines.next().filter(|l| l.starts_with("note: "));
        (result, note.map(str::to_string))
    }

    /// `search --stats` output in the same shape as [`stage_lines`].
    fn search_lines(searched: &str) -> (String, Option<String>) {
        let count = searched.split_whitespace().next().unwrap();
        let stats = searched
            .lines()
            .find_map(|l| l.strip_prefix("stats: "))
            .expect("stats line");
        let note = searched.lines().find(|l| l.starts_with("note: "));
        (
            format!("-> {count} fragment(s), {stats}"),
            note.map(str::to_string),
        )
    }

    #[test]
    fn explain_stages_match_search_for_every_strategy() {
        let fig = xfrag_corpus::figure1();
        let filters = [
            FilterExpr::MaxSize(3),
            FilterExpr::and([FilterExpr::MaxSize(4), FilterExpr::MinSize(2)]),
            FilterExpr::MinSize(2),
        ];
        for filter in filters {
            for strict in [false, true] {
                for max_joins in [None, Some(5)] {
                    let mut a = args(&["xquery", "optimization"], filter.clone());
                    a.strict = strict;
                    a.stats = true;
                    a.budget.max_joins = max_joins;
                    let explained = explain(&fig.doc, &a).unwrap();
                    for s in Strategy::ALL {
                        a.strategy = s;
                        let want = search_lines(&search(&fig.doc, &a).unwrap());
                        assert_eq!(
                            stage_lines(&explained, s),
                            want,
                            "{s:?} {filter} strict={strict} max_joins={max_joins:?}"
                        );
                        assert_eq!(want.1.is_some(), max_joins.is_some(), "{want:?}");
                        // Strict leaf semantics drops one of the four
                        // size<=3 answers; EXPLAIN once reported all four.
                        if filter == FilterExpr::MaxSize(3) && strict && max_joins.is_none() {
                            assert!(want.0.starts_with("-> 3 fragment(s), "), "{want:?}");
                        }
                    }
                }
            }
        }
    }

    /// Run `f` on a thread of its own and fail unless it returns within
    /// two seconds, so an evaluation that stops being bounded fails the
    /// suite at once instead of hanging it. A panic in `f` propagates.
    fn within_2s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let limit = std::time::Duration::from_secs(2);
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(limit) {
            Ok(out) => {
                worker.join().expect("the worker returns after it sends");
                out
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("the worker sends before it returns"),
            },
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("no answer within {limit:?}: the evaluation is not bounded")
            }
        }
    }

    /// The arguments `xfrag <line>` parses to, default work bound included.
    fn parsed(line: &str) -> SearchArgs {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        match crate::args::parse(&argv).unwrap() {
            Command::Search(a) | Command::Explain(a) => a,
            other => panic!("not a search: {other:?}"),
        }
    }

    /// `<doc>` holding `n` `<p>` leaves: every one has "alpha", every
    /// other one also "beta". Unfiltered, `{alpha, beta}` has an answer
    /// set exponential in `n`.
    fn alpha_beta_leaves(n: usize) -> Document {
        let body: String = (0..n)
            .map(|i| match i % 2 {
                0 => "<p>alpha beta</p>",
                _ => "<p>alpha</p>",
            })
            .collect();
        parse_str(&format!("<doc>{body}</doc>")).unwrap()
    }

    #[test]
    fn search_over_wide_operands_degrades_instead_of_stalling() {
        // 16 + 16 postings: brute force would enumerate (2^16 - 1)^2,
        // about 4.3e9, unions.
        let body: String = (0..32)
            .map(|i| ["<p>alpha</p>", "<p>beta</p>"][i % 2])
            .collect();
        let b16 = parse_str(&format!("<doc>{body}</doc>")).unwrap();
        for (doc, line) in [
            (alpha_beta_leaves(20), "search w20.xml alpha beta"),
            (
                alpha_beta_leaves(20),
                "search w20.xml alpha beta --size 4 --strategy naive",
            ),
            (b16, "search b16.xml alpha beta --size 3 --strategy brute"),
        ] {
            let a = parsed(line);
            let out = within_2s(move || search(&doc, &a).unwrap());
            assert!(
                out.contains("note: degraded to slca-approx; full stopped by joins"),
                "{line}: {out}"
            );
        }
    }

    #[test]
    fn explain_over_wide_operands_degrades_instead_of_stalling() {
        let w20 = alpha_beta_leaves(20);
        let a = parsed("explain w20.xml alpha beta");
        let out = within_2s(move || explain(&w20, &a).unwrap());
        assert_eq!(
            out.matches("note: degraded to slca-approx").count(),
            4,
            "{out}"
        );
        // 800 leaves of one term: every stage and the `⊖` behind the RF
        // line stop at the bound, the default or a tighter one.
        let body = "<p>alpha</p>".repeat(800);
        let p800 = parse_str(&format!("<r>{body}</r>")).unwrap();
        for line in [
            "explain p800.xml alpha",
            "explain p800.xml alpha --max-joins 1000",
        ] {
            let (d, a) = (p800.clone(), parsed(line));
            let out = within_2s(move || explain(&d, &a).unwrap());
            assert_eq!(
                out.matches("note: degraded to slca-approx").count(),
                4,
                "{out}"
            );
            assert!(
                out.contains(
                    "operand \"alpha\": |F| = 800, |⊖(F)| not computed (stopped by joins)"
                ),
                "{out}"
            );
        }
    }

    #[test]
    fn explain_degrades_wide_closures_instead_of_stalling() {
        let body: String = (0..20).map(|_| "<p>alpha</p>").collect();
        let d = parse_str(&format!("<r>{body}</r>")).unwrap();
        let mut a = args(&["alpha"], FilterExpr::MinSize(2));
        a.budget = xfrag_core::Budget::bounded();
        a.stats = true;
        let out = within_2s({
            let (d, a) = (d.clone(), a.clone());
            move || explain(&d, &a).unwrap()
        });
        // The unfiltered closures run, stop at the bound and answer from
        // the fallback, exactly as `search --strategy S` does.
        for s in [
            Strategy::FixedPointNaive,
            Strategy::FixedPointReduced,
            Strategy::PushDown,
        ] {
            let mut searched = a.clone();
            searched.strategy = s;
            let want = search_lines(&search(&d, &searched).unwrap());
            assert_eq!(stage_lines(&out, s), want, "{out}");
            assert!(want.1.is_some(), "{want:?}");
        }
        assert!(out.contains("budget: tripped after "), "{out}");
        // A pushed-down filter keeps push-down exact under the same bound.
        let mut a = args(&["alpha"], FilterExpr::MaxSize(2));
        a.budget = xfrag_core::Budget::bounded();
        let out = explain(&d, &a).unwrap();
        let (result, note) = stage_lines(&out, Strategy::PushDown);
        assert!(result.starts_with("-> 20 fragment(s), "), "{out}");
        assert_eq!(note, None, "{out}");
    }

    #[test]
    fn explain_degrades_wide_powersets_instead_of_stalling() {
        // Three terms of 10 postings each along one chain of nested
        // elements: the closures stay small (a join is a path), while
        // brute force would enumerate (2^10 - 1)^3, about 1e9, unions.
        let open: String = (0..30)
            .map(|i| format!("<e>{}", ["alpha", "beta", "gamma"][i % 3]))
            .collect();
        let d = parse_str(&format!("{open}{}", "</e>".repeat(30))).unwrap();
        let mut a = args(&["alpha", "beta", "gamma"], FilterExpr::MaxSize(3));
        a.strategy = Strategy::BruteForce;
        a.budget = xfrag_core::Budget::bounded();
        a.stats = true;
        let out = within_2s({
            let (d, a) = (d.clone(), a.clone());
            move || explain(&d, &a).unwrap()
        });
        // The bound stops the enumeration, so the stage degrades the way
        // `search --strategy brute` does.
        let want = search_lines(&search(&d, &a).unwrap());
        assert_eq!(stage_lines(&out, Strategy::BruteForce), want, "{out}");
        assert!(want.1.is_some(), "{want:?}");
        assert!(out.contains("budget: tripped after "), "{out}");
        let (result, note) = stage_lines(&out, Strategy::PushDown);
        assert!(result.starts_with("-> 28 fragment(s), "), "{out}");
        assert_eq!(note, None, "{out}");
    }

    #[test]
    fn info_reports_shape() {
        let out = info(&doc());
        assert!(out.contains("nodes:  3"));
        assert!(out.contains("b: 1"));
    }

    #[test]
    fn demo_runs() {
        let out = demo();
        assert!(out.contains("⟨n16,n17,n18⟩"));
        assert!(out.contains("4 fragment(s)"));
    }

    #[test]
    fn search_degrades_under_tight_budget_instead_of_failing() {
        let mut a = args(&["xml"], FilterExpr::True);
        a.budget.max_joins = Some(0);
        let out = search(&doc(), &a).unwrap();
        assert!(out.contains("note: degraded to"), "{out}");
        // With --degrade off the same budget is a hard error.
        a.degrade = xfrag_core::DegradeMode::Off;
        let err = search(&doc(), &a).unwrap_err();
        assert!(err.to_string().contains("budget exceeded"), "{err}");
    }

    #[test]
    fn explain_annotates_budget_checkpoints() {
        let out = explain(&doc(), &args(&["xml", "search"], FilterExpr::MaxSize(2))).unwrap();
        assert!(out.contains("budget:"), "{out}");
        assert!(out.contains("checkpoint(s) passed"), "{out}");
        let mut a = args(&["xml", "search"], FilterExpr::MaxSize(2));
        a.budget.max_joins = Some(0);
        let out = explain(&doc(), &a).unwrap();
        assert!(out.contains("budget: tripped"), "{out}");
    }

    #[test]
    fn stats_flag_prints_counters() {
        let mut a = args(&["xml"], FilterExpr::True);
        a.stats = true;
        let out = search(&doc(), &a).unwrap();
        assert!(out.contains("stats: joins="));
    }

    #[test]
    fn profile_prints_span_tree() {
        let mut a = args(&["xml", "search"], FilterExpr::MaxSize(3));
        a.profile = ProfileMode::Text;
        let out = search(&doc(), &a).unwrap();
        assert!(out.contains("profile:"), "{out}");
        assert!(out.contains("term-lookup:xml"), "{out}");
        assert!(out.contains("rung:full"), "{out}");
        assert!(out.contains("select-top"), "{out}");
        // Profiling must not change the answer.
        let plain = search(&doc(), &args(&["xml", "search"], FilterExpr::MaxSize(3))).unwrap();
        assert!(out.starts_with(plain.lines().next().unwrap()), "{out}");
    }

    #[test]
    fn profile_json_is_machine_readable() {
        let mut a = args(&["xml"], FilterExpr::True);
        a.profile = ProfileMode::Json;
        let out = search(&doc(), &a).unwrap();
        let json_line = out
            .lines()
            .find(|l| l.starts_with("profile: ["))
            .expect("json profile line");
        assert!(json_line.contains("\"stage\":\"rung:full\""), "{out}");
        assert!(json_line.contains("\"wall_ns\":"), "{out}");
        assert!(json_line.ends_with(']'), "{out}");
    }

    #[test]
    fn cached_search_is_byte_identical_and_reports_hits() {
        let base = args(&["xml", "search"], FilterExpr::MaxSize(3));
        let plain = search(&doc(), &base).unwrap();
        let mut cached = base.clone();
        cached.cache_mb = Some(4);
        let warm = search(&doc(), &cached).unwrap();
        assert_eq!(plain, warm, "cache must not change any output byte");

        // With --stats the cache counter line appears and shows hits.
        let mut st = cached.clone();
        st.stats = true;
        let out = search(&doc(), &st).unwrap();
        assert!(out.contains("cache: {\"result\":"), "{out}");
        assert!(out.contains("cache_hits="), "{out}");
        // Warm pass answered from the result tier: at least one hit.
        assert!(!out.contains("\"result\":{\"hits\":0,"), "{out}");
    }

    #[test]
    fn cached_profile_shows_result_hit_span() {
        let mut a = args(&["xml", "search"], FilterExpr::MaxSize(3));
        a.cache_mb = Some(4);
        a.profile = ProfileMode::Text;
        let out = search(&doc(), &a).unwrap();
        assert!(out.contains("cache:result-hit"), "{out}");
    }

    #[test]
    fn explain_with_cache_renders_warm_pass() {
        let mut a = args(&["xml", "search"], FilterExpr::MaxSize(2));
        a.cache_mb = Some(4);
        let out = explain(&doc(), &a).unwrap();
        assert!(
            out.contains("== cache (cold fill, then warm re-run) =="),
            "{out}"
        );
        assert!(out.contains("cache:result-hit"), "{out}");
        assert!(out.contains("cache: {\"result\":"), "{out}");
    }

    #[test]
    fn explain_analyze_prints_wall_and_spans_per_stage() {
        let mut a = args(&["xml", "search"], FilterExpr::MaxSize(2));
        a.analyze = true;
        let out = explain(&doc(), &a).unwrap();
        assert_eq!(out.matches("== ").count(), Strategy::ALL.len(), "{out}");
        assert_eq!(
            out.matches("analyze: wall ").count(),
            Strategy::ALL.len(),
            "one analyze line per stage:\n{out}"
        );
        assert!(out.contains("joins="), "{out}");
        // Each stage's spans are the ones `search --profile` records.
        assert_eq!(
            out.matches("  term-lookup:xml").count(),
            Strategy::ALL.len(),
            "{out}"
        );
        assert_eq!(
            out.matches("  rung:full").count(),
            Strategy::ALL.len(),
            "{out}"
        );
        assert!(out.contains("push-down-operand"), "{out}");
    }
}

#[cfg(test)]
mod multi_tests {
    use super::*;
    use crate::args::SearchArgs;
    use xfrag_core::{FilterExpr, Strategy};

    fn margs(dir: &str) -> SearchArgs {
        SearchArgs {
            file: dir.to_string(),
            keywords: vec!["xml".into(), "search".into()],
            filter: FilterExpr::MaxSize(3),
            strategy: Strategy::PushDown,
            strict: false,
            maximal: false,
            ids: true,
            stats: true,
            budget: xfrag_core::Budget::unlimited(),
            degrade: xfrag_core::DegradeMode::Ladder,
            profile: ProfileMode::Off,
            analyze: false,
            cache_mb: None,
        }
    }

    #[test]
    fn msearch_over_directory() {
        let dir = std::env::temp_dir().join(format!("xfrag-msearch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.xml"), "<a><p>xml search engines</p></a>").unwrap();
        std::fs::write(dir.join("b.xml"), "<b><p>xml</p><p>search</p></b>").unwrap();
        std::fs::write(dir.join("c.xml"), "<c><p>unrelated</p></c>").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let coll = load_corpus(&dir.to_string_lossy(), None, false)
            .unwrap()
            .coll;
        assert_eq!(coll.len(), 3);
        let out = multi_search(&coll, &margs(&dir.to_string_lossy())).unwrap();
        assert!(out.contains("a.xml"), "{out}");
        assert!(out.contains("b.xml"), "{out}");
        assert!(!out.contains("c.xml"), "{out}");
        assert!(out.contains("(1 pruned)"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn msearch_profile_includes_per_document_spans_and_histogram() {
        let dir = std::env::temp_dir().join(format!("xfrag-mprof-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.xml"), "<a><p>xml search engines</p></a>").unwrap();
        std::fs::write(dir.join("b.xml"), "<b><p>xml</p><p>search</p></b>").unwrap();
        let coll = load_corpus(&dir.to_string_lossy(), None, false)
            .unwrap()
            .coll;
        let mut a = margs(&dir.to_string_lossy());
        a.profile = ProfileMode::Text;
        let out = multi_search(&coll, &a).unwrap();
        assert!(out.contains("profile:"), "{out}");
        assert!(out.contains("doc:a.xml"), "{out}");
        assert!(out.contains("doc:b.xml"), "{out}");
        assert!(out.contains("latency histogram: 2 sample(s)"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compile_then_search_xfrg() {
        let dir = std::env::temp_dir().join(format!("xfrag-compile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let xml = dir.join("d.xml");
        let bin = dir.join("d.xfrg");
        std::fs::write(&xml, "<d><p>xml search</p></d>").unwrap();
        let out = run(Command::Compile {
            input: xml.to_string_lossy().into_owned(),
            output: bin.to_string_lossy().into_owned(),
            inject: None,
        })
        .unwrap();
        assert!(out.contains("compiled"), "{out}");
        // Searching the compiled form gives the same answer as the XML.
        let d_xml = load(&xml.to_string_lossy()).unwrap();
        let d_bin = load(&bin.to_string_lossy()).unwrap();
        assert_eq!(d_xml, d_bin);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compile_write_fault_leaves_existing_output_byte_identical() {
        // Satellite (a): with a fault injected anywhere on the write
        // path, a pre-existing destination file survives unchanged —
        // the failure happens on the temp file, never in place.
        let dir = std::env::temp_dir().join(format!("xfrag-atomic-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let xml = dir.join("d.xml");
        let bin = dir.join("d.xfrg");
        std::fs::write(&xml, "<d><p>xml search</p></d>").unwrap();
        let original = b"pre-existing bytes that must survive".to_vec();
        for spec in [
            "store:write@0=read-error",
            "store:fsync@0=read-error",
            "store:rename@0=cancel",
            "store:write@0=torn:4",
        ] {
            std::fs::write(&bin, &original).unwrap();
            let err = run(Command::Compile {
                input: xml.to_string_lossy().into_owned(),
                output: bin.to_string_lossy().into_owned(),
                inject: Some(spec.into()),
            })
            .unwrap_err();
            assert!(matches!(err, CliError::Io(..)), "{spec}: {err}");
            assert_eq!(
                std::fs::read(&bin).unwrap(),
                original,
                "{spec}: destination modified"
            );
        }
        // Without a fault the same compile replaces the file.
        run(Command::Compile {
            input: xml.to_string_lossy().into_owned(),
            output: bin.to_string_lossy().into_owned(),
            inject: None,
        })
        .unwrap();
        assert_ne!(std::fs::read(&bin).unwrap(), original);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_commits_generations_and_prunes_old_ones() {
        let dir = std::env::temp_dir().join(format!("xfrag-index-{}", std::process::id()));
        let src = dir.join("src");
        let out = dir.join("corpus");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("a.xml"), "<a><p>xml search</p></a>").unwrap();
        std::fs::write(src.join("b.xml"), "<b><p>xml ranking</p></b>").unwrap();
        let outs = out.to_string_lossy().into_owned();
        let srcs = src.to_string_lossy().into_owned();

        let msg = index_corpus(&srcs, &outs, None).unwrap();
        assert!(
            msg.contains("committed generation 1: 2 document(s)"),
            "{msg}"
        );
        assert!(out.join("a.g000001.xfrg").exists());
        assert!(out.join("manifest-000001.xfm").exists());

        let msg = index_corpus(&srcs, &outs, None).unwrap();
        assert!(msg.contains("committed generation 2"), "{msg}");
        // Generation 1 is kept as the rollback target...
        assert!(out.join("manifest-000001.xfm").exists());
        let msg = index_corpus(&srcs, &outs, None).unwrap();
        assert!(msg.contains("committed generation 3"), "{msg}");
        // ...but after generation 3 commits, generation 1 is pruned.
        assert!(!out.join("manifest-000001.xfm").exists());
        assert!(!out.join("a.g000001.xfrg").exists());
        assert!(out.join("manifest-000002.xfm").exists());

        // A failed index attempt leaves the committed generation intact.
        let before = std::fs::read(out.join("a.g000003.xfrg")).unwrap();
        let err = index_corpus(&srcs, &outs, Some("store:rename@0=cancel")).unwrap_err();
        assert!(matches!(err, CliError::Io(..)), "{err}");
        assert_eq!(std::fs::read(out.join("a.g000003.xfrg")).unwrap(), before);
        assert!(!out.join("manifest-000004.xfm").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_index_carries_unchanged_documents_and_compact_materializes() {
        let dir = std::env::temp_dir().join(format!("xfrag-delta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let src = dir.join("src");
        let out = dir.join("corpus");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("a.xml"), "<a><p>xml search</p></a>").unwrap();
        std::fs::write(src.join("b.xml"), "<b><p>xml ranking</p></b>").unwrap();
        std::fs::write(src.join("c.xml"), "<c><p>xml storage</p></c>").unwrap();
        let outs = out.to_string_lossy().into_owned();
        let srcs = src.to_string_lossy().into_owned();

        // Delta without a committed generation is refused.
        let err = delta_index(&srcs, &outs, None).unwrap_err();
        assert!(err.to_string().contains("full index first"), "{err}");

        index_corpus(&srcs, &outs, None).unwrap();
        // 1-doc change + 1-doc removal.
        std::fs::write(src.join("a.xml"), "<a><p>xml search updated</p></a>").unwrap();
        std::fs::remove_file(src.join("c.xml")).unwrap();
        let msg = delta_index(&srcs, &outs, None).unwrap();
        assert!(
            msg.contains(
                "committed delta generation 2 (parent 1): 1 carried, 1 rewritten, 1 removed"
            ),
            "{msg}"
        );
        // Only the changed document got gen-2 files (tree + index
        // segment); the carried one is still served from gen 1, which
        // the prune retained — its segment rides along.
        assert!(out.join("a.g000002.xfrg").exists());
        assert!(out.join("a.g000002.xidx").exists());
        assert!(!out.join("b.g000002.xfrg").exists());
        assert!(!out.join("b.g000002.xidx").exists());
        assert!(out.join("b.g000001.xfrg").exists());
        assert!(out.join("b.g000001.xidx").exists());
        assert!(out.join("manifest-000001.xfm").exists());
        let m = match manifest::load_generation(Path::new(&outs)).unwrap() {
            manifest::GenerationLoad::Committed { manifest, .. } => manifest,
            other => panic!("{other:?}"),
        };
        assert_eq!(m.generation, 2);
        assert_eq!(m.parent, Some(1));
        // One tree + one segment entry per document.
        assert_eq!(m.files.len(), 4);
        assert_eq!(
            m.files.iter().filter(|e| e.name.ends_with(".xidx")).count(),
            2
        );

        // Compaction rewrites everything as a full generation 3.
        let msg = compact_corpus(&outs, None).unwrap();
        assert!(
            msg.contains("compacted generation 2 -> 3: 2 document(s)"),
            "{msg}"
        );
        let m = match manifest::load_generation(Path::new(&outs)).unwrap() {
            manifest::GenerationLoad::Committed { manifest, .. } => manifest,
            other => panic!("{other:?}"),
        };
        assert_eq!(m.generation, 3);
        assert_eq!(m.parent, None);
        assert!(m.files.iter().all(|e| e.name.contains(".g000003.")));
        // Compacted bytes are identical to what the delta served.
        assert_eq!(
            std::fs::read(out.join("a.g000003.xfrg")).unwrap(),
            std::fs::read(out.join("a.g000002.xfrg")).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
