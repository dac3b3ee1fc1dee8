//! `xfrag serve` — a std-only TCP query server over a corpus directory.
//!
//! Architecture (one paragraph): the corpus is partitioned into N
//! shards by a stable hash of each document's display name
//! (`--shards N`). Every shard owns its worker pool, bounded admission
//! queue, cache arena, and singleflight table, so a panicking or
//! stalled shard is a fault domain that cannot touch its siblings. The
//! accept loop spawns one handler thread per connection; handlers
//! decode newline-delimited JSON requests and either answer inline
//! (`health`, `stats`, `shutdown`, admission rejections) or scatter one
//! query sub-job to each shard and gather the per-shard results into
//! one merged, ranked response. A shard that cannot answer — its queue
//! is full, its worker panicked, or it missed the deadline — is dropped
//! from the merge: the response keeps the survivors' answers, flips
//! `"complete":false`, and reports per-shard
//! `shards:{ok,timed_out,shed,panicked}` accounting instead of failing
//! the request. Each worker wraps request handling in `catch_unwind`: a
//! panic (organic or injected via `--inject`) becomes a structured
//! reply, the worker spawns its own replacement in the same shard, and
//! the process lives on. Deadlines are measured from *admission* and
//! wired into the existing [`Budget`] wall-clock and a per-sub-job
//! [`CancelToken`] armed by a watchdog thread, so the degradation ladder
//! answers with a sound subset when time runs out. Concurrent identical
//! cold queries coalesce on the shard's singleflight table: one leader
//! evaluates, followers wake and replay the byte-identical cached
//! answer. `shutdown` drains gracefully: admission closes, queued work
//! finishes, workers exit, and the final summary asserts zero in-flight
//! requests.
//!
//! There is no SIGTERM hook — signal handling needs a crate or unsafe
//! libc bindings, both off-limits here — so graceful drain is exposed
//! as the `shutdown` request kind instead (see DESIGN.md).

use crate::commands::CliError;
use crate::protocol::{status, Answer, Request, RequestKind, Response, ShardOutcome};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use xfrag_core::collection::{
    evaluate_collection_traced, top_k_collection, BudgetedCollectionResult, CollectionResult,
};
use xfrag_core::fault::{panic_message, site};
use xfrag_core::rank::RankConfig;
use xfrag_core::snippet::{snippet, SnippetConfig};
use xfrag_core::trace::{LatencyHistogram, Tracer};
use xfrag_core::{
    flight_key, Breach, Budget, CancelToken, EvalStats, ExecPolicy, FaultInjector, FaultPlan,
    Flight, GenerationTag, Query, QueryCache, QueryError, RetryBudget, Singleflight, SLCA_APPROX,
};
use xfrag_doc::manifest;
use xfrag_doc::{Collection, DocId, Document};

/// Parsed `xfrag serve` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Corpus directory (`.xml` / `.xfrg` files).
    pub dir: String,
    /// TCP port (0 picks an ephemeral port, printed on startup).
    pub port: u16,
    /// Worker pool size, per shard.
    pub workers: usize,
    /// Admission queue bound, per shard; sub-jobs beyond it are shed.
    pub queue_depth: usize,
    /// Fault-isolated shard count; documents are routed by name hash.
    pub shards: usize,
    /// Server-wide per-request deadline (clamps request deadlines).
    pub timeout_ms: Option<u64>,
    /// Poll the corpus dir every N ms and hot-reload newer generations.
    pub watch_ms: Option<u64>,
    /// Fault-injection spec `site@hit=action,...` (see `core::fault`).
    pub inject: Option<String>,
    /// Seed for a generated fault plan over the runtime sites.
    pub fault_seed: Option<u64>,
    /// Query-cache capacity in megabytes (split evenly across shards).
    pub cache_mb: u64,
    /// Disable the query cache entirely.
    pub no_cache: bool,
}

impl ServeArgs {
    /// Defaults for everything but the corpus directory.
    pub fn new(dir: impl Into<String>) -> Self {
        ServeArgs {
            dir: dir.into(),
            port: 7878,
            workers: 4,
            queue_depth: 64,
            shards: 1,
            timeout_ms: None,
            watch_ms: None,
            inject: None,
            fault_seed: None,
            cache_mb: 64,
            no_cache: false,
        }
    }

    /// Build the fault injector from `--inject` and/or `--fault-seed`.
    fn injector(&self) -> Result<Option<Arc<FaultInjector>>, CliError> {
        let mut plan = match &self.inject {
            None => FaultPlan::new(),
            Some(spec) => FaultPlan::parse(spec).map_err(CliError::Query)?,
        };
        if let Some(seed) = self.fault_seed {
            let seeded = FaultPlan::from_seed(
                seed,
                &[site::SERVE_WORKER, site::COLLECTION_DOC, site::QUERY_EVAL],
                4,
                8,
            );
            for (s, hit, action) in seeded.arms() {
                plan = plan.arm(s.clone(), *hit, *action);
            }
        }
        Ok(if plan.is_empty() {
            None
        } else {
            Some(plan.build())
        })
    }
}

/// Route a document display name to a shard index.
///
/// FNV-1a rather than [`std::hash::DefaultHasher`]: the std hasher's
/// keys are explicitly not guaranteed stable across processes or
/// releases, and routing must be stable so a restart or reload keeps
/// each document — and therefore each shard's cache arena — on the
/// same shard.
fn route(name: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// Serve counters; exposed verbatim by the `stats` request kind.
struct ServeStats {
    total: u64,
    ok: u64,
    degraded: u64,
    shed: u64,
    timeout: u64,
    error: u64,
    shutting_down: u64,
    /// Request lines that did not decode (also counted under `error`).
    invalid: u64,
    worker_panics: u64,
    /// Transient `accept()` failures ridden out by the listener loop
    /// (EMFILE/ENFILE/ECONNABORTED/EINTR and kin).
    accept_errors: u64,
    /// Summed evaluation counters across all query requests.
    eval: EvalStats,
    /// Admission-to-response latency per query request.
    latency: LatencyHistogram,
}

impl ServeStats {
    fn new() -> Self {
        ServeStats {
            total: 0,
            ok: 0,
            degraded: 0,
            shed: 0,
            timeout: 0,
            error: 0,
            shutting_down: 0,
            invalid: 0,
            worker_panics: 0,
            accept_errors: 0,
            eval: EvalStats::new(),
            latency: LatencyHistogram::new(),
        }
    }

    fn bump(&mut self, status: &str) {
        self.total += 1;
        match status {
            status::OK => self.ok += 1,
            status::DEGRADED => self.degraded += 1,
            status::SHED => self.shed += 1,
            status::TIMEOUT => self.timeout += 1,
            status::ERROR => self.error += 1,
            status::SHUTTING_DOWN => self.shutting_down += 1,
            _ => {}
        }
    }
}

/// One shard's slice of an admitted query, waiting for (or being
/// processed by) that shard's worker pool. The corpus snapshot is
/// pinned at admission so every sub-job of one request answers from the
/// same generation even if a reload lands mid-scatter.
struct ShardJob {
    req: Arc<Request>,
    gen: Arc<Generation>,
    /// Admission time; deadlines are measured from here, so time spent
    /// queued counts against the request.
    enqueued: Instant,
    reply: mpsc::Sender<(usize, ShardReply)>,
    /// Cancelled by the watchdog when the deadline passes, and by the
    /// gather when it gives the sub-job up.
    cancel: CancelToken,
    shard: usize,
}

/// What one shard contributes to the gather.
enum ShardReply {
    /// The shard evaluated its document subset.
    Eval(Box<BudgetedCollectionResult>),
    /// The shard hit the deadline (before or during evaluation).
    Timeout(String),
    /// The shard's evaluation failed outright.
    Error(String),
    /// The shard's worker panicked; a replacement was already spawned.
    Panicked(String),
}

/// State guarded by one shard's queue mutex.
struct ShardInner {
    queue: VecDeque<ShardJob>,
    /// Admitted but not yet replied-to sub-jobs on this shard.
    in_flight: usize,
    workers_alive: usize,
}

/// One fault domain: a worker pool, a bounded queue, a cache arena,
/// and a singleflight table. Nothing here is shared across shards —
/// the only cross-shard state in the server is the gather merge.
struct Shard {
    inner: Mutex<ShardInner>,
    /// This shard's workers wait here for jobs (or shutdown).
    work_cv: Condvar,
    /// This shard's private cache arena (`None` under `--no-cache`).
    /// Per-shard rather than shared so a wedged or respawning shard can
    /// never poison or contend on a sibling's cache.
    cache: Option<Arc<QueryCache>>,
    /// Coalesces concurrent identical cold queries: one leader
    /// evaluates, followers wait and replay the cached result.
    flights: Singleflight,
    /// Workers respawned after a panic, lifetime total.
    respawns: AtomicU64,
    /// Real (cache-missing) evaluations performed, lifetime total.
    /// The singleflight tests key off this staying at 1 under a
    /// stampede of identical cold queries.
    evaluations: AtomicU64,
}

/// State guarded by the global mutex (connection accounting only —
/// queues and pools are per-shard by design).
struct Inner {
    /// Open connection handlers. Part of the drain condition so the
    /// process never exits while a handler still owes a reply (the
    /// shutdown acknowledgement itself, or a drain rejection).
    conns: usize,
}

/// One immutable corpus snapshot. Requests grab an `Arc<Generation>` at
/// admission and keep answering from it even if a reload swaps the
/// shared pointer mid-evaluation — that is the whole zero-downtime
/// story: readers never block writers and vice versa.
pub(crate) struct Generation {
    /// The loaded corpus.
    coll: Collection,
    /// Document ids owned by each shard, in collection order within a
    /// shard. Routing is by display-name hash (see [`route`]), so a
    /// document stays on its shard across reloads and restarts.
    shard_docs: Vec<Vec<DocId>>,
    /// Files that failed to load, with reasons.
    quarantined: Vec<(String, String)>,
    /// Manifest generation number; 0 for an unversioned (legacy) corpus.
    number: u64,
    /// Verified parent chain of the serving manifest, nearest ancestor
    /// first; empty for a full generation or an unversioned corpus.
    parent_chain: Vec<u64>,
    /// Documents whose data files are referenced from an ancestor
    /// generation (delta carry) vs written by this generation itself.
    docs_carried: u64,
    docs_rewritten: u64,
    /// Display name → manifest checksum. Equal sums across a reload
    /// prove the file bytes are identical, which is what licenses cache
    /// carry-over. Empty for an unversioned corpus: nothing vouches for
    /// byte identity there, so nothing is carried.
    doc_sums: HashMap<String, u64>,
    /// Rollback messages from [`manifest::load_generation`]: newer
    /// generations that existed on disk but failed verification.
    rollbacks: Vec<String>,
    /// Process-unique cache identity of this snapshot. A reload mints a
    /// fresh tag, so cache entries keyed by the old one become
    /// unreachable (implicit invalidation) while in-flight requests that
    /// pinned the old `Arc` keep hitting their own coherent entries.
    tag: GenerationTag,
}

/// Everything the accept loop, handlers, and workers share.
struct Shared {
    /// Corpus directory, re-scanned on `reload`.
    dir: String,
    /// Current serving snapshot; swapped atomically by a successful
    /// reload. Lock held only to clone or replace the `Arc`.
    gen: Mutex<Arc<Generation>>,
    /// Serializes reload attempts so two concurrent `reload` requests
    /// cannot interleave their load/validate/swap sequences.
    reload_lock: Mutex<()>,
    reloads_ok: AtomicU64,
    reloads_failed: AtomicU64,
    /// Cache carry-over totals across all reloads and shards (see
    /// [`xfrag_core::QueryCache::carry_over`]): entries kept under the
    /// same doc id, rekeyed to a new id, and evicted as changed/removed.
    carry_kept: AtomicU64,
    carry_rekeyed: AtomicU64,
    carry_evicted: AtomicU64,
    queue_depth: usize,
    timeout_ms: Option<u64>,
    fault: Option<Arc<FaultInjector>>,
    /// The shards. Fixed at startup; index is the shard id.
    shards: Vec<Shard>,
    addr: std::net::SocketAddr,
    shutdown: AtomicBool,
    inner: Mutex<Inner>,
    /// The drain loop waits here for pools to exit and jobs to finish.
    drain_cv: Condvar,
    stats: Mutex<ServeStats>,
}

impl Shared {
    fn bump(&self, status: &str) {
        self.stats.lock().unwrap().bump(status);
    }

    /// The current corpus snapshot. Cheap: one mutex-guarded Arc clone.
    fn snapshot(&self) -> Arc<Generation> {
        Arc::clone(&self.gen.lock().unwrap())
    }
}

/// Briefly synchronize with the drain loop's mutex, then wake it.
/// Callers mutate per-shard state first; passing through the global
/// lock afterwards guarantees the drain loop is either still before
/// its re-check (and will see the mutation) or parked in `wait`
/// (and will be woken) — no lost wakeups.
fn poke_drain(s: &Shared) {
    drop(s.inner.lock().unwrap());
    s.drain_cv.notify_all();
}

/// Workers alive, jobs queued, and sub-jobs in flight, summed across
/// all shards (the shape `health` has always reported).
fn pool_totals(s: &Shared) -> (usize, usize, usize) {
    let mut workers = 0;
    let mut queued = 0;
    let mut in_flight = 0;
    for shard in &s.shards {
        let g = shard.inner.lock().unwrap();
        workers += g.workers_alive;
        queued += g.queue.len();
        in_flight += g.in_flight;
    }
    (workers, queued, in_flight)
}

/// Run the server until a `shutdown` request drains it. Prints
/// `listening on <addr>` to stdout before accepting (clients and tests
/// key off that line, notably with `--port 0`).
pub fn serve(args: &ServeArgs) -> Result<String, CliError> {
    let fault = args.injector()?;
    let shards_n = args.shards.max(1);
    let generation = load_corpus(&args.dir, fault.as_ref(), shards_n)?;
    for r in &generation.rollbacks {
        eprintln!("warning: {r}");
    }
    for (name, why) in &generation.quarantined {
        eprintln!("warning: quarantined {name}: {why}");
    }
    if generation.coll.is_empty() {
        return Err(CliError::Query(format!(
            "no loadable documents in {} ({} quarantined)",
            args.dir,
            generation.quarantined.len()
        )));
    }
    let listener = TcpListener::bind(("127.0.0.1", args.port))
        .map_err(|e| CliError::Io(format!("127.0.0.1:{}", args.port), e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| CliError::Io("local addr".into(), e))?;
    {
        // Not `println!`: a closed stdout must not panic the server.
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "listening on {addr}");
        let _ = out.flush();
    }

    let workers = args.workers.max(1);
    // Split the cache budget evenly: each shard gets its own arena so
    // arenas never contend or share failure modes across fault domains.
    let per_shard_mb = (args.cache_mb / shards_n as u64).max(1);
    let shards: Vec<Shard> = (0..shards_n)
        .map(|_| Shard {
            inner: Mutex::new(ShardInner {
                queue: VecDeque::new(),
                in_flight: 0,
                workers_alive: workers,
            }),
            work_cv: Condvar::new(),
            cache: (!args.no_cache).then(|| Arc::new(QueryCache::with_capacity_mb(per_shard_mb))),
            flights: Singleflight::new(),
            respawns: AtomicU64::new(0),
            evaluations: AtomicU64::new(0),
        })
        .collect();
    let shared = Arc::new(Shared {
        dir: args.dir.clone(),
        gen: Mutex::new(Arc::new(generation)),
        reload_lock: Mutex::new(()),
        reloads_ok: AtomicU64::new(0),
        reloads_failed: AtomicU64::new(0),
        carry_kept: AtomicU64::new(0),
        carry_rekeyed: AtomicU64::new(0),
        carry_evicted: AtomicU64::new(0),
        queue_depth: args.queue_depth.max(1),
        timeout_ms: args.timeout_ms,
        fault,
        shards,
        addr,
        shutdown: AtomicBool::new(false),
        inner: Mutex::new(Inner { conns: 0 }),
        drain_cv: Condvar::new(),
        stats: Mutex::new(ServeStats::new()),
    });
    for shard_idx in 0..shards_n {
        for _ in 0..workers {
            let s = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(s, shard_idx));
        }
    }
    if let Some(ms) = args.watch_ms {
        let s = Arc::clone(&shared);
        let period = Duration::from_millis(ms.max(1));
        std::thread::spawn(move || {
            while !s.shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(period);
                // Only attempt a swap when a strictly newer generation
                // *claims* commitment (its manifest exists); data-file
                // remnants of an in-progress index are not a signal, and
                // a failed probe is not a failed reload.
                let current = s.snapshot().number;
                let newest = manifest::latest_manifest_number(Path::new(&s.dir)).unwrap_or(current);
                if newest > current {
                    match try_reload(&s) {
                        Ok(gen) => eprintln!("watch: reloaded generation {}", gen.number),
                        Err(why) => eprintln!("warning: watch reload failed: {why}"),
                    }
                }
            }
        });
    }

    // Transient accept() failures — EMFILE/ENFILE when handler threads
    // briefly exhaust descriptors, ECONNABORTED when a client gives up
    // in the backlog, EINTR — must not kill the listener. Back off and
    // keep accepting; the backoff resets on the next successful accept
    // so one storm doesn't permanently slow admission.
    let mut accept_backoff = Duration::from_millis(10);
    loop {
        let (stream, _) = match listener.accept() {
            Ok(x) => {
                accept_backoff = Duration::from_millis(10);
                x
            }
            Err(e) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                shared.stats.lock().unwrap().accept_errors += 1;
                use std::io::ErrorKind;
                // Aborted/interrupted accepts cost nothing to retry at
                // once; resource exhaustion needs breathing room for
                // open connections to drain descriptors.
                if !matches!(
                    e.kind(),
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted | ErrorKind::WouldBlock
                ) {
                    std::thread::sleep(accept_backoff);
                    accept_backoff = (accept_backoff * 2).min(Duration::from_secs(1));
                }
                continue;
            }
        };
        // Every accepted connection gets a handler — even during the
        // drain race. `shutdown` pokes us with a loopback connection so
        // the flag check below runs promptly, but the poked-out accept
        // may return a *real* client queued ahead of the poke in the
        // backlog; its handler answers it with a drain rejection instead
        // of a silent hangup (the poke itself just reads EOF and exits).
        shared.inner.lock().unwrap().conns += 1;
        let s = Arc::clone(&shared);
        std::thread::spawn(move || handle_conn(s, stream));
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    drop(listener);

    // Drain: each shard's workers exit only once its queue is empty,
    // each sub-job's reply is sent before its in-flight slot is
    // released, and every connection handler has flushed its last
    // reply and closed. Lock order: global `inner` first, then each
    // shard — the same order every other multi-lock path uses.
    {
        let mut g = shared.inner.lock().unwrap();
        loop {
            let pools_done = shared.shards.iter().all(|shard| {
                let si = shard.inner.lock().unwrap();
                debug_assert!(si.workers_alive > 0 || si.queue.is_empty());
                si.workers_alive == 0 && si.in_flight == 0
            });
            if pools_done && g.conns == 0 {
                break;
            }
            g = shared.drain_cv.wait(g).unwrap();
        }
    }
    let (_, _, in_flight) = pool_totals(&shared);
    let st = shared.stats.lock().unwrap();
    let quarantined = shared.snapshot().quarantined.len();
    Ok(format!(
        "drained: {} request(s) ({} ok, {} degraded, {} shed, {} timeout, {} error), \
         {} worker panic(s), {} file(s) quarantined, {} in flight\n",
        st.total,
        st.ok,
        st.degraded,
        st.shed,
        st.timeout,
        st.error,
        st.worker_panics,
        quarantined,
        in_flight
    ))
}

/// Load the corpus in `dir` as a [`Generation`] partitioned into
/// `shards` routing buckets.
///
/// A manifest-committed corpus loads exactly the newest fully-verified
/// generation's files ([`manifest::load_generation`] handles rollback);
/// a legacy directory (no manifests) scans every `.xml`/`.xfrg` as
/// before. Either way, files that fail to read, decode, or parse —
/// including injected `serve:load` read errors and even a panicking
/// loader — are quarantined instead of refusing to start. Only a
/// directory where manifests exist but *none* verifies is a hard error:
/// anything served from it would be a partial generation.
fn load_corpus(
    dir: &str,
    fault: Option<&Arc<FaultInjector>>,
    shards: usize,
) -> Result<Generation, CliError> {
    let dirp = Path::new(dir);
    let mut parent_chain: Vec<u64> = Vec::new();
    let mut docs_carried = 0u64;
    let mut docs_rewritten = 0u64;
    let mut doc_sums: HashMap<String, u64> = HashMap::new();
    type LoadFile = (std::path::PathBuf, String, Option<std::path::PathBuf>);
    let (files, number, rollbacks): (Vec<LoadFile>, u64, Vec<String>) =
        match manifest::load_generation(dirp).map_err(|e| CliError::Io(dir.to_string(), e))? {
            manifest::GenerationLoad::Unversioned => {
                // Legacy corpus: scan the directory. Generation-named
                // files and temp remnants are skipped — without a
                // manifest nothing vouches for them. A plain `.xfrg`
                // with an `.xidx` sibling serves segment-backed.
                let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
                    .map_err(|e| CliError::Io(dir.to_string(), e))?
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| {
                        p.extension()
                            .and_then(|e| e.to_str())
                            .is_some_and(|e| e == "xml" || e == "xfrg")
                    })
                    .collect();
                paths.sort();
                let files = paths
                    .into_iter()
                    .filter_map(|p| {
                        let name = p.file_name()?.to_string_lossy().into_owned();
                        if manifest::split_generation_file(&name).is_some()
                            || xfrag_doc::atomic::is_temp_remnant(&name)
                        {
                            return None;
                        }
                        let seg = (name.ends_with(".xfrg"))
                            .then(|| p.with_extension("xidx"))
                            .filter(|sp| sp.exists());
                        Some((p, name, seg))
                    })
                    .collect();
                (files, 0, Vec::new())
            }
            manifest::GenerationLoad::Committed {
                manifest: m,
                rollbacks,
            } => {
                // `load_generation` already verified the chain; a walk
                // failure here would be a concurrent prune, in which
                // case lineage is cosmetic and empty is fine.
                parent_chain = manifest::parent_chain(dirp, &m).unwrap_or_default();
                // Partition the manifest: `.xidx` index segments pair
                // with their document by stem; documents drive the
                // carried/rewritten accounting and cache carry-over.
                let mut seg_paths: HashMap<String, std::path::PathBuf> = HashMap::new();
                let mut docs: Vec<(std::path::PathBuf, String)> = Vec::new();
                for e in &m.files {
                    // Display names drop the `.g<gen>` infix so a
                    // document keeps its identity across reloads.
                    let (display, file_gen) = manifest::split_generation_file(&e.name)
                        .unwrap_or_else(|| (e.name.clone(), m.generation));
                    if let Some(stem) = display.strip_suffix(".xidx") {
                        seg_paths.insert(stem.to_string(), dirp.join(&e.name));
                        continue;
                    }
                    if file_gen == m.generation {
                        docs_rewritten += 1;
                    } else {
                        docs_carried += 1;
                    }
                    doc_sums.insert(display.clone(), e.checksum);
                    docs.push((dirp.join(&e.name), display));
                }
                docs.sort_by(|a, b| a.1.cmp(&b.1));
                let files = docs
                    .into_iter()
                    .map(|(p, display)| {
                        let seg = display
                            .strip_suffix(".xfrg")
                            .and_then(|stem| seg_paths.get(stem).cloned());
                        (p, display, seg)
                    })
                    .collect();
                (files, m.generation, rollbacks)
            }
            manifest::GenerationLoad::NoneCommitted { rollbacks } => {
                return Err(CliError::Query(format!(
                    "no fully-committed generation in {dir}: {}",
                    rollbacks.join("; ")
                )));
            }
        };
    let mut coll = Collection::new();
    let mut quarantined = Vec::new();
    for (path, name, seg_path) in files {
        let attempt = catch_unwind(AssertUnwindSafe(|| -> Result<Document, CliError> {
            if let Some(inj) = fault {
                inj.fire(site::SERVE_LOAD).map_err(|_| {
                    CliError::Io(name.clone(), std::io::Error::other("injected read error"))
                })?;
            }
            crate::commands::load(&path.to_string_lossy())
        }));
        match attempt {
            Ok(Ok(doc)) => {
                // A bad segment never takes the document down: warn and
                // fall back to an in-memory index.
                let seg = seg_path.and_then(|sp| {
                    crate::commands::load_segment(&sp, &doc)
                        .map_err(|why| {
                            eprintln!(
                                "warning: {name}: index segment unusable ({why}); \
                                 using the in-memory index"
                            );
                        })
                        .ok()
                });
                match seg {
                    Some(seg) => coll.add_with_segment(&name, doc, seg),
                    None => coll.add(&name, doc),
                };
            }
            Ok(Err(e)) => quarantined.push((name, e.to_string())),
            Err(payload) => quarantined.push((
                name,
                format!("loader panicked: {}", panic_message(payload.as_ref())),
            )),
        }
    }
    // Partition by stable name hash. Within a shard the ids stay in
    // collection order, so a shard's evaluation visits its documents
    // in the same order a single-shard server would.
    let mut shard_docs: Vec<Vec<DocId>> = vec![Vec::new(); shards.max(1)];
    for id in coll.ids() {
        shard_docs[route(coll.name(id), shards)].push(id);
    }
    Ok(Generation {
        coll,
        shard_docs,
        quarantined,
        number,
        parent_chain,
        docs_carried,
        docs_rewritten,
        doc_sums,
        rollbacks,
        tag: GenerationTag::fresh(),
    })
}

/// Build the next generation off the serving path and swap it in.
/// Runs on the calling connection-handler thread — never on a worker —
/// so the pools keep answering queries from the old snapshot throughout.
/// On any failure the serving generation is untouched and
/// `reloads_failed` is bumped; the error is also logged to stderr.
fn try_reload(s: &Arc<Shared>) -> Result<Arc<Generation>, String> {
    let _serialize = s.reload_lock.lock().unwrap();
    let current = s.snapshot();
    let fail = |why: String| -> Result<Arc<Generation>, String> {
        s.reloads_failed.fetch_add(1, Ordering::SeqCst);
        eprintln!(
            "warning: reload failed, still serving generation {}: {why}",
            current.number
        );
        Err(why)
    };
    let next = match load_corpus(&s.dir, s.fault.as_ref(), s.shards.len()) {
        Ok(g) => g,
        Err(e) => return fail(e.to_string()),
    };
    if next.coll.is_empty() {
        return fail(format!(
            "no loadable documents in {} ({} quarantined)",
            s.dir,
            next.quarantined.len()
        ));
    }
    if next.number < current.number {
        return fail(format!(
            "newest committed generation is {} but generation {} is already serving",
            next.number, current.number
        ));
    }
    if next.number == current.number && !next.rollbacks.is_empty() {
        // A newer generation exists on disk but failed verification:
        // re-loading what we already serve is not the reload that was
        // asked for.
        return fail(next.rollbacks.join("; "));
    }
    for r in &next.rollbacks {
        eprintln!("warning: {r}");
    }
    // Carry cache entries for byte-identical documents across the
    // generation bump, per shard arena. Manifest checksums vouch for
    // byte identity: equal sums on both sides mean the same file bytes,
    // hence the same parse tree and `NodeId`s, hence entry-for-entry
    // identical cache contents — so result entries for untouched
    // documents are rekeyed to the new tag instead of dropped. Changed, removed, quarantined, or unverifiable
    // (unversioned) documents get no mapping and their entries are
    // evicted. Name-hash routing keeps a surviving document on the
    // same shard, so its entries are always in the arenas that will be
    // probed for them. Requests already in flight keep their pinned
    // old `Arc` and tag; their entries were just moved, so they take
    // benign misses, never stale hits.
    if s.shards.iter().any(|shard| shard.cache.is_some()) {
        let old_ids: HashMap<&str, u32> = current
            .coll
            .ids()
            .map(|id| (current.coll.name(id), id.0))
            .collect();
        let mut doc_map = HashMap::new();
        for id in next.coll.ids() {
            let name = next.coll.name(id);
            if let (Some(old), Some(sum)) = (old_ids.get(name), next.doc_sums.get(name)) {
                if current.doc_sums.get(name) == Some(sum) {
                    doc_map.insert(*old, id.0);
                }
            }
        }
        for shard in &s.shards {
            if let Some(cache) = &shard.cache {
                let co = cache.carry_over(current.tag, next.tag, &doc_map);
                s.carry_kept.fetch_add(co.kept, Ordering::SeqCst);
                s.carry_rekeyed.fetch_add(co.rekeyed, Ordering::SeqCst);
                s.carry_evicted.fetch_add(co.evicted, Ordering::SeqCst);
            }
        }
    }
    let next = Arc::new(next);
    *s.gen.lock().unwrap() = Arc::clone(&next);
    s.reloads_ok.fetch_add(1, Ordering::SeqCst);
    Ok(next)
}

/// How often an idle connection's blocked read wakes up to check the
/// drain flag. Bounds how long an idle connection can stall a drain,
/// while leaving a wide window for a request already on the wire to be
/// answered with a structured rejection rather than a hangup.
const DRAIN_POLL: Duration = Duration::from_millis(500);

/// Longest request line a connection may send, newline excluded. A
/// longer line gets a `bad request` reply and the connection closes, so
/// a client streaming bytes with no newline cannot grow server memory.
const MAX_REQUEST_LINE: u64 = 1 << 20;

/// Decrements the shared connection count (and wakes the drain loop)
/// when a handler exits, on every exit path.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let mut g = self.0.inner.lock().unwrap();
        g.conns -= 1;
        drop(g);
        self.0.drain_cv.notify_all();
    }
}

/// One connection: read request lines, write exactly one response line
/// per request, until EOF, a write error, or the drain. During a drain
/// the handler answers at most one final request (typically a
/// `shutting-down` rejection) and then closes, so a chatty client
/// cannot hold the drain open forever.
fn handle_conn(s: Arc<Shared>, stream: TcpStream) {
    let _guard = ConnGuard(Arc::clone(&s));
    stream.set_read_timeout(Some(DRAIN_POLL)).ok();
    let mut reader = match stream.try_clone() {
        Ok(c) => BufReader::new(c),
        Err(_) => return,
    };
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Assemble one line of at most MAX_REQUEST_LINE + 1 bytes, riding
        // out poll timeouts (which preserve any partial bytes already
        // appended to `buf`).
        let n = loop {
            let room = MAX_REQUEST_LINE + 1 - buf.len() as u64;
            match reader.by_ref().take(room).read_until(b'\n', &mut buf) {
                Ok(n) => break n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if s.shutdown.load(Ordering::SeqCst) && buf.is_empty() {
                        return;
                    }
                }
                Err(_) => return,
            }
        };
        if n == 0 {
            return; // EOF: client closed.
        }
        let too_long = !buf.ends_with(b"\n") && buf.len() as u64 > MAX_REQUEST_LINE;
        let line = if too_long {
            Err(format!("request line exceeds {MAX_REQUEST_LINE} bytes"))
        } else {
            std::str::from_utf8(&buf).map_err(|e| format!("request line is not UTF-8: {e}"))
        };
        if matches!(line, Ok(l) if l.trim().is_empty()) {
            continue;
        }
        let request = line.and_then(|l| {
            serde_json::from_str::<Request>(l.trim_end_matches(['\r', '\n']))
                .map_err(|e| e.to_string())
        });
        let out = match request {
            Err(e) => {
                {
                    let mut st = s.stats.lock().unwrap();
                    st.invalid += 1;
                }
                s.bump(status::ERROR);
                Response::error(0, format!("bad request: {e}")).to_line()
            }
            Ok(req) => match req.kind {
                RequestKind::Health => {
                    s.bump(status::OK);
                    health_line(&s, req.id)
                }
                RequestKind::Stats => {
                    s.bump(status::OK);
                    stats_line(&s, req.id)
                }
                RequestKind::Reload => {
                    // Handled here on the connection thread, not a
                    // worker: a slow rebuild must never occupy a pool
                    // slot that queries are waiting on.
                    match try_reload(&s) {
                        Ok(gen) => {
                            s.bump(status::OK);
                            let mut r = Response::bare(req.id, status::OK);
                            r.note = Some(format!(
                                "serving generation {} ({} doc(s), {} quarantined)",
                                gen.number,
                                gen.coll.len(),
                                gen.quarantined.len()
                            ));
                            r.to_line()
                        }
                        Err(why) => {
                            s.bump(status::ERROR);
                            Response::error(req.id, format!("reload failed: {why}")).to_line()
                        }
                    }
                }
                RequestKind::Shutdown => begin_shutdown(&s, req.id),
                RequestKind::Query => match admit_scatter(&s, req) {
                    Err(rejection) => {
                        s.bump(&rejection.status);
                        rejection.to_line()
                    }
                    Ok(gather) => {
                        let admitted = gather.enqueued;
                        let resp = gather_response(&s, gather);
                        {
                            let mut st = s.stats.lock().unwrap();
                            st.bump(&resp.status);
                            st.latency.record(admitted.elapsed());
                            if let Some(es) = &resp.stats {
                                st.eval += *es;
                            }
                        }
                        resp.to_line()
                    }
                },
            },
        };
        let wrote = writer
            .write_all(out.as_bytes())
            .and_then(|_| writer.write_all(b"\n"))
            .and_then(|_| writer.flush());
        if wrote.is_err() {
            return;
        }
        if too_long {
            // Send FIN after the reply, then discard (a bounded amount of)
            // the rest of the line: closing with unread input would reset
            // the connection and could destroy the reply in flight.
            let _ = writer.shutdown(std::net::Shutdown::Write);
            let _ = std::io::copy(&mut reader.take(MAX_REQUEST_LINE), &mut std::io::sink());
            return;
        }
        // One reply per connection once the drain has begun.
        if s.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// One shard's place in the gather.
enum Slot {
    /// The sub-job is queued or running; the token cancels it if the
    /// gather gives it up.
    Pending(CancelToken),
    /// The shard's result, waiting for the merge.
    Done(Box<BudgetedCollectionResult>),
    /// The shard missed the deadline in-band; dropped from the merge.
    TimedOut,
    /// The shard's queue was full at admission; dropped from the merge.
    Shed,
    /// The shard's worker panicked; dropped from the merge.
    Panicked,
}

/// Everything the connection thread needs to assemble one response
/// from the scattered sub-jobs.
struct Gather {
    rx: mpsc::Receiver<(usize, ShardReply)>,
    /// One slot per shard, in shard order.
    slots: Vec<Slot>,
    enqueued: Instant,
    req: Arc<Request>,
    gen: Arc<Generation>,
}

/// Admission control: reject when draining or when every shard's queue
/// is full; otherwise enqueue one sub-job per shard with room and hand
/// back the gather handle. A shard whose queue is full is shed from
/// this request alone. Holding all shard locks for the scatter makes
/// admission atomic against the drain: either every sub-job lands
/// before workers can see `shutdown`, or none do. Rejections are boxed:
/// they're the cold path, and `Response` is wide.
fn admit_scatter(s: &Arc<Shared>, req: Request) -> Result<Gather, Box<Response>> {
    let id = req.id;
    // Shard index order, same as every other multi-lock path: no cycles.
    let mut guards: Vec<_> = s.shards.iter().map(|sh| sh.inner.lock().unwrap()).collect();
    // Checked under the queue locks: workers only exit when `shutdown`
    // is already visible, so nothing can be enqueued past the drain.
    if s.shutdown.load(Ordering::SeqCst) {
        return Err(Box::new(Response::bare(id, status::SHUTTING_DOWN)));
    }
    // Pin one snapshot for every shard of this request: a reload that
    // lands mid-scatter must not split the request across generations.
    let gen = s.snapshot();
    let enqueued = Instant::now();
    let req = Arc::new(req);
    let (tx, rx) = mpsc::channel();
    let slots: Vec<Slot> = guards
        .iter_mut()
        .enumerate()
        .map(|(shard, g)| {
            if g.queue.len() >= s.queue_depth {
                return Slot::Shed;
            }
            let cancel = CancelToken::new();
            g.in_flight += 1;
            g.queue.push_back(ShardJob {
                req: Arc::clone(&req),
                gen: Arc::clone(&gen),
                enqueued,
                reply: tx.clone(),
                cancel: cancel.clone(),
                shard,
            });
            Slot::Pending(cancel)
        })
        .collect();
    drop(guards);
    if slots.iter().all(|sl| matches!(sl, Slot::Shed)) {
        // Nothing admitted anywhere: a whole-request rejection, in the
        // old single-pool shape.
        let mut r = Response::bare(id, status::SHED);
        r.note = Some(format!("queue full (depth {})", s.queue_depth));
        return Err(Box::new(r));
    }
    for (shard, slot) in s.shards.iter().zip(&slots) {
        if matches!(slot, Slot::Pending(_)) {
            shard.work_cv.notify_one();
        }
    }
    Ok(Gather {
        rx,
        slots,
        enqueued,
        req,
        gen,
    })
}

/// How long past the request deadline the gather keeps listening for
/// in-band replies before declaring a shard wedged and dropping it
/// from the merge. Shards answer their own deadline misses in-band
/// (the watchdog cancels, the worker replies `timeout`), and those
/// replies land within this grace; only a shard whose worker cannot
/// reply at all — a hard stall such as an injected delay — burns the
/// full grace and is dropped, flipping the response to
/// `"complete":false`.
const GATHER_GRACE: Duration = Duration::from_millis(250);

/// Collect one reply per admitted shard and merge them into one
/// response.
///
/// Merge invariant (see DESIGN.md): concatenate the surviving shards'
/// per-document answers, sort by document id, sum the counters, and
/// rank with `top_k_collection` exactly once — so with every shard
/// present the response is byte-identical to a single-shard server's,
/// and with shards missing it is byte-identical to a single-shard
/// server over the surviving documents (plus the accounting fields).
fn gather_response(s: &Shared, mut g: Gather) -> Response {
    let id = g.req.id;
    let total = s.shards.len();
    let deadline = match (s.timeout_ms, g.req.timeout_ms) {
        (None, None) => None,
        (a, b) => Some(Duration::from_millis(
            a.unwrap_or(u64::MAX).min(b.unwrap_or(u64::MAX)),
        )),
    };
    let overall = deadline.map(|d| g.enqueued + d + GATHER_GRACE);
    let mut first_timeout: Option<String> = None;
    let mut first_panic: Option<String> = None;
    let mut pending = g
        .slots
        .iter()
        .filter(|sl| matches!(sl, Slot::Pending(_)))
        .count();
    while pending > 0 {
        let reply = match overall {
            // No deadline: a shard may legitimately take as long as it
            // likes, so the gather blocks.
            None => g.rx.recv().ok(),
            Some(t) => t
                .checked_duration_since(Instant::now())
                .and_then(|left| g.rx.recv_timeout(left).ok()),
        };
        // `None`: grace burned; the shards still pending are wedged.
        let Some((shard, reply)) = reply else {
            break;
        };
        pending -= 1;
        g.slots[shard] = match reply {
            ShardReply::Eval(r) => Slot::Done(r),
            ShardReply::Timeout(m) => {
                first_timeout.get_or_insert(m);
                Slot::TimedOut
            }
            ShardReply::Panicked(m) => {
                first_panic.get_or_insert(m);
                Slot::Panicked
            }
            ShardReply::Error(m) => {
                // A hard evaluation error on any shard fails the whole
                // request, exactly as it failed the whole single-pool
                // request before: a malformed query or an injected
                // cancel is not a partial answer.
                for slot in &g.slots {
                    if let Slot::Pending(cancel) = slot {
                        cancel.cancel();
                    }
                }
                return Response::error(id, m);
            }
        };
    }

    let mut evals: Vec<BudgetedCollectionResult> = Vec::new();
    let (mut timed_out, mut shed, mut panicked) = (0u64, 0u64, 0u64);
    for slot in g.slots {
        match slot {
            Slot::Done(r) => evals.push(*r),
            Slot::Shed => shed += 1,
            Slot::Panicked => panicked += 1,
            Slot::TimedOut => timed_out += 1,
            // No reply within deadline + grace: the shard is wedged.
            // Cancel whatever still runs and drop it from the merge.
            Slot::Pending(cancel) => {
                cancel.cancel();
                timed_out += 1;
            }
        }
    }
    if evals.is_empty() {
        // Nothing survived to merge: report the dominant failure in
        // the old single-pool shapes so clients and retry heuristics
        // keep working unchanged.
        if let Some(m) = first_panic {
            return Response::error(id, m);
        }
        let mut r = Response::bare(id, status::TIMEOUT);
        r.error =
            Some(first_timeout.unwrap_or_else(|| "deadline exceeded during evaluation".into()));
        return r;
    }

    let req = &*g.req;
    let coll = &g.gen.coll;
    let ok = evals.len();
    let complete = ok == total;
    let mut answers = Vec::new();
    let mut docs_pruned = 0usize;
    let mut docs_skipped = 0usize;
    let mut docs_failed: Vec<(DocId, String)> = Vec::new();
    let mut degraded_docs = Vec::new();
    let mut stats = EvalStats::new();
    for r in evals {
        answers.extend(r.answers);
        docs_pruned += r.docs_pruned;
        docs_skipped += r.docs_skipped;
        docs_failed.extend(r.docs_failed);
        degraded_docs.extend(r.degraded_docs);
        stats += r.stats;
    }
    // Document order is the canonical order a single-shard evaluation
    // would have produced; sorting restores it after the concat so the
    // ranker sees the same sequence (its tie-break is score, then doc
    // id, then fragment order — never arrival order).
    answers.sort_by_key(|a| a.doc);
    docs_failed.sort_by_key(|(d, _)| *d);
    degraded_docs.sort_by_key(|(d, _)| *d);
    let merged = BudgetedCollectionResult {
        answers,
        docs_pruned,
        docs_skipped,
        docs_failed,
        degraded_docs,
        stats,
    };
    let q = Query::new(req.keywords.iter(), req.filter());
    let ranked = CollectionResult {
        answers: merged.answers.clone(),
        docs_pruned: merged.docs_pruned,
        docs_failed: merged.docs_failed.clone(),
        stats: merged.stats,
    };
    let k = req.top_k.unwrap_or(10);
    let top = top_k_collection(coll, &ranked, &q, &RankConfig::default(), k);
    // A missing shard degrades the answer even when every surviving
    // document evaluated cleanly: the client is told both ways
    // (status and the `complete` flag).
    let degraded = merged.is_degraded() || !complete;
    let mut resp = Response::bare(
        id,
        if degraded {
            status::DEGRADED
        } else {
            status::OK
        },
    );
    resp.answers = top
        .iter()
        .map(|(doc_id, f, score)| Answer {
            doc: coll.name(*doc_id).to_string(),
            score: *score,
            nodes: f.nodes().iter().map(|n| n.0).collect(),
            snippet: snippet(coll.doc(*doc_id), f, &q.terms, &SnippetConfig::default()),
        })
        .collect();
    if degraded {
        // Assembled from counters and names only — never
        // elapsed times — to keep response bytes deterministic.
        let mut notes = Vec::new();
        if merged.docs_skipped > 0 {
            notes.push(format!("{} doc(s) skipped", merged.docs_skipped));
        }
        for (doc_id, _) in &merged.degraded_docs {
            notes.push(format!("{} degraded to {SLCA_APPROX}", coll.name(*doc_id)));
        }
        for (doc_id, msg) in &merged.docs_failed {
            notes.push(format!(
                "{} failed: {}",
                coll.name(*doc_id),
                msg.lines().next().unwrap_or("")
            ));
        }
        if !complete {
            notes.push(format!(
                "{} of {} shard(s) missing from merge",
                total - ok,
                total
            ));
        }
        resp.note = Some(notes.join("; "));
    }
    resp.stats = Some(merged.stats);
    if !complete {
        resp.complete = false;
        resp.shards = Some(ShardOutcome {
            ok: ok as u64,
            timed_out,
            shed,
            panicked,
        });
    }
    resp
}

/// Close admission, wake every shard's idle workers, and poke the
/// accept loop so the main thread proceeds to the drain phase.
fn begin_shutdown(s: &Arc<Shared>, id: u64) -> String {
    s.shutdown.store(true, Ordering::SeqCst);
    for shard in &s.shards {
        shard.work_cv.notify_all();
    }
    let _ = TcpStream::connect(s.addr);
    s.bump(status::OK);
    let mut r = Response::bare(id, status::OK);
    r.note = Some("draining".into());
    r.to_line()
}

fn health_line(s: &Shared, id: u64) -> String {
    let gen = s.snapshot();
    let (workers, queued, in_flight) = pool_totals(s);
    let quarantined: Vec<&str> = gen.quarantined.iter().map(|(n, _)| n.as_str()).collect();
    format!(
        "{{\"id\":{},\"status\":\"ok\",\"workers\":{},\"queued\":{},\"in_flight\":{},\"docs\":{},\"generation\":{},\"quarantined\":{}}}",
        id,
        workers,
        queued,
        in_flight,
        gen.coll.len(),
        gen.number,
        serde_json::to_string(&quarantined).expect("names serialize"),
    )
}

/// A cache block for `stats`: the given shards' arenas folded with
/// [`xfrag_core::CacheStats::absorb`] (per-lock-shard counter lists
/// concatenated in shard order), or `null` when caching is off. Over
/// one shard this is that shard's own block.
fn cache_json<'a>(shards: impl IntoIterator<Item = &'a Shard>) -> String {
    shards
        .into_iter()
        .filter_map(|shard| shard.cache.as_ref().map(|c| c.stats()))
        .reduce(|mut agg, st| {
            agg.absorb(st);
            agg
        })
        .map_or_else(|| "null".to_string(), |agg| agg.to_json())
}

fn stats_line(s: &Shared, id: u64) -> String {
    let gen = s.snapshot();
    // Quarantine detail (file + reason) so operators can see *why* a
    // document is missing from the serving set, not just that it is.
    let quarantined: Vec<String> = gen
        .quarantined
        .iter()
        .map(|(file, reason)| {
            format!(
                "{{\"file\":{},\"reason\":{}}}",
                serde_json::to_string(file).expect("name serializes"),
                serde_json::to_string(reason.lines().next().unwrap_or(""))
                    .expect("reason serializes"),
            )
        })
        .collect();
    let quarantined = format!("[{}]", quarantined.join(","));
    let st = s.stats.lock().unwrap();
    // `"cache":null` under `--no-cache`, the aggregate result/shard
    // counter object otherwise (see `cache_json`).
    let cache = cache_json(&s.shards);
    // Delta lineage: the serving manifest's parent chain (nearest
    // ancestor first), how many documents it carries vs rewrote, and
    // the lifetime cache carry-over counters.
    let chain = gen
        .parent_chain
        .iter()
        .map(|g| g.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let delta = format!(
        "{{\"parent_chain\":[{}],\"chain_depth\":{},\"docs_carried\":{},\"docs_rewritten\":{},\"carry_over\":{{\"kept\":{},\"rekeyed\":{},\"evicted\":{}}}}}",
        chain,
        gen.parent_chain.len(),
        gen.docs_carried,
        gen.docs_rewritten,
        s.carry_kept.load(Ordering::SeqCst),
        s.carry_rekeyed.load(Ordering::SeqCst),
        s.carry_evicted.load(Ordering::SeqCst),
    );
    // Persistent-index observability: how many documents serve off
    // `.xidx` segments, their total encoded bytes, and how many posting
    // lists have been lazily materialized so far.
    let index = format!(
        "{{\"segments\":{},\"bytes\":{},\"terms_loaded\":{}}}",
        gen.coll.segment_count(),
        gen.coll.index_bytes(),
        gen.coll.index_terms_loaded(),
    );
    // Per-shard fault-domain detail, in shard order (see the schema
    // comment in `protocol.rs`): pool state, respawn and evaluation
    // lifetime counters, singleflight accounting, and the shard's own
    // cache arena.
    let shards: Vec<String> = s
        .shards
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            let (workers, queued, in_flight) = {
                let g = shard.inner.lock().unwrap();
                (g.workers_alive, g.queue.len(), g.in_flight)
            };
            let fl = shard.flights.stats();
            format!(
                "{{\"shard\":{},\"docs\":{},\"workers\":{},\"queued\":{},\"in_flight\":{},\"respawns\":{},\"evaluations\":{},\"flights\":{{\"led\":{},\"coalesced\":{},\"aborted\":{}}},\"cache\":{}}}",
                i,
                gen.shard_docs.get(i).map_or(0, Vec::len),
                workers,
                queued,
                in_flight,
                shard.respawns.load(Ordering::SeqCst),
                shard.evaluations.load(Ordering::SeqCst),
                fl.led,
                fl.coalesced,
                fl.aborted,
                cache_json([shard]),
            )
        })
        .collect();
    let shards = format!("[{}]", shards.join(","));
    format!(
        "{{\"id\":{},\"status\":\"ok\",\"generation\":{},\"reloads\":{{\"ok\":{},\"failed\":{}}},\"quarantined\":{},\"serve\":{{\"total\":{},\"ok\":{},\"degraded\":{},\"shed\":{},\"timeout\":{},\"error\":{},\"shutting_down\":{},\"invalid\":{},\"worker_panics\":{},\"accept_errors\":{}}},\"eval\":{},\"latency\":{},\"cache\":{},\"delta\":{},\"index\":{},\"shards\":{}}}",
        id,
        gen.number,
        s.reloads_ok.load(Ordering::SeqCst),
        s.reloads_failed.load(Ordering::SeqCst),
        quarantined,
        st.total,
        st.ok,
        st.degraded,
        st.shed,
        st.timeout,
        st.error,
        st.shutting_down,
        st.invalid,
        st.worker_panics,
        st.accept_errors,
        serde_json::to_string(&st.eval).expect("stats serialize"),
        st.latency.to_json(),
        cache,
        delta,
        index,
        shards,
    )
}

/// Worker thread body for one shard: pop jobs until the shard's queue
/// is empty *and* the server is draining. A panicking request is
/// isolated to its shard: the payload becomes a structured sub-reply, a
/// replacement worker joins the same shard's pool, and only then does
/// the poisoned thread exit — sibling shards never notice.
fn worker_loop(s: Arc<Shared>, shard_idx: usize) {
    let shard = &s.shards[shard_idx];
    loop {
        let job = {
            let mut g = shard.inner.lock().unwrap();
            loop {
                if let Some(j) = g.queue.pop_front() {
                    break j;
                }
                if s.shutdown.load(Ordering::SeqCst) {
                    g.workers_alive -= 1;
                    drop(g);
                    poke_drain(&s);
                    return;
                }
                g = shard.work_cv.wait(g).unwrap();
            }
        };
        match catch_unwind(AssertUnwindSafe(|| handle_shard_query(&s, &job))) {
            Ok(reply) => finish_job(&s, job, reply),
            Err(payload) => {
                {
                    let mut st = s.stats.lock().unwrap();
                    st.worker_panics += 1;
                }
                let msg = panic_message(payload.as_ref());
                let reply = ShardReply::Panicked(format!(
                    "worker panicked (isolated): {}",
                    msg.lines().next().unwrap_or("")
                ));
                shard.respawns.fetch_add(1, Ordering::SeqCst);
                // Respawn first so the shard's pool never shrinks.
                shard.inner.lock().unwrap().workers_alive += 1;
                let replacement = Arc::clone(&s);
                std::thread::spawn(move || worker_loop(replacement, shard_idx));
                finish_job(&s, job, reply);
                shard.inner.lock().unwrap().workers_alive -= 1;
                poke_drain(&s);
                return;
            }
        }
    }
}

/// Send the sub-reply (tagged with its shard) and release the shard's
/// in-flight slot.
fn finish_job(s: &Shared, job: ShardJob, reply: ShardReply) {
    // A gather that already gave up on this shard (or a client that
    // hung up) just discards the reply; not an error.
    let _ = job.reply.send((job.shard, reply));
    s.shards[job.shard].inner.lock().unwrap().in_flight -= 1;
    poke_drain(s);
}

/// Ceiling on how long a singleflight follower waits for its leader
/// when the request itself has no deadline. Purely a hang backstop:
/// on any wait outcome the follower re-runs through the cache, so
/// waking early costs one redundant evaluation, never a wrong answer.
const FOLLOWER_WAIT_CAP: Duration = Duration::from_secs(60);

/// Evaluate one shard's document slice. Runs inside the worker's
/// `catch_unwind`, so a panic anywhere below is isolated per sub-job.
fn handle_shard_query(s: &Shared, job: &ShardJob) -> ShardReply {
    let req = &*job.req;
    // The corpus snapshot was pinned at admission (not here): every
    // shard of one request answers from the same generation even if a
    // reload swapped the shared pointer mid-scatter.
    let gen = &job.gen;
    let coll = &gen.coll;
    let shard = &s.shards[job.shard];
    // The gather may have given this sub-job up while it sat queued
    // (deadline plus grace passed, or a sibling shard failed the
    // request); don't burn a worker evaluating a dead sub-job. Nobody
    // reads the reply, so its shape is immaterial — Timeout matches
    // what evaluation would return.
    if job.cancel.is_cancelled() {
        return ShardReply::Timeout("cancelled before evaluation started".into());
    }
    // Fault-injection point for the worker itself: `panic` unwinds into
    // the worker's catch_unwind, `delay:<ms>` stalls, `cancel`
    // short-circuits here. Fired before the deadline is measured so an
    // injected stall longer than the deadline surfaces as a `timeout`
    // response, exactly like a real slow worker.
    if let Some(inj) = &s.fault {
        if inj.fire(site::SERVE_WORKER).is_err() {
            return ShardReply::Error("cancelled by injected fault at serve:worker".into());
        }
    }
    // Effective deadline: the tighter of the request's and the server's,
    // measured from admission (queue time counts against the request).
    let deadline = match (s.timeout_ms, req.timeout_ms) {
        (None, None) => None,
        (a, b) => Some(Duration::from_millis(
            a.unwrap_or(u64::MAX).min(b.unwrap_or(u64::MAX)),
        )),
    };
    let waited = job.enqueued.elapsed();
    let remaining = match deadline {
        Some(d) if waited >= d => {
            return ShardReply::Timeout(format!(
                "deadline of {} ms passed before evaluation started",
                d.as_millis()
            ));
        }
        Some(d) => Some(d - waited),
        None => None,
    };
    if req.keywords.is_empty() {
        return ShardReply::Error("query needs keywords".into());
    }
    let strategy = match req.strategy() {
        Ok(v) => v,
        Err(e) => return ShardReply::Error(e),
    };
    let degrade = match req.degrade() {
        Ok(v) => v,
        Err(e) => return ShardReply::Error(e),
    };
    let q = Query::new(req.keywords.iter(), req.filter());
    let mut budget: Budget = req.budget();
    budget.wall_clock = remaining;
    // The job's own token, not a fresh one: the gather cancels it when
    // it gives the sub-job up, and the watchdog below cancels it at the
    // deadline.
    let token = job.cancel.clone();
    let mut policy = ExecPolicy::with_budget(budget)
        .with_degrade(degrade)
        .with_cancel(token.clone());
    if let Some(f) = &s.fault {
        policy = policy.with_fault(Arc::clone(f));
    }
    // Watchdog: cancels the token when the deadline passes, covering
    // stretches where the governor's own wall-clock checks are sparse.
    let done = Arc::new(AtomicBool::new(false));
    let watchdog = remaining.map(|rem| {
        let t = token.clone();
        let d = Arc::clone(&done);
        std::thread::spawn(move || {
            let start = Instant::now();
            while start.elapsed() < rem && !d.load(Ordering::SeqCst) {
                std::thread::park_timeout(rem.saturating_sub(start.elapsed()));
            }
            if !d.load(Ordering::SeqCst) {
                t.cancel();
            }
        })
    });
    let docs = &gen.shard_docs[job.shard];
    let cache_ref = shard.cache.as_deref().map(|c| (c, gen.tag));
    let run = || {
        evaluate_collection_traced(
            coll,
            &q,
            strategy,
            &policy,
            &Tracer::disabled(),
            cache_ref,
            docs,
        )
    };
    let result = if shard.cache.is_none() {
        // No cache, nothing to coalesce onto: a follower would have no
        // stored result to replay, so every request evaluates.
        run()
    } else {
        // Coalesce concurrent identical cold queries. The key covers
        // everything that shapes the *evaluation* (snapshot tag, terms,
        // filter shape, strategy, degrade ladder, budgets, deadline
        // presence) — `id` and `top_k` are deliberately absent: they
        // only shape the response envelope, not the cached result.
        // Collisions are benign either way: a follower always re-runs
        // through the cache and evaluates itself on a miss.
        let key = flight_key(&format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            gen.tag,
            req.keywords,
            req.size,
            req.height,
            req.width,
            strategy,
            req.degrade,
            req.max_joins,
            req.max_fragments,
        ));
        match shard.flights.join(key) {
            Flight::Leader(lease) => {
                let r = run();
                if r.is_ok() {
                    // Wake followers to probe the cache. A degraded or
                    // uncacheable result simply won't be there — they
                    // miss and evaluate themselves, which is correct,
                    // just not coalesced.
                    lease.complete();
                }
                // On `Err` (or a panic unwinding past us) the lease's
                // Drop aborts the flight and followers re-evaluate
                // instead of hanging.
                r
            }
            Flight::Follower(f) => {
                // Whatever the outcome — leader done, leader aborted,
                // or our own deadline — re-run *through the cache*:
                // a completed leader's result is replayed from there
                // (with its governor checkpoints and fault points, per
                // the PR-5 replay invariant), never cloned across
                // requests; anything else is evaluated fresh.
                let _ = f.wait(remaining.unwrap_or(FOLLOWER_WAIT_CAP));
                run()
            }
        }
    };
    done.store(true, Ordering::SeqCst);
    if let Some(w) = &watchdog {
        w.thread().unpark(); // let it exit promptly; no need to join
    }
    match result {
        Ok(r) => {
            // A pure cache replay has `cache_misses == 0` (stored
            // entries are stripped of their own lookup accounting);
            // anything else did real evaluation work on this shard.
            if shard.cache.is_none() || r.stats.cache_misses > 0 {
                shard.evaluations.fetch_add(1, Ordering::SeqCst);
            }
            ShardReply::Eval(Box::new(r))
        }
        Err(QueryError::Cancelled) if token.is_cancelled() => {
            ShardReply::Timeout("deadline exceeded during evaluation".into())
        }
        Err(QueryError::BudgetExceeded(Breach::Deadline)) => {
            ShardReply::Timeout("deadline exceeded during evaluation".into())
        }
        Err(e) => ShardReply::Error(e.to_string()),
    }
}

/// `xfrag request <addr> <json>` — one-shot client: send one request
/// line, print the one response line. Used by CI smoke scripts and the
/// soak test so no external netcat-style tool is needed.
pub fn request(addr: &str, json: &str) -> Result<String, CliError> {
    let stream = TcpStream::connect(addr).map_err(|e| CliError::Io(addr.to_string(), e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| CliError::Io(addr.to_string(), e))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| CliError::Io(addr.to_string(), e))?;
    writer
        .write_all(json.as_bytes())
        .and_then(|_| writer.write_all(b"\n"))
        .and_then(|_| writer.flush())
        .map_err(|e| CliError::Io(addr.to_string(), e))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| CliError::Io(addr.to_string(), e))?;
    if line.is_empty() {
        return Err(CliError::Query(
            "server closed the connection without replying".into(),
        ));
    }
    if !line.ends_with('\n') {
        line.push('\n');
    }
    Ok(line)
}

/// Reply statuses worth retrying: the server said "not now", not "no".
fn is_retryable_reply(line: &str) -> bool {
    [status::SHED, status::TIMEOUT, status::SHUTTING_DOWN]
        .iter()
        .any(|s| line.contains(&format!("\"status\":\"{s}\"")))
}

/// A reply whose merge is missing shards. Substring probing is sound
/// here: the raw bytes `"complete":false` cannot appear inside a JSON
/// string value, where every interior quote is escaped as `\"`.
fn is_partial_reply(line: &str) -> bool {
    line.contains("\"complete\":false")
}

/// Transport failures worth retrying: the server may be booting,
/// restarting, or mid-drain.
fn is_retryable_error(e: &CliError) -> bool {
    use std::io::ErrorKind;
    match e {
        CliError::Io(_, io) => matches!(
            io.kind(),
            ErrorKind::ConnectionRefused
                | ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::TimedOut
                | ErrorKind::WouldBlock
        ),
        CliError::Query(m) => m.contains("without replying"),
        _ => false,
    }
}

/// `xfrag request` with a bounded retry budget. With `retries == 0`
/// this is exactly [`request`] except that a partial reply
/// (`"complete":false`) is surfaced as [`CliError::PartialResult`]:
/// the line is still printed, but the exit code is 4 so scripts can
/// tell a full merge from a degraded one. With retries, retryable
/// outcomes (shed, timeout, or shutting-down replies; refused/reset/
/// timed-out connections) are retried with exponential backoff plus
/// deterministic jitter, up to `retries` extra attempts; exhaustion is
/// [`CliError::RetriesExhausted`] (exit code 3). Partial replies are
/// *not* retried unless `retry_partial` is set — a partial answer is
/// an answer, and hammering a degraded server by default would feed
/// the very overload that degraded it. Non-retryable failures surface
/// immediately (exit 1).
///
/// `retry_budget_ms` is a wall-clock deadline shared across *all*
/// attempts, measured from the first connect: once it passes, no
/// further attempt starts (mid-flight attempts are not torn down), and
/// backoff sleeps are clamped to the time remaining so the budget is
/// never overshot by a sleep. Exhausting the budget is reported as
/// [`CliError::RetriesExhausted`] — the server never misbehaved, the
/// client ran out of patience — which keeps exit 3 ("try again later")
/// distinct from exit 1 (permanent failure); see the README exit-code
/// table. Without it, `--retries N` alone can amplify a brown-out:
/// N clients × N retries all camped on a struggling server.
pub fn request_with_retry(
    addr: &str,
    json: &str,
    retries: u32,
    backoff_ms: u64,
    retry_partial: bool,
    retry_budget_ms: Option<u64>,
) -> Result<String, CliError> {
    let budget = RetryBudget::new(retries as u64, retry_budget_ms.map(Duration::from_millis));
    if retries == 0 {
        let line = request(addr, json)?;
        if is_partial_reply(&line) {
            return Err(CliError::PartialResult(line));
        }
        return Ok(line);
    }
    // SplitMix64 jitter, seeded per process so concurrent clients that
    // all got shed don't re-stampede the server in lockstep.
    let mut z = 0x9e3779b97f4a7c15u64 ^ (std::process::id() as u64);
    let mut jitter = move || {
        z = z.wrapping_add(0x9e3779b97f4a7c15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    };
    let mut last = String::new();
    // The freshest partial reply seen, kept so exhaustion can still
    // hand the caller a usable (if incomplete) answer via exit 4.
    let mut partial: Option<String> = None;
    let mut budget_spent = false;
    for attempt in 0..=retries {
        if attempt > 0 {
            // Attempt 0 is free; each retry draws on the shared budget
            // (attempt count and wall clock both), so the loop can stop
            // early without ever starting a doomed attempt.
            if !budget.try_spend() {
                budget_spent = true;
                break;
            }
            let base = backoff_ms.saturating_mul(1u64 << (attempt - 1).min(16));
            let mut sleep = base.saturating_add(jitter() % base.max(1));
            if let Some(rem) = budget.remaining() {
                // Clamp the sleep so the budget is spent retrying, not
                // sleeping past its own deadline.
                sleep = sleep.min(u64::try_from(rem.as_millis()).unwrap_or(u64::MAX));
            }
            eprintln!(
                "retry {attempt}/{retries} in {sleep} ms: {}",
                last.lines().next().unwrap_or("")
            );
            std::thread::sleep(Duration::from_millis(sleep));
            if budget.expired() {
                budget_spent = true;
                break;
            }
        }
        match request(addr, json) {
            Ok(line) if is_retryable_reply(&line) => {
                last = line.trim_end().to_string();
                partial = None;
            }
            Ok(line) if is_partial_reply(&line) => {
                if !retry_partial {
                    return Err(CliError::PartialResult(line));
                }
                last = line.trim_end().to_string();
                partial = Some(line);
            }
            Ok(line) => return Ok(line),
            Err(e) if is_retryable_error(&e) => {
                last = e.to_string();
                partial = None;
            }
            Err(e) => return Err(e),
        }
    }
    if let Some(line) = partial {
        return Err(CliError::PartialResult(line));
    }
    if budget_spent {
        return Err(CliError::RetriesExhausted(format!(
            "retry budget of {} ms exhausted after {addr} kept failing; last outcome: {last}",
            retry_budget_ms.unwrap_or(0),
        )));
    }
    Err(CliError::RetriesExhausted(format!(
        "{} attempt(s) to {addr} all failed; last outcome: {last}",
        retries as u64 + 1,
    )))
}
