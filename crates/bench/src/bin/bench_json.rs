//! `bench_json` — the cache-trajectory benchmark (ISSUE 5 satellite):
//! a seeded, Zipf-skewed repeated-query workload evaluated twice — cold
//! (no cache) and warm (through a shared [`QueryCache`]) — emitting a
//! machine-readable `BENCH_5.json` with p50/p95 latency, QPS, and the
//! result-tier hit rate.
//!
//! Usage:
//!
//! ```text
//! bench_json [--smoke] [--out PATH] [--out6 PATH] [--out7 PATH] [--out8 PATH]
//! ```
//!
//! `--smoke` shrinks the workload for CI (seconds, not minutes) and
//! skips the p50 regression gate, which is noise-prone at smoke sizes;
//! the full run *fails* unless warm p50 is strictly below cold p50.
//! Everything is seeded: the same invocation produces the same request
//! stream, so latency differences come from the cache, not the workload.
//!
//! A second scenario (ISSUE 6 satellite) spreads the same stream over
//! `DELTA_DOCS` simulated documents and measures the result-tier hit
//! rate across four phases — cold fill, warm replay, full reload (fresh
//! generation, nothing carried), and delta reload (fresh generation,
//! [`QueryCache::carry_over`] maps every unchanged document) — emitting
//! `BENCH_6.json`. Its gate is counter-exact and runs in both modes:
//! the delta-reload hit rate must not dip below the warm rate scaled by
//! the unchanged fraction.
//!
//! A third scenario times the *cold* query path on a large document,
//! from encoded bytes to first answer: the tree variant decodes the
//! `.xfrg` store and builds the [`InvertedIndex`] in memory, the indexed
//! variant decodes the same store plus a persistent `.xidx`
//! [`SegmentIndex`] and evaluates off lazily-materialized postings —
//! emitting `BENCH_7.json`. Both variants must return identical
//! fragments and stats under push-down, the strategy timed; the
//! full-mode gate requires the indexed cold p50 to be strictly below the
//! tree cold p50.
//!
//! A fourth scenario (ISSUE 8 tentpole) measures scatter-gather
//! sharding: a multi-document collection is partitioned by the serve
//! path's name-hash routing and the same query stream is evaluated at
//! 1/2/4/8 shards, one thread per shard per request — emitting
//! `BENCH_8.json` with the per-request p95 at each width plus a
//! stampede microbenchmark of N identical cold queries with and
//! without singleflight coalescing. Gates: coalescing must collapse
//! the stampede to exactly one evaluation (both modes), and the
//! 4-shard p95 must beat single-shard in full mode on machines with
//! at least 4 cores (scatter cannot win without parallelism to spend).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use xfrag_bench::fixtures::{query_fixture, QueryFixture};
use xfrag_core::{
    evaluate, evaluate_collection_traced, evaluate_traced, flight_key, CacheRef, CacheStats,
    DocAnswers, ExecPolicy, FilterExpr, Flight, GenerationTag, Query, QueryCache, Singleflight,
    Strategy, Tracer,
};
use xfrag_corpus::zipf::Zipf;
use xfrag_doc::{encode_segment, store, Collection, DocId, InvertedIndex, SegmentIndex};

const SEED: u64 = 42;
const ZIPF_S: f64 = 1.1;
const CACHE_MB: u64 = 64;
/// Simulated corpus size for the delta-reload scenario; requests are
/// assigned round-robin, so changing one document invalidates exactly
/// `1/DELTA_DOCS` of the request stream.
const DELTA_DOCS: u32 = 12;

/// One distinct query shape in the workload pool.
struct PoolEntry {
    query: Query,
    strategy: Strategy,
}

/// The pool of distinct queries: term subsets × filters × strategies.
/// Brute force is excluded — it exists as a correctness oracle, and its
/// powerset enumeration would dominate the timings of the other three.
fn build_pool() -> Vec<PoolEntry> {
    let term_sets: [&[&str]; 3] = [&["kwalpha", "kwbeta"], &["kwalpha"], &["kwbeta"]];
    let filters = [
        FilterExpr::True,
        FilterExpr::MaxSize(8),
        FilterExpr::MaxSize(14),
        FilterExpr::MaxHeight(3),
    ];
    let strategies = [
        Strategy::FixedPointNaive,
        Strategy::FixedPointReduced,
        Strategy::PushDown,
    ];
    let mut pool = Vec::new();
    for terms in term_sets {
        for filter in &filters {
            for &strategy in &strategies {
                pool.push(PoolEntry {
                    query: Query::new(terms.iter().map(|t| t.to_string()), filter.clone()),
                    strategy,
                });
            }
        }
    }
    pool
}

/// Evaluate the whole request stream, returning per-request latencies.
fn run_stream(
    fx: &QueryFixture,
    pool: &[PoolEntry],
    stream: &[usize],
    cache: Option<CacheRef<'_>>,
) -> Vec<Duration> {
    let policy = ExecPolicy::unlimited();
    let tracer = Tracer::disabled();
    let mut latencies = Vec::with_capacity(stream.len());
    for &i in stream {
        let e = &pool[i];
        let t0 = Instant::now();
        let r = evaluate_traced(
            &fx.doc,
            &fx.index,
            &e.query,
            e.strategy,
            Some(&policy),
            &tracer,
            cache,
        )
        .expect("unlimited workload evaluation cannot fail");
        latencies.push(t0.elapsed());
        std::hint::black_box(r.fragments.len());
    }
    latencies
}

/// The `p`-th percentile (nearest-rank on the sorted copy), in
/// microseconds.
fn percentile_us(latencies: &[Duration], p: f64) -> f64 {
    let mut sorted: Vec<Duration> = latencies.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank].as_secs_f64() * 1e6
}

fn qps(latencies: &[Duration], wall: Duration) -> f64 {
    latencies.len() as f64 / wall.as_secs_f64().max(1e-9)
}

struct PassReport {
    p50_us: f64,
    p95_us: f64,
    qps: f64,
}

fn measure(latencies: &[Duration], wall: Duration) -> PassReport {
    PassReport {
        p50_us: percentile_us(latencies, 50.0),
        p95_us: percentile_us(latencies, 95.0),
        qps: qps(latencies, wall),
    }
}

/// Result-tier `(hits, misses, hit_rate)` accumulated by one pass over
/// the stream with requests spread round-robin across `DELTA_DOCS`
/// simulated documents, keyed under `gen`.
fn delta_pass(
    fx: &QueryFixture,
    pool: &[PoolEntry],
    stream: &[usize],
    cache: &QueryCache,
    gen: GenerationTag,
) -> (u64, u64, f64) {
    let policy = ExecPolicy::unlimited();
    let tracer = Tracer::disabled();
    let before = cache.stats().result;
    for (req, &i) in stream.iter().enumerate() {
        let e = &pool[i];
        let cref = CacheRef {
            cache,
            gen,
            doc: req as u32 % DELTA_DOCS,
        };
        let r = evaluate_traced(
            &fx.doc,
            &fx.index,
            &e.query,
            e.strategy,
            Some(&policy),
            &tracer,
            Some(cref),
        )
        .expect("unlimited workload evaluation cannot fail");
        std::hint::black_box(r.fragments.len());
    }
    let after = cache.stats().result;
    let (h, m) = (after.hits - before.hits, after.misses - before.misses);
    (h, m, h as f64 / ((h + m) as f64).max(1.0))
}

/// The delta-reload scenario: returns the BENCH_6 JSON and whether the
/// hit-rate dip bound held.
///
/// Uses its own fixture and stream, sized so every entry of every phase
/// fits in the cache: the gate reasons counter-exactly about carry-over,
/// which LRU evictions (the BENCH_5 full workload overflows 64 MB by
/// design) would turn into noise.
fn delta_scenario(pool: &[PoolEntry], smoke: bool) -> (String, bool) {
    let requests = if smoke { 72usize } else { 240usize };
    let fx = query_fixture(400, 5, 5, SEED);
    let zipf = Zipf::new(pool.len(), ZIPF_S);
    let mut rng = StdRng::seed_from_u64(SEED);
    let stream: Vec<usize> = (0..requests).map(|_| zipf.sample(&mut rng) - 1).collect();
    let (fx, stream) = (&fx, &stream[..]);
    let cache = QueryCache::with_capacity_mb(CACHE_MB);
    let gen_a = GenerationTag::fresh();
    // Phase 1: cold fill (misses dominate; Zipf repeats already hit).
    let cold = delta_pass(fx, pool, stream, &cache, gen_a);
    // Phase 2: warm replay of the identical stream — the steady state.
    let warm = delta_pass(fx, pool, stream, &cache, gen_a);
    // Phase 3: full reload. A fresh tag with no carry-over: every entry
    // is implicitly invalidated, so the replay starts from zero.
    let gen_b = GenerationTag::fresh();
    let full = delta_pass(fx, pool, stream, &cache, gen_b);
    // Phase 4: delta reload. Document 0 changed; every other document's
    // entries are carried (identity ids — nothing was renumbered).
    let gen_c = GenerationTag::fresh();
    let map: HashMap<u32, u32> = (1..DELTA_DOCS).map(|d| (d, d)).collect();
    let co = cache.carry_over(gen_b, gen_c, &map);
    let delta = delta_pass(fx, pool, stream, &cache, gen_c);

    let changed_requests = stream.len().div_ceil(DELTA_DOCS as usize);
    let changed_fraction = changed_requests as f64 / stream.len() as f64;
    // The acceptance bar: carrying over must preserve the warm hit rate
    // scaled by the unchanged fraction of the stream (counter-exact, so
    // the epsilon only absorbs float formatting). A full reload, by
    // contrast, starts from nothing: its counters must replay the cold
    // fill exactly (in-pass Zipf repeats hit either way).
    let bound = warm.2 * (1.0 - changed_fraction) - 1e-9;
    let ok = delta.2 >= bound && (full.0, full.1) == (cold.0, cold.1);

    let phase = |name: &str, p: (u64, u64, f64)| {
        format!(
            "\"{name}\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}}",
            p.0, p.1, p.2
        )
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"delta-reload-cache-carryover\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"seed\": {seed},\n",
            "  \"zipf_s\": {zipf_s},\n",
            "  \"doc_nodes\": {doc_nodes},\n",
            "  \"requests\": {requests},\n",
            "  \"docs\": {docs},\n",
            "  \"changed_docs\": 1,\n",
            "  \"changed_requests\": {changed_requests},\n",
            "  \"changed_fraction\": {cf:.4},\n",
            "  \"phases\": {{\n",
            "    {cold},\n",
            "    {warm},\n",
            "    {full},\n",
            "    {delta}\n",
            "  }},\n",
            "  \"carry_over\": {{\"kept\": {kept}, \"rekeyed\": {rekeyed}, \"evicted\": {evicted}}},\n",
            "  \"delta_hit_rate_bound\": {bound:.4}\n",
            "}}\n"
        ),
        mode = if smoke { "smoke" } else { "full" },
        seed = SEED,
        zipf_s = ZIPF_S,
        doc_nodes = fx.doc.len(),
        requests = stream.len(),
        docs = DELTA_DOCS,
        changed_requests = changed_requests,
        cf = changed_fraction,
        cold = phase("cold_fill", cold),
        warm = phase("warm_replay", warm),
        full = phase("full_reload", full),
        delta = phase("delta_reload", delta),
        kept = co.kept,
        rekeyed = co.rekeyed,
        evicted = co.evicted,
        bound = warm.2 * (1.0 - changed_fraction),
    );
    if !ok {
        eprintln!(
            "bench_json: FAIL: delta-reload hit rate {:.4} dipped below {:.4} \
             (warm {:.4} x unchanged fraction), or full reload ({}/{}) \
             did not replay the cold fill ({}/{})",
            delta.2, bound, warm.2, full.0, full.1, cold.0, cold.1
        );
    }
    (json, ok)
}

/// The cold-query scenario: returns the BENCH_7 JSON and whether the
/// speedup gate held.
///
/// Everything that `xfrag index` would have produced — the `.xfrg`
/// store bytes and the `.xidx` segment bytes — is encoded *outside* the
/// timed region: the scenario measures the cold query path, not
/// indexing. Each timed iteration then replays exactly what a cold
/// server does per document: decode the store, stand up an index
/// backend (build in memory vs decode the persistent segment), and
/// answer one two-term query. The JSON's `"tree"` object is the
/// in-memory backend; the key predates the labels every document now
/// navigates by.
fn cold_index_scenario(smoke: bool) -> (String, bool) {
    let (nodes, iters) = if smoke {
        (2_000usize, 5usize)
    } else {
        (120_000usize, 12usize)
    };
    let fx = query_fixture(nodes, 12, 12, SEED);
    let doc_bytes = store::encode(&fx.doc);
    let seg_bytes = encode_segment(&fx.doc);
    let query = Query::new(["kwalpha", "kwbeta"], FilterExpr::MaxSize(8));

    // Correctness before timing, for the strategy timed below. The
    // unfiltered fixed points of naive and reduced are exponential at
    // df 12 + 12 (§4); tests/indexed_differential.rs compares the two
    // backends under all four strategies on smaller operands.
    let seg = SegmentIndex::from_bytes(&seg_bytes).expect("segment roundtrip");
    let tree = evaluate(&fx.doc, &fx.index, &query, Strategy::PushDown).expect("tree evaluation");
    let indexed = evaluate(&fx.doc, &seg, &query, Strategy::PushDown).expect("indexed evaluation");
    assert_eq!(
        tree.fragments, indexed.fragments,
        "tree and indexed backends disagree"
    );

    let mut tree_lat = Vec::with_capacity(iters);
    let mut tree_stats = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let doc = store::decode(&doc_bytes).expect("store decode");
        let index = InvertedIndex::build(&doc);
        let r = evaluate(&doc, &index, &query, Strategy::PushDown).expect("tree evaluation");
        tree_lat.push(t0.elapsed());
        std::hint::black_box(r.fragments.len());
        tree_stats = Some(r.stats);
    }
    let mut idx_lat = Vec::with_capacity(iters);
    let mut idx_stats = None;
    let mut terms_loaded = 0;
    let mut term_count = 0;
    for _ in 0..iters {
        let t0 = Instant::now();
        let doc = store::decode(&doc_bytes).expect("store decode");
        let seg = SegmentIndex::from_bytes(&seg_bytes).expect("segment decode");
        let r = evaluate(&doc, &seg, &query, Strategy::PushDown).expect("indexed evaluation");
        idx_lat.push(t0.elapsed());
        std::hint::black_box(r.fragments.len());
        idx_stats = Some(r.stats);
        (terms_loaded, term_count) = (seg.terms_loaded(), seg.term_count());
    }
    let (tree_stats, idx_stats) = (tree_stats.unwrap(), idx_stats.unwrap());
    // The lazy-loading claim, counter-exact: one materialization per
    // query term, out of the segment's full vocabulary.
    assert_eq!(terms_loaded, 2, "expected one load per query term");
    assert!(term_count > 2, "vocabulary should dwarf the query");
    // The backends differ only in where postings come from.
    assert_eq!(
        tree_stats, idx_stats,
        "tree and indexed runs did different work"
    );

    let tree_p50 = percentile_us(&tree_lat, 50.0);
    let idx_p50 = percentile_us(&idx_lat, 50.0);
    let ok = smoke || idx_p50 < tree_p50;
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"cold-query-persistent-index\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"seed\": {seed},\n",
            "  \"doc_nodes\": {doc_nodes},\n",
            "  \"doc_bytes\": {doc_bytes},\n",
            "  \"segment_bytes\": {segment_bytes},\n",
            "  \"segment_terms\": {segment_terms},\n",
            "  \"terms_loaded\": {terms_loaded},\n",
            "  \"iterations\": {iters},\n",
            "  \"tree\": {{\"p50_us\": {tp50:.2}, \"p95_us\": {tp95:.2}}},\n",
            "  \"indexed\": {{\"p50_us\": {ip50:.2}, \"p95_us\": {ip95:.2}}},\n",
            "  \"cold_speedup_p50\": {speedup:.2}\n",
            "}}\n"
        ),
        mode = if smoke { "smoke" } else { "full" },
        seed = SEED,
        doc_nodes = fx.doc.len(),
        doc_bytes = doc_bytes.len(),
        segment_bytes = seg_bytes.len(),
        segment_terms = term_count,
        terms_loaded = terms_loaded,
        iters = iters,
        tp50 = tree_p50,
        tp95 = percentile_us(&tree_lat, 95.0),
        ip50 = idx_p50,
        ip95 = percentile_us(&idx_lat, 95.0),
        speedup = tree_p50 / idx_p50.max(1e-9),
    );
    if !ok {
        eprintln!(
            "bench_json: FAIL: indexed cold p50 ({idx_p50:.2} us) is not strictly \
             below tree cold p50 ({tree_p50:.2} us)"
        );
    }
    (json, ok)
}

/// FNV-1a over a document's display name — the same routing function as
/// `xfrag serve --shards N`, duplicated here so the bench partitions the
/// collection exactly like the serve path does.
fn route(name: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// The scatter-gather scenario: returns the BENCH_8 JSON and whether the
/// gates held.
///
/// Part one mirrors the sharded serve path in-process: a multi-document
/// collection is partitioned by name hash at widths 1/2/4/8, and every
/// request evaluates one thread per non-empty shard over its document
/// subset, then merges by document id — exactly the scatter-gather the
/// server runs, minus the sockets. Merged answers must be identical at
/// every width (the byte-determinism invariant, checked per request).
/// Part two is the stampede: `CLIENTS` identical cold queries released
/// by a barrier against a fresh cache, with and without singleflight
/// coalescing; evaluations are counted from the per-result cache-miss
/// counters (a replayed result has `cache_misses == 0`). Coalescing
/// must collapse the stampede to exactly one evaluation in both modes;
/// the full run additionally requires the 4-shard p95 to be strictly
/// below single-shard — but only on hardware with at least 4 cores:
/// thread-per-shard scatter cannot beat a single shard without
/// parallelism to spend, so on narrower machines the widths are
/// reported (with the core count) and the gate is answer-identity
/// plus coalescing only.
fn scatter_scenario(pool: &[PoolEntry], smoke: bool) -> (String, bool) {
    const SCATTER_DOCS: usize = 12;
    const WIDTHS: [usize; 4] = [1, 2, 4, 8];
    const CLIENTS: usize = 32;
    let (nodes, requests) = if smoke {
        (300usize, 24usize)
    } else {
        (2_500usize, 96usize)
    };

    let mut coll = Collection::new();
    for d in 0..SCATTER_DOCS {
        let fx = query_fixture(nodes, 5, 5, SEED + d as u64);
        coll.add(format!("doc-{d:02}.xml"), fx.doc);
    }
    let zipf = Zipf::new(pool.len(), ZIPF_S);
    let mut rng = StdRng::seed_from_u64(SEED);
    let stream: Vec<usize> = (0..requests).map(|_| zipf.sample(&mut rng) - 1).collect();
    let policy = ExecPolicy::unlimited();

    // Answers at width 1, per request, as (doc id, fragment count)
    // digests: every wider merge must reproduce them exactly.
    let mut baseline: Vec<Vec<(u32, usize)>> = Vec::with_capacity(stream.len());
    let mut width_p95: Vec<(usize, f64)> = Vec::with_capacity(WIDTHS.len());
    for &w in &WIDTHS {
        let mut shards: Vec<Vec<DocId>> = vec![Vec::new(); w];
        for id in coll.ids() {
            shards[route(coll.name(id), w)].push(id);
        }
        let mut lat = Vec::with_capacity(stream.len());
        for (ri, &i) in stream.iter().enumerate() {
            let e = &pool[i];
            let (coll_r, policy_r, query_r, strategy) = (&coll, &policy, &e.query, e.strategy);
            let t0 = Instant::now();
            let results: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = shards
                    .iter()
                    .filter(|docs| !docs.is_empty())
                    .map(|docs| {
                        s.spawn(move || {
                            evaluate_collection_traced(
                                coll_r,
                                query_r,
                                strategy,
                                policy_r,
                                &Tracer::disabled(),
                                None,
                                docs,
                            )
                            .expect("unlimited scatter evaluation cannot fail")
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard thread panicked"))
                    .collect()
            });
            let mut answers: Vec<DocAnswers> =
                results.into_iter().flat_map(|r| r.answers).collect();
            answers.sort_by_key(|a| a.doc.0);
            lat.push(t0.elapsed());
            let digest: Vec<(u32, usize)> = answers
                .iter()
                .map(|a| (a.doc.0, a.fragments.len()))
                .collect();
            if w == 1 {
                baseline.push(digest);
            } else {
                assert_eq!(
                    digest, baseline[ri],
                    "width {w} merge diverged from single shard on request {ri}"
                );
            }
        }
        width_p95.push((w, percentile_us(&lat, 95.0)));
    }
    let p95_at = |w: usize| width_p95.iter().find(|(x, _)| *x == w).unwrap().1;

    // The stampede. One document, one query, `CLIENTS` threads released
    // together against a cold cache. The document is sized so one
    // evaluation takes milliseconds — long enough that threads woken a
    // scheduler quantum apart still find the leader's flight in the air
    // (a sub-scheduling-latency evaluation has nothing worth coalescing).
    let sfx = query_fixture(if smoke { 4_000 } else { 20_000 }, 8, 8, SEED);
    let query = Query::new(["kwalpha", "kwbeta"], FilterExpr::MaxSize(8));
    // (evaluations, wall_us, flights led, requests coalesced).
    let stampede = |coalesce: bool| -> (u64, f64, u64, u64) {
        let cache = QueryCache::with_capacity_mb(CACHE_MB);
        let gen = GenerationTag::fresh();
        let flights = Singleflight::new();
        let evals = AtomicU64::new(0);
        let barrier = Barrier::new(CLIENTS);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                s.spawn(|| {
                    barrier.wait();
                    let cref = CacheRef {
                        cache: &cache,
                        gen,
                        doc: 0,
                    };
                    let run = || {
                        evaluate_traced(
                            &sfx.doc,
                            &sfx.index,
                            &query,
                            Strategy::PushDown,
                            Some(&ExecPolicy::unlimited()),
                            &Tracer::disabled(),
                            Some(cref),
                        )
                        .expect("unlimited stampede evaluation cannot fail")
                    };
                    let r = if coalesce {
                        match flights.join(flight_key(&("bench-stampede", gen))) {
                            Flight::Leader(lease) => {
                                let r = run();
                                lease.complete();
                                r
                            }
                            Flight::Follower(f) => {
                                let _ = f.wait(Duration::from_secs(60));
                                run()
                            }
                        }
                    } else {
                        run()
                    };
                    if r.stats.cache_misses > 0 {
                        evals.fetch_add(1, Ordering::Relaxed);
                    }
                    std::hint::black_box(r.fragments.len());
                });
            }
        });
        let wall_us = t0.elapsed().as_secs_f64() * 1e6;
        let sf = flights.stats();
        (evals.load(Ordering::Relaxed), wall_us, sf.led, sf.coalesced)
    };
    let (un_evals, un_wall, _, _) = stampede(false);
    let (co_evals, co_wall, co_led, co_waiters) = stampede(true);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ok = co_evals == 1 && un_evals >= co_evals && (smoke || cores < 4 || p95_at(4) < p95_at(1));
    let shards_json = width_p95
        .iter()
        .map(|(w, p)| format!("    {{\"shards\": {w}, \"p95_us\": {p:.2}}}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"scatter-gather-sharding\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"seed\": {seed},\n",
            "  \"cores\": {cores},\n",
            "  \"docs\": {docs},\n",
            "  \"doc_nodes\": {doc_nodes},\n",
            "  \"requests\": {requests},\n",
            "  \"widths\": [\n{shards}\n  ],\n",
            "  \"scatter_speedup_p95\": {speedup:.2},\n",
            "  \"stampede\": {{\n",
            "    \"clients\": {clients},\n",
            "    \"uncoalesced\": {{\"evaluations\": {ue}, \"wall_us\": {uw:.2}}},\n",
            "    \"coalesced\": {{\"evaluations\": {ce}, \"wall_us\": {cw:.2}, ",
            "\"flights_led\": {led}, \"waiters\": {waiters}}}\n",
            "  }}\n",
            "}}\n"
        ),
        mode = if smoke { "smoke" } else { "full" },
        seed = SEED,
        cores = cores,
        docs = SCATTER_DOCS,
        doc_nodes = nodes,
        requests = stream.len(),
        shards = shards_json,
        speedup = p95_at(1) / p95_at(4).max(1e-9),
        clients = CLIENTS,
        ue = un_evals,
        uw = un_wall,
        ce = co_evals,
        cw = co_wall,
        led = co_led,
        waiters = co_waiters,
    );
    if !ok {
        eprintln!(
            "bench_json: FAIL: stampede coalesced to {co_evals} evaluation(s) \
             (expected exactly 1, uncoalesced saw {un_evals}), or 4-shard p95 \
             ({:.2} us) is not strictly below single-shard p95 ({:.2} us) \
             on a {cores}-core machine",
            p95_at(4),
            p95_at(1)
        );
    }
    (json, ok)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out needs a path").clone())
        .unwrap_or_else(|| "BENCH_5.json".to_string());
    let out6_path = args
        .iter()
        .position(|a| a == "--out6")
        .map(|i| args.get(i + 1).expect("--out6 needs a path").clone())
        .unwrap_or_else(|| "BENCH_6.json".to_string());
    let out7_path = args
        .iter()
        .position(|a| a == "--out7")
        .map(|i| args.get(i + 1).expect("--out7 needs a path").clone())
        .unwrap_or_else(|| "BENCH_7.json".to_string());
    let out8_path = args
        .iter()
        .position(|a| a == "--out8")
        .map(|i| args.get(i + 1).expect("--out8 needs a path").clone())
        .unwrap_or_else(|| "BENCH_8.json".to_string());
    if let Some(bad) = args
        .iter()
        .enumerate()
        .find(|(i, a)| {
            !matches!(
                a.as_str(),
                "--smoke" | "--out" | "--out6" | "--out7" | "--out8"
            ) && !(*i > 0
                && (args[i - 1] == "--out"
                    || args[i - 1] == "--out6"
                    || args[i - 1] == "--out7"
                    || args[i - 1] == "--out8"))
        })
        .map(|(_, a)| a)
    {
        eprintln!(
            "bench_json: unknown argument {bad:?} \
             (expected --smoke, --out PATH, --out6 PATH, --out7 PATH, \
             --out8 PATH)"
        );
        std::process::exit(2);
    }

    let (nodes, requests, repeats, df) = if smoke {
        (400usize, 72usize, 1usize, 5usize)
    } else {
        (1_200usize, 400usize, 2usize, 8usize)
    };

    let fx = query_fixture(nodes, df, df, SEED);
    let pool = build_pool();
    let zipf = Zipf::new(pool.len(), ZIPF_S);
    let mut rng = StdRng::seed_from_u64(SEED);
    let stream: Vec<usize> = (0..requests).map(|_| zipf.sample(&mut rng) - 1).collect();
    let distinct = {
        let mut seen = vec![false; pool.len()];
        stream.iter().for_each(|&i| seen[i] = true);
        seen.iter().filter(|&&s| s).count()
    };

    // Cold: every request computed from scratch. Warm: the same stream
    // through one shared cache, so Zipf repeats become replays. The full
    // run repeats both passes and keeps the fastest wall time per pass
    // (standard min-of-N to shed scheduler noise); latency percentiles
    // come from the corresponding pass's samples.
    // (cold wall, cold latencies, warm wall, warm latencies, cache stats).
    type BestPass = (Duration, Vec<Duration>, Duration, Vec<Duration>, CacheStats);
    let mut best: Option<BestPass> = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let cold_lat = run_stream(&fx, &pool, &stream, None);
        let cold_wall = t0.elapsed();

        let cache = QueryCache::with_capacity_mb(CACHE_MB);
        let cref = CacheRef {
            cache: &cache,
            gen: GenerationTag::fresh(),
            doc: 0,
        };
        let t1 = Instant::now();
        let warm_lat = run_stream(&fx, &pool, &stream, Some(cref));
        let warm_wall = t1.elapsed();
        let cache_stats = cache.stats();

        let better = match &best {
            None => true,
            Some((cw, _, ww, _, _)) => cold_wall + warm_wall < *cw + *ww,
        };
        if better {
            best = Some((cold_wall, cold_lat, warm_wall, warm_lat, cache_stats));
        }
    }
    let (cold_wall, cold_lat, warm_wall, warm_lat, cache_stats) =
        best.expect("at least one repeat ran");

    // Hit rate of the warm pass, from the kept pass's cache counters so
    // the JSON is self-consistent.
    let (rh, rm) = (cache_stats.result.hits, cache_stats.result.misses);
    let hit_rate = rh as f64 / ((rh + rm) as f64).max(1.0);

    let cold = measure(&cold_lat, cold_wall);
    let warm = measure(&warm_lat, warm_wall);

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"zipf-repeated-query-cache\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"seed\": {seed},\n",
            "  \"zipf_s\": {zipf_s},\n",
            "  \"doc_nodes\": {doc_nodes},\n",
            "  \"requests\": {requests},\n",
            "  \"pool_size\": {pool_size},\n",
            "  \"distinct_queries_hit\": {distinct},\n",
            "  \"cache_mb\": {cache_mb},\n",
            "  \"cold\": {{\"p50_us\": {cp50:.2}, \"p95_us\": {cp95:.2}, \"qps\": {cqps:.1}}},\n",
            "  \"warm\": {{\"p50_us\": {wp50:.2}, \"p95_us\": {wp95:.2}, \"qps\": {wqps:.1}, \"hit_rate\": {hr:.4}}},\n",
            "  \"warm_speedup_p50\": {speedup:.2},\n",
            "  \"cache\": {cache}\n",
            "}}\n"
        ),
        mode = if smoke { "smoke" } else { "full" },
        seed = SEED,
        zipf_s = ZIPF_S,
        doc_nodes = fx.doc.len(),
        requests = stream.len(),
        pool_size = pool.len(),
        distinct = distinct,
        cache_mb = CACHE_MB,
        cp50 = cold.p50_us,
        cp95 = cold.p95_us,
        cqps = cold.qps,
        wp50 = warm.p50_us,
        wp95 = warm.p95_us,
        wqps = warm.qps,
        hr = hit_rate,
        speedup = cold.p50_us / warm.p50_us.max(1e-9),
        cache = cache_stats.to_json(),
    );

    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("bench_json: cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!(
        "bench_json [{}]: cold p50 {:.1} us / warm p50 {:.1} us, warm hit rate {:.1}%, wrote {}",
        if smoke { "smoke" } else { "full" },
        cold.p50_us,
        warm.p50_us,
        hit_rate * 100.0,
        out_path
    );

    // The delta-reload scenario runs its own right-sized workload.
    let (json6, delta_ok) = delta_scenario(&pool, smoke);
    std::fs::write(&out6_path, &json6).unwrap_or_else(|e| {
        eprintln!("bench_json: cannot write {out6_path}: {e}");
        std::process::exit(1);
    });
    println!(
        "bench_json [{}]: delta-reload scenario wrote {}",
        if smoke { "smoke" } else { "full" },
        out6_path
    );

    // The cold-query scenario: in-memory index vs persistent segment.
    let (json7, cold_ok) = cold_index_scenario(smoke);
    std::fs::write(&out7_path, &json7).unwrap_or_else(|e| {
        eprintln!("bench_json: cannot write {out7_path}: {e}");
        std::process::exit(1);
    });
    println!(
        "bench_json [{}]: cold-query scenario wrote {}",
        if smoke { "smoke" } else { "full" },
        out7_path
    );

    // The scatter-gather scenario: sharded evaluation plus the stampede.
    let (json8, scatter_ok) = scatter_scenario(&pool, smoke);
    std::fs::write(&out8_path, &json8).unwrap_or_else(|e| {
        eprintln!("bench_json: cannot write {out8_path}: {e}");
        std::process::exit(1);
    });
    println!(
        "bench_json [{}]: scatter-gather scenario wrote {}",
        if smoke { "smoke" } else { "full" },
        out8_path
    );

    if !smoke && warm.p50_us >= cold.p50_us {
        eprintln!(
            "bench_json: FAIL: warm p50 ({:.2} us) is not strictly below cold p50 ({:.2} us)",
            warm.p50_us, cold.p50_us
        );
        std::process::exit(1);
    }
    if !delta_ok || !cold_ok || !scatter_ok {
        std::process::exit(1);
    }
}
