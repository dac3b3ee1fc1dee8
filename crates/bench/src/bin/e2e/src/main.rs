//! `e2e` — one seeded end-to-end benchmark of `xfrag serve` over TCP.
//!
//! A run generates a corpus from `--seed`, commits it with
//! `xfrag index`, boots `xfrag serve --port 0 --workers 2`, and drives
//! it over NDJSON/TCP with two closed-loop clients, one persistent
//! connection each, for `--seconds`. Every reply is checked against an
//! in-process oracle. `--trace 1` instead sends the first requests of the
//! same stream one at a time and replays each in-process through the
//! public functions the server calls, splitting the round trip across
//! the layers. See README.md for workloads, metrics and commands.

mod corpus;
mod replay;
mod stats;
mod wire;
mod workload;

use corpus::{Source, CHURN_DOC};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use replay::{collection_from, AggSink, Instance, Timings};
use std::collections::HashMap;
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use wire::{Answer, Conn, Reply, Server};
use workload::{Shape, Workload};
use xfrag_core::{GenerationTag, Tracer};

const USAGE: &str = "\
usage:
  e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--xfrag PATH] [--record FILE]
  e2e --compare A.jsonl B.jsonl      (bounds from ./BENCHMARK.json)

workloads: warm-zipf zipf-overflow cold-selective cold-broad reload-churn";

/// Requests the traced replay sends, one at a time.
const TRACE_REQUESTS: usize = 200;
/// Index-and-boot repetitions per timed run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The timed phase runs past `--seconds` until this many replies are
/// in, so p95 always has ten samples beyond it.
const MIN_SAMPLES: usize = 200;
/// Longest pause a client takes before each request: one timer tick of
/// a 250 Hz kernel. The reply stall ends on a timer tick, so a client
/// that sends at once starts every request on a tick and every round
/// trip lasts a whole number of ticks; a seeded pause of up to a tick
/// spreads round trips evenly between ticks instead.
const THINK_MAX: Duration = Duration::from_millis(4);
/// Gates of the traced run.
const MAX_UNATTRIBUTED: f64 = 0.10;
const MAX_TRACE_OVERHEAD: f64 = 0.03;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    xfrag: PathBuf,
    record: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 12,
        trace: false,
        xfrag: wire::default_xfrag(),
        record: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|_| format!("bad {flag}: {v}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?.max(1),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace: {v} (expected 0 or 1)")),
                }
            }
            "--xfrag" => a.xfrag = PathBuf::from(value()?),
            "--record" => a.record = Some(PathBuf::from(value()?)),
            "--compare" => {
                let first = PathBuf::from(value()?);
                a.compare = Some((first, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.compare.is_none() && a.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        match compare(a, b) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("e2e: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let name = args.workload.as_deref().unwrap_or_default();
    let Some(w) = workload::by_name(name) else {
        eprintln!("e2e: unknown workload {name:?}\n{USAGE}");
        std::process::exit(2);
    };
    let outcome = if args.trace {
        run_traced(&args, w)
    } else {
        run_timed(&args, w)
    };
    match outcome.and_then(|o| report(&args, w, &o).map(|()| o)) {
        Ok(o) if o.correct => {}
        Ok(_) => std::process::exit(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(1);
        }
    }
}

fn compare(a: &Path, b: &Path) -> Result<String, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let bounds = stats::read_bounds(&read(Path::new("BENCHMARK.json"))?)?;
    let (sa, sb) = (
        stats::RunSet::parse(&read(a)?)?,
        stats::RunSet::parse(&read(b)?)?,
    );
    Ok(stats::compare(&sa, &sb, &bounds))
}

/// A scratch directory inside the checkout, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str) -> Result<WorkDir, String> {
        let p = PathBuf::from(".e2e_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        Ok(WorkDir(p))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while a
        // concurrent run still uses it.
        let _ = std::fs::remove_dir(".e2e_work");
    }
}

fn write_sources(dir: &Path, sources: &[Source]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for s in sources {
        let p = dir.join(format!("{}.xml", s.stem));
        std::fs::write(&p, &s.xml).map_err(|e| format!("{}: {e}", p.display()))?;
    }
    Ok(())
}

/// The corpus versions replies may come from: the generated corpus, and
/// for churn workloads the same corpus with the churn document's
/// alternate version.
fn corpus_versions(seed: u64, w: &Workload) -> Vec<Vec<Source>> {
    let base = corpus::corpus(seed);
    let mut out = vec![base.clone()];
    if w.churn_every.is_some() {
        let mut alt = base;
        let alt_doc = corpus::small(seed, CHURN_DOC, 1);
        for s in alt.iter_mut().filter(|s| s.stem == alt_doc.stem) {
            *s = alt_doc.clone();
        }
        out.push(alt);
    }
    out
}

/// Expected top-10 answers for every shape of the pool, per corpus
/// version, computed in-process before any timing. The caller passes the
/// generation tag, so building the oracle mints none (see
/// [`Instance::new`]).
struct Oracle {
    versions: Vec<Vec<Vec<Answer>>>,
}

impl Oracle {
    fn build(
        pool: &[Shape],
        versions: &[Vec<Source>],
        tag: GenerationTag,
    ) -> Result<Oracle, String> {
        let mut out = Vec::new();
        for sources in versions {
            let inst = Instance::new(collection_from(sources)?, HashMap::new(), tag, None);
            let mut expected = Vec::with_capacity(pool.len());
            for shape in pool {
                let r = inst.run(
                    &shape.query(),
                    &Tracer::disabled(),
                    None,
                    &mut Timings::default(),
                )?;
                if r.degraded {
                    return Err(format!("oracle degraded on {shape:?}"));
                }
                expected.push(r.answers);
            }
            out.push(expected);
        }
        Ok(Oracle { versions: out })
    }

    /// A reply is correct when it is a full `ok` answer equal to the
    /// reference of one corpus version — never a mix of two.
    fn accepts(&self, shape: usize, reply: &Reply) -> bool {
        reply.is_ok() && self.versions.iter().any(|v| v[shape] == reply.answers)
    }
}

/// Writes that alternate the churn document between its two versions;
/// the commit and the swap are timed separately.
struct Churn {
    xfrag: PathBuf,
    src: PathBuf,
    corpus: PathBuf,
    /// XML of version 0 and version 1 of the churn document.
    xml: [String; 2],
    writes: usize,
}

impl Churn {
    /// Rewrite the churn document, commit a delta generation and reload.
    /// Returns (index ms, swap ms).
    fn write(&mut self, conn: &mut Conn) -> Result<(f64, f64), String> {
        self.writes += 1;
        let path = self.src.join(format!("d{CHURN_DOC:03}.xml"));
        std::fs::write(&path, &self.xml[self.writes % 2])
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let t0 = Instant::now();
        let (src, corpus) = (self.src.to_string_lossy(), self.corpus.to_string_lossy());
        wire::xfrag(&self.xfrag, &["index", "--delta", &src, &corpus])?;
        let t1 = Instant::now();
        let reply = conn.call("{\"kind\":\"reload\",\"id\":0}")?.to_string();
        let t2 = Instant::now();
        if !reply.contains("\"status\":\"ok\"") {
            return Err(format!("reload failed: {reply}"));
        }
        Ok((ms(t1 - t0), ms(t2 - t1)))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Everything one run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// (name, value, unit) in the order BENCHMARK.json lists them.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Context for the record line: counts, core count, extra detail.
    detail: Vec<(&'static str, String)>,
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Print the record line, append it to `--record`, and print the result
/// line (`correct`, `attempted`, `failed`, `metrics`) last.
fn report(args: &Args, w: &Workload, o: &Outcome) -> Result<(), String> {
    let num = |x: f64| {
        if x.is_finite() {
            format!("{x}")
        } else {
            "null".into()
        }
    };
    let mut record = format!(
        "{{\"e2e\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"cores\":{},\"gated\":{},\"attempted\":{},\"failed\":{},\"correct\":{}",
        if args.trace { "trace" } else { "run" },
        w.name,
        args.seed,
        args.seconds,
        cores(),
        cores() >= 2,
        o.attempted,
        o.failed,
        o.correct,
    );
    for (k, v) in &o.detail {
        record.push_str(&format!(",\"{k}\":{v}"));
    }
    let values: Vec<String> = o
        .metrics
        .iter()
        .map(|(n, v, _)| format!("\"{n}\":{}", num(*v)))
        .collect();
    record.push_str(&format!(",\"metrics\":{{{}}}}}", values.join(",")));
    let result: Vec<String> = o
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
        .collect();
    if let Some(path) = &args.record {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{record}");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        result.join(",")
    );
    Ok(())
}

/// The state both kinds of run share once the corpus is committed and a
/// server is answering.
struct Setup {
    work: WorkDir,
    versions: Vec<Vec<Source>>,
    /// Every shape the run sends (see [`workload::shapes`]).
    pool: Vec<Shape>,
    /// Warm-up requests, as `pool` indices.
    warm: Vec<usize>,
    server: Server,
    corpus: PathBuf,
    /// Seconds spent generating and writing the corpus.
    corpus_s: f64,
    /// Index-plus-boot times, in seconds.
    times: Vec<f64>,
}

impl Setup {
    fn churn(&self, args: &Args) -> Churn {
        let xml = |v| corpus::small(args.seed, CHURN_DOC, v).xml;
        Churn {
            xfrag: args.xfrag.clone(),
            src: self.work.0.join("src"),
            corpus: self.corpus.clone(),
            xml: [xml(0), xml(1)],
            writes: 0,
        }
    }
}

/// Generate the corpus and set up `repeat` times: each time `xfrag index`
/// into a fresh directory, then boot `xfrag serve` on it until `health`
/// answers. The last server stays up.
fn setup(args: &Args, w: &Workload, repeat: usize) -> Result<Setup, String> {
    let work = WorkDir::new(w.name)?;
    let t0 = Instant::now();
    let versions = corpus_versions(args.seed, w);
    let src = work.0.join("src");
    write_sources(&src, &versions[0])?;
    let corpus_s = t0.elapsed().as_secs_f64();
    let mut times = Vec::new();
    let mut last: Option<(Server, PathBuf)> = None;
    for k in 0..repeat {
        if let Some((server, dir)) = last.take() {
            server.shutdown()?;
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = work.0.join(format!("corpus{k}"));
        let t0 = Instant::now();
        wire::xfrag(
            &args.xfrag,
            &["index", &src.to_string_lossy(), &dir.to_string_lossy()],
        )?;
        let server = Server::boot(&args.xfrag, &dir, w.cache_mb)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some((server, dir));
    }
    let (server, corpus) = last.ok_or("no setup ran")?;
    let (pool, warm) = workload::shapes(w.kind);
    Ok(Setup {
        work,
        versions,
        pool,
        warm,
        server,
        corpus,
        corpus_s,
        times,
    })
}

/// What one client saw during the timed phase.
#[derive(Default)]
struct ClientLog {
    /// Requests sent and churn writes started.
    attempted: u64,
    rtt_ms: Vec<f64>,
    ok: u64,
    failed: u64,
    index_ms: Vec<f64>,
    swap_ms: Vec<f64>,
}

struct Timed<'a> {
    addr: SocketAddr,
    pool: &'a [Shape],
    stream: &'a [usize],
    oracle: &'a Oracle,
    next: AtomicUsize,
    replies: AtomicUsize,
    start: Instant,
    seconds: Duration,
    seed: u64,
}

impl Timed<'_> {
    fn done(&self) -> bool {
        let elapsed = self.start.elapsed();
        (elapsed >= self.seconds && self.replies.load(Ordering::SeqCst) >= MIN_SAMPLES)
            || elapsed >= self.seconds * 4
    }

    /// One closed-loop client: pause, send, wait for the reply, check it,
    /// repeat.
    fn client(&self, c: usize, mut churn: Option<(usize, Churn)>) -> ClientLog {
        let mut log = ClientLog::default();
        let mut think = StdRng::seed_from_u64(corpus::mix(self.seed, c as u64));
        let mut conn = match Conn::open(self.addr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("e2e: {e}");
                log.attempted += 1;
                log.failed += 1;
                return log;
            }
        };
        let mut own = 0usize;
        while !self.done() {
            std::thread::sleep(THINK_MAX.mul_f64(think.random::<f64>()));
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            let shape = self.stream[i % self.stream.len()];
            log.attempted += 1;
            let t0 = Instant::now();
            let reply = conn
                .call(&self.pool[shape].request(i as u64))
                .and_then(Reply::parse);
            log.rtt_ms.push(ms(t0.elapsed()));
            self.replies.fetch_add(1, Ordering::SeqCst);
            match reply {
                Ok(r) if r.id == i as u64 && self.oracle.accepts(shape, &r) => log.ok += 1,
                Ok(r) => {
                    if log.failed < 3 {
                        eprintln!("e2e: reply {i} differs from the oracle: {r:?}");
                    }
                    log.failed += 1;
                }
                Err(e) => {
                    eprintln!("e2e: request {i}: {e}");
                    log.failed += 1;
                    match Conn::open(self.addr) {
                        Ok(c) => conn = c,
                        Err(_) => return log,
                    }
                }
            }
            own += 1;
            if let Some((every, ch)) = churn.as_mut() {
                if own.is_multiple_of(*every) {
                    log.attempted += 1;
                    match ch.write(&mut conn) {
                        Ok((index, swap)) => {
                            log.index_ms.push(index);
                            log.swap_ms.push(swap);
                        }
                        Err(e) => {
                            eprintln!("e2e: churn write: {e}");
                            log.failed += 1;
                        }
                    }
                }
            }
        }
        log
    }
}

/// Send `shapes` over one connection, checking every reply.
fn send_checked(
    conn: &mut Conn,
    pool: &[Shape],
    shapes: &[usize],
    oracle: &Oracle,
) -> Result<(), String> {
    for &s in shapes {
        let r = Reply::parse(conn.call(&pool[s].request(0))?)?;
        if !oracle.accepts(s, &r) {
            return Err(format!("warm-up reply differs from the oracle: {r:?}"));
        }
    }
    Ok(())
}

fn run_timed(args: &Args, w: &Workload) -> Result<Outcome, String> {
    let st = setup(args, w, SETUPS)?;
    let pool = &st.pool;
    let t0 = Instant::now();
    let oracle = Oracle::build(pool, &st.versions, GenerationTag::fresh())?;
    let t1 = Instant::now();
    let addr = st.server.addr;
    // Untimed warm-up, split across the clients' connections.
    std::thread::scope(|s| -> Result<(), String> {
        let handles: Vec<_> = (0..w.clients)
            .map(|c| {
                let oracle = &oracle;
                let part: Vec<usize> = st.warm.iter().skip(c).step_by(w.clients).copied().collect();
                s.spawn(move || send_checked(&mut Conn::open(addr)?, pool, &part, oracle))
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .map_err(|_| "warm-up client panicked".to_string())?
        })
    })?;
    let phases = format!(
        "{{\"corpus\":{},\"setups\":{},\"oracle\":{},\"warmup\":{}}}",
        st.corpus_s,
        st.times.iter().sum::<f64>(),
        (t1 - t0).as_secs_f64(),
        t1.elapsed().as_secs_f64()
    );

    let stream = workload::stream(w.kind, args.seed);
    let timed = Timed {
        addr,
        pool,
        stream: &stream,
        oracle: &oracle,
        next: AtomicUsize::new(0),
        replies: AtomicUsize::new(0),
        start: Instant::now(),
        seconds: Duration::from_secs(args.seconds),
        seed: args.seed,
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.clients)
            .map(|c| {
                let churn = w
                    .churn_every
                    .filter(|_| c == 0)
                    .map(|every| (every, st.churn(args)));
                let timed = &timed;
                s.spawn(move || timed.client(c, churn))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let wall = timed.start.elapsed().as_secs_f64();
    let rss_mb = st.server.peak_rss_mb()?;
    st.server.shutdown()?;

    let rtts: Vec<f64> = logs.iter().flat_map(|l| l.rtt_ms.iter().copied()).collect();
    let ok: u64 = logs.iter().map(|l| l.ok).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let pct = |p| stats::percentile(&rtts, p);
    let (p50, p95) = (
        pct(50).ok_or("no replies")?,
        pct(95).ok_or_else(|| format!("only {} replies: too few for p95", rtts.len()))?,
    );
    let opt = |x: Option<f64>| x.map_or("null".to_string(), |v| v.to_string());
    let writes: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.index_ms.iter().copied())
        .collect();
    let swaps: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.swap_ms.iter().copied())
        .collect();
    let mut detail = vec![
        ("samples", rtts.len().to_string()),
        ("ok", ok.to_string()),
        (
            "fail_frac",
            (failed as f64 / attempted.max(1) as f64).to_string(),
        ),
        ("p99_ms", opt(pct(99))),
        ("wall_s", wall.to_string()),
        ("setup_runs_s", format!("{:?}", st.times)),
        ("phase_s", phases),
    ];
    if !writes.is_empty() {
        detail.push(("writes", writes.len().to_string()));
        detail.push(("index_ms_p50", stats::median(&writes).to_string()));
        detail.push(("swap_ms_p50", stats::median(&swaps).to_string()));
    }
    Ok(Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics: vec![
            ("setup_s", stats::median(&st.times), "s"),
            ("qps", ok as f64 / wall, "1/s"),
            ("p50_ms", p50, "ms"),
            ("p95_ms", p95, "ms"),
            ("rss_mb", rss_mb, "MB"),
        ],
        detail,
    })
}

/// Tracing overhead: the warm-up and then `requests` replayed on two
/// fresh instances, each request once traced into an aggregating sink
/// and once with the disabled tracer. Returns two medians over requests:
/// the time tracing adds as a share of the request's measured round trip
/// `rtt_us` (what a client would see at p50), and as a share of the
/// untraced replay (the tracer's cost to evaluation alone).
///
/// Pairing by request keeps the mix of cheap and expensive requests out
/// of the comparison. Tracing never changes an instance's state, so the
/// two instances trade the traced role every request and which side
/// runs first every other request: neither one's memory layout nor drift
/// favors a side.
fn overhead(
    corpus: &Path,
    w: &Workload,
    pool: &[Shape],
    warm: &[usize],
    requests: &[(usize, f64)],
) -> Result<(f64, f64), String> {
    let pair = [
        Instance::open(corpus, w.cache_mb)?,
        Instance::open(corpus, w.cache_mb)?,
    ];
    let sink = AggSink::default();
    let tracer = Tracer::new(&sink);
    let off = Tracer::disabled();
    for &s in warm {
        let q = pool[s].query();
        for inst in &pair {
            inst.run(&q, &off, None, &mut Timings::default())?;
        }
    }
    let (mut of_rtt, mut of_replay) = (Vec::new(), Vec::new());
    for (i, &(s, rtt_us)) in requests.iter().enumerate() {
        let q = pool[s].query();
        let (traced, plain) = (&pair[i % 2], &pair[1 - i % 2]);
        let time = |inst: &Instance, tracer: &Tracer<'_>, sink| {
            let mut t = Timings::default();
            inst.run(&q, tracer, sink, &mut t).map(|_| us(t.total))
        };
        let (on, plain_us) = if i / 2 % 2 == 0 {
            let on = time(traced, &tracer, Some(&sink))?;
            (on, time(plain, &off, None)?)
        } else {
            let plain_us = time(plain, &off, None)?;
            (time(traced, &tracer, Some(&sink))?, plain_us)
        };
        of_rtt.push((on - plain_us) / rtt_us);
        of_replay.push((on - plain_us) / plain_us);
    }
    Ok((stats::median(&of_rtt), stats::median(&of_replay)))
}

fn run_traced(args: &Args, w: &Workload) -> Result<Outcome, String> {
    let st = setup(args, w, 1)?;
    // The replay instance takes this process's first generation tag, as
    // the server's first generation did (see `Instance::new`).
    let t0 = Instant::now();
    let mut replay = Instance::open(&st.corpus, w.cache_mb)?;
    let load_ms = ms(t0.elapsed());
    let pool = &st.pool;
    let oracle = Oracle::build(pool, &st.versions, replay.tag())?;
    let mut conn = Conn::open(st.server.addr)?;
    let off = Tracer::disabled();
    for &s in &st.warm {
        send_checked(&mut conn, pool, &[s], &oracle)?;
        replay.run(&pool[s].query(), &off, None, &mut Timings::default())?;
    }

    let stream = workload::stream(w.kind, args.seed);
    let sink = AggSink::default();
    let tracer = Tracer::new(&sink);
    let mut t = Timings::default();
    let mut churn = st.churn(args);
    let (mut index_ms, mut swap_ms) = (Vec::new(), Vec::new());
    let (mut failed, mut sent) = (0u64, Vec::new());
    let server0 = conn.stats()?;
    let cache0 = replay.cache_stats();
    let deadline = Instant::now() + Duration::from_secs(args.seconds.max(20));
    for (i, &shape) in stream.iter().take(TRACE_REQUESTS).enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let t0 = Instant::now();
        let reply = Reply::parse(conn.call(&pool[shape].request(i as u64))?)?;
        let rtt = us(t0.elapsed());
        if !oracle.accepts(shape, &reply) {
            eprintln!("e2e: reply {i} differs from the oracle: {reply:?}");
            failed += 1;
        }
        replay.run(&pool[shape].query(), &tracer, Some(&sink), &mut t)?;
        sent.push((shape, rtt));
        if w.churn_every.is_some_and(|every| (i + 1) % every == 0) {
            let (index, swap) = churn.write(&mut conn)?;
            index_ms.push(index);
            swap_ms.push(swap);
            replay.reload(&st.corpus)?;
        }
    }
    let server1 = conn.stats()?;
    let server = server1.since(&server0);
    let (cache0, cache1) = (
        cache0.unwrap_or_default(),
        replay.cache_stats().unwrap_or_default(),
    );
    drop(replay);
    // Workloads without writes still measure the write path: two probe
    // writes after the replay, so the reload metrics exist everywhere.
    let mut carry_evicted = server.carry_evicted;
    if index_ms.is_empty() {
        for _ in 0..2 {
            let (index, swap) = churn.write(&mut conn)?;
            index_ms.push(index);
            swap_ms.push(swap);
        }
        carry_evicted = conn.stats()?.since(&server1).carry_evicted;
    }
    let (overhead_frac, overhead_replay) = overhead(&st.corpus, w, pool, &st.warm, &sent)?;
    drop(conn);
    st.server.shutdown()?;

    let n = t.requests.max(1) as f64;
    let agg = sink.totals();
    let per = |d: Duration| us(d) / n;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let rtt = sent.iter().map(|(_, r)| r).sum::<f64>() / n;
    let server_us = ratio(server.latency_total_ns, server.latency_count) / 1e3;
    let replay_us = per(t.total);
    let same_cache = (
        cache1.result.hits - cache0.result.hits,
        cache1.result.misses - cache0.result.misses,
    ) == (server.result_hits, server.result_misses);
    let mut gates = vec![
        (
            "unattributed",
            (server_us - replay_us) <= MAX_UNATTRIBUTED * rtt,
        ),
        ("overhead", overhead_frac <= MAX_TRACE_OVERHEAD),
        ("replies", failed == 0),
    ];
    if w.churn_every.is_none() {
        gates.push(("replay_cache_equals_server", same_cache));
    }
    for (name, ok) in &gates {
        if !ok {
            eprintln!("e2e: trace gate {name} failed");
        }
    }
    let evals = agg.work;
    let metrics = vec![
        ("serve.rtt_us", rtt, "us"),
        ("serve.server_us", server_us, "us"),
        ("serve.wire_us", rtt - server_us, "us"),
        ("serve.unattributed_us", server_us - replay_us, "us"),
        ("cache.hit_us", per(t.eval_hit), "us"),
        (
            "cache.result_hit_rate",
            ratio(
                server.result_hits,
                server.result_hits + server.result_misses,
            ),
            "fraction",
        ),
        (
            "cache.postings_hit_rate",
            ratio(
                server.postings_hits,
                server.postings_hits + server.postings_misses,
            ),
            "fraction",
        ),
        ("cache.evictions", server.evictions as f64 / n, "count"),
        ("planner.us", per(t.planner), "us"),
        (
            "planner.pushdown_frac",
            ratio(t.plans_pushdown, t.docs_evaluated),
            "fraction",
        ),
        ("segment.postings_us", per(agg.postings), "us"),
        ("segment.terms_loaded", t.terms_loaded as f64 / n, "count"),
        ("doc.load_ms", load_ms, "ms"),
        ("collection.us", per(t.collection()), "us"),
        (
            "collection.docs_evaluated",
            t.docs_evaluated as f64 / n,
            "count",
        ),
        (
            "collection.answer_doc_ratio",
            ratio(t.docs_answering, t.docs_evaluated),
            "fraction",
        ),
        ("kernel.join_us", per(agg.join), "us"),
        ("kernel.fixpoint_us", per(agg.fixpoint), "us"),
        ("kernel.joins", evals.joins as f64 / n, "count"),
        (
            "kernel.dup_ratio",
            ratio(evals.duplicates_collapsed, evals.fragments_emitted),
            "fraction",
        ),
        ("filter.us", per(agg.filter), "us"),
        (
            "filter.pass_ratio",
            ratio(
                evals.filter_evals.saturating_sub(evals.filter_pruned),
                evals.filter_evals,
            ),
            "fraction",
        ),
        ("rank.us", per(t.rank), "us"),
        ("rank.scored", t.scored as f64 / n, "count"),
        ("rank.kept_ratio", ratio(t.kept, t.scored), "fraction"),
        ("snippet.us", per(t.snippet), "us"),
        ("reload.index_ms", stats::median(&index_ms), "ms"),
        ("reload.swap_ms", stats::median(&swap_ms), "ms"),
        (
            "reload.carry_evicted",
            carry_evicted as f64 / index_ms.len() as f64,
            "count",
        ),
        ("trace.overhead_frac", overhead_frac, "fraction"),
    ];
    let detail = vec![
        ("requests", t.requests.to_string()),
        ("replay_us", replay_us.to_string()),
        ("overhead_replay_frac", overhead_replay.to_string()),
        (
            "gates",
            format!(
                "{{{}}}",
                gates
                    .iter()
                    .map(|(g, ok)| format!("\"{g}\":{ok}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    Ok(Outcome {
        correct: gates.iter().all(|(_, ok)| *ok),
        attempted: t.requests,
        failed,
        metrics,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(doc: &str, node: u32) -> Answer {
        Answer {
            doc: doc.into(),
            score: 1.0,
            nodes: vec![node],
            snippet: String::new(),
        }
    }

    fn reply(status: &str, answers: Vec<Answer>) -> Reply {
        Reply {
            id: 0,
            status: status.into(),
            answers,
            complete: true,
            note: None,
        }
    }

    #[test]
    fn churn_matcher_accepts_either_version_and_rejects_a_mix() {
        let old = vec![answer("d001.xfrg", 4), answer("big.xfrg", 9)];
        let new = vec![answer("d001.xfrg", 6), answer("big.xfrg", 9)];
        let oracle = Oracle {
            versions: vec![vec![old.clone()], vec![new.clone()]],
        };
        assert!(oracle.accepts(0, &reply("ok", old.clone())));
        assert!(oracle.accepts(0, &reply("ok", new.clone())));
        let mix = vec![old[0].clone(), new[0].clone()];
        assert!(!oracle.accepts(0, &reply("ok", mix)));
        assert!(!oracle.accepts(0, &reply("degraded", old.clone())));
        let mut partial = reply("ok", new);
        partial.complete = false;
        assert!(!oracle.accepts(0, &partial));
    }
}
