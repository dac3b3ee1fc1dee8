//! End-to-end tests for sharded scatter-gather serving: N-shard vs
//! single-shard byte identity, partial-result degradation when a shard
//! stalls, the stall-and-panic drill, singleflight stampede coalescing,
//! faulted-leader wakeups, shard-isolated worker panics, and the
//! `xfrag request` exit-code-4 contract for partial replies.
//!
//! Each test boots the real binary with `--port 0`, reads the
//! `listening on <addr>` line, and drives it over raw TCP with
//! newline-delimited JSON, exactly like `serve_integration.rs`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn corpus(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xfrag-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("a.xml"),
        "<doc><title>xml search alpha</title><p>ranked xml search over fragments</p></doc>",
    )
    .unwrap();
    std::fs::write(
        dir.join("b.xml"),
        "<doc><title>beta</title><sec><p>xml algebra</p><p>search trees</p></sec></doc>",
    )
    .unwrap();
    std::fs::write(
        dir.join("c.xml"),
        "<doc><p>gamma xml</p><p>keyword search</p><p>gamma filler</p></doc>",
    )
    .unwrap();
    dir
}

/// One NDJSON client connection.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let s = TcpStream::connect(addr).expect("connect to server");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        Conn {
            r: BufReader::new(s.try_clone().unwrap()),
            w: s,
        }
    }

    fn rpc(&mut self, json: &str) -> String {
        self.w.write_all(json.as_bytes()).unwrap();
        self.w.write_all(b"\n").unwrap();
        self.w.flush().unwrap();
        let mut line = String::new();
        self.r.read_line(&mut line).expect("read response line");
        assert!(!line.is_empty(), "server hung up instead of replying");
        line.trim_end().to_string()
    }
}

/// A running `xfrag serve` child. Killed on drop so a failing assertion
/// never leaks a listener into later tests.
struct Server {
    child: Child,
    addr: String,
    out: BufReader<ChildStdout>,
}

impl Server {
    fn start(dir: &Path, extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_xfrag"))
            .arg("serve")
            .arg(dir)
            .args(["--port", "0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn server");
        let mut out = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        out.read_line(&mut line).expect("read startup line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
            .to_string();
        Server { child, addr, out }
    }

    fn connect(&self) -> Conn {
        Conn::open(&self.addr)
    }

    fn rpc(&self, json: &str) -> String {
        self.connect().rpc(json)
    }

    /// Send `shutdown`, wait for exit, return (status, drain summary).
    fn shutdown_and_wait(mut self) -> (ExitStatus, String) {
        let reply = self.rpc(r#"{"kind":"shutdown","id":999}"#);
        assert!(reply.contains(r#""note":"draining""#), "{reply}");
        let status = self.child.wait().expect("wait for server exit");
        let mut rest = String::new();
        self.out.read_to_string(&mut rest).unwrap();
        (status, rest)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
    }
}

fn field_str<'a>(line: &'a str, name: &str) -> &'a str {
    let pat = format!("\"{name}\":\"");
    let start = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {name} in {line}"))
        + pat.len();
    let end = line[start..].find('"').unwrap() + start;
    &line[start..end]
}

/// The `"answers":[...]` slice of a reply (everything before the
/// per-request stats, which may legitimately differ between a cache
/// leader and its followers).
fn answers_of(reply: &str) -> &str {
    let start = reply.find("\"answers\":").expect("answers field");
    let end = reply.find(",\"stats\":").expect("stats field");
    &reply[start..end]
}

fn field_u64(hay: &str, name: &str) -> u64 {
    let pat = format!("\"{name}\":");
    let start = hay
        .find(&pat)
        .unwrap_or_else(|| panic!("no {name} in {hay}"))
        + pat.len();
    hay[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// Tentpole acceptance: with no faults, an N-shard server's replies
/// are byte-identical to a single-shard server's at widths 2, 4 and 8,
/// across every strategy — the merge (concat, sort by doc id, rank
/// once) is observationally equivalent to never having sharded at all.
#[test]
fn sharded_serving_matches_single_shard_bytes() {
    let dir = corpus("bytes");
    let one = Server::start(&dir, &["--shards", "1"]);
    let mut queries = vec![
        r#"{"kind":"query","id":1,"keywords":["xml","search"]}"#.to_string(),
        r#"{"kind":"query","id":2,"keywords":["xml","search"],"top_k":2}"#.to_string(),
        r#"{"kind":"query","id":3,"keywords":["alpha"],"size":6}"#.to_string(),
    ];
    for strat in ["brute", "naive", "reduced", "pushdown"] {
        queries.push(format!(
            r#"{{"kind":"query","id":4,"keywords":["xml"],"strategy":"{strat}"}}"#
        ));
    }
    let mut c1 = one.connect();
    let base: Vec<String> = queries.iter().map(|q| c1.rpc(q)).collect();
    for r in &base {
        assert!(r.contains(r#""complete":true,"shards":null"#), "{r}");
        // Served under the default work bound, no cell degrades.
        assert_eq!(field_str(r, "status"), "ok", "{r}");
    }
    for width in ["2", "4", "8"] {
        let wide = Server::start(&dir, &["--shards", width]);
        let mut cw = wide.connect();
        for (q, r1) in queries.iter().zip(&base) {
            assert_eq!(
                *r1,
                cw.rpc(q),
                "{width} shards leaked into response bytes for {q}"
            );
        }
        // Second pass: both sides now answer from their caches (one
        // arena vs `width`); replay must be just as indistinguishable.
        for q in &queries {
            assert_eq!(
                c1.rpc(q),
                cw.rpc(q),
                "{width}-shard cache replay differs for {q}"
            );
        }
        drop(cw);
        let (st, _) = wide.shutdown_and_wait();
        assert!(st.success());
    }
    drop(c1);
    let (s1, _) = one.shutdown_and_wait();
    assert!(s1.success());
}

/// A stalled shard is dropped from the merge within the deadline plus
/// gather grace: the reply keeps the survivors, flips
/// `"complete":false`, and accounts for the missing shard — and once
/// the stall clears, the same query completes again. The injected
/// delay fires at `collection:doc`, which only the stalled document's
/// owning shard reaches (`alpha` has one candidate), so exactly one
/// shard wedges.
#[test]
fn stalled_shard_yields_partial_result_within_deadline() {
    let dir = corpus("stall");
    let srv = Server::start(
        &dir,
        &["--shards", "4", "--inject", "collection:doc@0=delay:2500"],
    );
    let q = r#"{"kind":"query","id":21,"keywords":["alpha"],"timeout_ms":600}"#;
    let start = std::time::Instant::now();
    let partial = srv.rpc(q);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(2000),
        "gather waited for the wedged shard: {elapsed:?}"
    );
    assert_eq!(field_str(&partial, "status"), "degraded", "{partial}");
    assert!(partial.contains(r#""complete":false"#), "{partial}");
    assert!(
        partial.contains(r#""shards":{"ok":3,"timed_out":1,"shed":0,"panicked":0}"#),
        "{partial}"
    );
    assert!(
        partial.contains("1 of 4 shard(s) missing from merge"),
        "{partial}"
    );
    // `alpha` only matches the stalled shard's document, so the
    // surviving merge is sound but empty.
    assert!(partial.contains(r#""answers":[]"#), "{partial}");
    // Let the injected stall drain out of the wedged worker, then ask
    // again: the fault is exhausted, so the answer comes back whole.
    std::thread::sleep(Duration::from_millis(2500));
    let healed = srv.rpc(q);
    assert_eq!(field_str(&healed, "status"), "ok", "{healed}");
    assert!(
        healed.contains(r#""complete":true,"shards":null"#),
        "{healed}"
    );
    assert!(healed.contains(r#""doc":"a.xml""#), "{healed}");
    let (status, summary) = srv.shutdown_and_wait();
    assert!(status.success());
    assert!(summary.contains("0 in flight"), "{summary}");
}

/// The stall-and-panic drill on one server: 4 shards of 2 workers, no
/// cache, so whole replies compare byte for byte. `serve:worker` hits
/// are global and 0-based, and each query fans out one sub-job per
/// shard, so query N consumes hits 4N..4N+3: query 1 stalls one
/// shard's worker past the deadline and query 3 panics one. Between
/// and after the faults, the reply equals the pre-fault baseline; the
/// drain waits out the sleeping worker.
#[test]
fn stall_and_panic_drill_recovers_byte_identically_and_drains() {
    const STALL: Duration = Duration::from_millis(4000);
    let dir = corpus("drill");
    for d in ["d", "e", "f", "g", "h"] {
        std::fs::write(
            dir.join(format!("{d}.xml")),
            format!("<doc><title>xml search {d}</title><p>ranked xml fragments</p></doc>"),
        )
        .unwrap();
    }
    let inject = format!(
        "serve:worker@4=delay:{},serve:worker@12=panic",
        STALL.as_millis()
    );
    let srv = Server::start(
        &dir,
        &[
            "--shards",
            "4",
            "--workers",
            "2",
            "--no-cache",
            "--timeout-ms",
            "2000",
            "--inject",
            &inject,
        ],
    );
    let q = r#"{"kind":"query","id":1,"keywords":["xml","search"],"top_k":4}"#;
    let deadlined =
        r#"{"kind":"query","id":2,"keywords":["xml","search"],"timeout_ms":800,"top_k":4}"#;

    // Query 0: the clean baseline every recovery check compares to.
    let baseline = srv.rpc(q);
    assert_eq!(field_str(&baseline, "status"), "ok", "{baseline}");
    assert!(baseline.contains(r#""complete":true"#), "{baseline}");

    // Query 1: one shard stalls past the 800 ms deadline. The reply is
    // partial, arrives within the deadline plus gather grace, and the
    // client exits 4.
    let stall_started = std::time::Instant::now();
    let (code, partial) = run_request(&srv.addr, deadlined, &[]);
    assert!(
        stall_started.elapsed() < Duration::from_millis(3000),
        "gather waited for the stalled shard: {:?}",
        stall_started.elapsed()
    );
    assert_eq!(code, 4, "partial reply must exit 4: {partial}");
    assert_eq!(field_str(&partial, "status"), "degraded", "{partial}");
    assert!(partial.contains(r#""complete":false"#), "{partial}");
    assert!(
        partial.contains(r#""shards":{"ok":3,"timed_out":1,"shed":0,"panicked":0}"#),
        "{partial}"
    );
    assert!(
        partial.contains("1 of 4 shard(s) missing from merge"),
        "{partial}"
    );

    // Query 2: the stalled worker still sleeps, but its shard has a
    // second worker, so the full answer comes back unchanged.
    let post_stall = srv.rpc(q);
    assert!(
        stall_started.elapsed() < STALL,
        "the stall ended before the check ran"
    );
    assert_eq!(post_stall, baseline, "reply changed while a worker slept");

    // Query 3: a worker panics. The other three shards still answer.
    let panicked = srv.rpc(deadlined);
    assert!(panicked.contains(r#""complete":false"#), "{panicked}");
    assert!(
        panicked.contains(r#""shards":{"ok":3,"timed_out":0,"shed":0,"panicked":1}"#),
        "{panicked}"
    );

    // Query 4: after the respawn, the same bytes as before any fault.
    assert_eq!(srv.rpc(q), baseline, "reply changed after the respawn");

    let stats = srv.rpc(r#"{"kind":"stats","id":5}"#);
    assert_eq!(field_u64(&stats, "worker_panics"), 1, "{stats}");
    assert_eq!(field_u64(&stats, "accept_errors"), 0, "{stats}");
    let shard_block = &stats[stats.find("\"shards\":[").expect("shards block")..];
    let respawns: u64 = shard_block
        .match_indices("\"respawns\":")
        .map(|(i, pat)| field_u64(&shard_block[i..i + pat.len() + 24], "respawns"))
        .sum();
    assert_eq!(respawns, 1, "{stats}");

    // The drain waits out the sleeping worker: clean exit, nothing in
    // flight, the panic on the books.
    let (status, summary) = srv.shutdown_and_wait();
    assert!(
        stall_started.elapsed() >= STALL,
        "shutdown returned before the stalled worker woke"
    );
    assert!(status.success());
    assert!(summary.contains("1 worker panic(s)"), "{summary}");
    assert!(summary.contains("0 in flight"), "{summary}");
}

/// Satellite 3a: a stampede of identical cold queries coalesces onto
/// one singleflight leader — exactly one real evaluation, every reply
/// byte-identical, and the shard's counters record the coalescing.
#[test]
fn stampede_of_identical_cold_queries_coalesces_to_one_evaluation() {
    let dir = corpus("stampede");
    // The injected `query:eval` delay holds the leader's evaluation
    // open long enough for the whole stampede to pile onto the flight.
    let srv = Arc::new(Server::start(
        &dir,
        &[
            "--shards",
            "1",
            "--workers",
            "4",
            "--queue-depth",
            "128",
            "--inject",
            "query:eval@0=delay:300",
        ],
    ));
    const STAMPEDE: usize = 64;
    let barrier = Arc::new(Barrier::new(STAMPEDE));
    let mut joins = Vec::new();
    for _ in 0..STAMPEDE {
        let srv = Arc::clone(&srv);
        let barrier = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let mut conn = srv.connect();
            barrier.wait();
            conn.rpc(r#"{"kind":"query","id":77,"keywords":["alpha"]}"#)
        }));
    }
    let replies: Vec<String> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    // Every client observes the byte-identical cached answer; the only
    // permitted difference between replies is the per-request cache
    // accounting that distinguishes the leader from its followers.
    for r in &replies {
        assert_eq!(field_str(r, "status"), "ok", "{r}");
        assert_eq!(
            answers_of(r),
            answers_of(&replies[0]),
            "stampede answers must be byte-identical"
        );
    }
    // Exactly one reply did the work; the rest replayed the cached
    // result (a pure replay reports `cache_misses: 0`) and are fully
    // byte-identical to each other, accounting included.
    let (leaders, replays): (Vec<&String>, Vec<&String>) = replies
        .iter()
        .partition(|r| field_u64(r, "cache_misses") > 0);
    assert_eq!(leaders.len(), 1, "expected one evaluation: {leaders:?}");
    for r in &replays {
        assert_eq!(*r, replays[0], "replayed replies must be byte-identical");
    }
    let stats = srv.rpc(r#"{"kind":"stats","id":88}"#);
    let shard_block = &stats[stats.find("\"shards\":[").expect("shards block")..];
    assert_eq!(field_u64(shard_block, "evaluations"), 1, "{stats}");
    assert!(
        field_u64(shard_block, "coalesced") >= 1,
        "no requests coalesced: {stats}"
    );
    let srv = Arc::into_inner(srv).unwrap();
    let (status, summary) = srv.shutdown_and_wait();
    assert!(status.success());
    assert!(summary.contains("0 in flight"), "{summary}");
}

/// Satellite 3b: a leader whose evaluation is wrecked by an injected
/// `query:eval` panic must not strand its followers. The leader's
/// degraded result is uncacheable, so woken followers miss and
/// re-evaluate — one degraded reply, the rest whole, nobody hangs.
#[test]
fn faulted_leader_wakes_followers_to_reevaluate() {
    let dir = corpus("leader");
    let srv = Arc::new(Server::start(
        &dir,
        &[
            "--shards",
            "1",
            "--workers",
            "4",
            "--inject",
            "query:eval@0=panic",
        ],
    ));
    const CLIENTS: usize = 8;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut joins = Vec::new();
    for _ in 0..CLIENTS {
        let srv = Arc::clone(&srv);
        let barrier = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let mut conn = srv.connect();
            barrier.wait();
            conn.rpc(r#"{"kind":"query","id":31,"keywords":["alpha"]}"#)
        }));
    }
    let replies: Vec<String> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    let degraded: Vec<&String> = replies
        .iter()
        .filter(|r| field_str(r, "status") == "degraded")
        .collect();
    assert_eq!(degraded.len(), 1, "{replies:?}");
    assert!(
        degraded[0].contains("a.xml failed: xfrag-injected-fault"),
        "{}",
        degraded[0]
    );
    for r in &replies {
        if field_str(r, "status") != "degraded" {
            assert_eq!(field_str(r, "status"), "ok", "{r}");
            assert!(r.contains(r#""doc":"a.xml""#), "{r}");
        }
    }
    let srv = Arc::into_inner(srv).unwrap();
    let (status, summary) = srv.shutdown_and_wait();
    assert!(status.success());
    assert!(summary.contains("0 in flight"), "{summary}");
}

/// A worker panic is a shard-local event: the sibling shard's answers
/// still merge, the reply reports the lost shard, the panicking pool
/// respawns to full strength, and the drain is clean.
#[test]
fn worker_panic_is_isolated_to_its_shard_and_pool_respawns() {
    let dir = corpus("panic");
    let srv = Server::start(
        &dir,
        &[
            "--shards",
            "2",
            "--workers",
            "2",
            "--inject",
            "serve:worker@0=panic",
        ],
    );
    let partial = srv.rpc(r#"{"kind":"query","id":41,"keywords":["xml"]}"#);
    assert_eq!(field_str(&partial, "status"), "degraded", "{partial}");
    assert!(partial.contains(r#""complete":false"#), "{partial}");
    assert!(
        partial.contains(r#""shards":{"ok":1,"timed_out":0,"shed":0,"panicked":1}"#),
        "{partial}"
    );
    assert!(
        partial.contains("1 of 2 shard(s) missing from merge"),
        "{partial}"
    );
    // The replacement worker joined the panicking shard's pool: full
    // strength (2 shards x 2 workers), nothing queued or in flight.
    // Polled briefly: the reply races ahead of the dying worker's last
    // bookkeeping (respawn-before-exit briefly overcounts the pool).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let health = loop {
        let h = srv.rpc(r#"{"kind":"health","id":42}"#);
        if h.contains(r#""workers":4,"queued":0,"in_flight":0"#) {
            break h;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pool never settled: {h}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(health.contains(r#""docs":3"#), "{health}");
    let stats = srv.rpc(r#"{"kind":"stats","id":43}"#);
    assert_eq!(field_u64(&stats, "worker_panics"), 1, "{stats}");
    let shard_block = &stats[stats.find("\"shards\":[").expect("shards block")..];
    let respawns: u64 = shard_block
        .match_indices("\"respawns\":")
        .map(|(i, pat)| field_u64(&shard_block[i..i + pat.len() + 24], "respawns"))
        .sum();
    assert_eq!(respawns, 1, "{stats}");
    // With the fault exhausted the same query merges whole again.
    let healed = srv.rpc(r#"{"kind":"query","id":44,"keywords":["xml"]}"#);
    assert!(
        healed.contains(r#""complete":true,"shards":null"#),
        "{healed}"
    );
    let (status, summary) = srv.shutdown_and_wait();
    assert!(status.success());
    assert!(summary.contains("1 worker panic(s)"), "{summary}");
    assert!(summary.contains("0 in flight"), "{summary}");
}

/// Run `xfrag request` against `addr`, returning (exit code, stdout).
fn run_request(addr: &str, json: &str, extra: &[&str]) -> (i32, String) {
    let o = Command::new(env!("CARGO_BIN_EXE_xfrag"))
        .arg("request")
        .arg(addr)
        .arg(json)
        .args(extra)
        .output()
        .expect("run xfrag request");
    (
        o.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&o.stdout).into_owned(),
    )
}

/// Satellite 1: the `xfrag request` client surfaces a partial reply as
/// exit code 4 (still printing the line), does *not* burn retries on
/// it by default, and retries it to completion under `--retry-partial`.
#[test]
fn request_client_reports_partials_with_exit_code_4() {
    let dir = corpus("exit4");
    // Two armed panics: the first request's scatter consumes hits 0-1
    // (one panic -> partial), the `--retry-partial` request's first
    // attempt consumes hits 2-3 (one panic -> partial) and its retry
    // consumes hits 4-5 (clean -> complete).
    let srv = Server::start(
        &dir,
        &[
            "--shards",
            "2",
            "--inject",
            "serve:worker@0=panic,serve:worker@2=panic",
        ],
    );
    let q = r#"{"kind":"query","id":51,"keywords":["xml"]}"#;
    // Retries armed but no --retry-partial: the partial reply must
    // come back immediately as exit 4 — retrying it would have found
    // hit 2's panic and then a clean pass (exit 0), so exit 4 also
    // proves no retry was attempted.
    let (code, out) = run_request(&srv.addr, q, &["--retries", "2", "--backoff-ms", "10"]);
    assert_eq!(code, 4, "partial reply must exit 4: {out}");
    assert!(out.contains(r#""complete":false"#), "{out}");
    assert!(out.contains(r#""status":"degraded""#), "{out}");
    // Opting in: the first attempt is partial (hit 2), the retry is
    // clean and complete (hits 4-5), so the client exits 0.
    let (code, out) = run_request(
        &srv.addr,
        q,
        &["--retries", "2", "--backoff-ms", "10", "--retry-partial"],
    );
    assert_eq!(code, 0, "retried-to-complete reply must exit 0: {out}");
    assert!(out.contains(r#""complete":true,"shards":null"#), "{out}");
    // A complete reply exits 0 without any retry machinery.
    let (code, out) = run_request(&srv.addr, q, &[]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains(r#""complete":true"#), "{out}");
    let (status, _) = srv.shutdown_and_wait();
    assert!(status.success());
}
