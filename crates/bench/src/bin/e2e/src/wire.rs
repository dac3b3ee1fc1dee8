//! The real system under test: `xfrag index` and `xfrag serve` child
//! processes, persistent NDJSON connections, and decoding of the replies
//! and `stats` snapshots they send back.

use serde::JsonValue;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a client waits for one reply. Above the requests' own
/// deadline, so a server that stops answering fails the run instead of
/// hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// Any JSON document, decoded through the workspace's serde stand-in.
struct Json(JsonValue);

impl<'de> serde::Deserialize<'de> for Json {
    fn deserialize<D: serde::de::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(Json(d.take_value()?))
    }
}

pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| {
            format!(
                "bad JSON ({e}): {}",
                text.chars().take(200).collect::<String>()
            )
        })
}

/// The value at `path` inside nested objects.
pub fn at<'a>(v: &'a JsonValue, path: &[&str]) -> Option<&'a JsonValue> {
    path.iter().try_fold(v, |v, key| match v {
        JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    })
}

pub fn as_u64(v: &JsonValue) -> Option<u64> {
    match v {
        JsonValue::UInt(u) => Some(*u),
        JsonValue::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

pub fn as_f64(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Float(f) => Some(*f),
        JsonValue::UInt(u) => Some(*u as f64),
        JsonValue::Int(i) => Some(*i as f64),
        _ => None,
    }
}

pub fn as_str(v: &JsonValue) -> Option<&str> {
    match v {
        JsonValue::Str(s) => Some(s),
        _ => None,
    }
}

fn u64_at(v: &JsonValue, path: &[&str]) -> u64 {
    at(v, path).and_then(as_u64).unwrap_or(0)
}

/// One ranked answer, as the server sends it and as the oracle expects it.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub doc: String,
    pub score: f64,
    pub nodes: Vec<u32>,
    pub snippet: String,
}

/// A decoded query reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub id: u64,
    pub status: String,
    pub answers: Vec<Answer>,
    /// `false` when shards were dropped from the merge.
    pub complete: bool,
    pub note: Option<String>,
}

impl Reply {
    pub fn parse(line: &str) -> Result<Reply, String> {
        let v = parse_json(line)?;
        let missing = |what: &str| format!("reply without {what}: {line}");
        let answers = match at(&v, &["answers"]) {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|a| {
                    let nodes = match at(a, &["nodes"]) {
                        Some(JsonValue::Array(ns)) => ns
                            .iter()
                            .map(|n| as_u64(n).and_then(|n| u32::try_from(n).ok()))
                            .collect::<Option<Vec<u32>>>(),
                        _ => None,
                    };
                    Some(Answer {
                        doc: as_str(at(a, &["doc"])?)?.to_string(),
                        score: as_f64(at(a, &["score"])?)?,
                        nodes: nodes?,
                        snippet: as_str(at(a, &["snippet"])?)?.to_string(),
                    })
                })
                .collect::<Option<Vec<Answer>>>()
                .ok_or_else(|| missing("well-formed answers"))?,
            _ => return Err(missing("answers")),
        };
        Ok(Reply {
            id: at(&v, &["id"])
                .and_then(as_u64)
                .ok_or_else(|| missing("id"))?,
            status: at(&v, &["status"])
                .and_then(as_str)
                .ok_or_else(|| missing("status"))?
                .to_string(),
            answers,
            complete: !matches!(at(&v, &["complete"]), Some(JsonValue::Bool(false))),
            note: at(&v, &["note"]).and_then(as_str).map(str::to_string),
        })
    }

    /// A full answer: `ok` status over every shard.
    pub fn is_ok(&self) -> bool {
        self.status == "ok" && self.complete
    }
}

/// The counters the benchmark reads from one `stats` snapshot; deltas
/// between two snapshots cover the requests sent in between.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub latency_count: u64,
    pub latency_total_ns: u64,
    pub result_hits: u64,
    pub result_misses: u64,
    pub postings_hits: u64,
    pub postings_misses: u64,
    pub evictions: u64,
    pub carry_evicted: u64,
}

impl ServerStats {
    pub fn parse(line: &str) -> Result<ServerStats, String> {
        let v = parse_json(line)?;
        if at(&v, &["status"]).and_then(as_str) != Some("ok") {
            return Err(format!("stats request failed: {line}"));
        }
        Ok(ServerStats {
            latency_count: u64_at(&v, &["latency", "count"]),
            latency_total_ns: u64_at(&v, &["latency", "total_ns"]),
            result_hits: u64_at(&v, &["cache", "result", "hits"]),
            result_misses: u64_at(&v, &["cache", "result", "misses"]),
            postings_hits: u64_at(&v, &["cache", "postings", "hits"]),
            postings_misses: u64_at(&v, &["cache", "postings", "misses"]),
            evictions: u64_at(&v, &["cache", "evictions"]),
            carry_evicted: u64_at(&v, &["delta", "carry_over", "evicted"]),
        })
    }

    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &ServerStats) -> ServerStats {
        ServerStats {
            latency_count: self.latency_count - before.latency_count,
            latency_total_ns: self.latency_total_ns - before.latency_total_ns,
            result_hits: self.result_hits - before.result_hits,
            result_misses: self.result_misses - before.result_misses,
            postings_hits: self.postings_hits - before.postings_hits,
            postings_misses: self.postings_misses - before.postings_misses,
            evictions: self.evictions - before.evictions,
            carry_evicted: self.carry_evicted - before.carry_evicted,
        }
    }
}

/// One persistent client connection: a request line out, a reply line in.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .and_then(|_| stream.set_nodelay(true))
            .map_err(|e| format!("configure {addr}: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone {addr}: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Send one request line and wait for its reply line. The request and
    /// its newline leave in a single write, so the client side never
    /// splits a request across segments.
    pub fn call(&mut self, request: &str) -> Result<&str, String> {
        let mut out = String::with_capacity(request.len() + 1);
        out.push_str(request);
        out.push('\n');
        self.writer
            .write_all(out.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    pub fn stats(&mut self) -> Result<ServerStats, String> {
        ServerStats::parse(self.call("{\"kind\":\"stats\",\"id\":0}")?)
    }
}

/// Run one `xfrag` subcommand to completion.
pub fn xfrag(bin: &Path, args: &[&str]) -> Result<(), String> {
    let out = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "xfrag {} failed ({}): {}",
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(())
}

/// A running `xfrag serve`. Dropping it without [`Server::shutdown`]
/// kills the process, so no run leaves a server behind.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Boot `xfrag serve <corpus> --port 0 --workers 2` and wait until it
    /// answers `health`.
    pub fn boot(bin: &Path, corpus: &Path, cache_mb: Option<u64>) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg(corpus)
            .args(["--port", "0", "--workers", "2"]);
        match cache_mb {
            Some(mb) => cmd.args(["--cache-mb", &mb.to_string()]),
            None => cmd.arg("--no-cache"),
        };
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
        let mut first = String::new();
        let stdout = child.stdout.as_mut().expect("stdout is piped");
        // One byte at a time: the rest of stdout (the drain summary) is
        // read at shutdown, so nothing may sit in a dropped buffer.
        let mut byte = [0u8; 1];
        while !first.ends_with('\n') {
            match stdout.read(&mut byte) {
                Ok(1) => first.push(byte[0] as char),
                _ => break,
            }
        }
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        server.addr = first
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("xfrag serve did not start: {first:?}"))?;
        let health = Conn::open(server.addr)?
            .call("{\"kind\":\"health\",\"id\":0}")?
            .to_string();
        if !health.contains("\"status\":\"ok\"") {
            return Err(format!("unhealthy server: {health}"));
        }
        Ok(server)
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Drain the server with the `shutdown` verb and wait for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        Conn::open(self.addr)?.call("{\"kind\":\"shutdown\",\"id\":0}")?;
        let mut rest = String::new();
        if let Some(out) = self.child.stdout.as_mut() {
            out.read_to_string(&mut rest).ok();
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(st)) if st.success() => return Ok(()),
                Ok(Some(st)) => return Err(format!("xfrag serve exited with {st}: {rest}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => return Err("xfrag serve did not drain within 30 s".into()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The `xfrag` binary the workspace build produced.
pub fn default_xfrag() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("release").join("xfrag")
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANSWER: &str =
        r#"{"doc":"d001.xfrg","score":1.25,"nodes":[4,5,7],"snippet":"x <<qa1>> y"}"#;

    #[test]
    fn parses_ok_degraded_and_partial_replies() {
        let ok = format!(
            r#"{{"id":3,"status":"ok","answers":[{ANSWER}],"note":null,"error":null,"stats":{{"joins":2}},"complete":true,"shards":null}}"#
        );
        let r = Reply::parse(&ok).unwrap();
        assert_eq!((r.id, r.status.as_str(), r.complete), (3, "ok", true));
        assert!(r.is_ok());
        assert_eq!(
            r.answers,
            vec![Answer {
                doc: "d001.xfrg".into(),
                score: 1.25,
                nodes: vec![4, 5, 7],
                snippet: "x <<qa1>> y".into(),
            }]
        );

        let degraded = format!(
            r#"{{"id":4,"status":"degraded","answers":[{ANSWER}],"note":"big.xfrg degraded to reduced-sets","error":null,"stats":null,"complete":true,"shards":null}}"#
        );
        let r = Reply::parse(&degraded).unwrap();
        assert!(!r.is_ok());
        assert_eq!(r.note.as_deref(), Some("big.xfrg degraded to reduced-sets"));
        assert_eq!(r.answers.len(), 1);

        let partial = r#"{"id":5,"status":"degraded","answers":[],"note":"1 of 2 shard(s) missing from merge","error":null,"stats":null,"complete":false,"shards":{"ok":1,"timed_out":1,"shed":0,"panicked":0,"open":0}}"#;
        let r = Reply::parse(partial).unwrap();
        assert!(!r.complete && !r.is_ok());
        assert!(r.answers.is_empty());

        let shed = r#"{"id":6,"status":"shed","answers":[],"note":"queue full (depth 64)","error":null,"stats":null,"complete":true,"shards":null}"#;
        assert!(!Reply::parse(shed).unwrap().is_ok());
        assert!(Reply::parse(r#"{"id":1,"status":"ok"}"#).is_err());
        assert!(Reply::parse("not json").is_err());
    }

    #[test]
    fn stats_deltas_read_cache_and_latency_counters() {
        let line = |hits: u64, count: u64| {
            format!(
                r#"{{"id":0,"status":"ok","latency":{{"count":{count},"total_ns":{},"max_ns":0,"buckets":[]}},"cache":{{"postings":{{"hits":1,"misses":2}},"fixpoint":{{"hits":0,"misses":0}},"result":{{"hits":{hits},"misses":4}},"evictions":0,"insertions":0,"bytes":0,"entries":0,"shards":[]}},"delta":{{"carry_over":{{"kept":0,"rekeyed":0,"evicted":3}}}}}}"#,
                count * 1000
            )
        };
        let a = ServerStats::parse(&line(10, 2)).unwrap();
        let b = ServerStats::parse(&line(15, 7)).unwrap();
        let d = b.since(&a);
        assert_eq!((d.result_hits, d.result_misses), (5, 0));
        assert_eq!((d.latency_count, d.latency_total_ns), (5, 5000));
        assert_eq!(a.carry_evicted, 3);
        let no_cache = r#"{"id":0,"status":"ok","latency":{"count":1,"total_ns":9},"cache":null}"#;
        assert_eq!(ServerStats::parse(no_cache).unwrap().result_hits, 0);
    }
}
