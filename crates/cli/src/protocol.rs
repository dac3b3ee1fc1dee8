//! Wire protocol for `xfrag serve`: newline-delimited JSON over TCP.
//!
//! Each request is one JSON object on one line; the server answers with
//! exactly one JSON object on one line. Unknown request fields are
//! ignored and every field except `kind` is optional, so old clients
//! keep working as the protocol grows. Responses are emitted with a
//! fixed field order and contain no wall-clock values, so a repeated
//! query against an unchanged corpus yields byte-identical bytes — the
//! property the fault-injection suite leans on.
//!
//! See README § "Serving queries over TCP" for the schema reference.

use serde::{Deserialize, Serialize};
use xfrag_core::{Budget, DegradeMode, EvalStats, FilterExpr, Strategy};

/// What a request asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Evaluate a keyword query over the corpus.
    Query,
    /// Liveness probe: worker/queue/quarantine snapshot.
    Health,
    /// Cumulative serve counters, summed [`EvalStats`], latency histogram.
    Stats,
    /// Load the next corpus generation and swap it in without dropping
    /// in-flight requests; a failed load keeps the serving generation.
    Reload,
    /// Begin graceful drain: stop admitting, finish queued work, exit.
    Shutdown,
}

/// One decoded request line.
///
/// Deserialization is hand-written and *tolerant*: only `kind` is
/// required, every other field defaults when absent, and unrecognized
/// fields are ignored (the derived decoder would reject both).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// What to do.
    pub kind: RequestKind,
    /// Client-chosen correlation id, echoed back verbatim (default 0).
    pub id: u64,
    /// Query keywords (conjunctive).
    pub keywords: Vec<String>,
    /// `σ` predicate components; conjoined when more than one is set.
    pub size: Option<u32>,
    /// Max fragment height.
    pub height: Option<u32>,
    /// Max document-order span.
    pub width: Option<u32>,
    /// Evaluation strategy name (`auto|brute|naive|reduced|pushdown`).
    /// Absent means `auto`, which runs push-down.
    pub strategy: Option<String>,
    /// Per-request deadline in milliseconds, measured from *admission*.
    /// Clamped to the server's `--timeout-ms` when both are set.
    pub timeout_ms: Option<u64>,
    /// Join-kernel budget.
    pub max_joins: Option<u64>,
    /// Materialized-fragment budget.
    pub max_fragments: Option<u64>,
    /// `off | ladder` (default ladder): on a budget breach, fail with the
    /// breach or answer from the `slca-approx` fallback.
    pub degrade: Option<String>,
    /// How many ranked answers to return (default 10).
    pub top_k: Option<usize>,
}

impl Request {
    /// The assembled selection predicate.
    pub fn filter(&self) -> FilterExpr {
        let mut parts = Vec::new();
        if let Some(n) = self.size {
            parts.push(FilterExpr::MaxSize(n));
        }
        if let Some(n) = self.height {
            parts.push(FilterExpr::MaxHeight(n));
        }
        if let Some(n) = self.width {
            parts.push(FilterExpr::MaxWidth(n));
        }
        FilterExpr::and(parts)
    }

    /// Parse the strategy (default [`Strategy::PushDown`]).
    pub fn strategy(&self) -> Result<Strategy, String> {
        match &self.strategy {
            None => Ok(Strategy::PushDown),
            Some(s) => s.parse::<Strategy>(),
        }
    }

    /// Parse the degrade mode (default [`DegradeMode::Ladder`]).
    pub fn degrade(&self) -> Result<DegradeMode, String> {
        match &self.degrade {
            None => Ok(DegradeMode::Ladder),
            Some(s) => s.parse::<DegradeMode>(),
        }
    }

    /// The request's own budget knobs (deadline handled by the server,
    /// which measures it from admission time).
    pub fn budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        b.max_joins = self.max_joins;
        b.max_fragments = self.max_fragments;
        b
    }
}

/// Pull `name` out of a decoded object, treating JSON `null` as absent.
fn take_opt(obj: &mut Vec<(String, serde::JsonValue)>, name: &str) -> Option<serde::JsonValue> {
    let i = obj.iter().position(|(k, _)| k == name)?;
    match obj.remove(i).1 {
        serde::JsonValue::Null => None,
        v => Some(v),
    }
}

fn field<'de, T, D>(
    obj: &mut Vec<(String, serde::JsonValue)>,
    name: &str,
) -> Result<Option<T>, D::Error>
where
    T: Deserialize<'de>,
    D: serde::de::Deserializer<'de>,
{
    match take_opt(obj, name) {
        None => Ok(None),
        Some(v) => match serde::from_value::<T, D::Error>(v) {
            Ok(t) => Ok(Some(t)),
            // The shim's error type isn't Display-bound, so report the
            // field name and drop the inner detail.
            Err(_) => Err(serde::de::Error::custom(format!(
                "invalid value for field `{name}`"
            ))),
        },
    }
}

impl<'de> Deserialize<'de> for Request {
    fn deserialize<D: serde::de::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        let mut obj = match d.take_value()? {
            serde::JsonValue::Object(o) => o,
            _ => return Err(D::Error::custom("request must be a JSON object")),
        };
        let kind = match field::<String, D>(&mut obj, "kind")? {
            None => return Err(D::Error::custom("missing field `kind`")),
            Some(k) => match k.as_str() {
                "query" => RequestKind::Query,
                "health" => RequestKind::Health,
                "stats" => RequestKind::Stats,
                "reload" => RequestKind::Reload,
                "shutdown" => RequestKind::Shutdown,
                other => {
                    return Err(D::Error::custom(format!(
                        "unknown kind {other:?} (expected query|health|stats|reload|shutdown)"
                    )))
                }
            },
        };
        Ok(Request {
            kind,
            id: field::<u64, D>(&mut obj, "id")?.unwrap_or(0),
            keywords: field::<Vec<String>, D>(&mut obj, "keywords")?.unwrap_or_default(),
            size: field::<u32, D>(&mut obj, "size")?,
            height: field::<u32, D>(&mut obj, "height")?,
            width: field::<u32, D>(&mut obj, "width")?,
            strategy: field::<String, D>(&mut obj, "strategy")?,
            timeout_ms: field::<u64, D>(&mut obj, "timeout_ms")?,
            max_joins: field::<u64, D>(&mut obj, "max_joins")?,
            max_fragments: field::<u64, D>(&mut obj, "max_fragments")?,
            degrade: field::<String, D>(&mut obj, "degrade")?,
            top_k: field::<usize, D>(&mut obj, "top_k")?,
        })
        // Remaining fields in `obj` are unknown: deliberately ignored.
    }
}

/// Stable schema of the `stats`-verb response (assembled as raw JSON in
/// the server; documented here because this module is the protocol
/// reference). Field order is fixed; counters are cumulative since
/// boot; no wall-clock values outside `latency`.
///
/// ```json
/// {"id": N, "status": "ok",
///  "generation": N,                       // on-disk generation number
///  "reloads": {"ok": N, "failed": N},     // reload attempts (verb + watcher)
///  "quarantined": [{"file": "...", "reason": "..."}],
///  "serve": {"total": N, "ok": N, "degraded": N, "shed": N,
///            "timeout": N, "error": N, "shutting_down": N,
///            "invalid": N, "worker_panics": N, "accept_errors": N},
///  "eval": { ...summed EvalStats... },
///  "latency": { ...histogram buckets... },
///  "cache": {                             // aggregate across all arenas
///    "result": {"hits": N, "misses": N},     // exact-answer lookups
///    "evictions": N, "insertions": N, "bytes": N, "entries": N,
///    "shards": [{"hits": N, "misses": N,     // one per lock shard; probes
///                "evictions": N, "bytes": N, "entries": N}]} | null,
///  "delta": {"parent_chain": [...], "chain_depth": N,
///            "docs_carried": N, "docs_rewritten": N,
///            "carry_over": {"kept": N, "rekeyed": N, "evicted": N}},
///  "index": {"segments": N, "bytes": N, "terms_loaded": N},
///  "shards": [                            // one entry per shard, in order
///    {"shard": I, "docs": N,
///     "workers": N, "queued": N, "in_flight": N,
///     "respawns": N, "evaluations": N,
///     "flights": {"led": N, "coalesced": N, "aborted": N},
///     "cache": {...} | null}]}           // same shape; this shard's arena
/// ```
///
/// Grouping invariants: reload counters live only under `"reloads"`,
/// cache counters only under `"cache"` (aggregate) and
/// `"shards"[i]."cache"` (per-arena) — never at top level.
pub mod status {
    /// Evaluated in full.
    pub const OK: &str = "ok";
    /// Answered with a sound subset (budget tripped, doc skipped/failed).
    pub const DEGRADED: &str = "degraded";
    /// Rejected at admission: the queue was full.
    pub const SHED: &str = "shed";
    /// The per-request deadline passed before an answer was produced.
    pub const TIMEOUT: &str = "timeout";
    /// The request failed (bad input, worker panic, evaluation error).
    pub const ERROR: &str = "error";
    /// Rejected at admission: the server is draining.
    pub const SHUTTING_DOWN: &str = "shutting-down";
}

/// Per-shard outcome accounting attached to a *partial* query response
/// (one where at least one shard was dropped from the merge). Counts
/// always sum to the server's `--shards` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardOutcome {
    /// Shards whose evaluation made it into the merged answer set.
    pub ok: u64,
    /// Shards that missed their deadline slice (in-band timeout or no
    /// reply by the gather deadline) and were dropped from the merge.
    pub timed_out: u64,
    /// Shards whose queue was full at admission.
    pub shed: u64,
    /// Shards whose worker panicked evaluating this request.
    pub panicked: u64,
}

/// One ranked answer inside a query response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Answer {
    /// Source document name (the corpus file name).
    pub doc: String,
    /// Ranking score.
    pub score: f64,
    /// The fragment's node ids.
    pub nodes: Vec<u32>,
    /// Highlighted text snippet.
    pub snippet: String,
}

/// One response line for `query`-kind requests (and admission
/// rejections). `health` and `stats` responses are assembled directly
/// as JSON in the server because they embed histogram/counter objects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Echo of the request id (0 when the request line didn't decode).
    pub id: u64,
    /// One of the [`status`] constants.
    pub status: String,
    /// Ranked answers (empty unless status is `ok`/`degraded`).
    pub answers: Vec<Answer>,
    /// Degradation detail for `degraded` / admission detail for `shed`.
    pub note: Option<String>,
    /// Error detail for `error` / `timeout`.
    pub error: Option<String>,
    /// Evaluation counters (deterministic; no wall-clock values).
    pub stats: Option<EvalStats>,
    /// `false` when at least one shard was dropped from the merge
    /// (deadline slice missed, queue full, or worker panic) and the
    /// answers therefore cover only the surviving shards. Always `true`
    /// for non-query statuses and for complete merges.
    pub complete: bool,
    /// Per-shard outcome counts; present exactly when `complete` is
    /// `false`.
    pub shards: Option<ShardOutcome>,
}

impl Response {
    /// An empty-bodied response with the given status.
    pub fn bare(id: u64, status: &str) -> Self {
        Response {
            id,
            status: status.to_string(),
            answers: Vec::new(),
            note: None,
            error: None,
            stats: None,
            complete: true,
            shards: None,
        }
    }

    /// An `error`-status response with a message.
    pub fn error(id: u64, msg: impl Into<String>) -> Self {
        let mut r = Response::bare(id, status::ERROR);
        r.error = Some(msg.into());
        r
    }

    /// Serialize to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        // invariant: serialization of a plain value tree cannot fail.
        serde_json::to_string(self).expect("response serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_decodes_with_defaults() {
        let r: Request = serde_json::from_str(r#"{"kind":"health"}"#).unwrap();
        assert_eq!(r.kind, RequestKind::Health);
        assert_eq!(r.id, 0);
        assert!(r.keywords.is_empty());
        assert_eq!(r.timeout_ms, None);
        assert_eq!(r.strategy().unwrap(), Strategy::PushDown);
        assert_eq!(r.degrade().unwrap(), DegradeMode::Ladder);
        assert!(r.filter().is_true());
        // `auto` is accepted and means the same as no strategy at all.
        for (name, want) in [
            ("auto", Strategy::PushDown),
            ("pushdown", Strategy::PushDown),
            ("brute", Strategy::BruteForce),
        ] {
            let r: Request =
                serde_json::from_str(&format!(r#"{{"kind":"query","strategy":"{name}"}}"#))
                    .unwrap();
            assert_eq!(r.strategy().unwrap(), want, "{name}");
        }
    }

    #[test]
    fn full_query_request_decodes() {
        let r: Request = serde_json::from_str(
            r#"{"kind":"query","id":7,"keywords":["xml","search"],"size":3,
                "strategy":"reduced","timeout_ms":250,"max_joins":1000,
                "degrade":"off","top_k":5}"#,
        )
        .unwrap();
        assert_eq!(r.kind, RequestKind::Query);
        assert_eq!(r.id, 7);
        assert_eq!(r.keywords, vec!["xml", "search"]);
        assert_eq!(r.filter(), FilterExpr::MaxSize(3));
        assert_eq!(r.strategy().unwrap(), Strategy::FixedPointReduced);
        assert_eq!(r.timeout_ms, Some(250));
        assert_eq!(r.budget().max_joins, Some(1000));
        assert_eq!(r.degrade().unwrap(), DegradeMode::Off);
        assert_eq!(r.top_k, Some(5));
    }

    #[test]
    fn reload_request_decodes() {
        let r: Request = serde_json::from_str(r#"{"kind":"reload","id":5}"#).unwrap();
        assert_eq!(r.kind, RequestKind::Reload);
        assert_eq!(r.id, 5);
    }

    #[test]
    fn unknown_fields_and_nulls_are_tolerated() {
        let r: Request = serde_json::from_str(
            r#"{"kind":"query","keywords":["k"],"size":null,"future_field":[1,2]}"#,
        )
        .unwrap();
        assert_eq!(r.size, None);
        assert_eq!(r.keywords, vec!["k"]);
    }

    #[test]
    fn bad_requests_are_errors_not_panics() {
        for bad in [
            "[]",
            "42",
            r#"{"id":1}"#,
            r#"{"kind":"frobnicate"}"#,
            r#"{"kind":"query","keywords":"not-a-list"}"#,
            r#"{"kind":"query","id":-3}"#,
        ] {
            assert!(serde_json::from_str::<Request>(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn response_roundtrips_and_is_deterministic() {
        let mut r = Response::bare(9, status::DEGRADED);
        r.note = Some("1 doc skipped".into());
        r.answers.push(Answer {
            doc: "a.xml".into(),
            score: 1.5,
            nodes: vec![1, 2, 3],
            snippet: "xml <<search>>".into(),
        });
        let line = r.to_line();
        assert_eq!(line, r.to_line(), "serialization is deterministic");
        assert!(
            line.starts_with(r#"{"id":9,"status":"degraded","#),
            "{line}"
        );
        assert!(
            line.ends_with(r#""complete":true,"shards":null}"#),
            "shard marker fields trail the line: {line}"
        );
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn partial_response_carries_shard_accounting() {
        let mut r = Response::bare(3, status::DEGRADED);
        r.note = Some("1 of 4 shard(s) missing from merge".into());
        r.complete = false;
        r.shards = Some(ShardOutcome {
            ok: 3,
            timed_out: 1,
            shed: 0,
            panicked: 0,
        });
        let line = r.to_line();
        assert!(line.contains(r#""complete":false"#), "{line}");
        assert!(
            line.contains(r#""shards":{"ok":3,"timed_out":1,"shed":0,"panicked":0}"#),
            "{line}"
        );
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, r);
    }
}
