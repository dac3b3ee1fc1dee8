//! Hand-rolled argument parsing (the workspace deliberately keeps its
//! dependency set minimal; a CLI parser crate is not on the list).

use crate::serve::ServeArgs;
use xfrag_core::{Budget, DegradeMode, FilterExpr, Strategy};

/// Usage text shown on parse errors.
pub const USAGE: &str = "\
usage:
  xfrag search <file.xml|file.xfrg> <keyword>... [options]
  xfrag msearch <dir> <keyword>... [options]     (searches every .xml/.xfrg in dir)
  xfrag explain <file.xml|file.xfrg> <keyword>... [options]
  xfrag compile <in.xml> <out.xfrg>              (pre-parse to binary form)
  xfrag index [--delta] <src-dir> <corpus-dir>   (commit a new corpus generation)
  xfrag compact <corpus-dir>                     (materialize a delta chain)
  xfrag info <file.xml|file.xfrg>
  xfrag serve <corpus-dir> [serve options]       (TCP query server, see README)
  xfrag request <host:port> <json>               (send one serve request line)
  xfrag demo

options:
  --size N        keep fragments with at most N nodes (anti-monotonic)
  --height N      keep fragments of height at most N (anti-monotonic)
  --width N       keep fragments of document-order span at most N
  --min-size N    keep fragments with at least N nodes (not anti-monotonic)
  --strategy S    auto | brute | naive | reduced | pushdown  (default: auto,
                  which runs push-down; see README \"Strategy picking\")
  --strict        require every keyword at a fragment leaf (Definition 8)
  --maximal       hide overlapping sub-fragments (show maximal answers only)
  --ids           print node-id lists instead of XML
  --stats         print evaluation statistics

observability (see README \"Observability\"):
  --profile       print a per-stage execution profile (span tree with
                  wall-clock and counter deltas) after the results
  --profile-json  same, as a JSON span tree for tooling
  --analyze       (explain only) execute each plan stage and print the
                  cost model's estimate next to actual work done
  --cache-mb N    (search/msearch/explain) evaluate through an N-MB
                  query cache; with --profile or --analyze the warm
                  pass shows per-stage cache hits (default: off)

resource limits (see README \"Resource limits & degradation\"):
  --timeout-ms N     wall-clock budget for the whole evaluation
  --max-fragments N  cap on intermediate fragments materialized
  --max-joins N      cap on binary join kernels
  --degrade M        off | ladder   what to do when a budget trips
                     (default: ladder — answer with a sound subset from
                     the cheapest plan the remaining budget affords)

corpus updates (see README \"Corpus updates & recovery\"):
  index compiles every .xml in <src-dir> into <corpus-dir> as a new
  checksummed, manifest-committed generation; writes are atomic (temp +
  fsync + rename + dir fsync), so a crash at any point leaves the
  previous generation loadable and byte-identical.
  --delta            diff <src-dir> against the latest verified
                     generation and rewrite only added/changed
                     documents; unchanged files are referenced from the
                     parent generation (requires a committed generation)
  compact rewrites the latest verified generation — typically the top
  of a delta chain — as a new full generation, bounding chain depth.
  --inject SPEC      (compile/index/compact) write-path fault plan;
                     sites store:write | store:fsync | store:rename,
                     actions include abort (kill -9 model) and torn:<n>

serve options (see README \"Serving queries over TCP\"):
  --port N           TCP port; 0 picks an ephemeral port (default: 7878)
  --shards N         partition the corpus into N fault-isolated shards
                     (hash of document name), each with its own worker
                     pool, admission queue, and cache arena; queries fan
                     out scatter-gather and shards that miss the request
                     deadline are dropped from the merge with a
                     `\"complete\":false` marker (default: 1)
  --replicas R       serve each shard from R independent replicas (own
                     pool, queue, cache arena); slow sub-jobs are hedged
                     to a backup replica and the first good reply wins,
                     byte-identically (default: 1)
  --hedge-ms N       hedge-delay floor and cold-start hedge delay; the
                     effective delay tracks each replica's latency EWMA
                     (default: 25)
  --breaker-failures N  consecutive sub-job failures (timeout/panic)
                     that open a replica's circuit breaker (default: 3)
  --breaker-cooldown-ms N  how long an open breaker refuses sub-jobs
                     before a single half-open probe (default: 1000)
  --workers N        worker pool size *per replica* (default: 4)
  --queue-depth N    per-replica admission queue bound; excess requests
                     are shed with a `shed` response (default: 64)
  --timeout-ms N     server-wide per-request deadline, measured from
                     admission (default: none)
  --watch-ms N       poll the corpus dir every N ms and hot-reload when
                     a newer committed generation appears (default: off)
  --inject SPEC      deterministic fault plan `site@hit=action,...`
                     (actions: panic | cancel | read-error | delay:<ms>)
  --fault-seed N     derive a fault plan over the runtime sites from a
                     seed (composes with --inject)
  --cache-mb N       query-cache capacity in MB, shared across the
                     worker pool (default: 64)
  --no-cache         disable the query cache entirely

request options:
  --retries N        retry retryable outcomes (shed, timeout,
                     shutting-down replies; refused/reset connections)
                     up to N times (default: 0)
  --backoff-ms N     base of the exponential backoff between retries,
                     with jitter (default: 100)
  --retry-partial    also retry partial replies (`\"complete\":false`);
                     by default a partial reply is printed as-is and
                     exits 4 without consuming retries
  --retry-budget-ms N  wall-clock deadline shared across *all* attempts;
                     once it passes, no further attempt starts and
                     backoff sleeps are clamped to the remainder
                     (default: none)
  exit codes: 0 reply received, 1 permanent failure, 3 retries or retry
              budget exhausted, 4 partial reply (some shards dropped)
";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a query and print answers.
    Search(SearchArgs),
    /// Run a query over every document in a directory.
    MultiSearch(SearchArgs),
    /// Pre-parse an XML file into the XFRG binary format.
    Compile {
        /// Source XML path.
        input: String,
        /// Destination .xfrg path.
        output: String,
        /// Write-path fault plan (`--inject`), for crash testing.
        inject: Option<String>,
    },
    /// Compile every `.xml` in a source directory into a corpus
    /// directory as a new manifest-committed generation.
    Index {
        /// Directory of source `.xml` files.
        src: String,
        /// Corpus directory receiving the generation.
        out: String,
        /// Commit a delta generation: rewrite only documents that
        /// changed against the latest verified generation (`--delta`).
        delta: bool,
        /// Write-path fault plan (`--inject`), for crash testing.
        inject: Option<String>,
    },
    /// Materialize the latest verified generation — typically the top of
    /// a delta chain — as a new full generation.
    Compact {
        /// Corpus directory to compact.
        dir: String,
        /// Write-path fault plan (`--inject`), for crash testing.
        inject: Option<String>,
    },
    /// Print the optimizer trace (Figure 5-style evaluation trees).
    Explain(SearchArgs),
    /// Print document statistics.
    Info {
        /// Path to the XML file.
        file: String,
    },
    /// Run the newline-delimited-JSON TCP query server.
    Serve(ServeArgs),
    /// Send one request line to a running server and print the reply.
    Request {
        /// `host:port` of the server.
        addr: String,
        /// The raw JSON request line.
        json: String,
        /// How many times to retry retryable outcomes (`--retries`).
        retries: u32,
        /// Base backoff between retries in milliseconds (`--backoff-ms`).
        backoff_ms: u64,
        /// Treat partial (`"complete":false`) replies as retryable
        /// (`--retry-partial`); off by default because a partial reply
        /// is a *success* over the surviving shards.
        retry_partial: bool,
        /// Wall-clock deadline across all attempts in milliseconds
        /// (`--retry-budget-ms`); `None` means attempts-only bounding.
        retry_budget_ms: Option<u64>,
    },
    /// Run the paper's §4 example on the built-in Figure 1 document.
    Demo,
}

/// How `--profile` output should be rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileMode {
    /// No profiling; evaluation runs with the no-op tracer.
    #[default]
    Off,
    /// Pretty-text span tree.
    Text,
    /// JSON span tree with the fixed emitter schema.
    Json,
}

impl ProfileMode {
    /// Whether profiling is on in any form.
    pub fn is_on(self) -> bool {
        self != ProfileMode::Off
    }
}

/// Arguments shared by `search` and `explain`.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchArgs {
    /// Path to the XML file.
    pub file: String,
    /// Raw query keywords.
    pub keywords: Vec<String>,
    /// The assembled selection predicate.
    pub filter: FilterExpr,
    /// Evaluation strategy (default push-down, which `auto` also
    /// names).
    pub strategy: Strategy,
    /// Definition 8 strict leaf semantics.
    pub strict: bool,
    /// Present maximal answers only.
    pub maximal: bool,
    /// Print node ids instead of XML.
    pub ids: bool,
    /// Print stats after results.
    pub stats: bool,
    /// Resource limits (all unlimited by default).
    pub budget: Budget,
    /// What to do when a budget trips.
    pub degrade: DegradeMode,
    /// Per-stage execution profiling (`--profile` / `--profile-json`).
    pub profile: ProfileMode,
    /// `explain` only: execute each plan stage and print estimated vs.
    /// actual cost (`--analyze`).
    pub analyze: bool,
    /// Evaluate through a query cache of this many MB (`--cache-mb`).
    /// `None` (the default) keeps the cache out of the picture, so
    /// plain invocations stay byte-for-byte reproducible.
    pub cache_mb: Option<u64>,
}

fn parse_u32(flag: &str, v: Option<&String>) -> Result<u32, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<u32>()
        .map_err(|_| format!("{flag} needs a non-negative integer, got {v:?}"))
}

/// Parse the positional paths, optional `--inject`, and (for `index`)
/// optional `--delta` of a write-path command (`compile` / `index` /
/// `compact`).
fn parse_write_cmd(
    sub: &str,
    rest: &[String],
    n_paths: usize,
) -> Result<(Vec<String>, Option<String>, bool), String> {
    let mut pos = Vec::new();
    let mut inject = None;
    let mut delta = false;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--inject" => {
                inject = Some(rest.get(i + 1).ok_or("--inject needs a spec")?.clone());
                i += 1;
            }
            "--delta" if sub == "index" => delta = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            _ => pos.push(rest[i].clone()),
        }
        i += 1;
    }
    if pos.len() != n_paths {
        return Err(format!(
            "{sub} needs exactly {n_paths} path(s), got {}",
            pos.len()
        ));
    }
    Ok((pos, inject, delta))
}

/// Parse argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let sub = it.next().ok_or("missing subcommand")?;
    match sub.as_str() {
        "demo" => Ok(Command::Demo),
        "info" => {
            let file = it.next().ok_or("info needs a file")?.clone();
            if let Some(extra) = it.next() {
                return Err(format!("unexpected argument {extra:?}"));
            }
            Ok(Command::Info { file })
        }
        "search" | "explain" | "msearch" => {
            let rest: Vec<String> = it.cloned().collect();
            let args = parse_search(&rest)?;
            match sub.as_str() {
                "search" => Ok(Command::Search(args)),
                "msearch" => Ok(Command::MultiSearch(args)),
                _ => Ok(Command::Explain(args)),
            }
        }
        "compile" => {
            let rest: Vec<String> = it.cloned().collect();
            let (mut pos, inject, _) = parse_write_cmd("compile", &rest, 2)?;
            let output = pos.pop().unwrap();
            let input = pos.pop().unwrap();
            Ok(Command::Compile {
                input,
                output,
                inject,
            })
        }
        "index" => {
            let rest: Vec<String> = it.cloned().collect();
            let (mut pos, inject, delta) = parse_write_cmd("index", &rest, 2)?;
            let out = pos.pop().unwrap();
            let src = pos.pop().unwrap();
            Ok(Command::Index {
                src,
                out,
                delta,
                inject,
            })
        }
        "compact" => {
            let rest: Vec<String> = it.cloned().collect();
            let (mut pos, inject, _) = parse_write_cmd("compact", &rest, 1)?;
            let dir = pos.pop().unwrap();
            Ok(Command::Compact { dir, inject })
        }
        "serve" => {
            let rest: Vec<String> = it.cloned().collect();
            Ok(Command::Serve(parse_serve(&rest)?))
        }
        "request" => {
            let rest: Vec<String> = it.cloned().collect();
            let mut retries = 0u32;
            let mut backoff_ms = 100u64;
            let mut retry_partial = false;
            let mut retry_budget_ms = None;
            let mut parts = Vec::new();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--retries" => {
                        retries = parse_u32("--retries", rest.get(i + 1))?;
                        i += 1;
                    }
                    "--backoff-ms" => {
                        backoff_ms = parse_u32("--backoff-ms", rest.get(i + 1))? as u64;
                        i += 1;
                    }
                    "--retry-partial" => retry_partial = true,
                    "--retry-budget-ms" => {
                        retry_budget_ms =
                            Some(parse_u32("--retry-budget-ms", rest.get(i + 1))? as u64);
                        i += 1;
                    }
                    _ => parts.push(rest[i].clone()),
                }
                i += 1;
            }
            let mut parts = parts.into_iter();
            let addr = parts.next().ok_or("request needs a host:port")?;
            // Join so unquoted JSON split by the shell still works.
            let json: Vec<String> = parts.collect();
            if json.is_empty() {
                return Err("request needs a JSON request line".into());
            }
            Ok(Command::Request {
                addr,
                json: json.join(" "),
                retries,
                backoff_ms,
                retry_partial,
                retry_budget_ms,
            })
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn parse_search(rest: &[String]) -> Result<SearchArgs, String> {
    let mut file = None;
    let mut keywords = Vec::new();
    let mut filters = Vec::new();
    let mut strategy = Strategy::PushDown;
    let mut strict = false;
    let mut maximal = false;
    let mut ids = false;
    let mut stats = false;
    let mut budget = Budget::unlimited();
    let mut degrade = DegradeMode::Ladder;
    let mut profile = ProfileMode::Off;
    let mut analyze = false;
    let mut cache_mb = None;

    let mut i = 0;
    while i < rest.len() {
        let arg = &rest[i];
        match arg.as_str() {
            "--size" => {
                filters.push(FilterExpr::MaxSize(parse_u32("--size", rest.get(i + 1))?));
                i += 1;
            }
            "--height" => {
                filters.push(FilterExpr::MaxHeight(parse_u32(
                    "--height",
                    rest.get(i + 1),
                )?));
                i += 1;
            }
            "--width" => {
                filters.push(FilterExpr::MaxWidth(parse_u32("--width", rest.get(i + 1))?));
                i += 1;
            }
            "--min-size" => {
                filters.push(FilterExpr::MinSize(parse_u32(
                    "--min-size",
                    rest.get(i + 1),
                )?));
                i += 1;
            }
            "--strategy" => {
                let v = rest.get(i + 1).ok_or("--strategy needs a value")?;
                strategy = v.parse::<Strategy>()?;
                i += 1;
            }
            "--timeout-ms" => {
                let ms = parse_u32("--timeout-ms", rest.get(i + 1))?;
                budget.wall_clock = Some(std::time::Duration::from_millis(ms as u64));
                i += 1;
            }
            "--max-fragments" => {
                budget.max_fragments = Some(parse_u32("--max-fragments", rest.get(i + 1))? as u64);
                i += 1;
            }
            "--max-joins" => {
                budget.max_joins = Some(parse_u32("--max-joins", rest.get(i + 1))? as u64);
                i += 1;
            }
            "--degrade" => {
                let v = rest.get(i + 1).ok_or("--degrade needs a value")?;
                degrade = v.parse::<DegradeMode>()?;
                i += 1;
            }
            "--strict" => strict = true,
            "--maximal" => maximal = true,
            "--ids" => ids = true,
            "--stats" => stats = true,
            "--profile" => profile = ProfileMode::Text,
            "--profile-json" => profile = ProfileMode::Json,
            "--analyze" => analyze = true,
            "--cache-mb" => {
                cache_mb = Some(parse_u32("--cache-mb", rest.get(i + 1))? as u64);
                i += 1;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            _ => {
                if file.is_none() {
                    file = Some(arg.clone());
                } else {
                    keywords.push(arg.clone());
                }
            }
        }
        i += 1;
    }

    let file = file.ok_or("missing input file")?;
    if keywords.is_empty() {
        return Err("missing query keywords".into());
    }
    Ok(SearchArgs {
        file,
        keywords,
        filter: FilterExpr::and(filters),
        strategy,
        strict,
        maximal,
        ids,
        stats,
        budget,
        degrade,
        profile,
        analyze,
        cache_mb,
    })
}

fn parse_serve(rest: &[String]) -> Result<ServeArgs, String> {
    let mut dir: Option<String> = None;
    let mut args = ServeArgs::new("");
    let mut i = 0;
    while i < rest.len() {
        let arg = &rest[i];
        match arg.as_str() {
            "--port" => {
                let v = parse_u32("--port", rest.get(i + 1))?;
                args.port =
                    u16::try_from(v).map_err(|_| format!("--port must be <= 65535, got {v}"))?;
                i += 1;
            }
            "--shards" => {
                let v = parse_u32("--shards", rest.get(i + 1))? as usize;
                if v == 0 {
                    return Err("--shards must be at least 1".into());
                }
                args.shards = v;
                i += 1;
            }
            "--replicas" => {
                let v = parse_u32("--replicas", rest.get(i + 1))? as usize;
                if v == 0 {
                    return Err("--replicas must be at least 1".into());
                }
                args.replicas = v;
                i += 1;
            }
            "--hedge-ms" => {
                args.hedge_ms = parse_u32("--hedge-ms", rest.get(i + 1))? as u64;
                i += 1;
            }
            "--breaker-failures" => {
                let v = parse_u32("--breaker-failures", rest.get(i + 1))?;
                if v == 0 {
                    return Err("--breaker-failures must be at least 1".into());
                }
                args.breaker_failures = v;
                i += 1;
            }
            "--breaker-cooldown-ms" => {
                args.breaker_cooldown_ms =
                    parse_u32("--breaker-cooldown-ms", rest.get(i + 1))? as u64;
                i += 1;
            }
            "--workers" => {
                args.workers = parse_u32("--workers", rest.get(i + 1))? as usize;
                i += 1;
            }
            "--queue-depth" => {
                args.queue_depth = parse_u32("--queue-depth", rest.get(i + 1))? as usize;
                i += 1;
            }
            "--timeout-ms" => {
                args.timeout_ms = Some(parse_u32("--timeout-ms", rest.get(i + 1))? as u64);
                i += 1;
            }
            "--watch-ms" => {
                args.watch_ms = Some(parse_u32("--watch-ms", rest.get(i + 1))? as u64);
                i += 1;
            }
            "--inject" => {
                let v = rest.get(i + 1).ok_or("--inject needs a spec")?;
                args.inject = Some(v.clone());
                i += 1;
            }
            "--fault-seed" => {
                let v = rest.get(i + 1).ok_or("--fault-seed needs a value")?;
                args.fault_seed = Some(v.parse::<u64>().map_err(|_| {
                    format!("--fault-seed needs a non-negative integer, got {v:?}")
                })?);
                i += 1;
            }
            "--cache-mb" => {
                args.cache_mb = parse_u32("--cache-mb", rest.get(i + 1))? as u64;
                i += 1;
            }
            "--no-cache" => args.no_cache = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            _ => {
                if dir.is_some() {
                    return Err(format!("unexpected argument {arg:?}"));
                }
                dir = Some(arg.clone());
            }
        }
        i += 1;
    }
    args.dir = dir.ok_or("serve needs a corpus directory")?;
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_search_with_filters() {
        let cmd = parse(&argv("search doc.xml xquery optimization --size 3 --stats")).unwrap();
        match cmd {
            Command::Search(a) => {
                assert_eq!(a.file, "doc.xml");
                assert_eq!(a.keywords, vec!["xquery", "optimization"]);
                assert_eq!(a.filter, FilterExpr::MaxSize(3));
                assert_eq!(a.strategy, Strategy::PushDown);
                assert!(a.stats);
                assert!(!a.strict);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_multiple_filters_conjoin() {
        let cmd = parse(&argv("search d.xml k --size 3 --height 2")).unwrap();
        match cmd {
            Command::Search(a) => {
                assert_eq!(
                    a.filter,
                    FilterExpr::And(vec![FilterExpr::MaxSize(3), FilterExpr::MaxHeight(2)])
                );
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn parse_strategy_aliases() {
        for (alias, expect) in [
            ("auto", Strategy::PushDown),
            ("brute", Strategy::BruteForce),
            ("naive", Strategy::FixedPointNaive),
            ("reduced", Strategy::FixedPointReduced),
            ("pushdown", Strategy::PushDown),
        ] {
            let cmd = parse(&argv(&format!("search d.xml k --strategy {alias}"))).unwrap();
            match cmd {
                Command::Search(a) => assert_eq!(a.strategy, expect),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn parse_info_and_demo() {
        assert_eq!(
            parse(&argv("info d.xml")).unwrap(),
            Command::Info {
                file: "d.xml".into()
            }
        );
        assert_eq!(parse(&argv("demo")).unwrap(), Command::Demo);
    }

    #[test]
    fn errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&argv("bogus")).is_err());
        assert!(parse(&argv("search d.xml")).is_err()); // no keywords
        assert!(parse(&argv("search k --size x d.xml")).is_err());
        assert!(parse(&argv("search d.xml k --strategy warp")).is_err());
        assert!(parse(&argv("search d.xml k --frobnicate")).is_err());
        assert!(parse(&argv("info")).is_err());
        assert!(parse(&argv("info a.xml extra")).is_err());
    }

    #[test]
    fn parse_budget_flags() {
        let cmd = parse(&argv(
            "search d.xml k --timeout-ms 250 --max-fragments 1000 --max-joins 5000 --degrade off",
        ))
        .unwrap();
        match cmd {
            Command::Search(a) => {
                assert_eq!(
                    a.budget.wall_clock,
                    Some(std::time::Duration::from_millis(250))
                );
                assert_eq!(a.budget.max_fragments, Some(1000));
                assert_eq!(a.budget.max_joins, Some(5000));
                assert_eq!(a.degrade, DegradeMode::Off);
            }
            _ => unreachable!(),
        }
        // Defaults: unlimited budget, ladder degradation.
        match parse(&argv("search d.xml k")).unwrap() {
            Command::Search(a) => {
                assert!(!a.budget.is_limited());
                assert_eq!(a.degrade, DegradeMode::Ladder);
            }
            _ => unreachable!(),
        }
        assert!(parse(&argv("search d.xml k --timeout-ms")).is_err());
        assert!(parse(&argv("search d.xml k --degrade maybe")).is_err());
    }

    #[test]
    fn parse_profile_and_analyze_flags() {
        match parse(&argv("search d.xml k --profile")).unwrap() {
            Command::Search(a) => {
                assert_eq!(a.profile, ProfileMode::Text);
                assert!(a.profile.is_on());
                assert!(!a.analyze);
            }
            _ => unreachable!(),
        }
        match parse(&argv("msearch dir k --profile-json")).unwrap() {
            Command::MultiSearch(a) => assert_eq!(a.profile, ProfileMode::Json),
            _ => unreachable!(),
        }
        match parse(&argv("explain d.xml k --analyze")).unwrap() {
            Command::Explain(a) => assert!(a.analyze),
            _ => unreachable!(),
        }
        // Defaults: off.
        match parse(&argv("search d.xml k")).unwrap() {
            Command::Search(a) => {
                assert_eq!(a.profile, ProfileMode::Off);
                assert!(!a.profile.is_on());
                assert!(!a.analyze);
                assert_eq!(a.cache_mb, None);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn parse_search_cache_flag() {
        match parse(&argv("search d.xml k --cache-mb 8")).unwrap() {
            Command::Search(a) => assert_eq!(a.cache_mb, Some(8)),
            _ => unreachable!(),
        }
        assert!(parse(&argv("search d.xml k --cache-mb")).is_err());
        assert!(parse(&argv("search d.xml k --cache-mb lots")).is_err());
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        match parse(&argv("serve corpus")).unwrap() {
            Command::Serve(a) => {
                assert_eq!(a.dir, "corpus");
                assert_eq!(a.port, 7878);
                assert_eq!(a.shards, 1);
                assert_eq!(a.replicas, 1);
                assert_eq!(a.hedge_ms, 25);
                assert_eq!(a.breaker_failures, 3);
                assert_eq!(a.breaker_cooldown_ms, 1000);
                assert_eq!(a.workers, 4);
                assert_eq!(a.queue_depth, 64);
                assert_eq!(a.timeout_ms, None);
                assert_eq!(a.watch_ms, None);
                assert_eq!(a.inject, None);
                assert_eq!(a.fault_seed, None);
                assert_eq!(a.cache_mb, 64);
                assert!(!a.no_cache);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv(
            "serve corpus --port 0 --shards 4 --replicas 2 --hedge-ms 10 \
             --breaker-failures 5 --breaker-cooldown-ms 200 \
             --workers 2 --queue-depth 8 --timeout-ms 250 \
             --watch-ms 500 --inject serve:worker@1=panic --fault-seed 42 \
             --cache-mb 16 --no-cache",
        ))
        .unwrap()
        {
            Command::Serve(a) => {
                assert_eq!(a.port, 0);
                assert_eq!(a.shards, 4);
                assert_eq!(a.replicas, 2);
                assert_eq!(a.hedge_ms, 10);
                assert_eq!(a.breaker_failures, 5);
                assert_eq!(a.breaker_cooldown_ms, 200);
                assert_eq!(a.workers, 2);
                assert_eq!(a.queue_depth, 8);
                assert_eq!(a.timeout_ms, Some(250));
                assert_eq!(a.watch_ms, Some(500));
                assert_eq!(a.inject.as_deref(), Some("serve:worker@1=panic"));
                assert_eq!(a.fault_seed, Some(42));
                assert_eq!(a.cache_mb, 16);
                assert!(a.no_cache);
            }
            _ => unreachable!(),
        }
        assert!(parse(&argv("serve")).is_err());
        assert!(parse(&argv("serve corpus --cache-mb")).is_err());
        assert!(parse(&argv("serve corpus extra")).is_err());
        assert!(parse(&argv("serve corpus --port")).is_err());
        assert!(parse(&argv("serve corpus --port 70000")).is_err());
        assert!(parse(&argv("serve corpus --shards 0")).is_err());
        assert!(parse(&argv("serve corpus --shards")).is_err());
        assert!(parse(&argv("serve corpus --replicas 0")).is_err());
        assert!(parse(&argv("serve corpus --replicas")).is_err());
        assert!(parse(&argv("serve corpus --breaker-failures 0")).is_err());
        assert!(parse(&argv("serve corpus --hedge-ms")).is_err());
        assert!(parse(&argv("serve corpus --frobnicate")).is_err());
    }

    #[test]
    fn parse_request_joins_json_words() {
        match parse(&argv("request 127.0.0.1:7878 {\"kind\":\"health\"}")).unwrap() {
            Command::Request {
                addr,
                json,
                retries,
                backoff_ms,
                retry_partial,
                retry_budget_ms,
            } => {
                assert_eq!(addr, "127.0.0.1:7878");
                assert_eq!(json, "{\"kind\":\"health\"}");
                assert_eq!(retries, 0);
                assert_eq!(backoff_ms, 100);
                assert!(!retry_partial);
                assert_eq!(retry_budget_ms, None);
            }
            _ => unreachable!(),
        }
        // Shell-split JSON is re-joined with single spaces.
        match parse(&argv("request h:1 {\"kind\": \"health\"}")).unwrap() {
            Command::Request { json, .. } => assert_eq!(json, "{\"kind\": \"health\"}"),
            _ => unreachable!(),
        }
        assert!(parse(&argv("request")).is_err());
        assert!(parse(&argv("request h:1")).is_err());
    }

    #[test]
    fn parse_request_retry_flags() {
        // Flags may appear anywhere, including after the JSON words.
        match parse(&argv(
            "request h:1 --retries 3 {\"kind\":\"health\"} --backoff-ms 50 --retry-partial \
             --retry-budget-ms 2000",
        ))
        .unwrap()
        {
            Command::Request {
                json,
                retries,
                backoff_ms,
                retry_partial,
                retry_budget_ms,
                ..
            } => {
                assert_eq!(json, "{\"kind\":\"health\"}");
                assert_eq!(retries, 3);
                assert_eq!(backoff_ms, 50);
                assert!(retry_partial);
                assert_eq!(retry_budget_ms, Some(2000));
            }
            _ => unreachable!(),
        }
        assert!(parse(&argv("request h:1 {} --retries")).is_err());
        assert!(parse(&argv("request h:1 {} --retries x")).is_err());
        assert!(parse(&argv("request h:1 {} --retry-budget-ms")).is_err());
        assert!(parse(&argv("request h:1 {} --retry-budget-ms x")).is_err());
    }

    #[test]
    fn parse_compile_and_index() {
        assert_eq!(
            parse(&argv("compile in.xml out.xfrg")).unwrap(),
            Command::Compile {
                input: "in.xml".into(),
                output: "out.xfrg".into(),
                inject: None,
            }
        );
        assert_eq!(
            parse(&argv(
                "compile in.xml out.xfrg --inject store:write@1=abort"
            ))
            .unwrap(),
            Command::Compile {
                input: "in.xml".into(),
                output: "out.xfrg".into(),
                inject: Some("store:write@1=abort".into()),
            }
        );
        assert_eq!(
            parse(&argv("index src corpus --inject store:rename@1=panic")).unwrap(),
            Command::Index {
                src: "src".into(),
                out: "corpus".into(),
                delta: false,
                inject: Some("store:rename@1=panic".into()),
            }
        );
        assert!(parse(&argv("compile in.xml")).is_err());
        assert!(parse(&argv("compile a b c")).is_err());
        assert!(parse(&argv("index src")).is_err());
        assert!(parse(&argv("index src corpus --inject")).is_err());
        assert!(parse(&argv("index src corpus --frobnicate")).is_err());
    }

    #[test]
    fn parse_delta_and_compact() {
        assert_eq!(
            parse(&argv("index --delta src corpus")).unwrap(),
            Command::Index {
                src: "src".into(),
                out: "corpus".into(),
                delta: true,
                inject: None,
            }
        );
        assert_eq!(
            parse(&argv("compact corpus --inject store:write@0=torn:3")).unwrap(),
            Command::Compact {
                dir: "corpus".into(),
                inject: Some("store:write@0=torn:3".into()),
            }
        );
        // --delta belongs to index only; compact takes exactly one path.
        assert!(parse(&argv("compile --delta in.xml out.xfrg")).is_err());
        assert!(parse(&argv("compact --delta corpus")).is_err());
        assert!(parse(&argv("compact")).is_err());
        assert!(parse(&argv("compact a b")).is_err());
    }

    #[test]
    fn no_filters_means_true() {
        match parse(&argv("search d.xml k")).unwrap() {
            Command::Search(a) => assert!(a.filter.is_true()),
            _ => unreachable!(),
        }
    }
}
