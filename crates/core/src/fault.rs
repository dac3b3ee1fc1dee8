//! Deterministic fault injection for robustness testing.
//!
//! A retrieval service must survive worker panics, corrupted stores, slow
//! documents and mid-flight cancellations — failure modes that are hard to
//! reproduce on demand and therefore hard to test. This module makes them
//! reproducible: a [`FaultPlan`] arms **named sites** (fixed strings like
//! [`site::COLLECTION_DOC`]) to misbehave on specific *hit numbers*, and a
//! compiled [`FaultInjector`] is threaded through evaluation via
//! [`crate::ExecPolicy::fault`] / [`crate::Governor`]. Every evaluation
//! layer that owns a governor consults its fault point; with no injector
//! installed the check is a `None` branch on an `Option`, so production
//! paths pay nothing.
//!
//! Determinism contract: a site's hit counter increments once per
//! traversal, so "site `collection:doc`, hit 2, action panic" always blows
//! up the third document evaluated — the same one on every run for a
//! fixed corpus and query. [`FaultPlan::from_seed`] derives an arming
//! from a `u64` seed with a SplitMix64 stream, so randomized robustness
//! sweeps reproduce from the seed alone.

use crate::budget::Breach;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Marker embedded in every injected panic payload so catch sites and
/// tests can distinguish injected panics from genuine bugs.
pub const PANIC_MARKER: &str = "xfrag-injected-fault";

/// The named injection sites evaluation code consults. Arbitrary strings
/// are accepted everywhere; these constants are the sites the engine
/// actually traverses.
pub mod site {
    /// Start of one budgeted query evaluation
    /// ([`crate::evaluate_budgeted`]).
    pub const QUERY_EVAL: &str = "query:eval";
    /// Before each candidate document of a collection evaluation.
    pub const COLLECTION_DOC: &str = "collection:doc";
    /// A `serve` worker thread picking up a request (CLI layer).
    pub const SERVE_WORKER: &str = "serve:worker";
    /// A corpus file read during `serve` startup (CLI layer).
    pub const SERVE_LOAD: &str = "serve:load";
    /// The payload write of an atomic store write (CLI/store layer).
    pub const STORE_WRITE: &str = "store:write";
    /// The fsync before an atomic store write's rename (CLI/store layer).
    pub const STORE_FSYNC: &str = "store:fsync";
    /// The commit rename of an atomic store write (CLI/store layer).
    pub const STORE_RENAME: &str = "store:rename";
}

/// What an armed site does when its hit comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a [`PANIC_MARKER`] payload.
    Panic,
    /// Sleep for the given duration, then continue normally — models a
    /// stalled document or a slow disk, and drives deadline breaches.
    Delay(Duration),
    /// Behave as if the request's [`crate::CancelToken`] fired.
    Cancel,
    /// Fail with a synthetic unreadable-data error. Only load-path sites
    /// can express this as a typed store error; governor fault points
    /// treat it like [`FaultAction::Cancel`].
    ReadError,
    /// Write only the first `n` bytes of the payload, then fail — a torn
    /// write. Only the atomic write path can express partiality; governor
    /// fault points treat it like [`FaultAction::Cancel`].
    Torn(u64),
    /// Abort the process immediately, running no destructors — the
    /// `kill -9` model for crash-point testing. A child armed with
    /// `abort` dies on the spot so the survivor's recovery can be
    /// asserted from outside.
    Abort,
}

impl FaultAction {
    /// Short stable name (the inverse of [`std::str::FromStr`]).
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::Panic => "panic",
            FaultAction::Delay(_) => "delay",
            FaultAction::Cancel => "cancel",
            FaultAction::ReadError => "read-error",
            FaultAction::Torn(_) => "torn",
            FaultAction::Abort => "abort",
        }
    }
}

impl std::str::FromStr for FaultAction {
    type Err = String;
    /// `panic`, `cancel`, `read-error`, `abort`, `delay:<ms>`, or
    /// `torn:<bytes>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "panic" => Ok(FaultAction::Panic),
            "cancel" => Ok(FaultAction::Cancel),
            "read-error" => Ok(FaultAction::ReadError),
            "abort" => Ok(FaultAction::Abort),
            other => {
                if let Some(ms) = other.strip_prefix("delay:") {
                    ms.parse::<u64>()
                        .map(|ms| FaultAction::Delay(Duration::from_millis(ms)))
                        .map_err(|_| format!("bad delay milliseconds in {other:?}"))
                } else if let Some(n) = other.strip_prefix("torn:") {
                    n.parse::<u64>()
                        .map(FaultAction::Torn)
                        .map_err(|_| format!("bad torn byte count in {other:?}"))
                } else {
                    Err(format!(
                        "unknown fault action {other:?} \
                         (expected panic, cancel, read-error, abort, \
                          delay:<ms>, or torn:<bytes>)"
                    ))
                }
            }
        }
    }
}

/// A declarative arming of fault sites: which site misbehaves, on which
/// hit, and how. Build one with [`FaultPlan::arm`], [`FaultPlan::parse`]
/// or [`FaultPlan::from_seed`], then compile it with [`FaultPlan::build`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    arms: Vec<(String, u64, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan arms no site.
    pub fn is_empty(&self) -> bool {
        self.arms.is_empty()
    }

    /// Arm `site` to perform `action` on its `hit`-th traversal
    /// (0-based). Multiple arms may target the same site.
    pub fn arm(mut self, site: impl Into<String>, hit: u64, action: FaultAction) -> Self {
        self.arms.push((site.into(), hit, action));
        self
    }

    /// Parse a compact spec: comma-separated `site@hit=action` clauses,
    /// e.g. `serve:worker@2=panic,collection:doc@0=delay:50`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for clause in spec.split(',').filter(|c| !c.is_empty()) {
            let (site_hit, action) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause {clause:?} is missing `=action`"))?;
            let (site, hit) = site_hit
                .split_once('@')
                .ok_or_else(|| format!("fault clause {clause:?} is missing `@hit`"))?;
            if site.is_empty() {
                return Err(format!("fault clause {clause:?} has an empty site"));
            }
            let hit: u64 = hit
                .parse()
                .map_err(|_| format!("bad hit number in fault clause {clause:?}"))?;
            plan = plan.arm(site, hit, action.parse()?);
        }
        Ok(plan)
    }

    /// Derive `count` arms over `sites` from a seed: hit numbers in
    /// `0..max_hit` and actions drawn from panic/delay/cancel. The same
    /// seed always produces the same plan (SplitMix64 stream).
    pub fn from_seed(seed: u64, sites: &[&str], count: usize, max_hit: u64) -> Self {
        let mut state = seed;
        let mut next = move || {
            // SplitMix64: tiny, and statistically fine for picking arms.
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let mut plan = FaultPlan::new();
        if sites.is_empty() {
            return plan;
        }
        for _ in 0..count {
            let site = sites[(next() % sites.len() as u64) as usize];
            let hit = next() % max_hit.max(1);
            let action = match next() % 3 {
                0 => FaultAction::Panic,
                1 => FaultAction::Delay(Duration::from_millis(1 + next() % 20)),
                _ => FaultAction::Cancel,
            };
            plan = plan.arm(site, hit, action);
        }
        plan
    }

    /// The arms in insertion order, for display and logging.
    pub fn arms(&self) -> &[(String, u64, FaultAction)] {
        &self.arms
    }

    /// Compile into a shareable injector with fresh hit counters.
    pub fn build(&self) -> Arc<FaultInjector> {
        let mut sites: BTreeMap<String, SiteState> = BTreeMap::new();
        for (site, hit, action) in &self.arms {
            sites
                .entry(site.clone())
                .or_insert_with(|| SiteState {
                    hits: AtomicU64::new(0),
                    arms: BTreeMap::new(),
                })
                .arms
                .insert(*hit, *action);
        }
        Arc::new(FaultInjector { sites })
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (site, hit, action)) in self.arms.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            match action {
                FaultAction::Delay(d) => {
                    write!(f, "{site}@{hit}=delay:{}", d.as_millis())?;
                }
                FaultAction::Torn(n) => write!(f, "{site}@{hit}=torn:{n}")?,
                a => write!(f, "{site}@{hit}={}", a.name())?,
            }
        }
        Ok(())
    }
}

#[derive(Debug)]
struct SiteState {
    hits: AtomicU64,
    arms: BTreeMap<u64, FaultAction>,
}

/// A compiled, thread-safe fault plan: per-site atomic hit counters and
/// the armed actions. Share via `Arc`; counters advance globally across
/// threads, so "hit N" is the N-th traversal in program order (per-site
/// total order under concurrency).
#[derive(Debug)]
pub struct FaultInjector {
    sites: BTreeMap<String, SiteState>,
}

impl FaultInjector {
    /// An injector with nothing armed (every check is a map miss).
    pub fn disabled() -> Arc<FaultInjector> {
        FaultPlan::new().build()
    }

    /// Count one traversal of `site` and return the action armed for this
    /// hit, if any. Unarmed sites keep no counter and always return
    /// `None` without side effects.
    pub fn check(&self, site: &str) -> Option<FaultAction> {
        let s = self.sites.get(site)?;
        let hit = s.hits.fetch_add(1, Ordering::Relaxed);
        s.arms.get(&hit).copied()
    }

    /// How many times `site` has been traversed so far (0 for sites with
    /// no arms — they are never counted).
    pub fn hits(&self, site: &str) -> u64 {
        self.sites
            .get(site)
            .map(|s| s.hits.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Traverse `site` and *perform* whatever is armed: panic (with a
    /// [`PANIC_MARKER`] payload), sleep, abort the process, or fail with
    /// [`Breach::Cancelled`]. The common case — site unarmed — is a map
    /// lookup and `Ok(())`. Governor-style sites cannot express a partial
    /// write, so [`FaultAction::Torn`] degrades to a cancellation here;
    /// the atomic write path consults [`FaultInjector::check`] directly
    /// and honors the byte count.
    pub fn fire(&self, site: &str) -> Result<(), Breach> {
        match self.check(site) {
            None => Ok(()),
            Some(FaultAction::Panic) => panic!("{PANIC_MARKER}: injected panic at {site}"),
            Some(FaultAction::Abort) => std::process::abort(),
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(FaultAction::Cancel)
            | Some(FaultAction::ReadError)
            | Some(FaultAction::Torn(_)) => Err(Breach::Cancelled),
        }
    }
}

/// Extract a printable message from a caught panic payload (the `Box<dyn
/// Any>` that [`std::panic::catch_unwind`] returns).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Whether a caught panic payload came from [`FaultInjector::fire`].
pub fn is_injected_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    panic_message(payload).contains(PANIC_MARKER)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_are_free_and_uncounted() {
        let inj = FaultInjector::disabled();
        assert_eq!(inj.check("anything"), None);
        inj.fire("anything").unwrap();
        assert_eq!(inj.hits("anything"), 0);
    }

    #[test]
    fn armed_site_fires_on_exact_hit() {
        let inj = FaultPlan::new().arm("s", 2, FaultAction::Cancel).build();
        assert_eq!(inj.check("s"), None);
        assert_eq!(inj.check("s"), None);
        assert_eq!(inj.check("s"), Some(FaultAction::Cancel));
        assert_eq!(inj.check("s"), None);
        assert_eq!(inj.hits("s"), 4);
    }

    #[test]
    fn fire_maps_cancel_to_breach_and_panic_carries_marker() {
        let inj = FaultPlan::new()
            .arm("c", 0, FaultAction::Cancel)
            .arm("p", 0, FaultAction::Panic)
            .build();
        assert_eq!(inj.fire("c"), Err(Breach::Cancelled));
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inj.fire("p"))).unwrap_err();
        assert!(is_injected_panic(caught.as_ref()));
        assert!(panic_message(caught.as_ref()).contains("p"));
    }

    #[test]
    fn delay_action_sleeps_then_continues() {
        let inj = FaultPlan::new()
            .arm("d", 0, FaultAction::Delay(Duration::from_millis(5)))
            .build();
        let t = std::time::Instant::now();
        inj.fire("d").unwrap();
        assert!(t.elapsed() >= Duration::from_millis(5));
        inj.fire("d").unwrap(); // only hit 0 is armed
    }

    #[test]
    fn spec_parses_and_roundtrips() {
        let plan = FaultPlan::parse("serve:worker@2=panic,collection:doc@0=delay:50").unwrap();
        assert_eq!(plan.arms().len(), 2);
        assert_eq!(
            plan.arms()[0],
            ("serve:worker".into(), 2, FaultAction::Panic)
        );
        assert_eq!(
            plan.arms()[1],
            (
                "collection:doc".into(),
                0,
                FaultAction::Delay(Duration::from_millis(50))
            )
        );
        // Display is the inverse of parse.
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        assert!(FaultPlan::parse("").unwrap().is_empty());
        for bad in ["x", "x=panic", "x@z=panic", "x@1=explode", "@1=panic"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn write_path_actions_parse_and_roundtrip() {
        let plan = FaultPlan::parse("store:write@1=torn:7,store:rename@0=abort").unwrap();
        assert_eq!(
            plan.arms()[0],
            ("store:write".into(), 1, FaultAction::Torn(7))
        );
        assert_eq!(
            plan.arms()[1],
            ("store:rename".into(), 0, FaultAction::Abort)
        );
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        assert!(FaultPlan::parse("store:write@0=torn:").is_err());
        assert!(FaultPlan::parse("store:write@0=torn:x").is_err());
        // A torn arm degrades to a cancellation at governor-style sites.
        let inj = FaultPlan::new().arm("g", 0, FaultAction::Torn(3)).build();
        assert_eq!(inj.fire("g"), Err(Breach::Cancelled));
    }

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let sites = [site::QUERY_EVAL, site::COLLECTION_DOC, site::SERVE_WORKER];
        let a = FaultPlan::from_seed(42, &sites, 8, 16);
        let b = FaultPlan::from_seed(42, &sites, 8, 16);
        assert_eq!(a, b);
        assert_eq!(a.arms().len(), 8);
        let c = FaultPlan::from_seed(43, &sites, 8, 16);
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
        assert!(FaultPlan::from_seed(1, &[], 8, 16).is_empty());
    }

    #[test]
    fn hit_counters_are_exact_under_concurrency() {
        let inj = FaultPlan::new()
            .arm("shared", 1_000_000, FaultAction::Panic)
            .build();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let inj = Arc::clone(&inj);
                s.spawn(move || {
                    for _ in 0..1000 {
                        inj.fire("shared").unwrap();
                    }
                });
            }
        });
        assert_eq!(inj.hits("shared"), 4000);
    }
}
