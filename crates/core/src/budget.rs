//! Budgeted execution: resource limits, cooperative cancellation, and the
//! graceful-degradation ladder.
//!
//! The algebra's operators are worst-case super-linear — a pairwise join
//! is `|F1|·|F2|` kernels, a fixed point iterates until closure, `⊖` is
//! cubic, and the literal powerset join is exponential. A production
//! retrieval system cannot let one adversarial document stall a query
//! pipeline, so every hot loop in this crate cooperates with a
//! [`Governor`]: a cheap, shared accounting object that enforces a
//! [`Budget`] (wall-clock deadline, join count, fragments materialized,
//! nodes merged) and a [`CancelToken`].
//!
//! Tripping a budget is **not an error** when degradation is enabled:
//! [`crate::query::evaluate_budgeted`] then answers from an ungoverned
//! SLCA approximation ([`SLCA_APPROX`]), a *sound subset* of the exact
//! answer set, and reports the breach in a [`Degradation`].
//! Cancellation, by contrast, always aborts with an error: a cancelled
//! caller wants no answer at all.
//!
//! Checking is cooperative and sampled: counters are plain atomic adds,
//! and the clock/cancel flag are consulted every [`CHECK_INTERVAL`] join
//! charges, so governance costs a few percent even on join-kernel-bound
//! workloads.

use crate::fault::FaultInjector;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in join charges) the governor consults the deadline clock
/// and the cancellation flag. Power of two so the test is a mask.
pub const CHECK_INTERVAL: u64 = 256;

/// The join-kernel bound every evaluation that takes outside input runs
/// under unless the caller sets its own: `search`, `msearch`, `explain`,
/// `demo` and every served request ([`Budget::bounded`]).
///
/// Joins alone suffice: every super-linear loop charges them (pairwise
/// joins, fixed-point rounds, `⊖`'s inner joins and brute force's
/// unions), while selection and the [`SLCA_APPROX`] fallback are linear.
/// The costliest request shape of the end-to-end benchmark charges 8,244
/// joins on one document (a pair query with `size ≤ 9` on its 120k-node
/// document), so the bound leaves about 12× headroom; a query that
/// reaches it, such as an unfiltered pair over 20 sibling leaves, stops
/// after about 20 ms (release build, 2-vCPU x86-64 host) and answers
/// from the fallback.
pub const DEFAULT_MAX_JOINS: u64 = 100_000;

/// Resource limits for one evaluation. `None` means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock limit for the whole evaluation.
    pub wall_clock: Option<Duration>,
    /// Maximum binary join kernels.
    pub max_joins: Option<u64>,
    /// Maximum intermediate fragments materialized (offered to sets).
    pub max_fragments: Option<u64>,
    /// Maximum total nodes merged across join kernels — the crate's
    /// proxy for intermediate-result memory.
    pub max_nodes_merged: Option<u64>,
}

impl Budget {
    /// No limits at all: the budget of the library's plain
    /// [`crate::evaluate`], which is exact and may take exponential time.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// The default bound for evaluations of outside input: at most
    /// [`DEFAULT_MAX_JOINS`] join kernels per document, nothing else.
    pub fn bounded() -> Self {
        Budget::unlimited().with_max_joins(DEFAULT_MAX_JOINS)
    }

    /// Limit wall-clock time.
    pub fn with_wall_clock(mut self, d: Duration) -> Self {
        self.wall_clock = Some(d);
        self
    }

    /// Limit the number of binary join kernels.
    pub fn with_max_joins(mut self, n: u64) -> Self {
        self.max_joins = Some(n);
        self
    }

    /// Limit the number of fragments materialized.
    pub fn with_max_fragments(mut self, n: u64) -> Self {
        self.max_fragments = Some(n);
        self
    }

    /// Limit the total nodes merged (memory proxy).
    pub fn with_max_nodes_merged(mut self, n: u64) -> Self {
        self.max_nodes_merged = Some(n);
        self
    }
}

/// A shared flag for cooperative cancellation. Clone freely; all clones
/// observe the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Every governor holding a clone observes it
    /// at its next checkpoint.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Which limit (or signal) stopped an evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Breach {
    /// The wall-clock deadline passed.
    Deadline,
    /// The join-kernel budget was exhausted.
    Joins,
    /// The materialized-fragment budget was exhausted.
    Fragments,
    /// The nodes-merged (memory proxy) budget was exhausted.
    NodesMerged,
    /// A literal powerset enumeration exceeded
    /// [`crate::POWERSET_LIMIT`] — treated as a budget breach, so the
    /// ladder answers from [`SLCA_APPROX`] as for any other breach.
    PowersetLimit,
    /// The [`CancelToken`] was triggered.
    Cancelled,
}

impl Breach {
    /// Short stable name for reports and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            Breach::Deadline => "deadline",
            Breach::Joins => "joins",
            Breach::Fragments => "fragments",
            Breach::NodesMerged => "nodes-merged",
            Breach::PowersetLimit => "powerset-limit",
            Breach::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for Breach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Shared, thread-safe budget enforcement for one evaluation.
///
/// All counters are atomics, so a governor is `Sync` and can be shared
/// across threads by reference. The deadline is resolved
/// to an absolute [`Instant`] at construction; an unlimited governor
/// never reads the clock.
#[derive(Debug)]
pub struct Governor {
    deadline: Option<Instant>,
    started: Option<Instant>,
    max_joins: u64,
    max_fragments: u64,
    max_nodes: u64,
    cancel: Option<CancelToken>,
    fault: Option<Arc<FaultInjector>>,
    joins: AtomicU64,
    fragments: AtomicU64,
    nodes: AtomicU64,
    checkpoints: AtomicU64,
}

impl Governor {
    /// Build a governor for `budget`, optionally observing `cancel`.
    /// The deadline clock starts now.
    pub fn new(budget: Budget, cancel: Option<CancelToken>) -> Self {
        let now = (budget.wall_clock.is_some()).then(Instant::now);
        Governor {
            deadline: budget.wall_clock.and_then(|d| now.map(|n| n + d)),
            started: now,
            max_joins: budget.max_joins.unwrap_or(u64::MAX),
            max_fragments: budget.max_fragments.unwrap_or(u64::MAX),
            max_nodes: budget.max_nodes_merged.unwrap_or(u64::MAX),
            cancel,
            fault: None,
            joins: AtomicU64::new(0),
            fragments: AtomicU64::new(0),
            nodes: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
        }
    }

    /// A governor that never breaches and never reads the clock.
    pub fn unlimited() -> Self {
        Governor::new(Budget::unlimited(), None)
    }

    /// Attach a fault injector so [`Governor::fault_point`] can misbehave
    /// on demand. `None` (the default) keeps fault points free.
    pub fn with_fault(mut self, fault: Option<Arc<FaultInjector>>) -> Self {
        self.fault = fault;
        self
    }

    /// A named fault-injection point. With no injector attached (the
    /// production configuration) this is a single `Option` branch.
    /// Armed actions behave as documented on
    /// [`crate::fault::FaultAction`]: panics unwind from here,
    /// delays sleep then succeed, cancellations (and read errors, which
    /// governor sites cannot express as typed store errors) surface as
    /// [`Breach::Cancelled`].
    #[inline]
    pub fn fault_point(&self, site: &str) -> Result<(), Breach> {
        match &self.fault {
            None => Ok(()),
            Some(inj) => inj.fire(site),
        }
    }

    /// Charge one binary join kernel that merged `merged_nodes` operand
    /// nodes. Samples the clock/cancel flag every [`CHECK_INTERVAL`]
    /// joins.
    #[inline]
    pub fn charge_join(&self, merged_nodes: u64) -> Result<(), Breach> {
        let joins = self.joins.fetch_add(1, Ordering::Relaxed) + 1;
        if joins > self.max_joins {
            return Err(Breach::Joins);
        }
        let nodes = self.nodes.fetch_add(merged_nodes, Ordering::Relaxed) + merged_nodes;
        if nodes > self.max_nodes {
            return Err(Breach::NodesMerged);
        }
        if joins & (CHECK_INTERVAL - 1) == 0 {
            self.poll()?;
        }
        Ok(())
    }

    /// Charge `n` fragments materialized into a result set.
    #[inline]
    pub fn charge_fragments(&self, n: u64) -> Result<(), Breach> {
        let f = self.fragments.fetch_add(n, Ordering::Relaxed) + n;
        if f > self.max_fragments {
            return Err(Breach::Fragments);
        }
        Ok(())
    }

    /// Explicit budget checkpoint — placed at phase boundaries (operator
    /// entry, fixed-point rounds, per-document starts). Always consults
    /// the deadline and cancel flag, and counts itself so `EXPLAIN` can
    /// report how many checkpoints an execution passed.
    pub fn checkpoint(&self) -> Result<(), Breach> {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.poll()
    }

    #[inline]
    fn poll(&self) -> Result<(), Breach> {
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return Err(Breach::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(Breach::Deadline);
            }
        }
        Ok(())
    }

    /// Joins charged so far.
    pub fn joins_spent(&self) -> u64 {
        self.joins.load(Ordering::Relaxed)
    }

    /// Fragments charged so far.
    pub fn fragments_spent(&self) -> u64 {
        self.fragments.load(Ordering::Relaxed)
    }

    /// Nodes-merged charged so far.
    pub fn nodes_spent(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Checkpoints passed so far.
    pub fn checkpoints_passed(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Wall-clock elapsed since construction — zero for governors with
    /// no deadline (they never read the clock).
    pub fn elapsed(&self) -> Duration {
        self.started.map(|s| s.elapsed()).unwrap_or(Duration::ZERO)
    }
}

/// An allowance of *extra* attempts for one logical request, optionally
/// bounded by a wall-clock deadline measured from construction.
///
/// Retries amplify load exactly when the server is least able to absorb
/// it: a brown-out sheds or times out requests, and every client that
/// retries them adds to the brown-out. The `xfrag request` client's
/// retry loop (`--retries`, `--retry-budget-ms`) charges one attempt per
/// retry and stops once the allowance or the deadline is spent, so a
/// client cannot multiply its traffic without bound.
#[derive(Debug)]
pub struct RetryBudget {
    deadline: Option<Instant>,
    /// Extra attempts remaining.
    attempts: AtomicU64,
}

impl RetryBudget {
    /// A budget of `extra_attempts` additional attempts, optionally
    /// expiring `wall_clock` after construction.
    pub fn new(extra_attempts: u64, wall_clock: Option<Duration>) -> Self {
        RetryBudget {
            deadline: wall_clock.map(|d| Instant::now() + d),
            attempts: AtomicU64::new(extra_attempts),
        }
    }

    /// Charge one extra attempt as of `now`. Returns `false` — and
    /// charges nothing — when the allowance is spent or the deadline
    /// has passed.
    pub fn try_spend_at(&self, now: Instant) -> bool {
        if self.expired_at(now) {
            return false;
        }
        self.attempts
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }

    /// [`Self::try_spend_at`] with the real clock.
    pub fn try_spend(&self) -> bool {
        self.try_spend_at(Instant::now())
    }

    /// Whether the wall-clock deadline has passed as of `now` (never
    /// true without one).
    pub fn expired_at(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    /// [`Self::expired_at`] with the real clock.
    pub fn expired(&self) -> bool {
        self.expired_at(Instant::now())
    }

    /// Wall-clock left before expiry: `None` without a deadline, zero
    /// once expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Extra attempts still available.
    pub fn attempts_left(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }
}

/// What to do when the budget trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradeMode {
    /// Surface the breach as an error.
    Off,
    /// Answer from [`SLCA_APPROX`], a sound subset of the exact answer.
    #[default]
    Ladder,
}

impl std::str::FromStr for DegradeMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(DegradeMode::Off),
            "ladder" => Ok(DegradeMode::Ladder),
            other => Err(format!(
                "unknown degrade mode {other:?} (expected off or ladder)"
            )),
        }
    }
}

/// Name of the degradation ladder's fallback rung: the SLCA
/// approximation that answers once the full strategy breaches.
pub const SLCA_APPROX: &str = "slca-approx";

/// Report of how an evaluation degraded (or that it did not).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Degradation {
    /// The breach that stopped the full strategy, after which the answer
    /// came from [`SLCA_APPROX`]; `None` when the full strategy completed
    /// within budget.
    pub breach: Option<Breach>,
    /// Join kernels spent.
    pub joins_spent: u64,
    /// Fragments materialized.
    pub fragments_spent: u64,
    /// Nodes merged.
    pub nodes_spent: u64,
    /// Wall-clock spent (zero when no deadline was set — the governor
    /// does not read the clock unnecessarily).
    pub elapsed: Duration,
}

impl Degradation {
    /// A report for an evaluation that completed exactly.
    pub fn none() -> Self {
        Degradation::default()
    }

    /// Whether the answer is (potentially) a proper subset of the exact
    /// answer.
    pub fn is_degraded(&self) -> bool {
        self.breach.is_some()
    }
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.breach {
            None => write!(f, "exact (no degradation)"),
            Some(breach) => write!(
                f,
                "degraded to {SLCA_APPROX}; full stopped by {breach} \
                 (spent: {} joins, {} fragments, {} nodes)",
                self.joins_spent, self.fragments_spent, self.nodes_spent
            ),
        }
    }
}

/// Execution policy: a budget, an optional cancel token, and what to do
/// on breach.
#[derive(Debug, Clone, Default)]
pub struct ExecPolicy {
    /// Resource limits.
    pub budget: Budget,
    /// Cooperative cancellation; checked at every governor poll.
    pub cancel: Option<CancelToken>,
    /// Breach handling.
    pub degrade: DegradeMode,
    /// Deterministic fault injection (tests and chaos drills); `None`
    /// keeps every fault point free.
    pub fault: Option<Arc<FaultInjector>>,
}

impl ExecPolicy {
    /// Unlimited budget, no cancellation, ladder degradation (which fires
    /// without limits only when brute force meets an operand past
    /// [`crate::POWERSET_LIMIT`]).
    pub fn unlimited() -> Self {
        ExecPolicy::default()
    }

    /// A policy enforcing `budget` with ladder degradation.
    pub fn with_budget(budget: Budget) -> Self {
        ExecPolicy {
            budget,
            ..Default::default()
        }
    }

    /// Attach a cancel token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Set the breach behaviour.
    pub fn with_degrade(mut self, mode: DegradeMode) -> Self {
        self.degrade = mode;
        self
    }

    /// Attach a fault injector.
    pub fn with_fault(mut self, fault: Arc<FaultInjector>) -> Self {
        self.fault = Some(fault);
        self
    }

    /// A fresh governor enforcing this policy's budget, cancel token and
    /// fault injector.
    pub fn governor(&self) -> Governor {
        Governor::new(self.budget, self.cancel.clone()).with_fault(self.fault.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_never_breaches() {
        let g = Governor::unlimited();
        for _ in 0..10_000 {
            g.charge_join(100).unwrap();
        }
        g.charge_fragments(1 << 40).unwrap();
        g.checkpoint().unwrap();
        assert_eq!(g.joins_spent(), 10_000);
        assert_eq!(g.elapsed(), Duration::ZERO);
    }

    #[test]
    fn join_budget_trips() {
        let g = Governor::new(Budget::unlimited().with_max_joins(5), None);
        for _ in 0..5 {
            g.charge_join(1).unwrap();
        }
        assert_eq!(g.charge_join(1), Err(Breach::Joins));
    }

    #[test]
    fn fragment_budget_trips() {
        let g = Governor::new(Budget::unlimited().with_max_fragments(10), None);
        g.charge_fragments(10).unwrap();
        assert_eq!(g.charge_fragments(1), Err(Breach::Fragments));
    }

    #[test]
    fn nodes_budget_trips() {
        let g = Governor::new(Budget::unlimited().with_max_nodes_merged(100), None);
        g.charge_join(60).unwrap();
        assert_eq!(g.charge_join(60), Err(Breach::NodesMerged));
    }

    #[test]
    fn deadline_trips_at_checkpoint() {
        let g = Governor::new(Budget::unlimited().with_wall_clock(Duration::ZERO), None);
        assert_eq!(g.checkpoint(), Err(Breach::Deadline));
    }

    #[test]
    fn deadline_observed_by_sampled_join_charges() {
        let g = Governor::new(Budget::unlimited().with_wall_clock(Duration::ZERO), None);
        let mut tripped = false;
        for _ in 0..(2 * CHECK_INTERVAL) {
            if g.charge_join(1).is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "deadline must surface within one check interval");
    }

    #[test]
    fn cancellation_wins() {
        let token = CancelToken::new();
        let g = Governor::new(Budget::unlimited(), Some(token.clone()));
        g.checkpoint().unwrap();
        token.cancel();
        assert_eq!(g.checkpoint(), Err(Breach::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn governor_is_shareable_across_threads() {
        let g = Governor::new(Budget::unlimited().with_max_joins(100_000), None);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        let _ = g.charge_join(1);
                    }
                });
            }
        });
        assert_eq!(g.joins_spent(), 4000);
    }

    #[test]
    fn degradation_report_display() {
        assert_eq!(Degradation::none().to_string(), "exact (no degradation)");
        let d = Degradation {
            breach: Some(Breach::Joins),
            joins_spent: 64,
            fragments_spent: 32,
            nodes_spent: 512,
            elapsed: Duration::ZERO,
        };
        assert_eq!(
            d.to_string(),
            "degraded to slca-approx; full stopped by joins \
             (spent: 64 joins, 32 fragments, 512 nodes)"
        );
    }

    #[test]
    fn fault_point_is_free_without_injector_and_fires_with_one() {
        use crate::fault::{FaultAction, FaultPlan};
        let g = Governor::unlimited();
        g.fault_point("anywhere").unwrap();

        let inj = FaultPlan::new()
            .arm("gov:site", 1, FaultAction::Cancel)
            .build();
        let g = Governor::unlimited().with_fault(Some(inj));
        g.fault_point("gov:site").unwrap();
        assert_eq!(g.fault_point("gov:site"), Err(Breach::Cancelled));
        g.fault_point("other:site").unwrap();
    }

    #[test]
    fn retry_budget_caps_attempts_and_wall_clock() {
        let b = RetryBudget::new(2, None);
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend(), "allowance is spent");
        assert_eq!(b.attempts_left(), 0);
        assert_eq!(b.remaining(), None);

        let b = RetryBudget::new(u64::MAX, Some(Duration::from_secs(60)));
        let later = Instant::now() + Duration::from_secs(61);
        assert!(b.try_spend(), "fresh budget admits");
        assert!(!b.expired());
        assert!(b.expired_at(later));
        assert!(!b.try_spend_at(later), "deadline beats the allowance");

        let b = RetryBudget::new(5, Some(Duration::ZERO));
        assert!(!b.try_spend(), "already expired: nothing is charged");
        assert_eq!(b.attempts_left(), 5);
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn parse_degrade_mode() {
        assert_eq!("off".parse::<DegradeMode>().unwrap(), DegradeMode::Off);
        assert_eq!(
            "ladder".parse::<DegradeMode>().unwrap(),
            DegradeMode::Ladder
        );
        assert!("maybe".parse::<DegradeMode>().is_err());
    }
}
