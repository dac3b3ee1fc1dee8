//! Generation-keyed memoization for repeated query traffic.
//!
//! Corpus generations are immutable once committed (PR 3/4): a hot
//! reload builds a whole new snapshot and swaps one shared pointer.
//! That makes memoization trivially sound — an entry computed against a
//! snapshot is valid for as long as *that* snapshot is being queried,
//! and invalidation is implicit: new snapshots carry a fresh
//! [`GenerationTag`], so their lookups can never observe entries from a
//! previous generation, while in-flight requests that pinned the old
//! `Arc` keep hitting their own coherent entries until LRU pressure
//! ages them out.
//!
//! One tier is cached: exact per-document answers per `(generation,
//! document, normalized query, strategy, budget-policy fingerprint)`.
//! The operand sets `σ_{keyword=k}` of Definition 7 queries are not
//! copied here: every [`PostingsSource`](xfrag_doc::PostingsSource)
//! already holds its posting lists (a `.xidx` segment decodes each list
//! once and keeps it), and building a [`FragmentSet`] from one costs
//! less than a second copy's probe, fill and eviction pressure.
//!
//! # Key normalization
//!
//! [`Query::new`] already normalizes and dedups terms but preserves
//! first-occurrence order; [`ResultKey`] additionally *sorts* the terms,
//! so `Q{a,b}` and `Q{b,a}` share one entry (conjunction is
//! order-insensitive).
//!
//! # Degraded answers are never stored
//!
//! A degraded answer is a sound *subset* of the exact answer — correct
//! for the budget that produced it, wrong for a roomier one — so
//! [`QueryCache::put_result`] drops it and only exact answers are
//! cached. Result keys still carry the **policy fingerprint** (the
//! configured work limits and degrade mode — wall-clock and cancel
//! presence only, since serve recomputes the remaining deadline per
//! request): a request whose tight budget would make it degrade must
//! recompute and degrade exactly as an uncached run would, not be
//! served the exact answer a roomier policy stored.
//!
//! # Sharding and locking
//!
//! The cache is split into [`SHARDS`] independent `Mutex<Shard>`s
//! selected by a hash of the key without its policy fingerprint; the
//! serve worker pool shares one cache and
//! workers only contend when two requests land on the same shard.
//! Each shard runs its own LRU over its own byte budget
//! (`max_bytes / SHARDS`) using a stamp queue: touching an entry pushes
//! a fresh `(stamp, key)` pair, eviction pops from the front and skips
//! stale stamps. Entries larger than a whole shard budget are not
//! admitted at all (a single whale would otherwise evict everything and
//! then itself).

use crate::budget::{DegradeMode, ExecPolicy};
use crate::query::{Query, QueryResult, Strategy};
use crate::set::FragmentSet;
use crate::stats::EvalStats;
use serde::Serialize;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Number of independent lock shards.
pub const SHARDS: usize = 8;

/// Process-unique identity of one corpus snapshot.
///
/// Allocate one with [`GenerationTag::fresh`] whenever a new snapshot
/// (an `Arc`'d generation, a freshly loaded document, …) comes into
/// existence, and key every cache interaction for that snapshot with it.
/// Tags are never reused within a process, so a reloaded generation can
/// never collide with a retired one (no ABA on recycled `Arc`
/// addresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenerationTag(u64);

impl GenerationTag {
    /// A tag no other snapshot in this process has or will have.
    pub fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        GenerationTag(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw tag value (for logs and stats output).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// The parts of an [`ExecPolicy`] that select which cached results a
/// request may observe. Work limits are kept verbatim; the wall clock
/// and cancel token are reduced to presence flags because their values
/// vary per request (serve derives the remaining deadline from
/// admission time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolicyFp {
    wall_clocked: bool,
    cancellable: bool,
    max_joins: Option<u64>,
    max_fragments: Option<u64>,
    max_nodes_merged: Option<u64>,
    ladder: bool,
}

impl PolicyFp {
    /// Fingerprint `policy`.
    pub fn of(policy: &ExecPolicy) -> Self {
        PolicyFp {
            wall_clocked: policy.budget.wall_clock.is_some(),
            cancellable: policy.cancel.is_some(),
            max_joins: policy.budget.max_joins,
            max_fragments: policy.budget.max_fragments,
            max_nodes_merged: policy.budget.max_nodes_merged,
            ladder: matches!(policy.degrade, DegradeMode::Ladder),
        }
    }
}

/// Cache key for one per-document query result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    gen: GenerationTag,
    doc: u32,
    /// Sorted, deduped, normalized terms — see the module docs.
    terms: Vec<String>,
    /// `Debug` fingerprint of the filter expression (`"True"` when
    /// there is no predicate).
    filter: String,
    strict: bool,
    strategy: Strategy,
    policy: PolicyFp,
}

impl ResultKey {
    /// Build the normalized key for `query` under `policy`.
    pub fn new(
        gen: GenerationTag,
        doc: u32,
        query: &Query,
        strategy: Strategy,
        policy: &ExecPolicy,
    ) -> Self {
        let mut terms = query.terms.clone();
        terms.sort();
        terms.dedup();
        ResultKey {
            gen,
            doc,
            terms,
            filter: format!("{:?}", query.filter),
            strict: query.strict_leaf_semantics,
            strategy,
            policy: PolicyFp::of(policy),
        }
    }
}

/// A stored exact per-document answer: the fragments and the *pure
/// compute* counters (cache observability fields zeroed, so a replay
/// reports exactly what an uncached run would).
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// Answer fragments, in their original insertion order.
    pub fragments: FragmentSet,
    /// Compute counters of the run that produced the entry.
    pub stats: EvalStats,
}

/// Everything an evaluation call needs to talk to the cache: the shared
/// cache, the snapshot identity, and which document is being evaluated.
#[derive(Clone, Copy)]
pub struct CacheRef<'a> {
    /// The shared cache.
    pub cache: &'a QueryCache,
    /// Identity of the corpus snapshot the evaluation pinned.
    pub gen: GenerationTag,
    /// Document key within that snapshot (collection `DocId` value, or
    /// 0 for single-document evaluation).
    pub doc: u32,
}

struct Entry {
    value: CachedResult,
    bytes: u64,
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<ResultKey, Entry>,
    /// LRU stamp queue: `(stamp, key)` pairs, oldest first; entries
    /// whose stamp no longer matches the map are stale and skipped.
    queue: VecDeque<(u64, ResultKey)>,
    tick: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

impl Shard {
    fn touch(&mut self, key: &ResultKey) {
        self.tick += 1;
        let stamp = self.tick;
        if let Some(e) = self.map.get_mut(key) {
            e.stamp = stamp;
        }
        self.queue.push_back((stamp, key.clone()));
    }

    fn evict_to(&mut self, budget: u64) {
        while self.bytes > budget {
            let Some((stamp, key)) = self.queue.pop_front() else {
                return;
            };
            let live = self.map.get(&key).is_some_and(|e| e.stamp == stamp);
            if live {
                // invariant: `live` checked the key is present.
                let e = self.map.remove(&key).unwrap();
                self.bytes -= e.bytes;
                self.evictions += 1;
            }
        }
    }
}

/// Rough heap footprint of a fragment set: per-fragment node storage
/// plus container overhead. An estimate is all the LRU needs — it only
/// has to scale with the real footprint.
fn set_bytes(set: &FragmentSet) -> u64 {
    48 + set.iter().map(|f| 32 + 4 * f.size() as u64).sum::<u64>()
}

fn entry_bytes(key: &ResultKey, value: &CachedResult) -> u64 {
    let key_bytes =
        64 + key.terms.iter().map(|t| 24 + t.len() as u64).sum::<u64>() + key.filter.len() as u64;
    key_bytes + set_bytes(&value.fragments) + 192
}

/// Sharded, size-bounded, generation-keyed LRU cache — see the module
/// docs for what is cached and the soundness argument.
pub struct QueryCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_bytes: u64,
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache")
            .field("shards", &self.shards.len())
            .field("per_shard_bytes", &self.per_shard_bytes)
            .finish()
    }
}

impl QueryCache {
    /// A cache bounded at roughly `max_bytes` across [`SHARDS`] shards.
    pub fn new(max_bytes: u64) -> Self {
        QueryCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_bytes: (max_bytes / SHARDS as u64).max(1),
        }
    }

    /// A cache bounded at `mb` megabytes (the `--cache-mb` unit).
    pub fn with_capacity_mb(mb: u64) -> Self {
        QueryCache::new(mb.saturating_mul(1024 * 1024))
    }

    /// The shard holding `key`. Placement hashes the query's identity but
    /// not its policy fingerprint, so a query's entries under every
    /// policy share one shard and its LRU order: two caches fed the same
    /// queries under different policies (a server and its in-process
    /// replay) evict alike.
    fn shard_of(&self, key: &ResultKey) -> &Mutex<Shard> {
        let ResultKey {
            gen,
            doc,
            terms,
            filter,
            strict,
            strategy,
            policy: _,
        } = key;
        let mut h = DefaultHasher::new();
        (gen, doc, terms, filter, strict, strategy).hash(&mut h);
        &self.shards[h.finish() as usize % self.shards.len()]
    }

    fn store(&self, key: ResultKey, value: CachedResult) {
        let bytes = entry_bytes(&key, &value);
        if bytes > self.per_shard_bytes {
            return; // never admit an entry a whole shard can't hold
        }
        let budget = self.per_shard_bytes;
        // invariant (here and below): shard mutexes only guard plain
        // counter/map updates that cannot panic, so they are never
        // poisoned.
        let mut shard = self.shard_of(&key).lock().unwrap();
        if let Some(old) = shard.map.get(&key) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        shard.insertions += 1;
        let stamp = shard.tick + 1;
        shard.map.insert(
            key.clone(),
            Entry {
                value,
                bytes,
                stamp,
            },
        );
        shard.touch(&key);
        shard.evict_to(budget);
    }

    /// Look up an exact per-document answer; a hit touches the LRU.
    pub fn get_result(&self, key: &ResultKey) -> Option<CachedResult> {
        let mut shard = self.shard_of(key).lock().unwrap();
        if shard.map.contains_key(key) {
            shard.touch(key);
            shard.hits += 1;
            Some(shard.map[key].value.clone())
        } else {
            shard.misses += 1;
            None
        }
    }

    /// Store an exact per-document answer. A degraded answer is not
    /// stored at all — see the module docs.
    pub fn put_result(&self, key: &ResultKey, result: &QueryResult) {
        if result.degradation.is_degraded() {
            return;
        }
        self.store(
            key.clone(),
            CachedResult {
                fragments: result.fragments.clone(),
                stats: result.stats.without_cache_counters(),
            },
        );
    }

    /// Migrate entries across a delta reload: every entry keyed to the
    /// `old` snapshot whose document appears in `doc_map` (old `DocId`
    /// value → new `DocId` value, *unchanged documents only*) is rekeyed
    /// to the `new` snapshot; entries for changed or removed documents
    /// are dropped.
    ///
    /// Soundness: entries are per-document. A document whose file
    /// bytes are identical across generations decodes to the identical
    /// tree with the identical `NodeId`s, so its exact per-document
    /// answers — including the policy fingerprint baked into the
    /// keys — are byte-identical to what a cold evaluation
    /// against the new snapshot would compute. The caller is
    /// responsible for mapping only such documents.
    ///
    /// In-flight requests still pinned to the old snapshot simply miss
    /// on their moved entries and recompute — a performance effect, not
    /// a correctness one.
    pub fn carry_over(
        &self,
        old: GenerationTag,
        new: GenerationTag,
        doc_map: &HashMap<u32, u32>,
    ) -> CarryOver {
        let mut out = CarryOver::default();
        let mut moved: Vec<(ResultKey, CachedResult)> = Vec::new();
        for shard in &self.shards {
            let mut s = shard.lock().unwrap();
            let old_keys: Vec<ResultKey> = s.map.keys().filter(|k| k.gen == old).cloned().collect();
            for k in old_keys {
                // invariant: key came from the map under this lock.
                let e = s.map.remove(&k).unwrap();
                s.bytes -= e.bytes;
                match doc_map.get(&k.doc) {
                    Some(&new_doc) => {
                        if new_doc == k.doc {
                            out.kept += 1;
                        } else {
                            out.rekeyed += 1;
                        }
                        moved.push((
                            ResultKey {
                                gen: new,
                                doc: new_doc,
                                ..k
                            },
                            e.value,
                        ));
                    }
                    None => out.evicted += 1,
                }
            }
            // Stale queue stamps for the removed keys are skipped by
            // evict_to; no queue surgery needed.
        }
        // Reinsert outside the per-shard drain: a rekeyed entry may hash
        // to a different shard, and `store` handles sharding, byte
        // accounting, and LRU pressure uniformly.
        for (k, v) in moved {
            self.store(k, v);
        }
        out
    }

    /// Snapshot every counter.
    pub fn stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for s in &self.shards {
            let s = s.lock().unwrap();
            out.result.hits += s.hits;
            out.result.misses += s.misses;
            out.evictions += s.evictions;
            out.insertions += s.insertions;
            out.bytes += s.bytes;
            out.entries += s.map.len() as u64;
            out.shards.push(ShardCounters {
                hits: s.hits,
                misses: s.misses,
                evictions: s.evictions,
                bytes: s.bytes,
                entries: s.map.len() as u64,
            });
        }
        out
    }
}

/// Counters from one [`QueryCache::carry_over`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CarryOver {
    /// Entries migrated to the new snapshot under an unchanged
    /// document id.
    pub kept: u64,
    /// Entries migrated under a remapped document id (documents shift
    /// ids when a delta adds or removes neighbors in sort order).
    pub rekeyed: u64,
    /// Entries dropped because their document changed or was removed.
    pub evicted: u64,
}

impl CarryOver {
    /// Fold another pass's counters into this one (serve accumulates
    /// across reloads).
    pub fn absorb(&mut self, other: CarryOver) {
        self.kept += other.kept;
        self.rekeyed += other.rekeyed;
        self.evicted += other.evicted;
    }
}

/// Hit/miss counters of the result lookups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TierCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to computation.
    pub misses: u64,
}

/// Probe/occupancy counters for one lock shard. Every lookup is one
/// probe, so the shards' hits and misses sum to [`CacheStats::result`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ShardCounters {
    /// Probes that found a live entry.
    pub hits: u64,
    /// Probes that found nothing.
    pub misses: u64,
    /// Entries removed by LRU pressure.
    pub evictions: u64,
    /// Estimated bytes currently held.
    pub bytes: u64,
    /// Entries currently held.
    pub entries: u64,
}

/// Point-in-time snapshot of every cache counter. Serializes (field
/// order is wire order) into the `cache` blocks of serve's `stats`
/// reply and the CLI's `--stats` line.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Exact per-document result lookups.
    pub result: TierCounters,
    /// Total LRU evictions across shards.
    pub evictions: u64,
    /// Total insertions across shards.
    pub insertions: u64,
    /// Estimated bytes held across shards.
    pub bytes: u64,
    /// Entries held across shards.
    pub entries: u64,
    /// Per-shard raw counters, in shard order.
    pub shards: Vec<ShardCounters>,
}

impl CacheStats {
    /// Fold another cache's counters into this one: lookup and total
    /// counters summed, per-shard counters appended (serve folds its
    /// per-shard arenas this way).
    pub fn absorb(&mut self, other: CacheStats) {
        self.result.hits += other.result.hits;
        self.result.misses += other.result.misses;
        self.evictions += other.evictions;
        self.insertions += other.insertions;
        self.bytes += other.bytes;
        self.entries += other.entries;
        self.shards.extend(other.shards);
    }
}

/// State of one in-flight coalesced evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlightState {
    /// The leader is still evaluating.
    Pending,
    /// The leader finished and (if caching) published its answer.
    Done,
    /// The leader unwound (panic, injected fault) without completing.
    Aborted,
}

/// The rendezvous one flight's leader and followers share.
#[derive(Debug)]
struct FlightSlot {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl FlightSlot {
    fn new() -> Self {
        FlightSlot {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    fn settle(&self, state: FlightState) {
        // invariant: the state mutex only guards an enum write; it
        // cannot be poisoned.
        *self.state.lock().unwrap() = state;
        self.cv.notify_all();
    }
}

/// What a follower observed after waiting on a flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightOutcome {
    /// The leader completed; the cached answer is (re)usable.
    Done,
    /// The leader unwound without completing; re-evaluate (the first
    /// retrier becomes the new leader).
    Aborted,
    /// The caller's own deadline expired first; evaluate independently.
    TimedOut,
}

/// Leadership of one flight. Call [`FlightLease::complete`] after
/// publishing the answer; dropping the lease without completing (a
/// panic unwinding through `catch_unwind`, an error return) marks the
/// flight aborted so followers wake and re-evaluate instead of hanging.
pub struct FlightLease<'a> {
    sf: &'a Singleflight,
    key: u64,
    slot: Arc<FlightSlot>,
    completed: bool,
}

impl FlightLease<'_> {
    /// Publish success: the flight is removed and followers wake with
    /// [`FlightOutcome::Done`].
    pub fn complete(mut self) {
        self.completed = true;
        self.sf.remove(self.key);
        self.slot.settle(FlightState::Done);
    }
}

impl Drop for FlightLease<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.sf.aborted.fetch_add(1, Ordering::Relaxed);
            self.sf.remove(self.key);
            self.slot.settle(FlightState::Aborted);
        }
    }
}

/// A follower's handle on someone else's flight.
pub struct FlightFollower {
    slot: Arc<FlightSlot>,
}

impl FlightFollower {
    /// Block until the leader settles the flight or `timeout` elapses.
    pub fn wait(&self, timeout: Duration) -> FlightOutcome {
        let deadline = std::time::Instant::now() + timeout;
        // invariant: see FlightSlot::settle on poisoning.
        let mut state = self.slot.state.lock().unwrap();
        loop {
            match *state {
                FlightState::Done => return FlightOutcome::Done,
                FlightState::Aborted => return FlightOutcome::Aborted,
                FlightState::Pending => {}
            }
            let now = std::time::Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return FlightOutcome::TimedOut;
            };
            let (next, timed_out) = self.slot.cv.wait_timeout(state, left).unwrap();
            state = next;
            if timed_out.timed_out() && *state == FlightState::Pending {
                return FlightOutcome::TimedOut;
            }
        }
    }
}

/// Joining a flight either makes you the leader or a follower.
pub enum Flight<'a> {
    /// You own the evaluation; see [`FlightLease`].
    Leader(FlightLease<'a>),
    /// Someone else is evaluating the same key; see [`FlightFollower`].
    Follower(FlightFollower),
}

/// Counters from one [`Singleflight`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SingleflightStats {
    /// Flights led (cold evaluations that took the key).
    pub led: u64,
    /// Requests that joined an existing flight instead of evaluating.
    pub coalesced: u64,
    /// Leases dropped without completing (panics, errors).
    pub aborted: u64,
}

/// Request coalescing for identical in-flight cold evaluations.
///
/// Keys are caller-hashed (serve hashes the normalized result-cache key
/// plus the snapshot tag). The first joiner becomes the **leader** and
/// evaluates; concurrent joiners with the same key become **followers**
/// and block on the leader instead of repeating the work. The flight
/// carries no value: after [`FlightOutcome::Done`] a follower re-probes
/// the result cache, which both preserves the cache-replay invariants
/// (budget checkpoints and `query:eval` fault points replay on a hit —
/// see [`QueryCache::get_result`]) and keeps this type trivially
/// deadlock-safe: a lost wake-up degenerates to an extra evaluation,
/// never a hang, and an aborted leader's followers re-evaluate.
#[derive(Default)]
pub struct Singleflight {
    flights: Mutex<HashMap<u64, Arc<FlightSlot>>>,
    led: AtomicU64,
    coalesced: AtomicU64,
    aborted: AtomicU64,
}

impl std::fmt::Debug for Singleflight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Singleflight").finish()
    }
}

impl Singleflight {
    /// A coalescer with no flights.
    pub fn new() -> Self {
        Singleflight::default()
    }

    /// Join the flight for `key`, creating it (and leading) if absent.
    pub fn join(&self, key: u64) -> Flight<'_> {
        // invariant: the map mutex only guards map ops; never poisoned.
        let mut flights = self.flights.lock().unwrap();
        match flights.get(&key) {
            Some(slot) => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                Flight::Follower(FlightFollower { slot: slot.clone() })
            }
            None => {
                let slot = Arc::new(FlightSlot::new());
                flights.insert(key, slot.clone());
                self.led.fetch_add(1, Ordering::Relaxed);
                Flight::Leader(FlightLease {
                    sf: self,
                    key,
                    slot,
                    completed: false,
                })
            }
        }
    }

    fn remove(&self, key: u64) {
        self.flights.lock().unwrap().remove(&key);
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> SingleflightStats {
        SingleflightStats {
            led: self.led.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
        }
    }
}

/// A stable hash for singleflight keys (the cache's own [`ResultKey`]
/// plus anything else that distinguishes responses, e.g. `top_k`).
pub fn flight_key<H: Hash>(value: &H) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Breach, Budget, Degradation};
    use crate::filter::FilterExpr;
    use xfrag_doc::NodeId;

    fn nodes(ids: impl IntoIterator<Item = u32>) -> FragmentSet {
        FragmentSet::of_nodes(ids.into_iter().map(NodeId))
    }

    #[test]
    fn one_query_under_any_policy_lands_in_one_shard() {
        let c = QueryCache::new(1 << 20);
        let gen = GenerationTag::fresh();
        let q = Query::new(["alpha", "beta"], FilterExpr::MaxSize(3));
        let loose = ResultKey::new(gen, 0, &q, Strategy::PushDown, &ExecPolicy::unlimited());
        for policy in [
            ExecPolicy::with_budget(Budget::bounded()),
            ExecPolicy::with_budget(Budget::unlimited().with_max_fragments(4))
                .with_cancel(crate::budget::CancelToken::new()),
        ] {
            let other = ResultKey::new(gen, 0, &q, Strategy::PushDown, &policy);
            assert_ne!(loose, other);
            assert!(std::ptr::eq(c.shard_of(&loose), c.shard_of(&other)));
        }
    }

    /// The push-down result key of the one-term query `Q{term}`.
    fn key(gen: GenerationTag, doc: u32, term: &str) -> ResultKey {
        ResultKey::new(
            gen,
            doc,
            &Query::new([term], FilterExpr::True),
            Strategy::PushDown,
            &ExecPolicy::unlimited(),
        )
    }

    fn result(frags: FragmentSet, degradation: Degradation) -> QueryResult {
        QueryResult {
            fragments: frags,
            stats: EvalStats::default(),
            degradation,
        }
    }

    /// Store `frags` as the exact answer under `key`.
    fn put(cache: &QueryCache, key: &ResultKey, frags: FragmentSet) {
        cache.put_result(key, &result(frags, Degradation::none()));
    }

    /// The stored fragments under `key`, if any.
    fn get(cache: &QueryCache, key: &ResultKey) -> Option<FragmentSet> {
        cache.get_result(key).map(|r| r.fragments)
    }

    #[test]
    fn generation_tags_are_unique_and_monotone() {
        let a = GenerationTag::fresh();
        let b = GenerationTag::fresh();
        assert_ne!(a, b);
        assert!(b.as_u64() > a.as_u64());
    }

    #[test]
    fn result_round_trip_and_generation_isolation() {
        let cache = QueryCache::with_capacity_mb(4);
        let g1 = GenerationTag::fresh();
        let g2 = GenerationTag::fresh();
        let set = nodes([1, 2, 3]);
        put(&cache, &key(g1, 0, "xml"), set.clone());
        assert_eq!(get(&cache, &key(g1, 0, "xml")), Some(set));
        // A different generation, document, or query never sees it.
        assert_eq!(get(&cache, &key(g2, 0, "xml")), None);
        assert_eq!(get(&cache, &key(g1, 1, "xml")), None);
        assert_eq!(get(&cache, &key(g1, 0, "search")), None);
        let st = cache.stats();
        assert_eq!(st.result.hits, 1);
        assert_eq!(st.result.misses, 3);
        assert_eq!(st.entries, 1);
        assert!(st.bytes > 0);
    }

    #[test]
    fn result_key_normalizes_term_order_and_dups() {
        // Satellite regression: Q{a,b}, Q{b,a} and Q{b,a,b} share a key.
        let g = GenerationTag::fresh();
        let policy = ExecPolicy::unlimited();
        let mk = |terms: &[&str]| {
            ResultKey::new(
                g,
                0,
                &Query::new(terms.iter().copied(), FilterExpr::True),
                Strategy::FixedPointReduced,
                &policy,
            )
        };
        assert_eq!(mk(&["alpha", "beta"]), mk(&["beta", "alpha"]));
        assert_eq!(mk(&["alpha", "beta"]), mk(&["beta", "alpha", "beta"]));
        let cache = QueryCache::with_capacity_mb(4);
        put(&cache, &mk(&["alpha", "beta"]), nodes([1]));
        assert!(cache.get_result(&mk(&["beta", "alpha"])).is_some());
    }

    #[test]
    fn degraded_answers_are_never_stored() {
        let g = GenerationTag::fresh();
        let q = Query::new(["alpha"], FilterExpr::True);
        let degraded = Degradation {
            breach: Some(Breach::Joins),
            ..Degradation::default()
        };
        let work_limited = ExecPolicy::with_budget(Budget::unlimited().with_max_joins(1));
        let wall_clocked = ExecPolicy::with_budget(
            Budget::unlimited().with_wall_clock(std::time::Duration::from_secs(3600)),
        );
        for policy in [work_limited, wall_clocked] {
            let cache = QueryCache::with_capacity_mb(4);
            let key = ResultKey::new(g, 0, &q, Strategy::PushDown, &policy);
            cache.put_result(&key, &result(nodes([1]), degraded.clone()));
            assert_eq!(cache.stats().insertions, 0, "{policy:?}");
            assert!(cache.get_result(&key).is_none(), "{policy:?}");

            put(&cache, &key, nodes([2]));
            let hit = cache.get_result(&key).expect("exact answers are stored");
            assert_eq!(hit.fragments, nodes([2]));
        }
    }

    #[test]
    fn lru_evicts_oldest_first_and_respects_touches() {
        // Each entry is a few hundred bytes; a 1000-byte shard budget
        // holds about two. Keys spread over the shards by hash, so only
        // the global and per-shard accounting is checked.
        let cache = QueryCache::new(SHARDS as u64 * 1000);
        let g = GenerationTag::fresh();
        for i in 0..64 {
            put(&cache, &key(g, i, "term"), nodes([1, 2, 3]));
        }
        let st = cache.stats();
        assert!(st.evictions > 0, "64 inserts must overflow the budget");
        assert!(st.bytes <= SHARDS as u64 * 1000);
        for shard in &st.shards {
            assert!(shard.bytes <= 1000, "no shard exceeds its own budget");
        }
        // Most recently inserted entries survive.
        assert!(cache.get_result(&key(g, 63, "term")).is_some());
    }

    #[test]
    fn touched_entries_survive_eviction_pressure() {
        let cache = QueryCache::new(u64::MAX / 2); // effectively unbounded
        let g = GenerationTag::fresh();
        put(&cache, &key(g, 0, "keep"), nodes([1]));
        put(&cache, &key(g, 0, "drop"), nodes([2]));
        // Touch "keep" so "drop" is the LRU entry everywhere.
        assert!(cache.get_result(&key(g, 0, "keep")).is_some());
        let st = cache.stats();
        assert_eq!(st.evictions, 0);
        assert_eq!(st.entries, 2);
    }

    #[test]
    fn oversize_entries_are_not_admitted() {
        let cache = QueryCache::new(8); // 1 byte per shard
        let g = GenerationTag::fresh();
        put(&cache, &key(g, 0, "xml"), nodes([1, 2, 3]));
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(get(&cache, &key(g, 0, "xml")), None);
    }

    #[test]
    fn stats_json_shape() {
        // The exact bytes serve's `stats` reply and the CLI's `--stats`
        // line carry: distinct values pin every key and its position.
        let st = CacheStats {
            result: TierCounters { hits: 1, misses: 2 },
            evictions: 3,
            insertions: 4,
            bytes: 5,
            entries: 6,
            shards: vec![
                ShardCounters {
                    hits: 7,
                    misses: 8,
                    evictions: 9,
                    bytes: 10,
                    entries: 11,
                },
                ShardCounters::default(),
            ],
        };
        assert_eq!(
            serde_json::to_string(&st).unwrap(),
            "{\"result\":{\"hits\":1,\"misses\":2},\"evictions\":3,\"insertions\":4,\
             \"bytes\":5,\"entries\":6,\"shards\":[{\"hits\":7,\"misses\":8,\
             \"evictions\":9,\"bytes\":10,\"entries\":11},{\"hits\":0,\"misses\":0,\
             \"evictions\":0,\"bytes\":0,\"entries\":0}]}"
        );

        // A live cache reports one counter object per lock shard.
        let cache = QueryCache::with_capacity_mb(1);
        let g = GenerationTag::fresh();
        put(&cache, &key(g, 0, "xml"), nodes([1]));
        get(&cache, &key(g, 0, "xml"));
        get(&cache, &key(g, 0, "nope"));
        let json = serde_json::to_string(&cache.stats()).unwrap();
        assert!(
            json.starts_with("{\"result\":{\"hits\":1,\"misses\":1},\"evictions\":"),
            "{json}"
        );
        assert_eq!(
            json.matches("\"evictions\"").count(),
            1 + SHARDS,
            "one global plus one per shard"
        );
    }

    #[test]
    fn carry_over_rekeys_mapped_docs_and_drops_the_rest() {
        let cache = QueryCache::with_capacity_mb(4);
        let g1 = GenerationTag::fresh();
        let g2 = GenerationTag::fresh();

        // Doc 0: unchanged (same id). Doc 1: shifts to id 5. Doc 2: changed.
        put(&cache, &key(g1, 0, "alpha"), nodes([1]));
        put(&cache, &key(g1, 0, "beta"), nodes([1, 2]));
        put(&cache, &key(g1, 0, "gamma"), nodes([3]));
        put(&cache, &key(g1, 1, "alpha"), nodes([7]));
        put(&cache, &key(g1, 2, "alpha"), nodes([9]));

        let map: HashMap<u32, u32> = [(0, 0), (1, 5)].into();
        let co = cache.carry_over(g1, g2, &map);
        assert_eq!(co.kept, 3, "{co:?}");
        assert_eq!(co.rekeyed, 1, "{co:?}");
        assert_eq!(co.evicted, 1, "{co:?}");

        // Carried entries answer under the new tag and mapped ids…
        assert_eq!(get(&cache, &key(g2, 0, "alpha")), Some(nodes([1])));
        assert_eq!(get(&cache, &key(g2, 0, "beta")), Some(nodes([1, 2])));
        assert_eq!(get(&cache, &key(g2, 0, "gamma")), Some(nodes([3])));
        assert_eq!(get(&cache, &key(g2, 5, "alpha")), Some(nodes([7])));
        // …the changed doc and every old-tag key miss.
        assert_eq!(get(&cache, &key(g2, 2, "alpha")), None);
        assert_eq!(get(&cache, &key(g2, 1, "alpha")), None);
        assert_eq!(get(&cache, &key(g1, 0, "alpha")), None);
    }

    #[test]
    fn carry_over_preserves_byte_accounting() {
        let cache = QueryCache::with_capacity_mb(4);
        let g1 = GenerationTag::fresh();
        let g2 = GenerationTag::fresh();
        for doc in 0..8 {
            put(&cache, &key(g1, doc, "term"), nodes([doc, doc + 1]));
        }
        let before = cache.stats();
        // Map only even docs; odd ones drop.
        let map: HashMap<u32, u32> = (0..8).step_by(2).map(|d| (d, d)).collect();
        let co = cache.carry_over(g1, g2, &map);
        assert_eq!(co.kept, 4);
        assert_eq!(co.evicted, 4);
        let after = cache.stats();
        assert_eq!(after.entries, 4);
        assert!(after.bytes < before.bytes);
        assert!(after.bytes > 0);
        // A second carry-over of the (now empty) old tag is a no-op.
        assert_eq!(cache.carry_over(g1, g2, &map), CarryOver::default());
    }

    #[test]
    fn singleflight_coalesces_concurrent_joiners() {
        let sf = Arc::new(Singleflight::new());
        let Flight::Leader(lease) = sf.join(7) else {
            panic!("first joiner must lead");
        };
        let mut followers = Vec::new();
        for _ in 0..8 {
            let sf = sf.clone();
            followers.push(std::thread::spawn(move || {
                let Flight::Follower(f) = sf.join(7) else {
                    panic!("concurrent joiner must follow");
                };
                f.wait(Duration::from_secs(30))
            }));
        }
        // Give every follower time to actually block on the flight.
        while sf.stats().coalesced < 8 {
            std::thread::yield_now();
        }
        lease.complete();
        for f in followers {
            assert_eq!(f.join().unwrap(), FlightOutcome::Done);
        }
        let st = sf.stats();
        assert_eq!((st.led, st.coalesced, st.aborted), (1, 8, 0));
        // The key is free again: the next joiner leads a new flight.
        assert!(matches!(sf.join(7), Flight::Leader(_)));
    }

    #[test]
    fn singleflight_aborted_leader_wakes_followers_to_retry() {
        let sf = Arc::new(Singleflight::new());
        let Flight::Leader(lease) = sf.join(1) else {
            panic!("first joiner must lead");
        };
        let waiter = {
            let sf = sf.clone();
            std::thread::spawn(move || {
                let Flight::Follower(f) = sf.join(1) else {
                    panic!("must follow");
                };
                f.wait(Duration::from_secs(30))
            })
        };
        while sf.stats().coalesced < 1 {
            std::thread::yield_now();
        }
        drop(lease); // leader unwound without completing
        assert_eq!(waiter.join().unwrap(), FlightOutcome::Aborted);
        assert_eq!(sf.stats().aborted, 1);
        // Retrying after an abort takes leadership — no hang, no orphan.
        assert!(matches!(sf.join(1), Flight::Leader(_)));
    }

    #[test]
    fn singleflight_keys_are_independent_and_waits_time_out() {
        let sf = Singleflight::new();
        let _a = sf.join(1);
        assert!(matches!(sf.join(2), Flight::Leader(_)));
        let Flight::Follower(f) = sf.join(1) else {
            panic!("same key must follow");
        };
        assert_eq!(
            f.wait(Duration::from_millis(20)),
            FlightOutcome::TimedOut,
            "a follower's own deadline bounds the wait"
        );
    }
}
