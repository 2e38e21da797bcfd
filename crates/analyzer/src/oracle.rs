//! The shared memoizing oracle service.
//!
//! Every repair technique in the study asks the same questions — "does this
//! candidate satisfy its command oracle?", "which commands fail?", "give me
//! counterexamples" — and candidate populations overlap heavily: mutation
//! engines regenerate the same mutants across techniques and rounds, and
//! ICEBAR/Multi-Round revisit earlier candidates. The [`Oracle`] memoizes
//! every [`Analyzer`] query behind a thread-safe sharded table keyed by the
//! *content fingerprint* of the specification — the 128-bit canonical
//! Merkle hash of [`mualloy_syntax::hash`], which is span-insensitive and
//! agrees with print-equality — (plus the command / assertion / formula and
//! scope for the per-command queries), so a question is solved at most once
//! per process. Callers that already know a candidate's fingerprint (e.g.
//! from an incremental [`mualloy_syntax::SpecHasher`] rehash) pass it to
//! the `*_keyed` variants and skip the hash walk entirely.
//!
//! Results are cached including errors: an `Err` answer is as deterministic
//! as an `Ok` one. Ground evaluations ([`Oracle::evaluate`]) are pass-through
//! — they never touch the solver and are cheaper than a table probe.
//!
//! A disabled oracle ([`Oracle::disabled`]) answers every query by solving
//! afresh; the study's correctness gate asserts that cache-enabled and
//! cache-disabled runs produce byte-identical results.
//!
//! Two further layers sit on the memo table:
//!
//! - **Singleflight.** Concurrent identical queries (daemon worker threads,
//!   portfolio entrants racing the same candidate) collapse onto one
//!   in-flight solve: the first caller becomes the leader, everyone else
//!   blocks until the leader memoizes, then re-probes the table and hits.
//!   Duplicate-while-in-flight callers are counted in
//!   [`OracleCacheStats::collapsed`].
//! - **Persistent tier.** An attached [`VerdictStore`]
//!   ([`Oracle::attach_persist`]) is probed on an in-memory verdict miss
//!   and fed every freshly computed verdict, so a restarted process boots
//!   warm. Persist hits count as cache hits (plus
//!   [`OracleCacheStats::persist_hits`]) and are memoized back into the
//!   table with zeroed solver counters — the solve happened in a previous
//!   process life.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

use mualloy_relational::Instance;
use mualloy_sat::{stats as sat_stats, SolverStats};
use mualloy_syntax::ast::{Command, Formula, Spec};
use mualloy_syntax::{spec_fingerprint, Fingerprint};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use specrepair_trace::{Phase, SpanGuard};

use crate::analyzer::{Analyzer, CommandOutcome};
use crate::error::AnalyzerError;
use crate::incremental::{IncrementalEngine, IncrementalStats};
use crate::persist::VerdictStore;

/// Number of independently-locked shards; a power of two so the fingerprint
/// maps to a shard with a mask.
const SHARDS: usize = 16;

/// A memoized answer together with the SAT solver statistics of the solve
/// that originally computed it, so a cache hit can report the same
/// counters the miss did (the answer *is* that solve's answer).
#[derive(Debug, Clone)]
struct Memo<T> {
    value: T,
    solver: SolverStats,
}

/// A memoized instance enumeration (counterexamples or satisfying
/// instances), as stored in a [`SpecEntry`].
type InstancesMemo = Memo<Result<Vec<Instance>, AnalyzerError>>;

/// Memoized answers for one canonical specification.
#[derive(Debug, Default)]
struct SpecEntry {
    /// Outcome of [`Analyzer::execute_all`] — `satisfies_oracle` and
    /// `failing_commands` are derived views of this single answer.
    execute_all: Option<Memo<Result<Vec<CommandOutcome>, AnalyzerError>>>,
    /// Boolean oracle verdict computed by the incremental engine. Only
    /// populated on the incremental path; the cold path derives the verdict
    /// from `execute_all` (which is probed first and is never shadowed).
    verdict: Option<Memo<bool>>,
    /// Per-command outcomes, for commands not covered by `execute_all`
    /// (e.g. localization re-running one command on a relaxed spec).
    commands: HashMap<Command, Memo<Result<CommandOutcome, AnalyzerError>>>,
    /// `check_assert` outcomes keyed by (assertion, scope).
    asserts: HashMap<(String, u32), Memo<Result<CommandOutcome, AnalyzerError>>>,
    /// Counterexample enumerations keyed by (assertion, scope, limit).
    counterexamples: HashMap<(String, u32, usize), InstancesMemo>,
    /// Instance enumerations keyed by (formula, scope, limit).
    enumerations: HashMap<(Formula, u32, usize), InstancesMemo>,
}

/// Tags an `oracle.*` query span with its cache verdict and the solver
/// counters of the (original) solve — identical on hit and miss.
fn tag_query(span: &SpanGuard, hit: bool, solver: &SolverStats) {
    if !span.is_active() {
        return;
    }
    span.attr_bool("hit", hit);
    span.attr_u64("solves", solver.solves);
    span.attr_u64("conflicts", solver.conflicts);
    span.attr_u64("decisions", solver.decisions);
    span.attr_u64("propagations", solver.propagations);
    span.attr_u64("restarts", solver.restarts);
    span.attr_u64("learned_clauses", solver.learned_clauses);
}

/// One independently-locked shard of the memo table: the entries plus the
/// FIFO insertion order used for eviction when a capacity is configured.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<Fingerprint, SpecEntry>,
    /// Spec keys in insertion order; oldest specs are evicted first. Only
    /// maintained when the table is bounded.
    order: VecDeque<Fingerprint>,
}

/// A point-in-time snapshot of the oracle's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OracleCacheStats {
    /// Queries answered from the memo table.
    pub hits: u64,
    /// Queries that had to solve (or re-solve, when disabled).
    pub misses: u64,
    /// Underlying analyzer invocations actually executed.
    pub solver_invocations: u64,
    /// Queries whose answer was an analyzer error (counted once per
    /// *computed* error; cached error replays count as hits).
    pub errors: u64,
    /// Memoized spec entries dropped to honor the per-shard capacity
    /// (always 0 for the default unbounded table).
    pub evictions: u64,
    /// Verdict queries answered by the persistent disk tier (a subset of
    /// `hits`: the solve happened in a previous process life).
    pub persist_hits: u64,
    /// Queries that arrived while an identical solve was already in flight
    /// and blocked on its leader instead of re-solving (singleflight).
    pub collapsed: u64,
}

impl OracleCacheStats {
    /// Fraction of queries answered from the cache (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another snapshot into this one.
    pub fn absorb(&mut self, other: &OracleCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.solver_invocations += other.solver_invocations;
        self.errors += other.errors;
        self.evictions += other.evictions;
        self.persist_hits += other.persist_hits;
        self.collapsed += other.collapsed;
    }

    /// The telemetry `oracle_cache` section for this snapshot.
    pub fn section(&self, memoized_specs: usize) -> specrepair_telemetry::OracleCacheSection {
        specrepair_telemetry::OracleCacheSection {
            hits: self.hits,
            misses: self.misses,
            solver_invocations: self.solver_invocations,
            errors: self.errors,
            evictions: self.evictions,
            hit_rate: self.hit_rate(),
            memoized_specs: memoized_specs as u64,
            persist_hits: self.persist_hits,
            collapsed: self.collapsed,
        }
    }
}

/// A query kind discriminant for singleflight keys: `execute_all` and the
/// boolean verdict are distinct solves and must not block one another.
const FLIGHT_EXECUTE_ALL: u8 = 0;
const FLIGHT_VERDICT: u8 = 1;

/// The in-flight solve registry behind singleflight collapsing. `std::sync`
/// because waiting needs a [`Condvar`] (the vendored `parking_lot` has
/// none); poisoning is absorbed — a leader that panicked mid-solve just
/// releases its slot.
#[derive(Default)]
struct Inflight {
    set: StdMutex<HashSet<(u128, u8)>>,
    cond: Condvar,
}

/// RAII leadership of one in-flight solve: dropping (normally or by panic
/// unwind) releases the slot and wakes every waiter.
struct FlightGuard<'a> {
    oracle: &'a Oracle,
    key: (u128, u8),
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let mut set = self
            .oracle
            .inflight
            .set
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        set.remove(&self.key);
        self.oracle.inflight.cond.notify_all();
    }
}

/// The shared memoizing oracle service. Cheap to share behind an `Arc`;
/// all methods take `&self` and are safe to call from rayon workers.
pub struct Oracle {
    enabled: bool,
    /// Per-shard cap on memoized spec entries; `None` = unbounded (the
    /// default, and what one-shot study runs use). Long-running services
    /// bound the table so it cannot grow without limit.
    shard_capacity: Option<usize>,
    shards: Vec<Mutex<Shard>>,
    /// Whether boolean verdict queries route through the incremental
    /// engine (default on; `--no-incremental` flips it off at run start).
    incremental: AtomicBool,
    engine: IncrementalEngine,
    /// The attached persistent verdict tier, if any (`attach_persist`).
    persist: parking_lot::RwLock<Option<Arc<dyn VerdictStore>>>,
    /// In-flight solve registry for singleflight collapsing.
    inflight: Inflight,
    hits: AtomicU64,
    misses: AtomicU64,
    solver_invocations: AtomicU64,
    errors: AtomicU64,
    evictions: AtomicU64,
    persist_hits: AtomicU64,
    collapsed: AtomicU64,
}

impl Default for Oracle {
    fn default() -> Oracle {
        Oracle::new()
    }
}

impl std::fmt::Debug for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Oracle")
            .field("enabled", &self.enabled)
            .field("stats", &stats)
            .finish()
    }
}

impl Oracle {
    /// A fresh memoizing oracle.
    pub fn new() -> Oracle {
        Oracle::with_enabled(true)
    }

    /// A pass-through oracle: every query solves afresh. Used as the
    /// control arm of the cache-on/cache-off equivalence gate.
    pub fn disabled() -> Oracle {
        Oracle::with_enabled(false)
    }

    /// A pass-through oracle without incremental sessions: every query is
    /// one cold [`Analyzer`] solve. The oracle-less scoring entry points
    /// ([`crate::compare`], [`crate::rep_for_source`]) run on it.
    pub fn cold() -> Oracle {
        let oracle = Oracle::disabled();
        oracle.disable_incremental();
        oracle
    }

    /// A memoizing oracle whose table is bounded at `per_shard` spec
    /// entries per shard (clamped to ≥ 1; total capacity ≈ `16 × per_shard`
    /// specs). When a shard fills up, its oldest entries are evicted FIFO
    /// and counted in [`OracleCacheStats::evictions`]. Use this for
    /// long-running processes (the `specrepaird` daemon) where an unbounded
    /// memo table is a slow leak.
    pub fn bounded(per_shard: usize) -> Oracle {
        let mut oracle = Oracle::with_enabled(true);
        oracle.shard_capacity = Some(per_shard.max(1));
        oracle
    }

    fn with_enabled(enabled: bool) -> Oracle {
        Oracle {
            enabled,
            shard_capacity: None,
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            incremental: AtomicBool::new(true),
            engine: IncrementalEngine::new(),
            persist: parking_lot::RwLock::new(None),
            inflight: Inflight::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            solver_invocations: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            persist_hits: AtomicU64::new(0),
            collapsed: AtomicU64::new(0),
        }
    }

    /// Whether memoization is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether boolean verdict queries route through the incremental
    /// engine.
    pub fn incremental_enabled(&self) -> bool {
        self.incremental.load(Ordering::Relaxed)
    }

    /// Turns the incremental engine off: every verdict query solves cold,
    /// exactly as before the engine existed. The `--no-incremental`
    /// escape hatch and the equivalence gate use this.
    pub fn disable_incremental(&self) {
        self.incremental.store(false, Ordering::Relaxed);
    }

    /// Snapshot of the incremental engine's counters.
    pub fn incremental_stats(&self) -> IncrementalStats {
        self.engine.stats()
    }

    /// The configured per-shard entry cap (`None` = unbounded).
    pub fn shard_capacity(&self) -> Option<usize> {
        self.shard_capacity
    }

    /// Snapshot of the hit/miss/solver counters.
    pub fn stats(&self) -> OracleCacheStats {
        OracleCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            solver_invocations: self.solver_invocations.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            persist_hits: self.persist_hits.load(Ordering::Relaxed),
            collapsed: self.collapsed.load(Ordering::Relaxed),
        }
    }

    /// Attaches a persistent verdict tier: probed after an in-memory
    /// verdict miss, fed every freshly computed verdict. Ignored on a
    /// disabled oracle (the cache-off control arm stays pure pass-through).
    pub fn attach_persist(&self, store: Arc<dyn VerdictStore>) {
        if self.enabled {
            *self.persist.write() = Some(store);
        }
    }

    /// Whether a persistent tier is attached.
    pub fn persist_attached(&self) -> bool {
        self.persist.read().is_some()
    }

    /// Number of spec entries currently memoized across all shards.
    pub fn memoized_specs(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// The canonical cache key of a specification: the 128-bit Merkle
    /// fingerprint of [`mualloy_syntax::hash`], which normalizes spans,
    /// node ids and whitespace provenance (hash-equal ⟺ print-equal).
    pub fn fingerprint(spec: &Spec) -> Fingerprint {
        spec_fingerprint(spec)
    }

    fn shard_of(&self, key: Fingerprint) -> &Mutex<Shard> {
        // The fingerprint is already a strong hash; its low bits pick the
        // shard directly.
        &self.shards[(key.0 as usize) & (SHARDS - 1)]
    }

    /// Stores a computed answer under `key`, evicting the shard's oldest
    /// spec entries when a capacity is configured.
    fn memoize(&self, shard: &Mutex<Shard>, key: Fingerprint, store: impl FnOnce(&mut SpecEntry)) {
        let mut guard = shard.lock();
        if self.shard_capacity.is_some() && !guard.entries.contains_key(&key) {
            guard.order.push_back(key);
        }
        store(guard.entries.entry(key).or_default());
        if let Some(cap) = self.shard_capacity {
            while guard.entries.len() > cap {
                let Some(oldest) = guard.order.pop_front() else {
                    break;
                };
                if guard.entries.remove(&oldest).is_some() {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn record<T>(&self, computed: Result<T, AnalyzerError>) -> Result<T, AnalyzerError> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.solver_invocations.fetch_add(1, Ordering::Relaxed);
        if computed.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        computed
    }

    fn hit<T>(&self, cached: T) -> T {
        self.hits.fetch_add(1, Ordering::Relaxed);
        cached
    }

    /// Joins the in-flight solve for `(key, kind)`. Returns `Some(guard)`
    /// when this caller is the leader (it must solve and memoize; dropping
    /// the guard wakes the waiters). Returns `None` after having waited for
    /// another leader to finish — the caller re-probes the memo table,
    /// which now holds the leader's answer (or, if the leader's entry was
    /// already evicted, the caller loops and becomes the next leader).
    fn flight_join(&self, key: Fingerprint, kind: u8) -> Option<FlightGuard<'_>> {
        let k = (key.0, kind);
        let mut set = self.inflight.set.lock().unwrap_or_else(|e| e.into_inner());
        if set.insert(k) {
            return Some(FlightGuard {
                oracle: self,
                key: k,
            });
        }
        self.collapsed.fetch_add(1, Ordering::Relaxed);
        while set.contains(&k) {
            set = self
                .inflight
                .cond
                .wait(set)
                .unwrap_or_else(|e| e.into_inner());
        }
        None
    }

    /// Probes the persistent tier for a verdict. On a hit the verdict is
    /// memoized back into the in-memory table (with zeroed solver counters:
    /// the solve happened in a previous process life) and counted as a
    /// cache hit plus a persist hit.
    fn persist_probe(&self, key: Fingerprint, span: &SpanGuard) -> Option<bool> {
        let store = self.persist.read().clone()?;
        let verdict = store.lookup(key)?;
        self.memoize(self.shard_of(key), key, |e| {
            if e.verdict.is_none() {
                e.verdict = Some(Memo {
                    value: verdict,
                    solver: SolverStats::default(),
                });
            }
        });
        self.persist_hits.fetch_add(1, Ordering::Relaxed);
        tag_query(span, true, &SolverStats::default());
        if span.is_active() {
            span.attr_bool("persist", true);
        }
        Some(self.hit(verdict))
    }

    /// Feeds a freshly computed verdict to the persistent tier (no-op when
    /// none is attached; the store absorbs its own I/O trouble).
    fn persist_record(&self, key: Fingerprint, verdict: bool) {
        if let Some(store) = self.persist.read().clone() {
            store.record(key, verdict);
        }
    }

    /// The memoized boolean verdict for `key`, answered from process
    /// memory only — the full `execute_all` answer when present (a cached
    /// error yields `None`: the verdict is genuinely unknown), otherwise
    /// the verdict-only line. Never consults the persistent tier and moves
    /// no counters: this is the read side of the shard `/verdict` API,
    /// where recursing into an attached remote tier would loop the
    /// cluster back onto itself.
    pub fn probe_verdict(&self, key: Fingerprint) -> Option<bool> {
        if !self.enabled {
            return None;
        }
        self.shard_of(key).lock().entries.get(&key).and_then(|e| {
            if let Some(memo) = &e.execute_all {
                return match &memo.value {
                    Ok(outcomes) => Some(outcomes.iter().all(CommandOutcome::matches_expectation)),
                    Err(_) => None,
                };
            }
            e.verdict.as_ref().map(|memo| memo.value)
        })
    }

    /// Memoizes an externally computed verdict for `key` (the write side
    /// of the shard `/verdict` API: a peer solved this fingerprint and is
    /// pooling the answer). Stored with zeroed solver counters, exactly
    /// like a persistent-tier hit; an existing memo is never overwritten —
    /// verdicts are deterministic, so first-writer-wins is also
    /// every-writer-agrees. No-op on a disabled oracle.
    pub fn inject_verdict(&self, key: Fingerprint, verdict: bool) {
        if !self.enabled {
            return;
        }
        self.memoize(self.shard_of(key), key, |e| {
            if e.verdict.is_none() {
                e.verdict = Some(Memo {
                    value: verdict,
                    solver: SolverStats::default(),
                });
            }
        });
    }

    /// Memoized [`Analyzer::execute_all`]: every command's outcome, in
    /// specification order.
    ///
    /// # Errors
    ///
    /// Fails (and caches the failure) when any command cannot be executed.
    pub fn execute_all(&self, spec: &Spec) -> Result<Vec<CommandOutcome>, AnalyzerError> {
        self.execute_all_with(spec, None)
    }

    /// [`Oracle::execute_all`] with a precomputed canonical fingerprint,
    /// skipping the hash walk. The caller guarantees
    /// `key == Oracle::fingerprint(spec)`.
    ///
    /// # Errors
    ///
    /// Fails (and caches the failure) when any command cannot be executed.
    pub fn execute_all_keyed(
        &self,
        spec: &Spec,
        key: Fingerprint,
    ) -> Result<Vec<CommandOutcome>, AnalyzerError> {
        self.execute_all_with(spec, Some(key))
    }

    fn execute_all_with(
        &self,
        spec: &Spec,
        key: Option<Fingerprint>,
    ) -> Result<Vec<CommandOutcome>, AnalyzerError> {
        let span = specrepair_trace::span("oracle.execute_all", Phase::OracleCache);
        if !self.enabled {
            let (computed, solver) =
                sat_stats::collect(|| Analyzer::new(spec.clone()).execute_all());
            tag_query(&span, false, &solver);
            return self.record(computed);
        }
        let key = key.unwrap_or_else(|| Oracle::fingerprint(spec));
        let shard = self.shard_of(key);
        // Singleflight: probe, and on a miss either become the leader or
        // wait for the current one and re-probe (the leader memoizes both
        // answers and errors, so waiters hit on the second pass).
        let _flight = loop {
            if let Some(cached) = shard
                .lock()
                .entries
                .get(&key)
                .and_then(|e| e.execute_all.clone())
            {
                tag_query(&span, true, &cached.solver);
                return self.hit(cached.value);
            }
            match self.flight_join(key, FLIGHT_EXECUTE_ALL) {
                Some(guard) => break guard,
                None => continue,
            }
        };
        let (computed, solver) = sat_stats::collect(|| Analyzer::new(spec.clone()).execute_all());
        tag_query(&span, false, &solver);
        let computed = self.record(computed);
        self.memoize(shard, key, |e| {
            e.execute_all = Some(Memo {
                value: computed.clone(),
                solver,
            });
        });
        computed
    }

    /// Memoized [`Analyzer::satisfies_oracle`]: whether every command's
    /// outcome matches its `expect` annotation.
    ///
    /// With the incremental engine on (the default), the verdict is
    /// answered by persistent solve-under-assumptions sessions; the engine
    /// declines any candidate it cannot check (falling back to the cold
    /// [`Oracle::execute_all`] derivation), so verdicts and errors are
    /// identical either way.
    ///
    /// # Errors
    ///
    /// Fails when any command cannot be executed.
    pub fn satisfies_oracle(&self, spec: &Spec) -> Result<bool, AnalyzerError> {
        self.satisfies_oracle_with(spec, None)
    }

    /// [`Oracle::satisfies_oracle`] with a precomputed canonical
    /// fingerprint, skipping the hash walk.
    ///
    /// # Errors
    ///
    /// Fails when any command cannot be executed.
    pub fn satisfies_oracle_keyed(
        &self,
        spec: &Spec,
        key: Fingerprint,
    ) -> Result<bool, AnalyzerError> {
        self.satisfies_oracle_with(spec, Some(key))
    }

    fn satisfies_oracle_with(
        &self,
        spec: &Spec,
        key: Option<Fingerprint>,
    ) -> Result<bool, AnalyzerError> {
        fn all_match(outcomes: &[CommandOutcome]) -> bool {
            outcomes.iter().all(CommandOutcome::matches_expectation)
        }
        if !self.incremental_enabled() {
            if self.enabled {
                let key = key.unwrap_or_else(|| Oracle::fingerprint(spec));
                // A memoized full answer trumps the persisted verdict line
                // (it may be a cached error); only probe disk without one.
                let has_full = self
                    .shard_of(key)
                    .lock()
                    .entries
                    .get(&key)
                    .is_some_and(|e| e.execute_all.is_some());
                if !has_full {
                    let span =
                        specrepair_trace::span("oracle.satisfies_persist", Phase::OracleCache);
                    if let Some(verdict) = self.persist_probe(key, &span) {
                        return Ok(verdict);
                    }
                }
                let verdict = all_match(&self.execute_all_with(spec, Some(key))?);
                self.persist_record(key, verdict);
                return Ok(verdict);
            }
            return Ok(all_match(&self.execute_all_with(spec, key)?));
        }
        let span = specrepair_trace::span("oracle.satisfies_incremental", Phase::OracleCache);
        let key = if self.enabled {
            Some(key.unwrap_or_else(|| Oracle::fingerprint(spec)))
        } else {
            None
        };
        // Probe → persist tier → singleflight: a waiter woken by its leader
        // loops back to the probe and hits the freshly memoized answer.
        let _flight = if let Some(key) = key {
            loop {
                // Probe `execute_all` first: a full answer (including a
                // cached error) always trumps the verdict-only line.
                let cached = self.shard_of(key).lock().entries.get(&key).and_then(|e| {
                    if let Some(m) = &e.execute_all {
                        let verdict = match &m.value {
                            Ok(outcomes) => Ok(all_match(outcomes)),
                            Err(err) => Err(err.clone()),
                        };
                        Some((verdict, m.solver))
                    } else {
                        e.verdict.as_ref().map(|m| (Ok(m.value), m.solver))
                    }
                });
                if let Some((value, solver)) = cached {
                    tag_query(&span, true, &solver);
                    return self.hit(value);
                }
                if let Some(verdict) = self.persist_probe(key, &span) {
                    return Ok(verdict);
                }
                match self.flight_join(key, FLIGHT_VERDICT) {
                    Some(guard) => break Some(guard),
                    None => continue,
                }
            }
        } else {
            None
        };
        let (computed, solver) = sat_stats::collect(|| self.engine.satisfies_oracle(spec));
        let Some(verdict) = computed else {
            // The engine declined; the cold path owns the answer (and the
            // caching, counters and spans that come with it).
            let verdict = all_match(&self.execute_all_with(spec, key)?);
            if let Some(key) = key {
                self.persist_record(key, verdict);
            }
            return Ok(verdict);
        };
        tag_query(&span, false, &solver);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.solver_invocations.fetch_add(1, Ordering::Relaxed);
        if let Some(key) = key {
            self.memoize(self.shard_of(key), key, |e| {
                e.verdict = Some(Memo {
                    value: verdict,
                    solver,
                });
            });
            self.persist_record(key, verdict);
        }
        Ok(verdict)
    }

    /// Memoized [`Analyzer::failing_commands`]: the commands whose outcomes
    /// contradict their annotations. Derived from [`Oracle::execute_all`].
    ///
    /// # Errors
    ///
    /// Fails when any command cannot be executed.
    pub fn failing_commands(&self, spec: &Spec) -> Result<Vec<CommandOutcome>, AnalyzerError> {
        Ok(self
            .execute_all(spec)?
            .into_iter()
            .filter(|o| !o.matches_expectation())
            .collect())
    }

    /// [`Oracle::failing_commands`] with a precomputed canonical
    /// fingerprint, skipping the hash walk.
    ///
    /// # Errors
    ///
    /// Fails when any command cannot be executed.
    pub fn failing_commands_keyed(
        &self,
        spec: &Spec,
        key: Fingerprint,
    ) -> Result<Vec<CommandOutcome>, AnalyzerError> {
        Ok(self
            .execute_all_keyed(spec, key)?
            .into_iter()
            .filter(|o| !o.matches_expectation())
            .collect())
    }

    /// Memoized [`Analyzer::run_command`].
    ///
    /// # Errors
    ///
    /// Fails on unknown targets or translation errors.
    pub fn run_command(&self, spec: &Spec, cmd: &Command) -> Result<CommandOutcome, AnalyzerError> {
        let span = specrepair_trace::span("oracle.run_command", Phase::OracleCache);
        if !self.enabled {
            let (computed, solver) =
                sat_stats::collect(|| Analyzer::new(spec.clone()).run_command(cmd));
            tag_query(&span, false, &solver);
            return self.record(computed);
        }
        let key = Oracle::fingerprint(spec);
        let shard = self.shard_of(key);
        if let Some(cached) = shard
            .lock()
            .entries
            .get(&key)
            .and_then(|e| e.commands.get(cmd).cloned())
        {
            tag_query(&span, true, &cached.solver);
            return self.hit(cached.value);
        }
        let (computed, solver) =
            sat_stats::collect(|| Analyzer::new(spec.clone()).run_command(cmd));
        tag_query(&span, false, &solver);
        let computed = self.record(computed);
        self.memoize(shard, key, |e| {
            e.commands.insert(
                cmd.clone(),
                Memo {
                    value: computed.clone(),
                    solver,
                },
            );
        });
        computed
    }

    /// Memoized [`Analyzer::check_assert`]: searches for a counterexample
    /// to the named assertion at the given scope.
    ///
    /// # Errors
    ///
    /// Fails when the assertion is unknown or translation fails.
    pub fn check_assert(
        &self,
        spec: &Spec,
        name: &str,
        scope: u32,
    ) -> Result<CommandOutcome, AnalyzerError> {
        let span = specrepair_trace::span("oracle.check_assert", Phase::OracleCache);
        if !self.enabled {
            let (computed, solver) =
                sat_stats::collect(|| Analyzer::new(spec.clone()).check_assert(name, scope));
            tag_query(&span, false, &solver);
            return self.record(computed);
        }
        let key = Oracle::fingerprint(spec);
        let subkey = (name.to_string(), scope);
        let shard = self.shard_of(key);
        if let Some(cached) = shard
            .lock()
            .entries
            .get(&key)
            .and_then(|e| e.asserts.get(&subkey).cloned())
        {
            tag_query(&span, true, &cached.solver);
            return self.hit(cached.value);
        }
        let (computed, solver) =
            sat_stats::collect(|| Analyzer::new(spec.clone()).check_assert(name, scope));
        tag_query(&span, false, &solver);
        let computed = self.record(computed);
        self.memoize(shard, key, |e| {
            e.asserts.insert(
                subkey,
                Memo {
                    value: computed.clone(),
                    solver,
                },
            );
        });
        computed
    }

    /// Memoized [`Analyzer::counterexamples`]: up to `limit` distinct
    /// counterexamples to the named assertion.
    ///
    /// # Errors
    ///
    /// Fails when the assertion is unknown or translation fails.
    pub fn counterexamples(
        &self,
        spec: &Spec,
        name: &str,
        scope: u32,
        limit: usize,
    ) -> Result<Vec<Instance>, AnalyzerError> {
        let span = specrepair_trace::span("oracle.counterexamples", Phase::OracleCache);
        if !self.enabled {
            let (computed, solver) = sat_stats::collect(|| {
                Analyzer::new(spec.clone()).counterexamples(name, scope, limit)
            });
            tag_query(&span, false, &solver);
            return self.record(computed);
        }
        let key = Oracle::fingerprint(spec);
        let subkey = (name.to_string(), scope, limit);
        let shard = self.shard_of(key);
        if let Some(cached) = shard
            .lock()
            .entries
            .get(&key)
            .and_then(|e| e.counterexamples.get(&subkey).cloned())
        {
            tag_query(&span, true, &cached.solver);
            return self.hit(cached.value);
        }
        let (computed, solver) =
            sat_stats::collect(|| Analyzer::new(spec.clone()).counterexamples(name, scope, limit));
        tag_query(&span, false, &solver);
        let computed = self.record(computed);
        self.memoize(shard, key, |e| {
            e.counterexamples.insert(
                subkey,
                Memo {
                    value: computed.clone(),
                    solver,
                },
            );
        });
        computed
    }

    /// Memoized [`Analyzer::enumerate`]: up to `limit` distinct instances
    /// of `facts && declarations && formula` at the given scope.
    ///
    /// # Errors
    ///
    /// Fails on elaboration or translation errors.
    pub fn enumerate(
        &self,
        spec: &Spec,
        formula: &Formula,
        scope: u32,
        limit: usize,
    ) -> Result<Vec<Instance>, AnalyzerError> {
        let span = specrepair_trace::span("oracle.enumerate", Phase::OracleCache);
        if !self.enabled {
            let (computed, solver) =
                sat_stats::collect(|| Analyzer::new(spec.clone()).enumerate(formula, scope, limit));
            tag_query(&span, false, &solver);
            return self.record(computed);
        }
        let key = Oracle::fingerprint(spec);
        let subkey = (formula.clone(), scope, limit);
        let shard = self.shard_of(key);
        if let Some(cached) = shard
            .lock()
            .entries
            .get(&key)
            .and_then(|e| e.enumerations.get(&subkey).cloned())
        {
            tag_query(&span, true, &cached.solver);
            return self.hit(cached.value);
        }
        let (computed, solver) =
            sat_stats::collect(|| Analyzer::new(spec.clone()).enumerate(formula, scope, limit));
        tag_query(&span, false, &solver);
        let computed = self.record(computed);
        self.memoize(shard, key, |e| {
            e.enumerations.insert(
                subkey,
                Memo {
                    value: computed.clone(),
                    solver,
                },
            );
        });
        computed
    }

    /// Ground evaluation of a formula against a concrete instance —
    /// pass-through (no solving happens, so nothing is worth caching).
    ///
    /// # Errors
    ///
    /// Fails on elaboration or evaluation errors.
    pub fn evaluate(
        &self,
        spec: &Spec,
        instance: &Instance,
        formula: &Formula,
    ) -> Result<bool, AnalyzerError> {
        Analyzer::new(spec.clone()).evaluate(instance, formula)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_syntax::{parse_spec, print_spec};

    const GOOD: &str = "sig N { next: lone N } \
        fact Acyclic { no n: N | n in n.^next } \
        pred somePath { some n: N | some n.next } \
        assert NoSelfLoop { all n: N | n not in n.next } \
        run somePath for 3 expect 1 \
        check NoSelfLoop for 3 expect 0";

    const BAD: &str = "sig N { next: lone N } \
        fact Broken { some N || no N } \
        assert NoSelf { all n: N | n not in n.next } \
        check NoSelf for 3 expect 0";

    #[test]
    fn agrees_with_fresh_analyzer() {
        let oracle = Oracle::new();
        for src in [GOOD, BAD] {
            let spec = parse_spec(src).unwrap();
            assert_eq!(
                oracle.satisfies_oracle(&spec).unwrap(),
                Analyzer::new(spec.clone()).satisfies_oracle().unwrap()
            );
            assert_eq!(
                oracle.failing_commands(&spec).unwrap(),
                Analyzer::new(spec.clone()).failing_commands().unwrap()
            );
        }
    }

    #[test]
    fn incremental_and_cold_verdicts_agree() {
        for src in [GOOD, BAD] {
            let spec = parse_spec(src).unwrap();
            let incremental = Oracle::new();
            assert!(incremental.incremental_enabled());
            let cold = Oracle::new();
            cold.disable_incremental();
            assert_eq!(
                incremental.satisfies_oracle(&spec).unwrap(),
                cold.satisfies_oracle(&spec).unwrap()
            );
            assert!(incremental.incremental_stats().checks > 0);
            assert_eq!(cold.incremental_stats().checks, 0);
        }
    }

    #[test]
    fn second_query_is_a_hit() {
        let oracle = Oracle::new();
        let spec = parse_spec(GOOD).unwrap();
        assert!(oracle.satisfies_oracle(&spec).unwrap());
        let before = oracle.stats();
        assert_eq!(before.hits, 0);
        assert_eq!(before.misses, 1);
        assert!(oracle.satisfies_oracle(&spec).unwrap());
        let after = oracle.stats();
        assert_eq!(after.hits, 1);
        assert_eq!(after.misses, 1);
        assert_eq!(after.solver_invocations, 1);
    }

    #[test]
    fn fingerprint_normalizes_spans() {
        // Same text parsed twice (and re-printed) fingerprints identically.
        let a = parse_spec(GOOD).unwrap();
        let b = parse_spec(&print_spec(&a)).unwrap();
        assert_eq!(Oracle::fingerprint(&a), Oracle::fingerprint(&b));
        let oracle = Oracle::new();
        oracle.satisfies_oracle(&a).unwrap();
        oracle.satisfies_oracle(&b).unwrap();
        assert_eq!(oracle.stats().hits, 1);
    }

    #[test]
    fn disabled_oracle_never_hits_but_still_answers() {
        let oracle = Oracle::disabled();
        let spec = parse_spec(BAD).unwrap();
        assert!(!oracle.satisfies_oracle(&spec).unwrap());
        assert!(!oracle.satisfies_oracle(&spec).unwrap());
        let stats = oracle.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.solver_invocations, 2);
    }

    #[test]
    fn errors_are_counted_and_cached() {
        // An unknown run target errors; the error answer is memoized.
        let spec = parse_spec("sig A {} run ghost for 3 expect 1");
        let Ok(spec) = spec else {
            return; // parser rejects unknown targets up front: nothing to do
        };
        let oracle = Oracle::new();
        assert!(oracle.satisfies_oracle(&spec).is_err());
        assert!(oracle.satisfies_oracle(&spec).is_err());
        let stats = oracle.stats();
        assert_eq!(stats.errors, 1, "computed once");
        assert_eq!(stats.hits, 1, "replayed from cache once");
    }

    #[test]
    fn per_command_queries_are_cached() {
        let spec = parse_spec(GOOD).unwrap();
        let oracle = Oracle::new();
        let a = oracle.check_assert(&spec, "NoSelfLoop", 3).unwrap();
        let b = oracle.check_assert(&spec, "NoSelfLoop", 3).unwrap();
        assert_eq!(a, b);
        let c1 = oracle.counterexamples(&spec, "NoSelfLoop", 3, 2).unwrap();
        let c2 = oracle.counterexamples(&spec, "NoSelfLoop", 3, 2).unwrap();
        assert_eq!(c1, c2);
        let e1 = oracle.enumerate(&spec, &Formula::truth(), 3, 2).unwrap();
        let e2 = oracle.enumerate(&spec, &Formula::truth(), 3, 2).unwrap();
        assert_eq!(e1, e2);
        assert_eq!(oracle.stats().hits, 3);
    }

    #[test]
    fn probe_and_inject_verdict_round_the_memo_table() {
        let oracle = Oracle::new();
        let spec = parse_spec(GOOD).unwrap();
        let key = Oracle::fingerprint(&spec);
        // Unknown fingerprints probe to None without touching counters.
        assert_eq!(oracle.probe_verdict(key), None);
        assert_eq!(oracle.stats(), OracleCacheStats::default());
        // A solved verdict probes back out.
        assert!(oracle.satisfies_oracle(&spec).unwrap());
        assert_eq!(oracle.probe_verdict(key), Some(true));
        // An injected (peer-pooled) verdict is served without a solve …
        let peer_key = Oracle::fingerprint(&parse_spec(BAD).unwrap());
        oracle.inject_verdict(peer_key, false);
        assert_eq!(oracle.probe_verdict(peer_key), Some(false));
        let solves = oracle.stats().solver_invocations;
        assert!(!oracle.satisfies_oracle(&parse_spec(BAD).unwrap()).unwrap());
        assert_eq!(oracle.stats().solver_invocations, solves, "memo hit");
        // … and injection never overwrites an existing memo.
        oracle.inject_verdict(key, false);
        assert_eq!(oracle.probe_verdict(key), Some(true));
        // A disabled oracle ignores both sides.
        let disabled = Oracle::disabled();
        disabled.inject_verdict(key, true);
        assert_eq!(disabled.probe_verdict(key), None);
    }

    #[test]
    fn stats_absorb_and_hit_rate() {
        let mut total = OracleCacheStats::default();
        assert_eq!(total.hit_rate(), 0.0);
        total.absorb(&OracleCacheStats {
            hits: 3,
            misses: 1,
            solver_invocations: 1,
            errors: 0,
            evictions: 0,
            persist_hits: 2,
            collapsed: 0,
        });
        total.absorb(&OracleCacheStats {
            hits: 1,
            misses: 3,
            solver_invocations: 3,
            errors: 1,
            evictions: 2,
            persist_hits: 0,
            collapsed: 5,
        });
        assert_eq!(total.hits, 4);
        assert_eq!(total.misses, 4);
        assert_eq!(total.hit_rate(), 0.5);
        assert_eq!(total.errors, 1);
        assert_eq!(total.evictions, 2);
        assert_eq!(total.persist_hits, 2);
        assert_eq!(total.collapsed, 5);
    }

    /// A toy in-memory [`VerdictStore`] for unit tests.
    #[derive(Default)]
    struct MapStore {
        map: Mutex<HashMap<Fingerprint, bool>>,
        lookups: AtomicU64,
        records: AtomicU64,
    }

    impl VerdictStore for MapStore {
        fn lookup(&self, key: Fingerprint) -> Option<bool> {
            self.lookups.fetch_add(1, Ordering::Relaxed);
            self.map.lock().get(&key).copied()
        }

        fn record(&self, key: Fingerprint, verdict: bool) {
            self.records.fetch_add(1, Ordering::Relaxed);
            self.map.lock().insert(key, verdict);
        }
    }

    #[test]
    fn persist_tier_serves_a_warm_boot() {
        let store = Arc::new(MapStore::default());
        // First process life: solve, which feeds the store.
        let first = Oracle::new();
        first.attach_persist(store.clone());
        let spec = parse_spec(GOOD).unwrap();
        assert!(first.satisfies_oracle(&spec).unwrap());
        assert_eq!(store.records.load(Ordering::Relaxed), 1);
        assert_eq!(first.stats().persist_hits, 0, "a fresh solve is no hit");
        // Second process life: empty memo, warm store.
        let second = Oracle::new();
        second.attach_persist(store.clone());
        assert!(second.satisfies_oracle(&spec).unwrap());
        let stats = second.stats();
        assert_eq!(stats.persist_hits, 1);
        assert_eq!(stats.hits, 1, "persist hits count as cache hits");
        assert_eq!(stats.solver_invocations, 0, "no solve on a warm boot");
        // The warm verdict was memoized: the next query never touches disk.
        let lookups = store.lookups.load(Ordering::Relaxed);
        assert!(second.satisfies_oracle(&spec).unwrap());
        assert_eq!(store.lookups.load(Ordering::Relaxed), lookups);
        assert_eq!(second.stats().hits, 2);
    }

    #[test]
    fn persist_tier_ignored_on_disabled_oracle() {
        let store = Arc::new(MapStore::default());
        store.record(Oracle::fingerprint(&parse_spec(GOOD).unwrap()), true);
        let oracle = Oracle::disabled();
        oracle.attach_persist(store.clone());
        assert!(!oracle.persist_attached());
        let spec = parse_spec(GOOD).unwrap();
        assert!(oracle.satisfies_oracle(&spec).unwrap());
        assert_eq!(oracle.stats().persist_hits, 0);
        assert_eq!(oracle.stats().solver_invocations, 1, "solved afresh");
    }

    #[test]
    fn persist_tier_serves_the_cold_path_too() {
        let store = Arc::new(MapStore::default());
        let first = Oracle::new();
        first.disable_incremental();
        first.attach_persist(store.clone());
        let spec = parse_spec(GOOD).unwrap();
        assert!(first.satisfies_oracle(&spec).unwrap());
        assert_eq!(store.records.load(Ordering::Relaxed), 1);
        let second = Oracle::new();
        second.disable_incremental();
        second.attach_persist(store);
        assert!(second.satisfies_oracle(&spec).unwrap());
        let stats = second.stats();
        assert_eq!(stats.persist_hits, 1);
        assert_eq!(stats.solver_invocations, 0);
    }

    #[test]
    fn singleflight_collapses_concurrent_identical_solves() {
        use std::sync::Barrier;
        const THREADS: usize = 8;
        let oracle = Arc::new(Oracle::new());
        let spec = Arc::new(parse_spec(GOOD).unwrap());
        let barrier = Arc::new(Barrier::new(THREADS));
        let verdicts: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let oracle = oracle.clone();
                    let spec = spec.clone();
                    let barrier = barrier.clone();
                    s.spawn(move || {
                        barrier.wait();
                        oracle.satisfies_oracle(&spec).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(verdicts.iter().all(|&v| v), "identical verdicts");
        let stats = oracle.stats();
        assert_eq!(
            stats.solver_invocations, 1,
            "exactly one solve for {THREADS} concurrent identical queries"
        );
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits as usize, THREADS - 1, "everyone else hit");
        assert!(
            (stats.collapsed as usize) < THREADS,
            "collapsed bounded by the waiter count"
        );
    }

    #[test]
    fn unbounded_oracle_never_evicts() {
        let oracle = Oracle::new();
        assert_eq!(oracle.shard_capacity(), None);
        for src in [GOOD, BAD] {
            oracle.satisfies_oracle(&parse_spec(src).unwrap()).unwrap();
        }
        assert_eq!(oracle.stats().evictions, 0);
        assert_eq!(oracle.memoized_specs(), 2);
    }

    #[test]
    fn bounded_oracle_evicts_oldest_and_counts() {
        // Cap of 1 entry per shard: distinct specs hashing into the same
        // shard displace one another.
        let oracle = Oracle::bounded(1);
        assert_eq!(oracle.shard_capacity(), Some(1));
        // Generate enough distinct specs that at least two land in the same
        // shard (17 specs across 16 shards pigeonhole at least one pair).
        let specs: Vec<Spec> = (0..17)
            .map(|i| {
                parse_spec(&format!(
                    "sig A{i} {{}} pred p {{ some A{i} }} run p for 2 expect 1"
                ))
                .unwrap()
            })
            .collect();
        for spec in &specs {
            oracle.satisfies_oracle(spec).unwrap();
        }
        let stats = oracle.stats();
        assert!(
            stats.evictions > 0,
            "17 specs across 16 single-entry shards must evict"
        );
        assert!(oracle.memoized_specs() <= 16);
        // Evicted answers are recomputed, not wrong: re-asking stays correct.
        for spec in &specs {
            assert!(oracle.satisfies_oracle(spec).unwrap());
        }
    }

    #[test]
    fn cache_hit_span_replays_the_original_solver_stats() {
        // Process-global tracing: serialize against any other test that
        // toggles the collector, and filter drained spans by a cell id
        // nothing else uses.
        static TRACE_LOCK: Mutex<()> = Mutex::new(());
        let _guard = TRACE_LOCK.lock();
        const CELL: u64 = 0x5EED_CAFE_0001;

        let oracle = Oracle::new();
        let spec = parse_spec(GOOD).unwrap();
        specrepair_trace::set_enabled(true);
        {
            let _scope = specrepair_trace::cell_scope(CELL, 0, None);
            assert!(oracle.satisfies_oracle(&spec).unwrap());
            assert!(oracle.satisfies_oracle(&spec).unwrap());
        }
        specrepair_trace::set_enabled(false);
        let spans: Vec<_> = specrepair_trace::take_spans()
            .into_iter()
            .filter(|s| s.cell == CELL && s.name == "oracle.satisfies_incremental")
            .collect();
        assert_eq!(spans.len(), 2, "one miss, one hit");

        let hit_flag = |s: &specrepair_trace::SpanRecord| match s
            .attrs
            .iter()
            .find(|(k, _)| *k == "hit")
            .map(|(_, v)| v)
        {
            Some(specrepair_trace::AttrValue::Bool(b)) => *b,
            other => panic!("missing hit attr: {other:?}"),
        };
        let counter = |s: &specrepair_trace::SpanRecord, key: &str| match s
            .attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
        {
            Some(specrepair_trace::AttrValue::U64(n)) => *n,
            other => panic!("missing {key} attr: {other:?}"),
        };
        let miss = spans.iter().find(|s| !hit_flag(s)).expect("miss span");
        let hit = spans.iter().find(|s| hit_flag(s)).expect("hit span");
        assert!(counter(miss, "solves") >= 1, "the miss actually solved");
        for key in [
            "solves",
            "conflicts",
            "decisions",
            "propagations",
            "restarts",
            "learned_clauses",
        ] {
            assert_eq!(
                counter(hit, key),
                counter(miss, key),
                "hit must replay the original solve's {key}"
            );
        }
    }

    #[test]
    fn bounded_capacity_is_clamped_to_one() {
        let oracle = Oracle::bounded(0);
        assert_eq!(oracle.shard_capacity(), Some(1));
        let spec = parse_spec(GOOD).unwrap();
        oracle.satisfies_oracle(&spec).unwrap();
        // The single entry stays cached: the second query is a hit.
        oracle.satisfies_oracle(&spec).unwrap();
        assert_eq!(oracle.stats().hits, 1);
    }
}
