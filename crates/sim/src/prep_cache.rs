//! Workload preparation cache: prepare once, replay everywhere.
//!
//! Every figure driver sweeps many L1 configurations over the *same*
//! `(WorkloadSpec, Condition)` pair, yet preparation — buddy allocator
//! construction, the fragmentation preamble, and generating the full
//! instruction stream — used to be repeated for every single task, and
//! `speculation_profile` repeated it yet again. This module caches the
//! prepared state as an [`Arc<PreparedWorkload>`] keyed by a content
//! fingerprint of `(spec, condition)` (the same FNV-1a machinery the
//! checkpoint layer uses), so N configs × one workload prepare **once**.
//!
//! Two more pieces keep a sweep that outgrows the cache cheap:
//!
//! - **Shared fragmented base.** The Fragmented condition's shattered
//!   memory depends only on `(memory_bytes, seed)`, not on the benchmark,
//!   so the cache fragments it once (`runner::base_memory`) and every
//!   Fragmented miss clones that allocator instead of re-fragmenting.
//! - **Newest-idle eviction.** When an insert overflows the capacity, the
//!   victim is the most recently inserted *idle* entry other than the new
//!   one: one that only the map holds, so nobody is preparing it, waiting
//!   on it or replaying its workload. With no idle entry the oldest goes.
//!   A sweep that cycles through more workloads than the capacity then
//!   keeps its first `capacity − 1` resident instead of evicting each one
//!   just before its next use, as FIFO would. The sweep pool hands out
//!   tasks in index order, so a workload whose configurations are still
//!   being claimed is held by a running task and is not idle.
//!
//! Correctness rests on two facts:
//!
//! - preparation is deterministic in `(spec, cond)` — it seeds its own
//!   RNGs from `cond.seed` and never consults ambient state — so a cached
//!   entry is bit-identical to a fresh preparation, and
//! - the prepared state is immutable during replay — the address space is
//!   only read, the [`sipt_workloads::MaterializedTrace`] replays through
//!   cursors, and the translation stream is built once, by the first
//!   replay, as a function of those two alone — so sharing one copy
//!   across concurrent pool workers cannot change results.
//!
//! Cached and uncached runs therefore produce byte-identical scientific
//! payloads; only wall-clock differs. The disabled path prepares every
//! run from scratch, fragmentation included, and so stays an independent
//! oracle for the cached one. The cache is on by default; disable
//! it with `SIPT_PREP_CACHE=0` or the figure binaries' `--no-prep-cache`
//! flag (see [`set_enabled`]). Hit/miss counters feed the report's
//! `parallelism.prep_cache` block (schema v4).
//!
//! Concurrency: the map lock is held only to look up or insert a per-key
//! cell; preparation itself runs under the cell's own mutex, so workers
//! preparing *different* workloads proceed in parallel while workers
//! racing on the *same* workload block until the first finishes. A
//! panicking preparation poisons only its cell, which is recovered and
//! retried — one injected fault cannot wedge the cache.

use crate::checkpoint::fnv1a64;
use crate::error::SimError;
use crate::runner::{self, Condition, PreparedRun};
use sipt_mem::{AddressSpace, BuddyAllocator};
use sipt_telemetry::json::Json;
use sipt_telemetry::Span;
use sipt_tlb::{PageFault, TranslationStream};
use sipt_workloads::{MaterializedTrace, WorkloadSpec};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, TryLockError};

/// A fully prepared, immutable, replayable workload: the address space
/// (page table included) plus the materialized instruction stream
/// covering `warmup + instructions`, and its translation stream, built by
/// the first run that replays it.
#[derive(Debug)]
pub struct PreparedWorkload {
    /// The workload's address space (owns the page table); shared by
    /// every machine replaying this workload.
    pub asp: Arc<AddressSpace>,
    /// The drained, replayable trace.
    pub trace: MaterializedTrace,
    /// Built once, by the first replay, so its cost lands in that run's
    /// warmup and a preparation that is never replayed never builds one.
    pub(crate) translations: OnceLock<Result<TranslationStream, PageFault>>,
}

impl PreparedWorkload {
    pub(crate) fn new(asp: AddressSpace, trace: MaterializedTrace) -> Self {
        Self { asp: Arc::new(asp), trace, translations: OnceLock::new() }
    }

    /// The trace's page-change translation stream on a cold TLB, built on
    /// the first call (concurrent first callers wait for it) and shared
    /// by every later one.
    ///
    /// # Errors
    ///
    /// [`PageFault`] when the trace references unmapped memory.
    pub fn translations(&self) -> Result<&TranslationStream, PageFault> {
        self.translations
            .get_or_init(|| crate::block::cold_translations(&self.asp, &self.trace))
            .as_ref()
            .map_err(|fault| *fault)
    }
}

/// One prepared core of a multiprogrammed mix: the per-process workload,
/// plus the wall-clock cost of preparing it (attributed to the core's
/// `allocate` phase on every replay).
#[derive(Debug)]
pub struct PreparedMixCore {
    /// Benchmark name of the app on this core.
    pub app: String,
    /// The process's address space and trace.
    pub workload: PreparedWorkload,
    /// Wall-clock milliseconds spent allocating + generating this core's
    /// workload at preparation time.
    pub allocate_ms: f64,
}

/// A fully prepared quad-core mix. Mixes are cached as a unit — the four
/// processes allocate from *one shared* buddy allocator in program
/// order, so per-`(spec, cond)` sharing with single-core runs would be
/// wrong (the interleaving is the point).
#[derive(Debug)]
pub struct PreparedMix {
    /// Per-core prepared state, in mix order.
    pub cores: Vec<PreparedMixCore>,
}

type CacheResult = Result<Arc<PreparedWorkload>, SimError>;
/// One per-key slot: `None` until the first claimant finishes preparing.
type Cell = Arc<Mutex<Option<CacheResult>>>;
type MixCell = Arc<Mutex<Option<Arc<PreparedMix>>>>;
/// A fragmented base memory and its `(memory_bytes, seed)` key.
type FragmentedBase = ((u64, u64), Arc<BuddyAllocator>);

#[derive(Default)]
struct CacheState {
    map: HashMap<u64, Cell>,
    /// Keys in insertion order, oldest first.
    order: VecDeque<u64>,
}

impl CacheState {
    /// Evict one entry if the map is over `capacity`: the newest idle
    /// entry other than the just-inserted last one, else the oldest.
    fn evict_over(&mut self, capacity: usize) {
        if self.map.len() <= capacity {
            return;
        }
        let newest = self.order.len() - 1;
        let victim = (0..newest).rev().find(|&i| is_idle(&self.map[&self.order[i]])).unwrap_or(0);
        if let Some(key) = self.order.remove(victim) {
            self.map.remove(&key);
        }
    }
}

/// Whether only the map holds `cell`: nobody is preparing it or waiting
/// on it, and no run holds its prepared workload. Called under the map
/// lock, which every new holder of the cell needs, so the answer cannot
/// go stale before the eviction; `try_lock` keeps it from blocking there.
fn is_idle(cell: &Cell) -> bool {
    if Arc::strong_count(cell) > 1 {
        return false;
    }
    let slot = match cell.try_lock() {
        Ok(slot) => slot,
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => return false,
    };
    !matches!(slot.as_ref(), Some(Ok(prepared)) if Arc::strong_count(prepared) > 1)
}

/// One preparation cache: single-core entries, mix entries, their
/// hit/miss counters, a capacity with newest-idle eviction, the shared
/// fragmented base memory and an enable switch.
///
/// The figure binaries share the process-wide instance behind the free
/// functions of this module ([`get_or_prepare`], [`stats`], [`clear`],
/// [`set_enabled`]). A separate instance has its own entries and
/// counters, so work on it neither sees nor disturbs the process-wide
/// accounting.
pub struct PrepCache {
    singles: Mutex<CacheState>,
    mixes: Mutex<HashMap<u64, MixCell>>,
    /// The last fragmented base memory built; Fragmented misses with its
    /// key clone it.
    fragmented_base: Mutex<Option<FragmentedBase>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Maximum number of resident single-core entries; an insert beyond
    /// it evicts the newest idle entry (in-flight users keep their
    /// `Arc`s, so eviction never affects running tasks).
    capacity: usize,
    /// Enable state: 0 = follow `SIPT_PREP_CACHE`, 1 = forced on,
    /// 2 = forced off (the `--no-prep-cache` flag).
    mode: AtomicU8,
}

/// Capacity of the process-wide cache: `SIPT_PREP_CACHE_CAP`, default 64.
fn env_capacity() -> usize {
    match crate::env::parse_or_warn("SIPT_PREP_CACHE_CAP") {
        Some(0) => {
            eprintln!("warning: SIPT_PREP_CACHE_CAP=0 is not a usable capacity; using 64");
            64
        }
        Some(n) => n.min(usize::MAX as u64) as usize,
        None => 64,
    }
}

fn env_default() -> bool {
    static PARSED: OnceLock<bool> = OnceLock::new();
    *PARSED.get_or_init(|| match std::env::var("SIPT_PREP_CACHE") {
        Ok(v) => !matches!(v.trim(), "0" | "false" | "off" | "no"),
        Err(_) => true,
    })
}

/// The process-wide cache behind this module's free functions.
fn global() -> &'static PrepCache {
    static GLOBAL: OnceLock<PrepCache> = OnceLock::new();
    GLOBAL.get_or_init(|| PrepCache::new(env_capacity()))
}

/// Force the process-wide cache on or off for the rest of the process,
/// overriding `SIPT_PREP_CACHE`. The figure binaries' `--no-prep-cache`
/// flag calls `set_enabled(false)`.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Whether the process-wide cache is currently consulted.
pub fn enabled() -> bool {
    global().enabled()
}

/// Content fingerprint of a `(spec, cond)` pair — FNV-1a over the full
/// `Debug` rendering, like the checkpoint layer's request fingerprints.
pub fn fingerprint(spec: &WorkloadSpec, cond: &Condition) -> u64 {
    fnv1a64(format!("prep|{spec:?}|{cond:?}").as_bytes())
}

/// Prepare `(spec, cond)` from scratch: the disabled-cache path and the
/// tests' oracle.
fn prepare_fresh(spec: &WorkloadSpec, cond: &Condition) -> CacheResult {
    materialize(runner::try_prepare_run(spec, cond)?)
}

fn materialize(PreparedRun { asp, trace }: PreparedRun) -> CacheResult {
    Ok(Arc::new(PreparedWorkload::new(asp, MaterializedTrace::from_gen(trace))))
}

/// The prepared workload for `(spec, cond)` from the process-wide cache;
/// see [`PrepCache::get_or_prepare`].
///
/// # Errors
///
/// Propagates the preparation's [`SimError`].
pub fn get_or_prepare(spec: &WorkloadSpec, cond: &Condition) -> CacheResult {
    global().get_or_prepare(spec, cond)
}

/// The prepared mix for `(mix_name, cond)` from the process-wide cache;
/// see [`PrepCache::get_or_prepare_mix`]. Used by
/// [`crate::multicore::run_mix`].
pub(crate) fn get_or_prepare_mix(
    mix_name: &str,
    cond: &Condition,
    prepare: impl FnOnce() -> Arc<PreparedMix>,
) -> Arc<PreparedMix> {
    global().get_or_prepare_mix(mix_name, cond, prepare)
}

impl PrepCache {
    /// An empty cache holding at most `capacity` single-core entries
    /// (at least one). It follows `SIPT_PREP_CACHE` until
    /// [`PrepCache::set_enabled`] is called.
    pub fn new(capacity: usize) -> Self {
        Self {
            singles: Mutex::new(CacheState::default()),
            mixes: Mutex::new(HashMap::new()),
            fragmented_base: Mutex::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity: capacity.max(1),
            mode: AtomicU8::new(0),
        }
    }

    /// Force this cache on or off, overriding `SIPT_PREP_CACHE`.
    pub fn set_enabled(&self, on: bool) {
        self.mode.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    }

    /// Whether lookups currently consult this cache.
    pub fn enabled(&self) -> bool {
        match self.mode.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => env_default(),
        }
    }

    /// The prepared workload for `(spec, cond)`: cached when the cache is
    /// enabled, freshly prepared otherwise. Either way the returned state
    /// is bit-identical — the cache changes wall-clock only.
    ///
    /// # Errors
    ///
    /// Propagates the preparation's [`SimError`] (workload too large,
    /// audit violation). Failed preparations are cached too: every config
    /// of an impossible workload reports the same error without
    /// re-failing the expensive preparation.
    pub fn get_or_prepare(&self, spec: &WorkloadSpec, cond: &Condition) -> CacheResult {
        let mut span = Span::enter(format!("prep {}", spec.name), "prep_cache");
        if !self.enabled() {
            span.arg("outcome", Json::str("bypass"));
            return prepare_fresh(spec, cond);
        }
        let key = fingerprint(spec, cond);
        let cell = {
            let mut state = self.singles.lock().unwrap_or_else(PoisonError::into_inner);
            match state.map.get(&key) {
                Some(cell) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    span.arg("outcome", Json::str("hit"));
                    Arc::clone(cell)
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    span.arg("outcome", Json::str("miss"));
                    let cell: Cell = Arc::new(Mutex::new(None));
                    state.map.insert(key, Arc::clone(&cell));
                    state.order.push_back(key);
                    state.evict_over(self.capacity);
                    cell
                }
            }
        };
        // Prepare (or wait for the preparing worker) under the cell's own
        // lock. A poisoned cell means a previous claimant panicked before
        // publishing a result; recover the guard and retry the preparation.
        let mut slot = cell.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(result) = slot.as_ref() {
            return result.clone();
        }
        let result = self.prepare(spec, cond);
        *slot = Some(result.clone());
        result
    }

    /// A cache miss's preparation: as [`prepare_fresh`], but a Fragmented
    /// condition starts from a clone of the shared fragmented base.
    fn prepare(&self, spec: &WorkloadSpec, cond: &Condition) -> CacheResult {
        if !cond.fragmented {
            return prepare_fresh(spec, cond);
        }
        let key = (cond.memory_bytes, cond.seed);
        let base = {
            let mut memo = self.fragmented_base.lock().unwrap_or_else(PoisonError::into_inner);
            match memo.as_ref() {
                Some((k, base)) if *k == key => Arc::clone(base),
                _ => {
                    let base = Arc::new(runner::base_memory(spec, cond)?);
                    *memo = Some((key, Arc::clone(&base)));
                    base
                }
            }
        };
        materialize(runner::try_prepare_on(spec, cond, BuddyAllocator::clone(&base))?)
    }

    /// The prepared state of a whole mix, cached under
    /// `(mix_name, cond)`; `prepare` runs only on a miss (or whenever the
    /// cache is disabled).
    ///
    /// The closure-based shape keeps mix preparation (shared buddy
    /// allocator, per-process traces) in the multicore module while the
    /// caching/concurrency policy lives here, shared with the single-core
    /// path.
    pub(crate) fn get_or_prepare_mix(
        &self,
        mix_name: &str,
        cond: &Condition,
        prepare: impl FnOnce() -> Arc<PreparedMix>,
    ) -> Arc<PreparedMix> {
        if !self.enabled() {
            return prepare();
        }
        let key = fnv1a64(format!("mix|{mix_name}|{cond:?}").as_bytes());
        let cell = {
            let mut map = self.mixes.lock().unwrap_or_else(PoisonError::into_inner);
            match map.get(&key) {
                Some(cell) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Arc::clone(cell)
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let cell: MixCell = Arc::new(Mutex::new(None));
                    map.insert(key, Arc::clone(&cell));
                    cell
                }
            }
        };
        let mut slot = cell.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(mix) = slot.as_ref() {
            return Arc::clone(mix);
        }
        let mix = prepare();
        *slot = Some(Arc::clone(&mix));
        mix
    }

    /// Snapshot this cache's counters. `entries` counts single-core *and*
    /// mix entries.
    pub fn stats(&self) -> PrepCacheStats {
        let singles = self.singles.lock().unwrap_or_else(PoisonError::into_inner).map.len();
        let mixes = self.mixes.lock().unwrap_or_else(PoisonError::into_inner).len();
        PrepCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: singles + mixes,
            enabled: self.enabled(),
        }
    }

    /// The `prep_cache` object of the report's `parallelism` block
    /// (schema v4).
    pub fn stats_json(&self) -> Json {
        let s = self.stats();
        Json::obj([
            ("enabled", Json::Bool(s.enabled)),
            ("hits", Json::u64(s.hits)),
            ("misses", Json::u64(s.misses)),
            ("entries", Json::u64(s.entries as u64)),
        ])
    }

    /// Drop all entries and the shared fragmented base, and zero the
    /// counters.
    pub fn clear(&self) {
        *self.singles.lock().unwrap_or_else(PoisonError::into_inner) = CacheState::default();
        self.mixes.lock().unwrap_or_else(PoisonError::into_inner).clear();
        *self.fragmented_base.lock().unwrap_or_else(PoisonError::into_inner) = None;
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// Counter snapshot for reports and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepCacheStats {
    /// Lookups that found an existing entry (including one still being
    /// prepared by another worker).
    pub hits: u64,
    /// Lookups that created a new entry, each one preparation. A workload
    /// evicted and looked up again misses again, so once a sweep
    /// outgrows the capacity this exceeds the distinct workloads.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Whether lookups currently consult the cache.
    pub enabled: bool,
}

/// Snapshot the process-wide cache's counters.
pub fn stats() -> PrepCacheStats {
    global().stats()
}

/// The `prep_cache` object of the report's `parallelism` block
/// (schema v4), for the process-wide cache.
pub fn stats_json() -> Json {
    global().stats_json()
}

/// Drop all entries and the shared fragmented base of the process-wide
/// cache and zero its counters (tests and long-lived drivers that want
/// isolated accounting).
pub fn clear() {
    global().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke_benchmarks;
    use sipt_mem::Mapping;
    use sipt_workloads::benchmark;

    /// A fresh, enabled cache of the default capacity. Each test owns its
    /// instance, so other tests in the process that prepare workloads
    /// through the process-wide cache cannot disturb its counters.
    fn fresh_cache() -> PrepCache {
        let cache = PrepCache::new(64);
        cache.set_enabled(true);
        cache
    }

    #[test]
    fn second_lookup_hits_and_shares_the_arc() {
        let cache = fresh_cache();
        let spec = benchmark("sjeng").unwrap();
        let cond = Condition::quick();
        let a = cache.get_or_prepare(&spec, &cond).unwrap();
        let b = cache.get_or_prepare(&spec, &cond).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the prepared state");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn cached_state_is_bit_identical_to_fresh_preparation() {
        let cache = fresh_cache();
        let spec = benchmark("mcf").unwrap();
        let cond = Condition::quick();
        let cached = cache.get_or_prepare(&spec, &cond).unwrap();
        let fresh = prepare_fresh(&spec, &cond).unwrap();
        assert_eq!(cached.trace, fresh.trace);
        let c: Vec<_> = cached.trace.cursor().collect();
        let f: Vec<_> = fresh.trace.cursor().collect();
        assert_eq!(c, f);
    }

    #[test]
    fn distinct_conditions_are_distinct_entries() {
        let cache = fresh_cache();
        let spec = benchmark("sjeng").unwrap();
        let a = Condition::quick();
        let b = Condition { seed: 43, ..a };
        assert_ne!(fingerprint(&spec, &a), fingerprint(&spec, &b));
        let _ = cache.get_or_prepare(&spec, &a).unwrap();
        let _ = cache.get_or_prepare(&spec, &b).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn disabled_cache_prepares_fresh_and_counts_nothing() {
        let cache = fresh_cache();
        cache.set_enabled(false);
        let spec = benchmark("sjeng").unwrap();
        let cond = Condition::quick();
        let a = cache.get_or_prepare(&spec, &cond).unwrap();
        let b = cache.get_or_prepare(&spec, &cond).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
        assert!(!s.enabled);
    }

    #[test]
    fn failed_preparation_is_cached() {
        let cache = fresh_cache();
        let spec = benchmark("mcf").unwrap(); // 1.7 GiB footprint
        let cond = Condition { memory_bytes: 1 << 20, ..Condition::quick() };
        let a = cache.get_or_prepare(&spec, &cond).unwrap_err();
        let b = cache.get_or_prepare(&spec, &cond).unwrap_err();
        assert_eq!(a, b);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn concurrent_lookups_prepare_once() {
        let cache = fresh_cache();
        let spec = benchmark("gcc").unwrap();
        let cond = Condition::quick();
        let prepared: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| cache.get_or_prepare(&spec, &cond).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for p in &prepared[1..] {
            assert!(Arc::ptr_eq(&prepared[0], p));
        }
        let s = cache.stats();
        assert_eq!(s.misses, 1, "one preparation for eight workers");
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn fifo_eviction_bounds_entries() {
        let cache = fresh_cache();
        // Capacity 64: insert 65 distinct keys and watch the count
        // stay bounded.
        let spec = benchmark("sjeng").unwrap();
        for seed in 0..65u64 {
            let cond = Condition { seed, instructions: 50, warmup: 10, ..Condition::quick() };
            let _ = cache.get_or_prepare(&spec, &cond).unwrap();
        }
        assert!(cache.stats().entries <= 64, "entries = {}", cache.stats().entries);
        assert_eq!(cache.stats().misses, 65);
    }

    /// Every page-table mapping of `prepared`, sorted by VPN.
    fn mappings(prepared: &PreparedWorkload) -> Vec<(u64, Mapping)> {
        let mut out: Vec<_> =
            prepared.asp.page_table().iter().map(|(vpn, m)| (vpn.raw(), m)).collect();
        out.sort_unstable_by_key(|&(vpn, _)| vpn);
        out
    }

    /// `prepared` has the same trace and page table as `fresh`.
    fn assert_same_preparation(prepared: &PreparedWorkload, fresh: &PreparedWorkload) {
        assert_eq!(prepared.trace, fresh.trace);
        assert_eq!(mappings(prepared), mappings(fresh));
    }

    #[test]
    fn fragmented_preparations_from_the_shared_base_match_fresh() {
        let cache = fresh_cache();
        let cond = Condition { fragmented: true, memory_bytes: 2 << 30, ..Condition::quick() };
        let names = smoke_benchmarks();
        let prepare_and_check = |name: &str, cond: Condition| {
            let spec = benchmark(name).unwrap();
            let cached = cache.get_or_prepare(&spec, &cond).unwrap();
            assert_same_preparation(&cached, &prepare_fresh(&spec, &cond).unwrap());
        };
        let base_key = || cache.fragmented_base.lock().unwrap().as_ref().map(|(key, _)| *key);
        prepare_and_check(names[0], cond);
        prepare_and_check(names[1], cond);
        assert_eq!(base_key(), Some((cond.memory_bytes, cond.seed)));
        // Another seed shatters memory differently: the base is rebuilt.
        let reseeded = Condition { seed: cond.seed + 1, ..cond };
        prepare_and_check(names[0], reseeded);
        assert_eq!(base_key(), Some((cond.memory_bytes, reseeded.seed)));
        cache.clear();
        assert_eq!(base_key(), None, "clear drops the base");
        prepare_and_check(names[2], cond);
    }

    /// Quick sjeng conditions with distinct seeds and a tiny window.
    fn tiny_pairs(n: u64) -> Vec<(WorkloadSpec, Condition)> {
        let spec = benchmark("sjeng").unwrap();
        (0..n)
            .map(|seed| {
                (spec, Condition { seed, instructions: 50, warmup: 10, ..Condition::quick() })
            })
            .collect()
    }

    #[test]
    fn newest_idle_eviction_keeps_a_cyclic_sweep_resident() {
        let cache = PrepCache::new(4);
        cache.set_enabled(true);
        let pairs = tiny_pairs(6);
        for _sweep in 0..2 {
            for (spec, cond) in &pairs {
                for _ in 0..3 {
                    let _ = cache.get_or_prepare(spec, cond).unwrap();
                    assert!(cache.stats().entries <= 4, "entries = {}", cache.stats().entries);
                }
            }
        }
        // Pairs 0–2 stay resident; pairs 3–5 take turns in the last slot.
        // FIFO would evict every pair before its second sweep: 12 misses.
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (9, 27));
    }

    #[test]
    fn an_entry_in_use_is_not_evicted() {
        let cache = PrepCache::new(4);
        cache.set_enabled(true);
        let pairs = tiny_pairs(5);
        for (spec, cond) in &pairs[..3] {
            let _ = cache.get_or_prepare(spec, cond).unwrap();
        }
        let (spec, cond) = &pairs[3];
        let held = cache.get_or_prepare(spec, cond).unwrap();
        let _ = cache.get_or_prepare(&pairs[4].0, &pairs[4].1).unwrap();
        let again = cache.get_or_prepare(spec, cond).unwrap();
        assert!(Arc::ptr_eq(&held, &again), "the held entry must stay resident");
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (5, 1, 4));
    }

    #[test]
    fn parallel_cyclic_lookups_match_fresh_and_stay_bounded() {
        let cache = PrepCache::new(4);
        cache.set_enabled(true);
        let pairs = tiny_pairs(6);
        let fresh: Vec<_> = pairs.iter().map(|(s, c)| prepare_fresh(s, c).unwrap()).collect();
        // Six pairs, three lookups each, swept twice, claimed in order
        // by four workers like the sweep pool's tasks.
        let requests: Vec<usize> = (0..2).flat_map(|_| (0..6).flat_map(|p| [p; 3])).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    while let Some(&p) = requests.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (spec, cond) = &pairs[p];
                        let prepared = cache.get_or_prepare(spec, cond).unwrap();
                        assert!(cache.stats().entries <= 4, "entries = {}", cache.stats().entries);
                        assert_same_preparation(&prepared, &fresh[p]);
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, requests.len() as u64);
        assert!(s.entries <= 4);
    }

    #[test]
    fn stats_json_shape() {
        let cache = fresh_cache();
        let rendered = cache.stats_json().render();
        for field in ["\"enabled\"", "\"hits\"", "\"misses\"", "\"entries\""] {
            assert!(rendered.contains(field), "{rendered}");
        }
    }
}
