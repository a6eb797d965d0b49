//! The server-side **query-execution layer**: parallel ranked search over any
//! [`IndexStore`], with an optional per-shard result cache.
//!
//! [`SearchEngine`] executes the paper's oblivious matching (Eq. 3 + Algorithm 1)
//! shard-by-shard, scanning shards on parallel lanes (a persistent worker pool plus
//! the calling thread) when the store has more than one. Semantics are **bit-for-bit
//! identical** to the sequential reference scan ([`crate::search::CloudIndex`]):
//!
//! * per-shard scans sweep the store's block-major [`crate::scanplane::ScanPlane`]
//!   (every [`IndexStore`] maintains one per shard) — contiguous, query-pruned
//!   columns instead of per-document pointer chasing — producing the same
//!   matches, scan order and [`SearchStats`] as [`crate::search::scan_ranked`]
//!   (r-bit comparison counts are unchanged: block pruning happens *inside* one
//!   r-bit comparison);
//! * merged ranked results are sorted by descending rank, ties broken by ascending
//!   document id — a total order, so the merged list is unique and equals the
//!   sequential sort;
//! * merged unranked results and metadata are re-ordered by insertion ordinal,
//!   reproducing the sequential "storage order" exactly;
//! * merged [`SearchStats`] are the field-wise sums of per-shard stats, which equal
//!   the sequential counts.
//!
//! ## Scheduling: work-stealing over chunk ranges
//!
//! Parallelism is a property of the **executor**, not the data layout. Every
//! scan is cut into work units — each a chunk range of one shard's scan plane
//! — that are dealt contiguously onto the engine's scan lanes; a lane that
//! drains its own deal **steals** units from the tail of another lane's. With
//! more than one lane, ranked scans split every shard into
//! [`SearchEngine::steal_granularity`]-chunk units ([`crate::scanplane::CHUNK`]
//! documents per chunk), so an oversharded store (more shards than lanes)
//! degrades to the balanced schedule instead of serializing whole shards
//! behind one lane, and a host with more lanes than shards splits single
//! shards across lanes instead of idling. With one lane — nobody to steal
//! from — and for unranked/metadata scans, a unit is a whole shard, which
//! skips the per-range setup (active-block lists, result buffers). Stitching
//! is deterministic: every unit writes into its pre-assigned result slot, a
//! shard's unit results concatenate in chunk (slot) order and its stats sum, so
//! replies, [`SearchStats`] and cache traffic are byte-identical to sequential
//! execution no matter which lane ran which unit. The cache never sees units:
//! lookups and admissions happen per whole shard, on the stitched results.
//!
//! Every ranked search — a single query is a batch of one — runs through one
//! body that evaluates many queries per shard-scan pass: each unit receives its
//! shard's whole (cache-missed, intra-batch-deduplicated) query set and makes
//! **one fused pass** over its chunk range
//! ([`crate::scanplane::ScanPlane::scan_ranked_batch_chunks`]), so a b-query
//! round trip ([`SearchEngine::search_batch_with_stats`]) streams each arena
//! once instead of b times *and* pays the lane fan-out once instead of once per
//! query. Queries with identical
//! [`QueryFingerprint`]s inside one batch are scanned once and fanned out to every
//! duplicate position; with the cache enabled the duplicates are resolved through
//! real cache lookups against what the first occurrence admitted — exactly the
//! hits sequential execution would produce, counted in the same
//! [`CacheEffect`]/[`CacheStats`] counters.
//!
//! ## The result cache
//!
//! With [`SearchEngine::enable_cache`] (or [`SearchEngine::with_result_cache`]) the
//! engine memoizes **per-shard scan results** in a [`ResultCache`], keyed by a
//! [`crate::cache::QueryFingerprint`] of the query bits. On a repeated query the
//! shard scan is skipped entirely for every shard that hits; missed shards are
//! scanned (in parallel, as usual) and admitted. Cached and uncached execution are
//! byte-identical — cached entries hold exactly what the scan returned, including
//! the per-shard [`SearchStats`], and flow through the same merge — so enabling the
//! cache changes wall-clock time and *actual* comparisons performed, never results.
//! Inserts bump only the written shard's generation (see [`crate::cache`]);
//! [`SearchEngine::store_mut`] and [`SearchEngine::restore_snapshot`] conservatively
//! invalidate every shard, so no stale entry survives a reload.

use crate::bitindex::BitIndex;
use crate::cache::{
    CacheConfig, CacheEffect, CacheStats, QueryFingerprint, RankingMode, ResultCache,
};
use crate::document_index::RankedDocumentIndex;
use crate::params::SystemParams;
use crate::persistence::PersistenceError;
use crate::query::QueryIndex;
use crate::search::{sort_matches, SearchMatch, SearchStats};
use crate::storage::{IndexStore, ShardedStore, StoreError, VecStore};
use crate::telemetry::{
    Counter, Gauge, LaneStats, MetricsSnapshot, Stage, Telemetry, TelemetryLevel,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

mod pool;
use pool::{StealDeques, WorkerPool};

/// One shard's ranked-scan output: scan-order matches plus the shard's stats —
/// exactly what [`crate::search::scan_ranked`] returns and what the cache
/// memoizes.
type ShardScan = (Vec<SearchMatch>, SearchStats);

/// Default chunks per work unit: 8 × [`crate::scanplane::CHUNK`] = 8192
/// documents — a few tens of microseconds of sweeping, coarse enough that
/// deque traffic is noise yet fine enough to balance shards across lanes.
const DEFAULT_STEAL_GRANULARITY: usize = 8;

/// The chunk range of a shard that is not split into smaller units: the
/// plane's chunk-range scans clamp it to the plane's grid.
const WHOLE_PLANE: std::ops::Range<usize> = 0..usize::MAX;

/// One work unit of the executor: a chunk range of one selected shard's plane.
/// `pos` indexes the *selection* (result slot), not the store.
struct ChunkUnit {
    pos: usize,
    shard: usize,
    chunks: std::ops::Range<usize>,
}

/// Run `scan` on behalf of `shard`, re-raising any panic with the shard named —
/// the context a scan panic carries before it crosses the pool boundary.
fn in_shard<T>(shard: usize, scan: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(scan)) {
        Ok(value) => value,
        Err(payload) => {
            let message = pool::panic_message(payload.as_ref());
            resume_unwind(Box::new(format!("shard {shard}: {message}")));
        }
    }
}

/// A pluggable, shard-parallel search engine over an [`IndexStore`].
///
/// Multi-shard engines keep a persistent worker pool (one parked thread per
/// scan lane, capped at the host's parallelism) for their whole lifetime: spawning
/// threads per query would cost more than scanning a 10⁴-document shard on some
/// hosts. Single-shard engines scan inline and carry no pool.
#[derive(Debug)]
pub struct SearchEngine<S: IndexStore> {
    store: S,
    pool: Option<WorkerPool>,
    /// Scan lanes (pool workers + the calling thread). Always `1..=cores`;
    /// `pool` is `Some` iff `lanes > 1`.
    lanes: usize,
    /// Chunks per work-stealing unit (≥ 1).
    steal_granularity: usize,
    /// The optional per-shard result cache. Interior mutability because searches
    /// take `&self` (and must be able to run concurrently from many sessions);
    /// all cache access happens on the calling thread, never inside scan jobs.
    cache: Option<Mutex<ResultCache>>,
    /// The lock-free metrics registry (see [`crate::telemetry`]). Observation
    /// only: nothing in the search path reads it back, so replies, stats and
    /// cache counters are byte-identical at every [`TelemetryLevel`].
    telemetry: Telemetry,
}

impl<S: IndexStore + Clone> Clone for SearchEngine<S> {
    fn clone(&self) -> Self {
        let mut engine = SearchEngine::new(self.store.clone());
        engine.set_scan_lanes(self.lanes);
        engine.steal_granularity = self.steal_granularity;
        // The clone keeps the cache *configuration* but starts with an empty
        // cache: entries are cheap to recompute and a fresh engine should not
        // carry another engine's LRU history.
        if let Some(cache) = &self.cache {
            engine.enable_cache(cache.lock().unwrap().config());
        }
        // The clone keeps the telemetry *level* but gets a fresh registry:
        // recorded values describe the original engine's traffic, not the
        // clone's.
        engine.telemetry.set_level(self.telemetry.level());
        engine
    }
}

impl<S: IndexStore + Default> Default for SearchEngine<S> {
    fn default() -> Self {
        SearchEngine::new(S::default())
    }
}

impl SearchEngine<VecStore> {
    /// A sequential engine over a fresh single-shard store.
    pub fn sequential(params: SystemParams) -> Self {
        SearchEngine::new(VecStore::new(params))
    }
}

impl SearchEngine<ShardedStore> {
    /// A parallel engine over a fresh round-robin store with `num_shards` shards.
    pub fn sharded(params: SystemParams, num_shards: usize) -> Self {
        SearchEngine::new(ShardedStore::new(params, num_shards))
    }
}

impl<S: IndexStore> SearchEngine<S> {
    /// Run queries on an existing store. The engine starts with one scan lane
    /// per host core (pool workers plus the calling thread, which always takes
    /// one lane) — *not* per shard: the work-stealing scheduler splits shards
    /// into chunk-range units, so even a single-shard store fills every lane,
    /// and more busy threads than cores would only add scheduler thrash to a
    /// CPU-bound scan. Use [`SearchEngine::with_scan_lanes`] to pin a count.
    ///
    /// The result cache starts disabled; see [`SearchEngine::enable_cache`].
    pub fn new(store: S) -> Self {
        let mut engine = SearchEngine {
            store,
            pool: None,
            lanes: 1,
            steal_granularity: DEFAULT_STEAL_GRANULARITY,
            cache: None,
            telemetry: Telemetry::new(),
        };
        engine.set_scan_lanes(usize::MAX);
        engine
    }

    /// Builder-style [`SearchEngine::set_scan_lanes`].
    pub fn with_scan_lanes(mut self, lanes: usize) -> Self {
        self.set_scan_lanes(lanes);
        self
    }

    /// Set the number of parallel scan lanes at runtime, clamped to
    /// `1..=available_parallelism` (lanes beyond the host's cores only thrash a
    /// CPU-bound scan; the bench sweep and multi-node deployments pin explicit
    /// counts with this). Rebuilds the persistent worker pool when the count
    /// actually changes; results are identical at any lane count.
    pub fn set_scan_lanes(&mut self, lanes: usize) {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let lanes = lanes.clamp(1, cores);
        if lanes == self.lanes && self.pool.is_some() == (lanes > 1) {
            return;
        }
        self.pool = (lanes > 1).then(|| WorkerPool::new(lanes - 1));
        self.lanes = lanes;
        self.telemetry.set_gauge(Gauge::ScanLanes, lanes as u64);
    }

    /// Builder-style [`SearchEngine::set_telemetry_level`].
    pub fn with_telemetry_level(self, level: TelemetryLevel) -> Self {
        self.set_telemetry_level(level);
        self
    }

    /// Set how much the engine's telemetry registry records (default
    /// [`TelemetryLevel::Off`]). Takes `&self`: the level is an atomic on the
    /// shared registry, so sessions can toggle telemetry on a live engine.
    /// Telemetry is **invisible** to execution — replies, [`SearchStats`] and
    /// cache counters are byte-identical at every level.
    pub fn set_telemetry_level(&self, level: TelemetryLevel) {
        self.telemetry.set_level(level);
    }

    /// Current telemetry recording level.
    pub fn telemetry_level(&self) -> TelemetryLevel {
        self.telemetry.level()
    }

    /// The engine's telemetry registry handle (cheap to clone; shared).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Snapshot the telemetry registry, refreshing the store gauges first so a
    /// report always carries current geometry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.telemetry
            .set_gauge(Gauge::ScanLanes, self.lanes as u64);
        self.telemetry
            .set_gauge(Gauge::StoreDocuments, self.store.len() as u64);
        self.telemetry
            .set_gauge(Gauge::StoreShards, self.store.num_shards() as u64);
        if let Some(cache) = &self.cache {
            self.telemetry
                .set_gauge(Gauge::CacheEntries, cache.lock().unwrap().len() as u64);
        }
        self.telemetry.snapshot()
    }

    /// Builder-style [`SearchEngine::set_steal_granularity`].
    pub fn with_steal_granularity(mut self, chunks: usize) -> Self {
        self.set_steal_granularity(chunks);
        self
    }

    /// Set the work-stealing unit size in plane chunks (clamped to ≥ 1;
    /// [`crate::scanplane::CHUNK`] documents per chunk). Smaller units balance
    /// better, larger units amortize deque traffic; results are identical at
    /// any granularity.
    pub fn set_steal_granularity(&mut self, chunks: usize) {
        self.steal_granularity = chunks.max(1);
    }

    /// Chunks per work-stealing unit.
    pub fn steal_granularity(&self) -> usize {
        self.steal_granularity
    }

    /// Builder-style cache enablement: `SearchEngine::sharded(p, 4).with_result_cache(cfg)`.
    pub fn with_result_cache(mut self, config: CacheConfig) -> Self {
        self.enable_cache(config);
        self
    }

    /// Enable (or reconfigure) the per-shard result cache. Existing entries, if
    /// any, are discarded.
    pub fn enable_cache(&mut self, config: CacheConfig) {
        self.cache = Some(Mutex::new(ResultCache::new(
            self.store.num_shards(),
            config,
        )));
    }

    /// Disable the result cache, dropping every entry.
    pub fn disable_cache(&mut self) {
        self.cache = None;
    }

    /// True if the result cache is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Cache effectiveness counters, or `None` when the cache is disabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.lock().unwrap().stats())
    }

    /// Zero the cache effectiveness counters (no-op when disabled).
    pub fn reset_cache_stats(&self) {
        if let Some(cache) = &self.cache {
            cache.lock().unwrap().reset_stats();
        }
    }

    /// Drop every cached entry (no-op when disabled).
    pub fn clear_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.lock().unwrap().clear();
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the underlying store.
    ///
    /// The engine cannot observe what a caller does through this reference, so it
    /// conservatively bumps **every** shard's cache generation — any cached result
    /// might describe a superseded store state afterwards. Prefer
    /// [`SearchEngine::insert`] (which invalidates only the written shard) for
    /// uploads.
    pub fn store_mut(&mut self) -> &mut S {
        if let Some(cache) = &self.cache {
            cache.lock().unwrap().invalidate_all();
            self.telemetry
                .record_cache_invalidation_all(self.store.num_shards());
        }
        &mut self.store
    }

    /// Consume the engine, returning the store.
    pub fn into_store(self) -> S {
        self.store
    }

    /// The store's parameters.
    pub fn params(&self) -> &SystemParams {
        self.store.params()
    }

    /// Number of stored documents (σ).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Upload one document index. With the cache enabled, only the shard the
    /// document landed in is invalidated; cached scans of every other shard stay
    /// live.
    pub fn insert(&mut self, index: RankedDocumentIndex) -> Result<(), StoreError> {
        let document_id = index.document_id;
        self.store.insert(index)?;
        self.telemetry.add(Counter::Inserts, 1);
        if let Some(cache) = &self.cache {
            let mut cache = cache.lock().unwrap();
            match self.store.shard_of(document_id) {
                Some(shard) => {
                    cache.note_insert(shard);
                    self.telemetry.record_cache_invalidation(shard);
                }
                // A store that cannot name the shard gets the conservative
                // treatment: every shard's generation moves.
                None => {
                    cache.invalidate_all();
                    self.telemetry
                        .record_cache_invalidation_all(self.store.num_shards());
                }
            }
        }
        Ok(())
    }

    /// Upload many document indices, stopping at the first invalid one.
    pub fn insert_all<I: IntoIterator<Item = RankedDocumentIndex>>(
        &mut self,
        indices: I,
    ) -> Result<(), StoreError> {
        for idx in indices {
            self.insert(idx)?;
        }
        Ok(())
    }

    /// Snapshot the store into the versioned binary format of
    /// [`crate::persistence`]. The cache is **never** part of a snapshot: it is
    /// derived state, rebuilt on demand.
    pub fn snapshot(&self) -> Vec<u8> {
        crate::persistence::serialize_index_store(&self.store)
    }

    /// Restore a snapshot produced by [`SearchEngine::snapshot`] (or
    /// [`crate::persistence::serialize_index_store`]), appending the decoded
    /// indices in their original insertion order. Every cache generation is bumped
    /// afterwards, so entries cached before the restore can never be served again.
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<usize, PersistenceError> {
        let count = crate::persistence::deserialize_into(&mut self.store, bytes)?;
        if let Some(cache) = &self.cache {
            cache.lock().unwrap().invalidate_all();
            self.telemetry
                .record_cache_invalidation_all(self.store.num_shards());
        }
        Ok(count)
    }

    /// The stored index of one document (O(1) on map-backed stores).
    pub fn document_index(&self, document_id: u64) -> Option<&RankedDocumentIndex> {
        self.store.document_index(document_id)
    }

    /// Carve the selected shards' planes into work units, in selection order
    /// with ascending ranges (= slot order within each shard). With `split` and
    /// more than one lane, each shard becomes `steal_granularity`-chunk ranges
    /// (an empty plane yields none); otherwise each shard is one
    /// [`WHOLE_PLANE`] unit — with nobody to steal from, splitting buys nothing
    /// and costs per-range setup.
    fn units(&self, shard_ids: &[usize], split: bool) -> Vec<ChunkUnit> {
        let split = split && self.pool.is_some();
        let mut units = Vec::new();
        for (pos, &shard) in shard_ids.iter().enumerate() {
            if !split {
                units.push(ChunkUnit {
                    pos,
                    shard,
                    chunks: WHOLE_PLANE,
                });
                continue;
            }
            let chunks = in_shard(shard, || self.store.scan_plane(shard).num_chunks());
            let mut lo = 0;
            while lo < chunks {
                let hi = (lo + self.steal_granularity).min(chunks);
                units.push(ChunkUnit {
                    pos,
                    shard,
                    chunks: lo..hi,
                });
                lo = hi;
            }
        }
        units
    }

    /// The engine's one executor: run `scan(unit)` for every unit. Units are
    /// dealt contiguously onto the lanes' deques, each lane drains its own deal
    /// head-first and then steals from other lanes' tails, and every unit's
    /// result lands in its own slot — so the returned vector is in unit order
    /// regardless of which lane ran what. Runs inline (in unit order) with one
    /// lane or one unit. Each unit is timed as a [`Stage::UnitScan`] span, and
    /// a panicking unit is re-raised with its shard named (the pool adds the
    /// failing lane's job index).
    fn run_units<T, F>(&self, units: &[ChunkUnit], scan: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&ChunkUnit) -> T + Sync,
    {
        // Capture the span gate once per execution: `Instant::now` inside the
        // unit closure runs on worker lanes, so the drop-guard `Telemetry::span`
        // (which borrows `&self`) is replaced by an explicit timed pair here.
        let time_units = self.telemetry.level().spans_enabled();
        let run = |u: usize| {
            let unit = &units[u];
            let started = time_units.then(Instant::now);
            let value = in_shard(unit.shard, || scan(unit));
            if let Some(started) = started {
                let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.telemetry.record_duration(Stage::UnitScan, ns);
            }
            value
        };
        let total = units.len();
        let lanes = match &self.pool {
            Some(pool) => (pool.workers() + 1).min(total),
            None => 1,
        };
        if lanes <= 1 {
            let out: Vec<T> = (0..total).map(run).collect();
            if total > 0 {
                self.telemetry.record_lane(
                    0,
                    &LaneStats {
                        executed: total as u64,
                        ..LaneStats::default()
                    },
                );
            }
            return out;
        }
        let deques = StealDeques::new(total, lanes);
        let mut lane_results: Vec<Vec<(usize, T)>> = (0..lanes).map(|_| Vec::new()).collect();
        {
            let (deques, run, telemetry) = (&deques, &run, &self.telemetry);
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = lane_results
                .iter_mut()
                .enumerate()
                .map(|(lane, out)| {
                    Box::new(move || {
                        // Scheduler stats accumulate in lane-local plain
                        // integers and flush once after the drain: the claim
                        // loop stays free of shared-cacheline traffic.
                        let mut stats = LaneStats::default();
                        while let Some(unit) = deques.next_tracked(lane, &mut stats) {
                            out.push((unit, run(unit)));
                        }
                        telemetry.record_lane(lane, &stats);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            self.pool
                .as_ref()
                .expect("multi-lane run_units implies a pool")
                .run_scoped(jobs);
        }
        let mut results: Vec<Option<T>> = (0..total).map(|_| None).collect();
        for (unit, value) in lane_results.into_iter().flatten() {
            results[unit] = Some(value);
        }
        results
            .into_iter()
            .map(|r| r.expect("every unit claimed exactly once"))
            .collect()
    }

    /// The ranked scan of every execution: scan each selected shard for its
    /// query subset (`subsets[pos]` belongs to `shard_ids[pos]`) in one fused
    /// plane pass per unit, and stitch the unit results back into per-shard
    /// rows aligned with each subset: within a shard, unit results concatenate
    /// in chunk (slot) order and stats sum — byte-identical to one whole-shard
    /// scan per selected shard. A shard with no units (an empty plane) yields
    /// the whole-shard scan's empty result.
    fn scan_selected_shards(
        &self,
        shard_ids: &[usize],
        subsets: &[Vec<&QueryIndex>],
    ) -> Vec<Vec<ShardScan>> {
        debug_assert_eq!(shard_ids.len(), subsets.len());
        let units = self.units(shard_ids, true);
        let unit_scans = self.run_units(&units, |unit| {
            let bits: Vec<&BitIndex> = subsets[unit.pos].iter().map(|q| q.bits()).collect();
            self.store
                .scan_plane(unit.shard)
                .scan_ranked_batch_chunks(&bits, unit.chunks.clone())
        });
        let mut out: Vec<Vec<ShardScan>> = subsets
            .iter()
            .map(|subset| vec![(Vec::new(), SearchStats::default()); subset.len()])
            .collect();
        for (unit, scans) in units.iter().zip(unit_scans) {
            for ((matches, stats), (row_matches, row_stats)) in
                scans.into_iter().zip(&mut out[unit.pos])
            {
                row_matches.extend(matches);
                row_stats.merge(&stats);
            }
        }
        out
    }

    /// Number of parallel scan lanes this engine fans out to: persistent pool
    /// workers plus the calling thread (which always takes one lane). Defaults
    /// to the host's available parallelism — independent of the shard count,
    /// because the work-stealing scheduler splits and coalesces shards across
    /// lanes freely — and is always clamped to `1..=available_parallelism`
    /// (see [`SearchEngine::set_scan_lanes`]): more busy threads than cores
    /// only adds scheduler thrash to a CPU-bound scan.
    pub fn scan_lanes(&self) -> usize {
        self.lanes
    }

    /// Scan every shard for documents whose level-1 index matches `query`, extract a
    /// value per match, and merge across shards in storage (insertion-ordinal)
    /// order. The single home of the ordinal-merge logic that makes parallel
    /// unranked results and metadata reproduce the sequential scan's order exactly.
    fn matching_in_storage_order<'s, T, F>(&'s self, query: &QueryIndex, extract: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&'s RankedDocumentIndex) -> T + Sync,
    {
        let all: Vec<usize> = (0..self.store.num_shards()).collect();
        // The plane answers "which slots match" with a pruned column sweep;
        // the extraction still reads the authoritative AoS documents.
        let per_shard = self.run_units(&self.units(&all, false), |unit| {
            let docs = self.store.shard_documents(unit.shard);
            self.store
                .scan_plane(unit.shard)
                .matching_slots(query.bits())
                .into_iter()
                .map(|slot| (self.store.ordinal(unit.shard, slot), extract(&docs[slot])))
                .collect::<Vec<_>>()
        });
        let mut merged: Vec<(u64, T)> = per_shard.into_iter().flatten().collect();
        merged.sort_unstable_by_key(|(ordinal, _)| *ordinal);
        merged.into_iter().map(|(_, value)| value).collect()
    }

    /// Plain (unranked) oblivious search: ids of every document whose level-1 index
    /// matches, in storage (insertion) order — Eq. (3) across the database.
    /// (Uncached: the ranked path is the hot one; see [`crate::cache`].)
    pub fn search_unranked(&self, query: &QueryIndex) -> Vec<u64> {
        self.matching_in_storage_order(query, |d| d.document_id)
    }

    /// The fingerprint keying this query's per-shard ranked-scan entries. Top-k is
    /// `None` because truncation happens *after* the cross-shard merge — one cached
    /// entry per shard serves every k.
    fn ranked_fingerprint(query: &QueryIndex) -> QueryFingerprint {
        QueryFingerprint::new(query.bits(), RankingMode::Ranked, None)
    }

    /// Ranked search (Algorithm 1) with execution statistics, merged across shards.
    pub fn search_ranked_with_stats(&self, query: &QueryIndex) -> (Vec<SearchMatch>, SearchStats) {
        let (matches, stats, _) = self.search_ranked_with_effect(query);
        (matches, stats)
    }

    /// Ranked search with statistics **and** the cache's contribution to this
    /// execution. With the cache disabled the effect is all zeros. Matches and
    /// stats are byte-identical to the uncached execution either way.
    pub fn search_ranked_with_effect(
        &self,
        query: &QueryIndex,
    ) -> (Vec<SearchMatch>, SearchStats, CacheEffect) {
        self.telemetry.add(Counter::Queries, 1);
        let _query_span = self.telemetry.span(Stage::EngineQuery);
        self.search_ranked_batch(std::slice::from_ref(query))
            .pop()
            .expect("one reply per query")
    }

    /// The single merge point for ranked execution: extend in shard order, sum the
    /// stats, sort by the (rank desc, id asc) total order. Cached and fresh shard
    /// results flow through this identically.
    fn merge_ranked<I: IntoIterator<Item = (Vec<SearchMatch>, SearchStats)>>(
        per_shard: I,
        effect: CacheEffect,
    ) -> (Vec<SearchMatch>, SearchStats, CacheEffect) {
        let mut matches = Vec::new();
        let mut stats = SearchStats::default();
        for (shard_matches, shard_stats) in per_shard {
            matches.extend(shard_matches);
            stats.merge(&shard_stats);
        }
        sort_matches(&mut matches);
        (matches, stats, effect)
    }

    /// Ranked search without statistics.
    pub fn search(&self, query: &QueryIndex) -> Vec<SearchMatch> {
        self.search_ranked_with_stats(query).0
    }

    /// Ranked search returning only the top `tau` matches (§5). Cache-aware via the
    /// full ranked path: the per-shard entries are k-independent, so one cached
    /// query serves every `tau`.
    pub fn search_top(&self, query: &QueryIndex, tau: usize) -> Vec<SearchMatch> {
        let mut all = self.search(query);
        all.truncate(tau);
        all
    }

    /// Execute many queries in one pass: each shard is scanned once for the whole
    /// batch, through the same ranked body as a single query.
    pub fn search_batch_with_stats(
        &self,
        queries: &[QueryIndex],
    ) -> Vec<(Vec<SearchMatch>, SearchStats)> {
        self.search_batch_with_effects(queries)
            .into_iter()
            .map(|(matches, stats, _)| (matches, stats))
            .collect()
    }

    /// Batched ranked search with per-query statistics and cache effects.
    ///
    /// Execution is **fused and deduplicated**: queries carrying identical
    /// [`QueryFingerprint`]s are scanned once (the first occurrence is the
    /// representative; every duplicate position receives a copy of its reply),
    /// and each of a shard's work units receives the shard's whole remaining
    /// query set in one fused
    /// [`crate::scanplane::ScanPlane::scan_ranked_batch_chunks`] pass — the
    /// shard's arena crosses the memory bus once per batch, not once per query.
    /// With the cache enabled, each shard scans exactly the unique queries that
    /// missed it (fully cached queries trigger no scan at all), and duplicates
    /// are resolved through real cache lookups against what the representative
    /// admitted — so their [`CacheEffect`]s report the same hits, and the same
    /// saved comparisons, that issuing the b queries one at a time would have
    /// produced. Replies, per-query [`SearchStats`] and merge order are
    /// byte-identical to b independent single-query executions either way.
    ///
    /// One scoped caveat on the *diagnostics*: the distinct queries' cache
    /// lookups are phased (all before the fused scans — that is what makes one
    /// plane pass per shard possible), so when the cache is under eviction
    /// pressure **within a single batch** (`capacity_per_shard` smaller than the
    /// batch's distinct working set plus the warm entries it displaces), a
    /// [`CacheEffect`]/[`CacheStats`] entry may differ from strict one-at-a-time
    /// issue order — an earlier query's admission cannot evict an entry a later
    /// distinct query already looked up. Replies and [`SearchStats`] are never
    /// affected (the cache may change work accounting, never bytes), and
    /// duplicate positions always replay sequential cache traffic exactly.
    pub fn search_batch_with_effects(
        &self,
        queries: &[QueryIndex],
    ) -> Vec<(Vec<SearchMatch>, SearchStats, CacheEffect)> {
        if queries.is_empty() {
            return Vec::new();
        }
        self.telemetry.add(Counter::Batches, 1);
        self.telemetry
            .add(Counter::BatchQueries, queries.len() as u64);
        let _batch_span = self.telemetry.span(Stage::EngineBatch);
        self.search_ranked_batch(queries)
    }

    /// The one ranked body behind both public entry points (a single query is
    /// a batch of one): intra-batch dedup, phased cache lookups, one fused scan
    /// per unit, admissions in batch order, and the merge. See
    /// [`SearchEngine::search_batch_with_effects`] for the cache semantics.
    /// Records no query/batch counters — its callers own those.
    fn search_ranked_batch(
        &self,
        queries: &[QueryIndex],
    ) -> Vec<(Vec<SearchMatch>, SearchStats, CacheEffect)> {
        let shards = self.store.num_shards();
        let fingerprints: Vec<QueryFingerprint> =
            queries.iter().map(Self::ranked_fingerprint).collect();
        // Intra-batch dedup: rep[i] is the batch position of the first query with
        // fingerprints[i]; positions where rep[i] == i are the unique set.
        let mut first_of: HashMap<&QueryFingerprint, usize> = HashMap::with_capacity(queries.len());
        let mut rep: Vec<usize> = Vec::with_capacity(queries.len());
        for (i, fingerprint) in fingerprints.iter().enumerate() {
            rep.push(*first_of.entry(fingerprint).or_insert(i));
        }
        let uniques: Vec<usize> = (0..queries.len()).filter(|&i| rep[i] == i).collect();
        // unique_pos[rep[i]] is rep[i]'s row in the per-unique tables below.
        let unique_pos: HashMap<usize, usize> = uniques
            .iter()
            .enumerate()
            .map(|(pos, &u)| (u, pos))
            .collect();
        let mut out: Vec<Option<(Vec<SearchMatch>, SearchStats, CacheEffect)>> =
            (0..queries.len()).map(|_| None).collect();

        let Some(cache_mutex) = &self.cache else {
            // per_shard[shard][pos] over the unique set; transpose to per-query
            // rows so every execution path merges through merge_ranked.
            self.telemetry.add(Counter::ShardScans, shards as u64);
            let all: Vec<usize> = (0..shards).collect();
            let subsets: Vec<Vec<&QueryIndex>> = (0..shards)
                .map(|_| uniques.iter().map(|&u| &queries[u]).collect())
                .collect();
            let mut per_shard = self.scan_selected_shards(&all, &subsets);
            for (pos, &u) in uniques.iter().enumerate() {
                out[u] = Some(Self::merge_ranked(
                    per_shard
                        .iter_mut()
                        .map(|rows| std::mem::take(&mut rows[pos])),
                    CacheEffect::default(),
                ));
            }
            // Duplicates: identical reply bytes, and — matching b independent
            // cache-less executions exactly — an all-zero effect.
            return Self::fan_out_duplicates(out, &rep, |_| CacheEffect::default());
        };

        // Phase 1 — lookups for the unique queries, in batch order.
        // resolved[pos][shard], rows aligned with `uniques`.
        let mut resolved: Vec<Vec<Option<ShardScan>>> = uniques
            .iter()
            .map(|_| (0..shards).map(|_| None).collect())
            .collect();
        let mut generations: Vec<u64> = Vec::with_capacity(shards);
        {
            let _lookup_span = self.telemetry.span(Stage::CacheLookup);
            let mut cache = cache_mutex.lock().unwrap();
            for shard in 0..shards {
                generations.push(cache.generation(shard));
            }
            for (&u, rows) in uniques.iter().zip(resolved.iter_mut()) {
                for (shard, row) in rows.iter_mut().enumerate() {
                    *row = cache.lookup(shard, &fingerprints[u]);
                    self.telemetry.record_cache_lookup(shard, row.is_some());
                }
            }
        }
        let effects: Vec<CacheEffect> = resolved
            .iter()
            .map(|rows| {
                let misses = rows.iter().filter(|r| r.is_none()).count() as u64;
                CacheEffect {
                    shard_hits: shards as u64 - misses,
                    shard_misses: misses,
                    saved_comparisons: rows
                        .iter()
                        .flatten()
                        .map(|(_, stats)| stats.comparisons)
                        .sum(),
                }
            })
            .collect();

        // Phase 2 — fused scans: each shard sweeps exactly the unique queries
        // that missed it, in one plane pass. Results only fill `resolved` here;
        // admissions happen in phase 3, in batch order.
        let mut queries_for_shard: Vec<Vec<usize>> = (0..shards).map(|_| Vec::new()).collect();
        // missing_of_pos[pos] = the shards `pos` was freshly scanned on (its
        // phase-1 misses) — the shards sequential execution would admit.
        let mut missing_of_pos: Vec<Vec<usize>> = (0..uniques.len()).map(|_| Vec::new()).collect();
        for (pos, rows) in resolved.iter().enumerate() {
            for (shard, row) in rows.iter().enumerate() {
                if row.is_none() {
                    queries_for_shard[shard].push(pos);
                    missing_of_pos[pos].push(shard);
                }
            }
        }
        let shard_ids: Vec<usize> = (0..shards)
            .filter(|&s| !queries_for_shard[s].is_empty())
            .collect();
        if !shard_ids.is_empty() {
            self.telemetry
                .add(Counter::ShardScans, shard_ids.len() as u64);
            let subsets: Vec<Vec<&QueryIndex>> = shard_ids
                .iter()
                .map(|&shard| {
                    queries_for_shard[shard]
                        .iter()
                        .map(|&pos| &queries[uniques[pos]])
                        .collect()
                })
                .collect();
            let fresh = self.scan_selected_shards(&shard_ids, &subsets);
            for (&shard, shard_results) in shard_ids.iter().zip(fresh) {
                for (&pos, scan) in queries_for_shard[shard].iter().zip(shard_results) {
                    resolved[pos][shard] = Some(scan);
                }
            }
        }

        // Phase 3 — one pass over the batch in position order, replaying the
        // cache traffic sequential execution would generate: a representative
        // admits its freshly scanned shards; a duplicate resolves through real
        // lookups, hitting whatever is cached *at its position in the batch*
        // (normally what its representative just admitted — but under LRU
        // pressure an intervening admission may have evicted it, and then, like
        // sequential execution, the duplicate reports a miss and re-admits; the
        // "rescan" result is the representative's identical row). Distinct
        // queries' *lookups* stay phased (see the method docs), so only their
        // diagnostics can deviate under intra-batch eviction pressure; the
        // admission order and every duplicate's traffic match sequential
        // execution exactly.
        let mut duplicate_effects: Vec<CacheEffect> = vec![CacheEffect::default(); queries.len()];
        {
            let _admit_span = self.telemetry.span(Stage::CacheAdmit);
            let mut cache = cache_mutex.lock().unwrap();
            for (i, fingerprint) in fingerprints.iter().enumerate() {
                let pos = unique_pos[&rep[i]];
                if rep[i] == i {
                    for &shard in &missing_of_pos[pos] {
                        let (matches, stats) =
                            resolved[pos][shard].as_ref().expect("shard resolved");
                        cache.admit(
                            shard,
                            fingerprint.clone(),
                            matches.clone(),
                            *stats,
                            generations[shard],
                        );
                    }
                    continue;
                }
                let mut effect = CacheEffect::default();
                for shard in 0..shards {
                    let found = cache.lookup(shard, fingerprint);
                    self.telemetry.record_cache_lookup(shard, found.is_some());
                    match found {
                        Some((_, stats)) => {
                            effect.shard_hits += 1;
                            effect.saved_comparisons += stats.comparisons;
                        }
                        None => {
                            effect.shard_misses += 1;
                            let (matches, stats) = resolved[pos][shard]
                                .clone()
                                .expect("representative resolved");
                            cache.admit(
                                shard,
                                fingerprint.clone(),
                                matches,
                                stats,
                                generations[shard],
                            );
                        }
                    }
                }
                duplicate_effects[i] = effect;
            }
        }

        for ((rows, effect), &u) in resolved.into_iter().zip(effects).zip(&uniques) {
            out[u] = Some(Self::merge_ranked(
                rows.into_iter().map(|r| r.expect("shard resolved")),
                effect,
            ));
        }
        Self::fan_out_duplicates(out, &rep, |i| duplicate_effects[i])
    }

    /// Finish a batch execution: every representative position of `out` is
    /// filled; copy its reply into each duplicate position (pairing it with that
    /// position's own [`CacheEffect`]) and unwrap the batch-ordered result.
    fn fan_out_duplicates(
        mut out: Vec<Option<(Vec<SearchMatch>, SearchStats, CacheEffect)>>,
        rep: &[usize],
        effect_of: impl Fn(usize) -> CacheEffect,
    ) -> Vec<(Vec<SearchMatch>, SearchStats, CacheEffect)> {
        for i in 0..out.len() {
            if rep[i] != i {
                let (matches, stats) = {
                    let (matches, stats, _) =
                        out[rep[i]].as_ref().expect("representative resolved first");
                    (matches.clone(), *stats)
                };
                out[i] = Some((matches, stats, effect_of(i)));
            }
        }
        out.into_iter()
            .map(|reply| reply.expect("every batch position resolved"))
            .collect()
    }

    /// Batched ranked search without statistics.
    pub fn search_batch(&self, queries: &[QueryIndex]) -> Vec<Vec<SearchMatch>> {
        self.search_batch_with_stats(queries)
            .into_iter()
            .map(|(matches, _)| matches)
            .collect()
    }

    /// The per-level metadata of matching documents, in storage order (§4.3).
    ///
    /// Levels are **borrowed** from the store: building the reply no longer
    /// deep-clones every matching document's full η·r-bit index — callers that
    /// need owned data (e.g. to serialize onto the wire) copy exactly the bytes
    /// they send and nothing more.
    pub fn matching_metadata(&self, query: &QueryIndex) -> Vec<(u64, &[BitIndex])> {
        self.matching_in_storage_order(query, |d| (d.document_id, d.levels.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document_index::DocumentIndexer;
    use crate::keys::SchemeKeys;
    use crate::query::QueryBuilder;
    use crate::scanplane::ScanPlane;
    use crate::search::CloudIndex;
    use mkse_textproc::document::TermFrequencies;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        params: SystemParams,
        keys: SchemeKeys,
        rng: StdRng,
    }

    fn fixture() -> Fixture {
        let params = SystemParams::default();
        let mut rng = StdRng::seed_from_u64(123);
        let keys = SchemeKeys::generate(&params, &mut rng);
        Fixture { params, keys, rng }
    }

    fn corpus_indices(fx: &Fixture, n: u64) -> Vec<RankedDocumentIndex> {
        let indexer = DocumentIndexer::new(&fx.params, &fx.keys);
        (0..n)
            .map(|id| {
                let tf = TermFrequencies::from_pairs([
                    (format!("kw{}", id % 7), 1 + (id as u32 % 12)),
                    ("shared".to_string(), 1 + (id as u32 % 11)),
                ]);
                indexer.index_terms(id, &tf)
            })
            .collect()
    }

    fn query(fx: &mut Fixture, keywords: &[&str]) -> QueryIndex {
        let tds = fx.keys.trapdoors_for(&fx.params, keywords);
        QueryBuilder::new(&fx.params)
            .add_trapdoors(&tds)
            .build(&mut fx.rng)
    }

    #[test]
    fn sharded_engine_matches_sequential_reference() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 40);
        let mut reference = CloudIndex::new(fx.params.clone());
        reference.insert_all(indices.iter().cloned()).unwrap();
        let q = query(&mut fx, &["shared"]);
        let (seq_matches, seq_stats) = reference.search_ranked_with_stats(&q);

        for shards in [1usize, 2, 3, 8] {
            let mut engine = SearchEngine::sharded(fx.params.clone(), shards);
            engine.insert_all(indices.iter().cloned()).unwrap();
            let (matches, stats) = engine.search_ranked_with_stats(&q);
            assert_eq!(matches, seq_matches, "ranked mismatch at {shards} shards");
            assert_eq!(stats, seq_stats, "stats mismatch at {shards} shards");
            assert_eq!(
                engine.search_unranked(&q),
                reference.search_unranked(&q),
                "unranked mismatch at {shards} shards"
            );
            assert_eq!(
                engine.matching_metadata(&q),
                reference.matching_metadata(&q),
                "metadata mismatch at {shards} shards"
            );
        }
    }

    #[test]
    fn batch_results_equal_single_query_results() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 30);
        let mut engine = SearchEngine::sharded(fx.params.clone(), 4);
        engine.insert_all(indices).unwrap();
        let queries = vec![
            query(&mut fx, &["shared"]),
            query(&mut fx, &["kw3"]),
            query(&mut fx, &["kw5", "shared"]),
        ];
        let batched = engine.search_batch_with_stats(&queries);
        assert_eq!(batched.len(), 3);
        for (q, (matches, stats)) in queries.iter().zip(batched.iter()) {
            let (single_matches, single_stats) = engine.search_ranked_with_stats(q);
            assert_eq!(matches, &single_matches);
            assert_eq!(stats, &single_stats);
        }
        assert!(engine.search_batch(&[]).is_empty());
    }

    #[test]
    fn duplicate_batch_queries_scan_once_and_reply_like_sequential_execution() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 30);
        let q_a = query(&mut fx, &["shared"]);
        let q_b = query(&mut fx, &["kw3"]);
        // The batch repeats q_a (positions 0, 2, 3) and q_b (positions 1, 4).
        let batch = vec![
            q_a.clone(),
            q_b.clone(),
            q_a.clone(),
            q_a.clone(),
            q_b.clone(),
        ];

        // Cache off: duplicates are scanned once and fanned out; replies and
        // effects are byte-identical to independent executions (all-zero effects).
        let mut plain = SearchEngine::sharded(fx.params.clone(), 4);
        plain.insert_all(indices.iter().cloned()).unwrap();
        let results = plain.search_batch_with_effects(&batch);
        for (query, (matches, stats, effect)) in batch.iter().zip(&results) {
            let (sm, ss) = plain.search_ranked_with_stats(query);
            assert_eq!(matches, &sm);
            assert_eq!(stats, &ss);
            assert_eq!(effect, &CacheEffect::default());
        }

        // Cache on: issuing the 5 queries one at a time admits on first sight and
        // hits on every repeat — the batch must report exactly those effects.
        let mut sequential =
            SearchEngine::sharded(fx.params.clone(), 4).with_result_cache(CacheConfig::default());
        sequential.insert_all(indices.iter().cloned()).unwrap();
        let expected: Vec<_> = batch
            .iter()
            .map(|q| sequential.search_ranked_with_effect(q))
            .collect();
        let expected_stats = sequential.cache_stats().unwrap();

        let mut cached =
            SearchEngine::sharded(fx.params.clone(), 4).with_result_cache(CacheConfig::default());
        cached.insert_all(indices.iter().cloned()).unwrap();
        let got = cached.search_batch_with_effects(&batch);
        assert_eq!(got, expected, "batched execution must equal sequential");
        assert!(got[2].2.fully_cached(), "duplicate is a pure cache hit");
        assert_eq!(got[2].2.saved_comparisons, got[2].1.comparisons);
        assert_eq!(
            cached.cache_stats().unwrap(),
            expected_stats,
            "dedup must leave the same CacheStats trail as sequential execution"
        );
    }

    #[test]
    fn duplicate_batch_queries_under_lru_pressure_match_sequential() {
        // capacity 1 with batch [A, A, B]: sequential execution admits A, hits
        // A, then B's admission evicts A — so B ends up cached and the
        // duplicate's reply reports a hit. The batched path must replay exactly
        // that cache traffic (admissions and duplicate lookups interleaved in
        // batch order), not admit everything first and let B's admission evict
        // A before the duplicate looks up.
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 24);
        let q_a = query(&mut fx, &["shared"]);
        let q_b = query(&mut fx, &["kw1"]);
        let batch = vec![q_a.clone(), q_a.clone(), q_b.clone()];
        let tiny = CacheConfig {
            capacity_per_shard: 1,
        };

        let mut sequential = SearchEngine::sharded(fx.params.clone(), 3).with_result_cache(tiny);
        sequential.insert_all(indices.iter().cloned()).unwrap();
        let expected: Vec<_> = batch
            .iter()
            .map(|q| sequential.search_ranked_with_effect(q))
            .collect();
        assert!(
            expected[1].2.fully_cached(),
            "sequential duplicate must hit before B evicts A"
        );

        let mut batched = SearchEngine::sharded(fx.params.clone(), 3).with_result_cache(tiny);
        batched.insert_all(indices.iter().cloned()).unwrap();
        let got = batched.search_batch_with_effects(&batch);
        assert_eq!(got, expected);
        assert_eq!(
            batched.cache_stats().unwrap(),
            sequential.cache_stats().unwrap()
        );
        // And the surviving LRU contents match: B (the last admission) is the
        // cached entry in both worlds, so a follow-up B fully hits.
        assert_eq!(
            batched.search_ranked_with_effect(&q_b),
            sequential.search_ranked_with_effect(&q_b)
        );
        assert!(batched.search_ranked_with_effect(&q_b).2.fully_cached());
    }

    #[test]
    fn duplicate_batch_queries_with_zero_capacity_cache_match_sequential() {
        // capacity 0: nothing is ever admitted, so sequential execution rescans
        // every repeat and reports misses — the deduplicated batch must report
        // the same effects even though it physically scans once.
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 20);
        let q = query(&mut fx, &["shared"]);
        let batch = vec![q.clone(), q.clone(), q.clone()];
        let mut sequential =
            SearchEngine::sharded(fx.params.clone(), 3).with_result_cache(CacheConfig {
                capacity_per_shard: 0,
            });
        sequential.insert_all(indices.iter().cloned()).unwrap();
        let expected: Vec<_> = batch
            .iter()
            .map(|q| sequential.search_ranked_with_effect(q))
            .collect();
        let mut cached =
            SearchEngine::sharded(fx.params.clone(), 3).with_result_cache(CacheConfig {
                capacity_per_shard: 0,
            });
        cached.insert_all(indices.iter().cloned()).unwrap();
        assert_eq!(cached.search_batch_with_effects(&batch), expected);
    }

    #[test]
    fn scan_lanes_never_exceed_available_parallelism() {
        let fx = fixture();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for shards in [1usize, 2, 3, 4, 7, 16, 32] {
            let engine = SearchEngine::sharded(fx.params.clone(), shards);
            let lanes = engine.scan_lanes();
            assert!(lanes >= 1);
            assert!(
                lanes <= cores,
                "{shards} shards fanned out to {lanes} lanes on a {cores}-core host"
            );
            // Lanes are decoupled from the shard count: the stealing scheduler
            // splits shards into chunk units, so even one shard uses them all.
            assert_eq!(lanes, cores, "default lane count is the host parallelism");
        }
    }

    #[test]
    fn scan_lanes_runtime_knob_clamps_and_rebuilds() {
        let fx = fixture();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut engine = SearchEngine::sharded(fx.params.clone(), 4);
        // Requests are clamped to [1, cores], from either direction.
        engine.set_scan_lanes(0);
        assert_eq!(engine.scan_lanes(), 1);
        engine.set_scan_lanes(usize::MAX);
        assert_eq!(engine.scan_lanes(), cores);
        for request in [1usize, 2, 3, 4, 64] {
            engine.set_scan_lanes(request);
            assert_eq!(engine.scan_lanes(), request.clamp(1, cores));
        }
        // The builder form composes with the granularity knob, and both knobs
        // survive a clone.
        let engine = SearchEngine::sharded(fx.params.clone(), 2)
            .with_scan_lanes(1)
            .with_steal_granularity(0);
        assert_eq!(engine.scan_lanes(), 1);
        assert_eq!(engine.steal_granularity(), 1, "granularity clamps to >= 1");
        let clone = engine.clone();
        assert_eq!(clone.scan_lanes(), 1);
        assert_eq!(clone.steal_granularity(), 1);
    }

    #[test]
    fn lane_knob_does_not_change_results() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 40);
        let q = query(&mut fx, &["shared"]);
        let mut engine = SearchEngine::sharded(fx.params.clone(), 3);
        engine.insert_all(indices).unwrap();
        let baseline = engine.search_ranked_with_stats(&q);
        for lanes in [1usize, 2, 5] {
            engine.set_scan_lanes(lanes);
            assert_eq!(
                engine.search_ranked_with_stats(&q),
                baseline,
                "lanes={lanes}"
            );
        }
    }

    /// Force a multi-lane pool regardless of the host's core count (the struct
    /// literal bypasses `set_scan_lanes`' clamp) so genuine concurrent stealing
    /// runs even on single-core CI hosts.
    fn forced_lane_engine<S: IndexStore>(
        store: S,
        lanes: usize,
        granularity: usize,
    ) -> SearchEngine<S> {
        SearchEngine {
            store,
            pool: (lanes > 1).then(|| WorkerPool::new(lanes - 1)),
            lanes,
            steal_granularity: granularity.max(1),
            cache: None,
            telemetry: Telemetry::new(),
        }
    }

    #[test]
    fn work_stealing_on_forced_multi_lane_pool_matches_sequential_reference() {
        use crate::scanplane::CHUNK;
        // Multi-chunk shards without the (slow) real indexer: raw pseudo-random
        // indices through the geometry-validating insert path. 3 shards × ~2.1
        // chunks at granularity 1 gives ~7 units over 3 lanes, so pops and
        // steals genuinely interleave.
        let params = SystemParams::new(64, 4, 16, 0, 0, vec![1, 2]).unwrap();
        let mut state = 0x9e37_79b9_97f4_a7c1u64;
        let mut next_bits = |n: usize| {
            let bits: Vec<bool> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state >> 63 == 1
                })
                .collect();
            crate::bitindex::BitIndex::from_bits(&bits)
        };
        let mut store = ShardedStore::new(params.clone(), 3);
        let mut reference = CloudIndex::new(params.clone());
        for id in 0..(3 * (2 * CHUNK + 100)) as u64 {
            let index = RankedDocumentIndex {
                document_id: id,
                levels: vec![next_bits(64), next_bits(64)],
            };
            reference.insert(index.clone()).unwrap();
            store.insert(index).unwrap();
        }
        let queries: Vec<QueryIndex> = (0..5)
            .map(|_| QueryIndex::from_bits(next_bits(64)))
            .collect();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| reference.search_ranked_with_stats(q))
            .collect();
        // Aggregated across every forced work-stealing config below: the lanes
        // must record genuine steals (satellite: the deques are no longer
        // opaque), and recording them must not perturb a single reply byte.
        let mut total_steals = 0u64;
        let mut total_executed = 0u64;
        for lanes in [2usize, 3] {
            for granularity in [1usize, 2, 64] {
                let engine = forced_lane_engine(store.clone(), lanes, granularity);
                engine.set_telemetry_level(TelemetryLevel::Counters);
                for (q, want) in queries.iter().zip(&expected) {
                    assert_eq!(
                        &engine.search_ranked_with_stats(q),
                        want,
                        "lanes={lanes} g={granularity}"
                    );
                }
                assert_eq!(
                    engine.search_batch_with_stats(&queries),
                    expected,
                    "fused batch, lanes={lanes} g={granularity}"
                );
                let snap = engine.metrics_snapshot();
                total_steals += snap.total_steals();
                total_executed += snap.lanes.iter().map(|l| l.executed).sum::<u64>();
            }
            // Whole-shard units (unranked and metadata scans) on the same
            // forced pool agree too.
            let engine = forced_lane_engine(store.clone(), lanes, 8);
            for q in &queries {
                assert_eq!(
                    engine.search_unranked(q),
                    reference.search_unranked(q),
                    "unranked, lanes={lanes}"
                );
                assert_eq!(
                    engine.matching_metadata(q),
                    reference.matching_metadata(q),
                    "metadata, lanes={lanes}"
                );
            }
        }
        // Every unit execution is accounted, and at least one lane stole: the
        // caller lane drains its own deal inline and then eats from workers
        // still waking up, so a forced multi-lane run cannot finish steal-free.
        assert!(
            total_executed > 0,
            "lane counters must see the executed units"
        );
        assert!(
            total_steals > 0,
            "forced multi-lane work-stealing runs must record steals"
        );
    }

    #[test]
    fn top_k_truncates_merged_ranking() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 25);
        let mut engine = SearchEngine::sharded(fx.params.clone(), 3);
        engine.insert_all(indices).unwrap();
        let q = query(&mut fx, &["shared"]);
        let all = engine.search(&q);
        let top = engine.search_top(&q, 4);
        assert_eq!(top.len(), 4.min(all.len()));
        assert_eq!(&all[..top.len()], &top[..]);
        for w in all.windows(2) {
            assert!(
                w[0].rank > w[1].rank
                    || (w[0].rank == w[1].rank && w[0].document_id < w[1].document_id)
            );
        }
    }

    #[test]
    fn empty_engine_returns_nothing() {
        let mut fx = fixture();
        let engine = SearchEngine::sharded(fx.params.clone(), 4);
        assert!(engine.is_empty());
        assert_eq!(engine.len(), 0);
        let q = query(&mut fx, &["anything"]);
        assert!(engine.search(&q).is_empty());
        assert!(engine.search_unranked(&q).is_empty());
        assert!(engine.document_index(0).is_none());
    }

    #[test]
    fn sequential_constructor_runs_on_vec_store() {
        let mut fx = fixture();
        let mut engine = SearchEngine::sequential(fx.params.clone());
        let indexer = DocumentIndexer::new(&fx.params, &fx.keys);
        engine.insert(indexer.index_keywords(0, &["kw0"])).unwrap();
        assert_eq!(engine.store().num_shards(), 1);
        let q = query(&mut fx, &["kw0"]);
        assert_eq!(engine.search_unranked(&q), vec![0]);
        assert_eq!(engine.params().index_bits, 448);
        assert_eq!(engine.into_store().len(), 1);
    }

    #[test]
    fn cached_engine_returns_identical_results_and_reports_hits() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 40);
        let mut plain = SearchEngine::sharded(fx.params.clone(), 4);
        plain.insert_all(indices.iter().cloned()).unwrap();
        let mut cached =
            SearchEngine::sharded(fx.params.clone(), 4).with_result_cache(CacheConfig::default());
        cached.insert_all(indices.iter().cloned()).unwrap();
        assert!(cached.cache_enabled() && !plain.cache_enabled());

        let q = query(&mut fx, &["shared"]);
        let (m1, s1, e1) = cached.search_ranked_with_effect(&q);
        assert_eq!(e1.shard_misses, 4, "cold cache scans every shard");
        assert_eq!(e1.shard_hits, 0);
        assert!(!e1.fully_cached());
        let (m2, s2, e2) = cached.search_ranked_with_effect(&q);
        assert_eq!(e2.shard_hits, 4, "repeat is served from cache");
        assert_eq!(e2.shard_misses, 0);
        assert!(e2.fully_cached());
        assert_eq!(e2.saved_comparisons, s2.comparisons);

        let (pm, ps) = plain.search_ranked_with_stats(&q);
        assert_eq!(m1, pm);
        assert_eq!(m2, pm);
        assert_eq!(s1, ps, "first (admitting) stats identical");
        assert_eq!(s2, ps, "cached stats identical");

        let stats = cached.cache_stats().unwrap();
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.saved_comparisons, ps.comparisons);
    }

    #[test]
    fn insert_invalidates_only_the_written_shard() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 12);
        let mut engine =
            SearchEngine::sharded(fx.params.clone(), 3).with_result_cache(CacheConfig::default());
        engine.insert_all(indices.iter().cloned()).unwrap();
        let q = query(&mut fx, &["shared"]);
        let _ = engine.search_ranked_with_effect(&q); // warm all 3 shards

        // 12 documents round-robin over 3 shards ⇒ the next insert goes to shard 0.
        let indexer = DocumentIndexer::new(&fx.params, &fx.keys);
        engine
            .insert(indexer.index_keywords(100, &["kw1"]))
            .unwrap();

        let (_, _, effect) = engine.search_ranked_with_effect(&q);
        assert_eq!(effect.shard_hits, 2, "two shards stayed cached");
        assert_eq!(effect.shard_misses, 1, "only the written shard rescans");
        assert_eq!(engine.cache_stats().unwrap().invalidations, 1);
    }

    #[test]
    fn batch_uses_cache_and_matches_uncached_batch() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 30);
        let mut plain = SearchEngine::sharded(fx.params.clone(), 4);
        plain.insert_all(indices.iter().cloned()).unwrap();
        let mut cached =
            SearchEngine::sharded(fx.params.clone(), 4).with_result_cache(CacheConfig::default());
        cached.insert_all(indices.iter().cloned()).unwrap();

        let queries = vec![
            query(&mut fx, &["shared"]),
            query(&mut fx, &["kw3"]),
            query(&mut fx, &["kw5", "shared"]),
        ];
        // Warm only the first query through the single path.
        let _ = cached.search_ranked_with_effect(&queries[0]);

        let expected = plain.search_batch_with_stats(&queries);
        let got = cached.search_batch_with_effects(&queries);
        assert_eq!(got.len(), expected.len());
        for ((m, s, effect), (em, es)) in got.iter().zip(&expected) {
            assert_eq!(m, em);
            assert_eq!(s, es);
            assert_eq!(effect.shard_hits + effect.shard_misses, 4);
        }
        assert!(got[0].2.fully_cached(), "warmed query fully cached");
        assert_eq!(got[1].2.shard_misses, 4, "cold query scans everywhere");

        // The whole batch again: every (query, shard) pair now hits.
        let again = cached.search_batch_with_effects(&queries);
        for ((m, s, effect), (em, es)) in again.iter().zip(&expected) {
            assert_eq!(m, em);
            assert_eq!(s, es);
            assert!(effect.fully_cached());
        }
    }

    #[test]
    fn store_mut_and_restore_invalidate_everything() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 20);
        let mut engine =
            SearchEngine::sharded(fx.params.clone(), 2).with_result_cache(CacheConfig::default());
        engine.insert_all(indices.iter().cloned()).unwrap();
        let q = query(&mut fx, &["shared"]);
        let _ = engine.search_ranked_with_effect(&q);
        assert!(engine.search_ranked_with_effect(&q).2.fully_cached());

        // Direct store access: the engine cannot know what changed, so nothing
        // cached may be served afterwards.
        let _ = engine.store_mut();
        assert_eq!(engine.search_ranked_with_effect(&q).2.shard_hits, 0);

        // A snapshot/restore cycle also invalidates (and restores content).
        let bytes = engine.snapshot();
        let mut restored =
            SearchEngine::sharded(fx.params.clone(), 5).with_result_cache(CacheConfig::default());
        assert_eq!(restored.restore_snapshot(&bytes).unwrap(), 20);
        let (rm, rs, re) = restored.search_ranked_with_effect(&q);
        let (em, es, _) = engine.search_ranked_with_effect(&q);
        assert_eq!(rm, em);
        assert_eq!(rs, es);
        assert_eq!(re.shard_hits, 0, "restored engine starts cold");
    }

    #[test]
    fn clone_keeps_cache_config_but_starts_cold() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 10);
        let mut engine =
            SearchEngine::sharded(fx.params.clone(), 2).with_result_cache(CacheConfig {
                capacity_per_shard: 7,
            });
        engine.insert_all(indices).unwrap();
        let q = query(&mut fx, &["shared"]);
        let _ = engine.search(&q);
        let clone = engine.clone();
        assert!(clone.cache_enabled());
        assert_eq!(clone.cache_stats().unwrap(), CacheStats::default());
        let (_, _, effect) = clone.search_ranked_with_effect(&q);
        assert_eq!(effect.shard_hits, 0);
        // And disabling works.
        let mut off = clone;
        off.disable_cache();
        assert!(!off.cache_enabled());
        assert_eq!(off.cache_stats(), None);
    }

    #[test]
    fn cache_maintenance_helpers() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 8);
        let mut engine =
            SearchEngine::sharded(fx.params.clone(), 2).with_result_cache(CacheConfig::default());
        engine.insert_all(indices).unwrap();
        let q = query(&mut fx, &["shared"]);
        let _ = engine.search(&q);
        let _ = engine.search(&q);
        assert!(engine.cache_stats().unwrap().hits > 0);
        engine.reset_cache_stats();
        assert_eq!(engine.cache_stats().unwrap(), CacheStats::default());
        engine.clear_cache();
        let (_, _, effect) = engine.search_ranked_with_effect(&q);
        assert_eq!(effect.shard_hits, 0, "cleared cache serves nothing");
    }

    /// A store whose shard 2 cannot be scanned — exercises the panic-context
    /// propagation through the executor, inline and across the worker pool.
    struct PoisonedStore {
        inner: ShardedStore,
    }

    impl IndexStore for PoisonedStore {
        fn params(&self) -> &SystemParams {
            self.inner.params()
        }
        fn insert(&mut self, index: RankedDocumentIndex) -> Result<(), StoreError> {
            self.inner.insert(index)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn num_shards(&self) -> usize {
            self.inner.num_shards()
        }
        fn shard_documents(&self, shard: usize) -> &[RankedDocumentIndex] {
            self.inner.shard_documents(shard)
        }
        fn ordinal(&self, shard: usize, slot: usize) -> u64 {
            self.inner.ordinal(shard, slot)
        }
        fn document_index(&self, document_id: u64) -> Option<&RankedDocumentIndex> {
            self.inner.document_index(document_id)
        }
        fn shard_of(&self, document_id: u64) -> Option<usize> {
            self.inner.shard_of(document_id)
        }
        fn scan_plane(&self, shard: usize) -> &ScanPlane {
            assert_ne!(shard, 2, "shard storage corrupted");
            self.inner.scan_plane(shard)
        }
    }

    #[test]
    fn scan_panic_names_the_failing_shard() {
        let mut fx = fixture();
        let q = query(&mut fx, &["shared"]);
        let batch = vec![q.clone(), query(&mut fx, &["kw3"])];
        for lanes in [1usize, 2] {
            let mut store = PoisonedStore {
                inner: ShardedStore::new(fx.params.clone(), 4),
            };
            store.insert_all(corpus_indices(&fx, 16)).unwrap();
            let engine = forced_lane_engine(store, lanes, 1);
            let scans: [(&str, &dyn Fn()); 3] = [
                ("ranked single", &|| drop(engine.search(&q))),
                ("fused batch", &|| drop(engine.search_batch(&batch))),
                ("unranked", &|| drop(engine.search_unranked(&q))),
            ];
            for (path, scan) in scans {
                let result = std::panic::catch_unwind(AssertUnwindSafe(scan));
                let payload = result.expect_err("poisoned shard must panic");
                let message = pool::panic_message(payload.as_ref());
                assert!(
                    message.contains("shard 2"),
                    "{path}, lanes={lanes}: panic must name the failing shard: {message}"
                );
                assert!(
                    message.contains("shard storage corrupted"),
                    "{path}, lanes={lanes}: panic must forward the original message: {message}"
                );
            }
        }
    }

    #[test]
    fn ranked_body_keeps_the_query_batch_and_shard_scan_counters() {
        // Both public entry points share one ranked body; the counters each
        // records are part of the telemetry contract. 4 shards, 3 distinct
        // queries plus a duplicate.
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 24);
        let q_a = query(&mut fx, &["shared"]);
        let q_b = query(&mut fx, &["kw3"]);
        let q_c = query(&mut fx, &["kw5"]);
        let batch = vec![q_a.clone(), q_b.clone(), q_a.clone(), q_c.clone()];
        let counters = |engine: &SearchEngine<ShardedStore>| {
            let snap = engine.metrics_snapshot();
            [
                snap.counter("queries"),
                snap.counter("batches"),
                snap.counter("batch_queries"),
                snap.counter("shard_scans"),
            ]
        };
        for cached in [false, true] {
            let mut engine = SearchEngine::sharded(fx.params.clone(), 4)
                .with_telemetry_level(TelemetryLevel::Counters);
            if cached {
                engine.enable_cache(CacheConfig::default());
            }
            engine.insert_all(indices.iter().cloned()).unwrap();
            let ctx = format!("cached={cached}");

            // One single query: queries +1, no batch, every shard scanned.
            let _ = engine.search_ranked_with_effect(&q_a);
            assert_eq!(counters(&engine), [1, 0, 0, 4], "cold single, {ctx}");
            // Repeated: served from the cache when it is on.
            let _ = engine.search_ranked_with_effect(&q_a);
            let rescans = if cached { 0 } else { 4 };
            assert_eq!(
                counters(&engine),
                [2, 0, 0, 4 + rescans],
                "warm single, {ctx}"
            );
            // A batch of 4: batches +1, batch_queries +4, queries unchanged.
            // Uncached, each shard is scanned once for the whole batch;
            // cached, q_a is warm but q_b and q_c still miss every shard.
            let _ = engine.search_batch_with_effects(&batch);
            assert_eq!(
                counters(&engine),
                [2, 1, 4, 4 + rescans + 4],
                "cold batch, {ctx}"
            );
            // The same batch again: fully cached when the cache is on.
            let _ = engine.search_batch_with_effects(&batch);
            assert_eq!(
                counters(&engine),
                [2, 2, 8, 4 + rescans + 4 + rescans],
                "warm batch, {ctx}"
            );
            // An empty batch records nothing.
            assert!(engine.search_batch_with_effects(&[]).is_empty());
            assert_eq!(counters(&engine)[1], 2, "empty batch, {ctx}");
        }
    }
}
