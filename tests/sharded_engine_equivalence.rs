//! Exact equivalence of the shard-parallel engine and the sequential reference scan.
//!
//! The refactor's contract: for any corpus, any query and any shard count, the
//! [`SearchEngine`] over a [`ShardedStore`] returns **identical** `SearchMatch`
//! lists (same documents, same ranks, same deterministic order), identical merged
//! `SearchStats`, identical unranked id lists (storage order) and identical
//! metadata — only wall-clock time may differ. This test drives randomized corpora
//! and keyword workloads through both paths at shard counts 1, 2 and 7 (coprime
//! with nothing, so round-robin tails are exercised) plus 16 (more shards than some
//! corpora have documents).
//!
//! The same contract extends to the **result cache**: a cache-enabled engine must
//! return byte-identical matches, ranks, order and merged `SearchStats` on cold
//! lookups, warm hits, after interleaved inserts (per-shard invalidation) and
//! across a snapshot/restore cycle.
//!
//! Since PR 4 the engine's shard scans run on the block-major scan plane
//! (`mkse_core::scanplane`), so every assertion here also holds the bit-sliced
//! layout to the AoS reference; the plane-specific corners (ragged r, pruning
//! extremes, arbitrary bit patterns) live in
//! `mkse-core/tests/scanplane_equivalence.rs`, which CI additionally runs in
//! release mode.
//!
//! Shard scans are dispatched by a work-stealing executor over chunk-range
//! work units, so the contract gains two more knobs: lane count and steal
//! granularity. The steal-heavy sweep below holds every combination of
//! shards × lanes × granularity — cache on and off, fused batches with
//! duplicates — to the same byte-identical bar, including the cache hit/miss
//! counters, which must match a 1-lane (whole-shard unit) twin's exactly.

use mkse::core::scanplane::CHUNK;
use mkse::core::{
    CacheConfig, CloudIndex, DocumentIndexer, QueryBuilder, QueryIndex, SchemeKeys, SearchEngine,
    SystemParams,
};
use mkse::textproc::corpus::{CorpusSpec, FrequencyModel, SyntheticCorpus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

fn small_params() -> SystemParams {
    // Small index keeps the sweep fast; every structural property is preserved.
    SystemParams::new(128, 4, 16, 10, 5, vec![1, 3, 6]).expect("valid parameters")
}

struct Workload {
    params: SystemParams,
    indices: Vec<mkse::core::RankedDocumentIndex>,
    queries: Vec<QueryIndex>,
}

fn random_workload(seed: u64, num_docs: usize) -> Workload {
    let params = small_params();
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = SchemeKeys::generate(&params, &mut rng);
    let indexer = DocumentIndexer::new(&params, &keys);
    let corpus = SyntheticCorpus::generate(
        &CorpusSpec {
            num_documents: num_docs,
            vocabulary_size: 60,
            keywords_per_document: 6,
            frequency_model: FrequencyModel::Uniform { lo: 1, hi: 8 },
        },
        &mut rng,
    );
    let indices: Vec<_> = corpus
        .documents
        .iter()
        .map(|d| indexer.index_document(d))
        .collect();

    // Query workload: single keywords, pairs drawn from real documents, and one
    // randomized query (randomization must not affect equivalence either).
    let pool = keys.random_pool_trapdoors(&params);
    let mut queries = Vec::new();
    for _ in 0..4 {
        let doc = &corpus.documents[rng.gen_range(0..corpus.documents.len())];
        let kws: Vec<&str> = doc.keywords().into_iter().take(2).collect();
        let tds = keys.trapdoors_for(&params, &kws);
        queries.push(
            QueryBuilder::new(&params)
                .add_trapdoors(&tds)
                .build(&mut rng),
        );
        let one = keys.trapdoors_for(&params, &kws[..1]);
        queries.push(
            QueryBuilder::new(&params)
                .add_trapdoors(&one)
                .with_randomization(&pool)
                .build(&mut rng),
        );
    }
    Workload {
        params,
        indices,
        queries,
    }
}

#[test]
fn sharded_search_is_bit_identical_to_sequential_reference() {
    for (seed, num_docs) in [(1u64, 23), (2, 64), (3, 5), (4, 100)] {
        let wl = random_workload(seed, num_docs);
        let mut reference = CloudIndex::new(wl.params.clone());
        reference.insert_all(wl.indices.iter().cloned()).unwrap();

        for shards in SHARD_COUNTS {
            let mut engine = SearchEngine::sharded(wl.params.clone(), shards);
            engine.insert_all(wl.indices.iter().cloned()).unwrap();
            assert_eq!(engine.len(), reference.len());

            for (qi, query) in wl.queries.iter().enumerate() {
                let ctx = format!("seed {seed}, {num_docs} docs, {shards} shards, query {qi}");
                let (seq_matches, seq_stats) = reference.search_ranked_with_stats(query);
                let (par_matches, par_stats) = engine.search_ranked_with_stats(query);
                assert_eq!(par_matches, seq_matches, "ranked matches differ: {ctx}");
                assert_eq!(par_stats, seq_stats, "merged stats differ: {ctx}");
                assert_eq!(
                    engine.search_unranked(query),
                    reference.search_unranked(query),
                    "unranked order differs: {ctx}"
                );
                assert_eq!(
                    engine.matching_metadata(query),
                    reference.matching_metadata(query),
                    "metadata differs: {ctx}"
                );
                assert_eq!(
                    engine.search_top(query, 3),
                    reference.search_top(query, 3),
                    "top-k differs: {ctx}"
                );
            }
        }
    }
}

#[test]
fn batched_execution_is_identical_to_sequential_singles() {
    let wl = random_workload(7, 48);
    let mut reference = CloudIndex::new(wl.params.clone());
    reference.insert_all(wl.indices.iter().cloned()).unwrap();

    for shards in SHARD_COUNTS {
        let mut engine = SearchEngine::sharded(wl.params.clone(), shards);
        engine.insert_all(wl.indices.iter().cloned()).unwrap();
        let batched = engine.search_batch_with_stats(&wl.queries);
        assert_eq!(batched.len(), wl.queries.len());
        for (query, (matches, stats)) in wl.queries.iter().zip(batched) {
            let (seq_matches, seq_stats) = reference.search_ranked_with_stats(query);
            assert_eq!(matches, seq_matches, "{shards} shards");
            assert_eq!(stats, seq_stats, "{shards} shards");
        }
    }
}

#[test]
fn fused_batch_with_duplicates_is_identical_to_sequential_singles() {
    // The fused batch sweep (one plane pass per shard for the whole batch, with
    // intra-batch dedup of repeated query indices) must be indistinguishable —
    // matches, ranks, order, per-query stats — from the sequential reference
    // answering each query alone, at every shard count, cache on and off.
    let wl = random_workload(17, 53);
    let mut reference = CloudIndex::new(wl.params.clone());
    reference.insert_all(wl.indices.iter().cloned()).unwrap();
    let mut batch = wl.queries.clone();
    batch.push(wl.queries[0].clone()); // duplicate of the first query
    batch.push(wl.queries[2].clone()); // and a duplicate further along

    for shards in SHARD_COUNTS {
        for cached in [false, true] {
            let mut engine = SearchEngine::sharded(wl.params.clone(), shards);
            if cached {
                engine.enable_cache(CacheConfig {
                    capacity_per_shard: 4,
                });
            }
            engine.insert_all(wl.indices.iter().cloned()).unwrap();
            for pass in ["cold", "warm"] {
                let batched = engine.search_batch_with_stats(&batch);
                assert_eq!(batched.len(), batch.len());
                for (qi, (query, (matches, stats))) in batch.iter().zip(&batched).enumerate() {
                    let ctx = format!("{shards} shards, cached={cached}, {pass}, query {qi}");
                    let (seq_matches, seq_stats) = reference.search_ranked_with_stats(query);
                    assert_eq!(matches, &seq_matches, "fused batch differs: {ctx}");
                    assert_eq!(stats, &seq_stats, "fused batch stats differ: {ctx}");
                }
            }
        }
    }
}

#[test]
fn steal_scheduler_heavy_configs_are_byte_identical() {
    // The work-stealing scheduler partitions every shard's plane into
    // chunk-range units and lets idle lanes steal; nothing about the reply —
    // matches, ranks, order, merged stats, cache counters — may depend on which
    // lane scanned which range. A corpus spanning several chunks makes the
    // granularity knob meaningful at low shard counts.
    let wl = random_workload(43, CHUNK + 200);
    let mut reference = CloudIndex::new(wl.params.clone());
    reference.insert_all(wl.indices.iter().cloned()).unwrap();
    let expected: Vec<_> = wl
        .queries
        .iter()
        .map(|q| reference.search_ranked_with_stats(q))
        .collect();
    // Fused batch with intra-batch duplicates: dedup must compose with stealing.
    let mut batch = wl.queries.clone();
    batch.push(wl.queries[0].clone());
    batch.push(wl.queries[1].clone());
    let expected_batch: Vec<_> = batch
        .iter()
        .map(|q| reference.search_ranked_with_stats(q))
        .collect();

    for shards in SHARD_COUNTS {
        let mut engine = SearchEngine::sharded(wl.params.clone(), shards);
        engine.insert_all(wl.indices.iter().cloned()).unwrap();
        let mut cached = SearchEngine::sharded(wl.params.clone(), shards)
            .with_result_cache(CacheConfig::default());
        cached.insert_all(wl.indices.iter().cloned()).unwrap();
        // A 1-lane cached twin scans whole shards: the cache layer sits above
        // the units, so its hit/miss/admission counters must match exactly.
        let mut one_lane_cached = SearchEngine::sharded(wl.params.clone(), shards)
            .with_scan_lanes(1)
            .with_result_cache(CacheConfig::default());
        one_lane_cached
            .insert_all(wl.indices.iter().cloned())
            .unwrap();

        for lanes in [1usize, 2, 3] {
            for granularity in [1usize, 8, 64] {
                let ctx = format!("{shards} shards, {lanes} lanes, granularity {granularity}");
                engine.set_scan_lanes(lanes);
                engine.set_steal_granularity(granularity);

                for (qi, query) in wl.queries.iter().enumerate() {
                    assert_eq!(
                        engine.search_ranked_with_stats(query),
                        expected[qi],
                        "stealing single differs: {ctx}, query {qi}"
                    );
                }
                let batched = engine.search_batch_with_stats(&batch);
                assert_eq!(batched.len(), batch.len());
                for (qi, got) in batched.iter().enumerate() {
                    assert_eq!(
                        got, &expected_batch[qi],
                        "stealing fused batch differs: {ctx}, query {qi}"
                    );
                }

                // Cache counters do not depend on unit size: start both
                // caches cold, run a cold + warm pass, compare replies and
                // counters.
                for eng in [&mut cached, &mut one_lane_cached] {
                    eng.clear_cache();
                    eng.reset_cache_stats();
                }
                cached.set_scan_lanes(lanes);
                cached.set_steal_granularity(granularity);
                for pass in ["cold", "warm"] {
                    for (qi, query) in wl.queries.iter().enumerate() {
                        assert_eq!(
                            cached.search_ranked_with_stats(query),
                            expected[qi],
                            "cached stealing differs: {ctx}, {pass}, query {qi}"
                        );
                        assert_eq!(
                            one_lane_cached.search_ranked_with_stats(query),
                            expected[qi],
                            "1-lane cached differs: {ctx}, {pass}, query {qi}"
                        );
                    }
                    let warm_batch = cached.search_batch_with_stats(&batch);
                    for (qi, got) in warm_batch.iter().enumerate() {
                        assert_eq!(
                            got, &expected_batch[qi],
                            "cached stealing batch differs: {ctx}, {pass}, query {qi}"
                        );
                    }
                    assert_eq!(
                        one_lane_cached.search_batch_with_stats(&batch),
                        expected_batch,
                        "1-lane cached batch differs: {ctx}, {pass}"
                    );
                    assert_eq!(
                        cached.cache_stats(),
                        one_lane_cached.cache_stats(),
                        "cache counters must not depend on unit size: {ctx}, {pass}"
                    );
                }
            }
        }
    }
}

#[test]
fn per_document_lookup_agrees_across_layouts() {
    let wl = random_workload(11, 37);
    let mut reference = CloudIndex::new(wl.params.clone());
    reference.insert_all(wl.indices.iter().cloned()).unwrap();
    for shards in SHARD_COUNTS {
        let mut engine = SearchEngine::sharded(wl.params.clone(), shards);
        engine.insert_all(wl.indices.iter().cloned()).unwrap();
        for idx in &wl.indices {
            assert_eq!(
                engine.document_index(idx.document_id),
                reference.document_index(idx.document_id)
            );
        }
        assert!(engine.document_index(u64::MAX).is_none());
    }
}

#[test]
fn cached_execution_is_byte_identical_at_every_shard_count() {
    for (seed, num_docs) in [(21u64, 23), (22, 64), (23, 5), (24, 100)] {
        let wl = random_workload(seed, num_docs);
        let mut reference = CloudIndex::new(wl.params.clone());
        reference.insert_all(wl.indices.iter().cloned()).unwrap();

        for shards in SHARD_COUNTS {
            let mut engine =
                SearchEngine::sharded(wl.params.clone(), shards).with_result_cache(CacheConfig {
                    capacity_per_shard: 4,
                });
            engine.insert_all(wl.indices.iter().cloned()).unwrap();

            // Two passes: the first admits (cold), the second hits (warm). The
            // tiny capacity also exercises LRU eviction mid-workload.
            for pass in ["cold", "warm"] {
                for (qi, query) in wl.queries.iter().enumerate() {
                    let ctx = format!(
                        "seed {seed}, {num_docs} docs, {shards} shards, query {qi}, {pass}"
                    );
                    let (seq_matches, seq_stats) = reference.search_ranked_with_stats(query);
                    let (par_matches, par_stats) = engine.search_ranked_with_stats(query);
                    assert_eq!(par_matches, seq_matches, "ranked matches differ: {ctx}");
                    assert_eq!(par_stats, seq_stats, "merged stats differ: {ctx}");
                    assert_eq!(
                        engine.search_top(query, 3),
                        reference.search_top(query, 3),
                        "top-k differs: {ctx}"
                    );
                }
            }
            // Batched execution against the same (now warm) cache.
            let batched = engine.search_batch_with_stats(&wl.queries);
            for (query, (matches, stats)) in wl.queries.iter().zip(batched) {
                let (seq_matches, seq_stats) = reference.search_ranked_with_stats(query);
                assert_eq!(
                    matches, seq_matches,
                    "cached batch differs: {shards} shards"
                );
                assert_eq!(
                    stats, seq_stats,
                    "cached batch stats differ: {shards} shards"
                );
            }
        }
    }
}

#[test]
fn interleaved_inserts_invalidate_cached_results_correctly() {
    let wl = random_workload(31, 60);
    let mut reference = CloudIndex::new(wl.params.clone());

    for shards in SHARD_COUNTS {
        let mut engine = SearchEngine::sharded(wl.params.clone(), shards)
            .with_result_cache(CacheConfig::default());
        reference = CloudIndex::new(wl.params.clone());

        // Interleave: upload a chunk, query everything twice (admit + hit),
        // upload the next chunk — cached results must never outlive the insert.
        for chunk in wl.indices.chunks(17) {
            reference.insert_all(chunk.iter().cloned()).unwrap();
            engine.insert_all(chunk.iter().cloned()).unwrap();
            for _ in 0..2 {
                for (qi, query) in wl.queries.iter().enumerate() {
                    let ctx = format!("{shards} shards, {} docs, query {qi}", reference.len());
                    assert_eq!(
                        engine.search_ranked_with_stats(query),
                        reference.search_ranked_with_stats(query),
                        "post-insert mismatch: {ctx}"
                    );
                }
            }
        }
    }
    assert_eq!(reference.len(), 60);
}

#[test]
fn snapshot_restore_cycle_preserves_cached_engine_equivalence() {
    let wl = random_workload(37, 41);
    let mut reference = CloudIndex::new(wl.params.clone());
    reference.insert_all(wl.indices.iter().cloned()).unwrap();

    for shards in SHARD_COUNTS {
        let mut original = SearchEngine::sharded(wl.params.clone(), shards)
            .with_result_cache(CacheConfig::default());
        original.insert_all(wl.indices.iter().cloned()).unwrap();
        // Warm the cache, snapshot, restore into a differently sharded cached
        // engine: the restored engine must answer identically (and from a cold
        // cache — stale entries must not survive the reload).
        for query in &wl.queries {
            let _ = original.search_ranked_with_stats(query);
        }
        let bytes = original.snapshot();

        let mut restored =
            SearchEngine::sharded(wl.params.clone(), 3).with_result_cache(CacheConfig::default());
        assert_eq!(restored.restore_snapshot(&bytes).unwrap(), wl.indices.len());
        let stats = restored.cache_stats().expect("cache enabled");
        assert_eq!(stats.hits, 0, "restored cache must start cold");
        for (qi, query) in wl.queries.iter().enumerate() {
            assert_eq!(
                restored.search_ranked_with_stats(query),
                reference.search_ranked_with_stats(query),
                "restored engine differs: {shards} shards, query {qi}"
            );
        }
    }
}

#[test]
fn snapshots_are_layout_independent() {
    use mkse::core::{deserialize_into, serialize_index_store};
    let wl = random_workload(13, 29);
    let mut reference = CloudIndex::new(wl.params.clone());
    reference.insert_all(wl.indices.iter().cloned()).unwrap();
    let reference_bytes = serialize_index_store(reference.store());

    for shards in SHARD_COUNTS {
        let mut engine = SearchEngine::sharded(wl.params.clone(), shards);
        engine.insert_all(wl.indices.iter().cloned()).unwrap();
        // Same bytes regardless of shard layout…
        assert_eq!(serialize_index_store(engine.store()), reference_bytes);
        // …and a restored engine behaves identically to the original.
        let mut restored = SearchEngine::sharded(wl.params.clone(), 3);
        deserialize_into(restored.store_mut(), &reference_bytes).unwrap();
        let query = &wl.queries[0];
        assert_eq!(
            restored.search_ranked_with_stats(query),
            reference.search_ranked_with_stats(query)
        );
    }
}
