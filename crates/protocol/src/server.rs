//! The cloud server (§3): stores encrypted documents plus searchable indices and answers
//! queries with pure bit comparisons.
//!
//! The server runs on the layered read path of `mkse-core`: a [`ShardedStore`]
//! partitions the indices round-robin across shards, and a [`SearchEngine`] scans the
//! shards in parallel. Results are bit-for-bit identical to the paper's sequential
//! scan (deterministic rank-then-id order); only the wall-clock time changes.
//!
//! An optional **result cache** ([`mkse_core::cache`]) sits in front of the shard
//! scans: [`CloudServer::enable_result_cache`] turns it on with a per-shard
//! capacity, repeated query indices are then answered without scanning, and the
//! [`OperationCounters`] split the Table 2 comparison count into work actually
//! performed (`binary_comparisons`) and work the cache saved
//! (`comparisons_saved_by_cache`). Replies carry a [`crate::messages::CacheReport`]
//! so users (and the benches) can observe hit rates end to end.
//!
//! Since the envelope redesign the server has exactly **one** entry point:
//! [`Service::call`], which executes any [`Request`] variant it serves (query,
//! batch query, document retrieval, upload, cache admin, snapshot/restore,
//! counters, info) and answers owner-side operations with
//! [`ProtocolError::Unsupported`]. The public convenience methods (uploads,
//! cache admin, snapshots) are thin shims over `call`; queries and document
//! retrieval go through `call` or a [`crate::Client`] only. A framed-codec round
//! trip replies byte-identically to a direct `call`
//! (`tests/envelope_equivalence.rs` asserts this across shard counts and cache
//! configurations).

use crate::counters::OperationCounters;
use crate::envelope::{Request, Response, ServerInfo, Service};
use crate::messages::{
    BatchQueryMessage, BatchSearchReply, CacheReport, DocumentReply, DocumentRequest,
    EncryptedDocumentTransfer, QueryMessage, SearchReply, SearchResultEntry, UploadMessage,
};
use crate::ProtocolError;
use mkse_core::cache::{CacheConfig, CacheEffect, CacheStats};
use mkse_core::document_index::RankedDocumentIndex;
use mkse_core::engine::SearchEngine;
use mkse_core::params::SystemParams;
use mkse_core::query::QueryIndex;
use mkse_core::search::{SearchMatch, SearchStats};
use mkse_core::storage::{IndexStore, ShardedStore};
use mkse_core::telemetry::{Counter, MetricsSnapshot, Stage, Telemetry, TelemetryLevel};
use std::collections::BTreeMap;

/// The cloud-server actor.
pub struct CloudServer {
    engine: SearchEngine<ShardedStore>,
    documents: BTreeMap<u64, EncryptedDocumentTransfer>,
    counters: OperationCounters,
    /// Registry value of [`Counter::RequestsServed`] at the last counter reset.
    /// `counters.requests_served` is a mirror of `registry − baseline`: the
    /// telemetry registry is the single source of the served-request count
    /// (Table 1 wire frames and Table 2 request totals read the same atoms),
    /// while the resettable Table 2 view subtracts this baseline.
    served_baseline: u64,
}

impl CloudServer {
    /// Create an empty server for the given public parameters, sharding the index
    /// across the host's available cores (capped at 8 — beyond that the per-query
    /// merge overhead outweighs extra scan threads for realistic store sizes).
    pub fn new(params: SystemParams) -> Self {
        let shards = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
        Self::with_shards(params, shards)
    }

    /// Create an empty server with an explicit shard count (e.g. 1 to reproduce the
    /// paper's sequential timings).
    pub fn with_shards(params: SystemParams, shards: usize) -> Self {
        CloudServer {
            engine: SearchEngine::sharded(params, shards),
            documents: BTreeMap::new(),
            counters: OperationCounters::new(),
            served_baseline: 0,
        }
    }

    /// Record one served request. The telemetry registry is the single source
    /// of truth ([`Telemetry::tally`] counts even at `Off`); the Table 2
    /// mirror is re-derived from it so `OperationCounters` and the registry
    /// can never drift apart.
    fn note_served(&mut self) {
        let telemetry = self.engine.telemetry();
        telemetry.tally(Counter::RequestsServed, 1);
        self.counters.requests_served =
            telemetry.counter(Counter::RequestsServed) - self.served_baseline;
    }

    /// Number of index shards this server scans in parallel.
    pub fn num_shards(&self) -> usize {
        self.engine.store().num_shards()
    }

    /// Enable the per-shard result cache with the given per-shard entry capacity.
    /// Off by default: turning it on never changes reply bytes (matches, ranks,
    /// order), only the work performed for repeated query indices — see the
    /// search-pattern note in [`mkse_core::cache`]. Shim over
    /// [`Request::EnableCache`].
    pub fn enable_result_cache(&mut self, capacity_per_shard: usize) {
        let _ = self.call(Request::EnableCache {
            capacity_per_shard: capacity_per_shard as u64,
        });
    }

    /// Disable the result cache, dropping every entry. Shim over
    /// [`Request::DisableCache`].
    pub fn disable_result_cache(&mut self) {
        let _ = self.call(Request::DisableCache);
    }

    /// True if the result cache is enabled.
    pub fn result_cache_enabled(&self) -> bool {
        self.engine.cache_enabled()
    }

    /// Cumulative cache effectiveness counters, or `None` when caching is off.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.engine.cache_stats()
    }

    /// Snapshot the searchable index into the versioned binary format of
    /// [`mkse_core::persistence`]. The result cache is never part of a snapshot.
    ///
    /// Semantically [`Request::SnapshotIndex`]; like [`CloudServer::restore_index`]
    /// the accounting (`requests_served`) matches the envelope path exactly, so
    /// counter parity holds no matter which surface a caller uses.
    pub fn snapshot_index(&mut self) -> Vec<u8> {
        self.note_served();
        self.engine.snapshot()
    }

    /// Restore an index snapshot, appending its documents. Every cache generation
    /// is bumped, so entries cached before the restore can never be served after.
    ///
    /// Semantically [`Request::RestoreIndex`], but executed on the borrowed
    /// slice: copying a whole-index snapshot into an owned envelope would
    /// double peak memory for a request that never crosses a wire here. The
    /// accounting (`requests_served`) matches the envelope path exactly.
    pub fn restore_index(&mut self, bytes: &[u8]) -> Result<usize, ProtocolError> {
        self.note_served();
        Ok(self.engine.restore_snapshot(bytes)?)
    }

    /// Accept the data owner's upload: searchable indices and encrypted documents.
    /// Shim over [`Request::Upload`].
    ///
    /// Rejects (without partial effect on the document bodies) uploads whose indices
    /// do not match the server's parameters or collide with stored document ids.
    pub fn upload(
        &mut self,
        indices: Vec<RankedDocumentIndex>,
        documents: Vec<EncryptedDocumentTransfer>,
    ) -> Result<(), ProtocolError> {
        match self.call(Request::Upload(UploadMessage { indices, documents })) {
            Response::Uploaded { .. } => Ok(()),
            Response::Error(e) => Err(e),
            other => unreachable!("Upload answered with {}", other.name()),
        }
    }

    fn exec_upload(&mut self, upload: UploadMessage) -> Result<u64, ProtocolError> {
        self.engine.insert_all(upload.indices)?;
        for doc in upload.documents {
            self.documents.insert(doc.document_id, doc);
        }
        Ok(self.engine.len() as u64)
    }

    /// Number of stored documents (σ).
    pub fn num_documents(&self) -> usize {
        self.engine.len()
    }

    /// Turn one engine execution into its reply and account it: the entries
    /// (with their index metadata) up to `top`, the [`CacheReport`], and the
    /// Table 2 counters — `binary_comparisons` counts the r-bit comparisons
    /// actually performed, `comparisons_saved_by_cache` the ones the result
    /// cache skipped (their sum is the cache-off Table 2 count), and
    /// `cache_served_replies` the replies produced without any scan.
    fn search_reply(
        &mut self,
        (matches, stats, effect): (Vec<SearchMatch>, SearchStats, CacheEffect),
        top: Option<usize>,
    ) -> SearchReply {
        self.counters.binary_comparisons += stats.comparisons - effect.saved_comparisons;
        self.counters.comparisons_saved_by_cache += effect.saved_comparisons;
        if effect.fully_cached() {
            self.counters.cache_served_replies += 1;
        }
        let limit = top.unwrap_or(matches.len());
        let entries = matches
            .into_iter()
            .take(limit)
            .map(|m| {
                let metadata = self
                    .engine
                    .document_index(m.document_id)
                    .map(|idx| idx.levels.clone())
                    .unwrap_or_default();
                SearchResultEntry {
                    document_id: m.document_id,
                    rank: m.rank,
                    metadata,
                }
            })
            .collect();
        SearchReply {
            matches: entries,
            cache: CacheReport::from(effect),
        }
    }

    /// A query (§4.3 + Algorithm 1): ranked search over every stored index,
    /// returning matching document ids, ranks and their index metadata. With
    /// the result cache enabled, a repeated query index skips the shard scans
    /// entirely; the reply's [`CacheReport`] says what happened.
    fn exec_query(&mut self, message: &QueryMessage) -> SearchReply {
        let query = QueryIndex::from_bits(message.query.clone());
        let execution = self.engine.search_ranked_with_effect(&query);
        self.search_reply(execution, message.top)
    }

    /// A batched query: every query of the batch is evaluated in a single
    /// **fused** pass over each shard (with the cache enabled, each shard scans
    /// exactly the unique queries that missed it; repeated query indices inside
    /// one batch scan once and fan out, reported in each reply's
    /// [`CacheReport`] exactly as if the queries had been sent one at a time).
    /// One [`SearchReply`] per query in request order; comparison counts
    /// accumulate exactly as if the queries had been sent individually.
    fn exec_batch_query(&mut self, message: &BatchQueryMessage) -> BatchSearchReply {
        let queries: Vec<QueryIndex> = message
            .queries
            .iter()
            .map(|bits| QueryIndex::from_bits(bits.clone()))
            .collect();
        let replies = self
            .engine
            .search_batch_with_effects(&queries)
            .into_iter()
            .map(|execution| self.search_reply(execution, message.top))
            .collect();
        BatchSearchReply { replies }
    }

    /// Execute a group of independent single-query envelopes — typically one
    /// [`Request::Query`] from each of several connections — as **one** fused
    /// scan-plane pass. This is the cross-client batcher's entry point
    /// (`mkse-net`): the engine's batch guarantees make every reply, its
    /// [`CacheReport`], and the [`OperationCounters`] deltas byte-identical to
    /// calling [`Service::call`] once per message in the same order, so the
    /// batcher stays invisible to every client. `requests_served` is bumped
    /// once per message (exactly as `call` would), and each reply honours its
    /// own message's `top` limit.
    pub fn call_query_group(&mut self, messages: &[QueryMessage]) -> Vec<Response> {
        let telemetry = self.engine.telemetry().clone();
        let _call_span = telemetry.span(Stage::ServiceCall);
        for _ in messages {
            self.note_served();
        }
        let queries: Vec<QueryIndex> = messages
            .iter()
            .map(|m| QueryIndex::from_bits(m.query.clone()))
            .collect();
        self.engine
            .search_batch_with_effects(&queries)
            .into_iter()
            .zip(messages)
            .map(|(execution, message)| Response::Search(self.search_reply(execution, message.top)))
            .collect()
    }

    fn exec_document_request(
        &mut self,
        request: &DocumentRequest,
    ) -> Result<DocumentReply, ProtocolError> {
        let mut documents = Vec::with_capacity(request.document_ids.len());
        for &id in &request.document_ids {
            let doc = self
                .documents
                .get(&id)
                .ok_or(ProtocolError::UnknownDocument(id))?;
            documents.push(doc.clone());
        }
        Ok(DocumentReply { documents })
    }

    /// Operation counters accumulated so far (binary comparisons only — the server does no
    /// cryptography, which is the point of the scheme). `requests_served` is a
    /// mirror of the telemetry registry's [`Counter::RequestsServed`] minus the
    /// last reset's baseline — one source backs both views.
    pub fn counters(&self) -> &OperationCounters {
        &self.counters
    }

    /// Reset the counters. The registry itself stays monotonic (snapshots never
    /// regress); the Table 2 view rebases on its current value instead.
    pub fn reset_counters(&mut self) {
        self.counters.reset();
        self.served_baseline = self.engine.telemetry().counter(Counter::RequestsServed);
    }

    /// Current telemetry recording level ([`TelemetryLevel::Off`] by default).
    pub fn telemetry_level(&self) -> TelemetryLevel {
        self.engine.telemetry_level()
    }

    /// Change the telemetry recording level at runtime. `&self`: the knob is a
    /// relaxed atomic on the shared registry.
    pub fn set_telemetry_level(&self, level: TelemetryLevel) {
        self.engine.set_telemetry_level(level);
    }

    /// Point-in-time copy of the telemetry registry (what
    /// [`Request::MetricsSnapshot`] answers). Read-only: taking a snapshot
    /// changes nothing the search path can observe.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.engine.metrics_snapshot()
    }

    /// The public parameters this server runs with.
    pub fn params(&self) -> &SystemParams {
        self.engine.params()
    }
}

impl Service for CloudServer {
    /// The server's single entry point: every operation it serves, behind one
    /// seam. Owner-side operations (trapdoor issuance, blinded decryption) are
    /// answered with [`ProtocolError::Unsupported`] — the request vocabulary is
    /// shared across parties, the serving duties are not.
    ///
    /// `requests_served` is bumped for every call, *before* execution, so a
    /// [`Request::Counters`] reply includes the request that fetched it. The
    /// count is tallied into the telemetry registry and mirrored back into
    /// [`OperationCounters`] — one registry-backed source for both.
    fn call(&mut self, request: Request) -> Response {
        let telemetry = self.engine.telemetry().clone();
        let _call_span = telemetry.span(Stage::ServiceCall);
        self.note_served();
        match request {
            Request::Query(message) => Response::Search(self.exec_query(&message)),
            Request::BatchQuery(message) => Response::BatchSearch(self.exec_batch_query(&message)),
            Request::Documents(request) => match self.exec_document_request(&request) {
                Ok(reply) => Response::Documents(reply),
                Err(e) => Response::Error(e),
            },
            Request::Upload(upload) => match self.exec_upload(upload) {
                Ok(documents) => Response::Uploaded { documents },
                Err(e) => Response::Error(e),
            },
            Request::EnableCache { capacity_per_shard } => {
                self.engine.enable_cache(CacheConfig {
                    capacity_per_shard: capacity_per_shard as usize,
                });
                Response::Ack
            }
            Request::DisableCache => {
                self.engine.disable_cache();
                Response::Ack
            }
            Request::CacheStats => Response::CacheStats(self.engine.cache_stats()),
            Request::SnapshotIndex => Response::Snapshot(self.engine.snapshot()),
            Request::RestoreIndex(bytes) => match self.engine.restore_snapshot(&bytes) {
                Ok(count) => Response::Restored {
                    documents: count as u64,
                },
                Err(e) => Response::Error(e.into()),
            },
            Request::Counters => Response::Counters(self.counters),
            Request::ResetCounters => {
                self.reset_counters();
                Response::Ack
            }
            Request::MetricsSnapshot => Response::MetricsReport(self.metrics_snapshot()),
            Request::ServerInfo => Response::Info(ServerInfo {
                shards: self.num_shards() as u64,
                documents: self.engine.len() as u64,
                index_bits: self.engine.params().index_bits as u64,
                rank_levels: self.engine.params().rank_levels() as u64,
                cache_enabled: self.engine.cache_enabled(),
            }),
            Request::Trapdoor(_) | Request::BlindDecrypt(_) => {
                Response::Error(ProtocolError::Unsupported(format!(
                    "{} is served by the data owner, not the cloud server",
                    request.name()
                )))
            }
            Request::RegisterNode(_) | Request::NodeHeartbeat(_) => {
                Response::Error(ProtocolError::Unsupported(format!(
                    "{} is served by the fleet coordinator, not the cloud server",
                    request.name()
                )))
            }
        }
    }

    /// The engine's registry: transports record framed wire traffic and
    /// encode/decode durations here, so one [`Request::MetricsSnapshot`]
    /// covers engine, scheduler, cache and wire together.
    fn telemetry(&self) -> Option<&Telemetry> {
        Some(self.engine.telemetry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_owner::{DataOwner, OwnerConfig};
    use mkse_core::query::QueryBuilder;
    use mkse_textproc::document::Document;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn populated_server() -> (DataOwner, CloudServer, StdRng) {
        let mut rng = StdRng::seed_from_u64(17);
        let mut owner = DataOwner::new(OwnerConfig::fast_for_tests(), &mut rng);
        let docs = vec![
            Document::from_text(0, "cloud privacy search encryption"),
            Document::from_text(1, "weather forecast rain"),
            Document::from_text(2, "cloud storage pricing"),
        ];
        let (indices, encrypted) = owner.prepare_documents(&docs, &mut rng);
        let mut server = CloudServer::new(owner.params().clone());
        server.upload(indices, encrypted).unwrap();
        (owner, server, rng)
    }

    fn call_query(server: &mut CloudServer, message: &QueryMessage) -> SearchReply {
        match server.call(Request::Query(message.clone())) {
            Response::Search(reply) => reply,
            other => panic!("Query answered with {}", other.name()),
        }
    }

    fn call_batch(server: &mut CloudServer, message: &BatchQueryMessage) -> BatchSearchReply {
        match server.call(Request::BatchQuery(message.clone())) {
            Response::BatchSearch(reply) => reply,
            other => panic!("BatchQuery answered with {}", other.name()),
        }
    }

    fn call_documents(
        server: &mut CloudServer,
        request: &DocumentRequest,
    ) -> Result<DocumentReply, ProtocolError> {
        match server.call(Request::Documents(request.clone())) {
            Response::Documents(reply) => Ok(reply),
            Response::Error(e) => Err(e),
            other => panic!("Documents answered with {}", other.name()),
        }
    }

    fn query_for(owner: &DataOwner, keywords: &[&str], rng: &mut StdRng) -> QueryMessage {
        let trapdoors = owner.scheme_keys().trapdoors_for(owner.params(), keywords);
        let pool = owner.random_pool_trapdoors();
        let q = QueryBuilder::new(owner.params())
            .add_trapdoors(&trapdoors)
            .with_randomization(&pool)
            .build(rng);
        QueryMessage {
            query: q.bits().clone(),
            top: None,
        }
    }

    #[test]
    fn query_returns_matching_documents_with_metadata() {
        let (owner, mut server, mut rng) = populated_server();
        assert_eq!(server.num_documents(), 3);
        // "cloud" is stemmed to "cloud"; documents 0 and 2 contain it.
        let reply = call_query(&mut server, &query_for(&owner, &["cloud"], &mut rng));
        let ids: Vec<u64> = reply.matches.iter().map(|m| m.document_id).collect();
        assert!(ids.contains(&0));
        assert!(ids.contains(&2));
        assert!(!ids.contains(&1));
        for m in &reply.matches {
            assert_eq!(m.metadata.len(), owner.params().rank_levels());
            assert!(m.rank >= 1);
        }
        assert!(server.counters().binary_comparisons >= 3);
    }

    #[test]
    fn top_limit_truncates_results() {
        let (owner, mut server, mut rng) = populated_server();
        let mut msg = query_for(&owner, &["cloud"], &mut rng);
        msg.top = Some(1);
        let reply = call_query(&mut server, &msg);
        assert_eq!(reply.matches.len(), 1);
    }

    #[test]
    fn document_request_returns_ciphertexts() {
        let (_, mut server, _) = populated_server();
        let request = DocumentRequest {
            document_ids: vec![0, 2],
        };
        let reply = call_documents(&mut server, &request).unwrap();
        assert_eq!(reply.documents.len(), 2);
        assert_eq!(reply.documents[0].document_id, 0);
        assert!(!reply.documents[0].ciphertext.is_empty());
    }

    #[test]
    fn unknown_document_is_an_error() {
        let (_, mut server, _) = populated_server();
        let request = DocumentRequest {
            document_ids: vec![99],
        };
        assert_eq!(
            call_documents(&mut server, &request),
            Err(ProtocolError::UnknownDocument(99))
        );
    }

    #[test]
    fn batched_queries_match_individual_queries() {
        let (owner, mut server, mut rng) = populated_server();
        let q1 = query_for(&owner, &["cloud"], &mut rng);
        let q2 = query_for(&owner, &["weather"], &mut rng);
        let individual = vec![call_query(&mut server, &q1), call_query(&mut server, &q2)];
        let singles_comparisons = server.counters().binary_comparisons;
        server.reset_counters();

        let batch = BatchQueryMessage {
            queries: vec![q1.query.clone(), q2.query.clone()],
            top: None,
        };
        let batched = call_batch(&mut server, &batch);
        assert_eq!(batched.replies, individual);
        // Comparison accounting is identical to sending the queries one by one.
        assert_eq!(server.counters().binary_comparisons, singles_comparisons);
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut owner = DataOwner::new(OwnerConfig::fast_for_tests(), &mut rng);
        let docs: Vec<Document> = (0..9u64)
            .map(|id| Document::from_text(id, "cloud storage privacy search"))
            .collect();
        let (indices, encrypted) = owner.prepare_documents(&docs, &mut rng);
        let mut sequential = CloudServer::with_shards(owner.params().clone(), 1);
        sequential
            .upload(indices.clone(), encrypted.clone())
            .unwrap();
        let mut sharded = CloudServer::with_shards(owner.params().clone(), 4);
        sharded.upload(indices, encrypted).unwrap();
        assert_eq!(sequential.num_shards(), 1);
        assert_eq!(sharded.num_shards(), 4);

        let msg = query_for(&owner, &["privacy"], &mut rng);
        assert_eq!(
            call_query(&mut sequential, &msg),
            call_query(&mut sharded, &msg)
        );
    }

    #[test]
    fn duplicate_upload_is_rejected() {
        let (_, mut server, mut rng) = populated_server();
        let mut owner2 = DataOwner::new(OwnerConfig::fast_for_tests(), &mut rng);
        let docs = vec![Document::from_text(0, "colliding document id")];
        let (indices, encrypted) = owner2.prepare_documents(&docs, &mut rng);
        assert!(matches!(
            server.upload(indices, encrypted),
            Err(ProtocolError::Store(_))
        ));
        assert_eq!(server.num_documents(), 3);
    }

    #[test]
    fn cached_replies_are_identical_and_accounted() {
        let (owner, mut server, mut rng) = populated_server();
        server.enable_result_cache(64);
        assert!(server.result_cache_enabled());
        let msg = query_for(&owner, &["cloud"], &mut rng);

        let first = call_query(&mut server, &msg);
        assert!(!first.cache.served_from_cache, "cold cache must scan");
        assert_eq!(first.cache.shard_hits, 0);
        let scanned = server.counters().binary_comparisons;
        assert!(scanned > 0);
        assert_eq!(server.counters().comparisons_saved_by_cache, 0);

        let second = call_query(&mut server, &msg);
        // Identical reply bytes; only the cache diagnostics differ.
        assert_eq!(second.matches, first.matches);
        assert!(second.cache.served_from_cache);
        assert_eq!(second.cache.saved_comparisons, scanned);
        // Work accounting: no new comparisons performed, all saved.
        assert_eq!(server.counters().binary_comparisons, scanned);
        assert_eq!(server.counters().comparisons_saved_by_cache, scanned);
        assert_eq!(server.counters().cache_served_replies, 1);
        let stats = server.cache_stats().unwrap();
        assert_eq!(stats.hits, server.num_shards() as u64);

        // An upload invalidates; the next query rescans and still matches.
        server.disable_result_cache();
        assert!(server.cache_stats().is_none());
        let uncached = call_query(&mut server, &msg);
        assert_eq!(uncached.matches, first.matches);
        assert_eq!(uncached.cache, CacheReport::default());
    }

    #[test]
    fn batch_queries_hit_the_cache_with_identical_replies() {
        let (owner, mut server, mut rng) = populated_server();
        let q1 = query_for(&owner, &["cloud"], &mut rng);
        let q2 = query_for(&owner, &["weather"], &mut rng);
        let batch = BatchQueryMessage {
            queries: vec![q1.query.clone(), q2.query.clone()],
            top: None,
        };
        let uncached = call_batch(&mut server, &batch);
        server.reset_counters();
        server.enable_result_cache(64);

        let cold = call_batch(&mut server, &batch);
        let logical = server.counters().binary_comparisons;
        let warm = call_batch(&mut server, &batch);
        for ((u, c), w) in uncached
            .replies
            .iter()
            .zip(cold.replies.iter())
            .zip(warm.replies.iter())
        {
            assert_eq!(u.matches, c.matches);
            assert_eq!(u.matches, w.matches);
            assert!(w.cache.served_from_cache);
        }
        assert_eq!(server.counters().binary_comparisons, logical);
        assert_eq!(server.counters().comparisons_saved_by_cache, logical);
        assert_eq!(server.counters().cache_served_replies, 2);
    }

    #[test]
    fn duplicate_queries_in_one_batch_dedup_and_account_like_sequential() {
        let (owner, mut server, mut rng) = populated_server();
        let q1 = query_for(&owner, &["cloud"], &mut rng);
        let q2 = query_for(&owner, &["weather"], &mut rng);
        // The batch repeats q1: a Zipf-style hot-keyword round trip.
        let batch = BatchQueryMessage {
            queries: vec![q1.query.clone(), q2.query.clone(), q1.query.clone()],
            top: None,
        };

        // Reference: the same three queries issued one at a time on an
        // identically configured server.
        let mut sequential = CloudServer::with_shards(owner.params().clone(), server.num_shards());
        let snapshot = server.snapshot_index();
        sequential.restore_index(&snapshot).unwrap();
        sequential.enable_result_cache(64);
        sequential.reset_counters();
        let individual = vec![
            call_query(&mut sequential, &q1),
            call_query(&mut sequential, &q2),
            call_query(&mut sequential, &q1),
        ];
        let sequential_counters = *sequential.counters();

        server.enable_result_cache(64);
        server.reset_counters();
        let batched = call_batch(&mut server, &batch);
        // Byte-identical replies, including each reply's CacheReport: the
        // duplicate is served as the cache hit sequential execution produces.
        assert_eq!(batched.replies, individual);
        assert!(batched.replies[2].cache.served_from_cache);
        assert!(batched.replies[2].cache.saved_comparisons > 0);
        // And the work accounting matches: the duplicate's comparisons are
        // counted as saved, not performed.
        let counters = server.counters();
        assert_eq!(
            counters.binary_comparisons,
            sequential_counters.binary_comparisons
        );
        assert_eq!(
            counters.comparisons_saved_by_cache,
            sequential_counters.comparisons_saved_by_cache
        );
        assert_eq!(counters.cache_served_replies, 1);
    }

    #[test]
    fn query_group_is_indistinguishable_from_sequential_calls() {
        let (owner, mut server, mut rng) = populated_server();
        let q1 = query_for(&owner, &["cloud"], &mut rng);
        let mut q2 = query_for(&owner, &["weather"], &mut rng);
        q2.top = Some(1);
        // The group repeats q1 — as if two clients share a hot keyword — and
        // carries a per-message `top` limit that must be honoured per reply.
        let group = vec![q1.clone(), q2.clone(), q1.clone()];

        // Reference: the same messages issued one `Service::call` at a time on
        // an identically configured twin.
        let mut sequential = CloudServer::with_shards(owner.params().clone(), server.num_shards());
        let snapshot = server.snapshot_index();
        sequential.restore_index(&snapshot).unwrap();
        sequential.enable_result_cache(64);
        sequential.reset_counters();
        let individual: Vec<Response> = group
            .iter()
            .map(|m| sequential.call(Request::Query(m.clone())))
            .collect();
        let sequential_counters = *sequential.counters();
        let sequential_cache = sequential.cache_stats();

        server.enable_result_cache(64);
        server.reset_counters();
        let grouped = server.call_query_group(&group);
        assert_eq!(grouped, individual);
        assert_eq!(*server.counters(), sequential_counters);
        assert_eq!(server.cache_stats(), sequential_cache);
        // And again warm: the group is served from cache exactly as the
        // sequential twin is.
        let warm_individual: Vec<Response> = group
            .iter()
            .map(|m| sequential.call(Request::Query(m.clone())))
            .collect();
        let warm_grouped = server.call_query_group(&group);
        assert_eq!(warm_grouped, warm_individual);
        assert_eq!(server.counters(), sequential.counters());
        assert_eq!(server.cache_stats(), sequential.cache_stats());
        // An empty group is a no-op that serves no requests.
        let served = server.counters().requests_served;
        assert!(server.call_query_group(&[]).is_empty());
        assert_eq!(server.counters().requests_served, served);
    }

    #[test]
    fn upload_invalidates_and_restore_starts_cold() {
        let (owner, mut server, mut rng) = populated_server();
        server.enable_result_cache(64);
        let msg = query_for(&owner, &["cloud"], &mut rng);
        let _ = call_query(&mut server, &msg);
        assert!(call_query(&mut server, &msg).cache.served_from_cache);

        // New upload: at least the written shards rescan, and results include
        // nothing stale.
        let mut owner2 = DataOwner::new(OwnerConfig::fast_for_tests(), &mut rng);
        let docs = vec![Document::from_text(77, "unrelated content entirely")];
        let (indices, encrypted) = owner2.prepare_documents(&docs, &mut rng);
        server.upload(indices, encrypted).unwrap();
        let after_upload = call_query(&mut server, &msg);
        assert!(!after_upload.cache.served_from_cache);

        // Snapshot → restore into a fresh cached server: identical matches, cold cache.
        let bytes = server.snapshot_index();
        let mut restored = CloudServer::with_shards(owner.params().clone(), 2);
        restored.enable_result_cache(64);
        assert_eq!(restored.restore_index(&bytes).unwrap(), 4);
        let replayed = call_query(&mut restored, &msg);
        assert_eq!(replayed.matches, after_upload.matches);
        assert_eq!(replayed.cache.shard_hits, 0, "restored cache must be cold");
        assert!(matches!(
            restored.restore_index(&bytes[..3]),
            Err(ProtocolError::Persistence(_))
        ));
    }

    #[test]
    fn metrics_snapshot_is_served_and_requests_served_reads_the_registry() {
        let (owner, mut server, mut rng) = populated_server();
        server.set_telemetry_level(TelemetryLevel::Counters);
        let _ = call_query(&mut server, &query_for(&owner, &["cloud"], &mut rng));
        let report = match server.call(Request::MetricsSnapshot) {
            Response::MetricsReport(snapshot) => snapshot,
            other => unreachable!("MetricsSnapshot answered with {}", other.name()),
        };
        assert_eq!(report.level, TelemetryLevel::Counters);
        assert!(report.counter("queries") >= 1);
        assert!(report.counter("shard_scans") >= server.num_shards() as u64);
        // One registry-backed source: the Table 2 mirror equals the registry.
        assert_eq!(
            report.counter("requests_served"),
            server.counters().requests_served
        );
        // Reset rebases the Table 2 view; the registry itself stays monotonic.
        server.reset_counters();
        assert_eq!(server.counters().requests_served, 0);
        let after = server.metrics_snapshot();
        assert!(after.counter("requests_served") >= report.counter("requests_served"));
        // Served-request accounting exists independently of the observability
        // plane: it keeps counting even at Off.
        server.set_telemetry_level(TelemetryLevel::Off);
        let _ = server.call(Request::ServerInfo);
        assert_eq!(server.counters().requests_served, 1);
    }

    #[test]
    fn server_counters_reset() {
        let (owner, mut server, mut rng) = populated_server();
        let _ = call_query(&mut server, &query_for(&owner, &["cloud"], &mut rng));
        assert!(server.counters().binary_comparisons > 0);
        server.reset_counters();
        assert_eq!(server.counters().binary_comparisons, 0);
    }
}
