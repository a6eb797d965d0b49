//! # mkse — Efficient and Secure Ranked Multi-Keyword Search on Encrypted Cloud Data
//!
//! This crate is the facade of the `mkse` workspace, a full reproduction of
//! Örencik & Savaş, *"Efficient and Secure Ranked Multi-Keyword Search on Encrypted Cloud
//! Data"* (PAIS @ EDBT 2012).
//!
//! It re-exports every sub-crate so downstream users (and the examples and integration tests
//! of this repository) can depend on a single crate:
//!
//! * [`crypto`] — from-scratch SHA-2, HMAC, big integers, RSA (with blinding) and AES-CTR.
//! * [`linalg`] — dense matrices and LU inversion (used by the Cao et al. MRSE baseline).
//! * [`textproc`] — tokenization, stemming, term frequencies and synthetic corpora.
//! * [`core`] — the paper's scheme: bit indices, trapdoors, ranked oblivious search,
//!   query randomization and its analytic model.
//! * [`baselines`] — Cao et al. MRSE (secure kNN), Wang et al. common secure indices, and the
//!   plaintext relevance-score ranking of Eq. (4).
//! * [`protocol`] — the three-party protocol (data owner / user / cloud server) with
//!   communication- and computation-cost accounting.
//! * [`net`] — the concurrent socket transport: a thread-per-connection TCP hub
//!   (plus an in-process `MemoryLink` twin for deterministic tests) that pumps
//!   length-prefixed frames into `Service::call`, with an adaptive cross-client
//!   batcher that coalesces concurrent single queries into one fused pass, and
//!   a resilience layer on top — deterministic seeded fault injection
//!   (`FaultyLink`), a retrying/reconnecting `ResilientClient`, and hub
//!   overload shedding with typed `Overloaded` pushback — and, above both, the
//!   shard fleet: a `Coordinator` that shard-server nodes (`NodeRunner`)
//!   register with over the framed codec, which scatter-gathers queries across
//!   live nodes and fails a dead node's shards over to survivors from
//!   snapshot + journal replay.
//!
//! ## Architecture: the layered server read path
//!
//! The paper describes the server as a single linear scan of r-bit comparisons over
//! all σ document indices (Eq. 3). This reproduction keeps that scan **bit-for-bit**
//! as its semantics, but splits the server into layers so the hottest path in
//! the system can use all available cores — and skip work it has already done:
//!
//! ```text
//!  mkse-net        Coordinator (a Service) ─▶    the shard fleet: nodes register
//!        │         per-node ResilientClients     over the framed codec (capabilities
//!        ▼         ─▶ node Hubs ─▶ CloudServers  in, shard assignment out; heartbeats
//!        │                                       carry each node's MetricsSnapshot;
//!        ▼                                       silence past the failure deadline
//!        │                                       marks a node dead); queries scatter
//!        ▼                                       to live shard-holders and merge by
//!        │                                       (rank desc, id asc); a dead node's
//!        ▼                                       shards re-ship to survivors from the
//!        │                                       coordinator mirror's per-shard
//!        ▼                                       snapshots + insert-journal replay —
//!        │                                       N nodes == 1 node, byte for byte
//!  mkse-net        ResilientClient ─▶ NetClient  the resilience layer: capped-
//!        │         ─▶ FaultyLink ─▶ any link     backoff retries with reconnect
//!        ▼                                       and resubmission of idempotent
//!        │                                       requests only (typed RetryUnsafe
//!        ▼                                       refusal otherwise); the hub sheds
//!        │                                       load past its in-flight budget
//!        ▼                                       with Overloaded { retry_after_ms };
//!        │                                       FaultyLink replays seeded fault
//!        ▼                                       plans (kills / tears / corruption)
//!  mkse-net        Hub: TCP acceptor +           thread-per-connection readers
//!        │         MemoryLink twin               reassemble length-prefixed frames
//!        ▼         (NetClient speaks both)       (torn reads, size/idle hygiene)
//!        │                                       and feed ONE dispatcher thread;
//!        ▼                                       the adaptive cross-client batcher
//!        │                                       coalesces concurrent Query frames
//!        ▼                                       (window / depth / barrier flushes)
//!        │                                       into one fused batch pass and
//!        ▼                                       de-muxes replies by request id
//!  mkse-protocol   Client  ──▶  wire codec  ──▶  Service::call   the ONE front door:
//!        │         (pipelined,  (length-prefixed (CloudServer,   every operation is a
//!        ▼          correlates   frames, version  DataOwner)     Request/Response
//!        │          replies by   byte + request                  envelope; measured
//!        ▼          id)          id)                             framed wire bytes
//!  mkse-protocol   CloudServer / SearchSession      actors, messages, cost ledger
//!        │                                          (incl. the batched-query message,
//!        ▼                                          CacheReport reply diagnostics)
//!  mkse-core       engine::SearchEngine<S>          single / batched / top-k ranked
//!        │    ├──  cache::ResultCache (optional)    search; scan lanes ≤ cores, decoupled
//!        ▼    │                                     from shard count; a work-stealing
//!        │    │                                     scheduler deals chunk-range units to
//!        │    │                                     per-lane deques (idle lanes steal),
//!        ▼    │                                     stitches results in unit order; merge
//!        │    │                                     by (rank desc, doc id asc); batches
//!        │    │                                     dedup repeated fingerprints and run
//!        │    │                                     ONE fused plane pass per shard
//!        ▼    └──  per-shard LRU keyed by           repeated query fingerprints skip
//!        │         QueryFingerprint, write-         the shard scan entirely
//!        ▼         generation invalidation
//!  mkse-core       storage::IndexStore (trait)      geometry-validated inserts,
//!        │         ├─ storage::VecStore             O(1) id lookup, shard slices,
//!        ▼         └─ storage::ShardedStore         insertion-ordinal bookkeeping,
//!        │                                          shard_of() for cache invalidation
//!  mkse-core       scanplane::ScanPlane (per shard) block-major (bit-sliced) arena the
//!        │                                          stores maintain on insert: level-1
//!        ▼                                          blocks in contiguous columns, upper
//!        │                                          levels doc-major (walked on match);
//!        ▼                                          query-aware block pruning + unrolled
//!        │                                          column sweep — the hot r-bit scan
//!        ▼                                          streams instead of pointer-chasing
//!  mkse-core       telemetry::Telemetry             the observability plane: lock-free
//!                  (one registry per engine,        relaxed-atomic counters/gauges +
//!                  observing every layer above)     log₂-bucket latency histograms,
//!                                                   runtime Off/Counters/Spans knob;
//!                                                   spans time Service::call, engine
//!                                                   dispatch, per-lane unit scans,
//!                                                   cache lookups and frame encode/
//!                                                   decode; surfaced over the wire as
//!                                                   Request::MetricsSnapshot, rendered
//!                                                   as Prometheus text or JSON
//! ```
//!
//! * **Storage** ([`core::storage`]): [`core::storage::VecStore`] is the single-shard
//!   contiguous layout (the sequential reference); [`core::storage::ShardedStore`]
//!   partitions documents round-robin across N shards and keeps an
//!   id → (shard, slot) map so metadata lookup is O(1) instead of the old O(σ) scan.
//! * **Scan plane** ([`core::scanplane`]): each shard's hot loop — the σ r-bit
//!   comparisons of Eq. (3) that dominate Figure 4(b) — runs on a bit-sliced
//!   [`core::ScanPlane`]: level-1 blocks of all documents packed into one
//!   contiguous arena (column = 64-bit block position, rows = slot order, chunked
//!   so appends never re-layout), upper levels packed document-major and walked
//!   only on match. Before sweeping, the query's **active block list** is
//!   computed once per query: any block where the query word is all-ones can
//!   never reject a document under `doc AND NOT query ≠ 0`, so it is skipped for
//!   the whole shard. The remaining columns stream through an unrolled,
//!   autovectorizer-friendly kernel into a per-shard match bitmap. All of this is
//!   a layout change only — matches, ranks, order, `SearchStats` (block skipping
//!   happens *inside* one r-bit comparison, so comparison counts are unchanged)
//!   and cache counters are byte-identical to the AoS reference, enforced in
//!   release mode by `mkse-core/tests/scanplane_equivalence.rs`. Pruning leaks
//!   nothing beyond §6's search-pattern observation: it is a function of the
//!   query bytes the server already sees plus the public geometry `r`, and the
//!   skipped work is the same for every document in the shard. The
//!   `fig4b_search` bench's layout sweep writes `BENCH_scan.json` tracking
//!   ns/query across layouts and shard counts.
//! * **Fused batch sweep** ([`core::ScanPlane::scan_ranked_batch`]): a b-query
//!   batch executed query-at-a-time would stream the whole arena b times; the
//!   fused kernel sweeps each 1024-document chunk **once** for the entire batch,
//!   testing every query's active blocks against the cache-hot columns into a
//!   query-major reject-accumulator matrix (queries grouped four to a register
//!   tile, with runtime-dispatched AVX2/AVX-512 variants over the same portable
//!   body). The arena crosses the memory bus once per batch instead of once per
//!   query (`BENCH_batch.json` records the depth sweep — ≥3× per-query
//!   throughput at depth 16 on the 64k-document workload), and the result is
//!   byte-identical to b independent single-query scans: same matches, ranks,
//!   order and per-query stats, enforced by the release-mode batch proptest in
//!   `scanplane_equivalence.rs`. Batching changes the *order* of memory
//!   accesses, never what the server observes — the §6 leakage story of the
//!   single sweep carries over verbatim.
//! * **Engine** ([`core::engine`]): executes queries shard-by-shard in parallel and
//!   merges per-shard matches and [`core::SearchStats`]. Merged output is provably
//!   identical to the sequential scan: the (rank, id) sort key is a total order, the
//!   stats are sums, and unranked results are re-ordered by insertion ordinal
//!   (`tests/sharded_engine_equivalence.rs` asserts all of this for shard counts
//!   1, 2, 7 and 16 on randomized corpora). Scan lanes are clamped to the host's
//!   available parallelism and fully decoupled from the shard count: the
//!   `set_scan_lanes(n)` runtime knob resizes the persistent worker pool, and
//!   one **work-stealing executor** runs every scan: with more than one lane it
//!   carves every shard's plane into chunk-range units (`set_steal_granularity`
//!   chunks each), deals them to per-lane lock-free deques, and lets idle lanes
//!   steal from victims' tails — an oversharded store never serializes whole
//!   shards onto lanes, and a wide host keeps every lane busy regardless of the
//!   shard geometry; with one lane (and for unranked/metadata scans) a unit is
//!   a whole shard. Each unit's partial result counts exactly the documents of
//!   its range, and results are stitched in unit order before the (rank, id)
//!   merge, so replies and per-query stats are byte-identical to the
//!   sequential reference and cache counters to a 1-lane engine's (the
//!   steal-heavy sweeps in both equivalence suites enforce this at every
//!   shards × lanes × granularity point). A single query and a batch share
//!   one ranked body: it deduplicates repeated query fingerprints inside a
//!   batch (hot Zipf keywords scan once and fan out, with the duplicates
//!   accounted as the cache hits sequential execution would report) and hands
//!   the executor the whole remaining query set for fused plane passes over
//!   the missed shards.
//! * **Cache** ([`core::cache`]): an optional per-shard LRU of shard-scan results,
//!   keyed by a collision-checked [`core::QueryFingerprint`] of the query bits.
//!   Per-shard **write generations** invalidate exactly the shard an insert landed
//!   in; snapshots exclude the cache, and restoring bumps every generation so no
//!   stale entry survives a reload. Cached and uncached execution are byte-identical
//!   (the equivalence suite runs cold, warm, interleaved-insert and snapshot/restore
//!   cycles); only wall-clock time and *performed* comparisons change.
//! * **Protocol** ([`protocol`]): `CloudServer` runs on a sharded engine (shard count
//!   defaults to the host's cores, capped at 8; `CloudServer::with_shards` pins it —
//!   1 reproduces the paper's sequential timings). The `BatchQueryMessage` /
//!   `BatchSearchReply` pair carries many queries per round trip at exactly `b·r`
//!   bits; the server answers the batch in one pass over each shard, scanning only
//!   the (query, shard) pairs the cache missed. `CloudServer::enable_result_cache`
//!   turns caching on; replies carry a `CacheReport` and the `OperationCounters`
//!   split comparisons into performed vs saved-by-cache.
//! * **Envelope / wire / client** ([`protocol::envelope`], [`protocol::wire`],
//!   [`protocol::client`]): every server operation — queries, retrieval, upload,
//!   cache admin, snapshot/restore, counters — is one variant of a versioned
//!   `Request` enum answered by a `Response`, behind a single `Service::call`
//!   entry point (`CloudServer` serves search-side requests, `DataOwner` the
//!   trapdoor/blind-decryption side). The wire codec frames envelopes as
//!   length-prefixed bytes with a version byte and a request id, so the
//!   `Client` — the front door every session, test and example speaks through —
//!   can **pipeline**: submit a window of requests, flush once, and correlate
//!   replies by id out of order. Because every exchange crosses the codec, the
//!   `CostLedger` records measured framed wire bytes next to the analytic
//!   Table 1 bits. Queries and document retrieval have no other server entry
//!   point than `Service::call`.
//! * **Transport / batcher** ([`net`]): the [`net::Hub`] owns a `Service` on a
//!   single dispatcher thread and accepts any number of concurrent connections
//!   (TCP via `bind_tcp`, or deterministic in-process [`net::MemoryLink`]s via
//!   `connect_memory`). Per-connection reader threads reassemble frames across
//!   arbitrary fragmentation, enforce a max frame size and an idle timeout
//!   (violations answer with a typed `ProtocolError::Transport` and poison only
//!   that connection), and apply a max-in-flight backpressure window. The
//!   **adaptive cross-client batcher** holds single `Request::Query` frames for
//!   a sub-millisecond collection window (immediate dispatch when only one
//!   connection is active or the batch hits depth `b`; any non-query flushes as
//!   a barrier first) and executes the group through the engine's fused batch
//!   path — so N chatty clients get the amortized memory traffic of PR 5's
//!   `BatchQueryMessage` without coordinating with each other. Both layers are
//!   invisible: replies, `SearchStats` and cache counters are byte-identical
//!   to the same requests issued sequentially in-process, enforced by the
//!   journal-replay oracle in `tests/net_equivalence.rs`, and graceful
//!   shutdown drains every accepted frame before the dispatcher exits.
//! * **Resilience** ([`net::ResilientClient`], [`net::FaultyLink`]): links
//!   die, and a loaded hub must degrade gracefully rather than queue without
//!   bound. [`net::FaultyLink`] wraps any `LinkReader`/`LinkWriter` pair in a
//!   deterministic seeded fault plan — byte-budget kills, torn writes, bit
//!   corruption, injected delays — so every chaos schedule is replayable from
//!   its seed. [`net::ResilientClient`] wraps the pipelined `NetClient` with a
//!   [`net::RetryPolicy`] (attempt budget, capped exponential backoff,
//!   per-request deadline): it reconnects across link deaths and resubmits
//!   in-flight *idempotent* requests, while non-idempotent operations
//!   (upload, cache admin, restore, counter reset) fail with a typed
//!   `ClientError::RetryUnsafe` unless the caller opts in — at-most-once
//!   execution is the default, never silently violated. The hub enforces a
//!   hub-wide in-flight budget and answers excess queries *before execution*
//!   with a wire-codec'd `TransportError::Overloaded { retry_after_ms }`,
//!   which the client honors as a backoff floor (and, because the shed
//!   request never executed, may safely retry regardless of idempotency).
//!   The oracle is conservation plus equivalence: every attempt lands in
//!   exactly one bucket (`attempts == successes + sheds + link_faults`), and
//!   every *completed* reply is byte-identical to the hub journal's
//!   sequential twin replay (`tests/net_chaos.rs`, release mode in CI;
//!   `fig4b_resil` re-asserts it before timing and `BENCH_resil.json`
//!   records that retries buy 100% completion under fault levels that cost a
//!   retry-less client about a quarter of its answers).
//! * **Fleet** ([`net::Coordinator`], [`net::NodeRunner`]): one machine is a
//!   ceiling, so the shard seam distributes. A [`net::NodeRunner`] is a
//!   `CloudServer` behind its own hub plus a control-plane client; it joins
//!   the fleet with `Request::RegisterNode` (capabilities in, shard
//!   assignment out) and stays in it with `Request::NodeHeartbeat` beats
//!   carrying its own `MetricsSnapshot` — the health refresh *is* the
//!   existing metrics envelope. The [`net::Coordinator`] (itself a `Service`,
//!   servable by a hub) grants global shards up to each node's capacity,
//!   sweeps heartbeat deadlines on every call, scatter-gathers queries across
//!   live shard-holders through per-node `ResilientClient`s and merges by
//!   (rank desc, id asc) exactly as the engine's merge point does. It keeps a
//!   full mirror `ShardedStore` fed by the same insert path (same errors,
//!   same partial-upload semantics), so when a node dies — deadline missed or
//!   retries exhausted — its shards re-ship to the fewest-loaded survivors as
//!   a layout-independent per-shard checkpoint (`serialize_shard` →
//!   `RestoreIndex`) plus the insert journal since (`Upload`), cascading
//!   recursively if a survivor dies mid-shipment. Node clients never retry
//!   non-idempotent forwards: an ambiguous write fails the node over and
//!   re-ships authoritative state, so writes are fleet-wide at-most-once.
//!   The oracle is the house invariant distributed: N nodes == 1 node == the
//!   sequential scan, byte for byte, proven by `tests/fleet_chaos.rs` (nodes
//!   killed mid-query, mid-failover and during registration on exact seeded
//!   byte budgets, twin-replay equality, corpus re-pinned after every
//!   failover, same-seed reproducibility; release mode in CI) and priced by
//!   `fig4b_fleet` in `BENCH_fleet.json`.
//!
//! **Picking a shard count**: shards parallelize a memory-bandwidth-light linear scan,
//! so physical cores is the right default; past ~8 shards the per-query spawn+merge
//! overhead dominates for stores under ~10⁵ documents (see the `fig4b_search` bench's
//! shard sweep). Sharding never changes results, only wall-clock time, so tuning it
//! is purely an operational decision.
//!
//! **Search-pattern note (cache privacy)**: the fingerprint is a function of the
//! query index bytes the server receives anyway, so recognizing a repeat is exactly
//! the search pattern the server already observes (§6 builds its attack model on
//! it) — caching reveals nothing new. Symmetrically, query randomization (§6) makes
//! repeated keyword searches arrive as *different* bytes, which correctly miss the
//! cache: the privacy knob and the performance knob are the same dial, and the
//! `cached_session` example shows both positions.
//!
//! The same argument covers the work-stealing scheduler: which lane scans which
//! chunk range reorders only the server's *own* memory accesses across its own
//! threads. The work performed is identical (same comparisons, same per-range
//! arithmetic, same replies, stats and counters), and the access pattern remains
//! a function of the query bytes the server already observes plus the public
//! geometry — scheduling, like batching, decides *when and where* the server
//! computes, never *what* can be observed (§6's leakage model is untouched).
//!
//! The cross-client batcher extends the same argument across connections:
//! coalescing queries that arrived within one collection window reorders only
//! the server's *own* memory accesses over requests it has already observed.
//! Each request's bytes, its reply, its `SearchStats` and its cache counters
//! are unchanged (the fused group is byte-identical to sequential execution),
//! and which requests share a window is a function of arrival timing the
//! server observes anyway — batching is scheduling, not a new channel, and no
//! client learns anything about another client's queries from it (§6's
//! per-query leakage profile is untouched).
//!
//! The resilience layer keeps the model intact from the other side of the
//! wire: a retry retransmits bytes the adversary has *already observed* — a
//! resubmission is exactly the repeated-query observation §6's search-pattern
//! leakage already grants, carrying no new information. Shedding is a
//! function of server-side load (the hub's in-flight count), which the
//! timing channel already exposes to any client measuring its own latency,
//! and `retry_after_ms` is a server-chosen constant rather than a
//! data-dependent quantity. Fault injection itself lives strictly on the
//! client side of the wire. Resilience changes *when and how often* bytes
//! cross the wire, never *what* can be computed from them — no new
//! observation channel opens (§6's leakage model is untouched once more).
//!
//! The fleet extends it across machines: registration and heartbeat traffic
//! is server-side topology exchange — capabilities, shard assignments and
//! each node's own `MetricsSnapshot` (already argued above) — a function of
//! fleet membership and self-observation, never of any query's bytes, so it
//! is not query-dependent and opens no new channel. Scatter frames forward
//! exactly the query bytes the coordinator already observed to the nodes
//! holding the relevant shards, and shard re-shipment moves index bytes the
//! cloud side already holds between cloud-side processes. Which node holds
//! which shard is — like lane scheduling and cross-client batching — a
//! where-to-compute decision: no node learns anything about a query beyond
//! the §6 observations the single server already made.
//!
//! And it covers the telemetry plane ([`core::telemetry`]) once more: every
//! recorded quantity — stage durations, lane steal counts, per-shard cache
//! hit/miss tallies, framed byte totals — is a function of bytes the server
//! already observes (its own requests, replies and memory accesses) plus the
//! public geometry. Recording is invisible by construction: at every
//! [`core::TelemetryLevel`], replies, `SearchStats`, cache counters and wire
//! bytes (the metrics op itself aside) are byte-identical to `Off`, enforced
//! by the Off-vs-Spans twin sweep in `scanplane_equivalence.rs`. The registry
//! observes the computation; it never participates in it, so the metrics
//! plane opens no channel §6 does not already grant the adversary.
//!
//! ## Quickstart
//!
//! The [`protocol::Client`] is the front door: upload and query both travel as
//! framed `Request`/`Response` envelopes, and the client measures the real
//! framed wire bytes of every exchange.
//!
//! ```
//! use mkse::core::{SystemParams, SchemeKeys, DocumentIndexer, QueryBuilder};
//! use mkse::protocol::{Client, CloudServer, QueryMessage};
//! use rand::SeedableRng;
//!
//! let params = SystemParams::default();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let keys = SchemeKeys::generate(&params, &mut rng);
//! let indexer = DocumentIndexer::new(&params, &keys);
//!
//! // A 2-shard cloud server behind the envelope client; the upload is a
//! // framed Request::Upload (index-only here — no encrypted bodies needed).
//! let mut server = Client::new(CloudServer::with_shards(params.clone(), 2));
//! server.upload(vec![
//!     indexer.index_keywords(0, &["cloud", "privacy", "search"]),
//!     indexer.index_keywords(1, &["weather", "forecast"]),
//! ], vec![]).unwrap();
//!
//! // Query for "privacy" AND "search", with query randomization enabled.
//! let trapdoors = keys.trapdoors_for(&params, &["privacy", "search"]);
//! let pool = keys.random_pool_trapdoors(&params);
//! let query = QueryBuilder::new(&params)
//!     .add_trapdoors(&trapdoors)
//!     .with_randomization(&pool)
//!     .build(&mut rng);
//! let reply = server.query(&QueryMessage { query: query.bits().clone(), top: None }).unwrap();
//! assert_eq!(reply.matches.len(), 1);
//! assert_eq!(reply.matches[0].document_id, 0);
//! // Every exchange crossed the framed codec — the measured cost is known.
//! assert!(server.wire_stats().bytes_sent > 0);
//! ```

pub use mkse_baselines as baselines;
pub use mkse_core as core;
pub use mkse_crypto as crypto;
pub use mkse_linalg as linalg;
pub use mkse_net as net;
pub use mkse_protocol as protocol;
pub use mkse_textproc as textproc;

/// Semantic version of the workspace facade.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
