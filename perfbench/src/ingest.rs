//! `ingest_mixed`: one generator thread on two connections to one default
//! `CloudServer` (result cache on, 64 entries per shard) preloaded with 8,000
//! documents. The owner connection carries single-document uploads, each
//! indexed with `DocumentIndexer` inside the timed operation; the user
//! connection carries top-10 queries drawn Zipf(1.1) over 64 hot query
//! messages. A fixed seeded interleave of 1 upload per 4 queries, sized from
//! `--seconds`, so every run ends on the same corpus with the same cache
//! history. Each upload invalidates its shard's cache entries, and the second
//! open connection makes every query wait out the batch window.

use crate::common::*;
use crate::json::Json;
use crate::layers;
use crate::stats::ratio;
use crate::trace::{self, TracedService};
use mkse_bench::{BenchFixture, ZipfSampler};
use mkse_core::bitindex::BitIndex;
use mkse_core::telemetry::TelemetryLevel;
use mkse_core::{DocumentIndexer, RankedDocumentIndex, Telemetry};
use mkse_net::{Hub, HubConfig, HubHandle, ResilientClient};
use mkse_protocol::{CloudServer, Request, Response, Service, UploadMessage};
use mkse_textproc::document::Document;
use rand::Rng;
use std::time::Instant;

const HOT: usize = 64;
const ZIPF_EXPONENT: f64 = 1.1;
const CACHE_PER_SHARD: usize = 64;
/// Queries per upload in the interleave.
const QUERIES_PER_UPLOAD: usize = 4;
/// Interleave cycles (1 upload + 4 queries) per `--seconds`: about one
/// second of work per 330 cycles on a 2-core x86-64 host.
const CYCLES_PER_SECOND: f64 = 330.0;

#[derive(Clone, Copy)]
enum Op {
    /// Upload corpus document `docs + n`.
    Upload(usize),
    /// Query hot message `k`.
    Query(usize),
}

struct Inputs {
    fx: BenchFixture,
    docs: usize,
    preload: Vec<RankedDocumentIndex>,
    hot: Vec<Request>,
    ops: Vec<Op>,
    /// The twin's replies to the warm-up (every hot query once) and to `ops`.
    warmup_expected: Vec<Response>,
    expected: Vec<Response>,
}

struct Running {
    hub: HubHandle,
    telemetry: Telemetry,
    shards: usize,
    owner: ResilientClient,
    user: ResilientClient,
    warmup_failed: u64,
}

fn server(fx: &BenchFixture) -> CloudServer {
    let mut server = CloudServer::new(fx.params.clone());
    server.enable_result_cache(CACHE_PER_SHARD);
    server
}

fn setup(cfg: &RunConfig, inp: &Inputs) -> Running {
    let fx = fixture(inp.docs + inp.ops.len() / (QUERIES_PER_UPLOAD + 1));
    let preload = fx
        .indexer()
        .index_documents(&fx.corpus.documents[..inp.docs]);
    let server = server(&fx);
    let shards = server.num_shards();
    let telemetry = server
        .telemetry()
        .expect("CloudServer keeps a registry")
        .clone();
    let hub = Hub::spawn(TracedService::new(server, false), HubConfig::default());
    let addr = hub.bind_tcp("127.0.0.1:0").expect("bind loopback");
    let mut owner = tcp_client(addr, cfg.trace, 1_000_000_001);
    let reply = owner
        .call(&Request::Upload(UploadMessage {
            indices: preload,
            documents: vec![],
        }))
        .expect("initial upload");
    assert_eq!(
        reply,
        Response::Uploaded {
            documents: inp.docs as u64
        }
    );
    let mut user = tcp_client(addr, cfg.trace, 2_000_000_001);
    let mut warmup_failed = 0;
    for (request, expected) in inp.hot.iter().zip(&inp.warmup_expected) {
        match user.call(request) {
            Ok(ref r) if r == expected => {}
            _ => warmup_failed += 1,
        }
    }
    Running {
        hub,
        telemetry,
        shards,
        owner,
        user,
        warmup_failed,
    }
}

fn teardown(run: Running) -> u64 {
    drop(run.owner);
    drop(run.user);
    run.hub.shutdown().sheds
}

/// One owner upload as the benchmark times it: index the document with
/// `DocumentIndexer`, send a single-document `Upload`, wait for the ack.
/// Correct when the reply equals the twin's.
fn upload_one(
    owner: &mut ResilientClient,
    indexer: &DocumentIndexer<'_>,
    doc: &Document,
    expected: &Response,
) -> bool {
    let id = owner.next_request_id();
    trace::scope("client.upload", id, 1, || {
        let index = trace::scope("indexer.index", 0, 1, || indexer.index_document(doc));
        let reply = owner.call(&Request::Upload(UploadMessage {
            indices: vec![index],
            documents: vec![],
        }));
        matches!(reply, Ok(ref r) if r == expected)
    })
}

/// Run `ops[range]` in order, checking every reply against the twin's.
fn drive(
    inp: &Inputs,
    sys: &mut Running,
    range: std::ops::Range<usize>,
    searches: &mut Phase,
    uploads: &mut Phase,
    cache: &mut (u64, u64),
) {
    let indexer = inp.fx.indexer();
    let start = Instant::now();
    for i in range {
        let began = Instant::now();
        let (ok, phase) = match inp.ops[i] {
            Op::Upload(n) => {
                let doc = &inp.fx.corpus.documents[inp.docs + n];
                let ok = upload_one(&mut sys.owner, &indexer, doc, &inp.expected[i]);
                (ok, &mut *uploads)
            }
            Op::Query(k) => {
                let id = sys.user.next_request_id();
                let reply = trace::scope("client.search", id, 1, || sys.user.call(&inp.hot[k]));
                let ok = matches!(reply, Ok(ref r) if *r == inp.expected[i]);
                if let Ok(Response::Search(r)) = &reply {
                    cache.0 += r.cache.shard_hits;
                    cache.1 += r.cache.shard_misses;
                }
                (ok, &mut *searches)
            }
        };
        phase.note(start, began, ok, 1);
    }
    // Both kinds share the phase's wall clock: rates are per second of the
    // mixed phase.
    let wall = start.elapsed().as_secs_f64();
    searches.wall_s = wall;
    uploads.wall_s = wall;
}

fn counters(client: &mut ResilientClient) -> (u64, u64, u64) {
    let c = match client.call(&Request::Counters).expect("counters") {
        Response::Counters(c) => c,
        other => panic!("Counters answered with {}", other.name()),
    };
    let invalidations = match client.call(&Request::CacheStats).expect("cache stats") {
        Response::CacheStats(Some(s)) => s.invalidations,
        other => panic!("CacheStats answered with {}", other.name()),
    };
    (
        c.binary_comparisons,
        c.comparisons_saved_by_cache,
        invalidations,
    )
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let docs = cfg.size(8_000, 400);
    let hot = cfg.size(HOT, 16);
    let cycles = if cfg.tiny {
        20
    } else {
        (cfg.seconds * CYCLES_PER_SECOND).round().max(2.0) as usize
    };

    let fx = fixture(docs + cycles);
    let indexer = fx.indexer();
    let preload = indexer.index_documents(&fx.corpus.documents[..docs]);
    let hot: Vec<Request> = build_queries(&fx, hot, docs, &mut cfg.rng(1))
        .into_iter()
        .map(Request::Query)
        .collect();
    let zipf = ZipfSampler::new(hot.len(), ZIPF_EXPONENT);
    let mut rng = cfg.rng(2);
    let mut ops = Vec::with_capacity(cycles * (QUERIES_PER_UPLOAD + 1));
    for cycle in 0..cycles {
        let upload_at = rng.gen_range(0..=QUERIES_PER_UPLOAD);
        for slot in 0..=QUERIES_PER_UPLOAD {
            ops.push(if slot == upload_at {
                Op::Upload(cycle)
            } else {
                Op::Query(zipf.sample(&mut rng))
            });
        }
    }
    // The twin replays the same history sequentially: preload, warm-up, ops.
    let mut twin = server(&fx);
    twin.upload(preload.clone(), vec![]).expect("twin upload");
    let warmup_expected: Vec<Response> = hot.iter().map(|r| twin.call(r.clone())).collect();
    // Indexing the uploads in one pass (keyword indices memoized) gives the
    // same indices as the per-document calls the timed operations make.
    let upload_indices = indexer.index_documents(&fx.corpus.documents[docs..]);
    let expected: Vec<Response> = ops
        .iter()
        .map(|op| match *op {
            Op::Upload(n) => twin.call(Request::Upload(UploadMessage {
                indices: vec![upload_indices[n].clone()],
                documents: vec![],
            })),
            Op::Query(k) => twin.call(hot[k].clone()),
        })
        .collect();
    drop(twin);
    drop(indexer);
    let inp = Inputs {
        fx,
        docs,
        preload,
        hot,
        ops,
        warmup_expected,
        expected,
    };

    let mut sheds = Vec::new();
    let (mut sys, setup_times) = repeat_setup(|| setup(cfg, &inp), |r| sheds.push(teardown(r)));

    let mut searches = Phase::default();
    let mut uploads = Phase::default();
    let mut cache = (0u64, 0u64);
    let mut layers: Vec<(&'static str, Option<f64>)> = Vec::new();
    let mut record = Json::obj();
    let mut spans = Vec::new();
    let n = inp.ops.len();
    let (mut t_searches, mut t_uploads) = (Phase::default(), Phase::default());
    if cfg.trace {
        // First half untraced, second half traced: same interleave, same
        // end state as an untraced run.
        let half = n / 2;
        drive(
            &inp,
            &mut sys,
            0..half,
            &mut searches,
            &mut uploads,
            &mut cache,
        );
        let mut t_cache = (0u64, 0u64);
        let (perf0, saved0, inval0) = counters(&mut sys.owner);
        let clients = |s: &Running| vec![(s.user.stats(), s.user.wire_stats())];
        let client_before = clients(&sys);
        sys.telemetry.set_level(TelemetryLevel::Counters);
        let batch_before = batcher(&sys.telemetry);
        trace::set_enabled(true);
        drive(
            &inp,
            &mut sys,
            half..n,
            &mut t_searches,
            &mut t_uploads,
            &mut t_cache,
        );
        trace::set_enabled(false);
        let batch_after = batcher(&sys.telemetry);
        sys.telemetry.set_level(TelemetryLevel::Off);
        let client_after = clients(&sys);
        let (perf1, saved1, inval1) = counters(&mut sys.owner);
        let (s, client_bytes, _) = trace::drain();
        let search = layers::breakdown(&s, "client.search", "server.search");
        let upload = layers::breakdown(&s, "client.upload", "server.upload");
        spans.extend(s);
        let (attempts, backoff_ms, wait_us) =
            client_layers(&client_before, &client_after, t_searches.requests);
        let (per_flush, window_share, solo_share) = batcher_shares(batch_before, batch_after);
        let (saved, performed) = ((saved1 - saved0) as f64, (perf1 - perf0) as f64);
        let queries = t_searches.queries + t_uploads.queries;
        layers.extend([
            // Bytes of the whole interleave (uploads included) per query.
            (
                "wire.bytes_per_query",
                Some(ratio(client_bytes as f64, t_searches.queries as f64)),
            ),
            (
                "hub.overhead_us",
                Some(search.root.mean() - search.service.mean()),
            ),
            ("hub.queries_per_flush", Some(per_flush)),
            ("hub.window_flush_share", Some(window_share)),
            ("hub.solo_share", Some(solo_share)),
            ("client.wait_us_per_request", Some(wait_us)),
            ("resilient.attempts_per_request", Some(attempts)),
            ("resilient.backoff_ms", Some(backoff_ms)),
            ("server.search_call_us", Some(search.service.mean())),
            // Single-document uploads: service time per call is per document.
            ("server.upload_call_us", Some(upload.service.mean())),
            ("storage.us_per_doc", Some(upload.service.mean())),
            ("indexer.us_per_doc", Some(upload.indexing.mean())),
            ("engine.dup_share", None),
            (
                "cache.hit_ratio",
                Some(ratio(t_cache.0 as f64, (t_cache.0 + t_cache.1) as f64)),
            ),
            (
                "cache.invalidations_per_upload",
                Some(ratio((inval1 - inval0) as f64, t_uploads.requests as f64)),
            ),
            ("cache.saved_share", Some(ratio(saved, saved + performed))),
            (
                "trace.overhead_us",
                Some(t_searches.latency.median() - searches.latency.median()),
            ),
            ("coordinator.call_us", None),
            ("coordinator.node_rtt_us", None),
            ("coordinator.fanout", None),
            ("coordinator.self_us", None),
            ("coordinator.failovers", None),
            ("node.call_us", None),
            ("node.hub_overhead_us", None),
        ]);
        record.set("search_breakdown", layers::search_record(&search));
        record.set("upload_breakdown", layers::search_record(&upload));
        record.set("accounting", layers::accounting(&search, &[]));
        record.set(
            "upload_accounting",
            layers::accounting(&upload, &[("indexer", upload.indexing.mean())]),
        );
        record.set("traced_phase", phase_record(&t_searches));
        record.set("traced_uploads", phase_record(&t_uploads));
        record.set("traced_operations", queries);

        let mut zrng = cfg.rng(7);
        let shapes: Vec<Vec<BitIndex>> = (0..cfg.size(512, 32))
            .map(|_| match &inp.hot[zipf.sample(&mut zrng)] {
                Request::Query(m) => vec![m.query.clone()],
                _ => unreachable!("hot pool holds single queries"),
            })
            .collect();
        let (plane_us, comparisons, matches) = layers::plane_probe(&inp.preload, &shapes);
        let (engine_us, lanes) =
            layers::engine_probe(&inp.fx.params, &inp.preload, sys.shards, &shapes);
        let (encode_us, decode_us, wire_facts) = layers::wire_probe(&trace::take_frames());
        layers.extend([
            ("scanplane.us_per_query", Some(plane_us)),
            ("scanplane.comparisons_per_query", Some(comparisons)),
            ("scanplane.matches_per_query", Some(matches)),
            ("engine.us_per_query", Some(engine_us)),
            ("engine.lane_speedup", Some(plane_us / engine_us)),
            ("wire.encode_us", Some(encode_us)),
            ("wire.decode_us", Some(decode_us)),
        ]);
        record.set("engine_lanes", lanes);
        record.set("wire_sample", wire_facts);
        record.set("measured_by_replica", vec!["scanplane.*", "engine.*"]);
    } else {
        drive(
            &inp,
            &mut sys,
            0..n,
            &mut searches,
            &mut uploads,
            &mut cache,
        );
    }
    let mut checks_ok =
        sys.warmup_failed == 0 && conserved(&sys.owner.stats()) && conserved(&sys.user.stats());
    let shards = sys.shards;
    sheds.push(teardown(sys));
    checks_ok &= sheds.iter().all(|&s| s == 0);

    record.set(
        "facts",
        Json::obj()
            .with("documents_preloaded", inp.docs)
            .with("documents_uploaded", cycles)
            .with("r", inp.fx.params.index_bits)
            .with("eta", inp.fx.params.rank_levels())
            .with("hot_queries", inp.hot.len())
            .with("zipf_exponent", ZIPF_EXPONENT)
            .with("operations", n)
            .with("queries_per_upload", QUERIES_PER_UPLOAD)
            .with("shards", shards)
            .with("cache_entries_per_shard", CACHE_PER_SHARD)
            .with(
                "links",
                Json::obj()
                    .with("owner->server_hub", "tcp_loopback")
                    .with("user->server_hub", "tcp_loopback"),
            ),
    );
    record.set(
        "cache_shard_hit_ratio_untraced",
        ratio(cache.0 as f64, (cache.0 + cache.1) as f64),
    );
    finish(
        searches,
        Some(uploads),
        &[&t_searches, &t_uploads],
        setup_times,
        record,
        layers,
        checks_ok,
        spans,
    )
}
