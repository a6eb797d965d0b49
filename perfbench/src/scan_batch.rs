//! `scan_batch`: one closed-loop TCP client sends `BatchQuery` requests of 16
//! top-10 queries to one default `CloudServer` (result cache on, 64 entries
//! per shard) holding 64,000 documents. The fused plane sweep and the lane
//! scheduler dominate; with one connection the batcher never waits, and the
//! cache pays lookups and admissions it can almost never use.

use crate::common::*;
use crate::json::Json;
use crate::layers;
use crate::stats::ratio;
use crate::trace::{self, TracedService};
use mkse_core::bitindex::BitIndex;
use mkse_core::telemetry::TelemetryLevel;
use mkse_core::{RankedDocumentIndex, SystemParams, Telemetry};
use mkse_net::{Hub, HubConfig, HubHandle, ResilientClient};
use mkse_protocol::{
    BatchQueryMessage, CloudServer, OperationCounters, Request, Response, SearchResultEntry,
    Service, UploadMessage,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const BATCH: usize = 16;
const CACHE_PER_SHARD: usize = 64;
const WARMUP_BATCHES: usize = 8;

struct Inputs {
    params: SystemParams,
    docs: usize,
    preload: Vec<RankedDocumentIndex>,
    pool: Vec<BitIndex>,
    expected: Vec<Vec<SearchResultEntry>>,
}

struct Running {
    hub: HubHandle,
    telemetry: Telemetry,
    shards: usize,
    client: ResilientClient,
    warmup_failed: u64,
}

/// The batch a request carries: `BATCH` pool positions.
fn draw(rng: &mut StdRng, pool: usize) -> Vec<usize> {
    (0..BATCH).map(|_| rng.gen_range(0..pool)).collect()
}

fn batch_request(inp: &Inputs, picks: &[usize]) -> Request {
    Request::BatchQuery(BatchQueryMessage {
        queries: picks.iter().map(|&k| inp.pool[k].clone()).collect(),
        top: Some(TOP),
    })
}

/// Every reply's matches equal the twin's `CloudServer::call` for its query
/// (the cache report differs by design: the twin's cache is off).
fn check(inp: &Inputs, picks: &[usize], reply: &Response) -> Option<(u64, u64)> {
    let Response::BatchSearch(b) = reply else {
        return None;
    };
    if b.replies.len() != picks.len() {
        return None;
    }
    let (mut hits, mut misses) = (0, 0);
    for (r, &k) in b.replies.iter().zip(picks) {
        if r.matches != inp.expected[k] {
            return None;
        }
        hits += r.cache.shard_hits;
        misses += r.cache.shard_misses;
    }
    Some((hits, misses))
}

fn setup(cfg: &RunConfig, inp: &Inputs) -> Running {
    let fx = fixture(inp.docs);
    let preload = fx
        .indexer()
        .index_documents(&fx.corpus.documents[..inp.docs]);
    let mut server = CloudServer::new(fx.params.clone());
    server.enable_result_cache(CACHE_PER_SHARD);
    let shards = server.num_shards();
    let telemetry = server
        .telemetry()
        .expect("CloudServer keeps a registry")
        .clone();
    let hub = Hub::spawn(TracedService::new(server, false), HubConfig::default());
    let addr = hub.bind_tcp("127.0.0.1:0").expect("bind loopback");
    let mut owner = tcp_client(addr, false, 9_000_000_001);
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
    drop(owner);
    let mut client = tcp_client(addr, cfg.trace, 1_000_000_001);
    let mut rng = cfg.rng(50);
    let mut warmup_failed = 0;
    for _ in 0..WARMUP_BATCHES {
        let picks = draw(&mut rng, inp.pool.len());
        match client.call(&batch_request(inp, &picks)) {
            Ok(r) if check(inp, &picks, &r).is_some() => {}
            _ => warmup_failed += 1,
        }
    }
    Running {
        hub,
        telemetry,
        shards,
        client,
        warmup_failed,
    }
}

fn teardown(run: Running) -> u64 {
    drop(run.client);
    run.hub.shutdown().sheds
}

fn admin<T>(
    client: &mut ResilientClient,
    request: Request,
    pick: impl Fn(Response) -> Option<T>,
) -> T {
    let reply = client.call(&request).expect("admin request");
    pick(reply).expect("admin reply of the right kind")
}

fn counters(client: &mut ResilientClient) -> OperationCounters {
    admin(client, Request::Counters, |r| match r {
        Response::Counters(c) => Some(c),
        _ => None,
    })
}

/// Shares of repeated queries among the drawn batches: within a batch, in
/// any earlier batch, and within the last `CACHE_PER_SHARD` draws (reach of
/// a full per-shard cache).
fn repeat_shares(batches: &[Vec<usize>]) -> (f64, f64, f64) {
    let (mut within, mut earlier, mut recent, mut total) = (0usize, 0usize, 0usize, 0usize);
    let mut seen = HashSet::new();
    let flat: Vec<usize> = batches.iter().flatten().copied().collect();
    for (b, batch) in batches.iter().enumerate() {
        let mut in_batch = HashSet::new();
        for (i, &k) in batch.iter().enumerate() {
            total += 1;
            if !in_batch.insert(k) {
                within += 1;
            } else if seen.contains(&k) {
                earlier += 1;
            }
            let pos = b * BATCH + i;
            if flat[pos.saturating_sub(CACHE_PER_SHARD)..pos].contains(&k) {
                recent += 1;
            }
        }
        seen.extend(batch.iter().copied());
    }
    let t = total as f64;
    (within as f64 / t, earlier as f64 / t, recent as f64 / t)
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let docs = cfg.size(64_000, 800);
    let pool = cfg.size(4_096, 64);

    let fx = fixture(docs);
    let preload = fx.indexer().index_documents(&fx.corpus.documents[..docs]);
    let queries = build_queries(&fx, pool, docs, &mut cfg.rng(1));
    let mut twin = CloudServer::new(fx.params.clone());
    twin.upload(preload.clone(), vec![]).expect("twin upload");
    let expected: Vec<Vec<SearchResultEntry>> = queries
        .iter()
        .map(|m| match twin.call(Request::Query(m.clone())) {
            Response::Search(r) => r.matches,
            other => panic!("twin answered a query with {}", other.name()),
        })
        .collect();
    drop(twin);
    let inp = Inputs {
        params: fx.params.clone(),
        docs,
        preload,
        pool: queries.into_iter().map(|m| m.query).collect(),
        expected,
    };
    // The corpus is set-up's to regenerate; the inputs keep what they use.
    drop(fx);

    let mut sheds = Vec::new();
    let (mut sys, setup_times) = repeat_setup(|| setup(cfg, &inp), |r| sheds.push(teardown(r)));

    let drawn: Mutex<Vec<Vec<usize>>> = Mutex::new(Vec::new());
    let (hits, misses) = (AtomicU64::new(0), AtomicU64::new(0));
    let op = |client: &mut ResilientClient, rng: &mut StdRng| {
        let picks = draw(rng, inp.pool.len());
        let request = batch_request(&inp, &picks);
        let id = client.next_request_id();
        let reply = trace::scope("client.search", id, BATCH as u64, || client.call(&request));
        let checked = reply.ok().and_then(|r| check(&inp, &picks, &r));
        if let Some((h, m)) = checked {
            hits.fetch_add(h, Ordering::Relaxed);
            misses.fetch_add(m, Ordering::Relaxed);
        }
        drawn.lock().expect("draw log poisoned").push(picks);
        (checked.is_some(), BATCH as u64)
    };

    let mut layers: Vec<(&'static str, Option<f64>)> = Vec::new();
    let mut record = Json::obj();
    let mut spans = Vec::new();
    let mut search = None;
    let mut traced_half = Phase::default();
    let searches = if cfg.trace {
        let untraced = closed_loop(
            std::slice::from_mut(&mut sys.client),
            cfg.seconds / 2.0,
            vec![cfg.rng(100)],
            op,
        );
        drawn.lock().expect("draw log poisoned").clear();
        hits.store(0, Ordering::Relaxed);
        misses.store(0, Ordering::Relaxed);
        let counters_before = counters(&mut sys.client);
        let client_before = vec![(sys.client.stats(), sys.client.wire_stats())];
        sys.telemetry.set_level(TelemetryLevel::Counters);
        let batch_before = batcher(&sys.telemetry);
        trace::set_enabled(true);
        let traced = closed_loop(
            std::slice::from_mut(&mut sys.client),
            cfg.seconds / 2.0,
            vec![cfg.rng(200)],
            op,
        );
        trace::set_enabled(false);
        let batch_after = batcher(&sys.telemetry);
        sys.telemetry.set_level(TelemetryLevel::Off);
        let client_after = vec![(sys.client.stats(), sys.client.wire_stats())];
        let counters_after = counters(&mut sys.client);
        let (s, client_bytes, _) = trace::drain();
        let b = layers::breakdown(&s, "client.search", "server.search");
        spans.extend(s);
        let (attempts, backoff_ms, wait_us) =
            client_layers(&client_before, &client_after, traced.requests);
        let (per_flush, window_share, solo_share) = batcher_shares(batch_before, batch_after);
        let saved =
            counters_after.comparisons_saved_by_cache - counters_before.comparisons_saved_by_cache;
        let performed = counters_after.binary_comparisons - counters_before.binary_comparisons;
        let (h, m) = (hits.load(Ordering::Relaxed), misses.load(Ordering::Relaxed));
        let (within, _, _) = repeat_shares(&drawn.lock().expect("draw log poisoned"));
        layers.extend([
            (
                "wire.bytes_per_query",
                Some(ratio(client_bytes as f64, traced.queries as f64)),
            ),
            ("hub.overhead_us", Some(b.root.mean() - b.service.mean())),
            ("hub.queries_per_flush", Some(per_flush)),
            ("hub.window_flush_share", Some(window_share)),
            ("hub.solo_share", Some(solo_share)),
            ("client.wait_us_per_request", Some(wait_us)),
            ("resilient.attempts_per_request", Some(attempts)),
            ("resilient.backoff_ms", Some(backoff_ms)),
            ("server.search_call_us", Some(b.service.mean())),
            ("engine.dup_share", Some(within)),
            ("cache.hit_ratio", Some(ratio(h as f64, (h + m) as f64))),
            (
                "cache.saved_share",
                Some(ratio(saved as f64, (saved + performed) as f64)),
            ),
            (
                "trace.overhead_us",
                Some(traced.latency.median() - untraced.latency.median()),
            ),
        ]);
        record.set("search_breakdown", layers::search_record(&b));
        record.set("accounting", layers::accounting(&b, &[]));
        record.set("traced_phase", phase_record(&traced));
        search = Some(b);
        traced_half = traced;
        untraced
    } else {
        closed_loop(
            std::slice::from_mut(&mut sys.client),
            cfg.seconds,
            vec![cfg.rng(100)],
            op,
        )
    };
    let (within, earlier, recent) = repeat_shares(&drawn.lock().expect("draw log poisoned"));
    record.set(
        "repeats",
        Json::obj()
            .with("within_batch_share", within)
            .with("in_earlier_batch_share", earlier)
            .with("within_last_64_draws_share", recent),
    );
    let mut checks_ok = sys.warmup_failed == 0 && conserved(&sys.client.stats());
    let shards = sys.shards;
    sheds.push(teardown(sys));
    checks_ok &= sheds.iter().all(|&s| s == 0);

    if let Some(b) = &search {
        let mut rng = cfg.rng(7);
        let shapes: Vec<Vec<BitIndex>> = (0..cfg.size(32, 4))
            .map(|_| {
                draw(&mut rng, inp.pool.len())
                    .iter()
                    .map(|&k| inp.pool[k].clone())
                    .collect()
            })
            .collect();
        let (plane_us, comparisons, matches) = layers::plane_probe(&inp.preload, &shapes);
        let (engine_us, lanes) = layers::engine_probe(&inp.params, &inp.preload, shards, &shapes);
        let (encode_us, decode_us, wire_facts) = layers::wire_probe(&trace::take_frames());
        layers.extend([
            ("scanplane.us_per_query", Some(plane_us)),
            ("scanplane.comparisons_per_query", Some(comparisons)),
            ("scanplane.matches_per_query", Some(matches)),
            ("engine.us_per_query", Some(engine_us)),
            ("engine.lane_speedup", Some(plane_us / engine_us)),
            ("indexer.us_per_doc", None),
            ("storage.us_per_doc", None),
            ("server.upload_call_us", None),
            ("cache.invalidations_per_upload", None),
            ("wire.encode_us", Some(encode_us)),
            ("wire.decode_us", Some(decode_us)),
            ("coordinator.call_us", None),
            ("coordinator.node_rtt_us", None),
            ("coordinator.fanout", None),
            ("coordinator.self_us", None),
            ("coordinator.failovers", None),
            ("node.call_us", None),
            ("node.hub_overhead_us", None),
        ]);
        record.set("engine_lanes", lanes);
        record.set("wire_sample", wire_facts);
        record.set("measured_by_replica", vec!["scanplane.*", "engine.*"]);
        record.set(
            "search_service_per_query_us",
            b.service.mean() / BATCH as f64,
        );
    }

    record.set(
        "facts",
        Json::obj()
            .with("documents", inp.docs)
            .with("r", inp.params.index_bits)
            .with("eta", inp.params.rank_levels())
            .with("query_pool", inp.pool.len())
            .with("batch", BATCH)
            .with("clients", 1usize)
            .with("shards", shards)
            .with("cache_entries_per_shard", CACHE_PER_SHARD)
            .with(
                "links",
                Json::obj().with("client->server_hub", "tcp_loopback"),
            ),
    );
    finish(
        searches,
        None,
        &[&traced_half],
        setup_times,
        record,
        layers,
        checks_ok,
        spans,
    )
}
