//! `fleet_point`: single top-10 queries from two closed-loop TCP clients
//! through a coordinator that scatters each one over three shard-server
//! nodes. The scan is a sliver of a query here; hubs, codec, clients and the
//! coordinator do nearly all the work, and the serial scatter and the batch
//! windows sit on the blocking path.

use crate::common::*;
use crate::json::Json;
use crate::layers;
use crate::stats::{ratio, Samples};
use crate::trace::{self, Hop, TracedService};
use mkse_core::telemetry::{Counter, TelemetryLevel};
use mkse_core::{RankedDocumentIndex, SystemParams, Telemetry};
use mkse_net::{
    Coordinator, FleetConfig, Hub, HubConfig, HubHandle, MemoryDialer, NodeConfig, NodeRunner,
    ResilientClient,
};
use mkse_protocol::{CloudServer, NodeCapabilities, Request, Response, Service, UploadMessage};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

const CLIENTS: usize = 2;
/// (node id, shard slots) as in `fig4b_fleet`: 2, 1, unlimited.
const SLOTS: [(u64, u32); 3] = [(1, 2), (2, 1), (3, 0)];
const WARMUP_PER_CLIENT: usize = 16;

struct Inputs {
    params: SystemParams,
    docs: usize,
    preload: Vec<RankedDocumentIndex>,
    requests: Vec<Request>,
    expected: Vec<Response>,
}

/// Heartbeats for every node from one control thread, at the interval the
/// coordinator hands out (`NodeRunner` has no thread of its own).
struct Heartbeats {
    stop: Sender<()>,
    thread: JoinHandle<Vec<NodeRunner>>,
    failures: Arc<AtomicU64>,
}

impl Heartbeats {
    fn start(mut runners: Vec<NodeRunner>) -> Heartbeats {
        let interval = FleetConfig::default().heartbeat_interval;
        let failures = Arc::new(AtomicU64::new(0));
        let (stop, stopped) = mpsc::channel::<()>();
        let counted = failures.clone();
        let thread = std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                for runner in runners.iter_mut() {
                    if runner.heartbeat().is_err() {
                        counted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            runners
        });
        Heartbeats {
            stop,
            thread,
            failures,
        }
    }

    fn stop(self) -> (Vec<NodeRunner>, u64) {
        let _ = self.stop.send(());
        let runners = self.thread.join().expect("heartbeat thread panicked");
        (runners, self.failures.load(Ordering::Relaxed))
    }
}

struct Running {
    hub: HubHandle,
    telemetry: Telemetry,
    hub_telemetry: Option<Telemetry>,
    heartbeats: Heartbeats,
    assignments: Vec<(u64, Vec<u32>)>,
    clients: Vec<ResilientClient>,
    warmup_failed: u64,
}

struct Stopped {
    sheds: u64,
    beat_failures: u64,
}

fn setup(cfg: &RunConfig, inp: &Inputs) -> Running {
    // Corpus generation and indexing are part of set-up: redo them.
    let fx = fixture(inp.docs);
    let preload = fx
        .indexer()
        .index_documents(&fx.corpus.documents[..inp.docs]);
    let slot: Arc<Mutex<Option<MemoryDialer>>> = Arc::new(Mutex::new(None));
    let mut runners: Vec<NodeRunner> = SLOTS
        .iter()
        .map(|&(node_id, shard_slots)| {
            NodeRunner::spawn(
                fx.params.clone(),
                NodeConfig {
                    node_id,
                    capabilities: NodeCapabilities {
                        shard_slots,
                        ..NodeCapabilities::default()
                    },
                    ..NodeConfig::default()
                },
                late_connector(slot.clone()),
            )
        })
        .collect();
    let mut coordinator = Coordinator::new(fx.params.clone(), FleetConfig::default());
    for runner in &runners {
        let hop = cfg.trace.then_some(Hop::Node(runner.node_id()));
        coordinator.add_node(runner.node_id(), memory_connector(runner.dialer(), hop));
    }
    let telemetry = coordinator.telemetry_handle();
    // The coordinator keeps no registry for its hub; a traced run hands the
    // hub one (off until the traced half) so the batcher counters are kept.
    let hub_telemetry = cfg.trace.then(Telemetry::new);
    let mut service = TracedService::new(coordinator, true);
    if let Some(registry) = &hub_telemetry {
        service = service.with_registry(registry.clone());
    }
    let hub = Hub::spawn(service, HubConfig::default());
    *slot.lock().expect("dialer slot poisoned") = Some(hub.memory_dialer());
    let addr = hub.bind_tcp("127.0.0.1:0").expect("bind loopback");
    let assignments = runners
        .iter_mut()
        .map(|r| {
            let a = r.register().expect("node registration");
            (r.node_id(), a.shards)
        })
        .collect();
    let heartbeats = Heartbeats::start(runners);

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
        },
        "initial upload through the coordinator"
    );
    drop(owner);

    let mut clients: Vec<ResilientClient> = (0..CLIENTS)
        .map(|c| tcp_client(addr, cfg.trace, (c as u64 + 1) * 1_000_000_000 + 1))
        .collect();
    let mut warmup_failed = 0;
    let stride = (inp.requests.len() / WARMUP_PER_CLIENT).max(1);
    for (c, client) in clients.iter_mut().enumerate() {
        for i in 0..WARMUP_PER_CLIENT {
            let k = (i * stride + c) % inp.requests.len();
            match client.call(&inp.requests[k]) {
                Ok(ref r) if *r == inp.expected[k] => {}
                _ => warmup_failed += 1,
            }
        }
    }
    Running {
        hub,
        telemetry,
        hub_telemetry,
        heartbeats,
        assignments,
        clients,
        warmup_failed,
    }
}

fn teardown(run: Running) -> Stopped {
    drop(run.clients);
    let (runners, beat_failures) = run.heartbeats.stop();
    let report = run.hub.shutdown();
    for runner in runners {
        runner.shutdown();
    }
    Stopped {
        sheds: report.sheds,
        beat_failures,
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let docs = cfg.size(8_000, 400);
    let pool = cfg.size(4_096, 64);

    // Inputs and the expected replies: not part of the measured system.
    let fx = fixture(docs);
    let preload = fx.indexer().index_documents(&fx.corpus.documents[..docs]);
    let requests: Vec<Request> = build_queries(&fx, pool, docs, &mut cfg.rng(1))
        .into_iter()
        .map(Request::Query)
        .collect();
    let mut twin =
        CloudServer::with_shards(fx.params.clone(), FleetConfig::default().num_global_shards);
    twin.upload(preload.clone(), vec![]).expect("twin upload");
    let expected: Vec<Response> = requests.iter().map(|r| twin.call(r.clone())).collect();
    drop(twin);
    let inp = Inputs {
        params: fx.params.clone(),
        docs,
        preload,
        requests,
        expected,
    };
    // The corpus is set-up's to regenerate; the inputs keep what they use.
    drop(fx);

    let mut stopped_early = Vec::new();
    let (mut sys, setup_times) =
        repeat_setup(|| setup(cfg, &inp), |r| stopped_early.push(teardown(r)));

    let query_op = |client: &mut ResilientClient, rng: &mut StdRng| {
        let k = rng.gen_range(0..inp.requests.len());
        let id = client.next_request_id();
        let reply = trace::scope("client.search", id, 1, || client.call(&inp.requests[k]));
        (matches!(reply, Ok(ref r) if *r == inp.expected[k]), 1)
    };
    let rngs = |purpose: u64| (0..CLIENTS as u64).map(|c| cfg.rng(purpose + c)).collect();
    let client_stats = |clients: &[ResilientClient]| -> Vec<_> {
        clients
            .iter()
            .map(|c| (c.stats(), c.wire_stats()))
            .collect()
    };

    let mut spans = Vec::new();
    let mut layers: Vec<(&'static str, Option<f64>)> = Vec::new();
    let mut record = Json::obj();
    let failovers_before = sys.telemetry.counter(Counter::Failovers);
    let (untraced, traced) = if cfg.trace {
        let untraced = closed_loop(&mut sys.clients, cfg.seconds / 2.0, rngs(100), query_op);
        let before = client_stats(&sys.clients);
        let hub_tel = sys
            .hub_telemetry
            .as_ref()
            .expect("traced runs keep hub counters");
        hub_tel.set_level(TelemetryLevel::Counters);
        let batch_before = batcher(hub_tel);
        trace::set_enabled(true);
        let traced = closed_loop(&mut sys.clients, cfg.seconds / 2.0, rngs(200), query_op);
        trace::set_enabled(false);
        let (per_flush, window_share, solo_share) = batcher_shares(batch_before, batcher(hub_tel));
        hub_tel.set_level(TelemetryLevel::Off);
        let (s, client_bytes, node_bytes) = trace::drain();
        let search = layers::breakdown(&s, "client.search", "server.search");
        spans.extend(s);
        let (attempts, backoff_ms, wait_us) =
            client_layers(&before, &client_stats(&sys.clients), traced.requests);
        layers.extend([
            (
                "wire.bytes_per_query",
                Some(ratio(client_bytes as f64, traced.queries as f64)),
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
            ("coordinator.call_us", Some(search.service.mean())),
            ("coordinator.node_rtt_us", Some(search.node_rtt.mean())),
            ("coordinator.fanout", Some(search.fanout.mean())),
            ("coordinator.self_us", Some(search.service_self.mean())),
            (
                "trace.overhead_us",
                Some(traced.latency.median() - untraced.latency.median()),
            ),
        ]);
        record.set("search_breakdown", layers::search_record(&search));
        record.set(
            "node_link_bytes_per_query",
            ratio(node_bytes as f64, traced.queries as f64),
        );
        (untraced, Some((traced, search)))
    } else {
        let phase = closed_loop(&mut sys.clients, cfg.seconds, rngs(100), query_op);
        (phase, None)
    };

    // Conservation law per client.
    let mut checks_ok = sys.warmup_failed == 0;
    let mut client_facts = Vec::new();
    for c in &sys.clients {
        let s = c.stats();
        checks_ok &= conserved(&s);
        client_facts.push(
            Json::obj()
                .with("attempts", s.attempts)
                .with("successes", s.successes)
                .with("sheds", s.sheds)
                .with("link_faults", s.link_faults)
                .with("conserved", conserved(&s)),
        );
    }
    let failovers = sys.telemetry.counter(Counter::Failovers) - failovers_before;
    checks_ok &= failovers == 0;
    let assignments = sys.assignments.clone();
    let stopped = teardown(sys);
    stopped_early.push(stopped);
    for s in &stopped_early {
        checks_ok &= s.sheds == 0 && s.beat_failures == 0;
    }

    if let Some((traced, search)) = &traced {
        let shapes = single_shapes(&inp, cfg.size(512, 32), &mut cfg.rng(7));
        let (plane_us, comparisons, matches) = layers::plane_probe(&inp.preload, &shapes);
        let node_shards = NodeConfig::default().local_shards;
        let (engine_us, lanes) =
            layers::engine_probe(&inp.params, &inp.preload, node_shards, &shapes);
        // Node replicas: each node's global shards on a CloudServer with the
        // node's local shard count, timed per Service::call.
        let mut node_call = Samples::new();
        let mut node_hub = Samples::new();
        let mut per_node = Vec::new();
        for (node_id, shards) in &assignments {
            let slice = layers::shard_slice(
                &inp.params,
                &inp.preload,
                FleetConfig::default().num_global_shards,
                shards,
            );
            let mut replica = CloudServer::with_shards(inp.params.clone(), node_shards);
            replica.upload(slice, vec![]).expect("replica upload");
            let call = layers::server_probe(&mut replica, &shapes);
            let rtt = search
                .node_rtt_by_node
                .get(node_id)
                .map_or(f64::NAN, Samples::mean);
            node_call.push(call);
            node_hub.push(rtt - call);
            per_node.push(
                Json::obj()
                    .with("node", *node_id)
                    .with(
                        "shards",
                        shards.iter().map(|&s| s as u64).collect::<Vec<u64>>(),
                    )
                    .with("rtt_us", rtt)
                    .with("call_us", call),
            );
        }
        let (encode_us, decode_us, wire_facts) = layers::wire_probe(&trace::take_frames());
        layers.extend([
            ("scanplane.us_per_query", Some(plane_us)),
            ("scanplane.comparisons_per_query", Some(comparisons)),
            ("scanplane.matches_per_query", Some(matches)),
            ("engine.us_per_query", Some(engine_us)),
            ("engine.lane_speedup", Some(plane_us / engine_us)),
            ("engine.dup_share", None),
            ("cache.hit_ratio", None),
            ("cache.invalidations_per_upload", None),
            ("cache.saved_share", None),
            ("indexer.us_per_doc", None),
            ("storage.us_per_doc", None),
            ("server.search_call_us", Some(node_call.mean())),
            ("server.upload_call_us", None),
            ("wire.encode_us", Some(encode_us)),
            ("wire.decode_us", Some(decode_us)),
            ("coordinator.failovers", Some(failovers as f64)),
            ("node.call_us", Some(node_call.mean())),
            ("node.hub_overhead_us", Some(node_hub.mean())),
        ]);
        record.set("engine_lanes", lanes);
        record.set("nodes", Json::Arr(per_node));
        record.set("wire_sample", wire_facts);
        record.set("traced_phase", phase_record(traced));
        record.set(
            "measured_by_replica",
            vec![
                "scanplane.*",
                "engine.*",
                "server.search_call_us",
                "node.call_us",
            ],
        );
        record.set(
            "accounting",
            layers::accounting(
                search,
                &[("node.call", node_call.mean() * search.fanout.mean())],
            ),
        );
    }

    record.set(
        "facts",
        Json::obj()
            .with("documents", inp.docs)
            .with("r", inp.params.index_bits)
            .with("eta", inp.params.rank_levels())
            .with("query_pool", inp.requests.len())
            .with("clients", CLIENTS)
            .with("global_shards", FleetConfig::default().num_global_shards)
            .with("nodes", SLOTS.len())
            .with(
                "node_shard_slots",
                SLOTS.iter().map(|&(_, s)| s as u64).collect::<Vec<u64>>(),
            )
            .with("node_local_shards", NodeConfig::default().local_shards)
            .with("node_caches", "off")
            .with(
                "links",
                Json::obj()
                    .with("client->coordinator_hub", "tcp_loopback")
                    .with("coordinator->node_hub", "memory")
                    .with("node_control->coordinator_hub", "memory"),
            ),
    );
    record.set("clients", Json::Arr(client_facts));
    record.set("failovers", failovers);
    let traced_half: Vec<&Phase> = traced.iter().map(|(p, _)| p).collect();
    finish(
        untraced,
        None,
        &traced_half,
        setup_times,
        record,
        layers,
        checks_ok,
        spans,
    )
}

fn single_shapes(
    inp: &Inputs,
    n: usize,
    rng: &mut StdRng,
) -> Vec<Vec<mkse_core::bitindex::BitIndex>> {
    (0..n)
        .map(|_| {
            let k = rng.gen_range(0..inp.requests.len());
            match &inp.requests[k] {
                Request::Query(m) => vec![m.query.clone()],
                _ => unreachable!("fleet pool holds single queries"),
            }
        })
        .collect()
}
