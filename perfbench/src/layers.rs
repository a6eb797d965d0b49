//! Per-layer numbers for the traced run: span arithmetic (self time = span
//! minus the part of it its children cover) and probes that time a layer's
//! public function on the workload's own inputs.

use crate::json::Json;
use crate::stats::{ratio, Samples};
use crate::trace::Span;
use mkse_core::bitindex::BitIndex;
use mkse_core::storage::{IndexStore, ShardedStore};
use mkse_core::{QueryIndex, RankedDocumentIndex, ScanPlane, SearchEngine, SystemParams};
use mkse_protocol::{wire, BatchQueryMessage, CloudServer, QueryMessage, Request, Service};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Length of `[start, end)` covered by the union of `children`.
fn covered(start: u64, end: u64, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(start), c.end_ns.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

fn self_us(span: &Span, children: &[&Span]) -> f64 {
    (span.end_ns - span.start_ns - covered(span.start_ns, span.end_ns, children)) as f64 / 1e3
}

/// The blocking path of one kind of client request, split into layers:
/// `client.<kind>` → `client.link` → `server.<kind>` → `node.rtt`*.
#[derive(Default)]
pub struct Breakdown {
    /// Client-observed round trips (every root of the kind).
    pub root: Samples,
    /// Roots whose whole chain (link and service span) was matched.
    pub matched: usize,
    /// Self times on the matched chains.
    pub client_self: Samples,
    pub hub_self: Samples,
    pub service: Samples,
    pub service_self: Samples,
    /// Every node call, and the node calls per matched request.
    pub node_rtt: Samples,
    pub node_rtt_by_node: HashMap<u64, Samples>,
    pub fanout: Samples,
    /// Indexing done by the client inside the request (uploads).
    pub indexing: Samples,
}

pub fn breakdown(spans: &[Span], root_name: &str, service_name: &str) -> Breakdown {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    let none: Vec<&Span> = Vec::new();
    let kids = |id: u64| children.get(&id).unwrap_or(&none);
    let mut b = Breakdown::default();
    for root in spans
        .iter()
        .filter(|s| s.name == root_name && s.parent == 0)
    {
        b.root.push(root.duration_us());
        let root_kids = kids(root.id);
        for ix in root_kids.iter().filter(|s| s.name == "indexer.index") {
            b.indexing.push(ix.duration_us());
        }
        let Some(link) = root_kids.iter().find(|s| s.name == "client.link") else {
            continue;
        };
        let Some(service) = kids(link.id).iter().find(|s| s.name == service_name) else {
            continue;
        };
        b.matched += 1;
        b.client_self.push(self_us(root, root_kids));
        b.hub_self.push(self_us(link, kids(link.id)));
        b.service.push(service.duration_us());
        let nodes: Vec<&Span> = kids(service.id)
            .iter()
            .filter(|s| s.name == "node.rtt")
            .copied()
            .collect();
        b.service_self.push(self_us(service, &nodes));
        b.fanout.push(nodes.len() as f64);
        for n in &nodes {
            b.node_rtt.push(n.duration_us());
            b.node_rtt_by_node
                .entry(n.tag)
                .or_default()
                .push(n.duration_us());
        }
    }
    b
}

/// The wire codec timed on sampled frames of the run: mean µs to decode and
/// to re-encode one frame, over request and reply frames alike.
pub fn wire_probe(frames: &[(bool, Vec<u8>)]) -> (f64, f64, Json) {
    const REPS: usize = 16;
    let mut decode = Samples::new();
    let mut encode = Samples::new();
    let (mut req, mut rep) = (0usize, 0usize);
    for (is_request, payload) in frames {
        if *is_request {
            let Ok((id, request)) = wire::decode_request(payload) else {
                continue;
            };
            req += 1;
            let t = Instant::now();
            for _ in 0..REPS {
                black_box(wire::decode_request(black_box(payload)).ok());
            }
            decode.push(t.elapsed().as_secs_f64() * 1e6 / REPS as f64);
            let t = Instant::now();
            for _ in 0..REPS {
                black_box(wire::encode_request(id, black_box(&request)));
            }
            encode.push(t.elapsed().as_secs_f64() * 1e6 / REPS as f64);
        } else {
            let Ok((id, response)) = wire::decode_response(payload) else {
                continue;
            };
            rep += 1;
            let t = Instant::now();
            for _ in 0..REPS {
                black_box(wire::decode_response(black_box(payload)).ok());
            }
            decode.push(t.elapsed().as_secs_f64() * 1e6 / REPS as f64);
            let t = Instant::now();
            for _ in 0..REPS {
                black_box(wire::encode_response(id, black_box(&response)));
            }
            encode.push(t.elapsed().as_secs_f64() * 1e6 / REPS as f64);
        }
    }
    let facts = Json::obj()
        .with("request_frames", req)
        .with("reply_frames", rep)
        .with(
            "bytes_sampled",
            frames.iter().map(|(_, p)| p.len() + 4).sum::<usize>(),
        );
    (encode.mean(), decode.mean(), facts)
}

/// Repeat `f` over `shapes` until at least `min_s` seconds have passed
/// (after one warm pass); returns µs per query.
fn time_per_query<T>(
    shapes: &[Vec<BitIndex>],
    min_s: f64,
    mut f: impl FnMut(&[BitIndex]) -> T,
) -> f64 {
    for s in shapes {
        black_box(f(s));
    }
    let queries: usize = shapes.iter().map(Vec::len).sum();
    let start = Instant::now();
    let mut passes = 0usize;
    loop {
        for s in shapes {
            black_box(f(black_box(s)));
        }
        passes += 1;
        if start.elapsed().as_secs_f64() >= min_s {
            break;
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / (passes * queries) as f64
}

/// The kernel alone: one [`ScanPlane`] over `indices`, one thread,
/// `scan_ranked` for single queries and `scan_ranked_batch` for batches.
/// Returns (µs, comparisons, matches) per query.
pub fn plane_probe(indices: &[RankedDocumentIndex], shapes: &[Vec<BitIndex>]) -> (f64, f64, f64) {
    let mut plane = ScanPlane::new();
    for idx in indices {
        plane.push(idx);
    }
    let (mut comparisons, mut matches, mut queries) = (0u64, 0u64, 0u64);
    for s in shapes {
        let refs: Vec<&BitIndex> = s.iter().collect();
        for (_, stats) in plane.scan_ranked_batch(&refs) {
            comparisons += stats.comparisons;
            matches += stats.matches;
            queries += 1;
        }
    }
    let us = time_per_query(shapes, 0.3, |s| {
        if s.len() == 1 {
            vec![plane.scan_ranked(&s[0])]
        } else {
            let refs: Vec<&BitIndex> = s.iter().collect();
            plane.scan_ranked_batch(&refs)
        }
    });
    (
        us,
        comparisons as f64 / queries as f64,
        matches as f64 / queries as f64,
    )
}

/// The engine at its default lanes over `shards` shards, cache off:
/// `search_batch_with_effects` on each request's queries. µs per query.
pub fn engine_probe(
    params: &SystemParams,
    indices: &[RankedDocumentIndex],
    shards: usize,
    shapes: &[Vec<BitIndex>],
) -> (f64, usize) {
    let mut engine = SearchEngine::sharded(params.clone(), shards);
    engine
        .insert_all(indices.iter().cloned())
        .expect("workload indices fit the parameters");
    let lanes = engine.scan_lanes();
    let queries: Vec<Vec<QueryIndex>> = shapes
        .iter()
        .map(|s| s.iter().map(|b| QueryIndex::from_bits(b.clone())).collect())
        .collect();
    let mut i = 0;
    let us = time_per_query(shapes, 0.3, |_| {
        let q = &queries[i % queries.len()];
        i += 1;
        engine.search_batch_with_effects(q)
    });
    (us, lanes)
}

/// `CloudServer::call` timed per request on a server holding `indices`
/// (`Query` for single queries, `BatchQuery` for batches, top-10). µs per
/// request.
pub fn server_probe(server: &mut CloudServer, shapes: &[Vec<BitIndex>]) -> f64 {
    let requests: Vec<Request> = shapes
        .iter()
        .map(|s| {
            if s.len() == 1 {
                Request::Query(QueryMessage {
                    query: s[0].clone(),
                    top: Some(10),
                })
            } else {
                Request::BatchQuery(BatchQueryMessage {
                    queries: s.clone(),
                    top: Some(10),
                })
            }
        })
        .collect();
    let per_query = {
        let mut i = 0;
        time_per_query(shapes, 0.3, |_| {
            let r = server.call(requests[i % requests.len()].clone());
            i += 1;
            r
        })
    };
    per_query * shapes.iter().map(Vec::len).sum::<usize>() as f64 / shapes.len() as f64
}

/// The documents of global shards `shards` as the coordinator partitions
/// them (its mirror is a `ShardedStore` over the same upload order).
pub fn shard_slice(
    params: &SystemParams,
    indices: &[RankedDocumentIndex],
    global_shards: usize,
    shards: &[u32],
) -> Vec<RankedDocumentIndex> {
    let mut mirror = ShardedStore::new(params.clone(), global_shards);
    mirror
        .insert_all(indices.iter().cloned())
        .expect("workload indices fit the parameters");
    shards
        .iter()
        .flat_map(|&s| mirror.shard_documents(s as usize).to_vec())
        .collect()
}

/// Layer self times on a request kind's blocking path.
pub fn search_record(b: &Breakdown) -> Json {
    Json::obj()
        .with("roots", b.root.len())
        .with("matched", b.matched)
        .with("client_us", b.root.summary())
        .with("client_self_us", b.client_self.mean())
        .with("hub_self_us", b.hub_self.mean())
        .with("service_us", b.service.mean())
        .with("service_self_us", b.service_self.mean())
        .with("node_rtt_us", b.node_rtt.mean())
        .with("fanout", b.fanout.mean())
}

/// Do the self times on the blocking path add up to the client-observed
/// latency? `leaves` splits the innermost spans further with probe times
/// (e.g. node call inside node round trip); whatever is left is reported as
/// unattributed, and compared with the run's spread (p75 − p25).
pub fn accounting(b: &Breakdown, leaves: &[(&str, f64)]) -> Json {
    let node_total = b.node_rtt.sum() / b.matched.max(1) as f64;
    let mut parts = vec![
        ("client.self", b.client_self.mean()),
        ("hub.self", b.hub_self.mean()),
        ("service.self", b.service_self.mean()),
    ];
    let leaf_total: f64 = leaves.iter().map(|(_, v)| v).sum();
    if b.node_rtt.is_empty() {
        parts.extend(leaves.iter().copied());
    } else {
        parts.push(("node.hub_overhead", node_total - leaf_total));
        parts.extend(leaves.iter().copied());
    }
    let attributed: f64 = parts.iter().map(|(_, v)| v).sum();
    let observed = b.root.mean();
    let spread = b.root.quantile(0.75) - b.root.quantile(0.25);
    let unattributed = observed - attributed;
    let mut parts_json = Json::obj();
    for (name, v) in &parts {
        parts_json.set(name, *v);
    }
    Json::obj()
        .with("client_mean_us", observed)
        .with("self_us", parts_json)
        .with("attributed_us", attributed)
        .with("unattributed_us", unattributed)
        .with("unattributed_share", ratio(unattributed, observed))
        .with("spread_us", spread)
        .with("within_spread", unattributed.abs() <= spread)
        .with(
            "matched_share",
            ratio(b.matched as f64, b.root.len() as f64),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start: u64, end: u64, parent: u64) -> Span {
        Span {
            id,
            name: "x",
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
            tag: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(1, 0, 10_000, 0);
        let a = span(2, 1_000, 4_000, 1);
        let b = span(3, 3_000, 5_000, 1);
        let c = span(4, 8_000, 12_000, 1);
        // Covered: [1000, 5000) ∪ [8000, 10000) = 6000 ns.
        assert_eq!(self_us(&root, &[&a, &b, &c]), 4.0);
        assert_eq!(self_us(&root, &[]), 10.0);
    }
}
