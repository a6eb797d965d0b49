//! Pieces every workload shares: run options, input generation, the links
//! clients dial, the closed-loop load generator, and the outcome a workload
//! hands back to `main`.

use crate::json::Json;
use crate::stats::{peak_rss_mb, ratio, Samples};
use crate::trace::{self, wrap_link, Hop};
use mkse_bench::BenchFixture;
use mkse_core::telemetry::Counter;
use mkse_core::{QueryBuilder, QueryIndex, SchemeKeys, SystemParams, Telemetry};
use mkse_net::{Connector, LinkReader, LinkWriter, MemoryDialer, ResilientClient, RetryPolicy};
use mkse_protocol::QueryMessage;
use mkse_textproc::corpus::{CorpusSpec, FrequencyModel, SyntheticCorpus};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Options of one run, from the command line.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrink every size (corpus, pools, run length) for the smoke tests.
    pub tiny: bool,
}

impl RunConfig {
    /// `full` at full scale, `tiny` in tiny mode.
    pub fn size(&self, full: usize, tiny: usize) -> usize {
        if self.tiny {
            tiny
        } else {
            full
        }
    }

    /// A seed for one purpose, derived from the run seed.
    pub fn rng(&self, purpose: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose)
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Samples per window of `search_p99_us` (ten samples beyond the p99 of
/// each window).
pub const P99_WINDOW: usize = 1_000;

/// Every query of the benchmark asks for the top 10.
pub const TOP: usize = 10;

/// Seed of the deployment: the data owner's keys and the corpus. The run
/// seed draws the queries' randomization and every request stream (which
/// pool entries, batch makeup, interleave, Zipf draws), not the deployment:
/// a query's cost is set by its keywords' false-accept tail (a few keyword
/// pairs match a quarter of the corpus or all of it), and 4,096 pairs drawn
/// afresh per seed move the pool's mean scan cost by ±7%, more than the
/// bounds this benchmark holds changes to.
const DEPLOYMENT_SEED: u64 = 0x005E_ED0F_0A7A;

/// The scheme's default parameters (r = 448, η = 3), the deployment's keys
/// and a corpus of `docs` documents (the paper's workload as in
/// `BenchFixture`: 20 keywords per document from a 25,000-word vocabulary,
/// term frequencies uniform in 1..=15). The first `n` documents are the same
/// for every `docs >= n`.
pub fn fixture(docs: usize) -> BenchFixture {
    let params = SystemParams::default();
    let mut rng = StdRng::seed_from_u64(DEPLOYMENT_SEED);
    let keys = SchemeKeys::generate(&params, &mut rng);
    let corpus = SyntheticCorpus::generate(
        &CorpusSpec {
            num_documents: docs,
            vocabulary_size: 25_000,
            keywords_per_document: 20,
            frequency_model: FrequencyModel::Uniform { lo: 1, hi: 15 },
        },
        &mut rng,
    );
    BenchFixture {
        params,
        keys,
        corpus,
    }
}

/// `count` distinct randomized queries built with `QueryBuilder`, each for
/// two keywords of one document (documents spread evenly over the first
/// `corpus_docs`, so every query has a genuine match).
pub fn build_queries(
    fx: &BenchFixture,
    count: usize,
    corpus_docs: usize,
    rng: &mut StdRng,
) -> Vec<QueryMessage> {
    let random_pool = fx.keys.random_pool_trapdoors(&fx.params);
    let stride = (corpus_docs / count).max(1);
    (0..count)
        .map(|i| {
            let doc = &fx.corpus.documents[(i * stride) % corpus_docs];
            let kws: Vec<&str> = doc.keywords().into_iter().take(2).collect();
            let trapdoors = fx.keys.trapdoors_for(&fx.params, &kws);
            let q: QueryIndex = QueryBuilder::new(&fx.params)
                .add_trapdoors(&trapdoors)
                .with_randomization(&random_pool)
                .build(rng);
            QueryMessage {
                query: q.bits().clone(),
                top: Some(TOP),
            }
        })
        .collect()
}

type Links = (Box<dyn LinkReader>, Box<dyn LinkWriter>);

fn maybe_traced(links: Links, hop: Option<Hop>) -> Links {
    match hop {
        Some(hop) => wrap_link(links.0, links.1, hop),
        None => links,
    }
}

/// Dial the front hub over TCP loopback (`Hub::bind_tcp`'s listener).
pub fn tcp_connector(addr: SocketAddr, traced: bool) -> Connector {
    Box::new(move |_ordinal| {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let links: Links = (Box::new(read_half), Box::new(stream));
        Ok(maybe_traced(links, traced.then_some(Hop::Client)))
    })
}

/// Dial a hub in-process (`MemoryLink`).
pub fn memory_connector(dialer: MemoryDialer, hop: Option<Hop>) -> Connector {
    Box::new(move |_ordinal| {
        let (reader, writer) = dialer.connect().split();
        let links: Links = (Box::new(reader), Box::new(writer));
        Ok(maybe_traced(links, hop))
    })
}

/// Dial a hub that does not exist yet: the slot is filled once it is up.
pub fn late_connector(slot: Arc<Mutex<Option<MemoryDialer>>>) -> Connector {
    Box::new(move |_ordinal| {
        let guard = slot.lock().expect("dialer slot poisoned");
        let dialer = guard
            .as_ref()
            .ok_or_else(|| std::io::Error::other("hub not up yet"))?;
        let (reader, writer) = dialer.connect().split();
        Ok((Box::new(reader) as _, Box::new(writer) as _))
    })
}

/// A user-facing client at its default retry policy.
pub fn tcp_client(addr: SocketAddr, traced: bool, first_request_id: u64) -> ResilientClient {
    ResilientClient::new(tcp_connector(addr, traced), RetryPolicy::default())
        .with_first_request_id(first_request_id)
}

/// Set the workload's system up `SETUP_REPEATS` times, tearing down all but
/// the last; returns it with the set-up durations (s).
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, Samples) {
    let mut times = Samples::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let start = Instant::now();
        kept = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), times)
}

/// What a closed-loop phase measured.
#[derive(Default)]
pub struct Phase {
    /// Client-observed latency of every request (µs).
    pub latency: Samples,
    pub requests: u64,
    pub failed: u64,
    /// Queries answered (a batch of 16 counts 16).
    pub queries: u64,
    pub wall_s: f64,
    /// (seconds into the phase, queries) of every correct reply.
    done: Vec<(f64, u64)>,
}

impl Phase {
    /// Account one operation that began at `began`, ended now, and answered
    /// `queries` queries if `ok`.
    pub fn note(&mut self, phase_start: Instant, began: Instant, ok: bool, queries: u64) {
        let now = Instant::now();
        self.latency.push((now - began).as_secs_f64() * 1e6);
        self.requests += 1;
        if ok {
            self.queries += queries;
            self.done.push(((now - phase_start).as_secs_f64(), queries));
        } else {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Phase) {
        self.latency.extend(&other.latency);
        self.requests += other.requests;
        self.failed += other.failed;
        self.queries += other.queries;
        self.wall_s = self.wall_s.max(other.wall_s);
        self.done.extend(other.done);
    }

    /// Queries answered per second: the median over equal windows of the
    /// phase (one per second, at least 8), so a burst of host noise in a
    /// few windows does not move it.
    pub fn rate(&self) -> f64 {
        let windows = (self.wall_s as usize).max(8);
        let width = self.wall_s / windows as f64;
        let mut per_window = vec![0u64; windows];
        for &(t, q) in &self.done {
            per_window[((t / width) as usize).min(windows - 1)] += q;
        }
        let mut rates = Samples::new();
        for count in per_window {
            rates.push(count as f64 / width);
        }
        rates.median()
    }
}

/// Run one closed loop per client, each on its own thread, for `seconds`:
/// a client sends its next request when the previous reply is in. `op`
/// performs one request and returns (reply correct, queries answered).
pub fn closed_loop<C: Send>(
    clients: &mut [C],
    seconds: f64,
    rngs: Vec<StdRng>,
    op: impl Fn(&mut C, &mut StdRng) -> (bool, u64) + Sync,
) -> Phase {
    let duration = Duration::from_secs_f64(seconds);
    let op = &op;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(rngs)
            .map(|(client, mut rng)| {
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    while start.elapsed() < duration {
                        let began = Instant::now();
                        let (ok, queries) = op(client, &mut rng);
                        phase.note(start, began, ok, queries);
                    }
                    phase.wall_s = start.elapsed().as_secs_f64();
                    phase
                })
            })
            .collect();
        let mut total = Phase::default();
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
        total
    })
}

/// What a workload hands back to `main`.
pub struct Outcome {
    /// End-to-end metrics (untraced run); `None` = not on this workload
    /// (uploads outside `ingest_mixed`).
    pub end_to_end: Vec<(&'static str, Option<f64>)>,
    /// Per-layer metrics (traced run); `None` = the layer is not on this
    /// workload's path (recorded in the record, left out of the result).
    pub layers: Vec<(&'static str, Option<f64>)>,
    /// Facts, sample counts and checks for the run record.
    pub record: Json,
    pub attempted: u64,
    pub failed: u64,
    /// Every structural check held (conservation law, no failovers, …).
    pub checks_ok: bool,
    /// Spans of the traced run, written out when the run ends.
    pub spans: Vec<crate::trace::Span>,
}

/// Client-side counters over a phase, summed over a workload's clients:
/// (attempts per request, backoff ms per request, reply wait µs per request).
pub fn client_layers(
    before: &[(mkse_net::ResilienceStats, mkse_protocol::WireStats)],
    after: &[(mkse_net::ResilienceStats, mkse_protocol::WireStats)],
    requests: u64,
) -> (f64, f64, f64) {
    let (mut attempts, mut backoff_ns, mut wait_ns) = (0u64, 0u64, 0u64);
    for ((s0, w0), (s1, w1)) in before.iter().zip(after) {
        attempts += s1.attempts - s0.attempts;
        backoff_ns += s1.backoff_ns - s0.backoff_ns;
        wait_ns += w1.wait_ns - w0.wait_ns;
    }
    let n = requests.max(1) as f64;
    (
        attempts as f64 / n,
        backoff_ns as f64 / 1e6 / n,
        wait_ns as f64 / 1e3 / n,
    )
}

/// The hub batcher's counters: solo, coalesced, window / depth / barrier
/// flushes.
pub fn batcher(t: &Telemetry) -> [u64; 5] {
    [
        t.counter(Counter::BatcherSolo),
        t.counter(Counter::BatcherCoalesced),
        t.counter(Counter::BatcherFlushWindow),
        t.counter(Counter::BatcherFlushDepth),
        t.counter(Counter::BatcherFlushBarrier),
    ]
}

/// The hub batcher's shares over a phase from counter deltas:
/// (queries per flush, window-flush share, solo share).
pub fn batcher_shares(before: [u64; 5], after: [u64; 5]) -> (f64, f64, f64) {
    let d: Vec<f64> = (0..5).map(|i| (after[i] - before[i]) as f64).collect();
    let flushes = d[2] + d[3] + d[4];
    (
        ratio(d[1], flushes),
        ratio(d[2], flushes),
        ratio(d[0], d[0] + d[1]),
    )
}

/// The conservation law `attempts == successes + sheds + link_faults`.
pub fn conserved(stats: &mkse_net::ResilienceStats) -> bool {
    stats.attempts == stats.successes + stats.sheds + stats.link_faults
}

pub fn phase_record(p: &Phase) -> Json {
    Json::obj()
        .with("latency_us", p.latency.summary())
        .with("requests", p.requests)
        .with("failed", p.failed)
        .with("queries", p.queries)
        .with("wall_s", p.wall_s)
}

/// Assemble the outcome shared by every workload.
/// `traced` holds the traced half of a traced run: its operations count
/// toward `attempted` and `failed`, its timings only toward the per-layer
/// metrics.
#[allow(clippy::too_many_arguments)]
pub fn finish(
    searches: Phase,
    uploads: Option<Phase>,
    traced: &[&Phase],
    setup_times: Samples,
    mut record: Json,
    layers: Vec<(&'static str, Option<f64>)>,
    checks_ok: bool,
    spans: Vec<trace::Span>,
) -> Outcome {
    record.set("setup_s", setup_times.summary());
    record.set("search_phase", phase_record(&searches));
    if let Some(u) = &uploads {
        record.set("upload_phase", phase_record(u));
    }
    let all = [Some(&searches), uploads.as_ref()]
        .into_iter()
        .flatten()
        .chain(traced.iter().copied());
    let (attempted, failed) = all.fold((0, 0), |(a, f), p| (a + p.requests, f + p.failed));
    Outcome {
        end_to_end: vec![
            ("setup_s", Some(setup_times.median())),
            ("search_p50_us", Some(searches.latency.median())),
            (
                "search_p99_us",
                Some(searches.latency.windowed_quantile(0.99, P99_WINDOW)),
            ),
            ("queries_per_s", Some(searches.rate())),
            (
                "upload_p50_us",
                uploads.as_ref().map(|u| u.latency.median()),
            ),
            ("docs_per_s", uploads.as_ref().map(Phase::rate)),
            ("peak_rss_mb", Some(peak_rss_mb())),
        ],
        layers,
        record,
        attempted,
        failed,
        checks_ok,
        spans,
    }
}
