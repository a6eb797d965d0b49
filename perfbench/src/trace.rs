//! Spans recorded from outside each layer, kept in memory until the run ends.
//!
//! Nothing here reaches inside the program. A span is opened around a call
//! into a layer's public surface:
//!
//! * [`scope`] wraps a call made by the benchmark itself (a client request,
//!   an indexing call);
//! * [`TracedService`] wraps the `Service` handed to `Hub::spawn`, so every
//!   `Service::call` / `call_query_group` the hub makes is one span;
//! * [`wrap_link`] wraps the `LinkReader`/`LinkWriter` pair a `Connector`
//!   hands out, so one span runs from a request frame leaving to its reply
//!   frame arriving on that link.
//!
//! Spans of one request share its client request id. Within a thread the
//! parent is the innermost open span; across the hub (client thread →
//! dispatcher thread) a request is matched to the client link span that sent
//! it by the bytes of its body (see [`content_key`]).
//!
//! Recording is switched on and off at run time ([`set_enabled`]); while it
//! is off a wrapper costs one atomic load (the link reader also keeps its
//! frame parser in step so it can switch on mid-stream).

use mkse_core::Telemetry;
use mkse_net::{FrameBuffer, FusedService, LinkReader, LinkWriter};
use mkse_protocol::{wire, QueryMessage, Request, Response, Service};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One recorded span. `parent == 0` marks a root; `request == 0` means the
/// request could not be identified. `tag` carries a layer-specific count or
/// id (queries in a call, documents in an upload, the node id of a node hop).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u64,
    pub request: u64,
    pub tag: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Which link a wrapped pair belongs to.
#[derive(Clone, Copy, Debug)]
pub enum Hop {
    /// A user-facing client link (TCP loopback into the front hub).
    Client,
    /// The coordinator's in-fleet link to node `id`.
    Node(u64),
}

/// At most this many frames of each direction are kept for the codec probe.
const FRAME_SAMPLES: usize = 256;

struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Request frames a client link sent that no service call has claimed
    /// yet: content key → (client request id, link span id).
    pending: Mutex<HashMap<u64, VecDeque<(u64, u64)>>>,
    /// Framed bytes (both directions) on client links / on node links.
    client_bytes: AtomicU64,
    node_bytes: AtomicU64,
    /// Sampled frame payloads: (is a request, payload).
    frames: Mutex<Vec<(bool, Vec<u8>)>>,
}

fn rec() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        next: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
        pending: Mutex::new(HashMap::new()),
        client_bytes: AtomicU64::new(0),
        node_bytes: AtomicU64::new(0),
        frames: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// Open spans of this thread, innermost last: (span id, request id).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Switch recording on or off (SeqCst: a span opened after `set_enabled`
/// returns sees the new state on every thread).
pub fn set_enabled(on: bool) {
    rec().on.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    rec().on.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    rec().epoch.elapsed().as_nanos() as u64
}

fn next_id() -> u64 {
    rec().next.fetch_add(1, Ordering::Relaxed)
}

fn record(span: Span) {
    rec().spans.lock().expect("span store poisoned").push(span);
}

fn stack_top() -> (u64, u64) {
    STACK.with(|s| s.borrow().last().copied().unwrap_or((0, 0)))
}

/// Everything recorded so far, in end order, and framed byte totals
/// (client links, node links); the store is emptied.
pub fn drain() -> (Vec<Span>, u64, u64) {
    let r = rec();
    let spans = std::mem::take(&mut *r.spans.lock().expect("span store poisoned"));
    r.pending.lock().expect("pending map poisoned").clear();
    (
        spans,
        r.client_bytes.swap(0, Ordering::Relaxed),
        r.node_bytes.swap(0, Ordering::Relaxed),
    )
}

/// The sampled frame payloads: (is a request, payload).
pub fn take_frames() -> Vec<(bool, Vec<u8>)> {
    std::mem::take(&mut *rec().frames.lock().expect("frame store poisoned"))
}

fn sample_frame(is_request: bool, payload: &[u8]) {
    let mut frames = rec().frames.lock().expect("frame store poisoned");
    if frames.iter().filter(|(r, _)| *r == is_request).count() < FRAME_SAMPLES {
        frames.push((is_request, payload.to_vec()));
    }
}

/// Run `f` inside a span with an explicit parent and request.
fn run_span<T>(
    name: &'static str,
    parent: u64,
    request: u64,
    tag: u64,
    f: impl FnOnce() -> T,
) -> T {
    let id = next_id();
    STACK.with(|s| s.borrow_mut().push((id, request)));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    record(Span {
        id,
        name,
        start_ns,
        end_ns,
        parent,
        request,
        tag,
    });
    out
}

/// Run `f` inside a span whose parent is this thread's innermost open span.
/// `request == 0` inherits the parent's request. A no-op wrapper while
/// recording is off.
pub fn scope<T>(name: &'static str, request: u64, tag: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let (parent, parent_request) = stack_top();
    let request = if request == 0 {
        parent_request
    } else {
        request
    };
    run_span(name, parent, request, tag, f)
}

/// Identity of a request's content: a hash of its encoded body (everything
/// after the frame header's request id), so the same request hashes alike on
/// the client link and at the service.
fn content_key(body: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// Frame layout: u32 LE length, then the payload: version (1 byte),
/// request id (u64 LE), kind, body.
const ID_AT: std::ops::Range<usize> = 1..9;

fn payload_id(payload: &[u8]) -> Option<u64> {
    payload
        .get(ID_AT)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
}

/// The client request id and link span that sent `request`, if a client
/// link registered it.
fn claim(request: &Request) -> (u64, u64) {
    let frame = wire::encode_request(0, request);
    let key = content_key(&frame[4 + ID_AT.end..]);
    rec()
        .pending
        .lock()
        .expect("pending map poisoned")
        .get_mut(&key)
        .and_then(VecDeque::pop_front)
        .unwrap_or((0, 0))
}

// ---- the service wrapper ----------------------------------------------------

/// Wraps the service handed to `Hub::spawn`: one span per `Service::call`,
/// one per member of a `call_query_group`.
pub struct TracedService<S> {
    inner: S,
    /// Execute groups as one `Service::call` per message. Exactly what the
    /// trait's default `call_query_group` does, so for a service that keeps
    /// the default (the fleet coordinator) each member gets its own span and
    /// the node calls made for it nest under that span.
    split_groups: bool,
    /// Handed to the hub when the inner service keeps no registry, so the
    /// hub's batcher counters are kept anyway.
    registry: Option<Telemetry>,
}

impl<S> TracedService<S> {
    pub fn new(inner: S, split_groups: bool) -> TracedService<S> {
        TracedService {
            inner,
            split_groups,
            registry: None,
        }
    }

    /// Builder-style: a registry for a service that has none (see
    /// [`Service::telemetry`]).
    pub fn with_registry(mut self, registry: Telemetry) -> TracedService<S> {
        self.registry = Some(registry);
        self
    }
}

fn service_span(request: &Request) -> (&'static str, u64) {
    match request {
        Request::Query(_) => ("server.search", 1),
        Request::BatchQuery(b) => ("server.search", b.queries.len() as u64),
        Request::Upload(u) => ("server.upload", u.indices.len() as u64),
        _ => ("server.other", 0),
    }
}

impl<S: Service> Service for TracedService<S> {
    fn call(&mut self, request: Request) -> Response {
        if !enabled() {
            return self.inner.call(request);
        }
        let (name, tag) = service_span(&request);
        let (request_id, parent) = claim(&request);
        let inner = &mut self.inner;
        run_span(name, parent, request_id, tag, || inner.call(request))
    }

    fn telemetry(&self) -> Option<&Telemetry> {
        self.inner.telemetry().or(self.registry.as_ref())
    }
}

impl<S: FusedService> FusedService for TracedService<S> {
    fn call_query_group(&mut self, messages: &[QueryMessage]) -> Vec<Response> {
        if !enabled() {
            return self.inner.call_query_group(messages);
        }
        if self.split_groups {
            return messages
                .iter()
                .map(|m| self.call(Request::Query(m.clone())))
                .collect();
        }
        let claims: Vec<(u64, u64)> = messages
            .iter()
            .map(|m| claim(&Request::Query(m.clone())))
            .collect();
        let start_ns = now_ns();
        let replies = self.inner.call_query_group(messages);
        let end_ns = now_ns();
        // Every member waits for the whole fused pass.
        for (request, parent) in claims {
            record(Span {
                id: next_id(),
                name: "server.search",
                start_ns,
                end_ns,
                parent,
                request,
                tag: messages.len() as u64,
            });
        }
        replies
    }
}

// ---- the link wrappers ------------------------------------------------------

struct OpenFrame {
    span: u64,
    start_ns: u64,
    parent: u64,
    request: u64,
}

struct LinkState {
    hop: Hop,
    /// Sent request frames awaiting their reply, by wire request id.
    open: HashMap<u64, OpenFrame>,
    /// Reassembles reply frames from the byte stream (always fed, so the
    /// parser stays aligned across on/off switches).
    replies: FrameBuffer,
}

struct TracedReader {
    inner: Box<dyn LinkReader>,
    state: Arc<Mutex<LinkState>>,
}

struct TracedWriter {
    inner: Box<dyn LinkWriter>,
    state: Arc<Mutex<LinkState>>,
}

/// Wrap one connection's halves so that each request → reply exchange on it
/// is a span: `client.link` on a client hop, `node.rtt` on a node hop.
pub fn wrap_link(
    reader: Box<dyn LinkReader>,
    writer: Box<dyn LinkWriter>,
    hop: Hop,
) -> (Box<dyn LinkReader>, Box<dyn LinkWriter>) {
    let state = Arc::new(Mutex::new(LinkState {
        hop,
        open: HashMap::new(),
        replies: FrameBuffer::new(u32::MAX as u64),
    }));
    (
        Box::new(TracedReader {
            inner: reader,
            state: state.clone(),
        }),
        Box::new(TracedWriter {
            inner: writer,
            state,
        }),
    )
}

fn hop_bytes(hop: Hop) -> &'static AtomicU64 {
    match hop {
        Hop::Client => &rec().client_bytes,
        Hop::Node(_) => &rec().node_bytes,
    }
}

impl TracedWriter {
    fn note_sent(&self, mut bytes: &[u8]) {
        let mut state = self.state.lock().expect("link state poisoned");
        let hop = state.hop;
        hop_bytes(hop).fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let (top, top_request) = stack_top();
        while bytes.len() >= 4 {
            let len = u32::from_le_bytes(bytes[..4].try_into().expect("4-byte prefix")) as usize;
            let Some(payload) = bytes.get(4..4 + len) else {
                break;
            };
            bytes = &bytes[4 + len..];
            let Some(wire_id) = payload_id(payload) else {
                continue;
            };
            sample_frame(true, payload);
            let span = next_id();
            let request = match hop {
                Hop::Client => {
                    let key = content_key(&payload[ID_AT.end..]);
                    rec()
                        .pending
                        .lock()
                        .expect("pending map poisoned")
                        .entry(key)
                        .or_default()
                        .push_back((wire_id, span));
                    wire_id
                }
                Hop::Node(_) => top_request,
            };
            state.open.insert(
                wire_id,
                OpenFrame {
                    span,
                    start_ns: now_ns(),
                    parent: top,
                    request,
                },
            );
        }
    }
}

impl LinkWriter for TracedWriter {
    fn send_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        if enabled() {
            self.note_sent(bytes);
        }
        self.inner.send_all(bytes)
    }
}

impl TracedReader {
    fn note_received(&self, bytes: &[u8]) {
        let on = enabled();
        let end_ns = now_ns();
        let mut state = self.state.lock().expect("link state poisoned");
        if state.replies.extend(bytes).is_err() {
            return;
        }
        if on {
            hop_bytes(state.hop).fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        while let Ok(Some(payload)) = state.replies.pop() {
            let Some(wire_id) = payload_id(&payload) else {
                continue;
            };
            let Some(open) = state.open.remove(&wire_id) else {
                continue;
            };
            if !on {
                continue;
            }
            sample_frame(false, &payload);
            let (name, tag) = match state.hop {
                Hop::Client => ("client.link", 0),
                Hop::Node(id) => ("node.rtt", id),
            };
            record(Span {
                id: open.span,
                name,
                start_ns: open.start_ns,
                end_ns,
                parent: open.parent,
                request: open.request,
                tag,
            });
        }
    }
}

impl LinkReader for TracedReader {
    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.recv(buf)?;
        if n > 0 {
            self.note_received(&buf[..n]);
        }
        Ok(n)
    }

    fn set_recv_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        self.inner.set_recv_timeout(timeout)
    }
}

/// Write spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> io::Result<()> {
    use std::io::Write;
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}, \"tag\": {}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.parent, s.request, s.tag
        )?;
    }
    out.flush()
}
