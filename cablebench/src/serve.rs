//! The serve workloads: a child `cable serve --api` process driven by a
//! closed loop of one client from this process.
//!
//! The client drives a group of tenants at a time and issues their ops
//! round-robin, one connection per request, waiting for each reply
//! before sending the next (a closed loop: a slow server receives less
//! load). Every tenant runs cable-load's op mix (`cable_load::Labeler`)
//! for a fixed number of ops, reads its final digest, and is replaced by
//! a fresh tenant in the next group, so the per-session corpus, and the
//! cost of focus with it, does not grow with run length. One group is a
//! pass.
//!
//! `serve_hot` keeps every live tenant resident (`--max-open-sessions`
//! at twice the live tenants). `serve_evict` drives the same traffic at
//! a quarter of the live tenants, so most requests reopen their session
//! from snapshot plus journal.
//!
//! A request's cost is the CPU time the server's threads spent while it
//! was in flight: with one request in flight at a time, that is the
//! request's own. The latency figures are percentiles of that cost (see
//! `cpu`); the wall-clock latencies are printed alongside, ungated.
//!
//! After the timed loop, outside it, each tenant's logged mutating ops
//! are replayed sequentially through `StoredSession` and the replay's
//! digest must equal the server's final `/digest`. A traced run also
//! replays the whole request stream through `CableApi::handle` in
//! process, which times each route without the transport.

use crate::cpu;
use crate::span::{covered, Span, Tracer};
use crate::stats;
use crate::{Metric, Report, RunConfig};
use cable::fa::templates;
use cable::fca::ConceptId;
use cable::obs::json::Value;
use cable::obs::{ApiHandler, ApiRequest};
use cable::session::{CableApi, CableSession, SessionManager, StoredSession, TraceSelector};
use cable::trace::{Trace, TraceSet, Vocab};
use cable_load::{Labeler, Op};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Live tenants, one group of them at a time.
const LIVE_TENANTS: usize = 4;
/// Ops each tenant issues after its create and lattice lookup.
const OPS_PER_TENANT: usize = 200;
/// Server spawns measured for `setup_s`; the last one serves the run.
const SETUP_SPAWNS: usize = 101;
/// Single-request deadline: a reply later than this is a failure.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Requests per measurement window, at least. The run's requests are
/// cut into equal windows of consecutive requests; each cost and
/// throughput figure is the median over the windows, so one disturbed
/// stretch of a run does not set it. A window holds enough reads and
/// writes for ten samples beyond their p99.
const WINDOW: usize = 3000;

/// The API routes of the op mix, in the order `api.handle_ms.<route>`
/// metrics are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Route {
    #[default]
    Create,
    Ingest,
    Label,
    Lattice,
    Concepts,
    Focus,
    Digest,
}

impl Route {
    const ALL: [Route; 7] = [
        Route::Create,
        Route::Ingest,
        Route::Label,
        Route::Lattice,
        Route::Concepts,
        Route::Focus,
        Route::Digest,
    ];

    fn name(self) -> &'static str {
        match self {
            Route::Create => "create",
            Route::Ingest => "ingest",
            Route::Label => "label",
            Route::Lattice => "lattice",
            Route::Concepts => "concepts",
            Route::Focus => "focus",
            Route::Digest => "digest",
        }
    }

    /// The span around this route's in-process `CableApi::handle` call.
    fn span(self) -> &'static str {
        match self {
            Route::Create => "api.handle.create",
            Route::Ingest => "api.handle.ingest",
            Route::Label => "api.handle.label",
            Route::Lattice => "api.handle.lattice",
            Route::Concepts => "api.handle.concepts",
            Route::Focus => "api.handle.focus",
            Route::Digest => "api.handle.digest",
        }
    }

    /// Whether the route changes session state.
    fn writes(self) -> bool {
        matches!(self, Route::Create | Route::Ingest | Route::Label)
    }
}

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every live tenant stays resident.
    Hot,
    /// Live tenants are 4× the resident cap.
    Evict,
}

impl Mode {
    fn max_open(self, live: usize) -> usize {
        match self {
            Mode::Hot => 2 * live,
            Mode::Evict => (live / 4).max(1),
        }
    }
}

/// One request as issued, kept for the replays.
#[derive(Debug, Clone, Default)]
struct Request {
    tenant: usize,
    route: Route,
    method: &'static str,
    path: String,
    query: Option<String>,
    body: String,
    /// The resolved op (`None` for create, the opening lattice lookup
    /// and the final digest).
    op: Option<Op>,
    /// Latency in ms; `INFINITY` when the request failed.
    ms: f64,
    /// Server CPU ms spent while the request was in flight; `INFINITY`
    /// when it failed.
    cpu_ms: f64,
    /// When the answer came, in s since the timed loop began.
    done: f64,
}

/// One tenant's identity and what the server last said about it.
#[derive(Debug, Clone)]
struct Tenant {
    name: String,
    seed_traces: String,
    final_digest: Option<Value>,
}

/// One tenant group as the client drove it.
#[derive(Debug, Clone, Copy)]
struct Group {
    wall_s: f64,
    cpu_s: f64,
    traced: bool,
}

/// What the client brings back.
#[derive(Default)]
struct ClientLog {
    requests: Vec<Request>,
    tenants: Vec<(usize, Tenant)>,
    groups: Vec<Group>,
    spans: Vec<Span>,
    connect_ms: Vec<f64>,
    /// The host's slowdown before each group (`cpu::slowdown`).
    slowdowns: Vec<f64>,
}

/// A minimal HTTP/1.1 exchange over one fresh connection, with the
/// connect timed on its own. Returns `(status, body)`.
fn exchange(
    addr: &str,
    method: &str,
    target: &str,
    body: Option<&str>,
    tracer: &mut Tracer,
    connect_ms: &mut Vec<f64>,
) -> std::io::Result<(u16, String)> {
    let open = tracer.begin("http.connect");
    let start = Instant::now();
    let stream = TcpStream::connect(addr);
    if tracer.enabled() {
        connect_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    tracer.end(open);
    let mut stream = stream?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let payload = body.unwrap_or("");
    let mut head = format!("{method} {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    if body.is_some() {
        head.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            payload.len()
        ));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(payload.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(bad)?;
    Ok((status, body.to_owned()))
}

/// The running server: killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawns `cable serve --api` and waits for its announced address.
    fn spawn(cable: &Path, store_root: &Path, max_open: usize) -> Result<Server, String> {
        std::fs::create_dir_all(store_root)
            .map_err(|e| format!("{}: {e}", store_root.display()))?;
        let mut child = Command::new(cable)
            .args([
                "serve",
                "--obs-listen",
                "127.0.0.1:0",
                "--api",
                "--store-root",
            ])
            .arg(store_root)
            .args(["--max-open-sessions", &max_open.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", cable.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = out.read_line(&mut line);
        let addr = line
            .strip_prefix("serving http://")
            .and_then(|rest| rest.split('/').next())
            .map(str::to_owned);
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut out, &mut std::io::sink());
        });
        let mut server = Server {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!("cable serve did not announce an address: {line:?}")),
        }
    }

    /// The server's peak resident set (VmHWM), in MiB.
    fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(Some(self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// The closed-loop client.
struct Client<'a> {
    addr: &'a str,
    seed: u64,
    start: Instant,
    deadline: Instant,
    trace: bool,
    origin: Instant,
    /// The server's threads, whose CPU time prices each request.
    server_cpu: cpu::Threads,
    /// Their total at the end of the last request.
    cpu_mark: u64,
    log: ClientLog,
}

/// A tenant being driven: its labeler stream and what it learned.
struct Live {
    index: usize,
    tenant: Tenant,
    labeler: Labeler,
    concepts: usize,
    top: String,
}

impl Client<'_> {
    /// Runs groups of tenants until the deadline.
    fn run(mut self) -> ClientLog {
        let mut group = 0usize;
        while Instant::now() < self.deadline {
            // Alternate groups are traced, so the paired medians give
            // the tracing overhead.
            let traced = self.trace && group % 2 == 1;
            let mut tracer = Tracer::new(traced, self.origin, (group as u64) << 20);
            self.log.slowdowns.push(cpu::slowdown());
            // A server thread started since the last group counts from
            // here on.
            self.server_cpu.refresh();
            self.cpu_mark = self.server_cpu.total_ns();
            let first = self.log.requests.len();
            let start = Instant::now();
            let open = tracer.begin("tenant_group");
            self.group(group, &mut tracer);
            tracer.end(open);
            let wall_s = start.elapsed().as_secs_f64();
            let cpu_s = self.log.requests[first..]
                .iter()
                .map(|r| r.cpu_ms)
                .sum::<f64>()
                / 1e3;
            self.log.groups.push(Group {
                wall_s,
                cpu_s,
                traced,
            });
            self.log.spans.extend(tracer.take());
            group += 1;
        }
        self.log
    }

    fn group(&mut self, group: usize, tracer: &mut Tracer) {
        let mut live: Vec<Live> = (0..LIVE_TENANTS)
            .map(|j| {
                let index = group * LIVE_TENANTS + j;
                let mut labeler = Labeler::new(self.seed, index as u64);
                let tenant = Tenant {
                    name: format!("g{group}t{j}"),
                    seed_traces: labeler.seed_traces(),
                    final_digest: None,
                };
                Live {
                    index,
                    tenant,
                    labeler,
                    concepts: 1,
                    top: "c0".into(),
                }
            })
            .collect();
        for t in &mut live {
            let body = Value::object([
                ("tenant", Value::from(t.tenant.name.as_str())),
                ("session", Value::from("s")),
                ("traces", Value::from(t.tenant.seed_traces.as_str())),
            ]);
            let create = Request {
                tenant: t.index,
                method: "POST",
                path: "/api/sessions".into(),
                body: body.to_string(),
                ..Request::default()
            };
            if let Some(v) = self.issue(create, tracer).and_then(parse) {
                t.concepts = v.get("concepts").and_then(Value::as_u64).unwrap_or(1) as usize;
            }
            if let Some(v) = self.issue(t.get(Route::Lattice, None), tracer).and_then(parse) {
                if let Some(top) = v.get("top").and_then(Value::as_str) {
                    t.top = top.to_owned();
                }
            }
        }
        for _ in 0..OPS_PER_TENANT {
            for t in &mut live {
                let op = t.labeler.next_op(t.concepts);
                let tenant = Value::from(t.tenant.name.as_str());
                let mut request = match &op {
                    Op::Ingest { traces } => {
                        let body = Value::object([
                            ("tenant", tenant),
                            ("traces", Value::from(traces.as_str())),
                        ]);
                        t.post(Route::Ingest, body)
                    }
                    Op::Label {
                        concept,
                        selector,
                        label,
                    } => {
                        let body = Value::object([
                            ("tenant", tenant),
                            ("concept", Value::from(format!("c{concept}"))),
                            ("selector", Value::from(*selector)),
                            ("label", Value::from(*label)),
                        ]);
                        t.post(Route::Label, body)
                    }
                    Op::Lattice => t.get(Route::Lattice, None),
                    Op::Concepts => t.get(Route::Concepts, None),
                    Op::Focus => t.get(Route::Focus, Some(&format!("concept={}", t.top))),
                    Op::Digest => t.get(Route::Digest, None),
                };
                let ingest = request.route == Route::Ingest;
                request.op = Some(op);
                let reply = self.issue(request, tracer);
                // Only an ingest changes the concept count the next
                // label draws from; other replies need no parsing.
                if let Some(v) = reply.filter(|_| ingest).and_then(parse) {
                    if let Some(n) = v.get("concepts").and_then(Value::as_u64) {
                        t.concepts = n as usize;
                    }
                }
            }
        }
        for t in &mut live {
            t.tenant.final_digest = self.issue(t.get(Route::Digest, None), tracer).and_then(parse);
        }
        self.log
            .tenants
            .extend(live.into_iter().map(|t| (t.index, t.tenant)));
    }

    /// Issues one request and logs it; returns the body of a 2xx answer.
    fn issue(&mut self, mut request: Request, tracer: &mut Tracer) -> Option<String> {
        let target = match &request.query {
            Some(q) => format!("{}?{q}", request.path),
            None => request.path.clone(),
        };
        let open = tracer.begin("http.request");
        let start = Instant::now();
        let sent = (request.method == "POST").then_some(request.body.as_str());
        let answer = exchange(
            self.addr,
            request.method,
            &target,
            sent,
            tracer,
            &mut self.log.connect_ms,
        );
        let ms = start.elapsed().as_secs_f64() * 1e3;
        tracer.end(open);
        let cpu_now = self.server_cpu.total_ns();
        let cpu_ms = (cpu_now - self.cpu_mark) as f64 / 1e6;
        self.cpu_mark = cpu_now;
        request.done = self.start.elapsed().as_secs_f64();
        let ok = matches!(answer, Ok((200..=299, _)));
        (request.ms, request.cpu_ms) = if ok {
            (ms, cpu_ms)
        } else {
            (f64::INFINITY, f64::INFINITY)
        };
        self.log.requests.push(request);
        match answer {
            Ok((200..=299, text)) => Some(text),
            _ => None,
        }
    }
}

impl Live {
    /// A `GET` of this tenant's session at `route`, with `extra` query.
    fn get(&self, route: Route, extra: Option<&str>) -> Request {
        let mut query = format!("tenant={}", self.tenant.name);
        if let Some(extra) = extra {
            query = format!("{query}&{extra}");
        }
        Request {
            tenant: self.index,
            route,
            method: "GET",
            path: format!("/api/sessions/s/{}", route.name()),
            query: Some(query),
            ..Request::default()
        }
    }

    /// A `POST` of `body` to this tenant's session at `route`.
    fn post(&self, route: Route, body: Value) -> Request {
        Request {
            tenant: self.index,
            route,
            method: "POST",
            path: format!("/api/sessions/s/{}", route.name()),
            body: body.to_string(),
            ..Request::default()
        }
    }
}
/// Parses a JSON reply body.
fn parse(body: String) -> Option<Value> {
    Value::parse(body.trim()).ok()
}

/// A session replayed from the logged ops, kept open or on disk.
struct Replay {
    dir: PathBuf,
    stored: Option<StoredSession>,
}

/// Replays the request log in global order through `StoredSession`,
/// with at most `cap` sessions open (reopening the others from disk).
/// Returns each tenant's final digest record.
fn replay_stored(
    root: &Path,
    requests: &[&Request],
    tenants: &BTreeMap<usize, Tenant>,
    cap: usize,
    tracer: &mut Tracer,
    reopened: &mut Vec<u64>,
) -> Result<BTreeMap<usize, Value>, String> {
    let mut open: HashMap<usize, Replay> = HashMap::new();
    let mut lru: Vec<usize> = Vec::new();
    for r in requests {
        let tenant = &tenants[&r.tenant];
        if r.route == Route::Create {
            let mut vocab = Vocab::new();
            let traces =
                TraceSet::parse(&tenant.seed_traces, &mut vocab).map_err(|e| e.to_string())?;
            let list: Vec<Trace> = traces.iter().map(|(_, t)| t.clone()).collect();
            let fa = templates::unordered_of_trace_events(&list);
            let dir = root.join(&tenant.name);
            let stored = CableSession::new(traces, fa)
                .save(vocab, &dir)
                .map_err(|e| format!("replay create {}: {e}", tenant.name))?;
            open.insert(
                r.tenant,
                Replay {
                    dir,
                    stored: Some(stored),
                },
            );
        }
        let Some(state) = open.get_mut(&r.tenant) else {
            return Err(format!(
                "replay: request for uncreated tenant {}",
                tenant.name
            ));
        };
        if state.stored.is_none() {
            let opened = tracer.time("store.reopen", || CableSession::open(&state.dir));
            let (stored, report) =
                opened.map_err(|e| format!("replay reopen {}: {e}", tenant.name))?;
            reopened.push(report.replayed as u64);
            state.stored = Some(stored);
        }
        let stored = state.stored.as_mut().expect("opened above");
        match &r.op {
            Some(Op::Ingest { traces }) => {
                tracer
                    .time("store.ingest", || stored.ingest_text(traces, false))
                    .map_err(|e| format!("replay ingest {}: {e}", tenant.name))?;
            }
            Some(Op::Label {
                concept,
                selector,
                label,
            }) => {
                let selector = if *selector == "all" {
                    TraceSelector::All
                } else {
                    TraceSelector::Unlabeled
                };
                tracer
                    .time("store.label", || {
                        stored.label_traces(ConceptId(*concept as u32), &selector, label)
                    })
                    .map_err(|e| format!("replay label {}: {e}", tenant.name))?;
            }
            Some(Op::Focus) if tracer.enabled() => {
                // The same concept the request named, as the API does it.
                let session = stored.session();
                let concept = r
                    .query
                    .as_deref()
                    .and_then(|q| q.split_once("concept=c"))
                    .and_then(|(_, n)| n.parse::<u32>().ok())
                    .map(ConceptId)
                    .filter(|c| c.index() < session.lattice().len())
                    .ok_or_else(|| format!("replay focus {}: bad concept", tenant.name))?;
                let traces: Vec<Trace> = session
                    .show_traces(concept, &TraceSelector::All)
                    .into_iter()
                    .cloned()
                    .collect();
                let fa = templates::unordered_of_trace_events(&traces);
                let focus = tracer.time("core.focus", || session.focus(concept, fa));
                std::hint::black_box(focus.session().lattice().len());
            }
            _ => {}
        }
        lru.retain(|&i| i != r.tenant);
        lru.push(r.tenant);
        let resident: Vec<usize> = lru
            .iter()
            .copied()
            .filter(|i| open[i].stored.is_some())
            .collect();
        for victim in resident.iter().take(resident.len().saturating_sub(cap)) {
            open.get_mut(victim).expect("resident").stored = None;
        }
    }
    let mut digests = BTreeMap::new();
    for (index, mut state) in open {
        if state.stored.is_none() {
            state.stored = Some(CableSession::open(&state.dir).map_err(|e| e.to_string())?.0);
        }
        let stored = state.stored.as_ref().expect("opened above");
        digests.insert(index, cable::session::session_state_record(stored));
    }
    Ok(digests)
}

/// Replays the request log in global order through an in-process
/// `CableApi`, timing each route. Returns each tenant's final digest
/// body as the API answered it.
fn replay_api(
    root: &Path,
    requests: &[&Request],
    max_open: usize,
    tracer: &mut Tracer,
) -> BTreeMap<usize, Value> {
    let api = CableApi::new(
        std::sync::Arc::new(SessionManager::new(root, max_open)),
        None,
    );
    let mut digests = BTreeMap::new();
    for r in requests {
        let request = ApiRequest {
            method: r.method.to_owned(),
            route: r.path.clone(),
            query: r.query.clone(),
            body: r.body.clone(),
        };
        let response = tracer.time(r.route.span(), || api.handle(&request));
        if r.route == Route::Digest && (200..300).contains(&response.status) {
            if let Ok(v) = Value::parse(response.body.trim()) {
                digests.insert(r.tenant, v);
            }
        }
    }
    digests
}

/// Reads a counter from the server's Prometheus text.
fn prom_counter(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (key, value) = l.split_once(' ')?;
            (key == name).then(|| value.trim().parse::<f64>().ok())?
        })
        .unwrap_or(0.0) as u64
}

/// Mean milliseconds per span named `name`, or 0 when there are none.
fn mean_ms(spans: &[Span], name: &str) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / 1e6)
        .collect();
    stats::mean(&v).unwrap_or(0.0)
}

/// A percentile that must exist for the run to count.
fn required(samples: &[f64], q: f64, what: &str, notes: &mut Vec<String>) -> f64 {
    stats::percentile(samples, q).unwrap_or_else(|| {
        notes.push(format!(
            "{what}: p{q} needs ten samples beyond it, have {}",
            samples.len()
        ));
        f64::NAN
    })
}

/// The cost and throughput figures of one window of consecutive
/// requests, in the order of [`WINDOW_FIGURES`]; `None` for a percentile
/// that lacks ten samples beyond it.
fn window_figures(window: &[Request]) -> [Option<f64>; 8] {
    let all: Vec<f64> = window.iter().map(|r| r.cpu_ms).collect();
    let of = |writes: bool| -> Vec<f64> {
        window
            .iter()
            .filter(|r| r.route.writes() == writes)
            .map(|r| r.cpu_ms)
            .collect()
    };
    let (writes, reads) = (of(true), of(false));
    let answered: Vec<f64> = all.iter().copied().filter(|ms| ms.is_finite()).collect();
    let cpu_s = answered.iter().sum::<f64>() / 1e3;
    [
        stats::percentile(&all, 50.0),
        stats::percentile(&all, 90.0),
        stats::percentile(&writes, 90.0),
        stats::percentile(&reads, 90.0),
        (cpu_s > 0.0).then(|| answered.len() as f64 / cpu_s),
        stats::percentile(&all, 99.0),
        stats::percentile(&writes, 99.0),
        stats::percentile(&reads, 99.0),
    ]
}

/// The windowed figures, their units, and whether each is an end-to-end
/// metric. The p99s are printed but not gated: the host's interference
/// stretches them far more than the p90s (README.md, "Tails").
const WINDOW_FIGURES: [(&str, &str, bool); 8] = [
    ("req_cpu_ms_p50", "ms", true),
    ("req_cpu_ms_p90", "ms", true),
    ("write_cpu_ms_p90", "ms", true),
    ("read_cpu_ms_p90", "ms", true),
    ("req_per_cpu_s", "1/s", true),
    ("req_cpu_ms_p99", "ms", false),
    ("write_cpu_ms_p99", "ms", false),
    ("read_cpu_ms_p99", "ms", false),
];

/// Cuts `requests` (in completion order) into equal windows of at least
/// [`WINDOW`] requests (one window when there are fewer) and reports
/// the median of each gated figure over the windows. A gated figure that
/// some window cannot give is a failed check. Each figure's window
/// values, and the median of each ungated one, go to `info`.
fn windowed(
    requests: &[Request],
    notes: &mut Vec<String>,
    info: &mut Vec<String>,
) -> (Vec<Metric>, usize) {
    let n = (requests.len() / WINDOW).max(1);
    let mut per_figure: Vec<Vec<f64>> = vec![Vec::new(); WINDOW_FIGURES.len()];
    for w in 0..n {
        let window = &requests[w * requests.len() / n..(w + 1) * requests.len() / n];
        for (i, figure) in window_figures(window).into_iter().enumerate() {
            let (name, _, gated) = WINDOW_FIGURES[i];
            match figure {
                Some(v) => per_figure[i].push(v),
                None if gated => notes.push(format!(
                    "{name}: window {w} of {} requests cannot give it",
                    window.len()
                )),
                None => {}
            }
        }
    }
    let mut metrics = Vec::new();
    for (&(name, unit, gated), v) in WINDOW_FIGURES.iter().zip(per_figure) {
        let shown: Vec<String> = v.iter().map(|x| format!("{x:.3}")).collect();
        info.push(format!("{name} by window: {}", shown.join(" ")));
        let value = if v.len() == n {
            stats::median(&v).unwrap_or(f64::NAN)
        } else {
            f64::NAN
        };
        if gated {
            metrics.push(Metric::new(name, value, unit));
        } else {
            info.push(format!("{name} (ungated): {value:.6} {unit}"));
        }
    }
    (metrics, n)
}

/// Each route's request count and server CPU ms at p50, p90 and p99
/// over the whole run, for the record: what the pooled tails are made of.
fn route_figures(requests: &[Request]) -> String {
    let rows: Vec<String> = Route::ALL
        .iter()
        .map(|&route| {
            let ms: Vec<f64> = requests
                .iter()
                .filter(|r| r.route == route)
                .map(|r| r.cpu_ms)
                .collect();
            let mut sorted = ms.clone();
            sorted.sort_by(f64::total_cmp);
            let at = |q: f64| {
                sorted
                    .get(((q * sorted.len() as f64).ceil() as usize).saturating_sub(1))
                    .map_or("n/a".into(), |v| format!("{v:.2}"))
            };
            format!(
                "{} {} ({}/{}/{})",
                route.name(),
                ms.len(),
                at(0.5),
                at(0.9),
                at(0.99)
            )
        })
        .collect();
    format!("cpu ms by route, n (p50/p90/p99): {}", rows.join(", "))
}

/// The client-side wall-clock figures of the whole run, for the record:
/// they move with the host's steal, so no gate rests on them.
fn wall_figures(requests: &[Request]) -> String {
    let ms: Vec<f64> = requests.iter().map(|r| r.ms).collect();
    let answered = ms.iter().filter(|ms| ms.is_finite()).count();
    let shown = |q: f64| stats::percentile(&ms, q).map_or("n/a".into(), |v| format!("{v:.3}"));
    let ended = requests.last().map_or(0.0, |r| r.done);
    format!(
        "wall clock (ungated): latency p50 {} ms, p99 {} ms, {:.1} requests/s",
        shown(50.0),
        shown(99.0),
        if ended > 0.0 { answered as f64 / ended } else { 0.0 }
    )
}

/// Runs a serve workload.
pub fn run(cfg: &RunConfig, mode: Mode) -> Report {
    match run_inner(cfg, mode) {
        Ok(report) => report,
        Err(e) => Report::broken(e),
    }
}

fn run_inner(cfg: &RunConfig, mode: Mode) -> Result<Report, String> {
    let origin = Instant::now();
    let max_open = mode.max_open(LIVE_TENANTS);
    let work = cfg.work_dir.clone();
    let _ = std::fs::remove_dir_all(&work);
    let cable = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("cable");

    // The client (this thread) and the server it starts share one CPU.
    // With one request in flight they take turns on it, and neither
    // waits for the host to wake the other's idle virtual CPU, which
    // costs CPU time that moves with the host's load (README.md, "One
    // client, one CPU").
    let pinned = cpu::pin_to_one_cpu()
        .ok_or("cannot pin the client and server to one CPU")?;

    // Set-up: spawn the server several times and keep the last.
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUP_SPAWNS {
        let start = Instant::now();
        let s = Server::spawn(&cable, &work.join(format!("server-{i}")), max_open)?;
        setups.push(start.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one spawn");
    let setup_s = stats::median(&setups).expect("spawned");

    // The timed closed loop.
    let start = Instant::now();
    let server_cpu = cpu::Threads::of(server.child.id());
    let server_threads = server_cpu.count();
    let log = Client {
        addr: &server.addr,
        seed: cfg.seed,
        start,
        deadline: start + Duration::from_secs_f64(cfg.seconds),
        trace: cfg.trace,
        origin,
        server_cpu,
        cpu_mark: 0,
        log: ClientLog::default(),
    }
    .run();
    let peak_rss_mb = server.peak_rss_mb();
    let metrics_text = if cfg.trace {
        let mut off = Tracer::new(false, origin, 0);
        exchange(
            &server.addr,
            "GET",
            "/metrics",
            None,
            &mut off,
            &mut Vec::new(),
        )
        .map(|(_, body)| body)
        .unwrap_or_default()
    } else {
        String::new()
    };
    drop(server);

    let ClientLog {
        requests,
        tenants,
        groups,
        mut spans,
        connect_ms,
        slowdowns,
    } = log;
    let tenants: BTreeMap<usize, Tenant> = tenants.into_iter().collect();
    let attempted = requests.len() as u64;
    let failed = requests.iter().filter(|r| r.ms.is_infinite()).count() as u64;
    let mut notes = Vec::new();
    let mut info = vec![format!("client and server pinned to cpu {pinned}")];
    if failed > 0 {
        notes.push(format!(
            "{failed} of {attempted} requests failed or were refused"
        ));
    }

    // Output check: replay every tenant's mutating ops through
    // StoredSession; the digests must match the server's.
    let order: Vec<&Request> = requests.iter().collect();
    let mut tracer = Tracer::new(cfg.trace, origin, 1 << 62);
    let mut reopened = Vec::new();
    let replay_cap = if cfg.trace { max_open } else { usize::MAX };
    let replayed = replay_stored(
        &work.join("replay"),
        &order,
        &tenants,
        replay_cap,
        &mut tracer,
        &mut reopened,
    )?;
    for (index, tenant) in &tenants {
        if tenant.final_digest.as_ref() != replayed.get(index) {
            notes.push(format!(
                "tenant {}: server digest {:?} differs from the replay {:?}",
                tenant.name,
                tenant.final_digest.as_ref().map(Value::to_string),
                replayed.get(index).map(Value::to_string)
            ));
        }
    }

    let mut metrics = Vec::new();
    if cfg.trace {
        let api = replay_api(&work.join("api"), &order, max_open, &mut tracer);
        for (index, tenant) in &tenants {
            if tenant.final_digest.as_ref() != api.get(index) {
                notes.push(format!(
                    "tenant {}: in-process API digest differs",
                    tenant.name
                ));
            }
        }
        spans.extend(tracer.take());
        let hits = prom_counter(&metrics_text, "core_manager_cache_hits");
        let reopens = prom_counter(&metrics_text, "core_manager_reopens");
        let median_of = |traced: bool| {
            let v: Vec<f64> = groups
                .iter()
                .filter(|g| g.traced == traced)
                .map(|g| g.wall_s)
                .collect();
            stats::median(&v)
        };
        let overhead = match (median_of(true), median_of(false)) {
            (Some(t), Some(u)) => 100.0 * (t - u) / u,
            _ => 0.0,
        };
        let coverage = spans
            .iter()
            .filter(|s| s.name == "tenant_group")
            .map(|g| {
                let inner: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(g.id)).collect();
                100.0 * covered(g, &inner) as f64 / g.dur().max(1) as f64
            })
            .fold(f64::INFINITY, f64::min);
        let replays: Vec<f64> = reopened.iter().map(|&n| n as f64).collect();
        metrics.extend([
            Metric::new(
                "http.connect_ms_p50",
                required(&connect_ms, 50.0, "http.connect", &mut notes),
                "ms",
            ),
            Metric::new(
                "http.connect_ms_p99",
                required(&connect_ms, 99.0, "http.connect", &mut notes),
                "ms",
            ),
            Metric::new("core.focus_ms", mean_ms(&spans, "core.focus"), "ms"),
            Metric::new("store.ingest_ms", mean_ms(&spans, "store.ingest"), "ms"),
            Metric::new("store.label_ms", mean_ms(&spans, "store.label"), "ms"),
            Metric::new("store.reopen_ms", mean_ms(&spans, "store.reopen"), "ms"),
            Metric::new(
                "store.replayed_per_reopen",
                stats::mean(&replays).unwrap_or(0.0),
                "count",
            ),
            Metric::new(
                "manager.hit_ratio",
                stats::Ratio {
                    num: hits,
                    den: hits + reopens,
                }
                .value(),
                "ratio",
            ),
            Metric::new("trace.overhead_pct", overhead, "%"),
            Metric::new("trace.coverage_pct", coverage, "%"),
            Metric::new(
                "trace.passes",
                groups.iter().filter(|g| g.traced).count() as f64,
                "count",
            ),
            Metric::new(
                "fail_ratio",
                stats::fail_ratio(attempted, failed).value(),
                "ratio",
            ),
        ]);
        for route in Route::ALL {
            metrics.push(Metric::new(
                &format!("api.handle_ms.{}", route.name()),
                mean_ms(&spans, route.span()),
                "ms",
            ));
        }
    } else {
        let writes = requests.iter().filter(|r| r.route.writes()).count();
        let group_cpus: Vec<f64> = groups.iter().map(|g| g.cpu_s).collect();
        let (windowed, windows) = windowed(&requests, &mut notes, &mut info);
        // Every figure but memory at the reference host's speed: a time
        // divided by the slowdown, a rate multiplied by it.
        let slowdown = stats::median(&slowdowns).unwrap_or(f64::NAN);
        metrics.extend([
            Metric::new("setup_s", setup_s / slowdown, "s"),
            Metric::new(
                "pass_cpu_s",
                stats::median(&group_cpus).unwrap_or(f64::NAN) / slowdown,
                "s",
            ),
            Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        ]);
        metrics.extend(windowed.into_iter().map(|mut m| {
            m.value = if m.unit == "1/s" {
                m.value * slowdown
            } else {
                m.value / slowdown
            };
            m
        }));
        info.push(format!(
            "host slowdown {slowdown:.4} (median of {}); the figures by window and by route, and set-up {setup_s:.6} s, are before dividing by it",
            slowdowns.len()
        ));
        let shown: Vec<String> = group_cpus.iter().map(|s| format!("{s:.3}")).collect();
        info.push(format!("server cpu s by tenant group: {}", shown.join(" ")));
        info.push(route_figures(&requests));
        info.push(wall_figures(&requests));
        info.push(format!(
            "{attempted} requests ({writes} writes, {} reads) in {windows} windows, over {} tenant groups, cap {max_open}, {server_threads} server threads",
            attempted as usize - writes,
            groups.len()
        ));
    }
    let _ = std::fs::remove_dir_all(&work);
    Ok(Report {
        attempted,
        failed,
        metrics,
        spans,
        problems: notes,
        info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `i`-th request of a run that answers one per ms.
    fn request(i: u64, route: Route, cpu_ms: f64) -> Request {
        Request {
            route,
            ms: 2.0 * cpu_ms,
            cpu_ms,
            done: (i + 1) as f64 / 1000.0,
            ..Request::default()
        }
    }

    #[test]
    fn windows_split_the_run_evenly_and_report_medians() {
        // 2.5 windows' worth: two equal windows. Writes cost 1 ms and
        // reads 2 ms, except that every request of the second window
        // costs 10 ms.
        let n = 2 * WINDOW + WINDOW / 2;
        let requests: Vec<Request> = (0..n as u64)
            .map(|i| {
                let route = if i % 2 == 0 {
                    Route::Ingest
                } else {
                    Route::Focus
                };
                let ms = match (i as usize >= n / 2, route) {
                    (true, _) => 10.0,
                    (false, Route::Ingest) => 1.0,
                    (false, _) => 2.0,
                };
                request(i, route, ms)
            })
            .collect();
        let (mut notes, mut info) = (Vec::new(), Vec::new());
        let (metrics, windows) = windowed(&requests, &mut notes, &mut info);
        assert_eq!(windows, 2);
        assert!(notes.is_empty(), "{notes:?}");
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        // Medians of two windows: the mean of the two window figures.
        assert_eq!(value("req_cpu_ms_p50"), (1.0 + 10.0) / 2.0);
        assert_eq!(value("req_cpu_ms_p90"), (2.0 + 10.0) / 2.0);
        assert_eq!(value("write_cpu_ms_p90"), (1.0 + 10.0) / 2.0);
        assert_eq!(value("read_cpu_ms_p90"), (2.0 + 10.0) / 2.0);
        // The p99s are for the record only.
        assert!(metrics.iter().all(|m| !m.name.ends_with("_p99")));
        assert!(info.iter().any(|l| l.starts_with("write_cpu_ms_p99 (ungated): 5.5")));
        // Requests per CPU second: about 1000 / 1.5 in the first window,
        // 1000 / 10 in the second.
        let first_s = requests[..n / 2].iter().map(|r| r.cpu_ms).sum::<f64>() / 1e3;
        let rps = ((n / 2) as f64 / first_s + 1000.0 / 10.0) / 2.0;
        assert!((value("req_per_cpu_s") - rps).abs() < 1e-6);
    }

    #[test]
    fn a_window_without_enough_samples_fails_its_figure() {
        // 60 requests make one window, too small for a p90 with ten
        // samples beyond it; a refused request sits in it as +inf.
        let mut requests: Vec<Request> =
            (0..60).map(|i| request(i, Route::Lattice, 1.0)).collect();
        requests[7].cpu_ms = f64::INFINITY;
        let (mut notes, mut info) = (Vec::new(), Vec::new());
        let (metrics, windows) = windowed(&requests, &mut notes, &mut info);
        assert_eq!(windows, 1);
        let p90 = metrics.iter().find(|m| m.name == "req_cpu_ms_p90").unwrap();
        assert!(p90.value.is_nan());
        assert!(notes.iter().any(|n| n.starts_with("req_cpu_ms_p90")));
        // An ungated p99 that cannot be given fails nothing.
        assert!(!notes.iter().any(|n| n.contains("p99")));
        // Throughput counts only the answered requests and their cost.
        let rps = metrics.iter().find(|m| m.name == "req_per_cpu_s").unwrap();
        assert!((rps.value - 1000.0).abs() < 1e-6);
    }
}
