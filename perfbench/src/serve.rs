//! `serve_zipf` and `fleet_unique`: the daemon under multi-tenant load.
//!
//! `serve_zipf` boots one in-process `specrepaird` and replays zipfian
//! multi-tenant traffic from `loadgen::request_bodies`, with one request in
//! thirteen racing `Portfolio_All`: the oracle memo and candidate dedup do
//! most of the work. `fleet_unique` boots two shards (each with a
//! persistent cache in a fresh directory) behind `specrepaird route`, and
//! sends specs whose canonical fingerprints never repeat within a run:
//! memo and dedup are bypassed, every solve is cold, and every verdict is
//! appended to the log and exchanged with the owning shard.
//!
//! Each run: set-up (boot, timed several times), warm-up, then rounds of a
//! closed loop at `nproc` connections (throughput) and an open loop at a
//! fixed rate below capacity (latency, timed from each request's due
//! time).

use std::borrow::Cow;
use std::collections::HashMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use specrepair_core::OracleHandle;
use specrepair_server::{
    loadgen, spawn, spawn_router, LoadgenConfig, RepairService, RouterConfig, RouterHandle,
    ServerConfig, ServerHandle, ServiceConfig, ShardConfig, WorkloadProfile,
};
use specrepair_study::TechniqueId;
use specrepair_telemetry::{ClusterSection, Snapshot};

use crate::layers::{self, Layers};
use crate::spans::{BenchSpans, ProgramSpans};
use crate::util::{digest, median, mix, percentile, permutation, print_latency, Metrics, Outcome};

/// Per-request deadline: far above any service time, so a request only
/// times out when the system stalls.
const DEADLINE_MS: u64 = 60_000;
const READ_TIMEOUT: Duration = Duration::from_secs(90);
/// Boots timed for `setup_s`, the median boot. A boot is timed until its
/// `spawn` calls return; the wait for `/healthz` after them is printed,
/// not gated: the daemon's accept poll quantizes it to whole 5 ms steps.
const SETUP_BOOTS: usize = 40;
/// Rounds of a closed-loop and an open-loop segment per run.
const ROUNDS: usize = 6;
/// Open-loop requests per run, at least: p99 needs ten samples beyond it.
const MIN_OPEN_REQUESTS: usize = 1010;

/// The zipfian universe: one fixed `ZIPF_SEQUENCE`-request loadgen
/// stream over `ZIPF_TENANTS` tenants, so every run serves the same
/// tenant population; the run seed picks where in the stream the run
/// starts, and the run cycles from there. Every distinct body of the
/// stream has a committed reference.
const ZIPF_SEQUENCE: usize = 16_384;
const ZIPF_TENANTS: usize = 6;
const ZIPF_LOADGEN_SEED: u64 = 0x5e12_e000;

/// The fleet universe: entry `u = 108·a + b` repairs corpus spec `b` with
/// technique `(a + b) mod 12`, so any 1,296 consecutive entries cover every
/// (spec, technique) pair once and neighbouring entries differ in
/// technique. Each entry appends an unused empty predicate named after `u`:
/// the tag changes the canonical fingerprint (and that of every candidate)
/// without changing what the spec means.
pub const FLEET_UNIVERSE: usize = 8192;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Zipf,
    Fleet,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Zipf => "serve_zipf",
            Kind::Fleet => "fleet_unique",
        }
    }

    /// Warm-up and closed-loop seconds, open-loop rate and request count.
    /// The rates are fixed at a third to a half of each system's
    /// closed-loop capacity at two connections (135–260/s and 50–85/s on
    /// the 2-vCPU x86-64 VM this was written on, whose speed drifts), so
    /// the open loop runs without a growing backlog.
    fn plan(self, seconds: f64) -> (f64, f64, f64, usize) {
        // Shares of the run: (warm-up, closed loop, open loop). The zipf
        // warm-up is one pass over the population, about a sixth of a run.
        let (warm, closed, open, rate) = match self {
            Kind::Zipf => (0.0, 0.35, 0.45, 60.0),
            Kind::Fleet => (0.05, 0.3, 0.6, 30.0),
        };
        let open = ((seconds * open * rate) as usize).max(MIN_OPEN_REQUESTS);
        (seconds * warm, seconds * closed, rate, open)
    }
}

fn body(spec: &str, technique: &str, seed: u64) -> String {
    let mut quoted = String::new();
    specrepair_server::service::push_json_string(spec, &mut quoted);
    format!(
        "{{\"spec\":{quoted},\"technique\":\"{technique}\",\"deadline_ms\":{DEADLINE_MS},\
         \"seed\":{seed},\"budget\":{{\"max_candidates\":8,\"max_rounds\":2}}}}"
    )
}

/// One zipfian universe stream: `request_bodies` with the technique
/// rotation extended to thirteen labels, the thirteenth `Portfolio_All`.
fn zipf_sequence() -> Vec<String> {
    let config = LoadgenConfig {
        requests: ZIPF_SEQUENCE,
        deadline_ms: DEADLINE_MS,
        seed: ZIPF_LOADGEN_SEED,
        profile: WorkloadProfile::Zipfian,
        tenants: ZIPF_TENANTS,
        ..LoadgenConfig::default()
    };
    let twelve = TechniqueId::all();
    let mut thirteen: Vec<&str> = twelve.iter().map(|t| t.label()).collect();
    thirteen.push("Portfolio_All");
    loadgen::request_bodies(&config)
        .into_iter()
        .enumerate()
        .map(|(i, b)| {
            let from = format!("\"technique\":\"{}\"", twelve[i % 12].label());
            let to = format!("\"technique\":\"{}\"", thirteen[i % 13]);
            b.replacen(&from, &to, 1)
        })
        .collect()
}

/// The fleet universe's entry `u`, over the given corpus specs.
fn fleet_body(corpus: &[String], u: usize) -> String {
    let techniques = TechniqueId::all();
    let spec = format!("{}\npred benchTag{u} {{}}\n", corpus[u % corpus.len()]);
    let technique = techniques[(u / corpus.len() + u % corpus.len()) % techniques.len()].label();
    body(&spec, technique, 42)
}

fn fleet_corpus() -> Vec<String> {
    specrepair_benchmarks::full_study(crate::study::UNIVERSE_SCALE)
        .into_iter()
        .map(|p| p.faulty_source)
        .collect()
}

/// A run's request sequence: where the bodies come from, plus the order
/// they are sent in. `serve_zipf` cycles through its order; a
/// `fleet_unique` run ends a phase early rather than send an entry twice.
#[derive(Debug, PartialEq, Eq)]
pub struct Requests {
    source: Source,
    order: Vec<u32>,
    wrap: bool,
}

#[derive(Debug, PartialEq, Eq)]
enum Source {
    /// The distinct bodies, built up front.
    Bodies(Vec<String>),
    /// Fleet universe entries from `offset` on, each body made when it is
    /// sent, so the benchmark holds a few specs rather than the universe.
    Fleet { corpus: Vec<String>, offset: usize },
}

impl Requests {
    /// Every distinct body once, in seeded order (`serve_zipf` only).
    fn distinct(&self, seed: u64) -> Requests {
        let Source::Bodies(bodies) = &self.source else {
            unreachable!("only the zipfian stream is warmed body by body")
        };
        Requests {
            source: Source::Bodies(bodies.clone()),
            order: permutation(bodies.len(), seed)
                .into_iter()
                .map(|i| i as u32)
                .collect(),
            wrap: false,
        }
    }

    /// Whether the sequence has a request `index`.
    fn has(&self, index: usize) -> bool {
        self.wrap || index < self.order.len()
    }

    fn get(&self, index: usize) -> Option<Cow<'_, str>> {
        let slot = if self.wrap {
            index % self.order.len()
        } else {
            index
        };
        let i = *self.order.get(slot)? as usize;
        Some(match &self.source {
            Source::Bodies(bodies) => Cow::Borrowed(&bodies[i]),
            Source::Fleet { corpus, offset } => {
                Cow::Owned(fleet_body(corpus, (offset + i) % FLEET_UNIVERSE))
            }
        })
    }
}

/// The request sequence of one run, as a pure function of the seed.
pub fn inputs(kind: Kind, seed: u64) -> Requests {
    match kind {
        Kind::Zipf => {
            let mut bodies: Vec<String> = Vec::new();
            let mut index: HashMap<String, u32> = HashMap::new();
            let mut order: Vec<u32> = zipf_sequence()
                .into_iter()
                .map(|b| {
                    *index.entry(b).or_insert_with_key(|b| {
                        bodies.push(b.clone());
                        bodies.len() as u32 - 1
                    })
                })
                .collect();
            order.rotate_left((mix(seed) % ZIPF_SEQUENCE as u64) as usize);
            Requests {
                source: Source::Bodies(bodies),
                order,
                wrap: true,
            }
        }
        Kind::Fleet => Requests {
            source: Source::Fleet {
                corpus: fleet_corpus(),
                offset: mix(seed) as usize % FLEET_UNIVERSE,
            },
            order: (0..FLEET_UNIVERSE as u32).collect(),
            wrap: false,
        },
    }
}

/// Regenerates the committed references from the control arm: a
/// `RepairService` over `OracleHandle::disabled()` without dedup or
/// incremental solving, called in process on every distinct body.
pub fn make_refs(kind: Kind) -> HashMap<String, String> {
    let mut bodies: Vec<String> = match kind {
        Kind::Zipf => zipf_sequence(),
        Kind::Fleet => {
            let corpus = fleet_corpus();
            (0..FLEET_UNIVERSE)
                .map(|u| fleet_body(&corpus, u))
                .collect()
        }
    };
    bodies.sort_unstable();
    bodies.dedup();
    let control = RepairService::new(
        OracleHandle::disabled()
            .without_dedup()
            .without_incremental(),
        ServiceConfig {
            default_deadline_ms: DEADLINE_MS,
            max_scope: ServerConfig::default().max_scope,
            chaos_rate: 0.0,
            chaos_seed: ServerConfig::default().chaos_seed,
        },
    );
    let next = AtomicUsize::new(0);
    let out = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(b) = bodies.get(i) else { return };
                let handled = control.handle_repair(b);
                assert_eq!(handled.response.status, 200, "control arm failed on {b}");
                let text = &handled.response.body;
                let d = crate::refs::response_digest(text).expect("control response is JSON");
                out.lock()
                    .expect("refs poisoned")
                    .insert(digest(b.as_bytes()), d);
            });
        }
    });
    out.into_inner().expect("refs poisoned")
}

/// The in-process system under test.
enum System {
    Single(ServerHandle),
    Fleet {
        shards: Vec<ServerHandle>,
        router: RouterHandle,
        dirs: Vec<PathBuf>,
    },
}

impl System {
    fn entry(&self) -> String {
        match self {
            System::Single(h) => h.addr().to_string(),
            System::Fleet { router, .. } => router.addr().to_string(),
        }
    }

    fn shard_addrs(&self) -> Vec<String> {
        match self {
            System::Single(h) => vec![h.addr().to_string()],
            System::Fleet { shards, .. } => shards.iter().map(|s| s.addr().to_string()).collect(),
        }
    }

    fn stop(self) {
        match self {
            System::Single(h) => {
                h.shutdown();
                h.join();
            }
            System::Fleet {
                shards,
                router,
                dirs,
            } => {
                router.shutdown();
                router.join();
                for s in &shards {
                    s.shutdown();
                }
                for s in shards {
                    s.join();
                }
                for d in dirs {
                    let _ = std::fs::remove_dir_all(d);
                }
            }
        }
    }
}

fn reserve_ports(n: usize) -> std::io::Result<Vec<String>> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect()
}

/// A booted system with how long its boot took.
struct Booted {
    system: System,
    /// Seconds in the `spawn` / `spawn_router` calls: binding, worker
    /// start-up and persistent-log recovery.
    boot_s: f64,
    /// Seconds until every process had answered `/healthz`.
    ready_s: f64,
}

/// Boots the system and waits until every process answers `/healthz`.
fn boot(kind: Kind, scratch: &Path, rep: usize) -> Result<Booted, String> {
    let err = |e: std::io::Error| format!("boot failed: {e}");
    let peers = match kind {
        Kind::Zipf => Vec::new(),
        Kind::Fleet => reserve_ports(2).map_err(err)?,
    };
    let dirs: Vec<PathBuf> = (0..peers.len())
        .map(|shard_id| {
            let dir = scratch.join(format!("boot{rep}-shard{shard_id}"));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        })
        .collect();
    let t0 = Instant::now();
    let system = match kind {
        Kind::Zipf => System::Single(
            spawn(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                default_deadline_ms: DEADLINE_MS,
                ..ServerConfig::default()
            })
            .map_err(err)?,
        ),
        Kind::Fleet => {
            let mut shards = Vec::new();
            for (shard_id, dir) in dirs.iter().enumerate() {
                shards.push(
                    spawn(ServerConfig {
                        addr: peers[shard_id].clone(),
                        default_deadline_ms: DEADLINE_MS,
                        cache_dir: Some(dir.clone()),
                        shard: Some(ShardConfig {
                            shard_id,
                            peers: peers.clone(),
                        }),
                        ..ServerConfig::default()
                    })
                    .map_err(err)?,
                );
            }
            let router = spawn_router(RouterConfig {
                addr: "127.0.0.1:0".to_string(),
                shards: peers,
                default_deadline_ms: DEADLINE_MS,
                ..RouterConfig::default()
            })
            .map_err(err)?;
            System::Fleet {
                shards,
                router,
                dirs,
            }
        }
    };
    let boot_s = t0.elapsed().as_secs_f64();
    for addr in system.shard_addrs().iter().chain([&system.entry()]) {
        loadgen::wait_healthy(addr).map_err(|e| format!("{addr} never became healthy: {e}"))?;
    }
    Ok(Booted {
        system,
        boot_s,
        ready_s: t0.elapsed().as_secs_f64(),
    })
}

/// One answered request, reduced as it arrives to what the run checks
/// and reads, so that the benchmark holds no response bodies.
struct Reply {
    index: usize,
    status: u16,
    /// When the reply arrived.
    done: Instant,
    answer: Answer,
    /// Send to receive, ms.
    service_latency_ms: f64,
    /// Due time to receive, ms (open loop; equals the above otherwise).
    latency_ms: f64,
}

/// What the run keeps of a response body.
struct Answer {
    /// The body's reference digest ([`crate::refs::value_digest`]).
    digest: Result<String, String>,
    /// The response's `duration_ms`.
    duration_ms: Option<f64>,
    /// Portfolio entrants the response reports cancelled.
    cancelled: u64,
    /// The returned candidate, kept in traced runs only, for scoring.
    candidate: Option<String>,
}

impl Answer {
    fn read(body: &str, keep_candidate: bool) -> Answer {
        let doc = match serde_json::from_str::<serde::Value>(body) {
            Ok(doc) => doc,
            Err(e) => {
                return Answer {
                    digest: Err(format!("response is not JSON: {e}")),
                    duration_ms: None,
                    cancelled: 0,
                    candidate: None,
                }
            }
        };
        let (mut duration_ms, mut cancelled, mut candidate) = (None, 0, None);
        if let serde::Value::Map(fields) = &doc {
            for (k, v) in fields {
                match (k.as_str(), v) {
                    ("duration_ms", v) => duration_ms = Some(as_f64(v)),
                    ("entrants", serde::Value::Seq(es)) => {
                        cancelled += es
                            .iter()
                            .filter(|e| match e {
                                serde::Value::Map(f) => f.iter().any(|(k, v)| {
                                    k == "cancelled_at_ms" && *v != serde::Value::Null
                                }),
                                _ => false,
                            })
                            .count() as u64;
                    }
                    ("candidate", serde::Value::Str(c)) if keep_candidate => {
                        candidate = Some(c.clone());
                    }
                    _ => {}
                }
            }
        }
        Answer {
            digest: crate::refs::value_digest(doc),
            duration_ms,
            cancelled,
            candidate,
        }
    }
}

fn send(addr: &str, body: &str) -> (u16, String) {
    specrepair_cluster::client::call(addr, "POST", "/repair", body, READ_TIMEOUT)
        .unwrap_or((0, String::new()))
}

/// Closed loop: `conns` connections, each sending its next request as
/// soon as the previous one returns, until `until` (or, without a time
/// limit, until the sequence is spent).
fn closed_loop(
    addr: &str,
    requests: &Requests,
    next: &AtomicUsize,
    conns: usize,
    until: Option<Instant>,
    bench: &BenchSpans,
) -> Vec<Reply> {
    let replies = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut own = Vec::new();
                while until.is_none_or(|until| Instant::now() < until) {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(b) = requests.get(index) else { break };
                    let t0 = Instant::now();
                    let (status, body) = bench.time("client.repair", || send(addr, &b));
                    let done = Instant::now();
                    let ms = done.duration_since(t0).as_secs_f64() * 1e3;
                    own.push(Reply {
                        index,
                        status,
                        done,
                        answer: Answer::read(&body, bench.on()),
                        service_latency_ms: ms,
                        latency_ms: ms,
                    });
                }
                replies.lock().expect("reply log poisoned").extend(own);
            });
        }
    });
    replies.into_inner().expect("reply log poisoned")
}

/// Open loop: request `k` is due at `start + k / rate`; `conns` sender
/// threads take due requests in turn. Latency counts from the due time,
/// so a stall also delays every request queued behind it. Returns the
/// replies and how late each send left.
fn open_loop(
    addr: &str,
    requests: &Requests,
    first: usize,
    count: usize,
    rate: f64,
    conns: usize,
    bench: &BenchSpans,
) -> (Vec<Reply>, Vec<f64>) {
    let start = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(0);
    let replies = Mutex::new(Vec::new());
    let late = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let (mut own, mut own_late) = (Vec::new(), Vec::new());
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= count {
                        break;
                    }
                    let index = first + k;
                    let Some(b) = requests.get(index) else { break };
                    let due = start + Duration::from_secs_f64(k as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    own_late.push(sent.duration_since(due).as_secs_f64() * 1e3);
                    let (status, body) = bench.time("client.repair", || send(addr, &b));
                    let done = Instant::now();
                    own.push(Reply {
                        index,
                        status,
                        done,
                        answer: Answer::read(&body, bench.on()),
                        service_latency_ms: done.duration_since(sent).as_secs_f64() * 1e3,
                        latency_ms: done.duration_since(due).as_secs_f64() * 1e3,
                    });
                }
                replies.lock().expect("reply log poisoned").extend(own);
                late.lock().expect("late log poisoned").extend(own_late);
            });
        }
    });
    (
        replies.into_inner().expect("reply log poisoned"),
        late.into_inner().expect("late log poisoned"),
    )
}

/// Checks replies against the references, counts them into `out`, and
/// folds response fields into the layer readings.
fn tally(
    out: &mut Outcome,
    replies: &[Reply],
    requests: &Requests,
    refs: &HashMap<String, String>,
    layers: &mut Layers,
) {
    out.attempted += replies.len() as u64;
    let (mut failed, mut missing) = (0, 0);
    for r in replies {
        match r.status {
            503 => layers.shed += 1,
            504 => layers.timeouts += 1,
            _ => {}
        }
        if r.status != 200 {
            failed += 1;
            continue;
        }
        let want = refs.get(&digest(
            requests
                .get(r.index)
                .expect("sent requests exist")
                .as_bytes(),
        ));
        match want {
            None => {
                missing += 1;
                failed += 1;
            }
            Some(want) if r.answer.digest.as_ref() != Ok(want) => failed += 1,
            Some(_) => {}
        }
        if let Some(d) = r.answer.duration_ms {
            layers.service_ms.push(d);
            layers.overhead_ms.push(r.service_latency_ms - d);
        }
        layers.portfolio_cancelled += r.answer.cancelled;
    }
    out.failed += failed;
    out.unreferenced += missing;
}

fn as_f64(v: &serde::Value) -> f64 {
    match v {
        serde::Value::I64(n) => *n as f64,
        serde::Value::U64(n) => *n as f64,
        serde::Value::F64(x) => *x,
        _ => 0.0,
    }
}

fn snapshot(addr: &str) -> Result<Snapshot, String> {
    let body = loadgen::fetch_metrics(addr)?;
    Snapshot::from_json(&body).map_err(|e| format!("{addr} /metrics: {e}"))
}

/// Reads the oracle, dedup, incremental, cluster and persistence counters
/// from every shard's `/metrics` (and the router's degraded count).
fn read_counters(system: &System, layers: &mut Layers) -> Result<(), String> {
    for addr in system.shard_addrs() {
        let s = snapshot(&addr)?;
        layers.oracle_hits += s.oracle_cache.hits;
        layers.oracle_misses += s.oracle_cache.misses;
        layers.oracle_collapsed += s.oracle_cache.collapsed;
        layers.incr_checks += s.incremental.checks;
        layers.incr_fallbacks += s.incremental.fallbacks;
        layers.clause_reuse.0 += s.incremental.clause_reuse_rate * s.incremental.checks as f64;
        layers.clause_reuse.1 += s.incremental.checks as f64;
        layers.learnt_retained += s.incremental.learned_clauses_retained;
        layers.dedup_hits += s.candidate_dedup.hits;
        layers.dedup_misses += s.candidate_dedup.misses;
        if let Some(p) = &s.persistent {
            layers.persist_appends += p.appends;
        }
        if let ClusterSection::Shard(c) = &s.cluster {
            layers.remote_puts += c.remote_puts;
            layers.remote_hits += c.remote_hits;
        }
    }
    if let System::Fleet { router, dirs, .. } = system {
        if let ClusterSection::Router(r) = &snapshot(&router.addr().to_string())?.cluster {
            layers.degraded_solves += r.degraded_local_solves;
        }
        for d in dirs {
            layers.log_bytes += std::fs::metadata(d.join("verdicts.log")).map_or(0, |m| m.len());
        }
    }
    Ok(())
}

pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let refs = crate::refs::load(kind.name())?;
    let requests = inputs(kind, seed);
    let own_mb = crate::util::reset_peak_rss()?;
    let bench = BenchSpans::new(trace);
    let scratch =
        PathBuf::from(".bench_tmp").join(format!("{}-{}", kind.name(), std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let result = drive(
        kind, seed, seconds, trace, &requests, &refs, &bench, &scratch, own_mb,
    );
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_tmp"); // only when no other run uses it
    result
}

#[allow(clippy::too_many_arguments)]
fn drive(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    requests: &Requests,
    refs: &HashMap<String, String>,
    bench: &BenchSpans,
    scratch: &Path,
    own_mb: f64,
) -> Result<Outcome, String> {
    // Set-up: boot the whole system several times, keep the last one.
    let (mut setup, mut ready) = (Vec::new(), Vec::new());
    let mut system = None;
    for rep in 0..SETUP_BOOTS {
        if let Some(s) = system.take() {
            System::stop(s);
        }
        let booted = bench.time("server.boot", || boot(kind, scratch, rep))?;
        setup.push(booted.boot_s);
        ready.push(booted.ready_s);
        system = Some(booted.system);
    }
    let system = system.expect("at least one boot");
    let addr = system.entry();
    let conns = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2);
    let (warm_s, closed_s, rate, open_requests) = kind.plan(seconds);
    let mut layers = Layers {
        counter_source: "/metrics",
        ..Layers::default()
    };
    let mut spans = ProgramSpans::default();
    let mut out = Outcome::default();
    let next = AtomicUsize::new(0);

    // Warm-up. `serve_zipf` sends every distinct body of its population
    // once, in seeded order, so the measured phases see a warm daemon;
    // `fleet_unique` only warms threads and sockets, on fresh specs.
    match kind {
        Kind::Zipf => {
            let distinct = requests.distinct(seed);
            let warm = closed_loop(&addr, &distinct, &AtomicUsize::new(0), conns, None, bench);
            tally(&mut out, &warm, &distinct, refs, &mut Layers::default());
        }
        Kind::Fleet => {
            let until = Instant::now() + Duration::from_secs_f64(warm_s);
            let warm = closed_loop(&addr, requests, &next, conns, Some(until), bench);
            tally(&mut out, &warm, requests, refs, &mut Layers::default());
        }
    }

    // Measured phases: `ROUNDS` rounds of a closed-loop segment and then
    // an open-loop segment, so that both phases sample the whole run: a
    // slow spell of a shared host, seconds to minutes long, then weighs on
    // both alike rather than on whichever phase it overlapped. Traced
    // runs turn the collector on in the closed-loop segments of odd rounds
    // only, for the overhead ratio, and in every open-loop segment.
    let workers = match &system {
        System::Single(_) => ServerConfig::default().workers,
        System::Fleet { shards, .. } => shards.len() * ServerConfig::default().workers,
    };
    let (mut closed, mut open, mut late) = (Vec::new(), Vec::new(), Vec::new());
    // Arrival of each successful closed-loop reply, in seconds of
    // closed-loop time (the segments laid end to end).
    let mut closed_clock = Vec::new();
    let mut closed_wall = 0.0;
    let (mut on_ms, mut on_n, mut off_ms, mut off_n) = (0f64, 0usize, 0f64, 0usize);
    for round in 0..ROUNDS {
        let traced = trace && round % 2 == 1;
        specrepair_trace::set_enabled(traced);
        let t0 = Instant::now();
        let until = t0 + Duration::from_secs_f64(closed_s / ROUNDS as f64);
        let part = closed_loop(&addr, requests, &next, conns, Some(until), bench);
        let dt = t0.elapsed().as_secs_f64();
        specrepair_trace::set_enabled(false);
        if traced {
            on_ms += dt * 1e3;
            on_n += part.len();
            let before: u64 = spans.cells.iter().map(|(_, ns)| ns).sum();
            spans.absorb(&specrepair_trace::take_spans());
            let after: u64 = spans.cells.iter().map(|(_, ns)| ns).sum();
            layers.busy_cell_ns += (after - before) as f64;
            layers.slot_ns += dt * 1e9 * workers as f64;
        } else {
            off_ms += dt * 1e3;
            off_n += part.len();
        }
        closed_clock.extend(
            part.iter()
                .filter(|r| r.status == 200)
                .map(|r| closed_wall + r.done.duration_since(t0).as_secs_f64()),
        );
        closed_wall += dt;
        closed.extend(part);

        // Open-loop segment at a fixed rate below capacity.
        specrepair_trace::set_enabled(trace);
        let first = next.load(Ordering::Relaxed);
        let share = open_requests * (round + 1) / ROUNDS - open_requests * round / ROUNDS;
        let count = if requests.wrap {
            share
        } else {
            share.min(requests.order.len().saturating_sub(first))
        };
        let (part, part_late) = open_loop(&addr, requests, first, count, rate, conns, bench);
        next.fetch_add(count, Ordering::Relaxed);
        specrepair_trace::set_enabled(false);
        if trace {
            spans.absorb(&specrepair_trace::take_spans());
        }
        open.extend(part);
        late.extend(part_late);
        if !requests.has(next.load(Ordering::Relaxed)) {
            break; // the fleet universe is spent: every spec stays unique
        }
    }
    tally(&mut out, &closed, requests, refs, &mut layers);
    tally(&mut out, &open, requests, refs, &mut layers);
    let ok = closed_clock.len();
    closed_clock.sort_by(f64::total_cmp);
    let rate_windows = window_rates(&closed_clock);
    let mut lat: Vec<f64> = open.iter().map(|r| r.latency_ms).collect();
    lat.sort_by(f64::total_cmp);

    if trace {
        spans.absorb(&specrepair_trace::take_spans());
        if on_n > 0 && off_n > 0 {
            layers.overhead_ratio = (on_ms / on_n as f64) / (off_ms / off_n as f64);
        }
        layers.gen_late_ms = late;
        if let System::Fleet { shards, .. } = &system {
            layers.relay_ms = relay_samples(&addr, shards, requests, &closed, bench);
        }
        let counters = read_counters(&system, &mut layers);
        System::stop(system);
        counters?;
        time_single_layers(&closed, requests, bench, &mut layers);
        let metrics = layers::emit(&layers, &spans);
        if !layers::report(&metrics, &spans) {
            out.failed += 1;
        }
        crate::dump_trace(kind.name(), seed, &bench.take(), &metrics)?;
        out.metrics = metrics;
        return Ok(out);
    }
    System::stop(system);

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setup), "s");
    if rate_windows.is_empty() {
        return Err(format!("only {ok} successful closed-loop replies"));
    }
    metrics.put("cells_per_s", median(&rate_windows), "1/s");
    let peak = crate::util::peak_rss_mb().ok_or("no VmHWM")?;
    metrics.put("peak_rss_mb", peak, "MB");
    print_latency(kind.name(), &lat);
    println!(
        "{}: boot median {:.3} ms, ready (every /healthz answered) median {:.3} ms \
         over {SETUP_BOOTS} boots; peak_rss_mb {peak:.1} MB, of which {own_mb:.1} MB \
         was resident before the first boot (process image, inputs, references)",
        kind.name(),
        median(&setup) * 1e3,
        median(&ready) * 1e3,
    );
    late.sort_by(f64::total_cmp);
    println!(
        "{}: closed loop {ok} ok in {closed_wall:.2} s at {conns} connections \
         over {ROUNDS} rounds (per-window rates {rate_windows:.1?}); open loop {} requests \
         at {rate:.1}/s, \
         sender late p50 {:.3} ms",
        kind.name(),
        open.len(),
        percentile(&late, 0.5).unwrap_or(0.0)
    );
    out.metrics = metrics;
    Ok(out)
}

/// Replies per closed-loop throughput window.
const WINDOW: usize = 50;

/// Closed-loop throughput per window of `WINDOW` successive successful
/// replies: `WINDOW` over the closed-loop time the window took. `clock`
/// holds the replies' arrival times in seconds of closed-loop time,
/// ascending. Their median is the closed-loop throughput — a stall of the
/// host slows a few windows, which moves the median less than the mean.
fn window_rates(clock: &[f64]) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut from = 0.0;
    for w in clock.chunks_exact(WINDOW) {
        let to = w[WINDOW - 1];
        rates.push(WINDOW as f64 / (to - from));
        from = to;
    }
    rates
}

/// Router hop cost: replays of already-served bodies, sent straight to
/// the owning shard and through the router in alternating order; the
/// sample is the difference of the two latencies. Replays hit the
/// shard's memo, so both legs do the same shard-side work.
fn relay_samples(
    router: &str,
    shards: &[ServerHandle],
    requests: &Requests,
    served: &[Reply],
    bench: &BenchSpans,
) -> Vec<f64> {
    let peers: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let ring = specrepair_cluster::ShardRing::from_addrs(&peers);
    let mut out = Vec::new();
    for (k, r) in served
        .iter()
        .filter(|r| r.status == 200)
        .take(100)
        .enumerate()
    {
        let b = requests.get(r.index).expect("sent requests exist");
        let Some(spec) = spec_of(&b) else { continue };
        let Ok(parsed) = mualloy_syntax::parse_spec(&spec) else {
            continue;
        };
        let owner = &peers[ring.owner_index(mualloy_syntax::hash::spec_fingerprint(&parsed))];
        let time = |addr: &str| {
            let t0 = Instant::now();
            bench.time("client.repair", || send(addr, &b));
            t0.elapsed().as_secs_f64() * 1e3
        };
        let (direct, routed) = if k % 2 == 0 {
            let d = time(owner);
            (d, time(router))
        } else {
            let r = time(router);
            (time(owner), r)
        };
        out.push(routed - direct);
    }
    out
}

fn spec_of(body: &str) -> Option<String> {
    let serde::Value::Map(doc) = serde_json::from_str::<serde::Value>(body).ok()? else {
        return None;
    };
    doc.into_iter().find_map(|(k, v)| match (k.as_str(), v) {
        ("spec", serde::Value::Str(s)) => Some(s),
        _ => None,
    })
}

/// Times the benchmark's own calls into the parser, the fingerprinter and
/// the scorer on served specs and the candidates returned for them.
fn time_single_layers(
    replies: &[Reply],
    requests: &Requests,
    bench: &BenchSpans,
    layers: &mut Layers,
) {
    for r in replies.iter().filter(|r| r.status == 200).take(200) {
        let Some(spec) = requests.get(r.index).and_then(|b| spec_of(&b)) else {
            continue;
        };
        let t0 = Instant::now();
        let parsed = bench.time("syntax.parse_spec", || mualloy_syntax::parse_spec(&spec));
        layers.parse_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let Ok(parsed) = parsed else { continue };
        let t0 = Instant::now();
        std::hint::black_box(bench.time("syntax.spec_fingerprint", || {
            mualloy_syntax::hash::spec_fingerprint(&parsed)
        }));
        layers.fingerprint_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let Some(candidate) = &r.answer.candidate else {
            continue;
        };
        let Ok(cand) = mualloy_syntax::parse_spec(candidate) else {
            continue;
        };
        let t0 = Instant::now();
        std::hint::black_box(bench.time("metrics.score", || {
            (
                specrepair_metrics::candidate_metrics(&parsed, &spec, Some(candidate)),
                specrepair_metrics::tree_diff(&parsed, &cand).summary(),
            )
        }));
        layers.score_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for kind in [Kind::Zipf, Kind::Fleet] {
            let a = inputs(kind, 11);
            assert_eq!(a, inputs(kind, 11));
            let b = inputs(kind, 12);
            assert!(
                (0..64).any(|j| a.get(j) != b.get(j)),
                "seeds 11 and 12 agree"
            );
        }
    }

    #[test]
    fn fleet_fingerprints_are_all_distinct() {
        let requests = inputs(Kind::Fleet, 3);
        let mut seen = HashSet::new();
        let mut pairs = HashSet::new();
        for j in 0..FLEET_UNIVERSE {
            let b = requests.get(j).expect("universe entry");
            let spec = mualloy_syntax::parse_spec(&spec_of(&b).expect("body has a spec"))
                .expect("fleet specs parse");
            assert!(
                seen.insert(mualloy_syntax::hash::spec_fingerprint(&spec)),
                "repeated fingerprint"
            );
            if j < 1296 {
                let technique = b.split("\"technique\":\"").nth(1).expect("technique");
                pairs.insert((
                    b.split("pred benchTag").next().map(str::to_string),
                    technique.to_string(),
                ));
            }
        }
        assert_eq!(seen.len(), FLEET_UNIVERSE);
        assert!(
            requests.get(FLEET_UNIVERSE).is_none(),
            "a fleet run never wraps"
        );
        assert_eq!(
            pairs.len(),
            1296,
            "1,296 consecutive entries cover every pair"
        );
    }

    #[test]
    fn zipf_rotation_sends_one_portfolio_in_thirteen() {
        for (i, b) in zipf_sequence().iter().enumerate() {
            let portfolio = b.contains("\"technique\":\"Portfolio_All\"");
            assert_eq!(portfolio, i % 13 == 12, "request {i}");
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // A server that takes 50 ms per request, driven at 100/s by one
        // connection: each request waits for the one before, so latency
        // from the due time grows while send-to-receive stays ~50 ms.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for stream in listener.incoming().take(6) {
                let mut stream = stream.unwrap();
                let mut buf = [0u8; 4096];
                let _ = std::io::Read::read(&mut stream, &mut buf);
                std::thread::sleep(Duration::from_millis(50));
                let _ = std::io::Write::write_all(
                    &mut stream,
                    b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}",
                );
            }
        });
        let requests = Requests {
            source: Source::Bodies(vec!["{}".to_string()]),
            order: vec![0; 6],
            wrap: false,
        };
        let (replies, late) = open_loop(&addr, &requests, 0, 6, 100.0, 1, &BenchSpans::new(false));
        server.join().unwrap();
        let mut replies = replies;
        replies.sort_by_key(|r| r.index);
        let last = &replies[5];
        assert!(
            last.service_latency_ms < 120.0,
            "{}",
            last.service_latency_ms
        );
        // Due at 50 ms, sent after five 50 ms services: ~250 ms queued.
        assert!(last.latency_ms > 200.0, "{}", last.latency_ms);
        assert!(late.iter().cloned().fold(0.0, f64::max) > 150.0);
    }
}
