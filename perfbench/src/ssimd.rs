//! `ssimd_mix`: an in-process ssimd on loopback with default workers,
//! driven by a closed loop of two clients — one TCP `Client`, one HTTP
//! POST-and-poll — each waiting for every reply, as `ssim submit` and
//! `ssim sweep --daemon` callers do.
//!
//! Jobs are short SPEC simulate jobs drawn from a seeded stream. About
//! [`REPEAT_PERCENT`]% repeat a job from a small hot set, warmed during
//! set-up, so they hit the result cache; the rest are fresh and execute.
//! Every reply's result must equal, byte for byte, what an in-process
//! `Simulator::run_with` returns for the same job.

use crate::digest::{fnv_hex, Digests, Ledger};
use crate::tracer::{self, Tracer, ROOT};
use crate::{
    setup_live_line, stats, Layers, Measured, PassTimes, RequestPeaks, SplitMix, SETUP_REPEATS,
};
use sharing_core::{par, RunOptions, SimConfig, Simulator, VCoreShape};
use sharing_json::Json;
use sharing_server::protocol::{Envelope, Job, JobWorkload, Request, RunJob, PROTO_VERSION};
use sharing_server::{Client, Server, ServerConfig, ServerHandle};
use sharing_trace::{Benchmark, TraceSpec, SPEC_BENCHMARKS};
use std::io::{Error, ErrorKind};
use std::time::{Duration, Instant};

/// Name used in reports and `digests.json`.
pub const NAME: &str = "ssimd_mix";

/// Jobs in the hot set.
pub const HOT_JOBS: usize = 32;

/// Share of jobs, in percent, that repeat a hot-set job. Kept clear of
/// 50 so the median sits inside the cache-hit cluster instead of on the
/// boundary between hits and misses.
pub const REPEAT_PERCENT: u64 = 60;

/// Trace lengths a job may ask for.
const LENS: [usize; 3] = [2_000, 3_000, 4_000];

/// A run stops here even when a client lacks the samples for a p99.
const CAP: Duration = Duration::from_secs(120);

/// Load runs in segments this long; throughput is their median.
const SEGMENT: Duration = Duration::from_secs(1);

/// Wait before the second poll of an HTTP job; it doubles per poll up
/// to [`POLL_WAIT_MAX`], so a slow job does not multiply the polling.
const POLL_WAIT: Duration = Duration::from_micros(100);

/// Longest wait between two polls of an HTTP job.
const POLL_WAIT_MAX: Duration = Duration::from_micros(1_600);

/// Longest wait for any single reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Jobs per client in each pass of the traced run.
const TRACED_JOBS: usize = 600;

/// Cached jobs the traced run sends over one persistent connection, the
/// way `ssim sweep --daemon` and coordinator dispatch hold theirs.
const PERSISTENT_JOBS: usize = 12;

/// One simulate job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// SPEC benchmark.
    pub bench: Benchmark,
    /// VCore shape.
    pub shape: VCoreShape,
    /// Trace length.
    pub len: usize,
    /// Trace seed.
    pub seed: u64,
}

impl JobSpec {
    /// Draws a job from `rng`.
    pub fn draw(rng: &mut SplitMix) -> Self {
        let shapes: Vec<VCoreShape> = VCoreShape::sweep_grid().collect();
        JobSpec {
            bench: SPEC_BENCHMARKS[rng.below(SPEC_BENCHMARKS.len() as u64) as usize],
            shape: shapes[rng.below(shapes.len() as u64) as usize],
            len: LENS[rng.below(LENS.len() as u64) as usize],
            seed: rng.next_u64() >> 16,
        }
    }

    /// The protocol request line for this job.
    #[must_use]
    pub fn envelope(&self) -> Envelope {
        Envelope {
            id: None,
            proto: Some(PROTO_VERSION),
            trace: None,
            req: Request::Job(Job::Run(RunJob {
                workload: JobWorkload::Benchmark(self.bench),
                slices: self.shape.slices,
                banks: self.shape.l2_banks,
                len: self.len,
                seed: self.seed,
            })),
        }
    }

    /// The result bytes an in-process `Simulator::run_with` gives.
    #[must_use]
    pub fn reference(&self) -> String {
        let cfg = SimConfig::with_shape(self.shape.slices, self.shape.l2_banks)
            .expect("sweep grid shapes are valid");
        let trace = self.bench.generate(&TraceSpec::new(self.len, self.seed));
        let result = Simulator::new(cfg)
            .expect("valid config")
            .run_with(&trace, RunOptions::new())
            .result;
        sharing_json::to_string(&result)
    }
}

/// The hot set of one input variant.
#[must_use]
pub fn hot_set(variant: u64) -> Vec<JobSpec> {
    let mut rng = SplitMix::new(0x55D0_0000 + variant);
    (0..HOT_JOBS).map(|_| JobSpec::draw(&mut rng)).collect()
}

/// Digest of the hot set's reference results.
#[must_use]
pub fn hot_digest(refs: &[String]) -> String {
    fnv_hex(refs.concat().as_bytes())
}

/// The result payload of a successful reply line, as raw bytes.
#[must_use]
pub fn payload(line: &str) -> Option<&str> {
    if !line.contains("\"ok\":true") {
        return None;
    }
    let at = line.find("\"result\":")? + "\"result\":".len();
    line.strip_suffix('}')?.get(at..)
}

/// One client's seeded job stream.
struct Stream<'a> {
    rng: SplitMix,
    hot: &'a [JobSpec],
}

impl<'a> Stream<'a> {
    fn new(seed: u64, client: u64, hot: &'a [JobSpec]) -> Self {
        Stream {
            rng: SplitMix::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ client),
            hot,
        }
    }

    /// The next job, and its hot-set index when it repeats one.
    fn next(&mut self) -> (JobSpec, Option<usize>) {
        if self.rng.below(100) < REPEAT_PERCENT {
            let i = self.rng.below(self.hot.len() as u64) as usize;
            (self.hot[i].clone(), Some(i))
        } else {
            (JobSpec::draw(&mut self.rng), None)
        }
    }
}

/// An in-process daemon with its TCP and HTTP addresses.
struct Daemon {
    handle: ServerHandle,
    tcp: String,
    http: String,
}

impl Daemon {
    /// Starts ssimd on loopback ephemeral ports with default settings.
    fn start() -> std::io::Result<Self> {
        let handle = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            http_addr: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        })?;
        let tcp = handle.local_addr().to_string();
        let http = handle
            .http_addr()
            .ok_or_else(|| Error::other("HTTP front door did not bind"))?
            .to_string();
        Ok(Daemon { handle, tcp, http })
    }

    /// Graceful shutdown; returns once every daemon thread has ended.
    fn stop(self) {
        self.handle.stop();
    }
}

/// A connected, version-negotiated TCP client.
fn connect(addr: &str) -> std::io::Result<Client> {
    let mut client = Client::connect(addr)?;
    client.set_read_timeout(Some(REPLY_TIMEOUT))?;
    client.hello()?;
    Ok(client)
}

fn bad(msg: String) -> Error {
    Error::new(ErrorKind::InvalidData, msg)
}

/// Where a client's spans go in the traced run.
#[derive(Clone, Copy)]
struct Traced<'a> {
    tracer: &'a Tracer,
    parent: u64,
    track: u64,
}

impl<'a> Traced<'a> {
    fn span(self, name: &'static str, cat: &'static str, parent: u64) -> tracer::Span<'a> {
        self.tracer.span(name, cat, self.track, parent)
    }
}

/// One job the way `ssim submit` sends it: one fresh TCP connection per
/// job. Returns the raw reply line.
fn tcp_job(addr: &str, job: &JobSpec, tr: Option<Traced>) -> std::io::Result<String> {
    let root = tr.map(|t| t.span("job.tcp", "bench", t.parent));
    let rid = root.as_ref().map_or(ROOT, tracer::Span::id);
    let mut client = {
        let _s = tr.map(|t| t.span("server.connect", "server", rid));
        let mut client = Client::connect(addr)?;
        client.set_read_timeout(Some(REPLY_TIMEOUT))?;
        client
    };
    let env = job.envelope();
    if let Some(t) = tr {
        let _s = t.span("json.encode", "json", rid);
        std::hint::black_box(env.to_line());
    }
    let line = {
        let _s = tr.map(|t| t.span("server.roundtrip", "server", rid));
        client.send(&env)?;
        client.recv_line()?
    };
    let _s = tr.map(|t| t.span("json.parse", "json", rid));
    Json::parse(&line).map_err(|e| bad(e.0))?;
    Ok(line)
}

/// One job POSTed over HTTP and polled to completion. Returns the raw
/// reply line and the number of polls.
fn http_job(addr: &str, job: &JobSpec, tr: Option<Traced>) -> std::io::Result<(String, u64)> {
    let root = tr.map(|t| t.span("job.http", "bench", t.parent));
    let rid = root.as_ref().map_or(ROOT, tracer::Span::id);
    let body = {
        let _s = tr.map(|t| t.span("json.encode", "json", rid));
        job.envelope().to_line()
    };
    let (status, reply) = {
        let _s = tr.map(|t| t.span("http.post", "http", rid));
        sharing_http::request(addr, "POST", "/jobs", Some(body.as_bytes()))?
    };
    let reply = String::from_utf8_lossy(&reply).into_owned();
    if status != 202 {
        return Err(bad(format!("POST /jobs answered {status}: {reply}")));
    }
    let id = Json::parse(&reply)
        .ok()
        .and_then(|v| v.get("id").and_then(Json::as_int))
        .ok_or_else(|| bad(format!("POST /jobs reply has no id: {reply}")))?;
    let path = format!("/jobs/{id}/raw");
    let mut polls = 0;
    let mut wait = POLL_WAIT;
    loop {
        polls += 1;
        let (status, body) = {
            let _s = tr.map(|t| t.span("http.poll", "http", rid));
            sharing_http::request(addr, "GET", &path, None)?
        };
        match status {
            200 => {
                let text = String::from_utf8_lossy(&body);
                let line = text.lines().last().unwrap_or_default().to_string();
                let _s = tr.map(|t| t.span("json.parse", "json", rid));
                Json::parse(&line).map_err(|e| bad(e.0))?;
                return Ok((line, polls));
            }
            202 => {
                std::thread::sleep(wait);
                wait = (wait * 2).min(POLL_WAIT_MAX);
            }
            other => return Err(bad(format!("GET {path} answered {other}"))),
        }
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    latency_ms: Vec<f64>,
    reply_bytes: Vec<f64>,
    polls: u64,
    /// Fresh jobs and the FNV-1a digest of their result bytes, checked
    /// after the run (a digest, so the check does not grow the process).
    fresh: Vec<(JobSpec, u64)>,
    ledger: Ledger,
}

impl ClientLog {
    /// Checks one reply: hot-set results against their references now,
    /// fresh results later.
    fn check(
        &mut self,
        job: JobSpec,
        hot: Option<usize>,
        refs: &[String],
        reply: std::io::Result<String>,
    ) {
        let line = match reply {
            Ok(line) => line,
            Err(e) => return self.ledger.record(1, false, || format!("{job:?}: {e}")),
        };
        self.reply_bytes.push(line.len() as f64);
        match (payload(&line), hot) {
            (None, _) => self
                .ledger
                .record(1, false, || format!("{job:?}: error reply {line}")),
            (Some(p), Some(i)) => {
                let ok = p == refs[i];
                self.ledger
                    .record(1, ok, || format!("{job:?}: result differs from run_with"));
            }
            (Some(p), None) => self.fresh.push((job, sharing_dc::fnv64(p.as_bytes()))),
        }
    }
}

/// When a client stops submitting.
#[derive(Clone, Copy)]
enum Until {
    /// At this moment.
    Deadline(Instant),
    /// Once its log holds this many jobs.
    Jobs(usize),
}

impl Until {
    fn more(self, done: usize) -> bool {
        match self {
            Until::Deadline(t) => Instant::now() < t,
            Until::Jobs(n) => done < n,
        }
    }
}

/// Both clients, concurrently, until `until`. Each continues its own
/// job stream and appends to its own log.
fn drive(
    daemon: &Daemon,
    streams: &mut [Stream; 2],
    logs: &mut [ClientLog; 2],
    refs: &[String],
    until: Until,
    tr: Option<(&Tracer, u64)>,
) {
    let traced = |track| {
        tr.map(|(tracer, parent)| Traced {
            tracer,
            parent,
            track,
        })
    };
    let [tcp_stream, http_stream] = streams;
    let [tcp_log, http_log] = logs;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while until.more(tcp_log.latency_ms.len()) {
                let (job, h) = tcp_stream.next();
                let t0 = Instant::now();
                let reply = tcp_job(&daemon.tcp, &job, traced(1));
                tcp_log.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                tcp_log.check(job, h, refs, reply);
            }
        });
        scope.spawn(|| {
            while until.more(http_log.latency_ms.len()) {
                let (job, h) = http_stream.next();
                let t0 = Instant::now();
                let reply = http_job(&daemon.http, &job, traced(2)).map(|(line, polls)| {
                    http_log.polls += polls;
                    line
                });
                http_log.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                http_log.check(job, h, refs, reply);
            }
        });
    });
}

/// Checks every fresh result against an in-process run, in parallel.
fn verify_fresh(logs: &mut [ClientLog; 2]) {
    for log in logs.iter_mut() {
        let fresh = std::mem::take(&mut log.fresh);
        let ok = par::map_indexed(par::resolve_jobs(None), &fresh, |_, (job, got)| {
            sharing_dc::fnv64(job.reference().as_bytes()) == *got
        });
        for ((job, _), ok) in fresh.iter().zip(ok) {
            log.ledger
                .record(1, ok, || format!("{job:?}: result differs from run_with"));
        }
    }
}

/// Starts a daemon, checks both front doors and warms the hot set over
/// TCP; every warm-up reply is checked too.
fn set_up(hot: &[JobSpec], refs: &[String], ledger: &mut Ledger) -> Daemon {
    let daemon = Daemon::start().expect("ssimd binds on loopback");
    let (status, _) = sharing_http::request(&daemon.http, "GET", "/health", None)
        .expect("HTTP front door answers");
    ledger.record(1, status == 200, || {
        format!("GET /health answered {status}")
    });
    for (job, want) in hot.iter().zip(refs) {
        let ok = tcp_job(&daemon.tcp, job, None)
            .ok()
            .as_deref()
            .and_then(payload)
            == Some(want.as_str());
        ledger.record(1, ok, || format!("warm-up {job:?} failed"));
    }
    daemon
}

/// Reference results of the hot set, checked against the recorded digest.
fn hot_refs(variant: u64, digests: &Digests, ledger: &mut Ledger) -> (Vec<JobSpec>, Vec<String>) {
    let hot = hot_set(variant);
    let refs = par::map_indexed(par::resolve_jobs(None), &hot, |_, j| j.reference());
    ledger.digest(1, &hot_digest(&refs), digests.get(NAME, variant));
    (hot, refs)
}

/// Median round trip, in ms, of hot-set jobs sent one after another over
/// one persistent, version-negotiated connection.
fn persistent_round_trips(
    daemon: &Daemon,
    hot: &[JobSpec],
    refs: &[String],
) -> Result<f64, String> {
    let mut client = connect(&daemon.tcp).map_err(|e| format!("{NAME}: connect: {e}"))?;
    let mut times = Vec::new();
    for (job, want) in hot.iter().zip(refs).take(PERSISTENT_JOBS) {
        let t0 = Instant::now();
        client
            .send(&job.envelope())
            .map_err(|e| format!("{NAME}: send: {e}"))?;
        let line = client
            .recv_line()
            .map_err(|e| format!("{NAME}: receive: {e}"))?;
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        if payload(&line) != Some(want.as_str()) {
            return Err(format!(
                "{NAME}: {job:?} over a persistent connection: {line}"
            ));
        }
    }
    Ok(stats::median(&times))
}

/// The untraced measurement.
#[must_use]
pub fn measure(seed: u64, seconds: f64, digests: &Digests) -> Measured {
    let variant = crate::variant(seed);
    let mut ledger = Ledger::default();
    let (hot, refs) = hot_refs(variant, digests, &mut ledger);
    let mut setups = Vec::new();
    let mut kept: Option<Daemon> = None;
    while setups.len() < SETUP_REPEATS {
        // One daemon at a time, stopped outside the timed region.
        if let Some(previous) = kept.take() {
            previous.stop();
        }
        let t0 = Instant::now();
        let daemon = set_up(&hot, &refs, &mut ledger);
        setups.push(t0.elapsed().as_secs_f64());
        kept = Some(daemon);
    }
    let daemon = kept.expect("at least one set-up");
    let setup_live = setup_live_line();
    // Throughput is the median over one-second load segments.
    let mut streams = [Stream::new(seed, 0, &hot), Stream::new(seed, 1, &hot)];
    let mut logs = [ClientLog::default(), ClientLog::default()];
    let start = Instant::now();
    let (mut wall, mut rates) = (0.0, Vec::new());
    let mut peaks = RequestPeaks::default();
    while (wall < seconds
        || logs
            .iter()
            .any(|l| !stats::supported(l.latency_ms.len(), 99.0)))
        && start.elapsed() < CAP
    {
        let before: usize = logs.iter().map(|l| l.latency_ms.len()).sum();
        peaks.start();
        let t0 = Instant::now();
        let until = Until::Deadline(t0 + SEGMENT);
        drive(&daemon, &mut streams, &mut logs, &refs, until, None);
        let dt = t0.elapsed().as_secs_f64();
        peaks.finish();
        let after: usize = logs.iter().map(|l| l.latency_ms.len()).sum();
        rates.push((after - before) as f64 / dt);
        wall += dt;
    }
    daemon.stop();
    verify_fresh(&mut logs);

    let mut report = vec![
        setup_live,
        ("jobs_per_s".to_string(), stats::median(&rates), "jobs/s"),
    ];
    for (log, path) in logs.iter().zip(["tcp", "http"]) {
        let n = log.latency_ms.len();
        report.push((
            format!("{path}_job_p50_ms"),
            stats::median(&log.latency_ms),
            "ms",
        ));
        if stats::supported(n, 99.0) {
            report.push((
                format!("{path}_job_p99_ms"),
                stats::percentile(&log.latency_ms, 99.0),
                "ms",
            ));
        } else {
            ledger.record(1, false, || {
                let best = stats::highest_supported(n);
                format!("{path}: {n} samples support no p99, at most p{best:?}")
            });
        }
        report.push((format!("{path}_jobs"), n as f64, "count"));
    }
    let all: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.latency_ms.iter().copied())
        .collect();
    for log in &logs {
        ledger.attempted += log.ledger.attempted;
        ledger.failed += log.ledger.failed;
        ledger.notes.extend(log.ledger.notes.iter().cloned());
    }
    Measured {
        setup_s: stats::median(&setups),
        peak_heap_mb: peaks.median_mb(),
        request_p50_ms: stats::median(&all),
        ledger,
        digest: hot_digest(&refs),
        work_per_s: stats::median(&rates),
        report,
    }
}

/// The traced pass: the same job streams, [`TRACED_JOBS`] per client,
/// once on an untraced daemon and once with a span around every call
/// into the client, JSON, server and HTTP layers.
///
/// # Errors
///
/// Returns a message when any reply fails or differs from `run_with`.
pub fn traced(
    seed: u64,
    tracer: &Tracer,
    layers: &mut Layers,
    digests: &Digests,
) -> Result<PassTimes, String> {
    let variant = crate::variant(seed);
    let mut ledger = Ledger::default();
    let (hot, refs) = hot_refs(variant, digests, &mut ledger);

    let mut pass = |tr: Option<(&Tracer, u64)>| -> Result<(f64, Json), String> {
        let daemon = set_up(&hot, &refs, &mut ledger);
        let t0 = Instant::now();
        let mut streams = [Stream::new(seed, 0, &hot), Stream::new(seed, 1, &hot)];
        let mut logs = [ClientLog::default(), ClientLog::default()];
        drive(
            &daemon,
            &mut streams,
            &mut logs,
            &refs,
            Until::Jobs(TRACED_JOBS),
            tr,
        );
        let took = t0.elapsed().as_secs_f64();
        if tr.is_some() {
            let ms = persistent_round_trips(&daemon, &hot, &refs)?;
            layers.insert("server.persistent_job_ms".into(), ms);
        }
        let server = connect(&daemon.tcp)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("{NAME}: stats: {e}"))?;
        daemon.stop();
        verify_fresh(&mut logs);
        for log in &logs {
            if log.ledger.failed > 0 {
                return Err(format!("{NAME}: {:?}", log.ledger.notes));
            }
        }
        if tr.is_some() {
            let log = &logs[1];
            layers.insert(
                "http.polls_per_job".into(),
                log.polls as f64 / log.latency_ms.len() as f64,
            );
            let bytes: Vec<f64> = logs
                .iter()
                .flat_map(|l| l.reply_bytes.iter().copied())
                .collect();
            layers.insert("json.reply_bytes".into(), stats::median(&bytes));
        }
        Ok((took, server))
    };
    let (untraced_s, _) = pass(None)?;
    let root = tracer.span(NAME, "bench", 0, ROOT);
    let (traced_s, server) = pass(Some((tracer, root.id())))?;
    drop(root);
    if ledger.failed > 0 {
        return Err(format!("{NAME}: {:?}", ledger.notes));
    }

    let spans = tracer.spans();
    let median_us = |name: &str| stats::median(&tracer::durations_s(&spans, name)) * 1e6;
    layers.insert("json.encode_us".into(), median_us("json.encode"));
    layers.insert("json.parse_us".into(), median_us("json.parse"));
    layers.insert("http.post_ms".into(), median_us("http.post") / 1e3);
    let stat = |key: &str| {
        server
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{NAME}: stats reply has no `{key}`"))
    };
    for (metric, key) in [
        ("server.queue_wait_p50_us", "queue_wait_p50_us"),
        ("server.queue_wait_p99_us", "queue_wait_p99_us"),
        ("server.exec_p50_us", "exec_p50_us"),
        ("server.exec_p99_us", "exec_p99_us"),
        ("server.cache_hit_ratio", "cache_hit_rate"),
        ("server.rejected", "jobs_rejected"),
        ("server.errors", "errors"),
    ] {
        layers.insert(metric.into(), stat(key)?);
    }
    Ok(PassTimes {
        untraced_s,
        traced_s,
    })
}
