//! `serve_mix`: `xp serve` in its own process, driven open loop by this
//! process at fixed rates with a mix of warm, partial and cold requests.
//!
//! The generator uses at most `nproc` threads, each with one request in
//! flight, and every request opens its own connections (a submit, then a
//! stream read). A request is timed from its scheduled send time to the
//! last byte of its stream, so a stall also charges the requests queued
//! behind it. Every body is compared with a local `Runner::run_streamed`
//! of the same spec.

use crate::sim::{peak_rss_mb, prepare, repeat_timed, Report};
use crate::stats::{median, quantile, Metric};
use crate::trace::Span;
use gossip_analysis::sweep::derive_seed;
use noisy_bench::runner::Runner;
use noisy_bench::service::SpecService;
use noisy_bench::spec::ScenarioSpec;
use noisy_serve::http;
use noisy_serve::JobHandler;
use plurality_core::ExecutionBackend;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// The fixed open-loop rate at which class latencies are reported.
const FIXED_RATE: f64 = 20.0;
/// Rates probed for `max_rate_rps`: `LADDER_BASE · LADDER_STEP^j`.
const LADDER_BASE: f64 = 10.0;
const LADDER_STEP: f64 = 1.06;
const LADDER_TOP: usize = 60;
/// The latency limit every class must keep at its p90 on a passing rung.
const LIMIT_MS: f64 = 1000.0;
/// The backend every cell of every request's spec must resolve to.
const BACKEND: ExecutionBackend = ExecutionBackend::Agent;
/// The highest share of the measured capacity the fixed rate may offer.
const MAX_LOAD: f64 = 0.8;
/// Warm specs primed into the cache during set-up.
const WARM_POOL: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Warm,
    Partial,
    Cold,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Warm => "warm",
            Class::Partial => "partial",
            Class::Cold => "cold",
        }
    }
}

/// The 2-cell rumor spec every request is a variant of.
fn rumor_spec(seed: u64, eps: &str, toy: bool) -> String {
    format!(
        "scenario = rumor\nsource = 0\nn = {}\nk = 3\nepsilon = 0.3\nnoise = uniform(0.3)\n\
         delivery = exact\ntopology = complete\nbackend = agent\ntrials = 2\nseed = {seed}\n\
         sweep.eps = {eps}\n",
        if toy { 200 } else { 1000 },
    )
}

/// One request of the mix, in canonical spec text.
#[derive(Clone)]
struct Request {
    class: Class,
    body: String,
}

/// The seeded request stream: 60 % warm resubmissions of a pooled spec,
/// 20 % partial sweeps that share their first cell with a pooled spec,
/// 20 % cold specs under a fresh seed. The shares are exact in every block
/// of five requests (the seed shuffles each block), so the work offered
/// per request does not drift with the seed.
struct Mix {
    seed: u64,
    toy: bool,
    rng: StdRng,
    issued: u64,
    block: Vec<Class>,
}

impl Mix {
    fn new(seed: u64, toy: bool) -> Self {
        Mix {
            seed,
            toy,
            rng: StdRng::seed_from_u64(derive_seed(seed, 7, 0)),
            issued: 0,
            block: Vec::new(),
        }
    }

    fn warm_text(&self, j: u64) -> String {
        rumor_spec(derive_seed(self.seed, 1, j), "0.3, 0.4", self.toy)
    }

    /// The next `count` requests, each pinned to the agent backend.
    fn batch(&mut self, count: usize) -> Result<Vec<Request>, String> {
        (0..count).map(|_| self.next()).collect()
    }

    fn next(&mut self) -> Result<Request, String> {
        self.issued += 1;
        let i = self.issued;
        if self.block.is_empty() {
            self.block = vec![
                Class::Warm,
                Class::Warm,
                Class::Warm,
                Class::Partial,
                Class::Cold,
            ];
            for a in (1..self.block.len()).rev() {
                let b = self.rng.gen_range(0..=a);
                self.block.swap(a, b);
            }
        }
        let class = self.block.pop().expect("the block was just refilled");
        let j = self.rng.gen_range(0..WARM_POOL);
        let text = match class {
            Class::Warm => self.warm_text(j),
            // A fresh second cell per request keeps partial requests from
            // turning warm; every value stays inside (0.3, 0.4).
            Class::Partial => {
                let eps = format!("0.3, {:.5}", 0.33 + (i % 6000) as f64 * 1e-5);
                rumor_spec(derive_seed(self.seed, 1, j), &eps, self.toy)
            }
            Class::Cold => rumor_spec(derive_seed(self.seed, 2, i), "0.3, 0.4", self.toy),
        };
        // Parse, validate and pin every cell to the agent backend, as the
        // simulation workloads pin theirs; the body is the canonical text.
        Ok(Request {
            class,
            body: prepare(&text, BACKEND)?.spec.to_text(),
        })
    }
}

/// What a local run of the spec streams: the reference for served bodies.
fn reference(body: &str) -> Result<Vec<u8>, String> {
    let spec = ScenarioSpec::from_text(body).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    Runner::new(spec)
        .and_then(|r| r.run_streamed(&mut out))
        .map_err(|e| e.to_string())?;
    Ok(out)
}

/// A running `xp serve` child and the thread draining its stdout.
struct Server {
    child: Child,
    addr: SocketAddr,
    drain: Option<thread::JoinHandle<()>>,
}

impl Server {
    fn start(xp: &Path) -> Result<Server, String> {
        let mut child = Command::new(xp)
            .args(["serve", "--addr", "127.0.0.1:0", "--test-shutdown"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", xp.display()))?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut first = String::new();
        let _ = lines.read_line(&mut first);
        let addr = first
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let drain = thread::spawn(move || {
            let _ = std::io::copy(&mut lines, &mut std::io::sink());
        });
        let mut server = Server {
            child,
            addr: "127.0.0.1:9".parse().expect("literal"),
            drain: Some(drain),
        };
        let Some(addr) = addr else {
            server.stop();
            return Err(format!("unexpected `xp serve` banner {first:?}"));
        };
        server.addr = addr;
        let deadline = Instant::now() + Duration::from_secs(10);
        while !matches!(http::request(addr, "GET", "/v1/healthz", b""), Ok(r) if r.status == 200) {
            if Instant::now() > deadline {
                server.stop();
                return Err("`xp serve` never became healthy".to_string());
            }
            thread::sleep(Duration::from_millis(2));
        }
        Ok(server)
    }

    fn stats(&self) -> Option<Stats> {
        let text = http::request(self.addr, "GET", "/v1/stats", b"")
            .ok()?
            .text();
        Some(Stats {
            queue_depth: json_u64(&text, "queue_depth")?,
            coalesced: json_u64(&text, "coalesced")?,
            rejected: json_u64(&text, "rejected")?,
            hits: json_u64(&text, "hits")?,
            misses: json_u64(&text, "misses")?,
            cell_hits: json_u64(&text, "cell_hits")?,
            cell_misses: json_u64(&text, "cell_misses")?,
        })
    }

    /// Asks for a graceful shutdown and waits for the process to end
    /// (killing it after ten seconds).
    fn stop(&mut self) {
        let _ = http::request(self.addr, "POST", "/v1/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.drain.is_some() {
            self.stop();
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Stats {
    queue_depth: u64,
    coalesced: u64,
    rejected: u64,
    hits: u64,
    misses: u64,
    cell_hits: u64,
    cell_misses: u64,
}

/// The first unsigned integer after `"key":` in `text`.
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = text
        .get(at..)?
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Submit, then read the stream: the served body and the instants of the
/// 202, of the stream's first byte and of its last, or why there is none.
/// The stream is read by hand (not with `http::request`) only so that its
/// first byte can be timestamped. Every phase uses this one client; only
/// the traced run turns the timestamps into spans.
fn execute(addr: SocketAddr, body: &str) -> Result<(Vec<u8>, [Instant; 3]), String> {
    let resp = http::request(addr, "POST", "/v1/runs", body.as_bytes())
        .map_err(|e| format!("submit: {e}"))?;
    if resp.status != 202 {
        return Err(format!("submit answered {}", resp.status));
    }
    let accepted = Instant::now();
    let text = resp.text();
    let id = json_u64(&text, "id").ok_or_else(|| format!("no job id in {text:?}"))?;
    let path = format!("/v1/runs/{id}/stream");
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("stream: {e}"))?;
    let head = format!(
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("stream: {e}"))?;
    let mut first = [0u8; 1];
    stream
        .read_exact(&mut first)
        .map_err(|e| format!("stream: {e}"))?;
    let first_byte = Instant::now();
    let resp = http::read_response(&mut (&first[..]).chain(&mut stream))
        .map_err(|e| format!("stream: {e}"))?;
    let last_byte = Instant::now();
    match resp.status {
        200 => Ok((resp.body, [accepted, first_byte, last_byte])),
        s => Err(format!("stream answered {s}")),
    }
}

/// One finished request of a load phase.
struct Done {
    class: Class,
    index: usize,
    /// Send time minus scheduled time, in ms.
    lag_ms: f64,
    /// Scheduled time to last byte, in ms.
    latency_ms: f64,
    body: Result<Vec<u8>, String>,
    /// Send time, then the 202, first and last byte; `None` on failure.
    phases: Option<(Instant, [Instant; 3])>,
}

/// Sends `requests` open loop at `rate` per second and collects every
/// outcome. With `stats_every`, one worker at a time samples `/v1/stats`
/// between requests and the maximum queue depth seen is returned.
fn load(
    server: &Server,
    requests: &[Request],
    rate: f64,
    stats_every: Option<Duration>,
) -> (Vec<Done>, u64) {
    let threads = thread::available_parallelism().map_or(1, |p| p.get());
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(requests.len()));
    let depth = Mutex::new((0u64, Instant::now()));
    let start = Instant::now() + Duration::from_millis(20);
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(request) = requests.get(index) else {
                    break;
                };
                let due = start + Duration::from_secs_f64(index as f64 / rate);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                let sent = Instant::now();
                let body = execute(server.addr, &request.body);
                let finished = Instant::now();
                let (body, phases) = match body {
                    Ok((b, t)) => (Ok(b), Some((sent, t))),
                    Err(e) => (Err(e), None),
                };
                let outcome = Done {
                    class: request.class,
                    index,
                    lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                    latency_ms: finished.saturating_duration_since(due).as_secs_f64() * 1e3,
                    body,
                    phases,
                };
                done.lock().expect("a load worker panicked").push(outcome);
                if let Some(every) = stats_every {
                    let mut d = depth.lock().expect("a load worker panicked");
                    if d.1.elapsed() >= every {
                        if let Some(s) = server.stats() {
                            d.0 = d.0.max(s.queue_depth);
                        }
                        d.1 = Instant::now();
                    }
                }
            });
        }
    });
    let mut done = done.into_inner().expect("a load worker panicked");
    done.sort_by_key(|d| d.index);
    (done, depth.into_inner().expect("a load worker panicked").0)
}

/// Compares every served body with its local reference (computed once
/// per distinct spec, on all cores) and returns the failures.
fn verify(
    requests: &[Request],
    done: &[Done],
    references: &Mutex<HashMap<String, Vec<u8>>>,
) -> Vec<String> {
    let mut missing: Vec<&str> = Vec::new();
    {
        let known = references.lock().expect("a verifier panicked");
        for d in done {
            let body = requests[d.index].body.as_str();
            if d.body.is_ok() && !known.contains_key(body) && !missing.contains(&body) {
                missing.push(body);
            }
        }
    }
    let next = AtomicUsize::new(0);
    let threads = thread::available_parallelism().map_or(1, |p| p.get());
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while let Some(&body) = missing.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let expected = reference(body).unwrap_or_default();
                    references
                        .lock()
                        .expect("a verifier panicked")
                        .insert(body.to_string(), expected);
                }
            });
        }
    });
    let known = references.lock().expect("a verifier panicked");
    done.iter()
        .filter_map(|d| {
            let class = d.class.name();
            match &d.body {
                Err(e) => Some(format!("{class} request {}: {e}", d.index)),
                Ok(b) if Some(b) != known.get(&requests[d.index].body) => Some(format!(
                    "{class} request {}: body differs from the local run",
                    d.index
                )),
                Ok(_) => None,
            }
        })
        .collect()
}

fn class_latencies(done: &[Done], class: Class) -> Vec<f64> {
    done.iter()
        .filter(|d| d.class == class)
        .map(|d| d.latency_ms)
        .collect()
}

/// Whether a ladder rung held: no failure, every class's p90 within the
/// limit, and no growing backlog (the generator's send lag in the last
/// quarter of the rung no more than 50 ms above the first quarter's).
fn rung_holds(done: &[Done], failures: usize) -> bool {
    if failures > 0 {
        return false;
    }
    let classes_hold = [Class::Warm, Class::Partial, Class::Cold].iter().all(|&c| {
        let l = class_latencies(done, c);
        l.is_empty() || quantile(&l, 0.9) <= LIMIT_MS
    });
    let lags: Vec<f64> = done.iter().map(|d| d.lag_ms).collect();
    let quarter = (lags.len() / 4).max(1);
    let early = median(&lags[..quarter]);
    let late = median(&lags[lags.len() - quarter..]);
    classes_hold && late - early <= 50.0
}

pub struct ServeOptions<'a> {
    pub xp: &'a Path,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub toy: bool,
}

pub fn run(o: &ServeOptions<'_>) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_inner(o, &mut report) {
        report.attempted = report.attempted.max(1);
        report.failed += 1;
        report.errors.push(e);
    }
    report
}

fn run_inner(o: &ServeOptions<'_>, report: &mut Report) -> Result<(), String> {
    let mut mix = Mix::new(o.seed, o.toy);
    let mut warm = Vec::new();
    for j in 0..WARM_POOL {
        let prep = prepare(&mix.warm_text(j), BACKEND)?;
        for (cell, backend) in prep.cell_backends() {
            report.cells.push((format!("pool{j} {cell}"), backend));
        }
        warm.push(prep.spec.to_text());
    }
    let references = Mutex::new(HashMap::new());
    for body in &warm {
        let expected = reference(body)?;
        references
            .lock()
            .expect("no verifier runs yet")
            .insert(body.clone(), expected);
    }

    // Set-up: start the service and prime the warm pool, several times.
    let reps = if o.traced { 1 } else { 5 };
    let mut setup = Vec::new();
    let mut server = None;
    for rep in 0..reps {
        let started = Instant::now();
        let s = Server::start(o.xp)?;
        for body in &warm {
            let (served, _) = execute(s.addr, body).map_err(|e| format!("priming: {e}"))?;
            if Some(&served) != references.lock().expect("no verifier runs yet").get(body) {
                return Err("a primed body differs from the local run".to_string());
            }
        }
        setup.push(started.elapsed().as_secs_f64());
        if rep + 1 == reps {
            server = Some(s);
        }
    }
    let mut server = server.expect("at least one set-up ran");

    let fixed_n = (FIXED_RATE * o.seconds).ceil() as usize;
    let requests = mix.batch(fixed_n)?;
    let result = if o.traced {
        traced_phase(&server, &requests, &mut mix, &references, report)
    } else {
        untraced_run(o, &server, &requests, &mut mix, &references, &setup, report)
    };
    server.stop();
    result
}

fn count_failures(report: &mut Report, done: &[Done], failures: Vec<String>) {
    report.attempted += done.len() as u64;
    report.failed += failures.len() as u64;
    report.errors.extend(
        failures
            .into_iter()
            .take(20usize.saturating_sub(report.errors.len())),
    );
}

fn untraced_run(
    o: &ServeOptions<'_>,
    server: &Server,
    requests: &[Request],
    mix: &mut Mix,
    references: &Mutex<HashMap<String, Vec<u8>>>,
    setup: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let (done, _) = load(server, requests, FIXED_RATE, None);
    let failures = verify(requests, &done, references);
    count_failures(report, &done, failures);

    // The service's memory high-water mark after a fixed amount of work.
    let rss = peak_rss_mb(Some(server.child.id()));

    // Capacity: the rate at which the mix completes while every generator
    // thread always has its next request due, in several short windows.
    let (windows, per_window) = if o.toy { (2, 20) } else { (12, 40) };
    let mut window_rates = Vec::new();
    for _ in 0..windows {
        let reqs = mix.batch(per_window)?;
        let started = Instant::now();
        let (done_sat, _) = load(server, &reqs, 1e9, None);
        window_rates.push(per_window as f64 / started.elapsed().as_secs_f64());
        let failures = verify(&reqs, &done_sat, references);
        count_failures(report, &done_sat, failures);
    }
    let capacity = median(&window_rates);
    // The class latencies measure service time, not backlog, only while
    // the fixed rate stays well below what the service completes.
    if FIXED_RATE > MAX_LOAD * capacity {
        report.fail(
            1,
            format!(
                "the fixed rate {FIXED_RATE} rps is above {MAX_LOAD} of the measured \
                 capacity {capacity:.1} rps, so the class latencies measure backlog"
            ),
        );
    }

    // The ladder, from the highest rung below 95 % of capacity: climb one
    // rung at a time while rungs hold, or step down until one holds.
    let rung_seconds = if o.toy { 0.4 } else { 1.2 };
    let mut probe = |j: usize, report: &mut Report| -> Result<bool, String> {
        let rate = LADDER_BASE * LADDER_STEP.powi(j as i32);
        let n = ((rate * rung_seconds).ceil() as usize).max(20);
        let reqs = mix.batch(n)?;
        let (done, _) = load(server, &reqs, rate, None);
        let failures = verify(&reqs, &done, references);
        let holds = rung_holds(&done, failures.len());
        count_failures(report, &done, failures);
        Ok(holds)
    };
    let rung_of = |rate: f64| {
        ((rate / LADDER_BASE).ln() / LADDER_STEP.ln())
            .floor()
            .max(0.0) as usize
    };
    let mut j = rung_of(0.95 * capacity).min(LADDER_TOP);
    let held = if probe(j, report)? {
        while j < LADDER_TOP && probe(j + 1, report)? {
            j += 1;
        }
        Some(j)
    } else {
        loop {
            if j == 0 {
                break None;
            }
            j -= 1;
            if probe(j, report)? {
                break Some(j);
            }
        }
    };
    let max_rate = held.map_or(0.0, |j| LADDER_BASE * LADDER_STEP.powi(j as i32));

    let mut m = vec![
        Metric::setup_s(setup),
        Metric::single("peak_rss_mb", "MB", rss, 1),
        Metric::from_samples("throughput_per_s", "1/s", &window_rates),
        Metric::from_samples("capacity_rps", "1/s", &window_rates),
        Metric::single("max_rate_rps", "1/s", max_rate, 1),
    ];
    for class in [Class::Cold, Class::Warm, Class::Partial] {
        let l = class_latencies(&done, class);
        let name = class.name();
        m.push(Metric::from_samples(&format!("{name}_p50_ms"), "ms", &l));
        m.push(Metric::single(
            &format!("{name}_p90_ms"),
            "ms",
            quantile(&l, 0.9),
            l.len(),
        ));
    }
    let lags: Vec<f64> = done.iter().map(|d| d.lag_ms).collect();
    m.push(Metric::single(
        "loadgen.lag_p90_ms",
        "ms",
        quantile(&lags, 0.9),
        lags.len(),
    ));
    report.metrics = m;
    Ok(())
}

/// The traced run: half the fixed-rate phase untraced, then a second
/// batch of the same size and class mix whose submit, wait and stream legs
/// become spans while `/v1/stats` is sampled, plus the in-process cost of
/// planning. Both batches go through the same client, so the overhead is
/// that of the stats sampling alone.
fn traced_phase(
    server: &Server,
    requests: &[Request],
    mix: &mut Mix,
    references: &Mutex<HashMap<String, Vec<u8>>>,
    report: &mut Report,
) -> Result<(), String> {
    let half = &requests[..requests.len() / 2];
    let (plain, _) = load(server, half, FIXED_RATE, None);
    let failures = verify(half, &plain, references);
    count_failures(report, &plain, failures);

    let traced = mix.batch(half.len())?;
    let before = server
        .stats()
        .ok_or("no /v1/stats before the traced phase")?;
    let (done, depth_max) = load(
        server,
        &traced,
        FIXED_RATE,
        Some(Duration::from_millis(100)),
    );
    let after = server
        .stats()
        .ok_or("no /v1/stats after the traced phase")?;
    let failures = verify(&traced, &done, references);
    count_failures(report, &done, failures);

    let epoch = done
        .iter()
        .filter_map(|d| d.phases.map(|p| p.0))
        .min()
        .unwrap_or_else(Instant::now);
    let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
    let (mut spans, mut submit, mut wait, mut stream) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for d in &done {
        let Some((sent, [accepted, first, last])) = d.phases else {
            continue;
        };
        let id = 4 * d.index as u64;
        let span = |id, parent, name, start, end| Span {
            id,
            parent,
            trace: d.index as u64,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            count: 0,
        };
        spans.push(span(id, None, "serve.request", sent, last));
        spans.push(span(id + 1, Some(id), "serve.submit", sent, accepted));
        spans.push(span(id + 2, Some(id), "serve.wait", accepted, first));
        spans.push(span(id + 3, Some(id), "serve.stream", first, last));
        submit.push(ms(sent, accepted));
        wait.push(ms(accepted, first));
        stream.push(ms(first, last));
    }

    let ratio = |hit: u64, miss: u64| {
        if hit + miss == 0 {
            0.0
        } else {
            hit as f64 / (hit + miss) as f64
        }
    };
    let mean = |v: &[Done]| v.iter().map(|d| d.latency_ms).sum::<f64>() / v.len().max(1) as f64;
    let lags: Vec<f64> = plain.iter().map(|d| d.lag_ms).collect();
    let bodies: Vec<&str> = traced.iter().map(|r| r.body.as_str()).collect();
    let mut which = 0;
    let plan_us: Vec<f64> = repeat_timed(20, 5000, Duration::from_millis(200), || {
        which = (which + 1) % bodies.len();
        SpecService.plan(bodies[which]).is_ok()
    })
    .iter()
    .map(|s| s * 1e6)
    .collect();
    let n = done.len();
    report.metrics = vec![
        Metric::single(
            "serve.submit_ms.p50",
            "ms",
            quantile(&submit, 0.5),
            submit.len(),
        ),
        Metric::single("serve.wait_ms.p90", "ms", quantile(&wait, 0.9), wait.len()),
        Metric::single(
            "serve.stream_ms.p50",
            "ms",
            quantile(&stream, 0.5),
            stream.len(),
        ),
        Metric::single(
            "serve.cache_hit_ratio",
            "fraction",
            ratio(after.hits - before.hits, after.misses - before.misses),
            n,
        ),
        Metric::single(
            "serve.cell_hit_ratio",
            "fraction",
            ratio(
                after.cell_hits - before.cell_hits,
                after.cell_misses - before.cell_misses,
            ),
            n,
        ),
        Metric::single(
            "serve.coalesced",
            "count",
            (after.coalesced - before.coalesced) as f64,
            n,
        ),
        Metric::single(
            "serve.rejected",
            "count",
            (after.rejected - before.rejected) as f64,
            n,
        ),
        Metric::single("serve.queue_depth_max", "count", depth_max as f64, n),
        Metric::single("bench.plan_us", "us", median(&plan_us), plan_us.len()),
        Metric::single("loadgen.lag_p90_ms", "ms", quantile(&lags, 0.9), lags.len()),
        Metric::single(
            "trace.overhead_frac",
            "fraction",
            1.0 - mean(&plain) / mean(&done),
            n,
        ),
    ];
    report.spans = spans;
    Ok(())
}
