//! A concurrent load-test harness for the scenario service.
//!
//! Drives N client threads against a running server, each submitting
//! the same spec and reading the streamed result back, verifying
//! every response byte-for-byte against the expected output. `503`
//! backpressure responses are retried after a short delay (they are
//! the server working as designed, not failures); anything else that
//! prevents a verified response counts as dropped or corrupted.
//!
//! The `xp load` subcommand wraps this: it self-hosts a server on an
//! ephemeral port, computes the expected bytes locally, runs the
//! harness, and emits a throughput/latency report suitable for
//! appending to BENCH_pushsim.json.

use crate::http;

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Parameters for one load-test run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Address of the server under test.
    pub addr: SocketAddr,
    /// Concurrent client threads.
    pub clients: usize,
    /// Sequential submissions per client.
    pub requests_per_client: usize,
    /// Submission body (canonical spec text).
    pub body: String,
    /// Expected streamed bytes; when `Some`, every response is
    /// compared and mismatches count as corrupted.
    pub expected: Option<Vec<u8>>,
    /// Max retries per request on `503` before counting it dropped.
    pub max_retries: usize,
}

impl LoadConfig {
    /// A config with harness defaults (64 clients × 2 requests).
    pub fn new(addr: SocketAddr, body: String) -> Self {
        LoadConfig {
            addr,
            clients: 64,
            requests_per_client: 2,
            body,
            expected: None,
            max_retries: 200,
        }
    }
}

/// Aggregated outcome of a load-test run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Clients × requests per client.
    pub total_requests: usize,
    /// Requests that completed with verified (or unchecked) bytes.
    pub ok: usize,
    /// Responses whose bytes differed from the expected output.
    pub corrupted: usize,
    /// Requests lost to I/O errors, unexpected statuses, or retry
    /// exhaustion.
    pub dropped: usize,
    /// Total `503` backpressure responses absorbed by retries.
    pub backpressure_retries: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Sorted per-request latencies (submission to verified stream).
    pub latencies: Vec<Duration>,
    // Requests per client, kept so the report can show the client
    // count without the original config.
    rpc: usize,
}

impl LoadReport {
    fn quantile(&self, q: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((self.latencies.len() - 1) as f64 * q).round() as usize;
        self.latencies.get(idx).or_else(|| self.latencies.last()).copied().unwrap_or(Duration::ZERO)
    }

    /// Mean request latency.
    pub fn mean_latency(&self) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        self.latencies.iter().sum::<Duration>() / self.latencies.len() as u32
    }

    /// Completed requests per second of wall-clock time.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.ok as f64 / secs
    }

    /// Whether every request completed with verified bytes.
    pub fn clean(&self) -> bool {
        self.ok == self.total_requests && self.corrupted == 0 && self.dropped == 0
    }

    /// A single-line JSON report.
    pub fn to_json(&self, name: &str) -> String {
        format!(
            "{{\"name\":\"{}\",\"clients\":{},\"requests\":{},\"ok\":{},\"corrupted\":{},\"dropped\":{},\
\"backpressure_retries\":{},\"elapsed_ms\":{:.1},\"throughput_rps\":{:.1},\
\"latency_ms\":{{\"mean\":{:.2},\"p50\":{:.2},\"p95\":{:.2},\"p99\":{:.2},\"max\":{:.2}}}}}",
            http::json_escape(name),
            self.total_requests / self.rpc.max(1),
            self.total_requests,
            self.ok,
            self.corrupted,
            self.dropped,
            self.backpressure_retries,
            self.elapsed.as_secs_f64() * 1e3,
            self.throughput_rps(),
            self.mean_latency().as_secs_f64() * 1e3,
            self.quantile(0.50).as_secs_f64() * 1e3,
            self.quantile(0.95).as_secs_f64() * 1e3,
            self.quantile(0.99).as_secs_f64() * 1e3,
            self.latencies.last().copied().unwrap_or(Duration::ZERO).as_secs_f64() * 1e3,
        )
    }
}

fn extract_id(body: &str) -> Option<u64> {
    let idx = body.find("\"id\":")?;
    let digits: String = body
        .get(idx + 5..)?
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

enum Outcome {
    Ok(Duration),
    Corrupted,
    Dropped,
}

fn one_request(cfg: &LoadConfig, retries: &AtomicU64) -> Outcome {
    // xlint: allow(determinism-source) — load testing measures real request latency; wall clock is the instrument, not simulation state
    let start = Instant::now();
    let mut attempts = 0usize;
    let id = loop {
        match http::request(cfg.addr, "POST", "/v1/runs", cfg.body.as_bytes()) {
            Ok(resp) if resp.status == 202 => match extract_id(&resp.text()) {
                Some(id) => break id,
                None => return Outcome::Dropped,
            },
            Ok(resp) if resp.status == 503 => {
                retries.fetch_add(1, Ordering::Relaxed);
                attempts += 1;
                if attempts > cfg.max_retries {
                    return Outcome::Dropped;
                }
                // Honour Retry-After in spirit; bounded short sleeps
                // keep the harness responsive on small queues.
                thread::sleep(Duration::from_millis(25 * (1 + (attempts as u64 % 4))));
            }
            _ => return Outcome::Dropped,
        }
    };
    let path = format!("/v1/runs/{id}/stream");
    match http::request(cfg.addr, "GET", &path, b"") {
        Ok(resp) if resp.status == 200 => {
            if let Some(expected) = &cfg.expected {
                if &resp.body != expected {
                    return Outcome::Corrupted;
                }
            }
            Outcome::Ok(start.elapsed())
        }
        _ => Outcome::Dropped,
    }
}

/// Runs the load test to completion and aggregates the outcome.
pub fn run(cfg: &LoadConfig) -> LoadReport {
    let cfg = Arc::new(cfg.clone());
    let retries = Arc::new(AtomicU64::new(0));
    let outcomes: Arc<Mutex<Vec<Outcome>>> = Arc::new(Mutex::new(Vec::new()));
    // xlint: allow(determinism-source) — throughput denominator is elapsed wall-clock time by definition
    let started = Instant::now();
    let mut handles = Vec::with_capacity(cfg.clients);
    for _ in 0..cfg.clients {
        let cfg = Arc::clone(&cfg);
        let retries = Arc::clone(&retries);
        let outcomes = Arc::clone(&outcomes);
        handles.push(thread::spawn(move || {
            for _ in 0..cfg.requests_per_client {
                let outcome = one_request(&cfg, &retries);
                outcomes.lock().unwrap_or_else(PoisonError::into_inner).push(outcome);
            }
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    let elapsed = started.elapsed();
    let outcomes = match Arc::try_unwrap(outcomes) {
        Ok(m) => m.into_inner().unwrap_or_else(PoisonError::into_inner),
        // All worker threads were joined above, so this arm is dead in
        // practice; drain through the lock rather than assert on it.
        Err(arc) => arc.lock().unwrap_or_else(PoisonError::into_inner).drain(..).collect(),
    };
    let mut latencies = Vec::new();
    let (mut ok, mut corrupted, mut dropped) = (0, 0, 0);
    for o in outcomes {
        match o {
            Outcome::Ok(lat) => {
                ok += 1;
                latencies.push(lat);
            }
            Outcome::Corrupted => corrupted += 1,
            Outcome::Dropped => dropped += 1,
        }
    }
    latencies.sort();
    LoadReport {
        total_requests: cfg.clients * cfg.requests_per_client,
        ok,
        corrupted,
        dropped,
        backpressure_retries: retries.load(Ordering::Relaxed),
        elapsed,
        latencies,
        rpc: cfg.requests_per_client,
    }
}
