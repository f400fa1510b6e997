//! The scenario service: acceptor, worker pool, job table, routes.
//!
//! See the crate docs for the thread architecture. The HTTP surface:
//!
//! | Method/path              | Behaviour                                              |
//! |--------------------------|--------------------------------------------------------|
//! | `POST /v1/runs`          | Body = submission text. `202` + job id; `400` on a     |
//! |                          | plan error; `503` + `Retry-After` when the queue is    |
//! |                          | full or the server is shutting down.                   |
//! | `GET /v1/runs/{id}`      | Status JSON (`queued`/`running`/`done`/`failed`).      |
//! | `GET /v1/runs/{id}/stream` | Chunked JSONL of the job's output, following live    |
//! |                          | progress; truncated (no terminating chunk) on failure. |
//! | `GET /v1/healthz`        | Liveness probe.                                        |
//! | `GET /v1/stats`          | Queue depth, in-flight, worker panics, job and cache   |
//! |                          | hit/miss/eviction counters.                            |
//! | `POST /v1/shutdown`      | Graceful shutdown; `404` unless enabled in config.     |
//!
//! A job whose handler panics is contained: it becomes `failed` with the
//! panic message, the worker thread survives and takes the next job, and
//! `worker_panics` in `/v1/stats` counts it.
//!
//! Identical concurrent submissions are **coalesced** onto one job,
//! and finished output is cached under the submission's content
//! digest, so a resubmission is answered `done` without recompute.

use crate::handler::JobHandler;
use crate::http::{self, ChunkedWriter, Limits, Parsed, Request};
use crate::lru::LruCache;
use crate::queue::BoundedQueue;

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Server construction parameters; `Default` gives sensible
/// test-friendly values (ephemeral port, small pool).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads draining the job queue (min 1).
    pub workers: usize,
    /// Bounded queue capacity; beyond it submissions get `503`.
    pub queue_depth: usize,
    /// Byte budget of the content-addressed result cache.
    pub cache_bytes: usize,
    /// Whether `POST /v1/shutdown` is honoured (test/CI mode; in
    /// production shutdown comes from SIGTERM/ctrl-c).
    pub enable_shutdown_endpoint: bool,
    /// HTTP parser limits.
    pub limits: Limits,
    /// How many finished jobs stay queryable before the oldest are
    /// forgotten (bounds job-table memory).
    pub retain_jobs: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 64,
            cache_bytes: 64 * 1024 * 1024,
            enable_shutdown_endpoint: false,
            limits: Limits::default(),
            retain_jobs: 1024,
        }
    }
}

#[derive(Default)]
struct Stats {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cell_hits: AtomicU64,
    cell_misses: AtomicU64,
    evictions: AtomicU64,
    in_flight: AtomicU64,
    worker_panics: AtomicU64,
}

impl Stats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A cached artifact: either a finished response body (whole-run
/// digest) or the data rows of one sweep cell (cell digest).
enum Cached {
    Body(Arc<Vec<u8>>),
    Rows(Arc<Vec<Vec<String>>>),
}

fn rows_cost(rows: &[Vec<String>]) -> usize {
    rows.iter()
        .map(|r| 16 + r.iter().map(|c| c.len() + 8).sum::<usize>())
        .sum()
}

enum JobState {
    Queued,
    Running(Vec<u8>),
    Done { out: Arc<Vec<u8>>, from_cache: bool },
    Failed { error: String },
}

struct Job<J> {
    id: u64,
    digest: u64,
    cells: Option<Vec<u64>>,
    payload: J,
    state: Mutex<JobState>,
    cond: Condvar,
}

impl<J> Job<J> {
    /// Locks the job state, recovering from poison: job state moves
    /// monotonically towards a terminal value and every transition
    /// writes a whole variant, so the state is valid after any panic
    /// elsewhere and refusing to serve it would only spread the
    /// failure.
    fn lock(&self) -> MutexGuard<'_, JobState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn set_running(&self) {
        let mut st = self.lock();
        *st = JobState::Running(Vec::new());
        self.cond.notify_all();
    }

    fn append(&self, bytes: &[u8]) {
        let mut st = self.lock();
        if let JobState::Running(out) = &mut *st {
            out.extend_from_slice(bytes);
        }
        self.cond.notify_all();
    }

    fn finish(&self) -> Arc<Vec<u8>> {
        let mut st = self.lock();
        let out = match std::mem::replace(&mut *st, JobState::Queued) {
            JobState::Running(out) => Arc::new(out),
            other => {
                // Finishing a job that never ran (should not happen);
                // preserve whatever terminal state existed.
                *st = other;
                Arc::new(Vec::new())
            }
        };
        *st = JobState::Done { out: Arc::clone(&out), from_cache: false };
        self.cond.notify_all();
        out
    }

    fn fail(&self, error: String) {
        let mut st = self.lock();
        *st = JobState::Failed { error };
        self.cond.notify_all();
    }

    /// Blocks until there is output past `offset`, the job reaches a
    /// terminal state, or `deadline` passes. Returns
    /// `(new bytes, terminal, error)`.
    fn await_output(
        &self,
        offset: usize,
        deadline: Instant,
    ) -> (Vec<u8>, bool, Option<String>) {
        let mut st = self.lock();
        loop {
            match &*st {
                JobState::Queued => {}
                JobState::Running(out) => {
                    if out.len() > offset {
                        return (out.get(offset..).unwrap_or_default().to_vec(), false, None);
                    }
                }
                JobState::Done { out, .. } => {
                    let chunk = out.get(offset..).unwrap_or_default().to_vec();
                    return (chunk, true, None);
                }
                JobState::Failed { error } => return (Vec::new(), true, Some(error.clone())),
            }
            // xlint: allow(determinism-source) — streaming deadlines are wall-clock by nature; no simulation state is derived from this read
            let now = Instant::now();
            if now >= deadline {
                return (Vec::new(), false, None);
            }
            let (guard, _timed_out) = self
                .cond
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    fn status_json(&self) -> String {
        let st = self.lock();
        match &*st {
            JobState::Queued => format!(
                "{{\"id\":{},\"status\":\"queued\",\"stream\":\"/v1/runs/{}/stream\"}}",
                self.id, self.id
            ),
            JobState::Running(out) => format!(
                "{{\"id\":{},\"status\":\"running\",\"bytes\":{},\"stream\":\"/v1/runs/{}/stream\"}}",
                self.id,
                out.len(),
                self.id
            ),
            JobState::Done { out, from_cache } => format!(
                "{{\"id\":{},\"status\":\"done\",\"cached\":{},\"bytes\":{},\"stream\":\"/v1/runs/{}/stream\"}}",
                self.id,
                from_cache,
                out.len(),
                self.id
            ),
            JobState::Failed { error } => format!(
                "{{\"id\":{},\"status\":\"failed\",\"error\":\"{}\"}}",
                self.id,
                http::json_escape(error)
            ),
        }
    }
}

// Both job indexes are BTreeMaps: bounded by `retain_jobs`, keyed by
// plain u64s, and deterministically ordered so nothing observable
// (stats, retention sweeps, future debug dumps) depends on hash
// seeding.
struct JobTable<J> {
    by_id: BTreeMap<u64, Arc<Job<J>>>,
    /// digest -> id of a queued/running job, for coalescing identical
    /// concurrent submissions onto one execution.
    active_by_digest: BTreeMap<u64, u64>,
    /// Finished job ids, oldest first, for bounded retention.
    finished: VecDeque<u64>,
}

struct ConnTracker {
    n: Mutex<usize>,
    cv: Condvar,
}

struct ConnGuard(Arc<ConnTracker>);

impl ConnTracker {
    // Poison recovery below: the tracked value is a plain counter,
    // valid after any panic elsewhere.
    fn enter(self: &Arc<Self>) -> ConnGuard {
        *self.n.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        ConnGuard(Arc::clone(self))
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let mut n = self.0.n.lock().unwrap_or_else(PoisonError::into_inner);
        *n = n.saturating_sub(1);
        self.0.cv.notify_all();
    }
}

struct Inner<H: JobHandler> {
    handler: H,
    config: ServerConfig,
    queue: BoundedQueue<Arc<Job<H::Job>>>,
    jobs: Mutex<JobTable<H::Job>>,
    cache: Mutex<LruCache<Cached>>,
    stats: Stats,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    conns: Arc<ConnTracker>,
}

// Lock ordering: `jobs` before `cache`; never hold either across a
// handler call or a queue `pop`.
impl<H: JobHandler> Inner<H> {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Locks the job table, recovering from poison (the table's
    /// operations never leave it half-updated across a panic point).
    fn lock_jobs(&self) -> MutexGuard<'_, JobTable<H::Job>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the cache, recovering from poison (same reasoning).
    fn lock_cache(&self) -> MutexGuard<'_, LruCache<Cached>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn retire(&self, job: &Arc<Job<H::Job>>) {
        let mut jobs = self.lock_jobs();
        if jobs.active_by_digest.get(&job.digest) == Some(&job.id) {
            jobs.active_by_digest.remove(&job.digest);
        }
        jobs.finished.push_back(job.id);
        while jobs.finished.len() > self.config.retain_jobs.max(1) {
            if let Some(old) = jobs.finished.pop_front() {
                jobs.by_id.remove(&old);
            }
        }
    }

    fn stats_json(&self) -> String {
        let s = &self.stats;
        let (bytes, entries, budget) = {
            let cache = self.lock_cache();
            (cache.bytes(), cache.entries(), cache.budget())
        };
        format!(
            "{{\"queue_depth\":{},\"queue_capacity\":{},\"in_flight\":{},\"workers\":{},\"worker_panics\":{},\"shutting_down\":{},\
\"jobs\":{{\"submitted\":{},\"completed\":{},\"failed\":{},\"coalesced\":{},\"rejected\":{}}},\
\"cache\":{{\"hits\":{},\"misses\":{},\"cell_hits\":{},\"cell_misses\":{},\"evictions\":{},\"bytes\":{},\"entries\":{},\"budget\":{}}}}}",
            self.queue.len(),
            self.queue.capacity(),
            s.in_flight.load(Ordering::Relaxed),
            self.config.workers.max(1),
            s.worker_panics.load(Ordering::Relaxed),
            self.shutting_down(),
            s.submitted.load(Ordering::Relaxed),
            s.completed.load(Ordering::Relaxed),
            s.failed.load(Ordering::Relaxed),
            s.coalesced.load(Ordering::Relaxed),
            s.rejected.load(Ordering::Relaxed),
            s.cache_hits.load(Ordering::Relaxed),
            s.cache_misses.load(Ordering::Relaxed),
            s.cell_hits.load(Ordering::Relaxed),
            s.cell_misses.load(Ordering::Relaxed),
            s.evictions.load(Ordering::Relaxed),
            bytes,
            entries,
            budget,
        )
    }
}

/// Entry point for starting a service instance.
pub struct Server;

impl Server {
    /// Binds the listener, spawns the acceptor and worker threads,
    /// and returns a handle for shutdown coordination.
    pub fn start<H: JobHandler>(
        config: ServerConfig,
        handler: H,
    ) -> io::Result<ServerHandle<H>> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            queue: BoundedQueue::new(config.queue_depth),
            jobs: Mutex::new(JobTable {
                by_id: BTreeMap::new(),
                active_by_digest: BTreeMap::new(),
                finished: VecDeque::new(),
            }),
            cache: Mutex::new(LruCache::new(config.cache_bytes)),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            conns: Arc::new(ConnTracker { n: Mutex::new(0), cv: Condvar::new() }),
            handler,
            config,
        });

        let mut threads = Vec::with_capacity(workers + 1);
        for w in 0..workers {
            let inner = Arc::clone(&inner);
            threads.push(
                thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(inner))?,
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                thread::Builder::new()
                    .name("serve-acceptor".to_string())
                    .spawn(move || acceptor_loop(listener, inner))?,
            );
        }
        Ok(ServerHandle { addr, inner, threads })
    }
}

/// Owns the service threads; dropping it does **not** stop the
/// server — call [`shutdown_and_wait`](ServerHandle::shutdown_and_wait).
pub struct ServerHandle<H: JobHandler> {
    addr: SocketAddr,
    inner: Arc<Inner<H>>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl<H: JobHandler> ServerHandle<H> {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether graceful shutdown has been triggered (by this handle
    /// or by `POST /v1/shutdown`).
    pub fn shutdown_begun(&self) -> bool {
        self.inner.shutting_down()
    }

    /// Triggers graceful shutdown: stop accepting, drain the queue.
    pub fn begin_shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Triggers shutdown and blocks until workers have drained every
    /// accepted job and all service threads have exited (open
    /// connections get a short grace period to finish streaming).
    pub fn shutdown_and_wait(mut self) {
        self.inner.begin_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // xlint: allow(determinism-source) — shutdown grace period is a real-time bound on operator-facing drain, not simulation state
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut n = self.inner.conns.n.lock().unwrap_or_else(PoisonError::into_inner);
        while *n > 0 {
            // xlint: allow(determinism-source) — ditto: measuring the remaining drain budget in wall-clock time
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = self
                .inner
                .conns
                .cv
                .wait_timeout(n, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            n = guard;
        }
    }
}

fn worker_loop<H: JobHandler>(inner: Arc<Inner<H>>) {
    while let Some(job) = inner.queue.pop() {
        Stats::bump(&inner.stats.in_flight);
        run_job(&inner, &job);
        inner.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

struct JobWriter<'a, J> {
    job: &'a Job<J>,
}

impl<J> Write for JobWriter<'_, J> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.job.append(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn run_job<H: JobHandler>(inner: &Arc<Inner<H>>, job: &Arc<Job<H::Job>>) {
    job.set_running();
    // Unwind safety: every lock the job touches (its state, the job table,
    // the cache) recovers from poison and is never left half-updated, and
    // the job's partial output is discarded by `fail`.
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| match job.cells.clone() {
        Some(cells) => run_cells(inner, job, &cells),
        None => {
            let mut sink = JobWriter { job };
            inner.handler.run(&job.payload, &mut sink)
        }
    }));
    let result = outcome.unwrap_or_else(|payload| {
        Stats::bump(&inner.stats.worker_panics);
        Err(format!("job panicked: {}", panic_message(payload.as_ref())))
    });
    match result {
        Ok(()) => {
            let out = job.finish();
            let cost = out.len();
            let evicted = inner
                .lock_cache()
                .insert(job.digest, Cached::Body(Arc::clone(&out)), cost);
            inner.stats.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
            Stats::bump(&inner.stats.completed);
        }
        Err(error) => {
            job.fail(error);
            Stats::bump(&inner.stats.failed);
        }
    }
    inner.retire(job);
}

/// The message of a panic payload (`panic!` with a literal or a format).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

fn run_cells<H: JobHandler>(
    inner: &Arc<Inner<H>>,
    job: &Arc<Job<H::Job>>,
    cells: &[u64],
) -> Result<(), String> {
    for (index, &key) in cells.iter().enumerate() {
        let cached = {
            let mut cache = inner.lock_cache();
            match cache.get(key) {
                Some(Cached::Rows(rows)) => Some(Arc::clone(rows)),
                // A Body under a cell key would be a digest collision
                // (cell keys are salted); treat it as a miss.
                _ => None,
            }
        };
        let rows = match cached {
            Some(rows) => {
                Stats::bump(&inner.stats.cell_hits);
                rows
            }
            None => {
                Stats::bump(&inner.stats.cell_misses);
                let rows = Arc::new(inner.handler.run_cell(&job.payload, index)?);
                let cost = rows_cost(&rows);
                let evicted = inner
                    .lock_cache()
                    .insert(key, Cached::Rows(Arc::clone(&rows)), cost);
                inner.stats.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
                rows
            }
        };
        let text = inner.handler.render_cell(&job.payload, index, &rows);
        job.append(text.as_bytes());
    }
    Ok(())
}

fn acceptor_loop<H: JobHandler>(listener: TcpListener, inner: Arc<Inner<H>>) {
    loop {
        if inner.shutting_down() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let inner = Arc::clone(&inner);
                let guard = inner.conns.enter();
                let spawned = thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        let _guard = guard;
                        handle_connection(inner, stream);
                    });
                if spawned.is_err() {
                    // Thread exhaustion: drop the connection; the
                    // guard (moved into the failed closure) is gone
                    // with it.
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_connection<H: JobHandler>(inner: Arc<Inner<H>>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut idle_polls = 0u32;
    loop {
        match http::parse_request(&buf, &inner.config.limits) {
            Ok(Parsed::Complete { request, consumed }) => {
                buf.drain(..consumed);
                idle_polls = 0;
                match route(&inner, &request, &mut stream) {
                    Ok(true) => continue,
                    _ => return,
                }
            }
            Ok(Parsed::Incomplete) => {
                let mut chunk = [0u8; 8192];
                match stream.read(&mut chunk) {
                    Ok(0) => return,
                    Ok(n) => {
                        buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
                        idle_polls = 0;
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        if inner.shutting_down() && buf.is_empty() {
                            return;
                        }
                        idle_polls += 1;
                        // ~30 s of silence (120 * 250 ms): drop the
                        // connection, slow-loris or idle keep-alive.
                        if idle_polls > 120 {
                            return;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return,
                }
            }
            Err(err) => {
                let (code, reason) = err.status();
                let body =
                    format!("{{\"error\":\"{}\"}}", http::json_escape(err.detail()));
                let _ = http::write_response(
                    &mut stream,
                    code,
                    reason,
                    &[("Content-Type", "application/json")],
                    body.as_bytes(),
                    false,
                );
                return;
            }
        }
    }
}

const JSON: (&str, &str) = ("Content-Type", "application/json");

fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> io::Result<bool> {
    http::write_response(stream, status, reason, extra, body.as_bytes(), keep_alive)?;
    Ok(keep_alive)
}

/// Handles one request; returns whether the connection stays open.
fn route<H: JobHandler>(
    inner: &Arc<Inner<H>>,
    req: &Request,
    stream: &mut TcpStream,
) -> io::Result<bool> {
    let keep = req.keep_alive && !inner.shutting_down();
    match (req.method.as_str(), req.route()) {
        ("GET", "/v1/healthz") => respond(stream, 200, "OK", &[JSON], "{\"ok\":true}", keep),
        ("GET", "/v1/stats") => {
            respond(stream, 200, "OK", &[JSON], &inner.stats_json(), keep)
        }
        ("POST", "/v1/shutdown") => {
            if inner.config.enable_shutdown_endpoint {
                inner.begin_shutdown();
                respond(stream, 200, "OK", &[JSON], "{\"shutting_down\":true}", false)
            } else {
                respond(
                    stream,
                    404,
                    "Not Found",
                    &[JSON],
                    "{\"error\":\"shutdown endpoint disabled\"}",
                    keep,
                )
            }
        }
        ("POST", "/v1/runs") => submit(inner, req, stream, keep),
        ("GET", path) if path.starts_with("/v1/runs/") => {
            let rest = path.get("/v1/runs/".len()..).unwrap_or_default();
            let (id_str, want_stream) = match rest.strip_suffix("/stream") {
                Some(id) => (id, true),
                None => (rest, false),
            };
            let job = id_str
                .parse::<u64>()
                .ok()
                .and_then(|id| inner.lock_jobs().by_id.get(&id).cloned());
            let Some(job) = job else {
                return respond(
                    stream,
                    404,
                    "Not Found",
                    &[JSON],
                    "{\"error\":\"no such job\"}",
                    keep,
                );
            };
            if want_stream {
                stream_job(&job, stream)
            } else {
                respond(stream, 200, "OK", &[JSON], &job.status_json(), keep)
            }
        }
        _ => respond(
            stream,
            404,
            "Not Found",
            &[JSON],
            "{\"error\":\"no such route\"}",
            keep,
        ),
    }
}

fn accepted_json(id: u64, status: &str, cached: bool) -> String {
    format!(
        "{{\"id\":{id},\"status\":\"{status}\",\"cached\":{cached},\"stream\":\"/v1/runs/{id}/stream\"}}"
    )
}

fn submit<H: JobHandler>(
    inner: &Arc<Inner<H>>,
    req: &Request,
    stream: &mut TcpStream,
    keep: bool,
) -> io::Result<bool> {
    if inner.shutting_down() {
        return respond(
            stream,
            503,
            "Service Unavailable",
            &[JSON, ("Retry-After", "1")],
            "{\"error\":\"server is shutting down\"}",
            false,
        );
    }
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => {
            return respond(
                stream,
                400,
                "Bad Request",
                &[JSON],
                "{\"error\":\"submission body must be UTF-8 spec text\"}",
                keep,
            )
        }
    };
    let plan = match inner.handler.plan(body) {
        Ok(plan) => plan,
        Err(msg) => {
            let body = format!("{{\"error\":\"{}\"}}", http::json_escape(&msg));
            return respond(stream, 400, "Bad Request", &[JSON], &body, keep);
        }
    };
    Stats::bump(&inner.stats.submitted);

    let mut jobs = inner.lock_jobs();
    // Coalesce onto an identical queued/running job.
    if let Some(&id) = jobs.active_by_digest.get(&plan.digest) {
        Stats::bump(&inner.stats.coalesced);
        let body = accepted_json(id, "accepted", false);
        drop(jobs);
        return respond(stream, 202, "Accepted", &[JSON], &body, keep);
    }
    // Content-addressed cache: answer a finished body without
    // recompute.
    let hit = {
        let mut cache = inner.lock_cache();
        match cache.get(plan.digest) {
            Some(Cached::Body(out)) => Some(Arc::clone(out)),
            _ => None,
        }
    };
    if let Some(out) = hit {
        Stats::bump(&inner.stats.cache_hits);
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(Job {
            id,
            digest: plan.digest,
            cells: None,
            payload: plan.job,
            state: Mutex::new(JobState::Done { out, from_cache: true }),
            cond: Condvar::new(),
        });
        jobs.by_id.insert(id, Arc::clone(&job));
        jobs.finished.push_back(id);
        while jobs.finished.len() > inner.config.retain_jobs.max(1) {
            if let Some(old) = jobs.finished.pop_front() {
                jobs.by_id.remove(&old);
            }
        }
        drop(jobs);
        let body = accepted_json(id, "done", true);
        return respond(stream, 202, "Accepted", &[JSON], &body, keep);
    }
    Stats::bump(&inner.stats.cache_misses);

    let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(Job {
        id,
        digest: plan.digest,
        cells: plan.cells,
        payload: plan.job,
        state: Mutex::new(JobState::Queued),
        cond: Condvar::new(),
    });
    match inner.queue.try_push(Arc::clone(&job)) {
        Ok(()) => {
            jobs.by_id.insert(id, Arc::clone(&job));
            jobs.active_by_digest.insert(job.digest, id);
            drop(jobs);
            let body = accepted_json(id, "queued", false);
            respond(stream, 202, "Accepted", &[JSON], &body, keep)
        }
        Err(_) => {
            drop(jobs);
            Stats::bump(&inner.stats.rejected);
            respond(
                stream,
                503,
                "Service Unavailable",
                &[JSON, ("Retry-After", "1")],
                "{\"error\":\"job queue is full\"}",
                false,
            )
        }
    }
}

/// Streams a job's output as chunked JSONL, following live progress.
/// A job that fails after streaming began yields a truncated chunked
/// body (no terminating chunk), which clients detect as an error.
fn stream_job<J>(job: &Arc<Job<J>>, stream: &mut TcpStream) -> io::Result<bool> {
    // A failure before any bytes were streamed gets a clean 500.
    {
        let st = job.lock();
        if let JobState::Failed { error } = &*st {
            let body = format!("{{\"error\":\"{}\"}}", http::json_escape(error));
            drop(st);
            http::write_response(
                stream,
                500,
                "Internal Server Error",
                &[JSON],
                body.as_bytes(),
                false,
            )?;
            return Ok(false);
        }
    }
    let mut writer = ChunkedWriter::start(
        stream,
        200,
        "OK",
        &[("Content-Type", "application/x-ndjson")],
    )?;
    let mut offset = 0usize;
    loop {
        // xlint: allow(determinism-source) — per-poll streaming deadline; wall-clock pacing of the chunked response, not simulation state
        let deadline = Instant::now() + Duration::from_millis(250);
        let (chunk, terminal, error) = job.await_output(offset, deadline);
        if !chunk.is_empty() {
            offset += chunk.len();
            writer.write_chunk(&chunk)?;
        }
        if let Some(_error) = error {
            // Mid-stream failure: close without the final chunk.
            return Ok(false);
        }
        if terminal {
            writer.finish()?;
            return Ok(false);
        }
    }
}
