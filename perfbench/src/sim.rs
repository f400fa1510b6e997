//! The simulation workloads: a counting-backend campaign and a
//! sparse-topology runner sweep, each a closed loop with one worker per
//! core (the library's own thread pools).

use crate::probe;
use crate::stats::{median, Metric};
use crate::trace::{self, Span, Tracer, TrialObserver};
use gossip_analysis::oracle::OracleSuite;
use gossip_analysis::sweep::derive_seed;
use noisy_bench::campaign::{self, CampaignOptions, CampaignReport};
use noisy_bench::runner::{self, GridPoint, PointSummary, RunReport, Runner};
use noisy_bench::spec::{InitSpec, ScenarioKind, ScenarioSpec};
use noisy_bench::{biased_counts, reseed};
use noisy_channel::NoiseMatrix;
use plurality_core::observe::StopCondition;
use plurality_core::{ExecutionBackend, Outcome, ProtocolParams, StageId, TwoStageProtocol};
use pushsim::Opinion;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The seed at which `topo_sparse` output is pinned to a digest.
pub const DEFAULT_SEED: u64 = 1;

/// FNV-1a digests of `topo_sparse`'s JSON-lines table at
/// [`DEFAULT_SEED`]: full size, then toy size.
const TOPO_DIGEST: [u64; 2] = [0x41bc_3ff4_260f_b0d6, 0x553c_9686_424b_cd24];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// `campaign::run_campaign` with this many seeds per cell and call.
    Campaign { seeds: u64 },
    /// `Runner::run`, the `xp run` path.
    Runner,
}

#[derive(Debug, Clone, Copy)]
pub struct SimWorkload {
    pub name: &'static str,
    pub backend: ExecutionBackend,
    pub shape: Shape,
    pub toy: bool,
}

impl SimWorkload {
    pub fn named(name: &str, toy: bool) -> Option<Self> {
        let (name, backend, shape) = match name {
            "campaign_counting" => (
                "campaign_counting",
                ExecutionBackend::Counting,
                Shape::Campaign { seeds: 2 },
            ),
            "topo_sparse" => ("topo_sparse", ExecutionBackend::Agent, Shape::Runner),
            _ => return None,
        };
        Some(SimWorkload {
            name,
            backend,
            shape,
            toy,
        })
    }

    /// The workload's scenario spec at `seed`.
    pub fn spec_text(&self, seed: u64) -> String {
        let pick = |full: &str, toy: &str| {
            if self.toy {
                toy.to_string()
            } else {
                full.to_string()
            }
        };
        match self.name {
            "campaign_counting" => format!(
                "scenario = plurality\nbias = 0.2\nn = {}\nk = 2\nepsilon = 0.25\nnoise = uniform(0.25)\n\
                 delivery = poisson\ntopology = complete\nbackend = counting\ntrials = 1\nseed = {seed}\n\
                 sweep.k = {}\n",
                pick("1000000", "10000"),
                pick("2, 8, 32, 64", "2, 8, 32, 64"),
            ),
            "topo_sparse" => format!(
                "scenario = plurality\nbias = 0.2\nn = {}\nk = 3\nepsilon = 0.3\nnoise = uniform(0.3)\n\
                 delivery = exact\ntopology = complete\nbackend = agent\ntrials = 2\nseed = {seed}\n\
                 sweep.topology = ring, torus, regular(8), {}\n\
                 metrics = success, consensus, share, rounds, messages\n",
                pick("10000", "1024"),
                pick("er(0.001)", "er(0.01)"),
            ),
            other => unreachable!("no workload {other}"),
        }
    }
}

/// One grid cell with everything its trials share built up front.
pub struct Cell {
    pub point: GridPoint,
    pub noise: NoiseMatrix,
    pub counts: Option<Vec<usize>>,
    pub label: String,
    /// What `TwoStageProtocol::resolve` returned for the spec's backend.
    pub backend: ExecutionBackend,
}

/// A parsed, validated workload spec whose every cell resolves to the
/// backend the workload names.
pub struct Prepared {
    pub spec: ScenarioSpec,
    pub cells: Vec<Cell>,
}

impl Prepared {
    /// Each cell's label and resolved backend, for the provenance.
    pub fn cell_backends(&self) -> Vec<(String, String)> {
        self.cells
            .iter()
            .map(|c| (c.label.clone(), format!("{:?}", c.backend).to_lowercase()))
            .collect()
    }
}

/// Parses and validates the spec, builds each cell's noise matrix and
/// protocol, and pins every cell's resolved backend to `expected`.
pub fn prepare(text: &str, expected: ExecutionBackend) -> Result<Prepared, String> {
    let spec = ScenarioSpec::from_text(text).map_err(|e| e.to_string())?;
    spec.validate().map_err(|e| e.to_string())?;
    let eps_swept = !spec.sweep.eps.is_empty();
    let mut cells = Vec::new();
    for point in runner::expand_grid(&spec) {
        let noise_spec = if eps_swept {
            spec.noise.with_epsilon(point.eps)
        } else {
            spec.noise.clone()
        };
        let noise = noise_spec.build(point.k).map_err(|e| e.to_string())?;
        let protocol = TwoStageProtocol::new(cell_params(&spec, &point, spec.seed)?, noise.clone())
            .map_err(|e| e.to_string())?;
        let label = runner::axis_cells(&spec, &point).join(" ");
        let resolved = protocol.resolve(spec.backend);
        if resolved != expected {
            return Err(format!(
                "cell {label} resolves to backend {resolved:?}, but the workload names {expected:?}"
            ));
        }
        let counts = match &spec.kind {
            ScenarioKind::PluralityConsensus { init } => {
                let counts = match init {
                    InitSpec::Biased { bias } => {
                        biased_counts(point.n, point.k, point.bias.unwrap_or(*bias))
                    }
                    InitSpec::Counts(counts) => counts.clone(),
                };
                protocol
                    .validate_initial_counts(&counts)
                    .map_err(|e| e.to_string())?;
                Some(counts)
            }
            _ => None,
        };
        cells.push(Cell {
            point,
            noise,
            counts,
            label,
            backend: resolved,
        });
    }
    Ok(Prepared { spec, cells })
}

/// Protocol parameters of one cell, built as the runner and the campaign
/// engine build them.
fn cell_params(
    spec: &ScenarioSpec,
    point: &GridPoint,
    seed: u64,
) -> Result<ProtocolParams, String> {
    ProtocolParams::builder(point.n, point.k)
        .epsilon(point.eps)
        .seed(seed)
        .delivery(spec.delivery)
        .topology(point.topology)
        .fault(point.fault)
        .churn(point.churn)
        .noise_schedule(point.schedule)
        .clock(point.clock)
        .constants(spec.constants)
        .build()
        .map_err(|e| e.to_string())
}

/// What one workload run reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Each cell's label and resolved backend.
    pub cells: Vec<(String, String)>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn fail(&mut self, count: u64, message: String) {
        self.failed += count;
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Times `f` repeatedly (at least `min_reps` times, then until `budget`
/// has passed or `max_reps` ran) and returns each repetition's seconds.
pub fn repeat_timed<T>(
    min_reps: usize,
    max_reps: usize,
    budget: Duration,
    mut f: impl FnMut() -> T,
) -> Vec<f64> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || (times.len() < max_reps && started.elapsed() < budget) {
        let t = Instant::now();
        std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
    times
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// One call of the workload's user path at `prep.spec.seed`: the number
/// of trials, the wall time, its throughput samples, and for the runner
/// the streamed rows and the report.
struct Call {
    trials: u64,
    wall: f64,
    /// Trials per second: one sample for a campaign call; one per grid
    /// point for the runner, timed to the point's streamed row.
    rates: Vec<f64>,
    rows: Option<String>,
    runner: Option<RunReport>,
    campaign: Option<CampaignReport>,
}

/// A stream sink that notes when each row's line ends.
struct RowClock {
    bytes: Vec<u8>,
    row_ends: Vec<Instant>,
}

impl std::io::Write for RowClock {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        self.row_ends
            .extend(buf.iter().filter(|&&b| b == b'\n').map(|_| now));
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn run_call(w: &SimWorkload, prep: &Prepared, report: &mut Report) -> Result<Call, String> {
    let started = Instant::now();
    match w.shape {
        Shape::Campaign { seeds } => {
            let options = CampaignOptions {
                seeds,
                ..CampaignOptions::default()
            };
            let result = campaign::run_campaign(&prep.spec, &options).map_err(|e| e.to_string())?;
            let wall = started.elapsed().as_secs_f64();
            for line in result.failure_lines("workload") {
                if report.errors.len() < 20 {
                    report.errors.push(line);
                }
            }
            report.failed += result.cells().iter().map(|c| c.failures).sum::<u64>();
            let trials = prep.cells.len() as u64 * seeds;
            Ok(Call {
                trials,
                wall,
                rates: vec![trials as f64 / wall],
                rows: None,
                runner: None,
                campaign: Some(result),
            })
        }
        Shape::Runner => {
            // The `xp run --stream` path: each grid point's row is written
            // the moment the point completes, so the gaps between row ends
            // time the points.
            let mut clock = RowClock {
                bytes: Vec::new(),
                row_ends: Vec::new(),
            };
            let result = Runner::new(prep.spec.clone())
                .and_then(|r| r.run_streamed(&mut clock))
                .map_err(|e| e.to_string())?;
            let wall = started.elapsed().as_secs_f64();
            let mut rates = Vec::new();
            let mut previous = started;
            for &end in &clock.row_ends {
                rates.push(prep.spec.trials as f64 / end.duration_since(previous).as_secs_f64());
                previous = end;
            }
            Ok(Call {
                trials: prep.cells.len() as u64 * prep.spec.trials,
                wall,
                rates,
                rows: Some(String::from_utf8_lossy(&clock.bytes).into_owned()),
                runner: Some(result),
                campaign: None,
            })
        }
    }
}

/// Checks a runner call's rows against the first call's at the same seed
/// and, at the default seed, against the pinned digest.
fn check_rows(
    w: &SimWorkload,
    seed: u64,
    first: &mut Option<String>,
    call: &Call,
    report: &mut Report,
) {
    let Some(rows) = call.rows.clone() else {
        return;
    };
    match first {
        None => {
            let pinned = TOPO_DIGEST[usize::from(w.toy)];
            let digest = fnv1a(rows.as_bytes());
            if seed == DEFAULT_SEED && digest != pinned {
                report.fail(
                    call.trials,
                    format!(
                        "rows at the default seed digest to {digest:#018x}, pinned {pinned:#018x}"
                    ),
                );
            }
            *first = Some(rows);
        }
        Some(expected) if *expected != rows => {
            report.fail(
                call.trials,
                "rows differ between two runs of one seed".to_string(),
            );
        }
        Some(_) => {}
    }
}

/// The seed of the `index`-th call: campaigns draw fresh seeds per call;
/// the runner repeats the workload seed, so its rows can be compared.
fn call_seed(w: &SimWorkload, seed: u64, index: u64) -> u64 {
    match w.shape {
        Shape::Campaign { .. } => derive_seed(seed, 0, index),
        Shape::Runner => seed,
    }
}

/// Runs one workload for `seconds`, untraced (end-to-end metrics) or
/// traced (per-layer metrics).
pub fn run(w: &SimWorkload, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let text = w.spec_text(seed);
    let mut prep = match prepare(&text, w.backend) {
        Ok(prep) => prep,
        Err(e) => {
            report.attempted = 1;
            report.fail(1, format!("set-up failed: {e}"));
            return report;
        }
    };
    report.cells = prep.cell_backends();
    let result = if traced {
        run_traced(w, seed, seconds, &text, &mut prep, &mut report)
    } else {
        run_untraced(w, seed, seconds, &text, &mut prep, &mut report)
    };
    if let Err(e) = result {
        report.attempted = report.attempted.max(1);
        report.fail(1, e);
    }
    report
}

fn run_untraced(
    w: &SimWorkload,
    seed: u64,
    seconds: f64,
    text: &str,
    prep: &mut Prepared,
    report: &mut Report,
) -> Result<(), String> {
    let mut setup = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rates = Vec::new();
    let mut first_rows = None;
    let mut index = 0;
    while index < 2 || Instant::now() < deadline {
        // Set-ups are spread over the run, a burst before every call, so
        // they meet the host in the same states as the calls.
        setup.extend(repeat_timed(3, 40, Duration::from_millis(20), || {
            prepare(text, w.backend)
        }));
        prep.spec.seed = call_seed(w, seed, index);
        let call = run_call(w, prep, report)?;
        report.attempted += call.trials;
        check_rows(w, seed, &mut first_rows, &call, report);
        rates.extend(&call.rates);
        index += 1;
    }
    report.metrics = vec![
        Metric::setup_s(&setup),
        Metric::single("peak_rss_mb", "MB", peak_rss_mb(None), 1),
        Metric::from_samples("throughput_per_s", "1/s", &rates),
        Metric::from_samples("trials_per_s", "1/s", &rates),
    ];
    Ok(())
}

/// One trial of a traced replica.
#[derive(Debug, Clone)]
struct TrialRecord {
    /// Position of the trial's cell in `Prepared::cells`.
    cell: usize,
    /// The trial's index within its cell.
    index: u64,
    messages: u64,
    rounds: u64,
    /// The correct opinion's final share and the bias at the end of
    /// Stage 1: seed-dependent fingerprints of the trial.
    share: f64,
    stage1_bias: Option<f64>,
    /// The bias after every phase.
    biases: Vec<Option<f64>>,
    /// Whether an oracle flagged the trial.
    violated: bool,
}

impl TrialRecord {
    fn new(cell: usize, index: u64, outcome: &Outcome, violated: bool) -> Self {
        let dist = outcome.final_distribution();
        TrialRecord {
            cell,
            index,
            messages: outcome.messages(),
            rounds: outcome.rounds(),
            share: dist.counts()[outcome.correct_opinion().index()] as f64
                / dist.num_nodes() as f64,
            stage1_bias: outcome
                .stage_records(StageId::One)
                .last()
                .and_then(|r| r.bias_after()),
            biases: outcome.bias_trajectory(),
            violated,
        }
    }
}

/// Spans, trial records, and oracle violations.
type TracedResults = (Vec<Span>, Vec<TrialRecord>, Vec<String>);

/// Spans and counts of one traced replica of a call.
struct TracedBatch {
    wall: f64,
    workers: usize,
    spans: Vec<Span>,
    outcomes: Vec<TrialRecord>,
    violations: Vec<String>,
}

/// Re-executes the exact trials of one call, one traced trial at a time
/// per worker, in the same pool shape as the library: dynamic dispatch
/// over all (cell, seed) pairs for a campaign, cell by cell with the
/// trials spread over the cores for the runner.
fn traced_replica(w: &SimWorkload, prep: &Prepared, epoch: Instant, batch: u64) -> TracedBatch {
    let spec = &prep.spec;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let (groups, per_group): (Vec<Vec<usize>>, u64) = match w.shape {
        Shape::Campaign { seeds } => (vec![(0..prep.cells.len()).collect()], seeds),
        Shape::Runner => (
            (0..prep.cells.len()).map(|c| vec![c]).collect(),
            spec.trials,
        ),
    };
    let stop = match w.shape {
        Shape::Campaign { .. } => {
            let extra = spec.stop.to_condition();
            let mut conditions = vec![StopCondition::ConsensusReached];
            if extra != StopCondition::ScheduleExhausted {
                conditions.push(extra);
            }
            StopCondition::Any(conditions)
        }
        Shape::Runner => spec.stop.to_condition(),
    };
    let results: Mutex<TracedResults> = Mutex::default();
    let started = Instant::now();
    let mut workers = 1;
    for (g, group) in groups.iter().enumerate() {
        let total = group.len() as u64 * per_group;
        workers = cores.min(total as usize).max(1);
        let next = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let (next, results, stop) = (&next, &results, &stop);
                scope.spawn(move || {
                    let base = (batch << 48) | ((g as u64) << 40) | ((worker as u64) << 32);
                    let mut tracer = Tracer::new(epoch, base);
                    let mut local = Vec::new();
                    let mut violations = Vec::new();
                    loop {
                        let flat = next.fetch_add(1, Ordering::Relaxed);
                        if flat >= total {
                            break;
                        }
                        let position = group[(flat / per_group) as usize];
                        let cell = &prep.cells[position];
                        let index = flat % per_group;
                        tracer.set_trace((batch << 32) | ((g as u64) << 20) | flat);
                        let (outcome, v) = traced_trial(w, prep, cell, index, stop, &mut tracer);
                        local.push(TrialRecord::new(position, index, &outcome, !v.is_empty()));
                        violations.extend(v);
                    }
                    let mut r = results.lock().expect("a traced worker panicked");
                    r.0.extend(tracer.into_spans());
                    r.1.extend(local);
                    r.2.extend(violations);
                });
            }
        });
    }
    let wall = started.elapsed().as_secs_f64();
    let (spans, outcomes, violations) = results.into_inner().expect("a traced worker panicked");
    TracedBatch {
        wall,
        workers,
        spans,
        outcomes,
        violations,
    }
}

/// One trial under a `core.trial` span, seeded as the library seeds it:
/// `derive_seed(spec seed, cell, index)` in a campaign, `spec seed +
/// index` in the runner.
fn traced_trial(
    w: &SimWorkload,
    prep: &Prepared,
    cell: &Cell,
    index: u64,
    stop: &StopCondition,
    tracer: &mut Tracer,
) -> (Outcome, Vec<String>) {
    let spec = &prep.spec;
    let point = &cell.point;
    let span = tracer.begin("core.trial");
    let (params, suite) = match w.shape {
        Shape::Campaign { .. } => {
            let seed = derive_seed(spec.seed, point.index, index);
            let suite = OracleSuite::standard_with_churn(
                point.n,
                point.eps,
                campaign::DEFAULT_TOLERANCE,
                campaign::DEFAULT_SLACK,
                point.churn,
            );
            (
                cell_params(spec, point, seed).expect("prepare() built this cell"),
                Some(suite),
            )
        }
        Shape::Runner => {
            let params = cell_params(spec, point, spec.seed).expect("prepare() built this cell");
            (reseed(&params, spec.seed.wrapping_add(index)), None)
        }
    };
    let protocol =
        TwoStageProtocol::new(params, cell.noise.clone()).expect("prepare() built this cell");
    let session = protocol.session().stop_when(stop.clone());
    let mut observer = TrialObserver::new(tracer, suite);
    let outcome = match (&spec.kind, &cell.counts) {
        (ScenarioKind::RumorSpreading { source }, _) => {
            session.run_rumor_spreading_on(spec.backend, Opinion::new(*source), &mut observer)
        }
        (_, Some(counts)) => {
            session.run_plurality_consensus_on(spec.backend, counts, &mut observer)
        }
        _ => unreachable!("the workloads are rumor and plurality scenarios"),
    }
    .expect("prepare() validated this cell");
    let violations = observer.judge(&outcome);
    tracer.end(span, outcome.messages());
    (outcome, violations)
}

fn run_traced(
    w: &SimWorkload,
    seed: u64,
    seconds: f64,
    text: &str,
    prep: &mut Prepared,
    report: &mut Report,
) -> Result<(), String> {
    let spec_ms: Vec<f64> = repeat_timed(5, 400, Duration::from_millis(200), || {
        ScenarioSpec::from_text(text).and_then(|s| s.validate().map(|()| s))
    })
    .iter()
    .map(|s| s * 1e3)
    .collect();

    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds * 0.8);
    let (mut untraced_wall, mut traced_wall, mut capacity) = (0.0, 0.0, 0.0);
    let mut first_rows = None;
    let mut last_runner = None;
    let mut spans = Vec::new();
    let mut outcomes = Vec::new();
    let mut batch = 0;
    while batch < 1 || Instant::now() < deadline {
        prep.spec.seed = call_seed(w, seed, batch);
        // Alternate which side runs first, so neither always pays the
        // process's warm-up.
        let (call, traced) = if batch % 2 == 0 {
            let call = run_call(w, prep, report)?;
            (call, traced_replica(w, prep, epoch, batch + 1))
        } else {
            let traced = traced_replica(w, prep, epoch, batch + 1);
            (run_call(w, prep, report)?, traced)
        };
        report.attempted += call.trials;
        check_rows(w, seed, &mut first_rows, &call, report);
        check_replica(prep, &call, &traced.outcomes, report)?;
        if !traced.violations.is_empty() {
            report.fail(traced.violations.len() as u64, traced.violations.join("; "));
        }
        untraced_wall += call.wall;
        traced_wall += traced.wall;
        capacity += traced.workers as f64 * call.wall;
        spans.extend(traced.spans);
        outcomes.extend(traced.outcomes);
        last_runner = call.runner;
        batch += 1;
    }

    let mut m = layer_metrics(&spans, &outcomes);
    let trial_ns: f64 = spans
        .iter()
        .filter(|s| s.name == "core.trial")
        .map(|s| s.duration_ns() as f64)
        .sum();
    let harness = 1.0 - trial_ns * 1e-9 / capacity;
    let harness_name = match w.shape {
        Shape::Campaign { .. } => "campaign.harness_frac",
        Shape::Runner => "runner.harness_frac",
    };
    if let Some(result) = &last_runner {
        m.push(Metric::single(
            "analysis.render_us_per_row",
            "us",
            render_us_per_row(result),
            1,
        ));
    }
    m.extend([
        Metric::single(harness_name, "fraction", harness, batch as usize),
        Metric::from_samples("bench.spec_ms", "ms", &spec_ms),
        Metric::single(
            "trace.overhead_frac",
            "fraction",
            1.0 - untraced_wall / traced_wall,
            batch as usize,
        ),
    ]);
    m.extend(probe::run(w, seed));
    report.metrics = m;
    report.spans = spans;
    Ok(())
}

/// Checks that a traced replica ran the trials the user path ran: per
/// grid point, the runner's mean messages, rounds, final share and
/// Stage 1 bias; per campaign cell,
/// the run and failure counts, plus one run replayed through
/// `campaign::replay`, whose snapshots must total the replica's messages
/// and rounds and repeat its bias after every phase, for the same seed.
fn check_replica(
    prep: &Prepared,
    call: &Call,
    records: &[TrialRecord],
    report: &mut Report,
) -> Result<(), String> {
    let of_cell = |c: usize| records.iter().filter(move |r| r.cell == c);
    let mut mismatches = Vec::new();
    if let Some(result) = &call.runner {
        for (c, cell) in prep.cells.iter().enumerate() {
            let Some(PointSummary::Protocol(summary)) = result
                .points()
                .iter()
                .find(|p| p.point.index == cell.point.index)
                .map(|p| &p.summary)
            else {
                mismatches.push(format!("cell {}: no protocol row", cell.label));
                continue;
            };
            let mean = |f: fn(&TrialRecord) -> Option<f64>| {
                let v: Vec<f64> = of_cell(c).filter_map(f).collect();
                v.iter().sum::<f64>() / v.len().max(1) as f64
            };
            let replica = [
                mean(|r| Some(r.messages as f64)),
                mean(|r| Some(r.rounds as f64)),
                mean(|r| Some(r.share)),
                mean(|r| r.stage1_bias),
            ];
            let runner = [
                summary.messages.mean(),
                summary.rounds.mean(),
                summary.share.mean(),
                summary.stage1_bias.mean(),
            ];
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
            if !replica.iter().zip(&runner).all(|(&a, &b)| close(a, b)) {
                mismatches.push(format!(
                    "cell {}: runner mean messages/rounds/share/stage-1 bias {runner:?}, \
                     replica {replica:?}",
                    cell.label
                ));
            }
        }
    }
    if let Some(result) = &call.campaign {
        for (c, (cell, outcome)) in prep.cells.iter().zip(result.cells()).enumerate() {
            let runs = of_cell(c).count() as u64;
            let failures = of_cell(c).filter(|r| r.violated).count() as u64;
            if (runs, failures) != (outcome.runs, outcome.failures) {
                mismatches.push(format!(
                    "cell {}: campaign runs/failures {}/{}, replica {runs}/{failures}",
                    cell.label, outcome.runs, outcome.failures
                ));
            }
        }
        let first = records
            .iter()
            .find(|r| r.cell == 0 && r.index == 0)
            .ok_or("the replica ran no first trial")?;
        let seed = derive_seed(prep.spec.seed, prep.cells[0].point.index, 0);
        let replayed =
            campaign::replay(&prep.spec, result.options(), seed).map_err(|e| e.to_string())?;
        let snapshots = replayed.trajectory.snapshots();
        let replay = (
            snapshots
                .last()
                .map(|s| (s.total_messages(), s.total_rounds())),
            snapshots.iter().map(|s| s.bias()).collect::<Vec<_>>(),
        );
        let replica = (Some((first.messages, first.rounds)), first.biases.clone());
        if replay != replica {
            mismatches.push(format!(
                "seed {seed}: replayed (messages, rounds) and phase biases {replay:?}, \
                 replica {replica:?}"
            ));
        }
    }
    if !mismatches.is_empty() {
        report.fail(
            call.trials,
            format!(
                "the traced replica ran other trials than the user path: {}",
                mismatches.join("; ")
            ),
        );
    }
    Ok(())
}

/// Rendering cost of the runner's result table (the rows `xp run` prints
/// and the service streams), per row.
fn render_us_per_row(result: &RunReport) -> f64 {
    let rows = result.to_table().num_rows().max(1) as f64;
    let times = repeat_timed(20, 2000, Duration::from_millis(200), || {
        result.to_table().to_json_lines()
    });
    median(&times) * 1e6 / rows
}

/// Per-layer metrics derived from trial, stage, phase and oracle spans.
fn layer_metrics(spans: &[Span], outcomes: &[TrialRecord]) -> Vec<Metric> {
    let selfs = trace::self_times(spans);
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let total = |name: &'static str| named(name).fold(0.0, |t, s| t + s.duration_ns() as f64);
    let trials: Vec<f64> = named("core.trial")
        .map(|s| s.duration_ns() as f64 * 1e-6)
        .collect();
    let phases: Vec<f64> = named("core.phase")
        .map(|s| selfs[&s.id] as f64 * 1e-3)
        .collect();
    let phase_messages: f64 = named("core.phase").map(|s| s.count as f64).sum();
    let trial_ns = total("core.trial");
    let trial_self: f64 = named("core.trial").map(|s| selfs[&s.id] as f64).sum();
    let n = trials.len().max(1) as f64;
    let mean = |f: fn(&TrialRecord) -> u64| outcomes.iter().map(|o| f(o) as f64).sum::<f64>() / n;
    let p = |v: &[f64], q: f64| crate::stats::quantile(v, q);
    vec![
        Metric::single(
            "pushsim.messages_per_trial",
            "count",
            mean(|o| o.messages),
            trials.len(),
        ),
        Metric::single(
            "pushsim.rounds_per_trial",
            "count",
            mean(|o| o.rounds),
            trials.len(),
        ),
        Metric::single("core.trial_ms.p50", "ms", p(&trials, 0.5), trials.len()),
        Metric::single("core.trial_ms.p90", "ms", p(&trials, 0.9), trials.len()),
        Metric::single("core.phase_us.p50", "us", p(&phases, 0.5), phases.len()),
        Metric::single("core.phase_us.p90", "us", p(&phases, 0.9), phases.len()),
        Metric::single(
            "core.stage1_frac",
            "fraction",
            total("core.stage1") / trial_ns,
            trials.len(),
        ),
        Metric::single(
            "core.stage2_frac",
            "fraction",
            total("core.stage2") / trial_ns,
            trials.len(),
        ),
        Metric::single(
            "core.trial_self_frac",
            "fraction",
            trial_self / trial_ns,
            trials.len(),
        ),
        Metric::single(
            "core.phases_per_trial",
            "count",
            phases.len() as f64 / n,
            trials.len(),
        ),
        Metric::single(
            "core.phase_ns_per_msg",
            "ns",
            phases.iter().sum::<f64>() * 1e3 / phase_messages.max(1.0),
            phases.len(),
        ),
        Metric::single(
            "analysis.oracle_frac",
            "fraction",
            (total("analysis.oracle") + total("analysis.judge")) / trial_ns,
            trials.len(),
        ),
    ]
}
