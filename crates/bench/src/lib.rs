//! # noisy-bench
//!
//! The experiment harness of the reproduction, built around a declarative
//! scenario API:
//!
//! * [`spec`] — [`ScenarioSpec`], a serializable description of a complete
//!   experiment run (scenario kind, noise family, delivery process,
//!   backend, sweep axes, trials, seed) with a round-trippable `key =
//!   value` text format;
//! * [`runner`] — the [`Runner`] that executes any spec through the
//!   backend-generic protocol/dynamics stack and reports structured
//!   summaries;
//! * [`registry`] — every figure/table experiment of DESIGN.md §5,
//!   registered by name (`f1`–`f8`, `t1`–`t4`, `a1`, `scale`);
//! * the `xp` binary — the single driver: `xp list`, `xp run f2 --json`,
//!   `xp run --spec path.spec`, `xp show f2`.
//!
//! Run an experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p noisy-bench --bin xp -- list
//! cargo run --release -p noisy-bench --bin xp -- run f1
//! cargo run --release -p noisy-bench --bin xp -- run t1 --full --json
//! cargo run --release -p noisy-bench --bin xp -- run --spec examples/specs/rumor_vs_eps.spec
//! ```
//!
//! Every run accepts an optional `--full` flag: without it a reduced
//! ("quick") grid is used so the whole suite finishes in minutes on a
//! laptop; with it the grid matches the sizes quoted in EXPERIMENTS.md.
//! `benches/` holds the Criterion micro-benchmarks that document the
//! simulator's cost model.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod registry;
pub mod runner;
pub mod service;
pub mod spec;

pub use runner::Runner;
pub use spec::ScenarioSpec;

use gossip_analysis::ci::WilsonInterval;
use gossip_analysis::stats::SampleStats;
use gossip_analysis::table::Table;
use noisy_channel::NoiseMatrix;
use plurality_core::{ExecutionBackend, Outcome, ProtocolError, ProtocolParams, TwoStageProtocol};
use pushsim::Opinion;

/// Scale of an experiment run: a reduced grid for quick checks or the full
/// grid documented in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced grid (default): finishes in roughly a minute per experiment.
    Quick,
    /// Full grid: the sizes used for the numbers recorded in EXPERIMENTS.md.
    Full,
}

impl Scale {
    /// Parses the scale from the process arguments (`--full` selects
    /// [`Scale::Full`]).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Chooses between the quick and full value of a parameter.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// The command-line options shared by every experiment run:
///
/// * `--full` — run the full grid instead of the reduced quick grid;
/// * `--json` — emit result tables as JSON lines
///   ([`Table::to_json_lines`]) instead of aligned text, so figure
///   pipelines are scriptable;
/// * `--stream` — emit result rows as JSON lines *while the run
///   progresses* (per completed sweep point; per finished phase for
///   trajectory specs) instead of one table at the end. Spec-backed
///   experiments and `--spec` files stream natively; composite
///   experiments fall back to JSON-at-the-end;
/// * `--backend agent|counting|auto` (or `--backend=…`) — which simulation
///   backend protocol runs execute on (when absent, the spec/experiment
///   default applies — usually [`ExecutionBackend::Auto`], which resolves
///   per run from the calibrated cost model; see
///   [`ExecutionBackend::resolve`]);
/// * `--trials N` — override the number of trials/repetitions per cell;
/// * `--seed S` — override the base RNG seed.
///
/// Parse failures never silently fall back to defaults: [`from_args`]
/// prints the offending argument plus the [`USAGE`](Self::USAGE) synopsis
/// and exits, and `--help` prints the synopsis.
///
/// [`from_args`]: Self::from_args
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cli {
    /// Quick vs full grid (`--full`).
    pub scale: Scale,
    /// Emit tables as JSON lines (`--json`).
    pub json: bool,
    /// Stream result rows as JSON lines while the run progresses
    /// (`--stream`).
    pub stream: bool,
    /// Backend override for protocol runs (`--backend …`); `None` keeps
    /// the experiment's own default.
    pub backend: Option<ExecutionBackend>,
    /// Trials-per-cell override (`--trials N`).
    pub trials: Option<u64>,
    /// Base-seed override (`--seed S`).
    pub seed: Option<u64>,
}

impl Default for Cli {
    /// Quick grid, text output, no overrides.
    fn default() -> Self {
        Cli {
            scale: Scale::Quick,
            json: false,
            stream: false,
            backend: None,
            trials: None,
            seed: None,
        }
    }
}

/// A rejected command line: the offending argument plus the full usage
/// synopsis (rendered by `Display`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    message: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "error: {}\n\n{}", self.message, Cli::USAGE)
    }
}

impl std::error::Error for CliError {}

impl Cli {
    /// The flag synopsis shared by every experiment run (printed on
    /// `--help` and on every parse failure).
    pub const USAGE: &'static str = "\
options:
  --full               run the full experiment grid (default: reduced quick grid)
  --json               emit result tables as JSON lines
  --stream             stream result rows as JSON lines while the run progresses
  --backend <agent|counting|auto>
                       simulation backend for protocol runs
  --trials <N>         override the number of trials/repetitions per cell
  --seed <S>           override the base RNG seed
  --help, -h           print this synopsis";

    /// Parses the options from the process arguments. Prints the usage
    /// synopsis and exits on `--help`/`-h` (status 0) or on a parse
    /// failure (status 2).
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", Self::USAGE);
            std::process::exit(0);
        }
        match Self::try_parse_from(args) {
            Ok(cli) => cli,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// Parses the options from an explicit argument list.
    ///
    /// # Panics
    ///
    /// Panics with the [`CliError`] message (offending argument + usage
    /// synopsis) on any parse failure — a mistyped flag must not silently
    /// run the experiment with default options. Binaries should prefer
    /// [`from_args`](Self::from_args), which exits cleanly instead.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        Self::try_parse_from(args).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parses the options from an explicit argument list.
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] naming the offending argument (unrecognized
    /// flag, missing or malformed value) together with the usage synopsis.
    pub fn try_parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, CliError> {
        let mut cli = Cli::default();
        let err = |message: String| CliError { message };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            // `--flag value` and `--flag=value` are both accepted.
            let (flag, mut inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
                None => (arg, None),
            };
            let mut value = |args: &mut I::IntoIter| -> Result<String, CliError> {
                inline
                    .take()
                    .or_else(|| args.next())
                    .ok_or_else(|| err(format!("{flag} requires a value")))
            };
            match flag.as_str() {
                "--full" => cli.scale = Scale::Full,
                "--json" => cli.json = true,
                "--stream" => cli.stream = true,
                "--backend" => {
                    let value = value(&mut args)?;
                    cli.backend = Some(value.parse().map_err(|e| {
                        err(format!("invalid --backend value {value:?}: {e}"))
                    })?);
                }
                "--trials" => {
                    let value = value(&mut args)?;
                    let trials: u64 = value
                        .parse()
                        .map_err(|_| err(format!("invalid --trials value {value:?}")))?;
                    if trials == 0 {
                        return Err(err("--trials must be at least 1".into()));
                    }
                    cli.trials = Some(trials);
                }
                "--seed" => {
                    let value = value(&mut args)?;
                    cli.seed = Some(
                        value
                            .parse()
                            .map_err(|_| err(format!("invalid --seed value {value:?}")))?,
                    );
                }
                other => return Err(err(format!("unrecognized argument {other:?}"))),
            }
            if let Some(extra) = inline {
                return Err(err(format!("{flag} does not take a value (got {extra:?})")));
            }
        }
        Ok(cli)
    }

    /// The backend override, or [`ExecutionBackend::Auto`] when none was
    /// given (the default for experiments that run the protocol directly).
    pub fn backend_or_auto(&self) -> ExecutionBackend {
        self.backend.unwrap_or(ExecutionBackend::Auto)
    }

    /// The trials override, or `default` when none was given.
    pub fn trials_or(&self, default: u64) -> u64 {
        self.trials.unwrap_or(default)
    }

    /// The seed override, or `default` when none was given.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// Prints `table` in the selected output format: aligned text by
    /// default, JSON lines under `--json` (and under `--stream`, for the
    /// composite experiments that cannot stream incrementally).
    pub fn emit(&self, table: &Table) {
        let mut stdout = std::io::stdout().lock();
        self.emit_to(table, &mut stdout).expect("write to stdout");
    }

    /// Writes `table` in the selected output format to `out` — the
    /// sink-generic form of [`emit`](Self::emit), shared by the CLI
    /// (stdout) and the scenario service (HTTP response buffers).
    pub fn emit_to(&self, table: &Table, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        if self.json || self.stream {
            write!(out, "{}", table.to_json_lines())
        } else {
            write!(out, "{table}")
        }
    }

    /// Prints a free-form context line — suppressed under `--json` and
    /// `--stream` so the output stream stays machine-parseable.
    pub fn note(&self, line: &str) {
        let mut stdout = std::io::stdout().lock();
        self.note_to(line, &mut stdout).expect("write to stdout");
    }

    /// Writes a context line to `out` (same `--json`/`--stream`
    /// suppression as [`note`](Self::note)).
    pub fn note_to(&self, line: &str, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        if !self.json && !self.stream {
            writeln!(out, "{line}")
        } else {
            Ok(())
        }
    }
}

/// Aggregated result of repeating one protocol configuration over several
/// seeds.
#[derive(Debug, Clone)]
pub struct TrialSummary {
    /// Success-rate estimate (consensus on the correct opinion).
    pub success: WilsonInterval,
    /// Exact-consensus rate (consensus on *any* opinion).
    pub consensus: WilsonInterval,
    /// Rate at which the correct opinion ended up the plurality (whether or
    /// not exact consensus was reached).
    pub correct: WilsonInterval,
    /// Final share of the correct opinion over the trials.
    pub share: SampleStats,
    /// Rounds-to-completion statistics over the trials.
    pub rounds: SampleStats,
    /// Messages-sent statistics over the trials.
    pub messages: SampleStats,
    /// Per-node memory (bits) statistics over the trials.
    pub memory_bits: SampleStats,
    /// Bias towards the correct opinion at the end of Stage 1.
    pub stage1_bias: SampleStats,
}

/// Runs `trials` independent rumor-spreading executions (source opinion 0)
/// and aggregates them.
///
/// # Panics
///
/// Panics if the parameters and noise matrix are incompatible — experiment
/// binaries construct both from the same `k`, so a mismatch is a programming
/// error in the harness itself.
pub fn rumor_spreading_trials(
    params: &ProtocolParams,
    noise: &NoiseMatrix,
    trials: u64,
) -> TrialSummary {
    rumor_spreading_trials_on(ExecutionBackend::Agent, params, noise, trials)
}

/// [`rumor_spreading_trials`] on an explicit [`ExecutionBackend`]
/// ([`ExecutionBackend::Auto`] resolves per run from the cost model).
///
/// # Panics
///
/// Same as [`rumor_spreading_trials`].
pub fn rumor_spreading_trials_on(
    backend: ExecutionBackend,
    params: &ProtocolParams,
    noise: &NoiseMatrix,
    trials: u64,
) -> TrialSummary {
    rumor_spreading_trials_from(backend, params, noise, Opinion::new(0), trials)
}

/// [`rumor_spreading_trials_on`] from an arbitrary source opinion.
///
/// # Panics
///
/// Panics if `source` is out of range for the parameters, or on a
/// params/noise mismatch (both are harness programming errors).
pub fn rumor_spreading_trials_from(
    backend: ExecutionBackend,
    params: &ProtocolParams,
    noise: &NoiseMatrix,
    source: Opinion,
    trials: u64,
) -> TrialSummary {
    run_trials(params, noise, trials, |protocol| {
        protocol.run_rumor_spreading_on(backend, source)
    })
    .expect("harness supplies a valid source opinion")
}

/// Runs `trials` independent plurality-consensus executions from the given
/// initial counts and aggregates them.
///
/// # Panics
///
/// Panics if the counts are invalid for the parameters (harness programming
/// error).
pub fn plurality_trials(
    params: &ProtocolParams,
    noise: &NoiseMatrix,
    initial_counts: &[usize],
    trials: u64,
) -> TrialSummary {
    plurality_trials_on(ExecutionBackend::Agent, params, noise, initial_counts, trials)
}

/// [`plurality_trials`] on an explicit [`ExecutionBackend`]
/// ([`ExecutionBackend::Auto`] resolves per run from the cost model).
///
/// # Panics
///
/// Same as [`plurality_trials`].
pub fn plurality_trials_on(
    backend: ExecutionBackend,
    params: &ProtocolParams,
    noise: &NoiseMatrix,
    initial_counts: &[usize],
    trials: u64,
) -> TrialSummary {
    run_trials(params, noise, trials, |protocol| {
        protocol.run_plurality_consensus_on(backend, initial_counts)
    })
    .expect("harness supplies valid counts")
}

/// Runs `trials` independent Stage-2-only executions (the amplification
/// stage alone, from the given initial counts) and aggregates them.
///
/// # Panics
///
/// Panics if the counts are invalid for the parameters (harness programming
/// error).
pub fn stage2_only_trials_on(
    backend: ExecutionBackend,
    params: &ProtocolParams,
    noise: &NoiseMatrix,
    initial_counts: &[usize],
    trials: u64,
) -> TrialSummary {
    run_trials(params, noise, trials, |protocol| {
        protocol.run_stage2_only_on(backend, initial_counts)
    })
    .expect("harness supplies valid counts")
}

/// Runs `trials` reseeded executions of `run` across the available cores
/// and aggregates them in trial order. A failing execution surfaces as
/// the error of the lowest-numbered failing trial.
pub(crate) fn run_trials<F>(
    params: &ProtocolParams,
    noise: &NoiseMatrix,
    trials: u64,
    run: F,
) -> Result<TrialSummary, ProtocolError>
where
    F: Fn(&TwoStageProtocol) -> Result<Outcome, ProtocolError> + Sync,
{
    assert!(trials > 0, "need at least one trial");
    // Trials are independent and each is deterministic in its derived seed,
    // so they run across all cores; results are merged in trial order, which
    // makes the summary bit-identical to a sequential run regardless of the
    // worker count or completion order.
    let workers = std::thread::available_parallelism()
        .map(|p| p.get() as u64)
        .unwrap_or(1)
        .min(trials);
    let next_trial = std::sync::atomic::AtomicU64::new(0);
    let finished: std::sync::Mutex<Vec<(u64, Result<Outcome, ProtocolError>)>> =
        std::sync::Mutex::new(Vec::with_capacity(trials as usize));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let trial = next_trial.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if trial >= trials {
                    break;
                }
                let seeded = reseed(params, params.seed().wrapping_add(trial));
                let protocol = TwoStageProtocol::new(seeded, noise.clone())
                    .expect("dimensions match by construction");
                let outcome = run(&protocol);
                finished
                    .lock()
                    .expect("trial worker poisoned the result lock")
                    .push((trial, outcome));
            });
        }
    });
    let mut finished = finished.into_inner().expect("all workers joined");
    finished.sort_by_key(|(trial, _)| *trial);
    let outcomes = finished
        .into_iter()
        .map(|(_, outcome)| outcome)
        .collect::<Result<Vec<_>, _>>()?;

    let mut successes = 0u64;
    let mut consensus = 0u64;
    let mut correct = 0u64;
    let mut share = SampleStats::new();
    let mut rounds = SampleStats::new();
    let mut messages = SampleStats::new();
    let mut memory_bits = SampleStats::new();
    let mut stage1_bias = SampleStats::new();
    for outcome in &outcomes {
        if outcome.succeeded() {
            successes += 1;
        }
        if outcome.consensus_reached() {
            consensus += 1;
        }
        if outcome.winning_opinion() == Some(outcome.correct_opinion()) {
            correct += 1;
        }
        let dist = outcome.final_distribution();
        share.push(
            dist.counts()[outcome.correct_opinion().index()] as f64 / dist.num_nodes() as f64,
        );
        rounds.push(outcome.rounds() as f64);
        messages.push(outcome.messages() as f64);
        memory_bits.push(outcome.memory().bits_per_node() as f64);
        if let Some(last_stage1) = outcome
            .stage_records(plurality_core::StageId::One)
            .last()
            .and_then(|r| r.bias_after())
        {
            stage1_bias.push(last_stage1);
        }
    }
    Ok(TrialSummary {
        success: WilsonInterval::from_trials(successes, trials),
        consensus: WilsonInterval::from_trials(consensus, trials),
        correct: WilsonInterval::from_trials(correct, trials),
        share,
        rounds,
        messages,
        memory_bits,
        stage1_bias,
    })
}

/// Clones `params` with a different seed (all other fields preserved).
pub fn reseed(params: &ProtocolParams, seed: u64) -> ProtocolParams {
    ProtocolParams::builder(params.num_nodes(), params.num_opinions())
        .epsilon(params.epsilon())
        .delivery(params.delivery())
        .topology(params.topology())
        .fault(params.fault())
        .churn(params.churn())
        .noise_schedule(params.noise_schedule())
        .clock(params.clock())
        .constants(*params.constants())
        .seed(seed)
        .build()
        .expect("re-seeding preserves validity")
}

/// Initial counts for a plurality instance over `k` opinions where the
/// plurality opinion 0 holds `bias` more (as a fraction of the opinionated
/// set `s`) than every other opinion, and the rest is split evenly.
///
/// # Panics
///
/// Panics if the requested bias is infeasible (`bias ≥ 1`) or `k < 2`.
pub fn biased_counts(s: usize, k: usize, bias: f64) -> Vec<usize> {
    assert!(k >= 2 && (0.0..1.0).contains(&bias), "invalid bias request");
    let others = k - 1;
    // c0 - ci = bias, c0 + others*ci = 1  =>  ci = (1 - bias) / k.
    let ci = (1.0 - bias) / k as f64;
    let c0 = ci + bias;
    let mut counts = vec![0usize; k];
    counts[0] = (c0 * s as f64).round() as usize;
    for c in counts.iter_mut().skip(1) {
        *c = (ci * s as f64).round() as usize;
    }
    // Fix rounding drift on the last minority opinion.
    let total: usize = counts.iter().sum();
    if total > s {
        let excess = total - s;
        counts[others] = counts[others].saturating_sub(excess);
    } else {
        counts[0] += s - total;
    }
    // Guarantee a unique plurality on opinion 0 even for bias ≈ 0 (the
    // protocol API requires one); this shifts the realized bias by at most
    // 2/s, which is negligible at experiment sizes.
    let max_other = counts[1..].iter().copied().max().unwrap_or(0);
    if counts[0] <= max_other {
        let need = max_other - counts[0] + 1;
        let donor = (1..k)
            .max_by_key(|&i| counts[i])
            .expect("k >= 2 so a donor exists");
        counts[0] += need;
        counts[donor] = counts[donor].saturating_sub(need);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick_selects_correctly() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    fn to_args(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_parses_the_shared_flags() {
        let cli = Cli::parse_from(to_args(&[]));
        assert_eq!(cli, Cli::default());
        assert_eq!(cli.scale, Scale::Quick);
        assert!(!cli.json);
        assert_eq!(cli.backend, None);
        assert_eq!(cli.backend_or_auto(), ExecutionBackend::Auto);

        let cli = Cli::parse_from(to_args(&["--full", "--json", "--backend", "counting"]));
        assert_eq!(cli.scale, Scale::Full);
        assert!(cli.json);
        assert_eq!(cli.backend, Some(ExecutionBackend::Counting));

        let cli = Cli::parse_from(to_args(&["--backend=agent"]));
        assert_eq!(cli.backend, Some(ExecutionBackend::Agent));
    }

    #[test]
    fn cli_parses_trials_and_seed_overrides() {
        let cli = Cli::parse_from(to_args(&["--trials", "12", "--seed=99"]));
        assert_eq!(cli.trials, Some(12));
        assert_eq!(cli.seed, Some(99));
        assert_eq!(cli.trials_or(5), 12);
        assert_eq!(cli.seed_or(0), 99);
        let cli = Cli::parse_from(to_args(&[]));
        assert_eq!(cli.trials_or(5), 5);
        assert_eq!(cli.seed_or(7), 7);
    }

    #[test]
    #[should_panic(expected = "invalid --backend")]
    fn cli_rejects_unknown_backends() {
        let _ = Cli::parse_from(to_args(&["--backend", "gpu"]));
    }

    #[test]
    #[should_panic(expected = "unrecognized argument")]
    fn cli_rejects_mistyped_flags() {
        let _ = Cli::parse_from(to_args(&["--fulll"]));
    }

    #[test]
    fn cli_parse_failures_name_every_accepted_flag() {
        // The satellite requirement: a failed parse shows a usage synopsis
        // naming the accepted flags, not a bare error.
        let err = Cli::try_parse_from(to_args(&["--wat"])).unwrap_err();
        let rendered = err.to_string();
        for flag in ["--full", "--json", "--backend", "--trials", "--seed", "--help"] {
            assert!(rendered.contains(flag), "usage must mention {flag}: {rendered}");
        }
        assert!(rendered.contains("--wat"), "the offending flag is named");
    }

    #[test]
    fn cli_rejects_malformed_and_missing_values() {
        for args in [
            vec!["--trials"],
            vec!["--trials", "many"],
            vec!["--trials", "0"],
            vec!["--seed", "1.5"],
            vec!["--backend"],
            vec!["--json=yes"],
        ] {
            assert!(
                Cli::try_parse_from(to_args(&args)).is_err(),
                "{args:?} must be rejected"
            );
        }
    }

    #[test]
    fn backend_parameterized_trials_run_on_the_counting_backend() {
        let eps = 0.4;
        let noise = NoiseMatrix::uniform(2, eps).unwrap();
        let params = ProtocolParams::builder(500, 2)
            .epsilon(eps)
            .seed(9)
            .delivery(pushsim::DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        let summary =
            rumor_spreading_trials_on(ExecutionBackend::Counting, &params, &noise, 2);
        assert_eq!(summary.success.trials(), 2);
        let plurality = plurality_trials_on(
            ExecutionBackend::Auto,
            &params,
            &noise,
            &[300, 150],
            2,
        );
        assert_eq!(plurality.success.trials(), 2);
    }

    #[test]
    fn biased_counts_have_the_requested_bias_and_total() {
        for &(s, k, bias) in &[(1_000usize, 3usize, 0.1f64), (500, 2, 0.3), (999, 5, 0.05)] {
            let counts = biased_counts(s, k, bias);
            assert_eq!(counts.len(), k);
            assert_eq!(counts.iter().sum::<usize>(), s);
            let c0 = counts[0] as f64 / s as f64;
            let c1 = counts[1] as f64 / s as f64;
            assert!((c0 - c1 - bias).abs() < 0.02, "counts {counts:?}");
        }
    }

    #[test]
    fn trial_summary_reports_consistent_counts() {
        let eps = 0.4;
        let noise = NoiseMatrix::uniform(2, eps).unwrap();
        let params = ProtocolParams::builder(200, 2).epsilon(eps).seed(1).build().unwrap();
        let summary = rumor_spreading_trials(&params, &noise, 3);
        assert_eq!(summary.success.trials(), 3);
        assert_eq!(summary.rounds.len(), 3);
        assert_eq!(summary.memory_bits.len(), 3);
        // Rounds equal the schedule for every trial.
        let expected = params.schedule().total_rounds() as f64;
        assert_eq!(summary.rounds.min(), Some(expected));
        assert_eq!(summary.rounds.max(), Some(expected));
    }

    #[test]
    fn plurality_trials_use_the_supplied_counts() {
        let eps = 0.4;
        let noise = NoiseMatrix::uniform(3, eps).unwrap();
        let params = ProtocolParams::builder(300, 3).epsilon(eps).seed(2).build().unwrap();
        let counts = biased_counts(300, 3, 0.2);
        let summary = plurality_trials(&params, &noise, &counts, 2);
        assert_eq!(summary.success.trials(), 2);
        assert!(summary.stage1_bias.len() <= 2);
    }

    #[test]
    fn reseed_changes_only_the_seed() {
        let params = ProtocolParams::builder(300, 3)
            .epsilon(0.3)
            .seed(2)
            .topology(pushsim::TopologySpec::Ring)
            .build()
            .unwrap();
        let reseeded = reseed(&params, 99);
        assert_eq!(reseeded.seed(), 99);
        assert_eq!(reseeded.num_nodes(), params.num_nodes());
        assert_eq!(reseeded.epsilon(), params.epsilon());
        assert_eq!(reseeded.topology(), params.topology());

        // Faults must survive re-seeding, or campaign trials past the
        // first would silently run fault-free.
        let faulty = ProtocolParams::builder(300, 3)
            .epsilon(0.3)
            .fault("drop(0.1)+byz(0.05:0)".parse().unwrap())
            .build()
            .unwrap();
        assert_eq!(reseed(&faulty, 7).fault(), faulty.fault());

        // The temporal axes must survive too, or observed trials would
        // silently run churn-free on a static ε under a synchronous clock.
        let temporal = ProtocolParams::builder(300, 3)
            .epsilon(0.3)
            .churn("join(0.1)+leave(0.05)".parse().unwrap())
            .noise_schedule("burst(0.4@2:1)".parse().unwrap())
            .clock("drift(20000)".parse().unwrap())
            .build()
            .unwrap();
        let reseeded = reseed(&temporal, 7);
        assert_eq!(reseeded.churn(), temporal.churn());
        assert_eq!(reseeded.noise_schedule(), temporal.noise_schedule());
        assert_eq!(reseeded.clock(), temporal.clock());
    }
}
