//! Execution of [`ScenarioSpec`]s through the generic protocol/dynamics
//! stack.
//!
//! A [`Runner`] expands a spec's sweep axes into a grid (Cartesian product,
//! axis order `k`, `n`, `eps`, `bias`, `ell`, `delta`, `delivery`,
//! `topology`, `fault`),
//! executes every point for the requested number of trials on the
//! requested [`ExecutionBackend`], and returns a structured [`RunReport`].
//! [`RunReport::to_table`] renders the report; callers that need bespoke
//! tables (the registry's composite experiments) read the typed summaries
//! directly.
//!
//! What a point *reports* is the spec's [`ObserveMode`]:
//!
//! * [`Summary`](ObserveMode::Summary) — end-of-run aggregates, one row
//!   per point with the spec's metric columns (the default).
//! * [`Trajectory`](ObserveMode::Trajectory) — the full per-phase
//!   trajectory of every execution, recorded by an attached
//!   [`TrajectoryRecorder`]: one row per phase (per trial).
//! * [`Phases`](ObserveMode::Phases) — per-phase aggregates across the
//!   trials through a shared [`OnlineStats`] observer.
//!
//! [`Runner::run_streamed`] additionally emits every result row as a JSON
//! line the moment it exists — per completed point for summaries, *live
//! per phase* for trajectory runs (via a [`StreamSink`] attached to the
//! execution) — instead of holding everything for one final table.
//!
//! Protocol scenarios run through the shared parallel trial harness, so
//! their statistics are bit-identical to the pre-spec harness for the same
//! parameters and seed (attached observers and
//! [`StopCondition::ScheduleExhausted`] provably leave RNG streams
//! untouched). Dynamics scenarios derive one seed per `(point, trial)`
//! cell with [`derive_seed`] and are likewise deterministic in the base
//! seed.

use crate::spec::{InitSpec, Metric, ObserveMode, ScenarioKind, ScenarioSpec, SpecError};
use crate::{biased_counts, run_trials, TrialSummary};
use gossip_analysis::ci::WilsonInterval;
use gossip_analysis::observe::{
    OnlineStats, StreamSink, TrajectoryRecorder, PHASES_HEADERS, TRAJECTORY_HEADERS,
};
use gossip_analysis::stats::SampleStats;
use gossip_analysis::sweep::derive_seed;
use gossip_analysis::table::{json_line, Table};
use noisy_channel::sampling::majority_pmf;
use noisy_channel::{NoiseMatrix, NoiseSpec};
use opinion_dynamics::{DynamicsOutcome, RuleSpec};
use plurality_core::observe::{Fanout, NoObserver, Observer, StopCondition};
use plurality_core::{bounds, ExecutionBackend, ProtocolParams, TwoStageProtocol};
use pushsim::{
    ChurnSpec, ClockSpec, CountingNetwork, DeliverySemantics, FaultSpec, Network, NoiseSchedule,
    Opinion, PhaseObservation, PushBackend, SimConfig, TopologySpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

/// Salt mixed into the base seed for dynamics decision randomness, so the
/// decision RNG stream is unrelated to the delivery RNG stream.
const DECISION_SEED_SALT: u64 = 0xD0_0DAD;

/// Salt for the phase-statistics adoption probe (the "which opinion would
/// the Stage 1 rule pick" re-sample), keeping it independent of delivery.
const ADOPTION_SEED_SALT: u64 = 0x5AFE;

/// One grid point of a sweep: the resolved parameter values and the point's
/// position in the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Index of the point in row order.
    pub index: usize,
    /// Opinion count at this point.
    pub k: usize,
    /// Network size at this point.
    pub n: usize,
    /// Schedule ε at this point.
    pub eps: f64,
    /// Initial bias at this point (scenarios with a biased initial
    /// configuration only).
    pub bias: Option<f64>,
    /// Sample size ℓ at this point (`gap` scenarios only).
    pub ell: Option<u64>,
    /// Received-distribution bias δ at this point (`gap` scenarios only).
    pub delta: Option<f64>,
    /// Delivery process at this point (the spec's delivery unless a
    /// `phase` scenario sweeps it).
    pub delivery: DeliverySemantics,
    /// Communication topology at this point (the spec's topology unless
    /// `sweep.topology` overrides it).
    pub topology: TopologySpec,
    /// Fault-injection model at this point (the spec's `fault` unless
    /// `sweep.fault` makes it a campaign axis).
    pub fault: FaultSpec,
    /// Population/edge churn at this point (the spec's `churn` unless
    /// `sweep.churn` makes it a campaign axis).
    pub churn: ChurnSpec,
    /// Noise schedule `ε(t)` at this point (the spec's `schedule` unless
    /// `sweep.schedule` overrides it).
    pub schedule: NoiseSchedule,
    /// Clock model at this point (the spec's `clock` unless `sweep.clock`
    /// overrides it).
    pub clock: ClockSpec,
}

/// Aggregated result of a dynamics scenario at one grid point.
#[derive(Debug, Clone)]
pub struct DynamicsSummary {
    /// Exact-consensus rate over the trials.
    pub consensus: WilsonInterval,
    /// Rate at which the plurality opinion won.
    pub correct: WilsonInterval,
    /// Final share of the plurality opinion.
    pub share: SampleStats,
    /// Rounds executed.
    pub rounds: SampleStats,
}

/// Result of a `gap` scenario at one grid point.
#[derive(Debug, Clone)]
pub struct GapSummary {
    /// Monte-Carlo estimate of the sample-majority gap.
    pub measured: f64,
    /// The Proposition 1 analytic lower bound.
    pub bound: f64,
    /// The exact gap, from the sample-majority law [`majority_pmf`].
    pub exact: f64,
    /// Whether the measured gap dominates the bound up to the Monte-Carlo
    /// noise floor `3/√trials`.
    pub holds: bool,
}

/// Result of a `phase` scenario at one grid point (statistics over the
/// trials of one pushed phase).
#[derive(Debug, Clone)]
pub struct PhaseStatsSummary {
    /// Total messages observed.
    pub total: SampleStats,
    /// Mean messages received per node.
    pub mean_received: SampleStats,
    /// Per-node received-count variance.
    pub var_received: SampleStats,
    /// Fraction of nodes that received at least one message.
    pub frac_received: SampleStats,
    /// Fraction of nodes whose Stage 1 adoption rule would pick opinion 0.
    pub adopt0: SampleStats,
}

/// The recorded trajectories of one grid point, one recorder per trial
/// ([`ObserveMode::Trajectory`]).
#[derive(Debug, Clone)]
pub struct TrajectorySet {
    /// Per-trial recorders, in trial order.
    pub trials: Vec<TrajectoryRecorder>,
}

/// The per-point result, shaped by the scenario kind and the spec's
/// [`ObserveMode`].
#[derive(Debug, Clone)]
pub enum PointSummary {
    /// Result of a rumor / plurality / stage2 scenario.
    Protocol(TrialSummary),
    /// Result of a dynamics scenario.
    Dynamics(DynamicsSummary),
    /// Result of a `gap` scenario.
    Gap(GapSummary),
    /// Result of a `phase` scenario.
    PhaseStats(PhaseStatsSummary),
    /// Per-trial trajectories ([`ObserveMode::Trajectory`]).
    Trajectory(TrajectorySet),
    /// Per-phase aggregates across trials ([`ObserveMode::Phases`]).
    Phases(OnlineStats),
}

/// One executed grid point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Where in the grid this result sits.
    pub point: GridPoint,
    /// The aggregated trial statistics.
    pub summary: PointSummary,
}

/// The structured outcome of executing a [`ScenarioSpec`].
#[derive(Debug, Clone)]
pub struct RunReport {
    spec: ScenarioSpec,
    points: Vec<PointResult>,
}

impl RunReport {
    /// The spec this report was produced from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The executed grid points, in row order.
    pub fn points(&self) -> &[PointResult] {
        &self.points
    }

    /// Renders the report as a table: one column per swept axis (in axis
    /// order) followed by the observe mode's data columns (the spec's
    /// metrics for summaries, the trajectory / phase-aggregate columns
    /// otherwise).
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(headers(&self.spec));
        for result in &self.points {
            for row in point_rows(&self.spec, result) {
                table.push_row(row);
            }
        }
        table
    }
}

/// Which axes are swept (and hence shown as columns), in axis order.
/// Trajectory rows already end with the canonical `topology` column
/// ([`TRAJECTORY_HEADERS`]), so a swept topology axis is suppressed there
/// — otherwise every JSON row would carry two identical `topology` keys.
pub(crate) fn axis_columns(spec: &ScenarioSpec) -> [(&'static str, bool); 12] {
    let sweep = &spec.sweep;
    [
        ("k", !sweep.k.is_empty()),
        ("n", !sweep.n.is_empty()),
        ("eps", !sweep.eps.is_empty()),
        ("bias", !sweep.bias.is_empty()),
        ("ell", !sweep.ell.is_empty()),
        ("delta", !sweep.delta.is_empty()),
        ("delivery", !sweep.delivery.is_empty()),
        (
            "topology",
            !sweep.topology.is_empty() && spec.observe != ObserveMode::Trajectory,
        ),
        ("fault", !sweep.fault.is_empty()),
        ("churn", !sweep.churn.is_empty()),
        ("schedule", !sweep.schedule.is_empty()),
        ("clock", !sweep.clock.is_empty()),
    ]
}

/// The full header row of a spec's result table (axis columns + data
/// columns); shared by [`RunReport::to_table`] and the streaming path so
/// streamed rows and the final table are byte-compatible.
pub fn headers(spec: &ScenarioSpec) -> Vec<String> {
    let mut headers: Vec<String> = axis_columns(spec)
        .iter()
        .filter(|(_, shown)| *shown)
        .map(|(name, _)| name.to_string())
        .collect();
    match spec.observe {
        ObserveMode::Summary => {
            headers.extend(spec.effective_metrics().iter().map(|m| m.header().to_string()));
        }
        ObserveMode::Trajectory => {
            if spec.trials > 1 {
                headers.push("trial".to_string());
            }
            headers.extend(TRAJECTORY_HEADERS.iter().map(|h| h.to_string()));
            if tracks_population(spec) {
                headers.push("population".to_string());
            }
        }
        ObserveMode::Phases => {
            headers.extend(PHASES_HEADERS.iter().map(|h| h.to_string()));
        }
    }
    headers
}

/// True when trajectory rows should carry the live per-phase `population`
/// column: some grid point churns the population, so the node count is no
/// longer a constant of the run.
pub(crate) fn tracks_population(spec: &ScenarioSpec) -> bool {
    spec.observe == ObserveMode::Trajectory
        && (spec.churn.has_population_churn()
            || spec.sweep.churn.iter().any(|c| c.has_population_churn()))
}

/// The swept-axis cells of one grid point, in axis order. Together with
/// [`headers`] and [`point_rows`] this lets external drivers (the scenario
/// service's sweep-cell cache) re-render a point's rows byte-identically
/// to the streaming path.
pub fn axis_cells(spec: &ScenarioSpec, point: &GridPoint) -> Vec<String> {
    let mut cells = Vec::new();
    let axes = axis_columns(spec);
    if axes[0].1 {
        cells.push(point.k.to_string());
    }
    if axes[1].1 {
        cells.push(point.n.to_string());
    }
    if axes[2].1 {
        cells.push(format!("{}", point.eps));
    }
    if axes[3].1 {
        cells.push(format!("{:.4}", point.bias.unwrap_or(f64::NAN)));
    }
    if axes[4].1 {
        cells.push(point.ell.map_or_else(|| "-".to_string(), |e| e.to_string()));
    }
    if axes[5].1 {
        cells.push(point.delta.map_or_else(|| "-".to_string(), |d| format!("{d}")));
    }
    if axes[6].1 {
        cells.push(point.delivery.spec_name().to_string());
    }
    if axes[7].1 {
        cells.push(point.topology.to_string());
    }
    if axes[8].1 {
        cells.push(point.fault.to_string());
    }
    if axes[9].1 {
        cells.push(point.churn.to_string());
    }
    if axes[10].1 {
        cells.push(point.schedule.to_string());
    }
    if axes[11].1 {
        cells.push(point.clock.to_string());
    }
    cells
}

/// All result rows of one executed point (one row for summaries, one per
/// phase/trial for the observe modes), each prefixed with the point's
/// swept-axis cells.
pub fn point_rows(spec: &ScenarioSpec, result: &PointResult) -> Vec<Vec<String>> {
    let prefix = axis_cells(spec, &result.point);
    let with_prefix = |row: Vec<String>| -> Vec<String> {
        let mut cells = prefix.clone();
        cells.extend(row);
        cells
    };
    match &result.summary {
        PointSummary::Trajectory(set) => {
            let population = tracks_population(spec);
            let mut rows = Vec::new();
            for (trial, recorder) in set.trials.iter().enumerate() {
                for (mut row, snapshot) in
                    recorder.rows().into_iter().zip(recorder.snapshots())
                {
                    if population {
                        row.push(snapshot.distribution().num_nodes().to_string());
                    }
                    if spec.trials > 1 {
                        row.insert(0, trial.to_string());
                    }
                    rows.push(with_prefix(row));
                }
            }
            rows
        }
        PointSummary::Phases(stats) => stats
            .to_table()
            .rows()
            .iter()
            .map(|row| with_prefix(row.clone()))
            .collect(),
        _ => {
            let metrics = spec.effective_metrics();
            vec![with_prefix(
                metrics.iter().map(|&m| format_metric(m, result)).collect(),
            )]
        }
    }
}

/// Renders one metric cell for one executed point.
fn format_metric(metric: Metric, result: &PointResult) -> String {
    let point = &result.point;
    let mean_or_dash = |stats: &SampleStats, render: &dyn Fn(f64) -> String| {
        if stats.is_empty() {
            "-".to_string()
        } else {
            render(stats.mean())
        }
    };
    match &result.summary {
        PointSummary::Protocol(s) => match metric {
            Metric::Success => s.success.to_string(),
            Metric::Rounds => format!("{:.0}", s.rounds.mean()),
            Metric::RoundsNorm => {
                format!("{:.2}", s.rounds.mean() / bounds::rounds_bound(point.n, point.eps))
            }
            Metric::Messages => format!("{:.2e}", s.messages.mean()),
            Metric::Stage1Bias => mean_or_dash(&s.stage1_bias, &|m| format!("{m:.4}")),
            Metric::Stage1BiasNorm => {
                let threshold = ((point.n as f64).ln() / point.n as f64).sqrt();
                mean_or_dash(&s.stage1_bias, &|m| format!("{:.2}", m / threshold))
            }
            Metric::MemoryBits => format!("{:.1}", s.memory_bits.mean()),
            Metric::Consensus => s.consensus.to_string(),
            Metric::Correct => s.correct.to_string(),
            Metric::Share => format!("{:.3}", s.share.mean()),
            // validate() restricts metrics per kind.
            other => unreachable!("metric {other} on a protocol scenario"),
        },
        PointSummary::Dynamics(s) => match metric {
            Metric::Consensus => s.consensus.to_string(),
            Metric::Correct => s.correct.to_string(),
            Metric::Share => format!("{:.3}", s.share.mean()),
            Metric::Rounds => format!("{:.0}", s.rounds.mean()),
            other => unreachable!("metric {other} on a dynamics scenario"),
        },
        PointSummary::Gap(s) => match metric {
            Metric::Gap => format!("{:.4}", s.measured),
            Metric::GapBound => format!("{:.4}", s.bound),
            Metric::GapExact => format!("{:.4}", s.exact),
            Metric::GapHolds => s.holds.to_string(),
            other => unreachable!("metric {other} on a gap scenario"),
        },
        PointSummary::PhaseStats(s) => match metric {
            Metric::TotalReceived => {
                format!("{:.0} ± {:.0}", s.total.mean(), s.total.ci95_half_width())
            }
            Metric::MeanReceived => format!("{:.3}", s.mean_received.mean()),
            Metric::VarReceived => format!("{:.3}", s.var_received.mean()),
            Metric::FracReceived => format!("{:.4}", s.frac_received.mean()),
            Metric::Adopt0 => format!("{:.4}", s.adopt0.mean()),
            other => unreachable!("metric {other} on a phase scenario"),
        },
        PointSummary::Trajectory(_) | PointSummary::Phases(_) => {
            unreachable!("observe modes render rows, not metric cells")
        }
    }
}

/// How a protocol point runs (shared by the summary and observed paths,
/// and by the campaign engine's per-seed runs).
#[derive(Clone, Copy)]
pub(crate) enum ProtocolRun<'a> {
    Rumor(Opinion),
    Plurality(&'a [usize]),
    Stage2(&'a [usize]),
}

impl ProtocolRun<'_> {
    pub(crate) fn execute(
        self,
        protocol: &TwoStageProtocol,
        backend: ExecutionBackend,
        stop: &StopCondition,
        observer: &mut dyn Observer,
    ) -> Result<plurality_core::Outcome, plurality_core::ProtocolError> {
        let session = protocol.session().stop_when(stop.clone());
        match self {
            ProtocolRun::Rumor(source) => {
                session.run_rumor_spreading_on(backend, source, observer)
            }
            ProtocolRun::Plurality(counts) => {
                session.run_plurality_consensus_on(backend, counts, observer)
            }
            ProtocolRun::Stage2(counts) => {
                session.run_stage2_only_on(backend, counts, observer)
            }
        }
    }
}

/// Executes a validated [`ScenarioSpec`].
#[derive(Debug, Clone)]
pub struct Runner {
    spec: ScenarioSpec,
}

impl Runner {
    /// Validates the spec and prepares a runner for it.
    ///
    /// # Errors
    ///
    /// Returns the spec's [`validate`](ScenarioSpec::validate) error.
    pub fn new(spec: ScenarioSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        Ok(Self { spec })
    }

    /// The spec this runner executes.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The header row of this runner's result table.
    pub fn headers(&self) -> Vec<String> {
        headers(&self.spec)
    }

    /// Executes every grid point and returns the structured report.
    ///
    /// # Errors
    ///
    /// Propagates parameter/noise/simulator construction failures for the
    /// offending grid point ([`SpecError::Protocol`], [`SpecError::Noise`],
    /// [`SpecError::Sim`]).
    pub fn run(&self) -> Result<RunReport, SpecError> {
        self.run_inner(None::<&mut std::io::Sink>)
    }

    /// Executes the spec, emitting every result row to `out` as a JSON
    /// line the moment it exists: per completed grid point for summary
    /// runs, live per finished phase for trajectory runs (a
    /// [`StreamSink`] rides along the execution). The rows are exactly
    /// [`RunReport::to_table`]'s rows, so `--stream` output and the final
    /// table are byte-compatible; the full report is still returned.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run); write errors on `out` are ignored (the
    /// run completes and the report is still built).
    pub fn run_streamed(&self, out: &mut dyn Write) -> Result<RunReport, SpecError> {
        self.run_inner(Some(out))
    }

    fn run_inner<W: Write + ?Sized>(
        &self,
        mut stream: Option<&mut W>,
    ) -> Result<RunReport, SpecError> {
        let spec = &self.spec;
        let mut points = Vec::new();
        for point in expand_grid(spec) {
            let summary = self.run_point(point, stream.as_deref_mut())?;
            let result = PointResult { point, summary };
            if let Some(out) = stream.as_mut() {
                // Trajectory rows already streamed live from inside the run.
                if spec.observe != ObserveMode::Trajectory {
                    emit_rows(out, spec, &result);
                }
            }
            points.push(result);
        }
        Ok(RunReport {
            spec: spec.clone(),
            points,
        })
    }

    fn run_point<W: Write + ?Sized>(
        &self,
        point: GridPoint,
        stream: Option<&mut W>,
    ) -> Result<PointSummary, SpecError> {
        let spec = &self.spec;

        // The below-simulation-level kinds first: no protocol parameters,
        // no noise matrix.
        if let ScenarioKind::SampleMajorityGap { .. } = &spec.kind {
            return Ok(PointSummary::Gap(self.gap_point(point)));
        }

        let params = cell_params(spec, &point, spec.seed)?;
        let noise = cell_noise(spec, &point).build(point.k)?;

        if let ScenarioKind::PhaseStats { rounds, init } = &spec.kind {
            let counts = resolve_counts(init, point);
            return Ok(PointSummary::PhaseStats(
                self.phase_stats_point(point, *rounds, &counts, &noise)?,
            ));
        }

        match spec.observe {
            ObserveMode::Summary => self.summary_point(point, &params, &noise),
            ObserveMode::Trajectory | ObserveMode::Phases => {
                self.observed_point(point, &params, &noise, stream)
            }
        }
    }

    /// The default end-of-run summaries (one row per point).
    fn summary_point(
        &self,
        point: GridPoint,
        params: &ProtocolParams,
        noise: &NoiseMatrix,
    ) -> Result<PointSummary, SpecError> {
        let spec = &self.spec;
        let stop = spec.stop.to_condition();
        Ok(match &spec.kind {
            ScenarioKind::RumorSpreading { source } => PointSummary::Protocol(
                self.protocol_trials(
                    params,
                    noise,
                    &stop,
                    ProtocolRun::Rumor(Opinion::new(*source)),
                )?,
            ),
            ScenarioKind::PluralityConsensus { init } => {
                let counts = resolve_counts(init, point);
                validate_counts(params, noise, &counts)?;
                PointSummary::Protocol(self.protocol_trials(
                    params,
                    noise,
                    &stop,
                    ProtocolRun::Plurality(&counts),
                )?)
            }
            ScenarioKind::Stage2Only { init } => {
                let counts = resolve_counts(init, point);
                validate_counts(params, noise, &counts)?;
                PointSummary::Protocol(self.protocol_trials(
                    params,
                    noise,
                    &stop,
                    ProtocolRun::Stage2(&counts),
                )?)
            }
            ScenarioKind::DynamicsRule { rule, init, rounds } => {
                let counts = resolve_counts(init, point);
                let plurality = validate_counts(params, noise, &counts)?;
                let budget = rounds.unwrap_or_else(|| params.schedule().total_rounds());
                PointSummary::Dynamics(self.dynamics_trials(
                    point, *rule, &counts, plurality, budget, noise,
                )?)
            }
            ScenarioKind::SampleMajorityGap { .. } | ScenarioKind::PhaseStats { .. } => {
                unreachable!("handled before parameter construction")
            }
        })
    }

    /// Runs the protocol trials of one grid point through the shared
    /// parallel harness, with the spec's stop condition and no observer —
    /// bit-identical to the pre-observation harness when no `stop.*` key
    /// is set. A trial that fails to run surfaces as a typed error.
    fn protocol_trials(
        &self,
        params: &ProtocolParams,
        noise: &NoiseMatrix,
        stop: &StopCondition,
        run: ProtocolRun<'_>,
    ) -> Result<TrialSummary, SpecError> {
        let backend = self.spec.backend;
        Ok(run_trials(params, noise, self.spec.trials, |protocol| {
            run.execute(protocol, backend, stop, &mut NoObserver)
        })?)
    }

    /// Runs the observed (trajectory / per-phase aggregate) path of one
    /// protocol or dynamics point: sequential trials, one observer per
    /// trial (trajectory) or shared across trials (phases), optionally a
    /// live [`StreamSink`] riding along.
    fn observed_point<W: Write + ?Sized>(
        &self,
        point: GridPoint,
        params: &ProtocolParams,
        noise: &NoiseMatrix,
        mut stream: Option<&mut W>,
    ) -> Result<PointSummary, SpecError> {
        let spec = &self.spec;
        let stop = spec.stop.to_condition();
        let mut trajectories: Vec<TrajectoryRecorder> = Vec::new();
        let mut aggregates = OnlineStats::new();

        for trial in 0..spec.trials {
            let mut recorder = TrajectoryRecorder::new();
            // Only trajectory mode streams live per-phase rows (they ARE
            // its result rows); phase aggregates only exist once the
            // point's trials are done and stream from `run_inner` then.
            let live = spec.observe == ObserveMode::Trajectory;
            let mut sink = stream.as_mut().filter(|_| live).map(|out| {
                let (mut prefix_headers, mut prefix) =
                    (Vec::new(), axis_cells(spec, &point));
                for (name, shown) in axis_columns(spec) {
                    if shown {
                        prefix_headers.push(name.to_string());
                    }
                }
                if spec.trials > 1 {
                    prefix_headers.push("trial".to_string());
                    prefix.push(trial.to_string());
                }
                let sink = StreamSink::with_prefix(out, &prefix_headers, &prefix);
                if tracks_population(spec) {
                    sink.with_population()
                } else {
                    sink
                }
            });

            {
                let mut observers: Vec<&mut dyn Observer> = Vec::new();
                match spec.observe {
                    ObserveMode::Trajectory => observers.push(&mut recorder),
                    ObserveMode::Phases => observers.push(&mut aggregates),
                    ObserveMode::Summary => unreachable!("summary points take the other path"),
                }
                if let Some(sink) = sink.as_mut() {
                    observers.push(sink);
                }
                let mut fanout = Fanout::new(observers);
                self.run_one_observed(point, params, noise, trial, &stop, &mut fanout)?;
            }
            if spec.observe == ObserveMode::Trajectory {
                trajectories.push(recorder);
            }
        }
        Ok(match spec.observe {
            ObserveMode::Trajectory => PointSummary::Trajectory(TrajectorySet {
                trials: trajectories,
            }),
            ObserveMode::Phases => PointSummary::Phases(aggregates),
            ObserveMode::Summary => unreachable!("summary points take the other path"),
        })
    }

    /// Executes one observed trial (protocol kinds through a [`Session`],
    /// dynamics through `run_until`), seeded exactly like the
    /// unobserved paths.
    ///
    /// [`Session`]: plurality_core::Session
    fn run_one_observed(
        &self,
        point: GridPoint,
        params: &ProtocolParams,
        noise: &NoiseMatrix,
        trial: u64,
        stop: &StopCondition,
        observer: &mut dyn Observer,
    ) -> Result<(), SpecError> {
        let spec = &self.spec;
        match &spec.kind {
            ScenarioKind::RumorSpreading { .. }
            | ScenarioKind::PluralityConsensus { .. }
            | ScenarioKind::Stage2Only { .. } => {
                // Same per-trial seed derivation as the parallel harness.
                let seeded = crate::reseed(params, params.seed().wrapping_add(trial));
                let protocol = TwoStageProtocol::new(seeded, noise.clone())?;
                let counts;
                let run = match &spec.kind {
                    ScenarioKind::RumorSpreading { source } => {
                        ProtocolRun::Rumor(Opinion::new(*source))
                    }
                    ScenarioKind::PluralityConsensus { init } => {
                        counts = resolve_counts(init, point);
                        ProtocolRun::Plurality(&counts)
                    }
                    ScenarioKind::Stage2Only { init } => {
                        counts = resolve_counts(init, point);
                        ProtocolRun::Stage2(&counts)
                    }
                    _ => unreachable!("outer match covers protocol kinds"),
                };
                run.execute(&protocol, spec.backend, stop, observer)?;
                Ok(())
            }
            ScenarioKind::DynamicsRule { rule, init, rounds } => {
                let counts = resolve_counts(init, point);
                let plurality = validate_counts(params, noise, &counts)?;
                let budget = rounds.unwrap_or_else(|| params.schedule().total_rounds());
                let stop = dynamics_stop(budget, stop);
                self.dynamics_trial(
                    point, *rule, &counts, plurality, noise, trial, &stop, observer,
                )?;
                Ok(())
            }
            ScenarioKind::SampleMajorityGap { .. } | ScenarioKind::PhaseStats { .. } => {
                unreachable!("observe modes are rejected for these kinds")
            }
        }
    }

    /// The Monte-Carlo sample-majority gap of one `(k, ℓ, δ)` grid cell
    /// (Proposition 1 / Lemmas 9–11), beside the exact gap from the
    /// sample-majority law. `spec.trials` is the number of Monte-Carlo
    /// samples; each cell derives its own RNG from the base seed, so cells
    /// are independent of grid shape and order.
    fn gap_point(&self, point: GridPoint) -> GapSummary {
        let spec = &self.spec;
        let ell = point.ell.expect("gap points carry ell");
        let delta = point.delta.expect("gap points carry delta");
        let trials = spec.trials;
        let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, point.index, 0));
        let dist = biased_received_distribution(point.k, delta);
        let measured = bounds::sample_majority_gap(&dist, ell, 0, 1, trials, &mut rng);
        let bound = bounds::proposition1_lower_bound(delta, ell, point.k);
        let law = majority_pmf(ell, &dist);
        let exact = law[0] - law[1];
        // Allow the Monte-Carlo noise floor when comparing.
        let holds = measured >= bound - 3.0 / (trials as f64).sqrt();
        GapSummary {
            measured,
            bound,
            exact,
            holds,
        }
    }

    /// One pushed phase per trial on the agent-level backend, reporting
    /// the phase observation's statistics plus the Stage 1 adoption probe
    /// (experiment F8: Claim 1 / Lemma 3 across processes O, B, P). Always
    /// agent-level: the per-node moments only exist there.
    fn phase_stats_point(
        &self,
        point: GridPoint,
        rounds: u64,
        counts: &[usize],
        noise: &NoiseMatrix,
    ) -> Result<PhaseStatsSummary, SpecError> {
        let spec = &self.spec;
        let mut summary = PhaseStatsSummary {
            total: SampleStats::new(),
            mean_received: SampleStats::new(),
            var_received: SampleStats::new(),
            frac_received: SampleStats::new(),
            adopt0: SampleStats::new(),
        };
        for trial in 0..spec.trials {
            let config = SimConfig::builder(point.n, point.k)
                .seed(derive_seed(spec.seed, point.index, trial))
                .delivery(point.delivery)
                .topology(point.topology)
                .build()?;
            let mut net = Network::new(config, noise.clone())?;
            net.seed_counts(counts)?;
            net.begin_phase();
            for _ in 0..rounds {
                net.push_round(|_, s| s.opinion());
            }
            let inboxes = net.end_phase();
            summary.total.push(inboxes.total_received() as f64);
            summary.mean_received.push(inboxes.mean_received());
            summary.var_received.push(inboxes.received_variance());
            summary.frac_received.push(inboxes.fraction_with_messages());

            // The Stage 1 adoption rule applied as a probe: how many nodes
            // would adopt opinion 0 if they re-sampled one received
            // message (independent RNG, so delivery streams stay pure).
            let mut rng = StdRng::seed_from_u64(derive_seed(
                spec.seed ^ ADOPTION_SEED_SALT,
                point.index,
                trial,
            ));
            let adopted0 = (0..point.n)
                .filter(|&node| {
                    inboxes
                        .sample_one(node, &mut rng)
                        .map(|o| o.index() == 0)
                        .unwrap_or(false)
                })
                .count();
            summary.adopt0.push(adopted0 as f64 / point.n as f64);
        }
        Ok(summary)
    }

    /// Runs the dynamics rule for every trial of one grid point. Each
    /// `(point, trial)` cell derives its delivery and decision seeds from
    /// the base seed, so results are a pure function of the spec.
    fn dynamics_trials(
        &self,
        point: GridPoint,
        rule: RuleSpec,
        counts: &[usize],
        plurality: Opinion,
        budget: u64,
        noise: &NoiseMatrix,
    ) -> Result<DynamicsSummary, SpecError> {
        let spec = &self.spec;
        let stop = dynamics_stop(budget, &spec.stop.to_condition());

        let mut consensus = 0u64;
        let mut correct = 0u64;
        let mut share = SampleStats::new();
        let mut rounds = SampleStats::new();
        for trial in 0..spec.trials {
            let outcome = self.dynamics_trial(
                point,
                rule,
                counts,
                plurality,
                noise,
                trial,
                &stop,
                &mut NoObserver,
            )?;
            if outcome.converged() {
                consensus += 1;
            }
            if outcome.winner() == Some(plurality) {
                correct += 1;
            }
            let dist = outcome.final_distribution();
            share.push(dist.counts()[plurality.index()] as f64 / dist.num_nodes() as f64);
            rounds.push(outcome.rounds() as f64);
        }
        Ok(DynamicsSummary {
            consensus: WilsonInterval::from_trials(consensus, spec.trials),
            correct: WilsonInterval::from_trials(correct, spec.trials),
            share,
            rounds,
        })
    }

    /// Runs one dynamics trial of `point` on the backend the spec
    /// resolves to. The `(point, trial)` cell derives its delivery and
    /// decision seeds from the base seed, so observed and unobserved runs
    /// of the same cell are identical.
    // The cell's coordinates plus the run's inputs; the two callers hold
    // them as separate locals, so a bundle struct would only move the list.
    #[allow(clippy::too_many_arguments)]
    fn dynamics_trial(
        &self,
        point: GridPoint,
        rule: RuleSpec,
        counts: &[usize],
        plurality: Opinion,
        noise: &NoiseMatrix,
        trial: u64,
        stop: &StopCondition,
        observer: &mut dyn Observer,
    ) -> Result<DynamicsOutcome, SpecError> {
        let spec = &self.spec;
        let config = SimConfig::builder(point.n, point.k)
            .seed(derive_seed(spec.seed, point.index, trial))
            .delivery(spec.delivery)
            .topology(point.topology)
            .build()?;
        let mut rng = StdRng::seed_from_u64(derive_seed(
            spec.seed ^ DECISION_SEED_SALT,
            point.index,
            trial,
        ));
        fn run<B: PushBackend>(
            mut net: B,
            rule: RuleSpec,
            counts: &[usize],
            rng: &mut StdRng,
            plurality: Opinion,
            stop: &StopCondition,
            observer: &mut dyn Observer,
        ) -> Result<DynamicsOutcome, SpecError> {
            net.seed_counts(counts)?;
            Ok(rule
                .build::<B>()
                .run_until(&mut net, rng, Some(plurality), stop, observer))
        }
        match spec.backend.resolve(&config) {
            ExecutionBackend::Agent => {
                let net = Network::new(config, noise.clone())?;
                run(net, rule, counts, &mut rng, plurality, stop, observer)
            }
            ExecutionBackend::Counting => {
                let net = CountingNetwork::new(config, noise.clone())?;
                run(net, rule, counts, &mut rng, plurality, stop, observer)
            }
            ExecutionBackend::Auto => unreachable!("resolve never returns Auto"),
        }
    }
}

/// The dynamics' effective stop condition: the round budget and consensus
/// (the classic behavior) plus whatever the spec's `stop.*` keys add.
fn dynamics_stop(budget: u64, extra: &StopCondition) -> StopCondition {
    let mut conditions = vec![
        StopCondition::MaxRounds(budget),
        StopCondition::ConsensusReached,
    ];
    if *extra != StopCondition::ScheduleExhausted {
        conditions.push(extra.clone());
    }
    StopCondition::Any(conditions)
}

/// Streams all rows of one completed point as JSON lines (ignoring write
/// errors: streaming is best-effort, the report is the source of truth).
fn emit_rows<W: Write + ?Sized>(out: &mut W, spec: &ScenarioSpec, result: &PointResult) {
    let headers = headers(spec);
    for row in point_rows(spec, result) {
        let _ = writeln!(out, "{}", json_line(&headers, &row));
    }
    let _ = out.flush();
}

/// The values a run uses along one axis: the swept values, or the base
/// value when the axis is not swept.
pub(crate) fn axis<'a, T>(swept: &'a [T], base: &'a T) -> &'a [T] {
    if swept.is_empty() {
        std::slice::from_ref(base)
    } else {
        swept
    }
}

/// [`axis`] for the axes whose base value may be absent (`bias`, `ell`,
/// `delta`), without allocating.
fn optional_axis<T: Copy>(swept: &[T], base: Option<T>) -> impl Iterator<Item = Option<T>> + '_ {
    (0..swept.len().max(1)).map(move |i| swept.get(i).copied().or(base))
}

/// Expands a spec's sweep axes into the full grid (Cartesian product, axis
/// order `k`, `n`, `eps`, `bias`, `ell`, `delta`, `delivery`, `topology`,
/// `fault`, `churn`, `schedule`, `clock`). Shared by the [`Runner`] and
/// the campaign engine, so a
/// campaign cell index addresses exactly the point the plain runner would
/// execute at that index (and the scenario service's per-cell cache keys
/// address exactly these points).
pub fn expand_grid(spec: &ScenarioSpec) -> Vec<GridPoint> {
    let ks = axis(&spec.sweep.k, &spec.k);
    let ns = axis(&spec.sweep.n, &spec.n);
    let epss = axis(&spec.sweep.eps, &spec.epsilon);
    let base_bias = match spec.kind.init() {
        Some(InitSpec::Biased { bias }) => Some(*bias),
        _ => None,
    };
    let (base_ell, base_delta) = match spec.kind {
        ScenarioKind::SampleMajorityGap { ell, delta } => (Some(ell), Some(delta)),
        _ => (None, None),
    };
    let deliveries = axis(&spec.sweep.delivery, &spec.delivery);
    let topologies = axis(&spec.sweep.topology, &spec.topology);
    let faults = axis(&spec.sweep.fault, &spec.fault);
    let churns = axis(&spec.sweep.churn, &spec.churn);
    let schedules = axis(&spec.sweep.schedule, &spec.schedule);
    let clocks = axis(&spec.sweep.clock, &spec.clock);

    let mut points = Vec::with_capacity(spec.sweep.num_points());
    let mut index = 0usize;
    for &k in ks {
        for &n in ns {
            for &eps in epss {
                for bias in optional_axis(&spec.sweep.bias, base_bias) {
                    for ell in optional_axis(&spec.sweep.ell, base_ell) {
                        for delta in optional_axis(&spec.sweep.delta, base_delta) {
                            for &delivery in deliveries {
                                for &topology in topologies {
                                    for &fault in faults {
                                        for &churn in churns {
                                            for &schedule in schedules {
                                                for &clock in clocks {
                                                    points.push(GridPoint {
                                                        index,
                                                        k,
                                                        n,
                                                        eps,
                                                        bias,
                                                        ell,
                                                        delta,
                                                        delivery,
                                                        topology,
                                                        fault,
                                                        churn,
                                                        schedule,
                                                        clock,
                                                    });
                                                    index += 1;
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    points
}

/// Protocol parameters of one grid cell at one seed: the single place a
/// spec and a [`GridPoint`] map onto [`ProtocolParams`], shared by the
/// runner, the campaign engine and [`ScenarioSpec::validate`].
///
/// # Errors
///
/// [`SpecError::Protocol`] if the cell's parameters are out of range.
pub fn cell_params(
    spec: &ScenarioSpec,
    point: &GridPoint,
    seed: u64,
) -> Result<ProtocolParams, SpecError> {
    Ok(ProtocolParams::builder(point.n, point.k)
        .epsilon(point.eps)
        .seed(seed)
        .delivery(point.delivery)
        .topology(point.topology)
        .fault(point.fault)
        .churn(point.churn)
        .noise_schedule(point.schedule)
        .clock(point.clock)
        .constants(spec.constants)
        .build()?)
}

/// The noise family of one grid cell: the spec's, re-parameterized by the
/// cell's ε when ε is swept. Shared by the runner, the campaign engine,
/// the scenario service and [`ScenarioSpec::validate`].
pub fn cell_noise(spec: &ScenarioSpec, point: &GridPoint) -> NoiseSpec {
    if spec.sweep.eps.is_empty() {
        spec.noise.clone()
    } else {
        spec.noise.with_epsilon(point.eps)
    }
}

/// A short human label of one cell ("k=3 fault=drop(0.2)", or "cell 0"
/// when nothing is swept).
pub(crate) fn cell_label(spec: &ScenarioSpec, point: &GridPoint) -> String {
    let cells = axis_cells(spec, point);
    let names: Vec<&str> = axis_columns(spec)
        .iter()
        .filter(|(_, shown)| *shown)
        .map(|(name, _)| *name)
        .collect();
    if names.is_empty() {
        return format!("cell {}", point.index);
    }
    names
        .iter()
        .zip(&cells)
        .map(|(name, value)| format!("{name}={value}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Surfaces the protocol's own initial-counts validation as a recoverable
/// [`SpecError`] *before* entering the trial harness (whose entry points
/// treat invalid counts as a harness programming error and panic), and
/// returns the validated unique plurality opinion.
fn validate_counts(
    params: &ProtocolParams,
    noise: &NoiseMatrix,
    counts: &[usize],
) -> Result<Opinion, SpecError> {
    let protocol = TwoStageProtocol::new(params.clone(), noise.clone())?;
    Ok(protocol.validate_initial_counts(counts)?)
}

/// Materializes the initial counts of one grid point ([`InitSpec::Biased`]
/// uses the point's bias, which the bias axis may have overridden).
pub(crate) fn resolve_counts(init: &InitSpec, point: GridPoint) -> Vec<usize> {
    match init {
        InitSpec::Biased { bias } => {
            biased_counts(point.n, point.k, point.bias.unwrap_or(*bias))
        }
        InitSpec::Counts(counts) => counts.clone(),
    }
}

/// A δ-biased received distribution over `k` opinions: opinion 0 gets
/// `1/k + δ(k−1)/k`, every other opinion `1/k − δ/k`, so that the gap
/// between opinion 0 and any rival is exactly δ (the configuration
/// Proposition 1 is stated for).
fn biased_received_distribution(k: usize, delta: f64) -> Vec<f64> {
    let base = 1.0 / k as f64;
    let mut dist = vec![base - delta / k as f64; k];
    dist[0] = base + delta * (k as f64 - 1.0) / k as f64;
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{InitSpec, Metric, ScenarioKind, ScenarioSpec, StopSpec};
    use noisy_channel::NoiseSpec;

    fn quick_spec(kind: ScenarioKind) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(kind, 400, 2);
        spec.epsilon = 0.3;
        spec.noise = NoiseSpec::Uniform { epsilon: 0.3 };
        spec.trials = 2;
        spec.seed = 11;
        spec
    }

    #[test]
    fn single_point_rumor_run_reports_one_row() {
        let spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        let report = Runner::new(spec).unwrap().run().unwrap();
        assert_eq!(report.points().len(), 1);
        let PointSummary::Protocol(summary) = &report.points()[0].summary else {
            panic!("rumor scenarios produce protocol summaries");
        };
        assert_eq!(summary.success.trials(), 2);
        let table = report.to_table();
        // No swept axis: only the four default metric columns.
        assert_eq!(table.headers().len(), 4);
        assert_eq!(table.num_rows(), 1);
    }

    #[test]
    fn sweeps_expand_to_the_cartesian_product_in_axis_order() {
        let mut spec = quick_spec(ScenarioKind::PluralityConsensus {
            init: InitSpec::Biased { bias: 0.2 },
        });
        spec.sweep.k = vec![2, 3];
        spec.sweep.bias = vec![0.1, 0.3];
        spec.metrics = vec![Metric::Success];
        let report = Runner::new(spec).unwrap().run().unwrap();
        assert_eq!(report.points().len(), 4);
        let points: Vec<(usize, f64)> = report
            .points()
            .iter()
            .map(|p| (p.point.k, p.point.bias.unwrap()))
            .collect();
        assert_eq!(points, vec![(2, 0.1), (2, 0.3), (3, 0.1), (3, 0.3)]);
        let table = report.to_table();
        assert_eq!(
            table.headers(),
            &["k".to_string(), "bias".to_string(), "success".to_string()]
        );
        assert_eq!(table.rows()[1][1], "0.3000");
    }

    #[test]
    fn runs_are_deterministic_in_the_spec() {
        let mut spec = quick_spec(ScenarioKind::DynamicsRule {
            rule: opinion_dynamics::RuleSpec::ThreeMajority,
            init: InitSpec::Biased { bias: 0.3 },
            rounds: Some(300),
        });
        spec.backend = ExecutionBackend::Agent;
        let a = Runner::new(spec.clone()).unwrap().run().unwrap().to_table();
        let b = Runner::new(spec).unwrap().run().unwrap().to_table();
        assert_eq!(a, b);
    }

    #[test]
    fn dynamics_run_on_both_backends() {
        for backend in [ExecutionBackend::Agent, ExecutionBackend::Counting] {
            let mut spec = quick_spec(ScenarioKind::DynamicsRule {
                rule: opinion_dynamics::RuleSpec::Voter,
                init: InitSpec::Counts(vec![300, 100]),
                rounds: Some(200),
            });
            spec.backend = backend;
            if backend == ExecutionBackend::Counting {
                spec.delivery = pushsim::DeliverySemantics::Poissonized;
            }
            let report = Runner::new(spec).unwrap().run().unwrap();
            let PointSummary::Dynamics(summary) = &report.points()[0].summary else {
                panic!("dynamics scenarios produce dynamics summaries");
            };
            assert_eq!(summary.share.len(), 2);
        }
    }

    #[test]
    fn stage2_only_scenarios_run() {
        let spec = quick_spec(ScenarioKind::Stage2Only {
            init: InitSpec::Biased { bias: 0.3 },
        });
        let report = Runner::new(spec).unwrap().run().unwrap();
        let PointSummary::Protocol(summary) = &report.points()[0].summary else {
            panic!("stage2 scenarios produce protocol summaries");
        };
        assert_eq!(summary.rounds.len(), 2);
        // Stage 2 alone has no stage-1 records, so the bias stats are empty
        // and the metric renders as "-".
        assert_eq!(summary.stage1_bias.len(), 0);
    }

    #[test]
    fn invalid_counts_surface_as_spec_errors_not_panics() {
        // Tied counts are rejected statically (the reference plurality
        // would be arbitrary).
        let spec = quick_spec(ScenarioKind::PluralityConsensus {
            init: InitSpec::Counts(vec![100, 100]),
        });
        assert!(matches!(
            Runner::new(spec),
            Err(crate::spec::SpecError::Invalid(_))
        ));

        // Counts that violate the protocol's n-dependent rules are
        // rejected per cell at validation, before anything runs.
        for kind in [
            ScenarioKind::PluralityConsensus {
                init: InitSpec::Counts(vec![900, 100]),
            },
            ScenarioKind::Stage2Only {
                init: InitSpec::Counts(vec![900, 100]),
            },
            ScenarioKind::DynamicsRule {
                rule: opinion_dynamics::RuleSpec::Voter,
                init: InitSpec::Counts(vec![900, 100]),
                rounds: Some(10),
            },
        ] {
            let spec = quick_spec(kind); // n = 400 < 900 + 100
            let result = Runner::new(spec);
            assert!(
                matches!(
                    &result,
                    Err(crate::spec::SpecError::Invalid(e)) if e.contains("counts sum to 1000")
                ),
                "oversized counts must fail cleanly at validation, got {:?}",
                result.err()
            );
        }
    }

    #[test]
    fn eps_sweep_reparameterizes_eps_noise_families() {
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.sweep.eps = vec![0.2, 0.4];
        let report = Runner::new(spec).unwrap().run().unwrap();
        assert_eq!(report.points().len(), 2);
        // Higher eps => cleaner channel => no more rounds than the noisier
        // point (the schedule is shorter).
        let rounds: Vec<f64> = report
            .points()
            .iter()
            .map(|p| match &p.summary {
                PointSummary::Protocol(s) => s.rounds.mean(),
                _ => unreachable!(),
            })
            .collect();
        assert!(rounds[0] > rounds[1]);
    }

    #[test]
    fn gap_scenarios_sweep_k_ell_delta_and_check_the_bound() {
        let mut spec = quick_spec(ScenarioKind::SampleMajorityGap {
            ell: 25,
            delta: 0.1,
        });
        spec.trials = 20_000;
        spec.sweep.k = vec![2, 3];
        spec.sweep.ell = vec![9, 25];
        spec.sweep.delta = vec![0.05, 0.2];
        let report = Runner::new(spec).unwrap().run().unwrap();
        assert_eq!(report.points().len(), 8);
        for point in report.points() {
            let PointSummary::Gap(gap) = &point.summary else {
                panic!("gap scenarios produce gap summaries");
            };
            assert!(gap.holds, "Proposition 1 must hold at {:?}", point.point);
            assert!(
                (gap.measured - gap.exact).abs() < 0.05,
                "Monte-Carlo ({}) far from exact ({})",
                gap.measured,
                gap.exact
            );
        }
        let table = report.to_table();
        assert_eq!(table.headers()[..3], ["k", "ell", "delta"].map(String::from));
        assert_eq!(table.num_rows(), 8);
    }

    #[test]
    fn phase_scenarios_sweep_the_delivery_process() {
        let mut spec = quick_spec(ScenarioKind::PhaseStats {
            rounds: 5,
            init: InitSpec::Counts(vec![200, 100]),
        });
        spec.trials = 3;
        spec.sweep.delivery = DeliverySemantics::ALL.to_vec();
        let report = Runner::new(spec).unwrap().run().unwrap();
        assert_eq!(report.points().len(), 3);
        for point in report.points() {
            let PointSummary::PhaseStats(stats) = &point.summary else {
                panic!("phase scenarios produce phase summaries");
            };
            assert_eq!(stats.total.len(), 3);
            // 5 rounds × 300 pushers per trial for processes O and B; the
            // Poissonized totals fluctuate around it.
            assert!(stats.total.mean() > 1_000.0);
            let frac = stats.frac_received.mean();
            assert!((0.0..=1.0).contains(&frac) && frac > 0.5);
            let adopt = stats.adopt0.mean();
            // Opinion 0 holds 2/3 of the pushers; noise pulls the adopters
            // towards it but not all the way.
            assert!(adopt > 0.4 && adopt < 0.9, "adopt0 = {adopt}");
        }
        let table = report.to_table();
        assert_eq!(table.headers()[0], "delivery");
        assert_eq!(table.rows()[0][0], "exact");
        assert_eq!(table.rows()[2][0], "poisson");
    }

    #[test]
    fn topology_sweeps_expand_and_label_their_rows() {
        let mut spec = quick_spec(ScenarioKind::PluralityConsensus {
            init: InitSpec::Biased { bias: 0.3 },
        });
        spec.n = 400;
        spec.metrics = vec![Metric::Success, Metric::Share];
        spec.sweep.topology = vec![
            TopologySpec::Complete,
            TopologySpec::Ring,
            TopologySpec::RandomRegular { degree: 8 },
        ];
        let report = Runner::new(spec).unwrap().run().unwrap();
        assert_eq!(report.points().len(), 3);
        let table = report.to_table();
        assert_eq!(
            table.headers(),
            &[
                "topology".to_string(),
                "success".to_string(),
                "mean plurality share".to_string()
            ]
        );
        assert_eq!(table.rows()[0][0], "complete");
        assert_eq!(table.rows()[1][0], "ring");
        assert_eq!(table.rows()[2][0], "regular(8)");
        for point in report.points() {
            let PointSummary::Protocol(summary) = &point.summary else {
                panic!("plurality scenarios produce protocol summaries");
            };
            assert_eq!(summary.success.trials(), 2);
        }
        // The complete-graph point behaves like a topology-free run of the
        // same spec (same seeds, same RNG streams).
        let mut plain = quick_spec(ScenarioKind::PluralityConsensus {
            init: InitSpec::Biased { bias: 0.3 },
        });
        plain.n = 400;
        plain.metrics = vec![Metric::Success, Metric::Share];
        let plain_report = Runner::new(plain).unwrap().run().unwrap();
        assert_eq!(
            plain_report.to_table().rows()[0],
            table.rows()[0][1..].to_vec(),
            "complete sweep point ≡ unswept run"
        );
    }

    #[test]
    fn trajectory_mode_with_a_topology_sweep_has_one_topology_column() {
        // The swept axis and the canonical trajectory column would
        // otherwise both emit a "topology" key — duplicate keys in one
        // JSON object break strict parsers.
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.trials = 1;
        spec.observe = ObserveMode::Trajectory;
        spec.sweep.topology = vec![TopologySpec::Complete, TopologySpec::Ring];
        let runner = Runner::new(spec).unwrap();
        let headers = runner.headers();
        assert_eq!(
            headers.iter().filter(|h| *h == "topology").count(),
            1,
            "exactly one topology column: {headers:?}"
        );
        let mut out = Vec::new();
        let report = runner.run_streamed(&mut out).unwrap();
        let streamed = String::from_utf8(out).unwrap();
        assert_eq!(streamed, report.to_table().to_json_lines());
        // Every streamed row has exactly one "topology" key, labelled by
        // its point's graph.
        for line in streamed.lines() {
            assert_eq!(line.matches("\"topology\":").count(), 1, "{line}");
        }
        let table = report.to_table();
        let col = table.column_index("topology").unwrap();
        let labels: std::collections::HashSet<&str> =
            table.rows().iter().map(|r| r[col].as_str()).collect();
        assert_eq!(
            labels,
            ["complete", "ring"].into_iter().collect(),
            "both sweep points appear, each with its own label"
        );
    }

    #[test]
    fn trajectory_rows_carry_the_topology_label() {
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.trials = 1;
        spec.topology = TopologySpec::RandomRegular { degree: 8 };
        spec.observe = ObserveMode::Trajectory;
        let report = Runner::new(spec).unwrap().run().unwrap();
        let table = report.to_table();
        let topology_col = table.column_index("topology").unwrap();
        assert!(table.num_rows() > 0);
        for row in table.rows() {
            assert_eq!(row[topology_col], "regular(8)");
        }
    }

    #[test]
    fn trajectory_mode_reports_per_phase_rows() {
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.trials = 1;
        spec.observe = ObserveMode::Trajectory;
        let report = Runner::new(spec).unwrap().run().unwrap();
        let PointSummary::Trajectory(set) = &report.points()[0].summary else {
            panic!("trajectory mode produces trajectory summaries");
        };
        assert_eq!(set.trials.len(), 1);
        assert!(!set.trials[0].is_empty());
        let table = report.to_table();
        assert_eq!(table.headers(), &TRAJECTORY_HEADERS.map(String::from));
        assert_eq!(table.num_rows(), set.trials[0].len());
        // Two trials add a trial column.
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.trials = 2;
        spec.observe = ObserveMode::Trajectory;
        let runner = Runner::new(spec).unwrap();
        assert_eq!(runner.headers()[0], "trial");
        let table = runner.run().unwrap().to_table();
        assert_eq!(table.rows()[0][0], "0");
    }

    #[test]
    fn phases_mode_aggregates_across_trials() {
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.trials = 3;
        spec.observe = ObserveMode::Phases;
        let report = Runner::new(spec).unwrap().run().unwrap();
        let PointSummary::Phases(stats) = &report.points()[0].summary else {
            panic!("phases mode produces aggregate summaries");
        };
        assert_eq!(stats.runs(), 3);
        assert!(!stats.phases().is_empty());
        assert_eq!(stats.phases()[0].opinionated.len(), 3);
        let table = report.to_table();
        assert_eq!(table.num_rows(), stats.phases().len());
    }

    #[test]
    fn stop_conditions_truncate_protocol_schedules() {
        let full = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        let full_report = Runner::new(full.clone()).unwrap().run().unwrap();
        let PointSummary::Protocol(full_summary) = &full_report.points()[0].summary else {
            unreachable!()
        };
        let mut stopped = full;
        stopped.stop = StopSpec {
            max_rounds: Some(10),
            ..StopSpec::default()
        };
        let report = Runner::new(stopped).unwrap().run().unwrap();
        let PointSummary::Protocol(summary) = &report.points()[0].summary else {
            unreachable!()
        };
        assert!(
            summary.rounds.mean() < full_summary.rounds.mean(),
            "stop.max_rounds must truncate the schedule ({} vs {})",
            summary.rounds.mean(),
            full_summary.rounds.mean()
        );
    }

    #[test]
    fn streamed_rows_match_the_final_table() {
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.sweep.eps = vec![0.3, 0.4];
        let runner = Runner::new(spec).unwrap();
        let mut out = Vec::new();
        let report = runner.run_streamed(&mut out).unwrap();
        let streamed = String::from_utf8(out).unwrap();
        assert_eq!(streamed, report.to_table().to_json_lines());
        assert_eq!(streamed.lines().count(), 2);
    }

    #[test]
    fn streamed_trajectories_emit_rows_live_and_match_the_table() {
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.trials = 2;
        spec.observe = ObserveMode::Trajectory;
        let runner = Runner::new(spec).unwrap();
        let mut out = Vec::new();
        let report = runner.run_streamed(&mut out).unwrap();
        let streamed = String::from_utf8(out).unwrap();
        assert_eq!(streamed, report.to_table().to_json_lines());
        assert!(streamed.lines().count() > 2, "one row per phase per trial");
        assert!(streamed.lines().all(|l| l.starts_with("{\"trial\":")));
    }

    #[test]
    fn streamed_phase_aggregates_match_the_final_table() {
        // Phases mode cannot stream live (aggregates only exist once the
        // trials are done); its rows stream per completed point and must
        // still match the final table byte for byte.
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.trials = 2;
        spec.observe = ObserveMode::Phases;
        let runner = Runner::new(spec).unwrap();
        let mut out = Vec::new();
        let report = runner.run_streamed(&mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            report.to_table().to_json_lines()
        );
    }

    #[test]
    fn observed_runs_leave_outcomes_bit_identical() {
        // The same spec through the summary path and the trajectory path:
        // rounds/phase counts must agree because observation is RNG-free.
        let base = quick_spec(ScenarioKind::PluralityConsensus {
            init: InitSpec::Biased { bias: 0.3 },
        });
        let summary_report = Runner::new(base.clone()).unwrap().run().unwrap();
        let PointSummary::Protocol(summary) = &summary_report.points()[0].summary else {
            unreachable!()
        };
        let mut observed = base;
        observed.observe = ObserveMode::Trajectory;
        let report = Runner::new(observed).unwrap().run().unwrap();
        let PointSummary::Trajectory(set) = &report.points()[0].summary else {
            unreachable!()
        };
        for recorder in &set.trials {
            let total: u64 = recorder.snapshots().iter().map(|s| s.rounds()).sum();
            assert_eq!(total as f64, summary.rounds.mean(), "same schedule executed");
        }
    }
}
