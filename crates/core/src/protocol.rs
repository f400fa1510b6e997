//! The complete two-stage protocol and its outcome type.

use crate::error::ProtocolError;
use crate::memory::MemoryMeter;
use crate::observe::{NoObserver, Observer, RunProgress, StopCondition};
use crate::params::ProtocolParams;
use crate::record::{PhaseRecord, StageId};
use crate::{stage1, stage2};
use noisy_channel::NoiseMatrix;
use pushsim::{
    ChurnSpec, ClockSpec, CountingNetwork, DeliverySemantics, FaultSpec,
    Network, Opinion, OpinionDistribution, PushBackend, SimConfig, TopologySpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Calibrated agent-backend phase cost: nanoseconds per (agent × opinion).
/// From `BENCH_pushsim.json` (`pushsim_phase_scaling/agent_batched_B`:
/// ≈ 460 µs per phase at n = 10⁵, k = 3).
const AGENT_NS_PER_AGENT_OPINION: f64 = 1.5;

/// Calibrated counting-backend phase cost: nanoseconds per noise-matrix
/// cell. From `BENCH_pushsim.json` (`pushsim_phase_scaling/counting_P`:
/// ≈ 470 ns per phase at k = 3, independent of n).
const COUNTING_NS_PER_CELL: f64 = 50.0;

/// Which simulation backend a protocol run executes on.
///
/// * [`Agent`](ExecutionBackend::Agent) — the agent-level [`Network`]:
///   every agent is tracked individually, all three delivery semantics
///   (processes O, B, P) are available, and per-phase cost scales with the
///   message volume. This is the reference backend.
/// * [`Counting`](ExecutionBackend::Counting) — the count-based
///   [`CountingNetwork`]: the population is a `k`-vector of opinion counts,
///   each phase costs O(k²) random draws regardless of `n`, and the
///   dynamics follow the paper's Poissonized process P (Definition 4); at
///   phase granularity this is the process the paper's own analysis
///   transfers to the real push process (Claim 1, Lemma 3). Use it for
///   population sizes the agent-level backend cannot touch (`n = 10⁷⁺`).
///   Two bounded approximations apply at large scale: Poisson tails beyond
///   mean 600 use a normal approximation (error < 10⁻³ — reached by the
///   final Stage 2 phase once `ℓ′ > 300`), and sample-majority adoption
///   beyond 65 536 switchers per phase uses an empirical-frequency bulk
///   split (≈ 0.4% perturbation); see the `pushsim::counting` docs.
///   Complete-graph-only: the count-level reformulation rests on global
///   agent exchangeability, which a sparse topology breaks.
/// * [`Auto`](ExecutionBackend::Auto) — picks one of the two per run from
///   the configuration and a calibrated cost model; see
///   [`resolve`](ExecutionBackend::resolve).
///
/// All concrete backends implement the same
/// [`PushBackend`](pushsim::PushBackend) trait, so the protocol stages are
/// a single generic code path; this enum is the thin front door that
/// chooses the monomorphization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ExecutionBackend {
    /// Agent-level simulation (exact for the configured delivery process).
    #[default]
    Agent,
    /// Count-based simulation (process P at population level, O(k²)/phase).
    Counting,
    /// Choose automatically per run, **without changing semantics**: the
    /// count-based backend is only eligible when the run already requests
    /// its native Poissonized delivery on the complete graph; everything
    /// else stays agent-level. When both are eligible the calibrated cost
    /// model picks the cheaper one.
    Auto,
}

impl ExecutionBackend {
    /// Resolves this request to a concrete backend ([`Agent`] or
    /// [`Counting`](Self::Counting) — never [`Auto`](Self::Auto)) for a
    /// run with `num_nodes` agents, `num_opinions` opinions, the given
    /// delivery semantics, communication topology and fault spec.
    ///
    /// [`Agent`]: Self::Agent
    ///
    /// The `Auto` policy is **semantics-preserving**: it is a *speed*
    /// choice among backends that implement the requested process, never a
    /// silent change of process.
    ///
    /// 1. **Delivery semantics first.** The count-based backend implements
    ///    only the Poissonized process P, so requests for process O or B
    ///    resolve to `Agent` at *any* scale. (Historically Auto silently
    ///    switched exact runs above `n = 10⁵` to the counting backend's
    ///    process-P law — a semantics change, not a speed choice. Callers
    ///    that want an O(k²)-per-phase engine at scale request Poissonized
    ///    delivery or a count-based backend explicitly; Claim 1 + Lemma 3
    ///    justify that substitution *statistically*, but it is now the
    ///    caller's stated intent instead of a hidden fallback.)
    /// 2. **Topology.** The counting backend is complete-graph-only, so
    ///    every non-complete topology resolves to `Agent` (which runs it
    ///    with exact delivery only).
    /// 3. **Faults.** Delayed-delivery faults resolve to `Agent` — the
    ///    counting backend cannot buffer individual messages across
    ///    phase boundaries ([`PushBackend::SUPPORTS_DELAY_FAULTS`] is
    ///    `false` for it). The aggregatable fault families (drop,
    ///    duplication, crash, Byzantine) leave the counting backend
    ///    eligible on the complete graph.
    /// 4. **Temporal axes.** Edge churn (`rewire`) and non-`sync` clocks
    ///    need per-agent identity
    ///    ([`PushBackend::TEMPORAL_CAPABILITY`]), so they resolve to
    ///    `Agent` on every topology; population churn and noise schedules
    ///    are aggregate operations that keep the counting backend eligible.
    /// 5. **Cost model.** For Poissonized complete-graph runs, per-phase
    ///    cost is estimated as `1.5 ns · n · k` for the agent backend
    ///    (message volume dominates) vs `50 ns · k²` for the counting
    ///    backend (one multinomial per noise-matrix row); the cheaper
    ///    backend wins. Constants are calibrated from the archived
    ///    `BENCH_pushsim.json` baseline.
    ///
    /// Explicit `Agent` / `Counting` requests are never
    /// overridden (an infeasible explicit request — counting on a ring —
    /// fails at network construction with
    /// [`SimError::UnsupportedTopology`](pushsim::SimError) instead of
    /// being silently rerouted).
    // One parameter per resolution-relevant configuration axis; bundling
    // them into a struct would just move the field list one call up.
    #[allow(clippy::too_many_arguments)]
    pub fn resolve(
        self,
        num_nodes: usize,
        num_opinions: usize,
        delivery: DeliverySemantics,
        topology: TopologySpec,
        fault: FaultSpec,
        churn: ChurnSpec,
        clock: ClockSpec,
    ) -> ExecutionBackend {
        match self {
            ExecutionBackend::Agent | ExecutionBackend::Counting => self,
            ExecutionBackend::Auto => {
                // Per-agent temporal axes first: edge churn resamples a
                // materialized graph and clock models gate individual
                // agents' pushes — both exist only at agent level
                // (`TemporalCapability::AGGREGATE` rejects them).
                if !clock.is_sync() || churn.has_edge_churn() {
                    return ExecutionBackend::Agent;
                }
                // The counting backend only ever represents the Poissonized
                // delivery law, and only on the complete graph (it needs
                // global agent exchangeability); anything else is
                // agent-level territory.
                if delivery != DeliverySemantics::Poissonized || !topology.is_complete() {
                    return ExecutionBackend::Agent;
                }
                // Complete graph: the counting backend is eligible unless
                // the fault spec needs per-message delay buffering.
                let counting_eligible = fault.aggregatable()
                    || <CountingNetwork as PushBackend>::SUPPORTS_DELAY_FAULTS;
                if !counting_eligible {
                    return ExecutionBackend::Agent;
                }
                let agent_cost =
                    AGENT_NS_PER_AGENT_OPINION * num_nodes as f64 * num_opinions as f64;
                let counting_cost =
                    COUNTING_NS_PER_CELL * (num_opinions * num_opinions) as f64;
                if agent_cost <= counting_cost {
                    ExecutionBackend::Agent
                } else {
                    ExecutionBackend::Counting
                }
            }
        }
    }
}

impl std::str::FromStr for ExecutionBackend {
    type Err = String;

    /// Parses `"agent"`, `"counting"` or `"auto"` (case-insensitive) —
    /// the spelling used by the experiment binaries' `--backend` flag.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "agent" => Ok(ExecutionBackend::Agent),
            "counting" => Ok(ExecutionBackend::Counting),
            "auto" => Ok(ExecutionBackend::Auto),
            other => Err(format!(
                "unknown backend {other:?} (expected agent, counting or auto)"
            )),
        }
    }
}

/// The result of one protocol execution.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Outcome {
    correct_opinion: Opinion,
    final_distribution: OpinionDistribution,
    rounds: u64,
    messages: u64,
    phase_records: Vec<PhaseRecord>,
    memory: MemoryMeter,
}

impl Outcome {
    /// The correct opinion of the instance: the source's opinion for rumor
    /// spreading, the initial plurality opinion for plurality consensus.
    pub fn correct_opinion(&self) -> Opinion {
        self.correct_opinion
    }

    /// The opinion distribution at the end of the execution.
    pub fn final_distribution(&self) -> &OpinionDistribution {
        &self.final_distribution
    }

    /// `true` if every agent finished opinionated and supporting the same
    /// opinion (whichever it is).
    pub fn consensus_reached(&self) -> bool {
        self.final_distribution.is_consensus()
    }

    /// The final plurality opinion, if one exists (with consensus this is
    /// the unanimous opinion).
    pub fn winning_opinion(&self) -> Option<Opinion> {
        self.final_distribution.plurality()
    }

    /// `true` if the protocol succeeded: consensus was reached *on the
    /// correct opinion*.
    pub fn succeeded(&self) -> bool {
        self.final_distribution.is_consensus_on(self.correct_opinion)
    }

    /// Total number of rounds executed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total number of messages pushed.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Per-phase records, Stage 1 phases first.
    pub fn phase_records(&self) -> &[PhaseRecord] {
        &self.phase_records
    }

    /// The records of the given stage only.
    pub fn stage_records(&self, stage: StageId) -> impl Iterator<Item = &PhaseRecord> {
        self.phase_records.iter().filter(move |r| r.stage() == stage)
    }

    /// The bias towards the correct opinion at the end of every phase
    /// (`None` entries mean nobody was opinionated yet).
    pub fn bias_trajectory(&self) -> Vec<Option<f64>> {
        self.phase_records.iter().map(|r| r.bias_after()).collect()
    }

    /// The memory-accounting meter of the run.
    pub fn memory(&self) -> &MemoryMeter {
        &self.memory
    }
}

/// The two-stage noisy rumor-spreading / plurality-consensus protocol of
/// Fraigniaud & Natale (PODC 2016).
///
/// A `TwoStageProtocol` owns the run parameters and the noise matrix and can
/// execute independent runs (each run builds a fresh network seeded from the
/// parameters).
///
/// # Example
///
/// ```
/// use noisy_channel::NoiseMatrix;
/// use plurality_core::{ProtocolParams, TwoStageProtocol};
/// use pushsim::Opinion;
///
/// # fn main() -> Result<(), plurality_core::ProtocolError> {
/// let noise = NoiseMatrix::uniform(3, 0.3).expect("valid noise");
/// let params = ProtocolParams::builder(500, 3).epsilon(0.3).seed(1).build()?;
/// let protocol = TwoStageProtocol::new(params, noise)?;
/// let outcome = protocol.run_rumor_spreading(Opinion::new(2))?;
/// assert!(outcome.succeeded());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TwoStageProtocol {
    params: ProtocolParams,
    noise: NoiseMatrix,
}

impl TwoStageProtocol {
    /// Creates a protocol instance.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NoiseDimensionMismatch`] if the noise matrix
    /// is not over exactly `params.num_opinions()` opinions.
    pub fn new(params: ProtocolParams, noise: NoiseMatrix) -> Result<Self, ProtocolError> {
        if noise.num_opinions() != params.num_opinions() {
            return Err(ProtocolError::NoiseDimensionMismatch {
                expected: params.num_opinions(),
                found: noise.num_opinions(),
            });
        }
        Ok(Self { params, noise })
    }

    /// The run parameters.
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }

    /// The noise matrix applied to every message.
    pub fn noise(&self) -> &NoiseMatrix {
        &self.noise
    }

    /// Runs the noisy **rumor spreading** instance: a uniformly random
    /// source node initially holds `source_opinion`, every other node is
    /// undecided, and the protocol must drive the whole system to
    /// `source_opinion` (Theorem 1).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OpinionOutOfRange`] if the opinion index is
    /// out of range, and propagates simulator errors.
    pub fn run_rumor_spreading(&self, source_opinion: Opinion) -> Result<Outcome, ProtocolError> {
        self.run_rumor_spreading_on(ExecutionBackend::Agent, source_opinion)
    }

    /// Runs the noisy rumor spreading instance on the chosen backend
    /// ([`ExecutionBackend::Auto`] resolves per
    /// [`ExecutionBackend::resolve`]).
    ///
    /// # Errors
    ///
    /// Same as [`run_rumor_spreading`](Self::run_rumor_spreading).
    pub fn run_rumor_spreading_on(
        &self,
        backend: ExecutionBackend,
        source_opinion: Opinion,
    ) -> Result<Outcome, ProtocolError> {
        self.session()
            .run_rumor_spreading_on(backend, source_opinion, &mut NoObserver)
    }

    /// Starts an observable [`Session`] over this protocol: attach
    /// [`Observer`]s and a [`StopCondition`] to its run methods. The
    /// default session (no observer, no stop condition) executes exactly
    /// like the plain `run_*` entry points.
    pub fn session(&self) -> Session<'_> {
        Session {
            protocol: self,
            stop: StopCondition::ScheduleExhausted,
        }
    }

    /// Seeds and runs a rumor-spreading instance on an already-built
    /// backend network.
    fn run_rumor_spreading_generic<B: PushBackend>(
        &self,
        mut net: B,
        source_opinion: Opinion,
        observer: &mut dyn Observer,
        stop: &StopCondition,
    ) -> Result<Outcome, ProtocolError> {
        let mut rng = self.protocol_rng();
        let source = rng.gen_range(0..self.params.num_nodes());
        net.seed_rumor_at(source, source_opinion)?;
        Ok(self.execute(net, rng, source_opinion, observer, stop))
    }

    /// Runs the noisy **plurality consensus** instance: for every opinion
    /// `i`, `initial_counts[i]` nodes initially support `i` (chosen uniformly
    /// at random), the remaining nodes are undecided, and the protocol must
    /// drive the whole system to the plurality opinion (Theorem 2).
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::BadInitialCounts`] if the counts have the wrong
    ///   length, sum to more than `n`, are all zero, or have no unique
    ///   plurality opinion.
    /// * Simulator errors are propagated as [`ProtocolError::Simulation`].
    pub fn run_plurality_consensus(
        &self,
        initial_counts: &[usize],
    ) -> Result<Outcome, ProtocolError> {
        self.run_plurality_consensus_on(ExecutionBackend::Agent, initial_counts)
    }

    /// Runs the noisy plurality consensus instance on the chosen backend
    /// ([`ExecutionBackend::Auto`] resolves per
    /// [`ExecutionBackend::resolve`]).
    ///
    /// # Errors
    ///
    /// Same as [`run_plurality_consensus`](Self::run_plurality_consensus).
    pub fn run_plurality_consensus_on(
        &self,
        backend: ExecutionBackend,
        initial_counts: &[usize],
    ) -> Result<Outcome, ProtocolError> {
        self.session()
            .run_plurality_consensus_on(backend, initial_counts, &mut NoObserver)
    }

    /// Seeds and runs a plurality-consensus instance on an already-built
    /// backend network.
    fn run_plurality_generic<B: PushBackend>(
        &self,
        mut net: B,
        initial_counts: &[usize],
        reference: Opinion,
        observer: &mut dyn Observer,
        stop: &StopCondition,
    ) -> Result<Outcome, ProtocolError> {
        let rng = self.protocol_rng();
        net.seed_counts(initial_counts)?;
        Ok(self.execute(net, rng, reference, observer, stop))
    }

    /// Runs only Stage 2 on an explicitly seeded network. This is the
    /// "majority consensus subroutine" view of the protocol and is used by
    /// the Appendix D experiment (F7), where Stage 1 is deliberately
    /// skipped.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::BadInitialCounts`] under the same conditions
    /// as [`run_plurality_consensus`](Self::run_plurality_consensus).
    pub fn run_stage2_only(&self, initial_counts: &[usize]) -> Result<Outcome, ProtocolError> {
        self.run_stage2_only_on(ExecutionBackend::Agent, initial_counts)
    }

    /// Runs only Stage 2 on the chosen backend.
    ///
    /// # Errors
    ///
    /// Same as [`run_stage2_only`](Self::run_stage2_only).
    pub fn run_stage2_only_on(
        &self,
        backend: ExecutionBackend,
        initial_counts: &[usize],
    ) -> Result<Outcome, ProtocolError> {
        self.session()
            .run_stage2_only_on(backend, initial_counts, &mut NoObserver)
    }

    /// Resolves `backend` and runs the matching continuation on a freshly
    /// built network of the chosen kind — the single place the
    /// `ExecutionBackend` enum is matched on. Each continuation is usually
    /// the same generic function, monomorphized per backend; the observer
    /// is handed through so the closures can share the one `&mut`
    /// borrow. A future backend adds one arm here instead of one per entry
    /// point.
    fn dispatch<T>(
        &self,
        backend: ExecutionBackend,
        observer: &mut dyn Observer,
        agent: impl FnOnce(Network, &mut dyn Observer) -> Result<T, ProtocolError>,
        counting: impl FnOnce(CountingNetwork, &mut dyn Observer) -> Result<T, ProtocolError>,
    ) -> Result<T, ProtocolError> {
        match self.resolve(backend) {
            ExecutionBackend::Agent => agent(self.build_network()?, observer),
            ExecutionBackend::Counting => counting(self.build_counting_network()?, observer),
            ExecutionBackend::Auto => unreachable!("resolve never returns Auto"),
        }
    }

    fn run_stage2_generic<B: PushBackend>(
        &self,
        mut net: B,
        initial_counts: &[usize],
        reference: Opinion,
        observer: &mut dyn Observer,
        stop: &StopCondition,
    ) -> Result<Outcome, ProtocolError> {
        let mut rng = self.protocol_rng();
        net.seed_counts(initial_counts)?;
        let schedule = self.params.schedule();
        let mut meter = MemoryMeter::new(self.params.num_opinions());
        let mut progress = RunProgress::for_stop(stop);
        progress.sync(0, net.is_consensus());
        let records = stage2::run(
            &mut net,
            schedule.stage2_sample_sizes(),
            reference,
            &mut rng,
            &mut meter,
            observer,
            stop,
            &mut progress,
        );
        let outcome = self.outcome_from(net, records, meter, reference);
        observer.on_finish();
        Ok(outcome)
    }

    /// Resolves an [`ExecutionBackend`] request against this protocol's
    /// parameters (see [`ExecutionBackend::resolve`]).
    pub fn resolve(&self, backend: ExecutionBackend) -> ExecutionBackend {
        backend.resolve(
            self.params.num_nodes(),
            self.params.num_opinions(),
            self.params.delivery(),
            self.params.topology(),
            self.params.fault(),
            self.params.churn(),
            self.params.clock(),
        )
    }

    /// Validates plurality-instance initial counts and returns the unique
    /// plurality opinion (the run's reference).
    ///
    /// Public so callers that assemble runs from external data (the
    /// experiment harness's scenario specs) can surface the same
    /// validation as a recoverable error instead of reaching the
    /// `run_*` entry points with inputs they will reject.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadInitialCounts`] unless `initial_counts` has
    /// exactly `k` entries, sums to something in `1..=n`, and has a unique
    /// maximum (the plurality opinion the run measures success against).
    pub fn validate_initial_counts(
        &self,
        initial_counts: &[usize],
    ) -> Result<Opinion, ProtocolError> {
        let k = self.params.num_opinions();
        let n = self.params.num_nodes();
        if initial_counts.len() != k {
            return Err(ProtocolError::BadInitialCounts {
                reason: format!("expected {k} counts, got {}", initial_counts.len()),
            });
        }
        let total: usize = initial_counts.iter().sum();
        if total == 0 {
            return Err(ProtocolError::BadInitialCounts {
                reason: "at least one node must hold an opinion".to_string(),
            });
        }
        if total > n {
            return Err(ProtocolError::BadInitialCounts {
                reason: format!("counts sum to {total} but the network has only {n} nodes"),
            });
        }
        let max = *initial_counts.iter().max().expect("non-empty counts");
        let plurality: Vec<usize> = (0..k).filter(|&i| initial_counts[i] == max).collect();
        if plurality.len() != 1 {
            return Err(ProtocolError::BadInitialCounts {
                reason: "the plurality opinion must be unique".to_string(),
            });
        }
        Ok(Opinion::new(plurality[0]))
    }

    /// The run's [`SimConfig`], shared by both network builders (the
    /// single place the protocol parameters map onto simulator knobs).
    fn sim_config(&self) -> Result<SimConfig, ProtocolError> {
        Ok(SimConfig::builder(self.params.num_nodes(), self.params.num_opinions())
            .seed(self.params.seed())
            .delivery(self.params.delivery())
            .topology(self.params.topology())
            .fault(self.params.fault())
            .churn(self.params.churn())
            .schedule(self.params.noise_schedule())
            .clock(self.params.clock())
            .build()?)
    }

    /// Builds the simulation network for one run.
    fn build_network(&self) -> Result<Network, ProtocolError> {
        Ok(Network::new(self.sim_config()?, self.noise.clone())?)
    }

    /// Builds the count-based network for one run.
    fn build_counting_network(&self) -> Result<CountingNetwork, ProtocolError> {
        Ok(CountingNetwork::new(self.sim_config()?, self.noise.clone())?)
    }

    /// The RNG used for the protocol's own decisions (distinct from the
    /// network's delivery RNG but derived from the same seed so whole runs
    /// are reproducible).
    fn protocol_rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.params.seed().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5DEE_CE66)
    }

    /// Runs both stages on an already-seeded network — the single generic
    /// execution path shared by every backend. The observer is notified at
    /// every phase boundary and the stop condition is evaluated there;
    /// with [`NoObserver`] and
    /// [`StopCondition::ScheduleExhausted`] this is byte-for-byte the
    /// schedule-driven execution (observation touches no RNG stream).
    fn execute<B: PushBackend>(
        &self,
        mut net: B,
        mut rng: StdRng,
        reference: Opinion,
        observer: &mut dyn Observer,
        stop: &StopCondition,
    ) -> Outcome {
        let schedule = self.params.schedule();
        let mut meter = MemoryMeter::new(self.params.num_opinions());
        let mut progress = RunProgress::for_stop(stop);
        progress.sync(0, net.is_consensus());
        let mut records = stage1::run(
            &mut net,
            schedule.stage1_phase_lengths(),
            reference,
            &mut rng,
            &mut meter,
            observer,
            stop,
            &mut progress,
        );
        if !stop.should_stop(&progress) {
            observer.on_stage_transition(StageId::One, StageId::Two);
        }
        records.extend(stage2::run(
            &mut net,
            schedule.stage2_sample_sizes(),
            reference,
            &mut rng,
            &mut meter,
            observer,
            stop,
            &mut progress,
        ));
        let outcome = self.outcome_from(net, records, meter, reference);
        observer.on_finish();
        outcome
    }

    fn outcome_from<B: PushBackend>(
        &self,
        net: B,
        records: Vec<PhaseRecord>,
        memory: MemoryMeter,
        reference: Opinion,
    ) -> Outcome {
        Outcome {
            correct_opinion: reference,
            final_distribution: net.distribution(),
            rounds: net.rounds_executed(),
            messages: net.messages_sent(),
            phase_records: records,
            memory,
        }
    }
}

/// An observable execution of a [`TwoStageProtocol`]: the same run entry
/// points, plus an [`Observer`] parameter and a configurable
/// [`StopCondition`].
///
/// Built with [`TwoStageProtocol::session`]. A default session (no stop
/// condition) with [`NoObserver`] executes bit-for-bit like the plain
/// `run_*` methods — observation never touches an RNG stream, and the
/// default stop condition runs the complete schedule.
///
/// # Example
///
/// ```
/// use noisy_channel::NoiseMatrix;
/// use plurality_core::{
///     Observer, PhaseSnapshot, ProtocolParams, StopCondition, TwoStageProtocol,
/// };
/// use plurality_core::ExecutionBackend;
/// use pushsim::Opinion;
///
/// #[derive(Default)]
/// struct BiasTrace(Vec<Option<f64>>);
/// impl Observer for BiasTrace {
///     fn on_phase_end(&mut self, snapshot: &PhaseSnapshot) {
///         self.0.push(snapshot.bias());
///     }
/// }
///
/// # fn main() -> Result<(), plurality_core::ProtocolError> {
/// let noise = NoiseMatrix::uniform(2, 0.35).expect("valid noise");
/// let params = ProtocolParams::builder(500, 2).epsilon(0.35).seed(1).build()?;
/// let protocol = TwoStageProtocol::new(params, noise)?;
/// let mut trace = BiasTrace::default();
/// let outcome = protocol
///     .session()
///     .stop_when(StopCondition::ConsensusReached)
///     .run_rumor_spreading_on(ExecutionBackend::Auto, Opinion::new(0), &mut trace)?;
/// assert_eq!(trace.0.len(), outcome.phase_records().len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Session<'p> {
    protocol: &'p TwoStageProtocol,
    stop: StopCondition,
}

impl Session<'_> {
    /// Sets the session's stop condition (evaluated at phase boundaries;
    /// the default, [`StopCondition::ScheduleExhausted`], never stops
    /// early).
    #[must_use]
    pub fn stop_when(mut self, stop: StopCondition) -> Self {
        self.stop = stop;
        self
    }

    /// The session's stop condition.
    pub fn stop(&self) -> &StopCondition {
        &self.stop
    }

    /// The protocol this session runs.
    pub fn protocol(&self) -> &TwoStageProtocol {
        self.protocol
    }

    /// Observable variant of
    /// [`TwoStageProtocol::run_rumor_spreading_on`]: `observer` is
    /// notified at every phase boundary and the session's stop condition
    /// may end the run early.
    ///
    /// # Errors
    ///
    /// Same as [`TwoStageProtocol::run_rumor_spreading`].
    pub fn run_rumor_spreading_on(
        &self,
        backend: ExecutionBackend,
        source_opinion: Opinion,
        observer: &mut dyn Observer,
    ) -> Result<Outcome, ProtocolError> {
        let protocol = self.protocol;
        if source_opinion.index() >= protocol.params.num_opinions() {
            return Err(ProtocolError::OpinionOutOfRange {
                opinion: source_opinion.index(),
                num_opinions: protocol.params.num_opinions(),
            });
        }
        protocol.dispatch(
            backend,
            observer,
            |net, observer| {
                protocol.run_rumor_spreading_generic(net, source_opinion, observer, &self.stop)
            },
            |net, observer| {
                protocol.run_rumor_spreading_generic(net, source_opinion, observer, &self.stop)
            },
        )
    }

    /// Observable variant of
    /// [`TwoStageProtocol::run_plurality_consensus_on`].
    ///
    /// # Errors
    ///
    /// Same as [`TwoStageProtocol::run_plurality_consensus`].
    pub fn run_plurality_consensus_on(
        &self,
        backend: ExecutionBackend,
        initial_counts: &[usize],
        observer: &mut dyn Observer,
    ) -> Result<Outcome, ProtocolError> {
        let protocol = self.protocol;
        let reference = protocol.validate_initial_counts(initial_counts)?;
        protocol.dispatch(
            backend,
            observer,
            |net, observer| {
                protocol.run_plurality_generic(net, initial_counts, reference, observer, &self.stop)
            },
            |net, observer| {
                protocol.run_plurality_generic(net, initial_counts, reference, observer, &self.stop)
            },
        )
    }

    /// Observable variant of [`TwoStageProtocol::run_stage2_only_on`].
    ///
    /// # Errors
    ///
    /// Same as [`TwoStageProtocol::run_stage2_only`].
    pub fn run_stage2_only_on(
        &self,
        backend: ExecutionBackend,
        initial_counts: &[usize],
        observer: &mut dyn Observer,
    ) -> Result<Outcome, ProtocolError> {
        let protocol = self.protocol;
        let reference = protocol.validate_initial_counts(initial_counts)?;
        protocol.dispatch(
            backend,
            observer,
            |net, observer| {
                protocol.run_stage2_generic(net, initial_counts, reference, observer, &self.stop)
            },
            |net, observer| {
                protocol.run_stage2_generic(net, initial_counts, reference, observer, &self.stop)
            },
        )
    }
}

/// Convenience wrapper: runs noisy rumor spreading with the source holding
/// opinion 0.
///
/// # Errors
///
/// Propagates [`TwoStageProtocol::new`] and
/// [`TwoStageProtocol::run_rumor_spreading`] errors.
pub fn run_rumor_spreading(
    params: &ProtocolParams,
    noise: &NoiseMatrix,
) -> Result<Outcome, ProtocolError> {
    TwoStageProtocol::new(params.clone(), noise.clone())?.run_rumor_spreading(Opinion::new(0))
}

/// Convenience wrapper: runs noisy plurality consensus from the given
/// initial counts.
///
/// # Errors
///
/// Propagates [`TwoStageProtocol::new`] and
/// [`TwoStageProtocol::run_plurality_consensus`] errors.
pub fn run_plurality_consensus(
    params: &ProtocolParams,
    noise: &NoiseMatrix,
    initial_counts: &[usize],
) -> Result<Outcome, ProtocolError> {
    TwoStageProtocol::new(params.clone(), noise.clone())?.run_plurality_consensus(initial_counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ProtocolConstants;

    fn uniform_noise(k: usize, eps: f64) -> NoiseMatrix {
        NoiseMatrix::uniform(k, eps).unwrap()
    }

    #[test]
    fn rumor_spreading_succeeds_with_three_opinions() {
        let eps = 0.35;
        let params = ProtocolParams::builder(600, 3)
            .epsilon(eps)
            .seed(42)
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(3, eps)).unwrap();
        let outcome = protocol.run_rumor_spreading(Opinion::new(1)).unwrap();
        assert!(outcome.consensus_reached());
        assert!(outcome.succeeded(), "final: {}", outcome.final_distribution());
        assert_eq!(outcome.winning_opinion(), Some(Opinion::new(1)));
        assert_eq!(outcome.correct_opinion(), Opinion::new(1));
        assert!(outcome.rounds() > 0);
        assert!(outcome.messages() > 0);
        assert!(!outcome.phase_records().is_empty());
        assert!(outcome.memory().bits_per_node() > 0);
    }

    #[test]
    fn plurality_consensus_recovers_the_initial_plurality() {
        let eps = 0.35;
        let params = ProtocolParams::builder(600, 3)
            .epsilon(eps)
            .seed(7)
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(3, eps)).unwrap();
        // Opinion 2 holds the plurality (but not the absolute majority).
        let outcome = protocol.run_plurality_consensus(&[180, 150, 270]).unwrap();
        assert!(outcome.succeeded(), "final: {}", outcome.final_distribution());
        assert_eq!(outcome.winning_opinion(), Some(Opinion::new(2)));
    }

    #[test]
    fn stage_records_are_split_correctly() {
        let eps = 0.4;
        let params = ProtocolParams::builder(300, 2)
            .epsilon(eps)
            .seed(3)
            .build()
            .unwrap();
        let schedule = params.schedule();
        let protocol = TwoStageProtocol::new(params, uniform_noise(2, eps)).unwrap();
        let outcome = protocol.run_rumor_spreading(Opinion::new(0)).unwrap();
        let stage1_count = outcome.stage_records(StageId::One).count();
        let stage2_count = outcome.stage_records(StageId::Two).count();
        assert_eq!(stage1_count, schedule.stage1_phases());
        assert_eq!(stage2_count, schedule.stage2_phases());
        assert_eq!(
            outcome.phase_records().len(),
            stage1_count + stage2_count
        );
        assert_eq!(outcome.bias_trajectory().len(), outcome.phase_records().len());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let params = ProtocolParams::builder(100, 3).epsilon(0.3).build().unwrap();
        let protocol = TwoStageProtocol::new(params.clone(), uniform_noise(3, 0.3)).unwrap();
        assert!(matches!(
            protocol.run_rumor_spreading(Opinion::new(5)),
            Err(ProtocolError::OpinionOutOfRange { .. })
        ));
        assert!(matches!(
            protocol.run_plurality_consensus(&[1, 2]),
            Err(ProtocolError::BadInitialCounts { .. })
        ));
        assert!(matches!(
            protocol.run_plurality_consensus(&[0, 0, 0]),
            Err(ProtocolError::BadInitialCounts { .. })
        ));
        assert!(matches!(
            protocol.run_plurality_consensus(&[50, 50, 0]),
            Err(ProtocolError::BadInitialCounts { .. })
        ));
        assert!(matches!(
            protocol.run_plurality_consensus(&[200, 1, 0]),
            Err(ProtocolError::BadInitialCounts { .. })
        ));
        assert!(matches!(
            TwoStageProtocol::new(params, uniform_noise(4, 0.3)),
            Err(ProtocolError::NoiseDimensionMismatch { .. })
        ));
    }

    #[test]
    fn counting_backend_solves_plurality_consensus() {
        let eps = 0.35;
        let params = ProtocolParams::builder(600, 3)
            .epsilon(eps)
            .seed(7)
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(3, eps)).unwrap();
        let outcome = protocol
            .run_plurality_consensus_on(ExecutionBackend::Counting, &[180, 150, 270])
            .unwrap();
        assert!(outcome.succeeded(), "final: {}", outcome.final_distribution());
        assert_eq!(outcome.winning_opinion(), Some(Opinion::new(2)));
        assert_eq!(outcome.final_distribution().num_nodes(), 600);
        assert!(outcome.rounds() > 0);
        assert!(!outcome.phase_records().is_empty());
    }

    #[test]
    fn counting_backend_solves_rumor_spreading() {
        let eps = 0.35;
        let params = ProtocolParams::builder(600, 3)
            .epsilon(eps)
            .seed(42)
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(3, eps)).unwrap();
        let outcome = protocol
            .run_rumor_spreading_on(ExecutionBackend::Counting, Opinion::new(1))
            .unwrap();
        assert!(outcome.succeeded(), "final: {}", outcome.final_distribution());
    }

    #[test]
    fn counting_backend_is_reproducible_per_seed() {
        let make = || {
            let params = ProtocolParams::builder(1_000, 2)
                .epsilon(0.4)
                .seed(99)
                .build()
                .unwrap();
            TwoStageProtocol::new(params, uniform_noise(2, 0.4))
                .unwrap()
                .run_plurality_consensus_on(ExecutionBackend::Counting, &[600, 300])
                .unwrap()
        };
        let a = make();
        let b = make();
        assert_eq!(a.final_distribution(), b.final_distribution());
        assert_eq!(a.bias_trajectory(), b.bias_trajectory());
    }

    #[test]
    fn auto_resolution_preserves_the_requested_semantics() {
        use pushsim::DeliverySemantics::{BallsIntoBins, Exact, Poissonized};
        let complete = TopologySpec::Complete;
        let no_fault = FaultSpec::none();
        let no_churn = ChurnSpec::none();
        let sync = ClockSpec::sync();
        // Exact-semantics requests (processes O and B) stay agent-level at
        // *every* scale: the counting backend only implements process P,
        // so resolving them to it would change the delivery law, not just
        // the speed. (The historical policy did exactly that above
        // n = 10⁵.)
        assert_eq!(
            ExecutionBackend::Auto.resolve(1_000, 3, Exact, complete, no_fault, no_churn, sync),
            ExecutionBackend::Agent
        );
        assert_eq!(
            ExecutionBackend::Auto.resolve(10_000_000, 3, Exact, complete, no_fault, no_churn, sync),
            ExecutionBackend::Agent
        );
        assert_eq!(
            ExecutionBackend::Auto.resolve(50_000, 4, BallsIntoBins, complete, no_fault, no_churn, sync),
            ExecutionBackend::Agent
        );
        // Process P is native to the counting backend: the cost model picks
        // counting as soon as n·k message work exceeds k² draw work.
        assert_eq!(
            ExecutionBackend::Auto.resolve(10_000, 3, Poissonized, complete, no_fault, no_churn, sync),
            ExecutionBackend::Counting
        );
        assert_eq!(
            ExecutionBackend::Auto.resolve(30, 3, Poissonized, complete, no_fault, no_churn, sync),
            ExecutionBackend::Agent
        );
        // Non-complete topologies with exact delivery run agent-level,
        // whatever the scale — the count-based backend only implements
        // process P.
        assert_eq!(
            ExecutionBackend::Auto.resolve(10_000_000, 3, Exact, TopologySpec::Ring, no_fault, no_churn, sync),
            ExecutionBackend::Agent
        );
        // Every non-complete topology resolves to Agent even when the
        // delivery is Poissonized: the counting backend needs the complete
        // graph.
        for spec in [
            TopologySpec::Ring,
            TopologySpec::Torus2D,
            TopologySpec::RandomRegular { degree: 8 },
            TopologySpec::ErdosRenyi { p: 0.1 },
        ] {
            assert_eq!(
                ExecutionBackend::Auto.resolve(10_000_000, 3, Poissonized, spec, no_fault, no_churn, sync),
                ExecutionBackend::Agent
            );
        }
        // Aggregatable faults keep the counting backend eligible; delayed
        // delivery forces the agent backend, which buffers real messages.
        let aggregatable: FaultSpec = "drop(0.1)+byz(0.05:0)".parse().unwrap();
        assert_eq!(
            ExecutionBackend::Auto.resolve(10_000, 3, Poissonized, complete, aggregatable, no_churn, sync),
            ExecutionBackend::Counting
        );
        let delayed: FaultSpec = "delay(0.2)".parse().unwrap();
        assert_eq!(
            ExecutionBackend::Auto.resolve(10_000, 3, Poissonized, complete, delayed, no_churn, sync),
            ExecutionBackend::Agent
        );
        // Per-agent temporal axes force the agent backend on every
        // topology; the aggregate axes (population churn, schedules) do
        // not change the resolution.
        let skew: ClockSpec = "skew(0.1)".parse().unwrap();
        assert_eq!(
            ExecutionBackend::Auto.resolve(10_000, 3, Poissonized, complete, no_fault, no_churn, skew),
            ExecutionBackend::Agent
        );
        let rewire: ChurnSpec = "rewire(0.5)".parse().unwrap();
        assert_eq!(
            ExecutionBackend::Auto.resolve(
                10_000,
                3,
                Poissonized,
                TopologySpec::RandomRegular { degree: 8 },
                no_fault,
                rewire,
                sync
            ),
            ExecutionBackend::Agent
        );
        let population: ChurnSpec = "join(0.01)+leave(0.01)".parse().unwrap();
        assert_eq!(
            ExecutionBackend::Auto.resolve(10_000, 3, Poissonized, complete, no_fault, population, sync),
            ExecutionBackend::Counting
        );
        // Explicit requests are never overridden.
        assert_eq!(
            ExecutionBackend::Agent.resolve(10_000_000, 3, Exact, complete, no_fault, no_churn, sync),
            ExecutionBackend::Agent
        );
        assert_eq!(
            ExecutionBackend::Counting.resolve(10, 2, Exact, complete, no_fault, no_churn, sync),
            ExecutionBackend::Counting
        );
    }

    #[test]
    fn sparse_topology_runs_resolve_to_agent_and_solve_rumor_spreading() {
        // End-to-end: the protocol runs on a random-regular graph through
        // Auto, which must resolve to the agent backend.
        let eps = 0.35;
        let params = ProtocolParams::builder(400, 2)
            .epsilon(eps)
            .seed(13)
            .topology(TopologySpec::RandomRegular { degree: 8 })
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(2, eps)).unwrap();
        assert_eq!(
            protocol.resolve(ExecutionBackend::Auto),
            ExecutionBackend::Agent
        );
        let outcome = protocol
            .run_rumor_spreading_on(ExecutionBackend::Auto, Opinion::new(0))
            .unwrap();
        assert!(outcome.rounds() > 0);
        assert_eq!(outcome.final_distribution().num_nodes(), 400);
        // An explicit counting request on a sparse topology fails loudly
        // instead of silently switching semantics.
        let err = protocol
            .run_rumor_spreading_on(ExecutionBackend::Counting, Opinion::new(0))
            .unwrap_err();
        assert!(
            matches!(&err, ProtocolError::Simulation(msg) if msg.contains("topology")),
            "expected an unsupported-topology error, got {err}"
        );
    }

    #[test]
    fn backend_parses_from_str() {
        assert_eq!("agent".parse(), Ok(ExecutionBackend::Agent));
        assert_eq!("Counting".parse(), Ok(ExecutionBackend::Counting));
        assert_eq!("AUTO".parse(), Ok(ExecutionBackend::Auto));
        assert!("gpu".parse::<ExecutionBackend>().is_err());
        assert!("block".parse::<ExecutionBackend>().is_err());
    }

    #[test]
    fn auto_matches_the_backend_it_delegates_to_bit_for_bit() {
        // Auto is a front door, not a third execution path: at a fixed seed
        // its outcome must be identical to running the resolved backend
        // explicitly — on both sides of the policy boundary.
        let eps = 0.35;
        // Small exact run: Auto resolves to Agent.
        let params = ProtocolParams::builder(500, 3)
            .epsilon(eps)
            .seed(33)
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(3, eps)).unwrap();
        assert_eq!(
            protocol.resolve(ExecutionBackend::Auto),
            ExecutionBackend::Agent
        );
        let auto = protocol
            .run_plurality_consensus_on(ExecutionBackend::Auto, &[200, 150, 100])
            .unwrap();
        let agent = protocol
            .run_plurality_consensus_on(ExecutionBackend::Agent, &[200, 150, 100])
            .unwrap();
        assert_eq!(auto, agent);

        // Poissonized run: Auto resolves to Counting.
        let params = ProtocolParams::builder(5_000, 3)
            .epsilon(eps)
            .seed(34)
            .delivery(pushsim::DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(3, eps)).unwrap();
        assert_eq!(
            protocol.resolve(ExecutionBackend::Auto),
            ExecutionBackend::Counting
        );
        let auto = protocol
            .run_rumor_spreading_on(ExecutionBackend::Auto, Opinion::new(1))
            .unwrap();
        let counting = protocol
            .run_rumor_spreading_on(ExecutionBackend::Counting, Opinion::new(1))
            .unwrap();
        assert_eq!(auto, counting);
    }

    #[test]
    fn plateau_stop_with_an_oversized_window_runs_the_full_schedule() {
        let eps = 0.35;
        let params = ProtocolParams::builder(400, 2)
            .epsilon(eps)
            .seed(17)
            .build()
            .unwrap();
        let schedule_rounds = params.schedule().total_rounds();
        let protocol = TwoStageProtocol::new(params, uniform_noise(2, eps)).unwrap();
        let plain = protocol.run_rumor_spreading(Opinion::new(0)).unwrap();
        // A plateau window longer than the whole run can never accumulate
        // enough history: the session must behave exactly like the
        // stop-free run, not stall or stop early.
        let stopped = protocol
            .session()
            .stop_when(StopCondition::Plateau {
                window: 100_000,
                tolerance: 1.0,
            })
            .run_rumor_spreading_on(
                ExecutionBackend::Agent,
                Opinion::new(0),
                &mut NoObserver,
            )
            .unwrap();
        assert_eq!(stopped.rounds(), schedule_rounds);
        assert_eq!(stopped, plain);
    }

    #[test]
    fn stage2_only_runs_on_the_counting_backend_too() {
        let eps = 0.35;
        let params = ProtocolParams::builder(500, 2)
            .epsilon(eps)
            .seed(21)
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(2, eps)).unwrap();
        let outcome = protocol
            .run_stage2_only_on(ExecutionBackend::Counting, &[300, 200])
            .unwrap();
        assert!(outcome.succeeded(), "final: {}", outcome.final_distribution());
        assert_eq!(outcome.final_distribution().num_nodes(), 500);
    }

    #[test]
    fn runs_are_reproducible_for_a_fixed_seed() {
        let eps = 0.4;
        let make = || {
            let params = ProtocolParams::builder(300, 2)
                .epsilon(eps)
                .seed(99)
                .build()
                .unwrap();
            TwoStageProtocol::new(params, uniform_noise(2, eps))
                .unwrap()
                .run_rumor_spreading(Opinion::new(0))
                .unwrap()
        };
        let a = make();
        let b = make();
        assert_eq!(a.final_distribution(), b.final_distribution());
        assert_eq!(a.rounds(), b.rounds());
        assert_eq!(a.messages(), b.messages());
        assert_eq!(a.bias_trajectory(), b.bias_trajectory());
    }

    #[test]
    fn stage2_only_solves_an_already_biased_instance() {
        let eps = 0.35;
        let params = ProtocolParams::builder(500, 2)
            .epsilon(eps)
            .seed(21)
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(2, eps)).unwrap();
        let outcome = protocol.run_stage2_only(&[300, 200]).unwrap();
        assert!(outcome.succeeded(), "final: {}", outcome.final_distribution());
    }

    #[test]
    fn free_functions_mirror_protocol_methods() {
        let eps = 0.4;
        let params = ProtocolParams::builder(300, 2).epsilon(eps).seed(5).build().unwrap();
        let noise = uniform_noise(2, eps);
        let rumor = run_rumor_spreading(&params, &noise).unwrap();
        assert_eq!(rumor.correct_opinion(), Opinion::new(0));
        let plurality = run_plurality_consensus(&params, &noise, &[150, 100]).unwrap();
        assert_eq!(plurality.correct_opinion(), Opinion::new(0));
    }

    #[test]
    fn custom_constants_are_honoured_in_the_schedule() {
        let constants = ProtocolConstants {
            s: 0.5,
            beta: 1.0,
            phi: 2.0,
            c: 3.0,
            c_final: 1.0,
        };
        let params = ProtocolParams::builder(1_000, 2)
            .epsilon(0.3)
            .constants(constants)
            .build()
            .unwrap();
        let default_params = ProtocolParams::builder(1_000, 2).epsilon(0.3).build().unwrap();
        assert!(params.schedule().total_rounds() < default_params.schedule().total_rounds());
    }
}
