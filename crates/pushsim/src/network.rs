//! The network simulator: agents, rounds and phase-level message delivery.

use crate::config::{DeliverySemantics, SimConfig};
use crate::distribution::OpinionDistribution;
use crate::error::SimError;
use crate::fault::FaultSpec;
use crate::inbox::Inboxes;
use crate::opinion::{NodeState, Opinion};
use crate::poisson;
use crate::temporal::{ChurnSpec, ClockSpec, NoiseSchedule, CHURN_SEED_SALT, CLOCK_SEED_SALT};
use crate::topology::Topology;
use noisy_channel::{sampling, NoiseMatrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Salt mixed into the simulation seed for the topology-construction RNG,
/// so building a random graph (`regular(d)`, `er(p)`) never perturbs the
/// delivery RNG stream — complete-graph runs stay bit-for-bit identical to
/// the pre-topology simulator, and the graph is a deterministic function
/// of the seed.
const TOPOLOGY_SEED_SALT: u64 = 0x7090_1091_C5F0_12AD;

/// Salt mixed into the simulation seed for the fault-injection RNG (both
/// backends), so every drop/dup/delay coin and every crash/Byzantine
/// membership draw comes from a stream of its own — a run with faults
/// disabled never touches it and keeps the delivery and decision streams
/// bit-for-bit identical to the fault-free simulator.
pub(crate) const FAULT_SEED_SALT: u64 = 0xFA17_5EED_0B5E_55ED;

/// The materialized fault state of an agent-level network: who is
/// Byzantine, who will crash, the dedicated fault RNG, and the buffer of
/// delayed messages awaiting the next phase. Built only when the config's
/// [`FaultSpec`] enables at least one family.
#[derive(Debug, Clone)]
struct AgentFaults {
    spec: FaultSpec,
    rng: StdRng,
    /// Per-node flag: always pushes the fixed Byzantine opinion, never
    /// adopts.
    byzantine: Vec<bool>,
    /// Per-node flag: falls silent once `phases_completed` passes the
    /// crash phase.
    crashed: Vec<bool>,
    /// How many phases have fully ended; phase `p` is in flight while
    /// this equals `p`.
    phases_completed: u64,
    /// Post-noise counts of messages delayed out of earlier phases,
    /// delivered (uniform scatter) at the next `begin_phase`.
    delayed: Vec<u64>,
}

impl AgentFaults {
    fn new(spec: FaultSpec, seed: u64, num_nodes: usize, num_opinions: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ FAULT_SEED_SALT);
        let mut byzantine = vec![false; num_nodes];
        let mut crashed = vec![false; num_nodes];
        let byz_count = spec
            .byzantine
            .map_or(0, |b| membership_count(b.fraction, num_nodes));
        // `check` bounds the un-rounded fractions by 1.0, but the two
        // rounded counts can still overshoot `n` by one between them
        // (e.g. 0.55 and 0.45 at odd n both rounding up) — clamp the
        // crash pool to whatever population remains.
        let crash_count = spec
            .crash
            .map_or(0, |c| membership_count(c.fraction, num_nodes))
            .min(num_nodes - byz_count);
        if byz_count + crash_count > 0 {
            // One shuffle assigns both disjoint pools (`check` guarantees
            // the fractions fit together in the population).
            let mut ids: Vec<usize> = (0..num_nodes).collect();
            ids.shuffle(&mut rng);
            for &node in &ids[..byz_count] {
                byzantine[node] = true;
            }
            for &node in &ids[byz_count..byz_count + crash_count] {
                crashed[node] = true;
            }
        }
        Self {
            spec,
            rng,
            byzantine,
            crashed,
            phases_completed: 0,
            delayed: vec![0; num_opinions],
        }
    }

    /// `true` once the crash phase has fully ended.
    fn crash_active(&self) -> bool {
        self.spec
            .crash
            .is_some_and(|c| self.phases_completed > c.after_phase)
    }

    /// Thins (drop), inflates (dup) and splits off delayed copies from the
    /// post-noise per-opinion counts of a deferred-delivery phase,
    /// returning what is delivered *now*; the delayed share lands in
    /// `self.delayed` for the next phase.
    fn apply_aggregate(&mut self, post_noise: &[u64]) -> Vec<u64> {
        post_noise
            .iter()
            .enumerate()
            .map(|(opinion, &h)| {
                let survivors = h - sampling::binomial(h, self.spec.drop, &mut self.rng);
                let copies =
                    survivors + sampling::binomial(survivors, self.spec.duplicate, &mut self.rng);
                let deferred = sampling::binomial(copies, self.spec.delay, &mut self.rng);
                self.delayed[opinion] += deferred;
                copies - deferred
            })
            .collect()
    }
}

/// Materialized churn state: the spec and its dedicated RNG. Built only
/// when the config's [`ChurnSpec`] enables at least one churn family.
/// Shared across backends — the count-based backend applies the same spec
/// as aggregate count transfers.
#[derive(Debug, Clone)]
pub(crate) struct ChurnState {
    pub(crate) spec: ChurnSpec,
    pub(crate) rng: StdRng,
}

impl ChurnState {
    /// Builds the churn state for an enabled spec; `None` when churn is
    /// disabled (so the churn RNG is never even seeded).
    pub(crate) fn build(spec: ChurnSpec, seed: u64) -> Option<Self> {
        (!spec.is_none()).then(|| Self {
            spec,
            rng: StdRng::seed_from_u64(seed ^ CHURN_SEED_SALT),
        })
    }
}

/// Per-agent activation clocks. Built only when the config's
/// [`ClockSpec`] is not `sync`.
#[derive(Debug, Clone)]
struct AgentClock {
    spec: ClockSpec,
    rng: StdRng,
    /// Per-agent clock rates `c_i` (drift only; empty under skew).
    rates: Vec<f64>,
}

impl AgentClock {
    fn new(spec: ClockSpec, seed: u64, num_nodes: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ CLOCK_SEED_SALT);
        let rates = match spec {
            ClockSpec::Drift { ppm } => {
                let d = ppm * 1e-6;
                (0..num_nodes).map(|_| 1.0 + rng.gen_range(-d..d)).collect()
            }
            ClockSpec::Sync | ClockSpec::Skew { .. } => Vec::new(),
        };
        Self { spec, rng, rates }
    }

    /// Draws the clock state of one freshly joined agent.
    fn admit_joiner(&mut self) {
        if let ClockSpec::Drift { ppm } = self.spec {
            let d = ppm * 1e-6;
            self.rates.push(1.0 + self.rng.gen_range(-d..d));
        }
    }

    /// `true` if `node`'s local clock fires on global tick `tick`: under
    /// drift, its local clock `c_i · t` crosses an integer boundary
    /// during the tick; under skew, an independent per-tick coin.
    fn allows(&mut self, node: usize, tick: u64) -> bool {
        match self.spec {
            ClockSpec::Sync => true,
            ClockSpec::Drift { .. } => {
                let c = self.rates[node];
                let t = tick as f64;
                (c * (t + 1.0)).floor() > (c * t).floor()
            }
            ClockSpec::Skew { miss } => !self.rng.gen_bool(miss),
        }
    }
}

/// A non-constant noise schedule plus the configured base matrix it
/// restores on phases with no scheduled ε. Shared across backends.
#[derive(Debug, Clone)]
pub(crate) struct ScheduledNoise {
    schedule: NoiseSchedule,
    base: NoiseMatrix,
}

impl ScheduledNoise {
    /// Validates and materializes a non-constant schedule for a system
    /// with `k` opinions; `Ok(None)` for the constant schedule.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTemporal`] if a scheduled ε falls outside the
    /// uniform noise family's k-dependent domain `(0, 1 − 1/k]` —
    /// checked here, once, so phase-boundary swaps can never fail.
    pub(crate) fn build(
        schedule: NoiseSchedule,
        k: usize,
        base: &NoiseMatrix,
    ) -> Result<Option<Self>, SimError> {
        if schedule.is_const() {
            return Ok(None);
        }
        for eps in schedule.scheduled_epsilons() {
            NoiseMatrix::uniform(k, eps).map_err(|_| SimError::InvalidTemporal {
                reason: format!(
                    "scheduled epsilon {eps} is outside the uniform noise family's \
                     domain (0, 1 - 1/k] for k = {k}"
                ),
            })?;
        }
        Ok(Some(Self {
            schedule,
            base: base.clone(),
        }))
    }

    /// The noise matrix phase `phase` runs under: the scheduled uniform
    /// ε-matrix where ε(t) is defined, the configured base otherwise.
    pub(crate) fn matrix_for(&self, phase: u64, k: usize) -> NoiseMatrix {
        match self.schedule.epsilon_at(phase) {
            Some(eps) => NoiseMatrix::uniform(k, eps)
                .expect("scheduled epsilons are validated at construction"),
            None => self.base.clone(),
        }
    }
}

/// The materialized temporal state of an agent-level network. Built only
/// when at least one temporal axis (churn, schedule, clock) is enabled,
/// so temporal-off runs never touch any of its RNG streams and stay
/// bit-for-bit identical to the pre-temporal simulator.
#[derive(Debug, Clone)]
struct AgentTemporal {
    churn: Option<ChurnState>,
    clock: Option<AgentClock>,
    schedule: Option<ScheduledNoise>,
    /// How many phases have fully ended; phase boundary `b` (which
    /// precedes phase `b`) is applied when this equals `b` at
    /// `begin_phase`.
    phases_completed: u64,
}

/// The number of agents a fraction of the population rounds to.
pub(crate) fn membership_count(fraction: f64, num_nodes: usize) -> usize {
    ((fraction * num_nodes as f64).round() as usize).min(num_nodes)
}

/// Statistics of a single executed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RoundReport {
    round: u64,
    messages_sent: u64,
}

impl RoundReport {
    /// Builds a report (shared with the counting backend).
    pub(crate) fn new(round: u64, messages_sent: u64) -> Self {
        Self {
            round,
            messages_sent,
        }
    }

    /// The global index of the round (counting from 0 over the lifetime of
    /// the network).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// How many messages were pushed in this round.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }
}

/// A complete synchronous network of anonymous agents communicating through
/// the noisy uniform push model.
///
/// The network is driven in **phases**: [`begin_phase`](Network::begin_phase)
/// clears the per-agent inboxes, one or more [`push_round`](Network::push_round)
/// calls let agents push opinions, and [`end_phase`](Network::end_phase)
/// finalizes delivery (a no-op for process O, the balls-into-bins throw for
/// process B, the Poisson draw for process P) and exposes the received
/// multisets.
///
/// See the crate-level documentation for a complete example.
#[derive(Debug, Clone)]
pub struct Network {
    config: SimConfig,
    noise: NoiseMatrix,
    /// The communication graph pushes travel along (built once from
    /// `config.topology()`; the complete graph stores no adjacency).
    topology: Topology,
    states: Vec<NodeState>,
    /// Per-opinion population tallies, kept in sync with `states` by every
    /// mutation path so that [`distribution`](Network::distribution) and
    /// consensus checks are O(k) instead of an O(n) scan.
    opinion_counts: Vec<usize>,
    undecided_count: usize,
    rng: StdRng,
    inboxes: Inboxes,
    /// Pre-noise counts of opinions pushed during the open phase; only used
    /// by the deferred (B and P) delivery semantics.
    pending: Vec<u64>,
    /// Materialized fault state; `None` when the config's [`FaultSpec`] is
    /// all-disabled, in which case no fault code path is ever entered and
    /// no fault RNG is ever seeded.
    faults: Option<AgentFaults>,
    /// Materialized temporal state (churn, clocks, noise schedule);
    /// `None` when every temporal axis is disabled, in which case no
    /// temporal code path is ever entered and no temporal RNG is ever
    /// seeded.
    temporal: Option<AgentTemporal>,
    phase_open: bool,
    rounds_executed: u64,
    messages_sent: u64,
}

impl Network {
    /// Creates a network of undecided agents.
    ///
    /// # Errors
    ///
    /// * [`SimError::NoiseDimensionMismatch`] if the noise matrix is not
    ///   defined over exactly `config.num_opinions()` opinions.
    /// * [`SimError::InvalidTopology`] if the configured topology cannot
    ///   be realized (see [`Topology::build`]).
    pub fn new(config: SimConfig, noise: NoiseMatrix) -> Result<Self, SimError> {
        if noise.num_opinions() != config.num_opinions() {
            return Err(SimError::NoiseDimensionMismatch {
                expected: config.num_opinions(),
                found: noise.num_opinions(),
            });
        }
        let n = config.num_nodes();
        let k = config.num_opinions();
        // A dedicated RNG for graph construction: the delivery stream
        // (seeded below) must match the pre-topology simulator exactly on
        // the complete graph.
        let mut topology_rng = StdRng::seed_from_u64(config.seed() ^ TOPOLOGY_SEED_SALT);
        let topology = Topology::build(config.topology(), n, &mut topology_rng)?;
        let faults = (!config.fault().is_none())
            .then(|| AgentFaults::new(config.fault(), config.seed(), n, k));
        let schedule = ScheduledNoise::build(config.schedule(), k, &noise)?;
        let churn = ChurnState::build(config.churn(), config.seed());
        let clock = (!config.clock().is_sync())
            .then(|| AgentClock::new(config.clock(), config.seed(), n));
        let temporal =
            (churn.is_some() || clock.is_some() || schedule.is_some()).then_some(AgentTemporal {
                churn,
                clock,
                schedule,
                phases_completed: 0,
            });
        Ok(Self {
            topology,
            faults,
            temporal,
            rng: StdRng::seed_from_u64(config.seed()),
            states: vec![NodeState::Undecided; n],
            opinion_counts: vec![0; k],
            undecided_count: n,
            inboxes: Inboxes::new(n, k),
            pending: vec![0; k],
            phase_open: false,
            rounds_executed: 0,
            messages_sent: 0,
            config,
            noise,
        })
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The number of agents `n` — the **live** population: equal to
    /// `config().num_nodes()` except under population churn, where joins
    /// and departures at phase boundaries move it away from the initial
    /// size (deterministically; see
    /// [`ChurnSpec::population_after`](crate::ChurnSpec::population_after)).
    pub fn num_nodes(&self) -> usize {
        self.states.len()
    }

    /// The number of opinions `k`.
    pub fn num_opinions(&self) -> usize {
        self.config.num_opinions()
    }

    /// The noise matrix acting on every transmitted message.
    pub fn noise(&self) -> &NoiseMatrix {
        &self.noise
    }

    /// The communication graph pushes travel along.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The current state of every agent.
    pub fn states(&self) -> &[NodeState] {
        &self.states
    }

    /// The state of one agent.
    ///
    /// # Panics
    ///
    /// Panics if `node ≥ num_nodes()`.
    pub fn state(&self, node: usize) -> NodeState {
        self.states[node]
    }

    /// Sets (or clears, with `None`) the opinion of one agent.
    ///
    /// # Panics
    ///
    /// Panics if `node ≥ num_nodes()` or if the opinion index is out of
    /// range for the configured `k`.
    pub fn set_opinion(&mut self, node: usize, opinion: Option<Opinion>) {
        assert!(
            node < self.num_nodes(),
            "node {node} out of range for a {}-node network",
            self.num_nodes()
        );
        if let Some(o) = opinion {
            assert!(
                o.index() < self.num_opinions(),
                "{o} out of range for a system with {} opinions",
                self.num_opinions()
            );
        }
        match self.states[node] {
            NodeState::Opinionated(old) => self.opinion_counts[old.index()] -= 1,
            NodeState::Undecided => self.undecided_count -= 1,
        }
        match opinion {
            Some(o) => {
                self.opinion_counts[o.index()] += 1;
                self.states[node] = NodeState::Opinionated(o);
            }
            None => {
                self.undecided_count += 1;
                self.states[node] = NodeState::Undecided;
            }
        }
    }

    /// Resets every agent to the undecided state (keeping round and message
    /// counters).
    pub fn clear_opinions(&mut self) {
        self.states.iter_mut().for_each(|s| *s = NodeState::Undecided);
        self.opinion_counts.iter_mut().for_each(|c| *c = 0);
        self.undecided_count = self.num_nodes();
    }

    /// Seeds a rumor-spreading instance: agent `source` adopts `opinion`,
    /// every other agent becomes undecided.
    ///
    /// # Errors
    ///
    /// * [`SimError::NodeOutOfRange`] if `source ≥ num_nodes()`.
    /// * [`SimError::OpinionOutOfRange`] if the opinion index is out of
    ///   range.
    pub fn seed_rumor(&mut self, source: usize, opinion: Opinion) -> Result<(), SimError> {
        if source >= self.num_nodes() {
            return Err(SimError::NodeOutOfRange {
                node: source,
                num_nodes: self.num_nodes(),
            });
        }
        if opinion.index() >= self.num_opinions() {
            return Err(SimError::OpinionOutOfRange {
                opinion: opinion.index(),
                num_opinions: self.num_opinions(),
            });
        }
        self.clear_opinions();
        self.set_opinion(source, Some(opinion));
        Ok(())
    }

    /// Seeds a plurality-consensus instance: for each opinion `i`,
    /// `counts[i]` agents adopt opinion `i`; all remaining agents become
    /// undecided. The opinionated agents are chosen uniformly at random
    /// (without replacement) among all agents.
    ///
    /// # Errors
    ///
    /// * [`SimError::OpinionOutOfRange`] if `counts.len() ≠ num_opinions()`.
    /// * [`SimError::TooManyInitialOpinions`] if the counts sum to more than
    ///   `num_nodes()`.
    pub fn seed_counts(&mut self, counts: &[usize]) -> Result<(), SimError> {
        if counts.len() != self.num_opinions() {
            return Err(SimError::OpinionOutOfRange {
                opinion: counts.len(),
                num_opinions: self.num_opinions(),
            });
        }
        let total: usize = counts.iter().sum();
        if total > self.num_nodes() {
            return Err(SimError::TooManyInitialOpinions {
                requested: total,
                num_nodes: self.num_nodes(),
            });
        }
        self.clear_opinions();
        let mut ids: Vec<usize> = (0..self.num_nodes()).collect();
        ids.shuffle(&mut self.rng);
        let mut cursor = 0;
        for (opinion, &count) in counts.iter().enumerate() {
            for &node in &ids[cursor..cursor + count] {
                self.states[node] = NodeState::Opinionated(Opinion::new(opinion));
            }
            cursor += count;
        }
        self.opinion_counts.copy_from_slice(counts);
        self.undecided_count = self.num_nodes() - total;
        Ok(())
    }

    /// Per-opinion population tallies (maintained incrementally; O(1) to
    /// read, mirroring [`CountingNetwork::counts`](crate::CountingNetwork::counts)).
    pub fn opinion_counts(&self) -> &[usize] {
        &self.opinion_counts
    }

    /// The number of undecided agents.
    pub fn undecided(&self) -> usize {
        self.undecided_count
    }

    /// The current opinion distribution of the network.
    ///
    /// O(k): built from the incrementally maintained tallies, not from a
    /// scan of the agent states.
    pub fn distribution(&self) -> OpinionDistribution {
        OpinionDistribution::from_counts(self.opinion_counts.clone(), self.undecided_count)
            .expect("k >= 2 by construction")
    }

    /// Total number of rounds executed so far.
    pub fn rounds_executed(&self) -> u64 {
        self.rounds_executed
    }

    /// Total number of messages pushed so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// The received multisets of the current (or most recently finished)
    /// phase.
    pub fn inboxes(&self) -> &Inboxes {
        &self.inboxes
    }

    /// Starts a new phase: applies the pending temporal phase boundary
    /// (population/edge churn, a scheduled noise swap — a no-op when
    /// every temporal axis is off), clears every agent's inbox, then
    /// (under an enabled `delay` fault) scatters the messages delayed out
    /// of the previous phase into the fresh inboxes.
    ///
    /// # Panics
    ///
    /// Panics if a phase is already open.
    pub fn begin_phase(&mut self) {
        assert!(!self.phase_open, "begin_phase called while a phase is open");
        self.apply_phase_boundary();
        self.inboxes.clear();
        self.pending.iter_mut().for_each(|c| *c = 0);
        if let Some(f) = self.faults.as_mut() {
            if f.delayed.iter().any(|&c| c > 0) {
                self.inboxes.scatter_uniform(&f.delayed, &mut f.rng);
                f.delayed.iter_mut().for_each(|c| *c = 0);
            }
        }
        self.phase_open = true;
    }

    /// Applies the temporal phase boundary preceding the phase about to
    /// open: swaps the scheduled noise matrix in (or restores the
    /// configured one), removes leavers, admits joiners, and — with
    /// probability `rewire` — resamples the randomized topology. A no-op
    /// when no temporal axis is enabled; boundary 0 (before the very
    /// first phase) never churns.
    fn apply_phase_boundary(&mut self) {
        let Some(temporal) = self.temporal.as_mut() else {
            return;
        };
        let boundary = temporal.phases_completed;
        let k = self.config.num_opinions();
        if let Some(s) = temporal.schedule.as_ref() {
            self.noise = s.matrix_for(boundary, k);
        }
        let AgentTemporal { churn, clock, .. } = temporal;
        let Some(c) = churn.as_mut() else {
            return;
        };
        if boundary == 0 {
            return;
        }
        if c.spec.has_population_churn() {
            // Magnitudes are deterministic (`population_delta`); only who
            // leaves and what joiners believe comes from the churn RNG.
            let delta = c.spec.population_delta(self.states.len(), boundary);
            for _ in 0..delta.leavers {
                let victim = c.rng.gen_range(0..self.states.len());
                match self.states.swap_remove(victim) {
                    NodeState::Opinionated(o) => self.opinion_counts[o.index()] -= 1,
                    NodeState::Undecided => self.undecided_count -= 1,
                }
                if let Some(cl) = clock.as_mut() {
                    if !cl.rates.is_empty() {
                        cl.rates.swap_remove(victim);
                    }
                }
            }
            for _ in 0..delta.joiners {
                let opinion = match c.spec.join_opinion {
                    Some(o) => o,
                    None => c.rng.gen_range(0..k),
                };
                self.opinion_counts[opinion] += 1;
                self.states.push(NodeState::Opinionated(Opinion::new(opinion)));
                if let Some(cl) = clock.as_mut() {
                    cl.admit_joiner();
                }
            }
            if self.inboxes.num_nodes() != self.states.len() {
                self.inboxes.resize(self.states.len());
                // Population churn is complete-topology-only (config
                // validation), and the complete graph's destination range
                // is its only state — keep it in step with the live n.
                self.topology.resize_complete(self.states.len());
            }
        }
        if c.spec.has_edge_churn() && c.rng.gen_bool(c.spec.rewire) {
            // Wholesale resample of the randomized sparse graph from the
            // churn RNG (config validation guarantees the family is
            // re-sampleable, so this cannot fail).
            self.topology = Topology::build(self.config.topology(), self.states.len(), &mut c.rng)
                .expect("topology parameters validated at construction");
        }
    }

    /// `true` if `node` never adopts an opinion under the configured
    /// faults: it is Byzantine, or it crashed in an already-ended phase.
    /// Always `false` on a fault-free network. Adoption steps
    /// (`resolve_*`) skip frozen agents. (Agents admitted by churn sit
    /// past the end of the membership vectors and are never faulty —
    /// churn composes only with the memoryless drop/dup families.)
    pub fn fault_frozen(&self, node: usize) -> bool {
        match &self.faults {
            Some(f) => {
                f.byzantine.get(node).copied().unwrap_or(false)
                    || (f.crash_active() && f.crashed.get(node).copied().unwrap_or(false))
            }
            None => false,
        }
    }

    /// Executes one synchronous round: every agent is offered the chance to
    /// push one opinion by the `decide` callback (which receives the agent's
    /// index and current state and returns `Some(opinion)` to push or `None`
    /// to stay silent).
    ///
    /// Under process O the messages are noised and delivered immediately —
    /// to a uniformly random node on the complete graph, to a uniformly
    /// random *neighbor* of the sender under any other topology (an agent
    /// with no neighbors, possible under `er(p)`, stays silent). Under
    /// processes B and P (complete graph only) they are accumulated and
    /// delivered at [`end_phase`](Network::end_phase).
    ///
    /// # Panics
    ///
    /// Panics if no phase is open, or if `decide` returns an opinion index
    /// out of range.
    pub fn push_round<F>(&mut self, mut decide: F) -> RoundReport
    where
        F: FnMut(usize, NodeState) -> Option<Opinion>,
    {
        assert!(self.phase_open, "push_round called outside a phase");
        let n = self.num_nodes();
        let k = self.num_opinions();
        let mut sent_this_round = 0u64;
        for node in 0..n {
            // Byzantine agents always push their fixed opinion and crashed
            // agents whose crash phase has ended push nothing; neither
            // consults `decide`.
            let decision = match &self.faults {
                Some(f) if f.byzantine.get(node).copied().unwrap_or(false) => Some(Opinion::new(
                    f.spec.byzantine.expect("byzantine pool implies a spec").opinion,
                )),
                Some(f) if f.crash_active() && f.crashed.get(node).copied().unwrap_or(false) => {
                    None
                }
                _ => decide(node, self.states[node]),
            };
            let Some(opinion) = decision else {
                continue;
            };
            assert!(
                opinion.index() < k,
                "decide returned {opinion} but the system has {k} opinions"
            );
            // Clock gate: an agent whose local clock misses this tick
            // stays silent (the receive path is unaffected).
            if let Some(t) = self.temporal.as_mut() {
                if let Some(cl) = t.clock.as_mut() {
                    if !cl.allows(node, self.rounds_executed) {
                        continue;
                    }
                }
            }
            if !self.topology.can_push(node) {
                continue;
            }
            sent_this_round += 1;
            match self.config.delivery() {
                DeliverySemantics::Exact => match self.faults.as_mut() {
                    None => {
                        let received_as = self.noise.sample(opinion.index(), &mut self.rng);
                        let destination = self.topology.push_destination(node, &mut self.rng);
                        self.inboxes.deliver(destination, received_as);
                    }
                    Some(f) => {
                        // Lost in transit (still counted as sent).
                        if f.spec.drop > 0.0 && f.rng.gen_bool(f.spec.drop) {
                            continue;
                        }
                        let received_as = self.noise.sample(opinion.index(), &mut self.rng);
                        let copies = 1 + u32::from(
                            f.spec.duplicate > 0.0 && f.rng.gen_bool(f.spec.duplicate),
                        );
                        for copy in 0..copies {
                            if f.spec.delay > 0.0 && f.rng.gen_bool(f.spec.delay) {
                                // Deferred to the next phase's inboxes.
                                f.delayed[received_as] += 1;
                            } else if copy == 0 {
                                let destination =
                                    self.topology.push_destination(node, &mut self.rng);
                                self.inboxes.deliver(destination, received_as);
                            } else {
                                // The duplicate lands on an independent
                                // agent drawn from the fault stream.
                                let destination = f.rng.gen_range(0..n);
                                self.inboxes.deliver(destination, received_as);
                            }
                        }
                    }
                },
                DeliverySemantics::BallsIntoBins | DeliverySemantics::Poissonized => {
                    self.pending[opinion.index()] += 1;
                }
            }
        }
        self.messages_sent += sent_this_round;
        self.rounds_executed += 1;
        RoundReport {
            round: self.rounds_executed - 1,
            messages_sent: sent_this_round,
        }
    }

    /// Finishes the open phase, performing any deferred delivery, and
    /// returns the per-agent received multisets.
    ///
    /// # Panics
    ///
    /// Panics if no phase is open.
    pub fn end_phase(&mut self) -> &Inboxes {
        assert!(self.phase_open, "end_phase called without an open phase");
        match self.config.delivery() {
            DeliverySemantics::Exact => {}
            DeliverySemantics::BallsIntoBins => self.deliver_balls_into_bins(),
            DeliverySemantics::Poissonized => self.deliver_poissonized(),
        }
        if let Some(f) = self.faults.as_mut() {
            f.phases_completed += 1;
        }
        if let Some(t) = self.temporal.as_mut() {
            t.phases_completed += 1;
        }
        self.phase_open = false;
        &self.inboxes
    }

    /// Process B (Definition 3): re-color every pending message through the
    /// noise matrix, then throw each into a uniformly random bin.
    ///
    /// Batched: the noise is applied with O(k²) multinomial draws
    /// ([`NoiseMatrix::recolor_counts`]) instead of one channel sample per
    /// message — messages within a phase are exchangeable, which is exactly
    /// why the paper's phase-level analysis (Claim 1) can work on counts.
    /// The bin throw is then a bare uniform scatter of the already-colored
    /// balls, distributionally identical to the per-message formulation
    /// because balls are exchangeable and destinations are independent of
    /// colors.
    fn deliver_balls_into_bins(&mut self) {
        let mut post_noise = self.noise.recolor_counts(&self.pending, &mut self.rng);
        if let Some(f) = self.faults.as_mut() {
            post_noise = f.apply_aggregate(&post_noise);
        }
        self.inboxes.scatter_uniform(&post_noise, &mut self.rng);
    }

    /// Process P (Definition 4): re-color every pending message through the
    /// noise to obtain the post-noise totals `h_i`, then hand every agent an
    /// independent `Poisson(h_i / n)` number of copies of each opinion.
    ///
    /// Batched in both steps: the noise is O(k²) multinomial draws, and the
    /// n·k independent `Poisson(h_i / n)` draws are replaced by k aggregate
    /// `Poisson(h_i)` draws followed by a uniform scatter — exact by Poisson
    /// superposition (the sum of n iid `Poisson(h/n)` variables is
    /// `Poisson(h)`, and conditioned on the sum the placement is uniform
    /// multinomial over the n agents).
    fn deliver_poissonized(&mut self) {
        let mut post_noise = self.noise.recolor_counts(&self.pending, &mut self.rng);
        if let Some(f) = self.faults.as_mut() {
            // Messages are thinned/duplicated/delayed before the delivery
            // counts are Poissonized (binomial thinning of a Poisson draw
            // commutes, so the order does not change the law).
            post_noise = f.apply_aggregate(&post_noise);
        }
        let totals: Vec<u64> = post_noise
            .iter()
            .map(|&h| poisson::sample(h as f64, &mut self.rng))
            .collect();
        self.inboxes.scatter_uniform(&totals, &mut self.rng);
    }

    /// A mutable reference to the network's random-number generator, for
    /// protocols that want a single source of randomness for both the
    /// network and their own decisions (e.g. to make whole runs reproducible
    /// from one seed).
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_net(delivery: DeliverySemantics, seed: u64) -> Network {
        let noise = NoiseMatrix::uniform(3, 0.2).unwrap();
        let config = SimConfig::builder(50, 3)
            .seed(seed)
            .delivery(delivery)
            .build()
            .unwrap();
        Network::new(config, noise).unwrap()
    }

    #[test]
    fn noise_dimension_must_match() {
        let noise = NoiseMatrix::uniform(4, 0.2).unwrap();
        let config = SimConfig::builder(50, 3).build().unwrap();
        assert_eq!(
            Network::new(config, noise).unwrap_err(),
            SimError::NoiseDimensionMismatch {
                expected: 3,
                found: 4
            }
        );
    }

    #[test]
    fn seeding_a_rumor_sets_exactly_one_opinionated_node() {
        let mut net = small_net(DeliverySemantics::Exact, 1);
        net.seed_rumor(7, Opinion::new(2)).unwrap();
        let dist = net.distribution();
        assert_eq!(dist.opinionated(), 1);
        assert_eq!(dist.count(Opinion::new(2)), 1);
        assert_eq!(dist.undecided(), 49);
        assert!(net.seed_rumor(100, Opinion::new(0)).is_err());
        assert!(net.seed_rumor(0, Opinion::new(9)).is_err());
    }

    #[test]
    fn seeding_counts_assigns_requested_numbers() {
        let mut net = small_net(DeliverySemantics::Exact, 2);
        net.seed_counts(&[10, 5, 0]).unwrap();
        let dist = net.distribution();
        assert_eq!(dist.counts(), &[10, 5, 0]);
        assert_eq!(dist.undecided(), 35);
        assert!(net.seed_counts(&[60, 0, 0]).is_err());
        assert!(net.seed_counts(&[1, 1]).is_err());
    }

    #[test]
    fn exact_delivery_conserves_messages() {
        let mut net = small_net(DeliverySemantics::Exact, 3);
        net.seed_counts(&[20, 10, 5]).unwrap();
        net.begin_phase();
        for _ in 0..4 {
            let report = net.push_round(|_, s| s.opinion());
            assert_eq!(report.messages_sent(), 35);
        }
        let inboxes = net.end_phase();
        assert_eq!(inboxes.total_messages(), 4 * 35);
        assert_eq!(net.messages_sent(), 4 * 35);
        assert_eq!(net.rounds_executed(), 4);
    }

    #[test]
    fn balls_into_bins_delivery_conserves_messages() {
        let mut net = small_net(DeliverySemantics::BallsIntoBins, 4);
        net.seed_counts(&[20, 10, 5]).unwrap();
        net.begin_phase();
        for _ in 0..4 {
            net.push_round(|_, s| s.opinion());
        }
        // Nothing delivered until the phase ends.
        assert_eq!(net.inboxes().total_messages(), 0);
        let inboxes = net.end_phase();
        assert_eq!(inboxes.total_messages(), 4 * 35);
    }

    #[test]
    fn poissonized_delivery_matches_expected_volume() {
        // With n nodes and h messages, the expected total delivered is h.
        let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
        let config = SimConfig::builder(500, 2)
            .seed(5)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[250, 250]).unwrap();
        let mut total = 0u64;
        let phases = 20;
        for _ in 0..phases {
            net.begin_phase();
            net.push_round(|_, s| s.opinion());
            total += net.end_phase().total_messages();
        }
        let expected = (500 * phases) as f64;
        let observed = total as f64;
        assert!(
            (observed - expected).abs() / expected < 0.05,
            "observed {observed}, expected {expected}"
        );
    }

    #[test]
    fn same_seed_gives_identical_runs() {
        let run = |seed| {
            let mut net = small_net(DeliverySemantics::Exact, seed);
            net.seed_counts(&[20, 10, 5]).unwrap();
            net.begin_phase();
            for _ in 0..5 {
                net.push_round(|_, s| s.opinion());
            }
            net.end_phase();
            (0..net.num_nodes())
                .map(|u| net.inboxes().received(u).to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn undecided_nodes_can_stay_silent() {
        let mut net = small_net(DeliverySemantics::Exact, 6);
        net.seed_counts(&[3, 0, 0]).unwrap();
        net.begin_phase();
        let report = net.push_round(|_, s| s.opinion());
        assert_eq!(report.messages_sent(), 3);
        net.end_phase();
    }

    #[test]
    fn noiseless_channel_preserves_opinions_in_flight() {
        let noise = NoiseMatrix::identity(2).unwrap();
        let config = SimConfig::builder(20, 2).seed(9).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[5, 0]).unwrap();
        net.begin_phase();
        for _ in 0..10 {
            net.push_round(|_, s| s.opinion());
        }
        let inboxes = net.end_phase();
        let totals = inboxes.totals_per_opinion();
        assert_eq!(totals[0], 50);
        assert_eq!(totals[1], 0);
    }

    #[test]
    #[should_panic(expected = "outside a phase")]
    fn push_round_requires_open_phase() {
        let mut net = small_net(DeliverySemantics::Exact, 10);
        net.push_round(|_, s| s.opinion());
    }

    #[test]
    #[should_panic(expected = "without an open phase")]
    fn end_phase_requires_open_phase() {
        let mut net = small_net(DeliverySemantics::Exact, 10);
        net.end_phase();
    }

    #[test]
    fn cached_tallies_stay_in_sync_with_states() {
        let mut net = small_net(DeliverySemantics::Exact, 12);
        let check = |net: &Network| {
            assert_eq!(
                net.distribution(),
                OpinionDistribution::from_states(net.states(), net.num_opinions()),
            );
        };
        check(&net);
        net.seed_counts(&[10, 5, 3]).unwrap();
        check(&net);
        net.set_opinion(0, Some(Opinion::new(2)));
        net.set_opinion(1, None);
        net.set_opinion(1, Some(Opinion::new(0)));
        check(&net);
        net.seed_rumor(7, Opinion::new(1)).unwrap();
        check(&net);
        assert_eq!(net.undecided(), 49);
        assert_eq!(net.opinion_counts(), &[0, 1, 0]);
        net.clear_opinions();
        check(&net);
        assert_eq!(net.undecided(), net.num_nodes());
    }

    #[test]
    fn clear_opinions_resets_states_only() {
        let mut net = small_net(DeliverySemantics::Exact, 11);
        net.seed_counts(&[10, 0, 0]).unwrap();
        net.begin_phase();
        net.push_round(|_, s| s.opinion());
        net.end_phase();
        let rounds = net.rounds_executed();
        net.clear_opinions();
        assert_eq!(net.distribution().opinionated(), 0);
        assert_eq!(net.rounds_executed(), rounds);
    }
}
