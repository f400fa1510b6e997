//! # pushsim
//!
//! A synchronous simulator of the **noisy uniform push model** used by
//! Fraigniaud & Natale, *Noisy Rumor Spreading and Plurality Consensus*
//! (PODC 2016).
//!
//! ## The model
//!
//! * `n` anonymous agents form a communication graph — the complete graph
//!   in the paper's model (the default), or any [`TopologySpec`] family
//!   (`ring`, `torus`, `regular(d)`, `er(p)`; see the [`topology`]
//!   module).
//! * Time proceeds in synchronous rounds. In each round, every *opinionated*
//!   agent may **push** its opinion (an integer in `{0, …, k−1}`) to an agent
//!   chosen uniformly at random (a uniformly random *neighbor* on
//!   non-complete topologies); senders and receivers never learn each
//!   other's identity.
//! * Every pushed opinion passes through a noisy channel described by a
//!   row-stochastic [`NoiseMatrix`](noisy_channel::NoiseMatrix): opinion `i`
//!   is received as `j` with probability `p_{i,j}`.
//! * Agents that do not yet support an opinion are **undecided** and may not
//!   push (they are "not actively aware that the system has started").
//! * Several messages may reach the same agent in one round; all are
//!   received (Appendix A of the paper).
//!
//! ## The three delivery semantics
//!
//! The paper's analysis revolves around three progressively simpler message
//! delivery processes (Section 3.2), all of which are implemented here behind
//! [`DeliverySemantics`]:
//!
//! * **Process O** ([`DeliverySemantics::Exact`]) — the real push process:
//!   each message is noised and delivered to a uniformly random agent in the
//!   round it is sent.
//! * **Process B** ([`DeliverySemantics::BallsIntoBins`]) — at the end of
//!   each *phase*, all messages sent during the phase are independently
//!   re-colored by the noise and thrown into agents chosen uniformly at
//!   random, like balls into bins (Definition 3; Claim 1 shows this is
//!   distributionally equivalent to process O at phase granularity).
//! * **Process P** ([`DeliverySemantics::Poissonized`]) — each agent receives
//!   an independent `Poisson(h_i / n)` number of copies of each opinion `i`,
//!   where `h_i` is the number of post-noise messages carrying opinion `i`
//!   in the phase (Definition 4; Lemma 3 transfers w.h.p. events back to
//!   process O).
//!
//! ## The two backends, one trait
//!
//! The simulator ships **two backends** over the same model, both
//! implementing the [`PushBackend`] trait (the shared phase lifecycle plus
//! the paper's decision operators — see the [`backend`] module docs for the
//! contract and the lemmas behind it):
//!
//! * [`Network`] — the **agent-level** backend: every agent is a
//!   [`NodeState`], inboxes are per-agent multisets. Memory and per-phase
//!   cost scale with `n` and the message volume. The only backend that
//!   handles every topology family and every fault.
//! * [`CountingNetwork`] — the **count-based** backend: agents are
//!   anonymous and exchangeable, so the population is represented as a
//!   `k`-vector of per-opinion counts and a phase's pushes and noise cost
//!   O(k²) random draws (one multinomial per noise-matrix row)
//!   *independent of `n`* (the sample-majority decision is costlier; see
//!   [`counting`]) — the
//!   same reformulation the paper's own analysis uses (it reasons about
//!   the counts `h_i` of Definition 4, never about individuals).
//!   Complete-graph-only: that exchangeability is exactly what a sparse
//!   topology breaks.
//!
//! Code written against `PushBackend` (the `plurality-core` protocol
//! stages, every `opinion-dynamics` rule, the experiment harness) runs
//! unchanged on either backend; each backend's phase result is exposed
//! through the [`PhaseObservation`] trait ([`Inboxes`] vs [`PhaseTally`]).
//!
//! ### Backend × delivery semantics support matrix
//!
//! | delivery semantics | `Network` (agent-level) | `CountingNetwork` (count-based) |
//! |---|---|---|
//! | **O** `Exact` | exact, per-message delivery in [`push_round`](Network::push_round) | runs as process P (equivalent at phase granularity: Claim 1 + Lemma 3) |
//! | **B** `BallsIntoBins` | exact; noise applied in O(k²) multinomial draws at [`end_phase`](Network::end_phase), then a uniform scatter; complete graph only | runs as process P (equivalent at phase granularity: Lemma 3) |
//! | **P** `Poissonized` | exact; k aggregate `Poisson(h_i)` draws + uniform scatter (Poisson superposition); complete graph only | **exact** — the native semantics of the backend |
//!
//! ### Backend × topology support matrix
//!
//! | topology | `Network` | `CountingNetwork` |
//! |---|---|---|
//! | `complete` | ✓ (any delivery) | ✓ |
//! | `ring`, `torus`, `regular(d)`, `er(p)` | ✓ (process O only) | ✗ rejected |
//!
//! "Exact" means the backend samples the process's distribution exactly
//! (the batched paths are distribution-preserving reformulations, checked
//! empirically in `tests/equivalence.rs`); "equivalent at phase
//! granularity" means the per-phase aggregate law is the process-P one the
//! paper transfers to the other processes w.h.p. Four bounded
//! approximations qualify the counting backend's "exact": the Poisson
//! upper tail switches to a continuity-corrected normal approximation
//! beyond mean 600 (absolute error < 10⁻³; see
//! [`counting::poisson_tail_ge`]); a sample-majority call that samples
//! compositions instead of taking the exact law (many opinions or long
//! samples against its switcher count; see
//! [`counting::sample_majority_splits`]) splits the switchers beyond
//! 65 536 by empirical frequencies (≈ 0.4% absolute perturbation), and a
//! sample it composes message by message draws each message with a
//! 64-bit fixed-point coin (each opinion's probability within
//! `2k · 2⁻⁶⁴`); and rules
//! that resample the *same* inbox more than once with replacement (only
//! the median baseline dynamics does) are mean-field approximated.
//!
//! ## Fault injection
//!
//! Beyond the ε-noisy channel, runs can inject classical faults through a
//! [`FaultSpec`] (`drop`, `dup`, `delay`, `crash`, `byz` — see the
//! [`fault`] module): the agent backend supports everything, the counting
//! backend the aggregatable subset (no `delay`). All fault randomness is
//! drawn from a dedicated seed-derived RNG, so a disabled spec keeps every
//! RNG stream above bit-for-bit identical to the fault-free simulator.
//!
//! ## Temporal dynamics
//!
//! The paper's model is static; the [`temporal`] module makes its three
//! frozen assumptions configurable axes. A [`ChurnSpec`] moves the
//! *population* (fractional joins and departures at every phase boundary,
//! a one-shot departure burst) or the *graph* (`rewire(q)` independently
//! resamples a `regular(d)`/`er(p)` topology between phases); a
//! [`NoiseSchedule`] moves ε over phases (`step`/`burst`/`ramp`); a
//! [`ClockSpec`] desynchronizes the rounds themselves (`drift(ppm)` /
//! `skew(p)` per-agent participation). The agent backend supports every
//! axis, the counting backend the aggregate subset (population churn and
//! schedules; its rounds are synchronous by construction). Like faults,
//! all temporal randomness comes from dedicated seed-salted RNGs, so
//! `ChurnSpec::none()` + `NoiseSchedule::Const` + `ClockSpec::Sync` (the
//! defaults) are **bit-for-bit** the static simulator (pinned by
//! `tests/temporal_network.rs`).
//!
//! ## Admission
//!
//! Each rule about which configurations run lives in one place.
//! [`SimConfigBuilder::build`] holds the backend-independent rules:
//! parameter ranges, sparse topologies with exact delivery only, faults
//! and population churn on the complete graph only, scheduled ε inside
//! the uniform family's domain. [`PushBackend::admit`] holds each
//! backend's own rules: the counting backend needs the complete graph,
//! no `delay` fault, no `rewire` churn and the `sync` clock. Both
//! constructors call `admit` first, and automatic backend selection asks
//! it too.
//!
//! Protocols built on top of this crate (see the `plurality-core` crate)
//! interact with the network through *phases*: they call
//! [`Network::begin_phase`], then [`Network::push_round`] once per round,
//! and finally [`Network::end_phase`], after which the per-agent received
//! multisets are available in the returned [`Inboxes`]. The counting
//! backend mirrors the shape with
//! [`push_round_batched`](CountingNetwork::push_round_batched) (counts in)
//! and a [`PhaseTally`] (counts out).
//!
//! # Example
//!
//! ```
//! use noisy_channel::NoiseMatrix;
//! use pushsim::{DeliverySemantics, Network, Opinion, SimConfig};
//!
//! # fn main() -> Result<(), pushsim::SimError> {
//! let noise = NoiseMatrix::uniform(3, 0.2).expect("valid noise");
//! let config = SimConfig::builder(100, 3).seed(42).build()?;
//! let mut net = Network::new(config, noise)?;
//! // One source with opinion 1, everybody else undecided.
//! net.set_opinion(0, Some(Opinion::new(1)));
//!
//! net.begin_phase();
//! for _ in 0..20 {
//!     net.push_round(|_, state| state.opinion());
//! }
//! let inboxes = net.end_phase();
//! // The source pushed 20 messages in total.
//! assert_eq!(inboxes.total_messages(), 20);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod config;
pub mod counting;
mod distribution;
mod error;
pub mod fault;
mod inbox;
mod network;
mod opinion;
pub mod poisson;
pub mod temporal;
pub mod topology;

pub use backend::{AdoptionScope, PhaseObservation, PushBackend};
pub use config::{DeliverySemantics, SimConfig, SimConfigBuilder};
pub use counting::{CountingNetwork, PhaseTally};
pub use distribution::OpinionDistribution;
pub use error::SimError;
pub use fault::{ByzantineFault, CrashFault, FaultSpec};
pub use inbox::Inboxes;
pub use network::{Network, RoundReport};
pub use opinion::{NodeState, Opinion};
pub use temporal::{BurstChurn, ChurnSpec, ClockSpec, NoiseSchedule, PopulationDelta};
pub use topology::{Topology, TopologySpec};
