//! Simulation configuration.

use crate::error::SimError;
use crate::fault::FaultSpec;
use crate::temporal::{ChurnSpec, ClockSpec, NoiseSchedule};
use crate::topology::TopologySpec;

/// How messages pushed during a phase are delivered to the agents.
///
/// The three variants correspond to the three processes of Section 3.2 of
/// the paper. See the crate-level documentation for details. Protocol
/// correctness results are stated for [`Exact`](DeliverySemantics::Exact)
/// (process O); the other two exist to validate the paper's Poissonization
/// argument empirically and to speed up very large simulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum DeliverySemantics {
    /// Process **O**: each message is noised and delivered to a uniformly
    /// random agent in the round it is pushed.
    #[default]
    Exact,
    /// Process **B**: messages accumulate during the phase and are noised
    /// and thrown into agents, like balls into bins, at `end_phase`.
    BallsIntoBins,
    /// Process **P**: at `end_phase`, every agent receives an independent
    /// `Poisson(h_i / n)` number of copies of each opinion `i`, where `h_i`
    /// is the number of post-noise messages carrying opinion `i`.
    Poissonized,
}

impl DeliverySemantics {
    /// All delivery semantics, in the order O, B, P.
    pub const ALL: [DeliverySemantics; 3] = [
        DeliverySemantics::Exact,
        DeliverySemantics::BallsIntoBins,
        DeliverySemantics::Poissonized,
    ];

    /// A short human-readable label ("O", "B" or "P") matching the paper's
    /// process names.
    pub fn label(self) -> &'static str {
        match self {
            DeliverySemantics::Exact => "O",
            DeliverySemantics::BallsIntoBins => "B",
            DeliverySemantics::Poissonized => "P",
        }
    }

    /// The spelling used by scenario spec files and `--delivery`-style
    /// flags; accepted back by the [`FromStr`](std::str::FromStr) impl.
    pub fn spec_name(self) -> &'static str {
        match self {
            DeliverySemantics::Exact => "exact",
            DeliverySemantics::BallsIntoBins => "balls",
            DeliverySemantics::Poissonized => "poisson",
        }
    }
}

impl std::str::FromStr for DeliverySemantics {
    type Err = String;

    /// Parses the spec-file spelling (`"exact"`, `"balls"`, `"poisson"`) or
    /// the paper's process letter (`"O"`, `"B"`, `"P"`), case-insensitive.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "exact" | "o" => Ok(DeliverySemantics::Exact),
            "balls" | "balls-into-bins" | "b" => Ok(DeliverySemantics::BallsIntoBins),
            "poisson" | "poissonized" | "p" => Ok(DeliverySemantics::Poissonized),
            other => Err(format!(
                "unknown delivery semantics {other:?} (expected exact, balls or poisson)"
            )),
        }
    }
}

/// Configuration of a [`Network`](crate::Network).
///
/// Use [`SimConfig::builder`] to construct one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SimConfig {
    num_nodes: usize,
    num_opinions: usize,
    seed: u64,
    delivery: DeliverySemantics,
    topology: TopologySpec,
    fault: FaultSpec,
    churn: ChurnSpec,
    schedule: NoiseSchedule,
    clock: ClockSpec,
}

impl SimConfig {
    /// Starts building a configuration for `num_nodes` agents and
    /// `num_opinions` opinions.
    pub fn builder(num_nodes: usize, num_opinions: usize) -> SimConfigBuilder {
        SimConfigBuilder {
            num_nodes,
            num_opinions,
            seed: 0,
            delivery: DeliverySemantics::Exact,
            topology: TopologySpec::Complete,
            fault: FaultSpec::default(),
            churn: ChurnSpec::default(),
            schedule: NoiseSchedule::default(),
            clock: ClockSpec::default(),
        }
    }

    /// The number of agents `n`.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The number of opinions `k`.
    pub fn num_opinions(&self) -> usize {
        self.num_opinions
    }

    /// The RNG seed of the simulation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The delivery semantics (process O, B or P).
    pub fn delivery(&self) -> DeliverySemantics {
        self.delivery
    }

    /// The communication topology (the complete graph unless overridden).
    pub fn topology(&self) -> TopologySpec {
        self.topology
    }

    /// The injected faults (all disabled unless overridden).
    pub fn fault(&self) -> FaultSpec {
        self.fault
    }

    /// The population/edge churn (all disabled unless overridden).
    pub fn churn(&self) -> ChurnSpec {
        self.churn
    }

    /// The noise schedule (`const` unless overridden).
    pub fn schedule(&self) -> NoiseSchedule {
        self.schedule
    }

    /// The activation clock (`sync` unless overridden).
    pub fn clock(&self) -> ClockSpec {
        self.clock
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    num_nodes: usize,
    num_opinions: usize,
    seed: u64,
    delivery: DeliverySemantics,
    topology: TopologySpec,
    fault: FaultSpec,
    churn: ChurnSpec,
    schedule: NoiseSchedule,
    clock: ClockSpec,
}

impl SimConfigBuilder {
    /// Sets the RNG seed (default 0). Two simulations with the same
    /// configuration and seed evolve identically.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the delivery semantics (default [`DeliverySemantics::Exact`]).
    pub fn delivery(mut self, delivery: DeliverySemantics) -> Self {
        self.delivery = delivery;
        self
    }

    /// Sets the communication topology (default
    /// [`TopologySpec::Complete`], the paper's model). Non-complete
    /// topologies allow only [`DeliverySemantics::Exact`] (agent-level
    /// push along neighbor lists): processes B and P scatter a phase's
    /// messages into *uniform* bins, a complete-graph notion.
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the injected faults (default [`FaultSpec::none`], i.e. the
    /// fault-free paper model). Enabled faults require the complete
    /// graph: a duplicated or delayed message is re-scattered *uniformly*,
    /// which only makes sense when every agent can reach every other.
    pub fn fault(mut self, fault: FaultSpec) -> Self {
        self.fault = fault;
        self
    }

    /// Sets the population/edge churn (default [`ChurnSpec::none`], i.e.
    /// the static-population paper model). Population churn (`join`,
    /// `leave`, `burst`) requires the complete graph and does not
    /// compose with crash/Byzantine/delay faults; edge churn (`rewire`)
    /// requires a re-sampleable randomized topology (`regular(d)` or
    /// `er(p)`) under exact delivery.
    pub fn churn(mut self, churn: ChurnSpec) -> Self {
        self.churn = churn;
        self
    }

    /// Sets the noise schedule (default [`NoiseSchedule::Const`], the
    /// paper's constant channel). Non-constant schedules swap in the
    /// uniform ε-noise family per phase; scheduled ε values must lie in
    /// `(0, 1 − 1/k]` (the upper bound is checked when the backend is
    /// built).
    pub fn schedule(mut self, schedule: NoiseSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the activation clock (default [`ClockSpec::Sync`], the
    /// paper's lockstep rounds). Non-`sync` clocks need the agent
    /// backend.
    pub fn clock(mut self, clock: ClockSpec) -> Self {
        self.clock = clock;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// * [`SimError::TooFewNodes`] if fewer than 2 nodes are requested.
    /// * [`SimError::TooFewOpinions`] if fewer than 2 opinions are requested.
    /// * [`SimError::InvalidTopology`] if the topology parameters are
    ///   infeasible for the node count ([`TopologySpec::check`]).
    /// * [`SimError::UnsupportedTopology`] if a non-complete topology is
    ///   combined with deferred delivery (process B or P).
    /// * [`SimError::InvalidFault`] if the fault parameters are infeasible
    ///   ([`FaultSpec::check`]).
    /// * [`SimError::UnsupportedFault`] if enabled faults are combined
    ///   with a non-complete topology.
    /// * [`SimError::InvalidTemporal`] if the churn, schedule or clock
    ///   parameters are infeasible ([`ChurnSpec::check`],
    ///   [`NoiseSchedule::check`], [`ClockSpec::check`]).
    /// * [`SimError::UnsupportedTemporal`] if population churn is
    ///   combined with a non-complete topology or with
    ///   crash/Byzantine/delay faults, or edge churn (`rewire`) with a
    ///   non-resampleable topology.
    pub fn build(self) -> Result<SimConfig, SimError> {
        if self.num_nodes < 2 {
            return Err(SimError::TooFewNodes {
                found: self.num_nodes,
            });
        }
        if self.num_opinions < 2 {
            return Err(SimError::TooFewOpinions {
                found: self.num_opinions,
            });
        }
        self.topology.check(self.num_nodes)?;
        // Processes B and P scatter a phase's messages into uniform bins:
        // a pending count has no sender, hence no neighborhood. Every
        // backend is built from a `SimConfig`, so this is the one place
        // the simulator enforces the sparse-topology rule.
        if !self.topology.is_complete() && self.delivery != DeliverySemantics::Exact {
            return Err(SimError::UnsupportedTopology {
                topology: self.topology.label(),
                context: format!("deferred delivery (process {})", self.delivery.label()),
            });
        }
        self.fault.check(self.num_opinions)?;
        if !self.fault.is_none() && !self.topology.is_complete() {
            return Err(SimError::UnsupportedFault {
                fault: self.fault.label(),
                context: format!("the non-complete topology {}", self.topology.label()),
            });
        }
        self.churn.check(self.num_opinions)?;
        self.schedule.check()?;
        self.clock.check()?;
        if self.churn.has_population_churn() {
            // Join/leave/burst reshape the population; on a sparse graph
            // that is graph surgery with no canonical semantics, and
            // crash/Byzantine/delay faults pin per-agent identity that
            // arrivals and departures would scramble.
            if !self.topology.is_complete() {
                return Err(SimError::UnsupportedTemporal {
                    feature: "population churn".to_string(),
                    context: format!("the non-complete topology {}", self.topology.label()),
                });
            }
            if self.fault.crash.is_some()
                || self.fault.byzantine.is_some()
                || self.fault.delay != 0.0
            {
                return Err(SimError::UnsupportedTemporal {
                    feature: "population churn".to_string(),
                    context: format!(
                        "the identity-pinning fault spec {}",
                        self.fault.label()
                    ),
                });
            }
        }
        // Resampleable topologies are sparse, so the topology rule above
        // already pins edge churn to exact delivery.
        if self.churn.has_edge_churn() && !self.topology.is_resampleable() {
            return Err(SimError::UnsupportedTemporal {
                feature: "edge churn (rewire)".to_string(),
                context: format!("the non-resampleable topology {}", self.topology.label()),
            });
        }
        Ok(SimConfig {
            num_nodes: self.num_nodes,
            num_opinions: self.num_opinions,
            seed: self.seed,
            delivery: self.delivery,
            topology: self.topology,
            fault: self.fault,
            churn: self.churn,
            schedule: self.schedule,
            clock: self.clock,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_overrides() {
        let c = SimConfig::builder(10, 3).build().unwrap();
        assert_eq!(c.num_nodes(), 10);
        assert_eq!(c.num_opinions(), 3);
        assert_eq!(c.seed(), 0);
        assert_eq!(c.delivery(), DeliverySemantics::Exact);

        let c = SimConfig::builder(10, 3)
            .seed(99)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        assert_eq!(c.seed(), 99);
        assert_eq!(c.delivery(), DeliverySemantics::Poissonized);
    }

    #[test]
    fn builder_rejects_degenerate_systems() {
        assert_eq!(
            SimConfig::builder(1, 3).build().unwrap_err(),
            SimError::TooFewNodes { found: 1 }
        );
        assert_eq!(
            SimConfig::builder(10, 1).build().unwrap_err(),
            SimError::TooFewOpinions { found: 1 }
        );
    }

    #[test]
    fn delivery_labels_match_paper_processes() {
        assert_eq!(DeliverySemantics::Exact.label(), "O");
        assert_eq!(DeliverySemantics::BallsIntoBins.label(), "B");
        assert_eq!(DeliverySemantics::Poissonized.label(), "P");
        assert_eq!(DeliverySemantics::ALL.len(), 3);
        assert_eq!(DeliverySemantics::default(), DeliverySemantics::Exact);
    }

    #[test]
    fn topology_defaults_to_complete_and_validates_at_build() {
        let c = SimConfig::builder(10, 3).build().unwrap();
        assert_eq!(c.topology(), TopologySpec::Complete);

        let c = SimConfig::builder(10, 3)
            .topology(TopologySpec::Ring)
            .build()
            .unwrap();
        assert_eq!(c.topology(), TopologySpec::Ring);

        // Infeasible parameters fail at build.
        assert!(matches!(
            SimConfig::builder(10, 3).topology(TopologySpec::Torus2D).build(),
            Err(SimError::InvalidTopology { .. })
        ));
        // Processes B and P are complete-graph-only, on every sparse
        // family.
        for topology in [
            TopologySpec::Ring,
            TopologySpec::RandomRegular { degree: 4 },
            TopologySpec::ErdosRenyi { p: 0.5 },
        ] {
            for delivery in [DeliverySemantics::BallsIntoBins, DeliverySemantics::Poissonized] {
                assert!(matches!(
                    SimConfig::builder(10, 3)
                        .topology(topology)
                        .delivery(delivery)
                        .build(),
                    Err(SimError::UnsupportedTopology { .. })
                ));
            }
        }
        // The complete graph keeps all three processes.
        for delivery in DeliverySemantics::ALL {
            assert!(SimConfig::builder(10, 3).delivery(delivery).build().is_ok());
        }
    }

    #[test]
    fn fault_defaults_to_none_and_validates_at_build() {
        use crate::fault::ByzantineFault;

        let c = SimConfig::builder(10, 3).build().unwrap();
        assert!(c.fault().is_none());

        let byz = FaultSpec {
            byzantine: Some(ByzantineFault {
                fraction: 0.1,
                opinion: 1,
            }),
            ..FaultSpec::default()
        };
        let c = SimConfig::builder(10, 3).fault(byz).build().unwrap();
        assert_eq!(c.fault(), byz);

        // Infeasible fault parameters fail at build (opinion >= k).
        let bad = FaultSpec {
            byzantine: Some(ByzantineFault {
                fraction: 0.1,
                opinion: 3,
            }),
            ..FaultSpec::default()
        };
        assert!(matches!(
            SimConfig::builder(10, 3).fault(bad).build(),
            Err(SimError::InvalidFault { .. })
        ));
        // Faults are complete-graph-only.
        assert!(matches!(
            SimConfig::builder(10, 3)
                .topology(TopologySpec::Ring)
                .fault(byz)
                .build(),
            Err(SimError::UnsupportedFault { .. })
        ));
        // A disabled spec composes with every topology.
        assert!(SimConfig::builder(10, 3)
            .topology(TopologySpec::Ring)
            .fault(FaultSpec::none())
            .build()
            .is_ok());
    }

    #[test]
    fn temporal_defaults_to_off_and_validates_at_build() {
        use crate::temporal::BurstChurn;

        let c = SimConfig::builder(10, 3).build().unwrap();
        assert!(c.churn().is_none());
        assert!(c.schedule().is_const());
        assert!(c.clock().is_sync());

        let churn = ChurnSpec {
            join: 0.02,
            leave: 0.05,
            ..ChurnSpec::default()
        };
        let c = SimConfig::builder(10, 3).churn(churn).build().unwrap();
        assert_eq!(c.churn(), churn);

        // Infeasible parameters fail at build.
        assert!(matches!(
            SimConfig::builder(10, 3)
                .churn(ChurnSpec {
                    join: 2.0,
                    ..ChurnSpec::default()
                })
                .build(),
            Err(SimError::InvalidTemporal { .. })
        ));
        // Population churn is complete-graph-only.
        assert!(matches!(
            SimConfig::builder(10, 3)
                .topology(TopologySpec::Ring)
                .churn(churn)
                .build(),
            Err(SimError::UnsupportedTemporal { .. })
        ));
        // … and does not compose with identity-pinning faults.
        assert!(matches!(
            SimConfig::builder(10, 3)
                .churn(churn)
                .fault("crash(0.1@0)".parse().unwrap())
                .build(),
            Err(SimError::UnsupportedTemporal { .. })
        ));
        // Message-level faults compose fine.
        assert!(SimConfig::builder(10, 3)
            .churn(churn)
            .fault("drop(0.1)+dup(0.1)".parse().unwrap())
            .build()
            .is_ok());
        // Bursts validate like rates.
        assert!(SimConfig::builder(10, 3)
            .churn(ChurnSpec {
                burst: Some(BurstChurn {
                    fraction: 0.3,
                    after_phase: 1,
                }),
                ..ChurnSpec::default()
            })
            .build()
            .is_ok());

        // Edge churn needs a resampleable topology, which (being sparse)
        // admits exact delivery only.
        let rewire = ChurnSpec {
            rewire: 0.5,
            ..ChurnSpec::default()
        };
        assert!(SimConfig::builder(10, 3)
            .topology(TopologySpec::RandomRegular { degree: 4 })
            .churn(rewire)
            .build()
            .is_ok());
        for bad in [TopologySpec::Complete, TopologySpec::Ring] {
            assert!(matches!(
                SimConfig::builder(16, 3).topology(bad).churn(rewire).build(),
                Err(SimError::UnsupportedTemporal { .. })
            ));
        }
        assert!(matches!(
            SimConfig::builder(10, 3)
                .topology(TopologySpec::RandomRegular { degree: 4 })
                .delivery(DeliverySemantics::Poissonized)
                .churn(rewire)
                .build(),
            Err(SimError::UnsupportedTopology { .. })
        ));

        // Schedules and clocks validate their own parameters.
        assert!(matches!(
            SimConfig::builder(10, 3)
                .schedule("step(1.5@0)".parse().unwrap())
                .build(),
            Err(SimError::InvalidTemporal { .. })
        ));
        assert!(SimConfig::builder(10, 3)
            .schedule("burst(0.05@2:3)".parse().unwrap())
            .clock("skew(0.1)".parse().unwrap())
            .build()
            .is_ok());
    }

    #[test]
    fn delivery_spec_names_round_trip_through_from_str() {
        for semantics in DeliverySemantics::ALL {
            assert_eq!(semantics.spec_name().parse(), Ok(semantics));
            assert_eq!(semantics.label().parse(), Ok(semantics));
        }
        assert!("teleport".parse::<DeliverySemantics>().is_err());
    }
}
