//! Property tests for the scenario spec text format: every valid
//! [`ScenarioSpec`] serializes to text that parses back to an equal spec,
//! and the serialization is canonical.

use noisy_bench::spec::{InitSpec, Metric, ObserveMode, ScenarioKind, ScenarioSpec, StopSpec, SweepAxes};
use noisy_channel::NoiseSpec;
use opinion_dynamics::RuleSpec;
use plurality_core::ExecutionBackend;
use proptest::prelude::*;
use pushsim::{
    BurstChurn, ByzantineFault, ChurnSpec, ClockSpec, CrashFault, DeliverySemantics, FaultSpec,
    NoiseSchedule, TopologySpec,
};

fn noise_strategy() -> impl Strategy<Value = NoiseSpec> {
    prop_oneof![
        (0.01f64..0.6).prop_map(|epsilon| NoiseSpec::Uniform { epsilon }),
        (0.01f64..0.5).prop_map(|epsilon| NoiseSpec::BinaryFlip { epsilon }),
        (0.01f64..0.49).prop_map(|lambda| NoiseSpec::Cyclic { lambda }),
        ((0.01f64..0.99), 0usize..4)
            .prop_map(|(lambda, target)| NoiseSpec::Reset { lambda, target }),
        (0.01f64..0.5).prop_map(|epsilon| NoiseSpec::DiagonallyDominant { epsilon }),
        ((0.3f64..0.7), (0.05f64..0.2), (0.0f64..0.1)).prop_map(|(p, q_low, extra)| {
            NoiseSpec::Band {
                p,
                q_low,
                q_high: q_low + extra,
            }
        }),
    ]
}

/// Topologies that are feasible for every generated `n` (all generated
/// node counts are ≥ 100): even regular degrees keep `n·d` even for odd
/// `n`, and the torus (which needs perfect-square `n`) is covered by unit
/// tests instead.
fn topology_strategy() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        Just(TopologySpec::Complete),
        Just(TopologySpec::Ring),
        (1usize..6).prop_map(|half| TopologySpec::RandomRegular { degree: 2 * half }),
        (0.001f64..1.0).prop_map(|p| TopologySpec::ErdosRenyi { p }),
    ]
}

/// Fault specs valid for a `k`-opinion protocol by construction:
/// probabilities stay inside `[0, 1]`, the Byzantine opinion is below
/// `k`, and the crashed + Byzantine fractions sum below 1 (each stays
/// under 0.5). Crash phases are small so they can be clamped against any
/// generated `stop.max_rounds`. All-disabled specs (`none`) are generated
/// too and must round-trip like any other value.
fn fault_strategy(k: usize) -> impl Strategy<Value = FaultSpec> {
    (
        prop::option::of(0.01f64..1.0),
        prop::option::of(0.01f64..1.0),
        prop::option::of(0.01f64..1.0),
        prop::option::of(((0.01f64..0.5), 0u64..4)),
        prop::option::of(((0.01f64..0.5), 0..k)),
    )
        .prop_map(|(drop, duplicate, delay, crash, byzantine)| FaultSpec {
            drop: drop.unwrap_or(0.0),
            duplicate: duplicate.unwrap_or(0.0),
            delay: delay.unwrap_or(0.0),
            crash: crash.map(|(fraction, after_phase)| CrashFault {
                fraction,
                after_phase,
            }),
            byzantine: byzantine.map(|(fraction, opinion)| ByzantineFault { fraction, opinion }),
        })
}

/// Population-churn specs valid for a `k`-opinion protocol by
/// construction: rates stay below 0.3 (so `leave + burst.fraction < 1`),
/// the optional join opinion is below `k`, and `rewire` stays 0 — edge
/// churn composes only with resampleable topologies and is covered by the
/// spec module's unit tests instead. All-disabled specs (`none`) are
/// generated too and must round-trip like any other value.
fn churn_strategy(k: usize) -> impl Strategy<Value = ChurnSpec> {
    (
        prop::option::of(((0.01f64..0.3), prop::option::of(0..k))),
        prop::option::of(0.01f64..0.3),
        prop::option::of(((0.01f64..0.3), 0u64..4)),
    )
        .prop_map(|(join, leave, burst)| ChurnSpec {
            join: join.map_or(0.0, |(rate, _)| rate),
            join_opinion: join.and_then(|(_, opinion)| opinion),
            leave: leave.unwrap_or(0.0),
            burst: burst.map(|(fraction, after_phase)| BurstChurn {
                fraction,
                after_phase,
            }),
            rewire: 0.0,
        })
}

/// Noise schedules whose ε values are valid for every generated `k ≥ 2`
/// (the uniform family needs `ε ≤ 1 − 1/k`, so ε stays below 0.45).
fn schedule_strategy() -> impl Strategy<Value = NoiseSchedule> {
    prop_oneof![
        Just(NoiseSchedule::Const),
        ((0.01f64..0.45), 0u64..6)
            .prop_map(|(epsilon, from_phase)| NoiseSchedule::Step { epsilon, from_phase }),
        ((0.01f64..0.45), 0u64..6, 1u64..4).prop_map(|(epsilon, start_phase, width)| {
            NoiseSchedule::Burst {
                epsilon,
                start_phase,
                width,
            }
        }),
        ((0.01f64..0.45), (0.01f64..0.45), 1u64..8)
            .prop_map(|(start, end, over_phases)| NoiseSchedule::Ramp {
                start,
                end,
                over_phases,
            }),
    ]
}

fn clock_strategy() -> impl Strategy<Value = ClockSpec> {
    prop_oneof![
        Just(ClockSpec::Sync),
        (1.0f64..500_000.0).prop_map(|ppm| ClockSpec::Drift { ppm }),
        (0.01f64..0.99).prop_map(|miss| ClockSpec::Skew { miss }),
    ]
}

fn rule_strategy() -> impl Strategy<Value = RuleSpec> {
    prop_oneof![
        Just(RuleSpec::Voter),
        Just(RuleSpec::ThreeMajority),
        (1u32..100).prop_map(|h| RuleSpec::HMajority { h }),
        Just(RuleSpec::Undecided),
        Just(RuleSpec::Median),
    ]
}

fn init_strategy(k: usize) -> impl Strategy<Value = InitSpec> {
    prop_oneof![
        (0.0f64..0.9).prop_map(|bias| InitSpec::Biased { bias }),
        prop::collection::vec(1usize..10_000, k).prop_map(|mut counts| {
            // Valid specs need a unique plurality opinion.
            let max = counts.iter().max().copied().unwrap_or(0);
            counts[0] = max + 1;
            InitSpec::Counts(counts)
        }),
    ]
}

/// A kind consistent with the opinion count `k` by construction: the rumor
/// source is below `k` and explicit counts have exactly `k` entries.
fn kind_strategy(k: usize) -> impl Strategy<Value = ScenarioKind> {
    prop_oneof![
        (0..k).prop_map(|source| ScenarioKind::RumorSpreading { source }),
        init_strategy(k).prop_map(|init| ScenarioKind::PluralityConsensus { init }),
        init_strategy(k).prop_map(|init| ScenarioKind::Stage2Only { init }),
        (rule_strategy(), init_strategy(k), prop::option::of(1u64..100_000)).prop_map(
            |(rule, init, rounds)| ScenarioKind::DynamicsRule { rule, init, rounds }
        ),
        ((1u64..500), (0.0f64..0.9))
            .prop_map(|(ell, delta)| ScenarioKind::SampleMajorityGap { ell, delta }),
        ((1u64..100), init_strategy(k))
            .prop_map(|(rounds, init)| ScenarioKind::PhaseStats { rounds, init }),
    ]
}

/// Sweep axes consistent with the kind: a bias axis only for biased
/// initial configurations, no k axis (so per-k structures like explicit
/// counts stay valid), ell/delta axes only for gap scenarios, a delivery
/// axis only for phase scenarios.
fn sweep_strategy(kind: &ScenarioKind) -> BoxedStrategy<SweepAxes> {
    match kind {
        ScenarioKind::SampleMajorityGap { .. } => (
            prop::collection::vec(1u64..500, 0..3),
            prop::collection::vec(0.0f64..0.9, 0..3),
        )
            .prop_map(|(ell, delta)| SweepAxes {
                ell,
                delta,
                ..SweepAxes::default()
            })
            .boxed(),
        ScenarioKind::PhaseStats { .. } => {
            prop::collection::vec(prop::sample::select(DeliverySemantics::ALL.to_vec()), 0..3)
                .prop_map(|delivery| SweepAxes {
                    delivery,
                    ..SweepAxes::default()
                })
                .boxed()
        }
        _ => {
            let bias_axis: BoxedStrategy<Vec<f64>> =
                if matches!(kind.init(), Some(InitSpec::Biased { .. })) {
                    prop::collection::vec(0.0f64..0.9, 0..3).boxed()
                } else {
                    Just(Vec::new()).boxed()
                };
            (
                prop::collection::vec(100usize..50_000, 0..3),
                prop::collection::vec(0.01f64..0.6, 0..4),
                bias_axis,
            )
                .prop_map(|(n, eps, bias)| SweepAxes {
                    n,
                    eps,
                    bias,
                    ..SweepAxes::default()
                })
                .boxed()
        }
    }
}

/// An observe mode consistent with the kind (only the simulating kinds
/// support trajectory / per-phase observation).
fn observe_strategy(kind: &ScenarioKind) -> BoxedStrategy<ObserveMode> {
    if kind.is_protocol() || matches!(kind, ScenarioKind::DynamicsRule { .. }) {
        prop::sample::select(vec![
            ObserveMode::Summary,
            ObserveMode::Trajectory,
            ObserveMode::Phases,
        ])
        .boxed()
    } else {
        Just(ObserveMode::Summary).boxed()
    }
}

/// Stop conditions consistent with the kind (empty for the
/// below-simulation kinds).
fn stop_strategy(kind: &ScenarioKind) -> BoxedStrategy<StopSpec> {
    if kind.is_protocol() || matches!(kind, ScenarioKind::DynamicsRule { .. }) {
        (
            prop::option::of(1u64..1_000_000),
            prop::sample::select(vec![false, true]),
            prop::option::of(0.01f64..1.0),
            prop::option::of((1usize..10, 0.0f64..0.5)),
        )
            .prop_map(|(max_rounds, consensus, bias, plateau)| StopSpec {
                max_rounds,
                consensus,
                bias,
                plateau,
            })
            .boxed()
    } else {
        Just(StopSpec::default()).boxed()
    }
}

fn metrics_strategy(kind: &ScenarioKind) -> BoxedStrategy<Vec<Metric>> {
    let pool: Vec<Metric> = Metric::ALL
        .into_iter()
        .filter(|m| m.supported_by(kind))
        .collect();
    prop::collection::vec(prop::sample::select(pool), 0..5).boxed()
}

fn spec_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (2usize..6)
        .prop_flat_map(|k| (Just(k), kind_strategy(k)))
        .prop_flat_map(|(k, kind)| {
            let sweep = sweep_strategy(&kind);
            let metrics = metrics_strategy(&kind);
            let observe = observe_strategy(&kind);
            let stop = stop_strategy(&kind);
            // Faults apply only to protocol scenarios; everything else
            // keeps the all-disabled default.
            let faults: BoxedStrategy<(FaultSpec, Vec<FaultSpec>)> = if kind.is_protocol() {
                (
                    fault_strategy(k),
                    prop::collection::vec(fault_strategy(k), 0..3),
                )
                    .boxed()
            } else {
                Just((FaultSpec::none(), Vec::new())).boxed()
            };
            (
                (Just(k), Just(kind), 100usize..100_000, 0.01f64..0.9),
                (
                    noise_strategy(),
                    prop::sample::select(DeliverySemantics::ALL.to_vec()),
                    prop::sample::select(vec![
                        ExecutionBackend::Agent,
                        ExecutionBackend::Counting,
                        ExecutionBackend::Auto,
                    ]),
                ),
                (1u64..50, 0u64..u64::MAX, sweep, metrics),
                (0.01f64..1.0, 0.5f64..4.0),
                (observe, stop, faults),
                (
                    (
                        topology_strategy(),
                        prop::collection::vec(topology_strategy(), 0..3),
                    ),
                    (
                        churn_strategy(k),
                        prop::collection::vec(churn_strategy(k), 0..3),
                        schedule_strategy(),
                        prop::collection::vec(schedule_strategy(), 0..3),
                        clock_strategy(),
                    ),
                ),
            )
        })
        .prop_map(|(base, channel, run, consts, watch, (topo, temporal))| {
            let (k, kind, n, epsilon) = base;
            let (noise, delivery, backend) = channel;
            let (trials, seed, sweep, metrics) = run;
            let (observe, stop, (fault, fault_axis)) = watch;
            let (topology, topology_axis) = topo;
            let (churn, churn_axis, schedule, schedule_axis, clock) = temporal;
            let mut spec = ScenarioSpec::new(kind, n, k);
            spec.epsilon = epsilon;
            spec.noise = noise;
            spec.delivery = delivery;
            spec.backend = backend;
            spec.trials = trials;
            spec.seed = seed;
            spec.sweep = sweep;
            // Delayed delivery needs a backend that can buffer messages
            // across phases (not counting), and a crash must be able to
            // activate before any round budget stops the run; repair the
            // generated faults where those static checks would fire.
            fn fix_fault(fault: &mut FaultSpec, counting: bool, max_rounds: Option<u64>) {
                if counting {
                    fault.delay = 0.0;
                }
                if let Some(max) = max_rounds {
                    match &mut fault.crash {
                        Some(crash) if max >= 2 => {
                            crash.after_phase = crash.after_phase.min(max - 2);
                        }
                        Some(_) => fault.crash = None,
                        None => {}
                    }
                }
            }
            spec.fault = fault;
            spec.sweep.fault = fault_axis;
            let counting = spec.backend == ExecutionBackend::Counting;
            fix_fault(&mut spec.fault, counting, stop.max_rounds);
            for fault in &mut spec.sweep.fault {
                fix_fault(fault, counting, stop.max_rounds);
            }
            let faults_enabled = !spec.fault.is_none() || !spec.sweep.fault.is_empty();
            // Non-complete topologies are only valid with exact delivery
            // on a non-counting backend, without faults (which require the
            // complete graph), and `gap` has no network at all; apply the
            // generated topology where it is consistent.
            let simulates = spec.kind.is_protocol()
                || matches!(
                    spec.kind,
                    ScenarioKind::DynamicsRule { .. } | ScenarioKind::PhaseStats { .. }
                );
            if simulates
                && spec.delivery == DeliverySemantics::Exact
                && spec.backend != ExecutionBackend::Counting
                && spec.sweep.delivery.is_empty()
                && !faults_enabled
            {
                spec.topology = topology;
                spec.sweep.topology = topology_axis;
            }
            // Temporal axes are protocol-only. Population churn further
            // requires the complete graph and no identity-pinning fault
            // (crash/byzantine/delay), a ramp schedule excludes an eps
            // sweep (it would override every swept ε), and non-sync
            // clocks cannot run on the counting backend; apply the
            // generated temporal values where they are consistent.
            if spec.kind.is_protocol() {
                let pins_identity = |f: &FaultSpec| {
                    f.crash.is_some() || f.byzantine.is_some() || f.delay > 0.0
                };
                if spec.topology.is_complete()
                    && spec.sweep.topology.is_empty()
                    && !pins_identity(&spec.fault)
                    && spec.sweep.fault.iter().all(|f| !pins_identity(f))
                {
                    spec.churn = churn;
                    spec.sweep.churn = churn_axis;
                }
                let eps_swept = !spec.sweep.eps.is_empty();
                fn fix_schedule(s: NoiseSchedule, eps_swept: bool) -> NoiseSchedule {
                    if eps_swept && matches!(s, NoiseSchedule::Ramp { .. }) {
                        NoiseSchedule::Const
                    } else {
                        s
                    }
                }
                spec.schedule = fix_schedule(schedule, eps_swept);
                spec.sweep.schedule = schedule_axis
                    .into_iter()
                    .map(|s| fix_schedule(s, eps_swept))
                    .collect();
                if spec.backend != ExecutionBackend::Counting {
                    spec.clock = clock;
                }
            }
            // The observe mode fixes the columns; explicit metrics are
            // only valid in summary mode.
            spec.observe = observe;
            if observe == ObserveMode::Summary {
                spec.metrics = metrics;
            }
            spec.stop = stop;
            // Exercise non-default constants while keeping the
            // phi > beta > s ordering the params builder validates.
            let (s, gap) = consts;
            spec.constants.set("s", s);
            spec.constants.set("beta", s + gap);
            spec.constants.set("phi", s + 2.0 * gap);
            spec
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Generated specs are valid by construction, and spec -> text -> spec
    /// is the identity for every one of them.
    #[test]
    fn text_form_round_trips(spec in spec_strategy()) {
        prop_assert!(spec.validate().is_ok(), "generator produced an invalid spec: {spec:?}");
        let text = spec.to_text();
        let parsed = ScenarioSpec::from_text(&text)
            .unwrap_or_else(|e| panic!("serialized spec must parse: {e}\n{text}"));
        prop_assert_eq!(parsed, spec);
    }

    /// Serialization is canonical: parsing and re-serializing reproduces
    /// byte-identical text.
    #[test]
    fn text_form_is_canonical(spec in spec_strategy()) {
        let text = spec.to_text();
        let reparsed = ScenarioSpec::from_text(&text).unwrap();
        prop_assert_eq!(reparsed.to_text(), text);
    }

    /// The content-address is stable under parse -> canonicalize ->
    /// parse: a spec file and its canonical round trip always map to
    /// the same cache key on the scenario service.
    #[test]
    fn canonical_digest_survives_round_trip(spec in spec_strategy()) {
        let text = spec.to_text();
        let reparsed = ScenarioSpec::from_text(&text).unwrap();
        prop_assert_eq!(reparsed.canonical_digest(), spec.canonical_digest());
        let reparsed_twice = ScenarioSpec::from_text(&reparsed.to_text()).unwrap();
        prop_assert_eq!(reparsed_twice.canonical_digest(), spec.canonical_digest());
    }

    /// The digest folds the seed in: equal canonical text with different
    /// seeds must not collide (the cache would otherwise serve one
    /// seed's rows for another).
    #[test]
    fn canonical_digest_separates_seeds(spec in spec_strategy()) {
        let mut reseeded = spec.clone();
        reseeded.seed = spec.seed.wrapping_add(1);
        prop_assert_ne!(reseeded.canonical_digest(), spec.canonical_digest());
    }
}

/// The digest algorithm (FNV-1a 64 over canonical text, then the seed's
/// little-endian bytes) is part of the service's on-the-wire contract:
/// cached results survive server restarts only if the digest never
/// drifts. Pin a known spec's digest so accidental changes to the
/// canonical text or the hash are caught here.
#[test]
fn canonical_digest_is_pinned() {
    let spec = ScenarioSpec::from_text(
        "scenario = rumor\nsource = 0\nn = 300\nk = 2\nepsilon = 0.3\n\
         noise = uniform(0.3)\ntrials = 2\nseed = 11\n",
    )
    .expect("valid spec");
    assert_eq!(spec.canonical_digest(), 0x6bb2_af56_26bf_4374);
}

/// Malformed fault configurations are caught statically — `from_text`
/// runs `validate()`, so fault campaigns fail at spec load, not per grid
/// cell at run time.
fn load_error(text: &str) -> String {
    ScenarioSpec::from_text(text)
        .expect_err("spec must be rejected at load time")
        .to_string()
}

#[test]
fn fault_probabilities_outside_the_unit_interval_are_rejected_statically() {
    let err =
        load_error("scenario = plurality\nbias = 0.2\nn = 500\nk = 3\nfault = drop(1.5)\n");
    assert!(
        err.contains("probability in [0, 1]"),
        "expected a probability-range error, got: {err}"
    );
}

#[test]
fn byzantine_opinions_must_name_a_real_opinion() {
    let err =
        load_error("scenario = plurality\nbias = 0.2\nn = 500\nk = 3\nfault = byz(0.1:3)\n");
    assert!(
        err.contains("out of range"),
        "expected an opinion-range error, got: {err}"
    );

    // The same check runs against every point of a k sweep, not just the
    // base k: opinion 3 is fine for k = 4 but not for the swept k = 2.
    let err = load_error(
        "scenario = rumor\nsource = 0\nn = 500\nk = 4\nsweep.k = 2, 4\nfault = byz(0.1:3)\n",
    );
    assert!(
        err.contains("out of range"),
        "swept k = 2 cannot satisfy byz opinion 3, got: {err}"
    );
}

#[test]
fn crashes_that_can_never_activate_are_rejected_statically() {
    let err = load_error(
        "scenario = plurality\nbias = 0.2\nn = 500\nk = 3\n\
         fault = crash(0.1@10)\nstop.max_rounds = 5\n",
    );
    assert!(
        err.contains("can never activate"),
        "expected a crash-vs-stop error, got: {err}"
    );

    // With a budget that does reach past the crash phase, the same spec
    // is fine.
    ScenarioSpec::from_text(
        "scenario = plurality\nbias = 0.2\nn = 500\nk = 3\n\
         fault = crash(0.1@10)\nstop.max_rounds = 500\n",
    )
    .expect("a reachable crash phase is valid");
}

#[test]
fn population_churn_outside_the_complete_graph_is_rejected_statically() {
    let err = load_error(
        "scenario = plurality\nbias = 0.2\nn = 500\nk = 3\n\
         topology = ring\nchurn = join(0.1)\n",
    );
    assert!(
        err.contains("complete graph"),
        "expected a churn-vs-topology error, got: {err}"
    );
}

#[test]
fn population_churn_with_identity_pinning_faults_is_rejected_statically() {
    let err = load_error(
        "scenario = plurality\nbias = 0.2\nn = 500\nk = 3\n\
         churn = leave(0.1)\nsweep.fault = none, crash(0.1@2)\n",
    );
    assert!(
        err.contains("identity-pinning"),
        "expected a churn-vs-fault error, got: {err}"
    );

    // Message-level faults compose fine.
    ScenarioSpec::from_text(
        "scenario = plurality\nbias = 0.2\nn = 500\nk = 3\n\
         churn = leave(0.1)\nsweep.fault = none, drop(0.2)\n",
    )
    .expect("churn composes with message-level faults");
}

#[test]
fn scheduled_epsilons_are_checked_against_every_swept_k() {
    // ε = 0.6 needs k ≥ 3 (the uniform family's ε ≤ 1 − 1/k bound).
    let err = load_error(
        "scenario = rumor\nsource = 0\nn = 500\nk = 3\n\
         sweep.k = 2, 3\nschedule = step(0.6@2)\n",
    );
    assert!(
        err.contains("step(0.6@2)"),
        "expected the schedule to be named in the error, got: {err}"
    );
}

#[test]
fn ramp_schedules_exclude_an_eps_sweep() {
    let err = load_error(
        "scenario = rumor\nsource = 0\nn = 500\nk = 3\n\
         sweep.eps = 0.1, 0.2\nschedule = ramp(0.1:0.4@6)\n",
    );
    assert!(
        err.contains("sweep.eps"),
        "expected a ramp-vs-eps-sweep error, got: {err}"
    );
}

#[test]
fn edge_churn_hint_suggests_topology_spellings_that_parse() {
    let err = load_error(
        "scenario = rumor\nsource = 0\nn = 500\nk = 3\nchurn = rewire(0.2)\n",
    );
    for (family, example) in [("regular(d)", "regular(8)"), ("er(p)", "er(0.01)")] {
        assert!(err.contains(family), "expected {family} in the hint, got: {err}");
        assert!(
            example.parse::<TopologySpec>().is_ok(),
            "{example} must parse as the hint promises"
        );
    }
}

#[test]
fn drifting_clocks_cannot_be_forced_onto_counting_backends() {
    let err = load_error(
        "scenario = rumor\nsource = 0\nn = 500\nk = 3\n\
         clock = drift(20000)\nbackend = counting\n",
    );
    assert!(
        err.contains("counting backends"),
        "expected a clock-vs-backend error, got: {err}"
    );
}
