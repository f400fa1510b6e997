//! Sparse topologies run as sparse dynamics: agent-level, exact delivery
//! only. A spec that asks for anything else fails validation with an
//! actionable message (and `xp run --spec` exits 2 on it), and a ring run
//! measurably differs from the complete graph at the same seed.

use noisy_bench::biased_counts;
use noisy_bench::spec::{ScenarioSpec, SpecError};
use noisy_channel::NoiseMatrix;
use plurality_core::{ExecutionBackend, Outcome, ProtocolParams, StageId, TwoStageProtocol};
use pushsim::{Opinion, TopologySpec};
use std::process::Command;

const RING_POISSON_AGENT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/ring_poisson_agent.spec"
);

#[test]
fn ring_with_poissonized_delivery_fails_validation_pointing_at_exact() {
    let text = std::fs::read_to_string(RING_POISSON_AGENT).unwrap();
    match ScenarioSpec::from_text(&text) {
        Err(SpecError::Invalid(message)) => assert!(
            message.contains("delivery = exact"),
            "the error must name the admissible delivery, got: {message}"
        ),
        other => panic!("expected a validation error, got {other:?}"),
    }
}

#[test]
fn xp_run_spec_exits_with_a_usage_error_on_the_inadmissible_spec() {
    let output = Command::new(env!("CARGO_BIN_EXE_xp"))
        .args(["run", "--spec", RING_POISSON_AGENT])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("delivery = exact"), "stderr: {stderr}");
}

/// Plurality consensus at n = 1024, k = 3, bias 0.2, ε = 0.25 on the agent
/// backend with exact delivery, seed 7.
fn plurality_on(topology: TopologySpec) -> Outcome {
    let params = ProtocolParams::builder(1_024, 3)
        .epsilon(0.25)
        .seed(7)
        .topology(topology)
        .build()
        .unwrap();
    let noise = NoiseMatrix::uniform(3, 0.25).unwrap();
    TwoStageProtocol::new(params, noise)
        .unwrap()
        .run_plurality_consensus_on(ExecutionBackend::Agent, &biased_counts(1_024, 3, 0.2))
        .unwrap()
}

/// Bias towards the plurality after Stage 2 over the bias Stage 1 left.
fn stage2_amplification(outcome: &Outcome) -> f64 {
    let bias_after = |stage| {
        outcome
            .stage_records(stage)
            .last()
            .and_then(|r| r.bias_after())
            .expect("both stages ran")
    };
    bias_after(StageId::Two) / bias_after(StageId::One)
}

fn plurality_share(outcome: &Outcome) -> f64 {
    let dist = outcome.final_distribution();
    dist.counts()[Opinion::new(0).index()] as f64 / dist.num_nodes() as f64
}

#[test]
fn a_ring_run_is_not_the_complete_graph_under_another_label() {
    let complete = plurality_on(TopologySpec::Complete);
    let ring = plurality_on(TopologySpec::Ring);
    assert_eq!(
        complete.rounds(),
        ring.rounds(),
        "same schedule on both graphs"
    );
    let (complete_amp, ring_amp) = (stage2_amplification(&complete), stage2_amplification(&ring));
    let (complete_share, ring_share) = (plurality_share(&complete), plurality_share(&ring));
    assert_eq!(complete_share, 1.0, "the paper's model reaches consensus");
    assert!(
        ring_share < 0.9,
        "the ring's local mixing keeps it far from consensus, got share {ring_share}"
    );
    assert!(
        ring_amp < 0.5 * complete_amp,
        "Stage 2 amplifies far less on the ring: ring {ring_amp}, complete {complete_amp}"
    );
}
