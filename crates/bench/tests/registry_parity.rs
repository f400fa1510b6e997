//! Fixed-seed parity tests: the spec-API registry reproduces the
//! pre-redesign harnesses bit for bit.
//!
//! `fixtures/f2_quick_pre_redesign.jsonl` pins the numbers of the old
//! hand-wired `fig_f2_rounds_vs_eps` binary (quick grid, default
//! backend), captured immediately before the binaries were collapsed into
//! the registry. `fixtures/f5_quick_pre_redesign.jsonl` pins the `xp run
//! f5 --json` output of the *bespoke* F5 builder, captured immediately
//! before F5 became a `ScenarioSpec` with `observe.trajectory` — it pins
//! the whole observation path (Session → Observer → TrajectoryRecorder →
//! table) to the pre-redesign execution: same seeds, same RNG streams,
//! same per-phase numbers.
//!
//! Both fixtures were re-rendered (numbers verified unchanged field by
//! field) when `--json` switched from all-string cells to typed JSON
//! numbers and the trajectory table gained its `topology` column; the
//! *values* are still the pre-redesign ones, so any drift in the RNG
//! streams or the execution path fails these tests.
//!
//! Running the registry specs through the generic [`Runner`] must produce
//! identical rows in both cases.
//!
//! Both of those resolve to the agent backend. The counting backend's
//! Stage 2 (its sample-majority operator, `pushsim::counting`) is pinned by
//! `fixtures/counting_stage2_trajectory.jsonl`: the streamed trajectory of
//! `fixtures/counting_stage2_trajectory.spec` (k = 2, 8, 32, 64 at
//! n = 10⁵, ℓ = 129). Its k = 2 and k = 8 rows come from the exact-law
//! route (one multinomial over the sample-majority pmf) and were
//! re-captured when that route was added; the k = 32 and 64 rows come from
//! the per-message alias sampler those cells select, and were re-captured
//! when it was added.

use noisy_bench::registry;
use noisy_bench::runner::Runner;
use noisy_bench::spec::ScenarioSpec;
use noisy_bench::Scale;

const F2_PRE_REDESIGN: &str = include_str!("fixtures/f2_quick_pre_redesign.jsonl");
const F5_PRE_REDESIGN: &str = include_str!("fixtures/f5_quick_pre_redesign.jsonl");
const COUNTING_STAGE2_SPEC: &str = include_str!("fixtures/counting_stage2_trajectory.spec");
const COUNTING_STAGE2_TRAJECTORY: &str = include_str!("fixtures/counting_stage2_trajectory.jsonl");

fn registry_json(name: &str) -> String {
    let experiment = registry::find(name).expect("experiment is registered");
    let spec = experiment.spec(Scale::Quick).expect("experiment is spec-backed");
    let report = Runner::new(spec).unwrap().run().unwrap();
    report.to_table().to_json_lines()
}

#[test]
fn f2_registry_run_matches_the_pre_redesign_binary_output() {
    assert_eq!(
        registry_json("f2"),
        F2_PRE_REDESIGN,
        "registry f2 must reproduce the pre-redesign binary bit for bit"
    );
}

#[test]
fn f5_trajectory_spec_matches_the_pre_redesign_bespoke_output() {
    assert_eq!(
        registry_json("f5"),
        F5_PRE_REDESIGN,
        "the observe.trajectory spec must reproduce the bespoke F5 builder bit for bit"
    );
}

#[test]
fn f5_streamed_output_matches_the_pinned_fixture_too() {
    // `--stream` must emit exactly the same rows, just incrementally.
    let spec = registry::find("f5")
        .unwrap()
        .spec(Scale::Quick)
        .unwrap();
    let mut out = Vec::new();
    Runner::new(spec).unwrap().run_streamed(&mut out).unwrap();
    assert_eq!(String::from_utf8(out).unwrap(), F5_PRE_REDESIGN);
}

#[test]
fn counting_stage2_trajectory_matches_the_pinned_fixture() {
    let spec = ScenarioSpec::from_text(COUNTING_STAGE2_SPEC).expect("the fixture spec parses");
    let mut out = Vec::new();
    Runner::new(spec).unwrap().run_streamed(&mut out).unwrap();
    assert_eq!(
        String::from_utf8(out).unwrap(),
        COUNTING_STAGE2_TRAJECTORY,
        "the counting backend's Stage 2 must reproduce the pinned trajectory bit for bit"
    );
}
