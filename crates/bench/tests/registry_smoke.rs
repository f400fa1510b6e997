//! Registry smoke test: every registered experiment runs end to end at
//! quick scale.
//!
//! The run uses the CLI's `--trials`/`--backend` overrides to keep the
//! suite fast: two trials per cell and the O(k²)-per-phase counting
//! backend for protocol runs (experiments that are inherently agent-level,
//! like F8's delivery comparison, ignore the backend override by design).

use noisy_bench::{registry, Cli, Scale};
use plurality_core::ExecutionBackend;

fn smoke_cli() -> Cli {
    Cli {
        scale: Scale::Quick,
        json: true,
        stream: false,
        backend: Some(ExecutionBackend::Counting),
        trials: Some(2),
        seed: None,
    }
}

#[test]
fn every_registered_experiment_runs_at_quick_scale() {
    let cli = smoke_cli();
    for experiment in registry::all() {
        let mut cli = cli;
        // `topo` sweeps non-complete topologies, which the counting
        // backend cannot represent; the spec's own backend (auto, which
        // resolves sparse points to agent) is the only meaningful choice
        // there.
        if experiment.name == "topo" {
            cli.backend = None;
        }
        registry::run(experiment, &cli)
            .unwrap_or_else(|e| panic!("experiment {} failed: {e}", experiment.name));
    }
}

#[test]
fn spec_backed_experiments_expose_valid_specs_at_both_scales() {
    for experiment in registry::all() {
        for scale in [Scale::Quick, Scale::Full] {
            let Some(spec) = experiment.spec(scale) else {
                continue;
            };
            spec.validate()
                .unwrap_or_else(|e| panic!("{} spec invalid at {scale:?}: {e}", experiment.name));
            assert!(spec.sweep.num_points() >= 1);
        }
    }
}

#[test]
fn f4_exact_gap_matches_the_monte_carlo_gap_beyond_two_opinions() {
    use noisy_bench::runner::{PointSummary, Runner};
    let mut spec = registry::find("f4")
        .and_then(|f4| f4.spec(Scale::Quick))
        .expect("f4 is a spec");
    spec.sweep.k = vec![3, 4, 5];
    // The measured gap is a difference of two frequencies over `trials`
    // samples: its standard error is at most 1/√trials.
    let band = 4.0 / (spec.trials as f64).sqrt();
    let report = Runner::new(spec).unwrap().run().unwrap();
    assert_eq!(report.points().len(), 3 * 4 * 4);
    for point in report.points() {
        let PointSummary::Gap(gap) = &point.summary else {
            panic!("f4 produces gap summaries");
        };
        assert!(
            (gap.exact - gap.measured).abs() <= band,
            "{:?}: exact {} vs measured {} (band {band})",
            point.point,
            gap.exact,
            gap.measured
        );
    }
}
