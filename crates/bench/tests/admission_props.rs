//! Validation and construction agree: a generated plurality spec passes
//! [`ScenarioSpec::validate`] if and only if every grid cell builds its
//! noise matrix, its protocol and the network of the backend the cell
//! resolves to, and seeds that network with its initial counts.

use noisy_bench::biased_counts;
use noisy_bench::runner::{cell_noise, cell_params, expand_grid};
use noisy_bench::spec::{InitSpec, ScenarioKind, ScenarioSpec};
use noisy_channel::NoiseSpec;
use plurality_core::{ExecutionBackend, TwoStageProtocol};
use proptest::prelude::*;
use proptest::prop::sample::select;
use pushsim::{CountingNetwork, DeliverySemantics, Network, TopologySpec};

fn spec_strategy() -> impl Strategy<Value = ScenarioSpec> {
    let shape = (
        select(vec![1usize, 16, 64]),
        select(vec![2usize, 3]),
        select(DeliverySemantics::ALL.to_vec()),
        select(vec![
            TopologySpec::Complete,
            TopologySpec::Ring,
            TopologySpec::Torus2D,
            TopologySpec::RandomRegular { degree: 4 },
            TopologySpec::ErdosRenyi { p: 0.2 },
        ]),
        select(vec![
            ExecutionBackend::Agent,
            ExecutionBackend::Counting,
            ExecutionBackend::Auto,
        ]),
    );
    let axes = (
        select(vec![
            "none",
            "drop(0.1)",
            "delay(0.2)",
            "crash(0.1@2)",
            "byz(0.1:1)",
        ]),
        select(vec!["none", "leave(0.1)", "rewire(0.2)"]),
        select(vec!["const", "step(0.4@2)", "step(0.6@2)"]),
        select(vec!["sync", "drift(20000)"]),
    );
    // ε beyond the uniform family's 1 − 1/k bound (base or swept), and
    // explicit counts that outgrow a swept n.
    let inputs = (
        select(vec![0.2, 0.6, 0.9]),
        prop::bool::ANY,
        prop::bool::ANY,
        prop::bool::ANY,
    );
    (shape, axes, inputs).prop_map(
        |(
            (n, k, delivery, topology, backend),
            (fault, churn, schedule, clock),
            (epsilon, sweep_eps, explicit_counts, sweep_n),
        )| {
            let init = if explicit_counts {
                InitSpec::Counts([9, 4, 2][..k].to_vec())
            } else {
                InitSpec::Biased { bias: 0.2 }
            };
            let kind = ScenarioKind::PluralityConsensus { init };
            let mut spec = ScenarioSpec::new(kind, n, k);
            if sweep_eps {
                spec.sweep.eps = vec![0.2, epsilon];
            } else {
                spec.epsilon = epsilon;
                spec.noise = NoiseSpec::Uniform { epsilon };
            }
            if sweep_n {
                spec.sweep.n = vec![64, 8];
            }
            spec.delivery = delivery;
            spec.topology = topology;
            spec.backend = backend;
            spec.fault = fault.parse().unwrap();
            spec.churn = churn.parse().unwrap();
            spec.schedule = schedule.parse().unwrap();
            spec.clock = clock.parse().unwrap();
            spec
        },
    )
}

/// Builds every cell the way a run would, reporting the first failure.
fn construct_every_cell(spec: &ScenarioSpec) -> Result<(), String> {
    for point in expand_grid(spec) {
        let params = cell_params(spec, &point, spec.seed).map_err(|e| e.to_string())?;
        let noise = cell_noise(spec, &point)
            .build(point.k)
            .map_err(|e| e.to_string())?;
        let protocol =
            TwoStageProtocol::new(params.clone(), noise.clone()).map_err(|e| e.to_string())?;
        let counts = match spec.kind.init() {
            Some(InitSpec::Counts(counts)) => counts.clone(),
            _ => biased_counts(point.n, point.k, 0.2),
        };
        protocol
            .validate_initial_counts(&counts)
            .map_err(|e| e.to_string())?;
        let config = params.sim_config().map_err(|e| e.to_string())?;
        match protocol.resolve(spec.backend) {
            ExecutionBackend::Counting => CountingNetwork::new(config, noise)
                .and_then(|mut net| net.seed_counts(&counts))
                .map_err(|e| e.to_string())?,
            _ => Network::new(config, noise)
                .and_then(|mut net| net.seed_counts(&counts))
                .map_err(|e| e.to_string())?,
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn validation_admits_exactly_the_specs_whose_cells_construct(spec in spec_strategy()) {
        let validated = spec.validate();
        let constructed = construct_every_cell(&spec);
        prop_assert_eq!(
            validated.is_ok(),
            constructed.is_ok(),
            "validate: {:?}\nconstruct: {:?}\nspec:\n{}",
            validated.err().map(|e| e.to_string()),
            constructed.err(),
            spec.to_text()
        );
    }
}
