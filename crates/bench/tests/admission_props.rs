//! Validation and construction agree: a generated plurality spec passes
//! [`ScenarioSpec::validate`] if and only if every grid cell builds its
//! protocol and the network of the backend the cell resolves to.

use noisy_bench::runner::{cell_params, expand_grid};
use noisy_bench::spec::{InitSpec, ScenarioKind, ScenarioSpec};
use noisy_channel::NoiseMatrix;
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
    (shape, axes).prop_map(
        |((n, k, delivery, topology, backend), (fault, churn, schedule, clock))| {
            let kind = ScenarioKind::PluralityConsensus {
                init: InitSpec::Biased { bias: 0.2 },
            };
            let mut spec = ScenarioSpec::new(kind, n, k);
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
        let noise = NoiseMatrix::uniform(point.k, point.eps).map_err(|e| e.to_string())?;
        let protocol =
            TwoStageProtocol::new(params.clone(), noise.clone()).map_err(|e| e.to_string())?;
        let config = params.sim_config().map_err(|e| e.to_string())?;
        match protocol.resolve(spec.backend) {
            ExecutionBackend::Counting => {
                CountingNetwork::new(config, noise).map_err(|e| e.to_string())?;
            }
            _ => {
                Network::new(config, noise).map_err(|e| e.to_string())?;
            }
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
