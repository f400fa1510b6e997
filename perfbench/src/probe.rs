//! Unit costs of the `pushsim` backends and the noise channel, timed
//! through their public functions at each workload's (n, k, ε, topology).
//! Only the layers a workload's trials go through are probed on it.

use crate::sim::{repeat_timed, SimWorkload};
use crate::stats::{median, Metric};
use noisy_bench::biased_counts;
use noisy_channel::{sampling, NoiseMatrix};
use plurality_core::ProtocolParams;
use pushsim::{
    AdoptionScope, CountingNetwork, DeliverySemantics, Network, PushBackend, SimConfig, Topology,
    TopologySpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The first Stage 1 phase length and the first Stage 2 sample size of
/// the protocol schedule at (n, k, ε).
fn schedule(n: usize, k: usize, eps: f64) -> (u64, u64) {
    let params = ProtocolParams::builder(n, k)
        .epsilon(eps)
        .build()
        .expect("valid probe parameters");
    let s = params.schedule();
    (s.stage1_phase_lengths()[0], s.stage2_sample_sizes()[0])
}

fn config(
    n: usize,
    k: usize,
    seed: u64,
    delivery: DeliverySemantics,
    topology: TopologySpec,
) -> SimConfig {
    SimConfig::builder(n, k)
        .seed(seed)
        .delivery(delivery)
        .topology(topology)
        .build()
        .expect("valid probe configuration")
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Per-call costs of one agent-backend phase at a time: a push round per
/// message, `end_phase` per node, and the two decision operators per node.
struct AgentCosts {
    push_ns_per_msg: f64,
    end_phase_ns_per_node: f64,
    decide_ns_per_node: f64,
}

fn agent_costs(n: usize, k: usize, eps: f64, topology: TopologySpec, seed: u64) -> AgentCosts {
    let (stage1_len, sample) = schedule(n, k, eps);
    let noise = NoiseMatrix::uniform(k, eps).expect("valid noise");
    let mut net = Network::new(
        config(n, k, seed, DeliverySemantics::Exact, topology),
        noise,
    )
    .expect("valid probe network");
    let counts = biased_counts(n, k, 0.2);
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut push, mut msgs, mut end, mut decide) = (Vec::new(), 0u64, Vec::new(), Vec::new());
    let started = Instant::now();
    let mut phase = 0;
    while phase < 4 || (phase < 200 && started.elapsed() < Duration::from_millis(400)) {
        PushBackend::seed_counts(&mut net, &counts).expect("valid counts");
        let stage2 = phase % 2 == 1;
        let rounds = if stage2 { 2 * sample } else { stage1_len };
        net.begin_phase();
        let before = net.messages_sent();
        let t = Instant::now();
        for _ in 0..rounds {
            black_box(net.push_opinionated_round());
        }
        push.push(t.elapsed().as_secs_f64());
        msgs += net.messages_sent() - before;
        let t = Instant::now();
        black_box(PushBackend::end_phase(&mut net));
        end.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        if stage2 {
            net.resolve_sample_majority(sample, &mut rng);
        } else {
            net.resolve_uniform_adoption(AdoptionScope::UndecidedOnly, &mut rng);
        }
        decide.push(t.elapsed().as_secs_f64());
        phase += 1;
    }
    AgentCosts {
        push_ns_per_msg: push.iter().sum::<f64>() * 1e9 / msgs.max(1) as f64,
        end_phase_ns_per_node: mean(&end) * 1e9 / n as f64,
        decide_ns_per_node: mean(&decide) * 1e9 / n as f64,
    }
}

/// One counting-backend Stage 2 phase (2ℓ rounds) and its sample-majority
/// decision, in µs (medians).
fn counting_costs(n: usize, k: usize, eps: f64, seed: u64) -> (f64, f64) {
    let (_, sample) = schedule(n, k, eps);
    let noise = NoiseMatrix::uniform(k, eps).expect("valid noise");
    let mut net = CountingNetwork::new(
        config(
            n,
            k,
            seed,
            DeliverySemantics::Poissonized,
            TopologySpec::Complete,
        ),
        noise,
    )
    .expect("valid probe network");
    let counts = biased_counts(n, k, 0.2);
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut phase, mut majority) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while phase.len() < 5 || (phase.len() < 500 && started.elapsed() < Duration::from_millis(150)) {
        net.seed_counts(&counts).expect("valid counts");
        let t = Instant::now();
        net.begin_phase();
        for _ in 0..2 * sample {
            black_box(net.push_opinionated_round());
        }
        black_box(net.end_phase());
        phase.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        net.resolve_sample_majority(sample, &mut rng);
        majority.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (median(&phase), median(&majority))
}

/// `NoiseMatrix::sample`, per call, in ns.
fn sample_ns(k: usize, eps: f64, seed: u64) -> f64 {
    let noise = NoiseMatrix::uniform(k, eps).expect("valid noise");
    let mut rng = StdRng::seed_from_u64(seed);
    const CALLS: usize = 100_000;
    let times = repeat_timed(5, 50, Duration::from_millis(200), || {
        let mut acc = 0;
        for i in 0..CALLS {
            acc += noise.sample(i % k, &mut rng);
        }
        acc
    });
    median(&times) * 1e9 / CALLS as f64
}

/// `NoiseMatrix::recolor_counts` of one phase's pending messages (µs) and
/// one `sampling::multinomial` draw of a row (ns), at `k` opinions.
fn recolor_costs(n: usize, k: usize, eps: f64, seed: u64) -> (f64, f64) {
    let noise = NoiseMatrix::uniform(k, eps).expect("valid noise");
    let mut rng = StdRng::seed_from_u64(seed);
    let pending: Vec<u64> = biased_counts(n, k, 0.2)
        .iter()
        .map(|&c| c as u64 * 8)
        .collect();
    let recolor = repeat_timed(5, 2000, Duration::from_millis(150), || {
        noise.recolor_counts(&pending, &mut rng)
    });
    let row = noise.row(0).to_vec();
    let draws = repeat_timed(5, 20_000, Duration::from_millis(150), || {
        sampling::multinomial(pending[0], &row, &mut rng)
    });
    (median(&recolor) * 1e6, median(&draws) * 1e9)
}

fn family_suffix(topology: TopologySpec) -> &'static str {
    match topology {
        TopologySpec::Ring => "ring",
        TopologySpec::Torus2D => "torus",
        TopologySpec::RandomRegular { .. } => "regular8",
        TopologySpec::ErdosRenyi { .. } => "er",
        TopologySpec::Complete => "complete",
    }
}

/// The per-layer unit costs of workload `w`.
pub fn run(w: &SimWorkload, seed: u64) -> Vec<Metric> {
    let prep =
        crate::sim::prepare(&w.spec_text(seed), w.backend).expect("the workload prepared before");
    let point = prep.cells[0].point;
    let mut m = Vec::new();
    match w.name {
        "campaign_counting" => {
            for cell in &prep.cells {
                let k = cell.point.k;
                let (phase, majority) = counting_costs(cell.point.n, k, cell.point.eps, seed);
                m.push(Metric::single(
                    &format!("pushsim.counting.phase_us.k{k}"),
                    "us",
                    phase,
                    1,
                ));
                m.push(Metric::single(
                    &format!("pushsim.counting.majority_us.k{k}"),
                    "us",
                    majority,
                    1,
                ));
            }
            let last = prep.cells.last().expect("the sweep has cells").point;
            let (recolor, multinomial) = recolor_costs(last.n, last.k, last.eps, seed);
            m.push(Metric::single("noise.recolor_us", "us", recolor, 1));
            m.push(Metric::single("noise.multinomial_ns", "ns", multinomial, 1));
        }
        "topo_sparse" => {
            // The agent backend's unit costs on the complete graph at this
            // workload's (n, k, eps), next to the sparse families below.
            let c = agent_costs(point.n, point.k, point.eps, TopologySpec::Complete, seed);
            m.push(Metric::single(
                "pushsim.network.push_ns_per_msg",
                "ns",
                c.push_ns_per_msg,
                1,
            ));
            m.push(Metric::single(
                "pushsim.network.end_phase_ns_per_node",
                "ns",
                c.end_phase_ns_per_node,
                1,
            ));
            m.push(Metric::single(
                "pushsim.network.decide_ns_per_node",
                "ns",
                c.decide_ns_per_node,
                1,
            ));
            m.push(Metric::single(
                "noise.sample_ns",
                "ns",
                sample_ns(point.k, point.eps, seed),
                1,
            ));
            for cell in &prep.cells {
                let (n, topology) = (cell.point.n, cell.point.topology);
                let suffix = family_suffix(topology);
                let mut rng = StdRng::seed_from_u64(seed);
                let build = repeat_timed(3, 20, Duration::from_millis(200), || {
                    Topology::build(topology, n, &mut rng).expect("valid topology")
                });
                let c = agent_costs(n, cell.point.k, cell.point.eps, topology, seed);
                m.push(Metric::single(
                    &format!("pushsim.topology.build_ms.{suffix}"),
                    "ms",
                    median(&build) * 1e3,
                    build.len(),
                ));
                m.push(Metric::single(
                    &format!("pushsim.topology.push_ns_per_msg.{suffix}"),
                    "ns",
                    c.push_ns_per_msg,
                    1,
                ));
            }
        }
        other => unreachable!("no probe for {other}"),
    }
    m
}
