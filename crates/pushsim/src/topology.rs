//! Communication topologies for the push model.
//!
//! The paper's model is stated on the complete graph — every push lands on
//! a uniformly random agent — but graph-structured push is the natural
//! bridge to the LOCAL-model literature the repository tracks (fractional
//! coloring, linear-in-Δ lower bounds), where *who can talk to whom* is
//! the whole story. This module adds that axis:
//!
//! * [`TopologySpec`] — a small, copyable description of a topology family
//!   (`complete`, `ring`, `torus`, `regular(d)`, `er(p)`), with a
//!   round-trippable textual form used by scenario spec files.
//! * [`Topology`] — the materialized graph: flat CSR-style neighbor lists
//!   (`offsets` + `neighbors`), built once per [`Network`](crate::Network)
//!   and consulted on every push.
//!
//! Under a non-complete topology every opinionated agent pushes to a
//! uniformly random *neighbor* instead of a uniformly random node. The
//! complete graph is special-cased: it stores no adjacency at all and
//! draws destinations with the same single `gen_range(0..n)` the
//! pre-topology simulator used, so complete-graph runs are **bit-for-bit
//! identical** to the historical RNG stream (all fixed-seed fixtures
//! remain valid).
//!
//! Random families (`regular(d)`, `er(p)`) are built from a *dedicated*
//! RNG derived from the simulation seed, so the delivery RNG stream is
//! never perturbed by graph construction and the graph is a deterministic
//! function of the seed.
//!
//! ## Support boundaries
//!
//! On the agent backend only process O
//! ([`DeliverySemantics::Exact`](crate::DeliverySemantics)) is defined on
//! sparse topologies: the deferred processes B and P shuffle phase
//! messages into *uniform* bins, which is a complete-graph notion (a
//! pending count has no sender, hence no neighborhood). The count-based
//! [`CountingNetwork`](crate::CountingNetwork) aggregates over
//! exchangeable agents, which only the complete graph has, so it runs
//! there alone. [`SimConfig`](crate::SimConfig) admits a sparse topology
//! only with exact delivery ([`SimError::UnsupportedTopology`]).

use crate::error::SimError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;
use std::fmt;
use std::str::FromStr;

/// A description of a communication topology family.
///
/// The textual form (`Display` / [`FromStr`]) round-trips exactly and is
/// the spelling scenario spec files use (`topology = regular(8)`).
#[derive(Debug, Clone, Copy, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum TopologySpec {
    /// The complete graph: every push lands on a uniformly random node
    /// (the paper's model; the default).
    #[default]
    Complete,
    /// The cycle: node `i` is adjacent to `i ± 1 (mod n)`.
    Ring,
    /// The 2-dimensional torus grid: `n` must be a perfect square
    /// `side²`; node `(r, c)` is adjacent to its four wrap-around grid
    /// neighbors.
    Torus2D,
    /// A uniformly random simple `d`-regular graph (stub matching with
    /// edge-swap repair); requires `1 ≤ d < n` and `n·d` even.
    RandomRegular {
        /// The degree `d` of every node.
        degree: usize,
    },
    /// The Erdős–Rényi graph `G(n, p)`: every unordered pair is an edge
    /// independently with probability `p ∈ [0, 1]`.
    ErdosRenyi {
        /// The edge probability.
        p: f64,
    },
}

impl PartialEq for TopologySpec {
    fn eq(&self, other: &Self) -> bool {
        use TopologySpec::*;
        match (self, other) {
            (Complete, Complete) | (Ring, Ring) | (Torus2D, Torus2D) => true,
            (RandomRegular { degree: a }, RandomRegular { degree: b }) => a == b,
            // Bitwise comparison keeps Eq/Hash lawful (NaN never parses
            // into a spec: `check` rejects non-finite probabilities).
            (ErdosRenyi { p: a }, ErdosRenyi { p: b }) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Eq for TopologySpec {}

impl std::hash::Hash for TopologySpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            TopologySpec::RandomRegular { degree } => degree.hash(state),
            TopologySpec::ErdosRenyi { p } => p.to_bits().hash(state),
            _ => {}
        }
    }
}

impl TopologySpec {
    /// `true` for the complete graph (the paper's model).
    pub fn is_complete(&self) -> bool {
        matches!(self, TopologySpec::Complete)
    }

    /// `true` for the randomized families (`regular(d)`, `er(p)`) whose
    /// realizations can be resampled from a fresh RNG draw — the
    /// families edge churn ([`ChurnSpec::rewire`](crate::ChurnSpec))
    /// can rewire at phase boundaries. The deterministic families
    /// (`ring`, `torus`) have a single realization and nothing to
    /// resample; the complete graph has no materialized edges at all.
    pub fn is_resampleable(&self) -> bool {
        matches!(
            self,
            TopologySpec::RandomRegular { .. } | TopologySpec::ErdosRenyi { .. }
        )
    }

    /// The short human-readable label of the topology (identical to the
    /// `Display` form), recorded in phase snapshots and result tables.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Checks that this topology can be built over `num_nodes` agents.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTopology`] if the parameters are infeasible:
    /// a torus whose `n` is not a perfect square, a `regular(d)` with
    /// `d = 0`, `d ≥ n` or `n·d` odd, or an `er(p)` with `p` outside
    /// `[0, 1]`.
    pub fn check(&self, num_nodes: usize) -> Result<(), SimError> {
        let fail = |reason: String| Err(SimError::InvalidTopology { reason });
        match *self {
            TopologySpec::Complete => Ok(()),
            TopologySpec::Ring => {
                // A 1-node "ring" would be a self-loop, breaking the
                // simple-graph invariant every built topology satisfies.
                if num_nodes >= 2 {
                    Ok(())
                } else {
                    fail(format!("ring needs at least 2 nodes, got {num_nodes}"))
                }
            }
            TopologySpec::Torus2D => {
                let side = (num_nodes as f64).sqrt().round() as usize;
                if side * side == num_nodes {
                    Ok(())
                } else {
                    fail(format!(
                        "torus needs a perfect-square number of nodes, got {num_nodes}"
                    ))
                }
            }
            TopologySpec::RandomRegular { degree } => {
                if degree == 0 || degree >= num_nodes {
                    fail(format!(
                        "regular({degree}) needs 1 <= degree < n = {num_nodes}"
                    ))
                } else if !(num_nodes * degree).is_multiple_of(2) {
                    fail(format!(
                        "regular({degree}) needs an even number of stubs, \
                         but n*d = {num_nodes}*{degree} is odd"
                    ))
                } else {
                    Ok(())
                }
            }
            TopologySpec::ErdosRenyi { p } => {
                if p.is_finite() && (0.0..=1.0).contains(&p) {
                    Ok(())
                } else {
                    fail(format!("er(p) needs a probability in [0, 1], got {p}"))
                }
            }
        }
    }
}

impl fmt::Display for TopologySpec {
    /// The canonical spec-file spelling: `complete`, `ring`, `torus`,
    /// `regular(d)`, `er(p)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySpec::Complete => write!(f, "complete"),
            TopologySpec::Ring => write!(f, "ring"),
            TopologySpec::Torus2D => write!(f, "torus"),
            TopologySpec::RandomRegular { degree } => write!(f, "regular({degree})"),
            TopologySpec::ErdosRenyi { p } => write!(f, "er({p})"),
        }
    }
}

impl FromStr for TopologySpec {
    type Err = String;

    /// Parses the canonical spelling (case-insensitive): `complete`,
    /// `ring`, `torus` (or `torus2d`), `regular(d)`, `er(p)` (or
    /// `erdos-renyi(p)`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "complete" => return Ok(TopologySpec::Complete),
            "ring" => return Ok(TopologySpec::Ring),
            "torus" | "torus2d" => return Ok(TopologySpec::Torus2D),
            _ => {}
        }
        let parameterized = |name: &str| -> Option<&str> {
            lower
                .strip_prefix(name)?
                .strip_prefix('(')?
                .strip_suffix(')')
        };
        if let Some(arg) = parameterized("regular") {
            if let Ok(degree) = arg.trim().parse::<usize>() {
                return Ok(TopologySpec::RandomRegular { degree });
            }
        }
        if let Some(arg) = parameterized("er").or_else(|| parameterized("erdos-renyi")) {
            if let Ok(p) = arg.trim().parse::<f64>() {
                return Ok(TopologySpec::ErdosRenyi { p });
            }
        }
        Err(format!(
            "unknown topology {s:?} (expected complete, ring, torus, regular(d) or er(p))"
        ))
    }
}

/// A materialized communication graph: flat CSR-style neighbor lists.
///
/// Built once by [`Topology::build`] and then read-only. The complete
/// graph stores no adjacency (destinations are drawn directly as
/// `gen_range(0..n)`, preserving the pre-topology RNG stream bit for
/// bit); every other family stores `offsets` (length `n + 1`) into a flat
/// `neighbors` array.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    spec: TopologySpec,
    num_nodes: usize,
    /// CSR row offsets (length `n + 1`); empty for the complete graph.
    offsets: Vec<usize>,
    /// Flat neighbor list; each undirected edge appears twice.
    neighbors: Vec<u32>,
}

impl Topology {
    /// Builds the graph described by `spec` over `num_nodes` agents.
    ///
    /// `rng` drives the construction of random families (`regular(d)`,
    /// `er(p)`); deterministic families never touch it. Callers that need
    /// a stable delivery RNG stream (the simulator does) should pass a
    /// *dedicated* RNG derived from the seed.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTopology`] under the same conditions as
    /// [`TopologySpec::check`], or if a random-regular graph could not be
    /// realized (practically unreachable for feasible `(n, d)`).
    pub fn build(
        spec: TopologySpec,
        num_nodes: usize,
        rng: &mut StdRng,
    ) -> Result<Self, SimError> {
        spec.check(num_nodes)?;
        let edges = match spec {
            TopologySpec::Complete => {
                return Ok(Self {
                    spec,
                    num_nodes,
                    offsets: Vec::new(),
                    neighbors: Vec::new(),
                })
            }
            TopologySpec::Ring => ring_edges(num_nodes),
            TopologySpec::Torus2D => torus_edges(num_nodes),
            TopologySpec::RandomRegular { degree } => {
                random_regular_edges(num_nodes, degree, rng)?
            }
            TopologySpec::ErdosRenyi { p } => erdos_renyi_edges(num_nodes, p, rng),
        };
        let (offsets, neighbors) = csr_from_edges(num_nodes, &edges);
        Ok(Self {
            spec,
            num_nodes,
            offsets,
            neighbors,
        })
    }

    /// The family this graph was built from.
    pub fn spec(&self) -> TopologySpec {
        self.spec
    }

    /// Re-sizes a **complete** graph in place (population churn moves `n`
    /// at phase boundaries; the complete graph stores no adjacency, so the
    /// destination range is the only state to update).
    pub(crate) fn resize_complete(&mut self, num_nodes: usize) {
        debug_assert!(
            self.is_complete(),
            "only the adjacency-free complete graph can be resized in place"
        );
        self.num_nodes = num_nodes;
    }

    /// The number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// `true` for the complete graph.
    pub fn is_complete(&self) -> bool {
        self.spec.is_complete()
    }

    /// The number of undirected edges (`n·(n−1)/2` for the complete
    /// graph).
    pub fn num_edges(&self) -> u64 {
        if self.is_complete() {
            let n = self.num_nodes as u64;
            n * (n - 1) / 2
        } else {
            self.neighbors.len() as u64 / 2
        }
    }

    /// The degree of `node`. On the complete graph every node can reach
    /// all `n` nodes (pushes may land on the sender itself, exactly like
    /// the paper's uniform push).
    pub fn degree(&self, node: usize) -> usize {
        if self.is_complete() {
            self.num_nodes
        } else {
            self.offsets[node + 1] - self.offsets[node]
        }
    }

    /// The neighbor list of `node` (empty slice on the complete graph,
    /// which stores no adjacency).
    pub fn neighbors(&self, node: usize) -> &[u32] {
        if self.is_complete() {
            &[]
        } else {
            &self.neighbors[self.offsets[node]..self.offsets[node + 1]]
        }
    }

    /// `true` if `node` has someone to push to (always true on the
    /// complete graph; sparse nodes with degree 0 — possible under
    /// `er(p)` — stay silent).
    pub fn can_push(&self, node: usize) -> bool {
        self.is_complete() || self.degree(node) > 0
    }

    /// Draws the destination of one push from `node`: a uniformly random
    /// node on the complete graph (one `gen_range(0..n)`, bit-identical
    /// to the pre-topology simulator), a uniformly random neighbor
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `node` has no neighbors (guard with
    /// [`can_push`](Self::can_push)).
    #[inline]
    pub fn push_destination(&self, node: usize, rng: &mut StdRng) -> usize {
        if self.is_complete() {
            rng.gen_range(0..self.num_nodes)
        } else {
            let row = &self.neighbors[self.offsets[node]..self.offsets[node + 1]];
            row[rng.gen_range(0..row.len())] as usize
        }
    }

    /// `true` if the graph is connected (BFS from node 0; the complete
    /// graph trivially is). Used by tests and diagnostics — consensus on
    /// a disconnected graph is generally unreachable.
    pub fn is_connected(&self) -> bool {
        if self.is_complete() {
            return true;
        }
        let n = self.num_nodes;
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::from([0usize]);
        seen[0] = true;
        let mut visited = 1usize;
        while let Some(v) = queue.pop_front() {
            for &w in self.neighbors(v) {
                let w = w as usize;
                if !seen[w] {
                    seen[w] = true;
                    visited += 1;
                    queue.push_back(w);
                }
            }
        }
        visited == n
    }
}

/// Cycle edges `i — i+1 (mod n)`, deduplicated for `n = 2`.
fn ring_edges(n: usize) -> Vec<(u32, u32)> {
    if n == 2 {
        return vec![(0, 1)];
    }
    (0..n).map(|i| (i as u32, ((i + 1) % n) as u32)).collect()
}

/// 2-D torus grid edges over `side × side` nodes (right and down per node
/// covers every edge once), deduplicated for `side ≤ 2` where wraparound
/// would create parallel edges.
fn torus_edges(n: usize) -> Vec<(u32, u32)> {
    let side = (n as f64).sqrt().round() as usize;
    debug_assert_eq!(side * side, n, "checked by TopologySpec::check");
    let mut edges = Vec::with_capacity(2 * n);
    // xlint: allow(map-order) — dedup membership check only; edges are emitted in loop order, the set is never iterated
    let mut seen = HashSet::new();
    let id = |r: usize, c: usize| (r * side + c) as u32;
    for r in 0..side {
        for c in 0..side {
            let here = id(r, c);
            for (nr, nc) in [(r, (c + 1) % side), ((r + 1) % side, c)] {
                let there = id(nr, nc);
                if here != there && seen.insert(normalize(here, there)) {
                    edges.push((here, there));
                }
            }
        }
    }
    edges
}

fn normalize(a: u32, b: u32) -> (u32, u32) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A uniformly random simple `d`-regular graph via stub matching with
/// edge-swap repair: pair up shuffled stubs, then swap away self-loops and
/// parallel edges (the standard practical construction — plain rejection
/// has success probability `≈ e^{−(d²−1)/4}` per attempt and is hopeless
/// for `d = 8`).
fn random_regular_edges(
    n: usize,
    d: usize,
    rng: &mut StdRng,
) -> Result<Vec<(u32, u32)>, SimError> {
    let mut stubs: Vec<u32> = Vec::with_capacity(n * d);
    for v in 0..n {
        stubs.extend(std::iter::repeat_n(v as u32, d));
    }
    for _attempt in 0..20 {
        stubs.shuffle(rng);
        let mut edges: Vec<(u32, u32)> = stubs.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        if swap_repair(&mut edges, rng) {
            return Ok(edges);
        }
    }
    Err(SimError::InvalidTopology {
        reason: format!("failed to realize a simple {d}-regular graph on {n} nodes"),
    })
}

/// Repairs a stub pairing in place: while a self-loop or parallel edge
/// remains, swap its endpoints with a random *good* edge when the swap
/// produces two fresh simple edges. Returns `false` if the iteration
/// budget runs out (caller reshuffles and retries).
fn swap_repair(edges: &mut [(u32, u32)], rng: &mut StdRng) -> bool {
    // xlint: allow(map-order) — membership insert/contains/remove only; repair order comes from the `bad` Vec and the seeded RNG, the set is never iterated
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(edges.len());
    let mut bad: Vec<usize> = Vec::new();
    for (i, &(a, b)) in edges.iter().enumerate() {
        if a == b || !seen.insert(normalize(a, b)) {
            bad.push(i);
        }
    }
    let mut budget = 200 * edges.len() + 1_000;
    while let Some(&i) = bad.last() {
        if budget == 0 {
            return false;
        }
        budget -= 1;
        let j = rng.gen_range(0..edges.len());
        if j == i || bad.contains(&j) {
            continue;
        }
        let (a, b) = edges[i];
        let (c, d) = edges[j];
        // Propose the 2-swap (a,b),(c,d) → (a,d),(c,b).
        if a == d || c == b {
            continue;
        }
        let e1 = normalize(a, d);
        let e2 = normalize(c, b);
        if e1 == e2 || seen.contains(&e1) || seen.contains(&e2) {
            continue;
        }
        // Edge i was never inserted into `seen` (it is bad); edge j was.
        seen.remove(&normalize(c, d));
        seen.insert(e1);
        seen.insert(e2);
        edges[i] = (a, d);
        edges[j] = (c, b);
        bad.pop();
    }
    true
}

/// `G(n, p)` via the Batagelj–Brandes geometric-skip enumeration: expected
/// `O(n + |E|)` time instead of `O(n²)` Bernoulli draws.
fn erdos_renyi_edges(n: usize, p: f64, rng: &mut StdRng) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    if p <= 0.0 || n < 2 {
        return edges;
    }
    if p >= 1.0 {
        for v in 1..n {
            for w in 0..v {
                edges.push((w as u32, v as u32));
            }
        }
        return edges;
    }
    let ln_q = (1.0 - p).ln();
    let mut v: usize = 1;
    let mut w: i64 = -1;
    while v < n {
        let r: f64 = rng.gen_range(0.0..1.0);
        w += 1 + ((1.0 - r).ln() / ln_q).floor() as i64;
        while v < n && w >= v as i64 {
            w -= v as i64;
            v += 1;
        }
        if v < n {
            edges.push((w as u32, v as u32));
        }
    }
    edges
}

/// Builds CSR offsets + flat neighbor lists from an undirected edge list.
fn csr_from_edges(n: usize, edges: &[(u32, u32)]) -> (Vec<usize>, Vec<u32>) {
    let mut offsets = vec![0usize; n + 1];
    for &(a, b) in edges {
        offsets[a as usize + 1] += 1;
        offsets[b as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets.clone();
    let mut neighbors = vec![0u32; edges.len() * 2];
    for &(a, b) in edges {
        neighbors[cursor[a as usize]] = b;
        cursor[a as usize] += 1;
        neighbors[cursor[b as usize]] = a;
        cursor[b as usize] += 1;
    }
    (offsets, neighbors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn build(spec: TopologySpec, n: usize) -> Topology {
        let mut rng = StdRng::seed_from_u64(7);
        Topology::build(spec, n, &mut rng).unwrap()
    }

    /// Every CSR invariant a built graph must satisfy: symmetric, simple,
    /// in-range.
    fn check_invariants(topo: &Topology) {
        let n = topo.num_nodes();
        let mut edge_count = 0u64;
        for v in 0..n {
            let row = topo.neighbors(v);
            assert_eq!(row.len(), topo.degree(v));
            let mut distinct = HashSet::new();
            for &w in row {
                let w = w as usize;
                assert!(w < n, "neighbor in range");
                assert_ne!(w, v, "no self-loops");
                assert!(distinct.insert(w), "no parallel edges");
                assert!(
                    topo.neighbors(w).contains(&(v as u32)),
                    "adjacency is symmetric"
                );
            }
            edge_count += row.len() as u64;
        }
        assert_eq!(edge_count / 2, topo.num_edges());
    }

    #[test]
    fn complete_stores_no_adjacency_and_always_pushes() {
        let topo = build(TopologySpec::Complete, 10);
        assert!(topo.is_complete());
        assert!(topo.neighbors(3).is_empty());
        assert_eq!(topo.degree(3), 10);
        assert_eq!(topo.num_edges(), 45);
        assert!(topo.can_push(0));
        assert!(topo.is_connected());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            assert!(topo.push_destination(0, &mut rng) < 10);
        }
    }

    #[test]
    fn ring_is_a_connected_2_regular_cycle() {
        let topo = build(TopologySpec::Ring, 9);
        check_invariants(&topo);
        assert!(topo.is_connected());
        for v in 0..9 {
            assert_eq!(topo.degree(v), 2);
        }
        assert!(topo.neighbors(0).contains(&1));
        assert!(topo.neighbors(0).contains(&8));
        // n = 2 degenerates to a single edge; n = 1 would be a self-loop
        // and is rejected.
        let tiny = build(TopologySpec::Ring, 2);
        check_invariants(&tiny);
        assert_eq!(tiny.degree(0), 1);
        assert!(tiny.is_connected());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            Topology::build(TopologySpec::Ring, 1, &mut rng),
            Err(SimError::InvalidTopology { .. })
        ));
    }

    #[test]
    fn torus_is_4_regular_on_a_square() {
        let topo = build(TopologySpec::Torus2D, 36);
        check_invariants(&topo);
        assert!(topo.is_connected());
        for v in 0..36 {
            assert_eq!(topo.degree(v), 4);
        }
        // Node (1, 1) = 7 touches 1, 13, 6, 8 on a 6 × 6 grid.
        let mut row: Vec<u32> = topo.neighbors(7).to_vec();
        row.sort_unstable();
        assert_eq!(row, vec![1, 6, 8, 13]);
        // Non-square sizes are rejected.
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            Topology::build(TopologySpec::Torus2D, 37, &mut rng),
            Err(SimError::InvalidTopology { .. })
        ));
        // side = 2 dedupes wraparound parallels: degree 2, not 4.
        let small = build(TopologySpec::Torus2D, 4);
        check_invariants(&small);
        assert_eq!(small.degree(0), 2);
    }

    #[test]
    fn random_regular_is_simple_regular_and_deterministic_in_the_seed() {
        for &(n, d) in &[(50usize, 3usize), (200, 8), (101, 4)] {
            let topo = build(TopologySpec::RandomRegular { degree: d }, n);
            check_invariants(&topo);
            for v in 0..n {
                assert_eq!(topo.degree(v), d, "every node has degree {d}");
            }
            assert!(topo.is_connected(), "regular({d}) on {n} nodes connects");
        }
        let a = build(TopologySpec::RandomRegular { degree: 8 }, 200);
        let b = build(TopologySpec::RandomRegular { degree: 8 }, 200);
        assert_eq!(a, b, "same seed, same graph");
        // Infeasible parameters are rejected up front.
        let mut rng = StdRng::seed_from_u64(1);
        for (n, d) in [(10, 0), (10, 10), (9, 3)] {
            assert!(matches!(
                Topology::build(TopologySpec::RandomRegular { degree: d }, n, &mut rng),
                Err(SimError::InvalidTopology { .. })
            ));
        }
    }

    #[test]
    fn erdos_renyi_matches_the_expected_edge_count() {
        let n = 2_000;
        let p = 0.01;
        let topo = build(TopologySpec::ErdosRenyi { p }, n);
        check_invariants(&topo);
        let expected = p * (n * (n - 1) / 2) as f64;
        let observed = topo.num_edges() as f64;
        assert!(
            (observed - expected).abs() < 4.0 * expected.sqrt(),
            "observed {observed}, expected {expected}"
        );
        // Extremes: p = 0 is empty (nobody can push), p = 1 is complete.
        let empty = build(TopologySpec::ErdosRenyi { p: 0.0 }, 50);
        assert_eq!(empty.num_edges(), 0);
        assert!(!empty.can_push(0));
        let full = build(TopologySpec::ErdosRenyi { p: 1.0 }, 20);
        check_invariants(&full);
        assert_eq!(full.num_edges(), 190);
        // Out-of-range probabilities are rejected.
        assert!(TopologySpec::ErdosRenyi { p: 1.5 }.check(10).is_err());
        assert!(TopologySpec::ErdosRenyi { p: f64::NAN }.check(10).is_err());
    }

    #[test]
    fn push_destination_is_a_uniform_neighbor() {
        let topo = build(TopologySpec::Ring, 10);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = [0u32; 10];
        for _ in 0..10_000 {
            hits[topo.push_destination(5, &mut rng)] += 1;
        }
        assert_eq!(hits[4] + hits[6], 10_000, "only the two ring neighbors");
        let frac = f64::from(hits[4]) / 10_000.0;
        assert!((frac - 0.5).abs() < 0.03, "uniform split, got {frac}");
    }

    #[test]
    fn spec_text_round_trips() {
        let specs = [
            TopologySpec::Complete,
            TopologySpec::Ring,
            TopologySpec::Torus2D,
            TopologySpec::RandomRegular { degree: 8 },
            TopologySpec::ErdosRenyi { p: 0.001 },
        ];
        for spec in specs {
            let text = spec.to_string();
            assert_eq!(text.parse::<TopologySpec>().unwrap(), spec, "{text}");
            assert_eq!(spec.label(), text);
        }
        assert_eq!("TORUS2D".parse::<TopologySpec>().unwrap(), TopologySpec::Torus2D);
        assert_eq!(
            "erdos-renyi(0.5)".parse::<TopologySpec>().unwrap(),
            TopologySpec::ErdosRenyi { p: 0.5 }
        );
        assert!("hypercube".parse::<TopologySpec>().is_err());
        assert!("regular(x)".parse::<TopologySpec>().is_err());
        assert_eq!(TopologySpec::default(), TopologySpec::Complete);
    }
}
