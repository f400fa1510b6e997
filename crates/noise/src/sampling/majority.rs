//! The exact law of the sample majority: [`majority_pmf`].

use super::ln_gamma;

/// Candidate maxima `c` where a bound on `P(max = c)` falls below this are
/// skipped by the Poissonized algorithm.
const NEGLIGIBLE_MAXIMUM: f64 = 1e-18;

/// The law of the sample majority: `q_i = P(maj(Multinomial(ℓ, w/Σw)) = i)`
/// for `ℓ = sample_size`, the tied maxima of a composition broken uniformly
/// at random (the paper's `maj(·)`).
///
/// Opinions with zero weight never hold a maximum (`ℓ ≥ 1`), so their
/// `q_i` is exactly 0 and they leave the computation. Over the `k'`
/// opinions that remain:
///
/// * `k' = 1`: that opinion wins with probability 1.
/// * `k' = 2`: the binomial tail, half of the tie `P(Bin(ℓ, p) = ℓ/2)` to
///   each side. `O(ℓ)`. At `p = ½` both sides are summed from bitwise
///   equal terms in mirrored order, so they come out equal.
/// * `k' ≥ 3`: Poissonization (Levin, *Ann. Statist.* 9, 1981). Take
///   independent `X_j ~ Poisson(ℓ p_j)`; conditioned on `ΣX = ℓ` they are
///   the multinomial composition. For each candidate maximum `c ≥ ⌈ℓ/k'⌉`,
///   opinion `j` contributes the truncated generating polynomial
///   `f_j(z, y) = Σ_{m<c} P(X_j = m) z^m + y P(X_j = c) z^c`, where `y`
///   counts the opinions tied at `c`. Then
///   `q_i = Σ_c P(X_i = c) Σ_t [z^{ℓ−c} y^t] Π_{j≠i} f_j / ((t + 1) P(ΣX = ℓ))`.
///   Prefix and suffix products leave out one opinion at a time, `z` is
///   kept only over the degrees that can still reach `ℓ − c`, and `y` has
///   degree at most `⌊(ℓ − c)/c⌋`. A `c` is skipped where the union bound
///   `Σ_j P(Bin(ℓ, p_j) = c)` on `P(max = c)`, or the bound
///   `Π_j P(X_j ≤ c) / P(ΣX = ℓ)` on `P(max ≤ c)`, is below `10⁻¹⁸`.
///   Every term is a non-negative product of probabilities, so nothing
///   cancels. The cost grows roughly as `k'·ℓ²` per candidate `c` and does
///   not depend on how many draws the law is used for.
///
/// The result sums to 1 up to rounding and the skipped mass (below
/// `ℓ · 10⁻¹⁸`). Its scratch is at most `(k' + 3) · k' · (ℓ + 1)` `f64`s:
/// `k'` prefix and two suffix products of at most `k' · (ℓ + 1)`
/// coefficients each, and the `k'` Poisson laws.
///
/// ```
/// use noisy_channel::sampling::majority_pmf;
///
/// // Two equal opinions and an even sample: the tie splits evenly.
/// let q = majority_pmf(4, &[1.0, 1.0]);
/// assert!((q[0] - 0.5).abs() < 1e-15 && (q[1] - 0.5).abs() < 1e-15);
/// // A zero weight never wins; the others share everything.
/// let q = majority_pmf(129, &[5.0, 0.0, 3.0, 2.0]);
/// assert_eq!(q[1], 0.0);
/// assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// assert!(q[0] > q[2] && q[2] > q[3]);
/// ```
///
/// # Panics
///
/// Panics if `sample_size` is 0, or if `weights` is empty, contains a
/// negative or non-finite weight, or sums to zero.
pub fn majority_pmf(sample_size: u64, weights: &[f64]) -> Vec<f64> {
    assert!(
        sample_size >= 1,
        "a sample majority needs at least one message"
    );
    assert!(
        !weights.is_empty(),
        "a sample majority needs at least one opinion"
    );
    for &w in weights {
        assert!(w.is_finite() && w >= 0.0, "invalid majority weight {w}");
    }
    let support: Vec<usize> = (0..weights.len()).filter(|&j| weights[j] > 0.0).collect();
    assert!(!support.is_empty(), "majority weights must not all be zero");
    let positive: Vec<f64> = support.iter().map(|&j| weights[j]).collect();
    let ln_factorials: Vec<f64> = (0..=sample_size)
        .map(|m| ln_gamma(m as f64 + 1.0))
        .collect();
    let law = match positive.len() {
        1 => vec![1.0],
        2 => two_way(&positive, &ln_factorials),
        _ => poissonized(&positive, &ln_factorials),
    };
    let mut q = vec![0.0; weights.len()];
    for (&j, p) in support.iter().zip(law) {
        q[j] = p;
    }
    q
}

/// `ln(w_j / Σw)` and `ln(1 − w_j / Σw)` for positive finite weights,
/// without overflowing the sum or underflowing a share.
fn log_shares(weights: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let top = weights.iter().copied().fold(0.0, f64::max);
    let scaled: Vec<f64> = weights.iter().map(|&w| w / top).collect();
    let ln_total = scaled.iter().sum::<f64>().ln();
    let ln_share = weights
        .iter()
        .map(|&w| w.ln() - top.ln() - ln_total)
        .collect();
    let ln_rest = (0..weights.len())
        .map(|j| {
            let rest: f64 = (0..weights.len())
                .filter(|&i| i != j)
                .map(|i| scaled[i])
                .sum();
            rest.ln() - ln_total
        })
        .collect();
    (ln_share, ln_rest)
}

/// `ln P(Bin(ℓ, p) = m)` from `ln p`, `ln(1 − p)` and `ln m!` for
/// `m = 0..=ℓ`.
fn ln_binomial_pmf(m: usize, ln_p: f64, ln_not_p: f64, ln_factorials: &[f64]) -> f64 {
    let ell = ln_factorials.len() - 1;
    // An empty power contributes 1 even where ln(1 − p) rounds to −∞.
    let power = |count: usize, ln: f64| if count == 0 { 0.0 } else { count as f64 * ln };
    ln_factorials[ell] - (ln_factorials[m] + ln_factorials[ell - m])
        + (power(m, ln_p) + power(ell - m, ln_not_p))
}

/// The binary law: `(P(first wins), P(second wins))`.
fn two_way(weights: &[f64], ln_factorials: &[f64]) -> Vec<f64> {
    let ell = ln_factorials.len() - 1;
    let (ln_share, _) = log_shares(weights);
    // `m` messages of the first opinion, `ℓ − m` of the second; the ln
    // terms are symmetric under swapping the two.
    let pmf = |m: usize| ln_binomial_pmf(m, ln_share[0], ln_share[1], ln_factorials).exp();
    let (mut first, mut second) = (0.0, 0.0);
    for m in 0..ell.div_ceil(2) {
        first += pmf(ell - m);
        second += pmf(m);
    }
    if ell.is_multiple_of(2) {
        let tie = pmf(ell / 2) / 2.0;
        first += tie;
        second += tie;
    }
    vec![first, second]
}

/// The Poissonized law for three or more positive weights (see
/// [`majority_pmf`]).
fn poissonized(weights: &[f64], ln_factorials: &[f64]) -> Vec<f64> {
    let n = weights.len();
    let ell = ln_factorials.len() - 1;
    let (ln_share, ln_rest) = log_shares(weights);
    let row = ell + 1;
    // P(X_j = m) for m = 0..=ℓ, one row per opinion.
    let mut poisson = vec![0.0; n * row];
    let mut total_mean = 0.0;
    for (j, &ln_p) in ln_share.iter().enumerate() {
        let mean = ell as f64 * ln_p.exp();
        let ln_mean = (ell as f64).ln() + ln_p;
        total_mean += mean;
        for (m, value) in poisson[j * row..(j + 1) * row].iter_mut().enumerate() {
            *value = (m as f64 * ln_mean - mean - ln_factorials[m]).exp();
        }
    }
    // 1 / P(ΣX = ℓ), with ΣX ~ Poisson(Σ means): conditions a Poisson
    // probability on the sample size.
    let conditioning = (ln_factorials[ell] + total_mean - ell as f64 * total_mean.ln()).exp();

    // The maximum is at least ⌈ℓ/n⌉. Buffers are sized for the first c
    // kept, where both the z range and the y degree are largest.
    let c_min = ell.div_ceil(n);
    let mut below: Vec<f64> = (0..n)
        .map(|j| poisson[j * row..j * row + c_min].iter().sum())
        .collect();
    let (mut prefixes, mut suffix, mut next) = (Vec::new(), Vec::new(), Vec::new());
    let mut capacity = 0;
    let mut q = vec![0.0; n];
    for c in c_min..=ell {
        // Two bounds on P(max = c): the union bound, and
        // P(max ≤ c) ≤ Π_j P(X_j ≤ c) / P(ΣX = ℓ).
        let mut at_most = conditioning;
        for (j, cdf) in below.iter_mut().enumerate() {
            *cdf += poisson[j * row + c];
            at_most *= *cdf;
        }
        let reach: f64 = (0..n)
            .map(|j| ln_binomial_pmf(c, ln_share[j], ln_rest[j], ln_factorials).exp())
            .sum();
        if reach.min(at_most) < NEGLIGIBLE_MAXIMUM {
            continue;
        }
        let shape = Shape::new(ell, n, c);
        let len = shape.len();
        if capacity == 0 {
            capacity = len;
            prefixes = vec![0.0; n * capacity];
            suffix = vec![0.0; capacity];
            next = vec![0.0; capacity];
        }
        let factor = |j: usize| &poisson[j * row..j * row + c + 1];
        // prefixes[f]: the product of the first f opinions' polynomials.
        prefixes[..len].fill(0.0);
        prefixes[0] = 1.0;
        for f in 1..n {
            let (done, rest) = prefixes.split_at_mut(f * capacity);
            let old = &done[(f - 1) * capacity..(f - 1) * capacity + len];
            shape.multiply(old, f - 1, factor(f - 1), &mut rest[..len]);
        }
        // The suffix runs from the last opinion down; opinion i is left
        // out between prefixes[i] and the product of opinions i+1...
        suffix[..len].fill(0.0);
        suffix[0] = 1.0;
        for i in (0..n).rev() {
            let prefix = &prefixes[i * capacity..i * capacity + len];
            q[i] += factor(i)[c] * shape.tie_weighted_join(prefix, i, &suffix[..len]);
            if i > 0 {
                shape.multiply(&suffix[..len], n - 1 - i, factor(i), &mut next[..len]);
                std::mem::swap(&mut suffix, &mut next);
            }
        }
    }
    for value in &mut q {
        *value *= conditioning;
    }
    q
}

/// The layout of one candidate maximum `c`'s polynomials in `z` (messages)
/// and `y` (opinions tied at `c`): coefficient `[z^a y^t]` at
/// `t · stride + a`, for `a ≤ ℓ − c` and `t ≤ ties`.
struct Shape {
    /// Messages left to the other opinions: `ℓ − c`.
    rest: usize,
    /// The candidate maximum.
    c: usize,
    /// Opinions in the full product (all `k'`).
    opinions: usize,
    stride: usize,
    /// Highest `y` degree: at most `k' − 1` opinions, each taking `c`.
    ties: usize,
}

impl Shape {
    fn new(ell: usize, opinions: usize, c: usize) -> Self {
        let rest = ell - c;
        Self {
            rest,
            c,
            opinions,
            stride: rest + 1,
            ties: (opinions - 1).min(rest / c),
        }
    }

    fn len(&self) -> usize {
        (self.ties + 1) * self.stride
    }

    /// The `z` degrees a product of `factors` polynomials keeps: at most
    /// `factors · c`, and at least what the other `k' − 1 − factors` can
    /// no longer fill up to `ℓ − c`.
    fn window(&self, factors: usize) -> (usize, usize) {
        let others = (self.opinions - 1 - factors) * self.c;
        (
            self.rest.saturating_sub(others),
            (factors * self.c).min(self.rest),
        )
    }

    /// `out = old · f` for `old`, a product of `factors` polynomials, and
    /// `f` given by `P(X = m)` for `m = 0..=c`.
    fn multiply(&self, old: &[f64], factors: usize, law: &[f64], out: &mut [f64]) {
        let (lo, hi) = self.window(factors);
        let (out_lo, out_hi) = self.window(factors + 1);
        out.fill(0.0);
        for t in 0..=self.ties.min(factors + 1) {
            let dst = &mut out[t * self.stride..(t + 1) * self.stride];
            // The y-free part: shifts 0..c of the same tie degree, then the
            // tie term: shift c from one tie degree lower.
            let sources = (0..self.c)
                .filter(|_| t <= factors)
                .map(|m| (m, law[m], t))
                .chain((t > 0).then(|| (self.c, law[self.c], t - 1)));
            for (shift, coefficient, from) in sources {
                let first = out_lo.max(lo + shift);
                let last = out_hi.min(hi + shift);
                if first > last {
                    continue;
                }
                let src =
                    &old[from * self.stride + first - shift..=from * self.stride + last - shift];
                for (d, &s) in dst[first..=last].iter_mut().zip(src) {
                    *d += coefficient * s;
                }
            }
        }
    }

    /// `Σ_t [z^{ℓ−c} y^t] (prefix · suffix) / (t + 1)`, for a prefix of
    /// `factors` polynomials and a suffix of the other `k' − 1 − factors`.
    fn tie_weighted_join(&self, prefix: &[f64], factors: usize, suffix: &[f64]) -> f64 {
        let (lo, hi) = self.window(factors);
        let mut total = 0.0;
        for t1 in 0..=self.ties.min(factors) {
            let p = &prefix[t1 * self.stride..(t1 + 1) * self.stride];
            for t2 in 0..=(self.ties - t1).min(self.opinions - 1 - factors) {
                let s = &suffix[t2 * self.stride..(t2 + 1) * self.stride];
                let joined: f64 = (lo..=hi).map(|a| p[a] * s[self.rest - a]).sum();
                total += joined / (t1 + t2 + 1) as f64;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `P(maj = i)` by enumerating every composition of `sample_size`
    /// messages: the multinomial probability of each, split evenly over
    /// its tied maxima.
    fn enumerated(sample_size: usize, weights: &[f64]) -> Vec<f64> {
        let total: f64 = weights.iter().sum();
        let probs: Vec<f64> = weights.iter().map(|&w| w / total).collect();
        let mut q = vec![0.0; weights.len()];
        let mut composition = vec![0usize; weights.len()];
        fn visit(j: usize, left: usize, probs: &[f64], composition: &mut [usize], q: &mut [f64]) {
            if j + 1 == probs.len() {
                composition[j] = left;
                let sample: usize = composition.iter().sum();
                let mut p = ln_gamma(sample as f64 + 1.0).exp();
                for (&c, &pj) in composition.iter().zip(probs) {
                    p *= pj.powi(c as i32) / ln_gamma(c as f64 + 1.0).exp();
                }
                let max = *composition.iter().max().expect("non-empty");
                let tied = composition.iter().filter(|&&c| c == max).count();
                for (qi, &c) in q.iter_mut().zip(composition.iter()) {
                    if c == max {
                        *qi += p / tied as f64;
                    }
                }
                return;
            }
            for c in 0..=left {
                composition[j] = c;
                visit(j + 1, left - c, probs, composition, q);
            }
        }
        visit(0, sample_size, &probs, &mut composition, &mut q);
        q
    }

    #[test]
    fn small_samples_match_enumeration() {
        let cases: [&[f64]; 8] = [
            &[1.0],
            &[3.0, 1.0],
            &[1.0, 1.0],
            &[5.0, 5.0, 5.0],
            &[3.0, 2.0, 2.0],
            &[0.0, 5.0, 0.0, 5.0, 1.0],
            &[0.4, 0.3, 0.2, 0.1],
            &[1e-3, 2.0, 1.0, 1.5, 0.7],
        ];
        for weights in cases {
            for sample_size in 1..=9 {
                let exact = enumerated(sample_size, weights);
                let q = majority_pmf(sample_size as u64, weights);
                for (j, (&a, &b)) in q.iter().zip(&exact).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-12,
                        "ℓ = {sample_size}, weights {weights:?}, opinion {j}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_law_is_a_distribution() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let k: usize = rng.gen_range(1..=8);
            let sample_size: u64 = rng.gen_range(1..=300);
            let weights: Vec<f64> = (0..k)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => 0.01 + 100.0 * rng.gen::<f64>(),
                })
                .collect();
            if weights.iter().all(|&w| w == 0.0) {
                continue;
            }
            let q = majority_pmf(sample_size, &weights);
            let total: f64 = q.iter().sum();
            assert!(
                (total - 1.0).abs() < 1e-10,
                "ℓ = {sample_size}, weights {weights:?}: Σq = {total}"
            );
            for (&qj, &w) in q.iter().zip(&weights) {
                assert!(qj >= 0.0, "negative q for weights {weights:?}: {q:?}");
                if w == 0.0 {
                    assert_eq!(qj, 0.0);
                }
            }
        }
    }

    #[test]
    fn two_opinions_take_the_binomial_tail() {
        // ℓ = 3 at p = 0.7: P(Bin ≥ 2) = 3·0.49·0.3 + 0.343.
        let q = majority_pmf(3, &[7.0, 3.0]);
        assert!((q[0] - 0.784).abs() < 1e-14, "{q:?}");
        // An even split at p = ½ is exact, and the tie splits evenly.
        for sample_size in [2, 4, 51, 1_000] {
            let q = majority_pmf(sample_size, &[2.0, 2.0]);
            assert_eq!(q[0], q[1]);
        }
        // Scale does not matter, nor do extreme magnitudes.
        let (small, huge) = (
            majority_pmf(41, &[7.0, 3.0]),
            majority_pmf(41, &[7e300, 3e300]),
        );
        assert!((small[0] - huge[0]).abs() < 1e-10, "{small:?} vs {huge:?}");
        let q = majority_pmf(41, &[1.0, 1e-300]);
        assert_eq!(q[0], 1.0);
    }

    #[test]
    fn equal_weights_split_evenly() {
        for (sample_size, k) in [(6, 3), (129, 4), (40, 8)] {
            let q = majority_pmf(sample_size, &vec![1.0; k]);
            for &qj in &q {
                assert!((qj - 1.0 / k as f64).abs() < 1e-12, "{q:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn all_zero_weights_are_rejected() {
        majority_pmf(5, &[0.0, 0.0]);
    }
}
