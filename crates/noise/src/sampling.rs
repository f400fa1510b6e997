//! Batched count-based sampling primitives: exact binomial and multinomial
//! draws.
//!
//! The paper's processes B and P (Definitions 3 and 4) act on *counts* of
//! exchangeable messages, not on individual messages: re-coloring `m`
//! pending copies of opinion `i` through row `p_i` of the noise matrix is
//! one draw from `Multinomial(m, p_i)`. This module provides the exact
//! samplers that make that reformulation O(k²) random draws per phase
//! instead of O(messages):
//!
//! * [`binomial`] — exact `Binomial(n, p)`: BINV inversion for small
//!   `n·p`, Hörmann's BTRS transformed-rejection algorithm (1993) for
//!   large `n·p`. Both are exact samplers (BTRS is a rejection method, not
//!   an approximation), so the batched delivery paths are distributionally
//!   identical to per-message sampling — the property the
//!   `tests/equivalence.rs` suite in `pushsim` checks empirically.
//! * [`multinomial`] — decomposes `Multinomial(n, p)` into `k` conditional
//!   binomials; the result always sums to exactly `n` (conservation of
//!   messages by construction).
//! * [`PreparedMultinomial`] — the same decomposition prepared once for
//!   many draws with the same weights (the counting backend's sample
//!   majority draws up to 65 536 compositions per call). It builds the
//!   conditional chain `p_j / (remaining mass)` once, with the float
//!   operations [`multinomial`] uses, and caches each category's BINV start
//!   values `q^m` for the trial counts `m` it visits, so memory follows the
//!   visited counts. [`sample_into`](PreparedMultinomial::sample_into)
//!   writes into a caller's buffer. Each draw returns the counts
//!   [`multinomial`] returns and consumes the same random numbers: the two
//!   share one chain, one dispatch and one BINV/BTRS implementation, and
//!   differ only in where BINV's start value comes from.

use rand::Rng;

/// Natural log of the Gamma function, via the Lanczos approximation
/// (g = 7, n = 9); absolute error below 1e-13 over the positive reals.
pub fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    if x < 0.5 {
        // Reflection formula keeps the series in its accurate range.
        return std::f64::consts::PI.ln() - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The Stirling-series tail `ln(k!) − [ (k+½)ln(k+1) − (k+1) + ½ln(2π) ]`
/// used by BTRS's acceptance bound (exact table for `k ≤ 9`).
fn stirling_tail(k: u64) -> f64 {
    const TABLE: [f64; 10] = [
        0.081_061_466_795_327_2,
        0.041_340_695_955_409_2,
        0.027_677_925_684_998_3,
        0.020_790_672_103_765_1,
        0.016_644_691_189_821_1,
        0.013_876_128_823_070_7,
        0.011_896_709_945_891_7,
        0.010_411_265_261_972_0,
        0.009_255_462_182_712_73,
        0.008_330_563_433_362_87,
    ];
    if k < 10 {
        return TABLE[k as usize];
    }
    // In f64: k + 1 can exceed 2^32, whose square overflows u64 (seen at
    // the message volumes of the n = 10^7+ counting-backend runs).
    let kp1 = (k + 1) as f64;
    let kp1sq = kp1 * kp1;
    (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / kp1sq) / kp1sq) / kp1
}

/// BINV: sequential CDF inversion, exact, O(n·p) expected iterations.
/// Requires `p ≤ 0.5` and moderate `n·p` (so `(1−p)^n` does not underflow).
/// `start` is the CDF's first term `(1−p)^n`, which the caller computes
/// (or looks up) once.
fn binomial_binv<R: Rng + ?Sized>(n: u64, p: f64, start: f64, rng: &mut R) -> u64 {
    let q = 1.0 - p;
    let s = p / q;
    let a = (n as f64 + 1.0) * s;
    let mut r = start;
    let mut u: f64 = rng.gen();
    let mut x = 0u64;
    while u > r {
        u -= r;
        x += 1;
        if x > n {
            // Floating-point leakage past the support; retry the draw.
            r = start;
            u = rng.gen();
            x = 0;
            continue;
        }
        r *= a / x as f64 - s;
    }
    x
}

/// BTRS (Hörmann 1993): transformed rejection with squeeze. Exact, O(1)
/// expected draws. Requires `p ≤ 0.5` and `n·p ≥ 10`.
fn binomial_btrs<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    let nf = n as f64;
    let q = 1.0 - p;
    let spq = (nf * p * q).sqrt();
    let b = 1.15 + 2.53 * spq;
    let a = -0.0873 + 0.0248 * b + 0.01 * p;
    let c = nf * p + 0.5;
    let v_r = 0.92 - 4.2 / b;
    let r = p / q;
    let alpha = (2.83 + 5.1 / b) * spq;
    let m = ((nf + 1.0) * p).floor();
    loop {
        let u: f64 = rng.gen::<f64>() - 0.5;
        let mut v: f64 = rng.gen();
        let us = 0.5 - u.abs();
        let kf = ((2.0 * a / us + b) * u + c).floor();
        if kf < 0.0 || kf > nf {
            continue;
        }
        // Squeeze: accept the bulk without evaluating logarithms.
        if us >= 0.07 && v <= v_r {
            return kf as u64;
        }
        let k = kf as u64;
        v = (v * alpha / (a / (us * us) + b)).ln();
        let upper = (m + 0.5) * ((m + 1.0) / (r * (nf - m + 1.0))).ln()
            + (nf + 1.0) * ((nf - m + 1.0) / (nf - kf + 1.0)).ln()
            + (kf + 0.5) * (r * (nf - kf + 1.0) / (kf + 1.0)).ln()
            + stirling_tail(m as u64)
            + stirling_tail(n - m as u64)
            - stirling_tail(k)
            - stirling_tail(n - k);
        if v <= upper {
            return k;
        }
    }
}

/// An exact draw from `Binomial(n, p)`.
///
/// Dispatch: trivial edges, then BINV for `n·min(p,q) < 10`, BTRS
/// otherwise. Every path is an exact sampler.
///
/// # Panics
///
/// Panics if `p` is NaN or outside `[0, 1]` by more than a rounding slack.
pub fn binomial<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    binomial_with_start(n, p, |n, q| q.powf(n as f64), rng)
}

/// [`binomial`], with BINV's start value `q^n` (`q = 1 − p` after the
/// complement step) supplied by `start(n, q)`.
fn binomial_with_start<R: Rng + ?Sized>(
    n: u64,
    p: f64,
    start: impl FnOnce(u64, f64) -> f64,
    rng: &mut R,
) -> u64 {
    assert!(
        (-1e-9..=1.0 + 1e-9).contains(&p),
        "binomial probability must be in [0, 1], got {p}"
    );
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if p > 0.5 {
        return n - binomial_with_start(n, 1.0 - p, start, rng);
    }
    if n as f64 * p < 10.0 {
        binomial_binv(n, p, start(n, 1.0 - p), rng)
    } else {
        binomial_btrs(n, p, rng)
    }
}

/// The conditional-binomial decomposition of `Multinomial(·, probs)`:
/// category `j` takes `Binomial(remaining, conditionals[j])` of the trials
/// the earlier categories left, and the last category takes the rest.
///
/// The chain ends early where the residual mass runs out. The category
/// that exhausts it has `p_j ≥` the residual mass, so its conditional is
/// 1, it takes every remaining trial, and the later categories get none.
#[derive(Debug, Clone)]
struct ConditionalChain {
    /// `p_j / (mass of categories j..)`, clamped to `[0, 1]`, for every
    /// category that draws a binomial.
    conditionals: Vec<f64>,
    categories: usize,
    has_mass: bool,
}

impl ConditionalChain {
    fn new(probs: &[f64]) -> Self {
        assert!(!probs.is_empty(), "multinomial needs at least one category");
        let mut remaining_mass: f64 = probs
            .iter()
            .map(|&p| {
                assert!(p.is_finite() && p >= 0.0, "invalid multinomial weight {p}");
                p
            })
            .sum();
        let mut chain = Self {
            conditionals: Vec::with_capacity(probs.len() - 1),
            categories: probs.len(),
            has_mass: remaining_mass > 0.0,
        };
        for &pj in &probs[..probs.len() - 1] {
            chain
                .conditionals
                .push((pj / remaining_mass).clamp(0.0, 1.0));
            remaining_mass = (remaining_mass - pj).max(0.0);
            if remaining_mass == 0.0 {
                break;
            }
        }
        chain
    }

    /// Writes one draw of `n` trials into `counts`; `draw(j, remaining, c)`
    /// samples category `j`'s `Binomial(remaining, c)`.
    fn sample_into(
        &self,
        n: u64,
        counts: &mut [u64],
        mut draw: impl FnMut(usize, u64, f64) -> u64,
    ) {
        assert!(
            n == 0 || self.has_mass,
            "multinomial weights must not all be zero"
        );
        assert_eq!(counts.len(), self.categories, "one count per category");
        counts.fill(0);
        let mut remaining = n;
        for (j, &conditional) in self.conditionals.iter().enumerate() {
            if remaining == 0 {
                return;
            }
            let taken = draw(j, remaining, conditional);
            counts[j] = taken;
            remaining -= taken;
        }
        counts[self.categories - 1] = remaining;
    }
}

/// An exact draw from `Multinomial(n, probs)` by conditional binomial
/// decomposition. The returned counts always sum to exactly `n`.
///
/// `probs` need not be normalized; only the ratios matter. Runs in `O(k)`
/// binomial draws. To draw many times with the same weights, use
/// [`PreparedMultinomial`], which returns the same counts.
///
/// # Panics
///
/// Panics if `probs` is empty, contains a negative or non-finite weight, or
/// sums to zero while `n > 0`.
pub fn multinomial<R: Rng + ?Sized>(n: u64, probs: &[f64], rng: &mut R) -> Vec<u64> {
    let mut counts = vec![0u64; probs.len()];
    ConditionalChain::new(probs).sample_into(n, &mut counts, |_, m, c| binomial(m, c, rng));
    counts
}

/// [`multinomial`] prepared for many draws with the same weights.
///
/// The conditional chain is built once, and each category caches the BINV
/// start values `q^m` of the trial counts `m` it has drawn at. Every draw
/// returns the same counts as [`multinomial`] and consumes the same random
/// numbers, so switching between the two never changes an RNG stream.
///
/// ```
/// use noisy_channel::sampling::{multinomial, PreparedMultinomial};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let weights = [5.0, 3.0, 2.0];
/// let mut prepared = PreparedMultinomial::new(&weights);
/// let (mut a, mut b) = (StdRng::seed_from_u64(1), StdRng::seed_from_u64(1));
/// let mut counts = [0u64; 3];
/// for _ in 0..100 {
///     prepared.sample_into(41, &mut counts, &mut a);
///     assert_eq!(counts.to_vec(), multinomial(41, &weights, &mut b));
/// }
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct PreparedMultinomial {
    chain: ConditionalChain,
    /// One start-value cache per binomial-drawing category.
    starts: Vec<StartValues>,
}

impl PreparedMultinomial {
    /// Prepares `Multinomial(·, probs)`.
    ///
    /// # Panics
    ///
    /// Panics if `probs` is empty or contains a negative or non-finite
    /// weight.
    pub fn new(probs: &[f64]) -> Self {
        let chain = ConditionalChain::new(probs);
        let starts = vec![StartValues::default(); chain.conditionals.len()];
        Self { chain, starts }
    }

    /// Overwrites `counts` with one draw of `Multinomial(n, probs)`: the
    /// counts [`multinomial`]`(n, probs, rng)` would return.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len()` is not the number of categories, or if the
    /// weights sum to zero while `n > 0`.
    pub fn sample_into<R: Rng + ?Sized>(&mut self, n: u64, counts: &mut [u64], rng: &mut R) {
        let starts = &mut self.starts;
        self.chain.sample_into(n, counts, |j, m, c| {
            binomial_with_start(m, c, |m, q| starts[j].get(m, q), rng)
        });
    }
}

/// BINV start values `q^m` of one category (whose `q` is fixed), over the
/// window of trial counts `m` drawn at so far; NaN marks a value not yet
/// computed. Memory follows the visited counts, not the sample size.
#[derive(Debug, Clone, Default)]
struct StartValues {
    lowest: u64,
    values: Vec<f64>,
}

impl StartValues {
    fn get(&mut self, m: u64, q: f64) -> f64 {
        if self.values.is_empty() {
            self.lowest = m;
        } else if m < self.lowest {
            let below = (self.lowest - m) as usize;
            self.values
                .splice(0..0, std::iter::repeat_n(f64::NAN, below));
            self.lowest = m;
        }
        let i = (m - self.lowest) as usize;
        if i >= self.values.len() {
            self.values.resize(i + 1, f64::NAN);
        }
        let value = &mut self.values[i];
        if value.is_nan() {
            *value = q.powf(m as f64);
        }
        *value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ln_factorial(k: u64) -> f64 {
        ln_gamma(k as f64 + 1.0)
    }

    /// Exact Binomial(n, p) pmf via log-gamma.
    fn binom_pmf(n: u64, p: f64, k: u64) -> f64 {
        let (nf, kf) = (n as f64, k as f64);
        (ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
            + kf * p.ln()
            + (nf - kf) * (1.0 - p).ln())
        .exp()
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-11);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-11);
        // Recurrence Γ(x+1) = xΓ(x) across the BTRS-relevant range.
        for &x in &[0.7, 3.3, 12.5, 100.0, 1e4] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!((lhs - rhs).abs() < 1e-9, "x = {x}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(binomial(0, 0.5, &mut rng), 0);
        assert_eq!(binomial(100, 0.0, &mut rng), 0);
        assert_eq!(binomial(100, 1.0, &mut rng), 100);
        for _ in 0..100 {
            let x = binomial(10, 0.5, &mut rng);
            assert!(x <= 10);
        }
    }

    /// Chi-square goodness of fit against the exact pmf, exercising both
    /// the BINV path (np < 10) and the BTRS path (np ≥ 10).
    #[test]
    fn binomial_matches_exact_pmf() {
        for &(n, p, seed) in &[
            (20u64, 0.2f64, 11u64),  // BINV
            (50, 0.3, 12),           // BTRS (np = 15)
            (400, 0.5, 13),          // BTRS, symmetric
            (1000, 0.85, 14),        // complement + BTRS
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let trials = 200_000usize;
            let mut counts = vec![0u64; n as usize + 1];
            for _ in 0..trials {
                counts[binomial(n, p, &mut rng) as usize] += 1;
            }
            // Pool bins with expected count < 5 into their neighbours.
            let mut chi2 = 0.0;
            let mut dof = 0i64;
            let mut pooled_obs = 0.0;
            let mut pooled_exp = 0.0;
            for k in 0..=n {
                let e = binom_pmf(n, p, k) * trials as f64;
                pooled_obs += counts[k as usize] as f64;
                pooled_exp += e;
                if pooled_exp >= 5.0 {
                    chi2 += (pooled_obs - pooled_exp).powi(2) / pooled_exp;
                    dof += 1;
                    pooled_obs = 0.0;
                    pooled_exp = 0.0;
                }
            }
            dof -= 1;
            // For the dof at play (tens of bins) the 99.9th percentile of
            // chi-square is below dof + 4·sqrt(2·dof) + 10; deterministic
            // seeds make this a regression test, not a flaky one.
            let budget = dof as f64 + 4.0 * (2.0 * dof as f64).sqrt() + 10.0;
            assert!(
                chi2 < budget,
                "n={n} p={p}: chi2 {chi2:.1} over budget {budget:.1} (dof {dof})"
            );
        }
    }

    #[test]
    fn binomial_moments_are_right_at_large_n() {
        let (n, p) = (1_000_000u64, 0.37);
        let mut rng = StdRng::seed_from_u64(21);
        let trials = 2_000;
        let samples: Vec<f64> = (0..trials)
            .map(|_| binomial(n, p, &mut rng) as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / trials as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / trials as f64;
        let (em, ev) = (n as f64 * p, n as f64 * p * (1.0 - p));
        assert!((mean - em).abs() / em < 1e-3, "mean {mean} vs {em}");
        assert!((var - ev).abs() / ev < 0.1, "var {var} vs {ev}");
    }

    #[test]
    fn multinomial_conserves_and_matches_proportions() {
        let mut rng = StdRng::seed_from_u64(31);
        let probs = [0.5, 0.2, 0.2, 0.1];
        let n = 100_000u64;
        let mut totals = [0u64; 4];
        let reps = 50;
        for _ in 0..reps {
            let draw = multinomial(n, &probs, &mut rng);
            assert_eq!(draw.iter().sum::<u64>(), n, "conservation violated");
            for (t, d) in totals.iter_mut().zip(&draw) {
                *t += d;
            }
        }
        for (j, &pj) in probs.iter().enumerate() {
            let freq = totals[j] as f64 / (n * reps) as f64;
            assert!((freq - pj).abs() < 2e-3, "category {j}: {freq} vs {pj}");
        }
    }

    #[test]
    fn multinomial_edge_cases() {
        let mut rng = StdRng::seed_from_u64(41);
        assert_eq!(multinomial(0, &[1.0, 1.0], &mut rng), vec![0, 0]);
        assert_eq!(multinomial(7, &[0.0, 1.0, 0.0], &mut rng), vec![0, 7, 0]);
        let d = multinomial(5, &[0.0, 0.0, 3.0], &mut rng);
        assert_eq!(d, vec![0, 0, 5]);
        // Unnormalized weights behave like their normalization.
        let d = multinomial(10_000, &[2.0, 2.0], &mut rng);
        assert_eq!(d.iter().sum::<u64>(), 10_000);
        assert!((d[0] as f64 - 5_000.0).abs() < 500.0);
    }
}
