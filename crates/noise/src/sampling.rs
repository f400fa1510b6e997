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
//! * [`AliasTable`] — a Walker/Vose alias table: O(1) categorical draws of
//!   one category at a time, whatever `k`. The noise matrix samples one
//!   channel output per message from it, and the counting backend's sample
//!   majority draws a small sample message by message from it instead of
//!   running the `k − 1` binomials of the chain.
//! * [`majority_pmf`] — the exact law of the sample majority
//!   `maj(Multinomial(ℓ, p))`, computed once so that any number of
//!   sample-majority draws is one multinomial over it.

use rand::Rng;
use std::ops::Sub;

mod majority;

pub use majority::majority_pmf;

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

/// A Walker/Vose alias table over `k` categories: O(1) categorical draws,
/// whatever `k`.
///
/// Construction is the standard two-stack pairing of under-full and
/// over-full columns: each of the `k` equally likely columns keeps its own
/// category with some probability and otherwise yields its alias. That
/// probability is stored as a 64-bit fixed-point threshold: a uniform word
/// below it keeps the column. A table offers two draws of the same law:
///
/// * [`sample`](Self::sample) — a uniform column (`gen_range`), then one
///   coin word. The noise matrix samples channel outputs with it. A table
///   built by [`new`](Self::new) keeps 53-bit thresholds, so this coin
///   decides exactly as `gen::<f64>() < probability` would.
/// * [`sample_one_word`](Self::sample_one_word) — one `next_u64`. The
///   column is the high word of `word · k`, and the low word of that
///   product is the coin. Built by [`from_counts`](Self::from_counts) from
///   integer weights, the thresholds are exact fractions rounded down, and
///   each category's probability is within `2k · 2⁻⁶⁴` of `w_j / Σw`
///   (below `10⁻¹⁷` for `k ≤ 64`): every column's share of the 2⁶⁴ words,
///   and its accepted part, is within two words of exact.
///
/// A zero weight is never drawn: its column accepts nothing and aliases to
/// a category that has weight.
///
/// ```
/// use noisy_channel::sampling::AliasTable;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let table = AliasTable::from_counts(&[0, 3, 1]);
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut hits = [0u32; 3];
/// for _ in 0..4_000 {
///     hits[table.sample_one_word(&mut rng)] += 1;
/// }
/// assert_eq!(hits[0], 0);
/// assert!(hits[1] > 2 * hits[2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AliasTable {
    /// Column `j` keeps category `j` when a uniform word is below
    /// `threshold[j]`; `u64::MAX` for a full column, whose alias is itself.
    threshold: Vec<u64>,
    /// The category column `j` yields otherwise.
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds the table of the categorical law with weights `weights`
    /// (not necessarily normalized), in floating point. Each threshold is
    /// its column's probability `p` as `⌈p · 2⁵³⌉ · 2¹¹`: a word `w` is
    /// below it exactly when the 53-bit uniform `(w >> 11) · 2⁻⁵³` is below
    /// `p`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn new(weights: &[f64]) -> Self {
        let k = weights.len();
        assert!(k > 0, "an alias table needs at least one category");
        let total: f64 = weights.iter().sum();
        let scaled = weights.iter().map(|&w| w * k as f64 / total).collect();
        let (threshold, alias) = pair_columns(scaled, 1.0, |p| {
            // ⌈p · 2⁵³⌉ (0 for p ≤ 0, which rounding can leave); p < 1 is at
            // most 1 − 2⁻⁵³, so the shifted value fits.
            let x = p * TWO_POW_53;
            let floor = x as u64;
            (floor + u64::from((floor as f64) < x)) << 11
        });
        Self { threshold, alias }
    }

    /// Builds the table of the categorical law with integer weights
    /// `weights` exactly: the pairing runs in integers, and each threshold
    /// is its column's kept fraction rounded down to 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, all zero, or sums past `u64::MAX`.
    pub fn from_counts(weights: &[u64]) -> Self {
        let k = weights.len();
        assert!(k > 0, "an alias table needs at least one category");
        let total = weights
            .iter()
            .try_fold(0u64, |sum, &w| sum.checked_add(w))
            .expect("alias table weights must sum below 2^64");
        assert!(total > 0, "alias table weights must not all be zero");
        let total = u128::from(total);
        let scaled = weights.iter().map(|&w| u128::from(w) * k as u128).collect();
        // ⌊kept · 2⁶⁴ / total⌋: kept < total < 2⁶⁴, so neither the shift
        // nor the quotient overflows.
        let (threshold, alias) = pair_columns(scaled, total, |kept| ((kept << 64) / total) as u64);
        Self { threshold, alias }
    }

    /// One draw from two random words: a uniform column, then a coin word
    /// against its threshold.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let j = rng.gen_range(0..self.alias.len());
        self.keep_or_alias(j, rng.next_u64())
    }

    /// One draw from one random word: the column is the high word of
    /// `word · k`, and the low word is the coin.
    #[inline]
    pub fn sample_one_word<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let product = u128::from(rng.next_u64()) * self.alias.len() as u128;
        self.keep_or_alias((product >> 64) as usize, product as u64)
    }

    #[inline]
    fn keep_or_alias(&self, j: usize, coin: u64) -> usize {
        if coin < self.threshold[j] {
            j
        } else {
            self.alias[j]
        }
    }
}

/// 2⁵³ as an `f64` (exact).
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;

/// The Vose pairing over weights scaled so that an exactly full column
/// holds `full`: each column's threshold and alias. A column paired as
/// under-full gets `to_threshold(mass it keeps)`, where that mass is below
/// `full`; every other column is full and its own alias.
fn pair_columns<T>(
    mut scaled: Vec<T>,
    full: T,
    to_threshold: impl Fn(T) -> u64,
) -> (Vec<u64>, Vec<usize>)
where
    T: Copy + PartialOrd + Sub<Output = T>,
{
    let k = scaled.len();
    let mut threshold = vec![u64::MAX; k];
    let mut alias: Vec<usize> = (0..k).collect();
    let mut small: Vec<usize> = Vec::with_capacity(k);
    let mut large: Vec<usize> = Vec::with_capacity(k);
    for (j, &s) in scaled.iter().enumerate() {
        if s < full {
            small.push(j);
        } else {
            large.push(j);
        }
    }
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        threshold[s] = to_threshold(scaled[s]);
        alias[s] = l;
        scaled[l] = scaled[l] - (full - scaled[s]);
        if scaled[l] < full {
            large.pop();
            small.push(l);
        }
    }
    // Leftovers on either stack are full columns (exactly so in integers,
    // up to rounding in floating point).
    (threshold, alias)
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

    /// Pearson's χ² of `hits` against the categorical law `weights`, over
    /// the categories with positive weight, and its degrees of freedom.
    fn categorical_chi2(hits: &[u64], weights: &[u64]) -> (f64, usize) {
        let draws: u64 = hits.iter().sum();
        let total: u64 = weights.iter().sum();
        let mut chi2 = 0.0;
        let mut cells = 0;
        for (&h, &w) in hits.iter().zip(weights) {
            if w == 0 {
                continue;
            }
            let expected = draws as f64 * w as f64 / total as f64;
            chi2 += (h as f64 - expected).powi(2) / expected;
            cells += 1;
        }
        (chi2, cells.max(1) - 1)
    }

    #[test]
    fn one_word_alias_draws_follow_the_weights() {
        let skewed: Vec<u64> = (0..64)
            .map(|j| if j % 9 == 0 { 0 } else { 1 + j * j })
            .collect();
        let cases: [(&[u64], u64); 6] = [
            (&[7], 51),
            (&[3, 1], 52),
            (&[0, 5, 2], 53),
            (&[9, 0, 4, 4, 1, 0, 30], 54),
            (&[1; 64], 55),
            (&skewed, 56),
        ];
        for (weights, seed) in cases {
            let table = AliasTable::from_counts(weights);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut hits = vec![0u64; weights.len()];
            for _ in 0..200_000 {
                hits[table.sample_one_word(&mut rng)] += 1;
            }
            for (j, (&h, &w)) in hits.iter().zip(weights.iter()).enumerate() {
                assert!(w > 0 || h == 0, "zero-weight category {j} drawn {h} times");
            }
            let (chi2, dof) = categorical_chi2(&hits, weights);
            // The 99.9th percentile of χ²(dof) is below dof + 4·√(2·dof) + 10
            // for every dof here; the seeds are fixed, so this is a
            // regression test, not a flaky one.
            let budget = dof as f64 + 4.0 * (2.0 * dof as f64).sqrt() + 10.0;
            assert!(
                chi2 < budget,
                "weights {weights:?}: χ² {chi2:.1} over {budget:.1}"
            );
        }
    }

    #[test]
    fn a_single_nonzero_weight_is_always_drawn() {
        for k in [1usize, 2, 3, 7, 64] {
            for only in [0, k / 2, k - 1] {
                let mut weights = vec![0u64; k];
                weights[only] = 11;
                let table = AliasTable::from_counts(&weights);
                let mut rng = StdRng::seed_from_u64(k as u64);
                for _ in 0..2_000 {
                    assert_eq!(table.sample_one_word(&mut rng), only, "k = {k}");
                    assert_eq!(table.sample(&mut rng), only, "k = {k}");
                }
            }
        }
    }

    /// The floating-point Vose table with `f64` acceptance probabilities:
    /// the reference the two-word draw must reproduce.
    fn float_alias_table(weights: &[f64]) -> (Vec<f64>, Vec<usize>) {
        let k = weights.len();
        let total: f64 = weights.iter().sum();
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w * k as f64 / total).collect();
        let mut prob = vec![1.0f64; k];
        let mut alias: Vec<usize> = (0..k).collect();
        let (mut small, mut large): (Vec<usize>, Vec<usize>) =
            (0..k).partition(|&j| scaled[j] < 1.0);
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        (prob, alias)
    }

    #[test]
    fn the_two_word_draw_is_the_f64_coin_bit_for_bit() {
        let mut weights_rng = StdRng::seed_from_u64(60);
        for k in [1usize, 2, 3, 7, 64] {
            let weights: Vec<f64> = (0..k).map(|_| weights_rng.gen::<f64>()).collect();
            let table = AliasTable::new(&weights);
            let (prob, alias) = float_alias_table(&weights);
            let mut a = StdRng::seed_from_u64(k as u64);
            let mut b = a.clone();
            for _ in 0..20_000 {
                let j = b.gen_range(0..k);
                let reference = if b.gen::<f64>() < prob[j] {
                    j
                } else {
                    alias[j]
                };
                assert_eq!(table.sample(&mut a), reference, "k = {k}");
            }
            assert_eq!(a, b);
        }
    }

    #[test]
    fn integer_tables_keep_exact_fractions() {
        // k = 2, weights 1 : 2 — column 0 keeps 2/3 of itself and aliases to
        // 1; column 1 is full.
        let table = AliasTable::from_counts(&[1, 2]);
        assert_eq!(table.threshold, vec![u64::MAX / 3 * 2, u64::MAX]);
        assert_eq!(table.alias, vec![1, 1]);
        // Weights summing to u64::MAX, exactly proportional to 3 : 2 : 1,
        // give the same table.
        let third = u64::MAX / 6;
        let huge = AliasTable::from_counts(&[3 * third, 2 * third, third]);
        assert_eq!(huge, AliasTable::from_counts(&[3, 2, 1]));
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
