//! Bit-identity of the prepared multinomial sampler: for every weight
//! vector and trial count, [`PreparedMultinomial::sample_into`] returns the
//! counts one-shot [`multinomial`] returns and leaves the RNG in the same
//! state, draw after draw, while its start-value caches fill.

use noisy_channel::sampling::{multinomial, PreparedMultinomial};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A deterministic RNG that replaces every `period`-th word of a seeded
/// stream with `u64::MAX`, so uniforms of `1 − 2⁻⁵³` push BINV's CDF walk
/// past the support and force its retry.
#[derive(Debug, Clone, PartialEq)]
struct SpikedRng {
    inner: StdRng,
    period: u64,
    words: u64,
}

impl SpikedRng {
    fn new(seed: u64, period: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
            period,
            words: 0,
        }
    }
}

impl RngCore for SpikedRng {
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        let word = self.inner.next_u64();
        if self.words.is_multiple_of(self.period) {
            u64::MAX
        } else {
            word
        }
    }
}

/// Draws each `n` of `trials` from a prepared sampler and from one-shot
/// `multinomial` on twin RNGs; asserts equal counts and RNG states after
/// every draw.
fn assert_bit_identical<R: RngCore + Clone + PartialEq + std::fmt::Debug>(
    weights: &[f64],
    trials: &[u64],
    rng: R,
) {
    let mut prepared = PreparedMultinomial::new(weights);
    let mut counts = vec![u64::MAX; weights.len()];
    let (mut a, mut b) = (rng.clone(), rng);
    for &n in trials {
        prepared.sample_into(n, &mut counts, &mut a);
        let reference = multinomial(n, weights, &mut b);
        assert_eq!(
            counts, reference,
            "counts differ at n = {n}, weights {weights:?}"
        );
        assert_eq!(a, b, "RNG states differ after n = {n}, weights {weights:?}");
    }
}

/// Weight vectors over `k` categories: zero entries, an optional zero tail
/// (the residual mass reaches 0 before the last category), and an optional
/// dominant category (conditionals above 1/2 take the complement path).
fn weights_strategy() -> impl Strategy<Value = Vec<f64>> {
    (1usize..71).prop_flat_map(|k| {
        (
            prop::collection::vec(0.0f64..1.0, k),
            prop::collection::vec(prop::bool::ANY, k),
            0usize..k + 1,
            0usize..k,
            prop::bool::ANY,
        )
            .prop_map(|(raw, zeroed, tail, dominant, boost)| {
                let mut w: Vec<f64> = raw
                    .iter()
                    .zip(&zeroed)
                    .map(|(&x, &z)| if z { 0.0 } else { x + 0.01 })
                    .collect();
                let k = w.len();
                for x in &mut w[k - tail.min(k - 1)..] {
                    *x = 0.0;
                }
                if boost {
                    w[dominant] += 50.0;
                }
                if w.iter().all(|&x| x == 0.0) {
                    w[0] = 1.0;
                }
                w
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Trial counts from 0 to 5000 cover both binomial samplers: BINV
    /// below `n·p = 10`, BTRS above it.
    #[test]
    fn prepared_draws_match_one_shot_multinomial(
        weights in weights_strategy(),
        trials in prop::collection::vec(0u64..5_000, 1..12),
        seed in 0u64..1_000_000,
    ) {
        assert_bit_identical(&weights, &trials, StdRng::seed_from_u64(seed));
    }

    /// Small trial counts repeated many times: the start-value caches are
    /// hit, extended above and extended below.
    #[test]
    fn cached_start_values_match_fresh_ones(
        weights in weights_strategy(),
        trials in prop::collection::vec(0u64..60, 20..60),
        seed in 0u64..1_000_000,
    ) {
        assert_bit_identical(&weights, &trials, StdRng::seed_from_u64(seed));
    }

    /// Spiked uniforms force BINV's `x > n` retry, which must restart from
    /// the same (cached) start value.
    #[test]
    fn binv_retries_match(
        weights in weights_strategy(),
        trials in prop::collection::vec(1u64..40, 5..30),
        seed in 0u64..1_000_000,
        period in 3u64..8,
    ) {
        assert_bit_identical(&weights, &trials, SpikedRng::new(seed, period));
    }
}

#[test]
fn both_samplers_and_the_complement_path_match() {
    // Conditional 0.3: BINV at n = 20 (n·p = 6), BTRS at n = 1000.
    // Conditional 0.8: the complement path into BINV, then BTRS.
    for weights in [[0.3, 0.7], [0.8, 0.2]] {
        for n in [20, 1000] {
            assert_bit_identical(&weights, &[n, n, n], StdRng::seed_from_u64(n));
        }
    }
}

#[test]
fn a_binv_retry_is_reproduced() {
    // With u = 1 − 2⁻⁵³, Binomial(2, 7/200.5) walks past its support:
    // the first draw retries and consumes a second word.
    let weights = [7.0, 193.5];
    let mut rng = SpikedRng::new(3, 1_000);
    rng.words = 999;
    let mut probe = rng.clone();
    let _ = multinomial(2, &weights, &mut probe);
    assert_eq!(
        probe.words - rng.words,
        2,
        "the spiked uniform must force one retry"
    );
    assert_bit_identical(&weights, &[2, 2, 2], rng);
}

#[test]
fn zero_weights_and_degenerate_counts_match() {
    // Residual mass exhausted before the last category, all mass on the
    // last category, and a single category.
    assert_bit_identical(&[2.0, 0.0, 0.0], &[0, 5, 50], StdRng::seed_from_u64(1));
    assert_bit_identical(&[0.0, 0.0, 3.0], &[0, 5, 50], StdRng::seed_from_u64(2));
    assert_bit_identical(&[1.0], &[0, 7], StdRng::seed_from_u64(3));
    assert_bit_identical(&[0.0, 0.0], &[0, 0], StdRng::seed_from_u64(4));
}

#[test]
#[should_panic(expected = "multinomial weights must not all be zero")]
fn prepared_zero_mass_panics_like_multinomial() {
    let mut prepared = PreparedMultinomial::new(&[0.0, 0.0]);
    prepared.sample_into(1, &mut [0, 0], &mut StdRng::seed_from_u64(5));
}
