//! Standard noise-matrix families discussed in the paper.
//!
//! Section 2 and Section 4 of Fraigniaud & Natale (PODC 2016) introduce, as
//! examples and counterexamples, several ways an opinion `i` can be switched
//! to another opinion `i′` by the channel:
//!
//! * flipped to the complement (the binary matrix of Eq. (1));
//! * switched uniformly at random to any other opinion (the k-ary
//!   generalization, shown m.p. for every δ);
//! * switched to a "close" opinion `i ± 1 (mod k)` (cyclic noise);
//! * "reset" to a fixed opinion (resetting noise);
//! * an arbitrary near-uniform band `p` on the diagonal, off-diagonal
//!   entries in `[q_l, q_u]` (Eq. (17), with the sufficient condition of
//!   Eq. (18));
//! * the diagonally-dominant counterexample of Section 4, which fails to
//!   preserve even a strict majority when `ε, δ < 1/6`.
//!
//! All constructors validate their parameters and return a fully checked
//! [`NoiseMatrix`].

use crate::error::NoiseError;
use crate::matrix::NoiseMatrix;
use rand::Rng;

/// The binary noise matrix of Eq. (1):
/// `[[1/2 + ε, 1/2 − ε], [1/2 − ε, 1/2 + ε]]`.
///
/// # Errors
///
/// Returns [`NoiseError::InvalidEpsilon`] unless `0 < ε ≤ 1/2`.
///
/// ```
/// let p = noisy_channel::families::binary_flip(0.1)?;
/// assert!((p.entry(0, 1) - 0.4).abs() < 1e-12);
/// # Ok::<(), noisy_channel::NoiseError>(())
/// ```
pub fn binary_flip(epsilon: f64) -> Result<NoiseMatrix, NoiseError> {
    check_binary_flip(epsilon)?;
    NoiseMatrix::from_rows(vec![
        vec![0.5 + epsilon, 0.5 - epsilon],
        vec![0.5 - epsilon, 0.5 + epsilon],
    ])
}

/// Checks the [`binary_flip`] family's domain without building the matrix.
///
/// # Errors
///
/// Same as [`binary_flip`].
pub fn check_binary_flip(epsilon: f64) -> Result<(), NoiseError> {
    check_half_open_epsilon(epsilon)
}

/// `0 < ε ≤ 1/2`, the domain of the binary and diagonally-dominant families.
fn check_half_open_epsilon(epsilon: f64) -> Result<(), NoiseError> {
    if !(epsilon.is_finite() && epsilon > 0.0 && epsilon <= 0.5) {
        return Err(NoiseError::InvalidEpsilon {
            value: epsilon,
            max: 0.5,
        });
    }
    Ok(())
}

/// Checks the [`uniform`] family's domain without building the matrix.
///
/// # Errors
///
/// Same as [`uniform`].
pub fn check_uniform(k: usize, epsilon: f64) -> Result<(), NoiseError> {
    if k < 2 {
        return Err(NoiseError::TooFewOpinions { found: k });
    }
    let max = 1.0 - 1.0 / k as f64;
    if !(epsilon.is_finite() && epsilon > 0.0 && epsilon <= max + 1e-12) {
        return Err(NoiseError::InvalidEpsilon {
            value: epsilon,
            max,
        });
    }
    Ok(())
}

/// The uniform k-ary noise matrix: `1/k + ε` on the diagonal and
/// `1/k − ε/(k−1)` everywhere else.
///
/// This is the "natural generalization of the noise matrix in \[19\]" from
/// Section 4 of the paper, and it is (ε, δ)-m.p. for every `δ > 0` with
/// respect to any opinion.
///
/// # Errors
///
/// * [`NoiseError::TooFewOpinions`] if `k < 2`.
/// * [`NoiseError::InvalidEpsilon`] unless `0 < ε ≤ 1 − 1/k`.
pub fn uniform(k: usize, epsilon: f64) -> Result<NoiseMatrix, NoiseError> {
    check_uniform(k, epsilon)?;
    let diag = 1.0 / k as f64 + epsilon;
    let off = 1.0 / k as f64 - epsilon / (k as f64 - 1.0);
    let rows = (0..k)
        .map(|i| (0..k).map(|j| if i == j { diag } else { off }).collect())
        .collect();
    NoiseMatrix::from_rows(rows)
}

/// Cyclic ("close opinion") noise: an opinion survives with probability
/// `1 − 2λ` and is switched to each of its two cyclic neighbours
/// `i ± 1 (mod k)` with probability `λ`.
///
/// This models the "i′ could be picked as one of the close opinions" pattern
/// mentioned in Section 1.2.2.
///
/// # Errors
///
/// * [`NoiseError::TooFewOpinions`] if `k < 3` (for `k = 2` use
///   [`binary_flip`]).
/// * [`NoiseError::InvalidEpsilon`] unless `0 < λ < 1/2`.
pub fn cyclic(k: usize, lambda: f64) -> Result<NoiseMatrix, NoiseError> {
    check_cyclic(k, lambda)?;
    let rows = (0..k)
        .map(|i| {
            let mut row = vec![0.0; k];
            row[i] = 1.0 - 2.0 * lambda;
            row[(i + 1) % k] += lambda;
            row[(i + k - 1) % k] += lambda;
            row
        })
        .collect();
    NoiseMatrix::from_rows(rows)
}

/// Checks the [`cyclic`] family's domain without building the matrix.
///
/// # Errors
///
/// Same as [`cyclic`].
pub fn check_cyclic(k: usize, lambda: f64) -> Result<(), NoiseError> {
    if k < 3 {
        return Err(NoiseError::TooFewOpinions { found: k });
    }
    if !(lambda.is_finite() && lambda > 0.0 && lambda < 0.5) {
        return Err(NoiseError::InvalidEpsilon {
            value: lambda,
            max: 0.5,
        });
    }
    Ok(())
}

/// Resetting noise: with probability `λ` the transmitted opinion is replaced
/// by the fixed opinion `target`, otherwise it survives unchanged.
///
/// This models the "i′ could be reset to, say, i = 1" pattern from
/// Section 1.2.2. It is *not* majority preserving with respect to any
/// opinion other than `target` once `λ` is large enough.
///
/// # Errors
///
/// * [`NoiseError::TooFewOpinions`] if `k < 2`.
/// * [`NoiseError::OpinionOutOfRange`] if `target ≥ k`.
/// * [`NoiseError::InvalidEpsilon`] unless `0 < λ < 1`.
pub fn reset_to_opinion(k: usize, lambda: f64, target: usize) -> Result<NoiseMatrix, NoiseError> {
    check_reset_to_opinion(k, lambda, target)?;
    let rows = (0..k)
        .map(|i| {
            let mut row = vec![0.0; k];
            row[i] += 1.0 - lambda;
            row[target] += lambda;
            row
        })
        .collect();
    NoiseMatrix::from_rows(rows)
}

/// Checks the [`reset_to_opinion`] family's domain without building the
/// matrix.
///
/// # Errors
///
/// Same as [`reset_to_opinion`].
pub fn check_reset_to_opinion(k: usize, lambda: f64, target: usize) -> Result<(), NoiseError> {
    if k < 2 {
        return Err(NoiseError::TooFewOpinions { found: k });
    }
    if target >= k {
        return Err(NoiseError::OpinionOutOfRange {
            opinion: target,
            num_opinions: k,
        });
    }
    if !(lambda.is_finite() && lambda > 0.0 && lambda < 1.0) {
        return Err(NoiseError::InvalidEpsilon {
            value: lambda,
            max: 1.0,
        });
    }
    Ok(())
}

/// The diagonally-dominant counterexample of Section 4.
///
/// The paper displays the matrix
///
/// ```text
/// ⎛ 1/2+ε    0     1/2−ε ⎞
/// ⎜ 1/2−ε  1/2+ε     0   ⎟
/// ⎝   0    1/2−ε   1/2+ε ⎠
/// ```
///
/// and multiplies it by the δ-biased *column* vector
/// `c = (1/2 + δ, 1/2 − δ, 0)ᵀ`. In this crate the noise acts on row
/// vectors (`c ↦ c · P`, Eq. (2) with `p_{i,j} = Pr[i received as j]`), so
/// the equivalent counterexample is the transpose: each opinion `i` is kept
/// with probability `1/2 + ε` and switched to `i + 1 (mod 3)` with
/// probability `1/2 − ε`. Despite being diagonally dominant, for
/// `ε, δ < 1/6` the matrix does not even preserve the majority of the
/// δ-biased distribution `c = (1/2 + δ, 1/2 − δ, 0)`.
///
/// # Errors
///
/// Returns [`NoiseError::InvalidEpsilon`] unless `0 < ε ≤ 1/2`.
pub fn diagonally_dominant_counterexample(epsilon: f64) -> Result<NoiseMatrix, NoiseError> {
    check_diagonally_dominant_counterexample(epsilon)?;
    let a = 0.5 + epsilon;
    let b = 0.5 - epsilon;
    NoiseMatrix::from_rows(vec![
        vec![a, b, 0.0],
        vec![0.0, a, b],
        vec![b, 0.0, a],
    ])
}

/// Checks the [`diagonally_dominant_counterexample`] family's domain
/// without building the matrix.
///
/// # Errors
///
/// Same as [`diagonally_dominant_counterexample`].
pub fn check_diagonally_dominant_counterexample(epsilon: f64) -> Result<(), NoiseError> {
    check_half_open_epsilon(epsilon)
}

/// A near-uniform band matrix in the family of Eq. (17): diagonal entries
/// equal to `p`, off-diagonal entries interpolating between `q_l` and `q_u`
/// deterministically (entries within a row increase linearly from `q_l` to
/// `q_u` and are then rescaled so the row sums to one, keeping the diagonal
/// at `p`).
///
/// Eq. (18) of the paper shows that any such matrix is
/// `((p − q_u)/2, δ)`-m.p. provided `(p − q_u) δ / 2 ≥ q_u − q_l`.
///
/// # Errors
///
/// * [`NoiseError::TooFewOpinions`] if `k < 2`.
/// * [`NoiseError::InvalidEpsilon`] if the parameters cannot form a
///   stochastic matrix (`p ∉ (0, 1)`, `q_l > q_u`, negative or non-finite
///   band values).
pub fn near_uniform_band(
    k: usize,
    p: f64,
    q_l: f64,
    q_u: f64,
) -> Result<NoiseMatrix, NoiseError> {
    check_near_uniform_band(k, p, q_l, q_u)?;
    let off_count = (k - 1) as f64;
    let rows = (0..k)
        .map(|i| {
            // Raw off-diagonal values spread over [q_l, q_u].
            let mut raw: Vec<f64> = (0..k - 1)
                .map(|t| {
                    if k == 2 {
                        (q_l + q_u) / 2.0
                    } else {
                        q_l + (q_u - q_l) * t as f64 / (k - 2).max(1) as f64
                    }
                })
                .collect();
            // Rescale so the row sums to one with the diagonal fixed at p.
            let raw_sum: f64 = raw.iter().sum();
            let target = 1.0 - p;
            if raw_sum > 0.0 {
                for v in &mut raw {
                    *v *= target / raw_sum;
                }
            } else {
                for v in &mut raw {
                    *v = target / off_count;
                }
            }
            let mut row = Vec::with_capacity(k);
            let mut it = raw.into_iter();
            for j in 0..k {
                if j == i {
                    row.push(p);
                } else {
                    row.push(it.next().expect("k-1 off-diagonal entries"));
                }
            }
            row
        })
        .collect();
    NoiseMatrix::from_rows(rows)
}

/// Checks the [`near_uniform_band`] family's domain without building the
/// matrix.
///
/// # Errors
///
/// Same as [`near_uniform_band`].
pub fn check_near_uniform_band(k: usize, p: f64, q_l: f64, q_u: f64) -> Result<(), NoiseError> {
    if k < 2 {
        return Err(NoiseError::TooFewOpinions { found: k });
    }
    if !(p > 0.0 && p < 1.0 && q_l >= 0.0 && q_u >= q_l && q_u.is_finite()) {
        return Err(NoiseError::InvalidEpsilon { value: p, max: 1.0 });
    }
    Ok(())
}

/// A random row-stochastic matrix whose diagonal is boosted by `diag_boost`
/// (useful for fuzzing the majority-preservation test and the simulator).
///
/// Each row is drawn by sampling `k` exponential-like weights, normalizing,
/// and then mixing with the identity: `row = diag_boost · e_i +
/// (1 − diag_boost) · dirichlet`.
///
/// # Errors
///
/// * [`NoiseError::TooFewOpinions`] if `k < 2`.
/// * [`NoiseError::InvalidEpsilon`] unless `0 ≤ diag_boost ≤ 1`.
pub fn random_stochastic<R: Rng + ?Sized>(
    k: usize,
    diag_boost: f64,
    rng: &mut R,
) -> Result<NoiseMatrix, NoiseError> {
    if k < 2 {
        return Err(NoiseError::TooFewOpinions { found: k });
    }
    if !(0.0..=1.0).contains(&diag_boost) || !diag_boost.is_finite() {
        return Err(NoiseError::InvalidEpsilon {
            value: diag_boost,
            max: 1.0,
        });
    }
    let rows = (0..k)
        .map(|i| {
            // Sample positive weights (inverse-CDF of Exp(1)) and normalize.
            let weights: Vec<f64> = (0..k)
                .map(|_| -f64::ln(1.0 - rng.gen::<f64>()).max(1e-12))
                .collect();
            let sum: f64 = weights.iter().sum();
            let mut row: Vec<f64> = weights
                .into_iter()
                .map(|w| (1.0 - diag_boost) * w / sum)
                .collect();
            row[i] += diag_boost;
            // Normalize defensively against floating-point drift.
            let total: f64 = row.iter().sum();
            for v in &mut row {
                *v /= total;
            }
            row
        })
        .collect();
    NoiseMatrix::from_rows(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_rows_stochastic(p: &NoiseMatrix) {
        for row in p.iter_rows() {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(row.iter().all(|&v| v >= -1e-12));
        }
    }

    #[test]
    fn binary_flip_matches_eq_1() {
        let p = binary_flip(0.2).unwrap();
        assert_eq!(p.num_opinions(), 2);
        assert!((p.entry(0, 0) - 0.7).abs() < 1e-12);
        assert!((p.entry(1, 0) - 0.3).abs() < 1e-12);
        assert_rows_stochastic(&p);
        assert!(binary_flip(0.0).is_err());
        assert!(binary_flip(0.6).is_err());
        assert!(binary_flip(f64::NAN).is_err());
    }

    #[test]
    fn uniform_reduces_to_binary_flip_for_k_2() {
        let u = uniform(2, 0.2).unwrap();
        let b = binary_flip(0.2).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((u.entry(i, j) - b.entry(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn uniform_has_correct_entries_and_bounds() {
        let k = 5;
        let eps = 0.1;
        let p = uniform(k, eps).unwrap();
        assert!((p.entry(2, 2) - (0.2 + 0.1)).abs() < 1e-12);
        assert!((p.entry(2, 3) - (0.2 - 0.1 / 4.0)).abs() < 1e-12);
        assert_rows_stochastic(&p);
        // Epsilon too large makes off-diagonal entries negative.
        assert!(uniform(5, 0.9).is_err());
        assert!(uniform(1, 0.1).is_err());
        // Epsilon exactly at the limit is accepted (off-diagonals become 0).
        let limit = uniform(4, 0.75).unwrap();
        assert!((limit.entry(0, 1)).abs() < 1e-9);
    }

    #[test]
    fn cyclic_spreads_to_neighbours_only() {
        let p = cyclic(5, 0.1).unwrap();
        assert!((p.entry(0, 0) - 0.8).abs() < 1e-12);
        assert!((p.entry(0, 1) - 0.1).abs() < 1e-12);
        assert!((p.entry(0, 4) - 0.1).abs() < 1e-12);
        assert_eq!(p.entry(0, 2), 0.0);
        assert_rows_stochastic(&p);
        assert!(cyclic(2, 0.1).is_err());
        assert!(cyclic(5, 0.5).is_err());
    }

    #[test]
    fn reset_concentrates_on_target() {
        let p = reset_to_opinion(4, 0.25, 2).unwrap();
        assert!((p.entry(0, 0) - 0.75).abs() < 1e-12);
        assert!((p.entry(0, 2) - 0.25).abs() < 1e-12);
        // The target keeps its opinion with probability 1.
        assert!((p.entry(2, 2) - 1.0).abs() < 1e-12);
        assert_rows_stochastic(&p);
        assert!(reset_to_opinion(4, 0.25, 7).is_err());
        assert!(reset_to_opinion(4, 1.5, 0).is_err());
    }

    #[test]
    fn counterexample_matches_the_paper() {
        let eps = 0.1;
        let p = diagonally_dominant_counterexample(eps).unwrap();
        assert!(p.is_diagonally_dominant());
        assert_rows_stochastic(&p);
        // Multiplying by c = (1/2+delta, 1/2-delta, 0) must *reverse* the
        // majority for small eps and delta (Section 4).
        let delta = 0.1;
        let c = [0.5 + delta, 0.5 - delta, 0.0];
        let out = p.apply(&c);
        assert!(
            out[0] < out[1],
            "the counterexample should flip the majority: got {out:?}"
        );
    }

    #[test]
    fn near_uniform_band_is_stochastic_and_keeps_diagonal() {
        let p = near_uniform_band(6, 0.4, 0.1, 0.14).unwrap();
        assert_rows_stochastic(&p);
        for i in 0..6 {
            assert!((p.entry(i, i) - 0.4).abs() < 1e-12);
        }
        assert!(near_uniform_band(1, 0.4, 0.1, 0.14).is_err());
        assert!(near_uniform_band(4, 1.4, 0.1, 0.14).is_err());
        assert!(near_uniform_band(4, 0.4, 0.2, 0.1).is_err());
    }

    #[test]
    fn random_stochastic_is_valid_and_respects_boost() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = random_stochastic(6, 0.5, &mut rng).unwrap();
        assert_rows_stochastic(&p);
        for i in 0..6 {
            assert!(p.entry(i, i) >= 0.5 - 1e-9);
        }
        assert!(random_stochastic(1, 0.5, &mut rng).is_err());
        assert!(random_stochastic(3, 1.5, &mut rng).is_err());
    }
}
