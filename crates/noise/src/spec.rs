//! Declarative noise-matrix specifications.
//!
//! A [`NoiseSpec`] names one of the paper's matrix [`families`](crate::families)
//! together with its parameters, *without* fixing the opinion count `k`:
//! the concrete [`NoiseMatrix`] is built later with [`NoiseSpec::build`].
//! This is what makes noise configurable from scenario spec files — the
//! experiment layer stores and round-trips the textual form
//! (`uniform(0.25)`, `cyclic(0.05)`, …) and materializes the matrix per
//! sweep point.
//!
//! The textual grammar is `family(arg, …)`:
//!
//! | text                  | family                                            |
//! |-----------------------|---------------------------------------------------|
//! | `uniform(eps)`        | [`families::uniform`]                             |
//! | `flip(eps)`           | [`families::binary_flip`] (k = 2 only)            |
//! | `cyclic(lambda)`      | [`families::cyclic`]                              |
//! | `reset(lambda, i)`    | [`families::reset_to_opinion`]                    |
//! | `diag(eps)`           | [`families::diagonally_dominant_counterexample`] (k = 3 only) |
//! | `band(p, q_l, q_u)`   | [`families::near_uniform_band`]                   |
//!
//! ```
//! use noisy_channel::NoiseSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec: NoiseSpec = "uniform(0.25)".parse()?;
//! let matrix = spec.build(3)?;
//! assert!((matrix.entry(0, 0) - (1.0 / 3.0 + 0.25)).abs() < 1e-12);
//! // The canonical text form round-trips.
//! assert_eq!(spec.to_string().parse::<NoiseSpec>()?, spec);
//! # Ok(())
//! # }
//! ```

use crate::error::NoiseError;
use crate::families;
use crate::matrix::NoiseMatrix;
use std::fmt;
use std::str::FromStr;

/// A noise-matrix family plus its parameters, independent of the opinion
/// count `k`.
///
/// The textual grammar (produced by `Display`, parsed by `FromStr`) is
/// `family(arg, …)`: `uniform(eps)`, `flip(eps)` (k = 2 only),
/// `cyclic(lambda)`, `reset(lambda, target)`, `diag(eps)` (k = 3 only) and
/// `band(p, q_low, q_high)`, each mapping to the constructor of the same
/// family in [`families`].
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseSpec {
    /// The uniform k-ary family: `1/k + ε` on the diagonal
    /// ([`families::uniform`]).
    Uniform {
        /// Diagonal boost ε.
        epsilon: f64,
    },
    /// The binary ε-flip of Eq. (1) ([`families::binary_flip`]); only valid
    /// for `k = 2`.
    BinaryFlip {
        /// Diagonal boost ε.
        epsilon: f64,
    },
    /// Cyclic "close opinion" noise ([`families::cyclic`]).
    Cyclic {
        /// Switch probability λ to each cyclic neighbour.
        lambda: f64,
    },
    /// Resetting noise towards a fixed opinion
    /// ([`families::reset_to_opinion`]).
    Reset {
        /// Reset probability λ.
        lambda: f64,
        /// The opinion every message is reset to.
        target: usize,
    },
    /// The diagonally-dominant counterexample of Section 4
    /// ([`families::diagonally_dominant_counterexample`]); only valid for
    /// `k = 3`.
    DiagonallyDominant {
        /// Diagonal boost ε.
        epsilon: f64,
    },
    /// A near-uniform band matrix of Eq. (17)
    /// ([`families::near_uniform_band`]).
    Band {
        /// Diagonal entry `p`.
        p: f64,
        /// Lower end of the off-diagonal band.
        q_low: f64,
        /// Upper end of the off-diagonal band.
        q_high: f64,
    },
}

impl NoiseSpec {
    /// Builds the concrete matrix for `k` opinions.
    ///
    /// # Errors
    ///
    /// Propagates the family constructor's validation errors; additionally
    /// rejects `flip` with `k ≠ 2` and `diag` with `k ≠ 3` (those families
    /// are defined at a fixed size) with [`NoiseError::InvalidSpec`].
    pub fn build(&self, k: usize) -> Result<NoiseMatrix, NoiseError> {
        self.check(k)?;
        match *self {
            NoiseSpec::Uniform { epsilon } => families::uniform(k, epsilon),
            NoiseSpec::BinaryFlip { epsilon } => families::binary_flip(epsilon),
            NoiseSpec::Cyclic { lambda } => families::cyclic(k, lambda),
            NoiseSpec::Reset { lambda, target } => families::reset_to_opinion(k, lambda, target),
            NoiseSpec::DiagonallyDominant { epsilon } => {
                families::diagonally_dominant_counterexample(epsilon)
            }
            NoiseSpec::Band { p, q_low, q_high } => {
                families::near_uniform_band(k, p, q_low, q_high)
            }
        }
    }

    /// Checks that [`build`](Self::build) succeeds for `k` opinions,
    /// without building the matrix: the family's own domain check
    /// (`families::check_*`) plus the fixed sizes of `flip` and `diag`.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`build`](Self::build) would return.
    pub fn check(&self, k: usize) -> Result<(), NoiseError> {
        match *self {
            NoiseSpec::Uniform { epsilon } => families::check_uniform(k, epsilon),
            NoiseSpec::BinaryFlip { epsilon } => {
                if k != 2 {
                    return Err(NoiseError::InvalidSpec(format!(
                        "flip(..) is a binary family and cannot serve k = {k} opinions"
                    )));
                }
                families::check_binary_flip(epsilon)
            }
            NoiseSpec::Cyclic { lambda } => families::check_cyclic(k, lambda),
            NoiseSpec::Reset { lambda, target } => {
                families::check_reset_to_opinion(k, lambda, target)
            }
            NoiseSpec::DiagonallyDominant { epsilon } => {
                if k != 3 {
                    return Err(NoiseError::InvalidSpec(format!(
                        "diag(..) is defined over exactly 3 opinions, not k = {k}"
                    )));
                }
                families::check_diagonally_dominant_counterexample(epsilon)
            }
            NoiseSpec::Band { p, q_low, q_high } => {
                families::check_near_uniform_band(k, p, q_low, q_high)
            }
        }
    }

    /// The family's noise-strength parameter, when it has a single scalar
    /// one that an ε-sweep can meaningfully vary (`uniform`, `flip`,
    /// `diag`).
    pub fn epsilon_parameter(&self) -> Option<f64> {
        match *self {
            NoiseSpec::Uniform { epsilon }
            | NoiseSpec::BinaryFlip { epsilon }
            | NoiseSpec::DiagonallyDominant { epsilon } => Some(epsilon),
            _ => None,
        }
    }

    /// This spec with its ε parameter replaced, for families that have one
    /// (see [`epsilon_parameter`](Self::epsilon_parameter)); other families
    /// are returned unchanged — an ε-sweep over them varies only the
    /// protocol schedule, not the channel.
    pub fn with_epsilon(&self, epsilon: f64) -> NoiseSpec {
        match *self {
            NoiseSpec::Uniform { .. } => NoiseSpec::Uniform { epsilon },
            NoiseSpec::BinaryFlip { .. } => NoiseSpec::BinaryFlip { epsilon },
            NoiseSpec::DiagonallyDominant { .. } => NoiseSpec::DiagonallyDominant { epsilon },
            ref other => other.clone(),
        }
    }
}

impl fmt::Display for NoiseSpec {
    /// The canonical textual form (parseable back via [`FromStr`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NoiseSpec::Uniform { epsilon } => write!(f, "uniform({epsilon})"),
            NoiseSpec::BinaryFlip { epsilon } => write!(f, "flip({epsilon})"),
            NoiseSpec::Cyclic { lambda } => write!(f, "cyclic({lambda})"),
            NoiseSpec::Reset { lambda, target } => write!(f, "reset({lambda}, {target})"),
            NoiseSpec::DiagonallyDominant { epsilon } => write!(f, "diag({epsilon})"),
            NoiseSpec::Band { p, q_low, q_high } => write!(f, "band({p}, {q_low}, {q_high})"),
        }
    }
}

impl FromStr for NoiseSpec {
    type Err = NoiseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || {
            NoiseError::InvalidSpec(format!(
                "malformed noise spec {s:?} (expected family(args): uniform(eps), flip(eps), \
                 cyclic(lambda), reset(lambda, target), diag(eps) or band(p, q_low, q_high))"
            ))
        };
        let s = s.trim();
        let open = s.find('(').ok_or_else(bad)?;
        if !s.ends_with(')') {
            return Err(bad());
        }
        let name = s[..open].trim();
        let args: Vec<&str> = s[open + 1..s.len() - 1]
            .split(',')
            .map(str::trim)
            .collect();
        let float = |i: usize| -> Result<f64, NoiseError> {
            args.get(i)
                .and_then(|a| a.parse::<f64>().ok())
                .ok_or_else(bad)
        };
        let int = |i: usize| -> Result<usize, NoiseError> {
            args.get(i)
                .and_then(|a| a.parse::<usize>().ok())
                .ok_or_else(bad)
        };
        let expect_arity = |n: usize| -> Result<(), NoiseError> {
            if args.len() == n {
                Ok(())
            } else {
                Err(bad())
            }
        };
        match name {
            "uniform" => {
                expect_arity(1)?;
                Ok(NoiseSpec::Uniform { epsilon: float(0)? })
            }
            "flip" => {
                expect_arity(1)?;
                Ok(NoiseSpec::BinaryFlip { epsilon: float(0)? })
            }
            "cyclic" => {
                expect_arity(1)?;
                Ok(NoiseSpec::Cyclic { lambda: float(0)? })
            }
            "reset" => {
                expect_arity(2)?;
                Ok(NoiseSpec::Reset {
                    lambda: float(0)?,
                    target: int(1)?,
                })
            }
            "diag" => {
                expect_arity(1)?;
                Ok(NoiseSpec::DiagonallyDominant { epsilon: float(0)? })
            }
            "band" => {
                expect_arity(3)?;
                Ok(NoiseSpec::Band {
                    p: float(0)?,
                    q_low: float(1)?,
                    q_high: float(2)?,
                })
            }
            _ => Err(bad()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_specs() -> Vec<NoiseSpec> {
        vec![
            NoiseSpec::Uniform { epsilon: 0.25 },
            NoiseSpec::BinaryFlip { epsilon: 0.3 },
            NoiseSpec::Cyclic { lambda: 0.05 },
            NoiseSpec::Reset {
                lambda: 0.4,
                target: 1,
            },
            NoiseSpec::DiagonallyDominant { epsilon: 0.05 },
            NoiseSpec::Band {
                p: 0.5,
                q_low: 0.24,
                q_high: 0.26,
            },
        ]
    }

    #[test]
    fn display_round_trips_for_every_family() {
        for spec in all_specs() {
            let text = spec.to_string();
            let parsed: NoiseSpec = text.parse().expect("canonical text parses");
            assert_eq!(parsed, spec, "round-trip of {text}");
        }
    }

    #[test]
    fn build_matches_the_direct_family_constructors() {
        let spec = NoiseSpec::Uniform { epsilon: 0.2 };
        assert_eq!(spec.build(4).unwrap(), families::uniform(4, 0.2).unwrap());
        let spec = NoiseSpec::Reset {
            lambda: 0.3,
            target: 2,
        };
        assert_eq!(
            spec.build(3).unwrap(),
            families::reset_to_opinion(3, 0.3, 2).unwrap()
        );
    }

    #[test]
    fn fixed_size_families_reject_other_sizes() {
        assert!(NoiseSpec::BinaryFlip { epsilon: 0.3 }.build(3).is_err());
        assert!(NoiseSpec::BinaryFlip { epsilon: 0.3 }.build(2).is_ok());
        assert!(NoiseSpec::DiagonallyDominant { epsilon: 0.05 }.build(2).is_err());
        assert!(NoiseSpec::DiagonallyDominant { epsilon: 0.05 }.build(3).is_ok());
    }

    #[test]
    fn check_agrees_with_build_without_building() {
        let values = [
            -0.1,
            0.0,
            0.05,
            0.3,
            0.49,
            0.5,
            0.6,
            0.7,
            0.9,
            1.0,
            1.5,
            f64::NAN,
            f64::INFINITY,
        ];
        let mut specs = Vec::new();
        for &x in &values {
            specs.push(NoiseSpec::Uniform { epsilon: x });
            specs.push(NoiseSpec::BinaryFlip { epsilon: x });
            specs.push(NoiseSpec::Cyclic { lambda: x });
            specs.push(NoiseSpec::DiagonallyDominant { epsilon: x });
            for target in [0, 2, 5] {
                specs.push(NoiseSpec::Reset { lambda: x, target });
            }
            for &q in &values {
                specs.push(NoiseSpec::Band {
                    p: x,
                    q_low: 0.05,
                    q_high: q,
                });
                specs.push(NoiseSpec::Band {
                    p: 0.5,
                    q_low: x,
                    q_high: q,
                });
            }
        }
        for spec in &specs {
            for k in 1..8 {
                assert_eq!(
                    spec.check(k).is_ok(),
                    spec.build(k).is_ok(),
                    "{spec} at k = {k}: check {:?}, build {:?}",
                    spec.check(k),
                    spec.build(k).err()
                );
            }
        }
    }

    #[test]
    fn with_epsilon_reparameterizes_only_eps_families() {
        let uniform = NoiseSpec::Uniform { epsilon: 0.1 }.with_epsilon(0.4);
        assert_eq!(uniform, NoiseSpec::Uniform { epsilon: 0.4 });
        assert_eq!(uniform.epsilon_parameter(), Some(0.4));
        let cyclic = NoiseSpec::Cyclic { lambda: 0.05 };
        assert_eq!(cyclic.with_epsilon(0.4), cyclic);
        assert_eq!(cyclic.epsilon_parameter(), None);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for text in [
            "",
            "uniform",
            "uniform(",
            "uniform()",
            "uniform(a)",
            "uniform(0.1, 0.2)",
            "reset(0.1)",
            "warp(0.1)",
            "band(0.5, 0.2)",
        ] {
            assert!(text.parse::<NoiseSpec>().is_err(), "{text:?} must not parse");
        }
    }

    #[test]
    fn parsing_tolerates_whitespace() {
        let spec: NoiseSpec = "  reset( 0.4 ,  1 )  ".parse().unwrap();
        assert_eq!(
            spec,
            NoiseSpec::Reset {
                lambda: 0.4,
                target: 1
            }
        );
    }
}
