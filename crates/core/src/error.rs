//! Errors raised by the anonymization algorithms.

use std::fmt;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from the `betalike` core algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The input table has no rows.
    EmptyTable,
    /// The β threshold was not strictly positive or not finite.
    BadBeta(f64),
    /// The t-closeness threshold was not finite or outside `(0, 1]`.
    BadT(f64),
    /// The QI set was invalid (empty, out of bounds, duplicated, or
    /// containing the SA).
    BadQi(String),
    /// The SA index was out of bounds.
    BadSa {
        /// Offending index.
        index: usize,
        /// Schema arity.
        arity: usize,
    },
    /// The bucketization produced a partition whose root EC violates the
    /// eligibility condition — indicates inconsistent frequency arithmetic
    /// and is always a bug, surfaced rather than silently published.
    RootNotEligible,
    /// Perturbation cannot bound a value's posterior: `f(p) ≥ 1` (use the
    /// enhanced bound, which guarantees `f(p) < 1` for `p < 1`).
    UnboundedPosterior {
        /// SA value code.
        value: u32,
        /// Its table frequency.
        freq: f64,
    },
    /// Perturbation needs at least two distinct SA values.
    DegenerateSaDomain,
    /// The perturbation matrix was numerically singular during
    /// reconstruction.
    SingularMatrix,
    /// A published partition failed β-likeness verification.
    Violation(Violation),
}

/// A concrete β-likeness violation found by [`crate::model::verify`].
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Index of the violating EC.
    pub ec: usize,
    /// The SA value whose frequency exceeds its bound.
    pub value: u32,
    /// Frequency of the value in the whole table.
    pub table_freq: f64,
    /// Frequency of the value in the EC.
    pub ec_freq: f64,
    /// The bound `f(p)` the EC frequency had to respect.
    pub bound: f64,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyTable => write!(f, "input table has no rows"),
            Error::BadBeta(b) => write!(f, "beta must be finite and > 0, got {b}"),
            Error::BadT(t) => write!(f, "t must be finite and within (0, 1], got {t}"),
            Error::BadQi(msg) => write!(f, "invalid QI set: {msg}"),
            Error::BadSa { index, arity } => {
                write!(f, "SA index {index} out of bounds (arity {arity})")
            }
            Error::RootNotEligible => write!(
                f,
                "bucket partition root violates the eligibility condition (internal bug)"
            ),
            Error::UnboundedPosterior { value, freq } => write!(
                f,
                "f(p) >= 1 for SA value {value} (p = {freq}); use the enhanced bound"
            ),
            Error::DegenerateSaDomain => {
                write!(f, "perturbation needs at least two SA values with support")
            }
            Error::SingularMatrix => write!(f, "perturbation matrix is singular"),
            Error::Violation(v) => write!(
                f,
                "EC {} violates beta-likeness on value {}: q = {:.6} > bound {:.6} (p = {:.6})",
                v.ec, v.value, v.ec_freq, v.bound, v.table_freq
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(Error::EmptyTable.to_string().contains("no rows"));
        assert!(Error::BadBeta(-1.0).to_string().contains("-1"));
        assert!(Error::BadT(-1.0).to_string().starts_with("t must"));
        let v = Error::Violation(Violation {
            ec: 3,
            value: 7,
            table_freq: 0.01,
            ec_freq: 0.5,
            bound: 0.02,
        });
        let s = v.to_string();
        assert!(s.contains("EC 3") && s.contains("value 7"));
    }
}
