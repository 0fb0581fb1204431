//! Error types shared across the CMAB-HS workspace.

use std::fmt;

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, CdtError>;

/// Errors raised by the CDT system.
///
/// The variants are deliberately descriptive: every invalid-parameter path
/// names the offending parameter and its value so that configuration bugs in
/// experiments surface immediately rather than as NaNs deep in the game
/// algebra.
#[derive(Debug, Clone, PartialEq)]
pub enum CdtError {
    /// A numeric parameter violated its documented domain
    /// (e.g. `a_i <= 0`, `θ <= 0`, `ω <= 1`).
    InvalidParameter {
        /// Name of the parameter, matching the paper's notation.
        name: &'static str,
        /// The offending value.
        value: f64,
        /// Human-readable constraint, e.g. `"must be > 0"`.
        constraint: &'static str,
    },
    /// A structural configuration error (counts, set sizes).
    InvalidConfig {
        /// Description of the violated structural requirement.
        message: String,
    },
    /// `K > M`: cannot select more sellers than exist.
    SelectionTooLarge {
        /// Requested selection size `K`.
        k: usize,
        /// Available sellers `M`.
        m: usize,
    },
    /// A price bound interval is empty (`min > max`).
    EmptyPriceRange {
        /// Lower bound of the interval.
        min: f64,
        /// Upper bound of the interval.
        max: f64,
    },
    /// The Stackelberg game received an empty selected-seller set.
    EmptySelection,
    /// A quality observation fell outside `[0, 1]`.
    QualityOutOfRange {
        /// The offending value.
        value: f64,
    },
    /// The mechanism was asked to run past its configured horizon.
    HorizonExhausted {
        /// The configured total number of rounds `N`.
        n: usize,
    },
    /// Parsing a serialized trace record failed.
    TraceParse {
        /// Line number (1-based) in the input.
        line: usize,
        /// Description of the parse failure.
        message: String,
    },
}

impl fmt::Display for CdtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdtError::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(f, "invalid parameter {name} = {value}: {constraint}"),
            CdtError::InvalidConfig { message } => write!(f, "invalid configuration: {message}"),
            CdtError::SelectionTooLarge { k, m } => {
                write!(f, "cannot select K={k} sellers out of M={m}")
            }
            CdtError::EmptyPriceRange { min, max } => {
                write!(f, "empty price range [{min}, {max}]")
            }
            CdtError::EmptySelection => write!(f, "Stackelberg game requires >= 1 selected seller"),
            CdtError::QualityOutOfRange { value } => {
                write!(f, "quality observation {value} outside [0, 1]")
            }
            CdtError::HorizonExhausted { n } => {
                write!(f, "data collection job already ran its N={n} rounds")
            }
            CdtError::TraceParse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for CdtError {}

impl CdtError {
    /// Helper constructing an [`CdtError::InvalidParameter`].
    #[must_use]
    pub fn invalid(name: &'static str, value: f64, constraint: &'static str) -> Self {
        CdtError::InvalidParameter {
            name,
            value,
            constraint,
        }
    }

    /// Helper constructing an [`CdtError::InvalidConfig`].
    #[must_use]
    pub fn config(message: impl Into<String>) -> Self {
        CdtError::InvalidConfig {
            message: message.into(),
        }
    }
}

/// Validates that `value` is finite and strictly positive.
pub fn require_positive(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(CdtError::invalid(name, value, "must be finite and > 0"))
    }
}

/// Validates that `value` is finite and non-negative.
pub fn require_non_negative(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(CdtError::invalid(name, value, "must be finite and >= 0"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_parameter() {
        let e = CdtError::invalid("a_i", -1.0, "must be > 0");
        assert!(e.to_string().contains("a_i"));
        assert!(e.to_string().contains("-1"));
    }

    #[test]
    fn require_positive_accepts_and_rejects() {
        assert_eq!(require_positive("x", 0.5).unwrap(), 0.5);
        assert!(require_positive("x", 0.0).is_err());
        assert!(require_positive("x", -3.0).is_err());
        assert!(require_positive("x", f64::NAN).is_err());
        assert!(require_positive("x", f64::INFINITY).is_err());
    }

    #[test]
    fn require_non_negative_accepts_zero() {
        assert_eq!(require_non_negative("b", 0.0).unwrap(), 0.0);
        assert!(require_non_negative("b", -0.1).is_err());
    }

    #[test]
    fn selection_too_large_display() {
        let e = CdtError::SelectionTooLarge { k: 20, m: 10 };
        assert_eq!(e.to_string(), "cannot select K=20 sellers out of M=10");
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&CdtError::EmptySelection);
    }
}
