//! Strongly-typed identifiers for sellers, PoIs, and trading rounds.
//!
//! Using newtypes instead of bare `usize` prevents the classic index-mixup
//! bugs in code that simultaneously iterates sellers (`i`), PoIs (`l`), and
//! rounds (`t`).

use std::fmt;

/// Index of a data seller (`i ∈ M = {0, …, M-1}`).
///
/// The paper indexes sellers from 1; this codebase is zero-based throughout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SellerId(pub usize);

/// Index of a Point-of-Interest (`l ∈ L = {0, …, L-1}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoiId(pub usize);

/// A trading round (`t ∈ {0, …, N-1}`; the paper's round 1 is our round 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Round(pub usize);

macro_rules! id_impls {
    ($ty:ident, $letter:literal) => {
        impl $ty {
            /// Returns the underlying zero-based index.
            #[must_use]
            pub const fn index(self) -> usize {
                self.0
            }
        }

        impl From<usize> for $ty {
            fn from(v: usize) -> Self {
                Self(v)
            }
        }

        impl From<$ty> for usize {
            fn from(v: $ty) -> usize {
                v.0
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $letter, self.0)
            }
        }
    };
}

id_impls!(SellerId, "s");
id_impls!(PoiId, "poi");
id_impls!(Round, "t");

impl Round {
    /// The first round (the paper's initial-exploration round).
    pub const FIRST: Round = Round(0);

    /// The next round.
    #[must_use]
    pub const fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// `true` for the initial exploration round (Algorithm 1, steps 2–5).
    #[must_use]
    pub const fn is_initial(self) -> bool {
        self.0 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(SellerId(3).to_string(), "s3");
        assert_eq!(PoiId(7).to_string(), "poi7");
        assert_eq!(Round(0).to_string(), "t0");
    }

    #[test]
    fn round_progression() {
        let r = Round::FIRST;
        assert!(r.is_initial());
        assert!(!r.next().is_initial());
        assert_eq!(r.next().index(), 1);
    }

    #[test]
    fn conversion_round_trips() {
        let s: SellerId = 42usize.into();
        let back: usize = s.into();
        assert_eq!(back, 42);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(SellerId(1) < SellerId(2));
        assert!(Round(9) < Round(10));
    }
}
