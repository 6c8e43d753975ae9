//! The provenance-semiring hierarchy.

use std::fmt;

/// The semirings (and semiring families) of the provenance hierarchy used by
/// Table 4 of the paper, ordered from most to least informative.
///
/// `N[X]` (provenance polynomials) sits at the top; every other member is a
/// surjective semiring homomorphism image of it, computed by
/// [`Polynomial::coarsen`](crate::Polynomial::coarsen).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SemiringKind {
    /// `N[X]` — polynomials with coefficients and exponents.
    NX,
    /// `B[X]` — coefficients dropped (sets of monomials).
    BX,
    /// `Trio(X)` — exponents dropped, coefficients kept (bags of sets).
    Trio,
    /// `Why(X)` — witness sets: both coefficients and exponents dropped.
    Why,
    /// `PosBool(X)` — positive Boolean expressions; absorption applies.
    PosBool,
    /// `Lin(X)` — lineage: the flat set of contributing annotations.
    Lin,
}

impl SemiringKind {
    /// All kinds, most informative first.
    pub const ALL: [SemiringKind; 6] = [
        SemiringKind::NX,
        SemiringKind::BX,
        SemiringKind::Trio,
        SemiringKind::Why,
        SemiringKind::PosBool,
        SemiringKind::Lin,
    ];

    /// Whether the semiring keeps monomial exponents.
    pub fn keeps_exponents(self) -> bool {
        matches!(self, SemiringKind::NX | SemiringKind::BX)
    }

    /// Whether the semiring keeps coefficients (derivation counts).
    pub fn keeps_coefficients(self) -> bool {
        matches!(self, SemiringKind::NX | SemiringKind::Trio)
    }

    /// Whether the paper's reverse-engineering machinery supports the
    /// semiring (everything except `Lin(X)`, which the paper defers to
    /// future work).
    pub fn supports_reverse_engineering(self) -> bool {
        !matches!(self, SemiringKind::Lin)
    }
}

impl fmt::Display for SemiringKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SemiringKind::NX => "N[X]",
            SemiringKind::BX => "B[X]",
            SemiringKind::Trio => "Trio(X)",
            SemiringKind::Why => "Why(X)",
            SemiringKind::PosBool => "PosBool(X)",
            SemiringKind::Lin => "Lin(X)",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_flags() {
        assert!(SemiringKind::NX.keeps_exponents());
        assert!(SemiringKind::NX.keeps_coefficients());
        assert!(SemiringKind::BX.keeps_exponents());
        assert!(!SemiringKind::BX.keeps_coefficients());
        assert!(!SemiringKind::Trio.keeps_exponents());
        assert!(SemiringKind::Trio.keeps_coefficients());
        assert!(!SemiringKind::Why.keeps_exponents());
        assert!(!SemiringKind::Lin.supports_reverse_engineering());
        assert!(SemiringKind::PosBool.supports_reverse_engineering());
    }

    #[test]
    fn display_names() {
        assert_eq!(SemiringKind::NX.to_string(), "N[X]");
        assert_eq!(SemiringKind::Why.to_string(), "Why(X)");
    }
}
