//! Monomials: products of annotations with exponents.

use crate::{AnnotId, AnnotRegistry};

/// A monomial over annotations: a product `x1^e1 * ... * xn^en`.
///
/// Stored as a sorted vector of `(annotation, exponent)` pairs with strictly
/// increasing annotations and strictly positive exponents, so structural
/// equality coincides with algebraic equality.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Monomial {
    factors: Vec<(AnnotId, u32)>,
}

impl Monomial {
    /// The multiplicative identity (the empty product).
    pub fn one() -> Self {
        Self::default()
    }

    /// Builds a monomial from an iterator of annotations; repeats accumulate
    /// as exponents.
    pub fn from_annots<I: IntoIterator<Item = AnnotId>>(annots: I) -> Self {
        let mut v: Vec<AnnotId> = annots.into_iter().collect();
        v.sort_unstable();
        let mut factors: Vec<(AnnotId, u32)> = Vec::with_capacity(v.len());
        for a in v {
            match factors.last_mut() {
                Some((last, e)) if *last == a => *e = e.saturating_add(1),
                _ => factors.push((a, 1)),
            }
        }
        Self { factors }
    }

    /// Builds a monomial from `(annotation, exponent)` pairs.
    ///
    /// Pairs with zero exponent are dropped; duplicate annotations
    /// accumulate, saturating at `u32::MAX` instead of wrapping (a wrapped
    /// exponent would silently fabricate a *smaller* monomial and break the
    /// divisibility order).
    pub fn from_factors<I: IntoIterator<Item = (AnnotId, u32)>>(factors: I) -> Self {
        let mut v: Vec<(AnnotId, u32)> = factors.into_iter().filter(|&(_, e)| e > 0).collect();
        v.sort_unstable_by_key(|&(a, _)| a);
        let mut out: Vec<(AnnotId, u32)> = Vec::with_capacity(v.len());
        for (a, e) in v {
            match out.last_mut() {
                Some((last, acc)) if *last == a => *acc = acc.checked_add(e).unwrap_or(u32::MAX),
                _ => out.push((a, e)),
            }
        }
        Self { factors: out }
    }

    /// Whether this is the empty product.
    pub fn is_one(&self) -> bool {
        self.factors.is_empty()
    }

    /// The total degree: sum of exponents (saturating at `u32::MAX`).
    pub fn degree(&self) -> u32 {
        self.factors
            .iter()
            .fold(0u32, |acc, &(_, e)| acc.saturating_add(e))
    }

    /// The number of distinct annotations.
    pub fn support_size(&self) -> usize {
        self.factors.len()
    }

    /// The exponent of `a` (0 if absent).
    pub fn exponent(&self, a: AnnotId) -> u32 {
        self.factors
            .binary_search_by_key(&a, |&(x, _)| x)
            .map(|i| self.factors[i].1)
            .unwrap_or(0)
    }

    /// Whether `a` occurs in this monomial.
    pub fn contains(&self, a: AnnotId) -> bool {
        self.exponent(a) > 0
    }

    /// The sorted `(annotation, exponent)` factors.
    pub fn factors(&self) -> &[(AnnotId, u32)] {
        &self.factors
    }

    /// The distinct annotations, in increasing order.
    pub fn support(&self) -> impl Iterator<Item = AnnotId> + '_ {
        self.factors.iter().map(|&(a, _)| a)
    }

    /// Expands the monomial into a flat occurrence list, with each
    /// annotation repeated `exponent` times, in increasing annotation order.
    ///
    /// This is the occurrence view used by occurrence-level abstraction
    /// functions (Def. 3.1 of the paper).
    pub fn occurrences(&self) -> Vec<AnnotId> {
        let mut out = Vec::with_capacity(self.degree() as usize);
        for &(a, e) in &self.factors {
            out.extend(std::iter::repeat_n(a, e as usize));
        }
        out
    }

    /// The product of two monomials.
    pub fn mul(&self, other: &Self) -> Self {
        let mut out: Vec<(AnnotId, u32)> =
            Vec::with_capacity(self.factors.len() + other.factors.len());
        let (mut i, mut j) = (0, 0);
        while i < self.factors.len() && j < other.factors.len() {
            let (a, ea) = self.factors[i];
            let (b, eb) = other.factors[j];
            match a.cmp(&b) {
                std::cmp::Ordering::Less => {
                    out.push((a, ea));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push((b, eb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push((a, ea.saturating_add(eb)));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.factors[i..]);
        out.extend_from_slice(&other.factors[j..]);
        Self { factors: out }
    }

    /// Multiplies by a single annotation.
    pub fn mul_annot(&self, a: AnnotId) -> Self {
        self.mul(&Monomial::from_annots([a]))
    }

    /// Drops exponents: the `Why(X)`-style support monomial (all exponents 1).
    pub fn drop_exponents(&self) -> Self {
        Self {
            factors: self.factors.iter().map(|&(a, _)| (a, 1)).collect(),
        }
    }

    /// Whether this monomial divides `other` (pointwise exponent ≤).
    pub fn divides(&self, other: &Self) -> bool {
        self.factors.iter().all(|&(a, e)| e <= other.exponent(a))
    }

    /// Whether the support of `self` is a subset of the support of `other`.
    pub fn support_subset_of(&self, other: &Self) -> bool {
        self.factors.iter().all(|&(a, _)| other.contains(a))
    }

    /// Renders with labels from `reg`, e.g. `p1*h1^2`.
    pub fn to_string_with(&self, reg: &AnnotRegistry) -> String {
        if self.is_one() {
            return "1".to_owned();
        }
        let mut s = String::new();
        for (idx, &(a, e)) in self.factors.iter().enumerate() {
            if idx > 0 {
                s.push('*');
            }
            s.push_str(reg.name(a));
            if e > 1 {
                s.push('^');
                s.push_str(&e.to_string());
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg3() -> (AnnotRegistry, AnnotId, AnnotId, AnnotId) {
        let mut reg = AnnotRegistry::new();
        let a = reg.intern("a");
        let b = reg.intern("b");
        let c = reg.intern("c");
        (reg, a, b, c)
    }

    #[test]
    fn from_annots_accumulates_exponents() {
        let (_, a, b, _) = reg3();
        let m = Monomial::from_annots([b, a, b]);
        assert_eq!(m.factors(), &[(a, 1), (b, 2)]);
        assert_eq!(m.degree(), 3);
        assert_eq!(m.support_size(), 2);
    }

    #[test]
    fn mul_merges_sorted() {
        let (_, a, b, c) = reg3();
        let m1 = Monomial::from_annots([a, c]);
        let m2 = Monomial::from_annots([b, c]);
        let p = m1.mul(&m2);
        assert_eq!(p.factors(), &[(a, 1), (b, 1), (c, 2)]);
    }

    #[test]
    fn occurrences_expand_exponents() {
        let (_, a, b, _) = reg3();
        let m = Monomial::from_factors([(b, 2), (a, 1)]);
        assert_eq!(m.occurrences(), vec![a, b, b]);
    }

    #[test]
    fn divides_and_support() {
        let (_, a, b, c) = reg3();
        let small = Monomial::from_annots([a, b]);
        let big = Monomial::from_factors([(a, 2), (b, 1), (c, 1)]);
        assert!(small.divides(&big));
        assert!(!big.divides(&small));
        assert!(small.support_subset_of(&big));
        assert_eq!(big.drop_exponents().degree(), 3);
    }

    #[test]
    fn one_behaves_as_identity() {
        let (_, a, _, _) = reg3();
        let m = Monomial::from_annots([a]);
        assert_eq!(Monomial::one().mul(&m), m);
        assert!(Monomial::one().is_one());
        assert!(Monomial::one().divides(&m));
    }

    #[test]
    fn display_with_registry() {
        let (reg, a, b, _) = reg3();
        let m = Monomial::from_factors([(a, 1), (b, 2)]);
        assert_eq!(m.to_string_with(&reg), "a*b^2");
        assert_eq!(Monomial::one().to_string_with(&reg), "1");
    }

    #[test]
    fn from_factors_drops_zeros_and_merges_duplicates() {
        let (_, a, b, _) = reg3();
        let m = Monomial::from_factors([(a, 0), (b, 1), (b, 2)]);
        assert_eq!(m.factors(), &[(b, 3)]);
    }

    #[test]
    fn exponent_accumulation_saturates_at_the_boundary() {
        let (_, a, b, _) = reg3();
        // from_factors: u32::MAX + 1 must clamp, not wrap to 0 (which would
        // silently drop the factor).
        let m = Monomial::from_factors([(a, u32::MAX), (a, 1), (b, 1)]);
        assert_eq!(m.exponent(a), u32::MAX);
        assert_eq!(m.exponent(b), 1);
        // mul across two saturated-at-the-top monomials.
        let sq = m.mul(&m);
        assert_eq!(sq.exponent(a), u32::MAX);
        assert_eq!(sq.exponent(b), 2);
        // degree sums saturate instead of panicking/wrapping.
        assert_eq!(m.degree(), u32::MAX);
    }
}
