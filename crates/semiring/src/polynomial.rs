//! `N[X]` provenance polynomials.

use crate::{AnnotId, AnnotRegistry, Monomial, SemiringKind};

/// A provenance polynomial in `N[X]`: a finite sum of monomials with
/// positive integer coefficients.
///
/// Stored as a sorted vector of `(monomial, coefficient)` with strictly
/// increasing monomials and strictly positive coefficients, so structural
/// equality is algebraic equality. `N[X]` is the most informative semiring of
/// the provenance hierarchy; all coarser semirings are obtained by
/// [`Polynomial::coarsen`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Polynomial {
    terms: Vec<(Monomial, u64)>,
}

impl Polynomial {
    /// The additive identity `0`.
    pub fn zero() -> Self {
        Self::default()
    }

    /// The multiplicative identity `1` (the empty monomial with coefficient 1).
    pub fn one() -> Self {
        Self {
            terms: vec![(Monomial::one(), 1)],
        }
    }

    /// A polynomial with a single annotation (the canonical tag of an input
    /// tuple in an abstractly-tagged database).
    pub fn var(a: AnnotId) -> Self {
        Self {
            terms: vec![(Monomial::from_annots([a]), 1)],
        }
    }

    /// Builds from `(monomial, coefficient)` terms; duplicates accumulate and
    /// zero coefficients are dropped.
    ///
    /// Coefficient accumulation saturates at `u64::MAX` instead of wrapping:
    /// a saturated coefficient is still the top of the natural order, so
    /// comparisons and [`Polynomial::checked_sub`] stay monotone, whereas a
    /// silent wrap would fabricate small coefficients.
    pub fn from_terms<I: IntoIterator<Item = (Monomial, u64)>>(terms: I) -> Self {
        let mut v: Vec<(Monomial, u64)> = terms.into_iter().filter(|&(_, c)| c > 0).collect();
        v.sort_unstable_by(|x, y| x.0.cmp(&y.0));
        let mut out: Vec<(Monomial, u64)> = Vec::with_capacity(v.len());
        for (m, c) in v {
            match out.last_mut() {
                Some((last, acc)) if *last == m => *acc = acc.checked_add(c).unwrap_or(u64::MAX),
                _ => out.push((m, c)),
            }
        }
        Self { terms: out }
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// The number of distinct monomials.
    pub fn num_monomials(&self) -> usize {
        self.terms.len()
    }

    /// The sorted `(monomial, coefficient)` terms.
    pub fn terms(&self) -> &[(Monomial, u64)] {
        &self.terms
    }

    /// Iterates over the monomials.
    pub fn monomials(&self) -> impl Iterator<Item = &Monomial> + '_ {
        self.terms.iter().map(|(m, _)| m)
    }

    /// The coefficient of `m` (0 if absent).
    pub fn coefficient(&self, m: &Monomial) -> u64 {
        self.terms
            .binary_search_by(|(x, _)| x.cmp(m))
            .map(|i| self.terms[i].1)
            .unwrap_or(0)
    }

    /// All distinct annotations occurring in the polynomial.
    pub fn variables(&self) -> Vec<AnnotId> {
        let mut v: Vec<AnnotId> = self.terms.iter().flat_map(|(m, _)| m.support()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Sum of two polynomials.
    pub fn add(&self, other: &Self) -> Self {
        let mut out: Vec<(Monomial, u64)> =
            Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() && j < other.terms.len() {
            match self.terms[i].0.cmp(&other.terms[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(self.terms[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.terms[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push((
                        self.terms[i].0.clone(),
                        self.terms[i].1.saturating_add(other.terms[j].1),
                    ));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.terms[i..]);
        out.extend_from_slice(&other.terms[j..]);
        Self { terms: out }
    }

    /// Product of two polynomials (distributes over all monomial pairs).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        Self::from_terms(self.terms.iter().flat_map(|(m1, c1)| {
            other
                .terms
                .iter()
                .map(move |(m2, c2)| (m1.mul(m2), c1.saturating_mul(*c2)))
        }))
    }

    /// Multiplies every monomial by annotation `a`.
    pub fn mul_annot(&self, a: AnnotId) -> Self {
        Self {
            terms: self
                .terms
                .iter()
                .map(|(m, c)| (m.mul_annot(a), *c))
                .collect(),
        }
    }

    /// Coefficient-wise difference `self - other`, defined exactly when
    /// `other ≤_{N[X]} self` (the witness `c` of the natural order). Returns
    /// `None` when some coefficient would go negative — `N[X]` has no
    /// additive inverses, so subtraction is partial.
    ///
    /// This is the merge primitive of incremental view maintenance: the
    /// derivations retracted by a delta are always a sub-multiset of the
    /// cached provenance, so the subtraction is total along that path.
    pub fn checked_sub(&self, other: &Self) -> Option<Self> {
        let mut out: Vec<(Monomial, u64)> = Vec::with_capacity(self.terms.len());
        let mut j = 0;
        for (m, c) in &self.terms {
            let mut c = *c;
            if j < other.terms.len() && other.terms[j].0 < *m {
                return None; // other has a monomial self lacks
            }
            if j < other.terms.len() && other.terms[j].0 == *m {
                let oc = other.terms[j].1;
                if oc > c {
                    return None;
                }
                c -= oc;
                j += 1;
            }
            if c > 0 {
                out.push((m.clone(), c));
            }
        }
        if j < other.terms.len() {
            return None;
        }
        Some(Self { terms: out })
    }

    /// The natural order `self ≤_{N[X]} other`: there exists `c` with
    /// `self + c = other`, i.e. coefficient-wise domination (Def. 3.8).
    pub fn nat_leq(&self, other: &Self) -> bool {
        self.terms.iter().all(|(m, c)| *c <= other.coefficient(m))
    }

    /// Evaluates the polynomial under a Boolean assignment: annotations in
    /// `deleted` map to 0, all others to 1. Returns whether the polynomial is
    /// non-zero — i.e. whether the annotated output tuple *survives* deleting
    /// the tuples in `deleted` (deletion propagation / hypothetical
    /// reasoning).
    pub fn survives_deletion(&self, deleted: &dyn Fn(AnnotId) -> bool) -> bool {
        self.terms
            .iter()
            .any(|(m, _)| m.support().all(|a| !deleted(a)))
    }

    /// Projects into a coarser semiring of the provenance hierarchy.
    ///
    /// The result is still represented as a `Polynomial`, normalized so that
    /// structurally equal results mean equal elements of the target semiring:
    /// * `NX` — identity.
    /// * `BX` — coefficients dropped (all set to 1).
    /// * `Trio` — exponents dropped, coefficients merged.
    /// * `Why` — exponents and coefficients dropped.
    /// * `PosBool` — like `Why`, then absorption: monomials whose support is
    ///   a strict superset of another's are removed.
    /// * `Lin` — a single monomial holding the set of all annotations.
    pub fn coarsen(&self, kind: SemiringKind) -> Polynomial {
        match kind {
            SemiringKind::NX => self.clone(),
            SemiringKind::BX => Self::from_terms(
                self.terms
                    .iter()
                    .map(|(m, _)| (m.clone(), 1))
                    .collect::<Vec<_>>(),
            )
            .dedup_coeff1(),
            SemiringKind::Trio => Self::from_terms(
                self.terms
                    .iter()
                    .map(|(m, c)| (m.drop_exponents(), *c))
                    .collect::<Vec<_>>(),
            ),
            SemiringKind::Why => Self::from_terms(
                self.terms
                    .iter()
                    .map(|(m, _)| (m.drop_exponents(), 1))
                    .collect::<Vec<_>>(),
            )
            .dedup_coeff1(),
            SemiringKind::PosBool => {
                let why = self.coarsen(SemiringKind::Why);
                let mons: Vec<&Monomial> = why.monomials().collect();
                let keep: Vec<(Monomial, u64)> = mons
                    .iter()
                    .filter(|m| !mons.iter().any(|n| *n != **m && n.support_subset_of(m)))
                    .map(|m| ((*m).clone(), 1))
                    .collect();
                Self::from_terms(keep).dedup_coeff1()
            }
            SemiringKind::Lin => {
                if self.is_zero() {
                    return Self::zero();
                }
                Self::from_terms([(Monomial::from_annots(self.variables()), 1)])
            }
        }
    }

    /// Clamps all coefficients to 1 (helper for idempotent-addition
    /// semirings).
    fn dedup_coeff1(&self) -> Self {
        Self {
            terms: self.terms.iter().map(|(m, _)| (m.clone(), 1)).collect(),
        }
    }

    /// Renders with labels from `reg`, e.g. `2*a*b + c^2`.
    pub fn to_string_with(&self, reg: &AnnotRegistry) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut s = String::new();
        for (idx, (m, c)) in self.terms.iter().enumerate() {
            if idx > 0 {
                s.push_str(" + ");
            }
            if *c != 1 {
                s.push_str(&c.to_string());
                if !m.is_one() {
                    s.push('*');
                }
                if m.is_one() {
                    continue;
                }
            }
            s.push_str(&m.to_string_with(reg));
        }
        s
    }
}

impl From<Monomial> for Polynomial {
    fn from(m: Monomial) -> Self {
        Self {
            terms: vec![(m, 1)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AnnotRegistry, AnnotId, AnnotId, AnnotId) {
        let mut reg = AnnotRegistry::new();
        let a = reg.intern("a");
        let b = reg.intern("b");
        let c = reg.intern("c");
        (reg, a, b, c)
    }

    #[test]
    fn add_merges_coefficients() {
        let (_, a, b, _) = setup();
        let p = Polynomial::var(a)
            .add(&Polynomial::var(b))
            .add(&Polynomial::var(a));
        assert_eq!(p.coefficient(&Monomial::from_annots([a])), 2);
        assert_eq!(p.coefficient(&Monomial::from_annots([b])), 1);
        assert_eq!(p.num_monomials(), 2);
    }

    #[test]
    fn mul_distributes() {
        let (_, a, b, c) = setup();
        // (a + b) * (a + c) = a^2 + a*c + a*b + b*c
        let p = Polynomial::var(a).add(&Polynomial::var(b));
        let q = Polynomial::var(a).add(&Polynomial::var(c));
        let r = p.mul(&q);
        assert_eq!(r.num_monomials(), 4);
        assert_eq!(r.coefficient(&Monomial::from_factors([(a, 2)])), 1);
        assert_eq!(r.coefficient(&Monomial::from_annots([a, b])), 1);
    }

    #[test]
    fn zero_and_one_laws() {
        let (_, a, _, _) = setup();
        let p = Polynomial::var(a);
        assert_eq!(p.add(&Polynomial::zero()), p);
        assert_eq!(p.mul(&Polynomial::one()), p);
        assert!(p.mul(&Polynomial::zero()).is_zero());
    }

    #[test]
    fn nat_leq_is_coefficientwise() {
        let (_, a, b, _) = setup();
        let small = Polynomial::var(a);
        let big = Polynomial::var(a)
            .add(&Polynomial::var(a))
            .add(&Polynomial::var(b));
        assert!(small.nat_leq(&big));
        assert!(!big.nat_leq(&small));
        assert!(Polynomial::zero().nat_leq(&small));
    }

    #[test]
    fn checked_sub_inverts_add() {
        let (_, a, b, c) = setup();
        let p = Polynomial::from_terms([
            (Monomial::from_annots([a]), 2),
            (Monomial::from_annots([b, c]), 1),
        ]);
        let q = Polynomial::var(a);
        let diff = p.checked_sub(&q).unwrap();
        assert_eq!(diff.add(&q), p);
        assert_eq!(p.checked_sub(&p), Some(Polynomial::zero()));
        assert!(p.checked_sub(&Polynomial::zero()).unwrap() == p);
    }

    #[test]
    fn checked_sub_detects_underflow() {
        let (_, a, b, _) = setup();
        let p = Polynomial::var(a);
        // Coefficient underflow.
        let twice = p.add(&p);
        assert_eq!(p.checked_sub(&twice), None);
        // Missing monomial, both before and after self's terms.
        assert_eq!(p.checked_sub(&Polynomial::var(b)), None);
        assert_eq!(Polynomial::var(b).checked_sub(&p), None);
        assert_eq!(Polynomial::zero().checked_sub(&p), None);
    }

    #[test]
    fn coarsen_bx_drops_coefficients() {
        let (_, a, _, _) = setup();
        let p = Polynomial::var(a).add(&Polynomial::var(a)); // 2a
        let bx = p.coarsen(SemiringKind::BX);
        assert_eq!(bx.coefficient(&Monomial::from_annots([a])), 1);
    }

    #[test]
    fn coarsen_trio_drops_exponents_keeps_coefficients() {
        let (_, a, b, _) = setup();
        // a^2*b + a*b  --Trio-->  2*a*b
        let p = Polynomial::from_terms([
            (Monomial::from_factors([(a, 2), (b, 1)]), 1),
            (Monomial::from_annots([a, b]), 1),
        ]);
        let t = p.coarsen(SemiringKind::Trio);
        assert_eq!(t.coefficient(&Monomial::from_annots([a, b])), 2);
        assert_eq!(t.num_monomials(), 1);
    }

    #[test]
    fn coarsen_posbool_absorbs() {
        let (_, a, b, _) = setup();
        // a + a*b --PosBool--> a  (a absorbs a*b)
        let p = Polynomial::var(a).add(&Polynomial::from(Monomial::from_annots([a, b])));
        let pb = p.coarsen(SemiringKind::PosBool);
        assert_eq!(pb.num_monomials(), 1);
        assert_eq!(pb.coefficient(&Monomial::from_annots([a])), 1);
    }

    #[test]
    fn coarsen_lin_flattens_to_variable_set() {
        let (_, a, b, c) = setup();
        let p = Polynomial::from_terms([
            (Monomial::from_factors([(a, 2)]), 3),
            (Monomial::from_annots([b, c]), 1),
        ]);
        let l = p.coarsen(SemiringKind::Lin);
        assert_eq!(l.num_monomials(), 1);
        assert_eq!(l.coefficient(&Monomial::from_annots([a, b, c])), 1);
    }

    #[test]
    fn survives_deletion_checks_monomial_support() {
        let (_, a, b, c) = setup();
        // a*b + c: deleting a leaves c alive; deleting {a, c} kills it.
        let p = Polynomial::from(Monomial::from_annots([a, b])).add(&Polynomial::var(c));
        assert!(p.survives_deletion(&|x| x == a));
        assert!(!p.survives_deletion(&|x| x == a || x == c));
    }

    #[test]
    fn coefficient_accumulation_saturates_at_the_boundary() {
        let (_, a, b, _) = setup();
        let m = Monomial::from_annots([a]);
        // from_terms: duplicate terms whose sum exceeds u64::MAX clamp.
        let p = Polynomial::from_terms([(m.clone(), u64::MAX), (m.clone(), 2)]);
        assert_eq!(p.coefficient(&m), u64::MAX);
        // add: the merge path saturates too.
        let top = Polynomial::from_terms([(m.clone(), u64::MAX)]);
        assert_eq!(top.add(&top).coefficient(&m), u64::MAX);
        // mul: coefficient products saturate.
        let big = Polynomial::from_terms([(Monomial::from_annots([b]), u64::MAX)]);
        let half = Polynomial::from_terms([(m.clone(), 3)]);
        let prod = big.mul(&half);
        assert_eq!(prod.coefficient(&Monomial::from_annots([a, b])), u64::MAX);
        // Saturation keeps the natural order monotone: top - 1 is defined.
        let one_of = Polynomial::from_terms([(m.clone(), 1)]);
        assert!(top.checked_sub(&one_of).is_some());
    }

    #[test]
    fn display_renders_coefficients() {
        let (reg, a, b, _) = setup();
        let p = Polynomial::from_terms([
            (Monomial::from_annots([a]), 2),
            (Monomial::from_factors([(b, 2)]), 1),
        ]);
        assert_eq!(p.to_string_with(&reg), "2*a + b^2");
        assert_eq!(Polynomial::zero().to_string_with(&reg), "0");
    }
}
