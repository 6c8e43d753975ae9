//! Query containment under different provenance semirings.
//!
//! `Q1 ⊆_K Q2` (every K-database `D` satisfies `Q1(D) ⊆_K Q2(D)` under the
//! natural order of `K`) is decided by searching for a head-preserving
//! homomorphism `h : Q2 → Q1`, with a side condition on the induced map over
//! atom occurrences that depends on the semiring (Green, ICDT 2009):
//!
//! * **Classical** (set semantics / `PosBool(X)`): any homomorphism
//!   (Chandra–Merlin 1977).
//! * **Bijective** (`N[X]`, `B[X]`): the atom map must be a bijection, so
//!   that evaluating `Q2` on the frozen body of `Q1` produces `Q1`'s exact
//!   witness monomial (coefficients/exponents intact). Equivalence under
//!   this mode is query isomorphism.
//! * **SurjectiveSet** (`Why(X)`, `Trio(X)`): the atom map must cover every
//!   atom of `Q1` at least once (witness *sets* must match; repeats are
//!   invisible).

use provabs_relational::{Cq, Term, VarId};
use provabs_semiring::SemiringKind;
use std::collections::HashMap;

/// The homomorphism side condition for a containment check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainmentMode {
    /// Plain Chandra–Merlin homomorphism.
    Classical,
    /// The atom map must be a bijection on atom occurrences.
    Bijective,
    /// The atom map must be surjective on the contained query's atoms.
    SurjectiveSet,
}

impl ContainmentMode {
    /// The mode matching a provenance semiring. `Lin(X)` has no
    /// reverse-engineering support (§4 of the paper) and maps to `Classical`
    /// for completeness.
    pub fn for_semiring(kind: SemiringKind) -> Self {
        match kind {
            SemiringKind::NX | SemiringKind::BX => ContainmentMode::Bijective,
            SemiringKind::Why | SemiringKind::Trio => ContainmentMode::SurjectiveSet,
            SemiringKind::PosBool | SemiringKind::Lin => ContainmentMode::Classical,
        }
    }
}

/// What a homomorphism maps a variable to.
type Binding = HashMap<VarId, Term>;

/// Decides `sub ⊆_K sup` by searching for a homomorphism `sup → sub`.
pub fn contained_in(sub: &Cq, sup: &Cq, mode: ContainmentMode) -> bool {
    // Arity must agree for containment to be meaningful.
    if sub.head.len() != sup.head.len() {
        return false;
    }
    match mode {
        ContainmentMode::Bijective if sub.body.len() != sup.body.len() => return false,
        ContainmentMode::SurjectiveSet if sup.body.len() < sub.body.len() => return false,
        _ => {}
    }
    // Seed the binding with the head constraint h(sup.head[i]) = sub.head[i].
    let mut binding: Binding = HashMap::new();
    for (s_term, b_term) in sup.head.iter().zip(sub.head.iter()) {
        if !bind(s_term, b_term, &mut binding) {
            return false;
        }
    }
    let mut used = vec![0u32; sub.body.len()];
    search(sup, sub, 0, &mut binding, &mut used, mode)
}

/// Extends `binding` so that `h(from) = to`; fails on conflicts.
fn bind(from: &Term, to: &Term, binding: &mut Binding) -> bool {
    match from {
        Term::Const(c) => matches!(to, Term::Const(d) if d == c),
        Term::Var(v) => match binding.get(v) {
            Some(prev) => prev == to,
            None => {
                binding.insert(*v, to.clone());
                true
            }
        },
    }
}

fn search(
    sup: &Cq,
    sub: &Cq,
    atom_idx: usize,
    binding: &mut Binding,
    used: &mut Vec<u32>,
    mode: ContainmentMode,
) -> bool {
    if atom_idx == sup.body.len() {
        return match mode {
            ContainmentMode::Classical => true,
            ContainmentMode::Bijective => used.iter().all(|&u| u == 1),
            ContainmentMode::SurjectiveSet => used.iter().all(|&u| u >= 1),
        };
    }
    // Pruning for surjectivity: remaining sup atoms must suffice to cover
    // the uncovered sub atoms.
    if mode == ContainmentMode::SurjectiveSet {
        let uncovered = used.iter().filter(|&&u| u == 0).count();
        if sup.body.len() - atom_idx < uncovered {
            return false;
        }
    }
    let atom = &sup.body[atom_idx];
    for (ti, target) in sub.body.iter().enumerate() {
        if target.rel != atom.rel {
            continue;
        }
        if mode == ContainmentMode::Bijective && used[ti] > 0 {
            continue;
        }
        // Attempt to map atom -> target.
        let saved: Vec<(VarId, Option<Term>)> = atom
            .variables()
            .map(|v| (v, binding.get(&v).cloned()))
            .collect();
        let ok = atom
            .terms
            .iter()
            .zip(target.terms.iter())
            .all(|(f, t)| bind(f, t, binding));
        if ok {
            used[ti] += 1;
            if search(sup, sub, atom_idx + 1, binding, used, mode) {
                return true;
            }
            used[ti] -= 1;
        }
        // Roll back bindings introduced by this attempt.
        for (v, prev) in saved {
            match prev {
                Some(t) => {
                    binding.insert(v, t);
                }
                None => {
                    binding.remove(&v);
                }
            }
        }
    }
    false
}

/// Whether `q1` and `q2` are equivalent under `mode` (mutual containment).
pub fn equivalent(q1: &Cq, q2: &Cq, mode: ContainmentMode) -> bool {
    contained_in(q1, q2, mode) && contained_in(q2, q1, mode)
}

/// Whether `sub ⊊_K sup`: contained but not equivalent.
pub fn strictly_contained(sub: &Cq, sup: &Cq, mode: ContainmentMode) -> bool {
    contained_in(sub, sup, mode) && !contained_in(sup, sub, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use provabs_relational::{parse_cq, Schema};

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation("Person", &["pid", "name", "age"]);
        s.add_relation("Hobbies", &["pid", "hobby", "source"]);
        s.add_relation("Interests", &["pid", "interest", "source"]);
        s
    }

    #[test]
    fn qreal_contained_in_qgeneral() {
        // Example 3.11: Qreal ⊆ Qgeneral (extra constant in Qreal).
        let s = schema();
        let qreal = parse_cq(
            "Q(id) :- Person(id, n, a), Hobbies(id, 'Dance', w1), Interests(id, 'Music', w2)",
            &s,
        )
        .unwrap();
        let qgeneral = parse_cq(
            "Q(id) :- Person(id, n, a), Hobbies(id, 'Dance', w1), Interests(id, i, w2)",
            &s,
        )
        .unwrap();
        for mode in [
            ContainmentMode::Classical,
            ContainmentMode::Bijective,
            ContainmentMode::SurjectiveSet,
        ] {
            assert!(contained_in(&qreal, &qgeneral, mode), "{mode:?}");
            assert!(strictly_contained(&qreal, &qgeneral, mode), "{mode:?}");
            assert!(!contained_in(&qgeneral, &qreal, mode), "{mode:?}");
        }
    }

    #[test]
    fn table3_minimality_example() {
        // Q(a) :- P(a,b,c), H(a,'Dance',d), I(a,'Music',e)   [row 1 of Table 3]
        // is contained in
        // Q(a) :- P(a,b,c), H(d,'Dance',e), I(a,'Music',f)   [row 3 of Table 3]
        let s = schema();
        let q1 = parse_cq(
            "Q(a) :- Person(a, b, c), Hobbies(a, 'Dance', d), Interests(a, 'Music', e)",
            &s,
        )
        .unwrap();
        let q3 = parse_cq(
            "Q(a) :- Person(a, b, c), Hobbies(d, 'Dance', e), Interests(a, 'Music', f)",
            &s,
        )
        .unwrap();
        assert!(strictly_contained(&q1, &q3, ContainmentMode::Bijective));
    }

    #[test]
    fn incomparable_queries() {
        // Qreal vs Qfalse1 differ in the Hobbies constant: incomparable.
        let s = schema();
        let qreal = parse_cq(
            "Q(id) :- Person(id, n, a), Hobbies(id, 'Dance', w1), Interests(id, 'Music', w2)",
            &s,
        )
        .unwrap();
        let qfalse1 = parse_cq(
            "Q(id) :- Person(id, n, a), Hobbies(id, 'Trips', w1), Interests(id, 'Music', w2)",
            &s,
        )
        .unwrap();
        assert!(!contained_in(&qreal, &qfalse1, ContainmentMode::Bijective));
        assert!(!contained_in(&qfalse1, &qreal, ContainmentMode::Bijective));
    }

    #[test]
    fn bijective_rejects_folding_but_classical_allows() {
        let s = schema();
        // Q2 has a redundant second atom that folds onto the first.
        let q1 = parse_cq("Q(x) :- Hobbies(x, h, w)", &s).unwrap();
        let q2 = parse_cq("Q(x) :- Hobbies(x, h, w), Hobbies(x, h2, w2)", &s).unwrap();
        // Classically q1 ⊆ q2 (hom q2→q1 folds both atoms onto one) and
        // q2 ⊆ q1 (hom q1→q2), i.e. they are classically equivalent.
        assert!(contained_in(&q1, &q2, ContainmentMode::Classical));
        assert!(contained_in(&q2, &q1, ContainmentMode::Classical));
        assert!(equivalent(&q1, &q2, ContainmentMode::Classical));
        // Under N[X] they are incomparable: atom counts differ.
        assert!(!contained_in(&q1, &q2, ContainmentMode::Bijective));
        assert!(!contained_in(&q2, &q1, ContainmentMode::Bijective));
        // Under Why(X): hom q2→q1 covers the single atom — q1 ⊆ q2 holds;
        // hom q1→q2 cannot cover both atoms with one.
        assert!(contained_in(&q1, &q2, ContainmentMode::SurjectiveSet));
        assert!(!contained_in(&q2, &q1, ContainmentMode::SurjectiveSet));
    }

    #[test]
    fn head_must_be_preserved() {
        let s = schema();
        let q1 = parse_cq("Q(x) :- Hobbies(x, h, w)", &s).unwrap();
        let q2 = parse_cq("Q(h) :- Hobbies(x, h, w)", &s).unwrap();
        assert!(!contained_in(&q1, &q2, ContainmentMode::Classical));
        assert!(!contained_in(&q2, &q1, ContainmentMode::Classical));
    }

    #[test]
    fn equivalence_is_isomorphism_for_bijective() {
        let s = schema();
        let q1 = parse_cq("Q(x) :- Hobbies(x, h, w), Interests(x, i, w)", &s).unwrap();
        let q2 = parse_cq("Q(y) :- Interests(y, a, b), Hobbies(y, c, b)", &s).unwrap();
        assert!(equivalent(&q1, &q2, ContainmentMode::Bijective));
    }

    #[test]
    fn mode_for_semiring_mapping() {
        assert_eq!(
            ContainmentMode::for_semiring(SemiringKind::NX),
            ContainmentMode::Bijective
        );
        assert_eq!(
            ContainmentMode::for_semiring(SemiringKind::Why),
            ContainmentMode::SurjectiveSet
        );
        assert_eq!(
            ContainmentMode::for_semiring(SemiringKind::PosBool),
            ContainmentMode::Classical
        );
    }

    #[test]
    fn arity_mismatch_is_never_contained() {
        let s = schema();
        let q1 = parse_cq("Q(x) :- Hobbies(x, h, w)", &s).unwrap();
        let q2 = parse_cq("Q(x, h) :- Hobbies(x, h, w)", &s).unwrap();
        assert!(!contained_in(&q1, &q2, ContainmentMode::Classical));
    }
}
