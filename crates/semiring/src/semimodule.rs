//! Aggregate provenance via semimodules (§3.4 of the paper).
//!
//! Following Amsterdamer, Deutch & Tannen (PODS 2011), the provenance of an
//! aggregate query result is a formal sum of tensors `m ⊗ v` pairing a
//! provenance monomial `m` with a value `v` from the aggregate domain, summed
//! with the aggregate's monoid operation (e.g. `+MAX`). The paper's
//! abstraction functions act on the *annotation part* of each tensor and
//! leave the value part intact.

use crate::{AnnotId, AnnotRegistry, Monomial};
use std::fmt;

/// An aggregate operation (the monoid the tensors are summed with).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// Maximum.
    Max,
    /// Minimum.
    Min,
    /// Sum.
    Sum,
    /// Count (each tensor contributes its value, normally 1).
    Count,
}

impl AggOp {
    /// Combines two aggregate-domain values with this monoid.
    pub fn combine(self, a: i64, b: i64) -> i64 {
        match self {
            AggOp::Max => a.max(b),
            AggOp::Min => a.min(b),
            AggOp::Sum | AggOp::Count => a + b,
        }
    }

    /// The identity element of the monoid.
    pub fn identity(self) -> i64 {
        match self {
            AggOp::Max => i64::MIN,
            AggOp::Min => i64::MAX,
            AggOp::Sum | AggOp::Count => 0,
        }
    }
}

impl fmt::Display for AggOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggOp::Max => "MAX",
            AggOp::Min => "MIN",
            AggOp::Sum => "SUM",
            AggOp::Count => "COUNT",
        };
        f.write_str(s)
    }
}

/// A single tensor `monomial ⊗ value`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TensorTerm {
    /// The provenance monomial (annotation part). Abstraction functions
    /// rewrite this component.
    pub monomial: Monomial,
    /// The aggregate-domain value.
    pub value: i64,
}

/// An aggregate provenance value: `Σ_op (m_i ⊗ v_i)`.
///
/// E.g. `(p1*h1*i1) ⊗ 27 +MAX (p2*h2*i2) ⊗ 31` for the MAX-age variant of
/// the running example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggValue {
    /// The aggregation monoid.
    pub op: AggOp,
    /// The tensor terms, in insertion order.
    pub terms: Vec<TensorTerm>,
}

impl AggValue {
    /// Creates an empty aggregate value for `op`.
    pub fn new(op: AggOp) -> Self {
        Self {
            op,
            terms: Vec::new(),
        }
    }

    /// Appends a tensor `m ⊗ v`.
    pub fn push(&mut self, monomial: Monomial, value: i64) {
        self.terms.push(TensorTerm { monomial, value });
    }

    /// The aggregate result when every tuple is present.
    pub fn evaluate(&self) -> i64 {
        self.terms
            .iter()
            .fold(self.op.identity(), |acc, t| self.op.combine(acc, t.value))
    }

    /// The aggregate result after deleting the annotations selected by
    /// `deleted`: tensors whose monomial mentions a deleted annotation are
    /// dropped (their monomial evaluates to 0 and `0 ⊗ v` is the semimodule
    /// zero). Returns `None` if no tensor survives.
    pub fn evaluate_after_deletion(&self, deleted: &dyn Fn(AnnotId) -> bool) -> Option<i64> {
        let mut acc: Option<i64> = None;
        for t in &self.terms {
            if t.monomial.support().all(|a| !deleted(a)) {
                acc = Some(match acc {
                    None => self.op.combine(self.op.identity(), t.value),
                    Some(v) => self.op.combine(v, t.value),
                });
            }
        }
        acc
    }

    /// Rewrites the annotation part of every tensor through `f` — the
    /// semimodule form of applying an abstraction function (§3.4). The value
    /// parts are untouched.
    pub fn map_monomials(&self, mut f: impl FnMut(&Monomial) -> Monomial) -> Self {
        Self {
            op: self.op,
            terms: self
                .terms
                .iter()
                .map(|t| TensorTerm {
                    monomial: f(&t.monomial),
                    value: t.value,
                })
                .collect(),
        }
    }

    /// Renders with labels from `reg`, e.g.
    /// `(p1*h1*i1)⊗27 +MAX (p2*h2*i2)⊗31`.
    pub fn to_string_with(&self, reg: &AnnotRegistry) -> String {
        if self.terms.is_empty() {
            return "0".to_owned();
        }
        let sep = format!(" +{} ", self.op);
        self.terms
            .iter()
            .map(|t| format!("({})⊗{}", t.monomial.to_string_with(reg), t.value))
            .collect::<Vec<_>>()
            .join(&sep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnnotRegistry;

    fn running_example_agg() -> (AnnotRegistry, AggValue) {
        let mut reg = AnnotRegistry::new();
        let p1 = reg.intern("p1");
        let h1 = reg.intern("h1");
        let i1 = reg.intern("i1");
        let p2 = reg.intern("p2");
        let h2 = reg.intern("h2");
        let i2 = reg.intern("i2");
        let mut agg = AggValue::new(AggOp::Max);
        agg.push(Monomial::from_annots([p1, h1, i1]), 27);
        agg.push(Monomial::from_annots([p2, h2, i2]), 31);
        (reg, agg)
    }

    #[test]
    fn max_aggregation_evaluates() {
        let (_, agg) = running_example_agg();
        assert_eq!(agg.evaluate(), 31);
    }

    #[test]
    fn deletion_changes_aggregate() {
        let (reg, agg) = running_example_agg();
        let h2 = reg.get("h2").unwrap();
        // Deleting Brenda's hobby tuple drops the 31 tensor: MAX falls to 27.
        assert_eq!(agg.evaluate_after_deletion(&|a| a == h2), Some(27));
        // Deleting everything yields no result.
        assert_eq!(agg.evaluate_after_deletion(&|_| true), None);
    }

    #[test]
    fn map_monomials_preserves_values() {
        let (mut reg, agg) = running_example_agg();
        let fb = reg.intern("Facebook");
        let h1 = reg.get("h1").unwrap();
        let mapped = agg.map_monomials(|m| {
            Monomial::from_annots(
                m.occurrences()
                    .into_iter()
                    .map(|a| if a == h1 { fb } else { a }),
            )
        });
        assert_eq!(mapped.evaluate(), 31);
        assert!(mapped.terms[0].monomial.contains(fb));
        assert_eq!(mapped.terms[0].value, 27);
    }

    #[test]
    fn op_identities() {
        assert_eq!(AggOp::Sum.combine(AggOp::Sum.identity(), 5), 5);
        assert_eq!(AggOp::Max.combine(AggOp::Max.identity(), 5), 5);
        assert_eq!(AggOp::Min.combine(AggOp::Min.identity(), 5), 5);
    }

    #[test]
    fn render_matches_paper_notation() {
        let (reg, agg) = running_example_agg();
        assert_eq!(agg.to_string_with(&reg), "(p1*h1*i1)⊗27 +MAX (p2*h2*i2)⊗31");
    }
}
