//! Database tuples.

use crate::Value;
use std::fmt;
use std::ops::Index;

/// A database tuple: a fixed-arity vector of constants.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(pub Vec<Value>);

impl Tuple {
    /// Builds a tuple from values.
    pub fn new<I: IntoIterator<Item = Value>>(vals: I) -> Self {
        Tuple(vals.into_iter().collect())
    }

    /// Builds a tuple by parsing string literals (see [`Value::parse`]).
    pub fn parse(fields: &[&str]) -> Self {
        Tuple(fields.iter().map(|f| Value::parse(f)).collect())
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Whether two tuples share at least one constant (the edge relation of
    /// the paper's concretization-connectivity graph: "there is an edge
    /// between two tuples if they share a constant").
    ///
    /// This is the owned-value scan for already-decoded tuples (O(n·m)
    /// `Value` comparisons). Connectivity over tuples still *in* a database
    /// should go through [`monomial_connected`](crate::monomial_connected),
    /// which probes sorted interned [`ValueId`](crate::ValueId) sets and
    /// never decodes a value.
    pub fn shares_constant(&self, other: &Tuple) -> bool {
        self.0.iter().any(|v| other.0.contains(v))
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_builds_values() {
        let t = Tuple::parse(&["1", "Dance", "Facebook"]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(t[1], Value::str("Dance"));
    }

    #[test]
    fn shares_constant_detects_overlap() {
        let a = Tuple::parse(&["1", "Dance"]);
        let b = Tuple::parse(&["2", "Dance"]);
        let c = Tuple::parse(&["3", "Music"]);
        assert!(a.shares_constant(&b));
        assert!(!a.shares_constant(&c));
    }

    #[test]
    fn display_renders_parenthesized() {
        let t = Tuple::parse(&["1", "x"]);
        assert_eq!(t.to_string(), "(1, 'x')");
    }
}
