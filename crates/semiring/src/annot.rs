//! Interned tuple annotations.

use std::collections::HashMap;
use std::fmt;

/// An interned tuple annotation — an element of the annotation set `X`.
///
/// Annotations are the provenance "variables" of the paper (e.g. `p1`, `h1`,
/// `i1` in the running example). They are interned through an
/// [`AnnotRegistry`], so comparisons and hashing are integer operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AnnotId(pub u32);

impl AnnotId {
    /// The raw index of this annotation in its registry.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AnnotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A registry interning annotation names to dense [`AnnotId`]s.
///
/// The registry owns the human-readable labels; all algebraic structures
/// ([`Monomial`](crate::Monomial), [`Polynomial`](crate::Polynomial)) store
/// only ids.
#[derive(Debug, Default, Clone)]
pub struct AnnotRegistry {
    names: Vec<String>,
    by_name: HashMap<String, AnnotId>,
}

impl AnnotRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id (existing or fresh).
    pub fn intern(&mut self, name: &str) -> AnnotId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = AnnotId(u32::try_from(self.names.len()).expect("annotation space exhausted"));
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Returns the id of `name`, if it has been interned.
    pub fn get(&self, name: &str) -> Option<AnnotId> {
        self.by_name.get(name).copied()
    }

    /// Returns the label of `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this registry.
    pub fn name(&self, id: AnnotId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned annotations.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all interned ids in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = AnnotId> + '_ {
        (0..self.names.len() as u32).map(AnnotId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut reg = AnnotRegistry::new();
        let a = reg.intern("a");
        let b = reg.intern("b");
        assert_ne!(a, b);
        assert_eq!(reg.intern("a"), a);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.name(a), "a");
        assert_eq!(reg.get("b"), Some(b));
        assert_eq!(reg.get("c"), None);
    }

    #[test]
    fn ids_iterates_in_order() {
        let mut reg = AnnotRegistry::new();
        let ids: Vec<_> = ["x", "y", "z"].iter().map(|n| reg.intern(n)).collect();
        assert_eq!(reg.ids().collect::<Vec<_>>(), ids);
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(AnnotId(7).to_string(), "x7");
    }
}
