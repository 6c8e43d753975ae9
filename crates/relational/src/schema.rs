//! Database schemas.

use std::collections::HashMap;
use std::fmt;

use crate::query::RelId;

/// The schema of one relation: its name and column names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSchema {
    /// Relation name (case-sensitive).
    pub name: String,
    /// Column names; the length is the arity.
    pub columns: Vec<String>,
}

impl RelationSchema {
    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

/// A database schema `S` with relation names `R1..Rn`.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    relations: Vec<RelationSchema>,
    by_name: HashMap<String, RelId>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a relation; returns its id.
    ///
    /// # Panics
    /// Panics if a relation of the same name already exists.
    pub fn add_relation(&mut self, name: &str, columns: &[&str]) -> RelId {
        assert!(
            !self.by_name.contains_key(name),
            "relation {name} already declared"
        );
        let id = RelId(u16::try_from(self.relations.len()).expect("too many relations"));
        self.relations.push(RelationSchema {
            name: name.to_owned(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
        });
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up a relation id by name.
    pub fn relation_id(&self, name: &str) -> Option<RelId> {
        self.by_name.get(name).copied()
    }

    /// The schema of relation `id`.
    pub fn relation(&self, id: RelId) -> &RelationSchema {
        &self.relations[id.0 as usize]
    }

    /// The name of relation `id`.
    pub fn relation_name(&self, id: RelId) -> &str {
        &self.relation(id).name
    }

    /// The arity of relation `id`.
    pub fn arity(&self, id: RelId) -> usize {
        self.relation(id).arity()
    }

    /// The number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the schema has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Iterates over all relation ids.
    pub fn relation_ids(&self) -> impl Iterator<Item = RelId> + '_ {
        (0..self.relations.len() as u16).map(RelId)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.relations {
            writeln!(f, "{}({})", r.name, r.columns.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut s = Schema::new();
        let person = s.add_relation("Person", &["pid", "name", "age"]);
        let hobbies = s.add_relation("Hobbies", &["pid", "hobby", "source"]);
        assert_eq!(s.relation_id("Person"), Some(person));
        assert_eq!(s.relation_id("Hobbies"), Some(hobbies));
        assert_eq!(s.relation_id("Nope"), None);
        assert_eq!(s.arity(person), 3);
        assert_eq!(s.relation_name(hobbies), "Hobbies");
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already declared")]
    fn duplicate_names_panic() {
        let mut s = Schema::new();
        s.add_relation("R", &["a"]);
        s.add_relation("R", &["b"]);
    }

    #[test]
    fn display_lists_relations() {
        let mut s = Schema::new();
        s.add_relation("R", &["a", "b"]);
        assert_eq!(s.to_string(), "R(a, b)\n");
    }
}
