//! Query reverse-engineering from provenance examples.
//!
//! This crate adapts the `FindConsistentQuery` machinery of Deutch & Gilad
//! (*"Reverse-engineering conjunctive queries from provenance examples"*,
//! EDBT 2019 — reference \[23\] of the paper) as required by §4.2 of *"On
//! Optimizing the Trade-off between Privacy and Utility in Data Provenance"*
//! (SIGMOD 2021):
//!
//! * [`find_consistent_queries`] enumerates the **candidate frontier** of
//!   consistent queries w.r.t. a concrete K-example — the most-specific
//!   consistent query of every *alignment* (relation-respecting bijection
//!   between the annotation occurrences of the rows). Every consistent query
//!   contains some frontier query, so the frontier suffices for counting CIM
//!   queries and soundly gates Algorithm 1's thresholds. The returned
//!   [`Frontier`] carries each query's canonical key ([`canonical_form`]
//!   computes both in one search), so callers never canonicalize again.
//! * [`containment`] decides `Q1 ⊆_K Q2` per semiring (classical
//!   Chandra–Merlin, and the bijective/surjective homomorphism variants of
//!   annotated containment, Green ICDT 2009).
//! * [`cim_queries`] extracts the connected inclusion-minimal queries
//!   (Def. 3.10) from a frontier.
//! * [`enumerate_consistent_queries`] exhaustively enumerates *all*
//!   consistent queries (up to equivalence) on small inputs — used to
//!   reproduce Table 3 of the paper.
//! * [`ucq`] extends the machinery to unions of conjunctive queries
//!   (Table 4, orange/green cells) and aggregate heads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alignment;
mod canonical;
mod cim;
pub mod containment;
mod enumerate;
mod most_specific;
pub mod ucq;

pub use alignment::expansions_of_row;
pub use canonical::{canonical_cq, canonical_form, canonical_key};
pub use cim::{cim_queries, minimal_queries};
pub use containment::{contained_in, equivalent, strictly_contained, ContainmentMode};
pub use enumerate::enumerate_consistent_queries;
pub use most_specific::{find_consistent_queries, Frontier, RevOptions, MAX_EXPANSION_EXTRA};
