//! # provabs-core — optimizing the privacy/utility trade-off of provenance
//!
//! The primary contribution of *"On Optimizing the Trade-off between Privacy
//! and Utility in Data Provenance"* (Deutch, Frankenthal, Gilad, Moskovitch —
//! SIGMOD 2021), implemented on top of the `provabs` substrates:
//!
//! * [`Bound`] — a K-example bound to a compatible abstraction tree and its
//!   database (occurrence-level bookkeeping for Def. 3.1).
//! * [`Abstraction`] / [`AbsExample`] — abstraction functions and abstracted
//!   K-examples (§3.1).
//! * [`concretize`] — concretization sets and their cardinality (Prop. 3.5),
//!   and the connected concretizations of an abstracted row.
//! * [`loi`] — loss of information as concretization-set entropy (§3.2),
//!   uniform and weighted distributions.
//! * [`privacy`] — Algorithm 1: the number of CIM queries of an abstracted
//!   K-example, with the paper's row-by-row processing, connectivity
//!   filtering and caching (§4.1–4.2), each toggleable for the Figure 19
//!   ablation.
//! * [`search`] — Algorithm 2: optimal abstraction search with sorted
//!   enumeration and LOI-before-privacy, plus a sound monotone
//!   lower-bound early termination.
//! * [`dual`] — the dual problem (max privacy under an LOI budget).
//! * [`persist`] — checksummed serialization of search incumbents through
//!   the storage layer, for warm restarts across process lifetimes.
//! * [`compression`] — the provenance-compression baseline of \[24\]
//!   (SIGMOD 2019) driven to a privacy threshold, used by Figure 18.
//! * [`fixtures`] — the paper's running example (Figures 1–6) as a reusable
//!   fixture.
//!
//! # Quickstart
//!
//! ```
//! use provabs_core::{fixtures, search, privacy::PrivacyConfig, search::SearchConfig};
//!
//! let fx = fixtures::running_example();
//! let bound = provabs_core::Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
//! let cfg = SearchConfig {
//!     privacy: PrivacyConfig { threshold: 2, ..Default::default() },
//!     ..Default::default()
//! };
//! let out = search::find_optimal_abstraction(&bound, &cfg);
//! let best = out.best.expect("a privacy-2 abstraction exists");
//! // Example 3.15: the optimal abstraction has loss of information ln 15.
//! assert!((best.loi - 15f64.ln()).abs() < 1e-9);
//! assert!(best.privacy >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abstraction;
mod bound;
pub mod compression;
pub mod concretize;
pub mod dual;
mod error;
pub mod fixtures;
pub mod loi;
pub mod persist;
pub mod privacy;
pub mod search;

pub use abstraction::{AbsExample, AbsRow, Abstraction, Sym};
pub use bound::Bound;
pub use error::{CoreError, CoreResult};
pub use provabs_relational::PlanMode;
