//! Loom-style cooperative model checker for the provabs workspace.
//!
//! The concurrency seams of the engine — `SessionRegistry` publication,
//! the `EpochMap` retirement fence behind the `PlanCache` and the
//! `PrivacyCache`, the `ShardedMap` it and the `Bound` memos are stored
//! in, `provabsd` admission — are built on the shims in [`sync`] and
//! [`thread`]. In production those shims cost one relaxed atomic load and
//! delegate straight to `std`. Under [`explore`], every acquire / release /
//! load / store becomes a *scheduling point*: virtual threads run one at a
//! time, a DFS driver enumerates every order in which the points can be
//! interleaved (reduced by sleep sets, optionally bounded by preemptions),
//! and any panic in any schedule is reported as a [`Violation`] carrying a
//! replayable [`Schedule`].
//!
//! The model is *sequentially consistent*: instrumented atomics execute with
//! `SeqCst` regardless of the ordering the caller passed, so the checker
//! enumerates thread interleavings, not weak-memory reorderings. Scenario
//! closures must be deterministic functions of the schedule; under that
//! contract schedule counts are bit-identical across machines and are gated
//! fail-closed by `bench_gate --bench sched` (BENCH_10.json).
//!
//! # Example: catching a lost update
//!
//! ```
//! use provabs_sched as sched;
//! use sched::sync::atomic::{AtomicU64, Ordering};
//! use sched::sync::Arc;
//!
//! // A racy increment: load + store instead of fetch_add. Some schedule
//! // interleaves the two and loses an update.
//! let outcome = sched::explore(|| {
//!     let counter = Arc::new(AtomicU64::labeled("counter", 0));
//!     let c2 = Arc::clone(&counter);
//!     let t = sched::thread::spawn(move || {
//!         c2.fetch_add(1, Ordering::SeqCst);
//!     });
//!     let v = counter.load(Ordering::SeqCst);
//!     counter.store(v + 1, Ordering::SeqCst);
//!     t.join().unwrap();
//!     assert_eq!(counter.load(Ordering::SeqCst), 2, "lost update");
//! });
//!
//! // The sweep catches the bug and hands back a replayable schedule.
//! let violation = outcome.violation.expect("lost update must be caught");
//! let seed = violation.schedule.seed();
//! let again = sched::replay(
//!     &sched::Schedule::from_seed(&seed).unwrap(),
//!     || {
//!         let counter = Arc::new(AtomicU64::labeled("counter", 0));
//!         let c2 = Arc::clone(&counter);
//!         let t = sched::thread::spawn(move || {
//!             c2.fetch_add(1, Ordering::SeqCst);
//!         });
//!         let v = counter.load(Ordering::SeqCst);
//!         counter.store(v + 1, Ordering::SeqCst);
//!         t.join().unwrap();
//!         assert_eq!(counter.load(Ordering::SeqCst), 2, "lost update");
//!     },
//! );
//! // Byte-identical reproduction: same trace, same failure.
//! assert_eq!(again.trace, violation.trace);
//! assert_eq!(again.message.as_deref(), Some(violation.message.as_str()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explore;
mod runtime;
pub mod sync;
pub mod thread;

pub use explore::{explore, explore_with, replay, Config, Outcome, Replay, Schedule, Violation};
pub use runtime::TraceEntry;
