//! `provabsd` — a snapshot-isolated multi-session service over the
//! provabs engine.
//!
//! The service composes the epoch layer of `provabs-relational` (see
//! [`SessionRegistry`]) with the durable storage engine into a
//! single-writer / many-reader daemon:
//!
//! * **Snapshot sessions.** Every [`Provabsd::session`] call pins the
//!   latest published epoch; the session answers queries from that
//!   immutable snapshot bit-for-bit however far the writer advances.
//! * **Admission control.** Requests are admitted against a bounded
//!   queue and an in-flight *work* budget ([`ServiceConfig`]); past
//!   either bound the service fails fast with the typed
//!   [`ServiceError::Overloaded`] instead of building an unbounded
//!   backlog.
//! * **Deterministic cancellation.** Every request runs under
//!   [`ServiceConfig::work_budget`], enforced on the engine's [`EvalWork`]
//!   derivation counters — never wall-clock — so a cancelled request is
//!   cancelled at exactly the same point in every replay
//!   ([`ServiceError::BudgetExhausted`]).
//! * **Bounded retry with deterministic backoff.** Transient storage
//!   failures in the writer loop are retried up to
//!   [`ServiceConfig::max_retries`] times; between attempts the writer
//!   reopens the durable database (recovering to the acknowledged
//!   prefix) after a backoff of `backoff_base << (attempt - 1)` no-op
//!   header syncs — a schedule driven by operation sequence numbers, so
//!   fault-injection tests replay it exactly.
//! * **Graceful degradation.** When retries are exhausted the writer is
//!   parked: reads keep serving the last published snapshot, writes
//!   return [`ServiceError::Degraded`], and [`Provabsd::health`]
//!   reports the poison cause.
//! * **One epoch per commit.** Every committed delta publishes a new
//!   snapshot epoch. Before publishing it, the writer fences the shared
//!   [`PrivacyCache`] on the annotations the delta touched and the plan
//!   cache on the relations it changed, both *at* the new epoch
//!   (`invalidate_at`), so sessions pinned at older epochs keep hitting
//!   the entries that are still valid for their snapshot.
//!
//! # Quickstart
//!
//! ```
//! use provabs_relational::storage::{shared, MemVfs};
//! use provabs_relational::{parse_cq, Database, Delta, Tuple};
//! use provabsd::{Provabsd, ServiceConfig};
//!
//! // Seed a database with one relation and two tuples.
//! let mut db = Database::new();
//! let r = db.add_relation("R", &["a", "b"]);
//! db.insert_str(r, "t1", &["1", "x"]);
//! db.insert_str(r, "t2", &["2", "x"]);
//! db.build_indexes();
//!
//! // Bring up the service over an in-memory VFS.
//! let vfs = shared(MemVfs::new());
//! let svc = Provabsd::create(vfs, "quick", db, ServiceConfig::default()).unwrap();
//!
//! // A reader session pins the current snapshot (epoch 0)...
//! let session = svc.session();
//! let q = parse_cq("q(x) :- R(x, 'x')", session.db().schema()).unwrap();
//! assert_eq!(session.query(&q).unwrap().rows.len(), 2);
//!
//! // ...the writer commits and publishes a new epoch...
//! let mut delta = Delta::new();
//! delta.insert(r, "t3", Tuple::parse(&["3", "x"]));
//! svc.apply(&delta).unwrap();
//!
//! // ...and the pinned session still answers from its epoch,
//! // while a fresh session sees the new one.
//! assert_eq!(session.query(&q).unwrap().rows.len(), 2);
//! assert_eq!(svc.session().query(&q).unwrap().rows.len(), 3);
//! assert_eq!(svc.session().epoch(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use provabs_core::privacy::{PrivacyCache, PrivacyConfig};
use provabs_relational::storage::{
    DurableDatabase, DurableOptions, RecoveryInfo, SharedVfs, StorageError,
};
use provabs_relational::{
    AppliedDelta, Cq, Database, Delta, EvalLimits, EvalWork, Evaluator, KRelation, SessionDb,
    SessionRegistry, SnapshotWriter,
};
use provabs_sched::sync::atomic::{AtomicU64, Ordering};
use provabs_sched::sync::Mutex as SchedMutex;
use std::fmt;
use std::sync::Arc;

/// Tuning knobs of the service.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Maximum admitted requests outstanding at once; request
    /// `queue_capacity + 1` is rejected with [`ServiceError::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum summed work budget of the admitted requests. Admission of a
    /// request whose budget would push the in-flight total past this bound
    /// is rejected.
    pub inflight_budget: u64,
    /// Per-request work budget (maximum [`EvalWork::derivations`] before
    /// the request is cancelled with [`ServiceError::BudgetExhausted`]).
    pub work_budget: u64,
    /// Transient-failure retries of one writer commit before the service
    /// degrades to read-only.
    pub max_retries: u32,
    /// Backoff before retry `n` is `backoff_base << (n - 1)` no-op header
    /// syncs through the VFS — observable in the op-sequence counters, so
    /// the schedule replays deterministically.
    pub backoff_base: u32,
    /// Storage engine options.
    pub durable: DurableOptions,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 8,
            inflight_budget: 1 << 22,
            work_budget: 1 << 20,
            max_retries: 3,
            backoff_base: 2,
            durable: DurableOptions::default(),
        }
    }
}

/// Typed service errors. Every variant is fail-fast: the service never
/// blocks a caller on an unbounded queue or a wall-clock timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Admission control rejected the request: the queue or the in-flight
    /// work budget is full. Back off and retry later.
    Overloaded {
        /// Admitted requests outstanding at rejection time.
        queue_depth: usize,
        /// The configured queue bound.
        queue_capacity: usize,
        /// Summed budgets of the admitted requests.
        inflight_work: u64,
        /// The configured in-flight work bound.
        inflight_budget: u64,
    },
    /// The request exhausted its work budget and was cancelled
    /// deterministically (same point in every replay).
    BudgetExhausted {
        /// The budget the request was admitted with.
        budget: u64,
        /// Derivations counted when the evaluator stopped.
        derivations: u64,
    },
    /// The writer is parked after exhausting its retries; reads still
    /// serve the last published snapshot, writes fail with this error.
    Degraded {
        /// The storage error that parked the writer.
        reason: String,
    },
    /// A storage-layer error surfaced directly (e.g. a rejected delta).
    Storage(StorageError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded {
                queue_depth,
                queue_capacity,
                inflight_work,
                inflight_budget,
            } => write!(
                f,
                "overloaded: {queue_depth}/{queue_capacity} requests, \
                 {inflight_work}/{inflight_budget} in-flight work"
            ),
            ServiceError::BudgetExhausted {
                budget,
                derivations,
            } => write!(
                f,
                "request cancelled: work budget {budget} exhausted at {derivations} derivations"
            ),
            ServiceError::Degraded { reason } => {
                write!(f, "service degraded to read-only: {reason}")
            }
            ServiceError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<StorageError> for ServiceError {
    fn from(e: StorageError) -> Self {
        ServiceError::Storage(e)
    }
}

/// Coarse health of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// Reads and writes are served.
    Healthy,
    /// The writer is parked; reads serve the last published snapshot.
    Degraded,
}

/// What a health endpoint reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Health {
    /// Healthy or degraded.
    pub status: HealthStatus,
    /// The poison cause when degraded (from
    /// [`DurableDatabase::poison_cause`] or the final retry error).
    pub reason: Option<String>,
    /// The latest published epoch.
    pub epoch: u64,
    /// Committed (acknowledged) transactions.
    pub committed_txns: u64,
    /// Admitted requests outstanding.
    pub queue_depth: usize,
    /// Summed work budgets of the admitted requests.
    pub inflight_work: u64,
}

/// A deterministic snapshot of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected because the queue was full.
    pub rejected_queue: u64,
    /// Requests rejected because the in-flight work budget was full.
    pub rejected_work: u64,
    /// Requests completed within budget.
    pub completed: u64,
    /// Requests cancelled on budget exhaustion.
    pub cancelled: u64,
    /// The largest [`EvalWork::derivations`] any completed or cancelled
    /// request counted — the gate asserting budgets actually bind.
    pub max_request_work: u64,
    /// Snapshot epochs published.
    pub epochs_published: u64,
    /// Writer retry attempts after transient storage failures.
    pub writer_retries: u64,
    /// No-op backoff syncs issued between retries.
    pub backoff_syncs: u64,
    /// Writes rejected while degraded.
    pub degraded_writes: u64,
    /// Plan-cache lookups answered from a cached version.
    pub plan_cache_hits: u64,
    /// Plan-cache lookups that planned cold.
    pub plan_cache_misses: u64,
    /// Plan versions retired by epoch fences at publication.
    pub plan_cache_invalidations: u64,
}

#[derive(Debug)]
struct StatCells {
    admitted: AtomicU64,
    rejected_queue: AtomicU64,
    rejected_work: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    max_request_work: AtomicU64,
    epochs_published: AtomicU64,
    writer_retries: AtomicU64,
    backoff_syncs: AtomicU64,
    degraded_writes: AtomicU64,
}

impl Default for StatCells {
    fn default() -> Self {
        Self {
            admitted: AtomicU64::labeled("provabsd.stats.admitted", 0),
            rejected_queue: AtomicU64::labeled("provabsd.stats.rejected_queue", 0),
            rejected_work: AtomicU64::labeled("provabsd.stats.rejected_work", 0),
            completed: AtomicU64::labeled("provabsd.stats.completed", 0),
            cancelled: AtomicU64::labeled("provabsd.stats.cancelled", 0),
            max_request_work: AtomicU64::labeled("provabsd.stats.max_request_work", 0),
            epochs_published: AtomicU64::labeled("provabsd.stats.epochs_published", 0),
            writer_retries: AtomicU64::labeled("provabsd.stats.writer_retries", 0),
            backoff_syncs: AtomicU64::labeled("provabsd.stats.backoff_syncs", 0),
            degraded_writes: AtomicU64::labeled("provabsd.stats.degraded_writes", 0),
        }
    }
}

#[derive(Debug, Default)]
struct Admission {
    queue_depth: usize,
    inflight_work: u64,
}

/// The writer half: the durable database, the unique snapshot publisher,
/// and everything needed to reopen after a fault. `durable == None` means
/// the handle was poisoned and the next attempt must reopen.
#[derive(Debug)]
struct WriterState {
    durable: Option<DurableDatabase>,
    publisher: SnapshotWriter,
    vfs: SharedVfs,
    base: String,
    /// Set when retries were exhausted: the service is read-only.
    degraded: Option<String>,
    /// Committed transactions (mirrored so health works while degraded).
    committed: u64,
}

#[derive(Debug)]
struct Inner {
    config: ServiceConfig,
    registry: Arc<SessionRegistry>,
    /// Lock order (audited by the schedule harness): `provabsd.writer` may
    /// be held while `provabsd.admission` is acquired (see [`Provabsd::health`]);
    /// never the reverse.
    writer: SchedMutex<WriterState>,
    admission: SchedMutex<Admission>,
    cache: Arc<PrivacyCache>,
    stats: StatCells,
}

/// The service handle. Cloning is cheap (one `Arc` bump); all clones share
/// the registry, the writer, the admission state, and the cache.
#[derive(Debug, Clone)]
pub struct Provabsd {
    inner: Arc<Inner>,
}

/// An admission permit: proof that the request's work budget was reserved.
/// Dropping it releases the queue slot and the budget.
#[derive(Debug)]
pub struct Permit {
    service: Provabsd,
    budget: u64,
}

impl Permit {
    /// The work budget this permit reserved.
    pub fn budget(&self) -> u64 {
        self.budget
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        if let Ok(mut a) = self.service.inner.admission.lock() {
            a.queue_depth = a.queue_depth.saturating_sub(1);
            a.inflight_work = a.inflight_work.saturating_sub(self.budget);
        }
    }
}

/// The result of one admitted, completed query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The annotated answer relation.
    pub rows: KRelation,
    /// Deterministic work counters of the evaluation.
    pub work: EvalWork,
    /// The epoch the answering snapshot was pinned at.
    pub epoch: u64,
}

/// A reader session pinned to one published epoch.
///
/// Queries run against the pinned [`SessionDb`] and are therefore
/// bit-identical however far the writer has advanced — including their
/// [`EvalWork`] counters.
#[derive(Debug, Clone)]
pub struct Session {
    service: Provabsd,
    db: SessionDb,
}

impl Session {
    /// The pinned snapshot.
    pub fn db(&self) -> &SessionDb {
        &self.db
    }

    /// The epoch this session is pinned at.
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// Stamps `base` with this session's epoch, so privacy evaluations
    /// through the shared cache only see entries valid for this snapshot.
    pub fn privacy_config(&self, base: &PrivacyConfig) -> PrivacyConfig {
        PrivacyConfig {
            epoch: self.db.epoch(),
            ..base.clone()
        }
    }

    /// Evaluates `q`. The request is admitted first (reserving
    /// [`ServiceConfig::work_budget`]), evaluated with
    /// [`EvalLimits::max_derivations`] capped at that budget, and
    /// cancelled with [`ServiceError::BudgetExhausted`] if the cap was
    /// reached — a deterministic decision on the derivation counter, not
    /// on time.
    pub fn query(&self, q: &Cq) -> Result<QueryOutcome, ServiceError> {
        let budget = self.service.inner.config.work_budget;
        let _permit = self.service.acquire(budget)?;
        let limits = EvalLimits {
            max_derivations: usize::try_from(budget).unwrap_or(usize::MAX),
            ..EvalLimits::default()
        };
        // Every session consults the registry-wide plan cache at its
        // pinned epoch: a hit returns the byte-identical plan a cold run
        // would compute, so results and EvalWork counters are unchanged
        // (the hit/miss counters live on the cache itself).
        let (rows, work) = Evaluator::new(&self.db)
            .limits(limits)
            .plan_cache(self.service.inner.registry.plan_cache(), self.db.epoch())
            .eval_cq(q);
        let stats = &self.service.inner.stats;
        stats
            .max_request_work
            .fetch_max(work.derivations, Ordering::Relaxed);
        if work.derivations >= budget {
            stats.cancelled.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::BudgetExhausted {
                budget,
                derivations: work.derivations,
            });
        }
        stats.completed.fetch_add(1, Ordering::Relaxed);
        Ok(QueryOutcome {
            rows,
            work,
            epoch: self.db.epoch(),
        })
    }
}

impl Provabsd {
    /// Creates a fresh durable database at `base` on `vfs` and brings the
    /// service up over it, publishing the initial snapshot as epoch 0.
    pub fn create(
        vfs: SharedVfs,
        base: &str,
        db: Database,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        let durable = DurableDatabase::create(vfs.clone(), base, db, config.durable)?;
        Ok(Self::wire(vfs, base, durable, config))
    }

    /// Opens an existing durable database, recovering to its last
    /// committed transaction, and serves that state as epoch 0.
    pub fn open(
        vfs: SharedVfs,
        base: &str,
        config: ServiceConfig,
    ) -> Result<(Self, RecoveryInfo), ServiceError> {
        let (durable, info) = DurableDatabase::open(vfs.clone(), base, config.durable)?;
        Ok((Self::wire(vfs, base, durable, config), info))
    }

    fn wire(vfs: SharedVfs, base: &str, durable: DurableDatabase, config: ServiceConfig) -> Self {
        let committed = durable.committed_txns();
        let (registry, publisher) = SessionRegistry::shared(durable.db().clone());
        Self {
            inner: Arc::new(Inner {
                config,
                registry,
                writer: SchedMutex::labeled(
                    "provabsd.writer",
                    WriterState {
                        durable: Some(durable),
                        publisher,
                        vfs,
                        base: base.to_owned(),
                        degraded: None,
                        committed,
                    },
                ),
                admission: SchedMutex::labeled("provabsd.admission", Admission::default()),
                cache: Arc::new(PrivacyCache::new()),
                stats: StatCells::default(),
            }),
        }
    }

    /// The session registry (for callers that want to pin raw
    /// [`SessionDb`]s without the service request path).
    pub fn registry(&self) -> &Arc<SessionRegistry> {
        &self.inner.registry
    }

    /// The shared cross-session privacy cache. Commits retire entries
    /// epoch-aware, so configs stamped by [`Session::privacy_config`]
    /// always read entries valid for their snapshot.
    pub fn cache(&self) -> &Arc<PrivacyCache> {
        &self.inner.cache
    }

    /// Pins the latest published snapshot as a new reader session.
    pub fn session(&self) -> Session {
        Session {
            service: self.clone(),
            db: self.inner.registry.pin(),
        }
    }

    /// Admits a request with `budget` work units, or rejects it with
    /// [`ServiceError::Overloaded`]. The returned [`Permit`] releases the
    /// queue slot and the budget on drop — callers simulating concurrent
    /// clients (the bench harness) hold permits to model outstanding
    /// requests deterministically.
    pub fn acquire(&self, budget: u64) -> Result<Permit, ServiceError> {
        let cfg = &self.inner.config;
        let stats = &self.inner.stats;
        let mut a = self
            .inner
            .admission
            .lock()
            .expect("admission lock poisoned");
        let overloaded = |a: &Admission| ServiceError::Overloaded {
            queue_depth: a.queue_depth,
            queue_capacity: cfg.queue_capacity,
            inflight_work: a.inflight_work,
            inflight_budget: cfg.inflight_budget,
        };
        if a.queue_depth >= cfg.queue_capacity {
            stats.rejected_queue.fetch_add(1, Ordering::Relaxed);
            return Err(overloaded(&a));
        }
        if a.inflight_work.saturating_add(budget) > cfg.inflight_budget {
            stats.rejected_work.fetch_add(1, Ordering::Relaxed);
            return Err(overloaded(&a));
        }
        a.queue_depth += 1;
        a.inflight_work += budget;
        stats.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(Permit {
            service: self.clone(),
            budget,
        })
    }

    /// Applies `delta` as one durable transaction through the single
    /// writer, retrying transient storage failures up to
    /// [`ServiceConfig::max_retries`] times (reopening the durable
    /// database between attempts, with the op-sequence backoff described
    /// in the module docs). On success the commit is acknowledged and
    /// published as a new epoch — after retiring the cache entries it
    /// touched *at* that epoch, so no session can pin the epoch before the
    /// fences are in place.
    ///
    /// Rejected deltas ([`StorageError::InvalidDelta`]) return
    /// immediately without retrying: nothing was logged, the writer stays
    /// healthy. Exhausted retries park the writer
    /// ([`ServiceError::Degraded`]); reads continue from the last
    /// published snapshot.
    pub fn apply(&self, delta: &Delta) -> Result<AppliedDelta, ServiceError> {
        let cfg = &self.inner.config;
        let stats = &self.inner.stats;
        let mut w = self.inner.writer.lock().expect("writer lock poisoned");
        if let Some(reason) = &w.degraded {
            stats.degraded_writes.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Degraded {
                reason: reason.clone(),
            });
        }
        let mut attempt = 0u32;
        loop {
            // Reopen after a poisoned attempt: recovery lands exactly on
            // the acknowledged prefix, so re-applying `delta` is safe
            // whether or not the failed attempt reached the log.
            if w.durable.is_none() {
                match DurableDatabase::open(w.vfs.clone(), &w.base, cfg.durable) {
                    Ok((re, info)) => {
                        w.committed = info.committed_txns;
                        w.durable = Some(re);
                    }
                    Err(e) => {
                        if attempt >= cfg.max_retries {
                            return Err(degrade(&mut w, e.to_string()));
                        }
                        attempt += 1;
                        stats.writer_retries.fetch_add(1, Ordering::Relaxed);
                        self.backoff(&w, attempt);
                        continue;
                    }
                }
            }
            let durable = w.durable.as_mut().expect("just ensured");
            match durable.apply_delta(delta) {
                Ok(applied) => {
                    w.committed += 1;
                    // Both caches are fenced at `next` before it is
                    // published: no session may pin `next` and still hit
                    // a frontier or a plan computed before this delta.
                    let next = self.inner.registry.epoch() + 1;
                    self.inner.cache.invalidate_at(applied.touched(), next);
                    self.inner
                        .registry
                        .plan_cache()
                        .invalidate_at(&applied.rels, next);
                    let ws = &mut *w;
                    let pstats = ws
                        .publisher
                        .publish(ws.durable.as_ref().expect("live handle").db());
                    debug_assert_eq!(pstats.epoch, next, "publisher and registry agree");
                    stats.epochs_published.fetch_add(1, Ordering::Relaxed);
                    return Ok(applied);
                }
                Err(e @ StorageError::InvalidDelta(_)) => return Err(ServiceError::Storage(e)),
                Err(e) => {
                    if durable.is_poisoned() {
                        w.durable = None;
                    }
                    if attempt >= cfg.max_retries {
                        return Err(degrade(&mut w, e.to_string()));
                    }
                    attempt += 1;
                    stats.writer_retries.fetch_add(1, Ordering::Relaxed);
                    self.backoff(&w, attempt);
                }
            }
        }
    }

    /// Deterministic backoff before retry `attempt`: `backoff_base <<
    /// (attempt - 1)` no-op syncs of the header file. Errors are ignored
    /// (the VFS may be mid-fault); the syncs advance the VFS op-sequence
    /// counters, which is exactly what makes the retry schedule
    /// observable and replayable without any clock.
    fn backoff(&self, w: &WriterState, attempt: u32) {
        let spins = u64::from(self.inner.config.backoff_base) << (attempt - 1).min(16);
        let header = format!("{}.db", w.base);
        for _ in 0..spins {
            if let Ok(mut v) = w.vfs.lock() {
                let _ = v.sync(&header);
            }
            self.inner
                .stats
                .backoff_syncs
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Forces a checkpoint of the durable database.
    pub fn checkpoint(&self) -> Result<(), ServiceError> {
        let mut w = self.inner.writer.lock().expect("writer lock poisoned");
        if let Some(reason) = &w.degraded {
            return Err(ServiceError::Degraded {
                reason: reason.clone(),
            });
        }
        match w.durable.as_mut() {
            Some(d) => d.checkpoint().map_err(ServiceError::from),
            None => Ok(()),
        }
    }

    /// The health report: status, poison cause (when degraded), latest
    /// epoch, acknowledged commits, and the admission gauges.
    pub fn health(&self) -> Health {
        let w = self.inner.writer.lock().expect("writer lock poisoned");
        let a = self
            .inner
            .admission
            .lock()
            .expect("admission lock poisoned");
        let reason = w.degraded.clone().or_else(|| {
            w.durable
                .as_ref()
                .and_then(|d| d.poison_cause().map(str::to_owned))
        });
        Health {
            status: if w.degraded.is_some() {
                HealthStatus::Degraded
            } else {
                HealthStatus::Healthy
            },
            reason,
            epoch: self.inner.registry.epoch(),
            committed_txns: w.committed,
            queue_depth: a.queue_depth,
            inflight_work: a.inflight_work,
        }
    }

    /// A snapshot of the deterministic service counters.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.inner.stats;
        let pc = self.inner.registry.plan_cache().stats();
        ServiceStats {
            plan_cache_hits: pc.hits,
            plan_cache_misses: pc.misses,
            plan_cache_invalidations: pc.invalidations,
            admitted: s.admitted.load(Ordering::Relaxed),
            rejected_queue: s.rejected_queue.load(Ordering::Relaxed),
            rejected_work: s.rejected_work.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            cancelled: s.cancelled.load(Ordering::Relaxed),
            max_request_work: s.max_request_work.load(Ordering::Relaxed),
            epochs_published: s.epochs_published.load(Ordering::Relaxed),
            writer_retries: s.writer_retries.load(Ordering::Relaxed),
            backoff_syncs: s.backoff_syncs.load(Ordering::Relaxed),
            degraded_writes: s.degraded_writes.load(Ordering::Relaxed),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }
}

/// Parks the writer: records the reason, drops the durable handle, and
/// returns the typed error. Reads are untouched.
fn degrade(w: &mut WriterState, reason: String) -> ServiceError {
    w.degraded = Some(reason.clone());
    w.durable = None;
    ServiceError::Degraded { reason }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provabs_relational::storage::{shared, Fault, FaultyVfs, MemVfs};
    use provabs_relational::{parse_cq, Tuple};
    use std::sync::Mutex;

    fn seed_db() -> Database {
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]);
        db.add_relation("S", &["a"]);
        for i in 0..8 {
            db.insert_str(r, &format!("t{i}"), &[&format!("{i}"), "x"]);
        }
        db.build_indexes();
        db
    }

    fn ins(db: &Database, label: &str, a: &str) -> Delta {
        let r = db.schema().relation_id("R").unwrap();
        let mut d = Delta::new();
        d.insert(r, label, Tuple::parse(&[a, "x"]));
        d
    }

    fn mem_service(config: ServiceConfig) -> Provabsd {
        Provabsd::create(shared(MemVfs::new()), "svc", seed_db(), config).unwrap()
    }

    #[test]
    fn admission_rejects_past_queue_capacity() {
        let svc = mem_service(ServiceConfig {
            queue_capacity: 2,
            ..Default::default()
        });
        let p1 = svc.acquire(10).unwrap();
        let _p2 = svc.acquire(10).unwrap();
        let err = svc.acquire(10).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Overloaded {
                queue_depth: 2,
                queue_capacity: 2,
                ..
            }
        ));
        assert_eq!(svc.health().queue_depth, 2);
        // Releasing a permit opens a slot again.
        drop(p1);
        let _p3 = svc.acquire(10).unwrap();
        let s = svc.stats();
        assert_eq!((s.admitted, s.rejected_queue), (3, 1));
    }

    #[test]
    fn admission_rejects_past_inflight_work_budget() {
        let svc = mem_service(ServiceConfig {
            queue_capacity: 10,
            inflight_budget: 100,
            ..Default::default()
        });
        let _p1 = svc.acquire(60).unwrap();
        let err = svc.acquire(50).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Overloaded {
                inflight_work: 60,
                ..
            }
        ));
        assert_eq!(svc.stats().rejected_work, 1);
        let _p2 = svc.acquire(40).unwrap();
        assert_eq!(svc.health().inflight_work, 100);
    }

    #[test]
    fn budget_cancellation_is_deterministic() {
        let svc = mem_service(ServiceConfig {
            work_budget: 5,
            ..Default::default()
        });
        let session = svc.session();
        let q = parse_cq("q(a, b) :- R(a, x), R(b, x)", session.db().schema()).unwrap();
        let first = session.query(&q).unwrap_err();
        let second = session.query(&q).unwrap_err();
        assert_eq!(first, second, "cancellation point replays bit-for-bit");
        match first {
            ServiceError::BudgetExhausted {
                budget,
                derivations,
            } => {
                assert_eq!(budget, 5);
                assert_eq!(derivations, 5, "the evaluator stops exactly at the cap");
            }
            other => panic!("expected BudgetExhausted, got {other}"),
        }
        let s = svc.stats();
        assert_eq!(s.cancelled, 2);
        assert!(s.max_request_work <= 5);
        // A sufficient budget completes the same query.
        let roomy = mem_service(ServiceConfig {
            work_budget: 1000,
            ..Default::default()
        });
        let ok = roomy.session().query(&q).unwrap();
        assert_eq!(ok.rows.len(), 64);
        assert_eq!(roomy.stats().completed, 1);
    }

    #[test]
    fn transient_write_failure_retries_and_commits() {
        // Dry-run the exact sequence to find the first write of the
        // second commit, then arm a one-shot transient failure there.
        let boundary = {
            let faulty = Arc::new(Mutex::new(FaultyVfs::new()));
            let vfs: SharedVfs = faulty.clone();
            let svc = Provabsd::create(vfs, "svc", seed_db(), ServiceConfig::default()).unwrap();
            svc.apply(&ins(svc.session().db(), "w0", "100")).unwrap();
            let count = faulty.lock().unwrap().write_count();
            count
        };
        let faulty = Arc::new(Mutex::new(FaultyVfs::with_faults(vec![Fault::FailWrite(
            boundary,
        )])));
        let vfs: SharedVfs = faulty.clone();
        let svc = Provabsd::create(vfs, "svc", seed_db(), ServiceConfig::default()).unwrap();
        svc.apply(&ins(svc.session().db(), "w0", "100")).unwrap();
        let pre = svc.session();
        svc.apply(&ins(svc.session().db(), "w1", "101")).unwrap();
        let s = svc.stats();
        assert_eq!(s.writer_retries, 1, "one transient failure, one retry");
        assert_eq!(s.backoff_syncs, u64::from(svc.config().backoff_base));
        assert_eq!(s.epochs_published, 2);
        assert_eq!(svc.health().status, HealthStatus::Healthy);
        assert_eq!(svc.health().committed_txns, 2);
        // The pre-failure session is untouched; a fresh one sees the commit.
        assert_eq!(pre.epoch(), 1);
        let fresh = svc.session();
        assert_eq!(fresh.epoch(), 2);
        let r = fresh.db().schema().relation_id("R").unwrap();
        assert_eq!(fresh.db().relation_len(r), 10);
        // Reopening from the same VFS recovers both commits: the retry
        // really made the delta durable.
        drop(svc);
        let reopen_vfs: SharedVfs = faulty;
        let (re, info) = Provabsd::open(reopen_vfs, "svc", ServiceConfig::default()).unwrap();
        assert_eq!(info.committed_txns, 2);
        assert_eq!(re.session().db().relation_len(r), 10);
    }

    #[test]
    fn exhausted_retries_degrade_to_readonly() {
        // A hard crash (all I/O fails until recover) exhausts every retry.
        let boundary = {
            let faulty = Arc::new(Mutex::new(FaultyVfs::new()));
            let vfs: SharedVfs = faulty.clone();
            let svc = Provabsd::create(vfs, "svc", seed_db(), ServiceConfig::default()).unwrap();
            svc.apply(&ins(svc.session().db(), "w0", "100")).unwrap();
            let count = faulty.lock().unwrap().write_count();
            count
        };
        let faulty = Arc::new(Mutex::new(FaultyVfs::with_faults(vec![
            Fault::CrashBeforeWrite(boundary),
        ])));
        let vfs: SharedVfs = faulty.clone();
        let cfg = ServiceConfig {
            max_retries: 2,
            backoff_base: 1,
            ..Default::default()
        };
        let svc = Provabsd::create(vfs, "svc", seed_db(), cfg).unwrap();
        svc.apply(&ins(svc.session().db(), "w0", "100")).unwrap();
        let pinned = svc.session();
        let q = parse_cq("q(a) :- R(a, 'x')", pinned.db().schema()).unwrap();
        let before = pinned.query(&q).unwrap();

        let err = svc
            .apply(&ins(svc.session().db(), "w1", "101"))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Degraded { .. }));
        let health = svc.health();
        assert_eq!(health.status, HealthStatus::Degraded);
        assert!(health.reason.is_some(), "poison cause is reported");
        assert_eq!(health.committed_txns, 1, "only the acknowledged commit");
        assert_eq!(svc.stats().writer_retries, 2, "retries were bounded");

        // Reads keep serving the pinned snapshot, bit-for-bit.
        let after = pinned.query(&q).unwrap();
        assert_eq!(before.rows, after.rows);
        assert_eq!(before.work, after.work);
        assert_eq!(svc.session().epoch(), 1);

        // Further writes fail fast with the same typed error.
        let err2 = svc
            .apply(&ins(svc.session().db(), "w2", "102"))
            .unwrap_err();
        assert!(matches!(err2, ServiceError::Degraded { .. }));
        assert_eq!(svc.stats().degraded_writes, 1);

        // After the "disk" recovers, a reopen resumes on the
        // acknowledged prefix.
        faulty.lock().unwrap().recover();
        let reopen_vfs: SharedVfs = faulty;
        let (re, info) = Provabsd::open(reopen_vfs, "svc", cfg).unwrap();
        assert_eq!(info.committed_txns, 1);
        assert_eq!(re.health().status, HealthStatus::Healthy);
    }

    #[test]
    fn invalid_deltas_reject_without_degrading() {
        let svc = mem_service(ServiceConfig::default());
        let db = svc.session();
        // Label reuse is rejected by validation before any WAL append.
        let err = svc.apply(&ins(db.db(), "t0", "200")).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Storage(StorageError::InvalidDelta(_))
        ));
        assert_eq!(svc.health().status, HealthStatus::Healthy);
        assert_eq!(svc.stats().writer_retries, 0, "no retry for invalid input");
        // The writer still works.
        svc.apply(&ins(db.db(), "ok", "201")).unwrap();
        assert_eq!(svc.health().committed_txns, 1);
    }

    #[test]
    fn every_commit_publishes_and_fences_its_delta() {
        let svc = mem_service(ServiceConfig::default());
        let base = svc.session();
        let schema = base.db().schema();
        let (r, s) = (
            schema.relation_id("R").unwrap(),
            schema.relation_id("S").unwrap(),
        );
        let qr = parse_cq("q(a) :- R(a, 'x')", schema).unwrap();
        let qs = parse_cq("q(a) :- S(a)", schema).unwrap();
        base.query(&qr).unwrap();
        base.query(&qs).unwrap();
        // Two epoch-0 cache entries: one through t0 (the first commit
        // deletes it), one through t1 only.
        let annot = |label: &str| base.db().annotations().get(label).unwrap();
        let conc = |label: &str, a: &str| vec![(Tuple::parse(&[a]), vec![annot(label)])];
        let (through_t0, through_t1) = (conc("t0", "0"), conc("t1", "1"));
        let cache = svc.cache();
        cache.consistent_record(&through_t0, 0, Default::default());
        cache.consistent_record(&through_t1, 0, Default::default());

        let mut delete_t0 = Delta::new();
        delete_t0.delete(annot("t0"));
        svc.apply(&delete_t0).unwrap();
        assert_eq!(svc.session().epoch(), 1, "the first commit publishes");
        assert_eq!(svc.stats().epochs_published, 1);
        assert!(cache.consistent_probe(&through_t0, 1).is_none());
        assert!(cache.consistent_probe(&through_t0, 0).is_some());
        assert!(cache.consistent_probe(&through_t1, 1).is_some());
        assert_eq!(svc.stats().plan_cache_invalidations, 1, "only R's plan");

        svc.session().query(&qr).unwrap();
        let mut insert_s = Delta::new();
        insert_s.insert(s, "s0", Tuple::parse(&["5"]));
        svc.apply(&insert_s).unwrap();
        assert_eq!(svc.session().epoch(), 2, "the second commit publishes");
        assert_eq!(svc.stats().epochs_published, 2);
        assert_eq!(svc.health().committed_txns, 2);
        assert_eq!(
            svc.stats().plan_cache_invalidations,
            2,
            "then only S's plan"
        );
        // R's epoch-1 plan survives the S commit.
        let misses = svc.stats().plan_cache_misses;
        svc.session().query(&qr).unwrap();
        assert_eq!(svc.stats().plan_cache_misses, misses);
        assert_eq!(svc.session().db().relation_len(r), 7);
    }
}
