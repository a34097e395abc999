//! The CPR commit driver, shared by both engines (paper Figs. 4 and 9a,
//! Algs. 1–2).
//!
//! A commit walks REST → PREPARE → IN-PROGRESS → [WAIT-PENDING] →
//! WAIT-FLUSH → REST. Every step before WAIT-FLUSH is an epoch trigger
//! (`bump_epoch`) that fires once every registered session has refreshed
//! into the current phase, plus — for FASTER's WAIT-PENDING — once the
//! engine's own readiness predicate holds. At WAIT-FLUSH the version is
//! handed to a flush worker thread, which persists it and completes the
//! commit.
//!
//! [`CommitCore`] owns the state both engines share: the packed system
//! state, the session registry, the epoch manager, the committed version
//! and its condition variable, the durable per-session points, detached
//! sessions, commit observers, the watchdog outcome, and the flush and
//! watchdog threads. An engine embeds one and implements
//! [`CommitEngine`] for what actually differs: how an attempt begins,
//! flushes and is timed out, and (FASTER only) how a session's pending
//! operations gate WAIT-PENDING and are cancelled on eviction.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cpr_epoch::EpochManager;
use cpr_metrics::Registry;
use crossbeam::channel::Sender;
use parking_lot::{Condvar, Mutex};

use crate::liveness::{CommitOutcome, LivenessConfig, SessionStatus};
use crate::{
    CheckpointVersion, DetachedSessions, Phase, SessionCpr, SessionId, SessionRegistry, SystemState,
};

/// Commit observer: `(committed version, per-session CPR points)`.
pub type CommitCallback = Box<dyn Fn(u64, &[SessionCpr]) + Send + Sync>;

/// What an engine supplies to the shared commit driver. The engine
/// dereferences to the [`CommitCore`] it embeds.
///
/// Every hook runs where the engine's own commit work ran before the
/// driver was shared: `begin` on the requesting thread, `flush` on the
/// flush worker, `release` and `abort_flush` on the watchdog thread.
pub trait CommitEngine:
    std::ops::Deref<Target = CommitCore<Self::Request>> + Send + Sync + Sized + 'static
{
    /// What one commit request asks for. A watchdog retry repeats the
    /// request of the attempt it aborted.
    type Request: Copy + Send + 'static;

    /// The phases after PREPARE, in order, ending at WAIT-FLUSH.
    const PHASES: &'static [Phase];

    /// Tracer label of the checkpoint flavor `request` asks for.
    fn kind(&self, request: Self::Request) -> &'static str;

    /// Set up attempt `v` right after REST → PREPARE. An error rolls the
    /// machine back to REST at `v` and counts a checkpoint failure.
    fn begin(&self, _v: u64, _request: Self::Request) -> io::Result<()> {
        Ok(())
    }

    /// Persist version `v` (on the flush worker). Returns the manifest's
    /// per-session points, or `None` when the attempt failed and was
    /// rolled back.
    fn flush(&self, v: u64) -> Option<Vec<SessionCpr>>;

    /// The watchdog timed attempt `v` out before WAIT-FLUSH; the driver
    /// has already returned the machine to REST at `v + 1`. Release what
    /// `begin` set up.
    fn release(&self, _v: u64) {}

    /// The watchdog timed attempt `v` out at WAIT-FLUSH, where the flush
    /// worker owns the exit. Ask the flush to fail; return `true` if this
    /// call made that request (`false`: already asked, or the engine
    /// never aborts a flush).
    fn abort_flush(&self, _v: u64) -> bool {
        false
    }

    /// Engine readiness to leave `phase` of attempt `v`, checked after
    /// every session has reached it (FASTER: no version-`v` pending
    /// operation remains at WAIT-PENDING).
    fn ready(&self, _phase: Phase, _v: u64) -> bool {
        true
    }

    /// Whether the session in registry slot `idx` has pending operations.
    fn has_pendings(&self, _idx: usize) -> bool {
        false
    }

    /// Cancel the pending operations of the evicted session in slot
    /// `idx`, releasing what they hold; returns their serials.
    fn cancel_pendings(&self, _idx: usize) -> Vec<u64> {
        Vec::new()
    }
}

/// Commit state shared by both engines; see the module docs.
pub struct CommitCore<R> {
    pub state: SystemState,
    pub registry: SessionRegistry,
    pub epoch: Arc<EpochManager>,
    /// Highest version whose checkpoint is durable (0 = none).
    pub committed_version: AtomicU64,
    pub commit_lock: Mutex<()>,
    pub commit_cv: Condvar,
    /// Watchdog book-keeping for the in-flight (or most recent) commit.
    pub outcome: Mutex<CommitOutcome>,
    /// Per-guid commit points of the newest durable manifest, seeded from
    /// the recovery manifest and raised by every commit. Carried into
    /// each new manifest so sessions absent at commit time keep their
    /// recovery contract.
    pub durable_points: Mutex<HashMap<u64, u64>>,
    /// Commit points (and live-resume serials) of sessions that detached
    /// since the engine opened: dropped handles, disconnected clients,
    /// watchdog evictions.
    pub detached: DetachedSessions,
    /// Checkpoint attempts that failed and were aborted (no manifest).
    pub checkpoint_failures: AtomicU64,
    /// Session liveness configuration (None = no watchdog).
    pub liveness: Option<LivenessConfig>,
    /// Observability sink (no-op unless enabled at open time).
    pub metrics: Arc<Registry>,
    /// Cached `metrics.is_enabled()` so hot paths skip clock reads.
    pub metrics_on: bool,
    observers: Mutex<Vec<CommitCallback>>,
    /// Request of the most recently started attempt (retried after an
    /// abort).
    pub(crate) request: Mutex<Option<R>>,
    flush_tx: Mutex<Option<Sender<u64>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<R: Copy + Send + 'static> CommitCore<R> {
    /// State at REST at `version` (1 for a fresh engine, the recovered
    /// version + 1 after recovery), with room for `max_sessions`.
    pub fn new(
        version: u64,
        max_sessions: usize,
        liveness: Option<LivenessConfig>,
        metrics: Arc<Registry>,
    ) -> Self {
        let epoch = Arc::new(EpochManager::new(max_sessions + 8));
        let metrics_on = metrics.is_enabled();
        if metrics_on {
            epoch.set_metrics(Arc::clone(&metrics));
        }
        CommitCore {
            state: SystemState::at_version(version),
            registry: SessionRegistry::new(max_sessions),
            epoch,
            committed_version: AtomicU64::new(version.saturating_sub(1)),
            commit_lock: Mutex::new(()),
            commit_cv: Condvar::new(),
            outcome: Mutex::new(CommitOutcome::default()),
            durable_points: Mutex::new(HashMap::new()),
            detached: DetachedSessions::new(),
            checkpoint_failures: AtomicU64::new(0),
            liveness,
            metrics,
            metrics_on,
            observers: Mutex::new(Vec::new()),
            request: Mutex::new(None),
            flush_tx: Mutex::new(None),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Version of the newest durable commit ([`CheckpointVersion::NONE`]
    /// = none yet).
    pub fn committed_version(&self) -> CheckpointVersion {
        CheckpointVersion(self.committed_version.load(Ordering::Acquire))
    }

    /// Register a commit observer; it runs on the flush worker after
    /// each durable commit, before the version is published.
    pub fn on_commit(&self, callback: CommitCallback) {
        self.observers.lock().push(callback);
    }

    /// The serial a re-attaching `guid` resumes after: its last accepted
    /// serial if it detached while the engine stayed up, else its
    /// durable commit point (every later serial must be re-issued).
    pub fn resume_serial(&self, guid: u64) -> u64 {
        self.detached
            .last_serial(guid)
            .unwrap_or_else(|| self.durable_point(guid))
    }

    /// The guid's durable commit point: the serial below which every op
    /// is guaranteed recovered after a crash right now.
    pub fn durable_point(&self, guid: u64) -> u64 {
        self.durable_points.lock().get(&guid).copied().unwrap_or(0)
    }

    /// Block until the commit of `version` is durable (sessions must keep
    /// refreshing, or none be registered). Returns `false` on timeout.
    pub fn wait_for_version(&self, version: CheckpointVersion, timeout: Duration) -> bool {
        self.wait(version, timeout, false)
    }

    /// [`wait_for_version`](Self::wait_for_version) that also gives up
    /// (returns `false`) once the watchdog has exhausted its retries.
    pub fn wait_for_commit(&self, version: CheckpointVersion, timeout: Duration) -> bool {
        self.wait(version, timeout, true)
    }

    fn wait(&self, version: CheckpointVersion, timeout: Duration, stop_on_give_up: bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut g = self.commit_lock.lock();
        while self.committed_version() < version {
            let gave_up = stop_on_give_up && self.outcome.lock().gave_up;
            if gave_up || Instant::now() >= deadline {
                return false;
            }
            // Nudge the drain list in case no session is refreshing.
            self.epoch.try_drain();
            self.commit_cv.wait_for(&mut g, Duration::from_millis(1));
        }
        true
    }

    /// The sessions holding a commit back: phase blockers while sessions
    /// gate the transition, expired leases otherwise (flush wedged behind
    /// a straggler, or the watchdog gave up).
    pub fn stragglers(&self) -> Vec<SessionId> {
        let (phase, v) = self.state.load();
        if gated_by_sessions(phase) {
            return self
                .registry
                .blockers(phase, v)
                .into_iter()
                .map(|(_, guid)| guid)
                .collect();
        }
        let Some(cfg) = &self.liveness else {
            return Vec::new();
        };
        let now = cfg.clock.now();
        let reg = &self.registry;
        (0..reg.capacity())
            .filter_map(|i| {
                let guid = reg.guid(i)?;
                (now.saturating_sub(reg.last_heartbeat(i)) > cfg.grace_ticks
                    && reg.status(i) != SessionStatus::Evicted)
                    .then_some(guid)
            })
            .collect()
    }

    /// Per-session commit points for the manifest of version `v`: the
    /// newest durable points carried forward, detached sessions'
    /// deposited points, and the live registry snapshot, merged by max.
    /// Serials only grow per guid, so max picks the newest claim each
    /// source can justify (and a session that re-attached mid-checkpoint
    /// — registry point still 0 — keeps the point it deposited when it
    /// detached).
    pub fn session_points(&self, v: u64) -> Vec<SessionCpr> {
        let mut points: HashMap<u64, u64> = self.durable_points.lock().clone();
        for (guid, p) in self
            .detached
            .points_for(v)
            .into_iter()
            .chain(self.registry.cpr_points())
        {
            let e = points.entry(guid).or_insert(0);
            *e = (*e).max(p);
        }
        let mut out: Vec<SessionCpr> = points
            .into_iter()
            .map(|(guid, cpr_point)| SessionCpr { guid, cpr_point })
            .collect();
        out.sort_unstable_by_key(|s| s.guid);
        out
    }

    /// Finish the trace of attempt `v` on the phase tracer.
    pub(crate) fn end_trace(&self, v: u64, committed: bool) {
        if self.metrics_on {
            let out = self.outcome.lock();
            self.metrics.checkpoints.end(
                v,
                committed,
                out.attempts as u64,
                out.proxy_advanced.len() as u64,
                out.evicted.len() as u64,
            );
        }
    }
}

/// Phases in which the commit waits for every session to refresh.
pub(crate) fn gated_by_sessions(phase: Phase) -> bool {
    phase != Phase::Rest && phase < Phase::WaitFlush
}

/// Start the engine's flush worker and, when liveness is configured, its
/// watchdog. Both hold only a `Weak` handle, so dropping the last user
/// handle tears the engine down; `name` prefixes the thread names.
pub fn spawn_workers<E: CommitEngine>(engine: &Arc<E>, name: &str) {
    let core: &CommitCore<E::Request> = engine;
    let (tx, rx) = crossbeam::channel::unbounded::<u64>();
    let weak = Arc::downgrade(engine);
    let flush = std::thread::Builder::new()
        .name(format!("{name}-flush"))
        .spawn(move || {
            for v in rx {
                let Some(e) = weak.upgrade() else { break };
                let sessions = e.flush(v);
                complete(&*e, v, sessions);
            }
        })
        .expect("spawn flush thread");
    *core.flush_tx.lock() = Some(tx);
    let mut workers = core.workers.lock();
    workers.push(flush);
    if let Some(cfg) = core.liveness.clone() {
        let weak: Weak<E> = Arc::downgrade(engine);
        let watchdog = std::thread::Builder::new()
            .name(format!("{name}-watchdog"))
            .spawn(move || crate::watchdog::run(weak, cfg))
            .expect("spawn watchdog thread");
        workers.push(watchdog);
    }
}

/// Request a commit at the current version. Returns `false` if one is
/// already in flight (or the attempt could not begin); otherwise resets
/// the watchdog outcome to a first attempt.
pub fn request<E: CommitEngine>(engine: &Arc<E>, request: E::Request) -> bool {
    if !start(engine, request) {
        return false;
    }
    *engine.outcome.lock() = CommitOutcome {
        attempts: 1,
        ..CommitOutcome::default()
    };
    true
}

/// Leave REST for PREPARE, begin the attempt and arm the first trigger.
/// Shared by [`request`] and the watchdog's backed-off retries.
pub(crate) fn start<E: CommitEngine>(engine: &Arc<E>, request: E::Request) -> bool {
    let core: &CommitCore<E::Request> = engine;
    let v = core.state.version();
    if !core.state.transition((Phase::Rest, v), (Phase::Prepare, v)) {
        return false;
    }
    if engine.begin(v, request).is_err() {
        // Could not even set up the attempt (e.g. the simulated device
        // crashed): back to rest at the same version, counted as failed.
        let ok = core.state.transition((Phase::Prepare, v), (Phase::Rest, v));
        debug_assert!(ok, "prepare rollback must succeed");
        core.checkpoint_failures.fetch_add(1, Ordering::AcqRel);
        return false;
    }
    *core.request.lock() = Some(request);
    if core.metrics_on {
        core.metrics.checkpoints.begin(v, engine.kind(request));
    }
    arm(Arc::clone(engine), Phase::Prepare, v);
    true
}

/// Arm the trigger that moves attempt `v` out of `phase` once every
/// session has refreshed into it and the engine is ready.
fn arm<E: CommitEngine>(engine: Arc<E>, phase: Phase, v: u64) {
    let epoch = Arc::clone(&engine.epoch);
    let cond_engine = Arc::clone(&engine);
    epoch.bump_epoch(
        Some(Box::new(move || {
            let e = &*cond_engine;
            let core: &CommitCore<E::Request> = e;
            let ready = core.registry.all_at_least(phase, v) && e.ready(phase, v);
            if !ready && core.metrics_on {
                if let Some((_, guid)) = core.registry.first_blocker(phase, v) {
                    core.metrics.checkpoints.note_blocker(guid);
                }
            }
            ready
        })),
        Box::new(move || advance(engine, phase, v)),
    );
}

fn advance<E: CommitEngine>(engine: Arc<E>, from: Phase, v: u64) {
    let core: &CommitCore<E::Request> = &engine;
    let to = match from {
        Phase::Prepare => E::PHASES[0],
        _ => {
            let i = E::PHASES.iter().position(|&p| p == from).expect("phase");
            E::PHASES[i + 1]
        }
    };
    // A failed transition means the watchdog timed this attempt out (back
    // at rest at v + 1) before the trigger fired: the stale trigger stands
    // down and the retry starts a fresh walk.
    if !core.state.transition((from, v), (to, v)) {
        return;
    }
    if core.metrics_on {
        core.metrics.checkpoints.mark(v, to.name());
    }
    if to == Phase::WaitFlush {
        if let Some(tx) = core.flush_tx.lock().as_ref() {
            tx.send(v).expect("flush thread alive");
        }
    } else {
        arm(engine, to, v);
    }
}

/// Finish attempt `v` on the flush worker. `sessions` are the committed
/// manifest's points, or `None` if the flush failed.
///
/// Either way the machine returns to REST at `v + 1`. On success the
/// durable points rise, subsumed detached entries are pruned and the
/// observers run — all before `committed_version` is published, so
/// whoever sees the version also sees their effects. The trace ends
/// first, so a commit requested right after REST cannot find it open.
fn complete<E: CommitEngine>(engine: &E, v: u64, sessions: Option<Vec<SessionCpr>>) {
    let core: &CommitCore<E::Request> = engine;
    if sessions.is_none() {
        core.checkpoint_failures.fetch_add(1, Ordering::AcqRel);
    }
    core.end_trace(v, sessions.is_some());
    let ok = core
        .state
        .transition((Phase::WaitFlush, v), (Phase::Rest, v + 1));
    debug_assert!(ok, "state machine out of sync at commit completion");
    if let Some(sessions) = sessions {
        {
            let mut durable = core.durable_points.lock();
            for s in &sessions {
                let e = durable.entry(s.guid).or_insert(0);
                *e = (*e).max(s.cpr_point);
            }
        }
        core.detached.prune_committed(v);
        for cb in core.observers.lock().iter() {
            cb(v, &sessions);
        }
        core.committed_version.store(v, Ordering::Release);
    }
    let _g = core.commit_lock.lock();
    core.commit_cv.notify_all();
}

impl<R> Drop for CommitCore<R> {
    fn drop(&mut self) {
        // Close the flush channel, then join the workers.
        self.flush_tx.lock().take();
        for h in self.workers.lock().drain(..) {
            // The final Arc may be dropped *by a worker itself* (each
            // upgrades its Weak per job); never join our own thread.
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }
}
