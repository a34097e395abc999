//! The shared commit driver and watchdog, driven through a minimal
//! engine: phase walk, readiness gate, failure paths, observer ordering,
//! and the three straggler remedies (proxy-advance, evict with CPR-point
//! rollback, abort with backoff and retry of the same request).

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpr_core::commit::{self, CommitCore, CommitEngine};
use cpr_core::liveness::{BusyState, LivenessConfig, VirtualClock};
use cpr_core::{Phase, SessionCpr};
use cpr_metrics::Registry;
use parking_lot::Mutex;

/// Request value whose `begin` fails.
const FAILING_BEGIN: u8 = 0xFF;

struct TestEngine {
    core: CommitCore<u8>,
    begun: Mutex<Vec<u8>>,
    /// Attempts timed out before wait-flush (`release` calls).
    released: Mutex<Vec<u64>>,
    fail_flush: AtomicBool,
    /// Version-`v` operations still pending (gates WAIT-PENDING).
    pending: AtomicBool,
    /// Serials of the pending operations `cancel_pendings` cancels.
    cancellable: Mutex<Vec<u64>>,
}

impl std::ops::Deref for TestEngine {
    type Target = CommitCore<u8>;
    fn deref(&self) -> &CommitCore<u8> {
        &self.core
    }
}

impl CommitEngine for TestEngine {
    type Request = u8;
    const PHASES: &'static [Phase] = &[Phase::InProgress, Phase::WaitPending, Phase::WaitFlush];

    fn kind(&self, _: u8) -> &'static str {
        "test"
    }

    fn begin(&self, _v: u64, request: u8) -> io::Result<()> {
        if request == FAILING_BEGIN {
            return Err(io::Error::other("begin failed"));
        }
        self.begun.lock().push(request);
        Ok(())
    }

    fn flush(&self, v: u64) -> Option<Vec<SessionCpr>> {
        (!self.fail_flush.load(Ordering::Acquire)).then(|| self.core.session_points(v))
    }

    fn release(&self, v: u64) {
        self.released.lock().push(v);
    }

    fn ready(&self, phase: Phase, _v: u64) -> bool {
        phase != Phase::WaitPending || !self.pending.load(Ordering::Acquire)
    }

    fn has_pendings(&self, _idx: usize) -> bool {
        !self.cancellable.lock().is_empty()
    }

    fn cancel_pendings(&self, _idx: usize) -> Vec<u64> {
        std::mem::take(&mut *self.cancellable.lock())
    }
}

fn engine(liveness: Option<LivenessConfig>) -> Arc<TestEngine> {
    let engine = Arc::new(TestEngine {
        core: CommitCore::new(1, 8, liveness, Registry::new()),
        begun: Mutex::new(Vec::new()),
        released: Mutex::new(Vec::new()),
        fail_flush: AtomicBool::new(false),
        pending: AtomicBool::new(false),
        cancellable: Mutex::new(Vec::new()),
    });
    commit::spawn_workers(&engine, "cpr-test");
    engine
}

/// Poll `cond` (nudging the epoch drain list) until it holds or 10 s pass.
fn eventually(engine: &TestEngine, cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        engine.core.epoch.try_drain();
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

#[test]
fn commit_walks_every_phase_and_runs_observers_before_publishing() {
    let e = engine(None);
    let seen = Arc::new(AtomicU64::new(0));
    let observer_seen = Arc::clone(&seen);
    e.core.on_commit(Box::new(move |v, _| {
        std::thread::sleep(Duration::from_millis(20));
        observer_seen.store(v, Ordering::SeqCst);
    }));
    assert!(commit::request(&e, 7));
    assert!(!commit::request(&e, 7), "one commit at a time");
    assert!(e.core.wait_for_version(1.into(), Duration::from_secs(10)));
    assert_eq!(
        seen.load(Ordering::SeqCst),
        1,
        "observer ran before publish"
    );
    assert_eq!(e.core.state.load(), (Phase::Rest, 2));
    assert_eq!(*e.begun.lock(), [7]);

    let timeline = e.core.metrics.snapshot().checkpoints.pop().unwrap();
    assert!(timeline.committed);
    let phases: Vec<&str> = timeline.phases.iter().map(|p| p.phase.as_str()).collect();
    assert_eq!(
        phases,
        ["prepare", "in-progress", "wait-pending", "wait-flush"]
    );
}

#[test]
fn ready_predicate_gates_wait_pending() {
    let e = engine(None);
    e.pending.store(true, Ordering::Release);
    assert!(commit::request(&e, 1));
    assert!(eventually(&e, || e.core.state.load() == (Phase::WaitPending, 1)));
    for _ in 0..20 {
        e.core.epoch.try_drain();
    }
    assert_eq!(e.core.state.load(), (Phase::WaitPending, 1));
    e.pending.store(false, Ordering::Release);
    assert!(e.core.wait_for_version(1.into(), Duration::from_secs(10)));
}

#[test]
fn failed_flush_returns_to_rest_without_publishing() {
    let e = engine(None);
    e.fail_flush.store(true, Ordering::Release);
    assert!(commit::request(&e, 1));
    assert!(eventually(&e, || e.core.state.load() == (Phase::Rest, 2)));
    assert_eq!(e.core.committed_version(), 0);
    assert_eq!(e.core.checkpoint_failures.load(Ordering::Acquire), 1);
    let timeline = e.core.metrics.snapshot().checkpoints.pop().unwrap();
    assert!(!timeline.committed);

    e.fail_flush.store(false, Ordering::Release);
    assert!(commit::request(&e, 1));
    assert!(e.core.wait_for_version(2.into(), Duration::from_secs(10)));
}

#[test]
fn failed_begin_rolls_back_to_rest() {
    let e = engine(None);
    assert!(!commit::request(&e, FAILING_BEGIN));
    assert_eq!(e.core.state.load(), (Phase::Rest, 1));
    assert_eq!(e.core.checkpoint_failures.load(Ordering::Acquire), 1);
    assert!(e.core.metrics.snapshot().checkpoints.is_empty());
}

/// A registered session that never refreshes, with its epoch pinned.
fn parked_session(e: &TestEngine, guid: u64, busy: BusyState, serial: u64) -> (usize, impl Drop) {
    let (phase, v) = e.core.state.load();
    let idx = e.core.registry.acquire(guid, phase, v);
    let guard = e.core.epoch.register();
    e.core.registry.set_epoch_slot(idx, guard.slot());
    e.core.registry.heartbeat(idx, 0);
    e.core.registry.set_serial(idx, serial);
    e.core.registry.set_busy(idx, busy);
    (idx, guard)
}

fn liveness(clock: &Arc<VirtualClock>) -> LivenessConfig {
    LivenessConfig::with_clock(Arc::clone(clock) as _)
        .grace_ticks(10)
        .poll_interval(Duration::from_millis(1))
        .max_attempts(2)
        .backoff_base_ticks(1)
        .backoff_jitter_ticks(0)
}

#[test]
fn watchdog_proxy_advances_an_idle_straggler() {
    let clock = Arc::new(VirtualClock::new());
    let e = engine(Some(liveness(&clock)));
    let (idx, _guard) = parked_session(&e, 42, BusyState::Idle, 5);
    assert!(commit::request(&e, 1));
    clock.advance(100);
    assert!(e.core.wait_for_version(1.into(), Duration::from_secs(10)));
    let out = e.core.outcome.lock().clone();
    assert_eq!(out.proxy_advanced, [42]);
    assert!(out.evicted.is_empty());
    assert_eq!(
        e.core.registry.cpr_point(idx),
        5,
        "point marked on its behalf"
    );
    assert_eq!(e.core.durable_point(42), 5);
}

#[test]
fn watchdog_evicts_and_rolls_the_point_below_cancelled_ops() {
    let clock = Arc::new(VirtualClock::new());
    let e = engine(Some(liveness(&clock)));
    *e.cancellable.lock() = vec![9, 8, 12];
    let (idx, _guard) = parked_session(&e, 42, BusyState::InTxn, 10);
    assert!(commit::request(&e, 1));
    clock.advance(100);
    assert!(e.core.wait_for_version(1.into(), Duration::from_secs(10)));
    assert_eq!(e.core.outcome.lock().evicted, [42]);
    assert_eq!(
        e.core.registry.cpr_point(idx),
        7,
        "below the earliest cancelled serial the claim covered"
    );
}

#[test]
fn watchdog_aborts_a_locking_straggler_and_retries_the_same_request() {
    let clock = Arc::new(VirtualClock::new());
    let e = engine(Some(liveness(&clock)));
    let _parked = parked_session(&e, 42, BusyState::Locking, 3);
    assert!(commit::request(&e, 9));
    clock.advance(100);
    assert!(eventually(&e, || e.core.outcome.lock().aborted == 1));
    assert_eq!(e.core.state.load(), (Phase::Rest, 2));
    clock.advance(100); // past the backoff: the retry starts
    assert!(eventually(&e, || e.core.outcome.lock().gave_up));
    let out = e.core.outcome.lock().clone();
    assert_eq!((out.attempts, out.aborted), (2, 2));
    assert_eq!(*e.begun.lock(), [9, 9], "the retry repeats the request");
    assert_eq!(*e.released.lock(), [1, 2]);
    assert_eq!(e.core.committed_version(), 0);
    assert_eq!(e.core.stragglers(), [42]);
    let timelines = e.core.metrics.snapshot().checkpoints;
    assert_eq!(timelines.len(), 2);
    assert!(timelines.iter().all(|t| !t.committed));
}
