//! The session side of the CPR protocol, shared by both engines (paper
//! Alg. 1 for the database, Secs. 5.2 and 6 for FASTER).
//!
//! A client thread keeps a local (phase, version) view of the global
//! state machine and updates it only at epoch refresh. When the view
//! moves past a version's prepare → in-progress boundary the session
//! marks its CPR point there, and it learns that the point is durable
//! once the committed version reaches that version. [`SessionCore`] is
//! that protocol: the epoch guard, the registry slot, the local view,
//! serials, pending CPR points, the lease clock and the eviction flag.
//! Each engine's session embeds one and keeps only what differs — the
//! executor and its statistics, and FASTER's pending operations.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use cpr_epoch::Guard;

use crate::liveness::{BusyState, Clock, SessionStatus};
use crate::{CommitCore, Phase, SessionId, SessionInfo};

/// Version of the newest CPR point at or before `view`: a session at
/// `(phase, v)` has crossed the point of `v` iff `phase ≥ InProgress`,
/// and the points of every earlier version.
#[inline]
fn last_point((phase, version): (Phase, u64)) -> u64 {
    if phase >= Phase::InProgress {
        version
    } else {
        version.saturating_sub(1)
    }
}

/// The CPR-point crossing rule: the version whose point a session
/// crosses when its view moves from `from` to `to`, if any.
///
/// A move crosses a point when `to` lies past a prepare → in-progress
/// boundary that `from` had not reached. It is keyed to the newest such
/// boundary, so a view left behind by a watchdog proxy-advance — say
/// (wait-flush, v − 1) when the global state is already (in-progress, v)
/// or (rest, v + 1) — still marks the point of `v`: every operation the
/// session ran since its last point belongs to `v` or earlier.
#[inline]
pub fn crossed_cpr_point(from: (Phase, u64), to: (Phase, u64)) -> Option<u64> {
    let point = last_point(to);
    (last_point(from) < point).then_some(point)
}

/// Whether a session still owns its slot in the middle of an operation
/// (see [`SessionCore::reclaim`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ownership {
    /// Still active: the operation may apply its writes.
    Held,
    /// The watchdog had suspended the session and has let go of it. Its
    /// view may be stale, so the caller must refresh before going on.
    Reactivated,
    /// The watchdog evicted the session.
    Evicted,
}

/// One client session's share of the CPR protocol; see the module docs.
///
/// Methods that touch shared state take the engine's [`CommitCore`]: an
/// engine session passes its handle to the engine, which dereferences to
/// the core.
pub struct SessionCore {
    guard: Guard,
    slot: usize,
    guid: SessionId,
    /// Thread-local view of the global state machine.
    phase: Phase,
    version: u64,
    /// Serial of the most recently accepted operation.
    serial: u64,
    ops_since_refresh: u64,
    refresh_every: u64,
    /// CPR points awaiting durability: (version, serial at the point).
    pending_points: VecDeque<(u64, u64)>,
    durable_serial: u64,
    /// Lease clock, present iff the engine runs a liveness watchdog.
    clock: Option<Arc<dyn Clock>>,
    /// Cached "this session has been evicted" flag (set once, sticky).
    evicted: bool,
}

impl SessionCore {
    /// Attach session `guid`, resuming after `start_serial`, with a
    /// refresh every `refresh_every` operations.
    pub fn attach<R>(
        core: &CommitCore<R>,
        guid: SessionId,
        start_serial: u64,
        refresh_every: u64,
    ) -> Self {
        let (phase, version) = core.state.load();
        let slot = core.registry.acquire(guid, phase, version);
        // Publish the resumed serial immediately: a checkpoint racing this
        // attach must see the session's true position, not a fresh 0.
        core.registry.set_serial(slot, start_serial);
        let mut guard = core.epoch.register();
        let clock = core.liveness.as_ref().map(|l| Arc::clone(&l.clock));
        if let Some(c) = &clock {
            // Publish the epoch slot so the watchdog can reclaim it, stamp
            // the lease, and arm the thread-exit sentinel so a dying
            // client thread frees its epoch slot.
            core.registry.set_epoch_slot(slot, guard.slot());
            core.registry.heartbeat(slot, c.now());
            guard.arm_exit_sentinel();
        }
        SessionCore {
            guard,
            slot,
            guid,
            phase,
            version,
            serial: start_serial,
            ops_since_refresh: 0,
            refresh_every,
            pending_points: VecDeque::new(),
            durable_serial: start_serial,
            clock,
            evicted: false,
        }
    }

    #[inline]
    pub fn guid(&self) -> SessionId {
        self.guid
    }

    /// Serial of the most recently accepted operation.
    #[inline]
    pub fn serial(&self) -> u64 {
        self.serial
    }

    /// The session's registry slot.
    #[inline]
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The session's epoch guard.
    #[inline]
    pub fn guard(&self) -> &Guard {
        &self.guard
    }

    /// The local view's phase.
    #[inline]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The local view's version.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The version an operation accepted now belongs to: `v + 1` once the
    /// session has crossed the CPR point of `v`, else `v`.
    #[inline]
    pub fn txn_version(&self) -> u64 {
        last_point((self.phase, self.version)) + 1
    }

    /// Whether the engine runs a liveness watchdog.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.clock.is_some()
    }

    /// The sticky eviction flag, as last observed by this session.
    #[inline]
    pub fn evicted(&self) -> bool {
        self.evicted
    }

    /// Record an eviction the engine observed on its own (e.g. a pending
    /// operation the watchdog cancelled).
    pub fn mark_evicted(&mut self) {
        self.evicted = true;
    }

    /// True once the watchdog has evicted this session.
    pub fn is_evicted<R>(&self, core: &CommitCore<R>) -> bool {
        self.evicted
            || (self.is_live() && core.registry.status(self.slot) == SessionStatus::Evicted)
    }

    /// Snapshot of the session's identity and local view.
    pub fn info(&self) -> SessionInfo {
        SessionInfo {
            guid: self.guid,
            serial: self.serial,
            phase: self.phase,
            version: self.version.into(),
        }
    }

    /// Count one operation; true when a refresh is due.
    #[inline]
    pub fn refresh_due(&mut self) -> bool {
        self.ops_since_refresh += 1;
        self.ops_since_refresh >= self.refresh_every
    }

    /// Accept one operation: bump the local serial and return it. The
    /// registry learns it at [`SessionCore::publish_serial`].
    #[inline]
    pub fn bump_serial(&mut self) -> u64 {
        self.serial += 1;
        self.serial
    }

    /// Publish the local serial to the registry.
    #[inline]
    pub fn publish_serial<R>(&self, core: &CommitCore<R>) {
        core.registry.set_serial(self.slot, self.serial);
    }

    /// Publish the local epoch, renew the lease, and adopt any global
    /// state change, marking a CPR point when the move crosses one
    /// ([`crossed_cpr_point`]). Returns whether the view changed; an
    /// evicted session ([`SessionCore::evicted`]) keeps its view.
    ///
    /// `on_change(phase, version)` runs before anything of the new state
    /// is marked or published — FASTER protects its pending operations
    /// there on entering prepare (paper Sec. 6.2.1).
    pub fn refresh<R>(
        &mut self,
        core: &CommitCore<R>,
        mut on_change: impl FnMut(Phase, u64),
    ) -> bool {
        self.guard.refresh();
        self.ops_since_refresh = 0;
        if let Some(c) = &self.clock {
            // Lease renewal: one relaxed store (plus one relaxed probe of
            // the sticky eviction flag) — the whole hot-path liveness cost.
            core.registry.heartbeat(self.slot, c.now());
            if self.evicted || core.registry.is_evicted(self.slot) {
                self.evicted = true;
                return false;
            }
        }
        let (gp, gv) = core.state.load();
        if (gp, gv) == (self.phase, self.version) {
            return false;
        }
        on_change(gp, gv);
        if let Some(v) = crossed_cpr_point((self.phase, self.version), (gp, gv)) {
            let point = core.registry.mark_cpr_point(self.slot);
            self.pending_points.push_back((v, point));
        }
        self.phase = gp;
        self.version = gv;
        core.registry.publish(self.slot, gp, gv);
        true
    }

    /// Largest serial known durable: every operation with serial ≤ this
    /// survives a crash (the session's committed CPR prefix).
    pub fn durable_serial<R>(&mut self, core: &CommitCore<R>) -> u64 {
        let cv = core.committed_version.load(Ordering::Acquire);
        while let Some(&(v, s)) = self.pending_points.front() {
            if v > cv {
                break;
            }
            self.durable_serial = self.durable_serial.max(s);
            self.pending_points.pop_front();
        }
        self.durable_serial
    }

    /// Declare everything up to the current serial durable by other
    /// means (memdb's explicit WAL sync).
    pub fn note_synced(&mut self) {
        self.durable_serial = self.serial;
    }

    /// Enter an operation. Without a watchdog this is one branch.
    ///
    /// Dekker-style entry against the watchdog: publish `busy = InTxn`
    /// (SeqCst), then load the status (SeqCst). If the status read
    /// observes `Active`, the watchdog's suspend CAS had not happened
    /// before that read in the SeqCst total order, so no eviction (which
    /// needs a *prior* successful suspend plus a later scan) can be in
    /// flight — accepting the operation is safe. A suspended session
    /// waits out any in-flight proxy publish, refreshes to at least the
    /// state published on its behalf (`on_change` as in
    /// [`SessionCore::refresh`]), and tries again. Returns `false` once
    /// evicted.
    #[inline]
    pub fn begin_op<R>(&mut self, core: &CommitCore<R>, on_change: impl FnMut(Phase, u64)) -> bool {
        if self.clock.is_none() {
            return true;
        }
        self.begin_live_op(core, on_change)
    }

    fn begin_live_op<R>(
        &mut self,
        core: &CommitCore<R>,
        mut on_change: impl FnMut(Phase, u64),
    ) -> bool {
        loop {
            if self.evicted {
                return false;
            }
            core.registry.set_busy(self.slot, BusyState::InTxn);
            if core.registry.status(self.slot) == SessionStatus::Active {
                return true;
            }
            // The watchdog intervened while we were idle: step back out,
            // wait for the hand-off to finish, refresh to at least
            // whatever it published for us, and try again.
            core.registry.set_busy(self.slot, BusyState::Idle);
            if self.await_reactivate(core) {
                self.refresh(core, &mut on_change);
            }
        }
    }

    /// Publish a busy-state change iff the watchdog is running.
    /// `Locking` marks windows where the session acquires or holds locks
    /// or latches: the watchdog must never evict a session there — its
    /// only remedy is a checkpoint abort.
    #[inline]
    pub fn set_busy<R>(&self, core: &CommitCore<R>, b: BusyState) {
        if self.clock.is_some() {
            core.registry.set_busy(self.slot, b);
        }
    }

    /// Re-check ownership in the middle of an operation, before applying
    /// writes. A session the watchdog suspended meanwhile waits out any
    /// proxy publish and reactivates; an evicted one sets its flag.
    pub fn reclaim<R>(&mut self, core: &CommitCore<R>) -> Ownership {
        if self.clock.is_none() || core.registry.status(self.slot) == SessionStatus::Active {
            Ownership::Held
        } else if self.await_reactivate(core) {
            Ownership::Reactivated
        } else {
            Ownership::Evicted
        }
    }

    fn await_reactivate<R>(&mut self, core: &CommitCore<R>) -> bool {
        let active = core.registry.await_reactivate(self.slot);
        self.evicted |= !active;
        active
    }

    /// Detach: deposit the session's commit points with the engine's
    /// detached sessions, then free the registry slot. Call once, from
    /// the engine session's `Drop`; the epoch guard drops afterwards.
    pub fn detach<R>(&mut self, core: &CommitCore<R>) {
        // Once released the registry forgets the guid, but a later
        // checkpoint (or a reconnecting client) still needs its points.
        if self.evicted || core.registry.is_evicted(self.slot) {
            // Eviction cancelled everything after the rolled-back point;
            // the pre-eviction serial must never be reported.
            let point = core.registry.cpr_point(self.slot);
            core.detached.record_evicted(self.guid, self.version, point);
        } else {
            let points: Vec<(u64, u64)> = self.pending_points.drain(..).collect();
            core.detached
                .record(self.guid, points, (self.txn_version(), self.serial));
        }
        core.registry.release(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_metrics::Registry;

    #[test]
    fn crossing_rule() {
        use Phase::*;
        // The ordinary prepare → in-progress step marks the point of v.
        assert_eq!(crossed_cpr_point((Prepare, 3), (InProgress, 3)), Some(3));
        assert_eq!(crossed_cpr_point((Rest, 3), (WaitFlush, 3)), Some(3));
        // Sleeping through a whole commit still crosses its point.
        assert_eq!(crossed_cpr_point((Prepare, 3), (Rest, 4)), Some(3));
        // Views left behind by a proxy-advance cross the newer point.
        assert_eq!(crossed_cpr_point((WaitFlush, 2), (InProgress, 3)), Some(3));
        assert_eq!(crossed_cpr_point((InProgress, 2), (Rest, 4)), Some(3));
        assert_eq!(crossed_cpr_point((WaitFlush, 2), (Prepare, 4)), Some(3));
        // No boundary between the two views.
        assert_eq!(crossed_cpr_point((Rest, 3), (Prepare, 3)), None);
        assert_eq!(crossed_cpr_point((InProgress, 3), (WaitFlush, 3)), None);
        assert_eq!(crossed_cpr_point((WaitFlush, 3), (Rest, 4)), None);
        assert_eq!(crossed_cpr_point((WaitFlush, 3), (Prepare, 4)), None);
        assert_eq!(crossed_cpr_point((Rest, 1), (Rest, 1)), None);
    }

    #[test]
    fn txn_version_follows_the_crossing() {
        let core = CommitCore::<()>::new(1, 2, None, Registry::noop());
        let mut s = SessionCore::attach(&core, 5, 0, 64);
        assert_eq!(s.txn_version(), 1);
        core.state.store(Phase::Prepare, 1);
        assert!(s.refresh(&core, |_, _| {}));
        assert_eq!(s.txn_version(), 1);
        core.state.store(Phase::InProgress, 1);
        s.refresh(&core, |_, _| {});
        assert_eq!(s.txn_version(), 2);
        s.detach(&core);
    }

    #[test]
    fn refresh_marks_points_that_become_durable() {
        let core = CommitCore::<()>::new(1, 2, None, Registry::noop());
        let mut s = SessionCore::attach(&core, 9, 10, 2);
        assert!(!s.refresh_due());
        assert!(s.refresh_due());
        s.bump_serial();
        s.bump_serial();
        s.publish_serial(&core);
        assert_eq!(core.registry.serial(s.slot()), 12);

        let mut seen = Vec::new();
        core.state.store(Phase::Prepare, 1);
        s.refresh(&core, |p, v| seen.push((p, v)));
        assert!(!s.refresh(&core, |p, v| seen.push((p, v))));
        core.state.store(Phase::InProgress, 1);
        s.refresh(&core, |p, v| seen.push((p, v)));
        assert_eq!(seen, vec![(Phase::Prepare, 1), (Phase::InProgress, 1)]);
        assert_eq!(core.registry.view(s.slot()), (Phase::InProgress, 1));
        assert_eq!(core.registry.cpr_point(s.slot()), 12);

        s.bump_serial();
        assert_eq!(s.durable_serial(&core), 10, "version 1 not committed yet");
        core.committed_version.store(1, Ordering::Release);
        assert_eq!(s.durable_serial(&core), 12);
        s.note_synced();
        assert_eq!(s.durable_serial(&core), 13);
        s.detach(&core);
        assert_eq!(core.registry.active(), 0);
        assert_eq!(core.detached.last_serial(9), Some(13));
    }
}
