//! Per-session published state.
//!
//! Every client session owns a slot here. The slot publishes the session's
//! thread-local view of the commit state machine — (phase, version) — plus
//! its session-local *serial number* (a strictly increasing count of
//! accepted operations) and the serial at its last CPR point.
//!
//! Trigger-action conditions ("all sessions have entered phase ≥ P at
//! version v") scan the registry; a scan is O(#slots) and happens only
//! while a commit is in flight, never on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

use crate::liveness::{BusyState, SessionStatus};
use crate::Phase;

/// Session identifier — the paper's session `Guid`.
pub type SessionId = u64;

/// A session's unified public view, shared by both engines (replaces the
/// ad-hoc `view() -> (Phase, u64)` tuples).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionInfo {
    /// The session's stable identifier (paper: `Guid`).
    pub guid: SessionId,
    /// Serial number of the most recently accepted operation.
    pub serial: u64,
    /// The session's thread-local view of the commit state machine.
    pub phase: Phase,
    /// The CPR version the session is operating at.
    pub version: crate::CheckpointVersion,
}

const VERSION_BITS: u32 = 48;
const VERSION_MASK: u64 = (1 << VERSION_BITS) - 1;

#[inline]
fn pack(phase: Phase, version: u64) -> u64 {
    ((phase as u64) << VERSION_BITS) | (version & VERSION_MASK)
}

#[inline]
fn unpack(word: u64) -> (Phase, u64) {
    (
        Phase::from_u8((word >> VERSION_BITS) as u8),
        word & VERSION_MASK,
    )
}

/// One session's published state. All fields are written only by the owning
/// session thread; read by whichever thread evaluates trigger conditions.
#[derive(Debug)]
pub struct SessionSlot {
    /// 0 = free; otherwise `guid + 1` (so guid 0 is usable).
    owner: AtomicU64,
    /// Packed (phase, version): the session's thread-local state-machine view.
    state: AtomicU64,
    /// Serial number of the most recently accepted operation.
    serial: AtomicU64,
    /// Serial number at the session's last CPR point.
    cpr_point: AtomicU64,
    /// Lease heartbeat: clock tick of the session's last refresh. Written
    /// with a single relaxed store — the only liveness cost on the hot
    /// path.
    heartbeat: AtomicU64,
    /// [`SessionStatus`] word; transitions are CASes so the owner thread
    /// and the watchdog arbitrate hand-offs race-free.
    status: AtomicU64,
    /// [`BusyState`] word; SeqCst stores pair with SeqCst status loads
    /// (Dekker) so the watchdog never proxy-advances a session that has
    /// already entered an operation.
    busy: AtomicU64,
    /// Epoch-table slot of the owning thread (`idx + 1`; 0 = unknown) so
    /// the watchdog can release a straggler's pinned epoch.
    epoch_slot: AtomicU64,
}

impl SessionSlot {
    fn free() -> Self {
        SessionSlot {
            owner: AtomicU64::new(0),
            state: AtomicU64::new(pack(Phase::Rest, 1)),
            serial: AtomicU64::new(0),
            cpr_point: AtomicU64::new(0),
            heartbeat: AtomicU64::new(0),
            status: AtomicU64::new(SessionStatus::Active as u64),
            busy: AtomicU64::new(BusyState::Idle as u64),
            epoch_slot: AtomicU64::new(0),
        }
    }
}

/// Registry of active sessions, sized at construction.
#[derive(Debug)]
pub struct SessionRegistry {
    slots: Box<[CachePadded<SessionSlot>]>,
}

impl SessionRegistry {
    pub fn new(max_sessions: usize) -> Self {
        assert!(max_sessions > 0);
        let slots = (0..max_sessions)
            .map(|_| CachePadded::new(SessionSlot::free()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SessionRegistry { slots }
    }

    /// Claim a slot for `guid`, initializing its view to (phase, version).
    /// Returns the slot index.
    ///
    /// # Panics
    /// Panics if all slots are taken.
    pub fn acquire(&self, guid: SessionId, phase: Phase, version: u64) -> usize {
        for (i, slot) in self.slots.iter().enumerate() {
            if slot
                .owner
                .compare_exchange(0, guid + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                slot.state.store(pack(phase, version), Ordering::Release);
                slot.serial.store(0, Ordering::Release);
                slot.cpr_point.store(0, Ordering::Release);
                slot.heartbeat.store(0, Ordering::Release);
                slot.status
                    .store(SessionStatus::Active as u64, Ordering::SeqCst);
                slot.busy.store(BusyState::Idle as u64, Ordering::SeqCst);
                slot.epoch_slot.store(0, Ordering::Release);
                return i;
            }
        }
        panic!("session registry exhausted: {} slots", self.slots.len());
    }

    /// Release a slot.
    pub fn release(&self, idx: usize) {
        self.slots[idx].owner.store(0, Ordering::Release);
    }

    /// Publish the session's state-machine view.
    #[inline]
    pub fn publish(&self, idx: usize, phase: Phase, version: u64) {
        self.slots[idx]
            .state
            .store(pack(phase, version), Ordering::Release);
    }

    /// The session's published (phase, version).
    #[inline]
    pub fn view(&self, idx: usize) -> (Phase, u64) {
        unpack(self.slots[idx].state.load(Ordering::Acquire))
    }

    /// Record that the session accepted an operation with `serial`.
    #[inline]
    pub fn set_serial(&self, idx: usize, serial: u64) {
        self.slots[idx].serial.store(serial, Ordering::Release);
    }

    #[inline]
    pub fn serial(&self, idx: usize) -> u64 {
        self.slots[idx].serial.load(Ordering::Acquire)
    }

    /// Mark the session's CPR point at its current serial number and return
    /// it. Called exactly when the session's view crosses a CPR point
    /// ([`crate::crossed_cpr_point`]).
    pub fn mark_cpr_point(&self, idx: usize) -> u64 {
        let s = self.serial(idx);
        self.slots[idx].cpr_point.store(s, Ordering::Release);
        s
    }

    #[inline]
    pub fn cpr_point(&self, idx: usize) -> u64 {
        self.slots[idx].cpr_point.load(Ordering::Acquire)
    }

    /// Overwrite a session's CPR point directly. Used by the watchdog when
    /// evicting a session with cancelled pending operations: the point
    /// rolls back below the earliest cancelled serial so the manifest
    /// never claims an operation that was not applied.
    pub fn set_cpr_point(&self, idx: usize, serial: u64) {
        self.slots[idx].cpr_point.store(serial, Ordering::Release);
    }

    // ---- lease / liveness ---------------------------------------------------

    /// Renew the session's lease: one relaxed store, the entire hot-path
    /// cost of liveness tracking.
    #[inline]
    pub fn heartbeat(&self, idx: usize, now: u64) {
        self.slots[idx].heartbeat.store(now, Ordering::Relaxed);
    }

    #[inline]
    pub fn last_heartbeat(&self, idx: usize) -> u64 {
        self.slots[idx].heartbeat.load(Ordering::Relaxed)
    }

    /// Publish what the owning thread is doing (SeqCst: pairs with the
    /// watchdog's status CASes — Dekker-style mutual visibility).
    #[inline]
    pub fn set_busy(&self, idx: usize, b: BusyState) {
        self.slots[idx].busy.store(b as u64, Ordering::SeqCst);
    }

    #[inline]
    pub fn busy(&self, idx: usize) -> BusyState {
        BusyState::from_u64(self.slots[idx].busy.load(Ordering::SeqCst))
    }

    #[inline]
    pub fn status(&self, idx: usize) -> SessionStatus {
        SessionStatus::from_u64(self.slots[idx].status.load(Ordering::SeqCst))
    }

    /// Watchdog: Active → Suspended. Acting (proxy-advance / evict) waits
    /// for the *next* scan, closing the window where the owner entered an
    /// operation concurrently with the suspension.
    pub fn try_suspend(&self, idx: usize) -> bool {
        self.slots[idx]
            .status
            .compare_exchange(
                SessionStatus::Active as u64,
                SessionStatus::Suspended as u64,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// Watchdog: Suspended → Evicted. Only a suspended session can be
    /// evicted (two-scan rule).
    pub fn try_evict(&self, idx: usize) -> bool {
        self.slots[idx]
            .status
            .compare_exchange(
                SessionStatus::Suspended as u64,
                SessionStatus::Evicted as u64,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// Owner thread: Suspended → Active, after refreshing its view (so a
    /// watchdog proxy-publish can never be overwritten by stale state).
    /// Fails if the watchdog evicted the session in the meantime.
    pub fn try_reactivate(&self, idx: usize) -> bool {
        self.slots[idx]
            .status
            .compare_exchange(
                SessionStatus::Suspended as u64,
                SessionStatus::Active as u64,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// Owner thread: wait out any in-flight proxy publish, then
    /// reactivate. Returns `false` iff the session was evicted. The
    /// *caller* must refresh its view to at least the global state before
    /// resuming operations (a proxy publish may have advanced it).
    pub fn await_reactivate(&self, idx: usize) -> bool {
        loop {
            match self.status(idx) {
                SessionStatus::Active => return true,
                SessionStatus::Evicted => return false,
                SessionStatus::Suspended => {
                    if self.try_reactivate(idx) {
                        return true;
                    }
                }
                SessionStatus::Proxying => {
                    // The watchdog's publish window is a few stores long.
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Watchdog: Suspended → Proxying. While held, the owner cannot
    /// reactivate, so [`SessionRegistry::proxy_advance`] cannot race an
    /// owner resuming with a stale view. Must be paired with
    /// [`SessionRegistry::end_proxy`].
    pub fn try_begin_proxy(&self, idx: usize) -> bool {
        self.slots[idx]
            .status
            .compare_exchange(
                SessionStatus::Suspended as u64,
                SessionStatus::Proxying as u64,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// Watchdog: Proxying → Suspended (publish finished).
    pub fn end_proxy(&self, idx: usize) {
        let _ = self.slots[idx].status.compare_exchange(
            SessionStatus::Proxying as u64,
            SessionStatus::Suspended as u64,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// Relaxed eviction probe for hot paths: eviction is sticky, so a
    /// stale read only delays detection by one refresh.
    #[inline]
    pub fn is_evicted(&self, idx: usize) -> bool {
        self.slots[idx].status.load(Ordering::Relaxed) == SessionStatus::Evicted as u64
    }

    /// Record the owning thread's epoch-table slot for stale-epoch
    /// reclamation.
    pub fn set_epoch_slot(&self, idx: usize, epoch_slot: usize) {
        self.slots[idx]
            .epoch_slot
            .store(epoch_slot as u64 + 1, Ordering::Release);
    }

    pub fn epoch_slot(&self, idx: usize) -> Option<usize> {
        match self.slots[idx].epoch_slot.load(Ordering::Acquire) {
            0 => None,
            s => Some((s - 1) as usize),
        }
    }

    /// Watchdog: publish `(phase, version)` on behalf of a *suspended*
    /// session, optionally marking its CPR point at its last accepted
    /// serial (when the publish crosses a CPR point). Returns the CPR point
    /// marked, if any. The caller must hold the Suspended (or Evicted)
    /// status — the owner cannot race this publish because it reactivates
    /// only after refreshing to at least this state.
    pub fn proxy_advance(
        &self,
        idx: usize,
        phase: Phase,
        version: u64,
        mark_point: bool,
    ) -> Option<u64> {
        debug_assert_ne!(self.status(idx), SessionStatus::Active);
        let point = mark_point.then(|| self.mark_cpr_point(idx));
        self.publish(idx, phase, version);
        point
    }

    /// Occupied, non-evicted slots that have **not** reached
    /// `(phase, version)`, as `(slot, guid)` — the sessions holding the
    /// commit back. A view reaches it with a strictly larger version, or
    /// the same version and a phase at least `phase`. Evicted sessions
    /// are skipped: their dead thread will never refresh, and their
    /// committed prefix is already fixed at their (rolled-back) CPR point.
    fn holding_back(
        &self,
        phase: Phase,
        version: u64,
    ) -> impl Iterator<Item = (usize, SessionId)> + '_ {
        self.slots.iter().enumerate().filter_map(move |(i, s)| {
            let owner = s.owner.load(Ordering::Acquire);
            if owner == 0
                || SessionStatus::from_u64(s.status.load(Ordering::SeqCst))
                    == SessionStatus::Evicted
            {
                return None;
            }
            let (p, v) = unpack(s.state.load(Ordering::Acquire));
            ((v, p) < (version, phase)).then_some((i, owner - 1))
        })
    }

    /// Every session holding `(phase, version)` back (see
    /// [`SessionRegistry::all_at_least`]).
    pub fn blockers(&self, phase: Phase, version: u64) -> Vec<(usize, SessionId)> {
        self.holding_back(phase, version).collect()
    }

    /// The first session holding `(phase, version)` back — an
    /// allocation-free sample for metrics ("which session is holding this
    /// transition back right now").
    pub fn first_blocker(&self, phase: Phase, version: u64) -> Option<(usize, SessionId)> {
        self.holding_back(phase, version).next()
    }

    /// Guid owning slot `idx`, if any.
    pub fn guid(&self, idx: usize) -> Option<SessionId> {
        match self.slots[idx].owner.load(Ordering::Acquire) {
            0 => None,
            g => Some(g - 1),
        }
    }

    /// Number of occupied slots.
    pub fn active(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.owner.load(Ordering::Acquire) != 0)
            .count()
    }

    /// True iff every occupied, non-evicted slot has reached
    /// `(phase, version)` or beyond — the trigger condition used by the
    /// commit state machines.
    pub fn all_at_least(&self, phase: Phase, version: u64) -> bool {
        self.holding_back(phase, version).next().is_none()
    }

    /// Snapshot of (guid, cpr_point) for every occupied slot — the
    /// per-session commit points persisted in the checkpoint manifest.
    pub fn cpr_points(&self) -> Vec<(SessionId, u64)> {
        self.slots
            .iter()
            .filter_map(|s| {
                let owner = s.owner.load(Ordering::Acquire);
                (owner != 0).then(|| (owner - 1, s.cpr_point.load(Ordering::Acquire)))
            })
            .collect()
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_cycle() {
        let reg = SessionRegistry::new(2);
        let a = reg.acquire(7, Phase::Rest, 1);
        let b = reg.acquire(9, Phase::Rest, 1);
        assert_eq!(reg.active(), 2);
        assert_eq!(reg.guid(a), Some(7));
        assert_eq!(reg.guid(b), Some(9));
        reg.release(a);
        assert_eq!(reg.active(), 1);
        let c = reg.acquire(11, Phase::Rest, 1);
        assert_eq!(c, a, "freed slot reused");
    }

    #[test]
    fn guid_zero_is_usable() {
        let reg = SessionRegistry::new(1);
        let i = reg.acquire(0, Phase::Rest, 1);
        assert_eq!(reg.guid(i), Some(0));
    }

    #[test]
    fn all_at_least_over_phases_and_versions() {
        let reg = SessionRegistry::new(3);
        let a = reg.acquire(1, Phase::Rest, 1);
        let b = reg.acquire(2, Phase::Rest, 1);
        assert!(reg.all_at_least(Phase::Rest, 1));
        assert!(!reg.all_at_least(Phase::Prepare, 1));

        reg.publish(a, Phase::Prepare, 1);
        assert!(!reg.all_at_least(Phase::Prepare, 1), "b still at rest");
        reg.publish(b, Phase::Prepare, 1);
        assert!(reg.all_at_least(Phase::Prepare, 1));

        // A session already at the next version counts as "beyond".
        reg.publish(a, Phase::Rest, 2);
        assert!(!reg.all_at_least(Phase::WaitFlush, 1), "b at prepare");
        reg.publish(b, Phase::Rest, 2);
        assert!(reg.all_at_least(Phase::WaitFlush, 1));
    }

    #[test]
    fn empty_registry_is_vacuously_ready() {
        let reg = SessionRegistry::new(4);
        assert!(reg.all_at_least(Phase::WaitFlush, 99));
    }

    #[test]
    fn cpr_points_snapshot() {
        let reg = SessionRegistry::new(4);
        let a = reg.acquire(10, Phase::Rest, 1);
        let b = reg.acquire(20, Phase::Rest, 1);
        reg.set_serial(a, 5);
        reg.set_serial(b, 8);
        assert_eq!(reg.mark_cpr_point(a), 5);
        assert_eq!(reg.mark_cpr_point(b), 8);
        let mut pts = reg.cpr_points();
        pts.sort_unstable();
        assert_eq!(pts, vec![(10, 5), (20, 8)]);
    }

    #[test]
    fn lease_status_state_machine() {
        let reg = SessionRegistry::new(1);
        let i = reg.acquire(3, Phase::Rest, 1);
        assert_eq!(reg.status(i), SessionStatus::Active);
        assert!(!reg.try_evict(i), "cannot evict an active session");
        assert!(!reg.try_reactivate(i), "nothing to reactivate");
        assert!(reg.try_suspend(i));
        assert!(!reg.try_suspend(i), "already suspended");
        assert!(reg.try_reactivate(i));
        assert_eq!(reg.status(i), SessionStatus::Active);
        assert!(reg.try_suspend(i));
        assert!(reg.try_evict(i));
        assert_eq!(reg.status(i), SessionStatus::Evicted);
        assert!(!reg.try_reactivate(i), "eviction is final");
        // Re-acquire resets the lease.
        reg.release(i);
        let j = reg.acquire(4, Phase::Rest, 1);
        assert_eq!(j, i);
        assert_eq!(reg.status(j), SessionStatus::Active);
        assert_eq!(reg.busy(j), BusyState::Idle);
    }

    #[test]
    fn evicted_sessions_do_not_block_triggers() {
        let reg = SessionRegistry::new(2);
        let a = reg.acquire(1, Phase::Rest, 1);
        let b = reg.acquire(2, Phase::Rest, 1);
        reg.publish(a, Phase::Prepare, 1);
        assert!(!reg.all_at_least(Phase::Prepare, 1));
        assert_eq!(reg.blockers(Phase::Prepare, 1), vec![(b, 2)]);
        assert!(reg.try_suspend(b) && reg.try_evict(b));
        assert!(reg.all_at_least(Phase::Prepare, 1));
        assert!(reg.blockers(Phase::Prepare, 1).is_empty());
        // The evicted session still contributes its CPR point.
        assert_eq!(reg.cpr_points().len(), 2);
    }

    #[test]
    fn proxy_advance_publishes_state_and_point() {
        let reg = SessionRegistry::new(1);
        let i = reg.acquire(9, Phase::Rest, 1);
        reg.set_serial(i, 41);
        assert!(reg.try_suspend(i));
        assert_eq!(reg.proxy_advance(i, Phase::Prepare, 1, false), None);
        assert_eq!(reg.view(i), (Phase::Prepare, 1));
        assert_eq!(reg.cpr_point(i), 0);
        assert_eq!(reg.proxy_advance(i, Phase::InProgress, 1, true), Some(41));
        assert_eq!(reg.view(i), (Phase::InProgress, 1));
        assert_eq!(reg.cpr_point(i), 41);
    }

    #[test]
    fn proxy_arbitration_blocks_reactivation() {
        let reg = SessionRegistry::new(1);
        let i = reg.acquire(1, Phase::Rest, 1);
        assert!(!reg.try_begin_proxy(i), "active session cannot be proxied");
        assert!(reg.try_suspend(i));
        assert!(reg.try_begin_proxy(i));
        assert!(!reg.try_reactivate(i), "owner blocked while proxying");
        reg.end_proxy(i);
        assert_eq!(reg.status(i), SessionStatus::Suspended);
        assert!(reg.await_reactivate(i));
        assert_eq!(reg.status(i), SessionStatus::Active);
        assert!(!reg.is_evicted(i));
    }

    #[test]
    fn heartbeat_and_epoch_slot_roundtrip() {
        let reg = SessionRegistry::new(1);
        let i = reg.acquire(1, Phase::Rest, 1);
        assert_eq!(reg.last_heartbeat(i), 0);
        reg.heartbeat(i, 17);
        assert_eq!(reg.last_heartbeat(i), 17);
        assert_eq!(reg.epoch_slot(i), None);
        reg.set_epoch_slot(i, 0);
        assert_eq!(reg.epoch_slot(i), Some(0));
        reg.set_epoch_slot(i, 5);
        assert_eq!(reg.epoch_slot(i), Some(5));
    }

    #[test]
    fn cpr_point_rollback() {
        let reg = SessionRegistry::new(1);
        let i = reg.acquire(1, Phase::Rest, 1);
        reg.set_serial(i, 10);
        reg.mark_cpr_point(i);
        assert_eq!(reg.cpr_point(i), 10);
        reg.set_cpr_point(i, 7);
        assert_eq!(reg.cpr_point(i), 7);
    }

    #[test]
    fn serial_updates_visible() {
        let reg = SessionRegistry::new(1);
        let i = reg.acquire(1, Phase::Rest, 1);
        for s in 1..100 {
            reg.set_serial(i, s);
            assert_eq!(reg.serial(i), s);
        }
    }
}
