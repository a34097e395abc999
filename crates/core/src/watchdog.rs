//! The session liveness watchdog, shared by both engines (paper Sec. 3's
//! "all threads must participate" assumption, made safe against threads
//! that don't).
//!
//! A CPR commit advances only when every registered session has
//! refreshed into the current phase (and, at FASTER's wait-pending, every
//! version-`v` pending operation has completed), so one preempted,
//! parked, or dead client thread wedges the checkpoint forever. While a
//! commit is in flight this thread scans session leases and acts on
//! stragglers whose heartbeat has gone stale for longer than the grace
//! period:
//!
//! | straggler is…                        | action                          |
//! |--------------------------------------|---------------------------------|
//! | idle, no pending ops                 | proxy-advance: publish its      |
//! |                                      | phase state (and CPR point) on  |
//! |                                      | its behalf                      |
//! | idle with pending ops, or parked     | evict: cancel its pendings      |
//! | inside a transaction or operation    | ([`CommitEngine::cancel_pendings`]) |
//! |                                      | and roll its CPR point below the|
//! |                                      | earliest cancelled claimed op   |
//! | holding locks (`Locking`)            | abort the checkpoint, back off, |
//! |                                      | retry (bounded by `max_attempts`)|
//!
//! Only FASTER sessions have pending operations; a memdb straggler is
//! evicted only while it blocks the phase.
//!
//! **Two-scan rule.** A stale session is first *suspended* (scan N) and
//! only acted upon at a later scan if its lease is still stale — a
//! session merely observed mid-transition gets a full poll interval to
//! show life.
//!
//! **Why eviction is safe only before locks.** The owner publishes its
//! busy state with sequentially consistent stores and re-checks its
//! status after acquiring locks and before applying any write. If the
//! watchdog evicts while `busy == InTxn`, the owner's next status check
//! observes the eviction and abandons the operation, so an evicted
//! session never grows the state past its published CPR point. A session
//! seen `Locking` may already be past that check, mid-apply; the only
//! safe remedy is timing the whole checkpoint out.
//!
//! **CPR-point rollback.** FASTER serials bump at acceptance, before the
//! op runs, so a session's serial (and a crossed session's marked point)
//! may claim operations that exist only as pending entries. Cancelling
//! them makes the claim a lie, so the point is rolled back below the
//! earliest cancelled serial it covered.
//!
//! Every scan also releases the epoch-table slots of stale sessions
//! ([`cpr_epoch::EpochManager::release_stale`]): a parked thread pins the
//! safe epoch, which blocks the drain-list triggers that drive the phase
//! transitions even when no session blocks the phase logically.

use std::sync::{Arc, Weak};

use crate::commit::{gated_by_sessions, start, CommitCore, CommitEngine};
use crate::liveness::{BusyState, LivenessConfig, SessionStatus};
use crate::{crossed_cpr_point, Phase};

pub(crate) fn run<E: CommitEngine>(weak: Weak<E>, cfg: LivenessConfig) {
    let mut rng = cfg.seed | 1;
    // Clock tick at which an abort's scheduled retry may be issued.
    let mut retry_at: Option<u64> = None;
    loop {
        std::thread::sleep(cfg.poll_interval);
        let Some(engine) = weak.upgrade() else { return };
        scan(&engine, &cfg, &mut rng, &mut retry_at);
    }
}

fn scan<E: CommitEngine>(
    engine: &Arc<E>,
    cfg: &LivenessConfig,
    rng: &mut u64,
    retry_at: &mut Option<u64>,
) {
    let core: &CommitCore<E::Request> = engine;
    let now = cfg.clock.now();
    let (phase, v) = core.state.load();

    if phase == Phase::Rest {
        let request = *core.request.lock();
        if let (Some(at), Some(request)) = (*retry_at, request) {
            if now >= at {
                *retry_at = None;
                if start(engine, request) {
                    core.outcome.lock().attempts += 1;
                }
            }
        }
        return;
    }

    // A commit is in flight: nudge the drain list and examine leases.
    core.epoch.try_drain();

    let reg = &core.registry;
    let blockers: Vec<usize> = if gated_by_sessions(phase) {
        reg.blockers(phase, v).into_iter().map(|(i, _)| i).collect()
    } else {
        Vec::new()
    };

    let mut abort_wanted = false;
    for idx in 0..reg.capacity() {
        let Some(guid) = reg.guid(idx) else { continue };
        if now.saturating_sub(reg.last_heartbeat(idx)) <= cfg.grace_ticks {
            continue; // lease is fresh
        }
        match reg.status(idx) {
            SessionStatus::Active => {
                // Scan N: suspend only (two-scan rule).
                reg.try_suspend(idx);
            }
            SessionStatus::Evicted | SessionStatus::Proxying => {}
            SessionStatus::Suspended => {
                // Scan N+1: still stale — act. Whatever we decide, unpin
                // the straggler's epoch slot so triggers can fire.
                if let Some(slot) = reg.epoch_slot(idx) {
                    core.epoch.release_stale(slot);
                }
                let is_blocker = blockers.contains(&idx);
                let has_pendings = engine.has_pendings(idx);
                match reg.busy(idx) {
                    BusyState::Idle if is_blocker && !has_pendings => {
                        proxy_advance(&**engine, idx, guid, v)
                    }
                    BusyState::Idle if has_pendings => evict(&**engine, idx, guid, v),
                    BusyState::InTxn if is_blocker || has_pendings => {
                        evict(&**engine, idx, guid, v)
                    }
                    BusyState::Locking => {
                        // Stalled while holding locks: no per-session
                        // remedy is safe — time the checkpoint out.
                        abort_wanted = true;
                    }
                    _ => {}
                }
            }
        }
    }

    if abort_wanted {
        abort_checkpoint(&**engine, cfg, rng, retry_at, phase, v, now);
    }
    core.epoch.try_drain();
}

/// Publish phase state on behalf of an idle, suspended straggler. The
/// Suspended → Proxying CAS is the publish lock: the owner cannot
/// reactivate (and thus cannot run operations or re-publish) until
/// `end_proxy`, so the state and CPR point published here cannot be stale
/// by the time they land.
fn proxy_advance<E: CommitEngine>(engine: &E, idx: usize, guid: u64, v: u64) {
    let core: &CommitCore<E::Request> = engine;
    let reg = &core.registry;
    if !reg.try_begin_proxy(idx) {
        return; // owner resumed (or another decision won) meanwhile
    }
    // Re-sample everything under the proxy lock.
    let (phase, cur_v) = core.state.load();
    if cur_v == v && gated_by_sessions(phase) {
        let (ps, vs) = reg.view(idx);
        if (vs, ps) < (v, phase) {
            // Mark the CPR point iff this publish crosses one.
            let mark = crossed_cpr_point((ps, vs), (phase, v)).is_some();
            reg.proxy_advance(idx, phase, v, mark);
            let mut out = core.outcome.lock();
            if !out.proxy_advanced.contains(&guid) {
                out.proxy_advanced.push(guid);
            }
        }
    }
    reg.end_proxy(idx);
}

/// Evict a dead session: cancel its pending operations and roll its CPR
/// point below the earliest cancelled serial it claimed.
fn evict<E: CommitEngine>(engine: &E, idx: usize, guid: u64, v: u64) {
    let core: &CommitCore<E::Request> = engine;
    let reg = &core.registry;
    if !reg.try_evict(idx) {
        return;
    }
    // Base claim: a crossed session keeps its marked point; a blocker has
    // not crossed, so its last accepted serial is the starting claim —
    // every completed operation is a version-v (or older) write that the
    // flush will persist.
    let (ps, vs) = reg.view(idx);
    // Crossed: stepping into in-progress of v would cross no new point.
    let crossed = crossed_cpr_point((ps, vs), (Phase::InProgress, v)).is_none();
    let base = if crossed {
        reg.cpr_point(idx)
    } else {
        reg.serial(idx)
    };
    // A cancelled serial above the claim leaves it as is.
    let point = engine
        .cancel_pendings(idx)
        .into_iter()
        .fold(base, |point, serial| point.min(serial.saturating_sub(1)));
    reg.set_cpr_point(idx, point);
    core.outcome.lock().evicted.push(guid);
}

/// Time the in-flight checkpoint out and schedule a backed-off retry.
/// Before wait-flush the machine returns to rest at `v + 1` here; at
/// wait-flush the engine decides (memdb asks its capture to fail; a
/// FASTER flush is I/O-bound, not straggler-bound, and is never aborted).
fn abort_checkpoint<E: CommitEngine>(
    engine: &E,
    cfg: &LivenessConfig,
    rng: &mut u64,
    retry_at: &mut Option<u64>,
    phase: Phase,
    v: u64,
    now: u64,
) {
    let core: &CommitCore<E::Request> = engine;
    let aborted = if phase == Phase::WaitFlush {
        engine.abort_flush(v)
    } else if gated_by_sessions(phase) && core.state.transition((phase, v), (Phase::Rest, v + 1)) {
        engine.release(v);
        // The flush worker never runs for this attempt: close its trace.
        core.end_trace(v, false);
        true
    } else {
        false
    };
    if !aborted {
        return;
    }
    let mut out = core.outcome.lock();
    out.aborted += 1;
    if out.attempts >= cfg.max_attempts {
        out.gave_up = true;
        *retry_at = None;
    } else {
        *retry_at = Some(now + cfg.backoff_ticks(out.attempts, rng));
    }
    drop(out);
    core.commit_cv.notify_all();
}
