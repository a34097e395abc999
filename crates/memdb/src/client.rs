//! Client sessions and the transaction executor (paper Alg. 1).
//!
//! All transactions of a client are processed by one thread; a [`Session`]
//! is that thread's handle. It carries the thread-local view of the global
//! (phase, version), refreshed lazily via the epoch framework; avoiding
//! per-transaction synchronization of this state is the key to CPR's
//! scalability.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use cpr_core::liveness::{BusyState, Clock, SessionStatus};
use cpr_core::{Phase, SessionInfo};
use cpr_metrics::Registry;

use crate::db::{DbInner, Durability};
use crate::error::Abort;
use crate::record::Record;
use crate::stats::ClientStats;
use crate::value::DbValue;

/// Access mode, mirroring `cpr_workload::AccessType` without the
/// dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Read,
    /// Blind write: the record takes `DbValue::from_seed(seed)`.
    Write,
    /// Read-modify-write: the record takes `old.merge(seed)` — atomic
    /// within the transaction (both lock and apply under 2PL).
    Merge,
    /// Tombstone the record: subsequent reads see it as absent. Consumes
    /// no write seed. The record slot survives so the delete crosses the
    /// live/stable version-shift path exactly like a write.
    Delete,
}

/// One transaction: unique keys with access modes, plus a value seed per
/// write (consumed in access order).
#[derive(Debug, Clone)]
pub struct TxnRequest<'a> {
    pub accesses: &'a [(u64, Access)],
    pub write_seeds: &'a [u64],
}

/// A client session (paper Sec. 5.2 applied to the transactional DB).
pub struct Session<V: DbValue> {
    db: Arc<DbInner<V>>,
    guard: cpr_epoch::Guard,
    slot: usize,
    guid: u64,
    /// Thread-local view of the global state machine.
    phase: Phase,
    version: u64,
    /// Serial number of the last *committed* transaction.
    serial: u64,
    ops_since_refresh: u64,
    /// CPR points awaiting durability: (db version, serial at point).
    pending_points: VecDeque<(u64, u64)>,
    durable_serial: u64,
    /// Lease clock, present iff the database runs a liveness watchdog.
    clock: Option<Arc<dyn Clock>>,
    /// Metrics sink (cached Arc + enabled flag so the hot path pays one
    /// branch, no pointer chase, when metrics are off).
    metrics: Arc<Registry>,
    metrics_on: bool,
    /// Cached "this session has been evicted" flag (set once, sticky).
    evicted: bool,
    /// Test hook: runs right after the session enters a transaction
    /// (busy = in-txn, before lock acquisition).
    pause_in_txn: Option<Box<dyn FnMut() + Send>>,
    /// Test hook: runs while the transaction's 2PL locks are held.
    pause_locked: Option<Box<dyn FnMut() + Send>>,
    pub stats: ClientStats,
}

impl<V: DbValue> Session<V> {
    pub(crate) fn new(db: Arc<DbInner<V>>, guid: u64, start_serial: u64) -> Self {
        let (phase, version) = db.state.load();
        let slot = db.registry.acquire(guid, phase, version);
        // Publish the resumed serial immediately: a checkpoint racing this
        // attach must see the session's true position, not a fresh 0.
        db.registry.set_serial(slot, start_serial);
        let mut guard = db.epoch.register();
        let clock = db.liveness.as_ref().map(|l| Arc::clone(&l.clock));
        if let Some(c) = &clock {
            // Publish the epoch slot so the watchdog can reclaim it, stamp
            // the lease, and arm the thread-exit sentinel so a dying
            // client thread frees its epoch slot.
            db.registry.set_epoch_slot(slot, guard.slot());
            db.registry.heartbeat(slot, c.now());
            guard.arm_exit_sentinel();
        }
        let metrics = Arc::clone(&db.metrics);
        let metrics_on = db.metrics_on;
        Session {
            db,
            guard,
            slot,
            guid,
            phase,
            version,
            serial: start_serial,
            ops_since_refresh: 0,
            pending_points: VecDeque::new(),
            durable_serial: start_serial,
            clock,
            metrics,
            metrics_on,
            evicted: false,
            pause_in_txn: None,
            pause_locked: None,
            stats: ClientStats::default(),
        }
    }

    /// Install a hook that runs at the start of every transaction, after
    /// the session is marked busy but before locks are taken. Test-only:
    /// lets liveness tests park a thread mid-transaction.
    #[doc(hidden)]
    pub fn set_pause_in_txn(&mut self, f: impl FnMut() + Send + 'static) {
        self.pause_in_txn = Some(Box::new(f));
    }

    /// Install a hook that runs while a transaction's locks are held.
    /// Test-only: lets liveness tests park a stalled lock holder.
    #[doc(hidden)]
    pub fn set_pause_locked(&mut self, f: impl FnMut() + Send + 'static) {
        self.pause_locked = Some(Box::new(f));
    }

    /// True once the watchdog has evicted this session.
    pub fn is_evicted(&self) -> bool {
        self.evicted
            || (self.clock.is_some()
                && self.db.registry.status(self.slot) == SessionStatus::Evicted)
    }

    pub fn guid(&self) -> u64 {
        self.guid
    }

    /// Serial number of the last committed transaction.
    pub fn serial(&self) -> u64 {
        self.serial
    }

    /// Snapshot of this session's identity and thread-local state-machine
    /// view. Shares its shape with `cpr-faster`'s sessions.
    pub fn info(&self) -> SessionInfo {
        SessionInfo {
            guid: self.guid,
            serial: self.serial,
            phase: self.phase,
            version: self.version.into(),
        }
    }

    /// Publish the local epoch, adopt any global state change, and mark a
    /// CPR point when crossing prepare → in-progress (paper Alg. 1).
    pub fn refresh(&mut self) {
        self.guard.refresh();
        self.ops_since_refresh = 0;
        if let Some(c) = &self.clock {
            // Lease renewal: one relaxed store (plus one relaxed probe of
            // the sticky eviction flag) — the whole hot-path liveness cost.
            self.db.registry.heartbeat(self.slot, c.now());
            if self.evicted || self.db.registry.is_evicted(self.slot) {
                self.evicted = true;
                return;
            }
        }
        let (gp, gv) = self.db.state.load();
        if (gp, gv) == (self.phase, self.version) {
            return;
        }
        let crossed = self.phase <= Phase::Prepare
            && ((gv == self.version && gp >= Phase::InProgress) || gv > self.version);
        if crossed {
            let point = self.db.registry.mark_cpr_point(self.slot);
            self.pending_points.push_back((self.version, point));
        }
        self.phase = gp;
        self.version = gv;
        self.db.registry.publish(self.slot, gp, gv);
        if self.phase != Phase::Rest {
            // A commit is in flight: cede the CPU so the capture thread
            // makes progress even on a single core.
            std::thread::yield_now();
        }
    }

    /// Largest serial number known durable for this session: every
    /// transaction with serial ≤ this survives any crash.
    pub fn durable_serial(&mut self) -> u64 {
        match self.db.opts.durability {
            Durability::Wal => {
                // Group commit: everything synced so far. We approximate
                // with the last explicit sync (tests call request_commit).
                self.durable_serial
            }
            _ => {
                let cv = self.db.committed_version.load(Ordering::Acquire);
                while let Some(&(v, s)) = self.pending_points.front() {
                    if v <= cv {
                        self.durable_serial = self.durable_serial.max(s);
                        self.pending_points.pop_front();
                    } else {
                        break;
                    }
                }
                self.durable_serial
            }
        }
    }

    /// Execute one transaction. Reads are appended to `reads` (cleared
    /// first). On `Abort::Conflict` the caller may retry; on
    /// `Abort::CprShift` the session has already refreshed and an
    /// immediate retry executes in the new phase (at most one such abort
    /// per commit — paper Sec. 4.1).
    pub fn execute(&mut self, txn: &TxnRequest<'_>, reads: &mut Vec<V>) -> Result<(), Abort> {
        reads.clear();
        self.ops_since_refresh += 1;
        if self.ops_since_refresh >= self.db.opts.refresh_every {
            self.refresh();
        }
        if self.clock.is_some() {
            self.begin_op()?;
        }
        if let Some(mut f) = self.pause_in_txn.take() {
            f();
            self.pause_in_txn = Some(f);
        }
        let profile = self.db.opts.profile;
        let t0 = profile.then(Instant::now);
        let m0 = self.metrics_on.then(Instant::now);

        let result = match self.db.opts.durability {
            Durability::Wal => self.exec_wal(txn, reads, profile),
            _ => self.exec_versioned(txn, reads),
        };
        if self.clock.is_some() {
            self.db.registry.set_busy(self.slot, BusyState::Idle);
        }

        match result {
            Ok(()) => {
                self.serial += 1;
                self.db.registry.set_serial(self.slot, self.serial);
                self.stats.committed += 1;
                if let Some(t0) = t0 {
                    let side = self.stats.take_pending_side_ns();
                    self.stats.exec_ns += (t0.elapsed().as_nanos() as u64).saturating_sub(side);
                }
                if let Some(m0) = m0 {
                    let reads = txn
                        .accesses
                        .iter()
                        .filter(|&&(_, a)| a == Access::Read)
                        .count() as u64;
                    let writes = txn.accesses.len() as u64 - reads;
                    self.metrics.record_commit(m0.elapsed(), reads, writes);
                }
                Ok(())
            }
            Err(a) => {
                match a {
                    Abort::Conflict => self.stats.aborts_conflict += 1,
                    Abort::CprShift => self.stats.aborts_cpr += 1,
                    Abort::SessionEvicted => self.stats.aborts_evicted += 1,
                }
                if let Some(t0) = t0 {
                    let _ = self.stats.take_pending_side_ns();
                    self.stats.abort_ns += t0.elapsed().as_nanos() as u64;
                }
                if self.metrics_on {
                    self.metrics.record_abort();
                }
                if a == Abort::CprShift {
                    // Paper: the thread refreshes immediately so the retry
                    // runs in the new phase.
                    self.refresh();
                }
                Err(a)
            }
        }
    }

    /// Enter the busy window (Dekker: SeqCst busy store, then SeqCst
    /// status load — pairs with the watchdog's suspend/evict CASes). A
    /// suspended session waits out any in-flight proxy publish, adopts the
    /// state published on its behalf, and retries; an evicted one fails
    /// fast with a sticky error.
    fn begin_op(&mut self) -> Result<(), Abort> {
        loop {
            if self.evicted {
                return Err(Abort::SessionEvicted);
            }
            self.db.registry.set_busy(self.slot, BusyState::InTxn);
            match self.db.registry.status(self.slot) {
                SessionStatus::Active => return Ok(()),
                _ => {
                    // The watchdog intervened while we were idle: step back
                    // out, wait for the hand-off to finish, refresh to at
                    // least whatever it published for us, and try again.
                    self.db.registry.set_busy(self.slot, BusyState::Idle);
                    if self.db.registry.await_reactivate(self.slot) {
                        self.refresh();
                    } else {
                        self.evicted = true;
                    }
                }
            }
        }
    }

    /// Executor for CPR / CALC / no-durability modes (paper Alg. 1).
    fn exec_versioned(&mut self, txn: &TxnRequest<'_>, reads: &mut Vec<V>) -> Result<(), Abort> {
        let table = &self.db.table;
        let v = self.version;
        let phase = self.phase;
        // The version new records/writes belong to.
        let txn_version = if phase >= Phase::InProgress { v + 1 } else { v };

        if self.clock.is_some() {
            // From here we acquire (and then hold) 2PL locks: the watchdog
            // must not evict us — its only remedy for a straggler in this
            // window is aborting the checkpoint and backing off.
            self.db.registry.set_busy(self.slot, BusyState::Locking);
        }

        // Acquire phase: lock the full read-write set (No-Wait).
        let mut locked: Vec<(&Record<V>, bool)> = Vec::with_capacity(txn.accesses.len());
        let mut fail: Option<Abort> = None;
        'acquire: for &(key, access) in txn.accesses {
            let (rec, _) = table.get_or_insert(key, txn_version, V::from_seed(0));
            let exclusive = access != Access::Read;
            let got = if exclusive {
                rec.lock.try_exclusive()
            } else {
                rec.lock.try_shared()
            };
            if !got {
                fail = Some(Abort::Conflict);
                break 'acquire;
            }
            locked.push((rec, exclusive));

            match phase {
                Phase::Rest => {}
                Phase::Prepare => {
                    // A record already shifted to v+1 means the CPR shift
                    // has begun: this transaction cannot belong to the
                    // version-v commit.
                    if rec.version() > v {
                        fail = Some(Abort::CprShift);
                        break 'acquire;
                    }
                }
                Phase::InProgress | Phase::WaitPending | Phase::WaitFlush => {
                    if rec.version() < txn_version {
                        // Shift the record: capture its final version-v
                        // value in `stable` before this v+1 transaction
                        // touches `live`. Requires the exclusive lock.
                        if exclusive {
                            rec.copy_live_to_stable();
                            rec.set_version(txn_version);
                        } else if rec.lock.try_upgrade() {
                            rec.copy_live_to_stable();
                            rec.set_version(txn_version);
                            rec.lock.downgrade();
                        } else {
                            fail = Some(Abort::Conflict);
                            break 'acquire;
                        }
                    }
                }
            }
        }

        if let Some(abort) = fail {
            release_all(&locked);
            return Err(abort);
        }

        if self.clock.is_some() {
            if let Some(mut f) = self.pause_locked.take() {
                f();
                self.pause_locked = Some(f);
            }
            // All locks held; re-check ownership before applying a single
            // write. If the watchdog suspended (or evicted) this session
            // while it straggled through acquisition, its view may be
            // stale and its CPR point may have been proxy-published —
            // applying now could grow the committed prefix inconsistently.
            // Shifts done above are safe: they are idempotent maintenance
            // any session at this view would perform.
            match self.db.registry.status(self.slot) {
                SessionStatus::Active => {}
                SessionStatus::Evicted => {
                    release_all(&locked);
                    self.evicted = true;
                    return Err(Abort::SessionEvicted);
                }
                _ => {
                    release_all(&locked);
                    if self.db.registry.await_reactivate(self.slot) {
                        self.refresh();
                        return Err(Abort::Conflict);
                    }
                    self.evicted = true;
                    return Err(Abort::SessionEvicted);
                }
            }
        }

        // Execute phase: all locks held.
        let mut seed_idx = 0;
        for (i, &(_, access)) in txn.accesses.iter().enumerate() {
            let (rec, _) = locked[i];
            match access {
                Access::Read => {
                    reads.push(if rec.birth() == 0 || rec.is_dead() {
                        V::from_seed(0)
                    } else {
                        rec.read_live()
                    });
                    self.stats.reads += 1;
                }
                Access::Write => {
                    rec.write_live(V::from_seed(txn.write_seeds[seed_idx]));
                    rec.set_dead(false);
                    rec.set_birth_if_unset(txn_version);
                    rec.set_modified(txn_version);
                    seed_idx += 1;
                    self.stats.writes += 1;
                }
                Access::Merge => {
                    let old = if rec.birth() == 0 || rec.is_dead() {
                        V::from_seed(0)
                    } else {
                        rec.read_live()
                    };
                    rec.write_live(old.merge(txn.write_seeds[seed_idx]));
                    rec.set_dead(false);
                    rec.set_birth_if_unset(txn_version);
                    rec.set_modified(txn_version);
                    seed_idx += 1;
                    self.stats.writes += 1;
                }
                Access::Delete => {
                    rec.set_dead(true);
                    rec.set_birth_if_unset(txn_version);
                    rec.set_modified(txn_version);
                    self.stats.writes += 1;
                }
            }
        }

        // CALC: every commit appends to the atomic commit log while locks
        // are held — the measured serial bottleneck.
        if let Some(log) = &self.db.commit_log {
            let t = self.db.opts.profile.then(Instant::now);
            log.append((self.guid << 32) | (self.serial + 1));
            if let Some(t) = t {
                self.stats.note_side_ns(t.elapsed().as_nanos() as u64, true);
            }
        }

        release_all(&locked);
        Ok(())
    }

    /// Executor for the WAL baseline: 2PL + redo record + group commit.
    fn exec_wal(
        &mut self,
        txn: &TxnRequest<'_>,
        reads: &mut Vec<V>,
        profile: bool,
    ) -> Result<(), Abort> {
        let table = &self.db.table;
        if self.clock.is_some() {
            self.db.registry.set_busy(self.slot, BusyState::Locking);
        }
        let mut locked: Vec<(&Record<V>, bool)> = Vec::with_capacity(txn.accesses.len());
        for &(key, access) in txn.accesses {
            let (rec, _) = table.get_or_insert(key, 1, V::from_seed(0));
            let exclusive = access != Access::Read;
            let got = if exclusive {
                rec.lock.try_exclusive()
            } else {
                rec.lock.try_shared()
            };
            if !got {
                release_all(&locked);
                return Err(Abort::Conflict);
            }
            locked.push((rec, exclusive));
        }

        // Execute and build the redo record. Payload format:
        // `[count u64][(key u64, flags u64, value)*]`, flags bit 0 =
        // tombstone; count patched below (deletes consume no write seed,
        // so the seed count cannot serve as the entry count).
        let mut payload: Vec<u8> = Vec::with_capacity(8 + txn.accesses.len() * 24);
        let t_build = profile.then(Instant::now);
        payload.extend_from_slice(&0u64.to_le_bytes());
        let mut seed_idx = 0;
        let mut entries = 0u64;
        for (i, &(key, access)) in txn.accesses.iter().enumerate() {
            let (rec, _) = locked[i];
            match access {
                Access::Read => {
                    reads.push(if rec.birth() == 0 || rec.is_dead() {
                        V::from_seed(0)
                    } else {
                        rec.read_live()
                    });
                    self.stats.reads += 1;
                }
                Access::Write | Access::Merge => {
                    let val = if access == Access::Write {
                        V::from_seed(txn.write_seeds[seed_idx])
                    } else if rec.birth() == 0 || rec.is_dead() {
                        V::from_seed(0).merge(txn.write_seeds[seed_idx])
                    } else {
                        rec.read_live().merge(txn.write_seeds[seed_idx])
                    };
                    rec.write_live(val);
                    rec.set_dead(false);
                    rec.set_birth_if_unset(1);
                    // Redo-log the *result* value: replay is then
                    // idempotent and order-faithful.
                    payload.extend_from_slice(&key.to_le_bytes());
                    payload.extend_from_slice(&0u64.to_le_bytes());
                    cpr_core::pod_write(&val, &mut payload);
                    seed_idx += 1;
                    entries += 1;
                    self.stats.writes += 1;
                }
                Access::Delete => {
                    rec.set_dead(true);
                    rec.set_birth_if_unset(1);
                    payload.extend_from_slice(&key.to_le_bytes());
                    payload.extend_from_slice(&1u64.to_le_bytes());
                    cpr_core::pod_write(&V::from_seed(0), &mut payload);
                    entries += 1;
                    self.stats.writes += 1;
                }
            }
        }
        payload[..8].copy_from_slice(&entries.to_le_bytes());
        if let Some(t) = t_build {
            self.stats
                .note_side_ns(t.elapsed().as_nanos() as u64, false);
        }

        if entries > 0 {
            let wal = self.db.wal.as_ref().expect("wal");
            // LSN allocation (tail contention) then the record copy (log
            // write), measured separately when profiling.
            let t_tail = profile.then(Instant::now);
            let reservation = wal.reserve(payload.len());
            if let Some(t) = t_tail {
                self.stats.note_side_ns(t.elapsed().as_nanos() as u64, true);
            }
            let t_copy = profile.then(Instant::now);
            reservation.fill(&payload);
            if let Some(t) = t_copy {
                self.stats
                    .note_side_ns(t.elapsed().as_nanos() as u64, false);
            }
        }

        release_all(&locked);
        Ok(())
    }

    /// Record that everything up to the current serial was made durable by
    /// an explicit WAL sync (used by the bench harness after
    /// `request_commit` in WAL mode).
    pub fn note_wal_synced(&mut self) {
        self.durable_serial = self.serial;
    }
}

fn release_all<V: DbValue>(locked: &[(&Record<V>, bool)]) {
    for &(rec, exclusive) in locked.iter().rev() {
        if exclusive {
            rec.lock.release_exclusive();
        } else {
            rec.lock.release_shared();
        }
    }
}

impl<V: DbValue> Drop for Session<V> {
    fn drop(&mut self) {
        self.db.merged_stats.lock().merge(&self.stats);
        // Deposit this session's commit points before freeing the slot:
        // once released the registry forgets the guid, but a later
        // checkpoint (or a reconnecting client) still needs them.
        if self.evicted || self.db.registry.is_evicted(self.slot) {
            // Eviction aborted everything after the rolled-back point; the
            // pre-eviction serial must never be reported.
            let point = self.db.registry.cpr_point(self.slot);
            self.db
                .detached
                .record_evicted(self.guid, self.version, point);
        } else {
            let txn_version = if self.phase >= Phase::InProgress {
                self.version + 1
            } else {
                self.version
            };
            let points: Vec<(u64, u64)> = self.pending_points.iter().copied().collect();
            self.db
                .detached
                .record(self.guid, points, (txn_version, self.serial));
        }
        self.db.registry.release(self.slot);
        // The epoch guard drops afterwards, draining any pending actions.
    }
}
