//! Sessions and the operation engine (paper Secs. 5.2, 6.2, Algs. 4 & 5).
//!
//! Every user request carries a strictly increasing session-local serial
//! number. A session's thread-local view of the global (phase, version) is
//! synchronized only at epoch refresh; the prepare → in-progress
//! transition demarcates the session's CPR point. Requests that cannot be
//! served immediately (disk-resident record, fuzzy region, version
//! hand-off conflicts) go *pending* and are retried by
//! [`FasterSession::complete_pending`].

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use cpr_core::liveness::BusyState;
use cpr_core::{Ownership, Phase, Pod, SessionCore, SessionInfo};

use crate::addr::{Address, INVALID_ADDRESS};
use crate::header::{version13, Header};
use crate::index::{key_hash, Slot};
use crate::io::IoRead;
use crate::store::{value_from_words, value_to_words, OfflineGuard, StoreInner, VersionGrain};

/// Result of a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadResult<V> {
    Found(V),
    NotFound,
    /// Went pending (disk or contention); the result arrives via
    /// [`FasterSession::drain_completions`].
    Pending,
    /// The liveness watchdog evicted this session (stale lease during a
    /// commit); the op was not accepted. Retry on a fresh session.
    Evicted,
}

/// Result of an update operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Status {
    Ok,
    Pending,
    /// The liveness watchdog evicted this session; the op was not
    /// accepted. Retry on a fresh session.
    Evicted,
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Status::Ok => f.write_str("ok"),
            Status::Pending => f.write_str("pending"),
            Status::Evicted => f.write_str("session evicted"),
        }
    }
}

/// Kind of a user operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Read,
    Upsert,
    Rmw,
    Delete,
}

/// A completed formerly-pending operation.
#[derive(Debug, Clone, Copy)]
pub struct Completion<V> {
    pub serial: u64,
    pub kind: OpKind,
    pub key: u64,
    /// Read result (`None` = key absent) — unset for updates.
    pub value: Option<V>,
}

/// Per-session op counters.
#[derive(Debug, Default, Clone)]
pub struct SessionStats {
    pub reads: u64,
    pub upserts: u64,
    pub rmws: u64,
    pub deletes: u64,
    pub went_pending: u64,
    pub completed_pending: u64,
}

struct Pending<V> {
    serial: u64,
    kind: OpKind,
    key: u64,
    input: Option<V>,
    /// Full version this op belongs to (its transaction version at
    /// acceptance).
    tag: u64,
    /// Fine grain: bucket whose shared latch this pending op holds.
    latch: Option<usize>,
    /// Coarse grain: key registered in the pending-v-keys guard set.
    guarded: bool,
    io: Option<IoRead>,
    /// First on-disk address of the chain `io` walks (see
    /// [`Outcome::Pend`]).
    io_chain: Address,
    /// Accepted while an earlier op on the same key was pending: it runs
    /// only after that op completes, so a session's ops on one key take
    /// effect in serial order.
    queued: bool,
}

enum Outcome<V> {
    Done(Option<V>),
    /// Must wait; optionally with an I/O already issued. The read
    /// fetches the chain's first on-disk record, or one reached from it
    /// by `prev` pointers; the address given is that first one. The
    /// chain below it is immutable, so a fetch is still on the chain as
    /// long as the chain still leaves memory there.
    Pend(Option<(Address, IoRead)>),
    /// CPR shift detected in prepare: refresh and retry.
    Shift,
    /// Index CAS lost a race: retry immediately.
    Retry,
}

/// A client session. Not `Sync`: owned by one thread, as in the paper.
pub struct FasterSession<V: Pod> {
    store: Arc<StoreInner<V>>,
    /// The shared session protocol; its serial counts *accepted* ops.
    core: SessionCore,
    pending: Vec<Pending<V>>,
    completions: Vec<Completion<V>>,
    scratch: Vec<u64>,
    scratch2: Vec<u64>,
    /// Test hook: runs right after the session enters an operation
    /// (busy = in-txn, before the op touches the log).
    pause_in_op: Option<Box<dyn FnMut() + Send>>,
    pub stats: SessionStats,
}

impl<V: Pod> FasterSession<V> {
    pub(crate) fn new(store: Arc<StoreInner<V>>, guid: u64, start_serial: u64) -> Self {
        let core = SessionCore::attach(&store, guid, start_serial, store.refresh_every);
        if core.is_live() {
            // Clear any offline-pending leftovers from a prior tenant of
            // this slot.
            store.offline_pending.lock().remove(&core.slot());
        }
        FasterSession {
            store,
            core,
            pending: Vec::new(),
            completions: Vec::new(),
            scratch: Vec::new(),
            scratch2: Vec::new(),
            pause_in_op: None,
            stats: SessionStats::default(),
        }
    }

    /// Test hook: invoked after entering an operation, before the log is
    /// touched.
    #[doc(hidden)]
    pub fn set_pause_in_op(&mut self, f: impl FnMut() + Send + 'static) {
        self.pause_in_op = Some(Box::new(f));
    }

    /// True once the watchdog has evicted this session.
    pub fn is_evicted(&self) -> bool {
        self.core.is_evicted(&self.store)
    }

    pub fn guid(&self) -> u64 {
        self.core.guid()
    }

    /// Serial of the most recently accepted operation.
    pub fn serial(&self) -> u64 {
        self.core.serial()
    }

    /// Structured snapshot of the session's identity and thread-local
    /// CPR state.
    pub fn info(&self) -> SessionInfo {
        self.core.info()
    }

    /// Number of operations awaiting completion.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Largest serial known durable: every op with serial ≤ this survives
    /// a crash (the session's committed CPR prefix).
    pub fn durable_serial(&mut self) -> u64 {
        self.core.durable_serial(&self.store)
    }

    /// Move completed formerly-pending results into `out`.
    pub fn drain_completions(&mut self, out: &mut Vec<Completion<V>>) {
        out.append(&mut self.completions);
    }

    /// Publish the local epoch, adopt global state changes (marking the
    /// CPR point on crossing one), and retry pending operations.
    pub fn refresh(&mut self) {
        let slot = self.core.slot();
        let on_change = protect_on_prepare(&self.store, slot, &mut self.pending);
        self.core.refresh(&self.store, on_change);
        if self.core.evicted() {
            self.drop_cancelled_pendings();
            return;
        }
        if self.core.phase() != Phase::Rest {
            // A commit is in flight: cede the CPU so the checkpoint and
            // device threads make progress even on a single core.
            std::thread::yield_now();
        }
        self.complete_pending();
    }

    /// Retry pending operations in issue order; completed ones become
    /// [`Completion`]s. Returns the number completed this call.
    pub fn complete_pending(&mut self) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        if self.core.is_evicted(&self.store) {
            self.core.mark_evicted();
            self.drop_cancelled_pendings();
            return 0;
        }
        let mut ops = std::mem::take(&mut self.pending);
        let mut completed = 0;
        let mut i = 0;
        while i < ops.len() {
            // Pending retries apply writes: re-check ownership before each
            // one so an evicted session stops growing the database. A
            // merely-suspended session reactivates itself and proceeds.
            match self.core.reclaim(&self.store) {
                Ownership::Held => {}
                Ownership::Reactivated => continue,
                Ownership::Evicted => break,
            }
            if ops[i].queued && ops[..i].iter().any(|p| p.key == ops[i].key) {
                i += 1;
                continue;
            }
            let op = &mut ops[i];
            let io_data: Option<(Address, Vec<u8>)> = match &op.io {
                Some(io) if io.handle.is_done() => {
                    if io.handle.wait().is_ok() {
                        Some((op.io_chain, io.buf.lock().clone()))
                    } else {
                        // Read raced an in-flight flush; drop and retry
                        // through the normal path.
                        op.io = None;
                        i += 1;
                        continue;
                    }
                }
                Some(_) => {
                    i += 1;
                    continue; // still in flight
                }
                None => None,
            };
            let outcome = self.run_op(
                op.kind,
                op.key,
                op.input,
                op.tag,
                io_data.as_ref().map(|(a, b)| (*a, b.as_slice())),
            );
            let op = &mut ops[i];
            match outcome {
                Outcome::Done(value) => {
                    self.finish_pending(op, value);
                    completed += 1;
                    ops.remove(i);
                }
                Outcome::Pend(io) => {
                    match io {
                        Some((chain, read)) => {
                            op.io_chain = chain;
                            op.io = Some(read);
                        }
                        None => op.io = None,
                    }
                    i += 1;
                }
                // CAS race: re-run the same op immediately.
                Outcome::Retry => {}
                // An accepted op keeps its tag, and nothing here refreshes
                // the session, so a retry could never make progress.
                Outcome::Shift => panic!(
                    "pending op cannot shift: session {} serial {} tag {}, session view {:?}, global {:?}",
                    self.core.guid(),
                    op.serial,
                    op.tag,
                    (self.core.phase(), self.core.version()),
                    self.store.state.load(),
                ),
            }
        }
        debug_assert!(self.pending.is_empty());
        self.pending = ops;
        if self.core.evicted() {
            self.drop_cancelled_pendings();
        }
        self.stats.completed_pending += completed as u64;
        completed
    }

    fn finish_pending(&mut self, op: &mut Pending<V>, value: Option<V>) {
        if self.core.is_live() {
            // The offline-pending entry is the ownership token for this
            // op's protections: remove it and release per the *entry* (the
            // watchdog may hold a fresher view of the latches than the
            // local op after an eviction race).
            let owned = {
                let mut map = self.store.offline_pending.lock();
                map.get_mut(&self.core.slot()).and_then(|gs| {
                    gs.iter()
                        .position(|g| g.serial == op.serial)
                        .map(|i| gs.swap_remove(i))
                })
            };
            op.latch = None;
            op.guarded = false;
            let Some(g) = owned else {
                // Cancelled by the watchdog: protections already released,
                // the session is evicted, the result is dropped.
                self.core.mark_evicted();
                return;
            };
            if let Some(b) = g.latch {
                self.store.latches[b].release_shared();
            }
            if let Some(k) = g.guarded_key {
                self.store.pending_v_keys.lock().remove(&k);
            }
            self.store.pending_count[(g.tag & 1) as usize].fetch_sub(1, Ordering::AcqRel);
        } else {
            if let Some(b) = op.latch.take() {
                self.store.latches[b].release_shared();
            }
            if op.guarded {
                self.store.pending_v_keys.lock().remove(&op.key);
                op.guarded = false;
            }
            self.store.pending_count[(op.tag & 1) as usize].fetch_sub(1, Ordering::AcqRel);
        }
        self.completions.push(Completion {
            serial: op.serial,
            kind: op.kind,
            key: op.key,
            value,
        });
    }

    /// Drop local pending ops whose offline entry is gone (cancelled by
    /// the watchdog at eviction): their protections are already released
    /// and their counts already decremented — just forget them.
    fn drop_cancelled_pendings(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let live: Vec<u64> = {
            let map = self.store.offline_pending.lock();
            map.get(&self.core.slot())
                .map(|gs| gs.iter().map(|g| g.serial).collect())
                .unwrap_or_default()
        };
        self.pending.retain(|op| live.contains(&op.serial));
    }

    // ---- public operations ------------------------------------------------

    pub fn read(&mut self, key: u64) -> ReadResult<V> {
        match self.op(OpKind::Read, key, None) {
            Some(DriveResult::Done(Some(v))) => ReadResult::Found(v),
            Some(DriveResult::Done(None)) => ReadResult::NotFound,
            Some(DriveResult::Pending) => ReadResult::Pending,
            None => ReadResult::Evicted,
        }
    }

    pub fn upsert(&mut self, key: u64, value: V) -> Status {
        self.update(OpKind::Upsert, key, Some(value))
    }

    /// Read-modify-write: `new = rmw(old, input)`; a missing key is
    /// initialized to `input`.
    pub fn rmw(&mut self, key: u64, input: V) -> Status {
        self.update(OpKind::Rmw, key, Some(input))
    }

    pub fn delete(&mut self, key: u64) -> Status {
        self.update(OpKind::Delete, key, None)
    }

    #[inline]
    fn update(&mut self, kind: OpKind, key: u64, input: Option<V>) -> Status {
        match self.op(kind, key, input) {
            Some(DriveResult::Done(_)) => Status::Ok,
            Some(DriveResult::Pending) => Status::Pending,
            None => Status::Evicted,
        }
    }

    /// The one entry of every user operation: periodic refresh, the entry
    /// protocol against the watchdog, serial and counters, the op itself,
    /// and metrics. `None` means the session is evicted and the op was not
    /// accepted. Completed ops contribute a latency sample, evicted ops
    /// count as aborts, pendings are sampled at completion.
    #[inline]
    fn op(&mut self, kind: OpKind, key: u64, input: Option<V>) -> Option<DriveResult<V>> {
        if self.core.refresh_due() {
            self.refresh();
        }
        let metrics_on = self.store.metrics_on;
        let t0 = metrics_on.then(Instant::now);
        if !self.enter_op() {
            if metrics_on {
                self.store.metrics.record_abort();
            }
            return None;
        }
        self.core.bump_serial();
        let stat = match kind {
            OpKind::Read => &mut self.stats.reads,
            OpKind::Upsert => &mut self.stats.upserts,
            OpKind::Rmw => &mut self.stats.rmws,
            OpKind::Delete => &mut self.stats.deletes,
        };
        *stat += 1;
        let out = self.drive(kind, key, input);
        if let (Some(t0), DriveResult::Done(_)) = (t0, &out) {
            let reads = (kind == OpKind::Read) as u64;
            self.store
                .metrics
                .record_commit(t0.elapsed(), reads, 1 - reads);
        }
        self.core.set_busy(&self.store, BusyState::Idle);
        Some(out)
    }

    /// Enter an operation (see [`SessionCore::begin_op`]), then run the
    /// test pause hook. Returns `false` once evicted.
    #[inline]
    fn enter_op(&mut self) -> bool {
        if !self.core.is_live() {
            return true;
        }
        let slot = self.core.slot();
        let on_change = protect_on_prepare(&self.store, slot, &mut self.pending);
        if !self.core.begin_op(&self.store, on_change) {
            return false;
        }
        if let Some(mut f) = self.pause_in_op.take() {
            f();
            self.pause_in_op = Some(f);
        }
        true
    }

    // ---- op driver ----------------------------------------------------------

    fn drive(&mut self, kind: OpKind, key: u64, input: Option<V>) -> DriveResult<V> {
        loop {
            // Fine grain, prepare phase: every request takes the bucket's
            // shared latch (paper Alg. 4); failure means the CPR shift
            // has begun.
            let mut latch: Option<usize> = None;
            if self.core.phase() == Phase::Prepare && self.store.grain == VersionGrain::Fine {
                let b = self.store.index.bucket_index(key_hash(key));
                if !self.store.latches[b].try_shared() {
                    self.refresh(); // CPR_SHIFT_DETECTED
                    continue;
                }
                latch = Some(b);
            }
            let tag = self.core.txn_version();
            // Behind a pending op on the same key: wait for it, or this
            // op could take effect first.
            let queued = self.pending.iter().any(|p| p.key == key);
            let outcome = if queued {
                Outcome::Pend(None)
            } else {
                self.run_op(kind, key, input, tag, None)
            };
            match outcome {
                Outcome::Done(v) => {
                    if let Some(b) = latch {
                        self.store.latches[b].release_shared();
                    }
                    self.core.publish_serial(&self.store);
                    return DriveResult::Done(v);
                }
                Outcome::Shift => {
                    if let Some(b) = latch {
                        self.store.latches[b].release_shared();
                    }
                    self.refresh();
                    continue;
                }
                Outcome::Retry => {
                    if let Some(b) = latch {
                        self.store.latches[b].release_shared();
                    }
                    continue;
                }
                Outcome::Pend(io) => {
                    // Pre-point pendings keep their protection: the shared
                    // latch (fine) or a key guard (coarse).
                    let keep_latch = latch.take_if(|_| tag == self.core.version());
                    if let Some(b) = latch {
                        self.store.latches[b].release_shared();
                    }
                    let guarded = self.store.grain == VersionGrain::Coarse
                        && tag == self.core.version()
                        && self.core.phase() != Phase::Rest;
                    if guarded {
                        self.store.pending_v_keys.lock().insert(key);
                    }
                    self.store.pending_count[(tag & 1) as usize].fetch_add(1, Ordering::AcqRel);
                    if self.core.is_live() {
                        // Mirror the op's protections for the watchdog.
                        self.store
                            .offline_pending
                            .lock()
                            .entry(self.core.slot())
                            .or_default()
                            .push(OfflineGuard {
                                serial: self.core.serial(),
                                tag,
                                latch: keep_latch,
                                guarded_key: guarded.then_some(key),
                            });
                    }
                    let (io_chain, io) = match io {
                        Some((c, r)) => (c, Some(r)),
                        None => (INVALID_ADDRESS, None),
                    };
                    self.pending.push(Pending {
                        serial: self.core.serial(),
                        kind,
                        key,
                        input,
                        tag,
                        latch: keep_latch,
                        guarded,
                        io,
                        io_chain,
                        queued,
                    });
                    self.stats.went_pending += 1;
                    self.core.publish_serial(&self.store);
                    return DriveResult::Pending;
                }
            }
        }
    }

    /// One attempt at an operation. `io_data` carries a fetched disk
    /// record (addr, bytes) when resolving an I/O pending op.
    fn run_op(
        &mut self,
        kind: OpKind,
        key: u64,
        input: Option<V>,
        tag: u64,
        io_data: Option<(Address, &[u8])>,
    ) -> Outcome<V> {
        let store = Arc::clone(&self.store);
        let hl = &store.hlog;
        let hash = key_hash(key);

        let slot = match kind {
            OpKind::Read => match store.index.find(hash) {
                Some(s) => s,
                None => return Outcome::Done(None),
            },
            _ => store.index.find_or_create(hash),
        };
        let entry = slot.address();
        let head = hl.head();
        let ro = hl.read_only();
        let safe_ro = hl.safe_read_only();

        // Walk the in-memory chain for our key.
        let mut addr = entry;
        let mut found: Option<(Address, Header)> = None;
        while addr >= hl.begin_address() {
            if addr < head {
                break; // continues on disk
            }
            let h = hl.header_at(addr);
            if !h.invalid && hl.key_at(addr) == key {
                found = Some((addr, h));
                break;
            }
            addr = h.prev;
        }

        let vnext13 = version13(self.core.version() + 1);
        let is_next = tag > self.core.version();

        match found {
            Some((_raddr, h)) if h.tombstone => match kind {
                OpKind::Read => Outcome::Done(None),
                OpKind::Delete => Outcome::Done(None),
                // Re-create over the tombstone.
                _ => self.append_record(&slot, entry, key, kind, input, None, tag),
            },
            Some((raddr, h)) => {
                // Prepare-phase shift detection: a record already at
                // version v+1 means the commit has begun (Alg. 4).
                if self.core.phase() == Phase::Prepare
                    && tag == self.core.version()
                    && h.version == vnext13
                {
                    return Outcome::Shift;
                }
                if kind == OpKind::Read {
                    self.scratch.resize(store.value_words, 0);
                    hl.value_at(raddr, &mut self.scratch);
                    return Outcome::Done(Some(value_from_words(&self.scratch)));
                }
                if is_next && h.version != vnext13 {
                    // Post-point update over a pre-point record: hand the
                    // record over to version v+1 (Alg. 5).
                    return self
                        .handoff_update(&slot, entry, raddr, key, kind, input, tag, safe_ro);
                }
                // Same-version regional logic.
                if raddr >= ro {
                    self.update_in_place(raddr, h, kind, input);
                    Outcome::Done(None)
                } else if raddr >= safe_ro {
                    Outcome::Pend(None) // fuzzy region (Sec. 5.1)
                } else {
                    // Immutable (read-only region): read-copy-update.
                    self.append_record(&slot, entry, key, kind, input, Some(raddr), tag)
                }
            }
            None if addr >= hl.begin_address() => {
                // Chain continues on disk at `addr`.
                self.resolve_disk(&slot, entry, addr, key, kind, input, tag, io_data, safe_ro)
            }
            None => match kind {
                OpKind::Read | OpKind::Delete => Outcome::Done(None),
                _ => self.append_record(&slot, entry, key, kind, input, None, tag),
            },
        }
    }

    /// In-place update in the mutable region.
    fn update_in_place(&mut self, raddr: Address, h: Header, kind: OpKind, input: Option<V>) {
        let store = &self.store;
        let hl = &store.hlog;
        match kind {
            OpKind::Upsert => {
                value_to_words(
                    &input.expect("upsert input"),
                    &mut self.scratch,
                    store.value_words,
                );
                hl.set_value_at(raddr, &self.scratch);
            }
            OpKind::Rmw => {
                let input = input.expect("rmw input");
                if store.value_words == 1 {
                    // Atomic single-word RMW (the paper's running sums).
                    loop {
                        let old = hl.word(raddr + 16).load(Ordering::Acquire);
                        let oldv = value_from_words::<V>(&[old]);
                        value_to_words(&(store.rmw)(oldv, input), &mut self.scratch, 1);
                        if hl.cas_value_word(raddr, old, self.scratch[0]) {
                            break;
                        }
                    }
                } else {
                    self.scratch.resize(store.value_words, 0);
                    hl.value_at(raddr, &mut self.scratch);
                    let oldv = value_from_words::<V>(&self.scratch);
                    value_to_words(
                        &(store.rmw)(oldv, input),
                        &mut self.scratch2,
                        store.value_words,
                    );
                    hl.set_value_at(raddr, &self.scratch2);
                }
            }
            OpKind::Delete => {
                store.hlog.set_header(raddr, h.with_tombstone());
            }
            OpKind::Read => unreachable!("reads never update"),
        }
    }

    /// Post-point update of a pre-point record (paper Alg. 5): the record
    /// must be copied to the tail as version v+1 without racing pre-point
    /// in-place updates.
    #[allow(clippy::too_many_arguments)]
    fn handoff_update(
        &mut self,
        slot: &Slot<'_>,
        entry: Address,
        raddr: Address,
        key: u64,
        kind: OpKind,
        input: Option<V>,
        tag: u64,
        safe_ro: Address,
    ) -> Outcome<V> {
        let store = Arc::clone(&self.store);
        match store.grain {
            VersionGrain::Fine => {
                let b = store.index.bucket_index(key_hash(key));
                match self.core.phase() {
                    Phase::InProgress => {
                        self.core.set_busy(&self.store, BusyState::Locking);
                        let out = if store.latches[b].try_exclusive() {
                            let out =
                                self.append_record(slot, entry, key, kind, input, Some(raddr), tag);
                            store.latches[b].release_exclusive();
                            out
                        } else {
                            Outcome::Pend(None)
                        };
                        self.core.set_busy(&self.store, BusyState::InTxn);
                        out
                    }
                    Phase::WaitPending => {
                        if store.latches[b].shared_count() == 0 {
                            self.append_record(slot, entry, key, kind, input, Some(raddr), tag)
                        } else {
                            Outcome::Pend(None)
                        }
                    }
                    // Wait-flush (and the rest-phase tail of a commit):
                    // all pre-point work is done; copy freely.
                    _ => self.append_record(slot, entry, key, kind, input, Some(raddr), tag),
                }
            }
            VersionGrain::Coarse => {
                if store.pending_v_keys.lock().contains(&key) {
                    return Outcome::Pend(None);
                }
                if raddr < safe_ro || self.core.phase() >= Phase::WaitPending {
                    self.append_record(slot, entry, key, kind, input, Some(raddr), tag)
                } else {
                    // The pre-point record is still mutable: wait until it
                    // is safely immutable (Appx. C).
                    Outcome::Pend(None)
                }
            }
        }
    }

    /// Resolve an operation whose chain continues on disk at `disk_addr`.
    /// Each call inspects at most one fetched record; a record of
    /// another key (sharing the slot) or one recovery marked invalid
    /// sends the op pending again on its `prev`, as the in-memory walk
    /// steps over both.
    #[allow(clippy::too_many_arguments)]
    fn resolve_disk(
        &mut self,
        slot: &Slot<'_>,
        entry: Address,
        disk_addr: Address,
        key: u64,
        kind: OpKind,
        input: Option<V>,
        tag: u64,
        io_data: Option<(Address, &[u8])>,
        safe_ro: Address,
    ) -> Outcome<V> {
        let store = Arc::clone(&self.store);
        let hl = &store.hlog;
        let rec_size = hl.rec.record_size();

        if let Some((chain, bytes)) = io_data {
            if chain == disk_addr && bytes.len() >= rec_size {
                let h = Header::unpack(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
                let rkey = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
                if !h.invalid && rkey == key {
                    if h.tombstone {
                        return match kind {
                            OpKind::Read | OpKind::Delete => Outcome::Done(None),
                            _ => self.append_record(slot, entry, key, kind, input, None, tag),
                        };
                    }
                    let mut words = vec![0u64; store.value_words];
                    for (i, w) in words.iter_mut().enumerate() {
                        *w = u64::from_le_bytes(bytes[16 + 8 * i..24 + 8 * i].try_into().unwrap());
                    }
                    let value: V = value_from_words(&words);
                    return match kind {
                        OpKind::Read => Outcome::Done(Some(value)),
                        OpKind::Delete => self.append_with_base(
                            slot,
                            entry,
                            key,
                            kind,
                            input,
                            Some(value),
                            tag,
                            safe_ro,
                        ),
                        OpKind::Upsert | OpKind::Rmw => self.append_with_base(
                            slot,
                            entry,
                            key,
                            kind,
                            input,
                            Some(value),
                            tag,
                            safe_ro,
                        ),
                    };
                }
                // Wrong key (hash-chain collision) or invalid: follow the
                // chain further down the log.
                if h.prev >= hl.begin_address() {
                    return self.issue_or_wait(disk_addr, h.prev);
                }
                // Chain exhausted: key absent.
                return match kind {
                    OpKind::Read | OpKind::Delete => Outcome::Done(None),
                    _ => self.append_record(slot, entry, key, kind, input, None, tag),
                };
            }
            // Stale fetch (the chain now leaves memory elsewhere): walk
            // its on-disk part again from the start.
        }
        self.issue_or_wait(disk_addr, disk_addr)
    }

    /// Read the record at `addr`, on the chain whose on-disk part starts
    /// at `start`.
    fn issue_or_wait(&mut self, start: Address, addr: Address) -> Outcome<V> {
        let hl = &self.store.hlog;
        if addr < hl.flushed_durable() {
            let read = self.store.io.read(addr, hl.rec.record_size());
            Outcome::Pend(Some((start, read)))
        } else {
            // Flush still in flight; retry on a later refresh.
            Outcome::Pend(None)
        }
    }

    /// RCU / insert with a disk-fetched base value: still subject to the
    /// hand-off rules when the op is post-point.
    #[allow(clippy::too_many_arguments)]
    fn append_with_base(
        &mut self,
        slot: &Slot<'_>,
        entry: Address,
        key: u64,
        kind: OpKind,
        input: Option<V>,
        base: Option<V>,
        tag: u64,
        safe_ro: Address,
    ) -> Outcome<V> {
        let store = Arc::clone(&self.store);
        if tag > self.core.version() {
            // Post-point op resolving a disk record: respect the same
            // protections as an in-memory hand-off.
            match store.grain {
                VersionGrain::Fine => {
                    let b = store.index.bucket_index(key_hash(key));
                    if self.core.phase() == Phase::InProgress {
                        self.core.set_busy(&self.store, BusyState::Locking);
                        let out = if store.latches[b].try_exclusive() {
                            let out =
                                self.append_base_inner(slot, entry, key, kind, input, base, tag);
                            store.latches[b].release_exclusive();
                            out
                        } else {
                            Outcome::Pend(None)
                        };
                        self.core.set_busy(&self.store, BusyState::InTxn);
                        return out;
                    }
                    if self.core.phase() == Phase::WaitPending
                        && store.latches[b].shared_count() != 0
                    {
                        return Outcome::Pend(None);
                    }
                }
                VersionGrain::Coarse => {
                    if store.pending_v_keys.lock().contains(&key) {
                        return Outcome::Pend(None);
                    }
                    let _ = safe_ro; // disk records are immutable by definition
                }
            }
        }
        self.append_base_inner(slot, entry, key, kind, input, base, tag)
    }

    #[allow(clippy::too_many_arguments)]
    fn append_base_inner(
        &mut self,
        slot: &Slot<'_>,
        entry: Address,
        key: u64,
        kind: OpKind,
        input: Option<V>,
        base: Option<V>,
        tag: u64,
    ) -> Outcome<V> {
        let store = Arc::clone(&self.store);
        let value = match (kind, base) {
            (OpKind::Upsert, _) => input.expect("upsert input"),
            (OpKind::Rmw, Some(b)) => (store.rmw)(b, input.expect("rmw input")),
            (OpKind::Rmw, None) => input.expect("rmw input"),
            (OpKind::Delete, b) => {
                b.unwrap_or_else(|| value_from_words(&vec![0; store.value_words]))
            }
            (OpKind::Read, _) => unreachable!(),
        };
        value_to_words(&value, &mut self.scratch, store.value_words);
        let addr = store.hlog.allocate(self.core.guard());
        let mut header = Header::new(entry, tag);
        if kind == OpKind::Delete {
            header = header.with_tombstone();
        }
        store.hlog.write_record(addr, header, key, &self.scratch);
        if slot.try_update(entry, addr) {
            Outcome::Done(None)
        } else {
            store.hlog.set_header(addr, header.with_invalid());
            Outcome::Retry
        }
    }

    /// Append a new version of `key` at the tail (RCU when `src` names an
    /// immutable source record, plain insert otherwise), then CAS the
    /// index slot.
    #[allow(clippy::too_many_arguments)]
    fn append_record(
        &mut self,
        slot: &Slot<'_>,
        entry: Address,
        key: u64,
        kind: OpKind,
        input: Option<V>,
        src: Option<Address>,
        tag: u64,
    ) -> Outcome<V> {
        let base = src.map(|raddr| {
            self.scratch2.resize(self.store.value_words, 0);
            self.store.hlog.value_at(raddr, &mut self.scratch2);
            value_from_words::<V>(&self.scratch2)
        });
        self.append_base_inner(slot, entry, key, kind, input, base, tag)
    }
}

enum DriveResult<V> {
    Done(Option<V>),
    Pending,
}

/// The hook [`SessionCore`] runs on every state change before publishing
/// it: entering prepare protects pre-existing pending requests so
/// post-point writers cannot overtake them (paper Sec. 6.2.1). A session
/// that slept through the end of the previous commit arrives from its
/// wait-pending or wait-flush, where requests already carried version
/// `v`.
fn protect_on_prepare<'a, V: Pod>(
    store: &'a StoreInner<V>,
    slot: usize,
    pending: &'a mut [Pending<V>],
) -> impl FnMut(Phase, u64) + 'a {
    move |phase, v| {
        if phase == Phase::Prepare {
            protect_pendings(store, slot, pending, v);
        }
    }
}

/// Fine grain: take shared latches (coarse: register key guards) for
/// pending requests of version `v` or older when entering prepare of `v`.
fn protect_pendings<V: Pod>(
    store: &StoreInner<V>,
    slot: usize,
    pending: &mut [Pending<V>],
    v: u64,
) {
    match store.grain {
        VersionGrain::Fine => {
            for op in pending.iter_mut() {
                if op.tag <= v && op.latch.is_none() {
                    let b = store.index.bucket_index(key_hash(op.key));
                    // Cannot fail persistently: exclusive holders only
                    // exist in in-progress, which starts later.
                    while !store.latches[b].try_shared() {
                        std::hint::spin_loop();
                    }
                    op.latch = Some(b);
                }
            }
        }
        VersionGrain::Coarse => {
            let mut guard = store.pending_v_keys.lock();
            for op in pending.iter_mut() {
                if op.tag <= v && !op.guarded {
                    guard.insert(op.key);
                    op.guarded = true;
                }
            }
        }
    }
    if store.liveness.is_some() {
        // Mirror the newly-taken protections so a later watchdog
        // cancellation releases them. The lease was stamped at the top of
        // this refresh, so the watchdog cannot act on this session between
        // the acquisition above and the mirror landing here.
        let mut map = store.offline_pending.lock();
        if let Some(gs) = map.get_mut(&slot) {
            for op in pending.iter() {
                if let Some(g) = gs.iter_mut().find(|g| g.serial == op.serial) {
                    g.latch = op.latch;
                    g.guarded_key = op.guarded.then_some(op.key);
                }
            }
        }
    }
}

impl<V: Pod> Drop for FasterSession<V> {
    fn drop(&mut self) {
        // Drain pendings so an in-flight commit is not stranded. An
        // evicted session skips the drain: its pendings were cancelled by
        // the watchdog and `refresh` clears them on the first pass.
        for _ in 0..10_000 {
            if self.pending.is_empty() || self.core.evicted() {
                break;
            }
            self.refresh();
            if !self.pending.is_empty() {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        }
        // Force-release anything still stuck (abandoned ops). With the
        // watchdog on, the offline map arbitrates: only protections whose
        // entry is still present are ours to release.
        let ops = std::mem::take(&mut self.pending);
        if self.core.is_live() {
            let entries = self.store.offline_pending.lock().remove(&self.core.slot());
            for g in entries.unwrap_or_default() {
                if let Some(b) = g.latch {
                    self.store.latches[b].release_shared();
                }
                if let Some(k) = g.guarded_key {
                    self.store.pending_v_keys.lock().remove(&k);
                }
                self.store.pending_count[(g.tag & 1) as usize].fetch_sub(1, Ordering::AcqRel);
            }
        } else {
            for op in ops {
                if let Some(b) = op.latch {
                    self.store.latches[b].release_shared();
                }
                if op.guarded {
                    self.store.pending_v_keys.lock().remove(&op.key);
                }
                self.store.pending_count[(op.tag & 1) as usize].fetch_sub(1, Ordering::AcqRel);
            }
        }
        self.core.detach(&self.store);
    }
}
