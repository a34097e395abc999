//! The FASTER key-value store with CPR durability (paper Secs. 5–6).

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cpr_core::commit::{self, CommitCore, CommitEngine};
use cpr_core::liveness::{CommitOutcome, LivenessConfig};
use cpr_core::{CheckpointManifest, CheckpointVersion, NoWaitLock, Phase, Pod, SessionCpr};
use cpr_metrics::{MetricsReport, Registry};
use cpr_storage::{
    CheckpointStore, Device, FaultDevice, FaultInjector, FileDevice, IoProfile, MeteredDevice,
};
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use crate::hlog::{HlogConfig, HybridLog};
use crate::index::HashIndex;
use crate::io::IoPool;
use crate::session::FasterSession;

/// How the volatile version-`v` records are captured (paper Appx. D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointVariant {
    /// Advance the read-only offset to the tail: the log file itself is
    /// the (incremental) checkpoint. Post-commit updates pay a
    /// read-copy-update until the working set migrates back.
    FoldOver,
    /// Write the volatile region to a separate snapshot file; the mutable
    /// region reopens for in-place updates right after the commit.
    Snapshot,
}

/// How threads hand records over to the next version (paper Appx. C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionGrain {
    /// Per-hash-bucket latches (lower latency, prepare-phase latch cost).
    Fine,
    /// Use the safe-read-only offset as a coarse marker; contended
    /// requests go pending instead.
    Coarse,
}

/// Store configuration, set through [`FasterBuilder`]; each field is
/// documented on the builder method of the same name.
pub(crate) struct FasterOptions<V: Pod> {
    pub index_buckets: usize,
    pub hlog: HlogConfig,
    /// Directory holding `log.dat` and the checkpoint store.
    pub dir: PathBuf,
    pub refresh_every: u64,
    pub grain: VersionGrain,
    pub max_sessions: usize,
    pub io_threads: usize,
    pub write_queues: usize,
    pub recovery_threads: usize,
    pub io_profile: IoProfile,
    pub rmw: fn(V, V) -> V,
    pub fault: Option<Arc<FaultInjector>>,
    pub liveness: Option<LivenessConfig>,
    pub metrics: Arc<Registry>,
}

impl<V: Pod> FasterOptions<V> {
    /// Baseline configuration shared by every entry point. The default
    /// `rmw` is last-writer-wins (`new = input`); the default `hlog`
    /// sizes `value_size` for `V`.
    pub(crate) fn defaults(dir: PathBuf) -> Self {
        let mut hlog = HlogConfig::small_for_tests();
        hlog.value_size = std::mem::size_of::<V>();
        FasterOptions {
            index_buckets: 1 << 12,
            hlog,
            dir,
            refresh_every: 64,
            grain: VersionGrain::Fine,
            max_sessions: 64,
            io_threads: 2,
            write_queues: cpr_storage::env_io_threads(),
            recovery_threads: cpr_storage::env_io_threads(),
            io_profile: IoProfile::NONE,
            rmw: |_old, input| input,
            fault: None,
            liveness: None,
            metrics: Registry::noop(),
        }
    }
}

/// Fluent builder for a [`FasterKv`] store; obtained from
/// [`FasterKv::builder`]. Terminal methods are [`open`](Self::open)
/// (fresh store, truncates any existing log) and
/// [`recover`](Self::recover) (Alg. 3 recovery from the newest committed
/// checkpoint).
///
/// Defaults: `index_buckets = 4096`, a small test-sized hybrid log with
/// `value_size = size_of::<V>()`, `refresh_every = 64`,
/// `grain = VersionGrain::Fine`, `max_sessions = 64`, `io_threads = 2`,
/// last-writer-wins RMW (`new = input`), no fault injection, no liveness
/// watchdog, and a disabled metrics registry. Use
/// [`FasterBuilder::u64_sums`] for the paper's summing YCSB workload.
///
/// ```
/// use cpr_faster::{FasterKv, Status};
///
/// let dir = tempfile::tempdir().unwrap();
/// let kv: FasterKv<u64> = FasterKv::builder(dir.path())
///     .refresh_every(16)
///     .open()
///     .unwrap();
/// let mut session = kv.start_session(1);
/// assert_eq!(session.upsert(1, 42), Status::Ok);
/// ```
pub struct FasterBuilder<V: Pod> {
    opts: FasterOptions<V>,
}

impl<V: Pod> std::fmt::Debug for FasterBuilder<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FasterBuilder")
            .field("dir", &self.opts.dir)
            .field("index_buckets", &self.opts.index_buckets)
            .field("grain", &self.opts.grain)
            .finish_non_exhaustive()
    }
}

impl FasterBuilder<u64> {
    /// The paper's YCSB RMW workload preset: a running per-key sum.
    pub fn u64_sums(dir: impl Into<PathBuf>) -> Self {
        FasterBuilder::new(dir).rmw(|old, input| old.wrapping_add(input))
    }
}

impl<V: Pod> FasterBuilder<V> {
    /// Start from the documented defaults, rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FasterBuilder {
            opts: FasterOptions::defaults(dir.into()),
        }
    }

    /// Number of hash-index buckets (8 entries each).
    pub fn index_buckets(mut self, n: usize) -> Self {
        self.opts.index_buckets = n;
        self
    }
    /// Hybrid-log geometry; `value_size` must equal `size_of::<V>()`.
    pub fn hlog(mut self, hlog: HlogConfig) -> Self {
        self.opts.hlog = hlog;
        self
    }
    /// Ops between automatic session refreshes.
    pub fn refresh_every(mut self, k: u64) -> Self {
        self.opts.refresh_every = k;
        self
    }
    /// Version-shift granularity (paper Appx. C).
    pub fn grain(mut self, g: VersionGrain) -> Self {
        self.opts.grain = g;
        self
    }
    /// Maximum number of concurrently live sessions.
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.opts.max_sessions = n;
        self
    }
    /// Size of the background I/O completion pool.
    pub fn io_threads(mut self, n: usize) -> Self {
        self.opts.io_threads = n;
        self
    }
    /// Writer queues for the log device: checkpoint flushes stripe their
    /// chunks across this many writer threads (default: the
    /// `CPR_IO_THREADS` environment variable, 1 when unset).
    pub fn write_queues(mut self, n: usize) -> Self {
        self.opts.write_queues = n.max(1);
        self
    }
    /// Worker threads for the recovery scan of `[S, E)` (default: the
    /// `CPR_IO_THREADS` environment variable, 1 when unset). The
    /// recovered state is byte-identical at any thread count.
    pub fn recovery_threads(mut self, n: usize) -> Self {
        self.opts.recovery_threads = n.max(1);
        self
    }
    /// Simulated device speed profile for the log device, for benchmarks
    /// (default [`IoProfile::NONE`]: real hardware speed).
    pub fn io_profile(mut self, profile: IoProfile) -> Self {
        self.opts.io_profile = profile;
        self
    }
    /// RMW semantics: `new = rmw(old, input)`; a missing key starts from
    /// `input`.
    pub fn rmw(mut self, f: fn(V, V) -> V) -> Self {
        self.opts.rmw = f;
        self
    }
    /// Decorate the log device and checkpoint store with a scriptable
    /// fault injector (crash-recovery testing).
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.opts.fault = Some(injector);
        self
    }
    /// Enable the session liveness watchdog.
    pub fn liveness(mut self, cfg: LivenessConfig) -> Self {
        self.opts.liveness = Some(cfg);
        self
    }
    /// Attach a metrics registry (see [`cpr_metrics::Registry::new`]).
    pub fn metrics(mut self, registry: Arc<Registry>) -> Self {
        self.opts.metrics = registry;
        self
    }
    /// Open a fresh store (truncates any existing log).
    pub fn open(self) -> io::Result<FasterKv<V>> {
        FasterKv::open_inner(self.opts)
    }

    /// Recover from the newest committed checkpoint (paper Sec. 6.4 /
    /// Alg. 3). Returns the manifest used, if any.
    pub fn recover(self) -> io::Result<(FasterKv<V>, Option<CheckpointManifest>)> {
        crate::recovery::recover(self.opts)
    }
}

/// A checkpoint in flight.
pub(crate) struct CkptCtx {
    pub token: u64,
    pub variant: CheckpointVariant,
    pub log_only: bool,
    pub lhs: u64,
}

/// Mirror of the protections held by one pending operation, kept in a
/// shared registry (`StoreInner::offline_pending`) so the liveness
/// watchdog can cancel a dead session's pendings: release its shared
/// bucket latches and key guards and decrement the pending counters that
/// gate wait-pending → wait-flush. The map entry is the *ownership token*
/// for those releases — whoever removes it (owner on completion, watchdog
/// on eviction) performs them, so they can never happen twice.
pub(crate) struct OfflineGuard {
    pub serial: u64,
    /// Version the op was accepted under (indexes `pending_count`).
    pub tag: u64,
    pub latch: Option<usize>,
    pub guarded_key: Option<u64>,
}

pub(crate) struct StoreInner<V: Pod> {
    /// The commit state machine, session registry and epochs (shared
    /// with memdb; see [`cpr_core::commit`]).
    pub(crate) core: CommitCore<CkptRequest>,
    pub(crate) index: HashIndex,
    pub(crate) latches: Box<[NoWaitLock]>,
    pub(crate) hlog: Arc<HybridLog>,
    pub(crate) store: CheckpointStore,
    /// Outstanding pending operations per version parity (gates the
    /// wait-pending → wait-flush transition).
    pub(crate) pending_count: [CachePadded<AtomicU64>; 2],
    /// Coarse grain: keys with outstanding pre-point (version v) pending
    /// ops; post-point writers must not overtake them.
    pub(crate) pending_v_keys: Mutex<HashSet<u64>>,
    pub(crate) io: IoPool,
    pub(crate) ckpt: Mutex<Option<CkptCtx>>,
    /// Per-session-slot mirror of pending-op protections (see
    /// [`OfflineGuard`]). Populated only when liveness is on.
    pub(crate) offline_pending: Mutex<HashMap<usize, Vec<OfflineGuard>>>,
    pub(crate) refresh_every: u64,
    pub(crate) grain: VersionGrain,
    /// Log-device writer queues (for flush phase-timing attribution).
    pub(crate) write_queues: usize,
    pub(crate) rmw: fn(V, V) -> V,
    pub(crate) value_words: usize,
    /// Fault injector handle, kept so snapshots can report fault hits.
    pub(crate) fault: Option<Arc<FaultInjector>>,
}

/// What a checkpoint request asks for: its variant and whether it skips
/// the index (`log_only`).
pub(crate) type CkptRequest = (CheckpointVariant, bool);

/// The store *is* a commit core plus its log and index: sessions reach
/// the state machine, registry and epochs through this.
impl<V: Pod> std::ops::Deref for StoreInner<V> {
    type Target = CommitCore<CkptRequest>;
    fn deref(&self) -> &CommitCore<CkptRequest> {
        &self.core
    }
}

impl<V: Pod> CommitEngine for StoreInner<V> {
    type Request = CkptRequest;
    const PHASES: &'static [Phase] = &[Phase::InProgress, Phase::WaitPending, Phase::WaitFlush];

    fn kind(&self, (variant, log_only): CkptRequest) -> &'static str {
        match (variant, log_only) {
            (CheckpointVariant::FoldOver, false) => "fold-over",
            (CheckpointVariant::FoldOver, true) => "fold-over-log-only",
            (CheckpointVariant::Snapshot, false) => "snapshot",
            (CheckpointVariant::Snapshot, true) => "snapshot-log-only",
        }
    }

    fn begin(&self, _v: u64, (variant, log_only): CkptRequest) -> io::Result<()> {
        let token = self.store.begin()?;
        *self.ckpt.lock() = Some(CkptCtx {
            token,
            variant,
            log_only,
            lhs: self.hlog.tail(),
        });
        Ok(())
    }

    fn flush(&self, v: u64) -> Option<Vec<SessionCpr>> {
        crate::checkpoint::flush(self, v)
    }

    // Wait-flush is I/O-bound, not straggler-bound: `abort_flush` keeps
    // its default and a flush is never aborted.
    fn release(&self, _v: u64) {
        if let Some(ctx) = self.ckpt.lock().take() {
            let _ = self.store.abort(ctx.token);
            self.checkpoint_failures.fetch_add(1, Ordering::AcqRel);
        }
    }

    fn ready(&self, phase: Phase, v: u64) -> bool {
        phase != Phase::WaitPending
            || self.pending_count[(v & 1) as usize].load(Ordering::Acquire) == 0
    }

    fn has_pendings(&self, idx: usize) -> bool {
        self.offline_pending
            .lock()
            .get(&idx)
            .is_some_and(|gs| !gs.is_empty())
    }

    /// Remove and release every offline-pending entry of a session slot.
    /// The map entry is the ownership token: the owner's `finish_pending`
    /// finds it gone and releases nothing, so no protection is dropped
    /// twice.
    fn cancel_pendings(&self, idx: usize) -> Vec<u64> {
        let entries = self.offline_pending.lock().remove(&idx).unwrap_or_default();
        for g in &entries {
            if let Some(b) = g.latch {
                self.latches[b].release_shared();
            }
            if let Some(k) = g.guarded_key {
                self.pending_v_keys.lock().remove(&k);
            }
            self.pending_count[(g.tag & 1) as usize].fetch_sub(1, Ordering::AcqRel);
        }
        entries.iter().map(|g| g.serial).collect()
    }
}

/// Handle to a FASTER store; cheap to clone.
pub struct FasterKv<V: Pod> {
    pub(crate) inner: Arc<StoreInner<V>>,
}

impl<V: Pod> Clone for FasterKv<V> {
    fn clone(&self) -> Self {
        FasterKv {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V: Pod> FasterKv<V> {
    /// Fluent configuration starting from the documented defaults; see
    /// [`FasterBuilder`].
    pub fn builder(dir: impl Into<PathBuf>) -> FasterBuilder<V> {
        FasterBuilder::new(dir)
    }

    pub(crate) fn open_inner(opts: FasterOptions<V>) -> io::Result<Self> {
        std::fs::create_dir_all(&opts.dir)?;
        let base: Arc<dyn Device> = Arc::new(FileDevice::create_with(
            opts.dir.join("log.dat"),
            opts.write_queues,
            opts.io_profile,
        )?);
        let device: Arc<dyn Device> = match &opts.fault {
            Some(inj) => Arc::new(FaultDevice::new(base, Arc::clone(inj))),
            None => base,
        };
        Self::build(opts, device, None)
    }

    pub(crate) fn build(
        opts: FasterOptions<V>,
        device: Arc<dyn Device>,
        recovered: Option<(HashIndex, u64, HashMap<u64, u64>)>,
    ) -> io::Result<Self> {
        assert_eq!(
            opts.hlog.value_size,
            std::mem::size_of::<V>(),
            "hlog value_size must match size_of::<V>()"
        );
        let (index, version, sessions) = match recovered {
            Some((index, version, sessions)) => (index, version, sessions),
            None => (HashIndex::new(opts.index_buckets), 1, HashMap::new()),
        };
        let core = CommitCore::new(
            version,
            opts.max_sessions,
            opts.liveness.clone(),
            Arc::clone(&opts.metrics),
        );
        *core.durable_points.lock() = sessions;
        let device: Arc<dyn Device> = if core.metrics_on {
            Arc::new(MeteredDevice::new(device, Arc::clone(&opts.metrics)))
        } else {
            device
        };
        let hlog = HybridLog::new(opts.hlog, Arc::clone(&device), Arc::clone(&core.epoch));
        let latch_count = index.bucket_count();
        let store = CheckpointStore::open_with(opts.dir.join("checkpoints"), opts.fault.clone())?
            .with_metrics(Arc::clone(&opts.metrics));
        let io = IoPool::new(device, opts.io_threads);
        let inner = Arc::new(StoreInner {
            core,
            latches: (0..latch_count).map(|_| NoWaitLock::new()).collect(),
            index,
            hlog,
            store,
            pending_count: [
                CachePadded::new(AtomicU64::new(0)),
                CachePadded::new(AtomicU64::new(0)),
            ],
            pending_v_keys: Mutex::new(HashSet::new()),
            io,
            ckpt: Mutex::new(None),
            offline_pending: Mutex::new(HashMap::new()),
            refresh_every: opts.refresh_every,
            grain: opts.grain,
            write_queues: opts.write_queues,
            rmw: opts.rmw,
            value_words: crate::header::RecordLayout::new(opts.hlog.value_size).value_words(),
            fault: opts.fault,
        });
        commit::spawn_workers(&inner, "cpr-faster");
        Ok(FasterKv { inner })
    }

    /// Start a session (paper Sec. 5.2). `guid` identifies it across
    /// crashes.
    pub fn start_session(&self, guid: u64) -> FasterSession<V> {
        FasterSession::new(Arc::clone(&self.inner), guid, 0)
    }

    /// Re-establish a session by guid: returns the session and the serial
    /// it should resume from. If the guid detached while this store stayed
    /// up (client reconnect, no crash), that is its last *accepted* serial
    /// — nothing was lost, so nothing needs replay. Otherwise it is the
    /// guid's commit point from the recovery manifest: every later serial
    /// must be re-issued (the CPR resume contract, paper Sec. 2).
    pub fn continue_session(&self, guid: u64) -> (FasterSession<V>, u64) {
        let serial = self.inner.resume_serial(guid);
        (
            FasterSession::new(Arc::clone(&self.inner), guid, serial),
            serial,
        )
    }

    /// The guid's durable commit point: the serial below which every op
    /// is guaranteed recovered after a crash right now.
    pub fn durable_point(&self, guid: u64) -> u64 {
        self.inner.durable_point(guid)
    }

    /// Request a CPR commit (paper Fig. 9a). Returns `false` if one is
    /// already in flight. `log_only = true` skips the fuzzy index
    /// checkpoint (paper Sec. 6.3: the index can be checkpointed far less
    /// frequently).
    pub fn request_checkpoint(&self, variant: CheckpointVariant, log_only: bool) -> bool {
        commit::request(&self.inner, (variant, log_only))
    }

    /// Fuzzy checkpoint of the hash index alone (paper Sec. 6.3).
    pub fn checkpoint_index(&self) -> io::Result<u64> {
        crate::checkpoint::index_checkpoint(&self.inner)
    }

    /// Register a commit observer (paper Sec. 5.2): called with the
    /// committed version and every session's CPR point after each durable
    /// commit, before the version is published. Runs on the flush worker
    /// thread — keep it brief.
    pub fn on_commit(
        &self,
        callback: impl Fn(u64, &[cpr_core::SessionCpr]) + Send + Sync + 'static,
    ) {
        self.inner.on_commit(Box::new(callback));
    }

    /// Version of the newest durable commit
    /// ([`CheckpointVersion::NONE`] = none).
    pub fn committed_version(&self) -> CheckpointVersion {
        self.inner.core.committed_version()
    }

    /// Snapshot of every metric the store has recorded: op latencies,
    /// per-checkpoint phase timelines, epoch drain behaviour and storage
    /// traffic. Cheap when metrics are disabled (returns an empty,
    /// `enabled: false` report).
    pub fn metrics_snapshot(&self) -> MetricsReport {
        let mut report = self.inner.metrics.snapshot();
        if let Some(inj) = &self.inner.fault {
            report.storage.faults_injected = inj.fault_hits();
        }
        report
    }

    /// Number of checkpoint attempts that failed on I/O and were aborted
    /// (no manifest committed; sessions returned to rest).
    pub fn checkpoint_failures(&self) -> u64 {
        self.inner.checkpoint_failures.load(Ordering::Acquire)
    }

    /// Watchdog book-keeping for the in-flight (or most recent) commit:
    /// attempts, proxy-advanced and evicted sessions, aborts.
    pub fn last_commit_outcome(&self) -> CommitOutcome {
        self.inner.outcome.lock().clone()
    }

    /// Current (phase, version) of the commit state machine.
    pub fn state(&self) -> (Phase, u64) {
        self.inner.state.load()
    }

    /// Block until the commit of `version` is durable (sessions must keep
    /// refreshing). Returns `false` on timeout.
    pub fn wait_for_version(&self, version: impl Into<CheckpointVersion>, timeout: Duration) -> bool {
        self.inner.wait_for_version(version.into(), timeout)
    }

    /// HybridLog tail (log growth metric of Fig. 12d / 18d).
    pub fn log_tail(&self) -> u64 {
        self.inner.hlog.tail()
    }

    /// FNV-1a digest of the serialized hash index. Two stores whose
    /// recovered indexes are byte-identical have equal digests, so this is
    /// the cheap cross-check that recovery lands on the same state no
    /// matter how many threads scanned the log.
    pub fn index_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.inner.index.dump() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Bytes written to the main log device so far.
    pub fn log_durable(&self) -> u64 {
        self.inner.hlog.flushed_durable()
    }

    pub fn hlog(&self) -> &Arc<HybridLog> {
        &self.inner.hlog
    }

    /// Full scan: the live `(key, value)` pairs reachable from the log,
    /// by a log walk over `[begin_address, tail)` — the scan runs in
    /// address order, so later records win; tombstones delete; invalid
    /// records are skipped. Pages are fetched from memory when resident,
    /// from the device otherwise. Intended for quiescent use (verification
    /// and serving scans after recovery): concurrent writers may or may
    /// not be observed.
    pub fn scan_all(&self) -> io::Result<Vec<(u64, V)>> {
        let hl = &self.inner.hlog;
        let rec_size = hl.rec.record_size() as u64;
        let begin = hl.begin_address();
        let end = hl.tail();
        let psz = hl.layout.page_size();
        let mut live: HashMap<u64, Option<V>> = HashMap::new();
        let mut addr = begin;
        let mut page_buf: Vec<u8> = Vec::new();
        let mut buf_start = u64::MAX;
        while addr < end {
            // Records never straddle pages; skip page-tail slack.
            if hl.layout.offset(addr) + rec_size > psz {
                addr = hl.layout.page_start(hl.layout.page(addr) + 1);
                continue;
            }
            let page = hl.layout.page(addr);
            let chunk_start = hl.layout.page_start(page).max(begin);
            if buf_start != chunk_start {
                let chunk_end = hl.layout.page_start(page + 1).min(end);
                // Below `head` the authoritative bytes are the durable
                // image: after recovery the restored tail page is marked
                // resident with a zeroed frame, so frame-first reads of
                // the recovered prefix would see slack. At or above
                // `head`, frames hold appends not yet flushed.
                let head = hl.head();
                page_buf = if chunk_end <= head {
                    hl.read_durable(chunk_start, chunk_end)?
                } else if chunk_start >= head {
                    hl.read_range(chunk_start, chunk_end)?
                } else {
                    let mut buf = hl.read_durable(chunk_start, head)?;
                    buf.extend(hl.read_range(head, chunk_end)?);
                    buf
                };
                buf_start = chunk_start;
            }
            let base = (addr - buf_start) as usize;
            if base + rec_size as usize > page_buf.len() {
                break; // truncated tail
            }
            let word = u64::from_le_bytes(page_buf[base..base + 8].try_into().unwrap());
            if word == 0 {
                // Unwritten slack: nothing else in this page.
                addr = hl.layout.page_start(page + 1);
                continue;
            }
            let h = crate::header::Header::unpack(word);
            if !h.invalid {
                let key = u64::from_le_bytes(page_buf[base + 8..base + 16].try_into().unwrap());
                if h.tombstone {
                    live.insert(key, None);
                } else {
                    let words: Vec<u64> = (0..self.inner.value_words)
                        .map(|i| {
                            let o = base + 16 + 8 * i;
                            u64::from_le_bytes(page_buf[o..o + 8].try_into().unwrap())
                        })
                        .collect();
                    live.insert(key, Some(value_from_words(&words)));
                }
            }
            addr += rec_size;
        }
        let mut out: Vec<(u64, V)> = live
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        Ok(out)
    }
}

// ---- value <-> word conversion --------------------------------------------

/// Copy a value's bytes into `n` little-endian words (zero padded).
pub(crate) fn value_to_words<V: Pod>(v: &V, out: &mut Vec<u64>, n: usize) {
    out.clear();
    out.resize(n, 0);
    // SAFETY: Pod guarantees V is readable as bytes.
    let src =
        unsafe { std::slice::from_raw_parts(v as *const V as *const u8, std::mem::size_of::<V>()) };
    // SAFETY: out has n*8 writable bytes.
    let dst = unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr() as *mut u8, n * 8) };
    dst[..src.len()].copy_from_slice(src);
}

/// Rebuild a value from its words.
pub(crate) fn value_from_words<V: Pod>(words: &[u64]) -> V {
    debug_assert!(words.len() * 8 >= std::mem::size_of::<V>());
    // SAFETY: Pod guarantees any bit pattern of the right length is valid.
    unsafe { std::ptr::read_unaligned(words.as_ptr() as *const V) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_word_roundtrip_u64() {
        let mut w = Vec::new();
        value_to_words(&0xDEADBEEFu64, &mut w, 1);
        assert_eq!(w, vec![0xDEADBEEF]);
        assert_eq!(value_from_words::<u64>(&w), 0xDEADBEEF);
    }

    #[test]
    fn value_word_roundtrip_odd_size() {
        #[derive(Clone, Copy, PartialEq, Debug)]
        #[repr(C)]
        struct V100([u8; 100]);
        unsafe impl Pod for V100 {}
        let v = V100(std::array::from_fn(|i| i as u8));
        let mut w = Vec::new();
        value_to_words(&v, &mut w, 13);
        assert_eq!(w.len(), 13);
        assert_eq!(value_from_words::<V100>(&w), v);
    }
}
