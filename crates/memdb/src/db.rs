//! The in-memory transactional database (paper Sec. 4).
//!
//! Shared-everything architecture: any thread can access any record;
//! concurrency control is strict 2PL with No-Wait deadlock avoidance.
//! Durability is pluggable: **CPR** (this paper), **CALC** (atomic commit
//! log baseline), **WAL** (group-commit redo log baseline), or none.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cpr_core::commit::{self, CommitCore, CommitEngine};
use cpr_core::liveness::{CommitOutcome, LivenessConfig};
use cpr_core::{CheckpointKind, CheckpointManifest, CheckpointVersion, Phase, SessionCpr};
use cpr_metrics::{MetricsReport, Registry};
use cpr_storage::{CheckpointStore, FaultInjector};
use parking_lot::Mutex;

use crate::calc::CommitLog;
use crate::checkpoint;
use crate::client::Session;
use crate::error::CommitError;
use crate::stats::ClientStats;
use crate::table::Table;
use crate::value::DbValue;
use crate::wal::Wal;

/// Durability backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// No durability: pure in-memory execution.
    None,
    /// Concurrent Prefix Recovery (paper Sec. 4).
    Cpr,
    /// CALC baseline: CPR capture mechanics plus an atomic commit-log
    /// append on every transaction commit (the measured serial
    /// bottleneck).
    Calc,
    /// Traditional WAL with group commit.
    Wal,
}

/// Database options, set through [`MemDbBuilder`]; each field is
/// documented (with its default) on the builder method of the same name.
#[derive(Debug, Clone)]
pub(crate) struct MemDbOptions {
    pub durability: Durability,
    pub capacity: usize,
    pub dir: Option<PathBuf>,
    pub max_sessions: usize,
    pub refresh_every: u64,
    pub profile: bool,
    pub wal_capacity: u64,
    pub group_commit: Duration,
    pub commit_log_capacity: usize,
    pub incremental: bool,
    pub fault: Option<Arc<FaultInjector>>,
    pub capture_threads: usize,
    pub recovery_threads: usize,
}

impl MemDbOptions {
    pub(crate) fn defaults(durability: Durability) -> Self {
        MemDbOptions {
            durability,
            capacity: 1 << 16,
            dir: None,
            max_sessions: 64,
            refresh_every: 64,
            profile: false,
            wal_capacity: 1 << 26, // 64 MiB
            group_commit: Duration::from_millis(5),
            commit_log_capacity: 1 << 20,
            incremental: false,
            fault: None,
            capture_threads: cpr_storage::env_io_threads(),
            recovery_threads: cpr_storage::env_io_threads(),
        }
    }
}

/// Fluent constructor for [`MemDb`] — the blessed way to open a database.
///
/// Every setter documents its default; omitted settings keep them. The
/// terminal calls are [`open`](MemDbBuilder::open) (fresh database) and
/// [`recover`](MemDbBuilder::recover) (resume from the newest durable
/// checkpoint or WAL).
///
/// ```
/// use cpr_memdb::{Durability, MemDb};
///
/// let db: MemDb<u64> = MemDb::builder(Durability::None)
///     .capacity(1 << 10)
///     .refresh_every(32)
///     .open()
///     .unwrap();
/// db.load(1, 7);
/// assert_eq!(db.read(1), Some(7));
/// ```
pub struct MemDbBuilder<V: DbValue> {
    opts: MemDbOptions,
    /// Handed to the commit core at open, which owns them from then on.
    liveness: Option<LivenessConfig>,
    metrics: Arc<Registry>,
    _marker: std::marker::PhantomData<fn() -> V>,
}

impl<V: DbValue> std::fmt::Debug for MemDbBuilder<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemDbBuilder")
            .field("opts", &self.opts)
            .field("liveness", &self.liveness)
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl<V: DbValue> Clone for MemDbBuilder<V> {
    fn clone(&self) -> Self {
        MemDbBuilder {
            opts: self.opts.clone(),
            liveness: self.liveness.clone(),
            metrics: Arc::clone(&self.metrics),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<V: DbValue> MemDbBuilder<V> {
    /// Expected number of records — hash-table sizing hint (default 2^16).
    pub fn capacity(mut self, c: usize) -> Self {
        self.opts.capacity = c;
        self
    }
    /// Checkpoint / log directory. Required for every durability mode but
    /// [`Durability::None`] (no default).
    pub fn dir(mut self, d: impl Into<PathBuf>) -> Self {
        self.opts.dir = Some(d.into());
        self
    }
    /// Maximum concurrently open sessions (default 64).
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.opts.max_sessions = n;
        self
    }
    /// Ops between epoch refreshes — the `k` of paper Alg. 1 (default 64).
    pub fn refresh_every(mut self, k: u64) -> Self {
        self.opts.refresh_every = k;
        self
    }
    /// Collect the Fig. 10e time breakdown (default off; adds two
    /// `Instant` reads per transaction segment).
    pub fn profile(mut self, on: bool) -> Self {
        self.opts.profile = on;
        self
    }
    /// WAL ring capacity in bytes, power of two (default 64 MiB).
    pub fn wal_capacity(mut self, bytes: u64) -> Self {
        self.opts.wal_capacity = bytes;
        self
    }
    /// WAL group-commit window (default 5 ms).
    pub fn group_commit(mut self, d: Duration) -> Self {
        self.opts.group_commit = d;
        self
    }
    /// CALC commit-log ring capacity in entries (default 2^20).
    pub fn commit_log_capacity(mut self, entries: usize) -> Self {
        self.opts.commit_log_capacity = entries;
        self
    }
    /// Incremental CPR checkpoints — capture only records modified since
    /// the previous commit (default off; the first commit is always full).
    pub fn incremental(mut self, on: bool) -> Self {
        self.opts.incremental = on;
        self
    }
    /// Fault injector applied to checkpoint-store writes (CPR/CALC) and
    /// WAL flushes (default none).
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.opts.fault = Some(injector);
        self
    }
    /// Enable the session liveness watchdog for CPR/CALC commits (default
    /// off; see `cpr_core::commit` for what it does to stragglers).
    pub fn liveness(mut self, cfg: LivenessConfig) -> Self {
        self.liveness = Some(cfg);
        self
    }
    /// Metrics registry (default: the no-op sink, which keeps hot paths
    /// free of timing calls). Pass [`cpr_metrics::Registry::new`] to
    /// collect counters, latency histograms, and checkpoint timelines.
    pub fn metrics(mut self, registry: Arc<Registry>) -> Self {
        self.metrics = registry;
        self
    }
    /// Worker threads for checkpoint capture serialization (default: the
    /// `CPR_IO_THREADS` environment variable, 1 when unset). The
    /// checkpoint bytes are identical at any thread count.
    pub fn capture_threads(mut self, n: usize) -> Self {
        self.opts.capture_threads = n.max(1);
        self
    }
    /// Worker threads for checkpoint load during recovery (default: the
    /// `CPR_IO_THREADS` environment variable, 1 when unset). The
    /// recovered state is identical at any thread count; WAL replay stays
    /// sequential (its records are order-dependent).
    pub fn recovery_threads(mut self, n: usize) -> Self {
        self.opts.recovery_threads = n.max(1);
        self
    }
    /// Open a fresh database.
    pub fn open(self) -> io::Result<MemDb<V>> {
        MemDb::open_at_version(self, 1)
    }
    /// Recover from the newest committed checkpoint (CPR/CALC) or by
    /// replaying the redo log (WAL). Returns the manifest used, if any.
    pub fn recover(self) -> io::Result<(MemDb<V>, Option<CheckpointManifest>)> {
        MemDb::recover_inner(self)
    }
}

pub(crate) struct DbInner<V: DbValue> {
    /// The commit state machine, session registry and epochs (shared
    /// with FASTER; see [`cpr_core::commit`]).
    pub(crate) core: CommitCore<()>,
    pub(crate) opts: MemDbOptions,
    pub(crate) table: Table<V>,
    pub(crate) store: Option<CheckpointStore>,
    pub(crate) commit_log: Option<CommitLog>,
    pub(crate) wal: Option<Wal>,
    /// Set by the watchdog to time out a capture stuck behind a straggler's
    /// record latches; the capture pass polls it and takes the abort path.
    pub(crate) capture_abort: AtomicBool,
    pub(crate) merged_stats: Mutex<ClientStats>,
    /// Wall-clock duration of the last completed capture pass.
    pub(crate) last_capture: Mutex<Option<Duration>>,
    /// Token of the most recent Database checkpoint (delta base).
    pub(crate) last_capture_token: Mutex<Option<u64>>,
}

/// The database *is* a commit core plus its tables: sessions reach the
/// state machine, registry and epochs through this.
impl<V: DbValue> std::ops::Deref for DbInner<V> {
    type Target = CommitCore<()>;
    fn deref(&self) -> &CommitCore<()> {
        &self.core
    }
}

impl<V: DbValue> CommitEngine for DbInner<V> {
    type Request = ();
    const PHASES: &'static [Phase] = &[Phase::InProgress, Phase::WaitFlush];

    fn kind(&self, _: ()) -> &'static str {
        match (self.opts.durability, self.opts.incremental) {
            (Durability::Cpr, true) => "cpr-incremental",
            (Durability::Cpr, false) => "cpr",
            (Durability::Calc, _) => "calc",
            _ => "wal",
        }
    }

    fn flush(&self, v: u64) -> Option<Vec<SessionCpr>> {
        checkpoint::capture(self, v)
    }

    fn abort_flush(&self, _v: u64) -> bool {
        // The capture polls this flag and takes its abort path. `swap`
        // keeps a still-pending request from being counted twice.
        !self.capture_abort.swap(true, Ordering::AcqRel)
    }
}

/// Handle to a database; cheap to clone.
pub struct MemDb<V: DbValue> {
    pub(crate) inner: Arc<DbInner<V>>,
}

impl<V: DbValue> Clone for MemDb<V> {
    fn clone(&self) -> Self {
        MemDb {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V: DbValue> MemDb<V> {
    /// Start building a database with the given durability backend.
    ///
    /// See [`MemDbBuilder`] for the available settings and defaults.
    pub fn builder(durability: Durability) -> MemDbBuilder<V> {
        MemDbBuilder {
            opts: MemDbOptions::defaults(durability),
            liveness: None,
            metrics: Registry::noop(),
            _marker: std::marker::PhantomData,
        }
    }

    fn open_at_version(builder: MemDbBuilder<V>, version: u64) -> io::Result<Self> {
        let MemDbBuilder {
            opts,
            liveness,
            metrics,
            ..
        } = builder;
        let store = match (&opts.durability, &opts.dir) {
            (Durability::Cpr | Durability::Calc, Some(dir)) => {
                let store = CheckpointStore::open_with(dir, opts.fault.clone())?;
                Some(store.with_metrics(Arc::clone(&metrics)))
            }
            (Durability::Cpr | Durability::Calc, None) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "CPR/CALC durability requires a directory",
                ));
            }
            _ => None,
        };
        let wal = match (&opts.durability, &opts.dir) {
            (Durability::Wal, Some(dir)) => {
                std::fs::create_dir_all(dir)?;
                let gen = next_wal_generation(dir)?;
                Some(Wal::create_with(
                    dir.join(format!("wal.{gen}.log")),
                    opts.wal_capacity,
                    opts.group_commit,
                    opts.fault.clone(),
                )?)
            }
            (Durability::Wal, None) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "WAL durability requires a directory",
                ));
            }
            _ => None,
        };
        let commit_log = matches!(opts.durability, Durability::Calc)
            .then(|| CommitLog::new(opts.commit_log_capacity));

        let inner = Arc::new(DbInner {
            core: CommitCore::new(version, opts.max_sessions, liveness, metrics),
            table: Table::new(opts.capacity),
            store,
            commit_log,
            wal,
            capture_abort: AtomicBool::new(false),
            merged_stats: Mutex::new(ClientStats::default()),
            last_capture: Mutex::new(None),
            last_capture_token: Mutex::new(None),
            opts,
        });
        if inner.store.is_some() {
            commit::spawn_workers(&inner, "cpr-memdb");
        }
        Ok(MemDb { inner })
    }

    fn recover_inner(builder: MemDbBuilder<V>) -> io::Result<(Self, Option<CheckpointManifest>)> {
        let opts = &builder.opts;
        match opts.durability {
            Durability::Cpr | Durability::Calc => {
                let dir = opts.dir.clone().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "recover requires dir")
                })?;
                // Route recovery reads through the fault injector (when
                // set) so crash-schedule tests can kill recovery itself.
                let store = CheckpointStore::open_with(&dir, opts.fault.clone())?;
                let Some(manifest) =
                    store.latest_matching(|m| m.kind == CheckpointKind::Database)?
                else {
                    return Ok((Self::open_at_version(builder, 1)?, None));
                };
                // Collect the delta chain back to its full base, then
                // apply it oldest → newest.
                let mut chain = vec![manifest.clone()];
                while let Some(base) = chain.last().unwrap().base {
                    chain.push(store.manifest(base)?);
                }
                let db = Self::open_at_version(builder, manifest.version + 1)?;
                for m in chain.iter().rev() {
                    checkpoint::load(&db.inner, &store, m)?;
                }
                *db.inner.last_capture_token.lock() = Some(manifest.token);
                // Seed the durable commit points so resumed sessions learn
                // their recovered prefix (paper Sec. 2's per-session
                // contract).
                *db.inner.durable_points.lock() = manifest
                    .sessions
                    .iter()
                    .map(|s| (s.guid, s.cpr_point))
                    .collect();
                Ok((db, Some(manifest)))
            }
            Durability::Wal => {
                let dir = opts.dir.clone().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "recover requires dir")
                })?;
                // Collect existing generations *before* opening (which
                // creates the next generation's file).
                let gens = wal_generations(&dir)?;
                let db = Self::open_at_version(builder, 1)?;
                for gen in gens {
                    checkpoint::replay_wal(&db.inner, &dir.join(format!("wal.{gen}.log")))?;
                }
                Ok((db, None))
            }
            Durability::None => Ok((Self::open_at_version(builder, 1)?, None)),
        }
    }

    /// Pre-load a record (panics on duplicate key).
    pub fn load(&self, key: u64, value: V) {
        self.inner
            .table
            .insert(key, self.inner.state.version(), value);
    }

    /// Pre-load unless present (used when re-seeding after recovery).
    pub fn load_if_absent(&self, key: u64, value: V) {
        if self.inner.table.get(key).is_none() {
            // Benign race with another loader: `insert` would panic, so go
            // through the tolerant path and initialize via a write.
            let version = self.inner.state.version();
            let (rec, _) = self.inner.table.get_or_insert(key, version, value);
            if rec.birth() == 0 {
                loop {
                    if rec.lock.try_exclusive() {
                        break;
                    }
                    std::hint::spin_loop();
                }
                if rec.birth() == 0 {
                    rec.write_live(value);
                    rec.set_birth_if_unset(version);
                }
                rec.lock.release_exclusive();
            }
        }
    }

    /// Number of records (including uninitialized placeholders).
    pub fn len(&self) -> usize {
        self.inner.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Open a client session. `guid` identifies the session across crashes
    /// (paper Sec. 5.2).
    pub fn session(&self, guid: u64) -> Session<V> {
        Session::new(Arc::clone(&self.inner), guid, 0)
    }

    /// Re-establish a session by guid: returns the session and the serial
    /// it should resume from. If the guid detached while this database
    /// stayed up (client reconnect, no crash), that is its last accepted
    /// serial — nothing was lost. Otherwise it is the guid's commit point
    /// from the recovery manifest: every later serial must be re-issued
    /// (the CPR resume contract, paper Sec. 2).
    pub fn continue_session(&self, guid: u64) -> (Session<V>, u64) {
        let serial = self.inner.resume_serial(guid);
        (Session::new(Arc::clone(&self.inner), guid, serial), serial)
    }

    /// The guid's durable commit point: the serial below which every op is
    /// guaranteed recovered after a crash right now.
    pub fn durable_point(&self, guid: u64) -> u64 {
        self.inner.durable_point(guid)
    }

    /// Register a commit observer: called with the committed version and
    /// every session's CPR point after each durable commit, before the
    /// version is published. Runs on the flush worker thread — keep it
    /// brief.
    pub fn on_commit(
        &self,
        callback: impl Fn(u64, &[cpr_core::SessionCpr]) + Send + Sync + 'static,
    ) {
        self.inner.on_commit(Box::new(callback));
    }

    /// Full scan: every live `(key, value)` pair, sorted by key. Takes
    /// each record's shared lock briefly; intended for quiescent use
    /// (verification and serving scans), not the transaction hot path.
    pub fn scan_all(&self) -> Vec<(u64, V)> {
        let mut out = Vec::with_capacity(self.len());
        self.inner.table.for_each(|key, rec| {
            loop {
                if rec.lock.try_shared() {
                    break;
                }
                std::hint::spin_loop();
            }
            if rec.birth() != 0 && !rec.is_dead() {
                out.push((key, rec.read_live()));
            }
            rec.lock.release_shared();
        });
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Read a record's live value (spins briefly for a shared lock).
    /// Returns `None` for absent or never-written keys.
    pub fn read(&self, key: u64) -> Option<V> {
        let rec = self.inner.table.get(key)?;
        loop {
            if rec.lock.try_shared() {
                break;
            }
            std::hint::spin_loop();
        }
        let out = (rec.birth() != 0 && !rec.is_dead()).then(|| rec.read_live());
        rec.lock.release_shared();
        out
    }

    /// Request a CPR/CALC commit (returns `false` if one is already in
    /// flight) or force a WAL group-commit flush.
    ///
    /// The commit proceeds asynchronously: worker threads realize the
    /// phase transitions as they refresh their epochs, and the version-`v`
    /// snapshot is captured and persisted in the background. Use
    /// [`MemDb::wait_for_version`] to await completion.
    pub fn request_commit(&self) -> bool {
        match self.inner.opts.durability {
            Durability::None => false,
            Durability::Wal => {
                self.inner.wal.as_ref().expect("wal").sync();
                let _g = self.inner.commit_lock.lock();
                self.inner.commit_cv.notify_all();
                true
            }
            Durability::Cpr | Durability::Calc => commit::request(&self.inner, ()),
        }
    }

    /// Version of the newest durable checkpoint
    /// ([`CheckpointVersion::NONE`] = none yet).
    pub fn committed_version(&self) -> CheckpointVersion {
        self.inner.core.committed_version()
    }

    /// Number of checkpoint attempts that failed on I/O and were aborted
    /// (no manifest committed; sessions returned to rest).
    pub fn checkpoint_failures(&self) -> u64 {
        self.inner.checkpoint_failures.load(Ordering::Acquire)
    }

    /// Current (phase, version) of the commit state machine.
    pub fn state(&self) -> (Phase, u64) {
        self.inner.state.load()
    }

    /// Block until the checkpoint of `version` is durable. Requires
    /// worker sessions to keep refreshing (or none to be registered).
    /// Returns `false` on timeout.
    pub fn wait_for_version(&self, version: impl Into<CheckpointVersion>, timeout: Duration) -> bool {
        self.inner.wait_for_version(version.into(), timeout)
    }

    /// Request a commit and wait for its outcome.
    ///
    /// Succeeds once *a* checkpoint covering version `v` (the version at
    /// request time) is durable — if the watchdog aborted and retried, the
    /// durable version may be higher, and its checkpoint includes `v`'s
    /// prefix. Fails with [`CommitError::TimedOut`] when the deadline
    /// passes or the watchdog exhausts its retry budget; the error names
    /// the sessions blocking the commit at that moment.
    pub fn commit_and_wait(&self, timeout: Duration) -> Result<CommitOutcome, CommitError> {
        if !matches!(
            self.inner.opts.durability,
            Durability::Cpr | Durability::Calc
        ) {
            self.request_commit();
            return Ok(CommitOutcome {
                attempts: 1,
                ..CommitOutcome::default()
            });
        }
        let v = self.inner.state.version();
        if !self.request_commit() {
            return Err(CommitError::NotStarted);
        }
        if !self.inner.wait_for_commit(v.into(), timeout) {
            return Err(CommitError::TimedOut {
                version: v.into(),
                phase: self.inner.state.phase(),
                blockers: self.inner.stragglers(),
            });
        }
        let mut out = self.inner.outcome.lock();
        out.committed_version = Some(self.committed_version());
        Ok(out.clone())
    }

    /// Outcome of the in-flight (or most recent) supervised commit.
    pub fn last_commit_outcome(&self) -> CommitOutcome {
        self.inner.outcome.lock().clone()
    }

    /// Aggregated statistics from dropped sessions.
    pub fn stats(&self) -> ClientStats {
        self.inner.merged_stats.lock().clone()
    }

    /// Wall-clock duration of the most recent capture pass.
    pub fn last_capture_duration(&self) -> Option<Duration> {
        *self.inner.last_capture.lock()
    }

    /// WAL durable horizon in bytes (WAL mode only).
    pub fn wal_durable_bytes(&self) -> Option<u64> {
        self.inner.wal.as_ref().map(|w| w.durable())
    }

    /// Snapshot of the metrics registry this database reports into:
    /// operation counters and commit-latency percentiles, checkpoint
    /// phase timelines, epoch drain latencies, and storage totals.
    ///
    /// Meaningful only when the database was built with an enabled
    /// [`cpr_metrics::Registry`]; with the default no-op sink the report
    /// is empty and flagged `enabled: false`.
    pub fn metrics_snapshot(&self) -> MetricsReport {
        let mut report = self.inner.metrics.snapshot();
        if let Some(injector) = &self.inner.opts.fault {
            report.storage.faults_injected = injector.fault_hits();
        }
        report
    }
}

fn wal_generations(dir: &std::path::Path) -> io::Result<Vec<u64>> {
    let mut gens = Vec::new();
    if dir.exists() {
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str().map(str::to_owned) else {
                continue;
            };
            if let Some(rest) = name.strip_prefix("wal.") {
                if let Some(gen) = rest.strip_suffix(".log") {
                    if let Ok(g) = gen.parse::<u64>() {
                        gens.push(g);
                    }
                }
            }
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

fn next_wal_generation(dir: &std::path::Path) -> io::Result<u64> {
    Ok(wal_generations(dir)?.last().map_or(0, |g| g + 1))
}
