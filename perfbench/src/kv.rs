//! FASTER workloads (`kv-resident`, `kv-spill`): one session, a closed
//! loop with at most `window` operations pending, fold-over commits at
//! fixed op counts, then a crash and Alg. 3 recovery.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

use cpr_faster::{
    CheckpointVariant, FasterBuilder, FasterKv, FasterSession, HlogConfig, OpKind, ReadResult,
    Status, VersionGrain,
};
use cpr_metrics::Registry;
use cpr_storage::IoProfile;

use crate::check::{diff_state, kv_prefix, Verdict};
use crate::round::Round;
use crate::stream::{Kind, KvSpec, KvStream, Op};
use crate::sys;
use crate::{Settings, GIVE_UP, SAMPLE_EVERY};

/// Guid of the measured session.
pub const GUID: u64 = 1;
/// Guid of the session that preloads the keys.
const PRELOAD_GUID: u64 = 99;
/// A session whose pending ops make no progress for this long is stuck.
const STALL: Duration = Duration::from_secs(10);

/// One FASTER workload.
#[derive(Debug, Clone)]
pub struct KvWorkload {
    pub spec: KvSpec,
    pub hlog: HlogConfig,
    pub index_buckets: usize,
    /// Commits per round, requested at evenly spaced op counts; the ops
    /// after the last one are the suffix the crash loses.
    pub commits: usize,
    /// The first commit also checkpoints the index (a full checkpoint);
    /// the rest are log-only.
    pub first_full: bool,
    /// Max operations pending at once (the closed loop's window).
    pub window: usize,
}

/// Open a store with every setting the workload depends on made
/// explicit (nothing from the environment, no simulated device latency).
pub fn builder(dir: &Path, w: &KvWorkload, s: &Settings, traced: bool) -> FasterBuilder<u64> {
    FasterBuilder::u64_sums(dir)
        .hlog(w.hlog)
        .index_buckets(w.index_buckets)
        .refresh_every(s.engine_refresh_every)
        .grain(VersionGrain::Fine)
        .max_sessions(s.max_sessions)
        .io_threads(s.io_threads)
        .write_queues(s.write_queues)
        .recovery_threads(s.recovery_threads)
        .io_profile(IoProfile::NONE)
        .metrics(if traced {
            Registry::new()
        } else {
            Registry::noop()
        })
}

/// Load every key through a short-lived session; returns once all
/// upserts completed.
pub fn preload(kv: &FasterKv<u64>, stream: &KvStream) -> Result<(), String> {
    let mut s = kv.start_session(PRELOAD_GUID);
    for &(k, v) in &stream.preload {
        if s.upsert(k, v) == Status::Evicted {
            return Err("preload session evicted".into());
        }
    }
    let deadline = Instant::now() + GIVE_UP;
    while s.pending_len() > 0 {
        s.complete_pending();
        s.refresh();
        kv.hlog().poll_flushes();
        if Instant::now() > deadline {
            return Err(format!(
                "preload: {} upserts still pending",
                s.pending_len()
            ));
        }
    }
    Ok(())
}

/// The measured session as a closed-loop client.
///
/// The client keeps at most one op per key in flight: the engine
/// promises no order among a session's outstanding ops, and two pending
/// updates of one key can complete in either order. With one op per key
/// outstanding, every op's effect and every read's answer follow the
/// stream's serial order, which the checks rely on.
struct Client<'a> {
    kv: &'a FasterKv<u64>,
    s: FasterSession<u64>,
    ops: &'a [Op],
    traced: bool,
    /// Pending ops: serial → (key, issue time if sampled).
    pending: HashMap<u64, (u64, Option<Instant>)>,
    /// Keys with an op pending.
    busy: HashSet<u64>,
    bad_reads: u64,
    commits: Commits,
}

/// Commit bookkeeping: requests at fixed op counts, completion times and
/// the sampled ops waiting to become durable.
struct Commits {
    at: Vec<usize>,
    next: usize,
    first_full: bool,
    in_flight: Option<Instant>,
    seen: u64,
    durable_q: VecDeque<(u64, Instant)>,
}

impl Client<'_> {
    /// Request the next commit if it is due and none is in flight.
    fn maybe_commit(&mut self, due: bool) {
        let c = &mut self.commits;
        if c.in_flight.is_none() && c.next < c.at.len() && due {
            let log_only = !(c.first_full && c.next == 0);
            if self
                .kv
                .request_checkpoint(CheckpointVariant::FoldOver, log_only)
            {
                c.in_flight = Some(Instant::now());
                c.next += 1;
            }
        }
    }

    /// Note commit completions and durable sampled ops.
    fn poll(&mut self, r: &mut Round) {
        let now = Instant::now();
        let c = &mut self.commits;
        let cv = self.kv.committed_version().get();
        if cv > c.seen {
            c.seen = cv;
            if let Some(t) = c.in_flight.take() {
                r.checkpoint.push((now - t).as_nanos() as u64);
            }
        }
        let ds = self.s.durable_serial();
        while let Some(&(serial, t)) = c.durable_q.front() {
            if serial > ds {
                break;
            }
            r.durable.push((now - t).as_nanos() as u64);
            c.durable_q.pop_front();
        }
    }

    fn refresh(&mut self, r: &mut Round) {
        if self.traced {
            let t = Instant::now();
            self.s.refresh();
            r.layers.time("epoch.refresh_ns", t.elapsed());
        } else {
            self.s.refresh();
        }
    }

    /// Issue op `i` (serial `i + 1`).
    fn issue(&mut self, i: usize, r: &mut Round) -> Result<(), String> {
        let op = self.ops[i];
        if self.busy.contains(&op.key) {
            self.complete_until(r, &|c| !c.busy.contains(&op.key))?;
        }
        let sampled = i.is_multiple_of(SAMPLE_EVERY);
        let ts = (sampled || self.traced).then(Instant::now);
        let pending = match op.kind {
            Kind::Read => match self.s.read(op.key) {
                ReadResult::Found(v) => {
                    self.bad_reads += u64::from(v != op.arg);
                    false
                }
                ReadResult::NotFound => {
                    self.bad_reads += 1;
                    false
                }
                ReadResult::Pending => true,
                ReadResult::Evicted => return Err("session evicted".into()),
            },
            Kind::Upsert => status(self.s.upsert(op.key, op.arg))?,
            Kind::Rmw => status(self.s.rmw(op.key, op.arg))?,
        };
        let serial = i as u64 + 1;
        if let Some(ts) = ts {
            let now = Instant::now();
            if self.traced {
                let name = match op.kind {
                    Kind::Read => "faster.read_ns",
                    Kind::Upsert => "faster.upsert_ns",
                    Kind::Rmw => "faster.rmw_ns",
                };
                r.layers.time(name, now - ts);
            }
            if sampled {
                if !pending {
                    r.op_latency.push((now - ts).as_nanos() as u64);
                }
                self.commits.durable_q.push_back((serial, now));
            }
        }
        if pending {
            self.pending
                .insert(serial, (op.key, ts.filter(|_| sampled)));
            self.busy.insert(op.key);
        }
        Ok(())
    }

    /// Retry pending ops until `done` holds.
    fn complete_until(
        &mut self,
        r: &mut Round,
        done: &dyn Fn(&Self) -> bool,
    ) -> Result<(), String> {
        let mut out = Vec::new();
        let mut progress = Instant::now();
        let mut spins = 0u32;
        while !done(self) {
            let t = Instant::now();
            self.s.complete_pending();
            if self.traced {
                r.layers.time("faster.complete_pending_ns", t.elapsed());
            }
            self.s.drain_completions(&mut out);
            if !out.is_empty() {
                progress = Instant::now();
            }
            for c in out.drain(..) {
                let Some((key, ts)) = self.pending.remove(&c.serial) else {
                    continue;
                };
                self.busy.remove(&key);
                if let Some(ts) = ts {
                    r.op_latency.push(ts.elapsed().as_nanos() as u64);
                }
                if c.kind == OpKind::Read {
                    let want = self.ops[c.serial as usize - 1].arg;
                    self.bad_reads += u64::from(c.value != Some(want));
                }
            }
            if done(self) {
                break;
            }
            // A pending op whose record is still being flushed retries
            // once the durable horizon passes it; fold finished flushes
            // in, since the engine does so only when it allocates log
            // space or a checkpoint waits on a flush.
            self.kv.hlog().poll_flushes();
            spins += 1;
            if spins.is_multiple_of(64) {
                self.refresh(r);
                if progress.elapsed() > STALL {
                    return Err(self.stall_report());
                }
            }
            std::thread::yield_now();
        }
        Ok(())
    }

    fn stall_report(&self) -> String {
        let h = self.kv.hlog();
        let mut keys: Vec<u64> = self.busy.iter().copied().collect();
        keys.sort_unstable();
        keys.truncate(4);
        format!(
            "{} pending ops made no progress for {STALL:?} (state {:?}; log head {:#x}, \
             flushed {:#x}, read-only {:#x}, tail {:#x}; keys {keys:#x?})",
            self.s.pending_len(),
            self.kv.state(),
            h.head(),
            h.flushed_durable(),
            h.read_only(),
            h.tail()
        )
    }
}

fn status(st: Status) -> Result<bool, String> {
    match st {
        Status::Ok => Ok(false),
        Status::Pending => Ok(true),
        other => Err(format!("update failed: {other}")),
    }
}

pub fn round(w: &KvWorkload, s: &Settings, dir: &Path, seed: u64, traced: bool) -> Round {
    let mut r = Round {
        traced,
        ..Round::default()
    };
    if let Err(e) = round_inner(w, s, dir, seed, &mut r) {
        r.errors.push(e);
    }
    r
}

fn round_inner(
    w: &KvWorkload,
    st: &Settings,
    dir: &Path,
    seed: u64,
    r: &mut Round,
) -> Result<(), String> {
    let traced = r.traced;
    let t_setup = Instant::now();
    let stream = KvStream::generate(&w.spec, seed);
    r.digest = stream.digest();
    let kv = builder(dir, w, st, traced)
        .open()
        .map_err(|e| format!("open: {e}"))?;
    preload(&kv, &stream)?;
    let n = stream.ops.len();
    let mut c = Client {
        kv: &kv,
        s: kv.start_session(GUID),
        ops: &stream.ops,
        traced,
        pending: HashMap::new(),
        busy: HashSet::new(),
        bad_reads: 0,
        commits: Commits {
            at: (1..=w.commits).map(|j| n * j / (w.commits + 1)).collect(),
            next: 0,
            first_full: w.first_full,
            in_flight: None,
            seen: kv.committed_version().get(),
            durable_q: VecDeque::new(),
        },
    };
    r.setup_s = t_setup.elapsed().as_secs_f64();

    let report0 = kv.metrics_snapshot();
    let io0 = sys::process_io();
    let tail0 = kv.log_tail();
    let t0 = Instant::now();
    for i in 0..n {
        let due = c.commits.next < c.commits.at.len() && i >= c.commits.at[c.commits.next];
        c.maybe_commit(due);
        if i.is_multiple_of(st.refresh_every) {
            c.refresh(r);
        }
        c.issue(i, r)?;
        if i.is_multiple_of(SAMPLE_EVERY) {
            c.poll(r);
        }
        if c.s.pending_len() >= w.window {
            c.complete_until(r, &|c| c.s.pending_len() <= w.window / 2)?;
        }
    }
    c.complete_until(r, &|c| c.s.pending_len() == 0)?;
    r.measured_s = t0.elapsed().as_secs_f64();
    r.completed = n as u64;
    r.attempted = n as u64;

    // Let every requested commit finish; ops after the last one's CPR
    // point are the suffix the crash loses.
    let deadline = Instant::now() + GIVE_UP;
    while c.commits.next < c.commits.at.len() || c.commits.in_flight.is_some() {
        c.maybe_commit(true);
        c.s.refresh();
        c.poll(r);
        if Instant::now() > deadline {
            return Err(format!("commit did not complete (state {:?})", kv.state()));
        }
        std::thread::yield_now();
    }
    let updates = stream.updates() as u64;
    let io = sys::process_io() - io0;
    r.storage_bytes = io.wchar;
    r.user_bytes = updates * 16;
    r.dir_bytes = sys::dir_bytes(dir);
    r.live_bytes = stream.preload.len() as u64 * 16;
    if traced {
        r.layers.engine_report(&report0, &kv.metrics_snapshot());
        let stats = &c.s.stats;
        r.layers
            .value("faster.pending_ratio", stats.went_pending as f64 / n as f64);
        r.layers.value(
            "faster.log_bytes_per_update",
            (kv.log_tail() - tail0) as f64 / updates as f64,
        );
        let lookups = stats.reads + stats.rmws;
        r.layers.value(
            "storage.device_reads_per_lookup",
            io.syscr as f64 / lookups.max(1) as f64,
        );
    }
    if c.bad_reads > 0 {
        r.errors.push(format!(
            "{} reads returned a value other than the serial answer",
            c.bad_reads
        ));
    }
    let reported = c.s.durable_serial();

    // Crash: drop the session and the store without a final commit.
    drop(c);
    drop(kv);

    let t_rec = Instant::now();
    let (kv, _) = builder(dir, w, st, traced)
        .recover()
        .map_err(|e| format!("recover: {e}"))?;
    let (_s, point) = kv.continue_session(GUID);
    r.recovery_s = t_rec.elapsed().as_secs_f64();
    if traced {
        r.layers.recovery_report(&kv.metrics_snapshot());
    }

    // The recovered state must be exactly the preload plus the session's
    // ops up to its commit point. The full scan walks the log, so it
    // sees every recovered record without going through the index.
    let mut v = Verdict::default();
    v.point("session", reported, point);
    let expected = kv_prefix(&stream, point.min(n as u64));
    let scan = kv.scan_all().map_err(|e| format!("scan: {e}"))?;
    v.state("recovered scan", &diff_state(&expected, scan));
    r.failed += v.lost_acked;
    r.errors.extend(v.errors);
    Ok(())
}
