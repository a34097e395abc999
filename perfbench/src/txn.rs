//! The memdb workload (`txn-contended`): two sessions on two threads
//! running 4-key transactions under No-Wait 2PL, CPR commits at fixed
//! transaction counts, then a crash and recovery.

use std::path::Path;
use std::time::{Duration, Instant};

use cpr_memdb::{Abort, ClientStats, Durability, MemDb, MemDbBuilder, TxnRequest};
use cpr_metrics::Registry;

use crate::check::{diff_state, txn_prefix, TxnHistory, Verdict};
use crate::recorder::Samples;
use crate::round::{Layers, Round};
use crate::stream::{key_of, Rng, TxnSpec, TxnStream};
use crate::sys;
use crate::{Settings, GIVE_UP, SAMPLE_EVERY};

/// Guid of session `i` is `GUID_BASE + i`.
const GUID_BASE: u64 = 1;
/// How long a transaction retries conflicts before it gives up (and
/// counts as failed). A conflict with a checkpoint's capture pass can
/// last as long as the pass.
const RETRY_FOR: Duration = Duration::from_secs(1);
/// Recoveries per round (see `round_inner`).
const RECOVERIES: usize = 5;

#[derive(Debug, Clone)]
pub struct TxnWorkload {
    pub spec: TxnSpec,
    pub sessions: usize,
    /// CPR commits per round, requested by session 0 at evenly spaced
    /// transaction counts.
    pub commits: usize,
}

fn builder(dir: &Path, w: &TxnWorkload, s: &Settings, traced: bool) -> MemDbBuilder<u64> {
    MemDb::builder(Durability::Cpr)
        .dir(dir)
        .capacity(w.spec.keys as usize * 2)
        .max_sessions(s.max_sessions)
        .refresh_every(s.engine_refresh_every)
        .incremental(false)
        .capture_threads(s.capture_threads)
        .recovery_threads(s.recovery_threads)
        .profile(traced)
        .metrics(if traced {
            Registry::new()
        } else {
            Registry::noop()
        })
}

/// What one session thread brings back.
#[derive(Default)]
struct Worker {
    /// Stream index of the transaction that got each committed serial.
    committed: Vec<u32>,
    attempts: u64,
    gave_up: u64,
    done_at: Option<Instant>,
    op_latency: Samples,
    durable: Samples,
    checkpoint: Samples,
    reported: u64,
    stats: ClientStats,
    layers: Layers,
    error: Option<String>,
}

impl Worker {
    fn with_capacity(txns: usize) -> Worker {
        let samples = txns / SAMPLE_EVERY + 1;
        Worker {
            committed: Vec::with_capacity(txns),
            op_latency: Samples::with_capacity(samples),
            durable: Samples::with_capacity(samples),
            ..Worker::default()
        }
    }
}

pub fn round(w: &TxnWorkload, s: &Settings, dir: &Path, seed: u64, traced: bool) -> Round {
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
    w: &TxnWorkload,
    st: &Settings,
    dir: &Path,
    seed: u64,
    r: &mut Round,
) -> Result<(), String> {
    let traced = r.traced;
    let t_setup = Instant::now();
    let streams: Vec<TxnStream> = (0..w.sessions)
        .map(|i| TxnStream::generate(&w.spec, seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9)))
        .collect();
    r.digest = streams.iter().fold(0, |h, s| h ^ s.digest());
    let mut rng = Rng::new(seed);
    let preload: Vec<(u64, u64)> = (0..w.spec.keys)
        .map(|i| (key_of(i), rng.next_u64()))
        .collect();
    let db: MemDb<u64> = builder(dir, w, st, traced)
        .open()
        .map_err(|e| format!("open: {e}"))?;
    for &(k, v) in &preload {
        db.load(k, v);
    }
    r.setup_s = t_setup.elapsed().as_secs_f64();

    let report0 = db.metrics_snapshot();
    let io0 = sys::process_io();
    let t0 = Instant::now();
    // Allocated here rather than on the session threads, so the peak
    // RSS does not depend on which allocator arenas new threads get.
    let mut workers: Vec<Worker> = streams
        .iter()
        .map(|s| Worker::with_capacity(s.len()))
        .collect();
    std::thread::scope(|scope| {
        for (i, (stream, out)) in streams.iter().zip(workers.iter_mut()).enumerate() {
            let db = &db;
            scope.spawn(move || {
                if let Err(e) = session_loop(db, w, st, i, stream, traced, out) {
                    out.error = Some(e);
                }
            });
        }
    });
    let done = workers.iter().filter_map(|x| x.done_at).max().unwrap_or(t0);
    r.measured_s = (done - t0).as_secs_f64();
    let io = sys::process_io() - io0;

    let mut stats = ClientStats::default();
    for x in &workers {
        if let Some(e) = &x.error {
            return Err(e.clone());
        }
        r.attempted += x.committed.len() as u64 + x.gave_up;
        r.failed += x.gave_up;
        r.completed += x.committed.len() as u64;
        r.op_latency.extend(&x.op_latency);
        r.durable.extend(&x.durable);
        r.checkpoint.extend(&x.checkpoint);
        stats.merge(&x.stats);
    }
    if db.checkpoint_failures() > 0 {
        r.errors.push(format!(
            "{} checkpoint attempts failed",
            db.checkpoint_failures()
        ));
    }
    let merges: u64 = workers
        .iter()
        .zip(&streams)
        .map(|(x, s)| {
            x.committed
                .iter()
                .map(|&t| s.deltas(t as usize).len() as u64)
                .sum::<u64>()
        })
        .sum();
    r.storage_bytes = io.wchar;
    r.user_bytes = merges * 16;
    r.dir_bytes = sys::dir_bytes(dir);
    r.live_bytes = preload.len() as u64 * 16;

    let hist: Vec<TxnHistory<'_>> = workers
        .iter()
        .zip(&streams)
        .map(|(x, s)| TxnHistory {
            stream: s,
            committed: &x.committed,
        })
        .collect();
    let all: Vec<u64> = workers.iter().map(|x| x.committed.len() as u64).collect();
    let mut v = Verdict::default();
    v.state(
        "live scan",
        &diff_state(&txn_prefix(&preload, &hist, &all), db.scan_all()),
    );

    if traced {
        r.layers.engine_report(&report0, &db.metrics_snapshot());
        for x in &workers {
            r.layers.absorb(&x.layers);
        }
        let attempts: u64 = workers.iter().map(|x| x.attempts).sum();
        let aborts = stats.aborts_conflict + stats.aborts_cpr;
        r.layers
            .value("memdb.abort_ratio", aborts as f64 / attempts.max(1) as f64);
        r.layers
            .value("memdb.conflict_aborts", stats.aborts_conflict as f64);
        r.layers
            .value("memdb.cpr_shift_aborts", stats.aborts_cpr as f64);
        let [exec, abort, tail, _] = stats.breakdown();
        r.layers.value("memdb.exec_share", exec);
        r.layers.value("memdb.abort_share", abort);
        r.layers.value("memdb.tail_share", tail);
    }

    // Crash: the sessions ended with their threads; drop the database
    // without a final commit.
    drop(db);

    // Recovery takes milliseconds here, so it runs several times from the
    // same checkpoint and the round reports the median; the last recovered
    // database is the one checked.
    let mut times = Vec::new();
    let (db, points) = loop {
        let t_rec = Instant::now();
        let (db, _) = builder(dir, w, st, traced)
            .recover()
            .map_err(|e| format!("recover: {e}"))?;
        let points: Vec<u64> = (0..w.sessions)
            .map(|i| db.continue_session(GUID_BASE + i as u64).1)
            .collect();
        times.push(t_rec.elapsed().as_secs_f64());
        if times.len() == RECOVERIES {
            break (db, points);
        }
    };
    r.recovery_s = crate::recorder::median(&times);
    if traced {
        r.layers.recovery_report(&db.metrics_snapshot());
    }
    for (i, (x, &p)) in workers.iter().zip(&points).enumerate() {
        v.point(
            &format!("session {i}"),
            x.reported,
            p.min(x.committed.len() as u64),
        );
    }
    let points: Vec<u64> = points
        .iter()
        .zip(&workers)
        .map(|(&p, x)| p.min(x.committed.len() as u64))
        .collect();
    v.state(
        "recovered scan",
        &diff_state(&txn_prefix(&preload, &hist, &points), db.scan_all()),
    );
    r.failed += v.lost_acked;
    r.errors.extend(v.errors);
    Ok(())
}

fn session_loop(
    db: &MemDb<u64>,
    w: &TxnWorkload,
    st: &Settings,
    idx: usize,
    stream: &TxnStream,
    traced: bool,
    out: &mut Worker,
) -> Result<(), String> {
    // One session per CPU: left to the scheduler, the two sessions
    // sometimes share a CPU while a neighbour holds the other, and a
    // session that runs alone executes faster (no cache lines bounce
    // between CPUs), so latency would depend on where they landed.
    sys::pin_thread(idx);
    let mut s = db.session(GUID_BASE + idx as u64);
    let n = stream.len();
    // Session 0 requests the commits.
    let at: Vec<usize> = if idx == 0 {
        (1..=w.commits).map(|j| n * j / (w.commits + 1)).collect()
    } else {
        Vec::new()
    };
    let mut next = 0;
    let mut in_flight: Option<Instant> = None;
    let mut seen = db.committed_version().get();
    let mut durable_q = std::collections::VecDeque::new();
    let mut reads = Vec::new();

    let mut poll = |s: &mut cpr_memdb::Session<u64>,
                    out: &mut Worker,
                    in_flight: &mut Option<Instant>,
                    durable_q: &mut std::collections::VecDeque<(u64, Instant)>| {
        let now = Instant::now();
        let cv = db.committed_version().get();
        if cv > seen {
            seen = cv;
            if let Some(t) = in_flight.take() {
                out.checkpoint.push((now - t).as_nanos() as u64);
                if traced {
                    if let Some(d) = db.last_capture_duration() {
                        out.layers.value("memdb.capture_ms", d.as_secs_f64() * 1e3);
                    }
                }
            }
        }
        let ds = s.durable_serial();
        while let Some(&(serial, t)) = durable_q.front() {
            if serial > ds {
                break;
            }
            out.durable.push((now - t).as_nanos() as u64);
            durable_q.pop_front();
        }
    };

    for t in 0..n {
        if in_flight.is_none() && next < at.len() && t >= at[next] && db.request_commit() {
            in_flight = Some(Instant::now());
            next += 1;
        }
        if t.is_multiple_of(st.refresh_every) {
            if traced {
                let t0 = Instant::now();
                s.refresh();
                out.layers.time("epoch.refresh_ns", t0.elapsed());
            } else {
                s.refresh();
            }
        }
        let txn = TxnRequest {
            accesses: stream.accesses(t),
            write_seeds: stream.deltas(t),
        };
        let sampled = t.is_multiple_of(SAMPLE_EVERY);
        let ts = sampled.then(Instant::now);
        let mut conflicts = 0u32;
        let mut first_conflict = None;
        loop {
            out.attempts += 1;
            let te = traced.then(Instant::now);
            match s.execute(&txn, &mut reads) {
                Ok(()) => {
                    if let Some(te) = te {
                        out.layers.time("memdb.execute_ns", te.elapsed());
                    }
                    out.committed.push(t as u32);
                    break;
                }
                Err(Abort::Conflict) => {
                    conflicts += 1;
                    if conflicts < 64 {
                        std::hint::spin_loop();
                        continue;
                    }
                    // Let the lock holder run (there are more threads
                    // than cores), and give up eventually.
                    std::thread::yield_now();
                    if first_conflict.get_or_insert_with(Instant::now).elapsed() > RETRY_FOR {
                        out.gave_up += 1;
                        break;
                    }
                }
                // The session refreshed; the retry runs in the new phase.
                Err(Abort::CprShift) => {}
                Err(e) => return Err(format!("transaction failed: {e}")),
            }
        }
        if let Some(ts) = ts {
            let now = Instant::now();
            out.op_latency.push((now - ts).as_nanos() as u64);
            durable_q.push_back((s.serial(), now));
            poll(&mut s, out, &mut in_flight, &mut durable_q);
        }
    }
    out.done_at = Some(Instant::now());

    // Keep refreshing until every requested commit completed: a session
    // that stops refreshing would stall the commit for everyone.
    let deadline = Instant::now() + GIVE_UP;
    while (db.committed_version().get() as usize) < w.commits || in_flight.is_some() {
        if in_flight.is_none() && next < at.len() && db.request_commit() {
            in_flight = Some(Instant::now());
            next += 1;
        }
        s.refresh();
        poll(&mut s, out, &mut in_flight, &mut durable_q);
        if Instant::now() > deadline {
            return Err(format!("session {idx}: commit did not complete"));
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    out.reported = s.durable_serial();
    out.stats = s.stats.clone();
    Ok(())
}
