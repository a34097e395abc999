//! The network workload (`net-kv`): a loopback `cpr-net` server over
//! FASTER, one client connection pipelining fixed-size batches within a
//! fixed window, client-requested log-only commits at fixed op counts,
//! then a server crash, recovery and a client resume with suffix replay.

use std::collections::VecDeque;
use std::io;
use std::net::TcpListener;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cpr_faster::{FasterKv, FasterSession};
use cpr_net::engine::CommitObserver;
use cpr_net::wire::{OpReply, OpStatus};
use cpr_net::{checkpoint_variant, NetClient, NetEngine, NetServer, NetSession, OpKind, OpResult};

use crate::check::{diff_state, kv_prefix, Verdict};
use crate::kv::{builder, preload, KvWorkload, GUID};
use crate::recorder::Samples;
use crate::round::Round;
use crate::stream::{Kind, KvStream};
use crate::sys;
use crate::{Settings, GIVE_UP, SAMPLE_EVERY};

#[derive(Debug, Clone)]
pub struct NetWorkload {
    /// Store shape, key-value stream and commit schedule.
    pub kv: KvWorkload,
    /// Ops per batch.
    pub batch: usize,
    /// Batches in flight.
    pub window: usize,
}

/// A FASTER engine whose sessions time `apply_batch` inside the server
/// (traced rounds only).
struct Timed {
    kv: FasterKv<u64>,
    apply: Arc<Mutex<Samples>>,
}

struct TimedSession {
    inner: FasterSession<u64>,
    apply: Arc<Mutex<Samples>>,
}

impl NetEngine for Timed {
    type Session = TimedSession;

    fn continue_session(&self, guid: u64) -> (TimedSession, u64) {
        let (inner, serial) = NetEngine::continue_session(&self.kv, guid);
        let apply = Arc::clone(&self.apply);
        (TimedSession { inner, apply }, serial)
    }

    fn request_checkpoint(&self, variant: u8, log_only: bool) -> bool {
        NetEngine::request_checkpoint(&self.kv, variant, log_only)
    }

    fn on_commit(&self, cb: CommitObserver) {
        NetEngine::on_commit(&self.kv, cb)
    }

    fn committed_version(&self) -> u64 {
        NetEngine::committed_version(&self.kv)
    }

    fn scan(&self) -> io::Result<Vec<(u64, u64)>> {
        NetEngine::scan(&self.kv)
    }
}

impl NetSession for TimedSession {
    fn apply_batch(&mut self, ops: &[cpr_net::WireOp]) -> Vec<OpReply> {
        let t = Instant::now();
        let out = self.inner.apply_batch(ops);
        let d = t.elapsed();
        self.apply
            .lock()
            .expect("apply samples poisoned")
            .push(d.as_nanos() as u64);
        out
    }

    fn refresh(&mut self) {
        NetSession::refresh(&mut self.inner)
    }

    fn serial(&self) -> u64 {
        NetSession::serial(&self.inner)
    }
}

/// An engine the round can serve and still inspect.
trait Served: NetEngine {
    fn kv(&self) -> &FasterKv<u64>;
}

impl Served for FasterKv<u64> {
    fn kv(&self) -> &FasterKv<u64> {
        self
    }
}

impl Served for Timed {
    fn kv(&self) -> &FasterKv<u64> {
        &self.kv
    }
}

fn wire_kind(k: Kind) -> OpKind {
    match k {
        Kind::Read => OpKind::Read,
        Kind::Upsert => OpKind::Upsert,
        Kind::Rmw => OpKind::Rmw,
    }
}

fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

pub fn round(w: &NetWorkload, s: &Settings, dir: &Path, seed: u64, traced: bool) -> Round {
    let mut r = Round {
        traced,
        ..Round::default()
    };
    let res = if traced {
        let apply = Arc::new(Mutex::new(Samples::new()));
        let res = round_inner(w, s, dir, seed, &mut r, |kv| {
            Arc::new(Timed {
                kv,
                apply: Arc::clone(&apply),
            })
        });
        let samples = std::mem::take(&mut *apply.lock().expect("apply samples poisoned"));
        r.layers.times.insert("net.engine_apply_us", samples);
        res
    } else {
        round_inner(w, s, dir, seed, &mut r, Arc::new)
    };
    if let Err(e) = res {
        r.errors.push(e);
    }
    r
}

/// Client-side bookkeeping for the measured loop.
struct Tracker<'a> {
    ops: &'a [crate::stream::Op],
    /// Sent batches not yet acked: (last serial, send time).
    sent: VecDeque<(u64, Instant)>,
    /// Sampled acked ops awaiting a commit point: (serial, ack time).
    durable_q: VecDeque<(u64, Instant)>,
    acked: u64,
    bad_reads: u64,
    failed: u64,
    /// Commit requests: version expected → request time.
    in_flight: Option<(u64, Instant)>,
}

impl Tracker<'_> {
    fn absorb(&mut self, results: Vec<OpResult>, r: &mut Round) {
        let now = Instant::now();
        for res in &results {
            match (res.status, res.kind) {
                (OpStatus::Ok, OpKind::Read) => {
                    let want = self.ops[res.serial as usize - 1].arg;
                    self.bad_reads += u64::from(res.value != Some(want));
                }
                (OpStatus::Ok, _) => {}
                _ => self.failed += 1,
            }
            self.acked = self.acked.max(res.serial);
            if res.serial % SAMPLE_EVERY as u64 == 0 {
                self.durable_q.push_back((res.serial, now));
            }
        }
        while let Some(&(last, t)) = self.sent.front() {
            if last > self.acked {
                break;
            }
            let ns = (now - t).as_nanos() as u64;
            r.op_latency.push(ns);
            if r.traced {
                r.layers
                    .times
                    .entry("net.batch_rtt_us")
                    .or_default()
                    .push(ns);
            }
            self.sent.pop_front();
        }
    }

    fn poll_commit(&mut self, client: &NetClient, r: &mut Round) {
        let now = Instant::now();
        let cp = client.committed();
        if let Some((version, t)) = self.in_flight {
            if cp.version >= version {
                r.checkpoint.push((now - t).as_nanos() as u64);
                self.in_flight = None;
            }
        }
        while let Some(&(serial, t)) = self.durable_q.front() {
            if serial > cp.until_serial {
                break;
            }
            r.durable.push((now - t).as_nanos() as u64);
            self.durable_q.pop_front();
        }
    }
}

fn serve<E: Served>(engine: &Arc<E>) -> Result<NetServer, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err("bind"))?;
    NetServer::serve(Arc::clone(engine), listener).map_err(io_err("serve"))
}

fn round_inner<E: Served>(
    w: &NetWorkload,
    st: &Settings,
    dir: &Path,
    seed: u64,
    r: &mut Round,
    wrap: impl Fn(FasterKv<u64>) -> Arc<E>,
) -> Result<(), String> {
    let traced = r.traced;
    let t_setup = Instant::now();
    let stream = KvStream::generate(&w.kv.spec, seed);
    r.digest = stream.digest();
    let kv = builder(dir, &w.kv, st, traced)
        .open()
        .map_err(io_err("open"))?;
    preload(&kv, &stream)?;
    let engine = wrap(kv);
    let mut server = serve(&engine)?;
    let mut client = NetClient::connect(server.addr(), GUID).map_err(io_err("connect"))?;
    client.set_batch_size(usize::MAX);
    client.set_window(w.window);
    r.setup_s = t_setup.elapsed().as_secs_f64();

    let n = stream.ops.len();
    let commit_at: Vec<usize> = (1..=w.kv.commits)
        .map(|j| n * j / (w.kv.commits + 1))
        .collect();
    let mut next_commit = 0;
    let mut t = Tracker {
        ops: &stream.ops,
        sent: VecDeque::new(),
        durable_q: VecDeque::new(),
        acked: 0,
        bad_reads: 0,
        failed: 0,
        in_flight: None,
    };
    let report0 = engine.kv().metrics_snapshot();
    let (io0, main0, net0) = (
        sys::process_io(),
        sys::thread_io(),
        sys::threads_wchar("cpr-net"),
    );

    let t0 = Instant::now();
    for (b, chunk) in stream.ops.chunks(w.batch).enumerate() {
        let first = b * w.batch;
        if t.in_flight.is_none() && next_commit < commit_at.len() && first >= commit_at[next_commit]
        {
            let asked = Instant::now();
            if client
                .request_checkpoint(checkpoint_variant::FOLD_OVER, true)
                .map_err(io_err("checkpoint request"))?
            {
                next_commit += 1;
                t.in_flight = Some((next_commit as u64, asked));
            }
        }
        for op in chunk {
            client
                .submit(wire_kind(op.kind), op.key, op.arg)
                .map_err(io_err("submit"))?;
        }
        t.sent
            .push_back(((first + chunk.len()) as u64, Instant::now()));
        client.flush().map_err(io_err("flush"))?;
        t.absorb(client.take_results(), r);
        t.poll_commit(&client, r);
    }
    let results = client.sync().map_err(io_err("sync"))?;
    t.absorb(results, r);
    r.measured_s = t0.elapsed().as_secs_f64();
    r.completed = n as u64;
    r.attempted = n as u64;

    // Every requested commit completes before the crash.
    let deadline = Instant::now() + GIVE_UP;
    while next_commit < commit_at.len() || t.in_flight.is_some() {
        if t.in_flight.is_none() {
            let asked = Instant::now();
            if client
                .request_checkpoint(checkpoint_variant::FOLD_OVER, true)
                .map_err(io_err("checkpoint request"))?
            {
                next_commit += 1;
                t.in_flight = Some((next_commit as u64, asked));
            }
        }
        if let Some((version, _)) = t.in_flight {
            client
                .wait_commit(version, GIVE_UP)
                .map_err(io_err("wait commit"))?;
        }
        t.poll_commit(&client, r);
        if Instant::now() > deadline {
            return Err("commit did not complete".into());
        }
    }
    // Storage writes: everything the process wrote except the sockets
    // (the client on this thread, the server's connection threads).
    let io = sys::process_io() - io0;
    let main = sys::thread_io() - main0;
    let net = sys::threads_wchar("cpr-net").saturating_sub(net0);
    r.storage_bytes = io.wchar.saturating_sub(main.wchar + net);
    r.user_bytes = stream.updates() as u64 * 16;
    r.dir_bytes = sys::dir_bytes(dir);
    r.live_bytes = stream.preload.len() as u64 * 16;
    if traced {
        r.layers
            .engine_report(&report0, &engine.kv().metrics_snapshot());
    }
    if t.bad_reads > 0 {
        r.errors.push(format!(
            "{} reads returned a value other than the serial answer",
            t.bad_reads
        ));
    }
    r.failed += t.failed;
    let reported = client.committed().until_serial;

    // Crash: keep the client's unacknowledged-durable suffix, drop the
    // server and the store without a final commit.
    let buffer = client.take_buffer();
    server.shutdown();
    drop(server);
    drop(engine);

    let t_rec = Instant::now();
    let (kv, _) = builder(dir, &w.kv, st, traced)
        .recover()
        .map_err(io_err("recover"))?;
    let engine = wrap(kv);
    // Not dropped on the error paths below: a connection thread stuck in
    // the engine would make the server's drop wait for it forever.
    let mut server = std::mem::ManuallyDrop::new(serve(&engine)?);
    let mut client =
        NetClient::connect_with(server.addr(), GUID, buffer).map_err(io_err("resume"))?;
    r.recovery_s = t_rec.elapsed().as_secs_f64();

    let point = client.resume_point().until_serial;
    let mut v = Verdict::default();
    v.point("session", reported, point);
    let replayed = client.replayed() as u64;
    if replayed != n as u64 - point.min(n as u64) {
        v.errors.push(format!(
            "replayed {replayed} ops past commit point {point} of {n}"
        ));
    }
    client.take_results();
    let scan = client.scan().map_err(io_err("scan"))?;
    v.state(
        "scan after replay",
        &diff_state(&kv_prefix(&stream, n as u64), scan),
    );
    if traced {
        r.layers.value("net.replayed_ops", replayed as f64);
        r.layers.recovery_report(&engine.kv().metrics_snapshot());
    }
    client.goodbye().map_err(io_err("goodbye"))?;
    server.shutdown();
    drop(std::mem::ManuallyDrop::into_inner(server));
    r.failed += v.lost_acked;
    r.errors.extend(v.errors);
    Ok(())
}
