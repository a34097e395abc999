//! Straggler injection: YCSB on FASTER with one session that
//! periodically *parks* — `--stall-every N` ops it goes silent for
//! `--stall-ms M` milliseconds, issuing no operations and no refreshes,
//! exactly the thread-gets-descheduled / client-goes-away hazard of a
//! CPR group commit. The main thread issues back-to-back checkpoints and
//! reports commit-latency p50/p99 with the liveness watchdog off vs on.
//!
//! Without the watchdog every commit waits out the stall (p99 tracks
//! `stall_ms`); with it the straggler is proxy-advanced or evicted
//! within the grace period and the tail collapses.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpr_faster::{
    CheckpointVariant, FasterBuilder, HlogConfig, LivenessConfig, ReadResult, Status,
};
use cpr_metrics::LatencyHistogram;
use cpr_workload::keys::KeyDist;
use cpr_workload::ycsb::{OpKind, YcsbConfig, YcsbGenerator};

use crate::args::Args;
use crate::report::Report;

pub fn stragglers(args: &Args) {
    let keys = args.u64("keys", 100_000);
    let seconds = args.f64("seconds", 2.0);
    let threads = *args.list("threads", &[4]).last().unwrap_or(&4);
    let stall_every = args.u64("stall-every", 20_000);
    let stall_ms = args.u64("stall-ms", 50);
    let mut r = Report::new(
        format!(
            "Stragglers: FASTER fold-over commits, {threads} threads, one session \
             parking {stall_ms} ms every {stall_every} ops"
        ),
        &[
            "watchdog", "ckpts", "aborted", "p50_ms", "p99_ms", "max_ms", "Mops", "proxied",
            "evicted",
        ],
    );
    for watchdog in [false, true] {
        r.row(run(keys, seconds, threads, stall_every, stall_ms, watchdog));
    }
    r.print();
}

fn run(
    keys: u64,
    seconds: f64,
    threads: usize,
    stall_every: u64,
    stall_ms: u64,
    watchdog: bool,
) -> Vec<String> {
    let dir = tempfile::tempdir().expect("tempdir");
    let mut opts = FasterBuilder::u64_sums(dir.path())
        .index_buckets(1 << 14)
        .hlog(HlogConfig {
            page_bits: 16,      // 64 KiB pages
            memory_pages: 1024, // working set stays memory-resident
            mutable_pages: 920,
            value_size: 8,
        })
        .refresh_every(64);
    if watchdog {
        // Grace well below the stall (SystemClock ticks are ms) so the
        // watchdog acts while the straggler is parked, but far above the
        // refresh cadence of a healthy thread.
        let grace = (stall_ms / 4).max(5);
        opts = opts.liveness(
            LivenessConfig::system()
                .grace_ticks(grace)
                .poll_interval(Duration::from_millis(1)),
        );
    }
    let kv = opts.open().expect("open");
    {
        let mut loader = kv.start_session(1000);
        for k in 0..keys {
            loader.upsert(k, k);
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let total_ops = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let kv = kv.clone();
            let stop = Arc::clone(&stop);
            let total_ops = Arc::clone(&total_ops);
            std::thread::spawn(move || {
                let mut guid = t as u64 + 1;
                let mut s = kv.start_session(guid);
                let mut gen = YcsbGenerator::new(
                    YcsbConfig::read_update(keys, KeyDist::Zipfian { theta: 0.99 }, 50),
                    0xC0FFEE + t as u64,
                );
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let op = gen.next_op();
                    let evicted = match op.kind {
                        OpKind::Read => matches!(s.read(op.key), ReadResult::Evicted),
                        _ => s.upsert(op.key, op.arg) == Status::Evicted,
                    };
                    if evicted {
                        // Dead-session reclamation: the old registration is
                        // gone; re-enlist under a fresh guid and carry on.
                        guid += threads as u64;
                        s = kv.start_session(guid);
                        continue;
                    }
                    ops += 1;
                    // Thread 0 is the straggler: park without refreshing.
                    if t == 0 && stall_every > 0 && ops.is_multiple_of(stall_every) {
                        std::thread::sleep(Duration::from_millis(stall_ms));
                    }
                    if ops.is_multiple_of(1024) {
                        total_ops.fetch_add(1024, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();

    // Commit loop: back-to-back fold-over commits, each latency sampled.
    let hist = LatencyHistogram::new();
    let started = Instant::now();
    let mut ckpts = 0u64;
    let mut aborted = 0u64;
    let mut proxied = 0u64;
    let mut evicted = 0u64;
    let mut max_ms = 0.0f64;
    while started.elapsed().as_secs_f64() < seconds {
        let target = kv.committed_version().next();
        let t0 = Instant::now();
        if !kv.request_checkpoint(CheckpointVariant::FoldOver, true) {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        loop {
            if kv.committed_version() >= target || kv.last_commit_outcome().gave_up {
                break;
            }
            if t0.elapsed().as_secs_f64() > seconds + 10.0 {
                break; // safety valve: a wedged commit fails the run loudly
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        hist.record(t0.elapsed());
        max_ms = max_ms.max(ms);
        let out = kv.last_commit_outcome();
        ckpts += 1;
        aborted += out.aborted as u64;
        proxied += out.proxy_advanced.len() as u64;
        evicted += out.evicted.len() as u64;
        std::thread::sleep(Duration::from_millis(2));
    }
    let elapsed = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
    let lat = hist.snapshot();
    vec![
        if watchdog { "on" } else { "off" }.into(),
        ckpts.to_string(),
        aborted.to_string(),
        format!("{:.2}", lat.p50_ns as f64 / 1e6),
        format!("{:.2}", lat.p99_ns as f64 / 1e6),
        format!("{max_ms:.2}"),
        format!(
            "{:.3}",
            total_ops.load(Ordering::Relaxed) as f64 / elapsed / 1e6
        ),
        proxied.to_string(),
        evicted.to_string(),
    ]
}
