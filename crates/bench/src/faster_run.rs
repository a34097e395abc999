//! Shared runner for the FASTER experiments (Figs. 12, 13, 14, 15, 18 and
//! the §7.3.1 phase profile).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpr_faster::{CheckpointVariant, FasterKv, FasterBuilder, HlogConfig, Status, VersionGrain};
use cpr_metrics::LatencyHistogram;
use cpr_workload::keys::KeyDist;
use cpr_workload::ycsb::{OpKind, YcsbConfig, YcsbGenerator};


#[derive(Clone, Debug)]
pub struct FasterRunConfig {
    pub threads: usize,
    pub num_keys: u64,
    /// Read percentage; remainder is blind updates unless `rmw`.
    pub read_pct: u32,
    /// All updates are read-modify-writes ("0:100 RMW").
    pub rmw: bool,
    pub zipf: bool,
    pub seconds: f64,
    pub hlog: HlogConfig,
    pub index_buckets: usize,
    pub variant: CheckpointVariant,
    pub grain: VersionGrain,
    pub log_only: bool,
    /// Wall-clock marks (seconds) at which to request a commit.
    pub checkpoint_at: Vec<f64>,
    pub sample_every: f64,
    /// Optional live metrics registry wired into the store.
    pub metrics: Option<Arc<cpr_metrics::Registry>>,
}

impl FasterRunConfig {
    /// Laptop-scale defaults (see EXPERIMENTS.md for the paper-scale
    /// parameters these stand in for).
    pub fn scaled(threads: usize, read_pct: u32, zipf: bool) -> Self {
        FasterRunConfig {
            threads,
            num_keys: 200_000,
            read_pct,
            rmw: false,
            zipf,
            seconds: 3.0,
            hlog: HlogConfig {
                page_bits: 16,      // 64 KiB pages
                memory_pages: 1024, // 64 MiB in memory: working set stays resident
                mutable_pages: 920, // ~90% mutable, as in the paper
                value_size: 8,
            },
            index_buckets: 1 << 15, // ≈ #keys/2 entries counting 7 per bucket
            variant: CheckpointVariant::FoldOver,
            grain: VersionGrain::Fine,
            log_only: false,
            checkpoint_at: Vec::new(),
            sample_every: 0.5,
            metrics: None,
        }
    }
}

#[derive(Debug, Clone)]
pub struct FasterSample {
    pub t: f64,
    pub mops: f64,
    pub avg_latency_us: f64,
    /// HybridLog tail (bytes) — the log-growth metric.
    pub log_tail: u64,
}

#[derive(Debug, Clone)]
#[allow(dead_code)] // aggregate fields are consumed by a subset of the figures
pub struct FasterRunResult {
    pub ops: u64,
    pub elapsed: f64,
    pub mops: f64,
    pub timeline: Vec<FasterSample>,
    /// Phase spans of the last checkpoint, from the metrics tracer (empty
    /// unless the run has a metrics registry).
    pub phases: Vec<cpr_metrics::PhaseSpan>,
    /// Sampled-operation latency percentiles over the whole run (µs).
    pub lat_p50_us: f64,
    pub lat_p95_us: f64,
    pub lat_p99_us: f64,
}

/// Run one configuration to completion.
pub fn run_faster(cfg: &FasterRunConfig) -> FasterRunResult {
    let dir = tempfile::tempdir().expect("tempdir");
    let mut opts = FasterBuilder::u64_sums(dir.path())
        .hlog(cfg.hlog)
        .index_buckets(cfg.index_buckets)
        .grain(cfg.grain)
        .refresh_every(64);
    if let Some(m) = &cfg.metrics {
        opts = opts.metrics(Arc::clone(m));
    }
    let kv: FasterKv<u64> = opts.open().expect("open faster");

    // Pre-load every key so reads always hit.
    {
        let mut s = kv.start_session(1_000_000);
        for k in 0..cfg.num_keys {
            s.upsert(k, k);
        }
        while s.pending_len() > 0 {
            s.refresh();
        }
    }

    let ycsb = if cfg.rmw {
        YcsbConfig::rmw_only(cfg.num_keys, key_dist(cfg.zipf))
    } else {
        YcsbConfig::read_update(cfg.num_keys, key_dist(cfg.zipf), cfg.read_pct)
    };

    let stop = Arc::new(AtomicBool::new(false));
    let op_counts: Arc<Vec<AtomicU64>> =
        Arc::new((0..cfg.threads).map(|_| AtomicU64::new(0)).collect());
    let lat_sum_ns = Arc::new(AtomicU64::new(0));
    let lat_count = Arc::new(AtomicU64::new(0));
    let lat_hist = Arc::new(LatencyHistogram::new());

    let workers: Vec<_> = (0..cfg.threads)
        .map(|t| {
            let kv = kv.clone();
            let stop = stop.clone();
            let op_counts = Arc::clone(&op_counts);
            let lat_sum = Arc::clone(&lat_sum_ns);
            let lat_cnt = Arc::clone(&lat_count);
            let lat_hist = Arc::clone(&lat_hist);
            std::thread::spawn(move || {
                let mut s = kv.start_session(t as u64);
                let mut gen = YcsbGenerator::new(ycsb, 0xFA57 + t as u64);
                let mut completions = Vec::new();
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let op = gen.next_op();
                    // Sample latency on every 64th op.
                    let timed = n.is_multiple_of(64);
                    let t0 = timed.then(Instant::now);
                    match op.kind {
                        OpKind::Read => {
                            let _ = s.read(op.key);
                        }
                        OpKind::Upsert => {
                            let _ = s.upsert(op.key, op.arg);
                        }
                        OpKind::Rmw => {
                            let _: Status = s.rmw(op.key, op.arg);
                        }
                    }
                    if let Some(t0) = t0 {
                        let ns = t0.elapsed().as_nanos() as u64;
                        lat_sum.fetch_add(ns, Ordering::Relaxed);
                        lat_cnt.fetch_add(1, Ordering::Relaxed);
                        lat_hist.record_ns(ns);
                    }
                    n += 1;
                    op_counts[t].fetch_add(1, Ordering::Relaxed);
                    if n.is_multiple_of(256) {
                        s.drain_completions(&mut completions);
                        completions.clear();
                    }
                }
                // Let any in-flight commit finish, then drain pendings.
                let deadline = Instant::now() + Duration::from_secs(20);
                while (kv.state().0 != cpr_core::Phase::Rest || s.pending_len() > 0)
                    && Instant::now() < deadline
                {
                    s.refresh();
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        })
        .collect();

    let started = Instant::now();
    let mut timeline = Vec::new();
    let mut ckpts = cfg.checkpoint_at.clone();
    ckpts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ckpts.reverse();
    let (mut last_ops, mut last_t, mut last_lat, mut last_latn) = (0u64, 0.0f64, 0u64, 0u64);
    while started.elapsed().as_secs_f64() < cfg.seconds {
        std::thread::sleep(Duration::from_secs_f64(
            cfg.sample_every.min(cfg.seconds / 2.0),
        ));
        let t = started.elapsed().as_secs_f64();
        let ops: u64 = op_counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        let ls = lat_sum_ns.load(Ordering::Relaxed);
        let ln = lat_count.load(Ordering::Relaxed);
        timeline.push(FasterSample {
            t,
            mops: (ops - last_ops) as f64 / (t - last_t) / 1e6,
            avg_latency_us: if ln > last_latn {
                (ls - last_lat) as f64 / (ln - last_latn) as f64 / 1000.0
            } else {
                0.0
            },
            log_tail: kv.log_tail(),
        });
        last_ops = ops;
        last_t = t;
        last_lat = ls;
        last_latn = ln;
        if let Some(&mark) = ckpts.last() {
            if t >= mark {
                ckpts.pop();
                kv.request_checkpoint(cfg.variant, cfg.log_only);
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
    let elapsed = started.elapsed().as_secs_f64();
    let ops: u64 = op_counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    let lat = lat_hist.snapshot();
    FasterRunResult {
        ops,
        elapsed,
        mops: ops as f64 / elapsed / 1e6,
        timeline,
        phases: kv
            .metrics_snapshot()
            .checkpoints
            .pop()
            .map(|tl| tl.phases)
            .unwrap_or_default(),
        lat_p50_us: lat.p50_ns as f64 / 1000.0,
        lat_p95_us: lat.p95_ns as f64 / 1000.0,
        lat_p99_us: lat.p99_ns as f64 / 1000.0,
    }
}

fn key_dist(zipf: bool) -> KeyDist {
    if zipf {
        KeyDist::Zipfian { theta: 0.99 }
    } else {
        KeyDist::Uniform
    }
}

/// The end-to-end client-buffer experiment (paper Fig. 15): each client
/// keeps a bounded buffer of in-flight (uncommitted) requests, pruned at
/// CPR points; a log-only fold-over commit is requested whenever a buffer
/// reaches 80%, and clients block when full.
pub struct EndToEndResult {
    pub mops: f64,
    pub avg_commit_interval_s: f64,
}

pub fn run_end_to_end(cfg: &FasterRunConfig, buffer_entries: usize) -> EndToEndResult {
    let dir = tempfile::tempdir().expect("tempdir");
    let opts = FasterBuilder::u64_sums(dir.path())
        .hlog(cfg.hlog)
        .index_buckets(cfg.index_buckets)
        .grain(cfg.grain)
        .refresh_every(64);
    let kv: FasterKv<u64> = opts.open().expect("open faster");
    {
        let mut s = kv.start_session(1_000_000);
        for k in 0..cfg.num_keys {
            s.upsert(k, k);
        }
        while s.pending_len() > 0 {
            s.refresh();
        }
    }
    let ycsb = YcsbConfig::read_update(cfg.num_keys, key_dist(cfg.zipf), cfg.read_pct);
    let stop = Arc::new(AtomicBool::new(false));
    let ops_total = Arc::new(AtomicU64::new(0));
    let commits = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..cfg.threads)
        .map(|t| {
            let kv = kv.clone();
            let stop = stop.clone();
            let ops_total = Arc::clone(&ops_total);
            let commits = Arc::clone(&commits);
            std::thread::spawn(move || {
                let mut s = kv.start_session(t as u64);
                let mut gen = YcsbGenerator::new(ycsb, 0xE2E + t as u64);
                // In-flight ops: serials in (durable, serial].
                while !stop.load(Ordering::Relaxed) {
                    let in_flight = s.serial() - s.durable_serial();
                    if in_flight as usize >= buffer_entries {
                        // Buffer full: block until a commit prunes it.
                        s.refresh();
                        std::thread::sleep(Duration::from_micros(50));
                        continue;
                    }
                    if in_flight as usize * 10 >= buffer_entries * 8 {
                        // 80% full: ask for a log-only fold-over commit.
                        if kv.request_checkpoint(CheckpointVariant::FoldOver, true) {
                            commits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let op = gen.next_op();
                    match op.kind {
                        OpKind::Read => {
                            let _ = s.read(op.key);
                        }
                        _ => {
                            let _ = s.upsert(op.key, op.arg);
                        }
                    }
                    ops_total.fetch_add(1, Ordering::Relaxed);
                }
                let deadline = Instant::now() + Duration::from_secs(20);
                while (kv.state().0 != cpr_core::Phase::Rest || s.pending_len() > 0)
                    && Instant::now() < deadline
                {
                    s.refresh();
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        })
        .collect();

    let started = Instant::now();
    while started.elapsed().as_secs_f64() < cfg.seconds {
        std::thread::sleep(Duration::from_millis(50));
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
    let elapsed = started.elapsed().as_secs_f64();
    let n_commits = commits.load(Ordering::Relaxed).max(1);
    EndToEndResult {
        mops: ops_total.load(Ordering::Relaxed) as f64 / elapsed / 1e6,
        avg_commit_interval_s: elapsed / n_commits as f64,
    }
}
