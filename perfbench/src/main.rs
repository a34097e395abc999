//! The CPR benchmark: seeded closed-loop workloads against the public
//! APIs of `cpr-faster`, `cpr-memdb` and `cpr-net`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats identical rounds (set-up, fixed work with commits at
//! fixed op counts, crash, recovery, check) until `--seconds` have
//! passed, then prints every metric by name and unit and, as its last
//! line, one JSON object. With `--trace 0` that object holds the
//! end-to-end metrics of untraced rounds; with `--trace 1` untraced and
//! traced rounds alternate and it holds the per-layer metrics plus the
//! tracing overhead. Any failed crash-recovery check makes the run exit
//! with status 1. See README.md for the workloads and metrics.

mod check;
mod kv;
mod net;
mod recorder;
mod round;
mod stream;
mod sys;
mod txn;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cpr_faster::HlogConfig;

use crate::kv::KvWorkload;
use crate::net::NetWorkload;
use crate::round::{Metric, Round};
use crate::stream::{KeyDist, Kind, KvSpec, TxnSpec};
use crate::txn::TxnWorkload;

/// Every `SAMPLE_EVERY`-th op is timed for the latency metrics and
/// followed until it is durable.
pub const SAMPLE_EVERY: usize = 32;
/// Longest the benchmark waits for any single engine step.
pub const GIVE_UP: Duration = Duration::from_secs(60);
/// Rounds of each kind a run makes at least.
const MIN_ROUNDS: usize = 3;
const MIN_TRACED_ROUNDS: usize = 2;
/// A run starts no new round after this long.
const RUN_LIMIT: Duration = Duration::from_secs(120);

/// Engine settings the workloads depend on, fixed here rather than left
/// to defaults or the environment (`CPR_IO_THREADS` is ignored).
#[derive(Debug, Clone)]
pub struct Settings {
    /// The benchmark refreshes its sessions every this many ops ...
    pub refresh_every: usize,
    /// ... so the engines' own refresh, every this many, never fires.
    pub engine_refresh_every: u64,
    pub max_sessions: usize,
    pub io_threads: usize,
    pub write_queues: usize,
    pub recovery_threads: usize,
    pub capture_threads: usize,
}

const SETTINGS: Settings = Settings {
    refresh_every: 64,
    engine_refresh_every: 128,
    max_sessions: 8,
    io_threads: 2,
    write_queues: 2,
    recovery_threads: 2,
    // The two memdb sessions already occupy both cores.
    capture_threads: 1,
};

#[derive(Debug)]
enum Workload {
    Kv(KvWorkload),
    Txn(TxnWorkload),
    Net(NetWorkload),
}

/// A hybrid log of `pages` in-memory pages of `2^page_bits` bytes,
/// 7/8 of them mutable.
fn hlog(page_bits: u32, pages: usize) -> HlogConfig {
    HlogConfig {
        page_bits,
        memory_pages: pages,
        mutable_pages: pages - pages / 8,
        value_size: 8,
    }
}

/// The resident shape shared by `kv-resident` and `net-kv`: 100k keys
/// (2.3 MiB of 24-byte records) against a 64 MiB in-memory log.
fn resident(ops: usize, dist: KeyDist, commits: usize) -> KvWorkload {
    KvWorkload {
        spec: KvSpec {
            keys: 100_000,
            ops,
            read_pct: 50,
            update: Kind::Upsert,
            dist,
        },
        hlog: hlog(20, 64),
        index_buckets: 1 << 15,
        commits,
        first_full: false,
        window: 64,
    }
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "kv-resident" => Workload::Kv(resident(2_000_000, KeyDist::Zipf(0.99), 8)),
        // 400k keys (9.2 MiB of records) against a 2 MiB in-memory log.
        "kv-spill" => Workload::Kv(KvWorkload {
            spec: KvSpec {
                keys: 400_000,
                ops: 400_000,
                read_pct: 50,
                update: Kind::Rmw,
                dist: KeyDist::Uniform,
            },
            hlog: hlog(15, 64),
            index_buckets: 1 << 17,
            commits: 4,
            first_full: true,
            window: 32,
        }),
        // 20k keys: far more than sessions, and a capture pass short
        // enough that eight commits fit a round without dominating it.
        "txn-contended" => Workload::Txn(TxnWorkload {
            spec: TxnSpec {
                keys: 20_000,
                txns: 300_000,
                write_pct: 50,
                dist: KeyDist::Zipf(0.9),
            },
            sessions: 2,
            commits: 8,
        }),
        "net-kv" => Workload::Net(NetWorkload {
            kv: resident(1_000_000, KeyDist::Uniform, 8),
            batch: 256,
            window: 2,
        }),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run_round(w: &Workload, dir: &Path, seed: u64, traced: bool) -> Round {
    let _ = std::fs::remove_dir_all(dir);
    sys::reset_peak_rss();
    let mut r = match w {
        Workload::Kv(k) => kv::round(k, &SETTINGS, dir, seed, traced),
        Workload::Txn(t) => txn::round(t, &SETTINGS, dir, seed, traced),
        Workload::Net(n) => net::round(n, &SETTINGS, dir, seed, traced),
    };
    r.peak_rss_mb = sys::peak_rss_mb();
    let _ = std::fs::remove_dir_all(dir);
    r.finish();
    r
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {}; expected kv-resident, kv-spill, txn-contended or net-kv",
            args.workload
        );
        return ExitCode::from(2);
    };
    let dir: PathBuf = [
        ".bench_work",
        &format!("{}-{}", args.workload, std::process::id()),
    ]
    .iter()
    .collect();

    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let traced = args.trace && rounds.len() % 2 == 1;
        let r = run_round(&w, &dir, args.seed, traced);
        let failed = !r.errors.is_empty();
        for e in &r.errors {
            eprintln!("perfbench: {} round {}: {e}", args.workload, rounds.len());
        }
        rounds.push(r);
        if failed {
            break;
        }
        let plain = rounds.iter().filter(|r| !r.traced).count();
        let traced = rounds.len() - plain;
        let enough = plain >= MIN_ROUNDS && (!args.trace || traced >= MIN_TRACED_ROUNDS);
        let spent = start.elapsed();
        if (enough && spent.as_secs_f64() >= args.seconds) || spent >= RUN_LIMIT {
            break;
        }
    }
    let _ = std::fs::remove_dir(".bench_work");

    let correct = rounds.iter().all(|r| r.errors.is_empty());
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let plain = rounds.iter().filter(|r| !r.traced).count();
    println!(
        "# {} seed {} (inputs {:#018x}): {} rounds ({} traced) in {:.1} s",
        args.workload,
        args.seed,
        rounds[0].digest,
        rounds.len(),
        rounds.len() - plain,
        start.elapsed().as_secs_f64()
    );
    for (i, r) in rounds.iter().enumerate() {
        println!(
            "# round {i}{}: {:.0} ops/s, setup {:.3} s, recovery {:.4} s",
            if r.traced { " (traced)" } else { "" },
            r.throughput(),
            r.setup_s,
            r.recovery_s
        );
    }
    println!("# settings: {SETTINGS:?}");
    println!("# workload: {w:?}");
    let e2e = round::end_to_end(&rounds);
    for m in &e2e {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<28} {:>16.6} ratio",
        "op_fail_ratio",
        failed as f64 / attempted.max(1) as f64
    );
    for line in round::latency_support(&rounds) {
        println!("# {line}");
    }
    let metrics = if args.trace {
        let layers = round::per_layer(&rounds);
        for m in &layers {
            println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        layers
    } else {
        e2e
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
