//! What one round of a workload measures, and how rounds combine into
//! the reported metrics.
//!
//! A round is a fixed amount of work: set up, run a fixed number of ops
//! with commits at fixed op counts, crash, recover and check. A run
//! repeats rounds until its time is spent; each round is reduced to its
//! figures as it ends, and the figures combine as medians over rounds.

use std::collections::BTreeMap;
use std::time::Duration;

use cpr_metrics::MetricsReport;

use crate::recorder::{median, Samples};

/// Per-layer figures of one traced round.
#[derive(Debug, Default)]
pub struct Layers {
    /// Exact timings in nanoseconds, keyed by base name (`faster.read_ns`).
    pub times: BTreeMap<&'static str, Samples>,
    /// Scalars; several values under one name combine as their median.
    pub values: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    #[inline]
    pub fn time(&mut self, name: &'static str, d: Duration) {
        self.times
            .entry(name)
            .or_default()
            .push(d.as_nanos() as u64);
    }

    pub fn value(&mut self, name: &'static str, v: f64) {
        self.values.entry(name).or_default().push(v);
    }

    /// Turn the round's timings into the percentiles `PER_LAYER` names
    /// (`base.pNN` of the samples of `base`; `_us` bases in microseconds)
    /// and drop the samples.
    fn finish(&mut self) {
        for &(name, _) in PER_LAYER {
            let Some((base, pct)) = name.rsplit_once(".p") else {
                continue;
            };
            let (Some(samples), Ok(p)) = (self.times.get_mut(base), pct.parse::<f64>()) else {
                continue;
            };
            let ns = samples.percentile(p) as f64;
            let v = if base.ends_with("_us") { ns / 1e3 } else { ns };
            self.value(name, v);
        }
        self.times.clear();
        // "Outside the engine" is the batch round trip minus the time the
        // server spent inside the engine.
        let last = |l: &Layers, name| {
            l.values
                .get(name)
                .and_then(|v: &Vec<f64>| v.last().copied())
        };
        if let (Some(rtt), Some(apply)) = (
            last(self, "net.batch_rtt_us.p50"),
            last(self, "net.engine_apply_us.p50"),
        ) {
            self.value("net.outside_engine_us.p50", rtt - apply);
        }
    }

    pub fn absorb(&mut self, other: &Layers) {
        for (name, s) in &other.times {
            self.times.entry(name).or_default().extend(s);
        }
        for (name, v) in &other.values {
            self.values.entry(name).or_default().extend_from_slice(v);
        }
    }

    /// Figures every engine reports through `metrics_snapshot()`: epoch
    /// bumps, checkpoint phases, storage traffic. `before` is taken after
    /// set-up, `after` once the last commit completed.
    pub fn engine_report(&mut self, before: &MetricsReport, after: &MetricsReport) {
        self.value(
            "epoch.bumps",
            (after.epoch.bumps - before.epoch.bumps) as f64,
        );
        self.value(
            "epoch.bump_to_drain_us.p50",
            after.epoch.bump_to_drain.p50_ns as f64 / 1e3,
        );
        let timelines: Vec<_> = after
            .checkpoints
            .iter()
            .filter(|t| !before.checkpoints.iter().any(|b| b.version == t.version))
            .collect();
        self.value("core.commit_attempts", timelines.len() as f64);
        for t in timelines.iter().filter(|t| t.committed) {
            for p in &t.phases {
                let name = match p.phase.as_str() {
                    "prepare" => "core.phase.prepare_ms",
                    "in-progress" => "core.phase.in_progress_ms",
                    "wait-pending" => "core.phase.wait_pending_ms",
                    "wait-flush" => "core.phase.wait_flush_ms",
                    _ => continue,
                };
                self.value(name, p.secs * 1e3);
            }
        }
        let (a, b) = (&after.storage, &before.storage);
        let bytes = a.bytes_written - b.bytes_written;
        self.value("storage.bytes_written", bytes as f64);
        self.value("storage.writes", (a.writes - b.writes) as f64);
        self.value("storage.syncs", (a.syncs - b.syncs) as f64);
        self.value("storage.flush_ms.p50", a.flush_latency.p50_ns as f64 / 1e6);
        let flush_ms: f64 = after
            .phase_timings
            .iter()
            .skip(before.phase_timings.len())
            .filter(|p| p.name.starts_with("flush.") || p.name.starts_with("capture."))
            .map(|p| p.millis)
            .sum();
        if flush_ms > 0.0 {
            self.value("storage.flush_mb_s", bytes as f64 / 1e6 / (flush_ms / 1e3));
        }
    }

    /// Recovery stage timings from the recovered engine's report.
    pub fn recovery_report(&mut self, report: &MetricsReport) {
        for p in &report.phase_timings {
            let name = match p.name.as_str() {
                "recovery.normalize" => "faster.recovery.normalize_ms",
                "recovery.scan" => "faster.recovery.scan_ms",
                "recovery.apply" => "faster.recovery.apply_ms",
                "recovery.load" => "memdb.recovery.load_ms",
                _ => continue,
            };
            self.value(name, p.millis);
        }
    }
}

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub traced: bool,
    /// Digest of the round's generated inputs.
    pub digest: u64,
    pub setup_s: f64,
    /// Ops (memdb: transactions) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Completed ops (memdb: committed transactions) over `measured_s`.
    pub completed: u64,
    pub measured_s: f64,
    /// Per-op (net: per-batch) latency samples, ns.
    pub op_latency: Samples,
    /// Time-to-durable samples, ns.
    pub durable: Samples,
    /// Commit request to `committed_version()` advance, ns.
    pub checkpoint: Samples,
    pub recovery_s: f64,
    pub storage_bytes: u64,
    pub user_bytes: u64,
    pub dir_bytes: u64,
    pub live_bytes: u64,
    /// Peak resident set of the process during the round, MiB.
    pub peak_rss_mb: f64,
    pub errors: Vec<String>,
    pub layers: Layers,
    /// Summaries of `op_latency`, `durable` and `checkpoint`, set by
    /// [`Round::finish`].
    pub latency: [Latency; 3],
}

/// One round's summary of a latency sample set, ns.
#[derive(Debug, Default, Clone, Copy)]
pub struct Latency {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
    /// The highest percentile with at least ten samples beyond it, and
    /// its value.
    pub tail_pct: f64,
    pub tail: f64,
}

impl Round {
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.measured_s
    }

    /// Reduce the round's samples to the figures the report needs and
    /// drop them, so memory use does not grow with the number of rounds.
    pub fn finish(&mut self) {
        let sets = [
            &mut self.op_latency,
            &mut self.durable,
            &mut self.checkpoint,
        ];
        for (l, s) in self.latency.iter_mut().zip(sets) {
            let sum = s.summary();
            *l = Latency {
                count: sum.count,
                p50: sum.p50 as f64,
                p99: s.percentile(99.0) as f64,
                tail_pct: sum.tail_pct,
                tail: sum.tail as f64,
            };
            *s = Samples::new();
        }
        self.layers.finish();
    }
}

/// A named, unit-tagged figure.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// End-to-end metrics of the untraced rounds. Every figure, latency
/// percentiles included, is the median over rounds of that round's
/// value: a round's tail is set by its few slowest commits, and the
/// median round is far steadier than a tail pooled across rounds.
pub fn end_to_end(rounds: &[Round]) -> Vec<Metric> {
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let per_round =
        |f: &dyn Fn(&Round) -> f64| median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>());
    let metric = |name, unit, value| Metric { name, unit, value };
    let [op, durable, ckpt] = [0, 1, 2];
    vec![
        metric("setup_s", "s", per_round(&|r| r.setup_s)),
        metric("throughput_ops_s", "ops/s", per_round(&|r| r.throughput())),
        metric(
            "op_latency_p50_us",
            "us",
            per_round(&|r| r.latency[op].p50 / 1e3),
        ),
        metric(
            "op_latency_p99_us",
            "us",
            per_round(&|r| r.latency[op].p99 / 1e3),
        ),
        metric(
            "durable_latency_p50_ms",
            "ms",
            per_round(&|r| r.latency[durable].p50 / 1e6),
        ),
        metric(
            "durable_latency_p99_ms",
            "ms",
            per_round(&|r| r.latency[durable].p99 / 1e6),
        ),
        metric(
            "checkpoint_p50_ms",
            "ms",
            per_round(&|r| r.latency[ckpt].p50 / 1e6),
        ),
        metric("recovery_s", "s", per_round(&|r| r.recovery_s)),
        metric(
            "write_amp",
            "ratio",
            per_round(&|r| r.storage_bytes as f64 / r.user_bytes.max(1) as f64),
        ),
        metric(
            "space_amp",
            "ratio",
            per_round(&|r| r.dir_bytes as f64 / r.live_bytes.max(1) as f64),
        ),
        metric("peak_rss_mb", "MiB", per_round(&|r| r.peak_rss_mb)),
    ]
}

/// What backs each latency metric, for the human-readable report: the
/// smallest per-round sample count, the median p50, and the highest
/// percentile every round resolves (at least ten samples beyond it) with
/// its median value.
pub fn latency_support(rounds: &[Round]) -> Vec<String> {
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    [
        ("op_latency", 1e3, "us"),
        ("durable_latency", 1e6, "ms"),
        ("checkpoint", 1e6, "ms"),
    ]
    .iter()
    .enumerate()
    .map(|(i, &(name, div, unit))| {
        let lat: Vec<Latency> = plain.iter().map(|r| r.latency[i]).collect();
        let min_n = lat.iter().map(|l| l.count).min().unwrap_or(0);
        let tail_pct = lat.iter().map(|l| l.tail_pct).fold(f64::INFINITY, f64::min);
        let med = |f: fn(&Latency) -> f64| median(&lat.iter().map(f).collect::<Vec<_>>()) / div;
        format!(
            "{name}: per-round samples >= {min_n}; p50 {:.3} {unit}; p{tail_pct} {:.3} {unit}",
            med(|l| l.p50),
            med(|l| l.tail),
        )
    })
    .collect()
}

/// Every per-layer metric, with its unit. Names follow the crate that
/// owns the layer. A workload that does not exercise a layer reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("faster.read_ns.p50", "ns"),
    ("faster.read_ns.p99", "ns"),
    ("faster.upsert_ns.p50", "ns"),
    ("faster.upsert_ns.p99", "ns"),
    ("faster.rmw_ns.p50", "ns"),
    ("faster.rmw_ns.p99", "ns"),
    ("faster.pending_ratio", "ratio"),
    ("faster.complete_pending_ns.p50", "ns"),
    ("faster.log_bytes_per_update", "bytes"),
    ("faster.recovery.normalize_ms", "ms"),
    ("faster.recovery.scan_ms", "ms"),
    ("faster.recovery.apply_ms", "ms"),
    ("epoch.refresh_ns.p50", "ns"),
    ("epoch.refresh_ns.p99", "ns"),
    ("epoch.bumps", "count"),
    ("epoch.bump_to_drain_us.p50", "us"),
    ("core.phase.prepare_ms", "ms"),
    ("core.phase.in_progress_ms", "ms"),
    ("core.phase.wait_pending_ms", "ms"),
    ("core.phase.wait_flush_ms", "ms"),
    ("core.commit_attempts", "count"),
    ("storage.bytes_written", "bytes"),
    ("storage.writes", "count"),
    ("storage.syncs", "count"),
    ("storage.flush_ms.p50", "ms"),
    ("storage.flush_mb_s", "MB/s"),
    ("storage.device_reads_per_lookup", "ratio"),
    ("memdb.execute_ns.p50", "ns"),
    ("memdb.execute_ns.p99", "ns"),
    ("memdb.abort_ratio", "ratio"),
    ("memdb.conflict_aborts", "count"),
    ("memdb.cpr_shift_aborts", "count"),
    ("memdb.exec_share", "ratio"),
    ("memdb.abort_share", "ratio"),
    ("memdb.tail_share", "ratio"),
    ("memdb.capture_ms", "ms"),
    ("memdb.recovery.load_ms", "ms"),
    ("net.batch_rtt_us.p50", "us"),
    ("net.batch_rtt_us.p99", "us"),
    ("net.engine_apply_us.p50", "us"),
    ("net.engine_apply_us.p99", "us"),
    ("net.outside_engine_us.p50", "us"),
    ("net.replayed_ops", "count"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer metrics from the traced rounds, plus the tracing overhead
/// (untraced vs traced throughput, percent of untraced). Each is the
/// median of its values over the traced rounds (per-commit values count
/// once per commit).
pub fn per_layer(rounds: &[Round]) -> Vec<Metric> {
    let mut all = Layers::default();
    for r in rounds.iter().filter(|r| r.traced) {
        all.absorb(&r.layers);
    }
    let tput = |traced: bool| {
        median(
            &rounds
                .iter()
                .filter(|r| r.traced == traced)
                .map(Round::throughput)
                .collect::<Vec<_>>(),
        )
    };
    let (plain, traced) = (tput(false), tput(true));
    if plain > 0.0 {
        all.value("trace.overhead_pct", (plain - traced) / plain * 100.0);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: all.values.get(name).map_or(0.0, |v| median(v)),
        })
        .collect()
}
