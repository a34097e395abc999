//! FASTER experiments: Figs. 12, 13, 14, 15, 18 and the §7.3.1 per-phase
//! profile.

use cpr_faster::{CheckpointVariant, VersionGrain};

use crate::args::Args;
use crate::faster_run::{run_end_to_end, run_faster, FasterRunConfig};
use crate::report::Report;

fn base_cfg(args: &Args, read_pct: u32, zipf: bool) -> FasterRunConfig {
    let threads = *args.list("threads", &[1, 2, 4]).iter().max().unwrap();
    let mut cfg = FasterRunConfig::scaled(threads, read_pct, zipf);
    cfg.num_keys = args.u64("keys", 200_000);
    cfg.seconds = args.f64("seconds", 3.0);
    cfg.sample_every = cfg.seconds / 10.0;
    cfg
}

/// Fig. 12 — throughput vs time with two full commits (paper: at 10 s and
/// 40 s of a 60 s run → here at 1/6 and 4/6 of the run), for fold-over vs
/// snapshot and Zipf vs Uniform; (a) 90:10, (b) 50:50, (c) 0:100;
/// (d) log growth for 0:100.
pub fn fig12(args: &Args) {
    let part = args.str("part", "all");
    let mixes: &[(&str, u32)] = &[("a (90:10)", 90), ("b (50:50)", 50), ("c (0:100)", 0)];
    if part == "all" || part == "throughput" {
        for (label, read_pct) in mixes {
            let mut r = Report::new(
                format!("Fig 12{label}: throughput vs time, full commits"),
                &["t_s", "variant", "dist", "Mops"],
            );
            for variant in [CheckpointVariant::FoldOver, CheckpointVariant::Snapshot] {
                for zipf in [true, false] {
                    let mut cfg = base_cfg(args, *read_pct, zipf);
                    cfg.variant = variant;
                    cfg.checkpoint_at = vec![cfg.seconds * (1.0 / 6.0), cfg.seconds * (4.0 / 6.0)];
                    let res = run_faster(&cfg);
                    for s in res.timeline {
                        r.row(vec![
                            format!("{:.2}", s.t),
                            format!("{variant:?}"),
                            if zipf { "zipf" } else { "uniform" }.into(),
                            format!("{:.3}", s.mops),
                        ]);
                    }
                }
            }
            r.print();
        }
    }
    if part == "all" || part == "loggrowth" {
        let mut r = Report::new(
            "Fig 12d: HybridLog size vs time, 0:100",
            &["t_s", "variant", "dist", "log_MB"],
        );
        for variant in [CheckpointVariant::FoldOver, CheckpointVariant::Snapshot] {
            for zipf in [true, false] {
                let mut cfg = base_cfg(args, 0, zipf);
                cfg.variant = variant;
                cfg.checkpoint_at = vec![cfg.seconds * (1.0 / 6.0), cfg.seconds * (4.0 / 6.0)];
                let res = run_faster(&cfg);
                for s in res.timeline {
                    r.row(vec![
                        format!("{:.2}", s.t),
                        format!("{variant:?}"),
                        if zipf { "zipf" } else { "uniform" }.into(),
                        format!("{:.2}", s.log_tail as f64 / 1e6),
                    ]);
                }
            }
        }
        r.print();
    }
}

/// Fig. 13 — throughput vs time for a varying number of threads, 50:50,
/// full fold-over commits; (a) Zipf, (b) Uniform.
pub fn fig13(args: &Args) {
    let threads_list = args.list("threads", &[1, 2, 4]);
    for zipf in [true, false] {
        let mut r = Report::new(
            format!(
                "Fig 13{}: throughput vs time by #threads ({})",
                if zipf { "a" } else { "b" },
                if zipf { "zipf" } else { "uniform" }
            ),
            &["t_s", "threads", "Mops"],
        );
        for &t in &threads_list {
            let mut cfg = base_cfg(args, 50, zipf);
            cfg.threads = t;
            cfg.checkpoint_at = vec![cfg.seconds * (1.0 / 6.0), cfg.seconds * (4.0 / 6.0)];
            let res = run_faster(&cfg);
            for s in res.timeline {
                r.row(vec![
                    format!("{:.2}", s.t),
                    t.to_string(),
                    format!("{:.3}", s.mops),
                ]);
            }
        }
        r.print();
    }
}

/// Fig. 14 — operation latency vs time during log-only fold-over commits,
/// fine- vs coarse-grained version shift; (a) 0:100 blind updates,
/// (b) 0:100 RMW. Also prints whole-run latency percentiles per
/// configuration.
pub fn fig14(args: &Args) {
    for (label, rmw) in [("a (blind)", false), ("b (RMW)", true)] {
        let mut r = Report::new(
            format!("Fig 14{label}: latency vs time, log-only fold-over"),
            &["t_s", "grain", "dist", "latency_us"],
        );
        let mut p = Report::new(
            format!("Fig 14{label}: whole-run latency percentiles"),
            &["grain", "dist", "p50_us", "p95_us", "p99_us"],
        );
        for grain in [VersionGrain::Coarse, VersionGrain::Fine] {
            for zipf in [true, false] {
                let mut cfg = base_cfg(args, 0, zipf);
                cfg.rmw = rmw;
                cfg.grain = grain;
                cfg.log_only = true;
                cfg.variant = CheckpointVariant::FoldOver;
                cfg.checkpoint_at = vec![cfg.seconds * 0.3, cfg.seconds * 0.65];
                let res = run_faster(&cfg);
                for s in res.timeline {
                    r.row(vec![
                        format!("{:.2}", s.t),
                        format!("{grain:?}"),
                        if zipf { "zipf" } else { "uniform" }.into(),
                        format!("{:.3}", s.avg_latency_us),
                    ]);
                }
                p.row(vec![
                    format!("{grain:?}"),
                    if zipf { "zipf" } else { "uniform" }.into(),
                    format!("{:.3}", res.lat_p50_us),
                    format!("{:.3}", res.lat_p95_us),
                    format!("{:.3}", res.lat_p99_us),
                ]);
            }
        }
        r.print();
        p.print();
    }
}

/// Fig. 15 — end-to-end: clients with bounded in-flight buffers, log-only
/// fold-over commits at 80% fill; throughput and commit interval vs
/// buffer size (paper: 31 KB – 977 KB per client = ~2k–61k 16-byte
/// entries; scaled here).
pub fn fig15(args: &Args) {
    let mut r = Report::new(
        "Fig 15: end-to-end throughput vs per-client buffer",
        &["buffer_entries", "dist", "Mops", "commit_interval_ms"],
    );
    let sizes = args.list("buffers", &[512, 1024, 2048, 4096, 8192]);
    for zipf in [true, false] {
        for &b in &sizes {
            let cfg = base_cfg(args, 50, zipf);
            let res = run_end_to_end(&cfg, b);
            r.row(vec![
                b.to_string(),
                if zipf { "zipf" } else { "uniform" }.into(),
                format!("{:.3}", res.mops),
                format!("{:.1}", res.avg_commit_interval_s * 1000.0),
            ]);
        }
    }
    r.print();
}

/// Fig. 18 (Appx. E.3) — frequent log-only commits (paper: every 15 s of
/// a 60 s run → every quarter here): throughput for 90:10 / 50:50 / 0:100
/// and log growth for 0:100.
pub fn fig18(args: &Args) {
    let part = args.str("part", "all");
    let mixes: &[(&str, u32)] = &[("a (90:10)", 90), ("b (50:50)", 50), ("c (0:100)", 0)];
    if part == "all" || part == "throughput" {
        for (label, read_pct) in mixes {
            let mut r = Report::new(
                format!("Fig 18{label}: throughput vs time, frequent log-only commits"),
                &["t_s", "variant", "dist", "Mops"],
            );
            for variant in [CheckpointVariant::FoldOver, CheckpointVariant::Snapshot] {
                for zipf in [true, false] {
                    let mut cfg = base_cfg(args, *read_pct, zipf);
                    cfg.variant = variant;
                    cfg.log_only = true;
                    cfg.checkpoint_at = (1..4).map(|i| cfg.seconds * i as f64 / 4.0).collect();
                    let res = run_faster(&cfg);
                    for s in res.timeline {
                        r.row(vec![
                            format!("{:.2}", s.t),
                            format!("{variant:?}"),
                            if zipf { "zipf" } else { "uniform" }.into(),
                            format!("{:.3}", s.mops),
                        ]);
                    }
                }
            }
            r.print();
        }
    }
    if part == "all" || part == "loggrowth" {
        let mut r = Report::new(
            "Fig 18d: log growth vs time, frequent log-only commits, 0:100",
            &["t_s", "variant", "dist", "log_MB"],
        );
        for variant in [CheckpointVariant::FoldOver, CheckpointVariant::Snapshot] {
            for zipf in [true, false] {
                let mut cfg = base_cfg(args, 0, zipf);
                cfg.variant = variant;
                cfg.log_only = true;
                cfg.checkpoint_at = (1..4).map(|i| cfg.seconds * i as f64 / 4.0).collect();
                let res = run_faster(&cfg);
                for s in res.timeline {
                    r.row(vec![
                        format!("{:.2}", s.t),
                        format!("{variant:?}"),
                        if zipf { "zipf" } else { "uniform" }.into(),
                        format!("{:.2}", s.log_tail as f64 / 1e6),
                    ]);
                }
            }
        }
        r.print();
    }
}

/// §7.3.1 — per-phase durations of one full commit ("each phase lasted
/// around 5 ms, except wait-flush").
///
/// The durations come from the metrics registry's phase tracer, so this
/// run has the registry enabled (per-op metrics included), unlike the
/// other FASTER experiments.
pub fn phases(args: &Args) {
    let mut cfg = base_cfg(args, 50, true);
    cfg.checkpoint_at = vec![cfg.seconds * 0.4];
    cfg.metrics = Some(cpr_metrics::Registry::new());
    let res = run_faster(&cfg);
    let mut r = Report::new(
        "Sec 7.3.1: CPR phase durations (one full fold-over commit)",
        &["phase", "entered_at_ms", "duration_ms"],
    );
    for span in &res.phases {
        r.row(vec![
            span.phase.clone(),
            format!("{:.2}", span.enter_secs * 1000.0),
            format!("{:.2}", span.secs * 1000.0),
        ]);
    }
    r.print();
}
