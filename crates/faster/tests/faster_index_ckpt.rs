//! Independent fuzzy index checkpoints (paper Sec. 6.3) and failure
//! injection around recovery inputs.

use std::time::Duration;

use cpr_faster::{
    CheckpointVariant, FasterBuilder, HlogConfig, ReadResult, VersionGrain,
};

fn opts(dir: &std::path::Path) -> FasterBuilder<u64> {
    FasterBuilder::u64_sums(dir)
        .hlog(HlogConfig {
            page_bits: 12,
            memory_pages: 16,
            mutable_pages: 8,
            value_size: 8,
        })
        .refresh_every(8)
}

fn read_now(s: &mut cpr_faster::FasterSession<u64>, key: u64) -> Option<u64> {
    match s.read(key) {
        ReadResult::Found(v) => Some(v),
        ReadResult::NotFound => None,
        ReadResult::Evicted => panic!("session evicted"),
        ReadResult::Pending => {
            let mut out = Vec::new();
            for _ in 0..5000 {
                s.refresh();
                s.drain_completions(&mut out);
                if let Some(c) = out.iter().find(|c| c.key == key) {
                    return c.value;
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            panic!("pending read never completed");
        }
    }
}

/// The paper's intended cadence: index checkpoints rarely, log-only
/// commits frequently. Recovery stitches the newest log commit with the
/// older standalone index checkpoint and replays the suffix.
#[test]
fn log_only_commits_recover_via_older_index_checkpoint() {
    let dir = tempfile::tempdir().unwrap();
    {
        let kv = opts(dir.path()).open().unwrap();
        let mut s = kv.start_session(3);
        for k in 0..200u64 {
            s.upsert(k, k + 1);
        }
        // Standalone fuzzy index checkpoint.
        kv.checkpoint_index().unwrap();
        // More updates, then several frequent log-only commits.
        for round in 1..=3u64 {
            for k in 0..200u64 {
                s.upsert(k, round * 1000 + k);
            }
            assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, true));
            while kv.committed_version() < round {
                s.refresh();
            }
        }
        s.upsert(9999, 1); // post-point, lost
    }
    let (kv, manifest) = opts(dir.path()).recover().unwrap();
    let manifest = manifest.unwrap();
    assert_eq!(manifest.version, 3);
    assert!(manifest.index_begin.is_none(), "log-only commit");
    let (mut s, point) = kv.continue_session(3);
    assert_eq!(point, 200 * 4);
    for k in (0..200u64).step_by(23) {
        assert_eq!(read_now(&mut s, k), Some(3000 + k), "key {k}");
    }
    assert_eq!(read_now(&mut s, 9999), None);
}

/// Log-only commits with NO index checkpoint at all: recovery replays the
/// whole log from its beginning into a fresh index.
#[test]
fn log_only_without_any_index_checkpoint_replays_from_origin() {
    let dir = tempfile::tempdir().unwrap();
    {
        let kv = opts(dir.path()).open().unwrap();
        let mut s = kv.start_session(1);
        for k in 0..300u64 {
            s.upsert(k, k * 3);
        }
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, true));
        while kv.committed_version() < 1 {
            s.refresh();
        }
    }
    let (kv, _) = opts(dir.path()).recover().unwrap();
    let (mut s, _) = kv.continue_session(1);
    for k in (0..300u64).step_by(37) {
        assert_eq!(read_now(&mut s, k), Some(k * 3), "key {k}");
    }
}

/// A corrupted index checkpoint surfaces as a recovery error instead of
/// silently recovering garbage.
#[test]
fn corrupted_index_dump_is_a_recovery_error() {
    let dir = tempfile::tempdir().unwrap();
    {
        let kv = opts(dir.path()).open().unwrap();
        let mut s = kv.start_session(1);
        s.upsert(1, 1);
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
        while kv.committed_version() < 1 {
            s.refresh();
        }
    }
    // Corrupt the (full) checkpoint's index file.
    let store = cpr_storage::CheckpointStore::open(dir.path().join("checkpoints")).unwrap();
    let token = store.tokens().unwrap()[0];
    std::fs::write(store.file(token, "index.dat"), vec![0xFF; 64]).unwrap();
    assert!(
        opts(dir.path()).recover().is_err(),
        "corrupted index must not recover silently"
    );
}

/// A missing snapshot file for a snapshot commit is a hard error.
#[test]
fn missing_snapshot_file_is_a_recovery_error() {
    let dir = tempfile::tempdir().unwrap();
    {
        let kv = opts(dir.path()).open().unwrap();
        let mut s = kv.start_session(1);
        for k in 0..50u64 {
            s.upsert(k, k);
        }
        assert!(kv.request_checkpoint(CheckpointVariant::Snapshot, false));
        while kv.committed_version() < 1 {
            s.refresh();
        }
    }
    let store = cpr_storage::CheckpointStore::open(dir.path().join("checkpoints")).unwrap();
    let token = store.tokens().unwrap()[0];
    std::fs::remove_file(store.file(token, "snapshot.dat")).unwrap();
    assert!(opts(dir.path()).recover().is_err());
}

/// Checkpoints tolerate both grains back-to-back on one store (the grain
/// is a per-open configuration; data is grain-agnostic).
#[test]
fn grain_can_change_across_restarts() {
    let dir = tempfile::tempdir().unwrap();
    {
        let kv = opts(dir.path()).grain(VersionGrain::Fine).open().unwrap();
        let mut s = kv.start_session(1);
        s.upsert(5, 50);
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
        while kv.committed_version() < 1 {
            s.refresh();
        }
    }
    let (kv, _) = opts(dir.path()).grain(VersionGrain::Coarse).recover().unwrap();
    let (mut s, _) = kv.continue_session(1);
    assert_eq!(read_now(&mut s, 5), Some(50));
    // And commit again under the new grain. Note reads are operations
    // too: the read above advanced the serial.
    s.upsert(6, 60);
    let accepted = s.serial();
    assert!(kv.request_checkpoint(CheckpointVariant::Snapshot, false));
    while kv.committed_version() < 2 {
        s.refresh();
    }
    assert_eq!(s.durable_serial(), accepted);
}

/// The phase tracer records every transition of a full commit, in order.
#[test]
fn phase_marks_cover_all_transitions() {
    let dir = tempfile::tempdir().unwrap();
    let kv = opts(dir.path())
        .metrics(cpr_metrics::Registry::new())
        .open()
        .unwrap();
    let mut s = kv.start_session(1);
    for k in 0..50u64 {
        s.upsert(k, k);
    }
    assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
    while kv.committed_version() < 1 {
        s.refresh();
    }
    let timeline = kv
        .metrics_snapshot()
        .checkpoints
        .pop()
        .expect("a finished checkpoint timeline");
    assert!(timeline.committed);
    let phases: Vec<&str> = timeline.phases.iter().map(|p| p.phase.as_str()).collect();
    assert_eq!(
        phases,
        ["prepare", "in-progress", "wait-pending", "wait-flush"]
    );
    // Entry offsets from commit start never decrease.
    for w in timeline.phases.windows(2) {
        assert!(w[0].enter_secs <= w[1].enter_secs);
    }
}

/// Commit observers (paper Sec. 5.2) fire once per durable commit with
/// the per-session CPR points.
#[test]
fn commit_callbacks_deliver_cpr_points() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let dir = tempfile::tempdir().unwrap();
    let kv = opts(dir.path()).open().unwrap();
    let seen_version = Arc::new(AtomicU64::new(0));
    let seen_point = Arc::new(AtomicU64::new(u64::MAX));
    let (sv, sp) = (seen_version.clone(), seen_point.clone());
    kv.on_commit(move |version, points| {
        sv.store(version, Ordering::SeqCst);
        if let Some(p) = points.iter().find(|p| p.guid == 11) {
            sp.store(p.cpr_point, Ordering::SeqCst);
        }
    });

    let mut s = kv.start_session(11);
    for k in 0..25u64 {
        s.upsert(k, k);
    }
    assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, true));
    while kv.committed_version() < 1 {
        s.refresh();
    }
    assert_eq!(seen_version.load(Ordering::SeqCst), 1);
    assert_eq!(seen_point.load(Ordering::SeqCst), 25);

    for k in 0..10u64 {
        s.upsert(k, k);
    }
    assert!(kv.request_checkpoint(CheckpointVariant::Snapshot, true));
    while kv.committed_version() < 2 {
        s.refresh();
    }
    assert_eq!(seen_version.load(Ordering::SeqCst), 2);
    assert_eq!(seen_point.load(Ordering::SeqCst), 35);
}
