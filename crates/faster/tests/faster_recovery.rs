//! CPR checkpoint → crash → recovery tests for FASTER, across all four
//! design-variant combinations (fold-over/snapshot × fine/coarse), plus
//! log-only checkpoints and session continuation (paper Secs. 6.2–6.5).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cpr_faster::index::key_hash;
use cpr_faster::{
    CheckpointVariant, FasterBuilder, HashIndex, HlogConfig, ReadResult, VersionGrain,
};

fn opts(dir: &std::path::Path, grain: VersionGrain) -> FasterBuilder<u64> {
    FasterBuilder::u64_sums(dir)
        .hlog(HlogConfig {
            page_bits: 12,
            memory_pages: 16,
            mutable_pages: 8,
            value_size: 8,
        })
        .grain(grain)
        .refresh_every(8)
}

fn read_now(s: &mut cpr_faster::FasterSession<u64>, key: u64) -> Option<u64> {
    match s.read(key) {
        ReadResult::Found(v) => Some(v),
        ReadResult::NotFound => None,
        ReadResult::Evicted => panic!("session evicted"),
        ReadResult::Pending => {
            let mut out = Vec::new();
            for _ in 0..2000 {
                s.refresh();
                s.drain_completions(&mut out);
                if let Some(c) = out
                    .iter()
                    .find(|c| c.key == key && c.kind == cpr_faster::OpKind::Read)
                {
                    return c.value;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            panic!("pending read of {key} never completed");
        }
    }
}

/// Single session: commit after 100 upserts, write 100 more, crash,
/// recover — exactly the first 100 must be visible and the session's
/// recovered CPR point must say so.
fn single_session_prefix(variant: CheckpointVariant, grain: VersionGrain, log_only: bool) {
    let dir = tempfile::tempdir().unwrap();
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let mut s = kv.start_session(42);
        for k in 0..100u64 {
            s.upsert(k, k + 1);
        }
        assert!(kv.request_checkpoint(variant, log_only));
        while kv.committed_version() < 1 {
            s.refresh();
        }
        assert_eq!(s.durable_serial(), 100);
        for k in 100..200u64 {
            s.upsert(k, k + 1);
        }
        // crash without another commit
    }
    let (kv, manifest) = opts(dir.path(), grain).recover().unwrap();
    let manifest = manifest.expect("one commit");
    assert_eq!(manifest.version, 1);
    let (mut s, point) = kv.continue_session(42);
    assert_eq!(point, 100, "recovered CPR point");
    for k in 0..100u64 {
        assert_eq!(read_now(&mut s, k), Some(k + 1), "pre-point key {k} lost");
    }
    for k in 100..200u64 {
        assert_eq!(read_now(&mut s, k), None, "post-point key {k} leaked");
    }
}

#[test]
fn foldover_fine_prefix() {
    single_session_prefix(CheckpointVariant::FoldOver, VersionGrain::Fine, false);
}
#[test]
fn foldover_coarse_prefix() {
    single_session_prefix(CheckpointVariant::FoldOver, VersionGrain::Coarse, false);
}
#[test]
fn snapshot_fine_prefix() {
    single_session_prefix(CheckpointVariant::Snapshot, VersionGrain::Fine, false);
}
#[test]
fn snapshot_coarse_prefix() {
    single_session_prefix(CheckpointVariant::Snapshot, VersionGrain::Coarse, false);
}
#[test]
fn foldover_fine_log_only_prefix() {
    // No index checkpoint: recovery replays the log from the beginning.
    single_session_prefix(CheckpointVariant::FoldOver, VersionGrain::Fine, true);
}
#[test]
fn snapshot_coarse_log_only_prefix() {
    single_session_prefix(CheckpointVariant::Snapshot, VersionGrain::Coarse, true);
}

/// Concurrent sessions on disjoint key ranges: after recovery each
/// session sees exactly its prefix up to its own CPR point.
fn concurrent_prefix(variant: CheckpointVariant, grain: VersionGrain) {
    const SESSIONS: u64 = 4;
    const KEYS: u64 = 32;
    let dir = tempfile::tempdir().unwrap();
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..SESSIONS)
            .map(|g| {
                let kv = kv.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut s = kv.start_session(g);
                    let mut serial = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        serial += 1;
                        let key = g * KEYS + (serial % KEYS);
                        // value encodes the writing serial
                        s.upsert(key, serial);
                    }
                    while kv.committed_version() < 1 {
                        s.refresh();
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    // Drain pendings before dropping.
                    for _ in 0..1000 {
                        if s.pending_len() == 0 {
                            break;
                        }
                        s.refresh();
                        std::thread::sleep(Duration::from_millis(1));
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        assert!(kv.request_checkpoint(variant, false));
        assert!(kv.wait_for_version(1, Duration::from_secs(20)));
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
    }
    let (kv, manifest) = opts(dir.path(), grain).recover().unwrap();
    let manifest = manifest.unwrap();
    for g in 0..SESSIONS {
        let (mut s, point) = kv.continue_session(g);
        assert_eq!(point, manifest.cpr_point(g).unwrap());
        for k in 0..KEYS {
            let key = g * KEYS + k;
            let got = read_now(&mut s, key);
            // Expected: largest serial ≤ point with serial % KEYS == k.
            let expected = if point == 0 {
                None
            } else {
                let cand = point - ((point % KEYS + KEYS - k) % KEYS);
                (cand >= 1 && cand <= point).then_some(cand)
            };
            assert_eq!(
                got, expected,
                "session {g} key {key}: point {point}, got {got:?}"
            );
        }
    }
}

#[test]
fn concurrent_foldover_fine() {
    concurrent_prefix(CheckpointVariant::FoldOver, VersionGrain::Fine);
}
#[test]
fn concurrent_foldover_coarse() {
    concurrent_prefix(CheckpointVariant::FoldOver, VersionGrain::Coarse);
}
#[test]
fn concurrent_snapshot_fine() {
    concurrent_prefix(CheckpointVariant::Snapshot, VersionGrain::Fine);
}
#[test]
fn concurrent_snapshot_coarse() {
    concurrent_prefix(CheckpointVariant::Snapshot, VersionGrain::Coarse);
}

/// RMW under a concurrent checkpoint: the recovered sums must equal the
/// number of committed increments per the CPR point — i.e. the recovered
/// total equals the sum of per-session points (each op adds exactly 1).
fn rmw_checkpoint_sums(variant: CheckpointVariant, grain: VersionGrain) {
    const SESSIONS: u64 = 3;
    const KEYS: u64 = 4;
    let dir = tempfile::tempdir().unwrap();
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..SESSIONS)
            .map(|g| {
                let kv = kv.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut s = kv.start_session(g);
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        s.rmw(n % KEYS, 1);
                        n += 1;
                    }
                    while kv.committed_version() < 1 || s.pending_len() > 0 {
                        s.refresh();
                        std::thread::sleep(Duration::from_millis(1));
                        if kv.committed_version() >= 1 && s.pending_len() == 0 {
                            break;
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(40));
        assert!(kv.request_checkpoint(variant, false));
        assert!(kv.wait_for_version(1, Duration::from_secs(20)));
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
    }
    let (kv, manifest) = opts(dir.path(), grain).recover().unwrap();
    let manifest = manifest.unwrap();
    let committed_ops: u64 = (0..SESSIONS)
        .map(|g| manifest.cpr_point(g).unwrap_or(0))
        .sum();
    let mut s = kv.start_session(99);
    let mut total = 0u64;
    for k in 0..KEYS {
        total += read_now(&mut s, k).unwrap_or(0);
    }
    assert_eq!(
        total, committed_ops,
        "recovered sums must match committed prefix exactly (all-before, none-after)"
    );
}

#[test]
fn rmw_sums_foldover_fine() {
    rmw_checkpoint_sums(CheckpointVariant::FoldOver, VersionGrain::Fine);
}
#[test]
fn rmw_sums_foldover_coarse() {
    rmw_checkpoint_sums(CheckpointVariant::FoldOver, VersionGrain::Coarse);
}
#[test]
fn rmw_sums_snapshot_fine() {
    rmw_checkpoint_sums(CheckpointVariant::Snapshot, VersionGrain::Fine);
}
#[test]
fn rmw_sums_snapshot_coarse() {
    rmw_checkpoint_sums(CheckpointVariant::Snapshot, VersionGrain::Coarse);
}

/// Two commits in sequence; recovery uses the newest.
#[test]
fn second_commit_supersedes_first() {
    let dir = tempfile::tempdir().unwrap();
    let grain = VersionGrain::Fine;
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let mut s = kv.start_session(1);
        s.upsert(1, 100);
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
        while kv.committed_version() < 1 {
            s.refresh();
        }
        s.upsert(1, 200);
        s.upsert(2, 300);
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, true));
        while kv.committed_version() < 2 {
            s.refresh();
        }
        s.upsert(3, 999); // lost
    }
    let (kv, manifest) = opts(dir.path(), grain).recover().unwrap();
    assert_eq!(manifest.unwrap().version, 2);
    let (mut s, point) = kv.continue_session(1);
    assert_eq!(point, 3);
    assert_eq!(read_now(&mut s, 1), Some(200));
    assert_eq!(read_now(&mut s, 2), Some(300));
    assert_eq!(read_now(&mut s, 3), None);
}

/// Deletes before the CPR point stay deleted after recovery.
#[test]
fn committed_deletes_survive_recovery() {
    let dir = tempfile::tempdir().unwrap();
    let grain = VersionGrain::Fine;
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let mut s = kv.start_session(1);
        s.upsert(1, 10);
        s.upsert(2, 20);
        s.delete(1);
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
        while kv.committed_version() < 1 {
            s.refresh();
        }
    }
    let (kv, _) = opts(dir.path(), grain).recover().unwrap();
    let (mut s, _) = kv.continue_session(1);
    assert_eq!(read_now(&mut s, 1), None, "committed delete lost");
    assert_eq!(read_now(&mut s, 2), Some(20));
}

/// Recovery with an evicted (disk-resident) working set: the index scan
/// must stitch records that were already on disk before the commit.
#[test]
fn recovery_with_large_log_and_eviction() {
    let dir = tempfile::tempdir().unwrap();
    let grain = VersionGrain::Coarse;
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let mut s = kv.start_session(5);
        for k in 0..20_000u64 {
            s.upsert(k % 5000, k);
        }
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
        while kv.committed_version() < 1 {
            s.refresh();
        }
        for _ in 0..1000 {
            if s.pending_len() == 0 {
                break;
            }
            s.refresh();
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let (kv, _) = opts(dir.path(), grain).recover().unwrap();
    let (mut s, point) = kv.continue_session(5);
    assert_eq!(point, 20_000);
    // Spot-check: last writer of key k was upsert with value
    // 15_000 + k (the final round 15000..20000 covered keys 0..5000).
    for k in (0..5000u64).step_by(500) {
        assert_eq!(read_now(&mut s, k), Some(15_000 + k), "key {k}");
    }
}

/// An uncommitted checkpoint directory (crash mid-flush) is ignored.
#[test]
fn crash_during_checkpoint_falls_back_to_previous() {
    let dir = tempfile::tempdir().unwrap();
    let grain = VersionGrain::Fine;
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let mut s = kv.start_session(1);
        s.upsert(1, 111);
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
        while kv.committed_version() < 1 {
            s.refresh();
        }
    }
    // Fake a torn second checkpoint: directory without manifest.
    std::fs::create_dir_all(dir.path().join("checkpoints/cpt.99")).unwrap();
    std::fs::write(dir.path().join("checkpoints/cpt.99/index.dat"), b"junk").unwrap();
    let (kv, manifest) = opts(dir.path(), grain).recover().unwrap();
    assert_eq!(manifest.unwrap().version, 1);
    let (mut s, _) = kv.continue_session(1);
    assert_eq!(read_now(&mut s, 1), Some(111));
}

/// A manifest torn mid-write (truncated JSON) reads as *uncommitted*:
/// recovery must skip it and fall back to the previous checkpoint
/// rather than panicking on the parse.
#[test]
fn torn_manifest_reads_as_uncommitted() {
    let dir = tempfile::tempdir().unwrap();
    let grain = VersionGrain::Fine;
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let mut s = kv.start_session(1);
        s.upsert(1, 111);
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
        while kv.committed_version() < 1 {
            s.refresh();
        }
    }
    // Fake a torn later checkpoint: a manifest cut off mid-JSON, as a
    // power failure during the (non-atomic) write would leave it.
    let good = std::fs::read(dir.path().join("checkpoints/cpt.1/manifest.json")).unwrap();
    std::fs::create_dir_all(dir.path().join("checkpoints/cpt.99")).unwrap();
    std::fs::write(
        dir.path().join("checkpoints/cpt.99/manifest.json"),
        &good[..good.len() / 2],
    )
    .unwrap();
    std::fs::write(dir.path().join("checkpoints/cpt.99/index.dat"), b"junk").unwrap();
    let (kv, manifest) = opts(dir.path(), grain).recover().unwrap();
    assert_eq!(manifest.unwrap().version, 1);
    let (mut s, _) = kv.continue_session(1);
    assert_eq!(read_now(&mut s, 1), Some(111));
}

/// continue_session for an unknown guid starts from serial 0.
#[test]
fn continue_unknown_session_starts_fresh() {
    let dir = tempfile::tempdir().unwrap();
    let grain = VersionGrain::Fine;
    {
        let kv = opts(dir.path(), grain).open().unwrap();
        let mut s = kv.start_session(1);
        s.upsert(1, 1);
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, false));
        while kv.committed_version() < 1 {
            s.refresh();
        }
    }
    let (kv, _) = opts(dir.path(), grain).recover().unwrap();
    let (s, point) = kv.continue_session(777);
    assert_eq!(point, 0);
    assert_eq!(s.serial(), 0);
}

/// Buckets of the index the shared-slot tests use: small, so a pair of
/// keys with equal bucket and tag is found in a few thousand keys.
const SHARED_SLOT_BUCKETS: usize = 64;

/// Two keys that share an index slot (equal bucket and tag), ordered by
/// key hash: `(lower hash, higher hash)`.
fn shared_slot_pair() -> (u64, u64) {
    let index = HashIndex::new(SHARED_SLOT_BUCKETS);
    let mut seen = std::collections::HashMap::new();
    for k in 1u64.. {
        if let Some(&j) = seen.get(&index.slot_key(key_hash(k))) {
            let (a, b): (u64, u64) = (j, k);
            return if key_hash(a) < key_hash(b) {
                (a, b)
            } else {
                (b, a)
            };
        }
        seen.insert(index.slot_key(key_hash(k)), k);
    }
    unreachable!()
}

fn shared_slot_opts(dir: &std::path::Path, threads: usize) -> FasterBuilder<u64> {
    opts(dir, VersionGrain::Fine)
        .index_buckets(SHARED_SLOT_BUCKETS)
        .recovery_threads(threads)
}

/// Upsert `first` then `second` (keys sharing one slot), take a log-only
/// fold-over commit and crash.
fn write_shared_slot(dir: &std::path::Path, first: u64, second: u64) {
    let kv = shared_slot_opts(dir, 1).open().unwrap();
    let mut s = kv.start_session(1);
    s.upsert(first, 100 + first);
    s.upsert(second, 100 + second);
    assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, true));
    while kv.committed_version() < 1 {
        s.refresh();
    }
}

/// Recovery summarises the scan per index slot, not per key hash: two
/// keys sharing a slot share one record chain, and the slot must end at
/// the newer record. Written in this order, a per-hash summary applied
/// the older key's record last and lost the newer key.
#[test]
fn keys_sharing_a_slot_both_survive_log_only_recovery() {
    let (lo, hi) = shared_slot_pair();
    let dir = tempfile::tempdir().unwrap();
    write_shared_slot(dir.path(), hi, lo);
    let mut digests = Vec::new();
    for threads in [1usize, 2, 4] {
        let (kv, _) = shared_slot_opts(dir.path(), threads).recover().unwrap();
        let mut s = kv.start_session(2);
        assert_eq!(read_now(&mut s, lo), Some(100 + lo), "{threads} threads");
        assert_eq!(read_now(&mut s, hi), Some(100 + hi), "{threads} threads");
        digests.push(kv.index_digest());
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "recovered index differs across thread counts: {digests:x?}"
    );
}

/// After recovery every record is on the device, so reading the older of
/// two keys sharing a slot takes two device reads: the newer key's
/// record, then its `prev`.
#[test]
fn read_needing_two_device_reads_completes() {
    let (lo, hi) = shared_slot_pair();
    let dir = tempfile::tempdir().unwrap();
    write_shared_slot(dir.path(), lo, hi);
    let (kv, _) = shared_slot_opts(dir.path(), 2).recover().unwrap();
    let mut s = kv.start_session(2);
    assert_eq!(read_now(&mut s, lo), Some(100 + lo), "deeper key");
    assert_eq!(read_now(&mut s, hi), Some(100 + hi), "newer key");
}

/// A chain whose middle record recovery marks invalid: session 1 writes
/// `deep` at v, crosses into v + 1 and rewrites it; session 2, still in
/// prepare, then writes `top` at v on the same slot. The commit holds
/// `deep`'s first value and `top`; the device chain is
/// `top (v) → deep (v + 1, invalid) → deep (v)`. Reading `deep` after
/// recovery must step over the invalid record, as the in-memory walk
/// does, and take three device reads.
#[test]
fn device_walk_steps_over_records_marked_invalid() {
    use cpr_core::Phase;
    let (deep, top) = shared_slot_pair();
    let dir = tempfile::tempdir().unwrap();
    {
        let kv = shared_slot_opts(dir.path(), 1).open().unwrap();
        let mut s1 = kv.start_session(1);
        let mut s2 = kv.start_session(2);
        s1.upsert(deep, 1);
        assert!(kv.request_checkpoint(CheckpointVariant::FoldOver, true));
        s2.refresh();
        assert_eq!(s2.info().phase, Phase::Prepare);
        while s1.info().phase != Phase::InProgress {
            s1.refresh();
        }
        assert_eq!(s2.info().phase, Phase::Prepare, "s2 must not refresh yet");
        s1.upsert(deep, 2); // version v + 1: after s1's CPR point
        s2.upsert(top, 3); // version v, chained over deep's v + 1 record
        while kv.committed_version() < 1 {
            s1.refresh();
            s2.refresh();
        }
    }
    for threads in [1usize, 2] {
        let (kv, manifest) = shared_slot_opts(dir.path(), threads).recover().unwrap();
        let manifest = manifest.unwrap();
        assert_eq!(manifest.cpr_point(1), Some(1));
        assert_eq!(manifest.cpr_point(2), Some(1));
        let mut s = kv.start_session(3);
        assert_eq!(read_now(&mut s, deep), Some(1), "{threads} threads");
        assert_eq!(read_now(&mut s, top), Some(3), "{threads} threads");
    }
}

/// A session that sleeps through the end of one commit and the start of
/// the next jumps from (wait-pending, v - 1) straight to (prepare, v).
/// Requests it accepted at wait-pending of v - 1 carry version v, so they
/// are pre-point for v and must be protected on that jump as on the usual
/// rest → prepare one. Unprotected, a post-point writer hands the key over
/// to v + 1 first and the pre-point update lands in the v + 1 record: the
/// commit of v reports it durable but recovery loses it.
#[test]
fn pending_update_from_before_a_missed_prepare_is_recovered() {
    use cpr_core::Phase;
    use cpr_faster::Status;
    let key = 7u64;
    let dir = tempfile::tempdir().unwrap();
    let open = || {
        FasterBuilder::u64_sums(dir.path())
            .hlog(HlogConfig {
                page_bits: 12,
                memory_pages: 16,
                mutable_pages: 1,
                value_size: 8,
            })
            // Sessions refresh only where the test says so.
            .refresh_every(1 << 30)
    };
    let last_serial = {
        let kv = open().open().unwrap();
        let mut s0 = kv.start_session(1);
        let mut s1 = kv.start_session(2);
        assert_eq!(s0.upsert(key, 1), Status::Ok);

        // Commit 1 (a snapshot: its flush needs no session refresh). Once
        // both sessions have refreshed inside wait-pending the machine
        // leaves it; s0 refreshes no further and sleeps through the rest.
        assert!(kv.request_checkpoint(CheckpointVariant::Snapshot, true));
        while kv.state().0 != Phase::WaitPending {
            s0.refresh();
            s1.refresh();
        }
        s0.refresh();
        s1.refresh();
        assert!(kv.wait_for_version(1, Duration::from_secs(10)));
        let (phase, version) = (s0.info().phase, s0.info().version.0);
        assert!(
            phase >= Phase::WaitPending && version == 1,
            "{phase:?} {version}"
        );

        // Still inside commit 1, requests carry version 2: copy `key` into
        // a version-2 record, then fill the mutable page so that record
        // turns read-only but not yet safely so (s1 has not refreshed
        // since); updating it again goes pending.
        assert_eq!(s0.upsert(key, 5), Status::Ok);
        for k in 1000..1400u64 {
            assert_eq!(s0.upsert(k, k), Status::Ok);
        }
        assert_eq!(s0.upsert(key, 10), Status::Pending);
        let last = s0.info().serial;

        // Commit 2: s0 jumps straight into prepare; s1 then drives the
        // machine into in-progress and writes `key` after its CPR point.
        assert!(kv.request_checkpoint(CheckpointVariant::Snapshot, true));
        s0.refresh();
        assert_eq!((s0.info().phase, s0.info().version.0), (Phase::Prepare, 2));
        while s1.info().phase != Phase::InProgress {
            s1.refresh();
        }
        let _ = s1.upsert(key, 20);
        while kv.committed_version() < 2 {
            s0.refresh();
            s1.refresh();
        }
        last
    };
    let (kv, manifest) = open().recover().unwrap();
    let manifest = manifest.unwrap();
    assert_eq!(manifest.version, 2);
    assert_eq!(manifest.cpr_point(1), Some(last_serial));
    let mut s = kv.start_session(3);
    assert_eq!(
        read_now(&mut s, key),
        Some(10),
        "s0's update is inside its commit-2 CPR point"
    );
}
