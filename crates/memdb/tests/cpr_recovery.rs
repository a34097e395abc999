//! End-to-end CPR consistency tests for the transactional database:
//! commit under concurrent load, "crash" (drop), recover, and verify the
//! all-before / none-after prefix property per session (paper Def. 1).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cpr_memdb::{Access, Durability, MemDb};

const KEYS_PER_SESSION: u64 = 16;

fn encode(guid: u64, serial: u64) -> u64 {
    (guid << 40) | serial
}

fn decode(v: u64) -> (u64, u64) {
    (v >> 40, v & ((1 << 40) - 1))
}

/// Each session owns a disjoint key range and writes key `serial % R` of
/// its range with value `encode(guid, serial)`. After recovery, the value
/// of each key must be exactly the last write at-or-before the session's
/// recovered CPR point.
#[test]
fn concurrent_commit_recovers_exact_prefix_per_session() {
    let dir = tempfile::tempdir().unwrap();
    let opts = || {
        MemDb::builder(Durability::Cpr)
            .dir(dir.path())
            .capacity(1 << 10)
            .refresh_every(8)
    };
    const SESSIONS: u64 = 4;

    let db: MemDb<u64> = opts().open().unwrap();
    for g in 0..SESSIONS {
        for k in 0..KEYS_PER_SESSION {
            db.load(g * KEYS_PER_SESSION + k, encode(g, 0));
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..SESSIONS)
        .map(|g| {
            let db = db.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut s = db.session(g);
                let mut reads = Vec::new();
                let mut serial = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    serial += 1;
                    let key = g * KEYS_PER_SESSION + (serial % KEYS_PER_SESSION);
                    let accesses = [(key, Access::Write)];
                    let seeds = [encode(g, serial)];
                    let txn = cpr_memdb::TxnRequest {
                        accesses: &accesses,
                        write_seeds: &seeds,
                    };
                    while s.execute(&txn, &mut reads).is_err() {
                        // disjoint keys: only CPR aborts possible; retry
                    }
                    assert_eq!(s.serial(), serial);
                }
                // Keep refreshing so an in-flight commit can finish.
                for _ in 0..100 {
                    s.refresh();
                    std::thread::sleep(Duration::from_millis(1));
                    if db.committed_version() >= 1 {
                        break;
                    }
                }
            })
        })
        .collect();

    // Let them run, then commit mid-stream.
    std::thread::sleep(Duration::from_millis(50));
    assert!(db.request_commit());
    assert!(db.wait_for_version(1, Duration::from_secs(10)));
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
    drop(db); // crash

    let (db2, manifest) = opts().recover().unwrap();
    let manifest = manifest.expect("one checkpoint committed");
    assert_eq!(manifest.version, 1);
    assert_eq!(manifest.sessions.len() as u64, SESSIONS);

    for g in 0..SESSIONS {
        let point = manifest.cpr_point(g).expect("session in manifest");
        for k in 0..KEYS_PER_SESSION {
            let key = g * KEYS_PER_SESSION + k;
            let (rg, rs) = decode(db2.read(key).expect("key recovered"));
            assert_eq!(rg, g);
            // Expected: the largest serial s in [1, point] with
            // s % R == k (serials are assigned 1, 2, 3, ... round-robin
            // over the session's keys); 0 means only the pre-load value.
            let r = KEYS_PER_SESSION;
            let cand = point.wrapping_sub((point % r + r - k) % r);
            let expected = if point > 0 && cand >= 1 && cand <= point {
                cand
            } else {
                0
            };
            assert_eq!(
                rs, expected,
                "session {g} key {key}: recovered serial {rs}, cpr point {point}"
            );
        }
    }
}

/// Shared hot keys: recovered values must come from the committed prefix
/// of *some* session (all-before/none-after with racing writers).
#[test]
fn shared_keys_recover_only_pre_point_writes() {
    let dir = tempfile::tempdir().unwrap();
    let opts = || {
        MemDb::builder(Durability::Cpr)
            .dir(dir.path())
            .capacity(64)
            .refresh_every(4)
    };
    const SESSIONS: u64 = 3;
    const HOT_KEYS: u64 = 4;

    let db: MemDb<u64> = opts().open().unwrap();
    for k in 0..HOT_KEYS {
        db.load(k, encode(7, 0)); // sentinel guid 7
    }

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..SESSIONS)
        .map(|g| {
            let db = db.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut s = db.session(g);
                let mut reads = Vec::new();
                let mut serial = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = serial % HOT_KEYS;
                    let accesses = [(key, Access::Write)];
                    let seeds = [encode(g, serial + 1)];
                    let txn = cpr_memdb::TxnRequest {
                        accesses: &accesses,
                        write_seeds: &seeds,
                    };
                    if s.execute(&txn, &mut reads).is_ok() {
                        serial += 1;
                    }
                }
                while db.committed_version() < 1 {
                    s.refresh();
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(30));
    assert!(db.request_commit());
    assert!(db.wait_for_version(1, Duration::from_secs(10)));
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
    drop(db);

    let (db2, manifest) = opts().recover().unwrap();
    let manifest = manifest.unwrap();
    for k in 0..HOT_KEYS {
        let (g, s) = decode(db2.read(k).unwrap());
        if g == 7 {
            continue; // pre-load value, fine
        }
        let point = manifest
            .cpr_point(g)
            .unwrap_or_else(|| panic!("unknown writer session {g}"));
        assert!(
            s <= point,
            "key {k} holds serial {s} from session {g}, beyond its CPR point {point}"
        );
    }
}

/// Repeated commits advance the version and each is recoverable.
#[test]
fn multiple_sequential_commits() {
    let dir = tempfile::tempdir().unwrap();
    let opts = || {
        MemDb::builder(Durability::Cpr)
            .dir(dir.path())
            .capacity(64)
            .refresh_every(2)
    };
    let db: MemDb<u64> = opts().open().unwrap();
    db.load(0, 0);
    let mut s = db.session(1);
    let mut reads = Vec::new();

    for round in 1..=3u64 {
        let accesses = [(0, Access::Write)];
        let seeds = [round * 100];
        let txn = cpr_memdb::TxnRequest {
            accesses: &accesses,
            write_seeds: &seeds,
        };
        while s.execute(&txn, &mut reads).is_err() {}
        assert!(db.request_commit(), "round {round}");
        while db.committed_version() < round {
            s.refresh();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(s.durable_serial(), round);
    }
    drop(s);
    drop(db);

    let (db2, manifest) = opts().recover().unwrap();
    assert_eq!(manifest.unwrap().version, 3);
    assert_eq!(db2.read(0), Some(300));
}

/// A commit with zero registered sessions still completes (conditions are
/// vacuously true) and captures the pre-loaded state.
#[test]
fn commit_with_no_sessions_completes() {
    let dir = tempfile::tempdir().unwrap();
    let opts = || {
        MemDb::builder(Durability::Cpr)
            .dir(dir.path())
            .capacity(64)
    };
    let db: MemDb<u64> = opts().open().unwrap();
    db.load(1, 11);
    db.load(2, 22);
    db.commit_and_wait(Duration::from_secs(10)).unwrap();
    drop(db);

    let (db2, manifest) = opts().recover().unwrap();
    assert_eq!(manifest.unwrap().records, Some(2));
    assert_eq!(db2.read(1), Some(11));
    assert_eq!(db2.read(2), Some(22));
}

/// Commit observers run before the version is published: once
/// `wait_for_version(v)` returns, every observer has seen `v`, even a
/// slow one.
#[test]
fn commit_observers_run_before_version_is_published() {
    use std::sync::atomic::AtomicU64;

    let dir = tempfile::tempdir().unwrap();
    let db: MemDb<u64> = MemDb::builder(Durability::Cpr)
        .dir(dir.path())
        .capacity(64)
        .open()
        .unwrap();
    let seen = Arc::new(AtomicU64::new(0));
    let observer_seen = Arc::clone(&seen);
    db.on_commit(move |version, _points| {
        std::thread::sleep(Duration::from_millis(20));
        observer_seen.store(version, Ordering::SeqCst);
    });
    db.load(1, 11);
    assert!(db.request_commit());
    assert!(db.wait_for_version(1, Duration::from_secs(10)));
    assert_eq!(
        seen.load(Ordering::SeqCst),
        1,
        "observer ran before publish"
    );
}

/// Keys first written *after* a session's CPR point must be absent from
/// the recovered state (insert case: no pre-load).
#[test]
fn post_point_inserts_are_not_recovered() {
    let dir = tempfile::tempdir().unwrap();
    let opts = || {
        MemDb::builder(Durability::Cpr)
            .dir(dir.path())
            .capacity(256)
            .refresh_every(1) // refresh every txn: adopt phases promptly
    };
    let db: MemDb<u64> = opts().open().unwrap();
    let mut s = db.session(0);
    let mut reads = Vec::new();

    // Insert keys 0..50, then commit, then insert 50..100.
    for k in 0..50u64 {
        let accesses = [(k, Access::Write)];
        let seeds = [k + 1000];
        let txn = cpr_memdb::TxnRequest {
            accesses: &accesses,
            write_seeds: &seeds,
        };
        while s.execute(&txn, &mut reads).is_err() {}
    }
    assert!(db.request_commit());
    while db.committed_version() < 1 {
        s.refresh();
        std::thread::sleep(Duration::from_millis(1));
    }
    let point = s.durable_serial();
    assert_eq!(point, 50);

    for k in 50..100u64 {
        let accesses = [(k, Access::Write)];
        let seeds = [k + 1000];
        let txn = cpr_memdb::TxnRequest {
            accesses: &accesses,
            write_seeds: &seeds,
        };
        while s.execute(&txn, &mut reads).is_err() {}
    }
    drop(s);
    drop(db);

    let (db2, _) = opts().recover().unwrap();
    for k in 0..50u64 {
        assert_eq!(db2.read(k), Some(k + 1000), "pre-point insert lost");
    }
    for k in 50..100u64 {
        assert_eq!(db2.read(k), None, "post-point insert leaked into commit");
    }
}

/// CALC mode produces the same recovered state as CPR for an identical
/// single-session history, and its commit log records every commit.
#[test]
fn calc_checkpoint_recovers_and_logs_every_commit() {
    let dir = tempfile::tempdir().unwrap();
    let opts = || {
        MemDb::builder(Durability::Calc)
            .dir(dir.path())
            .capacity(64)
            .refresh_every(2)
    };
    let db: MemDb<u64> = opts().open().unwrap();
    for k in 0..8u64 {
        db.load(k, 0);
    }
    let mut s = db.session(0);
    let mut reads = Vec::new();
    for i in 0..32u64 {
        let accesses = [(i % 8, Access::Write)];
        let seeds = [i + 1];
        let txn = cpr_memdb::TxnRequest {
            accesses: &accesses,
            write_seeds: &seeds,
        };
        while s.execute(&txn, &mut reads).is_err() {}
    }
    assert!(db.request_commit());
    while db.committed_version() < 1 {
        s.refresh();
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(s);
    drop(db);

    let (db2, manifest) = opts().recover().unwrap();
    assert!(manifest.is_some());
    for k in 0..8u64 {
        // Last write to key k was serial 24+k+1... writes hit key i%8 with
        // value i+1; the last i with i%8==k in 0..32 is 24+k.
        assert_eq!(db2.read(k), Some(24 + k + 1));
    }
}

/// WAL mode: replay after crash restores everything that was synced.
#[test]
fn wal_replay_recovers_synced_writes() {
    let dir = tempfile::tempdir().unwrap();
    let opts = || {
        MemDb::builder(Durability::Wal)
            .dir(dir.path())
            .capacity(64)
            .group_commit(Duration::from_millis(1))
    };
    let db: MemDb<u64> = opts().open().unwrap();
    for k in 0..4u64 {
        db.load(k, 0);
    }
    let mut s = db.session(0);
    let mut reads = Vec::new();
    for i in 0..100u64 {
        let accesses = [(i % 4, Access::Write)];
        let seeds = [i + 1];
        let txn = cpr_memdb::TxnRequest {
            accesses: &accesses,
            write_seeds: &seeds,
        };
        while s.execute(&txn, &mut reads).is_err() {}
    }
    db.request_commit(); // WAL: force group-commit sync
    s.note_wal_synced();
    assert_eq!(s.durable_serial(), 100);
    drop(s);
    drop(db);

    let (db2, _) = opts().recover().unwrap();
    for k in 0..4u64 {
        let last_i = 96 + k; // last i with i%4==k in 0..100
        assert_eq!(db2.read(k), Some(last_i + 1), "key {k}");
    }

    // Recovery again (second crash) must still see the data via the old
    // generations even though a new generation file was created.
    drop(db2);
    let (db3, _) = opts().recover().unwrap();
    assert_eq!(db3.read(0), Some(97));
}

/// Transactions spanning multiple keys stay atomic across recovery: either
/// all of a transaction's writes are in the checkpoint or none are.
#[test]
fn multi_key_txn_atomicity_across_recovery() {
    let dir = tempfile::tempdir().unwrap();
    let opts = || {
        MemDb::builder(Durability::Cpr)
            .dir(dir.path())
            .capacity(256)
            .refresh_every(4)
    };
    const PAIRS: u64 = 8;

    let db: MemDb<u64> = opts().open().unwrap();
    for k in 0..PAIRS * 2 {
        db.load(k, 0);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let dbw = db.clone();
    // One writer keeps the invariant: keys 2i and 2i+1 always hold the
    // same value (written in one transaction).
    let writer = std::thread::spawn(move || {
        let mut s = dbw.session(0);
        let mut reads = Vec::new();
        let mut n = 0u64;
        while !stop2.load(Ordering::Relaxed) {
            n += 1;
            let pair = n % PAIRS;
            let accesses = [(2 * pair, Access::Write), (2 * pair + 1, Access::Write)];
            let seeds = [n, n];
            let txn = cpr_memdb::TxnRequest {
                accesses: &accesses,
                write_seeds: &seeds,
            };
            while s.execute(&txn, &mut reads).is_err() {}
        }
        while dbw.committed_version() < 1 {
            s.refresh();
            std::thread::sleep(Duration::from_millis(1));
        }
    });

    std::thread::sleep(Duration::from_millis(30));
    assert!(db.request_commit());
    assert!(db.wait_for_version(1, Duration::from_secs(10)));
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    drop(db);

    let (db2, _) = opts().recover().unwrap();
    for pair in 0..PAIRS {
        let a = db2.read(2 * pair).unwrap();
        let b = db2.read(2 * pair + 1).unwrap();
        assert_eq!(a, b, "pair {pair} torn across recovery: {a} vs {b}");
    }
}

/// Wide values survive capture + recovery bit-for-bit.
#[test]
fn wide_values_roundtrip_through_checkpoint() {
    let dir = tempfile::tempdir().unwrap();
    let opts = || {
        MemDb::builder(Durability::Cpr)
            .dir(dir.path())
            .capacity(64)
    };
    let db: MemDb<[u64; 8]> = opts().open().unwrap();
    for k in 0..10u64 {
        db.load(k, <[u64; 8] as cpr_memdb::DbValue>::from_seed(k * 7));
    }
    db.commit_and_wait(Duration::from_secs(10)).unwrap();
    drop(db);
    let (db2, _) = opts().recover().unwrap();
    for k in 0..10u64 {
        let v = db2.read(k).unwrap();
        assert_eq!(v, <[u64; 8] as cpr_memdb::DbValue>::from_seed(k * 7));
    }
}

/// Incremental checkpoints: deltas capture only records modified during
/// the committing cycle, and recovery applies the full chain.
#[test]
fn incremental_checkpoints_capture_deltas_and_recover() {
    let dir = tempfile::tempdir().unwrap();
    let opts = || {
        MemDb::builder(Durability::Cpr)
            .dir(dir.path())
            .capacity(256)
            .refresh_every(2)
            .incremental(true)
    };
    let db: MemDb<u64> = opts().open().unwrap();
    let mut s = db.session(0);
    let mut reads = Vec::new();
    let mut write = |s: &mut cpr_memdb::Session<u64>, k: u64, v: u64| {
        let accesses = [(k, cpr_memdb::Access::Write)];
        let seeds = [v];
        let txn = cpr_memdb::TxnRequest {
            accesses: &accesses,
            write_seeds: &seeds,
        };
        while s.execute(&txn, &mut reads).is_err() {}
    };

    // Full base: 100 keys.
    for k in 0..100u64 {
        write(&mut s, k, k + 1);
    }
    db.request_commit();
    while db.committed_version() < 1 {
        s.refresh();
        std::thread::sleep(Duration::from_millis(1));
    }

    // Delta 1: touch only keys 0..10.
    for k in 0..10u64 {
        write(&mut s, k, 1000 + k);
    }
    db.request_commit();
    while db.committed_version() < 2 {
        s.refresh();
        std::thread::sleep(Duration::from_millis(1));
    }

    // Delta 2: touch only key 50.
    write(&mut s, 50, 5555);
    db.request_commit();
    while db.committed_version() < 3 {
        s.refresh();
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(s);
    drop(db);

    // Inspect the chain: the two deltas must be small.
    let store = cpr_storage::CheckpointStore::open(dir.path()).unwrap();
    let tokens = store.tokens().unwrap();
    assert_eq!(tokens.len(), 3);
    let m1 = store.manifest(tokens[0]).unwrap();
    let m2 = store.manifest(tokens[1]).unwrap();
    let m3 = store.manifest(tokens[2]).unwrap();
    assert_eq!(m1.base, None, "first commit is full");
    assert_eq!(m1.records, Some(100));
    assert_eq!(m2.base, Some(m1.token));
    assert_eq!(m2.records, Some(10), "delta 1 captures only touched keys");
    assert_eq!(m3.base, Some(m2.token));
    assert_eq!(m3.records, Some(1), "delta 2 captures a single key");

    // Recovery applies the chain and lands on the newest values.
    let (db2, manifest) = opts().recover().unwrap();
    assert_eq!(manifest.unwrap().version, 3);
    for k in 0..10u64 {
        assert_eq!(db2.read(k), Some(1000 + k), "delta-1 key {k}");
    }
    assert_eq!(db2.read(50), Some(5555), "delta-2 key");
    for k in 10..100u64 {
        if k != 50 {
            assert_eq!(db2.read(k), Some(k + 1), "base key {k}");
        }
    }
}

/// Incremental and full checkpointing recover identical states for the
/// same history.
#[test]
fn incremental_equals_full_recovery() {
    let mk = |dir: &std::path::Path, inc: bool| {
        MemDb::builder(Durability::Cpr)
            .dir(dir)
            .capacity(128)
            .refresh_every(2)
            .incremental(inc)
    };
    let dir_a = tempfile::tempdir().unwrap();
    let dir_b = tempfile::tempdir().unwrap();

    for (dir, inc) in [(&dir_a, true), (&dir_b, false)] {
        let db: MemDb<u64> = mk(dir.path(), inc).open().unwrap();
        let mut s = db.session(0);
        let mut reads = Vec::new();
        let mut x = 7u64;
        for round in 1..=3u64 {
            for _ in 0..40 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(round);
                let k = x % 32;
                let accesses = [(k, cpr_memdb::Access::Write)];
                let seeds = [x];
                let txn = cpr_memdb::TxnRequest {
                    accesses: &accesses,
                    write_seeds: &seeds,
                };
                while s.execute(&txn, &mut reads).is_err() {}
            }
            db.request_commit();
            while db.committed_version() < round {
                s.refresh();
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    let (a, _) = mk(dir_a.path(), true).recover().unwrap();
    let (b, _) = mk(dir_b.path(), false).recover().unwrap();
    for k in 0..32u64 {
        assert_eq!(a.read(k), b.read(k), "key {k}: incremental vs full differ");
    }
}
