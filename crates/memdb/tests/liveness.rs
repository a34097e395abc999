//! Liveness watchdog tests for the transactional database, driven by a
//! virtual clock: an idle straggler is proxy-advanced (and survives), a
//! straggler parked mid-transaction is evicted with an exact committed
//! prefix, and a straggler parked while *holding 2PL locks* times the
//! checkpoint out — abort + backoff + retry, or `max_attempts`
//! exhaustion surfaced as `CommitError::TimedOut` naming the blocker.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use cpr_core::Phase;
use cpr_memdb::{MemDbBuilder, 
    Abort, Access, CommitError, Durability, LivenessConfig, MemDb, TxnRequest,
    VirtualClock,
};

const GRACE: u64 = 100;

fn liveness_opts(dir: &std::path::Path, clock: &Arc<VirtualClock>) -> MemDbBuilder<u64> {
    MemDb::builder(Durability::Cpr)
        .dir(dir)
        .capacity(1 << 10)
        .refresh_every(4)
        .liveness(
            LivenessConfig::with_clock(Arc::clone(clock) as Arc<dyn cpr_memdb::Clock>)
                .grace_ticks(GRACE)
                .backoff_base_ticks(10)
                .backoff_jitter_ticks(5)
                .seed(42),
        )
}

fn write(s: &mut cpr_memdb::Session<u64>, key: u64, val: u64) -> Result<(), Abort> {
    let accesses = [(key, Access::Write)];
    let seeds = [val];
    let txn = TxnRequest {
        accesses: &accesses,
        write_seeds: &seeds,
    };
    let mut reads = Vec::new();
    s.execute(&txn, &mut reads)
}

/// Drive session `a` (keys 0..10) and the virtual clock until the commit
/// lands. The driver's own lease stays fresh — it heartbeats on every
/// refresh — while a parked session's heartbeat falls ever further
/// behind, so only the straggler crosses the grace threshold.
fn drive_until_committed(db: &MemDb<u64>, a: &mut cpr_memdb::Session<u64>, clock: &VirtualClock) {
    let mut iters = 0u64;
    while db.committed_version() < 1 {
        let _ = write(a, iters % 10, iters);
        a.refresh();
        clock.advance(GRACE / 2);
        std::thread::sleep(Duration::from_millis(1));
        iters += 1;
        assert!(iters < 10_000, "commit never completed despite watchdog");
    }
}

/// An idle straggler (parked between transactions, holding nothing) is
/// proxy-advanced: the commit completes, the straggler is *not* evicted,
/// and its pre-commit writes are in the recovered prefix.
#[test]
fn idle_straggler_is_proxy_advanced() {
    let dir = tempfile::tempdir().unwrap();
    let clock = Arc::new(VirtualClock::new());
    let db: MemDb<u64> = liveness_opts(dir.path(), &clock).open().unwrap();
    for k in 0..70u64 {
        db.load(k, 0);
    }

    let (done_tx, done_rx) = mpsc::channel::<()>();
    let (unpark_tx, unpark_rx) = mpsc::channel::<()>();
    let db_b = db.clone();
    let straggler = std::thread::spawn(move || {
        let mut b = db_b.session(7);
        for k in 10..15u64 {
            write(&mut b, k, 1000 + k).unwrap();
        }
        done_tx.send(()).unwrap();
        unpark_rx.recv().unwrap(); // park: no ops, no refreshes
        b.refresh();
        b.is_evicted()
    });
    done_rx.recv().unwrap();

    let mut a = db.session(1);
    assert!(db.request_commit());
    drive_until_committed(&db, &mut a, &clock);

    let out = db.last_commit_outcome();
    assert!(
        out.proxy_advanced.contains(&7),
        "idle straggler should be proxy-advanced, got {out:?}"
    );
    assert!(out.evicted.is_empty(), "idle straggler must not be evicted");
    assert_eq!(out.attempts, 1, "no abort expected for an idle straggler");

    unpark_tx.send(()).unwrap();
    assert!(
        !straggler.join().unwrap(),
        "a proxy-advanced session must stay alive"
    );

    drop(a);
    drop(db);
    let (db2, _) = liveness_opts(dir.path(), &clock).recover().unwrap();
    for k in 10..15u64 {
        assert_eq!(db2.read(k), Some(1000 + k), "straggler prefix lost");
    }
}

/// A session whose local view is a version behind still learns the CPR
/// point the watchdog marked for it. Session 7 last refreshes inside
/// commit 1 (so its view stays past that commit's point), runs three more
/// transactions, and sleeps through commit 2, which the watchdog
/// proxy-advances it through, marking its point at serial 8. When it
/// wakes, its view moves from (in-progress, 1) to (rest, 3): that move
/// crosses the point of version 2, and `durable_serial()` reports it.
#[test]
fn proxy_advanced_session_a_version_behind_reports_the_marked_point() {
    let dir = tempfile::tempdir().unwrap();
    let clock = Arc::new(VirtualClock::new());
    let db: MemDb<u64> = liveness_opts(dir.path(), &clock).open().unwrap();
    let mut a = db.session(1);
    let mut b = db.session(7);
    for k in 10..15u64 {
        write(&mut b, k, 1000 + k).unwrap();
    }

    // Commit 1, with the clock standing still: both sessions refresh
    // until b's view has crossed the point of version 1.
    assert!(db.request_commit());
    let mut iters = 0;
    while b.info().phase < Phase::InProgress {
        a.refresh();
        b.refresh();
        std::thread::sleep(Duration::from_millis(1));
        iters += 1;
        assert!(iters < 10_000, "b never reached in-progress of version 1");
    }
    assert_eq!(b.info().version, 1);
    // Fewer than `refresh_every` transactions: b does not refresh again.
    for k in 20..23u64 {
        write(&mut b, k, 2000 + k).unwrap();
    }
    assert_eq!(b.serial(), 8);
    while db.committed_version() < 1 {
        a.refresh();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(b.durable_serial(), 5, "commit 1 holds b's first five");

    // Commit 2: b sleeps; the watchdog proxy-advances it.
    assert!(db.request_commit());
    let mut iters = 0;
    while db.committed_version() < 2 {
        let _ = write(&mut a, iters % 10, iters);
        a.refresh();
        clock.advance(GRACE / 2);
        std::thread::sleep(Duration::from_millis(1));
        iters += 1;
        assert!(iters < 10_000, "commit 2 never completed despite watchdog");
    }
    let out = db.last_commit_outcome();
    assert!(out.proxy_advanced.contains(&7), "got {out:?}");
    assert_eq!(db.durable_point(7), 8, "the watchdog marked serial 8");
    assert_eq!(b.info().version, 1, "b's local view is a version behind");

    b.refresh();
    assert_eq!(b.durable_serial(), db.durable_point(7));
}

/// A straggler parked *inside* a transaction is evicted: the commit
/// completes without it, the parked transaction fails with
/// `SessionEvicted` when the thread resumes, and recovery reproduces
/// exactly the straggler's committed prefix — its five finished
/// transactions, not the in-flight sixth.
#[test]
fn mid_txn_straggler_is_evicted_with_exact_prefix() {
    let dir = tempfile::tempdir().unwrap();
    let clock = Arc::new(VirtualClock::new());
    let db: MemDb<u64> = liveness_opts(dir.path(), &clock).open().unwrap();
    for k in 0..70u64 {
        db.load(k, 0);
    }

    let (parked_tx, parked_rx) = mpsc::channel::<()>();
    let (unpark_tx, unpark_rx) = mpsc::channel::<()>();
    let db_b = db.clone();
    let straggler = std::thread::spawn(move || {
        let mut b = db_b.session(7);
        let mut calls = 0u32;
        b.set_pause_in_txn(move || {
            calls += 1;
            if calls == 6 {
                parked_tx.send(()).unwrap();
                let _ = unpark_rx.recv();
            }
        });
        for i in 0..5u64 {
            write(&mut b, 60 + i, 600 + i).unwrap();
        }
        // Sixth transaction: parks inside, resumes evicted.
        let r = write(&mut b, 69, 9999);
        (r, b.is_evicted())
    });
    parked_rx.recv().unwrap(); // B is inside txn 6, lease going stale

    let mut a = db.session(1);
    assert!(db.request_commit());
    drive_until_committed(&db, &mut a, &clock);

    let out = db.last_commit_outcome();
    assert!(
        out.evicted.contains(&7),
        "mid-txn straggler should be evicted, got {out:?}"
    );

    unpark_tx.send(()).unwrap();
    let (r, evicted) = straggler.join().unwrap();
    assert_eq!(r, Err(Abort::SessionEvicted));
    assert!(evicted);
    // The in-flight transaction was refused even on the live store.
    assert_eq!(db.read(69), Some(0), "evicted txn must not apply");

    drop(a);
    drop(db);
    let (db2, _) = liveness_opts(dir.path(), &clock).recover().unwrap();
    for i in 0..5u64 {
        assert_eq!(db2.read(60 + i), Some(600 + i), "committed prefix lost");
    }
    assert_eq!(db2.read(69), Some(0), "uncommitted suffix leaked into recovery");
}

/// A straggler parked while holding record locks cannot be safely
/// remedied per-session: the watchdog aborts the checkpoint attempt and
/// schedules a backed-off retry. Once the straggler resumes and releases
/// its locks, the retry succeeds (attempts > 1).
#[test]
fn locked_straggler_aborts_then_retry_succeeds() {
    let dir = tempfile::tempdir().unwrap();
    let clock = Arc::new(VirtualClock::new());
    let db: MemDb<u64> = liveness_opts(dir.path(), &clock).open().unwrap();
    for k in 0..80u64 {
        db.load(k, 0);
    }

    let (parked_tx, parked_rx) = mpsc::channel::<()>();
    let (unpark_tx, unpark_rx) = mpsc::channel::<()>();
    let db_b = db.clone();
    let straggler = std::thread::spawn(move || {
        let mut b = db_b.session(7);
        let mut first = true;
        b.set_pause_locked(move || {
            if first {
                first = false;
                parked_tx.send(()).unwrap();
                let _ = unpark_rx.recv();
            }
        });
        // Parks inside, holding the lock on key 70. On resume the
        // suspended session releases and retries until it lands.
        loop {
            match write(&mut b, 70, 700) {
                Ok(()) => break Ok(()),
                Err(Abort::Conflict) | Err(Abort::CprShift) => continue,
                Err(e) => break Err(e),
            }
        }
    });
    parked_rx.recv().unwrap(); // B holds the lock, lease going stale

    let mut a = db.session(1);
    assert!(db.request_commit());

    // Drive until the watchdog times the first attempt out.
    let mut iters = 0u64;
    while db.last_commit_outcome().aborted == 0 {
        let _ = write(&mut a, iters % 10, iters);
        a.refresh();
        clock.advance(GRACE / 2);
        std::thread::sleep(Duration::from_millis(1));
        iters += 1;
        assert!(iters < 10_000, "watchdog never aborted the checkpoint");
    }

    // Release the straggler; its transaction completes and the session
    // retires cleanly before the backed-off retry fires.
    unpark_tx.send(()).unwrap();
    assert_eq!(straggler.join().unwrap(), Ok(()));

    drive_until_committed(&db, &mut a, &clock);
    let out = db.last_commit_outcome();
    assert!(out.aborted >= 1, "expected at least one aborted attempt");
    assert!(out.attempts >= 2, "expected a retry, got {out:?}");
    assert!(!out.gave_up);

    drop(a);
    drop(db);
    let (db2, _) = liveness_opts(dir.path(), &clock).recover().unwrap();
    assert_eq!(db2.read(70), Some(700), "straggler's completed write lost");
}

/// A straggler that holds locks *forever* exhausts `max_attempts`:
/// `commit_and_wait` surfaces `CommitError::TimedOut` naming the dead
/// session among the blockers, and the outcome records `gave_up`.
#[test]
fn permanent_lock_straggler_exhausts_attempts_and_names_blocker() {
    let dir = tempfile::tempdir().unwrap();
    let clock = Arc::new(VirtualClock::new());
    let opts = MemDb::builder(Durability::Cpr)
        .dir(dir.path())
        .capacity(1 << 10)
        .refresh_every(4)
        .liveness(
            LivenessConfig::with_clock(Arc::clone(&clock) as Arc<dyn cpr_memdb::Clock>)
                .grace_ticks(GRACE)
                .backoff_base_ticks(10)
                .backoff_jitter_ticks(5)
                .max_attempts(2)
                .seed(42),
        );
    let db: MemDb<u64> = opts.open().unwrap();
    for k in 0..80u64 {
        db.load(k, 0);
    }

    let (parked_tx, parked_rx) = mpsc::channel::<()>();
    let (unpark_tx, unpark_rx) = mpsc::channel::<()>();
    let db_b = db.clone();
    let straggler = std::thread::spawn(move || {
        let mut b = db_b.session(7);
        let mut first = true;
        b.set_pause_locked(move || {
            if first {
                first = false;
                parked_tx.send(()).unwrap();
                let _ = unpark_rx.recv();
            }
        });
        loop {
            match write(&mut b, 70, 700) {
                Ok(()) => break,
                Err(Abort::Conflict) | Err(Abort::CprShift) => continue,
                Err(_) => break,
            }
        }
    });
    parked_rx.recv().unwrap();

    // Driver keeps a live session refreshed and moves virtual time so
    // every abort's backoff elapses and the retry fires.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let driver = {
        let db = db.clone();
        let clock = Arc::clone(&clock);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut a = db.session(1);
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = write(&mut a, i % 10, i);
                a.refresh();
                clock.advance(GRACE / 2);
                std::thread::sleep(Duration::from_millis(1));
                i += 1;
            }
        })
    };

    let err = db
        .commit_and_wait(Duration::from_secs(60))
        .expect_err("commit must give up with a permanent lock-holder");
    match err {
        CommitError::TimedOut { blockers, .. } => {
            assert!(
                blockers.contains(&7),
                "timeout must name the dead session, got {blockers:?}"
            );
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
    let out = db.last_commit_outcome();
    assert!(out.gave_up, "outcome must record exhaustion: {out:?}");
    assert_eq!(out.attempts, 2);
    assert!(out.committed_version.is_none());

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    driver.join().unwrap();
    unpark_tx.send(()).unwrap();
    straggler.join().unwrap();
}
