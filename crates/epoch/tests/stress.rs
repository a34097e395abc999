//! Chaos/stress tests for the epoch framework: randomized interleavings
//! of bumps, refreshes, registrations and releases must preserve the
//! core guarantees — every action fires exactly once, never before its
//! epoch is safe, and conditional actions never fire while their
//! condition is false.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use cpr_epoch::EpochManager;

/// Every bumped action fires exactly once even with thread churn
/// (guards registering and releasing concurrently).
#[test]
fn actions_fire_exactly_once_under_churn() {
    const ROUNDS: usize = 30;
    const CHURNERS: usize = 4;
    let mgr = Arc::new(EpochManager::new(CHURNERS * 2 + 2));
    let stop = Arc::new(AtomicBool::new(false));

    let churners: Vec<_> = (0..CHURNERS)
        .map(|i| {
            let mgr = Arc::clone(&mgr);
            let stop = stop.clone();
            thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let g = mgr.register();
                    for _ in 0..(n % 7 + 1) {
                        g.refresh();
                    }
                    drop(g); // release; may drain pending actions
                    n += 1;
                    if i == 0 && n.is_multiple_of(16) {
                        thread::yield_now();
                    }
                }
            })
        })
        .collect();

    let fired = Arc::new(AtomicUsize::new(0));
    let g = mgr.register();
    for _ in 0..ROUNDS {
        let f = fired.clone();
        g.bump_epoch(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        // Drain until this round's action lands.
        while mgr.pending_actions() > 0 {
            g.refresh();
            thread::yield_now();
        }
    }
    stop.store(true, Ordering::SeqCst);
    for c in churners {
        c.join().unwrap();
    }
    assert_eq!(fired.load(Ordering::SeqCst), ROUNDS);
}

/// An action must never observe a registered guard still pinned at the
/// bump epoch — the definition of epoch safety.
#[test]
fn actions_never_fire_before_epoch_is_safe() {
    const THREADS: usize = 3;
    let mgr = Arc::new(EpochManager::new(THREADS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let violation = Arc::new(AtomicBool::new(false));

    // Worker threads publish their current "working epoch" before
    // refreshing, mimicking a critical section. `u64::MAX` means "not in
    // a critical section", which is also true of a worker that has not
    // started yet.
    let published: Arc<Vec<AtomicU64>> =
        Arc::new((0..THREADS).map(|_| AtomicU64::new(u64::MAX)).collect());
    let workers: Vec<_> = (0..THREADS)
        .map(|i| {
            let mgr = Arc::clone(&mgr);
            let stop = stop.clone();
            let published = Arc::clone(&published);
            thread::spawn(move || {
                let g = mgr.register();
                while !stop.load(Ordering::Relaxed) {
                    // Enter a "critical section" at the current epoch.
                    published[i].store(mgr.current(), Ordering::SeqCst);
                    std::hint::spin_loop();
                    // Leave it and refresh.
                    published[i].store(u64::MAX, Ordering::SeqCst);
                    g.refresh();
                }
            })
        })
        .collect();

    let g = mgr.register();
    for _ in 0..50 {
        let bump_epoch_before = mgr.current();
        let published2 = Arc::clone(&published);
        let violation2 = violation.clone();
        g.bump_epoch(move || {
            // When this runs, no thread may still be inside a critical
            // section entered at or before `bump_epoch_before`.
            for p in published2.iter() {
                let e = p.load(Ordering::SeqCst);
                if e <= bump_epoch_before {
                    violation2.store(true, Ordering::SeqCst);
                }
            }
        });
        while mgr.pending_actions() > 0 {
            g.refresh();
            thread::yield_now();
        }
    }
    stop.store(true, Ordering::SeqCst);
    for w in workers {
        w.join().unwrap();
    }
    assert!(
        !violation.load(Ordering::SeqCst),
        "action observed a critical section from an unsafe epoch"
    );
}

/// Conditional actions: the condition is re-evaluated until true, and
/// the action observes it true when it finally runs.
#[test]
fn conditional_actions_wait_for_condition_under_concurrency() {
    let mgr = Arc::new(EpochManager::new(4));
    let g = mgr.register();
    let gate = Arc::new(AtomicU64::new(0));
    let fired_with = Arc::new(AtomicU64::new(u64::MAX));

    for round in 1..=20u64 {
        let gate_c = gate.clone();
        let gate_a = gate.clone();
        let fired = fired_with.clone();
        g.bump_epoch_with(
            move || gate_c.load(Ordering::SeqCst) >= round,
            move || {
                fired.store(gate_a.load(Ordering::SeqCst), Ordering::SeqCst);
            },
        );
        g.refresh();
        assert_eq!(
            fired_with.load(Ordering::SeqCst),
            if round == 1 { u64::MAX } else { round - 1 },
            "action ran before its gate opened"
        );
        gate.store(round, Ordering::SeqCst);
        g.refresh();
        assert_eq!(fired_with.load(Ordering::SeqCst), round);
    }
}

fn stress_seed() -> u64 {
    std::env::var("CPR_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = (*state).max(1);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Watchdog-style lease race: workers refresh (resurrecting their slot if
/// it was staled) while a reaper thread keeps staling every slot it sees.
/// Despite the churn, every bumped action fires exactly once, and the
/// final drain succeeds even with workers parked forever at the end.
/// Seeded via `CPR_STRESS_SEED` (the CI stress job sweeps seeds).
#[test]
fn release_stale_races_owner_refresh() {
    const WORKERS: usize = 4;
    const ROUNDS: usize = 40;
    let seed = stress_seed();
    let mgr = Arc::new(EpochManager::new(WORKERS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let slots: Arc<Vec<AtomicU64>> =
        Arc::new((0..WORKERS).map(|_| AtomicU64::new(u64::MAX)).collect());

    let workers: Vec<_> = (0..WORKERS)
        .map(|i| {
            let mgr = Arc::clone(&mgr);
            let stop = stop.clone();
            let slots = Arc::clone(&slots);
            let mut rng = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            thread::spawn(move || {
                let g = mgr.register();
                slots[i].store(g.slot() as u64, Ordering::SeqCst);
                while !stop.load(Ordering::Relaxed) {
                    g.refresh();
                    // Random short "parks" so the reaper catches us stale.
                    if xorshift(&mut rng).is_multiple_of(13) {
                        thread::yield_now();
                    }
                }
                // Park forever without dropping: the reaper must be able
                // to finish the drain without us.
                std::mem::forget(g);
            })
        })
        .collect();

    // Reaper + bumper on the main thread.
    let g = mgr.register();
    let fired = Arc::new(AtomicUsize::new(0));
    let mut rng = seed;
    for _ in 0..ROUNDS {
        let f = fired.clone();
        g.bump_epoch(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        // Randomly stale some worker slots while draining.
        let mut spins = 0u64;
        while mgr.pending_actions() > 0 {
            if xorshift(&mut rng).is_multiple_of(3) {
                let w = (xorshift(&mut rng) as usize) % WORKERS;
                let s = slots[w].load(Ordering::SeqCst);
                if s != u64::MAX {
                    mgr.release_stale(s as usize);
                }
            }
            g.refresh();
            spins += 1;
            if spins.is_multiple_of(64) {
                thread::yield_now();
            }
        }
        assert!(mgr.safe() < mgr.current());
    }
    // Final phase: workers stop refreshing entirely (parked forever); the
    // reaper alone must still retire a last action by staling them all.
    stop.store(true, Ordering::SeqCst);
    for w in workers {
        w.join().unwrap();
    }
    let f = fired.clone();
    g.bump_epoch(move || {
        f.fetch_add(1, Ordering::SeqCst);
    });
    for s in slots.iter() {
        mgr.release_stale(s.load(Ordering::SeqCst) as usize);
    }
    g.refresh();
    assert_eq!(fired.load(Ordering::SeqCst), ROUNDS + 1);
}

/// Heavy mixed load: many bumps from many threads; total fire count is
/// exact and the safe epoch never exceeds current.
#[test]
fn mixed_bump_refresh_storm() {
    const THREADS: usize = 4;
    const BUMPS_PER_THREAD: usize = 200;
    let mgr = Arc::new(EpochManager::new(THREADS));
    let fired = Arc::new(AtomicUsize::new(0));

    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let mgr = Arc::clone(&mgr);
            let fired = fired.clone();
            thread::spawn(move || {
                let g = mgr.register();
                for i in 0..BUMPS_PER_THREAD {
                    let f = fired.clone();
                    g.bump_epoch(move || {
                        f.fetch_add(1, Ordering::SeqCst);
                    });
                    if i % 3 == 0 {
                        g.refresh();
                    }
                    assert!(mgr.safe() < mgr.current());
                }
                // Drain the remainder before leaving.
                while mgr.pending_actions() > 0 {
                    g.refresh();
                    thread::yield_now();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    mgr.try_drain();
    assert_eq!(fired.load(Ordering::SeqCst), THREADS * BUMPS_PER_THREAD);
}
