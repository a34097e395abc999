//! Checkpoint capture, load, and WAL replay.
//!
//! Capture implements the wait-flush pass of paper Alg. 2: for every
//! record that existed in version `v`, persist its version-`v` value —
//! `stable` if the record has already been shifted to `v + 1` by a
//! concurrent post-CPR-point transaction, `live` otherwise. The pass runs
//! on a background thread while version-`v + 1` transactions execute.
//!
//! File format (`db.dat`): `[count u64][(key u64, flags u64, value)*]`,
//! little endian, values `size_of::<V>()` bytes each. Flags bit 0 marks a
//! tombstone (full checkpoints omit dead records; deltas persist the
//! tombstone so it overrides the base chain).
//!
//! Any I/O failure during capture — including injected faults — aborts
//! the checkpoint instead of panicking: the uncommitted directory is
//! discarded, no manifest is written, and the shared commit driver
//! returns sessions to `rest` at `v + 1` without publishing `v`, so a
//! later commit can succeed.

use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;

use cpr_core::{CheckpointKind, CheckpointManifest, SessionCpr};
use cpr_storage::CheckpointStore;

use crate::db::DbInner;
use crate::error::RecoveryError;
use crate::value::DbValue;

const FLAG_TOMBSTONE: u64 = 1;

/// Capture version `v` (the wait-flush hook; runs on the flush worker).
/// Returns the manifest's session points, or `None` if the checkpoint
/// failed and was aborted.
pub(crate) fn capture<V: DbValue>(inner: &DbInner<V>, v: u64) -> Option<Vec<SessionCpr>> {
    let started = std::time::Instant::now();
    // Drop any abort request left over from a race with the previous
    // capture's completion; the watchdog re-raises if it still wants one.
    inner.capture_abort.store(false, Ordering::Release);
    let (token, sessions) = try_capture(inner, v)?;
    *inner.last_capture.lock() = Some(started.elapsed());
    *inner.last_capture_token.lock() = Some(token);
    Some(sessions)
}

/// The fallible body of capture. Returns the committed token and the
/// manifest's session points, or `None` if any I/O step failed (the
/// partial checkpoint is aborted).
///
/// Serialization is bucket-sharded across `capture_threads` workers;
/// concatenating the shards in bucket order reproduces exactly the
/// sequential [`Table::for_each`](crate::Table::for_each) order, so the
/// checkpoint bytes are identical at any thread count.
fn try_capture<V: DbValue>(inner: &DbInner<V>, v: u64) -> Option<(u64, Vec<SessionCpr>)> {
    let store = inner.store.as_ref().expect("capture requires a store");
    let token = store.begin().ok()?;
    // Delta checkpoints capture only records whose version-v image was
    // produced by a version-v write; everything else is already covered
    // by the base chain. The first commit is always full.
    let base = inner
        .opts
        .incremental
        .then(|| *inner.last_capture_token.lock())
        .flatten();

    let buckets = inner.table.bucket_count();
    let threads = inner.opts.capture_threads.clamp(1, buckets.max(1));
    let t0 = inner.metrics_on.then(std::time::Instant::now);
    let shards: Vec<Option<(Vec<u8>, u64)>> = if threads == 1 {
        vec![capture_shard(inner, v, base, 0..buckets)]
    } else {
        std::thread::scope(|sc| {
            (0..threads)
                .map(|w| {
                    let lo = buckets * w / threads;
                    let hi = buckets * (w + 1) / threads;
                    sc.spawn(move || capture_shard(inner, v, base, lo..hi))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("capture shard panicked"))
                .collect()
        })
    };
    if shards.iter().any(Option::is_none) || inner.capture_abort.swap(false, Ordering::AcqRel) {
        let _ = store.abort(token);
        return None;
    }
    let mut buf: Vec<u8> =
        Vec::with_capacity(inner.table.len() * (16 + std::mem::size_of::<V>()) + 8);
    buf.extend_from_slice(&0u64.to_le_bytes()); // count patched below
    let mut count = 0u64;
    for (bytes, n) in shards.into_iter().flatten() {
        buf.extend_from_slice(&bytes);
        count += n;
    }
    buf[..8].copy_from_slice(&count.to_le_bytes());
    if let Some(t0) = t0 {
        inner
            .metrics
            .record_phase("capture.serialize", threads, t0.elapsed());
    }

    let sessions = inner.session_points(v);
    let result = (|| -> io::Result<()> {
        store.write_file(token, "db.dat", &buf)?;
        let mut manifest = CheckpointManifest::new(token, CheckpointKind::Database, v);
        manifest.records = Some(count);
        manifest.base = base;
        manifest.sessions = sessions.clone();
        store.commit(&manifest)
    })();
    if result.is_err() {
        // No-op after a simulated crash: the frozen (possibly torn) state
        // is exactly what recovery must cope with.
        let _ = store.abort(token);
        return None;
    }
    Some((token, sessions))
}

/// Failed shared-latch attempts on one record before capture starts
/// yielding the CPU between attempts.
const CAPTURE_SPINS: u32 = 64;

/// Serialize the version-`v` images of the records chained off buckets
/// `range` (one capture worker's share). Returns the shard's bytes and
/// record count, or `None` if the watchdog aborted the pass.
fn capture_shard<V: DbValue>(
    inner: &DbInner<V>,
    v: u64,
    base: Option<u64>,
    range: std::ops::Range<usize>,
) -> Option<(Vec<u8>, u64)> {
    let mut buf: Vec<u8> = Vec::new();
    let mut count = 0u64;
    let mut aborted = false;
    inner.table.for_each_in_buckets(range, |key, rec| {
        if aborted {
            return;
        }
        // Wait for a shared latch; lock holders are try-lock based, so
        // this cannot deadlock — but a *parked* lock holder stalls it
        // indefinitely, which is why the watchdog can abort the pass.
        // After a short spin, yield: with sessions pinned one per core,
        // the holder may be the thread this one preempted.
        let mut spins = 0u32;
        loop {
            if rec.lock.try_shared() {
                break;
            }
            if inner.capture_abort.load(Ordering::Acquire) {
                aborted = true;
                return;
            }
            if spins < CAPTURE_SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let birth = rec.birth();
        if birth == 0 || birth > v {
            // Never written, or born after the commit point: not part of
            // version v.
            rec.lock.release_shared();
            return;
        }
        let (value, image_version, dead) = if rec.version() == v + 1 {
            (rec.read_stable(), rec.stable_modified(), rec.stable_dead())
        } else {
            (rec.read_live(), rec.modified(), rec.is_dead())
        };
        rec.lock.release_shared();
        if base.is_some() && image_version != v {
            // Unchanged during cycle v: covered by the base chain.
            return;
        }
        if dead && base.is_none() {
            // Full checkpoint: deleted records are simply absent.
            return;
        }
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&if dead { FLAG_TOMBSTONE } else { 0 }.to_le_bytes());
        cpr_core::pod_write(&value, &mut buf);
        count += 1;
    });
    (!aborted).then_some((buf, count))
}

/// Load a checkpoint produced by [`capture`] into a fresh database.
///
/// The record entries are split across `recovery_threads` workers: every
/// key appears at most once per checkpoint file, so workers touch
/// disjoint records and the result is independent of thread count. A
/// record found locked surfaces as [`RecoveryError::RecordLocked`]
/// instead of a panic — recovery must be the table's only writer.
pub(crate) fn load<V: DbValue>(
    inner: &DbInner<V>,
    store: &CheckpointStore,
    manifest: &CheckpointManifest,
) -> io::Result<()> {
    let data = store.read_file(manifest.token, "db.dat")?;
    let rec_size = 16 + std::mem::size_of::<V>();
    if data.len() < 8 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "checkpoint truncated",
        ));
    }
    let count = u64::from_le_bytes(data[..8].try_into().unwrap()) as usize;
    if data.len() < 8 + count * rec_size {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("checkpoint expects {count} records, file too short"),
        ));
    }

    let load_range = |lo: usize, hi: usize| -> io::Result<()> {
        let mut off = 8 + lo * rec_size;
        for _ in lo..hi {
            let key = u64::from_le_bytes(data[off..off + 8].try_into().unwrap());
            let flags = u64::from_le_bytes(data[off + 8..off + 16].try_into().unwrap());
            let value: V = cpr_core::pod_read(&data[off + 16..off + rec_size]);
            // Delta chains re-load keys: later (newer) checkpoints
            // overwrite.
            let (rec, _inserted) = inner.table.get_or_insert(key, manifest.version, value);
            if !rec.lock.try_exclusive() {
                return Err(RecoveryError::RecordLocked { key }.into());
            }
            rec.write_live(value);
            rec.set_dead(flags & FLAG_TOMBSTONE != 0);
            rec.set_birth_if_unset(manifest.version);
            rec.set_modified(manifest.version);
            rec.set_version(manifest.version);
            rec.lock.release_exclusive();
            off += rec_size;
        }
        Ok(())
    };

    let threads = inner.opts.recovery_threads.clamp(1, count.max(1));
    let t0 = inner.metrics_on.then(std::time::Instant::now);
    let result = if threads == 1 {
        load_range(0, count)
    } else {
        std::thread::scope(|sc| {
            (0..threads)
                .map(|w| {
                    let lo = count * w / threads;
                    let hi = count * (w + 1) / threads;
                    let load_range = &load_range;
                    sc.spawn(move || load_range(lo, hi))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .try_for_each(|h| h.join().expect("load worker panicked"))
        })
    };
    if let Some(t0) = t0 {
        inner
            .metrics
            .record_phase("recovery.load", threads, t0.elapsed());
    }
    result
}

/// Replay a WAL generation file: apply every redo record in append order
/// (replay stays sequential — later records overwrite earlier ones, so
/// the order is semantic). A record found locked surfaces as
/// [`RecoveryError::RecordLocked`] instead of a panic.
pub(crate) fn replay_wal<V: DbValue>(inner: &DbInner<V>, path: &Path) -> io::Result<()> {
    if !path.exists() {
        return Ok(());
    }
    let version = inner.state.version();
    // `Wal::replay`'s visitor cannot return errors; park the first one
    // here and surface it after the walk.
    let mut failed: Option<io::Error> = None;
    crate::wal::Wal::replay(path, |payload| {
        if failed.is_some() || payload.len() < 8 {
            return;
        }
        let n = u64::from_le_bytes(payload[..8].try_into().unwrap()) as usize;
        let rec_size = 16 + std::mem::size_of::<V>();
        let mut off = 8;
        for _ in 0..n {
            if off + rec_size > payload.len() {
                return; // torn record: stop applying this payload
            }
            let key = u64::from_le_bytes(payload[off..off + 8].try_into().unwrap());
            let flags = u64::from_le_bytes(payload[off + 8..off + 16].try_into().unwrap());
            let value: V = cpr_core::pod_read(&payload[off + 16..off + rec_size]);
            let (rec, _) = inner.table.get_or_insert(key, version, V::from_seed(0));
            if !rec.lock.try_exclusive() {
                failed = Some(RecoveryError::RecordLocked { key }.into());
                return;
            }
            rec.write_live(value);
            rec.set_dead(flags & FLAG_TOMBSTONE != 0);
            rec.set_birth_if_unset(version);
            rec.lock.release_exclusive();
            off += rec_size;
        }
    })?;
    match failed {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{Durability, MemDb};

    /// A record held exclusively while recovery loads must surface as
    /// [`RecoveryError::RecordLocked`], not a panic; releasing the lock
    /// lets the same load succeed.
    #[test]
    fn load_surfaces_locked_record_as_error() {
        let dir = tempfile::tempdir().unwrap();
        let store = CheckpointStore::open(dir.path().join("checkpoints")).unwrap();
        let token = store.begin().unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u64.to_le_bytes()); // count
        buf.extend_from_slice(&7u64.to_le_bytes()); // key
        buf.extend_from_slice(&0u64.to_le_bytes()); // flags
        buf.extend_from_slice(&42u64.to_le_bytes()); // value
        store.write_file(token, "db.dat", &buf).unwrap();
        let mut manifest = CheckpointManifest::new(token, CheckpointKind::Database, 1);
        manifest.records = Some(1);
        store.commit(&manifest).unwrap();

        let db: MemDb<u64> = MemDb::builder(Durability::None).open().unwrap();
        let (rec, _) = db.inner.table.get_or_insert(7, 1, 0);
        assert!(rec.lock.try_exclusive());
        let err = load(&db.inner, &store, &manifest).unwrap_err();
        assert!(err.to_string().contains("locked"), "{err}");
        rec.lock.release_exclusive();
        load(&db.inner, &store, &manifest).unwrap();
        assert_eq!(db.read(7), Some(42));
    }
}
