//! The wait-flush work of a CPR commit, and fuzzy index checkpoints
//! (paper Secs. 6.2.4, 6.3).
//!
//! Runs on the commit driver's flush worker thread so user sessions never
//! block: they keep processing version-`v + 1` requests while the
//! version-`v` state is written out.

use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use cpr_core::{CheckpointKind, CheckpointManifest, Pod, SessionCpr};

use crate::store::{CheckpointVariant, CkptCtx, StoreInner};

/// The wait-flush hook: capture the volatile log (and optionally the
/// index) of version `v` and persist the manifest. Returns the manifest's
/// session points.
///
/// Any I/O failure (including injected faults) aborts the checkpoint
/// instead of panicking: the uncommitted directory is discarded (no-op if
/// the fault was a simulated crash — the torn state must survive for
/// recovery), no manifest is written, and `None` tells the commit driver
/// to return to `rest` at `v + 1` without publishing `v`.
pub(crate) fn flush<V: Pod>(inner: &StoreInner<V>, v: u64) -> Option<Vec<SessionCpr>> {
    let ctx = inner.ckpt.lock().take().expect("checkpoint context set");
    let token = ctx.token;
    let committed = try_wait_flush(inner, v, ctx);
    if committed.is_none() {
        let _ = inner.store.abort(token);
    }
    committed.map(|m| m.sessions)
}

/// The fallible body of the wait-flush phase. Returns the committed
/// manifest, or `None` if any step failed (checkpoint must abort).
fn try_wait_flush<V: Pod>(
    inner: &StoreInner<V>,
    v: u64,
    ctx: CkptCtx,
) -> Option<CheckpointManifest> {
    let hl = &inner.hlog;

    // Fuzzy index checkpoint first (full commits only), so that every
    // address the dumped index references is ≤ L_ie ≤ L_he and therefore
    // durable once the log flush below completes (see DESIGN.md).
    let (mut lis, mut lie) = (None, None);
    if !ctx.log_only {
        lis = Some(hl.tail());
        let dump = inner.index.dump();
        inner.store.write_file(ctx.token, "index.dat", &dump).ok()?;
        lie = Some(hl.tail());
    }

    let lhe = hl.tail();
    let flush_t0 = inner.metrics_on.then(std::time::Instant::now);
    let mut snapshot_start = None;
    match ctx.variant {
        CheckpointVariant::FoldOver => {
            // Advance the read-only offset to the tail: every version-v
            // record becomes immutable and is flushed to the main log
            // (chunked across the device's writer queues).
            hl.shift_read_only_to(lhe);
            hl.wait_flushed(lhe).ok()?;
        }
        CheckpointVariant::Snapshot => {
            // Capture the volatile region into a separate file; offsets
            // (and in-place updatability) are untouched.
            let start = hl.flushed_durable();
            let bytes = hl.read_range(start, lhe).ok()?;
            inner
                .store
                .write_file(ctx.token, "snapshot.dat", &bytes)
                .ok()?;
            snapshot_start = Some(start);
        }
    }
    hl.device().sync().ok()?;
    if let Some(t0) = flush_t0 {
        let name = match ctx.variant {
            CheckpointVariant::FoldOver => "flush.fold-over",
            CheckpointVariant::Snapshot => "flush.snapshot",
        };
        inner
            .metrics
            .record_phase(name, inner.write_queues, t0.elapsed());
    }

    let kind = match ctx.variant {
        CheckpointVariant::FoldOver => CheckpointKind::FoldOver,
        CheckpointVariant::Snapshot => CheckpointKind::Snapshot,
    };
    let mut manifest = CheckpointManifest::new(ctx.token, kind, v);
    manifest.log_begin = Some(ctx.lhs);
    manifest.log_end = Some(lhe);
    manifest.index_begin = lis;
    manifest.index_end = lie;
    manifest.snapshot_start = snapshot_start;
    manifest.sessions = inner.session_points(v);
    inner.store.commit(&manifest).ok()?;
    Some(manifest)
}

/// Standalone fuzzy index checkpoint (paper Sec. 6.3): the index is
/// physically consistent at all times, so a dump of atomically read words
/// suffices; recovery replays the log suffix `[L_is, …)` over it.
pub(crate) fn index_checkpoint<V: Pod>(inner: &Arc<StoreInner<V>>) -> io::Result<u64> {
    let token = inner.store.begin()?;
    let result = (|| {
        let lis = inner.hlog.tail();
        let dump = inner.index.dump();
        inner.store.write_file(token, "index.dat", &dump)?;
        let lie = inner.hlog.tail();
        let mut manifest =
            CheckpointManifest::new(token, CheckpointKind::Index, inner.state.version());
        manifest.index_begin = Some(lis);
        manifest.index_end = Some(lie);
        inner.store.commit(&manifest)?;
        Ok(token)
    })();
    if result.is_err() {
        let _ = inner.store.abort(token);
        inner.checkpoint_failures.fetch_add(1, Ordering::AcqRel);
    }
    result
}
