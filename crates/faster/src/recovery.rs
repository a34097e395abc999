//! Recovery to a CPR-consistent state (paper Sec. 6.4 / Alg. 3).
//!
//! Recovery combines the newest committed log checkpoint (fold-over or
//! snapshot) with the newest fuzzy index checkpoint at or before it, then
//! scans the HybridLog section `[S, E)` fixing the index:
//!
//! * `S = min(L_is, L_hs)`, `E = L_he` (our index dumps complete before
//!   `L_he` is recorded, so every dumped address is durable — see
//!   DESIGN.md);
//! * a record with version ≤ v becomes its slot's newest address (the
//!   scan runs in address order, so later records win);
//! * a record with version v + 1 is marked invalid on the device, and any
//!   slot pointing at or beyond it is unlinked to the record's previous
//!   address — the UNDO of FASTER recovery.
//!
//! ## Partitioned scan
//!
//! The `[S, E)` scan is embarrassingly parallel: `[S, E)` is split into
//! page-aligned chunks pulled from a shared counter by
//! `recovery_threads` workers. Each worker reduces its chunks to a
//! per-slot summary — `(max valid address, lowest v + 1 address and its
//! prev pointer)` — and issues the idempotent invalid-marker writes for
//! its own chunks. Summaries are keyed by the index *slot*
//! ([`HashIndex::slot_key`]), not by the key hash: keys that share a
//! slot share one record chain, so only the newest valid record of the
//! whole slot may become its entry. The summaries merge with
//! `(max, min-by-address)`, which is commutative and associative, and
//! are applied to the index sequentially in bucket-major slot-key order.
//! The same collect-then-merge path runs at every thread count
//! (including 1), so the recovered index and log bytes are identical no
//! matter how many workers ran.
//!
//! ## Crash safety of recovery itself
//!
//! Recovery may be killed and re-run: snapshot normalization always
//! re-copies `snapshot.dat` into the main log and syncs it *before* the
//! index is loaded or scanned, so a crash mid-normalization just means
//! the next attempt re-copies the same committed bytes; invalid-marker
//! writes are 8-byte header rewrites of fixed content at fixed
//! addresses, so replaying them is a no-op. When
//! [`FasterOptions::fault`] is set, the log device and checkpoint reads
//! are routed through the injector so tests can crash recovery at a
//! chosen read or write.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use cpr_core::{CheckpointKind, CheckpointManifest, Pod};
use cpr_storage::{CheckpointStore, Device, FaultDevice, FileDevice};

use crate::addr::{PageLayout, INVALID_ADDRESS};
use crate::header::{version13, Header, RecordLayout};
use crate::index::{key_hash, HashIndex};
use crate::store::{FasterKv, FasterOptions};

/// Target bytes per scan chunk / normalization write. One device read
/// per chunk; small enough to spread a log across workers, large enough
/// to amortize per-read latency.
const RECOVERY_CHUNK_BYTES: u64 = 1 << 20;

/// What the scan learned about one index slot: the fold of every record
/// chained off the slot, reduced to the numbers the apply phase needs.
/// Merging two summaries is `(max, min-by-address)`.
#[derive(Clone, Copy)]
struct SlotOutcome {
    /// Highest address of a valid version-≤v record (`INVALID_ADDRESS`
    /// if none).
    max_valid: u64,
    /// Address of the lowest version-v+1 record (`u64::MAX` if none)...
    min_invalid: u64,
    /// ...and its prev pointer.
    invalid_prev: u64,
}

impl Default for SlotOutcome {
    fn default() -> Self {
        SlotOutcome {
            max_valid: INVALID_ADDRESS,
            min_invalid: u64::MAX,
            invalid_prev: INVALID_ADDRESS,
        }
    }
}

impl SlotOutcome {
    fn merge(&mut self, other: SlotOutcome) {
        self.max_valid = self.max_valid.max(other.max_valid);
        if other.min_invalid < self.min_invalid {
            self.min_invalid = other.min_invalid;
            self.invalid_prev = other.invalid_prev;
        }
    }
}

/// Hasher for slot keys. They are already mixed key-hash bits, so one
/// fold, one multiply and one fold spread them over every output bit
/// (the map's bucket choice reads the low bits, its probe tag the high
/// ones). It is unkeyed, like [`key_hash`] itself: keys crafted to share
/// a slot already collide in the index.
#[derive(Default)]
struct SlotKeyHasher(u64);

impl Hasher for SlotKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.write_u64(self.0 ^ u64::from(*b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let h = (x ^ (x >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type SlotMap = HashMap<u64, SlotOutcome, BuildHasherDefault<SlotKeyHasher>>;

pub(crate) fn recover<V: Pod>(
    opts: FasterOptions<V>,
) -> io::Result<(FasterKv<V>, Option<CheckpointManifest>)> {
    let cs = CheckpointStore::open_with(opts.dir.join("checkpoints"), opts.fault.clone())?;
    let m_log = cs.latest_matching(|m| {
        matches!(m.kind, CheckpointKind::FoldOver | CheckpointKind::Snapshot)
    })?;
    let Some(m_log) = m_log else {
        // Nothing committed: a fresh store.
        return Ok((FasterKv::open_inner(opts)?, None));
    };

    let metrics_on = opts.metrics.is_enabled();
    let base: Arc<dyn Device> = Arc::new(FileDevice::open_with(
        opts.dir.join("log.dat"),
        opts.write_queues,
        opts.io_profile,
    )?);
    let device: Arc<dyn Device> = match &opts.fault {
        Some(inj) => Arc::new(FaultDevice::new(base, Arc::clone(inj))),
        None => base,
    };

    // Normalize a snapshot commit into the main log file so a single
    // contiguous source covers [0, E). Idempotent and re-runnable: the
    // full snapshot is re-copied unconditionally (a previous recovery
    // attempt may have died mid-copy), and it is synced before anything
    // below reads the log.
    if m_log.kind == CheckpointKind::Snapshot {
        let t0 = metrics_on.then(std::time::Instant::now);
        let start = m_log
            .snapshot_start
            .expect("snapshot manifest has snapshot_start");
        let bytes = cs.read_file(m_log.token, "snapshot.dat")?;
        let mut off = 0usize;
        while off < bytes.len() {
            let end = (off + RECOVERY_CHUNK_BYTES as usize).min(bytes.len());
            device
                .write_at(start + off as u64, bytes[off..end].to_vec())
                .wait()?;
            off = end;
        }
        device.sync()?;
        if let Some(t0) = t0 {
            opts.metrics.record_phase("recovery.normalize", 1, t0.elapsed());
        }
    }

    // Newest usable index checkpoint (the log checkpoint itself if full).
    let m_idx = if m_log.index_begin.is_some() {
        Some(m_log.clone())
    } else {
        cs.latest_matching(|m| m.token <= m_log.token && m.index_begin.is_some())?
    };
    let index = match &m_idx {
        Some(mi) => HashIndex::load(&cs.read_file(mi.token, "index.dat")?)?,
        None => HashIndex::new(opts.index_buckets),
    };

    let layout = PageLayout::new(opts.hlog.page_bits);
    let rec = RecordLayout::new(opts.hlog.value_size);
    let rec_size = rec.record_size() as u64;
    let begin = rec_size;

    let v = m_log.version;
    let vnext13 = version13(v + 1);
    let lhs = m_log.log_begin.expect("log checkpoint has log_begin");
    let e = m_log.log_end.expect("log checkpoint has log_end");
    let s = m_idx
        .as_ref()
        .and_then(|m| m.index_begin)
        .unwrap_or(begin)
        .min(lhs)
        .max(begin);

    // Scan [s, e): page-aligned chunks handed to a worker pool, merged
    // into one per-slot summary list.
    let threads = opts.recovery_threads.max(1);
    let t_scan = metrics_on.then(std::time::Instant::now);
    let merged = scan_partitioned(&device, &index, &layout, rec_size, vnext13, s, e, threads)?;
    if let Some(t0) = t_scan {
        opts.metrics.record_phase("recovery.scan", threads, t0.elapsed());
    }

    // Apply summaries to the index in slot-key order, so slot creation
    // order — and therefore the index dump bytes — do not depend on
    // worker scheduling. A slot key selects the same slot as any hash it
    // was taken from.
    let t_apply = metrics_on.then(std::time::Instant::now);
    for (sk, o) in &merged {
        let slot = index.find_or_create(*sk);
        loop {
            let cur = slot.address();
            let new = if o.max_valid != INVALID_ADDRESS {
                o.max_valid
            } else if o.min_invalid != u64::MAX && cur >= o.min_invalid {
                o.invalid_prev
            } else {
                break;
            };
            if new == cur || slot.try_update(cur, new) {
                break;
            }
        }
    }
    device.sync()?;
    if let Some(t0) = t_apply {
        opts.metrics.record_phase("recovery.apply", 1, t0.elapsed());
    }

    let sessions: HashMap<u64, u64> = m_log
        .sessions
        .iter()
        .map(|s| (s.guid, s.cpr_point))
        .collect();

    let kv = FasterKv::build(opts, device, Some((index, v + 1, sessions)))?;
    kv.inner.hlog.restore_at(e);
    Ok((kv, Some(m_log)))
}

/// Scan `[s, e)` with `threads` workers over page-aligned chunks and
/// return the merged per-slot summaries, sorted bucket-major by slot
/// key. Workers also rewrite the headers of version-v+1 records with the
/// invalid bit set (idempotent 8-byte writes at disjoint addresses;
/// chunks never split a record).
#[allow(clippy::too_many_arguments)]
fn scan_partitioned(
    device: &Arc<dyn Device>,
    index: &HashIndex,
    layout: &PageLayout,
    rec_size: u64,
    vnext13: u64,
    s: u64,
    e: u64,
    threads: usize,
) -> io::Result<Vec<(u64, SlotOutcome)>> {
    if s >= e {
        return Ok(Vec::new());
    }
    let psz = layout.page_size();
    let chunk_pages = (RECOVERY_CHUNK_BYTES / psz).max(1);
    let chunk_bytes = chunk_pages * psz;
    let chunk0 = layout.page_start(layout.page(s));
    let nchunks = (e - chunk0).div_ceil(chunk_bytes);
    // A worker sees about its share of the records, and every slot it
    // summarises has at least one of them.
    let share = ((e - s) / rec_size) as usize / threads + 1;

    let next = AtomicU64::new(0);
    let failed = AtomicBool::new(false);
    let worker = |_w: usize| -> io::Result<SlotMap> {
        let mut local = SlotMap::with_capacity_and_hasher(share, Default::default());
        let mut buf: Vec<u8> = Vec::new();
        let mut markers: Vec<cpr_storage::IoHandle> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= nchunks || failed.load(Ordering::Acquire) {
                break;
            }
            let cstart = (chunk0 + i * chunk_bytes).max(s);
            let cend = (chunk0 + (i + 1) * chunk_bytes).min(e);
            if cstart >= cend {
                continue;
            }
            buf.clear();
            buf.resize((cend - cstart) as usize, 0);
            device.read_at(cstart, &mut buf)?;
            scan_chunk(
                &buf,
                cstart,
                cend,
                index,
                layout,
                rec_size,
                vnext13,
                device,
                &mut local,
                &mut markers,
            );
        }
        for m in markers {
            m.wait()?;
        }
        Ok(local)
    };

    let results: Vec<io::Result<SlotMap>> = if threads == 1 {
        vec![worker(0)]
    } else {
        std::thread::scope(|sc| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let worker = &worker;
                    let failed = &failed;
                    sc.spawn(move || {
                        let r = worker(w);
                        if r.is_err() {
                            failed.store(true, Ordering::Release);
                        }
                        r
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("recovery worker panicked"))
                .collect()
        })
    };

    // Concatenate, sort bucket-major (the apply walk then visits buckets
    // in order), and merge runs of equal slot keys.
    let mut merged: Vec<(u64, SlotOutcome)> = Vec::new();
    for r in results {
        merged.extend(r?);
    }
    merged.sort_unstable_by_key(|&(sk, _)| (index.bucket_index(sk), sk));
    merged.dedup_by(|(sk, o), (keep_sk, keep)| {
        let same = sk == keep_sk;
        if same {
            keep.merge(*o);
        }
        same
    });
    Ok(merged)
}

/// Reduce one chunk's records into `local`, issuing invalid-marker
/// writes for version-v+1 records (completion handles are pushed to
/// `markers`; the caller waits them so injected write faults surface).
#[allow(clippy::too_many_arguments)]
fn scan_chunk(
    buf: &[u8],
    cstart: u64,
    cend: u64,
    index: &HashIndex,
    layout: &PageLayout,
    rec_size: u64,
    vnext13: u64,
    device: &Arc<dyn Device>,
    local: &mut SlotMap,
    markers: &mut Vec<cpr_storage::IoHandle>,
) {
    let psz = layout.page_size();
    let mut addr = cstart;
    while addr < cend && addr + rec_size <= cend {
        // Records never straddle pages; skip page-tail slack.
        if layout.offset(addr) + rec_size > psz {
            addr = layout.page_start(layout.page(addr) + 1);
            continue;
        }
        let base = (addr - cstart) as usize;
        let word = u64::from_le_bytes(buf[base..base + 8].try_into().unwrap());
        if word == 0 {
            // Unwritten slack: nothing else in this page.
            addr = layout.page_start(layout.page(addr) + 1);
            continue;
        }
        let h = Header::unpack(word);
        let key = u64::from_le_bytes(buf[base + 8..base + 16].try_into().unwrap());
        let entry = local.entry(index.slot_key(key_hash(key))).or_default();
        if h.version != vnext13 && !h.invalid {
            // Part of the commit: later addresses win.
            entry.max_valid = entry.max_valid.max(addr);
        } else {
            // Post-CPR-point record: mark invalid on the device and
            // remember the unlink target — the UNDO of FASTER recovery.
            let inv = Header { invalid: true, ..h };
            markers.push(device.write_at(addr, inv.pack().to_le_bytes().to_vec()));
            entry.merge(SlotOutcome {
                min_invalid: addr,
                invalid_prev: h.prev,
                ..SlotOutcome::default()
            });
        }
        addr += rec_size;
    }
}
