//! HybridLog: the log-structured record store spanning memory and storage
//! (paper Sec. 5.1).
//!
//! The logical address space is divided into a *stable* region (on the
//! device), an immutable in-memory *read-only* region, and an in-memory
//! *mutable* region where records are updated in place. Offsets:
//!
//! ```text
//!   0 ....... head ....... safe_read_only ... read_only ....... tail
//!   [device ][   in-memory, immutable      ][ in-memory, mutable ]
//!                          (fuzzy region between safe-ro and ro)
//! ```
//!
//! All offsets only ever advance. `read_only` and `head` are maintained at
//! a lag from the tail; their *safe* counterparts trail them by one epoch
//! bump so that no thread can be acting on a stale offset when pages are
//! flushed or frames reused (the lost-update protection of Sec. 5.1).
//!
//! Frames hold pages as `AtomicU64` words: record fields are word-aligned,
//! so in-place updates and concurrent reads are tear-free at word
//! granularity without locks.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cpr_epoch::{EpochManager, Guard};
use cpr_storage::{Device, IoHandle};
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use crate::addr::{Address, PageLayout};
use crate::header::{Header, RecordLayout};

/// HybridLog sizing.
#[derive(Debug, Clone, Copy)]
pub struct HlogConfig {
    /// log2 of the page size in bytes.
    pub page_bits: u32,
    /// Number of in-memory page frames.
    pub memory_pages: usize,
    /// Pages kept mutable (the read-only offset lags the tail by this).
    pub mutable_pages: usize,
    /// Value size in bytes.
    pub value_size: usize,
}

impl HlogConfig {
    pub fn small_for_tests() -> Self {
        HlogConfig {
            page_bits: 12, // 4 KiB pages
            memory_pages: 8,
            mutable_pages: 4,
            value_size: 8,
        }
    }

    pub fn validate(&self) {
        assert!(
            self.memory_pages.is_power_of_two(),
            "memory_pages must be 2^k"
        );
        assert!(
            self.mutable_pages >= 1 && self.mutable_pages < self.memory_pages,
            "mutable_pages must be in [1, memory_pages)"
        );
        let rec = RecordLayout::new(self.value_size).record_size() as u64;
        assert!(
            rec * 4 <= (1u64 << self.page_bits),
            "page size {} too small for record size {rec}",
            1u64 << self.page_bits
        );
    }
}

struct Frame {
    words: Box<[AtomicU64]>,
}

impl Frame {
    /// A zero frame. The allocation is requested pre-zeroed, so the OS
    /// maps zero pages on first touch instead of this thread writing
    /// every word: a frame costs memory only once the log reaches it.
    fn new(words: usize) -> Self {
        // SAFETY: the all-zero bit pattern is a valid `AtomicU64` (0).
        let words = unsafe { Box::<[AtomicU64]>::new_zeroed_slice(words).assume_init() };
        Frame { words }
    }
    fn zero(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
    }
}

/// The log-structured record store. See module docs.
///
/// ## Tail representation
/// Records must not straddle pages, and record sizes (e.g. 24 bytes) need
/// not divide the power-of-two page size, so the tail is a packed
/// *(page, offset)* word (as in FASTER): `page << 32 | offset`. A
/// fetch-add reserves `record_size` in the current page; the thread whose
/// reservation crosses the page boundary becomes the new page's claimant
/// and resets the offset, wasting the slack at the end of the old page
/// (zeroed; scans skip zero headers).
pub struct HybridLog {
    pub layout: PageLayout,
    pub rec: RecordLayout,
    cfg: HlogConfig,
    frames: Box<[Frame]>,
    /// `page + 1` currently resident in each frame (0 = empty).
    ///
    /// Invariant: a frame whose cell is 0 has never been written, so it
    /// is still all zero. Frames are therefore zeroed only when they
    /// are reused ([`Self::claim_page`]) or reset ([`Self::restore_at`])
    /// after holding a page.
    page_table: Box<[AtomicU64]>,
    /// Packed `(page << 32) | offset` tail.
    tail_po: CachePadded<AtomicU64>,
    read_only: CachePadded<AtomicU64>,
    safe_read_only: CachePadded<AtomicU64>,
    head: CachePadded<AtomicU64>,
    safe_head: CachePadded<AtomicU64>,
    /// Start of the not-yet-enqueued-for-flush region (guarded by lock).
    flush_state: Mutex<FlushState>,
    flushed_durable: CachePadded<AtomicU64>,
    /// Count of flush I/O errors observed (each failed attempt counts;
    /// failed ranges are retried because eviction gates on
    /// `flushed_durable`, keeping them frame-resident and re-copyable).
    flush_failures: CachePadded<AtomicU64>,
    device: Arc<dyn Device>,
    epoch: Arc<EpochManager>,
}

struct FlushState {
    enqueued: u64,
    inflight: Vec<InflightFlush>,
}

/// Granularity of checkpoint-flush scatter-gather writes. Ranges at or
/// below one chunk issue exactly one buffer, so small (test-sized)
/// flushes behave byte-for-byte like the old single-write path.
const FLUSH_CHUNK_BYTES: u64 = 1 << 20;

struct InflightFlush {
    start: u64,
    target: u64,
    handle: IoHandle,
}

impl HybridLog {
    pub fn new(cfg: HlogConfig, device: Arc<dyn Device>, epoch: Arc<EpochManager>) -> Arc<Self> {
        cfg.validate();
        let layout = PageLayout::new(cfg.page_bits);
        let rec = RecordLayout::new(cfg.value_size);
        let words_per_page = (layout.page_size() / 8) as usize;
        let frames = (0..cfg.memory_pages)
            .map(|_| Frame::new(words_per_page))
            .collect::<Vec<_>>()
            .into();
        let page_table = (0..cfg.memory_pages)
            .map(|i| AtomicU64::new(if i == 0 { 1 } else { 0 })) // page 0 resident
            .collect::<Vec<_>>()
            .into();
        let begin = rec.record_size() as u64; // address 0 is reserved
        Arc::new(HybridLog {
            layout,
            rec,
            cfg,
            frames,
            page_table,
            tail_po: CachePadded::new(AtomicU64::new(begin)), // page 0, offset = begin
            read_only: CachePadded::new(AtomicU64::new(0)),
            safe_read_only: CachePadded::new(AtomicU64::new(0)),
            head: CachePadded::new(AtomicU64::new(0)),
            safe_head: CachePadded::new(AtomicU64::new(0)),
            flush_state: Mutex::new(FlushState {
                enqueued: 0,
                inflight: Vec::new(),
            }),
            flushed_durable: CachePadded::new(AtomicU64::new(0)),
            flush_failures: CachePadded::new(AtomicU64::new(0)),
            device,
            epoch,
        })
    }

    /// First valid record address.
    pub fn begin_address(&self) -> Address {
        self.rec.record_size() as u64
    }

    /// Logical tail: every record below this address is allocated.
    pub fn tail(&self) -> Address {
        let po = self.tail_po.load(Ordering::Acquire);
        let page = po >> 32;
        let off = (po & 0xFFFF_FFFF).min(self.layout.page_size());
        self.layout.page_start(page) + off
    }
    pub fn read_only(&self) -> Address {
        self.read_only.load(Ordering::Acquire)
    }
    pub fn safe_read_only(&self) -> Address {
        self.safe_read_only.load(Ordering::Acquire)
    }
    pub fn head(&self) -> Address {
        self.head.load(Ordering::Acquire)
    }
    pub fn flushed_durable(&self) -> Address {
        self.flushed_durable.load(Ordering::Acquire)
    }
    pub fn device(&self) -> &Arc<dyn Device> {
        &self.device
    }
    pub fn config(&self) -> &HlogConfig {
        &self.cfg
    }

    /// In-memory bytes currently addressable (tail − head).
    pub fn in_memory_bytes(&self) -> u64 {
        self.tail().saturating_sub(self.head())
    }

    #[inline]
    fn frame_of(&self, page: u64) -> &Frame {
        &self.frames[(page as usize) & (self.cfg.memory_pages - 1)]
    }

    #[inline]
    fn page_cell(&self, page: u64) -> &AtomicU64 {
        &self.page_table[(page as usize) & (self.cfg.memory_pages - 1)]
    }

    /// True if `page` is resident (its frame currently maps it).
    #[inline]
    fn resident(&self, page: u64) -> bool {
        self.page_cell(page).load(Ordering::Acquire) == page + 1
    }

    /// Word cell at logical `addr` (must be 8-aligned and resident; the
    /// caller guarantees `addr >= head` within one epoch period).
    #[inline]
    pub fn word(&self, addr: Address) -> &AtomicU64 {
        debug_assert_eq!(addr % 8, 0);
        let page = self.layout.page(addr);
        debug_assert!(self.resident(page), "access to non-resident page {page}");
        let off = (self.layout.offset(addr) / 8) as usize;
        &self.frame_of(page).words[off]
    }

    /// Allocate one record slot at the tail; returns its address.
    ///
    /// The thread whose reservation crosses the page boundary becomes the
    /// next page's *claimant*: it advances the read-only and head offsets
    /// (keeping their lags), waits for the frame to be evictable, installs
    /// the page, and resets the tail offset. Threads that overshoot while
    /// the claimant works spin, refreshing their epoch so trigger actions
    /// keep making progress.
    pub fn allocate(&self, guard: &Guard) -> Address {
        let size = self.rec.record_size() as u64;
        let psz = self.layout.page_size();
        loop {
            let old = self.tail_po.fetch_add(size, Ordering::AcqRel);
            let page = old >> 32;
            let off = old & 0xFFFF_FFFF;
            if off + size <= psz {
                // Common case: fits in the current page (resident by
                // construction: the claimant installed it before
                // publishing the offset reset).
                return self.layout.page_start(page) + off;
            }
            if off <= psz {
                // We crossed the boundary: claim the next page. The slack
                // [off, psz) stays zero and is skipped by scans.
                self.claim_page(page + 1, guard);
                self.tail_po
                    .store(((page + 1) << 32) | size, Ordering::Release);
                return self.layout.page_start(page + 1);
            }
            // Overshot while the claimant works: wait for the reset.
            let mut spins = 0u64;
            while self.tail_po.load(Ordering::Acquire) >> 32 == page {
                spins += 1;
                if spins.is_multiple_of(64) {
                    guard.refresh();
                    self.poll_flushes();
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Prepare the frame for `page` and install it.
    fn claim_page(&self, page: u64, guard: &Guard) {
        // Maintain lags: read_only trails by mutable_pages, head by the
        // frame count.
        if page + 1 > self.cfg.mutable_pages as u64 {
            let ro = self
                .layout
                .page_start(page + 1 - self.cfg.mutable_pages as u64);
            self.shift_read_only_to(ro);
        }
        if page + 1 > self.cfg.memory_pages as u64 {
            let desired = self
                .layout
                .page_start(page + 1 - self.cfg.memory_pages as u64);
            // Never advance head past read_only: the region between them
            // must stay in memory for in-place updates.
            let target = desired.min(self.read_only());
            let old = self.head.fetch_max(target, Ordering::AcqRel);
            if old < target {
                let this = self.self_arc();
                self.epoch.bump_epoch(
                    None,
                    Box::new(move || {
                        this.safe_head.fetch_max(target, Ordering::AcqRel);
                    }),
                );
            }
        }
        // Wait until the frame's previous page is evictable: flushed to
        // the device and below the safe head.
        let cell = self.page_cell(page);
        let mut spins = 0u64;
        let cur = loop {
            let cur = cell.load(Ordering::Acquire);
            if cur == 0 {
                break cur;
            }
            let prev_page = cur - 1;
            debug_assert!(prev_page < page);
            let prev_end = self.layout.page_start(prev_page + 1);
            if self.safe_head.load(Ordering::Acquire) >= prev_end
                && self.flushed_durable() >= prev_end
            {
                break cur;
            }
            spins += 1;
            if spins.is_multiple_of(16) {
                guard.refresh();
                self.epoch.try_drain();
                self.poll_flushes();
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        };
        if cur != 0 {
            // The frame held an earlier page; a never-used one is zero.
            self.frame_of(page).zero();
        }
        cell.store(page + 1, Ordering::Release);
    }

    /// Obtain an owning handle to ourselves for epoch trigger actions.
    ///
    /// Sound because `HybridLog::new` is the only constructor and returns
    /// `Arc<Self>`, so `self` is always managed by an Arc.
    fn self_arc(&self) -> Arc<HybridLog> {
        unsafe {
            let ptr = self as *const HybridLog;
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        }
    }

    /// Advance the read-only offset to at least `target` (fold-over
    /// commits pass the tail). Schedules the safe-read-only shift and the
    /// flush of the newly immutable region on the epoch framework.
    pub fn shift_read_only_to(&self, target: Address) {
        let target = target.min(self.tail());
        let old = self.read_only.fetch_max(target, Ordering::AcqRel);
        if old >= target {
            return;
        }
        let this = self.self_arc();
        self.epoch.bump_epoch(
            None,
            Box::new(move || {
                this.safe_read_only.fetch_max(target, Ordering::AcqRel);
                this.enqueue_flush(target);
            }),
        );
    }

    /// Queue device writes for `[enqueued, target)` as one scatter-gather
    /// write of [`FLUSH_CHUNK_BYTES`]-sized buffers: on a pooled device
    /// the chunks land on different writer queues and flush in parallel,
    /// while a fault-injecting decorator still counts the whole range as
    /// a single operation (its `write_vectored_at` concatenates).
    fn enqueue_flush(&self, target: Address) {
        let mut st = self.flush_state.lock();
        if st.enqueued >= target {
            return;
        }
        let start = st.enqueued;
        let mut bufs = Vec::new();
        let mut at = start;
        while at < target {
            let next = (at + FLUSH_CHUNK_BYTES).min(target);
            bufs.push(self.copy_range(at, next));
            at = next;
        }
        let handle = self.device.write_vectored_at(start, bufs);
        st.inflight.push(InflightFlush {
            start,
            target,
            handle,
        });
        st.enqueued = target;
    }

    /// Flush I/O errors observed so far (see [`Self::wait_flushed`]).
    pub fn flush_failures(&self) -> u64 {
        self.flush_failures.load(Ordering::Acquire)
    }

    /// Fold completed flushes into the durable horizon. A failed flush is
    /// counted and re-issued: its range is still frame-resident (eviction
    /// gates on `flushed_durable`), so the bytes can be re-copied. At most
    /// one retry is issued per call so an instantly-failing device (e.g. a
    /// simulated crash) cannot spin this into a busy loop.
    pub fn poll_flushes(&self) {
        let mut st = self.flush_state.lock();
        while let Some(f) = st.inflight.first() {
            if !f.handle.is_done() {
                break;
            }
            match f.handle.wait() {
                Ok(()) => {
                    self.flushed_durable.fetch_max(f.target, Ordering::AcqRel);
                    st.inflight.remove(0);
                }
                Err(_) => {
                    self.flush_failures.fetch_add(1, Ordering::AcqRel);
                    let (start, target) = (f.start, f.target);
                    let mut bufs = Vec::new();
                    let mut at = start;
                    while at < target {
                        let next = (at + FLUSH_CHUNK_BYTES).min(target);
                        bufs.push(self.copy_range(at, next));
                        at = next;
                    }
                    st.inflight[0] = InflightFlush {
                        start,
                        target,
                        handle: self.device.write_vectored_at(start, bufs),
                    };
                    break;
                }
            }
        }
    }

    /// Block until everything up to `target` is durable, keeping the
    /// epoch drain moving (used by the checkpoint worker). Returns an
    /// error as soon as any flush attempt fails while waiting, so a
    /// checkpoint against a dead device aborts instead of hanging (the
    /// failed range keeps being retried in the background and may still
    /// become durable later).
    pub fn wait_flushed(&self, target: Address) -> io::Result<()> {
        let baseline = self.flush_failures();
        loop {
            if self.flushed_durable() >= target {
                return Ok(());
            }
            if self.flush_failures() != baseline {
                return Err(io::Error::other(format!(
                    "log flush failed below {target:#x}"
                )));
            }
            self.epoch.try_drain();
            self.poll_flushes();
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }

    /// Copy the resident byte range `[start, end)` out of the frames
    /// (word-wise; wrap-aware across pages). The range must be resident —
    /// guaranteed for anything not yet flushed.
    pub fn copy_range(&self, start: Address, end: Address) -> Vec<u8> {
        assert!(start <= end);
        let mut out = Vec::with_capacity((end - start) as usize);
        let mut addr = start;
        while addr < end {
            let page = self.layout.page(addr);
            let page_end = self.layout.page_start(page + 1).min(end);
            debug_assert!(self.resident(page), "flush of evicted page {page}");
            let frame = self.frame_of(page);
            let w0 = (self.layout.offset(addr) / 8) as usize;
            let w1 = ((self.layout.offset(page_end - 1) / 8) + 1) as usize;
            for w in &frame.words[w0..w1] {
                out.extend_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
            }
            addr = page_end;
        }
        out
    }

    /// Read `[start, end)` from the durable log image on the device,
    /// bypassing in-memory frames. Only valid below [`Self::head`]:
    /// after [`Self::restore_at`] the recovered prefix exists *only* on
    /// the device (the tail page's frame is zeroed), so frame-first
    /// reads of that region see slack. The [`Device::read_at`] contract
    /// zero-fills past the physical end of the file, so a freshly
    /// truncated or sparse `log.dat` reads as "no record" rather than
    /// failing with a short read.
    pub fn read_durable(&self, start: Address, end: Address) -> io::Result<Vec<u8>> {
        assert!(start <= end);
        let mut buf = vec![0u8; (end - start) as usize];
        self.device.read_at(start, &mut buf)?;
        Ok(buf)
    }

    /// Copy `[start, end)` tolerating concurrent eviction: pages are read
    /// from their frame when resident, from the device otherwise (an
    /// evicted page is flushed by construction). Used by snapshot commits,
    /// whose source region may be flushed+evicted mid-copy. Device read
    /// errors (e.g. injected faults) propagate so the caller can abort.
    pub fn read_range(&self, start: Address, end: Address) -> io::Result<Vec<u8>> {
        assert!(start <= end);
        let mut out = Vec::with_capacity((end - start) as usize);
        let mut addr = start;
        while addr < end {
            let page = self.layout.page(addr);
            let page_end = self.layout.page_start(page + 1).min(end);
            let len = (page_end - addr) as usize;
            let mut chunk = Vec::with_capacity(len);
            let from_frame = self.resident(page) && {
                let frame = self.frame_of(page);
                let w0 = (self.layout.offset(addr) / 8) as usize;
                let w1 = ((self.layout.offset(page_end - 1) / 8) + 1) as usize;
                for w in &frame.words[w0..w1] {
                    chunk.extend_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
                }
                // Re-check: if the frame was reclaimed mid-copy the bytes
                // may be torn — fall back to the device (valid because
                // eviction requires the flush to have completed).
                self.resident(page)
            };
            if !from_frame {
                chunk.clear();
                chunk.resize(len, 0);
                self.device.read_at(addr, &mut chunk)?;
            }
            chunk.truncate(len);
            out.extend_from_slice(&chunk);
            addr = page_end;
        }
        Ok(out)
    }

    // ---- record accessors ------------------------------------------------

    /// Write a fresh record (header published last with Release so chain
    /// walkers see a complete record).
    pub fn write_record(&self, addr: Address, header: Header, key: u64, value_words: &[u64]) {
        debug_assert_eq!(value_words.len(), self.rec.value_words());
        self.word(addr + 8).store(key, Ordering::Relaxed);
        for (i, w) in value_words.iter().enumerate() {
            self.word(addr + 16 + 8 * i as u64)
                .store(*w, Ordering::Relaxed);
        }
        self.word(addr).store(header.pack(), Ordering::Release);
    }

    #[inline]
    pub fn header_at(&self, addr: Address) -> Header {
        Header::unpack(self.word(addr).load(Ordering::Acquire))
    }

    #[inline]
    pub fn set_header(&self, addr: Address, header: Header) {
        self.word(addr).store(header.pack(), Ordering::Release);
    }

    #[inline]
    pub fn key_at(&self, addr: Address) -> u64 {
        self.word(addr + 8).load(Ordering::Relaxed)
    }

    /// Read the value words into `out`.
    pub fn value_at(&self, addr: Address, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.rec.value_words());
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.word(addr + 16 + 8 * i as u64).load(Ordering::Relaxed);
        }
    }

    /// Overwrite the value words in place (mutable region only).
    pub fn set_value_at(&self, addr: Address, words: &[u64]) {
        debug_assert_eq!(words.len(), self.rec.value_words());
        for (i, w) in words.iter().enumerate() {
            self.word(addr + 16 + 8 * i as u64)
                .store(*w, Ordering::Relaxed);
        }
    }

    /// CAS the first value word (atomic single-word RMW, e.g. u64 sums).
    pub fn cas_value_word(&self, addr: Address, old: u64, new: u64) -> bool {
        self.word(addr + 16)
            .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    // ---- recovery support -------------------------------------------------

    /// Reset the log to resume appending at `tail` with everything below
    /// it on the device (post-recovery state).
    pub fn restore_at(&self, tail: Address) {
        let page = self.layout.page(tail);
        for (i, cell) in self.page_table.iter().enumerate() {
            if cell.swap(0, Ordering::Relaxed) != 0 {
                self.frames[i].zero();
            }
        }
        self.page_cell(page).store(page + 1, Ordering::Relaxed);
        self.tail_po
            .store((page << 32) | self.layout.offset(tail), Ordering::Relaxed);
        self.read_only.store(tail, Ordering::Relaxed);
        self.safe_read_only.store(tail, Ordering::Relaxed);
        self.head.store(tail, Ordering::Relaxed);
        self.safe_head.store(tail, Ordering::Relaxed);
        self.flushed_durable.store(tail, Ordering::Relaxed);
        let mut st = self.flush_state.lock();
        st.enqueued = tail;
        st.inflight.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_storage::MemDevice;

    fn mk(cfg: HlogConfig) -> (Arc<HybridLog>, Arc<EpochManager>, Guard) {
        let epoch = Arc::new(EpochManager::new(8));
        let dev = MemDevice::new();
        let log = HybridLog::new(cfg, dev, Arc::clone(&epoch));
        let guard = epoch.register();
        (log, epoch, guard)
    }

    #[test]
    fn allocate_is_dense_within_a_page() {
        let (log, _e, g) = mk(HlogConfig::small_for_tests());
        let rs = log.rec.record_size() as u64;
        let a = log.allocate(&g);
        let b = log.allocate(&g);
        assert_eq!(a, rs, "address 0 is reserved");
        assert_eq!(b, 2 * rs);
        assert_eq!(log.tail(), 3 * rs);
    }

    #[test]
    fn page_boundary_skips_slack_and_continues() {
        let (log, _e, g) = mk(HlogConfig::small_for_tests());
        let rs = log.rec.record_size() as u64;
        let psz = log.layout.page_size();
        let per_page0 = (psz / rs) - 1; // address 0 reserved
        let mut last = 0;
        for _ in 0..per_page0 + 3 {
            last = log.allocate(&g);
        }
        // The last records must live in page 1, starting at its base.
        assert_eq!(log.layout.page(last), 1);
        assert_eq!(log.layout.offset(last) % rs, 0);
    }

    #[test]
    fn write_then_read_record() {
        let (log, _e, g) = mk(HlogConfig::small_for_tests());
        let addr = log.allocate(&g);
        log.write_record(addr, Header::new(0, 1), 42, &[99]);
        assert_eq!(log.key_at(addr), 42);
        let mut v = [0u64; 1];
        log.value_at(addr, &mut v);
        assert_eq!(v[0], 99);
        let h = log.header_at(addr);
        assert_eq!(h.version, 1);
        assert!(!h.invalid);
    }

    #[test]
    fn read_only_offset_lags_tail() {
        let cfg = HlogConfig {
            page_bits: 12,
            memory_pages: 8,
            mutable_pages: 2,
            value_size: 8,
        };
        let (log, _e, g) = mk(cfg);
        let per_page = (1 << 12) / log.rec.record_size();
        // Fill 4 pages.
        for _ in 0..per_page * 4 {
            let a = log.allocate(&g);
            log.write_record(a, Header::new(0, 1), 1, &[1]);
        }
        g.refresh();
        // tail page = 4; read_only should be at page 3 (tail - mutable + 1).
        assert_eq!(log.read_only(), log.layout.page_start(3));
        assert_eq!(log.safe_read_only(), log.layout.page_start(3));
    }

    #[test]
    fn pages_flush_to_device_as_read_only_advances() {
        let cfg = HlogConfig {
            page_bits: 12,
            memory_pages: 4,
            mutable_pages: 1,
            value_size: 8,
        };
        let (log, _e, g) = mk(cfg);
        let per_page = (1 << 12) / log.rec.record_size();
        for i in 0..per_page * 3 {
            let a = log.allocate(&g);
            log.write_record(a, Header::new(0, 1), i as u64, &[i as u64]);
            g.refresh();
        }
        log.wait_flushed(log.layout.page_start(2)).unwrap();
        assert!(log.flushed_durable() >= log.layout.page_start(2));
        // Verify device contents for the first record of page 1: keys were
        // written densely, page 0 held (page_size - rec) / rec records
        // starting at address rec (address 0 reserved).
        let rs = log.rec.record_size() as u64;
        let page0_records = (log.layout.page_size() - rs) / rs;
        let addr = log.layout.page_start(1);
        let mut buf = vec![0u8; rs as usize];
        log.device().read_at(addr, &mut buf).unwrap();
        let key = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        assert_eq!(key, page0_records);
    }

    #[test]
    fn eviction_reuses_frames_beyond_memory_budget() {
        let cfg = HlogConfig {
            page_bits: 12,
            memory_pages: 4,
            mutable_pages: 1,
            value_size: 8,
        };
        let (log, _e, g) = mk(cfg);
        let per_page = (1 << 12) / log.rec.record_size();
        // Write ~10 pages worth — far beyond the 4-frame budget.
        for i in 0..per_page * 10 {
            let a = log.allocate(&g);
            log.write_record(a, Header::new(0, 2), i as u64, &[7]);
            if i % 16 == 0 {
                g.refresh();
            }
        }
        g.refresh();
        assert!(
            log.head() >= log.layout.page_start(6),
            "head {}",
            log.head()
        );
        assert!(log.tail() >= log.layout.page_start(10));
    }

    #[test]
    fn fold_over_shift_flushes_to_tail() {
        let (log, _e, g) = mk(HlogConfig::small_for_tests());
        for i in 0..10u64 {
            let a = log.allocate(&g);
            log.write_record(a, Header::new(0, 1), i, &[i]);
        }
        let tail = log.tail();
        log.shift_read_only_to(tail);
        g.refresh(); // make the bump safe
        log.wait_flushed(tail).unwrap();
        assert_eq!(log.flushed_durable(), tail);
        assert_eq!(log.read_only(), tail);
    }

    #[test]
    fn copy_range_matches_written_data() {
        let (log, _e, g) = mk(HlogConfig::small_for_tests());
        let a = log.allocate(&g);
        log.write_record(a, Header::new(0, 3), 0xAB, &[0xCD]);
        let bytes = log.copy_range(a, a + log.rec.record_size() as u64);
        let key = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let val = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        assert_eq!(key, 0xAB);
        assert_eq!(val, 0xCD);
    }

    #[test]
    fn restore_at_positions_all_offsets() {
        let (log, _e, g) = mk(HlogConfig::small_for_tests());
        for _ in 0..5 {
            log.allocate(&g);
        }
        let rs = log.rec.record_size() as u64;
        log.restore_at(100 * rs);
        assert_eq!(log.tail(), 100 * rs);
        assert_eq!(log.head(), 100 * rs);
        assert_eq!(log.flushed_durable(), 100 * rs);
        let a = log.allocate(&g);
        assert_eq!(a, 100 * rs);
    }

    /// Index of the first non-zero word in `frame`, if any.
    fn first_nonzero(frame: &Frame) -> Option<usize> {
        frame
            .words
            .iter()
            .position(|w| w.load(Ordering::Relaxed) != 0)
    }

    #[test]
    fn fresh_frames_read_zero() {
        let (log, _e, _g) = mk(HlogConfig::small_for_tests());
        for (i, f) in log.frames.iter().enumerate() {
            assert_eq!(first_nonzero(f), None, "frame {i}");
        }
    }

    #[test]
    fn reused_frame_shows_no_stale_words() {
        let cfg = HlogConfig {
            page_bits: 12,
            memory_pages: 4,
            mutable_pages: 1,
            value_size: 8,
        };
        let (log, _e, g) = mk(cfg);
        let per_page = (1 << 12) / log.rec.record_size();
        // Fill pages 0–5 and start page 6 (pages 4–6 reuse frames), then
        // claim page 7: its frame held page 3.
        for i in 0..per_page * 6 {
            let a = log.allocate(&g);
            log.write_record(a, Header::new(0, 1), i as u64 + 1, &[u64::MAX]);
            g.refresh();
        }
        let a = loop {
            let a = log.allocate(&g);
            if log.layout.page(a) == 7 {
                break a;
            }
        };
        assert_eq!(log.layout.offset(a), 0);
        assert_eq!(
            first_nonzero(log.frame_of(7)),
            None,
            "frame reused for page 7 holds stale words"
        );
    }

    #[test]
    fn restore_at_leaves_no_stale_words() {
        let cfg = HlogConfig {
            page_bits: 12,
            memory_pages: 4,
            mutable_pages: 1,
            value_size: 8,
        };
        let (log, _e, g) = mk(cfg);
        let per_page = (1 << 12) / log.rec.record_size();
        for i in 0..per_page * 5 {
            let a = log.allocate(&g);
            log.write_record(a, Header::new(0, 1), i as u64 + 1, &[u64::MAX]);
            g.refresh();
        }
        assert!(log.frames.iter().all(|f| first_nonzero(f).is_some()));
        let rs = log.rec.record_size() as u64;
        log.restore_at(log.layout.page_start(9) + 3 * rs);
        for (i, f) in log.frames.iter().enumerate() {
            assert_eq!(first_nonzero(f), None, "frame {i}");
        }
        // Appending resumes in the restored page on a clean frame.
        let a = log.allocate(&g);
        assert_eq!(a, log.layout.page_start(9) + 3 * rs);
        log.write_record(a, Header::new(0, 2), 7, &[7]);
        assert_eq!(log.key_at(a), 7);
    }

    #[test]
    #[should_panic(expected = "too small for record size")]
    fn bad_page_size_rejected() {
        HlogConfig {
            page_bits: 9, // 512-byte pages
            memory_pages: 4,
            mutable_pages: 1,
            value_size: 200, // record 216 bytes: fewer than 4 per page
        }
        .validate();
    }

    #[test]
    fn concurrent_allocation_is_dense() {
        let cfg = HlogConfig {
            page_bits: 12,
            memory_pages: 16,
            mutable_pages: 8,
            value_size: 8,
        };
        let epoch = Arc::new(EpochManager::new(8));
        let dev = MemDevice::new();
        let log = HybridLog::new(cfg, dev, Arc::clone(&epoch));
        let n_threads = 4;
        let per = 200;
        let addrs: Vec<u64> = (0..n_threads)
            .map(|_| {
                let log = Arc::clone(&log);
                let epoch = Arc::clone(&epoch);
                std::thread::spawn(move || {
                    let g = epoch.register();
                    (0..per).map(|_| log.allocate(&g)).collect::<Vec<u64>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), n_threads * per, "duplicate addresses");
        let rs = log.rec.record_size() as u64;
        for w in sorted.windows(2) {
            let gap = w[1] - w[0];
            // Dense within a page; a jump only at a page boundary.
            assert!(
                gap == rs || log.layout.offset(w[1]) == 0,
                "unexpected gap {gap} at {:#x}",
                w[1]
            );
        }
    }
}
