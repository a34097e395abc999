//! The FASTER hash index (paper Secs. 5, 6.3).
//!
//! An array of 64-byte buckets, each holding 7 entries plus an overflow
//! pointer. An entry packs a 48-bit HybridLog address, a 14-bit tag
//! (additional hash bits distinguishing keys that share a bucket), and a
//! *tentative* bit used by the latch-free two-phase insert. All reads and
//! updates are atomic and latch-free.
//!
//! The index is always physically consistent (entries change only by CAS),
//! so a *fuzzy checkpoint* is just an atomic-read dump of the arrays
//! (paper Sec. 6.3).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::addr::{Address, ADDRESS_MASK, INVALID_ADDRESS};

pub const ENTRIES_PER_BUCKET: usize = 7;
const TAG_BITS: u32 = 14;
const TAG_SHIFT: u32 = 48;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
const TENTATIVE_BIT: u64 = 1 << 62;

/// 64-byte hash bucket: 7 entries + 1 overflow pointer (index+1 into the
/// overflow pool; 0 = none).
#[repr(align(64))]
pub struct Bucket {
    entries: [AtomicU64; ENTRIES_PER_BUCKET],
    overflow: AtomicU64,
}

impl Bucket {
    fn new() -> Self {
        Bucket {
            entries: Default::default(),
            overflow: AtomicU64::new(0),
        }
    }
}

#[inline]
fn entry_tag(word: u64) -> u64 {
    (word >> TAG_SHIFT) & TAG_MASK
}

#[inline]
fn entry_addr(word: u64) -> Address {
    word & ADDRESS_MASK
}

#[inline]
fn make_entry(tag: u64, addr: Address, tentative: bool) -> u64 {
    (addr & ADDRESS_MASK) | (tag << TAG_SHIFT) | if tentative { TENTATIVE_BIT } else { 0 }
}

/// Mix a key into a 64-bit hash (bucket index from the low bits, tag from
/// the high bits).
#[inline]
pub fn key_hash(key: u64) -> u64 {
    let mut h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 31;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h
}

/// Position of the tag bits within a key hash. Skips the top bit so tags
/// also differ from the tentative bit's position semantics; any 14 bits
/// work.
const TAG_SHIFT_IN_HASH: u32 = 49;

#[inline]
fn tag_of(hash: u64) -> u64 {
    (hash >> TAG_SHIFT_IN_HASH) & TAG_MASK
}

/// A located index slot for some key hash. The caller reads the current
/// address and CASes updates through this handle.
pub struct Slot<'a> {
    cell: &'a AtomicU64,
    tag: u64,
}

impl Slot<'_> {
    /// Current record address in this slot (`INVALID_ADDRESS` if empty).
    #[inline]
    pub fn address(&self) -> Address {
        let w = self.cell.load(Ordering::Acquire);
        debug_assert!(w == 0 || entry_tag(w) == self.tag);
        entry_addr(w)
    }

    /// CAS the slot's address from `old` to `new`. Fails if a concurrent
    /// update changed it.
    #[inline]
    pub fn try_update(&self, old: Address, new: Address) -> bool {
        let old_word = make_entry(self.tag, old, false);
        let new_word = make_entry(self.tag, new, false);
        self.cell
            .compare_exchange(old_word, new_word, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// The latch-free hash index.
pub struct HashIndex {
    buckets: Box<[Bucket]>,
    mask: u64,
    overflow: Box<[Bucket]>,
    overflow_next: AtomicUsize,
}

impl HashIndex {
    /// Create an index with at least `bucket_hint` main buckets (rounded
    /// up to a power of two). Overflow capacity is proportional.
    pub fn new(bucket_hint: usize) -> Self {
        let n = bucket_hint.next_power_of_two().max(64);
        let buckets = (0..n).map(|_| Bucket::new()).collect::<Vec<_>>().into();
        // Generous: the index is normally sized at #keys/2 buckets so
        // chains are short, but undersized indexes (tests, skewed loads)
        // must keep working.
        let overflow_cap = (n * 4).max(256);
        let overflow = (0..overflow_cap)
            .map(|_| Bucket::new())
            .collect::<Vec<_>>()
            .into();
        HashIndex {
            buckets,
            mask: (n - 1) as u64,
            overflow,
            overflow_next: AtomicUsize::new(0),
        }
    }

    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Main-bucket index for a key hash — used to key the per-bucket
    /// latches of the fine-grained CPR variant.
    #[inline]
    pub fn bucket_index(&self, hash: u64) -> usize {
        (hash & self.mask) as usize
    }

    /// The part of `hash` that selects its slot: the bucket bits and the
    /// tag bits. Hashes with equal slot keys share one index entry (and
    /// one record chain); any other bits are ignored by the index.
    #[inline]
    pub fn slot_key(&self, hash: u64) -> u64 {
        hash & (self.mask | (TAG_MASK << TAG_SHIFT_IN_HASH))
    }

    fn bucket_chain(&self, hash: u64) -> impl Iterator<Item = &Bucket> {
        let first = &self.buckets[(hash & self.mask) as usize];
        BucketChain {
            index: self,
            cur: Some(first),
        }
    }

    /// Find the slot for `hash` if one exists (does not allocate).
    pub fn find(&self, hash: u64) -> Option<Slot<'_>> {
        let tag = tag_of(hash);
        for bucket in self.bucket_chain(hash) {
            for cell in &bucket.entries {
                let w = cell.load(Ordering::Acquire);
                if w != 0 && entry_tag(w) == tag && w & TENTATIVE_BIT == 0 {
                    return Some(Slot { cell, tag });
                }
            }
        }
        None
    }

    /// Find or create the slot for `hash` (latch-free two-phase insert:
    /// claim a free cell with the tentative bit, re-scan for a racing
    /// duplicate, then clear the bit).
    pub fn find_or_create(&self, hash: u64) -> Slot<'_> {
        let tag = tag_of(hash);
        'retry: loop {
            let mut free: Option<&AtomicU64> = None;
            let mut last_bucket: Option<&Bucket> = None;
            for bucket in self.bucket_chain(hash) {
                for cell in &bucket.entries {
                    let w = cell.load(Ordering::Acquire);
                    if w != 0 && entry_tag(w) == tag {
                        if w & TENTATIVE_BIT != 0 {
                            // A racing insert is mid-flight; wait for it.
                            std::hint::spin_loop();
                            continue 'retry;
                        }
                        return Slot { cell, tag };
                    }
                    if w == 0 && free.is_none() {
                        free = Some(cell);
                    }
                }
                last_bucket = Some(bucket);
            }

            let Some(cell) = free else {
                // Chain full: link a new overflow bucket and retry.
                self.extend_chain(last_bucket.expect("chain has >= 1 bucket"));
                continue 'retry;
            };

            // Phase 1: claim tentatively.
            let tentative = make_entry(tag, INVALID_ADDRESS, true);
            if cell
                .compare_exchange(0, tentative, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue 'retry;
            }
            // Phase 2: if another entry with our tag exists (tentative or
            // not), back off and retry — exactly one insert must win.
            let mut duplicate = false;
            for bucket in self.bucket_chain(hash) {
                for other in &bucket.entries {
                    if std::ptr::eq(other, cell) {
                        continue;
                    }
                    let w = other.load(Ordering::Acquire);
                    if w != 0 && entry_tag(w) == tag {
                        duplicate = true;
                    }
                }
            }
            if duplicate {
                cell.store(0, Ordering::Release);
                continue 'retry;
            }
            // Commit: clear the tentative bit.
            cell.store(make_entry(tag, INVALID_ADDRESS, false), Ordering::Release);
            return Slot { cell, tag };
        }
    }

    /// Link a fresh overflow bucket after `bucket` (no-op if a racer
    /// already did).
    fn extend_chain(&self, bucket: &Bucket) {
        if bucket.overflow.load(Ordering::Acquire) != 0 {
            return;
        }
        let idx = self.overflow_next.fetch_add(1, Ordering::AcqRel);
        assert!(
            idx < self.overflow.len(),
            "hash index overflow pool exhausted ({} buckets)",
            self.overflow.len()
        );
        if bucket
            .overflow
            .compare_exchange(0, idx as u64 + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // Lost the race; the pool slot idx is leaked (bounded by racer
            // count, and the pool is sized generously).
        }
    }

    /// Visit every non-empty, non-tentative (tag, address) entry.
    pub fn for_each(&self, mut f: impl FnMut(Address)) {
        let visit = |bucket: &Bucket, f: &mut dyn FnMut(Address)| {
            for cell in &bucket.entries {
                let w = cell.load(Ordering::Acquire);
                if w != 0 && w & TENTATIVE_BIT == 0 && entry_addr(w) != INVALID_ADDRESS {
                    f(entry_addr(w));
                }
            }
        };
        for b in self.buckets.iter() {
            visit(b, &mut f);
        }
        let used = self
            .overflow_next
            .load(Ordering::Acquire)
            .min(self.overflow.len());
        for b in self.overflow[..used].iter() {
            visit(b, &mut f);
        }
    }

    /// Fuzzy checkpoint: atomically read every word into a buffer
    /// (paper Sec. 6.3). Layout: `[n_buckets u64][overflow_used u64]
    /// [main words][overflow words]`.
    pub fn dump(&self) -> Vec<u8> {
        let used = self
            .overflow_next
            .load(Ordering::Acquire)
            .min(self.overflow.len());
        let mut out = Vec::with_capacity(16 + (self.buckets.len() + used) * 64);
        out.extend_from_slice(&(self.buckets.len() as u64).to_le_bytes());
        out.extend_from_slice(&(used as u64).to_le_bytes());
        let mut dump_bucket = |b: &Bucket| {
            for cell in &b.entries {
                // Clear tentative bits: a tentative entry is an
                // in-flight insert, logically absent.
                let w = cell.load(Ordering::Acquire);
                let w = if w & TENTATIVE_BIT != 0 { 0 } else { w };
                out.extend_from_slice(&w.to_le_bytes());
            }
            out.extend_from_slice(&b.overflow.load(Ordering::Acquire).to_le_bytes());
        };
        for b in self.buckets.iter() {
            dump_bucket(b);
        }
        for b in self.overflow[..used].iter() {
            dump_bucket(b);
        }
        out
    }

    /// Restore an index from a [`HashIndex::dump`] buffer.
    pub fn load(data: &[u8]) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        let err = |m: &str| Error::new(ErrorKind::InvalidData, m.to_string());
        if data.len() < 16 {
            return Err(err("index dump truncated"));
        }
        let n = u64::from_le_bytes(data[..8].try_into().unwrap()) as usize;
        let used = u64::from_le_bytes(data[8..16].try_into().unwrap()) as usize;
        if !n.is_power_of_two() {
            return Err(err("bucket count not a power of two"));
        }
        let expect = 16 + (n + used) * 64;
        if data.len() < expect {
            return Err(err("index dump too short"));
        }
        let index = HashIndex::new(n);
        if used > index.overflow.len() {
            return Err(err("overflow pool too large for layout"));
        }
        let mut off = 16;
        let mut load_bucket = |b: &Bucket| {
            for cell in &b.entries {
                let w = u64::from_le_bytes(data[off..off + 8].try_into().unwrap());
                cell.store(w, Ordering::Relaxed);
                off += 8;
            }
            b.overflow.store(
                u64::from_le_bytes(data[off..off + 8].try_into().unwrap()),
                Ordering::Relaxed,
            );
            off += 8;
        };
        for b in index.buckets.iter() {
            load_bucket(b);
        }
        for b in index.overflow[..used].iter() {
            load_bucket(b);
        }
        let _ = &mut load_bucket;
        index.overflow_next.store(used, Ordering::Release);
        Ok(index)
    }
}

struct BucketChain<'a> {
    index: &'a HashIndex,
    cur: Option<&'a Bucket>,
}

impl<'a> Iterator for BucketChain<'a> {
    type Item = &'a Bucket;
    fn next(&mut self) -> Option<&'a Bucket> {
        let cur = self.cur?;
        let next = cur.overflow.load(Ordering::Acquire);
        self.cur = if next == 0 {
            None
        } else {
            Some(&self.index.overflow[(next - 1) as usize])
        };
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn create_then_find() {
        let idx = HashIndex::new(64);
        let h = key_hash(42);
        assert!(idx.find(h).is_none());
        let slot = idx.find_or_create(h);
        assert_eq!(slot.address(), INVALID_ADDRESS);
        assert!(slot.try_update(INVALID_ADDRESS, 1024));
        assert_eq!(idx.find(h).unwrap().address(), 1024);
    }

    #[test]
    fn cas_fails_on_stale_old() {
        let idx = HashIndex::new(64);
        let slot = idx.find_or_create(key_hash(1));
        assert!(slot.try_update(0, 100));
        assert!(!slot.try_update(0, 200), "stale expected value");
        assert!(slot.try_update(100, 200));
        assert_eq!(slot.address(), 200);
    }

    #[test]
    fn many_keys_chain_into_overflow() {
        let idx = HashIndex::new(64); // 64 buckets * 7 entries = 448 slots
        let n = 2000u64;
        for k in 0..n {
            let slot = idx.find_or_create(key_hash(k));
            // Keys with colliding (bucket, tag) share a slot — CAS from
            // whatever is current, as real ops do.
            loop {
                let cur = slot.address();
                if slot.try_update(cur, 24 * (k + 1)) {
                    break;
                }
            }
        }
        for k in 0..n {
            let got = idx.find(key_hash(k)).map(|s| s.address());
            // Tag collisions within a bucket are possible (same 14-bit
            // tag): colliding keys share a slot, the last CAS wins the
            // chain head. What must hold: every key finds *a* slot.
            assert!(got.is_some(), "key {k} lost");
        }
    }

    #[test]
    fn concurrent_find_or_create_converges_to_one_slot() {
        let idx = Arc::new(HashIndex::new(8));
        let addrs: Vec<u64> = (0..8u64)
            .map(|t| {
                let idx = Arc::clone(&idx);
                std::thread::spawn(move || {
                    let slot = idx.find_or_create(key_hash(7));
                    // Everyone tries to install a distinct address.
                    slot.try_update(INVALID_ADDRESS, 24 * (t + 1));
                    slot.address()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        // Exactly one install can succeed from INVALID.
        let final_addr = idx.find(key_hash(7)).unwrap().address();
        assert!(final_addr != 0);
        for a in addrs {
            assert_eq!(a, final_addr, "all racers must converge on one slot");
        }
    }

    #[test]
    fn dump_load_roundtrip() {
        let idx = HashIndex::new(64);
        for k in 0..500u64 {
            let slot = idx.find_or_create(key_hash(k));
            slot.try_update(INVALID_ADDRESS, 24 * (k + 1));
        }
        let dump = idx.dump();
        let restored = HashIndex::load(&dump).unwrap();
        for k in 0..500u64 {
            let a = idx.find(key_hash(k)).unwrap().address();
            let b = restored.find(key_hash(k)).unwrap().address();
            assert_eq!(a, b, "key {k}");
        }
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(HashIndex::load(&[1, 2, 3]).is_err());
        let mut bad = vec![0u8; 1024];
        bad[0] = 3; // not a power of two
        assert!(HashIndex::load(&bad).is_err());
    }

    #[test]
    fn for_each_visits_installed_addresses() {
        let idx = HashIndex::new(64);
        for k in 0..100u64 {
            let slot = idx.find_or_create(key_hash(k));
            slot.try_update(INVALID_ADDRESS, 24 * (k + 1));
        }
        let mut n = 0;
        idx.for_each(|addr| {
            assert!(addr >= 24);
            n += 1;
        });
        // Tag collisions may merge keys; count is <= 100 but close.
        assert!(n > 90 && n <= 100, "visited {n}");
    }
}
