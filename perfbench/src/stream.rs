//! Seeded input generation, done entirely before timing starts.
//!
//! Keys are the images of dense indices `0..n` under a 64-bit bijective
//! mixer, so hot Zipf ranks land on unrelated hash buckets. Every value
//! and delta is drawn from one SplitMix64 stream seeded by `--seed`: the
//! same seed yields the same ops, byte for byte ([`KvStream::digest`],
//! [`TxnStream::digest`]).

use cpr_memdb::Access;

/// SplitMix64: small, fast and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_0fc0_ffee)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The SplitMix64 finalizer: a bijection on `u64`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The key stored for dense index `i`.
#[inline]
pub fn key_of(i: u64) -> u64 {
    mix64(i)
}

/// Zipf(θ) ranks over `[0, n)` by the method of Gray et al. ("Quickly
/// generating billion-record synthetic databases"), as YCSB uses it.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(
            n >= 2 && theta > 0.0 && theta < 1.0,
            "Zipf needs n ≥ 2, 0 < θ < 1"
        );
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        ((self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64).min(self.n - 1)
    }
}

/// How keys are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    Uniform,
    Zipf(f64),
}

/// Draws dense key indices in `[0, n)`.
enum IndexGen {
    Uniform(u64),
    Zipf(Zipf),
}

impl IndexGen {
    fn new(n: u64, dist: KeyDist) -> Self {
        match dist {
            KeyDist::Uniform => IndexGen::Uniform(n),
            KeyDist::Zipf(theta) => IndexGen::Zipf(Zipf::new(n, theta)),
        }
    }

    #[inline]
    fn next(&self, rng: &mut Rng) -> u64 {
        match self {
            IndexGen::Uniform(n) => rng.below(*n),
            IndexGen::Zipf(z) => z.sample(rng),
        }
    }
}

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

// ---- key-value streams ------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Upsert,
    /// Running sum: `new = old + arg` (wrapping).
    Rmw,
}

/// One key-value operation. For a read, `arg` is the value a serial
/// execution of the stream returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub key: u64,
    pub arg: u64,
    pub kind: Kind,
}

/// Shape of a key-value stream.
#[derive(Debug, Clone, Copy)]
pub struct KvSpec {
    pub keys: u64,
    pub ops: usize,
    pub read_pct: u64,
    /// The update kind: [`Kind::Upsert`] or [`Kind::Rmw`].
    pub update: Kind,
    pub dist: KeyDist,
}

/// A preload plus an op stream over it.
#[derive(Debug, Clone)]
pub struct KvStream {
    /// `(key, value)` for every index, in index order.
    pub preload: Vec<(u64, u64)>,
    pub ops: Vec<Op>,
}

/// Apply one update to a model value.
#[inline]
pub fn apply(kind: Kind, old: u64, arg: u64) -> u64 {
    match kind {
        Kind::Read => old,
        Kind::Upsert => arg,
        Kind::Rmw => old.wrapping_add(arg),
    }
}

impl KvStream {
    pub fn generate(spec: &KvSpec, seed: u64) -> KvStream {
        let mut rng = Rng::new(seed);
        let gen = IndexGen::new(spec.keys, spec.dist);
        let mut model: Vec<u64> = (0..spec.keys).map(|_| rng.next_u64()).collect();
        let preload = model
            .iter()
            .enumerate()
            .map(|(i, &v)| (key_of(i as u64), v))
            .collect();
        let mut ops = Vec::with_capacity(spec.ops);
        for _ in 0..spec.ops {
            let i = gen.next(&mut rng) as usize;
            let key = key_of(i as u64);
            let op = if rng.below(100) < spec.read_pct {
                Op {
                    key,
                    arg: model[i],
                    kind: Kind::Read,
                }
            } else {
                let arg = rng.next_u64();
                model[i] = apply(spec.update, model[i], arg);
                Op {
                    key,
                    arg,
                    kind: spec.update,
                }
            };
            ops.push(op);
        }
        KvStream { preload, ops }
    }

    /// Number of updates in the stream.
    pub fn updates(&self) -> usize {
        self.ops.iter().filter(|o| o.kind != Kind::Read).count()
    }

    /// FNV-1a over the preload and every op.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_BASIS;
        for &(k, v) in &self.preload {
            fnv(&mut h, k);
            fnv(&mut h, v);
        }
        for op in &self.ops {
            fnv(&mut h, op.key);
            fnv(&mut h, op.arg);
            fnv(&mut h, op.kind as u64);
        }
        h
    }
}

// ---- transaction streams ----------------------------------------------------

/// Accesses per transaction.
pub const TXN_KEYS: usize = 4;

/// Shape of a per-session transaction stream.
#[derive(Debug, Clone, Copy)]
pub struct TxnSpec {
    pub keys: u64,
    pub txns: usize,
    pub write_pct: u64,
    pub dist: KeyDist,
}

/// One session's transactions: `TXN_KEYS` distinct keys each, reads or
/// merges (`value += delta`). Deltas are random 64-bit words, so two
/// different sets of applied merges practically never sum alike.
#[derive(Debug, Clone)]
pub struct TxnStream {
    /// `TXN_KEYS` accesses per transaction, flattened.
    pub accesses: Vec<(u64, Access)>,
    /// Merge deltas, flattened in access order.
    pub deltas: Vec<u64>,
    /// `deltas[delta_at[t]..delta_at[t + 1]]` belong to transaction `t`.
    pub delta_at: Vec<u32>,
}

impl TxnStream {
    pub fn generate(spec: &TxnSpec, seed: u64) -> TxnStream {
        assert!(
            spec.keys as usize > 4 * TXN_KEYS,
            "too few keys for distinct accesses"
        );
        let mut rng = Rng::new(seed);
        let gen = IndexGen::new(spec.keys, spec.dist);
        let mut accesses = Vec::with_capacity(spec.txns * TXN_KEYS);
        let mut deltas = Vec::new();
        let mut delta_at = Vec::with_capacity(spec.txns + 1);
        delta_at.push(0);
        for _ in 0..spec.txns {
            let start = accesses.len();
            while accesses.len() - start < TXN_KEYS {
                let key = key_of(gen.next(&mut rng));
                if accesses[start..].iter().any(|&(k, _)| k == key) {
                    continue;
                }
                let access = if rng.below(100) < spec.write_pct {
                    deltas.push(rng.next_u64());
                    Access::Merge
                } else {
                    Access::Read
                };
                accesses.push((key, access));
            }
            delta_at.push(u32::try_from(deltas.len()).expect("delta count fits u32"));
        }
        TxnStream {
            accesses,
            deltas,
            delta_at,
        }
    }

    pub fn len(&self) -> usize {
        self.delta_at.len() - 1
    }

    pub fn accesses(&self, t: usize) -> &[(u64, Access)] {
        &self.accesses[t * TXN_KEYS..(t + 1) * TXN_KEYS]
    }

    pub fn deltas(&self, t: usize) -> &[u64] {
        &self.deltas[self.delta_at[t] as usize..self.delta_at[t + 1] as usize]
    }

    pub fn digest(&self) -> u64 {
        let mut h = FNV_BASIS;
        for &(k, a) in &self.accesses {
            fnv(&mut h, k);
            fnv(&mut h, a as u64);
        }
        for &d in &self.deltas {
            fnv(&mut h, d);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv_spec(dist: KeyDist) -> KvSpec {
        KvSpec {
            keys: 1000,
            ops: 20_000,
            read_pct: 50,
            update: Kind::Upsert,
            dist,
        }
    }

    #[test]
    fn same_seed_same_kv_digest() {
        for dist in [KeyDist::Uniform, KeyDist::Zipf(0.99)] {
            let a = KvStream::generate(&kv_spec(dist), 7).digest();
            let b = KvStream::generate(&kv_spec(dist), 7).digest();
            let c = KvStream::generate(&kv_spec(dist), 8).digest();
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn kv_digest_is_pinned() {
        // Guards against silent changes to the generator: a changed
        // stream changes every later measurement.
        let s = KvStream::generate(&kv_spec(KeyDist::Zipf(0.99)), 1);
        assert_eq!(s.digest(), 395_856_324_789_133_052);
    }

    #[test]
    fn same_seed_same_txn_digest() {
        let spec = TxnSpec {
            keys: 1000,
            txns: 5000,
            write_pct: 50,
            dist: KeyDist::Zipf(0.9),
        };
        let a = TxnStream::generate(&spec, 3);
        assert_eq!(a.digest(), TxnStream::generate(&spec, 3).digest());
        assert_ne!(a.digest(), TxnStream::generate(&spec, 4).digest());
        assert_eq!(a.len(), 5000);
        for t in 0..a.len() {
            let acc = a.accesses(t);
            let merges = acc.iter().filter(|&&(_, x)| x == Access::Merge).count();
            assert_eq!(merges, a.deltas(t).len());
            for i in 0..acc.len() {
                for j in 0..i {
                    assert_ne!(acc[i].0, acc[j].0, "keys in a txn are distinct");
                }
            }
        }
    }

    #[test]
    fn reads_carry_the_serial_answer() {
        let s = KvStream::generate(&kv_spec(KeyDist::Uniform), 11);
        let mut model: std::collections::HashMap<u64, u64> = s.preload.iter().copied().collect();
        for op in &s.ops {
            let v = model.get_mut(&op.key).expect("stream keys are preloaded");
            match op.kind {
                Kind::Read => assert_eq!(op.arg, *v),
                k => *v = apply(k, *v, op.arg),
            }
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(10_000, 0.99);
        let mut rng = Rng::new(1);
        let mut hot = 0;
        for _ in 0..100_000 {
            let r = z.sample(&mut rng);
            assert!(r < 10_000);
            if r < 10 {
                hot += 1;
            }
        }
        // The 10 hottest of 10k keys draw roughly a quarter of accesses.
        assert!(hot > 15_000 && hot < 40_000, "hot = {hot}");
    }
}
