//! The crash-recovery check: a shadow model of every session, indexed by
//! serial, and a comparison of the recovered state against exactly the
//! committed prefix of each session (paper Definition 1).

use std::collections::HashMap;

use cpr_memdb::Access;

use crate::stream::{apply, Kind, KvStream, TxnStream};

/// State a key-value session reaches after its first `serials` ops (on
/// top of the preload). Serial `n` is op `n - 1`.
pub fn kv_prefix(stream: &KvStream, serials: u64) -> HashMap<u64, u64> {
    let mut model: HashMap<u64, u64> = stream.preload.iter().copied().collect();
    for op in &stream.ops[..serials as usize] {
        if op.kind != Kind::Read {
            let v = model.get_mut(&op.key).expect("stream keys are preloaded");
            *v = apply(op.kind, *v, op.arg);
        }
    }
    model
}

/// One transactional session's history: the stream and, per committed
/// serial, the stream index of the transaction that got it (a
/// transaction that gave up gets no serial).
pub struct TxnHistory<'a> {
    pub stream: &'a TxnStream,
    pub committed: &'a [u32],
}

/// State after each session's first `points[s]` committed transactions.
/// Merges commute, so the order in which sessions interleaved does not
/// matter; only which transactions are in.
pub fn txn_prefix(
    preload: &[(u64, u64)],
    sessions: &[TxnHistory<'_>],
    points: &[u64],
) -> HashMap<u64, u64> {
    let mut model: HashMap<u64, u64> = preload.iter().copied().collect();
    for (h, &cp) in sessions.iter().zip(points) {
        for &t in &h.committed[..cp as usize] {
            let mut deltas = h.stream.deltas(t as usize).iter();
            for &(key, access) in h.stream.accesses(t as usize) {
                if access == Access::Merge {
                    let v = model.get_mut(&key).expect("txn keys are preloaded");
                    *v = v.wrapping_add(*deltas.next().expect("one delta per merge"));
                }
            }
        }
    }
    model
}

/// How a recovered state differs from the expected one.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StateDiff {
    /// Keys present on both sides with different values.
    pub wrong: u64,
    /// Expected keys absent from the recovered state.
    pub missing: u64,
    /// Recovered keys the model does not have.
    pub extra: u64,
    /// The first difference found, for the error message.
    pub first: Option<String>,
}

impl StateDiff {
    pub fn is_clean(&self) -> bool {
        self.wrong == 0 && self.missing == 0 && self.extra == 0
    }
}

/// Compare a recovered `(key, value)` set with the model.
pub fn diff_state(
    expected: &HashMap<u64, u64>,
    actual: impl IntoIterator<Item = (u64, u64)>,
) -> StateDiff {
    let mut d = StateDiff::default();
    let mut seen = 0u64;
    for (k, v) in actual {
        match expected.get(&k) {
            Some(&e) if e == v => seen += 1,
            Some(&e) => {
                seen += 1;
                d.wrong += 1;
                d.first.get_or_insert_with(|| {
                    format!("key {k:#x}: recovered {v:#x}, expected {e:#x}")
                });
            }
            None => {
                d.extra += 1;
                d.first
                    .get_or_insert_with(|| format!("key {k:#x}: unexpected"));
            }
        }
    }
    d.missing = (expected.len() as u64).saturating_sub(seen);
    if d.missing > 0 && d.first.is_none() {
        d.first = Some(format!("{} expected keys missing", d.missing));
    }
    d
}

/// Outcome of checking one session after recovery.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    /// Ops reported durable before the crash but beyond the recovered
    /// commit point — counted as failed ops.
    pub lost_acked: u64,
    pub errors: Vec<String>,
}

impl Verdict {
    /// Compare the commit point the session recovered at with the last
    /// one it was told. Every commit the benchmark requested has
    /// completed before the crash, so they must be equal.
    pub fn point(&mut self, what: &str, reported: u64, recovered: u64) {
        if recovered < reported {
            self.lost_acked += reported - recovered;
        }
        if recovered != reported {
            self.errors.push(format!(
                "{what}: recovered commit point {recovered}, last reported {reported}"
            ));
        }
    }

    pub fn state(&mut self, what: &str, diff: &StateDiff) {
        if !diff.is_clean() {
            self.errors.push(format!(
                "{what}: {} wrong, {} missing, {} unexpected keys; first: {}",
                diff.wrong,
                diff.missing,
                diff.extra,
                diff.first.as_deref().unwrap_or("-")
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{KeyDist, KvSpec, TxnSpec};

    fn sorted(m: &HashMap<u64, u64>) -> Vec<(u64, u64)> {
        let mut v: Vec<_> = m.iter().map(|(&k, &v)| (k, v)).collect();
        v.sort_unstable();
        v
    }

    /// A point `cp` such that serials `cp` and `cp + 1` are both updates.
    fn point_between_updates(s: &KvStream) -> u64 {
        let i = (100..s.ops.len())
            .find(|&i| s.ops[i - 1].kind != Kind::Read && s.ops[i].kind != Kind::Read)
            .expect("two adjacent updates");
        i as u64
    }

    #[test]
    fn exact_prefix_passes() {
        let s = KvStream::generate(
            &KvSpec {
                keys: 50,
                ops: 2000,
                read_pct: 50,
                update: Kind::Rmw,
                dist: KeyDist::Uniform,
            },
            5,
        );
        let cp = point_between_updates(&s);
        let expected = kv_prefix(&s, cp);
        let d = diff_state(&expected, sorted(&expected));
        assert!(d.is_clean(), "{d:?}");
    }

    #[test]
    fn rejects_a_missing_committed_op() {
        for update in [Kind::Upsert, Kind::Rmw] {
            let s = KvStream::generate(
                &KvSpec {
                    keys: 50,
                    ops: 2000,
                    read_pct: 50,
                    update,
                    dist: KeyDist::Zipf(0.9),
                },
                6,
            );
            let cp = point_between_updates(&s);
            let d = diff_state(&kv_prefix(&s, cp), sorted(&kv_prefix(&s, cp - 1)));
            assert_eq!(d.wrong, 1, "{update:?}: {d:?}");
            assert!(!d.is_clean());
        }
    }

    #[test]
    fn rejects_an_op_past_the_commit_point() {
        for update in [Kind::Upsert, Kind::Rmw] {
            let s = KvStream::generate(
                &KvSpec {
                    keys: 50,
                    ops: 2000,
                    read_pct: 50,
                    update,
                    dist: KeyDist::Uniform,
                },
                7,
            );
            let cp = point_between_updates(&s);
            let d = diff_state(&kv_prefix(&s, cp), sorted(&kv_prefix(&s, cp + 1)));
            assert_eq!(d.wrong, 1, "{update:?}: {d:?}");
        }
    }

    #[test]
    fn txn_check_rejects_missing_and_extra_transactions() {
        let spec = TxnSpec {
            keys: 200,
            txns: 500,
            write_pct: 50,
            dist: KeyDist::Zipf(0.9),
        };
        let (a, b) = (TxnStream::generate(&spec, 1), TxnStream::generate(&spec, 2));
        let preload: Vec<(u64, u64)> = (0..200).map(|i| (crate::stream::key_of(i), i)).collect();
        // Session b gave up on transaction 3: serials skip it.
        let all: Vec<u32> = (0..500).collect();
        let b_order: Vec<u32> = (0..500).filter(|&t| t != 3).collect();
        let hist = [
            TxnHistory {
                stream: &a,
                committed: &all,
            },
            TxnHistory {
                stream: &b,
                committed: &b_order,
            },
        ];
        // Points right after a transaction that merges something.
        let writes = |s: &TxnStream, order: &[u32], from: usize| {
            (from..order.len())
                .find(|&j| {
                    !s.deltas(order[j - 1] as usize).is_empty()
                        && !s.deltas(order[j] as usize).is_empty()
                })
                .expect("adjacent writing txns") as u64
        };
        let (pa, pb) = (writes(&a, &all, 200), writes(&b, &b_order, 300));
        let expected = txn_prefix(&preload, &hist, &[pa, pb]);
        assert!(diff_state(&expected, sorted(&expected)).is_clean());
        let missing = txn_prefix(&preload, &hist, &[pa, pb - 1]);
        assert!(!diff_state(&expected, sorted(&missing)).is_clean());
        let extra = txn_prefix(&preload, &hist, &[pa + 1, pb]);
        assert!(!diff_state(&expected, sorted(&extra)).is_clean());
    }

    #[test]
    fn diff_counts_missing_and_unexpected_keys() {
        let expected: HashMap<u64, u64> = [(1, 10), (2, 20)].into_iter().collect();
        let d = diff_state(&expected, [(1, 10), (3, 30)]);
        assert_eq!((d.wrong, d.missing, d.extra), (0, 1, 1));
    }

    #[test]
    fn verdict_counts_lost_acknowledged_ops() {
        let mut v = Verdict::default();
        v.point("s", 100, 100);
        assert!(v.errors.is_empty());
        v.point("s", 100, 90);
        assert_eq!(v.lost_acked, 10);
        assert!(!v.errors.is_empty());
        let mut w = Verdict::default();
        w.point("s", 100, 110);
        assert_eq!(w.lost_acked, 0);
        assert!(!w.errors.is_empty());
    }
}
