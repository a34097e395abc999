//! Loopback server/client roundtrips against both engines: ops, scans,
//! checkpoint-driven commit points, and live (no-crash) reconnects.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use cpr_faster::{FasterBuilder, HlogConfig};
use cpr_memdb::{Durability, MemDb};
use cpr_net::wire::{checkpoint_variant, OpReply, WireOp};
use cpr_net::{NetClient, NetEngine, NetServer, NetSession, OpKind, OpStatus};

fn serve<E: NetEngine>(engine: Arc<E>) -> NetServer {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    NetServer::serve(engine, listener).unwrap()
}

fn faster_engine(dir: &std::path::Path) -> Arc<cpr_faster::FasterKv<u64>> {
    Arc::new(
        FasterBuilder::u64_sums(dir)
            .hlog(HlogConfig {
                page_bits: 12,
                memory_pages: 16,
                mutable_pages: 8,
                value_size: 8,
            })
            .refresh_every(8)
            .open()
            .unwrap(),
    )
}

fn memdb_engine(dir: &std::path::Path) -> Arc<MemDb<u64>> {
    Arc::new(
        MemDb::<u64>::builder(Durability::Cpr)
            .dir(dir)
            .open()
            .unwrap(),
    )
}

fn ops_scan_commit<E: NetEngine>(engine: Arc<E>, reads_see_absent: bool) {
    let server = serve(engine);
    let addr = server.addr();

    let mut c = NetClient::connect(addr, 7).unwrap();
    assert_eq!(c.resume_point().until_serial, 0);

    // Upserts + RMWs, pipelined.
    for k in 0..100u64 {
        c.upsert(k, k + 1).unwrap();
    }
    for k in 0..50u64 {
        c.rmw(k, 10).unwrap();
    }
    c.delete(99).unwrap();
    let results = c.sync().unwrap();
    assert_eq!(results.len(), 151);
    assert!(results.iter().all(|r| r.status == OpStatus::Ok));

    // Reads see the merged values.
    let s1 = c.read(0).unwrap();
    let s2 = c.read(60).unwrap();
    let s3 = c.read(12345).unwrap();
    let results = c.sync().unwrap();
    let get = |serial| {
        results
            .iter()
            .find(|r| r.serial == serial)
            .copied()
            .unwrap()
    };
    assert_eq!(get(s1).value, Some(11)); // 1 + 10
    assert_eq!(get(s2).value, Some(61));
    if reads_see_absent {
        assert_eq!(get(s3).status, OpStatus::NotFound);
    }
    assert_eq!(get(s3).value.unwrap_or(0), 0);

    // Scan over the wire: keys 0..99 minus the deleted 99.
    let scan = c.scan().unwrap();
    assert_eq!(scan.len(), 99);
    assert_eq!(scan[0], (0, 11));
    assert_eq!(scan[49], (49, 60));
    assert_eq!(scan[98], (98, 99));
    assert!(!scan.iter().any(|&(k, _)| k == 99));

    // A checkpoint pushes a commit point covering every acked serial.
    let serial_now = c.next_serial() - 1;
    assert!(c
        .request_checkpoint(checkpoint_variant::FOLD_OVER, false)
        .unwrap());
    let cp = c.wait_commit(1, Duration::from_secs(20)).unwrap();
    assert_eq!(cp.version, 1);
    assert_eq!(cp.until_serial, serial_now);
    assert!(cp.covers(serial_now));
    assert_eq!(c.uncommitted(), 0, "commit point prunes the replay buffer");
    c.goodbye().unwrap();
}

#[test]
fn faster_ops_scan_commit() {
    let dir = tempfile::tempdir().unwrap();
    ops_scan_commit(faster_engine(dir.path()), true);
}

#[test]
fn memdb_ops_scan_commit() {
    let dir = tempfile::tempdir().unwrap();
    ops_scan_commit(memdb_engine(dir.path()), false);
}

/// A live reconnect (server never crashed) resumes from the last
/// accepted serial: nothing is replayed, nothing applied twice.
fn live_reconnect_is_lossless<E: NetEngine>(engine: Arc<E>) {
    let server = serve(engine);
    let addr = server.addr();

    let mut c = NetClient::connect(addr, 11).unwrap();
    for _ in 0..20 {
        c.rmw(5, 1).unwrap();
    }
    c.sync().unwrap();
    let sent = c.next_serial() - 1;
    // Drop without Goodbye: the un-durable suffix survives client-side.
    let buffer = c.take_buffer();
    assert_eq!(buffer.len(), 20, "nothing committed yet: all retained");

    let mut c = NetClient::connect_with(addr, 11, buffer).unwrap();
    assert_eq!(
        c.resume_point().until_serial,
        sent,
        "live reattach resumes after the last accepted serial"
    );
    assert_eq!(c.replayed(), 0, "nothing lost, nothing replayed");
    let s = c.read(5).unwrap();
    let results = c.sync().unwrap();
    let r = results.iter().find(|r| r.serial == s).unwrap();
    assert_eq!(r.value, Some(20), "RMWs applied exactly once");
    c.goodbye().unwrap();
}

#[test]
fn faster_live_reconnect() {
    let dir = tempfile::tempdir().unwrap();
    live_reconnect_is_lossless(faster_engine(dir.path()));
}

#[test]
fn memdb_live_reconnect() {
    let dir = tempfile::tempdir().unwrap();
    live_reconnect_is_lossless(memdb_engine(dir.path()));
}

/// Wraps an engine so that dropping a session takes a while, as a FASTER
/// session does while it drains pending ops: a reconnect lands while the
/// old connection is still tearing its session down.
struct SlowSessionDrop<E>(Arc<E>);

struct SlowDropSession<S>(S);

impl<S> Drop for SlowDropSession<S> {
    fn drop(&mut self) {
        std::thread::sleep(Duration::from_millis(200));
    }
}

impl<S: NetSession> NetSession for SlowDropSession<S> {
    fn apply_batch(&mut self, ops: &[WireOp]) -> Vec<OpReply> {
        self.0.apply_batch(ops)
    }

    fn refresh(&mut self) {
        self.0.refresh()
    }

    fn serial(&self) -> u64 {
        self.0.serial()
    }
}

impl<E: NetEngine> NetEngine for SlowSessionDrop<E> {
    type Session = SlowDropSession<E::Session>;

    fn continue_session(&self, guid: u64) -> (Self::Session, u64) {
        let (session, serial) = self.0.continue_session(guid);
        (SlowDropSession(session), serial)
    }

    fn request_checkpoint(&self, variant: u8, log_only: bool) -> bool {
        self.0.request_checkpoint(variant, log_only)
    }

    fn on_commit(&self, cb: cpr_net::engine::CommitObserver) {
        self.0.on_commit(cb)
    }

    fn committed_version(&self) -> u64 {
        self.0.committed_version()
    }

    fn scan(&self) -> std::io::Result<Vec<(u64, u64)>> {
        self.0.scan()
    }
}

#[test]
fn faster_live_reconnect_during_slow_session_drop() {
    let dir = tempfile::tempdir().unwrap();
    live_reconnect_is_lossless(Arc::new(SlowSessionDrop(faster_engine(dir.path()))));
}

#[test]
fn memdb_live_reconnect_during_slow_session_drop() {
    let dir = tempfile::tempdir().unwrap();
    live_reconnect_is_lossless(Arc::new(SlowSessionDrop(memdb_engine(dir.path()))));
}

#[test]
fn duplicate_guid_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let server = serve(memdb_engine(dir.path()));
    let _c1 = NetClient::connect(server.addr(), 3).unwrap();
    let err = match NetClient::connect(server.addr(), 3) {
        Ok(_) => panic!("second connection for guid 3 must be refused"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("already connected"), "{err}");
}

#[test]
fn concurrent_clients_share_the_engine() {
    let dir = tempfile::tempdir().unwrap();
    let server = serve(memdb_engine(dir.path()));
    let addr = server.addr();
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = NetClient::connect(addr, 100 + t).unwrap();
                for _ in 0..200 {
                    c.rmw(77, 1).unwrap();
                }
                c.sync().unwrap();
                c.goodbye().unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mut c = NetClient::connect(addr, 999).unwrap();
    let s = c.read(77).unwrap();
    let results = c.sync().unwrap();
    assert_eq!(
        results.iter().find(|r| r.serial == s).unwrap().value,
        Some(800),
        "all four sessions' RMWs applied"
    );
    assert_eq!(results[0].kind, OpKind::Read);
}
