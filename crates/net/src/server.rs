//! Thread-per-connection server mapping TCP connections onto engine
//! sessions.
//!
//! Each accepted connection gets two threads: a **reader** that owns the
//! engine session (sessions are thread-affine) and a **writer** that
//! drains a channel of outbound frames. Commit-point pushes originate on
//! the engine's checkpoint thread; routing them through the writer
//! channel means a slow client socket can never block a checkpoint.
//!
//! The reader polls its socket with a short timeout so an idle
//! connection still refreshes its session — an unrefreshed session would
//! stall the CPR state machine for everyone (the paper's cooperative
//! epoch protocol), and refreshing from the read loop keeps the
//! no-dedicated-threads spirit: the connection thread *is* the session
//! thread.
//!
//! Per-connection protocol state: serials are validated here, not in the
//! engine. A batch may overlap the session's resume point after a
//! reconnect — ops at or below the current serial were already applied
//! by a previous incarnation and are acked `Skipped` without touching
//! the engine (idempotent replay); the remainder must continue the
//! serial sequence contiguously.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cpr_core::CommitPoint;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::engine::{NetEngine, NetSession};
use crate::wire::{error_code, Frame, FrameReader, OpReply, OpStatus, WireOp};

/// How often an idle reader wakes to refresh its session.
const POLL: Duration = Duration::from_millis(5);
/// How long a fresh connection may take to say Hello.
const HELLO_DEADLINE: Duration = Duration::from_secs(10);
/// Scan results are streamed in chunks of this many entries.
const SCAN_CHUNK: usize = 64 * 1024;

/// A registered connection: its outbound channel, and a handle on its
/// socket so a reconnecting guid can tell whether the old peer is gone.
struct Conn {
    tx: Sender<Frame>,
    peer: TcpStream,
}

type Conns = Arc<Mutex<HashMap<u64, Conn>>>;

/// A running server; dropping it (or calling [`NetServer::shutdown`])
/// stops the accept loop and disconnects every client.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Serve `engine` on `listener` until shutdown. The engine is shared:
    /// callers keep their own handle (e.g. to inject faults or inspect
    /// state) while the server runs.
    pub fn serve<E: NetEngine>(engine: Arc<E>, listener: TcpListener) -> io::Result<NetServer> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Conns = Arc::new(Mutex::new(HashMap::new()));
        let workers = Arc::new(Mutex::new(Vec::new()));

        // Push a commit point to every connected session named in the
        // manifest. Runs on the checkpoint thread; sends are unbounded
        // channel writes, never socket writes.
        {
            let conns = Arc::clone(&conns);
            engine.on_commit(Box::new(move |version, sessions| {
                let conns = conns.lock();
                for s in sessions {
                    if let Some(conn) = conns.get(&s.guid) {
                        let _ = conn.tx.send(Frame::CommitPoint(CommitPoint::prefix(
                            version,
                            s.cpr_point,
                        )));
                    }
                }
            }));
        }

        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let workers = Arc::clone(&workers);
            std::thread::Builder::new()
                .name("cpr-net-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let engine = Arc::clone(&engine);
                        let conns = Arc::clone(&conns);
                        let stop = Arc::clone(&stop);
                        let handle = std::thread::Builder::new()
                            .name("cpr-net-conn".into())
                            .spawn(move || {
                                let _ = Connection::run(engine, stream, conns, stop);
                            })
                            .expect("spawn connection thread");
                        workers.lock().push(handle);
                    }
                })?
        };

        Ok(NetServer {
            addr,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, disconnect clients, join all threads.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self.workers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct Connection<E: NetEngine> {
    session: E::Session,
    guid: u64,
    tx: Sender<Frame>,
}

impl<E: NetEngine> Connection<E> {
    fn run(
        engine: Arc<E>,
        stream: TcpStream,
        conns: Conns,
        stop: Arc<AtomicBool>,
    ) -> io::Result<()> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POLL))?;
        let mut reader = FrameReader::new();
        let mut stream = stream;

        // Handshake: the first frame must be Hello.
        let deadline = Instant::now() + HELLO_DEADLINE;
        let guid = loop {
            if stop.load(Ordering::Acquire) || Instant::now() > deadline {
                return Ok(());
            }
            match reader.poll(&mut stream)? {
                Some(Frame::Hello { guid }) => break guid,
                Some(_) => {
                    send_now(
                        &mut stream,
                        &Frame::Error {
                            code: error_code::PROTOCOL,
                            msg: "expected Hello".into(),
                        },
                    );
                    return Ok(());
                }
                None => {}
            }
        };

        // One connection per guid: a session is single-threaded state. A
        // client that closed its socket and reconnected at once may find
        // its old connection still registered: that connection notices
        // EOF only at its next poll. Wait for it to release the guid; a
        // duplicate whose peer is still open is refused.
        let (tx, rx) = unbounded::<Frame>();
        loop {
            let old_peer = {
                let mut map = conns.lock();
                match map.get(&guid) {
                    None => {
                        let conn = Conn {
                            tx: tx.clone(),
                            peer: stream.try_clone()?,
                        };
                        map.insert(guid, conn);
                        break;
                    }
                    Some(old) => old.peer.try_clone()?,
                }
            };
            if !peer_closed(&old_peer) || Instant::now() > deadline {
                send_now(
                    &mut stream,
                    &Frame::Error {
                        code: error_code::GUID_IN_USE,
                        msg: format!("guid {guid} already connected"),
                    },
                );
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(1));
        }

        // Writer thread: owns the write half, drains the channel.
        let writer = {
            let stream = stream.try_clone()?;
            std::thread::Builder::new()
                .name("cpr-net-writer".into())
                .spawn(move || writer_loop(stream, rx))
                .expect("spawn writer thread")
        };

        let (session, resume_from) = engine.continue_session(guid);
        let mut conn = Connection {
            session,
            guid,
            tx,
        };
        let _ = conn.tx.send(Frame::HelloAck {
            guid,
            resume: CommitPoint::prefix(engine.committed_version(), resume_from),
        });

        let result = conn.serve_loop(&engine, &mut stream, &mut reader, &stop);

        // Drop the session before releasing the guid: the session's drop
        // records its last accepted serial for a live reattach, so a
        // reconnect must not find the guid free before that. Removing the
        // conns entry then drops the last sender; the writer flushes
        // what's queued and exits.
        drop(conn);
        conns.lock().remove(&guid);
        let _ = writer.join();
        result
    }

    fn serve_loop(
        &mut self,
        engine: &Arc<E>,
        stream: &mut TcpStream,
        reader: &mut FrameReader,
        stop: &AtomicBool,
    ) -> io::Result<()> {
        loop {
            if stop.load(Ordering::Acquire) {
                return Ok(());
            }
            let frame = match reader.poll(stream) {
                Ok(Some(f)) => f,
                Ok(None) => {
                    // Idle: keep the CPR state machine moving.
                    self.session.refresh();
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => return Ok(()),
                Err(e) => return Err(e),
            };
            match frame {
                Frame::OpBatch { ops } => {
                    if !self.handle_batch(ops)? {
                        return Ok(());
                    }
                }
                Frame::CheckpointReq { variant, log_only } => {
                    let started = engine.request_checkpoint(variant, log_only);
                    let _ = self.tx.send(Frame::CheckpointAck { started });
                }
                Frame::ScanReq => match engine.scan() {
                    Ok(entries) => {
                        let mut chunks = entries.chunks(SCAN_CHUNK).peekable();
                        if chunks.peek().is_none() {
                            let _ = self.tx.send(Frame::ScanChunk {
                                last: true,
                                entries: Vec::new(),
                            });
                        }
                        while let Some(chunk) = chunks.next() {
                            let _ = self.tx.send(Frame::ScanChunk {
                                last: chunks.peek().is_none(),
                                entries: chunk.to_vec(),
                            });
                        }
                    }
                    Err(e) => {
                        let _ = self.tx.send(Frame::Error {
                            code: error_code::IO,
                            msg: format!("scan failed: {e}"),
                        });
                    }
                },
                Frame::Goodbye => return Ok(()),
                other => {
                    let _ = self.tx.send(Frame::Error {
                        code: error_code::PROTOCOL,
                        msg: format!("unexpected frame {other:?}"),
                    });
                    return Ok(());
                }
            }
        }
    }

    /// Apply one batch; returns `false` if the connection must close
    /// (protocol violation or session eviction).
    fn handle_batch(&mut self, ops: Vec<WireOp>) -> io::Result<bool> {
        // Split the replayed-overlap prefix (already applied before a
        // reconnect) from ops to apply, preserving order for the ack.
        let current = self.session.serial();
        let mut replies: Vec<OpReply> = Vec::with_capacity(ops.len());
        let mut to_apply: Vec<WireOp> = Vec::with_capacity(ops.len());
        let mut expected = current;
        for op in &ops {
            if op.serial <= current {
                replies.push(OpReply {
                    serial: op.serial,
                    status: OpStatus::Skipped,
                    value: None,
                });
                continue;
            }
            expected += 1;
            if op.serial != expected {
                let _ = self.tx.send(Frame::Error {
                    code: error_code::PROTOCOL,
                    msg: format!(
                        "serial gap: got {}, expected {} (guid {})",
                        op.serial, expected, self.guid
                    ),
                });
                return Ok(false);
            }
            to_apply.push(*op);
        }
        let applied = self.session.apply_batch(&to_apply);
        let evicted = applied.iter().any(|r| r.status == OpStatus::Evicted);
        replies.extend(applied);
        // Keep acks in the order ops arrived (skips were all leading,
        // since serials in a batch are ascending).
        replies.sort_by_key(|r| r.serial);
        let _ = self.tx.send(Frame::BatchAck { replies });
        if evicted {
            // The engine rolled this session back to its CPR point; the
            // client must reconnect and replay from there.
            let _ = self.tx.send(Frame::Error {
                code: error_code::EVICTED,
                msg: format!("session {} evicted during checkpoint", self.guid),
            });
            return Ok(false);
        }
        Ok(true)
    }
}

fn writer_loop(mut stream: TcpStream, rx: Receiver<Frame>) {
    while let Ok(frame) = rx.recv() {
        if stream.write_all(&frame.encode()).is_err() {
            return;
        }
    }
    let _ = stream.flush();
}

/// Whether the peer of a registered connection has closed, or may have:
/// a peek sees EOF, an error, or bytes its reader has yet to consume
/// (such as a final Goodbye). Blocks at most the socket's read timeout
/// (`POLL`). A live, quiet peer times the peek out.
fn peer_closed(peer: &TcpStream) -> bool {
    let mut byte = [0u8; 1];
    match peer.peek(&mut byte) {
        Ok(_) => true,
        Err(e) => !matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
        ),
    }
}

fn send_now(stream: &mut TcpStream, frame: &Frame) {
    let _ = stream.write_all(&frame.encode());
}
