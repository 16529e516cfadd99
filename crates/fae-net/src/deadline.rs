//! The one blessed home of blocking socket I/O: every read, write and
//! connect in `fae-net` goes through these helpers, and every one of
//! them carries an explicit deadline. The `net-deadline` lint rule
//! (fae-lint) flags blocking socket calls anywhere else in this crate,
//! which is what keeps "a hung peer stalls the run forever" structurally
//! impossible rather than a code-review hope.
//!
//! The coordinator and the worker hold each connection as a [`Link`],
//! which keeps the buffers and the deadlines between frames;
//! [`send_frame`] / [`recv_frame`] are the same two paths for a caller
//! with a bare stream and nothing to keep.
//!
//! A deadline miss mid-frame leaves the stream desynchronized (part of
//! the frame was consumed); callers treat any receive error on a stream
//! they will keep using as grounds for reconnect or, on the coordinator,
//! for the suspicion/death path — never for resuming parses.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::wire::{Frame, NetError, MAX_FRAME};

fn dur(ms: u64) -> Duration {
    Duration::from_millis(ms.max(1))
}

/// Maps raw socket errors onto the protocol's failure vocabulary.
fn from_io(e: std::io::Error) -> NetError {
    match e.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => NetError::Timeout("socket deadline"),
        ErrorKind::UnexpectedEof
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe
        | ErrorKind::NotConnected => NetError::Disconnected,
        _ => NetError::Io(e),
    }
}

/// Connects to `addr` within `timeout_ms`, trying each resolved address
/// in turn. Nagle is disabled: the protocol is small request/reply
/// frames where latency dominates.
pub fn dial(addr: &str, timeout_ms: u64) -> Result<TcpStream, NetError> {
    let addrs = addr.to_socket_addrs().map_err(from_io)?;
    let mut last: Option<NetError> = None;
    for a in addrs {
        match TcpStream::connect_timeout(&a, dur(timeout_ms)) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                return Ok(s);
            }
            Err(e) => last = Some(from_io(e)),
        }
    }
    Err(last.unwrap_or_else(|| NetError::Protocol(format!("{addr} resolved to no addresses"))))
}

/// Sends one encoded frame under a write deadline.
pub fn send_frame(stream: &mut TcpStream, frame: &Frame, timeout_ms: u64) -> Result<(), NetError> {
    stream.set_write_timeout(Some(dur(timeout_ms))).map_err(from_io)?;
    write_frame_bytes(stream, &frame.encode())
}

/// Receives one frame under a read deadline: length prefix, body, CRC
/// check, decode.
pub fn recv_frame(stream: &mut TcpStream, timeout_ms: u64) -> Result<Frame, NetError> {
    stream.set_read_timeout(Some(dur(timeout_ms))).map_err(from_io)?;
    read_frame(stream, &mut Vec::new())
}

/// One `write_all` per frame. The caller has set the write deadline.
fn write_frame_bytes(stream: &mut TcpStream, bytes: &[u8]) -> Result<(), NetError> {
    // fae-lint: allow(net-deadline, reason = "every caller sets the write deadline first; this is the blessed send path")
    stream.write_all(bytes).map_err(from_io)
}

/// What a receive buffer may hold before any body byte has arrived.
const RX_COMMIT: usize = 64 << 10;

/// Reads one frame into `rx` (cleared first) and decodes it. The caller
/// has set the read deadline. The length prefix is only a claim: beyond
/// `RX_COMMIT` the buffer grows as body bytes actually arrive, so a peer
/// cannot make this side commit `MAX_FRAME` with four bytes.
fn read_frame(stream: &mut TcpStream, rx: &mut Vec<u8>) -> Result<Frame, NetError> {
    let mut lenb = [0u8; 4];
    // fae-lint: allow(net-deadline, reason = "every caller sets the read deadline first; this is the blessed receive path")
    stream.read_exact(&mut lenb).map_err(from_io)?;
    let len = u32::from_le_bytes(lenb) as usize;
    if len > MAX_FRAME {
        return Err(NetError::Corrupt(format!("length prefix {len} exceeds frame cap")));
    }
    rx.clear();
    rx.reserve(len.min(RX_COMMIT));
    // fae-lint: allow(net-deadline, reason = "bounded by the length prefix and the read deadline set by every caller")
    let got = Read::take(&mut *stream, len as u64).read_to_end(rx).map_err(from_io)?;
    if got < len {
        return Err(NetError::Disconnected);
    }
    Frame::decode(rx)
}

/// Releases a buffer that one large frame (a `Welcome`, a `HotBagSync`)
/// grew past what steady-state traffic needs, rather than keeping it for
/// the connection's life.
fn release_if_large(buf: &mut Vec<u8>) {
    const KEEP_BYTES: usize = 4 << 20;
    if buf.capacity() > KEEP_BYTES {
        *buf = Vec::new();
    }
}

/// One connection's transport state: the stream, one transmit and one
/// receive buffer reused across frames, and the deadlines last set on the
/// socket — so steady-state traffic costs one `write_all` per frame sent
/// and no allocation or `setsockopt` per frame either way.
pub struct Link {
    stream: TcpStream,
    tx: Vec<u8>,
    rx: Vec<u8>,
    read_ms: Option<u64>,
    write_ms: Option<u64>,
}

impl Link {
    /// Wraps a connected stream.
    pub fn new(stream: TcpStream) -> Self {
        Self { stream, tx: Vec::new(), rx: Vec::new(), read_ms: None, write_ms: None }
    }

    /// Lets `encode` write one frame into the transmit buffer without
    /// sending it. [`Link::flush`] sends it, and sends the identical bytes
    /// again on a retry or an injected duplicate.
    pub(crate) fn stage(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        release_if_large(&mut self.tx);
        encode(&mut self.tx);
    }

    /// Writes the staged frame under a write deadline.
    pub(crate) fn flush(&mut self, timeout_ms: u64) -> Result<(), NetError> {
        if self.write_ms != Some(timeout_ms) {
            self.stream.set_write_timeout(Some(dur(timeout_ms))).map_err(from_io)?;
            self.write_ms = Some(timeout_ms);
        }
        write_frame_bytes(&mut self.stream, &self.tx)
    }

    /// Sends one frame under a write deadline.
    pub fn send(&mut self, frame: &Frame, timeout_ms: u64) -> Result<(), NetError> {
        self.stage(|tx| frame.encode_into(tx));
        self.flush(timeout_ms)
    }

    /// Receives one frame under a read deadline.
    pub fn recv(&mut self, timeout_ms: u64) -> Result<Frame, NetError> {
        if self.read_ms != Some(timeout_ms) {
            self.stream.set_read_timeout(Some(dur(timeout_ms))).map_err(from_io)?;
            self.read_ms = Some(timeout_ms);
        }
        let frame = read_frame(&mut self.stream, &mut self.rx);
        release_if_large(&mut self.rx);
        frame
    }

    /// Severs the connection in both directions.
    pub fn shutdown(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Message;
    use std::net::TcpListener;

    #[test]
    fn frames_cross_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let sender = std::thread::spawn(move || {
            let mut s = dial(&addr, 1_000).expect("connect");
            let f = Frame { node: 5, epoch: 1, seq: 2, step: 3, msg: Message::Heartbeat };
            send_frame(&mut s, &f, 1_000).expect("send");
            // Keep the socket open until the peer has read.
            let _ = recv_frame(&mut s, 2_000);
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let f = recv_frame(&mut conn, 2_000).expect("recv");
        assert_eq!((f.node, f.epoch, f.seq, f.step), (5, 1, 2, 3));
        assert_eq!(f.msg.kind_name(), "heartbeat");
        let reply = Frame { node: 5, epoch: 1, seq: 2, step: 3, msg: Message::HeartbeatAck };
        send_frame(&mut conn, &reply, 1_000).expect("reply");
        sender.join().expect("sender thread");
    }

    #[test]
    fn a_link_reuses_its_buffers_across_frames_of_any_size() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let sizes = [0usize, 40_000, 3, 0, 9_000];
        let frame = |seq: usize, n: usize| Frame {
            node: 1,
            epoch: 1,
            seq: seq as u64,
            step: 0,
            msg: Message::Telemetry { from: n as u64, events_jsonl: "x".repeat(n) },
        };
        let echo = std::thread::spawn(move || {
            let mut link = Link::new(dial(&addr, 1_000).expect("connect"));
            while let Ok(f) = link.recv(2_000) {
                link.send(&f, 1_000).expect("echo");
            }
        });
        let (conn, _) = listener.accept().expect("accept");
        let mut link = Link::new(conn);
        for (seq, &n) in sizes.iter().enumerate() {
            link.send(&frame(seq, n), 1_000).expect("send");
            let back = link.recv(2_000).expect("recv");
            assert_eq!(back.encode(), frame(seq, n).encode(), "frame {seq} of {n} bytes");
        }
        link.shutdown();
        echo.join().expect("echo thread");
    }

    #[test]
    fn a_length_prefix_commits_no_memory_before_the_body_arrives() {
        // 200 MiB is under MAX_FRAME, so the cap check passes; the peer
        // then sends a few bytes and hangs up.
        let prefix = (200u32 << 20).to_le_bytes();
        for through_link in [true, false] {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr").to_string();
            let peer = std::thread::spawn(move || {
                let mut s = dial(&addr, 1_000).expect("connect");
                s.set_write_timeout(Some(dur(1_000))).expect("deadline");
                s.write_all(&prefix).expect("prefix");
                s.write_all(b"FAEN").expect("a few body bytes");
            });
            let (mut conn, _) = listener.accept().expect("accept");
            peer.join().expect("peer thread");
            if through_link {
                let mut link = Link::new(conn);
                assert!(matches!(link.recv(2_000), Err(NetError::Disconnected)));
                assert!(link.rx.capacity() <= 2 * RX_COMMIT, "rx grew to {}", link.rx.capacity());
            } else {
                assert!(matches!(recv_frame(&mut conn, 2_000), Err(NetError::Disconnected)));
            }
        }
    }

    #[test]
    fn an_oversized_length_prefix_is_rejected_before_any_read() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let mut client = dial(&addr, 1_000).expect("connect");
        let (mut server, _) = listener.accept().expect("accept");
        client.set_write_timeout(Some(dur(1_000))).expect("deadline");
        client.write_all(&(MAX_FRAME as u32 + 1).to_le_bytes()).expect("prefix");
        assert!(matches!(recv_frame(&mut server, 2_000), Err(NetError::Corrupt(_))));
    }

    #[test]
    fn read_deadline_fires_as_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let mut client = dial(&addr, 1_000).expect("connect");
        let (_server, _) = listener.accept().expect("accept");
        // Server never writes: the read must miss its deadline, not hang.
        match recv_frame(&mut client, 50) {
            Err(NetError::Timeout(_)) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn peer_close_surfaces_as_disconnected() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let mut client = dial(&addr, 1_000).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        drop(server);
        match recv_frame(&mut client, 1_000) {
            Err(NetError::Disconnected) => {}
            other => panic!("expected disconnect, got {other:?}"),
        }
    }
}
