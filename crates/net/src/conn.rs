//! One connection's **bounded** outbound backlog, and the graceful close
//! of a set of sockets.
//!
//! * **Outbound.** Frames are encoded straight onto one byte buffer
//!   (`Outbound::queue`) and offered to the socket in one `write` per
//!   wake-up (`Outbound::flush`); what the socket did not take stays
//!   queued until it reports room. That backlog is the backpressure
//!   boundary: bounded in frames and bytes ([`QueueCaps`]), never
//!   blocking, and when full a *policy decision* surfaced to the caller
//!   (`Full`) — the serving core's slow-peer policy disconnects rather
//!   than buffer without bound or stall every other connection. The
//!   backlog is plain data: the serving core keeps one per connection
//!   and hands `flush` the write to perform.
//! * **Inbound** needs no cap of its own: the loop reads into one
//!   buffer, at most `READ_BUDGET` bytes per connection per turn, and
//!   decodes in place, so user space holds that buffer plus one partial
//!   frame per connection; the rest waits in the kernel, where TCP flow
//!   control pushes back on the peer.
//! * **Graceful close** (`drain_all`) writes every backlog out under
//!   one deadline for the whole set — a peer that stopped *reading* must
//!   not hang shutdown — then shuts the sockets down.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::sys::{self, PollFd, POLLOUT};

/// How long a graceful close waits for the backlogs to reach their
/// sockets before giving up and severing (see `drain_all`).
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// The loop's one read buffer is this long.
pub(crate) const READ_BUF_LEN: usize = 64 * 1024;

/// Most bytes read from one connection in one turn of the loop, so a
/// flooding peer cannot starve the others; the rest waits in the kernel.
pub(crate) const READ_BUDGET: usize = 4 * READ_BUF_LEN;

/// Identifies one live connection within a server.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

/// Caps on one connection's outbound backlog: frames queued but not yet
/// wholly written to the socket.
#[derive(Clone, Copy, Debug)]
pub struct QueueCaps {
    /// Maximum queued outbound frames.
    pub max_frames: usize,
    /// Maximum queued outbound bytes (sum of frame lengths).
    pub max_bytes: usize,
}

impl Default for QueueCaps {
    fn default() -> Self {
        QueueCaps {
            max_frames: 1024,
            max_bytes: 8 * 1024 * 1024,
        }
    }
}

/// A frame was refused: the backlog is at one of its caps, the peer is
/// not keeping up. Nothing of the frame stays queued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Full;

/// What [`Outbound::queue`] accepted, for the caller's counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Queued {
    /// Backlog depth in frames *after* the push.
    pub(crate) depth: usize,
    /// Length of the frame.
    pub(crate) bytes: usize,
}

/// One connection's outbound backlog.
#[derive(Debug, Default)]
pub(crate) struct Outbound {
    caps: QueueCaps,
    /// Encoded frames; `out[sent..]` is the backlog.
    out: Vec<u8>,
    sent: usize,
    /// Unwritten bytes of each backlog frame, oldest first (they sum to
    /// the backlog), so the frame cap counts frames, not writes.
    frames: VecDeque<usize>,
    /// Frames were queued, or the socket reported room (the loop sets
    /// it then), since the last `write`: the next flush pass should
    /// try one.
    pub(crate) dirty: bool,
}

impl Outbound {
    pub(crate) fn new(caps: QueueCaps) -> Self {
        Outbound {
            caps,
            ..Outbound::default()
        }
    }

    /// Queues the one complete frame `encode` appends to the buffer it
    /// is given. Never blocks, never writes.
    pub(crate) fn queue(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<Queued, Full> {
        if self.frames.len() >= self.caps.max_frames {
            return Err(Full);
        }
        let start = self.out.len();
        encode(&mut self.out);
        let len = self.out.len() - start;
        if start - self.sent + len > self.caps.max_bytes {
            self.out.truncate(start);
            return Err(Full);
        }
        self.frames.push_back(len);
        self.dirty = true;
        Ok(Queued {
            depth: self.frames.len(),
            bytes: len,
        })
    }

    /// True while queued bytes are waiting for the socket.
    pub(crate) fn has_backlog(&self) -> bool {
        self.sent < self.out.len()
    }

    /// Offers the backlog to `write` — one `write` of the socket — and
    /// keeps what it did not take for the next `POLLOUT`.
    ///
    /// # Errors
    ///
    /// The socket's own: the peer is gone.
    pub(crate) fn flush(
        &mut self,
        write: impl FnOnce(&[u8]) -> io::Result<usize>,
    ) -> io::Result<()> {
        self.dirty = false;
        if !self.has_backlog() {
            return Ok(());
        }
        let mut written = match write(&self.out[self.sent..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            // No room (yet): the backlog waits for the next `POLLOUT`.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(()),
            Err(e) => return Err(e),
        };
        self.sent += written;
        while let Some(head) = self.frames.front_mut() {
            if *head > written {
                *head -= written;
                break;
            }
            written -= *head;
            self.frames.pop_front();
        }
        if self.sent * 2 >= self.out.len() {
            // At least as much written as is left to move; and a burst's
            // capacity is not kept once its bytes are gone.
            self.out.drain(..self.sent);
            self.sent = 0;
            self.out.shrink_to(READ_BUF_LEN);
        }
        Ok(())
    }

    /// Drops the backlog unwritten (error and slow-peer teardown).
    pub(crate) fn discard(&mut self) {
        self.out.clear();
        self.sent = 0;
        self.frames.clear();
        self.dirty = false;
    }
}

/// Graceful close of a set of connections: writes every backlog to its
/// socket, waiting for room as needed, until all are empty or `within`
/// has passed — one deadline for the whole set, so peers that stopped
/// reading cost it once, not once each. Then drops what is left and
/// shuts every socket down. Returns how many backlogs reached their
/// socket in full.
pub(crate) fn drain_all(conns: &mut [(TcpStream, Outbound)], within: Duration) -> usize {
    let deadline = Instant::now() + within;
    let mut lost = 0;
    let mut fds = Vec::new();
    loop {
        fds.clear();
        for (stream, out) in conns.iter_mut() {
            if out.has_backlog() && out.flush(|bytes| stream.write(bytes)).is_err() {
                out.discard();
                lost += 1;
            }
            if out.has_backlog() {
                fds.push(PollFd::new(stream.as_raw_fd(), POLLOUT));
            }
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if fds.is_empty() || left.is_zero() || sys::wait(&mut fds, Some(left)).is_err() {
            break;
        }
    }
    for (stream, out) in conns.iter_mut() {
        if out.has_backlog() {
            out.discard();
            lost += 1;
        }
        let _ = stream.shutdown(Shutdown::Both);
    }
    conns.len() - lost
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    fn frame(len: usize) -> impl FnOnce(&mut Vec<u8>) {
        move |out| out.extend(std::iter::repeat_n(0u8, len))
    }

    /// A write that takes everything into `wire`.
    fn onto(wire: &mut Vec<u8>) -> impl FnOnce(&[u8]) -> io::Result<usize> + '_ {
        |bytes| {
            wire.extend_from_slice(bytes);
            Ok(bytes.len())
        }
    }

    #[test]
    fn queue_enforces_both_caps_and_refuses_whole_frames() {
        let mut wire = Vec::new();
        let mut out = Outbound::new(QueueCaps {
            max_frames: 2,
            max_bytes: 10,
        });
        assert_eq!(out.queue(frame(4)).map(|q| q.depth), Ok(1));
        assert_eq!(out.queue(frame(4)).map(|q| q.depth), Ok(2));
        assert_eq!(out.queue(frame(1)), Err(Full), "frame cap");
        out.flush(onto(&mut wire)).unwrap();
        assert_eq!(out.frames.len(), 0, "one write took both frames");
        assert_eq!(out.queue(frame(9)), Ok(Queued { depth: 1, bytes: 9 }));
        assert_eq!(out.queue(frame(2)), Err(Full), "byte cap");
        assert_eq!(out.frames.len(), 1);
        assert_eq!(
            out.queue(frame(1)).map(|q| q.depth),
            Ok(2),
            "the refused frame left no bytes"
        );
        out.flush(onto(&mut wire)).unwrap();
        assert!(!out.has_backlog());
        assert_eq!(
            wire.len(),
            4 + 4 + 9 + 1,
            "refused frames never reach the wire"
        );
    }

    /// A short write keeps the rest, counted in whole frames: a frame
    /// leaves the frame cap only once its last byte is written.
    #[test]
    fn a_partial_write_keeps_the_rest_for_the_next() {
        let mut out = Outbound::new(QueueCaps {
            max_frames: 2,
            max_bytes: 100,
        });
        out.queue(|o| o.extend([1; 4])).unwrap();
        out.queue(|o| o.extend([2; 4])).unwrap();
        out.flush(|_| Ok(5)).unwrap();
        assert_eq!(out.frames, [3], "the first frame and a byte of the second");
        out.flush(|_| Err(io::ErrorKind::WouldBlock.into()))
            .unwrap();
        let mut wire = Vec::new();
        out.flush(onto(&mut wire)).unwrap();
        assert_eq!(wire, [2; 3]);
        assert!(out.flush(|_| Ok(0)).is_ok(), "nothing left to write");
        out.queue(|o| o.push(3)).unwrap();
        assert!(out.flush(|_| Ok(0)).is_err(), "a zero write is a lost peer");
    }

    #[test]
    fn discard_drops_the_backlog() {
        let mut out = Outbound::new(QueueCaps::default());
        out.queue(|o| o.extend([1, 2, 3])).unwrap();
        out.discard();
        assert_eq!(out.frames.len(), 0);
        out.flush(|_| panic!("a discarded backlog is never written"))
            .unwrap();
    }

    /// A connected pair: our nonblocking side and the peer's socket.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        (server_side, client)
    }

    /// Graceful close flushes every queued frame onto the socket before
    /// shutting it down — the serving path's drop-flush guarantee.
    #[test]
    fn graceful_close_drains_queued_frames_to_the_peer() {
        let (stream, mut client) = pair();
        let mut out = Outbound::new(QueueCaps::default());
        for i in 0..50u8 {
            out.queue(|o| o.extend([i; 100])).unwrap();
        }
        assert_eq!(drain_all(&mut [(stream, out)], DRAIN_DEADLINE), 1);

        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        assert_eq!(got.len(), 50 * 100, "every queued byte arrived");
    }

    /// A peer that stops *reading* cannot hang graceful close: once the
    /// drain deadline passes, the backlog is discarded and the close
    /// returns instead of waiting for room that never comes.
    #[test]
    fn graceful_close_gives_up_on_a_peer_that_stops_reading() {
        let (stream, client) = pair();
        let mut out = Outbound::new(QueueCaps::default());
        // Queue far more than loopback socket buffers absorb; the
        // client never reads a byte, so the drain wedges part-way.
        let mut queued = 0usize;
        while queued < 8 * 1024 * 1024 && out.queue(frame(64 * 1024)).is_ok() {
            queued += 64 * 1024;
        }
        let started = Instant::now();
        let mut conns = [(stream, out)];
        assert_eq!(drain_all(&mut conns, Duration::from_millis(300)), 0);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "bounded drain must not hang on an unread backlog"
        );
        assert!(
            !conns[0].1.has_backlog(),
            "what could not be written is dropped"
        );
        drop(client);
    }
}
