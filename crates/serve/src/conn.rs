//! One BGP connection as both event loops see it: a nonblocking socket,
//! the sans-IO [`xbgp_wire::Session`] FSM, and the frames still waiting
//! to be written.
//!
//! The server loop ([`crate::server`]) and the selftest client driver
//! ([`crate::client`]) each own many of these from a single thread.
//! Nothing here blocks: reads stop at `WouldBlock` or a per-pass budget,
//! writes stop at `WouldBlock` and leave the rest queued, and the owner
//! asks `poll` for `POLLOUT` only while [`Conn::pending`] is non-zero.
//! Frames the FSM asks to send are queued here; every other
//! [`SessionEvent`] is handed to the owner.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;

use xbgp_wire::{Session, SessionConfig, SessionEvent, SessionState};

use crate::poll::{PollFd, POLLIN, POLLOUT};

/// Bytes read from one socket per loop pass, so one blasting peer cannot
/// starve the others (poll is level-triggered: the rest is read on the
/// next pass). This also bounds the batch one pass hands a core.
const READ_BUDGET: usize = 64 * 1024;
/// Frames gathered into one `writev`.
const WRITE_IOVECS: usize = 64;

pub struct Conn {
    stream: TcpStream,
    fsm: Session,
    /// Frames not yet fully written, oldest first.
    out: VecDeque<Vec<u8>>,
    /// Bytes of `out[0]` already written.
    head_written: usize,
    /// Unwritten bytes across `out`.
    pending: usize,
}

impl Conn {
    pub fn new(stream: TcpStream, cfg: SessionConfig) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            fsm: Session::new(cfg),
            out: VecDeque::new(),
            head_written: 0,
            pending: 0,
        })
    }

    /// When [`Conn::tick`] next has work (hold or KEEPALIVE), if ever.
    pub fn next_deadline(&self) -> Option<u64> {
        self.fsm.next_deadline()
    }

    /// Unwritten bytes.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// This connection's poll entry: `POLLIN` if `read`, `POLLOUT` while
    /// bytes are queued. Wanting neither leaves it out of the poll set
    /// ([`PollFd::IGNORE`]): poll reports a hang-up even on an empty
    /// event mask, and the owner would spin on it.
    pub fn poll_fd(&self, read: bool) -> PollFd {
        let mut events = 0;
        if read {
            events |= POLLIN;
        }
        if self.pending > 0 {
            events |= POLLOUT;
        }
        if events == 0 {
            return PollFd::IGNORE;
        }
        PollFd::new(&self.stream, events)
    }

    /// Queue one frame for writing.
    pub fn queue(&mut self, frame: Vec<u8>) {
        self.pending += frame.len();
        self.out.push_back(frame);
    }

    /// Drop every queued frame not yet started, keeping a partly written
    /// head so the byte stream stays framed for whatever is queued next.
    pub fn discard_unsent(&mut self) {
        let keep = usize::from(self.head_written > 0);
        self.out.truncate(keep);
        self.pending = self.out.front().map_or(0, |f| f.len() - self.head_written);
    }

    /// Begin the handshake: queue our OPEN.
    pub fn start(&mut self, now_ns: u64) {
        let evs = self.fsm.start(now_ns);
        self.absorb(evs, &mut Vec::new());
    }

    /// Run the FSM's timers: hold expiry and KEEPALIVEs.
    pub fn tick(&mut self, now_ns: u64, events: &mut Vec<SessionEvent>) {
        let evs = self.fsm.tick(now_ns);
        self.absorb(evs, events);
    }

    /// Administrative close: queue Cease.
    pub fn shutdown(&mut self) {
        let evs = self.fsm.shutdown();
        self.absorb(evs, &mut Vec::new());
    }

    /// Read what the socket has, up to `READ_BUDGET` bytes, and run it through
    /// the FSM. Returns `Ok(false)` once the peer has closed its side.
    pub fn read(&mut self, now_ns: u64, events: &mut Vec<SessionEvent>) -> io::Result<bool> {
        let mut buf = [0u8; 16 * 1024];
        let mut budget = READ_BUDGET;
        while budget > 0 {
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    budget = budget.saturating_sub(n);
                    let evs = self.fsm.on_bytes(now_ns, &buf[..n]);
                    self.absorb(evs, events);
                    if self.fsm.state() == SessionState::Closed {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Write queued frames until the socket would block or the queue is
    /// empty. An error means the transport is dead.
    pub fn flush(&mut self) -> io::Result<()> {
        while self.pending > 0 {
            let mut slices = [IoSlice::new(&[]); WRITE_IOVECS];
            let mut n = 0;
            for (i, frame) in self.out.iter().take(WRITE_IOVECS).enumerate() {
                let skip = if i == 0 { self.head_written } else { 0 };
                slices[i] = IoSlice::new(&frame[skip..]);
                n += 1;
            }
            match self.stream.write_vectored(&slices[..n]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(written) => self.consume(written),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Account for `written` bytes taken by the socket.
    fn consume(&mut self, mut written: usize) {
        self.pending -= written;
        while written > 0 {
            let head_left = self.out[0].len() - self.head_written;
            if written < head_left {
                self.head_written += written;
                return;
            }
            written -= head_left;
            self.out.pop_front();
            self.head_written = 0;
        }
    }

    /// Queue the FSM's `Send`s; hand every other event to the owner.
    fn absorb(&mut self, evs: Vec<SessionEvent>, events: &mut Vec<SessionEvent>) {
        for ev in evs {
            match ev {
                SessionEvent::Send(bytes) => self.queue(bytes),
                other => events.push(other),
            }
        }
    }
}
