//! Readiness plumbing for the event loops: a minimal `poll(2)` binding
//! and the cross-thread waker.
//!
//! std already links libc, so `poll` is declared here directly rather
//! than pulled in from a crate: one `#[repr(C)]` struct, one `extern`
//! declaration, one safe wrapper.
//!
//! The [`Waker`] lets other threads (shard cores, `Server::shutdown`)
//! interrupt a loop blocked in `poll`. It writes one byte into a
//! `UnixStream` pair whose read end sits in the loop's poll set, and an
//! `AtomicBool` keeps repeated wakes from writing more than one byte per
//! loop pass.

use std::io::{self, ErrorKind, Read, Write};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

pub const POLLIN: c_short = 0x001;
pub const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: c_short,
    pub revents: c_short,
}

impl PollFd {
    /// An entry `poll` skips (negative fd): it never reports anything.
    pub const IGNORE: PollFd = PollFd { fd: -1, events: 0, revents: 0 };

    pub fn new(fd: &impl AsRawFd, events: c_short) -> PollFd {
        PollFd { fd: fd.as_raw_fd(), events, revents: 0 }
    }

    /// Readable, or in a state (hang-up, error) that a read reports.
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Block until a descriptor in `fds` is ready or `timeout_ms` passes
/// (`-1` = no timeout). Returns how many descriptors are ready; an
/// interrupted call returns 0 so the caller recomputes its deadlines.
pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: `fds` is a valid, exclusively borrowed array of `nfds`
    // `pollfd`s for the duration of the call, and `PollFd` has the C
    // layout.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    if n >= 0 {
        return Ok(n as usize);
    }
    let e = io::Error::last_os_error();
    if e.kind() == ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(e)
    }
}

/// Poll timeout in ms for a deadline on a ns clock: rounded up, so a
/// loop never wakes just before its deadline and spins; `-1` when there
/// is none.
pub fn timeout_ms(deadline_ns: Option<u64>, now_ns: u64) -> i32 {
    match deadline_ns {
        None => -1,
        Some(d) => (d.saturating_sub(now_ns).div_ceil(1_000_000)).min(i32::MAX as u64) as i32,
    }
}

/// The sending half: any thread may call [`Waker::wake`].
pub struct Waker {
    /// A wake byte is in flight that the loop has not yet acknowledged.
    pending: AtomicBool,
    tx: UnixStream,
}

/// The loop's half: its descriptor goes in the poll set.
pub struct WakeRx {
    rx: UnixStream,
    waker: Arc<Waker>,
}

/// Proof that the wake socket was drained; [`Rearm::rearm`] then clears
/// the pending flag.
///
/// Acknowledging a wakeup is two steps, and their order matters: drain
/// the socket, *then* clear the flag, then look at the work. Clearing
/// first loses wakeups: a producer that wakes between the clear and the
/// drain has its byte eaten by the drain, leaves the flag set, and every
/// later wake sees the flag and writes nothing. The token makes the
/// drain-first order the only one the API offers.
#[must_use = "the pending flag stays set until `rearm` is called"]
pub struct Rearm<'a>(&'a AtomicBool);

/// A connected waker pair.
pub fn waker() -> io::Result<(Arc<Waker>, WakeRx)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let waker = Arc::new(Waker { pending: AtomicBool::new(false), tx });
    Ok((Arc::clone(&waker), WakeRx { rx, waker }))
}

impl Waker {
    /// Make the loop's next (or current) `poll` return. Cheap when a
    /// wake is already pending: one atomic swap, no syscall.
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            // A full socket (WouldBlock) is already readable: nothing lost.
            let _ = (&self.tx).write(&[1]);
        }
    }
}

impl WakeRx {
    pub fn poll_fd(&self) -> PollFd {
        PollFd::new(&self.rx, POLLIN)
    }

    /// Step one of acknowledging a wakeup: empty the socket.
    pub fn drain(&self) -> Rearm<'_> {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
        Rearm(&self.waker.pending)
    }
}

impl Rearm<'_> {
    /// Step two: clear the pending flag. Any work published before a
    /// wake that found the flag set is visible to the caller from here.
    pub fn rearm(self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn readable(rx: &WakeRx) -> bool {
        let mut fds = [rx.poll_fd()];
        wait(&mut fds, 0).expect("poll") == 1 && fds[0].readable()
    }

    #[test]
    fn wake_makes_the_socket_readable_once_per_acknowledgement() {
        let (w, rx) = waker().unwrap();
        assert!(!readable(&rx));
        w.wake();
        w.wake();
        assert!(readable(&rx));
        rx.drain().rearm();
        assert!(!readable(&rx), "both wakes were folded into one byte");
        w.wake();
        assert!(readable(&rx));
    }

    #[test]
    fn wake_between_drain_and_rearm_is_not_lost() {
        // The interleaving that loses a wakeup under clear-then-drain:
        // the consumer's two steps with a producer wake between them,
        // then a second wake after the consumer is done.
        let (w, rx) = waker().unwrap();
        w.wake();
        let ack = rx.drain();
        w.wake();
        ack.rearm();
        w.wake();
        assert!(readable(&rx), "the second wake must leave a byte to poll");
    }

    #[test]
    fn timeout_rounds_up_and_saturates() {
        assert_eq!(timeout_ms(None, 5), -1);
        assert_eq!(timeout_ms(Some(5), 10), 0);
        assert_eq!(timeout_ms(Some(1_000_001), 0), 2);
        assert_eq!(timeout_ms(Some(u64::MAX), 0), i32::MAX);
    }
}
