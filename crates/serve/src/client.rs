//! Loopback BGP clients used by the selftest and the peer-scaling bench.
//!
//! Every client is one [`Conn`] — the same socket + FSM + out buffer type
//! the server's event loop uses (the handshake is symmetric, so
//! edge-vs-edge works) — and [`spawn`] drives all of them from a single
//! thread blocked in `poll`. After Established a client pushes its
//! assigned UPDATE frames — optionally paced — and then **stays
//! connected** until [`Clients::stop`]: disconnecting early would make
//! the daemon tear the slot down and flush the routes this client
//! announced, destroying Loc-RIB parity.
//!
//! Nothing blocks on a write, so no ordering rule between reads and
//! writes is needed to stay deadlock-free: the server fans each best-path
//! change to every established peer, and the driver keeps reading those
//! exports while its own frames wait for the socket to accept them.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xbgp_wire::{SessionConfig, SessionEvent};

use crate::conn::Conn;
use crate::poll::{self, PollFd, WakeRx, Waker};

/// What one client pushes after establishing.
pub struct ClientPlan {
    /// UPDATE frames carrying the initial table slice.
    pub initial: Vec<Vec<u8>>,
    /// Per-round UPDATE frames (the churn storm), sent in order.
    pub rounds: Vec<Vec<Vec<u8>>>,
    /// Wall-clock pause between rounds; `None` = blast as fast as TCP
    /// accepts.
    pub round_gap: Option<Duration>,
}

/// Outcome of one client's run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientOutcome {
    pub established: bool,
    pub frames_sent: u64,
    /// UPDATE frames received back from the server (its Adj-RIB-Out fan).
    pub frames_rx: u64,
    /// The session closed before `stop` was raised.
    pub closed_early: bool,
}

/// A running set of clients and the thread that drives them.
pub struct Clients {
    stop: Arc<AtomicBool>,
    wake: Arc<Waker>,
    driver: JoinHandle<io::Result<Vec<ClientOutcome>>>,
}

impl Clients {
    /// Send Cease on every session still open, close them, and return
    /// each client's outcome in plan order. Fails if a client never
    /// connected.
    pub fn stop(self) -> io::Result<Vec<ClientOutcome>> {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.wake();
        self.driver.join().expect("client driver thread")
    }
}

/// Connect one client per plan to `addr` and drive them all from one
/// thread. Client `k` presents ASN `asn` and router id `1000 + k`.
pub fn spawn(addr: SocketAddr, asn: u32, plans: Vec<ClientPlan>) -> io::Result<Clients> {
    let (wake, wake_rx) = poll::waker()?;
    let stop = Arc::new(AtomicBool::new(false));
    let driver = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("xbgp-clients".into())
            .spawn(move || drive(addr, asn, plans, &stop, &wake_rx))?
    };
    Ok(Clients { stop, wake, driver })
}

struct Client {
    conn: Conn,
    plan: ClientPlan,
    outcome: ClientOutcome,
    next_round: usize,
    /// When the next round may go out (set once Established).
    round_due: u64,
    /// The session is over; the socket is left alone.
    done: bool,
}

impl Client {
    /// When this client next has a round to queue, if it is only
    /// waiting on the clock.
    fn round_deadline(&self) -> Option<u64> {
        let waiting = self.outcome.established
            && self.conn.pending() == 0
            && self.next_round < self.plan.rounds.len();
        waiting.then_some(self.round_due)
    }

    /// One pass: read, fire timers, queue what the plan has due, write.
    fn step(&mut self, pfd: &PollFd, now: u64, events: &mut Vec<SessionEvent>) {
        let mut open = true;
        if pfd.readable() {
            open = matches!(self.conn.read(now, events), Ok(true));
        }
        if self.conn.next_deadline().is_some_and(|d| d <= now) {
            self.conn.tick(now, events);
        }
        for ev in events.drain(..) {
            match ev {
                SessionEvent::Established { .. } => {
                    self.outcome.established = true;
                    self.round_due = now;
                    for frame in std::mem::take(&mut self.plan.initial) {
                        self.send(frame);
                    }
                }
                SessionEvent::Update(_) => self.outcome.frames_rx += 1,
                SessionEvent::Closed(_) => open = false,
                SessionEvent::Send(_) => unreachable!("Conn queues its own sends"),
            }
        }
        open = open && self.conn.flush().is_ok();
        // A round goes out once the previous one is fully written.
        while open && self.round_deadline().is_some_and(|due| due <= now) {
            for frame in std::mem::take(&mut self.plan.rounds[self.next_round]) {
                self.send(frame);
            }
            self.next_round += 1;
            let gap = self.plan.round_gap.map_or(0, |g| g.as_nanos() as u64);
            self.round_due = now + gap;
            open = self.conn.flush().is_ok();
        }
        if !open {
            self.outcome.closed_early = true;
            self.done = true;
        }
    }

    fn send(&mut self, frame: Vec<u8>) {
        self.conn.queue(frame);
        self.outcome.frames_sent += 1;
    }
}

fn drive(
    addr: SocketAddr,
    asn: u32,
    plans: Vec<ClientPlan>,
    stop: &AtomicBool,
    wake: &WakeRx,
) -> io::Result<Vec<ClientOutcome>> {
    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut clients = Vec::new();
    for (k, plan) in plans.into_iter().enumerate() {
        let stream = connect_with_retry(addr, Duration::from_secs(10))?;
        let mut conn = Conn::new(
            stream,
            SessionConfig {
                local_asn: asn,
                router_id: 1000 + k as u32,
                hold_time_secs: 90,
                expect_asn: None,
            },
        )?;
        conn.start(now());
        conn.flush()?;
        clients.push(Client {
            conn,
            plan,
            outcome: ClientOutcome::default(),
            next_round: 0,
            round_due: 0,
            done: false,
        });
    }

    let mut fds = Vec::new();
    let mut events = Vec::new();
    loop {
        fds.clear();
        fds.push(wake.poll_fd());
        let mut deadline: Option<u64> = None;
        for c in &clients {
            if c.done {
                fds.push(PollFd::IGNORE);
                continue;
            }
            fds.push(c.conn.poll_fd(true));
            for d in [c.conn.next_deadline(), c.round_deadline()].into_iter().flatten() {
                deadline = Some(deadline.map_or(d, |x| x.min(d)));
            }
        }
        poll::wait(&mut fds, poll::timeout_ms(deadline, now()))?;
        if fds[0].readable() {
            wake.drain().rearm();
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let now = now();
        for (c, pfd) in clients.iter_mut().zip(&fds[1..]) {
            if !c.done {
                c.step(pfd, now, &mut events);
            }
        }
    }

    for c in &mut clients {
        if !c.done {
            c.conn.shutdown();
            let _ = c.conn.flush();
        }
    }
    Ok(clients.into_iter().map(|c| c.outcome).collect())
}

fn connect_with_retry(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}
