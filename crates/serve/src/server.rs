//! The TCP runtime: one event loop thread and one thread per shard core.
//!
//! Layering (one box per thread):
//!
//! ```text
//!   event loop — poll(2) over the listener, every session socket and a
//!     │          wake socket; per session a Conn: socket +
//!     │          xbgp_wire::Session FSM (hold timer, NOTIFY-and-close) +
//!     │          out buffer
//!     │
//!     │ CoreMsg over a bounded sync_channel (wire frames)
//!     ▼
//!   shard core(s) — daemon on a NodeDriver
//!     │
//!     │ per-session outbox (UPDATE frames out) + one wake byte
//!     ▼
//!   event loop appends to the session's out buffer, writes nonblocking
//! ```
//!
//! The loop blocks in `poll` until a socket is ready, a core wakes it, or
//! the earliest FSM deadline (hold expiry or KEEPALIVE) is due; there is
//! no fixed tick. Validated frames go to the cores on the pass that read
//! them, and exports are written on the pass the core's wake arrives.
//!
//! Memory is bounded both ways. A core holds at most
//! [`CORE_QUEUE`] frame batches; beyond that the loop parks the session's
//! batch and stops reading that socket until the core catches up, so TCP
//! pushes back on the peer. A session whose unwritten exports pass
//! [`OUT_CAP`] is closed with Cease / Out of Resources (6, 8).
//!
//! The daemon is never touched from more than one thread; the loop speaks
//! to it exclusively in wire frames. With `shards > 1` each UPDATE is cut
//! along prefix-hash boundaries by [`crate::split::split_update`] and
//! each piece goes to the core that owns those prefixes.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use xbgp_driver::{DaemonCounters, Dut};
use xbgp_obs::{Histogram, HistogramSnapshot, Snapshot};
use xbgp_wire::{Ipv4Prefix, Message, NotificationMsg, SessionConfig, SessionEvent};

use crate::conn::Conn;
use crate::daemon_core::{self, CoreConfig, CoreMsg, Query};
use crate::poll::{self, PollFd, WakeRx, Waker, POLLIN};
use crate::split::split_update;

pub use crate::daemon_core::CORE_QUEUE;

/// Unwritten bytes a session may hold for a peer that does not read its
/// exports. Past this the session is closed with Cease / Out of
/// Resources (6, 8) rather than buffering without limit.
pub const OUT_CAP: usize = 4 << 20;
/// How long a closed session may take to write its last frames (its
/// NOTIFICATION) before the socket is dropped.
const LINGER_NS: u64 = 2_000_000_000;

/// Runtime configuration for one [`Server`].
#[derive(Clone)]
pub struct ServeConfig {
    pub dut: Dut,
    /// Our ASN (the daemon's).
    pub asn: u32,
    pub router_id: u32,
    /// ASN every peer must present in its OPEN.
    pub peer_asn: u32,
    /// Maximum concurrent sessions; later connections are dropped.
    pub max_sessions: usize,
    /// Shard cores. 1 = single daemon owning the whole table.
    pub shards: usize,
    /// Hold time we offer peers (real wall-clock liveness at the edge).
    pub hold_time_secs: u16,
    /// Enable daemon timing instrumentation.
    pub metrics: bool,
    /// Loopback port to listen on; 0 = ephemeral.
    pub bind_port: u16,
}

impl ServeConfig {
    pub fn new(dut: Dut, max_sessions: usize) -> ServeConfig {
        ServeConfig {
            dut,
            asn: 65002,
            router_id: 2,
            peer_asn: 65001,
            max_sessions,
            shards: 1,
            hold_time_secs: 90,
            metrics: false,
            bind_port: 0,
        }
    }
}

/// What the loop, the cores' callers and the [`Server`] handle share.
struct Shared {
    cfg: ServeConfig,
    cores: Vec<SyncSender<CoreMsg>>,
    stop: AtomicBool,
    latency: Arc<Histogram>,
    rejected: AtomicU64,
    /// Most frame batches any core had queued at once.
    queue_high_water: AtomicUsize,
}

/// A running many-peer runtime: owns the event loop thread (listener and
/// every session) and one core thread per shard.
pub struct Server {
    shared: Arc<Shared>,
    wake: Arc<Waker>,
    addr: SocketAddr,
    event_loop: Option<JoinHandle<()>>,
    cores: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind a loopback listener and bring the full runtime up.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.bind_port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake, wake_rx) = poll::waker()?;

        let epoch = Instant::now();
        let latency = Arc::new(Histogram::new());
        let mut cores = Vec::new();
        let mut queued = Vec::new();
        let mut core_handles = Vec::new();
        for shard in 0..cfg.shards.max(1) {
            let core_cfg = CoreConfig {
                dut: cfg.dut,
                asn: cfg.asn,
                // Distinct router ids keep shard daemons distinguishable
                // in traces; parity checks never compare router ids.
                router_id: cfg.router_id + shard as u32,
                peer_asn: cfg.peer_asn,
                slots: cfg.max_sessions,
                metrics: cfg.metrics,
            };
            let (queue, handle) =
                daemon_core::spawn(core_cfg, Arc::clone(&latency), epoch, Arc::clone(&wake));
            cores.push(queue.tx);
            queued.push(queue.queued);
            core_handles.push(handle);
        }

        let shared = Arc::new(Shared {
            cfg,
            cores,
            stop: AtomicBool::new(false),
            latency,
            rejected: AtomicU64::new(0),
            queue_high_water: AtomicUsize::new(0),
        });
        let event_loop = EventLoop {
            free_slots: (0..shared.cfg.max_sessions).rev().collect(),
            shared: Arc::clone(&shared),
            listener,
            wake: wake_rx,
            queued,
            sessions: Vec::new(),
            epoch,
        };
        let event_loop = std::thread::Builder::new()
            .name("xbgp-loop".into())
            .spawn(move || event_loop.run())
            .expect("spawn event loop thread");

        Ok(Server {
            shared,
            wake,
            addr,
            event_loop: Some(event_loop),
            cores: core_handles,
        })
    }

    /// Address peers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sum of daemon counters across shard cores.
    pub fn counters(&self) -> DaemonCounters {
        let mut total = DaemonCounters::default();
        for core in &self.shared.cores {
            let (tx, rx) = mpsc::channel();
            let _ = core.send(CoreMsg::Query(Query::Counters(tx)));
            if let Ok(c) = rx.recv() {
                total.updates_rx += c.updates_rx;
                total.prefixes_rx += c.prefixes_rx;
                total.withdrawals_rx += c.withdrawals_rx;
                total.updates_tx += c.updates_tx;
                total.prefixes_tx += c.prefixes_tx;
                total.withdrawals_tx += c.withdrawals_tx;
                total.sessions_established += c.sessions_established;
            }
        }
        total
    }

    /// Merged metrics snapshot across shard cores.
    pub fn snapshot(&self) -> Snapshot {
        let mut merged = Snapshot::new();
        for core in &self.shared.cores {
            let (tx, rx) = mpsc::channel();
            let _ = core.send(CoreMsg::Query(Query::Snapshot(tx)));
            if let Ok(s) = rx.recv() {
                let _ = merged.merge(s);
            }
        }
        merged
    }

    /// Combined Loc-RIB across shards, sorted by prefix. Shards own
    /// disjoint prefix sets, so concatenation is exact.
    pub fn loc_rib(&self) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        self.rib_query(Query::LocRib)
    }

    /// Combined oracle Loc-RIB across shards, sorted by prefix.
    pub fn oracle_loc_rib(&self) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        self.rib_query(Query::OracleLocRib)
    }

    fn rib_query(
        &self,
        make: impl Fn(Sender<Vec<(Ipv4Prefix, Vec<u8>)>>) -> Query,
    ) -> Vec<(Ipv4Prefix, Vec<u8>)> {
        let mut all = Vec::new();
        for core in &self.shared.cores {
            let (tx, rx) = mpsc::channel();
            let _ = core.send(CoreMsg::Query(make(tx)));
            if let Ok(mut rib) = rx.recv() {
                all.append(&mut rib);
            }
        }
        all.sort_by_key(|(p, _)| *p);
        all
    }

    /// Sessions the *daemons* consider established (max across shards —
    /// every shard sees the same session slots).
    pub fn established_sessions(&self) -> usize {
        let mut most = 0;
        for core in &self.shared.cores {
            let (tx, rx) = mpsc::channel();
            let _ = core.send(CoreMsg::Query(Query::EstablishedSlots(tx)));
            if let Ok(n) = rx.recv() {
                most = most.max(n);
            }
        }
        most
    }

    /// Connections dropped because all session slots were taken.
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Most frame batches any core had queued at once; never above
    /// [`CORE_QUEUE`].
    pub fn core_queue_high_water(&self) -> usize {
        self.shared.queue_high_water.load(Ordering::Relaxed)
    }

    /// Socket-to-RIB propagation latency histogram (ns).
    pub fn latency(&self) -> HistogramSnapshot {
        self.shared.latency.snapshot()
    }

    /// Close every session (Cease), stop the cores and join every runtime
    /// thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(event_loop) = self.event_loop.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        self.wake.wake();
        // The loop sends every session's SessionDown before it exits, so
        // the cores see them ahead of Shutdown.
        let _ = event_loop.join();
        for core in &self.shared.cores {
            let _ = core.send(CoreMsg::Shutdown);
        }
        for h in self.cores.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One TCP peer as the loop holds it.
struct Sess {
    conn: Conn,
    slot: usize,
    /// Where the cores put this session's exports; set at Established.
    outbox: Option<Receiver<Vec<u8>>>,
    /// A batch (at most one message per core) that a full core queue
    /// refused. The socket is not read until it has been handed over.
    parked: Vec<(usize, CoreMsg)>,
    /// Set once the session is over: the socket stays open, write-only,
    /// until its out buffer empties or this deadline passes.
    linger_until: Option<u64>,
}

impl Sess {
    /// Done lingering: the last frames are written, or the time is up.
    fn finished(&self, now: u64) -> bool {
        self.linger_until.is_some_and(|t| self.conn.pending() == 0 || now >= t)
    }
}

struct EventLoop {
    shared: Arc<Shared>,
    listener: TcpListener,
    wake: WakeRx,
    /// Per core: frame batches queued and not yet taken.
    queued: Vec<Arc<AtomicUsize>>,
    sessions: Vec<Sess>,
    free_slots: Vec<usize>,
    epoch: Instant,
}

impl EventLoop {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn run(mut self) {
        let mut fds = Vec::new();
        let mut events = Vec::new();
        loop {
            fds.clear();
            fds.push(self.wake.poll_fd());
            fds.push(PollFd::new(&self.listener, POLLIN));
            let mut deadline: Option<u64> = None;
            for s in &self.sessions {
                fds.push(s.conn.poll_fd(s.linger_until.is_none() && s.parked.is_empty()));
                let next = s.linger_until.or_else(|| s.conn.next_deadline());
                deadline = match (deadline, next) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            if poll::wait(&mut fds, poll::timeout_ms(deadline, self.now())).is_err() {
                break;
            }

            if fds[0].readable() {
                // Drain, then rearm, then look at the work: see `Rearm`.
                self.wake.drain().rearm();
                if self.shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                self.resume_parked();
                self.collect_exports();
            }
            let now = self.now();
            for (i, pfd) in fds[2..].iter().enumerate() {
                self.service(i, pfd, now, &mut events);
            }
            let mut i = 0;
            while i < self.sessions.len() {
                if self.sessions[i].finished(now) {
                    let gone = self.sessions.swap_remove(i);
                    self.free_slots.push(gone.slot);
                } else {
                    i += 1;
                }
            }
            if fds[1].readable() {
                self.accept(now);
            }
        }
        self.close_all();
    }

    /// One session's share of a loop pass: read and run the FSM, fire
    /// due timers, hand validated UPDATEs to the cores, write.
    fn service(&mut self, i: usize, pfd: &PollFd, now: u64, events: &mut Vec<SessionEvent>) {
        let sess = &mut self.sessions[i];
        if sess.linger_until.is_none() {
            let mut open = true;
            // A parked session is not read (it may still see a hang-up).
            if pfd.readable() && sess.parked.is_empty() {
                open = matches!(sess.conn.read(now, events), Ok(true));
            }
            if sess.conn.next_deadline().is_some_and(|d| d <= now) {
                sess.conn.tick(now, events);
            }
            let mut frames = Vec::new();
            for ev in events.drain(..) {
                match ev {
                    SessionEvent::Established { .. } => session_up(sess, &self.shared),
                    SessionEvent::Update(frame) => frames.push(frame),
                    // The NOTIFICATION, if any, is already queued.
                    SessionEvent::Closed(_) => open = false,
                    SessionEvent::Send(_) => unreachable!("Conn queues its own sends"),
                }
            }
            if !frames.is_empty() && sess.outbox.is_some() {
                let batch = split_batch(self.shared.cores.len(), sess.slot, frames, now);
                offer(sess, batch, &self.shared, &self.queued);
            }
            if !open {
                self.close(i, now);
            }
        }
        let sess = &mut self.sessions[i];
        if sess.conn.pending() > 0 && sess.conn.flush().is_err() {
            if sess.linger_until.is_none() {
                self.close(i, now);
            }
            self.sessions[i].linger_until = Some(now);
            self.sessions[i].conn.discard_unsent();
        }
    }

    /// End session `i` at the edge: tell the cores, drop what it had
    /// parked, and leave the socket write-only for its last frames.
    fn close(&mut self, i: usize, now: u64) {
        let sess = &mut self.sessions[i];
        if sess.outbox.take().is_some() {
            for core in &self.shared.cores {
                let _ = core.send(CoreMsg::SessionDown { slot: sess.slot });
            }
        }
        sess.parked.clear();
        sess.linger_until = Some(now + LINGER_NS);
    }

    /// Retry the batches that full core queues refused (a core woke us
    /// after taking from a full queue).
    fn resume_parked(&mut self) {
        for sess in &mut self.sessions {
            if !sess.parked.is_empty() {
                let batch = std::mem::take(&mut sess.parked);
                offer(sess, batch, &self.shared, &self.queued);
            }
        }
    }

    /// Move every frame the cores exported into its session's out buffer;
    /// close any session that has let more than [`OUT_CAP`] pile up.
    fn collect_exports(&mut self) {
        let now = self.now();
        for i in 0..self.sessions.len() {
            let sess = &mut self.sessions[i];
            let Some(outbox) = &sess.outbox else {
                continue;
            };
            while let Ok(frame) = outbox.try_recv() {
                sess.conn.queue(frame);
            }
            if sess.conn.pending() > OUT_CAP {
                // The peer is not reading: what is queued will never be
                // useful, so put the NOTIFICATION right behind the frame
                // already on the wire.
                sess.conn.discard_unsent();
                let cease = Message::Notification(NotificationMsg::new(6, 8));
                sess.conn.queue(cease.encode(4).expect("NOTIFICATION encodes"));
                self.close(i, now);
            }
        }
    }

    /// Take every pending connection: start its FSM in a free slot, or
    /// drop it when all slots are taken.
    fn accept(&mut self, now: u64) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // WouldBlock: none left. Anything else (e.g. out of file
                // descriptors) is retried on the next readable pass.
                Err(_) => return,
            };
            let Some(slot) = self.free_slots.pop() else {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            let cfg = &self.shared.cfg;
            let fsm = SessionConfig {
                local_asn: cfg.asn,
                router_id: cfg.router_id,
                hold_time_secs: cfg.hold_time_secs,
                expect_asn: Some(cfg.peer_asn),
            };
            let Ok(mut conn) = Conn::new(stream, fsm) else {
                self.free_slots.push(slot);
                continue;
            };
            conn.start(now);
            let _ = conn.flush();
            self.sessions.push(Sess {
                conn,
                slot,
                outbox: None,
                parked: Vec::new(),
                linger_until: None,
            });
        }
    }

    /// Shutdown: Cease on every session still open, then SessionDown to
    /// the cores.
    fn close_all(&mut self) {
        let now = self.now();
        for i in 0..self.sessions.len() {
            let sess = &mut self.sessions[i];
            if sess.linger_until.is_none() {
                sess.conn.discard_unsent();
                sess.conn.shutdown();
                self.close(i, now);
            }
            let _ = self.sessions[i].conn.flush();
        }
    }
}

/// The edge FSM reached Established: give the session an outbox and bring
/// its slot up on every core.
fn session_up(sess: &mut Sess, shared: &Shared) {
    let (tx, rx) = mpsc::channel();
    for core in &shared.cores {
        let _ = core.send(CoreMsg::SessionUp { slot: sess.slot, outbox: tx.clone() });
    }
    sess.outbox = Some(rx);
}

/// Hand each `(core, message)` of a batch to its core, or park it on the
/// session if that core already holds [`CORE_QUEUE`] batches.
fn offer(
    sess: &mut Sess,
    batch: Vec<(usize, CoreMsg)>,
    shared: &Shared,
    queued: &[Arc<AtomicUsize>],
) {
    for (k, msg) in batch {
        // Only this thread increments, so the check cannot be overtaken;
        // the core only ever lowers the count.
        if queued[k].load(Ordering::SeqCst) >= CORE_QUEUE {
            sess.parked.push((k, msg));
            continue;
        }
        let depth = queued[k].fetch_add(1, Ordering::SeqCst) + 1;
        shared.queue_high_water.fetch_max(depth, Ordering::Relaxed);
        let _ = shared.cores[k].send(msg);
    }
}

/// Cut a session's validated UPDATE frames into one message per core that
/// owns some of their prefixes, preserving per-prefix arrival order.
fn split_batch(
    shards: usize,
    slot: usize,
    frames: Vec<Vec<u8>>,
    recv_ns: u64,
) -> Vec<(usize, CoreMsg)> {
    if shards == 1 {
        return vec![(0, CoreMsg::Frames { slot, frames, recv_ns })];
    }
    let mut per_shard: Vec<Vec<Vec<u8>>> = vec![Vec::new(); shards];
    for frame in &frames {
        match split_update(frame, shards) {
            Ok(parts) => {
                for (k, part) in parts.into_iter().enumerate() {
                    if let Some(p) = part {
                        per_shard[k].push(p);
                    }
                }
            }
            // The FSM already validated the frame; a split error here
            // would be a codec bug — drop the frame rather than poison a
            // shard with half an UPDATE.
            Err(_) => continue,
        }
    }
    per_shard
        .into_iter()
        .enumerate()
        .filter(|(_, frames)| !frames.is_empty())
        .map(|(k, frames)| (k, CoreMsg::Frames { slot, frames, recv_ns }))
        .collect()
}
