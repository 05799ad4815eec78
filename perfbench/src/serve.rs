//! `serve_tcp`: FIR behind `xbgp_serve::Server` (one shard core) on
//! loopback. This benchmark is the peer: one thread holding two TCP
//! sessions, each owning a prefix-hash half of the table and of the
//! churn stream.
//!
//! Each repetition runs blast cycles, which send the whole stream as fast
//! as TCP accepts, then one paced cycle: the table and the first half of
//! the churn rounds blasted, a fixed number of routing updates sent
//! open-loop at a fixed mean rate as single-prefix UPDATEs, then the rest
//! blasted. The paced gaps are drawn from the seed around the mean period,
//! so due times do not lock to a phase of the kernel's timer tick, which
//! the server's read timeouts round to. A paced update is timed from when
//! it was *due* on its session to when the other session reads the UPDATE
//! carrying its prefix. Every cycle runs on a fresh server, started once
//! the last one's threads have exited. This is the only workload whose path
//! includes socket reads, the session FSM, core queues and writes; no
//! bytecode runs on it, so it should stay still under VM-only or RIB-only
//! changes. The same stream is then replayed through the four netsim
//! configurations, whose FIR-native Loc-RIB is the parity reference for
//! the TCP runs.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use routegen::churn::ChurnRound;
use xbgp_driver::Dut;
use xbgp_harness::churn::dump_diff;
use xbgp_harness::shard::shard_of;
use xbgp_harness::{Feeder, UseCase};
use xbgp_serve::{ServeConfig, Server};
use xbgp_wire::{
    Ipv4Prefix, PathAttr, Session, SessionConfig, SessionEvent, SessionState, UpdateMsg,
};

use crate::cells::CellSamples;
use crate::chain::{rotation, Chain, CELLS, SEC};
use crate::inputs::{self, encode, Inputs};
use crate::report::{median, quantile, slow_decile, Report};
use crate::{Budget, Scale};

/// Concurrent TCP sessions the peer holds.
pub const SESSIONS: usize = 2;
/// ASN the peer presents (`ServeConfig`'s default `peer_asn`).
const PEER_ASN: u32 = 65001;
/// ASN of the served daemon, prepended to every path it exports.
const DUT_ASN: u32 = 65002;
/// Netsim replays of the served stream per repetition.
const REPLAYS_PER_REP: usize = 4;
/// Routegen churn rounds in the served stream, after its table.
pub const SERVE_ROUNDS: usize = 4;
/// A paced update slower than this counts as failed.
const LATENCY_LIMIT_MS: f64 = 1_000.0;
/// Whole-stream blast cycles per repetition, before its paced cycle.
const BLAST_CYCLES: usize = 5;
/// Nothing on the wire for this long ends a drain.
const QUIET: Duration = Duration::from_millis(20);
/// Latency samples per window; a run reports the median over windows of
/// each window's percentile, so a rare stall owns at most a window or two.
const LATENCY_WINDOW: usize = 200;

/// What a paced update should look like when the other session reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Sig {
    Withdraw,
    /// Announced with this AS path (before the daemon's own prepend).
    Announce(Vec<u32>),
}

/// One paced single-prefix UPDATE.
pub struct Paced {
    session: usize,
    prefix: Ipv4Prefix,
    sig: Sig,
    frame: Vec<u8>,
    /// Gap from the previous paced update on the same session, as a share
    /// of the session's mean period: uniform in [0.5, 1.5).
    gap: f64,
}

/// The stream one cycle sends, per session in stream order. A paced cycle
/// blasts the head (the table and the first half of the churn rounds),
/// paces the paced updates, then blasts the tail; a blast cycle sends all
/// of it as fast as TCP accepts.
pub struct Plan {
    /// Per session: UPDATE frames of the whole stream, for blast cycles.
    pub all: Vec<Vec<Vec<u8>>>,
    /// Per session: UPDATE frames of the blast phase.
    pub blast: Vec<Vec<Vec<u8>>>,
    pub blast_updates: u64,
    pub paced: Vec<Paced>,
    /// Per session: UPDATE frames of the rest of the stream.
    pub tail: Vec<Vec<Vec<u8>>>,
    pub tail_updates: u64,
}

/// The part of `round` owned by session `k`.
fn split_round(round: &ChurnRound, k: usize) -> ChurnRound {
    ChurnRound {
        withdrawals: round
            .withdrawals
            .iter()
            .filter(|p| shard_of(p, SESSIONS) == k)
            .copied()
            .collect(),
        announcements: round
            .announcements
            .iter()
            .filter(|r| shard_of(&r.prefix, SESSIONS) == k)
            .cloned()
            .collect(),
    }
}

/// Per session: the UPDATE frames of `rounds`.
fn session_frames(rounds: &[ChurnRound]) -> Vec<Vec<Vec<u8>>> {
    (0..SESSIONS)
        .map(|k| {
            rounds
                .iter()
                .flat_map(|r| encode(split_round(r, k).to_updates(1, None)))
                .collect()
        })
        .collect()
}

impl Plan {
    /// Blast the table and the first half of the rounds, pace the next
    /// `paced` routing updates one per UPDATE, and blast the rest. The
    /// paced gaps are drawn from `seed`.
    pub fn new(inputs: &Inputs, paced: usize, seed: u64) -> Plan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x005e_ed9a_ced0_a7e5);
        let half = inputs.rounds.len() / 2;
        let table = ChurnRound {
            withdrawals: Vec::new(),
            announcements: inputs.routes.clone(),
        };
        let mut head = vec![table];
        head.extend(inputs.rounds[..half].iter().cloned());
        let blast_updates = head.iter().map(|r| r.update_count() as u64).sum();

        // Cut the rest of the stream after `paced` updates, keeping order:
        // each round is its withdrawals, then its announcements.
        let mut paced_ops = Vec::new();
        let mut tail: Vec<ChurnRound> = Vec::new();
        for round in &inputs.rounds[half..] {
            let mut rest = ChurnRound { withdrawals: Vec::new(), announcements: Vec::new() };
            for p in &round.withdrawals {
                if paced_ops.len() < paced {
                    paced_ops.push(Paced {
                        session: shard_of(p, SESSIONS),
                        prefix: *p,
                        sig: Sig::Withdraw,
                        frame: encode(vec![UpdateMsg::withdraw(vec![*p])]).remove(0),
                        gap: 0.5 + rng.gen::<f64>(),
                    });
                } else {
                    rest.withdrawals.push(*p);
                }
            }
            for r in &round.announcements {
                if paced_ops.len() < paced {
                    paced_ops.push(Paced {
                        session: shard_of(&r.prefix, SESSIONS),
                        prefix: r.prefix,
                        sig: Sig::Announce(r.as_path.clone()),
                        frame: encode(vec![UpdateMsg::announce(r.attrs(1, None), vec![r.prefix])])
                            .remove(0),
                        gap: 0.5 + rng.gen::<f64>(),
                    });
                } else {
                    rest.announcements.push(r.clone());
                }
            }
            tail.push(rest);
        }
        let tail_updates = tail.iter().map(|r| r.update_count() as u64).sum();
        let (blast, tail) = (session_frames(&head), session_frames(&tail));
        let all = (0..SESSIONS)
            .map(|k| {
                let paced = paced_ops.iter().filter(|u| u.session == k).map(|u| u.frame.clone());
                blast[k].iter().cloned().chain(paced).chain(tail[k].iter().cloned()).collect()
            })
            .collect();
        Plan {
            all,
            blast,
            blast_updates,
            paced: paced_ops,
            tail_updates,
            tail,
        }
    }

    pub fn total_updates(&self) -> u64 {
        self.blast_updates + self.paced.len() as u64 + self.tail_updates
    }
}

/// One peer-side session: a nonblocking socket, the RFC 4271 FSM and the
/// bytes still waiting to be written.
pub struct PeerSession {
    stream: TcpStream,
    fsm: Session,
    out: VecDeque<u8>,
    pub established: bool,
    pub closed: bool,
}

/// Peer-side timings of the serve path, for the traced run.
#[derive(Default)]
pub struct PeerClock {
    /// Time spent inside `write` calls, and frames handed to them.
    pub write_ns: u64,
    pub frames_written: u64,
    /// Time spent in `Session::on_bytes`, and frames it returned.
    pub session_ns: u64,
    pub frames_read: u64,
    /// When set (the traced run), every `write` call and every received
    /// chunk through `Session::on_bytes` as `(layer, start, end)`.
    pub spans: Option<Vec<(&'static str, Instant, Instant)>>,
}

impl PeerClock {
    fn span(&mut self, layer: &'static str, start: Instant, end: Instant) {
        if let Some(spans) = &mut self.spans {
            spans.push((layer, start, end));
        }
    }
}

impl PeerSession {
    fn connect(addr: SocketAddr, k: usize, now_ns: u64) -> std::io::Result<PeerSession> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let fsm = Session::new(SessionConfig {
            local_asn: PEER_ASN,
            router_id: 1000 + k as u32,
            hold_time_secs: 90,
            expect_asn: None,
        });
        let mut s = PeerSession {
            stream,
            fsm,
            out: VecDeque::new(),
            established: false,
            closed: false,
        };
        let events = s.fsm.start(now_ns);
        s.apply(events, &mut Vec::new());
        Ok(s)
    }

    fn apply(&mut self, events: Vec<SessionEvent>, updates: &mut Vec<Vec<u8>>) {
        for ev in events {
            match ev {
                SessionEvent::Send(bytes) => self.out.extend(bytes),
                SessionEvent::Established { .. } => self.established = true,
                SessionEvent::Update(frame) => updates.push(frame),
                SessionEvent::Closed(_) => self.closed = true,
            }
        }
    }

    /// Queue an UPDATE frame for writing.
    fn send(&mut self, frame: &[u8]) {
        self.out.extend(frame);
    }

    /// Write what the socket accepts. Returns whether bytes moved.
    fn flush(&mut self, clock: &mut PeerClock) -> bool {
        let mut moved = false;
        while !self.out.is_empty() {
            let (head, _) = self.out.as_slices();
            let t = Instant::now();
            let r = self.stream.write(head);
            let end = Instant::now();
            clock.write_ns += (end - t).as_nanos() as u64;
            clock.span("serve.write", t, end);
            match r {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    self.out.drain(..n);
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
        moved
    }

    /// Read what is available and run it through the FSM, appending the
    /// UPDATE frames received. Returns whether bytes moved.
    fn pump(&mut self, now_ns: u64, updates: &mut Vec<Vec<u8>>, clock: &mut PeerClock) -> bool {
        let mut buf = [0u8; 64 * 1024];
        let mut moved = false;
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    moved = true;
                    let t = Instant::now();
                    let events = self.fsm.on_bytes(now_ns, &buf[..n]);
                    let end = Instant::now();
                    clock.session_ns += (end - t).as_nanos() as u64;
                    clock.span("serve.receive", t, end);
                    let before = updates.len();
                    self.apply(events, updates);
                    clock.frames_read += (updates.len() - before) as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
        let events = self.fsm.tick(now_ns);
        self.apply(events, updates);
        moved
    }

    /// Send Cease and close the socket.
    fn close(mut self, clock: &mut PeerClock) {
        if !matches!(self.fsm.state(), SessionState::Closed) {
            let events = self.fsm.shutdown();
            self.apply(events, &mut Vec::new());
            let _ = self.stream.set_nonblocking(false);
            let _ = self.stream.set_write_timeout(Some(Duration::from_millis(200)));
            self.flush(clock);
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// The peer: both sessions, driven from one thread.
pub struct Peer {
    pub sessions: Vec<PeerSession>,
    epoch: Instant,
    pub clock: PeerClock,
}

impl Peer {
    /// Connect both sessions and run the handshakes until both are
    /// Established (or `timeout` passes).
    pub fn establish(addr: SocketAddr, timeout: Duration) -> std::io::Result<Peer> {
        let epoch = Instant::now();
        let mut sessions = Vec::new();
        for k in 0..SESSIONS {
            sessions.push(PeerSession::connect(addr, k, 0)?);
        }
        let mut peer = Peer { sessions, epoch, clock: PeerClock::default() };
        let deadline = Instant::now() + timeout;
        while !peer.sessions.iter().all(|s| s.established) && Instant::now() < deadline {
            if !peer.step(&mut Vec::new()) {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        Ok(peer)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The instant `now_ns` counts from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// One I/O pass over both sessions: write what is pending, read what
    /// arrived. Received UPDATE frames land in `rx` as `(session, frame)`.
    /// Returns whether any bytes moved.
    pub fn step(&mut self, rx: &mut Vec<(usize, Vec<u8>)>) -> bool {
        let now = self.now_ns();
        let mut moved = false;
        let mut frames = Vec::new();
        for (k, s) in self.sessions.iter_mut().enumerate() {
            moved |= s.flush(&mut self.clock);
            moved |= s.pump(now, &mut frames, &mut self.clock);
            rx.extend(frames.drain(..).map(|f| (k, f)));
        }
        moved
    }

    pub fn pending_out(&self) -> usize {
        self.sessions.iter().map(|s| s.out.len()).sum()
    }

    /// Neither session has been closed.
    pub fn alive(&self) -> bool {
        self.sessions.iter().all(|s| !s.closed)
    }

    /// Read until nothing has arrived for [`QUIET`].
    pub fn drain_quiet(&mut self) {
        let mut last = Instant::now();
        while last.elapsed() < QUIET {
            if self.step(&mut Vec::new()) {
                last = Instant::now();
            } else {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }

    pub fn close(self) -> PeerClock {
        let mut clock = self.clock;
        for s in self.sessions {
            s.close(&mut clock);
        }
        clock
    }
}

/// Outcome of the blast phase.
pub struct Blast {
    /// First frame written → counters show the phase absorbed.
    pub wall_s: f64,
    /// Last byte written → counters show the phase absorbed.
    pub absorb_lag_s: f64,
    /// Process CPU seconds over the phase.
    pub cpu_s: f64,
    pub absorbed: u64,
}

/// Write `frames` (per session) as fast as TCP accepts, then wait until
/// the daemon's routing-update counter reaches `target`.
pub fn blast(
    peer: &mut Peer,
    server: &Server,
    frames: &[Vec<Vec<u8>>],
    target: u64,
    limit: Duration,
) -> Blast {
    let cpu0 = crate::report::process_cpu_s();
    let t0 = Instant::now();
    for (k, frames) in frames.iter().enumerate() {
        for f in frames {
            peer.sessions[k].send(f);
        }
        peer.clock.frames_written += frames.len() as u64;
    }
    let mut rx = Vec::new();
    while peer.pending_out() > 0 && peer.alive() && t0.elapsed() < limit {
        if !peer.step(&mut rx) {
            std::thread::sleep(Duration::from_micros(50));
        }
        rx.clear();
    }
    let written = Instant::now();
    // Counter queries queue behind every frame already handed to the
    // core, so they double as barriers. When neither the counter nor the
    // sockets move, back off as the write loop does rather than spin on
    // the CPU the session and core threads need.
    let mut absorbed = server.counters().routing_updates_rx();
    while absorbed < target && peer.alive() && t0.elapsed() < limit {
        let moved = peer.step(&mut rx);
        rx.clear();
        let now = server.counters().routing_updates_rx();
        if now == absorbed && !moved {
            std::thread::sleep(Duration::from_micros(50));
        }
        absorbed = now;
    }
    Blast {
        wall_s: t0.elapsed().as_secs_f64(),
        absorb_lag_s: written.elapsed().as_secs_f64(),
        cpu_s: crate::report::process_cpu_s() - cpu0,
        absorbed,
    }
}

/// Outcome of the paced phase.
#[derive(Default)]
pub struct PacedRun {
    /// Propagation latency (ms) of every matched paced update.
    pub samples: Vec<f64>,
    /// How late the generator sent each update (ms).
    pub lateness: Vec<f64>,
    /// Superseded before export (a flap coalesced in one batch).
    pub coalesced: u64,
    /// Exceeded the latency limit, or never arrived.
    pub late_or_lost: u64,
    /// Most updates sent but not yet seen on the other session.
    pub backlog_max: u64,
    /// `(paced index, due, received)` in peer-clock ns per matched update.
    pub propagated: Vec<(usize, u64, u64)>,
}

/// What an exported UPDATE says about `prefix`: withdrawn, or announced
/// with this AS path (the daemon's own prepend removed).
fn received_sigs(frame: &[u8]) -> Vec<(Ipv4Prefix, Sig)> {
    let Ok(xbgp_wire::Message::Update(upd)) = xbgp_wire::Message::decode(frame, 4) else {
        return Vec::new();
    };
    let mut out: Vec<(Ipv4Prefix, Sig)> =
        upd.withdrawn.iter().map(|p| (*p, Sig::Withdraw)).collect();
    if !upd.nlri.is_empty() {
        let mut path: Vec<u32> = upd
            .attrs
            .iter()
            .find_map(|a| match a {
                PathAttr::AsPath(p) => Some(p.asns().collect()),
                _ => None,
            })
            .unwrap_or_default();
        if path.first() == Some(&DUT_ASN) {
            path.remove(0);
        }
        out.extend(upd.nlri.iter().map(|p| (*p, Sig::Announce(path.clone()))));
    }
    out
}

/// Send the paced updates open-loop at a mean `rate` per second in total,
/// each session at `rate / SESSIONS` with its own drawn gaps and the
/// sessions starting half a period apart, and time each update from its
/// due time to its arrival on the other session.
pub fn paced(peer: &mut Peer, plan: &Plan, rate: f64) -> PacedRun {
    let mut run = PacedRun::default();
    let mut pending: HashMap<Ipv4Prefix, VecDeque<(u64, usize)>> = HashMap::new();
    let mut outstanding = 0u64;
    // `(due offset ns, paced index)` in sending order; each session keeps
    // its own order, so every prefix keeps its order too.
    let period_ns = SESSIONS as f64 * 1e9 / rate;
    let mut due: Vec<f64> = (0..SESSIONS).map(|k| k as f64 * 1e9 / rate).collect();
    let mut schedule: Vec<(u64, usize)> = plan
        .paced
        .iter()
        .enumerate()
        .map(|(i, u)| {
            due[u.session] += u.gap * period_ns;
            (due[u.session] as u64, i)
        })
        .collect();
    schedule.sort_unstable();
    let start = peer.now_ns();
    let limit_ns = (LATENCY_LIMIT_MS * 1e6) as u64;
    let mut next = 0usize;
    let mut rx = Vec::new();
    loop {
        let now = peer.now_ns();
        while next < schedule.len() && start + schedule[next].0 <= now {
            let (offset, i) = schedule[next];
            let u = &plan.paced[i];
            peer.sessions[u.session].send(&u.frame);
            peer.clock.frames_written += 1;
            run.lateness.push(now.saturating_sub(start + offset) as f64 / 1e6);
            pending.entry(u.prefix).or_default().push_back((start + offset, i));
            outstanding += 1;
            next += 1;
        }
        run.backlog_max = run.backlog_max.max(outstanding);
        let moved = peer.step(&mut rx);
        let now = peer.now_ns();
        for (k, frame) in rx.drain(..) {
            for (prefix, sig) in received_sigs(&frame) {
                if shard_of(&prefix, SESSIONS) == k {
                    continue; // echo towards the owning session
                }
                let Some(queue) = pending.get_mut(&prefix) else {
                    continue;
                };
                let Some(pos) = queue.iter().position(|&(_, i)| plan.paced[i].sig == sig) else {
                    continue;
                };
                let (sent_due, index) = queue[pos];
                run.propagated.push((index, sent_due, now));
                run.coalesced += pos as u64;
                outstanding -= pos as u64 + 1;
                queue.drain(..=pos);
                let ms = now.saturating_sub(sent_due) as f64 / 1e6;
                if ms > LATENCY_LIMIT_MS {
                    run.late_or_lost += 1;
                } else {
                    run.samples.push(ms);
                }
            }
        }
        let last_due = start + schedule.last().map_or(0, |d| d.0);
        let over = next == schedule.len() && (outstanding == 0 || now > last_due + limit_ns);
        if over || !peer.alive() {
            break;
        }
        if !moved {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    run.late_or_lost += outstanding + (schedule.len() - next) as u64;
    run
}

/// The netsim replay of the served stream: one CPU-accounted chain per
/// configuration, origin validation on. Returns each cell's updates per
/// DUT CPU-second and the FIR-native Loc-RIB.
pub fn replay(
    plan: &Plan,
    inputs: &Inputs,
    rep: usize,
    cells: &mut CellSamples,
    report: &mut Report,
) -> Option<Vec<(Ipv4Prefix, Vec<u8>)>> {
    let expected = plan.total_updates();
    let mut reference = None;
    for cell in rotation(rep) {
        let feeder = Feeder::new(PEER_ASN, 1, inputs.table_frames.clone()).with_churn(
            inputs.round_frames.clone(),
            5 * SEC,
            SEC,
        );
        let mut chain = Chain::new(cell, UseCase::OriginValidation, feeder, &inputs.roas);
        let mut deadline = 0;
        loop {
            deadline += 120 * SEC;
            chain.sim.run_until(deadline);
            let rounds_done = chain.feeder().rounds_sent >= inputs.round_frames.len();
            if rounds_done && chain.daemon().counters().routing_updates_rx() >= expected {
                break;
            }
            if deadline > 100_000 * SEC {
                break;
            }
        }
        chain.settle(60 * SEC);
        let got = chain.daemon().counters().routing_updates_rx();
        report.fail(
            got.abs_diff(expected),
            format!("replay {} rep {rep}: absorbed {got} of {expected}", cell.name()),
        );
        let cpu_ns = chain.sim.cpu_time(chain.dut);
        cells.push(cell, got as f64 / (cpu_ns.max(1) as f64 / 1e9));
        if cell == CELLS[1] {
            reference = Some(chain.daemon().loc_rib_dump());
        }
    }
    reference
}

/// Threads this process runs now (`Threads:` in `/proc/self/status`).
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Shut `server` down and wait (up to 2 s) until the process is back to
/// `threads` threads. Session threads are detached and can outlive
/// `shutdown` by a moment; waiting keeps one cycle's threads from
/// overlapping the next cycle's, on the CPU and in malloc's per-thread
/// arenas (an overlap makes new arenas, which showed in `peak_rss_mb`).
fn stop(server: Server, threads: usize) {
    server.shutdown();
    let deadline = Instant::now() + Duration::from_secs(2);
    while thread_count() > threads && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// What one TCP cycle measured.
pub struct TcpRep {
    /// Server start to both sessions Established on the daemon side.
    pub connect_s: f64,
    /// The first blast: the whole stream, or the head of a paced cycle.
    pub blast: Blast,
    /// The paced phase of a paced cycle.
    pub paced: Option<PacedRun>,
    /// The served Loc-RIB once the whole stream is absorbed.
    pub rib: Vec<(Ipv4Prefix, Vec<u8>)>,
    pub clock: PeerClock,
    /// The instant the peer clock counts from.
    pub epoch: Instant,
}

/// One cycle over TCP on a fresh server: establish both sessions, then
/// either blast the whole stream or blast its head, pace the paced
/// updates and blast the tail; finally check that the daemon absorbed
/// exactly the stream and that its Loc-RIB matches its own oracle.
/// Failures are counted in `report`; `None` when the sessions never came
/// up. `spans` records the peer's write and receive calls.
pub fn tcp_rep(
    plan: &Plan,
    scale: &Scale,
    report: &mut Report,
    pace: bool,
    spans: bool,
) -> Option<TcpRep> {
    let total = plan.total_updates();
    let threads = thread_count();
    let t = Instant::now();
    let server = match Server::start(ServeConfig::new(Dut::Fir, SESSIONS)) {
        Ok(s) => s,
        Err(e) => {
            report.fail(total, format!("server did not start: {e}"));
            return None;
        }
    };
    let mut peer = match Peer::establish(server.addr(), Duration::from_secs(10)) {
        Ok(p) => p,
        Err(e) => {
            report.fail(total, format!("connect failed: {e}"));
            stop(server, threads);
            return None;
        }
    };
    let ready = Instant::now() + Duration::from_secs(10);
    while server.established_sessions() < SESSIONS && Instant::now() < ready {
        peer.step(&mut Vec::new());
        std::thread::sleep(Duration::from_micros(200));
    }
    let connect_s = t.elapsed().as_secs_f64();
    let up = server.established_sessions();
    if up < SESSIONS {
        report.fail(total, format!("{up} of {SESSIONS} sessions established"));
        peer.close();
        stop(server, threads);
        return None;
    }
    if spans {
        peer.clock.spans = Some(Vec::new());
    }

    // A blast normally takes well under a second; the limit only bounds a
    // run whose daemon stops absorbing.
    let limit = Duration::from_secs(10);
    let (first, paced, absorbed) = if pace {
        let head = blast(&mut peer, &server, &plan.blast, plan.blast_updates, limit);
        peer.drain_quiet();
        let p = paced(&mut peer, plan, scale.paced_rate);
        report.fail(p.late_or_lost, format!("paced updates over {LATENCY_LIMIT_MS} ms or lost"));
        let tail = blast(&mut peer, &server, &plan.tail, total, limit);
        (head, Some(p), tail.absorbed)
    } else {
        let all = blast(&mut peer, &server, &plan.all, total, limit);
        let absorbed = all.absorbed;
        (all, None, absorbed)
    };
    report.fail(absorbed.abs_diff(total), format!("daemon absorbed {absorbed} of {total}"));
    let rib = server.loc_rib();
    let oracle = server.oracle_loc_rib();
    report.fail(dump_diff(&rib, &oracle) as u64, "served Loc-RIB differs from the oracle");
    let epoch = peer.epoch();
    let clock = peer.close();
    stop(server, threads);
    Some(TcpRep { connect_s, blast: first, paced, rib, clock, epoch })
}

pub fn run(seed: u64, budget: &mut Budget, scale: &Scale) -> Report {
    let mut report = Report::default();
    let mut cells = CellSamples::default();
    let (mut setup, mut wall, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut samples, mut coalesced) = (0, 0);

    while budget.another() {
        let t = Instant::now();
        let inputs = inputs::generate(scale.serve_routes, SERVE_ROUNDS, seed, None);
        let plan = Plan::new(&inputs, scale.paced_updates, seed);
        let total = plan.total_updates();
        let gen_s = t.elapsed().as_secs_f64();
        let mut ribs = Vec::new();
        for cycle in 0..=BLAST_CYCLES {
            let pace = cycle == BLAST_CYCLES;
            report.attempted += total;
            let Some(tcp) = tcp_rep(&plan, scale, &mut report, pace, false) else {
                continue;
            };
            setup.push(gen_s + tcp.connect_s);
            match tcp.paced {
                Some(p) => {
                    coalesced += p.coalesced;
                    samples += p.samples.len();
                    for window in p.samples.chunks(LATENCY_WINDOW) {
                        p50.push(quantile(window, 0.5));
                        p99.push(quantile(window, 0.99));
                    }
                }
                None => wall.push(total as f64 / tcp.blast.wall_s),
            }
            ribs.push(tcp.rib);
        }

        for _ in 0..REPLAYS_PER_REP {
            report.attempted += 4 * total;
            let Some(reference) = replay(&plan, &inputs, budget.reps(), &mut cells, &mut report)
            else {
                report.fail(total, "no netsim replay");
                continue;
            };
            for rib in &ribs {
                report.fail(
                    dump_diff(rib, &reference) as u64,
                    "served Loc-RIB differs from the netsim replay",
                );
            }
        }
        budget.done();
    }

    report
        .notes
        .push(format!("serve: {coalesced} paced updates coalesced before export"));
    report.notes.push(format!("serve: {samples} latency samples"));
    report.push("setup_s", "s", slow_decile(&setup, false));
    cells.emit(&mut report);
    report.push("wall_updates_per_s", "updates/s", slow_decile(&wall, true));
    report.push("latency_p50_ms", "ms", median(&p50));
    report.push("latency_p99_ms", "ms", median(&p99));
    cells.shape_report(UseCase::OriginValidation, &mut report);
    report
}
