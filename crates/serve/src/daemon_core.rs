//! The shard core: one daemon on a [`netsim::NodeDriver`], fed by the
//! event loop over a bounded channel.
//!
//! Each core owns a complete single-threaded daemon (fir or wren, behind
//! the [`xbgp_driver::Daemon`] seam) with one neighbor slot per session,
//! numbered `LinkId(0)..LinkId(slots)`. The loop never touches the
//! daemon — it sends [`CoreMsg`]s; the core thread is the only place the
//! `Rc`-based daemon state lives.
//!
//! Both directions are bounded or paced by the loop. Inbound, the queue
//! is a `sync_channel` and the loop hands a core at most [`CORE_QUEUE`]
//! frame batches at a time; taking a batch off a full queue wakes the
//! loop so it resumes the sessions it parked. Outbound, frames go to the
//! owning session's outbox and the core wakes the loop once per message
//! that forwarded any, so exports are written without waiting for a poll
//! timeout.
//!
//! Session liveness belongs to the edge FSMs ([`xbgp_wire::Session`]),
//! not the daemon: when a session establishes, the core injects a
//! synthetic OPEN carrying the configured neighbor ASN and **hold time
//! 0**, so the daemon negotiates liveness off and never arms hold or
//! keepalive timers. The daemon's own handshake frames (OPEN, KEEPALIVE)
//! are consumed at the core boundary; only UPDATE and NOTIFICATION
//! frames fan back out to the sockets.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use netsim::{LinkId, NodeDriver};
use xbgp_driver::{DaemonCounters, DaemonSpec, Dut, DutNode};
use xbgp_obs::{Histogram, Snapshot};
use xbgp_wire::msg::deframe;
use xbgp_wire::{Ipv4Prefix, Message, MsgReader, MsgType, OpenMsg};

use crate::poll::Waker;

/// Frame batches one core may have queued and not yet taken. The loop
/// parks a session's next batch rather than exceed it, and stops reading
/// that session until the core catches up, so a slow core pushes back on
/// TCP instead of growing memory.
pub const CORE_QUEUE: usize = 16;

/// Neighbor address of session slot `slot` in the daemon's config — the
/// identity [`xbgp_driver::Daemon::session_established`] is queried by.
pub fn slot_addr(slot: usize) -> u32 {
    0x0a00_0001 + slot as u32
}

/// What the event loop (or a [`crate::Server`] query) asks of a shard
/// core.
pub enum CoreMsg {
    /// The edge FSM reached Established: bring the daemon's session slot
    /// up and register where outbound frames for this session go.
    SessionUp {
        slot: usize,
        outbox: Sender<Vec<u8>>,
    },
    /// Validated UPDATE frames from one session, in arrival order.
    /// `recv_ns` is the runtime clock when the bytes left the socket —
    /// the start of the propagation-latency measurement.
    Frames {
        slot: usize,
        frames: Vec<Vec<u8>>,
        recv_ns: u64,
    },
    /// The session closed: tear the daemon's slot down (flushes its
    /// routes and withdraws them from every other session).
    SessionDown {
        slot: usize,
    },
    Query(Query),
    Shutdown,
}

/// Synchronous inspection requests; the reply channel makes them act as
/// barriers behind all previously queued frames.
pub enum Query {
    Counters(Sender<DaemonCounters>),
    Snapshot(Sender<Snapshot>),
    LocRib(Sender<Vec<(Ipv4Prefix, Vec<u8>)>>),
    OracleLocRib(Sender<Vec<(Ipv4Prefix, Vec<u8>)>>),
    /// How many session slots the *daemon* (not the edge) sees established.
    EstablishedSlots(Sender<usize>),
}

/// Static description of one shard core.
#[derive(Clone)]
pub struct CoreConfig {
    pub dut: Dut,
    pub asn: u32,
    pub router_id: u32,
    /// ASN every session's synthetic OPEN carries; all neighbor slots are
    /// configured with it.
    pub peer_asn: u32,
    /// Session slots (= max concurrent sessions).
    pub slots: usize,
    /// Enable the daemon's timing instrumentation.
    pub metrics: bool,
}

/// The sending side of one core: its queue and the count of frame
/// batches in it.
pub struct CoreQueue {
    pub tx: SyncSender<CoreMsg>,
    /// [`CoreMsg::Frames`] batches sent and not yet taken by the core.
    /// Only the loop increments it, so a load followed by an increment
    /// cannot overshoot [`CORE_QUEUE`].
    pub queued: Arc<AtomicUsize>,
}

/// Spawn one shard core thread. `latency` receives one observation per
/// delivered UPDATE frame: runtime-clock ns from socket read to the
/// daemon having applied it (queue wait + decode + RIB work). `wake`
/// interrupts the event loop's `poll`.
pub fn spawn(
    cfg: CoreConfig,
    latency: Arc<Histogram>,
    epoch: Instant,
    wake: Arc<Waker>,
) -> (CoreQueue, JoinHandle<()>) {
    let (tx, rx) = mpsc::sync_channel(CORE_QUEUE);
    let queued = Arc::new(AtomicUsize::new(0));
    let core_queued = Arc::clone(&queued);
    let thread = std::thread::Builder::new()
        .name(format!("xbgp-core-{}", cfg.router_id))
        .spawn(move || run(cfg, rx, core_queued, latency, epoch, wake))
        .expect("spawn core thread");
    (CoreQueue { tx, queued }, thread)
}

fn run(
    cfg: CoreConfig,
    rx: Receiver<CoreMsg>,
    queued: Arc<AtomicUsize>,
    latency: Arc<Histogram>,
    epoch: Instant,
    wake: Arc<Waker>,
) {
    let mut spec = DaemonSpec::new(cfg.asn, cfg.router_id);
    // The daemon proposes hold 0 too; either side's zero wins negotiation.
    spec.hold_time_secs = 0;
    spec.metrics = cfg.metrics;
    for slot in 0..cfg.slots {
        spec = spec.neighbor(LinkId(slot), slot_addr(slot), cfg.peer_asn);
    }
    let node = xbgp_harness::dut::build(cfg.dut, spec);
    let mut driver = NodeDriver::new(Box::new(node), cfg.slots);

    let now = move || epoch.elapsed().as_nanos() as u64;
    let mut outboxes: Vec<Option<Sender<Vec<u8>>>> = vec![None; cfg.slots];
    let mut readers: Vec<MsgReader> = (0..cfg.slots).map(|_| MsgReader::new()).collect();
    // Slots that have been through at least one session: a later reuse
    // needs a link-up event to push the daemon's FSM out of Idle again.
    let mut used = vec![false; cfg.slots];

    driver.start(now());
    flush(&mut driver, &mut readers, &outboxes);

    while let Ok(msg) = rx.recv() {
        match msg {
            CoreMsg::SessionUp { slot, outbox } => {
                outboxes[slot] = Some(outbox);
                if used[slot] {
                    driver.link_event(now(), LinkId(slot), true);
                }
                used[slot] = true;
                let open = OpenMsg::standard(cfg.peer_asn, 0, slot_addr(slot));
                let open = Message::Open(open).encode(4).expect("OPEN encodes");
                driver.deliver(now(), LinkId(slot), &open);
                let ka = Message::Keepalive.encode(4).expect("KEEPALIVE encodes");
                driver.deliver(now(), LinkId(slot), &ka);
            }
            CoreMsg::Frames { slot, frames, recv_ns } => {
                // Taken off a full queue: the loop may have parked
                // sessions behind this core.
                if queued.fetch_sub(1, Ordering::SeqCst) == CORE_QUEUE {
                    wake.wake();
                }
                for f in &frames {
                    driver.deliver(now(), LinkId(slot), f);
                    latency.observe(now().saturating_sub(recv_ns));
                }
            }
            CoreMsg::SessionDown { slot } => {
                outboxes[slot] = None;
                driver.link_event(now(), LinkId(slot), false);
            }
            CoreMsg::Query(q) => {
                // Replies may race a caller that gave up; ignore send errors.
                match q {
                    Query::Counters(tx) => {
                        let _ = tx.send(driver.node_mut::<DutNode>().0.counters());
                    }
                    Query::Snapshot(tx) => {
                        let _ = tx.send(driver.node_mut::<DutNode>().0.metrics_snapshot());
                    }
                    Query::LocRib(tx) => {
                        let _ = tx.send(driver.node_mut::<DutNode>().0.loc_rib_dump());
                    }
                    Query::OracleLocRib(tx) => {
                        let _ = tx.send(driver.node_mut::<DutNode>().0.oracle_loc_rib_dump());
                    }
                    Query::EstablishedSlots(tx) => {
                        let d = driver.node_mut::<DutNode>();
                        let n = (0..cfg.slots)
                            .filter(|&s| d.0.session_established(slot_addr(s)))
                            .count();
                        let _ = tx.send(n);
                    }
                }
            }
            CoreMsg::Shutdown => break,
        }
        if flush(&mut driver, &mut readers, &outboxes) {
            wake.wake();
        }
    }
}

/// Route everything the daemon emitted: UPDATE and NOTIFICATION frames go
/// to the owning session's outbox (if one is registered); the daemon's
/// own handshake frames are consumed here — the edge FSM already ran the
/// real handshake on the wire. Returns whether any frame went to an
/// outbox.
fn flush(
    driver: &mut NodeDriver,
    readers: &mut [MsgReader],
    outboxes: &[Option<Sender<Vec<u8>>>],
) -> bool {
    let mut forwarded = false;
    for (link, bytes) in driver.drain_outbound() {
        let slot = link.0;
        readers[slot].push(&bytes);
        while let Ok(Some(frame)) = readers[slot].next_frame() {
            let forward = matches!(
                deframe(&frame),
                Ok((MsgType::Update, _)) | Ok((MsgType::Notification, _))
            );
            if forward {
                if let Some(tx) = &outboxes[slot] {
                    // A dropped receiver means the session died mid-flush;
                    // SessionDown will tear the slot shortly.
                    forwarded |= tx.send(frame).is_ok();
                }
            }
        }
    }
    forwarded
}
