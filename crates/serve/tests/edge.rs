//! The event loop at the edge: FSM timers fire from the poll timeout on
//! an otherwise idle server, and memory stays bounded in both directions
//! (core queues under a blast, out buffers under a peer that never
//! reads).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use xbgp_driver::Dut;
use xbgp_serve::selftest::{run, SelftestSpec};
use xbgp_serve::server::{CORE_QUEUE, OUT_CAP};
use xbgp_serve::{ServeConfig, Server};
use xbgp_wire::attr::Origin;
use xbgp_wire::msg::deframe;
use xbgp_wire::{AsPath, Ipv4Prefix, Message, MsgReader, MsgType, OpenMsg, PathAttr, UpdateMsg};

/// A blocking hand-driven peer, so each test controls exactly what the
/// server sees.
struct Peer {
    stream: TcpStream,
    reader: MsgReader,
}

impl Peer {
    /// Connect and send OPEN (hold `hold`); with `establish`, also the
    /// KEEPALIVE that takes the server's FSM to Established.
    fn connect(addr: SocketAddr, hold: u16, establish: bool) -> Peer {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        let mut peer = Peer { stream, reader: MsgReader::new() };
        peer.send(&Message::Open(OpenMsg::standard(65001, hold, 7)).encode(4).unwrap());
        if establish {
            peer.send(&Message::Keepalive.encode(4).unwrap());
        }
        peer
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write");
    }

    /// The next frame's type and body, or `None` at EOF or `deadline`.
    fn next(&mut self, deadline: Instant) -> Option<(MsgType, Vec<u8>)> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            if let Some(frame) = self.reader.next_frame().expect("well-formed frames") {
                let (ty, body) = deframe(&frame).expect("frame decodes");
                return Some((ty, body.to_vec()));
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            self.stream.set_read_timeout(Some(left.max(Duration::from_millis(1)))).unwrap();
            match self.stream.read(&mut buf) {
                Ok(0) => return None,
                Ok(n) => self.reader.push(&buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return None
                }
                Err(_) => return None,
            }
        }
    }
}

fn server(max_sessions: usize, hold: u16) -> Server {
    let mut cfg = ServeConfig::new(Dut::Fir, max_sessions);
    cfg.hold_time_secs = hold;
    Server::start(cfg).expect("start server")
}

#[test]
fn silent_peer_gets_hold_timer_expired_on_idle_server() {
    let server = server(1, 3);
    let sent = Instant::now();
    let mut peer = Peer::connect(server.addr(), 3, false);
    let mut notification = None;
    while let Some((ty, body)) = peer.next(sent + Duration::from_secs(6)) {
        if ty == MsgType::Notification {
            notification = Some((body, sent.elapsed()));
            break;
        }
    }
    let (body, at) = notification.expect("server sent a NOTIFICATION");
    assert_eq!(body[..2], [4, 0], "Hold Timer Expired");
    assert!(at <= Duration::from_secs(4), "expired {at:?} after OPEN, hold is 3 s");
    server.shutdown();
}

#[test]
fn idle_established_peer_receives_keepalives() {
    let server = server(1, 3);
    let mut peer = Peer::connect(server.addr(), 3, true);
    // Hold 3 s gives a KEEPALIVE every second after the handshake's. The
    // peer answers each one so the session outlives the wait.
    let deadline = Instant::now() + Duration::from_secs(6);
    let mut keepalives = 0;
    while keepalives < 3 {
        match peer.next(deadline) {
            Some((MsgType::Keepalive, _)) => {
                keepalives += 1;
                peer.send(&Message::Keepalive.encode(4).unwrap());
            }
            Some((MsgType::Open, _)) => {}
            other => panic!("expected KEEPALIVEs, got {other:?} after {keepalives}"),
        }
    }
    assert_eq!(server.established_sessions(), 1);
    server.shutdown();
}

#[test]
fn blast_keeps_core_queue_within_capacity() {
    let mut spec = SelftestSpec::new(Dut::Fir, 8);
    spec.routes = 20_000;
    spec.rounds = 1;
    spec.check_parity = false;
    let out = run(&spec);
    assert!(out.expected_updates >= 20_000);
    assert_eq!(out.established, 8);
    assert!(
        out.core_queue_high_water <= CORE_QUEUE,
        "core queue reached {} batches, capacity {CORE_QUEUE}",
        out.core_queue_high_water
    );
    assert!(out.core_queue_high_water > 0);
    assert_eq!(out.oracle_mismatches, 0, "served Loc-RIB ≡ full-recompute oracle");
}

/// One single-prefix UPDATE whose 200-hop AS path makes every export of
/// it about 850 bytes; `i` keeps both prefix and path distinct, so the
/// daemon cannot pack exports together.
fn long_path_update(i: u32) -> Vec<u8> {
    let mut path: Vec<u32> = (1000..1199).collect();
    path.push(100_000 + i);
    let attrs = vec![
        PathAttr::Origin(Origin::Igp),
        PathAttr::AsPath(AsPath::sequence(path)),
        PathAttr::NextHop(1),
    ];
    let prefix = Ipv4Prefix::new(0x0a00_0000 + (i << 8), 24);
    Message::Update(UpdateMsg::announce(attrs, vec![prefix])).encode(4).unwrap()
}

#[test]
fn peer_that_never_reads_is_closed_out_of_resources() {
    let server = server(2, 90);
    let mut silent = Peer::connect(server.addr(), 90, true);
    let mut blaster = Peer::connect(server.addr(), 90, true);
    // The blaster's exports are read and discarded on their own thread,
    // so only the silent session backs up.
    let mut sink = blaster.stream.try_clone().unwrap();
    let reader = std::thread::spawn(move || {
        let mut buf = [0u8; 64 * 1024];
        while matches!(sink.read(&mut buf), Ok(n) if n > 0) {}
    });
    let ready = Instant::now() + Duration::from_secs(10);
    while server.established_sessions() < 2 {
        assert!(Instant::now() < ready, "sessions did not establish");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Announce until the silent session's unread exports pass the cap
    // (kernel socket buffers absorb the first few MB).
    let mut announced = 0u32;
    while server.established_sessions() == 2 {
        assert!(
            (announced as usize) * 800 < 40 * OUT_CAP,
            "silent session still open after {announced} long-path routes"
        );
        let batch: Vec<u8> = (announced..announced + 500).flat_map(long_path_update).collect();
        blaster.send(&batch);
        announced += 500;
    }

    // Reading now drains what was buffered, then the NOTIFICATION, then
    // EOF: nothing was queued behind it.
    let mut last = None;
    while let Some(frame) = silent.next(Instant::now() + Duration::from_secs(10)) {
        last = Some(frame);
    }
    let (ty, body) = last.expect("silent peer received frames");
    assert_eq!(ty, MsgType::Notification);
    assert_eq!(body[..2], [6, 8], "Cease / Out of Resources");

    let absorbed = Instant::now() + Duration::from_secs(30);
    while server.counters().prefixes_rx < u64::from(announced) {
        assert!(Instant::now() < absorbed, "blaster's routes were not all absorbed");
        std::thread::sleep(Duration::from_millis(10));
    }
    let rib = server.loc_rib();
    assert_eq!(rib.len(), announced as usize, "every blaster route is in the Loc-RIB");
    assert!(rib == server.oracle_loc_rib(), "served Loc-RIB ≡ full-recompute oracle");
    server.shutdown();
    reader.join().unwrap();
}
