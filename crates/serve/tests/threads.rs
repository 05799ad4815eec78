//! `Server::shutdown` joins every thread the runtime started. Its own test
//! binary: the process thread count is the measurement, so no other test
//! may run beside it.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use xbgp_driver::Dut;
use xbgp_serve::{ServeConfig, Server};
use xbgp_wire::{Message, OpenMsg};

/// Threads this process runs now (`Threads:` in `/proc/self/status`).
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn runtime_is_one_loop_thread_plus_one_per_shard_and_shutdown_joins_them() {
    let before = threads();
    let mut cfg = ServeConfig::new(Dut::Fir, 4);
    cfg.shards = 2;
    let server = Server::start(cfg).expect("start server");

    let mut peer = TcpStream::connect(server.addr()).expect("connect");
    peer.write_all(&Message::Open(OpenMsg::standard(65001, 90, 7)).encode(4).unwrap())
        .unwrap();
    peer.write_all(&Message::Keepalive.encode(4).unwrap()).unwrap();
    let ready = Instant::now() + Duration::from_secs(10);
    while server.established_sessions() < 1 {
        assert!(Instant::now() < ready, "session did not establish");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(threads(), before + 1 + 2, "one event loop thread plus one per shard core");

    server.shutdown();
    // `join` returns once a thread has finished running; the kernel drops
    // it from the count a moment later, at the end of its exit path.
    let gone = Instant::now() + Duration::from_secs(1);
    while threads() > before && Instant::now() < gone {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(threads(), before, "shutdown left runtime threads behind");
}
