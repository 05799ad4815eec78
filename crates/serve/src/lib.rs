//! # xbgp-serve — many-peer TCP runtime for the xBGP daemons
//!
//! The netsim harnesses drive fir and wren in virtual time; this crate
//! drives the **same daemons, unmodified,** over real TCP sockets with
//! hundreds of concurrent peers. The daemon never learns it left the
//! simulator: it still lives single-threaded behind
//! [`netsim::NodeDriver`], configured through the same
//! [`xbgp_driver::DaemonSpec`], and speaks wire frames over `LinkId`s
//! that now mean session slots instead of simulated cables.
//!
//! Layer map (wire frames on every edge between threads):
//!
//! * [`server`] — one event loop thread owns the listener and every
//!   session. It blocks in `poll(2)` ([`poll`]) until a socket is ready,
//!   a core wakes it, or the next FSM deadline is due. Each session is a
//!   [`conn::Conn`]: a nonblocking socket, a real BGP FSM
//!   ([`xbgp_wire::Session`]: OPEN/KEEPALIVE/NOTIFICATION, hold-timer
//!   enforcement, NOTIFY-and-close on malformed input) and an out buffer.
//! * [`daemon_core`] — one thread per shard core, each a daemon on a
//!   `NodeDriver` owning a disjoint prefix slice; the loop hands it
//!   validated UPDATE frames over a bounded channel, and best-path
//!   changes come back through per-session outboxes plus a wake byte.
//! * [`split`] — cuts UPDATE frames along prefix-hash shard boundaries
//!   without re-encoding attribute bytes.
//! * [`client`] — loopback test peers, all driven from one thread over
//!   the same `Conn`; [`selftest`] — end-to-end parity harness (TCP
//!   Loc-RIB ≡ netsim-replay Loc-RIB ≡ oracle); [`bench`](mod@bench) — the
//!   peer-scaling grid behind `BENCH_peer_scaling.json`.

pub mod bench;
pub mod client;
pub mod conn;
pub mod daemon_core;
pub mod poll;
pub mod selftest;
pub mod server;
pub mod split;

pub use client::{ClientOutcome, ClientPlan};
pub use selftest::{SelftestOutcome, SelftestSpec};
pub use server::{ServeConfig, Server};
pub use split::split_update;
