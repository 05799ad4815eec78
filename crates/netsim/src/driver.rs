//! # NodeDriver — drive one node outside a [`Sim`]
//!
//! The discrete-event [`Sim`](crate::Sim) owns the clock: time advances
//! only as queued events drain, which is exactly right for reproducible
//! experiments and exactly wrong for a socket runtime, where time is
//! wall-clock and stimuli arrive from the outside world. `NodeDriver`
//! closes that gap: it hosts a single [`Node`] behind the same `NodeCtx`
//! contract the simulator uses — the node cannot tell the difference —
//! but the *caller* supplies the clock and the inbound bytes, and reads
//! the outbound bytes back out.
//!
//! This is the seam the `xbgp-serve` TCP runtime plugs into: each shard
//! core owns one `NodeDriver` wrapping a daemon, the runtime's event loop
//! feeds the sessions' wire frames in over a channel, and whatever the
//! daemon sends on its links is fanned back out to the sockets. The daemon
//! remains the untouched single-threaded `Rc`-based implementation that
//! runs under `netsim` in the test harness.
//!
//! Semantics mirror [`Sim`] where both apply:
//!
//! * `on_start` runs once, at the time of the first [`NodeDriver::start`].
//! * Timers armed with [`NodeCtx::set_timer`] fire in `(due, arm-order)`
//!   order when [`NodeDriver::advance_to`] moves the clock past them;
//!   cancelling a token disarms every pending instance.
//! * [`NodeCtx::send`] output is captured per link, in emission order,
//!   and returned by [`NodeDriver::drain_outbound`]. There is no latency
//!   model — the transport on the other side of the seam provides one.
//! * The clock never moves backwards: stimuli delivered with a stale
//!   timestamp run at the latest time already observed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use crate::sim::{LinkId, Node, NodeCtx, NodeId};

/// A pending timer instance: fires at `due`, unless its `timer_id` has
/// been cancelled out of the active set.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct PendingTimer {
    due: u64,
    timer_id: u64,
    token: u64,
}

/// Hosts one [`Node`] outside a simulation. See the module docs.
pub struct NodeDriver {
    node: Box<dyn Node>,
    links: Vec<LinkId>,
    now: u64,
    seq: u64,
    timers: BinaryHeap<Reverse<PendingTimer>>,
    active_timers: HashMap<u64, HashSet<u64>>,
    outbound: Vec<(LinkId, Vec<u8>)>,
    started: bool,
}

impl NodeDriver {
    /// Host `node` with `n_links` attached links, numbered
    /// `LinkId(0)..LinkId(n_links)` in [`NodeCtx::links`] order. Build
    /// the node's configuration against those ids.
    pub fn new(node: Box<dyn Node>, n_links: usize) -> NodeDriver {
        NodeDriver {
            node,
            links: (0..n_links).map(LinkId).collect(),
            now: 0,
            seq: 0,
            timers: BinaryHeap::new(),
            active_timers: HashMap::new(),
            outbound: Vec::new(),
            started: false,
        }
    }

    /// The hosted node's links, in attachment order.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Latest time observed by the hosted node.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Run `on_start` at time `now_ns` (idempotent; later calls no-op).
    pub fn start(&mut self, now_ns: u64) {
        if self.started {
            return;
        }
        self.started = true;
        self.advance_to(now_ns);
        self.dispatch(|node, ctx| node.on_start(ctx));
    }

    /// Deliver stream bytes on `link` at time `now_ns`, firing any timers
    /// due first.
    pub fn deliver(&mut self, now_ns: u64, link: LinkId, data: &[u8]) {
        debug_assert!(self.started, "deliver before start");
        self.advance_to(now_ns);
        self.dispatch(|node, ctx| node.on_data(ctx, link, data));
    }

    /// Report an administrative link transition at time `now_ns`.
    pub fn link_event(&mut self, now_ns: u64, link: LinkId, up: bool) {
        debug_assert!(self.started, "link event before start");
        self.advance_to(now_ns);
        self.dispatch(|node, ctx| node.on_link_event(ctx, link, up));
    }

    /// Advance the clock to `now_ns`, firing every timer due on the way
    /// in `(due, arm-order)` order. A stale `now_ns` (before the current
    /// clock) leaves the clock unchanged.
    pub fn advance_to(&mut self, now_ns: u64) {
        loop {
            let due = match self.timers.peek() {
                Some(Reverse(t)) if t.due <= now_ns => t.due,
                _ => break,
            };
            let Reverse(t) = self.timers.pop().expect("peeked");
            self.now = self.now.max(due);
            let live =
                self.active_timers.get_mut(&t.token).is_some_and(|set| set.remove(&t.timer_id));
            if live {
                let token = t.token;
                self.dispatch(|node, ctx| node.on_timer(ctx, token));
            }
        }
        self.now = self.now.max(now_ns);
    }

    /// Take the `(link, bytes)` stream chunks the node emitted since the
    /// last drain, in emission order.
    pub fn drain_outbound(&mut self) -> Vec<(LinkId, Vec<u8>)> {
        std::mem::take(&mut self.outbound)
    }

    /// Borrow the hosted node downcast to its concrete type. Panics on
    /// type mismatch — a caller bug, not a runtime condition.
    pub fn node_ref<T: 'static>(&mut self) -> &T {
        self.node.as_any_mut().downcast_ref::<T>().expect("node type mismatch")
    }

    /// Mutably borrow the hosted node downcast to its concrete type.
    pub fn node_mut<T: 'static>(&mut self) -> &mut T {
        self.node.as_any_mut().downcast_mut::<T>().expect("node type mismatch")
    }

    /// Run one handler at the current clock and apply the actions it
    /// queued (captured sends, armed/cancelled timers).
    fn dispatch(&mut self, call: impl FnOnce(&mut dyn Node, &mut NodeCtx<'_>)) {
        let mut ctx = NodeCtx::standalone(self.now, NodeId(0), &self.links);
        call(self.node.as_mut(), &mut ctx);
        for action in ctx.into_actions() {
            match action {
                crate::sim::Action::Send { link, data } => self.outbound.push((link, data)),
                crate::sim::Action::SetTimer { delay, token } => {
                    let timer_id = self.seq;
                    self.seq += 1;
                    self.active_timers.entry(token).or_default().insert(timer_id);
                    self.timers.push(Reverse(PendingTimer {
                        due: self.now + delay,
                        timer_id,
                        token,
                    }));
                }
                crate::sim::Action::CancelTimer { token } => {
                    self.active_timers.remove(&token);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    /// Records stimuli; echoes data; arms a periodic timer at start.
    struct Probe {
        data: Vec<(u64, LinkId, Vec<u8>)>,
        timers: Vec<(u64, u64)>,
        link_events: Vec<(LinkId, bool)>,
    }

    impl Node for Probe {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(100, 7);
            ctx.send(ctx.links()[0], b"hello");
        }
        fn on_data(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, data: &[u8]) {
            self.data.push((ctx.now(), link, data.to_vec()));
            ctx.send(link, data);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
            self.timers.push((ctx.now(), token));
            if self.timers.len() < 3 {
                ctx.set_timer(100, token);
            }
        }
        fn on_link_event(&mut self, _ctx: &mut NodeCtx<'_>, link: LinkId, up: bool) {
            self.link_events.push((link, up));
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn probe() -> Probe {
        Probe {
            data: Vec::new(),
            timers: Vec::new(),
            link_events: Vec::new(),
        }
    }

    #[test]
    fn start_deliver_and_drain_round_trip() {
        let mut d = NodeDriver::new(Box::new(probe()), 2);
        assert_eq!(d.links(), &[LinkId(0), LinkId(1)]);
        d.start(5);
        d.deliver(10, LinkId(1), b"ping");
        let out = d.drain_outbound();
        assert_eq!(out, vec![(LinkId(0), b"hello".to_vec()), (LinkId(1), b"ping".to_vec())]);
        assert!(d.drain_outbound().is_empty(), "drain takes");
        let p: &Probe = d.node_ref();
        assert_eq!(p.data, vec![(10, LinkId(1), b"ping".to_vec())]);
    }

    #[test]
    fn timers_fire_on_advance_in_due_order() {
        let mut d = NodeDriver::new(Box::new(probe()), 1);
        d.start(0);
        // Periodic timer: due at 100, re-arms twice more.
        d.advance_to(1_000);
        let p: &Probe = d.node_ref();
        assert_eq!(p.timers, vec![(100, 7), (200, 7), (300, 7)]);
        assert_eq!(d.now(), 1_000);
    }

    #[test]
    fn stale_clock_never_rewinds() {
        let mut d = NodeDriver::new(Box::new(probe()), 1);
        d.start(500);
        d.deliver(100, LinkId(0), b"late");
        let p: &Probe = d.node_ref();
        assert_eq!(p.data[0].0, 500, "stale timestamp clamps to current clock");
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        struct C;
        impl Node for C {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(10, 1);
                ctx.cancel_timer(1);
            }
            fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {
                panic!("cancelled timer fired");
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut d = NodeDriver::new(Box::new(C), 0);
        d.start(0);
        d.advance_to(1_000);
    }

    #[test]
    fn link_events_reach_the_node() {
        let mut d = NodeDriver::new(Box::new(probe()), 1);
        d.start(0);
        d.link_event(50, LinkId(0), false);
        d.link_event(60, LinkId(0), true);
        let p: &Probe = d.node_ref();
        assert_eq!(p.link_events, vec![(LinkId(0), false), (LinkId(0), true)]);
    }
}
