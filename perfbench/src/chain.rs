//! The Fig. 3 testbed built from the harness's public parts: feeder →
//! device under test → sink on a CPU-accounted simulator, the same chain
//! `xbgp_harness::fig3` and `xbgp_harness::churn` run, fed with frames
//! this benchmark generated. The sink records when each UPDATE arrives so
//! the workloads can report propagation latency in virtual time.

use std::collections::HashSet;

use netsim::{LinkId, Node, NodeCtx, NodeId, Sim, SimConfig};
use rpki::Roa;
use xbgp_driver::{Daemon, DaemonSpec, Dut, DutNode};
use xbgp_harness::{Feeder, UseCase};
use xbgp_progs::{origin_validation, route_reflect};
use xbgp_wire::{Ipv4Prefix, Message, MsgReader, MsgType, OpenMsg, UpdateMsg};

pub const SEC: u64 = 1_000_000_000;
/// One-way delay of both simulated links (0.1 ms, as in Fig. 3).
const LINK_NS: u64 = 100_000;

/// One Fig. 4 configuration: a daemon, running the workload's feature
/// as extension bytecode or natively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    pub dut: Dut,
    pub ext: bool,
}

impl Cell {
    pub fn name(self) -> &'static str {
        match (self.dut, self.ext) {
            (Dut::Fir, true) => "fir_ext",
            (Dut::Fir, false) => "fir_native",
            (Dut::Wren, true) => "wren_ext",
            (Dut::Wren, false) => "wren_native",
        }
    }
}

/// The four configurations every netsim workload interleaves.
pub const CELLS: [Cell; 4] = [
    Cell { dut: Dut::Fir, ext: true },
    Cell { dut: Dut::Fir, ext: false },
    Cell { dut: Dut::Wren, ext: true },
    Cell { dut: Dut::Wren, ext: false },
];

/// The cells in the order repetition `rep` runs them: rotated every
/// repetition so no configuration always runs first or last.
pub fn rotation(rep: usize) -> impl Iterator<Item = Cell> {
    (0..CELLS.len()).map(move |i| CELLS[(i + rep) % CELLS.len()])
}

/// The daemon's configuration for `cell` under `use_case`, wired to the
/// upstream and downstream links (the construction `fig3::run_frames`
/// uses).
pub fn daemon_spec(
    cell: Cell,
    use_case: UseCase,
    up: LinkId,
    down: LinkId,
    roas: &[Roa],
) -> DaemonSpec {
    let ibgp = use_case == UseCase::RouteReflection;
    let (feeder_asn, dut_asn, sink_asn) = asns(use_case);
    let mut spec = DaemonSpec::new(dut_asn, 2);
    spec = if ibgp {
        spec.rr_client(up, 1, feeder_asn).rr_client(down, 3, sink_asn)
    } else {
        spec.neighbor(up, 1, feeder_asn).neighbor(down, 3, sink_asn)
    };
    match (use_case, cell.ext) {
        (UseCase::RouteReflection, false) => spec.native_rr = true,
        (UseCase::RouteReflection, true) => spec.xbgp = Some(route_reflect::manifest()),
        (UseCase::OriginValidation, false) => spec.native_rov = Some(roas.to_vec()),
        (UseCase::OriginValidation, true) => {
            spec.xbgp_roas = Some(roas.to_vec());
            spec.xbgp = Some(origin_validation::manifest());
        }
    }
    spec
}

/// `(feeder, DUT, sink)` ASNs: one AS for the iBGP reflection chain,
/// three for the eBGP validation chain.
pub fn asns(use_case: UseCase) -> (u32, u32, u32) {
    match use_case {
        UseCase::RouteReflection => (65000, 65000, 65000),
        UseCase::OriginValidation => (65001, 65002, 65003),
    }
}

/// A built chain, ready to run.
pub struct Chain {
    pub sim: Sim,
    pub feeder: NodeId,
    pub dut: NodeId,
    pub sink: NodeId,
}

impl Chain {
    /// Build the chain for `cell`. `feeder` carries the frames to send.
    pub fn new(cell: Cell, use_case: UseCase, feeder: Feeder, roas: &[Roa]) -> Chain {
        let (_, _, sink_asn) = asns(use_case);
        let mut sim = Sim::new(SimConfig { cpu_accounting: true });
        let f = sim.add_node(Box::new(feeder));
        let d = sim.add_node(Box::new(Placeholder));
        let s = sim.add_node(Box::new(LatencySink::new(sink_asn, 3)));
        let up = sim.connect(f, d, LINK_NS);
        let down = sim.connect(d, s, LINK_NS);
        let spec = daemon_spec(cell, use_case, up, down, roas);
        sim.replace_node(d, Box::new(xbgp_harness::build(cell.dut, spec)));
        Chain { sim, feeder: f, dut: d, sink: s }
    }

    pub fn daemon(&mut self) -> &mut dyn Daemon {
        self.sim.node_mut::<DutNode>(self.dut).0.as_mut()
    }

    pub fn sink(&mut self) -> &mut LatencySink {
        self.sim.node_mut::<LatencySink>(self.sink)
    }

    pub fn feeder(&mut self) -> &mut Feeder {
        self.sim.node_mut::<Feeder>(self.feeder)
    }

    /// Run in bounded virtual-time chunks until the sink holds `expected`
    /// distinct prefixes. Keepalive timers re-arm forever, so the event
    /// queue never drains; the bound turns a stuck run into an error.
    pub fn run_until_delivered(&mut self, expected: usize) -> Result<(), String> {
        let mut deadline = self.sim.now();
        loop {
            deadline += 120 * SEC;
            self.sim.run_until(deadline);
            let seen = self.sink().prefixes_seen();
            if seen >= expected {
                return Ok(());
            }
            if deadline > 1_000_000 * SEC {
                return Err(format!("table did not converge: {seen}/{expected} prefixes"));
            }
        }
    }

    /// Advance virtual time by `ns`.
    pub fn settle(&mut self, ns: u64) {
        let until = self.sim.now() + ns;
        self.sim.run_until(until);
    }
}

/// Stand-in that reserves the DUT's node id while its links are made.
struct Placeholder;

impl Node for Placeholder {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The downstream router: completes the handshake, counts distinct
/// announced prefixes and logs `(virtual time, routing updates)` for
/// every UPDATE received.
pub struct LatencySink {
    asn: u32,
    router_id: u32,
    link: Option<LinkId>,
    reader: MsgReader,
    seen: HashSet<Ipv4Prefix>,
    /// `(arrival time, announced + withdrawn prefixes)` per UPDATE.
    pub arrivals: Vec<(u64, u32)>,
    /// Virtual time of the most recent UPDATE carrying NLRI.
    pub last_prefix_rx: Option<u64>,
}

impl LatencySink {
    pub fn new(asn: u32, router_id: u32) -> LatencySink {
        LatencySink {
            asn,
            router_id,
            link: None,
            reader: MsgReader::new(),
            seen: HashSet::new(),
            arrivals: Vec::new(),
            last_prefix_rx: None,
        }
    }

    pub fn prefixes_seen(&self) -> usize {
        self.seen.len()
    }
}

impl Node for LatencySink {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let link = ctx.links()[0];
        self.link = Some(link);
        let open = Message::Open(OpenMsg::standard(self.asn, 180, self.router_id));
        ctx.send(link, &open.encode(4).expect("OPEN encodes"));
        ctx.set_timer(30 * SEC, 1);
    }

    fn on_data(&mut self, ctx: &mut NodeCtx<'_>, _link: LinkId, data: &[u8]) {
        self.reader.push(data);
        while let Ok(Some(frame)) = self.reader.next_frame() {
            match xbgp_wire::msg::deframe(&frame) {
                Ok((MsgType::Open, _)) => {
                    let link = self.link.expect("started");
                    ctx.send(link, &Message::Keepalive.encode(4).expect("KEEPALIVE encodes"));
                }
                Ok((MsgType::Update, body)) => {
                    if let Ok(upd) = UpdateMsg::decode_body(body, 4) {
                        let n = upd.nlri.len() + upd.withdrawn.len();
                        self.arrivals.push((ctx.now(), n as u32));
                        if !upd.nlri.is_empty() {
                            self.last_prefix_rx = Some(ctx.now());
                        }
                        self.seen.extend(upd.nlri);
                    }
                }
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
        if let Some(link) = self.link {
            ctx.send(link, &Message::Keepalive.encode(4).expect("KEEPALIVE encodes"));
            ctx.set_timer(30 * SEC, 1);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
