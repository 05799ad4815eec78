//! The traced run: per-layer metrics that stand beside the end-to-end
//! ones, for one workload and seed.
//!
//! Each daemon (FIR and WREN, with the workload's bytecode, metrics on)
//! is hosted on a [`netsim::NodeDriver`] the way `xbgp_serve::daemon_core`
//! hosts one, and fed the workload's stream frame by frame. Every
//! `deliver` and `drain_outbound` call is a span carrying the UPDATE's id.
//! After each UPDATE the benchmark replays that frame, its attributes and
//! its prefixes through the layer functions one by one, recording each
//! replay as a span under the same id. The replays run in isolation, not
//! nested inside `deliver`, so `deliver` minus the sum of its replays is
//! reported as `*.unattributed_ns`, not as measured self time. For
//! `serve_tcp` the TCP peer also records connect, write and receive spans.
//! Spans stay in memory and are written to `out/` when the run ends.

use std::collections::{BTreeMap, HashSet};
use std::io::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bgp_fir::attrs::{AttrInternTable, FirAttrs};
use bgp_wren::ealist::EaList;
use bgp_wren::rtable::{RTable, Rte, SrcId};
use netsim::{LinkId, NodeDriver};
use rpki::{RoaHashTable, RoaTable, RoaTrie, RovState};
use xbgp_core::api::{InsertionPoint, PeerType};
use xbgp_core::host::MockHost;
use xbgp_core::{HostApi, HostError, HostOp, Manifest, NextHopInfo, PeerInfo, Vmm};
use xbgp_driver::{Dut, DutNode};
use xbgp_harness::UseCase;
use xbgp_obs::{MetricValue, Snapshot};
use xbgp_rib::{DirtySet, PrefixMap};
use xbgp_wire::{
    Ipv4Prefix, Message, MsgReader, OpenMsg, RawAttrIter, Session, SessionConfig, SessionEvent,
    UpdateMsg,
};

use crate::chain::{asns, daemon_spec, Cell};
use crate::churn::CHURN_ROUNDS;
use crate::inputs::{self, Inputs};
use crate::report::{median, quantile, Report};
use crate::serve::{self, Plan, SERVE_ROUNDS};
use crate::{Scale, Workload};

/// Every per-layer metric, with its unit. A traced run emits all of them;
/// a layer the workload's path does not cross reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("routegen.gen_s", "s"),
    ("vm.verify_us", "us"),
    ("vm.absint_us", "us"),
    ("vm.predecode_us", "us"),
    ("vmm.load_us", "us"),
    ("vmm.run_ns.bgp_inbound_filter", "ns"),
    ("vmm.run_ns.bgp_outbound_filter", "ns"),
    ("vmm.run_ns.bgp_encode_message", "ns"),
    ("vmm.runs_per_update", "runs/update"),
    ("vmm.fallback_frac", "fraction"),
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.session_ns", "ns"),
    ("wire.bytes_per_update", "bytes"),
    ("fir.from_wire_ns", "ns"),
    ("fir.to_wire_ns", "ns"),
    ("fir.intern_share", "fraction"),
    ("fir.deliver_ns", "ns"),
    ("fir.drain_ns", "ns"),
    ("fir.unattributed_ns", "ns"),
    ("wren.from_wire_ns", "ns"),
    ("wren.to_wire_ns", "ns"),
    ("wren.rtable_update_ns", "ns"),
    ("wren.rtable_withdraw_ns", "ns"),
    ("wren.deliver_ns", "ns"),
    ("wren.drain_ns", "ns"),
    ("wren.unattributed_ns", "ns"),
    ("rpki.trie_ns", "ns"),
    ("rpki.hash_ns", "ns"),
    ("rpki.valid_frac", "fraction"),
    ("rib.insert_ns", "ns"),
    ("rib.remove_ns", "ns"),
    ("rib.get_ns", "ns"),
    ("rib.dirty_drain_ns", "ns"),
    ("serve.connect_ms", "ms"),
    ("serve.write_ns", "ns"),
    ("serve.absorb_lag_ms", "ms"),
    ("serve.cpu_busy_frac", "fraction"),
    ("serve.backlog_max", "updates"),
    ("serve.gen_late_p99_ms", "ms"),
    ("serve.latency_samples", "count"),
    ("trace.overhead_pct", "%"),
];

/// One timed call: which update, which layer, when.
struct Span {
    id: u32,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store plus per-layer totals.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` as a span of `layer` under update `id`; returns its result
    /// and duration in ns.
    fn span<R>(&mut self, id: u32, layer: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let start_ns = self.now();
        let r = std::hint::black_box(f());
        let end_ns = self.now();
        self.record(id, layer, start_ns, end_ns);
        (r, end_ns - start_ns)
    }

    /// Record a span measured elsewhere, as instants.
    fn record_at(&mut self, id: u32, layer: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.record(id, layer, ns(start), ns(end));
    }

    fn record(&mut self, id: u32, layer: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span { id, layer, start_ns, end_ns });
        let t = self.totals.entry(layer).or_default();
        t.0 += end_ns - start_ns;
        t.1 += 1;
    }

    /// Mean ns per call of `layer` (0 when it never ran).
    fn mean(&self, layer: &str) -> f64 {
        self.totals.get(layer).map_or(0.0, |&(ns, n)| ns as f64 / n.max(1) as f64)
    }

    /// Write every span as one JSON object per line.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.layer, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// The stream a traced pass feeds the daemon: frames delivered untraced
/// first (set-up, e.g. the converging table of `churn_rr`), then the
/// measured rounds.
struct Stream<'a> {
    warmup: &'a [Vec<u8>],
    rounds: Vec<&'a [Vec<u8>]>,
}

impl Stream<'_> {
    fn frames(&self) -> impl Iterator<Item = &Vec<u8>> {
        self.rounds.iter().flat_map(|r| r.iter())
    }
}

/// Host `cell` on a `NodeDriver` with the upstream on link 0 and the
/// downstream on link 1, both sessions brought up the way the serve core
/// does it: a synthetic OPEN with hold time 0, then a KEEPALIVE.
fn host(cell: Cell, use_case: UseCase, roas: &[rpki::Roa]) -> NodeDriver {
    let mut spec = daemon_spec(cell, use_case, LinkId(0), LinkId(1), roas);
    spec.hold_time_secs = 0;
    spec.metrics = true;
    let (up_asn, _, down_asn) = asns(use_case);
    let mut d = NodeDriver::new(Box::new(xbgp_harness::build(cell.dut, spec)), 2);
    d.start(0);
    for (link, asn, addr) in [(0, up_asn, 1), (1, down_asn, 3)] {
        let open = Message::Open(OpenMsg::standard(asn, 0, addr)).encode(4).expect("OPEN encodes");
        d.deliver(0, LinkId(link), &open);
        d.deliver(0, LinkId(link), &Message::Keepalive.encode(4).expect("KEEPALIVE encodes"));
    }
    d.drain_outbound();
    d
}

/// UPDATE frames in `bytes`, the DUT's output on one link.
fn frames_of(bytes: &[(LinkId, Vec<u8>)], link: LinkId) -> Vec<Vec<u8>> {
    let mut reader = MsgReader::new();
    for (l, b) in bytes {
        if *l == link {
            reader.push(b);
        }
    }
    let mut out = Vec::new();
    while let Ok(Some(f)) = reader.next_frame() {
        if matches!(xbgp_wire::msg::deframe(&f), Ok((xbgp_wire::MsgType::Update, _))) {
            out.push(f);
        }
    }
    out
}

/// The replay host: a [`MockHost`] whose `check_origin` queries a ROA
/// hash table, the store both daemons put behind `rpki_check_origin`, so
/// a replayed VM run pays the lookup and takes the branch the daemon does.
struct RovHost<'a> {
    mock: &'a mut MockHost,
    rov: &'a RoaHashTable,
}

impl HostApi for RovHost<'_> {
    fn peer_info(&self) -> PeerInfo {
        self.mock.peer_info()
    }
    fn nexthop_info(&self) -> Option<NextHopInfo> {
        self.mock.nexthop_info()
    }
    fn prefix(&self) -> Option<Ipv4Prefix> {
        self.mock.prefix()
    }
    fn arg(&self, idx: u32) -> Option<&[u8]> {
        self.mock.arg(idx)
    }
    fn get_attr_into(&self, code: u8, out: &mut Vec<u8>) -> Option<u8> {
        self.mock.get_attr_into(code, out)
    }
    fn has_attr(&self, code: u8) -> bool {
        self.mock.has_attr(code)
    }
    fn check_op(&self, op: &HostOp<'_>) -> Result<(), HostError> {
        self.mock.check_op(op)
    }
    fn set_attr(&mut self, code: u8, flags: u8, value: &[u8]) -> Result<(), HostError> {
        self.mock.set_attr(code, flags, value)
    }
    fn remove_attr(&mut self, code: u8) -> Result<(), HostError> {
        self.mock.remove_attr(code)
    }
    fn get_xtra(&self, key: &str) -> Option<Vec<u8>> {
        self.mock.get_xtra(key)
    }
    fn write_buf(&mut self, data: &[u8]) -> Result<(), HostError> {
        self.mock.write_buf(data)
    }
    fn check_origin(&self, prefix: Ipv4Prefix, origin_asn: u32) -> u64 {
        self.rov.validate(prefix, origin_asn) as u8 as u64
    }
    fn rib_add_route(&mut self, prefix: Ipv4Prefix, nexthop: u32) -> Result<(), HostError> {
        self.mock.rib_add_route(prefix, nexthop)
    }
    fn log(&mut self, msg: &str) {
        self.mock.log(msg)
    }
}

/// The isolated layer replays one daemon pass runs after each update.
struct Replayer {
    dut: Dut,
    intern: AttrInternTable,
    interned: u64,
    trie: RoaTrie,
    hash: RoaHashTable,
    lookups: u64,
    valid: u64,
    rib: PrefixMap<u32>,
    dirty: DirtySet,
    rtable: RTable,
    vmm: Vmm,
    points: Vec<InsertionPoint>,
    host: MockHost,
    /// A session already Established, consuming the stream's frames.
    session: Session,
}

/// Two in-memory session ends run through the handshake; returns the
/// receiving end, Established.
fn established_session() -> Session {
    let cfg = |asn, id| SessionConfig {
        local_asn: asn,
        router_id: id,
        hold_time_secs: 0,
        expect_asn: None,
    };
    let (mut a, mut b) = (Session::new(cfg(65001, 1)), Session::new(cfg(65002, 2)));
    let mut to_b: Vec<u8> = Vec::new();
    let mut to_a: Vec<u8> = Vec::new();
    let sends = |evs: Vec<SessionEvent>, out: &mut Vec<u8>| {
        for e in evs {
            if let SessionEvent::Send(bytes) = e {
                out.extend(bytes);
            }
        }
    };
    sends(a.start(0), &mut to_b);
    sends(b.start(0), &mut to_a);
    for _ in 0..4 {
        let (ab, ba) = (std::mem::take(&mut to_b), std::mem::take(&mut to_a));
        sends(b.on_bytes(0, &ab), &mut to_a);
        sends(a.on_bytes(0, &ba), &mut to_b);
    }
    debug_assert_eq!(b.state(), xbgp_wire::SessionState::Established);
    b
}

impl Replayer {
    fn new(dut: Dut, use_case: UseCase, manifest: &Manifest, roas: &[rpki::Roa]) -> Replayer {
        let (mut trie, mut hash) = (RoaTrie::new(), RoaHashTable::new());
        for roa in roas {
            trie.insert(*roa);
            hash.insert(*roa);
        }
        let mut host = MockHost::default();
        if use_case == UseCase::RouteReflection {
            host.peer.peer_type = PeerType::Ibgp;
            host.peer.asn = 65000;
            host.peer.local_asn = 65000;
        }
        let points = InsertionPoint::ALL
            .iter()
            .copied()
            .filter(|p| manifest.extensions.iter().any(|e| e.insertion_point == *p))
            .collect();
        Replayer {
            dut,
            intern: AttrInternTable::new(),
            interned: 0,
            trie,
            hash,
            lookups: 0,
            valid: 0,
            rib: PrefixMap::new(),
            dirty: DirtySet::new(),
            rtable: RTable::new(),
            vmm: Vmm::from_manifest(manifest).expect("shipped manifest loads"),
            points,
            host,
            session: established_session(),
        }
    }

    /// Run every VM point the manifest uses for one route on the replay
    /// host; returns the ns spent.
    fn vm_runs(&mut self, t: &mut Tracer, id: u32, points: &[InsertionPoint]) -> u64 {
        let mut ns = 0;
        for &p in points {
            if !self.points.contains(&p) {
                continue;
            }
            let layer = match p {
                InsertionPoint::BgpInboundFilter => "vmm.run_ns.bgp_inbound_filter",
                InsertionPoint::BgpOutboundFilter => "vmm.run_ns.bgp_outbound_filter",
                _ => "vmm.run_ns.bgp_encode_message",
            };
            let vmm = &mut self.vmm;
            let mut host = RovHost { mock: &mut self.host, rov: &self.hash };
            ns += t.span(id, layer, || vmm.run(p, &mut host)).1;
        }
        ns
    }

    /// Replay one input UPDATE frame through this daemon's layers. Returns
    /// the ns attributable to the daemon's `deliver`.
    fn input(&mut self, t: &mut Tracer, id: u32, frame: &[u8], ext: bool) -> u64 {
        // The TCP edge's framing and FSM: not part of `deliver`.
        t.span(id, "wire.session", || self.session.on_bytes(0, frame));
        let (msg, mut ns) = t.span(id, "wire.decode", || Message::decode(frame, 4));
        let Ok(Message::Update(upd)) = msg else {
            return ns;
        };
        // WREN's table stores the converted list; FIR's RIB stores an id.
        let mut ealist = None;
        if !upd.attrs.is_empty() {
            ns += match self.dut {
                Dut::Fir => {
                    let intern = &mut self.intern;
                    self.interned += 1;
                    t.span(id, "fir.from_wire", || {
                        FirAttrs::from_wire(&upd.attrs).map(|a| intern.intern(a))
                    })
                    .1
                }
                Dut::Wren => {
                    let (list, ns) = t.span(id, "wren.from_wire", || EaList::from_wire(&upd.attrs));
                    ealist = list.ok().map(Rc::new);
                    ns
                }
            };
        }
        let raw = raw_attrs(frame);
        let origin = upd.attrs.iter().find_map(|a| match a {
            xbgp_wire::PathAttr::AsPath(p) => p.asns().last(),
            _ => None,
        });
        self.host.attrs = raw;
        for p in &upd.nlri {
            self.host.prefix = Some(*p);
            let origin = origin.unwrap_or(0);
            let (state, rov_ns) = match self.dut {
                Dut::Fir => t.span(id, "rpki.trie", || self.trie.validate(*p, origin)),
                Dut::Wren => t.span(id, "rpki.hash", || self.hash.validate(*p, origin)),
            };
            self.lookups += 1;
            self.valid += u64::from(state == RovState::Valid);
            if ext {
                ns += self.vm_runs(t, id, &[InsertionPoint::BgpInboundFilter]);
            } else {
                ns += rov_ns;
            }
            ns += match self.dut {
                Dut::Fir => {
                    let rib = &mut self.rib;
                    let a = t.span(id, "rib.insert", || rib.insert(*p, id)).1;
                    let b = t.span(id, "rib.get", || rib.get(p).copied()).1;
                    let dirty = &mut self.dirty;
                    a + b + t.span(id, "rib.dirty_mark", || dirty.mark(*p)).1
                }
                Dut::Wren => {
                    let ea = ealist.clone().unwrap_or_default();
                    let rte = Rte {
                        src: SrcId::Channel(0),
                        src_addr: 1,
                        src_asn: 65001,
                        src_ibgp: false,
                        src_rr_client: false,
                        eattrs: ea,
                        rov: None,
                    };
                    let table = &mut self.rtable;
                    let mut better =
                        |a: &Rte, b: &Rte| a.eattrs.as_path_hops() < b.eattrs.as_path_hops();
                    t.span(id, "wren.rtable_update", || table.update(*p, rte, &mut better)).1
                }
            };
        }
        for p in &upd.withdrawn {
            ns += match self.dut {
                Dut::Fir => {
                    let rib = &mut self.rib;
                    let a = t.span(id, "rib.remove", || rib.remove(p)).1;
                    let b = t.span(id, "rib.get", || rib.get(p).copied()).1;
                    let dirty = &mut self.dirty;
                    a + b + t.span(id, "rib.dirty_mark", || dirty.mark(*p)).1
                }
                Dut::Wren => {
                    let table = &mut self.rtable;
                    t.span(id, "wren.rtable_withdraw", || table.withdraw(*p, SrcId::Channel(0))).1
                }
            };
        }
        if self.dut == Dut::Fir {
            let dirty = &mut self.dirty;
            ns += t.span(id, "rib.dirty_drain", || dirty.drain_ordered()).1;
        }
        ns
    }

    /// Replay one UPDATE the daemon exported: attribute conversion back to
    /// wire form, the export-side VM points, and the encode.
    fn export(&mut self, t: &mut Tracer, id: u32, frame: &[u8]) -> u64 {
        let Ok(Message::Update(upd)) = Message::decode(frame, 4) else {
            return 0;
        };
        let mut ns = 0;
        if !upd.attrs.is_empty() {
            ns += match self.dut {
                Dut::Fir => match FirAttrs::from_wire(&upd.attrs) {
                    Ok(a) => t.span(id, "fir.to_wire", || a.to_wire()).1,
                    Err(_) => 0,
                },
                Dut::Wren => match EaList::from_wire(&upd.attrs) {
                    Ok(a) => t.span(id, "wren.to_wire", || a.to_wire()).1,
                    Err(_) => 0,
                },
            };
            self.host.attrs = raw_attrs(frame);
            for p in &upd.nlri {
                self.host.prefix = Some(*p);
                ns += self.vm_runs(
                    t,
                    id,
                    &[InsertionPoint::BgpOutboundFilter, InsertionPoint::BgpEncodeMessage],
                );
            }
        }
        let msg = Message::Update(upd);
        ns + t.span(id, "wire.encode", || msg.encode(4)).1
    }
}

/// `(code, flags, value)` of every path attribute in an UPDATE frame.
fn raw_attrs(frame: &[u8]) -> Vec<(u8, u8, Vec<u8>)> {
    let Ok((_, body)) = xbgp_wire::msg::deframe(frame) else {
        return Vec::new();
    };
    let Ok(section) = UpdateMsg::attr_section(body) else {
        return Vec::new();
    };
    RawAttrIter::new(section)
        .flatten()
        .map(|a| (a.code, a.flags.0, a.value.to_vec()))
        .collect()
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.metrics
        .iter()
        .filter(|m| m.name == name)
        .map(|m| match m.value {
            MetricValue::Counter(n) => n,
            _ => 0,
        })
        .sum()
}

/// What one daemon pass measured.
struct Pass {
    /// Wall ns of the pass, replays excluded.
    wall_ns: u64,
    updates: u64,
    vmm_runs: u64,
    vmm_fallbacks: u64,
}

/// Feed `stream` to `cell` on a `NodeDriver`. With a tracer, every
/// `deliver`/`drain_outbound` is a span and each update is replayed
/// through the layers; `deliver` minus the replays accumulates into
/// `<dut>.unattributed`.
fn daemon_pass(
    cell: Cell,
    use_case: UseCase,
    inputs: &Inputs,
    stream: &Stream,
    mut trace: Option<(&mut Tracer, &mut Replayer)>,
) -> Pass {
    let mut d = host(cell, use_case, &inputs.roas);
    let mut now = 1_000u64;
    for f in stream.warmup {
        d.deliver(now, LinkId(0), f);
        d.drain_outbound();
        now += 1_000;
    }
    let (deliver, drain, unattributed) = match cell.dut {
        Dut::Fir => ("fir.deliver", "fir.drain", "fir.unattributed"),
        Dut::Wren => ("wren.deliver", "wren.drain", "wren.unattributed"),
    };
    let rx0 = d.node_mut::<DutNode>().0.counters().routing_updates_rx();
    let start = Instant::now();
    let mut replay_ns = 0u64;
    for (id, f) in stream.frames().enumerate() {
        let id = id as u32;
        match trace.as_mut() {
            None => {
                d.deliver(now, LinkId(0), f);
                d.drain_outbound();
            }
            Some((t, r)) => {
                let (_, deliver_ns) = t.span(id, deliver, || d.deliver(now, LinkId(0), f));
                let (out, _) = t.span(id, drain, || d.drain_outbound());
                let r0 = Instant::now();
                let mut layers = r.input(t, id, f, cell.ext);
                for e in frames_of(&out, LinkId(1)) {
                    layers += r.export(t, id, &e);
                }
                replay_ns += r0.elapsed().as_nanos() as u64;
                let self_ns = deliver_ns.saturating_sub(layers);
                t.totals.entry(unattributed).or_default().0 += self_ns;
                t.totals.entry(unattributed).or_default().1 += 1;
            }
        }
        now += 1_000;
    }
    let wall_ns = (start.elapsed().as_nanos() as u64).saturating_sub(replay_ns);
    let dm = &mut d.node_mut::<DutNode>().0;
    let updates = dm.counters().routing_updates_rx() - rx0;
    let snap = dm.metrics_snapshot();
    Pass {
        wall_ns,
        updates,
        vmm_runs: counter(&snap, "xbgp_vmm_runs_total"),
        vmm_fallbacks: counter(&snap, "xbgp_vmm_fallbacks_total"),
    }
}

/// Load-time cost of the workload's programs: verifier, abstract
/// interpreter and pre-decode per extension, and a whole-manifest VMM
/// build. Medians of `reps` timings, in µs.
fn program_load(manifest: &Manifest, report: &mut Report, reps: usize) {
    let (mut verify, mut absint, mut predecode, mut load) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let (mut v, mut a, mut p) = (0.0, 0.0, 0.0);
        for ext in &manifest.extensions {
            let prog = ext.program().expect("shipped bytecode decodes");
            let ids: HashSet<u32> =
                ext.helper_ids().expect("shipped helpers resolve").into_iter().collect();
            let t = Instant::now();
            let ok = xbgp_vm::verify(&prog, &ids);
            v += t.elapsed().as_secs_f64();
            assert!(ok.is_ok(), "shipped program verifies");
            let t = Instant::now();
            let mut lp = xbgp_vm::LoadedProgram::load(&prog);
            p += t.elapsed().as_secs_f64();
            let opts = xbgp_core::analysis_options(ext.insertion_point);
            let t = Instant::now();
            let _ = std::hint::black_box(xbgp_vm::absint::analyze(&mut lp, &prog, &opts));
            a += t.elapsed().as_secs_f64();
        }
        verify.push(v * 1e6);
        absint.push(a * 1e6);
        predecode.push(p * 1e6);
        let t = Instant::now();
        let vmm = Vmm::from_manifest(manifest).expect("shipped manifest loads");
        load.push(t.elapsed().as_secs_f64() * 1e6);
        drop(std::hint::black_box(vmm));
    }
    report.push("vm.verify_us", "us", median(&verify));
    report.push("vm.absint_us", "us", median(&absint));
    report.push("vm.predecode_us", "us", median(&predecode));
    report.push("vmm.load_us", "us", median(&load));
}

/// The TCP phases of one `serve_tcp` repetition, with peer-side spans:
/// connect, every `write` call, every chunk read through the session FSM,
/// and each paced update from its due time to its arrival.
fn serve_phases(plan: &Plan, scale: &Scale, tracer: &mut Tracer, report: &mut Report) {
    report.attempted += plan.total_updates();
    let c0 = tracer.now();
    let Some(mut tcp) = serve::tcp_rep(plan, scale, report, true, true) else {
        return;
    };
    let paced = tcp.paced.take().expect("a paced cycle paces");
    tracer.record(0, "serve.connect", c0, c0 + (tcp.connect_s * 1e9) as u64);
    for (i, (layer, start, end)) in
        tcp.clock.spans.take().unwrap_or_default().into_iter().enumerate()
    {
        tracer.record_at(i as u32, layer, start, end);
    }
    for &(index, due, received) in &paced.propagated {
        let at = |ns: u64| tcp.epoch + Duration::from_nanos(ns);
        tracer.record_at(index as u32, "serve.propagate", at(due), at(received));
    }
    let (head, clock) = (&tcp.blast, &tcp.clock);
    report.push("serve.connect_ms", "ms", tcp.connect_s * 1e3);
    report.push(
        "serve.write_ns",
        "ns",
        clock.write_ns as f64 / clock.frames_written.max(1) as f64,
    );
    report.push("serve.absorb_lag_ms", "ms", head.absorb_lag_s * 1e3);
    report.push("serve.cpu_busy_frac", "fraction", head.cpu_s / head.wall_s);
    report.push("serve.backlog_max", "updates", paced.backlog_max as f64);
    report.push("serve.gen_late_p99_ms", "ms", quantile(&paced.lateness, 0.99));
    report.push("serve.latency_samples", "count", paced.samples.len() as f64);
    report.notes.push(format!(
        "serve: peer read {} frames, Session::on_bytes {:.0} ns per frame",
        clock.frames_read,
        clock.session_ns as f64 / clock.frames_read.max(1) as f64
    ));
}

pub fn run(workload: Workload, seed: u64, seconds: f64, scale: &Scale) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let started = Instant::now();

    let (routes, rounds, local_pref, use_case) = match workload {
        Workload::TableOv => (scale.table_routes, 0, None, UseCase::OriginValidation),
        Workload::ChurnRr => {
            (scale.churn_routes, CHURN_ROUNDS, Some(100), UseCase::RouteReflection)
        }
        Workload::ServeTcp => (scale.serve_routes, SERVE_ROUNDS, None, UseCase::OriginValidation),
    };
    let mut gen = Vec::new();
    let mut inputs = None;
    for _ in 0..3 {
        let t = Instant::now();
        inputs = Some(inputs::generate(routes, rounds, seed, local_pref));
        gen.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("generated");
    report.push("routegen.gen_s", "s", median(&gen));

    let manifest = match use_case {
        UseCase::RouteReflection => xbgp_progs::route_reflect::manifest(),
        UseCase::OriginValidation => xbgp_progs::origin_validation::manifest(),
    };
    program_load(&manifest, &mut report, 21);

    // The stream each daemon pass replays: `churn_rr` converges on the
    // table untraced and traces its storm; the others trace everything.
    let churn = workload == Workload::ChurnRr;
    let table = &inputs.table_frames[..];
    let mut rounds: Vec<&[Vec<u8>]> = if churn { Vec::new() } else { vec![table] };
    rounds.extend(inputs.round_frames.iter().map(Vec::as_slice));
    let stream = Stream { warmup: if churn { table } else { &[] }, rounds };
    let stream_updates = if churn { 0 } else { inputs.routes.len() as u64 } + inputs.churn_updates;
    let bytes: usize = stream.frames().map(|f| f.len()).sum();
    report.push("wire.bytes_per_update", "bytes", bytes as f64 / stream_updates.max(1) as f64);

    // Tracing overhead: untraced and traced passes of FIR with the
    // bytecode, alternated after the traced passes above have warmed the
    // process; replays are excluded from the traced time.
    let fir = Cell { dut: Dut::Fir, ext: true };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut passes: Vec<(Cell, Pass)> = Vec::new();
    for cell in [fir, Cell { dut: Dut::Wren, ext: true }] {
        let mut r = Replayer::new(cell.dut, use_case, &manifest, &inputs.roas);
        let pass = daemon_pass(cell, use_case, &inputs, &stream, Some((&mut tracer, &mut r)));
        report.attempted += stream_updates;
        report.fail(
            pass.updates.abs_diff(stream_updates),
            format!("traced {}: absorbed {} of {stream_updates}", cell.name(), pass.updates),
        );
        if cell.dut == Dut::Fir {
            report.push(
                "fir.intern_share",
                "fraction",
                r.intern.len() as f64 / r.interned.max(1) as f64,
            );
            report.push("rpki.valid_frac", "fraction", r.valid as f64 / r.lookups.max(1) as f64);
        }
        passes.push((cell, pass));
    }
    let budget = started.elapsed().as_secs_f64();
    for i in 0..4 {
        if i >= 1 && started.elapsed().as_secs_f64() + budget > seconds {
            break;
        }
        plain.push(daemon_pass(fir, use_case, &inputs, &stream, None).wall_ns as f64);
        let mut r = Replayer::new(Dut::Fir, use_case, &manifest, &inputs.roas);
        let mut scratch = Tracer::new();
        traced.push(
            daemon_pass(fir, use_case, &inputs, &stream, Some((&mut scratch, &mut r))).wall_ns
                as f64,
        );
    }

    let (runs, fallbacks, updates) = passes.iter().fold((0, 0, 0), |acc, (_, p)| {
        (acc.0 + p.vmm_runs, acc.1 + p.vmm_fallbacks, acc.2 + p.updates)
    });
    report.push("vmm.runs_per_update", "runs/update", runs as f64 / updates.max(1) as f64);
    report.push("vmm.fallback_frac", "fraction", fallbacks as f64 / runs.max(1) as f64);

    if workload == Workload::ServeTcp {
        let plan = Plan::new(&inputs, scale.paced_updates, seed);
        serve_phases(&plan, scale, &mut tracer, &mut report);
    }

    // Span layers are metric names without the `_ns` suffix, except the
    // per-point VM runs, whose spans carry the full metric name.
    let layer_ns = |name: &str| {
        if tracer.totals.contains_key(name) {
            Some(tracer.mean(name))
        } else {
            name.strip_suffix("_ns").map(|l| tracer.mean(l))
        }
    };
    for &(name, unit) in PER_LAYER {
        if report.metric(name).is_some() {
            continue;
        }
        let value = match name {
            "rib.dirty_drain_ns" => {
                tracer.mean("rib.dirty_mark") + {
                    let (ns, _) = tracer.totals.get("rib.dirty_drain").copied().unwrap_or_default();
                    let marks = tracer.totals.get("rib.dirty_mark").map_or(0, |t| t.1);
                    ns as f64 / marks.max(1) as f64
                }
            }
            "trace.overhead_pct" => 100.0 * (median(&traced) / median(&plain) - 1.0),
            _ => layer_ns(name).unwrap_or(0.0),
        };
        report.push(name, unit, value);
    }
    report.metrics.sort_by_key(|m| PER_LAYER.iter().position(|(n, _)| *n == m.name));

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.jsonl", workload.name()));
    match tracer.write(&path) {
        Ok(()) => {
            report
                .notes
                .push(format!("{} spans written to {}", tracer.spans.len(), path.display()))
        }
        Err(e) => report.notes.push(format!("spans not written to {}: {e}", path.display())),
    }
    report
}
