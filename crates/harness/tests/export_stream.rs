//! The export-stream oracle: the bytes a daemon writes to its peers,
//! not just the Loc-RIB it converges on, are part of its contract.
//!
//! Each of the eight Fig. 4 cells — {FIR, WREN} × {native, bytecode} ×
//! {origin validation on eBGP, route reflection on iBGP} — is hosted on
//! a [`NodeDriver`] and fed a routegen table plus four churn rounds. Every
//! byte the daemon writes is folded into an FNV-1a digest per link. The
//! four cells of a use case must emit identical streams (same frames, same
//! order, same grouping into UPDATEs), and each stream must equal the
//! digest pinned below, so an export-path change that reorders,
//! regroups or rewrites any UPDATE fails here even when every Loc-RIB
//! still matches.

use netsim::{LinkId, NodeDriver};
use routegen::churn::{churn_rounds, ChurnSpec};
use routegen::{to_updates, TableSpec};
use rpki::Roa;
use xbgp_harness::{build, DaemonSpec, Dut, UseCase};
use xbgp_progs::{origin_validation, route_reflect};
use xbgp_wire::{Message, OpenMsg, UpdateMsg};

const ROUTES: usize = 5_000;
const ROUNDS: usize = 4;

/// Pinned `(seed, use case, downstream bytes, downstream FNV-1a)`. The
/// upstream link carries only the 64-byte handshake reply (OPEN and
/// KEEPALIVE): split horizon keeps every route off it.
const PINS: &[(u64, UseCase, u64, u64)] = &[
    (1, UseCase::OriginValidation, 405_593, 0x6bba_1a6a_d01c_bbce),
    (1, UseCase::RouteReflection, 501_337, 0x9d53_ea2e_759f_ed68),
    (7, UseCase::OriginValidation, 410_557, 0xe787_c2bf_eecd_0914),
    (7, UseCase::RouteReflection, 507_042, 0x5162_357d_17b8_fccf),
    (424_242, UseCase::OriginValidation, 409_299, 0x6e9a_198d_fdfb_73ed),
    (424_242, UseCase::RouteReflection, 506_076, 0x3eeb_2f54_515b_fa09),
];

/// FNV-1a, 64 bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Digest {
    bytes: u64,
    hash: u64,
}

impl Digest {
    fn new() -> Digest {
        Digest { bytes: 0, hash: 0xcbf2_9ce4_8422_2325 }
    }

    fn feed(&mut self, data: &[u8]) {
        for &b in data {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.bytes += data.len() as u64;
    }
}

/// `(feeder, DUT, sink)` ASNs: one AS for the iBGP reflection chain,
/// three for the eBGP validation chain (the Fig. 3 testbed's).
fn asns(use_case: UseCase) -> (u32, u32, u32) {
    match use_case {
        UseCase::RouteReflection => (65000, 65000, 65000),
        UseCase::OriginValidation => (65001, 65002, 65003),
    }
}

fn spec(dut_ext: bool, use_case: UseCase, roas: &[Roa]) -> DaemonSpec {
    let (up_asn, dut_asn, down_asn) = asns(use_case);
    let mut spec = DaemonSpec::new(dut_asn, 2);
    spec = match use_case {
        UseCase::RouteReflection => {
            spec.rr_client(LinkId(0), 1, up_asn).rr_client(LinkId(1), 3, down_asn)
        }
        UseCase::OriginValidation => {
            spec.neighbor(LinkId(0), 1, up_asn).neighbor(LinkId(1), 3, down_asn)
        }
    };
    match (use_case, dut_ext) {
        (UseCase::RouteReflection, false) => spec.native_rr = true,
        (UseCase::RouteReflection, true) => spec.xbgp = Some(route_reflect::manifest()),
        (UseCase::OriginValidation, false) => spec.native_rov = Some(roas.to_vec()),
        (UseCase::OriginValidation, true) => {
            spec.xbgp_roas = Some(roas.to_vec());
            spec.xbgp = Some(origin_validation::manifest());
        }
    }
    // No timers: the stream must not depend on when KEEPALIVEs fall.
    spec.hold_time_secs = 0;
    spec
}

/// The UPDATE frames a cell is fed: the table, then each churn round.
fn stream(seed: u64, use_case: UseCase) -> (Vec<Vec<u8>>, Vec<Roa>) {
    let table = routegen::generate(&TableSpec::new(ROUTES, seed));
    let roas = routegen::make_roas(&table, 0.75, seed)
        .into_iter()
        .map(|e| Roa::new(e.prefix, e.max_len, e.asn))
        .collect();
    let local_pref = (use_case == UseCase::RouteReflection).then_some(100);
    let mut updates: Vec<UpdateMsg> = to_updates(&table, 1, local_pref);
    for round in churn_rounds(&table, &ChurnSpec::new(seed, ROUNDS)) {
        updates.extend(round.to_updates(1, local_pref));
    }
    let frames = updates
        .into_iter()
        .map(|u| Message::Update(u).encode(4).expect("encodes"))
        .collect();
    (frames, roas)
}

/// Run one cell over `frames`; the digest of everything it wrote on
/// `(upstream, downstream)`.
fn run_cell(
    dut: Dut,
    ext: bool,
    use_case: UseCase,
    frames: &[Vec<u8>],
    roas: &[Roa],
) -> [Digest; 2] {
    let (up_asn, _, down_asn) = asns(use_case);
    let mut d = NodeDriver::new(Box::new(build(dut, spec(ext, use_case, roas))), 2);
    let mut digests = [Digest::new(); 2];
    let mut drain = |d: &mut NodeDriver| {
        for (link, bytes) in d.drain_outbound() {
            digests[link.0].feed(&bytes);
        }
    };
    d.start(0);
    drain(&mut d);
    for (link, asn, addr) in [(0, up_asn, 1), (1, down_asn, 3)] {
        let open = Message::Open(OpenMsg::standard(asn, 0, addr)).encode(4).expect("encodes");
        d.deliver(0, LinkId(link), &open);
        d.deliver(0, LinkId(link), &Message::Keepalive.encode(4).expect("encodes"));
        drain(&mut d);
    }
    for (i, frame) in frames.iter().enumerate() {
        d.deliver(i as u64 + 1, LinkId(0), frame);
        drain(&mut d);
    }
    digests
}

#[test]
fn every_cell_of_a_use_case_writes_the_pinned_byte_stream() {
    let mut got = Vec::new();
    for seed in [1, 7, 424_242] {
        for use_case in [UseCase::OriginValidation, UseCase::RouteReflection] {
            let (frames, roas) = stream(seed, use_case);
            let mut first: Option<([Digest; 2], String)> = None;
            for dut in [Dut::Fir, Dut::Wren] {
                for ext in [false, true] {
                    let ctx =
                        format!("seed {seed} / {} / {} / ext={ext}", use_case.name(), dut.name());
                    let digests = run_cell(dut, ext, use_case, &frames, &roas);
                    assert_eq!(digests[0].bytes, 64, "{ctx}: routes leaked upstream");
                    assert!(digests[1].bytes > 0, "{ctx}: nothing exported");
                    match &first {
                        None => first = Some((digests, ctx)),
                        Some((want, base)) => {
                            assert_eq!(&digests, want, "{ctx}: stream differs from {base}")
                        }
                    }
                }
            }
            let down = first.expect("four cells ran").0[1];
            got.push((seed, use_case, down.bytes, down.hash));
        }
    }
    assert_eq!(got, PINS, "export stream changed");
}

/// Bring the session on `link` up the way the serve core does: a
/// synthetic OPEN with hold time 0, then a KEEPALIVE.
fn bring_up(d: &mut NodeDriver, link: usize, asn: u32, addr: u32) {
    let open = Message::Open(OpenMsg::standard(asn, 0, addr)).encode(4).expect("encodes");
    d.deliver(0, LinkId(link), &open);
    d.deliver(0, LinkId(link), &Message::Keepalive.encode(4).expect("encodes"));
}

#[test]
fn reflected_routes_keep_their_own_originator_when_sources_share_a_set() {
    // Two route-reflection clients announce the very same attribute set
    // (FIR interns both to one shared copy). A third client then comes
    // up, and its initial dump — one export batch — must stamp every
    // route with its own source as ORIGINATOR_ID: the export memo is
    // keyed on the route source, not on the attribute set alone.
    use xbgp_wire::attr::Origin;
    use xbgp_wire::{AsPath, Ipv4Prefix, MsgReader, PathAttr};
    const ASN: u32 = 65000;
    let clients = [(0usize, 11u32), (1, 12), (2, 13)];
    let attrs = vec![
        PathAttr::Origin(Origin::Igp),
        PathAttr::AsPath(AsPath::empty()),
        PathAttr::NextHop(0x0a00_0001),
        PathAttr::LocalPref(100),
    ];
    let prefixes = |base: u32| -> Vec<Ipv4Prefix> {
        (0..8u32).map(|i| Ipv4Prefix::new(base + (i << 8), 24)).collect()
    };
    // Interleaved in prefix order, so each source's routes follow the
    // other's in the dump.
    let from_a: Vec<Ipv4Prefix> = prefixes(0x0a01_0000).into_iter().step_by(2).collect();
    let from_b: Vec<Ipv4Prefix> = prefixes(0x0a01_0000).into_iter().skip(1).step_by(2).collect();
    for dut in [Dut::Fir, Dut::Wren] {
        let mut spec = DaemonSpec::new(ASN, 100);
        for (link, addr) in clients {
            spec = spec.rr_client(LinkId(link), addr, ASN);
        }
        spec.native_rr = true;
        spec.hold_time_secs = 0;
        let mut d = NodeDriver::new(Box::new(build(dut, spec)), 3);
        d.start(0);
        bring_up(&mut d, 0, ASN, 11);
        bring_up(&mut d, 1, ASN, 12);
        for (link, nlri) in [(0, &from_a), (1, &from_b)] {
            let upd = UpdateMsg::announce(attrs.clone(), nlri.clone());
            d.deliver(1, LinkId(link), &Message::Update(upd).encode(4).expect("encodes"));
        }
        d.drain_outbound();
        bring_up(&mut d, 2, ASN, 13);
        let mut reader = MsgReader::new();
        for (link, bytes) in d.drain_outbound() {
            if link == LinkId(2) {
                reader.push(&bytes);
            }
        }
        let mut originator = std::collections::HashMap::new();
        while let Some(frame) = reader.next_frame().expect("well-framed") {
            if let Ok(Message::Update(u)) = Message::decode(&frame, 4) {
                let orig = u.attrs.iter().find_map(|a| match a {
                    PathAttr::OriginatorId(id) => Some(*id),
                    _ => None,
                });
                for p in u.nlri {
                    originator.insert(p, orig);
                }
            }
        }
        assert_eq!(originator.len(), from_a.len() + from_b.len(), "{}: full dump", dut.name());
        for (nlri, src) in [(&from_a, 11), (&from_b, 12)] {
            for p in nlri {
                assert_eq!(
                    originator[p],
                    Some(src),
                    "{}: {p} reflected as another source's",
                    dut.name()
                );
            }
        }
    }
}
