//! End-to-end loopback selftest: the acceptance harness for the TCP
//! runtime.
//!
//! N real TCP clients each own a prefix-hash slice of a generated table
//! and of every churn round, handshake against [`crate::server::Server`],
//! blast their slices, and hold their sessions open. When the daemons
//! have absorbed exactly the logical stream, the combined serve Loc-RIB
//! must be **byte-identical** to the same stream replayed through the
//! netsim [`xbgp_harness::Feeder`] — the virtual-time harness every other
//! figure in this repo trusts — and to the daemons' own full-recompute
//! oracle.
//!
//! Prefix-partitioning the sessions is what makes the comparison exact:
//! TCP only guarantees order per connection, but each prefix lives on
//! exactly one connection, so per-prefix update order matches the
//! single-feeder replay, and best-path selection is independent per
//! prefix.

use std::time::{Duration, Instant};

use netsim::{Sim, SimConfig};
use routegen::churn::{churn_rounds, total_updates, ChurnRound, ChurnSpec};
use routegen::{to_updates, Route, TableSpec};
use xbgp_driver::{DaemonSpec, Dut, DutNode};
use xbgp_harness::churn::dump_diff;
use xbgp_harness::shard::shard_of;
use xbgp_harness::Feeder;
use xbgp_obs::{HistogramSnapshot, MetricValue};
use xbgp_wire::Message;

use crate::client::{self, ClientPlan};
use crate::server::{ServeConfig, Server};

/// One selftest description.
#[derive(Debug, Clone, Copy)]
pub struct SelftestSpec {
    pub dut: Dut,
    /// Concurrent TCP sessions.
    pub sessions: usize,
    /// Initial table size (split across sessions by prefix hash).
    pub routes: usize,
    /// Churn rounds after the initial blast.
    pub rounds: usize,
    pub seed: u64,
    /// Shard cores inside the server.
    pub shards: usize,
    /// Wall-clock gap between churn rounds per client; `None` = blast.
    pub round_gap: Option<Duration>,
    /// Skip the netsim reference replay (bench cells reuse the parity
    /// machinery but only need the oracle check).
    pub check_parity: bool,
}

impl SelftestSpec {
    pub fn new(dut: Dut, sessions: usize) -> SelftestSpec {
        SelftestSpec {
            dut,
            sessions,
            routes: 2000,
            rounds: 6,
            seed: 42,
            shards: 1,
            round_gap: None,
            check_parity: true,
        }
    }
}

/// Measured outcome of one selftest run.
#[derive(Debug, Clone)]
pub struct SelftestOutcome {
    /// Sessions the daemons saw established (must equal `spec.sessions`).
    pub established: usize,
    /// Routing updates (NLRI + withdrawn) absorbed across shard cores.
    pub updates_applied: u64,
    /// Expected logical stream size (table + churn).
    pub expected_updates: u64,
    /// Best-path changes across shard cores.
    pub best_changes: u64,
    /// Loc-RIB entries differing from the netsim feeder replay
    /// (only populated when `check_parity`; 0 = byte-identical).
    pub parity_mismatches: usize,
    /// Loc-RIB entries differing from the daemons' own full-recompute
    /// oracle (0 = byte-identical).
    pub oracle_mismatches: usize,
    /// Loc-RIB size after the run.
    pub loc_rib_len: usize,
    /// Socket-to-RIB propagation latency (ns).
    pub latency: HistogramSnapshot,
    /// Wall-clock duration of the TCP phase (connect → stream absorbed).
    pub elapsed: Duration,
    /// Connections the server dropped for lack of session slots.
    pub rejected: u64,
    /// Most UPDATE batches any shard core had queued at once (bounded by
    /// [`crate::server::CORE_QUEUE`]).
    pub core_queue_high_water: usize,
}

impl SelftestOutcome {
    pub fn passed(&self, spec: &SelftestSpec) -> bool {
        self.established == spec.sessions
            && self.updates_applied == self.expected_updates
            && self.parity_mismatches == 0
            && self.oracle_mismatches == 0
    }
}

/// Split `rounds` into per-session slices by prefix hash, mirroring the
/// sharded-churn split in [`xbgp_harness::churn`].
fn split_rounds(rounds: &[ChurnRound], sessions: usize) -> Vec<Vec<ChurnRound>> {
    (0..sessions)
        .map(|k| {
            rounds
                .iter()
                .map(|round| ChurnRound {
                    withdrawals: round
                        .withdrawals
                        .iter()
                        .filter(|p| shard_of(p, sessions) == k)
                        .copied()
                        .collect(),
                    announcements: round
                        .announcements
                        .iter()
                        .filter(|r| shard_of(&r.prefix, sessions) == k)
                        .cloned()
                        .collect(),
                })
                .collect()
        })
        .collect()
}

fn encode_all(updates: Vec<xbgp_wire::UpdateMsg>) -> Vec<Vec<u8>> {
    updates
        .into_iter()
        .map(|u| Message::Update(u).encode(4).expect("update encodes"))
        .collect()
}

/// Run one selftest. Panics only on harness bugs (thread failures); all
/// protocol-level divergence is reported in the outcome.
pub fn run(spec: &SelftestSpec) -> SelftestOutcome {
    let table = routegen::generate(&TableSpec::new(spec.routes, spec.seed));
    let rounds = churn_rounds(&table, &ChurnSpec::new(spec.seed, spec.rounds));
    let expected_updates = table.len() as u64 + total_updates(&rounds);

    // Per-session slices: initial table and every round, by prefix hash.
    let mut tables: Vec<Vec<Route>> = vec![Vec::new(); spec.sessions];
    for r in &table {
        tables[shard_of(&r.prefix, spec.sessions)].push(r.clone());
    }
    let session_rounds = split_rounds(&rounds, spec.sessions);

    let server = Server::start(ServeConfig {
        shards: spec.shards,
        ..ServeConfig::new(spec.dut, spec.sessions)
    })
    .expect("bind loopback server");
    let addr = server.addr();

    let started = Instant::now();
    let plans = tables
        .into_iter()
        .zip(&session_rounds)
        .map(|(routes, rounds)| ClientPlan {
            initial: encode_all(to_updates(&routes, 1, None)),
            rounds: rounds.iter().map(|r| encode_all(r.to_updates(1, None))).collect(),
            round_gap: spec.round_gap,
        })
        .collect();
    let clients = client::spawn(addr, 65001, plans).expect("spawn client driver");

    // Wait until the daemons have absorbed exactly the logical stream.
    // Counter queries are barriers behind all frames already fanned in.
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let got = server.counters().routing_updates_rx();
        if got >= expected_updates {
            assert_eq!(got, expected_updates, "absorbed more updates than the stream carries");
            break;
        }
        assert!(Instant::now() < deadline, "stream stalled: {got}/{expected_updates} updates");
        std::thread::sleep(Duration::from_millis(20));
    }
    let elapsed = started.elapsed();

    // Sessions still up (clients hold until stop), RIBs quiescent.
    let established = server.established_sessions();
    let serve_rib = server.loc_rib();
    let oracle_mismatches = dump_diff(&serve_rib, &server.oracle_loc_rib());
    let snapshot = server.snapshot();
    let best_changes = snapshot
        .metrics
        .iter()
        .filter(|m| m.name == "xbgp_rib_best_changes_total")
        .map(|m| match m.value {
            MetricValue::Counter(n) => n,
            _ => 0,
        })
        .sum();
    let latency = server.latency();
    let rejected = server.rejected();

    let core_queue_high_water = server.core_queue_high_water();
    for outcome in clients.stop().expect("client io") {
        assert!(!outcome.closed_early, "client session closed before the run finished");
    }
    server.shutdown();

    let parity_mismatches = if spec.check_parity {
        let ref_rib = reference_loc_rib(spec, &table, &rounds, expected_updates);
        dump_diff(&serve_rib, &ref_rib)
    } else {
        0
    };

    SelftestOutcome {
        established,
        updates_applied: expected_updates,
        expected_updates,
        best_changes,
        parity_mismatches,
        oracle_mismatches,
        loc_rib_len: serve_rib.len(),
        latency,
        elapsed,
        rejected,
        core_queue_high_water,
    }
}

/// Replay the identical logical stream through the virtual-time harness:
/// one netsim feeder, one DUT, same attribute encoding (`next_hop = 1`,
/// no LOCAL_PREF). Returns the reference Loc-RIB.
fn reference_loc_rib(
    spec: &SelftestSpec,
    table: &[Route],
    rounds: &[ChurnRound],
    expected_updates: u64,
) -> Vec<(xbgp_wire::Ipv4Prefix, Vec<u8>)> {
    const SEC: u64 = 1_000_000_000;
    let frames = encode_all(to_updates(table, 1, None));
    let round_frames: Vec<Vec<Vec<u8>>> =
        rounds.iter().map(|r| encode_all(r.to_updates(1, None))).collect();

    let mut sim = Sim::new(SimConfig { cpu_accounting: false });
    let f = sim.add_node(Box::new(Feeder::new(65001, 1, frames).with_churn(
        round_frames,
        5 * SEC,
        SEC,
    )));
    let d = sim.add_node(Box::new(Placeholder));
    let l_up = sim.connect(f, d, 100_000);
    let dspec = DaemonSpec::new(65002, 2).neighbor(l_up, 1, 65001);
    sim.replace_node(d, Box::new(xbgp_harness::dut::build(spec.dut, dspec)));

    let mut deadline = 0u64;
    loop {
        deadline += 120 * SEC;
        sim.run_until(deadline);
        let got = sim.node_mut::<DutNode>(d).0.counters().routing_updates_rx();
        if got >= expected_updates {
            break;
        }
        assert!(deadline < 1_000_000 * SEC, "reference replay stalled: {got}/{expected_updates}");
    }
    sim.run_until(sim.now() + 60 * SEC);
    assert_eq!(
        sim.node_mut::<DutNode>(d).0.counters().routing_updates_rx(),
        expected_updates,
        "reference absorbed a different stream"
    );
    sim.node_mut::<DutNode>(d).0.loc_rib_dump()
}

struct Placeholder;
impl netsim::Node for Placeholder {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
