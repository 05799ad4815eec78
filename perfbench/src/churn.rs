//! `churn_rr`: iBGP route reflection under the routegen churn storm,
//! four configurations interleaved.
//!
//! An already-converged table takes withdraw waves, re-announcements,
//! flaps, path hunting and the final restore round. The measured phase is
//! mostly incremental RIB work (withdrawals that run no bytecode, dirty-set
//! drains, best-path changes and their re-exports), so a RIB or export
//! gain shows here while a VM gain is diluted. It carries the RR half of
//! Fig. 4.

use std::time::Instant;

use xbgp_harness::churn::dump_diff;
use xbgp_harness::{Feeder, UseCase};

use crate::cells::CellSamples;
use crate::chain::{rotation, Chain, CELLS, SEC};
use crate::inputs::{self, Inputs};
use crate::report::{slow_decile, weighted_quantile, Report};
use crate::{Budget, Scale};

/// Virtual-time gap between churn rounds (the harness default).
pub const ROUND_INTERVAL_NS: u64 = 200_000_000;

/// Measured outcome of one storm against a converged DUT.
pub struct Storm {
    pub updates_applied: u64,
    pub cpu_ns: u64,
    pub oracle_mismatches: usize,
    /// `(latency ns, routing updates)` per UPDATE the sink received,
    /// measured from the send time of the round that caused it.
    pub latency: Vec<(f64, u64)>,
    pub wall_s: f64,
}

/// Build `cell`'s chain and converge it on the full table (set-up).
pub fn converge(cell: crate::chain::Cell, inputs: &Inputs) -> Result<Chain, String> {
    let feeder = Feeder::new(65000, 1, inputs.table_frames.clone());
    let mut chain = Chain::new(cell, UseCase::RouteReflection, feeder, &inputs.roas);
    chain.run_until_delivered(inputs.routes.len())?;
    chain.settle(5 * SEC);
    Ok(chain)
}

/// Replay the churn rounds against a converged chain, then check the
/// incremental Loc-RIB against the full-recompute oracle.
pub fn storm(chain: &mut Chain, inputs: &Inputs) -> Result<Storm, String> {
    let t = Instant::now();
    let d = chain.dut;
    let cpu0 = chain.sim.cpu_time(d);
    let rx0 = chain.daemon().counters().routing_updates_rx();
    let mark = chain.sink().arrivals.len();
    let n_rounds = inputs.round_frames.len();
    chain.feeder().load_rounds(inputs.round_frames.clone(), ROUND_INTERVAL_NS);

    // Step in half-intervals so every round's send time is observed.
    let mut sent_at = Vec::with_capacity(n_rounds);
    let limit = chain.sim.now() + 60 * SEC + n_rounds as u64 * ROUND_INTERVAL_NS * 2;
    while sent_at.len() < n_rounds {
        chain.settle(ROUND_INTERVAL_NS / 2);
        let f = chain.feeder();
        if f.rounds_sent > sent_at.len() {
            sent_at.push(f.last_round_sent.expect("a round was sent"));
        }
        if chain.sim.now() > limit {
            return Err(format!("churn stalled after {} of {n_rounds} rounds", sent_at.len()));
        }
    }
    chain.settle(60 * SEC);
    let cpu_ns = chain.sim.cpu_time(d) - cpu0;
    let updates_applied = chain.daemon().counters().routing_updates_rx() - rx0;
    let wall_s = t.elapsed().as_secs_f64();

    let rib = chain.daemon().loc_rib_dump();
    let oracle = chain.daemon().oracle_loc_rib_dump();
    let latency = chain.sink().arrivals[mark..]
        .iter()
        .filter_map(|&(at, n)| {
            let round = sent_at.iter().rev().find(|&&s| s <= at)?;
            Some(((at - round) as f64, u64::from(n)))
        })
        .collect();
    Ok(Storm {
        updates_applied,
        cpu_ns,
        oracle_mismatches: dump_diff(&rib, &oracle),
        latency,
        wall_s,
    })
}

/// Routegen churn rounds in one storm, the last being its restore round.
pub const CHURN_ROUNDS: usize = 4;

/// Storms each converged chain takes per repetition. The final restore
/// round returns the table to its converged state, so storms repeat on
/// the same chain without another set-up.
pub const STORMS_PER_REP: usize = 3;

pub fn run(seed: u64, budget: &mut Budget, scale: &Scale) -> Report {
    let mut report = Report::default();
    let mut cells = CellSamples::default();
    let (mut setup, mut wall, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());

    while budget.another() {
        let rep = budget.reps();
        let t = Instant::now();
        let inputs = inputs::generate(scale.churn_routes, CHURN_ROUNDS, seed, Some(100));
        let expected = inputs.churn_updates;
        let mut setup_s = t.elapsed().as_secs_f64();
        let mut chains = Vec::new();
        for cell in rotation(rep) {
            let t = Instant::now();
            match converge(cell, &inputs) {
                Ok(chain) => chains.push((cell, chain)),
                Err(e) => {
                    report.attempted += expected * STORMS_PER_REP as u64;
                    report.fail(
                        expected * STORMS_PER_REP as u64,
                        format!("{} rep {rep}: {e}", cell.name()),
                    );
                }
            }
            setup_s += t.elapsed().as_secs_f64();
        }
        setup.push(setup_s);
        let (mut rep_updates, mut rep_wall) = (0u64, 0f64);
        for _ in 0..STORMS_PER_REP {
            for (cell, chain) in chains.iter_mut() {
                let cell = *cell;
                report.attempted += expected;
                let out = match storm(chain, &inputs) {
                    Ok(out) => out,
                    Err(e) => {
                        report.fail(expected, format!("{} rep {rep}: {e}", cell.name()));
                        continue;
                    }
                };
                report.fail(
                    out.updates_applied.abs_diff(expected),
                    format!(
                        "{} rep {rep}: applied {} of {expected} updates",
                        cell.name(),
                        out.updates_applied
                    ),
                );
                report.fail(
                    out.oracle_mismatches as u64,
                    format!(
                        "{} rep {rep}: Loc-RIB differs from the full-recompute oracle",
                        cell.name()
                    ),
                );
                rep_updates += out.updates_applied;
                rep_wall += out.wall_s;
                cells.push(cell, out.updates_applied as f64 / (out.cpu_ns.max(1) as f64 / 1e9));
                // Latency is reported for FIR running the bytecode.
                if cell == CELLS[0] {
                    let mut lat = out.latency;
                    p50.push(weighted_quantile(&mut lat, 0.5) / 1e6);
                    p99.push(weighted_quantile(&mut lat, 0.99) / 1e6);
                }
            }
        }
        wall.push(rep_updates as f64 / rep_wall.max(1e-9));
        budget.done();
    }

    report.push("setup_s", "s", slow_decile(&setup, false));
    cells.emit(&mut report);
    report.push("wall_updates_per_s", "updates/s", slow_decile(&wall, true));
    report.push("latency_p50_ms", "ms", slow_decile(&p50, false));
    report.push("latency_p99_ms", "ms", slow_decile(&p99, false));
    cells.shape_report(UseCase::RouteReflection, &mut report);
    report
}
