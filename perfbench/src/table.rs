//! `table_ov`: one-shot full-table transfer over the eBGP Fig. 3 chain
//! with origin validation, four configurations interleaved.
//!
//! Every route crosses wire decode, attribute conversion, one validation
//! (the `rov_check` bytecode plus its ROA helper, or the daemon's native
//! ROA table) and a first RIB insert, so VM and conversion work dominate.
//! This is the cell where "extension faster than native on FRR" lives.

use std::time::Instant;

use xbgp_harness::{Feeder, UseCase};

use crate::cells::CellSamples;
use crate::chain::{rotation, Chain, CELLS};
use crate::inputs;
use crate::report::{slow_decile, weighted_quantile, Report};
use crate::{Budget, Scale};

/// Measured outcome of one cell's transfer.
pub struct Transfer {
    /// Virtual ns from the feeder's first UPDATE to the last prefix
    /// reaching the sink (`Fig3Outcome::elapsed_ns`).
    pub elapsed_ns: u64,
    pub delivered: usize,
    /// Wall time the simulator took to run the transfer.
    pub wall_s: f64,
    /// `(latency ns, prefixes)` per UPDATE the sink received.
    pub latency: Vec<(f64, u64)>,
}

/// Run one cell's transfer of `frames` carrying `expected` prefixes.
pub fn transfer(mut chain: Chain, expected: usize) -> Result<Transfer, String> {
    let t = Instant::now();
    chain.run_until_delivered(expected)?;
    let wall_s = t.elapsed().as_secs_f64();
    let first = chain.feeder().first_sent.ok_or("feeder never sent the table")?;
    let sink = chain.sink();
    let last = sink.last_prefix_rx.ok_or("sink received no prefix")?;
    let latency = sink
        .arrivals
        .iter()
        .map(|&(at, n)| (at.saturating_sub(first) as f64, u64::from(n)))
        .collect();
    Ok(Transfer {
        elapsed_ns: last.saturating_sub(first),
        delivered: sink.prefixes_seen(),
        wall_s,
        latency,
    })
}

pub fn run(seed: u64, budget: &mut Budget, scale: &Scale) -> Report {
    let n = scale.table_routes;
    let mut report = Report::default();
    let mut cells = CellSamples::default();
    let (mut setup, mut wall, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());

    while budget.another() {
        let rep = budget.reps();
        let t = Instant::now();
        let inputs = inputs::generate(n, 0, seed, None);
        let mut setup_s = t.elapsed().as_secs_f64();
        let (mut rep_delivered, mut rep_wall) = (0usize, 0f64);
        let mut delivered = [0usize; 4];
        for cell in rotation(rep) {
            let t = Instant::now();
            let feeder = Feeder::new(65001, 1, inputs.table_frames.clone());
            let chain = Chain::new(cell, UseCase::OriginValidation, feeder, &inputs.roas);
            setup_s += t.elapsed().as_secs_f64();
            report.attempted += n as u64;
            let out = match transfer(chain, n) {
                Ok(out) => out,
                Err(e) => {
                    report.fail(n as u64, format!("{} rep {rep}: {e}", cell.name()));
                    continue;
                }
            };
            report.fail(
                n.saturating_sub(out.delivered) as u64,
                format!("{} rep {rep}: prefixes not delivered", cell.name()),
            );
            delivered[CELLS.iter().position(|c| *c == cell).expect("known cell")] = out.delivered;
            rep_delivered += out.delivered;
            rep_wall += out.wall_s;
            cells.push(cell, out.delivered as f64 / (out.elapsed_ns.max(1) as f64 / 1e9));
            // Latency is reported for FIR running the bytecode.
            if cell == CELLS[0] {
                let mut lat = out.latency;
                p50.push(weighted_quantile(&mut lat, 0.5) / 1e6);
                p99.push(weighted_quantile(&mut lat, 0.99) / 1e6);
            }
        }
        // Extension and native runs of one daemon must agree.
        for pair in delivered.chunks(2) {
            report.fail(
                pair[0].abs_diff(pair[1]) as u64,
                format!("rep {rep}: extension and native delivered different counts"),
            );
        }
        setup.push(setup_s);
        wall.push(rep_delivered as f64 / rep_wall.max(1e-9));
        budget.done();
    }

    report.push("setup_s", "s", slow_decile(&setup, false));
    cells.emit(&mut report);
    report.push("wall_updates_per_s", "updates/s", slow_decile(&wall, true));
    report.push("latency_p50_ms", "ms", slow_decile(&p50, false));
    report.push("latency_p99_ms", "ms", slow_decile(&p99, false));
    cells.shape_report(UseCase::OriginValidation, &mut report);
    report
}
