//! Per-configuration throughput samples of the netsim workloads, and the
//! Fig. 4 shape report derived from them.

use crate::chain::{Cell, CELLS};
use crate::report::{slow_decile, Report};
use xbgp_driver::Dut;
use xbgp_harness::UseCase;

/// Routing updates per DUT CPU-second, one sample per transfer or storm,
/// for each of the four cells.
#[derive(Default)]
pub struct CellSamples {
    samples: [Vec<f64>; 4],
}

fn index(cell: Cell) -> usize {
    CELLS.iter().position(|c| *c == cell).expect("known cell")
}

impl CellSamples {
    pub fn push(&mut self, cell: Cell, updates_per_s: f64) {
        self.samples[index(cell)].push(updates_per_s);
    }

    /// The cell's throughput over the run (see [`slow_decile`]).
    pub fn value(&self, cell: Cell) -> f64 {
        slow_decile(&self.samples[index(cell)], true)
    }

    /// Emit `<cell>_updates_per_s` for every cell.
    pub fn emit(&self, report: &mut Report) {
        for cell in CELLS {
            report.push(format!("{}_updates_per_s", cell.name()), "updates/s", self.value(cell));
        }
    }

    /// Relative impact of running the feature as bytecode on `dut`:
    /// extension time over native time, minus one (Fig. 4's quantity;
    /// negative means the extension is faster).
    pub fn impact(&self, dut: Dut) -> f64 {
        self.value(Cell { dut, ext: false }) / self.value(Cell { dut, ext: true }) - 1.0
    }

    /// The Fig. 4 shape lines for `use_case`, beside the paper's sign.
    /// Informational: nothing gates on them.
    pub fn shape_report(&self, use_case: UseCase, report: &mut Report) {
        for dut in [Dut::Fir, Dut::Wren] {
            let paper = match (dut, use_case) {
                (Dut::Fir, UseCase::RouteReflection) => "xFRR/RR +15%, extension slower",
                (Dut::Fir, UseCase::OriginValidation) => "xFRR/OV -10%, extension faster",
                (Dut::Wren, UseCase::RouteReflection) => "xBIRD/RR +18%, extension slower",
                (Dut::Wren, UseCase::OriginValidation) => "xBIRD/OV about 0%",
            };
            report.notes.push(format!(
                "fig4 shape: {} / {}: extension vs native {:+.1}% (paper: {paper})",
                dut.name(),
                use_case.name(),
                100.0 * self.impact(dut)
            ));
        }
    }
}
