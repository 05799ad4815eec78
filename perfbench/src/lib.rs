//! # xbgp-perfbench — the end-to-end benchmark of the xBGP reproduction
//!
//! Three workloads drive the real pipeline through its public entry
//! points (see `README.md` in this directory for why each was chosen and
//! which metric each layer should move):
//!
//! * [`table`] — `table_ov`: one-shot full-table transfer with origin
//!   validation on the Fig. 3 eBGP chain;
//! * [`churn`] — `churn_rr`: the routegen churn storm against a converged
//!   iBGP route reflector;
//! * [`serve`] — `serve_tcp`: FIR behind `xbgp_serve::Server`, one peer
//!   thread holding two TCP sessions.
//!
//! An untraced run prints the end-to-end metrics; a traced run
//! ([`traced`]) prints the per-layer ones.

mod cells;
mod chain;
mod churn;
mod inputs;
mod report;
mod serve;
mod table;
mod traced;

use std::time::Instant;

pub use report::Report;

/// Input sizes of every workload. The program receives only what these
/// generate; the benchmark's own tests shrink them.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `table_ov` table size: large enough that the Fig. 4 signs hold.
    pub table_routes: usize,
    /// `churn_rr` table size.
    pub churn_routes: usize,
    /// `serve_tcp` table size.
    pub serve_routes: usize,
    /// `serve_tcp` routing updates sent open-loop, one per UPDATE, after
    /// the blast, and their fixed mean rate (updates/s across both
    /// sessions).
    pub paced_updates: usize,
    pub paced_rate: f64,
}

impl Scale {
    /// The sizes the benchmark measures at.
    pub const FULL: Scale = Scale {
        table_routes: 20_000,
        churn_routes: 10_000,
        serve_routes: 4_000,
        paced_updates: 400,
        paced_rate: 100.0,
    };

    /// Sizes for the benchmark's own tests.
    pub const TINY: Scale = Scale {
        table_routes: 300,
        churn_routes: 300,
        serve_routes: 300,
        paced_updates: 100,
        paced_rate: 400.0,
    };
}

/// The workloads, by the names `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TableOv,
    ChurnRr,
    ServeTcp,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::TableOv, Workload::ChurnRr, Workload::ServeTcp];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TableOv => "table_ov",
            Workload::ChurnRr => "churn_rr",
            Workload::ServeTcp => "serve_tcp",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Repetition budget of one run: repetitions continue while the next one
/// is expected to finish inside the measuring time, and at least
/// `min_reps` run.
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_reps: usize,
    reps: usize,
}

impl Budget {
    pub fn new(seconds: f64, min_reps: usize) -> Budget {
        Budget { start: Instant::now(), seconds, min_reps, reps: 0 }
    }

    /// Should another repetition start?
    pub fn another(&self) -> bool {
        if self.reps < self.min_reps {
            return true;
        }
        let spent = self.start.elapsed().as_secs_f64();
        spent + spent / self.reps as f64 <= self.seconds
    }

    /// Repetitions completed so far.
    pub fn reps(&self) -> usize {
        self.reps
    }

    pub fn done(&mut self) {
        self.reps += 1;
    }
}

/// Run `workload` for about `seconds` of measurement. `trace` selects the
/// per-layer traced run instead of the end-to-end one.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, scale: &Scale) -> Report {
    if trace {
        return traced::run(workload, seed, seconds, scale);
    }
    let mut budget = Budget::new(seconds, 1);
    let mut report = match workload {
        Workload::TableOv => table::run(seed, &mut budget, scale),
        Workload::ChurnRr => churn::run(seed, &mut budget, scale),
        Workload::ServeTcp => serve::run(seed, &mut budget, scale),
    };
    report.notes.push(format!(
        "{} repetitions in {:.1} s",
        budget.reps(),
        budget.start.elapsed().as_secs_f64()
    ));
    report.push("peak_rss_mb", "MiB", report::peak_rss_mb());
    report
}
