//! Workload inputs, generated here from the seed. The program under test
//! only ever receives the results: routes, ROAs, churn rounds and the
//! wire frames that carry them.

use routegen::churn::{churn_rounds, total_updates, ChurnRound, ChurnSpec};
use routegen::{to_updates, Route, TableSpec};
use rpki::Roa;
use xbgp_wire::{Message, UpdateMsg};

/// Share of routes covered by a matching ROA (§3.4 of the paper: 75% of
/// the injected prefixes are valid).
pub const VALID_FRACTION: f64 = 0.75;

/// Everything one workload feeds the program.
pub struct Inputs {
    pub routes: Vec<Route>,
    pub roas: Vec<Roa>,
    pub rounds: Vec<ChurnRound>,
    /// UPDATE frames announcing the whole table.
    pub table_frames: Vec<Vec<u8>>,
    /// UPDATE frames of each churn round, in order.
    pub round_frames: Vec<Vec<Vec<u8>>>,
    /// Routing updates (NLRI plus withdrawn prefixes) the rounds carry.
    pub churn_updates: u64,
}

pub fn encode(updates: Vec<UpdateMsg>) -> Vec<Vec<u8>> {
    updates
        .into_iter()
        .map(|u| Message::Update(u).encode(4).expect("UPDATE encodes"))
        .collect()
}

/// Generate the table, its ROAs and `rounds` churn rounds from `seed`,
/// and encode the frames with `local_pref` (set on iBGP sessions).
pub fn generate(routes: usize, rounds: usize, seed: u64, local_pref: Option<u32>) -> Inputs {
    let table = routegen::generate(&TableSpec::new(routes, seed));
    let roas = routegen::make_roas(&table, VALID_FRACTION, seed)
        .into_iter()
        .map(|e| Roa::new(e.prefix, e.max_len, e.asn))
        .collect();
    let churn = if rounds > 0 {
        churn_rounds(&table, &ChurnSpec::new(seed, rounds))
    } else {
        Vec::new()
    };
    let table_frames = encode(to_updates(&table, 1, local_pref));
    let round_frames = churn.iter().map(|r| encode(r.to_updates(1, local_pref))).collect();
    Inputs {
        churn_updates: total_updates(&churn),
        routes: table,
        roas,
        rounds: churn,
        table_frames,
        round_frames,
    }
}
