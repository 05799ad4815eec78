//! `xbgp-serve` — drive fir/wren over real TCP with many concurrent
//! peers.
//!
//! ```text
//! xbgp-serve selftest [--dut fir|wren|both] [--sessions N] [--routes N]
//!                     [--rounds N] [--shards N] [--seed N] [--gap-ms N]
//!                     [--json PATH]
//! xbgp-serve bench    [--out PATH]
//! xbgp-serve serve    [--dut fir|wren] [--port P] [--sessions N]
//!                     [--shards N]
//! ```

use std::time::Duration;

use xbgp_driver::Dut;
use xbgp_serve::bench;
use xbgp_serve::selftest::{self, SelftestOutcome, SelftestSpec};
use xbgp_serve::server::{ServeConfig, Server};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let rest = &args[1.min(args.len())..];
    let code = match cmd {
        "selftest" => cmd_selftest(rest),
        "bench" => cmd_bench(rest),
        "serve" => cmd_serve(rest),
        "help" | "--help" | "-h" => {
            eprint!("{}", USAGE);
            0
        }
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "\
usage: xbgp-serve <command> [options]

commands:
  selftest   run N loopback TCP peers against a daemon, check Loc-RIB
             parity vs the netsim replay and the full-recompute oracle
             --dut fir|wren|both (both)   --sessions N (64)
             --routes N (2000)            --rounds N (6)
             --shards N (1)               --seed N (42)
             --gap-ms N (0 = blast)       --json PATH (write summary)
  bench      run the peer-scaling grid, write BENCH_peer_scaling.json
             --out PATH (BENCH_peer_scaling.json)
             env: PEER_BENCH_SESSIONS, PEER_BENCH_GAPS_MS,
                  PEER_BENCH_ROUTES, PEER_BENCH_ROUNDS
  serve      hold a daemon open for external BGP speakers on loopback
             --dut fir|wren (fir)         --port P (1790)
             --sessions N (256)           --shards N (1)
";

fn flag(rest: &[String], name: &str) -> Option<String> {
    rest.iter().position(|a| a == name).and_then(|i| rest.get(i + 1)).cloned()
}

fn flag_parse<T: std::str::FromStr>(rest: &[String], name: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    match flag(rest, name) {
        Some(v) => v.parse().unwrap_or_else(|e| {
            eprintln!("bad value for {name}: {e}");
            std::process::exit(2);
        }),
        None => default,
    }
}

fn parse_duts(rest: &[String]) -> Vec<Dut> {
    match flag(rest, "--dut").as_deref() {
        None | Some("both") => vec![Dut::Fir, Dut::Wren],
        Some(s) => match s.parse() {
            Ok(d) => vec![d],
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
    }
}

fn cmd_selftest(rest: &[String]) -> i32 {
    let duts = parse_duts(rest);
    let sessions = flag_parse(rest, "--sessions", 64usize);
    let gap_ms = flag_parse(rest, "--gap-ms", 0u64);
    let mut outcomes: Vec<(Dut, SelftestSpec, SelftestOutcome)> = Vec::new();
    let mut ok = true;
    for dut in duts {
        let mut spec = SelftestSpec::new(dut, sessions);
        spec.routes = flag_parse(rest, "--routes", spec.routes);
        spec.rounds = flag_parse(rest, "--rounds", spec.rounds);
        spec.shards = flag_parse(rest, "--shards", spec.shards);
        spec.seed = flag_parse(rest, "--seed", spec.seed);
        spec.round_gap = (gap_ms > 0).then(|| Duration::from_millis(gap_ms));
        eprintln!(
            "selftest: dut={} sessions={} routes={} rounds={} shards={}",
            dut.slug(),
            spec.sessions,
            spec.routes,
            spec.rounds,
            spec.shards
        );
        let out = selftest::run(&spec);
        let passed = out.passed(&spec);
        eprintln!(
            "  established={}/{} updates={} best_changes={} parity_mismatches={} \
             oracle_mismatches={} p99_latency_us={} elapsed_ms={} -> {}",
            out.established,
            spec.sessions,
            out.updates_applied,
            out.best_changes,
            out.parity_mismatches,
            out.oracle_mismatches,
            out.latency.quantile(0.99) / 1_000,
            out.elapsed.as_millis(),
            if passed { "PASS" } else { "FAIL" }
        );
        ok &= passed;
        outcomes.push((dut, spec, out));
    }
    if let Some(path) = flag(rest, "--json") {
        let json = selftest_json(&outcomes);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
    }
    if ok {
        0
    } else {
        1
    }
}

/// jq-friendly summary: one object per dut under `"runs"`.
fn selftest_json(outcomes: &[(Dut, SelftestSpec, SelftestOutcome)]) -> String {
    let mut s = String::from("{\n  \"runs\": [\n");
    for (i, (dut, spec, out)) in outcomes.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"dut\": \"{}\", \"sessions\": {}, \"established\": {}, \"routes\": {}, \
             \"rounds\": {}, \"shards\": {}, \"updates\": {}, \"best_changes\": {}, \
             \"parity_mismatches\": {}, \"oracle_mismatches\": {}, \"loc_rib_len\": {}, \
             \"p50_latency_ns\": {}, \"p99_latency_ns\": {}, \"elapsed_ms\": {}, \
             \"rejected\": {}, \"core_queue_high_water\": {}, \"passed\": {}}}{}\n",
            dut.slug(),
            spec.sessions,
            out.established,
            spec.routes,
            spec.rounds,
            spec.shards,
            out.updates_applied,
            out.best_changes,
            out.parity_mismatches,
            out.oracle_mismatches,
            out.loc_rib_len,
            out.latency.quantile(0.50),
            out.latency.quantile(0.99),
            out.elapsed.as_millis(),
            out.rejected,
            out.core_queue_high_water,
            out.passed(spec),
            if i + 1 == outcomes.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn cmd_bench(rest: &[String]) -> i32 {
    let out_path = flag(rest, "--out").unwrap_or_else(|| "BENCH_peer_scaling.json".into());
    let date = flag(rest, "--date").unwrap_or_else(|| "unknown".into());
    let cells = bench::run_grid();
    let json = bench::to_json(&cells, &date);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return 1;
    }
    eprintln!("wrote {} cells to {out_path}", cells.len());
    0
}

fn cmd_serve(rest: &[String]) -> i32 {
    let dut: Dut = flag(rest, "--dut").map_or(Dut::Fir, |s| {
        s.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    });
    let mut cfg = ServeConfig::new(dut, flag_parse(rest, "--sessions", 256usize));
    cfg.shards = flag_parse(rest, "--shards", 1usize);
    cfg.bind_port = flag_parse(rest, "--port", 1790u16);
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return 1;
        }
    };
    eprintln!("xbgp-serve: {} listening on {}", dut.slug(), server.addr());
    loop {
        std::thread::sleep(Duration::from_secs(10));
        let c = server.counters();
        eprintln!(
            "sessions={} updates_rx={} prefixes_rx={} withdrawals_rx={}",
            server.established_sessions(),
            c.updates_rx,
            c.prefixes_rx,
            c.withdrawals_rx
        );
    }
}
