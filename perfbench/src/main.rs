//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <table_ov|churn_rr|serve_tcp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable notes (the Fig. 4 shape report, any failures),
//! then, as the last line, the JSON result object.

use std::process::ExitCode;

use xbgp_perfbench::{run, Scale, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <table_ov|churn_rr|serve_tcp> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("flag `{}` needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage(
            "--workload, --seed, --seconds and --trace are all required and must be valid",
        );
    };
    let report = run(workload, seed, seconds, trace, &Scale::FULL);
    for line in &report.notes {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
