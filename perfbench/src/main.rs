//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one info line, then the result as one JSON object on the last
//! line of standard output.

use perfbench::{run, Config, Size, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <harmonic-trials|scale-flood|quorum-stream> \
         --seed <u64> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                );
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage("bad --seed")));
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .unwrap_or_else(|_| usage("bad --seconds"));
                if !(s.is_finite() && s > 0.0) {
                    usage("--seconds must be positive");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let config = Config {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace,
        size: Size::Full,
        sabotage_op: None,
    };
    let report = run(&config);
    println!("# {}", report.info);
    println!("{}", report.json());
}
