//! Full-scale benchmark of the atos-rs simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `README.md` for why each exists) on a single
//! thread (only the traced run's two-shard and two-worker re-runs use
//! two): builds its inputs several times (`setup_s` is the median),
//! computes every oracle, then repeats the workload's cells for at least
//! `--seconds`, checking each result against its oracle and each repeat's
//! virtual time and `RunStats` counters against the first. With
//! `--trace 0` the last stdout line reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics, measured from outside by
//! timing the calls into each layer. The line before it is the run's
//! provenance.

mod cells;
mod inputs;
mod probe;
mod report;
mod workload;

use std::process::ExitCode;

use crate::inputs::DEFAULT_SEED;

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    probe_child: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            probe_child: false,
        };
        while let Some(flag) = argv.next() {
            if flag == probe::CHILD_FLAG {
                args.probe_child = true;
                continue;
            }
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("expected a non-negative number"))?
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.probe_child {
        return ExitCode::from(probe::child());
    }
    let Some(wl) = workload::by_name(&args.workload) else {
        let names: Vec<&str> = workload::ALL.iter().map(|w| w.name).collect();
        eprintln!(
            "unknown workload {:?}; one of {names:?}\n{USAGE}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let result = workload::run(wl, args.seed, args.seconds, args.trace);
    println!("{}", report::provenance(wl, args.seed, args.trace, &result));
    println!("{}", report::result_line(&result));
    ExitCode::SUCCESS
}
