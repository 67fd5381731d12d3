//! The CDSF benchmark: one workload per process, end-to-end metrics by
//! default, per-layer metrics with `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-mixed --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod dual;
mod gen;
mod outcome;
mod serve;
mod stats;
mod trace;
mod traced;

use outcome::Outcome;

const WORKLOADS: [&str; 3] = ["serve-mixed", "serve-catalog", "dual-stage"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> std::io::Result<Outcome> {
    let shape = match args.workload.as_str() {
        "serve-mixed" => gen::StreamShape::mixed(),
        "serve-catalog" => gen::StreamShape::catalog(),
        _ => {
            return Ok(if args.trace {
                dual::run_traced(args.seed, args.seconds)
            } else {
                dual::run(args.seed, args.seconds)
            })
        }
    };
    if args.trace {
        traced::run(&shape, args.seed, args.seconds)
    } else {
        serve::run(&shape, args.seed, args.seconds)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for e in &out.errors {
                eprintln!("check failed: {e}");
            }
            println!(
                "{}",
                serde_json::to_string(&out.to_json()).expect("a JSON value serializes")
            );
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
