//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload <encode|serve|live-fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The untraced run (`--trace 0`) prints the
//! end-to-end metrics; the traced run (`--trace 1`) prints the per-layer
//! cost ladder and writes its spans and metrics under `benchmark/results/`.
//! Both print the environment record first and, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Every
//! correctness gate runs before anything is printed; a failed gate exits
//! with status 1 and prints no result. See `benchmark/README.md` for the
//! workloads, their sizes and the metric definitions.

mod measure;
mod probe;
mod run;
mod stack;
mod workloads;

use std::process::ExitCode;

use measure::{metrics_json, result_line, Env, JsonObject};
use probe::Spans;
use run::Outcome;
use stack::{Scale, Stack};
use workloads::{Encode, LiveFleet, Serve};

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn dispatch(args: &Args) -> Result<Outcome, String> {
    let go = |f: fn(Scale, u64, f64, bool) -> Result<Outcome, String>| {
        f(Scale::Full, args.seed, args.seconds as f64, args.trace)
    };
    match args.workload.as_str() {
        Encode::NAME => go(run::run::<Encode>),
        Serve::NAME => go(run::run::<Serve>),
        LiveFleet::NAME => go(run::run::<LiveFleet>),
        other => Err(format!(
            "unknown workload {other} (expected {}, {} or {})",
            Encode::NAME,
            Serve::NAME,
            LiveFleet::NAME
        )),
    }
}

/// Write the traced run's record and spans under `benchmark/results/`.
fn write_trace(env: &Env, outcome: &Outcome) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}", env.workload, env.seed);
    let mut record = JsonObject::new();
    record.raw("env", &env.to_json());
    record.raw("metrics", &metrics_json(&outcome.metrics));
    std::fs::write(dir.join(format!("{stem}.json")), record.finish() + "\n")?;
    let path = dir.join(format!("{stem}.spans.jsonl"));
    let spans = outcome.spans.as_ref().map(Spans::to_json_lines);
    std::fs::write(&path, spans.unwrap_or_default())?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let env = Env::capture(&args.workload, args.seed, args.seconds, args.trace);
    let outcome = match dispatch(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("gate failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        match write_trace(&env, &outcome) {
            Ok(path) => eprintln!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write the trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("env {}", env.to_json());
    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", result_line(outcome.attempted, 0, &outcome.metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse(argv("--workload serve --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            args,
            Args {
                workload: "serve".to_string(),
                seed: 3,
                seconds: 10,
                trace: true,
            }
        );
        assert!(parse(argv("--workload serve --seed x --seconds 1")).is_err());
        assert!(parse(argv("--workload serve --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse(argv("--seed 1 --seconds 1")).is_err());
        assert!(parse(argv("--bogus 1")).is_err());
    }

    #[test]
    fn unknown_workloads_are_refused() {
        let args = parse(argv("--workload nope --seed 1 --seconds 1")).unwrap();
        assert!(dispatch(&args).is_err());
    }
}
