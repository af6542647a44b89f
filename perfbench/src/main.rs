//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oltp|tpch_disk|crash_recover> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it replays the workload's statements through three
//! stacks and runs a traced phase to produce the per-layer metrics, and
//! writes the spans to `perfbench/out/`. Each metric is printed as
//! `name value unit`; the last line of standard output is the JSON
//! result. The exit code is 1 when a correctness check failed.

mod crash_recover;
mod layers;
mod metrics;
mod oltp;
mod tpch_disk;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Outcome, Values, END_TO_END, PER_LAYER};
use util::{ratio, ErrCounts, ErrKind};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["oltp", "tpch_disk", "crash_recover"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Failure share and the per-kind counts of failed or retried attempts.
pub fn fill_failures(v: &mut Values, attempted: u64, failed: u64, errs: &ErrCounts) {
    v.set("bench.failed_frac", ratio(failed as f64, attempted as f64));
    for k in ErrKind::ALL {
        v.set(k.metric(), errs.get(k) as f64);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut values = Values::new(if args.trace { PER_LAYER } else { END_TO_END });
    let mut out = Outcome::new();
    match args.workload.as_str() {
        "oltp" => oltp::run(&args, &mut values, &mut out),
        "tpch_disk" => tpch_disk::run(&args, &mut values, &mut out),
        _ => crash_recover::run(&args, &mut values, &mut out),
    }
    if !args.trace {
        values.set("rss_mb", util::peak_rss_mb());
    } else {
        let spans = trace::take();
        let path = PathBuf::from(format!(
            "perfbench/out/{}-seed{}.trace.jsonl",
            args.workload, args.seed
        ));
        match trace::write(&path, &spans) {
            Ok(()) => eprintln!("perfbench: {} spans in {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    out.check(out.attempted > 0, || "no operation was attempted".into());
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    print!("{}", values.render_table());
    println!("{}", metrics::result_line(&out, &values));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
