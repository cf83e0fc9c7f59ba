//! `perfbench` — the repository benchmark: three named workloads run
//! against the shipped code, end-to-end metrics with tracing off
//! (`--trace 0`) and a per-layer breakdown with it on (`--trace 1`).
//!
//! ```text
//! perfbench --hics <path to hics> --work-dir <dir>
//!           --workload fit|serve_point|route
//!           --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! Normally started through `perfbench/run.sh`, which builds both binaries
//! first. Detail lines start with `#`; the last line of standard output is
//! the JSON result. See `perfbench/README.md`.

mod closedloop;
mod inputs;
mod layers;
mod net;
mod openloop;
mod procs;
mod promtext;
mod report;
mod stats;
mod work_fit;
mod work_point;

use std::path::PathBuf;
use std::process::ExitCode;

/// What every workload gets.
pub struct Ctx {
    /// The `hics` binary under test.
    pub hics: PathBuf,
    /// Scratch space for this run, removed at exit.
    pub work: procs::WorkDir,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
}

const WORKLOADS: [&str; 3] = ["fit", "serve_point", "route"];

fn parse_args() -> Result<(String, Ctx), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut hics, mut work) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--hics" => hics = Some(PathBuf::from(value)),
            "--work-dir" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let hics = hics.ok_or("--hics is required")?;
    if !hics.is_file() {
        return Err(format!("no hics binary at {}", hics.display()));
    }
    let work = work.ok_or("--work-dir is required")?;
    let ctx = Ctx {
        hics,
        work: procs::WorkDir::create(&work, &workload),
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        nproc: hics_outlier::parallel::available_threads(),
    };
    Ok((workload, ctx))
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match workload.as_str() {
        "fit" => work_fit::run(&ctx),
        "serve_point" => work_point::serve_point(&ctx),
        "route" => work_point::route(&ctx),
        _ => unreachable!("workload validated in parse_args"),
    };
    outcome.note("seed", ctx.seed);
    outcome.note("seconds", ctx.seconds);
    outcome.note("trace", u8::from(ctx.trace));
    outcome.note("nproc", ctx.nproc);
    println!("# fingerprint {}", outcome.fingerprint_json());
    println!(
        "# ops sent={} succeeded={} failed={} mismatches={}",
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed,
        outcome.mismatches
    );
    let catalogue = if ctx.trace {
        &report::PER_LAYER[..]
    } else {
        &report::END_TO_END[..]
    };
    // Everything the run measured, gated or not.
    for (name, unit) in report::END_TO_END.iter().chain(&report::PER_LAYER) {
        if let Some(v) = outcome.metrics.get(name) {
            println!("# {name} = {v} {unit}");
        }
    }
    println!("{}", outcome.result_json(catalogue));
    if outcome.mismatches > 0 {
        eprintln!(
            "perfbench: {} outputs differ from the in-process reference",
            outcome.mismatches
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
