//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run environment, the output checks, and each metric by name
//! with its unit; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when an output check fails
//! and 2 on a usage or set-up error.

use e2ebench::report::result_line;
use e2ebench::{nproc, run, RunArgs, Scale, WORKLOADS};
use std::process::ExitCode;

fn parse(argv: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}'; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
        inject: None,
    })
}

/// Order-stable digest of the measured crates' sources: the checkout is
/// not a git repository, so this stands in for the commit.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        if let Ok(rd) = std::fs::read_dir(dir) {
            for e in rd.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, files);
                } else if p.extension().is_some_and(|x| x == "rs") {
                    files.push(p);
                }
            }
        }
    }
    let mut files = Vec::new();
    for c in [
        "pilot-core",
        "pilot-query",
        "pilot-streaming",
        "pilot-apps",
        "pilot-sim",
    ] {
        walk(
            &std::path::Path::new("crates").join(c).join("src"),
            &mut files,
        );
    }
    files.sort();
    let mut h: u64 = 0xcbf29ce484222325;
    for f in &files {
        for b in std::fs::read(f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }
    format!("src-fnv {h:016x} over {} files", files.len())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    println!(
        "env: nproc {} | loadavg {} | {} | seed {} | trace {}",
        nproc(),
        load.split_whitespace()
            .take(3)
            .collect::<Vec<_>>()
            .join(" "),
        source_digest(),
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "host caveat: {} CPUs; no figure here implies a speed-up that needs more cores",
        nproc()
    );
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    for n in &out.notes {
        println!("{n}");
    }
    for c in &out.checks {
        println!(
            "check {:<20} {} {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    println!(
        "error_rate {:.6} ratio ({} failed of {} attempted)",
        out.error_rate(),
        out.failed,
        out.attempted
    );
    let table = match out.table(args.trace) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    for (name, unit, v) in &table {
        println!("metric {name} {v} {unit}");
    }
    let correct = out.correct();
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &table)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
