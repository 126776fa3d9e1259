//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--out-dir DIR]`: run one workload and print its metrics; the last
//! line of standard output is the JSON result.

use mobicast_perfbench::{run, Options, Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: mobicast_perfbench::alloc::CountingAlloc = mobicast_perfbench::alloc::CountingAlloc;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::MetroFlood,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        out_dir: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => opts.out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    for line in &outcome.lines {
        println!("{line}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name} = {value} {unit}");
    }
    println!("{}", outcome.json_line());
    ExitCode::SUCCESS
}
