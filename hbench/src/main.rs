//! End-to-end and per-layer benchmark of the HORNET-RS simulator.
//!
//! ```text
//! hbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hbench record --seeds <a>-<b> --seconds <s> [--workload <name>]   # fixture digests
//! ```
//!
//! Run from the repository root. Detail lines (host record, window times,
//! references) come first; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`). The binary also serves as the distributed workers'
//! executable (`hbench worker ...`).

mod digest;
mod host;
mod metrics;
mod timed;
mod workloads;

use std::process::ExitCode;
use workloads::Workload;

/// Scratch directory for the distributed runs' sockets, relative to the
/// working directory so socket paths stay short.
const SCRATCH: &str = ".hbench-tmp";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                seconds = Some(s.clamp(1, 600));
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(12),
        trace: trace.unwrap_or(false),
    })
}

fn worker(args: &[String]) -> ExitCode {
    let (mut connect, mut family, mut nonce) = (None, "unix".to_string(), 0u64);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match (a.as_str(), it.next()) {
            ("--connect", Some(v)) => connect = Some(v.clone()),
            ("--family", Some(v)) => family = v.clone(),
            ("--nonce", Some(v)) => nonce = v.parse().unwrap_or_default(),
            _ => return ExitCode::from(2),
        }
    }
    let Some(connect) = connect else {
        return ExitCode::from(2);
    };
    match hornet_dist::worker::worker_main(&connect, &family, None, nonce) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hbench worker: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the sequential reference digests of seeds `a..=b` for every
/// workload (or the one named), in the fixture's line format.
fn record(args: &[String]) -> ExitCode {
    let mut seeds = (0u64, 30u64);
    let mut seconds = 12u64;
    let mut only = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().map(String::as_str).unwrap_or_default();
        match flag.as_str() {
            "--seeds" => {
                let parsed = value
                    .split_once('-')
                    .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)));
                let Some(range) = parsed else {
                    eprintln!("--seeds wants a-b");
                    return ExitCode::from(2);
                };
                seeds = range;
            }
            "--seconds" => seconds = value.parse().unwrap_or(12),
            "--workload" => match Workload::from_name(value) {
                Some(w) => only = Some(w),
                None => return ExitCode::from(2),
            },
            _ => return ExitCode::from(2),
        }
    }
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        for seed in seeds.0..=seeds.1 {
            match workloads::reference_line(workload, seed, seconds) {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("{} seed {seed}: {e}", workload.name());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("worker") => return worker(&args[1..]),
        Some("record") => return record(&args[1..]),
        _ => {}
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hbench: {e}\nusage: hbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // Distributed runs keep their sockets under the working directory.
    if std::fs::create_dir_all(SCRATCH).is_err() {
        eprintln!("hbench: cannot create {SCRATCH}");
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", SCRATCH);

    let cpu_before = host::cpu_times();
    let load_start = host::loadavg_1m();
    let mut run = if args.trace {
        workloads::traced(args.workload, args.seed, args.seconds)
    } else {
        workloads::timed(args.workload, args.seed, args.seconds)
    };
    let steal = host::steal_pct(cpu_before, host::cpu_times());
    let load_end = host::loadavg_1m();
    let _ = std::fs::remove_dir_all(SCRATCH);

    println!("host {}", host::record(steal, load_start, load_end));
    println!(
        "run workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &run.details {
        println!("  {line}");
    }
    let schema = if args.trace {
        run.metrics.set("host.steal_pct", steal);
        run.metrics.set("host.loadavg_1m", load_start);
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let tally = &run.tally;
    if tally.failed > 0 {
        // A failed operation may leave metrics unmeasured; they read 0.
        for (name, _) in schema {
            if run.metrics.get(name).is_none() {
                run.metrics.set(name, 0.0);
            }
        }
    }
    match metrics::result_line(
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        &run.metrics,
        schema,
    ) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hbench: {e}");
            ExitCode::FAILURE
        }
    }
}
