//! The TxAllo serving-loop benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Replays the named workload, synthesized from the seed, through the loop
//! a validator runs — ingest a block, fold it into the allocator, close
//! the epoch, apply the migrations — checks the outputs, and prints the
//! result as the last line of standard output: `correct`, `attempted`,
//! `failed` and `metrics` (every end-to-end metric untraced, every
//! per-layer metric traced). The line before it carries the machine,
//! noise and determinism information. See `README.md`.

mod chain;
mod host;
mod layer;
mod output;
mod probe;
mod replay;
#[cfg(test)]
mod selftest;
mod stats;
mod trace;
mod workloads;

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use output::Output;
use probe::json_escape;
use workloads::Workload;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    format!(
                        "unknown workload {value:?}; known: {}",
                        Workload::NAMES.join(", ")
                    )
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// Where traces and the determinism record go: `perfbench/out` under the
/// working directory (the checkout root).
fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// Compares this run's digest with every earlier run of the same
/// workload, seed and size by the same binary, traced or not, and
/// records it. A mismatch is a failed check.
fn check_determinism(args: &Args, size: u64, digest: &str, out: &mut Output) {
    // Tab-separated: key fields, then the value every run must repeat.
    let exe_stamp = std::env::current_exe()
        .and_then(fs::metadata)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let key = format!(
        "{}\t{}\t{size}\t{exe_stamp}",
        args.workload.name(),
        args.seed
    );
    let path = out_dir().join("digests.tsv");
    let known = fs::read_to_string(&path).unwrap_or_default();
    let earlier: Vec<&str> = known
        .lines()
        .filter_map(|line| line.rsplit_once('\t'))
        .filter(|(k, _)| *k == key)
        .map(|(_, d)| d)
        .collect();
    let agree = earlier.iter().all(|d| *d == digest);
    out.check(
        "digest and memory peak repeat across runs of this seed",
        agree,
        format!("{digest} vs {} earlier run(s)", earlier.len()),
    );
    if earlier.is_empty() {
        let _ = fs::create_dir_all(out_dir());
        let _ = fs::write(&path, format!("{known}{key}\t{digest}\n"));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let load_before = probe::Snapshot::now().loadavg;
    let mut out = Output::default();
    let run = args
        .workload
        .run(args.seed, args.seconds, args.traced, &mut out);
    let value = format!("{} {}", run.digest, run.peak_resident_bytes);
    check_determinism(&args, run.size, &value, &mut out);
    let load_after = probe::Snapshot::now().loadavg;

    if let Some(spans) = &run.spans {
        let path = out_dir().join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let written = fs::create_dir_all(out_dir()).and_then(|()| fs::write(&path, spans));
        out.check(
            "trace written",
            written.is_ok(),
            format!("{}: {written:?}", path.display()),
        );
    }

    for c in out.checks().iter().filter(|c| !c.passed) {
        eprintln!("perfbench: check failed: {} ({})", c.name, c.detail);
    }
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"machine\": {}, \
         \"noise\": {{\"loadavg_before\": {load_before}, \"loadavg_after\": {load_after}, {}}}, \
         \"raw_timings\": {}, \"digest\": \"{}\", \"peak_resident_bytes\": {}, \"checks\": {}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        probe::machine_json(),
        run.noise,
        out.raw_timings.as_deref().unwrap_or("null"),
        json_escape(&run.digest),
        run.peak_resident_bytes,
        out.checks_json(),
    );
    println!("{}", out.result_json());
    if out.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
