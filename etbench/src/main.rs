//! The repository benchmark: one command per workload, printing every
//! metric by name with its unit and checking that outputs are correct.
//!
//! ```text
//! cargo run --release --manifest-path etbench/Cargo.toml -- \
//!     --workload interactive|churn|repro --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the workload end to end. With
//! `--trace 1` it runs the traced layer sweep instead and prints the
//! per-layer metrics. The last line of stdout is the JSON result; the
//! lines before it are the human-readable report. See `NOTES.md`.

mod layers;
mod schedule;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::process::ExitCode;

use workloads::Outcome;

const USAGE: &str =
    "usage: etbench --workload interactive|churn|repro --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("must lie in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["interactive", "churn", "repro"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// The JSON result. A run that attempted nothing, or whose checks or ops
/// failed, is not correct.
fn result_line(out: &mut Outcome) -> String {
    let mut metrics = Vec::with_capacity(out.metrics.len());
    for m in out.metrics.clone() {
        let value = if m.value.is_finite() {
            m.value
        } else {
            out.fail(format!("{} is not finite", m.name));
            0.0
        };
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(&m.name),
            json_str(m.unit)
        ));
    }
    if out.acct.attempted() == 0 {
        out.fail("no operation was attempted");
    }
    if out.acct.failed() > 0 {
        out.fail(format!("{} operations failed", out.acct.failed()));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.acct.attempted(),
        out.acct.failed(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("etbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = if args.trace {
        layers::traced(args.seed, args.seconds)
    } else {
        match args.workload.as_str() {
            "interactive" => workloads::interactive(args.seed, args.seconds),
            "churn" => workloads::churn(args.seed, args.seconds),
            _ => workloads::repro(args.seconds),
        }
    };
    // Runs remove their own data directories; drop the parent once empty.
    let _ = std::fs::remove_dir(".bench_data");
    println!(
        "# etbench workload={} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for line in out.acct.lines() {
        println!("# {line}");
    }
    let line = result_line(&mut out);
    for n in &out.notes {
        println!("# {n}");
    }
    for m in &out.metrics {
        println!("# {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{line}");
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
