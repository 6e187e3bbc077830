//! The serve-path benchmark: runs one named workload against the real
//! `acs-serve` server over loopback TCP, checks every reply, and prints
//! each metric by name and unit. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload select-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the same
//! workload untraced and then with client spans (their difference is the
//! tracing overhead), times each layer's public functions on the
//! workload's own inputs, and prints the stage table.
//!
//! The closed-loop workloads pin the load and the servers to one CPU;
//! the context line names it.

mod churn;
mod common;
mod count;
mod fleet;
mod hot;
mod layers;
mod overload;

use common::{Kind, Metric, Outcome, WorkDir};
use serde::Value;

#[global_allocator]
static ALLOC: count::CountingAlloc = count::CountingAlloc;

const WORKLOADS: [&str; 4] = ["select-hot", "session-churn", "overload-open", "fleet-rebalance"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace must be 0 or 1".into()),
            },
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "select-hot" => hot::run(seed, seconds, trace, work),
        "session-churn" => churn::run(seed, seconds, trace, work),
        "overload-open" => overload::run(seed, seconds, trace, work),
        "fleet-rebalance" => fleet::run(seed, seconds, trace, work),
        _ => unreachable!("validated in parse_args"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // The core count is the machine's, read before pinning narrows it.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // The closed loops run pinned (see `pin_to_one_cpu`). overload-open
    // is not a closed loop: its sender, receiver and server keep every
    // CPU. The rayon pool the engine fans batches onto is sized before
    // pinning, so it keeps every CPU too.
    let pinned = if args.workload == "overload-open" {
        None
    } else {
        rayon::current_num_threads();
        common::pin_to_one_cpu()
    };
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let result = run(&args, &work);
    let stopped = common::stop_control();
    work.remove();
    let out = match result.and_then(|out| stopped.map(|()| out)) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let error_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "workload {} seed {} ({} s, trace {})",
        args.workload, args.seed, args.seconds, args.trace
    );
    println!("nproc {nproc}, {}, loopback TCP only", env!("PERFBENCH_RUSTC"));
    match pinned {
        Some(cpu) => println!("load and server threads pinned to CPU {cpu}"),
        None => println!("threads not pinned"),
    }
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("  {:<34} {:>14.4} {:<6} (n={})", m.name, m.value, m.unit, m.samples);
    }
    println!(
        "  {:<34} {error_ratio:>14.6} ratio  ({} failed of {} attempted)",
        "error_ratio", out.failed, out.attempted
    );
    for f in &out.check_failures {
        println!("CHECK FAILED: {f}");
    }

    // The result line carries the end-to-end metrics every benchmarked
    // workload reports (untraced) or the per-layer metrics (traced); the
    // context line carries the rest, with every sample count.
    let on_result_line =
        |m: &&Metric| m.kind == if args.trace { Kind::Layer } else { Kind::EndToEnd };
    let s = |v: &str| Value::Str(v.to_string());
    let entry = |m: &Metric| {
        let v = Value::Map(vec![("value".into(), Value::F64(m.value)), ("unit".into(), s(m.unit))]);
        (m.name.clone(), v)
    };
    let samples = out.metrics.iter().map(|m| (m.name.clone(), Value::U64(m.samples as u64)));
    let also = out.metrics.iter().filter(|m| !on_result_line(m)).map(entry);
    let context = Value::Map(vec![
        ("workload".into(), s(&args.workload)),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("pinned_cpu".into(), pinned.map_or(Value::Null, |c| Value::U64(c as u64))),
        ("rustc".into(), s(env!("PERFBENCH_RUSTC"))),
        ("transport".into(), s("loopback TCP only; server, coordinator and load in one process")),
        ("samples".into(), Value::Map(samples.collect())),
        ("error_ratio".into(), Value::F64(error_ratio)),
        ("check_failures".into(), Value::U64(out.check_failure_count)),
        ("also".into(), Value::Map(also.collect())),
    ]);
    println!("{}", json(&Value::Map(vec![("context".into(), context)])));

    let metrics = out.metrics.iter().filter(on_result_line).map(entry);
    println!(
        "{}",
        json(&Value::Map(vec![
            ("correct".into(), Value::Bool(out.correct())),
            ("attempted".into(), Value::U64(out.attempted)),
            ("failed".into(), Value::U64(out.failed)),
            ("metrics".into(), Value::Map(metrics.collect())),
        ]))
    );
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).expect("a value tree always serializes")
}
