//! The repo's benchmark. One process measures one workload:
//!
//! ```text
//! pgxd-benchmark --workload W --seed S --seconds T --trace 0|1
//! pgxd-benchmark --selftest
//! ```
//!
//! `--trace 0` is the end-to-end pass, `--trace 1` the layer pass. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `run.sh` builds and starts this
//! program; `full_run.py` runs rounds of the same pass and pools them.

mod layers;
mod measure;
mod spans;
mod stats;
mod verify;
mod workload;

use measure::{Budget, Measured};
use stats::median;
use std::fmt::Write as _;
use std::process::ExitCode;
use workload::{Item, Keys, Record, Workload, DEFAULT_SEED};

/// Set-ups per pass; `setup_s` is their median.
const SETUPS_PER_RUN: usize = 5;
/// Where the layer pass writes its spans.
const OUT_DIR: &str = "benchmark/out";
/// Share of a `--trace 1` run's `--seconds` that its untraced baseline gets;
/// the rest of the layer pass is fixed-size work.
const BASELINE_SHARE: f64 = 0.3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selftest" => args.selftest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pgxd-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if args.selftest {
        verify::selftest()?;
        println!("selftest: all five kinds of wrong output were caught");
        return Ok(ExitCode::SUCCESS);
    }
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let w = workload::find(name).ok_or(format!("no workload named {name}"))?;
    match w.keys {
        Keys::Records => run_workload::<Record>(w, args),
        _ => run_workload::<u64>(w, args),
    }
}

fn run_workload<T: Item>(w: &Workload, args: &Args) -> Result<ExitCode, String> {
    println!(
        "{}: n={} p={} workers={} seed={} deps=std-shims threads={}",
        w.name,
        w.n,
        w.machines,
        w.workers,
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let (metrics, attempted, failed, first_error) = if args.trace {
        let baseline = Budget::Seconds(args.seconds * BASELINE_SHARE);
        let pass = layers::layer_pass::<T>(w, args.seed, baseline)?;
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace_{}.jsonl", w.name);
        std::fs::write(&path, pass.spans.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
        println!("{} spans written to {path}", pass.spans.all.len());
        (pass.metrics, pass.attempted, pass.failed, pass.first_error)
    } else {
        let budget = Budget::Seconds(args.seconds);
        let trace_off = pgxd::TraceConfig::disabled();
        let m = measure::measure::<T>(w, args.seed, SETUPS_PER_RUN, budget, trace_off)?;
        println!("{}", samples_line(w, &m));
        (end_to_end(w, &m)?, m.attempted, m.failed, m.first_error)
    };
    if let Some(e) = &first_error {
        eprintln!("{}: first failure: {e}", w.name);
    }
    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>18.9} {unit}");
    }
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    println!("{line}}}}}");
    Ok(ExitCode::SUCCESS)
}

/// The five end-to-end metrics of one pass, the two timings pooled over
/// every timed sort. Failures travel in the result line's `correct`, `failed`
/// and `attempted`, which `full_run.py` turns into `failed_frac`.
fn end_to_end(w: &Workload, m: &Measured) -> Result<Vec<(String, f64, &'static str)>, String> {
    if m.sort_s.is_empty() {
        return Err(format!(
            "{}: no sort completed: {}",
            w.name,
            m.first_error.as_deref().unwrap_or("no error recorded")
        ));
    }
    let keys = (w.n * m.sort_s.len()) as f64;
    let wall: f64 = m.sort_s.iter().sum();
    Ok(vec![
        ("setup_s".to_string(), median(&m.setup_s), "s"),
        ("keys_per_s".to_string(), keys / wall, "keys/s"),
        ("sort_s_p50".to_string(), median(&m.sort_s), "s"),
        ("imbalance".to_string(), m.imbalance, "ratio"),
        (
            "wire_bytes_per_key".to_string(),
            m.wire_bytes_per_key(w),
            "B/key",
        ),
    ])
}

/// Raw samples for `full_run.py`, which pools them over rounds.
fn samples_line(w: &Workload, m: &Measured) -> String {
    let list = |values: &[f64]| {
        let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        format!("[{}]", items.join(","))
    };
    format!(
        "#samples {{\"keys_per_sort\":{},\"setup_s\":{},\"sort_s\":{}}}",
        w.n,
        list(&m.setup_s),
        list(&m.sort_s)
    )
}
