//! The experiment harness: one subcommand per table/figure of the paper's
//! evaluation (§V), plus the DESIGN.md ablations.
//!
//! ```text
//! exp fig5    [--n=N] [--procs=8,16,32,52] [--workers=W] [--seed=S]
//! exp fig6    [--n=N] [--procs=...] ...
//! exp fig7    [--n=N] [--procs=P]
//! exp table2  [--n=N]
//! exp fig8    [--scale=S] [--ef=E] [--procs=...]
//! exp table3  [--scale=S] [--ef=E]
//! exp fig9    [--scale=S] [--ef=E] [--procs=P]
//! exp fig10   [--scale=S] [--ef=E] [--procs=...]
//! exp fig11   [--scale=S] [--ef=E]
//! exp ablation [--n=N] [--procs=P]
//! exp trace   [--n=N] [--procs=P] [--workers=W]
//! exp chaos   [--n=N] [--procs=P] [--workers=W] [--seed=S]
//! exp health  [--n=N] [--procs=P] [--workers=W] [--seed=S]
//! exp all     — run everything with defaults
//! ```
//!
//! Every experiment prints a paper-style table and writes raw results to
//! `results/<name>.json`: one record per sort, each an [`ExpResult`] (the
//! run's labels and its [`pgxd::RunReport`]) from one of the two runners,
//! `run_pgxd` and `run_spark`, which `fig11` uses too. Fig. 11's records
//! add `retained_bytes`, `temporary_bytes` and `peak_bytes`.
//!
//! `exp trace` runs one sort with the structured trace layer on and writes
//! `results/trace_sort.json` (Chrome `trace_event` format — load it in
//! Perfetto / chrome://tracing) plus `results/trace_sort.jsonl`, then
//! prints the derived views (step Gantt, exchange overlap, barrier skew).
//! Passing `--trace` to `fig7` does the same for its normal-distribution
//! run (`results/trace_fig7.json`).
//!
//! `exp chaos` sweeps the fault-injection presets (see `pgxd::fault`)
//! across seeds on a skew-storm workload, recording survival, structured
//! failures, and latency degradation vs a fault-free baseline
//! (`results/chaos_sweep.json`).
//!
//! `exp health` drives a skewed chaos run (skew-storm keys, amplified
//! straggler plan) and asserts its step report names the straggler
//! machine as the slowest of some step; the per-step view, comm totals
//! and per-destination bytes go to `results/health_report.json`.

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd::trace::TraceConfig;
use pgxd::{FaultPlan, RunErrorKind};
use pgxd_algos::kway::kway_merge_into;
use pgxd_algos::merge::balanced_merge;
use pgxd_bench::json::Json;
use pgxd_bench::runner::{fmt_secs, run_pgxd, run_spark, ExpResult, Workload};
use pgxd_bench::table::Table;
use pgxd_core::steps;
use pgxd_core::{DistSorter, SortConfig};
use pgxd_datagen::{generate_partitioned, Distribution};
use std::time::{Duration, Instant};

// Fig. 11 needs heap accounting: install the tracking allocator for the
// whole harness (negligible overhead for the other experiments).
#[global_allocator]
static GLOBAL: pgxd_memtrack::TrackingAlloc = pgxd_memtrack::TrackingAlloc;

/// CLI options with paper-flavoured defaults scaled to a laptop.
#[derive(Debug, Clone)]
struct Opts {
    n: usize,
    procs: Vec<usize>,
    workers: usize,
    seed: u64,
    scale: u32,
    edge_factor: usize,
    trace: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            n: 1_000_000,
            procs: vec![8, 16, 32, 52],
            workers: pgxd_bench::DEFAULT_WORKERS,
            seed: pgxd_bench::DEFAULT_SEED,
            scale: 17,
            edge_factor: 8,
            trace: false,
        }
    }
}

/// The flags every subcommand accepts.
const FLAGS: &str =
    "[--n=N] [--procs=8,16,32,52] [--workers=W] [--seed=S] [--scale=S] [--ef=E] [--trace]";

/// Reads `args` over subcommand-specific defaults. An argument that is
/// not one of [`FLAGS`], or whose value does not parse, is an error.
fn parse_opts_from(mut opts: Opts, args: &[String]) -> Result<Opts, String> {
    for arg in args {
        set_flag(&mut opts, arg)
            .ok_or_else(|| format!("bad argument `{arg}`; accepted: {FLAGS}"))?;
    }
    Ok(opts)
}

/// Applies one `--key=value` (or `--trace`) to `opts`; `None` if `arg`
/// is not one of [`FLAGS`] or its value does not parse.
fn set_flag(opts: &mut Opts, arg: &str) -> Option<()> {
    fn num<T: std::str::FromStr>(v: &str) -> Option<T> {
        v.trim().parse().ok()
    }
    let rest = arg.strip_prefix("--")?;
    match rest.split_once('=') {
        Some(("n", v)) => opts.n = num(v)?,
        Some(("procs", v)) => opts.procs = v.split(',').map(num).collect::<Option<_>>()?,
        Some(("workers", v)) => opts.workers = num(v)?,
        Some(("seed", v)) => opts.seed = num(v)?,
        Some(("scale", v)) => opts.scale = num(v)?,
        Some(("ef", v)) => opts.edge_factor = num(v)?,
        None if rest == "trace" => opts.trace = true,
        _ => return None,
    }
    Some(())
}

/// [`parse_opts_from`], or the error on stderr and exit status 2.
fn opts_or_exit(defaults: Opts, args: &[String]) -> Opts {
    parse_opts_from(defaults, args).unwrap_or_else(|e| {
        eprintln!("exp: {e}");
        std::process::exit(2)
    })
}

/// Writes `body` to `results/<file>`. A failure is a warning: the tables
/// the run printed are its result either way.
fn write_result_file(file: &str, what: &str, body: String) {
    let dir = std::path::Path::new("results");
    let path = dir.join(file);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("({what} → {})", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn save_json(name: &str, results: &[ExpResult]) {
    save_records(name, results.iter().map(ExpResult::to_json).collect());
}

fn save_records(name: &str, records: Vec<Json>) {
    write_result_file(
        &format!("{name}.json"),
        "raw results",
        Json::from(records).pretty(),
    );
}

/// The cluster every experiment runs on: `p` machines of `opts.workers`
/// workers each.
fn cluster(p: usize, opts: &Opts) -> ClusterConfig {
    ClusterConfig::new(p).workers_per_machine(opts.workers)
}

fn dist_workload(dist: Distribution, opts: &Opts) -> Workload {
    Workload::Dist {
        dist,
        n: opts.n,
        seed: opts.seed,
    }
}

fn twitter_workload(opts: &Opts) -> Workload {
    Workload::Twitter {
        scale: opts.scale,
        edge_factor: opts.edge_factor,
        seed: opts.seed,
    }
}

// ---------------------------------------------------------------------------
// Fig. 5: PGX.D total execution time, four distributions, proc sweep.
// ---------------------------------------------------------------------------
fn fig5(opts: &Opts) {
    println!("\n=== Fig. 5: PGX.D total sort time by distribution ===");
    println!("(n = {} keys, {} workers/machine)\n", opts.n, opts.workers);
    let mut results = Vec::new();
    let mut table = Table::new(vec![
        "procs",
        "uniform",
        "normal",
        "right-skewed",
        "exponential",
    ]);
    for &p in &opts.procs {
        let mut cells = vec![p.to_string()];
        for dist in Distribution::ALL {
            let w = dist_workload(dist, opts);
            let r = run_pgxd(&w, &w.generate(p), cluster(p, opts), SortConfig::default());
            cells.push(fmt_secs(r.report.wall_time));
            results.push(r);
        }
        table.row(cells);
    }
    table.print();
    save_json("fig5", &results);
}

// ---------------------------------------------------------------------------
// Fig. 6: strong scaling, PGX.D vs Spark.
// ---------------------------------------------------------------------------
fn fig6(opts: &Opts) {
    println!(
        "\n=== Fig. 6: strong scaling, PGX.D vs Spark (uniform, n = {}) ===",
        opts.n
    );
    println!("(speedup columns use the work-scaled model; see EXPERIMENTS.md)\n");
    let workload = dist_workload(Distribution::Uniform, opts);
    let mut results = Vec::new();
    let mut table = Table::new(vec![
        "procs",
        "pgxd wall",
        "spark wall",
        "spark/pgxd",
        "pgxd speedup",
        "spark speedup",
    ]);
    let mut base: Option<(f64, f64)> = None;
    for &p in &opts.procs {
        let parts = workload.generate(p);
        let rp = run_pgxd(&workload, &parts, cluster(p, opts), SortConfig::default());
        let rs = run_spark(&workload, &parts, cluster(p, opts));
        let (bp, bs) = *base.get_or_insert((rp.scaled_time(), rs.scaled_time()));
        table.row(vec![
            p.to_string(),
            fmt_secs(rp.report.wall_time),
            fmt_secs(rs.report.wall_time),
            format!("{:.2}x", rs.wall_secs() / rp.wall_secs()),
            format!("{:.2}x", bp / rp.scaled_time()),
            format!("{:.2}x", bs / rs.scaled_time()),
        ]);
        results.push(rp);
        results.push(rs);
    }
    table.print();
    save_json("fig6", &results);
}

// ---------------------------------------------------------------------------
// Fig. 7: per-step breakdown, normal + right-skewed.
// ---------------------------------------------------------------------------
fn fig7(opts: &Opts) {
    let p = *opts.procs.first().unwrap_or(&8);
    println!(
        "\n=== Fig. 7: per-step time (p = {p}, n = {}) ===\n",
        opts.n
    );
    let trace_cfg = if opts.trace {
        TraceConfig::enabled()
    } else {
        TraceConfig::disabled()
    };
    let run = |dist, trace| {
        let w = dist_workload(dist, opts);
        run_pgxd(
            &w,
            &w.generate(p),
            cluster(p, opts).trace(trace),
            SortConfig::default(),
        )
    };
    let rn = run(Distribution::Normal, trace_cfg);
    let rs = run(Distribution::RightSkewed, TraceConfig::disabled());
    // Max is the critical-path column (a step is as slow as its slowest
    // machine); p50/p95 show how far the stragglers sit above the pack.
    let mut table = Table::new(vec![
        "step",
        "normal max",
        "normal p50",
        "normal p95",
        "right-skewed max",
        "right-skewed p50",
        "right-skewed p95",
    ]);
    for step in steps::ALL {
        let mut cells = vec![step.to_string()];
        for r in [&rn, &rs] {
            let s = &r.report.steps;
            cells.push(fmt_secs(s.max_across_machines(step)));
            cells.push(fmt_secs(s.p50_across_machines(step)));
            cells.push(fmt_secs(s.p95_across_machines(step)));
        }
        table.row(cells);
    }
    table.print();
    if let Some(log) = &rn.report.trace {
        save_trace("fig7", log);
    }
    let exchange_share = |r: &ExpResult| {
        let s = &r.report.steps;
        let total: f64 = steps::ALL
            .iter()
            .map(|n| s.max_across_machines(n).as_secs_f64())
            .sum();
        100.0 * s.max_across_machines(steps::EXCHANGE).as_secs_f64() / total
    };
    println!(
        "exchange share of step total: normal {:.1}%, right-skewed {:.1}%",
        exchange_share(&rn),
        exchange_share(&rs)
    );
    let (xn, xs) = (&rn.report.comm.exchange, &rs.report.comm.exchange);
    println!(
        "exchange chunks sent: normal {}, right-skewed {}",
        xn.chunks_sent, xs.chunks_sent
    );
    save_json("fig7", &[rn, rs]);
}

// ---------------------------------------------------------------------------
// Table II: per-processor share after sorting, 10 procs, 4 distributions.
// ---------------------------------------------------------------------------
fn table2(opts: &Opts) {
    let p = 10;
    println!(
        "\n=== Table II: data share per processor (p = {p}, n = {}) ===\n",
        opts.n
    );
    let mut header = vec!["distribution".to_string()];
    header.extend((0..p).map(|i| format!("proc{i}")));
    let mut table = Table::new(header);
    let mut results = Vec::new();
    for dist in Distribution::ALL {
        let w = dist_workload(dist, opts);
        let r = run_pgxd(&w, &w.generate(p), cluster(p, opts), SortConfig::default());
        let mut cells = vec![dist.name().to_string()];
        cells.extend(
            r.load()
                .shares()
                .iter()
                .map(|s| format!("{:.3}%", s * 100.0)),
        );
        table.row(cells);
        results.push(r);
    }
    table.print();
    save_json("table2", &results);
}

// ---------------------------------------------------------------------------
// Fig. 8: Twitter-like graph keys, PGX.D vs Spark.
// ---------------------------------------------------------------------------
fn fig8(opts: &Opts) {
    let workload = twitter_workload(opts);
    println!("\n=== Fig. 8: {} — PGX.D vs Spark ===\n", workload.label());
    let mut table = Table::new(vec!["procs", "pgxd wall", "spark wall", "spark/pgxd"]);
    let mut results = Vec::new();
    for &p in &opts.procs {
        let parts = workload.generate(p);
        let rp = run_pgxd(&workload, &parts, cluster(p, opts), SortConfig::default());
        let rs = run_spark(&workload, &parts, cluster(p, opts));
        table.row(vec![
            p.to_string(),
            fmt_secs(rp.report.wall_time),
            fmt_secs(rs.report.wall_time),
            format!("{:.2}x", rs.wall_secs() / rp.wall_secs()),
        ]);
        results.push(rp);
        results.push(rs);
    }
    table.print();
    save_json("fig8", &results);
}

// ---------------------------------------------------------------------------
// Table III: per-processor key ranges on the Twitter-like keys.
// ---------------------------------------------------------------------------
fn table3(opts: &Opts) {
    let workload = twitter_workload(opts);
    println!(
        "\n=== Table III: key range per processor ({}) ===\n",
        workload.label()
    );
    let mut results = Vec::new();
    for p in [8usize, 12, 16] {
        let r = run_pgxd(
            &workload,
            &workload.generate(p),
            cluster(p, opts),
            SortConfig::default(),
        );
        let ranges = r.ranges();
        println!("p = {p}:");
        let mut table = Table::new(vec!["proc", "range"]);
        for (m, range) in ranges.ranges.iter().enumerate() {
            let cell = match range {
                Some((lo, hi)) => format!("{lo} - {hi}"),
                None => "(empty)".to_string(),
            };
            table.row(vec![format!("proc{m}"), cell]);
        }
        table.print();
        println!();
        results.push(r);
    }
    save_json("table3", &results);
}

// ---------------------------------------------------------------------------
// Fig. 9: sample-size sweep — communication overhead and total time.
// ---------------------------------------------------------------------------
const FIG9_FACTORS: [f64; 7] = [0.004, 0.04, 0.4, 1.0, 1.004, 1.04, 1.4];

fn fig9(opts: &Opts) {
    let p = *opts.procs.get(1).unwrap_or(&16);
    let workload = twitter_workload(opts);
    println!(
        "\n=== Fig. 9: sample-size sweep on {} (p = {p}, X = 256KiB/p) ===\n",
        workload.label()
    );
    let mut table = Table::new(vec![
        "factor",
        "comm bytes",
        "hotspot recv",
        "hot dst",
        "dst skew",
        "bottleneck comm",
        "total wall",
        "load diff",
    ]);
    let mut results = Vec::new();
    let parts = workload.generate(p);
    for f in FIG9_FACTORS {
        let cfg = SortConfig::default().sample_factor(f);
        let r = run_pgxd(&workload, &parts, cluster(p, opts), cfg);
        let (comm, per_dst) = (&r.report.comm, &r.report.per_dst_bytes);
        // Per-receiver accounting must cover exactly the bytes the fabric
        // carried — the skew column is meaningless otherwise.
        let dst_sum: u64 = per_dst.iter().sum();
        assert_eq!(
            dst_sum, comm.bytes_sent,
            "per-dst bytes must balance against bytes_sent"
        );
        let (hot_dst, hot_bytes) = per_dst
            .iter()
            .enumerate()
            .max_by_key(|(_, b)| **b)
            .map(|(d, b)| (d, *b))
            .unwrap_or((0, 0));
        let mean = dst_sum as f64 / per_dst.len().max(1) as f64;
        table.row(vec![
            format!("{f}X"),
            format!("{}", comm.bytes_sent),
            format!("{}", comm.max_recv_bytes),
            format!("m{hot_dst}"),
            format!("{:.2}x", hot_bytes as f64 / mean.max(1.0)),
            fmt_secs(comm.bottleneck_wire_time),
            fmt_secs(r.report.wall_time),
            r.load().load_difference().to_string(),
        ]);
        results.push(r);
    }
    table.print();
    println!("(dst skew = hottest receiver's bytes over the per-receiver mean)");
    save_json("fig9", &results);
}

// ---------------------------------------------------------------------------
// Fig. 10: min/max load vs sample size across proc counts.
// ---------------------------------------------------------------------------
fn fig10(opts: &Opts) {
    let workload = twitter_workload(opts);
    println!(
        "\n=== Fig. 10: per-processor load vs sample size ({}) ===\n",
        workload.label()
    );
    let mut table = Table::new(vec!["procs", "factor", "min load", "max load", "diff"]);
    let mut results = Vec::new();
    for &p in &opts.procs {
        let parts = workload.generate(p);
        for f in [0.004, 1.0, 1.4] {
            let cfg = SortConfig::default().sample_factor(f);
            let r = run_pgxd(&workload, &parts, cluster(p, opts), cfg);
            let stats = r.load();
            table.row(vec![
                p.to_string(),
                format!("{f}X"),
                stats.min().to_string(),
                stats.max().to_string(),
                stats.load_difference().to_string(),
            ]);
            results.push(r);
        }
    }
    table.print();
    save_json("fig10", &results);
}

// ---------------------------------------------------------------------------
// Fig. 11: memory consumption (retained + temporary) vs procs.
// ---------------------------------------------------------------------------
fn fig11(opts: &Opts) {
    let workload = twitter_workload(opts);
    println!(
        "\n=== Fig. 11: memory consumption ({}) ===\n",
        workload.label()
    );
    let mut table = Table::new(vec![
        "procs",
        "input bytes",
        "retained (RSS-like)",
        "temporary",
        "peak above start",
    ]);
    let mut records = Vec::new();
    for &p in &[4usize, 8, 12, 16, 20] {
        // Generate outside the region so only sort-time memory is counted.
        let parts = workload.generate(p);
        let input_bytes: usize = parts.iter().map(|v| v.len() * 8).sum();
        let region = pgxd_memtrack::MemRegion::new();
        let r = run_pgxd(&workload, &parts, cluster(p, opts), SortConfig::default());
        let stats = region.finish();
        table.row(vec![
            p.to_string(),
            pgxd_memtrack::fmt_bytes(input_bytes),
            pgxd_memtrack::fmt_bytes(stats.retained()),
            pgxd_memtrack::fmt_bytes(stats.temporary()),
            pgxd_memtrack::fmt_bytes(stats.peak_above_start()),
        ]);
        let Json::Object(mut fields) = r.to_json() else {
            unreachable!("a result is a JSON object")
        };
        fields.extend([
            ("retained_bytes", stats.retained().into()),
            ("temporary_bytes", stats.temporary().into()),
            ("peak_bytes", stats.peak_above_start().into()),
        ]);
        records.push(Json::Object(fields));
    }
    table.print();
    save_records("fig11", records);
}

// ---------------------------------------------------------------------------
// Ablations called out in DESIGN.md.
// ---------------------------------------------------------------------------
fn ablation(opts: &Opts) {
    let p = *opts.procs.first().unwrap_or(&8);
    println!("\n=== Ablations (p = {p}, n = {}) ===\n", opts.n);
    let mut results = Vec::new();

    println!("--- investigator on/off (load difference on duplicate-heavy data) ---");
    let mut t1 = Table::new(vec![
        "distribution",
        "investigator",
        "min",
        "max",
        "diff",
        "wall",
    ]);
    for dist in [Distribution::RightSkewed, Distribution::Exponential] {
        let w = dist_workload(dist, opts);
        let parts = w.generate(p);
        for inv in [true, false] {
            let cfg = SortConfig::default().investigator(inv);
            let r = run_pgxd(&w, &parts, cluster(p, opts), cfg);
            let stats = r.load();
            t1.row(vec![
                dist.name().to_string(),
                inv.to_string(),
                stats.min().to_string(),
                stats.max().to_string(),
                stats.load_difference().to_string(),
                fmt_secs(r.report.wall_time),
            ]);
            results.push(r);
        }
    }
    t1.print();

    println!("\n--- step 6 alone: balanced merge vs one k-way pass over the same p runs ---");
    let mut runs = dist_workload(Distribution::Uniform, opts).generate(p);
    runs.iter_mut().for_each(|run| run.sort_unstable());
    let mut bounds = vec![0];
    for run in &runs {
        bounds.push(bounds[bounds.len() - 1] + run.len());
    }
    let started = Instant::now();
    let balanced = balanced_merge(runs.concat(), &bounds, opts.workers);
    let balanced_wall = started.elapsed();
    let refs: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
    let started = Instant::now();
    let mut kway = vec![0; balanced.len()];
    kway_merge_into(&refs, &mut kway);
    let kway_wall = started.elapsed();
    assert_eq!(balanced, kway);
    let mut t2 = Table::new(vec!["merge", "wall"]);
    t2.row(vec![
        "balanced (Fig. 2)".to_string(),
        fmt_secs(balanced_wall),
    ]);
    t2.row(vec!["sequential k-way".to_string(), fmt_secs(kway_wall)]);
    t2.print();

    println!("\n--- buffer-sized sampling vs tiny fixed sample count ---");
    let mut t3 = Table::new(vec!["sampling", "load diff", "comm bytes", "wall"]);
    let w = dist_workload(Distribution::RightSkewed, opts);
    let parts = w.generate(p);
    for (label, cfg) in [
        ("buffer-sized X", SortConfig::default()),
        ("fixed 4/machine", SortConfig::default().fixed_samples(4)),
    ] {
        let r = run_pgxd(&w, &parts, cluster(p, opts), cfg);
        t3.row(vec![
            label.to_string(),
            r.load().load_difference().to_string(),
            r.report.comm.bytes_sent.to_string(),
            fmt_secs(r.report.wall_time),
        ]);
        results.push(r);
    }
    t3.print();
    save_json("ablation", &results);
}

// ---------------------------------------------------------------------------
// Buffer-size ablation: the §IV-B claim that 256 KiB is a good buffer.
// ---------------------------------------------------------------------------
fn buffer_sweep(opts: &Opts) {
    let p = *opts.procs.first().unwrap_or(&8);
    println!(
        "\n=== Buffer-size sweep (p = {p}, n = {}) — §IV-B's 256 KiB choice ===\n",
        opts.n
    );
    let workload = dist_workload(Distribution::Uniform, opts);
    let mut table = Table::new(vec!["buffer", "messages", "comm bytes", "wall"]);
    let mut results = Vec::new();
    let parts = workload.generate(p);
    for buffer in [
        4usize << 10,
        16 << 10,
        64 << 10,
        256 << 10,
        1 << 20,
        4 << 20,
    ] {
        let cluster = cluster(p, opts).buffer_bytes(buffer);
        let r = run_pgxd(&workload, &parts, cluster, SortConfig::default());
        table.row(vec![
            pgxd_memtrack::fmt_bytes(buffer),
            r.report.comm.messages_sent.to_string(),
            r.report.comm.bytes_sent.to_string(),
            fmt_secs(r.report.wall_time),
        ]);
        results.push(r);
    }
    table.print();
    println!(
        "(smaller buffers multiply packet count; beyond 256 KiB the message\n\
         count stops falling — the paper's tuning plateau)"
    );
    save_json("buffer", &results);
}

// ---------------------------------------------------------------------------
// Trace: one sort with the structured event layer on, exported for
// Perfetto plus the derived views (step Gantt, overlap, barrier skew).
// ---------------------------------------------------------------------------

/// Default knobs for `exp trace`: the acceptance workload of 2^22 uniform
/// keys on a 4-machine cluster, whose streams hold several request buffers
/// each, so the worker tasks send while the receive loop runs.
fn trace_defaults() -> Opts {
    Opts {
        n: 1 << 22,
        procs: vec![4],
        ..Opts::default()
    }
}

/// Writes `log` as `results/trace_<tag>.json` (Chrome `trace_event`) and
/// `results/trace_<tag>.jsonl` (one event per line).
fn save_trace(tag: &str, log: &pgxd::TraceLog) {
    for (ext, body) in [("json", log.to_chrome_json()), ("jsonl", log.to_jsonl())] {
        write_result_file(&format!("trace_{tag}.{ext}"), "trace", body);
    }
}

fn trace_cmd(opts: &Opts) {
    let p = *opts.procs.first().unwrap_or(&4);
    println!(
        "\n=== Trace: one sorted run under the structured event layer ===\n\
         (n = {} uniform keys, p = {p}, {} workers/machine)\n",
        opts.n, opts.workers
    );
    let w = dist_workload(Distribution::Uniform, opts);
    let traced = cluster(p, opts).trace(TraceConfig::enabled());
    let result = run_pgxd(&w, &w.generate(p), traced, SortConfig::default());
    let log = result.report.trace.as_ref().expect("tracing was enabled");
    println!(
        "captured {} events ({} emitted, {} dropped at the per-machine cap)",
        log.events.len(),
        log.emitted,
        log.dropped
    );
    assert_eq!(log.dropped, 0, "the per-machine cap must hold one sort");

    // Step Gantt: every machine must have a span for each §IV step.
    let gantt = log.step_gantt();
    let mut table = Table::new(vec!["machine", "step", "start", "duration"]);
    for step in steps::ALL {
        for m in 0..p as u32 {
            let row = gantt
                .iter()
                .find(|r| r.machine == m && r.name == step)
                .unwrap_or_else(|| panic!("machine {m} recorded no span for step {step}"));
            table.row(vec![
                format!("M{m}"),
                step.to_string(),
                fmt_secs(Duration::from_nanos(row.start_ns)),
                fmt_secs(Duration::from_nanos(row.dur_ns)),
            ]);
        }
    }
    table.print();

    // Exchange overlap: sending (worker task lanes) vs receiving
    // (mainline recv loop) — the §IV-C overlap claim, per machine.
    let ratios = log.exchange_overlap_ratios();
    let overlaps: Vec<String> = ratios
        .iter()
        .enumerate()
        .map(|(m, r)| format!("M{m} {:.1}%", 100.0 * r))
        .collect();
    println!("\nexchange send/receive overlap: {}", overlaps.join(", "));
    assert!(
        ratios.iter().any(|&r| r > 0.0),
        "no machine overlapped sends with receives (a machine whose every \
         stream fits one request buffer flushes before it receives: the \
         audit needs n/p² keys to exceed a buffer, as the default n does)"
    );

    // Barrier skew: spread between first and last arrival, per barrier.
    let skews = log.barrier_skews();
    let worst = skews.iter().map(|&(_, s)| s).max().unwrap_or(0);
    println!(
        "barrier wait skew: {} barriers, worst spread {}",
        skews.len(),
        fmt_secs(Duration::from_nanos(worst))
    );

    // Per-destination byte timelines: final cumulative volume per link.
    let timelines = log.per_destination_byte_timelines();
    let mut links = Table::new(vec!["link", "chunks", "bytes"]);
    for ((src, dst), series) in &timelines {
        links.row(vec![
            format!("M{src}→M{dst}"),
            series.len().to_string(),
            series.last().map(|&(_, b)| b).unwrap_or(0).to_string(),
        ]);
    }
    println!();
    links.print();
    assert!(!timelines.is_empty(), "exchange sent no chunks");

    save_trace("sort", log);
    save_json("trace", &[result]);
}

// ---------------------------------------------------------------------------
// `exp chaos`: fault-plan sweep — survival, timeouts, latency degradation.
// ---------------------------------------------------------------------------
fn chaos_defaults() -> Opts {
    Opts {
        n: 200_000,
        procs: vec![8],
        ..Opts::default()
    }
}

/// Sweeps the fault-plan presets across seeds on an adversarial
/// distribution, recording per-cell verdicts (survived / structured
/// error) and latency degradation against a fault-free baseline. Every
/// cell is replayable from its printed seed.
fn chaos_cmd(opts: &Opts) {
    let p = opts.procs.first().copied().unwrap_or(8);
    let n = opts.n;
    let seeds: Vec<u64> = (0..5).map(|i| opts.seed + i).collect();
    let dist = Distribution::skew_storm(0.85);
    let parts = generate_partitioned(dist, n, p, opts.seed);
    let expect = {
        let mut all = parts.concat();
        all.sort_unstable();
        all
    };

    let run_cell = |plan: FaultPlan| -> (Option<RunErrorKind>, Duration, bool) {
        let cluster = Cluster::new(
            ClusterConfig::new(p)
                .workers_per_machine(opts.workers)
                .fault(plan),
        );
        let sorter = DistSorter::default();
        let parts_ref = &parts;
        let started = Instant::now();
        let outcome = cluster.try_run(|ctx| sorter.sort(ctx, parts_ref[ctx.id()].clone()).data);
        let wall = started.elapsed();
        match outcome {
            Ok(report) => (None, wall, report.results.concat() == expect),
            Err(err) => (Some(err.kind), wall, false),
        }
    };

    // Fault-free baseline for the degradation column.
    let (_, baseline, baseline_ok) = run_cell(FaultPlan::disabled());
    assert!(baseline_ok, "fault-free baseline must sort correctly");

    println!(
        "\n=== Chaos sweep: {} keys of {}, p = {p}, {} seeds/plan (baseline {}) ===\n",
        n,
        dist.name(),
        seeds.len(),
        fmt_secs(baseline)
    );

    type PlanFactory = Box<dyn Fn(u64) -> FaultPlan>;
    let plans: Vec<(&str, PlanFactory)> = vec![
        ("delays", Box::new(FaultPlan::delays)),
        ("reorders", Box::new(FaultPlan::reorders)),
        ("drops", Box::new(FaultPlan::drops)),
        (
            "straggler",
            Box::new(move |s| FaultPlan::straggler(s, 1 % p.max(1))),
        ),
        ("chaos", Box::new(FaultPlan::chaos)),
        (
            "chaos+kill",
            Box::new(move |s| {
                // Machine 1's first receive is the splitter broadcast and
                // its next p − 1 are the exchange's stream openers, taken
                // before any data chunk: threshold 3 fires among them for
                // any p >= 3, independent of how the data chunks route.
                FaultPlan::chaos(s)
                    .kill(1 % p.max(1), 3)
                    .step_timeout(Duration::from_secs(10))
            }),
        ),
    ];

    let mut table = Table::new(vec![
        "plan",
        "survived",
        "killed",
        "timed out",
        "panicked",
        "mean wall",
        "slowdown",
    ]);
    let mut cells = Vec::new();
    let mut summary = Vec::new();
    for (name, make) in &plans {
        let (mut survived, mut killed, mut timed_out, mut panicked) = (0u64, 0u64, 0u64, 0u64);
        let mut wall_sum = Duration::ZERO;
        for &seed in &seeds {
            let (verdict, wall, ok) = run_cell(make(seed));
            wall_sum += wall;
            let verdict_str = match verdict {
                None => {
                    assert!(ok, "plan {name} seed {seed}: survived but output wrong");
                    survived += 1;
                    "survived"
                }
                Some(RunErrorKind::InjectedKill) => {
                    killed += 1;
                    "injected-kill"
                }
                Some(RunErrorKind::StepTimeout) => {
                    timed_out += 1;
                    "step-timeout"
                }
                Some(RunErrorKind::MachinePanic) => {
                    panicked += 1;
                    "machine-panic"
                }
            };
            cells.push(Json::Object(vec![
                ("plan", (*name).into()),
                ("seed", seed.into()),
                ("verdict", verdict_str.into()),
                ("wall_secs", wall.as_secs_f64().into()),
                ("slowdown", wall.div_duration_f64(baseline).into()),
            ]));
        }
        let mean_wall = wall_sum.div_f64(seeds.len() as f64);
        table.row(vec![
            name.to_string(),
            survived.to_string(),
            killed.to_string(),
            timed_out.to_string(),
            panicked.to_string(),
            fmt_secs(mean_wall),
            format!("{:.2}x", mean_wall.div_duration_f64(baseline)),
        ]);
        summary.push(Json::Object(vec![
            ("plan", (*name).into()),
            ("survived", survived.into()),
            ("injected_kills", killed.into()),
            ("step_timeouts", timed_out.into()),
            ("machine_panics", panicked.into()),
            ("mean_wall_secs", mean_wall.as_secs_f64().into()),
            ("mean_slowdown", mean_wall.div_duration_f64(baseline).into()),
        ]));
    }
    table.print();

    // Non-kill plans must always survive; the kill plan must always fail
    // with a structured error (never a hang — try_run returned at all).
    let doc = Json::Object(vec![
        ("experiment", "chaos_sweep".into()),
        ("n", n.into()),
        ("machines", p.into()),
        ("workers", opts.workers.into()),
        ("distribution", dist.name().into()),
        ("data_seed", opts.seed.into()),
        ("plan_seeds", seeds.into()),
        ("baseline_wall_secs", baseline.as_secs_f64().into()),
        ("cells", cells.into()),
        ("summary", summary.into()),
    ]);
    write_result_file("chaos_sweep.json", "raw results", doc.pretty());
}

// ---------------------------------------------------------------------------
// `exp health`: the per-step view of a skewed chaos run.
// ---------------------------------------------------------------------------
fn health_defaults() -> Opts {
    Opts {
        n: 200_000,
        procs: vec![4],
        ..Opts::default()
    }
}

/// Drives one skew-storm sort under an amplified straggler plan: the run
/// must survive, sort correctly, and its step report must name the
/// straggler machine as the slowest of some step at ≥ 1.5× the lower
/// median. Exports the view (`results/health_report.json`).
fn health_cmd(opts: &Opts) {
    let p = opts.procs.first().copied().unwrap_or(4);
    let straggler = 1 % p.max(1);
    let n = opts.n;
    let dist = Distribution::skew_storm(0.85);
    let parts = generate_partitioned(dist, n, p, opts.seed);
    let expect = {
        let mut all = parts.concat();
        all.sort_unstable();
        all
    };

    println!(
        "\n=== Health: {} keys of {}, p = {p}, straggler = machine {straggler} ===\n",
        n,
        dist.name()
    );

    // The chaos preset's µs-scale straggle is below human perception —
    // amplify it to ~25 ms per task pickup so the view has an unambiguous
    // signal to find.
    let plan = FaultPlan::chaos(opts.seed).straggle(straggler, 25_000);
    let cluster = Cluster::new(
        ClusterConfig::new(p)
            .workers_per_machine(opts.workers)
            .fault(plan),
    );
    let sorter = DistSorter::default();
    let parts_ref = &parts;
    let report = cluster.run(|ctx| sorter.sort(ctx, parts_ref[ctx.id()].clone()).data);
    assert_eq!(
        report.results.concat(),
        expect,
        "chaos run must still sort correctly"
    );

    let steps = &report.steps;
    let mut table = Table::new(vec!["step", "slowest", "its time", "lower median", "ratio"]);
    let mut rows = Vec::new();
    let mut caught = None;
    for step in steps.step_names() {
        let (machine, ratio) = steps.slowest_machine(step).expect("p ≥ 1 machines");
        let slowest = steps.max_across_machines(step);
        let median = steps.p50_across_machines(step);
        table.row(vec![
            step.to_string(),
            format!("m{machine}"),
            fmt_secs(slowest),
            fmt_secs(median),
            format!("{ratio:.2}x"),
        ]);
        if caught.is_none() && machine == straggler && ratio >= 1.5 {
            caught = Some((step, ratio));
        }
        rows.push(Json::Object(vec![
            ("step", step.into()),
            ("slowest_machine", machine.into()),
            ("slowest_secs", slowest.as_secs_f64().into()),
            ("lower_median_secs", median.as_secs_f64().into()),
            ("ratio", ratio.into()),
        ]));
    }
    table.print();
    println!("(wall {})", fmt_secs(report.wall_time));

    // The whole point: the view names the machine we sabotaged, and the
    // step it lagged in.
    let (step, ratio) =
        caught.unwrap_or_else(|| panic!("no step names machine {straggler} at >= 1.5x: {steps:?}"));
    println!(
        "caught: machine {straggler} is the slowest in `{step}` ({ratio:.2}x the lower median)"
    );

    let c = &report.comm;
    let doc = Json::Object(vec![
        ("schema", "pgxd-health/4".into()),
        ("steps", rows.into()),
        (
            "comm",
            Json::Object(vec![
                ("bytes_sent", c.bytes_sent.into()),
                ("messages_sent", c.messages_sent.into()),
                ("max_recv_bytes", c.max_recv_bytes.into()),
            ]),
        ),
        ("per_dst_bytes", report.per_dst_bytes.into()),
    ]);
    write_result_file("health_report.json", "health report", doc.pretty());
}

// ---------------------------------------------------------------------------
// Environment report (our analogue of the paper's Table I).
// ---------------------------------------------------------------------------
fn env_report(opts: &Opts) {
    println!("\n=== Simulation environment (cf. paper Table I) ===\n");
    let mut table = Table::new(vec!["item", "paper", "this harness"]);
    table.row(vec![
        "machines".to_string(),
        "32 physical nodes".into(),
        format!("{:?} simulated (thread groups, one process)", opts.procs),
    ]);
    table.row(vec![
        "cpu".to_string(),
        "2x Xeon E5-2660, 16 cores".into(),
        format!(
            "{} host core(s); {} workers per simulated machine",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            opts.workers
        ),
    ]);
    table.row(vec![
        "network".to_string(),
        "Mellanox 56 Gb/s IB".into(),
        "in-process channels + 56 Gb/s wire-time model".to_string(),
    ]);
    table.row(vec![
        "buffer".to_string(),
        "256 KiB read buffer".into(),
        format!(
            "{} (configurable)",
            pgxd_memtrack::fmt_bytes(pgxd::DEFAULT_BUFFER_BYTES)
        ),
    ]);
    table.row(vec![
        "dataset".to_string(),
        "10^9 keys / Twitter 25 GB".into(),
        format!(
            "{} keys (--n), R-MAT scale {} x ef {} (--scale/--ef)",
            opts.n, opts.scale, opts.edge_factor
        ),
    ]);
    table.print();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let flags = &args[1.min(args.len())..];
    let opts = opts_or_exit(Opts::default(), flags);

    match cmd {
        "fig5" => fig5(&opts),
        "fig6" => fig6(&opts),
        "fig7" => fig7(&opts),
        "table2" => table2(&opts),
        "fig8" => fig8(&opts),
        "table3" => table3(&opts),
        "fig9" => fig9(&opts),
        "fig10" => fig10(&opts),
        "fig11" => fig11(&opts),
        "ablation" => ablation(&opts),
        "buffer" => buffer_sweep(&opts),
        // Own defaults (2^22 keys, p=4): re-parse the flags on top of them.
        "trace" => trace_cmd(&opts_or_exit(trace_defaults(), flags)),
        // Own defaults (2 × 10^5 keys, p=8), same flag re-parse.
        "chaos" => chaos_cmd(&opts_or_exit(chaos_defaults(), flags)),
        // Own defaults (2 × 10^5 keys, p=4), same flag re-parse.
        "health" => health_cmd(&opts_or_exit(health_defaults(), flags)),
        "env" => env_report(&opts),
        "all" => {
            env_report(&opts);
            fig5(&opts);
            fig6(&opts);
            fig7(&opts);
            table2(&opts);
            fig8(&opts);
            table3(&opts);
            fig9(&opts);
            fig10(&opts);
            fig11(&opts);
            ablation(&opts);
            buffer_sweep(&opts);
            trace_cmd(&trace_defaults());
            chaos_cmd(&chaos_defaults());
            health_cmd(&health_defaults());
        }
        _ => {
            eprintln!(
                "usage: exp <fig5|fig6|fig7|table2|fig8|table3|fig9|fig10|fig11|ablation|buffer|trace|chaos|health|all> {FLAGS}"
            );
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_opts_from(Opts::default(), &args)
    }

    #[test]
    fn unknown_or_malformed_flags_are_rejected() {
        for bad in ["--proc=4", "n=5", "--n", "--n=five", "--procs=4,x"] {
            let err = parse(&[bad]).expect_err(bad);
            assert!(err.contains(bad) && err.contains(FLAGS), "{err}");
        }
        let opts = parse(&["--procs=4", "--trace"]).unwrap();
        assert_eq!(opts.procs, vec![4]);
        assert!(opts.trace);
    }
}
