//! Validates the trace exporters against a real JSON parser.
//!
//! `pgxd` writes Chrome `trace_event` JSON and JSONL by hand (it has no
//! serde dependency); this test runs a traced 4-machine sort and checks,
//! with `serde_json`, that the output actually parses and has the shape
//! Perfetto / chrome://tracing expects: a top-level `traceEvents` array,
//! one `"X"` (complete) span per machine for each §IV step, exchange
//! send/receive instants, and a positive send/receive overlap ratio.

use pgxd::trace::TraceConfig;
use pgxd_bench::runner::{run_pgxd_sort_traced, Workload};
use pgxd_core::SortConfig;
use pgxd_datagen::Distribution;
use serde_json::Value;

const MACHINES: usize = 4;

fn traced_log() -> pgxd::TraceLog {
    // 2^20 keys on 4 machines is 512 KiB per destination — two request
    // buffers. Streams that fit one buffer are flushed by the machine
    // thread before it receives, and would overlap nothing.
    let workload = Workload::Dist {
        dist: Distribution::Uniform,
        n: 1 << 20,
        seed: 11,
    };
    let (result, log) = run_pgxd_sort_traced(
        &workload,
        MACHINES,
        2,
        SortConfig::default(),
        pgxd::DEFAULT_BUFFER_BYTES,
        TraceConfig::enabled(),
    );
    assert!(result.ranges_ascending());
    log.expect("tracing was enabled")
}

#[test]
fn chrome_export_parses_and_covers_all_steps() {
    let log = traced_log();
    let doc: Value = serde_json::from_str(&log.to_chrome_json())
        .expect("chrome trace output must be valid JSON");
    let events = doc["traceEvents"]
        .as_array()
        .expect("traceEvents must be an array");
    assert!(!events.is_empty());

    // One complete ("X") span per machine for each of the six §IV steps.
    for step in pgxd_core::steps::ALL {
        for m in 0..MACHINES as u64 {
            assert!(
                events.iter().any(|e| e["ph"] == "X"
                    && e["name"] == step
                    && e["pid"] == m
                    && e["dur"].as_f64().is_some_and(|d| d >= 0.0)),
                "no complete span for step {step} on machine {m}"
            );
        }
    }

    // Exchange send/receive instants from every machine.
    for m in 0..MACHINES as u64 {
        for name in ["chunk_send", "chunk_recv"] {
            assert!(
                events
                    .iter()
                    .any(|e| e["ph"] == "i" && e["name"] == name && e["pid"] == m),
                "machine {m} recorded no {name} instant"
            );
        }
    }

    // Spans carry microsecond timestamps and machine-named processes.
    assert!(events.iter().any(|e| e["ph"] == "M"
        && e["name"] == "process_name"
        && e["args"]["name"].as_str().is_some_and(|n| n.starts_with("machine "))));

    // The §IV-C claim the trace exists to audit: sends overlap receives.
    let ratios = log.exchange_overlap_ratios();
    assert_eq!(ratios.len(), MACHINES);
    assert!(
        ratios.iter().any(|&r| r > 0.0),
        "expected a positive exchange overlap ratio, got {ratios:?}"
    );
}

#[test]
fn jsonl_export_parses_line_by_line() {
    let log = traced_log();
    let jsonl = log.to_jsonl();
    let mut lines = 0usize;
    for line in jsonl.lines() {
        let v: Value = serde_json::from_str(line).expect("every JSONL line must parse");
        assert!(v["t_ns"].as_u64().is_some());
        assert!(v["machine"].as_u64().is_some_and(|m| m < MACHINES as u64));
        assert!(v["name"].as_str().is_some());
        lines += 1;
    }
    assert_eq!(lines, log.events.len());
}
