//! A traced 4-machine sort through the harness, checked on the
//! [`pgxd::TraceLog`] it returns: one span per machine for each §IV step,
//! exchange send and receive instants from every machine, a positive
//! send/receive overlap ratio, and one JSONL line per event.
//!
//! That the exported text parses, and has the shape Perfetto /
//! chrome://tracing expects, is checked with an independent parser by CI's
//! `trace-smoke` job (python's `json` over `exp trace`'s output).

use pgxd::trace::{EventKind, TraceConfig};
use pgxd::ClusterConfig;
use pgxd_bench::runner::{run_pgxd, Workload};
use pgxd_core::SortConfig;
use pgxd_datagen::Distribution;

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
    let cluster = ClusterConfig::new(MACHINES)
        .workers_per_machine(2)
        .trace(TraceConfig::enabled());
    let result = run_pgxd(
        &workload,
        &workload.generate(MACHINES),
        cluster,
        SortConfig::default(),
    );
    assert!(result.ranges().is_ascending());
    result.report.trace.expect("tracing was enabled")
}

#[test]
fn trace_covers_all_steps_and_both_exchange_directions() {
    let log = traced_log();
    assert!(!log.events.is_empty());

    // One step span per machine for each of the six §IV steps.
    let gantt = log.step_gantt();
    for step in pgxd_core::steps::ALL {
        for m in 0..MACHINES as u32 {
            assert!(
                gantt.iter().any(|row| row.machine == m && row.name == step),
                "no span for step {step} on machine {m}"
            );
        }
    }

    // Exchange send/receive instants from every machine.
    for kind in [EventKind::ChunkSend, EventKind::ChunkRecv] {
        for m in 0..MACHINES as u32 {
            assert!(
                log.events_of_kind(kind)
                    .any(|e| e.machine == m && e.dur_ns == 0),
                "machine {m} recorded no {kind:?} instant"
            );
        }
    }

    // The §IV-C claim the trace exists to audit: sends overlap receives.
    let ratios = log.exchange_overlap_ratios();
    assert_eq!(ratios.len(), MACHINES);
    assert!(
        ratios.iter().any(|&r| r > 0.0),
        "expected a positive exchange overlap ratio, got {ratios:?}"
    );
}

#[test]
fn jsonl_export_has_one_line_per_event() {
    let log = traced_log();
    let jsonl = log.to_jsonl();
    assert_eq!(jsonl.lines().count(), log.events.len());
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        for key in ["\"t_ns\":", "\"machine\":", "\"name\":"] {
            assert!(line.contains(key), "line lacks {key}: {line}");
        }
    }
}
