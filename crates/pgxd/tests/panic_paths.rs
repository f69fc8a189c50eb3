//! Panic-propagation paths through the cluster runtime.
//!
//! A machine thread can die three ways: a plain `panic!` (string payload),
//! a `panic_any` with a typed payload, or an injected fault. Each must
//! surface with its payload intact — `run` re-panics strings with context
//! and `resume_unwind`s typed payloads; `try_run` converts everything into
//! a structured [`RunError`] — and survivors blocked mid-exchange must be
//! released, with the packets the dead machine stranded counted in the
//! error rather than failing the teardown.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd::comm::{kinds, Tag};
use pgxd::fault::FaultPlan;
use pgxd::RunErrorKind;

/// A typed panic payload that must cross the machine-thread boundary
/// without being flattened into a string.
#[derive(Debug, PartialEq)]
struct TypedFailure {
    code: u32,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<String> {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
}

#[test]
fn string_panic_reraised_with_machine_context() {
    let cluster = Cluster::new(ClusterConfig::new(3));
    let result = catch_unwind(AssertUnwindSafe(|| {
        cluster.run(|ctx| {
            if ctx.id() == 2 {
                panic!("boom on purpose");
            }
            ctx.barrier();
        })
    }));
    let payload = result.expect_err("run must propagate the panic");
    let msg = panic_message(payload.as_ref()).expect("string payload expected");
    assert!(msg.contains("machine thread panicked"), "{msg}");
    assert!(msg.contains("boom on purpose"), "{msg}");
}

#[test]
fn typed_panic_payload_survives_resume_unwind() {
    let cluster = Cluster::new(ClusterConfig::new(2));
    let result = catch_unwind(AssertUnwindSafe(|| {
        cluster.run(|ctx| {
            if ctx.id() == 0 {
                std::panic::panic_any(TypedFailure { code: 42 });
            }
            ctx.barrier();
        })
    }));
    let payload = result.expect_err("run must propagate the panic");
    let typed = payload
        .downcast_ref::<TypedFailure>()
        .expect("typed payload must not be flattened to a string");
    assert_eq!(typed, &TypedFailure { code: 42 });
}

#[test]
fn try_run_reports_string_panic_as_machine_panic() {
    let cluster = Cluster::new(ClusterConfig::new(3));
    let err = cluster
        .try_run(|ctx| {
            if ctx.id() == 1 {
                panic!("structured boom");
            }
            ctx.barrier();
        })
        .expect_err("try_run must fail");
    assert_eq!(err.kind, RunErrorKind::MachinePanic);
    assert_eq!(err.machine, Some(1));
    assert!(err.message.contains("structured boom"), "{}", err.message);
}

#[test]
fn try_run_reports_typed_panic_without_losing_the_run() {
    let cluster = Cluster::new(ClusterConfig::new(2));
    let err = cluster
        .try_run(|ctx| {
            if ctx.id() == 1 {
                std::panic::panic_any(TypedFailure { code: 7 });
            }
            ctx.barrier();
        })
        .expect_err("try_run must fail");
    assert_eq!(err.kind, RunErrorKind::MachinePanic);
    assert_eq!(err.machine, Some(1));
    assert!(
        err.message.contains("non-string panic payload"),
        "{}",
        err.message
    );
}

#[test]
fn panic_mid_exchange_releases_blocked_survivors() {
    // Machine 0 dies before it opens any exchange stream, once four
    // messages are in the fabric; machines 1 and 2 send theirs and then
    // block waiting for its openers. The abort path must wake them
    // (sympathetic unwind), the primary failure must stay machine 0, and
    // the packets legitimately in flight must be counted as the error's
    // residue instead of failing the teardown.
    let p = 3;
    let shards: Vec<Vec<u64>> = (0..p)
        .map(|m| (0..500u64).map(|i| i * 2 + m as u64).collect())
        .collect();
    let cluster = Cluster::new(
        ClusterConfig::new(p)
            .buffer_bytes(64)
            .workers_per_machine(2),
    );
    let shards_ref = &shards;
    let err = cluster
        .try_run(|ctx| {
            if ctx.id() == 0 {
                // A machine's first two messages are its openers, so one of
                // the other two has sent machine 0 its opener by now.
                while ctx.comm_summary().messages_sent < 4 {
                    std::thread::yield_now();
                }
                panic!("died mid-step");
            }
            let data = shards_ref[ctx.id()].clone();
            let n = data.len();
            let offsets: Vec<usize> = (0..=ctx.num_machines())
                .map(|d| d * n / ctx.num_machines())
                .collect();
            ctx.exchange(&data, &offsets)
        })
        .expect_err("dead machine must fail the run");
    assert_eq!(err.kind, RunErrorKind::MachinePanic);
    assert_eq!(
        err.machine,
        Some(0),
        "primary failure must be the real panic"
    );
    assert!(err.message.contains("died mid-step"), "{}", err.message);
    assert!(
        err.peer_aborts >= 1,
        "survivors must unwind sympathetically"
    );
    // The openers sent to the dead machine are never consumed; the abort
    // teardown reports them as residue.
    assert!(err.residual >= 1, "residual {}", err.residual);
}

#[test]
fn all_sympathetic_failures_still_produce_an_error() {
    // If every failure is a PeerAborted (can happen when the primary
    // payload is consumed by an outer catch), try_run must still return a
    // structured error rather than panic. Simulate by having two machines
    // both panic — the first in machine order becomes primary.
    let cluster = Cluster::new(ClusterConfig::new(4));
    let err = cluster
        .try_run(|ctx| {
            if ctx.id() >= 2 {
                panic!("double fault {}", ctx.id());
            }
            ctx.barrier();
        })
        .expect_err("must fail");
    assert_eq!(err.kind, RunErrorKind::MachinePanic);
    assert_eq!(
        err.machine,
        Some(2),
        "first real failure in machine order wins"
    );
}

#[test]
fn a_send_task_that_panics_ends_the_run() {
    // Machine 0 exchanges with one worker, so its send task for machine 2
    // waits behind its task for machine 1. Machines 1 and 2 each take
    // machine 0's opener and return: the task for machine 1 panics on the
    // closed link, and the task for machine 2 never runs. The panic must
    // abort the run, or machine 0, counted as running while a send task
    // is unfinished, would wait for openers forever; the step deadline
    // only bounds the test.
    let plan = FaultPlan::enabled(3)
        .chunk_delay(1000, 1000)
        .step_timeout(Duration::from_secs(20));
    let config = ClusterConfig::new(3)
        .buffer_bytes(64)
        .workers_per_machine(1)
        .fault(plan);
    let started = Instant::now();
    let err = Cluster::new(config)
        .try_run(|ctx| {
            if ctx.id() == 0 {
                let data: Vec<u64> = (0..3000).collect();
                ctx.exchange(&data, &[0, 1000, 2000, 3000]);
            } else {
                let open = Tag {
                    kind: kinds::EXCHANGE_OPEN,
                    seq: 0,
                };
                ctx.comm_mut().recv_packet(open);
            }
        })
        .expect_err("a send task's panic must fail the run");
    assert!(started.elapsed() < Duration::from_secs(5), "{err}");
    assert_eq!(err.kind, RunErrorKind::MachinePanic, "{err}");
    assert_eq!(err.machine, Some(0), "{err}");
}
