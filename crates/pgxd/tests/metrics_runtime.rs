//! Integration tests for the run's typed accounting on real cluster runs:
//! an all-to-all must conserve keys and its per-destination bytes must
//! balance [`CommSummary::bytes_sent`](pgxd::CommSummary) — including
//! under a chaos fault plan, where redelivered and dropped traffic must
//! not double- or under-count — and the health monitor must name a
//! deterministic straggler and the step it lagged in, and still say what
//! moved when a killed run aborts.

use std::time::Duration;

use pgxd::cluster::{Cluster, ClusterConfig, RunReport};
use pgxd::{FaultPlan, HealthConfig, RunErrorKind};

/// One §IV-shaped all-to-all: every machine scatters an equal share of a
/// deterministic keyset to every destination through
/// `exchange_by_offsets`, inside a named step. Returns the number of keys
/// each machine received.
fn all_to_all(config: ClusterConfig) -> RunReport<usize> {
    let cluster = Cluster::new(config);
    cluster.run(move |ctx| {
        let p = ctx.num_machines();
        let n = 4096 * p;
        let data: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9).rotate_left(17) ^ ctx.id() as u64)
            .collect();
        let per = n / p;
        let mut offsets: Vec<usize> = (0..p).map(|d| d * per).collect();
        offsets.push(n);
        let (received, bounds) = ctx.step("xchg", |c| c.exchange_by_offsets(&data, &offsets));
        assert_eq!(bounds.len(), p + 1);
        ctx.barrier();
        received.len()
    })
}

/// Every key arrives once, and the per-destination view accounts for
/// every byte sent, one entry per machine.
fn assert_conserved_and_balanced(report: &RunReport<usize>) {
    let p = report.results.len();
    let total: usize = report.results.iter().sum();
    assert_eq!(total, 4096 * p * p, "all-to-all must conserve keys");
    assert!(report.comm.bytes_sent > 0, "the run must have moved data");
    assert_eq!(report.per_dst_bytes.len(), p, "one destination per machine");
    assert_eq!(
        report.per_dst_bytes.iter().sum::<u64>(),
        report.comm.bytes_sent,
        "per-dst bytes must balance bytes_sent"
    );
    assert_eq!(report.per_dst_bytes.iter().max(), Some(&report.comm.max_recv_bytes));
}

#[test]
fn keys_conserved_and_per_dst_bytes_balance_on_clean_run() {
    assert_conserved_and_balanced(&all_to_all(ClusterConfig::new(4)));
}

#[test]
fn keys_conserved_and_per_dst_bytes_balance_under_chaos() {
    // Chaos redelivers, reorders, and drops traffic; each packet is still
    // counted once, when it is handed to the fabric.
    assert_conserved_and_balanced(&all_to_all(ClusterConfig::new(4).fault(FaultPlan::chaos(29))));
}

#[test]
fn health_monitor_names_straggler_and_stalled_step() {
    let config = ClusterConfig::new(4).health(
        HealthConfig::enabled()
            .interval(Duration::from_millis(2))
            .stall_after(Duration::from_millis(20))
            .straggler(2.0, Duration::from_millis(10)),
    );
    let report = Cluster::new(config).run(|ctx| {
        ctx.step("work", |c| {
            // Machine 2 is sabotaged: 120ms against a 2ms median, far
            // past both the 2x straggler ratio and the 20ms stall
            // window while its peers park at the barrier below.
            if c.id() == 2 {
                std::thread::sleep(Duration::from_millis(120));
            } else {
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        ctx.barrier();
    });
    let health = report.health.expect("monitor was enabled");
    assert!(health.samples >= 1, "watchdog must have sampled");
    let straggler = health
        .stragglers()
        .find(|v| v.machine() == Some(2))
        .unwrap_or_else(|| panic!("no straggler verdict for machine 2:\n{health}"));
    assert_eq!(straggler.step(), Some("work"), "verdict must name the slow step");
    assert!(
        health.stalls().any(|v| v.machine() == Some(2)),
        "parked peers should expose machine 2 as the barrier holdout:\n{health}"
    );
    // The report doubles as a flight record: its JSON view carries the
    // verdicts for offline triage.
    let json = health.to_json();
    assert!(json.contains("\"kind\":\"straggler\""), "{json}");
    assert!(json.contains("\"schema\":\"pgxd-health/2\""), "{json}");
}

#[test]
fn disabled_monitor_attaches_no_report() {
    let report = all_to_all(ClusterConfig::new(2));
    assert!(report.health.is_none(), "health is strictly opt-in");
}

#[test]
fn run_error_carries_flight_record() {
    let config = ClusterConfig::new(4)
        .fault(
            FaultPlan::chaos(11)
                .kill(1, 3)
                .step_timeout(Duration::from_secs(20)),
        )
        .health(HealthConfig::enabled().interval(Duration::from_millis(2)));
    let cluster = Cluster::new(config);
    let err = cluster
        .try_run(|ctx| {
            let p = ctx.num_machines();
            let n = 1024 * p;
            let data: Vec<u64> = (0..n as u64).collect();
            let per = n / p;
            let mut offsets: Vec<usize> = (0..p).map(|d| d * per).collect();
            offsets.push(n);
            let (received, _) = ctx.step("xchg", |c| c.exchange_by_offsets(&data, &offsets));
            ctx.barrier();
            received.len()
        })
        .expect_err("the kill plan must abort the run");
    assert_eq!(err.kind, RunErrorKind::InjectedKill, "{err}");
    assert_eq!(err.machine, Some(1), "{err}");
    let health = err.health.as_ref().expect("aborts still attach the flight record");
    // What moved before the abort is still accounted for.
    assert!(health.comm.bytes_sent > 0, "{health}");
    assert_eq!(health.per_dst_bytes.iter().sum::<u64>(), health.comm.bytes_sent);
}
