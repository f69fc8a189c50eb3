//! Integration tests for the run's typed accounting on real cluster runs:
//! an all-to-all must conserve keys and its per-destination bytes must
//! balance [`CommSummary::bytes_sent`](pgxd::CommSummary) — including
//! under a chaos fault plan, where redelivered and dropped traffic must
//! not double- or under-count — and the step view must name a
//! deterministic straggler, on a finished run and on an aborted one,
//! whose error still says what moved.

use std::time::Duration;

use pgxd::cluster::{Cluster, ClusterConfig, RunReport};
use pgxd::{FaultPlan, RunErrorKind};

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
fn step_view_names_the_sabotaged_machine() {
    let report = Cluster::new(ClusterConfig::new(4)).run(|ctx| {
        ctx.step("work", |c| {
            // Machine 2 is sabotaged: 120ms against a 2ms median.
            if c.id() == 2 {
                std::thread::sleep(Duration::from_millis(120));
            } else {
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        ctx.barrier();
    });
    let (machine, ratio) = report.steps.slowest_machine("work").expect("four machines ran");
    assert_eq!(machine, 2, "{:?}", report.steps);
    assert!(ratio > 2.0, "machine 2 at {ratio:.2}x the lower median");
}

#[test]
fn aborted_run_names_its_holdout() {
    // Machine 0 sits in `work` far past the step timeout while its peers
    // finish the step and park at the barrier. The timeout fires on the
    // waiter that parked first, which is what the error names (the other
    // one then sees the abort); the steps name the holdout.
    let plan = FaultPlan::enabled(5).step_timeout(Duration::from_millis(100));
    let config = ClusterConfig::new(3).fault(plan);
    let err = Cluster::new(config)
        .try_run(|ctx| {
            ctx.step("work", |c| {
                if c.id() == 0 {
                    std::thread::sleep(Duration::from_millis(500));
                }
            });
            ctx.barrier();
        })
        .expect_err("the barrier must time out");
    assert_eq!(err.kind, RunErrorKind::StepTimeout, "{err}");
    assert!(matches!(err.machine, Some(1 | 2)), "{err}");
    let (holdout, ratio) = err.steps.slowest_machine("work").expect("three machines ran");
    assert_eq!(holdout, 0, "{:?}", err.steps);
    assert!(ratio > 2.0, "machine 0 at {ratio:.2}x the lower median");
}

#[test]
fn run_error_carries_flight_record() {
    let config = ClusterConfig::new(4).fault(
        FaultPlan::chaos(11)
            .kill(1, 3)
            .step_timeout(Duration::from_secs(20)),
    );
    let cluster = Cluster::new(config);
    let err = cluster
        .try_run(|ctx| {
            ctx.step("warmup", |c| c.barrier());
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
    // What moved before the abort is still accounted for.
    assert!(err.comm.bytes_sent > 0, "{err}");
    assert_eq!(err.per_dst_bytes.iter().sum::<u64>(), err.comm.bytes_sent);
    // Every machine completed `warmup`, the killed one included.
    assert_eq!(err.steps.per_machine.len(), 4);
    for (m, steps) in err.steps.per_machine.iter().enumerate() {
        assert!(steps.iter().any(|(n, _)| *n == "warmup"), "machine {m}: {steps:?}");
    }
}
