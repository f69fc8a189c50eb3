//! Integration tests for the deterministic fault-injection plane.
//!
//! These exercise the runtime alone (no datagen / sorter): the
//! offset-addressed exchange must stay exactly correct under every fault
//! preset, the same seed must replay the same schedule, a killed machine
//! must surface as a structured [`RunError`] from [`Cluster::try_run`]
//! (never a hang), and a disabled plan must change nothing.

use std::time::{Duration, Instant};

use pgxd::cluster::{Cluster, ClusterConfig, RunReport};
use pgxd::comm::Tag;
use pgxd::fault::FaultPlan;
use pgxd::RunErrorKind;

/// Deterministic per-machine shards: sorted runs, uneven lengths.
fn shards(p: usize) -> Vec<Vec<u64>> {
    (0..p)
        .map(|m| {
            (0..(m * 53 + 211) as u64)
                .map(|i| i * 3 + m as u64)
                .collect()
        })
        .collect()
}

/// Runs one offset-addressed exchange under `plan` and returns the report.
/// Small buffers force many chunks so per-chunk faults actually fire.
fn exchange_under(plan: FaultPlan) -> RunReport<(Vec<u64>, Vec<usize>)> {
    let p = 4;
    let shards = shards(p);
    let cluster = Cluster::new(
        ClusterConfig::new(p)
            .workers_per_machine(2)
            .buffer_bytes(64)
            .fault(plan),
    );
    let shards_ref = &shards;
    cluster.run(|ctx| {
        let data = shards_ref[ctx.id()].clone();
        // Even cuts; the last machine takes the remainder.
        let per = data.len() / ctx.num_machines();
        let mut offsets: Vec<usize> = (0..ctx.num_machines()).map(|d| d * per).collect();
        offsets.push(data.len());
        ctx.exchange(&data, &offsets)
    })
}

/// The exchange invariants that must hold under any non-killing plan:
/// global multiset preserved, per-source runs contiguous and sorted.
fn assert_exchange_exact(report: &RunReport<(Vec<u64>, Vec<usize>)>, p: usize) {
    let mut received: Vec<u64> = report
        .results
        .iter()
        .flat_map(|(out, _)| out.clone())
        .collect();
    let mut sent: Vec<u64> = shards(p).concat();
    received.sort_unstable();
    sent.sort_unstable();
    assert_eq!(received, sent, "global multiset changed under faults");
    for (out, bounds) in &report.results {
        assert_eq!(bounds.len(), p + 1);
        assert_eq!(*bounds.last().unwrap(), out.len());
        for w in bounds.windows(2) {
            let run = &out[w[0]..w[1]];
            assert!(run.windows(2).all(|x| x[0] <= x[1]), "source run reordered");
        }
    }
}

#[test]
fn exchange_exact_under_every_preset() {
    for (name, plan) in [
        ("delays", FaultPlan::delays(7)),
        ("reorders", FaultPlan::reorders(7)),
        ("drops", FaultPlan::drops(7)),
        ("straggler", FaultPlan::straggler(7, 1)),
        ("chaos", FaultPlan::chaos(7)),
    ] {
        let report = exchange_under(plan);
        assert_exchange_exact(&report, 4);
        assert!(plan.is_armed(), "{name} preset should be armed");
    }
}

#[test]
fn same_seed_same_schedule_same_outputs() {
    // The determinism contract: every fault decision derives from
    // (seed, site, stream, seq), so two runs of the same plan must
    // produce identical outputs AND identical traffic accounting.
    for seed in [1u64, 42, 0xdead_beef] {
        let a = exchange_under(FaultPlan::chaos(seed));
        let b = exchange_under(FaultPlan::chaos(seed));
        assert_eq!(a.results, b.results, "seed {seed}: outputs diverged");
        assert_eq!(
            a.comm.exchange.chunks_sent, b.comm.exchange.chunks_sent,
            "seed {seed}: chunk schedule diverged"
        );
        assert_eq!(a.comm.bytes_sent, b.comm.bytes_sent);
        assert_eq!(a.comm.messages_sent, b.comm.messages_sent);
    }
}

#[test]
fn drops_do_not_change_chunk_totals() {
    // Drop-with-redelivery parks chunks and flushes them at stream end;
    // accounting happens at the actual send, so totals match a fault-free
    // run — nothing is ever lost or double-counted.
    let clean = exchange_under(FaultPlan::disabled());
    let dropped = exchange_under(FaultPlan::enabled(9).drop_chunks(500, 64));
    assert_eq!(
        clean.comm.exchange.chunks_sent,
        dropped.comm.exchange.chunks_sent
    );
    assert_eq!(clean.comm.bytes_sent, dropped.comm.bytes_sent);
}

#[test]
fn disabled_plan_is_identical_to_no_plan() {
    let p = 3;
    let shards = shards(p);
    let run = |cfg: ClusterConfig| {
        let shards_ref = &shards;
        Cluster::new(cfg).run(|ctx| {
            let data = shards_ref[ctx.id()].clone();
            let n = data.len();
            let offsets: Vec<usize> = (0..=ctx.num_machines())
                .map(|d| d * n / ctx.num_machines())
                .collect();
            ctx.exchange(&data, &offsets)
        })
    };
    let plain = run(ClusterConfig::new(p).buffer_bytes(64));
    let explicit = run(ClusterConfig::new(p)
        .buffer_bytes(64)
        .fault(FaultPlan::disabled()));
    assert_eq!(plain.results, explicit.results);
    assert_eq!(
        plain.comm.exchange.chunks_sent,
        explicit.comm.exchange.chunks_sent
    );
    assert_eq!(plain.comm.bytes_sent, explicit.comm.bytes_sent);
}

#[test]
fn killed_machine_yields_structured_error_within_timeout() {
    let p = 4;
    let shards = shards(p);
    let plan = FaultPlan::enabled(3)
        .kill(1, 2)
        .step_timeout(Duration::from_secs(5));
    let cluster = Cluster::new(ClusterConfig::new(p).buffer_bytes(64).fault(plan));
    let shards_ref = &shards;
    let started = Instant::now();
    let err = cluster
        .try_run(|ctx| {
            let data = shards_ref[ctx.id()].clone();
            let n = data.len();
            let offsets: Vec<usize> = (0..=ctx.num_machines())
                .map(|d| d * n / ctx.num_machines())
                .collect();
            ctx.exchange(&data, &offsets)
        })
        .expect_err("kill plan must fail the run");
    let elapsed = started.elapsed();
    assert_eq!(err.kind, RunErrorKind::InjectedKill);
    assert_eq!(err.machine, Some(1));
    assert!(
        elapsed < Duration::from_secs(30),
        "survivors must unwind promptly, took {elapsed:?}"
    );
    // Survivors that die sympathetically are reported, not counted as the
    // primary failure.
    assert!(err.peer_aborts < p);
    // Machine 1 took one opener before it died, and an aborted run takes
    // no more. Whoever else sent it an opener stranded that packet; if only
    // the machine it came from did, machine 1's opener to another was
    // stranded instead, since a machine ships its openers before it
    // receives any.
    assert!(err.residual >= 1, "residual {}", err.residual);
    let msg = err.to_string();
    assert!(
        msg.contains("killed machine 1"),
        "unexpected message: {msg}"
    );
}

#[test]
fn hung_barrier_converts_to_step_timeout_error() {
    // Machine 0 stalls well past the step timeout and then returns without
    // arriving at the barrier; the configured step timeout must convert
    // the stall into a structured error, fast. (Had it returned at once,
    // the stall rule would end the barrier first.)
    let plan = FaultPlan::enabled(5).step_timeout(Duration::from_millis(300));
    let cluster = Cluster::new(ClusterConfig::new(3).fault(plan));
    let started = Instant::now();
    let err = cluster
        .try_run(|ctx| {
            if ctx.id() == 0 {
                std::thread::sleep(Duration::from_secs(2));
            } else {
                ctx.barrier();
            }
            ctx.id()
        })
        .expect_err("missing machine must time the barrier out");
    assert_eq!(err.kind, RunErrorKind::StepTimeout);
    assert!(err.machine.is_some());
    assert_ne!(err.machine, Some(0), "machine 0 exited cleanly");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "timeout must fire near the configured bound"
    );
    assert!(err.to_string().contains("step timeout"), "{err}");
}

#[test]
fn a_barrier_past_a_returned_machine_ends_the_run() {
    // Machine 0 enters one more barrier than its peers, with no step
    // timeout to bound the wait: its peers' return ends the run instead
    // of a hang, and the error names both machines.
    let cluster = Cluster::new(ClusterConfig::new(3));
    let started = Instant::now();
    let err = cluster
        .try_run(|ctx| {
            ctx.barrier();
            if ctx.id() == 0 {
                ctx.barrier();
            }
        })
        .expect_err("a barrier its peers never enter cannot complete");
    assert!(started.elapsed() < Duration::from_secs(1), "{err}");
    assert_eq!(err.kind, RunErrorKind::MachinePanic);
    assert_eq!(err.machine, Some(0));
    assert!(
        err.message.contains("returned from the run")
            && (err.message.contains("machine 1") || err.message.contains("machine 2")),
        "{err}"
    );
}

#[test]
fn starved_receive_names_the_awaited_and_the_parked_tags() {
    // Machine 1 sends machine 0 a packet under one tag and returns; machine
    // 0 waits for another that nobody sends. No step timeout bounds the
    // run: the stall rule ends the receive once a slice comes up empty,
    // and the error names both tags and machine 1's state.
    let parked = Tag::user(1, 0);
    let awaited = Tag::user(2, 0);
    let cluster = Cluster::new(ClusterConfig::new(2));
    let started = Instant::now();
    let err = cluster
        .try_run(|ctx| {
            if ctx.id() == 1 {
                ctx.comm_mut().send_vec(0, parked, vec![7u64]);
            } else {
                let _ = ctx.comm_mut().recv_vec::<u64>(awaited);
            }
        })
        .expect_err("a receive nobody serves can never end");
    assert!(started.elapsed() < Duration::from_secs(1), "{err}");
    assert_eq!(err.kind, RunErrorKind::MachinePanic);
    assert_eq!(err.machine, Some(0));
    let text = err.to_string();
    let names_awaited = format!("waiting for tag {awaited:?}");
    let names_parked = format!("mailbox holds tags {{{parked:?}}}");
    assert!(text.contains(&names_awaited), "{text}");
    assert!(text.contains(&names_parked), "{text}");
    assert!(text.contains("machine 1 returned from the run"), "{text}");
}

// No false stall: each way a snapshot of the run can look stuck while the
// run can still progress, run without a step timeout, so a false verdict
// of the stall rule would fail the run.

#[test]
fn no_false_stall_while_released_waiters_have_not_woken() {
    // The last machine to arrive at a barrier goes straight on into the
    // next barrier, or into a receive, while the waiters it released may
    // not yet have woken to publish that they run.
    let p = 3;
    let report = Cluster::new(ClusterConfig::new(p)).run(|ctx| {
        let (to, from) = ((ctx.id() + 1) % p, (ctx.id() + p - 1) % p);
        let mut got = Vec::new();
        for round in 0..200 {
            ctx.barrier();
            ctx.barrier();
            let tag = Tag::user(3, round);
            ctx.comm_mut().send_vec(to, tag, vec![round]);
            let (src, data) = ctx.comm_mut().recv_vec::<u64>(tag);
            assert_eq!(src, from);
            got.extend(data);
        }
        got
    });
    for got in report.results {
        assert_eq!(got, (0..200).collect::<Vec<u64>>());
    }
}

#[test]
fn no_false_stall_while_a_receiver_holds_its_pulled_packet() {
    // A ping-pong in which each side waits for several slices: a receiver
    // that has pulled its packet from the inbox but not yet left its wait
    // still counts the packet in, so its peer's check never reads both
    // machines stuck.
    let tag = |round: u64| Tag::user(4, round);
    let report = Cluster::new(ClusterConfig::new(2)).run(|ctx| {
        let peer = 1 - ctx.id();
        for round in 0..8 {
            if (round + ctx.id() as u64).is_multiple_of(2) {
                std::thread::sleep(Duration::from_millis(60));
                ctx.comm_mut().send_vec(peer, tag(round), vec![round]);
            } else {
                assert_eq!(ctx.comm_mut().recv_vec::<u64>(tag(round)).1, [round]);
            }
        }
    });
    assert_eq!(report.comm.messages_sent, 8);
}

/// Two machines, one worker each and 64-byte buffers, exchange half of
/// 1 000 keys each under `plan`: an opener and nine later chunks a stream,
/// sent by one task. Asserts each received both halves addressed to it.
fn two_machine_exchange(plan: FaultPlan) {
    let cluster = Cluster::new(
        ClusterConfig::new(2)
            .workers_per_machine(1)
            .buffer_bytes(64)
            .fault(plan),
    );
    let keys = |m: usize| (0..1000).map(move |i| i * 2 + m as u64);
    let report = cluster.run(|ctx| {
        let data: Vec<u64> = keys(ctx.id()).collect();
        ctx.exchange(&data, &[0, 500, 1000]).0
    });
    for (m, out) in report.results.iter().enumerate() {
        let expect: Vec<u64> = (0..2)
            .flat_map(|s| keys(s).skip(m * 500).take(500))
            .collect();
        assert_eq!(out, &expect, "machine {m}");
    }
}

#[test]
fn no_false_stall_while_a_receivers_own_workers_send() {
    // Every chunk is delayed up to 60 ms, several slices: both machines'
    // threads wait in a receive, their inbox queues empty, while their
    // workers sleep between sends.
    two_machine_exchange(FaultPlan::enabled(17).chunk_delay(1000, 60_000));
}

#[test]
fn no_false_stall_while_a_chunk_is_parked_for_redelivery() {
    // Each stream's opener and its first two later chunks are dropped: the
    // first later chunk waits until the second is dropped in its place,
    // the opener and the second until the stream's final flush. Meanwhile
    // every send is delayed up to 60 ms, and each receiver waits for the
    // opener with the chunks that did arrive parked in its mailbox.
    two_machine_exchange(
        FaultPlan::enabled(23)
            .drop_chunks(1000, 3)
            .chunk_delay(1000, 60_000),
    );
}

#[test]
fn no_false_stall_while_one_machine_computes() {
    // Machine 0 computes for ten slices inside a step while machine 1
    // waits in a receive for what it then sends, and machine 2 waits at
    // the barrier after the step.
    let tag = Tag::user(5, 0);
    let report = Cluster::new(ClusterConfig::new(3)).run(|ctx| {
        ctx.step("work", |ctx| match ctx.id() {
            0 => {
                std::thread::sleep(Duration::from_millis(250));
                ctx.comm_mut().send_vec(1, tag, vec![7u64]);
            }
            1 => assert_eq!(ctx.comm_mut().recv_vec::<u64>(tag).1, [7]),
            _ => {}
        });
        ctx.barrier();
    });
    assert!(report.steps.max_across_machines("work") >= Duration::from_millis(250));
}

#[test]
fn try_run_ok_on_clean_runs() {
    let cluster = Cluster::new(ClusterConfig::new(3).fault(FaultPlan::delays(11)));
    let report = cluster
        .try_run(|ctx| {
            let rows = ctx.gather_to_master(vec![ctx.id() as u64]);
            ctx.barrier();
            rows.map(|r| r.concat().iter().sum::<u64>())
        })
        .expect("benign plan must not fail the run");
    assert_eq!(report.results[0], Some(3));
}

#[test]
fn collectives_survive_chaos() {
    // The fault plane hooks recv_packet, so every collective sees it.
    let plan = FaultPlan::chaos(21);
    let cluster = Cluster::new(ClusterConfig::new(5).workers_per_machine(2).fault(plan));
    let report = cluster.run(|ctx| {
        let parts: Vec<Vec<u64>> = (0..ctx.num_machines())
            .map(|dst| vec![(ctx.id() * 100 + dst) as u64; 7])
            .collect();
        let got = ctx.all_to_all(parts);
        ctx.barrier();
        got
    });
    for (dst, received) in report.results.iter().enumerate() {
        for (src, block) in received.iter().enumerate() {
            assert_eq!(
                block,
                &vec![(src * 100 + dst) as u64; 7],
                "src={src} dst={dst}"
            );
        }
    }
}
