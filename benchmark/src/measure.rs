//! The end-to-end pass: whole `DistSorter` runs with every program
//! instrument off (`ClusterConfig::new` leaves trace, fault plan and health
//! monitor disabled), each output verified after its clock has stopped.

use crate::verify::{verify, Fingerprint};
use crate::workload::{Item, Mode, Workload, DEFAULT_SEED};
use pgxd::metrics::{CommSummary, StepReport};
use pgxd::{Cluster, ClusterConfig, RunReport, TraceConfig};
use pgxd_core::{DistSorter, SortConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long the timed part of a pass lasts.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// A fixed count (the layer pass's accounted sorts).
    Iters(usize),
    /// Until this many seconds have passed (`--seconds`), and at least
    /// [`MIN_TIMED`] sorts.
    Seconds(f64),
}

/// A time-boxed run on a stalled host still reports a median of this many.
const MIN_TIMED: usize = 5;

impl Budget {
    fn spent(&self, timed: usize, since: Instant) -> bool {
        match *self {
            Budget::Iters(n) => timed >= n,
            Budget::Seconds(s) => timed >= MIN_TIMED && since.elapsed().as_secs_f64() >= s,
        }
    }
}

/// What the program itself reported about one cluster run.
#[derive(Debug)]
pub struct Observed {
    /// Sorts the run performed (1 in fresh-cluster mode).
    pub sorts: usize,
    /// The benchmark's own clock around the `try_run` call.
    pub started: Instant,
    pub outside: Duration,
    /// `RunReport.wall_time`.
    pub wall_time: Duration,
    pub steps: StepReport,
    pub comm: CommSummary,
}

impl Observed {
    fn of<R>(report: &RunReport<R>, sorts: usize, started: Instant, outside: Duration) -> Self {
        Observed {
            sorts,
            started,
            outside,
            wall_time: report.wall_time,
            steps: report.steps.clone(),
            comm: report.comm,
        }
    }
}

/// Everything one pass saw.
#[derive(Debug, Default)]
pub struct Measured {
    /// One value per set-up: input generation + fingerprint pass + cluster
    /// spin-up + warm-up sorts.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed sort.
    pub sort_s: Vec<f64>,
    /// Sorts started, warm-ups included.
    pub attempted: u64,
    /// Sorts that returned a `RunError` (panics included) or failed
    /// verification.
    pub failed: u64,
    pub first_error: Option<String>,
    /// Worst max-machine-output / (n/p) over all sorts (Table II).
    pub imbalance: f64,
    /// Per-machine output sizes of the last sort.
    pub output_sizes: Vec<usize>,
    /// One entry per cluster run that held timed sorts.
    pub runs: Vec<Observed>,
}

impl Measured {
    /// `RunReport.comm.bytes_sent` per key sorted (Fig. 9's cost, which
    /// in-process wall time hides).
    pub fn wire_bytes_per_key(&self, w: &Workload) -> f64 {
        let bytes: u64 = self.runs.iter().map(|r| r.comm.bytes_sent).sum();
        let sorts: usize = self.runs.iter().map(|r| r.sorts).sum();
        bytes as f64 / (sorts.max(1) * w.n) as f64
    }

    fn note_outputs<T: Item>(&mut self, w: &Workload, outputs: &[Vec<T>], input: &Fingerprint) {
        self.attempted += 1;
        if let Err(e) = verify(outputs, input) {
            self.note_failure(e);
        }
        let max = outputs.iter().map(Vec::len).max().unwrap_or(0);
        self.imbalance = self
            .imbalance
            .max(max as f64 * w.machines as f64 / w.n as f64);
        self.output_sizes = outputs.iter().map(Vec::len).collect();
    }

    fn note_failure(&mut self, error: String) {
        self.failed += 1;
        self.first_error.get_or_insert(error);
    }
}

pub fn cluster_config(w: &Workload, trace: TraceConfig) -> ClusterConfig {
    ClusterConfig::new(w.machines)
        .workers_per_machine(w.workers)
        .trace(trace)
}

/// Generates the input and its fingerprint, refusing a generator that no
/// longer reproduces the pinned input at the default seed.
pub fn make_input<T: Item>(w: &Workload, seed: u64) -> Result<(Vec<Vec<T>>, Fingerprint), String> {
    let shards = w.generate::<T>(seed);
    let fp = Fingerprint::of(&shards);
    if seed == DEFAULT_SEED && fp != w.golden {
        return Err(format!(
            "{}: input fingerprint {fp:#x?} differs from the pinned one: the generator changed",
            w.name
        ));
    }
    Ok((shards, fp))
}

/// Runs `setups` set-ups and then the timed sorts of one pass.
pub fn measure<T: Item>(
    w: &Workload,
    seed: u64,
    setups: usize,
    budget: Budget,
    trace: TraceConfig,
) -> Result<Measured, String> {
    let setups = setups.max(1);
    let mut m = Measured::default();
    match w.mode {
        Mode::FreshCluster => {
            let mut input = None;
            for _ in 0..setups {
                let start = Instant::now();
                let (shards, fp) = make_input::<T>(w, seed)?;
                for _ in 0..w.warmups {
                    fresh_sort(w, &shards, &fp, trace, &mut m, false);
                }
                m.setup_s.push(start.elapsed().as_secs_f64());
                input = Some((shards, fp));
            }
            let (shards, fp) = input.expect("at least one set-up ran");
            let since = Instant::now();
            while !budget.spent(m.sort_s.len(), since) && m.failed == 0 {
                fresh_sort(w, &shards, &fp, trace, &mut m, true);
            }
        }
        Mode::ClosedLoop => {
            for i in 0..setups {
                let start = Instant::now();
                let (shards, fp) = make_input::<T>(w, seed)?;
                // Every set-up but the last stops where its warm-ups end.
                let timed = if i + 1 == setups {
                    budget
                } else {
                    Budget::Iters(0)
                };
                closed_loop(w, &shards, &fp, trace, timed, start, &mut m);
            }
        }
    }
    Ok(m)
}

/// One fresh cluster doing one sort. The shards are cloned before the clock
/// starts and moved into the machines; the outputs come back in the report
/// and are verified after the clock has stopped.
fn fresh_sort<T: Item>(
    w: &Workload,
    shards: &[Vec<T>],
    fp: &Fingerprint,
    trace: TraceConfig,
    m: &mut Measured,
    timed: bool,
) {
    let slots: Vec<Mutex<Option<Vec<T>>>> =
        shards.iter().map(|s| Mutex::new(Some(s.clone()))).collect();
    let cluster = Cluster::new(cluster_config(w, trace));
    let sorter = DistSorter::new(SortConfig::default());
    let start = Instant::now();
    let report = cluster.try_run(|ctx| {
        let local = slots[ctx.id()]
            .lock()
            .expect("shard slot lock")
            .take()
            .expect("each machine takes its shard once");
        T::dist_sort(&sorter, ctx, local).data
    });
    let outside = start.elapsed();
    match report {
        Ok(report) => {
            m.note_outputs(w, &report.results, fp);
            if timed {
                m.sort_s.push(outside.as_secs_f64());
                m.runs.push(Observed::of(&report, 1, start, outside));
            }
        }
        Err(e) => {
            m.attempted += 1;
            m.note_failure(e.to_string());
        }
    }
}

/// One long-lived cluster run sorting the same input back to back: warm-ups
/// first (their end is the end of set-up), then timed sorts until `budget`
/// is spent. Every sort is bracketed by barriers and clocked on machine 0;
/// the input is cloned before the first barrier and the outputs are
/// verified by machine 0 after the second, both outside the clock.
fn closed_loop<T: Item>(
    w: &Workload,
    shards: &[Vec<T>],
    fp: &Fingerprint,
    trace: TraceConfig,
    budget: Budget,
    setup_start: Instant,
    m: &mut Measured,
) {
    let outputs: Vec<Mutex<Option<Vec<T>>>> = shards.iter().map(|_| Mutex::new(None)).collect();
    let stop = AtomicBool::new(false);
    // Machine 0's notebook; the other machines never touch it.
    let log = Mutex::new((std::mem::take(m), None::<Instant>));
    let cluster = Cluster::new(cluster_config(w, trace));
    let sorter = DistSorter::new(SortConfig::default());
    let start = Instant::now();
    let report = cluster.try_run(|ctx| {
        let id = ctx.id();
        let mut done = 0usize;
        loop {
            let local = shards[id].clone();
            ctx.barrier();
            let clock = Instant::now();
            let part = T::dist_sort(&sorter, ctx, local);
            ctx.barrier();
            let wall = clock.elapsed();
            *outputs[id].lock().expect("output slot lock") = Some(part.data);
            ctx.barrier();
            done += 1;
            if id == 0 {
                let outs: Vec<Vec<T>> = outputs
                    .iter()
                    .map(|slot| {
                        slot.lock()
                            .expect("output slot lock")
                            .take()
                            .unwrap_or_default()
                    })
                    .collect();
                let mut guard = log.lock().expect("loop log lock");
                let (m, timed_since) = &mut *guard;
                m.note_outputs(w, &outs, fp);
                if done > w.warmups {
                    m.sort_s.push(wall.as_secs_f64());
                }
                if done == w.warmups {
                    m.setup_s.push(setup_start.elapsed().as_secs_f64());
                    *timed_since = Some(Instant::now());
                }
                let spent = timed_since.is_some_and(|since| budget.spent(done - w.warmups, since));
                stop.store(spent || m.failed > 0, Ordering::SeqCst);
            }
            ctx.barrier();
            if stop.load(Ordering::SeqCst) {
                return done;
            }
        }
    });
    let outside = start.elapsed();
    *m = log.into_inner().expect("loop log lock").0;
    match report {
        Ok(report) if report.results[0] > w.warmups => {
            m.runs
                .push(Observed::of(&report, report.results[0], start, outside));
        }
        Ok(_) => {}
        Err(e) => {
            m.attempted += 1;
            m.note_failure(e.to_string());
        }
    }
}
