//! The task manager (§III): each machine runs parallel steps by putting
//! tasks on a list and letting a set of worker threads grab and execute
//! them.
//!
//! Faithful to the paper's description at the level that matters for the
//! sort: work is expressed as a task list, every worker pulls the next
//! task when it finishes its current one (so uneven tasks self-balance),
//! and a parallel step completes when the list is drained. The list is
//! complete before the first worker starts, so it is nothing more than an
//! iterator behind a [`crate::sync::Mutex`].
//!
//! This module and [`crate::sync`] are the only sanctioned ways to put
//! work on another thread inside `pgxd` — the crate's clippy configuration
//! bans raw `std::thread::spawn` elsewhere in it, so every spawned thread
//! is scoped (joined before the parallel step returns) and visible to the
//! verification tooling.

use crate::fault::FaultInjector;
use crate::trace::{EventKind, MachineTrace};
use std::sync::Arc;

/// A machine's worker-pool handle. Cloneable and cheap; the workers are
/// scoped to each [`TaskManager::run_tasks`] call, which both keeps the
/// implementation entirely safe and models the paper's "a list of tasks
/// is created at the beginning of each parallel step".
#[derive(Debug, Clone)]
pub struct TaskManager {
    workers: usize,
    /// Machine this pool belongs to (fault-plane addressing only).
    machine: usize,
    /// The run's fault plane; `None` (one branch per task pickup) when no
    /// [`FaultPlan`](crate::fault::FaultPlan) is armed.
    fault: Option<Arc<FaultInjector>>,
}

impl TaskManager {
    /// A task manager with `workers` worker threads (min 1).
    pub fn new(workers: usize) -> Self {
        TaskManager {
            workers: workers.max(1),
            machine: 0,
            fault: None,
        }
    }

    /// A task manager whose task pickups pass through the run's fault
    /// plane (straggler injection on the designated machine).
    pub(crate) fn with_fault(
        workers: usize,
        machine: usize,
        fault: Option<Arc<FaultInjector>>,
    ) -> Self {
        TaskManager {
            workers: workers.max(1),
            machine,
            fault,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The straggler fault point: every task pickup on this machine passes
    /// through here. One branch when no plan is armed.
    fn before_pickup(&self) {
        if let Some(f) = &self.fault {
            f.worker_pickup(self.machine);
        }
    }

    /// Executes every task on the worker pool and waits for completion.
    /// Workers grab tasks from the shared list as they free up. A debug
    /// build panics if the caller holds a [`crate::sync::Mutex`] guard.
    pub fn run_tasks<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        crate::sync::assert_no_guard("joining a step's tasks");
        if tasks.is_empty() {
            return;
        }
        if self.workers.min(tasks.len()) == 1 {
            self.run_tasks_on_caller(tasks);
            return;
        }
        self.drain_on_workers(tasks, || ());
    }

    /// Executes every task on the calling thread, in list order, whatever
    /// the pool size: for a step whose tasks are too short to be worth a
    /// thread. Each pickup still passes the fault plane.
    pub(crate) fn run_tasks_on_caller<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        for t in tasks {
            self.before_pickup();
            t();
        }
    }

    /// Executes `tasks` on the worker pool while `foreground` runs on the
    /// calling thread, returning `foreground`'s result once both are done.
    ///
    /// This is the §IV-C "send while receiving" shape: the exchange hands
    /// its per-destination send loops to the workers and keeps the calling
    /// thread free to drain arrivals. Unlike [`run_tasks`], tasks are
    /// *never* run inline on the caller — `foreground` may block until the
    /// tasks make progress (and vice versa), so even a one-worker pool
    /// spawns a thread here. With no tasks, `foreground` runs inline. Like
    /// [`run_tasks`], it panics in a debug build if the caller holds a
    /// guard.
    ///
    /// [`run_tasks`]: TaskManager::run_tasks
    pub fn run_tasks_overlapping<'env, R>(
        &self,
        tasks: Vec<Box<dyn FnOnce() + Send + 'env>>,
        foreground: impl FnOnce() -> R,
    ) -> R {
        crate::sync::assert_no_guard("joining a step's tasks");
        if tasks.is_empty() {
            return foreground();
        }
        self.drain_on_workers(tasks, foreground)
    }

    /// Puts `tasks` on a shared list, drains it on scoped worker threads
    /// (one per task, at most the pool size; each grabs the next task as it
    /// frees up) and runs `foreground` on the calling thread meanwhile.
    fn drain_on_workers<'env, R>(
        &self,
        tasks: Vec<Box<dyn FnOnce() + Send + 'env>>,
        foreground: impl FnOnce() -> R,
    ) -> R {
        let workers = self.workers.min(tasks.len());
        // Every task is listed before the first worker starts, so the list
        // only shrinks: a worker that finds it empty is done.
        let list = crate::sync::Mutex::new(tasks.into_iter());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // The per-pickup lock is the work list — whichever worker
                    // frees up first takes the next task, so uneven tasks
                    // self-balance.
                    let next = list.lock().next();
                    let Some(task) = next else { break };
                    self.before_pickup();
                    task();
                });
            }
            foreground()
        })
    }
}

/// Wraps a task so its execution is recorded as a [`EventKind::Task`]
/// span on `lane` of `trace` (`a` = `label`, e.g. the destination of an
/// exchange send task; `b` = `index`). With `trace == None` the task is
/// returned untouched — the untraced path pays nothing per execution.
pub fn traced_task<'env>(
    trace: Option<Arc<MachineTrace>>,
    lane: u32,
    label: u64,
    index: u64,
    task: Box<dyn FnOnce() + Send + 'env>,
) -> Box<dyn FnOnce() + Send + 'env> {
    match trace {
        None => task,
        Some(t) => Box::new(move || {
            let t0 = t.now_ns();
            task();
            t.span_since(lane, EventKind::Task, t0, label, index);
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_tasks_executes_all() {
        let tm = TaskManager::new(4);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..100)
            .map(|_| {
                let c = &counter;
                Box::new(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        tm.run_tasks(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn single_worker_runs_inline() {
        let tm = TaskManager::new(1);
        let mut touched = false;
        // With one worker the tasks run on the caller thread, so a plain
        // &mut capture is fine.
        let t: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| touched = true)];
        tm.run_tasks(t);
        assert!(touched);
    }

    #[test]
    fn uneven_tasks_self_balance() {
        // One long task plus many short ones: all must finish.
        let tm = TaskManager::new(2);
        let done = AtomicUsize::new(0);
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            done.fetch_add(1, Ordering::Relaxed);
        })];
        for _ in 0..50 {
            let d = &done;
            tasks.push(Box::new(move || {
                d.fetch_add(1, Ordering::Relaxed);
            }));
        }
        tm.run_tasks(tasks);
        assert_eq!(done.load(Ordering::Relaxed), 51);
    }

    #[test]
    fn overlapping_foreground_sees_background_progress() {
        // The foreground blocks until the background tasks have produced
        // something — only sound if tasks genuinely run off-thread, even
        // on a one-worker pool.
        let tm = TaskManager::new(1);
        let (tx, rx) = crate::sync::unbounded::<u64>();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..10u64)
            .map(|i| {
                let tx = tx.clone();
                Box::new(move || tx.send(i).unwrap()) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        let got = tm.run_tasks_overlapping(tasks, || {
            let wait = std::time::Duration::from_secs(30);
            (0..10)
                .map(|_| rx.recv_timeout(wait).expect("a task's value"))
                .sum::<u64>()
        });
        assert_eq!(got, 45);
    }

    #[test]
    fn overlapping_with_no_tasks_runs_foreground_inline() {
        let tm = TaskManager::new(4);
        let mut hit = false;
        let out = tm.run_tasks_overlapping(Vec::new(), || {
            hit = true;
            7
        });
        assert!(hit);
        assert_eq!(out, 7);
    }

    #[test]
    fn zero_workers_clamped() {
        let tm = TaskManager::new(0);
        assert_eq!(tm.workers(), 1);
    }

    #[test]
    fn traced_task_records_span_untraced_is_identity() {
        use crate::trace::TraceCollector;
        let tm = TaskManager::new(2);
        let hits = AtomicUsize::new(0);
        let c = TraceCollector::new(1);
        let mk = |trace| {
            let h = &hits;
            traced_task(
                trace,
                2,
                42,
                0,
                Box::new(move || {
                    h.fetch_add(1, Ordering::Relaxed);
                }),
            )
        };
        tm.run_tasks(vec![mk(Some(c.machine(0))), mk(None)]);
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        let log = c.collect();
        assert_eq!(log.events.len(), 1, "only the traced task recorded");
        assert_eq!(log.events[0].lane, 2);
        assert_eq!(log.events[0].a, 42);
    }
}
