//! An in-process distributed-runtime simulator modelled on PGX.D (§III of
//! the paper).
//!
//! PGX.D is Oracle's proprietary distributed graph-processing engine; this
//! crate rebuilds the three managers the paper describes, faithfully
//! enough that the distributed sorting algorithm on top exercises the same
//! mechanisms the paper measures:
//!
//! - **Task manager** ([`task::TaskManager`]) — each machine owns a set of
//!   worker threads that grab tasks from a shared list and execute them,
//!   exactly the §III description of the parallel-step execution model.
//! - **Data manager** ([`buffer::RequestBuffer`], [`csr::Csr`]) — outgoing
//!   remote writes are buffered per destination and flushed when the
//!   buffer reaches its maximum size (256 KiB by default, the value PGX.D
//!   tuned empirically) or when the step ends; graph data is stored in
//!   Compressed Sparse Row form.
//! - **Communication manager** ([`comm`]) — point-to-point message
//!   delivery between machines with byte/message accounting and a
//!   [`net::NetworkModel`] that converts observed bytes into modeled wire
//!   time for the 56 Gb/s InfiniBand fabric of Table I.
//!
//! A [`cluster::Cluster`] runs an SPMD closure on one OS thread per
//! simulated machine; [`machine::MachineCtx`] gives each machine its
//! identity, its managers, collectives (barrier / gather / broadcast /
//! all-to-all / offset-addressed asynchronous exchange), and a per-step
//! wall-clock timer ([`metrics::StepTimer`]) so experiments can report the
//! Fig. 7 step breakdown.
//!
//! # Observability
//!
//! One record per fact, each read back typed on [`cluster::RunReport`]:
//! the [`metrics::CommStats`] counters the fabric and exchange bump
//! (`comm`, `per_dst_bytes`), the step timer `ctx.step` writes (`steps`),
//! and the opt-in [`trace`] rings for when each event happened (`trace`).
//! A failed run's [`fault::RunError`] carries the same `comm`,
//! `per_dst_bytes` and `steps`, so an aborted run still says what moved
//! and which machine was slowest in each step
//! ([`metrics::StepReport::slowest_machine`]).
//!
//! # Verification layers
//!
//! The runtime's concurrency invariants are enforced by tooling, not
//! convention (see `DESIGN.md` § *Verification & analysis*):
//!
//! - [`sync`] — all runtime synchronization goes through one std-only
//!   shim, which also owns the fabric's queue, so `RUSTFLAGS="--cfg loom"`
//!   (built through `modelcheck/Cargo.toml`, the one manifest that names
//!   the crate) swaps in [loom](https://docs.rs/loom) and the
//!   `loom_pool`/`loom_exchange` tests model-check the chunk pool and the
//!   overlapped exchange across every interleaving.
//! - [`checker`] — a debug-mode protocol checker keeps a per-fabric ledger
//!   of sends, receives, and pool chunk custody; barriers and fabric
//!   teardown turn undelivered packets, leaked/double-released chunks, and
//!   overlapping §IV-C write-offset ranges into deterministic panics.
//! - [`trace`] — an opt-in structured event layer: lock-free per-machine
//!   ring buffers of timestamped spans/instants at every runtime edge
//!   (steps, barriers, tasks, chunk traffic, pool hits, checker verdicts),
//!   merged on a unified clock and exported as Chrome `trace_event` JSON
//!   (Perfetto / `chrome://tracing`) plus derived views. Off by default;
//!   disabled runs pay ~one branch per event site.
//! - [`fault`] — an opt-in deterministic fault-injection plane: a seeded
//!   [`fault::FaultPlan`] on [`cluster::ClusterConfig`] arms per-chunk
//!   delays/jitter, mailbox reordering, bounded drop-with-redelivery,
//!   straggler workers, step pauses, mid-step machine kills, and a
//!   per-step timeout that converts a hung run into a structured
//!   [`fault::RunError`] via [`cluster::Cluster::try_run`]. Off by
//!   default; disabled runs pay ~one branch per fault site.
//! - `cargo xtask lint` — a workspace lint walks the source and confines
//!   `unsafe` to an allowlist (`pgxd::machine`, `pgxd::pool`, `memtrack`),
//!   requires `// SAFETY:` on every unsafe block, and bans raw
//!   `std::thread::spawn`/`std::sync::Mutex` in this crate.
//!
//! # Example
//!
//! ```
//! use pgxd::cluster::{Cluster, ClusterConfig};
//!
//! let cluster = Cluster::new(ClusterConfig::new(4).workers_per_machine(2));
//! let report = cluster.run(|ctx| {
//!     // Every machine contributes its rank; machine 0 gathers them.
//!     let rows = ctx.gather_to_master(vec![ctx.id() as u64]);
//!     ctx.barrier();
//!     rows.map(|r| r.concat().iter().sum::<u64>())
//! });
//! assert_eq!(report.results[0], Some(6));
//! ```

pub mod buffer;
pub mod checker;
pub mod cluster;
pub mod comm;
pub mod csr;
pub mod fault;
pub mod machine;
pub mod metrics;
pub mod net;
pub mod partition;
pub mod pool;
pub mod sync;
pub mod task;
pub mod trace;

pub use checker::ResidualReport;
pub use cluster::{Cluster, ClusterConfig, RunReport};
pub use fault::{FaultPlan, RunError, RunErrorKind};
pub use machine::MachineCtx;
pub use metrics::{CommSummary, Counter, ExchangeSummary, StepReport};
pub use pool::ChunkPool;
pub use net::NetworkModel;
pub use trace::{TraceConfig, TraceLog};

/// The read/request buffer size PGX.D uses (§IV-B): 256 KiB.
pub const DEFAULT_BUFFER_BYTES: usize = 256 * 1024;
