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
//! - **Data manager** ([`buffer::RequestBuffer`]) — outgoing remote writes
//!   are buffered per destination and flushed when the buffer reaches its
//!   maximum size (256 KiB by default, the value PGX.D tuned empirically)
//!   or when the step ends. Every element travels as its [`wire::Wire`]
//!   image, packed, and its rest, raw. Graph loading (CSR storage, ghost
//!   nodes, edge chunking) lives with the generators in `pgxd-datagen`,
//!   since no sort runs it.
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
//!   `loom_exchange` test model-checks the overlapped exchange across
//!   every interleaving. In debug builds its mutex checks that a thread
//!   holds one guard at a time and blocks under none.
//! - Two protocol checks that hold in every build. *Quiescence*: the
//!   fabric counts the packets in flight to each inbox, and every
//!   [`barrier`](machine::MachineCtx::barrier) and the cluster's teardown
//!   panic, naming each machine whose inbox or mailbox still holds
//!   packets. *Tiling*: before an exchange hands its output back, its
//!   receive loop proves that the self-copies and placed chunks cover the
//!   output exactly once (§IV-C). A chunk is a plain pair of `Vec`s moved
//!   from sender to receiver, so rustc's move check is its custody rule.
//! - [`trace`] — an opt-in structured event layer: one sink per machine
//!   of timestamped spans/instants at every runtime edge
//!   (steps, barriers, tasks, chunk traffic),
//!   merged on a unified clock and exported as Chrome `trace_event` JSON
//!   (Perfetto / `chrome://tracing`) plus derived views. Off by default;
//!   disabled runs pay ~one branch per event site.
//! - [`fault`] — an opt-in deterministic fault-injection plane: a seeded
//!   [`fault::FaultPlan`] on [`cluster::ClusterConfig`] arms per-chunk
//!   delays/jitter, mailbox reordering, bounded drop-with-redelivery,
//!   straggler workers, step pauses, mid-step machine kills, and a
//!   per-step timeout that converts a machine stalled past it into a
//!   structured [`fault::RunError`] via [`cluster::Cluster::try_run`].
//!   Off by default; disabled runs pay ~one branch per fault site. Its
//!   control plane also holds the stall rule that fails, in every run, a
//!   wait that can never end.
//! - Compiler lints, from the manifests — `unsafe_code` confines `unsafe`
//!   to an allowlist (`pgxd::machine`, `memtrack`), clippy's
//!   `undocumented_unsafe_blocks` requires `// SAFETY:` on every unsafe
//!   block, and its `disallowed_types` / `disallowed_methods`
//!   (`clippy.toml`) ban raw `std::thread::spawn` / `std::sync::Mutex` and
//!   their kin in this crate outside [`sync`].
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
pub mod cluster;
pub mod comm;
pub mod fault;
// The unsafe allowlist: the exchange's placement path (`machine`). The
// manifest denies `unsafe` everywhere else.
#[allow(unsafe_code)]
pub mod machine;
pub mod metrics;
pub mod net;
pub mod sync;
pub mod task;
pub mod trace;
pub mod wire;

pub use cluster::{Cluster, ClusterConfig, RunReport};
pub use fault::{FaultPlan, RunError, RunErrorKind};
pub use machine::MachineCtx;
pub use metrics::{CommSummary, Counter, ExchangeSummary, StepReport};
pub use net::NetworkModel;
pub use trace::{TraceConfig, TraceLog};
pub use wire::Wire;

/// The read/request buffer size PGX.D uses (§IV-B): 256 KiB.
pub const DEFAULT_BUFFER_BYTES: usize = 256 * 1024;
