//! Experiment harness behind the `exp` binary.
//!
//! One runner per system ([`run_pgxd`], [`run_spark`]), each returning an
//! [`ExpResult`]: the run's labels plus its [`pgxd::RunReport`], which the
//! binary renders as paper-style tables and writes to `results/*.json`.
//!
//! ## Timing on small hosts
//!
//! The paper ran 32 real machines; this harness simulates machines as
//! thread groups on one host. Where the host has fewer cores than
//! simulated machines, measured wall time cannot show strong scaling
//! (all "machines" share the same silicon), so every result carries:
//!
//! - `wall_time` — honest measured wall time of the whole run;
//! - `comm.modeled_wire_time` — wire time the Table I network model
//!   charges for the observed traffic;
//! - [`ExpResult::scaled_time`] — `wall_time / p + modeled_wire_time`, a
//!   perfect-overlap scaling model used *only* for the shape of the
//!   Fig. 6 scaling curves (documented in EXPERIMENTS.md).
//!
//! Comparative claims (PGX.D vs Spark at the same `p`) always use
//! measured wall time.

pub mod json;
pub mod runner;
pub mod table;

pub use runner::{run_pgxd, run_spark, ExpResult, Workload, DEFAULT_SEED, DEFAULT_WORKERS};
