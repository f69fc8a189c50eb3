//! Workspace root crate for the PGX.D distributed-sort reproduction.
//!
//! This crate only re-exports the member crates so that the `examples/`
//! and `tests/` directories at the workspace root can exercise the whole
//! stack through a single dependency. The actual implementation lives in:
//!
//! - [`pgxd`] — the distributed runtime simulator (machines, task manager,
//!   data manager, communication manager, collectives, metrics).
//! - [`pgxd_algos`] — single-machine sorting algorithms (quicksort,
//!   balanced merge handler, TimSort, k-way merge, rank search).
//! - [`pgxd_core`] — the paper's contribution: the load-balanced
//!   distributed sample sort with the duplicate-splitter investigator.
//! - [`pgxd_datagen`] — workload generators (four key distributions,
//!   R-MAT graphs, CSR).
//! - [`pgxd_baselines`] — the comparator: a Spark-like sortByKey.
//! - [`pgxd_memtrack`] — tracking allocator for memory experiments.

pub use pgxd;
pub use pgxd_algos;
pub use pgxd_baselines;
pub use pgxd_core;
pub use pgxd_datagen;
pub use pgxd_memtrack;
