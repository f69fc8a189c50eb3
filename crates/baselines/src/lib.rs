//! The comparison system of the evaluation.
//!
//! - [`spark`] — a Spark-1.6-style bulk-synchronous `sortByKey`: sample →
//!   map (range partition + serialized shuffle write) → reduce (shuffle
//!   fetch + TimSort), with a stage barrier between each. This is the
//!   baseline Figs. 6 and 8 compare against; its costs (serialization,
//!   materialization, barriers, no duplicate-splitter handling) are paid
//!   for real, not modeled.
//! - [`serialize`] — the fixed-width record codec the Spark baseline pays
//!   for at every stage boundary.
//!
//! The *naive sample sort* ablation (no investigator, Fig. 3b) does not
//! live here: it is `pgxd_core::SortConfig::investigator(false)`.

pub mod serialize;
pub mod spark;

pub use spark::{SparkEngine, SparkSortResult};
