//! # brevald — snapshot query server
//!
//! A long-lived server loop answering per-AS and per-link queries against
//! immutable scenario snapshots:
//!
//! * **cone** size and **member**ship (customer cone and PPDC cone, per
//!   classifier),
//! * inferred **class** per classifier plus the cross-classifier
//!   disagreement vote and the validation label,
//! * validation coverage per AS (**ascov**) and per region×topology
//!   **slice** — the bias axes of the source paper.
//!
//! The serving core is three layers, each its own module:
//!
//! * [`set`] — one query-ready generation: every classifier's snapshot
//!   resolved into direct `Arc`s ([`set::ClassifierView`]) plus the
//!   region×topology [`slices::SliceIndex`]. Incomplete snapshots are an
//!   explicit error, never silently-empty answers.
//! * [`store`] — one `Mutex<Arc<SnapshotSet>>` cell: a read
//!   ([`store::SnapshotStore::current`]) clones the active `Arc` under the
//!   lock, a publish swaps in the next generation, and an old generation
//!   drops with its last reader. No capacity, no `unsafe`.
//! * [`engine`] — parse → allocation-free eval kernel → format. Replies
//!   are a pure function of (generation, query), so responses within a
//!   generation are byte-identical at any thread count; batches fan out
//!   over `breval_par`'s persistent pool.
//!
//! [`server::Server`] ties them together over any `BufRead`/`Write` pair;
//! the `brevald` binary wires it to stdin/stdout with warm start from the
//! binary snapshot format and off-thread `reload`.

#![warn(missing_docs)]

pub mod engine;
pub mod server;
pub mod set;
pub mod slices;
pub mod store;

pub use engine::{answer_batch, answer_line, eval, parse, Query, Reply};
pub use server::Server;
pub use set::{ClassifierView, SnapshotSet, MAX_CLASSIFIERS};
pub use slices::{SliceIndex, SliceTable};
pub use store::SnapshotStore;
