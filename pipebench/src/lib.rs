//! # pipebench — the end-to-end pipeline benchmark
//!
//! One command runs one named workload at one seed through the real
//! pipeline — `ClusterRun` → `envmon_serve::Daemon` ticks → `TsStore` →
//! `QueryFront` — prints every metric with its unit, and fails if any
//! output check fails. See `NOTES.md` for the workloads, the metrics, the
//! clocks they use and the traced per-layer split.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload fleet_ingest --seed 1 --seconds 20 --trace 0
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod clock;
pub mod episode;
pub mod probe;
pub mod queries;
pub mod report;
pub mod workload;
