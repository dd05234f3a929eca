//! # perfbench — native TLS runtime against its sequential baseline
//!
//! Times `Runtime::run` (rank 0 plus `nproc - 1` speculative workers,
//! default configuration) against a `DirectContext` run of the same input
//! on three Table II workloads, checks every TLS checksum against the
//! sequential one, and attributes the TLS wall time to the layers it
//! passes through with ns/op probes of their public functions.
//! See `NOTES.md` for the workloads, the metric table and what they show.

pub mod aggregate;
pub mod catalog;
pub mod measure;
pub mod probes;
pub mod stats;
pub mod workload;
