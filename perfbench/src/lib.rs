//! Shared pieces of the paging-stack benchmark: seeded workload
//! generators, answer validators, a loopback client, server process
//! guards, span tracing and percentile arithmetic.

pub mod check;
pub mod client;
pub mod gen;
pub mod host;
pub mod layers;
pub mod load;
pub mod procs;
pub mod stats;
pub mod trace;
