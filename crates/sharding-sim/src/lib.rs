//! # shp-sharding-sim
//!
//! The per-request latency model behind the fanout-vs-latency experiments of Section 4.2.1 of
//! the SHP paper (Figure 4a/4b).
//!
//! The paper's argument for fanout as the sharding objective: a multi-get query issues its
//! per-server requests in parallel, so its latency is the *maximum* of the individual request
//! latencies; the more servers are contacted (the higher the fanout), the higher the chance of
//! hitting a slow request ("the tail at scale").
//!
//! * [`latency`] — a heavy-tailed per-request latency distribution normalized so that a single
//!   request has mean latency `t`, plus percentile bookkeeping.
//!
//! The multiget itself is served by `shp-serving`: its shards sample each batch's service
//! time from a [`LatencyModel`] and charge the query the maximum over its batches. Figure 4 is
//! replayed on that engine (the `fig4_latency` binary of `shp-bench`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod latency;

pub use latency::{LatencyModel, LatencySummary};
