//! # rap-obs — zero-dependency observability for the RAP-Track pipeline
//!
//! A hand-rolled, std-only metrics + tracing layer (the workspace is
//! air-gapped, DESIGN.md §8, so `tracing`/`metrics`/`serde` are out).
//! Three pieces:
//!
//! * a [metrics registry](registry) — named atomic [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket [`Histogram`]s, captured into diffable
//!   [`Snapshot`]s and rendered as Prometheus-style text or JSON;
//! * a [round tracker](rounds) — per-round trace ids plus a bounded
//!   ring of [`RoundExemplar`]s with their [`StageSpan`]s, the one span
//!   type: rap-serve's admin plane keeps slow rounds in it, and
//!   `rap verify --trace` writes one exemplar per verified job;
//! * a tiny [JSON](json) writer/parser used by the snapshots, the bench
//!   harness (`BENCH_*.json`) and the `figures` binary.
//!
//! Instrumentation sites use the [`counter!`] / [`gauge!`] /
//! [`histogram!`] macros, which resolve the handle once per call site:
//!
//! ```
//! rap_obs::counter!("demo_jobs_total").inc();
//! rap_obs::gauge!("demo_queue_depth").set(3);
//! rap_obs::histogram!("demo_lat_ns", &rap_obs::LATENCY_NS_BOUNDS).observe(250);
//! let snap = rap_obs::global().snapshot();
//! assert_eq!(snap.counter("demo_jobs_total"), 1);
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod registry;
pub mod rounds;

pub use json::{Json, JsonError};
pub use registry::{
    bucket_quantile, global, CachePadded, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    Snapshot, LATENCY_NS_BOUNDS, ROUND_LATENCY_NS_BOUNDS,
};
pub use rounds::{RoundCollector, RoundExemplar, StageSpan};

/// Returns the global counter named by the (constant) string literal,
/// resolving and caching the handle on first use at this call site.
///
/// The name must be the same on every execution of the call site — for
/// dynamic names (labels), call [`global()`]`.counter(&name)` directly.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Returns the global gauge named by the (constant) string literal;
/// see [`counter!`] for the caching contract.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// Returns the global histogram named by the (constant) string literal
/// with the given bucket bounds; see [`counter!`] for the caching
/// contract (first registration's bounds win).
#[macro_export]
macro_rules! histogram {
    ($name:expr, $bounds:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::global().histogram($name, $bounds))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_cache_global_handles() {
        for _ in 0..3 {
            crate::counter!("lib_test_total").inc();
        }
        crate::gauge!("lib_test_gauge").set(7);
        crate::histogram!("lib_test_hist", &[10, 100]).observe(42);
        let snap = crate::global().snapshot();
        assert_eq!(snap.counter("lib_test_total"), 3);
        assert_eq!(snap.gauge("lib_test_gauge"), 7);
        assert_eq!(snap.histogram("lib_test_hist").unwrap().count, 1);
    }
}
