//! `specrepair-telemetry`: the unified, std-only metric layer.
//!
//! Every subsystem used to keep its own ad-hoc stats struct and the
//! server hand-threaded each one into a bespoke JSON renderer; loadgen
//! then re-parsed that JSON stringly. This crate replaces that sprawl
//! with one typed pipeline:
//!
//! 1. [`metric`] — the primitives: [`Counter`], [`Gauge`] and the log₂
//!    [`Histogram`] (promoted from the server crate), all with lock-free
//!    relaxed-atomic hot paths, plus the immutable [`HistogramSnapshot`].
//! 2. [`registry`] — the series vocabulary: [`Sample`], [`SampleValue`],
//!    [`MetricKind`] and the [`series_id`] text identity.
//! 3. [`snapshot`] — the typed [`Snapshot`] of a whole daemon:
//!    byte-compatible legacy JSON out ([`Snapshot::to_json`]), typed
//!    decoding back in ([`Snapshot::from_json`]), and the canonical
//!    flattened sample list ([`Snapshot::samples`]). Each scalar of a flat
//!    section is declared once — JSON key, Prometheus family, counter or
//!    gauge, help text, required or optional — and all three walk those
//!    declarations.
//! 4. [`prom`] — Prometheus text exposition for `GET /metrics/prom`,
//!    with an in-repo parser so the round trip is testable.
//! 5. [`history`] — the fixed-capacity time-series ring behind
//!    `GET /metrics/history` and the `metrics_history.jsonl` drain dump.
//! 6. [`aggregate`] — fleet-wide merging behind the router's
//!    `GET /cluster/metrics`.
//!
//! The crate depends only on the vendored `serde`/`serde_json` used
//! everywhere else in the workspace — no external dependencies.

pub mod aggregate;
pub mod history;
pub mod metric;
pub mod prom;
pub mod registry;
pub mod snapshot;

pub use aggregate::{fleet_document, ShardScrape};
pub use history::{History, HistorySample};
pub use metric::{bucket_upper_micros, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{series_id, MetricKind, Sample, SampleValue};
pub use snapshot::{
    ClusterSection, DedupSection, IncrementalSection, OracleCacheSection, PersistSection,
    RouterClusterSection, RouterShardRow, ShardClusterSection, Snapshot, TransportSection,
};
