//! The typed [`Snapshot`]: every section of the daemon's metrics document
//! as plain data, with two serializers and one decoder.
//!
//! - [`Snapshot::to_json`] renders the legacy `GET /metrics` JSON document
//!   **byte-for-byte** as it has always looked (section order, field
//!   order, pretty-printing) — pinned by a golden-file test in the server
//!   crate. Subsystems construct their own sections (the `section()`
//!   conversions on `OracleCacheStats`, `DedupStats`, `TransportStats`, …)
//!   so no field is hand-threaded through the server.
//! - [`Snapshot::samples`] flattens the same state into typed
//!   [`Sample`]s — the canonical series list behind the Prometheus
//!   exposition ([`crate::prom`]), the history ring ([`crate::history`])
//!   and fleet aggregation ([`crate::aggregate`]).
//! - [`Snapshot::from_json`] decodes a legacy document back into a
//!   `Snapshot`, with a description of the first expectation a malformed
//!   body violates. Latency histograms are *not* recovered (the legacy
//!   document carries only their summaries); decoded snapshots exist to
//!   reconcile counters.
//!
//! Every scalar of a flat section is declared once, in a `section!` field
//! line naming its JSON key, Prometheus family, counter or gauge, whether
//! `from_json` requires it, and its help text. The JSON document, the
//! sample list, the exposition's `# HELP` lookup and the decoder all walk
//! those declarations. Only the labeled series — requests, latencies,
//! router shard rows, injected LM faults and the role-labeled
//! `cluster_enabled` gauge — and the derived `persist_enabled` gauge are
//! written by hand, each with its help text in a `Family` constant.

use serde::Value;

use crate::metric::HistogramSnapshot;
use crate::registry::{MetricKind, Sample, SampleValue};

/// A declared field's value, as the JSON document and the sample list
/// carry it.
#[derive(Debug, Clone, Copy)]
enum Scalar {
    U64(u64),
    F64(f64),
    Bool(bool),
}

impl Scalar {
    fn to_value(self) -> Value {
        match self {
            Scalar::U64(n) => Value::U64(n),
            Scalar::F64(v) => Value::F64(v),
            Scalar::Bool(b) => Value::Bool(b),
        }
    }

    fn to_gauge(self) -> f64 {
        match self {
            Scalar::U64(n) => n as f64,
            Scalar::F64(v) => v,
            Scalar::Bool(b) => u64::from(b) as f64,
        }
    }
}

/// The Rust types a declared field may have.
trait FieldValue: Sized {
    fn scalar(&self) -> Scalar;

    /// Reads the field from a document: numbers default to 0 and flags to
    /// false unless `required`.
    fn decode(
        doc: &MetricsDoc,
        section: Option<&str>,
        key: &str,
        required: bool,
    ) -> Result<Self, String>;
}

impl FieldValue for u64 {
    fn scalar(&self) -> Scalar {
        Scalar::U64(*self)
    }

    fn decode(
        doc: &MetricsDoc,
        section: Option<&str>,
        key: &str,
        required: bool,
    ) -> Result<u64, String> {
        doc.number(section, key, required).map(|n| n as u64)
    }
}

impl FieldValue for f64 {
    fn scalar(&self) -> Scalar {
        Scalar::F64(*self)
    }

    fn decode(
        doc: &MetricsDoc,
        section: Option<&str>,
        key: &str,
        required: bool,
    ) -> Result<f64, String> {
        doc.number(section, key, required)
    }
}

impl FieldValue for bool {
    fn scalar(&self) -> Scalar {
        Scalar::Bool(*self)
    }

    fn decode(doc: &MetricsDoc, section: Option<&str>, key: &str, _: bool) -> Result<bool, String> {
        Ok(doc.flag(section, key))
    }
}

/// One declared scalar of a flat section `S`.
pub(crate) struct Field<S> {
    /// Key in the JSON document.
    key: &'static str,
    /// Prometheus family name.
    family: &'static str,
    /// Counter (a `u64`) or gauge.
    kind: MetricKind,
    /// The family's `# HELP` text.
    help: &'static str,
    get: fn(&S) -> Scalar,
    decode: fn(&mut S, &MetricsDoc, Option<&str>) -> Result<(), String>,
}

impl<S> Field<S> {
    fn sample(&self, section: &S) -> Sample {
        let value = match (self.kind, (self.get)(section)) {
            (MetricKind::Counter, Scalar::U64(n)) => SampleValue::Counter(n),
            (MetricKind::Gauge, v) => SampleValue::Gauge(v.to_gauge()),
            _ => unreachable!("`{}` is declared as a counter of a non-u64", self.family),
        };
        Sample {
            name: self.family.to_string(),
            labels: Vec::new(),
            value,
        }
    }
}

/// `required` / `optional` → whether [`Snapshot::from_json`] fails on a
/// missing field.
macro_rules! need {
    (required) => {
        true
    };
    (optional) => {
        false
    };
}

/// Declares a flat section: the struct and its [`Field`] table. Each field
/// line is that metric's only declaration,
///
/// ```text
/// field: type, Counter|Gauge, "json_key", "prometheus_family", required|optional,
///     "Help text, which is also the field's rustdoc.";
/// ```
///
/// in document order. An optional trailing `extra { .. }` block declares
/// the section's hand-written (labeled or nested) fields.
macro_rules! section {
    (
        $(#[$attr:meta])*
        pub struct $name:ident {
            $($field:ident: $ty:ty, $kind:ident, $key:literal, $family:literal, $need:ident,
                $help:literal;)*
        }
        $(extra {
            $($(#[$xattr:meta])* pub $xfield:ident: $xty:ty,)*
        })?
    ) => {
        $(#[$attr])*
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct $name {
            $(#[doc = $help] pub $field: $ty,)*
            $($($(#[$xattr])* pub $xfield: $xty,)*)?
        }

        impl $name {
            /// The declared scalar fields, in document order.
            pub(crate) const FIELDS: &'static [Field<$name>] = &[$(Field {
                key: $key,
                family: $family,
                kind: MetricKind::$kind,
                help: $help,
                get: |s| s.$field.scalar(),
                decode: |s, doc, section| {
                    s.$field = FieldValue::decode(doc, section, $key, need!($need))?;
                    Ok(())
                },
            },)*];
        }
    };
}

section! {
    /// The `oracle_cache` section: the shared memoizing oracle's counters.
    pub struct OracleCacheSection {
        hits: u64, Counter, "hits", "specrepair_oracle_hits_total", required,
            "Oracle queries answered from the memo table.";
        misses: u64, Counter, "misses", "specrepair_oracle_misses_total", required,
            "Oracle queries that had to solve.";
        solver_invocations: u64, Counter, "solver_invocations",
            "specrepair_oracle_solver_invocations_total", optional,
            "Analyzer invocations executed.";
        errors: u64, Counter, "errors", "specrepair_oracle_errors_total", optional,
            "Oracle queries that ended in an analyzer error.";
        evictions: u64, Counter, "evictions", "specrepair_oracle_evictions_total", optional,
            "Memoized entries evicted for capacity.";
        hit_rate: f64, Gauge, "hit_rate", "specrepair_oracle_hit_rate", required,
            "Fraction of oracle queries answered from cache.";
        memoized_specs: u64, Gauge, "memoized_specs", "specrepair_oracle_memoized_specs", optional,
            "Memoized spec entries currently held.";
        persist_hits: u64, Counter, "persist_hits", "specrepair_oracle_persist_hits_total",
            optional, "Verdicts answered by the persistent tier.";
        collapsed: u64, Counter, "collapsed", "specrepair_oracle_collapsed_total", optional,
            "Queries collapsed onto an in-flight solve.";
    }
}

section! {
    /// The `candidate_dedup` section: the cross-technique candidate registry.
    pub struct DedupSection {
        hits: u64, Counter, "dedup_hits", "specrepair_dedup_hits_total", required,
            "Candidate validations answered by the dedup registry.";
        misses: u64, Counter, "dedup_misses", "specrepair_dedup_misses_total", optional,
            "First-of-fingerprint candidate validations.";
        coalesced: u64, Counter, "dedup_coalesced", "specrepair_dedup_coalesced_total", optional,
            "Validations that waited on an in-flight solve.";
        rate: f64, Gauge, "dedup_rate", "specrepair_dedup_rate", required,
            "Fraction of validations answered by the dedup registry.";
    }
}

section! {
    /// The `incremental` section: the incremental oracle's counters.
    pub struct IncrementalSection {
        sessions: u64, Counter, "incremental_sessions", "specrepair_incremental_sessions_total",
            optional, "Incremental oracle sessions created.";
        checks: u64, Counter, "incremental_checks", "specrepair_incremental_checks_total",
            required, "Checks answered incrementally.";
        fallbacks: u64, Counter, "incremental_fallbacks",
            "specrepair_incremental_fallbacks_total", optional,
            "Checks the incremental engine declined.";
        activation_vars: u64, Counter, "activation_vars",
            "specrepair_incremental_activation_vars_total", optional,
            "Activation literals allocated.";
        clause_reuse_rate: f64, Gauge, "clause_reuse_rate",
            "specrepair_incremental_clause_reuse_rate", required,
            "Fraction of per-check clauses reused.";
        learned_clauses_retained: u64, Counter, "learned_clauses_retained",
            "specrepair_incremental_learned_clauses_retained_total", optional,
            "Learnt clauses carried between checks.";
    }
}

section! {
    /// The `persistent` section, present when the daemon runs a
    /// `--cache-dir` verdict tier.
    pub struct PersistSection {
        degraded: bool, Gauge, "degraded", "specrepair_persist_degraded", optional,
            "Whether the persistent tier is degraded.";
        preloaded: u64, Gauge, "preloaded", "specrepair_persist_preloaded", required,
            "Entries recovered from disk at open.";
        quarantined: u64, Gauge, "quarantined", "specrepair_persist_quarantined", optional,
            "Corrupt or torn records skipped at open.";
        live_entries: u64, Gauge, "live_entries", "specrepair_persist_live_entries", optional,
            "Entries held in the persistent tier's memory.";
        disk_lines: u64, Gauge, "disk_lines", "specrepair_persist_disk_lines", optional,
            "Lines currently in the live log file.";
        disk_good: u64, Gauge, "disk_good", "specrepair_persist_disk_good", optional,
            "Valid records currently in the live log file.";
        lookups: u64, Counter, "lookups", "specrepair_persist_lookups_total", optional,
            "Persistent-tier lookups.";
        hits: u64, Counter, "hits", "specrepair_persist_hits_total", optional,
            "Persistent-tier lookups that found a verdict.";
        appends: u64, Counter, "appends", "specrepair_persist_appends_total", optional,
            "Records durably appended.";
        append_errors: u64, Counter, "append_errors", "specrepair_persist_append_errors_total",
            optional, "Appends that failed.";
        skipped_degraded: u64, Counter, "skipped_degraded",
            "specrepair_persist_skipped_degraded_total", optional,
            "Records skipped while degraded.";
        breaker_trips: u64, Counter, "breaker_trips", "specrepair_persist_breaker_trips_total",
            optional, "Disk-breaker trips.";
        compactions: u64, Counter, "compactions", "specrepair_persist_compactions_total",
            optional, "Completed log compactions.";
        compaction_failures: u64, Counter, "compaction_failures",
            "specrepair_persist_compaction_failures_total", optional,
            "Failed compaction attempts.";
        injected_write_errors: u64, Counter, "injected_write_errors",
            "specrepair_persist_injected_write_errors_total", optional,
            "Injected write errors (chaos).";
        injected_short_writes: u64, Counter, "injected_short_writes",
            "specrepair_persist_injected_short_writes_total", optional,
            "Injected short writes (chaos).";
        injected_bit_flips: u64, Counter, "injected_bit_flips",
            "specrepair_persist_injected_bit_flips_total", optional,
            "Injected bit flips (chaos).";
    }
}

section! {
    /// The `transport` section: the LM resilience layer's counters.
    pub struct TransportSection {
        retries: u64, Counter, "retries", "specrepair_transport_retries_total", optional,
            "LM transport attempts retried.";
        giveups: u64, Counter, "giveups", "specrepair_transport_giveups_total", optional,
            "LM calls whose retry budget was exhausted.";
        breaker_trips: u64, Counter, "breaker_trips", "specrepair_transport_breaker_trips_total",
            optional, "LM circuit-breaker trips.";
        breaker_rejections: u64, Counter, "breaker_rejections",
            "specrepair_transport_breaker_rejections_total", optional,
            "LM calls rejected by an open breaker.";
        cancelled_backoffs: u64, Counter, "cancelled_backoffs",
            "specrepair_transport_cancelled_backoffs_total", optional,
            "LM backoff waits cut short by cancellation.";
    }
    extra {
        /// Injected-fault counts per kind label, in taxonomy order (the
        /// `total` field of the document is derived, not stored).
        pub injected_faults: Vec<(String, u64)>,
    }
}

impl TransportSection {
    /// Total injected faults across all kinds.
    pub fn total_faults(&self) -> u64 {
        self.injected_faults.iter().map(|(_, n)| n).sum()
    }
}

section! {
    /// The `cluster` section of a shard daemon.
    pub struct ShardClusterSection {
        shard_id: u64, Gauge, "shard_id", "specrepair_cluster_shard_id", optional,
            "This daemon's index into the peer list.";
        peers: u64, Gauge, "peers", "specrepair_cluster_peers", optional,
            "Cluster size.";
        remote_lookups: u64, Counter, "remote_lookups", "specrepair_remote_lookups_total",
            optional, "Remote verdict lookups attempted.";
        remote_hits: u64, Counter, "remote_hits", "specrepair_remote_hits_total", optional,
            "Remote lookups a peer answered with a verdict.";
        remote_misses: u64, Counter, "remote_misses", "specrepair_remote_misses_total", optional,
            "Remote lookups answered unknown.";
        remote_hit_rate: f64, Gauge, "remote_hit_rate", "specrepair_remote_hit_rate", optional,
            "Fraction of remote lookups that hit.";
        remote_puts: u64, Counter, "remote_puts", "specrepair_remote_puts_total", optional,
            "Write-through records sent to owning peers.";
        self_owned: u64, Counter, "self_owned", "specrepair_remote_self_owned_total", optional,
            "Calls skipped because this node owns the key.";
        transport_errors: u64, Counter, "transport_errors",
            "specrepair_remote_transport_errors_total", optional,
            "Remote calls that failed in transport.";
        retries: u64, Counter, "retries", "specrepair_remote_retries_total", optional,
            "Remote transport retries.";
        breaker_trips: u64, Counter, "breaker_trips", "specrepair_remote_breaker_trips_total",
            optional, "Peer-breaker trips.";
        skipped_open: u64, Counter, "skipped_open", "specrepair_remote_skipped_open_total",
            optional, "Remote calls skipped on an open breaker.";
        open_breakers: u64, Gauge, "open_breakers", "specrepair_remote_open_breakers", optional,
            "Peer breakers currently open.";
    }
}

/// One shard row of the router's `cluster.shards` map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouterShardRow {
    /// The shard's address (the map key).
    pub addr: String,
    /// Calls forwarded successfully.
    pub forwarded: u64,
    /// Forward retries taken.
    pub retries: u64,
    /// Forward calls that failed after the retry.
    pub failures: u64,
    /// Whether the shard's breaker is currently open.
    pub breaker_open: bool,
}

section! {
    /// The `cluster` section of a router.
    pub struct RouterClusterSection {
        degraded_local_solves: u64, Counter, "degraded_local_solves",
            "specrepair_router_degraded_local_solves_total", optional,
            "Requests the router solved itself because the owner was down.";
        breaker_trips: u64, Counter, "breaker_trips", "specrepair_router_breaker_trips_total",
            optional, "Shard-breaker trips at the router.";
        skipped_open: u64, Counter, "skipped_open", "specrepair_router_skipped_open_total",
            optional, "Forwards skipped on an open shard breaker.";
    }
    extra {
        /// Per-shard forwarding counters, in ring order.
        pub shards: Vec<RouterShardRow>,
    }
}

/// The `cluster` section: off, a shard's view, or a router's view.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ClusterSection {
    /// Not running in cluster mode (`{"enabled": false}`).
    #[default]
    Off,
    /// A shard daemon's remote-tier counters.
    Shard(ShardClusterSection),
    /// A router's per-shard forwarding counters.
    Router(RouterClusterSection),
}

section! {
    /// The complete typed metrics snapshot of one daemon or router.
    pub struct Snapshot {
        uptime_ms: u64, Gauge, "uptime_ms", "specrepair_uptime_ms", optional,
            "Milliseconds since the daemon booted.";
        queue_depth: u64, Gauge, "queue_depth", "specrepair_queue_depth", optional,
            "Requests waiting in the admission queue.";
        inflight: u64, Gauge, "inflight", "specrepair_inflight", optional,
            "Requests currently executing in workers.";
        shed_total: u64, Counter, "shed_total", "specrepair_shed_total", optional,
            "Connections shed at admission.";
        deadline_exceeded_total: u64, Counter, "deadline_exceeded_total",
            "specrepair_deadline_exceeded_total", optional,
            "Repairs that exceeded their deadline.";
    }
    extra {
        /// Request counts: endpoint → `(status, count)` rows, both sorted.
        pub requests: Vec<(String, Vec<(String, u64)>)>,
        /// Per-technique repair latency histograms, sorted by label.
        pub latency: Vec<(String, HistogramSnapshot)>,
        /// The shared oracle's cache counters.
        pub oracle_cache: OracleCacheSection,
        /// The candidate-dedup registry's counters.
        pub candidate_dedup: DedupSection,
        /// The incremental oracle's counters.
        pub incremental: IncrementalSection,
        /// The persistent verdict tier's counters (`None` renders
        /// `{"enabled": false}`).
        pub persistent: Option<PersistSection>,
        /// The cluster section.
        pub cluster: ClusterSection,
        /// The LM resilience layer's counters.
        pub transport: TransportSection,
    }
}

/// A hand-written labeled family: its name and `# HELP` text.
struct Family {
    name: &'static str,
    help: &'static str,
}

impl Family {
    fn sample(&self, labels: &[(&str, &str)], value: SampleValue) -> Sample {
        Sample {
            name: self.name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        }
    }
}

const REQUESTS: Family = Family {
    name: "specrepair_requests_total",
    help: "Requests served, by endpoint and status.",
};
const LATENCY: Family = Family {
    name: "specrepair_repair_latency_us",
    help: "Repair latency in microseconds, by technique.",
};
const LATENCY_MAX: Family = Family {
    name: "specrepair_repair_latency_us_max",
    help: "Maximum observed repair latency in microseconds, by technique.",
};
const PERSIST_ENABLED: Family = Family {
    name: "specrepair_persist_enabled",
    help: "Whether a persistent verdict tier is configured.",
};
const CLUSTER_ENABLED: Family = Family {
    name: "specrepair_cluster_enabled",
    help: "Whether cluster mode is enabled, labeled by role.",
};
const ROUTER_FORWARDED: Family = Family {
    name: "specrepair_router_forwarded_total",
    help: "Requests forwarded, by shard.",
};
const ROUTER_RETRIES: Family = Family {
    name: "specrepair_router_retries_total",
    help: "Forward retries, by shard.",
};
const ROUTER_FAILURES: Family = Family {
    name: "specrepair_router_failures_total",
    help: "Forwards that failed after retry, by shard.",
};
const ROUTER_BREAKER_OPEN: Family = Family {
    name: "specrepair_router_breaker_open",
    help: "Whether the shard's breaker is open, by shard.",
};
const INJECTED_FAULTS: Family = Family {
    name: "specrepair_transport_injected_faults_total",
    help: "Injected LM faults, by kind.",
};

/// Every hand-written family, for the `# HELP` lookup.
const LABELED: [Family; 10] = [
    REQUESTS,
    LATENCY,
    LATENCY_MAX,
    PERSIST_ENABLED,
    CLUSTER_ENABLED,
    ROUTER_FORWARDED,
    ROUTER_RETRIES,
    ROUTER_FAILURES,
    ROUTER_BREAKER_OPEN,
    INJECTED_FAULTS,
];

/// The help text of a family [`Snapshot::samples`] emits; empty for an
/// unknown name.
pub(crate) fn help_text(family: &str) -> &'static str {
    fn find<S>(fields: &[Field<S>], family: &str) -> Option<&'static str> {
        fields.iter().find(|f| f.family == family).map(|f| f.help)
    }
    find(Snapshot::FIELDS, family)
        .or_else(|| find(OracleCacheSection::FIELDS, family))
        .or_else(|| find(DedupSection::FIELDS, family))
        .or_else(|| find(IncrementalSection::FIELDS, family))
        .or_else(|| find(PersistSection::FIELDS, family))
        .or_else(|| find(ShardClusterSection::FIELDS, family))
        .or_else(|| find(RouterClusterSection::FIELDS, family))
        .or_else(|| find(TransportSection::FIELDS, family))
        .or_else(|| LABELED.iter().find(|f| f.name == family).map(|f| f.help))
        .unwrap_or("")
}

fn entry(key: &str, value: Value) -> (String, Value) {
    (key.to_string(), value)
}

/// A section's declared fields as JSON entries, after its `head` entries.
fn entries<S>(
    mut head: Vec<(String, Value)>,
    section: &S,
    fields: &[Field<S>],
) -> Vec<(String, Value)> {
    head.extend(
        fields
            .iter()
            .map(|f| entry(f.key, (f.get)(section).to_value())),
    );
    head
}

fn push_fields<S>(out: &mut Vec<Sample>, section: &S, fields: &[Field<S>]) {
    out.extend(fields.iter().map(|f| f.sample(section)));
}

impl Snapshot {
    /// Renders the legacy `GET /metrics` JSON document, byte-for-byte the
    /// historical format (golden-file pinned).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("metrics document always serializes")
    }

    /// The document as a JSON value tree.
    pub fn to_value(&self) -> Value {
        let enabled = |on: bool| entry("enabled", Value::Bool(on));
        let role = |name: &str| entry("role", Value::Str(name.to_string()));
        let requests = Value::Map(
            self.requests
                .iter()
                .map(|(endpoint, statuses)| {
                    let counts = statuses
                        .iter()
                        .map(|(status, count)| entry(status, Value::U64(*count)))
                        .collect();
                    entry(endpoint, Value::Map(counts))
                })
                .collect(),
        );
        let latency = Value::Map(
            self.latency
                .iter()
                .map(|(technique, h)| entry(technique, h.to_value()))
                .collect(),
        );
        let persistent = match &self.persistent {
            None => vec![enabled(false)],
            Some(p) => entries(vec![enabled(true)], p, PersistSection::FIELDS),
        };
        let cluster = match &self.cluster {
            ClusterSection::Off => vec![enabled(false)],
            ClusterSection::Shard(s) => entries(
                vec![enabled(true), role("shard")],
                s,
                ShardClusterSection::FIELDS,
            ),
            ClusterSection::Router(r) => {
                let shards = r
                    .shards
                    .iter()
                    .map(|row| {
                        let counters = vec![
                            entry("forwarded", Value::U64(row.forwarded)),
                            entry("retries", Value::U64(row.retries)),
                            entry("failures", Value::U64(row.failures)),
                            entry("breaker_open", Value::Bool(row.breaker_open)),
                        ];
                        entry(&row.addr, Value::Map(counters))
                    })
                    .collect();
                let head = vec![
                    enabled(true),
                    role("router"),
                    entry("shards", Value::Map(shards)),
                ];
                entries(head, r, RouterClusterSection::FIELDS)
            }
        };
        let t = &self.transport;
        let mut injected: Vec<(String, Value)> = t
            .injected_faults
            .iter()
            .map(|(kind, n)| entry(kind, Value::U64(*n)))
            .collect();
        injected.push(entry("total", Value::U64(t.total_faults())));
        let mut transport = entries(Vec::new(), t, TransportSection::FIELDS);
        transport.push(entry("injected_faults", Value::Map(injected)));
        let oracle = entries(Vec::new(), &self.oracle_cache, OracleCacheSection::FIELDS);
        let dedup = entries(Vec::new(), &self.candidate_dedup, DedupSection::FIELDS);
        let incremental = entries(Vec::new(), &self.incremental, IncrementalSection::FIELDS);
        let mut doc = entries(Vec::new(), self, Snapshot::FIELDS);
        doc.extend([
            entry("requests", requests),
            entry("latency_ms", latency),
            entry("oracle_cache", Value::Map(oracle)),
            entry("candidate_dedup", Value::Map(dedup)),
            entry("incremental", Value::Map(incremental)),
            entry("persistent", Value::Map(persistent)),
            entry("cluster", Value::Map(cluster)),
            entry("transport", Value::Map(transport)),
        ]);
        Value::Map(doc)
    }

    /// Flattens the snapshot into the canonical series list: every scalar
    /// as a counter or gauge sample, every latency histogram as a
    /// histogram sample plus a companion `_max` gauge. This is the single
    /// source behind the Prometheus exposition, the history ring and fleet
    /// aggregation — one list, three consumers, no drift.
    pub fn samples(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        push_fields(&mut out, self, Snapshot::FIELDS);
        for (endpoint, statuses) in &self.requests {
            for (status, count) in statuses {
                let labels = [("endpoint", endpoint.as_str()), ("status", status.as_str())];
                out.push(REQUESTS.sample(&labels, SampleValue::Counter(*count)));
            }
        }
        for (technique, h) in &self.latency {
            let labels = [("technique", technique.as_str())];
            out.push(LATENCY.sample(&labels, SampleValue::Histogram(h.clone())));
            let max = SampleValue::Gauge(h.max_micros() as f64);
            out.push(LATENCY_MAX.sample(&labels, max));
        }
        push_fields(&mut out, &self.oracle_cache, OracleCacheSection::FIELDS);
        push_fields(&mut out, &self.candidate_dedup, DedupSection::FIELDS);
        push_fields(&mut out, &self.incremental, IncrementalSection::FIELDS);
        let persist_enabled = u64::from(self.persistent.is_some()) as f64;
        out.push(PERSIST_ENABLED.sample(&[], SampleValue::Gauge(persist_enabled)));
        if let Some(p) = &self.persistent {
            push_fields(&mut out, p, PersistSection::FIELDS);
        }
        match &self.cluster {
            ClusterSection::Off => out.push(CLUSTER_ENABLED.sample(&[], SampleValue::Gauge(0.0))),
            ClusterSection::Shard(s) => {
                out.push(CLUSTER_ENABLED.sample(&[("role", "shard")], SampleValue::Gauge(1.0)));
                push_fields(&mut out, s, ShardClusterSection::FIELDS);
            }
            ClusterSection::Router(r) => {
                out.push(CLUSTER_ENABLED.sample(&[("role", "router")], SampleValue::Gauge(1.0)));
                for row in &r.shards {
                    let labels = [("shard", row.addr.as_str())];
                    let open = u64::from(row.breaker_open) as f64;
                    out.extend([
                        ROUTER_FORWARDED.sample(&labels, SampleValue::Counter(row.forwarded)),
                        ROUTER_RETRIES.sample(&labels, SampleValue::Counter(row.retries)),
                        ROUTER_FAILURES.sample(&labels, SampleValue::Counter(row.failures)),
                        ROUTER_BREAKER_OPEN.sample(&labels, SampleValue::Gauge(open)),
                    ]);
                }
                push_fields(&mut out, r, RouterClusterSection::FIELDS);
            }
        }
        push_fields(&mut out, &self.transport, TransportSection::FIELDS);
        for (kind, count) in &self.transport.injected_faults {
            let labels = [("kind", kind.as_str())];
            out.push(INJECTED_FAULTS.sample(&labels, SampleValue::Counter(*count)));
        }
        out
    }

    /// Every scalar series as `(series id, value)` — counters and gauges
    /// directly, histograms as their `_count` and `_sum` series. The
    /// history ring records exactly this list each tick.
    pub fn scalars(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for sample in self.samples() {
            let id = sample.id();
            match &sample.value {
                SampleValue::Counter(n) => out.push((id, *n as f64)),
                SampleValue::Gauge(v) => out.push((id, *v)),
                SampleValue::Histogram(h) => {
                    out.push((
                        crate::registry::series_id(
                            &format!("{}_count", sample.name),
                            &sample.labels,
                        ),
                        h.count() as f64,
                    ));
                    out.push((
                        crate::registry::series_id(&format!("{}_sum", sample.name), &sample.labels),
                        h.sum_micros() as f64,
                    ));
                }
            }
        }
        out
    }

    /// Decodes a legacy `/metrics` JSON document.
    ///
    /// Scalars, the oracle/dedup/incremental sections and the cluster
    /// role are recovered; latency histograms are not (the document only
    /// carries their summaries) and decode to an empty list. The
    /// `persistent` field is `None` when the tier renders disabled.
    ///
    /// # Errors
    ///
    /// A human-readable description of exactly which expectation the body
    /// violates: not JSON, not an object, a missing section, a missing
    /// field, or a mistyped value.
    pub fn from_json(body: &str) -> Result<Snapshot, String> {
        let doc = MetricsDoc::parse(body)?;
        let mut snapshot: Snapshot = doc.decode(None, Snapshot::FIELDS)?;
        snapshot.oracle_cache = doc.decode(Some("oracle_cache"), OracleCacheSection::FIELDS)?;
        snapshot.candidate_dedup = doc.decode(Some("candidate_dedup"), DedupSection::FIELDS)?;
        snapshot.incremental = doc.decode(Some("incremental"), IncrementalSection::FIELDS)?;
        // `persistent` renders `{"enabled": false}` when the tier is off:
        // a missing `preloaded` field is the signal, not an error.
        let persistent = Some("persistent");
        if doc.flag(persistent, "enabled") {
            snapshot.persistent = Some(doc.decode(persistent, PersistSection::FIELDS)?);
        }
        let cluster = Some("cluster");
        snapshot.cluster = if !doc.flag(cluster, "enabled") {
            ClusterSection::Off
        } else if doc.string(cluster, "role") == Some("shard") {
            ClusterSection::Shard(doc.decode(cluster, ShardClusterSection::FIELDS)?)
        } else {
            ClusterSection::Router(doc.decode(cluster, RouterClusterSection::FIELDS)?)
        };
        snapshot.transport = doc.decode(Some("transport"), TransportSection::FIELDS)?;
        Ok(snapshot)
    }
}

fn lookup<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A parsed `/metrics` JSON document with described-field access: a
/// `None` section means the document's top level.
struct MetricsDoc {
    root: Vec<(String, Value)>,
}

impl MetricsDoc {
    fn parse(body: &str) -> Result<MetricsDoc, String> {
        let value: Value = serde_json::from_str(body)
            .map_err(|e| format!("/metrics body is not valid JSON: {e}"))?;
        let Value::Map(root) = value else {
            return Err("/metrics body is not a JSON object".to_string());
        };
        Ok(MetricsDoc { root })
    }

    /// Decodes one declared section, field by field in document order.
    fn decode<S: Default>(&self, section: Option<&str>, fields: &[Field<S>]) -> Result<S, String> {
        let mut out = S::default();
        for field in fields {
            (field.decode)(&mut out, self, section)?;
        }
        Ok(out)
    }

    /// `{section}.{key}`, describing the missing section or field.
    fn value(&self, section: Option<&str>, key: &str) -> Result<&Value, String> {
        let map = match section {
            None => &self.root,
            Some(name) => match lookup(&self.root, name) {
                None => return Err(format!("/metrics document has no `{name}` section")),
                Some(Value::Map(map)) => map,
                Some(_) => return Err(format!("/metrics `{name}` is not an object")),
            },
        };
        let name = section.unwrap_or("document");
        lookup(map, key).ok_or_else(|| format!("/metrics `{name}` has no `{key}` field"))
    }

    /// `{section}.{key}` as a number. Unless `required`, an absent section
    /// or field (older daemons) or a mistyped value reads as 0.
    fn number(&self, section: Option<&str>, key: &str, required: bool) -> Result<f64, String> {
        let number = self.value(section, key).and_then(|value| match value {
            Value::F64(n) => Ok(*n),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            other => {
                let name = section.unwrap_or("document");
                Err(format!("`{name}.{key}` is not a number: {other:?}"))
            }
        });
        if required {
            number
        } else {
            Ok(number.unwrap_or(0.0))
        }
    }

    /// `{section}.{key}` as a boolean (false when absent or mistyped).
    fn flag(&self, section: Option<&str>, key: &str) -> bool {
        matches!(self.value(section, key), Ok(Value::Bool(true)))
    }

    /// `{section}.{key}` as a string, `None` when absent or mistyped.
    fn string(&self, section: Option<&str>, key: &str) -> Option<&str> {
        match self.value(section, key) {
            Ok(Value::Str(s)) => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A richly populated snapshot exercising every section.
    pub(crate) fn rich_snapshot() -> Snapshot {
        let mut icebar = HistogramSnapshot::default();
        icebar.record(1_500);
        let mut atr = HistogramSnapshot::default();
        atr.record(800);
        atr.record(2_100);
        Snapshot {
            uptime_ms: 12_345,
            queue_depth: 1,
            inflight: 1,
            shed_total: 1,
            deadline_exceeded_total: 1,
            requests: vec![
                ("admission".to_string(), vec![("503".to_string(), 1)]),
                (
                    "repair".to_string(),
                    vec![("200".to_string(), 2), ("400".to_string(), 1)],
                ),
            ],
            latency: vec![("ATR".to_string(), atr), ("ICEBAR".to_string(), icebar)],
            oracle_cache: OracleCacheSection {
                hits: 12,
                misses: 4,
                solver_invocations: 5,
                errors: 1,
                evictions: 2,
                hit_rate: 0.75,
                memoized_specs: 6,
                persist_hits: 3,
                collapsed: 1,
            },
            candidate_dedup: DedupSection {
                hits: 4,
                misses: 12,
                coalesced: 1,
                rate: 0.25,
            },
            incremental: IncrementalSection {
                sessions: 2,
                checks: 8,
                fallbacks: 1,
                activation_vars: 8,
                clause_reuse_rate: 0.75,
                learned_clauses_retained: 5,
            },
            persistent: Some(PersistSection {
                degraded: true,
                preloaded: 7,
                quarantined: 1,
                live_entries: 9,
                disk_lines: 11,
                disk_good: 10,
                lookups: 5,
                hits: 3,
                appends: 2,
                append_errors: 1,
                skipped_degraded: 1,
                breaker_trips: 1,
                compactions: 1,
                compaction_failures: 0,
                injected_write_errors: 2,
                injected_short_writes: 0,
                injected_bit_flips: 1,
            }),
            cluster: ClusterSection::Shard(ShardClusterSection {
                shard_id: 1,
                peers: 3,
                remote_lookups: 10,
                remote_hits: 4,
                remote_misses: 6,
                remote_hit_rate: 0.4,
                remote_puts: 5,
                self_owned: 2,
                transport_errors: 1,
                retries: 1,
                breaker_trips: 0,
                skipped_open: 0,
                open_breakers: 0,
            }),
            transport: TransportSection {
                retries: 3,
                giveups: 1,
                breaker_trips: 0,
                breaker_rejections: 0,
                cancelled_backoffs: 0,
                injected_faults: vec![
                    ("timeout".to_string(), 1),
                    ("rate_limit".to_string(), 2),
                    ("transient".to_string(), 0),
                    ("truncated".to_string(), 0),
                ],
            },
        }
    }

    /// A router-role snapshot: per-shard forwarding rows (one breaker
    /// open), no persistent tier, a little request and latency traffic.
    pub(crate) fn router_snapshot() -> Snapshot {
        let mut portfolio = HistogramSnapshot::default();
        portfolio.record(40_000);
        Snapshot {
            uptime_ms: 900,
            queue_depth: 0,
            inflight: 2,
            shed_total: 0,
            deadline_exceeded_total: 0,
            requests: vec![(
                "repair".to_string(),
                vec![("200".to_string(), 5), ("504".to_string(), 1)],
            )],
            latency: vec![("Portfolio_All".to_string(), portfolio)],
            cluster: ClusterSection::Router(RouterClusterSection {
                shards: vec![
                    RouterShardRow {
                        addr: "127.0.0.1:7971".to_string(),
                        forwarded: 9,
                        retries: 1,
                        failures: 0,
                        breaker_open: false,
                    },
                    RouterShardRow {
                        addr: "127.0.0.1:7972".to_string(),
                        forwarded: 3,
                        retries: 2,
                        failures: 2,
                        breaker_open: true,
                    },
                ],
                degraded_local_solves: 2,
                breaker_trips: 1,
                skipped_open: 4,
            }),
            transport: TransportSection {
                injected_faults: vec![("timeout".to_string(), 0), ("truncated".to_string(), 3)],
                ..TransportSection::default()
            },
            ..Snapshot::default()
        }
    }

    #[test]
    fn json_round_trip_recovers_every_decoded_field() {
        let snapshot = rich_snapshot();
        let decoded = Snapshot::from_json(&snapshot.to_json()).expect("own document decodes");
        assert_eq!(decoded.uptime_ms, 12_345);
        assert_eq!(decoded.queue_depth, 1);
        assert_eq!(decoded.shed_total, 1);
        assert_eq!(decoded.oracle_cache, snapshot.oracle_cache);
        assert_eq!(decoded.candidate_dedup, snapshot.candidate_dedup);
        assert_eq!(decoded.incremental, snapshot.incremental);
        assert_eq!(decoded.persistent, snapshot.persistent);
        assert_eq!(decoded.cluster, snapshot.cluster);
        assert_eq!(decoded.transport.retries, 3);
        // Histogram detail is summary-only in the legacy document.
        assert!(decoded.latency.is_empty());
    }

    #[test]
    fn default_snapshot_renders_disabled_sections() {
        let doc = Snapshot::default().to_json();
        for needle in [
            "\"persistent\"",
            "\"enabled\": false",
            "\"cluster\"",
            "\"uptime_ms\": 0",
            "\"total\": 0",
        ] {
            assert!(doc.contains(needle), "missing {needle}:\n{doc}");
        }
    }

    #[test]
    fn router_cluster_section_renders_shard_rows() {
        let doc = router_snapshot().to_json();
        for needle in [
            "\"role\": \"router\"",
            "\"127.0.0.1:7971\"",
            "\"forwarded\": 9",
            "\"degraded_local_solves\": 2",
        ] {
            assert!(doc.contains(needle), "missing {needle}:\n{doc}");
        }
        let decoded = Snapshot::from_json(&doc).expect("router document decodes");
        assert!(matches!(decoded.cluster, ClusterSection::Router(ref r)
            if r.degraded_local_solves == 2 && r.breaker_trips == 1));
    }

    #[test]
    fn from_json_describes_each_malformation() {
        let cases: [(&str, &str); 5] = [
            ("not json at all", "not valid JSON"),
            ("[1,2,3]", "not a JSON object"),
            (r#"{"queue":{}}"#, "no `oracle_cache` section"),
            (
                r#"{"oracle_cache":{"hits":3,"misses":1}}"#,
                "no `hit_rate` field",
            ),
            (
                r#"{"oracle_cache":{"hits":1,"misses":1,"hit_rate":"high"}}"#,
                "not a number",
            ),
        ];
        for (body, expected) in cases {
            let err = Snapshot::from_json(body).unwrap_err();
            assert!(err.contains(expected), "{body} => {err}");
        }
    }

    #[test]
    fn from_json_requires_the_dedup_and_incremental_sections() {
        let base = r#"{"oracle_cache":{"hits":1,"misses":1,"hit_rate":0.5}}"#;
        let err = Snapshot::from_json(base).unwrap_err();
        assert!(err.contains("no `candidate_dedup` section"), "{err}");
        let with_dedup = r#"{"oracle_cache":{"hits":1,"misses":1,"hit_rate":0.5},
            "candidate_dedup":{"dedup_hits":7,"dedup_rate":0.25}}"#;
        let err = Snapshot::from_json(with_dedup).unwrap_err();
        assert!(err.contains("no `incremental` section"), "{err}");
    }

    #[test]
    fn from_json_treats_disabled_persistence_as_none() {
        let body = r#"{"oracle_cache":{"hits":1,"misses":1,"hit_rate":0.5},
            "candidate_dedup":{"dedup_hits":0,"dedup_rate":0},
            "incremental":{"incremental_checks":0,"clause_reuse_rate":0},
            "persistent":{"enabled":false}}"#;
        let snapshot = Snapshot::from_json(body).expect("decodes");
        assert_eq!(snapshot.persistent, None);
        assert_eq!(snapshot.cluster, ClusterSection::Off);
        // An enabled tier needs only its required counter; every other
        // field defaults.
        let off = r#""persistent":{"enabled":false}"#;
        let preloaded_only = body.replace(off, r#""persistent":{"enabled":true,"preloaded":17}"#);
        let snapshot = Snapshot::from_json(&preloaded_only).expect("decodes");
        let want = PersistSection {
            preloaded: 17,
            ..PersistSection::default()
        };
        assert_eq!(snapshot.persistent, Some(want));
        // So does a shard cluster section carrying only the remote-tier
        // counters a per-shard report reads.
        let cluster =
            r#""cluster":{"enabled":true,"role":"shard","remote_hits":2,"remote_puts":3}"#;
        let shard = body.replace(off, &format!("{off},{cluster}"));
        let snapshot = Snapshot::from_json(&shard).expect("decodes");
        let want = ShardClusterSection {
            remote_hits: 2,
            remote_puts: 3,
            ..ShardClusterSection::default()
        };
        assert_eq!(snapshot.cluster, ClusterSection::Shard(want));
        // An enabled tier without its counters is a described error.
        let broken = body.replace("\"enabled\":false", "\"enabled\":true");
        let err = Snapshot::from_json(&broken).unwrap_err();
        assert!(err.contains("no `preloaded` field"), "{err}");
    }

    #[test]
    fn scalars_cover_histograms_as_count_and_sum() {
        let scalars = rich_snapshot().scalars();
        let find = |id: &str| {
            scalars
                .iter()
                .find(|(k, _)| k == id)
                .unwrap_or_else(|| panic!("no scalar {id}"))
                .1
        };
        assert_eq!(
            find("specrepair_repair_latency_us_count{technique=\"ATR\"}"),
            2.0
        );
        assert_eq!(
            find("specrepair_repair_latency_us_sum{technique=\"ATR\"}"),
            2_900.0
        );
        assert_eq!(
            find("specrepair_requests_total{endpoint=\"repair\",status=\"200\"}"),
            2.0
        );
        assert_eq!(find("specrepair_oracle_hit_rate"), 0.75);
        // No raw histogram entries leak into the scalar list.
        assert!(scalars
            .iter()
            .all(|(k, _)| !k.starts_with("specrepair_repair_latency_us{")));
    }
}
