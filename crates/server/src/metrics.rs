//! Server observability: the daemon's own counters and the typed
//! [`Snapshot`] built from them.
//!
//! [`ServerMetrics`] keeps four scalar cells (queue depth, inflight, shed,
//! deadline-exceeded) as lock-free telemetry [`Gauge`]s and [`Counter`]s,
//! one endpoint × status count map and one per-technique latency
//! [`Histogram`] map. [`ServerMetrics::snapshot`] builds the snapshot's
//! request and latency rows straight from those maps and adds every
//! subsystem's section. That one snapshot backs the `GET /metrics` JSON
//! document (byte-for-byte the historical format, pinned by the golden-file
//! test below), the Prometheus exposition at `GET /metrics/prom`, the
//! time-series ring at `GET /metrics/history` and fleet aggregation at the
//! router.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use mualloy_analyzer::{IncrementalStats, OracleCacheStats};
use serde::Value;
use specrepair_cache::PersistStats;
use specrepair_core::DedupStats;
use specrepair_llm::TransportStats;
use specrepair_telemetry::{ClusterSection, Counter, Gauge, Snapshot};

/// The log₂ latency histogram, promoted into the telemetry crate; the
/// historical `server::Histogram` name keeps working.
pub use specrepair_telemetry::HistogramSnapshot as Histogram;

const POISONED: &str = "a thread panicked while recording metrics";

/// The entry for `key`, allocating the owned key only on first use.
fn slot<'a, V: Default>(map: &'a mut BTreeMap<String, V>, key: &str) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("inserted above")
}

/// The server-wide metrics. All methods take `&self`; it is shared behind
/// the server state `Arc` across acceptor and workers.
#[derive(Debug)]
pub struct ServerMetrics {
    started: Instant,
    queue_depth: Gauge,
    inflight: Gauge,
    shed_total: Counter,
    deadline_exceeded_total: Counter,
    /// Endpoint → status → requests served.
    requests: Mutex<BTreeMap<String, BTreeMap<u16, u64>>>,
    /// Technique → repair latency.
    latency: Mutex<BTreeMap<String, Histogram>>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> ServerMetrics {
        ServerMetrics {
            started: Instant::now(),
            queue_depth: Gauge::new(),
            inflight: Gauge::new(),
            shed_total: Counter::new(),
            deadline_exceeded_total: Counter::new(),
            requests: Mutex::default(),
            latency: Mutex::default(),
        }
    }

    /// Counts one routed request with its response status.
    pub fn record_request(&self, endpoint: &str, status: u16) {
        let mut requests = self.requests.lock().expect(POISONED);
        *slot(&mut requests, endpoint).entry(status).or_insert(0) += 1;
    }

    /// Counts one connection shed at admission (queue full → `503`).
    pub fn record_shed(&self) {
        self.shed_total.inc();
        self.record_request("admission", 503);
    }

    /// Counts one repair that hit its deadline.
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded_total.inc();
    }

    /// Records one repair latency under the technique's label.
    pub fn record_latency(&self, technique: &str, micros: u64) {
        slot(&mut self.latency.lock().expect(POISONED), technique).record(micros);
    }

    /// Total count of requests served for one endpoint (all statuses).
    pub fn requests_for(&self, endpoint: &str) -> u64 {
        self.requests
            .lock()
            .expect(POISONED)
            .get(endpoint)
            .map_or(0, |statuses| statuses.values().sum())
    }

    /// Adjusts the admission-queue depth gauge.
    pub fn queue_depth_add(&self, delta: isize) {
        self.queue_depth.add(delta as i64);
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.get_unsigned() as usize
    }

    /// Marks one request entering/leaving a worker.
    pub fn inflight_add(&self, delta: isize) {
        self.inflight.add(delta as i64);
    }

    /// Number of requests currently executing in workers.
    pub fn inflight(&self) -> usize {
        self.inflight.get_unsigned() as usize
    }

    /// Assembles the typed snapshot of this daemon: its own counters,
    /// request rows and latencies plus every subsystem section.
    ///
    /// One parameter per stats source is deliberate: every call site must
    /// decide explicitly what each section shows.
    #[allow(clippy::too_many_arguments)]
    pub fn snapshot(
        &self,
        oracle: &OracleCacheStats,
        memoized_specs: usize,
        dedup: &DedupStats,
        incremental: &IncrementalStats,
        transport: &TransportStats,
        persist: Option<&PersistStats>,
        cluster: ClusterSection,
    ) -> Snapshot {
        // Both maps are sorted, so the rows come out grouped by endpoint
        // and sorted by status and technique.
        let requests = self
            .requests
            .lock()
            .expect(POISONED)
            .iter()
            .map(|(endpoint, statuses)| {
                let rows = statuses
                    .iter()
                    .map(|(status, count)| (status.to_string(), *count))
                    .collect();
                (endpoint.clone(), rows)
            })
            .collect();
        let latency = self
            .latency
            .lock()
            .expect(POISONED)
            .iter()
            .map(|(technique, h)| (technique.clone(), h.clone()))
            .collect();
        Snapshot {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            queue_depth: self.queue_depth.get_unsigned(),
            inflight: self.inflight.get_unsigned(),
            shed_total: self.shed_total.get(),
            deadline_exceeded_total: self.deadline_exceeded_total.get(),
            requests,
            latency,
            oracle_cache: oracle.section(memoized_specs),
            candidate_dedup: dedup.section(),
            incremental: incremental.section(),
            persistent: persist.map(|p| p.section()),
            cluster,
            transport: transport.section(),
        }
    }
}

/// Per-phase busy-time totals since boot, aggregated from every traced
/// repair request — the state behind `GET /trace/summary`. Empty (and the
/// document says so) unless the daemon runs with tracing on. Carried as
/// telemetry [`Counter`] cells: same lock-free discipline as the
/// daemon's scalar metrics.
#[derive(Debug, Default)]
pub struct TraceTotals {
    spans: Counter,
    requests: Counter,
    /// Exclusive nanoseconds per phase, in [`Phase::ALL`] order.
    phase_ns: [Counter; 4],
}

use specrepair_trace::{Phase, SpanRecord};

impl TraceTotals {
    /// A zeroed accumulator.
    pub fn new() -> TraceTotals {
        TraceTotals::default()
    }

    /// Folds one drained batch of spans (typically: everything one repair
    /// request produced) into the totals.
    pub fn absorb(&self, spans: &[SpanRecord]) {
        if spans.is_empty() {
            return;
        }
        self.spans.add(spans.len() as u64);
        self.requests.inc();
        for (i, ns) in specrepair_trace::phase_totals_ns(spans).iter().enumerate() {
            self.phase_ns[i].add(*ns);
        }
    }

    /// Spans absorbed since boot.
    pub fn spans(&self) -> u64 {
        self.spans.get()
    }

    /// Renders the `GET /trace/summary` JSON document: whether the
    /// collector is on, how many spans landed, and per-phase busy
    /// milliseconds plus percentage of the attributed total since boot.
    pub fn render(&self, enabled: bool) -> String {
        let phase_ns: Vec<u64> = self.phase_ns.iter().map(|c| c.get()).collect();
        let total_ns: u64 = phase_ns.iter().sum();
        let phases = Value::Map(
            Phase::ALL
                .iter()
                .zip(&phase_ns)
                .map(|(phase, &ns)| {
                    let pct = if total_ns == 0 {
                        0.0
                    } else {
                        100.0 * ns as f64 / total_ns as f64
                    };
                    (
                        phase.label().to_string(),
                        Value::Map(vec![
                            ("busy_ms".to_string(), Value::F64(ns as f64 / 1e6)),
                            ("pct".to_string(), Value::F64(pct)),
                        ]),
                    )
                })
                .collect(),
        );
        let doc = Value::Map(vec![
            ("tracing_enabled".to_string(), Value::Bool(enabled)),
            ("spans_total".to_string(), Value::U64(self.spans())),
            (
                "traced_requests_total".to_string(),
                Value::U64(self.requests.get()),
            ),
            (
                "attributed_ms_total".to_string(),
                Value::F64(total_ns as f64 / 1e6),
            ),
            ("phases".to_string(), phases),
        ]);
        serde_json::to_string_pretty(&doc).expect("trace summary always serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrepair_telemetry::ShardClusterSection;

    #[test]
    fn trace_totals_absorb_and_render() {
        use specrepair_trace::{AttrValue, Phase, SpanRecord};
        let parent = SpanRecord {
            id: 10,
            parent: 0,
            name: "cell",
            phase: Phase::Orchestration,
            cell: 1,
            ordinal: 0,
            start_ns: 0,
            dur_ns: 10_000_000,
            attrs: Vec::<(&'static str, AttrValue)>::new(),
        };
        let child = SpanRecord {
            id: 11,
            parent: 10,
            name: "sat.solve",
            phase: Phase::Sat,
            cell: 1,
            ordinal: 0,
            start_ns: 1_000_000,
            dur_ns: 4_000_000,
            attrs: Vec::new(),
        };
        let totals = TraceTotals::new();
        totals.absorb(&[]); // empty batches are not counted as requests
        totals.absorb(&[parent, child]);
        assert_eq!(totals.spans(), 2);
        let doc = totals.render(true);
        // Exclusive attribution: 6 ms orchestration + 4 ms SAT = 10 ms.
        for needle in [
            "\"tracing_enabled\": true",
            "\"spans_total\": 2",
            "\"traced_requests_total\": 1",
            "\"attributed_ms_total\": 10",
            "\"sat\"",
            "\"orchestration\"",
        ] {
            assert!(doc.contains(needle), "summary missing {needle}:\n{doc}");
        }
    }

    #[test]
    fn registry_counts_and_renders() {
        let m = ServerMetrics::new();
        m.record_request("repair", 200);
        m.record_request("repair", 200);
        m.record_request("repair", 400);
        m.record_shed();
        m.record_latency("ICEBAR", 1_500);
        m.queue_depth_add(2);
        m.queue_depth_add(-1);
        assert_eq!(m.requests_for("repair"), 3);
        assert_eq!(m.requests_for("admission"), 1);
        assert_eq!(m.queue_depth(), 1);
        let transport = TransportStats::new();
        transport.retries.add(3);
        transport
            .faults
            .record(specrepair_faults::FaultKind::Timeout);
        let dedup = DedupStats {
            hits: 4,
            misses: 12,
            coalesced: 1,
        };
        let incremental = IncrementalStats {
            sessions: 2,
            checks: 8,
            fallbacks: 1,
            activation_vars: 8,
            clauses_reused: 30,
            clauses_total: 40,
            learned_clauses_retained: 5,
        };
        let doc = m
            .snapshot(
                &OracleCacheStats::default(),
                0,
                &dedup,
                &incremental,
                &transport,
                None,
                ClusterSection::Off,
            )
            .to_json();
        for needle in [
            "\"repair\"",
            "\"200\": 2",
            "\"400\": 1",
            "\"shed_total\": 1",
            "\"ICEBAR\"",
            "\"queue_depth\": 1",
            "\"hit_rate\"",
            "\"evictions\"",
            "\"retries\": 3",
            "\"breaker_trips\": 0",
            "\"injected_faults\"",
            "\"timeout\": 1",
            "\"candidate_dedup\"",
            "\"dedup_hits\": 4",
            "\"dedup_rate\": 0.25",
            "\"incremental\"",
            "\"incremental_sessions\": 2",
            "\"incremental_checks\": 8",
            "\"clause_reuse_rate\": 0.75",
            "\"learned_clauses_retained\": 5",
            "\"persist_hits\": 0",
            "\"collapsed\": 0",
            "\"persistent\"",
            "\"enabled\": false",
            "\"cluster\"",
        ] {
            assert!(doc.contains(needle), "metrics missing {needle}:\n{doc}");
        }
    }

    #[test]
    fn persistent_section_renders_when_attached() {
        let m = ServerMetrics::new();
        let persist = PersistStats {
            preloaded: 7,
            live_entries: 9,
            hits: 3,
            lookups: 5,
            appends: 2,
            degraded: true,
            breaker_trips: 1,
            ..PersistStats::default()
        };
        let doc = m
            .snapshot(
                &OracleCacheStats::default(),
                0,
                &DedupStats::default(),
                &IncrementalStats::default(),
                &TransportStats::new(),
                Some(&persist),
                ClusterSection::Off,
            )
            .to_json();
        for needle in [
            "\"persistent\"",
            "\"enabled\": true",
            "\"degraded\": true",
            "\"preloaded\": 7",
            "\"live_entries\": 9",
        ] {
            assert!(doc.contains(needle), "metrics missing {needle}:\n{doc}");
        }
    }

    #[test]
    fn cluster_section_renders_when_provided() {
        let m = ServerMetrics::new();
        let cluster = ClusterSection::Shard(ShardClusterSection {
            remote_hits: 4,
            ..ShardClusterSection::default()
        });
        let doc = m
            .snapshot(
                &OracleCacheStats::default(),
                0,
                &DedupStats::default(),
                &IncrementalStats::default(),
                &TransportStats::new(),
                None,
                cluster,
            )
            .to_json();
        for needle in ["\"cluster\"", "\"role\": \"shard\"", "\"remote_hits\": 4"] {
            assert!(doc.contains(needle), "metrics missing {needle}:\n{doc}");
        }
    }

    /// The legacy `GET /metrics` document must stay byte-identical. The
    /// golden file was generated by the original hand-written renderer
    /// from exactly the inputs below; only the timing-dependent
    /// `uptime_ms` line is normalized.
    #[test]
    fn metrics_document_matches_pre_registry_golden() {
        let golden = include_str!("../testdata/metrics_golden.json");
        let m = ServerMetrics::new();
        m.record_request("repair", 200);
        m.record_request("repair", 200);
        m.record_request("repair", 400);
        m.record_shed();
        m.record_latency("ICEBAR", 1_500);
        m.record_latency("ATR", 800);
        m.queue_depth_add(2);
        m.queue_depth_add(-1);
        m.inflight_add(1);
        m.record_deadline_exceeded();
        let oracle = OracleCacheStats {
            hits: 12,
            misses: 4,
            solver_invocations: 5,
            errors: 1,
            evictions: 2,
            persist_hits: 3,
            collapsed: 1,
        };
        let dedup = DedupStats {
            hits: 4,
            misses: 12,
            coalesced: 1,
        };
        let incremental = IncrementalStats {
            sessions: 2,
            checks: 8,
            fallbacks: 1,
            activation_vars: 8,
            clauses_reused: 30,
            clauses_total: 40,
            learned_clauses_retained: 5,
        };
        let transport = TransportStats::new();
        transport.retries.add(3);
        transport.giveups.add(1);
        transport
            .faults
            .record(specrepair_faults::FaultKind::Timeout);
        transport
            .faults
            .record(specrepair_faults::FaultKind::RateLimit);
        transport
            .faults
            .record(specrepair_faults::FaultKind::RateLimit);
        let persist = PersistStats {
            preloaded: 7,
            quarantined: 1,
            live_entries: 9,
            disk_lines: 11,
            disk_good: 10,
            hits: 3,
            lookups: 5,
            appends: 2,
            append_errors: 1,
            skipped_degraded: 1,
            breaker_trips: 1,
            degraded: true,
            compactions: 1,
            compaction_failures: 0,
            injected_write_errors: 2,
            injected_short_writes: 0,
            injected_bit_flips: 1,
        };
        let cluster = ClusterSection::Shard(ShardClusterSection {
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
        });
        let doc = m
            .snapshot(
                &oracle,
                6,
                &dedup,
                &incremental,
                &transport,
                Some(&persist),
                cluster,
            )
            .to_json();
        let normalize = |text: &str| -> String {
            text.lines()
                .map(|line| {
                    if line.trim_start().starts_with("\"uptime_ms\":") {
                        "  \"uptime_ms\": 0,".to_string()
                    } else {
                        line.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            normalize(&doc),
            normalize(golden.trim_end()),
            "legacy /metrics document drifted from the golden file"
        );
    }
}
