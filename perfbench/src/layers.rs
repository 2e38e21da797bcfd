//! The per-layer metrics of a traced run, in one fixed list that every
//! workload prints. A layer a workload does not exercise reads 0 there
//! (no portfolio races in `study_batch`, no cluster in `serve_zipf`).
//! Each metric carries its base: the counts a ratio or mean was taken
//! over, or the source it was read from.

use specrepair_study::TechniqueId;
use specrepair_trace::Phase;

use crate::spans::ProgramSpans;
use crate::util::{median, percentile, sanitize, Metrics};

/// Layer readings gathered by a workload besides the program's spans.
#[derive(Debug, Default)]
pub struct Layers {
    /// Where the oracle and dedup counters were read from.
    pub counter_source: &'static str,
    /// Execution slots the measured cells ran on (workers × wall time).
    pub slot_ns: f64,
    /// Summed `cell` span time within those slots.
    pub busy_cell_ns: f64,
    pub corpus_gen_s: f64,
    pub oracle_hits: u64,
    pub oracle_misses: u64,
    pub oracle_collapsed: u64,
    pub incr_checks: u64,
    pub incr_fallbacks: u64,
    /// Clause reuse as `reused / total` (or rate × checks / checks when
    /// only the daemon's rate is available).
    pub clause_reuse: (f64, f64),
    pub learnt_retained: u64,
    pub dedup_hits: u64,
    pub dedup_misses: u64,
    /// Per-call times of the benchmark's own calls into single layers.
    pub score_us: Vec<f64>,
    pub parse_us: Vec<f64>,
    pub fingerprint_us: Vec<f64>,
    pub portfolio_cancelled: u64,
    /// `duration_ms` of every successful response.
    pub service_ms: Vec<f64>,
    /// Client-side latency minus `duration_ms` (HTTP, queueing, relay).
    pub overhead_ms: Vec<f64>,
    pub shed: u64,
    pub timeouts: u64,
    /// Router hop: latency via the router minus latency straight to the
    /// owning shard, over paired replays.
    pub relay_ms: Vec<f64>,
    pub remote_puts: u64,
    pub remote_hits: u64,
    pub degraded_solves: u64,
    pub persist_appends: u64,
    pub log_bytes: u64,
    /// Traced wall time per operation over untraced, same work.
    pub overhead_ratio: f64,
    /// How late the open-loop generator sent requests, in ms.
    pub gen_late_ms: Vec<f64>,
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn med0(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Emits every per-layer metric, in the order `BENCHMARK.json` lists them.
pub fn emit(l: &Layers, spans: &ProgramSpans) -> Metrics {
    let mut m = Metrics::default();
    let src = l.counter_source;

    // study: the runner's (or service's) `cell` spans.
    m.ratio(
        "study.worker_idle_ratio",
        (l.slot_ns - l.busy_cell_ns).max(0.0),
        l.slot_ns,
        "idle ns / (workers × wall ns)",
    );
    let mut cell_ms: Vec<f64> = spans.cells.iter().map(|(_, ns)| *ns as f64 / 1e6).collect();
    cell_ms.sort_by(f64::total_cmp);
    let cells = cell_ms.len();
    m.put_with_base(
        "study.cell_p50_ms",
        percentile(&cell_ms, 0.5).unwrap_or(0.0),
        "ms",
        format!("{cells} cell spans"),
    );
    m.put_with_base(
        "study.cell_p90_ms",
        percentile(&cell_ms, 0.9).unwrap_or(0.0),
        "ms",
        format!("{cells} cell spans (0 when fewer than 10 lie beyond p90)"),
    );
    for id in TechniqueId::all() {
        let own: Vec<f64> = spans
            .cells
            .iter()
            .filter(|(t, _)| t == id.label())
            .map(|(_, ns)| *ns as f64 / 1e6)
            .collect();
        m.put_with_base(
            format!("study.cell_ms.{}", sanitize(id.label())),
            med0(&own),
            "ms",
            format!("median of {} cells", own.len()),
        );
    }

    m.put_with_base(
        "benchmarks.corpus_gen_s",
        l.corpus_gen_s,
        "s",
        "median full_study() call",
    );

    let solves = spans.name("sat.solve").count + spans.name("sat.incremental_check").count;
    m.put_with_base(
        "sat.self_ms",
        spans.prefix_self_ms("sat."),
        "ms",
        "self time of sat.* spans",
    );
    m.put_with_base(
        "sat.solves",
        solves as f64,
        "count",
        "sat.solve + sat.incremental_check spans",
    );
    m.put_with_base(
        "sat.conflicts",
        spans.sat_conflicts as f64,
        "count",
        "sum of sat.solve conflicts",
    );

    m.put_with_base(
        "analyzer.oracle_self_ms",
        spans.prefix_self_ms("oracle."),
        "ms",
        "self time of oracle.* spans",
    );
    m.put_with_base("analyzer.hits", l.oracle_hits as f64, "count", src);
    m.put_with_base("analyzer.misses", l.oracle_misses as f64, "count", src);
    m.ratio(
        "analyzer.hit_rate",
        l.oracle_hits as f64,
        (l.oracle_hits + l.oracle_misses) as f64,
        "hits / (hits + misses)",
    );
    m.put_with_base(
        "analyzer.collapsed",
        l.oracle_collapsed as f64,
        "count",
        src,
    );
    m.put_with_base("analyzer.incr_checks", l.incr_checks as f64, "count", src);
    m.put_with_base(
        "analyzer.incr_fallbacks",
        l.incr_fallbacks as f64,
        "count",
        src,
    );
    m.ratio(
        "analyzer.clause_reuse",
        l.clause_reuse.0,
        l.clause_reuse.1,
        "reused clauses / clauses per check",
    );
    m.put_with_base(
        "analyzer.learnt_retained",
        l.learnt_retained as f64,
        "count",
        src,
    );

    m.put_with_base("core.dedup_hits", l.dedup_hits as f64, "count", src);
    m.ratio(
        "core.dedup_rate",
        l.dedup_hits as f64,
        (l.dedup_hits + l.dedup_misses) as f64,
        "dedup hits / validations",
    );

    m.put_with_base(
        "llm.self_ms",
        spans.prefix_self_ms("lm."),
        "ms",
        "self time of lm.* spans",
    );
    m.put_with_base(
        "llm.rounds",
        spans.name("lm.round").count as f64,
        "count",
        "lm.round spans",
    );

    m.put_with_base(
        "metrics.score_us",
        mean(&l.score_us),
        "us",
        format!(
            "mean of {} candidate_metrics + tree_diff calls",
            l.score_us.len()
        ),
    );
    m.put_with_base(
        "syntax.parse_us",
        mean(&l.parse_us),
        "us",
        format!("mean of {} parse_spec calls", l.parse_us.len()),
    );
    m.put_with_base(
        "syntax.fingerprint_us",
        mean(&l.fingerprint_us),
        "us",
        format!("mean of {} spec_fingerprint calls", l.fingerprint_us.len()),
    );

    let race = spans.name("portfolio.race");
    m.put_with_base(
        "portfolio.race_ms",
        if race.count == 0 {
            0.0
        } else {
            race.total_ns as f64 / race.count as f64 / 1e6
        },
        "ms",
        format!("mean of {} portfolio.race spans", race.count),
    );
    m.put_with_base(
        "portfolio.cancelled",
        l.portfolio_cancelled as f64,
        "count",
        "entrants with cancelled_at_ms in responses",
    );

    m.put_with_base(
        "server.service_p50_ms",
        med0(&l.service_ms),
        "ms",
        format!("median duration_ms of {} responses", l.service_ms.len()),
    );
    m.put_with_base(
        "server.overhead_p50_ms",
        med0(&l.overhead_ms),
        "ms",
        format!(
            "median latency - duration_ms of {} responses",
            l.overhead_ms.len()
        ),
    );
    m.put_with_base("server.shed", l.shed as f64, "count", "503 responses");
    m.put_with_base(
        "server.timeouts",
        l.timeouts as f64,
        "count",
        "504 responses",
    );

    m.put_with_base(
        "cluster.relay_p50_ms",
        med0(&l.relay_ms),
        "ms",
        format!(
            "median of {} paired router-vs-shard replays",
            l.relay_ms.len()
        ),
    );
    m.put_with_base("cluster.remote_puts", l.remote_puts as f64, "count", src);
    m.put_with_base("cluster.remote_hits", l.remote_hits as f64, "count", src);
    m.put_with_base(
        "cluster.degraded_solves",
        l.degraded_solves as f64,
        "count",
        "router /metrics",
    );

    let appends = spans.name("persist.append");
    m.put_with_base(
        "cache.appends",
        l.persist_appends as f64,
        "count",
        "persistent.appends in /metrics",
    );
    m.put_with_base(
        "cache.append_us",
        if appends.count == 0 {
            0.0
        } else {
            appends.total_ns as f64 / appends.count as f64 / 1e3
        },
        "us",
        format!("mean of {} persist.append spans", appends.count),
    );
    m.put_with_base(
        "cache.log_bytes",
        l.log_bytes as f64,
        "bytes",
        "verdicts.log sizes",
    );

    m.put_with_base(
        "trace.overhead_ratio",
        l.overhead_ratio,
        "ratio",
        "traced / untraced wall time per operation",
    );
    let mut late = l.gen_late_ms.clone();
    late.sort_by(f64::total_cmp);
    m.put_with_base(
        "bench.gen_late_p99_ms",
        percentile(&late, 0.99).unwrap_or(0.0),
        "ms",
        format!("{} open-loop sends", late.len()),
    );
    m
}

/// Prints the traced-run report: every per-layer metric with its base,
/// the phase split, and the self-time reconciliation. Returns whether
/// the phase self times add up to the reconciled cells' wall time.
pub fn report(metrics: &Metrics, spans: &ProgramSpans) -> bool {
    println!("per-layer metrics (name = value unit  [base])");
    for m in &metrics.0 {
        println!(
            "  {:<34} = {:>14.4} {:<6} [{}]",
            m.name, m.value, m.unit, m.base
        );
    }
    println!("phase self time:");
    for phase in Phase::ALL {
        println!(
            "  {:<14} {:>12.1} ms",
            phase.label(),
            spans.phase_self_ms(phase)
        );
    }
    let wall = spans.reconciled_wall_ns as f64;
    let selfs = spans.reconciled_self_ns as f64;
    let ok = spans.reconciled_cells > 0 && (selfs - wall).abs() <= 0.01 * wall;
    println!(
        "reconciliation: {} sequential cells, phase self {:.1} ms vs cell wall {:.1} ms ({})",
        spans.reconciled_cells,
        selfs / 1e6,
        wall / 1e6,
        if ok { "ok" } else { "MISMATCH" }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::valid_metric_name;

    #[test]
    fn every_metric_name_is_well_formed_and_listed_in_the_benchmark() {
        let listed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let per_layer = emit(&Layers::default(), &ProgramSpans::default());
        let end_to_end = ["setup_s", "cells_per_s", "peak_rss_mb"];
        let names = per_layer
            .0
            .iter()
            .map(|m| m.name.as_str())
            .chain(end_to_end);
        for name in names {
            assert!(valid_metric_name(name), "{name}");
            assert!(
                listed.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
    }
}
