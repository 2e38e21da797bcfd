//! Guard bench: the daemon's telemetry must cost (nearly) nothing on the
//! request hot path.
//!
//! Each served request records exactly one endpoint × status count and
//! one latency-histogram observation in `ServerMetrics` (one short
//! mutex-guarded map probe each). This measures that
//! per-request recording cost directly, then bounds it against the warm
//! `POST /repair` handling time — the cheapest request the daemon serves
//! at steady state, i.e. the one where the telemetry share is largest.
//! Exits nonzero when the share reaches 2%, so CI runs it as a gate, and
//! writes `BENCH_telemetry.json` at the repo root with the numbers.

use std::hint::black_box;
use std::time::Instant;

use specrepair_bench::bench_problems;
use specrepair_core::OracleHandle;
use specrepair_server::service::{push_json_string, RepairService, ServiceConfig};
use specrepair_server::ServerMetrics;

/// Median of per-iteration nanosecond estimates over several batches —
/// robust to one batch landing on a scheduler hiccup.
fn median_ns(mut batches: Vec<f64>) -> f64 {
    batches.sort_by(|a, b| a.partial_cmp(b).unwrap());
    batches[batches.len() / 2]
}

fn main() {
    let problems = bench_problems();
    let mut spec = String::new();
    push_json_string(&problems[0].faulty_source, &mut spec);
    let body = format!(
        "{{\"spec\":{spec},\"technique\":\"ATR\",\"deadline_ms\":5000,\
         \"budget\":{{\"max_candidates\":8,\"max_rounds\":1}}}}"
    );

    // The numerator: what the engine records per served request — one
    // endpoint/status count and one latency observation, each behind one
    // map probe.
    let metrics = ServerMetrics::new();
    const RECORD_ITERS: u64 = 200_000;
    let mut record_batches = Vec::new();
    for _ in 0..7 {
        let t0 = Instant::now();
        for i in 0..RECORD_ITERS {
            metrics.record_request(black_box("repair"), black_box(200));
            metrics.record_latency(black_box("ATR"), black_box(i % 10_000 + 1));
        }
        record_batches.push(t0.elapsed().as_nanos() as f64 / RECORD_ITERS as f64);
    }
    let record_ns = median_ns(record_batches);

    // The denominator: the warm repair itself (memoized oracle, no socket).
    let service = RepairService::new(OracleHandle::fresh(), ServiceConfig::default());
    let _ = service.handle_repair(&body);
    const HANDLE_ITERS: u64 = 2_000;
    let mut handle_batches = Vec::new();
    for _ in 0..7 {
        let t0 = Instant::now();
        for _ in 0..HANDLE_ITERS {
            black_box(service.handle_repair(black_box(&body)).response.status);
        }
        handle_batches.push(t0.elapsed().as_nanos() as f64 / HANDLE_ITERS as f64);
    }
    let handle_ns = median_ns(handle_batches);

    let overhead_pct = 100.0 * record_ns / handle_ns;
    println!("telemetry_overhead: per-request recording {record_ns:.1} ns");
    println!("telemetry_overhead: warm repair handling  {handle_ns:.1} ns");
    println!("telemetry_overhead: telemetry share       {overhead_pct:.3}% (limit 2%)");

    let json = format!(
        "{{\n  \"bench\": \"telemetry_overhead\",\n  \"record_ns\": {record_ns:.1},\n  \
         \"handle_ns\": {handle_ns:.1},\n  \"overhead_pct\": {overhead_pct:.4},\n  \
         \"limit_pct\": 2.0\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json");
    std::fs::write(path, json).expect("can write BENCH_telemetry.json");

    if overhead_pct >= 2.0 {
        eprintln!("error: telemetry overhead {overhead_pct:.3}% breaches the 2% budget");
        std::process::exit(1);
    }
}
