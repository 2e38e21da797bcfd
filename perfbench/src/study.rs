//! `study_batch`: the paper's own use. The study runner evaluates all
//! twelve techniques over seeded draws from both corpora, one fresh
//! oracle per problem, as a closed-loop batch.
//!
//! Two phases share the run. The batch phase calls `run_study_cached`
//! once per 27-problem batch, one pass over the corpus, and reports cells
//! per second. The cell phase evaluates one
//! problem at a time per client thread through `evaluate_cell` — the
//! runner's per-cell entry point, one fresh oracle per problem, the same
//! twelve techniques in order — and times every cell, which gives the
//! per-cell latency the run prints (p50 and p99) and, in traced runs, more
//! cell spans for the per-technique medians. It fills the run to its
//! `--seconds`; the batch pass alone is fixed work.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use specrepair_benchmarks::RepairProblem;
use specrepair_core::OracleHandle;
use specrepair_study::runner::evaluate_cell;
use specrepair_study::{run_study_cached, RunStats, SpecRecord, StudyConfig, TechniqueId};

use crate::layers::{self, Layers};
use crate::spans::{BenchSpans, ProgramSpans};
use crate::util::{digest, median, permutation, Metrics, Outcome};

/// Corpus scale of the problem universe the runs draw from (108
/// problems, 1,296 cells; every cell has a committed reference).
pub const UNIVERSE_SCALE: f64 = 0.05;
/// Problems per `run_study_cached` call in the batch phase (a quarter of
/// the universe).
const BATCH: usize = 27;
/// Corpus generations timed for `setup_s` after each batch (one more
/// before the first): `setup_s` is the median of the nine. One generation
/// is about half a second of solver-bound work, whose time varies by a
/// tenth or more from call to call on a shared host.
const SETUPS_PER_BATCH: usize = 2;

/// The study configuration: the study's LLM seed is fixed, so every cell
/// of the universe has one reference; `control` is the reference arm.
pub fn config(control: bool) -> StudyConfig {
    StudyConfig {
        scale: UNIVERSE_SCALE,
        dedup: !control,
        incremental: !control,
        ..StudyConfig::default()
    }
}

pub fn cell_key(problem: &str, technique: &str) -> String {
    digest(format!("{problem}\t{technique}").as_bytes())
}

/// The digest of a record: every field, serialized.
pub fn record_digest(record: &SpecRecord) -> String {
    digest(
        serde_json::to_string(record)
            .expect("records always serialize")
            .as_bytes(),
    )
}

/// One run's inputs, a pure function of the seed.
pub struct Inputs {
    /// The batch phase: the universe cut into four fixed 27-problem
    /// batches (corpus order), run starting from a seeded batch. The
    /// batches stay fixed so that the runner's split of each batch across
    /// its workers, and the idle tail at each batch's end, is the same in
    /// every run; the seed varies their order only.
    pub batches: Vec<Vec<RepairProblem>>,
    /// The cell phase: the universe in seeded order.
    pub cells: Vec<RepairProblem>,
}

pub fn inputs(seed: u64) -> Inputs {
    let universe = specrepair_benchmarks::full_study(UNIVERSE_SCALE);
    let mut batches: Vec<Vec<RepairProblem>> = universe
        .chunks(BATCH)
        .map(<[RepairProblem]>::to_vec)
        .collect();
    let first = (seed % batches.len() as u64) as usize;
    batches.rotate_left(first);
    let cells = permutation(universe.len(), seed)
        .into_iter()
        .map(|i| universe[i].clone())
        .collect();
    Inputs { batches, cells }
}

/// Regenerates the committed references from the control arm.
pub fn make_refs() -> HashMap<String, String> {
    let universe = specrepair_benchmarks::full_study(UNIVERSE_SCALE);
    let (results, _) = run_study_cached(&universe, &config(true), false);
    results
        .records
        .iter()
        .map(|r| (cell_key(&r.problem, &r.technique), record_digest(r)))
        .collect()
}

/// Checks records against the references; returns (failed, unreferenced).
fn check(records: &[SpecRecord], refs: &HashMap<String, String>) -> (u64, u64) {
    let mut failed = 0;
    let mut missing = 0;
    for r in records {
        match refs.get(&cell_key(&r.problem, &r.technique)) {
            None => {
                missing += 1;
                failed += 1;
            }
            Some(want) if *want != record_digest(r) => failed += 1,
            Some(_) => {}
        }
    }
    (failed, missing)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let refs = crate::refs::load("study_batch")?;
    let input = inputs(seed);
    let problems = &input.cells;
    let own_mb = crate::util::reset_peak_rss()?;
    let bench = BenchSpans::new(trace);
    // Set-up is timed once before the batch phase and again after each
    // batch, so that its median samples the whole pass, not its first
    // seconds: a slow spell of a shared host then weighs on `setup_s` and
    // `cells_per_s` alike.
    let mut setup = Vec::new();
    let mut time_setup = || {
        let t0 = Instant::now();
        let corpus = bench.time("benchmarks.full_study", || {
            specrepair_benchmarks::full_study(UNIVERSE_SCALE)
        });
        setup.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(corpus);
    };
    time_setup();
    let cfg = config(false);
    let mut out = Outcome::default();
    let mut spans = ProgramSpans::default();
    let mut layers = Layers {
        counter_source: "RunStats / OracleHandle stats",
        ..Layers::default()
    };
    let mut stats = RunStats::default();
    // Batch phase: one pass over the universe, a fixed amount of work.
    // Traced runs time each batch twice, untraced and traced in
    // alternating order, for the overhead ratio.
    let run_start = Instant::now();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (mut cells, mut wall) = (0u64, 0f64);
    let (mut traced_wall, mut untraced_wall) = (0f64, 0f64);
    for (batch_no, batch) in input.batches.iter().enumerate() {
        let passes: &[bool] = match (trace, batch_no % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in passes {
            specrepair_trace::set_enabled(traced);
            let t0 = Instant::now();
            let (results, run_stats) = bench.time("study.run_study_cached", || {
                run_study_cached(batch, &cfg, true)
            });
            let dt = t0.elapsed().as_secs_f64();
            specrepair_trace::set_enabled(false);
            let (failed, missing) = check(&results.records, &refs);
            out.attempted += results.records.len() as u64;
            out.failed += failed;
            out.unreferenced += missing;
            if traced {
                traced_wall += dt;
                let before: u64 = spans.cells.iter().map(|(_, ns)| ns).sum();
                spans.absorb(&specrepair_trace::take_spans());
                let after: u64 = spans.cells.iter().map(|(_, ns)| ns).sum();
                layers.busy_cell_ns += (after - before) as f64;
                layers.slot_ns += dt * 1e9 * workers.min(batch.len()) as f64;
                stats.cache.absorb(&run_stats.cache);
                stats.dedup.absorb(&run_stats.dedup);
                stats.incremental.absorb(&run_stats.incremental);
            } else {
                untraced_wall += dt;
                cells += results.records.len() as u64;
                wall += dt;
            }
        }
        for _ in 0..SETUPS_PER_BATCH {
            time_setup();
        }
    }
    let setup_s = median(&setup);
    let setup_in_pass: f64 = setup[1..].iter().sum();
    layers.corpus_gen_s = setup_s;
    if trace {
        layers.overhead_ratio = traced_wall / untraced_wall;
    }

    // Cell phase: the rest of the run (set-ups timed within the pass do
    // not count against it), and at least a quarter of its length.
    specrepair_trace::set_enabled(trace);
    let latencies = Mutex::new(Vec::<f64>::new());
    let records = Mutex::new(Vec::<SpecRecord>::new());
    let cell_stats = Mutex::new(RunStats::default());
    let next = AtomicUsize::new(0);
    let end = (run_start + Duration::from_secs_f64(seconds + setup_in_pass))
        .max(Instant::now() + Duration::from_secs_f64(seconds * 0.25));
    let threads = workers.clamp(1, 2);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if Instant::now() >= end {
                    return;
                }
                let problem = &problems[next.fetch_add(1, Ordering::Relaxed) % problems.len()];
                let oracle = OracleHandle::fresh();
                let mut own = Vec::with_capacity(12);
                let mut recs = Vec::with_capacity(12);
                for id in TechniqueId::all() {
                    let t0 = Instant::now();
                    let r = bench.time("study.evaluate_cell", || {
                        evaluate_cell(&oracle, id, problem, &cfg)
                    });
                    own.push(t0.elapsed().as_secs_f64() * 1e3);
                    recs.push(r);
                }
                let mut s = cell_stats.lock().expect("stats poisoned");
                s.cache.absorb(&oracle.stats());
                s.dedup.absorb(&oracle.dedup_stats());
                s.incremental.absorb(&oracle.incremental_stats());
                drop(s);
                latencies.lock().expect("latency log poisoned").extend(own);
                records.lock().expect("record log poisoned").extend(recs);
            });
        }
    });
    specrepair_trace::set_enabled(false);
    let records = records.into_inner().expect("record log poisoned");
    let (failed, missing) = check(&records, &refs);
    out.attempted += records.len() as u64;
    out.failed += failed;
    out.unreferenced += missing;
    let mut lat = latencies.into_inner().expect("latency log poisoned");
    lat.sort_by(f64::total_cmp);

    if trace {
        spans.absorb(&specrepair_trace::take_spans());
        let s = cell_stats.into_inner().expect("stats poisoned");
        stats.cache.absorb(&s.cache);
        stats.dedup.absorb(&s.dedup);
        stats.incremental.absorb(&s.incremental);
        layers.oracle_hits = stats.cache.hits;
        layers.oracle_misses = stats.cache.misses;
        layers.oracle_collapsed = stats.cache.collapsed;
        layers.incr_checks = stats.incremental.checks;
        layers.incr_fallbacks = stats.incremental.fallbacks;
        layers.clause_reuse = (
            stats.incremental.clauses_reused as f64,
            stats.incremental.clauses_total as f64,
        );
        layers.learnt_retained = stats.incremental.learned_clauses_retained;
        layers.dedup_hits = stats.dedup.hits;
        layers.dedup_misses = stats.dedup.misses;
        time_single_layers(&problems[..problems.len().min(64)], &bench, &mut layers);
        let metrics = layers::emit(&layers, &spans);
        let ok = layers::report(&metrics, &spans);
        crate::dump_trace("study_batch", seed, &bench.take(), &metrics)?;
        if !ok {
            out.failed += 1;
        }
        out.metrics = metrics;
        return Ok(out);
    }

    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("cells_per_s", cells as f64 / wall, "1/s");
    let peak = crate::util::peak_rss_mb().ok_or("no VmHWM")?;
    m.put("peak_rss_mb", peak, "MB");
    crate::util::print_latency("study_batch", &lat);
    println!(
        "study_batch: corpus generations {setup:.3?} s; peak_rss_mb {peak:.1} MB, \
         of which {own_mb:.1} MB was resident before the first generation \
         (process image, inputs, references)"
    );
    println!(
        "study_batch: {cells} cells in {wall:.2} s over {} batches; {} timed cells",
        input.batches.len(),
        lat.len()
    );
    out.metrics = m;
    Ok(out)
}

/// Times the benchmark's own calls into the parser, the fingerprinter
/// and the scorer on the run's specs (faulty spec against its truth).
fn time_single_layers(problems: &[RepairProblem], bench: &BenchSpans, layers: &mut Layers) {
    for p in problems {
        let t0 = Instant::now();
        let parsed = bench.time("syntax.parse_spec", || {
            mualloy_syntax::parse_spec(&p.faulty_source)
        });
        layers.parse_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let Ok(parsed) = parsed else { continue };
        let t0 = Instant::now();
        std::hint::black_box(bench.time("syntax.spec_fingerprint", || {
            mualloy_syntax::hash::spec_fingerprint(&parsed)
        }));
        layers.fingerprint_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        std::hint::black_box(bench.time("metrics.score", || {
            (
                specrepair_metrics::candidate_metrics(
                    &p.truth,
                    &p.truth_source,
                    Some(&p.faulty_source),
                ),
                specrepair_metrics::tree_diff(&p.faulty, &p.truth).summary(),
            )
        }));
        layers.score_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(batches: &[Vec<RepairProblem>]) -> Vec<Vec<String>> {
        batches
            .iter()
            .map(|b| b.iter().map(|p| p.id.clone()).collect())
            .collect()
    }

    #[test]
    fn batches_cover_the_universe_once_in_seeded_order() {
        let a = names(&inputs(5).batches);
        assert_eq!(a, names(&inputs(5).batches), "same seed, same batches");
        assert_ne!(a, names(&inputs(6).batches), "seeds 5 and 6 agree");
        let mut all: Vec<&String> = a.iter().flatten().collect();
        assert_eq!(all.len(), 108);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 108, "a problem is in two batches");
    }
}
