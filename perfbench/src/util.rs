//! Small shared pieces: seeded randomness, digests, order statistics,
//! process memory and the result document.

use std::fmt::Write as _;

/// SplitMix64: the benchmark's only randomness primitive, so every input
/// is a pure function of the `--seed` argument.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates over SplitMix64 draws).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut out: Vec<usize> = (0..n).collect();
    let mut state = mix(seed);
    for i in (1..n).rev() {
        state = mix(state);
        let j = (state % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// FNV-1a over bytes, as 16 lowercase hex digits: the reference digest.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1)`) of `sorted` ascending
/// samples, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// it — such a tail is not measured, only guessed.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Prints the latency median and tail, p50 and p99, with the sample
/// count, each only when at least [`MIN_BEYOND`] samples lie beyond it.
/// Both are reported, not gated: their run-to-run spread on a shared VM
/// is wider than any allowed bound.
pub fn print_latency(workload: &str, sorted_ms: &[f64]) {
    for (name, q) in [("p50_ms", 0.5), ("p99_ms", 0.99)] {
        match percentile(sorted_ms, q) {
            Some(v) => println!("{workload}: {name} {v} over {} samples", sorted_ms.len()),
            None => println!(
                "{workload}: {name} not measured ({} samples, fewer than {MIN_BEYOND} beyond it)",
                sorted_ms.len()
            ),
        }
    }
}

/// A `/proc/self/status` memory field of this process in MiB, when the
/// platform reports it.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// Current resident set of this process in MiB (`VmRSS`).
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS:")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: returns free heap memory to the kernel.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Resets this process's peak resident set to its current resident set
/// (writing `5` to `/proc/self/clear_refs`), so that what the benchmark
/// built before the call — its inputs, its references, and any transient
/// memory that took — cannot set the peak. With glibc the free heap the
/// transient memory left is first returned to the kernel, so that the
/// program's own allocations cannot grow into it unseen. Returns the
/// resident set at the reset, in MiB: the benchmark's own share of the
/// later peak. Fails where the kernel does not offer the reset.
pub fn reset_peak_rss() -> Result<f64, String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only releases memory the allocator holds free.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))?;
    rss_mb().ok_or_else(|| "no VmRSS in /proc/self/status".to_string())
}

/// Reduces a label to the metric-name alphabet `[A-Za-z0-9_.-]`.
pub fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Whether `name` is a well-formed metric name.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric: value, unit and, for per-layer metrics, the base
/// a ratio or mean was taken over.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub base: String,
}

/// The metrics of one run, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.put_with_base(name, value, unit, String::new());
    }

    pub fn put_with_base(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        base: impl Into<String>,
    ) {
        let name = name.into();
        assert!(valid_metric_name(&name), "bad metric name {name:?}");
        self.0.push(Metric {
            name,
            value,
            unit,
            base: base.into(),
        });
    }

    /// Ratio `num / den` (0 when nothing was attempted), with its base.
    pub fn ratio(&mut self, name: &str, num: f64, den: f64, base: &str) {
        let value = if den > 0.0 { num / den } else { 0.0 };
        self.put_with_base(name, value, "ratio", format!("{base} = {num} / {den}"));
    }
}

/// The run outcome every workload returns.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells or requests, warm-up included).
    pub attempted: u64,
    /// Operations that failed: non-200 statuses, crashed cells, and any
    /// output that differs from its reference.
    pub failed: u64,
    /// Operations whose output had no committed reference to check
    /// against — counted as failed too, and reported separately.
    pub unreferenced: u64,
    pub metrics: Metrics,
}

/// Renders a finite `f64` as JSON with every digit it carries.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The one-line result document the benchmark prints last.
pub fn result_line(outcome: &Outcome, correct: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&short, 0.99), None, "only 9 samples beyond");
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0; 20], 0.5), Some(1.0));
        assert_eq!(percentile(&[1.0; 19], 0.5), None);
    }

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let p = permutation(100, 7);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_eq!(p, permutation(100, 7));
        assert_ne!(p, permutation(100, 8));
    }

    #[test]
    fn sanitize_keeps_the_metric_alphabet() {
        assert_eq!(sanitize("Single-Round_Loc+Pass"), "Single-Round_Loc_Pass");
        assert!(valid_metric_name(&sanitize("a b/c+d")));
        assert!(!valid_metric_name("a+b"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
