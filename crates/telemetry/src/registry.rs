//! The series vocabulary shared by the snapshot, the Prometheus exposition,
//! the history ring and fleet aggregation: a [`Sample`] names one series
//! (family plus label set) and carries its typed [`SampleValue`].
//!
//! The samples themselves come from [`crate::snapshot::Snapshot::samples`]
//! or from parsing an exposition ([`crate::prom::parse`]); a series' text
//! identity is [`series_id`].

use crate::metric::HistogramSnapshot;

/// The three metric types a series can have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter (`_total` by convention).
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// A log₂ latency histogram.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` spelling.
    pub fn label(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One metric sample: a family name, the label set
/// identifying the series, and its value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Family name, e.g. `specrepair_requests_total`.
    pub name: String,
    /// Label pairs in declaration order, e.g. `[("endpoint", "repair"),
    /// ("status", "200")]`.
    pub labels: Vec<(String, String)>,
    /// The sample's kind and value.
    pub value: SampleValue,
}

/// The value of one [`Sample`].
///
/// The histogram variant is large (a full 28-bucket snapshot) but samples
/// are only materialized on scrape, never on the hot path, so the size
/// skew is irrelevant and not worth a `Box` indirection in every matcher.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum SampleValue {
    /// A monotone counter value.
    Counter(u64),
    /// A gauge value.
    Gauge(f64),
    /// A full histogram (buckets, count, sum, max).
    Histogram(HistogramSnapshot),
}

impl Sample {
    /// The series identity string: `name` or `name{k="v",k2="v2"}` — the
    /// key fleet aggregation groups on.
    pub fn id(&self) -> String {
        series_id(&self.name, &self.labels)
    }

    /// The sample's kind.
    pub fn kind(&self) -> MetricKind {
        match self.value {
            SampleValue::Counter(_) => MetricKind::Counter,
            SampleValue::Gauge(_) => MetricKind::Gauge,
            SampleValue::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// Formats a series identity: the family name plus its sorted label set,
/// in Prometheus line syntax.
pub fn series_id(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut id = String::from(name);
    id.push('{');
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            id.push(',');
        }
        id.push_str(key);
        id.push_str("=\"");
        for c in value.chars() {
            match c {
                '\\' => id.push_str("\\\\"),
                '"' => id.push_str("\\\""),
                '\n' => id.push_str("\\n"),
                c => id.push(c),
            }
        }
        id.push('"');
    }
    id.push('}');
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_id_escapes_label_values() {
        let labels = vec![("path".to_string(), "a\"b\\c".to_string())];
        assert_eq!(series_id("m", &labels), "m{path=\"a\\\"b\\\\c\"}");
    }
}
