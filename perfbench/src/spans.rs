//! Span bookkeeping for the traced run.
//!
//! Two kinds of spans meet here. The benchmark records its own spans
//! ([`BenchSpans`]) around every call it makes into a layer. The program's
//! collector (`specrepair_trace`) records the spans the layers emit
//! themselves; [`ProgramSpans`] folds a drained batch of those into
//! per-name counts and self times. Self time is a span's duration minus
//! the part of its interval that its child spans cover.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use specrepair_trace::{AttrValue, Phase, SpanRecord};

/// One span the benchmark recorded around a call into a layer.
#[derive(Debug, Clone)]
pub struct BenchSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The benchmark's own span log, kept in memory until the run ends.
pub struct BenchSpans {
    origin: Instant,
    on: bool,
    spans: Mutex<Vec<BenchSpan>>,
}

impl BenchSpans {
    pub fn new(on: bool) -> BenchSpans {
        BenchSpans {
            origin: Instant::now(),
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether this is a traced run.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, recording a span named `name` around it when tracing.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let start_ns = t0.duration_since(self.origin).as_nanos() as u64;
        self.spans
            .lock()
            .expect("bench span log poisoned")
            .push(BenchSpan {
                name,
                start_ns,
                dur_ns,
            });
        out
    }

    pub fn take(&self) -> Vec<BenchSpan> {
        std::mem::take(&mut *self.spans.lock().expect("bench span log poisoned"))
    }
}

/// Per-name aggregate of program spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates of every program span drained during a traced run.
#[derive(Debug, Default)]
pub struct ProgramSpans {
    pub by_name: HashMap<&'static str, NameTotals>,
    /// Self time per phase, in [`Phase::ALL`] order.
    pub phase_self_ns: [u64; 4],
    /// `cell` span durations (ns) with their technique label.
    pub cells: Vec<(String, u64)>,
    /// Sum of `conflicts` attributes on `sat.solve` spans.
    pub sat_conflicts: u64,
    /// Sequential cells checked for self-time reconciliation, the summed
    /// wall time of their root spans and the summed self time of every
    /// span in their trees (equal when the phase split is complete).
    pub reconciled_cells: u64,
    pub reconciled_wall_ns: u64,
    pub reconciled_self_ns: u64,
}

impl ProgramSpans {
    /// Folds one drained batch. A batch must hold complete span trees:
    /// drain only while no traced work is in flight.
    pub fn absorb(&mut self, spans: &[SpanRecord]) {
        let parent = resolve_parents(spans);
        // Union of child intervals per parent, clipped to the parent.
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                children[p].push((spans[i].start_ns, spans[i].start_ns + spans[i].dur_ns));
            }
        }
        let mut self_ns = vec![0u64; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            let covered = union_len(&mut children[i], s.start_ns, s.start_ns + s.dur_ns);
            self_ns[i] = s.dur_ns.saturating_sub(covered);
        }
        // Roots of each tree, and whether a tree races a portfolio (its
        // entrants run in parallel, so self times exceed the wall time).
        let root_of = |mut i: usize| {
            while let Some(p) = parent[i] {
                i = p;
            }
            i
        };
        let mut tree_self: HashMap<usize, u64> = HashMap::new();
        let mut parallel: Vec<bool> = vec![false; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            let root = root_of(i);
            *tree_self.entry(root).or_default() += self_ns[i];
            if s.name == "portfolio.race" {
                parallel[root] = true;
            }
            let totals = self.by_name.entry(s.name).or_default();
            totals.count += 1;
            totals.total_ns += s.dur_ns;
            totals.self_ns += self_ns[i];
            self.phase_self_ns[s.phase.index()] += self_ns[i];
            if s.name == "sat.solve" {
                self.sat_conflicts += attr_u64(s, "conflicts");
            }
        }
        for (i, s) in spans.iter().enumerate() {
            if s.name != "cell" || parent[i].is_some() {
                continue;
            }
            self.cells.push((attr_str(s, "technique"), s.dur_ns));
            if !parallel[i] {
                self.reconciled_cells += 1;
                self.reconciled_wall_ns += s.dur_ns;
                self.reconciled_self_ns += tree_self.get(&i).copied().unwrap_or(0);
            }
        }
    }

    pub fn name(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    pub fn phase_self_ms(&self, phase: Phase) -> f64 {
        self.phase_self_ns[phase.index()] as f64 / 1e6
    }

    /// Self time of every span whose name starts with `prefix`, in ms.
    pub fn prefix_self_ms(&self, prefix: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, t)| t.self_ns)
            .sum::<u64>() as f64
            / 1e6
    }
}

/// Resolves each span's parent to an index in `spans`. Span ids are
/// deterministic per (request, technique, seed), so a replayed request
/// reuses its ids: among the spans carrying the parent id, the parent is
/// the one whose interval contains the child's start.
fn resolve_parents(spans: &[SpanRecord]) -> Vec<Option<usize>> {
    let mut by_id: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_id.entry(s.id).or_default().push(i);
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if s.parent == 0 {
                return None;
            }
            by_id.get(&s.parent)?.iter().copied().find(|&p| {
                p != i
                    && spans[p].start_ns <= s.start_ns
                    && s.start_ns <= spans[p].start_ns + spans[p].dur_ns
            })
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

fn attr_u64(s: &SpanRecord, key: &str) -> u64 {
    s.attrs
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            AttrValue::U64(n) => Some(*n),
            _ => None,
        })
        .unwrap_or(0)
}

fn attr_str(s: &SpanRecord, key: &str) -> String {
    s.attrs
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            AttrValue::Str(text) => Some(text.clone()),
            _ => None,
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            phase: if name == "sat.solve" {
                Phase::Sat
            } else {
                Phase::Orchestration
            },
            cell: 1,
            ordinal: 0,
            start_ns: start,
            dur_ns: dur,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_and_reconciles() {
        let spans = vec![
            span(1, 0, "cell", 0, 100),
            span(2, 1, "sat.solve", 10, 30),
            span(3, 1, "sat.solve", 30, 20), // overlaps the first child
            span(4, 2, "leaf", 15, 5),
        ];
        let mut agg = ProgramSpans::default();
        agg.absorb(&spans);
        // cell: 100 - union([10,40],[30,50]) = 60
        assert_eq!(agg.name("cell").self_ns, 60);
        assert_eq!(agg.name("leaf").self_ns, 5);
        assert_eq!(agg.reconciled_cells, 1);
        assert_eq!(agg.reconciled_wall_ns, 100);
    }

    #[test]
    fn replayed_ids_resolve_by_containment() {
        let spans = vec![
            span(1, 0, "cell", 0, 10),
            span(2, 1, "sat.solve", 2, 3),
            span(1, 0, "cell", 100, 10),
            span(2, 1, "sat.solve", 101, 4),
        ];
        let mut agg = ProgramSpans::default();
        agg.absorb(&spans);
        assert_eq!(agg.name("cell").self_ns, 7 + 6);
        assert_eq!(agg.reconciled_self_ns, agg.reconciled_wall_ns);
    }
}
