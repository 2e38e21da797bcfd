//! Output references: digests of what the control arm answers.
//!
//! The control arm is the program with every performance layer off: no
//! oracle memo (`OracleHandle::disabled()` / `--no-cache`), no candidate
//! dedup, no incremental solving. Those layers must not change a single
//! output, so each measured output is checked against the control arm's.
//! References are committed under `refs/`, one `<key> <digest>` line per
//! study cell or per distinct (spec, technique, seed) request body, and
//! regenerated with `perfbench refs --workload <name>`.

use std::collections::HashMap;
use std::path::PathBuf;

use serde::Value;

use crate::util::digest;

/// Where a workload's reference file lives.
pub fn path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("refs")
        .join(format!("{workload}.txt"))
}

/// Loads a workload's references (`key -> output digest`).
pub fn load(workload: &str) -> Result<HashMap<String, String>, String> {
    let path = path(workload);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read references {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            l.split_once(' ')
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or_else(|| format!("malformed reference line {l:?}"))
        })
        .collect()
}

/// Writes references sorted by key, so regeneration diffs cleanly.
pub fn save(workload: &str, refs: &HashMap<String, String>) -> std::io::Result<()> {
    let mut lines: Vec<String> = refs.iter().map(|(k, v)| format!("{k} {v}")).collect();
    lines.sort_unstable();
    let path = path(workload);
    std::fs::create_dir_all(path.parent().expect("refs path has a parent"))?;
    std::fs::write(path, lines.join("\n") + "\n")
}

/// The digest of a `/repair` response body without the parts that depend
/// on timing: `duration_ms`, each portfolio entrant's `started_ms`,
/// `finished_ms` and `cancelled_at_ms` stamps, and everything but the
/// label and rank of an entrant outside the deterministic accounting
/// (`"counted": false` — a race loser whose progress at cancellation
/// depends on scheduling). Everything else must match the control arm
/// byte for byte.
pub fn response_digest(body: &str) -> Result<String, String> {
    value_digest(serde_json::from_str(body).map_err(|e| format!("response is not JSON: {e}"))?)
}

/// [`response_digest`] of an already parsed response.
pub fn value_digest(mut doc: Value) -> Result<String, String> {
    let Value::Map(fields) = &mut doc else {
        return Err("response is not a JSON object".to_string());
    };
    fields.retain(|(k, _)| k != "duration_ms");
    for (key, value) in fields.iter_mut() {
        if key != "entrants" {
            continue;
        }
        if let Value::Seq(entrants) = value {
            for entrant in entrants.iter_mut() {
                if let Value::Map(e) = entrant {
                    let counted = e
                        .iter()
                        .any(|(k, v)| k == "counted" && *v == Value::Bool(true));
                    e.retain(|(k, _)| match k.as_str() {
                        "label" | "rank" | "counted" => true,
                        "started_ms" | "finished_ms" | "cancelled_at_ms" => false,
                        _ => counted,
                    });
                }
            }
        }
    }
    let canonical = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
    Ok(digest(canonical.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_digest_ignores_only_wall_clock_fields() {
        let a = r#"{"technique":"ATR","success":true,"duration_ms":12,"entrants":[{"label":"x","started_ms":1,"finished_ms":5,"cancelled_at_ms":null,"counted":true}],"trace_id":"ab"}"#;
        let b = r#"{"technique":"ATR","success":true,"duration_ms":40,"entrants":[{"label":"x","started_ms":3,"finished_ms":9,"cancelled_at_ms":7,"counted":true}],"trace_id":"ab"}"#;
        let c = r#"{"technique":"ATR","success":false,"duration_ms":12,"entrants":[{"label":"x","started_ms":1,"finished_ms":5,"cancelled_at_ms":null,"counted":true}],"trace_id":"ab"}"#;
        assert_eq!(response_digest(a), response_digest(b));
        let loser = |explored: u32| {
            format!(
                r#"{{"success":true,"duration_ms":3,"entrants":[{{"label":"y","rank":1,"explored":{explored},"reason":"Cancelled","counted":false}}]}}"#
            )
        };
        assert_eq!(response_digest(&loser(0)), response_digest(&loser(7)));
        let winner = |explored: u32| {
            format!(
                r#"{{"success":true,"duration_ms":3,"entrants":[{{"label":"y","rank":1,"explored":{explored},"reason":"Repaired","counted":true}}]}}"#
            )
        };
        assert_ne!(response_digest(&winner(0)), response_digest(&winner(7)));
        assert_ne!(response_digest(a), response_digest(c));
        assert!(response_digest("not json").is_err());
    }
}
