//! A tiny CSV-backed results cache shared by the experiment families, so
//! the Table II overview can aggregate per-table results without
//! recomputing them, and re-running a bench is idempotent.

use std::path::{Path, PathBuf};

/// The cache directory: `$MSD_RESULTS_DIR`, or `target/msd-results` under
/// the workspace root (found by walking up from the current directory —
/// bench binaries run with the *package* directory as cwd).
// Reads MSD_RESULTS_DIR.
#[allow(clippy::disallowed_methods)]
pub fn cache_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("MSD_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(content) = std::fs::read_to_string(&manifest) {
            if content.contains("[workspace]") {
                return dir.join("target/msd-results");
            }
        }
        if !dir.pop() {
            return PathBuf::from("target/msd-results");
        }
    }
}

/// Cache file schema version. Bump whenever the row format, the experiment
/// protocol, or the training numerics change in a way that makes previously
/// cached tables wrong: stale caches then invalidate (recompute) instead of
/// silently feeding old numbers into new tables.
const SCHEMA_VERSION: u32 = 2;

/// The header line written at the top of every cache file.
fn schema_header() -> String {
    format!("#msd-cache v{SCHEMA_VERSION}")
}

/// Loads rows for `family`+`scale` from the cache in `dir` if present,
/// otherwise computes them with `compute` and writes the cache there.
/// Callers pass [`cache_dir`]. Rows round-trip through a simple CSV
/// representation provided by the callers; `from_fields` returns `None` for
/// a malformed row (truncated write, corrupt file), which discards the
/// whole cache and falls back to recompute — it must never panic.
pub(crate) fn load_or_compute<R>(
    dir: &Path,
    family: &str,
    scale: crate::Scale,
    to_fields: impl Fn(&R) -> Vec<String>,
    from_fields: impl Fn(&[String]) -> Option<R>,
    compute: impl FnOnce() -> Vec<R>,
) -> Vec<R> {
    let path = dir.join(format!("{family}-{}.csv", scale.name()));
    if let Ok(content) = std::fs::read_to_string(&path) {
        if let Some(rows) = parse_cache(&content, &from_fields) {
            if !rows.is_empty() {
                return rows;
            }
        } else {
            eprintln!(
                "[cache] {} is stale or corrupt; recomputing",
                path.display()
            );
        }
    }
    let rows = compute();
    let _ = std::fs::create_dir_all(dir);
    let mut out = schema_header();
    out.push('\n');
    for r in &rows {
        let fields = to_fields(r);
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    let _ = std::fs::write(&path, out);
    rows
}

/// Parses a cache file: requires the current schema header on the first
/// line, then maps every non-empty line through `from_fields`. `None` when
/// the header is missing/old or any row is malformed.
fn parse_cache<R>(content: &str, from_fields: &impl Fn(&[String]) -> Option<R>) -> Option<Vec<R>> {
    let mut lines = content.lines();
    if lines.next()? != schema_header() {
        return None;
    }
    lines
        .filter(|l| !l.is_empty())
        .map(|l| from_fields(&split_csv(l)))
        .collect()
}

/// Splits a simple CSV line (no embedded commas are produced by our
/// writers).
fn split_csv(line: &str) -> Vec<String> {
    line.split(',').map(str::to_string).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Clone)]
    struct Row {
        a: String,
        v: f32,
    }

    fn to_f(r: &Row) -> Vec<String> {
        vec![r.a.clone(), r.v.to_string()]
    }

    fn from_f(f: &[String]) -> Option<Row> {
        Some(Row {
            a: f.first()?.clone(),
            v: f.get(1)?.parse().ok()?,
        })
    }

    /// Runs `body` on a fresh cache directory of its own.
    fn with_temp_cache(name: &str, body: impl FnOnce(&Path)) {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        body(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_round_trips_and_skips_recompute() {
        with_temp_cache("msd_cache_test", |dir| {
            let compute_calls = std::cell::Cell::new(0);
            let compute = || {
                compute_calls.set(compute_calls.get() + 1);
                vec![Row {
                    a: "x".into(),
                    v: 1.5,
                }]
            };
            let first = load_or_compute(dir, "unit", crate::Scale::Smoke, to_f, from_f, compute);
            let second = load_or_compute(dir, "unit", crate::Scale::Smoke, to_f, from_f, || {
                compute_calls.set(compute_calls.get() + 1);
                vec![]
            });
            assert_eq!(first, second);
            assert_eq!(compute_calls.get(), 1, "second call must hit the cache");
        });
    }

    #[test]
    fn corrupt_row_falls_back_to_recompute() {
        with_temp_cache("msd_cache_corrupt_test", |dir| {
            let rows = vec![Row {
                a: "x".into(),
                v: 1.5,
            }];
            let r = rows.clone();
            load_or_compute(dir, "unit", crate::Scale::Smoke, to_f, from_f, move || r);
            // Truncate the last row mid-field, as a crashed writer would.
            let path = dir.join("unit-smoke.csv");
            let mut content = std::fs::read_to_string(&path).unwrap();
            content.truncate(content.len() - 4);
            content.push_str("not-a-number\n");
            std::fs::write(&path, content).unwrap();
            let recomputed = vec![Row {
                a: "y".into(),
                v: 2.5,
            }];
            let r = recomputed.clone();
            let got = load_or_compute(dir, "unit", crate::Scale::Smoke, to_f, from_f, move || r);
            assert_eq!(got, recomputed, "corrupt cache must recompute, not panic");
        });
    }

    #[test]
    fn missing_or_stale_schema_header_invalidates() {
        with_temp_cache("msd_cache_header_test", |dir| {
            std::fs::create_dir_all(dir).unwrap();
            // A pre-versioning cache file: valid rows, no header.
            std::fs::write(dir.join("unit-smoke.csv"), "x,1.5\n").unwrap();
            let fresh = vec![Row {
                a: "new".into(),
                v: 9.0,
            }];
            let r = fresh.clone();
            let got = load_or_compute(dir, "unit", crate::Scale::Smoke, to_f, from_f, move || r);
            assert_eq!(got, fresh, "headerless cache must be treated as stale");
            // An old-version header likewise invalidates.
            std::fs::write(dir.join("unit-smoke.csv"), "#msd-cache v1\nx,1.5\n").unwrap();
            let fresh2 = vec![Row {
                a: "newer".into(),
                v: 10.0,
            }];
            let r = fresh2.clone();
            let got = load_or_compute(dir, "unit", crate::Scale::Smoke, to_f, from_f, move || r);
            assert_eq!(got, fresh2);
            // And the rewritten file now carries the current header.
            let content = std::fs::read_to_string(dir.join("unit-smoke.csv")).unwrap();
            assert!(content.starts_with(&schema_header()));
        });
    }
}
