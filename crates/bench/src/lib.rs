//! Shared helpers for the benchmark harness.
//!
//! Every bench regenerates one table or figure of the paper: it first
//! prints the reproduced artifact (the same rows/series the paper
//! reports), then measures the underlying pipeline with criterion.
//! Absolute numbers differ from the paper (the substrate is a simulator,
//! scaled down); the *shape* — who wins, by what factor, where crossovers
//! fall — is what EXPERIMENTS.md compares.

use inetgen::{CountrySelection, GenConfig, Internet};
use std::path::{Path, PathBuf};

/// The standard bench world: the full country table at 1:500 scale
/// (≈4.3k ODNS hosts). Deterministic.
pub fn bench_world() -> Internet {
    inetgen::generate(&GenConfig {
        scale: 500,
        ..GenConfig::default()
    })
}

/// A focused world for path experiments: the six headline countries at a
/// scale that yields hundreds of transparent forwarders.
pub fn path_world() -> Internet {
    inetgen::generate(&GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "IND", "USA", "TUR", "ARG", "IDN"]),
        scale: 1_000,
        dud_fraction: 0.0,
        ..GenConfig::default()
    })
}

/// A dense world where whole-/24 middleboxes materialize (Figure 8 needs
/// per-country populations in the hundreds).
pub fn density_world() -> Internet {
    inetgen::generate(&GenConfig::density_scale())
}

/// A tiny world for hot-loop measurement (criterion iterations rebuild
/// worlds, so they must be cheap).
pub fn tiny_world() -> Internet {
    inetgen::generate(&GenConfig {
        countries: CountrySelection::Codes(vec!["MUS", "FSM"]),
        scale: 1_000,
        dud_fraction: 0.0,
        ..GenConfig::default()
    })
}

/// Standard criterion settings: small samples, short measurement — the
/// pipelines under test are seconds-long end-to-end runs.
pub fn criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

/// Print a bench banner.
pub fn banner(what: &str, paper: &str) {
    println!("\n================================================================");
    println!("Reproducing {what}");
    println!("Paper reference: {paper}");
    println!("================================================================");
}

/// Path of the shared perf artifact: `BENCH_simcore.json` at the root of
/// the workspace the bench runs in, found from the working directory at
/// run time, so a bench binary built in one checkout and run in another
/// writes into the one it runs in. `BENCH_SIMCORE_OUT` overrides it.
pub fn bench_artifact_path() -> String {
    // detlint::allow(env-dependent): the artifact path is harness
    // plumbing (where results land), not measured behaviour.
    std::env::var("BENCH_SIMCORE_OUT").unwrap_or_else(|_| {
        let cwd = std::env::current_dir().unwrap_or_default();
        artifact_path_from(&cwd).to_string_lossy().into_owned()
    })
}

/// `BENCH_simcore.json` in the nearest directory at or above `dir` whose
/// `Cargo.toml` declares a `[workspace]`, or in `dir` if none does.
fn artifact_path_from(dir: &Path) -> PathBuf {
    let is_workspace_root = |d: &&Path| {
        std::fs::read_to_string(d.join("Cargo.toml"))
            .is_ok_and(|toml| toml.lines().any(|line| line.trim() == "[workspace]"))
    };
    dir.ancestors()
        .find(is_workspace_root)
        .unwrap_or(dir)
        .join("BENCH_simcore.json")
}

/// Whether a bench's quick mode is requested via its `*_QUICK` switch
/// (e.g. `BENCH_SIMCORE_QUICK=1`). The single sanctioned env read for
/// mode switching: quick mode trims iteration counts, never results —
/// sections it produces are tagged `"mode": "quick"` and kept apart from
/// full-scale measurements by [`merge_bench_section`].
pub fn quick_mode(key: &str) -> bool {
    // detlint::allow(env-dependent): harness mode switch, not measured
    // behaviour; quick sections never overwrite full ones.
    std::env::var_os(key).is_some()
}

/// Merge one named section into the shared perf artifact.
///
/// The artifact is a flat JSON object of per-bench sections (plus a
/// `schema` tag). Each bench owns one key and rewrites only its own
/// section, so the `hotpath` and `dnsroute` measurements can run in any
/// order — or alone — and the uploaded artifact always carries every
/// section that has been produced. Returns the path written.
///
/// Sections are mode-aware: a `"mode": "quick"` section never overwrites
/// an existing `"mode": "full"` section at the same key. It lands beside
/// it, at `<key>_quick` — so a CI quick run can refresh its own data
/// point every push without ever clobbering the committed full-scale
/// measurement it is compared against.
pub fn merge_bench_section(key: &str, section_json: &str) -> std::io::Result<String> {
    let path = bench_artifact_path();
    merge_bench_section_at(&path, key, section_json)?;
    Ok(path)
}

/// [`merge_bench_section`] against an explicit artifact path (the public
/// entry point resolves the path from `BENCH_SIMCORE_OUT`).
pub fn merge_bench_section_at(path: &str, key: &str, section_json: &str) -> std::io::Result<()> {
    let mut sections = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| parse_sections(&s))
        .unwrap_or_default();
    let existing_mode = sections
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| section_mode(v));
    let target_key = match (section_mode(section_json), existing_mode) {
        // Quick must not clobber full: land beside it instead.
        (Some("quick"), Some("full")) => format!("{key}_quick"),
        _ => key.to_string(),
    };
    match sections.iter_mut().find(|(k, _)| *k == target_key) {
        Some((_, v)) => *v = section_json.to_string(),
        None => sections.push((target_key, section_json.to_string())),
    }
    let mut out = String::from("{\n  \"schema\": 2");
    for (k, v) in &sections {
        out.push_str(",\n  \"");
        out.push_str(k);
        out.push_str("\": ");
        out.push_str(v.trim());
    }
    out.push_str("\n}\n");
    std::fs::write(path, out)
}

/// The `"mode"` tag of a section, if it carries one. Sections are this
/// crate's own output format, so a targeted scan is exact: the key
/// appears once, as `"mode": "<value>"`.
fn section_mode(section: &str) -> Option<&str> {
    let rest = &section[section.find("\"mode\"")? + "\"mode\"".len()..];
    let rest = rest.trim_start().strip_prefix(':')?;
    let rest = rest.trim_start().strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// The `"sweeps"` rows of a scaling section, as `(shards, throughput)`
/// pairs — throughput being each row's first `*_per_second` field. Rows
/// missing either field are skipped.
pub fn section_sweeps(section: &str) -> Vec<(u32, f64)> {
    let mut rows = Vec::new();
    let Some(i) = section.find("\"sweeps\"") else {
        return rows;
    };
    let rest = &section[i..];
    let Some(open) = rest.find('[') else {
        return rows;
    };
    let Some(close) = rest[open..].find(']') else {
        return rows;
    };
    for chunk in rest[open + 1..open + close].split('{').skip(1) {
        let obj = chunk.split('}').next().unwrap_or("");
        let shards = obj
            .find("\"shards\"")
            .and_then(|j| number_after_colon(&obj[j..]));
        let throughput = obj
            .find("_per_second\"")
            .and_then(|j| number_after_colon(&obj[j..]));
        if let (Some(shards), Some(throughput)) = (shards, throughput) {
            rows.push((shards as u32, throughput));
        }
    }
    rows
}

/// A scaling section's K-scaling ratio: max-K throughput over min-K
/// throughput. `None` unless the section sweeps at least two distinct
/// shard counts with positive baseline throughput.
pub fn scaling_ratio(section: &str) -> Option<f64> {
    let sweeps = section_sweeps(section);
    let min = sweeps.iter().min_by_key(|(k, _)| *k)?;
    let max = sweeps.iter().max_by_key(|(k, _)| *k)?;
    (max.0 > min.0 && min.1 > 0.0).then(|| max.1 / min.1)
}

/// The steady-state throughput of a hotpath section: the
/// `"probes_per_second"` field inside its `"steady"` object. `None` for
/// sections without a steady block (e.g. scaling sweeps).
pub fn hotpath_steady_probes_per_sec(section: &str) -> Option<f64> {
    let rest = &section[section.find("\"steady\"")?..];
    let j = rest.find("\"probes_per_second\"")?;
    number_after_colon(&rest[j..])
}

fn number_after_colon(s: &str) -> Option<f64> {
    let rest = s[s.find(':')? + 1..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Minimal parser for the artifact's own output format: a top-level JSON
/// object tagged `"schema": 2` with string keys and balanced-brace
/// values. Anything unexpected — malformed input *or* the flat schema-1
/// format, whose top-level keys are measurements rather than sections —
/// yields `None` and the caller starts a fresh artifact. Public so the
/// `scaling_gate` binary can compare a fresh artifact against a baseline.
pub fn parse_sections(s: &str) -> Option<Vec<(String, String)>> {
    let b = s.as_bytes();
    let mut i = 0usize;
    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    skip_ws(b, &mut i);
    if i >= b.len() || b[i] != b'{' {
        return None;
    }
    i += 1;
    let mut schema_2 = false;
    let mut sections = Vec::new();
    loop {
        skip_ws(b, &mut i);
        if i < b.len() && b[i] == b'}' {
            return schema_2.then_some(sections);
        }
        if i >= b.len() || b[i] != b'"' {
            return None;
        }
        i += 1;
        let key_start = i;
        while i < b.len() && b[i] != b'"' {
            i += 1;
        }
        if i >= b.len() {
            return None;
        }
        let key = s[key_start..i].to_string();
        i += 1;
        skip_ws(b, &mut i);
        if i >= b.len() || b[i] != b':' {
            return None;
        }
        i += 1;
        skip_ws(b, &mut i);
        let value_start = i;
        let mut depth = 0i32;
        let mut in_str = false;
        let mut escaped = false;
        while i < b.len() {
            let c = b[i];
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == b'\\' {
                    escaped = true;
                } else if c == b'"' {
                    in_str = false;
                }
            } else if c == b'"' {
                in_str = true;
            } else if c == b'{' || c == b'[' {
                depth += 1;
            } else if c == b'}' || c == b']' {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if c == b',' && depth == 0 {
                break;
            }
            i += 1;
        }
        if i >= b.len() {
            return None;
        }
        let value = s[value_start..i].trim().to_string();
        // `schema` is regenerated on every write, not a section — but it
        // must identify the sectioned format, or the old flat schema-1
        // keys would leak into the rewritten artifact as bogus sections.
        if key == "schema" {
            schema_2 = value == "2";
        } else {
            sections.push((key, value));
        }
        if b[i] == b',' {
            i += 1;
            continue;
        }
        // b[i] == b'}' closes the object.
        return schema_2.then_some(sections);
    }
}

#[cfg(test)]
mod tests {
    use super::{
        artifact_path_from, merge_bench_section_at, parse_sections, scaling_ratio, section_mode,
        section_sweeps,
    };

    fn artifact_keys(path: &str) -> Vec<String> {
        let doc = std::fs::read_to_string(path).unwrap();
        parse_sections(&doc)
            .expect("artifact parses")
            .into_iter()
            .map(|(k, _)| k)
            .collect()
    }

    fn section_of<'a>(sections: &'a [(String, String)], key: &str) -> &'a str {
        &sections.iter().find(|(k, _)| k == key).unwrap().1
    }

    #[test]
    fn artifact_path_resolves_to_the_enclosing_workspace_root() {
        let root = std::env::temp_dir().join("bench_artifact_path_test");
        let _ = std::fs::remove_dir_all(&root);
        let ws = root.join("checkout");
        let member_src = ws.join("crates").join("member").join("src");
        std::fs::create_dir_all(&member_src).unwrap();
        std::fs::write(
            ws.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/member\"]\n",
        )
        .unwrap();
        std::fs::write(
            ws.join("crates").join("member").join("Cargo.toml"),
            "[package]\nname = \"member\"\n",
        )
        .unwrap();
        let expected = ws.join("BENCH_simcore.json");
        assert_eq!(artifact_path_from(&ws), expected);
        assert_eq!(artifact_path_from(&member_src), expected);
        assert_eq!(artifact_path_from(&ws.join("crates")), expected);
        // Outside any workspace the artifact lands in the directory itself.
        let loose = root.join("loose");
        std::fs::create_dir_all(&loose).unwrap();
        assert_eq!(artifact_path_from(&loose), loose.join("BENCH_simcore.json"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn quick_lands_beside_full_never_on_top_of_it() {
        let dir = std::env::temp_dir().join("bench_mode_merge_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        let full = "{ \"bench\": \"x\", \"mode\": \"full\", \"sweeps\": [] }";
        let quick = "{ \"bench\": \"x\", \"mode\": \"quick\", \"sweeps\": [] }";
        let quick2 = "{ \"bench\": \"x\", \"mode\": \"quick\", \"n\": 2 }";

        // A quick section with no full predecessor owns the base key…
        merge_bench_section_at(path, "dnsroute", quick).unwrap();
        assert_eq!(artifact_keys(path), ["dnsroute"]);
        // …and a full run overwrites it there.
        merge_bench_section_at(path, "dnsroute", full).unwrap();
        let doc = std::fs::read_to_string(path).unwrap();
        let sections = parse_sections(&doc).unwrap();
        assert_eq!(
            section_mode(section_of(&sections, "dnsroute")),
            Some("full")
        );

        // Quick after full: the full section survives untouched, the
        // quick data point lands at `<key>_quick`.
        merge_bench_section_at(path, "dnsroute", quick).unwrap();
        let doc = std::fs::read_to_string(path).unwrap();
        let sections = parse_sections(&doc).unwrap();
        assert_eq!(
            section_mode(section_of(&sections, "dnsroute")),
            Some("full")
        );
        assert_eq!(
            section_mode(section_of(&sections, "dnsroute_quick")),
            Some("quick")
        );

        // Repeated quick runs refresh `<key>_quick` in place.
        merge_bench_section_at(path, "dnsroute", quick2).unwrap();
        let doc = std::fs::read_to_string(path).unwrap();
        let sections = parse_sections(&doc).unwrap();
        assert_eq!(artifact_keys(path), ["dnsroute", "dnsroute_quick"]);
        assert!(section_of(&sections, "dnsroute_quick").contains("\"n\": 2"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn sweep_rows_and_scaling_ratio_parse() {
        let section = "{ \"mode\": \"full\", \"sweeps\": [\n  { \"shards\": 1, \"traces_per_second\": 1000, \"elapsed_seconds\": 1.5 },\n  { \"shards\": 8, \"traces_per_second\": 3500, \"elapsed_seconds\": 0.4 }\n] }";
        assert_eq!(section_sweeps(section), vec![(1, 1000.0), (8, 3500.0)]);
        assert!((scaling_ratio(section).unwrap() - 3.5).abs() < 1e-9);
        assert_eq!(section_mode(section), Some("full"));
        // Degenerate sections yield no ratio rather than a bogus one.
        assert_eq!(scaling_ratio("{ \"sweeps\": [] }"), None);
        assert_eq!(
            scaling_ratio("{ \"sweeps\": [ { \"shards\": 2, \"x_per_second\": 5 } ] }"),
            None,
            "one shard count is not a scaling curve"
        );
    }

    #[test]
    fn hotpath_steady_throughput_parses() {
        use super::hotpath_steady_probes_per_sec;
        let section = "{ \"mode\": \"full\", \"answered_probes\": 26000, \"steady\": { \"probes_per_second\": 1345946, \"events_per_second\": 3830769 } }";
        assert!((hotpath_steady_probes_per_sec(section).unwrap() - 1_345_946.0).abs() < 1e-9);
        // No steady block, or a steady block without the field: no number.
        assert_eq!(hotpath_steady_probes_per_sec("{ \"sweeps\": [] }"), None);
        assert_eq!(
            hotpath_steady_probes_per_sec("{ \"steady\": { \"events_per_second\": 5 } }"),
            None
        );
    }

    #[test]
    fn sections_roundtrip() {
        let doc = "{\n  \"schema\": 2,\n  \"hotpath\": {\n    \"probes_per_second\": 1000,\n    \"nested\": { \"a\": [1, 2, 3], \"s\": \"b}r{ace\" }\n  },\n  \"dnsroute\": { \"traces_per_second\": 42.5 }\n}\n";
        let sections = parse_sections(doc).expect("parses");
        assert_eq!(sections.len(), 2, "schema dropped: {sections:?}");
        assert_eq!(sections[0].0, "hotpath");
        assert!(sections[0].1.contains("\"probes_per_second\": 1000"));
        assert_eq!(sections[1].0, "dnsroute");
        assert_eq!(sections[1].1, "{ \"traces_per_second\": 42.5 }");
    }

    #[test]
    fn garbage_yields_none() {
        assert_eq!(parse_sections(""), None);
        assert_eq!(parse_sections("not json"), None);
        assert_eq!(parse_sections("{ \"unterminated\": {"), None);
    }

    #[test]
    fn flat_schema1_artifact_discarded() {
        // The pre-section format: top-level keys are measurements. They
        // must not survive as sections of the rewritten artifact.
        let old = "{\n  \"schema\": 1,\n  \"bench\": \"micro_simcore/hotpath\",\n  \"steady\": { \"probes_per_second\": 985000 }\n}\n";
        assert_eq!(parse_sections(old), None);
        let untagged = "{ \"hotpath\": { \"a\": 1 } }";
        assert_eq!(parse_sections(untagged), None);
    }
}
