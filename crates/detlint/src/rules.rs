//! The determinism rule registry and the token-level matchers.
//!
//! Every rule is conservative: it over-approximates (a `.spawn(` call on
//! any receiver is flagged, every `HashMap` token in an ordered-output
//! module is flagged) and relies on justified suppressions for the rare
//! benign site. That bias is deliberate — a silent miss costs a flaky
//! determinism suite weeks later; a false positive costs one comment.

use crate::lexer::{Comment, Lexed, Tok};

/// A registered rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
}

/// The rule table. Doc tables are unit-tested against this list, so a
/// new rule must be registered here and documented in README.md.
pub const RULES: &[Rule] = &[
    Rule {
        id: "wall-clock",
        summary: "Instant::now / SystemTime::now — real time leaking into simulated time",
    },
    Rule {
        id: "unseeded-rng",
        summary:
            "thread_rng / from_entropy / OsRng / rand::random — OS entropy instead of a seeded RNG",
    },
    Rule {
        id: "unordered-iter",
        summary: "HashMap / HashSet inside a designated ordered-output module",
    },
    Rule {
        id: "env-dependent",
        summary: "env::var* / option_env! — behaviour keyed to the process environment",
    },
    Rule {
        id: "ad-hoc-spawn",
        summary: "thread::spawn / .spawn() outside the sanctioned ShardWorldCache worker pool",
    },
    Rule {
        id: "derive-hash-key",
        summary: "floating-point key type in a map or set",
    },
    Rule {
        id: "fault-draw",
        summary: "gen_bool / gen_ratio — ad-hoc probability draw outside the netsim::fault plane",
    },
    Rule {
        id: "bad-suppression",
        summary: "detlint::allow without a justification, or naming an unknown rule",
    },
    Rule {
        id: "unused-suppression",
        summary: "detlint::allow that suppresses no finding",
    },
];

/// Is `id` a registered rule?
pub fn is_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// One raw (pre-suppression) finding inside a single file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFinding {
    pub rule: &'static str,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// Run all syntactic rules over one lexed file. `ordered` enables the
/// `unordered-iter` rule (designated report/merge surfaces only).
pub fn run_rules(lexed: &Lexed, ordered: bool) -> Vec<RawFinding> {
    let t = &lexed.tokens;
    let ident = |k: usize| match t.get(k).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct =
        |k: usize, c: char| matches!(t.get(k).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c);
    let sep = |k: usize| matches!(t.get(k).map(|t| &t.tok), Some(Tok::Sep));
    // `name` is the final path segment at index i; is the previous
    // segment one of `heads` (e.g. `Instant` in `std::time::Instant::now`)?
    let path_head = |i: usize, heads: &[&str]| -> bool {
        i >= 2 && sep(i - 1) && ident(i - 2).map(|h| heads.contains(&h)).unwrap_or(false)
    };

    let mut out: Vec<RawFinding> = Vec::new();
    let mut push = |rule: &'static str, i: usize, message: String| {
        out.push(RawFinding {
            rule,
            line: t[i].line,
            col: t[i].col,
            message,
        });
    };

    for i in 0..t.len() {
        let Some(name) = ident(i) else { continue };
        match name {
            "now" if path_head(i, &["Instant", "SystemTime"]) => {
                let head = ident(i - 2).unwrap_or("?");
                push(
                    "wall-clock",
                    i - 2,
                    format!("`{head}::now()` reads the wall clock; derive time from `SimTime`"),
                );
            }
            "thread_rng" | "from_entropy" | "OsRng" => {
                push(
                    "unseeded-rng",
                    i,
                    format!("`{name}` draws OS entropy; use the vendored seeded `SmallRng`"),
                );
            }
            "random" if path_head(i, &["rand"]) => {
                push(
                    "unseeded-rng",
                    i - 2,
                    "`rand::random` draws OS entropy; use the vendored seeded `SmallRng`".into(),
                );
            }
            "var" | "var_os" | "vars" | "vars_os" if path_head(i, &["env"]) => {
                push(
                    "env-dependent",
                    i - 2,
                    format!("`env::{name}` makes behaviour depend on the process environment"),
                );
            }
            "option_env" if punct(i + 1, '!') => {
                push(
                    "env-dependent",
                    i,
                    "`option_env!` bakes the build environment into behaviour".into(),
                );
            }
            "gen_bool" | "gen_ratio" => {
                push(
                    "fault-draw",
                    i,
                    format!(
                        "`{name}` draws a probability ad hoc; packet-fate decisions must be \
                         flow-keyed through `netsim::fault` (`FaultPlan::decide`) so a lossy \
                         run stays bit-identical at any shard count"
                    ),
                );
            }
            "spawn" if path_head(i, &["thread"]) => {
                push(
                    "ad-hoc-spawn",
                    i - 2,
                    "`thread::spawn` outside the sanctioned `inetgen::ShardWorldCache` worker pool"
                        .into(),
                );
            }
            "spawn" if i >= 1 && punct(i - 1, '.') && punct(i + 1, '(') => {
                push(
                    "ad-hoc-spawn",
                    i,
                    "`.spawn()` outside the sanctioned `inetgen::ShardWorldCache` worker pool"
                        .into(),
                );
            }
            "HashMap" | "HashSet" | "BTreeMap" | "BTreeSet" => {
                if ordered && (name == "HashMap" || name == "HashSet") {
                    push(
                        "unordered-iter",
                        i,
                        format!(
                            "`{name}` in an ordered-output module; its iteration order can leak \
                             into a report/merge surface — use BTreeMap/BTreeSet or sort before \
                             emitting"
                        ),
                    );
                }
                // Float key check: `Map<f64, …>` / `Map::<f64, …>`,
                // skipping references and lifetimes after the `<`.
                let mut j = i + 1;
                if sep(j) {
                    j += 1; // turbofish
                }
                if punct(j, '<') {
                    j += 1;
                    while punct(j, '&') || matches!(t.get(j).map(|t| &t.tok), Some(Tok::Lifetime)) {
                        j += 1;
                    }
                    if let Some(key @ ("f32" | "f64")) = ident(j) {
                        push(
                            "derive-hash-key",
                            i,
                            format!(
                                "floating-point key `{key}` in `{name}`; NaN and signed zero \
                                 make float keys a determinism hazard"
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// A parsed suppression directive: the allow marker plus a parenthesised
/// rule list and a mandatory `: justification`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    pub line: u32,
    pub col: u32,
    /// Rule ids named in the parentheses.
    pub rules: Vec<String>,
    /// The mandatory free-text justification after the rule list.
    pub justification: Option<String>,
    /// The code line the directive applies to (its own line when the
    /// comment trails code; otherwise the next line carrying code).
    pub target: Option<u32>,
    /// Parse problem, reported as a `bad-suppression` finding.
    pub error: Option<String>,
}

/// Extract every suppression directive from a file's comments.
pub fn directives(lexed: &Lexed) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("detlint::allow") {
            rest = &rest[pos + "detlint::allow".len()..];
            out.push(parse_directive(c, rest, lexed));
        }
    }
    out
}

fn parse_directive(c: &Comment, after_allow: &str, lexed: &Lexed) -> Directive {
    let target = if c.trailing {
        Some(c.line)
    } else {
        // `>= line` also covers a block-comment directive with code
        // after it on the same line.
        lexed.next_code_line(c.line)
    };
    let mut d = Directive {
        line: c.line,
        col: c.col,
        rules: Vec::new(),
        justification: None,
        target,
        error: None,
    };
    let Some(open) = after_allow.strip_prefix('(') else {
        d.error = Some("expected `(` after `detlint::allow`".into());
        return d;
    };
    let Some(close) = open.find(')') else {
        d.error = Some("unclosed `(` in `detlint::allow`".into());
        return d;
    };
    for id in open[..close].split(',') {
        let id = id.trim();
        if id.is_empty() {
            continue;
        }
        if !is_rule(id) {
            d.error = Some(format!("unknown rule `{id}`"));
        }
        d.rules.push(id.to_string());
    }
    if d.rules.is_empty() && d.error.is_none() {
        d.error = Some("empty rule list".into());
    }
    // The justification is mandatory: `): <why>` (or an em/en dash).
    let after = open[close + 1..].trim_start();
    let just = after
        .strip_prefix(':')
        .or_else(|| after.strip_prefix('—'))
        .or_else(|| after.strip_prefix("--"))
        .or_else(|| after.strip_prefix('-'))
        .map(str::trim)
        .filter(|s| !s.is_empty());
    match just {
        Some(text) => d.justification = Some(text.to_string()),
        None if d.error.is_none() => {
            d.error =
                Some("missing justification — write `// detlint::allow(<rule>): <why>`".into());
        }
        None => {}
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn rules_on(src: &str, ordered: bool) -> Vec<(String, u32)> {
        run_rules(&lex(src), ordered)
            .into_iter()
            .map(|f| (f.rule.to_string(), f.line))
            .collect()
    }

    #[test]
    fn wall_clock_both_clocks() {
        let found = rules_on(
            "let a = std::time::Instant::now();\nlet b = SystemTime::now();",
            false,
        );
        assert_eq!(
            found,
            vec![("wall-clock".to_string(), 1), ("wall-clock".to_string(), 2)]
        );
    }

    #[test]
    fn wall_clock_inside_string_is_ignored() {
        assert!(rules_on(r#"let s = "Instant::now()";"#, false).is_empty());
        assert!(rules_on("// Instant::now() in prose\nlet x = 1;", false).is_empty());
    }

    #[test]
    fn unseeded_rng_variants() {
        let found = rules_on(
            "let r = thread_rng();\nlet s = SmallRng::from_entropy();\nlet v: u8 = rand::random();",
            false,
        );
        assert_eq!(found.len(), 3);
        assert!(found.iter().all(|(r, _)| r == "unseeded-rng"));
    }

    #[test]
    fn seeded_rng_is_fine() {
        assert!(rules_on("let r = SmallRng::seed_from_u64(7);", false).is_empty());
    }

    #[test]
    fn fault_draw_variants() {
        let found = rules_on(
            "if rng.gen_bool(0.1) { drop(pkt); }\nlet dup = rng.gen_ratio(1, 20);",
            false,
        );
        assert_eq!(
            found,
            vec![("fault-draw".to_string(), 1), ("fault-draw".to_string(), 2)]
        );
    }

    #[test]
    fn flow_keyed_fault_decision_is_fine() {
        assert!(rules_on("let v = plan.decide(&key, country, kind);", false).is_empty());
        assert!(rules_on(r#"let s = "gen_bool in prose";"#, false).is_empty());
    }

    #[test]
    fn env_dependent_paths() {
        let found = rules_on(
            "let a = std::env::var(\"X\");\nlet b = env::var_os(\"Y\");\nlet c = option_env!(\"Z\");",
            false,
        );
        assert_eq!(found.len(), 3);
        assert!(found.iter().all(|(r, _)| r == "env-dependent"));
        // args/temp_dir are not environment *values* — unmatched.
        assert!(rules_on("let a = std::env::args();", false).is_empty());
    }

    #[test]
    fn spawn_paths_and_methods() {
        let found = rules_on("std::thread::spawn(|| {});\nscope.spawn(|| {});", false);
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|(r, _)| r == "ad-hoc-spawn"));
        // A field or path named spawn without a call is not flagged.
        assert!(rules_on("let spawn = 3; use x::spawn;", false).is_empty());
    }

    #[test]
    fn unordered_iter_only_in_ordered_modules() {
        let src = "use std::collections::HashMap;\nlet m: HashSet<u32> = HashSet::new();";
        assert!(rules_on(src, false).is_empty());
        let found = rules_on(src, true);
        assert_eq!(found.len(), 3);
        assert!(found.iter().all(|(r, _)| r == "unordered-iter"));
    }

    #[test]
    fn float_keys_flagged_everywhere() {
        let found = rules_on(
            "let a: HashMap<f64, u32> = HashMap::new();\nlet b = BTreeMap::<f32, ()>::new();",
            false,
        );
        let floats: Vec<_> = found
            .iter()
            .filter(|(r, _)| r == "derive-hash-key")
            .collect();
        assert_eq!(floats.len(), 2);
        // Value-position floats are fine.
        assert!(rules_on("let c: BTreeMap<u32, f64> = BTreeMap::new();", false).is_empty());
    }

    #[test]
    fn directive_parsing_with_justification() {
        let lexed = lex(
            "// detlint::allow(wall-clock): bench harness measures wall time\nlet t = Instant::now();",
        );
        let ds = directives(&lexed);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rules, vec!["wall-clock"]);
        assert_eq!(ds[0].target, Some(2));
        assert!(ds[0].error.is_none());
        assert_eq!(
            ds[0].justification.as_deref(),
            Some("bench harness measures wall time")
        );
    }

    #[test]
    fn directive_without_justification_is_an_error() {
        let lexed = lex("// detlint::allow(wall-clock)\nlet t = Instant::now();");
        let ds = directives(&lexed);
        assert_eq!(ds.len(), 1);
        assert!(ds[0].error.as_deref().unwrap().contains("justification"));
    }

    #[test]
    fn directive_with_unknown_rule_is_an_error() {
        let lexed = lex("// detlint::allow(not-a-rule): because\nlet x = 1;");
        let ds = directives(&lexed);
        assert!(ds[0].error.as_deref().unwrap().contains("unknown rule"));
    }

    #[test]
    fn trailing_directive_targets_its_own_line() {
        let lexed =
            lex("let t = Instant::now(); // detlint::allow(wall-clock): timing shim internals");
        let ds = directives(&lexed);
        assert_eq!(ds[0].target, Some(1));
    }

    #[test]
    fn standalone_directive_skips_comment_lines() {
        let lexed = lex(
            "// detlint::allow(wall-clock): the next code line, two comment\n// lines down, is the target\nlet t = Instant::now();",
        );
        let ds = directives(&lexed);
        assert_eq!(ds[0].target, Some(3));
    }

    #[test]
    fn multi_rule_directive() {
        let lexed =
            lex("// detlint::allow(wall-clock, env-dependent): harness plumbing\nlet x = 1;");
        let ds = directives(&lexed);
        assert_eq!(ds[0].rules, vec!["wall-clock", "env-dependent"]);
        assert!(ds[0].error.is_none());
    }
}
