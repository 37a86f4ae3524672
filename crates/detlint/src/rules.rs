//! The determinism rule set (DESIGN.md §11) and the engine that applies
//! it to one lexed file.
//!
//! | rule | hazard | fix |
//! |------|--------|-----|
//! | R1 | `HashMap`/`HashSet` — iteration order varies per process | `BTreeMap`/`BTreeSet` |
//! | R2 | wall clock / ambient randomness (`Instant`, `SystemTime`, `thread_rng`, `rand::random`) | virtual time + seeded RNG |
//! | R3 | `partial_cmp` on floats — NaN makes comparators panic or lie | `total_cmp` |
//! | R4 | unchecked `+`/`-`/`as` in a schedule-call time argument | `Ns::saturating_add`/`saturating_sub` |
//! | R5 | `encode(` inside an `on_packet` body — serializing on the hot path | typed packets; encode at trace/golden time only |
//!
//! Every rule can be suppressed inline with
//! `// detlint: allow(Rn) -- reason`; the reason is mandatory and the
//! report echoes it, so each suppression is an audited artifact.

use crate::config::Config;
use crate::lexer::{Directive, Kind, Lexed, Token};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`R1`..`R5`, or a `directive-*` hygiene id).
    pub rule: String,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human explanation with the suggested fix.
    pub message: String,
}

/// One honoured suppression (echoed in every report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rule that was allowed.
    pub rule: String,
    /// File containing the directive.
    pub file: String,
    /// Line of the suppressed finding.
    pub line: u32,
    /// The mandatory justification.
    pub reason: String,
}

/// Ids of the real rules, in report order.
pub const RULE_IDS: [&str; 5] = ["R1", "R2", "R3", "R4", "R5"];

/// One-line description per rule (for `--list-rules` and reports).
pub fn rule_summary(id: &str) -> &'static str {
    match id {
        "R1" => "no HashMap/HashSet in trace-affecting code (use BTreeMap/BTreeSet)",
        "R2" => "no wall clock or ambient randomness (Instant/SystemTime/thread_rng/rand::random)",
        "R3" => "no partial_cmp on float keys (use total_cmp)",
        "R4" => "no unchecked +/-/`as` in schedule-call time arguments (use Ns::saturating_*)",
        "R5" => "no encode() inside on_packet bodies (typed packets; encode only at trace time)",
        _ => "directive hygiene",
    }
}

/// A scheduling function R4 watches: its name and which argument index
/// carries the time value.
#[derive(Debug, Clone)]
pub struct ScheduleFn {
    /// Method or function name as written at the call site.
    pub name: String,
    /// Zero-based index of the time argument.
    pub time_arg: usize,
}

/// Per-rule configuration resolved from `detlint.toml`.
#[derive(Debug, Clone)]
pub struct RuleCfg {
    /// Whether the rule runs at all.
    pub enabled: bool,
    /// Path patterns (component subsequences) exempt from this rule.
    pub exclude: Vec<String>,
}

/// The full resolved rule set.
#[derive(Debug, Clone)]
pub struct RuleSet {
    /// R1..R5 keyed by index (0 = R1).
    pub rules: [RuleCfg; 5],
    /// R2 banned name patterns (`Ident` or `Ident::ident`).
    pub banned_time_rand: Vec<String>,
    /// R4 watched scheduling calls.
    pub schedule_fns: Vec<ScheduleFn>,
}

impl RuleSet {
    /// Resolve the rule set from a parsed config, applying defaults for
    /// anything unspecified.
    pub fn from_config(cfg: &Config) -> RuleSet {
        let rule = |id: &str| RuleCfg {
            enabled: cfg.bool(id, "enabled", true),
            exclude: cfg.list(id, "exclude", &[]),
        };
        let banned = cfg.list(
            "R2",
            "banned",
            &["Instant", "SystemTime", "thread_rng", "rand::random"],
        );
        let sched = cfg.list(
            "R4",
            "schedule_fns",
            &[
                "set_timer:0",
                "schedule_timer:1",
                "schedule_call:1",
                "schedule_link_admin:0",
                "schedule_node_admin:0",
                "send_after:0",
            ],
        );
        let schedule_fns = sched
            .iter()
            .filter_map(|s| {
                let (name, idx) = s.split_once(':')?;
                Some(ScheduleFn {
                    name: name.to_string(),
                    time_arg: idx.parse().ok()?,
                })
            })
            .collect();
        RuleSet {
            rules: [rule("R1"), rule("R2"), rule("R3"), rule("R4"), rule("R5")],
            banned_time_rand: banned,
            schedule_fns,
        }
    }

    fn cfg(&self, id: &str) -> &RuleCfg {
        let i = RULE_IDS.iter().position(|r| *r == id).expect("known rule");
        &self.rules[i]
    }

    /// Whether `id` applies to `path` (enabled and not excluded).
    pub fn applies(&self, id: &str, path: &str) -> bool {
        let c = self.cfg(id);
        c.enabled && !c.exclude.iter().any(|p| path_matches(path, p))
    }
}

/// Component-subsequence path matching: pattern `crates/bench` matches
/// any path containing the components `crates` then `bench` adjacently;
/// pattern `benches` matches any path with a `benches` component.
pub fn path_matches(path: &str, pattern: &str) -> bool {
    let pc: Vec<&str> = pattern.split('/').filter(|c| !c.is_empty()).collect();
    let hc: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
    if pc.is_empty() || pc.len() > hc.len() {
        return false;
    }
    (0..=hc.len() - pc.len()).any(|i| hc[i..i + pc.len()] == pc[..])
}

/// Run every applicable rule over one lexed file, returning raw
/// findings (suppressions not yet applied — see [`apply_directives`]).
pub fn scan_file(rules: &RuleSet, path: &str, lexed: &Lexed) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    if rules.applies("R1", path) {
        rule_r1(path, toks, &mut out);
    }
    if rules.applies("R2", path) {
        rule_r2(path, toks, &rules.banned_time_rand, &mut out);
    }
    if rules.applies("R3", path) {
        rule_r3(path, toks, &mut out);
    }
    if rules.applies("R4", path) {
        rule_r4(path, toks, &rules.schedule_fns, &mut out);
    }
    if rules.applies("R5", path) {
        rule_r5(path, toks, &mut out);
    }
    out
}

fn finding(rule: &str, path: &str, t: &Token, message: String) -> Finding {
    Finding {
        rule: rule.to_string(),
        file: path.to_string(),
        line: t.line,
        col: t.col,
        message,
    }
}

fn rule_r1(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for t in toks {
        if t.kind == Kind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            let ordered = if t.text == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            out.push(finding(
                "R1",
                path,
                t,
                format!(
                    "`{}` iterates in per-process order; use `{ordered}` (or prove order \
                     cannot reach traces and add `// detlint: allow(R1) -- why`)",
                    t.text
                ),
            ));
        }
    }
}

fn rule_r2(path: &str, toks: &[Token], banned: &[String], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Kind::Ident {
            continue;
        }
        for pat in banned {
            match pat.split_once("::") {
                None => {
                    if t.text == *pat {
                        out.push(finding(
                            "R2",
                            path,
                            t,
                            format!(
                                "`{pat}` is wall-clock/ambient state; runtime code must use \
                                 virtual time (`Ns`) and the seeded sim RNG"
                            ),
                        ));
                    }
                }
                Some((head, tail)) => {
                    if t.text == head
                        && toks.get(i + 1).is_some_and(|n| n.text == "::")
                        && toks.get(i + 2).is_some_and(|n| n.text == tail)
                    {
                        out.push(finding(
                            "R2",
                            path,
                            t,
                            format!(
                                "`{pat}` is ambient randomness; all randomness must flow \
                                 from the seeded sim RNG"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

fn rule_r3(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for t in toks {
        if t.kind == Kind::Ident && t.text == "partial_cmp" {
            out.push(finding(
                "R3",
                path,
                t,
                "`partial_cmp` on floats panics or lies on NaN; use `total_cmp` \
                 (PR 4 ZipfPicker convention)"
                    .to_string(),
            ));
        }
    }
}

fn rule_r4(path: &str, toks: &[Token], fns: &[ScheduleFn], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Kind::Ident {
            continue;
        }
        let Some(f) = fns.iter().find(|f| f.name == t.text) else {
            continue;
        };
        // Skip definitions (`fn set_timer(...)`) — only call sites count.
        if i > 0 && toks[i - 1].text == "fn" {
            continue;
        }
        let open = skip_turbofish(toks, i + 1);
        if toks.get(open).map(|n| n.text.as_str()) != Some("(") {
            continue;
        }
        // Walk the balanced argument list, tracking the top-level
        // argument index, and inspect the configured time argument.
        let mut depth = 0usize;
        let mut arg = 0usize;
        let mut j = open;
        let mut flagged = false;
        while j < toks.len() {
            let tj = &toks[j];
            match tj.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "," if depth == 1 => arg += 1,
                // `as` must be the keyword (Ident kind), not a fragment.
                "+" | "-" | "as"
                    if arg == f.time_arg
                        && !flagged
                        && (tj.text != "as" || tj.kind == Kind::Ident) =>
                {
                    flagged = true;
                    out.push(finding(
                        "R4",
                        path,
                        tj,
                        format!(
                            "unchecked `{}` in the time argument of `{}` can overflow \
                             the schedule; use `Ns::saturating_add`/`saturating_sub` \
                             (PR 1 convention)",
                            tj.text, f.name
                        ),
                    ));
                }
                _ => {}
            }
            j += 1;
        }
    }
}

/// The index just past a turbofish (`::<T>`) starting at `i`, or `i`
/// itself when there is none.
fn skip_turbofish(toks: &[Token], i: usize) -> usize {
    let text = |k: usize| toks.get(k).map(|t| t.text.as_str());
    if text(i) != Some("::") || text(i + 1) != Some("<") {
        return i;
    }
    let mut depth = 0isize;
    for (k, t) in toks.iter().enumerate().skip(i + 1) {
        depth += match t.text.as_str() {
            "<" => 1,
            ">" => -1,
            ">>" => -2,
            _ => 0,
        };
        if depth <= 0 {
            return k + 1;
        }
    }
    toks.len()
}

fn rule_r5(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    let mut i = 0usize;
    while i < toks.len() {
        let is_handler = toks[i].text == "on_packet" && i > 0 && toks[i - 1].text == "fn";
        if !is_handler {
            i += 1;
            continue;
        }
        // Skip the signature to the body's opening brace.
        let mut j = i + 1;
        let mut paren = 0usize;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                // `{` opens the body; `;` is a trait method without one.
                "{" | ";" if paren == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() || toks[j].text == ";" {
            i = j;
            continue;
        }
        // Walk the body.
        let mut brace = 1usize;
        j += 1;
        while j < toks.len() && brace > 0 {
            match toks[j].text.as_str() {
                "{" => brace += 1,
                "}" => brace -= 1,
                "encode"
                    if toks[j].kind == Kind::Ident
                        && toks.get(j + 1).map(|n| n.text.as_str()) == Some("(") =>
                {
                    out.push(finding(
                        "R5",
                        path,
                        &toks[j],
                        "`encode(` inside an `on_packet` body serializes on the \
                         per-packet hot path; carry typed packets and encode only \
                         at trace/golden time (PR 5 invariant)"
                            .to_string(),
                    ));
                }
                _ => {}
            }
            j += 1;
        }
        i = j;
    }
}

/// Apply suppression directives to raw findings: suppressed findings
/// move to the suppression list (with their mandatory reason); bad
/// directives (missing reason, malformed, or matching nothing) become
/// findings themselves, so suppressions can never rot silently.
pub fn apply_directives(
    path: &str,
    lexed: &Lexed,
    raw: Vec<Finding>,
) -> (Vec<Finding>, Vec<Suppression>) {
    // Resolve each standalone directive to the line it covers (the next
    // line bearing a token).
    struct Active<'a> {
        d: &'a Directive,
        covered_line: Option<u32>, // None = file scope
        used: bool,
    }
    let mut active: Vec<Active> = Vec::new();
    let mut findings = Vec::new();
    for d in &lexed.directives {
        if d.malformed {
            findings.push(Finding {
                rule: "directive-malformed".into(),
                file: path.into(),
                line: d.line,
                col: 1,
                message: "unrecognized detlint directive; expected \
                          `// detlint: allow(Rn[, Rm]) -- reason` or `allow-file`"
                    .into(),
            });
            continue;
        }
        if d.reason.is_none() {
            findings.push(Finding {
                rule: "directive-missing-reason".into(),
                file: path.into(),
                line: d.line,
                col: 1,
                message: "suppression without a reason; append `-- why this is safe` \
                          (reasons are echoed in every report)"
                    .into(),
            });
            continue;
        }
        let covered_line = if d.file_scope {
            None
        } else if d.trailing {
            Some(d.line)
        } else {
            lexed
                .tokens
                .iter()
                .find(|t| t.line > d.line)
                .map(|t| t.line)
        };
        active.push(Active {
            d,
            covered_line,
            used: false,
        });
    }

    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    for f in raw {
        let slot = active
            .iter_mut()
            .find(|a| a.d.rules.contains(&f.rule) && a.covered_line.is_none_or(|l| l == f.line));
        match slot {
            Some(a) => {
                a.used = true;
                suppressed.push(Suppression {
                    rule: f.rule,
                    file: f.file,
                    line: f.line,
                    reason: a.d.reason.clone().unwrap_or_default(),
                });
            }
            None => kept.push(f),
        }
    }
    for a in &active {
        if !a.used {
            findings.push(Finding {
                rule: "directive-unused".into(),
                file: path.into(),
                line: a.d.line,
                col: 1,
                message: format!(
                    "allow({}) suppresses nothing; delete the stale directive",
                    a.d.rules.join(", ")
                ),
            });
        }
    }
    findings.extend(kept);
    (findings, suppressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn set() -> RuleSet {
        RuleSet::from_config(&Config::parse("").unwrap())
    }

    fn scan(src: &str) -> (Vec<Finding>, Vec<Suppression>) {
        let lexed = lex(src);
        let raw = scan_file(&set(), "t.rs", &lexed);
        apply_directives("t.rs", &lexed, raw)
    }

    #[test]
    fn r1_fires_on_hash_collections() {
        let (f, _) = scan("use std::collections::HashMap;\nlet s: HashSet<u32>;");
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].rule, "R1");
        assert_eq!((f[0].line, f[1].line), (1, 2));
    }

    #[test]
    fn r2_fires_on_wall_clock_and_ambient_rng() {
        let (f, _) = scan("let t = Instant::now();\nlet x: u8 = rand::random();");
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == "R2"));
        // `random` without the `rand::` path prefix is fine.
        let (f, _) = scan("fn random() {}\nlet r = self.random();");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r3_fires_on_partial_cmp() {
        let (f, _) = scan("v.sort_by(|a, b| a.partial_cmp(b).unwrap());");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R3");
    }

    #[test]
    fn r4_checks_only_the_time_argument() {
        // `+` in the token argument (index 1) of set_timer is fine.
        let (f, _) = scan("ctx.set_timer(interval, token + 1);");
        assert!(f.is_empty(), "{f:?}");
        // `+` in the time argument is not.
        let (f, _) = scan("ctx.set_timer(base + jitter, 7);");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R4");
        // schedule_timer carries its time at index 1.
        let (f, _) = scan("sim.schedule_timer(node, Ns::from_ms(1 + t), t);");
        assert_eq!(f.len(), 1);
        // Saturating forms emit no operator token.
        let (f, _) = scan("ctx.set_timer(base.saturating_add(jitter), 7);");
        assert!(f.is_empty());
        // `as` casts in the time argument are flagged.
        let (f, _) = scan("ctx.set_timer(Ns(ms as u64), 7);");
        assert_eq!(f.len(), 1);
        // Definitions are not call sites.
        let (f, _) = scan("pub fn set_timer(&mut self, delay: Ns, token: u64) {}");
        assert!(f.is_empty(), "{f:?}");
        // A turbofish does not hide a call: schedule_call's time is
        // argument 1, and arithmetic inside its closure is fine.
        let (f, _) = scan("sim.schedule_call::<Vec<Pce>>(n, at + d, |p, c| p.f(c, k + 1));");
        assert_eq!(f.len(), 1, "{f:?}");
        let (f, _) = scan("sim.schedule_call::<Pce>(n, at, move |p, c| p.f(c, k + 1));");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r5_fires_only_inside_on_packet_bodies() {
        let src = "
            fn on_packet(&mut self, ctx: &mut Ctx, pkt: P) {
                let bytes = pkt.encode();
            }
            fn elsewhere(&self) { let b = p.encode(); }
        ";
        let (f, _) = scan(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R5");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn trailing_and_standalone_suppressions() {
        let (f, s) = scan("use std::collections::HashMap; // detlint: allow(R1) -- lookup only\n");
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].reason, "lookup only");

        let (f, s) =
            scan("// detlint: allow(R1) -- next-line form\nuse std::collections::HashMap;\n");
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn file_scope_suppression_covers_all_lines() {
        let src = "// detlint: allow-file(R1) -- interned index, never iterated\n\
                   use std::collections::HashMap;\nlet m: HashMap<u32, u32>;\n";
        let (f, s) = scan(src);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn directive_hygiene_is_enforced() {
        let (f, _) = scan("use std::collections::HashMap; // detlint: allow(R1)\n");
        assert!(f.iter().any(|f| f.rule == "directive-missing-reason"));
        assert!(f.iter().any(|f| f.rule == "R1"), "{f:?}");

        let (f, _) = scan("let x = 1; // detlint: allow(R1) -- nothing here fires\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "directive-unused");

        let (f, _) = scan("// detlint: please ignore\n");
        assert_eq!(f[0].rule, "directive-malformed");
    }

    #[test]
    fn path_matching_is_by_component() {
        assert!(path_matches("crates/bench/src/lib.rs", "crates/bench"));
        assert!(!path_matches("crates/benchfoo/src/lib.rs", "crates/bench"));
        assert!(path_matches("crates/netsim/benches/x.rs", "benches"));
        assert!(!path_matches("crates/netsim/src/benches.rs", "benches"));
    }
}
