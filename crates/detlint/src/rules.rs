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
//! The scope is a constant: [`RULES`] names each rule with the paths it
//! never applies to, [`BANNED`] and [`SCHEDULE_FNS`] are R2's and R4's
//! watch lists, and [`SCAN_EXCLUDE`] names the trees no rule reads. No
//! finding can be waived, so a false positive is fixed in the rule,
//! with a fixture.

use crate::lexer::{Kind, Token};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`R1`..`R5`).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human explanation with the suggested fix.
    pub message: String,
}

/// One rule of the set.
pub struct Rule {
    /// Rule id, in report order.
    pub id: &'static str,
    /// One-line description (for `--list-rules`).
    pub summary: &'static str,
    /// Path patterns this rule never applies to, matched by
    /// [`path_matches`].
    pub exempt: &'static [&'static str],
    check: fn(&str, &[Token], &mut Vec<Finding>),
}

/// The rule set, R1..R5.
pub const RULES: [Rule; 5] = [
    Rule {
        id: "R1",
        summary: "no HashMap/HashSet in trace-affecting code (use BTreeMap/BTreeSet)",
        exempt: &[],
        check: rule_r1,
    },
    Rule {
        id: "R2",
        summary: "no wall clock or ambient randomness (Instant/SystemTime/thread_rng/rand::random)",
        // The repo benchmark measures real time by design.
        exempt: &["crates/bench"],
        check: rule_r2,
    },
    Rule {
        id: "R3",
        summary: "no partial_cmp on float keys (use total_cmp)",
        exempt: &[],
        check: rule_r3,
    },
    Rule {
        id: "R4",
        summary: "no unchecked +/-/`as` in schedule-call time arguments (use Ns::saturating_*)",
        exempt: &[],
        check: rule_r4,
    },
    Rule {
        id: "R5",
        summary: "no encode() inside on_packet bodies (typed packets; encode only at trace time)",
        exempt: &[],
        check: rule_r5,
    },
];

/// R2's banned names: a bare identifier, or `head::tail` as a path.
pub const BANNED: [&str; 4] = ["Instant", "SystemTime", "thread_rng", "rand::random"];

/// R4's watched scheduling calls: the name as written at the call site
/// and the zero-based index of its time argument.
pub const SCHEDULE_FNS: [(&str, usize); 6] = [
    ("set_timer", 0),
    ("schedule_timer", 1),
    ("schedule_call", 1),
    ("schedule_link_admin", 0),
    ("schedule_node_admin", 0),
    ("send_after", 0),
];

/// Paths no rule reads, matched by [`path_matches`]: vendored shims,
/// build output, and detlint's own bad-code fixtures (they exist to
/// violate the rules). Hidden directories (`.git`, `.bench_build`) are
/// skipped too.
pub const SCAN_EXCLUDE: [&str; 3] = ["vendor", "target", "crates/detlint/fixtures"];

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

/// Run every rule that applies to `path` over its tokens.
pub fn scan_file(path: &str, toks: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    for rule in &RULES {
        if !rule.exempt.iter().any(|p| path_matches(path, p)) {
            (rule.check)(path, toks, &mut out);
        }
    }
    out
}

fn finding(rule: &'static str, path: &str, t: &Token, message: String) -> Finding {
    Finding {
        rule,
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
                    "`{}` iterates in per-process order; use `{ordered}`",
                    t.text
                ),
            ));
        }
    }
}

fn rule_r2(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Kind::Ident {
            continue;
        }
        for pat in BANNED {
            match pat.split_once("::") {
                None => {
                    if t.text == pat {
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
    for (i, t) in toks.iter().enumerate() {
        // A `fn partial_cmp` definition (a hand-written `PartialOrd`)
        // is not a comparison; the calls in its body still are.
        if t.kind == Kind::Ident && t.text == "partial_cmp" && !is_definition(toks, i) {
            out.push(finding(
                "R3",
                path,
                t,
                "`partial_cmp` on floats panics or lies on NaN; use `total_cmp`".to_string(),
            ));
        }
    }
}

fn rule_r4(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Kind::Ident {
            continue;
        }
        let Some(&(name, time_arg)) = SCHEDULE_FNS.iter().find(|(n, _)| *n == t.text) else {
            continue;
        };
        // Skip definitions (`fn set_timer(...)`) — only call sites count.
        if is_definition(toks, i) {
            continue;
        }
        let open = skip_turbofish(toks, i + 1);
        if toks.get(open).map(|n| n.text.as_str()) != Some("(") {
            continue;
        }
        // Walk the balanced argument list, tracking the top-level
        // argument index, and inspect the time argument.
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
                    if arg == time_arg
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
                             the schedule; use `Ns::saturating_add`/`saturating_sub`",
                            tj.text, name
                        ),
                    ));
                }
                _ => {}
            }
            j += 1;
        }
    }
}

/// True when the identifier at `i` is named by a `fn` item, not called.
fn is_definition(toks: &[Token], i: usize) -> bool {
    i > 0 && toks[i - 1].text == "fn"
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
        let is_handler = toks[i].text == "on_packet" && is_definition(toks, i);
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
                         at trace/golden time"
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan(src: &str) -> Vec<Finding> {
        scan_file("t.rs", &lex(src))
    }

    #[test]
    fn r1_fires_on_hash_collections() {
        let f = scan("use std::collections::HashMap;\nlet s: HashSet<u32>;");
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].rule, "R1");
        assert_eq!((f[0].line, f[1].line), (1, 2));
    }

    #[test]
    fn r2_fires_on_wall_clock_and_ambient_rng() {
        let f = scan("let t = Instant::now();\nlet x: u8 = rand::random();");
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == "R2"));
        // `random` without the `rand::` path prefix is fine.
        let f = scan("fn random() {}\nlet r = self.random();");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r3_fires_on_partial_cmp() {
        let f = scan("v.sort_by(|a, b| a.partial_cmp(b).unwrap());");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R3");
        // A path call is still a call.
        let f = scan("v.sort_by(|a, b| f64::partial_cmp(a, b).unwrap());");
        assert_eq!(f.len(), 1, "{f:?}");
        // A definition is not, but its body is still scanned.
        let f = scan("fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) }");
        assert!(f.is_empty(), "{f:?}");
        let f = scan(
            "fn partial_cmp(&self, o: &Self) -> Option<Ordering> { self.x.partial_cmp(&o.x) }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].col, 62);
    }

    #[test]
    fn r4_checks_only_the_time_argument() {
        // `+` in the token argument (index 1) of set_timer is fine.
        let f = scan("ctx.set_timer(interval, token + 1);");
        assert!(f.is_empty(), "{f:?}");
        // `+` in the time argument is not.
        let f = scan("ctx.set_timer(base + jitter, 7);");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R4");
        // schedule_timer carries its time at index 1.
        let f = scan("sim.schedule_timer(node, Ns::from_ms(1 + t), t);");
        assert_eq!(f.len(), 1);
        // Saturating forms emit no operator token.
        let f = scan("ctx.set_timer(base.saturating_add(jitter), 7);");
        assert!(f.is_empty());
        // `as` casts in the time argument are flagged.
        let f = scan("ctx.set_timer(Ns(ms as u64), 7);");
        assert_eq!(f.len(), 1);
        // Definitions are not call sites.
        let f = scan("pub fn set_timer(&mut self, delay: Ns, token: u64) {}");
        assert!(f.is_empty(), "{f:?}");
        // A turbofish does not hide a call: schedule_call's time is
        // argument 1, and arithmetic inside its closure is fine.
        let f = scan("sim.schedule_call::<Vec<Pce>>(n, at + d, |p, c| p.f(c, k + 1));");
        assert_eq!(f.len(), 1, "{f:?}");
        let f = scan("sim.schedule_call::<Pce>(n, at, move |p, c| p.f(c, k + 1));");
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
        let f = scan(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R5");
        assert_eq!(f[0].line, 3);
    }

    /// A `detlint: allow` comment is a comment like any other: in the
    /// trailing or the standalone (next-line) form it waives nothing.
    #[test]
    fn trailing_and_standalone_suppressions() {
        let f = scan("use std::collections::HashMap; // detlint: allow(R1) -- lookup only\n");
        assert_eq!((f.len(), f[0].line), (1, 1), "{f:?}");
        let f = scan("// detlint: allow(R1) -- next-line form\nuse std::collections::HashMap;\n");
        assert_eq!((f.len(), f[0].line), (1, 2), "{f:?}");
    }

    /// The file-wide form waives nothing either: every line still reports.
    #[test]
    fn file_scope_suppression_covers_no_line() {
        let f = scan(
            "// detlint: allow-file(R1) -- whole file\nlet m: HashMap<u32, u32>;\nlet s: HashSet<u8>;\n",
        );
        let lines: Vec<u32> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, [2, 3], "{f:?}");
    }

    /// With no waiver engine there is no directive syntax to police: a
    /// malformed or reason-less allow comment is no finding of its own.
    #[test]
    fn malformed_directive_is_no_finding() {
        assert!(scan("// detlint: please ignore\n").is_empty());
        assert!(scan("// detlint: allow(R1)\nlet x = 1;\n").is_empty());
        assert!(scan("// detlint: allow(R9) -- unknown rule\nlet x = 1;\n").is_empty());
    }

    #[test]
    fn exemptions_are_per_rule() {
        let toks = lex("let t = Instant::now(); let m: HashMap<u8, u8>;");
        let f = scan_file("crates/bench/src/lib.rs", &toks);
        assert_eq!(f.iter().map(|f| f.rule).collect::<Vec<_>>(), ["R1"]);
        assert_eq!(scan_file("crates/benchfoo/src/lib.rs", &toks).len(), 2);
    }

    #[test]
    fn path_matching_is_by_component() {
        assert!(path_matches("crates/bench/src/lib.rs", "crates/bench"));
        assert!(!path_matches("crates/benchfoo/src/lib.rs", "crates/bench"));
        assert!(path_matches("crates/netsim/benches/x.rs", "benches"));
        assert!(!path_matches("crates/netsim/src/benches.rs", "benches"));
    }
}
