//! Diagnostics: rule identities, the `Diagnostic` record, and the text /
//! JSON renderers. JSON is emitted by hand (the crate is dependency-free
//! by design — see ISSUE 9) with full string escaping.

use std::fmt;

/// The rule catalogue. `L000` is the meta-rule: a malformed `normlint`
/// directive (bad waiver, unmatched kernel marker) is itself an error —
/// a tool whose escape hatches fail silently enforces nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Malformed or unmatched `normlint` directive.
    L000,
    /// `.unwrap()`/`.expect()` on a lock result (poison-recovery invariant, PR 4).
    L001,
    /// `unsafe` outside an opted-in module, or without a `// SAFETY:` comment (PR 7).
    L002,
    /// Wall-clock, sleep or thread spawn in a value-path module (bit-identity
    /// invariant, PRs 2–3).
    L003,
    /// `/`, `sqrt`, `mul_add`, `recip` inside a kernel-marked region (PRs 7–8).
    L004,
    /// Second lock acquired while a shard guard is live (lock-order hazard, PR 4).
    L005,
    /// `NormError` variant missing from its `Display` impl (PR 1).
    L006,
    /// Condvar notify after an atomic store with no lock taken in between
    /// (lost wakeup).
    L007,
}

/// Every rule, in catalogue order.
pub const ALL_RULES: [RuleId; 8] = [
    RuleId::L000,
    RuleId::L001,
    RuleId::L002,
    RuleId::L003,
    RuleId::L004,
    RuleId::L005,
    RuleId::L006,
    RuleId::L007,
];

impl RuleId {
    /// The rule's code, e.g. `"L001"`.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::L000 => "L000",
            RuleId::L001 => "L001",
            RuleId::L002 => "L002",
            RuleId::L003 => "L003",
            RuleId::L004 => "L004",
            RuleId::L005 => "L005",
            RuleId::L006 => "L006",
            RuleId::L007 => "L007",
        }
    }

    /// One-line description used by `--help` and the JSON output.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::L000 => "malformed or unmatched normlint directive",
            RuleId::L001 => "unwrap/expect on a lock result defeats poison recovery",
            RuleId::L002 => "unsafe requires module opt-in and a SAFETY comment",
            RuleId::L003 => "wall-clock, sleep or thread spawn in a value-path module",
            RuleId::L004 => "div/sqrt/fma inside a kernel-marked region",
            RuleId::L005 => "second lock acquired while a shard guard is live",
            RuleId::L006 => "NormError variant missing from Display",
            RuleId::L007 => "condvar notify after an atomic store with no lock in between",
        }
    }

    /// Parse `"L001"` (case-insensitive) into a rule id.
    pub fn parse(s: &str) -> Option<RuleId> {
        ALL_RULES
            .iter()
            .copied()
            .find(|r| r.code().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding: a rule, a location, and a message.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// Human-readable explanation of the finding.
    pub message: String,
}

impl Diagnostic {
    /// `path:line:col: [L00X] message` — the golden-fixture format.
    pub fn render_text(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

/// Render diagnostics as a JSON array (stable field order, escaped).
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!("\"rule\":\"{}\",", d.rule));
        out.push_str(&format!(
            "\"summary\":\"{}\",",
            escape_json(d.rule.summary())
        ));
        out.push_str(&format!("\"path\":\"{}\",", escape_json(&d.path)));
        out.push_str(&format!("\"line\":{},\"col\":{},", d.line, d.col));
        out.push_str(&format!("\"message\":\"{}\"", escape_json(&d.message)));
        out.push('}');
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_format_is_stable() {
        let d = Diagnostic {
            rule: RuleId::L001,
            path: "crates/core/src/service.rs".into(),
            line: 12,
            col: 9,
            message: "poison".into(),
        };
        assert_eq!(
            d.render_text(),
            "crates/core/src/service.rs:12:9: [L001] poison"
        );
    }

    #[test]
    fn json_escapes_quotes() {
        let d = Diagnostic {
            rule: RuleId::L004,
            path: "a.rs".into(),
            line: 1,
            col: 1,
            message: "operator `/` in \"kernel\"".into(),
        };
        let json = render_json(&[d]);
        assert!(json.contains("\\\"kernel\\\""));
        assert!(json.starts_with('[') && json.ends_with(']'));
    }

    #[test]
    fn parse_round_trips() {
        for r in ALL_RULES {
            assert_eq!(RuleId::parse(r.code()), Some(r));
        }
        assert_eq!(RuleId::parse("l003"), Some(RuleId::L003));
        assert_eq!(RuleId::parse("L999"), None);
    }
}
