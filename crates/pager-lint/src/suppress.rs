//! Inline suppressions: a `lint:allow` comment naming rules, then a reason.
//!
//! An allow marker suppresses findings of the named rule on the
//! marker's own line(s) and on the line immediately following it —
//! covering both trailing-comment style and comment-above style:
//!
//! ```text
//! hits.fetch_add(1, Ordering::Relaxed); // lint:allow(atomics-ordering-audit): counter
//!
//! // lint:allow(atomics-ordering-audit): monotone counter, no handoff
//! count.fetch_add(1, Ordering::Relaxed);
//! ```
//!
//! Several rules may be allowed at once, separated by commas. The
//! suppression policy (see DESIGN.md §9) asks every allow to carry a
//! justification after the closing parenthesis; the lint itself
//! enforces the marker shape and reports markers naming no known rule
//! ([`Allows::unknown`]).

use crate::lexer::Comment;
use std::ops::RangeInclusive;

/// The rule name on findings for markers that name no known rule.
/// It is not in the catalog, so such a finding cannot be allowed away.
pub const UNKNOWN_ALLOW: &str = "unknown-allow";

/// One rule named by an allow marker.
#[derive(Debug)]
struct Marker {
    rule: String,
    /// Line of the comment naming the rule.
    line: u32,
    /// Lines on which the rule is allowed.
    covers: RangeInclusive<u32>,
}

/// Allow markers collected from one file's comments.
#[derive(Debug, Default)]
pub struct Allows {
    markers: Vec<Marker>,
}

impl Allows {
    /// Scans comments for `lint:allow` markers. The lexer emits
    /// each `//` line as its own [`Comment`], so contiguous lines are
    /// first coalesced into blocks: a marker anywhere in a multi-line
    /// justification covers the whole block and the line after it.
    #[must_use]
    pub fn collect(comments: &[Comment]) -> Allows {
        let mut allows = Allows::default();
        let mut i = 0;
        while i < comments.len() {
            let start = i;
            let mut end_line = comments[i].end_line;
            while i + 1 < comments.len() && comments[i + 1].line == end_line + 1 {
                i += 1;
                end_line = comments[i].end_line;
            }
            let block = &comments[start..=i];
            for comment in block {
                let mut rest = comment.text.as_str();
                while let Some(pos) = rest.find("lint:allow(") {
                    rest = &rest[pos + "lint:allow(".len()..];
                    let Some(close) = rest.find(')') else { break };
                    for rule in rest[..close].split(',') {
                        let rule = rule.trim();
                        if rule.is_empty() {
                            continue;
                        }
                        // The marker covers its block's line span plus
                        // the next line (comment-above style).
                        allows.markers.push(Marker {
                            rule: rule.to_string(),
                            line: comment.line,
                            covers: block[0].line..=end_line + 1,
                        });
                    }
                    rest = &rest[close..];
                }
            }
            i += 1;
        }
        allows
    }

    /// Whether `rule` is allowed on `line`.
    #[must_use]
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.markers
            .iter()
            .any(|m| m.rule == rule && m.covers.contains(&line))
    }

    /// Markers naming a rule that is not in [`crate::rules::RULES`], as
    /// `(rule, line)`: a typo or a deleted rule would otherwise
    /// suppress nothing, silently.
    pub fn unknown(&self) -> impl Iterator<Item = (&str, u32)> {
        self.markers
            .iter()
            .filter(|m| crate::rules::rule_info(&m.rule).is_none())
            .map(|m| (m.rule.as_str(), m.line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn trailing_and_above_styles() {
        let src = "\
let a = m.lock(); // lint:allow(lock-order): sentinel
// lint:allow(atomics-ordering-audit): counter only
count.fetch_add(1, Ordering::Relaxed);
let b = n.lock();
";
        let allows = Allows::collect(&lex(src).comments);
        assert!(allows.covers("lock-order", 1));
        assert!(allows.covers("atomics-ordering-audit", 2));
        assert!(allows.covers("atomics-ordering-audit", 3));
        assert!(!allows.covers("lock-order", 4));
        assert!(!allows.covers("unsafe-audit", 1));
    }

    #[test]
    fn multiple_rules_in_one_marker() {
        let src = "// lint:allow(rule-a, rule-b)\nx();";
        let allows = Allows::collect(&lex(src).comments);
        assert!(allows.covers("rule-a", 2));
        assert!(allows.covers("rule-b", 2));
    }

    #[test]
    fn block_comment_span_covers_following_line() {
        let src = "/* lint:allow(rule-x)\n   spanning */\ncall();";
        let allows = Allows::collect(&lex(src).comments);
        assert!(allows.covers("rule-x", 3));
    }

    #[test]
    fn multi_line_justification_covers_the_whole_block() {
        let src = "\
// lint:allow(rule-y): the justification runs long
// and wraps onto a second and
// third comment line.
call();
other();
";
        let allows = Allows::collect(&lex(src).comments);
        assert!(allows.covers("rule-y", 4), "line after the block");
        assert!(allows.covers("rule-y", 2), "inside the block");
        assert!(!allows.covers("rule-y", 5), "past the covered span");
    }
}
