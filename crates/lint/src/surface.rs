//! The public-surface pass: `unread-pub-item`, the one rule that needs
//! the whole workspace at once.
//!
//! A `pub` fn, method, struct, enum, union, trait, const, static or type
//! alias declared outside test code in a library crate's `src/`
//! (`src/bin/` and `main.rs` excluded) is a finding when no non-test
//! reader names it.
//!
//! * **Readers** are the library and bin sources of every crate, plus
//!   two trees that are read but not linted: `examples/` and
//!   `bench_e2e/src/`.
//! * **Not reads**: `#[test]` / `#[cfg(test)]` regions (the file's test
//!   mask, which the per-file token rules read too), the integration
//!   tests (`crates/*/tests/`, `tests/`), `use` declarations (so a
//!   `pub use` does not keep an item alive), comments, string literals,
//!   and declarations (the name after `fn`, `struct`, `const`, ...).
//! * **Matching** is by name: any other identifier token spelled like
//!   the item reads it. A name collision can hide a finding but never
//!   creates one.
//!
//! An item is kept with `// lint: allow(unread-pub-item)` on its line or
//! the line above, and that comment states one of two reasons:
//! `paper API` (naming the Table 1 or Table 3 row or the §5 behaviour
//! the item implements) or `test reference` (naming the differential
//! test the item anchors). An allow that states neither is itself a
//! finding, and one with no unread item under it is `stale-allow`. The
//! per-file passes leave this rule's allows alone, since only this pass
//! knows whether one still suppresses anything; `--check-file` therefore
//! reports neither the rule nor its stale allows.

use crate::ast::{Attr, Item, ItemKind};
use crate::diag::{Diagnostic, Location, Severity};
use crate::provenance::AstAnalysis;
use std::collections::BTreeSet;

/// The rule id.
pub const RULE: &str = "unread-pub-item";

/// The reasons an allow of [`RULE`] may state.
const REASONS: [&str; 2] = ["paper API", "test reference"];

/// Keywords whose next identifier is declared, not read.
const DECLARING: [&str; 9] = [
    "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod",
];

/// What a workspace-relative file is to the pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A library crate's source: declares covered items and reads them.
    Library,
    /// Reads only: a crate's bins, `examples/`, `bench_e2e/src/`.
    Reader,
    /// Neither: the integration tests.
    Test,
}

fn role_of(rel: &str) -> Role {
    let Some(in_crate) = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .map(|(_, path)| path)
    else {
        return if rel.starts_with("examples/") || rel.starts_with("bench_e2e/src/") {
            Role::Reader
        } else {
            Role::Test
        };
    };
    match in_crate.strip_prefix("src/") {
        Some(p) if p == "main.rs" || p.starts_with("bin/") => Role::Reader,
        Some(_) => Role::Library,
        None => Role::Test,
    }
}

/// One covered item.
struct Def {
    file: String,
    line: usize,
    name: String,
}

/// One `allow(unread-pub-item)` directive.
struct Allow {
    file: String,
    line: usize,
    states_reason: bool,
}

/// The pass's state, fed one parsed file at a time.
#[derive(Default)]
pub struct Surface {
    defs: Vec<Def>,
    reads: BTreeSet<String>,
    allows: Vec<Allow>,
}

impl Surface {
    /// Adds one file (`rel` is workspace-relative, `text` its source),
    /// reading its tokens through the analysis's test mask.
    pub fn add(&mut self, rel: &str, text: &str, analysis: &AstAnalysis) {
        let parsed = &analysis.parsed;
        for a in parsed.allows.iter().filter(|a| a.rule == RULE) {
            let comment = text.lines().nth(a.line - 1).unwrap_or("");
            self.allows.push(Allow {
                file: rel.to_string(),
                line: a.line,
                states_reason: REASONS.iter().any(|r| comment.contains(r)),
            });
        }
        let role = role_of(rel);
        if role == Role::Test || parsed.ast.attrs.iter().any(Attr::is_test_gate) {
            return;
        }
        if role == Role::Library {
            self.declare(rel, &parsed.ast.items);
        }
        let toks = &parsed.tokens;
        let in_test = &analysis.test_mask;
        let mut i = 0;
        while i < toks.len() {
            match toks[i].ident() {
                _ if in_test[i] => {}
                Some("use") => {
                    while i < toks.len() && !toks[i].is_punct(";") {
                        i += 1;
                    }
                }
                Some(name) => {
                    let declared =
                        i > 0 && toks[i - 1].ident().is_some_and(|k| DECLARING.contains(&k));
                    if !declared && !self.reads.contains(name) {
                        self.reads.insert(name.to_string());
                    }
                }
                None => {}
            }
            i += 1;
        }
    }

    fn declare(&mut self, rel: &str, items: &[Item]) {
        for item in items {
            if item.attrs.iter().any(Attr::is_test_gate) {
                continue;
            }
            let name = match &item.kind {
                ItemKind::Mod(m) => {
                    if let Some(inner) = &m.items {
                        self.declare(rel, inner);
                    }
                    continue;
                }
                ItemKind::Impl(i) => {
                    self.declare(rel, &i.items);
                    continue;
                }
                ItemKind::Fn(f) => Some(f.name.as_str()),
                ItemKind::Adt(a) => Some(a.name.as_str()),
                ItemKind::Const(c) => Some(c.name.as_str()),
                ItemKind::Trait(t) => t
                    .header
                    .tokens
                    .iter()
                    .filter_map(|t| t.ident())
                    .find(|w| *w != "unsafe"),
                ItemKind::TypeAlias(run) => run.tokens.get(1).and_then(|t| t.ident()),
                _ => None,
            };
            // Plain `pub` only: `pub(crate)` and narrower are rustc's to judge.
            if let (Some(name), [_]) = (name, item.vis.tokens.as_slice()) {
                self.defs.push(Def {
                    file: rel.to_string(),
                    line: item.line,
                    name: name.to_string(),
                });
            }
        }
    }

    /// The findings: every unread item no allow keeps, every allow that
    /// states no reason, and every allow with no unread item under it.
    pub fn finish(self) -> Vec<Diagnostic> {
        let finding = |rule, file: &str, line, message| Diagnostic {
            rule,
            severity: Severity::Deny,
            location: Location::in_file(file, line),
            message,
        };
        let unread: Vec<&Def> = self
            .defs
            .iter()
            .filter(|d| !self.reads.contains(&d.name))
            .collect();
        let keeps =
            |a: &Allow, d: &Def| a.file == d.file && (a.line == d.line || a.line + 1 == d.line);
        let mut out = Vec::new();
        for d in &unread {
            if !self.allows.iter().any(|a| keeps(a, d)) {
                out.push(finding(
                    RULE,
                    &d.file,
                    d.line,
                    format!(
                        "pub item `{}` has no non-test reader: delete it, move it into \
                         test code, or keep it with an allow stating `paper API` or \
                         `test reference`",
                        d.name
                    ),
                ));
            }
        }
        for a in &self.allows {
            if !unread.iter().any(|d| keeps(a, d)) {
                out.push(finding(
                    "stale-allow",
                    &a.file,
                    a.line,
                    format!(
                        "allow(`{RULE}`) keeps no unread pub item on line {} or {}; \
                         delete the directive",
                        a.line,
                        a.line + 1
                    ),
                ));
            } else if !a.states_reason {
                out.push(finding(
                    RULE,
                    &a.file,
                    a.line,
                    format!(
                        "allow(`{RULE}`) states no reason: write `paper API` (the Table 1 \
                         or Table 3 row or §5 behaviour) or `test reference` (the \
                         differential test) in the same comment"
                    ),
                ));
            }
        }
        out.sort_by(|x, y| {
            (&x.location.file, x.location.line).cmp(&(&y.location.file, y.location.line))
        });
        out
    }
}
