//! The per-file analysis passes: the determinism source rules over the
//! lexed token stream, and the stream-provenance walk over the parsed
//! [`crate::ast`] model (conditions, loops and bindings need real
//! structure to exist).
//!
//! ## Passes
//!
//! * **Token rules** — `no-thread-rng`, `no-rng-from-seed`,
//!   `no-wall-clock`, `no-unordered-containers`, `no-panic`,
//!   `no-hardcoded-min-move` and `metric-name-registry`, one matcher and
//!   one message per shape, in one pass over the file's tokens: a banned
//!   name is an identifier token, `.unwrap()` is `.` `unwrap` `(` `)`,
//!   `panic!` is `panic` `!`, `Instant::now` is `Instant` `::` `now`, a
//!   hard-coded floor is `min_duration_ms` `:` or
//!   `override_pointer_move_min_duration` `(` followed by a number. Where
//!   the tokens sit (a type, a pattern, an attribute, a macro body, a
//!   construct the parser cannot structure) does not matter.
//!   `metric-name-registry` checks counter name literals
//!   ([`hlisa_sim::METRIC_REGISTRY`]) passed to `.add(name, n)` outside
//!   tests, and to `.get(name)` anywhere under a registered family: a
//!   typo'd `get` returns `None` and makes an assertion vacuous.
//! * **Stream provenance** — the walker. `stream-name-registry`: every
//!   `stream("...")` call site must name a stream in
//!   [`hlisa_sim::STREAM_REGISTRY`], and the name must be a string
//!   literal (a computed name defeats the closed-set audit). Runs in test
//!   code too: a typo'd stream in a test mints an unreviewed derivation
//!   path just as silently. `conditional-draw`: a draw from stream X
//!   inside a branch whose condition consumed a *different* stream Y (Y's
//!   draw count now gates X's sequence, re-entangling what named
//!   streams decoupled). `loop-variant-fork`:
//!   `fork`/`fork_visit`/`visit_forks` with all-literal arguments inside
//!   a loop body (every iteration derives the same child seeds). The same
//!   walk collects the ledger's call sites ([`collect_stream_sites`]).
//!   Of the opaque runs it scans only those that can hold a call —
//!   macro bodies, unparsed expressions, verbatim items — for stream
//!   names and ledger sites.
//! * **Parse failures** — `parse-failure`: a construct the parser cannot
//!   structure is one the walker cannot see into.
//! * **Suppression audit** — `stale-allow`: a `// lint: allow(r)`
//!   directive that names an unknown rule, or that no finding (fired *or*
//!   suppressed) on its line or the next would consume, is dead weight
//!   that silently licenses future regressions.
//!
//! The determinism rules skip test code, and `metric-name-registry`
//! accepts any `add` there. The token rules read one test mask per file,
//! built once by [`AstAnalysis::of`] and shared with the
//! `unread-pub-item` pass: a file whose inner attributes gate it to
//! tests (`#![cfg(test)]`) is test code whole; otherwise an attribute
//! mentioning `test` (but not `cfg(not(test))`) opens a region that runs
//! through the gated item — the `}` closing its first brace group, or
//! its `;`, whichever comes first outside its `(...)`/`[...]` groups —
//! and never past the delimiter closing the group the item sits in. The
//! walker judges test code structurally (an item carrying such an
//! attribute, whatever its kind, with everything nested in it) and
//! marks the opaque runs it scans as the mask does.

use crate::ast::{
    gates_to_test, Attr, Block, Expr, File, Item, ItemKind, Lit, LitKind, MacroCall, Stmt, StmtLet,
    TokenRun,
};
use crate::diag::{Diagnostic, Location, Severity};
use crate::parse::{parse_file, AllowDirective, ParsedFile, Tok, Token};
use hlisa_sim::MetricInfo;
use std::collections::{BTreeMap, BTreeSet};

/// A parsed file plus the indexes the passes share. Parse once, run any
/// number of passes.
pub struct AstAnalysis {
    /// The parse (tokens, AST, allows, issues).
    pub parsed: ParsedFile,
    /// One flag per token of `parsed.tokens`: true inside test code.
    pub(crate) test_mask: Vec<bool>,
    /// Line → rule ids allowed there.
    allows: BTreeMap<usize, Vec<String>>,
}

impl AstAnalysis {
    /// Parses `src` and builds the shared indexes.
    pub fn of(src: &str) -> AstAnalysis {
        let parsed = parse_file(src);
        let test_mask = if parsed.ast.attrs.iter().any(Attr::is_test_gate) {
            vec![true; parsed.tokens.len()]
        } else {
            mark_test_regions(&parsed.tokens)
        };
        let mut allows: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for a in &parsed.allows {
            allows.entry(a.line).or_default().push(a.rule.clone());
        }
        AstAnalysis {
            parsed,
            test_mask,
            allows,
        }
    }
}

/// Per-file rule exemptions, granted by the workspace walker to the few
/// sanctioned definition sites (see `workspace.rs`).
#[derive(Debug, Default, Clone, Copy)]
pub struct Exemptions {
    /// Skip `no-hardcoded-min-move`: only the pointer-move profile
    /// definition site (`crates/webdriver/src/actions.rs`), where numeric
    /// durations are the point.
    pub min_move: bool,
    /// Skip `no-unordered-containers`: only for sanctioned interior-use
    /// modules whose hash containers are point-queried and never iterated
    /// (the jsom atom interner), so their ordering can't reach output.
    pub unordered: bool,
    /// Skip `no-panic`: only for sanctioned fail-fast modules (the
    /// offline bench report builders), where aborting on a malformed
    /// local artifact is the intended behaviour.
    pub panics: bool,
    /// Skip `no-wall-clock`: only for the bench timing harnesses, whose
    /// entire job is measuring real elapsed time (`Instant::now()`);
    /// their readings are reporting artifacts, never simulation inputs.
    pub wall_clock: bool,
    /// Skip `no-rng-from-seed`: only the rng construction site itself
    /// (`crates/stats/src/rngutil.rs`), which defines `rng_from_seed`
    /// and therefore necessarily names it.
    pub rng_def: bool,
}

/// Which rules a run of the analyzer applies. The registry checks, the
/// parse-failure finding and the suppression audit always run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RulePasses {
    /// The determinism rules: the six source rules plus
    /// `conditional-draw` and `loop-variant-fork`. Off only where real
    /// randomness and time are sanctioned (`hlisa-sim`) and in the
    /// integration tests.
    pub determinism: bool,
}

/// What kind of derivation call a ledger site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SiteKind {
    /// `ctx.stream("name")`.
    Stream,
    /// `ctx.fork(label, index)`.
    Fork,
    /// `ctx.fork_visit(domain, visit)`, or its batched form
    /// `ctx.visit_forks(domain, visits)`, which derives the same children.
    ForkVisit,
}

/// The text of a string-literal expression.
fn str_lit(e: &Expr) -> Option<&str> {
    match e {
        Expr::Lit(Lit {
            kind: LitKind::Str,
            text,
            ..
        }) => Some(text),
        _ => None,
    }
}

/// The ledger kind of a fork method named `name`, if it is one.
fn fork_kind(name: &str) -> Option<SiteKind> {
    match name {
        "fork" => Some(SiteKind::Fork),
        "fork_visit" | "visit_forks" => Some(SiteKind::ForkVisit),
        _ => None,
    }
}

impl SiteKind {
    /// Stable label used in the ledger JSON.
    pub fn label(&self) -> &'static str {
        match self {
            SiteKind::Stream => "stream",
            SiteKind::Fork => "fork",
            SiteKind::ForkVisit => "fork_visit",
        }
    }
}

/// One draw/fork call site, as collected for the determinism ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSite {
    /// Innermost enclosing item path (`mod::fn`), or `<file>` at file
    /// scope.
    pub function: String,
    /// What the call derives.
    pub kind: SiteKind,
    /// The stream name / fork label, or `<dynamic>` when not a literal.
    pub stream: String,
    /// True when the site is inside a `#[test]`-gated region.
    pub in_test: bool,
    /// Source line (not written to the ledger, which is line-shift
    /// stable; kept for diagnostics and tests).
    pub line: usize,
}

/// Runs the enabled passes over one analyzed file.
pub fn analyze_file(
    file: &str,
    analysis: &AstAnalysis,
    exempt: Exemptions,
    passes: RulePasses,
) -> Vec<Diagnostic> {
    let mut a = Analyzer::new(file, passes.determinism, &analysis.allows);
    for issue in &analysis.parsed.issues {
        a.fire(
            "parse-failure",
            issue.line,
            format!(
                "file does not fully parse ({}); fix the construct so the \
                 stream-provenance walker sees all of it",
                issue.message
            ),
        );
    }
    a.token_rules(&analysis.parsed.tokens, &analysis.test_mask, exempt);
    a.walk_file(&analysis.parsed.ast);
    a.stale_allow_pass(&analysis.parsed.allows);
    a.out
}

/// Convenience: parse `src` and run every pass.
pub fn analyze_ast(file: &str, src: &str, exempt: Exemptions) -> Vec<Diagnostic> {
    let analysis = AstAnalysis::of(src);
    analyze_file(file, &analysis, exempt, RulePasses { determinism: true })
}

/// Collects every `stream`/`fork`/`fork_visit`/`visit_forks` call site
/// for the ledger (no diagnostics).
pub fn collect_stream_sites(analysis: &AstAnalysis) -> Vec<StreamSite> {
    let mut a = Analyzer::new("", false, &analysis.allows);
    a.walk_file(&analysis.parsed.ast);
    a.sites
}

struct Analyzer<'a> {
    file: &'a str,
    /// Whether the determinism rules apply (see [`RulePasses`]).
    determinism: bool,
    allows: &'a BTreeMap<usize, Vec<String>>,
    /// Every finding before suppression — the stale-allow ground truth.
    fired: Vec<(&'static str, usize)>,
    out: Vec<Diagnostic>,
    /// Scope stack: variable name → stream name it holds a handle to.
    env: Vec<BTreeMap<String, String>>,
    /// Stack of governing conditions: the streams each enclosing
    /// condition / scrutinee / guard consumed.
    governors: Vec<BTreeSet<String>>,
    loop_depth: usize,
    fn_stack: Vec<String>,
    sites: Vec<StreamSite>,
}

impl<'a> Analyzer<'a> {
    fn new(
        file: &'a str,
        determinism: bool,
        allows: &'a BTreeMap<usize, Vec<String>>,
    ) -> Analyzer<'a> {
        Analyzer {
            file,
            determinism,
            allows,
            fired: Vec::new(),
            out: Vec::new(),
            env: Vec::new(),
            governors: Vec::new(),
            loop_depth: 0,
            fn_stack: Vec::new(),
            sites: Vec::new(),
        }
    }

    fn allowed(&self, line: usize, rule: &str) -> bool {
        let hit = |l: usize| {
            self.allows
                .get(&l)
                .is_some_and(|v| v.iter().any(|r| r == rule))
        };
        hit(line) || (line > 1 && hit(line - 1))
    }

    fn fire(&mut self, rule: &'static str, line: usize, message: String) {
        self.fired.push((rule, line));
        if !self.allowed(line, rule) {
            self.out.push(Diagnostic {
                rule,
                severity: Severity::Deny,
                location: Location::in_file(self.file, line),
                message,
            });
        }
    }

    fn function_label(&self) -> String {
        if self.fn_stack.is_empty() {
            "<file>".to_string()
        } else {
            self.fn_stack.join("::")
        }
    }

    // ---- the token rules ----------------------------------------------

    /// The six determinism source rules and `metric-name-registry`: one
    /// pass over the file's tokens, `mask` flagging test code.
    fn token_rules(&mut self, toks: &[Token], mask: &[bool], exempt: Exemptions) {
        for (i, tok) in toks.iter().enumerate() {
            let Some(name) = tok.ident() else { continue };
            let at = |k: usize| toks.get(i + k);
            let punct_at = |k: usize, p: &str| at(k).is_some_and(|t| t.is_punct(p));
            let dotted_call = || i > 0 && toks[i - 1].is_punct(".") && punct_at(1, "(");
            let num_after =
                |p: &str| punct_at(1, p) && at(2).is_some_and(|t| matches!(t.tok, Tok::Num(_)));
            let (rule, exempted, message) = match name {
                // `.add("name", n)` outside tests, `.get("name")` anywhere.
                "add" | "get" => {
                    let (end, strict) = if name == "add" {
                        (",", true)
                    } else {
                        (")", false)
                    };
                    if let Some(text) = at(2).and_then(Token::str_text) {
                        if dotted_call() && punct_at(3, end) && !(strict && mask[i]) {
                            self.check_metric(text, tok.line, strict);
                        }
                    }
                    continue;
                }
                _ if !self.determinism || mask[i] => continue,
                "thread_rng" => (
                    "no-thread-rng",
                    false,
                    "thread_rng() is OS-seeded; draw from a SimContext stream",
                ),
                "rng_from_seed" => (
                    "no-rng-from-seed",
                    exempt.rng_def,
                    "ad-hoc seeding bypasses SimContext's derivation tree",
                ),
                "SystemTime" => (
                    "no-wall-clock",
                    exempt.wall_clock,
                    "SystemTime reads the wall clock; use simulated time \
                     (SimContext::now_ms, Browser::now_ms)",
                ),
                "Instant" if punct_at(1, "::") && at(2).is_some_and(|t| t.is_ident("now")) => (
                    "no-wall-clock",
                    exempt.wall_clock,
                    "Instant::now() reads the wall clock; use simulated time \
                     (SimContext::now_ms, Browser::now_ms)",
                ),
                "HashMap" => (
                    "no-unordered-containers",
                    exempt.unordered,
                    "HashMap iteration order is per-process random; use a BTree container",
                ),
                "HashSet" => (
                    "no-unordered-containers",
                    exempt.unordered,
                    "HashSet iteration order is per-process random; use a BTree container",
                ),
                "unwrap" if dotted_call() && punct_at(2, ")") => (
                    "no-panic",
                    exempt.panics,
                    "unwrap() panics the worker; propagate a typed error or carry a \
                     justified allow",
                ),
                "expect" if dotted_call() => (
                    "no-panic",
                    exempt.panics,
                    "expect() panics the worker like unwrap(); propagate a typed error \
                     or carry a justified allow",
                ),
                "panic" if punct_at(1, "!") => (
                    "no-panic",
                    exempt.panics,
                    "panic! aborts the crawl worker; fail through the typed error path",
                ),
                "min_duration_ms" if num_after(":") => (
                    "no-hardcoded-min-move",
                    exempt.min_move,
                    "hard-coded move-duration floor; derive from HLISA_MIN_MOVE_MS",
                ),
                "override_pointer_move_min_duration" if num_after("(") => (
                    "no-hardcoded-min-move",
                    exempt.min_move,
                    "literal duration bypasses HLISA_MIN_MOVE_MS",
                ),
                _ => continue,
            };
            if !exempted {
                self.fire(rule, tok.line, message.to_string());
            }
        }
    }

    /// Fires `metric-name-registry` when a counter name literal is not
    /// registered: any unregistered name when `strict` (an `add` outside
    /// tests), else only one whose family (the part before its first
    /// `.`) is a registered counter's (a `get`). `events.<kind>` names
    /// are registered for every kind the browser dispatches.
    fn check_metric(&mut self, text: &str, line: usize, strict: bool) {
        let kind = text.strip_prefix("events.").unwrap_or_default();
        let family = text.split_once('.').map(|(family, _)| family);
        let in_family = |m: &MetricInfo| m.name.split_once('.').map(|(f, _)| f) == family;
        if hlisa_sim::metric_info(text).is_some()
            || hlisa_browser::EventKind::NAMES.contains(&kind)
            || !(strict || hlisa_sim::METRIC_REGISTRY.iter().any(in_family))
        {
            return;
        }
        self.fire(
            "metric-name-registry",
            line,
            format!(
                "counter name \"{text}\" is not in hlisa-sim's METRIC_REGISTRY; \
                 register it (crates/sim/src/metrics.rs) or fix the typo"
            ),
        );
    }

    // ---- provenance machinery ----------------------------------------

    fn lookup(&self, var: &str) -> Option<String> {
        for scope in self.env.iter().rev() {
            if let Some(s) = scope.get(var) {
                return Some(s.clone());
            }
        }
        None
    }

    /// Fires `stream-name-registry` when a literal stream name is not
    /// registered.
    fn check_registered(&mut self, text: &str, line: usize) {
        if !hlisa_sim::is_registered(text) {
            self.fire(
                "stream-name-registry",
                line,
                format!(
                    "stream name \"{text}\" is not in hlisa-sim's STREAM_REGISTRY; \
                     register it (crates/sim/src/streams.rs) or fix the typo"
                ),
            );
        }
    }

    /// Fires `conditional-draw` when a use of `stream` sits under a
    /// condition that consumed a different stream.
    fn check_governed(&mut self, stream: &str, line: usize, in_test: bool) {
        if !self.determinism || in_test {
            return;
        }
        let offender = self
            .governors
            .iter()
            .rev()
            .find(|g| !g.is_empty() && !g.contains(stream))
            .map(|g| g.iter().cloned().collect::<Vec<_>>().join("\", \""));
        if let Some(names) = offender {
            self.fire(
                "conditional-draw",
                line,
                format!(
                    "draw from stream \"{stream}\" is control-dependent on stream(s) \
                     \"{names}\": a draw-count change there reorders this stream's \
                     sequence; hoist the draw or condition on the same stream"
                ),
            );
        }
    }

    /// The streams an expression consumes: bound handles referenced and
    /// direct `stream("...")` calls. Pure (no diagnostics).
    fn streams_used(&self, e: &Expr) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.streams_used_into(e, &mut out);
        out
    }

    fn streams_used_into(&self, e: &Expr, out: &mut BTreeSet<String>) {
        match e {
            Expr::Path(p) if p.segments.len() == 1 => {
                if let Some(s) = self.lookup(&p.segments[0].name) {
                    out.insert(s);
                }
            }
            Expr::MethodCall {
                recv, name, args, ..
            } => {
                if name == "stream" && args.len() == 1 {
                    if let Some(text) = str_lit(&args[0]) {
                        out.insert(text.to_string());
                    }
                }
                self.streams_used_into(recv, out);
                for a in args {
                    self.streams_used_into(a, out);
                }
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::Try(expr) => {
                self.streams_used_into(expr, out);
            }
            Expr::Binary { lhs, rhs, .. } => {
                if let Some(l) = lhs {
                    self.streams_used_into(l, out);
                }
                if let Some(r) = rhs {
                    self.streams_used_into(r, out);
                }
            }
            Expr::Call { callee, args, .. } => {
                self.streams_used_into(callee, out);
                for a in args {
                    self.streams_used_into(a, out);
                }
            }
            Expr::Field { base, .. } => self.streams_used_into(base, out),
            Expr::Index { base, idx, .. } => {
                self.streams_used_into(base, out);
                self.streams_used_into(idx, out);
            }
            Expr::Tuple { elems, .. } | Expr::Array { elems, .. } => {
                for el in elems {
                    self.streams_used_into(el, out);
                }
            }
            Expr::Block { block, .. } => self.streams_used_block(block, out),
            Expr::If(i) => {
                self.streams_used_into(&i.cond, out);
                self.streams_used_block(&i.then_block, out);
                if let Some(eb) = &i.else_branch {
                    self.streams_used_into(eb, out);
                }
            }
            Expr::Match(m) => {
                self.streams_used_into(&m.scrutinee, out);
                for arm in &m.arms {
                    if let Some(g) = &arm.guard {
                        self.streams_used_into(g, out);
                    }
                    self.streams_used_into(&arm.body, out);
                }
            }
            Expr::Loop(l) => {
                if let Some(h) = &l.head {
                    self.streams_used_into(h, out);
                }
                self.streams_used_block(&l.body, out);
            }
            Expr::Closure(c) => self.streams_used_into(&c.body, out),
            Expr::Return(Some(e), _) | Expr::Break(_, Some(e), _) => {
                self.streams_used_into(e, out);
            }
            Expr::Struct { fields, rest, .. } => {
                for f in fields {
                    if let Some(v) = &f.value {
                        self.streams_used_into(v, out);
                    }
                }
                if let Some(r) = rest {
                    self.streams_used_into(r, out);
                }
            }
            _ => {}
        }
    }

    fn streams_used_block(&self, b: &Block, out: &mut BTreeSet<String>) {
        for s in &b.stmts {
            match s {
                Stmt::Let(l) => {
                    if let Some(init) = &l.init {
                        self.streams_used_into(init, out);
                    }
                }
                Stmt::Expr(se) => self.streams_used_into(&se.expr, out),
                Stmt::Item(_) => {}
            }
        }
    }

    /// Resolves an initialiser to the stream handle it produces, through
    /// reference/deref/paren wrappers and simple aliasing.
    fn stream_handle_of(&self, e: &Expr) -> Option<String> {
        match e {
            Expr::MethodCall { name, args, .. } if name == "stream" && args.len() == 1 => {
                str_lit(&args[0]).map(str::to_string)
            }
            Expr::Unary { expr, .. } => self.stream_handle_of(expr),
            Expr::Tuple {
                elems,
                is_tuple: false,
                ..
            } if elems.len() == 1 => self.stream_handle_of(&elems[0]),
            Expr::Path(p) if p.segments.len() == 1 => self.lookup(&p.segments[0].name),
            _ => None,
        }
    }

    // ---- walking ------------------------------------------------------

    fn walk_file(&mut self, file: &File) {
        // A module file opening with `#![cfg(test)]` is test code whole.
        let in_test = file.attrs.iter().any(Attr::is_test_gate);
        for item in &file.items {
            self.walk_item(item, in_test);
        }
    }

    fn walk_item(&mut self, item: &Item, in_test: bool) {
        // An item's body runs in its own control/scope universe: a
        // nested fn inside a loop is not executed per iteration.
        let saved_env = std::mem::take(&mut self.env);
        let saved_gov = std::mem::take(&mut self.governors);
        let saved_loop = std::mem::replace(&mut self.loop_depth, 0);
        self.walk_item_inner(item, in_test);
        self.env = saved_env;
        self.governors = saved_gov;
        self.loop_depth = saved_loop;
    }

    fn walk_item_inner(&mut self, item: &Item, in_test: bool) {
        let in_test = in_test || item.attrs.iter().any(Attr::is_test_gate);
        let (label, items) = match &item.kind {
            ItemKind::Fn(f) => {
                if let Some(b) = &f.body {
                    self.fn_stack.push(f.name.clone());
                    self.walk_block(b, in_test);
                    self.fn_stack.pop();
                }
                return;
            }
            ItemKind::Mod(m) => (m.name.clone(), m.items.as_deref().unwrap_or_default()),
            ItemKind::Impl(i) => (header_label(&i.header, "impl"), i.items.as_slice()),
            ItemKind::Trait(t) => (header_label(&t.header, "trait"), t.items.as_slice()),
            ItemKind::Const(c) => {
                if let Some(v) = &c.value {
                    self.walk_expr(v, in_test);
                }
                return;
            }
            ItemKind::Macro(m) => return self.macro_call(m, in_test),
            ItemKind::Verbatim(run) => return self.scan_run(run, in_test),
            ItemKind::Adt(_) | ItemKind::Use(_) | ItemKind::TypeAlias(_) => return,
        };
        self.fn_stack.push(label);
        for it in items {
            self.walk_item(it, in_test);
        }
        self.fn_stack.pop();
    }

    /// Shared handling for item- and expression-position macro calls.
    fn macro_call(&mut self, m: &MacroCall, in_test: bool) {
        let label = m.path.last().cloned().unwrap_or_default() + "!";
        self.fn_stack.push(label);
        self.scan_run(&m.body, in_test);
        self.fn_stack.pop();
    }

    fn walk_block(&mut self, b: &Block, in_test: bool) {
        self.env.push(BTreeMap::new());
        for s in &b.stmts {
            match s {
                Stmt::Let(l) => self.walk_let(l, in_test),
                Stmt::Item(it) => self.walk_item(it, in_test),
                Stmt::Expr(se) => self.walk_expr(&se.expr, in_test),
            }
        }
        self.env.pop();
    }

    fn walk_let(&mut self, l: &StmtLet, in_test: bool) {
        if let Some(init) = &l.init {
            self.walk_expr(init, in_test);
        }
        if let Some(eb) = &l.else_block {
            self.walk_block(eb, in_test);
        }
        if let Some(init) = &l.init {
            if let Some(stream) = self.stream_handle_of(init) {
                if let Some(var) = single_binding(&l.pat) {
                    if let Some(scope) = self.env.last_mut() {
                        scope.insert(var, stream);
                    }
                }
            }
        }
    }

    fn walk_expr(&mut self, e: &Expr, in_test: bool) {
        match e {
            Expr::Lit(_) | Expr::Continue(..) => {}
            Expr::Path(p) => {
                if let [seg] = p.segments.as_slice() {
                    if let Some(stream) = self.lookup(&seg.name) {
                        self.check_governed(&stream, seg.line, in_test);
                    }
                }
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::Try(expr) => {
                self.walk_expr(expr, in_test);
            }
            Expr::Field { base, .. } => self.walk_expr(base, in_test),
            Expr::Binary { lhs, rhs, .. } => {
                if let Some(l) = lhs {
                    self.walk_expr(l, in_test);
                }
                if let Some(r) = rhs {
                    self.walk_expr(r, in_test);
                }
            }
            Expr::Call { callee, args, .. } => {
                self.walk_expr(callee, in_test);
                for a in args {
                    self.walk_expr(a, in_test);
                }
            }
            Expr::MethodCall {
                recv,
                name,
                args,
                line,
                ..
            } => {
                self.method_rules(name, args, *line, in_test);
                self.walk_expr(recv, in_test);
                for a in args {
                    self.walk_expr(a, in_test);
                }
            }
            Expr::Index { base, idx, .. } => {
                self.walk_expr(base, in_test);
                self.walk_expr(idx, in_test);
            }
            Expr::Tuple { elems, .. } | Expr::Array { elems, .. } => {
                for el in elems {
                    self.walk_expr(el, in_test);
                }
            }
            Expr::Block { block, .. } => self.walk_block(block, in_test),
            Expr::If(i) => {
                self.walk_expr(&i.cond, in_test);
                self.governors.push(self.streams_used(&i.cond));
                self.walk_block(&i.then_block, in_test);
                if let Some(eb) = &i.else_branch {
                    self.walk_expr(eb, in_test);
                }
                self.governors.pop();
            }
            Expr::Match(m) => {
                self.walk_expr(&m.scrutinee, in_test);
                self.governors.push(self.streams_used(&m.scrutinee));
                for arm in &m.arms {
                    if let Some(g) = &arm.guard {
                        self.walk_expr(g, in_test);
                        self.governors.push(self.streams_used(g));
                        self.walk_expr(&arm.body, in_test);
                        self.governors.pop();
                    } else {
                        self.walk_expr(&arm.body, in_test);
                    }
                }
                self.governors.pop();
            }
            Expr::Loop(l) => {
                let governed = if let Some(h) = &l.head {
                    self.walk_expr(h, in_test);
                    // `loop` has no head; `while`/`for` heads gate the
                    // number of body executions.
                    self.governors.push(self.streams_used(h));
                    true
                } else {
                    false
                };
                self.loop_depth += 1;
                self.walk_block(&l.body, in_test);
                self.loop_depth -= 1;
                if governed {
                    self.governors.pop();
                }
            }
            Expr::Closure(c) => self.walk_expr(&c.body, in_test),
            Expr::Return(v, _) | Expr::Break(_, v, _) => {
                if let Some(v) = v {
                    self.walk_expr(v, in_test);
                }
            }
            Expr::Macro(m) => self.macro_call(m, in_test),
            Expr::Struct { fields, rest, .. } => {
                for v in fields.iter().filter_map(|f| f.value.as_ref()) {
                    self.walk_expr(v, in_test);
                }
                if let Some(r) = rest {
                    self.walk_expr(r, in_test);
                }
            }
            Expr::Opaque(run) => self.scan_run(run, in_test),
        }
    }

    /// Rules keyed on a method call: the stream registry and ledger
    /// sites, and `loop-variant-fork`.
    fn method_rules(&mut self, name: &str, args: &[Expr], line: usize, in_test: bool) {
        if name == "stream" && args.len() == 1 {
            match str_lit(&args[0]) {
                Some(text) => {
                    self.sites.push(StreamSite {
                        function: self.function_label(),
                        kind: SiteKind::Stream,
                        stream: text.to_string(),
                        in_test,
                        line,
                    });
                    self.check_registered(text, line);
                    self.check_governed(text, line, in_test);
                }
                None => self.fire(
                    "stream-name-registry",
                    line,
                    "stream name must be a string literal from STREAM_REGISTRY; \
                     a computed name defeats the closed-set audit"
                        .to_string(),
                ),
            }
        }
        if let Some(kind) = fork_kind(name) {
            let label = args
                .iter()
                .find_map(str_lit)
                .unwrap_or("<dynamic>")
                .to_string();
            self.sites.push(StreamSite {
                function: self.function_label(),
                kind,
                stream: label,
                in_test,
                line,
            });
            if self.determinism
                && !in_test
                && self.loop_depth > 0
                && !args.is_empty()
                && args.iter().all(|a| matches!(a, Expr::Lit(_)))
            {
                self.fire(
                    "loop-variant-fork",
                    line,
                    format!(
                        "{name}() with all-literal arguments inside a loop derives the same \
                         child seed every iteration; thread the loop counter into an argument"
                    ),
                );
            }
        }
    }

    // ---- opaque-run scanning -----------------------------------------

    /// Scans a run that can hold calls the parser did not structure (a
    /// macro body, an unparsed expression, a verbatim item) for
    /// `.stream("...")` (registry check and ledger site) and fork calls
    /// (ledger sites). Test regions are marked within the run, so test
    /// items inside a macro body record test sites.
    fn scan_run(&mut self, run: &TokenRun, in_test: bool) {
        let toks = &run.tokens;
        // Marked only when the run holds a site, which few runs do.
        let mut marked = None;
        for (i, tok) in toks.iter().enumerate() {
            let Some(name) = tok.ident() else { continue };
            let dotted_call = i > 0
                && toks[i - 1].is_punct(".")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("("));
            if !dotted_call {
                continue;
            }
            // The call's first argument, when it is a string literal.
            let str_arg = toks.get(i + 2).and_then(Token::str_text);
            let kind = match (name, str_arg) {
                ("stream", Some(text)) => {
                    self.check_registered(text, tok.line);
                    SiteKind::Stream
                }
                _ => match fork_kind(name) {
                    Some(kind) => kind,
                    None => continue,
                },
            };
            self.sites.push(StreamSite {
                function: self.function_label(),
                kind,
                stream: str_arg.unwrap_or("<dynamic>").to_string(),
                in_test: in_test || marked.get_or_insert_with(|| mark_test_regions(toks))[i],
                line: tok.line,
            });
        }
    }

    // ---- the suppression audit ----------------------------------------

    /// `stale-allow`: runs after every other pass, against the full
    /// pre-suppression finding list.
    fn stale_allow_pass(&mut self, allows: &[AllowDirective]) {
        let fired = self.fired.clone();
        // The workspace pass audits its own rule's allows.
        for d in allows.iter().filter(|d| d.rule != crate::surface::RULE) {
            if crate::rules::rule_info(&d.rule).is_none() {
                self.fire(
                    "stale-allow",
                    d.line,
                    format!(
                        "allow directive names unknown rule `{}`; \
                         see hlisa_lint::rules::CATALOG for valid ids",
                        d.rule
                    ),
                );
            } else if !fired
                .iter()
                .any(|(r, l)| *r == d.rule && (*l == d.line || *l == d.line + 1))
            {
                self.fire(
                    "stale-allow",
                    d.line,
                    format!(
                        "allow(`{}`) suppresses nothing on line {} or {}; \
                         delete the directive (dead allows license future regressions)",
                        d.rule,
                        d.line,
                        d.line + 1
                    ),
                );
            }
        }
    }
}

/// The label an impl or trait block gives the ledger: its header's
/// first identifier (the implemented trait or type), or `fallback`.
fn header_label(header: &TokenRun, fallback: &str) -> String {
    header
        .tokens
        .iter()
        .find_map(|t| t.ident())
        .unwrap_or(fallback)
        .to_string()
}

/// The single identifier a `let` pattern binds, when it is that simple
/// (`x`, `mut x`, `ref mut x`); `None` for destructuring patterns.
fn single_binding(pat: &TokenRun) -> Option<String> {
    let mut name = None;
    for t in &pat.tokens {
        if let Some(w) = t.ident() {
            if w == "mut" || w == "ref" || w == "_" {
                continue;
            }
            if name.is_some() {
                return None;
            }
            name = Some(w.to_string());
        } else if t.punct().is_some() {
            return None;
        }
    }
    name
}

/// Marks the test code of a token stream (a whole file, or one opaque
/// run): each attribute that gates to tests ([`gates_to_test`]) through
/// the end of the item it gates. Delimiters pair as the token trees pair
/// them (a closer that does not close the innermost open group is a
/// stray), and the item is the attribute's following sibling trees up to
/// its `;` or through its first brace group, so a `;` inside a
/// parameter's `[u8; 4]` does not end it, and it never runs past the
/// group it sits in.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let n = tokens.len();
    // `pair[i]`: the delimiter paired with the one at `i`; `n` for other
    // tokens, stray closers and groups left open.
    let mut pair = vec![n; n];
    let mut open: Vec<usize> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let opener = match t.punct() {
            Some("(" | "[" | "{") => {
                open.push(i);
                continue;
            }
            Some(")") => "(",
            Some("]") => "[",
            Some("}") => "{",
            _ => continue,
        };
        if let Some(&o) = open.last().filter(|&&o| tokens[o].is_punct(opener)) {
            pair[o] = i;
            pair[i] = o;
            open.pop();
        }
    }
    let mut in_test = vec![false; n];
    for i in 0..n.saturating_sub(1) {
        let attr_end = pair[i + 1];
        if in_test[i] || !tokens[i].is_punct("#") || !tokens[i + 1].is_punct("[") {
            continue;
        }
        if attr_end == n || !gates_to_test(&tokens[i + 2..attr_end]) {
            continue;
        }
        let mut end = attr_end + 1;
        while end < n && !tokens[end].is_punct(";") {
            let paired = pair[end];
            if tokens[end].is_punct("{") {
                end = paired; // a body left open runs to the end
                break;
            } else if paired == n {
                end += 1;
            } else if paired < end {
                break; // the close of the group the item sits in
            } else {
                end = paired + 1;
            }
        }
        in_test[i..=end.min(n - 1)].fill(true);
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(src: &str) -> Vec<(&'static str, usize)> {
        let analysis = AstAnalysis::of(src);
        let mut out: Vec<(&'static str, usize)> = analyze_file(
            "fixture.rs",
            &analysis,
            Exemptions::default(),
            RulePasses { determinism: true },
        )
        .into_iter()
        .map(|d| (d.rule, d.location.line.unwrap_or(0)))
        .collect();
        out.sort();
        out
    }

    fn rule_ids(src: &str) -> Vec<&'static str> {
        let mut ids: Vec<&'static str> = rules_of(src).into_iter().map(|(r, _)| r).collect();
        ids.dedup();
        ids
    }

    #[test]
    fn registered_stream_names_pass_and_typos_fail() {
        assert!(rule_ids("fn f(ctx: &mut SimContext) { ctx.stream(\"motion\"); }").is_empty());
        assert_eq!(
            rule_ids("fn f(ctx: &mut SimContext) { ctx.stream(\"moton\"); }"),
            ["stream-name-registry"]
        );
    }

    #[test]
    fn computed_stream_names_are_rejected() {
        assert_eq!(
            rule_ids("fn f(ctx: &mut SimContext, n: &str) { ctx.stream(n); }"),
            ["stream-name-registry"]
        );
    }

    #[test]
    fn registry_applies_inside_test_code_and_macro_bodies() {
        let in_test =
            "#[cfg(test)]\nmod tests {\n fn t(c: &mut SimContext) { c.stream(\"nope\"); }\n}";
        assert_eq!(rule_ids(in_test), ["stream-name-registry"]);
        let in_macro = "proptest! {\n #[test]\n fn t(s in any::<u64>()) { \
                        let mut c = SimContext::new(s); c.stream(\"bogus\"); }\n}";
        assert_eq!(rule_ids(in_macro), ["stream-name-registry"]);
    }

    #[test]
    fn counter_names_are_checked_against_the_metric_registry() {
        // Registered names, per-kind event names, and names outside every
        // registered family pass.
        let ok = "fn f(c: &mut CounterSet) {\n c.add(\"loss.offered\", 1);\n \
                  c.add(\"events.click\", 1);\n c.get(\"x\");\n c.get(\"chaos.example\");\n}";
        assert!(rule_ids(ok).is_empty());
        for name in ["loss.ofered", "made.up", "events.clack"] {
            let add = format!("fn f(c: &mut CounterSet) {{ c.add(\"{name}\", 1); }}");
            assert_eq!(rule_ids(&add), ["metric-name-registry"], "{name}");
        }
        // Tests may add any name, but a typo'd get under a registered
        // family fires, in macro bodies too.
        let in_test = "#[cfg(test)]\nmod tests {\n fn t(c: &mut CounterSet) {\n  \
                       c.add(\"made.up\", 1);\n  assert_eq!(c.get(\"fault.injectd\"), None);\n \
                       c.get(\"events.clack\");\n }\n}";
        assert_eq!(
            rules_of(in_test),
            [("metric-name-registry", 5), ("metric-name-registry", 6)]
        );
    }

    #[test]
    fn conditional_draw_fires_across_streams_only() {
        let cross = "fn f(ctx: &mut SimContext) {\n if ctx.stream(\"behavior\").gen_bool(0.5) \
                     {\n  ctx.stream(\"motion\").gen::<u64>();\n }\n}";
        assert_eq!(rules_of(cross), [("conditional-draw", 3)]);
        let same = "fn f(ctx: &mut SimContext) {\n if ctx.stream(\"motion\").gen_bool(0.5) \
                    {\n  ctx.stream(\"motion\").gen::<u64>();\n }\n}";
        assert!(rules_of(same).is_empty());
        let unconditioned = "fn f(ctx: &mut SimContext, hot: bool) {\n if hot \
                             {\n  ctx.stream(\"motion\").gen::<u64>();\n }\n}";
        assert!(rules_of(unconditioned).is_empty());
    }

    #[test]
    fn conditional_draw_tracks_bound_handles() {
        let src = "fn f(ctx: &mut SimContext) {\n let rng = ctx.stream(\"traverse\");\n \
                   let other = ctx.stream(\"motion\");\n while rng.gen_bool(0.5) \
                   {\n  other.gen::<u64>();\n }\n}";
        assert_eq!(rules_of(src), [("conditional-draw", 5)]);
        let same = "fn f(ctx: &mut SimContext) {\n let rng = &mut *ctx.stream(\"traverse\");\n \
                    while rng.gen_bool(0.5) {\n  rng.gen::<u64>();\n }\n}";
        assert!(rules_of(same).is_empty());
    }

    #[test]
    fn conditional_draw_covers_match_scrutinees() {
        let src = "fn f(ctx: &mut SimContext) {\n match ctx.stream(\"chain\").gen_range(0..3) \
                   {\n  0 => { ctx.stream(\"typing\").gen::<u64>(); }\n  _ => {}\n }\n}";
        assert_eq!(rules_of(src), [("conditional-draw", 3)]);
    }

    #[test]
    fn loop_variant_fork_fires_on_literal_forks_in_loops() {
        let bad = "fn f(ctx: &mut SimContext) {\n for _ in 0..3 \
                   {\n  let child = ctx.fork(\"page-graph\", 0);\n }\n}";
        assert_eq!(rules_of(bad), [("loop-variant-fork", 3)]);
        let good = "fn f(ctx: &mut SimContext) {\n for i in 0..3 \
                    {\n  let child = ctx.fork(\"page-graph\", i);\n }\n}";
        assert!(rules_of(good).is_empty());
        let outside = "fn f(ctx: &mut SimContext) {\n let child = ctx.fork(\"page-graph\", 0);\n}";
        assert!(rules_of(outside).is_empty());
    }

    #[test]
    fn batched_visit_forks_are_visit_fork_sites() {
        let bad = "fn f(ctx: &SimContext) {\n for _ in 0..3 \
                   {\n  for v in ctx.visit_forks(\"example.org\", 8) {}\n }\n}";
        assert_eq!(rules_of(bad), [("loop-variant-fork", 3)]);
        let good = "fn f(ctx: &SimContext, sites: &[Site]) {\n for site in sites \
                    {\n  for v in ctx.visit_forks(&site.domain, 8) {}\n }\n}";
        assert!(rules_of(good).is_empty());
        let sites = collect_stream_sites(&AstAnalysis::of(good));
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].kind, SiteKind::ForkVisit);
        assert_eq!(sites[0].stream, "<dynamic>");
    }

    #[test]
    fn stale_allow_flags_dead_and_unknown_directives() {
        let dead = "// lint: allow(no-panic)\nfn f() -> u8 { 1 }";
        assert_eq!(rules_of(dead), [("stale-allow", 1)]);
        let unknown = "fn f() -> u8 { 1 } // lint: allow(no-such-rule)";
        assert_eq!(rules_of(unknown), [("stale-allow", 1)]);
    }

    #[test]
    fn consumed_allows_are_not_stale_even_while_suppressing() {
        let live = "// lint: allow(no-panic)\nfn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert!(rules_of(live).is_empty());
    }

    #[test]
    fn stream_sites_are_collected_with_context() {
        let src = "mod walk {\n fn step(ctx: &mut SimContext) {\n  ctx.stream(\"traverse\");\n  \
                   let c = ctx.fork_visit(\"example.org\", 2);\n }\n}";
        let analysis = AstAnalysis::of(src);
        let sites = collect_stream_sites(&analysis);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].function, "walk::step");
        assert_eq!(sites[0].kind, SiteKind::Stream);
        assert_eq!(sites[0].stream, "traverse");
        assert!(!sites[0].in_test);
        assert_eq!(sites[1].kind, SiteKind::ForkVisit);
        assert_eq!(sites[1].stream, "example.org");
    }

    #[test]
    fn source_rules_fire_structurally() {
        assert_eq!(
            rule_ids("fn f() { let t = std::time::Instant::now(); }"),
            ["no-wall-clock"]
        );
        assert_eq!(
            rule_ids("fn f(x: Option<u8>) -> u8 { x.unwrap() }"),
            ["no-panic"]
        );
        assert_eq!(rule_ids("fn f() { panic!(\"boom\"); }"), ["no-panic"]);
        assert_eq!(
            rule_ids("fn f(x: Option<u8>) -> u8 { x.expect(\"invariant\") }"),
            ["no-panic"]
        );
        assert_eq!(
            rule_ids("fn p() -> P { P { min_duration_ms: 250.0, other: 1.0 } }"),
            ["no-hardcoded-min-move"]
        );
        assert!(rule_ids("fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }").is_empty());
        assert!(rule_ids("#[test]\nfn t() { Some(1).unwrap(); }").is_empty());
        assert!(rule_ids("#[test]\nfn t() { Some(1).expect(\"in tests\"); }").is_empty());
    }

    #[test]
    fn a_test_region_runs_through_the_gated_item_whatever_its_header_holds() {
        // A `;` inside the item's `(...)`/`[...]` groups does not end it.
        let proptest = "proptest! { #[test] fn t(v in any::<[u8; 4]>()) \
                        { let _ = Some(v).unwrap(); } }";
        assert!(rule_ids(proptest).is_empty(), "{:?}", rule_ids(proptest));
        let array_impl =
            "#[cfg(test)]\nimpl X for [u8; 3] {\n fn f(&self) -> u8 { Some(1).unwrap() }\n}";
        assert!(
            rule_ids(array_impl).is_empty(),
            "{:?}",
            rule_ids(array_impl)
        );
        // It still ends with the item: the next item is production code.
        let after =
            "#[cfg(test)]\nconst A: [u8; 2] = [0; 2];\nfn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(rules_of(after), [("no-panic", 3)]);
        // The one mask is what the public-surface pass reads too.
        let analysis = AstAnalysis::of(proptest);
        let tokens = &analysis.parsed.tokens;
        let unwrap = tokens.iter().position(|t| t.is_ident("unwrap"));
        assert_eq!(unwrap.map(|i| analysis.test_mask[i]), Some(true));
    }

    #[test]
    fn test_gated_items_are_test_code_whatever_their_kind() {
        let module = "#[cfg(test)]\nmod tests {\n use std::collections::HashSet;\n #[test]\n \
                      fn t() { let s: HashSet<u8> = HashSet::new(); }\n}";
        assert!(rule_ids(module).is_empty());
        let unbraced = [
            "#[cfg(test)]\nuse std::collections::HashSet;",
            "#[cfg(test)]\ntype Seen = std::collections::HashMap<u8, u8>;",
            "#[cfg(test)]\nconst T: u8 = { let x: Option<u8> = Some(1); x.unwrap() };",
            "#[cfg(test)]\nstatic T: u8 = { let x: Option<u8> = Some(1); x.unwrap() };",
        ];
        for src in unbraced {
            assert!(rule_ids(src).is_empty(), "{src}: {:?}", rule_ids(src));
        }
        // The same rule holds for test items inside an opaque macro body.
        let in_macro = "m! {\n #[cfg(test)]\n use std::collections::HashSet;\n}";
        assert!(rule_ids(in_macro).is_empty(), "{:?}", rule_ids(in_macro));
        // `cfg(not(test))` is production code.
        let not_test = "#[cfg(not(test))]\nmod prod { use std::collections::HashSet; }";
        assert_eq!(rule_ids(not_test), ["no-unordered-containers"]);
        let not_test_use = "#[cfg(not(test))]\nuse std::collections::HashSet;";
        assert_eq!(rule_ids(not_test_use), ["no-unordered-containers"]);
    }
}
