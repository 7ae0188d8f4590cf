//! The AST-grade analysis passes: the six determinism source rules and
//! the stream-provenance rules, all walking the parsed [`crate::ast`]
//! model (conditions, loops and bindings need real structure to exist).
//!
//! ## Passes
//!
//! * **Source rules** — `no-thread-rng`, `no-rng-from-seed`,
//!   `no-wall-clock`, `no-unordered-containers`, `no-panic`,
//!   `no-hardcoded-min-move`, matched structurally: `.unwrap()` is a
//!   method call with empty turbofish and no arguments, `panic!` is a
//!   macro path, `Instant::now` is two adjacent path segments, a
//!   hard-coded `min_duration_ms` is a field initialiser whose value
//!   leads with a numeric literal. Opaque [`TokenRun`]s (generics,
//!   patterns, types, macro bodies) are matched token by token on the
//!   same shapes.
//! * **Registry** — `stream-name-registry`: every `stream("...")` call
//!   site must name a stream in [`hlisa_sim::STREAM_REGISTRY`], and the
//!   name must be a string literal (a computed name defeats the
//!   closed-set audit). Runs in test code too: a typo'd stream in a test
//!   mints an unreviewed derivation path just as silently.
//!   `metric-name-registry` does the same for counter name literals
//!   ([`hlisa_sim::METRIC_REGISTRY`]) passed to `.add(name, n)` outside
//!   tests, and to `.get(name)` anywhere under a registered family: a
//!   typo'd `get` returns `None` and makes an assertion vacuous.
//! * **Stream rules** — `conditional-draw` (a draw from stream X inside a
//!   branch whose condition consumed a *different* stream Y: Y's draw
//!   count now gates X's sequence, re-entangling what PR 1 decoupled) and
//!   `loop-variant-fork` (`fork`/`fork_visit`/`visit_forks` with
//!   all-literal arguments inside a loop body: every iteration derives
//!   the same child seeds).
//! * **Suppression audit** — `stale-allow`: a `// lint: allow(r)`
//!   directive that names an unknown rule, or that no finding (fired *or*
//!   suppressed) on its line or the next would consume, is dead weight
//!   that silently licenses future regressions.
//!
//! The source and stream rules skip test code. A file whose inner
//! attributes gate it to tests (`#![cfg(test)]`) is test code whole, and
//! an item carrying a `#[test]` or `#[cfg(test)]` attribute (but not
//! `cfg(not(test))`) is test code, whatever its kind — `mod`, `fn`, `use`, `type`, `const`,
//! `static` — together with everything nested in it. Inside an opaque
//! run (a `proptest!` body, say) the parser sees no items, so a gated
//! run segment is test code from its attribute through the end of its
//! braced body, or through its `;` when none comes first.

use crate::ast::{
    Attr, Block, Expr, ExprPath, File, Item, ItemKind, Lit, LitKind, MacroCall, Stmt, StmtLet,
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
    /// Line → rule ids allowed there.
    allows: BTreeMap<usize, Vec<String>>,
}

impl AstAnalysis {
    /// Parses `src` and builds the shared indexes.
    pub fn of(src: &str) -> AstAnalysis {
        let parsed = parse_file(src);
        let mut allows: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for a in &parsed.allows {
            allows.entry(a.line).or_default().push(a.rule.clone());
        }
        AstAnalysis { parsed, allows }
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

/// Which rules a run of the analyzer applies. The registry check and the
/// suppression audit always run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RulePasses {
    /// The determinism rules: the six source rules plus
    /// `conditional-draw` and `loop-variant-fork`. Off only where real
    /// randomness and time are sanctioned (`hlisa-sim`) and in the
    /// shared `tests/` tree.
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
    let mut a = Analyzer::new(file, exempt, passes.determinism, &analysis.allows);
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
    let mut a = Analyzer::new("", Exemptions::default(), false, &analysis.allows);
    a.walk_file(&analysis.parsed.ast);
    a.sites
}

const ALWAYS_FIRE: &[(&str, &str, &str)] = &[
    (
        "thread_rng",
        "no-thread-rng",
        "thread_rng() is OS-seeded; draw from a SimContext stream",
    ),
    (
        "rng_from_seed",
        "no-rng-from-seed",
        "ad-hoc seeding bypasses SimContext's derivation tree",
    ),
    (
        "SystemTime",
        "no-wall-clock",
        "SystemTime reads the wall clock; use the SimContext virtual clock",
    ),
];

struct Analyzer<'a> {
    file: &'a str,
    exempt: Exemptions,
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
        exempt: Exemptions,
        determinism: bool,
        allows: &'a BTreeMap<usize, Vec<String>>,
    ) -> Analyzer<'a> {
        Analyzer {
            file,
            exempt,
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

    // ---- the six source rules, structural side ------------------------

    /// Rules that fire on a bare identifier anywhere outside tests.
    fn ident_rule(&mut self, name: &str, line: usize, in_test: bool) {
        if !self.determinism || in_test {
            return;
        }
        for &(word, rule, msg) in ALWAYS_FIRE {
            if name == word {
                if (rule == "no-rng-from-seed" && self.exempt.rng_def)
                    || (rule == "no-wall-clock" && self.exempt.wall_clock)
                {
                    continue;
                }
                self.fire(rule, line, msg.to_string());
            }
        }
        if (name == "HashMap" || name == "HashSet") && !self.exempt.unordered {
            self.fire(
                "no-unordered-containers",
                line,
                format!("{name} iteration order is per-process random; use a BTree container"),
            );
        }
    }

    /// Path-expression rules: per-segment idents plus `Instant::now`
    /// adjacency. `env_check` gates the conditional-draw use check (off
    /// for struct-literal paths, which name types, not bindings).
    fn path_rules(&mut self, p: &ExprPath, in_test: bool, env_check: bool) {
        self.scan_run(&p.turbofish, in_test);
        for seg in &p.segments {
            self.ident_rule(&seg.name, seg.line, in_test);
        }
        if self.determinism && !in_test && !self.exempt.wall_clock {
            for w in p.segments.windows(2) {
                if w[0].name == "Instant" && w[1].name == "now" {
                    self.fire(
                        "no-wall-clock",
                        w[0].line,
                        "Instant::now() reads the wall clock; use the SimContext virtual clock"
                            .to_string(),
                    );
                }
            }
        }
        if env_check && p.segments.len() == 1 {
            if let Some(stream) = self.lookup(&p.segments[0].name) {
                self.check_governed(&stream, p.segments[0].line, in_test);
            }
        }
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
        for a in &file.attrs {
            self.scan_run(&a.tokens, in_test);
        }
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
        for a in &item.attrs {
            self.scan_run(&a.tokens, in_test);
        }
        self.scan_run(&item.vis, in_test);
        match &item.kind {
            ItemKind::Fn(f) => {
                self.scan_run(&f.quals, in_test);
                self.ident_rule(&f.name, item.line, in_test);
                self.scan_run(&f.generics, in_test);
                self.scan_run(&f.params, in_test);
                self.scan_run(&f.ret, in_test);
                self.scan_run(&f.where_clause, in_test);
                if let Some(b) = &f.body {
                    self.fn_stack.push(f.name.clone());
                    self.walk_block(b, in_test);
                    self.fn_stack.pop();
                }
            }
            ItemKind::Mod(m) => {
                self.ident_rule(&m.name, item.line, in_test);
                if let Some(items) = &m.items {
                    self.fn_stack.push(m.name.clone());
                    for it in items {
                        self.walk_item(it, in_test);
                    }
                    self.fn_stack.pop();
                }
            }
            ItemKind::Impl(i) => {
                self.scan_run(&i.header, in_test);
                let label = i
                    .header
                    .tokens
                    .iter()
                    .find_map(|t| t.ident())
                    .unwrap_or("impl")
                    .to_string();
                self.fn_stack.push(label);
                for it in &i.items {
                    self.walk_item(it, in_test);
                }
                self.fn_stack.pop();
            }
            ItemKind::Trait(t) => {
                self.scan_run(&t.header, in_test);
                let label = t
                    .header
                    .tokens
                    .iter()
                    .find_map(|tok| tok.ident())
                    .unwrap_or("trait")
                    .to_string();
                self.fn_stack.push(label);
                for it in &t.items {
                    self.walk_item(it, in_test);
                }
                self.fn_stack.pop();
            }
            ItemKind::Adt(a) => {
                self.ident_rule(&a.name, item.line, in_test);
                self.scan_run(&a.header, in_test);
                self.scan_run(&a.body, in_test);
            }
            ItemKind::Use(run) | ItemKind::TypeAlias(run) | ItemKind::Verbatim(run) => {
                self.scan_run(run, in_test);
            }
            ItemKind::Const(c) => {
                self.scan_run(&c.keyword, in_test);
                self.ident_rule(&c.name, item.line, in_test);
                self.scan_run(&c.ty, in_test);
                if let Some(v) = &c.value {
                    self.walk_expr(v, in_test);
                }
            }
            ItemKind::Macro(m) => {
                self.macro_call(m, in_test);
            }
        }
    }

    /// Shared handling for item- and expression-position macro calls.
    fn macro_call(&mut self, m: &MacroCall, in_test: bool) {
        for seg in &m.path {
            self.ident_rule(seg, m.line, in_test);
        }
        if self.determinism
            && !in_test
            && !self.exempt.panics
            && m.path.last().is_some_and(|s| s == "panic")
        {
            self.fire(
                "no-panic",
                m.line,
                "panic! aborts the crawl worker; fail through the typed error path".to_string(),
            );
        }
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
                Stmt::Expr(se) => {
                    for a in &se.attrs {
                        self.scan_run(&a.tokens, in_test);
                    }
                    self.walk_expr(&se.expr, in_test);
                }
            }
        }
        self.env.pop();
    }

    fn walk_let(&mut self, l: &StmtLet, in_test: bool) {
        for a in &l.attrs {
            self.scan_run(&a.tokens, in_test);
        }
        self.scan_run(&l.pat, in_test);
        self.scan_run(&l.ty, in_test);
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
            Expr::Lit(_) => {}
            Expr::Path(p) => self.path_rules(p, in_test, true),
            Expr::Unary { expr, .. } => self.walk_expr(expr, in_test),
            Expr::Binary { lhs, rhs, .. } => {
                if let Some(l) = lhs {
                    self.walk_expr(l, in_test);
                }
                if let Some(r) = rhs {
                    self.walk_expr(r, in_test);
                }
            }
            Expr::Call { callee, args, .. } => {
                if let Expr::Path(p) = callee.as_ref() {
                    self.call_rules(p, args, in_test);
                }
                self.walk_expr(callee, in_test);
                for a in args {
                    self.walk_expr(a, in_test);
                }
            }
            Expr::MethodCall {
                recv,
                name,
                turbofish,
                args,
                line,
            } => {
                self.scan_run(turbofish, in_test);
                self.method_rules(name, turbofish, args, *line, in_test);
                self.walk_expr(recv, in_test);
                for a in args {
                    self.walk_expr(a, in_test);
                }
            }
            Expr::Field { base, name, line } => {
                self.ident_rule(name, *line, in_test);
                self.walk_expr(base, in_test);
            }
            Expr::Index { base, idx, .. } => {
                self.walk_expr(base, in_test);
                self.walk_expr(idx, in_test);
            }
            Expr::Cast { expr, ty, .. } => {
                self.walk_expr(expr, in_test);
                self.scan_run(ty, in_test);
            }
            Expr::Try(inner) => self.walk_expr(inner, in_test),
            Expr::Tuple { elems, .. } | Expr::Array { elems, .. } => {
                for el in elems {
                    self.walk_expr(el, in_test);
                }
            }
            Expr::Block { quals, block } => {
                self.scan_run(quals, in_test);
                self.walk_block(block, in_test);
            }
            Expr::If(i) => {
                self.scan_run(&i.let_pat, in_test);
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
                    for a in &arm.attrs {
                        self.scan_run(&a.tokens, in_test);
                    }
                    self.scan_run(&arm.pat, in_test);
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
                self.scan_run(&l.label, in_test);
                self.scan_run(&l.pat, in_test);
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
            Expr::Closure(c) => {
                self.scan_run(&c.quals, in_test);
                self.scan_run(&c.params, in_test);
                self.scan_run(&c.ret, in_test);
                self.walk_expr(&c.body, in_test);
            }
            Expr::Return(v, _) => {
                if let Some(v) = v {
                    self.walk_expr(v, in_test);
                }
            }
            Expr::Break(label, v, _) => {
                self.scan_run(label, in_test);
                if let Some(v) = v {
                    self.walk_expr(v, in_test);
                }
            }
            Expr::Continue(label, _) => self.scan_run(label, in_test),
            Expr::Macro(m) => self.macro_call(m, in_test),
            Expr::Struct {
                path, fields, rest, ..
            } => {
                self.path_rules(path, in_test, false);
                for f in fields {
                    self.ident_rule(&f.name, f.line, in_test);
                    if self.determinism
                        && !in_test
                        && !self.exempt.min_move
                        && f.name == "min_duration_ms"
                        && f.value.as_ref().is_some_and(leading_num)
                    {
                        self.fire(
                            "no-hardcoded-min-move",
                            f.line,
                            "hard-coded move-duration floor; derive from HLISA_MIN_MOVE_MS"
                                .to_string(),
                        );
                    }
                    if let Some(v) = &f.value {
                        self.walk_expr(v, in_test);
                    }
                }
                if let Some(r) = rest {
                    self.walk_expr(r, in_test);
                }
            }
            Expr::Opaque(run) => self.scan_run(run, in_test),
        }
    }

    /// Rules keyed on a method call: `.unwrap()`, the min-move override,
    /// the stream registry, fork sites.
    fn method_rules(
        &mut self,
        name: &str,
        turbofish: &TokenRun,
        args: &[Expr],
        line: usize,
        in_test: bool,
    ) {
        self.ident_rule(name, line, in_test);
        if self.determinism && !in_test {
            if name == "unwrap" && !self.exempt.panics && turbofish.is_empty() && args.is_empty() {
                self.fire(
                    "no-panic",
                    line,
                    "unwrap() panics the worker; propagate a typed error or carry a \
                     justified allow"
                        .to_string(),
                );
            }
            if name == "expect" && !self.exempt.panics && turbofish.is_empty() {
                self.fire(
                    "no-panic",
                    line,
                    "expect() panics the worker like unwrap(); propagate a typed error \
                     or carry a justified allow"
                        .to_string(),
                );
            }
            if name == "override_pointer_move_min_duration"
                && !self.exempt.min_move
                && args.first().is_some_and(leading_num)
            {
                self.fire(
                    "no-hardcoded-min-move",
                    line,
                    "literal duration bypasses HLISA_MIN_MOVE_MS".to_string(),
                );
            }
        }
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
        // `.add("name", n)` outside tests, `.get("name")` anywhere.
        let counter = match (name, args) {
            ("add", [counter, _]) if !in_test => str_lit(counter),
            ("get", [counter]) => str_lit(counter),
            _ => None,
        };
        if let Some(text) = counter {
            self.check_metric(text, line, name == "add");
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

    /// The min-move override in free/path call position (the method-call
    /// form is in [`Analyzer::method_rules`]).
    fn call_rules(&mut self, callee: &ExprPath, args: &[Expr], in_test: bool) {
        if !self.determinism || in_test || self.exempt.min_move {
            return;
        }
        if let Some(last) = callee.segments.last() {
            if last.name == "override_pointer_move_min_duration"
                && args.first().is_some_and(leading_num)
            {
                self.fire(
                    "no-hardcoded-min-move",
                    last.line,
                    "literal duration bypasses HLISA_MIN_MOVE_MS".to_string(),
                );
            }
        }
    }

    // ---- opaque-run scanning -----------------------------------------

    /// Runs the token-level rules over an opaque run, with `#[test]`
    /// region marking *within* the run so test items inside macro bodies
    /// stay exempt, plus the registry check and ledger site collection,
    /// which apply in test code too.
    fn scan_run(&mut self, run: &TokenRun, in_test: bool) {
        if run.is_empty() {
            return;
        }
        let toks = &run.tokens;
        let marked = mark_test_regions(toks);
        for (i, tok) in toks.iter().enumerate() {
            let Some(name) = tok.ident() else { continue };
            let line = tok.line;
            let t_in_test = in_test || marked[i];
            let dotted_call = i > 0
                && toks[i - 1].is_punct(".")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("("));
            // The call's first argument, when it is a string literal.
            let str_arg = toks
                .get(i + 2)
                .and_then(|t| t.str_text())
                .filter(|_| dotted_call);

            // Registry + sites: live everywhere, including tests.
            if name == "stream" {
                if let Some(text) = str_arg {
                    self.sites.push(StreamSite {
                        function: self.function_label(),
                        kind: SiteKind::Stream,
                        stream: text.to_string(),
                        in_test: t_in_test,
                        line,
                    });
                    self.check_registered(text, line);
                }
            }
            // `.add("name", ...)` outside tests, `.get("name")` anywhere.
            let end = match name {
                "add" if !t_in_test => ",",
                "get" => ")",
                _ => "",
            };
            if let Some(text) = str_arg.filter(|_| !end.is_empty()) {
                if toks.get(i + 3).is_some_and(|t| t.is_punct(end)) {
                    self.check_metric(text, line, name == "add");
                }
            }
            if let Some(kind) = fork_kind(name).filter(|_| dotted_call) {
                let label = str_arg.unwrap_or("<dynamic>");
                self.sites.push(StreamSite {
                    function: self.function_label(),
                    kind,
                    stream: label.to_string(),
                    in_test: t_in_test,
                    line,
                });
            }

            if !self.determinism || t_in_test {
                continue;
            }
            self.ident_rule(name, line, false);
            match name {
                "Instant"
                    if !self.exempt.wall_clock
                        && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                        && toks.get(i + 2).is_some_and(|t| t.is_ident("now")) =>
                {
                    self.fire(
                        "no-wall-clock",
                        line,
                        "Instant::now() reads the wall clock; use simulated time \
                         (SimContext::now_ms, Browser::now_ms)"
                            .to_string(),
                    );
                }
                "unwrap"
                    if !self.exempt.panics
                        && dotted_call
                        && toks.get(i + 2).is_some_and(|t| t.is_punct(")")) =>
                {
                    self.fire(
                        "no-panic",
                        line,
                        "unwrap() panics the worker; propagate a typed error or carry a \
                         justified allow"
                            .to_string(),
                    );
                }
                "expect" if !self.exempt.panics && dotted_call => {
                    self.fire(
                        "no-panic",
                        line,
                        "expect() panics the worker like unwrap(); propagate a typed error \
                         or carry a justified allow"
                            .to_string(),
                    );
                }
                "panic"
                    if !self.exempt.panics && toks.get(i + 1).is_some_and(|t| t.is_punct("!")) =>
                {
                    self.fire(
                        "no-panic",
                        line,
                        "panic! aborts the crawl worker; fail through the typed error path"
                            .to_string(),
                    );
                }
                "min_duration_ms"
                    if !self.exempt.min_move
                        && toks.get(i + 1).is_some_and(|t| t.is_punct(":"))
                        && toks
                            .get(i + 2)
                            .is_some_and(|t| matches!(t.tok, Tok::Num(_))) =>
                {
                    self.fire(
                        "no-hardcoded-min-move",
                        line,
                        "hard-coded move-duration floor; derive from HLISA_MIN_MOVE_MS".to_string(),
                    );
                }
                "override_pointer_move_min_duration"
                    if !self.exempt.min_move
                        && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
                        && toks
                            .get(i + 2)
                            .is_some_and(|t| matches!(t.tok, Tok::Num(_))) =>
                {
                    self.fire(
                        "no-hardcoded-min-move",
                        line,
                        "literal duration bypasses HLISA_MIN_MOVE_MS".to_string(),
                    );
                }
                _ => {}
            }
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

/// True when the expression's leftmost token is a numeric literal — the
/// structural form of the opaque runs' "`(` or `:` followed by a number"
/// checks.
fn leading_num(e: &Expr) -> bool {
    match e {
        Expr::Lit(l) => l.kind == LitKind::Num,
        Expr::Binary { lhs: Some(l), .. } => leading_num(l),
        Expr::MethodCall { recv, .. } => leading_num(recv),
        Expr::Field { base, .. } | Expr::Index { base, .. } => leading_num(base),
        Expr::Cast { expr, .. } => leading_num(expr),
        Expr::Try(inner) => leading_num(inner),
        Expr::Call { callee, .. } => leading_num(callee),
        _ => false,
    }
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

/// Marks the `#[test]` / `#[cfg(test)]` regions of a run's tokens (used
/// for macro bodies, which can hold whole test functions the parser never
/// sees structurally). A region runs from the attribute through the gated
/// item's braced body, or through its `;` when that comes first.
pub(crate) fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let n = tokens.len();
    let mut in_test = vec![false; n];
    let mut i = 0;
    while i < n {
        let is_attr = tokens[i].is_punct("#") && i + 1 < n && tokens[i + 1].is_punct("[");
        if !is_attr {
            i += 1;
            continue;
        }
        let mut depth = 0;
        let mut j = i + 1;
        let mut has_test = false;
        let mut has_not = false;
        while j < n {
            if tokens[j].is_punct("[") {
                depth += 1;
            } else if tokens[j].is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if tokens[j].is_ident("test") {
                has_test = true;
            } else if tokens[j].is_ident("not") {
                has_not = true;
            }
            j += 1;
        }
        if j >= n || !has_test || has_not {
            i = j.min(n - 1) + 1;
            continue;
        }
        // Find the gated item's end: its `;`, or the `}` closing its
        // first brace group. Intervening attributes are skipped.
        let mut k = j + 1;
        while k < n && !tokens[k].is_punct(";") {
            if tokens[k].is_punct("{") {
                let mut d = 0;
                while k < n {
                    if tokens[k].is_punct("{") {
                        d += 1;
                    } else if tokens[k].is_punct("}") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                break;
            }
            if tokens[k].is_punct("#") && k + 1 < n && tokens[k + 1].is_punct("[") {
                let mut d = 0;
                k += 1;
                while k < n {
                    if tokens[k].is_punct("[") {
                        d += 1;
                    } else if tokens[k].is_punct("]") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
            }
            k += 1;
        }
        for flag in in_test.iter_mut().take(k.min(n - 1) + 1).skip(i) {
            *flag = true;
        }
        i = j + 1;
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
