//! The AST for the Rust subset the workspace uses.
//!
//! Design rule: **every lexed token of a file is represented exactly once
//! in its AST** — either as a structural field (a function name, a method
//! call, a literal) or inside an opaque [`TokenRun`] (generics, patterns,
//! types, macro bodies, `use` trees). Structural nodes give the
//! stream-provenance walker real shape to walk (blocks, conditions,
//! match arms, loops, calls); of the opaque runs it scans only those
//! that can hold a call (macro bodies, [`Expr::Opaque`],
//! [`ItemKind::Verbatim`]), for stream names and ledger sites. The
//! determinism source rules and `metric-name-registry` do not read the
//! AST: they read the lexed token stream with one test mask
//! ([`crate::provenance::AstAnalysis`]), so a construct the parser cannot
//! structure hides no token from them.
//! `tests/ast_differential.rs` checks that every workspace file parses
//! with no opaque fallback.
//!
//! Lines are 1-based and attached to the nodes rules anchor diagnostics
//! to; opaque runs carry per-token lines.

use crate::parse::Token;

/// A flattened run of tokens the parser keeps but does not structure:
/// generic parameter lists, where clauses, patterns, types, `use` trees,
/// macro bodies. Group delimiters are preserved as punct tokens so a
/// token-level match on a run (`.stream("...")`) still sees its
/// neighbours.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TokenRun {
    /// The tokens, in source order.
    pub tokens: Vec<Token>,
}

impl TokenRun {
    /// True when the run holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// One attribute: `#[...]` (or the inner form `#![...]`), flattened.
#[derive(Debug, Clone, PartialEq)]
pub struct Attr {
    /// Tokens inside the brackets.
    pub tokens: TokenRun,
    /// Line of the `#`.
    pub line: usize,
}

impl Attr {
    /// True when this attribute gates the item to test builds: it
    /// mentions `test` and is not a `not(...)` form.
    pub fn is_test_gate(&self) -> bool {
        gates_to_test(&self.tokens.tokens)
    }
}

/// True when an attribute's inner tokens gate its item to test builds:
/// they mention `test` and are not a `not(...)` form. The one predicate
/// behind [`Attr::is_test_gate`] and the test mask of
/// [`crate::provenance::AstAnalysis`].
pub(crate) fn gates_to_test(tokens: &[Token]) -> bool {
    tokens.iter().any(|t| t.is_ident("test")) && !tokens.iter().any(|t| t.is_ident("not"))
}

/// A whole parsed file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct File {
    /// Inner attributes (`#![...]`) at the top.
    pub attrs: Vec<Attr>,
    /// Top-level items, in source order.
    pub items: Vec<Item>,
}

/// One item, with its outer attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// Outer attributes, in source order.
    pub attrs: Vec<Attr>,
    /// Visibility tokens (`pub`, `pub(crate)`, ...), kept opaque.
    pub vis: TokenRun,
    /// What the item is.
    pub kind: ItemKind,
    /// Line the item's leading keyword sits on.
    pub line: usize,
}

/// Item kinds. Anything the parser does not model structurally lands in
/// [`ItemKind::Verbatim`] with all its tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemKind {
    /// `fn` (with qualifiers like `unsafe`/`const`/`async` in `quals`).
    Fn(ItemFn),
    /// `mod name { ... }` or `mod name;`.
    Mod(ItemMod),
    /// `impl ... { ... }`.
    Impl(ItemImpl),
    /// `trait ... { ... }`.
    Trait(ItemTrait),
    /// `struct`/`enum`/`union` definition.
    Adt(ItemAdt),
    /// `use ...;` — the tree stays opaque.
    Use(TokenRun),
    /// `const`/`static` with a parsed initialiser expression.
    Const(ItemConst),
    /// `type Alias = ...;` — opaque.
    TypeAlias(TokenRun),
    /// An item-position macro invocation (`macro_rules!`, `thread_local!`).
    Macro(MacroCall),
    /// Anything else (`extern crate`, `extern "C" { ... }`), opaque.
    Verbatim(TokenRun),
}

/// A function item or associated function.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemFn {
    /// Qualifier tokens before `fn` (`const`, `unsafe`, `extern "C"`...).
    pub quals: TokenRun,
    /// The function name.
    pub name: String,
    /// Generic parameters, opaque (without the outer `<`/`>`... included).
    pub generics: TokenRun,
    /// Parameter list, opaque (delimiters included).
    pub params: TokenRun,
    /// Return type tokens (`->` included), opaque.
    pub ret: TokenRun,
    /// Where clause, opaque.
    pub where_clause: TokenRun,
    /// The body, or `None` for a trait method signature.
    pub body: Option<Block>,
}

/// A module item.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemMod {
    /// The module name.
    pub name: String,
    /// Inline items, or `None` for `mod name;`.
    pub items: Option<Vec<Item>>,
}

/// An impl block: header opaque, associated items parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemImpl {
    /// Everything between `impl` and the body brace.
    pub header: TokenRun,
    /// Associated items.
    pub items: Vec<Item>,
}

/// A trait definition: header opaque, associated items parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemTrait {
    /// Everything between `trait` and the body brace.
    pub header: TokenRun,
    /// Associated items.
    pub items: Vec<Item>,
}

/// A struct / enum / union definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemAdt {
    /// `struct` | `enum` | `union`.
    pub keyword: String,
    /// The type name.
    pub name: String,
    /// Generics + where clause, opaque.
    pub header: TokenRun,
    /// Field / variant tokens, opaque (delimiters included).
    pub body: TokenRun,
    /// True when the definition body is brace-delimited (named fields or
    /// enum variants); false for tuple and unit structs.
    pub braced: bool,
}

/// A const or static item.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemConst {
    /// `const` | `static` (plus `mut` for statics).
    pub keyword: TokenRun,
    /// The item name.
    pub name: String,
    /// The type, opaque.
    pub ty: TokenRun,
    /// The initialiser, parsed (`None` in trait position).
    pub value: Option<Expr>,
}

/// A macro invocation: `path!(...)` / `path![...]` / `path! { ... }`.
#[derive(Debug, Clone, PartialEq)]
pub struct MacroCall {
    /// Path segments before the `!`.
    pub path: Vec<String>,
    /// The delimited body, flattened (delimiters included).
    pub body: TokenRun,
    /// Line of the path start.
    pub line: usize,
}

/// A `{ ... }` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Statements, in order.
    pub stmts: Vec<Stmt>,
    /// Line of the opening brace.
    pub line: usize,
}

/// One statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let pat: ty = init else { ... };`
    Let(StmtLet),
    /// A nested item.
    Item(Item),
    /// An expression statement.
    Expr(StmtExpr),
}

/// An expression statement with its outer attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct StmtExpr {
    /// Outer attributes.
    pub attrs: Vec<Attr>,
    /// The expression.
    pub expr: Expr,
    /// True when a trailing semicolon was present.
    pub semi: bool,
}

/// A let statement.
#[derive(Debug, Clone, PartialEq)]
pub struct StmtLet {
    /// Outer attributes.
    pub attrs: Vec<Attr>,
    /// The pattern, opaque.
    pub pat: TokenRun,
    /// The ascribed type, opaque (empty when absent).
    pub ty: TokenRun,
    /// The initialiser.
    pub init: Option<Expr>,
    /// The `else` diverging block of a let-else.
    pub else_block: Option<Block>,
    /// Line of the `let`.
    pub line: usize,
}

/// A literal expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Lit {
    /// Kind of literal.
    pub kind: LitKind,
    /// For strings: the inner text (escapes unprocessed). For numbers:
    /// the source spelling. Otherwise empty.
    pub text: String,
    /// Source line.
    pub line: usize,
}

/// Literal kinds the rules distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LitKind {
    /// A string (or raw/byte string).
    Str,
    /// A numeric literal.
    Num,
    /// A char or byte literal.
    Char,
    /// `true` / `false`.
    Bool,
}

/// One path segment, with its own line (long paths wrap under rustfmt,
/// and diagnostics anchor to the segment, not the path head).
#[derive(Debug, Clone, PartialEq)]
pub struct PathSeg {
    /// The segment identifier (`self`, `Self`, `crate` included).
    pub name: String,
    /// Source line of the segment.
    pub line: usize,
}

/// A path expression: `a::b::c`, possibly with turbofish runs between
/// segments (kept opaque in `turbofish`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExprPath {
    /// Segments, in order.
    pub segments: Vec<PathSeg>,
    /// Any `::<...>` tokens encountered in the path, flattened.
    pub turbofish: TokenRun,
    /// Line of the first segment.
    pub line: usize,
}

/// An `if` (or `if let`) expression.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprIf {
    /// The `let` pattern for `if let`, opaque; empty for plain `if`.
    pub let_pat: TokenRun,
    /// The condition (the scrutinee for `if let`).
    pub cond: Box<Expr>,
    /// The then-block.
    pub then_block: Block,
    /// `else` branch: a `Block` or another `If`.
    pub else_branch: Option<Box<Expr>>,
    /// Line of the `if`.
    pub line: usize,
}

/// A `match` expression.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprMatch {
    /// The scrutinee.
    pub scrutinee: Box<Expr>,
    /// The arms.
    pub arms: Vec<Arm>,
    /// Line of the `match`.
    pub line: usize,
}

/// One match arm.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// Outer attributes.
    pub attrs: Vec<Attr>,
    /// The pattern, opaque.
    pub pat: TokenRun,
    /// The `if` guard, parsed.
    pub guard: Option<Expr>,
    /// The arm body.
    pub body: Expr,
    /// Line of the pattern start.
    pub line: usize,
}

/// A loop of any flavour.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprLoop {
    /// `for` | `while` | `loop`.
    pub keyword: String,
    /// Optional label tokens (`'outer:`).
    pub label: TokenRun,
    /// `for` pattern, opaque (empty otherwise; `while let` patterns too).
    pub pat: TokenRun,
    /// The `for` iterable / `while` condition (`None` for `loop`).
    pub head: Option<Box<Expr>>,
    /// The body.
    pub body: Block,
    /// Line of the keyword.
    pub line: usize,
}

/// A closure.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprClosure {
    /// `move` and friends, opaque.
    pub quals: TokenRun,
    /// Parameters between the pipes, opaque.
    pub params: TokenRun,
    /// Return type tokens, opaque.
    pub ret: TokenRun,
    /// The body.
    pub body: Box<Expr>,
    /// Line of the opening pipe.
    pub line: usize,
}

/// One field initialiser in a struct literal.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldInit {
    /// Field name (a numeric name for tuple-struct field positions).
    pub name: String,
    /// The value; `None` for shorthand `Struct { name }`.
    pub value: Option<Expr>,
    /// Source line of the name.
    pub line: usize,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal.
    Lit(Lit),
    /// A path (identifier chain).
    Path(ExprPath),
    /// A unary operation (`-`, `!`, `*`, `&`, `&mut`).
    Unary {
        /// Operator spelling.
        op: String,
        /// Operand.
        expr: Box<Expr>,
        /// Line of the operator.
        line: usize,
    },
    /// A binary / assignment / range operation.
    Binary {
        /// Operator spelling.
        op: String,
        /// Left side (`None` only for prefix ranges like `..n`).
        lhs: Option<Box<Expr>>,
        /// Right side (`None` for open ranges like `1..`).
        rhs: Option<Box<Expr>>,
        /// Line of the operator.
        line: usize,
    },
    /// A free or path call: `f(args)`.
    Call {
        /// The callee.
        callee: Box<Expr>,
        /// The arguments.
        args: Vec<Expr>,
        /// Line of the opening paren.
        line: usize,
    },
    /// A method call: `recv.name::<...>(args)`.
    MethodCall {
        /// The receiver.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Turbofish tokens, opaque.
        turbofish: TokenRun,
        /// Arguments.
        args: Vec<Expr>,
        /// Line of the method name.
        line: usize,
    },
    /// A field access: `base.name` (or `.0`).
    Field {
        /// The base expression.
        base: Box<Expr>,
        /// Field name (numeric for tuple fields).
        name: String,
        /// Line of the name.
        line: usize,
    },
    /// Indexing: `base[idx]`.
    Index {
        /// The base expression.
        base: Box<Expr>,
        /// The index.
        idx: Box<Expr>,
        /// Line of the bracket.
        line: usize,
    },
    /// A cast: `expr as Type` (type opaque).
    Cast {
        /// The value.
        expr: Box<Expr>,
        /// The target type tokens.
        ty: TokenRun,
        /// Line of the `as`.
        line: usize,
    },
    /// The `?` operator.
    Try(Box<Expr>),
    /// A parenthesised expression or tuple.
    Tuple {
        /// The elements (one = parenthesised expr).
        elems: Vec<Expr>,
        /// True when a trailing comma forced tuple-ness.
        is_tuple: bool,
        /// Line of the open paren.
        line: usize,
    },
    /// An array literal `[a, b]` or repeat `[x; n]`.
    Array {
        /// Elements (for repeat: value then length).
        elems: Vec<Expr>,
        /// True for `[x; n]`.
        repeat: bool,
        /// Line of the bracket.
        line: usize,
    },
    /// A block expression (incl. `unsafe` blocks; quals opaque).
    Block {
        /// `unsafe` etc.
        quals: TokenRun,
        /// The block.
        block: Block,
    },
    /// An `if` expression.
    If(ExprIf),
    /// A `match` expression.
    Match(ExprMatch),
    /// A loop.
    Loop(ExprLoop),
    /// A closure.
    Closure(ExprClosure),
    /// `return expr?`.
    Return(Option<Box<Expr>>, usize),
    /// `break 'label expr?` (label opaque).
    Break(TokenRun, Option<Box<Expr>>, usize),
    /// `continue 'label?`.
    Continue(TokenRun, usize),
    /// A macro invocation in expression position.
    Macro(MacroCall),
    /// A struct literal.
    Struct {
        /// The struct path.
        path: ExprPath,
        /// Field initialisers.
        fields: Vec<FieldInit>,
        /// The `..rest` expression.
        rest: Option<Box<Expr>>,
        /// Line of the brace.
        line: usize,
    },
    /// Tokens the parser could not structure (recorded as a parse issue).
    Opaque(TokenRun),
}

impl Expr {
    /// The source line a diagnostic for this expression anchors to.
    pub fn line(&self) -> usize {
        match self {
            Expr::Lit(l) => l.line,
            Expr::Path(p) => p.line,
            Expr::Unary { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Field { line, .. }
            | Expr::Index { line, .. }
            | Expr::Cast { line, .. }
            | Expr::Tuple { line, .. }
            | Expr::Array { line, .. }
            | Expr::Struct { line, .. } => *line,
            Expr::Try(e) => e.line(),
            Expr::Block { block, .. } => block.line,
            Expr::If(i) => i.line,
            Expr::Match(m) => m.line,
            Expr::Loop(l) => l.line,
            Expr::Closure(c) => c.line,
            Expr::Return(_, line) | Expr::Break(_, _, line) | Expr::Continue(_, line) => *line,
            Expr::Macro(m) => m.line,
            Expr::Opaque(run) => run.tokens.first().map(|t| t.line).unwrap_or(0),
        }
    }
}
