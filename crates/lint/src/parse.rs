//! Lexer, token trees, and the recursive-descent parser behind the
//! AST-grade analyzer ([`crate::provenance`]).
//!
//! Three stages, all hand-rolled (the vendored dependency set has no
//! `syn`):
//!
//! 1. [`lex`] — a full-fidelity token stream: identifiers, lifetimes,
//!    numbers (with their spelling), string/char literals, and
//!    multi-character punctuation (`::`, `->`, `..=`, `>>=`, ...), each
//!    with a 1-based line. Comments and literals are understood well
//!    enough that banned names inside text can never leak into tokens.
//!    Line comments are also scanned for `lint: allow(...)` directives —
//!    **doc comments** (`///`, `//!`) are prose, not directives, and are
//!    skipped.
//! 2. [`build_trees`] — balanced `()`/`[]`/`{}` token trees, so the
//!    parser can treat any delimited region as one unit and opaque
//!    regions can be flattened back to tokens without re-lexing.
//! 3. `Parser` — recursive descent over the trees into
//!    [`crate::ast::File`]: items, blocks, statements, and a Pratt
//!    expression grammar covering the Rust subset this workspace uses.
//!    Anything unrecognised degrades to an opaque token run and records
//!    a [`ParseIssue`]; the workspace gate requires zero issues, so the
//!    fallback exists for fixtures and future syntax, not for production
//!    sources.

use crate::ast::{
    Arm, Attr, Block, Expr, ExprClosure, ExprIf, ExprLoop, ExprMatch, ExprPath, FieldInit, File,
    Item, ItemAdt, ItemConst, ItemFn, ItemImpl, ItemMod, ItemTrait, Lit, LitKind, MacroCall,
    PathSeg, Stmt, StmtExpr, StmtLet, TokenRun,
};

/// One lexed token kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// An identifier or keyword (`fn`, `HashMap`, `r#async`).
    Ident(String),
    /// A lifetime or loop label (`'a` — without the quote).
    Lifetime(String),
    /// A numeric literal, with its source spelling (`1_200.0`, `0xff`).
    Num(String),
    /// A string literal (plain, raw, or byte), with its inner text
    /// (escape sequences unprocessed).
    Str(String),
    /// A char or byte-char literal.
    Char,
    /// Punctuation, multi-character sequences combined (`::`, `..=`).
    Punct(String),
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Token {
    /// The identifier text, when this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// The punctuation text, when this is punctuation.
    pub fn punct(&self) -> Option<&str> {
        match &self.tok {
            Tok::Punct(s) => Some(s),
            _ => None,
        }
    }

    /// True when this token is the punctuation `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        self.punct() == Some(p)
    }

    /// True when this token is the identifier `w`.
    pub fn is_ident(&self, w: &str) -> bool {
        self.ident() == Some(w)
    }

    /// The inner text, when this is a string literal.
    pub fn str_text(&self) -> Option<&str> {
        match &self.tok {
            Tok::Str(s) => Some(s),
            _ => None,
        }
    }

    fn punct_tok(text: &str, line: usize) -> Token {
        Token {
            tok: Tok::Punct(text.to_string()),
            line,
        }
    }
}

/// One `lint: allow(<rule>)` directive found in a (non-doc) line comment.
#[derive(Debug, Clone, PartialEq)]
pub struct AllowDirective {
    /// The rule id as written (not yet validated against the catalog).
    pub rule: String,
    /// Line the comment sits on.
    pub line: usize,
}

/// Lexer output.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Allow directives, in source order.
    pub allows: Vec<AllowDirective>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True when a `//` comment is a doc comment (`///` or `//!` — but
/// `////...` is an ordinary comment again, per the reference).
fn is_doc_line_comment(text: &str) -> bool {
    (text.starts_with("///") && !text.starts_with("////")) || text.starts_with("//!")
}

/// Records `lint: allow(a, b)` directives from an ordinary line comment.
fn scan_allow(comment: &str, line: usize, allows: &mut Vec<AllowDirective>) {
    if is_doc_line_comment(comment) {
        return;
    }
    let mut rest = comment;
    while let Some(pos) = rest.find("lint: allow(") {
        let tail = &rest[pos + "lint: allow(".len()..];
        let Some(close) = tail.find(')') else { break };
        for rule in tail[..close].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                allows.push(AllowDirective {
                    rule: rule.to_string(),
                    line,
                });
            }
        }
        rest = &tail[close..];
    }
}

/// The longest punctuation sequence starting at `chars[i]`.
fn punct_len(chars: &[char], i: usize) -> usize {
    let c0 = chars[i];
    let c1 = chars.get(i + 1).copied().unwrap_or('\0');
    let c2 = chars.get(i + 2).copied().unwrap_or('\0');
    match (c0, c1, c2) {
        ('<', '<', '=') | ('>', '>', '=') | ('.', '.', '=') | ('.', '.', '.') => 3,
        _ => match (c0, c1) {
            (':', ':')
            | ('-', '>')
            | ('=', '>')
            | ('=', '=')
            | ('!', '=')
            | ('<', '=')
            | ('>', '=')
            | ('&', '&')
            | ('|', '|')
            | ('<', '<')
            | ('>', '>')
            | ('.', '.')
            | ('+', '=')
            | ('-', '=')
            | ('*', '=')
            | ('/', '=')
            | ('%', '=')
            | ('^', '=')
            | ('&', '=')
            | ('|', '=') => 2,
            _ => 1,
        },
    }
}

/// Lexes one source file into tokens + allow directives.
pub fn lex(src: &str) -> Lexed {
    let mut out = Lexed::default();
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut i = 0;
    let mut line = 1;

    // Consumes a `"`-delimited body with escapes, returning (end, text).
    let scan_quoted = |mut j: usize, line: &mut usize| -> (usize, String) {
        let mut text = String::new();
        while j < n {
            match chars[j] {
                '\\' => {
                    text.push(chars[j]);
                    if j + 1 < n {
                        text.push(chars[j + 1]);
                    }
                    j += 2;
                }
                '"' => {
                    j += 1;
                    break;
                }
                '\n' => {
                    *line += 1;
                    text.push('\n');
                    j += 1;
                }
                c => {
                    text.push(c);
                    j += 1;
                }
            }
        }
        (j, text)
    };

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                let start = i;
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
                let comment: String = chars[start..i].iter().collect();
                scan_allow(&comment, line, &mut out.allows);
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                let (j, text) = scan_quoted(i + 1, &mut line);
                i = j;
                out.tokens.push(Token {
                    tok: Tok::Str(text),
                    line: start_line,
                });
            }
            '\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                if i + 1 < n && is_ident_start(chars[i + 1]) && chars[i + 1] != '\\' {
                    let mut j = i + 2;
                    while j < n && is_ident_continue(chars[j]) {
                        j += 1;
                    }
                    if j < n && chars[j] == '\'' {
                        out.tokens.push(Token {
                            tok: Tok::Char,
                            line,
                        });
                        i = j + 1;
                    } else {
                        let name: String = chars[i + 1..j].iter().collect();
                        out.tokens.push(Token {
                            tok: Tok::Lifetime(name),
                            line,
                        });
                        i = j;
                    }
                } else {
                    let start_line = line;
                    i += 1;
                    while i < n {
                        match chars[i] {
                            '\\' => i += 2,
                            '\'' => {
                                i += 1;
                                break;
                            }
                            '\n' => {
                                line += 1;
                                i += 1;
                            }
                            _ => i += 1,
                        }
                    }
                    out.tokens.push(Token {
                        tok: Tok::Char,
                        line: start_line,
                    });
                }
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                if c == '0' && i + 1 < n && matches!(chars[i + 1], 'x' | 'o' | 'b') {
                    i += 2;
                    while i < n && (chars[i].is_ascii_hexdigit() || chars[i] == '_') {
                        i += 1;
                    }
                } else {
                    while i < n && (chars[i].is_ascii_digit() || chars[i] == '_') {
                        i += 1;
                    }
                    // Fractional part — but never into `..` or `.method()`.
                    if i + 1 < n && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                        i += 1;
                        while i < n && (chars[i].is_ascii_digit() || chars[i] == '_') {
                            i += 1;
                        }
                    }
                    // Exponent (`1e-9`, `2.5E+3`).
                    if i < n
                        && matches!(chars[i], 'e' | 'E')
                        && (i + 1 < n && chars[i + 1].is_ascii_digit()
                            || i + 2 < n
                                && matches!(chars[i + 1], '+' | '-')
                                && chars[i + 2].is_ascii_digit())
                    {
                        i += 1;
                        if matches!(chars[i], '+' | '-') {
                            i += 1;
                        }
                        while i < n && (chars[i].is_ascii_digit() || chars[i] == '_') {
                            i += 1;
                        }
                    }
                }
                // Type suffix (`u8`, `f64`, `usize`).
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
                out.tokens.push(Token {
                    tok: Tok::Num(chars[start..i].iter().collect()),
                    line,
                });
            }
            _ if is_ident_start(c) => {
                let start = i;
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                // Raw identifier: `r#async`.
                if word == "r"
                    && i + 1 < n
                    && chars[i] == '#'
                    && is_ident_start(chars[i + 1])
                    && chars[i + 1] != '"'
                {
                    let mut j = i + 1;
                    while j < n && is_ident_continue(chars[j]) {
                        j += 1;
                    }
                    // `r#"` never reaches here (`"` is not ident-start).
                    out.tokens.push(Token {
                        tok: Tok::Ident(chars[i + 1..j].iter().collect()),
                        line,
                    });
                    i = j;
                    continue;
                }
                // Byte char: `b'x'`.
                if word == "b" && i < n && chars[i] == '\'' {
                    let start_line = line;
                    i += 1;
                    while i < n {
                        match chars[i] {
                            '\\' => i += 2,
                            '\'' => {
                                i += 1;
                                break;
                            }
                            '\n' => {
                                line += 1;
                                i += 1;
                            }
                            _ => i += 1,
                        }
                    }
                    out.tokens.push(Token {
                        tok: Tok::Char,
                        line: start_line,
                    });
                    continue;
                }
                // Raw / byte string prefixes: `r"…"`, `r#"…"#`, `b"…"`,
                // `br##"…"##`.
                if (word == "r" || word == "b" || word == "br" || word == "rb")
                    && i < n
                    && (chars[i] == '"' || chars[i] == '#')
                {
                    let mut hashes = 0;
                    let mut j = i;
                    while j < n && chars[j] == '#' {
                        hashes += 1;
                        j += 1;
                    }
                    if j < n && chars[j] == '"' {
                        let start_line = line;
                        if word.contains('r') {
                            j += 1;
                            let text_start = j;
                            let mut text_end = j;
                            'raw: while j < n {
                                if chars[j] == '\n' {
                                    line += 1;
                                } else if chars[j] == '"' {
                                    let mut k = 0;
                                    while k < hashes && j + 1 + k < n && chars[j + 1 + k] == '#' {
                                        k += 1;
                                    }
                                    if k == hashes {
                                        text_end = j;
                                        j += 1 + hashes;
                                        break 'raw;
                                    }
                                }
                                j += 1;
                            }
                            out.tokens.push(Token {
                                tok: Tok::Str(chars[text_start..text_end].iter().collect()),
                                line: start_line,
                            });
                            i = j;
                            continue;
                        } else if hashes == 0 {
                            let (end, text) = scan_quoted(j + 1, &mut line);
                            out.tokens.push(Token {
                                tok: Tok::Str(text),
                                line: start_line,
                            });
                            i = end;
                            continue;
                        }
                    }
                }
                out.tokens.push(Token {
                    tok: Tok::Ident(word),
                    line,
                });
            }
            _ => {
                let len = punct_len(&chars, i);
                out.tokens.push(Token {
                    tok: Tok::Punct(chars[i..i + len].iter().collect()),
                    line,
                });
                i += len;
            }
        }
    }
    out
}

/// One node of a token tree: a leaf token or a delimited group.
#[derive(Debug, Clone, PartialEq)]
pub enum Tree {
    /// A single non-delimiter token.
    Leaf(Token),
    /// A balanced `()` / `[]` / `{}` group.
    Group(Group),
}

/// A delimited token-tree group.
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// `(`, `[`, or `{`.
    pub delim: char,
    /// Line of the opening delimiter.
    pub open_line: usize,
    /// Line of the closing delimiter.
    pub close_line: usize,
    /// Children, in source order.
    pub trees: Vec<Tree>,
}

/// A construct the parser could not fully structure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseIssue {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

fn close_of(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

/// Builds balanced token trees; unbalanced delimiters become issues.
pub fn build_trees(tokens: &[Token]) -> (Vec<Tree>, Vec<ParseIssue>) {
    // The root's children live outside the stack: an empty stack means
    // "at top level", so no frame access can fail.
    let mut issues = Vec::new();
    let mut root: Vec<Tree> = Vec::new();
    let mut stack: Vec<(char, usize, Vec<Tree>)> = Vec::new();
    fn dest<'a>(
        root: &'a mut Vec<Tree>,
        stack: &'a mut [(char, usize, Vec<Tree>)],
    ) -> &'a mut Vec<Tree> {
        match stack.last_mut() {
            Some(top) => &mut top.2,
            None => root,
        }
    }
    for t in tokens {
        match t.punct() {
            Some(p @ ("(" | "[" | "{")) => {
                let delim = match p {
                    "(" => '(',
                    "[" => '[',
                    _ => '{',
                };
                stack.push((delim, t.line, Vec::new()));
            }
            Some(p @ (")" | "]" | "}")) => {
                let close = match p {
                    ")" => ')',
                    "]" => ']',
                    _ => '}',
                };
                if stack.last().is_some_and(|top| close_of(top.0) == close) {
                    if let Some((delim, open_line, trees)) = stack.pop() {
                        dest(&mut root, &mut stack).push(Tree::Group(Group {
                            delim,
                            open_line,
                            close_line: t.line,
                            trees,
                        }));
                    }
                } else {
                    issues.push(ParseIssue {
                        line: t.line,
                        message: format!("unbalanced closing delimiter `{p}`"),
                    });
                    dest(&mut root, &mut stack).push(Tree::Leaf(t.clone()));
                }
            }
            _ => dest(&mut root, &mut stack).push(Tree::Leaf(t.clone())),
        }
    }
    while let Some((delim, open_line, trees)) = stack.pop() {
        issues.push(ParseIssue {
            line: open_line,
            message: format!("unclosed delimiter `{delim}`"),
        });
        dest(&mut root, &mut stack).push(Tree::Group(Group {
            delim,
            open_line,
            close_line: open_line,
            trees,
        }));
    }
    (root, issues)
}

/// Flattens one tree back into tokens; group delimiters become puncts.
pub fn flatten_tree(tree: &Tree, out: &mut Vec<Token>) {
    match tree {
        Tree::Leaf(t) => out.push(t.clone()),
        Tree::Group(g) => {
            out.push(Token::punct_tok(&g.delim.to_string(), g.open_line));
            for t in &g.trees {
                flatten_tree(t, out);
            }
            out.push(Token::punct_tok(
                &close_of(g.delim).to_string(),
                g.close_line,
            ));
        }
    }
}

/// Flattens a slice of trees into a [`TokenRun`].
pub fn flatten_run(trees: &[Tree]) -> TokenRun {
    let mut tokens = Vec::new();
    for t in trees {
        flatten_tree(t, &mut tokens);
    }
    TokenRun { tokens }
}

/// A fully parsed file: the flat token stream, allow directives, the
/// AST, and any parse issues.
#[derive(Debug)]
pub struct ParsedFile {
    /// The full lexed token stream (pre-tree).
    pub tokens: Vec<Token>,
    /// `lint: allow(...)` directives, in source order.
    pub allows: Vec<AllowDirective>,
    /// The parsed AST.
    pub ast: File,
    /// Everything the parser had to give up on (empty on the workspace).
    pub issues: Vec<ParseIssue>,
}

/// Lexes and parses one file.
pub fn parse_file(src: &str) -> ParsedFile {
    let lexed = lex(src);
    let (trees, mut issues) = build_trees(&lexed.tokens);
    let mut parser = Parser { issues: Vec::new() };
    let mut cur = Cur {
        trees: &trees,
        pos: 0,
    };
    let ast = parser.parse_top(&mut cur);
    issues.append(&mut parser.issues);
    ParsedFile {
        tokens: lexed.tokens,
        allows: lexed.allows,
        ast,
        issues,
    }
}

/// A cursor over a tree slice.
struct Cur<'a> {
    trees: &'a [Tree],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn peek(&self) -> Option<&'a Tree> {
        self.trees.get(self.pos)
    }

    fn peek_at(&self, n: usize) -> Option<&'a Tree> {
        self.trees.get(self.pos + n)
    }

    fn leaf(&self) -> Option<&'a Token> {
        match self.peek() {
            Some(Tree::Leaf(t)) => Some(t),
            _ => None,
        }
    }

    fn leaf_at(&self, n: usize) -> Option<&'a Token> {
        match self.peek_at(n) {
            Some(Tree::Leaf(t)) => Some(t),
            _ => None,
        }
    }

    fn at_punct(&self, p: &str) -> bool {
        self.leaf().is_some_and(|t| t.is_punct(p))
    }

    fn at_ident(&self, w: &str) -> bool {
        self.leaf().is_some_and(|t| t.is_ident(w))
    }

    fn at_group(&self, delim: char) -> bool {
        matches!(self.peek(), Some(Tree::Group(g)) if g.delim == delim)
    }

    fn bump(&mut self) -> Option<&'a Tree> {
        let t = self.trees.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, w: &str) -> bool {
        if self.at_ident(w) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// The line of the next token (or the last seen line at the end).
    fn line(&self) -> usize {
        match self.peek() {
            Some(Tree::Leaf(t)) => t.line,
            Some(Tree::Group(g)) => g.open_line,
            None => match self.trees.last() {
                Some(Tree::Leaf(t)) => t.line,
                Some(Tree::Group(g)) => g.close_line,
                None => 0,
            },
        }
    }

    fn done(&self) -> bool {
        self.pos >= self.trees.len()
    }

    /// Consumes one tree, flattening it into `run`.
    fn bump_into(&mut self, run: &mut TokenRun) {
        if let Some(t) = self.bump() {
            flatten_tree(t, &mut run.tokens);
        }
    }

    /// The group at the cursor, consumed, if it has delimiter `delim`.
    fn eat_group(&mut self, delim: char) -> Option<&'a Group> {
        match self.peek() {
            Some(Tree::Group(g)) if g.delim == delim => {
                self.pos += 1;
                Some(g)
            }
            _ => None,
        }
    }
}

/// How a balanced-angle capture ended.
enum AngleEnd {
    /// Closed normally.
    Closed,
    /// Closed via a `>=` / `>>=` token whose trailing `=` belongs to the
    /// surrounding context (e.g. `let x: Vec<u8>= v`).
    ClosedThenEq,
    /// Ran out of input.
    Eof,
}

/// The recursive-descent parser. Methods record [`ParseIssue`]s instead
/// of failing: every path makes progress and returns *something*.
struct Parser {
    issues: Vec<ParseIssue>,
}

impl Parser {
    fn issue(&mut self, line: usize, message: impl Into<String>) {
        self.issues.push(ParseIssue {
            line,
            message: message.into(),
        });
    }

    fn parse_top(&mut self, c: &mut Cur) -> File {
        let mut file = File::default();
        // Inner attributes: `#![...]`.
        while c.at_punct("#")
            && c.leaf_at(1).is_some_and(|t| t.is_punct("!"))
            && matches!(c.peek_at(2), Some(Tree::Group(g)) if g.delim == '[')
        {
            let line = c.line();
            c.bump();
            c.bump();
            let Some(g) = c.eat_group('[') else { break };
            file.attrs.push(Attr {
                tokens: flatten_run(&g.trees),
                line,
            });
        }
        file.items = self.parse_items(c);
        file
    }

    fn parse_items(&mut self, c: &mut Cur) -> Vec<Item> {
        let mut items = Vec::new();
        while !c.done() {
            items.push(self.parse_item(c));
        }
        items
    }

    /// Outer attributes: `#[...]`*.
    fn parse_attrs(&mut self, c: &mut Cur) -> Vec<Attr> {
        let mut attrs = Vec::new();
        while c.at_punct("#") && matches!(c.peek_at(1), Some(Tree::Group(g)) if g.delim == '[') {
            let line = c.line();
            c.bump();
            let Some(g) = c.eat_group('[') else { break };
            attrs.push(Attr {
                tokens: flatten_run(&g.trees),
                line,
            });
        }
        attrs
    }

    fn parse_item(&mut self, c: &mut Cur) -> Item {
        let attrs = self.parse_attrs(c);
        let line = c.line();
        // Visibility: `pub`, `pub(crate)`, `pub(in ...)`.
        let mut vis = TokenRun::default();
        if c.at_ident("pub") {
            c.bump_into(&mut vis);
            if c.at_group('(') {
                c.bump_into(&mut vis);
            }
        }
        // Qualifiers before `fn` — only treated as such when an `fn`
        // actually follows (`const` alone starts a const item).
        let mut quals = TokenRun::default();
        if self.fn_follows_quals(c) {
            while !c.at_ident("fn") {
                c.bump_into(&mut quals);
            }
        } else if c.at_ident("unsafe")
            && c.leaf_at(1)
                .is_some_and(|t| t.is_ident("impl") || t.is_ident("trait"))
        {
            c.bump_into(&mut quals);
        }
        let kind = if c.eat_ident("fn") {
            crate::ast::ItemKind::Fn(self.parse_fn(c, quals))
        } else {
            // `unsafe impl`, `unsafe trait` — any quals fold into the
            // header run.
            self.parse_keyword_item(c, quals, line)
        };
        Item {
            attrs,
            vis,
            kind,
            line,
        }
    }

    /// True when the tokens at the cursor are fn qualifiers followed by
    /// `fn` (`const unsafe extern "C" fn`).
    fn fn_follows_quals(&self, c: &Cur) -> bool {
        let mut n = 0;
        loop {
            match c.leaf_at(n) {
                Some(t) if t.is_ident("fn") => return true,
                Some(t)
                    if t.ident()
                        .is_some_and(|w| matches!(w, "const" | "unsafe" | "async" | "extern")) =>
                {
                    n += 1;
                }
                Some(t) if t.str_text().is_some() => n += 1,
                _ => return false,
            }
            if n > 4 {
                return false;
            }
        }
    }

    /// Items dispatched on their leading keyword (everything but `fn`,
    /// whose qualifiers are handled by the caller).
    fn parse_keyword_item(
        &mut self,
        c: &mut Cur,
        lead: TokenRun,
        line: usize,
    ) -> crate::ast::ItemKind {
        use crate::ast::ItemKind;
        if c.at_ident("mod") {
            c.bump();
            let name = self.expect_name(c);
            if c.eat_punct(";") {
                return ItemKind::Mod(ItemMod { name, items: None });
            }
            if let Some(g) = c.eat_group('{') {
                let mut inner = Cur {
                    trees: &g.trees,
                    pos: 0,
                };
                return ItemKind::Mod(ItemMod {
                    name,
                    items: Some(self.parse_items(&mut inner)),
                });
            }
            self.issue(line, "mod without body or semicolon");
            return ItemKind::Mod(ItemMod { name, items: None });
        }
        if c.at_ident("impl") || c.at_ident("trait") {
            let is_impl = c.at_ident("impl");
            c.bump();
            let mut header = lead;
            while !c.done() && !c.at_group('{') {
                c.bump_into(&mut header);
            }
            let items = match c.eat_group('{') {
                Some(g) => {
                    let mut inner = Cur {
                        trees: &g.trees,
                        pos: 0,
                    };
                    self.parse_items(&mut inner)
                }
                None => {
                    self.issue(line, "impl/trait without body");
                    Vec::new()
                }
            };
            return if is_impl {
                ItemKind::Impl(ItemImpl { header, items })
            } else {
                ItemKind::Trait(ItemTrait { header, items })
            };
        }
        if c.at_ident("struct")
            || c.at_ident("enum")
            || (c.at_ident("union") && c.leaf_at(1).is_some_and(|t| t.ident().is_some()))
        {
            // The `at_ident` checks above guarantee the leaf; the
            // fallback is dead but keeps the parser panic-free.
            let keyword = c
                .leaf()
                .and_then(Token::ident)
                .unwrap_or_default()
                .to_string();
            c.bump();
            let name = self.expect_name(c);
            let mut header = TokenRun::default();
            let mut body = TokenRun::default();
            let mut braced = false;
            loop {
                if c.done() {
                    break;
                }
                if c.eat_punct(";") {
                    break; // unit struct
                }
                if c.at_group('{') {
                    c.bump_into(&mut body);
                    braced = true;
                    break;
                }
                if c.at_group('(') {
                    // Tuple struct: fields, then an optional where
                    // clause, then `;`.
                    c.bump_into(&mut body);
                    while !c.done() && !c.at_punct(";") {
                        c.bump_into(&mut body);
                    }
                    c.eat_punct(";");
                    break;
                }
                c.bump_into(&mut header);
            }
            return ItemKind::Adt(ItemAdt {
                keyword,
                name,
                header,
                body,
                braced,
            });
        }
        if c.at_ident("use") {
            let mut run = TokenRun::default();
            while !c.done() && !c.at_punct(";") {
                c.bump_into(&mut run);
            }
            c.eat_punct(";");
            return ItemKind::Use(run);
        }
        if c.at_ident("const") || c.at_ident("static") {
            let mut keyword = TokenRun::default();
            c.bump_into(&mut keyword);
            if c.at_ident("mut") {
                c.bump_into(&mut keyword);
            }
            let name = self.expect_name(c);
            let mut ty = TokenRun::default();
            let value = if c.eat_punct(":") {
                if self.capture_type_until_eq(c, &mut ty) {
                    let value = self.parse_expr(c, false);
                    if !c.eat_punct(";") {
                        self.issue(line, "const item missing `;`");
                    }
                    Some(value)
                } else {
                    c.eat_punct(";");
                    None
                }
            } else {
                self.issue(line, "const item missing `:`");
                None
            };
            return ItemKind::Const(ItemConst {
                keyword,
                name,
                ty,
                value,
            });
        }
        if c.at_ident("type") {
            let mut run = TokenRun::default();
            while !c.done() && !c.at_punct(";") {
                c.bump_into(&mut run);
            }
            c.eat_punct(";");
            return ItemKind::TypeAlias(run);
        }
        if c.at_ident("extern") {
            // `extern crate ...;` or `extern "C" { ... }` — opaque.
            let mut run = lead;
            while !c.done() && !c.at_punct(";") {
                let was_brace = c.at_group('{');
                c.bump_into(&mut run);
                if was_brace {
                    return ItemKind::Verbatim(run);
                }
            }
            c.eat_punct(";");
            return ItemKind::Verbatim(run);
        }
        // Item-position macro: `path::to::mac! { ... }` (incl.
        // `macro_rules! name { ... }`).
        if c.leaf().is_some_and(|t| t.ident().is_some()) {
            let mut n = 1;
            while c.leaf_at(n).is_some_and(|t| t.is_punct("::"))
                && c.leaf_at(n + 1).is_some_and(|t| t.ident().is_some())
            {
                n += 2;
            }
            if c.leaf_at(n).is_some_and(|t| t.is_punct("!")) {
                let mut path = Vec::new();
                while !c.at_punct("!") {
                    if let Some(t) = c.leaf() {
                        if let Some(w) = t.ident() {
                            path.push(w.to_string());
                        }
                    }
                    c.bump();
                }
                c.bump(); // `!`
                let mut body = TokenRun::default();
                // `macro_rules! name` carries a name before the body.
                if c.leaf().is_some_and(|t| t.ident().is_some()) {
                    c.bump_into(&mut body);
                }
                if c.peek().is_some() {
                    c.bump_into(&mut body);
                }
                c.eat_punct(";");
                return ItemKind::Macro(MacroCall { path, body, line });
            }
        }
        // Fallback: consume to the next `;` or brace group, opaquely.
        let mut run = lead;
        self.issue(line, "unrecognised item; kept as opaque tokens");
        while !c.done() {
            if c.eat_punct(";") {
                break;
            }
            let was_brace = c.at_group('{');
            c.bump_into(&mut run);
            if was_brace {
                break;
            }
        }
        crate::ast::ItemKind::Verbatim(run)
    }

    fn expect_name(&mut self, c: &mut Cur) -> String {
        if let Some(t) = c.leaf() {
            if let Some(w) = t.ident() {
                let name = w.to_string();
                c.bump();
                return name;
            }
        }
        self.issue(c.line(), "expected a name");
        String::new()
    }

    fn parse_fn(&mut self, c: &mut Cur, quals: TokenRun) -> ItemFn {
        let name = self.expect_name(c);
        let mut generics = TokenRun::default();
        if c.leaf()
            .is_some_and(|t| t.punct().is_some_and(|p| p.starts_with('<')))
        {
            self.capture_angles(c, &mut generics);
        }
        let mut params = TokenRun::default();
        if c.at_group('(') {
            c.bump_into(&mut params);
        } else {
            self.issue(c.line(), "fn without parameter list");
        }
        let mut ret = TokenRun::default();
        if c.at_punct("->") {
            c.bump_into(&mut ret);
            while !c.done() && !c.at_group('{') && !c.at_ident("where") && !c.at_punct(";") {
                if c.leaf()
                    .is_some_and(|t| t.punct().is_some_and(|p| p.starts_with('<')))
                {
                    self.capture_angles(c, &mut ret);
                } else {
                    c.bump_into(&mut ret);
                }
            }
        }
        let mut where_clause = TokenRun::default();
        if c.at_ident("where") {
            while !c.done() && !c.at_group('{') && !c.at_punct(";") {
                c.bump_into(&mut where_clause);
            }
        }
        let body = match c.eat_group('{') {
            Some(g) => Some(self.parse_block(g)),
            None => {
                c.eat_punct(";");
                None
            }
        };
        ItemFn {
            quals,
            name,
            generics,
            params,
            ret,
            where_clause,
            body,
        }
    }

    /// Captures a balanced `<...>` run (generics, turbofish) into `run`,
    /// splitting `>>`, `>=`, `>>=` as needed.
    fn capture_angles(&mut self, c: &mut Cur, run: &mut TokenRun) -> AngleEnd {
        let mut depth = 0i32;
        loop {
            let Some(tree) = c.peek() else {
                return AngleEnd::Eof;
            };
            match tree {
                Tree::Leaf(t) => {
                    let (delta, then_eq) = match t.punct() {
                        Some("<") => (1, false),
                        Some("<<") => (2, false),
                        Some(">") => (-1, false),
                        Some(">>") => (-2, false),
                        Some(">=") => (-1, true),
                        Some(">>=") => (-2, true),
                        _ => (0, false),
                    };
                    if then_eq {
                        // Emit the closing `>`s; hand the `=` back.
                        let count = (-delta) as usize;
                        for _ in 0..count {
                            run.tokens.push(Token::punct_tok(">", t.line));
                        }
                        c.bump();
                        depth += delta;
                        if depth <= 0 {
                            return AngleEnd::ClosedThenEq;
                        }
                        // `=` deep inside generics (const default) —
                        // keep it in the run.
                        run.tokens.push(Token::punct_tok("=", t.line));
                        continue;
                    }
                    depth += delta;
                    c.bump_into(run);
                    if delta < 0 && depth <= 0 {
                        return AngleEnd::Closed;
                    }
                }
                Tree::Group(_) => c.bump_into(run),
            }
        }
    }

    /// Captures a type after `const NAME:` until `=` (returns `true`) or
    /// `;` / end (returns `false`). `Vec<u8>=` splits correctly.
    fn capture_type_until_eq(&mut self, c: &mut Cur, ty: &mut TokenRun) -> bool {
        loop {
            let Some(tree) = c.peek() else { return false };
            match tree {
                Tree::Leaf(t) => match t.punct() {
                    Some("=") => {
                        c.bump();
                        return true;
                    }
                    Some(";") => return false,
                    Some("<") | Some("<<") => {
                        if matches!(self.capture_angles(c, ty), AngleEnd::ClosedThenEq) {
                            return true;
                        }
                    }
                    _ => c.bump_into(ty),
                },
                Tree::Group(_) => c.bump_into(ty),
            }
        }
    }

    fn parse_block(&mut self, g: &Group) -> Block {
        let mut c = Cur {
            trees: &g.trees,
            pos: 0,
        };
        let mut stmts = Vec::new();
        while !c.done() {
            let attrs = self.parse_attrs(&mut c);
            if c.eat_punct(";") {
                continue;
            }
            if c.done() {
                break;
            }
            if c.at_ident("let") {
                stmts.push(Stmt::Let(self.parse_let(&mut c, attrs)));
                continue;
            }
            if self.at_item_start(&c) {
                let mut item = self.parse_item(&mut c);
                let mut item_attrs = attrs;
                item_attrs.append(&mut item.attrs);
                item.attrs = item_attrs;
                stmts.push(Stmt::Item(item));
                continue;
            }
            let expr = self.parse_expr(&mut c, false);
            let semi = c.eat_punct(";");
            stmts.push(Stmt::Expr(StmtExpr { attrs, expr, semi }));
        }
        Block {
            stmts,
            line: g.open_line,
        }
    }

    /// True when the cursor starts a (block-level) item, not an expr.
    fn at_item_start(&self, c: &Cur) -> bool {
        let Some(t) = c.leaf() else { return false };
        let Some(w) = t.ident() else { return false };
        match w {
            "fn" | "struct" | "enum" | "trait" | "impl" | "mod" | "use" | "static" => true,
            "pub" => true,
            "type" => c.leaf_at(1).is_some_and(|t| t.ident().is_some()),
            "const" => {
                // `const fn` / `const NAME:` are items; `const` is not
                // an expression starter otherwise.
                !c.leaf_at(1).is_some_and(|t| t.is_punct("{"))
            }
            "unsafe" | "async" | "extern" => self.fn_follows_quals(c),
            "union" => {
                c.leaf_at(1).is_some_and(|t| t.ident().is_some())
                    && matches!(c.peek_at(2), Some(Tree::Group(g)) if g.delim == '{')
            }
            _ => false,
        }
    }

    fn parse_let(&mut self, c: &mut Cur, attrs: Vec<Attr>) -> StmtLet {
        let line = c.line();
        c.bump(); // `let`
        let mut pat = TokenRun::default();
        while !c.done() && !c.at_punct(":") && !c.at_punct("=") && !c.at_punct(";") {
            c.bump_into(&mut pat);
        }
        let mut ty = TokenRun::default();
        let at_init = if c.eat_punct(":") {
            self.capture_type_until_eq(c, &mut ty)
        } else {
            c.eat_punct("=")
        };
        let init = if at_init {
            Some(self.parse_expr(c, false))
        } else {
            None
        };
        let else_block = if c.at_ident("else") {
            c.bump();
            match c.eat_group('{') {
                Some(g) => Some(self.parse_block(g)),
                None => {
                    self.issue(line, "let-else without block");
                    None
                }
            }
        } else {
            None
        };
        if !c.eat_punct(";") && !c.done() {
            self.issue(line, "let statement missing `;`");
        }
        StmtLet {
            attrs,
            pat,
            ty,
            init,
            else_block,
            line,
        }
    }

    /// Binding powers for infix operators: `(left, right)`.
    fn infix_bp(op: &str) -> Option<(u8, u8)> {
        Some(match op {
            "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>=" => (2, 1),
            ".." | "..=" => (5, 6),
            "||" => (7, 8),
            "&&" => (9, 10),
            "==" | "!=" | "<" | ">" | "<=" | ">=" => (11, 12),
            "|" => (13, 14),
            "^" => (15, 16),
            "&" => (17, 18),
            "<<" | ">>" => (19, 20),
            "+" | "-" => (21, 22),
            "*" | "/" | "%" => (23, 24),
            _ => return None,
        })
    }

    /// True when the cursor could start an expression (used for optional
    /// trailing operands: `return`, `break`, open ranges).
    fn can_start_expr(&self, c: &Cur, no_struct: bool) -> bool {
        match c.peek() {
            None => false,
            Some(Tree::Group(g)) => !(no_struct && g.delim == '{'),
            Some(Tree::Leaf(t)) => match &t.tok {
                Tok::Ident(w) => w != "else" && w != "in" && w != "where",
                Tok::Num(_) | Tok::Str(_) | Tok::Char | Tok::Lifetime(_) => true,
                Tok::Punct(p) => matches!(
                    p.as_str(),
                    "-" | "!" | "*" | "&" | "&&" | "|" | "||" | ".." | "..=" | "<" | "#"
                ),
            },
        }
    }

    fn parse_expr(&mut self, c: &mut Cur, no_struct: bool) -> Expr {
        self.parse_bin(c, 0, no_struct)
    }

    fn parse_bin(&mut self, c: &mut Cur, min_bp: u8, no_struct: bool) -> Expr {
        // Prefix ranges: `..n`, `..=n`, bare `..`.
        let mut lhs = if c.at_punct("..") || c.at_punct("..=") {
            let line = c.line();
            // `at_punct` above guarantees the leaf; the fallback is dead
            // but keeps the parser panic-free.
            let op = c.leaf().and_then(Token::punct).unwrap_or("..").to_string();
            c.bump();
            let rhs = if self.can_start_expr(c, no_struct) {
                Some(Box::new(self.parse_bin(c, 6, no_struct)))
            } else {
                None
            };
            Expr::Binary {
                op,
                lhs: None,
                rhs,
                line,
            }
        } else {
            self.parse_unary(c, no_struct)
        };
        while let Some(t) = c.leaf() {
            let Some(op) = t.punct() else { break };
            let Some((lbp, rbp)) = Self::infix_bp(op) else {
                break;
            };
            if lbp < min_bp {
                break;
            }
            let line = t.line;
            let op = op.to_string();
            c.bump();
            let rhs = if op == ".." || op == "..=" {
                if self.can_start_expr(c, no_struct) {
                    Some(Box::new(self.parse_bin(c, rbp, no_struct)))
                } else {
                    None
                }
            } else {
                Some(Box::new(self.parse_bin(c, rbp, no_struct)))
            };
            lhs = Expr::Binary {
                op,
                lhs: Some(Box::new(lhs)),
                rhs,
                line,
            };
        }
        lhs
    }

    fn parse_unary(&mut self, c: &mut Cur, no_struct: bool) -> Expr {
        if let Some(t) = c.leaf() {
            let line = t.line;
            match t.punct() {
                Some(op @ ("-" | "!" | "*")) => {
                    let op = op.to_string();
                    c.bump();
                    return Expr::Unary {
                        op,
                        expr: Box::new(self.parse_unary(c, no_struct)),
                        line,
                    };
                }
                Some("&") => {
                    c.bump();
                    let op = if c.at_ident("mut") {
                        c.bump();
                        "&mut".to_string()
                    } else {
                        "&".to_string()
                    };
                    return Expr::Unary {
                        op,
                        expr: Box::new(self.parse_unary(c, no_struct)),
                        line,
                    };
                }
                Some("&&") => {
                    c.bump();
                    let inner = if c.eat_ident("mut") {
                        Expr::Unary {
                            op: "&mut".into(),
                            expr: Box::new(self.parse_unary(c, no_struct)),
                            line,
                        }
                    } else {
                        Expr::Unary {
                            op: "&".into(),
                            expr: Box::new(self.parse_unary(c, no_struct)),
                            line,
                        }
                    };
                    return Expr::Unary {
                        op: "&".into(),
                        expr: Box::new(inner),
                        line,
                    };
                }
                _ => {}
            }
        }
        let primary = self.parse_primary(c, no_struct);
        self.parse_postfix(c, primary, no_struct)
    }

    fn parse_postfix(&mut self, c: &mut Cur, mut expr: Expr, _no_struct: bool) -> Expr {
        loop {
            if c.at_punct(".") {
                let line = c.leaf().map(|t| t.line).unwrap_or(0);
                c.bump();
                match c.leaf().map(|t| (t.tok.clone(), t.line)) {
                    Some((Tok::Ident(name), nline)) => {
                        c.bump();
                        let mut turbofish = TokenRun::default();
                        if c.at_punct("::") {
                            c.bump();
                            self.capture_angles(c, &mut turbofish);
                        }
                        if let Some(g) = c.eat_group('(') {
                            expr = Expr::MethodCall {
                                recv: Box::new(expr),
                                name,
                                turbofish,
                                args: self.parse_comma_exprs(g),
                                line: nline,
                            };
                        } else {
                            expr = Expr::Field {
                                base: Box::new(expr),
                                name,
                                line: nline,
                            };
                        }
                    }
                    Some((Tok::Num(text), nline)) => {
                        c.bump();
                        expr = Expr::Field {
                            base: Box::new(expr),
                            name: text,
                            line: nline,
                        };
                    }
                    _ => {
                        self.issue(line, "dangling `.`");
                        return expr;
                    }
                }
                continue;
            }
            if let Some(g) = c.eat_group('(') {
                expr = Expr::Call {
                    callee: Box::new(expr),
                    args: self.parse_comma_exprs(g),
                    line: g.open_line,
                };
                continue;
            }
            if let Some(g) = c.eat_group('[') {
                let mut inner = Cur {
                    trees: &g.trees,
                    pos: 0,
                };
                let idx = self.parse_expr(&mut inner, false);
                expr = Expr::Index {
                    base: Box::new(expr),
                    idx: Box::new(idx),
                    line: g.open_line,
                };
                continue;
            }
            if c.at_punct("?") {
                c.bump();
                expr = Expr::Try(Box::new(expr));
                continue;
            }
            if c.at_ident("as") {
                let line = c.line();
                c.bump();
                let mut ty = TokenRun::default();
                self.capture_cast_type(c, &mut ty);
                if ty.is_empty() {
                    self.issue(line, "cast without a type");
                }
                expr = Expr::Cast {
                    expr: Box::new(expr),
                    ty,
                    line,
                };
                continue;
            }
            break;
        }
        expr
    }

    /// Captures the type after `as`: pointers/references, then a path
    /// with generic arguments.
    fn capture_cast_type(&mut self, c: &mut Cur, ty: &mut TokenRun) {
        loop {
            if c.at_punct("*")
                || c.at_punct("&")
                || c.at_ident("const")
                || c.at_ident("mut")
                || c.at_ident("dyn")
            {
                c.bump_into(ty);
                continue;
            }
            break;
        }
        // Path: ident (:: ident | <...>)*.
        if c.leaf().is_some_and(|t| t.ident().is_some()) {
            c.bump_into(ty);
            loop {
                if c.at_punct("::") && c.leaf_at(1).is_some_and(|t| t.ident().is_some()) {
                    c.bump_into(ty);
                    c.bump_into(ty);
                    continue;
                }
                if c.leaf()
                    .is_some_and(|t| t.punct().is_some_and(|p| p.starts_with('<')))
                {
                    self.capture_angles(c, ty);
                    continue;
                }
                break;
            }
        }
    }

    fn parse_comma_exprs(&mut self, g: &Group) -> Vec<Expr> {
        let mut c = Cur {
            trees: &g.trees,
            pos: 0,
        };
        let mut out = Vec::new();
        while !c.done() {
            out.push(self.parse_expr(&mut c, false));
            if !c.eat_punct(",") && !c.done() {
                self.issue(c.line(), "expected `,` between expressions");
                // Make progress.
                c.bump();
            }
        }
        out
    }

    fn parse_primary(&mut self, c: &mut Cur, no_struct: bool) -> Expr {
        let line = c.line();
        // Literals.
        if let Some(t) = c.leaf() {
            match &t.tok {
                Tok::Num(text) => {
                    let lit = Lit {
                        kind: LitKind::Num,
                        text: text.clone(),
                        line: t.line,
                    };
                    c.bump();
                    return Expr::Lit(lit);
                }
                Tok::Str(text) => {
                    let lit = Lit {
                        kind: LitKind::Str,
                        text: text.clone(),
                        line: t.line,
                    };
                    c.bump();
                    return Expr::Lit(lit);
                }
                Tok::Char => {
                    let lit = Lit {
                        kind: LitKind::Char,
                        text: String::new(),
                        line: t.line,
                    };
                    c.bump();
                    return Expr::Lit(lit);
                }
                Tok::Lifetime(_) => {
                    // Loop label: `'outer: while ...`.
                    if c.leaf_at(1).is_some_and(|t| t.is_punct(":"))
                        && c.leaf_at(2).is_some_and(|t| {
                            t.ident()
                                .is_some_and(|w| matches!(w, "loop" | "while" | "for"))
                        })
                    {
                        let mut label = TokenRun::default();
                        c.bump_into(&mut label);
                        c.bump_into(&mut label);
                        return self.parse_loop(c, label, no_struct);
                    }
                    let mut run = TokenRun::default();
                    c.bump_into(&mut run);
                    self.issue(line, "lifetime in expression position");
                    return Expr::Opaque(run);
                }
                _ => {}
            }
        }
        // Groups.
        if let Some(g) = c.eat_group('(') {
            let mut inner = Cur {
                trees: &g.trees,
                pos: 0,
            };
            let mut elems = Vec::new();
            let mut trailing_comma = false;
            while !inner.done() {
                elems.push(self.parse_expr(&mut inner, false));
                trailing_comma = inner.eat_punct(",");
                if !trailing_comma && !inner.done() {
                    self.issue(inner.line(), "expected `,` in parenthesised list");
                    inner.bump();
                }
            }
            let is_tuple = elems.len() != 1 || trailing_comma;
            return Expr::Tuple {
                elems,
                is_tuple,
                line: g.open_line,
            };
        }
        if let Some(g) = c.eat_group('[') {
            let mut inner = Cur {
                trees: &g.trees,
                pos: 0,
            };
            let mut elems = Vec::new();
            let mut repeat = false;
            while !inner.done() {
                elems.push(self.parse_expr(&mut inner, false));
                if inner.eat_punct(";") {
                    repeat = true;
                    continue;
                }
                if !inner.eat_punct(",") && !inner.done() {
                    self.issue(inner.line(), "expected `,` in array literal");
                    inner.bump();
                }
            }
            return Expr::Array {
                elems,
                repeat,
                line: g.open_line,
            };
        }
        if let Some(g) = c.eat_group('{') {
            return Expr::Block {
                quals: TokenRun::default(),
                block: self.parse_block(g),
            };
        }
        // Keyword expressions.
        if let Some(t) = c.leaf() {
            if let Some(w) = t.ident() {
                match w {
                    "true" | "false" => {
                        let lit = Lit {
                            kind: LitKind::Bool,
                            text: w.to_string(),
                            line: t.line,
                        };
                        c.bump();
                        return Expr::Lit(lit);
                    }
                    "if" => return self.parse_if(c),
                    "match" => return self.parse_match(c),
                    "while" | "for" | "loop" => {
                        return self.parse_loop(c, TokenRun::default(), no_struct)
                    }
                    "unsafe" => {
                        let mut quals = TokenRun::default();
                        c.bump_into(&mut quals);
                        if let Some(g) = c.eat_group('{') {
                            return Expr::Block {
                                quals,
                                block: self.parse_block(g),
                            };
                        }
                        self.issue(line, "unsafe without block");
                        return Expr::Opaque(quals);
                    }
                    "return" => {
                        c.bump();
                        let value = if self.can_start_expr(c, no_struct) {
                            Some(Box::new(self.parse_expr(c, no_struct)))
                        } else {
                            None
                        };
                        return Expr::Return(value, line);
                    }
                    "break" => {
                        c.bump();
                        let mut label = TokenRun::default();
                        if matches!(c.leaf().map(|t| &t.tok), Some(Tok::Lifetime(_))) {
                            c.bump_into(&mut label);
                        }
                        let value = if self.can_start_expr(c, true) {
                            Some(Box::new(self.parse_expr(c, no_struct)))
                        } else {
                            None
                        };
                        return Expr::Break(label, value, line);
                    }
                    "continue" => {
                        c.bump();
                        let mut label = TokenRun::default();
                        if matches!(c.leaf().map(|t| &t.tok), Some(Tok::Lifetime(_))) {
                            c.bump_into(&mut label);
                        }
                        return Expr::Continue(label, line);
                    }
                    "move" => {
                        let mut quals = TokenRun::default();
                        c.bump_into(&mut quals);
                        return self.parse_closure(c, quals, no_struct);
                    }
                    _ => return self.parse_path_expr(c, no_struct),
                }
            }
        }
        // Closures without `move`.
        if c.at_punct("|") || c.at_punct("||") {
            return self.parse_closure(c, TokenRun::default(), no_struct);
        }
        // Qualified path: `<T as Trait>::f`.
        if c.leaf()
            .is_some_and(|t| t.punct().is_some_and(|p| p.starts_with('<')))
        {
            let mut turbofish = TokenRun::default();
            self.capture_angles(c, &mut turbofish);
            let mut segments = Vec::new();
            while c.at_punct("::") {
                c.bump();
                if let Some(t) = c.leaf() {
                    if let Some(w) = t.ident() {
                        segments.push(PathSeg {
                            name: w.to_string(),
                            line: t.line,
                        });
                        c.bump();
                        continue;
                    }
                    if t.punct().is_some_and(|p| p.starts_with('<')) {
                        self.capture_angles(c, &mut turbofish);
                        continue;
                    }
                }
                break;
            }
            return Expr::Path(ExprPath {
                segments,
                turbofish,
                line,
            });
        }
        // Stray attribute in expression position — keep its tokens.
        if c.at_punct("#") {
            let mut run = TokenRun::default();
            c.bump_into(&mut run);
            if c.at_group('[') {
                c.bump_into(&mut run);
            }
            self.issue(line, "attribute in expression position");
            return Expr::Opaque(run);
        }
        // Anything else: consume one tree opaquely so we make progress.
        let mut run = TokenRun::default();
        c.bump_into(&mut run);
        self.issue(line, "unexpected token in expression");
        Expr::Opaque(run)
    }

    fn parse_closure(&mut self, c: &mut Cur, quals: TokenRun, no_struct: bool) -> Expr {
        let line = c.line();
        let mut params = TokenRun::default();
        if c.eat_punct("||") {
            // Empty parameter list.
        } else if c.eat_punct("|") {
            while !c.done() && !c.at_punct("|") {
                c.bump_into(&mut params);
            }
            if !c.eat_punct("|") {
                self.issue(line, "unterminated closure parameter list");
            }
        }
        let mut ret = TokenRun::default();
        if c.at_punct("->") {
            c.bump_into(&mut ret);
            while !c.done() && !c.at_group('{') {
                c.bump_into(&mut ret);
            }
        }
        let body = self.parse_expr(c, no_struct);
        Expr::Closure(ExprClosure {
            quals,
            params,
            ret,
            body: Box::new(body),
            line,
        })
    }

    fn parse_if(&mut self, c: &mut Cur) -> Expr {
        let line = c.line();
        c.bump(); // `if`
        let mut let_pat = TokenRun::default();
        if c.eat_ident("let") {
            while !c.done() && !c.at_punct("=") {
                c.bump_into(&mut let_pat);
            }
            c.eat_punct("=");
        }
        let cond = self.parse_expr(c, true);
        let then_block = match c.eat_group('{') {
            Some(g) => self.parse_block(g),
            None => {
                self.issue(line, "if without then-block");
                Block {
                    stmts: Vec::new(),
                    line,
                }
            }
        };
        let else_branch = if c.eat_ident("else") {
            if c.at_ident("if") {
                Some(Box::new(self.parse_if(c)))
            } else {
                match c.eat_group('{') {
                    Some(g) => Some(Box::new(Expr::Block {
                        quals: TokenRun::default(),
                        block: self.parse_block(g),
                    })),
                    None => {
                        self.issue(line, "else without block");
                        None
                    }
                }
            }
        } else {
            None
        };
        Expr::If(ExprIf {
            let_pat,
            cond: Box::new(cond),
            then_block,
            else_branch,
            line,
        })
    }

    fn parse_match(&mut self, c: &mut Cur) -> Expr {
        let line = c.line();
        c.bump(); // `match`
        let scrutinee = self.parse_expr(c, true);
        let mut arms = Vec::new();
        match c.eat_group('{') {
            Some(g) => {
                let mut inner = Cur {
                    trees: &g.trees,
                    pos: 0,
                };
                while !inner.done() {
                    let attrs = self.parse_attrs(&mut inner);
                    let arm_line = inner.line();
                    let mut pat = TokenRun::default();
                    while !inner.done() && !inner.at_punct("=>") && !inner.at_ident("if") {
                        inner.bump_into(&mut pat);
                    }
                    let guard = if inner.eat_ident("if") {
                        Some(self.parse_expr(&mut inner, false))
                    } else {
                        None
                    };
                    if !inner.eat_punct("=>") {
                        self.issue(arm_line, "match arm without `=>`");
                        break;
                    }
                    let body = self.parse_expr(&mut inner, false);
                    inner.eat_punct(",");
                    arms.push(Arm {
                        attrs,
                        pat,
                        guard,
                        body,
                        line: arm_line,
                    });
                }
            }
            None => self.issue(line, "match without arm block"),
        }
        Expr::Match(ExprMatch {
            scrutinee: Box::new(scrutinee),
            arms,
            line,
        })
    }

    fn parse_loop(&mut self, c: &mut Cur, label: TokenRun, _no_struct: bool) -> Expr {
        let line = c.line();
        let keyword = c
            .leaf()
            .and_then(|t| t.ident())
            .unwrap_or("loop")
            .to_string();
        c.bump();
        let mut pat = TokenRun::default();
        let mut head = None;
        match keyword.as_str() {
            "for" => {
                while !c.done() && !c.at_ident("in") {
                    c.bump_into(&mut pat);
                }
                c.eat_ident("in");
                head = Some(Box::new(self.parse_expr(c, true)));
            }
            "while" => {
                if c.eat_ident("let") {
                    while !c.done() && !c.at_punct("=") {
                        c.bump_into(&mut pat);
                    }
                    c.eat_punct("=");
                }
                head = Some(Box::new(self.parse_expr(c, true)));
            }
            _ => {}
        }
        let body = match c.eat_group('{') {
            Some(g) => self.parse_block(g),
            None => {
                self.issue(line, "loop without body");
                Block {
                    stmts: Vec::new(),
                    line,
                }
            }
        };
        Expr::Loop(ExprLoop {
            keyword,
            label,
            pat,
            head,
            body,
            line,
        })
    }

    fn parse_path_expr(&mut self, c: &mut Cur, no_struct: bool) -> Expr {
        let line = c.line();
        let mut segments = Vec::new();
        let mut turbofish = TokenRun::default();
        if let Some(t) = c.leaf() {
            if let Some(w) = t.ident() {
                segments.push(PathSeg {
                    name: w.to_string(),
                    line: t.line,
                });
                c.bump();
            }
        }
        loop {
            if c.at_punct("::") {
                if let Some(next) = c.leaf_at(1) {
                    if let Some(w) = next.ident() {
                        let nline = next.line;
                        c.bump();
                        segments.push(PathSeg {
                            name: w.to_string(),
                            line: nline,
                        });
                        c.bump();
                        continue;
                    }
                    if next.punct().is_some_and(|p| p.starts_with('<')) {
                        c.bump();
                        self.capture_angles(c, &mut turbofish);
                        continue;
                    }
                }
            }
            break;
        }
        // Macro invocation.
        if c.at_punct("!") && matches!(c.peek_at(1), Some(Tree::Group(_))) {
            c.bump(); // `!`
            let mut body = TokenRun::default();
            c.bump_into(&mut body);
            return Expr::Macro(MacroCall {
                path: segments.into_iter().map(|s| s.name).collect(),
                body,
                line,
            });
        }
        // Struct literal. `eat_group` only consumes a matching `{` group,
        // so the `if let` doubles as the peek.
        let struct_body = if no_struct { None } else { c.eat_group('{') };
        if let Some(g) = struct_body {
            let mut inner = Cur {
                trees: &g.trees,
                pos: 0,
            };
            let mut fields = Vec::new();
            let mut rest = None;
            while !inner.done() {
                if inner.at_punct("..") {
                    // `..base` is functional update; a bare `..` (a rest
                    // pattern, when this position is a match pattern)
                    // carries no expression.
                    inner.bump();
                    if !inner.done() {
                        rest = Some(Box::new(self.parse_expr(&mut inner, false)));
                    }
                    break;
                }
                let fline = inner.line();
                let name = match inner.leaf().map(|t| t.tok.clone()) {
                    Some(Tok::Ident(w)) => {
                        inner.bump();
                        w
                    }
                    Some(Tok::Num(t)) => {
                        inner.bump();
                        t
                    }
                    _ => {
                        self.issue(fline, "expected field name in struct literal");
                        inner.bump();
                        continue;
                    }
                };
                let value = if inner.eat_punct(":") {
                    Some(self.parse_expr(&mut inner, false))
                } else {
                    None
                };
                inner.eat_punct(",");
                fields.push(FieldInit {
                    name,
                    value,
                    line: fline,
                });
            }
            return Expr::Struct {
                path: ExprPath {
                    segments,
                    turbofish,
                    line,
                },
                fields,
                rest,
                line: g.open_line,
            };
        }
        Expr::Path(ExprPath {
            segments,
            turbofish,
            line,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, ItemKind, Stmt};

    fn parsed(src: &str) -> ParsedFile {
        parse_file(src)
    }

    fn clean(src: &str) -> ParsedFile {
        let p = parse_file(src);
        assert!(p.issues.is_empty(), "parse issues: {:?}", p.issues);
        p
    }

    #[test]
    fn lexer_combines_multichar_puncts() {
        let l = lex("a::b -> c >>= d ..= e != f");
        let puncts: Vec<&str> = l.tokens.iter().filter_map(|t| t.punct()).collect();
        assert_eq!(puncts, ["::", "->", ">>=", "..=", "!="]);
    }

    #[test]
    fn lexer_keeps_number_spellings_and_lines() {
        let l = lex("1_200.0\n0xff 1e-9 2usize");
        let nums: Vec<(&str, usize)> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Num(s) => Some((s.as_str(), t.line)),
                _ => None,
            })
            .collect();
        assert_eq!(
            nums,
            [("1_200.0", 1), ("0xff", 2), ("1e-9", 2), ("2usize", 2)]
        );
    }

    #[test]
    fn lexer_strings_and_chars_do_not_leak_tokens() {
        let l = lex(
            r##"let s = "thread_rng()"; let r = r#"HashMap "x""#; let c = 'a'; let b = b'"';"##,
        );
        assert!(!l.tokens.iter().any(|t| t.is_ident("thread_rng")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("HashMap")));
        let strs = l.tokens.iter().filter(|t| t.str_text().is_some()).count();
        let chars = l.tokens.iter().filter(|t| t.tok == Tok::Char).count();
        assert_eq!((strs, chars), (2, 2));
    }

    #[test]
    fn lexer_lifetimes_are_not_chars() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; 'outer: loop { break 'outer; } }");
        let lifetimes: Vec<&str> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Lifetime(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(lifetimes, ["a", "a", "outer", "outer"]);
    }

    #[test]
    fn doc_comments_do_not_carry_allow_directives() {
        let src = "\
/// lint: allow(no-panic)
//! lint: allow(no-panic)
// lint: allow(no-wall-clock)
//// lint: allow(no-thread-rng)
fn f() {}
";
        let l = lex(src);
        let rules: Vec<(&str, usize)> =
            l.allows.iter().map(|a| (a.rule.as_str(), a.line)).collect();
        assert_eq!(rules, [("no-wall-clock", 3), ("no-thread-rng", 4)]);
    }

    #[test]
    fn trees_balance_and_flatten_back() {
        let l = lex("f(a, [b; 2], {c})");
        let (trees, issues) = build_trees(&l.tokens);
        assert!(issues.is_empty());
        let run = flatten_run(&trees);
        assert_eq!(run.tokens.len(), l.tokens.len());
        let texts: Vec<String> = run
            .tokens
            .iter()
            .map(|t| match &t.tok {
                Tok::Ident(s) => s.clone(),
                Tok::Punct(p) => p.clone(),
                Tok::Num(s) => s.clone(),
                _ => String::new(),
            })
            .collect();
        assert_eq!(
            texts,
            ["f", "(", "a", ",", "[", "b", ";", "2", "]", ",", "{", "c", "}", ")"]
        );
    }

    #[test]
    fn items_parse_structurally() {
        let p = clean(
            "
            use std::fmt;
            pub struct Point { x: f64, y: f64 }
            struct Wrapper(u64);
            pub enum E { A, B(u8) }
            const LIMIT: usize = 16;
            static NAME: &str = \"x\";
            type Alias = Vec<u8>;
            mod inner { pub fn g() {} }
            impl Point { fn len(&self) -> f64 { self.x } }
            trait T { fn req(&self) -> u8; fn def(&self) -> u8 { 1 } }
            macro_rules! m { () => {} }
            pub fn main2() {}
            ",
        );
        let kinds: Vec<&str> = p
            .ast
            .items
            .iter()
            .map(|i| match &i.kind {
                ItemKind::Use(_) => "use",
                ItemKind::Adt(a) => {
                    if a.braced {
                        "adt-braced"
                    } else {
                        "adt-tuple"
                    }
                }
                ItemKind::Const(_) => "const",
                ItemKind::TypeAlias(_) => "type",
                ItemKind::Mod(_) => "mod",
                ItemKind::Impl(_) => "impl",
                ItemKind::Trait(_) => "trait",
                ItemKind::Macro(_) => "macro",
                ItemKind::Fn(_) => "fn",
                ItemKind::Verbatim(_) => "verbatim",
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "use",
                "adt-braced",
                "adt-tuple",
                "adt-braced",
                "const",
                "const",
                "type",
                "mod",
                "impl",
                "trait",
                "macro",
                "fn"
            ]
        );
    }

    #[test]
    fn unsafe_impls_and_traits_keep_their_bodies() {
        let p = clean(
            "
            unsafe impl GlobalAlloc for Counting { unsafe fn alloc(&self) {} }
            unsafe trait Marker { fn f(&self); }
            ",
        );
        let ItemKind::Impl(imp) = &p.ast.items[0].kind else {
            panic!("not an impl: {:?}", p.ast.items[0].kind);
        };
        assert!(imp
            .header
            .tokens
            .first()
            .is_some_and(|t| t.is_ident("unsafe")));
        assert!(matches!(imp.items[0].kind, ItemKind::Fn(_)));
        assert!(matches!(p.ast.items[1].kind, ItemKind::Trait(_)));
    }

    #[test]
    fn expressions_parse_structurally() {
        let p = clean(
            "
            fn f(x: Option<u8>) -> u64 {
                let mut ctx = SimContext::new(7);
                let rng = ctx.stream(\"motion\");
                let v: Vec<u64> = (0..4).map(|i| i * 2).collect::<Vec<_>>();
                if let Some(y) = x {
                    return y as u64;
                }
                match v.len() {
                    0 => 0,
                    n if n > 2 => n as u64,
                    _ => 1,
                }
            }
            ",
        );
        let ItemKind::Fn(f) = &p.ast.items[0].kind else {
            panic!("expected fn");
        };
        let body = f.body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 5);
        // `ctx.stream("motion")` is a method call with a string literal.
        let Stmt::Let(l) = &body.stmts[1] else {
            panic!("expected let");
        };
        let Some(Expr::MethodCall { name, args, .. }) = l.init.as_ref() else {
            panic!("expected method call, got {:?}", l.init);
        };
        assert_eq!(name, "stream");
        assert!(matches!(&args[0], Expr::Lit(lit) if lit.text == "motion"));
        // The match has three arms, one guarded.
        let Stmt::Expr(se) = body.stmts.last().unwrap() else {
            panic!("expected expr stmt");
        };
        let Expr::Match(m) = &se.expr else {
            panic!("expected match");
        };
        assert_eq!(m.arms.len(), 3);
        assert!(m.arms[1].guard.is_some());
    }

    #[test]
    fn loops_labels_and_struct_literals_parse() {
        let p = clean(
            "
            fn f(n: usize) -> P {
                'outer: while n > 0 {
                    for (i, w) in [1, 2].iter().enumerate() {
                        if *w == i {
                            break 'outer;
                        }
                    }
                    loop {
                        break;
                    }
                }
                while let Some(q) = next() {
                    drop(q);
                }
                P { x: 1.0, y: 2.0, ..P::default() }
            }
            ",
        );
        let ItemKind::Fn(f) = &p.ast.items[0].kind else {
            panic!("expected fn");
        };
        let body = f.body.as_ref().unwrap();
        let Stmt::Expr(first) = &body.stmts[0] else {
            panic!("expected labeled loop stmt");
        };
        let Expr::Loop(l) = &first.expr else {
            panic!("expected loop, got {:?}", first.expr);
        };
        assert_eq!(l.keyword, "while");
        assert!(!l.label.is_empty());
        let Stmt::Expr(last) = body.stmts.last().unwrap() else {
            panic!("expected struct literal");
        };
        let Expr::Struct { fields, rest, .. } = &last.expr else {
            panic!("expected struct literal, got {:?}", last.expr);
        };
        assert_eq!(fields.len(), 2);
        assert!(rest.is_some());
    }

    #[test]
    fn test_gate_attrs_are_recognised() {
        let p = clean(
            "
            #[test]
            fn t() {}
            #[cfg(test)]
            mod tests {}
            #[cfg(not(test))]
            fn prod() {}
            #[derive(Debug)]
            struct S {}
            ",
        );
        let gates: Vec<bool> = p
            .ast
            .items
            .iter()
            .map(|i| i.attrs.iter().any(|a| a.is_test_gate()))
            .collect();
        assert_eq!(gates, [true, true, false, false]);
    }

    #[test]
    fn the_parser_survives_garbage_with_issues_not_panics() {
        let p = parsed("fn f( {] } ; @@ let = ..");
        assert!(!p.issues.is_empty());
    }

    #[test]
    fn this_source_file_parses_with_zero_issues() {
        let src = include_str!("parse.rs");
        let p = parse_file(src);
        assert!(
            p.issues.is_empty(),
            "issues: {:?}",
            &p.issues[..p.issues.len().min(5)]
        );
    }
}
