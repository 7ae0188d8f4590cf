//! Robustness: the lexer, the parser and the AST analysis return on any
//! input.
//!
//! The linter runs over every file of the workspace, including files a
//! developer is half-way through editing, so a panic on malformed input
//! would take the whole gate down with it. Three input families:
//!
//! 1. arbitrary strings, over the full `char` range;
//! 2. strings stitched from Rust token fragments (string and raw-string
//!    openers, comment delimiters, lifetimes, brackets, attributes), so
//!    the lexer's unterminated-literal and nesting paths are hit often;
//! 3. real workspace sources cut off at a random char boundary, or with a
//!    random span spliced out, so the parser meets every kind of
//!    truncated item and unbalanced group.
//!
//! [`parse_file`] and [`analyze_ast`] must return (with or without
//! issues) on each.

use hlisa_lint::parse_file;
use hlisa_lint::provenance::analyze_ast;
use hlisa_lint::workspace::{exemptions_for, find_workspace_root, workspace_files};
use proptest::collection::vec;
use proptest::prelude::*;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

/// Token fragments that open, close or escape lexer states.
const FRAGMENTS: &[&str] = &[
    "\"",
    "'",
    "r#\"",
    "r##\"",
    "\"#",
    "b'",
    "b\"",
    "br#\"",
    "\\",
    "\\u{",
    "//",
    "/*",
    "*/",
    "///",
    "//!",
    "\n",
    " ",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "#[",
    "#![",
    "'a",
    "'static",
    "fn",
    "mod",
    "impl",
    "let",
    "match",
    "=>",
    "::",
    "<",
    ">",
    "->",
    ";",
    ",",
    ".",
    "..",
    "0x",
    "1e",
    "1.",
    "_",
    "r#",
    "ident",
    "é",
    "🦀",
    "\u{0}",
    "lint: allow(no-panic)",
    "HashMap",
    "stream(\"site\")",
    "unwrap()",
    "macro_rules!",
    "$",
];

/// Every linted workspace file, as (workspace-relative path, source).
fn sources() -> &'static [(String, String)] {
    static SOURCES: OnceLock<Vec<(String, String)>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let files: Vec<_> = workspace_files(&root)
            .expect("walk")
            .into_iter()
            .map(|(rel, path, _)| {
                let src = fs::read_to_string(&path).expect("read source");
                (rel, src)
            })
            .collect();
        assert!(files.len() > 40, "walk found {} files", files.len());
        files
    })
}

/// The char boundary at `frac` of the way through `src`.
fn boundary(src: &str, frac: f64) -> usize {
    let mut at = ((src.len() as f64) * frac) as usize;
    while !src.is_char_boundary(at) {
        at -= 1;
    }
    at
}

fn must_return(file: &str, src: &str) {
    let _ = parse_file(src);
    let _ = analyze_ast(file, src, exemptions_for(file));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_strings_never_panic(codes in vec(0u32..0x11_0000, 0..256)) {
        let src: String = codes.into_iter().filter_map(char::from_u32).collect();
        must_return("crates/fuzz/src/lib.rs", &src);
    }

    #[test]
    fn token_fragment_soup_never_panics(picks in vec(0usize..1_000, 0..160)) {
        let src: String = picks
            .into_iter()
            .map(|i| FRAGMENTS[i % FRAGMENTS.len()])
            .collect();
        must_return("crates/fuzz/src/lib.rs", &src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn truncated_workspace_sources_never_panic(
        pick in 0usize..100_000,
        cut in 0.0f64..1.0,
    ) {
        let files = sources();
        let (rel, src) = &files[pick % files.len()];
        must_return(rel, &src[..boundary(src, cut)]);
    }

    #[test]
    fn spliced_workspace_sources_never_panic(
        pick in 0usize..100_000,
        from in 0.0f64..1.0,
        len in 0.0f64..0.2,
    ) {
        let files = sources();
        let (rel, src) = &files[pick % files.len()];
        let start = boundary(src, from);
        let end = boundary(src, (from + len).min(1.0));
        let spliced = format!("{}{}", &src[..start], &src[end..]);
        must_return(rel, &spliced);
    }
}
