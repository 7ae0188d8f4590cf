//! Static analysis for the HLISA workspace, on both axes the paper cares
//! about.
//!
//! **Reliability** (the measurement-tool half): `hlisa-sim` centralises
//! randomness, time, and observation; the source analyzer is the fence
//! that keeps them there. [`parse`] lexes and parses every `.rs` file
//! under `crates/*/src`, `crates/*/tests` and `tests/`. [`provenance`]
//! reads each file's lexed tokens once, with one test mask, to deny
//! wall-clock reads, ad-hoc RNG construction, iteration-order-dependent
//! containers and panics outside the sim layer — the exact hazards
//! *Analysing and strengthening OpenWPM's reliability* shows corrupt web
//! measurements — and to check counter names (`metric-name-registry`).
//! It walks the [`ast`] model only for what needs structure, stream
//! provenance (`stream-name-registry`, `conditional-draw`,
//! `loop-variant-fork`), and [`ledger`] derives from the same walk the
//! committed `LINT_LEDGER.json` mapping every draw/fork site to its
//! `(crate, fn, stream)`. A file the parser cannot fully structure is a
//! `parse-failure` finding, and `stale-allow` audits the suppressions.
//!
//! **Detectability** (the interaction half): Table 1's lesson is that an
//! interaction program's tells — straight uniform moves, zero-dwell
//! clicks, 13,333 cpm typing, script scrolls — are *statically knowable*
//! before the program runs. The [`chain`] linter replays an action
//! program symbolically and flags every Table 1 tell, judging against
//! the same [`hlisa_detect::thresholds`] constants the runtime detector
//! uses, so linter and detector cannot drift.
//!
//! **The public surface**: [`surface`] runs `unread-pub-item` once the
//! walk has seen every file. A `pub` item of a library crate needs a
//! non-test reader — library and bin sources of any crate, `examples/`,
//! `bench_e2e/src/`; not tests, `use` lines or comments — or an allow
//! stating one of two reasons: `paper API` (its Table 1 or Table 3 row,
//! or §5 behaviour) or `test reference` (the differential test it
//! anchors).
//!
//! Both analyzers share one diagnostics core ([`diag`]) with stable rule
//! ids ([`rules`]), machine-readable JSON, and `// lint: allow(<rule>)`
//! suppression for auditable exceptions. The `hlisa-lint` binary wires
//! them into `scripts/verify.sh` and CI; [`gate`] proves the planner
//! split (naive chains trip rules, HLISA chains lint clean).

pub mod ast;
pub mod chain;
pub mod diag;
pub mod gate;
pub mod ledger;
pub mod parse;
pub mod provenance;
pub mod rules;
pub mod surface;
pub mod workspace;

pub use chain::ChainLinter;
pub use diag::{Diagnostic, Location, Report, Severity};
pub use ledger::{build_ledger, check_ledger, render_ledger, Ledger, LedgerEntry, LEDGER_FILE};
pub use parse::{lex, parse_file, ParsedFile};
pub use provenance::{
    analyze_ast, analyze_file, collect_stream_sites, AstAnalysis, Exemptions, RulePasses, SiteKind,
    StreamSite,
};
pub use rules::{rule_info, AnalyzerKind, RuleInfo, CATALOG};
pub use workspace::{
    exemptions_for, find_workspace_root, lint_workspace, reader_files, workspace_files,
};

/// Unit cases for the token rules ([`AnalyzerKind::Source`]): the six
/// determinism source rules and `metric-name-registry`, run through
/// [`analyze_ast`].
#[cfg(test)]
mod source {
    mod tests {
        use crate::{analyze_ast, Exemptions};

        fn rules_of(src: &str) -> Vec<&'static str> {
            let mut ids: Vec<&'static str> = analyze_ast("fixture.rs", src, Exemptions::default())
                .iter()
                .map(|d| d.rule)
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        }

        fn rules_under(file: &str, src: &str, exempt: Exemptions) -> Vec<&'static str> {
            analyze_ast(file, src, exempt)
                .iter()
                .map(|d| d.rule)
                .collect()
        }

        #[test]
        fn banned_names_in_strings_and_comments_do_not_fire() {
            let src = r##"
                // thread_rng HashMap Instant::now SystemTime rng_from_seed
                /* SystemTime /* nested HashMap */ thread_rng */
                fn f() -> &'static str { "thread_rng HashMap \" SystemTime" }
                fn g() -> &'static str { r#"Instant::now() "quoted" HashSet"# }
                fn h() -> u8 { b'"' }
            "##;
            assert!(rules_of(src).is_empty(), "{:?}", rules_of(src));
        }

        #[test]
        fn each_source_rule_fires_on_its_fixture() {
            assert_eq!(
                rules_of("fn f() { let t = std::time::Instant::now(); }"),
                ["no-wall-clock"]
            );
            assert_eq!(rules_of("use std::time::SystemTime;"), ["no-wall-clock"]);
            assert_eq!(
                rules_of("fn f() { let mut r = rand::thread_rng(); }"),
                ["no-thread-rng"]
            );
            assert_eq!(
                rules_of("use std::collections::HashMap;\nfn f(s: HashSet<u8>) {}"),
                ["no-unordered-containers"]
            );
            assert_eq!(
                rules_of("fn f() { let r = rng_from_seed(42); }"),
                ["no-rng-from-seed"]
            );
            assert_eq!(
                rules_of("fn f(s: &mut Session) { s.override_pointer_move_min_duration(50.0); }"),
                ["no-hardcoded-min-move"]
            );
            assert_eq!(
                rules_of("fn p() -> PointerMoveProfile { PointerMoveProfile { min_duration_ms: 250.0, sample_interval_ms: 10.0 } }"),
                ["no-hardcoded-min-move"]
            );
        }

        #[test]
        fn no_panic_fires_on_unwrap_calls_and_panic_macros() {
            assert_eq!(
                rules_of("fn f(x: Option<u8>) -> u8 { x.unwrap() }"),
                ["no-panic"]
            );
            assert_eq!(rules_of("fn f() { panic!(\"boom\"); }"), ["no-panic"]);
            // `expect` panics exactly like `unwrap`; the message string does
            // not keep the worker alive.
            assert_eq!(
                rules_of("fn f(x: Option<u8>) -> u8 { x.expect(\"set by new()\") }"),
                ["no-panic"]
            );
            // `unwrap_or` family, `panic::catch_unwind`, and definitions of
            // an `unwrap` method are not panics.
            assert!(rules_of("fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }").is_empty());
            assert!(rules_of("fn f() { let _ = std::panic::catch_unwind(|| 1); }").is_empty());
            assert!(rules_of("impl W { fn unwrap(self) -> u8 { self.0 } }").is_empty());
            // Test code stays exempt, and allow-comments suppress.
            assert!(rules_of("#[test]\nfn t() { Some(1).unwrap(); }").is_empty());
            assert!(
                rules_of("fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint: allow(no-panic)")
                    .is_empty()
            );
        }

        #[test]
        fn panic_exemption_skips_only_the_panic_rule() {
            let src = "fn f(x: Option<u8>) { x.unwrap(); let t = SystemTime::now(); }";
            let exempt = Exemptions {
                panics: true,
                ..Default::default()
            };
            assert_eq!(rules_under("bench.rs", src, exempt), ["no-wall-clock"]);
        }

        #[test]
        fn symbolic_floors_are_fine() {
            // Deriving from the constant or a variable is the sanctioned path.
            assert!(rules_of(
                "fn f(s: &mut Session) { s.override_pointer_move_min_duration(HLISA_MIN_MOVE_MS); }"
            )
            .is_empty());
            assert!(rules_of("struct P { min_duration_ms: f64 }").is_empty());
        }

        #[test]
        fn allow_comments_suppress_same_line_and_next_line() {
            let same = "fn f() { let r = rng_from_seed(1); } // lint: allow(no-rng-from-seed)";
            assert!(rules_of(same).is_empty());
            let above = "
                // kept for the fixed published figures; lint: allow(no-rng-from-seed)
                fn f() { let r = rng_from_seed(1); }
            ";
            assert!(rules_of(above).is_empty());
            // The wrong rule id does not suppress, and the unused allow is
            // itself reported as stale.
            let wrong = "fn f() { let r = rng_from_seed(1); } // lint: allow(no-wall-clock)";
            assert_eq!(rules_of(wrong), ["no-rng-from-seed", "stale-allow"]);
        }

        #[test]
        fn lines_are_reported_accurately() {
            let src = "fn a() {}\nfn b() { let x = rng_from_seed(3); }\n";
            let d = analyze_ast("x.rs", src, Exemptions::default());
            assert_eq!(d.len(), 1);
            assert_eq!(d[0].location.line, Some(2));
            assert_eq!(d[0].location.file.as_deref(), Some("x.rs"));
        }

        #[test]
        fn exempt_file_skips_only_the_min_move_rule() {
            let src = "fn p() { let p = P { min_duration_ms: 250.0 }; let t = SystemTime::now(); }";
            let exempt = Exemptions {
                min_move: true,
                ..Default::default()
            };
            assert_eq!(rules_under("actions.rs", src, exempt), ["no-wall-clock"]);
        }

        #[test]
        fn unordered_exemption_skips_only_the_container_rule() {
            let src = "use std::collections::HashMap;\nfn f() { let t = SystemTime::now(); }";
            let exempt = Exemptions {
                unordered: true,
                ..Default::default()
            };
            assert_eq!(rules_under("atom.rs", src, exempt), ["no-wall-clock"]);
        }

        /// Where a rule's name can sit; `$` takes the name.
        const NAME_POSITIONS: [&str; 12] = [
            "fn $() {}",
            "mod $ {}",
            "const $: u8 = 1;",
            "fn f(x: X) -> u8 { x.$ }",
            "fn f() -> P { P { $: 1 } }",
            "fn f() { let _: $ = d(); }",
            "fn f() -> u8 { 1 as $ }",
            "fn f<T>() where T: $ {}",
            "fn f(x: X) { match x { $ => {} } }",
            "fn f() { let _ = |_: $| 1; }",
            "#[$]\nfn f() {}",
            "m! { $ }",
        ];

        /// Where a call can sit; `$` takes the call.
        const CALL_POSITIONS: [&str; 9] = [
            "fn f() { $; }",
            "fn f() -> P { P { a: $ } }",
            "fn f() { let _: [u8; $] = d(); }",
            "fn f() -> u8 { 1 as X<[u8; $]> }",
            "fn f<T>() where [u8; $]: Sized {}",
            "fn f(x: X) { match x { [0; $] => {} } }",
            "fn f() { let _ = |_: [u8; $]| 1; }",
            "#[m($)]\nfn f() {}",
            "m! { $ }",
        ];

        /// `code` in `position` fires `rule` alone outside tests; inside a
        /// `#[cfg(test)]` module it fires `in_test`.
        fn check(position: &str, code: &str, rule: &str, in_test: &[&str]) {
            let src = position.replace('$', code);
            assert_eq!(rules_of(&src), [rule], "{src}");
            let gated = format!("#[cfg(test)]\nmod t {{\n{src}\n}}");
            assert_eq!(rules_of(&gated), in_test, "{gated}");
        }

        #[test]
        fn each_rule_fires_in_every_position_outside_tests_only() {
            let names = [
                ("thread_rng", "no-thread-rng"),
                ("rng_from_seed", "no-rng-from-seed"),
                ("SystemTime", "no-wall-clock"),
                ("HashMap", "no-unordered-containers"),
            ];
            for position in NAME_POSITIONS {
                for (name, rule) in names {
                    check(position, name, rule, &[]);
                }
            }
            let calls = [
                ("Instant::now()", "no-wall-clock"),
                ("x.unwrap()", "no-panic"),
                ("x.expect(\"e\")", "no-panic"),
                ("panic!(\"p\")", "no-panic"),
                ("P { min_duration_ms: 5.0 }", "no-hardcoded-min-move"),
                (
                    "s.override_pointer_move_min_duration(5.0)",
                    "no-hardcoded-min-move",
                ),
                ("c.add(\"made.up\", 1)", "metric-name-registry"),
            ];
            for position in CALL_POSITIONS {
                for (code, rule) in calls {
                    check(position, code, rule, &[]);
                }
                // A typo'd `get` under a registered family fires in tests too.
                let get = "c.get(\"fault.injectd\")";
                check(
                    position,
                    get,
                    "metric-name-registry",
                    &["metric-name-registry"],
                );
            }
        }

        #[test]
        fn lifetimes_do_not_derail_the_lexer() {
            let src = "fn f<'a>(x: &'a str) -> &'a str { let c = 'x'; let d = '\\n'; x }";
            assert!(rules_of(src).is_empty());
            // And idents straight after a lifetime still lex.
            let src2 = "fn f<'a>(m: &'a HashMap<u8, u8>) {}";
            assert_eq!(rules_of(src2), ["no-unordered-containers"]);
        }
    }
}
