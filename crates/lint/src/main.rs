//! The `hlisa-lint` binary: workspace determinism analysis plus the
//! planner detectability gate, wired into `scripts/verify.sh` and CI.
//!
//! Exit codes: 0 = clean, 1 = diagnostics found or gate violated,
//! 2 = usage/IO error.

use hlisa_lint::gate;
use hlisa_lint::{
    analyze_ast, build_ledger, check_ledger, find_workspace_root, lint_workspace, render_ledger,
    Exemptions, Report, LEDGER_FILE,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
hlisa-lint: workspace determinism analyzer + action-chain detectability linter

USAGE:
    hlisa-lint [--json] [--root <dir>] [--ledger-check]
    hlisa-lint [--root <dir>] --ledger-write
    hlisa-lint [--json] --check-file <file.rs>

MODES:
    (default)            lint every crate's sources, then run the planner
                         gate (Selenium/naive chains must trip rules, the
                         HLISA chain must lint clean)
    --ledger-write       rebuild LINT_LEDGER.json from the tree and exit
    --check-file <file>  run only the per-file AST analysis on one file

OPTIONS:
    --json          machine-readable output
    --root <dir>    workspace root (default: discovered from the cwd)
    --ledger-check  also fail if the committed LINT_LEDGER.json is stale
";

struct Args {
    json: bool,
    ledger_check: bool,
    ledger_write: bool,
    root: Option<PathBuf>,
    check_file: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        ledger_check: false,
        ledger_write: false,
        root: None,
        check_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--ledger-check" => args.ledger_check = true,
            "--ledger-write" => args.ledger_write = true,
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?));
            }
            "--check-file" => {
                args.check_file =
                    Some(PathBuf::from(it.next().ok_or("--check-file needs a file")?));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn emit(report: &Report, json: bool) {
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_human());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Single-file mode: the fixture/pre-commit entry point.
    if let Some(file) = &args.check_file {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", file.display());
                return ExitCode::from(2);
            }
        };
        let report = Report::from_diagnostics(analyze_ast(
            &file.to_string_lossy().replace('\\', "/"),
            &text,
            Exemptions::default(),
        ));
        emit(&report, args.json);
        return if report.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    // Workspace mode.
    let root = match args.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("error: no workspace root found (try --root)");
            return ExitCode::from(2);
        }
    };
    if args.ledger_write {
        let ledger = match build_ledger(&root) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: building ledger: {e}");
                return ExitCode::from(2);
            }
        };
        let path = root.join(LEDGER_FILE);
        if let Err(e) = std::fs::write(&path, render_ledger(&ledger)) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "ledger: wrote {} ({} entries, {} files scanned)",
            path.display(),
            ledger.entries.len(),
            ledger.files_scanned
        );
        return ExitCode::SUCCESS;
    }

    let mut report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let mut ledger_ok = true;
    if args.ledger_check {
        match check_ledger(&root) {
            Ok(Ok(())) => {
                if !args.json {
                    eprintln!("ledger: ok ({LEDGER_FILE} matches the tree)");
                }
            }
            Ok(Err(msg)) => {
                ledger_ok = false;
                eprintln!("ledger: {msg}");
            }
            Err(e) => {
                eprintln!("error: checking ledger: {e}");
                return ExitCode::from(2);
            }
        }
    }

    // The planner gate: the linter must keep separating the Fig. 3 rungs.
    let mut gate_ok = true;
    let selenium = gate::selenium_report().rule_ids();
    let naive = gate::naive_report(7).rule_ids();
    let hlisa = gate::hlisa_report(7);
    if selenium.len() < 3 {
        gate_ok = false;
        eprintln!("gate: Selenium chain tripped only {selenium:?} (expected >= 3 rules)");
    }
    if naive.len() < 3 {
        gate_ok = false;
        eprintln!("gate: naive chain tripped only {naive:?} (expected >= 3 rules)");
    }
    if !hlisa.is_clean() {
        gate_ok = false;
        eprintln!(
            "gate: HLISA chain must lint clean but was flagged:\n{}",
            hlisa.render_human()
        );
        report.merge(hlisa);
    }
    if gate_ok && !args.json {
        eprintln!(
            "gate: ok (selenium trips {}, naive trips {}, hlisa clean)",
            selenium.len(),
            naive.len()
        );
    }

    emit(&report, args.json);
    if report.is_clean() && gate_ok && ledger_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
