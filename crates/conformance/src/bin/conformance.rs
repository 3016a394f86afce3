//! The conformance driver.
//!
//! ```text
//! conformance [--spec-dir DIR] [--doc FILE]... [--list] [--update]
//!             [--disasm NAME] [--report PATH]
//! ```
//!
//! With no mode flag, checks every page (default corpus `docs/spec/`)
//! on all three engines and the out-of-order model, and exits non-zero
//! on any failure. `--update` regenerates the expect values in place
//! from the Reference engine, and refuses a case whose runs disagree.
//! `--list` prints pages and case names. `--disasm NAME` dumps a suite
//! kernel as assembly. `--report PATH` additionally writes the failure
//! messages to a file (the CI artifact).

use std::path::PathBuf;
use std::process::ExitCode;

use subword_conformance::{check_doc_text, harvest, spec_docs, update_doc_text};

const USAGE: &str = "usage: conformance [--spec-dir DIR] [--doc FILE]... [--list] [--update] [--disasm NAME] [--report PATH]";

fn main() -> ExitCode {
    let mut spec_dir = PathBuf::from("docs/spec");
    let mut docs: Vec<PathBuf> = Vec::new();
    let mut list = false;
    let mut update = false;
    let mut disasm: Option<String> = None;
    let mut report: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        let r = match arg.as_str() {
            "--spec-dir" => value("--spec-dir").map(|v| spec_dir = PathBuf::from(v)),
            "--doc" => value("--doc").map(|v| docs.push(PathBuf::from(v))),
            "--list" => {
                list = true;
                Ok(())
            }
            "--update" => {
                update = true;
                Ok(())
            }
            "--disasm" => value("--disasm").map(|v| disasm = Some(v)),
            "--report" => value("--report").map(|v| report = Some(PathBuf::from(v))),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument `{other}`\n{USAGE}")),
        };
        if let Err(msg) = r {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    }

    if let Some(name) = disasm {
        return match subword_conformance::disasm::disasm_kernel(&name) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::from(2)
            }
        };
    }

    if docs.is_empty() {
        docs = match spec_docs(&spec_dir) {
            Ok(d) if !d.is_empty() => d,
            Ok(_) => {
                eprintln!("no .md pages in {}", spec_dir.display());
                return ExitCode::from(2);
            }
            Err(e) => {
                eprintln!("cannot read {}: {e}", spec_dir.display());
                return ExitCode::from(2);
            }
        };
    }

    let read = |path: &PathBuf| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };

    if list {
        for path in &docs {
            let text = match read(path) {
                Ok(t) => t,
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::from(2);
                }
            };
            match harvest(&text) {
                Ok(cases) => {
                    println!("{} ({} cases)", path.display(), cases.len());
                    for c in &cases {
                        let variants: Vec<&str> = c.variants.iter().map(|v| v.name()).collect();
                        let extra = if variants.is_empty() {
                            String::new()
                        } else {
                            format!(" +{}", variants.join("+"))
                        };
                        println!("    {}  shape {}{extra}  line {}", c.name, c.shape, c.asm_line);
                    }
                }
                Err(errs) => {
                    for e in errs {
                        eprintln!("{}:{e}", path.display());
                    }
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    if update {
        let mut rewritten = 0usize;
        for path in &docs {
            let text = match read(path) {
                Ok(t) => t,
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::from(2);
                }
            };
            match update_doc_text(&path.display().to_string(), &text) {
                Ok((new_text, changed)) if changed > 0 => {
                    if let Err(e) = std::fs::write(path, new_text) {
                        eprintln!("cannot write {}: {e}", path.display());
                        return ExitCode::from(2);
                    }
                    println!("{}: {changed} value(s) updated", path.display());
                    rewritten += 1;
                }
                Ok(_) => println!("{}: up to date", path.display()),
                Err(errs) => {
                    for e in errs {
                        eprintln!("{e}");
                    }
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("{rewritten} page(s) rewritten");
        return ExitCode::SUCCESS;
    }

    // Check mode.
    let mut failures: Vec<String> = Vec::new();
    let mut total_cases = 0usize;
    for path in &docs {
        let text = match read(path) {
            Ok(t) => t,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::from(2);
            }
        };
        match check_doc_text(&path.display().to_string(), &text) {
            Ok(outcomes) => {
                let failed = outcomes.iter().filter(|o| !o.failures.is_empty()).count();
                total_cases += outcomes.len();
                println!(
                    "{}: {}/{} cases pass",
                    path.display(),
                    outcomes.len() - failed,
                    outcomes.len()
                );
                failures.extend(outcomes.into_iter().flat_map(|o| o.failures));
            }
            Err(errs) => failures.extend(errs),
        }
    }
    println!(
        "{total_cases} cases on {} engines and the out-of-order model: {}",
        subword_compile::verify::ENGINES.len(),
        if failures.is_empty() { "all pass" } else { "FAILURES" }
    );
    for f in &failures {
        eprintln!("{f}");
    }
    if let Some(path) = report {
        let body =
            if failures.is_empty() { "all pass\n".to_string() } else { failures.join("\n") + "\n" };
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("cannot write report {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
