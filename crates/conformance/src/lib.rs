//! # subword-conformance
//!
//! The literate ISA conformance suite: the `docs/spec/*.md` pages are
//! ordinary markdown *and* executable tests. Each page pairs fenced
//! ```` ```asm ```` program blocks with ```` ```expect ```` blocks
//! giving the final architectural state (registers, memory ranges,
//! cycle/pair-rate statistics); the harvester ([`doc`]) assembles each
//! program via [`subword_isa::asm`], the runner ([`run`]) executes it
//! on all three engines (Reference / Decoded / Threaded) and the
//! out-of-order model — plus, where a block opts in, through the compile
//! pipeline's scheduled and lifted variants — and diffs actual against
//! expected state with per-field messages naming the page and line.
//!
//! The `conformance` bin drives the corpus (`--doc`, `--list`,
//! `--report`), regenerates expected blocks from the Reference engine
//! (`--update`), and dumps suite kernels as assembly text (`--disasm`,
//! the source of the `docs/kernels/` worked examples). `fuzz
//! --emit-md` renders a minimized fuzz failure as a new page in the
//! same format, turning repro seeds into readable regression
//! documents.

pub mod disasm;
pub mod doc;
pub mod run;

use std::path::{Path, PathBuf};

pub use doc::{harvest, SpecCase};
pub use run::{check_case, CaseOutcome};

/// Check every case of one page. Returns one [`CaseOutcome`] per case;
/// harvest errors come back as `Err` (already prefixed with the doc
/// name).
pub fn check_doc_text(doc_name: &str, text: &str) -> Result<Vec<CaseOutcome>, Vec<String>> {
    let cases = harvest(text)
        .map_err(|errs| errs.into_iter().map(|e| format!("{doc_name}:{e}")).collect::<Vec<_>>())?;
    Ok(cases.iter().map(|c| check_case(doc_name, c)).collect())
}

/// Regenerate every expect value of one page from the Reference
/// engine's baseline run. Returns the updated text and the number of
/// lines that changed; the key set, memory addresses, element formats
/// and counts are all preserved — only values are rewritten, so a
/// passing page round-trips unchanged.
pub fn update_doc_text(doc_name: &str, text: &str) -> Result<(String, usize), Vec<String>> {
    let cases = harvest(text)
        .map_err(|errs| errs.into_iter().map(|e| format!("{doc_name}:{e}")).collect::<Vec<_>>())?;
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let mut changed = 0usize;
    let mut errors = Vec::new();
    for case in &cases {
        let outcome = check_case(doc_name, case);
        let Some(state) = outcome.baseline else {
            // The program failed to assemble or run, or its runs
            // disagreed — nothing to regenerate; surface the runner's
            // messages.
            errors.extend(outcome.failures);
            continue;
        };
        for entry in &case.expect {
            let value = run::update_value(entry, &state);
            let new_line = format!("{}{} = {value}", entry.indent, entry.lhs);
            let slot = &mut lines[entry.file_line - 1];
            if *slot != new_line {
                *slot = new_line;
                changed += 1;
            }
        }
    }
    if !errors.is_empty() {
        return Err(errors);
    }
    let mut out = lines.join("\n");
    if text.ends_with('\n') {
        out.push('\n');
    }
    Ok((out, changed))
}

/// All spec pages in a directory, sorted by file name.
pub fn spec_docs(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut docs: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    docs.sort();
    Ok(docs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = "## add\n\n```asm name=add\n;! r1 = 5\n    mov r0, 2\n    add r0, r1\n    halt\n```\n\n```expect\nr0 = 7\ninstructions = 2\n```\n";

    #[test]
    fn check_doc_passes_and_fails_precisely() {
        let outcomes = check_doc_text("page.md", PAGE).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].failures, Vec::<String>::new());

        let bad = PAGE.replace("r0 = 7", "r0 = 8");
        let outcomes = check_doc_text("page.md", &bad).unwrap();
        let msgs = &outcomes[0].failures;
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("page.md:11: add"), "{}", msgs[0]);
        assert!(msgs[0].contains("r0 = 7"), "{}", msgs[0]);
        assert!(msgs[0].contains("expected 8"), "{}", msgs[0]);
    }

    #[test]
    fn update_fills_placeholders_and_is_idempotent() {
        let page = PAGE.replace("r0 = 7", "r0 = ?").replace("instructions = 2", "instructions = ?");
        // Placeholders fail check mode…
        let outcomes = check_doc_text("page.md", &page).unwrap();
        assert_eq!(outcomes[0].failures.len(), 2);
        // …update fills them…
        let (updated, changed) = update_doc_text("page.md", &page).unwrap();
        assert_eq!(changed, 2);
        assert_eq!(updated, PAGE);
        // …and a second update is a no-op.
        let (again, changed) = update_doc_text("page.md", &updated).unwrap();
        assert_eq!(changed, 0);
        assert_eq!(again, updated);
    }

    #[test]
    fn update_surfaces_broken_programs() {
        let page = "```asm name=broken\n    bogus r0, 1\n    halt\n```\n```expect\nr0 = ?\n```\n";
        let errs = update_doc_text("page.md", page).unwrap_err();
        assert!(errs[0].contains("assembly failed"), "{errs:?}");
        assert!(errs[0].contains("page.md:2"), "{errs:?}");
    }
}
