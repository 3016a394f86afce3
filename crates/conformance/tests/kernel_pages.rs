//! The `docs/kernels/` worked examples quote `conformance --disasm`
//! output verbatim: each page's `asm` block must equal the current
//! listing of the kernel its "Regenerate" line names.

use std::path::PathBuf;

use subword_conformance::disasm::disasm_kernel;

fn pages() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/kernels");
    let mut pages: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("docs/kernels readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    pages.sort();
    pages
}

/// The kernel named by the page's "`conformance --disasm NAME`" line.
fn regenerate_name(text: &str) -> Option<&str> {
    let rest = &text[text.find("conformance --disasm ")? + "conformance --disasm ".len()..];
    rest.split('`').next()
}

/// The body of the page's first `asm` fence.
fn asm_block(text: &str) -> Option<&str> {
    let start = text.find("```asm\n")? + "```asm\n".len();
    let len = text[start..].find("```")?;
    Some(&text[start..start + len])
}

#[test]
fn kernel_pages_match_the_disassembler() {
    let pages = pages();
    assert!(pages.len() >= 3, "want the three worked examples, have {}", pages.len());
    for path in pages {
        let page = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let name = regenerate_name(&text).unwrap_or_else(|| panic!("{page}: no Regenerate line"));
        let quoted = asm_block(&text).unwrap_or_else(|| panic!("{page}: no asm block"));
        let current = disasm_kernel(name).unwrap_or_else(|e| panic!("{page}: {e}"));
        assert_eq!(
            quoted, current,
            "{page}: listing is stale; regenerate with `conformance --disasm {name}`"
        );
    }
}
