//! Kernel lookup for `conformance --disasm`: dump any suite kernel as
//! assembly text (the source of the `docs/kernels/` worked examples).

use subword_isa::asm::disassemble;
use subword_kernels::suite::{all_suites, dotprod_example, SuiteEntry};

/// Normalize a kernel name for matching: lowercase alphanumerics only,
/// with a leading `k_` (the source-module convention) stripped — so
/// `k_sad`, `SAD` and `sad` all name the same kernel.
fn normalize(name: &str) -> String {
    let lower = name.to_lowercase();
    let stripped = lower.strip_prefix("k_").unwrap_or(&lower);
    stripped.chars().filter(|c| c.is_ascii_alphanumeric()).collect()
}

fn entries() -> Vec<SuiteEntry> {
    let mut all = all_suites();
    all.push(dotprod_example());
    all
}

/// Every kernel name the suite knows, in suite order.
pub fn kernel_names() -> Vec<&'static str> {
    entries().iter().map(|e| e.kernel.name()).collect()
}

/// Disassemble a suite kernel by (fuzzy) name. The listing is the same
/// at every block count: the count arrives in a register at run time.
/// Ambiguous or unknown names list the candidates.
pub fn disasm_kernel(name: &str) -> Result<String, String> {
    let want = normalize(name);
    if want.is_empty() {
        return Err(format!("empty kernel name `{name}`; known: {}", kernel_names().join(", ")));
    }
    let all = entries();
    let matches: Vec<&SuiteEntry> = all
        .iter()
        .filter(|e| {
            let n = normalize(e.kernel.name());
            n == want || n.starts_with(&want)
        })
        .collect();
    match matches.as_slice() {
        [] => Err(format!("no kernel matches `{name}`; known: {}", kernel_names().join(", "))),
        [entry] => {
            let build = entry.kernel.build(entry.blocks_small);
            Ok(format!(
                "; {} — {} instructions\n{}",
                entry.kernel.name(),
                build.program.len(),
                disassemble(&build.program)
            ))
        }
        many => Err(format!(
            "`{name}` is ambiguous: {}",
            many.iter().map(|e| e.kernel.name()).collect::<Vec<_>>().join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subword_isa::asm::assemble;

    #[test]
    fn finds_kernels_by_fuzzy_name() {
        for name in ["k_sad", "SAD", "sad"] {
            let text = disasm_kernel(name).unwrap();
            assert!(text.starts_with("; SAD"), "{name}: {text}");
        }
        assert!(disasm_kernel("nope").unwrap_err().contains("no kernel matches"));
        // "f" prefixes FIR12, FIR22, FFT1024, FFT128 — ambiguous.
        assert!(disasm_kernel("f").unwrap_err().contains("ambiguous"));
    }

    #[test]
    fn every_kernel_disassembly_reassembles() {
        let mut all = all_suites();
        all.push(dotprod_example());
        for entry in all {
            let build = entry.kernel.build(entry.blocks_small);
            let text = disassemble(&build.program);
            let p = assemble(entry.kernel.name(), &text)
                .unwrap_or_else(|e| panic!("{}: {e}\n{text}", entry.kernel.name()));
            assert_eq!(p.instrs, build.program.instrs, "{}", entry.kernel.name());
        }
    }
}
