//! Execute one harvested case on all three engines and the out-of-order
//! model, and diff actual against expected state.
//!
//! Every case runs on a machine fitted with the SPU at the case's
//! crossbar shape (idle unless the program arms it), mirroring the fuzz
//! oracle so MMIO staging stores never fault and cycle accounting is
//! comparable across variants. Each variant goes through [`agree`]: the
//! three engines must agree on the whole state over the watched memory
//! ranges, and the out-of-order model on that state and the
//! model-invariant counts. A variant whose runs disagree reports that one
//! disagreement and nothing else. The others are checked against their
//! reference variants ([`check_references`]) and against the expect keys
//! their row of the exemption table on [`Variant`] compares with the
//! baseline.
//!
//! Expect keys are checked on the Reference engine's **in-order** state
//! (the config default): expect blocks assert exact `cycles`/`pairs`
//! values, which are definitional to the Pentium's dual-issue pipe. The
//! out-of-order run is held to the counts only, so its timing never
//! meets an expectation.

use subword_compile::verify::{
    agree, build_variants, check_references, plain_lift, ArchState, Compared, TestSetup, Variant,
};
use subword_compile::LoopStatus;
use subword_isa::asm::assemble;
use subword_isa::reg::{GpReg, MmReg};
use subword_sim::machine::MachineConfig;
use subword_sim::stats::SimStats;
use subword_spu::crossbar::{CrossbarShape, CANONICAL_SHAPES};

use crate::doc::{counter_key, parse_u64, ExpectEntry, Init, Key, SpecCase};

/// Result of checking one case.
pub struct CaseOutcome {
    /// Case name.
    pub name: String,
    /// Failure messages (`doc:line: case: …`); empty means the case
    /// passed.
    pub failures: Vec<String>,
    /// Reference-engine baseline state (what `--update` writes back);
    /// `None` if the program never ran or its runs disagreed.
    pub baseline: Option<ArchState>,
}

/// Look up a canonical crossbar shape by its `"A"`–`"D"` name.
pub fn shape_by_name(name: &str) -> Option<CrossbarShape> {
    CANONICAL_SHAPES.iter().find(|s| s.name == name).copied()
}

/// The case's initial state, with every init range and every `mem[..]`
/// expectation as an output range.
fn setup(case: &SpecCase) -> TestSetup {
    let mut setup = TestSetup::default();
    for init in &case.inits {
        match init {
            Init::Mm(n, v) => setup.mm_init.push((MmReg::ALL[*n], *v)),
            Init::Gp(n, v) => {
                setup.reg_init.push((GpReg::from_index(*n).expect("index checked in parse"), *v))
            }
            Init::Mem(addr, bytes) => {
                setup.mem_init.push((*addr, bytes.clone()));
                setup.outputs.push((*addr, bytes.len()));
            }
        }
    }
    for e in &case.expect {
        if let Key::Mem { addr, format, count } = &e.key {
            setup.outputs.push((*addr, format.width() * count));
        }
    }
    setup
}

/// Run and check one case end to end.
pub fn check_case(doc: &str, case: &SpecCase) -> CaseOutcome {
    let mut failures = Vec::new();
    let at = |line: usize| format!("{doc}:{line}: {}", case.name);

    let program = match assemble(&case.name, &case.source) {
        Ok(p) => p,
        Err(e) => {
            // The assembler's line numbers are relative to the block
            // body, whose first line sits just under the fence.
            failures.push(format!("{}: assembly failed: {}", at(case.asm_line + e.line), e.msg));
            return CaseOutcome { name: case.name.clone(), failures, baseline: None };
        }
    };
    let Some(shape) = shape_by_name(&case.shape) else {
        failures.push(format!("{}: unknown shape `{}`", at(case.asm_line), case.shape));
        return CaseOutcome { name: case.name.clone(), failures, baseline: None };
    };

    // --- Build the variant list. -----------------------------------------
    let wanted: Vec<Variant> =
        [Variant::Baseline].into_iter().chain(case.variants.iter().copied()).collect();
    let variants = match build_variants(program.clone(), &wanted, &shape, &plain_lift) {
        Ok(built) => {
            let transformed = built
                .report
                .is_none_or(|r| r.loops.iter().any(|l| l.status == LoopStatus::Transformed));
            let mut programs = built.programs;
            if !transformed {
                failures.push(format!(
                    "{}: variants=lift but the lift pass transformed no loop",
                    at(case.asm_line)
                ));
                programs.retain(|(v, _)| !v.is_lifted());
            }
            programs
        }
        Err(e) => {
            failures.push(format!("{}: {e}", at(case.asm_line)));
            vec![(Variant::Baseline, program)]
        }
    };

    // --- Run every variant; its engines and models must agree. ---------
    let setup = setup(case);
    let machine = MachineConfig::with_spu(shape);
    let mut states: Vec<(Variant, ArchState)> = Vec::new();
    for (variant, prog) in &variants {
        let state = match agree(*variant, prog, &setup, &machine) {
            Ok(state) => state,
            Err(d) => {
                failures.push(format!("{}: {d}", at(case.asm_line)));
                continue;
            }
        };
        // --- Expectation checks against the Reference state. -------------
        let compared = variant.compared_to_baseline();
        for entry in &case.expect {
            if !entry_applies(&entry.key, compared) {
                continue;
            }
            if entry.is_placeholder() {
                if *variant == Variant::Baseline {
                    failures.push(format!(
                        "{}: `{}` is a placeholder — run `conformance --update`",
                        at(entry.file_line),
                        entry.lhs
                    ));
                }
                continue;
            }
            if let Some(msg) = check_entry(entry, &state) {
                failures.push(format!("{}: [{}] {msg}", at(entry.file_line), variant.name()));
            }
        }
        states.push((*variant, state));
    }
    // --- Against the reference variants. ----------------------------------
    if let Err(d) = check_references(&states) {
        failures.push(format!("{}: {d}", at(case.asm_line)));
    }

    let baseline = states.into_iter().find(|(v, _)| *v == Variant::Baseline).map(|(_, s)| s);
    CaseOutcome { name: case.name.clone(), failures, baseline }
}

/// Whether an expect key is among the fields a variant must share with
/// the baseline.
fn entry_applies(key: &Key, compared: Compared) -> bool {
    match key {
        Key::Stat(_) => compared == Compared::All,
        Key::Mm(_) => compared >= Compared::Arch,
        Key::Gp(_) | Key::Mem { .. } => true,
    }
}

/// The bytes an expect key's memory range watches.
fn range_bytes(state: &ArchState, addr: u32, len: usize) -> &[u8] {
    state.read(addr, len).expect("expect range always registered as an output")
}

/// Render one stats field: counters as decimal, derived rates at three
/// decimal places (the comparison precision of the whole suite).
pub fn stat_text(stats: &SimStats, name: &str) -> String {
    if let Some(v) = stats.counter(name) {
        return v.to_string();
    }
    let v = match name {
        "ipc" => stats.ipc(),
        "mmx_fraction" => stats.mmx_fraction(),
        "mmx_active_fraction" => stats.mmx_active_fraction(),
        "pair_rate" => stats.pair_rate(),
        "miss_per_clock" => stats.miss_per_clock(),
        "realignment_fraction_of_mmx" => stats.realignment_fraction_of_mmx(),
        _ => unreachable!("unknown stat key `{name}` survived parsing"),
    };
    format!("{v:.3}")
}

fn check_entry(entry: &ExpectEntry, state: &ArchState) -> Option<String> {
    match &entry.key {
        Key::Mm(n) => {
            let want = parse_u64(&entry.raw).expect("validated at parse time");
            (state.mm[*n] != want)
                .then(|| format!("mm{n} = {:#018x}, expected {want:#018x}", state.mm[*n]))
        }
        Key::Gp(n) => {
            let want = parse_u64(&entry.raw).expect("validated at parse time") as u32;
            (state.gp[*n] != want).then(|| {
                format!("r{n} = {} ({:#010x}), expected {}", state.gp[*n], state.gp[*n], entry.raw)
            })
        }
        Key::Mem { addr, format, count } => {
            let want: Vec<u8> = entry
                .raw
                .split_once(':')
                .expect("validated at parse time")
                .1
                .split_whitespace()
                .flat_map(|t| format.elem_bytes(t).expect("validated at parse time"))
                .collect();
            let got = range_bytes(state, *addr, format.width() * count);
            let off = (0..want.len().min(got.len())).find(|&i| got[i] != want[i])?;
            Some(format!(
                "mem[{:#x}]+{off} = {:#04x}, expected {:#04x} (as {}: got `{}`)",
                addr,
                got[off],
                want[off],
                format.tag(),
                format.render(got)
            ))
        }
        Key::Stat(name) => {
            let got = stat_text(&state.stats, name);
            let matches = if counter_key(name).is_some() {
                got == entry.raw.trim()
            } else {
                // Rates compare as 3-decimal strings; re-render the
                // expectation so `0.5` and `0.500` both work.
                let want: f64 = entry.raw.trim().parse().expect("validated at parse time");
                got == format!("{want:.3}")
            };
            (!matches).then(|| format!("{name} = {got}, expected {}", entry.raw))
        }
    }
}

/// The actual value of one expect key, rendered in the entry's own
/// format (what `--update` writes back): memory keeps its `fmt:` prefix,
/// GP registers their author's radix.
pub fn update_value(entry: &ExpectEntry, state: &ArchState) -> String {
    match &entry.key {
        Key::Mem { addr, format, count } => {
            let bytes = range_bytes(state, *addr, format.width() * count);
            format!("{}: {}", format.tag(), format.render(bytes))
        }
        Key::Gp(n) => {
            // Preserve the author's radix; placeholders default to
            // decimal. Idempotent: hex stays 8-digit hex.
            if entry.raw.starts_with("0x") {
                format!("{:#010x}", state.gp[*n])
            } else {
                state.gp[*n].to_string()
            }
        }
        Key::Mm(n) => format!("{:#018x}", state.mm[*n]),
        Key::Stat(name) => stat_text(&state.stats, name),
    }
}
