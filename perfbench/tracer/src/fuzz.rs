//! In-process replica of one `fuzz --corpus DIR --seed S --count N`
//! process: replay the corpus, then generate N cases and put each
//! through the differential oracle (four compile variants, three
//! engines, the out-of-order model, every comparison the fuzz oracle
//! makes), each layer call inside a span.

use crate::sim;
use crate::span::{count, span};
use crate::sweep::lift_counted;
use std::path::{Path, PathBuf};
use subword_compile::{lift_permutes, schedule_program, LoopStatus};
use subword_fuzz::corpus;
use subword_fuzz::gen::{build_program, generate, FuzzCase, MEM_BASE, MEM_LEN};
use subword_isa::program::Program;
use subword_isa::reg::{GpReg, MmReg};
use subword_sim::{ExecEngine, MachineConfig, PipelineKind, SimStats};

const ENGINES: [ExecEngine; 3] = [ExecEngine::Reference, ExecEngine::Decoded, ExecEngine::Threaded];

/// What the oracle saw on one passing case.
pub struct CaseOutcome {
    pub lifted: bool,
    pub compacted: bool,
    /// Programs diffed (2 without a lift, 4 with one).
    pub variants: usize,
    /// In-order cycles of each variant, in the order baseline,
    /// scheduled, lifted, scheduled-lifted.
    pub cycles: Vec<u64>,
}

/// The corpus entries' and the generated cases' outcomes.
pub struct Campaign {
    pub corpus: Vec<CaseOutcome>,
    pub cases: Vec<CaseOutcome>,
}

pub fn run(dir: &Path, seed: u64, n: u64) -> Result<Campaign, String> {
    let mut paths: Vec<PathBuf> = span("io", || std::fs::read_dir(dir))
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut campaign = Campaign { corpus: Vec::new(), cases: Vec::new() };
    for p in &paths {
        let text = span("io", || std::fs::read_to_string(p))
            .map_err(|e| format!("{}: {e}", p.display()))?;
        let case = span("json.parse", || corpus::parse(&text))
            .map_err(|e| format!("{}: {e}", p.display()))?;
        count("json.parse.bytes", text.len() as u64);
        let outcome =
            span("fuzz.oracle", || oracle(&case)).map_err(|e| format!("{}: {e}", p.display()))?;
        campaign.corpus.push(outcome);
    }
    for k in 0..n {
        let case = span("fuzz.gen", || generate(seed.wrapping_add(k)));
        let outcome = span("fuzz.oracle", || oracle(&case))
            .map_err(|e| format!("seed {:#x}: {e}", case.seed))?;
        campaign.cases.push(outcome);
    }
    Ok(campaign)
}

/// Final architectural state and statistics of one run.
#[derive(PartialEq)]
struct State {
    stats: SimStats,
    mm: [u64; 8],
    gp: [u32; 16],
    mem: Vec<u8>,
}

impl State {
    /// Registers and memory agree (MMX registers only when `mm`).
    fn same_result(&self, other: &State, mm: bool) -> bool {
        self.gp == other.gp && self.mem == other.mem && (!mm || self.mm == other.mm)
    }
}

fn oracle(case: &FuzzCase) -> Result<CaseOutcome, String> {
    let program = build_program(case)?;
    let (scheduled, _) = span("compile.schedule", || schedule_program(&program));
    let lift = |p: &Program, s: &_| lift_permutes(p, s).map_err(|e| e.to_string());
    let lift = lift_counted(&lift, &program, &case.crossbar())?;
    let lifted = lift.report.loops.iter().any(|l| l.status == LoopStatus::Transformed);
    let compacted = lift.report.loops.iter().any(|l| l.renamed_ranges > 0);
    let mut variants: Vec<(&str, &Program)> =
        vec![("baseline", &program), ("scheduled", &scheduled)];
    if lifted {
        variants.push(("lifted", &lift.program));
        variants.push(("scheduled-lifted", &lift.scheduled.program));
    }

    let mut reference = Vec::new();
    for (name, prog) in &variants {
        let mut states = ENGINES
            .iter()
            .map(|&e| run_program(prog, case, e, PipelineKind::InOrder))
            .collect::<Result<Vec<_>, _>>()?;
        if states.iter().any(|s| s.stats.cycles > case.static_cycle_bound()) {
            return Err(format!("{name}: cycles exceed the static bound"));
        }
        if let Some(e) = (1..ENGINES.len()).find(|&i| states[i] != states[0]) {
            return Err(format!("{name}: Reference and {:?} differ", ENGINES[e]));
        }
        let ooo = run_program(prog, case, ExecEngine::default(), PipelineKind::OutOfOrder)?;
        if !ooo.same_result(&states[0], true)
            || states[0].stats.count_divergence(&ooo.stats).is_some()
        {
            return Err(format!("{name}: in-order and out-of-order differ"));
        }
        reference.push(states.swap_remove(0));
    }
    if !reference[1].same_result(&reference[0], true) {
        return Err("scheduled and baseline differ".into());
    }
    if lifted
        && (!reference[2].same_result(&reference[0], false)
            || !reference[3].same_result(&reference[2], true))
    {
        return Err("lifted variants differ".into());
    }
    Ok(CaseOutcome {
        lifted,
        compacted,
        variants: variants.len(),
        cycles: reference.iter().map(|s| s.stats.cycles).collect(),
    })
}

fn run_program(
    program: &Program,
    case: &FuzzCase,
    engine: ExecEngine,
    pipeline: PipelineKind,
) -> Result<State, String> {
    let cfg = MachineConfig { engine, pipeline, ..MachineConfig::with_spu(case.crossbar()) };
    let (m, stats) = sim::run(cfg, program, |m| {
        for (i, v) in case.mm_init.iter().enumerate() {
            m.regs.write_mm(MmReg::from_index(i).expect("8 mm registers"), *v);
        }
        m.mem.write_bytes(MEM_BASE, &case.initial_memory()).map_err(|e| format!("{e:?}"))
    })?;
    Ok(State {
        stats,
        mm: std::array::from_fn(|i| m.regs.read_mm(MmReg::from_index(i).expect("8 mm registers"))),
        gp: std::array::from_fn(|i| m.regs.read_gp(GpReg::from_index(i).expect("16 gp registers"))),
        mem: m.mem.read_bytes(MEM_BASE, MEM_LEN).map_err(|e| format!("{e:?}"))?.to_vec(),
    })
}
