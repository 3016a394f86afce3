//! The execution matrix: a program's compile variants, each run on fresh
//! machines and compared under one exemption table.
//!
//! [`build_variants`] compiles the [`Variant`]s (the lift is a hook, so
//! a compile cache can plug in), [`run`] executes one program on one
//! [`MachineConfig`] and captures its [`ArchState`], [`compare`] diffs
//! two states over a [`Compared`] level, [`contained`] turns a panic into
//! an error, and [`ENGINES`] lists the engines that must agree.
//! [`agree`] is the agreement check every harness applies to one
//! variant — the three engines, then the out-of-order model — and
//! [`check_references`] applies the exemption table across variants.
//! The kernel framework's measurements, the fuzz oracle, the conformance
//! runner and the differential tests are glue over these pieces;
//! [`differential`] is the two-program special case.

use std::panic::{catch_unwind, AssertUnwindSafe};

use subword_isa::program::Program;
use subword_isa::reg::{GpReg, MmReg};
use subword_sim::regfile::Flags;
use subword_sim::{ExecEngine, Machine, MachineConfig, PipelineKind, SimStats};
use subword_spu::crossbar::CrossbarShape;

use crate::pass::{lift_permutes, CompileReport, TransformResult};
use crate::schedule::schedule_program;

/// The three engines every engine-agreement check runs.
pub const ENGINES: [ExecEngine; 3] =
    [ExecEngine::Reference, ExecEngine::Decoded, ExecEngine::Threaded];

/// One compile variant of a program.
///
/// Each variant is checked against a reference variant on part of the
/// state ([`Variant::checked_against`] holds this table in code):
///
/// | variant           | reference  | compared ([`Compared`])                     | exempt |
/// |-------------------|------------|---------------------------------------------|--------|
/// | `Baseline`        | —          | —                                           | —      |
/// | `Scheduled`       | `Baseline` | [`Arch`]: both register files, flags, outputs | stats: reordering changes timing |
/// | `Lifted`          | `Baseline` | [`Scalar`]: GP registers, flags, outputs      | MMX registers: removed permutes leave stale destinations and compaction renames registers; stats |
/// | `ScheduledLifted` | `Lifted`   | [`Arch`]                                      | stats |
///
/// Checked against the baseline, a variant must agree on the rows composed
/// along its reference chain ([`Variant::compared_to_baseline`]): the
/// scheduled-lifted program on [`Scalar`] only. Runs of one variant on
/// the three [`ENGINES`] must agree on [`Compared::All`]; its in-order
/// and out-of-order runs on [`Compared::Counts`], since the timing
/// statistics are the measurement. [`agree`] checks the engine and model
/// rows for one variant, [`check_references`] the table's rows across
/// variants.
///
/// [`Arch`]: Compared::Arch
/// [`Scalar`]: Compared::Scalar
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The program as written (MMX only).
    Baseline,
    /// The baseline, list-scheduled for dual-issue.
    Scheduled,
    /// Permutes lifted onto the SPU.
    Lifted,
    /// The lifted program, list-scheduled with its routes permuted in
    /// lockstep.
    ScheduledLifted,
}

impl Variant {
    /// Every variant, in the order [`build_variants`] emits them.
    pub const ALL: [Variant; 4] =
        [Variant::Baseline, Variant::Scheduled, Variant::Lifted, Variant::ScheduledLifted];

    /// Stable lower-case name (`scheduled-lifted`, …).
    pub fn name(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::Scheduled => "scheduled",
            Variant::Lifted => "lifted",
            Variant::ScheduledLifted => "scheduled-lifted",
        }
    }

    /// Whether the variant carries lifted permutes (and so needs an SPU).
    pub fn is_lifted(self) -> bool {
        matches!(self, Variant::Lifted | Variant::ScheduledLifted)
    }

    /// The exemption table: the variant this one is checked against, and
    /// how much of their states must agree. `None` for the baseline.
    pub fn checked_against(self) -> Option<(Variant, Compared)> {
        match self {
            Variant::Baseline => None,
            Variant::Scheduled => Some((Variant::Baseline, Compared::Arch)),
            Variant::Lifted => Some((Variant::Baseline, Compared::Scalar)),
            Variant::ScheduledLifted => Some((Variant::Lifted, Compared::Arch)),
        }
    }

    /// How much of this variant's state must equal the baseline's: the
    /// table's rows composed along the reference chain.
    pub fn compared_to_baseline(self) -> Compared {
        match self.checked_against() {
            None => Compared::All,
            Some((reference, compared)) => compared.min(reference.compared_to_baseline()),
        }
    }

    /// The paper's machine for this variant: `base` with the SPU fitted
    /// at `shape` for the lifted variants, and without it otherwise.
    pub fn machine(self, base: &MachineConfig, shape: &CrossbarShape) -> MachineConfig {
        if self.is_lifted() {
            MachineConfig { spu_fitted: true, crossbar: *shape, ..base.clone() }
        } else {
            MachineConfig { spu_fitted: false, ..base.clone() }
        }
    }
}

/// How much of two [`ArchState`]s [`compare`] checks. Each level adds to
/// the one before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Compared {
    /// GP registers, flags and the output ranges.
    Scalar,
    /// Also the MMX registers: the whole architectural state.
    Arch,
    /// Also the counts every pipeline model must reproduce
    /// ([`SimStats::model_invariant_counts`]).
    Counts,
    /// Also every other statistic.
    All,
}

/// Initial state and observable outputs for a run.
#[derive(Clone, Debug, Default)]
pub struct TestSetup {
    /// `(address, bytes)` memory images.
    pub mem_init: Vec<(u32, Vec<u8>)>,
    /// Initial scalar registers.
    pub reg_init: Vec<(GpReg, u32)>,
    /// Initial MMX registers.
    pub mm_init: Vec<(MmReg, u64)>,
    /// `(address, length)` ranges captured after the run.
    pub outputs: Vec<(u32, usize)>,
}

/// What one run leaves behind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArchState {
    /// Run statistics.
    pub stats: SimStats,
    /// Final MMX register file.
    pub mm: [u64; 8],
    /// Final GP register file.
    pub gp: [u32; 16],
    /// Final condition flags.
    pub flags: Flags,
    /// `(address, bytes)` of each [`TestSetup::outputs`] range, in order.
    pub outputs: Vec<(u32, Vec<u8>)>,
}

impl ArchState {
    /// The bytes at `addr..addr + len`, if one output range covers them.
    pub fn read(&self, addr: u32, len: usize) -> Option<&[u8]> {
        self.outputs.iter().find_map(|(base, bytes)| {
            let off = addr.checked_sub(*base)? as usize;
            bytes.get(off..off.checked_add(len)?)
        })
    }
}

/// Run `program` on a fresh machine configured by `cfg`, with `setup`
/// applied, and capture the final state. The machine is dropped before
/// this returns, so a caller never holds more than one.
pub fn run(program: &Program, setup: &TestSetup, cfg: MachineConfig) -> Result<ArchState, String> {
    let mut m = Machine::new(cfg);
    for (addr, bytes) in &setup.mem_init {
        m.mem.write_bytes(*addr, bytes).map_err(|e| format!("memory init at {addr:#x}: {e:?}"))?;
    }
    for (r, v) in &setup.reg_init {
        m.regs.write_gp(*r, *v);
    }
    for (r, v) in &setup.mm_init {
        m.regs.write_mm(*r, *v);
    }
    let stats = m.run(program).map_err(|e| e.to_string())?;
    let outputs = setup
        .outputs
        .iter()
        .map(|&(addr, len)| match m.mem.read_bytes(addr, len) {
            Ok(bytes) => Ok((addr, bytes.to_vec())),
            Err(e) => Err(format!("output range {addr:#x}+{len}: {e:?}")),
        })
        .collect::<Result<_, _>>()?;
    Ok(ArchState { stats, mm: m.regs.mm, gp: m.regs.gp, flags: m.regs.flags, outputs })
}

/// First difference between `a` and `b` on the `what` level, or `None`
/// when they agree there.
pub fn compare(a: &ArchState, b: &ArchState, what: Compared) -> Option<String> {
    if what == Compared::All && a.stats != b.stats {
        return Some(format!("stats differ: {:?} vs {:?}", a.stats, b.stats));
    }
    if what == Compared::Counts {
        if let Some(diff) = a.stats.count_divergence(&b.stats) {
            return Some(diff);
        }
    }
    if what >= Compared::Arch {
        if let Some(i) = (0..8).find(|&i| a.mm[i] != b.mm[i]) {
            return Some(format!("mm{i} differs: {:#018x} vs {:#018x}", a.mm[i], b.mm[i]));
        }
    }
    if let Some(i) = (0..16).find(|&i| a.gp[i] != b.gp[i]) {
        return Some(format!("r{i} differs: {:#010x} vs {:#010x}", a.gp[i], b.gp[i]));
    }
    if a.flags != b.flags {
        return Some(format!("flags differ: {:?} vs {:?}", a.flags, b.flags));
    }
    for ((addr, x), (other, y)) in a.outputs.iter().zip(&b.outputs) {
        if addr != other || x.len() != y.len() {
            return Some(format!("output ranges differ: {addr:#x} vs {other:#x}"));
        }
        if x != y {
            let i = (0..x.len()).find(|&i| x[i] != y[i]).expect("unequal ranges differ somewhere");
            let at = *addr as usize + i;
            return Some(format!("memory differs at {at:#x}: {:#04x} vs {:#04x}", x[i], y[i]));
        }
    }
    None
}

/// Run `f`, turning a panic into its message.
pub fn contained<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// How an [`agree`] or [`check_references`] check failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DisagreementKind {
    /// A run panicked.
    Panicked,
    /// A run returned an error (a simulator fault or a bad setup).
    Faulted,
    /// Two states that must agree differed.
    Differed,
}

/// The first failure of an agreement check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Disagreement {
    /// Where: `run lifted/Decoded`, `compare lifted: Reference vs
    /// Threaded`, `compare lifted: in-order vs ooo` or `compare
    /// scheduled-lifted vs lifted`.
    pub stage: String,
    /// What went wrong there.
    pub kind: DisagreementKind,
    /// The panic message, the run's error, or the first difference.
    pub detail: String,
}

impl std::fmt::Display for Disagreement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            DisagreementKind::Panicked => write!(f, "{} panicked: {}", self.stage, self.detail),
            DisagreementKind::Faulted => write!(f, "{} faulted: {}", self.stage, self.detail),
            DisagreementKind::Differed => write!(f, "{}: {}", self.stage, self.detail),
        }
    }
}

/// Run `variant`'s `program` on each of the [`ENGINES`] under the
/// in-order model, then once on the out-of-order model: each run
/// panic-contained, on `cfg` with only the engine and pipeline model
/// replaced. The engines must agree on [`Compared::All`], the two models
/// on [`Compared::Counts`]. Returns the Reference engine's state.
pub fn agree(
    variant: Variant,
    program: &Program,
    setup: &TestSetup,
    cfg: &MachineConfig,
) -> Result<ArchState, Disagreement> {
    let name = variant.name();
    let run_on = |engine, pipeline, label: String| {
        let stage = format!("run {name}/{label}");
        let cfg = MachineConfig { engine, pipeline, ..cfg.clone() };
        match contained(|| run(program, setup, cfg)) {
            Ok(Ok(state)) => Ok(state),
            Ok(Err(detail)) => Err(Disagreement { stage, kind: DisagreementKind::Faulted, detail }),
            Err(detail) => Err(Disagreement { stage, kind: DisagreementKind::Panicked, detail }),
        }
    };
    let differed =
        |stage: String, detail| Disagreement { stage, kind: DisagreementKind::Differed, detail };
    let [reference, others @ ..] = ENGINES;
    let state = run_on(reference, PipelineKind::InOrder, format!("{reference:?}"))?;
    for engine in others {
        let other = run_on(engine, PipelineKind::InOrder, format!("{engine:?}"))?;
        if let Some(diff) = compare(&state, &other, Compared::All) {
            return Err(differed(format!("compare {name}: {reference:?} vs {engine:?}"), diff));
        }
    }
    let ooo = run_on(ExecEngine::default(), PipelineKind::OutOfOrder, "ooo".into())?;
    if let Some(diff) = compare(&state, &ooo, Compared::Counts) {
        return Err(differed(format!("compare {name}: in-order vs ooo"), diff));
    }
    Ok(state)
}

/// Check each variant's state against the state of the variant its
/// [`Variant::checked_against`] row names, on that row's [`Compared`]
/// level. A variant whose reference is not in `states` is skipped.
pub fn check_references(states: &[(Variant, ArchState)]) -> Result<(), Disagreement> {
    for (variant, state) in states {
        let Some((against, compared)) = variant.checked_against() else { continue };
        let Some((_, reference)) = states.iter().find(|(v, _)| *v == against) else { continue };
        if let Some(detail) = compare(reference, state, compared) {
            let stage = format!("compare {} vs {}", variant.name(), against.name());
            return Err(Disagreement { stage, kind: DisagreementKind::Differed, detail });
        }
    }
    Ok(())
}

/// The lift hook of [`build_variants`]: given the baseline program and a
/// crossbar shape, return the lifted result. [`plain_lift`] runs the
/// pass; the sweep plugs in its compile cache.
pub type LiftFn<'a> =
    &'a (dyn Fn(&Program, &CrossbarShape) -> Result<TransformResult, String> + Sync);

/// The default lift hook: a fresh [`lift_permutes`].
pub fn plain_lift(program: &Program, shape: &CrossbarShape) -> Result<TransformResult, String> {
    lift_permutes(program, shape).map_err(|e| e.to_string())
}

/// The compile variants of one program.
#[derive(Default)]
pub struct Variants {
    /// Each requested variant's program, in [`Variant::ALL`] order.
    pub programs: Vec<(Variant, Program)>,
    /// Instructions the list scheduler moved in [`Variant::Scheduled`].
    pub scheduled_moved: usize,
    /// Instructions the list scheduler moved in
    /// [`Variant::ScheduledLifted`].
    pub lifted_moved: usize,
    /// The lift pass's report, when a lifted variant was requested.
    pub report: Option<CompileReport>,
}

/// A compile stage of [`build_variants`] that failed.
#[derive(Clone, Debug)]
pub struct BuildError {
    /// `"schedule"` or `"lift"`.
    pub stage: &'static str,
    /// Whether the stage panicked rather than returned an error.
    pub panicked: bool,
    /// The panic message or the error.
    pub detail: String,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let how = if self.panicked { "panicked" } else { "failed" };
        write!(f, "{} {how}: {}", self.stage, self.detail)
    }
}

/// Build the `wanted` variants of `program` for crossbar `shape`. Each
/// compile stage runs once and panic-contained: the scheduler for
/// [`Variant::Scheduled`], and `lift` once for both lifted variants.
pub fn build_variants(
    program: Program,
    wanted: &[Variant],
    shape: &CrossbarShape,
    lift: LiftFn<'_>,
) -> Result<Variants, BuildError> {
    let mut out = Variants::default();
    let stage_error = |stage, panicked, detail| BuildError { stage, panicked, detail };
    if wanted.contains(&Variant::Scheduled) {
        let (scheduled, report) = contained(|| schedule_program(&program))
            .map_err(|msg| stage_error("schedule", true, msg))?;
        out.programs.push((Variant::Scheduled, scheduled));
        out.scheduled_moved = report.moved;
    }
    if wanted.iter().any(|v| v.is_lifted()) {
        let lifted = contained(|| lift(&program, shape))
            .map_err(|msg| stage_error("lift", true, msg))?
            .map_err(|e| stage_error("lift", false, e))?;
        if wanted.contains(&Variant::Lifted) {
            out.programs.push((Variant::Lifted, lifted.program));
        }
        if wanted.contains(&Variant::ScheduledLifted) {
            out.programs.push((Variant::ScheduledLifted, lifted.scheduled.program));
            out.lifted_moved = lifted.scheduled.moved;
        }
        out.report = Some(lifted.report);
    }
    if wanted.contains(&Variant::Baseline) {
        out.programs.insert(0, (Variant::Baseline, program));
    }
    Ok(out)
}

/// Outcome of a differential run: both runs' statistics.
#[derive(Clone, Copy, Debug)]
pub struct DiffStats {
    /// Baseline (MMX-only machine).
    pub baseline: SimStats,
    /// Transformed (SPU-fitted machine).
    pub transformed: SimStats,
}

impl DiffStats {
    /// Cycle speedup of the transformed variant (baseline / transformed).
    pub fn speedup(&self) -> f64 {
        self.baseline.cycles as f64 / self.transformed.cycles as f64
    }

    /// Dynamic realignment instructions off-loaded (the Table 3
    /// "cycles overlapped" quantity).
    pub fn realignments_removed(&self) -> u64 {
        self.baseline.mmx_realignments.saturating_sub(self.transformed.mmx_realignments)
    }
}

/// Run `baseline` on an MMX-only machine and `transformed` on an
/// SPU-fitted machine (shape `shape`), and compare them as the
/// [`Variant::Lifted`] row of the exemption table does: GP registers,
/// flags and every output range.
///
/// The transformed program must be self-contained (MMIO setup prologue +
/// GO stores), which is what [`crate::lift_permutes`] emits.
pub fn differential(
    baseline: &Program,
    transformed: &Program,
    shape: &CrossbarShape,
    setup: &TestSetup,
) -> Result<DiffStats, String> {
    let base = MachineConfig::default();
    let s0 = run(baseline, setup, Variant::Baseline.machine(&base, shape))
        .map_err(|e| format!("baseline fault: {e}"))?;
    let s1 = run(transformed, setup, Variant::Lifted.machine(&base, shape))
        .map_err(|e| format!("transformed fault: {e}"))?;
    if let Some(diff) = compare(&s0, &s1, Variant::Lifted.compared_to_baseline()) {
        return Err(format!("baseline vs transformed: {diff}"));
    }
    Ok(DiffStats { baseline: s0.stats, transformed: s1.stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ArchState {
        ArchState {
            stats: SimStats { cycles: 10, instructions: 8, ..Default::default() },
            mm: [7; 8],
            gp: [3; 16],
            flags: Flags::default(),
            outputs: vec![(0x100, vec![1, 2, 3, 4])],
        }
    }

    /// A divergence planted in one state field, tagged with the lowest
    /// [`Compared`] level that checks the field.
    type Plant = (&'static str, Compared, fn(&mut ArchState));

    const PLANTS: [Plant; 6] = [
        ("output", Compared::Scalar, |s| s.outputs[0].1[2] ^= 1),
        ("gp", Compared::Scalar, |s| s.gp[5] += 1),
        ("flags", Compared::Scalar, |s| s.flags.zf = true),
        ("mm", Compared::Arch, |s| s.mm[6] += 1),
        ("count", Compared::Counts, |s| s.stats.instructions += 1),
        ("timing", Compared::All, |s| s.stats.cycles += 1),
    ];

    /// Every row of the exemption table, and the engine and model rows:
    /// a divergence planted in a compared field is reported, one planted
    /// in an exempt field is not.
    #[test]
    fn exemption_table_reports_compared_fields_only() {
        let mut rows: Vec<(String, Compared)> = Variant::ALL
            .iter()
            .filter_map(|v| v.checked_against().map(|(r, c)| (format!("{v:?} vs {r:?}"), c)))
            .collect();
        rows.push(("engines".into(), Compared::All));
        rows.push(("pipeline models".into(), Compared::Counts));
        for (row, level) in rows {
            for (field, checked_from, plant) in PLANTS {
                let mut b = state();
                plant(&mut b);
                let found = compare(&state(), &b, level);
                assert_eq!(
                    found.is_some(),
                    level >= checked_from,
                    "{row}: {field} divergence under {level:?}: {found:?}"
                );
            }
        }
    }

    #[test]
    fn agree_reports_a_fault_at_the_first_run() {
        let program = subword_isa::asm::assemble("no-halt", "mov r0, 1\n").unwrap();
        let d =
            agree(Variant::Baseline, &program, &TestSetup::default(), &MachineConfig::default())
                .unwrap_err();
        assert_eq!(d.stage, "run baseline/Reference");
        assert_eq!(d.kind, DisagreementKind::Faulted, "{d}");
        assert!(d.detail.contains("without halt"), "{d}");
    }

    /// Each row of the exemption table, planted into the variant's state:
    /// a divergence in a compared field is reported at that row's stage,
    /// one in an exempt field is not.
    #[test]
    fn check_references_applies_each_row() {
        for v in Variant::ALL {
            let Some((against, level)) = v.checked_against() else { continue };
            for (field, checked_from, plant) in PLANTS {
                let mut planted = state();
                plant(&mut planted);
                let found = check_references(&[(against, state()), (v, planted)]);
                if level >= checked_from {
                    let d = found.expect_err(field);
                    assert_eq!(d.stage, format!("compare {} vs {}", v.name(), against.name()));
                    assert_eq!(d.kind, DisagreementKind::Differed);
                } else {
                    assert_eq!(found, Ok(()), "{v:?}: {field} is exempt");
                }
            }
        }
    }

    #[test]
    fn check_references_skips_a_variant_without_its_reference() {
        let mut planted = state();
        planted.gp[0] += 1;
        let states = [(Variant::Baseline, state()), (Variant::ScheduledLifted, planted)];
        assert_eq!(check_references(&states), Ok(()));
    }

    #[test]
    fn rows_compose_along_the_reference_chain() {
        assert_eq!(Variant::Baseline.compared_to_baseline(), Compared::All);
        assert_eq!(Variant::Scheduled.compared_to_baseline(), Compared::Arch);
        assert_eq!(Variant::Lifted.compared_to_baseline(), Compared::Scalar);
        assert_eq!(Variant::ScheduledLifted.compared_to_baseline(), Compared::Scalar);
    }

    #[test]
    fn read_finds_covered_subranges_only() {
        let s = state();
        assert_eq!(s.read(0x101, 2), Some(&[2u8, 3][..]));
        assert_eq!(s.read(0x100, 4), Some(&[1u8, 2, 3, 4][..]));
        assert_eq!(s.read(0x103, 2), None);
        assert_eq!(s.read(0xff, 1), None);
    }

    #[test]
    fn contained_reports_the_panic_message() {
        assert_eq!(contained(|| 5), Ok(5));
        assert_eq!(contained(|| -> () { panic!("boom {}", 1) }), Err("boom 1".to_string()));
    }
}
