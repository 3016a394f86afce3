//! Kernel framework: building, measuring and checking benchmark kernels.
//!
//! The paper's methodology (§5.2.1): run each IPP routine on the MMX,
//! extract statistics, re-code it to use implicit SPU routings instead of
//! permutation instructions, and re-run. Here the "re-coding" is the
//! `subword-compile` lifting pass, and the statistics come from the
//! simulator. Steady-state per-block numbers are extracted by running two
//! different block counts and differencing, which cancels programming
//! prologues and cold-predictor effects.
//!
//! The block count is a run input, not part of the code: it arrives in
//! [`BLOCKS`] through the setup's `reg_init`, so both runs of a
//! measurement execute one program.
//!
//! A measurement has two halves, split by [`Variant::is_lifted`]: the
//! MMX-only half ([`measure_mmx_only`]) runs on a machine without the SPU
//! and so does not depend on the crossbar shape, and the lifted half
//! ([`measure_lifted`]) runs on an SPU of one shape. [`Measurement::join`]
//! puts them together; [`measure`] is the two run back to back.
//!
//! Each half is a compile step and a run step. The lifted half's compile
//! step ([`compile_lifted`]) is public on its own: the shape reaches a
//! run only through the programs its lift emitted, so a sweep compiles
//! every shape's lift, runs one [`CompiledHalf`] for each set of shapes
//! whose lifts are equal ([`CompiledHalf::same_programs`]), and credits
//! each cell with its own lift's report
//! ([`HalfMeasurement::compiled_as`]).

use crate::paper::PaperRow;
use crate::suite::Family;
use std::time::Instant;
use subword_compile::verify::{
    build_variants, plain_lift, run, ArchState, LiftFn, Variant, Variants,
};
use subword_compile::{CompileReport, TestSetup};
use subword_isa::program::Program;
use subword_isa::reg::gp::R9;
use subword_isa::reg::GpReg;
use subword_sim::{Machine, MachineConfig, SimStats};
use subword_spu::crossbar::CrossbarShape;

/// The register that carries the block count: every kernel's outer block
/// loop counts it down to zero.
pub const BLOCKS: GpReg = R9;

/// The `reg_init` entry that runs a kernel for `blocks` blocks.
pub fn block_count(blocks: u64) -> (GpReg, u32) {
    (BLOCKS, u32::try_from(blocks).expect("block count fits a register"))
}

/// A fully materialised kernel instance.
pub struct KernelBuild {
    /// The MMX-only program, the same at every block count.
    pub program: Program,
    /// Memory/register initialisation (the block count in [`BLOCKS`]
    /// included) and output ranges.
    pub setup: TestSetup,
    /// Golden outputs `(address, bytes)` computed by the scalar
    /// reference.
    pub expected: Vec<(u32, Vec<u8>)>,
}

impl KernelBuild {
    /// Check a machine's memory against the golden outputs.
    pub fn check(&self, m: &Machine, label: &str) -> Result<(), String> {
        self.check_with(label, |addr, len| m.mem.read_bytes(addr, len).ok())
    }

    /// Check a run's captured output ranges against the golden outputs.
    pub fn check_state(&self, state: &ArchState, label: &str) -> Result<(), String> {
        self.check_with(label, |addr, len| state.read(addr, len))
    }

    /// Run `program` — this build's, or a compiled variant of it — from
    /// this build's setup on a machine configured by `cfg`, and check the
    /// golden outputs.
    pub fn run_checked(
        &self,
        program: &Program,
        cfg: MachineConfig,
        label: &str,
    ) -> Result<ArchState, String> {
        let state = run(program, &self.setup, cfg).map_err(|e| format!("{label}: {e}"))?;
        self.check_state(&state, label)?;
        Ok(state)
    }

    fn check_with<'m>(
        &self,
        label: &str,
        read: impl Fn(u32, usize) -> Option<&'m [u8]>,
    ) -> Result<(), String> {
        for (addr, bytes) in &self.expected {
            let got = read(*addr, bytes.len())
                .ok_or_else(|| format!("{label}: expected range {addr:#x} out of bounds"))?;
            if got != bytes.as_slice() {
                let off = got.iter().zip(bytes).position(|(a, b)| a != b).unwrap();
                return Err(format!(
                    "{label}: mismatch at {:#x}+{off}: got {:#04x}, expected {:#04x}",
                    addr, got[off], bytes[off]
                ));
            }
        }
        Ok(())
    }
}

/// A benchmark kernel.
pub trait Kernel: Sync {
    /// Name matching the paper's tables.
    fn name(&self) -> &'static str;

    /// Build the MMX-only program and a setup running it for `blocks`
    /// block invocations.
    ///
    /// The program must not depend on `blocks`: the count reaches it only
    /// as [`block_count`]`(blocks)` in `setup.reg_init`. A measurement's
    /// two builds then share one program, which is what lets the sweep's
    /// compile cache hand the first build's lift to the second.
    fn build(&self, blocks: u64) -> KernelBuild;

    /// The kernel family this benchmark belongs to (reported as its own
    /// sweep column so consumers can slice by workload class). Required
    /// — a new kernel must declare its family, or family-driven suite
    /// selection and the family report column silently misclassify it.
    /// Note the column tags *provenance*: the Figure 5 dot-product
    /// example reports `paper` although it sits outside the Figure 9
    /// headline list that [`crate::suite::family_suite`] returns.
    fn family(&self) -> Family;

    /// The published row, if this kernel appears in the paper's tables.
    fn paper(&self) -> Option<&'static PaperRow> {
        crate::paper::paper_row(self.name())
    }
}

/// Steady-state per-block statistics for one variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VariantStats {
    /// Per-block steady-state counters.
    pub per_block: SimStats,
    /// Whole-run counters at the larger block count.
    pub total: SimStats,
}

/// Host-side wall-clock nanoseconds attached to a measurement.
///
/// Deliberately **compares equal to any other value**: host timing is
/// nondeterministic, and equality of measurements/records means "the same
/// simulated quantities" (the sweep layer asserts cached ≡ uncached
/// measurements and lossless JSON round trips; neither property can hold
/// for wall time). The value itself still serializes, prints and feeds
/// the derived throughput metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostNanos(pub u64);

impl PartialEq for HostNanos {
    fn eq(&self, _: &HostNanos) -> bool {
        true
    }
}

impl Eq for HostNanos {}

/// Provenance marker on a [`MeasurementRecord`]: whether the record was
/// loaded from a cross-run measurement store rather than simulated by
/// this process.
///
/// Like [`HostNanos`] it is **equality-exempt**: record equality means
/// "the same simulated quantities", and a warm-cache sweep must produce
/// a report equal to a cold run's — which only its provenance flags
/// could ever distinguish. The flag still serializes (the sweep JSON's
/// schema-v5 `cached` column), so report consumers can tell replayed
/// cells from freshly simulated ones.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cached(pub bool);

impl PartialEq for Cached {
    fn eq(&self, _: &Cached) -> bool {
        true
    }
}

impl Eq for Cached {}

impl HostNanos {
    /// Simulated work per host second: `n` units over this wall time
    /// (`f64::INFINITY` for a zero reading, which only a sub-nanosecond
    /// clock would produce).
    pub fn per_second(&self, n: u64) -> f64 {
        if self.0 == 0 {
            return f64::INFINITY;
        }
        n as f64 / (self.0 as f64 / 1e9)
    }
}

/// A complete paper-methodology measurement of one kernel.
///
/// Under the sweep layer (scheduled measurement on, the default there)
/// every variant is measured twice: as built (the paper-faithful
/// unscheduled numbers in [`Measurement::baseline`]/[`Measurement::spu`])
/// and after the pairing-aware list scheduler reordered it
/// ([`Measurement::sched_baseline`]/[`Measurement::sched_spu`]) — the
/// scheduled-vs-unscheduled delta is the orchestration signal the sweep
/// reports per kernel. One-off probes ([`MeasureOpts::scheduled`] unset)
/// skip the scheduled runs; their `sched_*` fields mirror the
/// unscheduled ones. The derived metrics (speedup, cycles saved,
/// off-load shares) are defined on the flattened [`MeasurementRecord`]
/// that [`Measurement::record`] returns.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Kernel name.
    pub name: &'static str,
    /// Kernel family.
    pub family: Family,
    /// MMX-only variant.
    pub baseline: VariantStats,
    /// MMX+SPU variant.
    pub spu: VariantStats,
    /// MMX-only variant, list-scheduled for dual-issue.
    pub sched_baseline: VariantStats,
    /// MMX+SPU variant, list-scheduled (loop bodies reordered with their
    /// SPU routes permuted in lockstep).
    pub sched_spu: VariantStats,
    /// Static instructions the scheduler moved (baseline, SPU variant),
    /// at the large block count.
    pub sched_moved: (u64, u64),
    /// The lifting pass's report.
    pub report: CompileReport,
    /// Block counts used (small, large).
    pub blocks: (u64, u64),
    /// Host wall-clock spent in the measurement's checked simulator runs
    /// (machine set-up, simulation, output capture and golden check) —
    /// eight (baseline, SPU, and their scheduled forms, at both block
    /// counts), or four without [`MeasureOpts::scheduled`] — the
    /// simulator-throughput signal. A sweep runs a kernel's MMX-only
    /// half once for all its shapes, and its lifted half once for all
    /// the shapes that lift it alike ([`Measurement::join`]); those
    /// shared runs count in every measurement that reads them.
    pub wall_nanos: HostNanos,
    /// Dynamic instructions those runs retired (deterministic, so it
    /// participates in equality); a shared run counts in every
    /// measurement that reads it.
    pub sim_instructions: u64,
}

impl Measurement {
    /// Flatten into the serializable [`MeasurementRecord`] schema.
    pub fn record(&self) -> MeasurementRecord {
        MeasurementRecord {
            kernel: self.name.to_string(),
            family: self.family,
            blocks: self.blocks,
            wall_nanos: self.wall_nanos,
            sim_instructions: self.sim_instructions,
            baseline_per_block: self.baseline.per_block,
            baseline_total: self.baseline.total,
            spu_per_block: self.spu.per_block,
            spu_total: self.spu.total,
            sched_baseline_per_block: self.sched_baseline.per_block,
            sched_baseline_total: self.sched_baseline.total,
            sched_spu_per_block: self.sched_spu.per_block,
            sched_spu_total: self.sched_spu.total,
            sched_moved_baseline: self.sched_moved.0,
            sched_moved_spu: self.sched_moved.1,
            removed_static: self.report.removed_static as u64,
            setup_instructions: self.report.setup_instructions as u64,
            candidates: self.report.candidates() as u64,
            transformed_loops: self
                .report
                .loops
                .iter()
                .filter(|l| l.status == subword_compile::LoopStatus::Transformed)
                .count() as u64,
            cached: Cached(false),
        }
    }
}

/// The plain-data measurement schema: everything a report consumer needs,
/// flattened to named numbers so harnesses can serialize it without
/// carrying live compiler state. Produced by [`Measurement::record`];
/// consumed (and JSON round-tripped) by the `subword-bench` sweep layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeasurementRecord {
    /// Kernel name matching the paper's tables.
    pub kernel: String,
    /// Kernel family the benchmark belongs to.
    pub family: Family,
    /// Block counts used (small, large).
    pub blocks: (u64, u64),
    /// Host wall-clock spent in the measurement's checked simulator runs,
    /// eight in a sweep cell (exempt from equality — see [`HostNanos`]).
    /// The four MMX-only runs are shared by the cells of one kernel and
    /// scale, the four lifted runs by those of its cells whose lifts are
    /// equal, and a shared run counts in every cell that reads it.
    pub wall_nanos: HostNanos,
    /// Dynamic instructions those runs retired; a shared run counts in
    /// every cell that reads it.
    pub sim_instructions: u64,
    /// MMX-only steady-state per-block counters.
    pub baseline_per_block: SimStats,
    /// MMX-only whole-run counters at the larger block count.
    pub baseline_total: SimStats,
    /// MMX+SPU steady-state per-block counters.
    pub spu_per_block: SimStats,
    /// MMX+SPU whole-run counters at the larger block count.
    pub spu_total: SimStats,
    /// List-scheduled MMX-only steady-state per-block counters.
    pub sched_baseline_per_block: SimStats,
    /// List-scheduled MMX-only whole-run counters.
    pub sched_baseline_total: SimStats,
    /// List-scheduled MMX+SPU steady-state per-block counters.
    pub sched_spu_per_block: SimStats,
    /// List-scheduled MMX+SPU whole-run counters.
    pub sched_spu_total: SimStats,
    /// Static instructions the scheduler moved in the MMX-only variant.
    pub sched_moved_baseline: u64,
    /// Static instructions the scheduler moved in the MMX+SPU variant.
    pub sched_moved_spu: u64,
    /// Static realignment instructions the pass removed.
    pub removed_static: u64,
    /// Instructions the pass added (MMIO prologue + GO stores).
    pub setup_instructions: u64,
    /// Liftable candidates the pass saw.
    pub candidates: u64,
    /// Loops actually transformed.
    pub transformed_loops: u64,
    /// Whether this record was replayed from a cross-run measurement
    /// store (equality-exempt provenance — see [`Cached`]).
    pub cached: Cached,
}

impl MeasurementRecord {
    /// Per-block cycle speedup from the SPU.
    pub fn speedup(&self) -> f64 {
        self.baseline_per_block.cycles as f64 / self.spu_per_block.cycles.max(1) as f64
    }

    /// Percentage of cycles saved (how Figure 9 is usually read).
    pub fn pct_cycles_saved(&self) -> f64 {
        let (base, spu) = (self.baseline_per_block.cycles, self.spu_per_block.cycles);
        100.0 * (1.0 - spu as f64 / base.max(1) as f64)
    }

    /// Off-loaded permutations per block (dynamic).
    pub fn offloaded_per_block(&self) -> u64 {
        self.baseline_per_block.mmx_realignments - self.spu_per_block.mmx_realignments
    }

    /// Off-loaded permutations as % of baseline MMX instructions —
    /// Table 3's "% MMX Instr".
    pub fn pct_mmx_instr(&self) -> f64 {
        100.0 * self.offloaded_per_block() as f64
            / self.baseline_per_block.mmx_instructions.max(1) as f64
    }

    /// Off-loaded permutations as % of total instructions — Table 3's
    /// "Total Instr".
    pub fn pct_total_instr(&self) -> f64 {
        100.0 * self.offloaded_per_block() as f64
            / self.baseline_per_block.instructions.max(1) as f64
    }

    /// Scale factor to print per-block numbers at the paper's magnitude
    /// (the paper ran ~10^10 clocks per benchmark).
    pub fn paper_scale(&self, paper: &PaperRow) -> f64 {
        paper.clocks / self.baseline_per_block.cycles.max(1) as f64
    }

    /// Host-side simulator throughput: simulated instructions retired per
    /// wall-clock second across this measurement's runs.
    pub fn sim_ips(&self) -> f64 {
        self.wall_nanos.per_second(self.sim_instructions)
    }

    /// Issued-pair-rate gain from scheduling the MMX-only variant
    /// (fraction of issue slots that dual-issue, scheduled − unscheduled).
    pub fn sched_baseline_pair_rate_gain(&self) -> f64 {
        self.sched_baseline_per_block.pair_rate() - self.baseline_per_block.pair_rate()
    }

    /// Issued-pair-rate gain from scheduling the MMX+SPU variant.
    pub fn sched_spu_pair_rate_gain(&self) -> f64 {
        self.sched_spu_per_block.pair_rate() - self.spu_per_block.pair_rate()
    }
}

/// How [`measure`] builds and runs a kernel's variants.
#[derive(Clone, Default)]
pub struct MeasureOpts<'a> {
    /// Micro-architectural parameters (multiplier latencies, BTB,
    /// mispredict penalty, pipeline model, …) for every variant; the SPU
    /// flag and crossbar are set per variant ([`Variant::machine`]).
    pub base: MachineConfig,
    /// Lift hook, called once per block count by [`compile_lifted`];
    /// `None` runs a fresh [`plain_lift`]. The sweep plugs its
    /// compiled-program cache in here.
    pub lift: Option<LiftFn<'a>>,
    /// Also measure the list-scheduled form of both variants: eight
    /// simulator runs instead of four. Unset, the `sched_*` fields mirror
    /// the unscheduled ones (zero deltas, zero moved instructions). Keep
    /// it unset for non-default `base` parameters: the scheduler's
    /// acceptance cost model replays the *default* latencies, so its
    /// never-slower contract only holds there (DESIGN.md §7).
    pub scheduled: bool,
}

/// One half of a [`Measurement`]: a variant and its list-scheduled form,
/// run on one machine at both block counts. [`measure_mmx_only`] returns
/// the MMX-only half and [`measure_lifted`] the lifted half;
/// [`Measurement::join`] puts the two together. A half is compiled
/// ([`compile_lifted`]) and then run ([`CompiledHalf::run`]); the sweep
/// calls the two steps apart, to run one lifted half for every shape
/// that lifts a kernel to the same programs.
#[derive(Clone, Debug, PartialEq)]
pub struct HalfMeasurement {
    /// The variant as built ([`Variant::Baseline`] or [`Variant::Lifted`]).
    plain: VariantStats,
    /// Its list-scheduled form, or a copy of `plain` without
    /// [`MeasureOpts::scheduled`].
    scheduled: VariantStats,
    /// Static instructions the scheduler moved, at the large block count.
    moved: u64,
    /// The lifting pass's report (the lifted half only).
    report: Option<CompileReport>,
    /// Block counts used (small, large).
    blocks: (u64, u64),
    /// Host wall-clock spent in this half's checked simulator runs.
    wall_nanos: HostNanos,
    /// Dynamic instructions those runs retired.
    sim_instructions: u64,
}

/// The MMX-only half of a measurement: [`Variant::Baseline`] (and
/// [`Variant::Scheduled`] with [`MeasureOpts::scheduled`]) at both block
/// counts, every run checked against the golden outputs. It takes no
/// crossbar shape: the MMX-only machine has no SPU, so one run serves
/// every shape the kernel is measured under.
pub fn measure_mmx_only(
    kernel: &dyn Kernel,
    blocks_small: u64,
    blocks_large: u64,
    opts: &MeasureOpts<'_>,
) -> Result<HalfMeasurement, String> {
    // Neither variant is lifted, so no compile stage reads the shape, and
    // `Variant::machine` leaves the SPU unfitted whatever it is.
    let half = [Variant::Baseline, Variant::Scheduled];
    compile_half(kernel, blocks_small, blocks_large, half, &opts.base.crossbar, opts)?
        .run(kernel, &opts.base)
}

/// The lifted half of a measurement: [`Variant::Lifted`] (and
/// [`Variant::ScheduledLifted`] with [`MeasureOpts::scheduled`]) on the
/// SPU-fitted machine with crossbar `shape`, at both block counts, every
/// run checked against the golden outputs.
pub fn measure_lifted(
    kernel: &dyn Kernel,
    blocks_small: u64,
    blocks_large: u64,
    shape: &CrossbarShape,
    opts: &MeasureOpts<'_>,
) -> Result<HalfMeasurement, String> {
    compile_lifted(kernel, blocks_small, blocks_large, shape, opts)?.run(kernel, &opts.base)
}

/// The lifted half of a measurement, compiled but not yet run: each block
/// count's build goes through the lift hook ([`MeasureOpts::lift`]), as
/// [`measure_lifted`] does before it runs them.
pub fn compile_lifted(
    kernel: &dyn Kernel,
    blocks_small: u64,
    blocks_large: u64,
    shape: &CrossbarShape,
    opts: &MeasureOpts<'_>,
) -> Result<CompiledHalf, String> {
    let half = [Variant::Lifted, Variant::ScheduledLifted];
    compile_half(kernel, blocks_small, blocks_large, half, shape, opts)
}

/// A half's programs, compiled at both block counts, and what the
/// compile stages reported: everything [`CompiledHalf::run`] needs
/// besides the kernel's setups and goldens, which it rebuilds.
#[derive(Debug)]
pub struct CompiledHalf {
    /// Each wanted variant's program, in [`Variant::ALL`] order, at the
    /// small and at the large block count.
    programs: [Vec<(Variant, Program)>; 2],
    /// The crossbar shape the programs were compiled for; the lifted
    /// variants run on an SPU of this shape.
    shape: CrossbarShape,
    /// Static instructions the scheduler moved, at the large block count.
    moved: u64,
    /// The lifting pass's report at the large block count (the lifted
    /// half only).
    report: Option<CompileReport>,
    /// Block counts (small, large).
    blocks: (u64, u64),
}

/// Build `kernel` at both block counts and compile the `[plain,
/// scheduled]` variants of each (only `plain` without
/// [`MeasureOpts::scheduled`]).
fn compile_half(
    kernel: &dyn Kernel,
    blocks_small: u64,
    blocks_large: u64,
    half: [Variant; 2],
    shape: &CrossbarShape,
    opts: &MeasureOpts<'_>,
) -> Result<CompiledHalf, String> {
    assert!(blocks_small < blocks_large);
    let wanted = if opts.scheduled { &half[..] } else { &half[..1] };
    let lift = opts.lift.unwrap_or(&plain_lift);
    let compile_at = |blocks: u64| -> Result<Variants, String> {
        build_variants(kernel.build(blocks).program, wanted, shape, lift).map_err(|e| e.to_string())
    };
    let small = compile_at(blocks_small)?;
    let large = compile_at(blocks_large)?;
    let moved = if half[0].is_lifted() { large.lifted_moved } else { large.scheduled_moved };
    Ok(CompiledHalf {
        programs: [small.programs, large.programs],
        shape: *shape,
        moved: moved as u64,
        report: large.report,
        blocks: (blocks_small, blocks_large),
    })
}

impl CompiledHalf {
    /// Whether `other` compiled to the same programs at both block
    /// counts. Two such halves of one kernel, compiled for different
    /// shapes, simulate alike: the machines differ only in the crossbar,
    /// which the simulator reads only to validate an SPU program at its
    /// GO, and each lift validated its programs for its own shape
    /// (DESIGN.md §4).
    pub fn same_programs(&self, other: &CompiledHalf) -> bool {
        self.programs == other.programs
    }

    /// Run every program on `kernel`'s setup at its block count, on a
    /// machine configured by `base` (SPU-fitted, with this half's shape,
    /// for the lifted variants), and check each run against the golden
    /// outputs; the steady-state per-block counters are the difference
    /// of the two block counts.
    pub fn run(
        &self,
        kernel: &dyn Kernel,
        base: &MachineConfig,
    ) -> Result<HalfMeasurement, String> {
        let mut wall_nanos = 0;
        let mut sim_instructions = 0;
        // Every program's statistics at one block count, in variant order.
        let mut run_at = |blocks: u64, programs: &[(Variant, Program)]| {
            let build = kernel.build(blocks);
            let mut stats = Vec::with_capacity(programs.len());
            for (variant, program) in programs {
                let label = format!("{}/{blocks}", variant.name());
                let t = Instant::now();
                let cfg = variant.machine(base, &self.shape);
                let state = build.run_checked(program, cfg, &label)?;
                wall_nanos += t.elapsed().as_nanos() as u64;
                sim_instructions += state.stats.instructions;
                stats.push(state.stats);
            }
            Ok::<_, String>(stats)
        };
        let (blocks_small, blocks_large) = self.blocks;
        let small = run_at(blocks_small, &self.programs[0])?;
        let large = run_at(blocks_large, &self.programs[1])?;

        let nblocks = blocks_large - blocks_small;
        // A variant's steady state; the scheduled form falls back to the
        // plain one when its runs were skipped.
        let steady = |i: usize| {
            let i = i.min(large.len() - 1);
            let mut per_block = large[i] - small[i];
            for (_, c) in per_block.counters_mut() {
                *c /= nblocks;
            }
            VariantStats { per_block, total: large[i] }
        };
        Ok(HalfMeasurement {
            plain: steady(0),
            scheduled: steady(1),
            moved: self.moved,
            report: self.report.clone(),
            blocks: self.blocks,
            wall_nanos: HostNanos(wall_nanos),
            sim_instructions,
        })
    }
}

impl HalfMeasurement {
    /// This half's runs, credited to `compiled`, another compile of the
    /// same programs: its lift report and moved count replace this
    /// half's. A sweep joins each cell with the runs of the half its
    /// programs share, and with what its own lift reported.
    pub fn compiled_as(&self, compiled: &CompiledHalf) -> HalfMeasurement {
        HalfMeasurement { moved: compiled.moved, report: compiled.report.clone(), ..self.clone() }
    }
}

impl Measurement {
    /// Join `kernel`'s MMX-only and lifted halves, measured at the same
    /// block counts, into one measurement. Its wall clock and instruction
    /// count are the two halves' sums, so an MMX-only half joined into
    /// several measurements counts in each of them.
    pub fn join(
        kernel: &dyn Kernel,
        mmx_only: &HalfMeasurement,
        lifted: &HalfMeasurement,
    ) -> Measurement {
        assert_eq!(
            mmx_only.blocks,
            lifted.blocks,
            "{}: halves at different block counts",
            kernel.name()
        );
        Measurement {
            name: kernel.name(),
            family: kernel.family(),
            baseline: mmx_only.plain,
            spu: lifted.plain,
            sched_baseline: mmx_only.scheduled,
            sched_spu: lifted.scheduled,
            sched_moved: (mmx_only.moved, lifted.moved),
            report: lifted.report.clone().expect("the lifted half carries the lift report"),
            blocks: lifted.blocks,
            wall_nanos: HostNanos(mmx_only.wall_nanos.0 + lifted.wall_nanos.0),
            sim_instructions: mmx_only.sim_instructions + lifted.sim_instructions,
        }
    }
}

/// Measure a kernel with the paper's methodology: the MMX-only and lifted
/// variants (plus their scheduled forms with [`MeasureOpts::scheduled`])
/// at two block counts, every run checked against the golden outputs;
/// steady-state per-block counters are the difference. This is
/// [`measure_mmx_only`] and [`measure_lifted`], joined.
pub fn measure(
    kernel: &dyn Kernel,
    blocks_small: u64,
    blocks_large: u64,
    shape: &CrossbarShape,
    opts: &MeasureOpts<'_>,
) -> Result<Measurement, String> {
    let mmx_only = measure_mmx_only(kernel, blocks_small, blocks_large, opts)?;
    let lifted = measure_lifted(kernel, blocks_small, blocks_large, shape, opts)?;
    Ok(Measurement::join(kernel, &mmx_only, &lifted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use subword_sim::SimStats;

    fn meas(base: SimStats, spu: SimStats) -> Measurement {
        Measurement {
            name: "synthetic",
            family: Family::Paper,
            baseline: VariantStats { per_block: base, total: base },
            spu: VariantStats { per_block: spu, total: spu },
            sched_baseline: VariantStats { per_block: base, total: base },
            sched_spu: VariantStats { per_block: spu, total: spu },
            sched_moved: (0, 0),
            report: CompileReport {
                name: "synthetic".into(),
                loops: vec![],
                removed_static: 0,
                setup_instructions: 0,
            },
            blocks: (1, 2),
            wall_nanos: HostNanos(0),
            sim_instructions: 0,
        }
    }

    #[test]
    fn host_nanos_is_equality_exempt_but_still_measures() {
        assert_eq!(HostNanos(1), HostNanos(2));
        assert_eq!(HostNanos(500_000_000).per_second(1_000_000), 2_000_000.0);
        assert_eq!(HostNanos(0).per_second(5), f64::INFINITY);
    }

    #[test]
    fn measurement_ratios() {
        let base = SimStats {
            cycles: 1000,
            instructions: 1600,
            mmx_instructions: 800,
            mmx_realignments: 200,
            ..Default::default()
        };
        let spu = SimStats {
            cycles: 850,
            instructions: 1450,
            mmx_instructions: 650,
            mmx_realignments: 50,
            ..Default::default()
        };
        let m = meas(base, spu).record();
        assert_eq!(m.offloaded_per_block(), 150);
        assert!((m.speedup() - 1000.0 / 850.0).abs() < 1e-12);
        assert!((m.pct_cycles_saved() - 15.0).abs() < 1e-9);
        // Table 3 shares use the *baseline* populations.
        assert!((m.pct_mmx_instr() - 100.0 * 150.0 / 800.0).abs() < 1e-9);
        assert!((m.pct_total_instr() - 100.0 * 150.0 / 1600.0).abs() < 1e-9);
        // Paper scaling produces the published clock magnitude.
        let row = crate::paper::paper_row("DCT").unwrap();
        let scale = m.paper_scale(row);
        assert!((1000.0 * scale - row.clocks).abs() / row.clocks < 1e-12);
    }

    #[test]
    fn measurement_handles_zero_denominators() {
        let m = meas(SimStats::default(), SimStats::default()).record();
        assert_eq!(m.offloaded_per_block(), 0);
        assert_eq!(m.pct_mmx_instr(), 0.0);
        assert_eq!(m.pct_total_instr(), 0.0);
    }

    #[test]
    fn sched_deltas_read_scheduled_minus_unscheduled() {
        let mut m = meas(
            SimStats { cycles: 1000, pairs: 100, singles: 300, ..Default::default() },
            SimStats { cycles: 800, pairs: 100, singles: 200, ..Default::default() },
        );
        m.sched_baseline.per_block =
            SimStats { cycles: 900, pairs: 150, singles: 200, ..Default::default() };
        m.sched_spu.per_block =
            SimStats { cycles: 750, pairs: 130, singles: 140, ..Default::default() };
        let r = m.record();
        // Pair rate: 150/350 vs 100/400.
        assert!((r.sched_baseline_pair_rate_gain() - (150.0 / 350.0 - 0.25)).abs() < 1e-12);
        assert!(r.sched_spu_pair_rate_gain() > 0.0);
    }
}
