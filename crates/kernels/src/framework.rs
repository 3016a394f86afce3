//! Kernel framework: building, measuring and checking benchmark kernels.
//!
//! The paper's methodology (§5.2.1): run each IPP routine on the MMX,
//! extract statistics, re-code it to use implicit SPU routings instead of
//! permutation instructions, and re-run. Here the "re-coding" is the
//! `subword-compile` lifting pass, and the statistics come from the
//! simulator. Steady-state per-block numbers are extracted by running two
//! different block counts and differencing, which cancels programming
//! prologues and cold-predictor effects.

use crate::paper::PaperRow;
use crate::suite::Family;
use std::time::Instant;
use subword_compile::verify::{
    build_variants, plain_lift, run, ArchState, LiftFn, Variant, Variants,
};
use subword_compile::{CompileReport, TestSetup};
use subword_isa::program::Program;
use subword_sim::{Machine, MachineConfig, SimStats};
use subword_spu::crossbar::CrossbarShape;

/// A fully materialised kernel instance.
pub struct KernelBuild {
    /// The MMX-only program, parameterised by block count.
    pub program: Program,
    /// Memory/register initialisation and output ranges.
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

    /// Build the MMX-only program running `blocks` block invocations.
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
/// unscheduled ones.
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
    /// Host wall-clock spent in the measurement's simulator runs — eight
    /// (baseline, SPU, and their scheduled forms, at both block counts),
    /// or four without [`MeasureOpts::scheduled`] — the
    /// interpreter-throughput signal.
    pub wall_nanos: HostNanos,
    /// Dynamic instructions those runs retired (deterministic, so it
    /// participates in equality).
    pub sim_instructions: u64,
}

/// The derived-metric formulas, defined once over the two per-block
/// counter sets; [`Measurement`] and [`MeasurementRecord`] both delegate
/// here.
mod metrics {
    use super::{PaperRow, SimStats};

    pub fn speedup(base: &SimStats, spu: &SimStats) -> f64 {
        base.cycles as f64 / spu.cycles.max(1) as f64
    }

    pub fn pct_cycles_saved(base: &SimStats, spu: &SimStats) -> f64 {
        100.0 * (1.0 - spu.cycles as f64 / base.cycles.max(1) as f64)
    }

    pub fn offloaded_per_block(base: &SimStats, spu: &SimStats) -> u64 {
        base.mmx_realignments - spu.mmx_realignments
    }

    pub fn pct_mmx_instr(base: &SimStats, spu: &SimStats) -> f64 {
        100.0 * offloaded_per_block(base, spu) as f64 / base.mmx_instructions.max(1) as f64
    }

    pub fn pct_total_instr(base: &SimStats, spu: &SimStats) -> f64 {
        100.0 * offloaded_per_block(base, spu) as f64 / base.instructions.max(1) as f64
    }

    pub fn paper_scale(base: &SimStats, paper: &PaperRow) -> f64 {
        paper.clocks / base.cycles.max(1) as f64
    }
}

impl Measurement {
    /// Per-block cycle speedup from the SPU.
    pub fn speedup(&self) -> f64 {
        metrics::speedup(&self.baseline.per_block, &self.spu.per_block)
    }

    /// Percentage of cycles saved (how Figure 9 is usually read).
    pub fn pct_cycles_saved(&self) -> f64 {
        metrics::pct_cycles_saved(&self.baseline.per_block, &self.spu.per_block)
    }

    /// Off-loaded permutations per block (dynamic).
    pub fn offloaded_per_block(&self) -> u64 {
        metrics::offloaded_per_block(&self.baseline.per_block, &self.spu.per_block)
    }

    /// Off-loaded permutations as % of baseline MMX instructions —
    /// Table 3's "% MMX Instr".
    pub fn pct_mmx_instr(&self) -> f64 {
        metrics::pct_mmx_instr(&self.baseline.per_block, &self.spu.per_block)
    }

    /// Off-loaded permutations as % of total instructions — Table 3's
    /// "Total Instr".
    pub fn pct_total_instr(&self) -> f64 {
        metrics::pct_total_instr(&self.baseline.per_block, &self.spu.per_block)
    }

    /// Scale factor to print per-block numbers at the paper's magnitude
    /// (the paper ran ~10^10 clocks per benchmark).
    pub fn paper_scale(&self, paper: &PaperRow) -> f64 {
        metrics::paper_scale(&self.baseline.per_block, paper)
    }

    /// Host-side simulator throughput: simulated instructions retired per
    /// wall-clock second across this measurement's runs (eight in a
    /// sweep cell).
    pub fn sim_ips(&self) -> f64 {
        self.wall_nanos.per_second(self.sim_instructions)
    }

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
    /// Host wall-clock spent in the measurement's simulator runs, eight
    /// in a sweep cell (exempt from equality — see [`HostNanos`]).
    pub wall_nanos: HostNanos,
    /// Dynamic instructions those runs retired.
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
        metrics::speedup(&self.baseline_per_block, &self.spu_per_block)
    }

    /// Percentage of cycles saved (how Figure 9 is usually read).
    pub fn pct_cycles_saved(&self) -> f64 {
        metrics::pct_cycles_saved(&self.baseline_per_block, &self.spu_per_block)
    }

    /// Off-loaded permutations per block (dynamic).
    pub fn offloaded_per_block(&self) -> u64 {
        metrics::offloaded_per_block(&self.baseline_per_block, &self.spu_per_block)
    }

    /// Off-loaded permutations as % of baseline MMX instructions.
    pub fn pct_mmx_instr(&self) -> f64 {
        metrics::pct_mmx_instr(&self.baseline_per_block, &self.spu_per_block)
    }

    /// Off-loaded permutations as % of total instructions.
    pub fn pct_total_instr(&self) -> f64 {
        metrics::pct_total_instr(&self.baseline_per_block, &self.spu_per_block)
    }

    /// Scale factor to print per-block numbers at the paper's magnitude.
    pub fn paper_scale(&self, paper: &PaperRow) -> f64 {
        metrics::paper_scale(&self.baseline_per_block, paper)
    }

    /// Host-side simulator throughput: simulated instructions retired per
    /// wall-clock second across this measurement's runs.
    pub fn sim_ips(&self) -> f64 {
        self.wall_nanos.per_second(self.sim_instructions)
    }

    /// Per-block cycles the list scheduler saved on the MMX-only
    /// variant (positive = scheduled is faster).
    pub fn sched_baseline_cycles_saved(&self) -> i64 {
        self.baseline_per_block.cycles as i64 - self.sched_baseline_per_block.cycles as i64
    }

    /// Per-block cycles the list scheduler saved on the MMX+SPU variant.
    pub fn sched_spu_cycles_saved(&self) -> i64 {
        self.spu_per_block.cycles as i64 - self.sched_spu_per_block.cycles as i64
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
    /// Lift hook, called once per block count; `None` runs a fresh
    /// [`plain_lift`]. The sweep plugs its compiled-program cache in here.
    pub lift: Option<LiftFn<'a>>,
    /// Also measure the list-scheduled form of both variants: eight
    /// simulator runs instead of four. Unset, the `sched_*` fields mirror
    /// the unscheduled ones (zero deltas, zero moved instructions). Keep
    /// it unset for non-default `base` parameters: the scheduler's
    /// acceptance cost model replays the *default* latencies, so its
    /// never-slower contract only holds there (DESIGN.md §7).
    pub scheduled: bool,
}

/// Measure a kernel with the paper's methodology: the MMX-only and lifted
/// variants (plus their scheduled forms with [`MeasureOpts::scheduled`])
/// at two block counts, every run checked against the golden outputs;
/// steady-state per-block counters are the difference.
pub fn measure(
    kernel: &dyn Kernel,
    blocks_small: u64,
    blocks_large: u64,
    shape: &CrossbarShape,
    opts: &MeasureOpts<'_>,
) -> Result<Measurement, String> {
    assert!(blocks_small < blocks_large);
    let wanted: &[Variant] =
        if opts.scheduled { &Variant::ALL } else { &[Variant::Baseline, Variant::Lifted] };
    let lift = opts.lift.unwrap_or(&plain_lift);
    let mut wall_nanos = 0;
    let mut sim_instructions = 0;
    // One block count: every wanted variant's statistics, in `wanted`
    // order, and the compile results.
    let mut measure_at = |blocks: u64| -> Result<(Vec<SimStats>, Variants), String> {
        let build = kernel.build(blocks);
        let variants = build_variants(build.program.clone(), wanted, shape, lift)
            .map_err(|e| e.to_string())?;
        let mut stats = Vec::with_capacity(wanted.len());
        for (variant, program) in &variants.programs {
            let label = format!("{}/{blocks}", variant.name());
            let t = Instant::now();
            let state = build.run_checked(program, variant.machine(&opts.base, shape), &label)?;
            wall_nanos += t.elapsed().as_nanos() as u64;
            sim_instructions += state.stats.instructions;
            stats.push(state.stats);
        }
        Ok((stats, variants))
    };
    let (small, _) = measure_at(blocks_small)?;
    let (large, variants) = measure_at(blocks_large)?;

    let nblocks = blocks_large - blocks_small;
    let index = |v: Variant| wanted.iter().position(|w| *w == v);
    // A variant's steady state, or its unscheduled form's when the
    // scheduled runs were skipped.
    let steady = |v: Variant, unscheduled: Variant| {
        let i = index(v).or(index(unscheduled)).expect("baseline and lifted always run");
        let mut per_block = large[i] - small[i];
        for (_, c) in per_block.counters_mut() {
            *c /= nblocks;
        }
        VariantStats { per_block, total: large[i] }
    };
    Ok(Measurement {
        name: kernel.name(),
        family: kernel.family(),
        baseline: steady(Variant::Baseline, Variant::Baseline),
        spu: steady(Variant::Lifted, Variant::Lifted),
        sched_baseline: steady(Variant::Scheduled, Variant::Baseline),
        sched_spu: steady(Variant::ScheduledLifted, Variant::Lifted),
        sched_moved: (variants.scheduled_moved as u64, variants.lifted_moved as u64),
        report: variants.report.expect("the lifted variant always builds"),
        blocks: (blocks_small, blocks_large),
        wall_nanos: HostNanos(wall_nanos),
        sim_instructions,
    })
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
        let m = meas(base, spu);
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
        let m = meas(SimStats::default(), SimStats::default());
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
        assert_eq!(r.sched_baseline_cycles_saved(), 100);
        assert_eq!(r.sched_spu_cycles_saved(), 50);
        // Pair rate: 150/350 vs 100/400.
        assert!((r.sched_baseline_pair_rate_gain() - (150.0 / 350.0 - 0.25)).abs() < 1e-12);
        assert!(r.sched_spu_pair_rate_gain() > 0.0);
    }
}
