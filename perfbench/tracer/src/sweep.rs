//! In-process replica of one `sweep` process: the kernel × shape matrix
//! on a worker pool with the shared compile cache and the optional
//! measurement store, then the report's JSON round trip, the report
//! file and the cycles-baseline gate. Each call into a layer runs inside
//! a span; the per-cell measurement repeats the kernel framework's
//! method (two block counts, four variants, golden outputs checked) so
//! that kernel build, compile passes and simulator runs are timed apart.

use crate::sim;
use crate::span::{self, count, span, Ledger};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use subword_bench::baseline::CyclesBaseline;
use subword_bench::store::{cell_key, MeasurementStore};
use subword_bench::sweep::{CompileCache, ShapeInfo, SweepCell, SweepConfig, SweepReport};
use subword_compile::{schedule_program, LoopStatus, TransformResult};
use subword_isa::program::Program;
use subword_kernels::framework::{HostNanos, KernelBuild, Measurement, VariantStats};
use subword_kernels::suite::SuiteEntry;
use subword_sim::{MachineConfig, PipelineKind, SimStats};
use subword_spu::crossbar::CrossbarShape;

/// What one `sweep` invocation is asked to do.
pub struct Args {
    pub pipeline: PipelineKind,
    pub cache_dir: Option<PathBuf>,
    pub baseline: Option<PathBuf>,
    pub diff_out: Option<PathBuf>,
    pub report: PathBuf,
    pub workers: usize,
}

/// The worker pool's part of one iteration.
pub struct Pool {
    /// Wall time from the pool's start to the last worker's exit.
    pub wall: Duration,
    /// Time workers spent outside any job: before their first job
    /// started and after their last one ended, i.e. waiting on the
    /// slowest job.
    pub idle: Duration,
    /// Time between jobs inside a worker's busy extent (no span covers
    /// it).
    pub gaps: Duration,
    /// Time covered by jobs, summed over workers.
    pub busy: Duration,
    /// Worker threads.
    pub workers: usize,
    /// Workers' merged ledgers.
    pub ledger: Ledger,
}

/// Run one sweep. Returns the pool accounting; the main thread's spans
/// stay in its own ledger.
pub fn run(args: &Args) -> Result<Pool, String> {
    let mut cfg = SweepConfig::full_matrix();
    cfg.base.pipeline = args.pipeline;
    let store = match &args.cache_dir {
        Some(dir) => Some(span("store.open", || MeasurementStore::open(dir))?),
        None => None,
    };
    let cache = CompileCache::new();
    let jobs: Vec<(&SuiteEntry, CrossbarShape)> =
        cfg.entries.iter().flat_map(|e| cfg.shapes.iter().map(move |s| (e, *s))).collect();
    let slots: Vec<Mutex<Option<Result<SweepCell, String>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let workers: Vec<Ledger> = span("sweep.pool", || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..args.workers.clamp(1, jobs.len()))
                .map(|_| {
                    scope.spawn(|| {
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(entry, shape)) = jobs.get(i) else { break };
                            let cell = span("sweep.job", || {
                                measure_cell(entry, shape, &cfg.base, &cache, store.as_ref())
                            });
                            *slots[i].lock().expect("slot lock") = Some(cell);
                        }
                        span::take()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("sweep worker panicked")).collect()
        })
    });
    let end = Instant::now();

    let mut pool = Pool {
        wall: end - start,
        idle: Duration::ZERO,
        gaps: Duration::ZERO,
        busy: Duration::ZERO,
        workers: workers.len(),
        ledger: Ledger::default(),
    };
    for w in &workers {
        pool.busy += w.covered;
        match w.extent {
            Some((first, last)) => {
                pool.idle += (first - start) + (end - last);
                pool.gaps += (last - first).saturating_sub(w.covered);
            }
            None => pool.idle += end - start,
        }
        pool.ledger.absorb(w);
    }

    let cells = slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot lock").expect("every job ran"))
        .collect::<Result<Vec<_>, _>>()?;
    let stats = cache.stats();
    count("compile.cache.hits", stats.hits);
    count("compile.cache.misses", stats.misses);
    if let Some(st) = &store {
        let s = st.stats();
        count("store.hits", s.hits);
        count("store.misses", s.misses);
        count("store.invalidated", s.invalidated);
    }
    let report = SweepReport {
        shapes: cfg.shapes.iter().map(ShapeInfo::from).collect(),
        scales: cfg.block_scales.clone(),
        cells,
        cache: stats,
        wall_nanos: HostNanos(start.elapsed().as_nanos() as u64),
    };
    if args.pipeline == PipelineKind::InOrder {
        span("gate", || report.check_sched_invariants())?;
    }
    let json = span("json.encode", || report.to_json());
    count("json.encode.bytes", json.len() as u64);
    let parsed = span("json.parse", || SweepReport::from_json(&json))?;
    count("json.parse.bytes", json.len() as u64);
    if parsed != report {
        return Err("report JSON round trip is lossy".into());
    }
    span("io", || std::fs::write(&args.report, &json))
        .map_err(|e| format!("write {}: {e}", args.report.display()))?;
    if let Some(path) = &args.baseline {
        let text = span("io", || std::fs::read_to_string(path))
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        let base = span("json.parse", || CyclesBaseline::from_json(&text))?;
        count("json.parse.bytes", text.len() as u64);
        if let Some(out) = &args.diff_out {
            let diff = span("gate", || base.diff_summary(&report));
            span("io", || std::fs::write(out, diff))
                .map_err(|e| format!("write {}: {e}", out.display()))?;
        }
        span("gate", || base.check(&report)).map_err(|f| f.to_string())?;
    }
    Ok(pool)
}

/// One cell: replay it from the store when the store holds it,
/// otherwise measure it (and write it back).
fn measure_cell(
    entry: &SuiteEntry,
    shape: CrossbarShape,
    base: &MachineConfig,
    cache: &CompileCache,
    store: Option<&MeasurementStore>,
) -> Result<SweepCell, String> {
    let kernel = entry.kernel;
    let pipeline = base.pipeline.name();
    let key = store.map(|_| {
        span("store.key", || {
            cell_key(kernel, entry.blocks_small, entry.blocks_large, &shape, base, 1, true)
        })
    });
    if let (Some(st), Some(k)) = (store, key) {
        if let Some(cell) =
            span("store.load", || st.load(k, kernel.name(), shape.name, 1, pipeline))
        {
            return Ok(cell);
        }
    }
    let m = measure(entry, &shape, base, &|p, s| cache.lift(kernel.name(), p, s))
        .map_err(|e| format!("{}/shape {}: {e}", kernel.name(), shape.name))?;
    let cell = SweepCell {
        shape: shape.name.to_string(),
        scale: 1,
        pipeline: pipeline.to_string(),
        record: m.record(),
    };
    if let (Some(st), Some(k)) = (store, key) {
        span("store.save", || st.save(k, &cell));
    }
    Ok(cell)
}

/// The kernel framework's measurement with scheduled variants on: the
/// MMX-only and lifted programs, each as built and list-scheduled, at
/// both block counts; per-block statistics are the difference.
fn measure(
    entry: &SuiteEntry,
    shape: &CrossbarShape,
    base: &MachineConfig,
    lift: &dyn Fn(&Program, &CrossbarShape) -> Result<TransformResult, String>,
) -> Result<Measurement, String> {
    let kernel = entry.kernel;
    let (small, large) = (entry.blocks_small, entry.blocks_large);
    let mmx = MachineConfig { spu_fitted: false, ..base.clone() };
    let spu = MachineConfig { spu_fitted: true, crossbar: *shape, ..base.clone() };
    let b_small = span("kernels.build", || kernel.build(small));
    let b_large = span("kernels.build", || kernel.build(large));
    let mut nanos = 0u64;
    let mut instructions = 0u64;
    let mut go = |build: &KernelBuild, program: &Program, cfg: &MachineConfig, label: &str| {
        let t = Instant::now();
        let (m, stats) = sim::run(cfg.clone(), program, |m| {
            for (addr, bytes) in &build.setup.mem_init {
                m.mem.write_bytes(*addr, bytes).map_err(|_| format!("{label}: init oob"))?;
            }
            for (r, v) in &build.setup.reg_init {
                m.regs.write_gp(*r, *v);
            }
            for (r, v) in &build.setup.mm_init {
                m.regs.write_mm(*r, *v);
            }
            Ok(())
        })?;
        nanos += t.elapsed().as_nanos() as u64;
        instructions += stats.instructions;
        span("kernels.check", || build.check(&m, label))?;
        Ok::<SimStats, String>(stats)
    };

    let base_s = go(&b_small, &b_small.program, &mmx, "baseline/small")?;
    let base_l = go(&b_large, &b_large.program, &mmx, "baseline/large")?;
    let (sched_s, _) = span("compile.schedule", || schedule_program(&b_small.program));
    let (sched_l, sched_report) = span("compile.schedule", || schedule_program(&b_large.program));
    let sched_base_s = go(&b_small, &sched_s, &mmx, "sched-base/s")?;
    let sched_base_l = go(&b_large, &sched_l, &mmx, "sched-base/l")?;
    let lifted_s = lift_counted(lift, &b_small.program, shape)?;
    let lifted_l = lift_counted(lift, &b_large.program, shape)?;
    let spu_s = go(&b_small, &lifted_s.program, &spu, "spu/small")?;
    let spu_l = go(&b_large, &lifted_l.program, &spu, "spu/large")?;
    let sched_spu_s = go(&b_small, &lifted_s.scheduled.program, &spu, "sched-spu/small")?;
    let sched_spu_l = go(&b_large, &lifted_l.scheduled.program, &spu, "sched-spu/large")?;

    let variant = |s: SimStats, l: SimStats| VariantStats {
        per_block: per_block(l - s, large - small),
        total: l,
    };
    Ok(Measurement {
        name: kernel.name(),
        family: kernel.family(),
        baseline: variant(base_s, base_l),
        spu: variant(spu_s, spu_l),
        sched_baseline: variant(sched_base_s, sched_base_l),
        sched_spu: variant(sched_spu_s, sched_spu_l),
        sched_moved: (sched_report.moved as u64, lifted_l.scheduled.moved as u64),
        report: lifted_l.report,
        blocks: (small, large),
        wall_nanos: HostNanos(nanos),
        sim_instructions: instructions,
    })
}

/// One lift call inside its span, counted for the transformed share.
pub fn lift_counted(
    lift: &dyn Fn(&Program, &CrossbarShape) -> Result<TransformResult, String>,
    program: &Program,
    shape: &CrossbarShape,
) -> Result<TransformResult, String> {
    let result = span("compile.lift", || lift(program, shape))?;
    count("compile.lift.calls", 1);
    if result.report.loops.iter().any(|l| l.status == LoopStatus::Transformed) {
        count("compile.lift.transformed", 1);
    }
    Ok(result)
}

/// Steady-state statistics of one block: every counter of a
/// large-minus-small difference divided by the block-count difference.
fn per_block(d: SimStats, n: u64) -> SimStats {
    SimStats {
        cycles: d.cycles / n,
        instructions: d.instructions / n,
        mmx_instructions: d.mmx_instructions / n,
        scalar_instructions: d.scalar_instructions / n,
        mmx_realignments: d.mmx_realignments / n,
        mmx_multiplies: d.mmx_multiplies / n,
        scalar_multiplies: d.scalar_multiplies / n,
        branches: d.branches / n,
        mispredicts: d.mispredicts / n,
        mispredict_cycles: d.mispredict_cycles / n,
        stall_cycles: d.stall_cycles / n,
        imul_block_cycles: d.imul_block_cycles / n,
        pairs: d.pairs / n,
        singles: d.singles / n,
        mmx_pairs: d.mmx_pairs / n,
        mmx_active_cycles: d.mmx_active_cycles / n,
        loads: d.loads / n,
        stores: d.stores / n,
        spu_routed: d.spu_routed / n,
        spu_steps: d.spu_steps / n,
        spu_activations: d.spu_activations / n,
        mmio_accesses: d.mmio_accesses / n,
    }
}
