//! The sweep orchestration layer: one parallel pass over the whole
//! kernel × crossbar-shape × block-count matrix.
//!
//! The paper's evaluation repeats the same measurement loop in several
//! harnesses (Figure 9 at shape A, the §6 ablation at shapes A–D, the
//! parameter-sensitivity study). This module replaces the per-harness
//! loops with a shared matrix:
//!
//! * [`SweepConfig`] names the kernels, shapes, block scales and machine
//!   parameters to cover;
//! * [`run_sweep`] probes the measurement store for every cell, compiles
//!   the halves the missed cells need, then runs them on the crate's
//!   dynamic worker pool ([`crate::pool`]): tasks are pulled from a
//!   shared queue by `min(tasks, cores)` workers, so a slow kernel
//!   (FFT1024) never serializes the rest of the matrix behind it;
//! * the paper's methodology (§5.2.1) runs each routine once on the
//!   plain MMX machine and varies only the SPU re-coding, so the sweep
//!   follows it with one rule: it compiles a kernel's MMX-only half once
//!   per scale and its lifted half once per cell ([`compile_half`]), and
//!   runs each set of equal halves of one kernel and scale once
//!   ([`CompiledHalf::same_programs`]). The MMX-only half takes no shape,
//!   so its cells under every shape share it, and the shape reaches a
//!   lifted run only through the programs its lift emitted, so the
//!   shapes that lift a kernel alike share one run;
//! * a measurement's two block counts run one program (the count is a
//!   setup input, see [`subword_kernels::framework::BLOCKS`]), so every
//!   cell lifts through a per-sweep [`CompileCache`] that hands the
//!   first lift to the second: the lifting pass runs **once per cell**;
//! * results land in a [`SweepReport`] — a plain-data, JSON-serializable
//!   table of [`MeasurementRecord`]s — the sweep's only product: both
//!   harness binaries (`sweep`, and `all`, which renders every paper
//!   table from one report) read its cells instead of re-implementing
//!   measurement loops.

use crate::json::Json;
use crate::pool::{pool, workers};
use crate::store::{CellKey, KernelDigest, MeasurementStore, PIPELINE_VERSION};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use subword_compile::{lift_permutes, TransformResult};
use subword_isa::program::Program;
use subword_kernels::framework::{
    compile_half, Cached, CompiledHalf, HostNanos, Kernel, MeasureOpts, Measurement,
    MeasurementRecord,
};
use subword_kernels::suite::{all_suites, dotprod_example, family_suite, Family, SuiteEntry};
use subword_sim::{MachineConfig, SimStats};
use subword_spu::crossbar::{CrossbarShape, CANONICAL_SHAPES};

/// What to sweep: the cross product of kernels, shapes and block scales,
/// measured on `base`-configured machines.
pub struct SweepConfig {
    /// Kernels with their (small, large) block counts.
    pub entries: Vec<SuiteEntry>,
    /// Crossbar shapes to measure under.
    pub shapes: Vec<CrossbarShape>,
    /// Multipliers applied to each entry's block counts (`1` = the
    /// suite's own counts).
    pub block_scales: Vec<u64>,
    /// Machine parameters for both variants of every measurement.
    pub base: MachineConfig,
    /// Also measure the list-scheduled form of both variants (the v3
    /// `sched_*` columns). On by default. Disable for sweeps over
    /// non-default `base` machine parameters: the scheduler's
    /// acceptance cost model replays the *default* latencies (DESIGN.md
    /// §7), so its never-slower contract is only asserted there — and
    /// callers that never read the `sched_*` columns save half the
    /// simulator runs. When disabled, the `sched_*` columns mirror the
    /// unscheduled ones (zero deltas, zero moved instructions).
    pub measure_scheduled: bool,
}

impl SweepConfig {
    fn with_entries(entries: Vec<SuiteEntry>, shapes: &[CrossbarShape]) -> SweepConfig {
        SweepConfig {
            entries,
            shapes: shapes.to_vec(),
            block_scales: vec![1],
            base: MachineConfig::default(),
            measure_scheduled: true,
        }
    }

    /// One family's suite under the given shapes — the harnesses'
    /// family-selection entry point (no kernel list is hard-coded
    /// anywhere in the bench layer).
    pub fn family(family: Family, shapes: &[CrossbarShape]) -> SweepConfig {
        SweepConfig::with_entries(family_suite(family), shapes)
    }

    /// The eight Figure 9 kernels under the given shapes.
    pub fn paper(shapes: &[CrossbarShape]) -> SweepConfig {
        SweepConfig::family(Family::Paper, shapes)
    }

    /// The four pixel/video kernels under the given shapes.
    pub fn pixel(shapes: &[CrossbarShape]) -> SweepConfig {
        SweepConfig::family(Family::Pixel, shapes)
    }

    /// Every family's suite plus the Figure 5 dot-product example under
    /// the given shapes.
    pub fn full(shapes: &[CrossbarShape]) -> SweepConfig {
        let mut entries = all_suites();
        entries.push(dotprod_example());
        SweepConfig::with_entries(entries, shapes)
    }

    /// The full every-kernel matrix across the four Table 1 shapes.
    pub fn full_matrix() -> SweepConfig {
        SweepConfig::full(&CANONICAL_SHAPES)
    }

    /// Every (entry, shape, scale) index triple, in report order.
    fn cells(&self) -> Vec<(usize, usize, usize)> {
        let mut cells = Vec::new();
        for e in 0..self.entries.len() {
            for s in 0..self.shapes.len() {
                for c in 0..self.block_scales.len() {
                    cells.push((e, s, c));
                }
            }
        }
        cells
    }
}

/// Cache-effectiveness counters for one sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lift requests served a stored lift.
    pub hits: u64,
    /// Lift requests that ran the lifting pass (one per measured cell in
    /// a one-scale sweep).
    pub misses: u64,
}

/// A per-sweep memo of lifted programs, keyed by (kernel, crossbar
/// shape).
///
/// A miss runs [`lift_permutes`] and stores the lift with the program it
/// was lifted from. The next request under the same key takes the entry
/// out: it is a hit only if its program equals the stored one, and a
/// miss (lifted afresh, never served the stored lift) otherwise. A cell's
/// second block count is therefore a hit exactly when the kernel keeps
/// its block count out of the program
/// ([`subword_kernels::Kernel::build`]), and an entry lives only from a
/// cell's first lift to its second. MMX-only halves never lift.
/// Concurrent scales of one kernel share a key and may take each other's
/// entries, so only one-scale sweeps have exact hit and miss counts.
#[derive(Default)]
pub struct CompileCache {
    memo: Mutex<HashMap<(String, CrossbarShape), (Program, TransformResult)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> CompileCache {
        CompileCache::default()
    }

    /// Lift `program` for `shape`, taking the lift stored under
    /// `(key, shape)` when it was lifted from an equal program.
    pub fn lift(
        &self,
        key: &str,
        program: &Program,
        shape: &CrossbarShape,
    ) -> Result<TransformResult, String> {
        let slot = (key.to_string(), *shape);
        let stored = self.memo.lock().expect("cache poisoned").remove(&slot);
        if let Some((lifted_from, result)) = stored {
            if lifted_from == *program {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(result);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let result = lift_permutes(program, shape).map_err(|e| format!("{key}: {e}"))?;
        self.memo.lock().expect("cache poisoned").insert(slot, (program.clone(), result.clone()));
        Ok(result)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// One cell of the serializable report.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCell {
    /// Shape name ("A".."D" for the canonical shapes).
    pub shape: String,
    /// Block-count scale applied.
    pub scale: u64,
    /// Pipeline model the cell was timed on (`"in-order"` or `"ooo"`,
    /// per [`subword_sim::PipelineKind::name`]) — cycle columns are
    /// only comparable between cells sharing this value.
    pub pipeline: String,
    /// The flattened measurement.
    pub record: MeasurementRecord,
}

impl SweepCell {
    /// Kernel name (lives on the record; exposed here for convenience).
    pub fn kernel(&self) -> &str {
        &self.record.kernel
    }
}

/// Geometry of one swept shape (so a report is interpretable without the
/// binary that wrote it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShapeInfo {
    /// Shape name.
    pub name: String,
    /// Crossbar input ports.
    pub in_ports: u16,
    /// Crossbar output ports.
    pub out_ports: u16,
    /// Port width in bits.
    pub port_bits: u8,
}

impl From<&CrossbarShape> for ShapeInfo {
    fn from(s: &CrossbarShape) -> ShapeInfo {
        ShapeInfo {
            name: s.name.to_string(),
            in_ports: s.in_ports,
            out_ports: s.out_ports,
            port_bits: s.port_bits,
        }
    }
}

/// The serializable result of one sweep: every (kernel, shape, scale)
/// cell plus the swept geometry, the compile-cache counters, and the
/// host-side wall clock of the whole pass.
///
/// Equality covers the *measured content* — shapes, scales and cells
/// (which carry their own [`HostNanos`]/[`Cached`] exemptions) — and
/// deliberately skips the compile-cache counters and wall clock: those
/// describe how a particular run obtained the numbers, and a
/// warm-store sweep must compare equal to the cold run it replays.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Shapes covered.
    pub shapes: Vec<ShapeInfo>,
    /// Block scales covered.
    pub scales: Vec<u64>,
    /// Cells in (kernel-major, then shape, then scale) order.
    pub cells: Vec<SweepCell>,
    /// Compile-cache counters for the pass that produced this report.
    pub cache: CacheStats,
    /// Wall clock of the whole sweep (store probes, compiles, runs and
    /// joins, all workers; exempt from equality — see [`HostNanos`]).
    pub wall_nanos: HostNanos,
}

impl PartialEq for SweepReport {
    fn eq(&self, other: &SweepReport) -> bool {
        self.shapes == other.shapes && self.scales == other.scales && self.cells == other.cells
    }
}

/// What the store holds for a cell: the replayed cell, or nothing — the
/// cell is measured, and saved under its key when a store is attached.
enum Probe {
    Hit(Box<SweepCell>),
    Miss(Option<CellKey>),
}

/// A half of a measurement compiled for the missed cells of one kernel
/// and scale: their MMX-only half, or one cell's lifted half.
struct Half {
    /// The entry it measures.
    entry: usize,
    /// The scale index it measures at.
    scale: usize,
    /// Its compile, or why it failed.
    compiled: Result<CompiledHalf, String>,
    /// The index in [`Plan::runs`] of the run it reads.
    run: usize,
}

/// A cell the store missed.
struct Measured {
    /// Its index in report order.
    cell: usize,
    /// The indices in [`Plan::halves`] of the halves it joins.
    mmx_only: usize,
    lifted: usize,
}

/// What a sweep simulates: every cell's probe and, for the cells the
/// store missed, the halves they join and the runs those halves read.
struct Plan {
    probes: Vec<Result<Probe, String>>,
    measured: Vec<Measured>,
    /// Kernel-major, each (kernel, scale)'s MMX-only half before its
    /// lifted ones.
    halves: Vec<Half>,
    /// The halves to simulate, as indices in `halves`: the first of each
    /// set of equal halves of one kernel and scale.
    runs: Vec<usize>,
}

/// The kernel, scale and scaled block counts of entry `e` at scale index
/// `c`.
fn run_of(cfg: &SweepConfig, e: usize, c: usize) -> (&'static dyn Kernel, u64, u64, u64) {
    let (entry, scale) = (&cfg.entries[e], cfg.block_scales[c]);
    (entry.kernel, scale, entry.blocks_small * scale, entry.blocks_large * scale)
}

/// Probe the store for every cell, hashing each kernel and scale's
/// builds once for all its shapes; compile one MMX-only half for each
/// kernel and scale with a missed cell and one lifted half for each
/// missed cell (both block counts lifted through `cache`); and let each
/// half read the run of the first half of its kernel and scale with the
/// same programs ([`CompiledHalf::same_programs`]). A half that failed
/// to compile equals no other, and its run fails with its error.
fn plan(
    cfg: &SweepConfig,
    store: Option<&MeasurementStore>,
    cache: &CompileCache,
    threads: usize,
) -> Plan {
    let pipeline = cfg.base.pipeline.name();
    let cells = cfg.cells();
    // One key digest per kernel and scale, which each of its cells
    // finishes with its shape.
    let scales = cfg.block_scales.len();
    let digests = match store {
        Some(_) => pool(threads, cfg.entries.len() * scales, |d| {
            let (kernel, scale, small, large) = run_of(cfg, d / scales, d % scales);
            Ok(KernelDigest::new(
                kernel,
                small,
                large,
                scale,
                cfg.measure_scheduled,
                PIPELINE_VERSION,
            ))
        }),
        None => Vec::new(),
    };
    let probes = pool(threads, cells.len(), |i| {
        let Some(st) = store else { return Ok(Probe::Miss(None)) };
        let (e, s, c) = cells[i];
        let (kernel, scale, ..) = run_of(cfg, e, c);
        let shape = &cfg.shapes[s];
        let digest = digests[e * scales + c].as_ref().map_err(String::clone)?;
        let key = digest.key(shape, &cfg.base);
        Ok(match st.load(key, kernel.name(), shape.name, scale, pipeline) {
            Some(cell) => Probe::Hit(Box::new(cell)),
            None => Probe::Miss(Some(key)),
        })
    });

    // (entry, scale index, shape index) of each half to compile, the
    // shape `None` for an MMX-only half.
    let mut wanted = Vec::new();
    let mut measured = Vec::new();
    for (cell, &(e, s, c)) in cells.iter().enumerate() {
        if !matches!(probes[cell], Ok(Probe::Miss(_))) {
            continue;
        }
        let mmx_only = wanted.iter().position(|&h| h == (e, c, None)).unwrap_or_else(|| {
            wanted.push((e, c, None));
            wanted.len() - 1
        });
        wanted.push((e, c, Some(s)));
        measured.push(Measured { cell, mmx_only, lifted: wanted.len() - 1 });
    }
    let compiled = pool(threads, wanted.len(), |h| {
        let (e, c, s) = wanted[h];
        let (kernel, _, small, large) = run_of(cfg, e, c);
        let lift =
            |program: &Program, shape: &CrossbarShape| cache.lift(kernel.name(), program, shape);
        let opts = MeasureOpts {
            base: cfg.base.clone(),
            lift: Some(&lift),
            scheduled: cfg.measure_scheduled,
        };
        compile_half(kernel, small, large, s.map(|s| &cfg.shapes[s]), &opts)
    });

    let mut halves: Vec<Half> = Vec::with_capacity(wanted.len());
    let mut runs = Vec::new();
    for ((entry, scale, _), compiled) in wanted.into_iter().zip(compiled) {
        let same = |&first: &usize| {
            let first = &halves[first];
            (first.entry, first.scale) == (entry, scale)
                && matches!((&first.compiled, &compiled), (Ok(a), Ok(b)) if a.same_programs(b))
        };
        let run = runs.iter().position(same).unwrap_or_else(|| {
            runs.push(halves.len());
            runs.len() - 1
        });
        halves.push(Half { entry, scale, compiled, run });
    }
    Plan { probes, measured, halves, runs }
}

/// Measure the sweep's matrix, optionally against a cross-run
/// [`MeasurementStore`]. See the module docs for the orchestration
/// model; an error names the first failing cell as `kernel/shape X`.
///
/// The sweep makes four passes over one worker pool:
///
/// 1. **Probe.** With a store attached, every cell derives its content
///    hash ([`crate::store::cell_key`] over the built kernel bodies,
///    shape, machine config, scale and variant set, salted with
///    [`crate::store::PIPELINE_VERSION`]) and looks it up. Each kernel
///    and scale builds its two bodies and hashes them once, up to the
///    shape, and each of its cells finishes that digest with its shape
///    and the machine config: 26 builds on a full matrix, not 104. A valid entry
///    is taken as-is, flagged [`Cached`]`(true)`: no compilation, no
///    simulation. A missing or invalidated (corrupt, truncated,
///    stale-version) entry leaves the cell to be measured; the store
///    counts each lookup ([`MeasurementStore::stats`]). Without a store,
///    every cell is measured.
/// 2. **Compile.** [`compile_half`] compiles one MMX-only half per
///    (kernel, scale) with a cell to measure, which no crossbar shape
///    reaches, and one lifted half per cell to measure, both block
///    counts lifted through the sweep's [`CompileCache`]. The halves of
///    one kernel and scale with the same programs
///    ([`CompiledHalf::same_programs`]) form one set.
/// 3. **Simulate.** Each set runs once, as its first half
///    ([`CompiledHalf::run`]). A cold full matrix runs 13 MMX-only and
///    25 lifted halves where measuring each cell whole would run 52 of
///    each, and a fully warm store runs none.
/// 4. **Join.** Each measured cell joins its two halves
///    ([`Measurement::join`]): each half's own compile, for the lift
///    report and moved counts, with the run its set shared. The cell is
///    written back to the store.
///
/// Failures stay per cell. A panic or error in a probe or a lift fails
/// its cell; one in a kernel's key digest fails that kernel and scale's
/// cells, one in an MMX-only half's compile or run that kernel and
/// scale's measured cells, and one in a lifted run the cells of its set.
/// Every other cell still runs and is saved.
pub fn run_sweep(
    cfg: &SweepConfig,
    store: Option<&MeasurementStore>,
) -> Result<SweepReport, String> {
    if cfg.entries.is_empty() || cfg.shapes.is_empty() || cfg.block_scales.is_empty() {
        return Err("sweep config needs at least one kernel, shape and block scale".into());
    }
    if cfg.block_scales.iter().any(|&s| s < 1) {
        return Err("block scales must be >= 1 (a zero scale would measure nothing)".into());
    }
    let wall = std::time::Instant::now();
    let cache = CompileCache::new();
    let threads = workers();
    let pipeline = cfg.base.pipeline.name();
    let cells = cfg.cells();
    let Plan { probes, measured, halves, runs } = plan(cfg, store, &cache, threads);

    let ran = pool(threads, runs.len(), |r| {
        let Half { entry, compiled, .. } = &halves[runs[r]];
        compiled.as_ref().map_err(String::clone)?.run(cfg.entries[*entry].kernel, &cfg.base)
    });

    let joined = pool(threads, measured.len(), |m| {
        let Measured { cell: i, mmx_only, lifted } = measured[m];
        let (e, s, c) = cells[i];
        let (kernel, scale, ..) = run_of(cfg, e, c);
        // A half's own compile, and the run it reads.
        let half = |h: usize| {
            let Half { compiled, run, .. } = &halves[h];
            let compiled = compiled.as_ref().map_err(String::clone)?;
            Ok::<_, String>((compiled, ran[*run].as_ref().map_err(String::clone)?))
        };
        let cell = SweepCell {
            shape: cfg.shapes[s].name.to_string(),
            scale,
            pipeline: pipeline.to_string(),
            record: Measurement::join(kernel, half(mmx_only)?, half(lifted)?).record(),
        };
        if let (Some(st), Ok(Probe::Miss(Some(key)))) = (store, &probes[i]) {
            st.save(*key, &cell);
        }
        Ok(cell)
    });

    let mut joined = joined.into_iter();
    let cells = probes
        .into_iter()
        .zip(&cells)
        .map(|(probe, &(e, s, _))| {
            match probe {
                Ok(Probe::Hit(cell)) => Ok(*cell),
                Ok(Probe::Miss(_)) => joined.next().expect("one join per measured cell"),
                Err(err) => Err(err),
            }
            .map_err(|err| {
                format!("{}/shape {}: {err}", cfg.entries[e].kernel.name(), cfg.shapes[s].name)
            })
        })
        .collect::<Result<Vec<_>, String>>()?;

    Ok(SweepReport {
        shapes: cfg.shapes.iter().map(ShapeInfo::from).collect(),
        scales: cfg.block_scales.clone(),
        cells,
        cache: cache.stats(),
        wall_nanos: HostNanos(wall.elapsed().as_nanos() as u64),
    })
}

impl SweepReport {
    /// Cells measured under `shape`, in kernel order.
    pub fn for_shape<'a>(&'a self, shape: &str) -> Vec<&'a SweepCell> {
        let scale = self.first_scale();
        self.cells.iter().filter(|c| c.shape == shape && c.scale == scale).collect()
    }

    /// The cell for (kernel, shape) at the first scale.
    pub fn cell(&self, kernel: &str, shape: &str) -> Option<&SweepCell> {
        let scale = self.first_scale();
        self.cells.iter().find(|c| c.kernel() == kernel && c.shape == shape && c.scale == scale)
    }

    /// The report's first configured block scale (helpers above — and
    /// the sweep binary's scheduling table — pin to it so multi-scale
    /// reports do not yield duplicate kernel rows).
    pub fn first_scale(&self) -> u64 {
        self.scales.first().copied().unwrap_or(1)
    }

    /// Dynamic instructions retired by the checked runs of the cells this
    /// run simulated; store-replayed cells count nothing, so a fully warm
    /// sweep gives 0. Each cell counts its eight runs (four with
    /// `measure_scheduled` off). The four MMX-only runs of one (kernel,
    /// scale) back the cells of all its shapes, and its four lifted runs
    /// the cells of every shape that lifts it alike; a shared run counts
    /// in each cell it backs, so this is a sum over cells, above what the
    /// process simulated (a cold full matrix: 19,594,952 here, 5,233,020
    /// simulated).
    pub fn total_sim_instructions(&self) -> u64 {
        self.fresh_cells().map(|c| c.record.sim_instructions).sum()
    }

    /// Aggregate simulator throughput over the simulated cells' checked
    /// runs: [`SweepReport::total_sim_instructions`] per host second of
    /// those cells' `wall_nanos`, which time each whole checked run —
    /// machine set-up, simulation, output capture and golden check —
    /// summed across workers. A shared run adds its instructions and its
    /// time to every cell that reads it, alike. It
    /// is thus a per-run rate independent of how many workers the sweep
    /// ran on, and a lower bound on the bare interpreter's (contention
    /// can push it lower still). `None` when every cell was replayed
    /// from a store.
    pub fn sim_ips(&self) -> Option<f64> {
        let in_sim: u64 = self.fresh_cells().map(|c| c.record.wall_nanos.0).sum();
        let instructions = self.total_sim_instructions();
        (instructions > 0).then(|| HostNanos(in_sim).per_second(instructions))
    }

    /// The cells this run simulated rather than replayed from a store.
    fn fresh_cells(&self) -> impl Iterator<Item = &SweepCell> {
        self.cells.iter().filter(|c| !c.record.cached.0)
    }

    /// The scheduling contract the v3 `sched_*` columns must satisfy
    /// (single definition for the sweep binary's gate and the test
    /// suite): no cell may run more per-block cycles
    /// scheduled than unscheduled — on either variant — and at least
    /// half the kernels must dual-issue at a strictly higher rate on
    /// some cell once scheduled. Reports produced with
    /// `measure_scheduled` off fail the improvement half deliberately —
    /// they carry no scheduling signal to gate on. Returns a
    /// description of the first violation.
    ///
    /// The contract is only defined on the **in-order** pipeline model:
    /// the scheduler's acceptance cost model statically replays in-order
    /// issue rules (DESIGN.md §7/§14), so an out-of-order report may
    /// legitimately show scheduled cells at equal-or-worse cycles — the
    /// core already extracted the ILP the schedule exposes. Gating such
    /// a report is a category error and is rejected outright.
    pub fn check_sched_invariants(&self) -> Result<(), String> {
        if let Some(c) = self.cells.iter().find(|c| c.pipeline != "in-order") {
            return Err(format!(
                "{}/shape {}: measured on the `{}` pipeline model; the scheduling \
                 contract is defined on the in-order model only",
                c.kernel(),
                c.shape,
                c.pipeline
            ));
        }
        for c in &self.cells {
            let r = &c.record;
            if r.sched_baseline_per_block.cycles > r.baseline_per_block.cycles {
                return Err(format!(
                    "{}/shape {}: scheduled baseline costs cycles ({} > {})",
                    r.kernel,
                    c.shape,
                    r.sched_baseline_per_block.cycles,
                    r.baseline_per_block.cycles
                ));
            }
            if r.sched_spu_per_block.cycles > r.spu_per_block.cycles {
                return Err(format!(
                    "{}/shape {}: scheduled SPU variant costs cycles ({} > {})",
                    r.kernel, c.shape, r.sched_spu_per_block.cycles, r.spu_per_block.cycles
                ));
            }
        }
        let kernels: std::collections::BTreeSet<&str> =
            self.cells.iter().map(|c| c.kernel()).collect();
        let improved = kernels
            .iter()
            .filter(|k| {
                self.cells.iter().any(|c| {
                    c.kernel() == **k
                        && (c.record.sched_baseline_pair_rate_gain() > 0.0
                            || c.record.sched_spu_pair_rate_gain() > 0.0)
                })
            })
            .count();
        if improved * 2 < kernels.len() {
            return Err(format!(
                "scheduling raised the issued-pair rate on only {improved} of {} kernels",
                kernels.len()
            ));
        }
        Ok(())
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty()
    }

    fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("wall_nanos".into(), Json::UInt(self.wall_nanos.0)),
            (
                "shapes".into(),
                Json::Arr(
                    self.shapes
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(s.name.clone())),
                                ("in_ports".into(), Json::UInt(s.in_ports as u64)),
                                ("out_ports".into(), Json::UInt(s.out_ports as u64)),
                                ("port_bits".into(), Json::UInt(s.port_bits as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("scales".into(), Json::Arr(self.scales.iter().map(|&s| Json::UInt(s)).collect())),
            ("cells".into(), Json::Arr(self.cells.iter().map(cell_to_json).collect())),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("hits".into(), Json::UInt(self.cache.hits)),
                    ("misses".into(), Json::UInt(self.cache.misses)),
                ]),
            ),
        ])
    }

    /// Parse a report serialized by [`SweepReport::to_json`].
    pub fn from_json(text: &str) -> Result<SweepReport, String> {
        let root = Json::parse(text)?;
        let schema = root.field("schema")?.as_str()?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema `{schema}`"));
        }
        let shapes = root
            .field("shapes")?
            .as_arr()?
            .iter()
            .map(|s| {
                Ok(ShapeInfo {
                    name: s.field("name")?.as_str()?.to_string(),
                    in_ports: s.narrow("in_ports")?,
                    out_ports: s.narrow("out_ports")?,
                    port_bits: s.narrow("port_bits")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let scales = root
            .field("scales")?
            .as_arr()?
            .iter()
            .map(|v| v.as_u64())
            .collect::<Result<Vec<_>, String>>()?;
        let cells = root
            .field("cells")?
            .as_arr()?
            .iter()
            .map(cell_from_json)
            .collect::<Result<Vec<_>, String>>()?;
        let cache = root.field("cache")?;
        Ok(SweepReport {
            shapes,
            scales,
            cells,
            cache: CacheStats {
                hits: cache.field("hits")?.as_u64()?,
                misses: cache.field("misses")?.as_u64()?,
            },
            wall_nanos: HostNanos(root.field("wall_nanos")?.as_u64()?),
        })
    }
}

/// Schema tag of a serialized [`SweepReport`].
const SCHEMA: &str = "subword-sweep/v7";

fn stats_to_json(s: &SimStats) -> Json {
    Json::Obj(s.counters().into_iter().map(|(k, v)| (k.to_string(), Json::UInt(v))).collect())
}

fn stats_from_json(v: &Json) -> Result<SimStats, String> {
    let mut s = SimStats::default();
    for (k, slot) in s.counters_mut() {
        *slot = v.field(k)?.as_u64()?;
    }
    Ok(s)
}

pub(crate) fn cell_to_json(c: &SweepCell) -> Json {
    let r = &c.record;
    Json::Obj(vec![
        ("kernel".into(), Json::Str(r.kernel.clone())),
        ("family".into(), Json::Str(r.family.name().into())),
        ("shape".into(), Json::Str(c.shape.clone())),
        ("scale".into(), Json::UInt(c.scale)),
        ("pipeline".into(), Json::Str(c.pipeline.clone())),
        ("blocks_small".into(), Json::UInt(r.blocks.0)),
        ("blocks_large".into(), Json::UInt(r.blocks.1)),
        ("wall_nanos".into(), Json::UInt(r.wall_nanos.0)),
        ("sim_instructions".into(), Json::UInt(r.sim_instructions)),
        ("baseline_per_block".into(), stats_to_json(&r.baseline_per_block)),
        ("baseline_total".into(), stats_to_json(&r.baseline_total)),
        ("spu_per_block".into(), stats_to_json(&r.spu_per_block)),
        ("spu_total".into(), stats_to_json(&r.spu_total)),
        ("sched_baseline_per_block".into(), stats_to_json(&r.sched_baseline_per_block)),
        ("sched_baseline_total".into(), stats_to_json(&r.sched_baseline_total)),
        ("sched_spu_per_block".into(), stats_to_json(&r.sched_spu_per_block)),
        ("sched_spu_total".into(), stats_to_json(&r.sched_spu_total)),
        ("sched_moved_baseline".into(), Json::UInt(r.sched_moved_baseline)),
        ("sched_moved_spu".into(), Json::UInt(r.sched_moved_spu)),
        ("removed_static".into(), Json::UInt(r.removed_static)),
        ("setup_instructions".into(), Json::UInt(r.setup_instructions)),
        ("candidates".into(), Json::UInt(r.candidates)),
        ("transformed_loops".into(), Json::UInt(r.transformed_loops)),
        ("cached".into(), Json::Bool(r.cached.0)),
    ])
}

pub(crate) fn cell_from_json(v: &Json) -> Result<SweepCell, String> {
    Ok(SweepCell {
        shape: v.field("shape")?.as_str()?.to_string(),
        scale: v.field("scale")?.as_u64()?,
        pipeline: v.field("pipeline")?.as_str()?.to_string(),
        record: MeasurementRecord {
            kernel: v.field("kernel")?.as_str()?.to_string(),
            family: {
                let name = v.field("family")?.as_str()?;
                Family::from_name(name).ok_or_else(|| format!("unknown family `{name}`"))?
            },
            blocks: (v.field("blocks_small")?.as_u64()?, v.field("blocks_large")?.as_u64()?),
            wall_nanos: HostNanos(v.field("wall_nanos")?.as_u64()?),
            sim_instructions: v.field("sim_instructions")?.as_u64()?,
            baseline_per_block: stats_from_json(v.field("baseline_per_block")?)?,
            baseline_total: stats_from_json(v.field("baseline_total")?)?,
            spu_per_block: stats_from_json(v.field("spu_per_block")?)?,
            spu_total: stats_from_json(v.field("spu_total")?)?,
            sched_baseline_per_block: stats_from_json(v.field("sched_baseline_per_block")?)?,
            sched_baseline_total: stats_from_json(v.field("sched_baseline_total")?)?,
            sched_spu_per_block: stats_from_json(v.field("sched_spu_per_block")?)?,
            sched_spu_total: stats_from_json(v.field("sched_spu_total")?)?,
            sched_moved_baseline: v.field("sched_moved_baseline")?.as_u64()?,
            sched_moved_spu: v.field("sched_moved_spu")?.as_u64()?,
            removed_static: v.field("removed_static")?.as_u64()?,
            setup_instructions: v.field("setup_instructions")?.as_u64()?,
            candidates: v.field("candidates")?.as_u64()?,
            transformed_loops: v.field("transformed_loops")?.as_u64()?,
            cached: Cached(v.field("cached")?.as_bool()?),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job's two block counts build one program: the second lift is
    /// the first one handed back, equal to a fresh lift of either build.
    #[test]
    fn cache_compiles_once_per_kernel_shape() {
        let cache = CompileCache::new();
        let entry = dotprod_example();
        let small = entry.kernel.build(entry.blocks_small);
        let large = entry.kernel.build(entry.blocks_large);
        let shape = subword_spu::SHAPE_A;

        let a = cache.lift("DotProd", &small.program, &shape).unwrap();
        let b = cache.lift("DotProd", &large.program, &shape).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        let fresh = lift_permutes(&large.program, &shape).unwrap();
        for lifted in [&a, &b] {
            assert_eq!(lifted.program, fresh.program);
            assert_eq!(lifted.scheduled.program, fresh.scheduled.program);
            assert_eq!(lifted.report, fresh.report);
        }

        // The stored lift was handed out once: the next job lifts again.
        cache.lift("DotProd", &small.program, &shape).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2 });
    }

    /// A different program under a stored key is a miss, lifted afresh —
    /// never served the stored lift.
    #[test]
    fn a_different_program_under_the_same_key_is_lifted_again() {
        let cache = CompileCache::new();
        let shape = subword_spu::SHAPE_A;
        let dotprod = dotprod_example().kernel.build(2).program;
        let fir = subword_kernels::paper_suite()[0].kernel.build(2).program;
        assert_ne!(dotprod, fir);

        cache.lift("DotProd", &dotprod, &shape).unwrap();
        let lifted = cache.lift("DotProd", &fir, &shape).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        let fresh = lift_permutes(&fir, &shape).unwrap();
        assert_eq!(lifted.program, fresh.program);
        assert_eq!(lifted.report, fresh.report);

        // The key now holds the second program's lift.
        cache.lift("DotProd", &fir, &shape).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn distinct_shapes_are_distinct_cache_keys() {
        let cache = CompileCache::new();
        let entry = dotprod_example();
        let p = entry.kernel.build(entry.blocks_small);
        cache.lift("DotProd", &p.program, &subword_spu::SHAPE_A).unwrap();
        cache.lift("DotProd", &p.program, &subword_spu::SHAPE_D).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    /// For each of `cfg`'s entries, the number of distinct lifted runs its
    /// measured cells read in `plan`.
    fn lifted_runs_per_entry(cfg: &SweepConfig, plan: &Plan) -> Vec<usize> {
        let mut runs = vec![std::collections::BTreeSet::new(); cfg.entries.len()];
        for m in &plan.measured {
            let lifted = &plan.halves[m.lifted];
            runs[lifted.entry].insert(lifted.run);
        }
        runs.iter().map(|r| r.len()).collect()
    }

    /// For each of `cfg`'s entries, the number of distinct lifts across
    /// its shapes, lifted afresh: the programs `key` picks.
    fn distinct_lifts(cfg: &SweepConfig, key: fn(TransformResult) -> Vec<Program>) -> Vec<usize> {
        let distinct = |e: &SuiteEntry| {
            let program = e.kernel.build(e.blocks_small).program;
            let mut lifts = Vec::new();
            for shape in &cfg.shapes {
                let lift = key(lift_permutes(&program, shape).unwrap());
                if !lifts.contains(&lift) {
                    lifts.push(lift);
                }
            }
            lifts.len()
        };
        cfg.entries.iter().map(distinct).collect()
    }

    /// The simulation plan: a cold full matrix compiles one MMX-only half
    /// per kernel and one lifted half per cell, each cell lifting once
    /// (reused for its second block count), and runs each set of equal
    /// halves once: 13 MMX-only and 25 lifted runs, where simulating each
    /// cell whole would run 52 of each. Report-equality tests cannot see
    /// a return to more runs; this one can.
    #[test]
    fn a_sweep_simulates_each_distinct_lift_once() {
        let cfg = SweepConfig::full_matrix();
        let cache = CompileCache::new();
        let cold = plan(&cfg, None, &cache, 2);
        assert_eq!(cache.stats(), CacheStats { hits: 52, misses: 52 });
        let mmx_only: std::collections::BTreeSet<usize> =
            cold.measured.iter().map(|m| m.mmx_only).collect();
        assert_eq!((mmx_only.len(), cold.halves.len()), (13, 13 + 52));
        let mmx_only_runs = cold.runs.iter().filter(|h| mmx_only.contains(h)).count();
        assert_eq!((mmx_only_runs, cold.runs.len() - mmx_only_runs), (13, 25));

        // The shapes that share each lifted run. `bench/tests/sweep.rs`
        // checks the sharing on FIR12, SAD and DotProd, which between
        // them cover every grouping.
        let cells = cfg.cells();
        let groups = |kernel: &str| {
            let mut groups: Vec<(usize, Vec<&str>)> = Vec::new();
            for m in &cold.measured {
                let (e, s, _) = cells[m.cell];
                if cfg.entries[e].kernel.name() == kernel {
                    let run = cold.halves[m.lifted].run;
                    match groups.iter_mut().find(|(r, _)| *r == run) {
                        Some((_, shapes)) => shapes.push(cfg.shapes[s].name),
                        None => groups.push((run, vec![cfg.shapes[s].name])),
                    }
                }
            }
            groups.into_iter().map(|(_, shapes)| shapes).collect::<Vec<_>>()
        };
        assert_eq!(groups("FFT1024"), [["A", "B", "C", "D"]]);
        assert_eq!(groups("DotProd"), [["A", "B", "C", "D"]]);
        assert_eq!(groups("YUV2RGB"), [["A"], ["B"], ["C"], ["D"]]);
        assert_eq!(groups("FIR12"), [["A", "C"], ["B", "D"]]);
        assert_eq!(groups("SAD"), [vec!["A"], vec!["B"], vec!["C", "D"]]);
        // The groups are the distinct (lifted, scheduled-lifted) pairs.
        let pair = |t: TransformResult| vec![t.program, t.scheduled.program];
        assert_eq!(lifted_runs_per_entry(&cfg, &cold), distinct_lifts(&cfg, pair));

        // Blend and Conv3x3 lift nothing under shapes C and D, so those
        // lifts hold the MMX-only instructions. They still run as lifted
        // halves of their own: an SPU-fitted machine times them.
        for m in &cold.measured {
            let (e, s, _) = cells[m.cell];
            let (kernel, shape) = (cfg.entries[e].kernel.name(), cfg.shapes[s].name);
            assert_ne!(cold.halves[m.lifted].run, cold.halves[m.mmx_only].run, "{kernel}/{shape}");
        }
        for kernel in ["Blend", "Conv3x3"] {
            assert_eq!(groups(kernel), [vec!["A"], vec!["B"], vec!["C", "D"]], "{kernel}");
        }

        // Without the scheduled variants a group keys on the lifted
        // program alone.
        let mut cfg = cfg;
        cfg.measure_scheduled = false;
        let unscheduled = plan(&cfg, None, &CompileCache::new(), 2);
        let lifted = |t: TransformResult| vec![t.program];
        assert_eq!(lifted_runs_per_entry(&cfg, &unscheduled), distinct_lifts(&cfg, lifted));
    }

    /// Builds of [`CountedDotProd`].
    static BUILDS: AtomicU64 = AtomicU64::new(0);

    /// The Figure 5 dot product, counting its builds.
    struct CountedDotProd;

    impl Kernel for CountedDotProd {
        fn name(&self) -> &'static str {
            "DotProd"
        }
        fn family(&self) -> Family {
            Family::Paper
        }
        fn build(&self, blocks: u64) -> subword_kernels::framework::KernelBuild {
            BUILDS.fetch_add(1, Ordering::Relaxed);
            dotprod_example().kernel.build(blocks)
        }
    }

    /// Cells the store serves are neither lifted nor simulated, and their
    /// probe builds each kernel twice per scale, for the key digest its
    /// shapes share, not twice per cell.
    #[test]
    fn store_served_cells_lift_nothing() {
        let mut cfg = SweepConfig::full_matrix();
        cfg.entries = vec![SuiteEntry { kernel: &CountedDotProd, ..dotprod_example() }];
        let dir = std::env::temp_dir().join(format!("subword-sweep-plan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = MeasurementStore::open(&dir).unwrap();
        run_sweep(&cfg, Some(&store)).unwrap();

        let cache = CompileCache::new();
        BUILDS.store(0, Ordering::Relaxed);
        let warm = plan(&cfg, Some(&store), &cache, 2);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(warm.probes.iter().all(|p| matches!(p, Ok(Probe::Hit(_)))));
        assert!(warm.measured.is_empty() && warm.halves.is_empty() && warm.runs.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!((warm.probes.len(), BUILDS.load(Ordering::Relaxed)), (4, 2));
    }

    /// Shape geometry wider than its field is a parse error naming the
    /// field, not a silent truncation (65552 used to parse as 16).
    #[test]
    fn from_json_rejects_out_of_range_shape_fields() {
        let report = SweepReport {
            shapes: vec![ShapeInfo::from(&subword_spu::SHAPE_A)],
            scales: vec![1],
            cells: vec![],
            cache: CacheStats::default(),
            wall_nanos: HostNanos(0),
        };
        let json = report.to_json();
        assert_eq!(SweepReport::from_json(&json).unwrap(), report);
        let field = |key: &str, value: u64| format!("\"{key}\": {value}");
        let a = &subword_spu::SHAPE_A;
        for (key, old, bad) in [
            ("in_ports", a.in_ports as u64, 65552),
            ("out_ports", a.out_ports as u64, 1 << 16),
            ("port_bits", a.port_bits as u64, 264),
        ] {
            let broken = json.replace(&field(key, old), &field(key, bad));
            assert_ne!(broken, json, "{key} rewrite must hit");
            let err = SweepReport::from_json(&broken).unwrap_err();
            assert!(err.contains(key) && err.contains(&bad.to_string()), "{key}: {err}");
        }
    }
}
