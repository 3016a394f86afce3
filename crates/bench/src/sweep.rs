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
//! * [`run_sweep`] probes the measurement store for every cell, then
//!   runs the simulation jobs the missed cells need on a dynamic worker
//!   pool: jobs are pulled from a shared queue by `min(jobs, cores)`
//!   workers, so a slow kernel (FFT1024) never serializes the rest of
//!   the matrix behind it (rayon would be the off-the-shelf choice here;
//!   the build container has no network access, so the pool is ~30
//!   lines of `std::thread` — see DESIGN.md §4);
//! * the paper's methodology (§5.2.1) runs each routine once on the
//!   plain MMX machine and varies only the SPU re-coding, so the sweep
//!   follows it: the MMX-only half of a measurement
//!   ([`measure_mmx_only`]) runs once per (kernel, scale), shared by
//!   that kernel's cells under every shape, and only the lifted half
//!   ([`measure_lifted`]) runs per cell;
//! * a measurement's two block counts run one program (the count is a
//!   setup input, see [`subword_kernels::framework::BLOCKS`]), so every
//!   lifted job lifts through a per-sweep [`CompileCache`] that hands the
//!   first lift to the second: the lifting pass runs **once per cell**;
//! * results land in a [`SweepReport`] — a plain-data, JSON-serializable
//!   table of [`MeasurementRecord`]s — the sweep's only product: both
//!   harness binaries (`sweep`, and `all`, which renders every paper
//!   table from one report) read its cells instead of re-implementing
//!   measurement loops.

use crate::json::Json;
use crate::store::{cell_key, CellKey, MeasurementStore};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use subword_compile::verify::contained;
use subword_compile::{lift_permutes, TransformResult};
use subword_isa::program::Program;
use subword_kernels::framework::{
    measure_lifted, measure_mmx_only, Cached, HostNanos, MeasureOpts, Measurement,
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
/// miss (lifted afresh, never served the stored lift) otherwise. A lifted
/// job's second block count is therefore a hit exactly when the kernel
/// keeps its block count out of the program
/// ([`subword_kernels::Kernel::build`]), and an entry lives only from a
/// job's first lift to its second. MMX-only jobs never lift.
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
    /// Wall clock of the whole sweep (store probes, simulation jobs and
    /// joins, all workers; exempt from equality — see [`HostNanos`]).
    pub wall_nanos: HostNanos,
}

impl PartialEq for SweepReport {
    fn eq(&self, other: &SweepReport) -> bool {
        self.shapes == other.shapes && self.scales == other.scales && self.cells == other.cells
    }
}

/// Run `job(i)` for every `i` in `0..n` on up to `threads` scoped
/// workers that pull indices from one shared counter, so one slow job
/// (FFT1024) never serializes the rest behind it. A panicking job costs
/// only its own result, as `Err("panicked: …")`: an unwinding worker
/// would leave the remaining slots unfilled and re-panic the scope join.
/// Results come back in index order.
fn pool<T: Send>(
    threads: usize,
    n: usize,
    job: impl Fn(usize) -> Result<T, String> + Sync,
) -> Vec<Result<T, String>> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1).min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let outcome =
                    contained(|| job(i)).unwrap_or_else(|msg| Err(format!("panicked: {msg}")));
                *slot.lock().expect("result slot poisoned") = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker pool exited before finishing its jobs")
        })
        .collect()
}

/// What the store holds for a cell: the replayed cell, or nothing — the
/// cell is measured, and saved under its key when a store is attached.
enum Probe {
    Hit(Box<SweepCell>),
    Miss(Option<CellKey>),
}

/// Execute the job matrix, optionally against a cross-run
/// [`MeasurementStore`]. See the module docs for the orchestration
/// model; an error names the first failing cell as `kernel/shape X`.
///
/// The sweep makes three passes over one worker pool:
///
/// 1. **Probe.** With a store attached, every cell derives its content
///    hash ([`crate::store::cell_key`] over the built kernel bodies,
///    shape, machine config, scale and variant set, salted with
///    [`crate::store::PIPELINE_VERSION`]) and looks it up. A valid entry
///    is taken as-is, flagged [`Cached`]`(true)`: no compilation, no
///    simulation. A missing or invalidated (corrupt, truncated,
///    stale-version) entry leaves the cell to be measured; the store
///    counts each lookup ([`MeasurementStore::stats`]). Without a store,
///    every cell is measured.
/// 2. **Simulate.** One MMX-only job per (kernel, scale) with a cell to
///    measure ([`measure_mmx_only`], which no crossbar shape reaches),
///    and one lifted job per such cell ([`measure_lifted`]). A 4-shape
///    sweep runs 20 simulations per kernel instead of 32, and a fully
///    warm store runs none.
/// 3. **Join.** Each measured cell joins its two halves
///    ([`Measurement::join`]) and is written back to the store.
///
/// Failures stay per cell. A panic or error in a probe or a lifted job
/// fails its cell; one in an MMX-only job fails the measured cells of
/// that kernel and scale. Every other cell still runs and is saved.
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
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let pipeline = cfg.base.pipeline.name();
    let cells = cfg.cells();
    // The kernel, scale and scaled block counts of entry `e` at scale
    // index `c`.
    let run_of = |e: usize, c: usize| {
        let (entry, scale) = (&cfg.entries[e], cfg.block_scales[c]);
        (entry.kernel, scale, entry.blocks_small * scale, entry.blocks_large * scale)
    };

    let probes = pool(threads, cells.len(), |i| {
        let Some(st) = store else { return Ok(Probe::Miss(None)) };
        let (e, s, c) = cells[i];
        let (kernel, scale, small, large) = run_of(e, c);
        let shape = &cfg.shapes[s];
        let key = cell_key(kernel, small, large, shape, &cfg.base, scale, cfg.measure_scheduled);
        Ok(match st.load(key, kernel.name(), shape.name, scale, pipeline) {
            Some(cell) => Probe::Hit(Box::new(cell)),
            None => Probe::Miss(Some(key)),
        })
    });

    // Jobs as (entry, scale index, shape), the MMX-only ones without a
    // shape, in kernel-major order. `measured` pairs each cell to measure
    // with its MMX-only and lifted jobs.
    let mut jobs: Vec<(usize, usize, Option<CrossbarShape>)> = Vec::new();
    let mut mmx_jobs = HashMap::new();
    let mut measured = Vec::new();
    for (i, &(e, s, c)) in cells.iter().enumerate() {
        if let Ok(Probe::Miss(_)) = probes[i] {
            let mmx_only = *mmx_jobs.entry((e, c)).or_insert_with(|| {
                jobs.push((e, c, None));
                jobs.len() - 1
            });
            jobs.push((e, c, Some(cfg.shapes[s])));
            measured.push((i, mmx_only, jobs.len() - 1));
        }
    }
    let halves = pool(threads, jobs.len(), |j| {
        let (e, c, shape) = jobs[j];
        let (kernel, _, small, large) = run_of(e, c);
        let lift =
            |program: &Program, shape: &CrossbarShape| cache.lift(kernel.name(), program, shape);
        let opts = MeasureOpts {
            base: cfg.base.clone(),
            lift: Some(&lift),
            scheduled: cfg.measure_scheduled,
        };
        match shape {
            None => measure_mmx_only(kernel, small, large, &opts),
            Some(shape) => measure_lifted(kernel, small, large, &shape, &opts),
        }
    });

    let joined = pool(threads, measured.len(), |m| {
        let (i, mmx_only, lifted) = measured[m];
        let (e, s, c) = cells[i];
        let (kernel, scale, ..) = run_of(e, c);
        let half = |j: usize| halves[j].as_ref().map_err(String::clone);
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
    /// scale) back the cells of all its shapes and count in each of
    /// them, so this is a sum over cells, above what the process
    /// simulated.
    pub fn total_sim_instructions(&self) -> u64 {
        self.fresh_cells().map(|c| c.record.sim_instructions).sum()
    }

    /// Aggregate simulator throughput over the simulated cells' checked
    /// runs: [`SweepReport::total_sim_instructions`] per host second of
    /// those cells' `wall_nanos`, which time each whole checked run —
    /// machine set-up, simulation, output capture and golden check —
    /// summed across workers. A shared MMX-only run adds its
    /// instructions and its time to every cell that reads it, alike. It
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

    /// A panicking job costs only its own slot: the single worker that
    /// ran it goes on to drain every later job, and results come back in
    /// index order.
    #[test]
    fn a_worker_keeps_draining_after_a_panicking_job() {
        let results = pool(1, 4, |i| {
            if i == 0 {
                panic!("job {i} failed");
            }
            Ok(i * 10)
        });
        assert_eq!(results, [Err("panicked: job 0 failed".to_string()), Ok(10), Ok(20), Ok(30)]);
    }

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
