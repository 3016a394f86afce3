//! The sweep orchestration layer: one parallel pass over the whole
//! kernel × crossbar-shape × block-count job matrix.
//!
//! The paper's evaluation repeats the same measurement loop in several
//! harnesses (Figure 9 at shape A, the §6 ablation at shapes A–D, the
//! parameter-sensitivity study). This module replaces the per-harness
//! loops with a shared job matrix:
//!
//! * [`SweepConfig`] names the kernels, shapes, block scales and machine
//!   parameters to cover;
//! * [`run_sweep`] executes the matrix on a dynamic worker pool: jobs are
//!   pulled from a shared queue by `min(jobs, cores)` workers, so a slow
//!   kernel (FFT1024) never serializes the rest of the matrix behind it
//!   (rayon would be the off-the-shelf choice here; the build container
//!   has no network access, so the pool is ~40 lines of `std::thread` —
//!   see DESIGN.md §4);
//! * a measurement's two block counts run one program (the count is a
//!   setup input, see [`subword_kernels::framework::BLOCKS`]), so every
//!   job lifts through a per-sweep [`CompileCache`] that hands the first
//!   lift to the second: the lifting pass runs **once per job**;
//! * results land in a [`SweepReport`] — a plain-data, JSON-serializable
//!   table of [`MeasurementRecord`]s — which the `figure9`,
//!   `ablation_shapes`, `sensitivity` and `sweep` binaries all consume
//!   instead of re-implementing measurement loops.

use crate::json::Json;
use crate::store::{cell_key, MeasurementStore, StoreStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use subword_compile::verify::contained;
use subword_compile::{lift_permutes, TransformResult};
use subword_isa::program::Program;
use subword_kernels::framework::{
    measure, Cached, HostNanos, MeasureOpts, Measurement, MeasurementRecord,
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
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
}

impl SweepConfig {
    fn with_entries(entries: Vec<SuiteEntry>, shapes: &[CrossbarShape]) -> SweepConfig {
        SweepConfig {
            entries,
            shapes: shapes.to_vec(),
            block_scales: vec![1],
            base: MachineConfig::default(),
            measure_scheduled: true,
            threads: None,
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

    fn jobs(&self) -> Vec<(usize, usize, usize)> {
        let mut jobs = Vec::new();
        for e in 0..self.entries.len() {
            for s in 0..self.shapes.len() {
                for c in 0..self.block_scales.len() {
                    jobs.push((e, s, c));
                }
            }
        }
        jobs
    }
}

/// Cache-effectiveness counters for one sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lift requests served a stored lift.
    pub hits: u64,
    /// Lift requests that ran the lifting pass (one per job in a
    /// one-scale sweep).
    pub misses: u64,
}

/// A per-sweep memo of lifted programs, keyed by (kernel, crossbar
/// shape).
///
/// A miss runs [`lift_permutes`] and stores the lift with the program it
/// was lifted from. The next request under the same key takes the entry
/// out: it is a hit only if its program equals the stored one, and a
/// miss (lifted afresh, never served the stored lift) otherwise. A job's
/// second block count is therefore a hit exactly when the kernel keeps
/// its block count out of the program ([`subword_kernels::Kernel::build`]),
/// and an entry lives only from a job's first lift to its second.
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

/// One completed measurement, in-memory form (kept alongside the
/// serializable record so harnesses can reach the full
/// [`Measurement`] — compile report included — without re-running).
pub struct SweepMeasurement {
    /// Kernel name.
    pub kernel: &'static str,
    /// Shape measured under.
    pub shape: CrossbarShape,
    /// Block-count scale applied.
    pub scale: u64,
    /// The measurement.
    pub measurement: Measurement,
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
    /// Wall clock of the whole sweep (job matrix execution, all workers;
    /// exempt from equality — see [`HostNanos`]).
    pub wall_nanos: HostNanos,
}

impl PartialEq for SweepReport {
    fn eq(&self, other: &SweepReport) -> bool {
        self.shapes == other.shapes && self.scales == other.scales && self.cells == other.cells
    }
}

/// The full result of [`run_sweep`].
pub struct SweepRun {
    /// Serializable report.
    pub report: SweepReport,
    /// Freshly *simulated* measurements, in job order. Without a
    /// measurement store this is every cell, 1:1 with `report.cells`;
    /// with one, cells replayed from the store have no in-memory
    /// [`Measurement`] (the compile report is not persisted) and are
    /// absent here — `report.cells` remains the complete matrix.
    pub measurements: Vec<SweepMeasurement>,
    /// Cross-run measurement-store counters for this run (all zero when
    /// no store was attached).
    pub store: StoreStats,
}

/// One finished job: the serializable cell, plus the in-memory
/// measurement when the cell was simulated rather than replayed.
struct CellOutcome {
    cell: SweepCell,
    fresh: Option<SweepMeasurement>,
}

/// Execute the job matrix, optionally against a cross-run
/// [`MeasurementStore`]. See the module docs for the orchestration
/// model; errors carry the failing (kernel, shape) context.
///
/// With a store attached, every job first derives its content hash
/// ([`crate::store::cell_key`] over the built kernel bodies, shape,
/// machine config, scale and variant set, salted with
/// [`crate::store::PIPELINE_VERSION`]) and probes the store. A valid
/// entry is merged into the report as-is, flagged
/// [`Cached`]`(true)` — no compilation, no simulation. Missing or
/// invalidated (corrupt, truncated, stale-version) cells run through
/// the normal worker-pool measurement and are written back. Store
/// counters for the run land in [`SweepRun::store`].
pub fn run_sweep(cfg: &SweepConfig, store: Option<&MeasurementStore>) -> Result<SweepRun, String> {
    if cfg.entries.is_empty() || cfg.shapes.is_empty() || cfg.block_scales.is_empty() {
        return Err("sweep config needs at least one kernel, shape and block scale".into());
    }
    if cfg.block_scales.iter().any(|&s| s < 1) {
        return Err("block scales must be >= 1 (a zero scale would measure nothing)".into());
    }
    let wall = std::time::Instant::now();
    let cache = CompileCache::new();
    let jobs = cfg.jobs();
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Result<CellOutcome, String>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();

    let workers = cfg
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
        .clamp(1, jobs.len());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(e, s, c)) = jobs.get(i) else { break };
                let entry = &cfg.entries[e];
                let shape = cfg.shapes[s];
                let scale = cfg.block_scales[c];
                let key = entry.kernel.name();
                let lift =
                    |program: &Program, shape: &CrossbarShape| cache.lift(key, program, shape);
                // Contain panics to the cell: a kernel (or a compile
                // stage under it) that panics must cost exactly one
                // failed measurement, not the worker thread — an
                // unwinding worker would leave every remaining slot
                // unfilled and re-panic the scope join, poisoning the
                // whole sweep. Key derivation builds the kernel, so it
                // lives inside the guard too.
                let outcome = contained(|| -> Result<CellOutcome, String> {
                    let content_key = store.map(|_| {
                        cell_key(
                            entry.kernel,
                            entry.blocks_small * scale,
                            entry.blocks_large * scale,
                            &shape,
                            &cfg.base,
                            scale,
                            cfg.measure_scheduled,
                        )
                    });
                    if let (Some(st), Some(k)) = (store, content_key) {
                        let pipeline = cfg.base.pipeline.name();
                        if let Some(cell) = st.load(k, key, shape.name, scale, pipeline) {
                            return Ok(CellOutcome { cell, fresh: None });
                        }
                    }
                    let opts = MeasureOpts {
                        base: cfg.base.clone(),
                        lift: Some(&lift),
                        scheduled: cfg.measure_scheduled,
                    };
                    let measurement = measure(
                        entry.kernel,
                        entry.blocks_small * scale,
                        entry.blocks_large * scale,
                        &shape,
                        &opts,
                    )?;
                    let fresh = SweepMeasurement { kernel: key, shape, scale, measurement };
                    let cell = SweepCell {
                        shape: shape.name.to_string(),
                        scale,
                        pipeline: cfg.base.pipeline.name().to_string(),
                        record: fresh.measurement.record(),
                    };
                    if let (Some(st), Some(k)) = (store, content_key) {
                        st.save(k, &cell);
                    }
                    Ok(CellOutcome { cell, fresh: Some(fresh) })
                })
                .unwrap_or_else(|msg| Err(format!("panicked: {msg}")))
                .map_err(|err| format!("{key}/shape {}: {err}", shape.name));
                *results[i].lock().expect("result slot poisoned") = Some(outcome);
            });
        }
    });

    let mut measurements = Vec::new();
    let mut cells = Vec::with_capacity(jobs.len());
    for slot in results {
        let outcome = slot
            .into_inner()
            .expect("result slot poisoned")
            .expect("worker pool exited before finishing its jobs")?;
        cells.push(outcome.cell);
        if let Some(fresh) = outcome.fresh {
            measurements.push(fresh);
        }
    }

    Ok(SweepRun {
        report: SweepReport {
            shapes: cfg.shapes.iter().map(ShapeInfo::from).collect(),
            scales: cfg.block_scales.clone(),
            cells,
            cache: cache.stats(),
            wall_nanos: HostNanos(wall.elapsed().as_nanos() as u64),
        },
        measurements,
        store: store.map_or_else(StoreStats::default, MeasurementStore::stats),
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

    /// Dynamic instructions simulated across every cell (each cell runs
    /// the interpreter eight times — four with `measure_scheduled` off —
    /// and this sums what those runs retired).
    pub fn total_sim_instructions(&self) -> u64 {
        self.cells.iter().map(|c| c.record.sim_instructions).sum()
    }

    /// Aggregate simulator throughput over the in-simulator portion of
    /// the sweep: total simulated instructions per host second spent
    /// *inside* `Machine::run`, with time summed across workers — i.e.
    /// the average per-run interpreter rate, independent of how many
    /// workers the sweep ran on (contention can push it below a quiet
    /// single-thread measurement, never above it).
    pub fn sim_ips(&self) -> f64 {
        let in_sim: u64 = self.cells.iter().map(|c| c.record.wall_nanos.0).sum();
        HostNanos(in_sim).per_second(self.total_sim_instructions())
    }

    /// The scheduling contract the v3 `sched_*` columns must satisfy
    /// (single definition for the sweep binary's gate, its `--table`
    /// mode, and the test suite): no cell may run more per-block cycles
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
