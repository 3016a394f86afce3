//! Cross-run content-addressed measurement store (DESIGN.md §13).
//!
//! Every simulated quantity in a sweep cell is bit-deterministic: the
//! same (kernel body, crossbar shape, machine config, block scale,
//! variant set) produces the same [`MeasurementRecord`] on every
//! machine, every run. That makes a measurement *provably* reusable —
//! not heuristically, by mtime or tree state, but by content hash over
//! the measurement's actual inputs. This module persists records under
//! a `--cache-dir`, keyed by that hash, so repeated sweeps (and above
//! all the gating `sweep --check-baseline` CI step) re-simulate only
//! cells whose inputs changed.
//!
//! The key covers, via [`cell_key`]:
//!
//! * a **pipeline-version salt** ([`PIPELINE_VERSION`]) — builders bump
//!   it whenever compile or simulation *semantics* change, so a stale
//!   measurement can never masquerade as a current one even though no
//!   hashed input byte moved;
//! * the canonical body bytes of both built block-count variants
//!   ([`subword_isa::asm::canonical_bytes`] — derived from the encode
//!   tables the assembler round-trips), plus their memory/register
//!   initialisation and golden outputs;
//! * the crossbar shape, every settable [`MachineConfig`] value (engine
//!   and pipeline model included), the block scale and the variant set
//!   (`measure_scheduled`). The out-of-order core's structure sizes are
//!   constants of the simulator, not configuration, so they are not
//!   key inputs: changing one is a simulation-semantics change and
//!   bumps the salt.
//!
//! Entries live one-per-file as `<key>.json` and are published by
//! atomic rename. A corrupted, truncated, foreign-schema or
//! stale-version entry is **discarded and re-simulated, never fatal**:
//! the store is a pure accelerator, and deleting the directory must
//! always be a safe (if slow) recovery.
//!
//! [`MeasurementRecord`]: subword_kernels::framework::MeasurementRecord

use crate::json::Json;
use crate::sweep::{cell_from_json, cell_to_json, SweepCell};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use subword_isa::asm::canonical_bytes;
use subword_kernels::framework::{Cached, Kernel};
use subword_sim::MachineConfig;
use subword_spu::crossbar::CrossbarShape;

/// The pipeline-version salt folded into every [`cell_key`].
///
/// **Bump this constant whenever compile or simulation semantics
/// change** — a new scheduler decision, a fixed cycle-accounting bug, a
/// changed issue rule — i.e. whenever the same hashed inputs would now
/// measure differently. The hashed inputs only cover *what* is
/// measured; this salt covers *how*. A bump orphans every existing
/// store entry (their keys can no longer be derived), which is exactly
/// the point. CI keys its persisted cache directory on this value too,
/// so stale directories stop being restored at all.
pub const PIPELINE_VERSION: u32 = 2;

/// Incremental FNV-1a/64 hasher (vendored constants; the container has
/// no crates.io access, and 64 bits is plenty for a cache key where a
/// collision costs one wrong-measurement risk per ~2^32 entries —
/// guarded further by the entry's recorded kernel/shape/scale).
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(Self::OFFSET_BASIS)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a length-prefixed byte string (the prefix keeps
    /// concatenated variable-length fields from aliasing each other).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write(bytes);
    }

    /// Absorb a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// Content hash identifying one sweep cell; doubles as the store entry
/// file name (16 lowercase hex digits).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CellKey(pub u64);

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// [`cell_key`] under the current [`PIPELINE_VERSION`]. `blocks_small`
/// and `blocks_large` are the *scaled* counts the measurement actually
/// runs (entry counts × scale), matching what lands in the record.
/// `base` contributes all ten of its values; the out-of-order core's
/// sizes are simulator constants, which the salt stands for.
pub fn cell_key(
    kernel: &dyn Kernel,
    blocks_small: u64,
    blocks_large: u64,
    shape: &CrossbarShape,
    base: &MachineConfig,
    scale: u64,
    measure_scheduled: bool,
) -> CellKey {
    cell_key_salted(
        kernel,
        blocks_small,
        blocks_large,
        shape,
        base,
        scale,
        measure_scheduled,
        PIPELINE_VERSION,
    )
}

/// The full key derivation with an explicit version salt — public so
/// the invalidation tests can prove the salt participates; production
/// callers go through [`cell_key`].
#[allow(clippy::too_many_arguments)]
pub fn cell_key_salted(
    kernel: &dyn Kernel,
    blocks_small: u64,
    blocks_large: u64,
    shape: &CrossbarShape,
    base: &MachineConfig,
    scale: u64,
    measure_scheduled: bool,
    pipeline_version: u32,
) -> CellKey {
    KernelDigest::new(
        kernel,
        blocks_small,
        blocks_large,
        scale,
        measure_scheduled,
        pipeline_version,
    )
    .key(shape, base)
}

/// What the [`cell_key`]s of one kernel at one scale share: the hash
/// state after the salt, the identity fields and both builds, which
/// [`KernelDigest::key`] continues with a shape and a machine config. A
/// sweep's probe builds each kernel twice per scale this way, not twice
/// per cell.
pub(crate) struct KernelDigest(u64);

impl KernelDigest {
    /// The digest under the version salt `pipeline_version`.
    pub(crate) fn new(
        kernel: &dyn Kernel,
        blocks_small: u64,
        blocks_large: u64,
        scale: u64,
        measure_scheduled: bool,
        pipeline_version: u32,
    ) -> KernelDigest {
        let mut h = Fnv64::new();
        h.write_str("subword-store");
        h.write_u64(pipeline_version as u64);
        h.write_str(kernel.name());
        h.write_str(kernel.family().name());
        h.write_u64(blocks_small);
        h.write_u64(blocks_large);
        h.write_u64(scale);
        h.write_u64(measure_scheduled as u64);
        // Both block-count variants in full: canonical body bytes plus the
        // machine-state initialisation and golden outputs the measurement
        // checks against. A changed workload generator or refimpl changes
        // the goldens, hence the key, even when the program body is
        // untouched.
        for blocks in [blocks_small, blocks_large] {
            let build = kernel.build(blocks);
            h.write_bytes(&canonical_bytes(&build.program));
            h.write_u64(build.setup.mem_init.len() as u64);
            for (addr, bytes) in &build.setup.mem_init {
                h.write_u64(*addr as u64);
                h.write_bytes(bytes);
            }
            h.write_u64(build.setup.reg_init.len() as u64);
            for (r, v) in &build.setup.reg_init {
                h.write_str(&format!("{r:?}"));
                h.write_u64(*v as u64);
            }
            h.write_u64(build.setup.mm_init.len() as u64);
            for (r, v) in &build.setup.mm_init {
                h.write_str(&format!("{r:?}"));
                h.write_u64(*v);
            }
            h.write_u64(build.setup.outputs.len() as u64);
            for (addr, len) in &build.setup.outputs {
                h.write_u64(*addr as u64);
                h.write_u64(*len as u64);
            }
            h.write_u64(build.expected.len() as u64);
            for (addr, bytes) in &build.expected {
                h.write_u64(*addr as u64);
                h.write_bytes(bytes);
            }
        }
        KernelDigest(h.finish())
    }

    /// The key of the cell under `shape` on `base`-configured machines.
    pub(crate) fn key(&self, shape: &CrossbarShape, base: &MachineConfig) -> CellKey {
        let mut h = Fnv64(self.0);
        hash_shape(&mut h, shape);
        // Every MachineConfig field participates: any micro-architectural
        // parameter shifts the simulated numbers.
        h.write_u64(base.mispredict_penalty);
        h.write_u64(base.spu_fitted as u64);
        hash_shape(&mut h, &base.crossbar);
        h.write_u64(base.mmx_mul_latency);
        h.write_u64(base.scalar_mul_latency);
        h.write_u64(base.max_cycles);
        h.write_u64(base.btb_entries as u64);
        h.write_str(&format!("{:?}", base.predictor_kind));
        h.write_str(&format!("{:?}", base.engine));
        h.write_str(base.pipeline.name());
        CellKey(h.finish())
    }
}

fn hash_shape(h: &mut Fnv64, shape: &CrossbarShape) {
    h.write_str(shape.name);
    h.write_u64(shape.in_ports as u64);
    h.write_u64(shape.out_ports as u64);
    h.write_u64(shape.port_bits as u64);
}

/// Per-run store counters, printed by every `sweep --cache-dir` run as
/// its `cache-stats:` line. A fully warm run on an unchanged tree shows
/// `misses == invalidated == 0`: nothing was re-simulated. Every lookup
/// counts once, so the three sum to the run's cell count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Cells served from a valid store entry (not re-simulated).
    pub hits: u64,
    /// Cells with no store entry (simulated and written back).
    pub misses: u64,
    /// Entries that existed but were discarded — corrupted, truncated,
    /// wrong schema/version/key — and re-simulated.
    pub invalidated: u64,
}

/// Schema tag of one store entry file.
const ENTRY_SCHEMA: &str = "subword-store/v1";

/// A persistent, content-addressed measurement store rooted at a cache
/// directory. See the module docs for the layout and invalidation
/// rules; [`crate::sweep::run_sweep`] is the consumer.
pub struct MeasurementStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
}

impl MeasurementStore {
    /// Open (creating if needed) the store at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<MeasurementStore, String> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("create cache dir {}: {e}", dir.display()))?;
        Ok(MeasurementStore {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: CellKey) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Look up the cell stored under `key`. The expected
    /// (kernel, shape, scale, pipeline) identity is cross-checked
    /// against the entry's own record: a hash collision or a
    /// hand-misfiled entry is treated exactly like corruption. Returns
    /// the record flagged [`Cached`]`(true)`; `None` (counted as miss
    /// or invalidation) means the caller must simulate.
    pub fn load(
        &self,
        key: CellKey,
        kernel: &str,
        shape: &str,
        scale: u64,
        pipeline: &str,
    ) -> Option<SweepCell> {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match parse_entry(&text, key, kernel, shape, scale, pipeline) {
            Ok(cell) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(cell)
            }
            Err(why) => {
                // Anything unreadable is discarded and re-simulated —
                // a poisoned entry must cost one simulation, not the
                // sweep.
                self.invalidated.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(&path);
                eprintln!("sweep store: discarding {}: {why}", path.display());
                None
            }
        }
    }

    /// Persist a freshly simulated cell under `key`. Best-effort: a
    /// write failure (read-only directory, disk full) costs the cache
    /// entry, never the sweep.
    pub fn save(&self, key: CellKey, cell: &SweepCell) {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str(ENTRY_SCHEMA.into())),
            ("pipeline_version".into(), Json::UInt(PIPELINE_VERSION as u64)),
            ("key".into(), Json::Str(key.to_string())),
            ("cell".into(), cell_to_json(cell)),
        ])
        .to_pretty();
        let path = self.entry_path(key);
        // Atomic-rename publish: readers (parallel CI shards, a
        // concurrent sweep) can never observe a half-written entry
        // under the final name.
        let tmp = self.dir.join(format!("{key}.tmp.{}", std::process::id()));
        let written = std::fs::write(&tmp, doc).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            eprintln!("sweep store: write {} failed: {e} (cell stays uncached)", path.display());
        }
    }

    /// This run's counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
        }
    }
}

/// Validate and decode one entry document against the expected key and
/// cell identity. Every failure mode funnels into the same
/// discard-and-resimulate path in [`MeasurementStore::load`].
fn parse_entry(
    text: &str,
    key: CellKey,
    kernel: &str,
    shape: &str,
    scale: u64,
    pipeline: &str,
) -> Result<SweepCell, String> {
    let root = Json::parse(text)?;
    let schema = root.field("schema")?.as_str()?;
    if schema != ENTRY_SCHEMA {
        return Err(format!("unsupported store schema `{schema}`"));
    }
    let version = root.field("pipeline_version")?.as_u64()?;
    if version != PIPELINE_VERSION as u64 {
        return Err(format!("pipeline version {version} (current is {PIPELINE_VERSION})"));
    }
    let stored = root.field("key")?.as_str()?;
    if stored != key.to_string() {
        return Err(format!("key mismatch: entry records {stored}, expected {key}"));
    }
    let mut cell = cell_from_json(root.field("cell")?)?;
    if cell.kernel() != kernel
        || cell.shape != shape
        || cell.scale != scale
        || cell.pipeline != pipeline
    {
        return Err(format!(
            "entry is {}/shape {}/scale {}/{}, wanted {kernel}/shape {shape}/scale {scale}/{pipeline}",
            cell.kernel(),
            cell.shape,
            cell.scale,
            cell.pipeline
        ));
    }
    cell.record.cached = Cached(true);
    Ok(cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subword_kernels::suite::dotprod_example;

    #[test]
    fn fnv1a_64_reference_vectors() {
        // Published FNV-1a/64 vectors — the constants, not just the
        // structure, are pinned.
        let digest = |s: &str| {
            let mut h = Fnv64::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn length_prefix_prevents_field_aliasing() {
        let mut ab_c = Fnv64::new();
        ab_c.write_str("ab");
        ab_c.write_str("c");
        let mut a_bc = Fnv64::new();
        a_bc.write_str("a");
        a_bc.write_str("bc");
        assert_ne!(ab_c.finish(), a_bc.finish());
    }

    #[test]
    fn cell_key_is_stable_and_input_sensitive() {
        let e = dotprod_example();
        let cfg = MachineConfig::default();
        let shape_a = subword_spu::SHAPE_A;
        let base = cell_key(e.kernel, e.blocks_small, e.blocks_large, &shape_a, &cfg, 1, true);
        // Deterministic: recomputing yields the same key.
        assert_eq!(
            base,
            cell_key(e.kernel, e.blocks_small, e.blocks_large, &shape_a, &cfg, 1, true)
        );
        // Pinned, so that a store filled by an earlier build keeps
        // serving: a change here orphans every stored entry.
        assert_eq!(base.to_string(), "502bfb521df23849");
        // Each input dimension moves the key.
        let shape = cell_key(
            e.kernel,
            e.blocks_small,
            e.blocks_large,
            &subword_spu::SHAPE_D,
            &cfg,
            1,
            true,
        );
        let scale =
            cell_key(e.kernel, e.blocks_small * 2, e.blocks_large * 2, &shape_a, &cfg, 2, true);
        let variants = cell_key(e.kernel, e.blocks_small, e.blocks_large, &shape_a, &cfg, 1, false);
        let engine = {
            let cfg = MachineConfig {
                engine: subword_sim::ExecEngine::Decoded,
                ..MachineConfig::default()
            };
            cell_key(e.kernel, e.blocks_small, e.blocks_large, &shape_a, &cfg, 1, true)
        };
        let latency = {
            let cfg = MachineConfig { mmx_mul_latency: 4, ..MachineConfig::default() };
            cell_key(e.kernel, e.blocks_small, e.blocks_large, &shape_a, &cfg, 1, true)
        };
        // The pipeline-model axis must move the key: an out-of-order
        // measurement can never be served from an in-order entry.
        let pipeline = {
            let cfg = MachineConfig {
                pipeline: subword_sim::PipelineKind::OutOfOrder,
                ..MachineConfig::default()
            };
            cell_key(e.kernel, e.blocks_small, e.blocks_large, &shape_a, &cfg, 1, true)
        };
        let salted = cell_key_salted(
            e.kernel,
            e.blocks_small,
            e.blocks_large,
            &shape_a,
            &cfg,
            1,
            true,
            PIPELINE_VERSION + 1,
        );
        let keys = [base, shape, scale, variants, engine, latency, pipeline, salted];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "key dimensions {i} and {j} collide");
                }
            }
        }
    }

    #[test]
    fn cell_key_display_is_16_hex_digits() {
        assert_eq!(CellKey(0).to_string(), "0000000000000000");
        assert_eq!(CellKey(u64::MAX).to_string(), "ffffffffffffffff");
        assert_eq!(CellKey(0xdead_beef).to_string(), "00000000deadbeef");
    }
}
