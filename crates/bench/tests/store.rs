//! Integration tests of the cross-run measurement store (DESIGN.md
//! §13): replayed reports must equal simulated ones, the content key
//! must chase every measurement input, and a poisoned entry must cost
//! exactly one re-simulation — never the sweep.

use subword_bench::store::{cell_key, MeasurementStore, StoreStats};
use subword_bench::sweep::{run_sweep, SweepConfig, SweepReport};
use subword_isa::program::LoopInfo;
use subword_kernels::framework::{Kernel, KernelBuild};
use subword_kernels::suite::{dotprod_example, Family};
use subword_sim::MachineConfig;
use subword_spu::{SHAPE_A, SHAPE_D};

/// A scratch store directory, removed on drop so failed assertions
/// don't leak state into later runs of the same test binary.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("subword-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A small two-kernel, two-shape, two-scale matrix — big enough to
/// exercise replay across every axis, small enough to simulate twice.
fn small_config() -> SweepConfig {
    let mut cfg = SweepConfig::paper(&[SHAPE_A, SHAPE_D]);
    cfg.entries.truncate(2);
    cfg.block_scales = vec![1, 2];
    cfg
}

/// Sweep `cfg` against a store freshly opened at `dir`: the report and
/// the store's counters for this one run.
fn sweep(cfg: &SweepConfig, dir: &std::path::Path) -> (SweepReport, StoreStats) {
    let store = MeasurementStore::open(dir).unwrap();
    let report = run_sweep(cfg, Some(&store)).unwrap();
    (report, store.stats())
}

/// Cells this run simulated rather than replayed from the store.
fn simulated(report: &SweepReport) -> usize {
    report.cells.iter().filter(|c| !c.record.cached.0).count()
}

/// (a) A warm store replays every cell — zero simulations — and the
/// replayed report equals the cold one.
#[test]
fn warm_store_replays_the_cold_report_exactly() {
    let scratch = ScratchDir::new("warm");
    let cfg = small_config();
    let cells = cfg.entries.len() * 2 * 2; // kernels x shapes x scales

    let (cold, cold_stats) = sweep(&cfg, &scratch.0);
    assert_eq!(cold_stats.hits, 0, "first run over an empty store replays nothing");
    assert_eq!(cold_stats.misses, cells as u64);
    assert_eq!(cold_stats.invalidated, 0);
    assert_eq!(simulated(&cold), cells);
    assert!(cold.cells.iter().all(|c| !c.record.cached.0));
    // Two lifts per simulated cell (exact hit/miss split varies: the
    // two scales of a kernel share a cache key).
    let lifts = cold.cache.hits + cold.cache.misses;
    assert_eq!(lifts, 2 * cells as u64);
    let in_cells: u64 = cold.cells.iter().map(|c| c.record.sim_instructions).sum();
    assert!(in_cells > 0);
    assert_eq!(cold.total_sim_instructions(), in_cells);
    assert!(cold.sim_ips().is_some());

    let (warm, warm_stats) = sweep(&cfg, &scratch.0);
    assert_eq!(warm_stats.hits, cells as u64, "unchanged tree: every cell replays");
    assert_eq!(warm_stats.misses, 0);
    assert_eq!(warm_stats.invalidated, 0);
    assert_eq!(simulated(&warm), 0, "nothing was simulated");
    assert!(warm.cells.iter().all(|c| c.record.cached.0));
    let lifts = warm.cache.hits + warm.cache.misses;
    assert_eq!(lifts, 0, "replayed cells compile nothing");
    // The throughput line counts simulated cells only: a replayed cell
    // keeps the instructions and wall clock of the run that stored it,
    // and neither may count as this run's work.
    assert_eq!(warm.total_sim_instructions(), 0, "nothing was simulated");
    assert_eq!(warm.sim_ips(), None, "no rate without a simulated cell");

    // The replayed report equals the simulated one — including, by
    // hand, the equality-exempt per-cell wall clocks and the ordering.
    assert_eq!(warm, cold);
    for (w, c) in warm.cells.iter().zip(&cold.cells) {
        assert_eq!(w.kernel(), c.kernel());
        assert_eq!(w.shape, c.shape);
        assert_eq!(w.scale, c.scale);
        assert_eq!(w.record.wall_nanos.0, c.record.wall_nanos.0, "{}", w.kernel());
    }

    // And the storeless sweep still agrees with both.
    assert_eq!(run_sweep(&cfg, None).unwrap(), cold);
}

/// A kernel wrapper that perturbs one measurement input of the wrapped
/// build — standing in for an edited kernel source file.
struct Perturbed {
    mutate: fn(&mut KernelBuild),
}

impl Kernel for Perturbed {
    fn name(&self) -> &'static str {
        "DotProd" // same name as the wrapped kernel: the *content* must differ
    }
    fn family(&self) -> Family {
        Family::Paper
    }
    fn build(&self, blocks: u64) -> KernelBuild {
        let mut build = dotprod_example().kernel.build(blocks);
        (self.mutate)(&mut build);
        build
    }
}

/// (b) The content key chases the measurement inputs the config-axis
/// unit tests can't reach: program body, loop metadata, machine-state
/// init and golden outputs. Kernels that *present* identically (same
/// name, family, block counts) but differ in content must never share a
/// key.
#[test]
fn cell_key_tracks_kernel_body_setup_and_goldens() {
    let e = dotprod_example();
    let cfg = MachineConfig::default();
    let key = |k: &dyn Kernel| cell_key(k, e.blocks_small, e.blocks_large, &SHAPE_A, &cfg, 1, true);

    let body = Perturbed {
        // An extra loop record changes the canonical body bytes even
        // though the instruction stream is untouched.
        mutate: |b| b.program.loops.push(LoopInfo { head: 0, back_edge: 0, trip_count: Some(7) }),
    };
    let setup = Perturbed { mutate: |b| b.setup.mem_init[0].1[0] ^= 0xff };
    let golden = Perturbed { mutate: |b| b.expected[0].1[0] ^= 0xff };
    let identity = Perturbed { mutate: |_| {} };

    let keys = [key(e.kernel), key(&body), key(&setup), key(&golden)];
    for (i, a) in keys.iter().enumerate() {
        for (j, b) in keys.iter().enumerate() {
            if i != j {
                assert_ne!(a, b, "perturbations {i} and {j} share a key");
            }
        }
    }
    // The wrapper itself is invisible: an identity perturbation keys
    // identically to the wrapped kernel.
    assert_eq!(key(e.kernel), key(&identity));
}

/// (c) Poisoned entries — truncated, garbage, stale pipeline version —
/// are discarded and re-simulated: the sweep still succeeds, the report
/// still equals the cold one, and the rewritten entries serve the next
/// run.
#[test]
fn corrupted_entries_are_resimulated_not_trusted_and_not_fatal() {
    let scratch = ScratchDir::new("corrupt");
    let mut cfg = small_config();
    cfg.block_scales = vec![1]; // 2 kernels x 2 shapes = 4 entries
    let cells = cfg.entries.len() * 2;

    let (cold, _) = sweep(&cfg, &scratch.0);
    let mut entries: Vec<std::path::PathBuf> =
        std::fs::read_dir(&scratch.0).unwrap().map(|f| f.unwrap().path()).collect();
    entries.sort();
    assert_eq!(entries.len(), cells);

    // Poison three of the four entries, one per failure mode.
    let text = std::fs::read_to_string(&entries[0]).unwrap();
    std::fs::write(&entries[0], &text[..text.len() / 2]).unwrap(); // truncated
    std::fs::write(&entries[1], "not json at all").unwrap(); // garbage
    let text = std::fs::read_to_string(&entries[2]).unwrap();
    let skewed = text.replace("\"pipeline_version\": 2", "\"pipeline_version\": 999");
    assert_ne!(skewed, text, "version-skew rewrite must hit");
    std::fs::write(&entries[2], skewed).unwrap(); // stale pipeline version

    let (warm, warm_stats) = sweep(&cfg, &scratch.0);
    assert_eq!(warm_stats.invalidated, 3, "each poisoned entry is discarded");
    assert_eq!(warm_stats.hits, cells as u64 - 3, "the intact entry still replays");
    assert_eq!(warm_stats.misses, 0);
    assert_eq!(simulated(&warm), 3, "discarded cells are re-simulated");
    assert_eq!(warm, cold, "poisoned entries never leak into results");

    // Re-simulation wrote the entries back: a third run is fully warm.
    let (third, third_stats) = sweep(&cfg, &scratch.0);
    assert_eq!(third_stats.hits, cells as u64);
    assert_eq!(third_stats.invalidated, 0);
    assert_eq!(third, cold);
}
