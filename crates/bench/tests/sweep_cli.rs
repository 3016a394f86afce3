//! End-to-end test of the `sweep` binary's one grammar: a sweep run
//! plus flags, whose stdout carries the JSON report and nothing else.

use std::path::{Path, PathBuf};
use std::process::Command;
use subword_bench::baseline::CyclesBaseline;
use subword_bench::sweep::SweepReport;

/// A scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `sweep --family pixel --cache-dir <store> <flag> <file>`;
/// returns the parsed stdout report and the stderr text.
fn sweep_pixel(store: &Path, flag: &str, file: &Path) -> (SweepReport, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--family", "pixel", "--cache-dir"])
        .arg(store)
        .arg(flag)
        .arg(file)
        .output()
        .expect("launch sweep");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "sweep failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let report = SweepReport::from_json(&stdout)
        .unwrap_or_else(|e| panic!("stdout is not one report ({e}):\n{stdout}"));
    (report, stderr)
}

/// `--write-baseline` and `--check-baseline` are flags on a run: the
/// first run writes the baseline, the second replays every cell from
/// the store and gates against it, and neither prints anything but the
/// report on stdout. A poisoned store entry then costs one
/// re-simulation, not the run.
#[test]
fn write_then_check_baseline_on_a_warm_store() {
    let dir = std::env::temp_dir().join(format!("subword-sweep-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let scratch = ScratchDir(dir);
    let store = scratch.0.join("store");
    let baseline = scratch.0.join("b.json");

    let (cold, _) = sweep_pixel(&store, "--write-baseline", &baseline);
    let (warm, stderr) = sweep_pixel(&store, "--check-baseline", &baseline);
    assert_eq!(warm, cold);

    let base = CyclesBaseline::from_json(&std::fs::read_to_string(&baseline).unwrap()).unwrap();
    assert_eq!(base.cells.len(), 16, "4 pixel kernels x 4 shapes");
    assert!(base.cells.iter().all(|c| c.pipeline == "in-order"));
    assert!(stderr.contains("cache-stats: hits=16 misses=0 invalidated=0"), "{stderr}");

    let entry = std::fs::read_dir(&store).unwrap().next().unwrap().unwrap().path();
    std::fs::write(entry, "not json").unwrap();
    let (healed, stderr) = sweep_pixel(&store, "--check-baseline", &baseline);
    assert_eq!(healed, cold);
    assert!(stderr.contains("cache-stats: hits=15 misses=0 invalidated=1"), "{stderr}");
}
