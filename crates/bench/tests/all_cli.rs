//! End-to-end test of the `all` binary: one process prints every paper
//! section under its banner, in the paper's order.

use std::process::Command;

/// The section banners `all` prints, in order.
const SECTIONS: [&str; 7] =
    ["table1", "figure9", "table2", "table3", "ablation_shapes", "energy", "sensitivity"];

fn banner(name: &str) -> String {
    format!("==================== {name} ====================")
}

#[test]
fn all_prints_each_paper_section_once_in_order() {
    let out = Command::new(env!("CARGO_BIN_EXE_all")).output().expect("launch all");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "all failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();

    let mut last = 0;
    for name in SECTIONS {
        let banner = banner(name);
        assert_eq!(stdout.matches(&banner).count(), 1, "`{name}` banner:\n{stdout}");
        let at = stdout.find(&banner).unwrap();
        assert!(at >= last, "`{name}` is out of order:\n{stdout}");
        last = at;
    }
    // The JSON report is the `sweep` binary's product, not a section.
    assert!(!stdout.contains(&banner("sweep")), "{stdout}");
    // No section points at `EXPERIMENTS.md`, a file the repository
    // never had.
    assert!(!stdout.contains("EXPERIMENTS.md"), "{stdout}");
}
