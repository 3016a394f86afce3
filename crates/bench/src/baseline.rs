//! The committed per-kernel *simulated-cycles* baseline
//! (`BENCH_cycles.json`) and its gating comparison.
//!
//! Wall-clock throughput is noisy on shared CI runners, so the
//! throughput step stays informational — but scheduled per-block
//! *simulated* cycles are bit-deterministic: the same tree produces the
//! same numbers on every machine, every run. That makes them gateable.
//! CI runs `sweep --check-baseline BENCH_cycles.json`, which gates the
//! report the sweep just produced and **fails** on any cycle regression
//! or coverage change, and the same for the out-of-order model against
//! `BENCH_cycles_ooo.json`; a sweep run with `--write-baseline FILE`
//! regenerates a file when a change legitimately moves the numbers
//! (commit the diff — it *is* the review artifact).
//!
//! A baseline row pins all four per-block cycle counts of one
//! (kernel, shape, scale, pipeline model) cell: unscheduled and
//! scheduled, MMX-only and MMX+SPU. Coverage is compared exactly in
//! both directions — a kernel missing from the report is a lost
//! benchmark, a kernel missing from the baseline is an ungated one;
//! both fail the check. The pipeline model is part of the key, so a
//! report checked against the other model's baseline fails as a
//! coverage change on every cell.

use crate::json::Json;
use crate::sweep::SweepReport;
use std::fmt::Write as _;

/// Schema tag of the committed baseline document.
const SCHEMA: &str = "subword-cycles/v2";

/// One gated cell: the deterministic per-block cycle counts of a
/// (kernel, shape, scale, pipeline model) measurement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleCell {
    /// Kernel name.
    pub kernel: String,
    /// Kernel family name (informational; lets reviewers slice diffs).
    pub family: String,
    /// Crossbar shape name.
    pub shape: String,
    /// Block-count scale.
    pub scale: u64,
    /// Pipeline model the cycles were timed on (the report cell's
    /// `pipeline` column).
    pub pipeline: String,
    /// Unscheduled MMX-only per-block cycles.
    pub baseline: u64,
    /// Unscheduled MMX+SPU per-block cycles.
    pub spu: u64,
    /// List-scheduled MMX-only per-block cycles.
    pub sched_baseline: u64,
    /// List-scheduled MMX+SPU per-block cycles.
    pub sched_spu: u64,
}

impl CycleCell {
    fn key(&self) -> (&str, &str, u64, &str) {
        (&self.kernel, &self.shape, self.scale, &self.pipeline)
    }

    /// The cell's key as diff lines name it.
    fn label(&self) -> String {
        format!("{}/shape {}/scale {}/{}", self.kernel, self.shape, self.scale, self.pipeline)
    }

    fn counters(&self) -> [(&'static str, u64); 4] {
        [
            ("baseline", self.baseline),
            ("spu", self.spu),
            ("sched_baseline", self.sched_baseline),
            ("sched_spu", self.sched_spu),
        ]
    }
}

/// The whole baseline document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CyclesBaseline {
    /// One row per swept (kernel, shape, scale) cell, in report order.
    pub cells: Vec<CycleCell>,
}

/// Outcome of a passing [`CyclesBaseline::check`]: cells that *improved*
/// (got cheaper), worth refreshing the baseline for.
#[derive(Clone, Debug, Default)]
pub struct CheckSummary {
    /// Human-readable improvement notes (empty = bit-identical).
    pub improvements: Vec<String>,
    /// Cells compared.
    pub cells: usize,
}

/// A failing [`CyclesBaseline::check`], split into the two classes a CI
/// log must distinguish: **cycle regressions** (a gated counter got
/// slower — fix the code) and **coverage changes** (cells appeared or
/// disappeared — the baseline no longer describes the sweep; regenerate
/// it if the change is intentional). The two used to fail with one
/// undifferentiated message, which is how a coverage-shaped degradation
/// (SAD silently losing its windowed-shape lifts) could hide behind
/// "baseline violation".
#[derive(Clone, Debug, Default)]
pub struct CheckFailure {
    /// Cells whose gated cycle counters regressed.
    pub regressions: Vec<String>,
    /// Cells present on only one side of the comparison.
    pub coverage: Vec<String>,
}

impl CheckFailure {
    fn is_empty(&self) -> bool {
        self.regressions.is_empty() && self.coverage.is_empty()
    }
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.regressions.is_empty() {
            write!(f, "{} cycle regression(s) — the code got slower:", self.regressions.len())?;
            for r in &self.regressions {
                write!(f, "\n  {r}")?;
            }
        }
        if !self.coverage.is_empty() {
            if !self.regressions.is_empty() {
                writeln!(f)?;
            }
            write!(
                f,
                "{} coverage change(s) — cells added or removed, or a report checked against \
                 the other pipeline model's baseline; if intentional, regenerate with \
                 `sweep --write-baseline`:",
                self.coverage.len()
            )?;
            for c in &self.coverage {
                write!(f, "\n  {c}")?;
            }
        }
        Ok(())
    }
}

impl CyclesBaseline {
    /// Extract the gated cycle counts from a sweep report.
    pub fn from_report(report: &SweepReport) -> CyclesBaseline {
        CyclesBaseline {
            cells: report
                .cells
                .iter()
                .map(|c| CycleCell {
                    kernel: c.record.kernel.clone(),
                    family: c.record.family.name().to_string(),
                    shape: c.shape.clone(),
                    scale: c.scale,
                    pipeline: c.pipeline.clone(),
                    baseline: c.record.baseline_per_block.cycles,
                    spu: c.record.spu_per_block.cycles,
                    sched_baseline: c.record.sched_baseline_per_block.cycles,
                    sched_spu: c.record.sched_spu_per_block.cycles,
                })
                .collect(),
        }
    }

    /// The full comparison both [`CyclesBaseline::check`] and
    /// [`CyclesBaseline::diff_summary`] are views of.
    fn compare(&self, report: &SweepReport) -> (CheckSummary, CheckFailure) {
        let current = CyclesBaseline::from_report(report);
        let mut summary = CheckSummary { cells: self.cells.len(), ..Default::default() };
        let mut failure = CheckFailure::default();
        for base in &self.cells {
            let Some(cur) = current.cells.iter().find(|c| c.key() == base.key()) else {
                failure.coverage.push(format!(
                    "{}: in baseline but not in report (lost coverage)",
                    base.label()
                ));
                continue;
            };
            for ((name, was), (_, now)) in base.counters().into_iter().zip(cur.counters()) {
                match now.cmp(&was) {
                    std::cmp::Ordering::Greater => failure.regressions.push(format!(
                        "{}: {name} per-block cycles regressed {was} -> {now} (+{:.2}%)",
                        base.label(),
                        100.0 * (now - was) as f64 / was.max(1) as f64
                    )),
                    std::cmp::Ordering::Less => summary.improvements.push(format!(
                        "{}: {name} improved {was} -> {now} (-{:.2}%)",
                        base.label(),
                        100.0 * (was - now) as f64 / was.max(1) as f64
                    )),
                    std::cmp::Ordering::Equal => {}
                }
            }
        }
        for cur in &current.cells {
            if !self.cells.iter().any(|b| b.key() == cur.key()) {
                failure
                    .coverage
                    .push(format!("{}: in report but not in baseline (ungated cell)", cur.label()));
            }
        }
        (summary, failure)
    }

    /// Compare a report against this committed baseline. `Err` on any
    /// cycle regression (current > baseline) or coverage mismatch in
    /// either direction — the [`CheckFailure`] keeps the two classes
    /// apart; `Ok` carries the improvement notes.
    pub fn check(&self, report: &SweepReport) -> Result<CheckSummary, CheckFailure> {
        let (summary, failure) = self.compare(report);
        if failure.is_empty() {
            Ok(summary)
        } else {
            Err(failure)
        }
    }

    /// A human-readable diff of `report` against this baseline —
    /// improvements, regressions and coverage changes, pass or fail —
    /// suitable for committing next to a `--write-baseline` refresh or
    /// uploading as a CI artifact.
    pub fn diff_summary(&self, report: &SweepReport) -> String {
        let (summary, failure) = self.compare(report);
        let mut out = format!(
            "cycles baseline diff: {} baseline cell(s) vs {} report cell(s)\n",
            self.cells.len(),
            report.cells.len()
        );
        let section = |out: &mut String, title: &str, lines: &[String]| {
            let _ = writeln!(out, "{} {}:", lines.len(), title);
            for l in lines {
                let _ = writeln!(out, "  {l}");
            }
        };
        section(&mut out, "improvement(s)", &summary.improvements);
        section(&mut out, "cycle regression(s)", &failure.regressions);
        section(&mut out, "coverage change(s)", &failure.coverage);
        if summary.improvements.is_empty() && failure.is_empty() {
            out.push_str("bit-identical to the committed baseline\n");
        }
        out
    }

    /// Serialize to pretty-printed JSON (stable field order, so the
    /// committed file diffs cleanly).
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            (
                "cells".into(),
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("kernel".into(), Json::Str(c.kernel.clone())),
                                ("family".into(), Json::Str(c.family.clone())),
                                ("shape".into(), Json::Str(c.shape.clone())),
                                ("scale".into(), Json::UInt(c.scale)),
                                ("pipeline".into(), Json::Str(c.pipeline.clone())),
                                ("baseline".into(), Json::UInt(c.baseline)),
                                ("spu".into(), Json::UInt(c.spu)),
                                ("sched_baseline".into(), Json::UInt(c.sched_baseline)),
                                ("sched_spu".into(), Json::UInt(c.sched_spu)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_pretty()
    }

    /// Parse a committed baseline document.
    pub fn from_json(text: &str) -> Result<CyclesBaseline, String> {
        let root = Json::parse(text)?;
        let schema = root.field("schema")?.as_str()?;
        if schema != SCHEMA {
            return Err(format!("unsupported cycles-baseline schema `{schema}`"));
        }
        Ok(CyclesBaseline {
            cells: root
                .field("cells")?
                .as_arr()?
                .iter()
                .map(|c| {
                    Ok(CycleCell {
                        kernel: c.field("kernel")?.as_str()?.to_string(),
                        family: c.field("family")?.as_str()?.to_string(),
                        shape: c.field("shape")?.as_str()?.to_string(),
                        scale: c.field("scale")?.as_u64()?,
                        pipeline: c.field("pipeline")?.as_str()?.to_string(),
                        baseline: c.field("baseline")?.as_u64()?,
                        spu: c.field("spu")?.as_u64()?,
                        sched_baseline: c.field("sched_baseline")?.as_u64()?,
                        sched_spu: c.field("sched_spu")?.as_u64()?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, SweepConfig};
    use subword_sim::PipelineKind;
    use subword_spu::SHAPE_A;

    fn report_on(pipeline: PipelineKind) -> SweepReport {
        let mut cfg = SweepConfig::pixel(&[SHAPE_A]);
        cfg.entries.truncate(2); // SAD + YUV
        cfg.base.pipeline = pipeline;
        run_sweep(&cfg, None).unwrap()
    }

    fn small_report() -> SweepReport {
        report_on(PipelineKind::InOrder)
    }

    #[test]
    fn baseline_round_trips_and_self_checks() {
        let report = small_report();
        let base = CyclesBaseline::from_report(&report);
        let parsed = CyclesBaseline::from_json(&base.to_json()).unwrap();
        assert_eq!(parsed, base);
        // A report checks clean against its own baseline, with zero
        // improvement notes (bit-identical numbers).
        let summary = parsed.check(&report).unwrap();
        assert_eq!(summary.cells, report.cells.len());
        assert!(summary.improvements.is_empty());
        // Corrupt documents are rejected.
        assert!(CyclesBaseline::from_json("{}").is_err());
        assert!(CyclesBaseline::from_json(&base.to_json().replace("/v2", "/v1")).is_err());
    }

    #[test]
    fn regressions_and_coverage_changes_fail_improvements_pass() {
        let report = small_report();
        let mut base = CyclesBaseline::from_report(&report);

        // Current slower than baseline: a *cycle regression*, named as
        // such (and never misfiled as a coverage change).
        base.cells[0].sched_spu -= 1;
        let err = base.check(&report).unwrap_err();
        assert_eq!(err.regressions.len(), 1);
        assert!(err.coverage.is_empty());
        let msg = err.to_string();
        assert!(msg.contains("cycle regression"), "{msg}");
        assert!(msg.contains("regressed"), "{msg}");
        assert!(msg.contains("sched_spu"), "{msg}");
        assert!(!msg.contains("coverage change"), "{msg}");

        // Current faster than baseline: passes, but notes the improvement.
        base.cells[0].sched_spu += 2;
        let summary = base.check(&report).unwrap();
        assert_eq!(summary.improvements.len(), 1);
        assert!(summary.improvements[0].contains("improved"));

        // A cell only in the baseline = lost coverage — the *coverage*
        // class, pointing at `--write-baseline`, with zero regressions.
        let mut missing = CyclesBaseline::from_report(&report);
        missing.cells.push(CycleCell {
            kernel: "Ghost".into(),
            family: "pixel".into(),
            shape: "A".into(),
            scale: 1,
            pipeline: "in-order".into(),
            baseline: 1,
            spu: 1,
            sched_baseline: 1,
            sched_spu: 1,
        });
        let err = missing.check(&report).unwrap_err();
        assert!(err.regressions.is_empty());
        assert_eq!(err.coverage.len(), 1);
        let msg = err.to_string();
        assert!(msg.contains("coverage change"), "{msg}");
        assert!(msg.contains("lost coverage"), "{msg}");
        assert!(msg.contains("--write-baseline"), "{msg}");
        assert!(!msg.contains("cycle regression"), "{msg}");

        // A cell only in the report = ungated: also a coverage change.
        let mut ungated = CyclesBaseline::from_report(&report);
        ungated.cells.pop();
        let err = ungated.check(&report).unwrap_err();
        assert!(err.regressions.is_empty());
        assert!(err.to_string().contains("not in baseline"));
    }

    /// The pipeline model is part of a cell's key: a report checked
    /// against the other model's baseline loses every baseline cell and
    /// leaves every report cell ungated — coverage changes only, never
    /// a cycle comparison across models — in both directions.
    #[test]
    fn crossing_pipeline_models_is_a_coverage_change() {
        let inorder = small_report();
        let ooo = report_on(PipelineKind::OutOfOrder);
        let inorder_base = CyclesBaseline::from_report(&inorder);
        let ooo_base = CyclesBaseline::from_report(&ooo);
        for (base, report) in [(&inorder_base, &ooo), (&ooo_base, &inorder)] {
            let err = base.check(report).unwrap_err();
            assert!(err.regressions.is_empty(), "{err}");
            assert_eq!(err.coverage.len(), base.cells.len() + report.cells.len(), "{err}");
        }
        assert!(inorder_base.check(&inorder).is_ok());
        assert!(ooo_base.check(&ooo).is_ok());
    }

    #[test]
    fn diff_summary_covers_all_three_classes() {
        let report = small_report();
        let clean = CyclesBaseline::from_report(&report);
        let diff = clean.diff_summary(&report);
        assert!(diff.contains("bit-identical"), "{diff}");

        let mut skewed = CyclesBaseline::from_report(&report);
        skewed.cells[0].baseline += 5; // report is faster: improvement
        skewed.cells[0].spu -= 1; // report is slower: regression
        skewed.cells.pop(); // report has an ungated cell
        let diff = skewed.diff_summary(&report);
        assert!(diff.contains("1 improvement(s)"), "{diff}");
        assert!(diff.contains("1 cycle regression(s)"), "{diff}");
        assert!(diff.contains("1 coverage change(s)"), "{diff}");
    }
}
