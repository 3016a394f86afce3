//! Persisted repro files: one failing (or regression-pinned) case per
//! small JSON document.
//!
//! Format `subword-fuzz/v1`. The document stores the full [`FuzzCase`]
//! data — not just the seed — so a *minimized* case (which no seed
//! regenerates) replays exactly, plus a free-form `failure` block
//! recording what the case caught when it was written. Serialization
//! goes through [`subword_bench::json`], which keeps `u64` payloads
//! bit-exact.
//!
//! Committed entries live in `crates/fuzz/corpus/` and are replayed by
//! `tests/corpus.rs` on every `cargo test`; fresh failures from a
//! campaign are written by the `fuzz` bin to its `--failures-dir` for
//! triage (CI uploads them as artifacts).

use std::path::{Path, PathBuf};

use subword_bench::json::Json;
use subword_spu::crossbar::CANONICAL_SHAPES;

use crate::gen::{FuzzCase, Step};
use crate::oracle::FuzzFailure;

/// Format tag embedded in (and required of) every repro document.
pub const FORMAT: &str = "subword-fuzz/v1";

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Encode one step as a compact tagged object.
fn encode_step(s: &Step) -> Json {
    let (tag, fields): (&str, Vec<(&str, u64)>) = match *s {
        Step::Mmx { op, dst, src } => {
            ("mmx", vec![("op", op as u64), ("dst", dst as u64), ("src", src as u64)])
        }
        Step::MmxImm { op, dst, imm } => {
            ("mmx-imm", vec![("op", op as u64), ("dst", dst as u64), ("imm", imm as u64)])
        }
        Step::Load { dst, slot } => ("load", vec![("dst", dst as u64), ("slot", slot as u64)]),
        Step::Store { src, slot } => ("store", vec![("src", src as u64), ("slot", slot as u64)]),
        Step::Alu { op, dst, src } => {
            ("alu", vec![("op", op as u64), ("dst", dst as u64), ("src", src as u64)])
        }
        Step::AluImm { op, dst, imm } => (
            "alu-imm",
            // i32 immediates ride as their u32 bit pattern.
            vec![("op", op as u64), ("dst", dst as u64), ("imm", imm as u32 as u64)],
        ),
        Step::MovdFromMm { dst, src } => {
            ("movd-from-mm", vec![("dst", dst as u64), ("src", src as u64)])
        }
        Step::MovdToMm { dst, src } => {
            ("movd-to-mm", vec![("dst", dst as u64), ("src", src as u64)])
        }
        Step::RouteSpan { far, tmp, acc } => {
            ("route-span", vec![("far", far as u64), ("tmp", tmp as u64), ("acc", acc as u64)])
        }
        Step::MmioStore { ctx, off, imm } => {
            ("mmio-store", vec![("ctx", ctx as u64), ("off", off as u64), ("imm", imm as u64)])
        }
    };
    let mut members = vec![("t", Json::Str(tag.to_string()))];
    members.extend(fields.into_iter().map(|(k, v)| (k, Json::UInt(v))));
    obj(members)
}

fn decode_step(v: &Json) -> Result<Step, String> {
    let u8_of = |key: &str| v.narrow::<u8>(key);
    match v.field("t")?.as_str()? {
        "mmx" => Ok(Step::Mmx { op: u8_of("op")?, dst: u8_of("dst")?, src: u8_of("src")? }),
        "mmx-imm" => Ok(Step::MmxImm { op: u8_of("op")?, dst: u8_of("dst")?, imm: u8_of("imm")? }),
        "load" => Ok(Step::Load { dst: u8_of("dst")?, slot: u8_of("slot")? }),
        "store" => Ok(Step::Store { src: u8_of("src")?, slot: u8_of("slot")? }),
        "alu" => Ok(Step::Alu { op: u8_of("op")?, dst: u8_of("dst")?, src: u8_of("src")? }),
        "alu-imm" => Ok(Step::AluImm {
            op: u8_of("op")?,
            dst: u8_of("dst")?,
            // The u32 bit pattern `encode_step` wrote.
            imm: v.narrow::<u32>("imm")? as i32,
        }),
        "movd-from-mm" => Ok(Step::MovdFromMm { dst: u8_of("dst")?, src: u8_of("src")? }),
        "movd-to-mm" => Ok(Step::MovdToMm { dst: u8_of("dst")?, src: u8_of("src")? }),
        "route-span" => {
            Ok(Step::RouteSpan { far: u8_of("far")?, tmp: u8_of("tmp")?, acc: u8_of("acc")? })
        }
        "mmio-store" => {
            Ok(Step::MmioStore { ctx: u8_of("ctx")?, off: u8_of("off")?, imm: v.narrow("imm")? })
        }
        other => Err(format!("unknown step tag `{other}`")),
    }
}

/// Encode a case (with optional failure metadata) as a repro document.
pub fn encode(case: &FuzzCase, failure: Option<&FuzzFailure>) -> Json {
    let mut members = vec![
        ("format", Json::Str(FORMAT.to_string())),
        ("seed", Json::UInt(case.seed)),
        ("shape", Json::UInt(case.shape as u64)),
        ("trips", Json::UInt(case.trips)),
        (
            "split",
            match case.split {
                Some(k) => Json::UInt(k as u64),
                None => Json::Null,
            },
        ),
        ("mm_init", Json::Arr(case.mm_init.iter().map(|v| Json::UInt(*v)).collect())),
        ("mem_seed", Json::UInt(case.mem_seed)),
        ("steps", Json::Arr(case.steps.iter().map(encode_step).collect())),
    ];
    if let Some(f) = failure {
        members.push((
            "failure",
            obj(vec![
                ("kind", Json::Str(f.kind.tag().to_string())),
                ("stage", Json::Str(f.stage.clone())),
                ("detail", Json::Str(f.detail.clone())),
            ]),
        ));
    }
    obj(members)
}

/// Decode a repro document back into a case.
pub fn decode(doc: &Json) -> Result<FuzzCase, String> {
    if doc.field("format")?.as_str()? != FORMAT {
        return Err(format!("unsupported format (want `{FORMAT}`)"));
    }
    let mm = doc.field("mm_init")?.as_arr()?;
    if mm.len() != 8 {
        return Err(format!("mm_init has {} entries, want 8", mm.len()));
    }
    let mut mm_init = [0u64; 8];
    for (slot, v) in mm_init.iter_mut().zip(mm) {
        *slot = v.as_u64()?;
    }
    let steps = doc
        .field("steps")?
        .as_arr()?
        .iter()
        .enumerate()
        .map(|(i, step)| decode_step(step).map_err(|e| format!("step {i}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let shape: u8 = doc.narrow("shape")?;
    if usize::from(shape) >= CANONICAL_SHAPES.len() {
        let n = CANONICAL_SHAPES.len();
        return Err(format!("field `shape`: {shape} names no canonical shape (want below {n})"));
    }
    // The loop counter is a 32-bit register, and a zero count would wrap
    // it into a 2^32-trip loop.
    let trips: u32 = doc.narrow("trips")?;
    if trips == 0 {
        return Err("field `trips`: a loop runs at least once".to_string());
    }
    let mut case = FuzzCase {
        seed: doc.field("seed")?.as_u64()?,
        shape,
        trips: trips.into(),
        split: match doc.field("split")? {
            Json::Null => None,
            _ => Some(doc.narrow("split")?),
        },
        steps,
        mm_init,
        mem_seed: doc.field("mem_seed")?.as_u64()?,
    };
    case.normalize();
    Ok(case)
}

/// Parse a repro file's text.
pub fn parse(text: &str) -> Result<FuzzCase, String> {
    decode(&Json::parse(text)?)
}

/// Canonical file name for a case's repro (keyed by originating seed).
pub fn file_name(case: &FuzzCase) -> String {
    format!("seed-{:016x}.json", case.seed)
}

/// Write a repro file under `dir`; returns the path written.
pub fn write_repro(
    dir: &Path,
    case: &FuzzCase,
    failure: Option<&FuzzFailure>,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file_name(case));
    let mut text = encode(case, failure).to_pretty();
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Load every `.json` repro under `dir`, sorted by file name. Returns
/// `(path, case)` pairs; a malformed file is an error naming it.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, FuzzCase)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            let case = parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok((p, case))
        })
        .collect()
}
