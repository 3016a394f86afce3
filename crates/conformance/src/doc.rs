//! Markdown harvesting: turn a literate spec page into executable
//! cases.
//!
//! A page is ordinary GitHub-flavored markdown. The harvester looks for
//! fenced ```` ```asm ```` blocks whose *next* fenced block is
//! ```` ```expect ````; each such pair is one conformance case. An
//! `asm` block with no following `expect` block is a plain example and
//! is skipped — unless it carries a `name=` option, which marks intent
//! to be a case and makes the missing `expect` block an error.
//!
//! ## `asm` fence options
//!
//! The fence info string holds space-separated options after the `asm`
//! tag:
//!
//! * `name=<slug>` — case name used in failure messages (default
//!   `case-<n>`, numbered per page).
//! * `shape=A|B|C|D` — crossbar shape the machine is fitted with
//!   (default `A`).
//! * `variants=sched,lift` (or `all`) — additionally run the program
//!   through the compile pipeline: `sched` checks the list-scheduled
//!   program, `lift` requires the permute-lifting pass to transform a
//!   loop and checks the lifted and scheduled-lifted programs. Each
//!   variant checks the expect keys its row of the exemption table on
//!   [`Variant`] compares against the baseline.
//!
//! ## Init directives
//!
//! Inside the `asm` body, lines starting with `;!` set initial state.
//! They are comments to the assembler, so the block remains verbatim
//! assemblable:
//!
//! ```text
//! ;! mm0 = 0x7fff00018000fffe
//! ;! r4 = 64
//! ;! mem[0x10000] = i16: 30000 -30000 5 -5
//! ```
//!
//! ## `expect` entries
//!
//! One `key = value` per line (`#` comments allowed). Keys: `mmN`,
//! `rN`, `mem[<addr>]`, any [`SimStats`] counter name, or a derived
//! rate (compared at 3 decimal places). A value of `?` (per-element
//! for memory) is a placeholder that `conformance --update` fills in
//! from the Reference engine.
//!
//! [`SimStats`]: subword_sim::stats::SimStats

pub use subword_compile::verify::Variant;
use subword_sim::stats::SimStats;

/// Element encoding of a `mem[..]` value list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemFormat {
    /// Unsigned bytes, decimal.
    U8,
    /// Signed 16-bit little-endian words, decimal.
    I16,
    /// Unsigned 32-bit little-endian words, decimal.
    U32,
    /// Signed 32-bit little-endian words, decimal.
    I32,
    /// 64-bit little-endian words, hex (`0x` + 16 digits).
    U64,
    /// Raw bytes as two-digit hex pairs.
    Hex,
}

impl MemFormat {
    /// Parse the format tag before the `:` in a memory value.
    pub fn parse(s: &str) -> Option<MemFormat> {
        Some(match s {
            "u8" => MemFormat::U8,
            "i16" => MemFormat::I16,
            "u32" => MemFormat::U32,
            "i32" => MemFormat::I32,
            "u64" => MemFormat::U64,
            "hex" => MemFormat::Hex,
            _ => return None,
        })
    }

    /// The tag [`MemFormat::parse`] accepts.
    pub fn tag(self) -> &'static str {
        match self {
            MemFormat::U8 => "u8",
            MemFormat::I16 => "i16",
            MemFormat::U32 => "u32",
            MemFormat::I32 => "i32",
            MemFormat::U64 => "u64",
            MemFormat::Hex => "hex",
        }
    }

    /// Bytes per element.
    pub fn width(self) -> usize {
        match self {
            MemFormat::U8 | MemFormat::Hex => 1,
            MemFormat::I16 => 2,
            MemFormat::U32 | MemFormat::I32 => 4,
            MemFormat::U64 => 8,
        }
    }

    /// Parse one element token to its little-endian bytes.
    pub fn elem_bytes(self, tok: &str) -> Option<Vec<u8>> {
        Some(match self {
            MemFormat::U8 => vec![parse_u64(tok).filter(|v| *v <= u8::MAX as u64)? as u8],
            MemFormat::Hex => {
                if tok.len() != 2 {
                    return None;
                }
                vec![u8::from_str_radix(tok, 16).ok()?]
            }
            MemFormat::I16 => {
                let v = parse_i64(tok)?;
                i16::try_from(v).ok()?.to_le_bytes().to_vec()
            }
            MemFormat::U32 => {
                (parse_u64(tok).filter(|v| *v <= u32::MAX as u64)? as u32).to_le_bytes().to_vec()
            }
            MemFormat::I32 => {
                let v = parse_i64(tok)?;
                i32::try_from(v).ok()?.to_le_bytes().to_vec()
            }
            MemFormat::U64 => parse_u64(tok)?.to_le_bytes().to_vec(),
        })
    }

    /// Render a byte range as element tokens (inverse of
    /// [`MemFormat::elem_bytes`]).
    pub fn render(self, bytes: &[u8]) -> String {
        let mut out = Vec::new();
        for chunk in bytes.chunks(self.width()) {
            out.push(match self {
                MemFormat::U8 => chunk[0].to_string(),
                MemFormat::Hex => format!("{:02x}", chunk[0]),
                MemFormat::I16 => i16::from_le_bytes([chunk[0], chunk[1]]).to_string(),
                MemFormat::U32 => {
                    u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]).to_string()
                }
                MemFormat::I32 => {
                    i32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]).to_string()
                }
                MemFormat::U64 => {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(chunk);
                    format!("{:#018x}", u64::from_le_bytes(b))
                }
            });
        }
        out.join(" ")
    }
}

/// One `;!` initial-state directive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Init {
    /// `;! mmN = <u64>`
    Mm(usize, u64),
    /// `;! rN = <u32>`
    Gp(usize, u32),
    /// `;! mem[<addr>] = <fmt>: <elems…>` (bytes already canonical).
    Mem(u32, Vec<u8>),
}

/// What one `expect` line checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Key {
    /// Final value of `mmN`.
    Mm(usize),
    /// Final value of `rN`.
    Gp(usize),
    /// Final bytes at `addr`, `count` elements of `format`.
    Mem {
        /// Start address.
        addr: u32,
        /// Element encoding.
        format: MemFormat,
        /// Element count (fixed by the line as written — `--update`
        /// preserves it).
        count: usize,
    },
    /// A [`SimStats`] counter or derived rate, by field name.
    Stat(&'static str),
}

/// One parsed `expect` line.
#[derive(Clone, Debug)]
pub struct ExpectEntry {
    /// 1-based line in the page (for messages and in-place update).
    pub file_line: usize,
    /// Original spelling left of `=` (preserved by `--update`).
    pub lhs: String,
    /// Leading whitespace of the line (preserved by `--update`).
    pub indent: String,
    /// Parsed key.
    pub key: Key,
    /// Trimmed text right of `=` (`?` placeholders allowed).
    pub raw: String,
}

impl ExpectEntry {
    /// Placeholder entries fail check mode and are filled by
    /// `--update`.
    pub fn is_placeholder(&self) -> bool {
        self.raw.split_whitespace().any(|t| t == "?")
    }
}

/// One executable case: an `asm` block plus its paired `expect` block.
#[derive(Clone, Debug)]
pub struct SpecCase {
    /// Case name (from `name=`, or `case-<n>`).
    pub name: String,
    /// 1-based line of the ```` ```asm ```` fence.
    pub asm_line: usize,
    /// Crossbar shape name `"A"`–`"D"`.
    pub shape: String,
    /// Opt-in compile variants (never [`Variant::Baseline`], which every
    /// case runs).
    pub variants: Vec<Variant>,
    /// Initial state directives, in order.
    pub inits: Vec<Init>,
    /// The assembly source (block body, `;!` lines included).
    pub source: String,
    /// The paired expectations.
    pub expect: Vec<ExpectEntry>,
}

/// The [`SimStats`] counter named `name` (u64, compared numerically).
pub fn counter_key(name: &str) -> Option<&'static str> {
    SimStats::default().counters().into_iter().map(|(k, _)| k).find(|k| *k == name)
}

/// Derived-rate method names (f64, compared at 3 decimal places).
pub const DERIVED_KEYS: &[&str] = &[
    "ipc",
    "mmx_fraction",
    "mmx_active_fraction",
    "pair_rate",
    "miss_per_clock",
    "realignment_fraction_of_mmx",
];

/// Parse a decimal or `0x`-prefixed unsigned integer.
pub fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse::<u64>().ok()
    }
}

/// [`parse_u64`] with an optional leading `-`.
pub fn parse_i64(s: &str) -> Option<i64> {
    if let Some(body) = s.strip_prefix('-') {
        parse_u64(body).and_then(|v| i64::try_from(v).ok()).map(|v| -v)
    } else {
        parse_u64(s).and_then(|v| i64::try_from(v).ok())
    }
}

/// Harvest every case from one page. Errors are `line: message`
/// strings (the caller prefixes the file path).
pub fn harvest(text: &str) -> Result<Vec<SpecCase>, Vec<String>> {
    let mut cases = Vec::new();
    let mut errors = Vec::new();
    let mut pending: Option<SpecCase> = None;
    let mut auto_name = 0usize;

    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].trim();
        let Some(info) = line.strip_prefix("```") else {
            i += 1;
            continue;
        };
        let info = info.trim();
        if info.is_empty() {
            // A bare closing fence at top level: stray, skip.
            i += 1;
            continue;
        }
        // Collect the fenced body.
        let open_line = i + 1; // 1-based
        let mut body = Vec::new();
        i += 1;
        while i < lines.len() && lines[i].trim() != "```" {
            body.push(lines[i]);
            i += 1;
        }
        if i == lines.len() {
            errors.push(format!("{open_line}: unterminated fenced block"));
            break;
        }
        i += 1; // past the closing fence

        let mut tokens = info.split_whitespace();
        let tag = tokens.next().unwrap_or("");
        if tag == "asm" {
            if let Some(prev) = pending.take() {
                if !prev.name.starts_with("case-") {
                    errors.push(format!(
                        "{}: named asm block `{}` has no expect block",
                        prev.asm_line, prev.name
                    ));
                }
            }
            auto_name += 1;
            match parse_asm_block(open_line, tokens, &body, auto_name) {
                Ok(case) => pending = Some(case),
                Err(mut errs) => errors.append(&mut errs),
            }
        } else if tag == "expect" {
            match pending.take() {
                Some(mut case) => match parse_expect_block(open_line, &body) {
                    Ok(entries) => {
                        case.expect = entries;
                        cases.push(case);
                    }
                    Err(mut errs) => errors.append(&mut errs),
                },
                None => errors.push(format!("{open_line}: expect block without an asm block")),
            }
        }
        // Other fence tags (text, rust, …) are plain documentation; an
        // intervening one does not unpair an asm block.
    }
    if let Some(prev) = pending {
        if !prev.name.starts_with("case-") {
            errors.push(format!(
                "{}: named asm block `{}` has no expect block",
                prev.asm_line, prev.name
            ));
        }
    }

    if errors.is_empty() {
        Ok(cases)
    } else {
        Err(errors)
    }
}

fn parse_asm_block<'a>(
    fence_line: usize,
    options: impl Iterator<Item = &'a str>,
    body: &[&str],
    auto_n: usize,
) -> Result<SpecCase, Vec<String>> {
    let mut errors = Vec::new();
    let mut case = SpecCase {
        name: format!("case-{auto_n}"),
        asm_line: fence_line,
        shape: "A".to_string(),
        variants: Vec::new(),
        inits: Vec::new(),
        source: body.join("\n"),
        expect: Vec::new(),
    };
    for opt in options {
        match opt.split_once('=') {
            Some(("name", v)) if !v.is_empty() => case.name = v.to_string(),
            Some(("shape", v)) if matches!(v, "A" | "B" | "C" | "D") => {
                case.shape = v.to_string();
            }
            Some(("variants", v)) => {
                for part in v.split(',') {
                    match part {
                        "sched" => case.variants.push(Variant::Scheduled),
                        "lift" => case.variants.extend([Variant::Lifted, Variant::ScheduledLifted]),
                        "all" => case.variants.extend(&Variant::ALL[1..]),
                        _ => errors.push(format!("{fence_line}: unknown variant `{part}`")),
                    }
                }
            }
            _ => errors.push(format!("{fence_line}: bad asm option `{opt}`")),
        }
    }
    for (off, raw) in body.iter().enumerate() {
        let line = fence_line + 1 + off;
        let Some(rest) = raw.trim().strip_prefix(";!") else { continue };
        match parse_init(rest.trim()) {
            Some(init) => case.inits.push(init),
            None => errors.push(format!("{line}: bad init directive `{}`", raw.trim())),
        }
    }
    if errors.is_empty() {
        Ok(case)
    } else {
        Err(errors)
    }
}

fn parse_init(s: &str) -> Option<Init> {
    let (lhs, rhs) = s.split_once('=')?;
    let (lhs, rhs) = (lhs.trim(), rhs.trim());
    if let Some(n) = lhs.strip_prefix("mm").and_then(|n| n.parse::<usize>().ok()) {
        if n < 8 {
            return Some(Init::Mm(n, parse_u64(rhs)?));
        }
    } else if let Some(n) = lhs.strip_prefix('r').and_then(|n| n.parse::<usize>().ok()) {
        if n < 16 {
            return Some(Init::Gp(n, u32::try_from(parse_u64(rhs)?).ok()?));
        }
    } else if let Some(addr) = parse_mem_lhs(lhs) {
        let (fmt, elems) = rhs.split_once(':')?;
        let format = MemFormat::parse(fmt.trim())?;
        let mut bytes = Vec::new();
        for tok in elems.split_whitespace() {
            bytes.extend(format.elem_bytes(tok)?);
        }
        if !bytes.is_empty() {
            return Some(Init::Mem(addr, bytes));
        }
    }
    None
}

fn parse_mem_lhs(lhs: &str) -> Option<u32> {
    let inner = lhs.strip_prefix("mem[")?.strip_suffix(']')?;
    u32::try_from(parse_u64(inner.trim())?).ok()
}

fn parse_expect_block(fence_line: usize, body: &[&str]) -> Result<Vec<ExpectEntry>, Vec<String>> {
    let mut entries = Vec::new();
    let mut errors = Vec::new();
    for (off, raw) in body.iter().enumerate() {
        let line = fence_line + 1 + off;
        let text = raw.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let Some((lhs, rhs)) = text.split_once('=') else {
            errors.push(format!("{line}: expect line has no `=`: `{text}`"));
            continue;
        };
        let (lhs, raw_value) = (lhs.trim(), rhs.trim());
        let indent: String = raw.chars().take_while(|c| c.is_whitespace()).collect();
        let key = match parse_expect_key(lhs, raw_value) {
            Ok(k) => k,
            Err(msg) => {
                errors.push(format!("{line}: {msg}"));
                continue;
            }
        };
        // Non-placeholder values must parse in the key's format now, so
        // check mode never trips over a typo'd literal at diff time.
        if let Err(msg) = validate_value(&key, raw_value) {
            errors.push(format!("{line}: {msg}"));
            continue;
        }
        entries.push(ExpectEntry {
            file_line: line,
            lhs: lhs.to_string(),
            indent,
            key,
            raw: raw_value.to_string(),
        });
    }
    if errors.is_empty() {
        Ok(entries)
    } else {
        Err(errors)
    }
}

fn parse_expect_key(lhs: &str, raw_value: &str) -> Result<Key, String> {
    if let Some(n) = lhs.strip_prefix("mm").and_then(|n| n.parse::<usize>().ok()) {
        if n < 8 {
            return Ok(Key::Mm(n));
        }
        return Err(format!("mm register index out of range in `{lhs}`"));
    }
    if let Some(n) = lhs.strip_prefix('r').and_then(|n| n.parse::<usize>().ok()) {
        if n < 16 {
            return Ok(Key::Gp(n));
        }
        return Err(format!("gp register index out of range in `{lhs}`"));
    }
    if let Some(addr) = parse_mem_lhs(lhs) {
        let Some((fmt, elems)) = raw_value.split_once(':') else {
            return Err(format!("memory value needs `<fmt>: <elems…>`, got `{raw_value}`"));
        };
        let format = MemFormat::parse(fmt.trim())
            .ok_or_else(|| format!("unknown memory format `{}`", fmt.trim()))?;
        let count = elems.split_whitespace().count();
        if count == 0 {
            return Err("memory value has no elements".to_string());
        }
        return Ok(Key::Mem { addr, format, count });
    }
    if let Some(k) = counter_key(lhs).or(DERIVED_KEYS.iter().copied().find(|k| *k == lhs)) {
        return Ok(Key::Stat(k));
    }
    Err(format!("unknown expect key `{lhs}`"))
}

fn validate_value(key: &Key, raw: &str) -> Result<(), String> {
    let bad = |what: &str| Err(format!("bad {what} value `{raw}`"));
    match key {
        Key::Mm(_) => {
            if raw != "?" && parse_u64(raw).is_none() {
                return bad("mm");
            }
        }
        Key::Gp(_) => {
            if raw != "?" && parse_u64(raw).and_then(|v| u32::try_from(v).ok()).is_none() {
                return bad("gp");
            }
        }
        Key::Mem { format, .. } => {
            let elems = raw.split_once(':').map(|(_, e)| e).unwrap_or("");
            for tok in elems.split_whitespace() {
                if tok != "?" && format.elem_bytes(tok).is_none() {
                    return Err(format!("bad {} element `{tok}`", format.tag()));
                }
            }
        }
        Key::Stat(name) => {
            if raw == "?" {
                return Ok(());
            }
            if counter_key(name).is_some() {
                if raw.parse::<u64>().is_err() {
                    return bad("counter");
                }
            } else if raw.parse::<f64>().is_err() {
                return bad("rate");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = r#"# Title

Some prose.

```asm name=sat shape=B variants=sched
;! mm0 = 0x7fff000180000001
;! mem[0x10000] = i16: 100 -100 2 -2
    movq mm1, [r0]
    paddsw mm0, mm1
    halt
```

Explanation between the blocks is fine.

```expect
mm0 = 0x7fff000180000001
cycles = 12
pair_rate = 0.500
mem[0x10000] = i16: 100 -100 2 -2
```

```asm
    nop
    halt
```

A trailing example block with no expect pairing.
"#;

    #[test]
    fn harvests_paired_case() {
        let cases = harvest(PAGE).unwrap();
        assert_eq!(cases.len(), 1);
        let c = &cases[0];
        assert_eq!(c.name, "sat");
        assert_eq!(c.shape, "B");
        assert_eq!(c.variants, vec![Variant::Scheduled]);
        assert_eq!(c.inits.len(), 2);
        assert_eq!(c.inits[0], Init::Mm(0, 0x7fff000180000001));
        assert_eq!(c.inits[1], Init::Mem(0x10000, vec![100, 0, 156, 255, 2, 0, 254, 255]));
        assert_eq!(c.expect.len(), 4);
        assert_eq!(c.expect[1].key, Key::Stat("cycles"));
        assert!(matches!(
            c.expect[3].key,
            Key::Mem { addr: 0x10000, format: MemFormat::I16, count: 4 }
        ));
    }

    #[test]
    fn placeholder_detection() {
        let page = "```asm\nhalt\n```\n```expect\ncycles = ?\nmem[0] = i16: 1 ? 3\n```\n";
        let cases = harvest(page).unwrap();
        assert!(cases[0].expect.iter().all(ExpectEntry::is_placeholder));
    }

    #[test]
    fn named_block_without_expect_is_an_error() {
        let page = "```asm name=lonely\nhalt\n```\n";
        let errs = harvest(page).unwrap_err();
        assert!(errs[0].contains("lonely"), "{errs:?}");
    }

    #[test]
    fn bad_key_and_bad_value_are_errors() {
        let page = "```asm\nhalt\n```\n```expect\nbogus = 1\ncycles = twelve\n```\n";
        let errs = harvest(page).unwrap_err();
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].contains("unknown expect key"));
        assert!(errs[1].contains("bad counter value"));
    }

    #[test]
    fn mem_format_round_trips() {
        for (fmt, toks) in [
            (MemFormat::I16, "30000 -30000 0 -1"),
            (MemFormat::U8, "0 255 17"),
            (MemFormat::U32, "4026531840 1"),
            (MemFormat::I32, "-2147483648 7"),
            (MemFormat::U64, "0xdeadbeefcafebabe"),
            (MemFormat::Hex, "00 ff a5"),
        ] {
            let bytes: Vec<u8> =
                toks.split_whitespace().flat_map(|t| fmt.elem_bytes(t).unwrap()).collect();
            assert_eq!(fmt.render(&bytes), toks, "{fmt:?}");
        }
    }
}
