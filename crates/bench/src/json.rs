//! Minimal JSON tree, writer and parser.
//!
//! The build container cannot fetch `serde`/`serde_json`, so the sweep
//! layer serializes through this self-contained module instead. It
//! supports exactly what [`crate::sweep::SweepReport`] needs: objects,
//! arrays, strings, booleans, null, unsigned integers (bit-exact — `u64`
//! counters must survive a round trip, which `f64` would not guarantee)
//! and finite floats.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer, kept exact.
    UInt(u64),
    /// Any other finite number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (insertion-ordered; duplicate keys are not merged).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object member by key, or an error naming the missing field.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing field `{key}`"))
    }

    /// The value as `u64` (from an exact integer or an integral float).
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::UInt(v) => Ok(*v),
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < u64::MAX as f64 => Ok(*v as u64),
            other => Err(format!("expected unsigned integer, got {other:?}")),
        }
    }

    /// Unsigned member `key`, narrowed to `T`; a value that does not fit
    /// is an error naming the field, never a truncation.
    pub fn narrow<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let v = self.field(key)?.as_u64()?;
        T::try_from(v).map_err(|_| {
            format!("field `{key}`: {v} does not fit {} bits", 8 * std::mem::size_of::<T>())
        })
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected boolean, got {other:?}")),
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(format!("expected array, got {other:?}")),
        }
    }

    /// Serialize with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// Append the value to `out`, indented by `indent` spaces per level
    /// (`None`: on one line). Indentation, numbers and escape-free string
    /// runs go straight into `out`: nothing is allocated per value.
    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => write_u64(out, *v),
            Json::Num(v) => {
                assert!(v.is_finite(), "non-finite number in JSON tree");
                let start = out.len();
                let _ = write!(out, "{v}");
                // Keep floats visually (and parse-wise) distinct from
                // integers.
                if !out[start..].contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    new_line(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                new_line(out, indent, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    new_line(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                new_line(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (must consume all non-whitespace input).
    /// Every error names the byte offset of its fault.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

impl std::fmt::Display for Json {
    /// Compact (single-line) serialization; [`Json::to_pretty`] is the
    /// indented form.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

/// A line break and `indent × depth` spaces; nothing on one line.
fn new_line(out: &mut String, indent: Option<usize>, depth: usize) {
    const SPACES: &str = "                                ";
    if let Some(width) = indent {
        out.push('\n');
        let mut pad = width * depth;
        while pad > 0 {
            let run = pad.min(SPACES.len());
            out.push_str(&SPACES[..run]);
            pad -= run;
        }
    }
}

/// `v` in decimal, as `{v}` formats it, without the formatting
/// machinery: a report is mostly integers.
fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("digits are ASCII"));
}

/// `s` as a JSON string. Each run of characters that need no escape is
/// copied as one slice: every character escaped is ASCII, so a run ends
/// on a character boundary.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, pos))
    }
}

/// Nesting bound: the parser recurses per level, so unbounded depth in a
/// corrupted document would overflow the stack instead of erroring.
const MAX_DEPTH: usize = 256;

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(text, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(text, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

/// One string. Each run of bytes up to the next `"` or `\` is copied as
/// one slice: the input is a `&str` and both bytes are ASCII, so a run
/// ends on a character boundary. A `\u` escape's errors name the byte of
/// its first hex digit.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let b = text.as_bytes();
    let start = *pos;
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        let run = *pos;
        while b.get(*pos).is_some_and(|&c| c != b'"' && c != b'\\') {
            *pos += 1;
        }
        out.push_str(&text[run..*pos]);
        match b.get(*pos) {
            None => return Err(format!("unterminated string at byte {start}")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            // The run stopped at a `\`.
            Some(_) => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let at = *pos + 1;
                        let mut code = parse_hex4(b, at)?;
                        *pos += 4;
                        // RFC 8259: non-BMP characters arrive as a
                        // surrogate pair of \u escapes.
                        if (0xD800..0xDC00).contains(&code) {
                            if b.get(*pos + 1..*pos + 3) != Some(br"\u") {
                                return Err(format!("lone high surrogate at byte {at}"));
                            }
                            let low = parse_hex4(b, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(format!("bad low surrogate at byte {}", *pos + 3));
                            }
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            *pos += 6;
                        }
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("bad \\u code point at byte {at}"))?;
                        out.push(c);
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
        }
    }
}

/// The four hex digits of a `\\u` escape at `at`. Only ASCII hex digits
/// count: `u32::from_str_radix` alone would also take a leading `+`.
fn parse_hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let hex = b.get(at..at + 4).ok_or_else(|| format!("truncated \\u escape at byte {at}"))?;
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return Err(format!("bad \\u escape at byte {at}"));
    }
    let hex = std::str::from_utf8(hex).expect("hex digits are ASCII");
    Ok(u32::from_str_radix(hex, 16).expect("four hex digits fit a u32"))
}

/// One number, as RFC 8259 spells it:
/// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`. A leading `+`,
/// a leading zero, and a `.` without digits on both sides are errors.
fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    // Advance over a run of digits; how many there were.
    let digits = |pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    let negative = b.get(*pos) == Some(&b'-');
    *pos += negative as usize;
    let int_start = *pos;
    match digits(pos) {
        0 if negative => return Err(format!("expected a digit at byte {int_start}")),
        0 => return Err(format!("expected a value at byte {start}")),
        n if n > 1 && b[int_start] == b'0' => {
            return Err(format!("leading zero in number at byte {int_start}"))
        }
        _ => {}
    }
    let integer = !negative && !matches!(b.get(*pos), Some(b'.' | b'e' | b'E'));
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(pos) == 0 {
            return Err(format!("expected a digit after `.` at byte {pos}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(format!("expected an exponent digit at byte {pos}"));
        }
    }
    if integer {
        // Read the digits in hand; a value above `u64::MAX` is a float.
        let exact = b[start..*pos]
            .iter()
            .try_fold(0u64, |v, &d| v.checked_mul(10)?.checked_add(u64::from(d - b'0')));
        if let Some(v) = exact {
            return Ok(Json::UInt(v));
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("a number is ASCII");
    text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_counters_round_trip_bit_exact() {
        let big = u64::MAX - 3; // not representable in f64
        let v = Json::Obj(vec![("cycles".into(), Json::UInt(big))]);
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.field("cycles").unwrap().as_u64().unwrap(), big);
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("fir12 \"q\" \\ \n".into())),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            ("ratio".into(), Json::Num(1.5)),
            ("cells".into(), Json::Arr(vec![Json::UInt(1), Json::UInt(2), Json::Arr(vec![])])),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"abc").is_err());
        // Hostile nesting errors out instead of overflowing the stack.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        // Numbers and escapes RFC 8259 forbids, each rejected with the
        // byte offset of the fault.
        for (text, at) in [
            ("+1", "byte 0"),
            ("01", "byte 0"),
            ("00", "byte 0"),
            ("[-01]", "byte 2"),
            ("1.", "byte 2"),
            (".5", "byte 0"),
            ("[1.e5]", "byte 3"),
            ("1e", "byte 2"),
            ("-", "byte 1"),
            ("\"\\u+041\"", "byte 3"),
            ("\"\\u00e\"", "byte 3"),
        ] {
            let err = Json::parse(text).expect_err(text);
            assert!(err.ends_with(&format!(" at {at}")), "{text}: {err}");
        }
        // Every other fault names its byte too.
        let deep = "[".repeat(300);
        for (text, err) in [
            ("[1, ", "unexpected end of input at byte 4"),
            ("[\"abc", "unterminated string at byte 1"),
            ("[\"x\\ud83d\"]", "lone high surrogate at byte 5"),
            ("\"\\ud83d\\u0041\"", "bad low surrogate at byte 9"),
            ("[\"\\udc00\"]", "bad \\u code point at byte 4"),
            (deep.as_str(), "nesting deeper than 256 levels at byte 257"),
        ] {
            assert_eq!(Json::parse(text).expect_err(text), err, "{text}");
        }
        // The forms the grammar allows still parse.
        for (text, value) in [
            ("0", Json::UInt(0)),
            ("10", Json::UInt(10)),
            ("-0", Json::Num(-0.0)),
            ("0.5", Json::Num(0.5)),
            ("1e2", Json::Num(100.0)),
            ("1E+2", Json::Num(100.0)),
            ("2.5e-1", Json::Num(0.25)),
            ("\"\\u004A\"", Json::Str("J".into())),
        ] {
            assert_eq!(Json::parse(text), Ok(value), "{text}");
        }
    }

    /// `Json::parse` and `Json::to_pretty` run in linear time: per byte,
    /// a ~256 KiB document costs at most 8x a ~1 KiB one built from the
    /// same unit. A decode that re-validates the rest of the input for
    /// every character, as the parser once did, fails this many times
    /// over.
    #[test]
    fn parse_and_write_scale_linearly() {
        let unit = r#"{"text": "héllo wörld \"q\" \\ \/ \b\f\n\r\t \u00e9 \ud83d\ude00 😀 café ∑ 日本 😀, then a long run of plain text that goes on for a while before it ends", "counts": [0, 7, 42, 18446744073709551615], "ratio": -2.5e-3, "mean": 0.125, "nested": {"a": [[{"b": null, "c": true, "d": false}]], "e": [], "f": {}}}"#;
        let doc = |bytes: usize| format!("[{}]", vec![unit; bytes / unit.len()].join(", "));
        // Nanoseconds per byte of `text` to parse it and to write its
        // tree, each the best of five.
        let per_byte = |text: &str| {
            let (mut parse, mut write) = (u128::MAX, u128::MAX);
            for _ in 0..5 {
                let start = std::time::Instant::now();
                let value = Json::parse(text).unwrap();
                parse = parse.min(start.elapsed().as_nanos());
                let start = std::time::Instant::now();
                std::hint::black_box(value.to_pretty());
                write = write.min(start.elapsed().as_nanos());
            }
            (parse as f64 / text.len() as f64, write as f64 / text.len() as f64)
        };
        let (small, large) = (doc(1 << 10), doc(256 << 10));
        assert!(Json::parse(&small).unwrap().as_arr().unwrap().len() >= 3);
        let (parse_small, write_small) = per_byte(&small);
        let (parse_large, write_large) = per_byte(&large);
        for (what, at_small, at_large) in
            [("parse", parse_small, parse_large), ("to_pretty", write_small, write_large)]
        {
            assert!(
                at_large <= 8.0 * at_small,
                "{what}: {at_large:.1} ns/byte at {} bytes, {at_small:.1} at {} bytes",
                large.len(),
                small.len()
            );
        }
    }

    /// The committed JSON files are exactly what the writer makes of
    /// them, so `sweep --write-baseline`, the interp bench's `--save` and
    /// `corpus::write_repro` (which appends one newline) reproduce them
    /// byte for byte.
    #[test]
    fn committed_files_are_writer_fixpoints() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files: Vec<(std::path::PathBuf, bool)> =
            ["BENCH_cycles.json", "BENCH_cycles_ooo.json", "BENCH_sim.json"]
                .iter()
                .map(|f| (root.join(f), false))
                .collect();
        for entry in std::fs::read_dir(root.join("crates/fuzz/corpus")).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|x| x == "json") {
                files.push((path, true));
            }
        }
        assert!(files.len() > 3, "the fuzz corpus holds no JSON file");
        for (path, repro) in files {
            let text = std::fs::read_to_string(&path).unwrap();
            let text = if repro { text.strip_suffix('\n').unwrap() } else { text.as_str() };
            let written = Json::parse(text).unwrap().to_pretty();
            let differs = written.bytes().zip(text.bytes()).position(|(a, b)| a != b);
            assert!(
                written == text,
                "{}: the writer's {} bytes differ from the file's {} from byte {}",
                path.display(),
                written.len(),
                text.len(),
                differs.unwrap_or(written.len().min(text.len()))
            );
        }
    }

    #[test]
    fn integral_floats_stay_floats() {
        let v = Json::Num(2.0);
        let s = v.to_string();
        assert!(s.contains('.'), "{s}");
        assert_eq!(Json::parse(&s).unwrap(), v);
    }

    #[test]
    fn unicode_and_escapes() {
        let v = Json::Str("héllo \u{1}".into());
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse("\"\\u0041\\u00e9\"").unwrap(), Json::Str("Aé".into()));
        // RFC 8259 surrogate pairs decode to the non-BMP character.
        assert_eq!(Json::parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("😀".into()));
        assert!(Json::parse("\"\\ud83d\"").is_err());
        assert!(Json::parse("\"\\ud83d\\u0041\"").is_err());
    }
}
