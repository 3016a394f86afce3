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

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                assert!(v.is_finite(), "non-finite number in JSON tree");
                let mut repr = format!("{v}");
                // Keep floats visually (and parse-wise) distinct from
                // integers.
                if !repr.contains(['.', 'e', 'E']) {
                    repr.push_str(".0");
                }
                out.push_str(&repr);
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
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
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
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (must consume all non-whitespace input).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
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

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
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

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
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
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos, depth + 1)?;
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
                items.push(parse_value(b, pos, depth + 1)?);
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
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
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

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
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
                        let mut code = parse_hex4(b, *pos + 1)?;
                        *pos += 4;
                        // RFC 8259: non-BMP characters arrive as a
                        // surrogate pair of \u escapes.
                        if (0xD800..0xDC00).contains(&code) {
                            if b.get(*pos + 1..*pos + 3) != Some(br"\u") {
                                return Err("lone high surrogate".to_string());
                            }
                            let low = parse_hex4(b, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("bad low surrogate".to_string());
                            }
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            *pos += 6;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance one UTF-8 scalar. It spans at most four bytes, so
                // only those are decoded: validating the whole rest of the
                // input for every character made parsing quadratic.
                let window = &b[*pos..b.len().min(*pos + 4)];
                let s = match std::str::from_utf8(window) {
                    Ok(s) => s,
                    Err(e) => std::str::from_utf8(&window[..e.valid_up_to()])
                        .expect("the prefix up to the first error is valid"),
                };
                let c = s.chars().next().ok_or("invalid UTF-8")?;
                out.push(c);
                *pos += c.len_utf8();
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
    let text = std::str::from_utf8(&b[start..*pos]).expect("a number is ASCII");
    if integer {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
    }
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
            assert!(err.contains(at), "{text}: {err}");
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
