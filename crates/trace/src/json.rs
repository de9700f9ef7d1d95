//! The workspace's one JSON module: a single-line writer and the narrow
//! reader `bench_trend` needs.
//!
//! Every `--json` line, telemetry export and Chrome trace in the
//! workspace is built by [`Writer`]; every consumer of those lines goes
//! through [`check_structure`], [`num`] and [`str`]. The reader inverts
//! exactly the escapes the writer emits, so a string survives the round
//! trip whatever it contains.

use std::fmt::Write as _;

/// Builds one JSON value, normally an object, with no whitespace and no
/// line breaks (control characters in strings are escaped), so the
/// result is always a valid JSON Lines record.
///
/// Commas are inserted automatically: a value or key is preceded by `,`
/// unless it directly follows an opening delimiter or a key.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    pub fn with_capacity(bytes: usize) -> Writer {
        Writer {
            out: String::with_capacity(bytes),
        }
    }

    fn sep(&mut self) {
        if !matches!(self.out.as_bytes().last(), None | Some(b'{' | b'[' | b':')) {
            self.out.push(',');
        }
    }

    /// Append `s` as a quoted, fully escaped string literal — the only
    /// string-escape routine in the workspace.
    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// Member name; the next call supplies its value.
    pub fn key(&mut self, k: &str) -> &mut Writer {
        self.sep();
        self.quoted(k);
        self.out.push(':');
        self
    }

    /// A pre-formatted number token, e.g. fractional microseconds built
    /// from integer nanoseconds.
    pub fn raw(&mut self, token: std::fmt::Arguments<'_>) -> &mut Writer {
        self.sep();
        let _ = self.out.write_fmt(token);
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Writer {
        self.raw(format_args!("{v}"))
    }

    /// Fixed-precision float; `null` for NaN and the infinities, which
    /// JSON cannot represent.
    pub fn f64(&mut self, v: f64, decimals: usize) -> &mut Writer {
        if v.is_finite() {
            self.raw(format_args!("{v:.decimals$}"))
        } else {
            self.raw(format_args!("null"))
        }
    }

    pub fn bool(&mut self, v: bool) -> &mut Writer {
        self.raw(format_args!("{v}"))
    }

    pub fn str(&mut self, s: &str) -> &mut Writer {
        self.sep();
        self.quoted(s);
        self
    }

    pub fn begin_object(&mut self) -> &mut Writer {
        self.sep();
        self.out.push('{');
        self
    }

    pub fn end_object(&mut self) -> &mut Writer {
        self.out.push('}');
        self
    }

    pub fn begin_array(&mut self) -> &mut Writer {
        self.sep();
        self.out.push('[');
        self
    }

    pub fn end_array(&mut self) -> &mut Writer {
        self.out.push(']');
        self
    }

    pub fn finish(self) -> String {
        self.out
    }
}

/// Structural completeness without a full parse: a non-empty object
/// whose braces, brackets, strings and escapes all close, and never
/// close more than was opened. A truncated or partially written record
/// fails; so does anything that is not one object.
pub fn check_structure(s: &str) -> Result<(), String> {
    let t = s.trim();
    if !t.starts_with('{') {
        return Err("not a JSON object".into());
    }
    let mut open: Vec<char> = Vec::new();
    let mut in_str = false;
    let mut escape = false;
    for (i, c) in t.char_indices() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => open.push(c),
            '}' | ']' if !in_str => {
                let want = if c == '}' { '{' } else { '[' };
                if open.pop() != Some(want) {
                    return Err(format!("unbalanced `{c}`"));
                }
                if open.is_empty() && i + 1 != t.len() {
                    return Err("text after the object".into());
                }
            }
            _ => {}
        }
    }
    if in_str {
        return Err("unterminated string".into());
    }
    if !open.is_empty() {
        return Err(format!("{} unclosed delimiter(s)", open.len()));
    }
    Ok(())
}

/// The text after the first `"key":` on the line, at any depth.
fn value_text<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    line.find(&needle).map(|i| &line[i + needle.len()..])
}

/// The numeric value of the first `key` on the line.
pub fn num(line: &str, key: &str) -> Option<f64> {
    let rest = value_text(line, key)?;
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The string value of the first `key` on the line, unescaped. `None`
/// when the key is absent, its value is not a string, or the string is
/// unterminated or carries a malformed escape.
pub fn str(line: &str, key: &str) -> Option<String> {
    let rest = value_text(line, key)?.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(match chars.next()? {
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'b' => '\u{8}',
                'f' => '\u{c}',
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
                }
                c @ ('"' | '\\' | '/') => c,
                _ => return None,
            }),
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_nests_and_separates() {
        let mut w = Writer::new();
        w.begin_object();
        w.key("a").u64(1);
        w.key("b").begin_object();
        w.key("c").f64(0.5, 3);
        w.key("d").f64(f64::INFINITY, 3);
        w.end_object();
        w.key("e").begin_array();
        w.begin_array().u64(1).u64(2).end_array();
        w.begin_object().key("f").bool(true).end_object();
        w.end_array();
        w.key("g").raw(format_args!("{}.{:03}", 1, 5));
        w.end_object();
        let line = w.finish();
        assert_eq!(
            line,
            r#"{"a":1,"b":{"c":0.500,"d":null},"e":[[1,2],{"f":true}],"g":1.005}"#
        );
        check_structure(&line).unwrap();
    }

    /// Every escape class the writer emits comes back unchanged through
    /// the reader, and the escaped form stays on one line.
    #[test]
    fn strings_round_trip_through_every_escape_class() {
        for s in [
            "plain",
            "quote \" inside",
            "back\\slash",
            "new\nline",
            "carriage\rreturn",
            "tab\there",
            "control \u{1f} and \u{0}",
            "non-ASCII: eADR → Optane™ ✓",
            "all: \"\\\n\r\t\u{1}é",
            "brace } and bracket ] in a string",
        ] {
            let mut w = Writer::new();
            w.begin_object().key("k").str(s).key("after").u64(7);
            w.end_object();
            let line = w.finish();
            assert!(!line.contains('\n') && !line.contains('\r'), "{line:?}");
            check_structure(&line).unwrap();
            assert_eq!(str(&line, "k").as_deref(), Some(s), "{line}");
            assert_eq!(num(&line, "after"), Some(7.0));
        }
    }

    #[test]
    fn reader_rejects_what_it_cannot_invert() {
        assert_eq!(
            str(r#"{"k":"a\/b\b\f"}"#, "k").as_deref(),
            Some("a/b\u{8}\u{c}")
        );
        assert_eq!(str(r#"{"k":"bad \x escape"}"#, "k"), None);
        assert_eq!(str(r#"{"k":"short \u12"}"#, "k"), None);
        assert_eq!(str(r#"{"k":"surrogate \ud800"}"#, "k"), None);
        assert_eq!(str(r#"{"k":"unterminated"#, "k"), None);
        assert_eq!(str(r#"{"k":12}"#, "k"), None);
        assert_eq!(str(r#"{"k":"v"}"#, "missing"), None);
        assert_eq!(num(r#"{"k":"v"}"#, "k"), None);
    }

    #[test]
    fn num_takes_the_first_exact_key() {
        let line = r#"{"latency":{"p999":7,"p99":5},"x":-1.5e3}"#;
        assert_eq!(num(line, "p99"), Some(5.0), "p999 must not shadow p99");
        assert_eq!(num(line, "x"), Some(-1500.0));
    }

    #[test]
    fn structure_check_rejects_malformed() {
        assert!(check_structure("{\"a\":1}").is_ok());
        assert!(check_structure(" {\"a\":[{\"b\":\"}]\"}]}\n").is_ok());
        assert!(check_structure("").is_err());
        assert!(check_structure("[1,2]").is_err());
        assert!(check_structure("{\"a\":[1,2}").is_err());
        assert!(check_structure("{\"a\":\"unterminated}").is_err());
        assert!(check_structure("{}}").is_err());
        assert!(check_structure("{\"a\":1} trailing").is_err());
        assert!(check_structure("{\"a\":1}{\"b\":2}").is_err());
        assert!(check_structure("{\"a\":{\"b\":1}").is_err());
        assert!(check_structure("{\"a\":[1,2,").is_err());
    }
}
