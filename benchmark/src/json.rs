//! A minimal JSON writer (the offline build has no serde). Objects are
//! built key by key in insertion order; numbers keep all their digits.

/// A JSON string literal, quotes included.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: the shortest decimal that round-trips the `f64`.
///
/// # Panics
/// Panics on NaN or an infinity; JSON has neither, and a metric that is
/// not a number is a bug upstream.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite number in a report");
    format!("{v}")
}

pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}

/// An object under construction.
#[derive(Debug, Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Add `key` with an already-serialised JSON `value`.
    pub fn raw(mut self, key: &str, value: &str) -> Obj {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push_str(&string(key));
        self.body.push(':');
        self.body.push_str(value);
        self
    }

    pub fn str(self, key: &str, value: &str) -> Obj {
        let v = string(value);
        self.raw(key, &v)
    }

    pub fn num(self, key: &str, value: f64) -> Obj {
        let v = number(value);
        self.raw(key, &v)
    }

    pub fn int(self, key: &str, value: u64) -> Obj {
        self.raw(key, &value.to_string())
    }

    pub fn bool(self, key: &str, value: bool) -> Obj {
        self.raw(key, if value { "true" } else { "false" })
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_orders() {
        let o = Obj::new()
            .str("a\"b", "x\ny\\")
            .num("n", 0.1 + 0.2)
            .int("i", u64::MAX)
            .bool("t", true)
            .raw("z", "null")
            .finish();
        assert_eq!(
            o,
            r#"{"a\"b":"x\ny\\","n":0.30000000000000004,"i":18446744073709551615,"t":true,"z":null}"#
        );
        assert_eq!(number(3.0), "3");
        assert_eq!(number(1e-7), "0.0000001");
        assert_eq!(array(["1".to_string(), "2".to_string()]), "[1,2]");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_is_a_bug() {
        number(f64::NAN);
    }
}
