//! The typed JSON reader request bodies are parsed with.
//!
//! A [`Reader`] is a cursor over the body bytes. Callers pull each value
//! straight into its typed field — objects by key, arrays, `bool`,
//! strings, unsigned integers — so no intermediate value tree is built and
//! no number passes through `f64`. Integers are read digit by digit with an
//! overflow check: a field accepts exactly the JSON integers its type can
//! hold, and a fraction, exponent, sign or leading zero is refused.
//!
//! Keys a caller does not ask for are skipped by [`Reader::skip`], a loop
//! that keeps its open brackets in a bit stack instead of recursing. Nesting
//! therefore costs no call stack, whatever the body holds, and a skipped
//! value may nest at most [`MAX_SKIP_DEPTH`] deep. The typed readers nest
//! only as deep as the structs they fill.
//!
//! Whitespace and string escapes are read as the workspace's `serde_json`
//! reads them: any ASCII whitespace between tokens, and `\uXXXX` decoded one
//! code unit at a time, with a lone surrogate becoming U+FFFD.

use std::borrow::Cow;

/// Deepest nesting of arrays and objects inside one skipped value.
pub const MAX_SKIP_DEPTH: u32 = 128;

/// One entry of an object's field table: the key, and the setter that
/// reads its value into the target.
pub type Field<S> = (&'static str, fn(&mut S, &mut Reader) -> Result<(), String>);

/// A cursor over one JSON document.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// An error message carrying the current byte offset.
    #[cold]
    fn error(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    /// The next non-whitespace byte, left unconsumed.
    #[inline]
    fn peek(&mut self) -> Option<u8> {
        match self.bytes.get(self.pos) {
            Some(b) if !b.is_ascii_whitespace() => Some(*b),
            _ => self.skip_whitespace(),
        }
    }

    fn skip_whitespace(&mut self) -> Option<u8> {
        while let Some(b) = self.bytes.get(self.pos) {
            if !b.is_ascii_whitespace() {
                return Some(*b);
            }
            self.pos += 1;
        }
        None
    }

    /// Consume `b` if it is the next non-whitespace byte.
    fn eat(&mut self, b: u8) -> bool {
        let found = self.peek() == Some(b);
        self.pos += usize::from(found);
        found
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    /// Consume the literal `word` (whose first byte is next) or fail.
    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error("invalid literal"))
        }
    }

    /// The end of the document: only whitespace may follow.
    pub fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing data")),
        }
    }

    /// `None` for `null`, otherwise the value `read` reads.
    pub fn nullable<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        if self.peek() == Some(b'n') {
            self.literal("null")?;
            return Ok(None);
        }
        read(self).map(Some)
    }

    pub fn bool(&mut self) -> Result<bool, String> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.error("expected a bool")),
        }
    }

    /// An unsigned integer that fits `T`.
    pub fn uint<T: TryFrom<u64>>(&mut self) -> Result<T, String> {
        self.peek();
        let rest = &self.bytes[self.pos..];
        let mut n: u64 = 0;
        let mut digits = 0;
        for &b in rest {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            n = n.wrapping_mul(10).wrapping_add(u64::from(d));
            digits += 1;
        }
        let not_integer = matches!(rest.get(digits), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        if digits == 0 || not_integer {
            return Err(self.error("expected an unsigned integer"));
        }
        if digits > 1 && rest[0] == b'0' {
            return Err(self.error("integer with a leading zero"));
        }
        // Up to 19 digits cannot overflow a u64; longer ones are redone
        // with checked arithmetic.
        let exact = digits < 20
            || rest[..digits]
                .iter()
                .try_fold(0u64, |n, &b| {
                    n.checked_mul(10)?.checked_add(u64::from(b - b'0'))
                })
                .is_some();
        let v = T::try_from(n)
            .ok()
            .filter(|_| exact)
            .ok_or_else(|| self.overflow::<T>())?;
        self.pos += digits;
        Ok(v)
    }

    #[cold]
    fn overflow<T>(&self) -> String {
        self.error(&format!(
            "integer does not fit {}",
            std::any::type_name::<T>()
        ))
    }

    pub fn string(&mut self) -> Result<String, String> {
        self.str().map(Cow::into_owned)
    }

    /// A string, borrowed from the body when it holds no escape.
    fn str(&mut self) -> Result<Cow<'a, str>, String> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected a string"));
        }
        self.pos += 1;
        let start = self.pos;
        let bytes = self.bytes;
        let utf8 = |raw: &'a [u8]| {
            std::str::from_utf8(raw).map_err(|_| format!("invalid utf-8 in string at byte {start}"))
        };
        let run = |from: usize| {
            bytes[from..]
                .iter()
                .position(|b| matches!(b, b'"' | b'\\'))
                .map(|n| from + n)
        };
        let Some(mut stop) = run(start) else {
            return Err(self.error("unterminated string"));
        };
        if bytes[stop] == b'"' {
            self.pos = stop + 1;
            return utf8(&bytes[start..stop]).map(Cow::Borrowed);
        }
        let mut out = String::from(utf8(&bytes[start..stop])?);
        loop {
            // `stop` is at a backslash.
            self.pos = stop + 1;
            let esc = *bytes
                .get(self.pos)
                .ok_or_else(|| self.error("unterminated escape"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let code = bytes
                        .get(self.pos..self.pos + 4)
                        .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                        .and_then(|hex| std::str::from_utf8(hex).ok())
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| self.error("bad \\u escape"))?;
                    self.pos += 4;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(self.error(&format!("bad escape \\{}", other as char))),
            }
            stop = run(self.pos).ok_or_else(|| self.error("unterminated string"))?;
            out.push_str(utf8(&bytes[self.pos..stop])?);
            if bytes[stop] == b'"' {
                self.pos = stop + 1;
                return Ok(Cow::Owned(out));
            }
        }
    }

    /// An array, each item read by `item`.
    pub fn array<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.peek() != Some(b'[') {
            return Err(self.error("expected an array"));
        }
        self.pos += 1;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    /// A two-item array.
    pub fn pair<A, B>(
        &mut self,
        first: impl FnOnce(&mut Self) -> Result<A, String>,
        second: impl FnOnce(&mut Self) -> Result<B, String>,
    ) -> Result<(A, B), String> {
        if self.peek() != Some(b'[') {
            return Err(self.error("expected a two-item array"));
        }
        self.pos += 1;
        let a = first(self)?;
        self.expect(b',')?;
        let b = second(self)?;
        self.expect(b']')?;
        Ok((a, b))
    }

    /// An object read into `target`: each key named in `fields` is read by
    /// its setter, other keys are skipped. A field named twice is refused,
    /// and an error inside a field is prefixed with its name. Keys are
    /// looked up starting after the previous one, so a body that follows
    /// the table's order finds each key at the first comparison.
    pub fn object<S>(&mut self, target: &mut S, fields: &[Field<S>]) -> Result<(), String> {
        debug_assert!(fields.len() <= 64, "seen-field mask is a u64");
        if self.peek() != Some(b'{') {
            return Err(self.error("expected an object"));
        }
        self.pos += 1;
        if self.eat(b'}') {
            return Ok(());
        }
        let mut seen = 0u64;
        let mut next = 0;
        loop {
            let key = self.str()?;
            self.expect(b':')?;
            let found = (next..fields.len())
                .chain(0..next)
                .find(|&i| fields[i].0 == key);
            match found {
                Some(i) => {
                    let (name, set) = fields[i];
                    if seen & (1 << i) != 0 {
                        return Err(self.error(&format!("duplicate field '{name}'")));
                    }
                    seen |= 1 << i;
                    next = i + 1;
                    set(target, self).map_err(|e| format!("field '{name}': {e}"))?;
                }
                None => self.skip()?,
            }
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(());
            }
            return Err(self.error("expected ',' or '}'"));
        }
    }

    /// Move the cursor to the value of the object key `name`, skipping
    /// the keys before it.
    pub fn seek(&mut self, name: &str) -> Result<(), String> {
        if self.peek() != Some(b'{') {
            return Err(self.error("expected an object"));
        }
        self.pos += 1;
        if self.peek() == Some(b'}') {
            return Err(self.error(&format!("missing field '{name}'")));
        }
        loop {
            let key = self.str()?;
            self.expect(b':')?;
            if key == name {
                return Ok(());
            }
            self.skip()?;
            if !self.eat(b',') {
                return Err(self.error(&format!("missing field '{name}'")));
            }
        }
    }

    /// Skip one value of any kind, checking its syntax. Open containers
    /// are kept in a bit stack (set bit: object), not on the call stack.
    pub fn skip(&mut self) -> Result<(), String> {
        let mut objects: u128 = 0;
        let mut depth: u32 = 0;
        loop {
            // A value starts here.
            match self.peek() {
                Some(open @ (b'[' | b'{')) => {
                    if depth == MAX_SKIP_DEPTH {
                        return Err(
                            self.error(&format!("nesting deeper than {MAX_SKIP_DEPTH} levels"))
                        );
                    }
                    self.pos += 1;
                    let object = open == b'{';
                    objects = (objects << 1) | u128::from(object);
                    depth += 1;
                    let close = if object { b'}' } else { b']' };
                    if !self.eat(close) {
                        if object {
                            self.str()?;
                            self.expect(b':')?;
                        }
                        continue;
                    }
                    objects >>= 1;
                    depth -= 1;
                }
                Some(b'"') => {
                    self.str()?;
                }
                Some(b'n') => self.literal("null")?,
                Some(b't') => self.literal("true")?,
                Some(b'f') => self.literal("false")?,
                Some(b'-' | b'0'..=b'9') => self.number()?,
                Some(other) => {
                    return Err(self.error(&format!("unexpected character '{}'", other as char)))
                }
                None => return Err(self.error("unexpected end of input")),
            }
            // A value ended: close every container it completes.
            loop {
                if depth == 0 {
                    return Ok(());
                }
                let object = objects & 1 == 1;
                if self.eat(b',') {
                    if object {
                        self.str()?;
                        self.expect(b':')?;
                    }
                    break;
                }
                if !self.eat(if object { b'}' } else { b']' }) {
                    return Err(self.error(if object {
                        "expected ',' or '}'"
                    } else {
                        "expected ',' or ']'"
                    }));
                }
                objects >>= 1;
                depth -= 1;
            }
        }
    }

    /// Skip a number of any form `f64` parses.
    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        let rest = &self.bytes[start..];
        let len = 1 + rest[1..]
            .iter()
            .take_while(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .count();
        let text = &rest[..len];
        if !std::str::from_utf8(text).is_ok_and(|t| t.parse::<f64>().is_ok()) {
            let text = String::from_utf8_lossy(text);
            return Err(self.error(&format!("invalid number '{text}'")));
        }
        self.pos += len;
        Ok(())
    }
}

/// The top-level `colors` array of a serialized `RunReport`. Only the
/// keys before it are read (and skipped); the rest of the report is not.
pub fn report_colors(report: &str) -> Result<Vec<u32>, String> {
    let mut r = Reader::new(report.as_bytes());
    r.seek("colors")?;
    r.array(Reader::uint)
}

/// The keys of a top-level object, in document order.
#[cfg(test)]
pub fn object_keys(text: &str) -> Result<Vec<String>, String> {
    let mut r = Reader::new(text.as_bytes());
    r.expect(b'{')?;
    let mut keys = Vec::new();
    if !r.eat(b'}') {
        loop {
            keys.push(r.string()?);
            r.expect(b':')?;
            r.skip()?;
            if !r.eat(b',') {
                r.expect(b'}')?;
                break;
            }
        }
    }
    r.end()?;
    Ok(keys)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skipped(text: &str) -> Result<(), String> {
        let mut r = Reader::new(text.as_bytes());
        r.skip()?;
        r.end()
    }

    #[test]
    fn integers_are_exact_and_bounded_by_their_type() {
        let read = |text: &str| Reader::new(text.as_bytes()).uint::<u64>();
        assert_eq!(read("9007199254740993"), Ok(9_007_199_254_740_993));
        assert_eq!(read(" 18446744073709551615"), Ok(u64::MAX));
        assert_eq!(read("0"), Ok(0));
        let err = read("18446744073709551616").unwrap_err();
        assert_eq!(err, "integer does not fit u64 at byte 0");
        assert!(Reader::new(b"4294967296")
            .uint::<u32>()
            .unwrap_err()
            .contains("u32"));
        for bad in [
            "64.5", "-64", "1e30", "1e2", "64.0", "-0", "+1", "", "x", "true",
        ] {
            let err = read(bad).unwrap_err();
            assert!(
                err.starts_with("expected an unsigned integer"),
                "{bad}: {err}"
            );
        }
        assert!(read("007").unwrap_err().contains("leading zero"));
    }

    #[test]
    fn strings_decode_the_escapes_serde_json_decodes() {
        let read = |text: &str| Reader::new(text.as_bytes()).string();
        assert_eq!(read(r#""plain""#).unwrap(), "plain");
        assert_eq!(
            read(r#""q\"b\\s\/n\nr\rt\tb\bf\f""#).unwrap(),
            "q\"b\\s/n\nr\rt\tb\u{8}f\u{c}"
        );
        assert_eq!(read(r#""Aé中""#).unwrap(), "Aé中");
        // One code unit at a time: a surrogate pair is two U+FFFD.
        assert_eq!(read(r#""\ud83d\ude00""#).unwrap(), "\u{fffd}\u{fffd}");
        assert_eq!(read(r#""\u0041\u00e9""#).unwrap(), "Aé");
        assert_eq!(read("\"héllo\"").unwrap(), "héllo");
        for bad in [r#""open"#, r#""\x""#, r#""\u12""#, r#""\u12g4""#, "\"\\"] {
            assert!(read(bad).is_err(), "{bad}");
        }
        assert!(Reader::new(b"\"\xff\"")
            .string()
            .unwrap_err()
            .contains("utf-8"));
    }

    #[test]
    fn objects_skip_unknown_keys_and_refuse_duplicates() {
        const AB: [Field<(u32, u32)>; 2] = [
            ("a", |t, r| r.uint().map(|v| t.0 = v)),
            ("b", |t, r| r.uint().map(|v| t.1 = v)),
        ];
        let read = |body: &str| {
            let mut got = (0, 0);
            let mut r = Reader::new(body.as_bytes());
            r.object(&mut got, &AB).and_then(|()| r.end()).map(|()| got)
        };
        let body = r#" { "x" : [1, {"y": [null, true, "s"]}], "b": 2, "z": -1.5e3, "a": 1 } "#;
        assert_eq!(read(body), Ok((1, 2)));
        assert_eq!(read(r#"{"\u0061":7}"#), Ok((7, 0)));
        assert_eq!(
            read(r#"{"a":1,"a":2}"#).unwrap_err(),
            "duplicate field 'a' at byte 11"
        );
        assert_eq!(
            read(r#"{"a":1.5}"#).unwrap_err(),
            "field 'a': expected an unsigned integer at byte 5"
        );
        for bad in [
            r#"{"a":1,}"#,
            r#"{"a" 1}"#,
            r#"{"a":1"#,
            "[]",
            "{1:2}",
            "{} x",
        ] {
            assert!(read(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn skip_checks_syntax_without_recursing() {
        for ok in [
            "[]",
            "{}",
            r#"[[], {}, [[1]], {"a": {"b": []}}]"#,
            "-0.5e-3",
            r#""A""#,
        ] {
            skipped(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
        for bad in [
            "[1,]", "[1 2]", "[}", "{]", r#"{"a"}"#, "[1.2.3]", "nul", "[", "]", "",
        ] {
            assert!(skipped(bad).is_err(), "{bad}");
        }
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        skipped(&deep(MAX_SKIP_DEPTH as usize)).unwrap();
        let err = skipped(&deep(MAX_SKIP_DEPTH as usize + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // A body of nothing but open brackets is refused, not recursed into.
        let err = skipped(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn report_colors_reads_the_top_level_array_only() {
        let report = r#"{"schema_version":3,"nested":{"colors":[9]},"colors":[0,1,2],"x":[]}"#;
        assert_eq!(report_colors(report), Ok(vec![0, 1, 2]));
        assert!(report_colors(r#"{"algorithm":"a"}"#)
            .unwrap_err()
            .contains("missing"));
    }
}
