//! The reader: a strict pull cursor over a `&str`, driven by the caller.

use std::fmt;
use std::str::FromStr;

/// A read error: what was wrong, and the byte offset it was found at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What was wrong there.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

type Result<T> = std::result::Result<T, JsonError>;

/// A strict JSON pull reader: the caller asks for the value its format
/// expects next, and anything else is a [`JsonError`].
#[derive(Debug)]
pub struct JsonReader<'a> {
    src: &'a str,
    /// Next unread byte; never past the end, always on a char boundary.
    pos: usize,
    /// Start of the last token read, where [`JsonReader::error`] points.
    token: usize,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        JsonReader {
            src,
            pos: 0,
            token: 0,
        }
    }

    /// An error of the caller's format at the start of the last token
    /// read (the value it refuses).
    pub fn error(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.token,
            msg: msg.into(),
        }
    }

    /// A syntax error at the current position.
    fn expected(&self, what: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            msg: format!("expected {what}"),
        }
    }

    /// Skips whitespace and returns the byte that starts the next token.
    fn peek(&mut self) -> Option<u8> {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .take_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .count();
        self.token = self.pos;
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Consumes `byte` as the next token.
    fn expect(&mut self, byte: u8, what: &'static str) -> Result<()> {
        if self.peek() != Some(byte) {
            return Err(self.expected(what));
        }
        self.pos += 1;
        Ok(())
    }

    /// Reads `open`, then members separated by commas, then `close`;
    /// `member` reads each one.
    fn members(
        &mut self,
        [open, close]: [u8; 2],
        what: [&'static str; 2],
        mut member: impl FnMut(&mut Self) -> Result<()>,
    ) -> Result<()> {
        self.expect(open, what[0])?;
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            member(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.expected(what[1])),
            }
        }
    }

    /// An array: `element` reads each element.
    pub fn array(&mut self, element: impl FnMut(&mut Self) -> Result<()>) -> Result<()> {
        self.members([b'[', b']'], ["'['", "',' or ']'"], element)
    }

    /// A flat object: `value` reads the value of each key, or returns
    /// `false`, reading nothing, for a key the caller's format does not
    /// define. An unknown or repeated key is an error, and so is the
    /// absence of a key in `required`.
    pub fn object(
        &mut self,
        required: &[&str],
        mut value: impl FnMut(&mut Self, &str) -> Result<bool>,
    ) -> Result<()> {
        let mut seen: Vec<String> = Vec::new();
        self.members([b'{', b'}'], ["'{'", "',' or '}'"], |r| {
            let key = r.string()?;
            let at = r.token;
            r.expect(b':', "':'")?;
            // Until `value` reads, the caller's errors point at the key.
            r.token = at;
            if seen.contains(&key) {
                return Err(r.error(format!("duplicate key {key:?}")));
            }
            if !value(r, &key)? {
                return Err(JsonError {
                    offset: at,
                    msg: format!("unknown key {key:?}"),
                });
            }
            seen.push(key);
            Ok(())
        })?;
        match required.iter().find(|k| !seen.iter().any(|s| s == *k)) {
            Some(key) => Err(self.error(format!("missing key {key:?}"))),
            None => Ok(()),
        }
    }

    /// A string, every escape undone.
    pub fn string(&mut self) -> Result<String> {
        self.expect(b'"', "a string")?;
        let mut out = String::new();
        loop {
            let rest = &self.src[self.pos..];
            let Some(run) = rest.find(|c: char| c == '"' || c == '\\' || c < ' ') else {
                self.pos = self.src.len();
                return Err(self.expected("a closing '\"'"));
            };
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.src.as_bytes()[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => out.push(self.escape()?),
                _ => return Err(self.expected("an escaped control character")),
            }
        }
    }

    /// Decodes the escape sequence whose reverse solidus is at `pos`, a
    /// surrogate pair as one character.
    fn escape(&mut self) -> Result<char> {
        let bad = self.expected("a valid escape sequence");
        let Some(&byte) = self
            .src
            .as_bytes()
            .get(self.pos + 1)
            .filter(|b| b.is_ascii())
        else {
            return Err(bad);
        };
        self.pos += 2;
        Ok(match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self.hex4();
                if let Some(high @ 0xd800..=0xdbff) = code {
                    code = None;
                    if self.src[self.pos..].starts_with("\\u") {
                        self.pos += 2;
                        if let Some(low @ 0xdc00..=0xdfff) = self.hex4() {
                            code = Some(0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00));
                        }
                    }
                }
                // A lone low surrogate is no `char` either.
                code.and_then(char::from_u32).ok_or(bad)?
            }
            _ => return Err(bad),
        })
    }

    /// Four hex digits at `pos`, consumed.
    fn hex4(&mut self) -> Option<u32> {
        let digits = self.src.get(self.pos..self.pos + 4)?;
        if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        self.pos += 4;
        u32::from_str_radix(digits, 16).ok()
    }

    /// A number in the strict JSON grammar,
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, as its text.
    fn number(&mut self) -> Result<&'a str> {
        self.peek();
        let b = self.src.as_bytes();
        let digits = |i: usize| i + b[i..].iter().take_while(|c| c.is_ascii_digit()).count();
        let start = self.pos;
        let mut i = start + usize::from(b.get(start) == Some(&b'-'));
        let int = digits(i);
        let mut ok = int == i + 1 || (int > i && b[i] != b'0');
        i = int;
        if ok && b.get(i) == Some(&b'.') {
            let frac = digits(i + 1);
            ok = frac > i + 1;
            i = frac;
        }
        if ok && matches!(b.get(i), Some(b'e' | b'E')) {
            i += 1 + usize::from(matches!(b.get(i + 1), Some(b'+' | b'-')));
            let exp = digits(i);
            ok = exp > i;
            i = exp;
        }
        if !ok {
            return Err(self.expected("a number"));
        }
        self.pos = i;
        Ok(&self.src[start..i])
    }

    /// A number parsed as a `T`; one out of `T`'s range or form is an
    /// error naming `what`.
    pub fn parse<T>(&mut self, what: &str) -> Result<T>
    where
        T: FromStr,
        T::Err: fmt::Display,
    {
        self.number()?
            .parse()
            .map_err(|e| self.error(format!("{what}: {e}")))
    }

    /// Consumes `word` when it is the next token.
    fn keyword(&mut self, word: &str) -> bool {
        self.peek();
        let found = self.src[self.pos..].starts_with(word);
        if found {
            self.pos += word.len();
        }
        found
    }

    /// `true` or `false`.
    pub fn bool(&mut self) -> Result<bool> {
        if self.keyword("true") {
            Ok(true)
        } else if self.keyword("false") {
            Ok(false)
        } else {
            Err(self.expected("true or false"))
        }
    }

    /// Succeeds when only whitespace is left.
    pub fn end(&mut self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.expected("the end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;
    use crate::json::JsonWriter;

    fn string(src: &str) -> Result<String> {
        let mut r = JsonReader::new(src);
        let s = r.string()?;
        r.end()?;
        Ok(s)
    }

    fn number(src: &str) -> Result<&str> {
        let mut r = JsonReader::new(src);
        let n = r.number()?;
        r.end()?;
        Ok(n)
    }

    #[test]
    fn strings_undo_every_escape() {
        assert_eq!(string(r#""a\u0041\"b""#).unwrap(), "aA\"b");
        // A non-control `\u`, a surrogate pair in lower- and upper-case
        // hex, and raw UTF-8.
        assert_eq!(
            string(r#""\" \\ \/ \b \f \n \r \t \u00e9 \ud83d\ude00 \uD83D\uDE00 é""#).unwrap(),
            "\" \\ / \u{8} \u{c} \n \r \t é 😀 😀 é"
        );
        // Everything the writer emits reads back, every control
        // character included.
        let every: String = (0u8..0x80)
            .map(char::from)
            .chain("ü\u{200b}😀".chars())
            .collect();
        let mut w = JsonWriter::new(0, 0);
        w.string("", &every);
        assert_eq!(string(&w.finish()).unwrap(), every);
    }

    /// Bad escapes, lone surrogates, raw control characters and
    /// unterminated strings, with the offset each error points at.
    #[test]
    fn malformed_strings_are_rejected() {
        for (bad, offset) in [
            (r#""\q""#, 1),
            (r#""\u00""#, 1),
            (r#""\ud800""#, 1),
            (r#""\ud800A""#, 1),
            (r#""\ud800\u0041""#, 1),
            (r#""\udc00""#, 1),
            (r#""\u+041""#, 1),
            (r#""open"#, 5),
            (r#""trailing\"#, 9),
            ("\"tab\tin\"", 4),
            ("'single'", 0),
        ] {
            let err = string(bad).unwrap_err();
            assert_eq!(err.offset, offset, "{bad}: {err}");
            assert!(err.msg.starts_with("expected "), "{bad}: {err}");
        }
    }

    #[test]
    fn numbers_follow_the_strict_grammar() {
        for good in ["0", "-0", "12", "-1.5", "1e400", "2.0E-3", "1e+2", "0.5"] {
            assert_eq!(number(good).unwrap(), good);
        }
        for bad in [
            "NaN", "Infinity", "-", "+1", ".5", "1.", "1e", "1e+", "-x", "", "01", "-01",
        ] {
            assert!(number(bad).is_err(), "{bad}");
        }
        let mut r = JsonReader::new(" 4294967296");
        let err = r.parse::<u32>("weight").unwrap_err();
        assert_eq!(err.offset, 1);
        assert!(err.to_string().starts_with("weight: "), "{err}");
    }

    #[test]
    fn members_need_commas_between_and_nowhere_else() {
        let array = |src: &str| -> Result<Vec<u32>> {
            let mut r = JsonReader::new(src);
            let mut out = Vec::new();
            r.array(|r| {
                out.push(r.parse("element")?);
                Ok(())
            })?;
            r.end()?;
            Ok(out)
        };
        assert_eq!(array(" [ ] ").unwrap(), []);
        assert_eq!(array("[1, 2,3]\n").unwrap(), [1, 2, 3]);
        for bad in ["[1,]", "[,1]", "[1 2]", "[1", "[", "[]]", "[] x", "{}"] {
            assert!(array(bad).is_err(), "{bad}");
        }
        let object = |src: &str| -> Result<Vec<(String, bool)>> {
            let mut r = JsonReader::new(src);
            let mut out = Vec::new();
            r.object(&["a"], |r, key| {
                if key == "z" {
                    return Ok(false);
                }
                out.push((key.to_string(), r.bool()?));
                Ok(true)
            })?;
            r.end()?;
            Ok(out)
        };
        assert_eq!(
            object(r#"{"a": true, "b" :false}"#).unwrap(),
            [("a".into(), true), ("b".into(), false)]
        );
        for (bad, msg) in [
            (r#"{"a" true}"#, "expected ':'"),
            (r#"{"a": true,}"#, "expected a string"),
            (r#"{,"a": true}"#, "expected a string"),
            (r#"{1: true}"#, "expected a string"),
            (r#"{"a": tru}"#, "expected true or false"),
            (r#"{"a": true"#, "expected ',' or '}'"),
            (r#"{"a": true, "a": false}"#, "duplicate key \"a\""),
            (r#"{"a": true, "z": false}"#, "unknown key \"z\""),
            (r#"{"b": true}"#, "missing key \"a\""),
        ] {
            assert_eq!(object(bad).unwrap_err().msg, msg, "{bad}");
        }
    }

    #[test]
    fn errors_carry_the_offset() {
        let mut r = JsonReader::new("[\"ok\", \"bad\\x\"]");
        let err = r.array(|r| r.string().map(drop)).unwrap_err();
        assert_eq!(err.offset, 11);
        assert_eq!(
            err.to_string(),
            "expected a valid escape sequence at byte 11"
        );
        // Key errors point at the key, a caller's error at its value.
        let mut r = JsonReader::new(r#"{"version": 2, "version": 3}"#);
        let mut at = 0;
        let err = r
            .object(&[], |r, _| {
                r.parse::<u32>("version")?;
                at = r.error("stale").offset;
                Ok(true)
            })
            .unwrap_err();
        assert_eq!((at, err.offset), (12, 15));
    }
}
