//! A minimal JSON reader for cache entries.
//!
//! The workspace has no serde (the build container has no crates
//! registry), and the only JSON this crate must *read* is JSON it wrote
//! itself — flat objects of numbers, strings and arrays. This is a small
//! strict recursive-descent parser over that grammar: no comments, no
//! trailing commas, numbers parsed as `f64` (exact for every integer the
//! testbed emits, all < 2⁵³).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The object's fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Looks a field up in an object's fields.
pub fn get<'a>(obj: &'a [(String, JsonValue)], name: &str) -> Option<&'a JsonValue> {
    obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// A string field.
pub fn get_str<'a>(obj: &'a [(String, JsonValue)], name: &str) -> Option<&'a str> {
    get(obj, name)?.as_str()
}

/// A numeric field.
pub fn get_f64(obj: &[(String, JsonValue)], name: &str) -> Option<f64> {
    get(obj, name)?.as_f64()
}

/// An all-numbers array field.
pub fn get_f64_array(obj: &[(String, JsonValue)], name: &str) -> Option<Vec<f64>> {
    match get(obj, name)? {
        JsonValue::Arr(items) => items.iter().map(JsonValue::as_f64).collect(),
        _ => None,
    }
}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

/// The deepest container nesting [`parse`] accepts. Cache entries nest
/// three deep; the limit keeps a hostile document from exhausting the
/// recursive parser's stack, which would abort the process instead of
/// returning `Err`.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Parses one container with `parse`, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_owned())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        // \b \f \uXXXX never appear in our own output.
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one piece. Both are ASCII, so the run ends on a
                    // char boundary of the `&str` input.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_cache_shaped_document() {
        let doc = r#"{"version":"dot11-sweep/v1","key":"00ff","seed":42,
            "metrics":{"flows_kbps":[599.0368,2714.0],"fairness":0.75,"events":123}}"#;
        let v = parse(doc).expect("parse");
        let obj = v.as_object().expect("object");
        assert_eq!(get_str(obj, "version"), Some("dot11-sweep/v1"));
        assert_eq!(get_f64(obj, "seed"), Some(42.0));
        let m = get(obj, "metrics")
            .and_then(JsonValue::as_object)
            .expect("metrics");
        assert_eq!(get_f64_array(m, "flows_kbps"), Some(vec![599.0368, 2714.0]));
        assert_eq!(get_f64(m, "events"), Some(123.0));
    }

    #[test]
    fn shortest_float_formatting_round_trips() {
        for &x in &[599.0368f64, 0.1, 1.0 / 3.0, 2714.125, -0.0, 1e-300] {
            let v = parse(&format!("{x}")).expect("parse");
            assert_eq!(v.as_f64().map(f64::to_bits), Some(x.to_bits()));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\":}", "tru", "1 2", "{\"a\" 1}", ""] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn handles_empty_containers_and_literals() {
        assert_eq!(parse("{}").expect("parse"), JsonValue::Obj(vec![]));
        assert_eq!(parse("[]").expect("parse"), JsonValue::Arr(vec![]));
        assert_eq!(
            parse("[null,true,false]").expect("parse"),
            JsonValue::Arr(vec![
                JsonValue::Null,
                JsonValue::Bool(true),
                JsonValue::Bool(false)
            ])
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let deep = open.repeat(200_000);
            assert!(parse(&deep).is_err(), "{open:?} × 200k should fail");
        }
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok(), "{MAX_DEPTH} levels parse");
        let past = format!("[{at_limit}]");
        assert!(parse(&past).is_err(), "{} levels fail", MAX_DEPTH + 1);
    }

    #[test]
    fn long_and_multibyte_strings_round_trip() {
        let body = "é😀a\"b\\c/".repeat(50_000);
        let doc = format!("\"{}\"", body.replace('\\', "\\\\").replace('"', "\\\""));
        assert_eq!(parse(&doc).expect("parse"), JsonValue::Str(body));
        assert!(parse("\"é😀").is_err(), "unterminated");
    }

    #[test]
    fn decodes_basic_escapes() {
        assert_eq!(
            parse(r#""a\"b\\c\nd""#).expect("parse"),
            JsonValue::Str("a\"b\\c\nd".to_owned())
        );
    }
}
