//! A minimal JSON value, writer, and parser.
//!
//! Campaign checkpoints, store manifests, and trace event files must
//! survive a process kill and be readable by humans mid-campaign, which
//! makes JSON the right container — but the workspace deliberately avoids
//! pulling in `serde_json`, so this module implements the small subset
//! those formats need: objects, arrays, strings, booleans, null, and
//! *unsigned integers only*. Every number we persist (seeds, step counts,
//! trial counts, ids, microsecond timestamps) is an unsigned integer, and
//! keeping them out of `f64` preserves full 64-bit precision.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value restricted to the checkpoint format's needs.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer; covers every numeric field we persist and
    /// round-trips `u64::MAX` exactly (unlike an `f64` payload).
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved for stable output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(n) => write_u64(*n, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `n` in decimal, as [`Json::U64`] renders.
pub fn write_u64(mut n: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

fn write_escaped(s: &str, out: &mut String) {
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

/// Deepest array/object nesting [`parse`] and [`Reader`] accept. `to_json`
/// writers nest a handful of levels; the cap keeps the recursive descent
/// off the end of the stack when a peer sends a frame of nothing but `[`.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document in time linear in its length. Errors carry the
/// byte offset and a short reason; nesting deeper than 128 is one of them.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut r = Reader::new(input);
    let value = r.tree()?;
    r.finish()?;
    Ok(value)
}

/// A pull reader over the grammar [`parse`] accepts, for documents large
/// enough that building a [`Json`] tree first is the cost (the store
/// manifest). The one lexer of this module: `parse` builds its tree on it.
///
/// The reader always stands at the start of a value. Each of
/// [`u64`](Reader::u64), [`str`](Reader::str), [`obj`](Reader::obj),
/// [`arr`](Reader::arr) and [`skip`](Reader::skip) consumes exactly that
/// one value, and the typed ones answer `None`/`false` when the value was
/// of another type — what `Json::get(..).and_then(Json::as_u64)` answers on
/// a tree — so `Err` always means the *text* is malformed. A callback
/// handed to `obj`/`arr` must consume one value per call.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the first value of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        let mut r = Reader {
            text,
            pos: 0,
            depth: 0,
        };
        r.skip_ws();
        r
    }

    /// Ends the document: only whitespace may follow the value read.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(())
    }

    /// Reads a number; `None` (value skipped) for any other type.
    pub fn u64(&mut self) -> Result<Option<u64>, String> {
        match self.peek() {
            Some(b'0'..=b'9') => self.number().map(Some),
            _ => self.skip().map(|()| None),
        }
    }

    /// Reads a string, borrowed from the input unless it holds an escape;
    /// `None` (value skipped) for any other type.
    pub fn str(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        match self.peek() {
            Some(b'"') => self.string().map(Some),
            _ => self.skip().map(|()| None),
        }
    }

    /// Reads an object, calling `field(reader, key)` at each member's
    /// value, in document order; `false` (value skipped) for any other
    /// type.
    pub fn obj(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<bool, String> {
        if self.peek() != Some(b'{') {
            return self.skip().map(|()| false);
        }
        self.nested(b'}', |r| {
            let key = r.string()?;
            r.skip_ws();
            r.expect(b':')?;
            r.skip_ws();
            field(r, &key)
        })?;
        Ok(true)
    }

    /// Reads an array, calling `item(reader)` at each element; `false`
    /// (value skipped) for any other type.
    pub fn arr(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<bool, String> {
        if self.peek() != Some(b'[') {
            return self.skip().map(|()| false);
        }
        self.nested(b']', item)?;
        Ok(true)
    }

    /// Consumes one value of any type.
    pub fn skip(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'[') => self.arr(Self::skip).map(drop),
            Some(b'{') => self.obj(|r, _| r.skip()).map(drop),
            Some(b'0'..=b'9') => self.number().map(drop),
            _ => self.literal().map(drop),
        }
    }

    /// Reads one value into a tree ([`parse`]).
    fn tree(&mut self) -> Result<Json, String> {
        Ok(match self.peek() {
            Some(b'"') => Json::Str(self.string()?.into_owned()),
            Some(b'[') => {
                let mut items = Vec::new();
                self.arr(|r| {
                    items.push(r.tree()?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.obj(|r, key| {
                    fields.push((key.to_string(), r.tree()?));
                    Ok(())
                })?;
                Json::Obj(fields)
            }
            Some(b'0'..=b'9') => Json::U64(self.number()?),
            _ => self.literal()?,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// `null`, `true` or `false` — or why no value starts here.
    fn literal(&mut self) -> Result<Json, String> {
        let (word, value) = match self.peek() {
            Some(b'n') => ("null", Json::Null),
            Some(b't') => ("true", Json::Bool(true)),
            Some(b'f') => ("false", Json::Bool(false)),
            Some(c) => return Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => return Err("unexpected end of input".to_string()),
        };
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// The elements of the array or object opening here and closing with
    /// `close`, one nesting level down (up to [`MAX_DEPTH`]): `element`
    /// runs at each, between the commas.
    fn nested(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => break,
                _ => {
                    return Err(format!(
                        "expected ',' or '{}' at byte {}",
                        close as char, self.pos
                    ))
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'-' | b'+')) {
            return Err(format!(
                "only unsigned integers are supported (byte {})",
                self.pos
            ));
        }
        self.text[start..self.pos]
            .parse::<u64>()
            .map_err(|_| format!("integer out of range at byte {start}"))
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let text = self.text;
        // Filled from the first escape on; a string without one is a slice.
        let mut out = String::new();
        loop {
            // Take the whole run up to the next delimiter at once.
            let rest = &text[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(if out.is_empty() {
                    Cow::Borrowed(&rest[..run])
                } else {
                    out.push_str(&rest[..run]);
                    Cow::Owned(out)
                });
            }
            out.push_str(&rest[..run]);
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = self
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or("truncated \\u escape")?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
                    out.push(char::from_u32(code).ok_or("\\u escape is not a scalar value")?);
                    self.pos += 4;
                }
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }
}

/// Atomically and *durably* replaces the file at `path` with `text`: write
/// `<path>.tmp`, fsync it, rename over `path`, then fsync the parent
/// directory. Readers never observe a torn file, and a crash immediately
/// after the call returns cannot resurrect the pre-rename content — without
/// the directory fsync the rename itself may still live only in the page
/// cache, so a resumed campaign could trust a checkpoint older than the one
/// it was told was written. Shared by the campaign checkpoint and the
/// profile-store manifest.
///
/// On failure returns `(op, path, source)` where `op` is `"write"`,
/// `"fsync"`, `"rename"`, or `"fsync-dir"` and `path` is the file the
/// failing operation touched, so callers can map into their own error
/// types.
pub fn atomic_write(
    path: &std::path::Path,
    contents: impl AsRef<[u8]>,
) -> Result<(), (&'static str, std::path::PathBuf, std::io::Error)> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents).map_err(|source| ("write", tmp.clone(), source))?;
    let f = std::fs::File::open(&tmp).map_err(|source| ("fsync", tmp.clone(), source))?;
    f.sync_all()
        .map_err(|source| ("fsync", tmp.clone(), source))?;
    std::fs::rename(&tmp, path).map_err(|source| ("rename", path.to_path_buf(), source))?;
    // Durability of the rename itself requires syncing the directory entry.
    // A path with no parent (or an empty one, e.g. a bare file name) means
    // the current directory.
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let d = std::fs::File::open(&dir).map_err(|source| ("fsync-dir", dir.clone(), source))?;
    d.sync_all().map_err(|source| ("fsync-dir", dir, source))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::Obj(vec![
            ("seed".to_string(), Json::U64(u64::MAX)),
            ("done".to_string(), Json::Bool(false)),
            (
                "note".to_string(),
                Json::Str("line\n\"two\" \\ λ".to_string()),
            ),
            (
                "items".to_string(),
                Json::Arr(vec![Json::Null, Json::U64(0), Json::Arr(vec![])]),
            ),
            ("empty".to_string(), Json::Obj(vec![])),
        ]);
        let text = doc.render();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn u64_max_survives_exactly() {
        let text = Json::U64(u64::MAX).render();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let doc = parse(" { \"a\" : [ 1 , true , \"x\\u0041\\n\" ] } ").unwrap();
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_bool(), Some(true));
        assert_eq!(arr[2].as_str(), Some("xA\n"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1.5").is_err());
        assert!(parse("-1").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("18446744073709551616").is_err(), "u64 overflow");
        assert!(parse("\"\\u00e").is_err(), "truncated \\u escape");
        assert!(parse("\"\\u000λ\"").is_err(), "\\u escape cut mid-char");
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "1" + &close.repeat(n);
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("{\"a\":", "}", MAX_DEPTH)).is_ok());
        let err = parse(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("byte {MAX_DEPTH}")), "{err}");
        // A legal 1 MiB protocol frame of nothing but openers.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
        assert!(parse(&"{\"a\":".repeat((1 << 20) / 5)).is_err());
        // Siblings do not accumulate depth.
        assert!(parse(&format!("[{}[]]", "[],".repeat(4 * MAX_DEPTH))).is_ok());
    }

    #[test]
    fn strings_round_trip_across_run_boundaries() {
        // Every escape `render` emits, plus 2-, 3- and 4-byte scalars.
        let atoms = [
            "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "/", "λ", "€", "🏂", "run", "",
        ];
        for a in atoms {
            for b in atoms {
                for c in atoms {
                    let s = format!("{a}{b}{c}");
                    let doc = Json::Obj(vec![(s.clone(), Json::Str(s.clone()))]);
                    assert_eq!(parse(&doc.render()).unwrap(), doc, "{s:?}");
                }
            }
        }
        // The escapes only a foreign writer emits.
        assert_eq!(
            parse("\"\\/λ\\b\\f🏂\\u03bb\\u00e9\"").unwrap().as_str(),
            Some("/λ\u{8}\u{c}🏂λé")
        );
    }

    #[test]
    fn a_mebibyte_string_parses_in_linear_time() {
        // No wall-clock assertion: a parser quadratic in the string length
        // needs many seconds here, so a regression shows as a hung suite.
        let s = "snowλboard 🏂 \\ \"q\" \n".repeat((1 << 20) / 24 + 1);
        assert!(s.len() >= 1 << 20);
        let text = Json::Arr(vec![Json::Str(s.clone()), Json::Str("x".repeat(1 << 20))]).render();
        let doc = parse(&text).unwrap();
        assert_eq!(doc.as_arr().unwrap()[0].as_str(), Some(s.as_str()));
    }

    #[test]
    fn get_on_non_object_is_none() {
        assert_eq!(Json::U64(1).get("x"), None);
        assert_eq!(Json::Arr(vec![]).as_u64(), None);
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tempfile() {
        let dir = std::env::temp_dir().join(format!("sb-obs-aw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        atomic_write(&path, "{\"v\":1}").unwrap();
        atomic_write(&path, "{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        assert!(
            !path.with_extension("tmp").exists(),
            "tempfile must not survive a successful write"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_reports_failing_operation() {
        let dir = std::env::temp_dir().join(format!("sb-obs-awf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The target is a directory: the rename must fail and be tagged.
        let target = dir.join("occupied");
        std::fs::create_dir_all(target.join("x")).unwrap();
        let (op, _, _) = atomic_write(&target, "{}").unwrap_err();
        assert_eq!(op, "rename");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The recursive-descent parser `parse` was before it was re-expressed
    /// on [`Reader`]: the reference for error strings as much as values.
    mod reference {
        use super::super::{Json, MAX_DEPTH};

        pub fn parse(input: &str) -> Result<Json, String> {
            let mut p = Parser {
                text: input,
                pos: 0,
                depth: 0,
            };
            p.skip_ws();
            let value = p.value()?;
            p.skip_ws();
            if p.pos != p.text.len() {
                return Err(format!("trailing data at byte {}", p.pos));
            }
            Ok(value)
        }

        struct Parser<'a> {
            text: &'a str,
            pos: usize,
            /// Arrays and objects currently open.
            depth: usize,
        }

        impl Parser<'_> {
            fn peek(&self) -> Option<u8> {
                self.text.as_bytes().get(self.pos).copied()
            }

            fn skip_ws(&mut self) {
                while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                    self.pos += 1;
                }
            }

            fn expect(&mut self, b: u8) -> Result<(), String> {
                if self.peek() == Some(b) {
                    self.pos += 1;
                    Ok(())
                } else {
                    Err(format!("expected '{}' at byte {}", b as char, self.pos))
                }
            }

            fn eat_keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
                if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
                    self.pos += word.len();
                    Ok(value)
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }

            fn value(&mut self) -> Result<Json, String> {
                match self.peek() {
                    Some(b'n') => self.eat_keyword("null", Json::Null),
                    Some(b't') => self.eat_keyword("true", Json::Bool(true)),
                    Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
                    Some(b'"') => self.string().map(Json::Str),
                    Some(b'[') => self.nested(Self::array),
                    Some(b'{') => self.nested(Self::object),
                    Some(b'0'..=b'9') => self.number(),
                    Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
                    None => Err("unexpected end of input".to_string()),
                }
            }

            /// Parses one array or object a nesting level down, up to [`MAX_DEPTH`].
            fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = f(self);
                self.depth -= 1;
                value
            }

            fn number(&mut self) -> Result<Json, String> {
                let start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                if matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'-' | b'+')) {
                    return Err(format!(
                        "only unsigned integers are supported (byte {})",
                        self.pos
                    ));
                }
                self.text[start..self.pos]
                    .parse::<u64>()
                    .map(Json::U64)
                    .map_err(|_| format!("integer out of range at byte {start}"))
            }

            fn string(&mut self) -> Result<String, String> {
                self.expect(b'"')?;
                let mut out = String::new();
                loop {
                    match self.peek() {
                        None => return Err("unterminated string".to_string()),
                        Some(b'"') => {
                            self.pos += 1;
                            return Ok(out);
                        }
                        Some(b'\\') => {
                            self.pos += 1;
                            match self.peek() {
                                Some(b'"') => out.push('"'),
                                Some(b'\\') => out.push('\\'),
                                Some(b'/') => out.push('/'),
                                Some(b'n') => out.push('\n'),
                                Some(b'r') => out.push('\r'),
                                Some(b't') => out.push('\t'),
                                Some(b'b') => out.push('\u{8}'),
                                Some(b'f') => out.push('\u{c}'),
                                Some(b'u') => {
                                    let hex = self
                                        .text
                                        .get(self.pos + 1..self.pos + 5)
                                        .ok_or("truncated \\u escape")?;
                                    let code = u32::from_str_radix(hex, 16)
                                        .map_err(|_| "bad \\u escape".to_string())?;
                                    out.push(
                                        char::from_u32(code)
                                            .ok_or("\\u escape is not a scalar value")?,
                                    );
                                    self.pos += 4;
                                }
                                _ => return Err(format!("bad escape at byte {}", self.pos)),
                            }
                            self.pos += 1;
                        }
                        Some(_) => {
                            // Copy the whole run up to the next delimiter at once.
                            let rest = &self.text[self.pos..];
                            let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                            out.push_str(&rest[..run]);
                            self.pos += run;
                        }
                    }
                }
            }

            fn array(&mut self) -> Result<Json, String> {
                self.expect(b'[')?;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }

            fn object(&mut self) -> Result<Json, String> {
                self.expect(b'{')?;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value()?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
        }
    }

    /// The seeded stream of the sweeps below, with the shapes they draw.
    struct Rng(sb_vmm::rng::SplitMix64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0.next_u64()
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A random document, `depth` levels at most.
        fn doc(&mut self, depth: usize) -> Json {
            const STRINGS: [&str; 8] = ["", "k", "status", "a\"b", "line\n", "\\", "λ🏂", "\u{1}"];
            match self.below(if depth == 0 { 4 } else { 6 }) {
                0 => Json::Null,
                1 => Json::Bool(self.next().is_multiple_of(2)),
                2 => Json::U64(self.next() >> self.below(64)),
                3 => Json::Str(STRINGS[self.below(STRINGS.len())].to_string()),
                4 => Json::Arr((0..self.below(4)).map(|_| self.doc(depth - 1)).collect()),
                _ => Json::Obj(
                    (0..self.below(4))
                        .map(|_| {
                            (
                                STRINGS[self.below(STRINGS.len())].to_string(),
                                self.doc(depth - 1),
                            )
                        })
                        .collect(),
                ),
            }
        }
    }

    /// Walks `text` with the public pulls alone, expecting the tree `doc`:
    /// each typed pull answers the value where the type matches and `None`
    /// where it does not, consuming the value either way.
    fn pull(r: &mut Reader<'_>, doc: &Json, wrong_type: bool) -> Result<(), String> {
        if wrong_type {
            // Ask for a type the value is not: it is skipped, whatever it is.
            return match doc {
                Json::U64(_) => r.str().map(|s| assert_eq!(s, None)),
                Json::Arr(_) => r
                    .obj(|_, _| panic!("not an object"))
                    .map(|was| assert!(!was)),
                Json::Obj(_) => r.arr(|_| panic!("not an array")).map(|was| assert!(!was)),
                _ => r.u64().map(|n| assert_eq!(n, None)),
            };
        }
        match doc {
            Json::Null | Json::Bool(_) => r.skip(),
            Json::U64(n) => r.u64().map(|got| assert_eq!(got, Some(*n))),
            Json::Str(s) => r
                .str()
                .map(|got| assert_eq!(got.as_deref(), Some(s.as_str()))),
            Json::Arr(items) => {
                let mut at = 0;
                let was = r.arr(|r| {
                    at += 1;
                    pull(r, &items[at - 1], at % 3 == 0)
                })?;
                assert!(was && at == items.len());
                Ok(())
            }
            Json::Obj(fields) => {
                let mut at = 0;
                let was = r.obj(|r, key| {
                    at += 1;
                    assert_eq!(key, fields[at - 1].0);
                    pull(r, &fields[at - 1].1, at % 3 == 0)
                })?;
                assert!(was && at == fields.len());
                Ok(())
            }
        }
    }

    /// `parse` answers what the reference answers, value or error string;
    /// `skip` + `finish` accept exactly what `parse` accepts, with its
    /// error; the typed pulls read an accepted document back.
    fn check(text: &str, what: &str) {
        let parsed = parse(text);
        assert_eq!(parsed, reference::parse(text), "{what}: {text:?}");
        let mut r = Reader::new(text);
        let skipped = r.skip().and_then(|()| r.finish());
        assert_eq!(
            skipped.as_ref().err(),
            parsed.as_ref().err(),
            "{what}: {text:?}"
        );
        if let Ok(doc) = parsed {
            assert_eq!(parse(&doc.render()).as_ref(), Ok(&doc), "{what}: {text:?}");
            let mut r = Reader::new(text);
            pull(&mut r, &doc, false)
                .and_then(|()| r.finish())
                .unwrap_or_else(|e| panic!("{what}: {e}: {text:?}"));
        }
    }

    #[test]
    fn arbitrary_bytes_parse_like_the_reference_and_never_panic() {
        const TOKENS: [&str; 24] = [
            "{",
            "}",
            "[",
            "]",
            ":",
            ",",
            "\"",
            " ",
            "\n",
            "0",
            "7",
            "18446744073709551615",
            "18446744073709551616",
            "1.5",
            "-",
            "true",
            "false",
            "null",
            "nul",
            "\"k\"",
            "\\u00e9",
            "\\n",
            "\\",
            "λ",
        ];
        let mut rng = Rng(sb_vmm::rng::SplitMix64::new(0x5EED_0021));
        for case in 0..10_000u32 {
            let what = format!("case {case} ({:x?})", rng.0);
            // Raw bytes (made a `str` the lossy way), a token soup, and a
            // rendered random document cut or flipped somewhere.
            let raw: Vec<u8> = (0..rng.below(4097)).map(|_| rng.next() as u8).collect();
            check(&String::from_utf8_lossy(&raw), &what);
            let soup: String = (0..rng.below(48))
                .map(|_| TOKENS[rng.below(TOKENS.len())])
                .collect();
            check(&soup, &what);
            let mut text = rng.doc(4).render().into_bytes();
            check(&String::from_utf8_lossy(&text), &what);
            if !text.is_empty() {
                let at = rng.below(text.len());
                match rng.below(3) {
                    0 => text.truncate(at),
                    1 => text[at] ^= [0x01, 0x04, 0x20, 0x80][rng.below(4)],
                    _ => text.insert(at, b" \t\n\r\"\\,:[]{}0"[rng.below(13)]),
                }
                check(&String::from_utf8_lossy(&text), &what);
            }
        }
    }

    #[test]
    fn every_truncation_and_flip_of_a_real_document_parses_like_the_reference() {
        let doc = Json::Obj(vec![
            ("seed".to_string(), Json::U64(u64::MAX)),
            (
                "note".to_string(),
                Json::Str("line\n\"two\" \\ λ \u{1}".to_string()),
            ),
            (
                "items".to_string(),
                Json::Arr(vec![
                    Json::Null,
                    Json::Bool(true),
                    Json::U64(0),
                    Json::Arr(vec![]),
                ]),
            ),
            (
                "nested".to_string(),
                Json::Obj(vec![("k".to_string(), Json::Obj(vec![]))]),
            ),
        ]);
        let text = doc.render().into_bytes();
        for cut in 0..=text.len() {
            check(
                &String::from_utf8_lossy(&text[..cut]),
                &format!("truncated to {cut}"),
            );
        }
        let mut flipped = text.clone();
        for at in 0..text.len() {
            for mask in [0x01, 0x04, 0x20, 0x80] {
                flipped[at] ^= mask;
                check(
                    &String::from_utf8_lossy(&flipped),
                    &format!("byte {at} ^ {mask:#04x}"),
                );
                flipped[at] ^= mask;
            }
        }
    }

    #[test]
    fn write_u64_renders_what_the_formatter_renders() {
        for n in [
            0,
            1,
            9,
            10,
            99,
            100,
            12_345,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = String::from("x");
            write_u64(n, &mut out);
            assert_eq!(out, format!("x{n}"));
        }
    }
}
