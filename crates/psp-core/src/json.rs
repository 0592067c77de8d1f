//! The one JSON writer behind every machine-readable output (no serde: the
//! build is offline). Strings are escaped, `None` and non-finite floats are
//! `null`, and every top-level document starts with `"schema": SCHEMA`.

use psp_predicate::PredOpStats;
use std::fmt;

/// Version of the document layout: the first key of every document.
pub const SCHEMA: u32 = 1;

/// A JSON value, written compactly by `Display`. Built only through `From`
/// and [`json_object!`](crate::json_object), so only this module writes JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(Repr);

#[derive(Debug, Clone, PartialEq)]
enum Repr {
    /// A number, `true`, `false`, `null` or a quoted string, already written.
    Text(String),
    Array(Vec<Json>),
    /// Keys are strings.
    Object(Vec<(Json, Json)>),
}

/// An object from `"key": value` pairs, each value converted by `Json::from`.
#[macro_export]
macro_rules! json_object {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::json::Json::from(Vec::<(&str, $crate::json::Json)>::from([
            $(($key, $crate::json::Json::from($value))),*
        ]))
    };
}

impl Json {
    /// Writes `self` as a top-level document: `"schema"` first, then an
    /// object's fields, or any other value as the `records` field.
    pub fn document(self) -> String {
        let fields = match self.0 {
            Repr::Object(fields) => fields,
            records => vec![("records".into(), Json(records))],
        };
        let schema = ("schema".into(), SCHEMA.into());
        Json(Repr::Object([vec![schema], fields].concat())).to_string()
    }
}

/// `From` impls: `type => |v| representation`, or types whose `Display` form
/// is valid JSON. A `(key, value)` list is an object, fields in order.
macro_rules! from {
    ($t:ty => |$v:ident| $repr:expr) => {
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                Json($repr)
            }
        }
    };
    ($($t:ty),*) => {$(from!($t => |v| Repr::Text(v.to_string()));)*};
}
from!(bool, i32, i64, u32, u64, u128, usize);
from!(f64 => |v| Repr::Text(if v.is_finite() { v.to_string() } else { "null".into() }));
from!(&str => |v| {
    let mut text = String::from('"');
    for c in v.chars() {
        match c {
            '"' | '\\' => text.extend(['\\', c]),
            c if (c as u32) < 0x20 => text += &format!("\\u{:04x}", c as u32),
            c => text.push(c),
        }
    }
    Repr::Text(text + "\"")
});
from!(Vec<Json> => |v| Repr::Array(v));
from!(Vec<(&str, Json)> => |v| Repr::Object(v.into_iter().map(|(k, v)| (k.into(), v)).collect()));

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or_else(|| Json(Repr::Text("null".into())), Into::into)
    }
}

from!(&PredOpStats => |p| json_object! {
    "conjoins": p.conjoins, "disjoint_tests": p.disjoint_tests, "subsume_tests": p.subsume_tests,
}.0);

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        match &self.0 {
            Repr::Text(text) => f.write_str(text),
            Repr::Array(items) => {
                let items: Vec<String> = items.iter().map(Json::to_string).collect();
                write!(f, "[{}]", items.join(","))
            }
            Repr::Object(fields) => {
                let fields: Vec<String> = fields.iter().map(|(k, v)| format!("{k}:{v}")).collect();
                write!(f, "{{{}}}", fields.join(","))
            }
        }
    }
}

#[cfg(test)]
/// A strict parser for the documents this module writes, so tests check
/// outputs by structure instead of by substring.
pub(crate) mod parse {
    use super::{Json, Repr};

    /// Parses one JSON value that spans all of `s`.
    pub(crate) fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: s.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.ws();
        match p.at == p.s.len() {
            true => Ok(v),
            false => Err(format!("trailing bytes at {}", p.at)),
        }
    }

    /// The keys of an object, in order.
    pub(crate) fn keys(v: &Json) -> Vec<String> {
        match &v.0 {
            Repr::Object(fields) => fields.iter().filter_map(|(k, _)| key(k)).collect(),
            _ => Vec::new(),
        }
    }

    /// The value of `key` in an object.
    pub(crate) fn get<'a>(v: &'a Json, name: &str) -> Option<&'a Json> {
        match &v.0 {
            Repr::Object(fields) => fields
                .iter()
                .find(|(k, _)| key(k).as_deref() == Some(name))
                .map(|(_, v)| v),
            _ => None,
        }
    }

    /// The decoded text of a string value.
    fn key(k: &Json) -> Option<String> {
        match &k.0 {
            Repr::Text(text) => Parser {
                s: text.as_bytes(),
                at: 0,
            }
            .string()
            .ok(),
            _ => None,
        }
    }

    struct Parser<'a> {
        s: &'a [u8],
        at: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
                self.at += 1;
            }
        }

        fn eat(&mut self, lit: &str) -> bool {
            let hit = self.s[self.at..].starts_with(lit.as_bytes());
            self.at += if hit { lit.len() } else { 0 };
            hit
        }

        fn expect(&mut self, lit: &str) -> Result<(), String> {
            self.ws();
            match self.eat(lit) {
                true => Ok(()),
                false => Err(format!("expected `{lit}` at {}", self.at)),
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.s.get(self.at) {
                _ if self.eat("null") => Ok(Json::from(None::<bool>)),
                _ if self.eat("true") => Ok(Json::from(true)),
                _ if self.eat("false") => Ok(Json::from(false)),
                Some(b'"') => self.string().map(|s| Json::from(s.as_str())),
                Some(b'[') => {
                    self.at += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if !self.eat("]") {
                        loop {
                            items.push(self.value()?);
                            self.ws();
                            if self.eat("]") {
                                break;
                            }
                            self.expect(",")?;
                        }
                    }
                    Ok(Json(Repr::Array(items)))
                }
                Some(b'{') => {
                    self.at += 1;
                    let mut fields = Vec::new();
                    self.ws();
                    if !self.eat("}") {
                        loop {
                            self.ws();
                            let k = Json::from(self.string()?.as_str());
                            self.expect(":")?;
                            fields.push((k, self.value()?));
                            self.ws();
                            if self.eat("}") {
                                break;
                            }
                            self.expect(",")?;
                        }
                    }
                    Ok(Json(Repr::Object(fields)))
                }
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(format!("unexpected input at {}", self.at)),
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.at;
            let is_num = |b: &u8| b.is_ascii_digit() || b"-+.eE".contains(b);
            while self.s.get(self.at).is_some_and(is_num) {
                self.at += 1;
            }
            let text = std::str::from_utf8(&self.s[start..self.at]).expect("ASCII digits");
            let digits = text.strip_prefix('-').unwrap_or(text);
            let int_part = digits.split(['.', 'e', 'E']).next().unwrap_or("");
            if int_part.is_empty() || (int_part.len() > 1 && int_part.starts_with('0')) {
                return Err(format!("malformed number `{text}` at {start}"));
            }
            match text.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Json(Repr::Text(text.into()))),
                _ => Err(format!("malformed number `{text}` at {start}")),
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect("\"")?;
            let mut out = String::new();
            loop {
                let rest = std::str::from_utf8(&self.s[self.at..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                self.at += c.len_utf8();
                match c {
                    '"' => return Ok(out),
                    '\\' => {
                        let e = *self.s.get(self.at).ok_or("unterminated escape")?;
                        self.at += 1;
                        out.push(match e {
                            b'"' => '"',
                            b'\\' => '\\',
                            b'/' => '/',
                            b'n' => '\n',
                            b't' => '\t',
                            b'r' => '\r',
                            b'b' => '\u{8}',
                            b'f' => '\u{c}',
                            b'u' => {
                                let hex = self.s.get(self.at..self.at + 4).ok_or("short \\u")?;
                                self.at += 4;
                                let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                                u32::from_str_radix(hex, 16)
                                    .ok()
                                    .and_then(char::from_u32)
                                    .ok_or(format!("bad \\u{hex}"))?
                            }
                            _ => return Err(format!("bad escape at {}", self.at)),
                        });
                    }
                    c if (c as u32) < 0x20 => return Err(format!("raw control at {}", self.at)),
                    c => out.push(c),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse::{get, keys, parse};
    use super::*;

    #[test]
    fn strings_are_escaped_and_parse_back() {
        let s = "quote \" backslash \\ newline \n tab \t bell \u{7} unicode é→";
        let written = Json::from(s).to_string();
        assert_eq!(
            written,
            "\"quote \\\" backslash \\\\ newline \\u000a tab \\u0009 bell \\u0007 unicode é→\""
        );
        assert_eq!(parse(&written), Ok(Json::from(s)));
        let key = json_object! { "k\"ey": 1 }.to_string();
        assert_eq!(key, "{\"k\\\"ey\":1}");
    }

    #[test]
    fn none_and_non_finite_floats_are_null() {
        let v = json_object! {
            "none": None::<u32>,
            "some": Some(3u32),
            "nan": f64::NAN,
            "inf": f64::INFINITY,
            "neg_inf": f64::NEG_INFINITY,
            "x": 0.25,
        };
        assert_eq!(
            v.to_string(),
            "{\"none\":null,\"some\":3,\"nan\":null,\"inf\":null,\"neg_inf\":null,\"x\":0.25}"
        );
    }

    #[test]
    fn documents_start_with_the_schema() {
        let doc = json_object! { "a": 1, "b": "two" }.document();
        assert_eq!(doc, "{\"schema\":1,\"a\":1,\"b\":\"two\"}");
        let records = Json::from(vec![Json::from(1), Json::from(2)]).document();
        assert_eq!(records, "{\"schema\":1,\"records\":[1,2]}");
        let parsed = parse(&records).unwrap();
        assert_eq!(keys(&parsed), ["schema", "records"]);
        assert_eq!(get(&parsed, "schema"), Some(&Json::from(SCHEMA)));
    }

    #[test]
    fn nested_values_round_trip_through_the_parser() {
        let v = json_object! {
            "ints": Json::from(vec![Json::from(-7i64), Json::from(u64::MAX), Json::from(0)]),
            "floats": Json::from(vec![Json::from(1.5), Json::from(-0.001), Json::from(1e21)]),
            "empty": json_object! {},
            "list": Vec::<Json>::new(),
            "flag": false,
            "pred": &PredOpStats { conjoins: 1, disjoint_tests: 2, subsume_tests: 3, ..Default::default() },
        };
        let written = v.to_string();
        let parsed = parse(&written).unwrap();
        assert_eq!(parsed.to_string(), written);
        assert_eq!(
            keys(get(&parsed, "pred").unwrap()),
            ["conjoins", "disjoint_tests", "subsume_tests"]
        );
        for bad in ["{\"a\":}", "[1,]", "01", "\"open", "{\"a\":1} x", "nul"] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
    }
}
