//! A minimal JSON document model with a hand-rolled renderer.
//!
//! The build environment has no crates.io access, so — like the wire
//! codec in `shadow-proto` — serialization is written out by hand
//! rather than derived. The model covers exactly what observability
//! export needs: objects with ordered keys (reports diff cleanly),
//! arrays, strings, and the three numeric shapes our counters take.
//!
//! Rendering never panics and always produces well-formed JSON:
//! non-finite floats (which JSON cannot represent) render as `null`.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counters, byte totals).
    U64(u64),
    /// A signed integer (exit codes).
    I64(i64),
    /// A float (rates, seconds). Non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, ready for [`set`](Self::set) calls.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts (or replaces) a key in an object; ignored on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        if let Json::Obj(pairs) = self {
            let value = value.into();
            if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                pairs.push((key.to_string(), value));
            }
        }
    }

    /// Builder-style [`set`](Self::set).
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders the value as a compact JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Renders with two-space indentation (the form checked into CI
    /// artifacts, where line-based diffs matter).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => render_f64(*x, out),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    fn pretty_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.pretty_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    escape_into(k, out);
                    out.push_str(": ");
                    v.pretty_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.render_into(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        // `{}` on an f64 always produces a valid JSON number for finite
        // values (no exponent for the magnitudes counters reach).
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn escape_into(s: &str, out: &mut String) {
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

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(u64::from(v))
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}
impl From<i32> for Json {
    fn from(v: i32) -> Json {
        Json::I64(i64::from(v))
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(
            Json::U64(18_446_744_073_709_551_615).render(),
            "18446744073709551615"
        );
        assert_eq!(Json::I64(-3).render(), "-3");
        assert_eq!(Json::F64(0.5).render(), "0.5");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            Json::Str("a\"b\\c\n\u{1}".into()).render(),
            "\"a\\\"b\\\\c\\n\\u0001\""
        );
    }

    #[test]
    fn objects_keep_order_and_replace() {
        let mut o = Json::object();
        o.set("b", 1u64);
        o.set("a", 2u64);
        o.set("b", 3u64);
        assert_eq!(o.render(), "{\"b\":3,\"a\":2}");
        assert_eq!(o.get("a"), Some(&Json::U64(2)));
    }

    #[test]
    fn arrays_nest() {
        let doc = Json::object()
            .with("rows", vec![Json::object().with("x", 1u64)])
            .with("name", "t");
        assert_eq!(doc.render(), "{\"rows\":[{\"x\":1}],\"name\":\"t\"}");
    }

    #[test]
    fn pretty_is_parsable_shape() {
        let doc = Json::object()
            .with("name", "bench")
            .with("rows", vec![Json::object().with("bytes", 42u64)]);
        let p = doc.render_pretty();
        assert!(p.contains("\"name\": \"bench\""));
        assert!(p.ends_with("}\n"));
    }
}
