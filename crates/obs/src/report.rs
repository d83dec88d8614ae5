//! The unified stats surface: [`Snapshot`] sections aggregated into a
//! [`NodeReport`].
//!
//! Before this layer existed, every caller that wanted "how did this
//! node behave" had to hand-join up to six counter structs
//! (`ClientMetrics`, `ServerMetrics`, `DriverStats`, `CacheStats`,
//! `VersionStoreStats`, `JobStats`), each with its own accessor. A
//! [`NodeReport`] is the single aggregate those accessors now return:
//! named sections of named scalar values, comparable with `==` (the
//! sim-vs-live equivalence tests rely on this) and exportable as JSON
//! through [`NodeReport::to_json`].

use crate::json::Json;

/// One scalar observation in a report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A monotonic counter or byte total.
    U64(u64),
    /// A signed value (exit codes).
    I64(i64),
    /// A rate or duration.
    F64(f64),
}

impl MetricValue {
    /// The value as a `u64` counter, if it is one.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            MetricValue::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an `f64` (counters widen losslessly up to 2^53).
    pub fn as_f64(self) -> f64 {
        match self {
            MetricValue::U64(v) => v as f64,
            MetricValue::I64(v) => v as f64,
            MetricValue::F64(v) => v,
        }
    }

    fn to_json(self) -> Json {
        match self {
            MetricValue::U64(v) => Json::U64(v),
            MetricValue::I64(v) => Json::I64(v),
            MetricValue::F64(v) => Json::F64(v),
        }
    }
}

impl From<u64> for MetricValue {
    fn from(v: u64) -> Self {
        MetricValue::U64(v)
    }
}
impl From<usize> for MetricValue {
    fn from(v: usize) -> Self {
        MetricValue::U64(v as u64)
    }
}
impl From<i64> for MetricValue {
    fn from(v: i64) -> Self {
        MetricValue::I64(v)
    }
}
impl From<i32> for MetricValue {
    fn from(v: i32) -> Self {
        MetricValue::I64(i64::from(v))
    }
}
impl From<f64> for MetricValue {
    fn from(v: f64) -> Self {
        MetricValue::F64(v)
    }
}

/// A named group of metric values — one counter struct's worth.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Section {
    /// The section name (`"client"`, `"driver"`, `"cache"`, …).
    pub name: &'static str,
    values: Vec<(&'static str, MetricValue)>,
}

impl Section {
    /// An empty section.
    pub fn new(name: &'static str) -> Self {
        Section {
            name,
            values: Vec::new(),
        }
    }

    /// Appends a value (replacing an existing key of the same name).
    pub fn put(&mut self, key: &'static str, value: impl Into<MetricValue>) {
        let value = value.into();
        if let Some(slot) = self.values.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.values.push((key, value));
        }
    }

    /// Builder-style [`put`](Self::put).
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<MetricValue>) -> Self {
        self.put(key, value);
        self
    }

    /// Looks a key up.
    pub fn get(&self, key: &str) -> Option<MetricValue> {
        self.values.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Iterates `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, MetricValue)> + '_ {
        self.values.iter().copied()
    }

    /// The section as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        for (k, v) in &self.values {
            obj.set(k, v.to_json());
        }
        obj
    }
}

/// A stats struct that can contribute a [`Section`] to a report.
///
/// Implemented by every counter aggregate in the workspace
/// (`ClientMetrics`, `ServerMetrics`, `DriverStats`, `CacheStats`,
/// `VersionStoreStats`, `JobStats`, `LinkStats`), each in its own
/// crate. Callers never join those structs by hand any more: they ask a
/// driver or node for its [`NodeReport`].
pub trait Snapshot {
    /// The fixed section name this type reports under.
    fn section_name(&self) -> &'static str;

    /// The current values as a section.
    fn snapshot(&self) -> Section;
}

/// The single aggregate a node (client or server, any deployment)
/// reports about itself: a role tag plus one section per underlying
/// counter struct.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// `"client"` or `"server"`.
    pub role: &'static str,
    sections: Vec<Section>,
}

impl NodeReport {
    /// An empty report for a role.
    pub fn new(role: &'static str) -> Self {
        NodeReport {
            role,
            sections: Vec::new(),
        }
    }

    /// Adds a snapshot of one counter struct.
    pub fn push(&mut self, source: &dyn Snapshot) {
        self.add_section(source.snapshot());
    }

    /// Builder-style [`push`](Self::push).
    #[must_use]
    pub fn with(mut self, source: &dyn Snapshot) -> Self {
        self.push(source);
        self
    }

    /// Adds an already-built section (replacing one of the same name).
    pub fn add_section(&mut self, section: Section) {
        if let Some(slot) = self.sections.iter_mut().find(|s| s.name == section.name) {
            *slot = section;
        } else {
            self.sections.push(section);
        }
    }

    /// A section by name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// All sections in insertion order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// A single value by `section`/`key`.
    pub fn get(&self, section: &str, key: &str) -> Option<MetricValue> {
        self.section(section)?.get(key)
    }

    /// A counter by `section`/`key`; missing counters read as 0 so
    /// assertions stay one-liners.
    pub fn counter(&self, section: &str, key: &str) -> u64 {
        self.get(section, key)
            .and_then(MetricValue::as_u64)
            .unwrap_or(0)
    }

    /// A value widened to `f64` (0.0 when missing).
    pub fn value(&self, section: &str, key: &str) -> f64 {
        self.get(section, key)
            .map(MetricValue::as_f64)
            .unwrap_or(0.0)
    }

    /// The report as a JSON object: `{"role": …, "<section>": {…}, …}`.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object().with("role", self.role);
        for s in &self.sections {
            obj.set(s.name, s.to_json());
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake;
    impl Snapshot for Fake {
        fn section_name(&self) -> &'static str {
            "fake"
        }
        fn snapshot(&self) -> Section {
            Section::new("fake").with("a", 1u64).with("rate", 0.5)
        }
    }

    #[test]
    fn report_aggregates_sections() {
        let r = NodeReport::new("client").with(&Fake);
        assert_eq!(r.counter("fake", "a"), 1);
        assert_eq!(r.value("fake", "rate"), 0.5);
        assert_eq!(r.counter("fake", "missing"), 0);
        assert_eq!(r.get("nope", "a"), None);
    }

    #[test]
    fn reports_compare_by_value() {
        let a = NodeReport::new("client").with(&Fake);
        let b = NodeReport::new("client").with(&Fake);
        assert_eq!(a, b);
        let c = NodeReport::new("server").with(&Fake);
        assert_ne!(a, c);
    }

    #[test]
    fn section_replacement_is_idempotent() {
        let mut r = NodeReport::new("server");
        r.add_section(Section::new("s").with("x", 1u64));
        r.add_section(Section::new("s").with("x", 2u64));
        assert_eq!(r.sections().len(), 1);
        assert_eq!(r.counter("s", "x"), 2);
    }

    #[test]
    fn json_shape() {
        let r = NodeReport::new("client").with(&Fake);
        let j = r.to_json().render();
        assert_eq!(j, "{\"role\":\"client\",\"fake\":{\"a\":1,\"rate\":0.5}}");
    }
}
