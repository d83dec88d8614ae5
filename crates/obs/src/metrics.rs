//! A registry of named counters, gauges, and fixed-bucket histograms.
//!
//! The registry never reads a clock: time-derived values (gauge
//! sampling, span durations) are computed by the caller from the
//! driver-`Clock`-provided `now_ms` and handed in, which is what keeps
//! this crate admissible under the sans-io wall-clock lint.

use crate::json::Json;
use crate::report::Section;

/// A fixed-bucket histogram: counts of observations falling at or below
/// each configured upper bound, plus an overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// A histogram with the given ascending upper bounds (inclusive).
    /// Bounds are sorted and deduplicated, so any order is accepted.
    pub fn new(mut bounds: Vec<u64>) -> Self {
        bounds.sort_unstable();
        bounds.dedup();
        let counts = vec![0; bounds.len()];
        Histogram {
            bounds,
            counts,
            overflow: 0,
            total: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
        match self.bounds.iter().position(|&b| value <= b) {
            Some(i) => {
                if let Some(c) = self.counts.get_mut(i) {
                    *c += 1;
                }
            }
            None => self.overflow += 1,
        }
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// `(upper_bound, count)` per bucket, in ascending bound order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bounds.iter().copied().zip(self.counts.iter().copied())
    }

    /// Observations above the largest bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The histogram as `{"buckets": [{"le": …, "count": …}, …],
    /// "overflow": …, "count": …, "sum": …}`.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .buckets()
            .map(|(le, count)| Json::object().with("le", le).with("count", count))
            .collect();
        Json::object()
            .with("buckets", rows)
            .with("overflow", self.overflow)
            .with("count", self.total)
            .with("sum", self.sum)
    }
}

/// Named counters, gauges, and histograms for one subsystem.
///
/// Counters only go up; gauges are set to the latest sample; histograms
/// must be created once with [`histogram`](Self::histogram) before
/// being observed into. Lookups allocate nothing on the hot path beyond
/// the first registration of each name.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, i64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a counter, creating it at zero first if needed.
    pub fn inc(&mut self, name: &'static str, delta: u64) {
        if let Some(slot) = self.counters.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = slot.1.saturating_add(delta);
        } else {
            self.counters.push((name, delta));
        }
    }

    /// Reads a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sets a gauge to its latest sampled value.
    pub fn set_gauge(&mut self, name: &'static str, value: i64) {
        if let Some(slot) = self.gauges.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.gauges.push((name, value));
        }
    }

    /// Reads a gauge (0 when never set).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Registers a histogram with the given bucket upper bounds. A
    /// second registration under the same name keeps the existing
    /// histogram (observations are never silently discarded).
    pub fn histogram(&mut self, name: &'static str, bounds: Vec<u64>) {
        if !self.histograms.iter().any(|(n, _)| *n == name) {
            self.histograms.push((name, Histogram::new(bounds)));
        }
    }

    /// Records an observation into a registered histogram; observations
    /// into unregistered names are dropped.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(slot) = self.histograms.iter_mut().find(|(n, _)| *n == name) {
            slot.1.observe(value);
        }
    }

    /// A registered histogram, if present.
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }

    /// Counters and gauges as a [`Section`] (histograms contribute
    /// their count and sum, since sections hold scalars).
    pub fn to_section(&self, name: &'static str) -> Section {
        let mut s = Section::new(name);
        for (n, v) in &self.counters {
            s.put(n, *v);
        }
        for (n, v) in &self.gauges {
            s.put(n, *v);
        }
        for (n, h) in &self.histograms {
            s.put(n, h.count());
        }
        s
    }

    /// The full registry — histograms included, bucket by bucket — as a
    /// JSON object.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::object();
        for (n, v) in &self.counters {
            counters.set(n, *v);
        }
        let mut gauges = Json::object();
        for (n, v) in &self.gauges {
            gauges.set(n, *v);
        }
        let mut histograms = Json::object();
        for (n, h) in &self.histograms {
            histograms.set(n, h.to_json());
        }
        Json::object()
            .with("counters", counters)
            .with("gauges", gauges)
            .with("histograms", histograms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.inc("polls", 1);
        m.inc("polls", 2);
        assert_eq!(m.counter("polls"), 3);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn gauges_take_latest() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("sessions_live", 2);
        m.set_gauge("sessions_live", 1);
        assert_eq!(m.gauge("sessions_live"), 1);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(vec![10, 100]);
        h.observe(5);
        h.observe(10);
        h.observe(50);
        h.observe(1000);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1065);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets, vec![(10, 2), (100, 1)]);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn registry_histograms_require_registration() {
        let mut m = MetricsRegistry::new();
        m.observe("frame_bytes", 7); // dropped: not registered
        m.histogram("frame_bytes", vec![64, 1024]);
        m.observe("frame_bytes", 7);
        assert_eq!(
            m.get_histogram("frame_bytes").map(Histogram::count),
            Some(1)
        );
    }

    #[test]
    fn registry_exports_section_and_json() {
        let mut m = MetricsRegistry::new();
        m.inc("polls", 4);
        m.set_gauge("live", -1);
        m.histogram("sizes", vec![8]);
        m.observe("sizes", 3);
        let s = m.to_section("server_runtime");
        assert_eq!(s.get("polls").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(s.get("sizes").and_then(|v| v.as_u64()), Some(1));
        let j = m.to_json();
        assert_eq!(
            j.get("counters").and_then(|c| c.get("polls")),
            Some(&Json::U64(4))
        );
        assert_eq!(
            j.get("gauges").and_then(|g| g.get("live")),
            Some(&Json::I64(-1))
        );
        assert!(j.get("histograms").and_then(|h| h.get("sizes")).is_some());
    }
}
