//! In-memory spans around the benchmark's own calls into each layer.
//!
//! The replay calls every layer's public function separately on the same
//! inputs the served request used, so a child span re-runs part of its
//! parent's work instead of nesting inside its interval. A layer's self
//! time is therefore its duration minus its children's durations. Spans
//! stay in memory until the run ends, then go to one JSON file.

use betalike_microdata::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `query.published.estimate`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span whose work this one re-runs a part of.
    pub parent: Option<usize>,
    /// The request (count or publish) this span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// Records spans when on; when off, [`Tracer::time`] only runs the call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs calls.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f`, recording a span named `name` around it when on. Returns
    /// the result and the span's index (for children to name as parent).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Option<usize>) {
        if !self.on {
            return (f(), None);
        }
        let start_ns = self.now_ns();
        let out = std::hint::black_box(f());
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (out, Some(self.spans.len() - 1))
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span durations (ns) grouped by layer name.
    pub fn durations(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name).or_default().push(s.ns());
        }
        out
    }

    /// Per request: the summed duration (ns) of the named layers' spans.
    pub fn per_request(&self, names: &[&str]) -> BTreeMap<u64, f64> {
        let mut out: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            *out.entry(s.request).or_default() += s.ns();
        }
        out
    }

    /// Every span as one JSON array.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("request".into(), Json::Num(s.request as f64)),
                ])
            })
            .collect();
        Json::Arr(spans)
    }
}
