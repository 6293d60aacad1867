//! In-memory spans of traced repetitions, written out at exit.
//!
//! A span has a name, start, end and parent; calls made per fault or per
//! op are one aggregate span each (count, total, distribution) instead.
//! A span's self time is its duration minus its children's; a layer's
//! self time is the sum over the spans named `<layer>.*`.

use crate::wrap::CallStats;
use hawkeye_bench::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
enum Kind {
    Interval {
        start_ns: u64,
        end_ns: u64,
    },
    Aggregate {
        count: u64,
        total_ns: u64,
        p50_ns: u64,
        p99_ns: u64,
        max_ns: u64,
    },
}

#[derive(Debug, Clone)]
struct Span {
    parent: Option<usize>,
    name: String,
    kind: Kind,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        match &self.kind {
            Kind::Interval { start_ns, end_ns } => end_ns - start_ns,
            Kind::Aggregate { total_ns, .. } => *total_ns,
        }
    }
}

/// Every span recorded so far; ids are indices.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder; span times are nanoseconds since `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end)` under `parent`; returns its id.
    pub fn interval(
        &mut self,
        parent: Option<usize>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let kind = Kind::Interval {
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(Span {
            parent,
            name: name.to_string(),
            kind,
        });
        self.spans.len() - 1
    }

    /// Records aggregated calls under `parent`.
    pub fn aggregate(&mut self, parent: usize, name: &str, calls: &CallStats) {
        self.spans.push(Span {
            parent: Some(parent),
            name: name.to_string(),
            kind: Kind::Aggregate {
                count: calls.count,
                total_ns: calls.total_ns,
                p50_ns: calls.hist.percentile(50.0),
                p99_ns: calls.hist.percentile(99.0),
                max_ns: calls.hist.max(),
            },
        });
    }

    /// Host nanoseconds by layer (the span name before its first `.`)
    /// over the descendants of `root`, each span counting its self time.
    pub fn layer_self_ns(&self, root: usize) -> BTreeMap<String, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let under_root = |mut i: usize| loop {
            match self.spans[i].parent {
                Some(p) if p == root => return true,
                Some(p) => i = p,
                None => return false,
            }
        };
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if i != root && under_root(i) {
                let layer = s.name.split('.').next().unwrap_or(&s.name).to_string();
                *out.entry(layer).or_default() += s.duration_ns().saturating_sub(child_ns[i]);
            }
        }
        out
    }

    /// Writes every span as a JSON array to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut j = Json::obj(vec![
                    ("id", Json::int(id as u64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::int(p as u64)),
                    ),
                    ("name", Json::str(s.name.clone())),
                ]);
                match &s.kind {
                    Kind::Interval { start_ns, end_ns } => {
                        j.push("start_ns", Json::int(*start_ns));
                        j.push("end_ns", Json::int(*end_ns));
                    }
                    Kind::Aggregate {
                        count,
                        total_ns,
                        p50_ns,
                        p99_ns,
                        max_ns,
                    } => {
                        for (k, v) in [
                            ("count", count),
                            ("total_ns", total_ns),
                            ("p50_ns", p50_ns),
                            ("p99_ns", p99_ns),
                            ("max_ns", max_ns),
                        ] {
                            j.push(k, Json::int(*v));
                        }
                    }
                }
                j
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut doc = Json::Arr(spans).to_string();
        doc.push('\n');
        std::fs::write(path, doc)
    }
}
