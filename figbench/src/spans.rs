//! In-memory spans recorded from outside the program, around the calls
//! into each layer's public functions, and the interval arithmetic that
//! turns them into self times.
//!
//! A traced pass keeps every span in memory and writes them out as
//! `span` lines when the pass ends; the parent process parses them back.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The traced run this span belongs to; every span of a pass shares it.
    pub run: u64,
    pub id: u64,
    /// The span whose work caused this one, if any.
    pub parent: Option<u64>,
    /// The layer: `section`, `store`, `capture`, `replay`, `pair`,
    /// `functional`, `streams` or `battery`.
    pub layer: String,
    /// The section name for `section` spans, `-` otherwise.
    pub label: String,
    /// The trace content hash a `store` span served, 0 elsewhere.
    pub key: u64,
    /// Nanoseconds since the pass's epoch.
    pub start: u64,
    pub end: u64,
    /// Work done inside the span: simulated instructions, or values
    /// tested for `battery` spans.
    pub work: u64,
}

impl Span {
    pub fn line(&self) -> String {
        let parent = self.parent.map_or("-".to_string(), |p| p.to_string());
        format!(
            "span {} {} {} {} {} {:x} {} {} {}",
            self.run,
            self.id,
            parent,
            self.layer,
            self.label,
            self.key,
            self.start,
            self.end,
            self.work
        )
    }

    /// Parses the fields after the `span` tag of [`Span::line`].
    pub fn parse(fields: &[&str]) -> Option<Span> {
        let [run, id, parent, layer, label, key, start, end, work] = fields else {
            return None;
        };
        Some(Span {
            run: run.parse().ok()?,
            id: id.parse().ok()?,
            parent: match *parent {
                "-" => None,
                p => Some(p.parse().ok()?),
            },
            layer: layer.to_string(),
            label: label.to_string(),
            key: u64::from_str_radix(key, 16).ok()?,
            start: start.parse().ok()?,
            end: end.parse().ok()?,
            work: work.parse().ok()?,
        })
    }

    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// Records spans from any worker thread.
#[derive(Debug)]
pub struct Tracer {
    run: u64,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(run: u64) -> Tracer {
        Tracer {
            run,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a pass lasts under 584 years")
    }

    /// Times `f`, which receives the new span's id (the parent of any
    /// span it opens) and returns its result plus the work it did.
    pub fn span<R>(
        &self,
        layer: &str,
        label: &str,
        key: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> (R, u64),
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let (result, work) = f(id);
        let end = self.now();
        self.spans.lock().expect("span list lock").push(Span {
            run: self.run,
            id,
            parent,
            layer: layer.to_string(),
            label: label.to_string(),
            key,
            start,
            end,
            work,
        });
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("span list lock");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Total length of the union of `[start, end)` intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// The part of `span`'s interval its direct children cover, in ns.
pub fn covered_ns(span: &Span, spans: &[Span]) -> u64 {
    union_ns(
        spans
            .iter()
            .filter(|c| c.parent == Some(span.id))
            .map(|c| (c.start.max(span.start), c.end.min(span.end)))
            .filter(|(s, e)| s < e)
            .collect(),
    )
}

/// A span's duration minus the time its children cover, in seconds.
pub fn self_secs(span: &Span, spans: &[Span]) -> f64 {
    (span.end - span.start - covered_ns(span, spans)) as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            run: 7,
            id,
            parent,
            layer: "store".into(),
            label: "-".into(),
            key: 0xab,
            start,
            end,
            work: 3,
        }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(vec![(5, 10), (0, 2), (8, 12), (12, 13)]), 2 + 8);
        assert_eq!(union_ns(Vec::new()), 0);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 60),
            span(4, Some(2), 0, 1000),
        ];
        assert_eq!(covered_ns(&spans[0], &spans), 50);
        assert!((self_secs(&spans[0], &spans) - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn span_lines_round_trip() {
        let s = span(9, Some(4), 11, 22);
        let line = s.line();
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields[0], "span");
        assert_eq!(Span::parse(&fields[1..]), Some(s));
    }
}
