//! In-memory span recorder for the traced replay.
//!
//! Spans are opened by the benchmark's own code around each call into a
//! layer's public functions and closed when their guard drops; they are kept
//! in memory and written out once, when the run ends. A disabled tracer
//! records nothing, so the same replay code runs traced and untraced and the
//! difference in wall-clock is the tracing overhead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
#[must_use = "a span closes when its guard drops"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end = self.tracer.now();
            self.tracer.spans.borrow_mut()[index].end = end;
            let closed = self.tracer.open.borrow_mut().pop();
            debug_assert_eq!(closed, Some(index), "spans close innermost first");
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&self, name: &str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        let start = self.now();
        spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent,
        });
        self.open.borrow_mut().push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let _span = self.enter(name);
        f()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus its children's durations.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration());
        }
    }
    own
}

/// Checks the span tree of `root`: every child lies inside its parent, and
/// the self times of the subtree add up to the root's duration. Returns the
/// per-name self-time totals (nanoseconds) of the subtree, the root's own
/// self time included.
pub fn check_subtree(spans: &[Span], root: usize) -> Result<BTreeMap<String, u64>, String> {
    let own = self_times(spans);
    let mut in_tree = vec![false; spans.len()];
    in_tree[root] = true;
    let mut by_name = BTreeMap::new();
    let mut total = 0u64;
    // Children are always recorded after their parent.
    for (index, span) in spans.iter().enumerate().skip(root) {
        if index != root {
            match span.parent {
                Some(parent) if in_tree[parent] => {
                    let outer = &spans[parent];
                    if span.start < outer.start || span.end > outer.end {
                        return Err(format!(
                            "span {} escapes its parent {}",
                            span.name, outer.name
                        ));
                    }
                    in_tree[index] = true;
                }
                _ => continue,
            }
        }
        *by_name.entry(span.name.clone()).or_insert(0) += own[index];
        total += own[index];
    }
    if total != spans[root].duration() {
        return Err(format!(
            "self times of {} add up to {total} ns, not {} ns",
            spans[root].name,
            spans[root].duration()
        ));
    }
    Ok(by_name)
}

/// The spans as a JSON array of `{name, start_ns, end_ns, parent}`.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (index, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if index + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{comma}",
            span.name, span.start, span.end
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_times_add_up() {
        let tracer = Tracer::new(true);
        {
            let _stage = tracer.enter("stage");
            tracer.time("a", || std::hint::black_box((0..1000).sum::<u64>()));
            {
                let _b = tracer.enter("b");
                tracer.time("a", || ());
            }
        }
        let spans = tracer.spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        let by_name = check_subtree(&spans, 0).unwrap();
        let total: u64 = by_name.values().sum();
        assert_eq!(total, spans[0].duration());
        assert_eq!(by_name.len(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        tracer.time("a", || ());
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn escaping_child_is_reported() {
        let spans = vec![
            Span {
                name: "stage".into(),
                start: 10,
                end: 20,
                parent: None,
            },
            Span {
                name: "call".into(),
                start: 15,
                end: 25,
                parent: Some(0),
            },
        ];
        assert!(check_subtree(&spans, 0).is_err());
    }
}
