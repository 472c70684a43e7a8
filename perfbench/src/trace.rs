//! Spans recorded around calls into each layer, their self times, and the
//! ledger that splits an end-to-end time into stages plus a remainder.
//!
//! Spans are kept in memory on the thread that records them. A span's
//! self time is its duration minus the part of it covered by its child
//! spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span, times in seconds from the tracer's start.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `adamine.forward`.
    pub name: &'static str,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.open.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let start = self.origin.elapsed().as_secs_f64();
            spans.push(Span {
                name,
                start,
                end: start,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Number of spans.
    pub count: usize,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed self times, seconds.
    pub self_s: f64,
}

impl Totals {
    /// Mean duration per span, in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s * 1e3 / self.count as f64
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut sum = 0.0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            sum += e - s;
            cursor = e;
        }
    }
    sum
}

/// Totals per span name, with self times.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let dur = s.end - s.start;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += dur;
        t.self_s += dur - covered(kids, s.start, s.end);
    }
    out
}

/// An end-to-end time split into named stages plus the remainder none of
/// them accounts for; the stages and the remainder sum to the total. A
/// negative remainder means the stages were timed in a slower spell of
/// the machine than the total (they come from a separate, traced pass).
#[derive(Clone, Debug, PartialEq)]
pub struct Ledger {
    /// End-to-end time being explained.
    pub total: f64,
    /// Named stage times, in the same unit.
    pub stages: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// Time no stage accounts for.
    pub fn remainder(&self) -> f64 {
        self.total - self.stages.iter().map(|(_, t)| t).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // step [0,10] with children [1,3] and [2,6] (overlapping: 5 covered)
        // and [8,9]; one grandchild [1.5,2.5] under the first child.
        let spans = vec![
            span("step", 0.0, 10.0, None),
            span("fwd", 1.0, 3.0, Some(0)),
            span("fwd", 2.0, 6.0, Some(0)),
            span("bwd", 8.0, 9.0, Some(0)),
            span("kernel", 1.5, 2.5, Some(1)),
        ];
        let t = totals(&spans);
        assert_eq!(t["step"].count, 1);
        assert!((t["step"].self_s - 4.0).abs() < 1e-12); // 10 - (5 + 1)
        assert!((t["fwd"].total_s - 6.0).abs() < 1e-12);
        assert!((t["fwd"].self_s - 5.0).abs() < 1e-12); // 2 - 1, then 4 - 0
        assert!((t["bwd"].self_s - 1.0).abs() < 1e-12);
        assert!((t["kernel"].self_s - 1.0).abs() < 1e-12);
        assert!((t["fwd"].mean_ms() - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn recorded_spans_nest() {
        let tr = Tracer::default();
        let v = tr.span("outer", || tr.span("inner", || 7) + 1);
        assert_eq!(v, 8);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let t = totals(&spans);
        assert!(t["outer"].self_s <= t["outer"].total_s);
    }

    #[test]
    fn stages_plus_remainder_equal_the_total() {
        let l = Ledger {
            total: 10.0,
            stages: vec![("a", 3.0), ("b", 4.5)],
        };
        assert!((l.remainder() - 2.5).abs() < 1e-12);
        let sum: f64 = l.stages.iter().map(|(_, t)| t).sum::<f64>() + l.remainder();
        assert!((sum - l.total).abs() < 1e-12);
        let over = Ledger {
            total: 10.0,
            stages: vec![("a", 7.0), ("b", 4.0)],
        };
        assert!((over.remainder() + 1.0).abs() < 1e-12);
    }
}
