//! In-memory spans recorded by the benchmark around the public calls it
//! makes, written out once when the run ends.
//!
//! Every span has a name, start, end, optional parent span and a group id
//! shared by all spans of one tick or request. Spans recorded on another
//! thread (the TraCI server's) name their parent explicitly.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub seq: u64,
    pub name: &'static str,
    pub group: u64,
    pub parent: Option<u64>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }

    pub fn dur_ms(&self) -> f64 {
        self.dur() as f64 / 1e6
    }
}

/// The span recorder. A disabled tracer records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; [`Tracer::end`] closes it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    seq: u64,
    name: &'static str,
    group: u64,
    parent: Option<u64>,
    start: u64,
}

impl Open {
    pub fn seq(&self) -> Option<u64> {
        (self.seq != 0).then_some(self.seq)
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, group: u64, parent: Option<u64>) -> Open {
        if !self.enabled {
            return Open {
                seq: 0,
                name,
                group,
                parent,
                start: 0,
            };
        }
        Open {
            seq: self.next.fetch_add(1, Ordering::Relaxed),
            name,
            group,
            parent,
            start: self.now(),
        }
    }

    pub fn end(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let span = Span {
            seq: open.seq,
            name: open.name,
            group: open.group,
            parent: open.parent,
            start: open.start,
            end: self.now(),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Runs `f` inside a span.
    pub fn wrap<T>(
        &self,
        name: &'static str,
        group: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, group, parent);
        let out = f();
        self.end(open);
        out
    }

    /// Drains the recorded spans in the order they were opened.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"));
        spans.sort_by_key(|s| s.seq);
        spans
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Each span's self time: its duration minus the union of its children's
/// intervals (children may overlap each other, and may run on another
/// thread). Keyed by span sequence number.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.seq)
                .map_or(0, |c| union_len(c, s.start, s.end));
            (s.seq, s.dur() - covered)
        })
        .collect()
}

/// Writes the spans as tab-separated lines, once, at the end of the run.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "seq\tname\tgroup\tparent\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.seq, s.name, s.group, parent, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            seq,
            name: "t",
            group: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,30) ⊃ b [15,20); root ⊃ c [50,60).
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(2), 15, 20),
            span(4, Some(1), 50, 60),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 20 - 10);
        assert_eq!(st[&2], 20 - 5);
        assert_eq!(st[&3], 5);
        assert_eq!(st[&4], 10);
        // Self times of a strictly nested tree add up to the root.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two children overlap on [20,30) and a third sticks out past the
        // parent's end: the parent loses [10,40) ∪ [90,100) = 40.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 40),
            span(4, Some(1), 90, 120),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 60);
        let mut touching = vec![(0, 10), (10, 20)];
        assert_eq!(union_len(&mut touching, 0, 100), 20);
        let mut disjoint = vec![(50, 60), (0, 10)];
        assert_eq!(union_len(&mut disjoint, 5, 55), 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let open = t.begin("x", 1, None);
        assert_eq!(open.seq(), None);
        t.end(open);
        assert!(t.take().is_empty());
        let on = Tracer::new(true);
        let outer = on.begin("outer", 7, None);
        on.wrap("inner", 7, outer.seq(), || ());
        on.end(outer);
        let spans = on.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].seq));
    }
}
