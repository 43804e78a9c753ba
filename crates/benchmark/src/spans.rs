//! The harness-side span recorder behind the per-layer ledger.
//!
//! A span brackets one call from the harness into a module's public
//! function. Spans are kept in memory as `{name, start, end, parent, rep}`
//! and only summarised or written once the run has ended; a layer's *self*
//! time is its span minus the part of it its child spans cover. Spans inside
//! the program are a later issue — nothing here touches program source.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// `rep` value of spans recorded outside any timed rep (setup, probes).
pub const OUTSIDE_REPS: i64 = -1;

/// One closed span. Times are nanoseconds since the recorder was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Timed rep the span belongs to, or [`OUTSIDE_REPS`].
    pub rep: i64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: i64,
}

/// Records spans on the harness thread. A disabled recorder (untraced runs)
/// costs one branch per call and records nothing.
pub struct Recorder {
    origin: Instant,
    state: Option<RefCell<State>>,
}

/// Closes its span on drop.
pub struct Guard<'a> {
    recorder: &'a Recorder,
    index: Option<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            state: enabled.then(|| {
                RefCell::new(State {
                    rep: OUTSIDE_REPS,
                    ..State::default()
                })
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Attributes spans opened from now on to timed rep `rep`.
    pub fn set_rep(&self, rep: i64) {
        if let Some(st) = &self.state {
            st.borrow_mut().rep = rep;
        }
    }

    /// Opens a span named `<module>.<call>` under the innermost open span.
    pub fn enter(&self, name: &'static str) -> Guard<'_> {
        let index = self.state.as_ref().map(|st| {
            let mut st = st.borrow_mut();
            let index = st.spans.len();
            let (parent, rep) = (st.open.last().copied(), st.rep);
            st.open.push(index);
            let now = self.origin.elapsed().as_nanos() as u64;
            st.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent,
                rep,
            });
            index
        });
        Guard {
            recorder: self,
            index,
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = self.enter(name);
        f()
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.state
            .as_ref()
            .map_or_else(Vec::new, |st| st.borrow().spans.clone())
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let (Some(index), Some(st)) = (self.index, &self.recorder.state) {
            let mut st = st.borrow_mut();
            st.spans[index].end_ns = self.recorder.origin.elapsed().as_nanos() as u64;
            // Guards are scoped, so closing order is the reverse of opening.
            st.open.retain(|i| *i != index);
        }
    }
}

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (clipped to the span).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (lo, hi) in kids.iter() {
                let lo = (*lo).max(reach);
                if *hi > lo {
                    covered += hi - lo;
                    reach = *hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name, keeping only those for which `keep` holds
/// (e.g. "inside timed reps"). Self times are computed over *all* spans
/// first, so a filtered-out child still reduces its parent's self time.
pub fn totals_by_name(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if keep(s) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 40, 70, Some(0)),
            // Overlaps `b` by 10 ns and sticks out of the parent by 20 ns:
            // the union inside `rep` is 10..100.
            span("c", 60, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 20, 10, 30, 60]);
    }

    #[test]
    fn totals_group_by_name_and_respect_the_filter() {
        let mut spans = vec![
            span("rep", 0, 100, None),
            span("x", 0, 30, Some(0)),
            span("x", 50, 60, Some(0)),
        ];
        spans[2].rep = OUTSIDE_REPS;
        let all = totals_by_name(&spans, |_| true);
        assert_eq!(
            all["x"],
            NameTotal {
                count: 2,
                total_ns: 40,
                self_ns: 40
            }
        );
        assert_eq!(all["rep"].self_ns, 60);
        let timed = totals_by_name(&spans, |s| s.rep >= 0);
        assert_eq!(timed["x"].count, 1);
        assert_eq!(
            timed["rep"].self_ns, 60,
            "a filtered child still counts as covered"
        );
    }

    #[test]
    fn recorder_nests_by_scope_and_disabled_records_nothing() {
        let r = Recorder::new(true);
        r.set_rep(3);
        {
            let _outer = r.enter("outer");
            r.time("inner", || std::hint::black_box(1 + 1));
            r.time("inner", || ());
        }
        r.set_rep(OUTSIDE_REPS);
        r.time("after", || ());
        let spans = r.spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.rep)).collect();
        assert_eq!(
            shape,
            vec![
                ("outer", None, 3),
                ("inner", Some(0), 3),
                ("inner", Some(0), 3),
                ("after", None, OUTSIDE_REPS)
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let off = Recorder::new(false);
        off.time("ignored", || ());
        assert!(!off.enabled() && off.spans().is_empty());
    }
}
