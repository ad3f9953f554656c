//! The traced pass's instruments: one span type with its in-memory
//! recorder, and the counting allocator.
//!
//! Spans are recorded from the bench's side of each call into a layer's
//! public function; nothing inside the crates under test is touched.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use crate::json::Json;

/// Counting global allocator: a pass-through over [`std::alloc::System`]
/// that tallies allocations while switched on. The timed pass leaves it
/// off and pays one relaxed load per allocation.
pub(crate) mod alloc_count {
    #![allow(unsafe_code)]

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

    // Relaxed throughout: the flag and the tally are statistics and
    // publish no other data.
    static ON: AtomicBool = AtomicBool::new(false);
    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the counter updates touch
    // only atomics and never allocate.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            if ON.load(Relaxed) {
                ALLOCS.fetch_add(1, Relaxed);
            }
            // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` through this allocator with
            // this `layout`, as the caller guarantees.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            if ON.load(Relaxed) {
                ALLOCS.fetch_add(1, Relaxed);
            }
            // SAFETY: as for `dealloc`, plus the caller's guarantee that
            // `new_size` is valid for `layout`'s alignment.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    pub(crate) fn set_enabled(on: bool) {
        ON.store(on, Relaxed);
    }

    /// Allocations (and reallocations) counted so far, all threads.
    pub(crate) fn count() -> u64 {
        ALLOCS.load(Relaxed)
    }
}

/// One recorded span. `parent` indexes the span list; spans of one
/// iteration share `iteration` (set-up spans carry iteration 0 and the
/// name prefix `setup`). `allocs` counts allocations made while the span
/// was open, children included.
#[derive(Clone, Debug)]
pub(crate) struct Span {
    pub(crate) name: &'static str,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
    pub(crate) parent: Option<u32>,
    pub(crate) iteration: u32,
    pub(crate) allocs: u64,
}

impl Span {
    pub(crate) fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    iteration: u32,
}

/// Handle to the span recorder, or to nothing: the timed pass runs the
/// same workload code with a tracer that is off.
#[derive(Clone, Debug)]
pub(crate) struct Tracer(Option<Rc<RefCell<Recorder>>>);

impl Tracer {
    pub(crate) fn off() -> Self {
        Tracer(None)
    }

    pub(crate) fn on() -> Self {
        Tracer(Some(Rc::new(RefCell::new(Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }))))
    }

    pub(crate) fn is_on(&self) -> bool {
        self.0.is_some()
    }

    pub(crate) fn set_iteration(&self, iteration: u32) {
        if let Some(r) = &self.0 {
            r.borrow_mut().iteration = iteration;
        }
    }

    /// Opens a span under the innermost open one.
    pub(crate) fn enter(&self, name: &'static str) -> Option<u32> {
        let r = self.0.as_ref()?;
        let mut r = r.borrow_mut();
        let id = r.spans.len() as u32;
        let span = Span {
            name,
            start_ns: r.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: r.open.last().copied(),
            iteration: r.iteration,
            allocs: alloc_count::count(),
        };
        r.spans.push(span);
        r.open.push(id);
        Some(id)
    }

    /// Closes the span `enter` returned; spans close innermost first.
    pub(crate) fn exit(&self, id: Option<u32>) {
        let (Some(r), Some(id)) = (&self.0, id) else {
            return;
        };
        let mut r = r.borrow_mut();
        assert_eq!(r.open.pop(), Some(id), "spans must close innermost first");
        let now = r.t0.elapsed().as_nanos() as u64;
        let span = &mut r.spans[id as usize];
        span.end_ns = now;
        span.allocs = alloc_count::count() - span.allocs;
    }

    /// Runs `f` inside a span and returns its result with the wall time
    /// it took in seconds — measured whether or not the tracer is on, so
    /// the timed and the traced pass time the same region.
    pub(crate) fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.exit(id);
        (out, secs)
    }

    pub(crate) fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// The recorded spans (empty when off).
    pub(crate) fn spans(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |r| r.borrow().spans.clone())
    }
}

/// Per-iteration medians over a finished span list.
#[derive(Debug)]
pub(crate) struct SpanStats {
    spans: Vec<Span>,
    iterations: Vec<u32>,
}

impl SpanStats {
    pub(crate) fn new(spans: Vec<Span>) -> Self {
        let mut iterations: Vec<u32> = spans
            .iter()
            .filter(|s| s.name == "iteration")
            .map(|s| s.iteration)
            .collect();
        iterations.dedup();
        SpanStats { spans, iterations }
    }

    fn per_iteration(&self, f: impl Fn(&Span) -> Option<f64>) -> f64 {
        let sums: Vec<f64> = self
            .iterations
            .iter()
            .map(|&i| {
                self.spans
                    .iter()
                    .filter(|s| s.iteration == i)
                    .filter_map(&f)
                    .sum()
            })
            .collect();
        if sums.is_empty() {
            0.0
        } else {
            crate::metrics::median(&sums)
        }
    }

    /// Median over iterations of the summed duration of spans named
    /// `name`, in seconds.
    pub(crate) fn secs(&self, name: &str) -> f64 {
        self.per_iteration(|s| (s.name == name).then(|| s.ns() as f64 / 1e9))
    }

    /// Median over iterations of allocations inside spans named `name`.
    pub(crate) fn allocs(&self, name: &str) -> f64 {
        self.per_iteration(|s| (s.name == name).then_some(s.allocs as f64))
    }

    /// Set-up spans sit outside iterations: total seconds under `name`.
    pub(crate) fn setup_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e9)
            .fold(0.0, |a, b| a + b)
    }

    /// Checks the tree: every span closed, children inside their parent
    /// and in its iteration, and per iteration the self times (span minus
    /// children) summing to the root span to the nanosecond.
    pub(crate) fn check(&self) -> Result<(), String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) never closed", s.name));
            }
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                if s.start_ns < parent.start_ns
                    || s.end_ns > parent.end_ns
                    || s.iteration != parent.iteration
                {
                    return Err(format!(
                        "span {i} ({}) escapes its parent ({})",
                        s.name, parent.name
                    ));
                }
                child_ns[p as usize] += s.ns();
            }
        }
        // Parents precede their children in the list.
        let mut root_of: Vec<usize> = (0..self.spans.len()).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                root_of[i] = root_of[p as usize];
            }
        }
        for (i, root) in self.spans.iter().enumerate() {
            if root.name != "iteration" {
                continue;
            }
            let self_sum: u64 = (i..self.spans.len())
                .filter(|&j| root_of[j] == i)
                .map(|j| self.spans[j].ns() - child_ns[j])
                .sum();
            if self_sum != root.ns() {
                return Err(format!(
                    "iteration {}: self times sum to {self_sum} ns, root span is {} ns",
                    root.iteration,
                    root.ns()
                ));
            }
        }
        Ok(())
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                        ("iteration", Json::Num(f64::from(s.iteration))),
                        ("allocs", Json::Num(s.allocs as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let tr = Tracer::on();
        for i in 0..3 {
            tr.set_iteration(i);
            tr.span("iteration", || {
                tr.span("a", || {
                    tr.span("a.inner", || std::hint::black_box(1 + 1));
                });
                let open = tr.enter("b");
                tr.exit(open);
            });
        }
        let stats = SpanStats::new(tr.spans());
        assert_eq!(stats.spans.len(), 12);
        assert_eq!(stats.iterations, vec![0, 1, 2]);
        stats.check().expect("well-formed tree");
        assert_eq!(stats.spans[2].parent, Some(1));
        assert!(stats.secs("iteration") >= stats.secs("a"));
    }

    #[test]
    fn check_rejects_an_escaping_child() {
        let tr = Tracer::on();
        tr.span("iteration", || tr.span("a", || ()));
        let mut spans = tr.spans();
        spans[1].end_ns = spans[0].end_ns + 1;
        assert!(SpanStats::new(spans).check().is_err());
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing_but_still_times() {
        let tr = Tracer::off();
        let (v, secs) = tr.timed("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty() && !tr.is_on());
    }
}
