//! A private span/counter accumulator for one batch worker or one
//! served request.

use std::time::Instant;

use crate::PerfReport;

/// Accumulates `.time(..)` spans and `.count(..)` counters into a private
/// [`PerfReport`], summed by name like [`PerfReport::merge`], without
/// touching the global collector. Each batch worker and each served
/// connection owns one and merges it into the shared report once, so the
/// hot path takes no lock and works whether or not collection is
/// enabled.
///
/// ```
/// use cafemio_instrument::LocalClock;
///
/// let mut clock = LocalClock::at_depth(1);
/// let sum = clock.time("demo.work", || 2 + 2);
/// clock.count("demo.items", 3);
/// clock.count("demo.items", 1);
/// let report = clock.into_report();
/// assert_eq!(sum, 4);
/// assert_eq!(report.spans[0].depth, 1);
/// assert!(report.span_nanos("demo.work") >= 1);
/// assert_eq!(report.counter("demo.items"), Some(4));
/// ```
#[derive(Debug)]
pub struct LocalClock {
    depth: u32,
    report: PerfReport,
}

impl LocalClock {
    /// A clock whose spans all record at `depth`: batch stages sit at 1
    /// under the run's `batch.total`, serve stages at 0.
    pub fn at_depth(depth: u32) -> LocalClock {
        LocalClock {
            depth,
            report: PerfReport::default(),
        }
    }

    /// Runs `f` and adds its wall-clock time to the span `name`. A
    /// recorded span is clamped to at least 1 ns, so it never reads like
    /// a seeded zero.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        let nanos = u64::try_from(start.elapsed().as_nanos())
            .unwrap_or(u64::MAX)
            .max(1);
        self.report.add_span(name, self.depth, nanos);
        value
    }

    /// Adds `add` to the counter `name`.
    pub fn count(&mut self, name: &str, add: u64) {
        self.report.add_counter(name, add);
    }

    /// The accumulated spans and counters.
    pub fn into_report(self) -> PerfReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_names_sum_into_one_record() {
        let mut clock = LocalClock::at_depth(0);
        clock.time("serve.parse", || {});
        clock.time("serve.parse", || {});
        clock.count("serve.requests", 1);
        clock.count("serve.requests", 1);
        let report = clock.into_report();
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].depth, 0);
        assert!(report.spans[0].nanos >= 2);
        assert_eq!(report.counter("serve.requests"), Some(2));
    }
}
