//! # cafemio-instrument
//!
//! Stage-level observability for the cafemio pipeline, plus the
//! deterministic parallelism helper the hot paths share.
//!
//! The paper's programs ran as overnight batch jobs where the only
//! "profile" was the operator's wall clock. Growing the reproduction into
//! a system that is "fast as the hardware allows" needs per-stage cost
//! visibility first: this crate provides **timing spans** (RAII guards
//! recording wall-clock durations with nesting depth), **stage counters**
//! (node counts, bandwidths, isogram segment totals), and a
//! [`PerfReport`] that serializes both to JSON — the machine-readable
//! artifact every perf PR benchmarks against.
//!
//! Instrumentation is **off by default and near-free when off**: a
//! disabled [`span`] records nothing and takes no lock (it only maintains
//! the thread-local open-span name stack behind [`active_spans`], one
//! clock read and one push), and a disabled [`counter`] is a single
//! relaxed atomic load. Turn collection on around the region you care
//! about, then drain with [`take_report`]:
//!
//! ```
//! cafemio_instrument::set_enabled(true);
//! {
//!     let _outer = cafemio_instrument::span("demo.outer");
//!     let _inner = cafemio_instrument::span("demo.inner");
//!     cafemio_instrument::counter("demo.items", 3);
//! }
//! let report = cafemio_instrument::take_report();
//! cafemio_instrument::set_enabled(false);
//! assert_eq!(report.spans.len(), 2);
//! assert_eq!(report.spans[0].name, "demo.outer");
//! assert_eq!(report.spans[1].depth, 1);
//! let json = report.to_json();
//! let back = cafemio_instrument::PerfReport::from_json(&json).unwrap();
//! assert_eq!(report, back);
//! ```
//!
//! The [`par`] module hosts [`par::parallel_map`], an ordered,
//! deterministic fork/join map over slices built on [`std::thread::scope`]
//! — no external dependency — used by `cafemio-fem` (per-element stiffness
//! computation) and `cafemio-ospl` (per-level isogram extraction). Its
//! output is *bit-identical* to the serial path because results are
//! concatenated in input order and every reduction stays serial.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod json;
pub mod names;
pub mod par;
mod report;
mod span;

pub use clock::LocalClock;
pub use report::{CounterRecord, PerfReport, ReportError, SpanRecord};
pub use span::{
    active_spans, counter, is_enabled, set_enabled, span, take_report, ActiveSpan, Span,
};
