//! The result every run prints: named metrics with units, the operation
//! tally, and correctness.

use std::fmt::Write as _;

use cafemio::cache::StableHasher;

/// An output's length and stable 64-bit digest: what the benchmark keeps
/// of a reference answer instead of its bytes, so that its own store
/// adds little to the peak RSS of the process it measures, while the
/// check stays an equality test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    len: usize,
    hash: u64,
}

impl Digest {
    pub fn of(bytes: &[u8]) -> Digest {
        let mut hasher = StableHasher::new();
        hasher.write_bytes(bytes);
        Digest {
            len: bytes.len(),
            hash: hasher.finish(),
        }
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a phase (or a whole run) measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: decks, solves, requests.
    pub attempted: u64,
    /// Operations that errored or whose output mismatched its reference.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Counts one attempted operation, and a failure with its reason.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            // Keep the log bounded; the count is what matters.
            if self.failures.len() < 20 {
                self.failures.push(reason);
            }
        }
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.end_to_end.extend(other.end_to_end);
        self.per_layer.extend(other.per_layer);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The single result line: `correct`, `attempted`, `failed` and the
    /// chosen metric list.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, metric) in metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(metric.value),
                metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// keeps; non-finite values (never expected) become `null`.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_the_chosen_metrics() {
        let mut outcome = Outcome::default();
        outcome.record(Ok(()));
        outcome.record(Err("mismatch".into()));
        outcome.e2e("setup_s", 0.5, "s");
        outcome.layer("cache.hits", 3.0, "count");
        let line = outcome.result_line(false);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(outcome.result_line(true).contains("\"cache.hits\""));
    }

    #[test]
    fn digests_tell_outputs_apart() {
        assert_eq!(Digest::of(b"plot"), Digest::of(b"plot"));
        assert_ne!(Digest::of(b"plot"), Digest::of(b"plou"));
        assert_ne!(Digest::of(b""), Digest::of(b"\0"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
