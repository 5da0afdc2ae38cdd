//! Deterministic deck mutation for fault injection.
//!
//! Takes a valid Appendix-B IDLZ deck (as text), applies one structured
//! fault — a truncation, a garbage field, a degenerate subdivision, an
//! out-of-range grid point, an over-quarter arc — and predicts which
//! pipeline [`Stage`] must report the resulting error. The fault-injection
//! suite and the CI fuzz-smoke binary drive hundreds of these mutations
//! through the staged-session pipeline
//! ([`cafemio::pipeline::PipelineBuilder`]) and assert that every failure
//! is a structured, stage-attributed
//! [`cafemio::pipeline::PipelineError`] — never a panic.
//!
//! Everything here is dependency-free and deterministic: randomness comes
//! from a [`SplitMix64`] generator seeded explicitly, so a failing case
//! reproduces from its seed alone.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cafemio::fem::{AnalysisKind, FemError, FemModel, Material};
use cafemio::idlz::deck::write_deck;
use cafemio::mesh::TriMesh;
use cafemio::pipeline::{Idealized, PipelineBuilder, PipelineError, Stage};

/// SplitMix64 — a tiny, high-quality deterministic generator
/// (Steele, Lea & Flood 2014). No dependencies, stable across platforms.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a generator from an explicit seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n` must be positive).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform float in `[lo, hi)`, from the top 53 bits of one draw.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

/// One injectable deck fault, with the stage that must report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Drop trailing cards so the deck ends mid-data-set.
    TruncateDeck,
    /// Overwrite an integer field with non-numeric characters.
    GarbageField,
    /// Collapse a Type-4 subdivision card to zero area (corners equal).
    ZeroAreaSubdivision,
    /// Point a Type-6 shape line at a grid point outside every
    /// subdivision.
    OutOfRangeGrid,
    /// Stretch an arc's chord past its diameter / flip its radius so the
    /// arc subtends more than the quarter-turn the program allows.
    WildArc,
    /// Leave the deck intact but solve it with no displacement boundary
    /// conditions, so the stiffness matrix is singular.
    SingularBc,
}

impl Fault {
    /// Every fault kind, for exhaustive sweeps.
    pub const ALL: [Fault; 6] = [
        Fault::TruncateDeck,
        Fault::GarbageField,
        Fault::ZeroAreaSubdivision,
        Fault::OutOfRangeGrid,
        Fault::WildArc,
        Fault::SingularBc,
    ];

    /// The pipeline stage that must attribute this fault's error.
    pub fn expected_stage(self) -> Stage {
        match self {
            Fault::TruncateDeck | Fault::GarbageField | Fault::ZeroAreaSubdivision => {
                Stage::DeckParse
            }
            Fault::OutOfRangeGrid | Fault::WildArc => Stage::Idealize,
            Fault::SingularBc => Stage::Solve,
        }
    }

    /// A short label for reporting.
    pub fn name(self) -> &'static str {
        match self {
            Fault::TruncateDeck => "truncate-deck",
            Fault::GarbageField => "garbage-field",
            Fault::ZeroAreaSubdivision => "zero-area-subdivision",
            Fault::OutOfRangeGrid => "out-of-range-grid",
            Fault::WildArc => "wild-arc",
            Fault::SingularBc => "singular-bc",
        }
    }
}

/// Card indices of one single-data-set deck, recovered from the fixed
/// Appendix-B layout (NSET, title, Type 3, NSBDVN × Type 4, per
/// subdivision a Type 5 plus its Type 6 lines, two Type 7 format cards).
struct Layout {
    /// Line index of the Type-3 option card.
    t3: usize,
    /// Line indices of the Type-4 subdivision cards.
    t4: Vec<usize>,
    /// Line indices of the Type-6 shape-line cards.
    t6: Vec<usize>,
}

/// Reads the integer in a fixed-width card field (FORTRAN blank = 0).
fn int_field(line: &str, start: usize, width: usize) -> i64 {
    field_str(line, start, width).trim().parse().unwrap_or(0)
}

/// Reads the real in a fixed-width card field.
fn real_field(line: &str, start: usize, width: usize) -> f64 {
    field_str(line, start, width).trim().parse().unwrap_or(0.0)
}

fn field_str(line: &str, start: usize, width: usize) -> &str {
    let end = (start + width).min(line.len());
    if start >= line.len() {
        ""
    } else {
        &line[start..end]
    }
}

/// Overwrites a fixed-width card field with right-justified text,
/// padding the line if it is shorter than the field.
fn set_field(line: &mut String, start: usize, width: usize, text: &str) {
    while line.len() < start + width {
        line.push(' ');
    }
    line.replace_range(start..start + width, &format!("{text:>width$}"));
}

fn set_int(line: &mut String, start: usize, v: i64) {
    set_field(line, start, 5, &v.to_string());
}

/// Formats a real for an F8.4 field, dropping precision if eight columns
/// cannot hold four decimals.
fn set_real(line: &mut String, start: usize, v: f64) {
    for decimals in (0..=4).rev() {
        let text = format!("{v:.decimals$}");
        if text.len() <= 8 {
            set_field(line, start, 8, &text);
            return;
        }
    }
    set_field(line, start, 8, "0.0");
}

fn layout(lines: &[String]) -> Option<Layout> {
    // Single data set only (the catalog writes one spec per deck).
    if lines.len() < 6 || int_field(&lines[0], 0, 5) != 1 {
        return None;
    }
    let t3 = 2;
    let nsbdvn = int_field(&lines[t3], 15, 5);
    if nsbdvn <= 0 {
        return None;
    }
    let nsbdvn = nsbdvn as usize;
    let t4: Vec<usize> = (t3 + 1..t3 + 1 + nsbdvn).collect();
    let mut t6 = Vec::new();
    let mut at = t3 + 1 + nsbdvn;
    for _ in 0..nsbdvn {
        let nlines = int_field(lines.get(at)?, 5, 5);
        if nlines < 0 {
            return None;
        }
        for line in 1..=nlines as usize {
            t6.push(at + line);
        }
        at += 1 + nlines as usize;
    }
    // Two trailing format cards must remain.
    if at + 2 != lines.len() || t6.last().is_some_and(|&i| i >= lines.len()) {
        return None;
    }
    Some(Layout { t3, t4, t6 })
}

/// Applies `fault` to a valid single-data-set deck, returning the mutated
/// deck text. [`Fault::SingularBc`] leaves the text unchanged — the
/// caller injects that fault at model setup instead.
///
/// # Panics
///
/// Panics when `text` is not a well-formed single-data-set deck (the
/// harness only mutates decks produced by `write_deck`).
pub fn mutate(text: &str, fault: Fault, rng: &mut SplitMix64) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let layout = layout(&lines).expect("base deck is a valid single-data-set deck");
    match fault {
        Fault::TruncateDeck => {
            // Cut 1-3 trailing cards: the deck now ends where a format
            // (or shape-line) card is expected.
            let cut = 1 + rng.below(3);
            lines.truncate(lines.len() - cut);
        }
        Fault::GarbageField => {
            // Any integer field of the Type 3 or a Type 4 card.
            let targets = 1 + layout.t4.len();
            let pick = rng.below(targets);
            let (line, col) = if pick == 0 {
                (layout.t3, 5 * rng.below(4))
            } else {
                (layout.t4[pick - 1], 5 * rng.below(5))
            };
            set_field(&mut lines[line], col, 5, "?#?@?");
        }
        Fault::ZeroAreaSubdivision => {
            // Copy the lower-left corner over the upper-right.
            let line = layout.t4[rng.below(layout.t4.len())];
            let k1 = int_field(&lines[line], 5, 5);
            let l1 = int_field(&lines[line], 10, 5);
            set_int(&mut lines[line], 15, k1);
            set_int(&mut lines[line], 20, l1);
        }
        Fault::OutOfRangeGrid => {
            // Grid coordinates far outside any subdivision.
            let line = layout.t6[rng.below(layout.t6.len())];
            set_int(&mut lines[line], 0, 97);
            set_int(&mut lines[line], 5, 98);
        }
        Fault::WildArc => {
            // Prefer a genuine arc card: stretch its chord to ~2R so the
            // sweep passes a quarter turn. Straight-line decks get a
            // negative radius instead (also an arc error).
            let arcs: Vec<usize> = layout
                .t6
                .iter()
                .copied()
                .filter(|&i| real_field(&lines[i], 52, 8) != 0.0)
                .collect();
            if arcs.is_empty() {
                // Degenerate from == to lines (a trapezoid apex) never
                // consult their radius; pick a real run.
                let runs: Vec<usize> = layout
                    .t6
                    .iter()
                    .copied()
                    .filter(|&i| {
                        (int_field(&lines[i], 0, 5), int_field(&lines[i], 5, 5))
                            != (int_field(&lines[i], 10, 5), int_field(&lines[i], 15, 5))
                    })
                    .collect();
                let line = runs[rng.below(runs.len())];
                set_real(&mut lines[line], 52, -1.0);
            } else {
                let line = arcs[rng.below(arcs.len())];
                let start_x = real_field(&lines[line], 20, 8);
                let start_y = real_field(&lines[line], 28, 8);
                let radius = real_field(&lines[line], 52, 8).abs();
                set_real(&mut lines[line], 36, start_x + 1.99 * radius);
                set_real(&mut lines[line], 44, start_y);
            }
        }
        Fault::SingularBc => {}
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// The catalog decks that survive a deck-text round trip — `write_deck`
/// does not preserve capacity limits, so specs that need
/// `Limits::unbounded` re-parse with the default Table-2 limits and are
/// excluded here. Returns `(name, deck text)` pairs.
pub fn base_decks() -> Vec<(&'static str, String)> {
    cafemio::models::catalog()
        .into_iter()
        .filter_map(|entry| {
            let deck = write_deck(&[(entry.spec)()]).ok()?;
            let text = deck.to_text();
            idealize(&text).ok()?;
            Some((entry.name, text))
        })
        .collect()
}

/// The tally of one fault-injection sweep.
pub struct SweepReport {
    /// Mutated decks driven through the pipeline.
    pub cases: usize,
    /// One line per violation (panic, missing error, or wrong stage).
    pub failures: Vec<String>,
}

/// Drives `rounds` full passes — every base deck × every fault, freshly
/// mutated each round — through the deck pipeline, recording every case
/// that panics, succeeds when it must fail, or attributes its error to
/// the wrong stage.
pub fn run_sweep(seed: u64, rounds: usize) -> SweepReport {
    let decks = base_decks();
    let mut rng = SplitMix64::new(seed);
    let mut report = SweepReport {
        cases: 0,
        failures: Vec::new(),
    };
    for _ in 0..rounds {
        for (name, text) in &decks {
            for fault in Fault::ALL {
                report.cases += 1;
                let mutated = mutate(text, fault, &mut rng);
                match catch_unwind(AssertUnwindSafe(|| exercise(&mutated, fault))) {
                    Err(_) => report
                        .failures
                        .push(format!("{name}/{}: panicked", fault.name())),
                    Ok(Err(violation)) => report
                        .failures
                        .push(format!("{name}/{}: {violation}", fault.name())),
                    Ok(Ok(())) => {}
                }
            }
        }
    }
    report
}

/// Drives deck text through parse + idealize with a staged session.
fn idealize(text: &str) -> Result<Idealized, PipelineError> {
    PipelineBuilder::new().parse(text)?.idealize()
}

/// Drives deck text end to end (through contouring) with a staged
/// session, using the given model setup.
fn drive_full(
    text: &str,
    setup: impl FnMut(&TriMesh) -> Result<FemModel, FemError>,
) -> Result<(), PipelineError> {
    idealize(text)?.setup(setup)?.solve()?.recover()?.contour()?;
    Ok(())
}

/// Runs one mutated deck and checks the structured-error contract: the
/// pipeline must fail, and the error must carry the fault's stage.
fn exercise(text: &str, fault: Fault) -> Result<(), String> {
    let err = match fault {
        // The deck is intact; the fault is an unconstrained model.
        Fault::SingularBc => drive_full(text, unconstrained_model).err(),
        _ => idealize(text).err(),
    };
    let Some(err) = err else {
        return Err("mutated deck unexpectedly succeeded".into());
    };
    if err.stage() != fault.expected_stage() {
        return Err(format!(
            "error attributed to {} instead of {}: {err}",
            err.stage(),
            fault.expected_stage()
        ));
    }
    Ok(())
}

/// A model with loads but no displacement constraints — its stiffness
/// matrix keeps the rigid-body modes and cannot be factorized. Public so
/// the batch corpus can inject the same solve-stage fault.
pub fn unconstrained_model(mesh: &TriMesh) -> Result<FemModel, FemError> {
    let mut model = FemModel::new(
        mesh.clone(),
        AnalysisKind::PlaneStress { thickness: 1.0 },
        Material::isotropic(30.0e6, 0.3),
    );
    if let Some((id, _)) = mesh.nodes().next() {
        model.add_force(id, 1.0, 0.0);
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn some_catalog_decks_round_trip() {
        let decks = base_decks();
        assert!(
            decks.len() >= 4,
            "only {} catalog decks round-trip",
            decks.len()
        );
    }

    #[test]
    fn every_fault_mutates_or_preserves_as_specified() {
        let decks = base_decks();
        let (_, text) = &decks[0];
        let mut rng = SplitMix64::new(42);
        for fault in Fault::ALL {
            let mutated = mutate(text, fault, &mut rng);
            if fault == Fault::SingularBc {
                assert_eq!(&mutated, text);
            } else {
                assert_ne!(&mutated, text, "{} left the deck intact", fault.name());
            }
        }
    }

    #[test]
    fn mutated_decks_fail_at_the_expected_stage() {
        let decks = base_decks();
        let mut rng = SplitMix64::new(1);
        for (name, text) in &decks {
            for fault in [
                Fault::TruncateDeck,
                Fault::GarbageField,
                Fault::ZeroAreaSubdivision,
                Fault::OutOfRangeGrid,
                Fault::WildArc,
            ] {
                let mutated = mutate(text, fault, &mut rng);
                let err = idealize(&mutated)
                    .expect_err(&format!("{name}/{} still idealizes", fault.name()));
                assert_eq!(
                    err.stage(),
                    fault.expected_stage(),
                    "{name}/{}: {err}",
                    fault.name()
                );
            }
        }
    }
}
