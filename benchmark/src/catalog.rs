//! The paper's own traffic: the catalog decks, run cold one after
//! another by a single client (closed loop, no stage cache).

use std::hint::black_box;
use std::time::{Duration, Instant};

use cafemio::lint::{apply_fixes, lint_idlz_with_deck, DeckKind, LintConfig};
use cafemio::mesh::MeshIndex;
use cafemio::pipeline::{PipelineBuilder, PipelineError, StressPlot};
use cafemio::SessionConfig;
use cafemio_bench::jobs::standard_setup;
use cafemio_bench::mutate::{base_decks, SplitMix64};

use crate::cpu;
use crate::report::{Digest, Outcome};
use crate::stats::{mean, median, on_fresh_thread, percentile, sorted, us};

/// The catalog phase's inputs: every catalog deck with its reference
/// rendering's digest, and the seed that orders each round.
pub struct Catalog {
    decks: Vec<(&'static str, String, Digest)>,
    seed: u64,
}

fn builder() -> PipelineBuilder {
    PipelineBuilder::new().config(SessionConfig::new().lint(LintConfig::new()))
}

/// The whole deck, start to finish, as a user submits it.
fn run_deck(text: &str) -> Result<Vec<StressPlot>, PipelineError> {
    builder()
        .parse(text)?
        .idealize()?
        .setup(standard_setup)?
        .solve()?
        .recover()?
        .contour()
}

/// Set-up: the catalog and one cold reference run of every deck, whose
/// `Debug` rendering every later run must reproduce (kept as a digest).
pub fn setup(seed: u64) -> Result<Catalog, String> {
    let mut decks = Vec::new();
    for (name, text) in base_decks() {
        let plots = run_deck(&text).map_err(|e| format!("catalog {name}: reference run: {e}"))?;
        decks.push((name, text, Digest::of(format!("{plots:?}").as_bytes())));
    }
    if decks.is_empty() {
        return Err("the catalog is empty".into());
    }
    Ok(Catalog { decks, seed })
}

/// The generator of the per-round deck orders.
fn order_rng(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ 0xca7a_1095)
}

/// One round's deck order: a Fisher–Yates shuffle.
fn round_order(rng: &mut SplitMix64, decks: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..decks).collect();
    for i in (1..decks).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Stage-by-stage times of one deck, measured around each public call.
#[derive(Default)]
struct StageTimes {
    parse: Vec<f64>,
    idealize: Vec<f64>,
    setup: Vec<f64>,
    solve: Vec<f64>,
    recover: Vec<f64>,
    contour: Vec<f64>,
    unowned: Vec<f64>,
    elements: Vec<f64>,
    nodes: Vec<f64>,
    cards: Vec<f64>,
    lint: Vec<f64>,
    fix: Vec<f64>,
    index: Vec<f64>,
    contour_serial: Vec<f64>,
    segments: Vec<f64>,
}

/// Runs one deck with every stage call timed from outside, plus the
/// layer calls the pipeline makes internally (cards, lint, mesh index,
/// serial contour) timed directly on the same inputs. Returns the deck
/// time and the plots.
fn traced_deck(text: &str, times: &mut StageTimes) -> Result<(Duration, Vec<StressPlot>), String> {
    let err = |e: PipelineError| e.to_string();
    let deck_started = Instant::now();
    let t = Instant::now();
    let parsed = builder().parse(text).map_err(err)?;
    let parse = t.elapsed();
    let t = Instant::now();
    let idealized = parsed.idealize().map_err(err)?;
    let idealize = t.elapsed();
    let t = Instant::now();
    let ready = idealized.setup(standard_setup).map_err(err)?;
    let setup = t.elapsed();
    let t = Instant::now();
    let solved = ready.solve().map_err(err)?;
    let solve = t.elapsed();
    let t = Instant::now();
    let recovered = solved.recover().map_err(err)?;
    let recover = t.elapsed();
    let t = Instant::now();
    let plots = recovered.contour().map_err(err)?;
    let contour = t.elapsed();
    let deck = deck_started.elapsed();

    let owned = parse + idealize + setup + solve + recover + contour;
    times.parse.push(us(parse));
    times.idealize.push(us(idealize));
    times.setup.push(us(setup));
    times.solve.push(us(solve));
    times.recover.push(us(recover));
    times.contour.push(us(contour));
    times
        .unowned
        .push(deck.saturating_sub(owned).as_secs_f64() / deck.as_secs_f64());
    for mesh in idealized.meshes() {
        times.elements.push(mesh.element_count() as f64);
        times.nodes.push(mesh.node_count() as f64);
    }
    times.segments.push(
        plots
            .iter()
            .flat_map(|p| &p.contours.isograms)
            .map(|iso| iso.segments.len())
            .sum::<usize>() as f64,
    );

    // Layer calls the stages make internally, repeated from outside.
    let t = Instant::now();
    let card_deck = cafemio::cards::Deck::from_text(text).map_err(|e| e.to_string())?;
    let (specs, layouts) =
        cafemio::idlz::deck::parse_deck_with_layout(&card_deck).map_err(|e| e.to_string())?;
    times.cards.push(us(t.elapsed()));
    let config = LintConfig::new();
    let t = Instant::now();
    black_box(lint_idlz_with_deck(&card_deck, &specs, &layouts, &config));
    times.lint.push(us(t.elapsed()));
    let t = Instant::now();
    black_box(apply_fixes(text, DeckKind::Idlz, &config).map_err(|e| e.to_string())?);
    times.fix.push(us(t.elapsed()));
    let t = Instant::now();
    for mesh in idealized.meshes() {
        black_box(MeshIndex::new(mesh));
    }
    times.index.push(us(t.elapsed()));
    cafemio::instrument::par::set_parallel(false);
    let t = Instant::now();
    let serial = recovered.contour();
    times.contour_serial.push(us(t.elapsed()));
    cafemio::instrument::par::set_parallel(true);
    if serial.map_err(err)? != plots {
        return Err("serial contour differs from the parallel one".into());
    }
    Ok((deck, plots))
}

/// Decks that must be timed before the phase may report: enough for a
/// p99 with ten samples beyond it.
const MIN_DECKS: usize = 1000;

fn check(plots: &[StressPlot], reference: &Digest, name: &str) -> Result<(), String> {
    if Digest::of(format!("{plots:?}").as_bytes()) == *reference {
        Ok(())
    } else {
        Err(format!(
            "catalog {name}: plots differ from the reference run"
        ))
    }
}

/// The catalog phase, run in blocks so that its samples spread over the
/// whole run. Traced runs alternate untraced and traced rounds, so the
/// tracing overhead is measured on the same decks.
pub struct Sampler<'a> {
    catalog: &'a Catalog,
    traced: bool,
    rng: SplitMix64,
    round: usize,
    plain: Vec<f64>,
    /// Untraced CPU time of each deck (see `cpu`).
    plain_cpu: Vec<f64>,
    traced_decks: Vec<f64>,
    times: StageTimes,
    outcome: Outcome,
}

impl<'a> Sampler<'a> {
    /// Starts the phase with one untimed warm-up round.
    pub fn new(catalog: &'a Catalog, traced: bool) -> Sampler<'a> {
        let mut sampler = Sampler {
            catalog,
            traced,
            rng: order_rng(catalog.seed),
            round: 0,
            plain: Vec::new(),
            plain_cpu: Vec::new(),
            traced_decks: Vec::new(),
            times: StageTimes::default(),
            outcome: Outcome::default(),
        };
        for i in round_order(&mut sampler.rng, catalog.decks.len()) {
            let (name, text, reference) = &catalog.decks[i];
            let result = run_deck(text).map_err(|e| format!("catalog {name}: {e}"));
            if let Err(e) = result.and_then(|plots| check(&plots, reference, name)) {
                sampler.outcome.record(Err(e));
            }
        }
        sampler
    }

    /// Runs one round of every deck in a seeded order, on a fresh thread.
    pub fn one_round(&mut self) {
        let order = round_order(&mut self.rng, self.catalog.decks.len());
        let trace_round = self.traced && self.round % 2 == 1;
        self.round += 1;
        cafemio::instrument::set_enabled(trace_round);
        let Sampler {
            catalog,
            plain,
            plain_cpu,
            traced_decks,
            times,
            outcome,
            ..
        } = self;
        on_fresh_thread(|| {
            for &i in &order {
                let (name, text, reference) = &catalog.decks[i];
                let result = if trace_round {
                    traced_deck(text, times).map(|(elapsed, plots)| {
                        traced_decks.push(elapsed.as_secs_f64() * 1e3);
                        plots
                    })
                } else {
                    let (t, cpu_started) = (Instant::now(), cpu::process());
                    let plots = run_deck(text).map_err(|e| e.to_string());
                    let elapsed = t.elapsed().as_secs_f64() * 1e3;
                    let cpu_ms = (cpu::process() - cpu_started).as_secs_f64() * 1e3;
                    plots.inspect(|_| {
                        plain.push(elapsed);
                        plain_cpu.push(cpu_ms);
                    })
                };
                let result = result
                    .map_err(|e| format!("catalog {name}: {e}"))
                    .and_then(|plots| check(&plots, reference, name));
                outcome.record(result);
            }
        });
        cafemio::instrument::set_enabled(self.traced);
    }

    /// Tops the sample up to [`MIN_DECKS`] untraced decks and reports.
    pub fn finish(mut self) -> Outcome {
        while self.plain.len() < MIN_DECKS && self.outcome.failed == 0 {
            self.one_round();
        }
        let Sampler {
            traced,
            plain,
            plain_cpu,
            traced_decks,
            times,
            mut outcome,
            ..
        } = self;
        let all = sorted(&plain);
        let p50 = percentile(&all, 0.5).unwrap_or(0.0);
        let p99 = percentile(&all, 0.99).unwrap_or(0.0);
        let per_s = plain.len() as f64 * 1e3 / plain.iter().sum::<f64>().max(1e-9);
        let cpu_ms = mean(&plain_cpu).unwrap_or(0.0);
        eprintln!(
            "benchmark: {} catalog decks: {cpu_ms:.3} CPU ms each; wall p50 {p50:.3} ms, \
             p99 {p99:.3} ms, {per_s:.1} decks/s",
            all.len()
        );
        if !traced {
            outcome.e2e("deck_cpu_ms", cpu_ms, "ms");
            return outcome;
        }
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        outcome.layer("deck_p50_ms", p50, "ms");
        outcome.layer("decks_per_s", per_s, "1/s");
        outcome.layer("deck_p99_ms", p99, "ms");
        outcome.layer("cards.parse_us", med(&times.cards), "us");
        outcome.layer("lint.deck_us", med(&times.lint), "us");
        outcome.layer("lint.fix_us", med(&times.fix), "us");
        outcome.layer("idlz.idealize_us", med(&times.idealize), "us");
        outcome.layer("idlz.elements", med(&times.elements), "count");
        outcome.layer("idlz.nodes", med(&times.nodes), "count");
        outcome.layer("fem.setup_us", med(&times.setup), "us");
        outcome.layer("fem.solve_us", med(&times.solve), "us");
        outcome.layer("fem.recover_us", med(&times.recover), "us");
        outcome.layer("ospl.contour_us", med(&times.contour), "us");
        outcome.layer("ospl.contour_serial_us", med(&times.contour_serial), "us");
        outcome.layer("ospl.segments", med(&times.segments), "count");
        outcome.layer("mesh.index_build_us", med(&times.index), "us");
        outcome.layer(
            "par.contour_speedup",
            med(&times.contour_serial) / med(&times.contour).max(1e-9),
            "ratio",
        );
        outcome.layer("pipeline.parse_us", med(&times.parse), "us");
        outcome.layer("pipeline.unowned_frac", med(&times.unowned), "fraction");
        outcome.layer(
            "trace_overhead_frac",
            med(&traced_decks) / med(&plain).max(1e-9) - 1.0,
            "fraction",
        );
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orders(seed: u64) -> Vec<Vec<usize>> {
        let mut rng = order_rng(seed);
        (0..5).map(|_| round_order(&mut rng, 12)).collect()
    }

    #[test]
    fn round_orders_are_seeded_permutations() {
        let a = orders(7);
        assert_eq!(a, orders(7));
        assert_ne!(a, orders(8));
        for order in &a {
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..12).collect::<Vec<_>>());
        }
        assert_ne!(a[0], a[1], "each round is shuffled afresh");
    }
}
