//! Deck-service traffic: a seeded open-loop request mix against an
//! in-process server, every 200 body checked against an answer computed
//! directly in set-up.
//!
//! Every workload sends the same seeded sequence — new decks, contours
//! and edits of recent ones, exact repeats, lint — and only the server's
//! stage-cache budget differs: the daemon's default, so the cache is
//! read and written, or zero, so every request computes from scratch.
//! The difference between the two isolates what the cache buys.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cafemio::batch::BatchOptions;
use cafemio::cache::StageCache;
use cafemio::instrument::PerfReport;
use cafemio::lint::{apply_fixes, fix_cases, DeckKind, LintConfig, LintError};
use cafemio::pipeline::{PipelineBuilder, StressPlot};
use cafemio::plotter::render_svg;
use cafemio::SessionConfig;
use cafemio_bench::mutate::{base_decks, SplitMix64};
use cafemio_serve::http::percent_encode;
use cafemio_serve::{analysis_summary_json, default_setup, lint_json, ServeOptions, Server};

use crate::cpu;
use crate::http::{exchange, Response};
use crate::openloop::{drive, poisson_schedule, Timing};
use crate::report::{Digest, Outcome};
use crate::stats::{median, percentile, sorted, us};

/// Connections in flight at once: one per sender thread, no more than
/// the two cores the benchmark is sized for.
pub const SENDERS: usize = 2;
/// The p99 latency limit a ladder rate must meet: about ten times a
/// cold deck's service time, so that what fails a rung is a growing
/// queue rather than one scheduler stall on a shared two-core machine.
pub const LIMIT_MS: f64 = 50.0;

/// Request kinds. Each is drawn with the same probability: no observed
/// request shares exist for this service, so none is weighted above
/// another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `/analyze` of a catalog deck with one Type-6 shape line nudged by
    /// a hair, so its content is new and every cache layer misses.
    Analyze,
    /// `/contour` of a recently sent deck: with the cache, every stage
    /// answers from it and the SVG is rendered.
    Contour,
    /// An exact repeat of a recent request: a response-cache read.
    Hit,
    /// A recent deck with one more shape line nudged: stage-cache writes
    /// beside partial reuse by the incremental idealizer.
    Edit,
    /// `/lint` of a fix-corpus "before" deck: no dispatcher, no cache.
    Lint,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Analyze,
        Kind::Contour,
        Kind::Hit,
        Kind::Edit,
        Kind::Lint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Analyze => "analyze",
            Kind::Contour => "contour",
            Kind::Hit => "hit",
            Kind::Edit => "edit",
            Kind::Lint => "lint",
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub kind: Kind,
    pub target: String,
    /// Index into [`Plan::bodies`].
    pub body: usize,
    /// Index into [`Plan::expected`].
    pub expected: usize,
}

/// What a 200 must carry. Only a digest of each expected body is kept,
/// so the benchmark's own references add little to the peak RSS of the
/// process it measures.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// The body, computed directly.
    Body(Digest),
    /// A `/lint` answer. The body writer is internal to the service, so
    /// the direct check is the fix count and the residual-lint JSON
    /// fragment; the body served in set-up pins every later one.
    Lint {
        fixes: usize,
        lint_fragment: String,
        served: Option<Digest>,
    },
}

/// Requests sent, unmeasured, before the first rung.
pub const WARMUP: usize = 150;
/// Blocks that `low` and `high` alternate in.
pub const BLOCKS: usize = 4;

/// One fixed-rate stretch of the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    pub name: String,
    pub rate: f64,
    pub due: Vec<Duration>,
    pub requests: Vec<Request>,
}

/// The generated traffic: bodies, references and the phases.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub bodies: Vec<String>,
    pub expected: Vec<Expected>,
    pub phases: Vec<Phase>,
    /// Requests served once in set-up: every catalog deck, and every
    /// lint case, which pins the `/lint` reference bodies.
    pub warmup: Vec<Request>,
}

/// A catalog deck with the card indices of its straight shape lines.
struct Base {
    name: &'static str,
    text: String,
    straight: Vec<usize>,
}

/// Card indices of the straight (zero-radius) Type-6 cards.
fn straight_cards(text: &str) -> Vec<usize> {
    let Ok(deck) = cafemio::cards::Deck::from_text(text) else {
        return Vec::new();
    };
    let Ok((_, layouts)) = cafemio::idlz::deck::parse_deck_with_layout(&deck) else {
        return Vec::new();
    };
    let lines: Vec<&str> = text.lines().collect();
    layouts
        .iter()
        .flat_map(|l| &l.shape_groups)
        .flat_map(|g| &g.line_cards)
        .copied()
        .filter(|&card| {
            lines
                .get(card)
                .and_then(|line| line.get(52..60))
                .and_then(|radius| radius.trim().parse::<f64>().ok())
                == Some(0.0)
        })
        .collect()
}

/// Moves the start-`y` field (columns 29–36, `F8.4`) of card `card` by
/// `steps` units of the finest decimal that still fits the field: 1e-6
/// for a coordinate under ten. `None` when the card has no such field.
pub fn nudge(text: &str, card: usize, steps: u32) -> Option<String> {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let line = lines.get_mut(card)?;
    let field = line.get(28..36)?;
    let value: f64 = field.trim().parse().ok()?;
    let whole = format!("{:.0}", value.abs().trunc()).len() + usize::from(value < 0.0);
    let decimals = 8usize.checked_sub(whole + 1)?.min(6);
    let moved = value + f64::from(steps) * 10f64.powi(-(decimals as i32));
    let formatted = format!("{moved:>8.decimals$}");
    if formatted.len() != 8 {
        return None;
    }
    line.replace_range(28..36, &formatted);
    let mut out = lines.join("\n");
    if text.ends_with('\n') {
        out.push('\n');
    }
    Some(out)
}

/// The direct answer to `/analyze` of `text`: the session the service
/// runs, without the service.
fn direct(text: &str) -> Result<(Option<cafemio::lint::LintReport>, Vec<StressPlot>), String> {
    let parsed = PipelineBuilder::new()
        .config(SessionConfig::new().lint(LintConfig::new()))
        .parse(text)
        .map_err(|e| e.to_string())?;
    let lint = parsed.lint_report().cloned();
    let plots = parsed
        .idealize()
        .and_then(|i| i.setup(default_setup))
        .and_then(|m| m.solve())
        .and_then(|s| s.recover())
        .and_then(|r| r.contour())
        .map_err(|e| e.to_string())?;
    Ok((lint, plots))
}

/// What a request's reference is computed from, before set-up
/// computes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Need {
    /// The `/analyze` summary of a body under its base deck's name.
    Summary(usize),
    /// The `/contour` SVG of a body's first data set.
    Svg(usize),
    /// A reference already in hand: the catalog decks' and lint cases'.
    Ready,
}

/// A deck the plan has already sent, kept for contours, edits and
/// repeats.
struct Recent {
    base: usize,
    body: usize,
}

const RECENT: usize = 16;

/// The seeded request sequence. Which nudged decks analyze cleanly is
/// only known once they are computed, so decks found to fail are
/// `banned` and the sequence is drawn again; the draw depends on the
/// seed and the (deterministic) banned set alone.
struct Generator<'a> {
    rng: SplitMix64,
    bases: &'a [Base],
    banned: &'a HashSet<String>,
    next_variant: Vec<u32>,
    bodies: Vec<String>,
    body_base: Vec<usize>,
    seen: HashSet<String>,
    needs: Vec<Need>,
    recent: VecDeque<Recent>,
    repeatable: VecDeque<Request>,
    lint_cases: &'a [Request],
    /// The reference of each contoured body, by body.
    svgs: HashMap<usize, usize>,
}

impl Generator<'_> {
    fn body(&mut self, text: String, base: usize) -> usize {
        self.seen.insert(text.clone());
        self.bodies.push(text);
        self.body_base.push(base);
        self.bodies.len() - 1
    }

    fn need(&mut self, need: Need) -> usize {
        self.needs.push(need);
        self.needs.len() - 1
    }

    /// Registers a new deck `text` of base `base` as an `/analyze`
    /// request of `kind`, unless it was sent before or is known to fail.
    fn admit(&mut self, base: usize, text: String, kind: Kind) -> Option<Request> {
        if self.seen.contains(&text) || self.banned.contains(&text) {
            return None;
        }
        let body = self.body(text, base);
        let expected = self.need(Need::Summary(body));
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(Recent { base, body });
        Some(Request {
            kind,
            target: analyze_target(self.bases[base].name),
            body,
            expected,
        })
    }

    /// A catalog deck with one straight line nudged, never sent before.
    fn fresh(&mut self) -> Request {
        loop {
            let base = self.rng.below(self.bases.len());
            let lines = self.bases[base].straight.len();
            if lines == 0 {
                continue;
            }
            let v = self.next_variant[base];
            self.next_variant[base] += 1;
            let card = self.bases[base].straight[v as usize % lines];
            let steps = 1 + v / lines as u32;
            if let Some(text) = nudge(&self.bases[base].text, card, steps) {
                if let Some(request) = self.admit(base, text, Kind::Analyze) {
                    return request;
                }
            }
        }
    }

    fn edit(&mut self) -> Option<Request> {
        let pick = self.recent.get(self.rng.below(self.recent.len().max(1)))?;
        let (base, body) = (pick.base, pick.body);
        let straight = &self.bases[base].straight;
        let first = self.rng.below(straight.len().max(1));
        for k in 0..straight.len() {
            let card = straight[(first + k) % straight.len()];
            if let Some(text) = nudge(&self.bodies[body], card, 1) {
                if let Some(request) = self.admit(base, text, Kind::Edit) {
                    return Some(request);
                }
            }
        }
        None
    }

    fn contour(&mut self) -> Option<Request> {
        let pick = self.recent.get(self.rng.below(self.recent.len().max(1)))?;
        let (base, body) = (pick.base, pick.body);
        let name = self.bases[base].name;
        let expected = match self.svgs.get(&body) {
            Some(&expected) => expected,
            None => {
                let expected = self.need(Need::Svg(body));
                self.svgs.insert(body, expected);
                expected
            }
        };
        Some(Request {
            kind: Kind::Contour,
            target: format!("/contour?name={}", percent_encode(name)),
            body,
            expected,
        })
    }

    fn next(&mut self) -> Request {
        let kind = Kind::ALL[self.rng.below(Kind::ALL.len())];
        let request = match kind {
            Kind::Analyze => Some(self.fresh()),
            Kind::Contour => self.contour(),
            Kind::Edit => self.edit(),
            Kind::Hit => self
                .repeatable
                .get(self.rng.below(self.repeatable.len().max(1)))
                .map(|r| Request {
                    kind: Kind::Hit,
                    ..r.clone()
                }),
            Kind::Lint => {
                let i = self.rng.below(self.lint_cases.len());
                Some(self.lint_cases[i].clone())
            }
        };
        // Early in the plan there may be nothing recent to reuse yet.
        let request = request.unwrap_or_else(|| self.fresh());
        if matches!(request.kind, Kind::Analyze | Kind::Contour | Kind::Edit) {
            if self.repeatable.len() == 2 * RECENT {
                self.repeatable.pop_front();
            }
            self.repeatable.push_back(request.clone());
        }
        request
    }
}

fn analyze_target(name: &str) -> String {
    format!("/analyze?name={}", percent_encode(name))
}

/// Digests of the direct answers for one deck text.
struct Answer {
    summary: Digest,
    svg: Option<Digest>,
}

/// Computes the direct answers for `jobs` (text, name, svg wanted) on
/// [`SENDERS`] threads; `Err` carries the text of a deck that failed.
fn answer_all(jobs: Vec<(String, &'static str, bool)>) -> Vec<Result<(String, Answer), String>> {
    let chunk = jobs.len().div_ceil(SENDERS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|(text, name, svg)| match direct(text) {
                            Ok((lint, plots)) => Ok((
                                text.clone(),
                                Answer {
                                    summary: Digest::of(
                                        analysis_summary_json(name, &plots, lint.as_ref())
                                            .as_bytes(),
                                    ),
                                    svg: svg
                                        .then(|| {
                                            plots.first().map(|p| render_svg(&p.contours.frame))
                                        })
                                        .flatten()
                                        .map(|svg| Digest::of(svg.as_bytes())),
                                },
                            )),
                            Err(_) => Err(text.clone()),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference workers do not panic"))
            .collect()
    })
}

/// Generates the whole schedule from the seed — the ladder's `(rate,
/// count)` rungs, the first two of which are also reported as `low` and
/// `high` and are sent in [`BLOCKS`] alternating blocks — and computes
/// every reference answer directly.
pub fn plan(seed: u64, ladder: &[(f64, usize)]) -> Result<Plan, String> {
    let bases: Vec<Base> = base_decks()
        .into_iter()
        .map(|(name, text)| Base {
            straight: straight_cards(&text),
            name,
            text,
        })
        .collect();
    if bases.iter().all(|b| b.straight.is_empty()) {
        return Err("no catalog deck has a straight shape line to nudge".into());
    }

    let mut bodies = Vec::new();
    let mut expected = Vec::new();

    // The fix-corpus decks whose repaired form is accepted (200).
    let config = LintConfig::new();
    let mut lint_cases = Vec::new();
    for case in fix_cases() {
        let Ok(outcome) = apply_fixes(case.before, case.kind, &config) else {
            continue;
        };
        if LintError::from_report(&outcome.report).is_some() {
            continue;
        }
        let name = format!("fix-{}", case.code.code());
        let ospl = if case.kind == DeckKind::Ospl {
            "&ospl=1"
        } else {
            ""
        };
        bodies.push(case.before.to_string());
        expected.push(Expected::Lint {
            fixes: outcome.applied.len(),
            lint_fragment: lint_json(&outcome.report),
            served: None,
        });
        lint_cases.push(Request {
            kind: Kind::Lint,
            target: format!("/lint?name={}{ospl}", percent_encode(&name)),
            body: bodies.len() - 1,
            expected: expected.len() - 1,
        });
    }
    if lint_cases.is_empty() {
        return Err("no fix-corpus deck lints clean after repair".into());
    }

    // The unmodified catalog decks, sent once before timing starts.
    let mut warmup = Vec::new();
    for base in &bases {
        let (lint, plots) = direct(&base.text).map_err(|e| format!("{}: {e}", base.name))?;
        bodies.push(base.text.clone());
        expected.push(Expected::Body(Digest::of(
            analysis_summary_json(base.name, &plots, lint.as_ref()).as_bytes(),
        )));
        warmup.push(Request {
            kind: Kind::Analyze,
            target: analyze_target(base.name),
            body: bodies.len() - 1,
            expected: expected.len() - 1,
        });
    }
    // Which base deck each fixed body is (lint bodies belong to none).
    let mut fixed_base = vec![usize::MAX; bodies.len()];
    for (base, request) in warmup.iter().enumerate() {
        fixed_base[request.body] = base;
    }
    warmup.extend(lint_cases.iter().cloned());

    let mut banned = HashSet::new();
    let mut answers: HashMap<String, Answer> = HashMap::new();
    loop {
        let mut generator = Generator {
            rng: SplitMix64::new(seed ^ 0x5e7e_0000),
            bases: &bases,
            banned: &banned,
            next_variant: vec![0; bases.len()],
            bodies: bodies.clone(),
            body_base: fixed_base.clone(),
            seen: bodies.iter().cloned().collect(),
            needs: vec![Need::Ready; expected.len()],
            recent: VecDeque::new(),
            repeatable: VecDeque::new(),
            lint_cases: &lint_cases,
            svgs: Default::default(),
        };
        let mut arrivals = SplitMix64::new(seed ^ 0xa11_7a1e);
        let mut phases = Vec::new();
        // An unmeasured stretch at the first rate first: the server has
        // sat idle through the other phases, and its first requests are
        // slow enough to set a p99 on their own. Then `low` and `high`
        // alternate in blocks, so each spreads over the phase, and the
        // rest of the ladder follows.
        let mut stretches = Vec::new();
        if let Some(&(rate, _)) = ladder.first() {
            stretches.push(("warmup".to_string(), rate, WARMUP));
        }
        for _ in 0..BLOCKS {
            for (name, &(rate, count)) in ["low", "high"].iter().zip(ladder) {
                stretches.push((name.to_string(), rate, count / BLOCKS));
            }
        }
        for &(rate, count) in ladder.iter().skip(2) {
            stretches.push((format!("ladder.{rate}"), rate, count));
        }
        for (name, rate, count) in stretches {
            let due = poisson_schedule(&mut arrivals, rate, count);
            let requests = (0..count).map(|_| generator.next()).collect();
            phases.push(Phase {
                name,
                rate,
                due,
                requests,
            });
        }

        // Compute what is not yet known, two decks at a time.
        let mut wanted = BTreeSet::new();
        let mut svg_wanted = HashSet::new();
        for need in &generator.needs {
            match *need {
                Need::Summary(body) => {
                    wanted.insert(body);
                }
                Need::Svg(body) => {
                    wanted.insert(body);
                    svg_wanted.insert(body);
                }
                Need::Ready => {}
            }
        }
        let jobs: Vec<(String, &'static str, bool)> = wanted
            .into_iter()
            .filter(|&b| {
                answers
                    .get(&generator.bodies[b])
                    .is_none_or(|a| svg_wanted.contains(&b) && a.svg.is_none())
            })
            .map(|b| {
                (
                    generator.bodies[b].clone(),
                    bases[generator.body_base[b]].name,
                    svg_wanted.contains(&b),
                )
            })
            .collect();
        let mut failures = Vec::new();
        for result in answer_all(jobs) {
            match result {
                Ok((text, answer)) => {
                    answers.insert(text, answer);
                }
                Err(text) => failures.push(text),
            }
        }
        if !failures.is_empty() {
            banned.extend(failures);
            continue;
        }

        let mut resolved = expected.clone();
        for need in &generator.needs[expected.len()..] {
            let bytes = match *need {
                Need::Summary(b) => answers[&generator.bodies[b]].summary,
                Need::Svg(b) => answers[&generator.bodies[b]]
                    .svg
                    .ok_or_else(|| format!("{}: no data set to contour", generator.bodies[b]))?,
                Need::Ready => unreachable!("only the fixed references are ready"),
            };
            resolved.push(Expected::Body(bytes));
        }
        return Ok(Plan {
            bodies: generator.bodies,
            expected: resolved,
            phases,
            warmup,
        });
    }
}

/// A booted server with its stage cache and a verified plan.
pub struct Service {
    pub server: Server,
    pub cache: Arc<StageCache>,
    pub plan: Plan,
}

/// Boots the server the way the load generator does, with a stage cache
/// of `cache_bytes` attached through the batch options as the daemon
/// does, and serves the warm-up requests, which also pins the `/lint`
/// reference bodies.
pub fn boot(mut plan: Plan, cache_bytes: u64) -> Result<Service, String> {
    let cache = Arc::new(StageCache::with_max_bytes(cache_bytes));
    let server = Server::start(
        ServeOptions::new().batch(
            BatchOptions::new()
                .workers(SENDERS)
                .max_in_flight(2 * SENDERS)
                .config(SessionConfig::new().cache(Arc::clone(&cache))),
        ),
    )
    .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.local_addr();
    for request in plan.warmup.clone() {
        let response = exchange(
            addr,
            "POST",
            &request.target,
            plan.bodies[request.body].as_bytes(),
        )?;
        if let Expected::Lint { served, .. } = &mut plan.expected[request.expected] {
            *served = Some(Digest::of(&response.body));
        }
        check(&plan, &request, &response).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(Service {
        server,
        cache,
        plan,
    })
}

/// Compares a response with the request's reference.
fn check(plan: &Plan, request: &Request, response: &Response) -> Result<(), String> {
    if response.status != 200 {
        return Err(format!(
            "{} {}: status {}: {}",
            request.kind.name(),
            request.target,
            response.status,
            String::from_utf8_lossy(&response.body)
        ));
    }
    let matches = match &plan.expected[request.expected] {
        Expected::Body(digest) => Digest::of(&response.body) == *digest,
        Expected::Lint {
            fixes,
            lint_fragment,
            served,
        } => {
            let text = String::from_utf8_lossy(&response.body);
            response.header("X-Cafemio-Fixed") == Some(fixes.to_string().as_str())
                && text.contains(&format!("\"fixes_applied\": {fixes},"))
                && text.contains(lint_fragment.as_str())
                && served.is_none_or(|s| s == Digest::of(&response.body))
        }
    };
    if matches {
        Ok(())
    } else {
        Err(format!(
            "{} {}: body differs from the direct answer",
            request.kind.name(),
            request.target
        ))
    }
}

/// One request's measured result.
struct Sent {
    kind: Kind,
    timing: Timing,
    in_flight: usize,
    status: u16,
    cache_hit: Option<bool>,
    verdict: Result<(), String>,
}

/// Sends one phase and returns each request's result with the CPU time
/// the service used meanwhile: the process's, less the senders'.
fn run_phase(service: &Service, phase: &Phase) -> (Vec<Sent>, Duration) {
    let addr: SocketAddr = service.server.local_addr();
    let plan = &service.plan;
    let cpu_started = cpu::process();
    let driven = drive(&phase.due, SENDERS, |i| {
        let request = &phase.requests[i];
        let in_flight = service.server.in_flight();
        let response = exchange(
            addr,
            "POST",
            &request.target,
            plan.bodies[request.body].as_bytes(),
        );
        (request.kind, in_flight, response)
    });
    let service_cpu = (cpu::process() - cpu_started).saturating_sub(driven.sender_cpu);
    let sent = driven
        .sent
        .into_iter()
        .zip(&phase.requests)
        .map(
            |((timing, (kind, in_flight, response)), request)| match response {
                Ok(response) => Sent {
                    kind,
                    timing,
                    in_flight,
                    status: response.status,
                    cache_hit: response.header("X-Cafemio-Cache").map(|v| v == "hit"),
                    verdict: check(plan, request, &response),
                },
                Err(e) => Sent {
                    kind,
                    timing,
                    in_flight,
                    status: 0,
                    cache_hit: None,
                    verdict: Err(e),
                },
            },
        )
        .collect();
    (sent, service_cpu)
}

fn latencies_ms<'a>(sent: impl IntoIterator<Item = &'a Sent>) -> Vec<f64> {
    sorted(
        &sent
            .into_iter()
            .map(|s| s.timing.latency.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    )
}

/// The highest ladder rate whose rung, and every rung below it, met
/// the limit; zero when the first rung missed it. `rungs` are `(rate,
/// held)` in ladder order.
pub fn limit_rate(rungs: &[(f64, bool)]) -> f64 {
    rungs.iter().take_while(|r| r.1).last().map_or(0.0, |r| r.0)
}

fn metrics_report(addr: SocketAddr) -> Option<PerfReport> {
    let response = exchange(addr, "GET", "/metrics", b"").ok()?;
    PerfReport::from_json(std::str::from_utf8(&response.body).ok()?).ok()
}

fn mean_lag_ms(sent: &[Sent]) -> f64 {
    sent.iter()
        .map(|s| s.timing.lag.as_secs_f64() * 1e3)
        .sum::<f64>()
        / sent.len().max(1) as f64
}

/// The requests sent at one rate, pooled over its blocks.
#[derive(Default)]
struct Rung {
    rate: f64,
    sent: Vec<Sent>,
    /// Each block's mean lag over its last tenth of requests.
    tail_lags_ms: Vec<f64>,
    /// The blocks' summed time from the first due time to the last
    /// completion.
    busy: Duration,
    /// CPU time the service used on the rung's requests.
    cpu: Duration,
}

impl Rung {
    /// The service's CPU time per request.
    fn cpu_ms(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e3 / self.sent.len().max(1) as f64
    }

    fn add(&mut self, rate: f64, due: &[Duration], (sent, cpu): (Vec<Sent>, Duration)) {
        self.rate = rate;
        self.tail_lags_ms
            .push(mean_lag_ms(&sent[sent.len() - sent.len() / 10..]));
        self.busy += due
            .iter()
            .zip(&sent)
            .map(|(&due, s)| due + s.timing.latency)
            .max()
            .unwrap_or_default();
        self.cpu += cpu;
        self.sent.extend(sent);
    }

    /// `(rate, held, completed per second)`, logged. A rung holds when
    /// no request failed, its p99 is within [`LIMIT_MS`] and the mean
    /// lag of a block's last tenth of requests is within a fifth of it
    /// (no growing backlog). The backlog test takes the median block,
    /// so that one stall at the end of one block does not read as a
    /// queue that grows.
    fn verdict(&self, name: &str) -> (f64, bool, f64) {
        let lat = latencies_ms(&self.sent);
        let p99 = percentile(&lat, 0.99).unwrap_or(f64::INFINITY);
        let failed = self.sent.iter().filter(|s| s.verdict.is_err()).count();
        let tail_lag_ms = median(&self.tail_lags_ms).unwrap_or(0.0);
        let held = failed == 0 && p99 <= LIMIT_MS && tail_lag_ms <= LIMIT_MS / 5.0;
        let completed = self.sent.len() as f64 / self.busy.as_secs_f64().max(1e-9);
        eprintln!(
            "benchmark: {name} at {}/s: {} requests, p50 {:.2} ms, p99 {p99:.2} ms, \
             tail lag {:.2} ms, {completed:.0} completed/s, {:.3} CPU ms each, {failed} failed, {}",
            self.rate,
            self.sent.len(),
            percentile(&lat, 0.5).unwrap_or(0.0),
            tail_lag_ms,
            self.cpu_ms(),
            if held { "held" } else { "missed the limit" }
        );
        (self.rate, held, completed)
    }
}

/// Runs the warm-up, the alternating `low` and `high` blocks, then every
/// rung of the ladder: all of it, so that a run's requests, and what the
/// cache ends up holding, do not depend on where the limit falls.
pub fn run(service: &Service, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let addr = service.server.local_addr();
    let (mut low, mut high) = (Rung::default(), Rung::default());
    let mut dispatch_nanos = 0u64;
    let mut rungs: Vec<(f64, bool, f64)> = Vec::new();
    for phase in &service.plan.phases {
        let ladder = phase.name.starts_with("ladder.");
        if ladder && rungs.is_empty() {
            rungs = vec![low.verdict("low"), high.verdict("high")];
        }
        let before = metrics_report(addr);
        let (sent, cpu) = run_phase(service, phase);
        let after = metrics_report(addr);
        for s in &sent {
            outcome.record(s.verdict.clone());
        }
        let sent = (sent, cpu);
        match phase.name.as_str() {
            "warmup" => {}
            "low" | "high" => {
                if let (Some(before), Some(after)) = (before, after) {
                    dispatch_nanos +=
                        after.span_nanos("serve.dispatch") - before.span_nanos("serve.dispatch");
                }
                let rung = if phase.name == "low" {
                    &mut low
                } else {
                    &mut high
                };
                rung.add(phase.rate, &phase.due, sent);
            }
            name => {
                let mut rung = Rung::default();
                rung.add(phase.rate, &phase.due, sent);
                rungs.push(rung.verdict(name));
            }
        }
    }
    if rungs.is_empty() {
        rungs = vec![low.verdict("low"), high.verdict("high")];
    }
    let (low_lat, high_lat) = (latencies_ms(&low.sent), latencies_ms(&high.sent));
    // What a request costs the service in CPU time, over every `low` and
    // `high` request (see `cpu`).
    let cpu_ms =
        (low.cpu + high.cpu).as_secs_f64() * 1e3 / (low.sent.len() + high.sent.len()).max(1) as f64;
    // The top rung offers more than the service can take, so what it
    // completes per second is the service's capacity.
    let capacity = rungs.last().map_or(0.0, |r| r.2);
    if !traced {
        outcome.e2e("serve_cpu_ms", cpu_ms, "ms");
        return outcome;
    }

    let held: Vec<(f64, bool)> = rungs.iter().map(|r| (r.0, r.1)).collect();
    outcome.layer("serve.limit_rate_rps", limit_rate(&held), "1/s");
    outcome.layer("max_rate_rps", capacity, "1/s");

    outcome.layer("low.p50_ms", percentile(&low_lat, 0.5).unwrap_or(0.0), "ms");
    outcome.layer(
        "high.p50_ms",
        percentile(&high_lat, 0.5).unwrap_or(0.0),
        "ms",
    );

    outcome.layer(
        "low.p99_ms",
        percentile(&low_lat, 0.99).unwrap_or(0.0),
        "ms",
    );
    outcome.layer(
        "high.p99_ms",
        percentile(&high_lat, 0.99).unwrap_or(0.0),
        "ms",
    );
    let measured: Vec<&Sent> = low.sent.iter().chain(&high.sent).collect();
    for kind in Kind::ALL {
        let lat = latencies_ms(measured.iter().copied().filter(|s| s.kind == kind));
        outcome.layer(
            &format!("serve.{}_p50_ms", kind.name()),
            percentile(&lat, 0.5).unwrap_or(0.0),
            "ms",
        );
    }
    let n = measured.len().max(1) as f64;
    outcome.layer(
        "serve.in_flight_mean",
        measured.iter().map(|s| s.in_flight as f64).sum::<f64>() / n,
        "count",
    );
    outcome.layer(
        "serve.rejected",
        measured.iter().filter(|s| s.status == 503).count() as f64,
        "count",
    );
    let mean_latency = measured
        .iter()
        .map(|s| s.timing.latency.as_secs_f64() * 1e3)
        .sum::<f64>()
        / n;
    // The `serve.dispatch` span covers the dispatcher's queue wait as
    // well as the work; what lies outside it is admission, HTTP parsing,
    // inline lint, socket I/O and the sender's own lag.
    let dispatch_ms = dispatch_nanos as f64 / 1e6 / n;
    outcome.layer("serve.dispatch_ms", dispatch_ms, "ms");
    outcome.layer(
        "serve.outside_dispatch_ms",
        mean_latency - dispatch_ms,
        "ms",
    );
    let lags = sorted(
        &measured
            .iter()
            .map(|s| s.timing.lag.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    outcome.layer(
        "serve.generator_lag_p99_ms",
        percentile(&lags, 0.99).unwrap_or(0.0),
        "ms",
    );
    let deck_responses: Vec<bool> = measured.iter().filter_map(|s| s.cache_hit).collect();
    outcome.layer(
        "serve.response_hit_frac",
        deck_responses.iter().filter(|&&h| h).count() as f64 / deck_responses.len().max(1) as f64,
        "fraction",
    );
    let stats = service.cache.stats();
    outcome.layer("cache.hits", stats.hits as f64, "count");
    outcome.layer("cache.misses", stats.misses as f64, "count");
    outcome.layer("cache.evictions", stats.evictions as f64, "count");
    outcome.layer("cache.bytes", stats.bytes as f64, "bytes");
    outcome.layer(
        "cache.hit_frac",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        "fraction",
    );
    outcome.layer("plotter.svg_us", svg_us(&service.plan), "us");
    outcome
}

/// `render_svg` timed alone on the catalog decks' contour frames.
fn svg_us(plan: &Plan) -> f64 {
    let mut samples = Vec::new();
    for request in &plan.warmup {
        if request.kind != Kind::Analyze {
            continue;
        }
        let Ok((_, plots)) = direct(&plan.bodies[request.body]) else {
            continue;
        };
        for plot in &plots {
            for _ in 0..5 {
                let t = Instant::now();
                std::hint::black_box(render_svg(&plot.contours.frame));
                samples.push(us(t.elapsed()));
            }
        }
    }
    median(&samples).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nudges_move_the_last_fitting_decimal() {
        let card = "    0    0    4    0  0.0000  2.0000  4.0000  0.0000  0.0000";
        let text = format!("A\n{card}\nB\n");
        let moved = nudge(&text, 1, 1).expect("nudgeable");
        assert!(moved.contains("  0.0000  2.000001  4.0000") || moved.contains("2.000001"));
        assert_eq!(moved.lines().nth(1).map(str::len), Some(card.len()));
        assert_eq!(
            nudge(&text, 1, 3)
                .expect("nudgeable")
                .lines()
                .nth(1)
                .and_then(|l| l.get(28..36)),
            Some("2.000003")
        );
        let wide = "    0    0    4    0  0.0000 12.5000  4.0000  0.0000  0.0000";
        assert_eq!(
            nudge(wide, 0, 1)
                .and_then(|t| t.get(28..36).map(str::to_string))
                .as_deref(),
            Some("12.50001")
        );
        assert_eq!(nudge(&text, 0, 1), None);
    }

    #[test]
    fn the_limit_rate_is_the_last_rung_held_before_the_first_miss() {
        assert_eq!(limit_rate(&[(100.0, true), (200.0, true)]), 200.0);
        assert_eq!(
            limit_rate(&[(100.0, true), (200.0, false), (400.0, true)]),
            100.0
        );
        assert_eq!(limit_rate(&[(100.0, false), (200.0, true)]), 0.0);
    }

    #[test]
    fn the_seed_alone_fixes_the_request_sequence() {
        let ladder = [(100.0, 40), (300.0, 40), (500.0, 20)];
        let a = plan(11, &ladder).expect("plan");
        let b = plan(11, &ladder).expect("plan");
        let c = plan(12, &ladder).expect("plan");
        assert_eq!(a, b);
        assert_ne!(a.phases, c.phases);
        let kinds: HashSet<Kind> = a
            .phases
            .iter()
            .flat_map(|p| &p.requests)
            .map(|r| r.kind)
            .collect();
        assert_eq!(kinds.len(), Kind::ALL.len(), "every kind is drawn");
        // New and edited decks are new content every time.
        let fresh: Vec<usize> = a
            .phases
            .iter()
            .flat_map(|p| &p.requests)
            .filter(|r| matches!(r.kind, Kind::Analyze | Kind::Edit))
            .map(|r| r.body)
            .collect();
        let distinct: HashSet<&usize> = fresh.iter().collect();
        assert_eq!(distinct.len(), fresh.len());
    }
}
