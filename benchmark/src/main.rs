//! The cafemio benchmark.
//!
//! ```sh
//! cargo run --release --locked --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload plate_cg --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints an environment line, then one JSON result line with
//! `correct`, `attempted`, `failed` and the metrics; exits nonzero when
//! any output differs from its reference. See `benchmark/README.md`.

mod catalog;
mod cpu;
mod env;
mod http;
mod openloop;
mod plate;
mod report;
mod serve_mix;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Outcome;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let ticks = env::cpu_ticks();
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    for failure in &outcome.failures {
        eprintln!("benchmark: FAILED: {failure}");
    }
    eprintln!(
        "benchmark: finished in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    println!(
        "{}",
        env::block(
            &args.workload,
            args.seed,
            args.seconds,
            args.trace,
            env::steal_since(ticks)
        )
    );
    println!("{}", outcome.result_line(args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A workload: the scale of the plate and whether the service has a
/// cache. Every workload runs all three phases — catalog decks, the
/// plate, the service with the same seeded traffic — so that every run
/// reports every metric; the workloads differ in those two inputs. The
/// uncached one is the large plate's, the cached one the small plate's:
/// the catalog decks and the traffic are the same in both, so their
/// service figures differ by what the cache buys.
struct Workload {
    plate: plate::PlateSize,
    /// The service's stage-cache budget: the daemon's default, or zero.
    cached: bool,
}

/// Small: 3,600 elements and 1,891 nodes, so a serial solve takes tens
/// of milliseconds and a run solves dozens of plates.
const SMALL_PLATE: plate::PlateSize = plate::PlateSize {
    width: 30,
    bands: 2,
};
/// Large: 21,600 elements, so one CG solve takes about a second.
const LARGE_PLATE: plate::PlateSize = plate::PlateSize {
    width: 60,
    bands: 3,
};

fn workload(name: &str) -> Result<Workload, String> {
    match name {
        "plate_cg" => Ok(Workload {
            plate: LARGE_PLATE,
            cached: false,
        }),
        "serve_mix" => Ok(Workload {
            plate: SMALL_PLATE,
            cached: true,
        }),
        other => Err(format!(
            "unknown workload {other}: expected plate_cg or serve_mix"
        )),
    }
}

/// The service ladder: fixed rates, per second, and the requests sent
/// at each, enough that every rung's p99 has ten samples beyond it. The
/// first two rungs are also reported as `low` and `high`, about a
/// quarter and a half of the uncached capacity on two cores. The rates
/// double from there, and the top rung offers about twice the cached
/// capacity, so the service is saturated through it and what it
/// completes per second there is its capacity (`max_rate_rps`); it is
/// longer than the others so that this figure averages over seconds.
const LADDER: [(f64, usize); 5] = [
    (150.0, 1000),
    (300.0, 1000),
    (600.0, 1000),
    (1200.0, 1000),
    (2400.0, 1500),
];

/// Everything set-up builds: the inputs of all three phases and the
/// booted service with its reference answers.
struct Inputs {
    catalog: catalog::Catalog,
    plate: plate::Plate,
    service: serve_mix::Service,
}

fn setup(args: &Args, workload: &Workload) -> Result<Inputs, String> {
    let catalog = catalog::setup(args.seed)?;
    let plate = plate::setup(args.seed, workload.plate);
    let plan = serve_mix::plan(args.seed, &LADDER)?;
    let cache_bytes = if workload.cached {
        cafemio::cache::StageCache::new().max_bytes()
    } else {
        0
    };
    let service = serve_mix::boot(plan, cache_bytes)?;
    Ok(Inputs {
        catalog,
        plate,
        service,
    })
}

/// Set-ups timed for the `setup_s` median; the last one is used.
const SETUPS: usize = 3;
/// Shares of `--seconds` that the catalog and the plate phases take.
const DECK_SHARE: f64 = 0.35;
const PLATE_SHARE: f64 = 0.65;
/// Plates solved at least, however long one takes.
const MIN_PLATES: u64 = 8;

fn run(args: &Args) -> Result<Outcome, String> {
    let workload = workload(&args.workload)?;
    let mut setup_times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        if let Some(previous) = inputs.take() {
            let Inputs { service, .. } = previous;
            service.server.shutdown();
        }
        let t = Instant::now();
        inputs = Some(setup(args, &workload)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.ok_or("no set-up ran")?;
    let window = Duration::from_secs(args.seconds);

    cafemio::instrument::set_enabled(args.trace);
    let _ = cafemio::instrument::take_report();
    let mut outcome = Outcome::default();
    // The catalog and plate phases interleave, one catalog round or one
    // plate at a time, whichever is further behind its share, so that
    // both sample the whole stretch of a machine whose speed drifts.
    let mut decks = catalog::Sampler::new(&inputs.catalog, args.trace);
    let mut plates = plate::Sampler::new(&inputs.plate);
    let (deck_window, plate_window) = (window.mul_f64(DECK_SHARE), window.mul_f64(PLATE_SHARE));
    let (mut deck_time, mut plate_time) = (Duration::ZERO, Duration::ZERO);
    loop {
        let decks_left = deck_time < deck_window;
        let plates_left =
            !plates.failed() && (plate_time < plate_window || plates.attempted() < MIN_PLATES);
        if !decks_left && !plates_left {
            break;
        }
        let plate_turn = plates_left
            && (!decks_left
                || plate_time.as_secs_f64() / PLATE_SHARE <= deck_time.as_secs_f64() / DECK_SHARE);
        let t = Instant::now();
        if plate_turn {
            plates.one();
            plate_time += t.elapsed();
        } else {
            decks.one_round();
            deck_time += t.elapsed();
        }
    }
    outcome.absorb(decks.finish());
    outcome.absorb(plates.finish(args.trace));
    outcome.absorb(serve_mix::run(&inputs.service, args.trace));
    cafemio::instrument::set_enabled(false);
    let program = cafemio::instrument::take_report();
    inputs.service.server.shutdown();

    if args.trace {
        eprintln!("benchmark: program spans\n{}", program.to_json());
    } else {
        outcome.e2e("setup_s", stats::median(&setup_times).unwrap_or(0.0), "s");
        outcome.e2e("peak_rss_mb", env::peak_rss_mib().unwrap_or(0.0), "MiB");
    }
    Ok(outcome)
}
