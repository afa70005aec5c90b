//! End-to-end benchmark of the DMopt + dosePl flow.
//!
//! ```text
//! dme-perfbench --workload <aes65-flow|jpeg65-qp-grids|dosepl-12k>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up several times, then runs whole rounds of its
//! timed calls until the next round would overrun `--seconds`, checking
//! every round's outputs. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! run with `--trace 1`. See `README.md` next to this crate.

mod checks;
mod layers;
mod sys;
mod workloads;

use layers::LayerTally;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Round, RoundFn, SetupTimes};

/// The `dme-obs` tracking allocator over the system allocator, as the
/// `dmeopt` binary installs it, with the live heap counted on top.
#[global_allocator]
static ALLOC: sys::PeakHeap<dme_obs::TrackingAllocator<std::alloc::System>> =
    sys::PeakHeap(dme_obs::TrackingAllocator(std::alloc::System));

const WORKLOADS: &[&str] = &["aes65-flow", "jpeg65-qp-grids", "dosepl-12k"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a whole run measured.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Operation counts and check results over a run's rounds.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    checks_failed: bool,
    /// The first round's output bits, which every later round must
    /// reproduce.
    first: Option<Vec<u64>>,
}

impl Totals {
    fn add(&mut self, r: &Round) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.checks_failed |= !r.checks_ok;
        match &self.first {
            None => self.first = Some(r.fingerprint.clone()),
            Some(f) if *f != r.fingerprint => {
                eprintln!("rounds of one run disagree: {f:?} vs {:?}", r.fingerprint);
                self.checks_failed = true;
            }
            Some(_) => {}
        }
    }
}

/// Runs whole rounds until the next one would end past `args.seconds`
/// (at least one). A traced run alternates untraced and traced rounds so
/// that their ratio is the tracing overhead.
fn measure(args: &Args, setup: SetupTimes, round: &mut RoundFn<'_>) -> Outcome {
    let start = Instant::now();
    let mut longest = 0.0f64;
    let mut totals = Totals::default();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut tally = LayerTally::default();
    loop {
        let t0 = start.elapsed().as_secs_f64();
        let r = round(None);
        totals.add(&r);
        untraced.push(r);
        if args.trace {
            let r = round(Some(&mut tally));
            totals.add(&r);
            traced_walls.push(r.cost.wall_s);
        }
        let now = start.elapsed().as_secs_f64();
        longest = longest.max(now - t0);
        if now + longest > args.seconds {
            break;
        }
    }
    let walls: Vec<f64> = untraced.iter().map(|r| r.cost.wall_s).collect();
    let cpus: Vec<f64> = untraced.iter().map(|r| r.cost.cpu_s).collect();
    let steal: u64 = untraced.iter().map(|r| r.cost.steal_ticks).sum();
    println!(
        "run workload={} seed={} rounds={} run_s={:?} cpu_s={:?} steal_ticks={} peak_rss_mb={} setup_s={:?}",
        args.workload,
        args.seed,
        untraced.len(),
        walls,
        cpus,
        steal,
        sys::peak_rss_mb(),
        setup
            .rows
            .iter()
            .map(|r| r.iter().sum::<f64>())
            .collect::<Vec<_>>(),
    );
    let metrics = if args.trace {
        let mut m = tally.finish(traced_walls.len());
        for (name, v, _) in &mut m {
            *v = match *name {
                "netlist.generate_s" => setup.part_s(workloads::GENERATE),
                "placement.place_s" => setup.part_s(workloads::PLACE),
                "context.new_s" => setup.part_s(workloads::CONTEXT),
                "obs.tracing_overhead_ratio" => sys::median(&traced_walls) / sys::median(&walls),
                _ => *v,
            };
        }
        m
    } else {
        let last = untraced.last().expect("at least one round");
        vec![
            ("setup_s", setup.setup_s(), "s"),
            ("run_s", sys::median(&walls), "s"),
            ("cpu_s", sys::median(&cpus), "s"),
            ("peak_heap_mb", sys::peak_heap_mb(), "MB"),
            ("mct_ratio", last.mct_ratio, "ratio"),
            ("leakage_ratio", last.leakage_ratio, "ratio"),
        ]
    };
    Outcome {
        correct: !totals.checks_failed,
        attempted: totals.attempted,
        failed: totals.failed,
        metrics,
    }
}

fn json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dme-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = |setup: SetupTimes, round: &mut RoundFn<'_>| measure(&args, setup, round);
    let outcome = match args.workload.as_str() {
        "aes65-flow" => workloads::aes65_flow(run),
        "jpeg65-qp-grids" => workloads::jpeg65_qp_grids(args.seed, run),
        _ => workloads::dosepl_12k(args.seed, run),
    };
    if outcome.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        eprintln!("dme-perfbench: a metric is not finite");
        return ExitCode::FAILURE;
    }
    println!("{}", json(&outcome));
    ExitCode::SUCCESS
}
