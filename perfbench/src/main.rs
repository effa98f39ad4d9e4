//! The byzclock benchmark: three seeded simulator workloads, measured end
//! to end with tracing off and layer by layer in a traced run.
//!
//! ```text
//! perfbench --workload <mobile16|wide256|recovery32> --seed <n>
//!           [--seconds <s>] [--trace <0|1>]
//! perfbench --record <first-seed> <last-seed>
//! ```
//!
//! With `--trace 0` the run builds and runs whole worlds for `--seconds`
//! and reports the end-to-end metrics, scaled to nominal host speed by a
//! reference kernel timed between intervals (see `reference.rs`); with `--trace 1` it runs pairs of
//! untraced and traced passes, then the layer tier, and reports the
//! per-layer metrics, the attribution table and the tracing overhead.
//! Human-readable tables go to standard error; the last line of standard
//! output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). A fingerprint or γ failure prints `"correct": false` and
//! exits with code 1. `--record` prints `fingerprints.tsv` lines.
//!
//! See `README.md` beside this package for the workloads and metrics.

mod fingerprint;
mod heap;
mod layers;
mod measure;
mod reference;
mod report;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Metric, END_TO_END, PER_LAYER};
use workload::Workload;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// The seed kept out of tuning, for later claims; its fingerprints are
/// recorded like the others.
pub const HELD_OUT_SEED: u64 = 7919;

/// Where traced runs write their spans.
const SPAN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--record") {
        return record(&args[1..]);
    }
    match parse(&args) {
        Ok(a) => run(&a),
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: perfbench --workload <mobile16|wide256|recovery32> --seed <n> \
                 [--seconds <s>] [--trace <0|1>]\n       perfbench --record <first> <last>"
            );
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn run(a: &Args) -> ExitCode {
    let w = a.workload;
    let s = w.scenario(a.seed);
    eprintln!(
        "perfbench {} seed {}: n={} f={} T={}s, {} intervals per world, closed loop, 1 thread, \
         {} core(s) available",
        w.name(),
        a.seed,
        s.n,
        s.f,
        s.t().as_secs(),
        w.intervals(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    if a.seed == HELD_OUT_SEED {
        eprintln!("note: seed {HELD_OUT_SEED} is the held-out seed, kept for later claims");
    }
    if fingerprint::recorded(w, a.seed).is_none() {
        // On standard output too, so a caller reading the result sees
        // that `correct` rests on repeated runs agreeing, not on a
        // recorded fingerprint.
        println!(
            "note: no recorded fingerprint for {} seed {}; only checking that repeated runs agree",
            w.name(),
            a.seed
        );
    }
    let (errors, attempted, failed, metrics, values): (_, _, _, &[Metric], _) = if a.trace {
        let t = measure::traced(w, a.seed, a.seconds);
        let values = report::per_layer_values(&t);
        print_table("per-layer metric", "should move", &PER_LAYER, &values);
        eprint!("{}", report::attribution_table(&t));
        eprintln!(
            "tracing overhead over {} pairs of passes: traced {:.4} s - untraced {:.4} s = {:.4} s \
             ({} spans kept)",
            t.pairs,
            t.traced_secs,
            t.plain_secs,
            t.traced_secs - t.plain_secs,
            t.tracer.spans().len()
        );
        let path = PathBuf::from(SPAN_DIR).join(format!("spans-{}-seed{}.csv", w.name(), a.seed));
        match t.tracer.write_csv(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write spans to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        (t.errors, t.attempted, t.gamma_misses, &PER_LAYER, values)
    } else {
        let e = match measure::untraced(w, a.seed, a.seconds) {
            Ok(e) => e,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        };
        let values = report::end_to_end_values(&e);
        print_table("end-to-end metric", "what it is", &END_TO_END, &values);
        eprintln!(
            "host speed: {} reference slices against {:.4} ms nominal, slowdown {:.4} in the runs \
             and {:.4} in set-up; unscaled node_rounds_per_s {:.1}, setup_s {:.6}",
            e.slices,
            reference::NOMINAL_SLICE_NS / 1e6,
            e.slowdown,
            e.setup_slowdown,
            e.raw_node_rounds_per_s,
            e.raw_setup_s
        );
        eprintln!(
            "{} world(s), the first an untimed warm-up; {} interval samples; interval_ms_p50 {:.4} ms; \
             interval_ms_p90 {:.4} ms; {} set-up batches; gamma_miss_ratio {} ({} of {} intervals); \
             VmHWM {:.3} MB",
            e.worlds,
            e.interval_samples,
            e.interval_ms_p50,
            e.interval_ms_p90,
            e.setup_samples,
            e.gamma_misses as f64 / e.attempted.max(1) as f64,
            e.gamma_misses,
            e.attempted,
            e.peak_rss_mb
        );
        (e.errors, e.attempted, e.gamma_misses, &END_TO_END, values)
    };
    for err in &errors {
        eprintln!("correctness: {err}");
    }
    match report::result_line(errors.is_empty(), attempted, failed, metrics, &values) {
        Ok(line) => println!("{line}"),
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_table(title: &str, note: &str, metrics: &[Metric], values: &[f64]) {
    eprintln!("  {title:<34} {:>16} {:<6} {note}", "value", "unit");
    for (m, v) in metrics.iter().zip(values) {
        eprintln!("  {:<34} {v:>16.6} {:<6} {}", m.name, m.unit, m.meaning);
    }
}

/// Prints one `fingerprints.tsv` line per workload for each seed in
/// `first..=last`.
fn record(args: &[String]) -> ExitCode {
    let [first, last] = args else {
        eprintln!("usage: perfbench --record <first> <last>");
        return ExitCode::from(2);
    };
    let (Ok(first), Ok(last)) = (first.parse::<u64>(), last.parse::<u64>()) else {
        eprintln!("error: seeds are whole numbers");
        return ExitCode::from(2);
    };
    for seed in first..=last {
        for w in Workload::ALL {
            let mut world = w.build(seed);
            let run = measure::run_world(w, &mut world, w.intervals(), None, None);
            if run.gamma_misses > 0 {
                eprintln!(
                    "{} seed {seed}: {} gamma misses",
                    w.name(),
                    run.gamma_misses
                );
                if w.gamma_required() {
                    return ExitCode::FAILURE;
                }
            }
            println!("{}", fingerprint::table_line(w, seed, &run.fingerprint));
        }
    }
    ExitCode::SUCCESS
}
