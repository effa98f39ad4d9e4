//! The closed loop over the simulator, untraced and traced.
//!
//! The benchmark calls `World::run_until` one sync interval at a time and
//! makes the next call only after the previous one returns. `sample_now`,
//! the γ check and every other bench-side read happen between calls,
//! outside the timed region.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use byzclock_runtime::World;
use byzclock_sim::RealTime;

use crate::fingerprint::{self, Fingerprint};
use crate::heap;
use crate::layers::{self, LayerInputs, LayerTimes};
use crate::reference::HostSpeed;
use crate::stats::{median, quantile};
use crate::trace::{BenchObserver, Counts, SharedTracer, SpanId, Tracer};
use crate::workload::Workload;

/// Bytes in a MiB.
const MIB: f64 = 1024.0 * 1024.0;
/// Set-up batches an untraced run times at the least, so `setup_s` is a
/// median over enough samples.
const MIN_SETUP_BATCHES: usize = 21;
/// After each world, set-up batches are timed for this share of the
/// world's run time, so set-up samples span the whole run (the host's
/// speed drifts over tens of seconds).
const SETUP_SHARE: f64 = 0.08;
/// One set-up sample builds worlds back to back for at least this long
/// (and at least once) and takes the mean build time.
const SETUP_BATCH_S: f64 = 0.005;

/// Untraced/traced pass pairs a traced run makes at the least: with the
/// order alternating, host drift within a pair cancels out of the
/// tracing overhead.
const MIN_PAIRS: usize = 2;

/// What one world run produced.
#[derive(Debug, Clone)]
pub struct WorldRun {
    /// Host ns of each one-interval `run_until` call.
    pub interval_ns: Vec<u64>,
    /// Intervals whose good deviation exceeded γ.
    pub gamma_misses: u64,
    /// The run's fingerprint.
    pub fingerprint: Fingerprint,
    /// Pending events after each interval (traced runs only).
    pub pending: Vec<usize>,
}

impl WorldRun {
    /// Σ host seconds inside `run_until`.
    pub fn run_secs(&self) -> f64 {
        self.interval_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// How a world run is traced: the tracer and the span intervals hang
/// under.
type Tracing<'a> = Option<(&'a SharedTracer, SpanId)>;

/// Runs a freshly built world through its first `intervals` sync
/// intervals (the workload's full horizon in every measured run). An
/// untraced run may pass `speed`, whose reference slices then run between
/// intervals, outside the timed calls.
///
/// # Panics
///
/// Panics if the world has no Theorem 5 bounds (every workload has).
pub fn run_world(
    workload: Workload,
    world: &mut World,
    intervals: u32,
    tracing: Tracing<'_>,
    mut speed: Option<&mut HostSpeed>,
) -> WorldRun {
    let gamma = world
        .bounds()
        .expect("workload worlds derive their bounds")
        .gamma;
    let t = workload.scenario(0).t();
    let mut run = WorldRun {
        interval_ns: Vec::with_capacity(intervals as usize),
        gamma_misses: 0,
        fingerprint: Fingerprint::of(world, None),
        pending: Vec::new(),
    };
    let mut deviation = None;
    for k in 1..=intervals {
        let deadline = RealTime::ZERO + t * f64::from(k);
        match tracing {
            None => {
                let t0 = Instant::now();
                world.run_until(deadline);
                let ns = elapsed_ns(t0);
                run.interval_ns.push(ns);
                deviation = world.sample_now().good_deviation();
                if let Some(h) = speed.as_deref_mut() {
                    h.tick(ns);
                }
            }
            Some((tracer, root)) => {
                let id = tracer.borrow_mut().open("interval", Some(root));
                tracer.borrow_mut().set_current(Some(id));
                world.run_until(deadline);
                let mut tr = tracer.borrow_mut();
                tr.close(id);
                tr.set_current(None);
                run.interval_ns.push(tr.spans()[id].duration_ns());
                let sid = tr.open("sample", Some(root));
                drop(tr);
                deviation = world.sample_now().good_deviation();
                tracer.borrow_mut().close(sid);
                run.pending.push(pending_events(world));
            }
        }
        if deviation.is_some_and(|d| d > gamma) {
            run.gamma_misses += 1;
        }
    }
    run.fingerprint = Fingerprint::of(world, deviation);
    run
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).expect("interval shorter than 584 years")
}

/// The engine's pending-event count, read from `World`'s `Debug` output
/// (its only public view of the queue).
///
/// # Panics
///
/// Panics if the `Debug` format no longer carries `pending_events`.
pub fn pending_events(world: &World) -> usize {
    let debug = format!("{world:?}");
    let tail = debug
        .split("pending_events: ")
        .nth(1)
        .expect("World's Debug output names pending_events");
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("pending_events is a count")
}

/// Checks a world run against the recorded fingerprint and the first run
/// of this process; returns a description of each failure.
fn check(
    workload: Workload,
    seed: u64,
    run: &WorldRun,
    first: Option<&Fingerprint>,
) -> Vec<String> {
    let mut errors = Vec::new();
    if let Some(expected) = fingerprint::recorded(workload, seed) {
        if run.fingerprint != expected {
            errors.push(format!(
                "fingerprint mismatch for {} seed {seed}: got {}, recorded {}",
                workload.name(),
                run.fingerprint,
                expected
            ));
        }
    }
    if let Some(first) = first {
        if run.fingerprint != *first {
            errors.push(format!(
                "repeat run diverged for {} seed {seed}: got {}, first {}",
                workload.name(),
                run.fingerprint,
                first
            ));
        }
    }
    if workload.gamma_required() && run.gamma_misses > 0 {
        errors.push(format!(
            "{} intervals exceeded Theorem 5's gamma on {}",
            run.gamma_misses,
            workload.name()
        ));
    }
    errors
}

/// The end-to-end figures of an untraced run. Every time is host time
/// divided by the run's [`HostSpeed::slowdown`], i.e. the time on a host
/// running the reference kernel at nominal speed; the raw figures are
/// kept beside them.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Σ node-rounds per nominal-speed second inside `run_until`.
    pub node_rounds_per_s: f64,
    /// Events per nominal-speed second inside `run_until`.
    pub events_per_s: f64,
    /// Median over set-up batches of the mean world build, nominal-speed
    /// seconds.
    pub setup_s: f64,
    /// Σ node-rounds per host second inside `run_until`, unscaled.
    pub raw_node_rounds_per_s: f64,
    /// Median set-up batch in host seconds, unscaled.
    pub raw_setup_s: f64,
    /// Mean reference slice over its nominal time (1 = nominal speed),
    /// over the slices taken between intervals.
    pub slowdown: f64,
    /// The same over the slices taken between set-up batches.
    pub setup_slowdown: f64,
    /// Reference slices timed.
    pub slices: u32,
    /// Median host ms of one interval (unscaled).
    pub interval_ms_p50: f64,
    /// 90th-percentile host ms of one interval (unscaled).
    pub interval_ms_p90: f64,
    /// Intervals timed.
    pub interval_samples: usize,
    /// Set-up batches timed.
    pub setup_samples: usize,
    /// Peak live heap bytes through the first world (set-up and run), MiB.
    /// Read then so that the benchmark's own growing sample buffers and
    /// reference kernel do not enter it.
    pub peak_heap_mb: f64,
    /// Peak resident memory of the process (`VmHWM`) then, MiB.
    pub peak_rss_mb: f64,
    /// Intervals whose good deviation was checked.
    pub attempted: u64,
    /// Of those, intervals exceeding γ.
    pub gamma_misses: u64,
    /// World runs (each a full horizon), the untimed warm-up included.
    pub worlds: usize,
    /// Correctness failures.
    pub errors: Vec<String>,
}

/// Runs whole worlds, each built afresh from `seed`: one untimed warm-up
/// world (it also gives `peak_heap_mb`), then timed worlds until `seconds`
/// have passed, with reference slices between intervals and set-up
/// batches after each world.
pub fn untraced(workload: Workload, seed: u64, seconds: f64) -> Result<EndToEnd, String> {
    let start = Instant::now();
    heap::reset_peak();
    let heap_before = heap::live_bytes();
    let mut world = workload.build(seed);
    let warm_up = run_world(workload, &mut world, workload.intervals(), None, None);
    drop(world);
    let peak_heap_mb = (heap::peak_bytes() - heap_before) as f64 / MIB;
    let peak_rss_mb = peak_rss_mb()?;
    let mut errors = check(workload, seed, &warm_up, None);
    let first = warm_up.fingerprint;
    let (mut attempted, mut misses) = (warm_up.interval_ns.len() as u64, warm_up.gamma_misses);

    // Separate references for the run and the set-up phases, so each time
    // is scaled by slices taken while it was measured.
    let (mut speed, mut setup_speed) = (HostSpeed::new(), HostSpeed::new());
    let mut setups = Vec::new();
    let mut intervals_ms = Vec::new();
    let (mut rounds, mut events, mut run_secs) = (0u64, 0u64, 0.0f64);
    let mut worlds = 1;
    while worlds == 1 || start.elapsed().as_secs_f64() < seconds {
        let mut world = workload.build(seed);
        let run = run_world(
            workload,
            &mut world,
            workload.intervals(),
            None,
            Some(&mut speed),
        );
        drop(world);
        errors.extend(check(workload, seed, &run, Some(&first)));
        rounds += run.fingerprint.node_rounds;
        events += run.fingerprint.events;
        run_secs += run.run_secs();
        attempted += run.interval_ns.len() as u64;
        misses += run.gamma_misses;
        intervals_ms.extend(run.interval_ns.iter().map(|&ns| ns as f64 / 1e6));
        worlds += 1;
        setups.extend(setup_batches(
            workload,
            seed,
            SETUP_SHARE * run.run_secs(),
            1,
            &mut setup_speed,
        ));
    }
    if setups.len() < MIN_SETUP_BATCHES {
        setups.extend(setup_batches(
            workload,
            seed,
            0.0,
            MIN_SETUP_BATCHES - setups.len(),
            &mut setup_speed,
        ));
    }
    // A phase shorter than one slice period still gets a slice.
    for h in [&mut speed, &mut setup_speed] {
        if h.slices() == 0 {
            h.time_slice();
        }
    }
    let slowdown = speed.slowdown();
    let raw_setup_s = median(&mut setups);
    Ok(EndToEnd {
        node_rounds_per_s: rounds as f64 / run_secs * slowdown,
        events_per_s: events as f64 / run_secs * slowdown,
        setup_s: raw_setup_s / setup_speed.slowdown(),
        raw_node_rounds_per_s: rounds as f64 / run_secs,
        raw_setup_s,
        slowdown,
        setup_slowdown: setup_speed.slowdown(),
        slices: speed.slices() + setup_speed.slices(),
        interval_ms_p50: quantile(&mut intervals_ms, 0.5),
        interval_ms_p90: quantile(&mut intervals_ms, 0.9),
        interval_samples: intervals_ms.len(),
        setup_samples: setups.len(),
        peak_heap_mb,
        peak_rss_mb,
        attempted,
        gamma_misses: misses,
        worlds,
        errors,
    })
}

/// Times set-up batches for about `secs`, at least `min_batches` of them,
/// with `speed`'s reference slices between them; returns each batch's
/// mean build time in seconds. One untimed build
/// first brings the allocator back to its steady state after the world
/// just dropped, so no sample pays for fresh pages from the kernel.
/// Dropping a world is not timed.
fn setup_batches(
    workload: Workload,
    seed: u64,
    secs: f64,
    min_batches: usize,
    speed: &mut HostSpeed,
) -> Vec<f64> {
    drop(workload.build(seed));
    let start = Instant::now();
    let mut batches = Vec::new();
    while batches.len() < min_batches || start.elapsed().as_secs_f64() < secs {
        let batch = Instant::now();
        let (mut built, mut builds) = (0.0, 0u32);
        while builds == 0 || batch.elapsed().as_secs_f64() < SETUP_BATCH_S {
            let t0 = Instant::now();
            let world = workload.build(seed);
            built += t0.elapsed().as_secs_f64();
            builds += 1;
            drop(world);
        }
        batches.push(built / f64::from(builds));
        speed.tick((built * 1e9) as u64);
    }
    batches
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Everything a traced run measured.
#[derive(Debug)]
pub struct Traced {
    /// The first traced pass (its spans are the ones kept).
    pub traced: WorldRun,
    /// Untraced/traced pass pairs run.
    pub pairs: usize,
    /// Σ host seconds inside `run_until` over the untraced passes.
    pub plain_secs: f64,
    /// Σ host seconds inside `run_until` over the traced passes.
    pub traced_secs: f64,
    /// Intervals checked against γ, over every pass.
    pub attempted: u64,
    /// Intervals exceeding γ.
    pub gamma_misses: u64,
    /// Counts from the bench observer during the first traced pass.
    pub counts: Counts,
    /// Layer-tier timings.
    pub layers: LayerTimes,
    /// Inputs the layer tier was shaped with.
    pub inputs: LayerInputs,
    /// Nodes in the world.
    pub n: usize,
    /// Median self time of an interval span (minus observer children), ms.
    pub interval_self_ms: f64,
    /// Σ observer callback time per interval, µs.
    pub observer_us_per_interval: f64,
    /// The spans of the run.
    pub tracer: Tracer,
    /// Correctness failures.
    pub errors: Vec<String>,
}

impl Traced {
    /// Mean host ns of one untraced interval.
    pub fn plain_interval_ns(&self) -> f64 {
        self.plain_secs * 1e9 / (self.pairs * self.traced.interval_ns.len()) as f64
    }
}

/// A traced pass: the world gets a bench observer and every interval,
/// sample and callback becomes a span under `root`.
fn traced_pass(
    workload: Workload,
    seed: u64,
    intervals: u32,
    tracer: &SharedTracer,
    root: SpanId,
) -> (WorldRun, Counts, World) {
    let setup = tracer.borrow_mut().open("setup", Some(root));
    let mut world = workload.build(seed);
    tracer.borrow_mut().close(setup);
    let counts = Rc::new(RefCell::new(Counts::default()));
    world.add_observer(Box::new(BenchObserver::new(tracer.clone(), counts.clone())));
    let run = run_world(workload, &mut world, intervals, Some((tracer, root)), None);
    let counts = *counts.borrow();
    (run, counts, world)
}

/// Pairs of one untraced and one traced pass over the same seed (their
/// fingerprints must agree), alternating which runs first, for about
/// half of `seconds` and at least `MIN_PAIRS` times; then the layer tier
/// for the rest. Only the first traced pass's spans are kept.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> Traced {
    let start = Instant::now();
    let tracer: SharedTracer = Rc::new(RefCell::new(Tracer::new()));
    let root = tracer.borrow_mut().open("run", None);
    let mut first = None;
    let (mut pairs, mut plain_secs, mut traced_secs) = (0, 0.0, 0.0);
    let (mut attempted, mut misses) = (0, 0);
    let mut errors = Vec::new();
    while pairs < MIN_PAIRS || start.elapsed().as_secs_f64() < seconds / 2.0 {
        let intervals = workload.intervals();
        let plain_pass = || run_world(workload, &mut workload.build(seed), intervals, None, None);
        // Later traced passes record into a throw-away tracer: same
        // overhead, one pass of spans kept.
        let scratch: SharedTracer = Rc::new(RefCell::new(Tracer::new()));
        let (tr, parent) = if first.is_none() {
            (&tracer, root)
        } else {
            let scratch_root = scratch.borrow_mut().open("run", None);
            (&scratch, scratch_root)
        };
        let (plain, (traced, counts, world)) = if pairs % 2 == 0 {
            let plain = plain_pass();
            (plain, traced_pass(workload, seed, intervals, tr, parent))
        } else {
            let traced = traced_pass(workload, seed, intervals, tr, parent);
            (plain_pass(), traced)
        };
        errors.extend(check(workload, seed, &plain, None));
        errors.extend(check(workload, seed, &traced, Some(&plain.fingerprint)));
        plain_secs += plain.run_secs();
        traced_secs += traced.run_secs();
        attempted += (plain.interval_ns.len() + traced.interval_ns.len()) as u64;
        misses += plain.gamma_misses + traced.gamma_misses;
        first.get_or_insert((traced, counts, *world.params(), world.n()));
        pairs += 1;
    }
    let (traced, counts, params, n) = first.expect("at least one pair ran");
    let mut pending: Vec<f64> = traced.pending.iter().map(|&p| p as f64).collect();
    let intervals = traced.interval_ns.len().max(1) as f64;
    let inputs = LayerInputs {
        workload,
        seed,
        params,
        depth: median(&mut pending) as usize,
        timeouts_per_round: counts.timeouts as f64 / counts.rounds.max(1) as f64,
        episodes: traced.fingerprint.episodes,
        events_per_interval: traced.fingerprint.events as f64 / intervals,
    };

    let left = (seconds - start.elapsed().as_secs_f64()).max(0.7);
    let budget = Duration::from_secs_f64(left / 8.0);
    let layers = layers::measure(&inputs, budget, &mut tracer.borrow_mut(), root);
    tracer.borrow_mut().close(root);
    let tracer = Rc::try_unwrap(tracer)
        .expect("the worlds holding the observer are gone")
        .into_inner();

    let observer_ns = tracer.child_ns("observer");
    let mut self_ms: Vec<f64> = tracer
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "interval")
        .map(|(id, s)| (s.duration_ns() - observer_ns[id]) as f64 / 1e6)
        .collect();
    let observer_us_per_interval = observer_ns.iter().sum::<u64>() as f64 / 1e3 / intervals;
    Traced {
        traced,
        pairs,
        plain_secs,
        traced_secs,
        attempted,
        gamma_misses: misses,
        counts,
        layers,
        inputs,
        n,
        interval_self_ms: median(&mut self_ms),
        observer_us_per_interval,
        tracer,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A few intervals per workload keep debug-build tests quick.
    fn short(w: Workload) -> u32 {
        match w {
            Workload::Mobile16 | Workload::Recovery32 => 40,
            Workload::Wide256 => 2,
        }
    }

    #[test]
    fn fingerprints_reproduce_across_two_runs() {
        for w in Workload::ALL {
            let a = run_world(w, &mut w.build(3), short(w), None, None);
            let b = run_world(w, &mut w.build(3), short(w), None, None);
            assert_eq!(a.fingerprint, b.fingerprint, "{}", w.name());
            assert!(a.fingerprint.events > 0 && a.fingerprint.node_rounds > 0);
        }
    }

    #[test]
    fn traced_and_untraced_runs_give_identical_fingerprints() {
        for w in Workload::ALL {
            let plain = run_world(w, &mut w.build(5), short(w), None, None);
            let tracer: SharedTracer = Rc::new(RefCell::new(Tracer::new()));
            let root = tracer.borrow_mut().open("run", None);
            let (traced, counts, world) = traced_pass(w, 5, short(w), &tracer, root);
            drop(world);
            assert_eq!(plain.fingerprint, traced.fingerprint, "{}", w.name());
            assert_eq!(counts.rounds, traced.fingerprint.node_rounds);
            let tracer = tracer.borrow();
            for name in ["setup", "interval", "sample", "observer"] {
                assert!(
                    tracer.spans().iter().any(|s| s.name == name),
                    "{}: no {name} span",
                    w.name()
                );
            }
            let intervals = tracer
                .spans()
                .iter()
                .filter(|s| s.name == "interval")
                .count();
            assert_eq!(intervals, short(w) as usize);
        }
    }

    #[test]
    fn held_out_seed_is_recorded_and_reproduces() {
        for w in Workload::ALL {
            assert!(
                fingerprint::recorded(w, crate::HELD_OUT_SEED).is_some(),
                "{} has no fingerprint for the held-out seed",
                w.name()
            );
        }
        let w = Workload::Recovery32;
        let run = run_world(
            w,
            &mut w.build(crate::HELD_OUT_SEED),
            w.intervals(),
            None,
            None,
        );
        assert!(check(w, crate::HELD_OUT_SEED, &run, None).is_empty());
    }

    #[test]
    fn a_wrong_fingerprint_fails_the_check() {
        let w = Workload::Recovery32;
        let unrecorded = 1 << 40;
        let mut run = run_world(w, &mut w.build(unrecorded), 4, None, None);
        let first = run.fingerprint;
        assert!(check(w, unrecorded, &run, Some(&first)).is_empty());
        run.fingerprint.events += 1;
        assert_eq!(check(w, unrecorded, &run, Some(&first)).len(), 1);
    }
}
