//! The layer tier: each layer timed from outside, around calls into its
//! public functions, on inputs shaped like the workload (its n, f, fault
//! profile, schedule and queue depth).

use std::hint::black_box;
use std::time::{Duration, Instant};

use byzclock_adversary::{Adversary, CorruptionSchedule, RandomReplyStrategy};
use byzclock_clock::{HardwareClock, LocalTime, LogicalClock};
use byzclock_core::convergence::select_low_high_into;
use byzclock_core::{
    ConvergenceScratch, Input, OffsetSample, Output, PeerEstimate, ProtocolParams, RoundSummary,
    SyncNode, TimerKind, WireMessage,
};
use byzclock_driver::{apply_outputs, ClockSource, Driver, TimerControl, Transport};
use byzclock_net::{Network, Topology, UniformDelay};
use byzclock_runtime::{Discipline, SimEvent};
use byzclock_sim::{DetRng, Engine, ProcId, RealTime, RngHub, SimDuration};

use crate::trace::{SpanId, Tracer};
use crate::workload::Workload;

/// What the layer tier needs to know about the workload's world.
#[derive(Debug, Clone, Copy)]
pub struct LayerInputs {
    /// The workload.
    pub workload: Workload,
    /// The run's seed (layer inputs derive from it too).
    pub seed: u64,
    /// The protocol parameters every node runs with.
    pub params: ProtocolParams,
    /// Median pending events at interval ends.
    pub depth: usize,
    /// Mean estimation timeouts per round.
    pub timeouts_per_round: f64,
    /// Engine events per sync interval.
    pub events_per_interval: f64,
    /// Corruption episodes in the traced world's schedule.
    pub episodes: u64,
}

/// ns (or µs, ms where named) per call of each layer entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `Engine::schedule_at` + `pop_until` pair at the workload's depth.
    pub push_pop_ns: f64,
    /// `Engine::cancel` of a pending alarm plus skimming its tombstone.
    pub cancel_ns: f64,
    /// `select_low_high_into` at the workload's n and f.
    pub select_ns: f64,
    /// One mid-round pong through `SyncNode::handle_into`.
    pub pong_ns: f64,
    /// One whole round (Start, pongs, timeout) through `handle_into`, µs.
    pub round_us: f64,
    /// `Network::send_times` under the workload's fault profile.
    pub send_ns: f64,
    /// `LogicalClock::real_time_reaching_logical` under the workload's
    /// discipline.
    pub alarm_ns: f64,
    /// `Adversary::good_at` on the workload's schedule.
    pub good_at_ns: f64,
    /// `CorruptionSchedule::verify_f_limited` on the schedule, ms.
    pub verify_ms: f64,
    /// `apply_outputs` of one round's outputs into a counting driver.
    pub apply_ns: f64,
}

/// Runs every layer for about `budget` each, one span per layer under
/// `parent`.
pub fn measure(
    inputs: &LayerInputs,
    budget: Duration,
    tracer: &mut Tracer,
    parent: SpanId,
) -> LayerTimes {
    let mut t = LayerTimes::default();
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
        let id = tracer.open(name, Some(parent));
        f();
        tracer.close(id);
    };
    timed("layer.sim", &mut || {
        (t.push_pop_ns, t.cancel_ns) = queue(inputs, budget)
    });
    timed("layer.core.select", &mut || {
        t.select_ns = select(inputs, budget)
    });
    timed("layer.core.round", &mut || {
        (t.pong_ns, t.round_us, t.apply_ns) = rounds(inputs, budget);
    });
    timed("layer.net", &mut || t.send_ns = send(inputs, budget));
    timed("layer.clock", &mut || t.alarm_ns = alarm(inputs, budget));
    timed("layer.adversary.good_at", &mut || {
        t.good_at_ns = good_at(inputs, budget)
    });
    timed("layer.adversary.verify", &mut || {
        t.verify_ms = verify(inputs, budget)
    });
    t
}

/// Runs `batch` (which returns its op count) until `budget` is spent, at
/// least three times, and returns the median ns per op over batches.
fn per_op(budget: Duration, mut batch: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let t0 = Instant::now();
        let ops = batch();
        samples.push(t0.elapsed().as_nanos() as f64 / ops as f64);
    }
    crate::stats::median(&mut samples)
}

fn rng(inputs: &LayerInputs, label: &str) -> DetRng {
    RngHub::new(inputs.seed).stream(label, 0)
}

fn t_secs(inputs: &LayerInputs) -> f64 {
    inputs.workload.scenario(inputs.seed).t().as_secs()
}

/// Queue steady state shaped like the workload's engine: of the `depth`
/// pending events, all but n lie beyond the horizon and never pop (the
/// transitions a world schedules up front); the n active ones are popped
/// in time order and each replaced so that simulated time advances by
/// T / (events per interval) per event, as in the world. Between batches
/// of such steps, a batch of alarms is scheduled at the current instant
/// (untimed), then cancelled and skimmed off the heap top (timed), as a
/// re-armed alarm's tombstone is when its time comes. Returns (push+pop
/// ns, cancel+skim ns).
fn queue(inputs: &LayerInputs, budget: Duration) -> (f64, f64) {
    const STEPS: u64 = 2048;
    const CANCELS: u32 = 256;
    let n = inputs.params.n();
    let active = n.min(inputs.depth.max(1));
    let horizon = inputs.workload.horizon().as_secs();
    // Mean lead time that keeps `active` events pending while time
    // advances T/E per event (Little's law).
    let lead = active as f64 * t_secs(inputs) / inputs.events_per_interval.max(1.0);
    let mut rng = rng(inputs, "perfbench-queue");
    let event = SimEvent::Deliver {
        to: ProcId(0),
        from: ProcId(1),
        msg: WireMessage::Ping { round: 0, nonce: 0 },
    };
    let mut engine: Engine<SimEvent> = Engine::new();
    for _ in active..inputs.depth {
        engine.schedule_at(RealTime::from_secs(horizon * rng.uniform(1e3, 2e3)), event);
    }
    for _ in 0..active {
        engine.schedule_at(RealTime::from_secs(rng.uniform(0.0, 2.0 * lead)), event);
    }
    let mut victims = Vec::with_capacity(CANCELS as usize);
    let mut push_pop = Vec::new();
    let mut cancel = Vec::new();
    let start = Instant::now();
    // Interleave the two so drift in machine speed hits both.
    while push_pop.len() < 3 || start.elapsed() < budget {
        let t0 = Instant::now();
        for _ in 0..STEPS {
            let (now, ev) = engine
                .pop_until(RealTime::from_secs(f64::MAX))
                .expect("queue stays non-empty");
            engine.schedule_at(
                now + SimDuration::from_secs(rng.uniform(0.0, 2.0 * lead)),
                black_box(ev),
            );
        }
        push_pop.push(t0.elapsed().as_nanos() as f64 / STEPS as f64);
        let now = engine.now();
        victims.clear();
        victims.extend((0..CANCELS).map(|_| engine.schedule_at(now, event)));
        let t0 = Instant::now();
        for &id in &victims {
            black_box(engine.cancel(id));
        }
        black_box(engine.peek_time());
        cancel.push(t0.elapsed().as_nanos() as f64 / f64::from(CANCELS));
    }
    (
        crate::stats::median(&mut push_pop),
        crate::stats::median(&mut cancel),
    )
}

/// n estimates shaped like a round of the workload: the exact
/// self-estimate, the workload's share of timeouts, the rest jittered
/// offsets with millisecond error bounds.
fn estimates(inputs: &LayerInputs, rng: &mut DetRng) -> Vec<PeerEstimate> {
    let n = inputs.params.n();
    let timeouts = inputs.timeouts_per_round.round() as usize;
    (0..n)
        .map(|i| PeerEstimate {
            peer: ProcId(u32::try_from(i).expect("n fits u32")),
            sample: if i == 0 {
                OffsetSample {
                    offset: 0.0,
                    error: 0.0,
                }
            } else if i > n - 1 - timeouts.min(n - 1) {
                OffsetSample::TIMEOUT
            } else {
                OffsetSample {
                    offset: rng.uniform(-0.01, 0.01),
                    error: rng.uniform(0.001, 0.005),
                }
            },
        })
        .collect()
}

fn select(inputs: &LayerInputs, budget: Duration) -> f64 {
    const CALLS: u64 = 256;
    let mut rng = rng(inputs, "perfbench-select");
    let est = estimates(inputs, &mut rng);
    let f = inputs.params.f();
    let mut scratch = ConvergenceScratch::with_capacity(est.len());
    per_op(budget, || {
        for _ in 0..CALLS {
            black_box(select_low_high_into(f, black_box(&est), &mut scratch));
        }
        CALLS
    })
}

/// A driver that only counts what it is asked to do.
#[derive(Debug, Default)]
struct CountingDriver {
    sends: u64,
    timers: u64,
    adjustments: u64,
    rounds: u64,
}

impl Transport for CountingDriver {
    fn send(&mut self, _from: ProcId, _to: ProcId, _msg: WireMessage) {
        self.sends += 1;
    }
}

impl TimerControl for CountingDriver {
    fn set_timer(&mut self, _node: ProcId, _after: SimDuration, _kind: TimerKind) {
        self.timers += 1;
    }

    fn cancel_all(&mut self, _node: ProcId) {}
}

impl ClockSource for CountingDriver {
    fn local_now(&mut self, _node: ProcId) -> LocalTime {
        LocalTime::from_secs(0.0)
    }

    fn adjust_clock(&mut self, _node: ProcId, _delta: SimDuration) {
        self.adjustments += 1;
    }
}

impl Driver for CountingDriver {
    fn round_completed(&mut self, _node: ProcId, _summary: &RoundSummary) {
        self.rounds += 1;
    }
}

/// One node driven through whole rounds, its inputs shaped like the
/// workload's: a pong from every peer that answers (the workload's share
/// of peers stays silent), then the round timeout.
struct RoundBench {
    node: SyncNode,
    rng: DetRng,
    n: usize,
    silent: usize,
    local: f64,
    sync_int: f64,
}

impl RoundBench {
    /// Runs one round into `out`; returns (ns spent on mid-round pongs,
    /// their count). The last pong may complete the round, so it is not
    /// mid-round and is left out.
    fn round(&mut self, out: &mut Vec<Output>) -> (u128, u64) {
        self.local += self.sync_int;
        let local = self.local;
        out.clear();
        self.node.handle_into(
            Input::Start {
                local_now: LocalTime::from_secs(local),
            },
            out,
        );
        let Some(&Output::Send {
            msg: WireMessage::Ping { round, nonce },
            ..
        }) = out.first()
        else {
            panic!("a round starts with pings");
        };
        let answering = self.n - 1 - self.silent;
        let mut mid = (0, 0);
        let t0 = Instant::now();
        for q in 1..=answering {
            if q == answering {
                mid = (t0.elapsed().as_nanos(), q as u64 - 1);
            }
            let clock = LocalTime::from_secs(local + 0.001 + self.rng.uniform(-0.01, 0.01));
            let input = Input::Message {
                from: ProcId(u32::try_from(q).expect("n fits u32")),
                msg: WireMessage::Pong {
                    round,
                    nonce,
                    clock,
                },
                local_now: LocalTime::from_secs(local + 0.002 + 1e-6 * q as f64),
            };
            self.node.handle_into(input, out);
        }
        let timeout = Input::TimerFired {
            timer: TimerKind::RoundTimeout { round },
            local_now: LocalTime::from_secs(local + 0.02),
        };
        self.node.handle_into(timeout, out);
        mid
    }
}

/// Returns (ns per mid-round pong, µs per round, ns per `apply_outputs`
/// of one round's outputs).
fn rounds(inputs: &LayerInputs, budget: Duration) -> (f64, f64, f64) {
    const ROUNDS: u64 = 8;
    let params = inputs.params;
    let n = params.n();
    let mut rng = rng(inputs, "perfbench-round");
    let mut bench = RoundBench {
        node: SyncNode::new(ProcId(0), params).with_nonce_seed(rng.bits64()),
        rng,
        n,
        silent: (inputs.timeouts_per_round.round() as usize).min(n - 1),
        local: 1000.0,
        sync_int: params.sync_int().as_secs(),
    };
    let mut outputs = Vec::with_capacity(2 * n);
    bench.round(&mut outputs);
    let mut out = Vec::with_capacity(2 * n);
    let (mut pong_ns, mut pongs) = (0u128, 0u64);
    let round_ns = per_op(budget, || {
        for _ in 0..ROUNDS {
            let (ns, count) = bench.round(&mut out);
            pong_ns += ns;
            pongs += count;
        }
        ROUNDS
    });

    let mut driver = CountingDriver::default();
    let apply_ns = per_op(budget / 4, || {
        for _ in 0..64 {
            apply_outputs(&mut driver, ProcId(0), black_box(&outputs));
        }
        64
    });
    black_box(&driver);
    (
        pong_ns as f64 / pongs.max(1) as f64,
        round_ns / 1e3,
        apply_ns,
    )
}

/// `send_times` from every node to every other, with simulated time
/// sweeping the horizon so spikes are active for their real share.
fn send(inputs: &LayerInputs, budget: Duration) -> f64 {
    const CALLS: u64 = 1024;
    let w = inputs.workload;
    let s = w.scenario(inputs.seed);
    let n = s.n;
    let mut net = Network::new(
        Topology::full_mesh(n),
        Box::new(UniformDelay::new(s.delta * 0.1, s.delta)),
        s.delta,
    );
    if w.loss() > 0.0 {
        net.set_loss_probability(w.loss());
    }
    if !w.fault_profile().is_quiet() {
        net.set_fault_profile(w.fault_profile());
    }
    for spike in w.delay_spikes() {
        net.add_delay_spike(spike);
    }
    let mut rng = rng(inputs, "perfbench-net");
    let horizon = w.horizon().as_secs();
    let step = horizon / 1e6;
    let (mut now, mut k) = (0.0f64, 0usize);
    per_op(budget, || {
        for _ in 0..CALLS {
            let from = k % n;
            let to = (from + 1 + (k / n) % (n - 1)) % n;
            k += 1;
            now = (now + step) % horizon;
            black_box(net.send_times(
                ProcId(u32::try_from(from).expect("n fits u32")),
                ProcId(u32::try_from(to).expect("n fits u32")),
                RealTime::from_secs(now),
                &mut rng,
            ));
        }
        CALLS
    })
}

/// Alarm inversion on a clock disciplined as the workload's: under slew,
/// every batch starts a fresh correction so queries hit the slewing
/// segment.
fn alarm(inputs: &LayerInputs, budget: Duration) -> f64 {
    const CALLS: u64 = 512;
    let s = inputs.workload.scenario(inputs.seed);
    let t = s.t().as_secs();
    let mut rng = rng(inputs, "perfbench-clock");
    let mut clock = LogicalClock::new(HardwareClock::new(1.0 + s.rho / 2.0));
    let mut now = RealTime::from_secs(100.0);
    per_op(budget, || {
        now += SimDuration::from_secs(t);
        if let Discipline::Slew { max_rate } = inputs.workload.discipline() {
            let delta = rng.uniform(-0.02, 0.02);
            clock.slew(now, SimDuration::from_secs(delta), max_rate);
        }
        let base = clock.read(now).as_secs();
        for _ in 0..CALLS {
            let target = LocalTime::from_secs(base + rng.uniform(0.0, t));
            black_box(clock.real_time_reaching_logical(now, target));
        }
        CALLS
    })
}

/// The workload's adversary, on the schedule `Workload::schedule`
/// rebuilds.
///
/// # Panics
///
/// Panics if that schedule is not the one the traced world ran under.
fn adversary(inputs: &LayerInputs) -> (Adversary, CorruptionSchedule) {
    let schedule = inputs.workload.schedule();
    assert_eq!(
        schedule.episode_count() as u64,
        inputs.episodes,
        "{}: the layer tier's schedule differs from the world's",
        inputs.workload.name()
    );
    let adversary = Adversary::new(schedule.clone(), Box::new(RandomReplyStrategy::new(1.0)));
    (adversary, schedule)
}

/// `good_at` for every node at instants sweeping the horizon.
fn good_at(inputs: &LayerInputs, budget: Duration) -> f64 {
    const CALLS: u64 = 256;
    let (adv, _) = adversary(inputs);
    let s = inputs.workload.scenario(inputs.seed);
    let horizon = inputs.workload.horizon().as_secs();
    let mut rng = rng(inputs, "perfbench-good-at");
    let mut k = 0u32;
    per_op(budget, || {
        let tau = RealTime::from_secs(rng.uniform(s.big_delta.as_secs(), horizon));
        for _ in 0..CALLS {
            let p = ProcId(k % u32::try_from(s.n).expect("n fits u32"));
            k = k.wrapping_add(1);
            black_box(adv.good_at(p, tau, s.big_delta));
        }
        CALLS
    })
}

fn verify(inputs: &LayerInputs, budget: Duration) -> f64 {
    let (_, schedule) = adversary(inputs);
    let s = inputs.workload.scenario(inputs.seed);
    let horizon = inputs.workload.horizon();
    per_op(budget, || {
        schedule
            .verify_f_limited(s.f, s.big_delta, horizon)
            .expect("the workload's schedule is f-limited");
        1
    }) / 1e6
}
