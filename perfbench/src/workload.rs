//! The three benchmark workloads: how each world is generated from the
//! seed, how long it runs, and the layer inputs shaped like it.

use byzclock_adversary::{CorruptionSchedule, RandomReplyStrategy};
use byzclock_harness::scenario::Scenario;
use byzclock_net::{DelaySpike, FaultProfile};
use byzclock_runtime::{Discipline, DriftSpec, LinkOutage, World};
use byzclock_sim::{ProcId, RealTime, RngHub, SimDuration};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// n = 16, f = 5, rotating mobile adversary over a 10 h horizon.
    Mobile16,
    /// n = 256, f = 85, quiet world, faithful network.
    Wide256,
    /// n = 32, f = 10, drifting slewed clocks over a faulty network with
    /// link outages and benign restarts; no adversary.
    Recovery32,
}

/// Period of the recovery32 fault cycle: one delay spike, one link outage
/// and one benign restart start every `FAULT_PERIOD_S` simulated seconds.
const FAULT_PERIOD_S: f64 = 13.0;
/// Length of each recovery32 delay spike.
const SPIKE_S: f64 = 1.0;
/// Length of each recovery32 link outage.
const OUTAGE_S: f64 = 3.0;
/// Interval of recovery32's random-walk drift: every node's hardware
/// rate changes this often.
const DRIFT_STEP_S: f64 = 5.0;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Mobile16, Workload::Wide256, Workload::Recovery32];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mobile16 => "mobile16",
            Workload::Wide256 => "wide256",
            Workload::Recovery32 => "recovery32",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The canned scenario (n, f, δ, ρ, Δ, K) with the run's seed.
    pub fn scenario(self, seed: u64) -> Scenario {
        match self {
            Workload::Mobile16 => Scenario::standard(16, 5),
            Workload::Wide256 => Scenario::standard(256, 85),
            Workload::Recovery32 => Scenario::drifty(32, 10),
        }
        .with_seed(seed)
    }

    /// Sync intervals (T = Δ/K = 7.5 s simulated) one world runs for.
    pub fn intervals(self) -> u32 {
        match self {
            Workload::Mobile16 => 4_800, // 10 h
            Workload::Wide256 => 100,    // 750 s
            Workload::Recovery32 => 480, // 1 h
        }
    }

    /// The simulated horizon of one world.
    pub fn horizon(self) -> RealTime {
        let t = self.scenario(0).t();
        RealTime::ZERO + t * f64::from(self.intervals())
    }

    /// Whether Theorem 5's γ must hold at every interval. recovery32 runs
    /// outside the paper's model (loss, duplication, δ-violating spikes),
    /// so its γ misses are counted but do not fail the run.
    pub fn gamma_required(self) -> bool {
        !matches!(self, Workload::Recovery32)
    }

    /// Hardware drift-rate changes per interval (each re-arms the node's
    /// pending alarms): a random-walk step every `DRIFT_STEP_S` on every
    /// node.
    pub fn drift_changes_per_interval(self) -> f64 {
        match self {
            Workload::Recovery32 => {
                let s = self.scenario(0);
                s.n as f64 * s.t().as_secs() / DRIFT_STEP_S
            }
            Workload::Mobile16 | Workload::Wide256 => 0.0,
        }
    }

    /// The corruption schedule the world runs under (empty without an
    /// adversary). Generated as `Scenario::churn_world` does; the layer
    /// tier checks its episode count against the traced world's.
    pub fn schedule(self) -> CorruptionSchedule {
        match self {
            Workload::Mobile16 => {
                let s = self.scenario(0);
                CorruptionSchedule::rotating(
                    s.n,
                    s.f,
                    s.big_delta * 0.5,
                    s.big_delta,
                    self.horizon(),
                    s.big_delta * 0.25,
                )
            }
            Workload::Wide256 | Workload::Recovery32 => CorruptionSchedule::new(),
        }
    }

    /// The network fault profile (duplication, reordering).
    pub fn fault_profile(self) -> FaultProfile {
        match self {
            Workload::Recovery32 => FaultProfile {
                duplicate_probability: 0.05,
                reorder_probability: 0.10,
            },
            Workload::Mobile16 | Workload::Wide256 => FaultProfile::default(),
        }
    }

    /// Independent message-loss probability.
    pub fn loss(self) -> f64 {
        match self {
            Workload::Recovery32 => 0.01,
            Workload::Mobile16 | Workload::Wide256 => 0.0,
        }
    }

    /// The clock discipline.
    pub fn discipline(self) -> Discipline {
        match self {
            Workload::Recovery32 => Discipline::Slew { max_rate: 0.005 },
            Workload::Mobile16 | Workload::Wide256 => Discipline::Step,
        }
    }

    /// Delay spikes (×1.5 for `SPIKE_S`, once per fault period).
    pub fn delay_spikes(self) -> Vec<DelaySpike> {
        if self != Workload::Recovery32 {
            return Vec::new();
        }
        fault_starts(self.horizon())
            .map(|from| DelaySpike {
                from,
                until: from + SimDuration::from_secs(SPIKE_S),
                factor: 1.5,
            })
            .collect()
    }

    /// The generated fault plan of recovery32: one random link outage and
    /// one random benign restart per fault period, drawn from the seed.
    pub fn outages_and_restarts(self, seed: u64) -> (Vec<LinkOutage>, Vec<(RealTime, ProcId)>) {
        if self != Workload::Recovery32 {
            return (Vec::new(), Vec::new());
        }
        let n = self.scenario(seed).n;
        let mut rng = RngHub::new(seed).stream("perfbench-faults", 0);
        let mut outages = Vec::new();
        let mut restarts = Vec::new();
        for from in fault_starts(self.horizon()) {
            let a = rng.index(n);
            let b = (a + 1 + rng.index(n - 1)) % n;
            outages.push(LinkOutage {
                a: proc(a),
                b: proc(b),
                from,
                until: from + SimDuration::from_secs(OUTAGE_S),
            });
            restarts.push((
                from + SimDuration::from_secs(FAULT_PERIOD_S / 2.0),
                proc(rng.index(n)),
            ));
        }
        (outages, restarts)
    }

    /// Builds the world for `seed`: the whole set-up a user pays before
    /// the first event, schedule generation and `verify_f_limited`
    /// included.
    ///
    /// # Panics
    ///
    /// Panics if a canned configuration fails to build (a program bug).
    pub fn build(self, seed: u64) -> World {
        let s = self.scenario(seed);
        match self {
            Workload::Mobile16 => {
                s.churn_world(Box::new(RandomReplyStrategy::new(1.0)), self.horizon())
            }
            Workload::Wide256 => s.quiet_world(),
            Workload::Recovery32 => {
                let (outages, restarts) = self.outages_and_restarts(seed);
                s.builder()
                    .initial_bias_spread(s.bounds().gamma / 4.0)
                    .drift(DriftSpec::RandomWalk {
                        step_std: 1e-5,
                        interval: SimDuration::from_secs(DRIFT_STEP_S),
                    })
                    .discipline(self.discipline())
                    .net_faults(self.fault_profile())
                    .message_loss(self.loss())
                    .delay_spikes(self.delay_spikes())
                    .link_outages(outages)
                    .restarts(restarts)
                    .build()
                    .expect("recovery32 world must build")
            }
        }
    }
}

fn proc(i: usize) -> ProcId {
    ProcId(u32::try_from(i).expect("benchmark n fits u32"))
}

/// Start of every fault period inside the horizon (the first at one
/// period, so the world starts clean).
fn fault_starts(horizon: RealTime) -> impl Iterator<Item = RealTime> {
    (1..)
        .map(|k| RealTime::from_secs(f64::from(k) * FAULT_PERIOD_S))
        .take_while(move |t| *t < horizon)
}
