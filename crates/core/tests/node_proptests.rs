//! Property-based tests for the sans-IO protocol node: arbitrary input
//! sequences must never panic, never produce malformed outputs, and keep
//! the round bookkeeping consistent.

use byzclock_clock::LocalTime;
use byzclock_core::{
    EstimationMode, Input, Output, ProtocolParams, SyncNode, TimerKind, WireMessage,
};
use byzclock_sim::{ProcId, SimDuration};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn params(n: usize, f: usize, k: usize) -> ProtocolParams {
    ProtocolParams::builder(n, f)
        .sync_int(SimDuration::from_secs(10.0))
        .max_wait(SimDuration::from_secs(1.0))
        .way_off(5.0)
        .pings_per_peer(k)
        .build()
        .unwrap()
}

#[derive(Debug, Clone)]
enum Fuzz {
    Start,
    Ping {
        from: u32,
        round: u64,
        nonce: u64,
    },
    Pong {
        from: u32,
        round: u64,
        nonce: u64,
        clock: f64,
    },
    SyncDue,
    RoundTimeout {
        round: u64,
    },
}

fn fuzz_strategy() -> impl Strategy<Value = Fuzz> {
    prop_oneof![
        1 => Just(Fuzz::Start),
        3 => (0u32..12, 0u64..6, 0u64..4).prop_map(|(from, round, nonce)| Fuzz::Ping {
            from,
            round,
            nonce
        }),
        6 => (0u32..12, 0u64..6, 0u64..4, -1e6f64..1e6).prop_map(
            |(from, round, nonce, clock)| Fuzz::Pong {
                from,
                round,
                nonce,
                clock
            }
        ),
        2 => Just(Fuzz::SyncDue),
        2 => (0u64..6).prop_map(|round| Fuzz::RoundTimeout { round }),
    ]
}

proptest! {
    /// The node survives any input sequence with monotone local time, and
    /// its outputs are always well formed (sends target real peers, timers
    /// have positive delays, pongs echo exactly what was asked).
    #[test]
    fn node_never_panics_and_outputs_are_well_formed(
        n in 4usize..10,
        k in 1usize..3,
        inputs in proptest::collection::vec(fuzz_strategy(), 0..120),
        time_steps in proptest::collection::vec(0.0f64..5.0, 0..120),
    ) {
        let f = (n - 1) / 3;
        let params = params(n, f, k);
        let mut node = SyncNode::new(ProcId(0), params);
        let mut local = 100.0;
        let mut rounds_seen = node.rounds_completed();
        for (i, fz) in inputs.iter().enumerate() {
            local += time_steps.get(i).copied().unwrap_or(0.1);
            let local_now = LocalTime::from_secs(local);
            let input = match *fz {
                Fuzz::Start => Input::Start { local_now },
                Fuzz::Ping { from, round, nonce } => Input::Message {
                    from: ProcId(from),
                    msg: WireMessage::Ping { round, nonce },
                    local_now,
                },
                Fuzz::Pong { from, round, nonce, clock } => Input::Message {
                    from: ProcId(from),
                    msg: WireMessage::Pong {
                        round,
                        nonce,
                        clock: LocalTime::from_secs(clock),
                    },
                    local_now,
                },
                Fuzz::SyncDue => Input::TimerFired {
                    timer: TimerKind::SyncDue,
                    local_now,
                },
                Fuzz::RoundTimeout { round } => Input::TimerFired {
                    timer: TimerKind::RoundTimeout { round },
                    local_now,
                },
            };
            let outputs = node.handle(input);
            for out in &outputs {
                match out {
                    Output::Send { to, msg } => {
                        prop_assert!(to.index() < n, "send outside the group");
                        // pings never target self; pongs answer whoever
                        // asked (a forged self-ping gets a self-pong, which
                        // the network layer drops)
                        if msg.is_ping() {
                            prop_assert!(*to != ProcId(0), "node pinged itself");
                        }
                        if let WireMessage::Pong { round, nonce, .. } = msg {
                            // a pong is only ever a response to a ping we
                            // just received with those exact values
                            if let Fuzz::Ping { round: r, nonce: nc, .. } = fz {
                                prop_assert_eq!(*round, *r);
                                prop_assert_eq!(*nonce, *nc);
                            }
                        }
                    }
                    Output::SetTimer { after, .. } => {
                        prop_assert!(!after.is_negative());
                        prop_assert!(after.is_finite());
                    }
                    Output::AdjustClock { delta } => {
                        prop_assert!(!delta.as_secs().is_nan());
                    }
                    Output::RoundCompleted(s) => {
                        prop_assert!(s.responders + 1 + s.timeouts <= n);
                    }
                }
            }
            // round counter is monotone
            prop_assert!(node.rounds_completed() >= rounds_seen);
            rounds_seen = node.rounds_completed();
        }
    }

    /// A full clean round with arbitrary (monotone) timing always completes
    /// with exactly one adjustment and re-arms the sync alarm.
    #[test]
    fn clean_round_always_completes(
        n in 4usize..8,
        peer_offsets in proptest::collection::vec(-0.5f64..0.5, 8),
        rtt in 0.001f64..0.9,
    ) {
        let f = (n - 1) / 3;
        let params = params(n, f, 1);
        let mut node = SyncNode::new(ProcId(0), params);
        let start = 50.0;
        let out = node.handle(Input::Start {
            local_now: LocalTime::from_secs(start),
        });
        let (round, nonce) = out
            .iter()
            .find_map(|o| match o {
                Output::Send {
                    msg: WireMessage::Ping { round, nonce },
                    ..
                } => Some((*round, *nonce)),
                _ => None,
            })
            .unwrap();
        let mut all_outputs = Vec::new();
        for q in 1..n {
            let offset = peer_offsets[q % peer_offsets.len()];
            let recv = start + rtt;
            let outs = node.handle(Input::Message {
                from: ProcId(q as u32),
                msg: WireMessage::Pong {
                    round,
                    nonce,
                    clock: LocalTime::from_secs(start + rtt / 2.0 + offset),
                },
                local_now: LocalTime::from_secs(recv),
            });
            all_outputs.extend(outs);
        }
        let adjustments = all_outputs
            .iter()
            .filter(|o| matches!(o, Output::AdjustClock { .. }))
            .count();
        prop_assert_eq!(adjustments, 1, "exactly one adjustment per round");
        let sync_armed = all_outputs.iter().any(|o| matches!(
            o,
            Output::SetTimer { kind: TimerKind::SyncDue, .. }
        ));
        prop_assert!(sync_armed, "next sync must be armed");
        prop_assert!(!node.is_round_active());
        // the adjustment is bounded by the honest estimate hull (all honest)
        let delta = all_outputs
            .iter()
            .find_map(|o| match o {
                Output::AdjustClock { delta } => Some(delta.as_secs()),
                _ => None,
            })
            .unwrap();
        let max_abs = peer_offsets.iter().fold(0.0f64, |a, b| a.max(b.abs())) + rtt;
        prop_assert!(delta.abs() <= max_abs + 1e-9, "delta {} too large", delta);
    }
}

/// Test-side copy of the node as it was before its round state became
/// running estimates: every accepted pong is kept in a per-peer list, the
/// round completes when a linear scan finds every list full, and the
/// estimates are rebuilt with `OffsetSample::best_of` at completion. The
/// new node must emit bit-identical outputs for every input.
mod reference {
    use byzclock_clock::LocalTime;
    use byzclock_core::{
        ConvergenceFn, ConvergenceScratch, EstimationMode, Input, OffsetSample, Output, PaperSync,
        PeerEstimate, ProtocolParams, RoundSummary, TimerKind, WireMessage,
    };
    use byzclock_sim::{DetRng, ProcId, SimDuration};

    const EXACT: OffsetSample = OffsetSample {
        offset: 0.0,
        error: 0.0,
    };

    pub struct Active {
        pub round: u64,
        pub nonce: u64,
        pub sent_at: LocalTime,
    }

    pub struct OldNode {
        id: ProcId,
        params: ProtocolParams,
        pub round: u64,
        pub active: Option<Active>,
        pub rounds_completed: u64,
        estimation: EstimationMode,
        cache: Vec<Option<OffsetSample>>,
        pub cache_sent_at: LocalTime,
        pub cache_nonce: u64,
        nonces: DetRng,
        samples: Vec<Vec<OffsetSample>>,
        scratch: ConvergenceScratch,
    }

    impl OldNode {
        pub fn new(
            id: ProcId,
            params: ProtocolParams,
            nonce_seed: u64,
            estimation: EstimationMode,
        ) -> Self {
            let n = params.n();
            OldNode {
                id,
                params,
                round: 0,
                active: None,
                rounds_completed: 0,
                estimation,
                cache: vec![None; n],
                cache_sent_at: LocalTime::ZERO,
                cache_nonce: 0,
                nonces: DetRng::seeded(nonce_seed),
                samples: vec![Vec::new(); n],
                scratch: ConvergenceScratch::with_capacity(n),
            }
        }

        pub fn handle_into(&mut self, input: Input, out: &mut Vec<Output>) {
            match input {
                Input::Start { local_now } => {
                    self.active = None;
                    match self.estimation {
                        EstimationMode::PerRound => self.begin_round(local_now, out),
                        EstimationMode::Cached { refresh } => {
                            self.cache.iter_mut().for_each(|slot| *slot = None);
                            self.refresh_cache(local_now, out);
                            out.push(Output::SetTimer {
                                after: refresh,
                                kind: TimerKind::CacheRefresh,
                            });
                            out.push(Output::SetTimer {
                                after: self.params.sync_int(),
                                kind: TimerKind::SyncDue,
                            });
                        }
                    }
                }
                Input::Message {
                    from,
                    msg,
                    local_now,
                } => match msg {
                    WireMessage::Ping { round, nonce } => {
                        if from.index() >= self.params.n() {
                            return;
                        }
                        out.push(Output::Send {
                            to: from,
                            msg: WireMessage::Pong {
                                round,
                                nonce,
                                clock: local_now,
                            },
                        });
                    }
                    WireMessage::Pong {
                        round,
                        nonce,
                        clock,
                    } => self.on_pong(from, round, nonce, clock, local_now, out),
                },
                Input::TimerFired { timer, local_now } => match timer {
                    TimerKind::CacheRefresh => {
                        let EstimationMode::Cached { refresh } = self.estimation else {
                            return;
                        };
                        self.refresh_cache(local_now, out);
                        out.push(Output::SetTimer {
                            after: refresh,
                            kind: TimerKind::CacheRefresh,
                        });
                    }
                    TimerKind::SyncDue => {
                        if let EstimationMode::Cached { .. } = self.estimation {
                            return self.sync_from_cache(out);
                        }
                        if self.active.is_none() {
                            self.begin_round(local_now, out);
                        }
                    }
                    TimerKind::RoundTimeout { round } => {
                        if self.active.as_ref().is_some_and(|a| a.round == round) {
                            self.complete_round(out);
                        }
                    }
                },
            }
        }

        fn begin_round(&mut self, local_now: LocalTime, out: &mut Vec<Output>) {
            self.round += 1;
            let round = self.round;
            let nonce = self.nonces.bits64();
            let k = self.params.pings_per_peer();
            self.active = Some(Active {
                round,
                nonce,
                sent_at: local_now,
            });
            for slot in &mut self.samples {
                slot.clear();
            }
            for q in ProcId::all(self.params.n()).filter(|q| *q != self.id) {
                for _ in 0..k {
                    out.push(Output::Send {
                        to: q,
                        msg: WireMessage::Ping { round, nonce },
                    });
                }
            }
            out.push(Output::SetTimer {
                after: self.params.max_wait(),
                kind: TimerKind::RoundTimeout { round },
            });
        }

        fn on_pong(
            &mut self,
            from: ProcId,
            round: u64,
            nonce: u64,
            clock: LocalTime,
            local_now: LocalTime,
            out: &mut Vec<Output>,
        ) {
            let k = self.params.pings_per_peer();
            let me = self.id;
            if !clock.as_secs().is_finite() {
                return;
            }
            if let EstimationMode::Cached { .. } = self.estimation {
                if round == self.round
                    && nonce == self.cache_nonce
                    && from != me
                    && from.index() < self.cache.len()
                    && local_now >= self.cache_sent_at
                {
                    self.cache[from.index()] = Some(OffsetSample::from_ping_pong(
                        self.cache_sent_at,
                        local_now,
                        clock,
                    ));
                }
                return;
            }
            let Some(active) = self.active.as_ref() else {
                return;
            };
            if active.round != round || active.nonce != nonce {
                return;
            }
            if from.index() >= self.samples.len() || from == me {
                return;
            }
            if self.samples[from.index()].len() >= k {
                return;
            }
            if local_now < active.sent_at {
                return;
            }
            let sample = OffsetSample::from_ping_pong(active.sent_at, local_now, clock);
            self.samples[from.index()].push(sample);
            let all_full = self
                .samples
                .iter()
                .enumerate()
                .all(|(i, s)| i == me.index() || s.len() == k);
            if all_full {
                self.complete_round(out);
            }
        }

        fn complete_round(&mut self, out: &mut Vec<Output>) {
            let Some(active) = self.active.take() else {
                return;
            };
            let estimates: Vec<PeerEstimate> = self
                .samples
                .iter()
                .enumerate()
                .map(|(i, samples)| PeerEstimate {
                    peer: ProcId(i as u32),
                    sample: if i == self.id.index() {
                        EXACT
                    } else {
                        OffsetSample::best_of(samples)
                    },
                })
                .collect();
            self.finish(active.round, &estimates, out);
        }

        fn refresh_cache(&mut self, local_now: LocalTime, out: &mut Vec<Output>) {
            self.round += 1;
            self.cache_sent_at = local_now;
            self.cache_nonce = self.nonces.bits64();
            for q in ProcId::all(self.params.n()).filter(|q| *q != self.id) {
                out.push(Output::Send {
                    to: q,
                    msg: WireMessage::Ping {
                        round: self.round,
                        nonce: self.cache_nonce,
                    },
                });
            }
        }

        fn sync_from_cache(&mut self, out: &mut Vec<Output>) {
            let estimates: Vec<PeerEstimate> = (0..self.params.n())
                .map(|i| PeerEstimate {
                    peer: ProcId(i as u32),
                    sample: if i == self.id.index() {
                        EXACT
                    } else {
                        self.cache[i].unwrap_or(OffsetSample::TIMEOUT)
                    },
                })
                .collect();
            self.finish(self.round, &estimates, out);
        }

        fn finish(&mut self, round: u64, estimates: &[PeerEstimate], out: &mut Vec<Output>) {
            let timeouts = estimates.iter().filter(|e| e.sample.is_timeout()).count();
            let responders = estimates.len() - timeouts - 1;
            let delta = PaperSync.adjustment_scratch(
                self.params.f(),
                self.params.way_off(),
                estimates,
                &mut self.scratch,
            );
            self.rounds_completed += 1;
            out.extend([
                Output::AdjustClock {
                    delta: SimDuration::from_secs(delta),
                },
                Output::RoundCompleted(RoundSummary {
                    round,
                    adjustment: delta,
                    responders,
                    timeouts,
                }),
                Output::SetTimer {
                    after: self.params.sync_int(),
                    kind: TimerKind::SyncDue,
                },
            ]);
        }
    }
}

/// The pong clock a [`Step::Pong`] reports.
#[derive(Debug, Clone, Copy)]
enum PongClock {
    /// Peer clock `offset` seconds from the ping's midpoint.
    Finite(f64),
    PosInf,
    NegInf,
    NaN,
}

/// How a [`Step::Pong`]'s `(round, nonce)` relates to the in-flight round.
#[derive(Debug, Clone, Copy)]
enum Echo {
    Current,
    WrongRound,
    WrongNonce,
    Arbitrary { round: u64, nonce: u64 },
}

#[derive(Debug, Clone)]
enum Step {
    Start,
    Ping {
        from: u32,
        round: u64,
        nonce: u64,
    },
    /// A pong received `rtt` local seconds after the current send time;
    /// `rtt` comes from a small table so equal-error ties are common. A
    /// negative entry exercises the received-before-sent guard, and an
    /// infinite one a sample whose error ties the timeout sentinel's.
    Pong {
        from: u32,
        rtt: usize,
        clock: PongClock,
        echo: Echo,
    },
    SyncDue,
    /// A round timeout for the in-flight round (`current`) or any round.
    Timeout {
        current: bool,
        round: u64,
    },
    CacheRefresh,
}

const RTTS: [f64; 8] = [-0.05, 0.0, 0.04, 0.1, 0.1, 0.25, 0.6, f64::INFINITY];

fn step_strategy() -> impl Strategy<Value = Step> {
    let clock = prop_oneof![
        12 => (-3.0f64..3.0).prop_map(PongClock::Finite),
        4 => (0usize..4).prop_map(|i| PongClock::Finite([0.0, 0.5, -0.5, 1e-9][i])),
        1 => Just(PongClock::PosInf),
        1 => Just(PongClock::NegInf),
        1 => Just(PongClock::NaN),
    ];
    let echo = prop_oneof![
        16 => Just(Echo::Current),
        1 => Just(Echo::WrongRound),
        1 => Just(Echo::WrongNonce),
        1 => (0u64..6, 0u64..4).prop_map(|(round, nonce)| Echo::Arbitrary { round, nonce }),
    ];
    prop_oneof![
        1 => Just(Step::Start),
        1 => (0u32..12, 0u64..6, any::<u64>())
            .prop_map(|(from, round, nonce)| Step::Ping { from, round, nonce }),
        24 => (0u32..11, 0usize..RTTS.len(), clock, echo)
            .prop_map(|(from, rtt, clock, echo)| Step::Pong { from, rtt, clock, echo }),
        2 => Just(Step::SyncDue),
        2 => (any::<bool>(), 0u64..6)
            .prop_map(|(current, round)| Step::Timeout { current, round }),
        1 => Just(Step::CacheRefresh),
    ]
}

/// Every float in an output as raw bits, so `-0.0` vs `0.0` and NaN
/// payloads count as differences.
fn output_bits(o: &Output) -> Vec<u64> {
    let msg_bits = |m: &WireMessage| match *m {
        WireMessage::Ping { round, nonce } => vec![0, round, nonce],
        WireMessage::Pong {
            round,
            nonce,
            clock,
        } => vec![1, round, nonce, clock.as_secs().to_bits()],
    };
    let timer_bits = |t: &TimerKind| match *t {
        TimerKind::SyncDue => vec![0],
        TimerKind::RoundTimeout { round } => vec![1, round],
        TimerKind::CacheRefresh => vec![2],
    };
    match o {
        Output::Send { to, msg } => [vec![0, u64::from(to.0)], msg_bits(msg)].concat(),
        Output::SetTimer { after, kind } => {
            [vec![1, after.as_secs().to_bits()], timer_bits(kind)].concat()
        }
        Output::AdjustClock { delta } => vec![2, delta.as_secs().to_bits()],
        Output::RoundCompleted(s) => vec![
            3,
            s.round,
            s.adjustment.to_bits(),
            s.responders as u64,
            s.timeouts as u64,
        ],
    }
}

proptest! {
    /// The running-estimate node is bit-identical to the per-peer-list
    /// reference for random pong streams: k ∈ 1..=4 pings per peer in any
    /// arrival order, equal-error ties, over-quota duplicates, wrong round
    /// or nonce, ±∞ and NaN clocks, restarts mid-round, timeouts with
    /// partially filled peers, and both estimation modes.
    #[test]
    fn running_estimates_match_per_peer_sample_lists(
        n in 2usize..9,
        k in 1usize..5,
        id in 0u32..8,
        cached in 0u32..4,
        nonce_seed in any::<u64>(),
        steps in proptest::collection::vec(step_strategy(), 0..160),
        time_steps in proptest::collection::vec(0.0f64..2.0, 160),
    ) {
        let f = (n - 1) / 3;
        let params = params(n, f, k);
        let id = ProcId(id % n as u32);
        let mode = if cached == 0 {
            EstimationMode::Cached { refresh: SimDuration::from_secs(2.0) }
        } else {
            EstimationMode::PerRound
        };
        let mut node = SyncNode::new(id, params)
            .with_nonce_seed(nonce_seed)
            .with_estimation(mode);
        let mut old = reference::OldNode::new(id, params, nonce_seed, mode);
        let mut now = 100.0;
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (step, dt) in steps.iter().zip(&time_steps) {
            now += dt;
            let local_now = LocalTime::from_secs(now);
            // The exchange a pong answers: the in-flight round, or the
            // latest cache volley.
            let (round, nonce, sent_at) = match (&old.active, mode) {
                (Some(a), EstimationMode::PerRound) => (a.round, a.nonce, a.sent_at),
                (None, EstimationMode::PerRound) => (old.round, 0, local_now),
                (_, EstimationMode::Cached { .. }) => {
                    (old.round, old.cache_nonce, old.cache_sent_at)
                }
            };
            let input = match *step {
                Step::Start => Input::Start { local_now },
                Step::Ping { from, round, nonce } => Input::Message {
                    from: ProcId(from),
                    msg: WireMessage::Ping { round, nonce },
                    local_now,
                },
                Step::Pong { from, rtt, clock, echo } => {
                    let rtt = RTTS[rtt];
                    let mid = if rtt.is_finite() { rtt / 2.0 } else { 0.0 };
                    let clock = match clock {
                        PongClock::Finite(d) => LocalTime::from_secs(sent_at.as_secs() + mid + d),
                        PongClock::PosInf => LocalTime::from_secs(f64::INFINITY),
                        PongClock::NegInf => LocalTime::from_secs(f64::NEG_INFINITY),
                        // `from_secs` refuses NaN; ∞ − ∞ makes one anyway,
                        // as corrupt arithmetic on a peer could.
                        PongClock::NaN => {
                            LocalTime::from_secs(f64::INFINITY)
                                + SimDuration::from_secs(f64::NEG_INFINITY)
                        }
                    };
                    let (round, nonce) = match echo {
                        Echo::Current => (round, nonce),
                        Echo::WrongRound => (round.wrapping_add(1), nonce),
                        Echo::WrongNonce => (round, nonce ^ 1),
                        Echo::Arbitrary { round, nonce } => (round, nonce),
                    };
                    Input::Message {
                        from: ProcId(from),
                        msg: WireMessage::Pong { round, nonce, clock },
                        local_now: LocalTime::from_secs(sent_at.as_secs() + rtt),
                    }
                }
                Step::SyncDue => Input::TimerFired { timer: TimerKind::SyncDue, local_now },
                Step::CacheRefresh => Input::TimerFired { timer: TimerKind::CacheRefresh, local_now },
                Step::Timeout { current, round: any_round } => Input::TimerFired {
                    timer: TimerKind::RoundTimeout {
                        round: if current { round } else { any_round },
                    },
                    local_now,
                },
            };
            got.clear();
            want.clear();
            // An infinite round trip makes a non-finite estimate, whose NaN
            // adjustment trips `SimDuration`'s debug assertion: both nodes
            // must then fail alike.
            let old_ok = catch_unwind(AssertUnwindSafe(|| old.handle_into(input, &mut want)));
            let new_ok = catch_unwind(AssertUnwindSafe(|| node.handle_into(input, &mut got)));
            prop_assert_eq!(old_ok.is_ok(), new_ok.is_ok(), "step {:?}", step);
            if old_ok.is_err() {
                break;
            }
            let got_bits: Vec<Vec<u64>> = got.iter().map(output_bits).collect();
            let want_bits: Vec<Vec<u64>> = want.iter().map(output_bits).collect();
            prop_assert_eq!(got_bits, want_bits, "step {:?}: {:?} vs {:?}", step, got, want);
            prop_assert_eq!(node.round(), old.round);
            prop_assert_eq!(node.is_round_active(), old.active.is_some());
            prop_assert_eq!(node.rounds_completed(), old.rounds_completed);
        }
    }
}
