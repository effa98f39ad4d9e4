//! The indexed schedule queries and the sweep-line `verify_f_limited`
//! against linear references that scan every episode.
//!
//! Schedules are drawn on a coarse time grid so that queries land exactly
//! on break-in times, release times and `τ − Δ`, where an off-by-one in a
//! closed/half-open comparison would show.

use std::collections::BTreeSet;

use byzclock_adversary::{
    Adversary, CorruptionInterval, CorruptionSchedule, CrashStrategy, ScheduleError,
};
use byzclock_sim::{DetRng, ProcId, RealTime, RngHub, SimDuration};
use proptest::prelude::*;

/// Grid step: every generated time is a multiple of it.
const STEP: f64 = 0.5;

fn at(k: usize) -> RealTime {
    RealTime::from_secs(k as f64 * STEP)
}

fn never() -> RealTime {
    RealTime::from_secs(f64::INFINITY)
}

/// A random schedule on `procs` victims: overlapping episodes on one
/// victim, back-to-back episodes and permanent faults all occur.
fn random_schedule(rng: &mut DetRng, procs: usize, episodes: usize) -> CorruptionSchedule {
    let intervals = (0..episodes)
        .map(|_| {
            let proc = ProcId(rng.index(procs) as u32);
            let from = rng.index(60);
            let until = if rng.chance(0.1) {
                never()
            } else {
                at(from + 1 + rng.index(12))
            };
            CorruptionInterval::new(proc, at(from), until)
        })
        .collect();
    CorruptionSchedule::from_intervals(intervals)
}

/// Every time a query should probe: each episode's endpoints, the same
/// shifted by ±Δ, grid points past the last episode, and infinity.
fn probe_times(schedule: &CorruptionSchedule, big_delta: SimDuration) -> Vec<RealTime> {
    let mut times: Vec<RealTime> = (0..80).map(at).collect();
    for iv in schedule.intervals() {
        for t in [iv.from, iv.until] {
            times.extend([t, t - big_delta, t + big_delta]);
        }
    }
    times.push(never());
    times
}

fn linear_touches(s: &CorruptionSchedule, p: ProcId, start: RealTime, end: RealTime) -> bool {
    s.intervals()
        .iter()
        .any(|iv| iv.proc == p && iv.intersects_window(start, end))
}

fn linear_is_corrupt(s: &CorruptionSchedule, p: ProcId, tau: RealTime) -> bool {
    s.intervals()
        .iter()
        .any(|iv| iv.proc == p && iv.contains(tau))
}

fn linear_corrupt_set(s: &CorruptionSchedule, tau: RealTime) -> BTreeSet<ProcId> {
    s.intervals()
        .iter()
        .filter(|iv| iv.contains(tau))
        .map(|iv| iv.proc)
        .collect()
}

/// The O(E²) Definition 2 check: evaluate every candidate window start
/// against every episode.
fn linear_verify(
    s: &CorruptionSchedule,
    f: usize,
    big_delta: SimDuration,
    horizon: RealTime,
) -> Result<(), ScheduleError> {
    let mut candidates: Vec<RealTime> = vec![RealTime::ZERO];
    for iv in s.intervals() {
        let enter = iv.from - big_delta;
        if enter >= RealTime::ZERO && enter <= horizon {
            candidates.push(enter);
        }
        candidates.push(iv.from.min(horizon).max(RealTime::ZERO));
        if iv.until <= horizon {
            candidates.push(iv.until);
        }
    }
    candidates.sort();
    candidates.dedup();
    for tau in candidates {
        let end = tau + big_delta;
        let controlled: BTreeSet<ProcId> = s
            .intervals()
            .iter()
            .filter(|iv| iv.intersects_window(tau, end))
            .map(|iv| iv.proc)
            .collect();
        if controlled.len() > f {
            return Err(ScheduleError {
                window_start: tau,
                controlled: controlled.into_iter().collect(),
                f,
            });
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 100, .. ProptestConfig::default() })]

    /// `non_faulty_during`, `is_corrupt`, `corrupt_set` and `good_at`
    /// agree with the linear scans at every probe time, for victims with
    /// and without episodes.
    #[test]
    fn indexed_queries_match_linear_scans(
        seed in any::<u64>(),
        procs in 1usize..6,
        episodes in 0usize..30,
        delta_steps in 0usize..8,
    ) {
        let mut rng = RngHub::new(seed).stream("schedule-index", 0);
        let s = random_schedule(&mut rng, procs, episodes);
        let big_delta = SimDuration::from_secs(delta_steps as f64 * STEP);
        let adversary = Adversary::new(s.clone(), Box::new(CrashStrategy));
        let times = probe_times(&s, big_delta);
        for &tau in &times {
            prop_assert_eq!(s.corrupt_set(tau), linear_corrupt_set(&s, tau), "tau = {}", tau);
            for p in (0..=procs as u32).map(ProcId) {
                prop_assert_eq!(s.is_corrupt(p, tau), linear_is_corrupt(&s, p, tau));
                prop_assert_eq!(
                    adversary.good_at(p, tau, big_delta),
                    !linear_touches(&s, p, tau - big_delta, tau),
                    "good_at({:?}, {}, {})", p, tau, big_delta
                );
                // windows between every pair of nearby probe times
                for &end in times.iter().filter(|&&e| e >= tau).take(6) {
                    prop_assert_eq!(
                        s.non_faulty_during(p, tau, end),
                        !linear_touches(&s, p, tau, end),
                        "[{}, {}] on {:?}", tau, end, p
                    );
                }
            }
        }
    }

    /// The sweep returns exactly the reference's `Result`: the same first
    /// violating window start and the same ascending controlled set, for
    /// schedules that hold and schedules that break the bound.
    #[test]
    fn sweep_verifier_matches_quadratic_reference(
        seed in any::<u64>(),
        procs in 1usize..7,
        episodes in 0usize..40,
        f in 0usize..5,
        delta_steps in -3i32..10,
        horizon_steps in 0usize..90,
    ) {
        let mut rng = RngHub::new(seed).stream("schedule-verify", 0);
        let s = random_schedule(&mut rng, procs, episodes);
        // A negative Δ is outside Definition 2 but must still agree.
        let big_delta = SimDuration::from_secs(f64::from(delta_steps) * STEP);
        for horizon in [at(horizon_steps), never()] {
            prop_assert_eq!(
                s.verify_f_limited(f, big_delta, horizon),
                linear_verify(&s, f, big_delta, horizon)
            );
        }
    }

    /// Generated churn is f-limited for its own `f` and, with a budget one
    /// too small, fails at the same window as the reference.
    #[test]
    fn churn_generators_match_reference(
        seed in any::<u64>(),
        f in 1usize..4,
        extra in 0usize..4,
    ) {
        let n = 2 * f + extra;
        let big_delta = SimDuration::from_secs(10.0);
        let horizon = RealTime::from_secs(400.0);
        let mut rng = RngHub::new(seed).stream("churn", 0);
        let churn = CorruptionSchedule::random_churn(
            n, f, SimDuration::from_secs(1.0), SimDuration::from_secs(6.0),
            big_delta, horizon, &mut rng,
        );
        prop_assert_eq!(churn.verify_f_limited(f, big_delta, horizon), Ok(()));
        prop_assert_eq!(
            churn.verify_f_limited(f - 1, big_delta, horizon),
            linear_verify(&churn, f - 1, big_delta, horizon)
        );
    }
}

#[test]
fn fast_hopping_fails_at_the_reference_window() {
    // p0 released at 5, p1 broken into at 6 < 5 + Δ: f = 1 is violated.
    let s = CorruptionSchedule::from_intervals(vec![
        CorruptionInterval::new(ProcId(0), at(0), at(10)),
        CorruptionInterval::new(ProcId(1), at(12), at(18)),
        CorruptionInterval::new(ProcId(2), at(30), at(31)),
    ]);
    let big_delta = SimDuration::from_secs(3.0);
    let horizon = RealTime::from_secs(100.0);
    let err = s.verify_f_limited(1, big_delta, horizon).unwrap_err();
    assert_eq!(Err(err.clone()), linear_verify(&s, 1, big_delta, horizon));
    assert_eq!(err.window_start, RealTime::from_secs(3.0));
    assert_eq!(err.controlled, vec![ProcId(0), ProcId(1)]);
}

/// The benchmark's mobile workload: n = 16, f = 5, Δ = 60 s, 30 s holds
/// over 10 h — 2 000 episodes.
#[test]
fn mobile_sized_rotating_schedule_matches_reference() {
    let big_delta = SimDuration::from_secs(60.0);
    let horizon = RealTime::from_secs(36_000.0);
    let s =
        CorruptionSchedule::rotating(16, 5, big_delta * 0.5, big_delta, horizon, big_delta * 0.25);
    assert!(s.episode_count() >= 2_000);
    for f in [5, 4, 1] {
        assert_eq!(
            s.verify_f_limited(f, big_delta, horizon),
            linear_verify(&s, f, big_delta, horizon),
            "f = {f}"
        );
    }
    assert!(s.verify_f_limited(4, big_delta, horizon).is_err());
    let adversary = Adversary::new(s.clone(), Box::new(CrashStrategy));
    for k in (0..36_000).step_by(97) {
        let tau = RealTime::from_secs(f64::from(k) + 0.25);
        assert_eq!(s.corrupt_set(tau), linear_corrupt_set(&s, tau));
        for p in (0..16).map(ProcId) {
            assert_eq!(
                adversary.good_at(p, tau, big_delta),
                !linear_touches(&s, p, tau - big_delta, tau)
            );
        }
    }
}
