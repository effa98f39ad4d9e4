//! The delay-spike factor table against the linear maximum over every
//! spike, observed through delivery times and `NetworkStats::spiked`.
//!
//! With a constant base delay `d`, a send at `now` is delivered at
//! `now + d · factor(now)` when the factor exceeds 1 and at `now + d`
//! otherwise, so each delivery time pins down the factor the network used.

use byzclock_net::{ConstantDelay, DelaySpike, Network, Topology};
use byzclock_sim::{DetRng, ProcId, RealTime, RngHub, SimDuration};
use proptest::prelude::*;

const STEP: f64 = 0.25;

fn at(k: usize) -> RealTime {
    RealTime::from_secs(k as f64 * STEP)
}

fn base_delay() -> SimDuration {
    SimDuration::from_millis(2.0)
}

fn net() -> Network {
    Network::new(
        Topology::full_mesh(2),
        Box::new(ConstantDelay::new(base_delay())),
        SimDuration::from_millis(10.0),
    )
}

/// Random spikes on a grid: overlapping, nested, adjacent (one ends where
/// the next starts) and equal-factor neighbours all occur.
fn random_spikes(rng: &mut DetRng, count: usize) -> Vec<DelaySpike> {
    let mut spikes: Vec<DelaySpike> = Vec::with_capacity(count);
    for _ in 0..count {
        let from = match spikes.last() {
            Some(prev) if rng.chance(0.3) => prev.until,
            _ => at(rng.index(40)),
        };
        let len = 1 + rng.index(10);
        let factor = [1.0, 1.5, 2.0, 3.0, 1.25][rng.index(5)];
        spikes.push(DelaySpike {
            from,
            until: from + SimDuration::from_secs(len as f64 * STEP),
            factor,
        });
    }
    spikes
}

/// The factor as the network computed it before the table: a scan of
/// every spike.
fn linear_factor(spikes: &[DelaySpike], now: RealTime) -> f64 {
    spikes
        .iter()
        .filter(|s| s.from <= now && now < s.until)
        .map(|s| s.factor)
        .fold(1.0, f64::max)
}

/// The delivery time of a send at `now` under `factor`, computed as the
/// network does.
fn expected_delivery(now: RealTime, factor: f64) -> RealTime {
    let delay = (now + base_delay()).as_secs() - now.as_secs();
    let delay = if factor > 1.0 { delay * factor } else { delay };
    now + SimDuration::from_secs(delay)
}

/// Every spike endpoint, a point just inside each side of it, and the
/// grid points around and past the spikes.
fn probe_times(spikes: &[DelaySpike]) -> Vec<RealTime> {
    let eps = SimDuration::from_secs(1e-9);
    let mut times: Vec<RealTime> = (0..70).map(at).collect();
    for s in spikes {
        for t in [s.from, s.until] {
            times.extend([t, t - eps, t + eps]);
        }
    }
    times
}

/// Sends one message at every probe time; checks each delivery and the
/// spiked count against the linear factor over `spikes`.
fn check_against_reference(net: &mut Network, spikes: &[DelaySpike], rng: &mut DetRng) {
    for now in probe_times(spikes) {
        let factor = linear_factor(spikes, now);
        let spiked_before = net.stats().spiked;
        let times = net.send_times(ProcId(0), ProcId(1), now, rng);
        assert_eq!(
            *times,
            [expected_delivery(now, factor)],
            "now = {now}, factor = {factor}"
        );
        assert_eq!(
            net.stats().spiked - spiked_before,
            u64::from(factor > 1.0),
            "now = {now}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, .. ProptestConfig::default() })]

    /// The table's factor equals the linear maximum at every endpoint,
    /// also when spikes arrive in two batches with sends in between.
    #[test]
    fn spike_table_matches_linear_max(
        seed in any::<u64>(),
        first in 0usize..12,
        second in 0usize..12,
    ) {
        let mut rng = RngHub::new(seed).stream("spike-table", 0);
        let spikes = random_spikes(&mut rng, first + second);
        let mut net = net();
        for s in &spikes[..first] {
            net.add_delay_spike(*s);
        }
        check_against_reference(&mut net, &spikes[..first], &mut rng);
        for s in &spikes[first..] {
            net.add_delay_spike(*s);
        }
        check_against_reference(&mut net, &spikes, &mut rng);
    }
}

/// Regression: a spike added after sends have started must take effect,
/// so the table is rebuilt rather than left stale.
#[test]
fn spike_added_after_sends_rebuilds_the_table() {
    let mut net = net();
    let mut rng = RngHub::new(3).stream("spike-late", 0);
    let early = DelaySpike {
        from: RealTime::from_secs(10.0),
        until: RealTime::from_secs(20.0),
        factor: 2.0,
    };
    let late = DelaySpike {
        from: RealTime::from_secs(15.0),
        until: RealTime::from_secs(30.0),
        factor: 3.0,
    };
    let mid = RealTime::from_secs(17.0);
    let tail = RealTime::from_secs(25.0);
    net.add_delay_spike(early);
    assert_eq!(
        *net.send_times(ProcId(0), ProcId(1), mid, &mut rng),
        [expected_delivery(mid, 2.0)]
    );
    assert_eq!(
        *net.send_times(ProcId(0), ProcId(1), tail, &mut rng),
        [expected_delivery(tail, 1.0)]
    );
    net.add_delay_spike(late);
    assert_eq!(
        *net.send_times(ProcId(0), ProcId(1), mid, &mut rng),
        [expected_delivery(mid, 3.0)]
    );
    assert_eq!(
        *net.send_forged_times(ProcId(1), ProcId(0), tail, &mut rng),
        [expected_delivery(tail, 3.0)]
    );
    assert_eq!(net.stats().spiked, 3);
}
