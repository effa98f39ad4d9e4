//! Run fingerprints and the table of recorded ones.
//!
//! A fingerprint pins everything a world run produced that a correct
//! optimisation must leave bit-identical: events processed, node-rounds,
//! the network's traffic statistics, the adversary's episode count and
//! the final good-deviation bits. `fingerprints.tsv` holds the value
//! recorded for each workload and seed; `--record` regenerates lines.

use std::fmt;

use byzclock_runtime::World;
use byzclock_sim::ProcId;

use crate::workload::Workload;

/// What one world run must reproduce bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// `World::events_processed`.
    pub events: u64,
    /// Σ `World::rounds_completed` over all nodes.
    pub node_rounds: u64,
    /// `NetworkStats::delivered`.
    pub delivered: u64,
    /// `NetworkStats::dropped`.
    pub dropped: u64,
    /// `NetworkStats::forged`.
    pub forged: u64,
    /// `NetworkStats::duplicated`.
    pub duplicated: u64,
    /// `NetworkStats::spiked`.
    pub spiked: u64,
    /// `World::corruption_episodes`.
    pub episodes: u64,
    /// Bits of the final `good_deviation()` (NaN's bits when undefined).
    pub deviation_bits: u64,
}

impl Fingerprint {
    /// Fingerprint of a world after its run; `deviation` is the final
    /// sample's good deviation.
    pub fn of(world: &World, deviation: Option<f64>) -> Self {
        let stats = world.network_stats();
        Fingerprint {
            events: world.events_processed(),
            node_rounds: node_rounds(world),
            delivered: stats.delivered,
            dropped: stats.dropped,
            forged: stats.forged,
            duplicated: stats.duplicated,
            spiked: stats.spiked,
            episodes: world.corruption_episodes() as u64,
            deviation_bits: deviation.unwrap_or(f64::NAN).to_bits(),
        }
    }

    /// Parses the fields after `workload seed` in a table line.
    fn parse(fields: &[&str]) -> Option<Self> {
        let [events, node_rounds, delivered, dropped, forged, duplicated, spiked, episodes, bits] =
            fields
        else {
            return None;
        };
        Some(Fingerprint {
            events: events.parse().ok()?,
            node_rounds: node_rounds.parse().ok()?,
            delivered: delivered.parse().ok()?,
            dropped: dropped.parse().ok()?,
            forged: forged.parse().ok()?,
            duplicated: duplicated.parse().ok()?,
            spiked: spiked.parse().ok()?,
            episodes: episodes.parse().ok()?,
            deviation_bits: u64::from_str_radix(bits.strip_prefix("0x")?, 16).ok()?,
        })
    }
}

impl fmt::Display for Fingerprint {
    /// The table's field order, tab-separated.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:#018x}",
            self.events,
            self.node_rounds,
            self.delivered,
            self.dropped,
            self.forged,
            self.duplicated,
            self.spiked,
            self.episodes,
            self.deviation_bits
        )
    }
}

/// Σ rounds completed over every node.
pub fn node_rounds(world: &World) -> u64 {
    (0..world.n())
        .map(|i| world.rounds_completed(ProcId(u32::try_from(i).expect("n fits u32"))))
        .sum()
}

const RECORDED: &str = include_str!("../fingerprints.tsv");

/// The fingerprint recorded for `workload` and `seed`, if any.
///
/// # Panics
///
/// Panics on a malformed table line (the table is part of the build).
pub fn recorded(workload: Workload, seed: u64) -> Option<Fingerprint> {
    RECORDED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .find_map(|line| {
            let fields: Vec<&str> = line.split('\t').collect();
            let (name, s) = (fields[0], fields[1].parse::<u64>().ok()?);
            (name == workload.name() && s == seed).then(|| {
                Fingerprint::parse(&fields[2..]).expect("well-formed fingerprints.tsv line")
            })
        })
}

/// One table line for `workload` and `seed`.
pub fn table_line(workload: Workload, seed: u64, fp: &Fingerprint) -> String {
    format!("{}\t{seed}\t{fp}", workload.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_through_the_table_format() {
        let fp = Fingerprint {
            events: 1,
            node_rounds: 2,
            delivered: 3,
            dropped: 4,
            forged: 5,
            duplicated: 6,
            spiked: 7,
            episodes: 8,
            deviation_bits: 0.25f64.to_bits(),
        };
        let line = table_line(Workload::Wide256, 9, &fp);
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(fields[..2], ["wide256", "9"]);
        assert_eq!(Fingerprint::parse(&fields[2..]), Some(fp));
    }

    #[test]
    fn every_table_line_parses() {
        for line in RECORDED
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let fields: Vec<&str> = line.split('\t').collect();
            assert!(Workload::from_name(fields[0]).is_some(), "{line}");
            assert!(fields[1].parse::<u64>().is_ok(), "{line}");
            assert!(Fingerprint::parse(&fields[2..]).is_some(), "{line}");
        }
    }
}
