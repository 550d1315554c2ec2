//! A slotted shared channel: the textbook model behind §3's remark.
//!
//! *"The original Aloha network would saturate at an offered load of 18
//! percent."* This module reproduces that curve mechanically — N
//! stations offer frames to a slotted medium; a slot with exactly one
//! transmission succeeds, more than one is a collision — and contrasts
//! three station disciplines mirroring the paper's clients:
//!
//! * **fixed** — retransmit in the very next slot (collisions persist
//!   forever once load is nontrivial);
//! * **aloha** — retransmit after a randomized exponential backoff;
//! * **ethernet** — carrier sense: stations begin transmitting at a
//!   random instant within the slot (mini-slots) and listen first; the
//!   earliest station takes the channel and everyone else defers.
//!   Collisions only happen when two stations start within the same
//!   propagation window, and the same backoff then applies.
//!
//! The ablation bench sweeps offered load and prints throughput so the
//! 18 %-class saturation of pure ALOHA is visible next to the
//! carrier-sensing discipline.

use crate::rng::SimRng;
use retry::Discipline;

/// Result of a channel simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelStats {
    /// Slots simulated.
    pub slots: u64,
    /// Slots carrying exactly one frame.
    pub successes: u64,
    /// Slots with two or more frames.
    pub collisions: u64,
    /// Slots left idle.
    pub idle: u64,
    /// Frames offered (new arrivals).
    pub offered: u64,
}

impl ChannelStats {
    /// Throughput S: fraction of slots carrying a successful frame.
    pub fn throughput(&self) -> f64 {
        self.successes as f64 / self.slots.max(1) as f64
    }

    /// Offered load G: new frames per slot.
    pub fn offered_load(&self) -> f64 {
        self.offered as f64 / self.slots.max(1) as f64
    }
}

struct Station {
    /// Pending frame and its scheduled transmission slot.
    pending: Option<u64>,
    collisions: u32,
}

/// Simulate `n_stations` stations for `slots` slots. Each idle station
/// generates a new frame per slot with probability `p_new` (offered
/// load G ≈ n·p_new). Returns the aggregate statistics.
///
/// ```
/// use retry::Discipline;
/// use simgrid::simulate_channel;
///
/// let aloha = simulate_channel(Discipline::Aloha, 50, 0.05, 10_000, 1);
/// let csma = simulate_channel(Discipline::Ethernet, 50, 0.05, 10_000, 1);
/// assert!(csma.throughput() > aloha.throughput());
/// ```
pub fn simulate_channel(
    discipline: Discipline,
    n_stations: usize,
    p_new: f64,
    slots: u64,
    seed: u64,
) -> ChannelStats {
    let mut rng = SimRng::new(seed);
    let mut stations: Vec<Station> = (0..n_stations)
        .map(|_| Station {
            pending: None,
            collisions: 0,
        })
        .collect();
    let mut stats = ChannelStats {
        slots,
        successes: 0,
        collisions: 0,
        idle: 0,
        offered: 0,
    };
    // Carrier sense resolution: stations starting within the same
    // mini-slot cannot hear each other in time.
    const MINI_SLOTS: u64 = 16;

    for slot in 0..slots {
        // Arrivals.
        for st in &mut stations {
            if st.pending.is_none() && rng.chance(p_new) {
                st.pending = Some(slot);
                st.collisions = 0;
                stats.offered += 1;
            }
        }
        // Who is due this slot?
        let mut due: Vec<usize> = Vec::new();
        for (i, st) in stations.iter().enumerate() {
            if matches!(st.pending, Some(at) if at <= slot) {
                due.push(i);
            }
        }
        // Ethernet: listen-before-talk. Each due station picks a random
        // start offset; the earliest wins the channel and later ones
        // sense it busy and politely hold for the next slot (no backoff
        // penalty — deferral is not a collision). Ties within the
        // propagation window collide.
        let transmitters: Vec<usize> = if discipline == Discipline::Ethernet && due.len() > 1 {
            let offsets: Vec<u64> = due.iter().map(|_| rng.range_u64(0, MINI_SLOTS)).collect();
            let min = *offsets.iter().min().expect("due nonempty");
            due.iter()
                .zip(&offsets)
                .filter(|&(_, &o)| o == min)
                .map(|(&i, _)| i)
                .collect()
        } else {
            due
        };
        match transmitters.len() {
            0 => {
                stats.idle += 1;
            }
            1 => {
                stats.successes += 1;
                stations[transmitters[0]].pending = None;
            }
            _ => {
                stats.collisions += 1;
                for &i in &transmitters {
                    let st = &mut stations[i];
                    st.collisions = st.collisions.saturating_add(1);
                    let delay = match discipline {
                        Discipline::Fixed => 1,
                        Discipline::Aloha | Discipline::Ethernet => {
                            // Binary exponential backoff, capped window.
                            let window = 1u64 << st.collisions.min(10);
                            1 + rng.range_u64(0, window)
                        }
                    };
                    st.pending = Some(slot + delay);
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_channel_is_idle() {
        let s = simulate_channel(Discipline::Aloha, 10, 0.0, 1000, 1);
        assert_eq!(s.successes, 0);
        assert_eq!(s.idle, 1000);
    }

    #[test]
    fn single_station_never_collides() {
        let s = simulate_channel(Discipline::Fixed, 1, 0.5, 10_000, 1);
        assert_eq!(s.collisions, 0);
        assert!(s.throughput() > 0.4);
    }

    #[test]
    fn fixed_discipline_livelocks_under_load() {
        // Two stations colliding with immediate retransmit never
        // recover: throughput collapses.
        let s = simulate_channel(Discipline::Fixed, 20, 0.2, 10_000, 1);
        assert!(
            s.throughput() < 0.02,
            "fixed should livelock, got S={}",
            s.throughput()
        );
        assert!(s.collisions > 9000);
    }

    #[test]
    fn aloha_saturates_in_the_textbook_range() {
        // Near its optimum, slotted ALOHA with backoff delivers on the
        // order of 1/e ≈ 0.37 for slotted / 0.18 for the classic pure
        // model; our backoff variant must land well above Fixed and
        // meaningfully below Ethernet at high load.
        let s = simulate_channel(Discipline::Aloha, 50, 0.02, 20_000, 1);
        let t = s.throughput();
        assert!((0.10..0.60).contains(&t), "aloha S={t}");
    }

    #[test]
    fn ethernet_beats_aloha_at_high_load() {
        let a = simulate_channel(Discipline::Aloha, 50, 0.05, 20_000, 1);
        let e = simulate_channel(Discipline::Ethernet, 50, 0.05, 20_000, 1);
        assert!(
            e.throughput() > a.throughput(),
            "ethernet {} vs aloha {}",
            e.throughput(),
            a.throughput()
        );
    }

    #[test]
    fn offered_load_accounts_new_frames_only() {
        let s = simulate_channel(Discipline::Aloha, 10, 0.1, 5_000, 2);
        // G is computed from arrivals, not retransmissions.
        assert!(s.offered_load() <= 10.0 * 0.1 + 0.1);
        assert!(s.offered > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate_channel(Discipline::Aloha, 30, 0.03, 10_000, 7);
        let b = simulate_channel(Discipline::Aloha, 30, 0.03, 10_000, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn conservation_of_slots() {
        let s = simulate_channel(Discipline::Ethernet, 25, 0.05, 8_000, 3);
        assert_eq!(s.successes + s.collisions + s.idle, s.slots);
    }
}
