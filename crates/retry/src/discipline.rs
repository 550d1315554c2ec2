//! Client disciplines: Fixed, Aloha, and Ethernet.
//!
//! Section 5 of the paper evaluates three client algorithms against
//! every contended resource:
//!
//! * **Fixed** — "aggressively repeats its assigned work without delay
//!   and without regard to any sort of failure";
//! * **Aloha** — the ordinary ftsh `try`: exponential backoff with a
//!   random factor, but resources are consumed at will and collisions
//!   are only detected after the fact;
//! * **Ethernet** — the same `try`, plus "a small piece of code to
//!   perform carrier sense before accessing a resource".

use crate::backoff::BackoffPolicy;
use crate::time::Dur;

/// The three client algorithms of §5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Discipline {
    /// Immediate blind retry, no backoff, no sensing.
    Fixed,
    /// Exponential backoff with jitter, no sensing.
    Aloha,
    /// Exponential backoff with jitter plus carrier sense.
    Ethernet,
}

impl Discipline {
    /// All three, in the order the paper's figures list them.
    pub const ALL: [Discipline; 3] = [Discipline::Ethernet, Discipline::Aloha, Discipline::Fixed];

    /// The delay policy this discipline applies between failures under
    /// the paper's §4 schedule (1 s doubled to a 1 h cap, ×[1, 2)).
    pub fn backoff(self) -> BackoffPolicy {
        self.backoff_within(Dur::from_secs(1), Dur::from_hours(1))
    }

    /// The delay policy this discipline applies with the paper's
    /// exponential shape scaled to `base` doubled up to `cap` — for
    /// worlds whose rounds take seconds, not minutes. Fixed never
    /// delays, whatever the scale.
    pub fn backoff_within(self, base: Dur, cap: Dur) -> BackoffPolicy {
        match self {
            Discipline::Fixed => BackoffPolicy::None,
            Discipline::Aloha | Discipline::Ethernet => BackoffPolicy::exponential(base, cap),
        }
    }

    /// Whether the client measures the resource before consuming it.
    pub fn uses_carrier_sense(self) -> bool {
        matches!(self, Discipline::Ethernet)
    }

    /// The label the paper's figure legends use.
    pub fn label(self) -> &'static str {
        match self {
            Discipline::Fixed => "Fixed",
            Discipline::Aloha => "Aloha",
            Discipline::Ethernet => "Ethernet",
        }
    }
}

impl std::fmt::Display for Discipline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Discipline {
    type Err = String;
    fn from_str(s: &str) -> Result<Discipline, String> {
        match s.to_ascii_lowercase().as_str() {
            "fixed" => Ok(Discipline::Fixed),
            "aloha" => Ok(Discipline::Aloha),
            "ethernet" => Ok(Discipline::Ethernet),
            other => Err(format!("unknown discipline: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_selection() {
        assert_eq!(Discipline::Fixed.backoff(), BackoffPolicy::None);
        assert_eq!(Discipline::Aloha.backoff(), BackoffPolicy::ethernet());
        assert_eq!(Discipline::Ethernet.backoff(), BackoffPolicy::ethernet());
        // Scaled, Fixed still never delays.
        let (base, cap) = (Dur::from_millis(500), Dur::from_secs(4));
        let scaled = BackoffPolicy::exponential(base, cap);
        assert_eq!(
            Discipline::Fixed.backoff_within(base, cap),
            BackoffPolicy::None
        );
        assert_eq!(Discipline::Aloha.backoff_within(base, cap), scaled);
        assert_eq!(Discipline::Ethernet.backoff_within(base, cap), scaled);
    }

    #[test]
    fn only_ethernet_senses() {
        assert!(!Discipline::Fixed.uses_carrier_sense());
        assert!(!Discipline::Aloha.uses_carrier_sense());
        assert!(Discipline::Ethernet.uses_carrier_sense());
    }

    #[test]
    fn parse_and_display() {
        for d in Discipline::ALL {
            let round: Discipline = d.label().parse().unwrap();
            assert_eq!(round, d);
            assert_eq!(d.to_string(), d.label());
        }
        assert!("csma".parse::<Discipline>().is_err());
    }
}
