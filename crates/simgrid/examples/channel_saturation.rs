//! The §3 remark, mechanically: sweep offered load on a shared slotted
//! channel and watch pure backoff (Aloha) saturate far below a
//! carrier-sensing station, while immediate retransmission (Fixed)
//! livelocks entirely.
//!
//! ```text
//! cargo run -p eg-simgrid --example channel_saturation
//! ```

use retry::Discipline;
use simgrid::simulate_channel;
use std::fmt::Write as _;

fn main() {
    println!(
        "{:>8} {:>10} {:>10} {:>10}",
        "G(new/s)", "Fixed", "Aloha", "Ethernet"
    );
    for p in [0.002, 0.005, 0.01, 0.02, 0.05, 0.1] {
        let mut row = format!("{:>8.2}", 50.0 * p);
        for d in [Discipline::Fixed, Discipline::Aloha, Discipline::Ethernet] {
            let s = simulate_channel(d, 50, p, 50_000, 1);
            let _ = write!(row, " {:>10.3}", s.throughput());
        }
        println!("{row}");
    }
    println!("\nThroughput S = successful slots / total slots, 50 stations.");
}
