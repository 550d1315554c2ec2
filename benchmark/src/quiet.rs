//! Keeping only what was measured while the host's kernel path was in
//! its undisturbed state, for the loopback-socket measurements.
//!
//! Why: the sandbox flips, every 5–20 s, between two states that the
//! ALU calibration of [`crate::clock`] cannot see (it reads 0.98 in
//! both): in one a bare TCP echo between two threads on one CPU takes
//! 4.65 µs and a `gridd` `df` 10.2 µs; in the other 7.0 µs and 15 µs,
//! while pipelined throughput drops by a fifth — so no single factor
//! corrects both. Forty 4 s runs were each wholly in one state or the
//! other, and ten 20 s runs read anything from 10.3 to 15.9 µs. The
//! echo tracks the state exactly (round trip ÷ echo = 2.19–2.21 in
//! either), so it serves as the detector: every chunk is tagged with
//! the echo round trip measured just before and after it, and only
//! chunks whose echo is within 15 % of the run's own first-quartile
//! echo count.

use crate::stats::median;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// Round trips per echo sample (~0.3 ms).
const ROUND_TRIPS: usize = 64;
/// A chunk counts if the echo around it was at most this many times the
/// first-quartile echo of the run. The two states are 50 % apart and each is
/// steady to 2 %.
const QUIET_WITHIN: f64 = 1.15;

/// A reference echo: a thread that writes back whatever it reads, and
/// a loopback TCP connection to it. Spawn it after
/// [`crate::sched::settle`], so that it shares the CPU and policy of
/// the threads it stands in for.
pub struct Echo {
    client: TcpStream,
    server: Option<JoinHandle<()>>,
}

impl Echo {
    /// Start the echo thread and connect to it.
    pub fn start() -> io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else {
                return;
            };
            let _ = peer.set_nodelay(true);
            let mut buf = [0u8; 16];
            // Ends when the client shuts the connection down.
            while let Ok(n @ 1..) = peer.read(&mut buf) {
                if peer.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        });
        let client = TcpStream::connect(addr)?;
        client.set_nodelay(true)?;
        Ok(Echo {
            client,
            server: Some(server),
        })
    }

    /// Median wall-clock microseconds of [`ROUND_TRIPS`] round trips.
    pub fn round_trip_us(&mut self) -> io::Result<f64> {
        let mut us = [0.0; ROUND_TRIPS];
        let mut buf = [0u8; 8];
        for slot in &mut us {
            let t0 = Instant::now();
            self.client.write_all(&buf)?;
            self.client.read_exact(&mut buf)?;
            *slot = t0.elapsed().as_secs_f64() * 1e6;
        }
        Ok(median(&us).expect("ROUND_TRIPS > 0"))
    }

    /// Run `measure` and add what it returns to `into`, tagged with the
    /// higher of the echo round trips taken just before and after it.
    pub fn tag<T>(
        &mut self,
        into: &mut Tagged<T>,
        measure: impl FnOnce() -> T,
    ) -> Result<(), String> {
        let mut sample = || {
            self.round_trip_us()
                .map_err(|e| format!("reference echo: {e}"))
        };
        let before = sample()?;
        let item = measure();
        let after = sample()?;
        into.items.push((before.max(after), item));
        Ok(())
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        // Errors are ignored: there is nobody to report them to, and
        // the join below ends either way once the socket is gone.
        let _ = self.client.shutdown(Shutdown::Both);
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

/// Measurements tagged with the echo round trip around them.
pub struct Tagged<T> {
    items: Vec<(f64, T)>,
}

impl<T> Tagged<T> {
    /// No measurements yet.
    pub fn new() -> Tagged<T> {
        Tagged { items: Vec::new() }
    }

    /// How many were added.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// The items measured in the quiet state: echo at most
    /// [`QUIET_WITHIN`] times the first quartile of all echoes. (Not
    /// the minimum: a tenth of the samples sit in a third, faster mode
    /// at 3.7 µs, which would disqualify the 4.65 µs the state is known
    /// by. A run that is disturbed for more than three quarters of its
    /// time keeps everything and reads slow.)
    pub fn quiet(&self) -> Vec<&T> {
        let echoes: Vec<f64> = self.items.iter().map(|(e, _)| *e).collect();
        let floor = crate::stats::percentile(&echoes, 25.0).unwrap_or(f64::INFINITY);
        self.items
            .iter()
            .filter(|(e, _)| *e <= floor * QUIET_WITHIN)
            .map(|(_, item)| item)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_keeps_what_is_near_the_first_quartile_echo() {
        let mut t = Tagged::new();
        // First quartile (nearest rank of 8) is 4.65: the bar is 5.35.
        let tagged = [
            (4.7, 'a'),
            (7.0, 'b'),
            (4.65, 'c'),
            (5.3, 'd'),
            (5.4, 'e'),
            (3.7, 'f'),
            (4.7, 'g'),
            (7.2, 'h'),
        ];
        t.items.extend(tagged);
        assert_eq!(t.len(), 8);
        assert_eq!(t.quiet(), [&'a', &'c', &'d', &'f', &'g']);
        assert!(Tagged::<u8>::new().quiet().is_empty());
    }

    #[test]
    fn echo_answers_and_stops() {
        let mut echo = Echo::start().expect("loopback is available");
        let us = echo.round_trip_us().expect("the echo thread answers");
        assert!(us > 0.0);
        drop(echo); // joins the thread; a hang here fails the test run
    }
}
