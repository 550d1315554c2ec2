//! Regression gate for the figure pipeline: refactors of where a
//! world's constants live (each in its `*Params`, none in a fault
//! plan) and interpreter changes must not move a single job or a
//! single serialized byte. These are the
//! paper-scale headline numbers EXPERIMENTS.md quotes, plus byte-level
//! pins on the quick-series JSON. (That the interpreter agrees with
//! the tree-walking oracle on every script these figures run is
//! `eg-bench`'s `lockstep` test.)

use gridworld::figures::{
    fig1_submission_scalability, fig2_aloha_timeline, fig3_ethernet_timeline, fig6_aloha_reader,
    Scale,
};
use simgrid::SeriesSet;

fn jobs_submitted(set: &SeriesSet) -> f64 {
    set.series
        .iter()
        .find(|s| s.name == "Jobs Submitted")
        .and_then(|s| s.last())
        .expect("timeline has a Jobs Submitted series")
}

/// FNV-1a over the serialized series — a stable fingerprint that pins
/// every byte of the artifact without embedding kilobytes of JSON.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn fig2_fig3_job_counts_survive_default_plan() {
    let fig2 = fig2_aloha_timeline(Scale::Full, 2003);
    assert_eq!(jobs_submitted(&fig2), 2524.0, "Aloha jobs by t=1800");
    let fig3 = fig3_ethernet_timeline(Scale::Full, 2003);
    assert_eq!(jobs_submitted(&fig3), 2690.0, "Ethernet jobs by t=1800");
}

#[test]
fn fig1_fig6_quick_json_bytes_are_pinned() {
    // Pinned FNV-1a of `SeriesSet::to_json()` at Quick scale, seed
    // 2003. If a legitimate physics change moves these, re-derive with
    // the printed actual values.
    const FIG1_PIN: u64 = 0x83af_ef57_6513_337e;
    const FIG6_PIN: u64 = 0xa4f5_29c1_c356_9ef3;
    let fig1 = fnv1a(
        fig1_submission_scalability(Scale::Quick, 2003)
            .to_json()
            .as_bytes(),
    );
    let fig6 = fnv1a(fig6_aloha_reader(Scale::Quick, 2003).to_json().as_bytes());
    assert_eq!(fig1, FIG1_PIN, "fig1 quick JSON moved: actual {fig1:#018x}");
    assert_eq!(fig6, FIG6_PIN, "fig6 quick JSON moved: actual {fig6:#018x}");
}
