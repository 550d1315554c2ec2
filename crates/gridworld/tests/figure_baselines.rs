//! Regression gate for the figure pipeline: refactors of where a
//! world's constants live (each in its `*Params`, none in a fault
//! plan) and interpreter changes must not move a single job or a
//! single serialized byte. These are the
//! paper-scale headline numbers EXPERIMENTS.md quotes, every shape
//! claim of `gridworld::claims` at full scale, and byte-level pins on
//! the quick-series JSON. (That the interpreter agrees with the
//! tree-walking oracle on every script these figures run is
//! `eg-bench`'s `lockstep` test.)

use gridworld::claims::{self, CLAIMS};
use gridworld::figures::{by_name_full, Scale, ALL_ABLATIONS, ALL_FIGURES, COORD_FIGURES};
use simgrid::{FaultPlan, SeriesSet};

fn figure(name: &str, scale: Scale, seed: u64) -> SeriesSet {
    by_name_full(name, scale, seed, false)
        .expect("known figure")
        .set
}

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

/// Every full-scale figure runs once at seed 2003, and every ablation,
/// and fig2 and fig3 again under the tracked sample crash plan. Each
/// run must keep its pins — fig2's and fig3's job counts, and the stale
/// wakes and early units of a known scheduling error (DESIGN §10,
/// "Known limits": the driver arms a wake on every tick and still
/// ticks a stale one, so 21 units start early, 10.1 s of fig2's think
/// time and 2.4 s of fig3's lost; the fix drops every stale wake and
/// moves fig2/fig3) — and every claim must hold on them.
#[test]
fn full_scale_figures_keep_their_pins_and_claims() {
    let stale_early = [
        ("fig1", 0, 0),
        ("fig2", 58_839, 17),
        ("fig3", 54_820, 4),
        ("fig4", 0, 0),
        ("fig5", 0, 0),
        ("fig6", 452, 0),
        ("fig7", 2_442, 0),
        ("fig8", 49, 0),
        ("fig9", 11, 0),
    ];
    let jobs = [("fig2", 2524.0), ("fig3", 2690.0)];
    let mut sets: Vec<(String, SeriesSet)> = Vec::new();
    for &id in ALL_FIGURES
        .iter()
        .chain(&COORD_FIGURES)
        .chain(&ALL_ABLATIONS)
    {
        let run = by_name_full(id, Scale::Full, 2003, false).expect("known figure");
        if let Some(&(_, stale, early)) = stale_early.iter().find(|p| p.0 == id) {
            let got = (run.stale_wakes, run.early_units);
            assert_eq!(got, (stale, early), "{id}: (stale wakes, early units)");
        }
        if let Some(&(_, want)) = jobs.iter().find(|p| p.0 == id) {
            assert_eq!(jobs_submitted(&run.set), want, "{id}: jobs by t=1800");
        }
        sets.push((id.to_string(), run.set));
    }
    let plan_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/PLAN.sample.json"
    );
    let plan = FaultPlan::parse_json(&std::fs::read_to_string(plan_path).unwrap()).unwrap();
    sets.extend(claims::run_planned(Scale::Full, 2003, &plan));
    let failed: Vec<String> = CLAIMS
        .iter()
        .map(|c| (c.name, c.judge(&sets)))
        .filter(|(_, v)| !v.holds)
        .map(|(name, v)| format!("{name}: {}", v.numbers))
        .collect();
    assert!(failed.is_empty(), "claims fail:\n{}", failed.join("\n"));
}

#[test]
fn fig1_fig6_quick_json_bytes_are_pinned() {
    // Pinned FNV-1a of `SeriesSet::to_json()` at Quick scale, seed
    // 2003. If a legitimate physics change moves these, re-derive with
    // the printed actual values.
    const FIG1_PIN: u64 = 0x83af_ef57_6513_337e;
    const FIG6_PIN: u64 = 0xa4f5_29c1_c356_9ef3;
    let fig1 = fnv1a(figure("fig1", Scale::Quick, 2003).to_json().as_bytes());
    let fig6 = fnv1a(figure("fig6", Scale::Quick, 2003).to_json().as_bytes());
    assert_eq!(fig1, FIG1_PIN, "fig1 quick JSON moved: actual {fig1:#018x}");
    assert_eq!(fig6, FIG6_PIN, "fig6 quick JSON moved: actual {fig6:#018x}");
}
