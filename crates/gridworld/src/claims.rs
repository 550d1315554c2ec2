//! The paper's shape claims as code: one named predicate per ✅ in
//! EXPERIMENTS.md.
//!
//! The evaluation asks for shapes, not magnitudes: who wins, where
//! Fixed collapses, whether Ethernet holds its carrier-sense floor. A
//! [`Claim`] states one such shape as a predicate over the
//! [`SeriesSet`]s its figures emit, and answers holds or fails with the
//! numbers that decided it. Claims are judged after a run, never inside
//! one: `figures claims` runs every figure a claim reads, writes
//! `results/claims.md` with [`report`], and `figure_baselines` asserts
//! every claim at full scale, seed 2003.

use crate::figures::{by_name_with_plan, Scale};
use simgrid::{percentile, FaultPlan, Series, SeriesSet};
use std::fmt::Write;

/// Suffix of a figure id that names the figure run under the sample
/// crash plan (`results/PLAN.sample.json`) instead of its own faults.
pub const UNDER_PLAN: &str = "+plan";

/// One shape claim of the evaluation.
pub struct Claim {
    /// The name EXPERIMENTS.md cites.
    pub name: &'static str,
    /// The figure ids the claim reads, in the order `check` gets them.
    pub figures: &'static [&'static str],
    /// The claim in words, with the bounds `check` applies.
    pub text: &'static str,
    /// The predicate, over one series set per entry of `figures`.
    pub check: fn(&[&SeriesSet]) -> Verdict,
}

/// What a claim decided, and the numbers that decided it.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// Whether every part of the claim holds.
    pub holds: bool,
    /// The deciding numbers, one clause per part; a failing part is
    /// marked `✗`.
    pub numbers: String,
}

impl Verdict {
    /// The claim holds when every part does.
    fn all(parts: Vec<(bool, String)>) -> Verdict {
        let holds = parts.iter().all(|(ok, _)| *ok);
        let numbers = parts
            .into_iter()
            .map(|(ok, text)| if ok { text } else { format!("✗ {text}") })
            .collect::<Vec<_>>()
            .join("; ");
        Verdict { holds, numbers }
    }
}

impl Claim {
    /// Judge the claim on `sets`, which hold every figure it reads,
    /// keyed by id.
    pub fn judge(&self, sets: &[(String, SeriesSet)]) -> Verdict {
        let read: Vec<&SeriesSet> = self
            .figures
            .iter()
            .map(|id| {
                let found = sets.iter().find(|(name, _)| name == id);
                &found
                    .unwrap_or_else(|| panic!("{} reads {id}, which did not run", self.name))
                    .1
            })
            .collect();
        (self.check)(&read)
    }
}

/// Every claim, in EXPERIMENTS.md's order.
pub const CLAIMS: &[Claim] = &[
    Claim {
        name: "fig1-knee",
        figures: &["fig1"],
        text: "All three coincide (within 1 %) below the knee, the first N where Fixed falls under 10 % of Ethernet, which lies in (400, 450]. From the knee on, Ethernet > Aloha > Fixed at every N, Fixed stays under 10 % of Ethernet, Aloha never rises, and Ethernet keeps at least 45 % of its peak at the right edge.",
        check: fig1,
    },
    Claim {
        name: "fig2-jam",
        figures: &["fig2"],
        text: "Aloha's free FDs fall to 1 % of the table within 60 s, sit on a plateau (median after 60 s at most 1 % of the table), and spike above half the table at least 3 times after 60 s as the schedd dies.",
        check: fig2,
    },
    Claim {
        name: "fig3-floor",
        figures: &["fig2", "fig3"],
        text: "Ethernet's free FDs never fall below 900 (the 1000 threshold less 10 %), sit at the threshold (median after 60 s within 10 % of 1000), never rise above half the table after 60 s, and Ethernet submits more jobs than fig2's Aloha.",
        check: fig3,
    },
    Claim {
        name: "fig4-flat",
        figures: &["fig4"],
        text: "Ethernet loses at most 10 % from the fewest producers to the most; Aloha is at or below Ethernet at every N and does not grow (right edge at most its left); Fixed is below Aloha at every N and ends at most 55 % of Ethernet.",
        check: fig4,
    },
    Claim {
        name: "fig5-collisions",
        figures: &["fig5"],
        text: "Ethernet collides less than 10 % as often as Aloha at every N; Aloha's collisions never fall as N grows and end in the hundreds; Fixed collides at least 3.5× as often as Aloha at every N, and at least 9× from 20 producers up.",
        check: fig5,
    },
    Claim {
        name: "fig6-stall",
        figures: &["fig6"],
        text: "Aloha's readers stall a full black-hole timeout (at least 55 s between successive transfers), collide at least once, and both series stay within the paper's y range (at most 140).",
        check: fig6,
    },
    Claim {
        name: "fig7-smooth",
        figures: &["fig6", "fig7"],
        text: "Ethernet's readers never stall 55 s between successive transfers, defer at least once, and complete at least 1.5× fig6's Aloha transfers.",
        check: fig7,
    },
    Claim {
        name: "fig8-barrier",
        figures: &["fig8"],
        text: "Every discipline completes as many rounds as any other despite the kill; Ethernet's global completion is no later than Aloha's or Fixed's in every round, and its lead over Aloha grows every round.",
        check: fig8,
    },
    Claim {
        name: "fig9-makespan",
        figures: &["fig9"],
        text: "All 8 jobs of the diamond complete in every discipline under the ENOSPC window and the merge kill, and Ethernet's makespan is no later than Aloha's or Fixed's.",
        check: fig9,
    },
    Claim {
        name: "ablation-threshold-zero",
        figures: &["ablation-threshold"],
        text: "Threshold 0 crashes the schedd and submits at most 90 % of the jobs of the best threshold; every threshold from 100 up crashes nothing, and their jobs agree within 2 %.",
        check: ablation_threshold,
    },
    Claim {
        name: "ablation-channel-csma",
        figures: &["ablation-channel"],
        text: "Fixed carries under 0.01 successes per slot at every load; Aloha peaks between 0.30 and 0.40, near slotted ALOHA's 1/e; Ethernet's peak is at least 1.5× Aloha's.",
        check: ablation_channel,
    },
    Claim {
        name: "crash-plan-ethernet-ahead",
        figures: &["fig2+plan", "fig3+plan"],
        text: "Under the sample crash plan (ten schedd kills and a lossy submit channel), Ethernet still submits more jobs than Aloha.",
        check: crash_plan,
    },
];

/// Every figure id some claim reads, each once, in first-read order.
pub fn figures_read() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = Vec::new();
    for &id in CLAIMS.iter().flat_map(|c| c.figures) {
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

/// The figures the claims read under a plan (ids ending in
/// [`UNDER_PLAN`]), run at `scale` and `seed` with `plan` armed: the
/// caller passes the sample crash plan.
pub fn run_planned(scale: Scale, seed: u64, plan: &FaultPlan) -> Vec<(String, SeriesSet)> {
    figures_read()
        .into_iter()
        .filter_map(|id| {
            let base = id.strip_suffix(UNDER_PLAN)?;
            let run = by_name_with_plan(base, scale, seed, false, Some(plan));
            Some((
                id.to_string(),
                run.expect("a claim reads a known figure").set,
            ))
        })
        .collect()
}

/// `results/claims.md`: one row per judged claim. It holds nothing a
/// host or a clock could change.
pub fn report(scale: Scale, seed: u64, judged: &[(&Claim, Verdict)]) -> String {
    let held = judged.iter().filter(|(_, v)| v.holds).count();
    let mut md = format!(
        "# Shape claims\n\n`figures claims` at {scale:?} scale, seed {seed}: {held} of {} hold. \
         Each claim is a predicate in `gridworld::claims`; EXPERIMENTS.md cites it by name.\n\n\
         | claim | figures | states | verdict | deciding numbers |\n|---|---|---|---|---|\n",
        judged.len()
    );
    for (claim, v) in judged {
        let _ = writeln!(
            md,
            "| `{}` | {} | {} | {} | {} |",
            claim.name,
            claim.figures.join(", "),
            claim.text,
            if v.holds { "holds" } else { "**FAILS**" },
            v.numbers
        );
    }
    md
}

/// The series called `name`; a figure without it is a bug in the claim.
fn series<'a>(set: &'a SeriesSet, name: &str) -> &'a Series {
    set.get(name)
        .unwrap_or_else(|| panic!("{}: no series {name:?}", set.title))
}

fn xs(s: &Series) -> Vec<f64> {
    s.points.iter().map(|p| p.0).collect()
}

fn ys(s: &Series) -> Vec<f64> {
    s.points.iter().map(|p| p.1).collect()
}

/// The last value of `name`, which for a cumulative series is its total.
fn total(set: &SeriesSet, name: &str) -> f64 {
    series(set, name).last().unwrap_or(0.0)
}

/// The three disciplines' values, in Ethernet, Aloha, Fixed order.
fn disciplines(set: &SeriesSet) -> [Vec<f64>; 3] {
    ["Ethernet", "Aloha", "Fixed"].map(|d| ys(series(set, d)))
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn pct(part: f64, whole: f64) -> String {
    format!("{:.1} %", 100.0 * part / whole)
}

/// The longest time between successive points of a series.
fn longest_gap(s: &Series) -> f64 {
    s.points
        .windows(2)
        .map(|w| w[1].0 - w[0].0)
        .fold(0.0, f64::max)
}

fn fig1(sets: &[&SeriesSet]) -> Verdict {
    let ns = xs(series(sets[0], "Ethernet"));
    let [e, a, f] = disciplines(sets[0]);
    let collapsed = |i: usize| f[i] < 0.1 * e[i];
    let Some(k) = (0..ns.len()).find(|&i| collapsed(i)) else {
        return Verdict::all(vec![(
            false,
            "Fixed never falls under 10 % of Ethernet".into(),
        )]);
    };
    let spread = (0..k)
        .map(|i| {
            let (hi, lo) = (e[i].max(a[i]).max(f[i]), e[i].min(a[i]).min(f[i]));
            (hi - lo) / hi
        })
        .fold(0.0, f64::max);
    let past: Vec<String> = (k..ns.len())
        .map(|i| format!("{}/{}/{}", e[i], a[i], f[i]))
        .collect();
    let (peak, edge) = (max(&e), e[e.len() - 1]);
    Verdict::all(vec![
        (
            ns[k] > 400.0 && ns[k] <= 450.0,
            format!("knee at N = {}", ns[k]),
        ),
        (
            spread <= 0.01,
            format!("spread below it {:.1} %", 100.0 * spread),
        ),
        (
            (k..ns.len()).all(|i| e[i] > a[i] && a[i] > f[i] && collapsed(i)),
            format!("E/A/F from the knee {}", past.join(", ")),
        ),
        (
            a[k..].windows(2).all(|w| w[1] <= w[0]),
            format!("Aloha {} → {}", a[k], a[a.len() - 1]),
        ),
        (
            edge >= 0.45 * peak,
            format!(
                "Ethernet at the edge {edge} of peak {peak} = {}",
                pct(edge, peak)
            ),
        ),
    ])
}

/// When a timeline's free FDs are sampled after the start burst.
const SETTLED_S: f64 = 60.0;

/// A submit timeline's free FDs: the table size (its first sample), the
/// samples after [`SETTLED_S`], and their median.
fn settled_fds(set: &SeriesSet) -> (f64, Vec<f64>, f64) {
    let fd = series(set, "Available FDs");
    let after: Vec<f64> = fd
        .points
        .iter()
        .filter(|p| p.0 > SETTLED_S)
        .map(|p| p.1)
        .collect();
    let median = percentile(&mut after.clone(), 0.5).unwrap_or(f64::NAN);
    (fd.points[0].1, after, median)
}

/// fig3 against fig2, and the same pair under the crash plan: the
/// Ethernet timeline ends with more jobs than the Aloha one.
fn ethernet_submits_more(aloha: &SeriesSet, ethernet: &SeriesSet) -> (bool, String) {
    let (a, e) = (
        total(aloha, "Jobs Submitted"),
        total(ethernet, "Jobs Submitted"),
    );
    (
        e > a,
        format!(
            "jobs {e} against Aloha's {a} ({:+.1} %)",
            100.0 * (e / a - 1.0)
        ),
    )
}

fn fig2(sets: &[&SeriesSet]) -> Verdict {
    let (table, after, median) = settled_fds(sets[0]);
    let exhausted = series(sets[0], "Available FDs")
        .points
        .iter()
        .find(|p| p.1 <= 0.01 * table)
        .map_or(f64::INFINITY, |p| p.0);
    let spikes = after.iter().filter(|&&v| v > table / 2.0).count();
    Verdict::all(vec![
        (
            exhausted <= SETTLED_S,
            format!("{table} free FDs down to 1 % by t = {exhausted} s"),
        ),
        (
            median <= 0.01 * table,
            format!("median after 60 s {median}"),
        ),
        (
            spikes >= 3,
            format!(
                "{spikes} of {} samples after 60 s above {}",
                after.len(),
                table / 2.0
            ),
        ),
    ])
}

/// The paper's carrier-sense threshold in free FDs, where fig3 holds them.
const THRESHOLD: f64 = 1000.0;

fn fig3(sets: &[&SeriesSet]) -> Verdict {
    let (table, after, median) = settled_fds(sets[1]);
    let floor = series(sets[1], "Available FDs").min().unwrap_or(f64::NAN);
    let spikes = after.iter().filter(|&&v| v > table / 2.0).count();
    Verdict::all(vec![
        (floor >= 0.9 * THRESHOLD, format!("floor {floor}")),
        (
            (median - THRESHOLD).abs() <= 0.1 * THRESHOLD,
            format!("median after 60 s {median}"),
        ),
        (
            spikes == 0,
            format!("{spikes} samples after 60 s above {}", table / 2.0),
        ),
        ethernet_submits_more(sets[0], sets[1]),
    ])
}

fn fig4(sets: &[&SeriesSet]) -> Verdict {
    let [e, a, f] = disciplines(sets[0]);
    let (last, e_edge) = (e.len() - 1, e[e.len() - 1]);
    let lead = e
        .iter()
        .zip(&a)
        .map(|(e, a)| e - a)
        .fold(f64::INFINITY, f64::min);
    Verdict::all(vec![
        (
            e_edge >= 0.9 * e[0],
            format!("Ethernet {} → {e_edge}", e[0]),
        ),
        (
            lead >= 0.0,
            format!("Ethernet − Aloha at least {lead} at every N"),
        ),
        (a[last] <= a[0], format!("Aloha {} → {}", a[0], a[last])),
        (
            f.iter().zip(&a).all(|(f, a)| f < a),
            format!("Fixed under Aloha at all {} N", f.len()),
        ),
        (
            f[last] <= 0.55 * e_edge,
            format!(
                "Fixed at the edge {} = {} of Ethernet",
                f[last],
                pct(f[last], e_edge)
            ),
        ),
    ])
}

fn fig5(sets: &[&SeriesSet]) -> Verdict {
    let ns = xs(series(sets[0], "Fixed"));
    let [e, a, f] = disciplines(sets[0]);
    let ratio = |i: usize| f[i] / a[i];
    let least = |from: f64| {
        (0..ns.len())
            .filter(|&i| ns[i] >= from)
            .map(ratio)
            .fold(f64::INFINITY, f64::min)
    };
    let (worst, worst_heavy) = (least(0.0), least(20.0));
    let last = a.len() - 1;
    let ethernet_share = (0..e.len()).map(|i| e[i] / a[i]).fold(0.0, f64::max);
    Verdict::all(vec![
        (
            ethernet_share < 0.1,
            format!("Ethernet at most {} of Aloha", pct(ethernet_share, 1.0)),
        ),
        (
            a.windows(2).all(|w| w[1] >= w[0]) && a[last] >= 100.0,
            format!("Aloha {} → {}", a[0], a[last]),
        ),
        (worst >= 3.5, format!("Fixed at least {worst:.2}× Aloha")),
        (
            worst_heavy >= 9.0,
            format!("at least {worst_heavy:.2}× from N = 20"),
        ),
    ])
}

/// The paper's y axis for the reader figures tops out near 140 events.
const READER_Y_RANGE: f64 = 140.0;

/// A reader that waits this long between transfers sat out a black
/// hole's 60 s data timeout.
const STALL_S: f64 = 55.0;

fn fig6(sets: &[&SeriesSet]) -> Verdict {
    let gap = longest_gap(series(sets[0], "Transfers"));
    let (transfers, collisions) = (total(sets[0], "Transfers"), total(sets[0], "Collisions"));
    Verdict::all(vec![
        (gap >= STALL_S, format!("longest gap {gap:.1} s")),
        (collisions >= 1.0, format!("{collisions} collisions")),
        (
            transfers.max(collisions) <= READER_Y_RANGE,
            format!("{transfers} transfers"),
        ),
    ])
}

fn fig7(sets: &[&SeriesSet]) -> Verdict {
    let gap = longest_gap(series(sets[1], "Transfers"));
    let (aloha, ethernet) = (total(sets[0], "Transfers"), total(sets[1], "Transfers"));
    let deferrals = total(sets[1], "Deferrals");
    Verdict::all(vec![
        (gap < STALL_S, format!("longest gap {gap:.1} s")),
        (deferrals >= 1.0, format!("{deferrals} deferrals")),
        (
            ethernet >= 1.5 * aloha,
            format!(
                "{ethernet} transfers against Aloha's {aloha} ({:.2}×)",
                ethernet / aloha
            ),
        ),
    ])
}

fn fig8(sets: &[&SeriesSet]) -> Verdict {
    let [e, a, f] = disciplines(sets[0]);
    let rounds = [e.len(), a.len(), f.len()];
    let lead: Vec<f64> = e.iter().zip(&a).map(|(e, a)| a - e).collect();
    Verdict::all(vec![
        (
            rounds[0] >= 1 && rounds.iter().all(|&r| r == rounds[0]),
            format!(
                "rounds done E/A/F {}/{}/{}",
                rounds[0], rounds[1], rounds[2]
            ),
        ),
        (
            (0..e.len()).all(|i| e[i] <= a[i] && e[i] <= f[i]),
            format!(
                "last round E/A/F {:.1}/{:.1}/{:.1} s",
                e[e.len() - 1],
                a[a.len() - 1],
                f[f.len() - 1]
            ),
        ),
        (
            lead.windows(2).all(|w| w[1] > w[0]),
            format!(
                "lead over Aloha {} s",
                lead.iter()
                    .map(|l| format!("{l:.1}"))
                    .collect::<Vec<_>>()
                    .join(" → ")
            ),
        ),
    ])
}

fn fig9(sets: &[&SeriesSet]) -> Verdict {
    let jobs = crate::coord::DagSpec::diamond().jobs.len();
    let [e, a, f] = disciplines(sets[0]);
    let span = |v: &[f64]| v.last().copied().unwrap_or(f64::INFINITY);
    Verdict::all(vec![
        (
            [&e, &a, &f].iter().all(|v| v.len() == jobs),
            format!(
                "jobs done E/A/F {}/{}/{} of {jobs}",
                e.len(),
                a.len(),
                f.len()
            ),
        ),
        (
            span(&e) <= span(&a) && span(&e) <= span(&f),
            format!(
                "makespan E/A/F {:.1}/{:.1}/{:.1} s",
                span(&e),
                span(&a),
                span(&f)
            ),
        ),
    ])
}

fn ablation_threshold(sets: &[&SeriesSet]) -> Verdict {
    let jobs = &series(sets[0], "Jobs").points;
    let crashes = &series(sets[0], "Crashes").points;
    let sensing: Vec<f64> = jobs.iter().filter(|p| p.0 >= 100.0).map(|p| p.1).collect();
    let best = max(&sensing);
    let low = sensing.iter().copied().fold(f64::INFINITY, f64::min);
    let at_zero = |s: &[(f64, f64)]| s.iter().find(|p| p.0 == 0.0).map_or(f64::NAN, |p| p.1);
    let (jobs0, crashes0) = (at_zero(jobs), at_zero(crashes));
    let sensing_crashes: f64 = crashes.iter().filter(|p| p.0 >= 100.0).map(|p| p.1).sum();
    Verdict::all(vec![
        (crashes0 >= 1.0, format!("threshold 0: {crashes0} crashes")),
        (
            jobs0 <= 0.9 * best,
            format!("{jobs0} jobs = {} of the best {best}", pct(jobs0, best)),
        ),
        (
            sensing_crashes == 0.0,
            format!("{sensing_crashes} crashes from 100 up"),
        ),
        (low >= 0.98 * best, format!("jobs from 100 up {low}–{best}")),
    ])
}

fn ablation_channel(sets: &[&SeriesSet]) -> Verdict {
    let [e, a, f] = disciplines(sets[0]);
    let (e, a, f) = (max(&e), max(&a), max(&f));
    Verdict::all(vec![
        (f < 0.01, format!("Fixed peak {f:.5}")),
        ((0.30..=0.40).contains(&a), format!("Aloha peak {a:.3}")),
        (
            e >= 1.5 * a,
            format!("Ethernet peak {e:.3} = {:.2}× Aloha's", e / a),
        ),
    ])
}

fn crash_plan(sets: &[&SeriesSet]) -> Verdict {
    Verdict::all(vec![ethernet_submits_more(sets[0], sets[1])])
}
