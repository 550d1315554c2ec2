//! Same-seed determinism gate: regenerating a figure twice — once on
//! a sequential sweep, once across worker threads — must produce
//! byte-identical series JSON *and* byte-identical structured-trace
//! JSONL. This is what makes traces trustworthy post-mortem evidence:
//! the schedule of the sweep must never leak into the bytes.
//!
//! A single `#[test]` owns the `EG_SWEEP_THREADS` environment variable
//! for its whole run, so no other test can race it.

use gridworld::figures::{by_name_full, by_name_with_plan, Scale};
use retry::{Dur, Time};
use simgrid::faults::{FaultKind, FaultPlan, FaultSpec};
use simgrid::trace::to_jsonl;
use simgrid::TraceSummary;

/// One scenario of each kind, covering both engine paths: parallel
/// sweeps (fig1 = submit, fig5 = buffer) and single runs (fig7 =
/// reader, the paper's Ethernet black-hole figure), plus both
/// coordinated workloads (fig8 = all-reduce under a kill+restart,
/// fig9 = DAG under an ENOSPC window + kill) whose built-in fault
/// plans must land on identical virtual instants under any schedule.
const GATE_FIGURES: [&str; 5] = ["fig1", "fig5", "fig7", "fig8", "fig9"];

fn regenerate(name: &str, threads: &str) -> (String, String, u64) {
    std::env::set_var("EG_SWEEP_THREADS", threads);
    let run = by_name_full(name, Scale::Quick, 0xDE7E_0007, true).expect("known figure");
    let trace = run.trace.expect("tracing was requested");
    (run.set.to_json(), to_jsonl(&trace), run.events_popped)
}

#[test]
fn figures_are_bit_identical_across_sweep_schedules() {
    for name in GATE_FIGURES {
        let (series_seq, trace_seq, events_seq) = regenerate(name, "1");
        let (series_par, trace_par, events_par) = regenerate(name, "4");
        assert_eq!(
            series_seq, series_par,
            "{name}: series JSON must not depend on the sweep schedule"
        );
        assert_eq!(
            trace_seq, trace_par,
            "{name}: trace JSONL must not depend on the sweep schedule"
        );
        assert_eq!(
            events_seq, events_par,
            "{name}: per-run event counts must not depend on the sweep schedule"
        );
        assert!(
            !trace_seq.is_empty(),
            "{name}: a traced figure must actually record something"
        );
    }

    // The gate holds with a non-trivial fault plan armed: timed kills
    // and seeded message loss must land on identical virtual instants
    // regardless of the sweep schedule, and every injection must leave
    // a structured record behind.
    let mut plan = FaultPlan::new(0xFA);
    // Quick-scale fig1 simulates a 90 s window: everything lands early.
    plan.specs.push(FaultSpec::repeating(
        Time::from_secs(15),
        Dur::from_secs(25),
        3,
        FaultKind::ScheddKill {
            downtime: Some(Dur::from_secs(8)),
        },
    ));
    plan.specs.push(FaultSpec::once(
        Time::from_secs(10),
        FaultKind::MsgLoss {
            channel: "condor_submit".into(),
            probability: 0.4,
            duration: Dur::from_secs(30),
        },
    ));
    let regen_faulted = |threads: &str| {
        std::env::set_var("EG_SWEEP_THREADS", threads);
        let run = by_name_with_plan("fig1", Scale::Quick, 0xDE7E_0007, true, Some(&plan))
            .expect("known figure");
        (run.set.to_json(), to_jsonl(&run.trace.expect("traced")))
    };
    let (fseries_seq, ftrace_seq) = regen_faulted("1");
    let (fseries_par, ftrace_par) = regen_faulted("4");
    assert_eq!(
        fseries_seq, fseries_par,
        "fig1+faults: series JSON must not depend on the sweep schedule"
    );
    assert_eq!(
        ftrace_seq, ftrace_par,
        "fig1+faults: trace JSONL must not depend on the sweep schedule"
    );
    assert!(
        ftrace_seq.contains("\"ev\":\"fault\""),
        "armed injections must appear in the structured trace"
    );
    assert_ne!(
        fseries_seq,
        regenerate("fig1", "1").0,
        "the aggressive plan must actually perturb the figure"
    );

    // The analyzer reproduces Figure 7's deferral count from the trace
    // alone: the last value of the figure's "Deferrals" series equals
    // the number of deferral records.
    let (series, trace, _) = regenerate("fig7", "2");
    let run = simgrid::trace::from_jsonl(&trace).expect("round-trip");
    let summary = TraceSummary::from_records(&run);
    let deferrals_in_series: f64 = {
        // Parse the final y of the "Deferrals" series out of the JSON
        // we just serialized — crude but dependency-free.
        let tail = series
            .split("\"name\":\"Deferrals\"")
            .nth(1)
            .expect("fig7 has a Deferrals series");
        let points = tail.split("]]").next().expect("points array");
        points
            .rsplit(',')
            .next()
            .and_then(|v| v.trim_end_matches(']').parse::<f64>().ok())
            .expect("final deferral count")
    };
    assert_eq!(
        summary.deferrals as f64, deferrals_in_series,
        "post-mortem deferral count must match the figure series"
    );
}
