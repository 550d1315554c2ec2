//! The benchmark's declared shape: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repository root is generated from these tables
//! (`--print-benchmark-json`) and a unit test keeps the two equal.

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput).
    Higher,
    /// Smaller is better (time, memory).
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload: its name and the one-line reason it exists.
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
}

/// One declared metric.
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// How long one run measures, in seconds (`--seconds` default).
pub const RUN_SECONDS: u64 = 20;

/// The four workloads.
pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim_figures",
        why: "fig1-fig9 at paper scale (<=500 clients): shallow cache-resident queue, so ftsh VM ticks and gridworld physics do the work; covers all five worlds",
    },
    Workload {
        name: "sim_scale",
        why: "100 000 submitters x {Ethernet, Aloha}: queue depth and per-client state exceed the CPU caches, so simgrid::events and memory dominate and a VM-only change barely moves it",
    },
    Workload {
        name: "ftsh_scripts",
        why: "no simulator: lex/parse/compile/lint/envelope over corpus and generated scripts, then five script shapes through the VM; a simulator-only change predicts no movement",
    },
    Workload {
        name: "live_verbs",
        why: "in-process gridd on loopback, closed loop, 2 connections: reactor, wire codec and timer wheel with the modelled physics out of the way; sim and VM changes predict no movement",
    },
];

/// End-to-end metrics. Every workload reports every one; what the
/// workload-neutral names mean on each workload is in README.md.
/// A `cal_` unit is in calibrated time (see `clock`): wall time divided
/// by the host's slow-down, which every report prints beside it.
/// `setup_s` is calibrated too; the benchmark contract fixes its unit
/// string to `s`.
pub static END_TO_END: [Metric; 4] = [
    e2e("work_per_s", "1/cal_s", Better::Higher, 0.25),
    e2e("latency_us", "cal_us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Per-layer metrics, reported by a `--trace 1` run. Layer names are
/// the crates' modules.
pub static PER_LAYER: [Metric; 94] = [
    // ftsh front end
    layer("ftsh.lexer.mb_per_s", "MB/cal_s", Higher),
    layer("ftsh.parser.stmts_per_s", "1/cal_s", Higher),
    layer("ftsh.bytecode.compile_cold_us", "cal_us", Lower),
    layer("ftsh.bytecode.ops_per_stmt", "count", Lower),
    layer("ftsh.bytecode.compile_hit_ns", "cal_ns", Lower),
    layer("ftsh.vm.new_ns", "cal_ns", Lower),
    layer("ftsh.vm.bytes_per_client", "B", Lower),
    layer("ftsh.toolchain.scripts_per_s", "1/cal_s", Higher),
    // ftsh interpreter
    layer("ftsh.cvm.iter_ns.straight", "cal_ns", Lower),
    layer("ftsh.cvm.iter_ns.calls", "cal_ns", Lower),
    layer("ftsh.cvm.iter_ns.forany", "cal_ns", Lower),
    layer("ftsh.cvm.iter_ns.forall", "cal_ns", Lower),
    layer("ftsh.cvm.iter_ns.retry", "cal_ns", Lower),
    layer("ftsh.cvm.cmd_ns.submit_ethernet", "cal_ns", Lower),
    layer("ftsh.cvm.cmd_ns.submit_aloha", "cal_ns", Lower),
    layer("ftsh.cvm.cmd_ns.buffer_ethernet", "cal_ns", Lower),
    layer("ftsh.cvm.cmd_ns.reader_ethernet", "cal_ns", Lower),
    layer("ftsh.cvm.allocs_per_iter.straight", "count", Lower),
    layer("ftsh.cvm.allocs_per_iter.calls", "count", Lower),
    layer("ftsh.words.expand_ns.literal", "cal_ns", Lower),
    layer("ftsh.words.expand_ns.var", "cal_ns", Lower),
    layer("ftsh.words.expand_ns.mixed", "cal_ns", Lower),
    layer("retry.session.attempt_ns", "cal_ns", Lower),
    // simgrid
    layer("simgrid.events.push_pop_ns.d1k", "cal_ns", Lower),
    layer("simgrid.events.push_pop_ns.d100k", "cal_ns", Lower),
    layer("simgrid.events.push_pop_ns.s1.d100k", "cal_ns", Lower),
    layer("simgrid.trace.vec_ns_per_record", "cal_ns", Lower),
    layer("simgrid.trace.jsonl_ns_per_record", "cal_ns", Lower),
    layer("simgrid.trace.on_ratio", "ratio", Lower),
    // gridworld
    layer("gridworld.submit.ns_per_event", "cal_ns", Lower),
    layer("gridworld.buffer.ns_per_event", "cal_ns", Lower),
    layer("gridworld.blackhole.ns_per_event", "cal_ns", Lower),
    layer("gridworld.allreduce.ns_per_event", "cal_ns", Lower),
    layer("gridworld.dag.ns_per_event", "cal_ns", Lower),
    layer("gridworld.submit.events", "count", Lower),
    layer("gridworld.buffer.events", "count", Lower),
    layer("gridworld.blackhole.events", "count", Lower),
    layer("gridworld.allreduce.events", "count", Lower),
    layer("gridworld.dag.events", "count", Lower),
    layer("gridworld.scale.ns_per_event", "cal_ns", Lower),
    layer("gridworld.scale.events", "count", Lower),
    layer(
        "gridworld.driver.allocs_per_event.sim_figures",
        "count",
        Lower,
    ),
    layer(
        "gridworld.driver.allocs_per_event.sim_scale",
        "count",
        Lower,
    ),
    layer("gridworld.submit.build_us_per_client", "cal_us", Lower),
    layer("gridworld.sweep.speedup_t2", "ratio", Higher),
    layer("attr.vm_share.sim_figures", "ratio", Lower),
    layer("attr.queue_share.sim_figures", "ratio", Lower),
    layer("attr.rest_share.sim_figures", "ratio", Lower),
    layer("attr.vm_share.sim_scale", "ratio", Lower),
    layer("attr.queue_share.sim_scale", "ratio", Lower),
    layer("attr.rest_share.sim_scale", "ratio", Lower),
    // ftshlint
    layer("ftshlint.lint.us_per_script", "cal_us", Lower),
    layer("ftshlint.check.envelope_us_per_script", "cal_us", Lower),
    layer("ftshlint.check.workflow_us", "cal_us", Lower),
    // gridd
    layer("gridd.proto.encode_ns.small", "cal_ns", Lower),
    layer("gridd.proto.decode_ns.small", "cal_ns", Lower),
    layer("gridd.proto.encode_ns.64k", "cal_ns", Lower),
    layer("gridd.proto.decode_ns.64k", "cal_ns", Lower),
    layer("gridd.proto.framebuf_ns_per_frame", "cal_ns", Lower),
    layer("gridd.proto.allocs_per_roundtrip", "count", Lower),
    layer("gridd.poll.timer_ns_per_op", "cal_ns", Lower),
    layer("gridd.server.hold_overshoot_p50_us", "us", Lower),
    layer("gridd.server.hold_overshoot_p99_us", "us", Lower),
    layer("gridd.server.rtt_p50_us.df", "cal_us", Lower),
    layer("gridd.server.rtt_p50_us.stat", "cal_us", Lower),
    layer("gridd.server.rtt_p50_us.get_hit", "cal_us", Lower),
    layer("gridd.server.rtt_p50_us.get_miss", "cal_us", Lower),
    layer("gridd.server.rtt_p50_us.put", "cal_us", Lower),
    layer("gridd.server.rtt_p99_us", "cal_us", Lower),
    layer("gridd.server.rtt_max_us", "cal_us", Lower),
    layer("gridd.server.verbs_per_s.df", "1/cal_s", Higher),
    layer("gridd.server.verbs_per_s.get64", "1/cal_s", Higher),
    layer("gridd.server.verbs_per_s.put64", "1/cal_s", Higher),
    layer("gridd.server.verbs_per_s.mix", "1/cal_s", Higher),
    layer("gridd.server.bulk_mb_per_s", "MB/cal_s", Higher),
    layer("gridd.server.connect_verb_us_p50", "cal_us", Lower),
    layer("gridd.server.stats_us.c1000", "cal_us", Lower),
    // procman
    layer("procman.exec_true_us_p50", "us", Lower),
    // the benchmark itself, on the workload the traced run was given
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("bench.spans", "count", Lower),
    layer("bench.spans_dropped", "count", Lower),
    layer("bench.host_slowdown", "ratio", Lower),
    layer("bench.kernel_ns_per_op", "ns", Lower),
    layer("bench.self_share.bench", "ratio", Lower),
    layer("bench.self_share.ftsh", "ratio", Lower),
    layer("bench.self_share.ftshlint", "ratio", Lower),
    layer("bench.self_share.gridworld", "ratio", Lower),
    layer("bench.self_share.gridd", "ratio", Lower),
    layer("bench.work_per_s.traced", "1/cal_s", Higher),
    layer("bench.work_per_s.untraced", "1/cal_s", Higher),
    layer("bench.latency_p_tail_us", "cal_us", Lower),
    layer("bench.latency_tail_percentile", "%", Higher),
    layer("bench.latency_samples", "count", Higher),
    layer("bench.failed_share", "ratio", Lower),
];

/// Is `name` a well-formed metric or workload name: 1–64 characters
/// of letters, digits, `_`, `.` and `-`, starting with a letter or a
/// digit?
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Is `unit` a well-formed unit: 1–16 characters of letters, digits,
/// `_`, `/`, `%`, `.` and `-`?
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Check the declared tables against the benchmark contract's limits;
/// returns every violation found.
pub fn validate(
    workloads: &[Workload],
    end_to_end: &[Metric],
    per_layer: &[Metric],
) -> Vec<String> {
    let mut errs = Vec::new();
    if workloads.len() != 4 {
        errs.push(format!("{} workloads, want 4", workloads.len()));
    }
    if !(1..=16).contains(&end_to_end.len()) {
        errs.push(format!(
            "{} end-to-end metrics, want 1..=16",
            end_to_end.len()
        ));
    }
    if !(1..=128).contains(&per_layer.len()) {
        errs.push(format!(
            "{} per-layer metrics, want 1..=128",
            per_layer.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = workloads
        .iter()
        .map(|w| w.name)
        .chain(end_to_end.iter().chain(per_layer).map(|m| m.name));
    for name in names {
        if !valid_name(name) {
            errs.push(format!("bad name {name:?}"));
        }
        if !seen.insert(name) {
            errs.push(format!("name {name:?} used twice"));
        }
    }
    for w in workloads {
        if w.why.len() > 200 || w.why.contains('\n') {
            errs.push(format!(
                "why of {} is not one line of <=200 characters",
                w.name
            ));
        }
    }
    for m in end_to_end.iter().chain(per_layer) {
        if !valid_unit(m.unit) {
            errs.push(format!("bad unit {:?} on {}", m.unit, m.name));
        }
    }
    for m in end_to_end {
        match m.bound {
            Some(b) if b > 0.0 && b <= 0.25 => {}
            other => errs.push(format!("bound {other:?} on {} is not in (0, 0.25]", m.name)),
        }
    }
    let setup_ok = end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower);
    if !setup_ok {
        errs.push("no setup_s metric in s, lower is better".into());
    }
    errs
}

/// Render `BENCHMARK.json` from the tables.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name,
            simgrid::json_escape(w.why)
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_allow_letters_digits_and_three_marks() {
        for ok in [
            "a",
            "9lives",
            "ftsh.cvm.iter_ns.calls",
            "x-y_z.0",
            &"a".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".a",
            "-a",
            "_a",
            "a b",
            "a/b",
            "µs",
            "a%",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn units_allow_slash_and_percent() {
        for ok in ["ms", "1/s", "MB/s", "%", "count", "us", &"u".repeat(16)] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn declared_tables_meet_the_contract() {
        assert_eq!(
            validate(&WORKLOADS, &END_TO_END, &PER_LAYER),
            Vec::<String>::new()
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn validator_catches_each_limit() {
        let w = |name| Workload { name, why: "w" };
        let four = [w("a"), w("b"), w("c"), w("d")];
        let setup = || e2e("setup_s", "s", Better::Lower, 0.25);
        let has = |errs: Vec<String>, needle: &str| errs.iter().any(|e| e.contains(needle));

        assert!(has(
            validate(&four[..3], &[setup()], &[layer("l", "ns", Lower)]),
            "want 4"
        ));
        let many: Vec<Metric> = (0..17).map(|_| setup()).collect();
        assert!(has(
            validate(&four, &many, &[layer("l", "ns", Lower)]),
            "want 1..=16"
        ));
        let layers: Vec<Metric> = (0..129).map(|_| layer("l", "ns", Lower)).collect();
        assert!(has(validate(&four, &[setup()], &layers), "want 1..=128"));
        assert!(has(validate(&four, &[setup()], &[]), "want 1..=128"));
        assert!(has(
            validate(&four, &[setup()], &[layer("a", "ns", Lower)]),
            "used twice"
        ));
        assert!(has(
            validate(&four, &[setup()], &[layer("bad name", "ns", Lower)]),
            "bad name"
        ));
        assert!(has(
            validate(&four, &[setup()], &[layer("l", "n s", Lower)]),
            "bad unit"
        ));
        assert!(has(
            validate(
                &four,
                &[e2e("setup_s", "s", Better::Lower, 0.3)],
                &[layer("l", "ns", Lower)]
            ),
            "not in (0, 0.25]"
        ));
        assert!(has(
            validate(
                &four,
                &[e2e("t", "s", Better::Lower, 0.1)],
                &[layer("l", "ns", Lower)]
            ),
            "no setup_s"
        ));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
    }
}
