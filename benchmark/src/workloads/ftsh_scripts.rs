//! `ftsh_scripts`: the language toolchain and the interpreter with no
//! simulator behind them.
//!
//! *Toolchain phase*: every corpus and generated script goes through
//! lex → parse → `bytecode::compile` (cold) → `ftshlint::lint_script` →
//! `check::bytecode_envelope`, then `check::check` judges the fig8/fig9
//! workflows. *Run phase*: the five shapes of [`crate::gen::shapes`]
//! run through `Vm::tick_into`/`complete` with instant modelled
//! completions on a virtual clock. Isolates front end and interpreter
//! from queue and physics; `calls` beside `straight` is the call-path
//! gap ROADMAP names as first customer.

use super::{repeat_setup, summarise, Ctx, Measured};
use crate::gen::{self, Shape};
use crate::trace::Tracer;
use ftsh::vm::{Effect, Vm};
use ftsh::Script;
use ftshlint::check::{check, Verdict, WorkflowSpec};
use gridworld::coord::DagSpec;
use gridworld::figures::{fig8_workload, fig9_workload, Scale};
use retry::{Discipline, Dur};
use simgrid::faults::{FaultKind, FaultPlan, FaultSpec};
use std::time::Instant;

/// VM runs per timed chunk of one shape (each run is
/// [`gen::SHAPE_ITERS`] iters).
const RUNS_PER_CHUNK: u64 = 8;

/// What the toolchain produced for one script; must repeat exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ToolchainOutput {
    tokens: usize,
    statements: usize,
    ops: usize,
    diagnostics: usize,
    envelope: Dur,
}

/// One script through the five toolchain stages, each in its own span.
pub fn toolchain(
    t: &mut Tracer,
    src: &str,
    opts: &ftshlint::Options,
) -> Result<ToolchainOutput, String> {
    let tokens = t.span("ftsh", "lexer::lex", || ftsh::lexer::lex(src));
    let tokens = tokens.map_err(|e| format!("lex: {e:?}"))?.len();
    let script = t.span("ftsh", "parser::parse", || ftsh::parse(src));
    let script = script.map_err(|e| format!("parse: {e:?}"))?;
    let prog = t.span("ftsh", "bytecode::compile", || {
        ftsh::bytecode::compile(&script.stmts)
    });
    let report = t.span("ftshlint", "lint_script", || {
        ftshlint::lint_script(&script, src, opts)
    });
    let envelope = t.span("ftshlint", "check::bytecode_envelope", || {
        ftshlint::check::bytecode_envelope(&script, &opts.policy)
    });
    Ok(ToolchainOutput {
        tokens,
        statements: script.len(),
        ops: prog.ops.len(),
        diagnostics: report.diagnostics.len(),
        envelope,
    })
}

/// The toolchain's inputs: every corpus script, then the seed's
/// generated ones.
pub fn sources<'a>(corpus: &'a [(String, String)], generated: &'a [String]) -> Vec<&'a str> {
    corpus
        .iter()
        .map(|(_, src)| src.as_str())
        .chain(generated.iter().map(String::as_str))
        .collect()
}

/// The workflows `check::check` judges each pass, with their known
/// verdicts: the built-in fig8 and fig9 workloads are clean under
/// every discipline; fig8 with a rank that is killed and never rejoins
/// is doomed.
pub fn workflows(seed: u64) -> Vec<(String, WorkflowSpec, FaultPlan, Dur, Verdict)> {
    let mut out = Vec::new();
    let (rounds, window8, plan8) = fig8_workload(Scale::Full, seed, None);
    let (window9, plan9) = fig9_workload(Scale::Full, seed, None);
    let allreduce = |d| {
        WorkflowSpec::allreduce(
            d,
            4,
            rounds,
            Dur::from_secs(600),
            Dur::from_secs(60),
            Dur::from_secs(2),
        )
    };
    for d in Discipline::ALL {
        out.push((
            format!("fig8/{d:?}"),
            allreduce(d),
            plan8.clone(),
            window8,
            Verdict::Clean,
        ));
        let dag = WorkflowSpec::dag(
            &DagSpec::diamond(),
            d,
            Dur::from_secs(600),
            Dur::from_secs(60),
        );
        out.push((
            format!("fig9/{d:?}"),
            dag,
            plan9.clone(),
            window9,
            Verdict::Clean,
        ));
    }
    let never_rejoins = FaultPlan::new(seed).with(FaultSpec::once(
        retry::Time::ZERO + Dur::from_secs(4),
        FaultKind::ClientKill {
            client: 1,
            restart: None,
        },
    ));
    out.push((
        "fig8/Ethernet, rank 1 never rejoins".into(),
        allreduce(Discipline::Ethernet),
        never_rejoins,
        window8,
        Verdict::Doomed,
    ));
    out
}

/// The set-up this workload times: generate the seed's scripts, and
/// parse and compile every shape.
fn set_up(seed: u64) -> (Vec<String>, Vec<(Shape, Script)>) {
    let generated = gen::generate_scripts(seed);
    let shapes = gen::shapes()
        .into_iter()
        .map(|shape| {
            let script = ftsh::parse(&shape.source).expect("shape scripts parse");
            std::hint::black_box(ftsh::bytecode::compile_cached(&script));
            (shape, script)
        })
        .collect();
    (generated, shapes)
}

/// One timed chunk of a shape: [`RUNS_PER_CHUNK`] fresh VMs, each
/// driven to completion. Returns calibrated ns per iter and the heap
/// allocations per iter.
pub fn shape_chunk(
    ctx: &mut Ctx,
    shape: &Shape,
    script: &Script,
    effects: &mut Vec<Effect>,
) -> (f64, f64) {
    let span = ctx.tracer.open("bench", "vm-chunk");
    let seed = ctx.seed;
    let tracer = &mut ctx.tracer;
    let ((results, allocs), timed) = ctx.meter.time(|| {
        let before = crate::alloc::count();
        let mut results = [None; RUNS_PER_CHUNK as usize];
        for (i, slot) in results.iter_mut().enumerate() {
            let run_span = tracer.open("ftsh", shape.name);
            let mut vm = Vm::with_seed(script, seed ^ i as u64);
            vm.set_log_detail(false);
            *slot = Some(gen::drive(&mut vm, effects));
            tracer.close(run_span);
        }
        (results, crate::alloc::count() - before)
    });
    ctx.tracer.close(span);
    for run in results.into_iter().flatten() {
        // Every outer body ends in `failure`, so a shape "fails" by design.
        ctx.check(
            run.success == Some(false) && run.commands == shape.commands,
            || {
                format!(
                    "shape {}: {run:?}, want {} commands and an exhausted try",
                    shape.name, shape.commands
                )
            },
        );
    }
    let iters = (RUNS_PER_CHUNK * shape.iters) as f64;
    (timed.cal_s * 1e9 / iters, allocs as f64 / iters)
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let mut timings = Vec::new();
    let corpus = gen::load_corpus().map_err(|e| format!("script corpus: {e}"))?;
    ctx.check(corpus.len() == gen::CORPUS_SCRIPTS, || {
        format!(
            "corpus holds {} scripts, want {}",
            corpus.len(),
            gen::CORPUS_SCRIPTS
        )
    });

    let seed = ctx.seed;
    let (setups, (generated, shapes)) = repeat_setup(ctx, || set_up(seed), drop);
    let setup_s = summarise(&mut timings, "setup_s", "cal_s", &setups);

    let sources = sources(&corpus, &generated);
    let opts = ftshlint::Options::default();
    let flows = workflows(ctx.seed);

    // Warm-up pass: untimed, and the reference for every timed pass.
    let pass = |tracer: &mut Tracer| -> Result<Vec<ToolchainOutput>, String> {
        sources
            .iter()
            .map(|src| toolchain(tracer, src, &opts))
            .collect()
    };
    let reference = pass(&mut ctx.tracer)?;
    let mut effects = Vec::new();
    for (shape, script) in &shapes {
        shape_chunk(ctx, shape, script, &mut effects);
    }

    let mut per_script_us = Vec::new();
    let mut workflow_us = Vec::new();
    let mut iter_ns: Vec<Vec<f64>> = vec![Vec::new(); shapes.len()];
    let deadline = ctx.deadline();
    let mut rep = 0u32;
    while rep < 2 || Instant::now() < deadline {
        rep += 1;
        ctx.tracer.set_rep(rep);

        let span = ctx.tracer.open("bench", "toolchain-pass");
        let Ctx { meter, tracer, .. } = &mut *ctx;
        let (outputs, timed) = meter.time(|| pass(tracer));
        ctx.tracer.close(span);
        per_script_us.push(timed.cal_s * 1e6 / sources.len() as f64);
        for (i, out) in outputs?.iter().enumerate() {
            ctx.check(*out == reference[i], || {
                format!("toolchain output of script {i} differs from the warm-up pass: {out:?}")
            });
        }

        let span = ctx.tracer.open("bench", "workflow-checks");
        let Ctx { meter, tracer, .. } = &mut *ctx;
        let (verdicts, timed) = meter.time(|| {
            let judge = |(_, spec, plan, horizon, _): &(_, _, _, Dur, _)| {
                tracer.span("ftshlint", "check::check", || {
                    check(spec, Some(plan), *horizon).verdict
                })
            };
            flows.iter().map(judge).collect::<Vec<Verdict>>()
        });
        ctx.tracer.close(span);
        workflow_us.push(timed.cal_s * 1e6 / flows.len() as f64);
        for ((name, .., want), verdict) in flows.iter().zip(verdicts) {
            ctx.check(verdict == *want, || {
                format!("{name}: verdict {verdict}, known answer {want}")
            });
        }

        for (i, (shape, script)) in shapes.iter().enumerate() {
            iter_ns[i].push(shape_chunk(ctx, shape, script, &mut effects).0);
        }
    }

    let latency_us = summarise(
        &mut timings,
        "latency_us (one script: lex, parse, compile, lint, envelope)",
        "cal_us",
        &per_script_us,
    );
    summarise(
        &mut timings,
        "check::check, one workflow",
        "cal_us",
        &workflow_us,
    );
    // Iters per second when the five shapes run in equal numbers.
    let mut ns_per_round = 0.0;
    for (i, (shape, _)) in shapes.iter().enumerate() {
        ns_per_round += summarise(
            &mut timings,
            format!("vm iter, shape {}", shape.name),
            "cal_ns",
            &iter_ns[i],
        );
    }
    let work_per_s = summarise(
        &mut timings,
        "work_per_s (VM iters per s, five shapes in equal numbers)",
        "1/cal_s",
        &[shapes.len() as f64 * 1e9 / ns_per_round],
    );
    Ok(Measured {
        work_per_s,
        latency_us,
        setup_s,
        timings,
        latency_samples_us: per_script_us,
    })
}
