//! The per-layer metrics of a traced run.
//!
//! [`bench_metrics`] reads the workload's own traced/untraced pair;
//! [`probe_all`] runs one short fixed probe per layer, the same on every
//! workload, each timing calls into that layer's public functions from
//! outside. A probe's number is the median over its batches, in
//! calibrated time (see [`crate::clock`]).

use crate::gen::{self, REPO_ROOT};
use crate::quiet::{Echo, Tagged};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::workloads::live_verbs::{Session, Verb, HOLD, MIX};
use crate::workloads::{ftsh_scripts, sim_figures, sim_scale, Ctx, Measured};
use ftsh::ast::Stmt;
use ftsh::vm::{CommandSpec, Vm};
use ftsh::{Env, Script};
use gridd::poll::TimerWheel;
use gridd::proto::{frame_into, FrameBuf};
use gridd::{GridClient, Request, Response};
use gridworld::scripts::{
    buffer_ethernet, reader_ethernet, submit_aloha, submit_ethernet, unit_vm,
};
use gridworld::{run_submission, SubmitParams};
use retry::{Discipline, Dur, NextAttempt, Time, TryBudget, TrySession};
use simgrid::trace::{emit, shared, JsonlSink, TraceEv, VecSink};
use simgrid::{EventQueue, SimRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

type Values = Vec<(&'static str, f64)>;

/// Median over `batches` timed batches of calibrated nanoseconds per
/// operation, where one call of `batch` performs `ops` operations.
fn ns_per_op(ctx: &mut Ctx, batches: usize, ops: u64, mut batch: impl FnMut()) -> f64 {
    batch(); // warm-up
    let samples: Vec<f64> = (0..batches)
        .map(|_| ctx.meter.time(&mut batch).1.cal_s * 1e9 / ops as f64)
        .collect();
    median(&samples).expect("at least one batch")
}

/// The metrics only a workload's own traced/untraced pair can give.
pub fn bench_metrics(untraced: &Measured, traced: &Measured, ctx: &Ctx) -> Values {
    let (spans, dropped) = ctx.tracer.counts();
    let by_layer = ctx.tracer.self_ns_by_layer();
    let total: u64 = by_layer.iter().map(|(_, ns)| ns).sum();
    let share = |layer: &str| {
        let ns = by_layer
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0, |(_, ns)| *ns);
        ns as f64 / total.max(1) as f64
    };
    let (tail_p, tail_us) = highest_supported_percentile(&untraced.latency_samples_us)
        .unwrap_or((50.0, untraced.latency_us));
    vec![
        (
            "bench.trace_overhead_ratio",
            untraced.work_per_s / traced.work_per_s,
        ),
        ("bench.work_per_s.untraced", untraced.work_per_s),
        ("bench.work_per_s.traced", traced.work_per_s),
        ("bench.host_slowdown", ctx.meter.median_slowdown()),
        (
            "bench.kernel_ns_per_op",
            ctx.meter.median_kernel_ns_per_op(),
        ),
        ("bench.spans", spans as f64),
        ("bench.spans_dropped", dropped as f64),
        ("bench.self_share.bench", share("bench")),
        ("bench.self_share.ftsh", share("ftsh")),
        ("bench.self_share.ftshlint", share("ftshlint")),
        ("bench.self_share.gridworld", share("gridworld")),
        ("bench.self_share.gridd", share("gridd")),
        ("bench.latency_tail_percentile", tail_p),
        ("bench.latency_p_tail_us", tail_us),
        (
            "bench.latency_samples",
            untraced.latency_samples_us.len() as f64,
        ),
        (
            "bench.failed_share",
            ctx.failed as f64 / ctx.attempted.max(1) as f64,
        ),
    ]
}

/// Statements in a block, nested ones included.
fn statements(block: &[Stmt]) -> usize {
    block
        .iter()
        .map(|s| {
            1 + match s {
                Stmt::Try { body, catch, .. } => {
                    statements(body) + catch.as_ref().map_or(0, |c| statements(c))
                }
                Stmt::ForAny { body, .. }
                | Stmt::ForAll { body, .. }
                | Stmt::Function { body, .. } => statements(body),
                Stmt::If { then, els, .. } => {
                    statements(then) + els.as_ref().map_or(0, |e| statements(e))
                }
                _ => 0,
            }
        })
        .sum()
}

/// Front end and analyzer, stage by stage over the toolchain's inputs
/// (corpus + generated scripts), then the workflow checker.
fn probe_toolchain(ctx: &mut Ctx, out: &mut Values) -> Result<(), String> {
    let corpus = gen::load_corpus().map_err(|e| format!("script corpus under {REPO_ROOT}: {e}"))?;
    let generated = gen::generate_scripts(ctx.seed);
    let sources = ftsh_scripts::sources(&corpus, &generated);
    let scripts: Vec<Script> = sources
        .iter()
        .map(|s| ftsh::parse(s).map_err(|e| format!("{e:?}")))
        .collect::<Result<_, _>>()?;
    let n = scripts.len() as u64;
    let bytes: usize = sources.iter().map(|s| s.len()).sum();
    let stmts: usize = scripts.iter().map(|s| statements(&s.stmts)).sum();
    let ops: usize = scripts
        .iter()
        .map(|s| ftsh::bytecode::compile(&s.stmts).ops.len())
        .sum();
    let opts = ftshlint::Options::default();

    let lex_ns = ns_per_op(ctx, 15, 1, || {
        for s in &sources {
            black_box(ftsh::lexer::lex(s).expect("corpus lexes"));
        }
    });
    out.push(("ftsh.lexer.mb_per_s", bytes as f64 / 1e6 / (lex_ns / 1e9)));
    let parse_ns = ns_per_op(ctx, 15, 1, || {
        for s in &sources {
            black_box(ftsh::parse(s).expect("corpus parses"));
        }
    });
    out.push(("ftsh.parser.stmts_per_s", stmts as f64 / (parse_ns / 1e9)));
    let compile_ns = ns_per_op(ctx, 15, n, || {
        for s in &scripts {
            black_box(ftsh::bytecode::compile(&s.stmts));
        }
    });
    out.push(("ftsh.bytecode.compile_cold_us", compile_ns / 1e3));
    out.push(("ftsh.bytecode.ops_per_stmt", ops as f64 / stmts as f64));
    let lint_ns = ns_per_op(ctx, 15, n, || {
        for (script, src) in scripts.iter().zip(&sources) {
            black_box(ftshlint::lint_script(script, src, &opts));
        }
    });
    out.push(("ftshlint.lint.us_per_script", lint_ns / 1e3));
    // Scripts stay alive across batches, so after the first the
    // process-wide compile cache answers: this is the envelope walk.
    let envelope_ns = ns_per_op(ctx, 15, n, || {
        for s in &scripts {
            black_box(ftshlint::check::bytecode_envelope(s, &opts.policy));
        }
    });
    out.push(("ftshlint.check.envelope_us_per_script", envelope_ns / 1e3));
    let mut off = crate::trace::Tracer::new(false);
    let all_ns = ns_per_op(ctx, 15, n, || {
        for s in &sources {
            black_box(ftsh_scripts::toolchain(&mut off, s, &opts).expect("corpus passes"));
        }
    });
    out.push(("ftsh.toolchain.scripts_per_s", 1e9 / all_ns));

    let flows = ftsh_scripts::workflows(ctx.seed);
    let flow_ns = ns_per_op(ctx, 15, flows.len() as u64, || {
        for (_, spec, plan, horizon, _) in &flows {
            black_box(ftshlint::check::check(spec, Some(plan), *horizon));
        }
    });
    out.push(("ftshlint.check.workflow_us", flow_ns / 1e3));

    let hot = &scripts[0];
    black_box(ftsh::bytecode::compile_cached(hot));
    let hit_ns = ns_per_op(ctx, 15, 10_000, || {
        for _ in 0..10_000 {
            black_box(ftsh::bytecode::compile_cached(black_box(hot)));
        }
    });
    out.push(("ftsh.bytecode.compile_hit_ns", hit_ns));
    Ok(())
}

/// Interpreter: VM construction and size, the five shapes, the real
/// scenario scripts, word expansion, and the retry session.
fn probe_vm(ctx: &mut Ctx, out: &mut Values) {
    let submit = submit_ethernet(1000);
    let new_ns = ns_per_op(ctx, 15, 10_000, || {
        for i in 0..10_000u64 {
            black_box(unit_vm(&submit, Discipline::Ethernet, Env::new(), i));
        }
    });
    out.push(("ftsh.vm.new_ns", new_ns));

    // Bytes one client holds once its first command is in flight.
    const CLIENTS: usize = 10_000;
    let before = crate::alloc::live_bytes();
    let mut effects = Vec::new();
    let vms: Vec<Vm> = (0..CLIENTS as u64)
        .map(|i| {
            let mut vm = unit_vm(&submit, Discipline::Ethernet, Env::new(), i);
            vm.set_log_detail(false);
            vm.tick_into(Time::ZERO, &mut effects);
            effects.clear();
            vm
        })
        .collect();
    let held = crate::alloc::live_bytes().saturating_sub(before);
    out.push(("ftsh.vm.bytes_per_client", held as f64 / CLIENTS as f64));
    drop(vms);

    const ITER_NS: [&str; 5] = [
        "ftsh.cvm.iter_ns.straight",
        "ftsh.cvm.iter_ns.calls",
        "ftsh.cvm.iter_ns.forany",
        "ftsh.cvm.iter_ns.forall",
        "ftsh.cvm.iter_ns.retry",
    ];
    for (i, shape) in gen::shapes().iter().enumerate() {
        let script = ftsh::parse(&shape.source).expect("shape scripts parse");
        ftsh_scripts::shape_chunk(ctx, shape, &script, &mut effects);
        let chunks: Vec<(f64, f64)> = (0..15)
            .map(|_| ftsh_scripts::shape_chunk(ctx, shape, &script, &mut effects))
            .collect();
        let ns: Vec<f64> = chunks.iter().map(|c| c.0).collect();
        out.push((ITER_NS[i], median(&ns).expect("15 chunks")));
        let allocs = chunks[0].1;
        let exact = chunks.iter().all(|c| c.1 == allocs);
        ctx.check(exact, || {
            format!(
                "shape {}: allocations per iter differ between chunks",
                shape.name
            )
        });
        match shape.name {
            "straight" => out.push(("ftsh.cvm.allocs_per_iter.straight", allocs)),
            "calls" => out.push(("ftsh.cvm.allocs_per_iter.calls", allocs)),
            _ => {}
        }
    }

    // One work unit of each scenario script, every command succeeding:
    // a fresh VM per unit, as the simulator's driver builds them.
    let units: [(&str, Script, Discipline); 4] = [
        (
            "ftsh.cvm.cmd_ns.submit_ethernet",
            submit,
            Discipline::Ethernet,
        ),
        (
            "ftsh.cvm.cmd_ns.submit_aloha",
            submit_aloha(),
            Discipline::Aloha,
        ),
        (
            "ftsh.cvm.cmd_ns.buffer_ethernet",
            buffer_ethernet(),
            Discipline::Ethernet,
        ),
        (
            "ftsh.cvm.cmd_ns.reader_ethernet",
            reader_ethernet(),
            Discipline::Ethernet,
        ),
    ];
    for (name, script, discipline) in &units {
        let mut env = Env::new();
        for (k, v) in [("h1", "alpha"), ("h2", "beta"), ("h3", "gamma")] {
            env.set(k, v);
        }
        let unit = |seed: u64, effects: &mut Vec<_>| {
            let mut vm = unit_vm(script, *discipline, env.clone(), seed);
            vm.set_log_detail(false);
            gen::drive(&mut vm, effects)
        };
        let first = unit(0, &mut effects);
        ctx.check(first.success == Some(true) && first.commands > 0, || {
            format!("{name}: one unit gave {first:?}")
        });
        let ns = ns_per_op(ctx, 15, 2_000 * first.commands, || {
            for i in 0..2_000 {
                black_box(unit(i, &mut effects));
            }
        });
        out.push((name, ns));
    }

    // Word expansion, on words taken from a parsed command.
    let words =
        ftsh::parse("run literal-word ${var} pre-${var}-mid-${other}-post\n").expect("parses");
    let Some(Stmt::Command(cmd)) = words.stmts.first() else {
        unreachable!("one command was parsed");
    };
    let mut env = Env::new();
    env.set("var", "value");
    env.set("other", "another-value");
    for (name, w) in [
        ("ftsh.words.expand_ns.literal", &cmd.words[1]),
        ("ftsh.words.expand_ns.var", &cmd.words[2]),
        ("ftsh.words.expand_ns.mixed", &cmd.words[3]),
    ] {
        let ns = ns_per_op(ctx, 15, 100_000, || {
            for _ in 0..100_000 {
                black_box(env.expand(black_box(w)));
            }
        });
        out.push((name, ns));
    }

    // One failed attempt under the default (randomised exponential)
    // backoff: admit, fail, draw the delay, wait it out.
    let mut rng = SimRng::new(ctx.seed);
    let ns = ns_per_op(ctx, 15, 100_000, || {
        let mut now = Time::ZERO;
        let mut session = TrySession::start(TryBudget::unbounded(), now);
        for _ in 0..100_000 {
            black_box(session.begin_attempt(now));
            if let NextAttempt::RetryAt(at) = session.on_failure(now, rng.as_rng()) {
                now = at;
            }
        }
        black_box(&session);
    });
    out.push(("retry.session.attempt_ns", ns));
}

/// Event queue under the hold model (pop one, push one a random delay
/// later, at constant depth), and the trace sinks.
fn probe_simgrid(ctx: &mut Ctx, out: &mut Values) {
    const OPS: u64 = 200_000;
    let hold = |ctx: &mut Ctx, mut q: EventQueue<u64>, depth: usize| {
        let mut rng = SimRng::new(ctx.seed ^ depth as u64);
        for i in 0..depth {
            q.schedule_keyed(
                i,
                Time::ZERO + Dur::from_micros(rng.range_u64(0, 2_000_000)),
                i as u64,
            );
        }
        ns_per_op(ctx, 9, OPS, || {
            for _ in 0..OPS {
                let (at, ev) = q.pop().expect("depth is constant");
                let delay = Dur::from_micros(rng.range_u64(1, 2_000_000));
                q.schedule_keyed(ev as usize, at + delay, ev);
            }
        })
    };
    let d1k = hold(ctx, EventQueue::new(), 1_000);
    let d100k = hold(ctx, EventQueue::new(), 100_000);
    let s1 = hold(ctx, EventQueue::with_shards(1), 100_000);
    out.push(("simgrid.events.push_pop_ns.d1k", d1k));
    out.push(("simgrid.events.push_pop_ns.d100k", d100k));
    out.push(("simgrid.events.push_pop_ns.s1.d100k", s1));

    const RECORDS: u64 = 100_000;
    let record = |sink: &Option<simgrid::SharedSink>| {
        for i in 0..RECORDS {
            let ev = TraceEv::AttemptStart {
                attempt: i as u32,
                budget: Some(Dur::from_secs(300)),
            };
            emit(
                sink,
                Time::ZERO + Dur::from_micros(i),
                (i % 500) as i64,
                0,
                ev,
            );
        }
    };
    let vec_ns = ns_per_op(ctx, 9, RECORDS, || record(&Some(shared(VecSink::new()))));
    let jsonl_ns = ns_per_op(ctx, 9, RECORDS, || {
        record(&Some(shared(JsonlSink::new(std::io::sink()))))
    });
    out.push(("simgrid.trace.vec_ns_per_record", vec_ns));
    out.push(("simgrid.trace.jsonl_ns_per_record", jsonl_ns));
}

/// The simulator: per-world cost per event over the figure set (traced
/// and not), the deep run, the sweep's thread scaling, and the
/// attribution estimates.
fn probe_gridworld(ctx: &mut Ctx, out: &mut Values) {
    const NS: [(&str, &str, &str); 5] = [
        (
            "submit",
            "gridworld.submit.ns_per_event",
            "gridworld.submit.events",
        ),
        (
            "buffer",
            "gridworld.buffer.ns_per_event",
            "gridworld.buffer.events",
        ),
        (
            "blackhole",
            "gridworld.blackhole.ns_per_event",
            "gridworld.blackhole.events",
        ),
        (
            "allreduce",
            "gridworld.allreduce.ns_per_event",
            "gridworld.allreduce.events",
        ),
        ("dag", "gridworld.dag.ns_per_event", "gridworld.dag.events"),
    ];
    sim_figures::sweep(ctx, false); // warm-up
    let mut plain = Vec::new();
    let mut traced_s = Vec::new();
    let mut per_world: Vec<Vec<f64>> = vec![Vec::new(); NS.len()];
    let mut events = [0u64; 5];
    let mut allocs_per_event = Vec::new();
    for _ in 0..3 {
        let (_, costs) = sim_figures::sweep(ctx, false);
        plain.push(costs.iter().map(|c| c.cal_s).sum::<f64>());
        let total: u64 = costs.iter().map(|c| c.events).sum();
        allocs_per_event.push(costs.iter().map(|c| c.allocs).sum::<u64>() as f64 / total as f64);
        for (w, (world, _, _)) in NS.iter().enumerate() {
            let of_world = || {
                costs
                    .iter()
                    .zip(sim_figures::WORLD_OF)
                    .filter(move |(_, x)| x == world)
            };
            events[w] = of_world().map(|(c, _)| c.events).sum();
            let s: f64 = of_world().map(|(c, _)| c.cal_s).sum();
            per_world[w].push(s * 1e9 / events[w] as f64);
        }
        let (_, costs) = sim_figures::sweep(ctx, true);
        traced_s.push(costs.iter().map(|c| c.cal_s).sum::<f64>());
    }
    for (w, (_, ns_name, ev_name)) in NS.iter().enumerate() {
        out.push((ns_name, median(&per_world[w]).expect("3 sweeps")));
        out.push((ev_name, events[w] as f64));
    }
    out.push((
        "gridworld.driver.allocs_per_event.sim_figures",
        median(&allocs_per_event).expect("3 sweeps"),
    ));
    out.push((
        "simgrid.trace.on_ratio",
        median(&traced_s).expect("3 sweeps") / median(&plain).expect("3 sweeps"),
    ));

    // The sweep engine on fig1, two threads against one (one last,
    // which restores the pin every other measurement runs under). On a
    // one-CPU host "two" is one as well, and the ratio reads 1.
    let fig1 = |ctx: &mut Ctx, threads: usize| {
        std::env::set_var("EG_SWEEP_THREADS", threads.to_string());
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let run =
                    || gridworld::by_name_full("fig1", gridworld::Scale::Full, ctx.seed, false);
                ctx.meter.time(run).1.cal_s
            })
            .collect();
        median(&runs).expect("3 runs")
    };
    let two = fig1(ctx, crate::host_cpus().min(2));
    let one = fig1(ctx, 1);
    out.push(("gridworld.sweep.speedup_t2", one / two));

    // Attribution, estimated from outside: commands started x the VM's
    // cost per command, events x the queue's cost per push+pop, and the
    // remainder, each over the run's time.
    let value = |out: &Values, name: &str| {
        out.iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |v| v.1)
    };
    let cmd_ns = value(out, "ftsh.cvm.cmd_ns.submit_ethernet");
    let mut attribute =
        |out: &mut Values, names: [&'static str; 3], p: SubmitParams, window, queue_ns: f64| {
            // Counted inside the section, clear of the meter's own
            // bookkeeping.
            let ((o, allocs), timed) = ctx.meter.time(|| {
                let before = crate::alloc::count();
                let o = run_submission(p, window);
                (o, crate::alloc::count() - before)
            });
            let ns = timed.cal_s * 1e9;
            // `client_totals` holds finished work units only, and at 100k
            // clients hardly one finishes; the world's own counters bound
            // the Ethernet script's commands from below (a probe per
            // deferral, a probe and a `condor_submit` per connect).
            let commands = (o.client_totals.commands_started)
                .max(o.deferrals + 2 * (o.failed_connects + o.jobs_submitted));
            let vm = commands as f64 * cmd_ns / ns;
            let queue = o.events_popped as f64 * queue_ns / ns;
            out.push((names[0], vm));
            out.push((names[1], queue));
            out.push((names[2], 1.0 - vm - queue));
            (o.events_popped, ns, allocs)
        };
    let shallow = SubmitParams {
        n_clients: 500,
        discipline: Discipline::Ethernet,
        seed: ctx.seed,
        ..SubmitParams::default()
    };
    attribute(
        out,
        [
            "attr.vm_share.sim_figures",
            "attr.queue_share.sim_figures",
            "attr.rest_share.sim_figures",
        ],
        shallow,
        Dur::from_secs(300),
        value(out, "simgrid.events.push_pop_ns.d1k"),
    );
    let deep = sim_scale::params(ctx.seed, Discipline::Ethernet, sim_scale::CLIENTS);
    let (events, ns, allocs) = attribute(
        out,
        [
            "attr.vm_share.sim_scale",
            "attr.queue_share.sim_scale",
            "attr.rest_share.sim_scale",
        ],
        deep.clone(),
        sim_scale::WINDOW,
        value(out, "simgrid.events.push_pop_ns.d100k"),
    );
    out.push(("gridworld.scale.ns_per_event", ns / events as f64));
    out.push(("gridworld.scale.events", events as f64));
    out.push((
        "gridworld.driver.allocs_per_event.sim_scale",
        allocs as f64 / events as f64,
    ));
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            ctx.meter
                .time(|| run_submission(deep.clone(), Dur::ZERO))
                .1
                .cal_s
        })
        .collect();
    out.push((
        "gridworld.submit.build_us_per_client",
        median(&builds).expect("3 builds") * 1e6 / sim_scale::CLIENTS as f64,
    ));
}

/// Wire codec, frame buffer and timer wheel, without a socket.
fn probe_gridd_units(ctx: &mut Ctx, out: &mut Values) {
    let small_req = Request::Get {
        client: 7,
        name: "k12".into(),
    };
    let small_resp = Response::Data { data: vec![7; 64] };
    let big_req = Request::Put {
        client: 7,
        name: "big3".into(),
        data: vec![7; 64 * 1024],
    };
    let big_resp = Response::Data {
        data: vec![7; 64 * 1024],
    };
    let codec = |ctx: &mut Ctx, req: &Request, resp: &Response, n: u64| {
        let (req_bytes, resp_bytes) = (req.encode(), resp.encode());
        let enc = ns_per_op(ctx, 15, 2 * n, || {
            for _ in 0..n {
                black_box(black_box(req).encode());
                black_box(black_box(resp).encode());
            }
        });
        let dec = ns_per_op(ctx, 15, 2 * n, || {
            for _ in 0..n {
                black_box(Request::decode(black_box(&req_bytes)).expect("round-trips"));
                black_box(Response::decode(black_box(&resp_bytes)).expect("round-trips"));
            }
        });
        (enc, dec)
    };
    let (enc, dec) = codec(ctx, &small_req, &small_resp, 20_000);
    out.push(("gridd.proto.encode_ns.small", enc));
    out.push(("gridd.proto.decode_ns.small", dec));
    let (enc, dec) = codec(ctx, &big_req, &big_resp, 500);
    out.push(("gridd.proto.encode_ns.64k", enc));
    out.push(("gridd.proto.decode_ns.64k", dec));

    const FRAMES: u64 = 1_000;
    let mut wire = Vec::new();
    for _ in 0..FRAMES {
        frame_into(&mut wire, &small_resp.encode());
    }
    let frame_ns = ns_per_op(ctx, 15, FRAMES, || {
        let mut fb = FrameBuf::new();
        // In socket-read-sized pieces, as the reactor feeds it.
        for piece in wire.chunks(16 * 1024) {
            fb.extend(piece);
            while let Some(frame) = fb.next_frame().expect("well-formed") {
                black_box(frame);
            }
        }
    });
    out.push(("gridd.proto.framebuf_ns_per_frame", frame_ns));

    // One small verb's codec work, both ends, with warm buffers:
    // encode + frame + deframe + decode, request then reply.
    let mut wire = Vec::with_capacity(1024);
    let (mut to_server, mut to_client) = (FrameBuf::new(), FrameBuf::new());
    let mut roundtrip = || {
        wire.clear();
        frame_into(&mut wire, &small_req.encode());
        to_server.extend(&wire);
        let frame = to_server.next_frame().expect("well-formed").expect("whole");
        black_box(Request::decode(&frame).expect("round-trips"));
        wire.clear();
        frame_into(&mut wire, &small_resp.encode());
        to_client.extend(&wire);
        let frame = to_client.next_frame().expect("well-formed").expect("whole");
        black_box(Response::decode(&frame).expect("round-trips"));
    };
    roundtrip();
    let counts: Vec<u64> = (0..3)
        .map(|_| {
            let before = crate::alloc::count();
            roundtrip();
            crate::alloc::count() - before
        })
        .collect();
    ctx.check(counts.iter().all(|&c| c == counts[0]), || {
        format!("codec allocations per round trip differ: {counts:?}")
    });
    out.push(("gridd.proto.allocs_per_roundtrip", counts[0] as f64));

    // 10 000 timers spread over 2 s of synthetic time: schedule each,
    // then advance through them in 1 ms steps.
    const TIMERS: u64 = 10_000;
    let timer_ns = ns_per_op(ctx, 15, TIMERS, || {
        let epoch = Instant::now();
        let mut wheel = TimerWheel::new(epoch);
        let mut fired = Vec::with_capacity(64);
        for i in 0..TIMERS {
            wheel.schedule(epoch + Duration::from_micros(i * 200), i);
        }
        for ms in 0..=2_000 {
            wheel.advance(epoch + Duration::from_millis(ms), &mut fired);
            fired.clear();
        }
        assert!(wheel.is_empty(), "every timer fired");
    });
    out.push(("gridd.poll.timer_ns_per_op", timer_ns));
}

/// Run `chunks` chunks of a loopback measurement, each tagged with the
/// reference echo around it (see [`crate::quiet`]).
fn tagged_chunks<T>(
    ctx: &mut Ctx,
    s: &mut Session,
    echo: &mut Echo,
    chunks: usize,
    mut chunk: impl FnMut(&mut Ctx, &mut Session) -> T,
) -> Result<Tagged<T>, String> {
    let mut tagged = Tagged::new();
    for _ in 0..chunks {
        echo.tag(&mut tagged, || chunk(ctx, s))?;
    }
    Ok(tagged)
}

/// Median of the chunks measured in the quiet state.
fn quiet_median(tagged: &Tagged<f64>) -> f64 {
    let quiet: Vec<f64> = tagged.quiet().into_iter().copied().collect();
    median(&quiet).expect("at least one chunk is at or under the first-quartile echo")
}

/// The daemon on loopback, phase by phase and verb by verb. Pins the
/// process (see [`crate::sched`]), so it runs after every other probe.
fn probe_gridd_server(ctx: &mut Ctx, out: &mut Values) -> Result<(), String> {
    crate::sched::settle();
    let mut s = Session::start(ctx.seed)?;
    let mut echo = Echo::start().map_err(|e| format!("reference echo: {e}"))?;
    const RTT: [&str; 5] = [
        "gridd.server.rtt_p50_us.df",
        "gridd.server.rtt_p50_us.stat",
        "gridd.server.rtt_p50_us.get_hit",
        "gridd.server.rtt_p50_us.get_miss",
        "gridd.server.rtt_p50_us.put",
    ];
    let mut all = Vec::new();
    for (verb, name) in MIX.iter().zip(RTT) {
        s.pingpong(ctx, &[*verb], 200);
        // Calibrated round-trip times of one chunk.
        let chunk = |ctx: &mut Ctx, s: &mut Session| {
            let section = ctx.meter.start();
            let rtts = s.pingpong(ctx, &[*verb], 200);
            let timed = ctx.meter.stop(section);
            let scale = timed.cal_s / timed.wall_s;
            rtts.iter().map(|r| r.1 * scale).collect::<Vec<f64>>()
        };
        let tagged = tagged_chunks(ctx, &mut s, &mut echo, 10, chunk)?;
        let us: Vec<f64> = tagged.quiet().into_iter().flatten().copied().collect();
        out.push((name, median(&us).ok_or("no round trip completed")?));
        all.extend(us);
    }
    out.push((
        "gridd.server.rtt_p99_us",
        percentile(&all, 99.0).expect("non-empty"),
    ));
    out.push((
        "gridd.server.rtt_max_us",
        percentile(&all, 100.0).expect("non-empty"),
    ));

    const RATES: [(&str, &[Verb]); 4] = [
        ("gridd.server.verbs_per_s.df", &[Verb::Df]),
        ("gridd.server.verbs_per_s.get64", &[Verb::GetHit]),
        ("gridd.server.verbs_per_s.put64", &[Verb::Put]),
        ("gridd.server.verbs_per_s.mix", &MIX),
    ];
    for (name, verbs) in RATES {
        s.pipelined(ctx, verbs, 20);
        let chunk = |ctx: &mut Ctx, s: &mut Session| {
            let section = ctx.meter.start();
            let done = s.pipelined(ctx, verbs, 60);
            done as f64 / ctx.meter.stop(section).cal_s
        };
        out.push((
            name,
            quiet_median(&tagged_chunks(ctx, &mut s, &mut echo, 9, chunk)?),
        ));
    }

    s.bulk(ctx, 8);
    let chunk = |ctx: &mut Ctx, s: &mut Session| {
        let section = ctx.meter.start();
        let bytes = s.bulk(ctx, 32);
        bytes as f64 / 1e6 / ctx.meter.stop(section).cal_s
    };
    let bulk = tagged_chunks(ctx, &mut s, &mut echo, 9, chunk)?;
    out.push(("gridd.server.bulk_mb_per_s", quiet_median(&bulk)));

    // Wall-clock, as in the workload.
    let chunk = |ctx: &mut Ctx, s: &mut Session| s.deferred(ctx, 10);
    let held = tagged_chunks(ctx, &mut s, &mut echo, 15, chunk)?;
    let over: Vec<f64> = (held.quiet().into_iter().flatten())
        .map(|us| us - HOLD.as_secs_f64() * 1e6)
        .collect();
    out.push((
        "gridd.server.hold_overshoot_p50_us",
        median(&over).ok_or("no submit completed")?,
    ));
    out.push((
        "gridd.server.hold_overshoot_p99_us",
        percentile(&over, 99.0).expect("non-empty"),
    ));
    s.check_counters(ctx);

    // `GridClient`: one connection per verb.
    let client = GridClient::new(s.addr().to_string(), 0);
    let chunk = |ctx: &mut Ctx, _: &mut Session| {
        let section = ctx.meter.start();
        let mut dials = Vec::new();
        for _ in 0..50 {
            let t0 = Instant::now();
            let free = client.df();
            dials.push(t0.elapsed().as_secs_f64() * 1e6);
            ctx.check(matches!(free, Ok(4)), || {
                format!("GridClient::df gave {free:?}")
            });
        }
        let timed = ctx.meter.stop(section);
        median(&dials).expect("50 dials") * timed.cal_s / timed.wall_s
    };
    let dials = tagged_chunks(ctx, &mut s, &mut echo, 6, chunk)?;
    out.push(("gridd.server.connect_verb_us_p50", quiet_median(&dials)));

    // `stats` over the 1000 client ids the small verbs rotated through.
    let chunk = |ctx: &mut Ctx, _: &mut Session| {
        let section = ctx.meter.start();
        let mut calls = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            let json = client.stats();
            calls.push(t0.elapsed().as_secs_f64() * 1e6);
            ctx.check(json.as_ref().is_ok_and(|j| j.len() > 1000), || {
                format!("stats gave {:?}", json.map(|j| j.len()))
            });
        }
        let timed = ctx.meter.stop(section);
        median(&calls).expect("5 calls") * timed.cal_s / timed.wall_s
    };
    let stats = tagged_chunks(ctx, &mut s, &mut echo, 6, chunk)?;
    out.push(("gridd.server.stats_us.c1000", quiet_median(&stats)));
    s.shutdown();
    Ok(())
}

/// Real process spawn: 200 × `true`, start to reaped. OS-bound; for
/// the record only.
fn probe_procman(ctx: &mut Ctx, out: &mut Values) {
    let spec = CommandSpec {
        argv: vec!["true".into()],
        input: None,
        output: None,
        both: false,
    };
    let mut us = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        let done = procman::SessionChild::spawn(&spec).map(|child| child.wait().0);
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        ctx.check(matches!(done, Ok(true)), || {
            format!("spawning `true`: {done:?}")
        });
    }
    out.push(("procman.exec_true_us_p50", median(&us).expect("200 spawns")));
}

/// Every layer probe, in an order that leaves the process-pinning
/// daemon probe for last.
pub fn probe_all(ctx: &mut Ctx) -> Result<Values, String> {
    let mut out = Values::new();
    probe_toolchain(ctx, &mut out)?;
    probe_vm(ctx, &mut out);
    probe_simgrid(ctx, &mut out);
    probe_gridworld(ctx, &mut out);
    probe_gridd_units(ctx, &mut out);
    probe_procman(ctx, &mut out);
    probe_gridd_server(ctx, &mut out)?;
    Ok(out)
}
