//! Engine bench: the population-scale hot paths behind every figure.
//!
//! * `vm_population_build` — constructing 500 VMs from one parsed
//!   script; with the shared AST this is 500 `Arc` bumps, not 500 deep
//!   copies.
//! * `vm_population_tick` — first tick of a 200-VM population, the
//!   allocation-lean path the driver runs millions of times. The
//!   `_traced` variant runs the same ticks with a ring sink installed,
//!   bounding what tracing costs when it *is* on (off, it is a single
//!   `Option` test — compare the two).
//! * `sweep_seq` / `sweep_par` — a fig1-style multi-point submission
//!   sweep through `gridworld::sweep` pinned to 1 vs. 4 workers (on a
//!   multi-core host the parallel one should win; see also
//!   `figures --stats`).
//! * `vm_steady` — the same interpreter-bound steady-state workload
//!   `figures --stats` records in `BENCH_engine.json`, run to
//!   completion.
//! * `vm_calls` / `vm_forall_loop` — the workloads behind `--stats`'
//!   `calls_allocs_per_call` and `forall_iter_ratio_800_over_50`: a
//!   loop of nothing but function calls, and `forall` in a retry loop
//!   (800 iterations, so a per-iteration cost that grows with the
//!   branches already retired shows).

use criterion::{criterion_group, criterion_main, Criterion};
use ftsh::vm::CmdResult;
use ftsh::{parse, Vm};
use gridworld::{run_submission, sweep, SubmitParams};
use retry::{Discipline, Dur, Time};

const READER: &str = "try for 900 seconds\n\
                        forany host in ${h1} ${h2} ${h3}\n\
                          try for 5 seconds\n\
                            wget http://${host}/flag\n\
                          end\n\
                          try for 60 seconds\n\
                            wget http://${host}/data\n\
                          end\n\
                        end\n\
                      end\n";

fn submission_point(d: Discipline, n: usize) -> u64 {
    run_submission(
        SubmitParams {
            n_clients: n,
            discipline: d,
            ..SubmitParams::default()
        },
        Dur::from_secs(45),
    )
    .jobs_submitted
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);

    let script = parse(READER).unwrap();
    g.bench_function("vm_population_build_500", |b| {
        b.iter(|| {
            let vms: Vec<Vm> = (0..500).map(|i| Vm::with_seed(&script, i)).collect();
            std::hint::black_box(vms.len())
        });
    });

    g.bench_function("vm_population_tick_200", |b| {
        b.iter(|| {
            let mut vms: Vec<Vm> = (0..200).map(|i| Vm::with_seed(&script, i)).collect();
            let effects: usize = vms
                .iter_mut()
                .map(|vm| vm.tick(Time::ZERO).effects.len())
                .sum();
            std::hint::black_box(effects)
        });
    });

    g.bench_function("vm_population_tick_200_traced", |b| {
        use ftsh::trace::{shared, RingSink};
        b.iter(|| {
            let sink = shared(RingSink::new(4096));
            let mut vms: Vec<Vm> = (0..200)
                .map(|i| {
                    let mut vm = Vm::with_seed(&script, i);
                    vm.set_tracer(sink.clone(), i as i64);
                    vm
                })
                .collect();
            let effects: usize = vms
                .iter_mut()
                .map(|vm| vm.tick(Time::ZERO).effects.len())
                .sum();
            std::hint::black_box(effects)
        });
    });

    // `figures --stats`' workload, shortened to bench-iteration size.
    let steady = parse(&egbench::vm_steady_source(100)).unwrap();
    g.bench_function("vm_steady", |b| {
        b.iter(|| std::hint::black_box(egbench::vm_steady_run(&steady)));
    });

    let calls = parse(&egbench::vm_calls_source(100)).unwrap();
    g.bench_function("vm_calls", |b| {
        b.iter(|| std::hint::black_box(egbench::vm_drive(&calls, &CmdResult::fail())));
    });
    let forall = parse(&egbench::vm_forall_loop_source(800)).unwrap();
    g.bench_function("vm_forall_loop", |b| {
        b.iter(|| std::hint::black_box(egbench::vm_drive(&forall, &CmdResult::ok("ok"))));
    });

    let points: Vec<(Discipline, usize)> = Discipline::ALL
        .iter()
        .flat_map(|&d| [25usize, 50, 100].into_iter().map(move |n| (d, n)))
        .collect();
    g.bench_function("sweep_seq", |b| {
        b.iter(|| {
            let out = sweep::map_with_threads(1, &points, |&(d, n)| submission_point(d, n));
            std::hint::black_box(out)
        });
    });
    g.bench_function("sweep_par", |b| {
        b.iter(|| {
            let out = sweep::map_with_threads(4, &points, |&(d, n)| submission_point(d, n));
            std::hint::black_box(out)
        });
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
