//! Command dispatch reuses what the last dispatch handed back: an
//! all-literal command's argv is pooled with its words, which are the
//! program's own literals, and dispatched again as it is; any other
//! command gets its words fresh.

use ftsh::bytecode::{compile_cached, WordTpl};
use ftsh::vm::{CmdResult, CommandSpec, Effect, Vm, VmStatus};
use ftsh::{parse, Env, Istr, Script};
use retry::Time;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's heap allocations (tests run on threads of
/// their own, so each counts only its own).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The literal words of command `cix` of `script`'s program.
fn literals(script: &Script, cix: usize) -> Vec<Istr> {
    let prog = compile_cached(script);
    prog.cmds[cix]
        .argv
        .iter()
        .map(|&w| match &prog.words[w as usize] {
            WordTpl::Lit(s) => s.clone(),
            other => panic!("command {cix} has a non-literal word {other:?}"),
        })
        .collect()
}

/// Tick `vm` at `now` until it starts a command (sleeping through
/// backoff), and return that command.
fn next_start(vm: &mut Vm, now: &mut Time, effects: &mut Vec<Effect>) -> (u64, CommandSpec) {
    loop {
        let status = vm.tick_into(*now, effects);
        if let Some(Effect::Start { token, spec, .. }) = effects.pop() {
            assert!(effects.is_empty(), "one command at a time");
            return (token, spec);
        }
        match status {
            VmStatus::Running { next_wake: Some(t) } => *now = t,
            other => panic!("no command started: {other:?}"),
        }
    }
}

fn same_words(a: &[Istr], b: &[Istr]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.ptr_eq(y))
}

#[test]
fn a_literal_command_is_dispatched_again_as_it_was_handed_back() {
    let script = parse("try 5 times every 1 second\n cut -f2 /proc/sys/fs/file-nr\nend\n").unwrap();
    let lits = literals(&script, 0);
    let mut vm = Vm::with_seed(&script, 1);
    vm.set_log_detail(false);
    let (mut now, mut effects) = (Time::ZERO, Vec::new());

    let (token, first) = next_start(&mut vm, &mut now, &mut effects);
    assert!(same_words(&first.argv, &lits), "{:?}", first.argv);
    let buffer = first.argv.as_ptr();
    assert!(vm.complete(token, CmdResult::fail()));
    vm.recycle_spec(first);

    // The second attempt: a backoff wake, then the same command.
    let before = allocs();
    let (token, second) = next_start(&mut vm, &mut now, &mut effects);
    assert_eq!(
        allocs() - before,
        0,
        "the second dispatch allocates nothing"
    );
    assert!(same_words(&second.argv, &lits), "{:?}", second.argv);
    assert_eq!(second.argv.as_ptr(), buffer, "the pooled vector itself");
    assert!(vm.complete(token, CmdResult::succeed()));
    assert!(
        !vm.complete(token, CmdResult::succeed()),
        "answered already"
    );
}

#[test]
fn any_other_command_after_a_literal_one_gets_fresh_words() {
    let src = "cut -f2 /proc/sys/fs/file-nr\nsubmit ${job} now\nother -f2\ncut -f2 /proc/sys/fs/file-nr\n";
    let script = parse(src).unwrap();
    let mut env = Env::new();
    env.set("job", "j-7");
    let mut vm = Vm::with_env_seed(&script, env, 1);
    let (mut now, mut effects) = (Time::ZERO, Vec::new());
    let mut run = |vm: &mut Vm| {
        let (token, spec) = next_start(vm, &mut now, &mut effects);
        assert!(vm.complete(token, CmdResult::succeed()));
        let words: Vec<Istr> = spec.argv.clone();
        vm.recycle_spec(spec);
        words
    };

    let cut = run(&mut vm);
    assert!(same_words(&cut, &literals(&script, 0)));
    // A template with a variable: its words, expanded now.
    let submit = run(&mut vm);
    assert_eq!(submit, ["submit", "j-7", "now"].map(Istr::from));
    assert!(submit.iter().all(|w| cut.iter().all(|c| !c.ptr_eq(w))));
    // Another literal template: its own literals, not the pooled ones,
    // even where the text is the same (`-f2`).
    let other = run(&mut vm);
    assert!(same_words(&other, &literals(&script, 2)), "{other:?}");
    assert!(!other[1].ptr_eq(&cut[1]));
    // A second `cut` is another template with equal text: its own
    // literals again.
    let again = run(&mut vm);
    assert!(same_words(&again, &literals(&script, 3)), "{again:?}");
}

#[test]
fn a_handed_back_argv_that_is_not_the_literals_is_emptied() {
    // A driver may hand back a spec it built or changed itself; only
    // the program's own literals are pooled with their words.
    let script = parse("try 3 times every 1 second\n cut -f2 x\nend\n").unwrap();
    let lits = literals(&script, 0);
    let mut vm = Vm::with_seed(&script, 1);
    let (mut now, mut effects) = (Time::ZERO, Vec::new());
    let (token, mut spec) = next_start(&mut vm, &mut now, &mut effects);
    assert!(vm.complete(token, CmdResult::fail()));
    spec.argv[2] = Istr::from("x");
    vm.recycle_spec(spec);
    let (_, next) = next_start(&mut vm, &mut now, &mut effects);
    assert!(same_words(&next.argv, &lits), "{:?}", next.argv);
}
