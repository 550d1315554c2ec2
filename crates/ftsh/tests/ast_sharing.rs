//! Regression tests for shared-AST semantics: building a population of
//! VMs from one parsed script must be O(1) in AST clones — every VM
//! holds a reference-counted handle to the same statement block.

use ftsh::ast::Block;
use ftsh::tree::TreeVm;
use ftsh::{parse, Env, Vm};

const POPULATION: usize = 1000;

const SCRIPT: &str = "try for 900 seconds\n\
       forany host in ${h1} ${h2} ${h3}\n\
         try for 5 seconds\n\
           wget http://${host}/flag\n\
         end\n\
         try for 60 seconds\n\
           wget http://${host}/data\n\
         end\n\
       end\n\
     end\n";

#[test]
fn thousand_tree_vms_share_one_ast() {
    let script = parse(SCRIPT).unwrap();

    let base = script.stmts.ref_count();
    assert_eq!(base, 1, "freshly parsed script owns its block alone");

    let vms: Vec<TreeVm> = (0..POPULATION)
        .map(|i| TreeVm::with_env_seed(&script, Env::new(), i as u64))
        .collect();

    // Each tree VM adds exactly one strong reference to the top-level
    // block: no deep copies anywhere in construction.
    assert_eq!(
        script.stmts.ref_count(),
        base + POPULATION,
        "every VM must share the script's allocation"
    );
    drop(vms);
    assert_eq!(script.stmts.ref_count(), base);
}

#[test]
fn thousand_bytecode_vms_compile_once() {
    let script = parse(SCRIPT).unwrap();

    let base = script.stmts.ref_count();

    // The interpreter holds no AST references at all: the first
    // construction compiles the script (the program cache keeps only a
    // weak AST handle) and the rest share the compiled program.
    let vms: Vec<Vm> = (0..POPULATION)
        .map(|i| Vm::with_seed(&script, i as u64))
        .collect();
    assert_eq!(
        script.stmts.ref_count(),
        base,
        "bytecode VMs must not clone the AST"
    );
    drop(vms);
}

#[test]
fn script_clone_is_pointer_equal() {
    let script = parse("try 3 times\n  wget url\nend\n").unwrap();
    let copy = script.clone();
    assert!(
        Block::ptr_eq(&script.stmts, &copy.stmts),
        "cloning a script shares, not copies, its statements"
    );
}

#[test]
fn vm_population_is_send() {
    // The shared AST is Arc-backed, so a population of VMs can be
    // fanned out across threads (the parallel sweep runner relies on
    // this).
    fn assert_send<T: Send>() {}
    assert_send::<Vm>();

    let script = parse("hello world\n").unwrap();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let vm = Vm::with_seed(&script, i);
            std::thread::spawn(move || {
                let mut vm = vm;
                let tick = vm.tick(retry::Time::ZERO);
                tick.effects.len()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 1);
    }
}
