//! What the front end allocates, pinned without a clock: `lex` grows
//! its token vector and nothing else, and `parse` of a fixed
//! 2 000-statement script makes an exact number of allocations. The
//! counts repeat exactly on any host, so they gate in tier-1 where the
//! benchmark's timings cannot.

use ftsh::lexer::{lex, Token};
use ftsh::{parse, Word};
use simgrid::SimRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::mem::size_of;

// A token is its kind, line and span: no text of its own.
const _: () = assert!(size_of::<Token>() <= 16);
// One segment inline or a boxed slice: no bigger than the `Vec` it was.
const _: () = assert!(size_of::<Word>() <= 32);

thread_local! {
    /// Allocator calls (`alloc` and `realloc`) made by this thread: the
    /// test harness's other threads do not disturb the count.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// Counts, then delegates all memory work to the system allocator.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping beside it
// touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down allocates with its
        // locals gone.
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocator calls `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = calls();
    let out = f();
    (calls() - before, out)
}

/// One top-level statement of one of the benchmark generator's eight
/// kinds (`benchmark/src/gen.rs`), picked by `rng`: an assignment, a
/// command with interpolated words and a capture, a quoted argument,
/// `if`, `try`, `forany`, `forall`, a helper call. Returns how many
/// statements it holds.
fn statement(rng: &mut SimRng, out: &mut String, k: usize) -> usize {
    let (v, o) = (k % 7, k % 3);
    let (written, n) = match rng.range_u64(0, 8) {
        0 => (writeln!(out, "v{v}=item-{k}"), 1),
        1 => (
            writeln!(out, "fetch-{} ${{v{v}}} --id {k} -> out{o}", k % 5),
            1,
        ),
        2 => (
            writeln!(out, "stage \"block ${{v{v}}} of {k}\" path/${{out{o}}}/data"),
            1,
        ),
        3 => (
            writeln!(
                out,
                "if ${{n{}}} .lt. {}\n  defer {k}\nelse\n  proceed {k} ${{v{v}}}\nend",
                k % 4,
                rng.range_u64(1, 5000)
            ),
            3,
        ),
        4 => (
            writeln!(
                out,
                "try for {} seconds or {} times\n  transfer ${{v{v}}} host-{k}\nend",
                rng.range_u64(5, 600),
                rng.range_u64(2, 9)
            ),
            2,
        ),
        5 => (
            writeln!(
                out,
                "forany host in alpha-{k} beta-{k} gamma-{k}\n  try for {} seconds\n    wget http://${{host}}/f{k}\n  end\nend",
                rng.range_u64(5, 120)
            ),
            3,
        ),
        6 => (
            writeln!(
                out,
                "forall part in p0 p1 p2 p3\n  try {} times every {} ms\n    publish ${{part}} {k} -> ack{o}\n  end\nend",
                rng.range_u64(2, 6),
                rng.range_u64(10, 500)
            ),
            3,
        ),
        _ => (writeln!(out, "helper{o} {k} ${{v{v}}}"), 1),
    };
    written.expect("writing to a String");
    n
}

/// Three helper functions, then generated statements up to 2 000.
fn script() -> String {
    let mut rng = SimRng::new(2003);
    let mut s = String::new();
    for f in 0..3 {
        let _ = writeln!(
            s,
            "function helper{f}\n  note ${{1}} ${{2}} -> last{f}\nend"
        );
    }
    let (mut n, mut k) = (6, 0);
    while n < 2000 {
        n += statement(&mut rng, &mut s, k);
        k += 1;
    }
    s
}

#[test]
fn lex_allocates_only_its_token_vector() {
    let src = script();
    let (allocs, tokens) = counted(|| lex(&src).expect("the script lexes"));
    // A doubling vector of n tokens grows at most ceil(log2 n) + 1 times.
    let growths = u64::from(usize::BITS - (tokens.len() - 1).leading_zeros()) + 1;
    assert!(
        allocs <= growths,
        "lex of {} tokens made {allocs} allocations, want at most {growths}",
        tokens.len()
    );
}

/// Allocator calls of one `parse` of [`script`]: one `Istr` per word
/// segment, the AST's vectors and blocks. 55 198 at the parent commit,
/// whose lexer allocated per character run and per word and whose
/// parser cloned every token.
const PARSE_ALLOCS: u64 = 13_443;

#[test]
fn parse_allocates_a_pinned_count() {
    let src = script();
    let (allocs, script) = counted(|| parse(&src).expect("the script parses"));
    assert_eq!(script.len(), 1085, "the input is not the one pinned");
    let (again, _) = counted(|| parse(&src).expect("the script parses"));
    assert_eq!(allocs, again, "allocation counts must repeat exactly");
    assert_eq!(allocs, PARSE_ALLOCS, "parse of {} bytes", src.len());
}
